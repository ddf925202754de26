//! Bounded work lanes for long-running services.
//!
//! A [`Lane`] is a bounded multi-producer/single-consumer (or
//! multi-consumer — nothing forbids it) queue with *rejection* semantics:
//! a full lane refuses the item immediately instead of blocking or
//! growing, so a service built on lanes converts overload into a
//! structured response to the client rather than unbounded buffering.
//! This is the queueing half of the serve daemon's backpressure story
//! (DESIGN.md §5.4); the scheduler's own executor keeps its unbounded
//! ready pools because a factorization's task count is known and finite.
//!
//! Lanes report their depth after every accepted push, so the daemon can
//! export peak queue depth as a gated metric, and they support cooperative
//! shutdown: [`Lane::close`] wakes every blocked consumer, which then drain
//! the remaining items and observe `None`. Closing never discards accepted
//! work — graceful shutdown runs the queue dry first.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a [`Lane::try_push`] refused an item. The item rides back to the
/// caller so a rejection response can still describe the job.
#[derive(Debug)]
pub enum LaneRejected<T> {
    /// The lane held `capacity` items already; `depth` is that capacity
    /// (the queue depth the rejected client observed).
    Full {
        /// The refused item, returned to the caller.
        item: T,
        /// Queue depth at rejection time (== capacity).
        depth: usize,
    },
    /// The lane was closed: the service is draining and accepts no new
    /// work.
    Closed {
        /// The refused item, returned to the caller.
        item: T,
    },
}

struct LaneState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded, close-able job queue (the module docs of `lane.rs` have the
/// backpressure contract).
pub struct Lane<T> {
    state: Mutex<LaneState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> Lane<T> {
    /// A lane accepting at most `capacity` queued items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        Lane {
            state: Mutex::new(LaneState {
                queue: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, or refuses it immediately when the lane is full or
    /// closed. On success returns the depth *after* the push (for peak
    /// accounting on the caller's side too).
    pub fn try_push(&self, item: T) -> Result<usize, LaneRejected<T>> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(LaneRejected::Closed { item });
        }
        if s.queue.len() >= self.capacity {
            return Err(LaneRejected::Full {
                item,
                depth: s.queue.len(),
            });
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        drop(s);
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available (returning it) or the lane is
    /// closed **and drained** (returning `None`). A closed lane still
    /// yields its queued items: accepted work is never dropped.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            self.available.wait(&mut s);
        }
    }

    /// Closes the lane: future pushes are refused, and consumers drain the
    /// queue then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Instantaneous queue depth.
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// The bound this lane enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_and_depth() {
        let lane = Lane::new(3);
        assert_eq!(lane.try_push(1).unwrap(), 1);
        assert_eq!(lane.try_push(2).unwrap(), 2);
        assert_eq!(lane.depth(), 2);
        assert_eq!(lane.pop(), Some(1));
        assert_eq!(lane.pop(), Some(2));
        assert_eq!(lane.depth(), 0);
    }

    #[test]
    fn full_lane_rejects_with_depth() {
        let lane = Lane::new(2);
        lane.try_push("a").unwrap();
        lane.try_push("b").unwrap();
        match lane.try_push("c") {
            Err(LaneRejected::Full { item, depth }) => {
                assert_eq!(item, "c");
                assert_eq!(depth, 2);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one slot re-admits work.
        assert_eq!(lane.pop(), Some("a"));
        lane.try_push("c").unwrap();
    }

    #[test]
    fn close_wakes_consumers_and_drains_accepted_work() {
        let lane = Arc::new(Lane::new(4));
        lane.try_push(7).unwrap();
        lane.try_push(8).unwrap();
        lane.close();
        match lane.try_push(9) {
            Err(LaneRejected::Closed { item }) => assert_eq!(item, 9),
            other => panic!("expected Closed, got {other:?}"),
        }
        // Accepted items still come out, then None forever.
        assert_eq!(lane.pop(), Some(7));
        assert_eq!(lane.pop(), Some(8));
        assert_eq!(lane.pop(), None);
        assert_eq!(lane.pop(), None);
    }

    #[test]
    fn blocked_consumer_is_released_by_close() {
        let lane = Arc::new(Lane::<u32>::new(1));
        let consumer = {
            let lane = Arc::clone(&lane);
            std::thread::spawn(move || lane.pop())
        };
        // Give the consumer a moment to park, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        lane.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_never_exceed_capacity() {
        let lane = Arc::new(Lane::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let lane = Arc::clone(&lane);
                std::thread::spawn(move || {
                    let mut accepted = 0usize;
                    for i in 0..100 {
                        if let Ok(depth) = lane.try_push(p * 1000 + i) {
                            assert!(depth <= 8, "depth {depth} > capacity");
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let consumer = {
            let lane = Arc::clone(&lane);
            std::thread::spawn(move || {
                let mut got = 0usize;
                while lane.pop().is_some() {
                    got += 1;
                }
                got
            })
        };
        let accepted: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
        lane.close();
        let consumed = consumer.join().unwrap();
        assert_eq!(accepted, consumed, "every accepted item is consumed");
    }
}
