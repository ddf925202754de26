//! A job script for the in-process serve loop, fed one job at a time: a
//! line is handed to the loop only once every earlier line has been
//! answered, as by a client that keeps one job in flight. So an inline
//! `stats` sees every earlier job's effect, and a hook that runs as a
//! line is handed out brackets that job alone.

use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The loop's writer: the reply lines, in a buffer reserved up front so
/// that writing a reply allocates nothing.
pub struct Replies {
    out: Vec<u8>,
    count: Arc<AtomicUsize>,
}

impl Replies {
    /// The reply lines written so far.
    pub fn lines(&self) -> Vec<String> {
        let text = std::str::from_utf8(&self.out).expect("replies are UTF-8");
        text.lines().map(String::from).collect()
    }
}

impl Write for Replies {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        let feeds = buf.iter().filter(|&&b| b == b'\n').count();
        self.count.fetch_add(feeds, Ordering::Release);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The loop's reader over `lines`; `hook(i)` runs once, as line `i` is
/// handed out, after the replies to lines `0..i` have been written.
pub struct Stepped<F> {
    lines: Vec<String>,
    next: usize,
    offset: usize,
    /// Lines the hook has run for.
    hooked: usize,
    count: Arc<AtomicUsize>,
    hook: F,
}

/// A reader over the script `lines` (each answered by one reply, but a
/// final `quit`) and the writer it waits on.
pub fn stepped<F: FnMut(usize)>(lines: &[String], hook: F) -> (Stepped<F>, Replies) {
    let count = Arc::new(AtomicUsize::new(0));
    let reader = Stepped {
        lines: lines.iter().map(|l| format!("{l}\n")).collect(),
        next: 0,
        offset: 0,
        hooked: 0,
        count: Arc::clone(&count),
        hook,
    };
    let replies = Replies {
        out: Vec::with_capacity(1 << 20),
        count,
    };
    (reader, replies)
}

impl<F: FnMut(usize)> Read for Stepped<F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl<F: FnMut(usize)> BufRead for Stepped<F> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if self.hooked == self.next {
            let t0 = Instant::now();
            while self.count.load(Ordering::Acquire) < self.next {
                assert!(
                    t0.elapsed() < Duration::from_secs(120),
                    "no reply to line {} of the script",
                    self.next
                );
                std::thread::sleep(Duration::from_micros(200));
            }
            (self.hook)(self.next);
            self.hooked += 1;
        }
        Ok(&line.as_bytes()[self.offset..])
    }

    fn consume(&mut self, amt: usize) {
        self.offset += amt;
        if self
            .lines
            .get(self.next)
            .is_some_and(|l| self.offset >= l.len())
        {
            (self.next, self.offset) = (self.next + 1, 0);
        }
    }
}
