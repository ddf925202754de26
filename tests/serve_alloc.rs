//! What a daemon job holds beyond the sessions, asserted with the counting
//! global allocator on the in-process serve loop, one job in flight:
//!
//! * a `refactor` of a session that holds a matrix streams its values file
//!   against the held pattern: the job's heap peak stays within one value
//!   array (`nnz` × 8 bytes) and one read buffer of the live bytes before
//!   it, and the job's own bookkeeping — no text of the file, no
//!   triplets, no second pattern;
//! * a `solve --rhs` streams its right-hand side the same way: the peak
//!   stays within a few `n`-vectors, one read buffer and the bookkeeping;
//! * a second session on a held pattern shares its analysis: its `analyze`
//!   leaves only the entry's bookkeeping behind, no symbolic state, and its
//!   `factor` adds the analysis' `factor_bytes`, its values and at most
//!   16 KiB more;
//! * sessions evicted and revived under `--session-budget` leave the pool's
//!   `resident_bytes` within 2 % of the live bytes, the shared analysis
//!   charged once, and `scratch_bytes` exactly the update scratch the one
//!   lane holds — a part of the live bytes no session owns.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: a concurrent test in the same process
//! would race the global peak counter.

mod common;

use common::stepped::stepped;
use parsplu::core::{thread_scratch_bytes, Options, SluSession};
use parsplu::matgen::{manufactured_rhs, paper_matrix, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::serve::{serve_loop, ServeConfig};
use parsplu::sparse::io::{format_matrix_market, STREAM_CHUNK};
use splu_bench::json::{parse, Json};
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The counting allocator, with a high-water mark of this test's own: an
/// observed job's phase spans reset the shared one as they attribute the
/// heap to phases.
struct JobPeak;

static LIVE: AtomicU64 = AtomicU64::new(0);
static HIGH: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    HIGH.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for JobPeak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: JobPeak = JobPeak;

/// What any job allocates before it reads its input, whatever the input:
/// the job line and its tokens, the pinned session, the observation
/// session.
const JOB_BOOKKEEPING: u64 = 2048;

#[test]
fn streamed_jobs_hold_one_array_and_one_buffer() {
    let mut a = paper_matrix("sherman3", Scale::Full).unwrap();
    let (n, nnz) = (a.nrows() as u64, a.nnz() as u64);
    // The update scratch a thread that factors this pattern holds after:
    // measured on a thread of its own, which frees it on exit.
    let lane_scratch = std::thread::scope(|scope| {
        let factor = scope.spawn(|| {
            let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
            s.factor(&a).unwrap();
            thread_scratch_bytes()
        });
        factor.join().unwrap()
    });
    assert!(lane_scratch > 0);
    let dir = std::env::temp_dir();
    let path = |name: &str| {
        let p = dir.join(format!("parsplu-serve-alloc-{}-{name}", std::process::id()));
        p.to_str().unwrap().to_string()
    };
    let (base, values, rhs) = (path("a.mtx"), path("b.mtx"), path("rhs.txt"));
    std::fs::write(&base, format_matrix_market(&a)).unwrap();
    a.values_mut().iter_mut().for_each(|v| *v *= 1.5);
    let file_bytes = format_matrix_market(&a);
    std::fs::write(&values, &file_bytes).unwrap();
    let b = manufactured_rhs(&a, 3).1;
    std::fs::write(
        &rhs,
        b.iter().map(|v| format!("{v:e}\n")).collect::<String>(),
    )
    .unwrap();

    let script = [
        format!("analyze s {base}"),
        format!("factor s {base}"),
        // The first refactor allocates what every later one reuses.
        format!("refactor s {values}"),
        format!("solve s --rhs {rhs}"),
        format!("refactor s {base}"),
        format!("solve s --rhs {rhs}"),
        "quit".to_string(),
    ];
    // Growth of the heap peak over the live bytes as each line is handed
    // out, measured when the next line is.
    let mut peaks = vec![0u64; script.len()];
    let mut before = 0;
    let hook = |i: usize| {
        let live = settled();
        if i > 0 {
            peaks[i - 1] = HIGH.load(Ordering::Relaxed) - before;
        }
        before = live;
        HIGH.store(live, Ordering::Relaxed);
    };
    let (reader, replies) = stepped(&script, hook);
    let writer = Mutex::new(replies);
    serve_loop(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        reader,
        &writer,
        None,
    )
    .unwrap();
    for reply in writer.into_inner().unwrap().lines() {
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    let _ = std::fs::remove_file(&rhs);
    let buffer = STREAM_CHUNK as u64;
    let (refactor, solve) = (peaks[4], peaks[5]);
    assert!(
        refactor <= nnz * 8 + buffer + JOB_BOOKKEEPING,
        "a streamed refactor of {nnz} values grew the heap peak by {refactor} bytes"
    );
    assert!(
        solve <= 4 * n * 8 + buffer + JOB_BOOKKEEPING,
        "a streamed solve of {n} values grew the heap peak by {solve} bytes"
    );
    // The general reader held the text, three triplet arrays and a pattern
    // at once: more than the file's size.
    assert!(refactor < file_bytes.len() as u64 / 2, "{refactor} bytes");

    let (price, laid_out) = a_second_session_adds_its_factors_alone(&base, &values, nnz);
    evictions_leave_the_pool_charging_what_is_live(&base, price + 8 * nnz, laid_out, lane_scratch);
    for p in [&base, &values] {
        let _ = std::fs::remove_file(p);
    }
}

/// Live bytes once every worker has come to rest: a reply is written
/// before its job drops what it holds.
fn settled() -> u64 {
    let mut live = LIVE.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let again = LIVE.load(Ordering::Relaxed);
        if again == live {
            return live;
        }
        live = again;
    }
}

/// Serves `script` one job at a time on one worker: the replies, and the
/// settled live bytes as each line is handed out.
fn serve(script: &[String], budget: Option<u64>) -> (Vec<Json>, Vec<u64>) {
    let mut live = Vec::new();
    let (reader, replies) = stepped(script, |_| live.push(settled()));
    let writer = Mutex::new(replies);
    let cfg = ServeConfig {
        workers: 1,
        session_budget: budget,
        ..ServeConfig::default()
    };
    serve_loop(cfg, reader, &writer, None).unwrap();
    let replies: Vec<Json> = (writer.into_inner().unwrap().lines().iter())
        .map(|l| parse(l).unwrap())
        .collect();
    for r in &replies {
        assert_eq!(r.get("status").and_then(Json::as_str), Some("ok"), "{r:?}");
    }
    (replies, live)
}

fn num(reply: &Json, key: &str) -> u64 {
    reply.get(key).and_then(Json::as_num).unwrap() as u64
}

/// Two sessions on full sherman3, each analyzed, factored and refactored:
/// the second shares the first's analysis. Returns the analysis'
/// `factor_bytes` and its laid-out resident bytes.
fn a_second_session_adds_its_factors_alone(base: &str, values: &str, nnz: u64) -> (u64, u64) {
    let mut script = Vec::new();
    for name in ["s", "t"] {
        script.push(format!("analyze {name} {base}"));
        script.push(format!("factor {name} {base}"));
        script.push(format!("refactor {name} {values}"));
    }
    script.push("quit".to_string());
    let (replies, live) = serve(&script, None);
    let grew = |line: usize| live[line + 1] - live[line];
    let analyzed = num(&replies[0], "resident_bytes");
    let price = num(&replies[0], "factor_bytes");
    assert_eq!(price, num(&replies[3], "factor_bytes"));
    assert!(
        grew(0) >= analyzed,
        "the first analyze holds {analyzed} bytes of symbolic state"
    );
    assert!(
        grew(3) <= JOB_BOOKKEEPING,
        "the second analyze left {} bytes behind",
        grew(3)
    );
    let factor = grew(4);
    assert!(
        factor <= price + 8 * nnz + 16 * 1024,
        "the second factor added {factor} bytes, priced at {price} + {} values",
        8 * nnz
    );
    let held = num(&replies[1], "resident_bytes");
    assert_eq!(
        held,
        num(&replies[4], "resident_bytes"),
        "one analysis, counted whole"
    );
    (price, held - price - 8 * nnz)
}

/// Three sessions on one pattern under a budget that holds the analysis,
/// two sessions' factors and values and the lane's scratch: the third
/// evicts the first, whose revival evicts the second. At each `stats` the
/// pool charges what is live, the analysis once, and the lane's update
/// scratch (`lane_scratch`) beside the sessions.
fn evictions_leave_the_pool_charging_what_is_live(
    base: &str,
    own: u64,
    analysis: u64,
    lane_scratch: u64,
) {
    let budget = analysis + 2 * own + own / 2;
    let mut script = Vec::new();
    for name in ["s", "t", "u"] {
        script.push(format!("analyze {name} {base}"));
        script.push(format!("factor {name} {base}"));
    }
    script.push("stats".to_string());
    script.push(format!("analyze s {base}"));
    script.push(format!("factor s {base}"));
    script.push("stats".to_string());
    script.push("quit".to_string());
    let (replies, live) = serve(&script, Some(budget));
    for at in [6, 9] {
        let stats = &replies[at];
        let (resident, held) = (num(stats, "resident_bytes"), live[at] - live[0]);
        let scratch = num(stats, "scratch_bytes");
        assert_eq!(num(stats, "sessions"), 2, "{stats:?}");
        assert_eq!(num(stats, "analyses"), 1, "{stats:?}");
        assert_eq!(resident, analysis + 2 * own, "{stats:?}");
        assert_eq!(scratch, lane_scratch, "the one lane's update scratch");
        // What no count names shrinks by exactly the lane's scratch.
        let charged = resident + scratch;
        assert!(
            charged <= held && (held - charged) * 50 <= held,
            "stats says {resident} resident and {scratch} scratch bytes, {held} are live \
             ({} not counted, {} before the scratch was)",
            held.abs_diff(charged),
            held.abs_diff(resident)
        );
    }
    assert_eq!(num(&replies[9], "sessions_evicted"), 2);
}
