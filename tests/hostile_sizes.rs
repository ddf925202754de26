//! A Matrix Market file whose size line declares more columns than its
//! entries can fill is refused from the size line, before any array is
//! sized from it: `parsplu analyze` and a daemon `analyze` answer it as
//! structurally singular, naming the size line, with a heap peak under
//! 1 MB — not the gigabytes of column pointers and transversal workspace an
//! order of 10⁸ would take.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: the daemon analyzes on its lane worker,
//! so that window reads the process-wide peak, which a concurrent test in
//! the same process would race. The CLI window runs on this thread and
//! reads its counters.

mod common;

use parsplu::cli::run;
use parsplu::obs::{heap_stats, reset_heap_peak, CountingAlloc};
use parsplu::serve::{serve_loop, ServeConfig};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the growth of the process-wide heap peak over the live
/// bytes before it ran, whichever thread allocated.
fn process_peak_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = heap_stats().expect("allocator installed").current_bytes;
    reset_heap_peak();
    let out = f();
    (out, heap_stats().unwrap().peak_bytes - before)
}

#[test]
fn a_size_line_no_entries_can_fill_is_refused_before_anything_is_sized() {
    let path = std::env::temp_dir().join(format!("parsplu-hostile-{}.mtx", std::process::id()));
    let text = "%%MatrixMarket matrix coordinate real general\n\
                100000000 100000000 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n";
    std::fs::write(&path, text).unwrap();
    let path = path.to_str().unwrap().to_string();
    let named = "line 2: size line `100000000 100000000 3`";

    let args = ["analyze".to_string(), path.clone()];
    let (got, peak) = common::alloc::peak_of(|| run(&args));
    let err = got.expect_err("the file is refused");
    assert_eq!(err.exit_code, 3, "{}", err.message);
    assert!(err.message.contains(named), "{}", err.message);
    assert!(
        err.message.contains("structurally singular"),
        "{}",
        err.message
    );
    assert!(
        peak < 1 << 20,
        "the CLI peaked {peak} bytes above its start"
    );

    let script = format!("analyze h {path}\nquit\n");
    let writer = Mutex::new(Vec::<u8>::new());
    let (served, peak) = process_peak_of(|| {
        serve_loop(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            script.as_bytes(),
            &writer,
            None,
        )
    });
    served.unwrap();
    let replies = String::from_utf8(writer.into_inner().unwrap()).unwrap();
    let reply = replies.lines().next().unwrap();
    for field in [
        r#""status":"error""#,
        r#""kind":"numeric""#,
        r#""exit_code":3"#,
        named,
    ] {
        assert!(reply.contains(field), "{reply}");
    }
    assert!(
        peak < 1 << 20,
        "the daemon peaked {peak} bytes above its start"
    );
    let _ = std::fs::remove_file(&path);
}
