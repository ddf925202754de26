//! Sessions that share one `Analysis`: each owns only its factors, and
//! sharing changes no bit of them.
//!
//! * Two sessions on one analysis factor concurrently on two threads and
//!   hold the factors of two sessions on analyses of their own, bitwise, at
//!   one and two numeric threads; their storages read one layout.
//! * A pivot that leaves its block in one session gives that session a
//!   private static analysis; the other keeps the shared analysis, its
//!   in-block structure, its layout and its factors (and with in-block
//!   pivots nobody falls back: the control).
//! * In the daemon, `analyze` jobs of one pattern racing on two lanes leave
//!   a consistent pool whether they end up sharing or not, and a restart's
//!   replay shares again.

use parsplu::core::{Analysis, LuError, Options, SluSession};
use parsplu::matgen::{cross_block_pivots, in_block_pivots, paper_matrix, Scale};
use parsplu::serve::{serve_loop, ServeConfig};
use parsplu::sparse::io::write_matrix_market;
use parsplu::sparse::CscMatrix;
use splu_bench::json::{parse, Json};
use std::io::{BufRead, Read};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// New values with `a`'s pattern.
fn revalue(a: &CscMatrix, salt: u64) -> CscMatrix {
    let mut b = a.clone();
    for (t, v) in b.values_mut().iter_mut().enumerate() {
        let wig = (((t as u64).wrapping_mul(salt * 2 + 1) % 83) as f64) / 83.0;
        *v += 0.2 * (wig - 0.5) * (1.0 + v.abs());
    }
    b
}

/// The factors of `a` from a session on an analysis of its own.
fn alone(a: &CscMatrix, opts: &Options) -> Result<SluSession, LuError> {
    let mut s = SluSession::analyze(a.pattern(), opts)?;
    s.factor(a)?;
    Ok(s)
}

#[test]
fn sessions_on_one_analysis_factor_concurrently_to_their_own_bits() -> Result<(), LuError> {
    let a = paper_matrix("sherman3", Scale::Reduced).unwrap();
    let values = [revalue(&a, 1), revalue(&a, 2)];
    for threads in [1, 2] {
        let opts = Options {
            threads,
            ..Options::default()
        };
        let analysis = Arc::new(Analysis::new(a.pattern(), &opts)?);
        let mut sessions = [0, 1].map(|_| SluSession::on(Arc::clone(&analysis)));
        std::thread::scope(|scope| {
            for (s, v) in sessions.iter_mut().zip(&values) {
                scope.spawn(move || {
                    for _ in 0..3 {
                        s.factor(v).unwrap();
                    }
                });
            }
        });
        let [x, y] = sessions.each_ref().map(|s| s.block_matrix().unwrap());
        assert!(x.shares_layout(y), "threads={threads}: one layout");
        for (s, v) in sessions.iter().zip(&values) {
            let own = alone(v, &opts)?;
            let got = s
                .block_matrix()
                .unwrap()
                .factor_difference(own.block_matrix().unwrap());
            assert_eq!(got, None, "threads={threads}");
            assert!(std::ptr::eq(s.analysis(), &*analysis));
        }
    }
    Ok(())
}

/// One session's values take pivots from below their blocks, the other's
/// (the same pattern, column-dominant values) do not.
#[test]
fn a_fallback_stays_in_its_session() -> Result<(), LuError> {
    let cases = [
        ("cross_block_pivots", cross_block_pivots(120, 3), true),
        ("in_block_pivots", in_block_pivots(12, 6, 3), false),
    ];
    for (name, wild, falls_back) in cases {
        let tame = {
            let trips: Vec<_> = (wild.triplets())
                .map(|(i, j, _)| (i, j, if i == j { 1e3 } else { 1e-3 }))
                .collect();
            CscMatrix::from_triplets(wild.nrows(), wild.ncols(), &trips).unwrap()
        };
        let analysis = Arc::new(Analysis::new(wild.pattern(), &Options::default())?);
        let in_block = analysis.symbolic().block_structure.clone();
        let mut calm = SluSession::on(Arc::clone(&analysis));
        calm.factor(&tame)?;
        let before = alone(&tame, &Options::default())?;
        let mut other = SluSession::on(Arc::clone(&analysis));
        other.factor(&wild)?;
        assert_eq!(other.is_realised(), !falls_back, "{name}");
        assert_eq!(
            std::ptr::eq(other.analysis(), &*analysis),
            !falls_back,
            "{name}: a fallback runs on a private analysis"
        );
        let (calm_bm, other_bm) = (calm.block_matrix().unwrap(), other.block_matrix().unwrap());
        assert_eq!(calm_bm.shares_layout(other_bm), !falls_back, "{name}");
        // The shared analysis and the calm session are as they were.
        assert!(analysis.is_realised() && calm.is_realised(), "{name}");
        assert!(std::ptr::eq(calm.analysis(), &*analysis), "{name}");
        assert!(Arc::ptr_eq(&analysis.symbolic().block_structure, &in_block));
        let diff = calm_bm.factor_difference(before.block_matrix().unwrap());
        assert_eq!(diff, None, "{name}");
        let mut late = SluSession::on(Arc::clone(&analysis));
        late.factor(&tame)?;
        assert!(
            late.block_matrix().unwrap().shares_layout(calm_bm),
            "{name}"
        );
        // Either way the wild values' factors are a session's of their own.
        let wild_alone = alone(&wild, &Options::default())?;
        assert_eq!(
            other_bm.factor_difference(wild_alone.block_matrix().unwrap()),
            None
        );
    }
    Ok(())
}

/// A script fed through the stdio entry one phase at a time: a phase's
/// lines are handed out at once, once every earlier line was answered.
struct Phases<'a> {
    phases: &'a [Vec<String>],
    /// The phase being handed out and the bytes of it already read.
    text: Vec<u8>,
    read: usize,
    next: usize,
    /// Lines handed out so far, and the replies written to.
    sent: usize,
    replies: &'a Mutex<Vec<u8>>,
}

impl Read for Phases<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Phases<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.read == self.text.len() {
            let Some(phase) = self.phases.get(self.next) else {
                return Ok(&[]);
            };
            let t0 = Instant::now();
            let answered = || {
                self.replies
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count()
            };
            while answered() < self.sent {
                assert!(t0.elapsed() < Duration::from_secs(120), "no reply");
                std::thread::sleep(Duration::from_millis(1));
            }
            self.text = format!("{}\n", phase.join("\n")).into_bytes();
            (self.read, self.next, self.sent) = (0, self.next + 1, self.sent + phase.len());
        }
        Ok(&self.text[self.read..])
    }

    fn consume(&mut self, amt: usize) {
        self.read += amt;
    }
}

/// Runs `phases` through a fresh engine under `cfg`, each phase's lines
/// submitted at once, and returns the replies in the order written.
fn drive(cfg: ServeConfig, phases: &[Vec<String>]) -> Vec<Json> {
    let replies = Mutex::new(Vec::new());
    let reader = Phases {
        phases,
        text: Vec::new(),
        read: 0,
        next: 0,
        sent: 0,
        replies: &replies,
    };
    serve_loop(cfg, reader, &replies, None).unwrap();
    let text = String::from_utf8(replies.into_inner().unwrap()).unwrap();
    text.lines().map(|l| parse(l).unwrap()).collect()
}

fn num(reply: &Json, key: &str) -> f64 {
    let got = reply.get(key).and_then(Json::as_num);
    got.unwrap_or_else(|| panic!("no `{key}` in {reply:?}"))
}

fn text<'j>(reply: &'j Json, key: &str) -> &'j str {
    reply.get(key).and_then(Json::as_str).unwrap()
}

fn lines(op: &str, names: &[&str], path: &str) -> Vec<String> {
    names.iter().map(|n| format!("{op} {n} {path}")).collect()
}

fn matrix_file(stem: &str) -> String {
    let a = paper_matrix("sherman3", Scale::Reduced).unwrap();
    let path =
        std::env::temp_dir().join(format!("parsplu-shared-{}-{stem}.mtx", std::process::id()));
    write_matrix_market(&a, &path).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn racing_analyze_jobs_leave_a_consistent_pool() {
    let path = matrix_file("race");
    let names = ["s1", "s2", "s3", "s4"];
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let solves: Vec<String> = names.iter().map(|n| format!("solve {n}")).collect();
    let phases = [
        lines("analyze", &names, &path),
        lines("factor", &names, &path),
        solves,
        vec!["stats".to_string()],
    ];
    let replies = drive(cfg, &phases);
    assert!(
        replies.iter().all(|r| text(r, "status") == "ok"),
        "{replies:?}"
    );
    let stats = &replies[12];
    let (analyses, shared) = (num(stats, "analyses"), num(stats, "analyses_shared"));
    assert!((1.0..=4.0).contains(&analyses), "{stats:?}");
    assert_eq!(analyses + shared, 4.0, "every analyze shared or pooled one");
    let hashes: Vec<&str> = replies[8..12].iter().map(|r| text(r, "x_hash")).collect();
    assert!(hashes.iter().all(|h| *h == hashes[0]), "{hashes:?}");
    // Each factor reply charges its session whole: an analysis `A` laid
    // out and its own factors and values `F + 8 nnz`; the pool charges
    // each distinct analysis once.
    let nnz = paper_matrix("sherman3", Scale::Reduced).unwrap().nnz() as f64;
    let own = num(&replies[0], "factor_bytes") + 8.0 * nnz;
    let whole = num(&replies[4], "resident_bytes");
    assert!(replies[4..8]
        .iter()
        .all(|r| num(r, "resident_bytes") == whole));
    let pool = analyses * (whole - own) + 4.0 * own;
    assert_eq!(num(stats, "resident_bytes"), pool, "{stats:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_after_a_restart_shares_again() {
    let path = matrix_file("replay");
    let state = std::env::temp_dir().join(format!("parsplu-shared-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let cfg = || ServeConfig {
        workers: 2,
        state_dir: Some(state.clone()),
        ..ServeConfig::default()
    };
    let names = ["s", "t"];
    let solves = || vec!["solve s".to_string(), "solve t".to_string()];
    let stats = || vec!["stats".to_string()];
    let phases = [
        lines("analyze", &names[..1], &path),
        lines("analyze", &names[1..], &path),
        lines("factor", &names, &path),
        solves(),
        stats(),
    ];
    let before = drive(cfg(), &phases);
    let after = drive(cfg(), &[solves(), stats()]);
    for (replies, at) in [(&before, 6), (&after, 2)] {
        let stats = &replies[at];
        assert_eq!(num(stats, "sessions"), 2.0, "{stats:?}");
        assert_eq!(num(stats, "analyses"), 1.0, "{stats:?}");
        assert_eq!(num(stats, "analyses_shared"), 1.0, "{stats:?}");
    }
    let hash = |r: &Json| text(r, "x_hash").to_string();
    let want: Vec<String> = before[4..6].iter().map(hash).collect();
    assert_eq!(want[0], want[1]);
    assert_eq!(after[..2].iter().map(hash).collect::<Vec<_>>(), want);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_file(&path);
}
