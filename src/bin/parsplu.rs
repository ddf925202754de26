//! The `parsplu` command-line tool. See `parsplu --help`.
//!
//! Exit codes: `0` success, `2` usage/input errors, `3` numerical
//! failures, `4` contained worker panics, `5` deadline exceeded,
//! `6` watchdog stall, `130` Ctrl-C (see the `EXIT CODES` section of the
//! usage text).
//!
//! Ctrl-C is routed through a [`parsplu::core::CancelToken`]: the first
//! SIGINT asks the numeric phase to drain at the next task boundary and
//! exit with code 130; a second SIGINT falls back to the default handler
//! and kills the process immediately. The library crates all
//! `forbid(unsafe_code)` — the two `unsafe` blocks below (a raw libc
//! `signal(2)` binding, to avoid pulling in a signal-handling dependency)
//! are confined to this binary.

use parsplu::core::CancelToken;
use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// With `--features alloc-track`, every allocation in the process is
/// counted so `--report` carries heap current/peak bytes per phase
/// (`parsplu::obs::heap_stats` returns `Some` once this is installed).
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: parsplu::obs::CountingAlloc = parsplu::obs::CountingAlloc;

const SIGINT: i32 = 2;
/// `SIG_DFL`: restore the default disposition (terminate on SIGINT).
const SIG_DFL: usize = 0;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Async-signal-safe SIGINT handler: a single atomic store. The actual
/// cancellation (which takes locks) happens on the watcher thread.
extern "C" fn on_sigint(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler and a watcher thread that forwards the
/// first Ctrl-C into `token`, then rearms the default handler so a second
/// Ctrl-C kills a run that fails to drain.
fn install_ctrl_c(token: CancelToken) {
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
    std::thread::spawn(move || loop {
        if INTERRUPTED.load(Ordering::SeqCst) {
            token.cancel();
            unsafe {
                signal(SIGINT, SIG_DFL);
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let token = CancelToken::new();
    install_ctrl_c(token.clone());
    match parsplu::cli::run_with_token(&args, Some(&token)) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            let written = stdout.write_all(out.as_bytes());
            // A closed stdout (`parsplu … | head`) ends the run quietly.
            if let Err(e) = written.and_then(|()| stdout.flush()) {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("parsplu: cannot write stdout: {e}");
                    std::process::exit(2);
                }
            }
        }
        Err(e) => {
            eprint!("{}", e.message);
            if !e.message.ends_with('\n') {
                eprintln!();
            }
            std::process::exit(e.exit_code);
        }
    }
}
