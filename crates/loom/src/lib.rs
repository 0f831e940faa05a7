//! A minimal, vendored loom-style model checker for the store's
//! concurrency tests.
//!
//! The real [loom](https://github.com/tokio-rs/loom) crate cannot be a
//! dependency here (the workspace builds with no registry access), so this
//! crate reimplements the slice of it the store needs: [`model`] runs a
//! closure repeatedly, exploring every distinguishable thread interleaving
//! of the [`sync`] and [`thread`] primitives used inside it, up to a
//! preemption bound. The store's `src/sync.rs` swaps these types in for
//! `std::sync` under `--cfg loom`, so the interleavings explored are those
//! of the *production* cache and stampede code.
//!
//! # How it works
//!
//! Every logical thread inside a model runs on a real OS thread, but at
//! most one may execute at a time: a token is handed from thread to thread
//! at *schedule points* (mutex acquire/release, atomic ops, spawn, join,
//! [`thread::yield_now`]). At each point where more than one thread could
//! run next, the explorer consults a replay vector; when the vector is
//! exhausted it takes the first branch and records the decision. After the
//! execution finishes, the deepest decision with an untried branch is
//! advanced and the closure runs again — a depth-first enumeration of the
//! schedule tree. Determinism holds because only the token holder ever
//! executes model code, so the decision sequence is a pure function of the
//! choices made.
//!
//! Two guards keep the tree finite and honest:
//!
//! * **Preemption bounding** — switching away from a thread that could
//!   have kept running counts against `LOOM_MAX_PREEMPTIONS` (default 2).
//!   Most real concurrency bugs need very few preemptions, and the bound
//!   turns an exponential tree into a small polynomial one.
//! * **Execution cap** — more than `LOOM_MAX_ITERATIONS` (default 50 000)
//!   executions panics rather than spinning forever on an unbounded model.
//!
//! # Failure modes surfaced
//!
//! * A panic inside the model (an assertion) aborts exploration and
//!   re-raises the panic, reporting the execution number and schedule.
//! * **Deadlock**: every unfinished thread blocked — reported with the
//!   blocking site.
//! * A spawned thread that panicked and was never joined fails the model
//!   (a joined one surfaces through [`thread::JoinHandle::join`]'s `Err`,
//!   mirroring `std`).
//!
//! # Deliberate limits
//!
//! Weak memory is *not* modelled: atomics are sequentially consistent
//! under the checker regardless of the `Ordering` argument (every op is a
//! schedule point, which is what drives the interesting interleavings).
//! This explores strictly fewer behaviours than real hardware, so a
//! finding here is always real, while a clean pass does not certify
//! `Relaxed` protocols — that is what the ThreadSanitizer CI job and the
//! R10 ordering-consistency lint are for. Outside [`model`], every
//! primitive passes straight through to its `std` counterpart.

mod sched;
pub mod sync;
pub mod thread;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Runs `f` under every distinguishable interleaving of the loom
/// primitives used inside it (see the crate docs for bounds and caveats).
///
/// `f` must be self-contained: state that should persist across
/// executions (e.g. a set of observed outcomes) belongs in captured
/// `Arc`s, everything else is rebuilt per execution.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 2);
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 50_000);
    let mut replay: Vec<usize> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "loom: exceeded {max_iterations} executions without exhausting \
             the schedule tree; simplify the model or raise LOOM_MAX_ITERATIONS"
        );
        let exec = sched::Exec::new(std::mem::take(&mut replay), max_preemptions);
        sched::set_ctx(Arc::clone(&exec), sched::MAIN_THREAD);
        let ctx = sched::CtxGuard;
        let result = catch_unwind(AssertUnwindSafe(&f));
        exec.finish(sched::MAIN_THREAD, result.is_err());
        exec.wait_all();
        drop(ctx);
        let out = exec.outcome();
        if let Err(e) = result {
            eprintln!(
                "loom: model failed on execution {iterations}, schedule {:?}",
                out.replay
            );
            resume_unwind(e);
        }
        if let Some(msg) = out.aborted {
            panic!(
                "loom: {msg} (execution {iterations}, schedule {:?})",
                out.replay
            );
        }
        if let Some(t) = out.unjoined_panic {
            panic!(
                "loom: spawned thread {t} panicked and was never joined (execution {iterations})"
            );
        }
        replay = out.replay;
        if !advance(&mut replay, &out.options) {
            break;
        }
    }
}

/// Advances `replay` to the next unexplored schedule: backtracks to the
/// deepest decision point with an untried branch. Returns `false` when
/// the tree is exhausted.
fn advance(replay: &mut Vec<usize>, options: &[usize]) -> bool {
    while let Some(taken) = replay.pop() {
        let available = options.get(replay.len()).copied().unwrap_or(0);
        if taken + 1 < available {
            replay.push(taken + 1);
            return true;
        }
    }
    false
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests;
