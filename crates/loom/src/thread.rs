//! Model-checked `thread::spawn`/`join`/`yield_now`.
//!
//! A spawned closure runs on a real OS thread but participates in the
//! token protocol: it first waits to be scheduled, and its panics are
//! caught and delivered through [`JoinHandle::join`] exactly as `std`
//! does. Outside a model, `spawn` is `std::thread::spawn`.

use crate::sched;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// Result slot shared between a model thread's body and its handle.
type Slot<T> = Arc<Mutex<Option<std::thread::Result<T>>>>;

enum Inner<T> {
    Model {
        exec: Arc<sched::Exec>,
        id: usize,
        slot: Slot<T>,
        os: std::thread::JoinHandle<()>,
    },
    Direct(std::thread::JoinHandle<T>),
}

/// Owned permission to join a spawned thread, mirroring
/// [`std::thread::JoinHandle`].
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let Some((exec, me)) = sched::ctx() else {
        return JoinHandle {
            inner: Inner::Direct(std::thread::spawn(f)),
        };
    };
    let id = exec.register_thread();
    let slot: Slot<T> = Arc::new(Mutex::new(None));
    let os = {
        let exec = Arc::clone(&exec);
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            sched::set_ctx(Arc::clone(&exec), id);
            let _ctx = sched::CtxGuard;
            let result = catch_unwind(AssertUnwindSafe(|| {
                exec.wait_initial(id);
                f()
            }));
            let panicked = result.is_err();
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            exec.finish(id, panicked);
        })
    };
    // Schedule point: the child is runnable from here on.
    exec.schedule(me);
    JoinHandle {
        inner: Inner::Model { exec, id, slot, os },
    }
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish; `Err` carries its panic payload.
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Direct(h) => h.join(),
            Inner::Model { exec, id, slot, os } => {
                if let Some((_, me)) = sched::ctx() {
                    exec.join_wait(me, id);
                }
                // Logically finished; the OS thread exits imminently.
                let _ = os.join();
                let result = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                match result {
                    Some(r) => r,
                    None => Err(Box::new("loom: joined thread left no result")),
                }
            }
        }
    }
}

/// A bare schedule point.
pub fn yield_now() {
    sched::sched_point();
}
