//! The workspace's worker pool and its thread-count configuration.
//!
//! The simulator and the host-side algorithms both use
//! [`current_num_threads`] threads. The default is the machine's available
//! parallelism; tests and benchmarks that need determinism in
//! timing-sensitive assertions can pin it with [`set_num_threads`] (results
//! are deterministic regardless — only wall-clock time changes), and code
//! that must not race the process-global setting (a thread-sweep benchmark,
//! a test harness running cases concurrently) can scope an override to the
//! calling thread with [`with_thread_count`].
//!
//! The threads themselves come from one process-wide pool. A call that runs
//! on `t` threads posts its task, runs it on the calling thread, and lets up
//! to `t − 1` idle workers join in. Workers are spawned on demand, never
//! more than the widest call so far asked for, and live for the rest of the
//! process, so a warm pool spawns nothing.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads used by the `par_*` helpers. Defaults to
/// `std::thread::available_parallelism()`, clamped to at least 1. A
/// [`with_thread_count`] scope on the calling thread takes precedence over
/// the process-global [`set_num_threads`] value.
pub fn current_num_threads() -> usize {
    let local = LOCAL_THREADS.with(|c| c.get());
    if local > 0 {
        return local;
    }
    let configured = NUM_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Override the number of worker threads for the whole process. Passing 0
/// restores the default (machine parallelism).
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.gauge_set("parallel.threads", current_num_threads() as f64);
    }
}

/// Run `f` with the worker-thread count pinned to `n` on the *calling
/// thread only* (`n = 0` re-exposes the global/default). Nestable and
/// panic-safe; unlike [`set_num_threads`] it cannot race other threads, so
/// concurrent callers (a thread-sweep bench, parallel test cases) can each
/// pin their own width. Note the override sets the width of `par_*` calls
/// made by this thread; the runs of such a call that goes parallel — on
/// pool workers and on this thread alike — see the global setting if they
/// start nested parallel sections of their own.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| c.replace(n));
    let _restore = Restore(prev);
    f()
}

/// The pool every `par_*` helper runs on.
pub(crate) static POOL: Pool = Pool::new();

/// A task's closure with its borrow lifetime erased; see
/// [`Pool::broadcast`] for why it is never called after the borrow ends.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, so calling it through a shared pointer from
// any thread is allowed; the pointer is only dereferenced while
// `Pool::broadcast` keeps the closure alive.
unsafe impl Send for TaskPtr {}

/// One `broadcast` call, as the workers see it.
struct Posted {
    id: u64,
    task: TaskPtr,
    /// Workers that may still join.
    seats: usize,
    /// Workers currently running the task.
    inside: usize,
    /// The first panic payload a worker's run raised.
    panic: Option<Box<dyn Any + Send>>,
}

struct State {
    /// Tasks whose callers have not returned yet, oldest first.
    posted: Vec<Posted>,
    next_id: u64,
    /// Workers started so far; they never exit.
    spawned: usize,
}

/// A persistent pool of worker threads that join tasks posted by
/// [`Pool::broadcast`].
pub(crate) struct Pool {
    state: Mutex<State>,
    /// Signalled when a task is posted.
    posted_cv: Condvar,
    /// Signalled when the last worker inside a task leaves it.
    left_cv: Condvar,
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                posted: Vec::new(),
                next_id: 0,
                spawned: 0,
            }),
            posted_cv: Condvar::new(),
            left_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update under this lock leaves `State` consistent before
        // anything that can panic runs (a failed spawn, before it is counted
        // or the task posted; dropping a second worker's panic payload, after
        // the bookkeeping), so a poisoned guard still holds valid state.
        // `broadcast` must reach its wait even then.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `task` on the calling thread and on up to `threads − 1` idle
    /// workers at once, and return once every run has finished. With
    /// `threads` ≤ 1 this is a plain call.
    ///
    /// `task` is expected to claim its work from shared state (an atomic
    /// counter) until none is left, so it is correct however many workers
    /// join: with none free — every worker busy in an enclosing call — the
    /// caller does all the work itself, which is why nested calls cannot
    /// deadlock. Every run, the caller's included, starts with a fresh
    /// thread's thread-local state: no telemetry frame and no
    /// [`with_thread_count`] override. A panic in any run is re-raised here
    /// with its original payload, after every run has finished.
    pub(crate) fn broadcast(&'static self, threads: usize, task: &(dyn Fn() + Sync)) {
        if threads <= 1 {
            task();
            return;
        }
        let erased: *const (dyn Fn() + Sync + '_) = task;
        // SAFETY: only the lifetime changes; the layout is identical. The
        // pointer is removed from `posted` below before this function
        // returns or unwinds, and the wait before that removal guarantees no
        // worker is still inside the task, so no worker calls it after the
        // borrow of `task` ends.
        let task_ptr = TaskPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
                erased,
            )
        });
        let id = {
            let mut state = self.lock();
            while state.spawned < threads - 1 {
                let name = format!("rtnn-pool-{}", state.spawned);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || self.work())
                    .expect("failed to start a worker-pool thread");
                state.spawned += 1;
            }
            let id = state.next_id;
            state.next_id += 1;
            state.posted.push(Posted {
                id,
                task: task_ptr,
                seats: threads - 1,
                inside: 0,
                panic: None,
            });
            id
        };
        self.posted_cv.notify_all();
        // The caller's share starts from a fresh thread's state too, so what
        // a run sees never depends on which thread claimed it. Its panic is
        // caught so the wait below runs on unwind too.
        let own = panic::catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(0, || rtnn_telemetry::Telemetry::detached(task))
        }));
        let worker_panic = {
            let mut state = self.lock();
            loop {
                let at = position(&state, id);
                let posted = &mut state.posted[at];
                posted.seats = 0;
                if posted.inside == 0 {
                    break state.posted.remove(at).panic;
                }
                state = self
                    .left_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's life: join the oldest task with a free seat, run it, leave.
    fn work(&self) {
        let mut state = self.lock();
        loop {
            let Some(posted) = state.posted.iter_mut().find(|p| p.seats > 0) else {
                state = self
                    .posted_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            posted.seats -= 1;
            posted.inside += 1;
            let (id, task) = (posted.id, posted.task);
            drop(state);
            // SAFETY: the caller of `broadcast` keeps the closure alive until
            // it sees `inside` at zero, and this worker stays counted in
            // `inside` until the decrement below, after the call returns.
            let result = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)() }));
            state = self.lock();
            let at = position(&state, id);
            let posted = &mut state.posted[at];
            posted.inside -= 1;
            if posted.inside == 0 {
                self.left_cv.notify_all();
            }
            if let Err(payload) = result {
                posted.panic.get_or_insert(payload);
            }
        }
    }

    /// Workers started so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.lock().spawned
    }
}

fn position(state: &State, id: u64) -> usize {
    state
        .posted
        .iter()
        .position(|p| p.id == id)
        .expect("a task stays posted until its caller removes it")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_for_chunks, par_map_collect_mut};
    use rtnn_telemetry::{Telemetry, TelemetryLevel};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;

    /// A private pool, so counts are not shared with concurrent tests.
    fn fresh_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn default_is_at_least_one() {
        set_num_threads(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn override_round_trips() {
        set_num_threads(3);
        assert_eq!(current_num_threads(), 3);
        set_num_threads(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn scoped_override_beats_the_global_and_restores() {
        let outside = current_num_threads();
        let inner = with_thread_count(2, || {
            let mid = current_num_threads();
            // Nested scopes stack; 0 re-exposes the outer default.
            assert_eq!(with_thread_count(5, current_num_threads), 5);
            assert_eq!(with_thread_count(0, current_num_threads), outside);
            mid
        });
        assert_eq!(inner, 2);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn scoped_override_is_restored_on_panic() {
        let before = current_num_threads();
        let caught = std::panic::catch_unwind(|| {
            with_thread_count(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn nested_calls_wider_than_the_machine_finish_and_match_sequential() {
        let mut outer: Vec<u64> = (0..16).collect();
        let sums = with_thread_count(8, || {
            par_map_collect_mut(&mut outer, |i, item| {
                let inner = AtomicUsize::new(0);
                par_for_chunks(1000, 1, |range| {
                    inner.fetch_add(range.map(|j| j * (i + 1)).sum(), Ordering::Relaxed);
                });
                *item += 1;
                inner.into_inner()
            })
        });
        let expected: Vec<usize> = (0..16)
            .map(|i| (0..1000).sum::<usize>() * (i + 1))
            .collect();
        assert_eq!(sums, expected);
        assert_eq!(outer, (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        struct Payload(u32);
        let pool = fresh_pool();
        let caller = thread::current().id();
        let both_inside = Barrier::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|| {
                both_inside.wait();
                if thread::current().id() != caller {
                    panic::panic_any(Payload(42));
                }
            })
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<Payload>().map(|p| p.0), Some(42));
        // The same worker joins the next call: the barrier needs both.
        let ran = AtomicUsize::new(0);
        pool.broadcast(2, &|| {
            both_inside.wait();
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 2);
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn broadcast_waits_for_workers_still_inside_the_task() {
        let pool = fresh_pool();
        let caller = thread::current().id();
        let both_inside = Barrier::new(2);
        let (caller_done, caller_done_rx) = mpsc::channel::<()>();
        let caller_done_rx = Mutex::new(caller_done_rx);
        let worker_left = AtomicBool::new(false);
        pool.broadcast(2, &|| {
            both_inside.wait();
            if thread::current().id() == caller {
                caller_done.send(()).expect("worker is listening");
            } else {
                // Still inside after the caller's own run has ended, and
                // busy long enough that an early return would be seen.
                caller_done_rx
                    .lock()
                    .expect("one worker")
                    .recv()
                    .expect("caller sends before waiting");
                for _ in 0..1000 {
                    thread::yield_now();
                }
                worker_left.store(true, Ordering::SeqCst);
            }
        });
        assert!(worker_left.load(Ordering::SeqCst));
    }

    #[test]
    fn every_run_starts_with_a_fresh_threads_state() {
        let pool = fresh_pool();
        let sink = Telemetry::new(TelemetryLevel::Full);
        let both_inside = Barrier::new(2);
        let runs = AtomicUsize::new(0);
        let is_sink = |t: Option<Arc<Telemetry>>| t.is_some_and(|t| Arc::ptr_eq(&t, &sink));
        with_thread_count(5, || {
            Telemetry::scoped(&sink, || {
                pool.broadcast(2, &|| {
                    both_inside.wait();
                    assert_eq!(LOCAL_THREADS.with(Cell::get), 0);
                    assert!(!is_sink(Telemetry::current()));
                    runs.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(current_num_threads(), 5);
                assert!(is_sink(Telemetry::current()));
            })
        });
        assert_eq!(runs.into_inner(), 2);
    }

    #[test]
    fn a_warm_pool_spawns_no_more_workers() {
        let pool = fresh_pool();
        let calls = AtomicUsize::new(0);
        for _ in 0..1000 {
            pool.broadcast(2, &|| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.spawned(), 1);
        // The caller runs every task; the worker joins some of them.
        assert!(calls.into_inner() >= 1000);
    }
}
