//! The fixed-size thread pool and its structured scope.
//!
//! [`Executor::scope`] mirrors `std::thread::scope`: spawned tasks may
//! borrow non-`'static` data from the enclosing frame because the scope is
//! guaranteed not to return before every task has finished — on the happy
//! path, when the closure panics, and when a joined task panics alike.
//! Unlike `std::thread::scope`, tasks run on a *fixed* pool of workers that
//! outlives individual scopes, so fan-outs don't pay thread spawn/teardown
//! per call.
//!
//! ## Caveats
//!
//! [`TaskHandle::join`] never deadlocks: a join finding its task still
//! queued *steals* it and runs it inline on the joining thread, so
//! join-inside-a-task works even on a one-worker pool. What CAN starve is
//! nesting `scope` calls *on the same pool* from inside a task and relying
//! on the scope's implicit wait-all for unjoined tasks — that wait cannot
//! steal (it has no handles). Join inner tasks explicitly, or keep scopes
//! one level deep per pool (the service layer does).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Lock a std mutex, shrugging off poison: holders never leave torn state
/// (panics are caught at task boundaries before locks are touched).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// (queued `(token, job)` pairs, shutdown flag). Tokens are pool-unique
    /// so a [`TaskHandle::join`] can *steal* its own still-queued job and
    /// run it inline — join-inside-a-task can therefore never deadlock
    /// waiting for a free worker.
    queue: Mutex<(VecDeque<(u64, Job)>, bool)>,
    job_ready: Condvar,
    /// Source of queue tokens, unique across all scopes on this pool.
    next_token: AtomicU64,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut g = lock(&shared.queue);
            loop {
                if let Some((_, j)) = g.0.pop_front() {
                    break j;
                }
                if g.1 {
                    return;
                }
                g = shared
                    .job_ready
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Panics are caught inside the job wrapper (see Scope::spawn), so a
        // panicking task never kills its worker.
        job();
    }
}

/// A reusable task executor: a fixed-size thread pool fed from one shared
/// queue. See the module docs.
pub struct Executor {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Executor {
    /// A pool of `workers` OS threads (clamped to at least 1). Threads are
    /// parked when idle and joined when the executor drops.
    pub fn pool(workers: usize) -> Executor {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            job_ready: Condvar::new(),
            next_token: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qrs-exec-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning an executor worker thread failed")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f` with a [`Scope`] on which tasks borrowing from the enclosing
    /// frame can be spawned. Every spawned task is guaranteed to have
    /// finished when `scope` returns, including when `f` panics (the scope
    /// waits before unwinding). If a task panicked and the payload was
    /// never delivered through a [`TaskHandle::join`], `scope` itself
    /// panics after all tasks finish — a panic is never silently dropped,
    /// and one the caller already caught at `join` is never raised twice.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            inner: Arc::new(ScopeInner {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
                panics: AtomicU64::new(0),
            }),
            exec: self,
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // SAFETY-CRITICAL: no borrow of 'env may escape this function, so
        // every spawned task must have finished before we return OR unwind.
        scope.wait_all();
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                // Panics delivered through join() were decremented there;
                // anything left is a panic nobody observed.
                if scope.inner.panics.load(Ordering::Relaxed) > 0 {
                    panic!("a scoped task panicked and its handle was not joined");
                }
                r
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.queue).1 = true;
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            // A worker only panics if the panic payload's own Drop
            // panics; nothing to do about it here.
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

struct ScopeInner {
    /// Tasks spawned but not yet finished.
    pending: Mutex<usize>,
    all_done: Condvar,
    /// Count of task panics not yet delivered to a caller. Joining a
    /// panicked handle re-raises the payload and decrements; whatever is
    /// left when the scope closes makes the scope itself panic — a panic
    /// is never silently dropped, and one the caller caught at `join` is
    /// never raised twice.
    panics: AtomicU64,
}

/// The spawn surface handed to the closure of [`Executor::scope`].
///
/// `'scope` is the lifetime of the scope itself; `'env` the data it may
/// borrow. Both are invariant (the `PhantomData<&mut>` markers), exactly as
/// in `std::thread::scope` — that invariance is what stops a task from
/// smuggling a too-short borrow in or a reference out.
pub struct Scope<'scope, 'env: 'scope> {
    inner: Arc<ScopeInner>,
    exec: &'scope Executor,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// The result slot a task fills and its handle drains.
struct TaskSlot<T> {
    result: Mutex<Option<thread::Result<T>>>,
    filled: Condvar,
}

/// Handle to one spawned task; [`TaskHandle::join`] blocks until the task
/// finished (or runs it inline if no worker has taken it yet) and returns
/// its output, re-raising the task's panic if it had one.
#[must_use = "a task handle should be joined (the scope will still wait, but results are lost)"]
pub struct TaskHandle<'scope, T> {
    slot: Arc<TaskSlot<T>>,
    inner: Arc<ScopeInner>,
    /// The pool-wide queue token of this task's job.
    token: u64,
    /// The queue, so `join` can steal its own job.
    pool: Arc<PoolShared>,
    _scope: PhantomData<&'scope ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `f` onto the executor. The closure may borrow from `'env`
    /// (disjoint `&mut`s included); the scope guarantees it finishes before
    /// those borrows end.
    pub fn spawn<F, T>(&'scope self, f: F) -> TaskHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let slot = Arc::new(TaskSlot {
            result: Mutex::new(None),
            filled: Condvar::new(),
        });
        let task_slot = Arc::clone(&slot);
        let task_inner = Arc::clone(&self.inner);
        *lock(&self.inner.pending) += 1;
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            if out.is_err() {
                task_inner.panics.fetch_add(1, Ordering::Relaxed);
            }
            *lock(&task_slot.result) = Some(out);
            task_slot.filled.notify_all();
            // Drop the worker's slot reference BEFORE releasing the scope:
            // if the handle was never joined, this Arc is the last one and
            // dropping it runs the result's destructor — which may touch
            // borrowed scope data, so it must happen while the scope is
            // still guaranteed alive. Decrementing `pending` first would
            // let `wait_all` (and the borrows) end under that destructor.
            drop(task_slot);
            let mut p = lock(&task_inner.pending);
            *p -= 1;
            if *p == 0 {
                task_inner.all_done.notify_all();
            }
        });
        // SAFETY: the job runs strictly before `Executor::scope` returns —
        // `scope` always calls `wait_all`, on the panic path included — so
        // every borrow the closure captured (all outliving 'scope) is still
        // live whenever the closure body executes. Lifetime erasure to put
        // it on the 'static worker queue is therefore sound; this is the
        // same contract `std::thread::scope` enforces.
        let job: Job = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(job)
        };
        let pool = Arc::clone(&self.exec.shared);
        let token = pool.next_token.fetch_add(1, Ordering::Relaxed);
        lock(&pool.queue).0.push_back((token, job));
        pool.job_ready.notify_one();
        TaskHandle {
            slot,
            inner: Arc::clone(&self.inner),
            token,
            pool,
            _scope: PhantomData,
        }
    }

    fn wait_all(&self) {
        let mut p = lock(&self.inner.pending);
        while *p != 0 {
            p = self
                .inner
                .all_done
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> TaskHandle<'_, T> {
    /// Wait for the task and return its output, re-raising the task's
    /// panic payload if it panicked (a payload delivered here no longer
    /// fails the scope — it is the caller's to handle).
    ///
    /// If the task has not started yet, `join` steals it from the queue
    /// and runs it **inline on the calling thread**, so joining from inside
    /// another task can never deadlock waiting for a free worker.
    pub fn join(self) -> T {
        let job = {
            let mut g = lock(&self.pool.queue);
            g.0.iter()
                .position(|(token, _)| *token == self.token)
                .and_then(|ix| g.0.remove(ix))
                .map(|(_, job)| job)
        };
        if let Some(job) = job {
            job();
        }
        let mut g = lock(&self.slot.result);
        loop {
            if let Some(r) = g.take() {
                drop(g);
                match r {
                    Ok(v) => return v,
                    Err(p) => {
                        self.inner.panics.fetch_sub(1, Ordering::Relaxed);
                        resume_unwind(p)
                    }
                }
            }
            g = self
                .slot
                .filled
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn pool_runs_tasks_on_worker_threads_and_joins_results() {
        let exec = Executor::pool(4);
        assert_eq!(exec.workers(), 4);
        let sum: usize = exec.scope(|s| {
            let handles: Vec<_> = (0..16usize).map(|i| s.spawn(move || i * i)).collect();
            handles.into_iter().map(TaskHandle::join).sum()
        });
        assert_eq!(sum, (0..16usize).map(|i| i * i).sum());
    }

    #[test]
    fn scope_allows_disjoint_mut_borrows_of_the_environment() {
        let exec = Executor::pool(3);
        let mut cells = [0u64; 8];
        exec.scope(|s| {
            let handles: Vec<_> = cells
                .iter_mut()
                .enumerate()
                .map(|(i, c)| s.spawn(move || *c = (i as u64 + 1) * 10))
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(cells, [10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn pool_is_actually_parallel() {
        // Two tasks that can only finish if they run concurrently: each
        // waits for the other's side of a rendezvous.
        let exec = Executor::pool(2);
        let a = AtomicBool::new(false);
        let b = AtomicBool::new(false);
        exec.scope(|s| {
            let ha = s.spawn(|| {
                a.store(true, Ordering::SeqCst);
                while !b.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            let hb = s.spawn(|| {
                b.store(true, Ordering::SeqCst);
                while !a.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            ha.join();
            hb.join();
        });
    }

    #[test]
    fn scope_waits_for_unjoined_tasks() {
        let exec = Executor::pool(2);
        let done = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..8 {
                let _unjoined = s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // The scope returned ⇒ every task ran to completion.
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn unjoined_results_with_drop_impls_are_dropped_before_scope_returns() {
        // An unjoined task's result may borrow scope data and run arbitrary
        // code in Drop; the worker must finish that drop before the scope
        // (and the borrows) can end. Regression for decrementing `pending`
        // ahead of releasing the worker's slot reference.
        struct Tracker<'a>(&'a AtomicUsize);
        impl Drop for Tracker<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let exec = Executor::pool(3);
        let drops = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..16 {
                let _unjoined = s.spawn(|| Tracker(&drops));
            }
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            16,
            "every unjoined result must be dropped while the scope is alive"
        );
    }

    #[test]
    fn joined_task_panic_propagates_with_payload() {
        let exec = Executor::pool(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| s.spawn(|| panic!("task says no")).join())
        }));
        let payload = caught.expect_err("panic must propagate through join");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task says no");
        // The pool survives a panicking task.
        assert_eq!(exec.scope(|s| s.spawn(|| 7).join()), 7);
    }

    #[test]
    fn pool_join_inside_a_task_steals_instead_of_deadlocking() {
        // On a ONE-worker pool, a task that spawns and joins a sibling
        // would deadlock if join only waited: the sibling's job can never
        // get a worker. Join must steal it and run it inline.
        let exec = Executor::pool(1);
        let got = exec.scope(|s| {
            s.spawn(|| {
                let inner = s.spawn(|| 41u64);
                inner.join() + 1
            })
            .join()
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn panic_caught_at_join_does_not_fail_the_scope() {
        // Delivering a panic through join() hands it to the caller; if the
        // caller handles it, the scope must NOT re-raise it at close.
        let exec = Executor::pool(2);
        let r = exec.scope(|s| {
            let h = s.spawn(|| -> u32 { panic!("handled by the caller") });
            let caught = catch_unwind(AssertUnwindSafe(|| h.join()));
            assert!(caught.is_err());
            7u32
        });
        assert_eq!(r, 7);
    }

    #[test]
    fn unjoined_task_panic_fails_the_scope() {
        let exec = Executor::pool(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                let _ = s.spawn(|| panic!("silent failure?"));
            })
        }));
        assert!(caught.is_err(), "an unjoined panic must not be swallowed");
    }

    #[test]
    fn pool_width_clamps_to_one() {
        assert_eq!(Executor::pool(0).workers(), 1);
    }

    #[test]
    fn scope_closure_panic_still_waits_for_spawned_tasks() {
        let exec = Executor::pool(2);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                for _ in 0..4 {
                    let done = Arc::clone(&done2);
                    let _ = s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("closure dies before its tasks");
            })
        }));
        assert!(caught.is_err());
        // The unwind was delayed until every task completed.
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}
