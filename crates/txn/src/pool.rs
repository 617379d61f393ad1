//! A wall-clock worker-pool executor.
//!
//! This is the live-mode counterpart of the simulator: "tasks are serviced
//! in STRIP by a pool of processes. Whenever a process becomes free, it
//! moves a task from the ready queue to the running queue and starts
//! executing its code" (§6.2). Delayed tasks (unique transactions inside
//! their `after` window) sit in the shared delay queue until their wall-
//! clock release time.
//!
//! The pool reuses the same `Task` / `TaskCtx` contract as the simulator,
//! so rule actions run unchanged in either mode; costs are still charged to
//! the per-task meter so statistics stay comparable.

use crate::cost::CostModel;
use crate::sched::{DelayQueue, Policy, ReadyQueue};
use crate::sim::SimStats;
use crate::task::{run_task, Task, TaskCtx, TaskId};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use strip_obs::{EventKind, ObsSink, TraceCtx};

struct PoolState {
    delay: DelayQueue,
    ready: ReadyQueue,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    model: CostModel,
    epoch: Instant,
    stats: Mutex<SimStats>,
    active: AtomicUsize,
    obs: Option<Arc<ObsSink>>,
}

impl PoolInner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A pool of worker threads servicing the ready/delay queues.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start `workers` threads with the given cost model, policy and
    /// observability sink. The sink is supplied at construction because
    /// worker threads start immediately.
    pub fn new(
        workers: usize,
        model: CostModel,
        policy: Policy,
        obs: Option<Arc<ObsSink>>,
    ) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                delay: DelayQueue::new(),
                ready: ReadyQueue::new(policy),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            model,
            epoch: Instant::now(),
            stats: Mutex::new(SimStats::default()),
            active: AtomicUsize::new(0),
            obs,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Microseconds since the pool started — the time base for release
    /// times of submitted tasks.
    pub fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    /// Submit a task. `task.release_us` is interpreted on the pool's clock.
    pub fn submit(&self, task: Task) {
        if let Some(obs) = &self.inner.obs {
            obs.event_ctx(
                self.inner.now_us(),
                task.id.0,
                EventKind::TxnSubmit,
                &task.kind,
                0,
                task.trace,
                0,
            );
        }
        let mut st = self.inner.state.lock();
        if task.release_us > self.inner.now_us() {
            st.delay.push(task);
        } else {
            st.ready.push(task);
        }
        drop(st);
        self.inner.work_cv.notify_one();
    }

    /// Run `work` now on the caller's thread, on the pool's clock and cost
    /// model but outside its stats; the tasks it spawns go to the pool.
    pub fn run_inline<R>(&self, work: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        let (out, _, spawned) = TaskCtx::metered(
            &self.inner.model,
            self.now_us(),
            TaskId::fresh(),
            TraceCtx::NONE,
            work,
        );
        for t in spawned {
            self.submit(t);
        }
        out
    }

    /// Block until no task is queued, delayed, or running.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock();
        loop {
            let busy = !st.ready.is_empty()
                || !st.delay.is_empty()
                || self.inner.active.load(Ordering::SeqCst) > 0;
            if !busy {
                return;
            }
            // Bounded wait: a delayed task may become due while we sleep.
            self.inner
                .idle_cv
                .wait_for(&mut st, Duration::from_millis(5));
        }
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> SimStats {
        self.inner.stats.lock().clone()
    }

    /// Number of queued + delayed tasks.
    pub fn pending(&self) -> usize {
        let st = self.inner.state.lock();
        st.ready.len() + st.delay.len()
    }
}

impl Drop for WorkerPool {
    /// Stop accepting work and join the workers. Remaining queued tasks are
    /// dropped.
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                let now = inner.now_us();
                for t in st.delay.pop_released(now) {
                    st.ready.push(t);
                }
                if let Some(t) = st.ready.pop() {
                    // Active before the queue lock drops, so `wait_idle`
                    // never sees the task neither queued nor running.
                    inner.active.fetch_add(1, Ordering::SeqCst);
                    break t;
                }
                // Sleep until the next release or new work.
                match st.delay.peek_release() {
                    Some(r) => {
                        let wait = Duration::from_micros(r.saturating_sub(now).min(5_000));
                        inner
                            .work_cv
                            .wait_for(&mut st, wait.max(Duration::from_micros(100)));
                    }
                    None => {
                        inner.work_cv.wait(&mut st);
                    }
                }
            }
        };

        let (kind, started, work) = task.start(inner.now_us());
        // Pool-mode windows advance over the wall clock; concurrent seal
        // attempts are serialized inside the collector.
        let obs = inner.obs.as_deref();
        let ((), spawned) = run_task(&inner.model, obs, &kind, started, work, |_| {
            (inner.now_us(), inner.stats.lock())
        });
        if !spawned.is_empty() {
            let mut st = inner.state.lock();
            let now = inner.now_us();
            for t in spawned {
                if t.release_us > now {
                    st.delay.push(t);
                } else {
                    st.ready.push(t);
                }
            }
            drop(st);
            inner.work_cv.notify_all();
        }
        inner.active.fetch_sub(1, Ordering::SeqCst);
        inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_submitted_tasks() {
        let pool = WorkerPool::new(2, CostModel::free(), Policy::Fifo, None);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = counter.clone();
            pool.submit(Task::immediate(
                "t",
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            ));
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(pool.stats().tasks_run, 10);
    }

    #[test]
    fn delayed_tasks_wait_for_release() {
        let pool = WorkerPool::new(1, CostModel::free(), Policy::Fifo, None);
        let ran_at = Arc::new(AtomicU64::new(0));
        let r = ran_at.clone();
        let release = pool.now_us() + 30_000; // 30 ms
        pool.submit(Task::at(
            "delayed",
            release,
            Box::new(move |ctx| {
                r.store(ctx.start_us, Ordering::SeqCst);
            }),
        ));
        pool.wait_idle();
        assert!(
            ran_at.load(Ordering::SeqCst) >= release,
            "task ran before its release time"
        );
    }

    #[test]
    fn spawned_tasks_complete_before_idle() {
        let pool = WorkerPool::new(2, CostModel::free(), Policy::Fifo, None);
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        pool.submit(Task::immediate(
            "parent",
            Box::new(move |ctx| {
                for _ in 0..5 {
                    let c = c.clone();
                    ctx.spawn(Task::immediate(
                        "child",
                        Box::new(move |_| {
                            c.fetch_add(1, Ordering::SeqCst);
                        }),
                    ));
                }
            }),
        ));
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = WorkerPool::new(4, CostModel::free(), Policy::Fifo, None);
        pool.submit(Task::immediate("t", Box::new(|_| {})));
        pool.wait_idle();
        drop(pool);
    }
}
