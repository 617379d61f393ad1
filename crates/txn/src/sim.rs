//! Discrete-event executor over a virtual single CPU.
//!
//! This is the substitution for the paper's HP-735 measurements (see
//! DESIGN.md): tasks *really execute* against the storage engine, but time
//! is charged from the calibrated [`CostModel`] instead of being measured
//! with `gettimeofday`. CPU utilization, recomputation counts, and
//! recompute-transaction lengths — the quantities of Figures 9–14 — fall
//! out of the task statistics.
//!
//! The flow mirrors Figure 15: submitted tasks enter the **delay queue**
//! until their release time, move to the **ready queue**, and are executed
//! one at a time (a single virtual processor, matching the paper's
//! CPU-utilization framing). Tasks spawned during execution (triggered rule
//! actions) are submitted when the task completes.

use crate::cost::CostModel;
use crate::fault::{decide, FaultDecision, FaultPoint, InjectorHandle};
use crate::sched::{DelayQueue, Policy, ReadyQueue};
use crate::task::{run_task, Started, Task, TaskCtx, TaskId};
use std::collections::HashMap;
use std::sync::Arc;
use strip_obs::{EventKind, ObsSink, TraceCtx};

/// Aggregate statistics for one task kind.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Number of tasks of this kind completed.
    pub count: u64,
    /// Total charged execution time, µs (excludes queueing, matching
    /// Figure 11/14's "system time ... minus queueing time").
    pub total_us: u64,
    /// Longest single task, µs.
    pub max_us: u64,
    /// Total time spent queued (release to start), µs.
    pub queue_us: u64,
}

impl KindStats {
    /// Mean execution time per task, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Tasks completed.
    pub tasks_run: u64,
    /// Total busy time on the virtual CPU, µs.
    pub busy_us: u64,
    /// Per-kind breakdown.
    pub by_kind: HashMap<String, KindStats>,
    /// High-watermark of the ready queue length.
    pub max_ready_len: usize,
    /// High-watermark of the delay queue length.
    pub max_delay_len: usize,
    /// Prepared-plan cache hits. The cache lives in the database facade,
    /// which fills these in when reporting stats; the raw simulator leaves
    /// them zero.
    pub plan_cache_hits: u64,
    /// Prepared-plan cache misses (including epoch-invalidation replans).
    pub plan_cache_misses: u64,
    /// Tasks that started at or after their deadline (the scheduler still
    /// runs them; real-time experiments count the misses).
    pub deadline_misses: u64,
    /// Join-pipeline plan executions with cardinality feedback. Like the
    /// plan-cache counters these live in the observability sink; the
    /// database facade fills them in and the raw simulator leaves zeroes.
    pub plan_choices: u64,
    /// Sum of planner-estimated joined cardinalities over those executions.
    pub card_est_sum: u64,
    /// Sum of observed joined cardinalities over those executions.
    pub card_actual_sum: u64,
}

impl SimStats {
    /// Stats for one kind (zeroes if never run).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.by_kind.get(kind).cloned().unwrap_or_default()
    }

    /// Sum of busy time over kinds whose name starts with `prefix`.
    pub fn busy_us_with_prefix(&self, prefix: &str) -> u64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.total_us)
            .sum()
    }

    /// Count of tasks over kinds whose name starts with `prefix`.
    pub fn count_with_prefix(&self, prefix: &str) -> u64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.count)
            .sum()
    }

    /// Fold one finished task into the totals and its kind's row.
    pub(crate) fn record(&mut self, kind: &str, charged_us: u64, queue_us: u64, missed: bool) {
        self.tasks_run += 1;
        self.busy_us += charged_us;
        self.deadline_misses += u64::from(missed);
        let ks = self.by_kind.entry(kind.to_string()).or_default();
        ks.count += 1;
        ks.total_us += charged_us;
        ks.max_us = ks.max_us.max(charged_us);
        ks.queue_us += queue_us;
    }
}

/// The discrete-event simulator.
///
/// ```
/// use strip_txn::{CostModel, Policy, Simulator, Task};
/// use strip_storage::{Meter, Op};
///
/// let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
/// sim.submit(Task::at("update", 1_000, Box::new(|ctx| {
///     ctx.meter.charge(Op::FetchCursor, 3); // 30 virtual µs
/// })));
/// let end = sim.run_to_completion();
/// assert_eq!(end, 1_030);
/// assert_eq!(sim.stats().kind("update").count, 1);
/// ```
pub struct Simulator {
    clock_us: u64,
    delay: DelayQueue,
    ready: ReadyQueue,
    model: CostModel,
    stats: SimStats,
    injector: InjectorHandle,
    obs: Option<Arc<ObsSink>>,
}

impl Simulator {
    /// New simulator at time zero.
    pub fn new(model: CostModel, policy: Policy) -> Simulator {
        Simulator {
            clock_us: 0,
            delay: DelayQueue::new(),
            ready: ReadyQueue::new(policy),
            model,
            stats: SimStats::default(),
            injector: None,
            obs: None,
        }
    }

    /// Attach an observability sink: the scheduler then traces the task
    /// lifecycle (submit → release → start) and feeds the queue-time and
    /// per-kind execution histograms.
    pub fn set_obs(&mut self, obs: Option<Arc<ObsSink>>) {
        self.obs = obs;
    }

    /// Install a fault injector consulted at `SchedDispatch` each time a
    /// ready task is popped; a `DelayUs` decision stalls the virtual CPU
    /// before the task runs (deadline-miss injection).
    pub fn set_injector(&mut self, injector: InjectorHandle) {
        self.injector = injector;
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The cost model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Total tasks waiting (delayed + ready).
    pub fn pending(&self) -> usize {
        self.delay.len() + self.ready.len()
    }

    /// Submit a task: future releases go to the delay queue, due tasks to
    /// the ready queue.
    pub fn submit(&mut self, task: Task) {
        if let Some(obs) = &self.obs {
            obs.event_ctx(
                self.clock_us,
                task.id.0,
                EventKind::TxnSubmit,
                &task.kind,
                0,
                task.trace,
                0,
            );
        }
        if task.release_us > self.clock_us {
            self.delay.push(task);
            self.stats.max_delay_len = self.stats.max_delay_len.max(self.delay.len());
        } else {
            self.ready.push(task);
            self.stats.max_ready_len = self.stats.max_ready_len.max(self.ready.len());
        }
    }

    fn release_due(&mut self) {
        for t in self.delay.pop_released(self.clock_us) {
            if let Some(obs) = &self.obs {
                obs.event_ctx(
                    self.clock_us,
                    t.id.0,
                    EventKind::TxnRelease,
                    &t.kind,
                    0,
                    t.trace,
                    0,
                );
            }
            self.ready.push(t);
        }
        self.stats.max_ready_len = self.stats.max_ready_len.max(self.ready.len());
    }

    /// Execute one task if any is runnable, advancing the clock. Returns
    /// false when both queues are empty.
    pub fn step(&mut self) -> bool {
        self.release_due();
        if self.ready.is_empty() {
            // Idle: jump to the next release time.
            match self.delay.peek_release() {
                Some(r) => {
                    self.clock_us = r;
                    self.release_due();
                }
                None => return false,
            }
        }
        let Some(task) = self.ready.pop() else {
            return false;
        };
        // Injected dispatch latency: the virtual CPU stalls before the task
        // starts, which is how the chaos harness forces deadline misses.
        if let FaultDecision::DelayUs(d) =
            decide(&self.injector, FaultPoint::SchedDispatch, &task.kind)
        {
            self.clock_us += d;
            self.release_due();
        }
        let (kind, started, work) = task.start(self.clock_us);
        self.run(&kind, started, work);
        true
    }

    /// Execute a closure *now* as an ad-hoc task, with full accounting:
    /// the clock advances by the charged cost and any tasks it spawns are
    /// submitted. This is how the synchronous `Strip` API runs caller
    /// transactions without routing them through the ready queue.
    pub fn run_inline<R>(&mut self, kind: &str, work: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        let started = Started {
            id: TaskId::fresh(),
            trace: TraceCtx::NONE,
            start_us: self.clock_us,
            queued: None,
        };
        self.run(kind, started, work)
    }

    /// Run one task through [`run_task`], advancing the virtual clock by
    /// what it charged.
    fn run<R>(&mut self, kind: &str, task: Started, work: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        let (clock_us, stats) = (&mut self.clock_us, &mut self.stats);
        let obs = self.obs.as_deref();
        let (out, spawned) = run_task(&self.model, obs, kind, task, work, |charged| {
            *clock_us += charged;
            (*clock_us, stats)
        });
        // Tasks created during execution are submitted afterwards — a rule
        // action is "released as soon as the triggering transaction commits
        // unless a delay is specified" (§2).
        for t in spawned {
            self.submit(t);
        }
        out
    }

    /// Run until both queues drain. Returns the final virtual time.
    pub fn run_to_completion(&mut self) -> u64 {
        while self.step() {}
        self.clock_us
    }

    /// Tick the windowed telemetry collector at the current virtual time
    /// (idle horizon jumps seal windows too, not just task completions).
    fn tick_windows(&self) {
        if let Some(obs) = &self.obs {
            obs.window_tick(self.clock_us, self.stats.tasks_run, self.stats.busy_us);
        }
    }

    /// Run until the virtual clock passes `until_us` or everything drains.
    pub fn run_until(&mut self, until_us: u64) {
        loop {
            self.release_due();
            if self.ready.is_empty() {
                match self.delay.peek_release() {
                    Some(r) if r <= until_us => {}
                    _ => {
                        self.clock_us = self.clock_us.max(until_us);
                        self.tick_windows();
                        return;
                    }
                }
            }
            if self.clock_us >= until_us {
                return;
            }
            if !self.step() {
                self.clock_us = self.clock_us.max(until_us);
                self.tick_windows();
                return;
            }
        }
    }

    /// CPU utilization over `[0, duration_us]`: busy / duration.
    pub fn utilization(&self, duration_us: u64) -> f64 {
        if duration_us == 0 {
            0.0
        } else {
            self.stats.busy_us as f64 / duration_us as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use strip_storage::{Meter, Op};

    fn charging(kind: &str, release: u64, ops: u64) -> Task {
        Task::at(
            kind,
            release,
            Box::new(move |ctx| ctx.meter.charge(Op::FetchCursor, ops)),
        )
    }

    #[test]
    fn clock_advances_by_charged_time() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("a", 0, 10)); // 100 µs
        sim.submit(charging("b", 50, 10)); // released mid-run of a
        let end = sim.run_to_completion();
        assert_eq!(end, 200);
        assert_eq!(sim.stats().tasks_run, 2);
        assert_eq!(sim.stats().busy_us, 200);
        // b queued from release (50) to start (100).
        assert_eq!(sim.stats().kind("b").queue_us, 50);
    }

    #[test]
    fn idle_time_jumps_clock() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("a", 1000, 1)); // 10 µs of work at t=1000
        let end = sim.run_to_completion();
        assert_eq!(end, 1010);
        assert_eq!(sim.utilization(1010), 10.0 / 1010.0);
    }

    #[test]
    fn spawned_tasks_run_after_parent() {
        let order = Arc::new(AtomicU64::new(0));
        let o1 = order.clone();
        let o2 = order.clone();
        let mut sim = Simulator::new(CostModel::free(), Policy::Fifo);
        sim.submit(Task::immediate(
            "parent",
            Box::new(move |ctx| {
                let o2 = o2.clone();
                ctx.spawn(Task::immediate(
                    "child",
                    Box::new(move |_| {
                        o2.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                            .unwrap();
                    }),
                ));
                o1.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .unwrap();
            }),
        ));
        sim.run_to_completion();
        assert_eq!(order.load(Ordering::SeqCst), 2);
        assert_eq!(sim.stats().tasks_run, 2);
    }

    #[test]
    fn spawned_delayed_task_waits_out_window() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(Task::immediate(
            "trigger",
            Box::new(|ctx| {
                ctx.meter.charge(Op::CommitTxn, 1); // 25 µs
                let release = ctx.now_us() + 1_000_000; // after 1 second
                ctx.spawn(charging("recompute", release, 1));
            }),
        ));
        let end = sim.run_to_completion();
        assert_eq!(end, 25 + 1_000_000 + 10);
        assert_eq!(sim.stats().kind("recompute").count, 1);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        for i in 0..10 {
            sim.submit(charging("u", i * 1000, 1));
        }
        sim.run_until(5000);
        assert!(sim.now_us() >= 5000);
        assert!(sim.stats().tasks_run >= 5);
        sim.run_to_completion();
        assert_eq!(sim.stats().tasks_run, 10);
    }

    #[test]
    fn per_kind_stats_and_prefix_helpers() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("recompute:f1", 0, 1));
        sim.submit(charging("recompute:f1", 0, 3));
        sim.submit(charging("recompute:f2", 0, 2));
        sim.submit(charging("update", 0, 5));
        sim.run_to_completion();
        let f1 = sim.stats().kind("recompute:f1");
        assert_eq!(f1.count, 2);
        assert_eq!(f1.total_us, 40);
        assert_eq!(f1.max_us, 30);
        assert_eq!(f1.mean_us(), 20.0);
        assert_eq!(sim.stats().count_with_prefix("recompute:"), 3);
        assert_eq!(sim.stats().busy_us_with_prefix("recompute:"), 60);
    }

    #[test]
    fn injected_dispatch_delay_counts_deadline_miss() {
        use crate::fault::{FaultDecision, FaultInjector, FaultPoint};
        struct Slow;
        impl FaultInjector for Slow {
            fn decide(&self, p: FaultPoint, _d: &str) -> FaultDecision {
                if p == FaultPoint::SchedDispatch {
                    FaultDecision::DelayUs(500)
                } else {
                    FaultDecision::Continue
                }
            }
        }
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::EarliestDeadline);
        sim.set_injector(Some(Arc::new(Slow)));
        sim.submit(charging("u", 0, 1).with_deadline(100));
        let end = sim.run_to_completion();
        assert_eq!(end, 510); // 500 µs stall + 10 µs work
        assert_eq!(sim.stats().deadline_misses, 1);

        // Without the injector the same task makes its deadline.
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::EarliestDeadline);
        sim.submit(charging("u", 0, 1).with_deadline(100));
        sim.run_to_completion();
        assert_eq!(sim.stats().deadline_misses, 0);
    }

    #[test]
    fn queue_us_is_start_minus_release() {
        // A 100 µs task at t=0 delays three later tasks; each task's queue
        // time must be exactly its start time minus its release time.
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("blocker", 0, 10)); // runs [0, 100)
        sim.submit(charging("u", 40, 10)); // starts 100, queued 60
        sim.submit(charging("u", 90, 10)); // starts 200, queued 110
        sim.submit(charging("u", 300, 10)); // idle jump: starts 300, queued 0
        sim.run_to_completion();
        assert_eq!(sim.stats().kind("blocker").queue_us, 0);
        // 60 + 110 + 0 (the idle-jump task queues for nothing).
        assert_eq!(sim.stats().kind("u").queue_us, 170);
    }

    #[test]
    fn deadline_miss_boundary_is_start_at_or_after_deadline() {
        // First task runs [0, 100); the contested task releases at 0 with
        // deadline exactly 100 — starting *at* the deadline counts as a miss.
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("blocker", 0, 10));
        sim.submit(charging("exact", 0, 1).with_deadline(100));
        sim.run_to_completion();
        assert_eq!(sim.stats().deadline_misses, 1);

        // One µs of slack and the same shape makes its deadline.
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("blocker", 0, 10));
        sim.submit(charging("exact", 0, 1).with_deadline(101));
        sim.run_to_completion();
        assert_eq!(sim.stats().deadline_misses, 0);
    }

    #[test]
    fn busy_us_with_prefix_sums_only_matching_kinds() {
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.submit(charging("recompute:a", 0, 1)); // 10 µs
        sim.submit(charging("recompute:b", 0, 2)); // 20 µs
        sim.submit(charging("recompute", 0, 4)); // 40 µs — prefix matches itself
        sim.submit(charging("update", 0, 8)); // 80 µs — excluded
        sim.run_to_completion();
        assert_eq!(sim.stats().busy_us_with_prefix("recompute"), 70);
        assert_eq!(sim.stats().busy_us_with_prefix("recompute:"), 30);
        assert_eq!(sim.stats().busy_us_with_prefix("nope"), 0);
        assert_eq!(
            sim.stats().busy_us_with_prefix(""),
            sim.stats().busy_us,
            "empty prefix matches every kind"
        );
    }

    #[test]
    fn obs_sink_traces_lifecycle_and_histograms() {
        use strip_obs::ObsSink;
        let obs = ObsSink::new(64);
        let mut sim = Simulator::new(CostModel::paper_calibrated(), Policy::Fifo);
        sim.set_obs(Some(obs.clone()));
        sim.submit(charging("blocker", 0, 10)); // runs [0, 100)
        sim.submit(charging("u", 40, 10)); // delayed, released at 40, starts 100
        sim.run_to_completion();

        let kinds: Vec<EventKind> = obs.trace_tail(100).iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::TxnSubmit));
        assert!(kinds.contains(&EventKind::TxnRelease), "{kinds:?}");
        assert!(kinds.contains(&EventKind::TxnStart));

        let snap = obs.snapshot();
        assert_eq!(snap.queue_us.count, 2);
        assert_eq!(snap.queue_us.sum, 60); // blocker 0 + u 60
        assert_eq!(snap.exec_us.len(), 2);
        let u = snap.exec_us.iter().find(|(k, _)| k == "u").unwrap();
        assert_eq!(u.1.count, 1);
        assert_eq!(u.1.sum, 100);
    }

    #[test]
    fn edf_policy_orders_ready_tasks() {
        let mut sim = Simulator::new(CostModel::free(), Policy::EarliestDeadline);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (kind, dl) in [("late", 900u64), ("urgent", 10)] {
            let o = order.clone();
            let kind_owned = kind.to_string();
            sim.submit(
                Task::immediate(kind, Box::new(move |_| o.lock().push(kind_owned.clone())))
                    .with_deadline(dl),
            );
        }
        sim.run_to_completion();
        assert_eq!(
            *order.lock(),
            vec!["urgent".to_string(), "late".to_string()]
        );
    }
}
