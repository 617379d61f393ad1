//! Tasks — STRIP's unit of scheduling (§4.4, §6.2).
//!
//! "Transactions must be executed within a task ... a task can contain zero
//! or more transactions but every transaction must be contained within
//! exactly one task." Every task has a release time; tasks with future
//! release times sit in the delay queue (this is how `after`-delayed unique
//! transactions are implemented).

use crate::cost::{CostMeter, CostModel};
use crate::sim::SimStats;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use strip_obs::{EventKind, Hist, ObsSink, TraceCtx};

/// Task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

static NEXT_TASK_ID: AtomicU64 = AtomicU64::new(1);

impl TaskId {
    /// Allocate a fresh id.
    pub fn fresh() -> TaskId {
        TaskId(NEXT_TASK_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// Execution context handed to a task's work closure by the executor.
pub struct TaskCtx<'a> {
    /// Virtual (or wall) time at which the task started running, in µs.
    pub start_us: u64,
    /// The task's own id.
    pub task_id: TaskId,
    /// Cost meter charged by everything the task does.
    pub meter: &'a crate::cost::CostMeter,
    /// Tasks created while running (rule actions); drained by the executor
    /// after the work closure returns.
    pub spawned: Vec<Task>,
    /// Causal identity inherited from the task (untraced for plain feeds;
    /// the action span for rule actions).
    pub trace: TraceCtx,
}

impl TaskCtx<'_> {
    /// Run `work` as a task starting at `start_us` on a fresh meter — the
    /// metered run every executor shares. Returns the work's output, the µs
    /// it charged and the tasks it spawned.
    pub(crate) fn metered<R>(
        model: &CostModel,
        start_us: u64,
        task_id: TaskId,
        trace: TraceCtx,
        work: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> (R, u64, Vec<Task>) {
        let meter = CostMeter::new(model.clone());
        let mut ctx = TaskCtx {
            start_us,
            task_id,
            meter: &meter,
            spawned: Vec::new(),
            trace,
        };
        let out = work(&mut ctx);
        (out, meter.charged_us(), ctx.spawned)
    }

    /// Current virtual time: start time plus the work charged so far. This
    /// is what commit timestamps and `after`-delay release times are
    /// computed from.
    pub fn now_us(&self) -> u64 {
        self.start_us + self.meter.charged_us()
    }

    /// Submit a task created by this one (e.g. a triggered rule action).
    pub fn spawn(&mut self, task: Task) {
        self.spawned.push(task);
    }
}

/// The work a task performs. Boxed `FnOnce` so rule actions can capture
/// their payload (`Arc` to the shared bound-table set).
pub type TaskWork = Box<dyn FnOnce(&mut TaskCtx<'_>) + Send>;

/// A schedulable task.
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// Earliest time the task may run, in µs. Tasks whose release time is in
    /// the future wait in the delay queue.
    pub release_us: u64,
    /// Optional deadline (for EDF scheduling).
    pub deadline_us: Option<u64>,
    /// Value for value-density scheduling (higher = more important).
    pub value: f64,
    /// Label used for statistics grouping (e.g. `"update"` or
    /// `"recompute:compute_comps3"`).
    pub kind: Arc<str>,
    /// Causal identity: rule actions carry the action span minted at
    /// dispatch so their scheduler lifecycle events join the trace DAG.
    pub trace: TraceCtx,
    /// The work closure.
    pub work: TaskWork,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("release_us", &self.release_us)
            .field("deadline_us", &self.deadline_us)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl Task {
    /// Build a task with an immediate release time.
    pub fn immediate(kind: &str, work: TaskWork) -> Task {
        Task {
            id: TaskId::fresh(),
            release_us: 0,
            deadline_us: None,
            value: 1.0,
            kind: Arc::from(kind),
            trace: TraceCtx::NONE,
            work,
        }
    }

    /// Build a task released at `release_us`.
    pub fn at(kind: &str, release_us: u64, work: TaskWork) -> Task {
        Task {
            release_us,
            ..Task::immediate(kind, work)
        }
    }

    /// Set a deadline (builder style).
    pub fn with_deadline(mut self, deadline_us: u64) -> Task {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Set a value (builder style).
    pub fn with_value(mut self, value: f64) -> Task {
        self.value = value;
        self
    }

    /// Attach causal identity (builder style).
    pub fn with_trace(mut self, trace: TraceCtx) -> Task {
        self.trace = trace;
        self
    }

    /// Take a task from a ready queue at `start_us`: its kind, its
    /// [`Started`] record and its work.
    pub(crate) fn start(self, start_us: u64) -> (Arc<str>, Started, TaskWork) {
        let started = Started {
            id: self.id,
            trace: self.trace,
            start_us,
            queued: Some((self.release_us, self.deadline_us)),
        };
        (self.kind, started, self.work)
    }
}

/// A task as an executor starts it: what [`run_task`] traces and accounts
/// the run by, besides its kind.
pub(crate) struct Started {
    pub id: TaskId,
    pub trace: TraceCtx,
    pub start_us: u64,
    /// Release time and deadline of a task taken from a ready queue; `None`
    /// for inline work, which is neither traced as started nor queued.
    pub queued: Option<(u64, Option<u64>)>,
}

/// Run one task and account it — the routine behind
/// [`Simulator::step`](crate::Simulator::step),
/// [`Simulator::run_inline`](crate::Simulator::run_inline) and every pool
/// worker. A queued task is traced as started, after its deadline miss if
/// it missed one, and its queue time is recorded. `finish` gets the µs the
/// run charged; it moves the executor's clock past the run and returns the
/// clock with the stats to account into. The exec histogram and the
/// telemetry windows follow. Returns the work's output and the tasks it
/// spawned.
pub(crate) fn run_task<R, S: DerefMut<Target = SimStats>>(
    model: &CostModel,
    obs: Option<&ObsSink>,
    kind: &str,
    task: Started,
    work: impl FnOnce(&mut TaskCtx<'_>) -> R,
    finish: impl FnOnce(u64) -> (u64, S),
) -> (R, Vec<Task>) {
    let Started {
        id,
        trace,
        start_us,
        queued,
    } = task;
    let (queue_us, missed_by) = match queued {
        Some((release_us, deadline_us)) => (
            start_us.saturating_sub(release_us),
            deadline_us
                .filter(|&dl| start_us >= dl)
                .map(|dl| start_us - dl),
        ),
        None => (0, None),
    };
    if let (Some(obs), Some(_)) = (obs, queued) {
        if let Some(late_us) = missed_by {
            obs.event_ctx(
                start_us,
                id.0,
                EventKind::DeadlineMiss,
                kind,
                late_us,
                trace,
                0,
            );
        }
        obs.event_ctx(
            start_us,
            id.0,
            EventKind::TxnStart,
            kind,
            queue_us,
            trace,
            0,
        );
        obs.record(Hist::Queue, queue_us);
    }
    let (out, charged, spawned) = TaskCtx::metered(model, start_us, id, trace, work);
    let (now_us, mut stats) = finish(charged);
    stats.record(kind, charged, queue_us, missed_by.is_some());
    let (tasks_run, busy_us) = (stats.tasks_run, stats.busy_us);
    drop(stats);
    if let Some(obs) = obs {
        obs.record_exec(kind, charged);
        obs.window_tick(now_us, tasks_run, busy_us);
    }
    (out, spawned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostMeter, CostModel};
    use strip_storage::Meter;

    #[test]
    fn ids_are_unique() {
        let a = TaskId::fresh();
        let b = TaskId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn ctx_now_advances_with_charge() {
        let meter = CostMeter::new(CostModel::paper_calibrated());
        let mut ctx = TaskCtx {
            start_us: 1000,
            task_id: TaskId::fresh(),
            meter: &meter,
            spawned: Vec::new(),
            trace: TraceCtx::NONE,
        };
        assert_eq!(ctx.now_us(), 1000);
        meter.charge(strip_storage::Op::GetLock, 1); // 14 µs
        assert_eq!(ctx.now_us(), 1014);
        ctx.spawn(Task::immediate("noop", Box::new(|_| {})));
        assert_eq!(ctx.spawned.len(), 1);
    }

    #[test]
    fn builders() {
        let t = Task::at("update", 500, Box::new(|_| {}))
            .with_deadline(900)
            .with_value(3.0);
        assert_eq!(t.release_us, 500);
        assert_eq!(t.deadline_us, Some(900));
        assert_eq!(t.value, 3.0);
        assert_eq!(&*t.kind, "update");
    }
}
