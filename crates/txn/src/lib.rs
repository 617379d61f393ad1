//! # strip-txn
//!
//! Task/transaction management for the STRIP reproduction (paper §4.4, §6.2).
//!
//! * [`cost`] — the Table-1 calibrated cost model and the per-task meter.
//! * [`fault`] — named fault-injection points threaded through the WAL,
//!   lock manager, and schedulers (the `strip-chaos` harness's hooks).
//! * [`lock`] — strict-2PL lock manager with waits-for deadlock detection.
//! * [`log`] — per-transaction change log (event detection + undo), with
//!   the paper's `execute_order` sequencing, plus the redo-only write-ahead
//!   log and its torn-tail-tolerant recovery.
//! * [`task`] — tasks, the unit of scheduling; each carries a release time.
//! * [`sched`] — delay queue and policy-ordered ready queue (FIFO / EDF /
//!   value-density).
//! * [`sim`] — deterministic discrete-event executor on a virtual single
//!   CPU; produces the utilization / N_r / transaction-length statistics of
//!   Figures 9–14.
//! * [`pool`] — wall-clock worker-pool executor for live use.

pub mod cost;
pub mod fault;
pub mod lock;
pub mod log;
pub mod pool;
pub mod sched;
pub mod sim;
pub mod task;

pub use cost::{CostMeter, CostModel};
pub use fault::{FaultDecision, FaultInjector, FaultPoint, InjectorHandle};
pub use lock::{
    is_key_resource, key_resource, resource_table, ColumnId, KeyRes, LockError, LockManager,
    LockMode, Res, TableId, TxnId,
};
pub use log::{LogEntry, RecoveredState, TxnLog, Wal, WalError, WalOp, WalTxn};
pub use pool::WorkerPool;
pub use sched::{DelayQueue, Policy, ReadyQueue};
pub use sim::{KindStats, SimStats, Simulator};
pub use task::{Task, TaskCtx, TaskId, TaskWork};
