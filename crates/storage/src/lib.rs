//! # strip-storage
//!
//! The in-memory storage engine of the STRIP reproduction (paper §6.1).
//!
//! * [`value`] / [`schema`] — fixed-width runtime values and table schemas.
//! * [`table`] — standard tables as **versioned** record stores: updates
//!   never modify a record in place; old versions stay alive while any
//!   transition/bound table references them (reference counting via `Arc`).
//! * [`temp`] — temporary tables with pointer-array tuples and static
//!   column maps (the Roussopoulos scheme the paper adopts).
//! * [`index`] / [`rbtree`] — hash and red-black-tree secondary indexes.
//! * [`catalog`] — named tables and view definitions.
//! * [`meter`] — the operation-accounting vocabulary shared by every layer;
//!   the cost model itself lives in `strip-txn`.
//! * [`mem`] — the exact byte-metering model: every table/index/version/
//!   temp-tuple byte is priced by one deterministic model, maintained
//!   incrementally and pinned against a deep-walk oracle.

pub mod catalog;
pub mod error;
pub mod index;
pub mod mem;
pub mod meter;
pub mod rbtree;
pub mod schema;
pub mod table;
pub mod temp;
pub mod value;

pub use catalog::{fold_name, Catalog, TableRef, ViewDef};
pub use error::{Result, StorageError};
pub use index::{Index, IndexKind};
pub use mem::{record_bytes, row_bytes, value_bytes, TableMem};
pub use meter::{CountingMeter, Meter, NullMeter, Op};
pub use schema::{Column, Schema, SchemaRef};
pub use table::{
    estimate_distinct, GcStats, LatchObserver, RecordData, RecordRef, RowId, StandardTable,
    TableIndex, SHARD_BITS, SHARD_COUNT, TS_PENDING,
};
pub use temp::{ColumnSource, StaticMap, TempTable, TempTuple};
pub use value::{DataType, Value};
