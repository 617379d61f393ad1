//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **Tuple layout** — pointer-array bound tables (§6.1/Rou82) vs full
//!   value copies: build + read cost of the two layouts.
//! * **Index structure** — hash vs red-black-tree point probes (§6.1 offers
//!   both).
//! * **Unique dispatch** — per-firing cost of the unique manager's hash
//!   table (§6.3): coarse vs per-key partitioning, opening new payloads vs
//!   merging into pending ones, vs plain spawn.
//! * **Scheduling policy** — FIFO vs EDF vs value-density queue ops.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use strip_rules::{Dispatch, UniqueManager};
use strip_storage::{
    ColumnSource, DataType, IndexKind, NullMeter, Schema, StandardTable, StaticMap, TempTable,
};
use strip_txn::{Policy, ReadyQueue, Task};

/// Build a base table with `n` rows of (symbol, price).
fn base_table(n: usize) -> StandardTable {
    let schema = Schema::of(&[("symbol", DataType::Str), ("price", DataType::Float)]);
    let t = StandardTable::new("stocks", schema.into_ref());
    for i in 0..n {
        t.insert(vec![format!("S{i:05}").into(), (i as f64).into()])
            .unwrap();
    }
    t
}

fn bench_tuple_layout(c: &mut Criterion) {
    let base = base_table(1000);
    let recs: Vec<_> = base.scan().into_iter().map(|(_, r)| r.clone()).collect();
    let schema = base.schema().clone();

    c.bench_function("bound_table_build_pointer_1k", |b| {
        b.iter(|| {
            let map = StaticMap::new(vec![
                ColumnSource::Pointer { ptr: 0, offset: 0 },
                ColumnSource::Pointer { ptr: 0, offset: 1 },
            ])
            .unwrap();
            let mut t = TempTable::new("m", schema.clone(), map).unwrap();
            for r in &recs {
                t.push(vec![r.clone()], vec![]).unwrap();
            }
            black_box(t)
        })
    });
    c.bench_function("bound_table_build_copied_1k", |b| {
        b.iter(|| {
            let mut t = TempTable::materialized("m", schema.clone());
            for r in &recs {
                t.push_row(r.values().to_vec()).unwrap();
            }
            black_box(t)
        })
    });

    // Read side.
    let map = StaticMap::new(vec![
        ColumnSource::Pointer { ptr: 0, offset: 0 },
        ColumnSource::Pointer { ptr: 0, offset: 1 },
    ])
    .unwrap();
    let mut ptr_t = TempTable::new("m", schema.clone(), map).unwrap();
    let mut mat_t = TempTable::materialized("m", schema.clone());
    for r in &recs {
        ptr_t.push(vec![r.clone()], vec![]).unwrap();
        mat_t.push_row(r.values().to_vec()).unwrap();
    }
    c.bench_function("bound_table_read_pointer_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..ptr_t.len() {
                acc += ptr_t.value(i, 1).as_f64().unwrap();
            }
            black_box(acc)
        })
    });
    c.bench_function("bound_table_read_copied_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..mat_t.len() {
                acc += mat_t.value(i, 1).as_f64().unwrap();
            }
            black_box(acc)
        })
    });
}

fn bench_index_structures(c: &mut Criterion) {
    for (label, kind) in [("hash", IndexKind::Hash), ("rbtree", IndexKind::RbTree)] {
        let t = base_table(10_000);
        t.create_index("ix", "symbol", kind).unwrap();
        let mut i = 0usize;
        c.bench_function(&format!("index_probe_{label}_10k"), |b| {
            b.iter(|| {
                i = (i + 7) % 10_000;
                black_box(t.index_lookup(0, &format!("S{i:05}").into()))
            })
        });
    }
}

fn matches_bound(rows: usize, comps: usize) -> HashMap<String, TempTable> {
    let schema = Schema::of(&[("comp", DataType::Str), ("diff", DataType::Float)]).into_ref();
    let mut t = TempTable::materialized("matches", schema);
    for i in 0..rows {
        t.push_row(vec![format!("C{:04}", i % comps).into(), 0.5.into()])
            .unwrap();
    }
    let mut m = HashMap::new();
    m.insert("matches".to_string(), t);
    m
}

/// Time `dispatch_unique` of 12 rows over 12 composites into a manager
/// that already holds the firing's pending partitions, so every partition
/// merges. The pending payloads are started and re-created every 256
/// merges, which keeps their tables small.
fn bench_merge(c: &mut Criterion, id: &str, cols: &[String]) {
    c.bench_function(id, |b| {
        let um = UniqueManager::new();
        let seed = || {
            um.dispatch_unique("f", cols, matches_bound(12, 12), &NullMeter, 0)
                .unwrap()
        };
        let mut pending = seed();
        let mut merges = 0u32;
        b.iter(|| {
            merges += 1;
            if merges.is_multiple_of(256) {
                for d in pending.drain(..) {
                    if let Dispatch::New(p) = d {
                        um.begin_action(&p, &NullMeter);
                    }
                }
                pending = seed();
            }
            um.dispatch_unique("f", cols, matches_bound(12, 12), &NullMeter, 0)
                .unwrap()
        })
    });
}

fn bench_unique_dispatch(c: &mut Criterion) {
    let per_comp = vec!["comp".to_string()];
    // A fresh manager per firing: every partition opens a new payload.
    c.bench_function("unique_dispatch_coarse_12rows", |b| {
        b.iter(|| {
            UniqueManager::new()
                .dispatch_unique("f", &[], matches_bound(12, 12), &NullMeter, 0)
                .unwrap()
        })
    });
    c.bench_function("unique_dispatch_per_comp_12rows", |b| {
        b.iter(|| {
            UniqueManager::new()
                .dispatch_unique("f", &per_comp, matches_bound(12, 12), &NullMeter, 0)
                .unwrap()
        })
    });
    bench_merge(c, "unique_merge_into_pending_12rows", &[]);
    bench_merge(c, "unique_merge_per_comp_12rows", &per_comp);
    c.bench_function("non_unique_spawn_12rows", |b| {
        let um = UniqueManager::new();
        b.iter(|| black_box(um.dispatch_non_unique("f", matches_bound(12, 12), 0)))
    });
}

fn bench_sched_policies(c: &mut Criterion) {
    for (label, policy) in [
        ("fifo", Policy::Fifo),
        ("edf", Policy::EarliestDeadline),
        ("value_density", Policy::ValueDensity),
    ] {
        c.bench_function(&format!("ready_queue_push_pop_1k_{label}"), |b| {
            b.iter(|| {
                let mut q = ReadyQueue::new(policy);
                for i in 0..1000u64 {
                    q.push(
                        Task::at("t", i % 97, Box::new(|_| {}))
                            .with_deadline(1000 - i)
                            .with_value((i % 13) as f64),
                    );
                }
                while let Some(t) = q.pop() {
                    black_box(t.id);
                }
            })
        });
    }
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(20);
    targets = bench_tuple_layout, bench_index_structures, bench_unique_dispatch, bench_sched_policies
}
criterion_main!(ablations);
