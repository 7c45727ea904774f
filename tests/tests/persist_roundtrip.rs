//! Persistence round-trip suite: checkpoint + WAL replay restores the
//! full incremental stack **bit-identically**.
//!
//! Each trace drives a live `RothkoRun` + lockstep `ReducedDelta` through
//! mixed edge batches, node churn and maintenance while logging every
//! input into a [`qsc_persist::Store`]; at every round the store is
//! recovered in a fresh process-like context and the restored stack is
//! compared to the live one by re-encoding both into checkpoint bytes —
//! byte equality is the strongest available bit-identity check (it covers
//! the graph CSR, coloring, accumulators, summary matrices with witness
//! args, nonzero counts, sparse rows and the reduced instance, all
//! through `to_bits`). Restored stacks are then *advanced* through more
//! batches alongside the never-persisted one and must stay byte-equal.
//! Runs across Dense / Sparse / Auto storage × threads {1, 4} × both
//! graph directions, with weights kept at multiples of 0.5 so sums are
//! exact (the same regime as the rest of the dynamic suite). A proptest
//! harness fuzzes randomized trace schedules on top.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use qsc_core::partition::PartitionEvent;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig, RothkoRun};
use qsc_core::StorageMode;
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{Graph, GraphBuilder, GraphDelta};
use qsc_persist::{
    encode_checkpoint, encode_checkpoint_into, encode_checkpoint_with, write_checkpoint_file_with,
    CheckpointData, Layout, Store, StoreOptions,
};
use rand::prelude::*;

/// Fresh scratch directory under the system temp dir.
fn temp_store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "qsc-persist-rt-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Random graph with exactly representable weights (multiples of 0.5).
fn random_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            let w = (rng.random_range(1u32..9) as f64) * 0.5;
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Canonical byte encoding of a stack's full observable state: its
/// checkpoint bytes, then the engine's pair-summary values and nonzero
/// counts, read off a clone of the engine with every pending entry
/// resolved (the run keeps its pending entries). Checkpoints do not carry
/// the summaries (a restore folds them from the accumulator rows), and a
/// restore's extremum attainers are first attainers, so attainers are
/// left out.
fn state_bytes(run: &RothkoRun<'_>, reduced: Option<&ReducedDelta>) -> Vec<u8> {
    let mut config = run.config().clone();
    config.initial = None; // not persisted; normalize for comparison
    let data = CheckpointData {
        graph: run.graph().clone(),
        config,
        run: run.snapshot(),
        reduced: reduced.map(ReducedDelta::snapshot),
        wal_seq: 0,
    };
    let mut bytes = encode_checkpoint(&data).0;
    if let Some(e) = run.engine() {
        let mut e = e.clone();
        e.resolve_pending(run.partition());
        for outgoing in [true, false] {
            let (min, max, _, _, nz) = e.summary_columns(outgoing);
            for x in min.iter().chain(&max) {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            for c in nz {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    bytes
}

/// Random edge mutations over `delta`, returning the drained events.
fn edge_churn(delta: &mut GraphDelta, rng: &mut StdRng, ops: usize) -> Vec<EdgeEvent> {
    let n = delta.num_nodes();
    let mut edges: Vec<(u32, u32)> = delta
        .base()
        .edges()
        .iter()
        .map(|&(u, v, _)| (u, v))
        .collect();
    for _ in 0..ops {
        match rng.random_range(0..3u32) {
            0 => {
                for _ in 0..20 {
                    let u = rng.random_range(0..n) as u32;
                    let v = rng.random_range(0..n) as u32;
                    if delta.is_live(u) && delta.is_live(v) && !delta.has_edge(u, v) {
                        let w = (rng.random_range(1u32..9) as f64) * 0.5;
                        delta.insert_edge(u, v, w).unwrap();
                        edges.push((u, v));
                        break;
                    }
                }
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                if delta.has_edge(u, v) {
                    delta.delete_edge(u, v).unwrap();
                }
            }
            _ => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges[i];
                if delta.has_edge(u, v) {
                    let w = (rng.random_range(1u32..9) as f64) * 0.5;
                    delta.reweight_edge(u, v, w).unwrap();
                }
            }
        }
    }
    delta.drain_events()
}

/// One live trace step: edge batch, logged then applied in the canonical
/// run → reduced lockstep order.
fn live_edge_batch(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    delta: &mut GraphDelta,
    rng: &mut StdRng,
    ops: usize,
) {
    let events = edge_churn(delta, rng, ops);
    store.log_edge_batch(&events).unwrap();
    let compacted = delta.compact();
    run.apply_edge_batch(compacted, &events);
    reduced.apply_edge_batch(run.partition(), &events);
}

/// One live trace step: node churn, logged then applied with the reduced
/// lockstep running on a grown partition clone before the run's remap.
fn live_node_batch(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    delta: &mut GraphDelta,
    rng: &mut StdRng,
) -> Graph {
    let (batch, compacted) =
        qsc_bench::random_node_churn(delta, run.partition(), rng, 3, 2, 3, |r| {
            (r.random_range(1u32..9) as f64) * 0.5
        });
    store.log_node_batch(&batch).unwrap();
    let mut p = run.partition().clone();
    for &c in &batch.inserted_colors {
        p.insert_node(c);
        reduced.apply_node_insert(c);
    }
    reduced.apply_edge_batch(&p, &batch.edge_events);
    for &v in &batch.removed {
        reduced.apply_node_removal(p.color_of(v));
    }
    run.apply_node_batch(compacted.clone(), &batch);
    compacted
}

/// One live trace step: maintenance with reduced lockstep, logged.
fn live_maintain(
    store: &mut Store,
    run: &mut RothkoRun<'_>,
    reduced: &mut ReducedDelta,
    base: &Graph,
) {
    store.log_maintain().unwrap();
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(base, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        PartitionEvent::NodeInsert { .. } | PartitionEvent::NodeRemove { .. } => {}
    });
}

/// Drive a full trace for one (storage, threads, directed, seed) cell,
/// recovering and comparing after every round and once more after
/// advancing the recovered stack in lockstep with the live one.
fn roundtrip_trace(
    storage: StorageMode,
    threads: usize,
    directed: bool,
    seed: u64,
    rounds: usize,
    layout: Layout,
) {
    let dir = temp_store_dir("trace");
    let g = random_graph(70, 300, directed, seed);
    let config = RothkoConfig {
        max_colors: 36,
        target_error: 3.0,
        threads: Some(threads),
        storage,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    // Tiny segments force rotation mid-trace so recovery crosses segment
    // boundaries; sync_every 0 fsyncs each record.
    let mut store = Store::create(
        &dir,
        StoreOptions {
            segment_bytes: 512,
            sync_every_bytes: 0,
            layout,
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);
    for round in 0..rounds {
        live_edge_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng, 12);
        let mut base = delta.compact();
        if round % 2 == 1 {
            base = live_node_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng);
        }
        live_maintain(&mut store, &mut run, &mut reduced, &base);
        // Mid-trace checkpoint on the middle round: recovery now starts
        // from a non-initial snapshot and replays only the newer tail.
        if round == rounds / 2 {
            store.checkpoint(&run, Some(&reduced)).unwrap();
        }
        let rec = Store::recover(&dir, None).unwrap();
        assert_eq!(
            state_bytes(&run, Some(&reduced)),
            state_bytes(&rec.run, rec.reduced.as_ref()),
            "restored state diverged (storage {storage:?}, threads {threads}, \
             directed {directed}, round {round})"
        );
    }
    // Restored-then-advanced: one more batch + maintain applied to both
    // the live stack and a fresh recovery must stay byte-identical.
    let rec = Store::recover(&dir, None).unwrap();
    let mut rec_run = rec.run;
    let mut rec_reduced = rec.reduced.unwrap();
    let events = edge_churn(&mut delta, &mut rng, 10);
    let compacted = delta.compact();
    run.apply_edge_batch(compacted.clone(), &events);
    reduced.apply_edge_batch(run.partition(), &events);
    rec_run.apply_edge_batch(compacted.clone(), &events);
    rec_reduced.apply_edge_batch(rec_run.partition(), &events);
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&compacted, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        _ => {}
    });
    rec_run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => rec_reduced.apply_split(&compacted, p, s),
        PartitionEvent::Merge(m) => rec_reduced.apply_merge(m),
        _ => {}
    });
    assert_eq!(
        state_bytes(&run, Some(&reduced)),
        state_bytes(&rec_run, Some(&rec_reduced)),
        "advanced-after-restore state diverged (storage {storage:?}, threads {threads}, \
         directed {directed})"
    );
    assert_eq!(
        reduced.verify_against(&run.graph().clone(), run.partition()),
        Ok(())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_stack_is_bit_identical_across_modes_and_threads() {
    for storage in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
        for threads in [1usize, 4] {
            for (directed, seed) in [(false, 17u64), (true, 53)] {
                roundtrip_trace(storage, threads, directed, seed, 3, Layout::Packed);
            }
        }
    }
}

#[test]
fn restored_stack_is_bit_identical_from_mapped_checkpoints() {
    // Same grid as the packed sweep, but the store writes version-4
    // (mapped raw) checkpoints and recovery serves the large columns
    // zero-copy out of the map. Bit-identity must hold regardless.
    for storage in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
        for threads in [1usize, 4] {
            for (directed, seed) in [(false, 17u64), (true, 53)] {
                roundtrip_trace(storage, threads, directed, seed, 3, Layout::MappedRaw);
            }
        }
    }
}

/// Mapped restore and owned restore of the same store, advanced through
/// identical churn rounds, must stay bit-identical at every step — the
/// engine must not be able to observe which memory its columns sit on.
fn mapped_vs_owned_equivalence(threads: usize) {
    let dir = temp_store_dir("mapped-eq");
    let g = random_graph(70, 300, false, 29);
    let config = RothkoConfig {
        max_colors: 36,
        target_error: 3.0,
        threads: Some(threads),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout: Layout::MappedRaw,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    drop(store);

    // Owned restore: decode the same mapped file eagerly into owned
    // columns.
    let path = dir.join(qsc_persist::CHECKPOINT_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let owned = qsc_persist::decode_checkpoint(&bytes).unwrap();
    let mut owned_run = RothkoRun::from_snapshot(owned.graph.clone(), owned.config, &owned.run);
    let mut owned_reduced = ReducedDelta::from_snapshot(owned.reduced.as_ref().unwrap());

    // Mapped restore: recovery auto-detects the mapped layout and
    // borrows the columns.
    let rec = Store::recover(&dir, None).unwrap();
    let mut rec_run = rec.run;
    let mut rec_reduced = rec.reduced.unwrap();
    assert_eq!(
        state_bytes(&owned_run, Some(&owned_reduced)),
        state_bytes(&rec_run, Some(&rec_reduced)),
        "mapped and owned restores diverged before any churn (threads {threads})"
    );

    // Three rounds of identical churn + maintenance applied to both.
    let mut delta = GraphDelta::new(rec_run.graph().clone());
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for round in 0..3 {
        let events = edge_churn(&mut delta, &mut rng, 12);
        let compacted = delta.compact();
        rec_run.apply_edge_batch(compacted.clone(), &events);
        rec_reduced.apply_edge_batch(rec_run.partition(), &events);
        owned_run.apply_edge_batch(compacted.clone(), &events);
        owned_reduced.apply_edge_batch(owned_run.partition(), &events);
        rec_run.maintain_with(|p, ev| match ev {
            PartitionEvent::Split(s) => rec_reduced.apply_split(&compacted, p, s),
            PartitionEvent::Merge(m) => rec_reduced.apply_merge(m),
            _ => {}
        });
        owned_run.maintain_with(|p, ev| match ev {
            PartitionEvent::Split(s) => owned_reduced.apply_split(&compacted, p, s),
            PartitionEvent::Merge(m) => owned_reduced.apply_merge(m),
            _ => {}
        });
        assert_eq!(
            state_bytes(&owned_run, Some(&owned_reduced)),
            state_bytes(&rec_run, Some(&rec_reduced)),
            "mapped and owned stacks diverged after churn round {round} (threads {threads})"
        );
    }
    assert_eq!(
        rec_reduced.verify_against(&rec_run.graph().clone(), rec_run.partition()),
        Ok(())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_restore_matches_owned_restore_under_churn() {
    mapped_vs_owned_equivalence(1);
    mapped_vs_owned_equivalence(4);
}

#[test]
fn mapped_store_queries_match_recovered_run() {
    // MappedStore's direct queries (coloring, quotient weights) must agree
    // with the fully recovered stack without assembling the engine.
    let dir = temp_store_dir("mapped-query");
    let g = random_graph(60, 260, false, 41);
    let config = RothkoConfig {
        max_colors: 24,
        target_error: 3.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(
        &dir,
        StoreOptions {
            layout: Layout::MappedRaw,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    drop(store);

    let mapped = qsc_persist::MappedStore::open_dir(&dir).unwrap();
    assert!(mapped.is_mapped());
    assert_eq!(mapped.num_nodes(), g.num_nodes());
    let coloring = mapped.coloring().unwrap();
    let k = mapped.num_colors();
    for (v, &c) in coloring.iter().enumerate() {
        assert_eq!(c, run.partition().color_of(v as u32));
    }
    for a in 0..k {
        for b in 0..k {
            assert_eq!(
                mapped.quotient_weight(a, b).unwrap().to_bits(),
                reduced.pair_weight(a, b).to_bits(),
                "quotient weight ({a},{b}) disagrees with the live reduced instance"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_and_reports_coverage() {
    // Recovering twice from the same store yields the same bytes, and a
    // store reopened at the recovered sequence keeps logging seamlessly.
    let dir = temp_store_dir("idem");
    let g = random_graph(50, 200, false, 99);
    let config = RothkoConfig {
        max_colors: 24,
        target_error: 3.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(7);
    live_edge_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng, 8);
    store.sync().unwrap();
    let seq_logged = store.last_seq();
    drop(store);

    let a = Store::recover(&dir, None).unwrap();
    let b = Store::recover(&dir, None).unwrap();
    assert_eq!(a.replayed, 1);
    assert_eq!(a.last_seq, seq_logged);
    assert_eq!(
        state_bytes(&a.run, a.reduced.as_ref()),
        state_bytes(&b.run, b.reduced.as_ref())
    );
    assert_eq!(
        state_bytes(&run, Some(&reduced)),
        state_bytes(&a.run, a.reduced.as_ref())
    );

    // Resume logging from the recovered position and recover again.
    let mut store = Store::open_at(&dir, a.last_seq, StoreOptions::default()).unwrap();
    let mut run2 = a.run;
    let mut reduced2 = a.reduced.unwrap();
    live_edge_batch(
        &mut store,
        &mut run2,
        &mut reduced2,
        &mut delta,
        &mut rng,
        8,
    );
    store.sync().unwrap();
    let c = Store::recover(&dir, None).unwrap();
    assert_eq!(c.replayed, 2);
    assert_eq!(
        state_bytes(&run2, Some(&reduced2)),
        state_bytes(&c.run, c.reduced.as_ref())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_override_on_recovery_preserves_results() {
    // Recovering a 1-thread store with 4 threads (and vice versa) changes
    // only the pool; coloring, error bits and reduced state must match.
    let dir = temp_store_dir("threads");
    let g = random_graph(60, 260, true, 5);
    let config = RothkoConfig {
        max_colors: 30,
        target_error: 3.0,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    let mut rng = StdRng::seed_from_u64(31);
    live_edge_batch(&mut store, &mut run, &mut reduced, &mut delta, &mut rng, 10);
    let base = delta.compact();
    live_maintain(&mut store, &mut run, &mut reduced, &base);
    store.sync().unwrap();

    let rec = Store::recover(&dir, Some(4)).unwrap();
    let mut rec_run = rec.run;
    assert_eq!(rec_run.config().threads, Some(4));
    assert!(run.partition().same_as(rec_run.partition()));
    assert_eq!(
        run.exact_max_error().to_bits(),
        rec_run.exact_max_error().to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint a stack over a graph holding the zero-weight edge `{0, 1}`
/// (an edge list may hold one), log `mutate` of that edge, and recover:
/// the recovered stack must equal the live one byte for byte.
fn zero_weight_edge_recovers(tag: &str, mutate: impl FnOnce(&mut GraphDelta)) {
    let dir = temp_store_dir(tag);
    let mut b = GraphBuilder::new_undirected(8);
    b.add_edge(0, 1, 0.0);
    for (u, v) in [
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 0),
        (2, 6),
    ] {
        b.add_edge(u, v, 1.0);
    }
    let g = b.build();
    assert!(g.has_edge(0, 1));
    let config = RothkoConfig {
        max_colors: 4,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let mut reduced = ReducedDelta::new(&g, run.partition());
    let mut store = Store::create(&dir, StoreOptions::default()).unwrap();
    store.checkpoint(&run, Some(&reduced)).unwrap();
    let mut delta = GraphDelta::new(g.clone());
    mutate(&mut delta);
    let events = delta.drain_events();
    store.log_edge_batch(&events).unwrap();
    run.apply_edge_batch(delta.compact(), &events);
    reduced.apply_edge_batch(run.partition(), &events);
    store.sync().unwrap();
    let rec = Store::recover(&dir, None).unwrap();
    assert_eq!(
        state_bytes(&run, Some(&reduced)),
        state_bytes(&rec.run, rec.reduced.as_ref())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_replays_delete_of_zero_weight_edge() {
    zero_weight_edge_recovers("zero-delete", |d| d.delete_edge(0, 1).unwrap());
}

#[test]
fn recovery_replays_reweight_of_zero_weight_edge() {
    zero_weight_edge_recovers("zero-reweight", |d| d.reweight_edge(1, 0, 2.5).unwrap());
}

#[test]
fn checkpoint_with_pending_merge_removals_decodes() {
    // Merges leave the reduced delta's dirty queue holding the removed
    // color ids (at or past k) until the next emission drains it. A
    // checkpoint written in that window decodes, in both layouts, to the
    // snapshot that was written, and the snapshot restores.
    let g = random_graph(80, 340, false, 33);
    let config = RothkoConfig {
        max_colors: 40,
        target_error: 4.0,
        coarsen: true,
        threads: Some(1),
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    let mut reduced = ReducedDelta::new(&g, run.partition());
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&g, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        _ => unreachable!("no node churn in this pass"),
    });
    reduced.take_dirty_colors();
    // Dropping every edge zeroes every error bound, so coarsening merges.
    let mut delta = GraphDelta::new(g.clone());
    for &(u, v, _) in &g.edges() {
        delta.delete_edge(u, v).unwrap();
    }
    let events = delta.drain_events();
    let empty = delta.compact();
    run.apply_edge_batch(empty.clone(), &events);
    reduced.apply_edge_batch(run.partition(), &events);
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => reduced.apply_split(&empty, p, s),
        PartitionEvent::Merge(m) => reduced.apply_merge(m),
        _ => unreachable!("no node churn in this pass"),
    });
    assert!(run.merges() > 0);
    let snap = reduced.snapshot();
    assert!(
        snap.dirty.iter().any(|&c| c as usize >= snap.k),
        "no removed color pending"
    );
    for layout in [Layout::Packed, Layout::MappedRaw] {
        let data = CheckpointData {
            graph: run.graph().clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: Some(snap.clone()),
            wal_seq: 0,
        };
        let bytes = encode_checkpoint_with(&data, layout).0;
        let decoded = qsc_persist::decode_checkpoint(&bytes).unwrap();
        assert_eq!(decoded.reduced.as_ref(), Some(&snap), "{layout:?}");
    }
    assert_eq!(ReducedDelta::from_snapshot(&snap).snapshot(), snap);
}

#[test]
fn patched_graph_checkpoints_like_its_flat_copy() {
    // An edge-only compaction below the patch limit returns a patched
    // graph; its checkpoint bytes equal those of the same stack over the
    // flat graph with the same rows, in both layouts.
    for directed in [false, true] {
        let g = random_graph(80, 400, directed, 11);
        let config = RothkoConfig {
            max_colors: 24,
            target_error: 3.0,
            threads: Some(1),
            ..Default::default()
        };
        let mut run = Rothko::new(config).start(&g);
        run.maintain();
        let mut reduced = ReducedDelta::new(&g, run.partition());
        let mut delta = GraphDelta::new(g.clone());
        let mut rng = StdRng::seed_from_u64(23);
        let events = edge_churn(&mut delta, &mut rng, 6);
        let patched = delta.compact();
        assert!(patched.is_patched(), "directed {directed}");
        run.apply_edge_batch(patched.clone(), &events);
        reduced.apply_edge_batch(run.partition(), &events);
        let (offsets, targets, weights) = patched.out_adjacency();
        let flat = Graph::from_out_csr(
            patched.num_nodes(),
            directed,
            offsets.to_vec(),
            targets.to_vec(),
            weights.to_vec(),
        );
        assert!(!flat.is_patched());
        let data = |graph: &Graph| CheckpointData {
            graph: graph.clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: Some(reduced.snapshot()),
            wal_seq: 0,
        };
        for layout in [Layout::Packed, Layout::MappedRaw] {
            assert_eq!(
                encode_checkpoint_with(&data(&patched), layout).0,
                encode_checkpoint_with(&data(&flat), layout).0,
                "directed {directed}, {layout:?}"
            );
        }
    }
}

/// The streaming file writer leaves exactly the in-memory encoder's bytes
/// on disk, in both layouts, over a flat graph and over a row-patched one
/// (whose rows the writer gathers), and no temp file behind. Streaming
/// into a cursor that already holds bytes appends the same checkpoint
/// after them and leaves the cursor at its end.
#[test]
fn file_writer_matches_in_memory_encoder() {
    let dir = temp_store_dir("writer");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(qsc_persist::CHECKPOINT_FILE);
    for directed in [false, true] {
        let g = random_graph(90, 420, directed, 31);
        let config = RothkoConfig {
            max_colors: 20,
            target_error: 2.0,
            threads: Some(1),
            storage: StorageMode::Sparse,
            ..Default::default()
        };
        let mut run = Rothko::new(config).start(&g);
        run.maintain();
        let mut reduced = ReducedDelta::new(&g, run.partition());
        let data = |run: &RothkoRun<'_>, reduced: &ReducedDelta| CheckpointData {
            graph: run.graph().clone(),
            config: run.config().clone(),
            run: run.snapshot(),
            reduced: Some(reduced.snapshot()),
            wal_seq: 5,
        };
        let flat = data(&run, &reduced);
        let mut delta = GraphDelta::new(g.clone());
        let mut rng = StdRng::seed_from_u64(37);
        let events = edge_churn(&mut delta, &mut rng, 6);
        let patched_graph = delta.compact();
        assert!(patched_graph.is_patched(), "directed {directed}");
        run.apply_edge_batch(patched_graph, &events);
        reduced.apply_edge_batch(run.partition(), &events);
        let patched = data(&run, &reduced);
        for (name, data) in [("flat", &flat), ("patched", &patched)] {
            for layout in [Layout::Packed, Layout::MappedRaw] {
                let what = format!("{name} graph, directed {directed}, {layout:?}");
                let (bytes, stats) = encode_checkpoint_with(data, layout);
                let written = write_checkpoint_file_with(&path, data, layout).unwrap();
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "{what}");
                assert_eq!(written.file_bytes, bytes.len() as u64, "{what}");
                assert_eq!(
                    (written.blocks, written.encoded_bytes, written.natural_bytes),
                    (stats.blocks, stats.encoded_bytes, stats.natural_bytes),
                    "{what}"
                );
                assert!(!path.with_extension("tmp").exists(), "{what}");

                let mut cursor = std::io::Cursor::new(b"prefix".to_vec());
                cursor.set_position(6);
                encode_checkpoint_into(&mut cursor, data, layout).unwrap();
                assert_eq!(cursor.position(), 6 + bytes.len() as u64, "{what}");
                assert_eq!(&cursor.get_ref()[6..], &bytes[..], "{what}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint taken between edge batches and the next refresh — where
/// `restart`-style budget-capped rounds stop — catches the engine with
/// pending pair summaries. Checkpoints hold no summaries, so its bytes
/// equal a checkpoint of the same state resolved, in both layouts, and the
/// recovered run answers the witness queries exactly as the live one.
#[test]
fn checkpoint_with_pending_summaries_restores_the_live_answers() {
    for (directed, seed) in [(false, 71u64), (true, 73)] {
        for storage in [StorageMode::Dense, StorageMode::Sparse] {
            let g = random_graph(90, 420, directed, seed);
            let config = RothkoConfig {
                max_colors: 30,
                target_error: 2.0,
                storage,
                ..Default::default()
            };
            let mut run = Rothko::new(config).start(&g);
            run.maintain();
            let deferred = |run: &RothkoRun<'_>| {
                run.engine()
                    .expect("engine run")
                    .counters()
                    .extremes_deferred
            };
            let before = deferred(&run);
            let mut delta = GraphDelta::new(g.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e57);
            for _ in 0..3 {
                let events = edge_churn(&mut delta, &mut rng, 12);
                run.apply_edge_batch(delta.compact(), &events);
            }
            // Nothing resolves a pending entry but a refresh, a merge or
            // `resolve_pending`, and none has run since the batches.
            assert!(deferred(&run) > before, "the batches deferred nothing");
            let encode = |run: &RothkoRun<'_>, layout| {
                let data = CheckpointData {
                    graph: run.graph().clone(),
                    config: run.config().clone(),
                    run: run.snapshot(),
                    reduced: None,
                    wal_seq: 0,
                };
                encode_checkpoint_with(&data, layout).0
            };
            let layouts = [Layout::Packed, Layout::MappedRaw];
            let pending = layouts.map(|layout| encode(&run, layout));
            let alpha = run.config().alpha;
            run.exact_max_error();
            let live = run.engine().expect("engine run");
            let answer = (
                live.max_error().to_bits(),
                live.pick_witness(run.partition(), alpha),
            );
            for bytes in &pending {
                let data = qsc_persist::decode_checkpoint(bytes).unwrap();
                let mut rec = RothkoRun::from_snapshot(data.graph, data.config, &data.run);
                rec.exact_max_error();
                let engine = rec.engine().expect("engine run");
                assert_eq!(
                    (
                        engine.max_error().to_bits(),
                        engine.pick_witness(rec.partition(), alpha)
                    ),
                    answer,
                    "directed={directed} {storage:?}"
                );
            }
            run.resolve_pending();
            assert_eq!(
                pending,
                layouts.map(|layout| encode(&run, layout)),
                "directed={directed} {storage:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed trace schedules: random storage mode, thread count,
    /// direction, round count and churn sizes — every recovery must be
    /// byte-identical to the live stack.
    #[test]
    fn fuzzed_traces_roundtrip(
        seed in any::<u64>(),
        storage_idx in 0usize..3,
        threads_idx in 0usize..2,
        directed in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let storage = [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto][storage_idx];
        let threads = [1usize, 4][threads_idx];
        roundtrip_trace(storage, threads, directed, seed, rounds, Layout::Packed);
    }

    /// The same fuzzed schedules against version-4 mapped checkpoints:
    /// recovery borrows the large columns from the map instead of
    /// decoding, and must remain byte-identical to the live stack.
    #[test]
    fn fuzzed_traces_roundtrip_mapped(
        seed in any::<u64>(),
        storage_idx in 0usize..3,
        threads_idx in 0usize..2,
        directed in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let storage = [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto][storage_idx];
        let threads = [1usize, 4][threads_idx];
        roundtrip_trace(storage, threads, directed, seed, rounds, Layout::MappedRaw);
    }
}
