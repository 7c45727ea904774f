//! Randomized churn equivalence suite for the dynamic-graph maintenance
//! path.
//!
//! Interleaved edge insert/delete/reweight batches flow through
//! `GraphDelta` → `IncrementalDegrees::apply_edge_batch` /
//! `ReducedDelta::apply_edge_batch` / `RothkoRun::apply_edge_batch`, and
//! every maintained state is compared against a from-scratch recomputation
//! on the **compacted** graph: `DegreeMatrices` + fresh accumulators
//! (`verify_against`), fresh `RothkoRun`s resumed from the same coloring,
//! and the dense re-emitted reduced instance. Weights are multiples of 0.5
//! so all sums are exact and equalities are required bit-for-bit, across
//! dense / sparse / symmetric engine modes and thread counts 1 and 4.

use qsc_core::q_error::{Counters, IncrementalDegrees};
use qsc_core::reduced::{quotient_matrix, PatchedReducedGraph, ReducedDelta, ReducedSnapshot};
use qsc_core::rothko::{NodeChurnBatch, Rothko, RothkoConfig};
use qsc_core::sweep::ColoringSweep;
use qsc_core::{Partition, StorageMode};
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{Graph, GraphBuilder, GraphDelta};
use rand::prelude::*;

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

/// Tracks the live edge set alongside a `GraphDelta` so random deletes and
/// reweights can pick existing edges.
struct Churner {
    delta: GraphDelta,
    edges: Vec<(u32, u32)>,
    rng: StdRng,
}

impl Churner {
    fn new(g: Graph, seed: u64) -> Self {
        let edges: Vec<(u32, u32)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        Churner {
            delta: GraphDelta::new(g),
            edges,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Apply `ops` random insert/delete/reweight mutations and return the
    /// drained event batch.
    fn batch(&mut self, ops: usize) -> Vec<EdgeEvent> {
        let n = self.delta.num_nodes();
        for _ in 0..ops {
            match self.rng.random_range(0..3u32) {
                0 => {
                    // Insert a fresh edge (occasionally a self-loop).
                    for _ in 0..20 {
                        let u = self.rng.random_range(0..n) as u32;
                        let v = if self.rng.random_range(0..8u32) == 0 {
                            u
                        } else {
                            self.rng.random_range(0..n) as u32
                        };
                        if !self.delta.has_edge(u, v) {
                            let w = (self.rng.random_range(1u32..9) as f64) * 0.5;
                            self.delta.insert_edge(u, v, w).unwrap();
                            self.edges.push((u, v));
                            break;
                        }
                    }
                }
                1 => {
                    if self.edges.is_empty() {
                        continue;
                    }
                    let i = self.rng.random_range(0..self.edges.len());
                    let (u, v) = self.edges.swap_remove(i);
                    self.delta.delete_edge(u, v).unwrap();
                }
                _ => {
                    if self.edges.is_empty() {
                        continue;
                    }
                    let i = self.rng.random_range(0..self.edges.len());
                    let (u, v) = self.edges[i];
                    let w = (self.rng.random_range(1u32..9) as f64) * 0.5;
                    self.delta.reweight_edge(u, v, w).unwrap();
                }
            }
        }
        self.delta.drain_events()
    }
}

/// Split a random color of `p`, mirroring the split into every engine via
/// the returned event.
fn random_split(p: &mut Partition, rng: &mut StdRng) -> Option<qsc_core::SplitEvent> {
    let k = p.num_colors();
    let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
    let &c = candidates.as_slice().choose(rng)?;
    let members: Vec<u32> = p.members(c).to_vec();
    let pivot = members[rng.random_range(0..members.len())];
    p.split_color(c, |v| v >= pivot && v != members[0])
}

/// The exact-value view of an engine's pair summaries: per direction, the
/// min and max bits and the nonzero counts, read once every pending entry
/// is resolved (on a clone, so the engine itself keeps its pending entries
/// into the next round).
fn resolved_summaries(e: &IncrementalDegrees, p: &Partition) -> Vec<Vec<u64>> {
    let mut e = e.clone();
    e.resolve_pending(p);
    let mut out = Vec::new();
    for outgoing in [true, false] {
        let (min, max, _, _, nz) = e.summary_columns(outgoing);
        out.push(min.iter().map(|x| x.to_bits()).collect());
        out.push(max.iter().map(|x| x.to_bits()).collect());
        out.push(nz.iter().map(|&c| u64::from(c)).collect());
    }
    out
}

/// `g` over `n` node ids with node `v` renamed `id(v)`: the graphs a node
/// churn batch passes through before its renumbering.
fn renamed(g: &Graph, n: usize, id: impl Fn(u32) -> u32) -> Graph {
    let mut b = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for (u, v, w) in g.edges() {
        b.add_edge(id(u), id(v), w);
    }
    b.build()
}

/// Whether `e` holds a pending entry: resolving a clone resolves some.
fn has_pending(e: &IncrementalDegrees, p: &Partition) -> bool {
    let mut e = e.clone();
    let before = e.counters().pending_resolved;
    e.resolve_pending(p);
    e.counters().pending_resolved > before
}

#[test]
fn engine_churn_matches_scratch_across_modes_and_threads() {
    for (directed, seed) in [(false, 5u64), (true, 23)] {
        let g = random_graph(60, 260, directed, seed);
        let mut p = Partition::unit(60);
        // Per storage mode, threads 1 and a forced four-shard engine (so
        // the sharded refresh resolutions run on every pass).
        let mut engines: Vec<(String, IncrementalDegrees)> = Vec::new();
        for mode in [StorageMode::Dense, StorageMode::Sparse] {
            for threads in [1usize, 4] {
                let mut e = IncrementalDegrees::new_with_storage(&g, &p, threads, mode, 0);
                if threads > 1 {
                    e.set_parallel_thresholds(1, 1);
                }
                engines.push((format!("{mode:?}/t{threads}"), e));
            }
        }
        let mut churner = Churner::new(g, seed ^ 0xc0ffee);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut node_rng = StdRng::seed_from_u64(seed ^ 0x0de5);
        let mut current = churner.delta.compact();
        let mut counters = Counters::default();
        // Events that found an entry pending: node inserts, node removals,
        // merges.
        let mut met_pending = [false; 3];
        let verify =
            |engines: &[(String, IncrementalDegrees)], g: &Graph, p: &Partition, at: &str| {
                for (name, e) in engines {
                    assert_eq!(e.verify_against(g, p), Ok(()), "{at}: {name}");
                }
            };
        for round in 0..8 {
            // A couple of splits between batches keeps the interleaving
            // honest (churn over a refined coloring, not just k = 1).
            for _ in 0..2 {
                if let Some(ev) = random_split(&mut p, &mut rng) {
                    for (_, e) in &mut engines {
                        e.apply_split(&current, &p, &ev);
                    }
                }
            }
            verify(&engines, &current, &p, &format!("round {round} splits"));
            // Every other round node churn, through the engine calls
            // `RothkoRun::apply_node_batch` makes, each checked against
            // the graph it leaves with the entries still pending.
            if round % 2 == 0 {
                let (batch, compacted) = qsc_bench::random_node_churn(
                    &mut churner.delta,
                    &p,
                    &mut node_rng,
                    3,
                    2,
                    3,
                    |rng| (rng.random_range(1u32..9) as f64) * 0.5,
                );
                let first = p.num_nodes() as u32;
                met_pending[0] |= has_pending(&engines[0].1, &p);
                for &c in &batch.inserted_colors {
                    p.insert_node(c);
                }
                for (_, e) in &mut engines {
                    e.apply_node_inserts(&p, first, &batch.inserted_colors);
                }
                let grown = renamed(&current, p.num_nodes(), |v| v);
                verify(&engines, &grown, &p, &format!("round {round} inserts"));
                for (_, e) in &mut engines {
                    e.apply_edge_batch(&p, &batch.edge_events);
                }
                let mut old_of = vec![0u32; batch.remap.new_len()];
                for v in 0..batch.remap.old_len() as u32 {
                    if let Some(w) = batch.remap.map(v) {
                        old_of[w as usize] = v;
                    }
                }
                let wired = renamed(&compacted, p.num_nodes(), |v| old_of[v as usize]);
                verify(&engines, &wired, &p, &format!("round {round} node edges"));
                let removed_colors: Vec<u32> =
                    batch.removed.iter().map(|&v| p.color_of(v)).collect();
                met_pending[1] |= has_pending(&engines[0].1, &p);
                p.apply_node_remap(&batch.remap);
                for (_, e) in &mut engines {
                    e.apply_node_removals(&p, &batch.remap, &removed_colors);
                }
                verify(&engines, &compacted, &p, &format!("round {round} removals"));
                churner.edges = compacted.edges().iter().map(|&(u, v, _)| (u, v)).collect();
            } else if p.num_colors() >= 4 {
                // ...or a merge (the relabel-last path, which moves
                // pending entries), which leaves nothing pending.
                let k = p.num_colors() as u32;
                let loser = rng.random_range(1..k);
                let winner = rng.random_range(0..loser);
                met_pending[2] |= has_pending(&engines[0].1, &p);
                let ev = p.merge_colors(winner, loser);
                for (_, e) in &mut engines {
                    e.apply_merge(&current, &p, &ev);
                    assert!(
                        !has_pending(e, &p),
                        "round {round}: merge left entries pending"
                    );
                }
                verify(&engines, &current, &p, &format!("round {round} merge"));
            }
            let events = churner.batch(14);
            for (_, e) in &mut engines {
                e.apply_edge_batch(&p, &events);
            }
            current = churner.delta.compact();
            verify(&engines, &current, &p, &format!("round {round} edges"));
            // Witness state: bit-identical across modes and thread counts
            // and to a freshly built engine on the compacted graph, with
            // the entries no witness decision needed still pending.
            let mut fresh = IncrementalDegrees::new(&current, &p);
            for beta in [0.0, 1.0] {
                fresh.refresh(&p, beta);
                for (name, e) in &mut engines {
                    e.refresh(&p, beta);
                    assert_eq!(
                        e.max_error().to_bits(),
                        fresh.max_error().to_bits(),
                        "round {round} beta {beta}: {name}"
                    );
                    for alpha in [0.0, 1.0] {
                        assert_eq!(
                            e.pick_witness(&p, alpha),
                            fresh.pick_witness(&p, alpha),
                            "round {round} beta {beta} alpha {alpha}: {name}"
                        );
                    }
                    assert_eq!(
                        e.pick_witnesses(&p, 1.0, 3),
                        fresh.pick_witnesses(&p, 1.0, 3),
                        "round {round} beta {beta}: {name}"
                    );
                }
            }
            // Resolved, every summary value and count is the fresh one.
            let expected = resolved_summaries(&fresh, &p);
            for (name, e) in &engines {
                assert_eq!(resolved_summaries(e, &p), expected, "round {round}: {name}");
            }
            // Work counters are equal across thread counts within a
            // storage mode (attainers, and so rescans, differ across
            // modes).
            for pair in engines.chunks(2) {
                assert_eq!(
                    pair[0].1.counters(),
                    pair[1].1.counters(),
                    "round {round}: {} vs {}",
                    pair[0].0,
                    pair[1].0
                );
            }
            counters = *engines[0].1.counters();
        }
        // Refreshes resolved some entries and left others pending, and
        // node inserts, node removals and merges each met pending entries.
        assert_eq!(met_pending, [true; 3], "directed={directed}");
        assert!(counters.pending_resolved > 0, "{counters:?}");
        assert!(
            counters.pending_resolved < counters.extremes_deferred,
            "{counters:?}"
        );
    }
}

#[test]
fn maintained_run_equals_fresh_run_on_compacted_graph() {
    for (directed, seed) in [(false, 11u64), (true, 41)] {
        // The same churn schedule replayed at both thread counts: the
        // maintained colorings must match a fresh run resumed from the
        // pre-batch coloring on the compacted graph — and each other —
        // bit-for-bit, at every round.
        let mut per_thread: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 4] {
            let g = random_graph(120, 520, directed, seed);
            let config = RothkoConfig {
                max_colors: 60,
                target_error: 3.0,
                threads: Some(threads),
                ..Default::default()
            };
            let mut run = Rothko::new(config.clone()).start(&g);
            run.maintain();
            let mut churner = Churner::new(g.clone(), seed ^ 0xfeed);
            let mut assignments = Vec::new();
            for round in 0..4 {
                let events = churner.batch(16);
                let compacted = churner.delta.compact();
                run.apply_edge_batch(compacted.clone(), &events);
                let before = run.partition().clone();
                let splits = run.maintain();
                // The (q, k) invariant holds again unless the color budget
                // is exhausted.
                let err = run.exact_max_error();
                assert!(
                    err <= 3.0 || run.partition().num_colors() == 60,
                    "round {round}: error {err} above target with colors to spare"
                );
                // A fresh run resumed from the pre-batch coloring on the
                // compacted graph performs the identical splits.
                let fresh_config = RothkoConfig {
                    initial: Some(before),
                    ..config.clone()
                };
                let mut fresh = Rothko::new(fresh_config).start(&compacted);
                let fresh_splits = fresh.maintain();
                assert_eq!(splits, fresh_splits, "round {round} split count");
                assert!(
                    run.partition().same_as(fresh.partition()),
                    "round {round}: maintained coloring differs from fresh run (threads {threads})"
                );
                assert_eq!(
                    run.exact_max_error().to_bits(),
                    fresh.exact_max_error().to_bits()
                );
                assignments.push(run.partition().canonical_assignment());
            }
            per_thread.push(assignments);
        }
        assert_eq!(
            per_thread[0], per_thread[1],
            "thread counts diverged (directed={directed}, seed={seed})"
        );
    }
}

#[test]
fn reduced_delta_and_patched_emission_survive_churn() {
    for (directed, seed) in [(false, 7u64), (true, 31)] {
        let g = random_graph(80, 400, directed, seed);
        let config = RothkoConfig::default();
        let mut sweep = ColoringSweep::new(&g, config);
        let mut delta = ReducedDelta::new(&g, sweep.partition());
        let weighting =
            |i: usize, j: usize, sum: f64, _: usize, _: usize| if i == j { 0.0 } else { sum };
        let mut emitter = PatchedReducedGraph::new(&mut delta, weighting);
        let mut churner = Churner::new(g.clone(), seed ^ 0xabba);
        let mut current = churner.delta.compact();
        for (round, budget) in [6usize, 11, 17, 24].into_iter().enumerate() {
            // Refine toward the next budget in lockstep...
            let graph_for_closure = current.clone();
            sweep.advance_to(budget, |p, ev| delta.apply_split(&graph_for_closure, p, ev));
            // ...then churn the graph and thread the same events through
            // the sweep and the reduction layer.
            let events = churner.batch(12);
            current = churner.delta.compact();
            delta.apply_edge_batch(sweep.partition(), &events);
            sweep.apply_edge_batch(current.clone(), &events);
            assert_eq!(
                delta.verify_against(&current, sweep.partition()),
                Ok(()),
                "round {round}"
            );
            // Exact weights: the maintained quotient matrix is bit-identical.
            assert_eq!(
                delta.quotient_matrix(),
                quotient_matrix(&current, sweep.partition()),
                "round {round}"
            );
            // The patched emission equals the dense re-emission.
            emitter.sync(&mut delta);
            let patched = emitter.to_graph();
            let dense = delta.reduced_graph_with(weighting);
            assert_eq!(patched.num_nodes(), dense.num_nodes(), "round {round}");
            assert_eq!(patched.num_arcs(), dense.num_arcs(), "round {round}");
            let a: Vec<_> = patched.arcs().collect();
            let b: Vec<_> = dense.arcs().collect();
            assert_eq!(a, b, "round {round}");
        }
    }
}

#[test]
fn sparse_engine_churn_keeps_rows_exact() {
    // Sparse-row engines under heavy churn, including full cancellation
    // (delete then re-insert) — rows and pair summaries must stay exactly
    // synchronized.
    for (directed, seed) in [(false, 3u64), (true, 17)] {
        let g = random_graph(50, 200, directed, seed);
        let mut p = Partition::unit(50);
        let mut engine = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut churner = Churner::new(g, seed ^ 0x5eed);
        let mut current = churner.delta.compact();
        for _ in 0..8 {
            if let Some(ev) = random_split(&mut p, &mut rng) {
                engine.apply_split(&current, &p, &ev);
            }
            let events = churner.batch(10);
            engine.apply_edge_batch(&p, &events);
            current = churner.delta.compact();
            assert_eq!(engine.verify_against(&current, &p), Ok(()));
        }
    }
}

/// One round of random node churn with exactly representable edge weights,
/// through the shared driver the dynamic bench also uses
/// ([`qsc_bench::random_node_churn`]).
fn node_churn_round(
    delta: &mut GraphDelta,
    p: &Partition,
    rng: &mut StdRng,
    inserts: usize,
    removes: usize,
    wire: usize,
) -> (NodeChurnBatch, Graph) {
    qsc_bench::random_node_churn(delta, p, rng, inserts, removes, wire, |rng| {
        (rng.random_range(1u32..9) as f64) * 0.5
    })
}

#[test]
fn node_churn_maintained_run_equals_fresh_run() {
    for (directed, seed) in [(false, 19u64), (true, 61)] {
        let mut per_thread: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 4] {
            let g = random_graph(100, 420, directed, seed);
            let config = RothkoConfig {
                max_colors: 50,
                target_error: 3.0,
                threads: Some(threads),
                coarsen: true,
                ..Default::default()
            };
            let mut run = Rothko::new(config.clone()).start(&g);
            run.maintain();
            let mut delta = GraphDelta::new(g.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE5);
            let mut assignments = Vec::new();
            for round in 0..4 {
                let (batch, compacted) =
                    node_churn_round(&mut delta, run.partition(), &mut rng, 4, 3, 3);
                run.apply_node_batch(compacted.clone(), &batch);
                let checkpoint = run.partition().clone();
                let ops = run.maintain();
                let err = run.exact_max_error();
                assert!(
                    err <= 3.0 || run.partition().num_colors() == 50,
                    "round {round}: error {err} above target with colors to spare"
                );
                // A fresh run resumed from the post-batch coloring on the
                // compacted graph performs identical operations.
                let fresh_config = RothkoConfig {
                    initial: Some(checkpoint),
                    ..config.clone()
                };
                let mut fresh = Rothko::new(fresh_config).start(&compacted);
                let fresh_ops = fresh.maintain();
                assert_eq!(ops, fresh_ops, "round {round} operation count");
                assert!(
                    run.partition().same_as(fresh.partition()),
                    "round {round}: maintained coloring differs (threads {threads})"
                );
                assignments.push(run.partition().canonical_assignment());
            }
            per_thread.push(assignments);
        }
        assert_eq!(
            per_thread[0], per_thread[1],
            "thread counts diverged (directed={directed}, seed={seed})"
        );
    }
}

#[test]
fn reduced_delta_mirrors_node_churn() {
    // Drive a ReducedDelta (and its patched emitter) through node churn by
    // hand: inserts as size bumps, the edge batch over the grown id space,
    // removals as size drops — the quotient matrix itself is untouched by
    // isolated-node churn, but the size-dependent weightings must follow.
    for (directed, seed) in [(false, 37u64), (true, 71)] {
        let g = random_graph(70, 300, directed, seed);
        let mut p = Partition::unit(70);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEAD);
        for _ in 0..5 {
            random_split(&mut p, &mut rng);
        }
        let mut delta = ReducedDelta::new(&g, &p);
        let weighting =
            |_: usize, _: usize, sum: f64, si: usize, sj: usize| sum / ((si * sj) as f64).sqrt();
        let mut emitter = PatchedReducedGraph::new(&mut delta, weighting);
        let mut gd = GraphDelta::new(g);
        for round in 0..5 {
            let (batch, compacted) = node_churn_round(&mut gd, &p, &mut rng, 3, 2, 3);
            // Mirror into the partition and the reduction layer in batch
            // order: inserts, edges, removals + renumbering.
            for &c in &batch.inserted_colors {
                p.insert_node(c);
                delta.apply_node_insert(c);
            }
            delta.apply_edge_batch(&p, &batch.edge_events);
            for &v in &batch.removed {
                delta.apply_node_removal(p.color_of(v));
            }
            p.apply_node_remap(&batch.remap);
            assert_eq!(
                delta.verify_against(&compacted, &p),
                Ok(()),
                "round {round}"
            );
            emitter.sync(&mut delta);
            let patched = emitter.to_graph();
            let dense = delta.reduced_graph_with(weighting);
            let a: Vec<_> = patched.arcs().collect();
            let b: Vec<_> = dense.arcs().collect();
            assert_eq!(a, b, "round {round}");
        }
    }
}

/// The per-color dirty marking every `ReducedDelta` event has always
/// persisted: first-dirtied order, an edge event marking its endpoint
/// colors, a split its parent and child, a merge its winner, its relabeled
/// loser slot and the old last id, a node event its color.
#[derive(Default)]
struct DirtyModel {
    order: Vec<u32>,
}

impl DirtyModel {
    fn mark(&mut self, c: u32) {
        if !self.order.contains(&c) {
            self.order.push(c);
        }
    }
}

/// Emitted rows with their weights as bits, for bitwise comparison.
fn row_bits<F>(emitter: &PatchedReducedGraph<F>) -> Vec<Vec<(u32, u64)>>
where
    F: Fn(usize, usize, f64, usize, usize) -> f64,
{
    emitter
        .rows()
        .iter()
        .map(|row| row.iter().map(|&(j, w)| (j, w.to_bits())).collect())
        .collect()
}

#[test]
fn pair_granular_emission_equals_fresh_emission() {
    let weighting = |i: usize, j: usize, sum: f64, si: usize, sj: usize| {
        if i == j {
            0.0
        } else {
            sum / ((si * sj) as f64).sqrt()
        }
    };
    let mut cancelled = 0;
    let mut relabeling_merges = 0;
    let mut last_merges = 0;
    let mut restores = 0;
    for (directed, seed) in [(false, 41u64), (true, 43), (false, 47), (true, 53)] {
        let g = random_graph(60, 240, directed, seed);
        let mut p = Partition::unit(60);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCE11);
        for _ in 0..5 {
            random_split(&mut p, &mut rng);
        }
        let mut delta = ReducedDelta::new(&g, &p);
        let mut emitter = PatchedReducedGraph::new(&mut delta, weighting);
        let mut model = DirtyModel::default();
        let mut churner = Churner::new(g, seed ^ 0xF00D);
        let mut current = churner.delta.compact();
        // An edge inserted into an empty color pair, deleted by the next
        // edge batch: the cell cancels back to exactly 0.0.
        let mut to_cancel: Option<(u32, u32)> = None;
        for step in 0..60 {
            let k = p.num_colors() as u32;
            match rng.random_range(0..7u32) {
                0..=2 => {
                    if let Some((u, v)) = to_cancel.take() {
                        churner.delta.delete_edge(u, v).unwrap();
                        churner.edges.retain(|&e| e != (u, v));
                    }
                    let mut events = churner.batch(rng.random_range(1..6usize));
                    if rng.random_range(0..2u32) == 0 {
                        let u = rng.random_range(0..60u32);
                        let v = rng.random_range(0..60u32);
                        let (cu, cv) = (p.color_of(u) as usize, p.color_of(v) as usize);
                        if u != v
                            && !churner.delta.has_edge(u, v)
                            && delta.pair_weight(cu, cv) == 0.0
                            && delta.pair_weight(cv, cu) == 0.0
                        {
                            churner.delta.insert_edge(u, v, 1.5).unwrap();
                            churner.edges.push((u, v));
                            events.extend(churner.delta.drain_events());
                            to_cancel = Some((u, v));
                        }
                    }
                    for ev in &events {
                        model.mark(p.color_of(ev.source));
                        model.mark(p.color_of(ev.target));
                    }
                    current = churner.delta.compact();
                    delta.apply_edge_batch(&p, &events);
                    cancelled += events
                        .iter()
                        .filter(|ev| ev.delta < 0.0)
                        .filter(|ev| {
                            let (cu, cv) = (p.color_of(ev.source), p.color_of(ev.target));
                            delta.pair_weight(cu as usize, cv as usize) == 0.0
                        })
                        .count();
                }
                3 => {
                    if let Some(ev) = random_split(&mut p, &mut rng) {
                        delta.apply_split(&current, &p, &ev);
                        model.mark(ev.parent);
                        model.mark(ev.child);
                    }
                }
                4 if k > 3 => {
                    // Alternate the relabel-last case (loser < last) with
                    // merging the last color itself.
                    let loser = if step % 2 == 0 {
                        k - 1
                    } else {
                        rng.random_range(1..k - 1)
                    };
                    let winner = rng.random_range(0..loser);
                    let ev = p.merge_colors(winner, loser);
                    delta.apply_merge(&ev);
                    model.mark(ev.winner);
                    if ev.loser != k - 1 {
                        model.mark(ev.loser);
                        relabeling_merges += 1;
                    } else {
                        last_merges += 1;
                    }
                    model.mark(k - 1);
                }
                _ => {
                    let (batch, compacted) =
                        node_churn_round(&mut churner.delta, &p, &mut rng, 2, 2, 2);
                    for &c in &batch.inserted_colors {
                        p.insert_node(c);
                        delta.apply_node_insert(c);
                        model.mark(c);
                    }
                    delta.apply_edge_batch(&p, &batch.edge_events);
                    for ev in &batch.edge_events {
                        model.mark(p.color_of(ev.source));
                        model.mark(p.color_of(ev.target));
                    }
                    for &v in &batch.removed {
                        let c = p.color_of(v);
                        delta.apply_node_removal(c);
                        model.mark(c);
                    }
                    p.apply_node_remap(&batch.remap);
                    churner.edges = compacted.edges().iter().map(|&(u, v, _)| (u, v)).collect();
                    current = compacted;
                    // Renumbering invalidates the pending cancellation.
                    to_cancel = None;
                }
            }
            assert_eq!(delta.verify_against(&current, &p), Ok(()), "step {step}");
            // Mid-stream snapshot with changes pending: the persisted state
            // is what the per-color marking always wrote, and an emitter on
            // the restored delta emits what the live one does.
            let restored = (rng.random_range(0..4u32) == 0).then(|| {
                let snap = delta.snapshot();
                let k = p.num_colors();
                assert_eq!(
                    snap,
                    ReducedSnapshot {
                        k,
                        sum: delta.quotient_matrix(),
                        sizes: p.sizes(),
                        symmetric: !directed,
                        dirty: model.order.clone(),
                    },
                    "step {step}"
                );
                let mut restored = ReducedDelta::from_snapshot(&snap);
                assert_eq!(restored.snapshot(), snap, "step {step}");
                row_bits(&PatchedReducedGraph::new(&mut restored, weighting))
            });
            if restored.is_some() || rng.random_range(0..2u32) == 0 {
                emitter.sync(&mut delta);
                model.order.clear();
                let fresh = PatchedReducedGraph::new(&mut delta.clone(), weighting);
                assert_eq!(row_bits(&emitter), row_bits(&fresh), "step {step}");
                let (a, b) = (emitter.to_graph(), fresh.to_graph());
                assert!(
                    a.arcs()
                        .map(|(u, v, w)| (u, v, w.to_bits()))
                        .eq(b.arcs().map(|(u, v, w)| (u, v, w.to_bits()))),
                    "step {step}"
                );
                if let Some(rows) = restored {
                    assert_eq!(row_bits(&emitter), rows, "step {step}: restored");
                    restores += 1;
                }
            }
        }
    }
    assert!(cancelled > 0, "no pair cancelled to exactly 0.0");
    assert!(
        relabeling_merges > 0 && last_merges > 0,
        "merge cases missed"
    );
    assert!(restores > 0, "no mid-stream restore");
}

#[test]
fn run_survives_repeated_batches_without_splits() {
    // Batches that do not disturb the error past the target must leave the
    // coloring untouched (maintain performs zero splits) — reweighting an
    // edge to its own weight class keeps everything within target.
    let g = random_graph(80, 300, false, 13);
    let config = RothkoConfig {
        max_colors: usize::MAX,
        target_error: 20.0, // generous: initial coloring already satisfies it
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let colors_before = run.partition().num_colors();
    let mut delta = GraphDelta::new(g.clone());
    delta
        .reweight_edge(
            delta.base().edges()[0].0,
            delta.base().edges()[0].1,
            delta.base().edges()[0].2,
        )
        .unwrap_or(()); // same weight: no event
    delta
        .reweight_edge(delta.base().edges()[1].0, delta.base().edges()[1].1, 0.5)
        .unwrap();
    let events = delta.drain_events();
    let compacted = delta.compact();
    run.apply_edge_batch(compacted, &events);
    let splits = run.maintain();
    assert_eq!(splits, 0, "tiny reweight within target forced splits");
    assert_eq!(run.partition().num_colors(), colors_before);
}
