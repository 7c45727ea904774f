//! Storage-mode equivalence suite: `Sparse == Dense == Auto`, bit for bit.
//!
//! The incremental engine's accumulator storage (`RothkoConfig::storage` /
//! `IncrementalDegrees::new_with_storage`) is a pure representation choice
//! — dense `n × k` matrices vs tiered sparse rows must never change a
//! single observable bit. This suite pins that over mixed
//! split/merge/node-churn/edge-batch traces on dense and symmetric random
//! graphs, at threads 1 and 4 (with parallel thresholds forced down so the
//! multi-shard apply/rescan/axis paths actually run): colorings, witness
//! sequences, q-error bits, q-reports and reduced emissions all compared
//! across every storage mode × thread count combination. Within a storage
//! mode, whole engine states — snapshot plus live pair summaries,
//! extremum attainers included — must also match across shard counts,
//! and a digest of those states taken after every operation is pinned to
//! a recorded constant per (directedness, storage mode), so a change that
//! moves attainers or nonzero counts in every mode alike still fails.
//! Weights are multiples of 0.5 so all sums are exact and equalities can
//! be required bit-for-bit.

use qsc_core::q_error::{IncrementalDegrees, RowsSnapshot};
use qsc_core::reduced::quotient_matrix;
use qsc_core::rothko::{Rothko, RothkoConfig};
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

/// Random edge insert/delete/reweight batch against a live `GraphDelta`.
fn churn_batch(
    delta: &mut GraphDelta,
    edges: &mut Vec<(u32, u32)>,
    rng: &mut StdRng,
    ops: usize,
) -> Vec<EdgeEvent> {
    let n = delta.num_nodes();
    for _ in 0..ops {
        match rng.random_range(0..3u32) {
            0 => {
                for _ in 0..20 {
                    let u = rng.random_range(0..n) as u32;
                    let v = rng.random_range(0..n) as u32;
                    if !delta.has_edge(u, v) {
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
                delta.delete_edge(u, v).unwrap();
            }
            _ => {
                if edges.is_empty() {
                    continue;
                }
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges[i];
                let w = (rng.random_range(1u32..9) as f64) * 0.5;
                delta.reweight_edge(u, v, w).unwrap();
            }
        }
    }
    delta.drain_events()
}

/// Split a random color of `p` (same rule as the dynamic-graph suite).
fn random_split(p: &mut Partition, rng: &mut StdRng) -> Option<qsc_core::SplitEvent> {
    let k = p.num_colors();
    let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
    let &c = candidates.as_slice().choose(rng)?;
    let members: Vec<u32> = p.members(c).to_vec();
    let pivot = members[rng.random_range(0..members.len())];
    p.split_color(c, |v| v >= pivot && v != members[0])
}

/// Engine variants per storage mode over one graph + partition, the
/// mode's default threads-1 engine first: threads 1, 3 and 4 with the
/// parallel thresholds forced down, so every phase (apply, entry
/// rescans, axis rebuilds) runs chunked — as one shard over many chunks,
/// an uneven shard count, and the four-shard case.
fn engine_variants(g: &Graph, p: &Partition) -> Vec<(String, IncrementalDegrees)> {
    let mut out = Vec::new();
    for mode in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
        for (threads, forced) in [(1usize, false), (1, true), (3, true), (4, true)] {
            let mut e = IncrementalDegrees::new_with_storage(g, p, threads, mode, p.num_colors());
            if forced {
                e.set_parallel_thresholds(1, 1);
            }
            let tag = if forced { "/forced" } else { "" };
            out.push((format!("{mode:?}/t{threads}{tag}"), e));
        }
    }
    out
}

/// Every field of an engine's snapshot, `f64` values as raw bits, then
/// its live pair summaries in the column order snapshots once carried
/// them: mins and maxes, extremum attainers (only when `attainers`),
/// nonzero counts. The summaries are read off a clone with every pending
/// entry resolved, so the engine itself keeps its pending entries into
/// the next event.
fn snapshot_bits(e: &IncrementalDegrees, p: &Partition, attainers: bool) -> Vec<Vec<u64>> {
    fn f(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    fn u(v: &[u32]) -> Vec<u64> {
        v.iter().map(|&x| u64::from(x)).collect()
    }
    fn rows(r: &RowsSnapshot) -> Vec<Vec<u64>> {
        vec![
            r.offsets.iter().map(|&o| o as u64).collect(),
            u(&r.colors),
            f(&r.weights),
            r.dense.iter().map(|&d| u64::from(d)).collect(),
        ]
    }
    let mut e = e.clone();
    e.resolve_pending(p);
    let s = e.snapshot();
    // The second and fourth flags stand where the snapshot once recorded
    // summary tracking (always on) and row promotion (always equal to
    // sparse storage); hashing their values keeps the pinned digests.
    let flags = [s.symmetric, true, s.sparse_accum, s.sparse_accum];
    let mut out = vec![
        vec![s.n as u64, s.k as u64, s.last_beta.to_bits()],
        flags.iter().map(|&b| u64::from(b)).collect(),
        f(&s.dout),
        f(&s.din),
    ];
    out.extend(rows(&s.rows_out));
    out.extend(rows(&s.rows_in));
    let (omin, omax, omin_arg, omax_arg, onz) = e.summary_columns(true);
    let (imin, imax, imin_arg, imax_arg, inz) = e.summary_columns(false);
    for v in [omin, omax, imin, imax] {
        out.push(f(&v));
    }
    if attainers {
        for v in [omin_arg, omax_arg, imin_arg, imax_arg] {
            out.push(u(&v));
        }
    }
    out.push(u(&onz));
    out.push(u(&inz));
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold an engine's snapshot and summaries into a running FNV-1a digest:
/// every column's length, then its values, each as 8 little-endian bytes.
fn fold_digest(mut h: u64, e: &IncrementalDegrees, p: &Partition) -> u64 {
    for col in snapshot_bits(e, p, true) {
        for x in std::iter::once(col.len() as u64).chain(col) {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// The engine variants twice: the live engines, which keep their pending
/// entries from event to event, and copies resolved after every event —
/// the state of an engine that rescans each entry when it loses an
/// extremum, extremum attainers included — which the digests read.
struct Variants {
    live: Vec<(String, IncrementalDegrees)>,
    eager: Vec<IncrementalDegrees>,
    digests: Vec<u64>,
}

impl Variants {
    fn new(g: &Graph, p: &Partition) -> Self {
        let live = engine_variants(g, p);
        let eager: Vec<_> = live.iter().map(|(_, e)| e.clone()).collect();
        let mut v = Variants {
            live,
            eager,
            digests: Vec::new(),
        };
        v.digests = vec![FNV_OFFSET; v.eager.len()];
        v.fold(p);
        v
    }

    /// Apply one event to every engine, resolve the eager copies, and
    /// fold their states into the digests.
    fn apply(&mut self, p: &Partition, event: impl Fn(&mut IncrementalDegrees)) {
        for (_, e) in &mut self.live {
            event(e);
        }
        for e in &mut self.eager {
            event(e);
            e.resolve_pending(p);
        }
        self.fold(p);
    }

    fn fold(&mut self, p: &Partition) {
        for (e, h) in self.eager.iter().zip(self.digests.iter_mut()) {
            *h = fold_digest(*h, e, p);
        }
    }
}

/// Digest of the whole operation trace of
/// `engine_storage_modes_bit_identical_under_mixed_churn`, per
/// (directed, storage mode). `Auto` resolves dense on these 60-node
/// graphs, so it shares the dense constant.
fn pinned_digest(directed: bool, name: &str) -> u64 {
    let sparse = name.starts_with("Sparse");
    match (directed, sparse) {
        (false, false) => 0xcad2_f02c_e647_d873,
        (false, true) => 0x4fda_de93_3b43_aaa8,
        (true, false) => 0xcae6_f3eb_63e4_ab7d,
        (true, true) => 0xb62b_1637_15c1_a2f9,
    }
}

#[test]
fn engine_storage_modes_bit_identical_under_mixed_churn() {
    for (directed, seed) in [(false, 9u64), (true, 29)] {
        let g = random_graph(60, 260, directed, seed);
        let mut p = Partition::unit(60);
        let mut variants = Variants::new(&g, &p);
        let mut node_rng = StdRng::seed_from_u64(seed ^ 0x0DE5);
        let mut delta = GraphDelta::new(g);
        let mut edges: Vec<(u32, u32)> = delta
            .base()
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51a5);
        let mut current = delta.compact();
        for round in 0..6 {
            // Two random splits...
            for _ in 0..2 {
                if let Some(ev) = random_split(&mut p, &mut rng) {
                    variants.apply(&p, |e| e.apply_split(&current, &p, &ev));
                }
            }
            // ...an occasional merge (the relabel-last path) once enough
            // colors exist...
            if p.num_colors() >= 4 && round % 2 == 1 {
                let k = p.num_colors() as u32;
                let loser = rng.random_range(1..k);
                let winner = rng.random_range(0..loser);
                let ev = p.merge_colors(winner, loser);
                variants.apply(&p, |e| e.apply_merge(&current, &p, &ev));
            }
            // ...an edge batch...
            let events = churn_batch(&mut delta, &mut edges, &mut rng, 14);
            variants.apply(&p, |e| e.apply_edge_batch(&p, &events));
            current = delta.compact();
            // ...and every other round node churn, driven through the
            // engine calls `RothkoRun::apply_node_batch` makes.
            if round % 2 == 0 {
                let (batch, compacted) =
                    qsc_bench::random_node_churn(&mut delta, &p, &mut node_rng, 3, 2, 3, |rng| {
                        (rng.random_range(1u32..9) as f64) * 0.5
                    });
                let first = p.num_nodes() as u32;
                for &c in &batch.inserted_colors {
                    p.insert_node(c);
                }
                variants.apply(&p, |e| {
                    e.apply_node_inserts(&p, first, &batch.inserted_colors)
                });
                variants.apply(&p, |e| e.apply_edge_batch(&p, &batch.edge_events));
                let removed_colors: Vec<u32> =
                    batch.removed.iter().map(|&v| p.color_of(v)).collect();
                p.apply_node_remap(&batch.remap);
                variants.apply(&p, |e| {
                    e.apply_node_removals(&p, &batch.remap, &removed_colors)
                });
                edges = delta
                    .base()
                    .edges()
                    .iter()
                    .map(|&(u, v, _)| (u, v))
                    .collect();
                current = compacted;
            }
            // Every variant verifies against a fresh recomputation...
            let engines = &mut variants.live;
            for (name, e) in engines.iter() {
                assert_eq!(
                    e.verify_against(&current, &p),
                    Ok(()),
                    "round {round}: {name} diverged from scratch"
                );
            }
            // ...every engine's full state, extremum attainers included,
            // is bit-identical to its storage mode's default engine...
            let states: Vec<_> = engines
                .iter()
                .map(|(_, e)| snapshot_bits(e, &p, true))
                .collect();
            for ((name, _), state) in engines.iter().zip(&states) {
                let r = engines
                    .iter()
                    .position(|(n, _)| n.split('/').next() == name.split('/').next())
                    .expect("each mode lists its default engine first");
                assert_eq!(
                    state, &states[r],
                    "round {round}: snapshot {name} vs {}",
                    engines[r].0
                );
            }
            // ...and every observable is bit-identical across variants,
            // the coarsening candidates (unpruned and at a band that
            // prunes) and the scan's work counters included. The witness
            // readers run on the engines themselves, pending entries and
            // all; the readers of every entry on resolved clones. (The
            // eager copies refresh too: the β they last saw is state.)
            for e in &mut variants.eager {
                e.refresh(&p, 1.0);
            }
            let merges: Vec<_> = engines
                .iter_mut()
                .map(|(_, e)| {
                    e.refresh(&p, 1.0);
                    let band = e.max_error() * 0.5;
                    let mut r = e.clone();
                    r.resolve_pending(&p);
                    let lists = [r.merge_candidates(f64::INFINITY), r.merge_candidates(band)];
                    (lists, *r.counters(), r.q_report())
                })
                .collect();
            let (ref_name, reference) = &engines[0];
            let max_bits = reference.max_error().to_bits();
            let witness = reference.pick_witness(&p, 1.0);
            for ((name, e), merge) in engines.iter().zip(&merges).skip(1) {
                assert_eq!(
                    e.max_error().to_bits(),
                    max_bits,
                    "round {round}: max_error bits {name} vs {ref_name}"
                );
                assert_eq!(
                    e.pick_witness(&p, 1.0),
                    witness,
                    "round {round}: witness {name} vs {ref_name}"
                );
                assert_eq!(
                    merge, &merges[0],
                    "round {round}: merge candidates and q_report {name} vs {ref_name}"
                );
            }
        }
        for ((name, _), &h) in variants.live.iter().zip(&variants.digests) {
            assert_eq!(
                h,
                pinned_digest(directed, name),
                "state digest of {name} (directed={directed}): {h:#018x}"
            );
        }
    }
}

#[test]
fn maintained_runs_agree_across_storage_modes() {
    // Full-stack equivalence: RothkoRun (splits + coarsening merges +
    // node/edge churn + maintenance) replayed once per storage mode ×
    // thread count. Colorings, split sequences, error bits and the reduced
    // emission must agree with the Dense/threads-1 reference at every
    // round.
    for (directed, seed) in [(false, 13u64), (true, 43)] {
        // (label, per-round assignments, per-round error bits, per-round q).
        type Trace = (String, Vec<Vec<u32>>, Vec<u64>, Vec<f64>);
        let mut traces: Vec<Trace> = Vec::new();
        for mode in [StorageMode::Dense, StorageMode::Sparse, StorageMode::Auto] {
            for threads in [1usize, 4] {
                let g = random_graph(110, 480, directed, seed);
                let config = RothkoConfig {
                    max_colors: 55,
                    target_error: 3.0,
                    threads: Some(threads),
                    coarsen: true,
                    storage: mode,
                    ..Default::default()
                };
                let mut run = Rothko::new(config).start(&g);
                run.maintain();
                let mut delta = GraphDelta::new(g.clone());
                let mut edges: Vec<(u32, u32)> = delta
                    .base()
                    .edges()
                    .iter()
                    .map(|&(u, v, _)| (u, v))
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xfade);
                let mut node_rng = StdRng::seed_from_u64(seed ^ 0x0DE5);
                let mut assignments = Vec::new();
                let mut error_bits = Vec::new();
                for round in 0..4 {
                    if round % 2 == 0 {
                        let events = churn_batch(&mut delta, &mut edges, &mut rng, 16);
                        let compacted = delta.compact();
                        run.apply_edge_batch(compacted, &events);
                    } else {
                        let (batch, compacted) = qsc_bench::random_node_churn(
                            &mut delta,
                            run.partition(),
                            &mut node_rng,
                            4,
                            3,
                            3,
                            |rng| (rng.random_range(1u32..9) as f64) * 0.5,
                        );
                        edges = delta
                            .base()
                            .edges()
                            .iter()
                            .map(|&(u, v, _)| (u, v))
                            .collect();
                        run.apply_node_batch(compacted, &batch);
                    }
                    run.maintain();
                    assignments.push(run.partition().canonical_assignment());
                    error_bits.push(run.exact_max_error().to_bits());
                }
                // Reduced emission from the final coloring: equal colorings
                // force equal quotient matrices, which we also pin directly.
                let compacted = delta.compact();
                let q = quotient_matrix(&compacted, run.partition());
                traces.push((format!("{mode:?}/t{threads}"), assignments, error_bits, q));
            }
        }
        let (ref_name, ref_assignments, ref_bits, ref_q) = traces[0].clone();
        for (name, assignments, bits, q) in traces.iter().skip(1) {
            assert_eq!(
                assignments, &ref_assignments,
                "colorings diverged: {name} vs {ref_name} (directed={directed})"
            );
            assert_eq!(
                bits, &ref_bits,
                "error bits diverged: {name} vs {ref_name} (directed={directed})"
            );
            assert_eq!(
                q, &ref_q,
                "reduced emission diverged: {name} vs {ref_name} (directed={directed})"
            );
        }
    }
}

#[test]
fn sparse_engine_capacity_growth_matches_dense() {
    // Long split sequences exercise `ensure_capacity`'s geometric regrowth
    // (dense restride vs sparse no-op) — refine all the way to the discrete
    // partition and compare every observable at each step.
    let g = random_graph(48, 200, false, 77);
    let mut p = Partition::unit(48);
    let mut dense = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Dense, 1);
    let mut sparse = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 1);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    while let Some(ev) = random_split(&mut p, &mut rng) {
        dense.apply_split(&g, &p, &ev);
        sparse.apply_split(&g, &p, &ev);
        dense.refresh(&p, 0.0);
        sparse.refresh(&p, 0.0);
        assert_eq!(dense.max_error().to_bits(), sparse.max_error().to_bits());
        assert_eq!(dense.pick_witness(&p, 0.0), sparse.pick_witness(&p, 0.0));
    }
    assert_eq!(p.num_colors(), 48);
    assert_eq!(dense.verify_against(&g, &p), Ok(()));
    assert_eq!(sparse.verify_against(&g, &p), Ok(()));
}

/// One node-churn batch against both engines, in the order
/// `RothkoRun::apply_node_batch` uses: `inserts` fresh nodes (each wired to
/// two random live nodes and colored like the first), then `victims`
/// removed. Returns the renumbered graph. The dense engine's inserted rows
/// must read exactly `0.0` before the wiring edge batch lands, in every
/// live column and direction: they are the plane's slack, possibly
/// vacated by an earlier compaction.
fn node_round(
    delta: &mut GraphDelta,
    p: &mut Partition,
    engines: &mut [&mut IncrementalDegrees; 2],
    rng: &mut StdRng,
    inserts: usize,
    victims: &[u32],
) -> Graph {
    let n0 = delta.num_nodes();
    let mut colors = Vec::new();
    for _ in 0..inserts {
        let v = delta.insert_node();
        let (mut color, mut wired) = (None, 0);
        while wired < 2 {
            let t = rng.random_range(0..n0) as u32;
            if delta.is_live(t) && !delta.has_edge(v, t) {
                delta.insert_edge(v, t, 1.5).unwrap();
                color.get_or_insert(p.color_of(t));
                wired += 1;
            }
        }
        colors.push(color.unwrap());
    }
    for &v in victims {
        delta.remove_node(v).unwrap();
    }
    let events = delta.drain_events();
    delta.drain_node_events();
    let (compacted, remap) = delta.compact_renumber();
    let first = p.num_nodes() as u32;
    for &c in &colors {
        p.insert_node(c);
    }
    for e in engines.iter_mut() {
        e.apply_node_inserts(p, first, &colors);
    }
    let dense = &engines[0];
    for v in first..p.num_nodes() as u32 {
        for j in 0..p.num_colors() as u32 {
            assert_eq!(dense.out_degree_of(v, j).to_bits(), 0, "slack ({v}, {j})");
            assert_eq!(dense.in_degree_of(v, j).to_bits(), 0, "slack ({v}, {j})");
        }
    }
    for e in engines.iter_mut() {
        e.apply_edge_batch(p, &events);
    }
    let removed_colors: Vec<u32> = victims.iter().map(|&v| p.color_of(v)).collect();
    p.apply_node_remap(&remap);
    for e in engines.iter_mut() {
        e.apply_node_removals(p, &remap, &removed_colors);
    }
    compacted
}

/// The dense engine equals the sparse one: both verify against a fresh
/// recomputation (pending entries as bounds), the dense planes equal the
/// sparse rows expanded, the pair-summary values and nonzero counts are
/// bit-identical once resolved (on clones, so the engines keep their
/// pending entries), and the dense snapshot (transposed out of the
/// color-major plane) restores to an engine with the same snapshot.
fn assert_dense_matches_sparse(
    dense: &IncrementalDegrees,
    sparse: &IncrementalDegrees,
    g: &Graph,
    p: &Partition,
    step: &str,
) {
    assert_eq!(dense.verify_against(g, p), Ok(()), "{step}: dense");
    assert_eq!(sparse.verify_against(g, p), Ok(()), "{step}: sparse");
    let (mut dense, mut sparse) = (dense.clone(), sparse.clone());
    dense.resolve_pending(p);
    sparse.resolve_pending(p);
    let (d, s) = (dense.snapshot(), sparse.snapshot());
    assert_eq!((d.n, d.k), (s.n, s.k), "{step}");
    assert!(!d.sparse_accum && s.sparse_accum);
    let expand = |rows: &RowsSnapshot| {
        if !rows.is_present() {
            return Vec::new();
        }
        let mut plane = vec![0.0f64; s.n * s.k];
        for v in 0..s.n {
            for e in rows.offsets[v]..rows.offsets[v + 1] {
                plane[v * s.k + rows.colors[e] as usize] = rows.weights[e];
            }
        }
        plane
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&d.dout), bits(&expand(&s.rows_out)), "{step}: dout");
    assert_eq!(bits(&d.din), bits(&expand(&s.rows_in)), "{step}: din");
    for outgoing in [true, false] {
        let (dmin, dmax, _, _, dnz) = dense.summary_columns(outgoing);
        let (smin, smax, _, _, snz) = sparse.summary_columns(outgoing);
        assert_eq!(bits(&dmin), bits(&smin), "{step}: summaries");
        assert_eq!(bits(&dmax), bits(&smax), "{step}: summaries");
        assert_eq!(dnz, snz, "{step}: nz");
    }
    // A restore folds its summaries afresh: values and nonzero counts
    // match, attainers are first attainers and need not.
    let restored = IncrementalDegrees::from_snapshot(&d, p, 1);
    assert_eq!(restored.verify_against(g, p), Ok(()), "{step}: restored");
    assert_eq!(
        snapshot_bits(&restored, p, false),
        snapshot_bits(&dense, p, false),
        "{step}: snapshot round trip"
    );
}

#[test]
fn dense_plane_node_and_color_growth_match_sparse() {
    // The dense plane is color-major with node slack (`n ≤ ncap`): appends
    // past the slack regrow it (40 → 43 → 55 → 66 nodes crosses the
    // node capacity three times: 40, 50, 62), compactions move survivors
    // down each column and zero the vacated tail, a re-append lands on
    // that tail, and a color-capacity growth appends columns while
    // `n < ncap`. Every step must match a sparse engine bit for bit.
    for (directed, seed) in [(false, 41u64), (true, 43)] {
        let g = random_graph(40, 170, directed, seed);
        let mut p = Partition::unit(40);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC01);
        let mut dense = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Dense, 1);
        let mut sparse = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 1);
        let mut delta = GraphDelta::new(g);
        let mut current = delta.compact();
        for _ in 0..4 {
            let ev = random_split(&mut p, &mut rng).expect("splittable color");
            dense.apply_split(&current, &p, &ev);
            sparse.apply_split(&current, &p, &ev);
        }
        assert_dense_matches_sparse(&dense, &sparse, &current, &p, "splits");
        let steps: [(usize, &[u32], &str); 6] = [
            (3, &[], "first append past the node capacity"),
            (12, &[], "second append past it"),
            (11, &[], "third append past it"),
            (0, &[7, 8, 30], "removals in the middle"),
            (0, &[62], "removal at the tail"),
            (2, &[], "re-append onto the vacated tail"),
        ];
        for (inserts, victims, step) in steps {
            let mut engines = [&mut dense, &mut sparse];
            current = node_round(&mut delta, &mut p, &mut engines, &mut rng, inserts, victims);
            assert_dense_matches_sparse(&dense, &sparse, &current, &p, step);
        }
        assert_eq!(p.num_nodes(), 64);
        // Color capacity 8 → 64 while the plane holds node slack, then
        // splits that use the appended columns.
        dense.reserve_colors(40);
        sparse.reserve_colors(40);
        assert_dense_matches_sparse(&dense, &sparse, &current, &p, "color capacity");
        for _ in 0..12 {
            let ev = random_split(&mut p, &mut rng).expect("splittable color");
            dense.apply_split(&current, &p, &ev);
            sparse.apply_split(&current, &p, &ev);
        }
        assert!(p.num_colors() > 8);
        assert_dense_matches_sparse(&dense, &sparse, &current, &p, "splits past capacity");
    }
}
