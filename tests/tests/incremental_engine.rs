//! Seeded-random equivalence suite for the incremental refinement engine:
//! after every split, [`IncrementalDegrees`] must agree with a from-scratch
//! [`DegreeMatrices::compute`], and the engine-driven Rothko must produce
//! exactly the partition the from-scratch reference stepper produces.

use qsc_core::q_error::{DegreeMatrices, IncrementalDegrees};
use qsc_core::rothko::{Rothko, RothkoConfig, SplitMean};
use qsc_core::{stable_coloring, Partition};
use qsc_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Random graph with exactly representable weights (multiples of 0.5), so
/// incremental subtraction and from-scratch summation agree bit-for-bit.
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
            // Weights in {0.5, 1.0, ..., 4.0}.
            let w = (rng.random_range(1u32..9) as f64) * 0.5;
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Apply a sequence of random (but valid) splits, cross-checking the engine
/// against the from-scratch matrices after every one.
fn check_random_splits(g: &Graph, seed: u64) {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let mut p = Partition::unit(n);
    let mut engine = IncrementalDegrees::new(g, &p);
    assert_eq!(engine.verify_against(g, &p), Ok(()));
    for _ in 0..n {
        // Pick a splittable color and eject a random non-trivial subset.
        let k = p.num_colors();
        let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
        let Some(&c) = candidates.as_slice().choose(&mut rng) else {
            break;
        };
        let members: Vec<u32> = p.members(c).to_vec();
        let pivot = members[rng.random_range(0..members.len())];
        let by_parity = rng.random::<bool>();
        let event = if by_parity {
            p.split_color(c, |v| v % 2 == pivot % 2 && v != members[0])
        } else {
            p.split_color(c, |v| v >= pivot && v != members[0])
        };
        let Some(event) = event else { continue };
        engine.apply_split(g, &p, &event);
        assert_eq!(
            engine.verify_against(g, &p),
            Ok(()),
            "engine diverged after splitting color {c} (seed {seed})"
        );
    }
    // Spot-check the error entries against the scratch matrices directly,
    // once the entries the splits left pending are resolved.
    engine.resolve_pending(&p);
    let scratch = DegreeMatrices::compute(g, &p);
    for i in 0..p.num_colors() {
        for j in 0..p.num_colors() {
            assert_eq!(engine.out_error(i, j), scratch.out_error(i, j));
            assert_eq!(engine.in_error(i, j), scratch.in_error(i, j));
        }
    }
}

#[test]
fn engine_matches_scratch_on_random_undirected_graphs() {
    for seed in 0..8 {
        let g = random_graph(60, 240, false, seed);
        check_random_splits(&g, seed);
    }
}

#[test]
fn engine_matches_scratch_on_random_directed_graphs() {
    for seed in 0..8 {
        let g = random_graph(60, 240, true, seed * 31 + 7);
        check_random_splits(&g, seed);
    }
}

#[test]
fn engine_matches_scratch_on_sparse_and_dense_extremes() {
    // Nearly edgeless and nearly complete graphs stress the implicit-zero
    // handling and the touched-count bookkeeping respectively.
    for &(n, m) in &[(40usize, 10usize), (30, 800)] {
        for seed in 0..4 {
            let g = random_graph(n, m, seed % 2 == 0, seed + 100);
            check_random_splits(&g, seed);
        }
    }
}

/// The refactor must not change Rothko's output: the incremental run and
/// the from-scratch reference run share witness selection and split logic,
/// so for exactly representable weights the partitions are identical.
/// Returns the number of colors both runs reached.
fn assert_runs_identical(g: &Graph, config: RothkoConfig, label: &str) -> usize {
    let incremental = Rothko::new(config.clone()).run(g);
    let reference = Rothko::new(config).run_reference(g);
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment(),
        "incremental vs reference partitions diverged: {label}"
    );
    assert_eq!(incremental.iterations, reference.iterations, "{label}");
    assert_eq!(incremental.max_q_error, reference.max_q_error, "{label}");
    incremental.partition.num_colors()
}

#[test]
fn rothko_identical_before_and_after_refactor_fixed_seeds() {
    for seed in [1u64, 7, 23, 101] {
        let g = random_graph(80, 320, seed % 2 == 0, seed);
        assert_runs_identical(&g, RothkoConfig::with_max_colors(16), "max_colors=16");
        assert_runs_identical(&g, RothkoConfig::with_target_error(2.0), "target_error=2");
        assert_runs_identical(
            &g,
            RothkoConfig::with_max_colors(12).weights(1.0, 0.0),
            "alpha=1",
        );
        assert_runs_identical(
            &g,
            RothkoConfig::with_max_colors(12)
                .weights(1.0, 1.0)
                .split_mean(SplitMean::Geometric),
            "alpha=beta=1 geometric",
        );
    }
    // A 2,000-node scale-free graph (unit weights) refined to its full
    // 64-color budget.
    let g = qsc_graph::generators::barabasi_albert(2_000, 4, 7);
    let colors = assert_runs_identical(&g, RothkoConfig::with_max_colors(64), "BA(2000, 4)");
    assert_eq!(colors, 64);
}

#[test]
fn rothko_engine_reaches_stability_like_reference() {
    let g = random_graph(50, 150, true, 999);
    let incremental = Rothko::new(RothkoConfig::with_target_error(0.0)).run(&g);
    let reference = Rothko::new(RothkoConfig::with_target_error(0.0)).run_reference(&g);
    assert_eq!(incremental.max_q_error, 0.0);
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment()
    );
    // And both refine at least as far as the coarsest stable coloring.
    assert!(incremental.partition.num_colors() >= stable_coloring(&g).num_colors());
}

#[test]
fn engine_tracks_initial_partitions() {
    // Engines seeded from a non-trivial initial coloring stay consistent.
    let g = random_graph(40, 160, false, 4242);
    let init = Partition::from_assignment(&(0..40).map(|v| (v % 3) as u32).collect::<Vec<_>>());
    let config = RothkoConfig::with_max_colors(10).initial(init.clone());
    let incremental = Rothko::new(config.clone()).run(&g);
    let reference = Rothko::new(config).run_reference(&g);
    assert!(incremental.partition.is_refinement_of(&init));
    assert_eq!(
        incremental.partition.canonical_assignment(),
        reference.partition.canonical_assignment()
    );
}
