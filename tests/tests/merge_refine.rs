//! Merge/refine round-trip suite for the bidirectional event algebra.
//!
//! Coarsening (merges picked by the post-merge q-error bound) composed
//! with re-refinement must stay on the deterministic path: a maintained
//! run that coarsens and then resplits is bit-identical to a fresh run
//! started from the resulting partition, across thread counts {1, 4}, and
//! every incremental consumer (engine, reduced delta, patched emitters)
//! mirrors the merges exactly. Weights are multiples of 0.5 so all sums
//! are exact and equalities are required bit-for-bit.

use qsc_core::q_error::IncrementalDegrees;
use qsc_core::reduced::ReducedDelta;
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_core::{Partition, PartitionEvent, StorageMode};
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

#[test]
fn coarsen_then_resplit_is_bit_identical_to_fresh_run() {
    for (directed, seed) in [(false, 9u64), (true, 47)] {
        // The same schedule at both thread counts: (1) refine to the
        // target, (2) delete edges until maintenance coarsens, (3) insert
        // edges so maintenance resplits — comparing against a fresh run
        // started from the same checkpoint at every stage.
        let mut per_thread: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 4] {
            let g = random_graph(100, 420, directed, seed);
            let config = RothkoConfig {
                max_colors: 50,
                target_error: 4.0,
                threads: Some(threads),
                coarsen: true,
                ..Default::default()
            };
            let mut run = Rothko::new(config.clone()).start(&g);
            run.maintain();
            let mut assignments = vec![run.partition().canonical_assignment()];
            let mut delta = GraphDelta::new(g.clone());
            let mut edges: Vec<(u32, u32)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);

            // Stage 2: delete 60% of the edges — churn that lowers the
            // error, so a coarsening maintenance can shrink k.
            let keep = edges.len() * 2 / 5;
            while edges.len() > keep {
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                delta.delete_edge(u, v).unwrap();
            }
            let events = delta.drain_events();
            let compacted = delta.compact();
            run.apply_edge_batch(compacted.clone(), &events);
            let checkpoint = run.partition().clone();
            let k_before = checkpoint.num_colors();
            run.maintain();
            let merges_after_deletes = run.merges();
            // Cross-check against a fresh run from the checkpoint.
            let fresh_config = RothkoConfig {
                initial: Some(checkpoint),
                ..config.clone()
            };
            let mut fresh = Rothko::new(fresh_config).start(&compacted);
            fresh.maintain();
            assert!(
                run.partition().same_as(fresh.partition()),
                "post-coarsen coloring differs from fresh run (threads {threads})"
            );
            assert_eq!(fresh.merges(), merges_after_deletes);
            assert!(
                run.partition().num_colors() <= k_before,
                "coarsening must not grow k"
            );
            assignments.push(run.partition().canonical_assignment());

            // Stage 3: insert fresh edges — churn that raises the error,
            // so maintenance resplits.
            for _ in 0..edges.len() / 2 {
                loop {
                    let u = rng.random_range(0..100) as u32;
                    let v = rng.random_range(0..100) as u32;
                    if u != v && !delta.has_edge(u, v) {
                        let w = (rng.random_range(4u32..9) as f64) * 0.5;
                        delta.insert_edge(u, v, w).unwrap();
                        edges.push((u, v));
                        break;
                    }
                }
            }
            let events = delta.drain_events();
            let compacted = delta.compact();
            run.apply_edge_batch(compacted.clone(), &events);
            let checkpoint = run.partition().clone();
            run.maintain();
            let fresh_config = RothkoConfig {
                initial: Some(checkpoint),
                ..config.clone()
            };
            let mut fresh = Rothko::new(fresh_config).start(&compacted);
            fresh.maintain();
            assert!(
                run.partition().same_as(fresh.partition()),
                "post-resplit coloring differs from fresh run (threads {threads})"
            );
            let err = run.exact_max_error();
            assert!(
                err <= 4.0 || run.partition().num_colors() == 50,
                "error {err} above target with colors to spare"
            );
            assignments.push(run.partition().canonical_assignment());
            per_thread.push(assignments);
        }
        assert_eq!(
            per_thread[0], per_thread[1],
            "thread counts diverged (directed={directed}, seed={seed})"
        );
    }
}

#[test]
fn deleting_every_edge_coarsens_to_one_color() {
    // The extreme coarsening round: with no edges left every pair's
    // post-merge bound is zero, so a coarsening maintenance must collapse
    // the coloring to a single color — k demonstrably shrinks on a churn
    // round that lowers the error.
    let g = random_graph(60, 260, false, 21);
    let config = RothkoConfig {
        max_colors: 40,
        target_error: 3.0,
        coarsen: true,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    run.maintain();
    let k_before = run.partition().num_colors();
    assert!(k_before > 1);
    let mut delta = GraphDelta::new(g.clone());
    for &(u, v, _) in &g.edges() {
        delta.delete_edge(u, v).unwrap();
    }
    let events = delta.drain_events();
    let compacted = delta.compact();
    run.apply_edge_batch(compacted, &events);
    let ops = run.maintain();
    assert_eq!(run.partition().num_colors(), 1, "empty graph: one color");
    assert_eq!(run.merges(), k_before - 1);
    assert_eq!(ops, k_before - 1, "all operations were merges");
    assert_eq!(run.exact_max_error(), 0.0);
}

#[test]
fn maintain_with_drives_reduced_delta_through_merges() {
    // The PartitionEvent visitor keeps a ReducedDelta in lockstep through
    // a maintenance pass that both merges and splits.
    let g = random_graph(80, 340, false, 33);
    let config = RothkoConfig {
        max_colors: 40,
        target_error: 4.0,
        coarsen: true,
        ..Default::default()
    };
    let mut run = Rothko::new(config).start(&g);
    let mut delta = ReducedDelta::new(&g, run.partition());
    let graph = g.clone();
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => delta.apply_split(&graph, p, s),
        PartitionEvent::Merge(m) => delta.apply_merge(m),
        _ => unreachable!("no node churn in this pass"),
    });
    assert_eq!(delta.verify_against(&g, run.partition()), Ok(()));
    // Drop every edge: coarsening is guaranteed (all bounds zero) and the
    // visitor must see each merge in lockstep.
    let mut gd = GraphDelta::new(g.clone());
    for &(u, v, _) in &g.edges() {
        gd.delete_edge(u, v).unwrap();
    }
    let events = gd.drain_events();
    let compacted = gd.compact();
    run.apply_edge_batch(compacted.clone(), &events);
    delta.apply_edge_batch(run.partition(), &events);
    let mut saw_merge = false;
    run.maintain_with(|p, ev| {
        match ev {
            PartitionEvent::Split(s) => delta.apply_split(&compacted, p, s),
            PartitionEvent::Merge(m) => {
                saw_merge = true;
                delta.apply_merge(m);
            }
            _ => unreachable!("no node churn in this pass"),
        }
        assert_eq!(delta.num_colors(), p.num_colors(), "lockstep violated");
    });
    assert_eq!(delta.verify_against(&compacted, run.partition()), Ok(()));
    assert!(saw_merge && run.merges() > 0);
    assert_eq!(run.partition().num_colors(), 1);

    // Re-wire the empty graph: maintenance resplits, the visitor sees the
    // splits, and the delta stays synchronized end to end.
    let mut gd = GraphDelta::new(compacted);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..200 {
        let u = rng.random_range(0..80) as u32;
        let v = rng.random_range(0..80) as u32;
        if u != v && !gd.has_edge(u, v) {
            gd.insert_edge(u, v, (rng.random_range(1u32..9) as f64) * 0.5)
                .unwrap();
        }
    }
    let events = gd.drain_events();
    let rewired = gd.compact();
    run.apply_edge_batch(rewired.clone(), &events);
    delta.apply_edge_batch(run.partition(), &events);
    let mut saw_split = false;
    run.maintain_with(|p, ev| match ev {
        PartitionEvent::Split(s) => {
            saw_split = true;
            delta.apply_split(&rewired, p, s);
        }
        PartitionEvent::Merge(m) => delta.apply_merge(m),
        _ => unreachable!("no node churn in this pass"),
    });
    assert!(saw_split, "re-wiring an empty graph must force splits");
    assert_eq!(delta.verify_against(&rewired, run.partition()), Ok(()));
}

#[test]
fn coarsening_chains_collapse_with_arbitrary_bound_order() {
    // Regression test for the batched coarsening round's slot tracking: a
    // huge error target makes every pair a candidate with *varied* bounds,
    // so the round merges in bound order (not winner-0-first) and builds
    // transitive chains — colors merged into a winner whose slot is later
    // merged or relabeled itself. The round must keep its map transitive
    // (stale slots once caused wrong pairs or out-of-range panics), the
    // coloring must collapse to one color, and a fresh run from the same
    // checkpoint must reproduce it exactly.
    for (directed, seed) in [(false, 27u64), (true, 83)] {
        let g = random_graph(90, 380, directed, seed);
        let config = RothkoConfig {
            max_colors: 40,
            target_error: 1e6,
            coarsen: true,
            ..Default::default()
        };
        // Refine first (huge target would never split), then coarsen.
        let refine = RothkoConfig {
            target_error: 0.0,
            coarsen: false,
            ..config.clone()
        };
        let mut pre = Rothko::new(refine).start(&g);
        pre.maintain();
        let checkpoint = pre.partition().clone();
        assert!(checkpoint.num_colors() == 40);
        let with_initial = RothkoConfig {
            initial: Some(checkpoint.clone()),
            ..config.clone()
        };
        let mut run = Rothko::new(with_initial.clone()).start(&g);
        let ops = run.maintain();
        assert_eq!(
            run.partition().num_colors(),
            1,
            "an unbounded band must collapse the coloring"
        );
        assert_eq!(run.merges(), 39);
        assert_eq!(ops, 39);
        let mut fresh = Rothko::new(with_initial).start(&g);
        fresh.maintain();
        assert!(run.partition().same_as(fresh.partition()));
    }
}

#[test]
fn sharded_merge_paths_match_serial_engine() {
    // Force the pool thresholds to zero so merges exercise the sharded
    // member-axis rebuilds and entry rescans, and pin bit-identity to the
    // serial engine.
    for (directed, seed) in [(false, 15u64), (true, 55)] {
        let g = random_graph(70, 320, directed, seed);
        let mut p = Partition::unit(70);
        let mut serial = IncrementalDegrees::new_with_threads(&g, &p, 1);
        let mut sharded = IncrementalDegrees::new_with_threads(&g, &p, 4);
        sharded.set_parallel_thresholds(1, 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE);
        for _ in 0..10 {
            let k = p.num_colors();
            let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
            let Some(&c) = candidates.as_slice().choose(&mut rng) else {
                break;
            };
            let members: Vec<u32> = p.members(c).to_vec();
            let pivot = members[rng.random_range(0..members.len())];
            if let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) {
                serial.apply_split(&g, &p, &ev);
                sharded.apply_split(&g, &p, &ev);
            }
        }
        serial.refresh(&p, 1.0);
        sharded.refresh(&p, 1.0);
        while p.num_colors() > 1 {
            let candidates = serial.merge_candidates(f64::INFINITY);
            assert_eq!(candidates, sharded.merge_candidates(f64::INFINITY));
            let cand = candidates[0];
            let ev = p.merge_colors(cand.winner, cand.loser);
            serial.apply_merge(&g, &p, &ev);
            sharded.apply_merge(&g, &p, &ev);
            assert_eq!(serial.verify_against(&g, &p), Ok(()));
            assert_eq!(sharded.verify_against(&g, &p), Ok(()));
            serial.refresh(&p, 1.0);
            sharded.refresh(&p, 1.0);
            assert_eq!(serial.max_error().to_bits(), sharded.max_error().to_bits());
            assert_eq!(serial.pick_witness(&p, 1.0), sharded.pick_witness(&p, 1.0));
        }
    }
}

#[test]
fn merge_scan_work_is_deterministic_and_pruned() {
    // A seeded coarsening run on a Barabási–Albert graph, replayed per
    // storage mode × thread count: the candidate scan's work counters are
    // a pure function of the run, and projection pruning bounds at most a
    // third of the eligible pairs.
    let g = qsc_graph::generators::barabasi_albert(1500, 4, 7);
    let mut runs = Vec::new();
    for storage in [StorageMode::Dense, StorageMode::Sparse] {
        for threads in [1usize, 4] {
            let config = RothkoConfig {
                max_colors: 256,
                target_error: 5.0,
                threads: Some(threads),
                coarsen: true,
                storage,
                ..Default::default()
            };
            let mut run = Rothko::new(config).start(&g);
            run.maintain();
            // Churn rounds: drop a seeded fifth of the edges, then put
            // them back, maintaining (and so coarsening) after each.
            let mut delta = GraphDelta::new(g.clone());
            let mut rng = StdRng::seed_from_u64(0x5EED);
            for _ in 0..3 {
                let mut dropped: Vec<(u32, u32)> = g
                    .edges()
                    .iter()
                    .filter(|_| rng.random_range(0..5u32) == 0)
                    .map(|&(u, v, _)| (u, v))
                    .collect();
                dropped.retain(|&(u, v)| delta.delete_edge(u, v).is_ok());
                let events = delta.drain_events();
                run.apply_edge_batch(delta.compact(), &events);
                run.maintain();
                for &(u, v) in &dropped {
                    delta.insert_edge(u, v, 1.0).unwrap();
                }
                let events = delta.drain_events();
                run.apply_edge_batch(delta.compact(), &events);
                run.maintain();
            }
            let counters = *run.engine().expect("engine run").counters();
            runs.push((
                format!("{storage:?}/t{threads}"),
                counters,
                run.partition().canonical_assignment(),
            ));
        }
    }
    let (_, counters, coloring) = &runs[0];
    for (name, c, p) in &runs[1..] {
        assert_eq!(c, counters, "{name}");
        assert_eq!(p, coloring, "{name}");
    }
    assert!(counters.merge_pairs_eligible > 0, "the run never coarsened");
    assert!(
        counters.merge_pair_bounds * 3 <= counters.merge_pairs_eligible,
        "{counters:?}"
    );
}
