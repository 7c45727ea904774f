//! Determinism suite for the parallel sharded refinement engine and the
//! batched witness rounds: colorings, witness sequences and error values
//! must be **bit-identical** across thread counts {1, 2, 8} and stable
//! under batch sizes {1, 4} on seeded random directed and undirected
//! graphs, and across thread counts {1, 2, 4, 8} at batch 8 on a
//! 2,000-node Barabási–Albert graph. `threads = 1, batch = 1` must equal
//! the default serial engine exactly, and the sharded code paths are
//! additionally exercised with forced-low dispatch thresholds at the
//! engine level.

use qsc_core::q_error::IncrementalDegrees;
use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_core::sweep::ColoringSweep;
use qsc_core::{Partition, ReducedDelta, StorageMode};
use qsc_graph::{Graph, GraphBuilder};
use rand::prelude::*;

/// Random graph with exactly representable weights (multiples of 0.5), so
/// every configuration must agree bit-for-bit.
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

/// Barabási–Albert graph with 2,000 nodes and 4 edges per arrival (unit
/// weights).
fn ba_2000() -> Graph {
    qsc_graph::generators::barabasi_albert(2_000, 4, 7)
}

/// Drive a full run, collecting the coloring, the witness sequence, and the
/// exact final error.
fn run_trace(g: &Graph, config: RothkoConfig) -> (Vec<u32>, Vec<(u32, u32, bool)>, u64) {
    let mut run = Rothko::new(config).start(g);
    let mut witnesses = Vec::new();
    while run.step() {
        for w in run.last_round_witnesses() {
            witnesses.push((w.split_color, w.other_color, w.outgoing));
        }
    }
    let err = run.exact_max_error().to_bits();
    (run.partition().canonical_assignment(), witnesses, err)
}

#[test]
fn colorings_and_witnesses_identical_across_thread_counts() {
    for (directed, seed) in [(false, 3u64), (false, 17), (true, 5), (true, 29)] {
        let g = random_graph(150, 700, directed, seed);
        for batch in [1usize, 4] {
            let base = RothkoConfig::with_max_colors(40).batch(batch);
            let reference = run_trace(&g, base.clone().threads(1));
            for threads in [2usize, 8] {
                let parallel = run_trace(&g, base.clone().threads(threads));
                assert_eq!(
                    parallel, reference,
                    "threads={threads} batch={batch} diverged (directed={directed}, seed={seed})"
                );
            }
        }
    }
    // A 2,000-node scale-free graph at batch 8 with the default dispatch
    // thresholds: large enough that the sharded phases split real work.
    let g = ba_2000();
    let base = RothkoConfig::with_max_colors(64).batch(8);
    let reference = run_trace(&g, base.clone().threads(1));
    for threads in [2usize, 4, 8] {
        let parallel = run_trace(&g, base.clone().threads(threads));
        assert_eq!(parallel, reference, "BA(2000, 4) threads={threads} batch=8");
    }
}

#[test]
fn serial_batch_one_equals_default_engine() {
    for (directed, seed) in [(false, 11u64), (true, 23)] {
        let g = random_graph(120, 500, directed, seed);
        let default_run = run_trace(&g, RothkoConfig::with_max_colors(30));
        let pinned = run_trace(&g, RothkoConfig::with_max_colors(30).threads(1).batch(1));
        assert_eq!(pinned, default_run, "directed={directed} seed={seed}");
    }
    let g = ba_2000();
    let default_run = run_trace(&g, RothkoConfig::with_max_colors(64));
    let pinned = run_trace(&g, RothkoConfig::with_max_colors(64).threads(1).batch(1));
    assert_eq!(pinned, default_run, "BA(2000, 4)");
}

#[test]
fn weighted_configs_stay_deterministic_across_threads() {
    // Size-weighted witness picks (α, β ≠ 0) exercise the β-weighted best
    // cache across the sharded refresh.
    let g = random_graph(140, 650, true, 41);
    let base = RothkoConfig::with_max_colors(35).weights(1.0, 1.0).batch(4);
    let reference = run_trace(&g, base.clone().threads(1));
    let parallel = run_trace(&g, base.threads(8));
    assert_eq!(parallel, reference);
}

/// Force every sharded code path (accumulator phase, member-axis scans,
/// entry rescans, witness refresh) on small graphs by dropping the
/// dispatch thresholds to 1, and cross-check against both a serial twin
/// and the from-scratch recomputation after every split.
#[test]
fn forced_sharding_is_bit_identical_to_serial_engine() {
    for (directed, seed) in [(false, 7u64), (true, 13)] {
        let g = random_graph(80, 400, directed, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let mut p_serial = Partition::unit(g.num_nodes());
        let mut p_par = p_serial.clone();
        let mut serial = IncrementalDegrees::new_with_threads(&g, &p_serial, 1);
        let mut par = IncrementalDegrees::new_with_threads(&g, &p_par, 3);
        par.set_parallel_thresholds(1, 1);
        for _ in 0..40 {
            let k = p_serial.num_colors();
            let candidates: Vec<u32> = (0..k as u32).filter(|&c| p_serial.size(c) >= 2).collect();
            let Some(&c) = candidates.as_slice().choose(&mut rng) else {
                break;
            };
            let members: Vec<u32> = p_serial.members(c).to_vec();
            let pivot = members[rng.random_range(0..members.len())];
            let eject = |v: u32| v >= pivot && v != members[0];
            let Some(ev) = p_serial.split_color(c, eject) else {
                continue;
            };
            let ev2 = p_par.split_color(c, eject).expect("same split applies");
            assert_eq!(ev, ev2);
            serial.apply_split(&g, &p_serial, &ev);
            par.apply_split(&g, &p_par, &ev2);
            serial.refresh(&p_serial, 1.0);
            par.refresh(&p_par, 1.0);
            assert_eq!(serial.max_error().to_bits(), par.max_error().to_bits());
            assert_eq!(
                serial.pick_witness(&p_serial, 1.0),
                par.pick_witness(&p_par, 1.0)
            );
            assert_eq!(serial.counters(), par.counters());
            assert_eq!(par.verify_against(&g, &p_par), Ok(()));
        }
        assert!(p_serial.num_colors() > 10, "splits actually happened");
    }
}

/// Pin the sharded touched-collection phase: a giant split (half the
/// graph moves, so nearly every node is a touched neighbor of several
/// movers across chunk boundaries) must leave engines at thread counts
/// {1, 4, 8} in bit-identical states — touched ordering included, since
/// the ordering decides the attainer choices and witness tie-breaks the
/// later assertions observe.
#[test]
fn sharded_touched_collection_is_bit_identical() {
    for (directed, seed) in [(false, 19u64), (true, 37)] {
        let g = random_graph(300, 2600, directed, seed);
        let mut p1 = Partition::unit(300);
        let mut engines: Vec<IncrementalDegrees> = [1usize, 4, 8]
            .iter()
            .map(|&t| {
                let mut e = IncrementalDegrees::new_with_threads(&g, &p1, t);
                if t > 1 {
                    e.set_parallel_thresholds(1, 1);
                }
                e
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for _ in 0..12 {
            let k = p1.num_colors();
            let candidates: Vec<u32> = (0..k as u32).filter(|&c| p1.size(c) >= 2).collect();
            let Some(&c) = candidates.as_slice().choose(&mut rng) else {
                break;
            };
            let mut members: Vec<u32> = p1.members(c).to_vec();
            members.sort_unstable();
            // Move roughly half the color: large touched sets with heavy
            // cross-chunk neighbor overlap.
            let pivot = members[members.len() / 2];
            let Some(ev) = p1.split_color(c, |v| v >= pivot && v != members[0]) else {
                continue;
            };
            for e in &mut engines {
                e.apply_split(&g, &p1, &ev);
            }
            let mut picks = Vec::new();
            for e in &mut engines {
                e.refresh(&p1, 1.0);
                picks.push((e.max_error().to_bits(), e.pick_witness(&p1, 1.0)));
            }
            assert_eq!(picks[0], picks[1], "threads 1 vs 4 (seed {seed})");
            assert_eq!(picks[0], picks[2], "threads 1 vs 8 (seed {seed})");
            for e in &engines[1..] {
                assert_eq!(e.counters(), engines[0].counters(), "seed {seed}");
            }
            assert_eq!(engines[1].verify_against(&g, &p1), Ok(()));
        }
        assert!(p1.num_colors() >= 8, "splits actually happened");
    }
}

#[test]
fn batched_rounds_respect_budgets_and_caps() {
    let g = random_graph(100, 450, false, 77);
    // run_to_budget never overshoots, even when the batch is larger than
    // the remaining budget room.
    let mut run = Rothko::new(RothkoConfig::with_max_colors(25).batch(8)).start(&g);
    assert!(run.run_to_budget(9));
    assert_eq!(run.partition().num_colors(), 9);
    assert!(run.run_to_budget(25));
    assert_eq!(run.partition().num_colors(), 25);
    // A round performs at most `batch` splits.
    let mut run = Rothko::new(RothkoConfig::with_max_colors(30).batch(4)).start(&g);
    let mut k = run.partition().num_colors();
    while run.step() {
        let added = run.partition().num_colors() - k;
        assert!((1..=4).contains(&added), "round added {added} colors");
        assert_eq!(run.last_round_events().len(), added);
        assert_eq!(run.last_round_witnesses().len(), added);
        k = run.partition().num_colors();
    }
    // max_iterations caps total splits across batched rounds.
    let config = RothkoConfig {
        max_colors: usize::MAX,
        batch: 4,
        max_iterations: Some(6),
        ..Default::default()
    };
    let coloring = Rothko::new(config).run(&g);
    assert_eq!(coloring.iterations, 6);
    assert_eq!(coloring.partition.num_colors(), 7);
}

#[test]
fn batched_rounds_match_reference_stepper() {
    // The reference (from-scratch) stepper shares per-round witness
    // selection, so batched incremental and batched reference runs must
    // produce identical refinements.
    for batch in [2usize, 4] {
        let g = random_graph(90, 400, true, 101);
        let config = RothkoConfig::with_max_colors(24).batch(batch);
        let incremental = Rothko::new(config.clone()).run(&g);
        let reference = Rothko::new(config).run_reference(&g);
        assert_eq!(
            incremental.partition.canonical_assignment(),
            reference.partition.canonical_assignment(),
            "batch={batch}"
        );
        assert_eq!(incremental.iterations, reference.iterations);
    }
}

#[test]
fn batched_sweep_delivers_every_split_in_lockstep() {
    // Multi-split rounds must still hand each event to the visitor with
    // the partition exactly one split ahead — the ReducedDelta contract.
    let g = random_graph(110, 500, true, 55);
    let mut sweep = ColoringSweep::new(&g, RothkoConfig::default().batch(4).threads(2));
    let mut delta = ReducedDelta::new(&g, sweep.partition());
    let mut seen = 0usize;
    for budget in [5usize, 12, 21] {
        let cp = sweep.advance_to(budget, |p, ev| {
            assert_eq!(ev.child as usize + 1, p.num_colors());
            delta.apply_split(&g, p, ev);
            seen += 1;
        });
        assert_eq!(cp.colors, budget, "budget checkpoints land exactly");
        assert_eq!(delta.num_colors(), budget);
    }
    assert_eq!(seen, 20, "one event per added color");
    assert_eq!(delta.verify_against(&g, sweep.partition()), Ok(()));
}

#[test]
fn beta_change_keeps_max_error_valid_without_error_rescans() {
    // row_max_err is β-independent: after a β-only refresh the maximum
    // error must be unchanged and still exact, and witness picks under the
    // new β must match a freshly built engine's.
    let g = random_graph(80, 350, true, 67);
    let mut p = Partition::unit(g.num_nodes());
    let mut engine = IncrementalDegrees::new(&g, &p);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..15 {
        let k = p.num_colors();
        let Some(c) = (0..k as u32).find(|&c| p.size(c) >= 2) else {
            break;
        };
        let members: Vec<u32> = p.members(c).to_vec();
        let pivot = members[rng.random_range(0..members.len())];
        if let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) {
            engine.apply_split(&g, &p, &ev);
        }
    }
    engine.refresh(&p, 0.0);
    let err = engine.max_error();
    for beta in [1.0f64, -0.5, 2.0, 0.0] {
        engine.refresh(&p, beta);
        assert_eq!(engine.max_error().to_bits(), err.to_bits());
        let fresh = IncrementalDegrees::new(&g, &p);
        let mut fresh = fresh;
        fresh.refresh(&p, beta);
        assert_eq!(
            engine.pick_witness(&p, 1.0),
            fresh.pick_witness(&p, 1.0),
            "beta={beta}"
        );
    }
}

#[test]
fn sparse_rows_match_dense_summary_engine() {
    // A sparse-storage engine's accumulator values must equal the dense
    // engine's bit-for-bit across a refinement, on both directed and
    // undirected graphs.
    for (directed, seed) in [(false, 31u64), (true, 43)] {
        let g = random_graph(70, 300, directed, seed);
        let mut p = Partition::unit(g.num_nodes());
        let mut dense = IncrementalDegrees::new(&g, &p);
        let mut sparse = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..30 {
            let k = p.num_colors();
            let Some(c) = (0..k as u32).find(|&c| p.size(c) >= 2) else {
                break;
            };
            let members: Vec<u32> = p.members(c).to_vec();
            let pivot = members[rng.random_range(0..members.len())];
            let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) else {
                continue;
            };
            dense.apply_split(&g, &p, &ev);
            sparse.apply_split(&g, &p, &ev);
            assert_eq!(sparse.verify_against(&g, &p), Ok(()));
        }
        let k = p.num_colors() as u32;
        for v in 0..g.num_nodes() as u32 {
            for c in 0..k {
                assert_eq!(
                    dense.out_degree_of(v, c).to_bits(),
                    sparse.out_degree_of(v, c).to_bits()
                );
                assert_eq!(
                    dense.in_degree_of(v, c).to_bits(),
                    sparse.in_degree_of(v, c).to_bits()
                );
            }
        }
    }
}
