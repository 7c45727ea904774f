//! Dynamic-graph maintenance vs per-round recompute, recorded.
//!
//! Two scenarios, both against the same (q, k) invariant:
//!
//! * **Edge churn** — per round, ~1% of the edges are deleted and the same
//!   number inserted through `GraphDelta`, the batch is patched into the
//!   running `RothkoRun` (`apply_edge_batch`: engine accumulators, pair
//!   summaries and witness rows in `O(touched)`, no graph traversal), and
//!   `maintain()` re-establishes the error target by splitting only where
//!   the batch pushed the error above it.
//! * **Node churn + coarsening** — per round, ~1% of the *nodes* are
//!   inserted (wired to random neighbors, colored like their first
//!   neighbor) and the same number removed (incident edges deleted, node
//!   axis renumbered through `compact_renumber`), flowing through
//!   `apply_node_batch`; maintenance runs with `coarsen: true`, so the run
//!   can also *merge* colors back when churn lowers the error. A final
//!   cooldown round deletes edges until the error drops and asserts that
//!   `k` demonstrably shrinks (merges > 0) — the bidirectional half of the
//!   event algebra.
//!
//! The baseline recomputes from scratch each round: a fresh engine and a
//! fresh greedy run on the same compacted graph to the same target.
//!
//! Invariants asserted every round (what makes maintenance trustworthy):
//!
//! * the maintained coloring is **bit-identical** to a fresh run *resumed
//!   from the post-batch coloring* on the compacted graph (unit weights:
//!   all arithmetic exact);
//! * thread counts agree: the maintained colorings at `threads = 1` and
//!   `threads = 4` are identical at every round.
//!
//! `BENCH_dynamic.json` records the generator/churn seed and the per-round
//! speedups for both scenarios, each with a ≥ 3× maintain-vs-recompute bar
//! — the speedup is algorithmic (a handful of splits/merges against a full
//! rerun plus engine rebuild), so the bar holds on any host. CI runs
//! `--smoke` (small instance, equivalence asserts, lenient bar, no JSON).
//!
//! Run with: `cargo run --release -p qsc-bench --bin bench_dynamic
//! [-- --smoke] [--churn F] [--rounds R] [--threads T] [--seed S]`.

use qsc_bench::arg_value;
use qsc_core::rothko::{NodeChurnBatch, Rothko, RothkoConfig, RothkoRun};
use qsc_core::Partition;
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{generators, Graph, GraphDelta};
use rand::prelude::*;
use std::time::Instant;

/// Deterministic churn source: deletes existing edges and inserts fresh
/// unit-weight ones, tracking the live edge list; also drives node churn.
struct Churner {
    delta: GraphDelta,
    edges: Vec<(u32, u32)>,
    rng: StdRng,
}

impl Churner {
    fn new(g: Graph, seed: u64) -> Self {
        let edges = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        Churner {
            delta: GraphDelta::new(g),
            edges,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Delete `ops` random edges and insert `ops` fresh ones, returning
    /// the drained event batch and the compacted post-batch graph.
    fn churn(&mut self, ops: usize) -> (Vec<EdgeEvent>, Graph) {
        let n = self.delta.num_nodes();
        for _ in 0..ops {
            let i = self.rng.random_range(0..self.edges.len());
            let (u, v) = self.edges.swap_remove(i);
            self.delta.delete_edge(u, v).expect("tracked edge exists");
        }
        for _ in 0..ops {
            loop {
                let u = self.rng.random_range(0..n) as u32;
                let v = self.rng.random_range(0..n) as u32;
                if u != v && !self.delta.has_edge(u, v) {
                    self.delta.insert_edge(u, v, 1.0).expect("fresh edge");
                    self.edges.push((u, v));
                    break;
                }
            }
        }
        let events = self.delta.drain_events();
        let compacted = self.delta.compact();
        (events, compacted)
    }

    /// Insert `ops` unit-weight-wired nodes and remove `ops` victims via
    /// the shared [`qsc_bench::random_node_churn`] driver, keeping the
    /// tracked edge list in sync with the renumbered compacted graph.
    fn churn_nodes(&mut self, p: &Partition, ops: usize, wire: usize) -> (NodeChurnBatch, Graph) {
        let (batch, compacted) =
            qsc_bench::random_node_churn(&mut self.delta, p, &mut self.rng, ops, ops, wire, |_| {
                1.0
            });
        // Re-derive the tracked edge list from the compacted graph (ids
        // were renumbered and removals dropped edges).
        self.edges = compacted.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        (batch, compacted)
    }
}

/// One maintained run plus its thread count.
struct Maintained<'g> {
    run: RothkoRun<'g>,
    threads: usize,
}

/// Per-scenario speedup accounting.
struct Tally {
    maintain_total: f64,
    recompute_total: f64,
    worst: f64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            maintain_total: 0.0,
            recompute_total: 0.0,
            worst: f64::INFINITY,
        }
    }

    fn record(&mut self, maintain: f64, recompute: f64) -> f64 {
        let speedup = recompute / maintain;
        self.maintain_total += maintain;
        self.recompute_total += recompute;
        self.worst = self.worst.min(speedup);
        speedup
    }

    fn headline(&self) -> f64 {
        self.recompute_total / self.maintain_total
    }
}

/// Cross-check one maintained round: identical colorings across thread
/// counts, and bit-identical to a fresh run resumed from the post-batch
/// coloring on the compacted graph. Returns (maintain_seconds, ops) of the
/// first (timed) run.
#[allow(clippy::too_many_arguments)]
fn maintain_and_check(
    maintained: &mut [Maintained],
    compacted: &Graph,
    config: &RothkoConfig,
    scenario: &str,
    round: usize,
    apply: impl Fn(&mut RothkoRun, Graph),
) -> (f64, usize) {
    let mut maintain_seconds = 0.0;
    let mut ops = 0usize;
    let mut prebatch: Option<Partition> = None;
    let mut assignments: Vec<Vec<u32>> = Vec::new();
    for (idx, me) in maintained.iter_mut().enumerate() {
        let own = compacted.clone();
        let start = Instant::now();
        apply(&mut me.run, own);
        if idx == 0 {
            prebatch = Some(me.run.partition().clone());
        }
        let o = me.run.maintain();
        let elapsed = start.elapsed().as_secs_f64();
        if idx == 0 {
            maintain_seconds = elapsed;
            ops = o;
        }
        assignments.push(me.run.partition().canonical_assignment());
    }
    assert!(
        assignments.windows(2).all(|w| w[0] == w[1]),
        "{scenario} round {round}: maintained colorings differ across thread counts"
    );
    let resume_config = RothkoConfig {
        initial: prebatch,
        ..config.clone()
    };
    let mut resumed = Rothko::new(resume_config).start(compacted);
    resumed.maintain();
    assert!(
        maintained[0].run.partition().same_as(resumed.partition()),
        "{scenario} round {round}: maintained coloring differs from a fresh run resumed on the compacted graph"
    );
    (maintain_seconds, ops)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        println!("bench_dynamic: edge/node churn maintenance vs per-round recompute");
        println!("  --smoke      small instance, equivalence asserts only (CI)");
        println!("  --churn F    fraction of edges (nodes) churned per round (default 0.01)");
        println!("  --rounds R   churn rounds per scenario (default 8)");
        println!("  --threads T  engine threads for the maintained run (default 1; 4 is always cross-checked)");
        println!("  --seed S     generator + churn seed (default 7; recorded in the JSON)");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let churn: f64 = arg_value(&args, "--churn")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let rounds: usize = arg_value(&args, "--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 3 } else { 8 });
    let extra_threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let (n, colors) = if smoke {
        (2_000usize, 64usize)
    } else {
        (10_000, 200)
    };
    let g = generators::barabasi_albert(n, 4, seed);
    let m = g.num_edges();
    let ops = ((m as f64 * churn).round() as usize).max(1);

    // Probe the error the budgeted run reaches: that error is the `q` of
    // the (q, k) invariant maintenance must re-establish every round.
    let probe = Rothko::new(RothkoConfig::with_max_colors(colors)).run(&g);
    let q = probe.max_q_error;
    println!(
        "instance: barabasi_albert n={n} m={m} seed={seed}, {colors}-color probe error q={q} \
         ({ops} deletes + {ops} inserts per round)"
    );
    let config = RothkoConfig {
        max_colors: usize::MAX,
        target_error: q,
        ..Default::default()
    };
    let thread_counts = if extra_threads > 1 {
        vec![1usize, extra_threads]
    } else {
        vec![1usize, 4]
    };

    let mut rows: Vec<String> = Vec::new();

    // ---------------- Scenario 1: edge churn ----------------
    let mut maintained: Vec<Maintained> = thread_counts
        .iter()
        .map(|&t| {
            let mut run = Rothko::new(config.clone().threads(t)).start(&g);
            run.maintain();
            Maintained { run, threads: t }
        })
        .collect();
    let mut churner = Churner::new(g.clone(), seed ^ 0x1157);
    let mut edge_tally = Tally::new();
    for round in 0..rounds {
        let (events, compacted) = churner.churn(ops);
        let (maintain_seconds, splits) = maintain_and_check(
            &mut maintained,
            &compacted,
            &config,
            "edge",
            round,
            |run, own| run.apply_edge_batch(own, &events),
        );
        let start = Instant::now();
        let mut recompute = Rothko::new(config.clone()).start(&compacted);
        recompute.maintain();
        let recompute_seconds = start.elapsed().as_secs_f64();
        let speedup = edge_tally.record(maintain_seconds, recompute_seconds);
        println!(
            "edge round {round}: maintain {maintain_seconds:.4}s ({splits} splits, {} colors) vs recompute {recompute_seconds:.4}s — {speedup:.1}x",
            maintained[0].run.partition().num_colors(),
        );
        rows.push(format!(
            "{{\"scenario\":\"edge_churn\",\"round\":{round},\"events\":{},\"maintain_seconds\":{maintain_seconds:.6},\"recompute_seconds\":{recompute_seconds:.6},\"speedup\":{speedup:.3},\"maintained_splits\":{splits},\"maintained_colors\":{}}}",
            events.len(),
            maintained[0].run.partition().num_colors(),
        ));
    }
    drop(maintained);

    // ---------------- Scenario 2: node churn + coarsening ----------------
    let node_config = RothkoConfig {
        coarsen: true,
        ..config.clone()
    };
    let node_ops = ((n as f64 * churn).round() as usize).max(1);
    let mut maintained: Vec<Maintained> = thread_counts
        .iter()
        .map(|&t| {
            let mut run = Rothko::new(node_config.clone().threads(t)).start(&g);
            run.maintain();
            Maintained { run, threads: t }
        })
        .collect();
    let mut churner = Churner::new(g.clone(), seed ^ 0x0DE5);
    let mut node_tally = Tally::new();
    // One untimed warm-up round: the first node batch pays one-time
    // allocator growth (the accumulator store reallocates when the node
    // axis first grows past its build-time capacity); the scenario
    // measures the steady state. Equivalence is still cross-checked.
    {
        let p = maintained[0].run.partition().clone();
        let (batch, compacted) = churner.churn_nodes(&p, node_ops, 4);
        maintain_and_check(
            &mut maintained,
            &compacted,
            &node_config,
            "node-warmup",
            0,
            |run, own| run.apply_node_batch(own, &batch),
        );
    }
    for round in 0..rounds {
        let p = maintained[0].run.partition().clone();
        let (batch, compacted) = churner.churn_nodes(&p, node_ops, 4);
        let (maintain_seconds, ops_done) = maintain_and_check(
            &mut maintained,
            &compacted,
            &node_config,
            "node",
            round,
            |run, own| run.apply_node_batch(own, &batch),
        );
        let start = Instant::now();
        let mut recompute = Rothko::new(node_config.clone()).start(&compacted);
        recompute.maintain();
        let recompute_seconds = start.elapsed().as_secs_f64();
        let speedup = node_tally.record(maintain_seconds, recompute_seconds);
        let merges = maintained[0].run.merges();
        println!(
            "node round {round}: maintain {maintain_seconds:.4}s ({ops_done} ops, {merges} total merges, {} colors) vs recompute {recompute_seconds:.4}s — {speedup:.1}x",
            maintained[0].run.partition().num_colors(),
        );
        rows.push(format!(
            "{{\"scenario\":\"node_churn\",\"round\":{round},\"inserted\":{},\"removed\":{},\"maintain_seconds\":{maintain_seconds:.6},\"recompute_seconds\":{recompute_seconds:.6},\"speedup\":{speedup:.3},\"maintained_ops\":{ops_done},\"maintained_colors\":{}}}",
            batch.inserted_colors.len(),
            batch.removed.len(),
            maintained[0].run.partition().num_colors(),
        ));
    }

    // ---------------- Coarsening cooldown ----------------
    // Delete edges in waves until the error drops enough for maintenance
    // to coarsen: `k` must demonstrably shrink (the final wave removes
    // every remaining edge, which forces all merge bounds to zero).
    let k_before = maintained[0].run.partition().num_colors();
    let merges_before: usize = maintained[0].run.merges();
    let mut wave = 0usize;
    loop {
        let remaining = churner.edges.len();
        let delete = if remaining <= 64 || wave >= 2 {
            remaining
        } else {
            remaining * 3 / 5
        };
        for _ in 0..delete {
            let i = churner.rng.random_range(0..churner.edges.len());
            let (u, v) = churner.edges.swap_remove(i);
            churner.delta.delete_edge(u, v).expect("tracked edge");
        }
        let events = churner.delta.drain_events();
        let compacted = churner.delta.compact();
        maintain_and_check(
            &mut maintained,
            &compacted,
            &node_config,
            "cooldown",
            wave,
            |run, own| run.apply_edge_batch(own, &events),
        );
        wave += 1;
        if maintained[0].run.merges() > merges_before || churner.edges.is_empty() {
            break;
        }
    }
    let k_after = maintained[0].run.partition().num_colors();
    let cooldown_merges = maintained[0].run.merges() - merges_before;
    println!(
        "cooldown: error-lowering churn coarsened k {k_before} -> {k_after} ({cooldown_merges} merges over {wave} wave(s))"
    );
    assert!(
        cooldown_merges > 0 && k_after < k_before,
        "coarsening cooldown failed to shrink k ({k_before} -> {k_after})"
    );

    let edge_headline = edge_tally.headline();
    let node_headline = node_tally.headline();
    println!(
        "edge churn: maintain {:.4}s vs recompute {:.4}s — {edge_headline:.1}x (worst round {:.1}x)",
        edge_tally.maintain_total, edge_tally.recompute_total, edge_tally.worst
    );
    println!(
        "node churn: maintain {:.4}s vs recompute {:.4}s — {node_headline:.1}x (worst round {:.1}x)",
        node_tally.maintain_total, node_tally.recompute_total, node_tally.worst
    );

    if smoke {
        assert!(
            edge_tally.maintain_total < edge_tally.recompute_total,
            "edge maintenance did not beat per-round recompute"
        );
        // The node scenario asserts only its correctness cross-checks in
        // smoke mode: at smoke scale a from-scratch run costs about as
        // much as one round's node-axis maintenance, so a timing bar
        // would flake — the full benchmark enforces the ≥3× bar.
        println!("smoke OK (no JSON, lenient edge bar, node equivalence asserts only)");
        return;
    }

    rows.push(format!(
        "{{\"summary\":\"maintain_vs_recompute\",\"graph\":\"barabasi_albert\",\"nodes\":{n},\"edges\":{m},\"seed\":{seed},\"probe_colors\":{colors},\"target_error\":{q},\"churn\":{churn},\"rounds\":{rounds},\"edge_headline_speedup\":{edge_headline:.3},\"edge_worst_round_speedup\":{:.3},\"node_headline_speedup\":{node_headline:.3},\"node_worst_round_speedup\":{:.3},\"cooldown_k_before\":{k_before},\"cooldown_k_after\":{k_after},\"cooldown_merges\":{cooldown_merges},\"bit_identical_to_resumed_fresh_run\":true,\"threads_cross_checked\":{:?},\"host_cpus\":{},\"peak_rss_bytes\":{},\"bar_enforced\":true}}",
        edge_tally.worst,
        node_tally.worst,
        maintained.iter().map(|m| m.threads).collect::<Vec<_>>(),
        qsc_bench::host_cpus(),
        qsc_bench::peak_rss_json()
    ));
    std::fs::write("BENCH_dynamic.json", rows.join("\n") + "\n")
        .expect("failed to write BENCH_dynamic.json");
    println!("wrote BENCH_dynamic.json (edge {edge_headline:.2}x, node {node_headline:.2}x)");
    assert!(
        edge_headline >= 3.0,
        "edge maintain-vs-recompute speedup {edge_headline:.2}x below the 3x acceptance bar"
    );
    assert!(
        node_headline >= 3.0,
        "node maintain-vs-recompute speedup {node_headline:.2}x below the 3x acceptance bar"
    );
}
