//! The three graph workloads: `stream-edges`, `stream-nodes` and
//! `restart`. Each is a closed loop with one client: the next batch is
//! applied only after the previous round's answer is out.

use std::collections::VecDeque;

use qsc_core::storage::{ResolvedStorage, StorageMode};
use qsc_graph::NodeId;
use qsc_persist::Layout;

use crate::inputs;
use crate::outcome::{ensure, is_check_round, timed_round, timed_setup, timed_stall, Ctx, Outcome};
use crate::pipeline::{Stack, StackConfig};

/// Shape of a graph workload's input and color budget.
pub struct GraphSpec {
    pub nodes: usize,
    pub ba_m: usize,
    /// When set, the q-error target is the error the pinned refinement
    /// reaches at this many colors (probed from the input before any
    /// clock starts).
    pub probe_colors: Option<usize>,
}

/// `stream-edges`: a BA graph big enough that `Auto` storage resolves to
/// sparse rows under an unbounded color budget; few splits per round, so
/// compaction of the CSR dominates.
pub const STREAM_EDGES: GraphSpec = GraphSpec {
    nodes: 200_000,
    ba_m: 4,
    probe_colors: Some(200),
};
/// Edges deleted (and re-inserted a round later) per round.
const EDGE_CHURN: f64 = 0.001;

/// `stream-nodes`: small enough that a 512-color budget keeps `Auto` on
/// dense rows; coarsening makes maintenance split- and merge-heavy.
pub const STREAM_NODES: GraphSpec = GraphSpec {
    nodes: 20_000,
    ba_m: 4,
    probe_colors: None,
};
/// The fixed q-error target of `stream-nodes`. A probed target moves
/// between 4 and 7 across seeds, and k (and the round cost) with it.
const NODE_TARGET_ERROR: f64 = 5.0;
const NODE_BUDGET: usize = 512;
/// Nodes inserted per round, as a share of the original nodes.
const NODE_CHURN: f64 = 0.005;
/// Rounds an inserted node lives before it is removed.
const NODE_WINDOW: usize = 4;
/// Edges each inserted node is wired with.
const NODE_WIRE: usize = 4;

/// `restart`: the persistence-heavy workload, with a two-thread engine.
pub const RESTART: GraphSpec = GraphSpec {
    nodes: 100_000,
    ba_m: 4,
    probe_colors: None,
};
const RESTART_BUDGET: usize = 512;
const RESTART_THREADS: usize = 2;
/// Logged rounds before each checkpoint, and in the WAL tail after it.
const RESTART_ROUNDS: usize = 8;
const RESTART_TAIL: usize = 2;

/// `rebuild` (not a benchmark workload; run it by name): one set-up at
/// the shape the older warm-restart measurements used for their cold
/// rebuild, to attribute that rebuild's time to layers.
pub const REBUILD: GraphSpec = GraphSpec {
    nodes: 1_000_000,
    ba_m: 10,
    probe_colors: None,
};
const REBUILD_BUDGET: usize = 2048;

/// Upper bound on pre-generated churn rounds (the loop stops earlier when
/// its time is up).
const MAX_ROUNDS: usize = 4000;
/// Rounds the p90 latency needs: ten samples beyond it.
const MIN_ROUNDS: usize = 100;

fn stack_config(workload: &str, q: f64) -> StackConfig {
    match workload {
        "stream-edges" => StackConfig {
            max_colors: usize::MAX,
            target_error: q,
            coarsen: false,
            threads: 1,
        },
        "stream-nodes" => StackConfig {
            max_colors: NODE_BUDGET,
            target_error: NODE_TARGET_ERROR,
            coarsen: true,
            threads: 1,
        },
        "rebuild" => StackConfig {
            max_colors: REBUILD_BUDGET,
            target_error: 0.0,
            coarsen: false,
            threads: 1,
        },
        _ => StackConfig {
            max_colors: RESTART_BUDGET,
            target_error: 0.0,
            coarsen: false,
            threads: RESTART_THREADS,
        },
    }
}

/// Time the workload's set-up and nothing else (a set-up-only process).
pub fn setup_only(workload: &str, ctx: &Ctx, out: &mut Outcome) {
    setup(ctx, out, &stack_config(workload, ctx.q));
}

fn setup(ctx: &Ctx, out: &mut Outcome, cfg: &StackConfig) -> Option<Stack> {
    let dir = ctx.work.join("store");
    let (built, secs) = timed_setup(ctx, || Stack::build(&ctx.input, &dir, cfg));
    out.setup_s = secs;
    let (stack, stats) = out.op("setup", built)?;
    out.set("persist.checkpoint_bytes", stats.file_bytes as f64);
    record_storage(out, &stack, cfg.max_colors);
    out.max("core.resident_mb", resident_mb(&stack));
    Some(stack)
}

/// Record the storage tier `Auto` resolved to, from the same inputs the
/// engine resolves it from.
fn record_storage(out: &mut Outcome, stack: &Stack, max_colors: usize) {
    let g = stack.run.graph();
    let n = g.num_nodes();
    let hint_cap = max_colors.clamp(3, n.max(1)).next_power_of_two().max(4);
    let dirs = if g.is_directed() { 2 } else { 1 };
    let tier = StorageMode::Auto.resolve(n, g.num_arcs(), hint_cap, dirs);
    out.set(
        "core.storage_sparse",
        f64::from(u8::from(tier == ResolvedStorage::Sparse)),
    );
    out.set("core.threads", stack.threads() as f64);
}

fn resident_mb(stack: &Stack) -> f64 {
    stack
        .run
        .engine()
        .map_or(0.0, |e| e.resident_bytes() as f64 / (1 << 20) as f64)
}

/// Untimed end-of-run figures shared by the graph workloads.
fn finish(out: &mut Outcome, stack: &Stack) {
    out.set("colors", stack.run.partition().num_colors() as f64);
    let exact = stack.exact_answer();
    out.set(
        "answer_rel_error",
        qsc_flow::reduce::relative_error(exact, stack.answer),
    );
    out.set("reduced.arcs", stack.arcs as f64);
    out.set("flow.iterations", stack.flow_iterations as f64);
    out.max("core.resident_mb", resident_mb(stack));
    if let Some((ckpt, wal)) = out.op("measure store", stack.disk_bytes()) {
        // `restart` measured this right after a packed checkpoint's tail.
        let edges = stack.delta.num_edges().max(1) as f64;
        out.values
            .entry("disk_bytes_per_edge")
            .or_insert((ckpt + wal) as f64 / edges);
        if stack.logged_events > 0 {
            out.set(
                "persist.wal_bytes_per_event",
                wal as f64 / stack.logged_events as f64,
            );
        }
    }
}

fn count_round(out: &mut Outcome, traced: bool, ms: f64, round: &crate::pipeline::Round) {
    out.count_round(traced, ms, round.events);
    out.add("core.splits", round.splits as f64);
    out.add("core.merges", round.merges as f64);
    out.add("bench.compact_rows", round.rows as f64);
    out.add("bench.compact_touched_rows", round.touched_rows() as f64);
}

type Edges = Vec<(NodeId, NodeId)>;

/// Sliding-window edge churn source over the stack's start graph.
struct EdgeChurn {
    edges: Edges,
    window: Vec<Vec<u32>>,
}

impl EdgeChurn {
    fn new(ctx: &Ctx, stack: &Stack) -> Self {
        let g = stack.delta.base();
        let edges: Edges = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        let per_round = ((edges.len() as f64) * EDGE_CHURN).round().max(1.0) as usize;
        let window = inputs::edge_window(g, per_round, MAX_ROUNDS, ctx.seed);
        EdgeChurn { edges, window }
    }

    /// Round `r`'s deletions and insertions (round 0 only deletes).
    fn batch(&self, r: usize) -> (Edges, Edges) {
        let pick = |ids: &[u32]| ids.iter().map(|&i| self.edges[i as usize]).collect();
        let inserts = if r == 0 {
            Vec::new()
        } else {
            pick(&self.window[r - 1])
        };
        (pick(&self.window[r]), inserts)
    }

    fn rounds(&self) -> usize {
        self.window.len()
    }
}

/// One edge round of a measured loop: checked (untimed, uncounted) when
/// `r` is a check round, counted otherwise. Returns false on failure.
fn edge_step(ctx: &Ctx, out: &mut Outcome, stack: &mut Stack, churn: &EdgeChurn, r: usize) -> bool {
    let (deletes, inserts) = churn.batch(r);
    let check = is_check_round(r);
    let traced = !check && ctx.traced_round(r);
    let (result, ms) = timed_round(traced, || stack.edge_round(&deletes, &inserts, check));
    let Some((round, evidence)) = out.op("round", result) else {
        return false;
    };
    match evidence {
        Some(ev) => out.check("round output", stack.check(ev)),
        None => count_round(out, traced, ms, &round),
    }
    true
}

pub fn stream_edges(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = stack_config("stream-edges", ctx.q);
    let Some(mut stack) = setup(ctx, &mut out, &cfg) else {
        return out;
    };
    let churn = EdgeChurn::new(ctx, &stack);
    // Round 0 only deletes; it runs before the clock so every measured
    // round has the same shape.
    let (deletes, inserts) = churn.batch(0);
    let warm = stack.edge_round(&deletes, &inserts, false).map(|_| ());
    if out.op("warm-up round", warm).is_none() {
        return out;
    }
    let mut r = 1;
    while r < churn.rounds() && !out.measured(ctx.seconds, MIN_ROUNDS) {
        if !edge_step(ctx, &mut out, &mut stack, &churn, r) {
            return out;
        }
        r += 1;
    }
    finish(&mut out, &stack);
    out
}

pub fn stream_nodes(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = stack_config("stream-nodes", ctx.q);
    let Some(mut stack) = setup(ctx, &mut out, &cfg) else {
        return out;
    };
    let g = stack.delta.base();
    let n0 = g.num_nodes();
    let per_round = ((n0 as f64) * NODE_CHURN).round().max(1.0) as usize;
    let wiring = inputs::node_window(g, per_round, NODE_WIRE, MAX_ROUNDS, ctx.seed);
    // Original nodes are never removed, so they keep ids 0..n0; the live
    // inserted nodes follow in insertion order (renumbering keeps order),
    // tagged here with the round that inserted them.
    let mut live: VecDeque<usize> = VecDeque::new();
    for (r, wires) in wiring.iter().enumerate() {
        if out.measured(ctx.seconds, MIN_ROUNDS) {
            break;
        }
        let targets: Vec<&[NodeId]> = wires.chunks(NODE_WIRE).collect();
        let due: Vec<NodeId> = live
            .iter()
            .take_while(|&&born| born + NODE_WINDOW <= r)
            .enumerate()
            .map(|(i, _)| (n0 + i) as NodeId)
            .collect();
        // The first NODE_WINDOW rounds only grow the graph to its steady
        // size; they run before the clock.
        let warm = r < NODE_WINDOW;
        let check = !warm && is_check_round(r - NODE_WINDOW + 1);
        let traced = !warm && !check && ctx.traced_round(r);
        let (result, ms) = timed_round(traced, || stack.node_round(&targets, &due, check));
        let Some((round, evidence)) = out.op("round", result) else {
            return out;
        };
        let mut keep = vec![true; live.len()];
        for &v in &round.removed {
            keep[v as usize - n0] = false;
        }
        let mut flags = keep.into_iter();
        live.retain(|_| flags.next().unwrap_or(true));
        live.extend(std::iter::repeat_n(r, per_round));
        match (warm, evidence) {
            (true, _) => {}
            (false, Some(ev)) => out.check("round output", stack.check(ev)),
            (false, None) => count_round(&mut out, traced, ms, &round),
        }
    }
    finish(&mut out, &stack);
    out
}

pub fn restart(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let cfg = stack_config("restart", ctx.q);
    let Some(mut stack) = setup(ctx, &mut out, &cfg) else {
        return out;
    };
    let churn = EdgeChurn::new(ctx, &stack);
    let (deletes, inserts) = churn.batch(0);
    let warm = stack.edge_round(&deletes, &inserts, false).map(|_| ());
    if out.op("warm-up round", warm).is_none() {
        return out;
    }
    let mut checkpoint_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut recover_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first_query_ms = Vec::new();
    let mut r = 1;
    let mut cycle = 0;
    // Every cycle checkpoints and recovers once per layout; the layout
    // that goes first alternates, so neither inherits the other's warm
    // page cache on every cycle.
    'cycles: while !out.measured(ctx.seconds, MIN_ROUNDS) {
        let order = if cycle % 2 == 0 {
            [Layout::Packed, Layout::MappedRaw]
        } else {
            [Layout::MappedRaw, Layout::Packed]
        };
        for layout in order {
            let slot = usize::from(layout == Layout::MappedRaw);
            for _ in 0..RESTART_ROUNDS {
                if r >= churn.rounds() || !edge_step(ctx, &mut out, &mut stack, &churn, r) {
                    break 'cycles;
                }
                r += 1;
            }
            if out.op("set layout", stack.set_layout(layout)).is_none() {
                break 'cycles;
            }
            let (stats, secs) = timed_stall(ctx, &mut out, "stall", || stack.checkpoint());
            let Some(stats) = out.op("checkpoint", stats) else {
                break 'cycles;
            };
            checkpoint_s[slot].push(secs);
            let bytes_key = if slot == 0 {
                "persist.checkpoint_bytes"
            } else {
                "persist.checkpoint_mapped_bytes"
            };
            out.set(bytes_key, stats.file_bytes as f64);
            for _ in 0..RESTART_TAIL {
                if r >= churn.rounds() || !edge_step(ctx, &mut out, &mut stack, &churn, r) {
                    break 'cycles;
                }
                r += 1;
            }
            if slot == 0 {
                if let Some((ckpt, wal)) = out.op("measure store", stack.disk_bytes()) {
                    let edges = stack.delta.num_edges().max(1) as f64;
                    out.set("disk_bytes_per_edge", (ckpt + wal) as f64 / edges);
                }
            } else {
                let (opened, secs) =
                    timed_stall(ctx, &mut out, "stall", || stack.mapped_first_query());
                if out.op("mapped first query", opened).is_none() {
                    break 'cycles;
                }
                first_query_ms.push(secs * 1e3);
            }
            let (recovered, secs) = timed_stall(ctx, &mut out, "stall", || stack.recover());
            let Some((mut next, replayed)) = out.op("recover", recovered) else {
                break 'cycles;
            };
            recover_s[slot].push(secs);
            out.add("persist.replayed", replayed as f64);
            let same_state = ensure(next.state_bytes() == stack.state_bytes(), || {
                "recovered state differs from the live stack".into()
            });
            out.check("recovered state", same_state);
            let same_answer = ensure(next.answer.to_bits() == stack.answer.to_bits(), || {
                format!("recovered answer {} != live {}", next.answer, stack.answer)
            });
            out.check("recovered answer", same_answer);
            let ((), _) = timed_stall(ctx, &mut out, "stall", || next.attach_overlay());
            stack = next;
        }
        cycle += 1;
    }
    let median_or_zero = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            crate::trace::median(xs)
        }
    };
    out.set("checkpoint_s", median_or_zero(&checkpoint_s[0]));
    out.set("checkpoint_mapped_s", median_or_zero(&checkpoint_s[1]));
    out.set("recover_s", median_or_zero(&recover_s[0]));
    out.set("recover_mapped_s", median_or_zero(&recover_s[1]));
    out.set("first_query_ms", median_or_zero(&first_query_ms));
    finish(&mut out, &stack);
    out
}
