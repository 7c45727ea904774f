//! Push–relabel maximum flow (FIFO active-node selection with the gap
//! heuristic and periodic global relabeling), cold or warm-started.
//!
//! The loops follow the implementation heuristics of Cherkassky and
//! Goldberg (*Algorithmica* 1997). Each node keeps a *current arc*: a
//! position in its CSR edge range ([`ResidualGraph`]) before which every
//! edge is known to be inadmissible. Discharging a node resumes at its
//! current arc instead of rescanning the node's edges, and a relabel sets
//! the current arc to the first edge into the new lowest neighbour. Any
//! other height change (a gap lift, a global relabel) resets the current
//! arc to the start of the range, and every height change goes through
//! one helper that keeps the per-height node counts of the gap heuristic
//! exact. No loop copies a node's adjacency.
//!
//! This is the stand-in for the `GraphsFlows` push-relabel baseline used by
//! the paper's max-flow experiments; the paper notes that push-relabel
//! cannot be stopped early because its pre-flows are not valid flows, which
//! is exactly why the coloring-based approximation is attractive.
//!
//! # Warm starts
//!
//! [`WarmFlowSolver`] resumes from the previous solve when the network is a
//! small perturbation of the last one (the sweep pipeline's reduced
//! networks across adjacent color budgets: one node added, a handful of
//! capacities patched). Instead of discharging the full source capacity
//! from scratch, it re-seeds the previous flow assignment clamped to the
//! new capacities, repairs the node imbalances the clamping introduced
//! (surpluses stay as preflow excess; shortfalls are drained by returning
//! downstream flow), recomputes exact heights with one global relabel, and
//! lets the shared FIFO discharge loop route only the *residual* flow. The
//! result is a maximum preflow into the sink — the same quantity the cold
//! path computes — so warm and cold solves agree on the max-flow value
//! (bit-identically when capacities are exactly representable, e.g.
//! integers or quarter-integers).

use crate::network::{FlowNetwork, FlowResult, ResidualGraph, SATURATION_EPS as EPS};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Compute a maximum flow with the push–relabel algorithm.
pub fn max_flow(network: &FlowNetwork) -> FlowResult {
    let mut pf = Preflow::new(network);
    // Initial global relabel: heights = BFS distance to the sink.
    pf.global_relabel();
    pf.saturate_source();
    let relabels = pf.discharge();
    pf.into_result(relabels)
}

/// A preflow on a residual graph with its labeling and FIFO queue: the
/// state the cold and warm entry points share.
struct Preflow {
    rg: ResidualGraph,
    source: usize,
    sink: usize,
    /// Height labels, `0..=2n`.
    height: Vec<usize>,
    /// Nodes per height (gap heuristic); exact because every height
    /// change goes through [`Self::set_height`].
    count: Vec<usize>,
    /// Current-arc CSR position of each node: the edges of `u` before
    /// `current[u]` are known inadmissible until `u` is relabeled.
    current: Vec<usize>,
    excess: Vec<f64>,
    active: VecDeque<u32>,
    in_queue: Vec<bool>,
}

impl Preflow {
    /// The zero preflow on `network`, every node at height 0.
    fn new(network: &FlowNetwork) -> Self {
        let rg = ResidualGraph::from_graph(&network.graph);
        let n = rg.num_nodes();
        let mut count = vec![0usize; 2 * n + 1];
        count[0] = n;
        Preflow {
            current: (0..n as u32).map(|u| rg.edge_positions(u).start).collect(),
            rg,
            source: network.source as usize,
            sink: network.sink as usize,
            height: vec![0; n],
            count,
            excess: vec![0.0; n],
            active: VecDeque::new(),
            in_queue: vec![false; n],
        }
    }

    /// Move `v` to height `h`, keeping the per-height counts exact and
    /// resetting `v`'s current arc (a new height can make any of its
    /// edges admissible again).
    fn set_height(&mut self, v: usize, h: usize) {
        self.count[self.height[v]] -= 1;
        self.count[h] += 1;
        self.height[v] = h;
        self.current[v] = self.rg.edge_positions(v as u32).start;
    }

    /// Queue `v` for discharge unless it is a terminal or already queued.
    fn activate(&mut self, v: usize) {
        if v != self.source && v != self.sink && !self.in_queue[v] {
            self.active.push_back(v as u32);
            self.in_queue[v] = true;
        }
    }

    /// Saturate every forward arc leaving the source, queueing the
    /// targets that become active.
    fn saturate_source(&mut self) {
        for pos in self.rg.edge_positions(self.source as u32) {
            let e = self.rg.edge_at(pos);
            if e & 1 == 1 {
                continue; // backward edge of an arc into the source
            }
            let cap = self.rg.capacity(e);
            if cap > EPS {
                let v = self.rg.target_at(pos) as usize;
                self.rg.push(e, cap);
                self.excess[v] += cap;
                self.excess[self.source] -= cap;
                self.activate(v);
            }
        }
    }

    /// Heights from a reverse BFS from the sink; unreachable nodes (and
    /// the source) get height `n`.
    fn global_relabel(&mut self) {
        let n = self.rg.num_nodes();
        for v in 0..n {
            self.set_height(v, n);
        }
        self.set_height(self.sink, 0);
        let mut queue = VecDeque::new();
        queue.push_back(self.sink as u32);
        while let Some(u) = queue.pop_front() {
            let next = self.height[u as usize] + 1;
            for pos in self.rg.edge_positions(u) {
                // The edge at pos goes u -> v in the residual graph; v
                // reaches the sink through u if the reverse edge v -> u
                // has capacity.
                let v = self.rg.target_at(pos) as usize;
                if self.height[v] == n
                    && v != self.source
                    && self.rg.capacity(self.rg.edge_at(pos) ^ 1) > EPS
                {
                    self.set_height(v, next);
                    queue.push_back(v as u32);
                }
            }
        }
    }

    /// The FIFO discharge loop (current arcs, gap heuristic, periodic
    /// global relabeling). `height` must be a valid labeling for the
    /// preflow, and `active` must hold every node other than the
    /// terminals with positive excess. Returns the number of relabel
    /// operations.
    fn discharge(&mut self) -> usize {
        let n = self.rg.num_nodes();
        let mut relabels = 0usize;
        let global_relabel_period = 6 * n + self.rg.num_arcs();

        while let Some(u) = self.active.pop_front() {
            let u = u as usize;
            self.in_queue[u] = false;
            let end = self.rg.edge_positions(u as u32).end;
            while self.excess[u] > EPS {
                let pos = self.current[u];
                if pos < end {
                    let v = self.rg.target_at(pos) as usize;
                    let e = self.rg.edge_at(pos);
                    if self.height[u] == self.height[v] + 1 && self.rg.capacity(e) > EPS {
                        let amount = self.excess[u].min(self.rg.capacity(e));
                        self.rg.push(e, amount);
                        self.excess[u] -= amount;
                        self.excess[v] += amount;
                        self.activate(v);
                    } else {
                        self.current[u] = pos + 1;
                    }
                    continue;
                }
                // Every edge is inadmissible: relabel u to one more than
                // its lowest residual neighbour, and make the first edge to
                // that neighbour current (every edge before it is
                // inadmissible at the new height).
                let old_height = self.height[u];
                let mut lowest: Option<(usize, usize)> = None;
                for pos in self.rg.edge_positions(u as u32) {
                    let h = self.height[self.rg.target_at(pos) as usize];
                    if lowest.is_none_or(|(min_h, _)| h < min_h)
                        && self.rg.capacity(self.rg.edge_at(pos)) > EPS
                    {
                        lowest = Some((h, pos));
                    }
                }
                let Some((min_h, min_pos)) = lowest else {
                    // No outgoing residual capacity at all; park the node.
                    self.set_height(u, 2 * n);
                    break;
                };
                self.set_height(u, (min_h + 1).min(2 * n));
                self.current[u] = min_pos;
                relabels += 1;
                // Gap heuristic: if no node remains at old_height, lift
                // every node above it (except the source) to n+1 so they
                // stop trying to reach the sink.
                if self.count[old_height] == 0 && old_height < n {
                    for w in 0..n {
                        if w != self.source && self.height[w] > old_height && self.height[w] <= n {
                            self.set_height(w, n + 1);
                        }
                    }
                }
                if relabels.is_multiple_of(global_relabel_period) {
                    self.global_relabel();
                }
            }
            if self.excess[u] > EPS && self.height[u] < 2 * n {
                self.activate(u);
            }
        }

        relabels
    }

    fn into_result(self, relabels: usize) -> FlowResult {
        FlowResult {
            value: self.excess[self.sink],
            flows: self.rg.arc_flows(),
            iterations: relabels,
        }
    }
}

/// A push-relabel solver that warm-starts from its previous solution.
///
/// Intended for solving a *sequence* of related networks — the sweep
/// pipeline's reduced networks across adjacent color budgets, where node
/// ids are stable (colors keep their ids; each split appends one), most
/// capacities are unchanged, and the previous max flow is almost feasible.
/// See the module docs for the warm-start procedure. The first call is a
/// cold solve identical to [`max_flow`].
#[derive(Debug, Default)]
pub struct WarmFlowSolver {
    /// Aggregated flow per `(tail, head)` pair of the previous solution.
    prev_flows: Option<HashMap<(u32, u32), f64>>,
}

impl WarmFlowSolver {
    /// A solver with no previous solution (the first solve is cold).
    pub fn new() -> Self {
        WarmFlowSolver::default()
    }

    /// Drop the remembered solution; the next solve is cold.
    pub fn reset(&mut self) {
        self.prev_flows = None;
    }

    /// Solve `network`, warm-starting from the previous call's solution
    /// when one is remembered.
    pub fn solve(&mut self, network: &FlowNetwork) -> FlowResult {
        let mut pf = Preflow::new(network);
        if let Some(prev) = self.prev_flows.take() {
            seed_previous_flows(&mut pf.rg, network, prev, &mut pf.excess);
        }
        pf.saturate_source();
        drain_deficits(&mut pf.rg, pf.source, &mut pf.excess);
        pf.global_relabel();
        for v in 0..pf.rg.num_nodes() {
            if pf.excess[v] > EPS {
                pf.activate(v);
            }
        }
        let relabels = pf.discharge();

        let result = pf.into_result(relabels);
        let mut remembered: HashMap<(u32, u32), f64> = HashMap::new();
        for ((u, v, _), &f) in network.graph.arcs().zip(result.flows.iter()) {
            if f > EPS {
                *remembered.entry((u, v)).or_insert(0.0) += f;
            }
        }
        self.prev_flows = Some(remembered);
        result
    }
}

/// Re-route the previous solution onto a fresh residual graph: each
/// remembered `(u, v)` flow is replayed onto the new network's arcs,
/// clamped to their capacities, with node imbalances tracked in `excess`.
///
/// Flow on arcs *into* the source is not replayed: it would leave residual
/// source→x capacity, which breaks the labeling invariant once the source
/// sits at height `n`, and the discharge could then stop below the maximum.
fn seed_previous_flows(
    rg: &mut ResidualGraph,
    network: &FlowNetwork,
    mut remaining: HashMap<(u32, u32), f64>,
    excess: &mut [f64],
) {
    for (a, (u, v, _)) in network.graph.arcs().enumerate() {
        if v == network.source {
            continue;
        }
        let Some(f) = remaining.get_mut(&(u, v)) else {
            continue;
        };
        let e = (2 * a) as u32;
        let amount = f.min(rg.capacity(e));
        if amount > EPS {
            rg.push(e, amount);
            excess[v as usize] += amount;
            excess[u as usize] -= amount;
            *f -= amount;
        }
    }
}

/// Repair the deficits (negative excess) the capacity clamping introduced:
/// a deficit node receives less than it sends, so its outgoing flow is
/// reduced — arc by arc — until it balances, propagating the shortfall
/// downstream until it is absorbed by the source, the sink, or a node with
/// surplus. Each step strictly reduces some arc's flow, so the drain
/// terminates; afterwards every node except the source and sink has
/// non-negative excess, i.e. the seeded assignment is a valid preflow.
fn drain_deficits(rg: &mut ResidualGraph, source: usize, excess: &mut [f64]) {
    let n = rg.num_nodes();
    let mut worklist: Vec<usize> = (0..n)
        .filter(|&v| v != source && excess[v] < -EPS)
        .collect();
    while let Some(v) = worklist.pop() {
        if excess[v] >= -EPS {
            continue;
        }
        for pos in rg.edge_positions(v as u32) {
            let e = rg.edge_at(pos);
            if excess[v] >= -EPS {
                break;
            }
            if e & 1 == 1 {
                continue; // only forward arcs leaving v carry its outflow
            }
            let flow = rg.flow_on(e);
            if flow <= EPS {
                continue;
            }
            let w = rg.target_at(pos) as usize;
            let amount = flow.min(-excess[v]);
            rg.push(e ^ 1, amount); // return `amount` from w back to v
            excess[v] += amount;
            excess[w] -= amount;
            if w != source && excess[w] < -EPS {
                worklist.push(w);
            }
        }
        debug_assert!(
            excess[v] >= -EPS,
            "deficit at node {v} could not be drained (outflow < shortfall)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::{generators, GraphBuilder, NodeId};

    #[test]
    fn clrs_network_value() {
        let mut b = GraphBuilder::new_directed(6);
        b.add_edge(0, 1, 16.0);
        b.add_edge(0, 2, 13.0);
        b.add_edge(1, 2, 10.0);
        b.add_edge(2, 1, 4.0);
        b.add_edge(1, 3, 12.0);
        b.add_edge(3, 2, 9.0);
        b.add_edge(2, 4, 14.0);
        b.add_edge(4, 3, 7.0);
        b.add_edge(3, 5, 20.0);
        b.add_edge(4, 5, 4.0);
        let net = FlowNetwork::new(b.build(), 0, 5);
        let r = max_flow(&net);
        assert!((r.value - 23.0).abs() < 1e-9, "got {}", r.value);
    }

    #[test]
    fn agrees_with_dinic_on_random_networks() {
        for seed in 0..6 {
            let g = generators::erdos_renyi_nm(40, 200, seed).to_directed();
            let net = FlowNetwork::new(g, 0, 39);
            let pr = max_flow(&net).value;
            let dinic = crate::dinic::max_flow(&net).value;
            assert!(
                (pr - dinic).abs() < 1e-6,
                "seed {seed}: push-relabel {pr} vs Dinic {dinic}"
            );
        }
    }

    #[test]
    fn agrees_on_grid_network() {
        let (net, _) = crate::generators::grid_flow_network(8, 8, 4.0, 0.5, 3);
        let pr = max_flow(&net).value;
        let dinic = crate::dinic::max_flow(&net).value;
        assert!(
            (pr - dinic).abs() < 1e-6,
            "push-relabel {pr} vs Dinic {dinic}"
        );
    }

    #[test]
    fn single_edge() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1, 7.5);
        let net = FlowNetwork::new(b.build(), 0, 1);
        assert!((max_flow(&net).value - 7.5).abs() < 1e-12);
    }

    #[test]
    fn warm_solver_cold_call_matches_max_flow() {
        let (net, _) = crate::generators::grid_flow_network(8, 8, 4.0, 0.5, 3);
        let mut solver = WarmFlowSolver::new();
        let warm = solver.solve(&net).value;
        let cold = max_flow(&net).value;
        assert!((warm - cold).abs() < 1e-9, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn warm_resolve_of_same_network_is_stable() {
        let (net, _) = crate::generators::grid_flow_network(8, 8, 4.0, 0.5, 7);
        let mut solver = WarmFlowSolver::new();
        let first = solver.solve(&net);
        let second = solver.solve(&net);
        assert!((first.value - second.value).abs() < 1e-9);
        // Re-solving from the previous optimum needs (almost) no work.
        assert!(
            second.iterations <= first.iterations / 2,
            "warm re-solve did {} relabels vs cold {}",
            second.iterations,
            first.iterations
        );
    }

    #[test]
    fn warm_start_survives_capacity_increases_and_decreases() {
        // Perturb a network arc-by-arc (scale capacities up and down) and
        // check the warm-started value always matches Dinic's cold value.
        for seed in 0..4u64 {
            let g = generators::erdos_renyi_nm(30, 150, seed).to_directed();
            let base = FlowNetwork::new(g, 0, 29);
            let mut solver = WarmFlowSolver::new();
            solver.solve(&base);
            for round in 1..4u32 {
                let mut b = GraphBuilder::new_directed(30);
                for (i, (u, v, c)) in base.graph.arcs().enumerate() {
                    let scale = match (i as u32 + round) % 3 {
                        0 => 0.5,
                        1 => 2.0,
                        _ => 1.0,
                    };
                    b.add_edge(u, v, c * scale);
                }
                let net = FlowNetwork::new(b.build(), 0, 29);
                let warm = solver.solve(&net).value;
                let cold = crate::dinic::max_flow(&net).value;
                assert!(
                    (warm - cold).abs() < 1e-6,
                    "seed {seed} round {round}: warm {warm} vs cold {cold}"
                );
            }
        }
        // Symmetric BA networks with ±1 integer capacity churn: the
        // previous optimum often carries flow on arcs into the source,
        // which the warm start must not replay.
        use rand::{Rng, SeedableRng};
        for seed in 0..200u64 {
            let g = generators::barabasi_albert(40, 3, seed).to_directed();
            let arcs: Vec<(NodeId, NodeId)> = g.arcs().map(|(u, v, _)| (u, v)).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut caps: Vec<f64> = arcs
                .iter()
                .map(|_| rng.random_range(1..5u32) as f64)
                .collect();
            let mut solver = WarmFlowSolver::new();
            for round in 0..8u32 {
                let mut b = GraphBuilder::new_directed(40);
                for (&(u, v), &c) in arcs.iter().zip(&caps) {
                    b.add_edge(u, v, c);
                }
                let net = FlowNetwork::new(b.build(), 0, 1);
                let warm = solver.solve(&net).value;
                let cold = crate::dinic::max_flow(&net).value;
                assert_eq!(warm, cold, "BA seed {seed} round {round}");
                for c in &mut caps {
                    *c = (*c + rng.random_range(0..3u32) as f64 - 1.0).max(1.0);
                }
            }
        }
    }

    #[test]
    fn warm_start_survives_node_additions() {
        // Grow the network one node at a time (the sweep's reduced networks
        // gain one color per split) and keep the source/sink ids fixed.
        let mut solver = WarmFlowSolver::new();
        for extra in 0..5usize {
            let n = 12 + extra;
            let mut b = GraphBuilder::new_directed(n);
            for v in 2..n as u32 {
                b.add_edge(0, v, 2.0 + (v % 3) as f64);
                b.add_edge(v, 1, 1.0 + (v % 4) as f64);
            }
            for v in 2..(n as u32 - 1) {
                b.add_edge(v, v + 1, 1.5);
            }
            let net = FlowNetwork::new(b.build(), 0, 1);
            let warm = solver.solve(&net).value;
            let cold = crate::dinic::max_flow(&net).value;
            assert!(
                (warm - cold).abs() < 1e-9,
                "n={n}: warm {warm} vs cold {cold}"
            );
        }
    }
}
