//! Dinic's algorithm (level graph + blocking flows).

use crate::network::{FlowNetwork, FlowResult, ResidualGraph, SATURATION_EPS as EPS};
use std::collections::VecDeque;

/// Compute a maximum flow with Dinic's algorithm.
pub fn max_flow(network: &FlowNetwork) -> FlowResult {
    let mut rg = ResidualGraph::from_graph(&network.graph);
    let value = run(&mut rg, network.source, network.sink);
    FlowResult {
        value: value.0,
        flows: rg.arc_flows(),
        iterations: value.1,
    }
}

/// Run Dinic on an existing residual graph; returns `(flow value, phases)`.
/// The residual graph is left in its post-flow state so callers can extract
/// flows or cuts.
pub fn run(rg: &mut ResidualGraph, source: u32, sink: u32) -> (f64, usize) {
    let n = rg.num_nodes();
    let mut total = 0.0f64;
    let mut phases = 0usize;
    let mut level = vec![-1i32; n];
    // Per-node CSR position of the next edge to try in this phase.
    let mut iter = vec![0usize; n];
    loop {
        // BFS to build the level graph.
        for l in level.iter_mut() {
            *l = -1;
        }
        level[source as usize] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for pos in rg.edge_positions(u) {
                let v = rg.target_at(pos);
                if level[v as usize] < 0 && rg.capacity(rg.edge_at(pos)) > EPS {
                    level[v as usize] = level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[sink as usize] < 0 {
            break;
        }
        phases += 1;
        for (u, it) in iter.iter_mut().enumerate() {
            *it = rg.edge_positions(u as u32).start;
        }
        // Blocking flow via iterative DFS augmentations.
        loop {
            let pushed = dfs(rg, source, sink, f64::INFINITY, &level, &mut iter);
            if pushed <= EPS {
                break;
            }
            total += pushed;
        }
    }
    (total, phases)
}

fn dfs(
    rg: &mut ResidualGraph,
    u: u32,
    sink: u32,
    limit: f64,
    level: &[i32],
    iter: &mut [usize],
) -> f64 {
    if u == sink {
        return limit;
    }
    let end = rg.edge_positions(u).end;
    while iter[u as usize] < end {
        let pos = iter[u as usize];
        let v = rg.target_at(pos);
        let e = rg.edge_at(pos);
        let cap = rg.capacity(e);
        if cap > EPS && level[v as usize] == level[u as usize] + 1 {
            let pushed = dfs(rg, v, sink, limit.min(cap), level, iter);
            if pushed > EPS {
                rg.push(e, pushed);
                return pushed;
            }
        }
        iter[u as usize] += 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::GraphBuilder;

    fn diamond() -> FlowNetwork {
        // s=0, t=3; two paths of capacity 2 and 3, shared middle edge.
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 2, 3.0);
        b.add_edge(1, 3, 3.0);
        b.add_edge(2, 3, 2.0);
        b.add_edge(1, 2, 1.0);
        FlowNetwork::new(b.build(), 0, 3)
    }

    #[test]
    fn diamond_flow() {
        let r = max_flow(&diamond());
        assert!((r.value - 4.0).abs() < 1e-9);
        // Flow conservation at interior nodes is implied by the value; check
        // flows do not exceed capacities.
        let net = diamond();
        for ((_, _, cap), f) in net.graph.arcs().zip(&r.flows) {
            assert!(*f <= cap + 1e-9);
            assert!(*f >= -1e-9);
        }
    }

    #[test]
    fn disconnected_sink_zero_flow() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 5.0);
        let net = FlowNetwork::new(b.build(), 0, 2);
        assert_eq!(max_flow(&net).value, 0.0);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS figure 26.1-style network, max flow 23.
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
        assert!((max_flow(&net).value - 23.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_capacity_sums() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1, 1.5);
        b.add_edge(0, 1, 2.5); // merged by the builder into capacity 4
        let net = FlowNetwork::new(b.build(), 0, 1);
        assert!((max_flow(&net).value - 4.0).abs() < 1e-9);
    }
}
