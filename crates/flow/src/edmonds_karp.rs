//! Edmonds–Karp (BFS augmenting paths). Simple reference implementation used
//! to cross-check the faster solvers in tests.

use crate::network::{FlowNetwork, FlowResult, ResidualGraph, SATURATION_EPS as EPS};
use std::collections::VecDeque;

/// Compute a maximum flow with the Edmonds–Karp algorithm.
pub fn max_flow(network: &FlowNetwork) -> FlowResult {
    let mut rg = ResidualGraph::from_graph(&network.graph);
    let n = rg.num_nodes();
    let source = network.source;
    let sink = network.sink;
    let mut total = 0.0;
    let mut augmentations = 0usize;
    loop {
        // BFS for the shortest augmenting path, remembering the edge used to
        // reach each node and the node it was reached from.
        let mut pred_edge = vec![u32::MAX; n];
        let mut pred_node = vec![u32::MAX; n];
        let mut visited = vec![false; n];
        visited[source as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        'bfs: while let Some(u) = queue.pop_front() {
            for pos in rg.edge_positions(u) {
                let v = rg.target_at(pos);
                let e = rg.edge_at(pos);
                if !visited[v as usize] && rg.capacity(e) > EPS {
                    visited[v as usize] = true;
                    pred_edge[v as usize] = e;
                    pred_node[v as usize] = u;
                    if v == sink {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !visited[sink as usize] {
            break;
        }
        // Bottleneck along the path.
        let mut bottleneck = f64::INFINITY;
        let mut v = sink;
        while v != source {
            let e = pred_edge[v as usize];
            bottleneck = bottleneck.min(rg.capacity(e));
            v = pred_node[v as usize];
        }
        // Augment.
        let mut v = sink;
        while v != source {
            let e = pred_edge[v as usize];
            rg.push(e, bottleneck);
            v = pred_node[v as usize];
        }
        total += bottleneck;
        augmentations += 1;
    }
    FlowResult {
        value: total,
        flows: rg.arc_flows(),
        iterations: augmentations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::GraphBuilder;

    #[test]
    fn small_network_matches_known_value() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 5.0);
        b.add_edge(1, 3, 2.0);
        b.add_edge(2, 3, 3.0);
        let net = FlowNetwork::new(b.build(), 0, 3);
        let r = max_flow(&net);
        assert!((r.value - 5.0).abs() < 1e-9);
        assert!(r.iterations >= 2);
    }

    #[test]
    fn agrees_with_dinic_on_random_networks() {
        use qsc_graph::generators::erdos_renyi_nm;
        for seed in 0..5 {
            let g = erdos_renyi_nm(30, 120, seed).to_directed();
            let net = FlowNetwork::new(g, 0, 29);
            let ek = max_flow(&net).value;
            let dinic = crate::dinic::max_flow(&net).value;
            assert!(
                (ek - dinic).abs() < 1e-6,
                "seed {seed}: EK {ek} vs Dinic {dinic}"
            );
        }
    }
}
