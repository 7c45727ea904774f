//! Minimum s-t cut extraction (via max-flow / min-cut duality).

use crate::dinic;
use crate::network::{FlowNetwork, ResidualGraph};

/// A minimum s-t cut.
#[derive(Clone, Debug)]
pub struct MinCut {
    /// Capacity of the cut (equals the maximum flow value).
    pub capacity: f64,
    /// `true` for nodes on the source side of the cut.
    pub source_side: Vec<bool>,
    /// The cut edges `(u, v, capacity)` crossing from the source side to the
    /// sink side.
    pub edges: Vec<(u32, u32, f64)>,
}

/// Compute a minimum s-t cut (runs Dinic internally). The source side is
/// read off with the solver's own saturation tolerance, so the cut edges
/// are exactly the arcs Dinic saturated across it.
pub fn min_cut(network: &FlowNetwork) -> MinCut {
    let mut rg = ResidualGraph::from_graph(&network.graph);
    let (value, _) = dinic::run(&mut rg, network.source, network.sink);
    let source_side = rg.residual_reachable(network.source);
    let mut edges = Vec::new();
    for (u, v, c) in network.graph.arcs() {
        if source_side[u as usize] && !source_side[v as usize] && c > 0.0 {
            edges.push((u, v, c));
        }
    }
    MinCut {
        capacity: value,
        source_side,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::{generators, GraphBuilder};

    #[test]
    fn cut_capacity_equals_flow_value() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 3.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 2.0);
        b.add_edge(2, 3, 3.0);
        let net = FlowNetwork::new(b.build(), 0, 3);
        let cut = min_cut(&net);
        let flow = dinic::max_flow(&net).value;
        assert!((cut.capacity - flow).abs() < 1e-9);
        // The sum of cut edge capacities equals the flow value (max-flow =
        // min-cut).
        let cut_sum: f64 = cut.edges.iter().map(|&(_, _, c)| c).sum();
        assert!((cut_sum - flow).abs() < 1e-9);
        assert!(cut.source_side[0]);
        assert!(!cut.source_side[3]);
    }

    #[test]
    fn cut_uses_the_solver_saturation_tolerance() {
        // 100 paths s -> a_i -> t whose first arcs carry 9e-10 more than
        // the second: the second arcs are the minimum cut. A residual of
        // 9e-10 on the first arcs is not saturation, so every a_i is on
        // the source side and the cut edges sum to exactly the flow.
        let paths = 100u32;
        let (s, t) = (0, 1);
        let mut b = GraphBuilder::new_directed(2 + paths as usize);
        for i in 0..paths {
            b.add_edge(s, 2 + i, 1.0 + 9e-10);
            b.add_edge(2 + i, t, 1.0);
        }
        let net = FlowNetwork::new(b.build(), s, t);
        let cut = min_cut(&net);
        assert_eq!(cut.capacity, 100.0);
        assert_eq!(cut.edges.len(), paths as usize);
        assert!(cut.edges.iter().all(|&(_, v, _)| v == t));
        let cut_sum: f64 = cut.edges.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(cut_sum, cut.capacity);
    }

    #[test]
    fn pathological_network_cut_is_small() {
        // Example 7 / Fig. 4 style network: each staircase transition strands
        // a unit of flow, so the true max-flow (and min-cut) is well below
        // the per-layer capacity that the reduced graph would report.
        let (g, s, t) = generators::pathological_flow_layers(5, 6);
        let net = FlowNetwork::new(g, s, t);
        let cut = min_cut(&net);
        let flow = dinic::max_flow(&net).value;
        assert!((cut.capacity - flow).abs() < 1e-9);
        assert!(
            cut.capacity <= 6.0 - 1.0,
            "expected the cut ({}) to be below the layer capacity 6",
            cut.capacity
        );
    }

    #[test]
    fn min_cut_on_grid_matches_flow() {
        let (net, _) = crate::generators::grid_flow_network(6, 6, 3.0, 0.3, 1);
        let cut = min_cut(&net);
        let flow = dinic::max_flow(&net).value;
        assert!((cut.capacity - flow).abs() < 1e-6);
        let cut_sum: f64 = cut.edges.iter().map(|&(_, _, c)| c).sum();
        assert!(cut_sum + 1e-6 >= flow);
    }
}
