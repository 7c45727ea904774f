//! Flow networks and the shared residual-graph representation.

use qsc_graph::{Graph, NodeId};

/// A max-flow problem instance: a directed capacity graph plus designated
/// source and sink nodes.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// Directed graph whose edge weights are capacities (must be ≥ 0).
    pub graph: Graph,
    /// Source node.
    pub source: NodeId,
    /// Sink node.
    pub sink: NodeId,
}

impl FlowNetwork {
    /// Create a network, validating the source/sink and capacities.
    pub fn new(graph: Graph, source: NodeId, sink: NodeId) -> Self {
        assert!((source as usize) < graph.num_nodes(), "source out of range");
        assert!((sink as usize) < graph.num_nodes(), "sink out of range");
        assert_ne!(source, sink, "source and sink must differ");
        debug_assert!(
            graph.arcs().all(|(_, _, w)| w >= 0.0),
            "capacities must be non-negative"
        );
        FlowNetwork {
            graph,
            source,
            sink,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of capacity arcs.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Total capacity leaving the source (a trivial upper bound on the
    /// max-flow value).
    pub fn source_capacity(&self) -> f64 {
        self.graph.out_weight(self.source)
    }
}

/// Result of a max-flow computation.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The maximum flow value.
    pub value: f64,
    /// Per-arc flow, aligned with [`ResidualGraph::num_arcs`] (the arcs
    /// of the input graph in `Graph::arcs()` order).
    pub flows: Vec<f64>,
    /// Number of augmentations / relabel passes performed (algorithm
    /// specific; used for reporting only).
    pub iterations: usize,
}

/// Residual capacities at or below this are treated as saturated by every
/// solver and by the min-cut reachability pass, so a cut is read off with
/// exactly the tolerance the flow was computed with.
pub const SATURATION_EPS: f64 = 1e-12;

/// A residual graph with paired forward/backward edges, shared by all the
/// max-flow algorithms.
///
/// # Edge ids
///
/// Arc `a` of the input (its position in the arc list, or in
/// `Graph::arcs()` order) becomes the edge pair `2a` (forward, `u → v`,
/// starting at the arc's capacity) and `2a + 1` (backward, `v → u`,
/// starting at zero), so `e ^ 1` reverses an edge and
/// [`Self::arc_flows`] lines up with the input arcs. Capacities and flows
/// are indexed by edge id.
///
/// # Layout
///
/// The adjacency is one CSR over *positions*: `u`'s incident edges
/// (forward edges of the arcs leaving `u`, backward edges of the arcs
/// entering it, in arc order) occupy positions `first[u]..first[u + 1]`
/// ([`Self::edge_positions`]). Two parallel arrays describe each
/// position: its edge id ([`Self::edge_at`]) and its target node
/// ([`Self::target_at`]). A scan reads targets in order and touches a
/// capacity only for the edges whose target passes its height or level
/// test, and a loop that pushes flow while it scans, or keeps a
/// current-arc pointer, holds a position rather than a borrowed slice.
#[derive(Clone, Debug)]
pub struct ResidualGraph {
    /// `n + 1` offsets into the position arrays.
    first: Vec<u32>,
    /// Edge id at each position.
    edges: Vec<u32>,
    /// Target node of the edge at each position.
    targets: Vec<u32>,
    /// Remaining capacity of each edge, by id.
    cap: Vec<f64>,
    /// Original capacity of each arc (for flow extraction).
    arc_cap: Vec<f64>,
}

impl ResidualGraph {
    /// Build the residual graph of a capacity graph in `O(n + arcs)`: the
    /// CSR offsets come from the graph's own out- and in-degrees.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let degree = |u: u32| (g.out_degree(u) + g.in_degree(u)) as u32;
        Self::build(n, g.num_arcs(), (0..n as u32).map(degree), g.arcs())
    }

    /// Build the residual graph of `n` nodes and the directed capacity
    /// arcs `(u, v, capacity)`, kept in the given order. Parallel arcs
    /// stay separate edge pairs; negative capacities count as zero, as in
    /// [`Self::from_graph`].
    pub fn from_arcs(n: usize, arcs: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0u32; n];
        for &(u, v, _) in arcs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        Self::build(n, arcs.len(), degree.into_iter(), arcs.iter().copied())
    }

    /// Counting-sort the edge pairs of `arcs` into CSR order, given every
    /// node's degree (out plus in) in node order.
    fn build(
        n: usize,
        num_arcs: usize,
        degrees: impl Iterator<Item = u32>,
        arcs: impl Iterator<Item = (u32, u32, f64)>,
    ) -> Self {
        assert!(
            2 * num_arcs <= u32::MAX as usize,
            "too many arcs for u32 edge ids"
        );
        let mut first = Vec::with_capacity(n + 1);
        first.push(0u32);
        let mut total = 0u32;
        for d in degrees {
            total += d;
            first.push(total);
        }
        debug_assert_eq!(first.len(), n + 1);
        debug_assert_eq!(total as usize, 2 * num_arcs);
        let mut next = first[..n].to_vec();
        let mut edges = vec![0u32; 2 * num_arcs];
        let mut targets = vec![0u32; 2 * num_arcs];
        let mut cap = vec![0.0f64; 2 * num_arcs];
        let mut arc_cap = vec![0.0f64; num_arcs];
        let mut a = 0usize;
        for (u, v, c) in arcs {
            let c = c.max(0.0);
            cap[2 * a] = c;
            arc_cap[a] = c;
            let e = (2 * a) as u32;
            let pos = next[u as usize] as usize;
            edges[pos] = e;
            targets[pos] = v;
            next[u as usize] += 1;
            let pos = next[v as usize] as usize;
            edges[pos] = e + 1;
            targets[pos] = u;
            next[v as usize] += 1;
            a += 1;
        }
        assert_eq!(a, num_arcs, "arc count mismatch");
        ResidualGraph {
            first,
            edges,
            targets,
            cap,
            arc_cap,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of original (forward) arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arc_cap.len()
    }

    /// The CSR positions of `u`'s incident edges (forward and backward).
    #[inline]
    pub fn edge_positions(&self, u: u32) -> std::ops::Range<usize> {
        self.first[u as usize] as usize..self.first[u as usize + 1] as usize
    }

    /// The id of the edge at CSR position `pos`.
    #[inline]
    pub fn edge_at(&self, pos: usize) -> u32 {
        self.edges[pos]
    }

    /// The target node of the edge at CSR position `pos`.
    #[inline]
    pub fn target_at(&self, pos: usize) -> u32 {
        self.targets[pos]
    }

    /// Remaining capacity of edge `e`.
    #[inline]
    pub fn capacity(&self, e: u32) -> f64 {
        self.cap[e as usize]
    }

    /// Flow currently routed through edge `e` (original capacity minus
    /// remaining capacity). For a backward (odd-id) edge this is *minus*
    /// the paired forward arc's flow — callers summing a node's outflow
    /// must filter to forward (even-id) edges.
    #[inline]
    pub fn flow_on(&self, e: u32) -> f64 {
        let orig = if e & 1 == 0 {
            self.arc_cap[e as usize / 2]
        } else {
            0.0
        };
        orig - self.cap[e as usize]
    }

    /// Push `amount` of flow along edge `e` (decreasing its capacity and
    /// increasing the reverse edge's).
    #[inline]
    pub fn push(&mut self, e: u32, amount: f64) {
        self.cap[e as usize] -= amount;
        self.cap[(e ^ 1) as usize] += amount;
    }

    /// Flow currently routed through each original arc.
    pub fn arc_flows(&self) -> Vec<f64> {
        self.arc_cap
            .iter()
            .enumerate()
            .map(|(a, &c)| (c - self.cap[2 * a]).max(0.0))
            .collect()
    }

    /// Nodes reachable from `source` over edges with residual capacity
    /// above [`SATURATION_EPS`] (the source side of a minimum cut after a
    /// max-flow computation).
    pub fn residual_reachable(&self, source: u32) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![source];
        seen[source as usize] = true;
        while let Some(u) = stack.pop() {
            for pos in self.edge_positions(u) {
                let v = self.targets[pos];
                if !seen[v as usize] && self.cap[self.edges[pos] as usize] > SATURATION_EPS {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::GraphBuilder;

    #[test]
    fn network_construction() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 2, 3.0);
        let net = FlowNetwork::new(b.build(), 0, 2);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_edges(), 2);
        assert_eq!(net.source_capacity(), 2.0);
    }

    #[test]
    #[should_panic]
    fn source_equals_sink_rejected() {
        let g = Graph::empty(2, true);
        FlowNetwork::new(g, 1, 1);
    }

    #[test]
    fn residual_push_and_flows() {
        let mut rg = ResidualGraph::from_arcs(3, &[(0, 1, 5.0), (1, 2, 4.0)]);
        assert_eq!(rg.num_arcs(), 2);
        rg.push(0, 3.0);
        assert_eq!(rg.capacity(0), 2.0);
        assert_eq!(rg.capacity(1), 3.0);
        assert_eq!(rg.arc_flows(), vec![3.0, 0.0]);
    }

    #[test]
    fn reachability_respects_capacity() {
        let mut rg = ResidualGraph::from_arcs(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        rg.push(0, 1.0); // saturate 0 -> 1
        let reach = rg.residual_reachable(0);
        assert!(reach[0]);
        assert!(!reach[1]);
        assert!(!reach[2]);
    }
}
