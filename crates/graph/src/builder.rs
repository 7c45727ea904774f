//! Incremental graph construction.

use crate::csr::{Graph, NodeId};

/// Builds a [`Graph`] from an edge list.
///
/// Duplicate arcs between the same ordered pair of nodes are merged by
/// summing their weights (multigraph edges collapse into weighted edges,
/// matching the weighted-graph view of Sec. 3 of the paper).
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// New builder for a directed graph on `n` nodes.
    pub fn new_directed(n: usize) -> Self {
        GraphBuilder {
            n,
            directed: true,
            edges: Vec::new(),
        }
    }

    /// New builder for an undirected graph on `n` nodes.
    pub fn new_undirected(n: usize) -> Self {
        GraphBuilder {
            n,
            directed: false,
            edges: Vec::new(),
        }
    }

    /// Number of nodes currently declared.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before duplicate merging).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Ensure the graph has at least `n` nodes.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
        }
    }

    /// Add a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.n as NodeId;
        self.n += 1;
        id
    }

    /// Add an edge with weight 1.0.
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v, 1.0);
    }

    /// Add an edge `(u, v)` with the given weight. For undirected builders
    /// the edge is stored once and expanded to two arcs when building.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or if the weight is not finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(
            (u as usize) < self.n,
            "node {u} out of range (n = {})",
            self.n
        );
        assert!(
            (v as usize) < self.n,
            "node {v} out of range (n = {})",
            self.n
        );
        assert!(
            weight.is_finite(),
            "edge weight must be finite, got {weight}"
        );
        self.edges.push((u, v, weight));
    }

    /// Whether an edge (in either orientation for undirected builders) has
    /// already been added. O(#edges); intended for generators that need to
    /// avoid duplicates on small graphs.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges
            .iter()
            .any(|&(a, b, _)| (a == u && b == v) || (!self.directed && a == v && b == u))
    }

    /// Finalize into a CSR [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.n;
        let directed = self.directed;

        // Expand undirected edges into symmetric arcs. Self-loops are kept as
        // a single arc in both cases.
        let mut arcs: Vec<(NodeId, NodeId, f64)> = if directed {
            self.edges
        } else {
            let mut a = Vec::with_capacity(self.edges.len() * 2);
            for &(u, v, w) in &self.edges {
                a.push((u, v, w));
                if u != v {
                    a.push((v, u, w));
                }
            }
            a
        };

        // Sort by (source, target) and merge duplicates by summing weights.
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut merged: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(arcs.len());
        for (u, v, w) in arcs {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        // Logical edge count.
        let m = if directed {
            merged.len()
        } else {
            // Count undirected edges once: arcs with u < v, plus self loops.
            merged.iter().filter(|&&(u, v, _)| u <= v).count()
        };

        // Out CSR.
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _, _) in &merged {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = Vec::with_capacity(merged.len());
        let mut out_weights = Vec::with_capacity(merged.len());
        for &(_, v, w) in &merged {
            out_targets.push(v);
            out_weights.push(w);
        }

        // The in direction is derived (shared outright for undirected
        // graphs, whose symmetric rows make it the out direction).
        Graph::from_out_columns(
            n,
            m,
            directed,
            out_offsets.into(),
            out_targets.into(),
            out_weights.into(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_merge() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0, 1), 3.5);
    }

    #[test]
    fn undirected_expansion() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 4);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn self_loop_stored_once() {
        let mut b = GraphBuilder::new_undirected(2);
        b.add_edge(0, 0, 2.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.weight(0, 0), 2.0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn add_node_grows() {
        let mut b = GraphBuilder::new_directed(0);
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c, 1.0);
        let g = b.build();
        assert_eq!(g.num_nodes(), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new_directed(1);
        b.add_edge(0, 1, 1.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_weight_panics() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn contains_edge_undirected() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1, 1.0);
        assert!(b.contains_edge(0, 1));
        assert!(b.contains_edge(1, 0));
        assert!(!b.contains_edge(1, 2));
    }
}
