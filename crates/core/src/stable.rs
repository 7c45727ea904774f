//! Classical stable coloring (color refinement / 1-WL).
//!
//! Starting from the single-color partition, repeatedly refine: two nodes
//! keep the same color only if, for every color `P_j`, they have the same
//! total outgoing weight into `P_j` and the same total incoming weight
//! from `P_j`. The fixpoint is the coarsest stable coloring.
//!
//! In the paper's lattice view stable coloring is the `ε = 0` special case
//! of quasi-stable coloring. It needs none of the incremental engine's
//! pair summaries, though — only each node's per-color weights, which one
//! pass over the node's arcs yields. Each round therefore sums every
//! node's sparse per-color weight signature straight from its arcs (in
//! arc order, through a per-color sum and stamp scratch), groups the nodes
//! of each color by signature, and ejects the disagreeing groups via
//! [`Partition::split_color`]. A round costs `O(m log Δ)` (the sort of
//! each node's distinct neighbor colors) with no upkeep per split, even
//! when `k → n`, and the number of rounds is at most `n`. This matches the
//! behaviour (though not the `O((n + m) log n)` bound) of the optimized
//! partition-refinement algorithms cited by the paper [Paige–Tarjan 1987,
//! Berkholz et al. 2017]; it is more than fast enough for the
//! laptop-scale datasets used in this reproduction.

use crate::partition::Partition;
use qsc_graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet};

/// Compute the (coarsest) stable coloring of `g`.
pub fn stable_coloring(g: &Graph) -> Partition {
    let n = g.num_nodes();
    let mut partition = Partition::unit(n);
    if n == 0 {
        return partition;
    }
    while refine_round(g, &mut partition) > 0 && partition.num_colors() < n {}
    partition
}

/// Sparse per-node weight signature: sorted `(color, weight-bits)` pairs for
/// the colors the node has non-zero weight towards/from. Weights are keyed
/// by their bit patterns and summed in arc order: exact for the small
/// integer weights of the evaluation graphs, and deterministic for any.
type Signature = Vec<(u32, u64)>;

/// Per-color weight sums of one node's arcs: `sum[c]` is valid while
/// `stamp[c]` holds the current pass's marker, and `colors` lists the
/// colors the pass reached.
struct SignatureScratch {
    sum: Vec<f64>,
    stamp: Vec<u32>,
    colors: Vec<u32>,
}

impl SignatureScratch {
    fn new(k: usize) -> Self {
        SignatureScratch {
            sum: vec![0.0; k],
            stamp: vec![0; k],
            colors: Vec::new(),
        }
    }

    /// The signature of one node's arcs `(neighbors, weights)`: each color
    /// the arcs reach with its weights summed in arc order, zero sums
    /// dropped. `marker` must be non-zero and distinct for every call
    /// on the same scratch.
    fn signature(
        &mut self,
        (nbrs, wts): (&[NodeId], &[f64]),
        p: &Partition,
        marker: u32,
    ) -> Signature {
        self.colors.clear();
        for (&u, &w) in nbrs.iter().zip(wts) {
            let c = p.color_of(u) as usize;
            if self.stamp[c] == marker {
                self.sum[c] += w;
            } else {
                self.stamp[c] = marker;
                self.sum[c] = w;
                self.colors.push(c as u32);
            }
        }
        self.colors.sort_unstable();
        self.colors
            .iter()
            .filter_map(|&c| {
                let w = self.sum[c as usize];
                (w != 0.0).then_some((c, w.to_bits()))
            })
            .collect()
    }
}

/// One round of refinement w.r.t. the round-start partition: group each
/// color's members by their out- and in-signatures and eject every
/// disagreeing group as a new color. Returns the number of splits performed.
fn refine_round(g: &Graph, p: &mut Partition) -> usize {
    let n = p.num_nodes();
    let k = p.num_colors();

    // Group nodes by (round-start color, out-signature, in-signature). A
    // node costs O(deg log deg), keeping a round O(m log Δ) even when
    // k → n.
    let directed = g.is_directed();
    let mut sig_to_group: HashMap<(u32, Signature, Signature), u32> = HashMap::new();
    let mut group_of = vec![0u32; n];
    let mut scratch = SignatureScratch::new(k);
    for v in 0..n as u32 {
        // Distinct markers for the out- and in-passes of the same node, so
        // the second pass doesn't mistake the first pass's stamps for its
        // own.
        let out_sig = scratch.signature(g.out_arcs(v), p, 2 * v + 1);
        // For undirected graphs the in-signature equals the out-signature
        // for every node, so a constant placeholder groups identically.
        let in_sig = if directed {
            scratch.signature(g.in_arcs(v), p, 2 * v + 2)
        } else {
            Signature::new()
        };
        let key = (p.color_of(v), out_sig, in_sig);
        let next = sig_to_group.len() as u32;
        group_of[v as usize] = *sig_to_group.entry(key).or_insert(next);
    }

    // Apply the grouping color by color: the first-seen group keeps the
    // color id, every other group is ejected as a fresh color.
    let mut splits = 0usize;
    let mut groups: Vec<u32> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for c in 0..k as u32 {
        groups.clear();
        seen.clear();
        for &v in p.members(c) {
            let gid = group_of[v as usize];
            if seen.insert(gid) {
                groups.push(gid);
            }
        }
        for &gid in groups.iter().skip(1) {
            p.split_color(c, |v| group_of[v as usize] == gid)
                .expect("signature groups are non-empty and proper");
            splits += 1;
        }
    }
    splits
}

/// Whether `p` is a stable coloring of `g` (exact equality of weights).
pub fn is_stable(g: &Graph, p: &Partition) -> bool {
    crate::q_error::max_q_error(g, p) == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsc_graph::generators;
    use qsc_graph::GraphBuilder;

    #[test]
    fn path_graph_stable_coloring() {
        // Path 0-1-2-3-4: stable coloring distinguishes by distance to the
        // ends: {0,4}, {1,3}, {2}.
        let mut b = GraphBuilder::new_undirected(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 3);
        assert_eq!(p.color_of(0), p.color_of(4));
        assert_eq!(p.color_of(1), p.color_of(3));
        assert_ne!(p.color_of(0), p.color_of(2));
        assert!(is_stable(&g, &p));
    }

    #[test]
    fn regular_graph_single_color() {
        // A cycle is 2-regular: stable coloring is the unit partition.
        let mut b = GraphBuilder::new_undirected(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6, 1.0);
        }
        let g = b.build();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 1);
        assert!(is_stable(&g, &p));
    }

    #[test]
    fn star_graph_two_colors() {
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 2);
        assert_eq!(p.size(p.color_of(1)), 4);
        assert!(is_stable(&g, &p));
    }

    #[test]
    fn karate_club_has_27_colors() {
        // The paper (Fig. 1a) reports 27 colors for the stable coloring of
        // the karate club graph.
        let g = generators::karate_club();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 27);
        assert!(is_stable(&g, &p));
    }

    #[test]
    fn colored_regular_graph_compresses() {
        // The Fig. 2 synthetic graph has a stable coloring with at most
        // `groups` colors by construction.
        let g = generators::colored_regular(20, 10, 4, 3, 1);
        let p = stable_coloring(&g);
        assert!(p.num_colors() <= 20, "got {} colors", p.num_colors());
        assert!(is_stable(&g, &p));
    }

    #[test]
    fn directed_graph_uses_both_directions() {
        // 0 -> 1, 2 -> 1: nodes 0 and 2 both have out-degree 1 / in-degree 0,
        // and node 1 is distinguished.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 1, 1.0);
        let g = b.build();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 2);
        assert_eq!(p.color_of(0), p.color_of(2));
        // Now make the in-weights differ: 0 -> 1 with weight 2.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 2.0);
        b.add_edge(2, 1, 1.0);
        let g = b.build();
        let p = stable_coloring(&g);
        assert_eq!(p.num_colors(), 3);
    }

    #[test]
    fn stable_coloring_is_coarsest() {
        // For the karate club, the stable coloring should be refined by the
        // discrete partition and refine the unit partition (sanity on the
        // lattice ordering).
        let g = generators::karate_club();
        let p = stable_coloring(&g);
        assert!(Partition::discrete(34).is_refinement_of(&p));
        assert!(p.is_refinement_of(&Partition::unit(34)));
    }

    #[test]
    fn agrees_with_rothko_at_zero_error() {
        // The ε = 0 special case must land on the
        // same fixpoint cardinality the q = 0 Rothko run refines towards.
        use crate::rothko::{Rothko, RothkoConfig};
        let g = generators::barabasi_albert(150, 3, 5);
        let stable = stable_coloring(&g);
        assert!(is_stable(&g, &stable));
        let rothko = Rothko::new(RothkoConfig::with_target_error(0.0)).run(&g);
        assert_eq!(rothko.max_q_error, 0.0);
        assert!(rothko.partition.num_colors() >= stable.num_colors());
    }
}
