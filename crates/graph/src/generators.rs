//! Seeded synthetic graph generators.
//!
//! Every generator takes an explicit seed so the benchmark harness is fully
//! deterministic. These generators serve as laptop-scale stand-ins for the
//! evaluation datasets of the paper (`qsc-datasets` maps each dataset to
//! its generator):
//!
//! * [`barabasi_albert`] / [`powerlaw_cluster`] — scale-free social networks
//!   (DBLP, Astrophysics, Facebook, Deezer, Enron, Epinions stand-ins).
//! * [`hub_and_spoke`] — airline-style route networks (OpenFlights).
//! * [`planted_partition`] — community-structured graphs.
//! * `grid_flow_network` (in `qsc-flow`) builds on [`grid`] — stereo-vision
//!   max-flow instances (Tsukuba, Venus, Sawtooth, Cells).
//! * [`colored_regular`] — the synthetic 1000-node graph of Fig. 2 whose
//!   stable coloring has exactly `k` colors, used in the robustness
//!   experiment.
//! * [`karate_club`] — Zachary's karate club (Fig. 1), embedded verbatim.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Erdős–Rényi `G(n, p)` random undirected graph.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                b.add_edge(u as NodeId, v as NodeId, 1.0);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)` with exactly `m` distinct undirected edges.
pub fn erdos_renyi_nm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m <= n * (n - 1) / 2, "too many edges requested");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m);
    while chosen.len() < m {
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        chosen.insert(key);
    }
    let mut b = GraphBuilder::new_undirected(n);
    // qsc-audit: allow(hash-iter-determinism) -- drained into a Vec and sorted on the next line; the hash order never reaches the builder
    let mut edges: Vec<(NodeId, NodeId)> = chosen.into_iter().collect();
    edges.sort_unstable();
    for (u, v) in edges {
        b.add_edge(u, v, 1.0);
    }
    b.build()
}

/// Barabási–Albert preferential-attachment graph: starts from a clique of
/// `m0 = m` nodes, each new node attaches to `m` existing nodes chosen with
/// probability proportional to degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    // Repeated-node list for preferential attachment sampling.
    let mut targets: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // Seed clique on m+1 nodes.
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.add_edge(u as NodeId, v as NodeId, 1.0);
            targets.push(u as NodeId);
            targets.push(v as NodeId);
        }
    }
    for new in (m + 1)..n {
        // Order-preserving dedup (m is small): iterating a HashSet here
        // would append to `targets` in per-process hash order and make the
        // "seeded" graph differ between runs.
        let mut picked: Vec<NodeId> = Vec::with_capacity(m);
        while picked.len() < m {
            let t = targets[rng.random_range(0..targets.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            b.add_edge(new as NodeId, t, 1.0);
            targets.push(new as NodeId);
            targets.push(t);
        }
    }
    b.build()
}

/// Holme–Kim style power-law graph with tunable clustering: like
/// Barabási–Albert but after each preferential attachment, with probability
/// `p_triangle` the next edge closes a triangle with a neighbour of the
/// previous target. Produces scale-free graphs with community-like local
/// structure, a better stand-in for social networks.
pub fn powerlaw_cluster(n: usize, m: usize, p_triangle: f64, seed: u64) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut targets: Vec<NodeId> = Vec::new();
    let add = |b: &mut GraphBuilder,
               adj: &mut Vec<Vec<NodeId>>,
               targets: &mut Vec<NodeId>,
               u: NodeId,
               v: NodeId| {
        if u == v || adj[u as usize].contains(&v) {
            return false;
        }
        b.add_edge(u, v, 1.0);
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        targets.push(u);
        targets.push(v);
        true
    };
    for u in 0..=m {
        for v in (u + 1)..=m {
            add(&mut b, &mut adj, &mut targets, u as NodeId, v as NodeId);
        }
    }
    for new in (m + 1)..n {
        let mut added = 0usize;
        let mut last_target: Option<NodeId> = None;
        let mut guard = 0usize;
        while added < m && guard < 50 * m {
            guard += 1;
            let do_triangle = last_target.is_some() && rng.random::<f64>() < p_triangle;
            let t = if do_triangle {
                let lt = last_target.unwrap();
                let nbrs = &adj[lt as usize];
                if nbrs.is_empty() {
                    targets[rng.random_range(0..targets.len())]
                } else {
                    nbrs[rng.random_range(0..nbrs.len())]
                }
            } else {
                targets[rng.random_range(0..targets.len())]
            };
            if add(&mut b, &mut adj, &mut targets, new as NodeId, t) {
                added += 1;
                last_target = Some(t);
            }
        }
    }
    b.build()
}

/// Planted-partition (stochastic block model with equal-sized blocks):
/// `k` communities of `n / k` nodes; intra-community edge probability
/// `p_in`, inter-community probability `p_out`.
pub fn planted_partition(n: usize, k: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(k >= 1 && n >= k);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    let block = |v: usize| v * k / n; // balanced blocks
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block(u) == block(v) { p_in } else { p_out };
            if rng.random::<f64>() < p {
                b.add_edge(u as NodeId, v as NodeId, 1.0);
            }
        }
    }
    b.build()
}

/// Hub-and-spoke network resembling an airline route map (OpenFlights
/// stand-in): `hubs` highly connected hub nodes forming a dense core, each of
/// the remaining nodes connects to `spokes_per_node` hubs chosen by a skewed
/// (Zipf-like) distribution, plus a few random point-to-point routes.
pub fn hub_and_spoke(n: usize, hubs: usize, spokes_per_node: usize, seed: u64) -> Graph {
    assert!(hubs >= 2 && n > hubs);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    // Dense hub core.
    for u in 0..hubs {
        for v in (u + 1)..hubs {
            if rng.random::<f64>() < 0.5 {
                b.add_edge(u as NodeId, v as NodeId, 1.0);
            }
        }
    }
    // Zipf-ish hub popularity: hub h gets weight 1/(h+1).
    let weights: Vec<f64> = (0..hubs).map(|h| 1.0 / (h as f64 + 1.0)).collect();
    // qsc-audit: allow(canonical-float-sum) -- one-shot serial sum over a tiny fixed-order Vec at graph-generation time; qsc-graph sits below qsc-linalg in the crate DAG so lanes::sum is unreachable here
    let total: f64 = weights.iter().sum();
    let pick_hub = |rng: &mut StdRng| -> NodeId {
        let mut x = rng.random::<f64>() * total;
        for (h, &w) in weights.iter().enumerate() {
            if x < w {
                return h as NodeId;
            }
            x -= w;
        }
        (hubs - 1) as NodeId
    };
    for v in hubs..n {
        let mut seen = std::collections::HashSet::new();
        while seen.len() < spokes_per_node.min(hubs) {
            seen.insert(pick_hub(&mut rng));
        }
        // qsc-audit: allow(hash-iter-determinism) -- drained into a Vec and sorted before any edge is added; the hash order never reaches the builder
        let mut picked: Vec<NodeId> = seen.into_iter().collect();
        picked.sort_unstable();
        for h in picked {
            b.add_edge(v as NodeId, h, 1.0);
        }
        // Occasional point-to-point route.
        if rng.random::<f64>() < 0.1 && v > hubs + 1 {
            let other = rng.random_range(hubs..v) as NodeId;
            if other != v as NodeId {
                b.add_edge(v as NodeId, other, 1.0);
            }
        }
    }
    b.build()
}

/// `width x height` 4-connected grid graph (undirected, unit weights).
/// Node `(r, c)` has id `r * width + c`.
pub fn grid(width: usize, height: usize) -> Graph {
    let n = width * height;
    let mut b = GraphBuilder::new_undirected(n);
    let id = |r: usize, c: usize| (r * width + c) as NodeId;
    for r in 0..height {
        for c in 0..width {
            if c + 1 < width {
                b.add_edge(id(r, c), id(r, c + 1), 1.0);
            }
            if r + 1 < height {
                b.add_edge(id(r, c), id(r + 1, c), 1.0);
            }
        }
    }
    b.build()
}

/// The synthetic "artificially regular" graph of Fig. 2: `groups` groups of
/// `group_size` nodes each; a random `blueprint_degree`-regular blueprint
/// over the groups; between two blueprint-adjacent groups every node connects
/// to exactly `intra_degree` nodes of the other group in a circulant pattern.
///
/// By construction the partition into groups is an exact stable coloring, so
/// the stable coloring of the graph has at most `groups` colors. Adding a few
/// random edges (see [`perturb_add_edges`]) destroys that property for the
/// stable coloring but barely affects q-stable colorings — the robustness
/// experiment.
pub fn colored_regular(
    groups: usize,
    group_size: usize,
    blueprint_degree: usize,
    intra_degree: usize,
    seed: u64,
) -> Graph {
    assert!(blueprint_degree < groups);
    assert!(intra_degree <= group_size);
    let n = groups * group_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected(n);
    // Random near-regular blueprint: a union of `blueprint_degree / 2`
    // random perfect matchings over a cyclic arrangement (shifted cycles),
    // which guarantees regularity when `groups` allows it. We use shifted
    // cycles: blueprint edge {g, (g + s) mod groups} for s in a random set of
    // shifts. Each shift contributes degree 2 (or 1 if s == groups/2).
    let mut shifts: Vec<usize> = (1..groups).collect();
    shifts.shuffle(&mut rng);
    let mut chosen_shifts = Vec::new();
    let mut degree = 0usize;
    for s in shifts {
        if degree >= blueprint_degree {
            break;
        }
        // Skip complementary shifts already chosen (they give the same edges).
        if chosen_shifts.contains(&(groups - s)) || chosen_shifts.contains(&s) {
            continue;
        }
        let contribution = if 2 * s == groups { 1 } else { 2 };
        if degree + contribution > blueprint_degree {
            continue;
        }
        chosen_shifts.push(s);
        degree += contribution;
    }
    let node = |g: usize, i: usize| (g * group_size + i) as NodeId;
    for g in 0..groups {
        for &s in &chosen_shifts {
            let h = (g + s) % groups;
            // Add the biregular bipartite circulant between group g and h.
            // To avoid adding each group pair twice, only add when the edge
            // (g, h) has not been covered from the other side: shifted-cycle
            // edges are generated once per ordered pair (g, g+s), which is
            // exactly once per unordered pair unless 2s == groups, where we
            // restrict to g < h.
            if 2 * s == groups && g > h {
                continue;
            }
            for i in 0..group_size {
                for d in 0..intra_degree {
                    let j = (i + d) % group_size;
                    b.add_edge(node(g, i), node(h, j), 1.0);
                }
            }
        }
    }
    b.build()
}

/// The Fig. 2 robustness graph: `groups` groups of `group_size` nodes whose
/// *stable* coloring is (essentially) the group partition.
///
/// A random Erdős–Rényi blueprint over the groups decides which groups are
/// connected; between two connected groups every node is matched to exactly
/// `intra_degree` nodes of the other group in a circulant pattern, so the
/// bipartite graph between any two groups is biregular and the group
/// partition is a stable coloring. Because the blueprint is a random graph,
/// its own stable coloring is (with high probability) discrete, so the
/// expanded graph's coarsest stable coloring has close to `groups` colors —
/// unlike [`colored_regular`], whose total regularity collapses 1-WL to a
/// single color.
///
/// With `groups = 100`, `group_size = 10`, `blueprint_p ≈ 0.44` and
/// `intra_degree = 1` this reproduces the scale of the paper's synthetic
/// robustness graph (|V| = 1000, |E| ≈ 21 600, 100 stable colors).
pub fn stable_blueprint_graph(
    groups: usize,
    group_size: usize,
    blueprint_p: f64,
    intra_degree: usize,
    seed: u64,
) -> Graph {
    assert!(groups >= 2 && group_size >= 1);
    assert!(intra_degree <= group_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = groups * group_size;
    let mut b = GraphBuilder::new_undirected(n);
    let node = |g: usize, i: usize| (g * group_size + i) as NodeId;
    for g in 0..groups {
        for h in (g + 1)..groups {
            if rng.random::<f64>() < blueprint_p {
                for i in 0..group_size {
                    for d in 0..intra_degree {
                        let j = (i + d) % group_size;
                        b.add_edge(node(g, i), node(h, j), 1.0);
                    }
                }
            }
        }
    }
    b.build()
}

/// Add `extra` random edges (not already present, no self-loops) to a graph,
/// returning a new graph. Used by the Fig. 2 robustness experiment.
pub fn perturb_add_edges(g: &Graph, extra: usize, seed: u64) -> Graph {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let directed = g.is_directed();
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < extra && guard < extra * 100 + 1000 {
        guard += 1;
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u == v || g.has_edge(u, v) {
            continue;
        }
        b.add_edge(u, v, 1.0);
        added += 1;
    }
    b.build()
}

/// Zachary's karate club graph (Zachary 1977): 34 nodes, 78 edges, the
/// running example of Fig. 1. Node ids are the usual 1..34 labels minus one.
pub fn karate_club() -> Graph {
    // Standard edge list (0-indexed).
    const EDGES: &[(u32, u32)] = &[
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (0, 7),
        (0, 8),
        (0, 10),
        (0, 11),
        (0, 12),
        (0, 13),
        (0, 17),
        (0, 19),
        (0, 21),
        (0, 31),
        (1, 2),
        (1, 3),
        (1, 7),
        (1, 13),
        (1, 17),
        (1, 19),
        (1, 21),
        (1, 30),
        (2, 3),
        (2, 7),
        (2, 8),
        (2, 9),
        (2, 13),
        (2, 27),
        (2, 28),
        (2, 32),
        (3, 7),
        (3, 12),
        (3, 13),
        (4, 6),
        (4, 10),
        (5, 6),
        (5, 10),
        (5, 16),
        (6, 16),
        (8, 30),
        (8, 32),
        (8, 33),
        (9, 33),
        (13, 33),
        (14, 32),
        (14, 33),
        (15, 32),
        (15, 33),
        (18, 32),
        (18, 33),
        (19, 33),
        (20, 32),
        (20, 33),
        (22, 32),
        (22, 33),
        (23, 25),
        (23, 27),
        (23, 29),
        (23, 32),
        (23, 33),
        (24, 25),
        (24, 27),
        (24, 31),
        (25, 31),
        (26, 29),
        (26, 33),
        (27, 33),
        (28, 31),
        (28, 33),
        (29, 32),
        (29, 33),
        (30, 32),
        (30, 33),
        (31, 32),
        (31, 33),
        (32, 33),
    ];
    let mut b = GraphBuilder::new_undirected(34);
    for &(u, v) in EDGES {
        b.add_edge(u, v, 1.0);
    }
    b.build()
}

/// A layered "pathological" network in the spirit of Fig. 4 / Example 7 of
/// the paper: `layers` layers of `layer_size` nodes each plus a source and a
/// target. Between consecutive layers the edges form a *staircase*:
/// node 0 connects to nodes 0 and 1 of the next layer, node `i` (for
/// `0 < i < layer_size-1`) connects to node `i+1`, and the last node connects
/// to the last node. All capacities are 1, the source feeds every node of
/// the first layer and every node of the last layer feeds the target.
///
/// The partition {s}, layer 1, ..., layer k, {t} is a 1-stable coloring
/// (degrees between consecutive layers differ by at most 1), yet:
/// * the maximum *uniform* flow between consecutive layers is 0, so the
///   lower-bound capacities ĉ₁ of Theorem 6 are all 0, and
/// * the total capacities ĉ₂ are `layer_size + 1`, so the reduced graph
///   overestimates the true max-flow (which decays with the number of
///   layers because each staircase transition strands one unit of flow).
///
/// Returns `(graph, source, target)`.
pub fn pathological_flow_layers(layers: usize, layer_size: usize) -> (Graph, NodeId, NodeId) {
    assert!(layers >= 2 && layer_size >= 3);
    let n = layers * layer_size + 2;
    let s = (n - 2) as NodeId;
    let t = (n - 1) as NodeId;
    let node = |layer: usize, i: usize| (layer * layer_size + i) as NodeId;
    let mut b = GraphBuilder::new_directed(n);
    for i in 0..layer_size {
        b.add_edge(s, node(0, i), 1.0);
        b.add_edge(node(layers - 1, i), t, 1.0);
    }
    for l in 0..layers - 1 {
        // Staircase: 0 -> {0, 1}; i -> i+1 for 0 < i < layer_size - 1;
        // last -> last.
        b.add_edge(node(l, 0), node(l + 1, 0), 1.0);
        b.add_edge(node(l, 0), node(l + 1, 1), 1.0);
        for i in 1..layer_size - 1 {
            b.add_edge(node(l, i), node(l + 1, i + 1), 1.0);
        }
        b.add_edge(node(l, layer_size - 1), node(l + 1, layer_size - 1), 1.0);
    }
    (b.build(), s, t)
}

/// The staircase bipartite pattern used between consecutive layers of
/// [`pathological_flow_layers`], as an `n x n` bipartite graph with `n + 1`
/// unit-capacity edges. Its only uniform flow is the zero flow (the paper's
/// Example 7), while its total capacity is `n + 1`.
pub fn staircase_bipartite(n: usize) -> Vec<(u32, u32, f64)> {
    assert!(n >= 3);
    let mut edges = Vec::with_capacity(n + 1);
    edges.push((0, 0, 1.0));
    edges.push((0, 1, 1.0));
    for i in 1..n - 1 {
        edges.push((i as u32, (i + 1) as u32, 1.0));
    }
    edges.push(((n - 1) as u32, (n - 1) as u32, 1.0));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_deterministic() {
        let a = erdos_renyi(50, 0.1, 7);
        let b = erdos_renyi(50, 0.1, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        let c = erdos_renyi(50, 0.1, 8);
        // Overwhelmingly likely to differ.
        assert!(a.num_edges() != c.num_edges() || a.edges() != c.edges());
    }

    #[test]
    fn erdos_renyi_nm_exact_edges() {
        let g = erdos_renyi_nm(100, 250, 3);
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 250);
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let n = 200;
        let m = 3;
        let g = barabasi_albert(n, m, 11);
        // Seed clique C(m+1, 2) edges + (n - m - 1) * m.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.num_edges(), expected);
        assert_eq!(g.num_nodes(), n);
        // Scale-free: max degree should be well above m.
        let max_deg = g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        assert!(
            max_deg > 3 * m,
            "max degree {max_deg} too small for BA graph"
        );
    }

    #[test]
    fn powerlaw_cluster_reasonable() {
        let g = powerlaw_cluster(300, 4, 0.5, 5);
        assert_eq!(g.num_nodes(), 300);
        assert!(g.num_edges() > 300);
    }

    #[test]
    fn planted_partition_community_density() {
        let g = planted_partition(120, 3, 0.3, 0.01, 9);
        assert_eq!(g.num_nodes(), 120);
        // Count intra vs inter block edges.
        let block = |v: u32| (v as usize) * 3 / 120;
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v, _) in g.edges() {
            if block(u) == block(v) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter, "intra {intra} should dominate inter {inter}");
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.num_nodes(), 12);
        // Edges: 3 * 3 horizontal rows? width-1 per row * height + height-1 per col * width
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        // Corner has degree 2, middle has degree 4.
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(5), 4);
    }

    #[test]
    fn hub_and_spoke_hubs_dominate() {
        let g = hub_and_spoke(500, 20, 2, 13);
        assert_eq!(g.num_nodes(), 500);
        let hub_deg: usize = (0..20).map(|h| g.out_degree(h)).sum();
        let avg_hub = hub_deg as f64 / 20.0;
        let spoke_deg: usize = (20..500).map(|v| g.out_degree(v as u32)).sum();
        let avg_spoke = spoke_deg as f64 / 480.0;
        assert!(
            avg_hub > 5.0 * avg_spoke,
            "hubs {avg_hub} vs spokes {avg_spoke}"
        );
    }

    #[test]
    fn colored_regular_is_group_regular() {
        let groups = 20;
        let gs = 10;
        let g = colored_regular(groups, gs, 4, 3, 1);
        assert_eq!(g.num_nodes(), groups * gs);
        // Every node within a group must have identical degree (stable
        // coloring refines the group partition to itself).
        for grp in 0..groups {
            let d0 = g.out_degree((grp * gs) as u32);
            for i in 1..gs {
                assert_eq!(
                    g.out_degree((grp * gs + i) as u32),
                    d0,
                    "group {grp} irregular"
                );
            }
        }
    }

    #[test]
    fn stable_blueprint_graph_is_group_regular() {
        let g = stable_blueprint_graph(30, 8, 0.4, 1, 5);
        assert_eq!(g.num_nodes(), 240);
        // Within every group all nodes have the same degree.
        for grp in 0..30 {
            let d0 = g.out_degree((grp * 8) as u32);
            for i in 1..8 {
                assert_eq!(g.out_degree((grp * 8 + i) as u32), d0);
            }
        }
        // Groups do not all share the same degree (1-WL can tell them apart).
        let distinct: std::collections::HashSet<usize> =
            (0..30).map(|grp| g.out_degree((grp * 8) as u32)).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn fig2_robustness_graph_scale() {
        // The paper's robustness graph: |V| = 1000, |E| ≈ 21 600.
        let g = stable_blueprint_graph(100, 10, 0.44, 1, 42);
        assert_eq!(g.num_nodes(), 1000);
        assert!(
            g.num_edges() > 18_000 && g.num_edges() < 26_000,
            "edges = {}",
            g.num_edges()
        );
    }

    #[test]
    fn fig2_scale_graph() {
        // The paper's robustness graph: |V| = 1000, |E| ~ 21600.
        let g = colored_regular(100, 10, 9, 5, 42);
        assert_eq!(g.num_nodes(), 1000);
        assert!(
            g.num_edges() > 15_000 && g.num_edges() < 30_000,
            "edges = {}",
            g.num_edges()
        );
    }

    #[test]
    fn perturb_adds_requested_edges() {
        let g = grid(10, 10);
        let m0 = g.num_edges();
        let p = perturb_add_edges(&g, 25, 3);
        assert_eq!(p.num_edges(), m0 + 25);
        assert_eq!(p.num_nodes(), g.num_nodes());
    }

    #[test]
    fn karate_club_dimensions() {
        let g = karate_club();
        assert_eq!(g.num_nodes(), 34);
        assert_eq!(g.num_edges(), 78);
        // The two "club leaders" 1 and 34 (0-indexed 0 and 33) have the
        // highest degrees.
        let mut degs: Vec<(usize, u32)> = g.nodes().map(|v| (g.out_degree(v), v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top2: Vec<u32> = degs.iter().take(2).map(|&(_, v)| v).collect();
        assert!(top2.contains(&0) && top2.contains(&33));
    }

    #[test]
    fn pathological_layers_builds() {
        let (g, s, t) = pathological_flow_layers(5, 6);
        assert_eq!(g.num_nodes(), 32);
        assert_eq!(g.out_degree(s), 6);
        assert_eq!(g.in_degree(t), 6);
        // Between consecutive layers there are layer_size + 1 edges.
        let inter_layer_edges = g.num_edges() - 12;
        assert_eq!(inter_layer_edges, 4 * 7);
    }

    #[test]
    fn staircase_bipartite_structure() {
        let edges = staircase_bipartite(5);
        assert_eq!(edges.len(), 6);
        // Left degrees: node 0 has 2, the rest have 1.
        let deg0 = edges.iter().filter(|&&(x, _, _)| x == 0).count();
        assert_eq!(deg0, 2);
        // Right degrees: the last node has 2, the rest have 1.
        let deg_last = edges.iter().filter(|&&(_, y, _)| y == 4).count();
        assert_eq!(deg_last, 2);
    }
}
