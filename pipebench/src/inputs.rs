//! Input generation. Everything here is a pure function of the seed (and,
//! for the churn batches, of the graph read back from the generated file),
//! and runs before any clock starts.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use qsc_core::rothko::{Rothko, RothkoConfig};
use qsc_core::Partition;
use qsc_graph::{generators, io, Graph, GraphBuilder, NodeId};
use rand::prelude::*;

/// Write a Barabási–Albert graph as an edge list file.
pub fn write_ba_edge_list(path: &Path, nodes: usize, m: usize, seed: u64) -> Result<Graph, String> {
    let g = generators::barabasi_albert(nodes, m, seed);
    let mut w = BufWriter::new(File::create(path).map_err(|e| format!("create {path:?}: {e}"))?);
    io::write_edge_list(&g, &mut w).map_err(|e| format!("write edge list: {e}"))?;
    w.flush().map_err(|e| format!("flush edge list: {e}"))?;
    Ok(g)
}

/// Write a `width × height` grid flow network with capacities snapped to
/// quarter-integers (exact in f64, so warm and cold flow values can be
/// compared bit for bit) as a DIMACS file.
pub fn write_grid_network(
    path: &Path,
    width: usize,
    height: usize,
    seed: u64,
) -> Result<(), String> {
    let (net, _) = qsc_flow::generators::grid_flow_network(width, height, 3.0, 0.25, seed);
    let mut b = GraphBuilder::new_directed(net.num_nodes());
    for (u, v, w) in net.graph.arcs() {
        b.add_edge(u, v, ((w * 4.0).round()).max(1.0) / 4.0);
    }
    let g = b.build();
    let mut w = BufWriter::new(File::create(path).map_err(|e| format!("create {path:?}: {e}"))?);
    io::write_dimacs_max_flow(&g, net.source, net.sink, &mut w)
        .map_err(|e| format!("write dimacs: {e}"))?;
    w.flush().map_err(|e| format!("flush dimacs: {e}"))
}

/// The two highest-degree nodes (ties broken by the lower id): the fixed
/// max-flow terminals of the graph workloads.
pub fn hub_terminals(g: &Graph) -> (NodeId, NodeId) {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    (order[0], order[1])
}

/// One color for everything except the two terminals, which get their own.
/// A singleton is never split, so they stay singletons unless coarsening
/// merges one away, which every answer checks.
pub fn pinned_partition(n: usize, s: NodeId, t: NodeId) -> Partition {
    let mut assignment = vec![0u32; n];
    assignment[s as usize] = 1;
    assignment[t as usize] = 2;
    Partition::from_assignment(&assignment)
}

/// The maximum q-error the pinned refinement reaches at `colors` colors:
/// the error target of a workload whose color count floats.
pub fn probe_error(g: &Graph, colors: usize) -> f64 {
    let (s, t) = hub_terminals(g);
    let config = RothkoConfig {
        max_colors: colors,
        initial: Some(pinned_partition(g.num_nodes(), s, t)),
        threads: Some(1),
        ..Default::default()
    };
    Rothko::new(config).run(g).max_q_error
}

/// Sliding-window edge churn over the edges of `g`: round `r` deletes
/// `per_round` random live edges and re-inserts the edges deleted in round
/// `r - 1`, so the edge set (and the color count) stays stationary.
/// Returns, per round, the indices into `g.edges()` that the round deletes.
pub fn edge_window(g: &Graph, per_round: usize, rounds: usize, seed: u64) -> Vec<Vec<u32>> {
    let m = g.num_edges();
    assert!(2 * per_round < m, "churn window larger than the graph");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED6E_C4A2);
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(rounds);
    // mark[i] == r + 1 when edge i is deleted in round r.
    let mut mark = vec![0u32; m];
    for r in 0..rounds {
        let this = r as u32 + 1;
        let mut picked = Vec::with_capacity(per_round);
        while picked.len() < per_round {
            let i = rng.random_range(0..m);
            // Skip edges still deleted by the previous round or already
            // picked for this one.
            if mark[i] == this || (this > 1 && mark[i] == this - 1) {
                continue;
            }
            mark[i] = this;
            picked.push(i as u32);
        }
        out.push(picked);
    }
    out
}

/// Sliding-window node churn: per round, `per_round` new nodes each wired
/// to up to `wire` original nodes chosen with probability proportional to
/// their degree (an endpoint of a uniformly random original edge).
/// Returns, per round, `per_round * wire` original target ids.
pub fn node_window(
    g: &Graph,
    per_round: usize,
    wire: usize,
    rounds: usize,
    seed: u64,
) -> Vec<Vec<NodeId>> {
    let edges = g.edges();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x40DE_5EED);
    (0..rounds)
        .map(|_| {
            (0..per_round * wire)
                .map(|_| {
                    let (u, v, _) = edges[rng.random_range(0..edges.len())];
                    if rng.random_bool(0.5) {
                        u
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_window_never_redeletes_a_missing_edge() {
        let g = generators::barabasi_albert(300, 3, 5);
        let rounds = edge_window(&g, 20, 30, 9);
        assert_eq!(rounds.len(), 30);
        for w in rounds.windows(2) {
            for i in &w[1] {
                assert!(!w[0].contains(i), "edge {i} deleted while still missing");
            }
        }
        assert_eq!(
            rounds,
            edge_window(&g, 20, 30, 9),
            "same seed, same batches"
        );
    }
}
