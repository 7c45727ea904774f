//! Maximum *uniform* flow in a bipartite graph (Definition 5, Lemma 8).
//!
//! A flow in a bipartite graph `(X, Y, c)` is *uniform* when every left node
//! sends the same amount and every right node receives the same amount. The
//! maximum uniform flow `maxUFlow` defines the lower-bound capacities `ĉ₁`
//! of Theorem 6; the upper-bound capacities `ĉ₂` are simply the total
//! capacity `c(X, Y)`.
//!
//! `maxUFlow` is computed by binary search on the uniform value `F`: a
//! uniform flow of value `F` exists iff the auxiliary network
//! `s → x (F/|X|)`, `x → y (c(x,y))`, `y → t (F/|Y|)` has max-flow `F`
//! (uniform flows scale, so feasibility is monotone in `F`).

use crate::dinic;
use crate::network::ResidualGraph;
use qsc_graph::Bipartite;

/// Compute the maximum uniform flow value of a bipartite graph.
///
/// `tolerance` controls the binary-search precision (absolute).
pub fn max_uniform_flow(bipartite: &Bipartite, tolerance: f64) -> f64 {
    let nx = bipartite.num_left();
    let ny = bipartite.num_right();
    if nx == 0 || ny == 0 || bipartite.num_edges() == 0 {
        return 0.0;
    }
    // Upper bound: every left node must send F/|X| <= c(x, Y) and every right
    // node must receive F/|Y| <= c(X, y).
    let min_left = bipartite
        .left_weights()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let min_right = bipartite
        .right_weights()
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let mut hi = (min_left * nx as f64).min(min_right * ny as f64);
    if hi <= 0.0 {
        return 0.0;
    }
    // Quick accept: if the full value hi is feasible, no search is needed.
    if feasible(bipartite, hi, tolerance) {
        return hi;
    }
    let mut lo = 0.0f64;
    while hi - lo > tolerance.max(1e-12) * (1.0 + hi) {
        let mid = 0.5 * (lo + hi);
        if feasible(bipartite, mid, tolerance) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether a uniform flow of value `f` exists.
fn feasible(bipartite: &Bipartite, f: f64, tolerance: f64) -> bool {
    if f <= 0.0 {
        return true;
    }
    let nx = bipartite.num_left();
    let ny = bipartite.num_right();
    // Nodes: 0..nx left, nx..nx+ny right, source = nx+ny, sink = nx+ny+1.
    let source = (nx + ny) as u32;
    let sink = (nx + ny + 1) as u32;
    let per_left = f / nx as f64;
    let per_right = f / ny as f64;
    let mut arcs = Vec::with_capacity(nx + ny + bipartite.num_edges());
    arcs.extend((0..nx as u32).map(|x| (source, x, per_left)));
    arcs.extend((0..ny as u32).map(|y| ((nx + y as usize) as u32, sink, per_right)));
    arcs.extend(
        bipartite
            .edges()
            .map(|(x, y, c)| (x, (nx + y as usize) as u32, c)),
    );
    let mut rg = ResidualGraph::from_arcs(nx + ny + 2, &arcs);
    let (value, _) = dinic::run(&mut rg, source, sink);
    value >= f - tolerance.max(1e-9) * (1.0 + f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biregular_graph_reaches_total_capacity() {
        // Corollary 9 (1): a biregular bipartite graph has
        // maxUFlow = c(X, Y).
        // K_{3,3} with unit capacities: total 9.
        let b = Bipartite::from_dense(&[
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let f = max_uniform_flow(&b, 1e-9);
        assert!((f - 9.0).abs() < 1e-6, "got {f}");
    }

    #[test]
    fn circulant_biregular_graph() {
        // Each left node connects to 2 of 4 right nodes in a circulant
        // pattern: (2,2)-biregular, maxUFlow = 8.
        let mut rows = vec![vec![0.0; 4]; 4];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 1.0;
            row[(i + 1) % 4] = 1.0;
        }
        let b = Bipartite::from_dense(&rows);
        let f = max_uniform_flow(&b, 1e-9);
        assert!((f - 8.0).abs() < 1e-5, "got {f}");
    }

    #[test]
    fn fig4_staircase_uniform_flow_is_zero() {
        // Example 7: the staircase bipartite graph between consecutive
        // layers admits only the zero uniform flow — node 0 sends to two
        // right nodes that each must receive the full per-node share, which
        // forces the share to be zero.
        let edges = qsc_graph::generators::staircase_bipartite(6);
        let b = Bipartite::from_edges(6, 6, &edges);
        assert_eq!(b.total_weight(), 7.0);
        let f = max_uniform_flow(&b, 1e-9);
        assert!(f < 1e-6, "expected zero uniform flow, got {f}");
    }

    #[test]
    fn empty_and_disconnected_cases() {
        let empty = Bipartite::from_edges(3, 3, &[]);
        assert_eq!(max_uniform_flow(&empty, 1e-9), 0.0);
        // One isolated left node forces zero uniform flow.
        let partial = Bipartite::from_edges(2, 1, &[(0, 0, 5.0)]);
        assert_eq!(max_uniform_flow(&partial, 1e-9), 0.0);
    }

    #[test]
    fn uniform_flow_leq_total_capacity() {
        let b = Bipartite::from_dense(&[vec![2.0, 0.0], vec![1.0, 3.0]]);
        let f = max_uniform_flow(&b, 1e-9);
        assert!(f <= b.total_weight() + 1e-9);
        assert!(f >= 0.0);
    }
}
