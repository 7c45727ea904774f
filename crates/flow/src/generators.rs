//! Flow-network generators.
//!
//! The paper's max-flow benchmarks (Tsukuba, Venus, Sawtooth, Cells) are
//! computer-vision instances: grid graphs whose per-pixel terminal
//! capacities vary smoothly with superimposed noise. [`grid_flow_network`]
//! reproduces that structure at configurable scale (`qsc-datasets` maps
//! each benchmark to its grid size).

use crate::network::FlowNetwork;
use qsc_graph::{GraphBuilder, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A vision-style grid max-flow instance.
///
/// Nodes form a `width x height` 4-connected grid plus a source and a sink.
/// Neighbouring pixels are connected in both directions with a smoothness
/// capacity; the source connects to pixels with high "foreground affinity"
/// and pixels with high "background affinity" connect to the sink. The
/// affinities vary smoothly across the image (a horizontal gradient plus a
/// circular blob) with multiplicative noise, which is exactly the locally
/// regular structure that quasi-stable coloring compresses well.
///
/// Returns the network and the grid node-id helper `(r, c) -> id`.
pub fn grid_flow_network(
    width: usize,
    height: usize,
    smoothness: f64,
    noise: f64,
    seed: u64,
) -> (FlowNetwork, impl Fn(usize, usize) -> NodeId) {
    assert!(width >= 2 && height >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = width * height + 2;
    let source = (n - 2) as NodeId;
    let sink = (n - 1) as NodeId;
    let id = move |r: usize, c: usize| (r * width + c) as NodeId;
    let mut b = GraphBuilder::new_directed(n);
    let perturb = |rng: &mut StdRng, noise: f64| 1.0 + noise * (2.0 * rng.random::<f64>() - 1.0);

    // Noise-free foreground affinity field (a blob centred at
    // (height/2, width/3)); the smoothness edges are contrast-sensitive in
    // this field, as in vision max-flow instances where neighbouring pixels
    // with similar appearance are strongly tied and boundary pixels weakly.
    let fg_base = |r: usize, c: usize| -> f64 {
        let dr = r as f64 - height as f64 / 2.0;
        let dc = c as f64 - width as f64 / 3.0;
        let dist = (dr * dr + dc * dc).sqrt() / (width.max(height) as f64);
        (1.5 - 2.0 * dist).max(0.05)
    };
    for r in 0..height {
        for c in 0..width {
            let fg = fg_base(r, c) * perturb(&mut rng, noise);
            // Background affinity: horizontal gradient.
            let bg = (0.2 + 1.3 * c as f64 / width as f64) * perturb(&mut rng, noise);
            b.add_edge(source, id(r, c), fg);
            b.add_edge(id(r, c), sink, bg);
            // Contrast-sensitive smoothness edges to the right and down
            // (both directions).
            let contrast = |a: f64, bv: f64| 0.15 + (-6.0 * (a - bv).abs()).exp();
            if c + 1 < width {
                let w = smoothness
                    * contrast(fg_base(r, c), fg_base(r, c + 1))
                    * perturb(&mut rng, noise);
                b.add_edge(id(r, c), id(r, c + 1), w);
                b.add_edge(id(r, c + 1), id(r, c), w);
            }
            if r + 1 < height {
                let w = smoothness
                    * contrast(fg_base(r, c), fg_base(r + 1, c))
                    * perturb(&mut rng, noise);
                b.add_edge(id(r, c), id(r + 1, c), w);
                b.add_edge(id(r + 1, c), id(r, c), w);
            }
        }
    }
    (FlowNetwork::new(b.build(), source, sink), id)
}

/// A random layered DAG flow network: `layers` layers of `layer_width` nodes,
/// consecutive layers connected with probability `density` and capacities in
/// `[1, max_capacity]`. Source feeds the first layer, last layer feeds the
/// sink.
pub fn layered_random_network(
    layers: usize,
    layer_width: usize,
    density: f64,
    max_capacity: f64,
    seed: u64,
) -> FlowNetwork {
    assert!(layers >= 2 && layer_width >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = layers * layer_width + 2;
    let source = (n - 2) as NodeId;
    let sink = (n - 1) as NodeId;
    let id = |l: usize, i: usize| (l * layer_width + i) as NodeId;
    let mut b = GraphBuilder::new_directed(n);
    for i in 0..layer_width {
        b.add_edge(source, id(0, i), 1.0 + rng.random::<f64>() * max_capacity);
        b.add_edge(
            id(layers - 1, i),
            sink,
            1.0 + rng.random::<f64>() * max_capacity,
        );
    }
    for l in 0..layers - 1 {
        for i in 0..layer_width {
            let mut connected = false;
            for j in 0..layer_width {
                if rng.random::<f64>() < density {
                    b.add_edge(
                        id(l, i),
                        id(l + 1, j),
                        1.0 + rng.random::<f64>() * max_capacity,
                    );
                    connected = true;
                }
            }
            if !connected {
                // Keep the network connected layer to layer.
                let j = rng.random_range(0..layer_width);
                b.add_edge(
                    id(l, i),
                    id(l + 1, j),
                    1.0 + rng.random::<f64>() * max_capacity,
                );
            }
        }
    }
    FlowNetwork::new(b.build(), source, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;

    #[test]
    fn grid_network_dimensions() {
        let (net, id) = grid_flow_network(10, 8, 3.0, 0.2, 1);
        assert_eq!(net.num_nodes(), 82);
        assert_eq!(id(0, 0), 0);
        assert_eq!(id(1, 0), 10);
        // Every pixel has a source and sink edge.
        assert_eq!(net.graph.out_degree(net.source), 80);
        assert_eq!(net.graph.in_degree(net.sink), 80);
    }

    #[test]
    fn grid_network_has_positive_flow() {
        let (net, _) = grid_flow_network(8, 8, 2.0, 0.3, 2);
        let flow = dinic::max_flow(&net).value;
        assert!(flow > 0.0);
        assert!(flow <= net.source_capacity() + 1e-9);
    }

    #[test]
    fn grid_network_deterministic() {
        let (a, _) = grid_flow_network(6, 6, 2.0, 0.3, 9);
        let (b, _) = grid_flow_network(6, 6, 2.0, 0.3, 9);
        assert_eq!(dinic::max_flow(&a).value, dinic::max_flow(&b).value);
    }

    #[test]
    fn layered_network_flow_bounded_by_source() {
        let net = layered_random_network(4, 6, 0.4, 5.0, 3);
        let flow = dinic::max_flow(&net).value;
        assert!(flow > 0.0);
        assert!(flow <= net.source_capacity() + 1e-9);
    }
}
