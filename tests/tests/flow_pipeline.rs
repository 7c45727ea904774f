//! Cross-crate max-flow tests: Theorem 6's sandwich, max-flow = min-cut,
//! solver agreement, and the Fig. 4 / Example 7 pathological instance.

use proptest::prelude::*;
use qsc_core::Partition;
use qsc_flow::generators::{grid_flow_network, layered_random_network};
use qsc_flow::reduce::{
    approximate_max_flow, approximate_with_partition, color_network, reduced_network_lower,
    reduced_network_upper, relative_error, FlowApproxConfig,
};
use qsc_flow::{
    dinic, edmonds_karp, min_cut, push_relabel, FlowNetwork, FlowResult, ResidualGraph,
    WarmFlowSolver,
};
use qsc_graph::{generators, GraphBuilder};
use rand::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solvers_agree_and_match_min_cut(
        seed in 0u64..500,
        n in 10usize..40,
        m_factor in 2usize..6,
    ) {
        let g = generators::erdos_renyi_nm(n, (n * m_factor).min(n * (n - 1) / 2), seed)
            .to_directed();
        let net = FlowNetwork::new(g, 0, (n - 1) as u32);
        let d = dinic::max_flow(&net).value;
        let ek = edmonds_karp::max_flow(&net).value;
        let pr = push_relabel::max_flow(&net).value;
        prop_assert!((d - ek).abs() < 1e-6, "dinic {} vs edmonds-karp {}", d, ek);
        prop_assert!((d - pr).abs() < 1e-6, "dinic {} vs push-relabel {}", d, pr);
        let cut = min_cut(&net);
        prop_assert!((cut.capacity - d).abs() < 1e-6);
        let cut_capacity: f64 = cut.edges.iter().map(|&(_, _, c)| c).sum();
        prop_assert!(cut_capacity + 1e-6 >= d);
    }

    #[test]
    fn theorem6_upper_bound_holds_for_any_coloring(
        seed in 0u64..200,
        colors in 3usize..12,
    ) {
        let net = layered_random_network(4, 8, 0.35, 4.0, seed);
        let exact = dinic::max_flow(&net).value;
        let partition = color_network(&net, &FlowApproxConfig::with_max_colors(colors));
        let (upper_net, _, _) = reduced_network_upper(&net, &partition);
        let upper = dinic::max_flow(&upper_net).value;
        prop_assert!(
            upper + 1e-6 >= exact,
            "upper bound {} below exact {}", upper, exact
        );
    }

    #[test]
    fn theorem6_lower_bound_holds(
        seed in 0u64..60,
        colors in 3usize..8,
    ) {
        // Smaller networks: the lower bound needs one max-uniform-flow
        // computation per color pair.
        let (net, _) = grid_flow_network(5, 5, 2.0, 0.3, seed);
        let exact = dinic::max_flow(&net).value;
        let partition = color_network(&net, &FlowApproxConfig::with_max_colors(colors));
        let lower_net = reduced_network_lower(&net, &partition, 1e-6);
        let lower = dinic::max_flow(&lower_net).value;
        prop_assert!(
            lower <= exact + 1e-4,
            "lower bound {} exceeds exact {}", lower, exact
        );
    }
}

/// Capacity classes of [`edge_case_arcs`]. Integer and quarter-integer
/// capacities make every flow sum exact in f64, so the solvers must agree
/// bit for bit; general floats agree within 1e-9 relative.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Capacities {
    Integer,
    Quarter,
    Float,
}

impl Capacities {
    fn draw(self, rng: &mut StdRng) -> f64 {
        match self {
            Capacities::Integer => rng.random_range(1u32..6) as f64,
            Capacities::Quarter => rng.random_range(1u32..24) as f64 / 4.0,
            Capacities::Float => rng.random_range(0.01f64..5.0),
        }
    }

    /// Whether `a` and `b` agree as this class requires: equal on the
    /// exact classes, within 1e-9 relative (1e-9 absolute near zero) on
    /// floats.
    fn agree(self, a: f64, b: f64) -> bool {
        match self {
            Capacities::Float => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            _ => a == b,
        }
    }
}

/// A small random arc list over `n` nodes (source 0, sink 1) holding the
/// residual graph's edge cases: self-loops, arcs into the source and out
/// of the sink, zero-capacity arcs, parallel arcs, two isolated nodes
/// (the last two ids), and on every fourth seed no arc into the sink.
fn edge_case_arcs(seed: u64, caps: Capacities) -> (usize, Vec<(u32, u32, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let wired = rng.random_range(2usize..9);
    let n = wired + 2;
    let mut arcs = Vec::new();
    for _ in 0..rng.random_range(0..4 * wired) {
        let u = rng.random_range(0..wired) as u32;
        let v = rng.random_range(0..wired) as u32;
        arcs.push((u, v, caps.draw(&mut rng)));
    }
    let mid = rng.random_range(0..wired) as u32;
    arcs.push((mid, mid, caps.draw(&mut rng))); // self-loop
    arcs.push((mid, 0, caps.draw(&mut rng))); // into the source
    arcs.push((1, mid, caps.draw(&mut rng))); // out of the sink
    arcs.push((0, mid, 0.0)); // zero capacity
    if let Some(&parallel) = arcs.first() {
        arcs.push(parallel);
    }
    if seed.is_multiple_of(4) {
        arcs.retain(|&(_, v, _)| v != 1); // unreachable sink
    }
    arcs.shuffle(&mut rng);
    (n, arcs)
}

/// Check a solver's per-arc flows against its arcs: aligned, within
/// capacity, conserved at every non-terminal node, and delivering `value`
/// into the sink (net) and out of the source (net).
fn assert_valid_flow(
    label: &str,
    n: usize,
    arcs: &[(u32, u32, f64)],
    flows: &[f64],
    value: f64,
    caps: Capacities,
) {
    assert_eq!(flows.len(), arcs.len(), "{label}: flows misaligned");
    let mut net = vec![0.0f64; n];
    for (&(u, v, c), &f) in arcs.iter().zip(flows) {
        assert!(
            (0.0..=c).contains(&f),
            "{label}: flow {f} on ({u},{v}) cap {c}"
        );
        net[u as usize] -= f;
        net[v as usize] += f;
    }
    for (v, &imbalance) in net.iter().enumerate().skip(2) {
        assert!(
            caps.agree(imbalance, 0.0),
            "{label}: node {v} imbalance {imbalance}"
        );
    }
    assert!(
        caps.agree(net[1], value),
        "{label}: sink receives {}",
        net[1]
    );
    assert!(
        caps.agree(-net[0], value),
        "{label}: source sends {}",
        -net[0]
    );
}

#[test]
fn solvers_agree_on_residual_edge_cases() {
    for caps in [Capacities::Integer, Capacities::Quarter, Capacities::Float] {
        // One warm solver across the class: every solve after the first
        // starts from the previous network's flow.
        let mut warm = WarmFlowSolver::new();
        for seed in 0..150u64 {
            let (n, arcs) = edge_case_arcs(seed, caps);
            let label = format!("{caps:?} seed {seed}");
            let mut b = GraphBuilder::new_directed(n);
            for &(u, v, c) in &arcs {
                b.add_edge(u, v, c);
            }
            let net = FlowNetwork::new(b.build(), 0, 1);
            let merged: Vec<_> = net.graph.arcs().collect();
            let results: [(&str, FlowResult); 4] = [
                ("push-relabel", push_relabel::max_flow(&net)),
                ("warm push-relabel", warm.solve(&net)),
                ("dinic", dinic::max_flow(&net)),
                ("edmonds-karp", edmonds_karp::max_flow(&net)),
            ];
            let value = results[2].1.value;
            for (name, r) in &results {
                assert!(
                    caps.agree(r.value, value),
                    "{label}: {name} {} vs dinic {value}",
                    r.value
                );
                if caps != Capacities::Float {
                    assert_eq!(r.value.to_bits(), value.to_bits(), "{label}: {name}");
                }
                assert_valid_flow(
                    &format!("{label} {name}"),
                    n,
                    &merged,
                    &r.flows,
                    r.value,
                    caps,
                );
            }
            if seed.is_multiple_of(4) {
                assert_eq!(value, 0.0, "{label}: sink has no arc in");
            }
            let cut = min_cut(&net);
            let cut_sum: f64 = cut.edges.iter().map(|&(_, _, c)| c).sum();
            assert!(caps.agree(cut.capacity, value), "{label}: cut value");
            assert!(
                caps.agree(cut_sum, value),
                "{label}: cut edges sum {cut_sum}"
            );
            // The arc-list constructor keeps parallel arcs as separate
            // edge pairs; Dinic on it finds the merged network's value.
            let mut rg = ResidualGraph::from_arcs(n, &arcs);
            assert_eq!(rg.num_arcs(), arcs.len());
            let (parallel_value, _) = dinic::run(&mut rg, 0, 1);
            assert!(
                caps.agree(parallel_value, value),
                "{label}: parallel arcs {parallel_value} vs merged {value}"
            );
            assert_valid_flow(
                &format!("{label} parallel"),
                n,
                &arcs,
                &rg.arc_flows(),
                parallel_value,
                caps,
            );
            assert!(!rg.residual_reachable(0)[1], "{label}: sink reachable");
        }
    }
}

#[test]
fn fig4_pathological_instance_demonstrates_both_failure_modes() {
    // Example 7: a 1-stable coloring whose ĉ₂ upper bound badly
    // overestimates and whose ĉ₁ lower bound collapses to zero.
    let layers = 6;
    let layer_size = 8;
    let (g, s, t) = generators::pathological_flow_layers(layers, layer_size);
    let n = g.num_nodes();
    let net = FlowNetwork::new(g, s, t);
    let exact = dinic::max_flow(&net).value;

    let mut assignment = vec![0u32; n];
    for l in 0..layers {
        for i in 0..layer_size {
            assignment[l * layer_size + i] = l as u32;
        }
    }
    assignment[s as usize] = layers as u32;
    assignment[t as usize] = layers as u32 + 1;
    let partition = Partition::from_assignment(&assignment);
    assert!(qsc_core::q_error::max_q_error(&net.graph, &partition) <= 1.0);

    let approx = approximate_with_partition(&net, partition.clone());
    assert!(
        approx.value >= exact + 1.0,
        "upper bound {} should overestimate exact {}",
        approx.value,
        exact
    );
    let lower_net = reduced_network_lower(&net, &partition, 1e-6);
    let lower = dinic::max_flow(&lower_net).value;
    assert!(lower < 0.5, "lower bound should collapse, got {lower}");
}

#[test]
fn corollary9_stable_coloring_preserves_max_flow() {
    // Build a network made of identical parallel branches: the stable
    // coloring merges the branches and Corollary 9 (2) promises the reduced
    // flow equals the exact flow.
    let branches = 5;
    let mut b = GraphBuilder::new_directed(2 + 2 * branches);
    let s = 0u32;
    let t = 1u32;
    for i in 0..branches as u32 {
        let a = 2 + 2 * i;
        let c = 3 + 2 * i;
        b.add_edge(s, a, 2.0);
        b.add_edge(a, c, 1.0);
        b.add_edge(c, t, 2.0);
    }
    let net = FlowNetwork::new(b.build(), s, t);
    let exact = dinic::max_flow(&net).value;
    assert!((exact - branches as f64).abs() < 1e-9);

    let stable = qsc_core::stable_coloring(&net.graph);
    // Source and sink end up in their own colors because their degrees are
    // unique.
    assert_eq!(stable.size(stable.color_of(s)), 1);
    assert_eq!(stable.size(stable.color_of(t)), 1);
    let approx = approximate_with_partition(&net, stable);
    assert!((approx.value - exact).abs() < 1e-9);
    assert_eq!(approx.max_q_error, 0.0);
}

#[test]
fn grid_approximation_quality_improves_with_colors() {
    // The Fig. 8a shape: error decreases (roughly monotonically) with the
    // number of colors.
    let (net, _) = grid_flow_network(12, 10, 3.0, 0.25, 9);
    let exact = dinic::max_flow(&net).value;
    let mut errors = Vec::new();
    for colors in [4, 8, 16, 32] {
        let approx = approximate_max_flow(&net, &FlowApproxConfig::with_max_colors(colors));
        errors.push(relative_error(exact, approx.value));
    }
    assert!(
        errors.last().unwrap() <= &(errors[0] + 0.3),
        "error should not grow substantially with colors: {errors:?}"
    );
    assert!(
        *errors.last().unwrap() < 2.5,
        "32-color error too large: {errors:?}"
    );
}
