//! Pinned stable colorings: the exact assignment — color ids included —
//! that `stable_coloring` returns on a fixed set of graphs, folded into one
//! FNV-1a digest. The graphs cover the karate club, three dataset
//! stand-ins, a grid, and seeded random graphs, directed and undirected,
//! with integer weights and with multiples of 0.1 (whose sums depend on
//! summation order, so the digest also pins the order signatures are
//! summed in). Any change to how refinement groups nodes or numbers the
//! colors it ejects moves the digest.

use qsc_core::stable::{is_stable, stable_coloring};
use qsc_datasets::{load_graph, Scale};
use qsc_graph::{generators, Graph, GraphBuilder};
use rand::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest of every coloring below, recorded from the refinement that read
/// its signatures from the incremental engine's accumulators.
const PINNED: u64 = 0xa035_8ded_10a1_c41b;

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Seeded random graph; `tenths` draws weights as multiples of 0.1,
/// otherwise as integers 1–3.
fn random_graph(n: usize, edges: usize, directed: bool, tenths: bool, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            let w = if tenths {
                f64::from(rng.random_range(1u32..30)) * 0.1
            } else {
                f64::from(rng.random_range(1u32..4))
            };
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

fn graphs() -> Vec<(String, Graph)> {
    let mut out = vec![("karate".to_string(), generators::karate_club())];
    for name in ["openflights", "epinions", "dblp"] {
        out.push((name.to_string(), load_graph(name, Scale::Small).unwrap()));
    }
    out.push(("grid 40x40".to_string(), generators::grid(40, 40)));
    for seed in 0..4u64 {
        for directed in [false, true] {
            for tenths in [false, true] {
                // Sparse enough that many nodes share a degree, so the
                // refinement runs several rounds before it settles.
                let g = random_graph(300, 240, directed, tenths, 0x5ab1e + seed);
                out.push((
                    format!("random seed {seed} directed {directed} tenths {tenths}"),
                    g,
                ));
            }
        }
    }
    out
}

#[test]
fn stable_colorings_match_pinned_digest() {
    let mut h = FNV_OFFSET;
    for (name, g) in graphs() {
        let p = stable_coloring(&g);
        assert!(is_stable(&g, &p), "{name}: coloring is not stable");
        let assignment = p.assignment();
        h = fnv(h, assignment.len() as u64);
        for &c in assignment {
            h = fnv(h, u64::from(c));
        }
    }
    assert_eq!(h, PINNED, "stable coloring digest moved: {h:#018x}");
}
