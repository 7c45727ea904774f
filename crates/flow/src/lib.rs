//! # qsc-flow
//!
//! Max-flow substrate and the max-flow application of quasi-stable coloring
//! (Sec. 4.2 of the paper).
//!
//! * [`network::FlowNetwork`] — max-flow problem instances, and
//!   [`network::ResidualGraph`], the one CSR residual graph every solver
//!   below runs on.
//! * [`push_relabel`] — the exact baseline solver (FIFO push-relabel with
//!   current arcs, gap heuristic and global relabeling), standing in for
//!   `GraphsFlows`.
//! * [`dinic`] / [`edmonds_karp`] — additional exact solvers used for
//!   cross-checking and for the reduced problems.
//! * [`mincut`] — minimum s-t cut extraction.
//! * [`uniform_flow`] — maximum *uniform* flow of a bipartite graph
//!   (Definition 5 / Lemma 8), used for the lower-bound capacities `ĉ₁`.
//! * [`reduce`] — the coloring-based approximation of Theorem 6 (reduced
//!   networks `Ĝ₁`, `Ĝ₂`).
//! * [`sweep`] — warm-started budget sweeps: one refinement threaded
//!   through every color budget, with the reduced network patched per split
//!   and the reduced solve resumed from the previous preflow
//!   ([`push_relabel::WarmFlowSolver`]).
//! * [`generators`] — vision-style grid instances and layered random
//!   networks standing in for the paper's benchmark datasets.
//!
//! ## Example
//!
//! ```
//! use qsc_flow::generators::grid_flow_network;
//! use qsc_flow::reduce::{approximate_max_flow, relative_error, FlowApproxConfig};
//! use qsc_flow::dinic;
//!
//! let (network, _) = grid_flow_network(12, 12, 3.0, 0.2, 42);
//! let exact = dinic::max_flow(&network).value;
//! let approx = approximate_max_flow(&network, &FlowApproxConfig::with_max_colors(20));
//! // The reduced-network value upper-bounds the true flow (Theorem 6).
//! assert!(approx.value + 1e-6 >= exact);
//! assert!(relative_error(exact, approx.value) < 3.0);
//! ```

#![forbid(unsafe_code)]

pub mod dinic;
pub mod edmonds_karp;
pub mod generators;
pub mod mincut;
pub mod network;
pub mod push_relabel;
pub mod reduce;
pub mod sweep;
pub mod uniform_flow;

pub use mincut::{min_cut, MinCut};
pub use network::{FlowNetwork, FlowResult, ResidualGraph};
pub use push_relabel::WarmFlowSolver;
pub use reduce::{approximate_max_flow, ApproxFlow, FlowApproxConfig};
pub use sweep::{sweep_max_flow, FlowSweepPoint};
pub use uniform_flow::max_uniform_flow;
