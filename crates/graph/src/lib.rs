//! # qsc-graph
//!
//! Graph substrate for the quasi-stable coloring reproduction.
//!
//! Provides:
//!
//! * [`Graph`]: an immutable, CSR-backed, weighted directed graph with both
//!   out- and in-adjacency (undirected graphs are stored as symmetric
//!   directed graphs).
//! * [`GraphBuilder`]: incremental construction from edge lists, with
//!   duplicate-edge merging.
//! * [`delta::GraphDelta`]: a mutable batched delta layer over the CSR for
//!   dynamic graphs — edge insert/delete/reweight with [`delta::EdgeEvent`]
//!   batches for incremental consumers, and periodic compaction into a new
//!   graph: a row patch of the changed rows over the shared CSR columns,
//!   flattened back into plain CSR past a fixed patch size or when node
//!   ids are renumbered.
//! * [`bipartite::Bipartite`]: explicit weighted bipartite graphs, used by
//!   the maximum-uniform-flow computation and by LP constraint matrices.
//! * [`generators`]: seeded synthetic graph generators (Erdős–Rényi,
//!   Barabási–Albert, grids, planted partitions, hub-and-spoke, the Zachary
//!   karate club, and the regular graph family used in the robustness
//!   experiment of Fig. 2).
//! * [`io`]: edge-list and DIMACS max-flow readers/writers.
//! * [`traversal`]: BFS, connected components, shortest-path counting.
//!
//! All node identifiers are dense `u32` indices in `0..n`.

#![forbid(unsafe_code)]

pub mod bipartite;
pub mod builder;
pub mod column;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod stats;
pub mod traversal;

pub use bipartite::Bipartite;
pub use builder::GraphBuilder;
pub use column::{ColumnAdvice, ColumnBuf, SharedColumn};
pub use csr::{Graph, NodeId};
pub use delta::{DeltaError, EdgeEvent, GraphDelta, NodeEvent, NodeRemap};

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange { node: u32, n: usize },
    /// An edge weight was not finite or was negative where a capacity was
    /// expected.
    InvalidWeight { weight: f64 },
    /// CSR columns handed to [`csr::Graph::from_mapped_columns`] violated
    /// a structural invariant (offset monotonicity / span, row sortedness,
    /// or parallel-array length mismatch).
    InvalidCsr { message: String },
    /// Parsing a textual graph format failed.
    Parse { line: usize, message: String },
    /// An IO error while reading or writing a graph file.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::InvalidWeight { weight } => write!(f, "invalid edge weight {weight}"),
            GraphError::InvalidCsr { message } => write!(f, "invalid CSR columns: {message}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
