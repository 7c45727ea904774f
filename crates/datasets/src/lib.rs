//! # qsc-datasets
//!
//! Laptop-scale, fully synthetic stand-ins for the 20 evaluation datasets of
//! the paper (Tables 2 and 3). The original datasets are external downloads
//! (SNAP, network-repository, the Waterloo vision max-flow benchmark, and
//! the Mittelmann LP benchmark); this crate reproduces their *structure* —
//! degree distributions, community/grid regularity, block-structured
//! constraint matrices — with deterministic, seeded generators so that every
//! experiment in `qsc-bench` runs out of the box. Each dataset's
//! descriptor in [`registry`] records the paper's sizes and the generator
//! family of its stand-in.
//!
//! Every dataset is available at two scales:
//! * [`Scale::Small`] — used by tests and quick runs (seconds),
//! * [`Scale::Full`] — used by the benchmark harness (still minutes, not
//!   hours; the paper's absolute sizes are listed in the descriptors for
//!   reference).

#![forbid(unsafe_code)]

pub mod registry;

pub use registry::{
    flow_datasets, graph_datasets, load_flow, load_graph, load_lp, lp_datasets, DatasetError,
    FlowDatasetSpec, GraphDatasetSpec, LpDatasetSpec, Scale, Task,
};
