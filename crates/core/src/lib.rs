//! # qsc-core
//!
//! Quasi-stable coloring for graph compression — the primary contribution of
//! Kayali & Suciu, *"Quasi-stable Coloring for Graph Compression:
//! Approximating Max-Flow, Linear Programs, and Centrality"* (VLDB 2022).
//!
//! A *coloring* of a graph is a partition of its nodes. A coloring is
//! *stable* (the classical 1-WL / color-refinement fixpoint) when any two
//! nodes of the same color have identical weights towards every color. The
//! paper relaxes this: a coloring is *q-stable* when those weights may differ
//! by at most `q`. Relaxation lets real graphs compress by orders of
//! magnitude while the reduced graph still approximates linear programs,
//! max-flow and betweenness centrality.
//!
//! The crate provides:
//!
//! * [`Partition`] — colorings with split/meet/refinement operations
//!   (splits emit [`SplitEvent`]s for incremental consumers).
//! * [`IncrementalDegrees`] — the incremental refinement engine: degree
//!   matrices and witness candidates maintained in `O(touched)` per split
//!   instead of recomputed from the graph; Rothko drives its refinement
//!   through it. Multi-threaded engines
//!   shard the update phases across a fork-join pool with bit-identical
//!   results (see [`q_error`]'s "Parallel sharded refinement"). The same
//!   engine absorbs *graph* deltas: `apply_edge_batch` patches its state
//!   for batched edge insert/delete/reweight events without touching the
//!   graph, and [`RothkoRun::apply_edge_batch`] + `maintain` keep a
//!   running (q, k) coloring valid under churn instead of recomputing.
//! * [`kernels`] — the lane-kernel substrate under the engine's hot
//!   paths: blocked f64 folds, min/max scans with first-attainer
//!   witnesses, grouped gathers, and blocked sums over the canonical
//!   reduction tree (shared with `qsc_linalg::lanes`, so the LP solvers
//!   reduce through the same code). See the module's determinism notes
//!   and [`q_error`]'s "Lane-kernel hot paths" for measured numbers.
//! * [`parallel`] — the minimal persistent fork-join pool behind the
//!   sharded engine (`QSC_THREADS` sets the default worker count).
//! * [`similarity`] — the `∼` relations of Definition 1 (exact, absolute `q`,
//!   relative `ε`, bisimulation, clamped congruence).
//! * [`stable::stable_coloring`] — classical color refinement (1-WL),
//!   which sums each node's per-color weights straight from its arcs
//!   every round and needs no engine.
//! * [`rothko`] — the paper's heuristic Algorithm 1 (anytime, witness-driven
//!   splitting), producing q-stable colorings with a target number of colors
//!   or target maximum error; supports batched witness rounds (`B` splits
//!   per synchronization point) on top of the strict greedy order.
//! * [`q_error`] — exact evaluation of how (quasi-)stable a coloring is.
//! * [`reduced`] — reduced-graph construction with the weightings used by
//!   the three applications, plus [`ReducedDelta`]: the quotient matrix
//!   maintained across splits and edge batches in `O(touched)` instead of
//!   rebuilt per use, and [`reduced::PatchedReducedGraph`]: the emitted
//!   reduced instance patched in place from the delta's changed cells
//!   (edge batches) and wholesale-dirty colors (splits, merges, node
//!   events).
//! * [`sweep`] — warm-started budget sweeps: one monotone refinement
//!   checkpointed at every color budget, with split events handed to
//!   incremental consumers in lockstep (the coloring layer of the sweep
//!   pipeline; `qsc-flow` and `qsc-lp` add the solver layers).
//! * [`stats`] — compression statistics (Table 4 / Sec. 6.2).
//!
//! ## Architecture: the layered event pipeline
//!
//! Every maintained structure in the workspace sits on one event pipeline.
//! Graph mutations and partition changes are expressed as *events*, and
//! each layer patches its own state from them in `O(touched)` instead of
//! rebuilding — from the CSR overlay at the bottom to the warm solvers at
//! the top:
//!
//! ```text
//!   qsc_graph::GraphDelta                      (mutable overlay over the CSR)
//!     │  EdgeEvent batches        insert/delete/reweight, signed weight deltas
//!     │  NodeEvent + NodeRemap    node insert/remove, renumbering compaction
//!     ▼
//!   IncrementalDegrees                         (accumulators + pair summaries
//!     │                                         + witness/merge selection)
//!     │  PartitionEvent           Split · Merge · NodeInsert · NodeRemove
//!     │                           (emitted by RothkoRun / Partition ops)
//!     ▼
//!   ReducedDelta / qsc_lp::ReducedLpDelta      (quotient matrix, LP aggregates)
//!     │  dirty colors             every changed entry is indexed by one;
//!     │                           ids ≥ k mark colors removed by merges;
//!     │  + changed cells          what edge batches touched, patched alone
//!     ▼
//!   PatchedReducedGraph / PatchedReducedLp     (the *emitted* reduced instance,
//!     │                                         patched rows in place)
//!     ▼
//!   qsc_flow::WarmFlowSolver / qsc_lp::solve_warm   (preflow / basis reuse)
//! ```
//!
//! The event vocabulary is **bidirectional**: [`SplitEvent`] refines,
//! [`MergeEvent`] coarsens (the dual — the loser's members join the
//! winner, the ex-last color relabels into the freed slot so color ids
//! stay dense), and node insert/remove events grow and compact the node
//! axis (removals are always preceded by deletes of the node's incident
//! edges, so only isolated nodes are ever removed; renumbering travels as
//! a `NodeRemap` alongside the events). [`RothkoRun::maintain`] drives
//! the algebra from both sides: splits where churn pushed the error above
//! the target, merges (with [`RothkoConfig::coarsen`]) where it dropped
//! the error enough that the merged pair's provable post-merge bound fits
//! back inside the target.
//!
//! **Storage tiers.** The engine at the pipeline's center keeps its
//! per-node accumulator rows in one of two layouts, chosen by
//! [`RothkoConfig::storage`] ([`StorageMode`]) at construction: a dense
//! color-major plane (8 bytes per slot, one contiguous column per color,
//! so a member rescan reads one cache-resident column) or tiered sparse
//! rows ([`storage::RowRep`] — sorted nonzero
//! `(color, weight)` vectors at 16 bytes per nonzero, hot rows promoted
//! to plain slot arrays). Both run the same fold contract through
//! [`kernels`]' sparse gather variants, so modes are bit-identical under
//! the full event algebra; only footprint and wall time differ. On a
//! Barabási–Albert graph with m = 10 at k = 200 an average row holds ~20
//! nonzeros, ≈ 330 bytes per node sparse against 2 KiB dense, so at
//! 1M nodes / 10⁷ edges the dense accumulator alone is ~1.9 GiB. Dense
//! probes stay cheaper while the matrix is cache-resident. The default
//! `Auto` picks per engine from the projected dense footprint and the
//! density: pipebench's 200k-node `stream-edges` workload resolves to
//! sparse rows and its 20k-node `stream-nodes` workload to dense, so
//! small-scale callers keep dense behavior bit for bit.
//!
//! **Persistence layer.** Everything the pipeline maintains is also
//! *checkpointable*: [`IncrementalDegrees::snapshot`],
//! [`RothkoRun::snapshot`], [`ReducedDelta::snapshot`] (and
//! `qsc_lp::sweep::ReducedLpDelta::snapshot`) capture the part of each
//! layer's logical state that cannot be recomputed — accumulators,
//! partition member order, reduced sums, pending dirty sets — as plain
//! columnar structs, and the matching `from_snapshot` constructors
//! rebuild the layer from them. Everything derivable is rebuilt rather
//! than stored: the engine's pair summaries are folded from the restored
//! accumulator rows by the same per-color scan a fresh build runs (values
//! and nonzero counts bit-identical, extremum attainers the first ones,
//! which only gate rescans), derived caches restart dirty, and strides
//! and thread pools are reconstructed; none of it is observable. The
//! `qsc-persist` crate turns those snapshots into an on-disk format: a
//! columnar checkpoint (delta+varint encoded, CRC-guarded blocks) plus a
//! write-ahead log of the *input* event batches
//! ([`qsc_graph::delta::EdgeEvent`] / node churn / maintain calls)
//! appended as they are applied. A warm restart loads the checkpoint
//! columns straight back into `Graph` / [`Partition`] /
//! [`IncrementalDegrees`] / [`ReducedDelta`] state and replays the WAL
//! tail through the same public API the writer used — the determinism
//! contract below is what makes the replayed colorings, q-errors and
//! reduced instances bit-identical to the writer's, so restart skips the
//! full build at the cost of reading a file.
//!
//! **Borrowed columns.** The restore path does not even have to *read*
//! the file eagerly: every `Graph` column and the engine's persisted
//! accumulator planes are [`qsc_graph::ColumnBuf`]s — `Arc`-shared owned
//! `Vec`s for built graphs, or shared views into a checkpoint mapped by this
//! crate's [`mmap`] module (`MappedFile` wraps the raw
//! `mmap`/`munmap`/`madvise` syscalls behind a safe API; `MappedSlice`
//! implements [`qsc_graph::SharedColumn`], carrying the map's lifetime
//! in an `Arc`). `qsc-persist`'s raw-layout checkpoints pin aligned
//! uncompressed encodings for exactly these columns, so a warm restart
//! borrows the CSR in place and the OS page cache — not the heap —
//! bounds the graph's working set: graphs whose CSR exceeds RAM still
//! open in O(1). The `dout`/`din` planes are the exception on the engine
//! side: the restore reads each mapped plane once, front to back, and
//! transposes it into the engine's own color-major plane. Owned and mapped stacks run the same
//! code paths (`Deref<Target = [T]>`) and are bit-identical at every
//! thread count; the engine hints paging (`advise`) ahead of whole-axis
//! sweeps and touched-list scans. No compaction writes into a graph
//! another handle holds: an edge-only compaction returns a new graph
//! whose row patch holds the changed rows over the previous graph's
//! base columns (after a mapped restart the mapping stays the base), and
//! only a renumbering compaction or a patch past its fixed size limit
//! flattens into fresh owned columns. Every graph handle — the
//! engine's, a checkpoint's, a recovery delta's — is an O(1) clone
//! sharing that storage, leaving the mutation path untouched.
//!
//! **Determinism contract.** Every event consumer must uphold what the
//! engine guarantees: applying an event sequence leaves state *bit
//! identical* (for exactly representable weights; up to float
//! associativity otherwise) to a fresh rebuild on the resulting
//! graph/partition, for every thread count. Concretely: shard merges use
//! exact min/max/or/sum reductions in shard order; witness and merge-pair
//! selection break ties lexicographically; member and touched orderings
//! are pure functions of the input (never of the thread count); and
//! color/node renumbering is the fixed relabel-last/order-preserving rule
//! above. Floating-point *sums* follow one canonical blocked reduction
//! tree (`qsc_linalg::lanes::sum` — fixed lane count, fixed combine
//! order, independent of thread count and hardware), so "up to float
//! associativity" never means "up to whatever the optimizer felt like",
//! and no code path reassociates. This is what lets maintained runs be
//! cross-checked against fresh-from-checkpoint runs at every churn round
//! (`tests/tests/dynamic_graph.rs`, `tests/tests/merge_refine.rs`) and
//! lets warm sweeps stay bit-identical to cold re-emission
//! (`tests/tests/sweep_equivalence.rs`).
//!
//! ## Checked invariants
//!
//! The determinism and unsafety contracts above are *mechanically
//! enforced*, not aspirational:
//!
//! * **Statically** — the workspace's own lint pass (`cargo run -p
//!   qsc-audit`) scans every crate for contract violations: `unsafe`
//!   without an adjacent `// SAFETY:` argument, iteration over hash
//!   containers in result-feeding crates (ordering leaks), raw f64 sums
//!   outside `qsc_linalg::lanes` (reduction-tree leaks), wall-clock reads
//!   outside bench/report code, and panicking input handling in
//!   IO/parser modules. CI runs it with `--deny-warnings`; exceptions
//!   require an inline `// qsc-audit: allow(<rule>) -- <justification>`
//!   with a written justification.
//! * **Dynamically** — with the `audit` feature enabled, every
//!   [`parallel::SyncSliceMut`] claim is published to a lock-free
//!   interval log and cross-thread overlapping claims abort the process
//!   with both call sites. The ordinary parallel test suites, run with
//!   `--features audit`, thereby double as soundness tests for the
//!   "shards write provably disjoint index sets" arguments.
//! * This crate and `qsc-linalg` set `#![deny(unsafe_op_in_unsafe_fn)]`;
//!   every other workspace crate is `#![forbid(unsafe_code)]`. The only
//!   unsafe in the tree is this crate's fork-join pool and
//!   [`parallel::SyncSliceMut`].
//!
//! ## Quick example
//!
//! ```
//! use qsc_graph::generators::karate_club;
//! use qsc_core::rothko::{Rothko, RothkoConfig};
//!
//! let g = karate_club();
//! // Color the karate club with at most 6 colors (Fig. 1b of the paper).
//! let coloring = Rothko::new(RothkoConfig::with_max_colors(6)).run(&g);
//! assert_eq!(coloring.partition.num_colors(), 6);
//! // The resulting coloring has a small maximum q-error.
//! assert!(coloring.max_q_error <= 6.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(feature = "audit")]
mod audit;
pub mod kernels;
pub mod mmap;
pub mod parallel;
pub mod partition;
pub mod q_error;
pub mod reduced;
pub mod rothko;
pub mod similarity;
pub mod stable;
pub mod stats;
pub mod storage;
pub mod sweep;

pub use partition::{MergeEvent, Partition, PartitionEvent, SplitEvent};
pub use q_error::{
    max_q_error, mean_q_error, EngineSnapshot, IncrementalDegrees, MergeCandidate, QErrorReport,
    RowsSnapshot, WitnessCandidate,
};
pub use reduced::{
    reduced_graph, PatchedReducedGraph, ReducedDelta, ReducedSnapshot, ReductionWeighting,
};
pub use rothko::{Coloring, NodeChurnBatch, Rothko, RothkoConfig, RothkoRun, RunSnapshot};
pub use similarity::{Absolute, Bisimulation, Clamped, Exact, Relative, Similarity};
pub use stable::stable_coloring;
pub use stats::{coloring_stats, ColoringStats};
pub use storage::StorageMode;
pub use sweep::{ColoringSweep, SweepCheckpoint};
