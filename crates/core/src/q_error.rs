//! Measuring how (quasi-)stable a coloring is, and maintaining that
//! measurement incrementally while a coloring is refined.
//!
//! For a coloring `P` of a weighted directed graph, the *q-error* of a pair
//! of colors `(P_i, P_j)` in the outgoing direction is
//! `max_{v ∈ P_i} w(v, P_j) − min_{v ∈ P_i} w(v, P_j)`; the incoming
//! direction is the same quantity on the reversed graph, over `w(P_i, v)`
//! for `v ∈ P_j`. A coloring is `q`-stable iff every such error is at most
//! `q`, and stable iff every error is exactly zero.
//!
//! Two evaluators live here:
//!
//! * [`DegreeMatrices`] — the from-scratch `O(n + m + k²)` computation, used
//!   for one-shot reports and as the ground truth the incremental engine is
//!   cross-checked against.
//! * [`IncrementalDegrees`] — the incremental refinement engine. Built once,
//!   then updated after every [`SplitEvent`] in time proportional to the
//!   edges incident to the moved nodes (plus the two affected rows), instead
//!   of rescanning the whole graph. This is what makes
//!   [`crate::rothko::Rothko`] splits `O(touched)` rather than `O(graph)`
//!   and keeps the anytime loop's per-step latency interactive (Table 6 of
//!   the paper).
//!
//! # One state model, used once per direction
//!
//! The engine's state is two *sides*, one per direction, each holding the
//! same things. A side's entries are addressed `(member color a, other
//! color b)`: entry `(a, b)` summarizes the accumulator values at column
//! `b` of `P_a`'s members. The out side's entry `(i, j)` is out-entry
//! `(i, j)` of [`DegreeMatrices`]; the in side's entry `(j, i)` is
//! in-entry `(i, j)`. Each side keeps its matrices in the
//! `DegreeMatrices` row-major layout, so the two sides differ only in
//! their stride pair (`(cap, 1)` out, `(1, cap)` in). On undirected graphs
//! the in side mirrors the out side exactly (`w(P_j, v) == w(v, P_j)`,
//! including floating-point operation order, since the CSR stores both
//! adjacency directions in ascending neighbor order), so the engine keeps
//! only the out side and every in-direction access resolves to it: half
//! the memory and per-event work, bit-identical results.
//!
//! Between any two events, each side maintains:
//!
//! 1. **Accumulators** ([`crate::storage`]). For every node `v` and color
//!    `j < k`, the weight of `v` toward `P_j` in the side's direction —
//!    `w(v, P_j)` out, `w(P_j, v)` in — held as a dense color-major plane
//!    (one contiguous column per color) or as tiered per-node rows, chosen
//!    per engine by
//!    [`crate::storage::StorageMode`]. Missing tiered entries read as an
//!    exact `0.0`, so min/max over a color's members needs no implicit
//!    zero bookkeeping. Every maintained value is bit-identical across the
//!    tiers; only memory and access constants differ. `Auto` picks the
//!    tiered rows only when the projected dense footprint passes
//!    [`crate::storage::AUTO_DENSE_BYTES`] on a graph sparse relative to
//!    the color budget: below that the dense plane is cache-friendly and
//!    faster, above it the rows are both smaller and faster.
//! 2. **Pair summaries.** For every entry `(a, b)`: the min and max over
//!    `P_a`'s members of their value at `b` — numerically identical to
//!    `DegreeMatrices::compute` up to floating-point associativity
//!    (exactly identical for integer-valued weights).
//! 3. **Extremum attainers and nonzero counts.** Every entry also tracks
//!    *which* member attains its min/max (or [`NO_ARG`], unknown) and how
//!    many members hold a non-zero value. These never influence entry
//!    values — they only decide whether a one-column member rescan is
//!    needed when members change: an entry whose tracked attainer neither
//!    moved nor departed provably keeps its extremum, and a `min == 0`
//!    entry keeps its minimum while any member value stays exactly zero
//!    (the dominant case on sparse graphs, where ties at zero would
//!    otherwise force a rescan storm). Unknown attainers fall back to the
//!    conservative value-equality heuristic.
//!
//! Engine-wide, a **witness-row cache** keeps, per *split-candidate* color
//! `s`, the maximum unweighted error over all entries whose split color is
//! `s` (out-entries `(s, ·)` and in-entries `(·, s)`) and its best
//! β-weighted witness candidate. The two have *separate* staleness flags:
//! a split marks error-dirty only the rows whose entries actually changed,
//! while rows whose cached best merely pointed at the parent (its *size*
//! changed, its errors did not) go best-dirty only, and a β change alone
//! dirties no error state at all. A [`IncrementalDegrees::refresh`] plus
//! witness pick therefore costs `O(stale rows · k)`, not `O(k²)`, and
//! [`IncrementalDegrees::max_error`] stays valid across β changes. The pick
//! is one `O(k)` scan over the cached bests: a heap cannot beat it,
//! because the α size weighting depends on current color sizes and would
//! force a rebuild per pick (a heapify measured 13–16× slower than the
//! scan at `k` from 10² to 10⁴).
//!
//! Each event is a sequence of phases, and each phase is written once and
//! run once per side:
//!
//! * **Splits** ([`IncrementalDegrees::apply_split`], `P_c → (P_c,
//!   P_child)`). Accumulator columns `c`/`child` change only for the
//!   neighbors of the moved nodes (weight conservation: the sum of a
//!   node's `c` and `child` values is invariant). Entries over *other*
//!   colors' member axes are patched from the touched neighbors; the
//!   child's member axis is rebuilt by scanning its members; the parent's
//!   entries keep their values unless their tracked attainer departed to
//!   the child, which queues a one-column member rescan.
//! * **Edge batches** ([`IncrementalDegrees::apply_edge_batch`]). An event
//!   `(u, v, Δ)` adds `Δ` to `u`'s out-value at `color(v)` and to `v`'s
//!   in-value at `color(u)` (or `u`'s mirrored out-value on undirected
//!   graphs). Each side first combines the batch into one delta per
//!   (node, column) — the entry patch rules are sound only when each value
//!   changes once per batch — then folds every change into its entry with
//!   the split path's rules. Cost per batch: `O(events + touched
//!   entries)` plus the rescans, without touching the graph. The partition
//!   must be unchanged by the batch: graph updates and coloring updates
//!   are separate deltas, sequenced by the caller
//!   (`crate::rothko::RothkoRun::apply_edge_batch` patches the engine,
//!   swaps the graph, and then re-establishes the (q, k) invariant by
//!   splitting).
//! * **Merges** ([`IncrementalDegrees::apply_merge`]). The dual of a split:
//!   the loser's members join the winner, accumulator columns fold for the
//!   neighbors of the moved members, entries over other colors' member
//!   axes are patched with the split path's rules, the winner's member
//!   axis is rebuilt, and the last color is relabeled into the freed slot
//!   (`O(touched + k)` row/column copies). Merge *selection*
//!   ([`IncrementalDegrees::merge_candidates`]) is the dual of the witness
//!   rule: it ranks pairs by the **post-merge q-error bound** — exact for
//!   the merged member-axis rows (`min`/`max` over a union is the
//!   `min`/`max` of the parts) and an upper bound for the folded columns
//!   (the spread of a sum is at most the sum of the spreads) — so a
//!   maintained run can coarsen while provably staying within its error
//!   target. The scan bounds only the pairs that can pass: a pair whose
//!   out maxima on a projection column differ by more than the band
//!   cannot, so colors sorted by that key are paired within a band-wide
//!   window, and the surviving pairs read contiguous copies of their
//!   column-side terms. The list equals the exhaustive scan's bit for bit.
//! * **Node churn** ([`IncrementalDegrees::apply_node_inserts`] /
//!   [`IncrementalDegrees::apply_node_removals`]). Fresh isolated nodes
//!   append all-zero rows and extend their color's entries with explicit
//!   zero attainers. Removals (legal only for isolated nodes, whose edges
//!   the preceding edge batch deleted) compact the node axis through the
//!   `GraphDelta` remap, remap the attainers, and rescan only the entries
//!   whose zero extremum lost its last zero member.
//!
//! Every patch phase ends with the same **settle rule** per changed entry:
//! apply the nonzero-count delta; for each extremum flagged as possibly
//! lost, either queue a member rescan or — when the entry's extremum is
//! zero and a zero-valued member remains — keep the value and forget the
//! attainer; dirty the member color's witness row. The queued rescans then
//! run as one batch.
//!
//! All paths preserve the determinism contract: the patched state equals
//! a freshly built engine on the resulting graph/partition (bit-for-bit
//! for exactly representable weights), so maintained and
//! fresh-from-checkpoint runs pick identical witnesses *and* identical
//! merge pairs. Debug builds cross-check the full state against
//! `DegreeMatrices::compute` after every split and merge
//! ([`IncrementalDegrees::verify_against`]).
//!
//! # Sharded refinement: one path, any shard count
//!
//! Each data-parallel phase of the engine is one function that runs over
//! a shard count. Below its dispatch threshold a phase runs as a single
//! shard, inline on the calling thread; above it, it runs as
//! `pool.slots()` shards on a persistent fork-join pool
//! ([`crate::parallel::ThreadPool`], sized by
//! [`IncrementalDegrees::new_with_threads`]; a one-slot pool spawns no
//! threads). A serial engine is therefore the one-shard case of the same
//! code, not a twin of it. The phases:
//!
//! * **Touched collection** — the moved-node list is cut into fixed-size
//!   chunks (chunk size = the touched threshold, *never* the thread
//!   count). A list shorter than one chunk is deduped straight into the
//!   touched list; longer lists deal their chunks round-robin to the
//!   shards, each chunk is deduped into its own `(neighbor, chunk-local
//!   delta)` list, and the lists merge in chunk order. Chunk boundaries
//!   and merge order are pure functions of the input, so the touched
//!   ordering and the accumulated weight deltas are bit-identical for
//!   every thread count — on arbitrary float weights.
//! * **Accumulator deltas** — the touched-node list is chunked
//!   contiguously, one chunk per shard; each shard applies its nodes'
//!   parent→child mass shifts (each node appears in exactly one chunk, so
//!   the row writes are disjoint) and folds per-color partial aggregates
//!   (counts, zero crossings, extension min/max with attainers,
//!   child-column min/max, lost-extremum flags) into shard-local records
//!   (`ShardScratch::fold`). Merges fold their entry patches through the
//!   same records, as one shard.
//! * **Member-axis scans** — an axis rebuild chunks the member list, each
//!   shard folding a full `k`-column min/max row.
//! * **Entry rescans** — queued lost-extremum columns are distributed
//!   whole-entry-per-shard; a shard whose entries share one member axis
//!   hands them over together (tiered rows fold them in a single member
//!   pass).
//! * **Witness refresh** — stale rows are independent `O(k)` scans writing
//!   disjoint cache slots.
//!
//! At every join the records merge *in shard order* using only exact
//! reductions — min/max (selections, no arithmetic), sums of disjoint
//! counts, logical or — and strict comparisons keep the first-shard
//! attainer on ties, which is the first member in scan order. A shard's
//! lost-extremum flag is judged against the attainer its own fold reached
//! and dropped at the merge when an earlier shard already extended the
//! entry, which is the attainer a single shard would have tracked.
//! Results are therefore **bit-identical for every shard count** —
//! values, extremum attainers, touched order and witness sequence;
//! `tests/tests/parallel_engine.rs` pins this across thread counts
//! {1, 2, 8} and batch sizes {1, 4}, `tests/tests/storage_modes.rs`
//! compares whole engine states (snapshot plus pair summaries) across
//! shard counts and pins their digest, and the per-split debug cross-check
//! ([`IncrementalDegrees::verify_against`]) covers every shard count. The
//! dispatch thresholds ([`IncrementalDegrees::set_parallel_thresholds`])
//! only trade scheduling, never semantics.
//!
//! # Lane-kernel hot paths
//!
//! The engine's inner loops route through [`crate::kernels`] (blocked,
//! autovectorization-friendly f64 lane work with *exact sequential scan
//! semantics* — see the module's determinism notes):
//!
//! * **Member-axis rebuilds** fold the dense plane's columns in blocks
//!   over the member list ([`crate::kernels::fold_minmax_columns`]);
//!   tiered rows fold member by member
//!   ([`crate::kernels::fold_minmax_sparse_row`], which hands promoted
//!   rows to [`crate::kernels::fold_minmax_row`]).
//! * **Witness-row scans** at β = 0 collapse to one contiguous max-spread
//!   pass ([`crate::kernels::row_err_argmax`]) instead of the per-column
//!   weighted compare.
//! * **Final report**: [`crate::rothko::RothkoRun::finish`] reads
//!   [`IncrementalDegrees::q_report`] off the live summaries (`O(k²)`)
//!   instead of recomputing [`DegreeMatrices`] from the graph
//!   (`O(n·k + m)`).
//! * **Entry rescans** on the dense plane gather one contiguous column
//!   each ([`crate::kernels::scan_gather_column`]). The parent-axis repair
//!   after a split reads the same few columns for every queued entry, so
//!   they stay cache-resident across the batch. Tiered rows batch that
//!   repair into a single member pass
//!   ([`crate::kernels::scan_gather_columns_sparse`]), probing each row
//!   once instead of once per column.
//! * **Split apply** walks the touched list with explicit prefetch
//!   ([`crate::kernels::prefetch_read`]) and reads the per-node deltas
//!   positionally from the touched list instead of re-gathering a
//!   per-node array.
//!
//! The entry *gather* itself is one dependent load per member and gains
//! nothing from lane form; the wins come from the layout (a rescan reads
//! one cache-resident column, not one row per member) and from removing
//! passes.

use crate::kernels;
use crate::parallel::{chunk_range, default_threads, SyncSliceMut, ThreadPool};
use crate::partition::{MergeEvent, Partition, SplitEvent};
use crate::similarity::Similarity;
use crate::storage::{regrow, tight, Accum, ResolvedStorage, StorageMode};
use qsc_graph::delta::{EdgeEvent, NodeRemap};
use qsc_graph::{ColumnAdvice, ColumnBuf, Graph, NodeId};
use std::collections::HashMap;

/// Sentinel for "extremum attainer unknown" in the pair-summary witness
/// arrays (forces the conservative rescan heuristic for that entry).
/// Shared with the lane kernels in [`crate::kernels`].
pub(crate) use crate::kernels::NO_ARG;

/// Direction of a degree/error matrix entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Entry `(i, j)` talks about outgoing weights of nodes in `P_i` into `P_j`.
    Out,
    /// Entry `(i, j)` talks about incoming weights of nodes in `P_j` from `P_i`.
    In,
}

/// Per-color-pair degree summaries of a coloring: for every ordered pair of
/// colors `(i, j)`, the maximum, minimum and total weight from nodes of `P_i`
/// into `P_j` (outgoing view) and from `P_i` into nodes of `P_j` (incoming
/// view). This is the `U`/`L` pair of Algorithm 1.
#[derive(Clone, Debug)]
pub struct DegreeMatrices {
    /// Number of colors `k`. All matrices are `k × k`, row-major.
    pub k: usize,
    /// `out_max[i*k + j] = max_{v ∈ P_i} w(v, P_j)`.
    pub out_max: Vec<f64>,
    /// `out_min[i*k + j] = min_{v ∈ P_i} w(v, P_j)`.
    pub out_min: Vec<f64>,
    /// `in_max[i*k + j] = max_{v ∈ P_j} w(P_i, v)`.
    pub in_max: Vec<f64>,
    /// `in_min[i*k + j] = min_{v ∈ P_j} w(P_i, v)`.
    pub in_min: Vec<f64>,
    /// `sum[i*k + j] = w(P_i, P_j)`, the total weight between the colors.
    pub sum: Vec<f64>,
    /// `nonzero[i*k + j]`: number of nodes of `P_i` with non-zero weight into
    /// `P_j` (used to decide whether a pair has any edges at all).
    pub nonzero: Vec<u32>,
}

impl DegreeMatrices {
    /// Compute the degree matrices of `p` on `g`. `O(n + m + k²)` time and
    /// `O(k²)` memory.
    pub fn compute(g: &Graph, p: &Partition) -> Self {
        let n = g.num_nodes();
        assert_eq!(p.num_nodes(), n, "partition does not match graph");
        let k = p.num_colors();
        let mut out_max = vec![f64::NEG_INFINITY; k * k];
        let mut out_min = vec![f64::INFINITY; k * k];
        let mut in_max = vec![f64::NEG_INFINITY; k * k];
        let mut in_min = vec![f64::INFINITY; k * k];
        let mut sum = vec![0.0f64; k * k];
        let mut out_count = vec![0u32; k * k];
        let mut in_count = vec![0u32; k * k];

        let mut scratch = vec![0.0f64; k];
        let mut touched: Vec<u32> = Vec::with_capacity(k);

        for v in 0..n as u32 {
            let ci = p.color_of(v) as usize;
            // Outgoing.
            touched.clear();
            for (t, w) in g.out_edges(v) {
                let cj = p.color_of(t) as usize;
                if scratch[cj] == 0.0 && !touched.contains(&(cj as u32)) {
                    touched.push(cj as u32);
                }
                scratch[cj] += w;
            }
            for &cj in &touched {
                let cj = cj as usize;
                let w = scratch[cj];
                let idx = ci * k + cj;
                if w > out_max[idx] {
                    out_max[idx] = w;
                }
                if w < out_min[idx] {
                    out_min[idx] = w;
                }
                sum[idx] += w;
                out_count[idx] += 1;
                scratch[cj] = 0.0;
            }
            // Incoming.
            touched.clear();
            for (s, w) in g.in_edges(v) {
                let cj = p.color_of(s) as usize;
                if scratch[cj] == 0.0 && !touched.contains(&(cj as u32)) {
                    touched.push(cj as u32);
                }
                scratch[cj] += w;
            }
            for &cj in &touched {
                let cj = cj as usize;
                let w = scratch[cj];
                // Entry (cj, ci): weights from P_cj into node v of P_ci.
                let idx = cj * k + ci;
                if w > in_max[idx] {
                    in_max[idx] = w;
                }
                if w < in_min[idx] {
                    in_min[idx] = w;
                }
                in_count[idx] += 1;
                scratch[cj] = 0.0;
            }
        }

        // Account for nodes with zero weight towards a color: if not every
        // node of the source color touched the pair, the minimum weight is at
        // most 0 and the maximum at least 0. Pairs with no edges at all get
        // max = min = 0.
        for i in 0..k {
            let size_i = p.size(i as u32) as u32;
            for j in 0..k {
                let idx = i * k + j;
                if out_count[idx] == 0 {
                    out_max[idx] = 0.0;
                    out_min[idx] = 0.0;
                } else if out_count[idx] < size_i {
                    out_max[idx] = out_max[idx].max(0.0);
                    out_min[idx] = out_min[idx].min(0.0);
                }
                let size_j = p.size(j as u32) as u32;
                if in_count[idx] == 0 {
                    in_max[idx] = 0.0;
                    in_min[idx] = 0.0;
                } else if in_count[idx] < size_j {
                    in_max[idx] = in_max[idx].max(0.0);
                    in_min[idx] = in_min[idx].min(0.0);
                }
            }
        }

        DegreeMatrices {
            k,
            out_max,
            out_min,
            in_max,
            in_min,
            sum,
            nonzero: out_count,
        }
    }

    /// Outgoing error `U − L` at `(i, j)`.
    #[inline]
    pub fn out_error(&self, i: usize, j: usize) -> f64 {
        self.out_max[i * self.k + j] - self.out_min[i * self.k + j]
    }

    /// Incoming error at `(i, j)`.
    #[inline]
    pub fn in_error(&self, i: usize, j: usize) -> f64 {
        self.in_max[i * self.k + j] - self.in_min[i * self.k + j]
    }

    /// Outgoing *relative* error at `(i, j)`: the smallest `ε` such that all
    /// outgoing weights of `P_i` into `P_j` are pairwise `∼_ε`-similar
    /// (`ln(max/min)` for positive weights, `0` when all weights are equal,
    /// `+∞` when the weights mix zero/non-zero values or signs).
    pub fn out_relative_error(&self, i: usize, j: usize) -> f64 {
        relative_spread(self.out_min[i * self.k + j], self.out_max[i * self.k + j])
    }

    /// Incoming relative error at `(i, j)` (see [`Self::out_relative_error`]).
    pub fn in_relative_error(&self, i: usize, j: usize) -> f64 {
        relative_spread(self.in_min[i * self.k + j], self.in_max[i * self.k + j])
    }

    /// Maximum relative error over all pairs and both directions.
    pub fn max_relative_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.k {
            for j in 0..self.k {
                max = max
                    .max(self.out_relative_error(i, j))
                    .max(self.in_relative_error(i, j));
            }
        }
        max
    }

    /// Total weight `w(P_i, P_j)`.
    #[inline]
    pub fn pair_weight(&self, i: usize, j: usize) -> f64 {
        self.sum[i * self.k + j]
    }

    /// Maximum error over all pairs and both directions.
    pub fn max_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.k {
            for j in 0..self.k {
                max = max.max(self.out_error(i, j)).max(self.in_error(i, j));
            }
        }
        max
    }

    /// Mean error over pairs that have at least one edge (both directions).
    pub fn mean_error(&self) -> f64 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in 0..self.k {
            for j in 0..self.k {
                if self.nonzero[i * self.k + j] > 0 {
                    total += self.out_error(i, j);
                    total += self.in_error(i, j);
                    count += 2;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// The smallest `ε` such that every value in `[min, max]`-spread data is
/// pairwise `∼_ε`-similar (Sec. 3.1, ε-relative coloring).
fn relative_spread(min: f64, max: f64) -> f64 {
    if min == max {
        return 0.0;
    }
    if min <= 0.0 && max >= 0.0 && (min != 0.0 || max != 0.0) {
        // A zero together with a non-zero value (or mixed signs) can never
        // be ε-similar.
        if min == 0.0 && max == 0.0 {
            return 0.0;
        }
        return f64::INFINITY;
    }
    let (lo, hi) = (min.abs().min(max.abs()), min.abs().max(max.abs()));
    if lo == 0.0 {
        return f64::INFINITY;
    }
    (hi / lo).ln()
}

/// Maximum ε-relative error of a coloring: the smallest `ε` such that `p` is
/// an ε-relative quasi-stable coloring of `g` (possibly `+∞`).
pub fn max_relative_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).max_relative_error()
}

/// A compact report of the quality of a coloring.
#[derive(Clone, Debug, PartialEq)]
pub struct QErrorReport {
    /// Maximum q-error over all color pairs and both directions.
    pub max_q: f64,
    /// Mean q-error over color pairs with at least one edge.
    pub mean_q: f64,
    /// Number of colors.
    pub num_colors: usize,
    /// The pair of colors and direction attaining the maximum error.
    pub worst_pair: Option<(u32, u32, Direction)>,
}

/// Compute a [`QErrorReport`] for a coloring.
pub fn q_error_report(g: &Graph, p: &Partition) -> QErrorReport {
    let m = DegreeMatrices::compute(g, p);
    let mut max_q = 0.0f64;
    let mut worst = None;
    for i in 0..m.k {
        for j in 0..m.k {
            let eo = m.out_error(i, j);
            if eo > max_q {
                max_q = eo;
                worst = Some((i as u32, j as u32, Direction::Out));
            }
            let ei = m.in_error(i, j);
            if ei > max_q {
                max_q = ei;
                worst = Some((i as u32, j as u32, Direction::In));
            }
        }
    }
    QErrorReport {
        max_q,
        mean_q: m.mean_error(),
        num_colors: m.k,
        worst_pair: worst,
    }
}

/// Maximum q-error of the coloring: the smallest `q` for which `p` is a
/// `q`-stable coloring of `g`.
pub fn max_q_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).max_error()
}

/// Mean q-error of the coloring over color pairs with at least one edge.
pub fn mean_q_error(g: &Graph, p: &Partition) -> f64 {
    DegreeMatrices::compute(g, p).mean_error()
}

/// Exhaustively check Definition 1: is `p` a `∼`-quasi-stable coloring of
/// `g`? This performs pairwise similarity checks within every color (cost
/// `O(Σ_i |P_i|² · k)` in the worst case); it is intended for validation and
/// tests, not production use. For the absolute (`q`) relation prefer
/// [`max_q_error`].
pub fn is_quasi_stable<S: Similarity>(g: &Graph, p: &Partition, sim: &S) -> bool {
    let k = p.num_colors();
    let n = g.num_nodes();
    // Per node, accumulate weight to each color (out) and from each color
    // (in), then check pairwise within each color.
    for j in 0..k as u32 {
        // Outgoing weights into color j, grouped by source color.
        let mut per_node = vec![0.0f64; n];
        for &t in p.members(j) {
            for (s, w) in g.in_edges(t) {
                per_node[s as usize] += w;
            }
        }
        for i in 0..k as u32 {
            let members = p.members(i);
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    let u = per_node[members[a] as usize];
                    let v = per_node[members[b] as usize];
                    if !sim.similar(u, v) {
                        return false;
                    }
                }
            }
        }
        // Incoming weights from color j, grouped by target color.
        let mut per_node_in = vec![0.0f64; n];
        for &s in p.members(j) {
            for (t, w) in g.out_edges(s) {
                per_node_in[t as usize] += w;
            }
        }
        for i in 0..k as u32 {
            let members = p.members(i);
            for a in 0..members.len() {
                for b in (a + 1)..members.len() {
                    let u = per_node_in[members[a] as usize];
                    let v = per_node_in[members[b] as usize];
                    if !sim.similar(u, v) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// A witness candidate produced by [`IncrementalDegrees::pick_witness`]: the
/// color pair and direction with the largest size-weighted error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WitnessCandidate {
    /// The color whose members disagree (the one to split).
    pub split_color: u32,
    /// The color the disagreeing degrees point towards / come from.
    pub other_color: u32,
    /// `true`: members of `split_color` differ in outgoing weight into
    /// `other_color`; `false`: they differ in incoming weight from it.
    pub outgoing: bool,
    /// The unweighted q-error of the pair.
    pub error: f64,
}

/// A coarsening candidate produced by
/// [`IncrementalDegrees::merge_candidates`] or [`pick_merge_scratch`]: a
/// color pair and its provable post-merge q-error bound (the dual of the
/// split-witness rule).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeCandidate {
    /// The surviving color (always the smaller id).
    pub winner: u32,
    /// The color to merge away.
    pub loser: u32,
    /// Upper bound on the maximum q-error of the partition after the merge
    /// (exact on the merged member-axis rows, a sum-of-spreads bound on the
    /// folded columns).
    pub bound: f64,
}

/// Deterministic work counters of an [`IncrementalDegrees`] engine. Each
/// count is a pure function of the engine's inputs, so it is equal for
/// every thread count and storage mode; a restored or freshly built
/// engine starts from zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Eligible color pairs offered to
    /// [`IncrementalDegrees::merge_candidates`]: the pair bounds an
    /// exhaustive scan would evaluate.
    pub merge_pairs_eligible: u64,
    /// Pair bounds `merge_candidates` evaluated: the eligible pairs that
    /// survived its projection pruning.
    pub merge_pair_bounds: u64,
}

/// Read-only access to one set of pair summaries — the engine's live
/// matrices or from-scratch [`DegreeMatrices`] — shared by every
/// merge-bound evaluation, so the engine scan, the per-candidate re-check
/// and the from-scratch pick run the one [`merge_bound`] operation
/// sequence (the engine/scratch pick-equivalence contract, as with
/// witness selection).
trait PairMinMax {
    /// Number of colors.
    fn k(&self) -> usize;
    /// `(min, max)` of out-entry `(i, j)`.
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64);
    /// `(min, max)` of in-entry `(i, j)`.
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64);
    /// Out-entries `(a, 0..k)`: row `a` of the min and max matrices.
    fn out_row(&self, a: usize) -> (&[f64], &[f64]);
    /// In-entries `(a, 0..k)`; empty on a [mirrored](Self::mirrored) view.
    fn in_row(&self, a: usize) -> (&[f64], &[f64]);
    /// Whether every in-entry `(i, j)` is out-entry `(j, i)` bit for bit
    /// (a symmetric engine), so [`merge_bound`]'s in-direction terms
    /// repeat its out-direction ones and are skipped.
    fn mirrored(&self) -> bool;
}

/// Contiguous copies of some colors' column-side merge-bound operands —
/// the terms of entries `(·, a)`, which the summary matrices hold a full
/// stride apart — so a pair's bound reads only contiguous `k`-vectors.
/// Per color, one block of `k` out-column spreads `max − min`, then on a
/// non-mirrored view `k` in-column minima and `k` maxima. A spread is
/// computed with the very subtraction the bound would apply, so reading
/// it here changes where a value comes from, never its bits.
#[derive(Clone, Debug, Default)]
struct MergePanel {
    /// Block index of each filled color, indexed by color.
    slot: Vec<u32>,
    terms: Vec<f64>,
    /// Floats per block.
    stride: usize,
}

impl MergePanel {
    /// Copy the column-side operands of `colors` (distinct ids below
    /// `view.k()`), in column blocks of `LANES` so each color's block is
    /// written a cache line at a time.
    fn fill<V: PairMinMax>(&mut self, view: &V, colors: &[u32]) {
        let k = view.k();
        let mirrored = view.mirrored();
        let stride = if mirrored { k } else { 3 * k };
        self.stride = stride;
        self.slot.resize(self.slot.len().max(k), 0);
        self.terms.resize(colors.len() * stride, 0.0);
        for (s, &a) in colors.iter().enumerate() {
            self.slot[a as usize] = s as u32;
        }
        for j0 in (0..k).step_by(kernels::LANES) {
            let hi = (j0 + kernels::LANES).min(k);
            for (block, &a) in self.terms.chunks_exact_mut(stride).zip(colors) {
                for j in j0..hi {
                    let (min, max) = view.out_mm(j, a as usize);
                    block[j] = max - min;
                    if !mirrored {
                        (block[k + j], block[2 * k + j]) = view.in_mm(j, a as usize);
                    }
                }
            }
        }
    }

    /// Color `a`'s operands: its summary rows and its panel block.
    fn operands<'a, V: PairMinMax>(&'a self, view: &'a V, a: usize) -> Operands<'a> {
        let k = view.k();
        let block = &self.terms[self.slot[a] as usize * self.stride..][..self.stride];
        let (col_spread, in_cols) = block.split_at(k);
        let (in_col_min, in_col_max) = in_cols.split_at(in_cols.len() / 2);
        let (out_min, out_max) = view.out_row(a);
        let (in_min, in_max) = view.in_row(a);
        Operands {
            out_min,
            out_max,
            col_spread,
            in_min,
            in_max,
            in_col_min,
            in_col_max,
        }
    }
}

/// One color `a`'s column-sweep operands for [`merge_bound`], each a
/// `k`-vector indexed by the other color `j`; the `in_*` vectors are
/// empty on a mirrored view.
struct Operands<'a> {
    /// Out-entries `(a, j)`.
    out_min: &'a [f64],
    out_max: &'a [f64],
    /// Spreads of out-entries `(j, a)`.
    col_spread: &'a [f64],
    /// In-entries `(a, j)`.
    in_min: &'a [f64],
    in_max: &'a [f64],
    /// In-entries `(j, a)`.
    in_col_min: &'a [f64],
    in_col_max: &'a [f64],
}

/// Lanes `j0..hi` of a `k`-vector.
#[inline]
fn lanes(v: &[f64], j0: usize, hi: usize) -> &[f64] {
    &v[j0..hi]
}

/// Upper bound on the maximum q-error after merging colors `a` and `b`
/// (`a < b`), from the pair summaries alone:
///
/// * merged member-axis rows are exact (`min`/`max` over the union of two
///   member sets is the `min`/`max` of the per-set extrema);
/// * folded columns (`w(v, P_a) + w(v, P_b)`) use the sum-of-spreads
///   bound `spread(x + y) <= spread(x) + spread(y)`;
/// * the merged self entry combines both rules.
///
/// Self entries read through `view`; the column sweep reads each color's
/// [`Operands`], so `panel` must hold `a` and `b`. Returns
/// `f64::INFINITY` as soon as the running bound exceeds `cap` (the early
/// exit never changes which pairs pass a `<= cap` test or the bound
/// reported for passing pairs, so selections stay deterministic) — this
/// is what keeps the coarsening scans cheap: for most pairs the very
/// first columns already blow the budget.
///
/// On a [mirrored](PairMinMax::mirrored) view each in-direction term
/// equals an out-direction term of the same column bit for bit, so
/// skipping them leaves every max-fold, and the result, unchanged.
fn merge_bound<V: PairMinMax>(view: &V, panel: &MergePanel, a: usize, b: usize, cap: f64) -> f64 {
    const L: usize = kernels::LANES;
    const { assert!(L.is_power_of_two()) };
    let mirrored = view.mirrored();
    let mut bound = 0.0f64;
    // Merged self entry (ab, ab), out: `w(v, P_a) + w(v, P_b)` over the
    // union — per-column union extrema, then the interval sum.
    let (aam, aax) = view.out_mm(a, a);
    let (bam, bax) = view.out_mm(b, a);
    let (abm, abx) = view.out_mm(a, b);
    let (bbm, bbx) = view.out_mm(b, b);
    bound = bound.max((aax.max(bax) + abx.max(bbx)) - (aam.min(bam) + abm.min(bbm)));
    if !mirrored {
        // And the in-direction self entry.
        let (iaam, iaax) = view.in_mm(a, a);
        let (iabm, iabx) = view.in_mm(a, b);
        let (ibam, ibax) = view.in_mm(b, a);
        let (ibbm, ibbx) = view.in_mm(b, b);
        bound = bound.max((iaax.max(iabx) + ibax.max(ibbx)) - (iaam.min(iabm) + ibam.min(ibbm)));
    }
    if bound > cap {
        return f64::INFINITY;
    }
    // Column sweep in blocks of `LANES`: the early exit coarsens to block
    // granularity, which never changes the result (the max-fold only
    // grows, and INFINITY is returned iff the final bound exceeds `cap`),
    // and the branch-free block body and the pairwise block max let the
    // per-column loads pipeline. The `j ∈ {a, b}` columns are masked to
    // `0.0` instead of skipped — every unmasked contribution is
    // nonnegative (spreads and sums of spreads of nonempty member sets),
    // so `0.0` is the identity under the max-fold, which is exact in any
    // order.
    let (x, y) = (panel.operands(view, a), panel.operands(view, b));
    let k = view.k();
    let pick = |p: f64, q: f64| if q > p { q } else { p };
    let mut j0 = 0;
    while j0 < k {
        let hi = (j0 + L).min(k);
        let mut cs = [0.0f64; L];
        let block = |v| lanes(v, j0, hi);
        let (xmn, xmx, xsp) = (block(x.out_min), block(x.out_max), block(x.col_spread));
        let (ymn, ymx, ysp) = (block(y.out_min), block(y.out_max), block(y.col_spread));
        for (i, cell) in cs[..hi - j0].iter_mut().enumerate() {
            // Merged row (ab, j): union member axis — exact.
            let c = xmx[i].max(ymx[i]) - xmn[i].min(ymn[i]);
            // Folded column (j, ab): per-member sums — sum of spreads.
            *cell = c.max(xsp[i] + ysp[i]);
        }
        if !mirrored {
            let (xim, xix) = (block(x.in_col_min), block(x.in_col_max));
            let (yim, yix) = (block(y.in_col_min), block(y.in_col_max));
            let (xrm, xrx) = (block(x.in_min), block(x.in_max));
            let (yrm, yrx) = (block(y.in_min), block(y.in_max));
            for (i, cell) in cs[..hi - j0].iter_mut().enumerate() {
                // In-direction: (j, ab) ranges over the union member
                // axis — exact.
                let c = cell.max(xix[i].max(yix[i]) - xim[i].min(yim[i]));
                // In-direction folded source (ab, j): sums over P_j's
                // members.
                *cell = c.max((xrx[i] - xrm[i]) + (yrx[i] - yrm[i]));
            }
        }
        for j in [a, b] {
            if (j0..hi).contains(&j) {
                cs[j - j0] = 0.0;
            }
        }
        let mut width = L;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                cs[i] = pick(cs[i], cs[i + width]);
            }
        }
        bound = bound.max(cs[0]);
        if bound > cap {
            return f64::INFINITY;
        }
        j0 = hi;
    }
    bound
}

/// Per-row best witness candidate cached by the engine (weighted by the
/// target-size exponent β only; the source-size exponent α is applied at
/// pick time because the row's own size can change without invalidating the
/// row's internal ordering).
#[derive(Clone, Copy, Debug)]
struct RowBest {
    weighted: f64,
    other: u32,
    outgoing: bool,
    error: f64,
}

/// Per-color scratch record used while applying a split (one per color that
/// contains a neighbor of a moved node).
#[derive(Clone, Copy, Debug)]
struct TouchedColor {
    color: u32,
    /// Entry extrema at batch start (for detecting a lost extremum).
    orig_min: f64,
    orig_max: f64,
    /// Whether the entry's tracked min/max attainer moved inward (or an
    /// attainer is unknown and a touched node left the batch-start
    /// extremum). The finalize step downgrades a flagged side to "no
    /// rescan" when the zero-count rule proves the extremum stands.
    rescan_min: bool,
    rescan_max: bool,
    /// Distinct touched members of this color.
    count: usize,
    /// Net change to the entry's nonzero-member count (values crossing
    /// zero).
    nz_delta: i64,
    /// Touched members with a non-zero child-column value.
    child_nonzero: u32,
    /// Min/max of the touched members' accumulator values in the child
    /// column, with their attainers.
    child_min: f64,
    child_max: f64,
    child_min_arg: u32,
    child_max_arg: u32,
}

impl TouchedColor {
    fn fresh(color: u32, orig_min: f64, orig_max: f64) -> Self {
        TouchedColor {
            color,
            orig_min,
            orig_max,
            rescan_min: false,
            rescan_max: false,
            count: 0,
            nz_delta: 0,
            child_nonzero: 0,
            child_min: f64::INFINITY,
            child_max: f64::NEG_INFINITY,
            child_min_arg: NO_ARG,
            child_max_arg: NO_ARG,
        }
    }
}

/// Per-entry scratch record of an edge batch: one per pair-summary entry
/// whose member values changed, tracking the batch-start extrema (for
/// lost-extremum detection), the queued rescan flags, and the net
/// zero-crossing count — the edge-path analogue of [`TouchedColor`].
#[derive(Clone, Copy, Debug)]
struct EdgeEntryPatch {
    member: u32,
    other: u32,
    orig_min: f64,
    orig_max: f64,
    rescan_min: bool,
    rescan_max: bool,
    nz_delta: i64,
}

/// The incremental refinement engine: degree matrices plus per-node degree
/// accumulators, kept in sync with a partition across [`SplitEvent`]s.
///
/// See the module documentation for the maintained invariants. Typical use:
///
/// ```
/// use qsc_core::q_error::{DegreeMatrices, IncrementalDegrees};
/// use qsc_core::Partition;
/// use qsc_graph::generators::karate_club;
///
/// let g = karate_club();
/// let mut p = Partition::unit(g.num_nodes());
/// let mut engine = IncrementalDegrees::new(&g, &p);
/// // Split off the high-degree nodes and update the engine in O(touched).
/// let event = p.split_color(0, |v| g.out_degree(v) > 5).unwrap();
/// engine.apply_split(&g, &p, &event);
/// assert_eq!(engine.verify_against(&g, &p), Ok(()));
/// let scratch = DegreeMatrices::compute(&g, &p);
/// assert_eq!(engine.out_error(0, 1), scratch.out_error(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalDegrees {
    n: usize,
    k: usize,
    /// Column capacity (stride) of the accumulator planes and summary
    /// matrices; grows geometrically as colors are added.
    cap: usize,
    /// The out side and the in side (see the module docs). The in side is
    /// empty on symmetric engines; [`Self::dir`] maps every in-direction
    /// access to the out side there.
    sides: [Side; 2],
    /// Whether the graph is undirected (stored as symmetric arcs), so the
    /// in side mirrors the out side and is not kept.
    symmetric: bool,
    /// β exponent used by the last [`Self::refresh`]; negative values void
    /// the best-pointed-at-parent invalidation shortcut (shrinking a target
    /// color then *grows* candidate weights), so splits dirty every row's
    /// cached best.
    last_beta: f64,
    /// The witness-row cache (module docs).
    rows: WitnessRows,
    /// Packed per-node dedupe mark for the touched collection: generation
    /// stamp in the low half, index into `touched_nodes` in the high half.
    /// One cache line per probe covers both "seen this round?" and "where
    /// does its delta accumulate?", so the split hot loop can read deltas
    /// *positionally* from `touched_deltas` instead of re-gathering a
    /// per-node array.
    node_mark: Vec<u64>,
    mark_gen: u32,
    touched_nodes: Vec<NodeId>,
    /// Accumulated weight delta of `touched_nodes[i]`, index-parallel.
    touched_deltas: Vec<f64>,
    /// Color-slot scratch for per-touched-color aggregation (self-validating
    /// indices into `touched_colors`).
    color_slot: Vec<u32>,
    touched_colors: Vec<TouchedColor>,
    /// Fork-join pool of the data-parallel phases. A phase runs as one
    /// shard on the calling thread below its dispatch threshold and as
    /// `pool.slots()` shards above it; shards reduce with exact
    /// operations, so results are bit-identical for every shard count
    /// (see the module docs).
    pool: Pool,
    /// Per-shard scratch, one per pool slot (so at least one).
    shard_scratch: Vec<ShardScratch>,
    /// Parallel-dispatch thresholds (see [`Self::set_parallel_thresholds`]).
    par_min_touched: usize,
    par_min_scan_work: usize,
    /// The refresh's stale-row list.
    dirty_scratch: Vec<u32>,
    /// Per-chunk `(nodes, chunk-local deltas)` lists of the chunked
    /// touched collection.
    chunk_out: Vec<(Vec<NodeId>, Vec<f64>)>,
    /// The coarsening candidate scan's scratch.
    merge_scan: MergeScan,
    counters: Counters,
}

/// The engine's fork-join pool. A clone gets a pool of its own with the
/// same slot count, since a pool's fork-join handshake serves one engine
/// at a time.
#[derive(Debug)]
struct Pool(ThreadPool);

impl Clone for Pool {
    fn clone(&self) -> Self {
        Pool(ThreadPool::new(self.0.slots()))
    }
}

/// One direction of the engine's state (see the module docs): its
/// accumulators, its pair summaries, and the per-event scratch its phases
/// reuse (kept here so every event path stays allocation-free).
#[derive(Clone, Debug, Default)]
struct Side {
    acc: Accum,
    pairs: Pairs,
    /// Queued member rescans, as `(member color, other color)` entries.
    rescans: Vec<(u32, u32)>,
    /// Edge batch: patched-entry records and their entry-index → record
    /// map.
    patches: Vec<EdgeEntryPatch>,
    patch_slot: HashMap<usize, usize>,
    /// Edge batch: one combined delta per `(node, column)`, in first-touch
    /// order, and its `(node, column)` → list-index map.
    combined: Vec<(NodeId, u32, f64)>,
    combined_slot: HashMap<(NodeId, u32), usize>,
    /// Merge fold: `(node, old, new)` winner-column values of the touched
    /// nodes, recorded before the relabel so entry patches run in the
    /// post-relabel id space.
    capture: Vec<(NodeId, f64, f64)>,
}

/// One side's pair summaries: for every entry `(member color a, other
/// color b)`, the min and max over `P_a`'s members of their accumulator
/// value at `b`, the members attaining them ([`NO_ARG`] when unknown),
/// and the number of members with a non-zero value. Entry `(a, b)` lives
/// at `a * ms + b * os` of each `cap × cap` matrix.
#[derive(Clone, Debug, Default)]
struct Pairs {
    outgoing: bool,
    ms: usize,
    os: usize,
    min: Vec<f64>,
    max: Vec<f64>,
    min_arg: Vec<u32>,
    max_arg: Vec<u32>,
    nz: Vec<u32>,
}

/// The witness-row cache, one slot per color (see the module docs). The
/// two staleness flags have different triggers: `err_dirty` means the
/// row's *entries* changed (max error and best both stale), while
/// `best_dirty` alone means only the cached β-weighted best is stale (a
/// color size or β itself changed) — `max_err` is β-independent, so a
/// β-only rebuild skips the error bookkeeping entirely and
/// [`IncrementalDegrees::max_error`] stays valid across β changes.
#[derive(Clone, Debug)]
struct WitnessRows {
    max_err: Vec<f64>,
    best: Vec<Option<RowBest>>,
    err_dirty: Vec<bool>,
    best_dirty: Vec<bool>,
}

impl WitnessRows {
    /// `cap` slots, all dirty.
    fn new(cap: usize) -> Self {
        WitnessRows {
            max_err: vec![0.0; cap],
            best: vec![None; cap],
            err_dirty: vec![true; cap],
            best_dirty: vec![true; cap],
        }
    }

    /// Mark row `s` stale in both its error and its best.
    #[inline]
    fn dirty(&mut self, s: usize) {
        self.err_dirty[s] = true;
        self.best_dirty[s] = true;
    }

    fn heap_bytes(&self) -> usize {
        self.max_err.capacity() * 8
            + self.best.capacity() * std::mem::size_of::<Option<RowBest>>()
            + self.err_dirty.capacity()
            + self.best_dirty.capacity()
    }
}

/// Scratch of the merge-bound evaluations ([`IncrementalDegrees::merge_candidates`]
/// and [`IncrementalDegrees::merge_bound_pair`]), owned by the engine and
/// reused across calls so they allocate only their result.
#[derive(Clone, Debug, Default)]
struct MergeScan {
    /// The eligible colors, ascending.
    eligible: Vec<u32>,
    /// Per-column `(sum, sum of squares)` of the eligible colors' out
    /// maxima, from which the projection columns are picked.
    moments: Vec<(f64, f64)>,
    /// Sweep keys `(out max at j₁, out max at j₂, color)` of the eligible
    /// colors other than `j₁` itself, sorted by the first key.
    keys: Vec<(f64, f64, u32)>,
    panel: MergePanel,
}

impl MergeScan {
    /// The two projection columns: the columns where the eligible colors'
    /// out maxima have the largest variance (the first on ties). Any pick
    /// keeps the scan exact; this one tends to spread the keys widest.
    /// Requires `k >= 2`.
    fn projection_columns(&mut self, view: &SummaryView) -> (usize, usize) {
        let k = view.k;
        self.moments.clear();
        self.moments.resize(k, (0.0, 0.0));
        for &a in &self.eligible {
            for (m, &x) in self.moments.iter_mut().zip(view.out_row(a as usize).1) {
                m.0 += x;
                m.1 += x * x;
            }
        }
        let n = self.eligible.len() as f64;
        let variance = |j: usize| {
            let (sum, squares) = self.moments[j];
            let mean = sum / n;
            squares / n - mean * mean
        };
        let widest = |skip: usize| {
            (0..k)
                .filter(|&j| j != skip)
                .reduce(|best, j| {
                    if variance(j) > variance(best) {
                        j
                    } else {
                        best
                    }
                })
                .expect("k >= 2")
        };
        let j1 = widest(usize::MAX);
        (j1, widest(j1))
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.eligible.capacity() * 4
            + self.moments.capacity() * size_of::<(f64, f64)>()
            + self.keys.capacity() * size_of::<(f64, f64, u32)>()
            + self.panel.slot.capacity() * 4
            + self.panel.terms.capacity() * 8
    }
}

impl Pairs {
    /// Summaries over a `cap × cap` matrix (`cells_cap = 0` for a side or
    /// mode that keeps none), every entry "no edges": zero extrema with
    /// unknown attainers and no nonzero members.
    fn new(outgoing: bool, cap: usize, cells_cap: usize) -> Self {
        let cells = cells_cap * cells_cap;
        let mut pairs = Pairs {
            outgoing,
            ms: 0,
            os: 0,
            min: vec![0.0; cells],
            max: vec![0.0; cells],
            min_arg: vec![NO_ARG; cells],
            max_arg: vec![NO_ARG; cells],
            nz: vec![0; cells],
        };
        pairs.restride(cap);
        pairs
    }

    fn restride(&mut self, cap: usize) {
        (self.ms, self.os) = if self.outgoing { (cap, 1) } else { (1, cap) };
    }

    /// Index of entry `(member, other)`.
    #[inline]
    fn at(&self, member: usize, other: usize) -> usize {
        member * self.ms + other * self.os
    }

    /// The q-error `max − min` of entry `(member, other)`.
    #[inline]
    fn error(&self, member: usize, other: usize) -> f64 {
        let idx = self.at(member, other);
        self.max[idx] - self.min[idx]
    }

    /// Extend entry `idx` outward: a strictly smaller `lo` (attained by
    /// `lo_arg`) or strictly larger `hi` (by `hi_arg`) replaces the
    /// extremum; ties keep the earlier attainer.
    #[inline]
    fn extend(&mut self, idx: usize, lo: f64, lo_arg: u32, hi: f64, hi_arg: u32) {
        if lo < self.min[idx] {
            self.min[idx] = lo;
            self.min_arg[idx] = lo_arg;
        }
        if hi > self.max[idx] {
            self.max[idx] = hi;
            self.max_arg[idx] = hi_arg;
        }
    }

    /// Reset every entry naming color `c` (as member or other) among the
    /// first `k` colors to "no edges".
    fn clear_color(&mut self, c: usize, k: usize) {
        for i in 0..k {
            for idx in [self.at(i, c), self.at(c, i)] {
                self.min[idx] = 0.0;
                self.max[idx] = 0.0;
                self.min_arg[idx] = NO_ARG;
                self.max_arg[idx] = NO_ARG;
                self.nz[idx] = 0;
            }
        }
    }

    /// Grow the matrices from `old_cap × old_cap` to `new_cap × new_cap`.
    fn grow(&mut self, old_cap: usize, new_cap: usize) {
        regrow(&mut self.min, old_cap, new_cap, old_cap, new_cap, 0.0);
        regrow(&mut self.max, old_cap, new_cap, old_cap, new_cap, 0.0);
        regrow(
            &mut self.min_arg,
            old_cap,
            new_cap,
            old_cap,
            new_cap,
            NO_ARG,
        );
        regrow(
            &mut self.max_arg,
            old_cap,
            new_cap,
            old_cap,
            new_cap,
            NO_ARG,
        );
        regrow(&mut self.nz, old_cap, new_cap, old_cap, new_cap, 0);
        self.restride(new_cap);
    }

    /// Move color `from = k - 1`'s rows and columns to the free slot `to`
    /// in every matrix. Values are copied, never recomputed. The skip set
    /// `{from, to}` splits the range into two contiguous runs, so the row
    /// moves are two `copy_within` memmoves and the (strided) column moves
    /// two branch-free loops; the move is the same in both orientations.
    fn relabel(&mut self, k: usize, from: usize, to: usize) {
        fn relabel<T: Copy>(m: &mut [T], cap: usize, k: usize, from: usize, to: usize) {
            debug_assert!(from == k - 1 && to < from);
            let diag = m[from * cap + from];
            m.copy_within(from * cap..from * cap + to, to * cap);
            m.copy_within(from * cap + to + 1..from * cap + from, to * cap + to + 1);
            for j in 0..to {
                m[j * cap + to] = m[j * cap + from];
            }
            for j in to + 1..from {
                m[j * cap + to] = m[j * cap + from];
            }
            m[to * cap + to] = diag;
        }
        let cap = self.ms.max(self.os);
        relabel(&mut self.min, cap, k, from, to);
        relabel(&mut self.max, cap, k, from, to);
        relabel(&mut self.min_arg, cap, k, from, to);
        relabel(&mut self.max_arg, cap, k, from, to);
        relabel(&mut self.nz, cap, k, from, to);
    }

    /// Renumber the attainers of the first `k × k` entries through a node
    /// remap (removed attainers become [`NO_ARG`]).
    fn remap_args(&mut self, k: usize, remap: &NodeRemap) {
        for a in 0..k {
            for b in 0..k {
                let idx = self.at(a, b);
                for slot in [&mut self.min_arg[idx], &mut self.max_arg[idx]] {
                    if *slot != NO_ARG {
                        *slot = remap.map(*slot).unwrap_or(NO_ARG);
                    }
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.min.capacity() + self.max.capacity()) * 8
            + (self.min_arg.capacity() + self.max_arg.capacity() + self.nz.capacity()) * 4
    }
}

impl Side {
    fn new(outgoing: bool, cap: usize, cells_cap: usize, acc: Accum) -> Self {
        Side {
            acc,
            pairs: Pairs::new(outgoing, cap, cells_cap),
            ..Side::default()
        }
    }

    /// The settle rule (module docs) for entry `(member, other)` after a
    /// batch changed its member values: apply the nonzero-count delta,
    /// then queue a rescan if a flagged extremum is really lost — a zero
    /// extremum provably stands while the entry keeps a zero-valued member
    /// of `P_member` (`size` members), and then only forgets its attainer
    /// — and dirty the member color's witness row.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &mut self,
        rows: &mut WitnessRows,
        member: u32,
        other: u32,
        size: usize,
        nz_delta: i64,
        rescan_min: bool,
        rescan_max: bool,
    ) {
        let pr = &mut self.pairs;
        let idx = pr.at(member as usize, other as usize);
        pr.nz[idx] = (i64::from(pr.nz[idx]) + nz_delta) as u32;
        let zero_member = (pr.nz[idx] as usize) < size;
        let need = (rescan_min && !(pr.min[idx] == 0.0 && zero_member))
            || (rescan_max && !(pr.max[idx] == 0.0 && zero_member));
        if need {
            self.rescans.push((member, other));
        } else {
            if rescan_min {
                pr.min_arg[idx] = NO_ARG;
            }
            if rescan_max {
                pr.max_arg[idx] = NO_ARG;
            }
        }
        rows.dirty(member as usize);
    }

    /// Add `delta` to the combined edge-batch delta of `(u, col)`.
    fn combine(&mut self, u: NodeId, col: u32, delta: f64) {
        match self.combined_slot.entry((u, col)) {
            std::collections::hash_map::Entry::Occupied(e) => self.combined[*e.get()].2 += delta,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.combined.len());
                self.combined.push((u, col, delta));
            }
        }
    }

    /// Apply one combined edge-batch change to `u`'s value at `other` and
    /// fold it into entry `(member, other)`'s patch record (`member` is
    /// `u`'s color): the lost-extremum test against the batch-start
    /// snapshot, the zero-crossing count, and the inline extension.
    fn patch_edge(&mut self, u: NodeId, member: u32, other: u32, delta: f64, promote_k: usize) {
        let (old, new) = self.acc.add(u, other, delta, promote_k);
        let pr = &mut self.pairs;
        let idx = pr.at(member as usize, other as usize);
        let patches = &mut self.patches;
        let slot = *self.patch_slot.entry(idx).or_insert_with(|| {
            patches.push(EdgeEntryPatch {
                member,
                other,
                orig_min: pr.min[idx],
                orig_max: pr.max[idx],
                rescan_min: false,
                rescan_max: false,
                nz_delta: 0,
            });
            patches.len() - 1
        });
        let rec = &mut patches[slot];
        let (lost_min, lost_max) = lost_extremum(
            u,
            old,
            new,
            rec.orig_min,
            rec.orig_max,
            pr.min_arg[idx],
            pr.max_arg[idx],
        );
        rec.rescan_min |= lost_min;
        rec.rescan_max |= lost_max;
        if (old == 0.0) != (new == 0.0) {
            rec.nz_delta += if new != 0.0 { 1 } else { -1 };
        }
        pr.extend(idx, new, u, new, u);
    }

    /// Heap bytes of every buffer this side owns.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.acc.heap_bytes()
            + self.pairs.heap_bytes()
            + self.rescans.capacity() * size_of::<(u32, u32)>()
            + self.patches.capacity() * size_of::<EdgeEntryPatch>()
            + self.patch_slot.capacity() * size_of::<(usize, usize)>()
            + self.combined.capacity() * size_of::<(NodeId, u32, f64)>()
            + self.combined_slot.capacity() * size_of::<((NodeId, u32), usize)>()
            + self.capture.capacity() * size_of::<(NodeId, f64, f64)>()
    }
}

/// Whether a member's value moving from `old` to `new` loses the entry its
/// batch-start extremum (`orig_min`/`orig_max`, attained by `arg_min`/
/// `arg_max`): only when the tracked attainer moves strictly inward — an
/// exact test, ties at the extremum do not force a rescan. An unknown
/// attainer falls back to the conservative "the value left the extremum"
/// heuristic. Returns `(min lost, max lost)`.
#[inline]
fn lost_extremum(
    u: NodeId,
    old: f64,
    new: f64,
    orig_min: f64,
    orig_max: f64,
    arg_min: u32,
    arg_max: u32,
) -> (bool, bool) {
    if new < old {
        (
            false,
            old == orig_max && (arg_max == NO_ARG || arg_max == u),
        )
    } else if new > old {
        (
            old == orig_min && (arg_min == NO_ARG || arg_min == u),
            false,
        )
    } else {
        (false, false)
    }
}

/// One direction's tiered accumulator rows in columnar form — the shape
/// [`IncrementalDegrees::snapshot`] emits and the checkpoint writer
/// serializes directly (per-field arrays, no per-row framing). Row `v`'s
/// nonzero `(color, weight)` entries, ascending by color, occupy
/// `offsets[v]..offsets[v + 1]` of the parallel `colors`/`weights`
/// arrays; `dense[v]` records whether the row lives in the promoted
/// dense tier. All fields are empty for engines whose accumulators are
/// dense matrices instead.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowsSnapshot {
    /// `n + 1` entry offsets (empty when this direction has no tiered
    /// rows).
    pub offsets: Vec<usize>,
    /// Entry colors, concatenated across rows.
    pub colors: Vec<u32>,
    /// Entry weights, index-parallel to `colors`.
    pub weights: Vec<f64>,
    /// Per-row promoted-tier flag.
    pub dense: Vec<bool>,
}

impl RowsSnapshot {
    /// Whether this direction holds any rows (false for dense-storage
    /// engines and for the in direction of symmetric engines).
    #[must_use]
    pub fn is_present(&self) -> bool {
        !self.offsets.is_empty()
    }
}

/// The engine state that cannot be recomputed, captured by
/// [`IncrementalDegrees::snapshot`] and rebuilt into an engine by
/// [`IncrementalDegrees::from_snapshot`] — the persistence layer's view
/// of the engine.
///
/// What is **included** is only what cannot be recomputed: the
/// accumulators (exact `f64` bits, tight `n × k` for dense engines,
/// columnar tiered rows for sparse ones) and the mode flags +
/// `last_beta`. The accumulators are state, not a cache: a maintained
/// float sum can differ in its bits from a fresh one over the same edges.
///
/// What is deliberately **excluded** (derivable, so storing it would only
/// bloat checkpoints and hand the restore an input it would have to
/// trust):
/// * the pair summaries — min, max, nonzero counts and extremum
///   attainers per entry. They are a pure function of the accumulators
///   and the partition, and the restore folds them from the accumulator
///   rows with the construction path's own per-color scan. Values and
///   counts come back bit-identical; attainers come back as first
///   attainers, which can differ from the writer's maintained ones but
///   only ever gate rescans, never a value;
/// * the witness-row cache, which a restored engine marks all-dirty — the
///   next [`IncrementalDegrees::refresh`] recomputes it from the summary
///   entries;
/// * every per-event scratch buffer, and the thread pool (rebuilt from the
///   restore-time thread count — the determinism contract makes results
///   independent of it).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Node count.
    pub n: usize,
    /// Live color count.
    pub k: usize,
    /// Whether the graph is undirected (in-direction state omitted — it
    /// mirrors the out direction exactly; see the module docs).
    pub symmetric: bool,
    /// Whether the accumulators are tiered rows (true) or dense matrices
    /// (false).
    pub sparse_accum: bool,
    /// β exponent of the last refresh (voids the best-pointed-at-parent
    /// shortcut when negative; see the field docs).
    pub last_beta: f64,
    /// Dense out-accumulators, tight `n × k` row-major (empty when
    /// `sparse_accum`). A [`ColumnBuf`] so a mapped-layout checkpoint
    /// restore can hand the plane in as a borrowed view of the file;
    /// [`IncrementalDegrees::from_snapshot`] reads it exactly once,
    /// transposing it into the engine's color-major plane.
    pub dout: ColumnBuf<f64>,
    /// Dense in-accumulators (empty when `sparse_accum` or `symmetric`).
    pub din: ColumnBuf<f64>,
    /// Tiered out rows (empty when `!sparse_accum`).
    pub rows_out: RowsSnapshot,
    /// Tiered in rows (empty when `!sparse_accum` or `symmetric`).
    pub rows_in: RowsSnapshot,
}

/// Per-shard scratch of the data-parallel phases (one per pool slot; a
/// one-shard phase uses the first).
#[derive(Clone, Debug, Default)]
struct ShardScratch {
    /// Self-validating `color -> record index` slots (mirrors `color_slot`).
    slot: Vec<u32>,
    /// Per-touched-color partial aggregates produced by this shard.
    records: Vec<ShardRecord>,
    /// One side's member-axis min and max rows (`2 × cap`), their
    /// witnesses, and the per-column nonzero counts (`cap`); the grouped
    /// entry rescan reuses them.
    axis: Vec<f64>,
    axis_arg: Vec<u32>,
    axis_nz: Vec<u32>,
    /// Touched-collection dedupe marks for the chunks this shard scans
    /// (packed like the engine's `node_mark`; lazily sized to `n`).
    mark: Vec<u64>,
    mark_gen: u32,
}

/// One shard's partial aggregate for a touched color during the
/// accumulator phase of a split (or the entry patch of a merge). Merged
/// at the join with exact min/max/or/sum reductions, so the merged result
/// is independent of the shard count.
#[derive(Clone, Copy, Debug)]
struct ShardRecord {
    color: u32,
    /// Distinct touched members of this color seen by this shard.
    count: usize,
    /// Min/max over the shard's *new* parent-column values, with attainers
    /// (extension candidates for the entry extrema).
    ext_min: f64,
    ext_max: f64,
    ext_min_arg: u32,
    ext_max_arg: u32,
    /// Min/max over the shard's child-column values, with attainers.
    child_min: f64,
    child_max: f64,
    child_min_arg: u32,
    child_max_arg: u32,
    /// Net zero-crossing count change and non-zero child values seen.
    nz_delta: i64,
    child_nonzero: u32,
    /// Whether this shard observed a lost-extremum condition on either
    /// side (see [`TouchedColor::rescan_min`]), evaluated against the
    /// batch-start entry state.
    rescan_min: bool,
    rescan_max: bool,
}

/// Minimum number of touched nodes before a split's accumulator phase
/// runs as `pool.slots()` shards (smaller batches run as one shard — the
/// fork-join handshake would cost more than the work).
const PAR_MIN_TOUCHED: usize = 2048;

/// Minimum total scan work (entries × members, or rows × colors) before a
/// member-scan or witness-refresh batch runs as `pool.slots()` shards.
const PAR_MIN_SCAN_WORK: usize = 16384;

/// A read-only view of both sides' pair summaries, so the witness-refresh
/// scans can run from worker threads while the caller holds the row
/// caches mutably. It reads the matrices in their shared row-major
/// layout — out-entry `(i, j)` and a directed engine's in-entry `(i, j)`
/// both sit at `i * cap + j` — so the `O(k)`-per-pair merge-bound and
/// row scans index with a compile-time unit column stride; a symmetric
/// engine's in-entry `(i, j)` is the mirrored out-entry `(j, i)`.
struct SummaryView<'a> {
    k: usize,
    cap: usize,
    symmetric: bool,
    out: &'a Pairs,
    inn: &'a Pairs,
}

impl<'a> SummaryView<'a> {
    fn new(sides: &'a [Side; 2], k: usize, cap: usize, symmetric: bool) -> Self {
        SummaryView {
            k,
            cap,
            symmetric,
            out: &sides[0].pairs,
            inn: &sides[1].pairs,
        }
    }
}

impl PairMinMax for SummaryView<'_> {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.cap + j;
        (self.out.min[idx], self.out.max[idx])
    }

    #[inline]
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64) {
        if self.symmetric {
            return self.out_mm(j, i);
        }
        let idx = i * self.cap + j;
        (self.inn.min[idx], self.inn.max[idx])
    }

    #[inline]
    fn out_row(&self, a: usize) -> (&[f64], &[f64]) {
        let at = a * self.cap;
        (
            &self.out.min[at..at + self.k],
            &self.out.max[at..at + self.k],
        )
    }

    #[inline]
    fn in_row(&self, a: usize) -> (&[f64], &[f64]) {
        if self.symmetric {
            return (&[], &[]);
        }
        let at = a * self.cap;
        (
            &self.inn.min[at..at + self.k],
            &self.inn.max[at..at + self.k],
        )
    }

    #[inline]
    fn mirrored(&self) -> bool {
        self.symmetric
    }
}

impl PairMinMax for DegreeMatrices {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.k + j;
        (self.out_min[idx], self.out_max[idx])
    }

    #[inline]
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.k + j;
        (self.in_min[idx], self.in_max[idx])
    }

    #[inline]
    fn out_row(&self, a: usize) -> (&[f64], &[f64]) {
        let at = a * self.k;
        (
            &self.out_min[at..at + self.k],
            &self.out_max[at..at + self.k],
        )
    }

    #[inline]
    fn in_row(&self, a: usize) -> (&[f64], &[f64]) {
        let at = a * self.k;
        (&self.in_min[at..at + self.k], &self.in_max[at..at + self.k])
    }

    #[inline]
    fn mirrored(&self) -> bool {
        false
    }
}

/// Sort a candidate list ascending by `(bound, winner, loser)`.
fn sort_candidates(list: &mut [MergeCandidate]) {
    list.sort_by(|x, y| {
        x.bound
            .partial_cmp(&y.bound)
            .expect("finite bounds")
            .then(x.winner.cmp(&y.winner))
            .then(x.loser.cmp(&y.loser))
    });
}

/// The merge pick over from-scratch [`DegreeMatrices`]: the pair with the
/// smallest post-merge bound at or below `max_bound`, the
/// lexicographically smallest on ties — the first entry of
/// [`IncrementalDegrees::merge_candidates`] over numerically identical
/// summaries, since both evaluate the same bound operation for operation.
/// Ascending `(a, b)` iteration with a strict improvement test keeps the
/// smallest pair on ties; the running best tightens the per-pair
/// evaluation cap (branch-and-bound; ties at the cap still evaluate
/// fully, so the selection equals the exhaustive scan's).
pub fn pick_merge_scratch(m: &DegreeMatrices, max_bound: f64) -> Option<MergeCandidate> {
    let mut panel = MergePanel::default();
    panel.fill(m, &(0..m.k as u32).collect::<Vec<_>>());
    let mut best: Option<MergeCandidate> = None;
    for a in 0..m.k {
        for b in (a + 1)..m.k {
            let cap = best.as_ref().map_or(max_bound, |c| c.bound.min(max_bound));
            let bound = merge_bound(m, &panel, a, b, cap);
            if bound <= max_bound && best.as_ref().is_none_or(|c| bound < c.bound) {
                best = Some(MergeCandidate {
                    winner: a as u32,
                    loser: b as u32,
                    bound,
                });
            }
        }
    }
    best
}

impl SummaryView<'_> {
    #[inline]
    fn out_error(&self, i: usize, j: usize) -> f64 {
        let (min, max) = self.out_mm(i, j);
        max - min
    }

    #[inline]
    fn in_error(&self, i: usize, j: usize) -> f64 {
        let (min, max) = self.in_mm(i, j);
        max - min
    }

    /// One witness row scan: the row's maximum unweighted error and its
    /// best β-weighted candidate. This is *the* row scan — every refresh
    /// shard and the reference stepper route through the same operation
    /// order, which is what keeps their picks bit-identical.
    fn scan_row(&self, p: &Partition, s: usize, beta: f64) -> (f64, Option<RowBest>) {
        let splittable = p.size(s as u32) >= 2;
        // β = 0 (the default weighting) makes every candidate's weight its
        // raw error, so the whole out-side scan collapses to "max spread
        // and its first attainer" over one contiguous summary row — the
        // vectorized kernel. Same value, same attainer, same tie-breaks as
        // the general loop below (pinned by the kernel property suite).
        if beta == 0.0 {
            let base = s * self.cap;
            let (mut max_err, arg) = crate::kernels::row_err_argmax(
                &self.out.max[base..base + self.k],
                &self.out.min[base..base + self.k],
            );
            let mut best = if splittable && max_err > 0.0 {
                Some(RowBest {
                    weighted: max_err,
                    other: arg,
                    outgoing: true,
                    error: max_err,
                })
            } else {
                None
            };
            if !self.symmetric {
                // Directed in-side: a strided column, scanned scalar. The
                // out candidate wins weight ties, as in the general loop.
                for i in 0..self.k {
                    let e = self.in_error(i, s);
                    if e > max_err {
                        max_err = e;
                    }
                    if splittable && e > 0.0 {
                        match &best {
                            Some(b) if b.weighted >= e => {}
                            _ => {
                                best = Some(RowBest {
                                    weighted: e,
                                    other: i as u32,
                                    outgoing: false,
                                    error: e,
                                })
                            }
                        }
                    }
                }
            }
            return (max_err, best);
        }
        let mut max_err = 0.0f64;
        let mut best: Option<RowBest> = None;
        let mut consider = |weighted: f64, error: f64, other: u32, outgoing: bool| match &best {
            Some(b) if b.weighted >= weighted => {}
            _ => {
                best = Some(RowBest {
                    weighted,
                    other,
                    outgoing,
                    error,
                })
            }
        };
        for j in 0..self.k {
            let e = self.out_error(s, j);
            if e > max_err {
                max_err = e;
            }
            if splittable && e > 0.0 {
                consider(e * size_pow(p.size(j as u32), beta), e, j as u32, true);
            }
        }
        if !self.symmetric {
            // For undirected graphs the in-entries (i, s) mirror the
            // out-entries (s, i) already scanned above (equal error and
            // weight, and the out candidate wins the tie), so this loop
            // only runs for directed graphs.
            for i in 0..self.k {
                let e = self.in_error(i, s);
                if e > max_err {
                    max_err = e;
                }
                if splittable && e > 0.0 {
                    consider(e * size_pow(p.size(i as u32), beta), e, i as u32, false);
                }
            }
        }
        (max_err, best)
    }
}

impl ShardScratch {
    /// Size the member-axis rows for `cap` colors.
    fn size_axis(&mut self, cap: usize) {
        if self.axis.len() < 2 * cap {
            self.axis.resize(2 * cap, 0.0);
            self.axis_arg.resize(2 * cap, NO_ARG);
            self.axis_nz.resize(cap, 0);
        }
    }

    /// The member-axis rows: `(mins, maxs, min witnesses, max witnesses,
    /// nonzero counts)`, `cap` columns each.
    #[allow(clippy::type_complexity)]
    fn axis_rows(
        &mut self,
        cap: usize,
    ) -> (&mut [f64], &mut [f64], &mut [u32], &mut [u32], &mut [u32]) {
        let (mn, mx) = self.axis.split_at_mut(cap);
        let (amn, amx) = self.axis_arg.split_at_mut(cap);
        (
            mn,
            &mut mx[..cap],
            amn,
            &mut amx[..cap],
            &mut self.axis_nz[..cap],
        )
    }

    fn heap_bytes(&self) -> usize {
        self.slot.capacity() * 4
            + self.records.capacity() * std::mem::size_of::<ShardRecord>()
            + self.axis.capacity() * 8
            + self.axis_arg.capacity() * 4
            + self.axis_nz.capacity() * 4
            + self.mark.capacity() * 8
    }

    /// Fold one touched node (whose accumulator moved from `old` to `new`)
    /// into this shard's per-color aggregates. `orig_*`/`arg_*` are the
    /// entry's batch-start extrema and tracked attainers (entries are only
    /// mutated at the join, so every shard reads the same snapshot).
    #[allow(clippy::too_many_arguments)]
    fn fold(
        &mut self,
        color: u32,
        u: NodeId,
        old: f64,
        new: f64,
        child_val: f64,
        orig_min: f64,
        orig_max: f64,
        arg_min: u32,
        arg_max: u32,
    ) {
        let slot = self.slot[color as usize] as usize;
        let slot = if slot < self.records.len() && self.records[slot].color == color {
            slot
        } else {
            let fresh = self.records.len();
            self.slot[color as usize] = fresh as u32;
            self.records.push(ShardRecord::fresh(color));
            fresh
        };
        let r = &mut self.records[slot];
        // The lost-extremum test (`lost_extremum`) against the attainer
        // this fold already extended the entry to, if any, else the
        // batch-start one. The settle rule may still cancel a flagged
        // side via the zero-count rule.
        let arg_min = if r.ext_min < orig_min {
            r.ext_min_arg
        } else {
            arg_min
        };
        let arg_max = if r.ext_max > orig_max {
            r.ext_max_arg
        } else {
            arg_max
        };
        let (lost_min, lost_max) = lost_extremum(u, old, new, orig_min, orig_max, arg_min, arg_max);
        r.rescan_min |= lost_min;
        r.rescan_max |= lost_max;
        r.count += 1;
        if (old == 0.0) != (new == 0.0) {
            r.nz_delta += if new != 0.0 { 1 } else { -1 };
        }
        if child_val != 0.0 {
            r.child_nonzero += 1;
        }
        if new < r.ext_min {
            r.ext_min = new;
            r.ext_min_arg = u;
        }
        if new > r.ext_max {
            r.ext_max = new;
            r.ext_max_arg = u;
        }
        if child_val < r.child_min {
            r.child_min = child_val;
            r.child_min_arg = u;
        }
        if child_val > r.child_max {
            r.child_max = child_val;
            r.child_max_arg = u;
        }
    }
}

impl ShardRecord {
    fn fresh(color: u32) -> Self {
        ShardRecord {
            color,
            count: 0,
            ext_min: f64::INFINITY,
            ext_max: f64::NEG_INFINITY,
            ext_min_arg: NO_ARG,
            ext_max_arg: NO_ARG,
            child_min: f64::INFINITY,
            child_max: f64::NEG_INFINITY,
            child_min_arg: NO_ARG,
            child_max_arg: NO_ARG,
            nz_delta: 0,
            child_nonzero: 0,
            rescan_min: false,
            rescan_max: false,
        }
    }
}

impl IncrementalDegrees {
    /// Build the full engine (accumulators + pair summaries + witness
    /// cache) for partition `p` on `g` in `O(n·k + m)` time. The number of
    /// worker threads for the data-parallel phases defaults to the
    /// `QSC_THREADS` environment variable (1 when unset); see
    /// [`Self::new_with_threads`] for explicit control.
    pub fn new(g: &Graph, p: &Partition) -> Self {
        Self::with_mode(g, p, default_threads(), ResolvedStorage::Dense)
    }

    /// Build the full engine with an explicit worker count for the
    /// data-parallel phases. `threads <= 1` runs every phase as one shard
    /// on the calling thread. Results are bit-identical for every thread
    /// count — the shards reduce with exact min/max/or merges (see the
    /// module docs).
    pub fn new_with_threads(g: &Graph, p: &Partition, threads: usize) -> Self {
        Self::with_mode(g, p, threads, ResolvedStorage::Dense)
    }

    /// Build the full engine with an explicit accumulator [`StorageMode`]
    /// (the `RothkoConfig::storage` knob). `Auto` resolves here, from the
    /// graph's size and density and `color_hint` — the color budget the
    /// refinement is expected to reach (the engine pre-reserves capacity
    /// for it, so the projected dense footprint is computed against the
    /// same capacity a dense engine would actually allocate). All storage
    /// modes maintain bit-identical state — sparse storage trades access
    /// constants for `O(n + m)` instead of `O(n·k)` accumulator memory
    /// (see [`crate::storage`]).
    pub fn new_with_storage(
        g: &Graph,
        p: &Partition,
        threads: usize,
        storage: StorageMode,
        color_hint: usize,
    ) -> Self {
        let n = g.num_nodes();
        let k = p.num_colors();
        let hint_cap = color_hint.clamp(k, n.max(1)).next_power_of_two().max(4);
        let dirs = if g.is_directed() { 2 } else { 1 };
        let resolved = storage.resolve(n, g.num_arcs(), hint_cap, dirs);
        Self::with_mode(g, p, threads, resolved)
    }

    fn with_mode(g: &Graph, p: &Partition, threads: usize, tier: ResolvedStorage) -> Self {
        let n = g.num_nodes();
        assert_eq!(p.num_nodes(), n, "partition does not match graph");
        let symmetric = !g.is_directed();
        let k = p.num_colors();
        let cap = k.next_power_of_two().max(4);
        // Whole-axis initialization sweeps every arc front to back; on a
        // mapped graph let the kernel stream the cold pages in ahead of
        // the scan instead of faulting them one miss at a time.
        g.advise(ColumnAdvice::Sequential);
        let colors = p.assignment();
        let out = Accum::build(tier, n, cap, k, colors, |v| g.out_arcs(v));
        let in_rows = if symmetric { 0 } else { n };
        let inn = Accum::build(tier, in_rows, cap, k, colors, |v| g.in_arcs(v));
        Self::assemble(p, symmetric, threads, 0.0, [out, inn])
    }

    /// The one constructor: an engine over the given accumulators for
    /// partition `p`, its pair summaries folded from the accumulator rows
    /// one color's members at a time ([`Self::recompute_color_axis`]), an
    /// all-dirty witness cache and empty scratch. A fresh build and a
    /// snapshot restore differ only in where the accumulators come from.
    fn assemble(
        p: &Partition,
        symmetric: bool,
        threads: usize,
        last_beta: f64,
        [out, inn]: [Accum; 2],
    ) -> Self {
        let (n, k) = (p.num_nodes(), p.num_colors());
        let cap = k.next_power_of_two().max(4);
        let in_cap = if symmetric { 0 } else { cap };
        let pool = Pool(ThreadPool::new(threads));
        let mut engine = IncrementalDegrees {
            n,
            k,
            cap,
            sides: [
                Side::new(true, cap, cap, out),
                Side::new(false, cap, in_cap, inn),
            ],
            symmetric,
            last_beta,
            rows: WitnessRows::new(cap),
            node_mark: vec![0; n],
            mark_gen: 0,
            touched_nodes: Vec::new(),
            touched_deltas: Vec::new(),
            color_slot: vec![0; cap],
            touched_colors: Vec::new(),
            shard_scratch: vec![ShardScratch::default(); pool.0.slots()],
            pool,
            par_min_touched: PAR_MIN_TOUCHED,
            par_min_scan_work: PAR_MIN_SCAN_WORK,
            dirty_scratch: Vec::new(),
            chunk_out: Vec::new(),
            merge_scan: MergeScan::default(),
            counters: Counters::default(),
        };
        for s in 0..k {
            engine.recompute_color_axis(p, s);
        }
        engine
    }

    /// Capture the engine's complete logical state for persistence.
    ///
    /// The snapshot holds *tight* accumulator columns — the capacity
    /// padding stripped — so the on-disk size tracks the live state, not
    /// the power-of-two stride. [`Self::from_snapshot`] re-pads on load;
    /// the stride itself is unobservable (it is recomputed from `k` the
    /// same way construction computes it). See [`EngineSnapshot`] for
    /// what is included vs. recomputed.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        let [(dout, rows_out), (din, rows_in)] =
            [&self.sides[0], &self.sides[1]].map(|s| s.acc.snapshot(self.k));
        EngineSnapshot {
            n: self.n,
            k: self.k,
            symmetric: self.symmetric,
            sparse_accum: self.sides[0].acc.tier() == ResolvedStorage::Sparse,
            last_beta: self.last_beta,
            dout,
            din,
            rows_out,
            rows_in,
        }
    }

    /// Rebuild an engine for partition `p` from a snapshot of its
    /// accumulators.
    ///
    /// The accumulators are restored bit for bit; the pair summaries are
    /// then folded from them through the same per-color member scan a
    /// fresh build runs, so their min/max values and nonzero counts are
    /// bit-identical to the writer's. Extremum attainers come back as
    /// *first* attainers, which may differ from the writer's maintained
    /// ones: they only decide whether a later rescan runs, never a value,
    /// so colorings, q-error bits, witnesses and merges are unaffected.
    /// The capacity stride, scratch buffers, and thread pool are
    /// reconstructed exactly as the engine constructor would build them;
    /// the witness-row caches start all-dirty and the first refresh
    /// recomputes them deterministically. `threads` may differ from the
    /// writer's — results do not depend on it.
    ///
    /// # Panics
    /// If `p` does not match the snapshot's dimensions, or on snapshots
    /// whose column lengths are inconsistent with their header fields.
    /// The persistence layer validates untrusted bytes before constructing
    /// a snapshot; this is a backstop against programmer error, not a
    /// parser.
    #[must_use]
    pub fn from_snapshot(snap: &EngineSnapshot, p: &Partition, threads: usize) -> Self {
        let EngineSnapshot {
            n,
            k,
            symmetric,
            sparse_accum,
            ..
        } = *snap;
        assert_eq!(
            (p.num_nodes(), p.num_colors()),
            (n, k),
            "partition does not match snapshot"
        );
        let cap = k.next_power_of_two().max(4);
        let tier = if sparse_accum {
            ResolvedStorage::Sparse
        } else {
            ResolvedStorage::Dense
        };
        let in_rows = if symmetric { 0 } else { n };
        let out = Accum::restore(tier, &snap.dout, &snap.rows_out, n, k, cap, k);
        let inn = Accum::restore(tier, &snap.din, &snap.rows_in, in_rows, k, cap, k);
        Self::assemble(p, symmetric, threads, snap.last_beta, [out, inn])
    }

    /// Direction `outgoing`'s pair summaries as tight `k × k` row-major
    /// columns, `(min, max, min attainers, max attainers, nonzero
    /// counts)`, in storage order: the out side's row `i` holds out-entries
    /// `(i, ·)` and a directed engine's in side's row `i` holds in-entries
    /// `(i, ·)`. A symmetric engine keeps no in side, so its in columns
    /// are empty. A read-only view for audits and tests.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn summary_columns(
        &self,
        outgoing: bool,
    ) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let pr = &self.sides[usize::from(!outgoing)].pairs;
        let (k, cap) = (self.k, self.cap);
        let rows = if pr.nz.is_empty() { 0 } else { k };
        (
            tight(&pr.min, rows, k, cap),
            tight(&pr.max, rows, k, cap),
            tight(&pr.min_arg, rows, k, cap),
            tight(&pr.max_arg, rows, k, cap),
            tight(&pr.nz, rows, k, cap),
        )
    }

    /// The one direction accessor: the index into `sides` of the side
    /// that holds direction `outgoing` — the out side when `outgoing ||
    /// symmetric` (the in side mirrors it on undirected graphs), else the
    /// in side.
    #[inline]
    fn dir(&self, outgoing: bool) -> usize {
        usize::from(!outgoing && !self.symmetric)
    }

    #[inline]
    fn side(&self, outgoing: bool) -> &Side {
        &self.sides[self.dir(outgoing)]
    }

    /// The directions whose sides the engine keeps (`outgoing` flags).
    fn directions(&self) -> &'static [bool] {
        if self.symmetric {
            &[true]
        } else {
            &[true, false]
        }
    }

    /// Run one phase on direction `outgoing`'s side, moved out of the
    /// engine for the duration so the phase can hold it mutably next to
    /// the engine's shared scratch.
    fn with_side<R>(&mut self, outgoing: bool, f: impl FnOnce(&mut Self, &mut Side) -> R) -> R {
        let d = self.dir(outgoing);
        let mut side = std::mem::take(&mut self.sides[d]);
        let result = f(self, &mut side);
        self.sides[d] = side;
        result
    }

    /// Heap bytes resident in the engine: both sides (accumulators, pair
    /// summaries and their per-event scratch), the witness cache, the
    /// per-node and per-shard scratch and every other reusable per-event
    /// buffer — all of it is part of what the process keeps resident.
    /// Pipebench's traced ledger reports it as `core.resident_mb`.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let chunk_lists = self.chunk_out.capacity() * size_of::<(Vec<NodeId>, Vec<f64>)>()
            + self
                .chunk_out
                .iter()
                .map(|(nodes, deltas)| nodes.capacity() * 4 + deltas.capacity() * 8)
                .sum::<usize>();
        self.sides.iter().map(Side::heap_bytes).sum::<usize>()
            + self.rows.heap_bytes()
            + self.node_mark.capacity() * 8
            + self.touched_nodes.capacity() * 4
            + self.touched_deltas.capacity() * 8
            + self.color_slot.capacity() * 4
            + self.touched_colors.capacity() * size_of::<TouchedColor>()
            + self
                .shard_scratch
                .iter()
                .map(ShardScratch::heap_bytes)
                .sum::<usize>()
            + self.dirty_scratch.capacity() * 4
            + chunk_lists
            + self.merge_scan.heap_bytes()
    }

    /// The engine's work counters since it was built or restored.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of colors currently tracked.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.k
    }

    /// Override the parallel-dispatch thresholds: the minimum touched-node
    /// count before a split's accumulator phase shards (which doubles as
    /// the canonical chunk size of the touched-collection accumulation),
    /// and the minimum total scan work (members × colors, entries ×
    /// members, or rows × colors) before member-scan and witness-refresh
    /// batches shard. For any fixed thresholds, results are bit-identical
    /// across every thread count (the defaults just avoid paying the
    /// fork-join handshake for tiny regions); tests and benchmarks use
    /// this to force multi-shard phases on small inputs. Because the
    /// touched chunk size follows `min_touched`, two engines compared on
    /// non-representable float weights should share thresholds — a
    /// different chunking regroups the per-neighbor weight sums (exact
    /// weights agree under any grouping).
    pub fn set_parallel_thresholds(&mut self, min_touched: usize, min_scan_work: usize) {
        self.par_min_touched = min_touched.max(1);
        self.par_min_scan_work = min_scan_work.max(1);
    }

    /// Pre-reserve internal capacity for a refinement expected to reach
    /// `colors` colors, so the accumulator rows and summary matrices are
    /// (re)allocated once up front instead of doubling several times during
    /// the run. Purely an allocation hint — values are unaffected.
    pub fn reserve_colors(&mut self, colors: usize) {
        self.ensure_capacity(colors.min(self.n.max(1)));
    }

    /// Whether the graph is undirected, i.e. the in-direction state mirrors
    /// the out-direction exactly (see the module docs). Consumers can skip
    /// their own in-direction work when this holds.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// The maintained `w(v, P_j)` accumulator.
    #[inline]
    pub fn out_degree_of(&self, v: NodeId, color: u32) -> f64 {
        self.side(true).acc.get(v, color)
    }

    /// The maintained `w(P_j, v)` accumulator.
    #[inline]
    pub fn in_degree_of(&self, v: NodeId, color: u32) -> f64 {
        self.side(false).acc.get(v, color)
    }

    /// Outgoing error `U − L` at `(i, j)` (same convention as
    /// [`DegreeMatrices::out_error`]).
    #[inline]
    pub fn out_error(&self, i: usize, j: usize) -> f64 {
        self.side(true).pairs.error(i, j)
    }

    /// Incoming error at `(i, j)` (same convention as
    /// [`DegreeMatrices::in_error`]).
    #[inline]
    pub fn in_error(&self, i: usize, j: usize) -> f64 {
        self.side(false).pairs.error(j, i)
    }

    /// Package the engine's pair summaries as a [`QErrorReport`] — the
    /// same scan order, tie-breaks, and mean fold as [`q_error_report`]
    /// on the synchronized graph/partition (so the two agree exactly
    /// whenever the accumulator sums are exact, e.g. on integer weights)
    /// for `O(k²)` instead of the `O(n·k + m)` matrix recomputation.
    pub fn q_report(&self) -> QErrorReport {
        let k = self.k;
        let out = &self.side(true).pairs;
        let mut max_q = 0.0f64;
        let mut worst = None;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for i in 0..k {
            for j in 0..k {
                let eo = self.out_error(i, j);
                if eo > max_q {
                    max_q = eo;
                    worst = Some((i as u32, j as u32, Direction::Out));
                }
                let ei = self.in_error(i, j);
                if ei > max_q {
                    max_q = ei;
                    worst = Some((i as u32, j as u32, Direction::In));
                }
                if out.nz[out.at(i, j)] > 0 {
                    total += eo;
                    total += ei;
                    count += 2;
                }
            }
        }
        QErrorReport {
            max_q,
            mean_q: if count == 0 {
                0.0
            } else {
                total / count as f64
            },
            num_colors: k,
            worst_pair: worst,
        }
    }

    /// Apply a split performed on the partition. `p` must be the partition
    /// *after* the split and `event.child` must be the next color id (splits
    /// are applied in order).
    ///
    /// Cost: `O(deg(moved) + (|parent| + |child|)·k)` plus a one-column
    /// member rescan for each pair summary that actually lost its tracked
    /// extremum attainer. Engines built with more than one thread shard the
    /// accumulator updates, member-axis scans and rescans of large splits
    /// across the pool (see the module docs for the merge design); the
    /// result is bit-identical for every thread count.
    pub fn apply_split(&mut self, g: &Graph, p: &Partition, event: &SplitEvent) {
        let c = event.parent as usize;
        let child = event.child as usize;
        assert_eq!(child, self.k, "split events must be applied in order");
        assert_eq!(
            p.num_colors(),
            self.k + 1,
            "partition out of sync with engine"
        );
        self.ensure_capacity(self.k + 1);
        self.k += 1;

        // Fresh row/column for the child: "no edges" until proven
        // otherwise.
        for &outgoing in self.directions() {
            let d = self.dir(outgoing);
            self.sides[d].pairs.clear_color(child, self.k);
        }
        self.rows.max_err[child] = 0.0;
        self.rows.best[child] = None;

        // Per side, the nodes whose rows shift from column `parent` to
        // column `child` are the moved nodes' neighbors against that
        // direction (sources of their in-arcs for the out side).
        for &outgoing in self.directions() {
            self.collect_touched(g, &event.moved_nodes, outgoing);
            self.with_side(outgoing, |e, side| e.apply_side(side, p, c, child));
        }

        // Member axes of child and parent. The child is rebuilt from
        // its members' (now final) accumulator rows; the parent's
        // entries over unchanged columns only shrank in membership, so
        // they keep their value unless their tracked extremum attainer
        // departed to the child.
        self.recompute_color_axis(p, child);
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| e.repair_parent_axis(side, p, c, child));
        }

        // Witness-row invalidation: rows recomputed above changed
        // entries (error and best both stale), and any cached best
        // that pointed at the parent saw its target *size* change —
        // its error is untouched, so only the β-weighted best goes
        // stale. A negative β voids that shortcut: shrinking a target
        // color *raises* candidate weights, so stale non-best
        // candidates can overtake silently — dirty every row's best.
        self.rows.dirty(c);
        self.rows.dirty(child);
        if self.last_beta < 0.0 {
            self.rows.best_dirty[..self.k].fill(true);
        } else {
            for s in 0..self.k {
                if let Some(best) = &self.rows.best[s] {
                    if best.other as usize == c {
                        self.rows.best_dirty[s] = true;
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.verify_against(g, p),
                Ok(()),
                "incremental state diverged from scratch recomputation"
            );
        }
    }

    /// Patch the engine for a batch of edge events — graph-free dynamic
    /// maintenance (see the module docs, "Edge batches"). `p` is the
    /// *unchanged* partition the engine is synchronized with; each event
    /// carries the signed weight delta of one logical edge (undirected
    /// events are applied to both stored arc directions, self-loops
    /// once), exactly as `qsc_graph::delta::GraphDelta::drain_events`
    /// produces them.
    ///
    /// Cost: `O(events + touched entries)` plus a one-column member rescan
    /// for each pair summary that provably lost a tracked extremum.
    /// Touched witness rows go error-dirty; call [`Self::refresh`] before
    /// the next [`Self::max_error`] / witness pick as after a split.
    pub fn apply_edge_batch(&mut self, p: &Partition, events: &[EdgeEvent]) {
        assert_eq!(p.num_nodes(), self.n, "partition does not match engine");
        assert_eq!(p.num_colors(), self.k, "partition out of sync with engine");
        if events.is_empty() {
            return;
        }
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| e.edge_side(side, p, events, outgoing));
        }
    }

    /// One side of an edge batch. An event `(s, t, Δ)` changes `s`'s
    /// out-value at `color(t)` and `t`'s in-value at `color(s)`; on
    /// undirected graphs the mirrored arc is `t`'s out-value at
    /// `color(s)` (a self-loop is a single stored arc).
    fn edge_side(&mut self, side: &mut Side, p: &Partition, events: &[EdgeEvent], outgoing: bool) {
        let symmetric = self.symmetric;
        let arcs = events.iter().flat_map(|ev| {
            let (u, w) = if outgoing {
                (ev.source, ev.target)
            } else {
                (ev.target, ev.source)
            };
            let mirror = (symmetric && u != w).then_some((w, u, ev.delta));
            std::iter::once((u, w, ev.delta)).chain(mirror)
        });
        // Combine the events into one delta per (node, column) first: the
        // entry patch rules are sound only when each accumulator value
        // changes exactly once per batch, as on the split path.
        side.combined.clear();
        side.combined_slot.clear();
        for (u, w, delta) in arcs {
            side.combine(u, p.color_of(w), delta);
        }
        side.patches.clear();
        side.patch_slot.clear();
        for i in 0..side.combined.len() {
            let (u, col, d) = side.combined[i];
            if d != 0.0 {
                side.patch_edge(u, p.color_of(u), col, d, self.k);
            }
        }
        let patches = std::mem::take(&mut side.patches);
        for rec in &patches {
            let size = p.size(rec.member);
            let (lo, hi) = (rec.rescan_min, rec.rescan_max);
            side.settle(
                &mut self.rows,
                rec.member,
                rec.other,
                size,
                rec.nz_delta,
                lo,
                hi,
            );
        }
        side.patches = patches;
        self.rescan_queued(side, p);
    }

    /// The post-merge q-error bound of one specific pair (see
    /// [`MergeCandidate`]), or `f64::INFINITY` as soon as it is known to
    /// exceed `cap` (pass `f64::INFINITY` for the exact bound); `O(k)`.
    /// Maintenance uses this to *re-validate* stale candidates against the
    /// current state before applying them, so a coarsening round pays one
    /// [`Self::merge_candidates`] scan plus `O(k)` per applied merge
    /// instead of one scan per merge. The early exit never changes a
    /// `> cap` decision.
    pub fn merge_bound_pair(&mut self, a: u32, b: u32, cap: f64) -> f64 {
        assert!((a as usize) < self.k && (b as usize) < self.k && a < b);
        let view = SummaryView::new(&self.sides, self.k, self.cap, self.symmetric);
        let panel = &mut self.merge_scan.panel;
        panel.fill(&view, &[a, b]);
        merge_bound(&view, panel, a as usize, b as usize, cap)
    }

    /// Every color pair whose post-merge bound stays at or below
    /// `max_bound`, sorted ascending by `(bound, winner, loser)` — the
    /// candidate list of one batched coarsening round. Its first entry is
    /// the best merge ([`pick_merge_scratch`] over the same summaries).
    ///
    /// Cost follows the candidates, not `|eligible|² · k`:
    ///
    /// 1. *Eligibility.* A merged pair's bound dominates each color's own
    ///    cached row error (every union term contains the color's own
    ///    spread), so only colors with a row error `<= max_bound` can
    ///    take part; `O(k)`.
    /// 2. *Projection pruning* (sorted-neighbourhood blocking, Hernández
    ///    & Stolfo 1995, made exact by the bound). For a column `j ∉ {a,
    ///    b}` the bound's merged-row term is `fl(max(amx, bmx) − min(amn,
    ///    bmn))`, which rounded subtraction keeps at or above
    ///    `fl(amx − bmx)` when `amx ≥ bmx`. So a pair whose out maxima at
    ///    `j` differ by more than `max_bound` cannot pass. The scan picks
    ///    two projection columns `j₁`, `j₂` from the summaries, sorts the
    ///    eligible colors by their out max at `j₁`, and bounds only the
    ///    pairs inside a `max_bound`-wide window whose out maxima at `j₂`
    ///    are also within `max_bound`. A projection color gets no test
    ///    from its own column: color `j₁` pairs with every other color
    ///    under the `j₂` test alone, and pairs holding `j₂` skip that test.
    /// 3. *A contiguous panel.* Before the sweep, one pass down the matrix
    ///    rows, in blocks of `LANES` rows, copies the eligible colors'
    ///    column-side terms (out-column spreads; in-column extrema on a
    ///    directed engine) into engine-owned scratch, so each surviving
    ///    pair's `O(k)` bound reads contiguous vectors, and on a symmetric
    ///    engine evaluates the mirrored in-direction terms once.
    ///
    /// Pruning drops only pairs the bound would reject, and the panel
    /// holds the bound's own operands, so the list equals the exhaustive
    /// scan's pair for pair and bit for bit (asserted under
    /// `debug_assertions`). [`Counters`] records the eligible pairs and
    /// the bounds evaluated; on pipebench's `stream-nodes` (k ≈ 330) the
    /// scan bounds about one eligible pair in 14. Requires
    /// [`Self::refresh`] since the last mutation (the prefilter reads the
    /// cached row errors).
    pub fn merge_candidates(&mut self, max_bound: f64) -> Vec<MergeCandidate> {
        debug_assert!(
            self.rows.err_dirty[..self.k].iter().all(|d| !d),
            "merge_candidates with dirty rows; call refresh() first"
        );
        let k = self.k;
        let view = SummaryView::new(&self.sides, k, self.cap, self.symmetric);
        let scan = &mut self.merge_scan;
        scan.eligible.clear();
        let rows = &self.rows;
        scan.eligible
            .extend((0..k as u32).filter(|&c| rows.max_err[c as usize] <= max_bound));
        let m = scan.eligible.len() as u64;
        self.counters.merge_pairs_eligible += m * m.saturating_sub(1) / 2;
        let mut out = Vec::new();
        if m < 2 {
            return out;
        }
        let (j1, j2) = scan.projection_columns(&view);
        scan.panel.fill(&view, &scan.eligible);
        let key = |a: usize, j: usize| view.out_row(a).1[j];
        scan.keys.clear();
        let mut j1_key = None;
        for &a in &scan.eligible {
            if a as usize == j1 {
                j1_key = Some(key(j1, j2));
            } else {
                scan.keys
                    .push((key(a as usize, j1), key(a as usize, j2), a));
            }
        }
        scan.keys
            .sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.2.cmp(&y.2)));
        let gap = |x: f64, y: f64| x.max(y) - x.min(y);
        let j2 = j2 as u32;
        let mut evaluated = 0u64;
        let mut try_pair = |a: u32, b: u32| {
            evaluated += 1;
            let (winner, loser) = (a.min(b), a.max(b));
            let bound = merge_bound(
                &view,
                &scan.panel,
                winner as usize,
                loser as usize,
                max_bound,
            );
            if bound <= max_bound {
                out.push(MergeCandidate {
                    winner,
                    loser,
                    bound,
                });
            }
        };
        if let Some(own) = j1_key {
            for &(_, other, b) in &scan.keys {
                if b == j2 || gap(own, other) <= max_bound {
                    try_pair(j1 as u32, b);
                }
            }
        }
        for (i, &(lo, a_j2, a)) in scan.keys.iter().enumerate() {
            for &(hi, b_j2, b) in &scan.keys[i + 1..] {
                if hi - lo > max_bound {
                    break;
                }
                if a == j2 || b == j2 || gap(a_j2, b_j2) <= max_bound {
                    try_pair(a, b);
                }
            }
        }
        self.counters.merge_pair_bounds += evaluated;
        sort_candidates(&mut out);
        // The exhaustive scan, each pair bounded the way
        // `merge_bound_pair` bounds it, must give the same list.
        #[cfg(debug_assertions)]
        {
            let view = SummaryView::new(&self.sides, k, self.cap, self.symmetric);
            let eligible = &self.merge_scan.eligible;
            let mut pair_panel = MergePanel::default();
            let mut full = Vec::new();
            for (i, &a) in eligible.iter().enumerate() {
                for &b in &eligible[i + 1..] {
                    pair_panel.fill(&view, &[a, b]);
                    let bound = merge_bound(&view, &pair_panel, a as usize, b as usize, max_bound);
                    if bound <= max_bound {
                        full.push(MergeCandidate {
                            winner: a,
                            loser: b,
                            bound,
                        });
                    }
                }
            }
            sort_candidates(&mut full);
            let bits = |l: &[MergeCandidate]| -> Vec<(u32, u32, u64)> {
                l.iter()
                    .map(|c| (c.winner, c.loser, c.bound.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&out),
                bits(&full),
                "pruned merge scan differs from the exhaustive one"
            );
        }
        out
    }

    /// Apply a merge performed on the partition — the dual of
    /// [`Self::apply_split`]. `p` must be the partition *after* the merge
    /// ([`Partition::merge_colors`] semantics: the loser's members joined
    /// the winner, the ex-last color was relabeled into the freed slot).
    ///
    /// Cost: `O(touched + |merged| · k + k)` — accumulator columns fold for
    /// the in/out-neighbors of the moved members, entries over other
    /// colors' member axes are patched with the split path's exact
    /// lost-extremum machinery (plus one-column rescans where an extremum
    /// was provably lost), the winner's member axis is rebuilt, and the
    /// relabel is `O(touched + k)` row/column copies.
    pub fn apply_merge(&mut self, g: &Graph, p: &Partition, event: &MergeEvent) {
        let winner = event.winner as usize;
        let loser = event.loser as usize;
        assert!(winner < loser, "merge events require winner < loser");
        assert_eq!(
            p.num_colors(),
            self.k - 1,
            "partition out of sync with engine"
        );
        let last = self.k - 1;
        debug_assert_eq!(
            event.relabeled,
            (loser != last).then_some(last as u32),
            "merge event relabel does not match the engine's color count"
        );

        // ---- Fold the accumulator columns. Neighbors of the moved members
        // against each direction hold its non-zero values towards the
        // loser. Each side captures (node, old, new) winner-column values
        // so its entry patches can run after the relabel, in the final id
        // space.
        for &outgoing in self.directions() {
            self.collect_touched(g, &event.moved_nodes, outgoing);
            let d = self.dir(outgoing);
            let side = &mut self.sides[d];
            let (from, into) = (loser as u32, winner as u32);
            side.acc
                .fold_column(&self.touched_nodes, from, into, self.k, &mut side.capture);
        }

        // ---- Relabel the ex-last color into the freed loser slot (no-op
        // when the loser was last), then shrink.
        if loser != last {
            self.relabel_last_color(g, p, loser);
        }
        self.k -= 1;
        let k = self.k;

        // ---- Patch entries over other colors' member axes from the
        // captured folds, now with partition and engine ids aligned.
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| e.patch_merge_side(side, p, winner));
        }

        // ---- The winner's member axis is rebuilt from the merged
        // member list.
        self.recompute_color_axis(p, winner);

        // ---- Witness bookkeeping: cached bests still name pre-merge
        // colors — the merged-away loser invalidates and the relabeled
        // ex-last renames. The winner's size *grew*, which is the
        // reverse of the split path: with any non-zero β a non-best
        // candidate targeting the winner can silently overtake an
        // untouched row's cached best (β > 0: its weight rose; β < 0:
        // the best's own weight fell), so every row's best goes stale.
        // With β = 0 the weights are size-independent and the targeted
        // invalidation suffices.
        let beta_weighted = self.last_beta != 0.0;
        if beta_weighted {
            self.rows.best_dirty[..k].fill(true);
        }
        for s in 0..k {
            if let Some(best) = &mut self.rows.best[s] {
                let other = best.other as usize;
                if !beta_weighted && (other == loser || other == winner) {
                    self.rows.best_dirty[s] = true;
                } else if other == last {
                    best.other = loser as u32;
                }
            }
        }

        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.verify_against(g, p),
            Ok(()),
            "incremental merge diverged from scratch recomputation"
        );
    }

    /// One side of a merge's entry patch: fold the captured winner-column
    /// changes into the entries `(member color, winner)` over the other
    /// colors' member axes (as one shard), then settle and rescan them.
    fn patch_merge_side(&mut self, side: &mut Side, p: &Partition, winner: usize) {
        self.begin_shard_records(1);
        let sc = &mut self.shard_scratch[0];
        let pr = &side.pairs;
        for &(u, old, new) in &side.capture {
            let i = p.color_of(u) as usize;
            if i == winner {
                continue; // the winner's axis is rebuilt afterwards
            }
            let idx = pr.at(i, winner);
            let (mn, mx, amn, amx) = (pr.min[idx], pr.max[idx], pr.min_arg[idx], pr.max_arg[idx]);
            sc.fold(i as u32, u, old, new, 0.0, mn, mx, amn, amx);
        }
        self.merge_shard_records(side, 1, winner);
        self.settle_touched(side, p, winner);
        self.rescan_queued(side, p);
    }

    /// Move color `last = k - 1`'s engine state into the freed `loser`
    /// slot: accumulator columns for the relabeled class's neighbors (the
    /// only rows holding values at `last`; the merged-away loser's column
    /// was zeroed by the fold), row/column copies in every summary matrix,
    /// and the witness-row caches. Values are copied, never recomputed, so
    /// the relabel is exact. Runs with the *old* `k` still in place.
    fn relabel_last_color(&mut self, g: &Graph, p: &Partition, loser: usize) {
        let last = self.k - 1;
        for &outgoing in self.directions() {
            self.collect_touched(g, p.members(loser as u32), outgoing);
            let d = self.dir(outgoing);
            let side = &mut self.sides[d];
            side.acc
                .relabel(&self.touched_nodes, last as u32, loser as u32);
            side.pairs.relabel(self.k, last, loser);
        }
        // The row's content is the same set of entries, just renamed.
        let rows = &mut self.rows;
        rows.max_err[loser] = rows.max_err[last];
        rows.best[loser] = rows.best[last];
        rows.err_dirty[loser] = rows.err_dirty[last];
        rows.best_dirty[loser] = rows.best_dirty[last];
    }

    /// Grow the node axis for freshly inserted isolated nodes. `p` is the
    /// partition *after* the inserts: nodes `first..first + colors.len()`
    /// were appended, node `first + i` to `colors[i]`. The new rows are
    /// all-zero (the nodes have no edges yet — wire them with a following
    /// edge batch), so each insert extends its color's pair summaries
    /// inline with an explicit zero attainer — no rescans, `O(k)` per
    /// inserted node.
    pub fn apply_node_inserts(&mut self, p: &Partition, first: NodeId, colors: &[u32]) {
        assert_eq!(first as usize, self.n, "node inserts must be contiguous");
        assert_eq!(
            p.num_nodes(),
            self.n + colors.len(),
            "partition out of sync with inserts"
        );
        assert_eq!(p.num_colors(), self.k, "inserts cannot change colors");
        let n_new = self.n + colors.len();
        let (k, kept) = (self.k, self.directions().len());
        for side in &mut self.sides[..kept] {
            side.acc.append(n_new, k);
        }
        self.node_mark.resize(n_new, 0);
        self.n = n_new;
        for (i, &c) in colors.iter().enumerate() {
            let v = first + i as NodeId;
            debug_assert_eq!(p.color_of(v), c, "insert color mismatch");
            // The new member contributes an explicit zero towards every
            // color, on every side.
            for side in &mut self.sides[..kept] {
                for j in 0..k {
                    let idx = side.pairs.at(c as usize, j);
                    side.pairs.extend(idx, 0.0, v, 0.0, v);
                }
            }
            self.rows.dirty(c as usize);
        }
        // Sizes of the inserted colors *grew* — the reverse of the split
        // path: with any non-zero β a candidate targeting a grown color
        // can overtake (β > 0) or fall behind (β < 0) an untouched row's
        // cached best, so every row's best goes stale. With β = 0 the
        // weights are size-independent and nothing needs invalidating
        // beyond the inserted colors' own rows (done above).
        if self.last_beta != 0.0 {
            self.rows.best_dirty[..k].fill(true);
        }
    }

    /// Compact the node axis after removals. The removed nodes must be
    /// isolated (their incident edges deleted by a preceding
    /// [`Self::apply_edge_batch`] — their accumulator rows are all-zero);
    /// `p` is the partition *after* the removal and renumbering
    /// ([`Partition::apply_node_remap`]), `remap` the mapping the graph
    /// compaction produced, and `removed_colors` the colors the removed
    /// nodes belonged to (any order, duplicates fine).
    ///
    /// Cost: `O(n)` row compaction + `O(k²)` witness remap + a one-column
    /// rescan per stale entry of an affected color.
    pub fn apply_node_removals(
        &mut self,
        p: &Partition,
        remap: &NodeRemap,
        removed_colors: &[u32],
    ) {
        assert_eq!(remap.old_len(), self.n, "remap does not match engine");
        assert_eq!(
            p.num_nodes(),
            remap.new_len(),
            "partition out of sync with removals"
        );
        assert_eq!(p.num_colors(), self.k, "removals cannot change colors");
        let (k, kept) = (self.k, self.directions().len());
        for side in &mut self.sides[..kept] {
            #[cfg(debug_assertions)]
            for v in (0..self.n as NodeId).filter(|&v| remap.is_removed(v)) {
                debug_assert!(
                    side.acc.row_is_zero(v, k),
                    "removed node {v} still has weight"
                );
            }
            side.acc.compact(remap, k);
        }
        self.node_mark.clear();
        self.node_mark.resize(remap.new_len(), 0);
        self.mark_gen = 0;
        self.n = remap.new_len();
        // Remap the extremum witnesses (attainers of unaffected colors are
        // survivors; a removed attainer becomes NO_ARG). Then only the
        // colors that lost members can see entry values change, and only
        // in one way: the removed rows were all-zero, so an entry is stale
        // iff a zero extremum just lost its last zero member (`nz == new
        // size`). Everything else keeps its value — negative minima /
        // positive maxima are attained by survivors, and a zero extremum
        // with another zero member stands. `O(k)` exact checks per
        // affected color plus a one-column rescan per stale entry, instead
        // of a full member-axis rebuild.
        let mut affected: Vec<u32> = removed_colors.to_vec();
        affected.sort_unstable();
        affected.dedup();
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| {
                let pr = &mut side.pairs;
                pr.remap_args(k, remap);
                for &c in &affected {
                    for j in 0..k {
                        let idx = pr.at(c as usize, j);
                        if (pr.nz[idx] as usize) == p.size(c)
                            && (pr.min[idx] == 0.0 || pr.max[idx] == 0.0)
                        {
                            side.rescans.push((c, j as u32));
                        }
                    }
                }
                e.rescan_queued(side, p);
            });
        }
        for &c in &affected {
            self.rows.dirty(c as usize);
        }
        if self.last_beta < 0.0 {
            self.rows.best_dirty[..k].fill(true);
        } else {
            for s in 0..k {
                if let Some(best) = &self.rows.best[s] {
                    if affected.binary_search(&best.other).is_ok() {
                        self.rows.best_dirty[s] = true;
                    }
                }
            }
        }
    }

    /// Apply one side of a split to the accumulators and pair summaries:
    /// shift every touched node's mass from the parent to the child
    /// column, patch the entries over *other* colors' member axes, then
    /// settle the batch (child-column entries, lost-extremum rescans,
    /// witness-row invalidation). `collect_touched` must have run for the
    /// matching direction.
    ///
    /// The touched list is cut into contiguous chunks, one per shard (one
    /// shard below the touched threshold). Each shard shifts its nodes'
    /// rows (each node appears in exactly one chunk, so the row writes are
    /// disjoint) and folds per-color partial aggregates into its records;
    /// [`Self::merge_shard_records`] then reduces them in shard order with
    /// exact min/max/or/sum merges, so the batch — and everything derived
    /// from it — is independent of the shard count.
    fn apply_side(&mut self, side: &mut Side, p: &Partition, c: usize, child: usize) {
        let touched = std::mem::take(&mut self.touched_nodes);
        let deltas = std::mem::take(&mut self.touched_deltas);
        let shards = if touched.len() >= self.par_min_touched {
            self.pool.0.slots()
        } else {
            1
        };
        self.begin_shard_records(shards);
        {
            let colors = p.assignment();
            let promote_k = self.k;
            let pr = &side.pairs;
            let acc = side.acc.shared();
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            run_shards(&self.pool.0, shards, |shard| {
                const PREFETCH_AHEAD: usize = 16;
                let (lo, hi) = chunk_range(touched.len(), shards, shard);
                let chunk = &touched[lo..hi];
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                let fold = |pos: usize, u: NodeId, old: f64, new: f64, child_val: f64| {
                    if let Some(&w) = chunk.get(pos + PREFETCH_AHEAD) {
                        kernels::prefetch_read(colors, w as usize);
                    }
                    let i = colors[u as usize] as usize;
                    if i == c || i == child {
                        return; // both color axes are rebuilt afterwards
                    }
                    let idx = pr.at(i, c);
                    let (mn, mx) = (pr.min[idx], pr.max[idx]);
                    let (amn, amx) = (pr.min_arg[idx], pr.max_arg[idx]);
                    sc.fold(i as u32, u, old, new, child_val, mn, mx, amn, amx);
                };
                // SAFETY: every touched node appears exactly once across
                // the shards' chunks, so each accumulator row is reached by
                // one shard only.
                unsafe {
                    acc.split_shift_each(
                        chunk,
                        &deltas[lo..hi],
                        c as u32,
                        child as u32,
                        promote_k,
                        fold,
                    );
                }
            });
        }
        self.merge_shard_records(side, shards, c);
        // Settle the parent-column entries, then install the child-column
        // entries from the folded child values.
        self.settle_touched(side, p, c);
        let pr = &mut side.pairs;
        for t in &self.touched_colors {
            let (mut mn, mut mx) = (t.child_min, t.child_max);
            let (mut amn, mut amx) = (t.child_min_arg, t.child_max_arg);
            if t.count < p.size(t.color) {
                // Some member of the color has no edges towards the child:
                // an (unknown) attainer of weight zero.
                if mn > 0.0 {
                    mn = 0.0;
                    amn = NO_ARG;
                }
                if mx < 0.0 {
                    mx = 0.0;
                    amx = NO_ARG;
                }
            }
            let idx = pr.at(t.color as usize, child);
            pr.min[idx] = mn;
            pr.max[idx] = mx;
            pr.min_arg[idx] = amn;
            pr.max_arg[idx] = amx;
            pr.nz[idx] = t.child_nonzero;
        }
        self.rescan_queued(side, p);
        self.touched_nodes = touched;
        self.touched_deltas = deltas;
    }

    /// Reset the first `shards` shards' per-color records for a new fold.
    fn begin_shard_records(&mut self, shards: usize) {
        let cap = self.cap;
        for sc in &mut self.shard_scratch[..shards] {
            if sc.slot.len() < cap {
                sc.slot.resize(cap, u32::MAX);
            }
            sc.records.clear();
        }
    }

    /// Merge the first `shards` shards' records — shards in order, records
    /// in insertion order — into a fresh touched-color batch and the
    /// entries `(record color, c)`. All reductions are exact, so the result
    /// does not depend on the chunk boundaries.
    fn merge_shard_records(&mut self, side: &mut Side, shards: usize, c: usize) {
        // Slot lookups self-validate (a stored index is live only if the
        // record at that index names the same color), so clearing the
        // record list is all the reset a new batch needs.
        self.touched_colors.clear();
        for shard in 0..shards {
            let records = std::mem::take(&mut self.shard_scratch[shard].records);
            for r in &records {
                self.merge_shard_record(&mut side.pairs, r, c);
            }
            self.shard_scratch[shard].records = records;
        }
    }

    /// Merge one shard's per-color aggregate into the touched-color batch
    /// and the entry extrema (the join-side half of
    /// [`ShardScratch::fold`]).
    fn merge_shard_record(&mut self, pr: &mut Pairs, r: &ShardRecord, c: usize) {
        let idx = pr.at(r.color as usize, c);
        let (cur_min, cur_max) = (pr.min[idx], pr.max[idx]);
        let slot = self.color_slot[r.color as usize] as usize;
        let slot = if slot < self.touched_colors.len() && self.touched_colors[slot].color == r.color
        {
            slot
        } else {
            let fresh = self.touched_colors.len();
            self.color_slot[r.color as usize] = fresh as u32;
            self.touched_colors
                .push(TouchedColor::fresh(r.color, cur_min, cur_max));
            fresh
        };
        let record = &mut self.touched_colors[slot];
        record.count += r.count;
        record.nz_delta += r.nz_delta;
        record.child_nonzero += r.child_nonzero;
        // A shard flags a lost extremum against the attainer its own fold
        // reached; once an earlier shard extended the entry past its
        // batch-start extremum, that extension is the attainer, so the
        // flag stands only while the entry still holds that extremum.
        record.rescan_min |= r.rescan_min && cur_min == record.orig_min;
        record.rescan_max |= r.rescan_max && cur_max == record.orig_max;
        if r.child_min < record.child_min {
            record.child_min = r.child_min;
            record.child_min_arg = r.child_min_arg;
        }
        if r.child_max > record.child_max {
            record.child_max = r.child_max;
            record.child_max_arg = r.child_max_arg;
        }
        pr.extend(idx, r.ext_min, r.ext_min_arg, r.ext_max, r.ext_max_arg);
    }

    /// Settle every entry `(touched color, c)` of the merged batch.
    fn settle_touched(&mut self, side: &mut Side, p: &Partition, c: usize) {
        for t in &self.touched_colors {
            let size = p.size(t.color);
            let (lo, hi) = (t.rescan_min, t.rescan_max);
            side.settle(&mut self.rows, t.color, c as u32, size, t.nz_delta, lo, hi);
        }
    }

    /// Repair the parent's member axis after a split: entries `(c, j)`.
    /// Columns `c`/`child` saw their accumulator values change and are
    /// always rescanned; for every other column the values are untouched
    /// and membership only shrank, so the nonzero count drops by what the
    /// child took (the child axis was rebuilt just before this) and the
    /// old extremum stands unless its tracked attainer departed to the
    /// child — with unknown attainers falling back to the conservative
    /// "the child attained the parent's extremum" heuristic. The settle
    /// rule decides the rest. Cost: `O(k)` exact checks plus `O(|parent|)`
    /// per column that actually lost an extremum.
    fn repair_parent_axis(&mut self, side: &mut Side, p: &Partition, c: usize, child: usize) {
        let parent_size = p.size(c as u32);
        let departed = |arg: u32, fallback: bool| {
            if arg == NO_ARG {
                fallback
            } else {
                p.color_of(arg) != c as u32
            }
        };
        for j in 0..self.k {
            if j == c || j == child {
                side.rescans.push((c as u32, j as u32));
                continue;
            }
            let pr = &side.pairs;
            let (idx, cidx) = (pr.at(c, j), pr.at(child, j));
            let lost_min = departed(pr.min_arg[idx], pr.min[cidx] == pr.min[idx]);
            let lost_max = departed(pr.max_arg[idx], pr.max[cidx] == pr.max[idx]);
            let nz_delta = -i64::from(pr.nz[cidx]);
            let (cu, ju) = (c as u32, j as u32);
            side.settle(
                &mut self.rows,
                cu,
                ju,
                parent_size,
                nz_delta,
                lost_min,
                lost_max,
            );
        }
        self.rescan_queued(side, p);
    }

    /// Recompute the stale witness rows. `beta` is the target-size exponent
    /// of the witness weighting (the paper's β). Rows whose *entries*
    /// changed since the last refresh rescan both their maximum error and
    /// their cached best; a β change alone only stales the cached
    /// β-weighted bests (the row maxima are β-independent), so a β-only
    /// rebuild skips the error bookkeeping entirely. Large batches of
    /// stale rows are sharded across the pool — each row is an independent
    /// `O(k)` scan writing only its own cache slots, so results do not
    /// depend on the shard count.
    pub fn refresh(&mut self, p: &Partition, beta: f64) {
        if beta != self.last_beta {
            self.rows.best_dirty[..self.k].fill(true);
            self.last_beta = beta;
        }
        let k = self.k;
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        dirty.clear();
        dirty.extend(
            (0..k as u32)
                .filter(|&s| self.rows.err_dirty[s as usize] || self.rows.best_dirty[s as usize]),
        );
        if dirty.is_empty() {
            self.dirty_scratch = dirty;
            return;
        }
        let view = SummaryView::new(&self.sides, k, self.cap, self.symmetric);
        let shards = if dirty.len() >= 2 && dirty.len() * k >= self.par_min_scan_work {
            self.pool.0.slots()
        } else {
            1
        };
        let row_max_err = SyncSliceMut::new(&mut self.rows.max_err);
        let row_best = SyncSliceMut::new(&mut self.rows.best);
        let err_dirty = SyncSliceMut::new(&mut self.rows.err_dirty);
        let best_dirty = SyncSliceMut::new(&mut self.rows.best_dirty);
        run_shards(&self.pool.0, shards, |shard| {
            let (lo, hi) = chunk_range(dirty.len(), shards, shard);
            for &s in &dirty[lo..hi] {
                let s = s as usize;
                let (max_err, best) = view.scan_row(p, s, beta);
                // SAFETY: the dirty list is duplicate-free and chunks are
                // disjoint, so each row's slots are written by one shard.
                unsafe {
                    if *err_dirty.get_mut(s) {
                        *row_max_err.get_mut(s) = max_err;
                        *err_dirty.get_mut(s) = false;
                    }
                    *row_best.get_mut(s) = best;
                    *best_dirty.get_mut(s) = false;
                }
            }
        });
        self.dirty_scratch = dirty;
    }

    /// Maximum q-error over all pairs and directions. Requires
    /// [`Self::refresh`] since the last split (β-only staleness is fine:
    /// the row maxima are β-independent).
    pub fn max_error(&self) -> f64 {
        debug_assert!(
            self.rows.err_dirty[..self.k].iter().all(|d| !d),
            "max_error called with dirty witness rows; call refresh() first"
        );
        self.rows.max_err[..self.k]
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }

    /// The witness with the largest `error · |P_split|^α · |P_other|^β`
    /// weight among splittable colors (size ≥ 2), or `None` when every
    /// remaining error sits inside singleton colors or the coloring is
    /// stable. Requires [`Self::refresh`] since the last split (with the
    /// same `beta`).
    pub fn pick_witness(&self, p: &Partition, alpha: f64) -> Option<WitnessCandidate> {
        self.debug_assert_fresh();
        let mut best: Option<(f64, WitnessCandidate)> = None;
        for s in 0..self.k {
            let Some(row) = &self.rows.best[s] else {
                continue;
            };
            let weighted = row.weighted * size_pow(p.size(s as u32), alpha);
            match &best {
                Some((bw, _)) if *bw >= weighted => {}
                _ => {
                    best = Some((
                        weighted,
                        WitnessCandidate {
                            split_color: s as u32,
                            other_color: row.other,
                            outgoing: row.outgoing,
                            error: row.error,
                        },
                    ))
                }
            }
        }
        best.map(|(_, w)| w)
    }

    /// The top `max_count` witnesses by `error · |P_split|^α · |P_other|^β`
    /// weight, at most one per split color (the engine caches one best
    /// candidate per row, which is exactly what makes a batch of these
    /// splits non-conflicting: distinct parents, so no split invalidates
    /// another's membership). Ordered by descending weight with ties broken
    /// towards the smaller color id; the first element equals
    /// [`Self::pick_witness`]. Requires [`Self::refresh`] since the last
    /// split (with the same `beta`).
    pub fn pick_witnesses(
        &self,
        p: &Partition,
        alpha: f64,
        max_count: usize,
    ) -> Vec<WitnessCandidate> {
        self.debug_assert_fresh();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for s in 0..self.k {
            if let Some(row) = &self.rows.best[s] {
                scored.push((row.weighted * size_pow(p.size(s as u32), alpha), s as u32));
            }
        }
        // Witness weights are finite (errors are differences of finite
        // sums), so the comparison is total.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        scored.truncate(max_count);
        scored
            .into_iter()
            .map(|(_, s)| {
                let row = self.rows.best[s as usize].as_ref().expect("scored row");
                WitnessCandidate {
                    split_color: s,
                    other_color: row.other,
                    outgoing: row.outgoing,
                    error: row.error,
                }
            })
            .collect()
    }

    #[inline]
    fn debug_assert_fresh(&self) {
        debug_assert!(
            self.rows.err_dirty[..self.k]
                .iter()
                .chain(self.rows.best_dirty[..self.k].iter())
                .all(|d| !d),
            "witness pick with dirty rows; call refresh() first"
        );
    }

    /// Cross-check the full maintained state against a from-scratch
    /// [`DegreeMatrices::compute`] (and freshly recomputed accumulators),
    /// with a small tolerance for floating-point associativity. Returns a
    /// description of the first mismatch. Intended for tests and the debug
    /// assertion inside [`Self::apply_split`].
    pub fn verify_against(&self, g: &Graph, p: &Partition) -> Result<(), String> {
        let k = self.k;
        if p.num_colors() != k {
            return Err(format!("color count {} != engine {k}", p.num_colors()));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        let scratch = DegreeMatrices::compute(g, p);
        let view = SummaryView::new(&self.sides, k, self.cap, self.symmetric);
        for i in 0..k {
            for j in 0..k {
                let sidx = i * k + j;
                let (out_min, out_max) = view.out_mm(i, j);
                let (in_min, in_max) = view.in_mm(i, j);
                for (name, ours, theirs) in [
                    ("out_min", out_min, scratch.out_min[sidx]),
                    ("out_max", out_max, scratch.out_max[sidx]),
                    ("in_min", in_min, scratch.in_min[sidx]),
                    ("in_max", in_max, scratch.in_max[sidx]),
                ] {
                    if !close(ours, theirs) {
                        return Err(format!(
                            "{name}[{i}][{j}]: incremental {ours} vs scratch {theirs}"
                        ));
                    }
                }
            }
        }
        // Per kept side, entry (a, b): tracked attainers, when known,
        // must attain the entry's value and belong to the member axis,
        // and the nonzero-member count must match a recount of the
        // maintained values. The recount deliberately uses maintained
        // *values*: with inexact weights an incremental subtraction
        // can leave a tiny residue where a fresh sum gives an exact
        // zero, and the zero-skip rule is sound for exactly this
        // value-based count.
        for &outgoing in self.directions() {
            let (side, dir) = (self.side(outgoing), if outgoing { "out" } else { "in" });
            for a in 0..k {
                for b in 0..k {
                    let pr = &side.pairs;
                    let idx = pr.at(a, b);
                    for (name, arg, val) in [
                        ("min", pr.min_arg[idx], pr.min[idx]),
                        ("max", pr.max_arg[idx], pr.max[idx]),
                    ] {
                        if arg == NO_ARG {
                            continue;
                        }
                        let attained = side.acc.get(arg, b as u32);
                        if p.color_of(arg) as usize != a || attained != val {
                            return Err(format!(
                                "{dir} {name} attainer of ({a}, {b}): node {arg} (color {}, value {attained}) does not attain {val}",
                                p.color_of(arg)
                            ));
                        }
                    }
                    let count = p
                        .members(a as u32)
                        .iter()
                        .filter(|&&u| side.acc.get(u, b as u32) != 0.0)
                        .count();
                    if pr.nz[idx] as usize != count {
                        return Err(format!(
                            "{dir} nonzero count of ({a}, {b}): incremental {} vs recounted {count}",
                            pr.nz[idx]
                        ));
                    }
                }
            }
        }
        // Accumulators, recomputed fresh.
        for v in 0..self.n as NodeId {
            for outgoing in [true, false] {
                let mut fresh = vec![0.0f64; k];
                let (nbrs, wts) = if outgoing {
                    g.out_arcs(v)
                } else {
                    g.in_arcs(v)
                };
                for (&u, &w) in nbrs.iter().zip(wts) {
                    fresh[p.color_of(u) as usize] += w;
                }
                for (j, &expected) in fresh.iter().enumerate() {
                    let ours = self.side(outgoing).acc.get(v, j as u32);
                    if !close(ours, expected) {
                        let dir = if outgoing { "out" } else { "in" };
                        return Err(format!(
                            "{dir} accumulator [{v}][{j}]: incremental {ours} vs fresh {expected}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    // ---- internals ----

    /// Rebuild every pair summary indexed along color `s`'s member axis,
    /// on every kept side: entries `(s, j)` for all `j`.
    fn recompute_color_axis(&mut self, p: &Partition, s: usize) {
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| e.rebuild_axis(side, p, s));
        }
        self.rows.dirty(s);
    }

    /// One side of [`Self::recompute_color_axis`], by scanning the
    /// accumulator rows of `P_s`'s members. `O(|P_s| · k)`. Each shard
    /// (one below the scan-work threshold) folds a contiguous chunk of the
    /// members into its own min/max rows, and the rows merge in shard
    /// order with strict comparisons, which keep the first attainer — the
    /// member-order scan's values and extremum witnesses, bit for bit.
    /// Tiered rows fold only their stored entries per member and close the
    /// merged rows with one zero-tail pass: any column some member misses
    /// folds a 0.0 with the `NO_ARG` witness. The min/max *values* equal
    /// the dense scan's exactly; only zero-extremum attainers differ
    /// (NO_ARG instead of the first zero-valued member), which is
    /// unobservable — attainers gate rescans, never values, and NO_ARG
    /// forces the conservative rescan.
    fn rebuild_axis(&mut self, side: &mut Side, p: &Partition, s: usize) {
        let (k, cap) = (self.k, self.cap);
        let members = p.members(s as u32);
        let shards = if members.len() >= 2 && members.len() * k >= self.par_min_scan_work {
            self.pool.0.slots()
        } else {
            1
        };
        for sc in &mut self.shard_scratch[..shards] {
            sc.size_axis(cap);
        }
        {
            let acc = &side.acc;
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            run_shards(&self.pool.0, shards, |shard| {
                let (lo, hi) = chunk_range(members.len(), shards, shard);
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                let (mn, mx, amn, amx, nz) = sc.axis_rows(cap);
                mn[..k].fill(f64::INFINITY);
                mx[..k].fill(f64::NEG_INFINITY);
                amn[..k].fill(NO_ARG);
                amx[..k].fill(NO_ARG);
                nz[..k].fill(0);
                acc.fold_rows(&members[lo..hi], k, mn, mx, amn, amx, nz);
            });
        }
        // Merge the shard rows into the first shard's, in shard order.
        let (head, rest) = self.shard_scratch.split_at_mut(1);
        let head = &mut head[0];
        for sc in &rest[..shards - 1] {
            for j in 0..k {
                if sc.axis[j] < head.axis[j] {
                    head.axis[j] = sc.axis[j];
                    head.axis_arg[j] = sc.axis_arg[j];
                }
                if sc.axis[cap + j] > head.axis[cap + j] {
                    head.axis[cap + j] = sc.axis[cap + j];
                    head.axis_arg[cap + j] = sc.axis_arg[cap + j];
                }
                head.axis_nz[j] += sc.axis_nz[j];
            }
        }
        let (mn, mx, amn, amx, nz) = head.axis_rows(cap);
        side.acc
            .close_fold(members.len() as u32, k, mn, mx, amn, amx, nz);
        let pr = &mut side.pairs;
        for j in 0..k {
            let idx = pr.at(s, j);
            pr.min[idx] = mn[j];
            pr.max[idx] = mx[j];
            pr.min_arg[idx] = amn[j];
            pr.max_arg[idx] = amx[j];
            pr.nz[idx] = nz[j];
        }
    }

    /// Collect the distinct neighbors of `moved` (sources of their in-edges
    /// when `incoming`, targets of their out-edges otherwise) into
    /// `touched_nodes`, accumulating per-neighbor weight deltas in the
    /// index-parallel `touched_deltas` (so consumers read them
    /// positionally, without a per-node gather).
    ///
    /// The moved list is cut into fixed-size chunks (chunk size =
    /// `par_min_touched`, a pure function of the engine's thresholds —
    /// **never** of the thread count). A list shorter than one chunk is
    /// scanned straight into the touched list. Longer lists deal their
    /// chunks round-robin to the pool's shards; each chunk is deduped into
    /// its own `(nodes, chunk-local deltas)` list, and the lists merge in
    /// chunk order. A neighbor's global first appearance is in the
    /// earliest chunk that touches it, at that chunk's local first-touch
    /// position, so the merged ordering equals a first-appearance scan of
    /// the whole list; and because the chunk boundaries and the merge
    /// order do not depend on the thread count, neither do the
    /// accumulated deltas — on arbitrary float weights, not just
    /// representable ones.
    fn collect_touched(&mut self, g: &Graph, moved: &[NodeId], incoming: bool) {
        // Mapped graphs: start faulting the moved nodes' arc span in now,
        // so the batched scan below overlaps page-in with compute (no-op
        // for owned graphs).
        g.advise_arcs_will_need(moved);
        let chunk_size = self.par_min_touched;
        if moved.len() < chunk_size.max(2) {
            scan_chunk(
                g,
                moved,
                incoming,
                &mut self.node_mark,
                &mut self.mark_gen,
                &mut self.touched_nodes,
                &mut self.touched_deltas,
            );
            return;
        }
        let chunks = moved.len().div_ceil(chunk_size);
        let shards = self.pool.0.slots();
        let mut lists = std::mem::take(&mut self.chunk_out);
        if lists.len() < chunks {
            lists.resize_with(chunks, Default::default);
        }
        let n = self.n;
        for sc in &mut self.shard_scratch {
            if sc.mark.len() < n {
                sc.mark.resize(n, 0);
            }
        }
        {
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            let out = SyncSliceMut::new(&mut lists);
            run_shards(&self.pool.0, shards, |shard| {
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                for c in (shard..chunks).step_by(shards) {
                    let lo = c * chunk_size;
                    let hi = (lo + chunk_size).min(moved.len());
                    // SAFETY: chunks are dealt round-robin by shard, so
                    // each list is written by exactly one shard.
                    let (nodes, deltas) = unsafe { out.get_mut(c) };
                    let movers = &moved[lo..hi];
                    scan_chunk(
                        g,
                        movers,
                        incoming,
                        &mut sc.mark,
                        &mut sc.mark_gen,
                        nodes,
                        deltas,
                    );
                }
            });
        }
        // Merge in chunk order: global first-appearance dedupe over the
        // chunk lists, chunk-local sums added in chunk order. Merged sums
        // start from +0.0 (`0.0 + d` differs from `d` only for a -0.0 `d`).
        let gen = next_gen(&mut self.node_mark, &mut self.mark_gen);
        self.touched_nodes.clear();
        self.touched_deltas.clear();
        for (nodes, deltas) in &lists[..chunks] {
            for (&u, &d) in nodes.iter().zip(deltas) {
                touch(
                    &mut self.node_mark,
                    gen,
                    &mut self.touched_nodes,
                    &mut self.touched_deltas,
                    u,
                    0.0 + d,
                );
            }
        }
        self.chunk_out = lists;
    }

    /// Recompute the side's queued rescans from their member axes: entry
    /// `(a, b)` scans `P_a`'s members at column `b` (values, first
    /// attainers in member order, nonzero counts), then clears the queue.
    /// Each shard (one below the scan-work threshold) takes a contiguous
    /// chunk of whole entries and writes only those, so results do not
    /// depend on the shard count. A chunk whose entries share one member
    /// axis — the parent-axis repair after a split always does — hands all
    /// its columns over at once (tiered rows fold them in a single member
    /// pass, the dense plane gathers each contiguous column in turn); per
    /// column that is the same member-order fold, bit for bit.
    fn rescan_queued(&mut self, side: &mut Side, p: &Partition) {
        let entries = std::mem::take(&mut side.rescans);
        if !entries.is_empty() {
            let work: usize = entries.iter().map(|&(a, _)| p.size(a)).sum();
            let shards = if entries.len() >= 2 && work >= self.par_min_scan_work {
                self.pool.0.slots()
            } else {
                1
            };
            let cap = self.cap;
            for sc in &mut self.shard_scratch[..shards] {
                sc.size_axis(cap);
            }
            let acc = &side.acc;
            let pr = &mut side.pairs;
            let (ms, os) = (pr.ms, pr.os);
            let (emin, emax) = (
                SyncSliceMut::new(&mut pr.min),
                SyncSliceMut::new(&mut pr.max),
            );
            let amin = SyncSliceMut::new(&mut pr.min_arg);
            let amax = SyncSliceMut::new(&mut pr.max_arg);
            let enz = SyncSliceMut::new(&mut pr.nz);
            let write = |&(a, b): &(u32, u32), (mn, mx, an, ax, nz): (f64, f64, u32, u32, u32)| {
                let idx = a as usize * ms + b as usize * os;
                // SAFETY: the entry list is duplicate-free and chunks are
                // disjoint, so each entry is written by one shard.
                unsafe {
                    *emin.get_mut(idx) = mn;
                    *emax.get_mut(idx) = mx;
                    *amin.get_mut(idx) = an;
                    *amax.get_mut(idx) = ax;
                    *enz.get_mut(idx) = nz;
                }
            };
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            run_shards(&self.pool.0, shards, |shard| {
                let (lo, hi) = chunk_range(entries.len(), shards, shard);
                let chunk = &entries[lo..hi];
                let Some(&(axis, _)) = chunk.first() else {
                    return;
                };
                if chunk.len() < 2 || chunk.iter().any(|e| e.0 != axis) {
                    for e in chunk {
                        write(e, acc.scan_column(p.members(e.0), e.1));
                    }
                    return;
                }
                debug_assert!(chunk.len() <= cap);
                let cols: Vec<u32> = chunk.iter().map(|e| e.1).collect();
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                let (mn, mx, amn, amx, nz) = sc.axis_rows(cap);
                acc.scan_columns(p.members(axis), &cols, mn, mx, amn, amx, nz);
                for (s, e) in chunk.iter().enumerate() {
                    write(e, (mn[s], mx[s], amn[s], amx[s], nz[s]));
                }
            });
        }
        side.rescans = entries;
        side.rescans.clear();
    }

    /// Grow the column capacity to hold `needed` colors. Capacity doubles
    /// (`next_power_of_two`), so a long split sequence pays `O(log k)`
    /// regrowths — amortized `O(1)` copies per new color — and each matrix
    /// regrows straight to its final footprint in one allocation + one
    /// prefix copy.
    fn ensure_capacity(&mut self, needed: usize) {
        if needed <= self.cap {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let (old_cap, k, kept) = (self.cap, self.k, self.directions().len());
        for side in &mut self.sides[..kept] {
            side.acc.grow_cap(new_cap, k);
            side.pairs.grow(old_cap, new_cap);
        }
        let rows = &mut self.rows;
        rows.max_err.resize(new_cap, 0.0);
        rows.best.resize(new_cap, None);
        rows.err_dirty.resize(new_cap, true);
        rows.best_dirty.resize(new_cap, true);
        self.color_slot.resize(new_cap, u32::MAX);
        self.cap = new_cap;
    }
}

/// The top-`max_count` witnesses over from-scratch [`DegreeMatrices`], at
/// most one per split color, ordered by descending weight with ties broken
/// towards the smaller color id — the reference-mode counterpart of
/// [`IncrementalDegrees::pick_witnesses`]. Because the per-row scan and the
/// cross-row ordering mirror the engine's exactly, batched reference
/// rounds pick the same candidates as batched incremental rounds whenever
/// the underlying matrices are numerically identical.
pub fn pick_witnesses_scratch(
    m: &DegreeMatrices,
    p: &Partition,
    alpha: f64,
    beta: f64,
    max_count: usize,
) -> Vec<WitnessCandidate> {
    let k = m.k;
    let mut scored: Vec<(f64, u32, RowBest)> = Vec::new();
    for s in 0..k {
        if p.size(s as u32) < 2 {
            continue;
        }
        let mut row_best: Option<RowBest> = None;
        let mut consider = |weighted: f64, error: f64, other: u32, outgoing: bool| match &row_best {
            Some(b) if b.weighted >= weighted => {}
            _ => {
                row_best = Some(RowBest {
                    weighted,
                    other,
                    outgoing,
                    error,
                })
            }
        };
        for j in 0..k {
            let e = m.out_error(s, j);
            if e > 0.0 {
                consider(e * size_pow(p.size(j as u32), beta), e, j as u32, true);
            }
        }
        for i in 0..k {
            let e = m.in_error(i, s);
            if e > 0.0 {
                consider(e * size_pow(p.size(i as u32), beta), e, i as u32, false);
            }
        }
        if let Some(row) = row_best {
            scored.push((
                row.weighted * size_pow(p.size(s as u32), alpha),
                s as u32,
                row,
            ));
        }
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
    scored.truncate(max_count);
    scored
        .into_iter()
        .map(|(_, s, row)| WitnessCandidate {
            split_color: s,
            other_color: row.other,
            outgoing: row.outgoing,
            error: row.error,
        })
        .collect()
}

/// Run one data-parallel phase: `f(shard)` for every shard of `0..shards`,
/// across the pool when `shards == pool.slots()`, inline on the calling
/// thread (no handshake) when `shards == 1`.
fn run_shards(pool: &ThreadPool, shards: usize, f: impl Fn(usize) + Sync) {
    if shards == 1 {
        // A region of its own for the claim checker, as `run` opens one.
        #[cfg(feature = "audit")]
        crate::audit::begin_region();
        f(0);
    } else {
        debug_assert_eq!(shards, pool.slots());
        pool.run(f);
    }
}

/// Advance a packed mark array's generation stamp, clearing the marks when
/// the counter wraps so a stale stamp can never match.
fn next_gen(mark: &mut [u64], gen: &mut u32) -> u32 {
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        mark.fill(0);
        *gen = 1;
    }
    *gen
}

/// Add weight `w` to node `u`'s entry of a deduped `(nodes, deltas)` list,
/// appending the node on its first touch this generation. `mark[u]` packs
/// the generation stamp (low half) with the node's index into `nodes`
/// (high half), so one probe answers both "seen?" and "where?".
#[inline(always)]
fn touch(
    mark: &mut [u64],
    gen: u32,
    nodes: &mut Vec<NodeId>,
    deltas: &mut Vec<f64>,
    u: NodeId,
    w: f64,
) {
    let m = mark[u as usize];
    if m as u32 != gen {
        mark[u as usize] = u64::from(gen) | ((nodes.len() as u64) << 32);
        nodes.push(u);
        deltas.push(w);
    } else {
        deltas[(m >> 32) as usize] += w;
    }
}

/// Dedupe one chunk of movers' neighbors into `(nodes, deltas)` in
/// first-touch order, summing each neighbor's arc weights in arc order —
/// the per-chunk kernel of the touched collection.
fn scan_chunk(
    g: &Graph,
    movers: &[NodeId],
    incoming: bool,
    mark: &mut [u64],
    gen: &mut u32,
    nodes: &mut Vec<NodeId>,
    deltas: &mut Vec<f64>,
) {
    let gen = next_gen(mark, gen);
    nodes.clear();
    deltas.clear();
    for &v in movers {
        let (nbrs, wts) = if incoming {
            g.in_arcs(v)
        } else {
            g.out_arcs(v)
        };
        for (&u, &w) in nbrs.iter().zip(wts) {
            touch(mark, gen, nodes, deltas, u, w);
        }
    }
}

/// `size^exponent` with the paper's convention that an exponent of zero
/// disables the weighting entirely (including for empty products).
#[inline]
pub(crate) fn size_pow(size: usize, exponent: f64) -> f64 {
    if exponent == 0.0 {
        1.0
    } else {
        (size as f64).powf(exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{Absolute, Exact};
    use qsc_graph::generators;
    use qsc_graph::GraphBuilder;

    #[test]
    fn resident_bytes_counts_edge_batch_scratch() {
        // One batch over 2,000 distinct (node, column) pairs: the batch's
        // combine list alone keeps 2,000 × 16 bytes resident afterwards.
        let n = 2_001;
        let g = GraphBuilder::new_directed(n).build();
        let p = Partition::unit(n);
        let mut engine = IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Dense, 1);
        let before = engine.resident_bytes();
        let mut delta = qsc_graph::GraphDelta::new(g);
        for u in 0..2_000 {
            delta.insert_edge(u, u + 1, 1.0).unwrap();
        }
        engine.apply_edge_batch(&p, &delta.drain_events());
        let after = engine.resident_bytes();
        assert!(
            after >= before + 2_000 * 16,
            "resident bytes {before} -> {after} miss the edge-batch scratch"
        );
    }

    #[test]
    fn discrete_partition_has_zero_error() {
        let g = generators::karate_club();
        let p = Partition::discrete(34);
        assert_eq!(max_q_error(&g, &p), 0.0);
        assert!(is_quasi_stable(&g, &p, &Exact));
    }

    #[test]
    fn unit_partition_error_is_degree_spread() {
        let g = generators::karate_club();
        let p = Partition::unit(34);
        // Max error = max degree - min degree = 17 - 1 = 16.
        assert_eq!(max_q_error(&g, &p), 16.0);
        assert!(!is_quasi_stable(&g, &p, &Exact));
        assert!(is_quasi_stable(&g, &p, &Absolute::new(16.0)));
        assert!(!is_quasi_stable(&g, &p, &Absolute::new(15.0)));
    }

    #[test]
    fn star_partition_errors() {
        // Star with center 0 and 4 leaves; partition {0},{1..4} is stable.
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let p = Partition::from_classes(5, vec![vec![0], vec![1, 2, 3, 4]]);
        assert_eq!(max_q_error(&g, &p), 0.0);
        // Putting the center together with leaves: error 4 - 1 = 3.
        let bad = Partition::unit(5);
        assert_eq!(max_q_error(&g, &bad), 3.0);
        let report = q_error_report(&g, &bad);
        assert_eq!(report.max_q, 3.0);
        assert_eq!(report.num_colors, 1);
        assert!(report.worst_pair.is_some());
    }

    #[test]
    fn degree_matrices_shape_and_sum() {
        let g = generators::karate_club();
        let p = Partition::from_assignment(
            &(0..34)
                .map(|v| if v < 17 { 0 } else { 1 })
                .collect::<Vec<_>>(),
        );
        let m = DegreeMatrices::compute(&g, &p);
        assert_eq!(m.k, 2);
        // Total of the sum matrix equals total arc weight.
        let total: f64 = m.sum.iter().sum();
        assert_eq!(total, g.total_weight());
        // Cross-pair sums are symmetric for undirected graphs.
        assert_eq!(m.pair_weight(0, 1), m.pair_weight(1, 0));
    }

    #[test]
    fn directed_in_out_errors_differ() {
        // 0 -> 2, 1 -> 2, 1 -> 3  with colors {0,1}, {2,3}.
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        let g = b.build();
        let p = Partition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let m = DegreeMatrices::compute(&g, &p);
        // Outgoing from color 0 to color 1: node 0 has 1, node 1 has 2 => err 1.
        assert_eq!(m.out_error(0, 1), 1.0);
        // Incoming into color 1 from color 0: node 2 has 2, node 3 has 1 => err 1.
        assert_eq!(m.in_error(0, 1), 1.0);
        // No edges inside color 0.
        assert_eq!(m.out_error(0, 0), 0.0);
        assert_eq!(max_q_error(&g, &p), 1.0);
    }

    #[test]
    fn zero_degree_nodes_counted_in_min() {
        // Color {0,1} where only node 0 has an edge to color {2}: min is 0.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 2, 5.0);
        let g = b.build();
        let p = Partition::from_classes(3, vec![vec![0, 1], vec![2]]);
        let m = DegreeMatrices::compute(&g, &p);
        assert_eq!(m.out_max[1], 5.0);
        assert_eq!(m.out_min[1], 0.0);
        assert_eq!(m.out_error(0, 1), 5.0);
    }

    #[test]
    fn mean_error_leq_max_error() {
        let g = generators::barabasi_albert(200, 3, 7);
        let p = Partition::from_assignment(&(0..200).map(|v| (v % 5) as u32).collect::<Vec<_>>());
        let report = q_error_report(&g, &p);
        assert!(report.mean_q <= report.max_q);
        assert!(report.mean_q >= 0.0);
    }

    #[test]
    fn relative_error_of_star_partition() {
        // Star with center 0 and 4 leaves, all nodes in one color: degrees
        // into the color are {4, 1, 1, 1, 1}, so the relative spread is
        // ln(4 / 1).
        let mut b = GraphBuilder::new_undirected(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let unit = Partition::unit(5);
        let m = DegreeMatrices::compute(&g, &unit);
        assert!((m.out_relative_error(0, 0) - 4.0f64.ln()).abs() < 1e-12);
        assert!((max_relative_error(&g, &unit) - 4.0f64.ln()).abs() < 1e-12);
        // The stable coloring {center}, {leaves} has zero relative error.
        let p = Partition::from_classes(5, vec![vec![0], vec![1, 2, 3, 4]]);
        assert_eq!(max_relative_error(&g, &p), 0.0);
    }

    #[test]
    fn relative_error_infinite_when_zero_mixes_with_nonzero() {
        // Node 1 has no edge into color {2}, node 0 does: zero is only
        // ε-similar to zero, so the relative error is infinite while the
        // absolute error is finite.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 2, 5.0);
        let g = b.build();
        let p = Partition::from_classes(3, vec![vec![0, 1], vec![2]]);
        assert_eq!(max_q_error(&g, &p), 5.0);
        assert!(max_relative_error(&g, &p).is_infinite());
    }

    #[test]
    fn stable_coloring_has_zero_q() {
        let g = generators::colored_regular(10, 8, 4, 2, 3);
        let p = crate::stable::stable_coloring(&g);
        assert_eq!(max_q_error(&g, &p), 0.0);
        assert_eq!(mean_q_error(&g, &p), 0.0);
    }

    /// Random graph with exactly representable weights.
    fn half_weight_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
        use rand::prelude::*;
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
                b.add_edge(u, v, (rng.random_range(1u32..9) as f64) * 0.5);
            }
        }
        b.build()
    }

    #[test]
    fn merge_matches_fresh_engine_across_modes() {
        use rand::prelude::*;
        for (directed, seed) in [(false, 3u64), (true, 19)] {
            let g = half_weight_graph(40, 160, directed, seed);
            let mut p = Partition::unit(40);
            let mut dense = IncrementalDegrees::new(&g, &p);
            let mut sparse =
                IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
            // Refine to ~8 colors, then merge random pairs back down,
            // cross-checking the full state after every merge.
            for _ in 0..7 {
                let k = p.num_colors();
                let candidates: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
                let Some(&c) = candidates.as_slice().choose(&mut rng) else {
                    break;
                };
                let members: Vec<u32> = p.members(c).to_vec();
                let pivot = members[rng.random_range(0..members.len())];
                if let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) {
                    dense.apply_split(&g, &p, &ev);
                    sparse.apply_split(&g, &p, &ev);
                }
            }
            while p.num_colors() >= 2 {
                let k = p.num_colors() as u32;
                let a = rng.random_range(0..k - 1);
                let b = rng.random_range(a + 1..k);
                let ev = p.merge_colors(a, b);
                dense.apply_merge(&g, &p, &ev);
                sparse.apply_merge(&g, &p, &ev);
                assert_eq!(dense.verify_against(&g, &p), Ok(()));
                assert_eq!(sparse.verify_against(&g, &p), Ok(()));
                // Witness state equals a freshly built engine bit-for-bit,
                // and every engine's best merge is the scratch pick.
                dense.refresh(&p, 1.0);
                sparse.refresh(&p, 1.0);
                let mut fresh = IncrementalDegrees::new(&g, &p);
                fresh.refresh(&p, 1.0);
                assert_eq!(dense.max_error().to_bits(), fresh.max_error().to_bits());
                assert_eq!(dense.pick_witness(&p, 1.0), fresh.pick_witness(&p, 1.0));
                let best = pick_merge_scratch(&DegreeMatrices::compute(&g, &p), f64::INFINITY);
                for engine in [&mut dense, &mut sparse, &mut fresh] {
                    assert_eq!(
                        engine.merge_candidates(f64::INFINITY).first(),
                        best.as_ref()
                    );
                }
            }
        }
    }

    #[test]
    fn merge_bound_is_sound() {
        // The picked merge's bound must dominate the actual post-merge
        // error, and the scratch pick must agree with the engine pick.
        for (directed, seed) in [(false, 7u64), (true, 29)] {
            let g = half_weight_graph(36, 150, directed, seed);
            let mut p = Partition::unit(36);
            let mut engine = IncrementalDegrees::new(&g, &p);
            for pivot in [24u32, 12, 30, 6] {
                if let Some(ev) = p.split_color(p.color_of(pivot), |v| v >= pivot && v != 0) {
                    engine.apply_split(&g, &p, &ev);
                }
            }
            let m = DegreeMatrices::compute(&g, &p);
            engine.refresh(&p, 0.0);
            let cand = engine.merge_candidates(f64::INFINITY)[0];
            assert_eq!(Some(cand), pick_merge_scratch(&m, f64::INFINITY));
            let ev = p.merge_colors(cand.winner, cand.loser);
            engine.apply_merge(&g, &p, &ev);
            let actual = max_q_error(&g, &p);
            assert!(
                actual <= cand.bound + 1e-9,
                "bound {} below actual {actual}",
                cand.bound
            );
        }
    }

    /// Random graph with small integer weights, so every summary and
    /// every bound is exact.
    fn integer_graph(n: usize, edges: usize, directed: bool, seed: u64) -> Graph {
        use rand::prelude::*;
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
                b.add_edge(u, v, f64::from(rng.random_range(1u32..5)));
            }
        }
        b.build()
    }

    /// Every pair bounded on its own, the way the re-check before a merge
    /// bounds it, and sorted like a candidate list. Pairs holding an
    /// ineligible color cannot pass: with integer weights their bound
    /// exactly dominates that color's row error.
    fn exhaustive_candidates(e: &mut IncrementalDegrees, band: f64) -> Vec<MergeCandidate> {
        let k = e.num_colors() as u32;
        let mut out = Vec::new();
        for winner in 0..k {
            for loser in winner + 1..k {
                let bound = e.merge_bound_pair(winner, loser, band);
                if bound <= band {
                    out.push(MergeCandidate {
                        winner,
                        loser,
                        bound,
                    });
                }
            }
        }
        sort_candidates(&mut out);
        out
    }

    fn candidate_bits(list: &[MergeCandidate]) -> Vec<(u32, u32, u64)> {
        list.iter()
            .map(|c| (c.winner, c.loser, c.bound.to_bits()))
            .collect()
    }

    /// The projection columns the last `merge_candidates` call used.
    fn last_projection(e: &mut IncrementalDegrees) -> (usize, usize) {
        let view = SummaryView::new(&e.sides, e.k, e.cap, e.symmetric);
        e.merge_scan.projection_columns(&view)
    }

    #[test]
    fn merge_candidates_match_exhaustive_scan() {
        use rand::prelude::*;
        let (mut projection_eligible, mut one_eligible, mut pruned) = (false, false, false);
        for (directed, seed) in [(false, 5u64), (true, 23)] {
            let n = 48;
            let g = integer_graph(n, 150, directed, seed);
            let mut p = Partition::unit(n);
            let mut engines = Vec::new();
            for mode in [StorageMode::Dense, StorageMode::Sparse] {
                for threads in [1usize, 4] {
                    let mut e = IncrementalDegrees::new_with_storage(&g, &p, threads, mode, n);
                    if threads > 1 {
                        e.set_parallel_thresholds(1, 1);
                    }
                    engines.push(e);
                }
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
            for _ in 0..30 {
                let k = p.num_colors();
                let splittable: Vec<u32> = (0..k as u32).filter(|&c| p.size(c) >= 2).collect();
                let Some(&c) = splittable.as_slice().choose(&mut rng) else {
                    break;
                };
                let members = p.members(c).to_vec();
                let pivot = members[rng.random_range(0..members.len())];
                let Some(ev) = p.split_color(c, |v| v >= pivot && v != members[0]) else {
                    continue;
                };
                for e in &mut engines {
                    e.apply_split(&g, &p, &ev);
                    e.refresh(&p, 0.0);
                }
                // Bands: none eligible, exactly one eligible (when the
                // smallest row error is unique), zero, the median and the
                // largest row error (every color eligible), unbounded.
                let k = p.num_colors();
                let mut errs = engines[0].rows.max_err[..k].to_vec();
                errs.sort_by(f64::total_cmp);
                let mut bands = vec![-1.0, 0.0, errs[k / 2], errs[k - 1], f64::INFINITY];
                if k >= 2 && errs[0] < errs[1] {
                    bands.push(errs[0]);
                }
                let scratch = DegreeMatrices::compute(&g, &p);
                for band in bands {
                    let reference = exhaustive_candidates(&mut engines[0], band);
                    assert_eq!(
                        reference.first().copied(),
                        pick_merge_scratch(&scratch, band)
                    );
                    let eligible = errs.iter().filter(|&&x| x <= band).count();
                    let mut work = Vec::new();
                    for e in &mut engines {
                        let before = *e.counters();
                        let got = e.merge_candidates(band);
                        assert_eq!(
                            candidate_bits(&got),
                            candidate_bits(&reference),
                            "directed={directed} k={k} band={band}"
                        );
                        let after = *e.counters();
                        work.push((
                            after.merge_pairs_eligible - before.merge_pairs_eligible,
                            after.merge_pair_bounds - before.merge_pair_bounds,
                        ));
                    }
                    assert!(work.iter().all(|&w| w == work[0]), "{work:?}");
                    let pairs = (eligible * eligible.saturating_sub(1) / 2) as u64;
                    assert_eq!(work[0].0, pairs);
                    assert!(work[0].1 <= pairs);
                    pruned |= work[0].1 < pairs;
                    if eligible < 2 {
                        assert!(reference.is_empty());
                        one_eligible |= eligible == 1;
                    } else {
                        let (j1, j2) = last_projection(&mut engines[0]);
                        projection_eligible |= [j1, j2]
                            .iter()
                            .any(|&j| engines[0].merge_scan.eligible.contains(&(j as u32)));
                    }
                }
            }
            // k = 2: both columns are projection colors.
            let mut p2 = Partition::unit(n);
            let ev = p2.split_color(0, |v| v % 3 == 0).expect("splits");
            let mut e = IncrementalDegrees::new(&g, &Partition::unit(n));
            e.apply_split(&g, &p2, &ev);
            e.refresh(&p2, 0.0);
            for band in [0.0, e.max_error(), f64::INFINITY] {
                let reference = exhaustive_candidates(&mut e, band);
                let got = e.merge_candidates(band);
                assert_eq!(candidate_bits(&got), candidate_bits(&reference));
            }
            assert_eq!(e.merge_candidates(f64::INFINITY).len(), 1);
        }
        assert!(projection_eligible && one_eligible && pruned);
    }

    #[test]
    fn merge_scan_keeps_a_pair_whose_key_gap_equals_the_band() {
        // Discrete coloring: color 0 reaches every color from 2 on with
        // weight 2 and color 1 is isolated, so the pair (0, 1) has bound
        // exactly 2 and a key gap of exactly 2 on any other column.
        let n = 10;
        let mut b = GraphBuilder::new_undirected(n);
        for v in 2..n as u32 {
            b.add_edge(0, v, 2.0);
        }
        for (u, v, w) in [
            (2, 3, 3.0),
            (3, 4, 1.0),
            (4, 5, 3.0),
            (5, 6, 2.0),
            (6, 7, 3.0),
        ] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [
            (7, 8, 1.0),
            (8, 9, 3.0),
            (2, 9, 3.0),
            (3, 8, 2.0),
            (5, 9, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let identity: Vec<u32> = (0..n as u32).collect();
        let p = Partition::from_assignment(&identity);
        let mut e = IncrementalDegrees::new(&g, &p);
        e.refresh(&p, 0.0);
        let got = e.merge_candidates(2.0);
        let (j1, _) = last_projection(&mut e);
        assert!(j1 >= 2, "the window column must not be 0 or 1");
        let edge = MergeCandidate {
            winner: 0,
            loser: 1,
            bound: 2.0,
        };
        assert!(got.contains(&edge), "{got:?}");
        assert_eq!(
            candidate_bits(&got),
            candidate_bits(&exhaustive_candidates(&mut e, 2.0))
        );
    }

    #[test]
    fn resident_bytes_counts_merge_scan_scratch() {
        // Every color eligible: the column panel alone keeps k × k spreads
        // resident after the scan.
        let k = 200;
        let g = generators::erdos_renyi_nm(k, 600, 3);
        let identity: Vec<u32> = (0..k as u32).collect();
        let p = Partition::from_assignment(&identity);
        let mut engine = IncrementalDegrees::new(&g, &p);
        engine.refresh(&p, 0.0);
        let before = engine.resident_bytes();
        engine.merge_candidates(f64::INFINITY);
        let after = engine.resident_bytes();
        assert!(
            after >= before + k * k * 8,
            "resident bytes {before} -> {after} miss the merge panel"
        );
    }

    #[test]
    fn beta_weight_growth_invalidates_untouched_rows() {
        // A merge (or node insert) grows the winner's size. With β > 0 the
        // weight of candidates *targeting* the grown color rises, so an
        // untouched row's cached best — pointing elsewhere — can be
        // silently overtaken. Row A below has edges into W and X but none
        // into L, so merging L into W leaves row A untouched by the fold;
        // its best must still flip from X to the grown W.
        //
        // Nodes: A = {0, 1}, W = {2, 3}, X = {4, 5}, L = {6}.
        let mut b = GraphBuilder::new_directed(7);
        b.add_edge(0, 2, 1.5); // (A, W): error 1.5
        b.add_edge(0, 4, 1.6); // (A, X): error 1.6
        let g = b.build();
        let mut p = Partition::from_classes(7, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6]]);
        let beta = 1.0;
        let mut engine = IncrementalDegrees::new(&g, &p);
        engine.refresh(&p, beta);
        // Pre-merge best of row A: (A, X) at 1.6 · |X| = 3.2 over (A, W)
        // at 1.5 · |W| = 3.0.
        let pre = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!((pre.split_color, pre.other_color), (0, 2));
        // Merge L into W: |W| = 3, so (A, W) = 4.5 overtakes.
        let ev = p.merge_colors(1, 3);
        engine.apply_merge(&g, &p, &ev);
        engine.refresh(&p, beta);
        let mut fresh = IncrementalDegrees::new(&g, &p);
        fresh.refresh(&p, beta);
        assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        let post = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!((post.split_color, post.other_color), (0, 1));

        // The node-insert path grows a color the same way.
        let mut engine = IncrementalDegrees::new(&g, &p);
        engine.refresh(&p, beta);
        let first = p.num_nodes() as u32;
        p.insert_node(1);
        engine.apply_node_inserts(&p, first, &[1]);
        engine.refresh(&p, beta);
        let mut fresh = IncrementalDegrees::new(&g2_with_node(&g), &p);
        fresh.refresh(&p, beta);
        assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        let post = engine.pick_witness(&p, 0.0).expect("candidates exist");
        assert_eq!(
            (post.split_color, post.other_color),
            (0, 1),
            "the grown W must overtake X in row A's cached best"
        );
    }

    /// The test graph above with one extra isolated node appended.
    fn g2_with_node(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new_directed(g.num_nodes() + 1);
        for (u, v, w) in g.arcs() {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    #[test]
    fn node_inserts_and_removals_match_fresh_engine() {
        use qsc_graph::GraphDelta;
        for (directed, seed) in [(false, 5u64), (true, 13)] {
            let g = half_weight_graph(30, 120, directed, seed);
            let mut p = Partition::unit(30);
            let mut dense = IncrementalDegrees::new(&g, &p);
            let mut sparse =
                IncrementalDegrees::new_with_storage(&g, &p, 1, StorageMode::Sparse, 0);
            let ev = p.split_color(0, |v| v >= 15).unwrap();
            dense.apply_split(&g, &p, &ev);
            sparse.apply_split(&g, &p, &ev);

            let mut delta = GraphDelta::new(g);
            // Insert two nodes, wire one, remove an existing node (with its
            // edges) and the still-isolated insert.
            let a = delta.insert_node();
            let b = delta.insert_node();
            let first = a;
            p.insert_node(0);
            p.insert_node(1);
            dense.apply_node_inserts(&p, first, &[0, 1]);
            sparse.apply_node_inserts(&p, first, &[0, 1]);

            delta.insert_edge(a, 3, 1.5).unwrap();
            delta.insert_edge(5, a, 2.0).unwrap();
            let victim = 7u32;
            delta.remove_node(victim).unwrap();
            delta.remove_node(b).unwrap();
            let events = delta.drain_events();
            dense.apply_edge_batch(&p, &events);
            sparse.apply_edge_batch(&p, &events);

            let removed_colors = vec![p.color_of(victim), p.color_of(b)];
            let (compacted, remap) = delta.compact_renumber();
            p.apply_node_remap(&remap);
            dense.apply_node_removals(&p, &remap, &removed_colors);
            sparse.apply_node_removals(&p, &remap, &removed_colors);

            assert_eq!(dense.verify_against(&compacted, &p), Ok(()));
            assert_eq!(sparse.verify_against(&compacted, &p), Ok(()));
            dense.refresh(&p, 0.0);
            let mut fresh = IncrementalDegrees::new(&compacted, &p);
            fresh.refresh(&p, 0.0);
            assert_eq!(dense.max_error().to_bits(), fresh.max_error().to_bits());
            assert_eq!(dense.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));
        }
    }

    #[test]
    fn edge_batch_patches_match_compacted_recomputation() {
        use qsc_graph::GraphDelta;
        // Directed and undirected bases, a few splits, then edge batches.
        for directed in [false, true] {
            let g = {
                let mut b = if directed {
                    GraphBuilder::new_directed(8)
                } else {
                    GraphBuilder::new_undirected(8)
                };
                for (u, v, w) in [
                    (0u32, 1u32, 2.0),
                    (1, 2, 1.0),
                    (2, 3, 3.0),
                    (3, 4, 1.0),
                    (4, 5, 2.0),
                    (5, 6, 1.0),
                    (6, 7, 4.0),
                    (0, 7, 1.0),
                    (2, 5, 2.0),
                ] {
                    b.add_edge(u, v, w);
                }
                b.build()
            };
            let mut p = Partition::unit(8);
            let mut engine = IncrementalDegrees::new(&g, &p);
            let ev = p.split_color(0, |v| v >= 4).unwrap();
            engine.apply_split(&g, &p, &ev);

            let mut delta = GraphDelta::new(g);
            delta.insert_edge(0, 3, 2.5).unwrap();
            delta.delete_edge(4, 5).unwrap();
            delta.reweight_edge(6, 7, 1.5).unwrap();
            delta.insert_edge(1, 1, 2.0).unwrap(); // self-loop
            let events = delta.drain_events();
            engine.apply_edge_batch(&p, &events);
            let compacted = delta.compact();
            assert_eq!(engine.verify_against(&compacted, &p), Ok(()));
            // Witness state must agree with a freshly built engine.
            engine.refresh(&p, 0.0);
            let mut fresh = IncrementalDegrees::new(&compacted, &p);
            fresh.refresh(&p, 0.0);
            assert_eq!(engine.max_error().to_bits(), fresh.max_error().to_bits());
            assert_eq!(engine.pick_witness(&p, 0.0), fresh.pick_witness(&p, 0.0));

            // Sparse engines take the same events through tiered rows.
            let mut sparse =
                IncrementalDegrees::new_with_storage(&compacted, &p, 1, StorageMode::Sparse, 0);
            let mut delta2 = GraphDelta::new(compacted);
            delta2.delete_edge(0, 3).unwrap();
            delta2.insert_edge(3, 6, 1.0).unwrap();
            let events = delta2.drain_events();
            sparse.apply_edge_batch(&p, &events);
            let compacted2 = delta2.compact();
            assert_eq!(sparse.verify_against(&compacted2, &p), Ok(()));
        }
    }
}
