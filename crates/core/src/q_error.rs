//! Measuring how (quasi-)stable a coloring is, and maintaining that
//! measurement incrementally while a coloring is refined.
//!
//! For a coloring `P` of a weighted directed graph, the *q-error* of a pair
//! of colors `(P_i, P_j)` in the outgoing direction is
//! `max_{v ∈ P_i} w(v, P_j) − min_{v ∈ P_i} w(v, P_j)`; the incoming
//! direction is defined symmetrically over `w(P_i, v)` for `v ∈ P_j`.
//! A coloring is `q`-stable iff every such error is at most `q`, and stable
//! iff every error is exactly zero.
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
//! # Incremental maintenance invariants
//!
//! `IncrementalDegrees` maintains, between any two calls of
//! [`IncrementalDegrees::apply_split`]:
//!
//! 1. **Accumulators.** For every node `v` and color `j < k`:
//!    `dout[v][j] = w(v, P_j)` and `din[v][j] = w(P_j, v)` — the per-node
//!    per-color weighted degrees. Nodes with no edges into a color hold an
//!    explicit `0.0`, so min/max over a color's members needs no implicit
//!    zero bookkeeping (unlike `DegreeMatrices`, which tracks non-zero
//!    counts instead of dense rows).
//! 2. **Pair summaries.** For every ordered color pair `(i, j)`:
//!    `out_min/out_max[i][j] = min/max_{u ∈ P_i} dout[u][j]` and
//!    `in_min/in_max[i][j] = min/max_{v ∈ P_j} din[v][i]` — numerically
//!    identical to `DegreeMatrices::compute` up to floating-point
//!    associativity (exactly identical for integer-valued weights).
//! 3. **Witness rows.** Per *split-candidate* color `s`, a lazily refreshed
//!    cache row over all entries whose split color is `s` (the out-entries
//!    `(s, ·)` and in-entries `(·, s)`): the row's maximum unweighted error
//!    and its best β-weighted witness candidate. The two caches have
//!    *separate* staleness flags: a split marks error-dirty only the rows
//!    whose entries actually changed — the parent, the child, every color
//!    containing a neighbor of a moved node — while rows whose cached best
//!    merely pointed at the parent (its *size* changed, its errors did
//!    not) go best-dirty only, and a β change alone (β-weighted bests
//!    stale, row maxima β-independent) dirties no error state at all. A
//!    [`IncrementalDegrees::refresh`] + witness pick therefore costs
//!    `O(stale rows · k)`, not `O(k²)`, and
//!    [`IncrementalDegrees::max_error`] stays valid across β changes
//!    without any rescan.
//! 4. **Extremum witnesses and nonzero counts.** Every pair summary entry
//!    also tracks *which* member attains its min/max (or an explicit
//!    "unknown" sentinel) and how many members have a non-zero value.
//!    These never influence entry values — they only decide whether a
//!    one-column member rescan is needed when members change: an entry
//!    whose tracked attainer neither moved nor departed provably keeps its
//!    extremum, and a `min == 0` entry keeps its minimum while any member
//!    value stays exactly zero (the dominant case on sparse graphs, where
//!    ties at zero used to force a rescan storm). Unknown attainers fall
//!    back to the conservative value-equality heuristic.
//!
//! A split `P_c → (P_c, P_child)` updates state as follows. Accumulator
//! columns `c`/`child` change only for in/out-neighbors of the moved nodes
//! (weight conservation: `dout[u][c] + dout[u][child]` is invariant, and
//! symmetrically for `din`). Pair summaries split into three classes:
//! rows/columns of `c` and `child` over the *member* axis are rebuilt by
//! scanning the two colors' members (`O((|P_c| + |P_child|) · k)`); entries
//! `(i, c)`/`(c, j)` over *other* colors' member axes are patched from the
//! touched neighbors, falling back to a one-column rescan only when a
//! touched node was the entry's unique extremum; all remaining entries are
//! untouched by construction. Debug builds cross-check the full state
//! against `DegreeMatrices::compute` after every split
//! ([`IncrementalDegrees::verify_against`]).
//!
//! # Edge-event maintenance (dynamic graphs)
//!
//! Splits are one half of the delta vocabulary; the other is *edge churn*.
//! [`IncrementalDegrees::apply_edge_batch`] patches the same state for a
//! batch of [`EdgeEvent`]s (signed weight changes of logical edges, the
//! currency of `qsc_graph::delta::GraphDelta`) without touching the graph
//! at all: an event `(u, v, Δ)` adds `Δ` to `dout[u][color(v)]` (and to
//! `din[v][color(u)]`, or the mirrored out-entry on undirected graphs),
//! then folds the change into the affected pair-summary entry with exactly
//! the split path's machinery — inline outward extension with attainers,
//! exact lost-extremum detection via the tracked attainer, the `min == 0`
//! zero-member skip rule, and a one-column member rescan only when an
//! extremum was provably lost. Cost per batch:
//! `O(events + touched entries)` plus those rescans — the "O(endpoints'
//! colors + touched entries)" the dynamic-graph maintenance path needs.
//! Witness rows of touched entries go error-dirty, so the next
//! [`IncrementalDegrees::refresh`] re-derives `max_error` and the cached
//! bests; color sizes are untouched, so no β bookkeeping is disturbed.
//! The partition must be unchanged by the batch (`p.num_colors()` equals
//! the engine's color count): graph updates and coloring updates are
//! separate deltas, sequenced by the caller
//! (`crate::rothko::RothkoRun::apply_edge_batch` patches the engine, swaps
//! the graph, and then re-establishes the (q, k) invariant by splitting).
//!
//! # Merge and node-churn maintenance (bidirectional events)
//!
//! Splits and edge events only ever *refine* or *perturb*; two more event
//! kinds complete the bidirectional algebra:
//!
//! * **Merges** ([`IncrementalDegrees::apply_merge`]). The dual of a split:
//!   the loser color's members join the winner, accumulator columns fold
//!   (`dout[u][winner] += dout[u][loser]` for the in-neighbors of the
//!   moved members — `O(touched)`, no other node changes), entries over
//!   other colors' member axes are patched with the split path's exact
//!   lost-extremum machinery, the winner's member axis is rebuilt from the
//!   merged member list, and the last color is relabeled into the freed
//!   slot (`O(touched + k)` row/column copies). Merge *selection*
//!   ([`IncrementalDegrees::pick_merge`]) is the dual of the witness rule:
//!   among all color pairs it picks the one minimizing the **post-merge
//!   q-error bound** — exact for the merged member-axis rows
//!   (`min`/`max` over a union is the `min`/`max` of the parts) and an
//!   upper bound for the folded columns (the spread of a sum is at most
//!   the sum of the spreads) — so a maintained run can coarsen while
//!   provably staying within its error target.
//! * **Node churn** ([`IncrementalDegrees::apply_node_inserts`] /
//!   [`IncrementalDegrees::apply_node_removals`]). The accumulators are
//!   *growable* (fresh isolated nodes append all-zero rows and extend
//!   their color's pair summaries inline with explicit zero attainers) and
//!   *compactable* (after removals — legal only for isolated nodes, whose
//!   incident edges were already deleted by the preceding edge batch — the
//!   node axis is renumbered through the `GraphDelta` remap, extremum
//!   witnesses are remapped, and only the colors that lost members rebuild
//!   their member axes).
//!
//! Both paths preserve the engine-wide determinism contract: the patched
//! state equals a freshly built engine on the resulting graph/partition
//! (bit-for-bit for exactly representable weights), so maintained and
//! fresh-from-checkpoint runs pick identical witnesses *and* identical
//! merge pairs.
//!
//! Two structural specializations keep the engine lean:
//!
//! * **Symmetric graphs.** For undirected graphs the in-direction state is
//!   an exact mirror of the out-direction (`din[v] == dout[v]`,
//!   `in_min/max[i][j] == out_min/max[j][i]`, bit-for-bit, because the CSR
//!   stores both adjacency directions in ascending neighbor order), so the
//!   engine skips it entirely — half the memory and per-split work with
//!   identical results.
//! * **Degrees-only mode** ([`IncrementalDegrees::new_degrees_only`]).
//!   Signature-based refiners (the stable coloring) read accumulator
//!   values and never ask for pair errors; this mode maintains only
//!   invariant 1 — and it does so with *sparse* per-node rows (sorted
//!   non-zero `(color, weight)` pairs) instead of dense `n × k` storage,
//!   making `apply_split` pure `O(deg(moved) · log deg)` and the whole
//!   engine `O(m)` memory, which keeps near-discrete colorings (`k → n`)
//!   affordable in both time and space.
//!
//! # Storage tiers
//!
//! The summary-tracking engine's invariant-1 accumulators themselves come
//! in two layouts, selected per engine by `RothkoConfig::storage`
//! ([`crate::storage::StorageMode`]) and resolved once at construction:
//!
//! * **Dense** — the historical `n × cap` matrices (`dout`/`din`), 8
//!   bytes per (node, color) slot. Unbeatable per probe when the matrix
//!   is cache-resident: a member scan is one strided load per row.
//! * **Sparse** — per-node tiered rows ([`crate::storage::RowRep`]):
//!   sorted nonzero `(color, weight)` vectors at 16 bytes per *nonzero*
//!   entry, with rows that reach half the color capacity promoted to
//!   plain slot arrays (hot rows keep dense probe cost). All apply paths
//!   (split/merge/node-churn/edge-batch, at every shard count), the member
//!   scans, emission reads and `q_report()` go through
//!   [`crate::kernels`]' sparse gather variants, which preserve the
//!   member-order/first-attainer fold contract — so both layouts produce
//!   bit-identical colorings, witnesses and error bits at every thread
//!   count (`tests/tests/storage_modes.rs` pins this over mixed traces).
//!
//! Measured on the `bench_memory` BA ladder (m = 10, k = 200, engine
//! resident bytes, avg row ≈ 20 nonzeros ≈ 330 B/node sparse vs 2 KiB
//! dense):
//!
//! | n    | sparse    | dense      | reduction | step+maintain    |
//! |------|-----------|------------|-----------|------------------|
//! | 10k  | 5.1 MiB   | 21.6 MiB   | 4.2×      | ~1.6× dense      |
//! | 100k | 27 MiB    | 199 MiB    | 7.4×      | **0.4× dense**   |
//! | 1M   | 180 MiB   | 1.93 GiB*  | **11×**   | dense infeasible |
//!
//! (*analytic projection, validated within 5% against real dense engines
//! on the smaller rungs.) The wall-time crossover is why the default
//! `Auto` mode gates on projected dense footprint: below ~256 MiB the
//! dense matrix is what caches were built for and `Auto` resolves dense;
//! past it the sparse tier is both the memory wall's fix *and* faster.
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
//!   folds them in a single member pass.
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
//! compares whole engine snapshots across shard counts, and the per-split
//! debug cross-check ([`IncrementalDegrees::verify_against`]) covers every
//! shard count. The dispatch thresholds
//! ([`IncrementalDegrees::set_parallel_thresholds`]) only trade
//! scheduling, never semantics.
//!
//! # Witness-cache profiling
//!
//! The ROADMAP asked whether a binary heap over the cached row bests beats
//! [`IncrementalDegrees::pick_witness`]'s `O(k)` scan at large `k`. The
//! `witness_cache` micro-benchmark (in `qsc-bench`) measured both on the
//! reference container (1 × 2.7 GHz core), mean per pick:
//!
//! | k      | linear scan | heapify + pop |
//! |--------|-------------|---------------|
//! | 10²    | 0.15 µs     | 2.4 µs        |
//! | 10³    | 1.5 µs      | 21 µs         |
//! | 10⁴    | 15 µs       | 200 µs        |
//!
//! The scan wins by ~13–16× at every size (and the real-engine pick at
//! `k ∈ {10², 10³}` matches the synthetic scan numbers): the α size
//! weighting depends on current color sizes, so a heap would have to be
//! rebuilt per pick, and one `O(k)` heapify plus allocation can never beat
//! one cache-friendly `O(k)` scan. The scan stays.
//!
//! # Lane-kernel hot paths
//!
//! The engine's inner loops route through [`crate::kernels`] (blocked,
//! autovectorization-friendly f64 lane work with *exact sequential scan
//! semantics* — see the module's determinism notes). On the 10k-node
//! Barabási–Albert / 200-color headline run (serial, 1 × 2.7 GHz core,
//! `bench_kernels`), the full step loop went from 0.0426 s pre-kernel to
//! 0.0320 s (1.33×); the isolated member-axis rescan kernel
//! ([`crate::kernels::fold_minmax_row`]) measures 2.4–3.4× over the
//! scalar loop it replaced. What the rewire actually changed, in
//! decreasing order of measured profit:
//!
//! * **Member-axis rescans** fold whole accumulator rows through
//!   `fold_minmax_row` (every shard of a dense axis rebuild).
//! * **Witness-row scans** at β = 0 collapse to one contiguous
//!   max-spread pass ([`crate::kernels::row_err_argmax`]) instead of the
//!   per-column weighted compare.
//! * **Final report**: [`crate::rothko::RothkoRun::finish`] reads
//!   [`IncrementalDegrees::q_report`] off the live summaries (`O(k²)`)
//!   instead of recomputing [`DegreeMatrices`] from the graph
//!   (`O(n·k + m)`) — worth ~4 ms of the 32 ms headline alone.
//! * **Parent-axis repair** batches the queued one-column rescans of one
//!   member axis into a single member pass
//!   ([`crate::kernels::scan_gather_columns`]), loading each accumulator
//!   row once instead of once per column.
//! * **Split apply** walks the touched list with explicit L1 prefetch
//!   ([`crate::kernels::prefetch_read`]) and reads the per-node deltas
//!   positionally from `touched_deltas` (collected index-parallel to the
//!   touched list) instead of re-gathering a per-node array.
//!
//! The strided entry *gather* itself (`scan_gather_column`) is memory
//! bound and gains nothing from lane form (measured 1.0×) — the wins
//! above all come from removing passes or folding them wider, not from
//! prettier arithmetic. Single-core wall-clock on the reference container
//! swings ±15 % with host load; `bench_kernels` warms the frequency
//! governor and reports best-of-5 with raw rounds recorded.

use crate::kernels;
use crate::parallel::{chunk_range, default_threads, SyncSliceMut, ThreadPool};
use crate::partition::{MergeEvent, Partition, SplitEvent};
use crate::similarity::Similarity;
use crate::storage::{ResolvedStorage, RowRep, StorageMode};
use qsc_graph::delta::{EdgeEvent, NodeRemap};
use qsc_graph::{ColumnAdvice, ColumnBuf, Graph, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

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

/// A coarsening candidate produced by [`IncrementalDegrees::pick_merge`]:
/// the color pair whose merge has the smallest provable post-merge q-error
/// bound (the dual of the split-witness rule).
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

/// Read-only min/max access shared by the incremental and from-scratch
/// merge-bound computations, so both evaluate the identical operation
/// sequence (the engine/scratch pick-equivalence contract, as with witness
/// selection).
trait PairMinMax {
    /// `(min, max)` of out-entry `(i, j)`.
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64);
    /// `(min, max)` of in-entry `(i, j)`.
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64);
}

/// Upper bound on the maximum q-error after merging colors `a` and `b`
/// (`a < b`), from the pair summaries alone:
///
/// * merged member-axis rows are exact (`min`/`max` over the union of two
///   member sets is the `min`/`max` of the per-set extrema);
/// * folded columns (`dout[v][a] + dout[v][b]`) use the sum-of-spreads
///   bound `spread(x + y) <= spread(x) + spread(y)`;
/// * the merged self entry combines both rules.
///
/// Returns `f64::INFINITY` as soon as the running bound exceeds `cap`
/// (the early exit never changes which pairs pass a `<= cap` test or the
/// bound reported for passing pairs, so selections stay deterministic) —
/// this is what keeps the coarsening scans cheap: for most pairs the very
/// first columns already blow the budget.
fn merge_bound<V: PairMinMax>(view: &V, k: usize, a: usize, b: usize, cap: f64) -> f64 {
    let mut bound = 0.0f64;
    // Merged self entry (ab, ab), out: `dout[v][a] + dout[v][b]` over the
    // union — per-column union extrema, then the interval sum.
    let (aam, aax) = view.out_mm(a, a);
    let (bam, bax) = view.out_mm(b, a);
    let (abm, abx) = view.out_mm(a, b);
    let (bbm, bbx) = view.out_mm(b, b);
    bound = bound.max((aax.max(bax) + abx.max(bbx)) - (aam.min(bam) + abm.min(bbm)));
    // And the in-direction self entry.
    let (iaam, iaax) = view.in_mm(a, a);
    let (iabm, iabx) = view.in_mm(a, b);
    let (ibam, ibax) = view.in_mm(b, a);
    let (ibbm, ibbx) = view.in_mm(b, b);
    bound = bound.max((iaax.max(iabx) + ibax.max(ibbx)) - (iaam.min(iabm) + ibam.min(ibbm)));
    if bound > cap {
        return f64::INFINITY;
    }
    // Column sweep in blocks of `LANES`: the early exit coarsens to block
    // granularity, which never changes the result (the max-fold only
    // grows, and INFINITY is returned iff the final bound exceeds `cap`),
    // and the branch-free block body lets the per-column loads pipeline
    // and vectorize. The `j ∈ {a, b}` columns are masked to `0.0` instead
    // of skipped — every unmasked contribution is nonnegative (spreads and
    // sums of spreads of nonempty member sets), so `0.0` is the identity
    // under the max-fold.
    let mut j0 = 0;
    while j0 < k {
        let hi = (j0 + kernels::LANES).min(k);
        let mut block_max = 0.0f64;
        for j in j0..hi {
            // Merged row (ab, j): union member axis — exact.
            let (amn, amx) = view.out_mm(a, j);
            let (bmn, bmx) = view.out_mm(b, j);
            let mut c = amx.max(bmx) - amn.min(bmn);
            // Folded column (j, ab): per-member sums — sum of spreads.
            let (jam, jax) = view.out_mm(j, a);
            let (jbm, jbx) = view.out_mm(j, b);
            c = c.max((jax - jam) + (jbx - jbm));
            // In-direction: (j, ab) ranges over the union member axis — exact.
            let (iam, iax) = view.in_mm(j, a);
            let (ibm, ibx) = view.in_mm(j, b);
            c = c.max(iax.max(ibx) - iam.min(ibm));
            // In-direction folded source (ab, j): sums over P_j's members.
            let (ajm, ajx) = view.in_mm(a, j);
            let (bjm, bjx) = view.in_mm(b, j);
            c = c.max((ajx - ajm) + (bjx - bjm));
            let masked = if j == a || j == b { 0.0 } else { c };
            block_max = if masked > block_max {
                masked
            } else {
                block_max
            };
        }
        bound = bound.max(block_max);
        if bound > cap {
            return f64::INFINITY;
        }
        j0 = hi;
    }
    bound
}

/// Scan all color pairs for the merge with the smallest post-merge bound
/// that stays at or below `max_bound`. Ascending `(a, b)` iteration with a
/// strict improvement test keeps the lexicographically smallest pair on
/// ties — the deterministic dual of the witness tie-break. The running
/// best tightens the per-pair evaluation cap (branch-and-bound; ties at
/// the cap still evaluate fully, so the selection equals the exhaustive
/// scan's).
fn pick_merge_view<V: PairMinMax>(view: &V, k: usize, max_bound: f64) -> Option<MergeCandidate> {
    let mut best: Option<MergeCandidate> = None;
    for a in 0..k {
        for b in (a + 1)..k {
            let cap = best.as_ref().map_or(max_bound, |c| c.bound.min(max_bound));
            let bound = merge_bound(view, k, a, b, cap);
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
    row: u32,
    col: u32,
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
#[derive(Debug)]
pub struct IncrementalDegrees {
    n: usize,
    k: usize,
    /// Column capacity (stride) of the accumulators and matrices; grows
    /// geometrically as colors are added.
    cap: usize,
    /// `dout[v * cap + j] = w(v, P_j)` (dense rows; dense-storage summary
    /// mode only — empty when `sparse_accum`).
    dout: Vec<f64>,
    /// `din[v * cap + j] = w(P_j, v)` (dense rows; dense-storage summary
    /// mode only — empty when `sparse_accum`).
    din: Vec<f64>,
    /// Tiered accumulator rows ([`RowRep`]) — the storage of the
    /// degrees-only mode *and* of sparse-storage summary engines: per
    /// node, sorted non-zero `(color, weight)` pairs, with hot rows
    /// promoted to a dense slot tier (summary mode only; degrees-only
    /// rows never promote, preserving their `O(deg(v))` bound).
    /// `O(deg(v))` per node instead of a dense `k`-column row, which
    /// keeps near-discrete colorings (`k → n`) and large sparse graphs
    /// at `O(m)` memory instead of `O(n·k)`.
    sparse_out: Vec<RowRep>,
    sparse_in: Vec<RowRep>,
    /// True when the accumulators live in `sparse_out`/`sparse_in`
    /// (degrees-only engines and sparse-storage summary engines); false
    /// when they live in the dense `dout`/`din` matrices. Pure storage —
    /// every maintained *value* is bit-identical between the two.
    sparse_accum: bool,
    /// Whether sparse rows may promote to their dense tier (summary-mode
    /// sparse engines; degrees-only engines never promote). The hint
    /// passed to [`RowRep::add`] is the live color count `k` when
    /// enabled, `0` otherwise — see [`Self::promote_k`].
    promote: bool,
    /// `out_min/out_max[i * cap + j]` over `u ∈ P_i` of `dout[u][j]`.
    out_min: Vec<f64>,
    out_max: Vec<f64>,
    /// `in_min/in_max[i * cap + j]` over `v ∈ P_j` of `din[v][i]`.
    in_min: Vec<f64>,
    in_max: Vec<f64>,
    /// Extremum witnesses: `out_min_arg[i * cap + j]` is a member of `P_i`
    /// attaining `out_min[i * cap + j]` (and so on), or [`NO_ARG`] when the
    /// attainer is unknown. Splits consult these to decide whether a pair
    /// summary actually lost its extremum — an exact `O(1)` test that
    /// replaces the tie-prone "value equals extremum" heuristic and its
    /// rescan storm on integer-weighted graphs. Witness choice never
    /// affects entry *values* (a rescan recomputes the same exact min/max a
    /// skipped rescan preserves), so results stay bit-identical.
    out_min_arg: Vec<u32>,
    out_max_arg: Vec<u32>,
    in_min_arg: Vec<u32>,
    in_max_arg: Vec<u32>,
    /// Per-entry nonzero-member counts: `out_nz[i * cap + j]` is the number
    /// of members of `P_i` with `dout[u][j] != 0.0` (and `in_nz[i * cap +
    /// j]` the members of `P_j` with `din[v][i] != 0.0`). A `min == 0.0`
    /// entry whose count stays below the color size provably keeps its
    /// minimum when members depart — the dominant skip rule on sparse
    /// graphs, where almost every pair summary has zero-valued members.
    out_nz: Vec<u32>,
    in_nz: Vec<u32>,
    /// Whether the graph is undirected (stored as symmetric arcs). The
    /// in-direction state is then an exact mirror of the out-direction
    /// (`din[v] == dout[v]` and `in_min/max[i][j] == out_min/max[j][i]`,
    /// including floating-point operation order, since the CSR stores both
    /// adjacency directions in ascending neighbor order), so the engine
    /// skips it entirely: half the memory, half the per-split work,
    /// bit-identical results.
    symmetric: bool,
    /// Whether pair summaries and the witness cache are maintained. The
    /// degrees-only mode (`new_degrees_only`) keeps just the accumulators,
    /// which is all signature-based refiners like the stable coloring need;
    /// it makes `apply_split` pure `O(deg(moved))` and skips the `O(k²)`
    /// matrix storage entirely.
    track_summaries: bool,
    /// β exponent used by the last [`Self::refresh`]; negative values void
    /// the best-pointed-at-parent invalidation shortcut (shrinking a target
    /// color then *grows* candidate weights), so splits dirty every row's
    /// cached best.
    last_beta: f64,
    /// Witness-row cache (see module docs, invariant 3). The two staleness
    /// flags are split because they have different triggers: `row_err_dirty`
    /// means the row's *entries* changed (max error and best both stale),
    /// while `row_best_dirty` alone means only the cached β-weighted best is
    /// stale (a color size or β itself changed) — `row_max_err` is
    /// β-independent, so a β-only rebuild skips the error bookkeeping
    /// entirely and [`Self::max_error`] stays valid across β changes.
    row_max_err: Vec<f64>,
    row_best: Vec<Option<RowBest>>,
    row_err_dirty: Vec<bool>,
    row_best_dirty: Vec<bool>,
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
    pool: Arc<ThreadPool>,
    /// Per-shard scratch, one per pool slot (so at least one).
    shard_scratch: Vec<ShardScratch>,
    /// Parallel-dispatch thresholds (see [`Self::set_parallel_thresholds`]).
    par_min_touched: usize,
    par_min_scan_work: usize,
    /// Reusable per-split scratch lists (queued rescans per direction, and
    /// the refresh's stale-row list) — kept on the engine so the split
    /// path stays allocation-free.
    entry_scratch_out: Vec<(u32, u32)>,
    entry_scratch_in: Vec<(u32, u32)>,
    dirty_scratch: Vec<u32>,
    /// Edge-batch scratch: per-direction patched-entry records and their
    /// entry-index → record-slot maps, plus the per-(node, column)
    /// combined-delta lists (capacity reused across batches).
    edge_patches_out: Vec<EdgeEntryPatch>,
    edge_patches_in: Vec<EdgeEntryPatch>,
    edge_slot_out: HashMap<usize, usize>,
    edge_slot_in: HashMap<usize, usize>,
    edge_acc_out: Vec<(NodeId, u32, f64)>,
    edge_acc_in: Vec<(NodeId, u32, f64)>,
    edge_acc_slot_out: HashMap<(NodeId, u32), usize>,
    edge_acc_slot_in: HashMap<(NodeId, u32), usize>,
    /// Per-chunk `(nodes, chunk-local deltas)` lists of the chunked
    /// touched collection (capacity reused across splits).
    chunk_out: Vec<(Vec<NodeId>, Vec<f64>)>,
    /// Merge-fold capture lists (out and in direction): `(node, old, new)`
    /// winner-column values of the touched nodes, recorded before the
    /// relabel so entry patches can run in the post-relabel id space
    /// (capacity reused across merges).
    merge_scratch: Vec<(NodeId, f64, f64)>,
    merge_scratch_in: Vec<(NodeId, f64, f64)>,
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

/// The engine's complete *logical* state, captured by
/// [`IncrementalDegrees::snapshot`] and restored bit-exactly by
/// [`IncrementalDegrees::from_snapshot`] — the persistence layer's view
/// of the engine.
///
/// What is **included**: the accumulators (exact `f64` bits, tight
/// `n × k` for dense engines, columnar tiered rows for sparse ones), the
/// pair-summary min/max matrices with their extremum witnesses and
/// nonzero-member counts (tight `k × k`), and the mode flags + `last_beta`.
/// The nonzero counts are semantic (they drive the dominant rescan-skip
/// rule), so they are serialized exactly rather than recomputed.
///
/// What is deliberately **excluded** (derivable, so restoring it would
/// only bloat checkpoints): the witness-row caches (`row_max_err` /
/// `row_best`), which a restored engine marks all-dirty — the next
/// [`IncrementalDegrees::refresh`] recomputes them from the summary
/// entries, a pure function, so the recomputed values are bit-identical
/// to the writer's; every per-event scratch buffer; and the thread pool
/// (rebuilt from the restore-time thread count — the determinism
/// contract makes results independent of it).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Node count.
    pub n: usize,
    /// Live color count.
    pub k: usize,
    /// Whether the graph is undirected (in-direction state omitted — it
    /// mirrors the out direction exactly; see the module docs).
    pub symmetric: bool,
    /// Whether pair summaries are maintained (false for degrees-only
    /// engines).
    pub track_summaries: bool,
    /// Whether the accumulators are tiered rows (true) or dense matrices
    /// (false).
    pub sparse_accum: bool,
    /// Whether sparse rows may promote (always `track_summaries &&
    /// sparse_accum`; recorded for validation).
    pub promote: bool,
    /// β exponent of the last refresh (voids the best-pointed-at-parent
    /// shortcut when negative; see the field docs).
    pub last_beta: f64,
    /// Dense out-accumulators, tight `n × k` row-major (empty when
    /// `sparse_accum`). A [`ColumnBuf`] so a mapped-layout checkpoint
    /// restore can hand the plane in as a borrowed view of the file;
    /// [`IncrementalDegrees::from_snapshot`] reads it exactly once.
    pub dout: ColumnBuf<f64>,
    /// Dense in-accumulators (empty when `sparse_accum` or `symmetric`).
    pub din: ColumnBuf<f64>,
    /// Tiered out rows (empty when `!sparse_accum`).
    pub rows_out: RowsSnapshot,
    /// Tiered in rows (empty when `!sparse_accum` or `symmetric`).
    pub rows_in: RowsSnapshot,
    /// Pair-summary matrices, tight `k × k` row-major (empty when
    /// `!track_summaries`; the `in_*` halves also when `symmetric`).
    pub out_min: Vec<f64>,
    /// See [`Self::out_min`].
    pub out_max: Vec<f64>,
    /// See [`Self::out_min`].
    pub in_min: Vec<f64>,
    /// See [`Self::out_min`].
    pub in_max: Vec<f64>,
    /// Extremum witnesses, tight `k × k` ([`NO_ARG`] = unknown attainer).
    pub out_min_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub out_max_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub in_min_arg: Vec<u32>,
    /// See [`Self::out_min_arg`].
    pub in_max_arg: Vec<u32>,
    /// Nonzero-member counts, tight `k × k`.
    pub out_nz: Vec<u32>,
    /// See [`Self::out_nz`].
    pub in_nz: Vec<u32>,
}

/// Per-shard scratch of the data-parallel phases (one per pool slot; a
/// one-shard phase uses the first).
#[derive(Clone, Debug, Default)]
struct ShardScratch {
    /// Self-validating `color -> record index` slots (mirrors `color_slot`).
    slot: Vec<u32>,
    /// Per-touched-color partial aggregates produced by this shard.
    records: Vec<ShardRecord>,
    /// Member-axis min/max rows (4 × cap), their witnesses, and the
    /// per-column nonzero counts (2 × cap). The grouped entry rescan
    /// reuses the first two rows.
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

/// A read-only view of the pair-summary matrices, so the witness-refresh
/// scans can run from worker threads while the caller holds the row caches
/// mutably.
struct SummaryView<'a> {
    k: usize,
    cap: usize,
    symmetric: bool,
    out_min: &'a [f64],
    out_max: &'a [f64],
    in_min: &'a [f64],
    in_max: &'a [f64],
}

impl PairMinMax for SummaryView<'_> {
    #[inline]
    fn out_mm(&self, i: usize, j: usize) -> (f64, f64) {
        let idx = i * self.cap + j;
        (self.out_min[idx], self.out_max[idx])
    }

    #[inline]
    fn in_mm(&self, i: usize, j: usize) -> (f64, f64) {
        if self.symmetric {
            return self.out_mm(j, i);
        }
        let idx = i * self.cap + j;
        (self.in_min[idx], self.in_max[idx])
    }
}

impl PairMinMax for DegreeMatrices {
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
}

/// The merge pick over from-scratch [`DegreeMatrices`] — the reference-mode
/// counterpart of [`IncrementalDegrees::pick_merge`], sharing the bound
/// computation operation-for-operation so the two paths select identical
/// pairs whenever the matrices are numerically identical.
pub fn pick_merge_scratch(m: &DegreeMatrices, max_bound: f64) -> Option<MergeCandidate> {
    if m.k < 2 {
        return None;
    }
    pick_merge_view(m, m.k, max_bound)
}

impl SummaryView<'_> {
    #[inline]
    fn out_error(&self, i: usize, j: usize) -> f64 {
        self.out_max[i * self.cap + j] - self.out_min[i * self.cap + j]
    }

    #[inline]
    fn in_error(&self, i: usize, j: usize) -> f64 {
        if self.symmetric {
            return self.out_error(j, i);
        }
        self.in_max[i * self.cap + j] - self.in_min[i * self.cap + j]
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
                &self.out_max[base..base + self.k],
                &self.out_min[base..base + self.k],
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
        if self.axis.len() < 4 * cap {
            self.axis.resize(4 * cap, 0.0);
            self.axis_arg.resize(4 * cap, NO_ARG);
            self.axis_nz.resize(2 * cap, 0);
        }
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
        // The entry loses its extremum only when its tracked attainer
        // moves strictly inward (an exact test — ties at the extremum do
        // not force a rescan); an unknown attainer falls back to the
        // conservative batch-start-extremum heuristic. The attainer is the
        // node this fold already extended the entry to, if any, else the
        // batch-start one. The finalize step may still cancel a flagged
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
        if new < old {
            if old == orig_max && (arg_max == NO_ARG || arg_max == u) {
                r.rescan_max = true;
            }
        } else if new > old && old == orig_min && (arg_min == NO_ARG || arg_min == u) {
            r.rescan_min = true;
        }
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

impl Clone for IncrementalDegrees {
    /// Clones share no thread pool: each clone gets its own (same slot
    /// count), since a pool's fork-join handshake serves one engine at a
    /// time.
    fn clone(&self) -> Self {
        IncrementalDegrees {
            n: self.n,
            k: self.k,
            cap: self.cap,
            dout: self.dout.clone(),
            din: self.din.clone(),
            sparse_out: self.sparse_out.clone(),
            sparse_in: self.sparse_in.clone(),
            sparse_accum: self.sparse_accum,
            promote: self.promote,
            out_min: self.out_min.clone(),
            out_max: self.out_max.clone(),
            in_min: self.in_min.clone(),
            in_max: self.in_max.clone(),
            out_min_arg: self.out_min_arg.clone(),
            out_max_arg: self.out_max_arg.clone(),
            in_min_arg: self.in_min_arg.clone(),
            in_max_arg: self.in_max_arg.clone(),
            out_nz: self.out_nz.clone(),
            in_nz: self.in_nz.clone(),
            symmetric: self.symmetric,
            track_summaries: self.track_summaries,
            last_beta: self.last_beta,
            row_max_err: self.row_max_err.clone(),
            row_best: self.row_best.clone(),
            row_err_dirty: self.row_err_dirty.clone(),
            row_best_dirty: self.row_best_dirty.clone(),
            node_mark: self.node_mark.clone(),
            mark_gen: self.mark_gen,
            touched_nodes: self.touched_nodes.clone(),
            touched_deltas: self.touched_deltas.clone(),
            color_slot: self.color_slot.clone(),
            touched_colors: self.touched_colors.clone(),
            pool: Arc::new(ThreadPool::new(self.pool.slots())),
            shard_scratch: self.shard_scratch.clone(),
            par_min_touched: self.par_min_touched,
            par_min_scan_work: self.par_min_scan_work,
            entry_scratch_out: self.entry_scratch_out.clone(),
            entry_scratch_in: self.entry_scratch_in.clone(),
            dirty_scratch: self.dirty_scratch.clone(),
            edge_patches_out: self.edge_patches_out.clone(),
            edge_patches_in: self.edge_patches_in.clone(),
            edge_slot_out: self.edge_slot_out.clone(),
            edge_slot_in: self.edge_slot_in.clone(),
            edge_acc_out: self.edge_acc_out.clone(),
            edge_acc_in: self.edge_acc_in.clone(),
            edge_acc_slot_out: self.edge_acc_slot_out.clone(),
            edge_acc_slot_in: self.edge_acc_slot_in.clone(),
            chunk_out: self.chunk_out.clone(),
            merge_scratch: self.merge_scratch.clone(),
            merge_scratch_in: self.merge_scratch_in.clone(),
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
        Self::with_mode(g, p, true, default_threads(), ResolvedStorage::Dense)
    }

    /// Build the full engine with an explicit worker count for the
    /// data-parallel phases. `threads <= 1` runs every phase as one shard
    /// on the calling thread. Results are bit-identical for every thread
    /// count — the shards reduce with exact min/max/or merges (see the
    /// module docs).
    pub fn new_with_threads(g: &Graph, p: &Partition, threads: usize) -> Self {
        Self::with_mode(g, p, true, threads, ResolvedStorage::Dense)
    }

    /// Build the full engine with an explicit accumulator [`StorageMode`]
    /// (the `RothkoConfig::storage` knob). `Auto` resolves here, from the
    /// graph's size and density and `color_hint` — the color budget the
    /// refinement is expected to reach (the engine pre-reserves capacity
    /// for it, so the projected dense footprint is computed against the
    /// same capacity a dense engine would actually allocate). All storage
    /// modes maintain bit-identical state — sparse storage trades access
    /// constants for `O(n + m)` instead of `O(n·k)` accumulator memory
    /// (see the "Tiered accumulator storage" module notes).
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
        Self::with_mode(g, p, true, threads, resolved)
    }

    /// Build a degrees-only engine: per-node *sparse* accumulator rows
    /// maintained in `O(deg(moved))` per split, no `O(k²)` pair summaries
    /// or witness cache, and `O(m)` memory instead of `O(n·k)`. This is
    /// what signature-based refiners (the stable coloring) use — they read
    /// accumulator values and never ask for errors, so near-discrete
    /// colorings (`k → n`) stay affordable in both time and memory.
    pub fn new_degrees_only(g: &Graph, p: &Partition) -> Self {
        Self::with_mode(g, p, false, 1, ResolvedStorage::Sparse)
    }

    fn with_mode(
        g: &Graph,
        p: &Partition,
        track_summaries: bool,
        threads: usize,
        storage: ResolvedStorage,
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(p.num_nodes(), n, "partition does not match graph");
        let symmetric = !g.is_directed();
        let k = p.num_colors();
        let cap = k.next_power_of_two().max(4);
        let sparse_accum = !track_summaries || storage == ResolvedStorage::Sparse;
        let mat_cap = if track_summaries { cap } else { 0 };
        let dense_cap = if track_summaries && !sparse_accum {
            cap
        } else {
            0
        };
        let in_cap = if symmetric { 0 } else { dense_cap };
        let in_mat_cap = if symmetric { 0 } else { mat_cap };
        // Degrees-only engines have no phase worth a worker thread.
        let pool = Arc::new(ThreadPool::new(if track_summaries { threads } else { 1 }));
        let mut engine = IncrementalDegrees {
            n,
            k,
            cap,
            dout: vec![0.0; n * dense_cap],
            din: vec![0.0; n * in_cap],
            sparse_out: Vec::new(),
            sparse_in: Vec::new(),
            sparse_accum,
            promote: track_summaries && sparse_accum,
            out_min: vec![0.0; mat_cap * mat_cap],
            out_max: vec![0.0; mat_cap * mat_cap],
            in_min: vec![0.0; in_mat_cap * in_mat_cap],
            in_max: vec![0.0; in_mat_cap * in_mat_cap],
            out_min_arg: vec![NO_ARG; mat_cap * mat_cap],
            out_max_arg: vec![NO_ARG; mat_cap * mat_cap],
            in_min_arg: vec![NO_ARG; in_mat_cap * in_mat_cap],
            in_max_arg: vec![NO_ARG; in_mat_cap * in_mat_cap],
            out_nz: vec![0; mat_cap * mat_cap],
            in_nz: vec![0; in_mat_cap * in_mat_cap],
            symmetric,
            track_summaries,
            last_beta: 0.0,
            row_max_err: vec![0.0; mat_cap],
            row_best: vec![None; mat_cap],
            row_err_dirty: vec![true; mat_cap],
            row_best_dirty: vec![true; mat_cap],
            node_mark: vec![0; n],
            mark_gen: 0,
            touched_nodes: Vec::new(),
            touched_deltas: Vec::new(),
            color_slot: vec![0; mat_cap],
            touched_colors: Vec::new(),
            shard_scratch: vec![ShardScratch::default(); pool.slots()],
            pool,
            par_min_touched: PAR_MIN_TOUCHED,
            par_min_scan_work: PAR_MIN_SCAN_WORK,
            entry_scratch_out: Vec::new(),
            entry_scratch_in: Vec::new(),
            dirty_scratch: Vec::new(),
            edge_patches_out: Vec::new(),
            edge_patches_in: Vec::new(),
            edge_slot_out: HashMap::new(),
            edge_slot_in: HashMap::new(),
            edge_acc_out: Vec::new(),
            edge_acc_in: Vec::new(),
            edge_acc_slot_out: HashMap::new(),
            edge_acc_slot_in: HashMap::new(),
            chunk_out: Vec::new(),
            merge_scratch: Vec::new(),
            merge_scratch_in: Vec::new(),
        };

        // Whole-axis initialization sweeps every arc front to back; on a
        // mapped graph let the kernel stream the cold pages in ahead of
        // the scan instead of faulting them one miss at a time.
        g.advise(ColumnAdvice::Sequential);
        if sparse_accum {
            // Tiered accumulator rows: per node, sum the arc weights by
            // color in arc order (a stable sort preserves that order within
            // a color, so the sums are bit-identical to the dense
            // accumulation) and keep the non-zero pairs; summary engines
            // promote rows that already meet the density bar.
            let promote_k = if engine.promote { k } else { 0 };
            engine.sparse_out = (0..n as NodeId)
                .map(|v| RowRep::from_sorted(sparse_row_from_arcs(g.out_arcs(v), p), promote_k))
                .collect();
            if !symmetric {
                engine.sparse_in = (0..n as NodeId)
                    .map(|v| RowRep::from_sorted(sparse_row_from_arcs(g.in_arcs(v), p), promote_k))
                    .collect();
            }
        } else {
            // Dense accumulators: one sweep over each adjacency direction.
            let (offs, tgts, wts) = g.out_adjacency();
            for v in 0..n {
                let base = v * cap;
                for e in offs[v]..offs[v + 1] {
                    engine.dout[base + p.color_of(tgts[e]) as usize] += wts[e];
                }
            }
            if !symmetric {
                let (offs, srcs, wts) = g.in_adjacency();
                for v in 0..n {
                    let base = v * cap;
                    for e in offs[v]..offs[v + 1] {
                        engine.din[base + p.color_of(srcs[e]) as usize] += wts[e];
                    }
                }
            }
        }
        if track_summaries {
            // Pair summaries: scan each color's members once.
            for s in 0..k {
                engine.recompute_color_axis(p, s);
            }
        }
        engine
    }

    /// Capture the engine's complete logical state for persistence.
    ///
    /// The snapshot holds *tight* columns — `n × k` accumulators and
    /// `k × k` summaries with the capacity padding stripped — so the
    /// on-disk size tracks the live state, not the power-of-two stride.
    /// [`Self::from_snapshot`] re-pads on load; the stride itself is
    /// unobservable (it is recomputed from `k` the same way
    /// construction computes it), so round-tripping through a snapshot
    /// is bit-exact. See [`EngineSnapshot`] for what is included vs.
    /// recomputed.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        fn tight<T: Copy>(padded: &[T], rows: usize, cols: usize, stride: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(rows * cols);
            for r in 0..rows {
                out.extend_from_slice(&padded[r * stride..r * stride + cols]);
            }
            out
        }
        fn rows_snapshot(rows: &[RowRep]) -> RowsSnapshot {
            if rows.is_empty() {
                // Absent direction (dense storage, symmetric in-side, or
                // an empty graph): all columns empty, `is_present` false.
                return RowsSnapshot::default();
            }
            let mut snap = RowsSnapshot {
                offsets: Vec::with_capacity(rows.len() + 1),
                colors: Vec::new(),
                weights: Vec::new(),
                dense: Vec::with_capacity(rows.len()),
            };
            snap.offsets.push(0);
            let mut buf = Vec::new();
            for row in rows {
                buf.clear();
                row.push_nonzero_entries(&mut buf);
                for &(c, w) in &buf {
                    snap.colors.push(c);
                    snap.weights.push(w);
                }
                snap.offsets.push(snap.colors.len());
                snap.dense.push(row.is_dense());
            }
            snap
        }
        let (n, k, cap) = (self.n, self.k, self.cap);
        EngineSnapshot {
            n,
            k,
            symmetric: self.symmetric,
            track_summaries: self.track_summaries,
            sparse_accum: self.sparse_accum,
            promote: self.promote,
            last_beta: self.last_beta,
            dout: tight(&self.dout, if self.dout.is_empty() { 0 } else { n }, k, cap).into(),
            din: tight(&self.din, if self.din.is_empty() { 0 } else { n }, k, cap).into(),
            rows_out: rows_snapshot(&self.sparse_out),
            rows_in: rows_snapshot(&self.sparse_in),
            out_min: tight(
                &self.out_min,
                if self.out_min.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            out_max: tight(
                &self.out_max,
                if self.out_max.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            in_min: tight(
                &self.in_min,
                if self.in_min.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            in_max: tight(
                &self.in_max,
                if self.in_max.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            out_min_arg: tight(
                &self.out_min_arg,
                if self.out_min_arg.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            out_max_arg: tight(
                &self.out_max_arg,
                if self.out_max_arg.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            in_min_arg: tight(
                &self.in_min_arg,
                if self.in_min_arg.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            in_max_arg: tight(
                &self.in_max_arg,
                if self.in_max_arg.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            out_nz: tight(
                &self.out_nz,
                if self.out_nz.is_empty() { 0 } else { k },
                k,
                cap,
            ),
            in_nz: tight(
                &self.in_nz,
                if self.in_nz.is_empty() { 0 } else { k },
                k,
                cap,
            ),
        }
    }

    /// Rebuild an engine from a snapshot, bit-identical to the one that
    /// produced it.
    ///
    /// The capacity stride, scratch buffers, and thread pool are
    /// reconstructed exactly as the engine constructor would build them;
    /// the witness-row caches start all-dirty and the first refresh
    /// recomputes them deterministically. `threads` may differ from the
    /// writer's — results do not depend on it.
    ///
    /// # Panics
    /// On snapshots whose column lengths are inconsistent with their
    /// header fields. The persistence layer validates untrusted bytes
    /// before constructing a snapshot; this is a backstop against
    /// programmer error, not a parser.
    #[must_use]
    pub fn from_snapshot(snap: &EngineSnapshot, threads: usize) -> Self {
        let EngineSnapshot {
            n,
            k,
            symmetric,
            track_summaries,
            sparse_accum,
            promote,
            ..
        } = *snap;
        assert_eq!(
            promote,
            track_summaries && sparse_accum,
            "snapshot promote flag inconsistent with its mode flags"
        );
        let cap = k.next_power_of_two().max(4);
        let mat_cap = if track_summaries { cap } else { 0 };
        let dense_cap = if track_summaries && !sparse_accum {
            cap
        } else {
            0
        };
        let in_cap = if symmetric { 0 } else { dense_cap };
        let in_mat_cap = if symmetric { 0 } else { mat_cap };
        let pool = Arc::new(ThreadPool::new(if track_summaries { threads } else { 1 }));

        // Re-pad a tight rows×cols column back into the full strided
        // buffer construction would allocate (`alloc_rows × stride`;
        // matrices are `cap × cap`, so rows `k..cap` exist and hold
        // background values — splits that grow `k` within capacity index
        // them before writing). `alloc_rows == 0` marks an absent buffer.
        fn pad<T: Copy>(
            tight: &[T],
            rows: usize,
            cols: usize,
            alloc_rows: usize,
            stride: usize,
            fill: T,
        ) -> Vec<T> {
            if alloc_rows == 0 {
                assert!(
                    tight.is_empty(),
                    "snapshot column for absent matrix is non-empty"
                );
                return Vec::new();
            }
            assert_eq!(tight.len(), rows * cols, "snapshot column length mismatch");
            let mut out = vec![fill; alloc_rows * stride];
            for r in 0..rows {
                out[r * stride..r * stride + cols]
                    .copy_from_slice(&tight[r * cols..(r + 1) * cols]);
            }
            out
        }
        fn rows_restore(snap: &RowsSnapshot, n: usize, promote_k: usize) -> Vec<RowRep> {
            if !snap.is_present() {
                assert_eq!(
                    n, 0,
                    "row snapshot absent for a direction that needs {n} rows"
                );
                return Vec::new();
            }
            assert_eq!(
                snap.offsets.len(),
                n + 1,
                "row snapshot offsets length mismatch"
            );
            assert_eq!(
                snap.dense.len(),
                n,
                "row snapshot tier-flag length mismatch"
            );
            assert_eq!(
                *snap.offsets.last().unwrap(),
                snap.colors.len(),
                "row snapshot entry count mismatch"
            );
            assert_eq!(
                snap.colors.len(),
                snap.weights.len(),
                "row snapshot column mismatch"
            );
            (0..n)
                .map(|v| {
                    let (lo, hi) = (snap.offsets[v], snap.offsets[v + 1]);
                    let entries: Vec<(u32, f64)> = snap.colors[lo..hi]
                        .iter()
                        .copied()
                        .zip(snap.weights[lo..hi].iter().copied())
                        .collect();
                    if snap.dense[v] {
                        RowRep::dense_from_sorted(&entries, promote_k)
                    } else {
                        RowRep::Sparse(entries)
                    }
                })
                .collect()
        }

        let promote_k = if promote { k } else { 0 };
        // Mapped-restore path: the planes are read exactly once below,
        // front to back — let the pages stream in ahead of the copy.
        snap.dout.advise(ColumnAdvice::Sequential);
        snap.din.advise(ColumnAdvice::Sequential);
        IncrementalDegrees {
            n,
            k,
            cap,
            dout: pad(
                &snap.dout,
                n,
                k,
                if dense_cap > 0 { n } else { 0 },
                cap,
                0.0,
            ),
            din: pad(&snap.din, n, k, if in_cap > 0 { n } else { 0 }, cap, 0.0),
            sparse_out: rows_restore(&snap.rows_out, if sparse_accum { n } else { 0 }, promote_k),
            sparse_in: rows_restore(
                &snap.rows_in,
                if sparse_accum && !symmetric { n } else { 0 },
                promote_k,
            ),
            sparse_accum,
            promote,
            out_min: pad(&snap.out_min, k, k, mat_cap, cap, 0.0),
            out_max: pad(&snap.out_max, k, k, mat_cap, cap, 0.0),
            in_min: pad(&snap.in_min, k, k, in_mat_cap, cap, 0.0),
            in_max: pad(&snap.in_max, k, k, in_mat_cap, cap, 0.0),
            out_min_arg: pad(&snap.out_min_arg, k, k, mat_cap, cap, NO_ARG),
            out_max_arg: pad(&snap.out_max_arg, k, k, mat_cap, cap, NO_ARG),
            in_min_arg: pad(&snap.in_min_arg, k, k, in_mat_cap, cap, NO_ARG),
            in_max_arg: pad(&snap.in_max_arg, k, k, in_mat_cap, cap, NO_ARG),
            out_nz: pad(&snap.out_nz, k, k, mat_cap, cap, 0),
            in_nz: pad(&snap.in_nz, k, k, in_mat_cap, cap, 0),
            symmetric,
            track_summaries,
            last_beta: snap.last_beta,
            row_max_err: vec![0.0; mat_cap],
            row_best: vec![None; mat_cap],
            row_err_dirty: vec![true; mat_cap],
            row_best_dirty: vec![true; mat_cap],
            node_mark: vec![0; n],
            mark_gen: 0,
            touched_nodes: Vec::new(),
            touched_deltas: Vec::new(),
            color_slot: vec![0; mat_cap],
            touched_colors: Vec::new(),
            shard_scratch: vec![ShardScratch::default(); pool.slots()],
            pool,
            par_min_touched: PAR_MIN_TOUCHED,
            par_min_scan_work: PAR_MIN_SCAN_WORK,
            entry_scratch_out: Vec::new(),
            entry_scratch_in: Vec::new(),
            dirty_scratch: Vec::new(),
            edge_patches_out: Vec::new(),
            edge_patches_in: Vec::new(),
            edge_slot_out: HashMap::new(),
            edge_slot_in: HashMap::new(),
            edge_acc_out: Vec::new(),
            edge_acc_in: Vec::new(),
            edge_acc_slot_out: HashMap::new(),
            edge_acc_slot_in: HashMap::new(),
            chunk_out: Vec::new(),
            merge_scratch: Vec::new(),
            merge_scratch_in: Vec::new(),
        }
    }

    /// Promotion hint for [`RowRep::add`]: the live color count when
    /// tiering is active, `0` (never promote) otherwise.
    #[inline]
    fn promote_k(&self) -> usize {
        if self.promote {
            self.k
        } else {
            0
        }
    }

    /// Add `delta` to the maintained accumulator value, returning
    /// `(old, new)` — the one write primitive shared by every event path,
    /// identical arithmetic in both storage tiers.
    #[inline]
    fn accum_add(&mut self, outgoing: bool, v: NodeId, col: usize, delta: f64) -> (f64, f64) {
        if self.sparse_accum {
            let promote_k = self.promote_k();
            let rows = if outgoing || self.symmetric {
                &mut self.sparse_out
            } else {
                &mut self.sparse_in
            };
            rows[v as usize].add(col as u32, delta, promote_k)
        } else {
            let acc = if outgoing || self.symmetric {
                &mut self.dout
            } else {
                &mut self.din
            };
            let slot = &mut acc[v as usize * self.cap + col];
            let old = *slot;
            let new = old + delta;
            *slot = new;
            (old, new)
        }
    }

    /// Heap bytes resident in the engine's long-lived state: accumulators
    /// (dense matrices or tiered rows), pair summaries, witness caches and
    /// the per-node scratch. Reusable per-event scratch lists are included
    /// too — they are part of what the process actually keeps resident.
    /// This is the number `bench_memory` reports per storage mode.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = |v: &Vec<RowRep>| {
            v.capacity() * size_of::<RowRep>() + v.iter().map(RowRep::heap_bytes).sum::<usize>()
        };
        let mut bytes = self.dout.capacity() * 8 + self.din.capacity() * 8;
        bytes += rows(&self.sparse_out) + rows(&self.sparse_in);
        bytes += (self.out_min.capacity()
            + self.out_max.capacity()
            + self.in_min.capacity()
            + self.in_max.capacity())
            * 8;
        bytes += (self.out_min_arg.capacity()
            + self.out_max_arg.capacity()
            + self.in_min_arg.capacity()
            + self.in_max_arg.capacity()
            + self.out_nz.capacity()
            + self.in_nz.capacity())
            * 4;
        bytes += self.row_max_err.capacity() * 8
            + self.row_best.capacity() * size_of::<Option<RowBest>>()
            + self.row_err_dirty.capacity()
            + self.row_best_dirty.capacity();
        bytes += self.node_mark.capacity() * 8;
        bytes += self.touched_nodes.capacity() * 4 + self.touched_deltas.capacity() * 8;
        bytes += self.color_slot.capacity() * 4
            + self.touched_colors.capacity() * size_of::<TouchedColor>();
        bytes += self
            .shard_scratch
            .iter()
            .map(ShardScratch::heap_bytes)
            .sum::<usize>();
        bytes
    }

    /// What [`Self::resident_bytes`] would report with a *dense*
    /// accumulator tier at the current `n × cap` shape: the measured
    /// resident bytes with the accumulator tier swapped for `n · cap`
    /// `f64` slots per tracked direction. For a dense engine this is the
    /// measurement itself (within allocator slack); for a sparse engine it
    /// is the analytic dense projection `bench_memory` compares against at
    /// scales where a dense engine is deliberately never built.
    #[must_use]
    pub fn projected_dense_resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let rows = |v: &Vec<RowRep>| {
            v.capacity() * size_of::<RowRep>() + v.iter().map(RowRep::heap_bytes).sum::<usize>()
        };
        let accum_now = self.dout.capacity() * 8
            + self.din.capacity() * 8
            + rows(&self.sparse_out)
            + rows(&self.sparse_in);
        let dirs = if self.symmetric { 1 } else { 2 };
        let dense_accum = if self.track_summaries {
            self.n * self.cap * 8 * dirs
        } else {
            // Degrees-only engines never hold dense accumulators.
            accum_now
        };
        self.resident_bytes() - accum_now + dense_accum
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
        if self.sparse_accum {
            return self.sparse_out[v as usize].get(color);
        }
        self.dout[v as usize * self.cap + color as usize]
    }

    /// The maintained `w(P_j, v)` accumulator.
    #[inline]
    pub fn in_degree_of(&self, v: NodeId, color: u32) -> f64 {
        if self.symmetric {
            return self.out_degree_of(v, color);
        }
        if self.sparse_accum {
            return self.sparse_in[v as usize].get(color);
        }
        self.din[v as usize * self.cap + color as usize]
    }

    /// The full out-degree accumulator row of `v` (length `k`). Contiguous
    /// rows exist only in dense-storage summary engines; sparse-storage and
    /// degrees-only engines keep tiered rows and panic here — read
    /// per-color values through [`Self::out_degree_of`] instead.
    #[inline]
    pub fn out_row(&self, v: NodeId) -> &[f64] {
        assert!(
            !self.sparse_accum,
            "sparse-storage engines keep tiered rows; use out_degree_of"
        );
        let base = v as usize * self.cap;
        &self.dout[base..base + self.k]
    }

    /// The full in-degree accumulator row of `v` (length `k`); see
    /// [`Self::out_row`] for the sparse-storage caveat.
    #[inline]
    pub fn in_row(&self, v: NodeId) -> &[f64] {
        if self.symmetric {
            return self.out_row(v);
        }
        assert!(
            !self.sparse_accum,
            "sparse-storage engines keep tiered rows; use in_degree_of"
        );
        let base = v as usize * self.cap;
        &self.din[base..base + self.k]
    }

    /// Outgoing error `U − L` at `(i, j)` (same convention as
    /// [`DegreeMatrices::out_error`]).
    #[inline]
    pub fn out_error(&self, i: usize, j: usize) -> f64 {
        debug_assert!(
            self.track_summaries,
            "pair summaries not tracked by this engine"
        );
        self.out_max[i * self.cap + j] - self.out_min[i * self.cap + j]
    }

    /// Incoming error at `(i, j)` (same convention as
    /// [`DegreeMatrices::in_error`]).
    #[inline]
    pub fn in_error(&self, i: usize, j: usize) -> f64 {
        debug_assert!(
            self.track_summaries,
            "pair summaries not tracked by this engine"
        );
        if self.symmetric {
            return self.out_error(j, i);
        }
        self.in_max[i * self.cap + j] - self.in_min[i * self.cap + j]
    }

    /// Package the engine's pair summaries as a [`QErrorReport`] — the
    /// same scan order, tie-breaks, and mean fold as [`q_error_report`]
    /// on the synchronized graph/partition (so the two agree exactly
    /// whenever the accumulator sums are exact, e.g. on integer weights)
    /// for `O(k²)` instead of the `O(n·k + m)` matrix recomputation.
    pub fn q_report(&self) -> QErrorReport {
        assert!(
            self.track_summaries,
            "q_report requires a summary-tracking engine"
        );
        let k = self.k;
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
                if self.out_nz[i * self.cap + j] > 0 {
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

        if !self.track_summaries {
            self.apply_split_degrees_only(g, event);
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(
                    self.verify_against(g, p),
                    Ok(()),
                    "incremental state diverged from scratch recomputation"
                );
            }
            return;
        }
        let cap = self.cap;

        // Fresh row/column for the child: "no edges" until proven
        // otherwise.
        for i in 0..self.k {
            self.out_min[i * cap + child] = 0.0;
            self.out_max[i * cap + child] = 0.0;
            self.out_min[child * cap + i] = 0.0;
            self.out_max[child * cap + i] = 0.0;
            self.out_min_arg[i * cap + child] = NO_ARG;
            self.out_max_arg[i * cap + child] = NO_ARG;
            self.out_min_arg[child * cap + i] = NO_ARG;
            self.out_max_arg[child * cap + i] = NO_ARG;
            self.out_nz[i * cap + child] = 0;
            self.out_nz[child * cap + i] = 0;
            if !self.symmetric {
                self.in_min[i * cap + child] = 0.0;
                self.in_max[i * cap + child] = 0.0;
                self.in_min[child * cap + i] = 0.0;
                self.in_max[child * cap + i] = 0.0;
                self.in_min_arg[i * cap + child] = NO_ARG;
                self.in_max_arg[i * cap + child] = NO_ARG;
                self.in_min_arg[child * cap + i] = NO_ARG;
                self.in_max_arg[child * cap + i] = NO_ARG;
                self.in_nz[i * cap + child] = 0;
                self.in_nz[child * cap + i] = 0;
            }
        }
        self.row_max_err[child] = 0.0;
        self.row_best[child] = None;

        // ---- Out side: sources with edges into the moved nodes (their
        // dout mass shifts from column `parent` to column `child`), then
        // for directed graphs the mirrored in side (targets of the moved
        // nodes' out-edges).
        self.collect_touched(g, &event.moved_nodes, true);
        self.apply_side(p, c, child, true);
        if !self.symmetric {
            self.collect_touched(g, &event.moved_nodes, false);
            self.apply_side(p, c, child, false);
        }

        // ---- Member axes of child and parent. The child is rebuilt from
        // its members' (now final) accumulator rows; the parent's entries
        // over unchanged columns only shrank in membership, so they keep
        // their value unless their tracked extremum attainer departed to
        // the child (then a one-column member rescan re-derives it).
        self.recompute_color_axis(p, child);
        self.recompute_parent_axis(p, c, child);

        // ---- Witness-row invalidation: rows recomputed above changed
        // entries (error and best both stale), and any cached best that
        // pointed at the parent saw its target *size* change — its error is
        // untouched, so only the β-weighted best goes stale. A negative β
        // voids that shortcut: shrinking a target color *raises* candidate
        // weights, so stale non-best candidates can overtake silently —
        // dirty every row's best.
        self.row_err_dirty[c] = true;
        self.row_best_dirty[c] = true;
        self.row_err_dirty[child] = true;
        self.row_best_dirty[child] = true;
        if self.last_beta < 0.0 {
            self.row_best_dirty[..self.k].fill(true);
        } else {
            for s in 0..self.k {
                if let Some(best) = &self.row_best[s] {
                    if best.other as usize == c {
                        self.row_best_dirty[s] = true;
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

    /// The degrees-only split path: shift each touched node's sparse
    /// accumulator mass from the parent to the child column. Pure
    /// `O(deg(moved) · log deg)` — no summaries, no matrices.
    fn apply_split_degrees_only(&mut self, g: &Graph, event: &SplitEvent) {
        let c = event.parent;
        let child = event.child;
        // Incoming arcs identify the nodes whose *out*-rows change, and
        // vice versa; undirected graphs mirror, so one pass suffices.
        let directions: &[bool] = if self.symmetric {
            &[true]
        } else {
            &[true, false]
        };
        for &incoming in directions {
            self.collect_touched(g, &event.moved_nodes, incoming);
            let touched = std::mem::take(&mut self.touched_nodes);
            let deltas = std::mem::take(&mut self.touched_deltas);
            for (&u, &d) in touched.iter().zip(deltas.iter()) {
                let row = if incoming {
                    &mut self.sparse_out[u as usize]
                } else {
                    &mut self.sparse_in[u as usize]
                };
                row.add(c, -d, 0);
                row.add(child, d, 0);
            }
            self.touched_nodes = touched;
            self.touched_deltas = deltas;
        }
    }

    /// Patch the engine for a batch of edge events — graph-free dynamic
    /// maintenance (see the module docs, "Edge-event maintenance"). `p` is
    /// the *unchanged* partition the engine is synchronized with; each
    /// event carries the signed weight delta of one logical edge
    /// (undirected events are applied to both stored arc directions,
    /// self-loops once), exactly as
    /// `qsc_graph::delta::GraphDelta::drain_events` produces them.
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
        if !self.track_summaries {
            // Degrees-only mode: pure sparse-row updates, O(log deg) each.
            for ev in events {
                let cu = p.color_of(ev.source);
                let cv = p.color_of(ev.target);
                self.sparse_out[ev.source as usize].add(cv, ev.delta, 0);
                if self.symmetric {
                    if ev.source != ev.target {
                        self.sparse_out[ev.target as usize].add(cu, ev.delta, 0);
                    }
                } else {
                    self.sparse_in[ev.target as usize].add(cu, ev.delta, 0);
                }
            }
            return;
        }
        self.edge_patches_out.clear();
        self.edge_patches_in.clear();
        self.edge_slot_out.clear();
        self.edge_slot_in.clear();
        // Combine the events into one delta per (node, column) first: the
        // entry-patch rules below (inline extension + exact lost-extremum
        // detection) are sound only when each accumulator cell changes
        // exactly once per batch, as on the split path.
        let mut acc_out = std::mem::take(&mut self.edge_acc_out);
        let mut acc_in = std::mem::take(&mut self.edge_acc_in);
        acc_out.clear();
        acc_in.clear();
        self.edge_acc_slot_out.clear();
        self.edge_acc_slot_in.clear();
        for ev in events {
            let cu = p.color_of(ev.source);
            let cv = p.color_of(ev.target);
            accumulate_edge(
                &mut acc_out,
                &mut self.edge_acc_slot_out,
                ev.source,
                cv,
                ev.delta,
            );
            if self.symmetric {
                // The mirrored arc's out-accumulator (the in-state is not
                // stored); a self-loop is a single stored arc.
                if ev.source != ev.target {
                    accumulate_edge(
                        &mut acc_out,
                        &mut self.edge_acc_slot_out,
                        ev.target,
                        cu,
                        ev.delta,
                    );
                }
            } else {
                accumulate_edge(
                    &mut acc_in,
                    &mut self.edge_acc_slot_in,
                    ev.target,
                    cu,
                    ev.delta,
                );
            }
        }
        for &(u, col, d) in &acc_out {
            if d != 0.0 {
                self.patch_edge_value(true, u, p.color_of(u), col, d);
            }
        }
        self.finalize_edge_batch(p, true);
        if !self.symmetric {
            for &(u, col, d) in &acc_in {
                if d != 0.0 {
                    self.patch_edge_value(false, u, p.color_of(u), col, d);
                }
            }
            self.finalize_edge_batch(p, false);
        }
        self.edge_acc_out = acc_out;
        self.edge_acc_in = acc_in;
    }

    /// Apply one arc-accumulator change of an edge batch and fold it into
    /// the affected pair-summary entry's patch record. `member_color` is
    /// the color of `u` (the node whose accumulator row changes); the
    /// entry is `(member_color, other_color)` in the out matrix or
    /// `(other_color, member_color)` in the in matrix.
    fn patch_edge_value(
        &mut self,
        outgoing: bool,
        u: NodeId,
        member_color: u32,
        other_color: u32,
        delta: f64,
    ) {
        let cap = self.cap;
        let (old, new) = self.accum_add(outgoing, u, other_color as usize, delta);
        let (entry_row, entry_col) = if outgoing {
            (member_color, other_color)
        } else {
            (other_color, member_color)
        };
        let idx = entry_row as usize * cap + entry_col as usize;
        let (cur_min, cur_max, arg_min, arg_max) = if outgoing {
            (
                self.out_min[idx],
                self.out_max[idx],
                self.out_min_arg[idx],
                self.out_max_arg[idx],
            )
        } else {
            (
                self.in_min[idx],
                self.in_max[idx],
                self.in_min_arg[idx],
                self.in_max_arg[idx],
            )
        };
        let (patches, slots) = if outgoing {
            (&mut self.edge_patches_out, &mut self.edge_slot_out)
        } else {
            (&mut self.edge_patches_in, &mut self.edge_slot_in)
        };
        let slot = *slots.entry(idx).or_insert_with(|| {
            patches.push(EdgeEntryPatch {
                row: entry_row,
                col: entry_col,
                orig_min: cur_min,
                orig_max: cur_max,
                rescan_min: false,
                rescan_max: false,
                nz_delta: 0,
            });
            patches.len() - 1
        });
        let rec = &mut patches[slot];
        // Exact lost-extremum test against the batch-start snapshot, with
        // unknown attainers falling back to the conservative heuristic —
        // the same rule as [`ShardScratch::fold`] on the split path.
        if new < old {
            if old == rec.orig_max && (arg_max == NO_ARG || arg_max == u) {
                rec.rescan_max = true;
            }
        } else if new > old && old == rec.orig_min && (arg_min == NO_ARG || arg_min == u) {
            rec.rescan_min = true;
        }
        if (old == 0.0) != (new == 0.0) {
            rec.nz_delta += if new != 0.0 { 1 } else { -1 };
        }
        let (emn, emx, amn, amx) = if outgoing {
            (
                &mut self.out_min[idx],
                &mut self.out_max[idx],
                &mut self.out_min_arg[idx],
                &mut self.out_max_arg[idx],
            )
        } else {
            (
                &mut self.in_min[idx],
                &mut self.in_max[idx],
                &mut self.in_min_arg[idx],
                &mut self.in_max_arg[idx],
            )
        };
        if new < *emn {
            *emn = new;
            *amn = u;
        }
        if new > *emx {
            *emx = new;
            *amx = u;
        }
    }

    /// Finalize one direction of an edge batch: apply the queued
    /// zero-crossing count deltas, decide which flagged extrema actually
    /// need a member rescan (the `min == 0` zero-member rule cancels the
    /// rest, exactly as on the split path), run the rescans, and dirty the
    /// touched witness rows.
    fn finalize_edge_batch(&mut self, p: &Partition, outgoing: bool) {
        let cap = self.cap;
        let patches = std::mem::take(if outgoing {
            &mut self.edge_patches_out
        } else {
            &mut self.edge_patches_in
        });
        let mut rescans = std::mem::take(if outgoing {
            &mut self.entry_scratch_out
        } else {
            &mut self.entry_scratch_in
        });
        rescans.clear();
        for rec in &patches {
            let idx = rec.row as usize * cap + rec.col as usize;
            let member_color = if outgoing { rec.row } else { rec.col };
            let size = p.size(member_color);
            let nz = {
                let slot = if outgoing {
                    &mut self.out_nz[idx]
                } else {
                    &mut self.in_nz[idx]
                };
                *slot = (*slot as i64 + rec.nz_delta) as u32;
                *slot
            };
            let (mn, mx) = if outgoing {
                (self.out_min[idx], self.out_max[idx])
            } else {
                (self.in_min[idx], self.in_max[idx])
            };
            let zero_member = (nz as usize) < size;
            let need = (rec.rescan_min && !(mn == 0.0 && zero_member))
                || (rec.rescan_max && !(mx == 0.0 && zero_member));
            if need {
                rescans.push((rec.row, rec.col));
            } else {
                // A flagged side whose zero extremum provably stands keeps
                // its value but no longer knows a specific attainer.
                if rec.rescan_min {
                    if outgoing {
                        self.out_min_arg[idx] = NO_ARG;
                    } else {
                        self.in_min_arg[idx] = NO_ARG;
                    }
                }
                if rec.rescan_max {
                    if outgoing {
                        self.out_max_arg[idx] = NO_ARG;
                    } else {
                        self.in_max_arg[idx] = NO_ARG;
                    }
                }
            }
            self.row_err_dirty[member_color as usize] = true;
            self.row_best_dirty[member_color as usize] = true;
        }
        self.rescan_entries(p, &rescans, outgoing);
        if outgoing {
            self.entry_scratch_out = rescans;
            self.edge_patches_out = patches;
        } else {
            self.entry_scratch_in = rescans;
            self.edge_patches_in = patches;
        }
    }

    /// The best coarsening candidate: the color pair whose merge has the
    /// smallest provable post-merge q-error bound, or `None` when no pair's
    /// bound stays at or below `max_bound` (or fewer than two colors
    /// exist). `O(k³)` — intended for the maintenance path, where merges
    /// are rare; the selection is deterministic (lexicographically smallest
    /// pair on exact bound ties) and reads only the pair summaries, so
    /// maintained and freshly built engines pick identical pairs.
    pub fn pick_merge(&self, max_bound: f64) -> Option<MergeCandidate> {
        assert!(
            self.track_summaries,
            "pick_merge requires a summary-tracking engine"
        );
        if self.k < 2 {
            return None;
        }
        let view = SummaryView {
            k: self.k,
            cap: self.cap,
            symmetric: self.symmetric,
            out_min: &self.out_min,
            out_max: &self.out_max,
            in_min: &self.in_min,
            in_max: &self.in_max,
        };
        pick_merge_view(&view, self.k, max_bound)
    }

    /// The post-merge q-error bound of one specific pair (see
    /// [`Self::pick_merge`]); `O(k)`. Maintenance uses this to *re-validate*
    /// stale candidates against the current state before applying them, so
    /// a coarsening round pays one full `O(k³)` scan plus `O(k)` per
    /// applied merge instead of `O(k³)` per merge.
    pub fn merge_bound_pair(&self, a: u32, b: u32) -> f64 {
        assert!(
            self.track_summaries,
            "merge bounds require a summary-tracking engine"
        );
        assert!((a as usize) < self.k && (b as usize) < self.k && a < b);
        let view = SummaryView {
            k: self.k,
            cap: self.cap,
            symmetric: self.symmetric,
            out_min: &self.out_min,
            out_max: &self.out_max,
            in_min: &self.in_min,
            in_max: &self.in_max,
        };
        merge_bound(&view, self.k, a as usize, b as usize, f64::INFINITY)
    }

    /// Every color pair whose post-merge bound stays at or below
    /// `max_bound`, sorted ascending by `(bound, winner, loser)` — the
    /// candidate list of one batched coarsening round.
    ///
    /// A merged pair's bound dominates each color's own cached row error
    /// (every union term contains the color's own spread), so only colors
    /// with `row_max_err <= max_bound` can participate — the scan
    /// prefilters to those in `O(k)` and pays `O(|eligible|² · k)` for the
    /// bounds, which in steady maintenance (most colors split right up to
    /// the target) is far below the naive `O(k³)`. Requires
    /// [`Self::refresh`] since the last mutation (the prefilter reads the
    /// cached row errors).
    pub fn merge_candidates(&self, max_bound: f64) -> Vec<MergeCandidate> {
        assert!(
            self.track_summaries,
            "merge candidates require a summary-tracking engine"
        );
        debug_assert!(
            self.row_err_dirty[..self.k].iter().all(|d| !d),
            "merge_candidates with dirty rows; call refresh() first"
        );
        let view = SummaryView {
            k: self.k,
            cap: self.cap,
            symmetric: self.symmetric,
            out_min: &self.out_min,
            out_max: &self.out_max,
            in_min: &self.in_min,
            in_max: &self.in_max,
        };
        let eligible: Vec<usize> = (0..self.k)
            .filter(|&c| self.row_max_err[c] <= max_bound)
            .collect();
        let mut out = Vec::new();
        for (i, &a) in eligible.iter().enumerate() {
            for &b in &eligible[i + 1..] {
                let bound = merge_bound(&view, self.k, a, b, max_bound);
                if bound <= max_bound {
                    out.push(MergeCandidate {
                        winner: a as u32,
                        loser: b as u32,
                        bound,
                    });
                }
            }
        }
        out.sort_by(|x, y| {
            x.bound
                .partial_cmp(&y.bound)
                .expect("finite bounds")
                .then(x.winner.cmp(&y.winner))
                .then(x.loser.cmp(&y.loser))
        });
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

        if !self.track_summaries {
            self.apply_merge_degrees_only(g, p, event);
            #[cfg(debug_assertions)]
            debug_assert_eq!(self.verify_against(g, p), Ok(()), "merge diverged");
            return;
        }

        let cap = self.cap;
        // ---- Fold the accumulator columns, capturing (node, old, new)
        // winner-column values so entry patches can run after the relabel,
        // in the final id space.
        let directions: &[bool] = if self.symmetric {
            &[true]
        } else {
            &[true, false]
        };
        let mut captures: Vec<Vec<(NodeId, f64, f64)>> = Vec::with_capacity(2);
        for (dir_idx, &outgoing) in directions.iter().enumerate() {
            // In-neighbors of the moved members hold the non-zero
            // out-accumulator entries towards the loser (and vice versa).
            self.collect_touched(g, &event.moved_nodes, outgoing);
            let touched = std::mem::take(&mut self.touched_nodes);
            let mut capture = std::mem::take(if dir_idx == 0 {
                &mut self.merge_scratch
            } else {
                &mut self.merge_scratch_in
            });
            capture.clear();
            if self.sparse_accum {
                let promote_k = self.promote_k();
                let rows = if outgoing {
                    &mut self.sparse_out
                } else {
                    &mut self.sparse_in
                };
                for &u in &touched {
                    let row = &mut rows[u as usize];
                    let lost = row.get(loser as u32);
                    if lost == 0.0 {
                        continue;
                    }
                    row.add(loser as u32, -lost, promote_k);
                    let (old, new) = row.add(winner as u32, lost, promote_k);
                    capture.push((u, old, new));
                }
            } else {
                let acc = if outgoing {
                    &mut self.dout
                } else {
                    &mut self.din
                };
                for &u in &touched {
                    let base = u as usize * cap;
                    let lost = acc[base + loser];
                    if lost == 0.0 {
                        continue;
                    }
                    let old = acc[base + winner];
                    let new = old + lost;
                    acc[base + winner] = new;
                    acc[base + loser] = 0.0;
                    capture.push((u, old, new));
                }
            }
            captures.push(capture);
            self.touched_nodes = touched;
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
        for (dir_idx, &outgoing) in directions.iter().enumerate() {
            let capture = std::mem::take(&mut captures[dir_idx]);
            self.begin_shard_records(1);
            {
                let (emin, emax, amin, amax) = if outgoing {
                    (
                        &self.out_min,
                        &self.out_max,
                        &self.out_min_arg,
                        &self.out_max_arg,
                    )
                } else {
                    (
                        &self.in_min,
                        &self.in_max,
                        &self.in_min_arg,
                        &self.in_max_arg,
                    )
                };
                let sc = &mut self.shard_scratch[0];
                for &(u, old, new) in &capture {
                    let i = p.color_of(u) as usize;
                    if i == winner {
                        continue; // the winner's axis is rebuilt below
                    }
                    let idx = if outgoing {
                        i * cap + winner
                    } else {
                        winner * cap + i
                    };
                    sc.fold(
                        i as u32, u, old, new, 0.0, emin[idx], emax[idx], amin[idx], amax[idx],
                    );
                }
            }
            self.merge_shard_records(1, winner, outgoing);
            if dir_idx == 0 {
                self.merge_scratch = capture;
            } else {
                self.merge_scratch_in = capture;
            }
            self.finalize_merge_side(p, winner, outgoing);
        }

        // ---- The winner's member axis (rows (winner, ·) and in-entries
        // (·, winner)) is rebuilt from the merged member list.
        self.recompute_color_axis(p, winner);

        // ---- Witness bookkeeping: cached bests still name pre-merge
        // colors — the merged-away loser invalidates and the relabeled
        // ex-last renames. The winner's size *grew*, which is the reverse
        // of the split path: with any non-zero β a non-best candidate
        // targeting the winner can silently overtake an untouched row's
        // cached best (β > 0: its weight rose; β < 0: the best's own
        // weight fell), so every row's best goes stale. With β = 0 the
        // weights are size-independent and the targeted invalidation
        // suffices.
        if self.last_beta != 0.0 {
            self.row_best_dirty[..k].fill(true);
            for s in 0..k {
                if let Some(best) = &mut self.row_best[s] {
                    if best.other as usize == last {
                        best.other = loser as u32;
                    }
                }
            }
        } else {
            for s in 0..k {
                if let Some(best) = &mut self.row_best[s] {
                    if best.other as usize == loser || best.other as usize == winner {
                        self.row_best_dirty[s] = true;
                    } else if best.other as usize == last {
                        best.other = loser as u32;
                    }
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

    /// The degrees-only merge path: fold the loser column of every touched
    /// sparse row into the winner, then relabel the ex-last color.
    fn apply_merge_degrees_only(&mut self, g: &Graph, p: &Partition, event: &MergeEvent) {
        let winner = event.winner;
        let loser = event.loser;
        let last = (self.k - 1) as u32;
        let directions: &[bool] = if self.symmetric {
            &[true]
        } else {
            &[true, false]
        };
        for &outgoing in directions {
            self.collect_touched(g, &event.moved_nodes, outgoing);
            let touched = std::mem::take(&mut self.touched_nodes);
            for &u in &touched {
                let row = if outgoing {
                    &mut self.sparse_out[u as usize]
                } else {
                    &mut self.sparse_in[u as usize]
                };
                let lost = row.get(loser);
                if lost != 0.0 {
                    row.add(loser, -lost, 0);
                    row.add(winner, lost, 0);
                }
            }
            self.touched_nodes = touched;
            if loser != last {
                // Relabel: move the ex-last column into the freed slot for
                // the (in/out-)neighbors of the relabeled class.
                self.collect_touched(g, p.members(loser), outgoing);
                let touched = std::mem::take(&mut self.touched_nodes);
                for &u in &touched {
                    let row = if outgoing {
                        &mut self.sparse_out[u as usize]
                    } else {
                        &mut self.sparse_in[u as usize]
                    };
                    row.relabel(last, loser);
                }
                self.touched_nodes = touched;
            }
        }
        self.k -= 1;
    }

    /// Move color `last = k - 1`'s engine state into the freed `loser`
    /// slot: accumulator columns for the relabeled class's neighbors,
    /// row/column copies in every pair-summary array, and the witness-row
    /// caches. Values are copied, never recomputed, so the relabel is
    /// exact. Runs with the *old* `k` still in place.
    fn relabel_last_color(&mut self, g: &Graph, p: &Partition, loser: usize) {
        let cap = self.cap;
        let last = self.k - 1;
        // Accumulator columns: only the relabeled class's neighbors hold
        // non-zero values in column `last` (the merged-away loser's column
        // was zeroed by the fold).
        let directions: &[bool] = if self.symmetric {
            &[true]
        } else {
            &[true, false]
        };
        for &outgoing in directions {
            self.collect_touched(g, p.members(loser as u32), outgoing);
            let touched = std::mem::take(&mut self.touched_nodes);
            if self.sparse_accum {
                let rows = if outgoing {
                    &mut self.sparse_out
                } else {
                    &mut self.sparse_in
                };
                for &u in &touched {
                    rows[u as usize].relabel(last as u32, loser as u32);
                }
            } else {
                let acc = if outgoing {
                    &mut self.dout
                } else {
                    &mut self.din
                };
                for &u in &touched {
                    let base = u as usize * cap;
                    acc[base + loser] = acc[base + last];
                    acc[base + last] = 0.0;
                }
            }
            self.touched_nodes = touched;
        }
        // Pair-summary arrays: row and column `last` move to `loser`
        // (diagonal handled explicitly).
        let k = self.k;
        // `from` is always the last live color, so the skip set `{from, to}`
        // splits the column range into two contiguous runs — the row moves
        // become two `copy_within` memmoves and the (strided) column moves
        // two branch-free loops, touching exactly the cells the old
        // skip-branch loop touched.
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
        relabel(&mut self.out_min, cap, k, last, loser);
        relabel(&mut self.out_max, cap, k, last, loser);
        relabel(&mut self.out_min_arg, cap, k, last, loser);
        relabel(&mut self.out_max_arg, cap, k, last, loser);
        relabel(&mut self.out_nz, cap, k, last, loser);
        if !self.symmetric {
            relabel(&mut self.in_min, cap, k, last, loser);
            relabel(&mut self.in_max, cap, k, last, loser);
            relabel(&mut self.in_min_arg, cap, k, last, loser);
            relabel(&mut self.in_max_arg, cap, k, last, loser);
            relabel(&mut self.in_nz, cap, k, last, loser);
        }
        // Witness-row caches move wholesale (the row's content is the same
        // set of entries, just renamed).
        self.row_max_err[loser] = self.row_max_err[last];
        self.row_best[loser] = self.row_best[last];
        self.row_err_dirty[loser] = self.row_err_dirty[last];
        self.row_best_dirty[loser] = self.row_best_dirty[last];
    }

    /// Finalize one direction of a merge's entry-patch batch: apply the
    /// queued zero-crossing deltas, decide which flagged extrema need a
    /// member rescan (same zero-member rule as the split path), run the
    /// rescans, and dirty the touched witness rows. The merge analogue of
    /// the split finalize, minus the child-column installation.
    fn finalize_merge_side(&mut self, p: &Partition, winner: usize, outgoing: bool) {
        let cap = self.cap;
        let batch = std::mem::take(&mut self.touched_colors);
        let mut rescans = if outgoing {
            std::mem::take(&mut self.entry_scratch_out)
        } else {
            std::mem::take(&mut self.entry_scratch_in)
        };
        rescans.clear();
        for t in &batch {
            let i = t.color as usize;
            let size = p.size(t.color);
            let idx = if outgoing {
                i * cap + winner
            } else {
                winner * cap + i
            };
            let nz = {
                let slot = if outgoing {
                    &mut self.out_nz[idx]
                } else {
                    &mut self.in_nz[idx]
                };
                *slot = (*slot as i64 + t.nz_delta) as u32;
                *slot
            };
            let (mn, mx) = if outgoing {
                (self.out_min[idx], self.out_max[idx])
            } else {
                (self.in_min[idx], self.in_max[idx])
            };
            let zero_member = (nz as usize) < size;
            let need = (t.rescan_min && !(mn == 0.0 && zero_member))
                || (t.rescan_max && !(mx == 0.0 && zero_member));
            if need {
                if outgoing {
                    rescans.push((t.color, winner as u32));
                } else {
                    rescans.push((winner as u32, t.color));
                }
            } else {
                if t.rescan_min {
                    if outgoing {
                        self.out_min_arg[idx] = NO_ARG;
                    } else {
                        self.in_min_arg[idx] = NO_ARG;
                    }
                }
                if t.rescan_max {
                    if outgoing {
                        self.out_max_arg[idx] = NO_ARG;
                    } else {
                        self.in_max_arg[idx] = NO_ARG;
                    }
                }
            }
            self.row_err_dirty[i] = true;
            self.row_best_dirty[i] = true;
        }
        self.rescan_entries(p, &rescans, outgoing);
        if outgoing {
            self.entry_scratch_out = rescans;
        } else {
            self.entry_scratch_in = rescans;
        }
        self.touched_colors = batch;
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
        if self.sparse_accum {
            self.sparse_out.resize(n_new, RowRep::new());
            if !self.symmetric {
                self.sparse_in.resize(n_new, RowRep::new());
            }
        } else {
            let cap = self.cap;
            self.dout.resize(n_new * cap, 0.0);
            if !self.symmetric {
                self.din.resize(n_new * cap, 0.0);
            }
        }
        self.node_mark.resize(n_new, 0);
        self.n = n_new;
        if !self.track_summaries {
            return;
        }
        let cap = self.cap;
        let k = self.k;
        for (i, &c) in colors.iter().enumerate() {
            let v = first + i as NodeId;
            debug_assert_eq!(p.color_of(v), c, "insert color mismatch");
            let c = c as usize;
            for j in 0..k {
                // Out-entry (c, j): the new member contributes an explicit
                // zero towards every color.
                let idx = c * cap + j;
                if 0.0 < self.out_min[idx] {
                    self.out_min[idx] = 0.0;
                    self.out_min_arg[idx] = v;
                }
                if 0.0 > self.out_max[idx] {
                    self.out_max[idx] = 0.0;
                    self.out_max_arg[idx] = v;
                }
                if !self.symmetric {
                    // In-entry (j, c) ranges over P_c's members too.
                    let idx = j * cap + c;
                    if 0.0 < self.in_min[idx] {
                        self.in_min[idx] = 0.0;
                        self.in_min_arg[idx] = v;
                    }
                    if 0.0 > self.in_max[idx] {
                        self.in_max[idx] = 0.0;
                        self.in_max_arg[idx] = v;
                    }
                }
            }
            self.row_err_dirty[c] = true;
            self.row_best_dirty[c] = true;
        }
        // Sizes of the inserted colors *grew* — the reverse of the split
        // path: with any non-zero β a candidate targeting a grown color
        // can overtake (β > 0) or fall behind (β < 0) an untouched row's
        // cached best, so every row's best goes stale. With β = 0 the
        // weights are size-independent and nothing needs invalidating
        // beyond the inserted colors' own rows (done above).
        if self.last_beta != 0.0 {
            self.row_best_dirty[..k].fill(true);
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
    /// Cost: `O(n)` row compaction + `O(k²)` witness remap + a member-axis
    /// rebuild (`O(|members| · k)`) per affected color.
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
        let n_old = self.n;
        let n_new = remap.new_len();
        let cap = self.cap;
        if self.sparse_accum {
            #[cfg(debug_assertions)]
            for v in 0..n_old as NodeId {
                if remap.is_removed(v) {
                    debug_assert!(
                        self.sparse_out[v as usize].is_all_zero(),
                        "removed node {v} still has out-weight"
                    );
                    if !self.symmetric {
                        debug_assert!(
                            self.sparse_in[v as usize].is_all_zero(),
                            "removed node {v} still has in-weight"
                        );
                    }
                }
            }
            compact_sparse_rows(&mut self.sparse_out, remap);
            if !self.symmetric {
                compact_sparse_rows(&mut self.sparse_in, remap);
            }
        } else {
            #[cfg(debug_assertions)]
            for v in 0..n_old as NodeId {
                if remap.is_removed(v) {
                    let base = v as usize * cap;
                    debug_assert!(
                        self.dout[base..base + self.k].iter().all(|&w| w == 0.0),
                        "removed node {v} still has out-weight"
                    );
                    if !self.symmetric {
                        debug_assert!(
                            self.din[base..base + self.k].iter().all(|&w| w == 0.0),
                            "removed node {v} still has in-weight"
                        );
                    }
                }
            }
            compact_rows(&mut self.dout, n_old, cap, remap);
            if !self.symmetric {
                compact_rows(&mut self.din, n_old, cap, remap);
            }
        }
        self.node_mark.clear();
        self.node_mark.resize(n_new, 0);
        self.mark_gen = 0;
        self.n = n_new;
        if !self.track_summaries {
            return;
        }
        // Remap the extremum witnesses (attainers of unaffected colors are
        // survivors; attainers inside affected colors are rebuilt below,
        // so a defensive NO_ARG for a removed id is fine either way).
        let k = self.k;
        for args in [
            &mut self.out_min_arg,
            &mut self.out_max_arg,
            &mut self.in_min_arg,
            &mut self.in_max_arg,
        ] {
            if args.is_empty() {
                continue;
            }
            for i in 0..k {
                for j in 0..k {
                    let slot = &mut args[i * cap + j];
                    if *slot != NO_ARG {
                        *slot = remap.map(*slot).unwrap_or(NO_ARG);
                    }
                }
            }
        }
        // Only the colors that lost members can see entry values change,
        // and only in one way: the removed rows were all-zero, so an entry
        // is stale iff a zero extremum just lost its last zero member
        // (`nz == new size`). Everything else keeps its value — negative
        // minima / positive maxima are attained by survivors, and a zero
        // extremum with another zero member stands (its attainer was
        // remapped to `NO_ARG` above if it was removed). `O(k)` exact
        // checks per affected color plus a one-column rescan per stale
        // entry, instead of a full member-axis rebuild.
        let mut affected: Vec<u32> = removed_colors.to_vec();
        affected.sort_unstable();
        affected.dedup();
        let mut out_rescans = std::mem::take(&mut self.entry_scratch_out);
        let mut in_rescans = std::mem::take(&mut self.entry_scratch_in);
        out_rescans.clear();
        in_rescans.clear();
        for &c in &affected {
            let ci = c as usize;
            let size = p.size(c);
            for j in 0..k {
                let idx = ci * cap + j;
                if (self.out_nz[idx] as usize) == size
                    && (self.out_min[idx] == 0.0 || self.out_max[idx] == 0.0)
                {
                    out_rescans.push((c, j as u32));
                }
                if !self.symmetric {
                    let idx = j * cap + ci;
                    if (self.in_nz[idx] as usize) == size
                        && (self.in_min[idx] == 0.0 || self.in_max[idx] == 0.0)
                    {
                        in_rescans.push((j as u32, c));
                    }
                }
            }
            self.row_err_dirty[ci] = true;
            self.row_best_dirty[ci] = true;
        }
        self.rescan_entries(p, &out_rescans, true);
        self.rescan_entries(p, &in_rescans, false);
        self.entry_scratch_out = out_rescans;
        self.entry_scratch_in = in_rescans;
        if self.last_beta < 0.0 {
            self.row_best_dirty[..k].fill(true);
        } else {
            for s in 0..k {
                if let Some(best) = &self.row_best[s] {
                    if affected.binary_search(&best.other).is_ok() {
                        self.row_best_dirty[s] = true;
                    }
                }
            }
        }
    }

    /// Apply one direction of a split to the accumulators and pair
    /// summaries: shift every touched node's mass from the parent to the
    /// child column, patch the entries over *other* colors' member axes,
    /// then finalize the batch (child-column entries, lost-extremum
    /// rescans, witness-row invalidation). `collect_touched` must have run
    /// for the matching direction.
    ///
    /// The touched list is cut into contiguous chunks, one per shard (one
    /// shard below the touched threshold). Each shard shifts its nodes'
    /// rows (each node appears in exactly one chunk, so the row writes are
    /// disjoint) and folds per-color partial aggregates into its records;
    /// [`Self::merge_shard_records`] then reduces them in shard order with
    /// exact min/max/or/sum merges, so the batch — and everything derived
    /// from it — is independent of the shard count.
    fn apply_side(&mut self, p: &Partition, c: usize, child: usize, outgoing: bool) {
        let touched = std::mem::take(&mut self.touched_nodes);
        let deltas = std::mem::take(&mut self.touched_deltas);
        let shards = if touched.len() >= self.par_min_touched {
            self.pool.slots()
        } else {
            1
        };
        self.begin_shard_records(shards);
        {
            let cap = self.cap;
            let colors = p.assignment();
            let promote_k = self.promote_k();
            let sparse = self.sparse_accum;
            let (dense, rows, emin, emax, amin, amax) = if outgoing {
                (
                    &mut self.dout,
                    &mut self.sparse_out,
                    &self.out_min,
                    &self.out_max,
                    &self.out_min_arg,
                    &self.out_max_arg,
                )
            } else {
                (
                    &mut self.din,
                    &mut self.sparse_in,
                    &self.in_min,
                    &self.in_max,
                    &self.in_min_arg,
                    &self.in_max_arg,
                )
            };
            let dense = SyncSliceMut::new(dense);
            let rows = SyncSliceMut::new(rows);
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            run_shards(&self.pool, shards, |shard| {
                // The touched rows land all over a multi-megabyte
                // accumulator in an order the hardware prefetcher cannot
                // predict, so the loop prefetches its own future rows. The
                // distance covers the latency of one row's patch work; the
                // hint never changes results.
                const PREFETCH_AHEAD: usize = 16;
                let (lo, hi) = chunk_range(touched.len(), shards, shard);
                let (touched, deltas) = (&touched[lo..hi], &deltas[lo..hi]);
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                for (pos, (&u, &d)) in touched.iter().zip(deltas).enumerate() {
                    let ahead = touched.get(pos + PREFETCH_AHEAD).map(|&w| w as usize);
                    if let Some(w) = ahead {
                        kernels::prefetch_read(colors, w);
                    }
                    let (old, new, child_val) = if sparse {
                        // SAFETY: every touched node appears exactly once
                        // across the shards' chunks and the look-ahead
                        // nodes are this chunk's own, so each tiered row is
                        // reached by one shard only; within the chunk rows
                        // change in list order, so promotion decisions do
                        // not depend on the shard count either.
                        unsafe {
                            // Same two-stage pipeline as the sparse gather
                            // kernels: the row struct well ahead, its heap
                            // payload closer in (hints only).
                            if let Some(w) = ahead {
                                kernels::prefetch_read(rows.slice_mut(w, w + 1), 0);
                            }
                            if let Some(&w) = touched.get(pos + PREFETCH_AHEAD / 2) {
                                kernels::prefetch_row_payload(rows.get_mut(w as usize), c as u32);
                            }
                            rows.get_mut(u as usize).split_shift(
                                c as u32,
                                child as u32,
                                d,
                                promote_k,
                            )
                        }
                    } else {
                        let base = u as usize * cap;
                        // SAFETY: as for the tiered rows, each accumulator
                        // row is reached by one shard only.
                        unsafe {
                            if let Some(w) = ahead {
                                let row = dense.slice_mut(w * cap, w * cap + cap);
                                kernels::prefetch_read(row, c);
                                kernels::prefetch_read(row, child);
                            }
                            let row = dense.slice_mut(base, base + cap);
                            let old = row[c];
                            let new = old - d;
                            row[c] = new;
                            row[child] += d;
                            (old, new, row[child])
                        }
                    };
                    let i = colors[u as usize] as usize;
                    if i == c || i == child {
                        continue; // both color axes are rebuilt afterwards
                    }
                    let idx = if outgoing { i * cap + c } else { c * cap + i };
                    sc.fold(
                        i as u32, u, old, new, child_val, emin[idx], emax[idx], amin[idx],
                        amax[idx],
                    );
                }
            });
        }
        self.merge_shard_records(shards, c, outgoing);

        // ---- Finalize the batch: per touched color, install the child
        // column entry, queue a rescan if the parent-column entry lost its
        // extremum, and invalidate the witness row.
        let batch = std::mem::take(&mut self.touched_colors);
        let cap = self.cap;
        let mut rescans = if outgoing {
            std::mem::take(&mut self.entry_scratch_out)
        } else {
            std::mem::take(&mut self.entry_scratch_in)
        };
        rescans.clear();
        for t in &batch {
            let i = t.color as usize;
            let size = p.size(t.color);
            // Parent-column entry: apply the zero-crossing count delta,
            // then decide whether a flagged extremum actually needs a
            // rescan — a zero extremum provably stands while the entry
            // keeps a zero-valued member.
            let parent_idx = if outgoing { i * cap + c } else { c * cap + i };
            let nz = {
                let slot = if outgoing {
                    &mut self.out_nz[parent_idx]
                } else {
                    &mut self.in_nz[parent_idx]
                };
                *slot = (*slot as i64 + t.nz_delta) as u32;
                *slot
            };
            let (pmin, pmax) = if outgoing {
                (self.out_min[parent_idx], self.out_max[parent_idx])
            } else {
                (self.in_min[parent_idx], self.in_max[parent_idx])
            };
            let zero_member = (nz as usize) < size;
            let need_rescan = (t.rescan_min && !(pmin == 0.0 && zero_member))
                || (t.rescan_max && !(pmax == 0.0 && zero_member));
            if need_rescan {
                if outgoing {
                    rescans.push((t.color, c as u32));
                } else {
                    rescans.push((c as u32, t.color));
                }
            } else {
                // A flagged side whose zero extremum provably stands keeps
                // its value but no longer knows a specific attainer.
                if t.rescan_min {
                    if outgoing {
                        self.out_min_arg[parent_idx] = NO_ARG;
                    } else {
                        self.in_min_arg[parent_idx] = NO_ARG;
                    }
                }
                if t.rescan_max {
                    if outgoing {
                        self.out_max_arg[parent_idx] = NO_ARG;
                    } else {
                        self.in_max_arg[parent_idx] = NO_ARG;
                    }
                }
            }
            let (mut mn, mut mx) = (t.child_min, t.child_max);
            let (mut amn, mut amx) = (t.child_min_arg, t.child_max_arg);
            if t.count < size {
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
            if outgoing {
                let idx = i * cap + child;
                self.out_min[idx] = mn;
                self.out_max[idx] = mx;
                self.out_min_arg[idx] = amn;
                self.out_max_arg[idx] = amx;
                self.out_nz[idx] = t.child_nonzero;
            } else {
                let idx = child * cap + i;
                self.in_min[idx] = mn;
                self.in_max[idx] = mx;
                self.in_min_arg[idx] = amn;
                self.in_max_arg[idx] = amx;
                self.in_nz[idx] = t.child_nonzero;
            }
            self.row_err_dirty[i] = true;
            self.row_best_dirty[i] = true;
        }
        self.rescan_entries(p, &rescans, outgoing);
        if outgoing {
            self.entry_scratch_out = rescans;
        } else {
            self.entry_scratch_in = rescans;
        }
        self.touched_colors = batch;
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
    /// in insertion order — into a fresh touched-color batch and the entry
    /// extrema of column `c` (row `c` in the in direction). All reductions
    /// are exact, so the result does not depend on the chunk boundaries.
    fn merge_shard_records(&mut self, shards: usize, c: usize, outgoing: bool) {
        // Slot lookups self-validate (a stored index is live only if the
        // record at that index names the same color), so clearing the
        // record list is all the reset a new batch needs.
        self.touched_colors.clear();
        for shard in 0..shards {
            let records = std::mem::take(&mut self.shard_scratch[shard].records);
            for r in &records {
                self.merge_shard_record(r, c, outgoing);
            }
            self.shard_scratch[shard].records = records;
        }
    }

    /// Merge one shard's per-color aggregate into the touched-color batch
    /// and the entry extrema (the join-side half of
    /// [`ShardScratch::fold`]).
    fn merge_shard_record(&mut self, r: &ShardRecord, c: usize, outgoing: bool) {
        let cap = self.cap;
        let idx = if outgoing {
            r.color as usize * cap + c
        } else {
            c * cap + r.color as usize
        };
        let (cur_min, cur_max) = if outgoing {
            (self.out_min[idx], self.out_max[idx])
        } else {
            (self.in_min[idx], self.in_max[idx])
        };
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
        let (emn, emx, amn, amx) = if outgoing {
            (
                &mut self.out_min[idx],
                &mut self.out_max[idx],
                &mut self.out_min_arg[idx],
                &mut self.out_max_arg[idx],
            )
        } else {
            (
                &mut self.in_min[idx],
                &mut self.in_max[idx],
                &mut self.in_min_arg[idx],
                &mut self.in_max_arg[idx],
            )
        };
        if r.ext_min < *emn {
            *emn = r.ext_min;
            *amn = r.ext_min_arg;
        }
        if r.ext_max > *emx {
            *emx = r.ext_max;
            *amx = r.ext_max_arg;
        }
    }

    /// Rebuild the parent's member-axis entries after a split: out-entries
    /// `(c, j)` and in-entries `(j, c)`. Columns `c`/`child` saw their
    /// accumulator values change and are always rescanned; for every other
    /// column the values are untouched and membership only shrank, so the
    /// old extremum stands unless its tracked attainer departed to the
    /// child (with unknown attainers falling back to the conservative
    /// "child attained the parent's extremum" heuristic). Cost: `O(k)`
    /// exact checks plus `O(|parent|)` per column that actually lost an
    /// extremum.
    fn recompute_parent_axis(&mut self, p: &Partition, c: usize, child: usize) {
        let cap = self.cap;
        let parent_size = p.size(c as u32);
        let mut out_rescans = std::mem::take(&mut self.entry_scratch_out);
        let mut in_rescans = std::mem::take(&mut self.entry_scratch_in);
        out_rescans.clear();
        in_rescans.clear();
        // Whether one side of an entry lost its extremum: a zero extremum
        // stands while the entry keeps a zero-valued member (count rule,
        // checked first — the attainer may then be forgotten); otherwise
        // the tracked attainer must not have departed to the child, with
        // unknown attainers falling back to the conservative "child
        // attained it" heuristic. Returns (lost, forget_arg).
        let side_lost = |value: f64, zero_member: bool, arg: u32, fallback: bool| -> (bool, bool) {
            if value == 0.0 && zero_member {
                (false, arg != NO_ARG && p.color_of(arg) != c as u32)
            } else if arg == NO_ARG {
                (fallback, false)
            } else {
                (p.color_of(arg) != c as u32, false)
            }
        };
        for j in 0..self.k {
            if j == c || j == child {
                out_rescans.push((c as u32, j as u32));
                if !self.symmetric {
                    // In-entry over the parent's member axis with the
                    // changed column as first index: (c, c) for j == c,
                    // (child, c) for j == child.
                    in_rescans.push((j as u32, c as u32));
                }
                continue;
            }
            // The parent's nonzero count over an unchanged column is the
            // old count minus what the child took (the child axis was
            // rebuilt just before this).
            let out_idx = c * cap + j;
            let out_child = child * cap + j;
            self.out_nz[out_idx] -= self.out_nz[out_child];
            let zero_member = (self.out_nz[out_idx] as usize) < parent_size;
            let (min_lost, min_forget) = side_lost(
                self.out_min[out_idx],
                zero_member,
                self.out_min_arg[out_idx],
                self.out_min[out_child] == self.out_min[out_idx],
            );
            let (max_lost, max_forget) = side_lost(
                self.out_max[out_idx],
                zero_member,
                self.out_max_arg[out_idx],
                self.out_max[out_child] == self.out_max[out_idx],
            );
            if min_lost || max_lost {
                out_rescans.push((c as u32, j as u32));
            } else {
                if min_forget {
                    self.out_min_arg[out_idx] = NO_ARG;
                }
                if max_forget {
                    self.out_max_arg[out_idx] = NO_ARG;
                }
            }
            if self.symmetric {
                continue;
            }
            let in_idx = j * cap + c;
            let in_child = j * cap + child;
            self.in_nz[in_idx] -= self.in_nz[in_child];
            let zero_member = (self.in_nz[in_idx] as usize) < parent_size;
            let (min_lost, min_forget) = side_lost(
                self.in_min[in_idx],
                zero_member,
                self.in_min_arg[in_idx],
                self.in_min[in_child] == self.in_min[in_idx],
            );
            let (max_lost, max_forget) = side_lost(
                self.in_max[in_idx],
                zero_member,
                self.in_max_arg[in_idx],
                self.in_max[in_child] == self.in_max[in_idx],
            );
            if min_lost || max_lost {
                in_rescans.push((j as u32, c as u32));
            } else {
                if min_forget {
                    self.in_min_arg[in_idx] = NO_ARG;
                }
                if max_forget {
                    self.in_max_arg[in_idx] = NO_ARG;
                }
            }
        }
        self.rescan_entries(p, &out_rescans, true);
        self.rescan_entries(p, &in_rescans, false);
        self.entry_scratch_out = out_rescans;
        self.entry_scratch_in = in_rescans;
    }

    /// Recompute the stale witness rows. `beta` is the target-size exponent
    /// of the witness weighting (the paper's β). Rows whose *entries*
    /// changed since the last refresh rescan both their maximum error and
    /// their cached best; a β change alone only stales the cached
    /// β-weighted bests (`row_max_err` is β-independent), so a β-only
    /// rebuild skips the error bookkeeping entirely. Large batches of
    /// stale rows are sharded across the pool — each row is an independent
    /// `O(k)` scan writing only its own cache slots, so results do not
    /// depend on the shard count.
    pub fn refresh(&mut self, p: &Partition, beta: f64) {
        assert!(
            self.track_summaries,
            "refresh requires a summary-tracking engine"
        );
        if beta != self.last_beta {
            self.row_best_dirty[..self.k].fill(true);
            self.last_beta = beta;
        }
        let k = self.k;
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        dirty.clear();
        dirty.extend(
            (0..k as u32)
                .filter(|&s| self.row_err_dirty[s as usize] || self.row_best_dirty[s as usize]),
        );
        if dirty.is_empty() {
            self.dirty_scratch = dirty;
            return;
        }
        let view = SummaryView {
            k,
            cap: self.cap,
            symmetric: self.symmetric,
            out_min: &self.out_min,
            out_max: &self.out_max,
            in_min: &self.in_min,
            in_max: &self.in_max,
        };
        let shards = if dirty.len() >= 2 && dirty.len() * k >= self.par_min_scan_work {
            self.pool.slots()
        } else {
            1
        };
        let row_max_err = SyncSliceMut::new(&mut self.row_max_err);
        let row_best = SyncSliceMut::new(&mut self.row_best);
        let err_dirty = SyncSliceMut::new(&mut self.row_err_dirty);
        let best_dirty = SyncSliceMut::new(&mut self.row_best_dirty);
        run_shards(&self.pool, shards, |shard| {
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
            self.row_err_dirty[..self.k].iter().all(|d| !d),
            "max_error called with dirty witness rows; call refresh() first"
        );
        self.row_max_err[..self.k]
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
            let Some(row) = &self.row_best[s] else {
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
            if let Some(row) = &self.row_best[s] {
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
                let row = self.row_best[s as usize].as_ref().expect("scored row");
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
            self.row_err_dirty[..self.k]
                .iter()
                .chain(self.row_best_dirty[..self.k].iter())
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
        if p.num_colors() != self.k {
            return Err(format!(
                "color count {} != engine {}",
                p.num_colors(),
                self.k
            ));
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        if self.track_summaries {
            let scratch = DegreeMatrices::compute(g, p);
            for i in 0..self.k {
                for j in 0..self.k {
                    let idx = i * self.cap + j;
                    let sidx = i * self.k + j;
                    let (in_min_ours, in_max_ours) = if self.symmetric {
                        (
                            self.out_min[j * self.cap + i],
                            self.out_max[j * self.cap + i],
                        )
                    } else {
                        (self.in_min[idx], self.in_max[idx])
                    };
                    for (name, ours, theirs) in [
                        ("out_min", self.out_min[idx], scratch.out_min[sidx]),
                        ("out_max", self.out_max[idx], scratch.out_max[sidx]),
                        ("in_min", in_min_ours, scratch.in_min[sidx]),
                        ("in_max", in_max_ours, scratch.in_max[sidx]),
                    ] {
                        if !close(ours, theirs) {
                            return Err(format!(
                                "{name}[{i}][{j}]: incremental {ours} vs scratch {theirs}"
                            ));
                        }
                    }
                    // Tracked extremum witnesses, when known, must attain
                    // their entry's value and belong to the member axis
                    // (read through the storage-routed accessors, so the
                    // check covers both dense matrices and tiered rows).
                    for (name, arg, val) in [
                        ("out_min_arg", self.out_min_arg[idx], self.out_min[idx]),
                        ("out_max_arg", self.out_max_arg[idx], self.out_max[idx]),
                    ] {
                        if arg != NO_ARG {
                            let attained = self.out_degree_of(arg, j as u32);
                            if p.color_of(arg) as usize != i || attained != val {
                                return Err(format!(
                                    "{name}[{i}][{j}]: witness {arg} (color {}, value {attained}) does not attain {val}",
                                    p.color_of(arg)
                                ));
                            }
                        }
                    }
                    if !self.symmetric {
                        for (name, arg, val) in [
                            ("in_min_arg", self.in_min_arg[idx], self.in_min[idx]),
                            ("in_max_arg", self.in_max_arg[idx], self.in_max[idx]),
                        ] {
                            if arg != NO_ARG {
                                let attained = self.in_degree_of(arg, i as u32);
                                if p.color_of(arg) as usize != j || attained != val {
                                    return Err(format!(
                                        "{name}[{i}][{j}]: witness {arg} (color {}, value {attained}) does not attain {val}",
                                        p.color_of(arg)
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        if self.track_summaries {
            // Nonzero-member counts, recounted from the maintained
            // accumulators (which are themselves verified below). Note
            // these deliberately count maintained *values*: with inexact
            // weights an incremental subtraction can leave a tiny residue
            // where a fresh sum gives an exact zero, and the zero-skip
            // rule is sound for exactly this value-based count.
            for i in 0..self.k {
                let mut counts = vec![0u32; self.k];
                for &u in p.members(i as u32) {
                    for (j, count) in counts.iter_mut().enumerate() {
                        *count += u32::from(self.out_degree_of(u, j as u32) != 0.0);
                    }
                }
                for (j, &count) in counts.iter().enumerate() {
                    if self.out_nz[i * self.cap + j] != count {
                        return Err(format!(
                            "out_nz[{i}][{j}]: incremental {} vs recounted {}",
                            self.out_nz[i * self.cap + j],
                            count
                        ));
                    }
                }
            }
            if !self.symmetric {
                for j in 0..self.k {
                    let mut counts = vec![0u32; self.k];
                    for &v in p.members(j as u32) {
                        for (i, count) in counts.iter_mut().enumerate() {
                            *count += u32::from(self.in_degree_of(v, i as u32) != 0.0);
                        }
                    }
                    for (i, &count) in counts.iter().enumerate() {
                        if self.in_nz[i * self.cap + j] != count {
                            return Err(format!(
                                "in_nz[{i}][{j}]: incremental {} vs recounted {}",
                                self.in_nz[i * self.cap + j],
                                count
                            ));
                        }
                    }
                }
            }
        }
        // Accumulators, recomputed fresh.
        for v in 0..self.n as NodeId {
            let mut fresh = vec![0.0f64; self.k];
            for (t, w) in g.out_edges(v) {
                fresh[p.color_of(t) as usize] += w;
            }
            for (j, &expected) in fresh.iter().enumerate() {
                if !close(self.out_degree_of(v, j as u32), expected) {
                    return Err(format!(
                        "dout[{v}][{j}]: incremental {} vs fresh {}",
                        self.out_degree_of(v, j as u32),
                        expected
                    ));
                }
            }
            let mut fresh = vec![0.0f64; self.k];
            for (s, w) in g.in_edges(v) {
                fresh[p.color_of(s) as usize] += w;
            }
            for (j, &expected) in fresh.iter().enumerate() {
                if !close(self.in_degree_of(v, j as u32), expected) {
                    return Err(format!(
                        "din[{v}][{j}]: incremental {} vs fresh {}",
                        self.in_degree_of(v, j as u32),
                        expected
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- internals ----

    /// Rebuild every pair summary indexed along color `s`'s member axis:
    /// out-entries `(s, j)` and in-entries `(j, s)` for all `j`, by scanning
    /// the accumulator rows of `P_s`'s members. `O(|P_s| · k)`. Each shard
    /// (one below the scan-work threshold) folds a contiguous chunk of the
    /// members into its own min/max rows, and the rows merge in shard
    /// order with strict comparisons, which keep the first attainer — the
    /// member-order scan's values and extremum witnesses, bit for bit.
    /// Sparse storage folds only the stored entries per member and closes
    /// the merged rows with one `fold_zero_tail` pass: any column some
    /// member misses folds a 0.0 with the `NO_ARG` witness. The min/max
    /// *values* equal the dense scan's exactly; only zero-extremum
    /// attainers differ (NO_ARG instead of the first zero-valued member),
    /// which is unobservable — attainers gate rescans, never values, and
    /// NO_ARG forces the conservative rescan.
    fn recompute_color_axis(&mut self, p: &Partition, s: usize) {
        let k = self.k;
        let cap = self.cap;
        let members = p.members(s as u32);
        let shards = if members.len() >= 2 && members.len() * k >= self.par_min_scan_work {
            self.pool.slots()
        } else {
            1
        };
        let symmetric = self.symmetric;
        for sc in &mut self.shard_scratch[..shards] {
            sc.size_axis(cap);
        }
        {
            let dout = &self.dout;
            let din = &self.din;
            let sparse_out = &self.sparse_out;
            let sparse_in = &self.sparse_in;
            let sparse_accum = self.sparse_accum;
            let scratch = SyncSliceMut::new(&mut self.shard_scratch);
            run_shards(&self.pool, shards, |shard| {
                let (lo, hi) = chunk_range(members.len(), shards, shard);
                // SAFETY: each shard touches only its own scratch entry.
                let sc = unsafe { scratch.get_mut(shard) };
                let (omin, rest) = sc.axis.split_at_mut(cap);
                let (omax, rest) = rest.split_at_mut(cap);
                let (imin, imax) = rest.split_at_mut(cap);
                let (aomin, arest) = sc.axis_arg.split_at_mut(cap);
                let (aomax, arest) = arest.split_at_mut(cap);
                let (aimin, aimax) = arest.split_at_mut(cap);
                let (onz, inz) = sc.axis_nz.split_at_mut(cap);
                omin[..k].fill(f64::INFINITY);
                omax[..k].fill(f64::NEG_INFINITY);
                aomin[..k].fill(NO_ARG);
                aomax[..k].fill(NO_ARG);
                onz[..k].fill(0);
                if !symmetric {
                    imin[..k].fill(f64::INFINITY);
                    imax[..k].fill(f64::NEG_INFINITY);
                    aimin[..k].fill(NO_ARG);
                    aimax[..k].fill(NO_ARG);
                    inz[..k].fill(0);
                }
                // The dense out scan and (directed only) the in scan route
                // through the vectorized row kernel — exactly the scalar
                // member-order scan, bit for bit (see
                // `kernels::fold_minmax_row`).
                let chunk = &members[lo..hi];
                if sparse_accum {
                    for &u in chunk {
                        let row = &sparse_out[u as usize];
                        kernels::fold_minmax_sparse_row(u, row, k, omin, omax, aomin, aomax, onz);
                        if !symmetric {
                            let row = &sparse_in[u as usize];
                            kernels::fold_minmax_sparse_row(
                                u, row, k, imin, imax, aimin, aimax, inz,
                            );
                        }
                    }
                } else {
                    for &u in chunk {
                        let base = u as usize * cap;
                        let row = &dout[base..base + k];
                        kernels::fold_minmax_row(u, row, omin, omax, aomin, aomax, onz);
                        if !symmetric {
                            let row = &din[base..base + k];
                            kernels::fold_minmax_row(u, row, imin, imax, aimin, aimax, inz);
                        }
                    }
                }
            });
        }
        // Merge the shard rows into the first shard's, in shard order.
        let (head, rest) = self.shard_scratch.split_at_mut(1);
        let head = &mut head[0];
        let halves: &[usize] = if symmetric { &[0] } else { &[0, 1] };
        for sc in &rest[..shards - 1] {
            for &h in halves {
                let (lo, hi) = (2 * h * cap, (2 * h + 1) * cap);
                for j in 0..k {
                    if sc.axis[lo + j] < head.axis[lo + j] {
                        head.axis[lo + j] = sc.axis[lo + j];
                        head.axis_arg[lo + j] = sc.axis_arg[lo + j];
                    }
                    if sc.axis[hi + j] > head.axis[hi + j] {
                        head.axis[hi + j] = sc.axis[hi + j];
                        head.axis_arg[hi + j] = sc.axis_arg[hi + j];
                    }
                    head.axis_nz[h * cap + j] += sc.axis_nz[h * cap + j];
                }
            }
        }
        let (omin, rest) = head.axis.split_at_mut(cap);
        let (omax, rest) = rest.split_at_mut(cap);
        let (imin, imax) = rest.split_at_mut(cap);
        let (aomin, arest) = head.axis_arg.split_at_mut(cap);
        let (aomax, arest) = arest.split_at_mut(cap);
        let (aimin, aimax) = arest.split_at_mut(cap);
        let (onz, inz) = head.axis_nz.split_at_mut(cap);
        if self.sparse_accum {
            let count = members.len() as u32;
            kernels::fold_zero_tail(count, k, omin, omax, aomin, aomax, onz);
            if !symmetric {
                kernels::fold_zero_tail(count, k, imin, imax, aimin, aimax, inz);
            }
        }
        for j in 0..k {
            self.out_min[s * cap + j] = omin[j];
            self.out_max[s * cap + j] = omax[j];
            self.out_min_arg[s * cap + j] = aomin[j];
            self.out_max_arg[s * cap + j] = aomax[j];
            self.out_nz[s * cap + j] = onz[j];
        }
        if !symmetric {
            for j in 0..k {
                self.in_min[j * cap + s] = imin[j];
                self.in_max[j * cap + s] = imax[j];
                self.in_min_arg[j * cap + s] = aimin[j];
                self.in_max_arg[j * cap + s] = aimax[j];
                self.in_nz[j * cap + s] = inz[j];
            }
        }
        self.row_err_dirty[s] = true;
        self.row_best_dirty[s] = true;
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
        let shards = self.pool.slots();
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
            run_shards(&self.pool, shards, |shard| {
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

    /// Recompute a batch of pair-summary entries from their member axes:
    /// out-entry `(i, j)` scans `P_i`'s members, in-entry `(i, j)` scans
    /// `P_j`'s (values, first attainers in member order, nonzero counts).
    /// Each shard (one below the scan-work threshold) takes a contiguous
    /// chunk of whole entries and writes only those, so results do not
    /// depend on the shard count. A chunk whose entries share one member
    /// axis — the parent-axis repair after a split always does — folds all
    /// its columns in a single member pass
    /// ([`kernels::scan_gather_columns`]), loading each accumulator row
    /// once; per column that is the same member-order fold, bit for bit.
    fn rescan_entries(&mut self, p: &Partition, entries: &[(u32, u32)], outgoing: bool) {
        if entries.is_empty() {
            return;
        }
        // (member color, column) of an entry.
        let axis = |&(i, j): &(u32, u32)| if outgoing { (i, j) } else { (j, i) };
        let work: usize = entries.iter().map(|e| p.size(axis(e).0)).sum();
        let shards = if entries.len() >= 2 && work >= self.par_min_scan_work {
            self.pool.slots()
        } else {
            1
        };
        let cap = self.cap;
        for sc in &mut self.shard_scratch[..shards] {
            sc.size_axis(cap);
        }
        let sparse = self.sparse_accum;
        let (dense, rows, emin, emax, amin, amax, enz) = if outgoing || self.symmetric {
            (
                &self.dout,
                &self.sparse_out,
                &mut self.out_min,
                &mut self.out_max,
                &mut self.out_min_arg,
                &mut self.out_max_arg,
                &mut self.out_nz,
            )
        } else {
            (
                &self.din,
                &self.sparse_in,
                &mut self.in_min,
                &mut self.in_max,
                &mut self.in_min_arg,
                &mut self.in_max_arg,
                &mut self.in_nz,
            )
        };
        let (emin, emax) = (SyncSliceMut::new(emin), SyncSliceMut::new(emax));
        let (amin, amax) = (SyncSliceMut::new(amin), SyncSliceMut::new(amax));
        let enz = SyncSliceMut::new(enz);
        let write = |&(i, j): &(u32, u32), (mn, mx, an, ax, nz): (f64, f64, u32, u32, u32)| {
            let idx = i as usize * cap + j as usize;
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
        run_shards(&self.pool, shards, |shard| {
            let (lo, hi) = chunk_range(entries.len(), shards, shard);
            let chunk = &entries[lo..hi];
            let Some(first) = chunk.first() else {
                return;
            };
            let members = p.members(axis(first).0);
            if chunk.len() < 2 || chunk.iter().any(|e| axis(e).0 != axis(first).0) {
                for e in chunk {
                    let (color, col) = axis(e);
                    let members = p.members(color);
                    write(
                        e,
                        if sparse {
                            kernels::scan_gather_column_sparse(members, rows, col)
                        } else {
                            kernels::scan_gather_column(members, dense, cap, col as usize)
                        },
                    );
                }
                return;
            }
            debug_assert!(chunk.len() <= cap);
            let cols: Vec<u32> = chunk.iter().map(|e| axis(e).1).collect();
            // SAFETY: each shard touches only its own scratch entry.
            let sc = unsafe { scratch.get_mut(shard) };
            {
                // Results land at mins [s], maxs [cap + s] (witnesses
                // likewise) and counts [s].
                let (mn, mx) = sc.axis.split_at_mut(cap);
                let (amn, amx) = sc.axis_arg.split_at_mut(cap);
                let (mx, amx, nz) = (&mut mx[..cap], &mut amx[..cap], &mut sc.axis_nz[..cap]);
                if sparse {
                    kernels::scan_gather_columns_sparse(members, rows, &cols, mn, mx, amn, amx, nz);
                } else {
                    kernels::scan_gather_columns(members, dense, cap, &cols, mn, mx, amn, amx, nz);
                }
            }
            for (s, e) in chunk.iter().enumerate() {
                let (a, b) = (&sc.axis, &sc.axis_arg);
                write(e, (a[s], a[cap + s], b[s], b[cap + s], sc.axis_nz[s]));
            }
        });
    }

    /// Grow the column capacity to hold `needed` colors. Capacity doubles
    /// (`next_power_of_two`), so a long split sequence pays `O(log k)`
    /// regrowths — amortized `O(1)` copies per new color, not `O(k²)` copy
    /// traffic per shortfall — and each matrix regrows straight to its
    /// final `new_rows × new_cap` footprint in one allocation + one prefix
    /// copy (see [`regrow`]; square summary matrices used to restride to
    /// `old × new` and then resize again). Engines with tiered sparse rows
    /// (degrees-only *and* sparse-storage summary engines) skip the
    /// accumulator restride entirely: colors are entry keys there, so the
    /// rows never depend on `cap`.
    fn ensure_capacity(&mut self, needed: usize) {
        if needed <= self.cap {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let old_cap = self.cap;
        if self.track_summaries {
            if !self.sparse_accum {
                regrow(&mut self.dout, self.n, self.n, old_cap, new_cap, 0.0);
                if !self.symmetric {
                    regrow(&mut self.din, self.n, self.n, old_cap, new_cap, 0.0);
                }
            }
            regrow(&mut self.out_min, old_cap, new_cap, old_cap, new_cap, 0.0);
            regrow(&mut self.out_max, old_cap, new_cap, old_cap, new_cap, 0.0);
            regrow(
                &mut self.out_min_arg,
                old_cap,
                new_cap,
                old_cap,
                new_cap,
                NO_ARG,
            );
            regrow(
                &mut self.out_max_arg,
                old_cap,
                new_cap,
                old_cap,
                new_cap,
                NO_ARG,
            );
            regrow(&mut self.out_nz, old_cap, new_cap, old_cap, new_cap, 0);
            if !self.symmetric {
                regrow(&mut self.in_min, old_cap, new_cap, old_cap, new_cap, 0.0);
                regrow(&mut self.in_max, old_cap, new_cap, old_cap, new_cap, 0.0);
                regrow(
                    &mut self.in_min_arg,
                    old_cap,
                    new_cap,
                    old_cap,
                    new_cap,
                    NO_ARG,
                );
                regrow(
                    &mut self.in_max_arg,
                    old_cap,
                    new_cap,
                    old_cap,
                    new_cap,
                    NO_ARG,
                );
                regrow(&mut self.in_nz, old_cap, new_cap, old_cap, new_cap, 0);
            }
            self.row_max_err.resize(new_cap, 0.0);
            self.row_best.resize(new_cap, None);
            self.row_err_dirty.resize(new_cap, true);
            self.row_best_dirty.resize(new_cap, true);
            self.color_slot.resize(new_cap, u32::MAX);
        }
        self.cap = new_cap;
    }
}

/// Witness selection over from-scratch [`DegreeMatrices`], mirroring the
/// engine's row-ordered scan — including its floating-point operation order
/// and first-strictly-greater tie-breaking — exactly. This is what the
/// non-incremental reference stepper ([`crate::rothko::Rothko::run_reference`])
/// uses, so the incremental and from-scratch paths pick identical witnesses
/// whenever the underlying matrices are numerically identical.
pub fn pick_witness_scratch(
    m: &DegreeMatrices,
    p: &Partition,
    alpha: f64,
    beta: f64,
) -> Option<WitnessCandidate> {
    pick_witnesses_scratch(m, p, alpha, beta, 1)
        .into_iter()
        .next()
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

/// Compact a row-major node-axis matrix through a node remap: survivor
/// rows slide down in order (in place), removed rows are dropped, and the
/// vector is truncated to the new node count.
fn compact_rows(data: &mut Vec<f64>, n_old: usize, cap: usize, remap: &NodeRemap) {
    if cap == 0 {
        return;
    }
    for v in 0..n_old as NodeId {
        if let Some(nv) = remap.map(v) {
            if nv != v {
                let src = v as usize * cap;
                let dst = nv as usize * cap;
                data.copy_within(src..src + cap, dst);
            }
        }
    }
    data.truncate(remap.new_len() * cap);
}

/// Compact per-node tiered rows through a node remap (survivors keep their
/// relative order).
fn compact_sparse_rows(rows: &mut Vec<RowRep>, remap: &NodeRemap) {
    let old = std::mem::take(rows);
    *rows = old
        .into_iter()
        .enumerate()
        .filter(|&(v, _)| !remap.is_removed(v as NodeId))
        .map(|(_, r)| r)
        .collect();
}

/// Regrow a row-major matrix from `rows × old_cap` to `new_rows × new_cap`
/// columns, filling fresh cells with `fill`. One geometric allocation to
/// the final footprint (both axes at once — no intermediate copy through
/// an `old_rows × new_cap` shape), then only the old `rows × old_cap`
/// prefix of each row is copied. The fresh allocation is deliberate:
/// zero-filled matrices come from `alloc_zeroed` (lazy kernel zero pages —
/// the dominant regrowth, a 10k-row accumulator growing its column axis,
/// never writes the ~95% of the target that starts as fill), where an
/// in-place `resize` + restride would stream the whole footprint through
/// the store buffers twice.
fn regrow<T: Copy>(
    data: &mut Vec<T>,
    rows: usize,
    new_rows: usize,
    old_cap: usize,
    new_cap: usize,
    fill: T,
) {
    debug_assert!(new_cap >= old_cap && new_rows >= rows);
    debug_assert_eq!(data.len(), rows * old_cap);
    let mut grown = vec![fill; new_rows * new_cap];
    for r in 0..rows {
        grown[r * new_cap..r * new_cap + old_cap]
            .copy_from_slice(&data[r * old_cap..(r + 1) * old_cap]);
    }
    *data = grown;
}

/// Build one sparse accumulator row from a node's arc slices: per-color
/// weight sums in arc order (stable sort keeps same-color weights in arc
/// order, so each sum matches the dense accumulation bit-for-bit), zeros
/// dropped, sorted by color.
fn sparse_row_from_arcs((nbrs, wts): (&[NodeId], &[f64]), p: &Partition) -> Vec<(u32, f64)> {
    let mut pairs: Vec<(u32, f64)> = nbrs
        .iter()
        .zip(wts.iter())
        .map(|(&u, &w)| (p.color_of(u), w))
        .collect();
    pairs.sort_by_key(|&(c, _)| c);
    let mut row: Vec<(u32, f64)> = Vec::new();
    for (c, w) in pairs {
        match row.last_mut() {
            Some((lc, lw)) if *lc == c => *lw += w,
            _ => row.push((c, w)),
        }
    }
    row.retain(|&(_, w)| w != 0.0);
    row
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

/// Fold one arc-accumulator delta of an edge batch into the per-(node,
/// column) combined list (first-touch order, so batch processing is
/// deterministic).
fn accumulate_edge(
    list: &mut Vec<(NodeId, u32, f64)>,
    slots: &mut HashMap<(NodeId, u32), usize>,
    u: NodeId,
    col: u32,
    delta: f64,
) {
    match slots.entry((u, col)) {
        std::collections::hash_map::Entry::Occupied(e) => list[*e.get()].2 += delta,
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(list.len());
            list.push((u, col, delta));
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
            let mut sparse = IncrementalDegrees::new_degrees_only(&g, &p);
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
                // Witness state equals a freshly built engine bit-for-bit.
                dense.refresh(&p, 1.0);
                let mut fresh = IncrementalDegrees::new(&g, &p);
                fresh.refresh(&p, 1.0);
                assert_eq!(dense.max_error().to_bits(), fresh.max_error().to_bits());
                assert_eq!(dense.pick_witness(&p, 1.0), fresh.pick_witness(&p, 1.0));
                assert_eq!(
                    dense.pick_merge(f64::INFINITY),
                    fresh.pick_merge(f64::INFINITY)
                );
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
            assert_eq!(
                engine.pick_merge(f64::INFINITY),
                pick_merge_scratch(&m, f64::INFINITY)
            );
            let cand = engine.pick_merge(f64::INFINITY).expect("k >= 2");
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
            let mut sparse = IncrementalDegrees::new_degrees_only(&g, &p);
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

            // Degrees-only engines take the same events through sparse rows.
            let mut sparse = IncrementalDegrees::new_degrees_only(&compacted, &p);
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
