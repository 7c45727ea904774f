//! Reduced-graph construction (Sec. 3.2).
//!
//! Given a coloring `P = {P_1..P_k}` of a weighted directed graph `G`, the
//! reduced graph `Ĝ` has one node per color and an edge between colors `i`
//! and `j` whenever some node of `P_i` has an edge into `P_j`. Different
//! applications use different edge weights on `Ĝ`; this module implements the
//! weightings used in the paper:
//!
//! * [`ReductionWeighting::Sum`] — `ŵ(i,j) = w(P_i, P_j)`; used as the
//!   capacity `ĉ₂` for the max-flow upper bound (Theorem 6).
//! * [`ReductionWeighting::SqrtNormalized`] — `w(P_i,P_j) / √(|P_i|·|P_j|)`;
//!   the LP reduction of Eq. (4)/(6).
//! * [`ReductionWeighting::TargetAverage`] — `w(P_i,P_j) / |P_j|`; the
//!   Grohe et al. variant discussed after Theorem 4.
//! * [`ReductionWeighting::SourceAverage`] — `w(P_i,P_j) / |P_i|`; the
//!   average out-weight of a node of `P_i` into `P_j`, useful for
//!   random-walk style applications.
//!
//! Two construction paths are provided. [`reduced_graph`] /
//! [`quotient_matrix`] rebuild from the graph in `O(n + m + k²)` — right for
//! one-shot use. [`ReducedDelta`] instead *maintains* the quotient matrix
//! across [`SplitEvent`]s in `O(deg(moved) + k)` per split — and across
//! edge insert/delete/reweight batches in `O(events)`
//! ([`ReducedDelta::apply_edge_batch`]) — so a budget sweep that refines
//! one coloring through many color counts pays the `O(m)` scan once
//! instead of once per sweep point, and survives graph updates without a
//! rebuild. [`PatchedReducedGraph`] completes the chain: the *emitted*
//! reduced instance is itself patched in place from what the delta
//! recorded instead of re-derived with a dense `O(k²)` sweep. An edge
//! batch records the cells it changed, so re-emitting after one costs
//! `O(changed cells)`; a split, merge or node insert/removal changes a
//! color wholesale (its size, or every entry of its row and column), and
//! re-emitting after one costs `O(dirty · k)`.

use crate::kernels::fold_add;
use crate::partition::{MergeEvent, Partition, SplitEvent};
use crate::q_error::DegreeMatrices;
use qsc_graph::delta::EdgeEvent;
use qsc_graph::{Graph, GraphBuilder};

/// Weighting scheme for the reduced graph's edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReductionWeighting {
    /// Total weight between the colors.
    #[default]
    Sum,
    /// Total weight divided by `sqrt(|P_i| * |P_j|)` (the LP reduction).
    SqrtNormalized,
    /// Total weight divided by the size of the target color.
    TargetAverage,
    /// Total weight divided by the size of the source color.
    SourceAverage,
}

impl ReductionWeighting {
    /// Apply the weighting to a raw inter-color weight.
    pub fn apply(&self, sum: f64, size_i: usize, size_j: usize) -> f64 {
        match self {
            ReductionWeighting::Sum => sum,
            ReductionWeighting::SqrtNormalized => sum / ((size_i * size_j) as f64).sqrt(),
            ReductionWeighting::TargetAverage => sum / size_j as f64,
            ReductionWeighting::SourceAverage => sum / size_i as f64,
        }
    }
}

/// Construct the reduced graph of `g` under coloring `p` with the given edge
/// weighting. The reduced graph is always directed (color-pair weights are
/// not symmetric in general even for undirected inputs once normalized).
pub fn reduced_graph(g: &Graph, p: &Partition, weighting: ReductionWeighting) -> Graph {
    reduced_graph_with(g, p, |_, _, sum, size_i, size_j| {
        weighting.apply(sum, size_i, size_j)
    })
}

/// Construct the reduced graph with a custom weighting callback
/// `f(i, j, w(P_i,P_j), |P_i|, |P_j|) -> ŵ(i,j)`. Returning `0.0` omits the
/// edge.
pub fn reduced_graph_with<F>(g: &Graph, p: &Partition, mut weight: F) -> Graph
where
    F: FnMut(usize, usize, f64, usize, usize) -> f64,
{
    assert_eq!(
        p.num_nodes(),
        g.num_nodes(),
        "partition does not match graph"
    );
    let k = p.num_colors();
    let matrices = DegreeMatrices::compute(g, p);
    let mut b = GraphBuilder::new_directed(k);
    for i in 0..k {
        for j in 0..k {
            let sum = matrices.pair_weight(i, j);
            if matrices.nonzero[i * k + j] == 0 && sum == 0.0 {
                continue;
            }
            let w = weight(i, j, sum, p.size(i as u32), p.size(j as u32));
            if w != 0.0 {
                b.add_edge(i as u32, j as u32, w);
            }
        }
    }
    b.build()
}

/// The raw `k × k` inter-color weight matrix `w(P_i, P_j)` (row-major).
pub fn quotient_matrix(g: &Graph, p: &Partition) -> Vec<f64> {
    DegreeMatrices::compute(g, p).sum
}

/// Incrementally maintained quotient matrix `w(P_i, P_j)` of a coloring.
///
/// Built once in `O(n + m)` and then patched per [`SplitEvent`] in
/// `O(deg(moved) + k)` — only the entries involving the split parent, the
/// new child, and the colors of the moved nodes' neighbors change, and each
/// changed entry is adjusted by the exact weight that moved (no rescan of
/// unaffected colors). This is the reduction-layer analogue of
/// [`crate::q_error::IncrementalDegrees`]: where the engine maintains the
/// *error* state of a refinement, `ReducedDelta` maintains the *reduced
/// instance* built from it, so a budget sweep can re-derive the reduced
/// graph at every checkpoint in `O(k²)` (from the maintained matrix)
/// instead of `O(m + k²)` (from the input graph).
///
/// Maintained sums match [`quotient_matrix`] exactly for integer-valued
/// edge weights; for general floats they agree up to floating-point
/// associativity (the incremental path adds and subtracts weights in a
/// different order). Weights cancelled down to an exact zero are treated as
/// absent, mirroring the from-scratch path's omission of zero-weight edges.
#[derive(Clone, Debug)]
pub struct ReducedDelta {
    k: usize,
    /// Row stride of `sum`; grows geometrically as colors are added.
    cap: usize,
    /// `sum[i * cap + j] = w(P_i, P_j)`.
    sum: Vec<f64>,
    /// Color sizes, mirrored from the partition.
    sizes: Vec<usize>,
    /// Whether the source graph was undirected (edge events then apply to
    /// both stored arc directions, mirroring the CSR's symmetric storage).
    symmetric: bool,
    /// Colors whose row or column entries (or size) changed since the last
    /// [`Self::take_dirty_colors`], in first-dirtied order — every entry a
    /// split, merge, node event or edge batch touches has one of these as
    /// an index. This is the persisted dirty set ([`ReducedSnapshot`]).
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    /// Which dirty colors changed *wholesale* (a split, merge, node
    /// insert/removal, or a fresh or restored delta): their whole row and
    /// column must be re-emitted. A color dirtied only by edge batches
    /// changed just at the recorded `cells`.
    wholesale: Vec<bool>,
    /// Cells `(i, j)` edge batches changed since the last take, both
    /// orientations on undirected graphs. May hold duplicates; they are
    /// folded away whenever the list doubles past `max(k, its length
    /// after the last fold)`, so it stays within twice the distinct cells
    /// (or `2k`) plus one batch.
    cells: Vec<(u32, u32)>,
    cells_folded: usize,
}

/// A [`ReducedDelta`]'s complete logical state, captured by
/// [`ReducedDelta::snapshot`] and restored by
/// [`ReducedDelta::from_snapshot`]. The sum matrix is stored *tight*
/// (`k × k`, capacity padding stripped — the stride is recomputed on
/// load and is unobservable). The pending dirty set is included in its
/// exact order: colors not yet drained by
/// [`ReducedDelta::take_dirty_colors`] must still be reported after a
/// restore, or the first post-restore re-emission would silently miss
/// updates the writer had buffered.
#[derive(Clone, Debug, PartialEq)]
pub struct ReducedSnapshot {
    /// Color count.
    pub k: usize,
    /// Tight `k × k` row-major quotient matrix.
    pub sum: Vec<f64>,
    /// Color sizes, length `k`.
    pub sizes: Vec<usize>,
    /// Whether the source graph was undirected.
    pub symmetric: bool,
    /// Pending dirty colors, in accumulation order. Ids at or past `k`
    /// are colors removed by merges since the last drain.
    pub dirty: Vec<u32>,
}

impl ReducedDelta {
    /// Build the quotient matrix of `p` on `g` in `O(n + m)` time.
    pub fn new(g: &Graph, p: &Partition) -> Self {
        assert_eq!(
            p.num_nodes(),
            g.num_nodes(),
            "partition does not match graph"
        );
        let k = p.num_colors();
        let cap = k.next_power_of_two().max(4);
        let mut sum = vec![0.0f64; cap * cap];
        for (u, v, w) in g.arcs() {
            sum[p.color_of(u) as usize * cap + p.color_of(v) as usize] += w;
        }
        let mut flags = vec![false; cap];
        flags[..k].fill(true);
        ReducedDelta {
            k,
            cap,
            sum,
            sizes: p.sizes(),
            symmetric: !g.is_directed(),
            dirty: (0..k as u32).collect(),
            dirty_flag: flags.clone(),
            wholesale: flags,
            cells: Vec::new(),
            cells_folded: 0,
        }
    }

    /// Capture the complete logical state for persistence; see
    /// [`ReducedSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> ReducedSnapshot {
        let k = self.k;
        let mut sum = Vec::with_capacity(k * k);
        for i in 0..k {
            sum.extend_from_slice(&self.sum[i * self.cap..i * self.cap + k]);
        }
        ReducedSnapshot {
            k,
            sum,
            sizes: self.sizes.clone(),
            symmetric: self.symmetric,
            dirty: self.dirty.clone(),
        }
    }

    /// Rebuild from a snapshot, bit-identical to the instance that
    /// produced it (same pair weights, same pending dirty set). The
    /// snapshot does not say which cells an edge batch changed, so every
    /// pending dirty color is treated as changed wholesale: re-emission
    /// does more work than on the writer, and emits the same values.
    ///
    /// A pending dirty id at or past `k` is a color a merge removed (see
    /// [`Self::apply_merge`]). Each merge removes the then-last id, so the
    /// removed ids pending at any time are the run `k..=max` and every one
    /// is below `k + dirty.len()`; ids past that bound are rejected.
    ///
    /// # Panics
    /// On snapshots with inconsistent column lengths or out-of-range
    /// dirty colors (the persistence layer validates untrusted bytes
    /// before constructing a snapshot; this is a backstop).
    #[must_use]
    pub fn from_snapshot(snap: &ReducedSnapshot) -> Self {
        let k = snap.k;
        assert_eq!(
            snap.sum.len(),
            k * k,
            "reduced snapshot matrix length mismatch"
        );
        assert_eq!(
            snap.sizes.len(),
            k,
            "reduced snapshot sizes length mismatch"
        );
        let cap = k.next_power_of_two().max(4);
        let mut sum = vec![0.0f64; cap * cap];
        for i in 0..k {
            sum[i * cap..i * cap + k].copy_from_slice(&snap.sum[i * k..(i + 1) * k]);
        }
        let mut dirty_flag = vec![false; cap.max(k + snap.dirty.len())];
        for &c in &snap.dirty {
            assert!(
                (c as usize) < k + snap.dirty.len(),
                "reduced snapshot dirty color out of range"
            );
            dirty_flag[c as usize] = true;
        }
        ReducedDelta {
            k,
            cap,
            sum,
            sizes: snap.sizes.clone(),
            symmetric: snap.symmetric,
            dirty: snap.dirty.clone(),
            wholesale: dirty_flag.clone(),
            dirty_flag,
            cells: Vec::new(),
            cells_folded: 0,
        }
    }

    /// Number of colors currently tracked.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.k
    }

    /// The maintained inter-color weight `w(P_i, P_j)`.
    #[inline]
    pub fn pair_weight(&self, i: usize, j: usize) -> f64 {
        self.sum[i * self.cap + j]
    }

    /// Size of color `i` (mirrored from the partition).
    #[inline]
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Patch the matrix for one split. `p` must be the partition *after*
    /// the split and events must be applied in order (`event.child` is the
    /// next color id). Cost: `O(deg(moved) + k)`.
    ///
    /// Every arc with a moved endpoint is re-attributed: arcs leaving a
    /// moved node shift from row `parent` to row `child`, arcs entering one
    /// shift from column `parent` to column `child`, and arcs between two
    /// moved nodes shift diagonally — handled once in the outgoing pass and
    /// skipped in the incoming pass.
    pub fn apply_split(&mut self, g: &Graph, p: &Partition, event: &SplitEvent) {
        let c = event.parent as usize;
        let child = event.child as usize;
        assert_eq!(child, self.k, "split events must be applied in order");
        assert_eq!(
            p.num_colors(),
            self.k + 1,
            "partition out of sync with delta"
        );
        self.ensure_capacity(self.k + 1);
        self.k += 1;
        let cap = self.cap;
        for &v in &event.moved_nodes {
            for (t, w) in g.out_edges(v) {
                let ct = p.color_of(t) as usize;
                // A target that moved in this same split was still in the
                // parent before it.
                let old_ct = if ct == child { c } else { ct };
                self.sum[c * cap + old_ct] -= w;
                self.sum[child * cap + ct] += w;
            }
            for (s, w) in g.in_edges(v) {
                let cs = p.color_of(s) as usize;
                if cs == child {
                    continue; // moved->moved arcs were handled above
                }
                self.sum[cs * cap + c] -= w;
                self.sum[cs * cap + child] += w;
            }
        }
        self.sizes[c] -= event.moved_nodes.len();
        self.sizes.push(event.moved_nodes.len());
        // Every entry this split touched has the parent or the child as an
        // index (rows/columns c and child), and only their sizes changed.
        self.mark_wholesale(event.parent);
        self.mark_wholesale(event.child);
    }

    /// Patch the matrix for a batch of edge events (the dynamic-graph
    /// counterpart of [`Self::apply_split`]): each event's signed weight
    /// delta lands on `sum[color(u)][color(v)]` — and the mirrored entry
    /// for undirected graphs, matching how [`Self::new`] counts both
    /// stored arc directions. `p` is the unchanged partition. Amortized
    /// `O(events)`; each changed cell is recorded, so the next
    /// [`PatchedReducedGraph::sync`] patches just those cells.
    pub fn apply_edge_batch(&mut self, p: &Partition, events: &[EdgeEvent]) {
        assert_eq!(p.num_colors(), self.k, "partition out of sync with delta");
        let cap = self.cap;
        for ev in events {
            let cu = p.color_of(ev.source);
            let cv = p.color_of(ev.target);
            self.sum[cu as usize * cap + cv as usize] += ev.delta;
            self.cells.push((cu, cv));
            if self.symmetric && ev.source != ev.target {
                self.sum[cv as usize * cap + cu as usize] += ev.delta;
                self.cells.push((cv, cu));
            }
            self.mark_dirty(cu);
            self.mark_dirty(cv);
        }
        if self.cells.len() > 2 * self.cells_folded.max(self.k) {
            self.cells.sort_unstable();
            self.cells.dedup();
            self.cells_folded = self.cells.len();
        }
    }

    /// Patch the matrix for one merge — the dual of [`Self::apply_split`]:
    /// the loser's row and column fold into the winner's, the ex-last
    /// color relabels into the freed slot, and the matrix shrinks by one.
    /// `O(k)`. The vacated last row/column is zeroed (future splits assume
    /// fresh rows). Dirty marks: winner, the (relabeled) loser slot, and
    /// the *old last id* — emitters treat a dirty id at or past the new
    /// color count as a column removal.
    pub fn apply_merge(&mut self, event: &MergeEvent) {
        let winner = event.winner as usize;
        let loser = event.loser as usize;
        assert!(winner < loser && loser < self.k, "bad merge event");
        let last = self.k - 1;
        debug_assert_eq!(event.relabeled, (loser != last).then_some(last as u32));
        let cap = self.cap;
        // Fold loser into winner. The self entry absorbs all four
        // quadrants; off entries fold row- and column-wise.
        let self_sum = self.sum[winner * cap + winner]
            + self.sum[winner * cap + loser]
            + self.sum[loser * cap + winner]
            + self.sum[loser * cap + loser];
        // The skip set `{winner, loser}` (with `winner < loser`) splits the
        // column range into three contiguous runs, so the row fold becomes
        // three vectorized `fold_add` calls on disjoint row slices and the
        // (strided) column fold three branch-free loops — touching exactly
        // the cells the old skip-branch loop touched.
        let k = self.k;
        {
            let (head, tail) = self.sum.split_at_mut(loser * cap);
            let wrow = &mut head[winner * cap..winner * cap + k];
            let lrow = &tail[..k];
            fold_add(&mut wrow[..winner], &lrow[..winner]);
            fold_add(&mut wrow[winner + 1..loser], &lrow[winner + 1..loser]);
            fold_add(&mut wrow[loser + 1..k], &lrow[loser + 1..k]);
        }
        for j in 0..winner {
            self.sum[j * cap + winner] += self.sum[j * cap + loser];
        }
        for j in winner + 1..loser {
            self.sum[j * cap + winner] += self.sum[j * cap + loser];
        }
        for j in loser + 1..k {
            self.sum[j * cap + winner] += self.sum[j * cap + loser];
        }
        self.sum[winner * cap + winner] = self_sum;
        self.sizes[winner] += self.sizes[loser];
        // Relabel last -> loser (row, column, diagonal), then zero the
        // vacated last row/column. Same contiguous-run decomposition: the
        // row moves are two `copy_within` memmoves.
        if loser != last {
            let diag = self.sum[last * cap + last];
            self.sum
                .copy_within(last * cap..last * cap + loser, loser * cap);
            self.sum.copy_within(
                last * cap + loser + 1..last * cap + last,
                loser * cap + loser + 1,
            );
            for j in 0..loser {
                self.sum[j * cap + loser] = self.sum[j * cap + last];
            }
            for j in loser + 1..last {
                self.sum[j * cap + loser] = self.sum[j * cap + last];
            }
            self.sum[loser * cap + loser] = diag;
            self.sizes[loser] = self.sizes[last];
        }
        self.sum[last * cap..last * cap + k].fill(0.0);
        for j in 0..k {
            self.sum[j * cap + last] = 0.0;
        }
        self.sizes.pop();
        self.k -= 1;
        self.mark_wholesale(event.winner);
        if loser != last {
            self.mark_wholesale(event.loser);
        }
        self.mark_wholesale(last as u32);
    }

    /// Record a node inserted into color `color` (isolated — the matrix is
    /// untouched, only the size and the size-dependent weightings change).
    pub fn apply_node_insert(&mut self, color: u32) {
        self.sizes[color as usize] += 1;
        self.mark_wholesale(color);
    }

    /// Record the removal of an isolated node from color `color` (the dual
    /// of [`Self::apply_node_insert`]; node renumbering does not touch the
    /// color-indexed matrix).
    pub fn apply_node_removal(&mut self, color: u32) {
        assert!(self.sizes[color as usize] > 1, "removal would empty color");
        self.sizes[color as usize] -= 1;
        self.mark_wholesale(color);
    }

    /// Take the colors whose row/column entries or size changed since the
    /// last call (every changed entry has one of them as an index), in
    /// first-dirtied order, clearing the dirty state. A fresh delta
    /// reports all colors dirty.
    pub fn take_dirty_colors(&mut self) -> Vec<u32> {
        for &c in &self.dirty {
            self.dirty_flag[c as usize] = false;
            self.wholesale[c as usize] = false;
        }
        self.cells.clear();
        self.cells_folded = 0;
        std::mem::take(&mut self.dirty)
    }

    /// Take the pending changes at the granularity they happened, clearing
    /// the dirty state like [`Self::take_dirty_colors`]: the colors
    /// changed wholesale (in first-dirtied order; an id at or past the
    /// color count is a color a merge removed) and the sorted, distinct
    /// cells edge batches changed. A cell may have an index among the
    /// wholesale colors or past the color count; those are covered by the
    /// wholesale re-emission.
    fn take_changes(&mut self) -> (Vec<u32>, Vec<(u32, u32)>) {
        let wholesale = self
            .dirty
            .iter()
            .copied()
            .filter(|&c| self.wholesale[c as usize])
            .collect();
        let mut cells = std::mem::take(&mut self.cells);
        cells.sort_unstable();
        cells.dedup();
        self.take_dirty_colors();
        (wholesale, cells)
    }

    fn mark_dirty(&mut self, c: u32) {
        if !self.dirty_flag[c as usize] {
            self.dirty_flag[c as usize] = true;
            self.dirty.push(c);
        }
    }

    /// Mark `c` dirty with its whole row and column (and size) changed.
    fn mark_wholesale(&mut self, c: u32) {
        self.mark_dirty(c);
        self.wholesale[c as usize] = true;
    }

    /// The compact `k × k` row-major quotient matrix (same layout as
    /// [`quotient_matrix`]).
    pub fn quotient_matrix(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.k * self.k);
        for i in 0..self.k {
            out.extend_from_slice(&self.sum[i * self.cap..i * self.cap + self.k]);
        }
        out
    }

    /// Build the reduced graph from the maintained matrix with a custom
    /// weighting callback (same contract as [`reduced_graph_with`]) in
    /// `O(k²)` — no traversal of the original graph. Entries whose
    /// maintained sum is exactly zero are skipped, matching the
    /// from-scratch constructor's omission of zero-weight edges.
    pub fn reduced_graph_with<F>(&self, mut weight: F) -> Graph
    where
        F: FnMut(usize, usize, f64, usize, usize) -> f64,
    {
        let k = self.k;
        let mut b = GraphBuilder::new_directed(k);
        for i in 0..k {
            for j in 0..k {
                let sum = self.sum[i * self.cap + j];
                if sum == 0.0 {
                    continue;
                }
                let w = weight(i, j, sum, self.sizes[i], self.sizes[j]);
                if w != 0.0 {
                    b.add_edge(i as u32, j as u32, w);
                }
            }
        }
        b.build()
    }

    /// Build the reduced graph from the maintained matrix with a standard
    /// weighting (see [`reduced_graph`]).
    pub fn reduced_graph(&self, weighting: ReductionWeighting) -> Graph {
        self.reduced_graph_with(|_, _, sum, size_i, size_j| weighting.apply(sum, size_i, size_j))
    }

    /// Cross-check the maintained matrix and sizes against a from-scratch
    /// recomputation, with a small tolerance for floating-point
    /// associativity. Intended for tests and debug assertions.
    pub fn verify_against(&self, g: &Graph, p: &Partition) -> Result<(), String> {
        if p.num_colors() != self.k {
            return Err(format!(
                "color count {} != delta {}",
                p.num_colors(),
                self.k
            ));
        }
        let scratch = quotient_matrix(g, p);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
        for i in 0..self.k {
            if self.sizes[i] != p.size(i as u32) {
                return Err(format!(
                    "size[{i}]: delta {} vs partition {}",
                    self.sizes[i],
                    p.size(i as u32)
                ));
            }
            for j in 0..self.k {
                let ours = self.sum[i * self.cap + j];
                let theirs = scratch[i * self.k + j];
                if !close(ours, theirs) {
                    return Err(format!("sum[{i}][{j}]: delta {ours} vs scratch {theirs}"));
                }
            }
        }
        Ok(())
    }

    /// Grow the row stride to hold `needed` colors (amortized, geometric).
    fn ensure_capacity(&mut self, needed: usize) {
        if needed <= self.cap {
            return;
        }
        let new_cap = needed.next_power_of_two();
        let mut grown = vec![0.0f64; new_cap * new_cap];
        for i in 0..self.k {
            grown[i * new_cap..i * new_cap + self.cap]
                .copy_from_slice(&self.sum[i * self.cap..(i + 1) * self.cap]);
        }
        self.sum = grown;
        self.cap = new_cap;
        // A restored delta may flag removed ids past its stride already.
        let flags = new_cap.max(self.dirty_flag.len());
        self.dirty_flag.resize(flags, false);
        self.wholesale.resize(flags, false);
    }
}

/// An incrementally *emitted* reduced graph: the weighted adjacency rows a
/// [`ReducedDelta`] would emit, patched in place per checkpoint instead of
/// re-derived with a dense `O(k²)` sweep.
///
/// [`ReducedDelta::reduced_graph_with`] loops over all `k²` entries every
/// time it is called, which the warm sweep pipeline pays at *every* budget
/// checkpoint. Between two checkpoints, though, only what the delta
/// recorded can have changed, so this emitter keeps the weighted rows and,
/// on [`PatchedReducedGraph::sync`], re-emits just that: the rows and
/// columns of colors changed wholesale (a split's parent and child, a
/// merge's colors, a node event's color: `O(dirty · k)`) and the single
/// cells edge batches changed (a binary search each, plus a row shift
/// when an entry appears or vanishes).
/// [`PatchedReducedGraph::to_graph`] then builds the CSR straight from the
/// sorted rows in `O(k + arcs)` — no dense sweep, no sort, and
/// bit-identical to what `reduced_graph_with` with the same weighting
/// produces (same entry predicate `sum != 0 && weight != 0`, same
/// row-major order).
pub struct PatchedReducedGraph<F> {
    weight: F,
    rows: Vec<Vec<(u32, f64)>>,
}

impl<F: Fn(usize, usize, f64, usize, usize) -> f64> PatchedReducedGraph<F> {
    /// Build the emitted rows from the delta's current state (full
    /// `O(k²)` sweep, once) and clear its dirty set. `weight` has the
    /// [`reduced_graph_with`] contract: `f(i, j, sum, |P_i|, |P_j|)`,
    /// returning `0.0` to omit the edge.
    pub fn new(delta: &mut ReducedDelta, weight: F) -> Self {
        let mut emitter = PatchedReducedGraph {
            weight,
            rows: Vec::new(),
        };
        delta.take_dirty_colors();
        let k = delta.num_colors();
        emitter.rows.reserve(k);
        for i in 0..k {
            let row = emitter.build_row(delta, i);
            emitter.rows.push(row);
        }
        emitter
    }

    /// Number of colors currently emitted.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.rows.len()
    }

    /// The emitted weighted adjacency rows (sorted by target color).
    #[inline]
    pub fn rows(&self) -> &[Vec<(u32, f64)>] {
        &self.rows
    }

    /// Re-synchronize with the delta. Colors changed wholesale since the
    /// last sync get their rows rebuilt (including rows of freshly created
    /// colors) and their columns patched in every other row; a wholesale
    /// id at or past the current color count marks a color removed by a
    /// merge: its row is dropped by the resize and its column is deleted
    /// from every other row. Then each cell an edge batch changed, outside
    /// those rows and columns, is patched alone. `O(wholesale · k)` plus
    /// one [`patch_sorted_row`] per cell — the dense `O(k²)` sweep only
    /// ever happens in [`Self::new`]. Afterwards the rows equal a fresh
    /// [`Self::new`] of the same delta, bit for bit.
    pub fn sync(&mut self, delta: &mut ReducedDelta) {
        let k = delta.num_colors();
        let (wholesale, cells) = delta.take_changes();
        if wholesale.is_empty() && cells.is_empty() && self.rows.len() == k {
            return;
        }
        self.rows.resize_with(k, Vec::new);
        let mut is_wholesale = vec![false; k];
        for &d in &wholesale {
            if (d as usize) < k {
                is_wholesale[d as usize] = true;
            }
        }
        for &d in &wholesale {
            if (d as usize) >= k {
                continue; // removed color: no row to build
            }
            let row = self.build_row(delta, d as usize);
            self.rows[d as usize] = row;
        }
        for (i, row) in self.rows.iter_mut().enumerate() {
            if is_wholesale[i] {
                continue;
            }
            for &d in &wholesale {
                let j = d as usize;
                let w = if j >= k {
                    0.0 // removed color: delete its column
                } else {
                    Self::entry(&self.weight, delta, i, j)
                };
                patch_sorted_row(row, d, w);
            }
        }
        for (i, j) in cells {
            let (i, j) = (i as usize, j as usize);
            if i < k && j < k && !is_wholesale[i] && !is_wholesale[j] {
                let w = Self::entry(&self.weight, delta, i, j);
                patch_sorted_row(&mut self.rows[i], j as u32, w);
            }
        }
    }

    /// Emit the reduced graph as a CSR [`Graph`] in `O(k + arcs)`.
    pub fn to_graph(&self) -> Graph {
        Graph::from_row_adjacency(self.rows.len(), true, &self.rows)
    }

    fn build_row(&self, delta: &ReducedDelta, i: usize) -> Vec<(u32, f64)> {
        let k = delta.num_colors();
        let mut row = Vec::new();
        for j in 0..k {
            let w = Self::entry(&self.weight, delta, i, j);
            if w != 0.0 {
                row.push((j as u32, w));
            }
        }
        row
    }

    /// The emitted weight of cell `(i, j)`; `0.0` means no entry.
    fn entry(weight: &F, delta: &ReducedDelta, i: usize, j: usize) -> f64 {
        let sum = delta.pair_weight(i, j);
        if sum == 0.0 {
            0.0
        } else {
            weight(i, j, sum, delta.size(i), delta.size(j))
        }
    }
}

/// Set entry `col` of a sorted sparse row to `w` — updating, removing
/// (`w == 0.0`) or inserting as needed. The shared kernel of the patched
/// emitters' column-patch passes ([`PatchedReducedGraph::sync`] here and
/// `qsc-lp`'s `PatchedReducedLp::sync`), so the zero-entry predicate and
/// ordering behaviour cannot drift between the pipelines.
pub fn patch_sorted_row(row: &mut Vec<(u32, f64)>, col: u32, w: f64) {
    match row.binary_search_by_key(&col, |&(c, _)| c) {
        Ok(pos) => {
            if w != 0.0 {
                row[pos].1 = w;
            } else {
                row.remove(pos);
            }
        }
        Err(pos) => {
            if w != 0.0 {
                row.insert(pos, (col, w));
            }
        }
    }
}

/// Lift per-color values back to per-node values: node `v` receives the
/// value of its color.
pub fn lift_color_values(p: &Partition, color_values: &[f64]) -> Vec<f64> {
    assert_eq!(color_values.len(), p.num_colors());
    (0..p.num_nodes())
        .map(|v| color_values[p.color_of(v as u32) as usize])
        .collect()
}

/// Lift per-color values, dividing each color's value evenly among its
/// members (so that the lifted values sum to the color values' sum).
pub fn lift_color_values_scaled(p: &Partition, color_values: &[f64]) -> Vec<f64> {
    assert_eq!(color_values.len(), p.num_colors());
    (0..p.num_nodes())
        .map(|v| {
            let c = p.color_of(v as u32);
            color_values[c as usize] / p.size(c) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rothko::{Rothko, RothkoConfig};
    use crate::stable::stable_coloring;
    use qsc_graph::generators;
    use qsc_graph::GraphBuilder;

    #[test]
    fn sum_weighting_preserves_total_weight() {
        let g = generators::karate_club();
        let coloring = Rothko::new(RothkoConfig::with_max_colors(6)).run(&g);
        let reduced = reduced_graph(&g, &coloring.partition, ReductionWeighting::Sum);
        assert_eq!(reduced.num_nodes(), 6);
        // The reduced graph's total weight equals the total arc weight of the
        // original (each undirected edge counted twice, as in the original).
        assert!((reduced.total_weight() - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn stable_coloring_reduction_is_exact_quotient() {
        // For a stable coloring, every node of P_i has the same weight into
        // P_j, so w(P_i,P_j) = |P_i| * (per-node weight) and the
        // SourceAverage weighting recovers that per-node weight exactly.
        let g = generators::colored_regular(8, 6, 4, 2, 9);
        let p = stable_coloring(&g);
        let reduced = reduced_graph(&g, &p, ReductionWeighting::SourceAverage);
        for i in 0..p.num_colors() as u32 {
            let v = p.members(i)[0];
            for j in 0..p.num_colors() as u32 {
                let per_node: f64 = g
                    .out_edges(v)
                    .filter(|&(t, _)| p.color_of(t) == j)
                    .map(|(_, w)| w)
                    .sum();
                assert!(
                    (reduced.weight(i, j) - per_node).abs() < 1e-9,
                    "quotient weight mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sqrt_normalization_matches_formula() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 2, 4.0);
        b.add_edge(1, 3, 6.0);
        let g = b.build();
        let p = crate::Partition::from_classes(4, vec![vec![0, 1], vec![2, 3]]);
        let r = reduced_graph(&g, &p, ReductionWeighting::SqrtNormalized);
        // w(P0, P1) = 12, |P0| = |P1| = 2 => 12 / 2 = 6.
        assert!((r.weight(0, 1) - 6.0).abs() < 1e-12);
        assert_eq!(r.weight(1, 0), 0.0);
    }

    #[test]
    fn weighting_apply_variants() {
        assert_eq!(ReductionWeighting::Sum.apply(12.0, 3, 4), 12.0);
        assert_eq!(ReductionWeighting::TargetAverage.apply(12.0, 3, 4), 3.0);
        assert_eq!(ReductionWeighting::SourceAverage.apply(12.0, 3, 4), 4.0);
        assert!(
            (ReductionWeighting::SqrtNormalized.apply(12.0, 3, 4) - 12.0 / 12f64.sqrt()).abs()
                < 1e-12
        );
    }

    #[test]
    fn lift_functions_round_trip() {
        let p = crate::Partition::from_assignment(&[0, 0, 1, 1, 1]);
        let values = vec![10.0, 30.0];
        let lifted = lift_color_values(&p, &values);
        assert_eq!(lifted, vec![10.0, 10.0, 30.0, 30.0, 30.0]);
        let scaled = lift_color_values_scaled(&p, &values);
        assert_eq!(scaled, vec![5.0, 5.0, 10.0, 10.0, 10.0]);
        let total: f64 = scaled.iter().sum();
        assert!((total - 40.0).abs() < 1e-12);
    }

    #[test]
    fn reduced_delta_tracks_rothko_splits_undirected() {
        let g = generators::barabasi_albert(150, 3, 5);
        let mut run = Rothko::new(RothkoConfig::with_max_colors(24)).start(&g);
        let mut delta = ReducedDelta::new(&g, run.partition());
        while run.step() {
            let event = run.last_event().expect("step performed a split");
            delta.apply_split(&g, run.partition(), event);
        }
        assert_eq!(delta.verify_against(&g, run.partition()), Ok(()));
        let p = run.partition();
        assert_eq!(delta.num_colors(), p.num_colors());
        // Unit-weight graph: the maintained sums are integers, so the
        // incremental quotient matrix is bit-identical to the scratch one.
        assert_eq!(delta.quotient_matrix(), quotient_matrix(&g, p));
        // And so are the reduced graphs built from it.
        let scratch = reduced_graph(&g, p, ReductionWeighting::Sum);
        let incremental = delta.reduced_graph(ReductionWeighting::Sum);
        assert_eq!(scratch.num_nodes(), incremental.num_nodes());
        assert_eq!(scratch.num_edges(), incremental.num_edges());
        for (u, v, w) in scratch.arcs() {
            assert_eq!(incremental.weight(u, v), w, "arc ({u},{v})");
        }
    }

    #[test]
    fn reduced_delta_tracks_directed_splits() {
        let g = generators::erdos_renyi_nm(60, 300, 9).to_directed();
        let mut run = Rothko::new(RothkoConfig::with_max_colors(15)).start(&g);
        let mut delta = ReducedDelta::new(&g, run.partition());
        while run.step() {
            let event = run.last_event().expect("step performed a split");
            delta.apply_split(&g, run.partition(), event);
            assert_eq!(delta.verify_against(&g, run.partition()), Ok(()));
        }
        assert_eq!(
            delta.quotient_matrix(),
            quotient_matrix(&g, run.partition())
        );
    }

    #[test]
    fn reduced_delta_handles_manual_splits_and_growth() {
        // Exercise capacity growth (past the initial stride of 4) and the
        // moved->moved arc bookkeeping with a hand-driven split sequence.
        let g = generators::karate_club();
        let mut p = Partition::unit(g.num_nodes());
        let mut delta = ReducedDelta::new(&g, &p);
        for round in 0..8u32 {
            let parent = round % p.num_colors() as u32;
            if p.size(parent) < 2 {
                continue;
            }
            let members = p.members(parent).to_vec();
            let pivot = members[members.len() / 2];
            if let Some(event) = p.split_color(parent, |v| v >= pivot) {
                delta.apply_split(&g, &p, &event);
            }
            assert_eq!(delta.verify_against(&g, &p), Ok(()));
        }
        assert!(delta.num_colors() > 4, "growth path not exercised");
    }

    #[test]
    fn reduced_delta_merge_matches_scratch_and_patched_emission() {
        use rand::prelude::*;
        let g = generators::barabasi_albert(120, 3, 21);
        let mut run = Rothko::new(RothkoConfig::with_max_colors(12)).start(&g);
        let mut delta = ReducedDelta::new(&g, run.partition());
        while run.step() {
            let event = run.last_event().expect("split");
            delta.apply_split(&g, run.partition(), event);
        }
        let weighting = ReductionWeighting::SqrtNormalized;
        let mut emitter = PatchedReducedGraph::new(&mut delta, |_i, _j, sum, si, sj| {
            weighting.apply(sum, si, sj)
        });
        let mut p = run.partition().clone();
        let mut rng = StdRng::seed_from_u64(77);
        while p.num_colors() > 2 {
            let k = p.num_colors() as u32;
            let a = rng.random_range(0..k - 1);
            let b = rng.random_range(a + 1..k);
            let ev = p.merge_colors(a, b);
            delta.apply_merge(&ev);
            assert_eq!(delta.verify_against(&g, &p), Ok(()));
            // The patched emission equals the dense re-emission after the
            // shrink (removed columns deleted from clean rows).
            emitter.sync(&mut delta);
            let patched = emitter.to_graph();
            let dense =
                delta.reduced_graph_with(|_i, _j, sum, si, sj| weighting.apply(sum, si, sj));
            assert_eq!(patched.num_nodes(), dense.num_nodes());
            let pa: Vec<_> = patched.arcs().collect();
            let da: Vec<_> = dense.arcs().collect();
            assert_eq!(pa, da, "k = {}", p.num_colors());
        }
        // Splits after merges keep working (vacated rows were zeroed).
        let members: Vec<u32> = p.members(0).to_vec();
        if members.len() >= 2 {
            let pivot = members[members.len() / 2];
            if let Some(ev) = p.split_color(0, |v| v >= pivot) {
                delta.apply_split(&g, &p, &ev);
                assert_eq!(delta.verify_against(&g, &p), Ok(()));
            }
        }
    }

    #[test]
    fn reduced_delta_node_sizes_follow_churn() {
        let g = generators::karate_club();
        let p = Partition::from_assignment(&(0..34).map(|v| (v % 3) as u32).collect::<Vec<_>>());
        let mut delta = ReducedDelta::new(&g, &p);
        delta.take_dirty_colors();
        delta.apply_node_insert(1);
        assert_eq!(delta.size(1), p.size(1) + 1);
        delta.apply_node_removal(1);
        delta.apply_node_removal(2);
        assert_eq!(delta.size(2), p.size(2) - 1);
        // Size-dependent weightings see the churn through the dirty set.
        let dirty = delta.take_dirty_colors();
        assert_eq!(dirty, vec![1, 2]);
    }

    #[test]
    fn quotient_matrix_row_sums() {
        let g = generators::karate_club();
        let p =
            crate::Partition::from_assignment(&(0..34).map(|v| (v % 3) as u32).collect::<Vec<_>>());
        let q = quotient_matrix(&g, &p);
        let total: f64 = q.iter().sum();
        assert_eq!(total, g.total_weight());
    }
}
