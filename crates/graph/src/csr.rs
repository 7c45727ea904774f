//! Immutable CSR (compressed sparse row) weighted directed graph.
//!
//! The graph stores both the out-adjacency and the in-adjacency so that the
//! coloring algorithms can inspect incoming and outgoing weights of a node in
//! O(deg) time. Undirected graphs are represented as symmetric directed
//! graphs (each undirected edge becomes two arcs); [`Graph::is_directed`]
//! records which convention was used so that edge counts and generators can
//! report logical edge counts.

use std::borrow::Cow;
use std::sync::Arc;

use crate::builder::GraphBuilder;
use crate::column::{ColumnAdvice, ColumnBuf};
use crate::GraphError;

/// Dense node identifier. All nodes of a graph with `n` nodes are `0..n`.
pub type NodeId = u32;

/// The CSR arrays `(offsets, targets, weights)` of one direction:
/// borrowed from a flat graph, gathered afresh from a patched one.
pub type CsrArrays<'a> = (Cow<'a, [usize]>, Cow<'a, [NodeId]>, Cow<'a, [f64]>);

/// An immutable weighted directed graph in CSR form.
///
/// Construct via [`GraphBuilder`] or one of the [`crate::generators`].
/// Columns are [`ColumnBuf`]s: owned vectors for every built graph, or
/// shared views into a memory-mapped checkpoint when constructed through
/// [`Graph::from_mapped_columns`] — the read paths are identical either
/// way. Columns are never written after construction; mutation goes
/// through [`crate::GraphDelta`].
///
/// Both kinds of column are `Arc`-shared, so `clone` is O(1) and copies
/// no arcs. An undirected graph's in-columns *are* its out-columns (the
/// symmetric rows make the two directions bit-identical), so it stores
/// its arcs once.
///
/// **Row patch.** An edge-only delta compaction returns a graph that
/// keeps the previous graph's columns as its *base* and carries a row
/// patch: the rows changed since the base was built, as sorted
/// `(neighbor, weight)` runs in immutable shared chunks, plus a per-node
/// locator. [`Self::out_arcs`] and [`Self::in_arcs`] return the patched
/// row where one exists and the base row otherwise, and every other read
/// is built on those two, so a patched graph answers exactly like the
/// flat graph with the same rows. Mapped base columns stay mapped under
/// a patch. Graphs from builders, readers, checkpoints and renumbering
/// compactions are flat; [`Self::is_patched`] tells the two apart.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    /// Number of *logical* edges: arcs for directed graphs, undirected edges
    /// for undirected graphs.
    m: usize,
    directed: bool,
    out_offsets: ColumnBuf<usize>,
    out_targets: ColumnBuf<NodeId>,
    out_weights: ColumnBuf<f64>,
    in_offsets: ColumnBuf<usize>,
    in_sources: ColumnBuf<NodeId>,
    in_weights: ColumnBuf<f64>,
    /// Rows replaced since the base columns were built; `None` for a flat
    /// graph.
    patch: Option<Arc<RowPatch>>,
}

impl Graph {
    /// Build a graph directly from per-node out-adjacency rows, each sorted
    /// by target with at most one entry per target (i.e. already merged).
    /// For undirected graphs every edge `{u, v}` must appear in both rows
    /// (self-loops once), exactly as the CSR stores it.
    ///
    /// `O(n + arcs)` with no sorting, and bit-identical CSR arrays to a
    /// [`GraphBuilder`] fed the same arcs. This is the fast path for the
    /// patched reduced-graph emission, which maintains merged rows itself.
    pub fn from_row_adjacency(n: usize, directed: bool, rows: &[Vec<(NodeId, f64)>]) -> Self {
        assert_eq!(rows.len(), n, "one adjacency row per node");
        let arcs: usize = rows.iter().map(|r| r.len()).sum();
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0usize);
        let mut out_targets = Vec::with_capacity(arcs);
        let mut out_weights = Vec::with_capacity(arcs);
        for row in rows {
            for &(v, w) in row {
                out_targets.push(v);
                out_weights.push(w);
            }
            out_offsets.push(out_targets.len());
        }
        let m = logical_edges(n, directed, &out_offsets, &out_targets);
        Self::from_out_columns(
            n,
            m,
            directed,
            out_offsets.into(),
            out_targets.into(),
            out_weights.into(),
        )
    }

    /// Rebuild a graph from its out-CSR arrays alone (the checkpoint
    /// restore path — a checkpoint stores only the out direction because
    /// the in direction is derivable). The arcs of node `v` must occupy
    /// `out_offsets[v]..out_offsets[v+1]` of the parallel
    /// `out_targets`/`out_weights` arrays, sorted strictly ascending by
    /// target within each row, and for undirected graphs every edge
    /// `{u, v}` must appear in both rows — exactly the invariants the CSR
    /// maintains, so feeding back [`Self::out_adjacency`] round-trips.
    ///
    /// The in-adjacency is reconstructed deterministically: undirected
    /// graphs share the out columns (symmetric storage with ascending
    /// neighbors makes the two directions bit-identical), and directed
    /// graphs run a counting sort by target, so the rebuilt graph's arrays
    /// are bit-identical to the writer's. `O(n + arcs)`.
    pub fn from_out_csr(
        n: usize,
        directed: bool,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        out_weights: Vec<f64>,
    ) -> Self {
        assert_eq!(out_offsets.len(), n + 1, "offsets must have n + 1 entries");
        assert_eq!(out_targets.len(), out_weights.len());
        assert_eq!(*out_offsets.last().expect("n + 1 >= 1"), out_targets.len());
        let m = logical_edges(n, directed, &out_offsets, &out_targets);
        Self::from_out_columns(
            n,
            m,
            directed,
            out_offsets.into(),
            out_targets.into(),
            out_weights.into(),
        )
    }

    /// Build a graph over already-shared (typically memory-mapped) out-CSR
    /// columns **without copying them**. Same CSR invariants as
    /// [`Self::from_out_csr`], but validated with typed errors instead of
    /// panics — this is the checkpoint zero-copy restore entry point, and
    /// the columns come from an untrusted file.
    ///
    /// The validation pass touches only `out_offsets` plus one sequential
    /// scan of `out_targets` (range + row-sortedness + logical edge
    /// count); shared columns are advised [`ColumnAdvice::Sequential`]
    /// first so the faults stream. For undirected graphs the in-columns
    /// are the out-columns again (an `Arc` clone — still zero-copy); for
    /// directed graphs the in-adjacency is rebuilt owned by the same
    /// counting sort as [`Self::from_out_csr`], bit-identical to the
    /// writer's arrays. `out_weights` is never read here; weight pages
    /// fault in lazily on first use.
    pub fn from_mapped_columns(
        n: usize,
        directed: bool,
        out_offsets: ColumnBuf<usize>,
        out_targets: ColumnBuf<NodeId>,
        out_weights: ColumnBuf<f64>,
    ) -> Result<Self, GraphError> {
        fn bad(message: impl Into<String>) -> GraphError {
            GraphError::InvalidCsr {
                message: message.into(),
            }
        }
        if out_offsets.len() != n + 1 {
            return Err(bad(format!(
                "offsets must have n + 1 = {} entries, got {}",
                n + 1,
                out_offsets.len()
            )));
        }
        if out_targets.len() != out_weights.len() {
            return Err(bad(format!(
                "targets/weights length mismatch: {} vs {}",
                out_targets.len(),
                out_weights.len()
            )));
        }
        out_offsets.advise(ColumnAdvice::Sequential);
        out_targets.advise(ColumnAdvice::Sequential);
        let offsets = out_offsets.as_slice();
        let targets = out_targets.as_slice();
        if offsets[0] != 0 || offsets[n] != targets.len() {
            return Err(bad(format!(
                "offsets must span 0..{} (arcs), got {}..{}",
                targets.len(),
                offsets[0],
                offsets[n]
            )));
        }
        let mut m = 0usize;
        for u in 0..n {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            if lo > hi {
                return Err(bad(format!("offsets not monotone at node {u}")));
            }
            for e in lo..hi {
                let v = targets[e];
                if v as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
                if e > lo && targets[e - 1] >= v {
                    return Err(bad(format!("row {u} not strictly sorted by target")));
                }
                if directed || u as NodeId <= v {
                    m += 1;
                }
            }
        }
        Ok(Self::from_out_columns(
            n,
            m,
            directed,
            out_offsets,
            out_targets,
            out_weights,
        ))
    }

    /// Shared construction tail: derive the in-adjacency from validated
    /// out-columns whose logical edge count `m` the caller already knows
    /// (debug builds recount it and re-check the CSR invariants).
    /// Undirected graphs reuse the out-columns (symmetric storage with
    /// ascending neighbors makes the directions bit-identical, so this is
    /// an `Arc` clone, not a copy); directed graphs counting-sort into
    /// owned in-columns, sources ascending within each row.
    pub(crate) fn from_out_columns(
        n: usize,
        m: usize,
        directed: bool,
        out_offsets: ColumnBuf<usize>,
        out_targets: ColumnBuf<NodeId>,
        out_weights: ColumnBuf<f64>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), out_weights.len());
        #[cfg(debug_assertions)]
        for u in 0..n {
            let (lo, hi) = (out_offsets[u], out_offsets[u + 1]);
            debug_assert!(lo <= hi, "offsets not monotone at node {u}");
            for e in lo..hi {
                let v = out_targets[e];
                debug_assert!((v as usize) < n, "target {v} out of range");
                debug_assert!(
                    e == lo || out_targets[e - 1] < v,
                    "row {u} not strictly sorted by target"
                );
            }
        }
        debug_assert_eq!(
            m,
            logical_edges(n, directed, &out_offsets, &out_targets),
            "logical edge count"
        );
        let arcs = out_targets.len();
        let (in_offsets, in_sources, in_weights) = if directed {
            // Counting sort by target: sources within a row come out
            // ascending, as a `GraphBuilder` lays them out.
            let mut in_offsets = vec![0usize; n + 1];
            for &v in out_targets.iter() {
                in_offsets[v as usize + 1] += 1;
            }
            for i in 0..n {
                in_offsets[i + 1] += in_offsets[i];
            }
            let mut cursor = in_offsets.clone();
            let mut in_sources = vec![0 as NodeId; arcs];
            let mut in_weights = vec![0f64; arcs];
            for u in 0..n {
                for e in out_offsets[u]..out_offsets[u + 1] {
                    let pos = cursor[out_targets[e] as usize];
                    in_sources[pos] = u as NodeId;
                    in_weights[pos] = out_weights[e];
                    cursor[out_targets[e] as usize] += 1;
                }
            }
            (in_offsets.into(), in_sources.into(), in_weights.into())
        } else {
            (
                out_offsets.clone(),
                out_targets.clone(),
                out_weights.clone(),
            )
        };
        Graph {
            n,
            m,
            directed,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
            patch: None,
        }
    }

    /// This graph with the out-rows named in `out` replaced by its rows
    /// and — for a directed graph — the in-rows named in `inn` likewise;
    /// `m` and `arcs` are the new logical edge and stored arc counts. The
    /// base columns and every earlier chunk are shared, not copied: `O(n)`
    /// for the locator copy plus `O(rows)`. Undirected graphs pass
    /// `inn = None` (their in-rows are their out-rows).
    pub(crate) fn with_patched_rows(
        &self,
        m: usize,
        arcs: usize,
        out: RowChunk,
        inn: Option<RowChunk>,
    ) -> Graph {
        debug_assert_eq!(self.directed, inn.is_some());
        let prev = self.patch.as_deref();
        let patch = RowPatch {
            arcs,
            out: PatchSide::extended(prev.map(|p| &p.out), self.n, out),
            inn: inn.map(|chunk| PatchSide::extended(prev.map(RowPatch::in_side), self.n, chunk)),
        };
        Graph {
            m,
            patch: Some(Arc::new(patch)),
            ..self.clone()
        }
    }

    /// Whether the patch can take one more compaction's chunk of `rows`
    /// rows in each direction (its locator encoding bounds both).
    pub(crate) fn patch_has_room(&self, rows: usize) -> bool {
        let p = self.patch.as_deref();
        PatchSide::has_room(p.map(|p| &p.out), rows)
            && PatchSide::has_room(p.map(RowPatch::in_side), rows)
    }

    /// Arcs held in the out-direction patch, superseded row copies
    /// included (`0` for a flat graph): the compaction policy's measure
    /// of patch size.
    pub(crate) fn patch_arcs(&self) -> usize {
        self.patch.as_ref().map_or(0, |p| p.out.stored)
    }

    /// Ascending ids of the nodes whose out-row lives in the patch.
    pub(crate) fn patched_out_rows(&self) -> Vec<NodeId> {
        let Some(p) = &self.patch else {
            return Vec::new();
        };
        (0..self.n as NodeId)
            .filter(|&v| p.out.loc[v as usize] != 0)
            .collect()
    }

    /// The base out-columns `(offsets, targets, weights)`. For a patched
    /// graph the patched rows' entries here are stale; only rows outside
    /// [`Self::patched_out_rows`] may be read from them.
    pub(crate) fn base_out_columns(&self) -> (&[usize], &[NodeId], &[f64]) {
        (
            self.out_offsets.as_slice(),
            self.out_targets.as_slice(),
            self.out_weights.as_slice(),
        )
    }

    /// Whether this graph carries a row patch over its base columns (see
    /// the type docs). Patched and flat graphs with the same rows answer
    /// every query identically.
    #[inline]
    pub fn is_patched(&self) -> bool {
        self.patch.is_some()
    }

    /// Create an empty graph with `n` isolated nodes.
    pub fn empty(n: usize, directed: bool) -> Self {
        Graph {
            n,
            m: 0,
            directed,
            out_offsets: vec![0; n + 1].into(),
            out_targets: ColumnBuf::default(),
            out_weights: ColumnBuf::default(),
            in_offsets: vec![0; n + 1].into(),
            in_sources: ColumnBuf::default(),
            in_weights: ColumnBuf::default(),
            patch: None,
        }
    }

    /// Whether any column borrows shared (mapped) memory. Owned graphs
    /// skip the paging-advice bookkeeping entirely via this check.
    #[inline]
    pub fn has_shared_columns(&self) -> bool {
        self.out_offsets.is_shared()
            || self.out_targets.is_shared()
            || self.out_weights.is_shared()
            || self.in_offsets.is_shared()
            || self.in_sources.is_shared()
            || self.in_weights.is_shared()
    }

    /// Forward paging advice to every shared column (no-op for owned
    /// graphs). Call with [`ColumnAdvice::Sequential`] before a
    /// whole-graph sweep so cold page faults stream instead of thrashing.
    pub fn advise(&self, advice: ColumnAdvice) {
        if !self.has_shared_columns() {
            return;
        }
        self.out_offsets.advise(advice);
        self.out_targets.advise(advice);
        self.out_weights.advise(advice);
        self.in_offsets.advise(advice);
        self.in_sources.advise(advice);
        self.in_weights.advise(advice);
    }

    /// Hint that the out- and in-arcs of `nodes` will be read soon: one
    /// [`ColumnAdvice::WillNeed`] per direction over the base-column arc
    /// span `min..max` of the listed nodes (patched rows are owned, so
    /// their base entries are merely over-hinted). Cheap (two `madvise`
    /// calls over a contiguous range, `O(|nodes|)` to find the span) and
    /// a no-op for owned graphs, so callers can hint unconditionally ahead
    /// of batched touched-list scans.
    pub fn advise_arcs_will_need(&self, nodes: &[NodeId]) {
        if nodes.is_empty() || !self.has_shared_columns() {
            return;
        }
        let (mut out_lo, mut out_hi) = (usize::MAX, 0usize);
        let (mut in_lo, mut in_hi) = (usize::MAX, 0usize);
        for &v in nodes {
            let u = v as usize;
            out_lo = out_lo.min(self.out_offsets[u]);
            out_hi = out_hi.max(self.out_offsets[u + 1]);
            in_lo = in_lo.min(self.in_offsets[u]);
            in_hi = in_hi.max(self.in_offsets[u + 1]);
        }
        if out_lo < out_hi {
            self.out_targets
                .advise_range(ColumnAdvice::WillNeed, out_lo, out_hi);
            self.out_weights
                .advise_range(ColumnAdvice::WillNeed, out_lo, out_hi);
        }
        if in_lo < in_hi {
            self.in_sources
                .advise_range(ColumnAdvice::WillNeed, in_lo, in_hi);
            self.in_weights
                .advise_range(ColumnAdvice::WillNeed, in_lo, in_hi);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of logical edges (arcs for directed graphs, edges for
    /// undirected graphs).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of stored arcs (twice `num_edges` for undirected graphs).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        match &self.patch {
            None => self.out_targets.len(),
            Some(p) => p.arcs,
        }
    }

    /// Whether this graph was built as a directed graph.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Outgoing arcs of `v` as parallel slices `(targets, weights)`.
    #[inline]
    pub fn out_arcs(&self, v: NodeId) -> (&[NodeId], &[f64]) {
        if let Some(p) = &self.patch {
            return self.patched_out_arcs(p, v);
        }
        let lo = self.out_offsets[v as usize];
        let hi = self.out_offsets[v as usize + 1];
        (&self.out_targets[lo..hi], &self.out_weights[lo..hi])
    }

    /// Incoming arcs of `v` as parallel slices `(sources, weights)`.
    #[inline]
    pub fn in_arcs(&self, v: NodeId) -> (&[NodeId], &[f64]) {
        if let Some(p) = &self.patch {
            return self.patched_in_arcs(p, v);
        }
        let lo = self.in_offsets[v as usize];
        let hi = self.in_offsets[v as usize + 1];
        (&self.in_sources[lo..hi], &self.in_weights[lo..hi])
    }

    /// [`Self::out_arcs`] of a patched graph, kept out of line so the
    /// flat graphs' inlined path stays as small as it was.
    #[inline(never)]
    fn patched_out_arcs<'a>(&'a self, p: &'a RowPatch, v: NodeId) -> (&'a [NodeId], &'a [f64]) {
        p.out.row(v).unwrap_or_else(|| {
            let (lo, hi) = (
                self.out_offsets[v as usize],
                self.out_offsets[v as usize + 1],
            );
            (&self.out_targets[lo..hi], &self.out_weights[lo..hi])
        })
    }

    /// [`Self::in_arcs`] of a patched graph; see [`Self::patched_out_arcs`].
    #[inline(never)]
    fn patched_in_arcs<'a>(&'a self, p: &'a RowPatch, v: NodeId) -> (&'a [NodeId], &'a [f64]) {
        p.in_side().row(v).unwrap_or_else(|| {
            let (lo, hi) = (self.in_offsets[v as usize], self.in_offsets[v as usize + 1]);
            (&self.in_sources[lo..hi], &self.in_weights[lo..hi])
        })
    }

    /// The out-CSR arrays `(offsets, targets, weights)`: the arcs of `v`
    /// occupy `offsets[v]..offsets[v+1]` in the parallel `targets`/`weights`
    /// slices. Borrowed from a flat graph; a patched graph's rows are
    /// gathered into fresh arrays (`O(n + arcs)`), so the result is always
    /// the graph's current adjacency. The checkpoint encoder's path.
    pub fn out_adjacency(&self) -> CsrArrays<'_> {
        match self.patch {
            None => (
                Cow::Borrowed(self.out_offsets.as_slice()),
                Cow::Borrowed(self.out_targets.as_slice()),
                Cow::Borrowed(self.out_weights.as_slice()),
            ),
            Some(_) => self.gather(|v| self.out_arcs(v)),
        }
    }

    /// The in-CSR arrays `(offsets, sources, weights)`; see
    /// [`Self::out_adjacency`].
    pub fn in_adjacency(&self) -> CsrArrays<'_> {
        match self.patch {
            None => (
                Cow::Borrowed(self.in_offsets.as_slice()),
                Cow::Borrowed(self.in_sources.as_slice()),
                Cow::Borrowed(self.in_weights.as_slice()),
            ),
            Some(_) => self.gather(|v| self.in_arcs(v)),
        }
    }

    /// Concatenate every node's `row` into fresh CSR arrays.
    fn gather<'a>(&'a self, row: impl Fn(NodeId) -> (&'a [NodeId], &'a [f64])) -> CsrArrays<'a> {
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(self.num_arcs());
        let mut weights = Vec::with_capacity(self.num_arcs());
        for v in self.nodes() {
            let (t, w) = row(v);
            targets.extend_from_slice(t);
            weights.extend_from_slice(w);
            offsets.push(targets.len());
        }
        (offsets.into(), targets.into(), weights.into())
    }

    /// Iterate the outgoing arcs `(target, weight)` of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (t, w) = self.out_arcs(v);
        t.iter().copied().zip(w.iter().copied())
    }

    /// Iterate the incoming arcs `(source, weight)` of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (s, w) = self.in_arcs(v);
        s.iter().copied().zip(w.iter().copied())
    }

    /// Out-degree (number of outgoing arcs) of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        match self.patch {
            None => self.out_offsets[v as usize + 1] - self.out_offsets[v as usize],
            Some(_) => self.out_arcs(v).0.len(),
        }
    }

    /// In-degree (number of incoming arcs) of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        match self.patch {
            None => self.in_offsets[v as usize + 1] - self.in_offsets[v as usize],
            Some(_) => self.in_arcs(v).0.len(),
        }
    }

    /// Total outgoing weight `w(v, X)` of `v`.
    #[inline]
    pub fn out_weight(&self, v: NodeId) -> f64 {
        let (_, w) = self.out_arcs(v);
        w.iter().sum()
    }

    /// Total incoming weight `w(X, v)` of `v`.
    #[inline]
    pub fn in_weight(&self, v: NodeId) -> f64 {
        let (_, w) = self.in_arcs(v);
        w.iter().sum()
    }

    /// Weight of the arc `(u, v)`, or `0.0` if absent. O(log deg(u)).
    pub fn weight(&self, u: NodeId, v: NodeId) -> f64 {
        let (targets, weights) = self.out_arcs(u);
        match targets.binary_search(&v) {
            Ok(i) => weights[i],
            Err(_) => 0.0,
        }
    }

    /// Whether the arc `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (targets, _) = self.out_arcs(u);
        targets.binary_search(&v).is_ok()
    }

    /// Iterate all node ids.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n as NodeId
    }

    /// Iterate all stored arcs as `(source, target, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Iterate all logical edges; for undirected graphs each edge `{u,v}` is
    /// reported once with `u <= v`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        if self.directed {
            self.arcs().collect()
        } else {
            self.arcs().filter(|&(u, v, _)| u <= v).collect()
        }
    }

    /// Total weight from a set `U` to a set `V`: `w(U, V)` of Eq. (1).
    ///
    /// Runs in `O(sum_{u in U} deg(u))` time; `in_v` must be a boolean mask
    /// over nodes marking membership in `V`.
    pub fn weight_between_masked(&self, us: &[NodeId], in_v: &[bool]) -> f64 {
        let mut total = 0.0;
        for &u in us {
            for (t, w) in self.out_edges(u) {
                if in_v[t as usize] {
                    total += w;
                }
            }
        }
        total
    }

    /// Total weight from a set `U` to a set `V` (both given as node lists).
    pub fn weight_between(&self, us: &[NodeId], vs: &[NodeId]) -> f64 {
        let mut mask = vec![false; self.n];
        for &v in vs {
            mask[v as usize] = true;
        }
        self.weight_between_masked(us, &mask)
    }

    /// Sum of all edge weights (over stored arcs), in arc order.
    pub fn total_weight(&self) -> f64 {
        match self.patch {
            None => self.out_weights.iter().sum(),
            Some(_) => self.nodes().flat_map(|v| self.out_arcs(v).1).sum(),
        }
    }

    /// Return the transpose graph (all arcs reversed). The transpose of an
    /// undirected graph is itself (a copy).
    pub fn transpose(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut b = GraphBuilder::new_directed(self.n);
        for (u, v, w) in self.arcs() {
            b.add_edge(v, u, w);
        }
        b.build()
    }

    /// Build the induced subgraph on `nodes`, relabelling them `0..nodes.len()`
    /// in the given order. Returns the subgraph and the mapping
    /// `new id -> old id`.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut new_id = vec![u32::MAX; self.n];
        for (i, &v) in nodes.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut b = if self.directed {
            GraphBuilder::new_directed(nodes.len())
        } else {
            GraphBuilder::new_undirected(nodes.len())
        };
        for &u in nodes {
            for (v, w) in self.out_edges(u) {
                let nu = new_id[u as usize];
                let nv = new_id[v as usize];
                if nv != u32::MAX && (self.directed || nu <= nv) {
                    b.add_edge(nu, nv, w);
                }
            }
        }
        (b.build(), nodes.to_vec())
    }

    /// Convert an undirected graph into an explicitly directed one with an
    /// arc in each direction (weights preserved). Directed graphs are
    /// returned unchanged.
    pub fn to_directed(&self) -> Graph {
        if self.directed {
            return self.clone();
        }
        let mut g = self.clone();
        g.directed = true;
        g.m = g.num_arcs();
        g
    }
}

/// The rows a graph has replaced since its base columns were built.
#[derive(Debug)]
struct RowPatch {
    /// Stored arcs of the patched graph.
    arcs: usize,
    out: PatchSide,
    /// A directed graph's patched in-rows; `None` when the in-rows are
    /// the out-rows (undirected graphs, and their
    /// [`Graph::to_directed`] copies).
    inn: Option<PatchSide>,
}

impl RowPatch {
    #[inline]
    fn in_side(&self) -> &PatchSide {
        self.inn.as_ref().unwrap_or(&self.out)
    }
}

/// The patched rows of one direction.
#[derive(Clone, Debug)]
struct PatchSide {
    /// Per node: `0` when its row is the base row, else `1 + (chunk <<
    /// ROW_BITS | row)` — row `row` of `chunks[chunk]`.
    loc: Vec<u32>,
    /// One chunk per patching compaction since the base was built. A
    /// chunk is never written again, so graphs share them by `Arc`.
    chunks: Vec<Arc<RowChunk>>,
    /// Arcs held across `chunks`, superseded row copies included.
    stored: usize,
}

/// Bits of a locator entry that number the row within its chunk.
const ROW_BITS: u32 = 24;

impl PatchSide {
    /// Most chunks a side can hold (the locator reserves `0`).
    const MAX_CHUNKS: usize = (u32::MAX >> ROW_BITS) as usize;
    /// Most rows one chunk can hold.
    const MAX_CHUNK_ROWS: usize = 1 << ROW_BITS;

    /// Whether one more chunk of `rows` rows fits the locator encoding.
    fn has_room(side: Option<&PatchSide>, rows: usize) -> bool {
        side.map_or(0, |s| s.chunks.len()) < Self::MAX_CHUNKS && rows <= Self::MAX_CHUNK_ROWS
    }

    /// `prev` (or an empty side over `n` nodes) with the rows `chunk`
    /// holds pointed at it: an `O(n)` locator copy and `O(chunks)` `Arc`
    /// clones; no row is copied.
    fn extended(prev: Option<&PatchSide>, n: usize, mut chunk: RowChunk) -> Self {
        let nodes = std::mem::take(&mut chunk.nodes);
        debug_assert_eq!(chunk.offsets.len(), nodes.len() + 1);
        debug_assert!(Self::has_room(prev, nodes.len()));
        let mut side = prev.cloned().unwrap_or_else(|| PatchSide {
            loc: vec![0; n],
            chunks: Vec::new(),
            stored: 0,
        });
        let first = 1 + ((side.chunks.len() as u32) << ROW_BITS);
        for (row, &v) in nodes.iter().enumerate() {
            side.loc[v as usize] = first + row as u32;
        }
        side.stored += chunk.targets.len();
        side.chunks.push(Arc::new(chunk));
        side
    }

    /// The patched row of `v`, or `None` when it is the base row.
    #[inline]
    fn row(&self, v: NodeId) -> Option<(&[NodeId], &[f64])> {
        let loc = self.loc[v as usize].checked_sub(1)?;
        let c = &self.chunks[(loc >> ROW_BITS) as usize];
        let row = (loc & ((1 << ROW_BITS) - 1)) as usize;
        let (lo, hi) = (c.offsets[row], c.offsets[row + 1]);
        Some((&c.targets[lo..hi], &c.weights[lo..hi]))
    }
}

/// Replacement rows built by one compaction, as one CSR block: the row
/// of `nodes[i]` occupies `offsets[i]..offsets[i + 1]`.
#[derive(Debug)]
pub(crate) struct RowChunk {
    /// The node of each row; emptied once the locator points at the rows.
    nodes: Vec<NodeId>,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
}

impl RowChunk {
    /// An empty chunk with room for `rows` rows of `arcs` arcs in total.
    pub(crate) fn with_capacity(rows: usize, arcs: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        RowChunk {
            nodes: Vec::with_capacity(rows),
            offsets,
            targets: Vec::with_capacity(arcs),
            weights: Vec::with_capacity(arcs),
        }
    }

    /// The arc columns, to append the row being built to.
    #[inline]
    pub(crate) fn columns_mut(&mut self) -> (&mut Vec<NodeId>, &mut Vec<f64>) {
        (&mut self.targets, &mut self.weights)
    }

    /// Close the row being built as node `v`'s.
    #[inline]
    pub(crate) fn end_row(&mut self, v: NodeId) {
        self.nodes.push(v);
        self.offsets.push(self.targets.len());
    }

    /// Arcs held.
    #[inline]
    pub(crate) fn arcs(&self) -> usize {
        self.targets.len()
    }
}

/// Logical edge count of out-CSR arrays: every arc for directed graphs,
/// arcs `u -> v` with `u <= v` (each edge once, self-loops included) for
/// undirected ones.
fn logical_edges(n: usize, directed: bool, offsets: &[usize], targets: &[NodeId]) -> usize {
    if directed {
        return targets.len();
    }
    let mut m = 0usize;
    for u in 0..n {
        let row = &targets[offsets[u]..offsets[u + 1]];
        m += row.iter().filter(|&&v| u as NodeId <= v).count();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 3.0);
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5, true);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn triangle_basic() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert!(!g.is_directed());
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.weight(1, 2), 2.0);
        assert_eq!(g.weight(2, 1), 2.0);
        assert_eq!(g.weight(0, 2), 3.0);
        assert_eq!(g.weight(2, 2), 0.0);
    }

    #[test]
    fn directed_graph_in_out() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(3, 0, 5.0);
        let g = b.build();
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.in_weight(0), 5.0);
        assert_eq!(g.out_weight(0), 2.0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn raw_adjacency_matches_iterators() {
        let g = triangle();
        let (offs, tgts, wts) = g.out_adjacency();
        assert_eq!(offs.len(), g.num_nodes() + 1);
        assert_eq!(tgts.len(), g.num_arcs());
        for v in g.nodes() {
            let from_iter: Vec<(NodeId, f64)> = g.out_edges(v).collect();
            let lo = offs[v as usize];
            let hi = offs[v as usize + 1];
            let from_raw: Vec<(NodeId, f64)> = tgts[lo..hi]
                .iter()
                .copied()
                .zip(wts[lo..hi].iter().copied())
                .collect();
            assert_eq!(from_iter, from_raw);
        }
        let (ioffs, isrcs, iwts) = g.in_adjacency();
        assert_eq!(ioffs.len(), g.num_nodes() + 1);
        assert_eq!(isrcs.len(), iwts.len());
    }

    #[test]
    fn weight_between_sets() {
        let g = triangle();
        assert_eq!(g.weight_between(&[0], &[1, 2]), 4.0);
        assert_eq!(g.weight_between(&[0, 1], &[2]), 5.0);
        assert_eq!(g.weight_between(&[], &[0, 1, 2]), 0.0);
    }

    #[test]
    fn transpose_directed() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        let g = b.build();
        let t = g.transpose();
        assert!(t.has_edge(1, 0));
        assert!(t.has_edge(2, 1));
        assert!(!t.has_edge(0, 1));
        assert_eq!(t.weight(2, 1), 2.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = triangle();
        let (sub, map) = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.weight(0, 1), 2.0);
    }

    #[test]
    fn edges_undirected_reported_once() {
        let g = triangle();
        let e = g.edges();
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn from_out_csr_roundtrips_both_directions() {
        let mut b = GraphBuilder::new_directed(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 2.5);
        b.add_edge(3, 0, 5.0);
        b.add_edge(4, 4, -1.5);
        for g in [triangle(), b.build()] {
            let (offs, tgts, wts) = g.out_adjacency();
            let r = Graph::from_out_csr(
                g.num_nodes(),
                g.is_directed(),
                offs.to_vec(),
                tgts.to_vec(),
                wts.to_vec(),
            );
            assert_eq!(r.num_nodes(), g.num_nodes());
            assert_eq!(r.num_edges(), g.num_edges());
            assert_eq!(r.is_directed(), g.is_directed());
            assert_eq!(r.out_adjacency(), g.out_adjacency());
            assert_eq!(r.in_adjacency(), g.in_adjacency());
        }
    }

    #[test]
    fn from_mapped_columns_shares_undirected_in_adjacency() {
        use crate::column::SharedColumn;
        use std::sync::Arc;

        struct Col<T: Send + Sync + 'static>(Vec<T>);
        impl<T: Send + Sync> SharedColumn<T> for Col<T> {
            fn as_slice(&self) -> &[T] {
                &self.0
            }
        }
        fn shared<T: Send + Sync + Clone>(v: &[T]) -> ColumnBuf<T> {
            ColumnBuf::Shared(Arc::new(Col(v.to_vec())) as Arc<dyn SharedColumn<T>>)
        }

        let g = triangle();
        let (offs, tgts, wts) = g.out_adjacency();
        let r = Graph::from_mapped_columns(
            g.num_nodes(),
            g.is_directed(),
            shared(&offs),
            shared(&tgts),
            shared(&wts),
        )
        .unwrap();
        assert!(r.has_shared_columns());
        assert_eq!(r.num_edges(), g.num_edges());
        assert_eq!(r.out_adjacency(), g.out_adjacency());
        assert_eq!(r.in_adjacency(), g.in_adjacency());
        r.advise(ColumnAdvice::Sequential);
        r.advise_arcs_will_need(&[0, 2]);

        // Invalid columns must surface typed errors, never panic.
        assert!(Graph::from_mapped_columns(
            3,
            false,
            shared(&[0usize, 1]), // wrong offsets length
            shared(&tgts),
            shared(&wts),
        )
        .is_err());
        assert!(Graph::from_mapped_columns(
            2,
            true,
            shared(&[0usize, 1, 2]),
            shared(&[5u32, 0]), // target out of range
            shared(&[1.0f64, 1.0]),
        )
        .is_err());
        assert!(Graph::from_mapped_columns(
            1,
            true,
            shared(&[0usize, 2]),
            shared(&[0u32, 0]), // row not strictly sorted
            shared(&[1.0f64, 1.0]),
        )
        .is_err());
    }

    #[test]
    fn to_directed_doubles_edges() {
        let g = triangle();
        let d = g.to_directed();
        assert!(d.is_directed());
        assert_eq!(d.num_edges(), 6);
        assert_eq!(d.num_arcs(), 6);
    }
}
