//! A mutable delta layer over the immutable CSR [`Graph`].
//!
//! The coloring pipeline's graphs are CSR-immutable by design (every hot
//! loop reads raw adjacency arrays), but the dynamic-graph maintenance path
//! needs edge churn: live traffic inserts, deletes and reweights edges while
//! downstream consumers (`qsc_core`'s incremental engine, the reduced
//! quotient matrix, a running `RothkoRun`) patch their state per batch
//! instead of rebuilding. [`GraphDelta`] provides that layer:
//!
//! * **Batched mutations.** [`GraphDelta::insert_edge`],
//!   [`GraphDelta::delete_edge`] and [`GraphDelta::reweight_edge`] record a
//!   per-node sorted *overlay* over the base CSR (current-weight overrides,
//!   `O(log deg)` per lookup) and append one [`EdgeEvent`] per logical edge
//!   change to the pending batch. Point queries ([`GraphDelta::weight`],
//!   [`GraphDelta::has_edge`], [`GraphDelta::num_edges`]) see the merged
//!   view immediately.
//! * **Event hand-off.** [`GraphDelta::drain_events`] takes the pending
//!   batch. An [`EdgeEvent`] is a *signed weight change* of one logical
//!   edge — `+w` for an insert, `-w_old` for a delete, `new − old` for a
//!   reweight — which is exactly the currency the incremental consumers
//!   patch their accumulators with (`IncrementalDegrees::apply_edge_batch`,
//!   `ReducedDelta::apply_edge_batch`).
//! * **Periodic compaction.** [`GraphDelta::compact`] folds the overlay
//!   back into a fresh CSR [`Graph`] and resets the overlay. The delta
//!   tracks the rows that gained overlay entries, so compaction is one bulk
//!   copy of the clean rows' arcs, `O(n)` offset writes and `O(overlay)`
//!   merges of the dirty rows (no sort — the overlay is kept in neighbor
//!   order); the returned graph is an O(1) clone of the new base. Callers
//!   compact when they need raw adjacency again (the refinement engine's
//!   split path scans CSR arrays) or when the overlay grows past a
//!   fraction of the arc count ([`GraphDelta::overlay_arcs`]).
//!
//! # Edge policy
//!
//! The delta layer is stricter than [`crate::GraphBuilder`] (which merges
//! duplicates by summing): inserting an edge that already exists is an
//! error ([`DeltaError::EdgeExists`]) — use
//! [`GraphDelta::reweight_edge`] — and deleting or reweighting an absent
//! edge is an error ([`DeltaError::NoSuchEdge`]). Self-loops are legal and
//! count as one logical edge (stored as a single arc, exactly like the CSR
//! convention). On undirected graphs an edge `{u, v}` is one logical edge;
//! its event carries the endpoints once and consumers apply it to both arc
//! directions. Weights must be finite ([`DeltaError::InvalidWeight`]);
//! inserting with weight `0.0` is rejected (a zero-weight edge is
//! indistinguishable from an absent one for every consumer), while
//! reweighting *to* `0.0` is expressed as a delete.
//!
//! # Node churn
//!
//! The delta layer also absorbs *node* insertions and removals — the other
//! half of the bidirectional event vocabulary:
//!
//! * [`GraphDelta::insert_node`] appends a fresh isolated node at the next
//!   id (`num_nodes()` grows; the node has no arcs until edges are
//!   inserted) and records a [`NodeEvent::Insert`].
//! * [`GraphDelta::remove_node`] first deletes every live incident edge —
//!   each emitting its ordinary [`EdgeEvent`] delete, a self-loop exactly
//!   once — then marks the node dead and records a [`NodeEvent::Remove`].
//!   Dead ids stay allocated (queries treat them as isolated and further
//!   mutations on them error with [`DeltaError::NodeRemoved`]) until the
//!   next compaction.
//! * [`GraphDelta::compact_renumber`] folds the overlay into a fresh CSR
//!   *and* renumbers: dead ids are dropped, survivors keep their relative
//!   order, and the returned [`NodeRemap`] maps old ids to new ones so
//!   consumers (partitions, accumulator engines) can compact their own
//!   node-indexed state in lockstep. [`GraphDelta::compact`] keeps its
//!   original contract — it panics if node churn is pending, directing
//!   callers to the renumbering variant.
//!
//! The event ordering contract consumers rely on: within one batch, node
//! inserts land first (they only grow the id space), edge events apply in
//! mutation order over the grown pre-compaction id space, and node
//! removals land last (by then their incident edges are already deleted,
//! so only isolated nodes are ever removed).

use crate::csr::{Graph, NodeId};

/// One logical node change, the node-axis companion of [`EdgeEvent`].
/// Removals are always preceded (in the edge-event stream) by deletes of
/// the node's incident edges, so consumers only ever remove isolated
/// nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// A fresh isolated node appended at this id.
    Insert {
        /// The new node's (pre-compaction) id.
        node: NodeId,
    },
    /// This node was removed (after its incident edges were deleted).
    Remove {
        /// The removed node's (pre-compaction) id.
        node: NodeId,
    },
}

/// The old-id → new-id mapping produced by [`GraphDelta::compact_renumber`]:
/// dead ids are dropped, survivors keep their relative order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRemap {
    /// `old_to_new[v] == NodeId::MAX` iff `v` was removed.
    old_to_new: Vec<NodeId>,
    new_len: usize,
}

impl NodeRemap {
    /// Identity remap over `n` nodes (no removals, no renumbering).
    pub fn identity(n: usize) -> Self {
        NodeRemap {
            old_to_new: (0..n as NodeId).collect(),
            new_len: n,
        }
    }

    /// Number of node ids before the renumbering.
    #[inline]
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of node ids after the renumbering.
    #[inline]
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The new id of old node `v`, or `None` if it was removed.
    #[inline]
    pub fn map(&self, v: NodeId) -> Option<NodeId> {
        let m = self.old_to_new[v as usize];
        (m != NodeId::MAX).then_some(m)
    }

    /// Whether old node `v` was removed.
    #[inline]
    pub fn is_removed(&self, v: NodeId) -> bool {
        self.old_to_new[v as usize] == NodeId::MAX
    }

    /// Whether the remap is the identity (no removals and no growth — the
    /// "compacting an unchanged node set" fast path).
    pub fn is_identity(&self) -> bool {
        self.new_len == self.old_to_new.len()
    }

    /// The removed old ids, ascending.
    pub fn removed_old_ids(&self) -> Vec<NodeId> {
        self.old_to_new
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == NodeId::MAX)
            .map(|(v, _)| v as NodeId)
            .collect()
    }
}

/// One logical-edge weight change: the currency of the dynamic-graph
/// maintenance path. `delta` is the signed change (`new − old`), so
/// inserts carry `+w`, deletes `-w_old`, and reweights the difference.
///
/// For undirected graphs the event names the endpoints once (in the order
/// the mutation was issued); consumers apply it to both stored arc
/// directions themselves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeEvent {
    /// Arc source (one endpoint for undirected graphs).
    pub source: NodeId,
    /// Arc target (the other endpoint for undirected graphs).
    pub target: NodeId,
    /// Signed weight change of the logical edge.
    pub delta: f64,
}

/// Errors from delta-layer mutations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaError {
    /// An endpoint was `>= num_nodes()`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// `insert_edge` on an edge that already exists (use `reweight_edge`).
    EdgeExists { source: NodeId, target: NodeId },
    /// `delete_edge`/`reweight_edge` on an edge that does not exist.
    NoSuchEdge { source: NodeId, target: NodeId },
    /// A non-finite weight, or an insert/reweight to exactly `0.0`.
    InvalidWeight { weight: f64 },
    /// An operation referenced a node already removed in this delta (dead
    /// ids stay allocated until the next [`GraphDelta::compact_renumber`]).
    NodeRemoved { node: NodeId },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            DeltaError::EdgeExists { source, target } => {
                write!(f, "edge ({source}, {target}) already exists")
            }
            DeltaError::NoSuchEdge { source, target } => {
                write!(f, "edge ({source}, {target}) does not exist")
            }
            DeltaError::InvalidWeight { weight } => {
                write!(f, "invalid edge weight {weight}")
            }
            DeltaError::NodeRemoved { node } => {
                write!(f, "node id {node} was removed in this delta")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Current state of one overlaid arc: a weight override or an explicit
/// deletion of a base arc.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ArcState {
    Present(f64),
    Absent,
}

/// A mutable batched delta over an immutable CSR base graph. See the
/// module docs for the design and the edge policy.
#[derive(Clone, Debug)]
pub struct GraphDelta {
    base: Graph,
    /// Per-node overlay of `(neighbor, state)` overrides of the base
    /// out-adjacency, sorted by neighbor. Undirected edges keep an entry in
    /// both endpoints' rows (one for self-loops), mirroring the CSR's
    /// symmetric-arc storage. Rows beyond the base node count belong to
    /// nodes inserted since the last compaction (their whole adjacency
    /// lives in the overlay).
    overlay: Vec<Vec<(NodeId, ArcState)>>,
    /// Rows that may differ from the base since the last compaction: every
    /// row that gained overlay entries, plus inserted and removed ids.
    /// Unsorted, possibly with repeats; compaction sorts and dedups it and
    /// copies every other row verbatim.
    dirty: Vec<NodeId>,
    /// Per-node dead flag: removed ids stay allocated until the next
    /// [`Self::compact_renumber`].
    dead: Vec<bool>,
    /// Number of dead ids (node-churn signal for the compaction policy).
    removed_nodes: usize,
    /// Nodes appended since the last compaction.
    inserted_nodes: usize,
    /// Pending logical-edge events since the last [`Self::drain_events`].
    events: Vec<EdgeEvent>,
    /// Pending node events since the last [`Self::drain_node_events`].
    node_events: Vec<NodeEvent>,
    /// Current logical edge count (arcs for directed, edges for
    /// undirected).
    num_edges: usize,
    /// Number of overlay entries (compaction-policy signal).
    overlay_arcs: usize,
}

impl GraphDelta {
    /// Wrap a base graph with an empty overlay.
    pub fn new(base: Graph) -> Self {
        let n = base.num_nodes();
        let num_edges = base.num_edges();
        GraphDelta {
            base,
            overlay: vec![Vec::new(); n],
            dirty: Vec::new(),
            dead: vec![false; n],
            removed_nodes: 0,
            inserted_nodes: 0,
            events: Vec::new(),
            node_events: Vec::new(),
            num_edges,
            overlay_arcs: 0,
        }
    }

    /// Size of the node *id space*: every id in `0..num_nodes()` is
    /// addressable, including ids removed since the last compaction (those
    /// behave as isolated nodes for queries and reject mutations). Use
    /// [`Self::num_live_nodes`] for the live count.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.overlay.len()
    }

    /// Number of live (non-removed) nodes.
    #[inline]
    pub fn num_live_nodes(&self) -> usize {
        self.overlay.len() - self.removed_nodes
    }

    /// Whether node id `v` is live (in range and not removed).
    #[inline]
    pub fn is_live(&self, v: NodeId) -> bool {
        (v as usize) < self.overlay.len() && !self.dead[v as usize]
    }

    /// Whether any node insertions or removals are pending (requiring
    /// [`Self::compact_renumber`] rather than [`Self::compact`]).
    #[inline]
    pub fn node_churn_pending(&self) -> bool {
        self.inserted_nodes > 0 || self.removed_nodes > 0
    }

    /// Current number of logical edges (insertions minus deletions applied
    /// to the base count).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the base graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    /// The base graph the overlay applies to (the state as of the last
    /// compaction).
    #[inline]
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Number of overlay entries not yet folded into the CSR. Callers use
    /// this to decide when a [`Self::compact`] pays for itself.
    #[inline]
    pub fn overlay_arcs(&self) -> usize {
        self.overlay_arcs
    }

    /// Number of pending (undrained) events.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Current weight of the arc `(u, v)` (`0.0` when absent), overlay
    /// included. `O(log deg)`.
    pub fn weight(&self, u: NodeId, v: NodeId) -> f64 {
        match self.overlay_state(u, v) {
            Some(ArcState::Present(w)) => w,
            Some(ArcState::Absent) => 0.0,
            None => self.base_weight(u, v),
        }
    }

    /// Whether the arc `(u, v)` currently exists, overlay included.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match self.overlay_state(u, v) {
            Some(ArcState::Present(_)) => true,
            Some(ArcState::Absent) => false,
            None => self.base_has(u, v),
        }
    }

    /// Insert the edge `(u, v)` with the given weight. Errors if the edge
    /// already exists, an endpoint is out of range, or the weight is
    /// non-finite or exactly zero. Records one [`EdgeEvent`] with
    /// `delta = weight`.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<(), DeltaError> {
        self.check_nodes(u, v)?;
        if !weight.is_finite() || weight == 0.0 {
            return Err(DeltaError::InvalidWeight { weight });
        }
        if self.has_edge(u, v) {
            return Err(DeltaError::EdgeExists {
                source: u,
                target: v,
            });
        }
        self.set_state(u, v, ArcState::Present(weight));
        if !self.is_directed() && u != v {
            self.set_state(v, u, ArcState::Present(weight));
        }
        self.num_edges += 1;
        self.events.push(EdgeEvent {
            source: u,
            target: v,
            delta: weight,
        });
        Ok(())
    }

    /// Delete the edge `(u, v)`. Errors if it does not exist. Records one
    /// [`EdgeEvent`] with `delta = -old_weight`.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), DeltaError> {
        self.check_nodes(u, v)?;
        if !self.has_edge(u, v) {
            return Err(DeltaError::NoSuchEdge {
                source: u,
                target: v,
            });
        }
        let old = self.weight(u, v);
        self.set_state(u, v, ArcState::Absent);
        if !self.is_directed() && u != v {
            self.set_state(v, u, ArcState::Absent);
        }
        self.num_edges -= 1;
        self.events.push(EdgeEvent {
            source: u,
            target: v,
            delta: -old,
        });
        Ok(())
    }

    /// Change the weight of the existing edge `(u, v)` to `weight`. Errors
    /// if the edge does not exist or the weight is non-finite or exactly
    /// zero (delete instead). Records one [`EdgeEvent`] with
    /// `delta = weight - old` (skipped entirely when the weight is
    /// unchanged).
    pub fn reweight_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<(), DeltaError> {
        self.check_nodes(u, v)?;
        if !weight.is_finite() || weight == 0.0 {
            return Err(DeltaError::InvalidWeight { weight });
        }
        if !self.has_edge(u, v) {
            return Err(DeltaError::NoSuchEdge {
                source: u,
                target: v,
            });
        }
        let old = self.weight(u, v);
        if old == weight {
            return Ok(());
        }
        self.set_state(u, v, ArcState::Present(weight));
        if !self.is_directed() && u != v {
            self.set_state(v, u, ArcState::Present(weight));
        }
        self.events.push(EdgeEvent {
            source: u,
            target: v,
            delta: weight - old,
        });
        Ok(())
    }

    /// Append a fresh isolated node at the next id and return it. The node
    /// has no arcs until edges are inserted; records one
    /// [`NodeEvent::Insert`].
    pub fn insert_node(&mut self) -> NodeId {
        let id = self.overlay.len() as NodeId;
        self.overlay.push(Vec::new());
        self.dirty.push(id);
        self.dead.push(false);
        self.inserted_nodes += 1;
        self.node_events.push(NodeEvent::Insert { node: id });
        id
    }

    /// Remove node `v`: delete every live incident edge (each emitting its
    /// ordinary [`EdgeEvent`] delete — a self-loop exactly once), then mark
    /// the id dead and record a [`NodeEvent::Remove`]. The id stays
    /// allocated (isolated, rejecting further mutations) until the next
    /// [`Self::compact_renumber`].
    pub fn remove_node(&mut self, v: NodeId) -> Result<(), DeltaError> {
        self.check_node(v)?;
        // Outgoing (for undirected graphs this covers every incident edge:
        // the mirror arcs live in v's own row).
        let out: Vec<NodeId> = self.live_out_neighbors(v);
        for t in out {
            self.delete_edge(v, t)?;
        }
        if self.is_directed() {
            let inc: Vec<NodeId> = self.live_in_neighbors(v);
            for s in inc {
                if s != v {
                    self.delete_edge(s, v)?;
                }
            }
        }
        self.dead[v as usize] = true;
        self.dirty.push(v);
        self.removed_nodes += 1;
        self.node_events.push(NodeEvent::Remove { node: v });
        Ok(())
    }

    /// Take the pending event batch (in mutation order), leaving the delta
    /// ready to accumulate the next one.
    pub fn drain_events(&mut self) -> Vec<EdgeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Take the pending node-event batch (in mutation order).
    pub fn drain_node_events(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.node_events)
    }

    /// Number of pending (undrained) node events.
    #[inline]
    pub fn pending_node_events(&self) -> usize {
        self.node_events.len()
    }

    /// Fold the overlay into a fresh CSR graph, reset the overlay, and
    /// return the new base (an O(1) clone: the delta and the caller share
    /// its columns, and the delta stays usable for further batches). One
    /// bulk copy of the arcs, `O(n)` offset writes and `O(overlay)` merges
    /// of the dirty rows; no sorting — both the base arcs and the overlay
    /// rows are in neighbor order.
    ///
    /// Pending events are *not* drained: compaction changes the
    /// representation, not the mutation history. Panics if node churn is
    /// pending — use [`Self::compact_renumber`], which also renumbers the
    /// node ids.
    pub fn compact(&mut self) -> Graph {
        assert!(
            !self.node_churn_pending(),
            "node insertions/removals pending; use compact_renumber"
        );
        self.compact_renumber().0
    }

    /// Fold the overlay into a fresh CSR graph *renumbering the node ids*:
    /// dead ids are dropped, survivors keep their relative order (and new
    /// nodes their appended positions). Returns the compacted graph and the
    /// [`NodeRemap`] consumers need to compact their own node-indexed
    /// state. The delta continues from the new id space. Same cost as
    /// [`Self::compact`] — one bulk arc copy (targets mapped through the
    /// remap when ids were removed), `O(n)` offsets, `O(overlay)` merges
    /// and an O(1) returned clone; with no node churn pending it equals
    /// [`Self::compact`] plus an identity remap.
    pub fn compact_renumber(&mut self) -> (Graph, NodeRemap) {
        let total = self.num_nodes();
        let mut old_to_new = vec![NodeId::MAX; total];
        let mut next = 0u32;
        for (v, &dead) in self.dead.iter().enumerate() {
            if !dead {
                old_to_new[v] = next;
                next += 1;
            }
        }
        let new_n = next as usize;
        let remap = NodeRemap {
            old_to_new,
            new_len: new_n,
        };
        let mut dirty = std::mem::take(&mut self.dirty);
        if self.node_churn_pending() || self.overlay_arcs > 0 {
            dirty.sort_unstable();
            dirty.dedup();
            self.base = self.rebuild(&dirty, &remap);
        }
        for &u in &dirty {
            self.overlay[u as usize].clear();
        }
        if self.node_churn_pending() {
            self.overlay.truncate(new_n);
            self.dead.clear();
            self.dead.resize(new_n, false);
            self.inserted_nodes = 0;
            self.removed_nodes = 0;
        }
        self.overlay_arcs = 0;
        dirty.clear();
        self.dirty = dirty;
        debug_assert_eq!(self.base.num_edges(), self.num_edges);
        (self.base.clone(), remap)
    }

    // ---- internals ----

    /// The compaction builder: the merged out-CSR over the live ids,
    /// renumbered through `remap`. `dirty` (ascending, deduplicated) lists
    /// every row that may differ from the base; each span of clean rows
    /// between two dirty ones is one bulk copy of its arcs plus shifted
    /// offsets — verbatim when no id was removed, targets mapped through
    /// `remap` otherwise (clean rows never target a removed node: removal
    /// deletes every incident edge, dirtying both endpoints' rows).
    fn rebuild(&self, dirty: &[NodeId], remap: &NodeRemap) -> Graph {
        let (base_offsets, base_targets, base_weights) = self.base.out_adjacency();
        let arc_cap = self.base.num_arcs() + self.overlay_arcs;
        let mut offsets = Vec::with_capacity(remap.new_len() + 1);
        offsets.push(0usize);
        let mut targets: Vec<NodeId> = Vec::with_capacity(arc_cap);
        let mut weights: Vec<f64> = Vec::with_capacity(arc_cap);
        let renumber = self.removed_nodes > 0;
        let (base_n, total) = (self.base.num_nodes(), self.num_nodes());
        let mut clean_from = 0usize;
        for &d in dirty.iter().chain(&[total as NodeId]) {
            // Rows `clean_from..d` are clean, hence base rows: one span.
            let d = d as usize;
            let (from, to) = (clean_from.min(base_n), d.min(base_n));
            let (lo, hi) = (base_offsets[from], base_offsets[to]);
            let shift = targets.len();
            if renumber {
                let old_to_new = &remap.old_to_new;
                targets.extend(base_targets[lo..hi].iter().map(|&t| old_to_new[t as usize]));
            } else {
                targets.extend_from_slice(&base_targets[lo..hi]);
            }
            weights.extend_from_slice(&base_weights[lo..hi]);
            offsets.extend(base_offsets[from + 1..=to].iter().map(|&o| o - lo + shift));
            if d == total {
                break;
            }
            if !self.dead[d] {
                self.for_each_live_arc(d as NodeId, |v, w| {
                    targets.push(remap.old_to_new[v as usize]);
                    weights.push(w);
                });
                offsets.push(targets.len());
            }
            clean_from = d + 1;
        }
        debug_assert_eq!(offsets.len(), remap.new_len() + 1);
        Graph::from_out_columns(
            remap.new_len(),
            self.num_edges,
            self.is_directed(),
            offsets.into(),
            targets.into(),
            weights.into(),
        )
    }

    /// Guarded base-arc weight: nodes appended since the last compaction
    /// have no base arcs.
    #[inline]
    fn base_weight(&self, u: NodeId, v: NodeId) -> f64 {
        let n = self.base.num_nodes();
        if (u as usize) < n && (v as usize) < n {
            self.base.weight(u, v)
        } else {
            0.0
        }
    }

    /// Guarded base-arc membership; see [`Self::base_weight`].
    #[inline]
    fn base_has(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.base.num_nodes();
        (u as usize) < n && (v as usize) < n && self.base.has_edge(u, v)
    }

    /// Call `emit(target, weight)` for every arc of the merged (base +
    /// overlay) out-row of `u`, in neighbor order.
    fn for_each_live_arc(&self, u: NodeId, mut emit: impl FnMut(NodeId, f64)) {
        let (targets, weights) = if (u as usize) < self.base.num_nodes() {
            self.base.out_arcs(u)
        } else {
            (&[][..], &[][..])
        };
        let over = &self.overlay[u as usize];
        let (mut bi, mut oi) = (0usize, 0usize);
        while bi < targets.len() || oi < over.len() {
            if oi == over.len() || (bi < targets.len() && targets[bi] < over[oi].0) {
                emit(targets[bi], weights[bi]);
                bi += 1;
            } else {
                let (v, state) = over[oi];
                if bi < targets.len() && targets[bi] == v {
                    bi += 1; // the overlay entry overrides this base arc
                }
                if let ArcState::Present(w) = state {
                    emit(v, w);
                }
                oi += 1;
            }
        }
    }

    /// Live out-neighbors of `v` (merged view), in neighbor order.
    fn live_out_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_live_arc(v, |t, _| out.push(t));
        out
    }

    /// Live in-neighbors of `v`: base in-arcs still live, plus
    /// overlay-inserted arcs found by scanning the overlay rows
    /// (`O(n + overlay)` — node removal is a rare, batched operation).
    fn live_in_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut sources = Vec::new();
        if (v as usize) < self.base.num_nodes() {
            let (base_srcs, _) = self.base.in_arcs(v);
            for &s in base_srcs {
                if self.has_edge(s, v) {
                    sources.push(s);
                }
            }
        }
        for (s, row) in self.overlay.iter().enumerate() {
            if let Ok(i) = row.binary_search_by_key(&v, |&(t, _)| t) {
                if matches!(row[i].1, ArcState::Present(_)) && !self.base_has(s as NodeId, v) {
                    sources.push(s as NodeId);
                }
            }
        }
        sources
    }

    fn check_node(&self, v: NodeId) -> Result<(), DeltaError> {
        let n = self.num_nodes();
        if v as usize >= n {
            return Err(DeltaError::NodeOutOfRange { node: v, n });
        }
        if self.dead[v as usize] {
            return Err(DeltaError::NodeRemoved { node: v });
        }
        Ok(())
    }

    fn check_nodes(&self, u: NodeId, v: NodeId) -> Result<(), DeltaError> {
        self.check_node(u)?;
        self.check_node(v)
    }

    fn overlay_state(&self, u: NodeId, v: NodeId) -> Option<ArcState> {
        let row = &self.overlay[u as usize];
        row.binary_search_by_key(&v, |&(t, _)| t)
            .ok()
            .map(|i| row[i].1)
    }

    fn set_state(&mut self, u: NodeId, v: NodeId, state: ArcState) {
        let base_has = self.base_has(u, v);
        let row = &mut self.overlay[u as usize];
        match row.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(i) => {
                // A no-op override (deleting an arc the base lacks, or
                // restoring a base arc's own weight) could be dropped, but
                // keeping it is simpler and compaction handles both.
                if !base_has && state == ArcState::Absent {
                    row.remove(i);
                    self.overlay_arcs -= 1;
                } else {
                    row[i].1 = state;
                }
            }
            Err(i) => {
                if state != ArcState::Absent || base_has {
                    if row.is_empty() {
                        self.dirty.push(u);
                    }
                    row.insert(i, (v, state));
                    self.overlay_arcs += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Rebuild a graph equal to `delta`'s current state from scratch via
    /// [`GraphBuilder`] — the slow O(n²) reference path pinning
    /// [`GraphDelta::compact`] and [`GraphDelta::compact_renumber`]: live
    /// ids are renumbered in order, removed ids dropped.
    fn rebuild_reference(delta: &GraphDelta) -> Graph {
        let live: Vec<NodeId> = (0..delta.num_nodes() as NodeId)
            .filter(|&v| delta.is_live(v))
            .collect();
        let mut b = if delta.is_directed() {
            GraphBuilder::new_directed(live.len())
        } else {
            GraphBuilder::new_undirected(live.len())
        };
        for (nu, &u) in live.iter().enumerate() {
            for (nv, &v) in live.iter().enumerate() {
                if (delta.is_directed() || nu <= nv) && delta.has_edge(u, v) {
                    b.add_edge(nu as NodeId, nv as NodeId, delta.weight(u, v));
                }
            }
        }
        b.build()
    }

    /// All six CSR arrays of `g` equal `r`'s, weights bit for bit.
    fn assert_same_csr(g: &Graph, r: &Graph, ctx: &str) {
        assert_eq!(g.num_nodes(), r.num_nodes(), "{ctx}: nodes");
        assert_eq!(g.num_edges(), r.num_edges(), "{ctx}: edges");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (dir, (go, gt, gw), (ro, rt, rw)) in [
            ("out", g.out_adjacency(), r.out_adjacency()),
            ("in", g.in_adjacency(), r.in_adjacency()),
        ] {
            assert_eq!(go, ro, "{ctx}: {dir} offsets");
            assert_eq!(gt, rt, "{ctx}: {dir} targets");
            assert_eq!(bits(gw), bits(rw), "{ctx}: {dir} weights");
        }
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 3.0);
        b.build()
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let mut d = GraphDelta::new(triangle());
        assert_eq!(d.num_edges(), 3);
        d.insert_edge(0, 3, 4.0).unwrap();
        assert!(d.has_edge(0, 3));
        assert!(d.has_edge(3, 0), "undirected insert mirrors");
        assert_eq!(d.weight(3, 0), 4.0);
        assert_eq!(d.num_edges(), 4);
        d.reweight_edge(1, 2, 5.0).unwrap();
        assert_eq!(d.weight(2, 1), 5.0);
        d.delete_edge(0, 1).unwrap();
        assert!(!d.has_edge(1, 0));
        assert_eq!(d.num_edges(), 3);
        let events = d.drain_events();
        assert_eq!(
            events,
            vec![
                EdgeEvent {
                    source: 0,
                    target: 3,
                    delta: 4.0
                },
                EdgeEvent {
                    source: 1,
                    target: 2,
                    delta: 3.0
                },
                EdgeEvent {
                    source: 0,
                    target: 1,
                    delta: -1.0
                },
            ]
        );
        assert_eq!(d.pending_events(), 0);
    }

    #[test]
    fn policy_errors() {
        let mut d = GraphDelta::new(triangle());
        assert_eq!(
            d.insert_edge(0, 1, 1.0),
            Err(DeltaError::EdgeExists {
                source: 0,
                target: 1
            })
        );
        assert_eq!(
            d.delete_edge(0, 3),
            Err(DeltaError::NoSuchEdge {
                source: 0,
                target: 3
            })
        );
        assert_eq!(
            d.reweight_edge(0, 3, 2.0),
            Err(DeltaError::NoSuchEdge {
                source: 0,
                target: 3
            })
        );
        assert_eq!(
            d.insert_edge(0, 3, 0.0),
            Err(DeltaError::InvalidWeight { weight: 0.0 })
        );
        assert!(matches!(
            d.insert_edge(0, 3, f64::NAN),
            Err(DeltaError::InvalidWeight { .. })
        ));
        assert_eq!(
            d.insert_edge(0, 9, 1.0),
            Err(DeltaError::NodeOutOfRange { node: 9, n: 4 })
        );
        assert!(
            d.drain_events().is_empty(),
            "failed mutations record nothing"
        );
    }

    #[test]
    fn reweight_to_same_value_records_no_event() {
        let mut d = GraphDelta::new(triangle());
        d.reweight_edge(0, 1, 1.0).unwrap();
        assert!(d.drain_events().is_empty());
    }

    #[test]
    fn compact_matches_reference_rebuild() {
        let mut d = GraphDelta::new(triangle());
        d.insert_edge(3, 1, 2.5).unwrap();
        d.delete_edge(2, 0).unwrap();
        d.reweight_edge(0, 1, 7.0).unwrap();
        d.insert_edge(3, 3, 1.5).unwrap(); // self-loop
        let reference = rebuild_reference(&d);
        let compacted = d.compact();
        assert_eq!(d.overlay_arcs(), 0);
        assert_eq!(compacted.num_nodes(), reference.num_nodes());
        assert_eq!(compacted.num_edges(), reference.num_edges());
        assert_eq!(compacted.num_arcs(), reference.num_arcs());
        let a: Vec<_> = compacted.arcs().collect();
        let b: Vec<_> = reference.arcs().collect();
        assert_eq!(a, b);
        // In-adjacency too (compaction derives it from the out-columns).
        for v in compacted.nodes() {
            let ca: Vec<_> = compacted.in_edges(v).collect();
            let ra: Vec<_> = reference.in_edges(v).collect();
            assert_eq!(ca, ra, "in-arcs of {v}");
        }
        // The delta stays usable after compaction.
        d.insert_edge(2, 0, 1.0).unwrap();
        assert!(d.has_edge(0, 2));
    }

    #[test]
    fn insert_after_delete_of_base_arc() {
        let mut d = GraphDelta::new(triangle());
        d.delete_edge(0, 1).unwrap();
        d.insert_edge(0, 1, 9.0).unwrap();
        assert_eq!(d.weight(0, 1), 9.0);
        assert_eq!(d.num_edges(), 3);
        let g = d.compact();
        assert_eq!(g.weight(1, 0), 9.0);
    }

    #[test]
    fn directed_delta_does_not_mirror() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1, 1.0);
        let mut d = GraphDelta::new(b.build());
        d.insert_edge(1, 2, 2.0).unwrap();
        assert!(d.has_edge(1, 2));
        assert!(!d.has_edge(2, 1));
        d.delete_edge(0, 1).unwrap();
        assert_eq!(d.num_edges(), 1);
        let g = d.compact();
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(1, 2), 2.0);
    }

    #[test]
    fn compact_without_changes_is_identity() {
        let g = triangle();
        let mut d = GraphDelta::new(g.clone());
        let c = d.compact();
        assert_eq!(c.num_edges(), g.num_edges());
        let a: Vec<_> = c.arcs().collect();
        let b: Vec<_> = g.arcs().collect();
        assert_eq!(a, b);
        // The renumbering variant on an unchanged node set is the identity
        // (empty overlay included).
        let (c2, remap) = d.compact_renumber();
        assert!(remap.is_identity());
        assert_eq!(remap.map(2), Some(2));
        let a2: Vec<_> = c2.arcs().collect();
        assert_eq!(a2, b);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch() {
        // Both mutations land in the same event batch: the delete's -w and
        // the reinsert's +w' must both be visible (consumers fold them per
        // (node, column) themselves).
        let mut d = GraphDelta::new(triangle());
        d.delete_edge(0, 1).unwrap();
        d.insert_edge(0, 1, 6.0).unwrap();
        assert_eq!(d.weight(0, 1), 6.0);
        assert_eq!(d.num_edges(), 3);
        let events = d.drain_events();
        assert_eq!(
            events,
            vec![
                EdgeEvent {
                    source: 0,
                    target: 1,
                    delta: -1.0
                },
                EdgeEvent {
                    source: 0,
                    target: 1,
                    delta: 6.0
                },
            ]
        );
        let g = d.compact();
        assert_eq!(g.weight(1, 0), 6.0);
    }

    #[test]
    fn removing_a_nodes_last_edge_leaves_it_isolated() {
        // Node 3 gains one edge, loses it again: it stays a live, isolated
        // node (still addressable, still compactable without renumbering).
        let mut d = GraphDelta::new(triangle());
        d.insert_edge(0, 3, 2.0).unwrap();
        d.delete_edge(3, 0).unwrap(); // mirror id order: same logical edge
        assert!(d.is_live(3));
        assert!(!d.has_edge(0, 3));
        assert_eq!(d.num_edges(), 3);
        let g = d.compact();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn node_insert_remove_round_trip() {
        let mut d = GraphDelta::new(triangle());
        let v = d.insert_node();
        assert_eq!(v, 4);
        assert_eq!(d.num_nodes(), 5);
        assert_eq!(d.num_live_nodes(), 5);
        d.insert_edge(v, 0, 2.0).unwrap();
        d.insert_edge(v, 2, 3.0).unwrap();
        // Removing v deletes its incident edges first (two EdgeEvents),
        // then the node itself.
        d.remove_node(v).unwrap();
        assert!(!d.is_live(v));
        assert_eq!(d.num_live_nodes(), 4);
        assert_eq!(d.num_edges(), 3);
        let events = d.drain_events();
        assert_eq!(events.len(), 4, "2 inserts + 2 removal-driven deletes");
        assert_eq!(events[2].delta, -2.0);
        assert_eq!(events[3].delta, -3.0);
        assert_eq!(
            d.drain_node_events(),
            vec![NodeEvent::Insert { node: 4 }, NodeEvent::Remove { node: 4 }]
        );
        // Mutations on the dead id are rejected.
        assert_eq!(
            d.insert_edge(v, 1, 1.0),
            Err(DeltaError::NodeRemoved { node: v })
        );
        assert_eq!(d.remove_node(v), Err(DeltaError::NodeRemoved { node: v }));
        let (g, remap) = d.compact_renumber();
        assert_eq!(g.num_nodes(), 4);
        assert!(remap.is_removed(4));
        assert_eq!(remap.map(3), Some(3));
        let a: Vec<_> = g.arcs().collect();
        let b: Vec<_> = triangle().arcs().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn self_loop_on_the_node_removal_path() {
        // A removed node with a self-loop emits exactly one delete for it
        // (undirected and directed alike).
        for directed in [false, true] {
            let mut b = if directed {
                GraphBuilder::new_directed(3)
            } else {
                GraphBuilder::new_undirected(3)
            };
            b.add_edge(0, 1, 1.0);
            b.add_edge(1, 1, 2.5); // self-loop
            b.add_edge(2, 1, 3.0);
            let mut d = GraphDelta::new(b.build());
            d.remove_node(1).unwrap();
            let mut deltas: Vec<f64> = d.drain_events().iter().map(|e| e.delta).collect();
            deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(deltas, vec![-3.0, -2.5, -1.0], "directed={directed}");
            assert_eq!(d.num_edges(), 0);
            let (g, remap) = d.compact_renumber();
            assert_eq!(g.num_nodes(), 2);
            assert_eq!(g.num_edges(), 0);
            assert_eq!(remap.map(2), Some(1));
            assert_eq!(remap.removed_old_ids(), vec![1]);
        }
    }

    #[test]
    fn remove_node_with_directed_overlay_in_arcs() {
        // Overlay-inserted in-arcs (absent from the base in-adjacency) must
        // be found and deleted by the removal.
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 1, 1.0);
        let mut d = GraphDelta::new(b.build());
        d.insert_edge(2, 1, 2.0).unwrap(); // overlay in-arc of 1
        d.insert_edge(1, 3, 3.0).unwrap(); // overlay out-arc of 1
        d.remove_node(1).unwrap();
        assert_eq!(d.num_edges(), 0);
        let (g, remap) = d.compact_renumber();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(remap.new_len(), 3);
    }

    #[test]
    fn renumbered_delta_stays_usable() {
        // After a renumbering compaction the delta accepts mutations in the
        // new id space, and a second renumber composes correctly.
        let mut d = GraphDelta::new(triangle());
        let v = d.insert_node(); // id 4
        d.insert_edge(v, 3, 1.5).unwrap();
        d.remove_node(0).unwrap();
        let (g, remap) = d.compact_renumber();
        assert_eq!(g.num_nodes(), 4);
        // Old 4 -> new 3, old 3 -> new 2.
        assert_eq!(remap.map(4), Some(3));
        assert_eq!(g.weight(3, 2), 1.5);
        d.insert_edge(0, 3, 9.0).unwrap(); // new id space
        d.drain_events();
        d.drain_node_events();
        let g2 = d.compact();
        assert_eq!(g2.weight(0, 3), 9.0);
    }

    /// Insert `(u, v)` if absent; otherwise delete or reweight it.
    fn toggle(d: &mut GraphDelta, rng: &mut rand::rngs::StdRng, u: NodeId, v: NodeId) {
        use rand::Rng;
        let w = rng.random_range(1..16u32) as f64 * 0.25;
        if !d.has_edge(u, v) {
            d.insert_edge(u, v, w).unwrap();
        } else if rng.random_range(0..2u32) == 0 {
            d.delete_edge(u, v).unwrap();
        } else {
            d.reweight_edge(u, v, w + 8.0).unwrap();
        }
    }

    #[test]
    fn randomized_compaction_matches_reference() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let directed = seed % 2 == 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 12 + seed as usize % 5;
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            for _ in 0..2 * n {
                let (u, v) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                if !b.contains_edge(u, v) {
                    b.add_edge(u, v, rng.random_range(1..16u32) as f64 * 0.5);
                }
            }
            let mut d = GraphDelta::new(b.build());
            for round in 0..8 {
                let ctx = format!("seed {seed} round {round} directed {directed}");
                let live: Vec<NodeId> = (0..d.num_nodes() as NodeId).collect();
                let pick = |rng: &mut rand::rngs::StdRng| live[rng.random_range(0..live.len())];
                // Dirty first and last rows, two adjacent rows, a self-loop.
                let last = *live.last().unwrap();
                let s = pick(&mut rng);
                let forced = [
                    (0, pick(&mut rng)),
                    (last, pick(&mut rng)),
                    (3, 4),
                    (4, pick(&mut rng)),
                    (s, s),
                ];
                for (u, v) in forced {
                    toggle(&mut d, &mut rng, u, v);
                }
                // A row dirtied and then restored to its base state.
                let (u, v) = (pick(&mut rng), pick(&mut rng));
                if d.has_edge(u, v) {
                    let w = d.weight(u, v);
                    d.reweight_edge(u, v, w + 1.0).unwrap();
                    d.reweight_edge(u, v, w).unwrap();
                } else {
                    d.insert_edge(u, v, 1.0).unwrap();
                    d.delete_edge(u, v).unwrap();
                }
                for _ in 0..rng.random_range(0..12u32) {
                    let (u, v) = (pick(&mut rng), pick(&mut rng));
                    toggle(&mut d, &mut rng, u, v);
                }
                if round % 2 == 1 {
                    // Node churn: an isolated insert that survives, one
                    // removed while still isolated, one wired then kept,
                    // and a removed connected node (never 0, 3, 4 or the
                    // last id, so the forced rows above stay live).
                    d.insert_node();
                    let gone = d.insert_node();
                    let (wired, peer) = (d.insert_node(), pick(&mut rng));
                    toggle(&mut d, &mut rng, wired, peer);
                    d.remove_node(gone).unwrap();
                    let victim = 5 + rng.random_range(0..(n as u32 - 6));
                    d.remove_node(victim).unwrap();
                }
                let reference = rebuild_reference(&d);
                let g = if d.node_churn_pending() {
                    d.compact_renumber().0
                } else {
                    d.compact()
                };
                assert_eq!(d.overlay_arcs(), 0, "{ctx}");
                assert_same_csr(&g, &reference, &ctx);
                assert_same_csr(d.base(), &reference, &ctx);
                // Compaction shares storage instead of copying it.
                let c = g.clone();
                assert_eq!(c.out_adjacency().1.as_ptr(), g.out_adjacency().1.as_ptr());
                assert_eq!(
                    g.out_adjacency().2.as_ptr(),
                    d.base().out_adjacency().2.as_ptr()
                );
                if !directed {
                    let ((o, t, w), (io, is, iw)) = (g.out_adjacency(), g.in_adjacency());
                    assert_eq!(
                        (o.as_ptr(), t.as_ptr(), w.as_ptr()),
                        (io.as_ptr(), is.as_ptr(), iw.as_ptr())
                    );
                }
                d.drain_events();
                d.drain_node_events();
            }
        }
    }
}
