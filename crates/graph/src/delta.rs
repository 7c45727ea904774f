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
//!   into a new [`Graph`] and resets the overlay. The delta tracks the
//!   rows that gained overlay entries (the *dirty* rows), and the overlay
//!   is kept in neighbor order, so no step sorts arcs. Below a fixed patch
//!   size, an edge-only compaction merges the dirty rows into one new
//!   chunk of the graph's row patch over the *same* base columns
//!   (directed graphs also patch the in-rows of the changed arcs'
//!   targets): `O(n)` for the row locator plus the arcs of the dirty
//!   rows, and no base arc is copied. Once the patch would pass a fixed
//!   share of the base arcs (`PATCH_LIMIT_DIVISOR`), and on every
//!   renumbering compaction, [`GraphDelta::compact_renumber`]'s builder
//!   flattens instead: one bulk copy per span of clean base rows plus the
//!   merged dirty and patched rows, into fresh owned columns. Either way
//!   the returned graph is an O(1) clone of the new base. Callers compact
//!   when the engine needs the new graph (it reads rows through
//!   [`Graph::out_arcs`]/[`Graph::in_arcs`]) or when the overlay grows
//!   past a fraction of the arc count ([`GraphDelta::overlay_arcs`]).
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
//! * [`GraphDelta::compact_renumber`] folds the overlay into a flat CSR
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

use crate::csr::{Graph, NodeId, RowChunk};

/// An edge-only compaction patches rows while the out-direction patch,
/// superseded row copies included, stays within `1 / PATCH_LIMIT_DIVISOR`
/// of the base arcs, and flattens once it could pass that. A flatten
/// costs about one copy of the base, so a larger share flattens less
/// often but holds more arcs twice at its peak. Measured on pipebench
/// `stream-edges` (seed 7, 200k nodes, 1.6M arcs, about 75k arcs in the
/// changed rows per round): 66 flattens in 734 compactions, one every 11
/// rounds (9%).
const PATCH_LIMIT_DIVISOR: usize = 2;

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

    /// Fold the overlay into a new graph, reset the overlay, and return
    /// the new base (an O(1) clone: the delta and the caller share its
    /// storage, and the delta stays usable for further batches). Below
    /// the patch limit this is `O(n)` plus the arcs of the dirty rows (and,
    /// for directed graphs, of their targets' in-rows): the merged rows
    /// become a new chunk of the row patch over the previous graph's base
    /// columns, which the previous graph keeps reading unchanged. Past the
    /// limit it flattens like [`Self::compact_renumber`] with no node
    /// churn. No sorting — both the base arcs and the overlay rows are in
    /// neighbor order.
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
        self.fold(None);
        self.base.clone()
    }

    /// Fold the overlay into a new graph *renumbering the node ids*: dead
    /// ids are dropped, survivors keep their relative order (and new nodes
    /// their appended positions). Returns the compacted graph and the
    /// [`NodeRemap`] consumers need to compact their own node-indexed
    /// state. The delta continues from the new id space. With node churn
    /// pending the result is flat, in fresh owned columns: one bulk copy
    /// per span of clean base rows (targets mapped through the remap when
    /// ids were removed), `O(n)` offsets, and merges of the dirty and
    /// patched rows. With none pending it equals [`Self::compact`] plus an
    /// identity remap.
    pub fn compact_renumber(&mut self) -> (Graph, NodeRemap) {
        if !self.node_churn_pending() {
            return (self.compact(), NodeRemap::identity(self.num_nodes()));
        }
        let total = self.num_nodes();
        let mut old_to_new = vec![NodeId::MAX; total];
        let mut next = 0u32;
        for (v, &dead) in self.dead.iter().enumerate() {
            if !dead {
                old_to_new[v] = next;
                next += 1;
            }
        }
        let remap = NodeRemap {
            old_to_new,
            new_len: next as usize,
        };
        self.fold(Some(&remap));
        (self.base.clone(), remap)
    }

    // ---- internals ----

    /// Fold the overlay into a new base and reset it: patched (or
    /// flattened past the patch limit) when `remap` is `None`, which
    /// requires that no node churn is pending; flattened and renumbered
    /// through `remap` otherwise.
    fn fold(&mut self, remap: Option<&NodeRemap>) {
        let mut dirty = std::mem::take(&mut self.dirty);
        if remap.is_some() || self.overlay_arcs > 0 {
            dirty.sort_unstable();
            dirty.dedup();
            self.base = match remap {
                Some(remap) => self.rebuild(&dirty, Some(remap)),
                None => self.patch(&dirty),
            };
        }
        for &u in &dirty {
            self.overlay[u as usize].clear();
        }
        if let Some(remap) = remap {
            let new_n = remap.new_len();
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
    }

    /// The edge-only compaction: the merged dirty rows (ascending,
    /// deduplicated) as one new patch chunk over the base's columns, or
    /// [`Self::rebuild`] once the patch could pass its limit.
    fn patch(&self, dirty: &[NodeId]) -> Graph {
        if !self.base.patch_has_room(dirty.len().max(self.overlay_arcs)) {
            return self.rebuild(dirty, None);
        }
        let rows = self.live_rows(dirty);
        let replaced: usize = rows.iter().map(|r| r.0.len()).sum();
        // At most the replaced rows plus one arc per overlay entry.
        let most = replaced + self.overlay_arcs;
        let base_arcs = self.base.base_out_columns().1.len();
        if self.base.patch_arcs() + most > base_arcs / PATCH_LIMIT_DIVISOR {
            return self.rebuild(dirty, None);
        }
        let mut out = RowChunk::with_capacity(dirty.len(), most);
        for (&u, &(targets, weights, over)) in dirty.iter().zip(&rows) {
            let (to_targets, to_weights) = out.columns_mut();
            merge_row(targets, weights, over, to_targets, to_weights);
            out.end_row(u);
        }
        let arcs = self.base.num_arcs() - replaced + out.arcs();
        let inn = self.is_directed().then(|| self.in_rows(dirty));
        self.base.with_patched_rows(self.num_edges, arcs, out, inn)
    }

    /// A directed compaction's in-row chunk: the in-row of every target of
    /// an overlay arc out of the `dirty` rows, merged with the overlay's
    /// changes to it. Sources stay ascending, as the flat in-columns hold
    /// them.
    fn in_rows(&self, dirty: &[NodeId]) -> RowChunk {
        let mut changes: Vec<(NodeId, NodeId, ArcState)> = Vec::with_capacity(self.overlay_arcs);
        for &u in dirty {
            for &(v, state) in &self.overlay[u as usize] {
                changes.push((v, u, state));
            }
        }
        changes.sort_unstable_by_key(|&(v, u, _)| (v, u));
        let over: Vec<(NodeId, ArcState)> = changes.iter().map(|&(_, u, s)| (u, s)).collect();
        let mut chunk = RowChunk::with_capacity(changes.len(), 0);
        let mut i = 0;
        while i < changes.len() {
            let v = changes[i].0;
            let end = i + changes[i..].partition_point(|c| c.0 == v);
            let (sources, weights) = self.base.in_arcs(v);
            let (to_sources, to_weights) = chunk.columns_mut();
            merge_row(sources, weights, &over[i..end], to_sources, to_weights);
            chunk.end_row(v);
            i = end;
        }
        chunk
    }

    /// The flattening builder: the merged out-CSR over the live ids,
    /// renumbered through `remap` (`None`: ids unchanged), in fresh owned
    /// columns. `dirty` (ascending, deduplicated) lists every row that may
    /// differ from the base; it and the base's patched rows are merged row
    /// by row, and each span of other rows between two of them is one bulk
    /// copy of its base arcs plus shifted offsets — verbatim when no id was
    /// removed, targets mapped through `remap` otherwise (clean rows never
    /// target a removed node: removal deletes every incident edge,
    /// dirtying both endpoints' rows).
    fn rebuild(&self, dirty: &[NodeId], remap: Option<&NodeRemap>) -> Graph {
        let patched = self.base.patched_out_rows();
        let merged;
        let dirty = if patched.is_empty() {
            dirty
        } else {
            let mut rows = [dirty, &patched].concat();
            rows.sort_unstable();
            rows.dedup();
            merged = rows;
            &merged
        };
        let (base_offsets, base_targets, base_weights) = self.base.base_out_columns();
        let (base_n, total) = (self.base.num_nodes(), self.num_nodes());
        let new_n = remap.map_or(total, NodeRemap::new_len);
        let renumber = remap
            .filter(|r| !r.is_identity())
            .map(|r| &r.old_to_new[..]);
        let arc_cap = self.base.num_arcs() + self.overlay_arcs;
        let mut offsets = Vec::with_capacity(new_n + 1);
        offsets.push(0usize);
        let mut targets: Vec<NodeId> = Vec::with_capacity(arc_cap);
        let mut weights: Vec<f64> = Vec::with_capacity(arc_cap);
        let rows = self.live_rows(dirty);
        let mut clean_from = 0usize;
        for (i, &d) in dirty.iter().chain(&[total as NodeId]).enumerate() {
            // Rows `clean_from..d` are clean, hence base rows: one span.
            let d = d as usize;
            let (from, to) = (clean_from.min(base_n), d.min(base_n));
            let (lo, hi) = (base_offsets[from], base_offsets[to]);
            let shift = targets.len();
            if let Some(old_to_new) = renumber {
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
                let start = targets.len();
                let (row_targets, row_weights, over) = rows[i];
                merge_row(row_targets, row_weights, over, &mut targets, &mut weights);
                if let Some(old_to_new) = renumber {
                    for t in &mut targets[start..] {
                        *t = old_to_new[*t as usize];
                    }
                }
                offsets.push(targets.len());
            }
            clean_from = d + 1;
        }
        debug_assert_eq!(offsets.len(), new_n + 1);
        Graph::from_out_columns(
            new_n,
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

    /// The parts of the merged out-row of each of `rows`: its base row
    /// (empty for nodes appended since the last compaction) and the
    /// overlay entries over it. Gathered in one pass ahead of the merge,
    /// so the rows' scattered cache misses overlap instead of queueing
    /// behind each row's copy.
    fn live_rows(&self, rows: &[NodeId]) -> Vec<RowParts<'_>> {
        rows.iter()
            .map(|&u| {
                let (targets, weights) = if (u as usize) < self.base.num_nodes() {
                    self.base.out_arcs(u)
                } else {
                    (&[][..], &[][..])
                };
                (targets, weights, &self.overlay[u as usize][..])
            })
            .collect()
    }

    /// Live out-neighbors of `v` (merged view), in neighbor order.
    fn live_out_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let (mut out, mut weights) = (Vec::new(), Vec::new());
        let (targets, base_weights, over) = self.live_rows(&[v])[0];
        merge_row(targets, base_weights, over, &mut out, &mut weights);
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

/// A merged row's parts: a base row's targets and weights, and the
/// overlay entries over it.
type RowParts<'a> = (&'a [NodeId], &'a [f64], &'a [(NodeId, ArcState)]);

/// Append the arcs of a base row (`targets`/`weights`, neighbor order)
/// overridden by `over` (neighbor order) to `to_targets`/`to_weights`, in
/// neighbor order. The base arcs between two overrides are copied as one
/// slice, found by binary search, so long rows with few overrides cost
/// little more than a copy.
fn merge_row(
    targets: &[NodeId],
    weights: &[f64],
    over: &[(NodeId, ArcState)],
    to_targets: &mut Vec<NodeId>,
    to_weights: &mut Vec<f64>,
) {
    let mut bi = 0usize;
    for &(v, state) in over {
        let end = bi + targets[bi..].partition_point(|&t| t < v);
        to_targets.extend_from_slice(&targets[bi..end]);
        to_weights.extend_from_slice(&weights[bi..end]);
        bi = end;
        if targets.get(bi) == Some(&v) {
            bi += 1; // the overlay entry overrides this base arc
        }
        if let ArcState::Present(w) = state {
            to_targets.push(v);
            to_weights.push(w);
        }
    }
    to_targets.extend_from_slice(&targets[bi..]);
    to_weights.extend_from_slice(&weights[bi..]);
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

    /// `g` answers every query exactly as `r` does, f64 values bit for
    /// bit: both directions' rows and CSR arrays, point lookups over all
    /// pairs, degrees, counts, `edges()` and `total_weight()`.
    fn assert_same_graph(g: &Graph, r: &Graph, ctx: &str) {
        assert_eq!(g.num_nodes(), r.num_nodes(), "{ctx}: nodes");
        assert_eq!(g.num_edges(), r.num_edges(), "{ctx}: edges");
        assert_eq!(g.num_arcs(), r.num_arcs(), "{ctx}: arcs");
        assert_eq!(g.is_directed(), r.is_directed(), "{ctx}: directed");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for v in r.nodes() {
            for (dir, (gt, gw), (rt, rw)) in [
                ("out", g.out_arcs(v), r.out_arcs(v)),
                ("in", g.in_arcs(v), r.in_arcs(v)),
            ] {
                assert_eq!(gt, rt, "{ctx}: {dir}-row {v}");
                assert_eq!(bits(gw), bits(rw), "{ctx}: {dir}-row {v} weights");
            }
            assert_eq!(g.out_degree(v), r.out_degree(v), "{ctx}: out-degree {v}");
            assert_eq!(g.in_degree(v), r.in_degree(v), "{ctx}: in-degree {v}");
            for u in r.nodes() {
                assert_eq!(g.has_edge(v, u), r.has_edge(v, u), "{ctx}: has ({v}, {u})");
                assert_eq!(
                    g.weight(v, u).to_bits(),
                    r.weight(v, u).to_bits(),
                    "{ctx}: weight ({v}, {u})"
                );
            }
        }
        for (dir, (go, gt, gw), (ro, rt, rw)) in [
            ("out", g.out_adjacency(), r.out_adjacency()),
            ("in", g.in_adjacency(), r.in_adjacency()),
        ] {
            assert_eq!(go, ro, "{ctx}: {dir} offsets");
            assert_eq!(gt, rt, "{ctx}: {dir} targets");
            assert_eq!(bits(&gw), bits(&rw), "{ctx}: {dir} weights");
        }
        let edge_bits = |g: &Graph| -> Vec<(NodeId, NodeId, u64)> {
            g.edges()
                .into_iter()
                .map(|(u, v, w)| (u, v, w.to_bits()))
                .collect()
        };
        assert_eq!(edge_bits(g), edge_bits(r), "{ctx}: edges()");
        assert_eq!(
            g.total_weight().to_bits(),
            r.total_weight().to_bits(),
            "{ctx}: total weight"
        );
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
                assert_same_graph(&g, &reference, &ctx);
                assert_same_graph(d.base(), &reference, &ctx);
                // Compaction shares storage instead of copying it.
                let c = g.clone();
                assert_eq!(
                    c.base_out_columns().1.as_ptr(),
                    g.base_out_columns().1.as_ptr()
                );
                assert_eq!(
                    g.base_out_columns().2.as_ptr(),
                    d.base().base_out_columns().2.as_ptr()
                );
                if !directed && !g.is_patched() {
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

    /// A `SharedColumn` over an owned vector: stands in for a column of a
    /// memory-mapped checkpoint.
    struct Col<T>(Vec<T>);
    impl<T: Send + Sync> crate::column::SharedColumn<T> for Col<T> {
        fn as_slice(&self) -> &[T] {
            &self.0
        }
    }

    /// `g` rebuilt over shared columns, as a mapped restore builds it.
    fn over_shared_columns(g: &Graph) -> Graph {
        fn col<T: Send + Sync + Clone>(v: &[T]) -> crate::ColumnBuf<T> {
            crate::ColumnBuf::Shared(std::sync::Arc::new(Col(v.to_vec())))
        }
        let (o, t, w) = g.out_adjacency();
        Graph::from_mapped_columns(g.num_nodes(), g.is_directed(), col(&o), col(&t), col(&w))
            .unwrap()
    }

    #[test]
    fn long_horizon_compaction_matches_reference() {
        // Enough edge-only compactions to flatten the row patch several
        // times, node-churn rounds renumbering patched graphs, and bases
        // over shared columns; every graph checked against the reference.
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let directed = seed % 2 == 1;
            let mapped = seed % 4 >= 2;
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
            let n = 40;
            let mut b = if directed {
                GraphBuilder::new_directed(n)
            } else {
                GraphBuilder::new_undirected(n)
            };
            for _ in 0..4 * n {
                let (u, v) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                if !b.contains_edge(u, v) {
                    b.add_edge(u, v, rng.random_range(1..16u32) as f64 * 0.5);
                }
            }
            let built = b.build();
            let base = if mapped {
                over_shared_columns(&built)
            } else {
                built
            };
            let mut d = GraphDelta::new(base);
            let (mut patched, mut flattened, mut mapped_patched) = (0, 0, 0);
            let mut prev: Option<(Graph, Graph)> = None;
            for round in 0..48 {
                let ctx = format!("seed {seed} round {round} directed {directed}");
                let ids = d.num_nodes() as u32;
                if round % 8 == 7 {
                    let v = d.insert_node();
                    let peer = rng.random_range(0..ids);
                    toggle(&mut d, &mut rng, v, peer);
                    d.remove_node(rng.random_range(0..ids)).unwrap();
                } else {
                    for _ in 0..rng.random_range(2..6u32) {
                        let (u, v) = (rng.random_range(0..ids), rng.random_range(0..ids));
                        toggle(&mut d, &mut rng, u, v);
                    }
                }
                let reference = rebuild_reference(&d);
                let renumber = d.node_churn_pending();
                let before = d.base().clone();
                let g = if renumber {
                    d.compact_renumber().0
                } else {
                    d.compact()
                };
                assert_same_graph(&g, &reference, &ctx);
                if !directed {
                    let ctx = format!("{ctx} (to_directed)");
                    assert_same_graph(&g.to_directed(), &reference.to_directed(), &ctx);
                }
                // The previous graph still reads its own state.
                if let Some((pg, pr)) = &prev {
                    assert_same_graph(pg, pr, &format!("{ctx} (previous graph)"));
                }
                if g.is_patched() {
                    assert!(!renumber, "{ctx}: renumbering compactions flatten");
                    patched += 1;
                    // No base arc copied: the columns are the previous
                    // graph's, and mapped ones stay mapped.
                    let (new, old) = (g.base_out_columns(), before.base_out_columns());
                    assert_eq!(new.1.as_ptr(), old.1.as_ptr(), "{ctx}");
                    assert_eq!(new.2.as_ptr(), old.2.as_ptr(), "{ctx}");
                    assert_eq!(g.has_shared_columns(), before.has_shared_columns());
                    mapped_patched += usize::from(g.has_shared_columns());
                } else if !renumber && before.is_patched() {
                    flattened += 1;
                }
                prev = Some((g, reference));
                d.drain_events();
                d.drain_node_events();
            }
            assert!(patched >= 8, "seed {seed}: {patched} patched compactions");
            assert!(flattened >= 2, "seed {seed}: {flattened} patch flattens");
            assert_eq!(mapped_patched > 0, mapped, "seed {seed}");
        }
    }
}
