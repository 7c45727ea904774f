//! Accumulator storage for the incremental engine.
//!
//! The summary-tracking [`crate::q_error::IncrementalDegrees`] engine keeps,
//! per direction, the weight `w(v, P_j)` of every node toward every color.
//! `Accum` holds one direction's accumulators in one of two tiers, and is
//! the only place that knows which:
//!
//! * **Dense plane** — a color-major `ncap × cap` matrix, 8 bytes per
//!   (node, color) slot whether or not the node has weight toward that
//!   color. Color `j`'s column is the contiguous run
//!   `plane[j * ncap .. j * ncap + n]`, so the engine's hot reads — a
//!   one-column member rescan, the split shift between a parent and its
//!   child, the merge fold, the relabel — each touch one or two columns
//!   (160 KiB at 20k nodes, L2-resident) instead of one row per node. The
//!   node axis keeps geometric slack (`n ≤ ncap`) so appends rarely
//!   restride; the color axis grows by appending columns. Slack slots and
//!   columns at or above the live color count always read `0.0`.
//! * **Tiered rows** — one [`RowRep`] per node. On sparse graphs a node
//!   touches at most `deg(v)` colors, so at `k = 200` colors and average
//!   degree 20 over 90% of a dense plane is zeros:
//!   * [`RowRep::Sparse`] — a sorted `(color, weight)` vector holding only
//!     the nonzero entries. Reads probe; writes insert/remove to keep the
//!     vector sorted and exact-zero-free. 16 bytes per *nonzero* entry.
//!   * [`RowRep::Dense`] — a plain slot array for **hot rows**: once a
//!     row's nonzero count reaches half the live color count (and the
//!     color count is large enough for the trade to matter,
//!     [`PROMOTE_MIN_K`]), the sparse form would cost more bytes *and*
//!     more work per access than dense slots, so the row is promoted in
//!     place. Promotion is a pure function of the row's mutation history
//!     and the engine's color count — never of the thread count — so
//!     tiering cannot perturb the determinism contract. Rows are not
//!     demoted: a row that was hot stays dense (demotion would add churn
//!     on the exact rows that are mutated most, for a bounded and
//!     already-paid memory cost).
//!
//! Which tier an engine uses is selected by [`StorageMode`], the
//! `RothkoConfig::storage` knob. Values stored in either tier are
//! bit-identical: both apply the same scalar `old + delta` update, and a
//! missing sparse entry reads as exactly `+0.0` — the same value a dense
//! plane stores explicitly. (A dense slot can in principle hold `-0.0`
//! where the sparse row dropped the entry; `-0.0 == 0.0` in every compare
//! and subtraction the engine performs, so no observable output
//! distinguishes them.) Every `Accum` operation that walks many nodes
//! matches on the tier once, outside its node loop.

use crate::kernels;
use crate::parallel::SyncSliceMut;
use crate::q_error::RowsSnapshot;
use qsc_graph::delta::NodeRemap;
use qsc_graph::{ColumnAdvice, ColumnBuf, NodeId};

/// Accumulator storage policy for the summary-tracking engine
/// (`RothkoConfig::storage`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageMode {
    /// Dense `n × k` planes. Fastest per access at small `n · k`; memory
    /// grows as `n · k · 8` bytes per direction.
    Dense,
    /// Tiered per-node rows (sorted sparse vectors + a dense tier for
    /// hot rows). Memory grows with the number of *nonzero* (node,
    /// color) pairs, bounded by the arc count.
    Sparse,
    /// Choose per engine at construction: sparse when the projected
    /// dense footprint is large **and** the graph is sparse relative to
    /// the color budget; dense otherwise. The heuristic is a pure
    /// function of `(n, arcs, color hint, directedness)`, so it is
    /// deterministic across runs and thread counts.
    #[default]
    Auto,
}

impl StorageMode {
    /// Resolve `Auto` into a concrete tier for an engine over `n` nodes
    /// and `arcs` stored arcs, with `hint_cap` pre-reserved color
    /// capacity and `dirs` tracked directions (1 when symmetric, 2 when
    /// directed).
    ///
    /// The gate is deliberately conservative: dense rows win on every
    /// workload that fits comfortably in memory, so `Auto` only flips to
    /// sparse when the projected dense accumulator footprint exceeds
    /// [`AUTO_DENSE_BYTES`] **and** the average row would stay under a
    /// quarter of the capacity (dense graphs gain nothing from sparse
    /// rows — they promote straight back to the dense tier).
    #[must_use]
    pub fn resolve(self, n: usize, arcs: usize, hint_cap: usize, dirs: usize) -> ResolvedStorage {
        match self {
            StorageMode::Dense => ResolvedStorage::Dense,
            StorageMode::Sparse => ResolvedStorage::Sparse,
            StorageMode::Auto => {
                let dense_bytes = n
                    .saturating_mul(hint_cap)
                    .saturating_mul(8)
                    .saturating_mul(dirs.max(1));
                let avg_row_nnz = arcs / n.max(1);
                if dense_bytes > AUTO_DENSE_BYTES && avg_row_nnz.saturating_mul(4) <= hint_cap {
                    ResolvedStorage::Sparse
                } else {
                    ResolvedStorage::Dense
                }
            }
        }
    }
}

/// A [`StorageMode`] with `Auto` already decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedStorage {
    /// Dense `n × k` matrices.
    Dense,
    /// Tiered per-node rows.
    Sparse,
}

/// Projected dense accumulator bytes above which `Auto` considers the
/// sparse tier (256 MiB).
pub const AUTO_DENSE_BYTES: usize = 256 << 20;

/// Minimum live color count before a sparse row is promoted to the
/// dense tier. Below this, rows are tiny either way and promotion would
/// just churn allocations (the degenerate case is the unit partition,
/// `k = 1`, where every row trivially has `nnz · 2 ≥ k`).
pub const PROMOTE_MIN_K: usize = 64;

/// Sparse rows at or below this entry count are probed with a forward
/// linear scan instead of a binary search: the scan's exit branch
/// mispredicts once while a binary search mispredicts on most of its
/// `log nnz` probes, and the scan walks sequential cache lines. Above
/// the cutoff the search wins again.
const LINEAR_PROBE_MAX: usize = 32;

/// Index of the first entry in a sorted-by-color row with key `>=
/// color` (the binary-search insertion point), via the hybrid probe.
#[inline(always)]
fn lower_bound(entries: &[(u32, f64)], color: u32) -> usize {
    if entries.len() <= LINEAR_PROBE_MAX {
        let mut i = 0;
        while i < entries.len() && entries[i].0 < color {
            i += 1;
        }
        i
    } else {
        entries.partition_point(|&(c, _)| c < color)
    }
}

/// One node's accumulator row in tiered storage: weight toward each
/// color, with absent entries reading as exactly `0.0`.
#[derive(Clone, Debug)]
pub enum RowRep {
    /// Sorted-by-color nonzero entries.
    Sparse(Vec<(u32, f64)>),
    /// Dense slots for a promoted (hot) row. The slot array's length is
    /// independent of the engine's color capacity: columns past the end
    /// read `0.0` and the array grows geometrically on first write.
    Dense(Box<[f64]>),
}

impl Default for RowRep {
    fn default() -> Self {
        RowRep::Sparse(Vec::new())
    }
}

impl RowRep {
    /// An empty (all-zero) row.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a row from entries already sorted by color with no
    /// duplicates and no exact zeros, promoting immediately when the
    /// density bar is met (`promote_k` as in [`RowRep::add`]).
    #[must_use]
    pub fn from_sorted(entries: Vec<(u32, f64)>, promote_k: usize) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries.iter().all(|&(_, w)| w != 0.0));
        let mut row = RowRep::Sparse(entries);
        row.maybe_promote(promote_k);
        row
    }

    /// Rebuild a *promoted* (dense-tier) row from its nonzero entries —
    /// the checkpoint restore path, which records each row's tier so a
    /// restored engine keeps the writer's representation (tier choice is
    /// unobservable in values, but it is what the resident-bytes
    /// accounting and access constants reflect). The slot width follows
    /// the same rule as promotion under the *current* color count; a row
    /// promoted long ago under a smaller `k` may get a different width,
    /// which only changes when the array next grows.
    #[must_use]
    pub fn dense_from_sorted(entries: &[(u32, f64)], promote_k: usize) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let width = promote_k.next_power_of_two();
        let top = entries.last().map_or(0, |&(c, _)| c as usize + 1);
        let mut slots = vec![0.0f64; width.max(top.next_power_of_two()).max(4)].into_boxed_slice();
        for &(c, w) in entries {
            slots[c as usize] = w;
        }
        RowRep::Dense(slots)
    }

    /// Whether this row lives in the promoted dense tier.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        matches!(self, RowRep::Dense(_))
    }

    /// Append this row's nonzero entries to `out` in ascending color order
    /// (the serialization sweep; dense rows scan their slots). Exact `0.0`
    /// slots of a dense row are skipped — by the module's read semantics
    /// they are indistinguishable from absent entries.
    pub fn push_nonzero_entries(&self, out: &mut Vec<(u32, f64)>) {
        match self {
            RowRep::Sparse(entries) => out.extend_from_slice(entries),
            RowRep::Dense(slots) => {
                out.extend(
                    slots
                        .iter()
                        .enumerate()
                        .filter(|&(_, &w)| w != 0.0)
                        .map(|(c, &w)| (c as u32, w)),
                );
            }
        }
    }

    /// Weight toward `color` (`0.0` when absent).
    #[inline]
    #[must_use]
    pub fn get(&self, color: u32) -> f64 {
        match self {
            RowRep::Sparse(entries) => {
                let i = lower_bound(entries, color);
                match entries.get(i) {
                    Some(&(c, w)) if c == color => w,
                    _ => 0.0,
                }
            }
            RowRep::Dense(slots) => slots.get(color as usize).copied().unwrap_or(0.0),
        }
    }

    /// Add `delta` to the weight toward `color`, returning `(old, new)`.
    ///
    /// The arithmetic is the same scalar `old + delta` a dense matrix
    /// slot would perform, so stored values are bit-identical across
    /// representations. Sparse entries that land on exactly `0.0` are
    /// removed (matching the "explicit zero = absent" read semantics);
    /// afterwards the row is promoted to the dense tier when its nonzero
    /// count reaches `promote_k / 2` (and `promote_k ≥`
    /// [`PROMOTE_MIN_K`]).
    #[inline]
    pub fn add(&mut self, color: u32, delta: f64, promote_k: usize) -> (f64, f64) {
        let result = match self {
            RowRep::Dense(slots) => {
                let idx = color as usize;
                if idx >= slots.len() {
                    if delta == 0.0 {
                        return (0.0, 0.0);
                    }
                    Self::grow_slots(slots, idx + 1);
                }
                let old = slots[idx];
                let new = old + delta;
                slots[idx] = new;
                return (old, new);
            }
            RowRep::Sparse(entries) => {
                let i = lower_bound(entries, color);
                if entries.get(i).is_some_and(|&(c, _)| c == color) {
                    let old = entries[i].1;
                    let new = old + delta;
                    if new == 0.0 {
                        entries.remove(i);
                    } else {
                        entries[i].1 = new;
                    }
                    (old, new)
                } else {
                    if delta != 0.0 {
                        entries.insert(i, (color, delta));
                    }
                    (0.0, delta)
                }
            }
        };
        self.maybe_promote(promote_k);
        result
    }

    /// Shift `delta` of this row's weight from color `from` to a
    /// **brand-new** color `to` that is strictly greater than every color
    /// the row currently holds (a split's freshly minted child). Exactly
    /// the arithmetic of `add(from, -delta, ..)` then `add(to, delta, ..)`
    /// — the new-color precondition just lets the child entry append to
    /// the sorted vector instead of paying a second binary search.
    /// Returns `(old_from, new_from, new_to)`.
    #[inline]
    pub fn split_shift(
        &mut self,
        from: u32,
        to: u32,
        delta: f64,
        promote_k: usize,
    ) -> (f64, f64, f64) {
        if let RowRep::Sparse(entries) = self {
            debug_assert!(entries.last().is_none_or(|&(c, _)| c < to));
            let i = lower_bound(entries, from);
            let (old, new) = if entries.get(i).is_some_and(|&(c, _)| c == from) {
                let old = entries[i].1;
                let new = old - delta;
                if new == 0.0 {
                    entries.remove(i);
                } else {
                    entries[i].1 = new;
                }
                (old, new)
            } else {
                if delta != 0.0 {
                    entries.insert(i, (from, -delta));
                }
                (0.0, -delta)
            };
            if delta != 0.0 {
                entries.push((to, delta));
            }
            self.maybe_promote(promote_k);
            (old, new, delta)
        } else {
            let (old, new) = self.add(from, -delta, promote_k);
            let (_, to_val) = self.add(to, delta, promote_k);
            (old, new, to_val)
        }
    }

    /// Move this row's weight at color `from` to color `to` (the
    /// relabel-last-color step after a merge). The caller guarantees the
    /// row holds no weight at `to` — in the engine, `to` is the merged-
    /// away loser's column, zeroed by the merge fold.
    pub fn relabel(&mut self, from: u32, to: u32) {
        let w = self.get(from);
        if w != 0.0 || matches!(self, RowRep::Dense(_)) {
            // Dense rows clear the `from` slot even when it held 0.0 so
            // the slot array never carries stale columns past `k`.
            self.add(from, -w, 0);
            if w != 0.0 {
                self.add(to, w, 0);
            }
        }
    }

    /// Number of entries holding a nonzero weight.
    #[must_use]
    pub fn nonzero_count(&self) -> usize {
        match self {
            RowRep::Sparse(entries) => entries.len(),
            RowRep::Dense(slots) => slots.iter().filter(|&&w| w != 0.0).count(),
        }
    }

    /// True when every column reads `0.0`.
    #[must_use]
    pub fn is_all_zero(&self) -> bool {
        match self {
            RowRep::Sparse(entries) => entries.is_empty(),
            RowRep::Dense(slots) => slots.iter().all(|&w| w == 0.0),
        }
    }

    /// Heap bytes owned by this row (the engine's resident-memory
    /// accounting; excludes the enum's own inline size).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            RowRep::Sparse(entries) => entries.capacity() * std::mem::size_of::<(u32, f64)>(),
            RowRep::Dense(slots) => slots.len() * std::mem::size_of::<f64>(),
        }
    }

    /// Promote to the dense tier when the density bar is met.
    #[inline]
    fn maybe_promote(&mut self, promote_k: usize) {
        if promote_k < PROMOTE_MIN_K {
            return;
        }
        let RowRep::Sparse(entries) = self else {
            return;
        };
        if entries.len() * 2 < promote_k {
            return;
        }
        let width = promote_k.next_power_of_two();
        let top = entries.last().map_or(0, |&(c, _)| c as usize + 1);
        let mut slots = vec![0.0f64; width.max(top.next_power_of_two())].into_boxed_slice();
        for &(c, w) in entries.iter() {
            slots[c as usize] = w;
        }
        *self = RowRep::Dense(slots);
    }

    fn grow_slots(slots: &mut Box<[f64]>, needed: usize) {
        let new_len = needed.next_power_of_two().max(slots.len() * 2).max(4);
        let mut grown = vec![0.0f64; new_len];
        grown[..slots.len()].copy_from_slice(slots);
        *slots = grown.into_boxed_slice();
    }
}

/// One direction's accumulators: every node's weight toward every live
/// color, as a dense plane or as tiered rows (see the module docs). A
/// direction the engine does not track holds zero rows.
#[derive(Clone, Debug)]
pub(crate) enum Accum {
    /// Color-major plane: node `v`'s weight toward color `j` at
    /// `plane[j * ncap + v]`, for `cap` columns of stride `ncap` over the
    /// `n` live nodes. The slots `n..ncap` of every column, and every
    /// column at or above the engine's live color count, read `0.0`.
    Dense {
        plane: Vec<f64>,
        n: usize,
        ncap: usize,
        cap: usize,
    },
    /// One tiered row per node.
    Rows(Vec<RowRep>),
}

impl Default for Accum {
    fn default() -> Self {
        Accum::Rows(Vec::new())
    }
}

impl Accum {
    /// Accumulators of nodes `0..rows` in `tier`, each node summing its
    /// arc weights (`arcs(v)`) by color in arc order, so both tiers hold
    /// bit-identical sums. Tiered rows that already meet the density bar
    /// promote (`promote_k` as in [`RowRep::add`]).
    pub(crate) fn build<'g>(
        tier: ResolvedStorage,
        rows: usize,
        cap: usize,
        promote_k: usize,
        colors: &[u32],
        arcs: impl Fn(NodeId) -> (&'g [NodeId], &'g [f64]),
    ) -> Self {
        match tier {
            ResolvedStorage::Dense => {
                // Columns no color uses are never written, so their pages
                // stay lazily zeroed.
                let mut plane = vec![0.0; rows * cap];
                for v in 0..rows {
                    let (nbrs, wts) = arcs(v as NodeId);
                    for (&u, &w) in nbrs.iter().zip(wts) {
                        plane[colors[u as usize] as usize * rows + v] += w;
                    }
                }
                Accum::Dense {
                    plane,
                    n: rows,
                    ncap: rows,
                    cap,
                }
            }
            ResolvedStorage::Sparse => Accum::Rows(
                (0..rows as NodeId)
                    .map(|v| RowRep::from_sorted(row_from_arcs(arcs(v), colors), promote_k))
                    .collect(),
            ),
        }
    }

    /// Rebuild nodes `0..rows` in `tier` from snapshot columns: a tight
    /// row-major `rows × k` plane (transposed into color-major columns) or
    /// columnar tiered rows; the column of the other tier must be empty.
    ///
    /// # Panics
    /// On columns inconsistent with `rows` and `k`.
    pub(crate) fn restore(
        tier: ResolvedStorage,
        plane: &ColumnBuf<f64>,
        tiered: &RowsSnapshot,
        rows: usize,
        k: usize,
        cap: usize,
        promote_k: usize,
    ) -> Self {
        let dense = tier == ResolvedStorage::Dense;
        let tiered = rows_restore(tiered, if dense { 0 } else { rows }, promote_k);
        if !dense {
            assert!(
                plane.is_empty(),
                "snapshot column for absent matrix is non-empty"
            );
            return Accum::Rows(tiered);
        }
        // Mapped-restore path: the transpose reads the plane exactly
        // once, front to back — let the pages stream in ahead of it.
        plane.advise(ColumnAdvice::Sequential);
        assert_eq!(plane.len(), rows * k, "snapshot column length mismatch");
        Accum::Dense {
            plane: rows_to_columns(plane, rows, k, cap),
            n: rows,
            ncap: rows,
            cap,
        }
    }

    /// The storage tier.
    pub(crate) fn tier(&self) -> ResolvedStorage {
        match self {
            Accum::Dense { .. } => ResolvedStorage::Dense,
            Accum::Rows(_) => ResolvedStorage::Sparse,
        }
    }

    /// Tight snapshot columns over the live `k` colors: the row-major
    /// `n × k` plane (dense tier) or the columnar rows (tiered); the other
    /// column is empty.
    pub(crate) fn snapshot(&self, k: usize) -> (ColumnBuf<f64>, RowsSnapshot) {
        match self {
            Accum::Dense { plane, n, ncap, .. } => (
                columns_to_rows(plane, *ncap, *n, k).into(),
                RowsSnapshot::default(),
            ),
            Accum::Rows(rows) => (Vec::new().into(), rows_snapshot(rows)),
        }
    }

    /// Node `v`'s weight toward `col`.
    #[inline]
    pub(crate) fn get(&self, v: NodeId, col: u32) -> f64 {
        match self {
            Accum::Dense { plane, n, ncap, .. } => {
                debug_assert!((v as usize) < *n);
                plane[col as usize * ncap + v as usize]
            }
            Accum::Rows(rows) => rows[v as usize].get(col),
        }
    }

    /// Add `delta` to node `v`'s weight toward `col`, returning `(old,
    /// new)` — the same scalar `old + delta` in both tiers.
    #[inline]
    pub(crate) fn add(&mut self, v: NodeId, col: u32, delta: f64, promote_k: usize) -> (f64, f64) {
        match self {
            Accum::Dense { plane, n, ncap, .. } => {
                debug_assert!((v as usize) < *n);
                let slot = &mut plane[col as usize * *ncap + v as usize];
                let old = *slot;
                let new = old + delta;
                *slot = new;
                (old, new)
            }
            Accum::Rows(rows) => rows[v as usize].add(col, delta, promote_k),
        }
    }

    /// The merge fold: move each node's weight at column `from` into
    /// column `into`, replacing `capture` with `(node, old, new)` of the
    /// `into` column for every node that held weight at `from`.
    pub(crate) fn fold_column(
        &mut self,
        nodes: &[NodeId],
        from: u32,
        into: u32,
        promote_k: usize,
        capture: &mut Vec<(NodeId, f64, f64)>,
    ) {
        capture.clear();
        match self {
            Accum::Dense { plane, ncap, .. } => {
                let (from, into) = (from as usize * *ncap, into as usize * *ncap);
                for &u in nodes {
                    let lost = plane[from + u as usize];
                    if lost == 0.0 {
                        continue;
                    }
                    let slot = &mut plane[into + u as usize];
                    let old = *slot;
                    let new = old + lost;
                    *slot = new;
                    plane[from + u as usize] = 0.0;
                    capture.push((u, old, new));
                }
            }
            Accum::Rows(rows) => {
                for &u in nodes {
                    let row = &mut rows[u as usize];
                    let lost = row.get(from);
                    if lost == 0.0 {
                        continue;
                    }
                    row.add(from, -lost, promote_k);
                    let (old, new) = row.add(into, lost, promote_k);
                    capture.push((u, old, new));
                }
            }
        }
    }

    /// Move each node's weight at column `from` to column `to`, which the
    /// caller guarantees holds none (the relabel after a merge).
    pub(crate) fn relabel(&mut self, nodes: &[NodeId], from: u32, to: u32) {
        match self {
            Accum::Dense { plane, ncap, .. } => {
                let (from, to) = (from as usize * *ncap, to as usize * *ncap);
                for &u in nodes {
                    plane[to + u as usize] = plane[from + u as usize];
                    plane[from + u as usize] = 0.0;
                }
            }
            Accum::Rows(rows) => {
                for &u in nodes {
                    rows[u as usize].relabel(from, to);
                }
            }
        }
    }

    /// Grow the node axis to `n_new` nodes with all-zero rows. `k` is the
    /// live color count: a dense plane that outgrows its node capacity
    /// regrows it geometrically and copies only the live columns.
    pub(crate) fn append(&mut self, n_new: usize, k: usize) {
        match self {
            Accum::Dense {
                plane,
                n,
                ncap,
                cap,
            } => {
                if n_new > *ncap {
                    let grown_ncap = n_new.max(*ncap + *ncap / 4);
                    let mut grown = vec![0.0; grown_ncap * *cap];
                    for j in 0..k {
                        grown[j * grown_ncap..j * grown_ncap + *n]
                            .copy_from_slice(&plane[j * *ncap..j * *ncap + *n]);
                    }
                    *plane = grown;
                    *ncap = grown_ncap;
                }
                *n = n_new;
            }
            Accum::Rows(rows) => rows.resize(n_new, RowRep::new()),
        }
    }

    /// Compact the node axis through a node remap: survivors keep their
    /// relative order, removed rows are dropped. `k` is the live color
    /// count; a dense plane moves each survivor run once per live column
    /// and zeroes the vacated tail, so the slack keeps reading `0.0`.
    pub(crate) fn compact(&mut self, remap: &NodeRemap, k: usize) {
        match self {
            Accum::Dense { plane, n, ncap, .. } => {
                debug_assert_eq!(remap.old_len(), *n);
                // Maximal runs of survivors that move: (source, target, len).
                let mut runs: Vec<(usize, usize, usize)> = Vec::new();
                for v in 0..*n as NodeId {
                    let Some(nv) = remap.map(v) else { continue };
                    let (v, nv) = (v as usize, nv as usize);
                    if nv == v {
                        continue;
                    }
                    match runs.last_mut() {
                        Some((src, _, len)) if *src + *len == v => *len += 1,
                        _ => runs.push((v, nv, 1)),
                    }
                }
                let new_n = remap.new_len();
                for j in 0..k {
                    let col = &mut plane[j * *ncap..j * *ncap + *n];
                    for &(src, dst, len) in &runs {
                        col.copy_within(src..src + len, dst);
                    }
                    col[new_n..].fill(0.0);
                }
                *n = new_n;
            }
            Accum::Rows(rows) => {
                let old = std::mem::take(rows);
                *rows = old
                    .into_iter()
                    .enumerate()
                    .filter(|&(v, _)| !remap.is_removed(v as NodeId))
                    .map(|(_, r)| r)
                    .collect();
            }
        }
    }

    /// Whether node `v` has no weight toward any of the first `k` colors.
    #[cfg(debug_assertions)]
    pub(crate) fn row_is_zero(&self, v: NodeId, k: usize) -> bool {
        match self {
            Accum::Dense { plane, ncap, .. } => (0..k).all(|j| plane[j * ncap + v as usize] == 0.0),
            Accum::Rows(rows) => rows[v as usize].is_all_zero(),
        }
    }

    /// Grow the column capacity to `new_cap`, `k` of the current columns
    /// live. A dense plane appends zeroed columns (the live prefix is one
    /// contiguous copy; no restride); tiered rows key their entries by
    /// color and never depend on the capacity.
    pub(crate) fn grow_cap(&mut self, new_cap: usize, k: usize) {
        if let Accum::Dense {
            plane, ncap, cap, ..
        } = self
        {
            debug_assert!(k <= *cap && *cap <= new_cap);
            // A fresh zeroed allocation rather than `resize`: the new
            // columns stay lazily zeroed pages until a color uses them.
            let mut grown = vec![0.0; *ncap * new_cap];
            let live = k * *ncap;
            grown[..live].copy_from_slice(&plane[..live]);
            *plane = grown;
            *cap = new_cap;
        }
    }

    /// Heap bytes owned by the accumulators.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Accum::Dense { plane, .. } => plane.capacity() * std::mem::size_of::<f64>(),
            Accum::Rows(rows) => {
                rows.capacity() * std::mem::size_of::<RowRep>()
                    + rows.iter().map(RowRep::heap_bytes).sum::<usize>()
            }
        }
    }

    /// Fold the rows of `members` over the first `k` columns into
    /// per-column min/max (first attainers in member order) and nonzero
    /// counts — one shard's share of a member-axis rebuild
    /// ([`kernels::fold_minmax_columns`] / [`kernels::fold_minmax_sparse_row`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold_rows(
        &self,
        members: &[NodeId],
        k: usize,
        mins: &mut [f64],
        maxs: &mut [f64],
        arg_mins: &mut [u32],
        arg_maxs: &mut [u32],
        nzs: &mut [u32],
    ) {
        match self {
            Accum::Dense { plane, ncap, .. } => kernels::fold_minmax_columns(
                members, plane, *ncap, k, mins, maxs, arg_mins, arg_maxs, nzs,
            ),
            Accum::Rows(rows) => {
                for &u in members {
                    let row = &rows[u as usize];
                    kernels::fold_minmax_sparse_row(u, row, k, mins, maxs, arg_mins, arg_maxs, nzs);
                }
            }
        }
    }

    /// Close a member-axis fold of `count` members: tiered rows fold the
    /// implicit `0.0` of every column some member holds no entry for
    /// ([`kernels::fold_zero_tail`]); a dense plane folded its explicit
    /// zeros already.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close_fold(
        &self,
        count: u32,
        k: usize,
        mins: &mut [f64],
        maxs: &mut [f64],
        arg_mins: &mut [u32],
        arg_maxs: &mut [u32],
        nzs: &[u32],
    ) {
        if let Accum::Rows(_) = self {
            kernels::fold_zero_tail(count, k, mins, maxs, arg_mins, arg_maxs, nzs);
        }
    }

    /// Min/max (first attainers), and nonzero count of column `col` over
    /// `members`, in member order ([`kernels::scan_gather_column`] over
    /// the contiguous column, or its tiered twin).
    #[allow(clippy::type_complexity)]
    pub(crate) fn scan_column(&self, members: &[NodeId], col: u32) -> (f64, f64, u32, u32, u32) {
        match self {
            Accum::Dense { plane, n, ncap, .. } => {
                let base = col as usize * ncap;
                kernels::scan_gather_column(members, &plane[base..base + n])
            }
            Accum::Rows(rows) => kernels::scan_gather_column_sparse(members, rows, col),
        }
    }

    /// [`Self::scan_column`] for several columns of one member axis;
    /// column `cols[s]` lands at position `s` of the outputs. A dense
    /// plane gathers each contiguous column in turn; tiered rows fold all
    /// columns in a single member pass
    /// ([`kernels::scan_gather_columns_sparse`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_columns(
        &self,
        members: &[NodeId],
        cols: &[u32],
        mins: &mut [f64],
        maxs: &mut [f64],
        arg_mins: &mut [u32],
        arg_maxs: &mut [u32],
        nzs: &mut [u32],
    ) {
        match self {
            Accum::Dense { .. } => {
                for (s, &col) in cols.iter().enumerate() {
                    (mins[s], maxs[s], arg_mins[s], arg_maxs[s], nzs[s]) =
                        self.scan_column(members, col);
                }
            }
            Accum::Rows(rows) => kernels::scan_gather_columns_sparse(
                members, rows, cols, mins, maxs, arg_mins, arg_maxs, nzs,
            ),
        }
    }

    /// A handle the shards of a data-parallel phase can share, each
    /// writing its own nodes' slots.
    pub(crate) fn shared(&mut self) -> SharedAccum<'_> {
        match self {
            Accum::Dense { plane, ncap, .. } => SharedAccum::Dense(SyncSliceMut::new(plane), *ncap),
            Accum::Rows(rows) => SharedAccum::Rows(SyncSliceMut::new(rows)),
        }
    }
}

/// [`Accum`] shared across the shards of one data-parallel phase.
pub(crate) enum SharedAccum<'a> {
    /// The color-major plane and its column stride.
    Dense(SyncSliceMut<'a, f64>, usize),
    /// The tiered rows.
    Rows(SyncSliceMut<'a, RowRep>),
}

impl SharedAccum<'_> {
    /// The split shift over one chunk of touched nodes: move `deltas[i]` of
    /// node `nodes[i]`'s weight from column `from` to the brand-new column
    /// `to` ([`RowRep::split_shift`]), then call `f(i, node, old_from,
    /// new_from, to_value)`.
    ///
    /// A dense plane writes two slots per node, both in cache-resident
    /// columns. Tiered rows land all over a multi-megabyte accumulator in
    /// an order the hardware prefetcher cannot predict, so that loop
    /// prefetches its own future rows in two stages (the row struct well
    /// ahead, its heap payload closer in). The distance covers the latency
    /// of one row's patch work; the hints never change results.
    ///
    /// # Safety
    /// No slot or row of a node in `nodes` may be accessed concurrently
    /// (each touched node belongs to exactly one shard's chunk).
    // SAFETY: soundness is delegated to the caller's disjointness promise
    // (the contract above), which the row accesses below rely on.
    pub(crate) unsafe fn split_shift_each(
        &self,
        nodes: &[NodeId],
        deltas: &[f64],
        from: u32,
        to: u32,
        promote_k: usize,
        mut f: impl FnMut(usize, NodeId, f64, f64, f64),
    ) {
        match self {
            SharedAccum::Dense(plane, ncap) => {
                let (from, to) = (from as usize * ncap, to as usize * ncap);
                for (pos, (&u, &d)) in nodes.iter().zip(deltas).enumerate() {
                    // SAFETY: the caller owns node `u`'s slot in every
                    // column, and `from != to`, so the two borrows are
                    // distinct slots.
                    let (old, new, to_val) = unsafe {
                        let from_slot = plane.get_mut(from + u as usize);
                        let old = *from_slot;
                        let new = old - d;
                        *from_slot = new;
                        let to_slot = plane.get_mut(to + u as usize);
                        *to_slot += d;
                        (old, new, *to_slot)
                    };
                    f(pos, u, old, new, to_val);
                }
            }
            SharedAccum::Rows(rows) => {
                const PREFETCH_AHEAD: usize = 16;
                for (pos, (&u, &d)) in nodes.iter().zip(deltas).enumerate() {
                    // SAFETY: every row reached here, look-ahead
                    // rows included, belongs to the caller; within the chunk
                    // rows change in list order, so promotion decisions do
                    // not depend on the shard count either.
                    let (old, new, to_val) = unsafe {
                        if let Some(&w) = nodes.get(pos + PREFETCH_AHEAD) {
                            kernels::prefetch_read(rows.slice_mut(w as usize, w as usize + 1), 0);
                        }
                        if let Some(&w) = nodes.get(pos + PREFETCH_AHEAD / 2) {
                            kernels::prefetch_row_payload(rows.get_mut(w as usize), from);
                        }
                        rows.get_mut(u as usize).split_shift(from, to, d, promote_k)
                    };
                    f(pos, u, old, new, to_val);
                }
            }
        }
    }
}

/// One node's tiered row from its arc slices: per-color weight sums in arc
/// order (a stable sort keeps same-color weights in arc order, so each sum
/// matches the dense accumulation bit for bit), zeros dropped, sorted by
/// color.
fn row_from_arcs((nbrs, wts): (&[NodeId], &[f64]), colors: &[u32]) -> Vec<(u32, f64)> {
    let mut pairs: Vec<(u32, f64)> = nbrs
        .iter()
        .zip(wts)
        .map(|(&u, &w)| (colors[u as usize], w))
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

/// Columnar snapshot of tiered rows (absent when there are none).
fn rows_snapshot(rows: &[RowRep]) -> RowsSnapshot {
    if rows.is_empty() {
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

/// Tiered rows of nodes `0..n` from their columnar snapshot, each in the
/// tier the writer recorded.
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

/// Nodes per block of the plane ↔ snapshot transposes: a block's `k`
/// row-major rows stay cache-resident while each column contributes one
/// contiguous run, so both directions stream at copy speed.
const TRANSPOSE_BLOCK: usize = 32;

/// The tight row-major `n × k` matrix of a color-major plane's first `k`
/// columns (column `j` at `plane[j * stride..]`).
fn columns_to_rows(plane: &[f64], stride: usize, n: usize, k: usize) -> Vec<f64> {
    let mut tight = vec![0.0; n * k];
    for v0 in (0..n).step_by(TRANSPOSE_BLOCK) {
        let v1 = (v0 + TRANSPOSE_BLOCK).min(n);
        for j in 0..k {
            for (i, &x) in plane[j * stride + v0..j * stride + v1].iter().enumerate() {
                tight[(v0 + i) * k + j] = x;
            }
        }
    }
    tight
}

/// A color-major plane of `cap` columns with stride `n` holding a tight
/// row-major `n × k` matrix in its first `k` columns.
fn rows_to_columns(tight: &[f64], n: usize, k: usize, cap: usize) -> Vec<f64> {
    let mut plane = vec![0.0; n * cap];
    for v0 in (0..n).step_by(TRANSPOSE_BLOCK) {
        let v1 = (v0 + TRANSPOSE_BLOCK).min(n);
        for j in 0..k {
            for (i, x) in plane[j * n + v0..j * n + v1].iter_mut().enumerate() {
                *x = tight[(v0 + i) * k + j];
            }
        }
    }
    plane
}

/// The leading `rows × cols` block of a row-major matrix with row stride
/// `stride`, packed tight.
pub(crate) fn tight<T: Copy>(padded: &[T], rows: usize, cols: usize, stride: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        out.extend_from_slice(&padded[r * stride..r * stride + cols]);
    }
    out
}

/// Regrow a row-major matrix from `rows × old_cap` to `new_rows × new_cap`
/// columns, filling fresh cells with `fill`. One geometric allocation to
/// the final footprint (both axes at once — no intermediate copy through
/// an `old_rows × new_cap` shape), then only the old `rows × old_cap`
/// prefix of each row is copied. The fresh allocation is deliberate:
/// zero-filled matrices come from `alloc_zeroed` (lazy kernel zero pages
/// the copy never writes), where an in-place `resize` + restride would
/// stream the whole footprint through the store buffers twice.
pub(crate) fn regrow<T: Copy>(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_roundtrip_and_zero_removal() {
        let mut row = RowRep::new();
        assert_eq!(row.get(3), 0.0);
        assert_eq!(row.add(3, 1.5, 0), (0.0, 1.5));
        assert_eq!(row.add(1, 0.5, 0), (0.0, 0.5));
        assert_eq!(row.get(3), 1.5);
        assert_eq!(row.add(3, -1.5, 0), (1.5, 0.0));
        assert_eq!(row.get(3), 0.0);
        match &row {
            RowRep::Sparse(e) => assert_eq!(e.as_slice(), &[(1, 0.5)]),
            RowRep::Dense(_) => panic!("promotion disabled"),
        }
        assert_eq!(row.nonzero_count(), 1);
        assert!(!row.is_all_zero());
    }

    #[test]
    fn promotion_fires_at_half_density_and_grows() {
        let k = PROMOTE_MIN_K;
        let mut row = RowRep::new();
        for c in 0..(k as u32 / 2 - 1) {
            row.add(c, 1.0, k);
            assert!(matches!(row, RowRep::Sparse(_)));
        }
        row.add(1000, 2.0, k);
        assert!(matches!(row, RowRep::Dense(_)));
        assert_eq!(row.get(1000), 2.0);
        assert_eq!(row.get(0), 1.0);
        // Writes past the slot array grow it; reads past it are 0.0.
        assert_eq!(row.get(1 << 20), 0.0);
        row.add(4096, 3.0, k);
        assert_eq!(row.get(4096), 3.0);
    }

    #[test]
    fn relabel_moves_weight() {
        for promote_k in [0, PROMOTE_MIN_K] {
            let mut row = RowRep::new();
            for c in 0..64u32 {
                row.add(c, 0.5 + f64::from(c), promote_k);
            }
            let w = row.get(63);
            row.relabel(63, 7 /* engine guarantees slot 7 is free */);
            assert_eq!(row.get(63), 0.0);
            // 7 previously held 7.5; relabel is only called with a free slot,
            // so emulate that by checking the arithmetic sum here.
            assert_eq!(row.get(7), 7.5 + w);
        }
    }

    #[test]
    fn auto_resolution_is_conservative() {
        // 10k × 256 × 8 × 1 = 20 MiB — stays dense.
        assert_eq!(
            StorageMode::Auto.resolve(10_000, 200_000, 256, 1),
            ResolvedStorage::Dense
        );
        // 1M × 256 × 8 = 2 GiB and avg degree 20 ≪ 256/4 — goes sparse.
        assert_eq!(
            StorageMode::Auto.resolve(1_000_000, 20_000_000, 256, 1),
            ResolvedStorage::Sparse
        );
        // Same size but dense graph (avg row ≈ cap) — stays dense.
        assert_eq!(
            StorageMode::Auto.resolve(1_000_000, 200_000_000, 256, 1),
            ResolvedStorage::Dense
        );
        assert_eq!(
            StorageMode::Dense.resolve(1, 1, 4, 2),
            ResolvedStorage::Dense
        );
        assert_eq!(
            StorageMode::Sparse.resolve(1, 1, 4, 2),
            ResolvedStorage::Sparse
        );
    }
}
