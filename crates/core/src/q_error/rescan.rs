//! Lost extrema: the settle rule that marks an entry's lost extremum
//! *pending* instead of rescanning it, the member-column scans that
//! rescan entries, and the two resolution paths — the entries deciding a
//! witness row, which [`IncrementalDegrees::refresh`] needs exact, and
//! [`IncrementalDegrees::resolve_pending`] for the readers that need every
//! entry exact. The parent module's docs ("Pending extremes") state the
//! invariant these keep.

use super::{run_shards, IncrementalDegrees, RowWait, Side, WitnessRows, NO_ARG, PENDING_ARG};
use crate::parallel::{chunk_range, SyncSliceMut};
use crate::partition::Partition;
use qsc_graph::NodeId;

impl Side {
    /// The settle rule (module docs) for entry `(member, other)` after a
    /// batch changed its member values: apply the nonzero-count delta,
    /// then judge whether a flagged extremum is really lost — a zero
    /// extremum provably stands while the entry keeps a zero-valued member
    /// of `P_member` (`size` members), and then only forgets its attainer
    /// — and dirty the member color's witness row. An entry that really
    /// lost an extremum goes pending ([`Self::defer`]). Returns the number
    /// of extrema really lost.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn settle(
        &mut self,
        rows: &mut WitnessRows,
        member: u32,
        other: u32,
        size: usize,
        nz_delta: i64,
        lost_min: bool,
        lost_max: bool,
    ) -> u64 {
        let pr = &mut self.pairs;
        let idx = pr.at(member as usize, other as usize);
        pr.nz[idx] = (i64::from(pr.nz[idx]) + nz_delta) as u32;
        let zero_member = (pr.nz[idx] as usize) < size;
        let lost = u64::from(lost_min && !(pr.min[idx] == 0.0 && zero_member))
            + u64::from(lost_max && !(pr.max[idx] == 0.0 && zero_member));
        if lost > 0 {
            self.defer(member, other);
        } else {
            if lost_min {
                pr.min_arg[idx] = NO_ARG;
            }
            if lost_max {
                pr.max_arg[idx] = NO_ARG;
            }
        }
        rows.dirty(member as usize);
        lost
    }

    /// Mark entry `(member, other)` pending in place of a member rescan,
    /// and list it unless it already was pending. A rescan rewrites both
    /// extrema with first attainers, so both go pending: resolving the
    /// entry then writes exactly what the rescan would have, attainers
    /// included. A full list first drops its entries that are exact again
    /// and its duplicates, and leaves at least half its capacity free, so
    /// the list stays within twice the pending entries at an amortized
    /// `O(log)` per deferral.
    pub(super) fn defer(&mut self, member: u32, other: u32) {
        let pr = &mut self.pairs;
        let idx = pr.at(member as usize, other as usize);
        if !pr.pending(idx) {
            let list = &mut self.deferred;
            if list.len() == list.capacity() {
                list.retain(|&(a, b)| pr.pending(pr.at(a as usize, b as usize)));
                list.sort_unstable();
                list.dedup();
                list.reserve(list.len().max(16));
            }
            list.push((member, other));
        }
        pr.min_arg[idx] = PENDING_ARG;
        pr.max_arg[idx] = PENDING_ARG;
    }
}

/// Whether a member's value moving from `old` to `new` loses the entry its
/// batch-start extremum (`orig_min`/`orig_max`, attained by `arg_min`/
/// `arg_max`): only when the tracked attainer moves strictly inward — an
/// exact test, ties at the extremum do not force a rescan. An unknown
/// attainer falls back to the conservative "the value left the extremum"
/// heuristic. A pending extremum is already an outer bound and stays
/// pending. Returns `(min lost, max lost)`.
#[inline]
pub(super) fn lost_extremum(
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

impl IncrementalDegrees {
    /// Resolve every pending entry with one member-column scan each
    /// (values, first attainers and nonzero counts, as a rescan writes
    /// them), so every pair summary is exact again.
    ///
    /// The witness readers do not need this: [`Self::refresh`] resolves
    /// the entries that decide a row's maximum error and best candidate,
    /// so [`Self::max_error`], [`Self::pick_witness`] and
    /// [`Self::pick_witnesses`] return exact results with other entries
    /// still pending. The readers of *every* entry do:
    /// [`Self::q_report`], [`Self::summary_columns`], [`Self::out_error`],
    /// [`Self::in_error`], [`Self::merge_candidates`] and
    /// [`Self::merge_bound_pair`] assert that nothing is pending.
    /// [`Self::apply_merge`] resolves on its own. `O(entries deferred
    /// since the last call)` plus `|P_a|` per resolved entry `(a, ·)`.
    pub fn resolve_pending(&mut self, p: &Partition) {
        assert_eq!(p.num_colors(), self.k, "partition out of sync with engine");
        let kept = self.directions().len();
        for side in &mut self.sides[..kept] {
            // Claim each listed entry that is still pending: its
            // attainers, which the rescan rewrites, turn unknown, so a
            // duplicate later in the list is skipped.
            let pr = &mut side.pairs;
            for &(a, b) in &side.deferred {
                let idx = pr.at(a as usize, b as usize);
                if pr.pending(idx) {
                    pr.min_arg[idx] = NO_ARG;
                    pr.max_arg[idx] = NO_ARG;
                    side.rescans.push((a, b));
                }
            }
            side.deferred.clear();
        }
        self.resolve_queued(p);
    }

    /// Resolve every pending entry on the member axes `rows`, on every
    /// kept side. They stay listed as deferred; once exact, resolution
    /// skips them.
    pub(super) fn resolve_rows(&mut self, p: &Partition, rows: &[u32]) {
        let k = self.k;
        for &outgoing in self.directions() {
            let d = self.dir(outgoing);
            let side = &mut self.sides[d];
            for &s in rows {
                for j in 0..k {
                    if side.pairs.pending(side.pairs.at(s as usize, j)) {
                        side.rescans.push((s, j as u32));
                    }
                }
            }
        }
        self.resolve_queued(p);
    }

    /// Rescan the entries queued for resolution on every kept side.
    fn resolve_queued(&mut self, p: &Partition) {
        for &outgoing in self.directions() {
            self.with_side(outgoing, |e, side| {
                e.counters.pending_resolved += side.rescans.len() as u64;
                e.rescan_queued(side, p);
            });
        }
    }

    /// Assert that no entry is pending (see [`Self::resolve_pending`]).
    pub(super) fn assert_resolved(&self) {
        let kept = self.directions().len();
        assert!(
            self.sides[..kept].iter().all(|s| s.deferred.is_empty()),
            "pending pair summaries; call resolve_pending() first"
        );
    }

    /// The resolution half of one [`Self::refresh`] pass: `waits[pos]`
    /// names the pending entries that decided row `dirty[pos]` (its
    /// maximum error, its best candidate) in the pass just run. Keep only
    /// those rows in `dirty`, for the next pass to scan again, and resolve
    /// the deciding entries after the `first` pass, or every pending entry
    /// of the row after a later one. Most rows settle after their winner
    /// alone; a row whose resolved winner fell below another pending entry
    /// is resolved whole, so no row is scanned more than three times.
    pub(super) fn resolve_winners(
        &mut self,
        p: &Partition,
        dirty: &mut Vec<u32>,
        waits: &[RowWait],
        first: bool,
    ) {
        let mut kept = 0;
        for (pos, wait) in waits.iter().enumerate() {
            let s = dirty[pos];
            if *wait == [None, None] {
                continue;
            }
            if first {
                for (i, entry) in wait.iter().enumerate() {
                    if let Some((other, outgoing)) = *entry {
                        if i == 1 && wait[0] == *entry {
                            continue; // one entry decides both
                        }
                        let d = self.dir(outgoing);
                        self.sides[d].rescans.push((s, other));
                    }
                }
            }
            dirty[kept] = s;
            kept += 1;
        }
        dirty.truncate(kept);
        if first {
            self.resolve_queued(p);
        } else {
            self.resolve_rows(p, dirty);
        }
    }

    /// Recompute the side's queued entries from their member axes: entry
    /// `(a, b)` scans `P_a`'s members at column `b` (values, first
    /// attainers in member order, nonzero counts), then clears the queue.
    /// Each shard (one below the scan-work threshold) takes a contiguous
    /// chunk of whole entries and writes only those, so results do not
    /// depend on the shard count. A chunk whose entries share one member
    /// axis — the parent-axis repair after a split and
    /// [`Self::resolve_pending`] queue axis by axis — hands all its
    /// columns over at once (tiered rows fold them in a single member
    /// pass, the dense plane gathers each contiguous column in turn); per
    /// column that is the same member-order fold, bit for bit.
    pub(super) fn rescan_queued(&mut self, side: &mut Side, p: &Partition) {
        let entries = std::mem::take(&mut side.rescans);
        if !entries.is_empty() {
            let work: usize = entries.iter().map(|&(a, _)| p.size(a)).sum();
            self.counters.rescan_member_reads += work as u64;
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
}
