//! Engine lane kernels: the vectorized hot-path substrate of the
//! incremental refinement engine.
//!
//! The shared f64 primitives (blocked sums with the canonical reduction
//! tree, `fold_add`/`fold_sub` column folds, sequential-semantics min/max
//! scans) live in [`qsc_linalg::lanes`] — re-exported here — so the LP
//! solvers and the engine reduce through literally the same code. This
//! module adds the engine-specific shapes on top:
//!
//! * [`fold_minmax_row`] — fold one member's accumulator row into per-color
//!   min/max/attainer/nonzero aggregates. This is *the* member-axis rescan
//!   kernel: the dense serial scan, the sparse degrees-only rebuild and the
//!   sharded workers (symmetric and directed modes) all route through it,
//!   which both deduplicates the scan logic and hands LLVM a branch-free
//!   column loop it can vectorize (compare + blend per lane).
//! * [`fold_minmax_sparse_row`] — the same member-axis fold over a tiered
//!   [`RowRep`] accumulator row (sparse engines): nonzero entries fold with
//!   real attainers, and [`fold_zero_tail`] closes the scan by folding one
//!   `0.0` (attainer [`NO_ARG`]) into every column that some member left
//!   implicit — values bit-identical to the dense fold.
//! * [`scan_gather_column`] — min/max (with first-attainer witnesses and a
//!   nonzero count) of a strided accumulator column over a member list; the
//!   shared kernel of every entry rescan. [`scan_gather_column_sparse`] is
//!   the tiered-row form, bit-identical including attainers (every member
//!   contributes a value, absent entries read `0.0`).
//! * [`scan_gather_columns`] — the grouped form: several queued columns of
//!   one member axis folded in a single member pass (each accumulator row
//!   is loaded once), bit-identical per column to the one-column scan. The
//!   parent-axis repair batch after a split runs through this.
//!   [`scan_gather_columns_sparse`] is the tiered-row form: a merge-join of
//!   each member's sorted entries against the sorted queued columns,
//!   `O(nnz + t)` per member instead of `O(t)` random row probes —
//!   bit-identical per column (including attainers) to the dense gather.
//! * [`row_err_argmax`] — max spread `max − min` over a summary row with
//!   the sequential first-attainer index; the β = 0 witness-row scan.
//! * [`prefetch_read`] — best-effort L1 prefetch hint for pointer-chasing
//!   loops (the split apply phase); never changes results.
//! * [`gather_stats`] — sum + min/max of gathered per-node values (the
//!   witness-split degree scan), summing through the canonical blocked
//!   tree.
//!
//! ## Determinism
//!
//! The min/max kernels keep *exact sequential scan semantics*: strict
//! compares in member order, first attainer wins ties, expressed as
//! branch-free selects (`if lt { x } else { m }` compiles to
//! compare+blend/cmov, never reorders the scan). They are bit-identical to
//! the scalar loops they replaced — `tests/tests/kernels.rs` pins this on
//! adversarial floats (±0.0, subnormals, ties). Sums follow the canonical
//! blocked tree documented in [`qsc_linalg::lanes`]; the engine's
//! accumulator algebra is unchanged (per-entry scalar adds), so colorings
//! and witness sequences are unaffected by the tree — only the
//! witness-split *threshold* sum switched order, re-baselining the
//! determinism pins once (see `rothko::RothkoRun::split_at_mean`).
//!
//! ## Bounds checks
//!
//! Blocked loops assert their shape once at entry (`debug_assert!`) and
//! reslice each operand block to `[..LANES]` before the unrolled body, so
//! the lane accesses compile without per-element bounds checks (one slice
//! check per 8-wide block remains — the spot-check notes in
//! [`qsc_linalg::lanes`] cover the emitted assembly).

pub use qsc_linalg::lanes::{combine_tree, dot, fold_add, fold_sub, max_abs, min_max, sum, LANES};

use crate::storage::RowRep;

/// Sentinel for "no tracked attainer" in extremum-witness aggregates.
pub const NO_ARG: u32 = u32::MAX;

/// Best-effort prefetch of the cache line holding `data[idx]` into L1.
///
/// A pure scheduling hint for pointer-chasing hot loops (the split apply
/// phase walks accumulator rows in an order the hardware prefetcher cannot
/// predict): no-op when the index is out of bounds or the target has no
/// stable prefetch intrinsic. Never changes results.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < data.len() {
        // SAFETY: the index is in bounds and prefetch has no side effects
        // on memory state visible to the program.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                data.as_ptr().add(idx) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, idx);
    }
}

/// Fold one member's accumulator row into per-color aggregates: for each
/// column `j`, count nonzeros and keep the strict min/max with `u` recorded
/// as the attainer when the strict compare fires (first attainer in call
/// order wins ties — identical to the scalar scan, bit for bit).
///
/// `row` is the member's dense accumulator row truncated to the live `k`
/// columns; the five aggregate slices must hold at least `row.len()`
/// entries each.
pub fn fold_minmax_row(
    u: u32,
    row: &[f64],
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &mut [u32],
) {
    let k = row.len();
    debug_assert!(
        mins.len() >= k
            && maxs.len() >= k
            && arg_mins.len() >= k
            && arg_maxs.len() >= k
            && nzs.len() >= k
    );
    let mut j = 0;
    while j + LANES <= k {
        let r = &row[j..j + LANES];
        let mn = &mut mins[j..j + LANES];
        let mx = &mut maxs[j..j + LANES];
        let amn = &mut arg_mins[j..j + LANES];
        let amx = &mut arg_maxs[j..j + LANES];
        let nz = &mut nzs[j..j + LANES];
        for l in 0..LANES {
            let o = r[l];
            nz[l] += u32::from(o != 0.0);
            let lt = o < mn[l];
            mn[l] = if lt { o } else { mn[l] };
            amn[l] = if lt { u } else { amn[l] };
            let gt = o > mx[l];
            mx[l] = if gt { o } else { mx[l] };
            amx[l] = if gt { u } else { amx[l] };
        }
        j += LANES;
    }
    while j < k {
        let o = row[j];
        nzs[j] += u32::from(o != 0.0);
        if o < mins[j] {
            mins[j] = o;
            arg_mins[j] = u;
        }
        if o > maxs[j] {
            maxs[j] = o;
            arg_maxs[j] = u;
        }
        j += 1;
    }
}

/// Min/max (with first-attainer witnesses and a nonzero count) of
/// `acc[u as usize * cap + col]` over the given members, in member order.
///
/// The gather is strided, so this stays scalar-width, but the branch-free
/// select form removes the unpredictable extremum branches and lets the
/// loads pipeline — and because each member's slot sits a full row stride
/// (`cap · 8` bytes, its own cache line) from the previous one in an order
/// the hardware prefetcher cannot track, the loop prefetches its own
/// future slots. The distance covers one slot's load-to-use latency; the
/// hint never changes results. Semantics are exactly the sequential
/// scalar scan: strict compares, first attainer wins ties. Returns
/// `(INFINITY, NEG_INFINITY, NO_ARG, NO_ARG, 0)` on an empty member list.
#[must_use]
#[allow(clippy::type_complexity)]
pub fn scan_gather_column(
    members: &[u32],
    acc: &[f64],
    cap: usize,
    col: usize,
) -> (f64, f64, u32, u32, u32) {
    debug_assert!(col < cap);
    const PREFETCH_AHEAD: usize = 16;
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut amn = NO_ARG;
    let mut amx = NO_ARG;
    let mut nz = 0u32;
    for (pos, &u) in members.iter().enumerate() {
        if let Some(&w) = members.get(pos + PREFETCH_AHEAD) {
            prefetch_read(acc, w as usize * cap + col);
        }
        let x = acc[u as usize * cap + col];
        nz += u32::from(x != 0.0);
        let lt = x < mn;
        mn = if lt { x } else { mn };
        amn = if lt { u } else { amn };
        let gt = x > mx;
        mx = if gt { x } else { mx };
        amx = if gt { u } else { amx };
    }
    (mn, mx, amn, amx, nz)
}

/// Gather-scan several columns of one member axis in a single member
/// pass: for each queued column `cols[s]`, computes exactly what
/// [`scan_gather_column`] would (min/max, first-attainer witnesses,
/// nonzero count, folded in member order — bit-identical per column),
/// writing position `s` of each output slice. The win is memory traffic:
/// each member's accumulator row is brought into cache once and serves
/// every queued column, instead of one strided pass per column.
#[allow(clippy::too_many_arguments)]
pub fn scan_gather_columns(
    members: &[u32],
    acc: &[f64],
    cap: usize,
    cols: &[u32],
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &mut [u32],
) {
    let t = cols.len();
    debug_assert!(
        mins.len() >= t
            && maxs.len() >= t
            && arg_mins.len() >= t
            && arg_maxs.len() >= t
            && nzs.len() >= t
    );
    debug_assert!(cols.iter().all(|&j| (j as usize) < cap));
    mins[..t].fill(f64::INFINITY);
    maxs[..t].fill(f64::NEG_INFINITY);
    arg_mins[..t].fill(NO_ARG);
    arg_maxs[..t].fill(NO_ARG);
    nzs[..t].fill(0);
    for &u in members {
        let base = u as usize * cap;
        let row = &acc[base..base + cap];
        for (s, &j) in cols.iter().enumerate() {
            let x = row[j as usize];
            nzs[s] += u32::from(x != 0.0);
            let lt = x < mins[s];
            mins[s] = if lt { x } else { mins[s] };
            arg_mins[s] = if lt { u } else { arg_mins[s] };
            let gt = x > maxs[s];
            maxs[s] = if gt { x } else { maxs[s] };
            arg_maxs[s] = if gt { u } else { arg_maxs[s] };
        }
    }
}

/// Fold one member's *tiered* accumulator row ([`RowRep`]) into per-color
/// aggregates over the live `k` columns — the sparse-engine counterpart of
/// [`fold_minmax_row`].
///
/// Sparse rows fold only their nonzero entries (strict compares in call
/// order, `u` recorded as attainer, nonzero counts bumped); promoted dense
/// rows delegate to the blocked [`fold_minmax_row`] over their slot array.
/// Columns a member holds no entry for contribute an implicit `0.0` — the
/// caller closes the scan with [`fold_zero_tail`] once all members are
/// folded, which makes the aggregate *values* bit-identical to the dense
/// fold. Attainers of zero-valued extrema come out as [`NO_ARG`] instead
/// of a concrete member; the engine treats `NO_ARG` as "rescan to find
/// out", so this only trades a little laziness, never a value.
#[allow(clippy::too_many_arguments)]
pub fn fold_minmax_sparse_row(
    u: u32,
    row: &RowRep,
    k: usize,
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &mut [u32],
) {
    debug_assert!(
        mins.len() >= k
            && maxs.len() >= k
            && arg_mins.len() >= k
            && arg_maxs.len() >= k
            && nzs.len() >= k
    );
    match row {
        RowRep::Sparse(entries) => {
            for &(c, o) in entries.iter() {
                let j = c as usize;
                debug_assert!(j < k, "sparse entry at dead color {c} (k = {k})");
                nzs[j] += 1;
                if o < mins[j] {
                    mins[j] = o;
                    arg_mins[j] = u;
                }
                if o > maxs[j] {
                    maxs[j] = o;
                    arg_maxs[j] = u;
                }
            }
        }
        RowRep::Dense(slots) => {
            let live = slots.len().min(k);
            fold_minmax_row(u, &slots[..live], mins, maxs, arg_mins, arg_maxs, nzs);
        }
    }
}

/// Close a sparse member-axis fold: fold one implicit `0.0` (attainer
/// [`NO_ARG`]) into every column that fewer than `member_count` members
/// contributed a nonzero value to.
///
/// After this, `mins`/`maxs` hold exactly what the dense fold over
/// explicit-zero rows would — a zero extremum simply carries `NO_ARG`
/// instead of the first member attaining it (the engine's conservative
/// "unknown attainer" sentinel, which forces a rescan instead of a wrong
/// answer). Because the zero fold depends only on `member_count` and the
/// per-column nonzero counts — not on which worker folded which member —
/// sharded sparse rebuilds stay deterministic across thread counts.
pub fn fold_zero_tail(
    member_count: u32,
    k: usize,
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &[u32],
) {
    debug_assert!(
        mins.len() >= k
            && maxs.len() >= k
            && arg_mins.len() >= k
            && arg_maxs.len() >= k
            && nzs.len() >= k
    );
    for j in 0..k {
        if nzs[j] < member_count {
            if 0.0 < mins[j] {
                mins[j] = 0.0;
                arg_mins[j] = NO_ARG;
            }
            if 0.0 > maxs[j] {
                maxs[j] = 0.0;
                arg_maxs[j] = NO_ARG;
            }
        }
    }
}

/// Prefetch hint for a tiered row's heap payload: the middle of a sparse
/// row's entry buffer (the binary search's first probe) or a specific
/// dense slot. Like [`prefetch_read`], never changes results.
#[inline(always)]
pub fn prefetch_row_payload(row: &RowRep, col: u32) {
    match row {
        RowRep::Sparse(entries) => prefetch_read(entries, entries.len() / 2),
        RowRep::Dense(slots) => prefetch_read(slots, col as usize),
    }
}

/// [`scan_gather_column`] over tiered rows: min/max (first-attainer
/// witnesses, nonzero count) of `rows[u].get(col)` over the members, in
/// member order. Every member contributes a value (absent sparse entries
/// read `0.0`), so values *and* attainers are bit-identical to the dense
/// strided gather.
///
/// Each probe chases two dependent pointers the hardware prefetcher
/// cannot see coming (the `RowRep` enum, then its heap buffer), so the
/// loop runs a two-stage software pipeline: the row struct is prefetched
/// `ROW_AHEAD` members out, and once it has landed its payload buffer
/// is prefetched `PAYLOAD_AHEAD` members out. Hints only — results are
/// unchanged.
#[must_use]
#[allow(clippy::type_complexity)]
pub fn scan_gather_column_sparse(
    members: &[u32],
    rows: &[RowRep],
    col: u32,
) -> (f64, f64, u32, u32, u32) {
    const ROW_AHEAD: usize = 16;
    const PAYLOAD_AHEAD: usize = 8;
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut amn = NO_ARG;
    let mut amx = NO_ARG;
    let mut nz = 0u32;
    for (pos, &u) in members.iter().enumerate() {
        if let Some(&w) = members.get(pos + ROW_AHEAD) {
            prefetch_read(rows, w as usize);
        }
        if let Some(&w) = members.get(pos + PAYLOAD_AHEAD) {
            prefetch_row_payload(&rows[w as usize], col);
        }
        let x = rows[u as usize].get(col);
        nz += u32::from(x != 0.0);
        let lt = x < mn;
        mn = if lt { x } else { mn };
        amn = if lt { u } else { amn };
        let gt = x > mx;
        mx = if gt { x } else { mx };
        amx = if gt { u } else { amx };
    }
    (mn, mx, amn, amx, nz)
}

/// [`scan_gather_columns`] over tiered rows: several queued columns of one
/// member axis folded in a single member pass. Sparse rows merge-join
/// their sorted entries against the column list (sorted once up front),
/// `O(nnz + t)` per member; promoted rows probe their slots directly.
/// Bit-identical per column (values and attainers) to the one-column scan.
#[allow(clippy::too_many_arguments)]
pub fn scan_gather_columns_sparse(
    members: &[u32],
    rows: &[RowRep],
    cols: &[u32],
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &mut [u32],
) {
    let t = cols.len();
    debug_assert!(
        mins.len() >= t
            && maxs.len() >= t
            && arg_mins.len() >= t
            && arg_maxs.len() >= t
            && nzs.len() >= t
    );
    mins[..t].fill(f64::INFINITY);
    maxs[..t].fill(f64::NEG_INFINITY);
    arg_mins[..t].fill(NO_ARG);
    arg_maxs[..t].fill(NO_ARG);
    nzs[..t].fill(0);
    // (column, output slot), sorted by column for the merge-join.
    let mut order: Vec<(u32, u32)> = cols
        .iter()
        .enumerate()
        .map(|(s, &j)| (j, s as u32))
        .collect();
    order.sort_unstable();
    // Same two-stage pipeline as `scan_gather_column_sparse` (row struct,
    // then its heap buffer) — shorter distances, since each member does a
    // whole merge-join of work. The merge-join consumes the entry buffer
    // from the front, so the payload hint targets index 0.
    const ROW_AHEAD: usize = 4;
    const PAYLOAD_AHEAD: usize = 2;
    for (pos, &u) in members.iter().enumerate() {
        if let Some(&w) = members.get(pos + ROW_AHEAD) {
            prefetch_read(rows, w as usize);
        }
        if let Some(&w) = members.get(pos + PAYLOAD_AHEAD) {
            match &rows[w as usize] {
                RowRep::Sparse(entries) => prefetch_read(entries, 0),
                RowRep::Dense(slots) => prefetch_read(slots, 0),
            }
        }
        match &rows[u as usize] {
            RowRep::Sparse(entries) => {
                let mut ei = 0usize;
                for &(c, s) in &order {
                    while ei < entries.len() && entries[ei].0 < c {
                        ei += 1;
                    }
                    let x = if ei < entries.len() && entries[ei].0 == c {
                        entries[ei].1
                    } else {
                        0.0
                    };
                    let s = s as usize;
                    nzs[s] += u32::from(x != 0.0);
                    let lt = x < mins[s];
                    mins[s] = if lt { x } else { mins[s] };
                    arg_mins[s] = if lt { u } else { arg_mins[s] };
                    let gt = x > maxs[s];
                    maxs[s] = if gt { x } else { maxs[s] };
                    arg_maxs[s] = if gt { u } else { arg_maxs[s] };
                }
            }
            RowRep::Dense(slots) => {
                for &(c, s) in &order {
                    let x = slots.get(c as usize).copied().unwrap_or(0.0);
                    let s = s as usize;
                    nzs[s] += u32::from(x != 0.0);
                    let lt = x < mins[s];
                    mins[s] = if lt { x } else { mins[s] };
                    arg_mins[s] = if lt { u } else { arg_mins[s] };
                    let gt = x > maxs[s];
                    maxs[s] = if gt { x } else { maxs[s] };
                    arg_maxs[s] = if gt { u } else { arg_maxs[s] };
                }
            }
        }
    }
}

/// Maximum spread `maxs[j] - mins[j]` over a summary row plus its first
/// attainer index (`NO_ARG` when no spread exceeds `0.0`) — the witness
/// row scan for unweighted (β = 0) candidate picks.
///
/// Exactly reproduces the sequential scalar scan started at `0.0`
/// (`if e > m { m = e; a = j }` per column): within a lane the strict
/// compare keeps the lane's first attainer, and the cross-lane combine
/// resolves equal values to the smaller index — which *is* the
/// first-attainer rule, since lane `l` holds columns `l, l + LANES, …`
/// and the earliest column attaining the global maximum is the smallest
/// index among the per-lane firsts. The tail runs after the combine with
/// a strict compare, so a tail column never steals a tie from the
/// blocked prefix. Bit-identical to the scalar loop on any input without
/// NaNs (summaries never hold NaN; a NaN spread loses every compare in
/// both forms).
#[must_use]
pub fn row_err_argmax(maxs: &[f64], mins: &[f64]) -> (f64, u32) {
    let k = maxs.len();
    debug_assert_eq!(k, mins.len());
    let mut m = [0.0f64; LANES];
    let mut a = [NO_ARG; LANES];
    let mut j = 0;
    while j + LANES <= k {
        let mx = &maxs[j..j + LANES];
        let mn = &mins[j..j + LANES];
        for l in 0..LANES {
            let e = mx[l] - mn[l];
            let gt = e > m[l];
            m[l] = if gt { e } else { m[l] };
            a[l] = if gt { (j + l) as u32 } else { a[l] };
        }
        j += LANES;
    }
    let mut best = 0.0f64;
    let mut arg = NO_ARG;
    for l in 0..LANES {
        // A lane only records an attainer on a strict `> 0.0` win, so
        // `a[l] != NO_ARG` implies `m[l] > 0.0` and the index tie-break
        // never fires on the untouched zero lanes.
        if m[l] > best || (m[l] == best && a[l] < arg) {
            best = m[l];
            arg = a[l];
        }
    }
    while j < k {
        let e = maxs[j] - mins[j];
        if e > best {
            best = e;
            arg = j as u32;
        }
        j += 1;
    }
    (best, arg)
}

/// Sum + min/max of `vals[u]` gathered over a member list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatherStats {
    /// Sum of the gathered values (canonical blocked tree).
    pub sum: f64,
    /// Strict-compare minimum in member order (`INFINITY` when empty).
    pub min: f64,
    /// Strict-compare maximum in member order (`NEG_INFINITY` when empty).
    pub max: f64,
}

/// Gathered sum (canonical blocked reduction tree — lane `l` accumulates
/// members `l, l+LANES, …` of the blocked prefix, combined by
/// [`combine_tree`], tail folded sequentially) plus sequential-semantics
/// min/max. The deterministic witness-split scan.
#[must_use]
pub fn gather_stats(members: &[u32], vals: &[f64]) -> GatherStats {
    let mut lanes_acc = [0.0f64; LANES];
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut it = members.chunks_exact(LANES);
    for chunk in &mut it {
        let c = &chunk[..LANES];
        for l in 0..LANES {
            let d = vals[c[l] as usize];
            lanes_acc[l] += d;
            mn = if d < mn { d } else { mn };
            mx = if d > mx { d } else { mx };
        }
    }
    let mut sum = combine_tree(&lanes_acc);
    for &u in it.remainder() {
        let d = vals[u as usize];
        sum += d;
        mn = if d < mn { d } else { mn };
        mx = if d > mx { d } else { mx };
    }
    GatherStats {
        sum,
        min: mn,
        max: mx,
    }
}

/// Sequential `Σ ln(vals[u])` over the gathered values that are `> 0.0`,
/// plus their count — the geometric-mean pass of the witness split,
/// computed lazily only when the arithmetic threshold fails to separate
/// the color (the `ln` calls dominated the old eager scan).
#[must_use]
pub fn gather_log_stats(members: &[u32], vals: &[f64]) -> (f64, usize) {
    let mut log_sum = 0.0f64;
    let mut positive = 0usize;
    for &u in members {
        let d = vals[u as usize];
        if d > 0.0 {
            log_sum += d.ln();
            positive += 1;
        }
    }
    (log_sum, positive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_minmax_row_matches_scalar() {
        let k = 13; // exercises both the blocked body and the tail
        let row: Vec<f64> = (0..k).map(|j| ((j * 7) % 5) as f64 - 2.0).collect();
        let mut mins = vec![f64::INFINITY; k];
        let mut maxs = vec![f64::NEG_INFINITY; k];
        let mut amn = vec![NO_ARG; k];
        let mut amx = vec![NO_ARG; k];
        let mut nz = vec![0u32; k];
        fold_minmax_row(3, &row, &mut mins, &mut maxs, &mut amn, &mut amx, &mut nz);
        // A second member with equal values must NOT steal the attainers.
        fold_minmax_row(9, &row, &mut mins, &mut maxs, &mut amn, &mut amx, &mut nz);
        for j in 0..k {
            assert_eq!(mins[j], row[j]);
            assert_eq!(maxs[j], row[j]);
            assert_eq!(amn[j], 3);
            assert_eq!(amx[j], 3);
            assert_eq!(nz[j], 2 * u32::from(row[j] != 0.0));
        }
    }

    #[test]
    fn gather_stats_sum_uses_canonical_tree() {
        let vals: Vec<f64> = (0..40).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let members: Vec<u32> = (0..vals.len() as u32).rev().collect();
        let gathered: Vec<f64> = members.iter().map(|&u| vals[u as usize]).collect();
        let s = gather_stats(&members, &vals);
        assert_eq!(s.sum.to_bits(), sum(&gathered).to_bits());
        assert_eq!((s.min, s.max), (vals[0], vals[39]));
    }
}
