//! Engine lane kernels: the vectorized hot-path substrate of the
//! incremental refinement engine.
//!
//! The shared f64 primitives (blocked sums with the canonical reduction
//! tree, `fold_add`/`fold_sub` column folds, sequential-semantics min/max
//! scans) live in [`qsc_linalg::lanes`] — re-exported here — so the LP
//! solvers and the engine reduce through literally the same code. This
//! module adds the engine-specific shapes on top:
//!
//! * [`fold_minmax_columns`] — fold the first `k` columns of a color-major
//!   dense plane over a member list into per-color
//!   min/max/attainer/nonzero aggregates. This is the dense member-axis
//!   rebuild kernel: it walks the columns in blocks of [`LANES`], reading
//!   each member's slot in every column of the block (with software
//!   prefetch a few members ahead), so the block's columns stay
//!   cache-resident while the member list streams past.
//! * [`fold_minmax_row`] — fold one member's contiguous accumulator row
//!   into the same aggregates, a branch-free column loop LLVM vectorizes
//!   (compare + blend per lane). Promoted tiered rows ([`RowRep::Dense`])
//!   fold through it.
//! * [`fold_minmax_sparse_row`] — the same member-axis fold over a tiered
//!   [`RowRep`] accumulator row (sparse engines): nonzero entries fold with
//!   real attainers, and [`fold_zero_tail`] closes the scan by folding one
//!   `0.0` (attainer [`NO_ARG`]) into every column that some member left
//!   implicit — values bit-identical to the dense fold.
//! * [`scan_gather_column`] — min/max (with first-attainer witnesses and a
//!   nonzero count) of one contiguous accumulator column over a member
//!   list; the shared kernel of every dense entry rescan.
//!   [`scan_gather_column_sparse`] is the tiered-row form, bit-identical
//!   including attainers (every member contributes a value, absent entries
//!   read `0.0`).
//! * [`scan_gather_columns_sparse`] — several queued columns of one member
//!   axis folded in a single pass over tiered rows: a merge-join of each
//!   member's sorted entries against the sorted queued columns,
//!   `O(nnz + t)` per member instead of `O(t)` random row probes —
//!   bit-identical per column (including attainers) to the one-column
//!   gather. The parent-axis repair batch after a split runs through it;
//!   a dense plane runs one contiguous [`scan_gather_column`] per column.
//! * [`row_err_argmax`] — max spread `max − min` over a summary row with
//!   the sequential first-attainer index; the β = 0 witness-row scan.
//! * [`prefetch_read`] — best-effort L1 prefetch hint for pointer-chasing
//!   loops (the split apply phase, the blocked column fold); never changes
//!   results.
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

/// Fold the first `k` columns of a color-major plane over `members`, in
/// member order: column `j` is `plane[j * stride..]`, member `u`'s value in
/// it is `plane[j * stride + u]`. For each column, counts nonzeros and
/// keeps the strict min/max with the member recorded as attainer when the
/// strict compare fires (first attainer in member order wins ties) — per
/// column exactly what [`fold_minmax_row`] computes over the members'
/// rows, bit for bit. Folds into the aggregates already in the five
/// output slices, which must hold at least `k` entries each.
///
/// The columns go in blocks of [`LANES`]: for each member the block's
/// slots are read, then folded with branch-free selects. Each read sits in
/// its own cache line (a member's slots are a column stride apart), so the
/// loop prefetches every column's slot `PREFETCH_AHEAD` members ahead; the
/// hints never change results.
#[allow(clippy::too_many_arguments)]
pub fn fold_minmax_columns(
    members: &[u32],
    plane: &[f64],
    stride: usize,
    k: usize,
    mins: &mut [f64],
    maxs: &mut [f64],
    arg_mins: &mut [u32],
    arg_maxs: &mut [u32],
    nzs: &mut [u32],
) {
    const PREFETCH_AHEAD: usize = 8;
    debug_assert!(
        mins.len() >= k
            && maxs.len() >= k
            && arg_mins.len() >= k
            && arg_maxs.len() >= k
            && nzs.len() >= k
    );
    let mut j0 = 0;
    while j0 < k {
        let w = (k - j0).min(LANES);
        let mut mn = [0.0f64; LANES];
        let mut mx = [0.0f64; LANES];
        let mut amn = [0u32; LANES];
        let mut amx = [0u32; LANES];
        let mut nz = [0u32; LANES];
        mn[..w].copy_from_slice(&mins[j0..j0 + w]);
        mx[..w].copy_from_slice(&maxs[j0..j0 + w]);
        amn[..w].copy_from_slice(&arg_mins[j0..j0 + w]);
        amx[..w].copy_from_slice(&arg_maxs[j0..j0 + w]);
        nz[..w].copy_from_slice(&nzs[j0..j0 + w]);
        let block = &plane[j0 * stride..];
        for (pos, &u) in members.iter().enumerate() {
            if let Some(&ahead) = members.get(pos + PREFETCH_AHEAD) {
                for l in 0..w {
                    prefetch_read(block, l * stride + ahead as usize);
                }
            }
            for l in 0..w {
                let o = block[l * stride + u as usize];
                nz[l] += u32::from(o != 0.0);
                let lt = o < mn[l];
                mn[l] = if lt { o } else { mn[l] };
                amn[l] = if lt { u } else { amn[l] };
                let gt = o > mx[l];
                mx[l] = if gt { o } else { mx[l] };
                amx[l] = if gt { u } else { amx[l] };
            }
        }
        mins[j0..j0 + w].copy_from_slice(&mn[..w]);
        maxs[j0..j0 + w].copy_from_slice(&mx[..w]);
        arg_mins[j0..j0 + w].copy_from_slice(&amn[..w]);
        arg_maxs[j0..j0 + w].copy_from_slice(&amx[..w]);
        nzs[j0..j0 + w].copy_from_slice(&nz[..w]);
        j0 += w;
    }
}

/// Min/max (with first-attainer witnesses and a nonzero count) of
/// `column[u]` over the given members, in member order — one contiguous
/// column of a color-major accumulator plane.
///
/// The branch-free select form removes the unpredictable extremum
/// branches and lets the loads pipeline; the column itself (8 bytes per
/// node) stays cache-resident across the rescans that read it. Semantics
/// are exactly the sequential scalar scan: strict compares, first
/// attainer wins ties. Returns `(INFINITY, NEG_INFINITY, NO_ARG, NO_ARG,
/// 0)` on an empty member list.
#[must_use]
#[allow(clippy::type_complexity)]
pub fn scan_gather_column(members: &[u32], column: &[f64]) -> (f64, f64, u32, u32, u32) {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut amn = NO_ARG;
    let mut amx = NO_ARG;
    let mut nz = 0u32;
    for &u in members {
        let x = column[u as usize];
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
/// column gather.
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

/// Several queued columns of one member axis folded in a single pass over
/// tiered rows: for each column `cols[s]`, what [`scan_gather_column_sparse`]
/// computes lands at position `s` of the outputs. Sparse rows merge-join
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
