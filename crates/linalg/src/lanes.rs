//! Lane primitives: autovectorization-friendly f64 kernels on stable Rust.
//!
//! Every kernel here is written in the *fixed-width unrolled block* style:
//! the slice is walked in blocks of [`LANES`] elements, the block is
//! resliced to its exact width once at entry (`&chunk[..LANES]`) so LLVM
//! can prove all lane accesses in bounds and compile the body branch-free,
//! and the tail is handled by a plain scalar loop. No `std::simd`, no
//! unsafe, no dependencies — the shapes below reliably autovectorize with
//! the stable compiler (verified by spot-checking the emitted assembly;
//! see the notes at the bottom of this doc).
//!
//! ## Determinism contract
//!
//! The workspace's incremental engines promise bit-identical results at
//! every thread count and across warm/cold re-runs, so each kernel pins an
//! exact operation order:
//!
//! * **Sums** ([`sum`], [`dot`]) use the *canonical blocked reduction
//!   tree*: [`LANES`] stride-`LANES` partial accumulators over the blocked
//!   prefix, combined pairwise as
//!   `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`, then the tail folded
//!   sequentially onto that total. This is a *different* canonical order
//!   than a plain sequential fold — callers that previously pinned
//!   sequential-sum results re-baseline once when they switch — but it is
//!   a *fixed* order: the same input slice always reduces through the same
//!   tree, independent of thread count, call site, or build.
//! * **Min/max scans** ([`min_max`], [`max_abs`]) keep exact sequential
//!   semantics — strict-compare select per element, first attainer wins
//!   ties — expressed branch-free (`if lt { x } else { m }` compiles to
//!   compare+blend/cmov). Lane-parallel min/max folds are *not* used for
//!   anything that must be bit-identical to a scalar scan: reordering can
//!   flip which of `-0.0`/`+0.0` survives and which tied index is
//!   reported. The sequential select form is trivially bit-identical and
//!   still gains from branch elimination and instruction-level
//!   parallelism.
//! * **Elementwise folds** ([`fold_add`], [`fold_sub`], [`axpy`],
//!   [`scale`]) touch each index independently, so vectorization cannot
//!   reorder anything observable.
//!
//! ## Bounds-check elimination audit
//!
//! Each blocked loop below asserts its shape once (`debug_assert!`) and
//! reslices every operand chunk to `[..LANES]` before the unrolled body.
//! Spot check (release, x86-64 + AVX2 via
//! `cargo rustc -p qsc-linalg --release -- --emit asm`): the bodies of
//! `sum`/`dot` compile to `vaddpd`/`vfmadd` over ymm lanes with no
//! `panic_bounds_check` calls; `fold_add`/`fold_sub`/`axpy` to unrolled
//! `vaddpd`/`vfmadd` store loops; `min_max` to `vminsd`/`vmaxsd` chains
//! (sequential semantics keep it scalar-width, branch-free). The only
//! branches left in any kernel are the block-loop back-edges.

/// Fixed lane width of every blocked kernel (f64 elements per block).
pub const LANES: usize = 8;

/// Sum with the canonical blocked reduction tree (see the module docs).
///
/// The blocked prefix accumulates `lanes[l] += chunk[l]` per block, so lane
/// `l` holds the partial sum of elements `l, l+LANES, l+2*LANES, …`; the
/// pairwise combine and sequential tail pin one fixed order for every call.
#[must_use]
pub fn sum(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut it = xs.chunks_exact(LANES);
    for chunk in &mut it {
        let c = &chunk[..LANES];
        for l in 0..LANES {
            lanes[l] += c[l];
        }
    }
    let mut acc = combine_tree(&lanes);
    for &x in it.remainder() {
        acc += x;
    }
    acc
}

/// Dot product with the canonical blocked reduction tree (see [`sum`]).
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [0.0f64; LANES];
    let mut it = a.chunks_exact(LANES).zip(b.chunks_exact(LANES));
    let blocks = n / LANES;
    for (ca, cb) in &mut it {
        let (ca, cb) = (&ca[..LANES], &cb[..LANES]);
        for l in 0..LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut acc = combine_tree(&lanes);
    for i in blocks * LANES..n {
        acc += a[i] * b[i];
    }
    acc
}

/// Column fold `dst[i] += src[i]` (merge absorption, quotient-row folds).
pub fn fold_add(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let mut di = dst[..n].chunks_exact_mut(LANES);
    let mut si = src[..n].chunks_exact(LANES);
    for (d, s) in (&mut di).zip(&mut si) {
        let (d, s) = (&mut d[..LANES], &s[..LANES]);
        for l in 0..LANES {
            d[l] += s[l];
        }
    }
    for (d, s) in di.into_remainder().iter_mut().zip(si.remainder()) {
        *d += s;
    }
}

/// Column fold `dst[i] -= src[i]` (delta retraction).
pub fn fold_sub(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let mut di = dst[..n].chunks_exact_mut(LANES);
    let mut si = src[..n].chunks_exact(LANES);
    for (d, s) in (&mut di).zip(&mut si) {
        let (d, s) = (&mut d[..LANES], &s[..LANES]);
        for l in 0..LANES {
            d[l] -= s[l];
        }
    }
    for (d, s) in di.into_remainder().iter_mut().zip(si.remainder()) {
        *d -= s;
    }
}

/// `y[i] += alpha * x[i]` (each index independent — order-insensitive).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let mut yi = y[..n].chunks_exact_mut(LANES);
    let mut xi = x[..n].chunks_exact(LANES);
    for (yc, xc) in (&mut yi).zip(&mut xi) {
        let (yc, xc) = (&mut yc[..LANES], &xc[..LANES]);
        for l in 0..LANES {
            yc[l] += alpha * xc[l];
        }
    }
    for (yv, xv) in yi.into_remainder().iter_mut().zip(xi.remainder()) {
        *yv += alpha * xv;
    }
}

/// Scale in place (each index independent).
pub fn scale(a: &mut [f64], alpha: f64) {
    let mut it = a.chunks_exact_mut(LANES);
    for chunk in &mut it {
        for x in &mut chunk[..LANES] {
            *x *= alpha;
        }
    }
    for x in it.into_remainder() {
        *x *= alpha;
    }
}

/// Sequential-semantics min/max scan: strict-compare select per element in
/// slice order, expressed branch-free. Bit-identical to the scalar fold
/// `if x < mn { mn = x }; if x > mx { mx = x }` — including which of
/// `-0.0`/`+0.0` survives. Returns `(INFINITY, NEG_INFINITY)` on empty
/// input.
#[must_use]
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    for &x in xs {
        mn = if x < mn { x } else { mn };
        mx = if x > mx { x } else { mx };
    }
    (mn, mx)
}

/// Sequential-semantics `max |x|` scan (infinity norm), branch-free.
#[must_use]
pub fn max_abs(xs: &[f64]) -> f64 {
    let mut mx = 0.0f64;
    for &x in xs {
        let a = x.abs();
        mx = if a > mx { a } else { mx };
    }
    mx
}

/// The canonical pairwise combine of the [`LANES`] partial accumulators:
/// `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`. Public so gather-style
/// kernels built on top (e.g. `qsc_core::kernels`) reduce through the
/// *same* tree as [`sum`]/[`dot`].
#[inline]
#[must_use]
pub fn combine_tree(l: &[f64; LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.37 - 3.0).collect()
    }

    #[test]
    fn sum_matches_tree_by_construction() {
        for n in [0, 1, 7, 8, 9, 16, 31, 100] {
            let xs = seq(n);
            // Reference: the same canonical tree, written naively.
            let mut lanes = [0.0f64; LANES];
            for (i, &x) in xs.iter().take(n - n % LANES).enumerate() {
                lanes[i % LANES] += x;
            }
            let mut want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
            for &x in &xs[n - n % LANES..] {
                want += x;
            }
            assert_eq!(sum(&xs).to_bits(), want.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn dot_matches_sum_of_products() {
        for n in [0, 3, 8, 17, 64] {
            let a = seq(n);
            let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let prods: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            assert_eq!(dot(&a, &b).to_bits(), sum(&prods).to_bits(), "n = {n}");
        }
    }

    #[test]
    fn folds_match_scalar() {
        for n in [0, 1, 8, 13, 40] {
            let src = seq(n);
            let mut d1 = seq(n);
            let mut d2 = d1.clone();
            fold_add(&mut d1, &src);
            for (d, s) in d2.iter_mut().zip(&src) {
                *d += s;
            }
            assert_eq!(d1, d2);
            fold_sub(&mut d1, &src);
            assert_eq!(d1, seq(n));
        }
    }

    #[test]
    fn min_max_sequential_semantics() {
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
        let (mn, mx) = min_max(&[3.0, -1.0, 2.0, -1.0]);
        assert_eq!((mn, mx), (-1.0, 3.0));
        // Strict compares keep the first-seen zero's sign bit.
        let (mn, _) = min_max(&[0.0, -0.0]);
        assert!(mn.is_sign_positive());
        let (mn, _) = min_max(&[-0.0, 0.0]);
        assert!(mn.is_sign_negative());
    }

    #[test]
    fn axpy_scale_max_abs() {
        let x = seq(21);
        let mut y = seq(21);
        let mut y2 = y.clone();
        axpy(1.5, &x, &mut y);
        for (yv, xv) in y2.iter_mut().zip(&x) {
            *yv += 1.5 * xv;
        }
        assert_eq!(y, y2);
        scale(&mut y, -2.0);
        for yv in y2.iter_mut() {
            *yv *= -2.0;
        }
        assert_eq!(y, y2);
        assert_eq!(max_abs(&[-7.0, 3.0]), 7.0);
    }
}
