//! Structured LP generators.
//!
//! The paper evaluates on four Mittelmann-benchmark LPs (`qap15`,
//! `nug08-3rd`, `supportcase10`, `ex10`; Table 3). Those files are external
//! downloads, so this module provides seeded generators producing LPs with
//! the same *structural* property that makes them compressible: constraint
//! matrices containing blocks of near-identical rows and columns
//! (`qsc-datasets` maps each benchmark LP to its generator).
//!
//! All generated problems are feasible (the origin is feasible: `b > 0`) and
//! bounded (every variable has a positive coefficient in some constraint).

use crate::problem::LpProblem;
use qsc_linalg::SparseMatrix;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Specification of a block-structured LP.
#[derive(Clone, Debug)]
pub struct BlockLpSpec {
    /// Problem name.
    pub name: String,
    /// Number of row blocks.
    pub block_rows: usize,
    /// Number of column blocks.
    pub block_cols: usize,
    /// Rows per block.
    pub rows_per_block: usize,
    /// Columns per block.
    pub cols_per_block: usize,
    /// Probability that a (row-block, column-block) pair is non-zero.
    pub density: f64,
    /// Relative perturbation applied to every expanded coefficient
    /// (`0.0` yields an exactly block-constant, perfectly compressible LP).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generate a block-structured LP: a small random "blueprint" LP expanded by
/// replicating each row and column `rows_per_block` / `cols_per_block` times
/// with bounded multiplicative noise. With `noise = 0` the blueprint
/// partition is a stable coloring of the extended matrix; with small noise it
/// is a q-stable coloring for small q.
pub fn block_lp(spec: &BlockLpSpec) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let m = spec.block_rows * spec.rows_per_block;
    let n = spec.block_cols * spec.cols_per_block;

    // Blueprint coefficients.
    let mut base = vec![0.0f64; spec.block_rows * spec.block_cols];
    for bi in 0..spec.block_rows {
        for bj in 0..spec.block_cols {
            if rng.random::<f64>() < spec.density {
                base[bi * spec.block_cols + bj] = 0.5 + 1.5 * rng.random::<f64>();
            }
        }
    }
    // Guarantee boundedness: every column block needs a positive entry.
    for bj in 0..spec.block_cols {
        if (0..spec.block_rows).all(|bi| base[bi * spec.block_cols + bj] == 0.0) {
            let bi = rng.random_range(0..spec.block_rows);
            base[bi * spec.block_cols + bj] = 1.0;
        }
    }
    let base_b: Vec<f64> = (0..spec.block_rows)
        .map(|_| (5.0 + 10.0 * rng.random::<f64>()) * spec.cols_per_block as f64)
        .collect();
    let base_c: Vec<f64> = (0..spec.block_cols)
        .map(|_| 1.0 + 4.0 * rng.random::<f64>())
        .collect();

    let mut triplets = Vec::new();
    let perturb = |rng: &mut StdRng, noise: f64| 1.0 + noise * (2.0 * rng.random::<f64>() - 1.0);
    for bi in 0..spec.block_rows {
        for r in 0..spec.rows_per_block {
            let row = (bi * spec.rows_per_block + r) as u32;
            for bj in 0..spec.block_cols {
                let v = base[bi * spec.block_cols + bj];
                if v == 0.0 {
                    continue;
                }
                for c in 0..spec.cols_per_block {
                    let col = (bj * spec.cols_per_block + c) as u32;
                    triplets.push((row, col, v * perturb(&mut rng, spec.noise)));
                }
            }
        }
    }
    let b: Vec<f64> = (0..m)
        .map(|i| base_b[i / spec.rows_per_block] * perturb(&mut rng, spec.noise))
        .collect();
    let c: Vec<f64> = (0..n)
        .map(|j| base_c[j / spec.cols_per_block] * perturb(&mut rng, spec.noise))
        .collect();

    LpProblem::new(
        spec.name.clone(),
        SparseMatrix::from_triplets(m, n, &triplets),
        b,
        c,
    )
}

/// Assignment-polytope style LP (stand-in for the QAP linearizations `qap15`
/// and `nug08-3rd`): variables `x_{ij}` for an `size × size` assignment,
/// constraints `Σ_j x_ij ≤ 1` and `Σ_i x_ij ≤ 1`, objective coefficients
/// depending smoothly on `|i − j|` plus noise. The constraint matrix consists
/// of two groups of structurally identical rows, which is exactly the
/// block-regular structure quasi-stable coloring exploits.
pub fn assignment_like(size: usize, noise: f64, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = size * size;
    let m = 2 * size;
    let var = |i: usize, j: usize| (i * size + j) as u32;
    let mut triplets = Vec::with_capacity(2 * n);
    for i in 0..size {
        for j in 0..size {
            triplets.push((i as u32, var(i, j), 1.0));
            triplets.push(((size + j) as u32, var(i, j), 1.0));
        }
    }
    let b = vec![1.0; m];
    let mut c = vec![0.0; n];
    for i in 0..size {
        for j in 0..size {
            let dist = (i as f64 - j as f64).abs();
            let value = 10.0 / (1.0 + dist) + noise * rng.random::<f64>();
            c[i * size + j] = value;
        }
    }
    LpProblem::new(
        format!("assignment-{size}"),
        SparseMatrix::from_triplets(m, n, &triplets),
        b,
        c,
    )
}

/// Covering/packing style LP with many more columns than rows (stand-in for
/// `supportcase10`, which has 1.4M columns and 10.7K rows): maximize the
/// total activity of `cols` columns subject to `rows` shared capacity
/// constraints. Columns come in a small number of repeated "types" plus
/// noise.
pub fn covering_like(
    rows: usize,
    cols: usize,
    col_types: usize,
    noise: f64,
    seed: u64,
) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let col_types = col_types.max(1);
    // Each column type touches a random subset of rows with unit-ish weight.
    let mut type_rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(col_types);
    for _ in 0..col_types {
        let touches = (rows / 4).max(1);
        let mut rows_touched: Vec<u32> = (0..rows as u32).collect();
        rows_touched.shuffle(&mut rng);
        rows_touched.truncate(touches);
        rows_touched.sort_unstable();
        type_rows.push(
            rows_touched
                .into_iter()
                .map(|r| (r, 0.5 + rng.random::<f64>()))
                .collect(),
        );
    }
    let mut triplets = Vec::new();
    let mut c = Vec::with_capacity(cols);
    let perturb = |rng: &mut StdRng| 1.0 + noise * (2.0 * rng.random::<f64>() - 1.0);
    for j in 0..cols {
        let ty = j % col_types;
        for &(r, v) in &type_rows[ty] {
            triplets.push((r, j as u32, v * perturb(&mut rng)));
        }
        c.push((1.0 + ty as f64 * 0.1) * perturb(&mut rng));
    }
    let b = vec![cols as f64 / 10.0; rows];
    LpProblem::new(
        format!("covering-{rows}x{cols}"),
        SparseMatrix::from_triplets(rows, cols, &triplets),
        b,
        c,
    )
}

/// Transportation-style LP (stand-in for `ex10`): suppliers ship to
/// consumers; supply and demand rows, shipping-cost objective. Suppliers and
/// consumers come in a few capacity classes, so rows within a class are
/// near-identical.
pub fn transport_like(suppliers: usize, consumers: usize, classes: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = classes.max(1);
    let n = suppliers * consumers;
    let m = suppliers + consumers;
    let var = |s: usize, t: usize| (s * consumers + t) as u32;
    let mut triplets = Vec::with_capacity(2 * n);
    for s in 0..suppliers {
        for t in 0..consumers {
            triplets.push((s as u32, var(s, t), 1.0));
            triplets.push(((suppliers + t) as u32, var(s, t), 1.0));
        }
    }
    let mut b = Vec::with_capacity(m);
    for s in 0..suppliers {
        let class = s % classes;
        b.push(20.0 + 10.0 * class as f64 + rng.random::<f64>());
    }
    for t in 0..consumers {
        let class = t % classes;
        b.push(15.0 + 5.0 * class as f64 + rng.random::<f64>());
    }
    let mut c = Vec::with_capacity(n);
    for s in 0..suppliers {
        for t in 0..consumers {
            let sc = s % classes;
            let tc = t % classes;
            c.push(1.0 + ((sc + tc) as f64) * 0.5 + 0.05 * rng.random::<f64>());
        }
    }
    LpProblem::new(
        format!("transport-{suppliers}x{consumers}"),
        SparseMatrix::from_triplets(m, n, &triplets),
        b,
        c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LpStatus;
    use crate::simplex;

    #[test]
    fn block_lp_dimensions_and_feasibility() {
        let lp = block_lp(&BlockLpSpec {
            name: "t".into(),
            block_rows: 3,
            block_cols: 2,
            rows_per_block: 4,
            cols_per_block: 5,
            density: 0.8,
            noise: 0.1,
            seed: 1,
        });
        assert_eq!(lp.num_rows(), 12);
        assert_eq!(lp.num_cols(), 10);
        assert!(lp.is_feasible(&[0.0; 10], 0.0));
        let sol = simplex::solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.objective > 0.0);
    }

    #[test]
    fn block_lp_zero_noise_is_perfectly_compressible() {
        let lp = block_lp(&BlockLpSpec {
            name: "t0".into(),
            block_rows: 3,
            block_cols: 2,
            rows_per_block: 4,
            cols_per_block: 4,
            density: 1.0,
            noise: 0.0,
            seed: 2,
        });
        // All rows within a block are identical.
        let dense = lp.a.to_dense();
        for block in 0..3 {
            let base = block * 4;
            for r in 1..4 {
                for c in 0..lp.num_cols() {
                    assert!((dense.get(base, c) - dense.get(base + r, c)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn block_lp_deterministic_for_seed() {
        let spec = BlockLpSpec {
            name: "det".into(),
            block_rows: 2,
            block_cols: 2,
            rows_per_block: 3,
            cols_per_block: 3,
            density: 0.9,
            noise: 0.2,
            seed: 99,
        };
        let a = block_lp(&spec);
        let b = block_lp(&spec);
        assert_eq!(a.b, b.b);
        assert_eq!(a.c, b.c);
        assert_eq!(a.num_nonzeros(), b.num_nonzeros());
    }

    #[test]
    fn assignment_lp_optimum_is_perfect_matching_value() {
        // With noise 0, the optimal LP value is size * 10 (match i to i).
        let lp = assignment_like(6, 0.0, 5);
        assert_eq!(lp.num_rows(), 12);
        assert_eq!(lp.num_cols(), 36);
        let sol = simplex::solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 60.0).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn covering_lp_solves_and_is_wide() {
        let lp = covering_like(10, 200, 4, 0.05, 8);
        assert_eq!(lp.num_rows(), 10);
        assert_eq!(lp.num_cols(), 200);
        let sol = simplex::solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.objective > 0.0);
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn transport_lp_bounded() {
        let lp = transport_like(8, 6, 3, 4);
        assert_eq!(lp.num_rows(), 14);
        assert_eq!(lp.num_cols(), 48);
        let sol = simplex::solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimal shipping bounded by total demand times max unit value.
        assert!(sol.objective.is_finite() && sol.objective > 0.0);
    }
}
