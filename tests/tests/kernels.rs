//! Lane-kernel equivalence suite: every kernel in `qsc_linalg::lanes` /
//! `qsc_core::kernels` must match its naive scalar reference *bit for bit*
//! on adversarial floats — signed zeros, subnormals, extremum ties,
//! empty/short/unaligned-length slices — plus engine-level pins that
//! colorings stay bit-identical across thread counts after the rewire.

use proptest::prelude::*;
use qsc_core::kernels;
use qsc_core::rothko::{Rothko, RothkoConfig, SplitMean};
use qsc_core::storage::RowRep;
use qsc_graph::generators;
use qsc_linalg::lanes;

/// Map small generated codes onto adversarial f64 values: both zero signs,
/// subnormals, ±1 ULP neighbours, repeats (ties), and ordinary magnitudes.
fn adversarial(code: u8) -> f64 {
    const SUBNORMAL: f64 = 5e-324; // smallest positive subnormal
    match code % 12 {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0,
        3 => -1.0,
        4 => f64::MIN_POSITIVE,
        5 => -f64::MIN_POSITIVE,
        6 => SUBNORMAL,
        7 => -SUBNORMAL,
        8 => 2.5,
        9 => 2.5, // deliberate duplicate: extremum ties across positions
        10 => 1e300,
        _ => -7.25,
    }
}

fn decode(codes: &[u8]) -> Vec<f64> {
    codes.iter().map(|&c| adversarial(c)).collect()
}

/// The canonical blocked reduction tree, written naively (the reference
/// the `sum`/`dot` kernels are pinned against).
fn reference_tree_sum(xs: &[f64]) -> f64 {
    const W: usize = lanes::LANES;
    let mut acc_lanes = [0.0f64; W];
    let blocked = xs.len() - xs.len() % W;
    for (i, &x) in xs[..blocked].iter().enumerate() {
        acc_lanes[i % W] += x;
    }
    let mut acc = ((acc_lanes[0] + acc_lanes[1]) + (acc_lanes[2] + acc_lanes[3]))
        + ((acc_lanes[4] + acc_lanes[5]) + (acc_lanes[6] + acc_lanes[7]));
    for &x in &xs[blocked..] {
        acc += x;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sum_and_dot_match_canonical_tree(
        codes in proptest::collection::vec(0u8..12, 0..40),
    ) {
        let xs = decode(&codes);
        prop_assert_eq!(lanes::sum(&xs).to_bits(), reference_tree_sum(&xs).to_bits());
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 - 1.0).collect();
        let prods: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| x * y).collect();
        prop_assert_eq!(
            lanes::dot(&xs, &ys).to_bits(),
            reference_tree_sum(&prods).to_bits()
        );
    }

    #[test]
    fn elementwise_folds_match_scalar(
        codes in proptest::collection::vec((0u8..12, 0u8..12), 0..40),
    ) {
        let src: Vec<f64> = codes.iter().map(|&(a, _)| adversarial(a)).collect();
        let init: Vec<f64> = codes.iter().map(|&(_, b)| adversarial(b)).collect();
        let mut got = init.clone();
        lanes::fold_add(&mut got, &src);
        let want: Vec<f64> = init.iter().zip(&src).map(|(d, s)| d + s).collect();
        prop_assert_eq!(bits(&got), bits(&want));
        let mut got = init.clone();
        lanes::fold_sub(&mut got, &src);
        let want: Vec<f64> = init.iter().zip(&src).map(|(d, s)| d - s).collect();
        prop_assert_eq!(bits(&got), bits(&want));
        let mut got = init.clone();
        lanes::axpy(1.5, &src, &mut got);
        let want: Vec<f64> = init.iter().zip(&src).map(|(d, s)| d + 1.5 * s).collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn min_max_matches_strict_scalar_scan(
        codes in proptest::collection::vec(0u8..12, 0..40),
    ) {
        let xs = decode(&codes);
        let (mn, mx) = lanes::min_max(&xs);
        let mut smn = f64::INFINITY;
        let mut smx = f64::NEG_INFINITY;
        for &x in &xs {
            if x < smn {
                smn = x;
            }
            if x > smx {
                smx = x;
            }
        }
        prop_assert_eq!(mn.to_bits(), smn.to_bits());
        prop_assert_eq!(mx.to_bits(), smx.to_bits());
    }

    #[test]
    fn fold_minmax_row_matches_scalar_scan(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u8..12, 13), 1..6,
        ),
    ) {
        // 13 columns exercises both the 8-wide blocked body and the tail;
        // the per-member fold must keep the FIRST attainer on ties.
        for k in [0usize, 1, 7, 8, 13] {
            let mut mins = vec![f64::INFINITY; k];
            let mut maxs = vec![f64::NEG_INFINITY; k];
            let mut amn = vec![kernels::NO_ARG; k];
            let mut amx = vec![kernels::NO_ARG; k];
            let mut nz = vec![0u32; k];
            let mut smins = mins.clone();
            let mut smaxs = maxs.clone();
            let mut samn = amn.clone();
            let mut samx = amx.clone();
            let mut snz = nz.clone();
            for (u, codes) in rows.iter().enumerate() {
                let row = decode(&codes[..k]);
                kernels::fold_minmax_row(
                    u as u32, &row, &mut mins, &mut maxs, &mut amn, &mut amx, &mut nz,
                );
                for j in 0..k {
                    let o = row[j];
                    snz[j] += u32::from(o != 0.0);
                    if o < smins[j] {
                        smins[j] = o;
                        samn[j] = u as u32;
                    }
                    if o > smaxs[j] {
                        smaxs[j] = o;
                        samx[j] = u as u32;
                    }
                }
            }
            prop_assert_eq!(bits(&mins), bits(&smins));
            prop_assert_eq!(bits(&maxs), bits(&smaxs));
            prop_assert_eq!(&amn, &samn);
            prop_assert_eq!(&amx, &samx);
            prop_assert_eq!(&nz, &snz);
        }
    }

    #[test]
    fn scan_gather_column_matches_scalar_scan(
        codes in proptest::collection::vec(0u8..12, 64),
        member_picks in proptest::collection::vec(0u32..8, 0..8),
    ) {
        // A color-major plane: 8 columns of 8 nodes each.
        let n = 8usize;
        let acc = decode(&codes);
        for col in 0..8 {
            let (mn, mx, amn, amx, nz) =
                kernels::scan_gather_column(&member_picks, &acc[col * n..(col + 1) * n]);
            let mut smn = f64::INFINITY;
            let mut smx = f64::NEG_INFINITY;
            let mut samn = kernels::NO_ARG;
            let mut samx = kernels::NO_ARG;
            let mut snz = 0u32;
            for &u in &member_picks {
                let x = acc[col * n + u as usize];
                snz += u32::from(x != 0.0);
                if x < smn {
                    smn = x;
                    samn = u;
                }
                if x > smx {
                    smx = x;
                    samx = u;
                }
            }
            prop_assert_eq!(mn.to_bits(), smn.to_bits());
            prop_assert_eq!(mx.to_bits(), smx.to_bits());
            prop_assert_eq!((amn, amx, nz), (samn, samx, snz));
        }
    }

    #[test]
    fn fold_minmax_columns_matches_scalar_member_loop(
        codes in proptest::collection::vec(0u8..12, 17 * 12),
        member_picks in proptest::collection::vec(0u32..12, 0..24),
        split in 0usize..24,
    ) {
        // A color-major plane of 17 columns over 12 nodes with a stride of
        // 15 (slack slots read 0.0). Widths around LANES exercise whole
        // blocks and partial tails; members repeat, and the duplicated
        // codes put equal values at the extremum, where the FIRST attainer
        // in member order must win. Folding the members in two calls (a
        // shard boundary at `split`) must equal one pass over all of them.
        let (n, stride) = (12usize, 15usize);
        let vals = decode(&codes);
        let mut plane = vec![0.0f64; 17 * stride];
        for j in 0..17 {
            plane[j * stride..j * stride + n].copy_from_slice(&vals[j * n..(j + 1) * n]);
        }
        let cut = split.min(member_picks.len());
        for k in [0usize, 1, 5, 7, 8, 9, 13, 16, 17] {
            let mut mins = vec![f64::INFINITY; k];
            let mut maxs = vec![f64::NEG_INFINITY; k];
            let mut amn = vec![kernels::NO_ARG; k];
            let mut amx = vec![kernels::NO_ARG; k];
            let mut nz = vec![0u32; k];
            let mut smins = mins.clone();
            let mut smaxs = maxs.clone();
            let mut samn = amn.clone();
            let mut samx = amx.clone();
            let mut snz = nz.clone();
            for part in [&member_picks[..cut], &member_picks[cut..]] {
                kernels::fold_minmax_columns(
                    part, &plane, stride, k, &mut mins, &mut maxs, &mut amn, &mut amx, &mut nz,
                );
            }
            for &u in &member_picks {
                for j in 0..k {
                    let o = plane[j * stride + u as usize];
                    snz[j] += u32::from(o != 0.0);
                    if o < smins[j] {
                        smins[j] = o;
                        samn[j] = u;
                    }
                    if o > smaxs[j] {
                        smaxs[j] = o;
                        samx[j] = u;
                    }
                }
            }
            prop_assert_eq!(bits(&mins), bits(&smins));
            prop_assert_eq!(bits(&maxs), bits(&smaxs));
            prop_assert_eq!(&amn, &samn);
            prop_assert_eq!(&amx, &samx);
            prop_assert_eq!(&nz, &snz);
        }
    }

    #[test]
    fn row_err_argmax_matches_scalar_scan(
        pairs in proptest::collection::vec((0u8..12, 0u8..12), 0..40),
    ) {
        // Lengths 0..40 cover empty rows, pure-tail rows, and rows with
        // cross-lane ties (the duplicate code makes equal spreads common);
        // the kernel must return the sequential FIRST attainer.
        let maxs: Vec<f64> = pairs.iter().map(|&(a, b)| {
            let (x, y) = (adversarial(a), adversarial(b));
            if x > y { x } else { y }
        }).collect();
        let mins: Vec<f64> = pairs.iter().map(|&(a, b)| {
            let (x, y) = (adversarial(a), adversarial(b));
            if x > y { y } else { x }
        }).collect();
        let (err, arg) = kernels::row_err_argmax(&maxs, &mins);
        let mut serr = 0.0f64;
        let mut sarg = kernels::NO_ARG;
        for j in 0..maxs.len() {
            let e = maxs[j] - mins[j];
            if e > serr {
                serr = e;
                sarg = j as u32;
            }
        }
        prop_assert_eq!(err.to_bits(), serr.to_bits());
        prop_assert_eq!(arg, sarg);
    }

    #[test]
    fn scan_gather_columns_matches_per_column_gather(
        codes in proptest::collection::vec(0u8..12, 64),
        member_picks in proptest::collection::vec(0u32..8, 0..8),
        col_picks in proptest::collection::vec(0u32..8, 0..8),
    ) {
        // The grouped multi-column pass over tiered rows must equal one
        // scan_gather_column call per queued column (duplicated columns
        // included) over the column the rows read. Even nodes hold sparse
        // rows, odd nodes promoted slot arrays.
        let vals = decode(&codes);
        let rows: Vec<RowRep> = (0..8)
            .map(|v| {
                let row = &vals[v * 8..(v + 1) * 8];
                if v % 2 == 0 {
                    let entries = (0..8u32)
                        .zip(row.iter().copied())
                        .filter(|&(_, w)| w != 0.0)
                        .collect();
                    RowRep::Sparse(entries)
                } else {
                    RowRep::Dense(row.into())
                }
            })
            .collect();
        let t = col_picks.len();
        let mut mn = vec![0.0f64; t];
        let mut mx = vec![0.0f64; t];
        let mut amn = vec![0u32; t];
        let mut amx = vec![0u32; t];
        let mut nz = vec![0u32; t];
        kernels::scan_gather_columns_sparse(
            &member_picks, &rows, &col_picks,
            &mut mn, &mut mx, &mut amn, &mut amx, &mut nz,
        );
        for (s, &col) in col_picks.iter().enumerate() {
            let column: Vec<f64> = rows.iter().map(|r| r.get(col)).collect();
            let (smn, smx, samn, samx, snz) = kernels::scan_gather_column(&member_picks, &column);
            prop_assert_eq!(mn[s].to_bits(), smn.to_bits());
            prop_assert_eq!(mx[s].to_bits(), smx.to_bits());
            prop_assert_eq!((amn[s], amx[s], nz[s]), (samn, samx, snz));
        }
    }

    #[test]
    fn gather_stats_matches_tree_sum_and_scalar_minmax(
        codes in proptest::collection::vec(0u8..12, 32),
        member_picks in proptest::collection::vec(0u32..32, 0..24),
    ) {
        let vals = decode(&codes);
        let stats = kernels::gather_stats(&member_picks, &vals);
        let gathered: Vec<f64> = member_picks.iter().map(|&u| vals[u as usize]).collect();
        prop_assert_eq!(stats.sum.to_bits(), reference_tree_sum(&gathered).to_bits());
        let (mn, mx) = lanes::min_max(&gathered);
        prop_assert_eq!(stats.min.to_bits(), mn.to_bits());
        prop_assert_eq!(stats.max.to_bits(), mx.to_bits());
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Engine-level pin: after the kernel rewire, full Rothko runs stay bit
/// identical across thread counts — color assignments and the reported
/// maximum q-error compare equal to the bit.
#[test]
fn rothko_bit_identical_across_thread_counts() {
    let graphs = [
        ("ba", generators::barabasi_albert(600, 3, 11)),
        ("er", generators::erdos_renyi(400, 0.02, 7)),
    ];
    for (name, g) in &graphs {
        for (alpha, beta, mean) in [
            (0.0, 0.0, SplitMean::Arithmetic),
            (1.0, 1.0, SplitMean::Geometric),
        ] {
            let run = |threads: usize| {
                Rothko::new(
                    RothkoConfig::with_max_colors(48)
                        .weights(alpha, beta)
                        .split_mean(mean)
                        .threads(threads),
                )
                .run(g)
            };
            let c1 = run(1);
            let c4 = run(4);
            assert_eq!(
                c1.max_q_error.to_bits(),
                c4.max_q_error.to_bits(),
                "{name} max_q_error diverged across thread counts"
            );
            let n = g.num_nodes();
            for v in 0..n as u32 {
                assert_eq!(
                    c1.partition.color_of(v),
                    c4.partition.color_of(v),
                    "{name} node {v} colored differently at 1 vs 4 threads"
                );
            }
        }
    }
}
