//! Shared experiment drivers used by the figure/table binaries.
//!
//! Each driver measures, for one dataset and a list of color budgets, the
//! end-to-end approximation time (coloring + reduction + solving), the exact
//! baseline time, and the paper's accuracy metric for that task (relative
//! error for max-flow, signed relative error for LP, Spearman's ρ for
//! centrality).
//!
//! All three drivers run the budget list through the **warm-started sweep
//! pipeline** (`qsc_core::sweep` and its task instantiations in `qsc-flow`
//! and `qsc-lp`): one monotone coloring refinement is checkpointed at every
//! budget, the reduced instance is patched per split instead of rebuilt,
//! and the reduced solver resumes from the previous budget's solution. The
//! per-budget results equal the per-budget cold path (fresh coloring +
//! rebuild + cold solve at each budget), as the `sweep_equivalence` suite
//! asserts; the reported `approx_seconds` is *cumulative* — the warm
//! pipeline's end-to-end cost of reaching that budget from the start of
//! the sweep — which is the honest cost model for a sweep.

use crate::report::TradeoffPoint;
use crate::timed;
use qsc_centrality::approx::{approximate_with_partition, CentralityApproxConfig};
use qsc_centrality::{brandes, spearman};
use qsc_core::rothko::RothkoConfig;
use qsc_core::sweep::ColoringSweep;
use qsc_datasets::Scale;
use qsc_flow::push_relabel;
use qsc_flow::reduce::relative_error;
use qsc_flow::sweep::sweep_max_flow;
use qsc_lp::interior_point::{self, InteriorPointConfig};
use qsc_lp::reduce::LpColoringConfig;
use qsc_lp::sweep::sweep_lp;
use qsc_lp::LpReductionVariant;

/// Default color budgets swept by the Fig. 7 / Fig. 8 experiments.
pub const DEFAULT_BUDGETS: &[usize] = &[5, 10, 20, 35, 60, 100, 150];

/// Objectives with absolute value at or below this are treated as zero by
/// [`lp_accuracy`]: the signed relative error is computed against
/// `max(|exact|, LP_ACCURACY_EPS)` so a (near-)zero exact optimum yields a
/// large-but-finite error instead of the old ratio metric's `∞`.
pub const LP_ACCURACY_EPS: f64 = 1e-9;

/// Signed relative error of a reduced LP objective against the exact one:
/// `(approx − exact) / max(|exact|, LP_ACCURACY_EPS)`. `0.0` is ideal;
/// positive means the reduction overestimates (the usual direction for the
/// paper's relaxations). Finite for every pair of finite objectives,
/// including zero and negative ones — unlike the previous
/// `max(a/b, b/a)` ratio, which returned `f64::INFINITY` whenever either
/// objective was ≈ 0.
pub fn lp_accuracy(exact: f64, approx: f64) -> f64 {
    (approx - exact) / exact.abs().max(LP_ACCURACY_EPS)
}

/// Parse a `--budgets` value: comma-separated ascending color budgets
/// (e.g. `"5,10,20,40"`). Returns `None` (with a message on stderr) when
/// the list is empty, unparsable, or not non-decreasing — the warm sweep
/// refines monotonically, so budgets must not go backwards.
pub fn parse_budgets(raw: &str) -> Option<Vec<usize>> {
    let mut budgets = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.parse::<usize>() {
            Ok(b) if b > 0 => budgets.push(b),
            _ => {
                eprintln!("--budgets: invalid budget {part:?} (expected a positive integer)");
                return None;
            }
        }
    }
    if budgets.is_empty() {
        eprintln!("--budgets: empty budget list");
        return None;
    }
    if budgets.windows(2).any(|w| w[1] < w[0]) {
        eprintln!("--budgets: budgets must be non-decreasing (the sweep only refines)");
        return None;
    }
    Some(budgets)
}

/// Budget list for a figure binary: the parsed `--budgets` flag when
/// present, [`DEFAULT_BUDGETS`] otherwise. Exits with status 2 on an
/// invalid list (message already printed by [`parse_budgets`]).
pub fn budgets_from_args(args: &[String]) -> Vec<usize> {
    match crate::arg_value(args, "--budgets") {
        Some(raw) => parse_budgets(&raw).unwrap_or_else(|| std::process::exit(2)),
        None => DEFAULT_BUDGETS.to_vec(),
    }
}

/// Max-flow speed/accuracy sweep for one dataset (warm-started pipeline).
pub fn maxflow_tradeoff(dataset: &str, scale: Scale, budgets: &[usize]) -> Vec<TradeoffPoint> {
    let network = qsc_datasets::load_flow(dataset, scale).expect("known flow dataset");
    let (exact, exact_seconds) = timed(|| push_relabel::max_flow(&network));
    sweep_max_flow(&network, budgets, 0.0)
        .into_iter()
        .map(|point| TradeoffPoint {
            task: "maxflow".into(),
            dataset: dataset.into(),
            colors: point.colors,
            approx_seconds: point.cumulative_seconds,
            exact_seconds,
            accuracy: relative_error(exact.value, point.value),
            max_q_error: point.max_q_error,
        })
        .collect()
}

/// LP speed/accuracy sweep for one dataset (warm-started pipeline).
pub fn lp_tradeoff(dataset: &str, scale: Scale, budgets: &[usize]) -> Vec<TradeoffPoint> {
    let lp = qsc_datasets::load_lp(dataset, scale).expect("known LP dataset");
    let (exact, exact_seconds) =
        timed(|| interior_point::solve_with(&lp, &InteriorPointConfig::default()).0);
    sweep_lp(
        &lp,
        budgets,
        &LpColoringConfig::with_max_colors(usize::MAX),
        LpReductionVariant::SqrtNormalized,
    )
    .into_iter()
    .map(|point| TradeoffPoint {
        task: "lp".into(),
        dataset: dataset.into(),
        colors: point.rows + point.cols,
        approx_seconds: point.cumulative_seconds,
        exact_seconds,
        accuracy: lp_accuracy(exact.objective, point.objective),
        max_q_error: point.max_q_error,
    })
    .collect()
}

/// Centrality speed/accuracy sweep for one dataset. The coloring advances
/// through one warm sweep (each budget continues the previous refinement);
/// the stratified estimator then runs per checkpoint.
pub fn centrality_tradeoff(dataset: &str, scale: Scale, budgets: &[usize]) -> Vec<TradeoffPoint> {
    let graph = qsc_datasets::load_graph(dataset, scale).expect("known graph dataset");
    let (exact, exact_seconds) = timed(|| brandes::betweenness(&graph));
    let mut sweep = ColoringSweep::new(&graph, RothkoConfig::for_centrality(usize::MAX));
    // Cumulative pipeline time, like the flow/LP sweeps: coloring so far
    // plus every checkpoint's estimator — accuracy-metric evaluation
    // (spearman) stays outside the clock.
    let mut cumulative_seconds = 0.0f64;
    budgets
        .iter()
        .map(|&budget| {
            let (approx, seconds) = timed(|| {
                let checkpoint = sweep.advance_to(budget, |_, _| {});
                approximate_with_partition(
                    &graph,
                    sweep.partition().clone(),
                    checkpoint.max_q_error,
                    &CentralityApproxConfig::with_max_colors(budget),
                )
            });
            cumulative_seconds += seconds;
            TradeoffPoint {
                task: "centrality".into(),
                dataset: dataset.into(),
                colors: approx.partition.num_colors(),
                approx_seconds: cumulative_seconds,
                exact_seconds,
                accuracy: spearman(&exact, &approx.scores),
                max_q_error: approx.max_q_error,
            }
        })
        .collect()
}

/// Render a list of trade-off points as the text table printed by the
/// figure binaries.
pub fn tradeoff_table(points: &[TradeoffPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.dataset.clone(),
                p.colors.to_string(),
                format!("{:.4}", p.approx_seconds),
                format!("{:.4}", p.exact_seconds),
                format!(
                    "{:.2}%",
                    100.0 * p.approx_seconds / p.exact_seconds.max(1e-9)
                ),
                format!("{:.4}", p.accuracy),
                format!("{:.2}", p.max_q_error),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "dataset",
            "colors",
            "approx(s)",
            "exact(s)",
            "budget",
            "accuracy",
            "max q",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxflow_driver_produces_points() {
        let points = maxflow_tradeoff("tsukuba0", Scale::Small, &[5, 10]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.accuracy >= 1.0));
        assert!(points[1].colors >= points[0].colors);
        // Cumulative sweep timings are non-decreasing.
        assert!(points[1].approx_seconds >= points[0].approx_seconds);
    }

    #[test]
    fn centrality_driver_produces_points() {
        let points = centrality_tradeoff("deezer", Scale::Small, &[10, 40]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.accuracy <= 1.0 + 1e-9));
        assert!(points[1].accuracy >= points[0].accuracy - 0.2);
    }

    #[test]
    fn lp_driver_produces_points() {
        let points = lp_tradeoff("qap15", Scale::Small, &[8, 30]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.accuracy.is_finite()));
    }

    #[test]
    fn lp_accuracy_is_finite_near_zero() {
        // The old ratio metric returned ∞ for any of these.
        assert_eq!(lp_accuracy(0.0, 0.0), 0.0);
        assert!(lp_accuracy(0.0, 1.0).is_finite());
        assert!(lp_accuracy(1.0, 0.0).is_finite());
        assert!(lp_accuracy(-2.0, -1.0).is_finite());
        // Signed: overestimates are positive, underestimates negative.
        assert!(lp_accuracy(10.0, 11.0) > 0.0);
        assert!(lp_accuracy(10.0, 9.0) < 0.0);
        assert!((lp_accuracy(10.0, 11.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn budgets_parser_accepts_and_rejects() {
        assert_eq!(parse_budgets("5,10,20"), Some(vec![5, 10, 20]));
        assert_eq!(parse_budgets(" 8 , 8 ,12 "), Some(vec![8, 8, 12]));
        assert_eq!(parse_budgets("20,10"), None, "descending");
        assert_eq!(parse_budgets(""), None, "empty");
        assert_eq!(parse_budgets("5,x"), None, "junk");
        assert_eq!(parse_budgets("0"), None, "zero budget");
    }

    #[test]
    fn table_renders_all_points() {
        let points = maxflow_tradeoff("venus0", Scale::Small, &[6]);
        let table = tradeoff_table(&points);
        assert!(table.contains("venus0"));
        assert!(table.lines().count() >= 3);
    }
}
