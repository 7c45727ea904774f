//! E-TAB1-bot: runtime to reach a target LP relative error (Table 1, bottom).
//!
//! For each LP dataset: the time our coloring-based reduction needs to reach
//! relative error ∈ {3.0, 2.0, 1.5}, the time the early-stopped
//! interior-point baseline needs, and the exact solve time.

use qsc_bench::{render_table, timed};
use qsc_datasets::Scale;
use qsc_flow::reduce::relative_error;
use qsc_lp::interior_point::{self, InteriorPointConfig};
use qsc_lp::reduce::{reduce_with_rothko, LpColoringConfig, LpReductionVariant};
use qsc_lp::simplex;

const TARGETS: &[f64] = &[3.0, 2.0, 1.5];
const TIMEOUT_SECONDS: f64 = 120.0;

fn main() {
    let scale = Scale::Full;
    println!("Table 1 (bottom) — linear optimization: seconds to reach target relative error");
    println!("(x = did not reach the target within the sweep budget)");
    println!();
    let mut rows = Vec::new();
    for spec in qsc_datasets::lp_datasets() {
        let lp = qsc_datasets::load_lp(spec.name, scale).unwrap();
        let (exact, exact_secs) =
            timed(|| interior_point::solve_with(&lp, &InteriorPointConfig::default()).0);
        let mut row = vec![spec.name.to_string()];
        for &target in TARGETS {
            row.push(ours_time_to_target(&lp, exact.objective, target));
            row.push(early_stop_time_to_target(&lp, exact.objective, target));
        }
        row.push(format!("{exact_secs:.2}"));
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "ours 3.0",
                "prior 3.0",
                "ours 2.0",
                "prior 2.0",
                "ours 1.5",
                "prior 1.5",
                "exact"
            ],
            &rows
        )
    );
    println!("paper shape: the coloring reduction reaches each target orders of magnitude");
    println!("faster than early-stopping the interior-point solver.");
}

fn ours_time_to_target(lp: &qsc_lp::LpProblem, exact: f64, target: f64) -> String {
    let mut spent = 0.0;
    for budget in [5usize, 10, 20, 40, 80, 150] {
        let (value, secs) = timed(|| {
            let reduced = reduce_with_rothko(
                lp,
                &LpColoringConfig::with_max_colors(budget),
                LpReductionVariant::SqrtNormalized,
            );
            simplex::solve(&reduced.problem).objective
        });
        spent += secs;
        if relative_error(exact, value) <= target {
            return format!("{secs:.3}");
        }
        if spent > TIMEOUT_SECONDS {
            break;
        }
    }
    "x".to_string()
}

fn early_stop_time_to_target(lp: &qsc_lp::LpProblem, exact: f64, target: f64) -> String {
    let (solution, secs) = timed(|| {
        interior_point::solve_with(
            lp,
            &InteriorPointConfig {
                stop_at_relative_error: Some(target),
                ..Default::default()
            },
        )
        .0
    });
    if relative_error(exact, solution.objective) <= target * 1.05 {
        format!("{secs:.3}")
    } else {
        "x".to_string()
    }
}
