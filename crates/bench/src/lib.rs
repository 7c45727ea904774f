//! # qsc-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. 6). Each experiment is a binary in `src/bin/`:
//!
//! | paper            | binary                                   |
//! |------------------|------------------------------------------|
//! | Fig. 1           | `fig1_karate`                            |
//! | Fig. 2, Sec. 6.3 | `fig2_robustness`                        |
//! | Fig. 3           | `fig3_lp_example`                        |
//! | Fig. 7           | `fig7_tradeoff`                          |
//! | Fig. 8           | `fig8_colors`                            |
//! | Table 1          | `table1_centrality`, `table1_lp`         |
//! | Tables 2 and 3   | `table2_graphs`, `table3_lps`            |
//! | Tables 4 and 5   | `table4_compression`, `table5_lp_compression` |
//! | Table 6          | `table6_responsiveness`                  |
//! | Sec. 5.2         | `ablation_rothko`                        |
//!
//! The `bench_*` binaries measure the implementation itself (incremental
//! engine, sweeps, parallel shards, churn, lane kernels, storage tiers,
//! checkpoints, mapped checkpoints) and write the `BENCH_*.json` records
//! at the repository root. Each binary prints a self-contained report.
//!
//! This library crate holds the small amount of shared harness code: wall
//! clock timing, text-table rendering, and serializable result records.

#![forbid(unsafe_code)]

use std::time::Instant;

pub mod experiments;
pub mod report;

/// Time a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// A best-of-`reps` measurement that keeps every round's raw wall time —
/// the shared JSON reporting convention: bench bins record the best
/// *and* the per-round raw timings (plus `host_cpus`/`bar_enforced` via
/// [`host_cpus`]), so the perf trajectory is comparable across hosts and
/// noisy rounds are visible instead of silently folded away.
pub struct Measurement<T> {
    /// The last round's result (results are deterministic across rounds).
    pub value: T,
    /// Raw wall time of every round, in measurement order.
    pub rounds: Vec<f64>,
}

impl<T> Measurement<T> {
    /// Best (minimum) wall time across rounds.
    pub fn best(&self) -> f64 {
        self.rounds.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The rounds as a JSON array fragment, e.g. `[0.041200,0.042913]`.
    pub fn rounds_json(&self) -> String {
        let cells: Vec<String> = self.rounds.iter().map(|s| format!("{s:.6}")).collect();
        format!("[{}]", cells.join(","))
    }
}

/// Run `f` `reps` times (at least once), recording every round's wall time.
pub fn measure_rounds<T>(reps: usize, mut f: impl FnMut() -> T) -> Measurement<T> {
    let reps = reps.max(1);
    let mut rounds = Vec::with_capacity(reps);
    let (mut value, secs) = timed(&mut f);
    rounds.push(secs);
    for _ in 1..reps {
        let (v, secs) = timed(&mut f);
        rounds.push(secs);
        value = v;
    }
    Measurement { value, rounds }
}

/// The host's available parallelism (1 when undetectable) — recorded in
/// every bench JSON so wall-clock bars can be interpreted per host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable — the
/// allocation high-water every bench JSON records alongside wall time, so
/// memory regressions show up in the same trajectory as perf regressions.
/// This is a whole-process high-water mark (it never decreases), distinct
/// from the per-engine `IncrementalDegrees::resident_bytes` accounting
/// `bench_memory` compares across storage modes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            // Degrade to None on anything unexpected (missing value,
            // non-numeric junk, a unit other than kB) rather than
            // guessing: hosts without a Linux-shaped procfs simply
            // record `rss_available: false`.
            let mut fields = rest.split_whitespace();
            let kb: u64 = fields.next()?.parse().ok()?;
            match fields.next() {
                Some(unit) if !unit.eq_ignore_ascii_case("kB") => return None,
                _ => {}
            }
            return Some(kb.saturating_mul(1024));
        }
    }
    None
}

/// Whether [`peak_rss_bytes`] works on this host — recorded in bench
/// JSON so a `null`/absent RSS reads as "not measurable here" rather
/// than a silent measurement failure.
#[must_use]
pub fn rss_available() -> bool {
    peak_rss_bytes().is_some()
}

/// `peak_rss_bytes` as a JSON value fragment: the byte count, or `null`
/// on hosts without procfs (the portable fallback keeps the field present
/// so downstream tooling never branches on its absence).
pub fn peak_rss_json() -> String {
    match peak_rss_bytes() {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    }
}

/// Relative-error metric used by the paper for max-flow and LP tasks:
/// `max(v/v̂, v̂/v)`, ideal value 1.0.
pub fn relative_error(actual: f64, predicted: f64) -> f64 {
    qsc_flow::reduce::relative_error(actual, predicted)
}

/// Look up the value following a `--flag` argument (shared by the figure
/// binaries' tiny CLIs). A flag with no following value reads as absent.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One round of random node churn against a [`qsc_graph::GraphDelta`] —
/// the shared driver of the dynamic-maintenance bench and the node-churn
/// integration tests (one copy, so the batch-assembly ordering they both
/// exercise cannot drift). Inserts `inserts` nodes, each wired to `wire`
/// random live nodes with `weight(rng)`-weighted edges and colored like
/// its first neighbor; removes `removes` victims whose colors keep at
/// least two members; returns the assembled
/// [`qsc_core::rothko::NodeChurnBatch`] plus the renumbered compacted
/// graph.
pub fn random_node_churn(
    delta: &mut qsc_graph::GraphDelta,
    p: &qsc_core::Partition,
    rng: &mut rand::rngs::StdRng,
    inserts: usize,
    removes: usize,
    wire: usize,
    mut weight: impl FnMut(&mut rand::rngs::StdRng) -> f64,
) -> (qsc_core::rothko::NodeChurnBatch, qsc_graph::Graph) {
    use rand::Rng;
    let n0 = delta.num_nodes();
    let mut sizes: Vec<usize> = p.sizes();
    let mut inserted_colors = Vec::new();
    for _ in 0..inserts {
        let v = delta.insert_node();
        let mut color = None;
        for _ in 0..wire {
            for _ in 0..50 {
                let t = rng.random_range(0..n0) as qsc_graph::NodeId;
                if delta.is_live(t) && !delta.has_edge(v, t) {
                    let w = weight(rng);
                    delta.insert_edge(v, t, w).expect("fresh edge");
                    color.get_or_insert(p.color_of(t));
                    break;
                }
            }
        }
        let c = color.unwrap_or(0);
        inserted_colors.push(c);
        sizes[c as usize] += 1;
    }
    let mut removed = Vec::new();
    for _ in 0..removes {
        for _ in 0..100 {
            let v = rng.random_range(0..n0) as qsc_graph::NodeId;
            let c = p.color_of(v) as usize;
            if delta.is_live(v) && sizes[c] >= 2 {
                delta.remove_node(v).expect("live node");
                sizes[c] -= 1;
                removed.push(v);
                break;
            }
        }
    }
    let edge_events = delta.drain_events();
    delta.drain_node_events();
    let (compacted, remap) = delta.compact_renumber();
    (
        qsc_core::rothko::NodeChurnBatch {
            inserted_colors,
            edge_events,
            removed,
            remap,
        },
        compacted,
    )
}

/// Render a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "2.5".into()],
            ],
        );
        assert!(table.contains("longer-name"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn relative_error_wrapper() {
        assert_eq!(relative_error(2.0, 4.0), 2.0);
    }

    #[test]
    fn peak_rss_reads_a_plausible_high_water() {
        // On Linux procfs is present; elsewhere the portable fallback is
        // None and the JSON fragment is the literal `null`.
        match peak_rss_bytes() {
            Some(bytes) => {
                assert!(bytes >= 1 << 20, "peak RSS below 1 MiB: {bytes}");
                assert_eq!(peak_rss_json(), bytes.to_string());
            }
            None => assert_eq!(peak_rss_json(), "null"),
        }
    }

    #[test]
    fn measure_rounds_records_every_round() {
        let m = measure_rounds(3, || 7);
        assert_eq!(m.value, 7);
        assert_eq!(m.rounds.len(), 3);
        assert!(m.best() <= m.rounds[0]);
        assert!(m.rounds_json().starts_with('[') && m.rounds_json().ends_with(']'));
        assert!(host_cpus() >= 1);
    }
}
