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
//! Each binary prints a self-contained report. The implementation's own
//! performance is measured end to end by the `pipebench` package at the
//! repository root (see its README), not by this crate.
//!
//! This library crate holds the small amount of shared harness code: wall
//! clock timing, argument lookup, text-table rendering, serializable
//! result records, and the node-churn driver the integration tests share.

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

/// Look up the value following a `--flag` argument (shared by the figure
/// binaries' tiny CLIs). A flag with no following value reads as absent.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One round of random node churn against a [`qsc_graph::GraphDelta`] —
/// the shared driver of the node-churn integration tests (one copy, so the
/// batch-assembly ordering they all exercise cannot drift). Inserts
/// `inserts` nodes, each wired to `wire` random live nodes with
/// `weight(rng)`-weighted edges and colored like its first neighbor;
/// removes `removes` victims whose colors keep at least two members;
/// returns the assembled [`qsc_core::rothko::NodeChurnBatch`] plus the
/// renumbered compacted graph.
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
}
