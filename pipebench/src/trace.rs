//! Spans around calls into the library, and the arithmetic that turns
//! them into per-layer self times.
//!
//! A span records a layer name, its start and end (nanoseconds since the
//! tracer was created) and the span that was open when it started. Spans
//! live in memory and are reduced once the run ends. When tracing is off,
//! [`span`] calls its closure and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn span recording on or off. Spans already recorded are kept.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Run `f` inside a span named `name` (recorded only while tracing is on).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        let id = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end_ns = t.origin.elapsed().as_nanos() as u64;
            t.spans[id].end_ns = end_ns;
            t.open.pop();
        });
    }
    out
}

/// Take every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent may not overlap
/// in a single-threaded trace, but the union is taken anyway so a
/// malformed trace cannot produce a negative self time.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Self seconds summed per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The round ledger: the traced time of every span named `root`, split
/// into the self time of the layer calls beneath it and the root's own
/// self time (work the harness does between layer calls).
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    pub total_s: f64,
    pub layers_s: f64,
    pub harness_s: f64,
}

impl Ledger {
    /// `|total - (layers + harness)| / total`: zero when every nanosecond
    /// of the rounds is attributed to exactly one span.
    pub fn gap_frac(&self) -> f64 {
        if self.total_s == 0.0 {
            return 0.0;
        }
        (self.total_s - self.layers_s - self.harness_s).abs() / self.total_s
    }
}

/// Build the ledger of all spans named `root`.
pub fn ledger(spans: &[Span], root: &str) -> Ledger {
    let own = self_times_ns(spans);
    // Which root (if any) each span descends from; parents precede
    // children in recording order, so one forward pass suffices.
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut total = 0u64;
    let mut layers = 0u64;
    let mut harness = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            root_of[i] = Some(i);
            total += s.duration_ns();
            harness += own[i];
        } else if let Some(r) = s.parent.and_then(|p| root_of[p]) {
            root_of[i] = Some(r);
            layers += own[i];
        }
    }
    Ledger {
        total_s: total as f64 * 1e-9,
        layers_s: layers as f64 * 1e-9,
        harness_s: harness as f64 * 1e-9,
    }
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Whether `n` samples support the `p`-th percentile: at least ten
/// samples must lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1–16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(100, 90.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(19, 50.0));
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has a grandchild [12,20) that only the child's self time loses.
        let spans = vec![
            sp("round", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 12, 20, Some(1)),
            sp("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 8, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp("round", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("a", 30, 50, Some(0)),
            sp("a", 90, 120, Some(0)),
        ];
        // Covered: [10,50) and [90,100) = 50ns.
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn ledger_sums_layers_and_harness_to_the_round_total() {
        let spans = vec![
            sp("setup", 0, 50, None),
            sp("graph.ingest", 0, 40, Some(0)),
            sp("round", 100, 200, None),
            sp("graph.compact", 110, 150, Some(2)),
            sp("core.maintain", 150, 190, Some(2)),
            sp("reduced.apply", 160, 170, Some(4)),
            sp("round", 300, 350, None),
            sp("flow.solve", 300, 340, Some(6)),
        ];
        let l = ledger(&spans, "round");
        assert!((l.total_s - 150e-9).abs() < 1e-15);
        assert!((l.layers_s - 120e-9).abs() < 1e-15);
        assert!((l.harness_s - 30e-9).abs() < 1e-15);
        assert!(l.gap_frac() < 1e-9);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["core.maintain"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_through_the_recorder() {
        set_enabled(true);
        span("round", || {
            span("graph.mutate", || std::hint::black_box(1 + 1));
            span("core.maintain", || {
                span("reduced.apply", || std::hint::black_box(2 + 2))
            });
        });
        set_enabled(false);
        span("untraced", || ());
        let spans = take_spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["round", "graph.mutate", "core.maintain", "reduced.apply"]
        );
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[1].parent, Some(0));
        assert!(ledger(&spans, "round").gap_frac() < 1e-9);
    }

    #[test]
    fn metric_name_and_unit_charsets() {
        assert!(valid_metric_name("round_p50_ms"));
        assert!(valid_metric_name("persist.wal_bytes_per_event"));
        assert!(valid_metric_name("9lives"));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/ed"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(valid_metric_name(&"x".repeat(64)));
        assert!(valid_unit("ms") && valid_unit("events/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("has space"));
        assert!(!valid_unit(&"u".repeat(17)));
    }
}
