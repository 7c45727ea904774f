//! End-to-end pipeline benchmark with a per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <stream-edges|stream-nodes|restart|sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The invoked process generates the workload's input from the seed and
//! writes it to a file under `.pipebench-work/`, then runs the pipeline in
//! fresh child processes of this same binary: with `--trace 0`, a few
//! set-up-only children (for the median set-up time) and one measuring
//! child; with `--trace 1`, one traced measuring child. So no process
//! whose peak RSS is reported ever held the generator's memory, and no
//! measurement inherits another's allocations. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). Any failed operation or output check makes the exit code 1.

mod graphs;
mod inputs;
mod outcome;
mod pipeline;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use outcome::{Ctx, Outcome};

const WORKLOADS: [&str; 4] = ["stream-edges", "stream-nodes", "restart", "sweep"];
/// Runs that are not benchmark workloads: `rebuild` is one set-up at the
/// 1M-node / m=10 / 2048-color shape of the older restart measurements.
const EXTRA_WORKLOADS: [&str; 1] = ["rebuild"];

/// Set-up-only processes run besides the measuring one; `setup_s` is the
/// median over all of them.
const SETUP_REPEATS: usize = 2;

/// The end-to-end metrics: name and unit. Every workload reports all of
/// them with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Self time of the spans of this name, summed, in seconds.
    SelfTime(&'static str),
    /// Mean duration of the spans of this name, in milliseconds.
    MeanMs(&'static str),
    /// A value the workload recorded (zero when it has none).
    Value,
}

use Source::{MeanMs, SelfTime, Value};

/// The per-layer metrics a traced run reports: name, unit, source.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("graph.ingest_s", "s", SelfTime("graph.ingest")),
    ("graph.mutate_s", "s", SelfTime("graph.mutate")),
    ("graph.compact_s", "s", SelfTime("graph.compact")),
    ("graph.compact_useful_frac", "fraction", Value),
    ("core.refine_s", "s", SelfTime("core.refine")),
    ("core.apply_s", "s", SelfTime("core.apply")),
    ("core.maintain_s", "s", SelfTime("core.maintain")),
    ("core.splits", "count", Value),
    ("core.merges", "count", Value),
    ("core.resident_mb", "MiB", Value),
    ("core.sweep_s", "s", SelfTime("core.sweep")),
    ("core.threads", "threads", Value),
    ("core.storage_sparse", "flag", Value),
    ("reduced.apply_s", "s", SelfTime("reduced.apply")),
    ("reduced.emit_s", "s", SelfTime("reduced.emit")),
    ("reduced.arcs", "count", Value),
    ("flow.solve_s", "s", SelfTime("flow.solve")),
    ("flow.iterations", "count", Value),
    ("lp.ingest_s", "s", SelfTime("lp.ingest")),
    ("lp.apply_s", "s", SelfTime("lp.apply")),
    ("lp.emit_s", "s", SelfTime("lp.emit")),
    ("lp.solve_s", "s", SelfTime("lp.solve")),
    ("lp.pivots", "count", Value),
    ("lp.warm_used_frac", "fraction", Value),
    ("persist.wal_append_s", "s", SelfTime("persist.wal_append")),
    ("persist.wal_bytes_per_event", "B/event", Value),
    ("persist.wal_sync_s", "s", SelfTime("persist.wal_sync")),
    ("persist.checkpoint_s", "s", SelfTime("persist.checkpoint")),
    ("persist.checkpoint_bytes", "B", Value),
    ("persist.checkpoint_mapped_bytes", "B", Value),
    ("persist.recover_s", "s", SelfTime("persist.recover")),
    ("persist.replayed", "records", Value),
    (
        "persist.mapped_open_ms",
        "ms",
        MeanMs("persist.mapped_open"),
    ),
    (
        "persist.mapped_coloring_ms",
        "ms",
        MeanMs("persist.mapped_coloring"),
    ),
    ("checkpoint_s", "s", Value),
    ("checkpoint_mapped_s", "s", Value),
    ("recover_s", "s", Value),
    ("recover_mapped_s", "s", Value),
    ("first_query_ms", "ms", Value),
    ("sweep_s", "s", Value),
    ("disk_bytes_per_edge", "B/edge", Value),
    ("colors", "colors", Value),
    ("answer_rel_error", "ratio", Value),
    ("ops_failed_frac", "fraction", Value),
    ("bench.harness_s", "s", Value),
    ("bench.round_total_s", "s", Value),
    ("bench.ledger_gap_frac", "fraction", Value),
    ("bench.trace_overhead_frac", "fraction", Value),
    ("bench.traced_rounds", "count", Value),
    ("bench.host_factor", "ratio", Value),
    ("bench.seed", "seed", Value),
];

/// Largest share of the traced round time the ledger may leave
/// unattributed before the run counts as failed.
const LEDGER_TOLERANCE: f64 = 0.03;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: `setup` or `measure`.
    role: Option<String>,
    input: Option<PathBuf>,
    work: Option<PathBuf>,
    q: f64,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let parse = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) && !EXTRA_WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = parse("seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds,
        trace,
        role: map.get("role").map(|s| s.to_string()),
        input: map.get("input").map(PathBuf::from),
        work: map.get("work").map(PathBuf::from),
        q: map.get("q").map_or(Ok(0.0), |_| parse("q"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.role.as_deref() {
        Some(role) => child(&args, role),
        None => match orchestrate(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("pipebench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Generate the input, run the children, print the result.
fn orchestrate(args: &Args) -> Result<ExitCode, String> {
    let work =
        PathBuf::from(".pipebench-work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {work:?}: {e}"))?;
    let result = run_children(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Ok(mut dir) = std::fs::read_dir(".pipebench-work") {
        if dir.next().is_none() {
            let _ = std::fs::remove_dir(".pipebench-work");
        }
    }
    result
}

fn run_children(args: &Args, work: &Path) -> Result<ExitCode, String> {
    let (input, q) = generate(args, work)?;
    let mut setup_samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    if !args.trace && args.workload != "rebuild" {
        for i in 0..SETUP_REPEATS {
            let report = spawn(args, "setup", &input, &work.join(format!("setup-{i}")), q)?;
            setup_samples.push(report.get("setup_s")?);
            attempted += report.attempted;
            failed += report.failed;
            failures.extend(report.failures);
        }
    }
    let report = spawn(args, "measure", &input, &work.join("measure"), q)?;
    setup_samples.push(report.get("setup_s")?);
    attempted += report.attempted;
    failed += report.failed;
    failures.extend(report.failures.iter().cloned());
    for line in &failures {
        eprintln!("pipebench: failed: {line}");
    }
    println!(
        "# workload={} seed={} seconds={} trace={} threads={} storage={} q={q} host_factor={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.values.get("core.threads").copied().unwrap_or(1.0),
        match report.values.get("core.storage_sparse") {
            Some(&1.0) => "sparse",
            Some(_) => "dense",
            None => "n/a",
        },
        report
            .values
            .get("bench.host_factor")
            .copied()
            .unwrap_or(1.0),
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit, _) in PER_LAYER {
            metrics.push((name, report.values.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for &(name, unit) in END_TO_END {
            let value = if name == "setup_s" {
                trace::median(&setup_samples)
            } else {
                report.get(name)?
            };
            metrics.push((name, value, unit));
        }
    }
    let mut cells = Vec::new();
    for (name, value, unit) in metrics {
        assert!(trace::valid_metric_name(name) && trace::valid_unit(unit));
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("pipebench: failed: metric {name} is not finite");
            failed += 1;
            0.0
        };
        cells.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        cells.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the workload's input file and derive its q-error target.
fn generate(args: &Args, work: &Path) -> Result<(PathBuf, f64), String> {
    let spec = match args.workload.as_str() {
        "stream-edges" => &graphs::STREAM_EDGES,
        "stream-nodes" => &graphs::STREAM_NODES,
        "restart" => &graphs::RESTART,
        "rebuild" => &graphs::REBUILD,
        _ => {
            let path = work.join("grid.dimacs");
            let (w, h) = sweep::GRID;
            inputs::write_grid_network(&path, w, h, args.seed)?;
            return Ok((path, 0.0));
        }
    };
    let path = work.join("graph.edges");
    let g = inputs::write_ba_edge_list(&path, spec.nodes, spec.ba_m, args.seed)?;
    let q = spec
        .probe_colors
        .map_or(0.0, |c| inputs::probe_error(&g, c));
    Ok((path, q))
}

/// What a child process reported.
struct Report {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    fn get(&self, name: &str) -> Result<f64, String> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| format!("child reported no {name}"))
    }
}

fn spawn(args: &Args, role: &str, input: &Path, work: &Path, q: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--role", role])
        .arg("--input")
        .arg(input)
        .arg("--work")
        .arg(work)
        .args(["--q", &format!("{q:?}")])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {role} process: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut report = Report {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "value" => {
                let (name, v) = rest.split_once(' ').ok_or("malformed value line")?;
                let v: f64 = v.parse().map_err(|_| format!("bad value {v:?}"))?;
                report.values.insert(name.to_string(), v);
            }
            "attempted" => report.attempted = rest.parse().map_err(|_| "bad count")?,
            "failed" => report.failed = rest.parse().map_err(|_| "bad count")?,
            "failure" => report.failures.push(rest.to_string()),
            _ => {}
        }
    }
    if !output.status.success() {
        return Err(format!("{role} process exited with {}", output.status));
    }
    Ok(report)
}

/// A child process: run the workload and print what it measured, one
/// `value <name> <number>` line per metric.
fn child(args: &Args, role: &str) -> ExitCode {
    let (Some(input), Some(work)) = (args.input.clone(), args.work.clone()) else {
        eprintln!("pipebench: child needs --input and --work");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        // A set-up-only process measures no loop.
        seconds: if role == "setup" || args.workload == "rebuild" {
            0.0
        } else {
            args.seconds
        },
        trace: args.trace,
        input,
        work,
        q: args.q,
    };
    let mut out = if role == "setup" || args.workload == "rebuild" {
        let mut out = Outcome::default();
        match args.workload.as_str() {
            "sweep" => drop(sweep::setup(&ctx, &mut out)),
            w => graphs::setup_only(w, &ctx, &mut out),
        }
        out
    } else {
        match args.workload.as_str() {
            "stream-edges" => graphs::stream_edges(&ctx),
            "stream-nodes" => graphs::stream_nodes(&ctx),
            "restart" => graphs::restart(&ctx),
            _ => sweep::sweep(&ctx),
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let values = summarize(&ctx, &mut out);
    for (name, v) in &values {
        println!("value {name} {v:?}");
    }
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    for f in &out.failures {
        println!("failure {f}");
    }
    ExitCode::SUCCESS
}

/// Derive the reported metrics from the raw outcome and, in a traced run,
/// the recorded spans. Failed consistency checks of the measurement itself
/// count as failed operations.
fn summarize(ctx: &Ctx, out: &mut Outcome) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = out
        .values
        .iter()
        .map(|(k, &x)| (k.to_string(), x))
        .collect();
    // End-to-end times are scaled to the reference host speed; the factor
    // is reported with the per-layer metrics.
    let speed = out.host_factor();
    v.insert("bench.host_factor".into(), speed);
    v.insert("setup_s".into(), out.setup_s * speed);
    let rounds = out.round_ms.len();
    if rounds > 0 {
        v.insert("round_p50_ms".into(), trace::median(&out.round_ms) * speed);
        v.insert(
            "round_p90_ms".into(),
            trace::percentile(&out.round_ms, 90.0) * speed,
        );
    }
    // A p90 needs ten samples beyond it (traced and set-up-only processes
    // report no latencies).
    if !ctx.trace && ctx.seconds > 0.0 && !trace::supports_percentile(rounds, 90.0) {
        out.check(
            "p90 sample",
            Err(format!("{rounds} rounds cannot support a p90")),
        );
    }
    if out.busy_s > 0.0 {
        v.insert("events_per_s".into(), out.events / (out.busy_s * speed));
    }
    if let Some(kib) = peak_rss_kib() {
        v.insert("peak_rss_mb".into(), kib as f64 / 1024.0);
    }
    v.insert("bench.seed".into(), ctx.seed as f64);
    let rows = v.get("bench.compact_rows").copied().unwrap_or(0.0);
    if rows > 0.0 {
        let touched = v.get("bench.compact_touched_rows").copied().unwrap_or(0.0);
        v.insert("graph.compact_useful_frac".into(), touched / rows);
    }
    if ctx.trace {
        let spans = trace::take_spans();
        let self_s = trace::self_seconds_by_name(&spans);
        for &(name, _, source) in PER_LAYER {
            match source {
                SelfTime(span) => {
                    v.insert(name.into(), self_s.get(span).copied().unwrap_or(0.0));
                }
                MeanMs(span) => {
                    let ms: Vec<f64> = spans
                        .iter()
                        .filter(|s| s.name == span)
                        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
                        .collect();
                    if !ms.is_empty() {
                        v.insert(name.into(), ms.iter().sum::<f64>() / ms.len() as f64);
                    }
                }
                Value => {}
            }
        }
        let ledger = trace::ledger(&spans, "round");
        v.insert("bench.harness_s".into(), ledger.harness_s);
        v.insert("bench.round_total_s".into(), ledger.total_s);
        v.insert("bench.ledger_gap_frac".into(), ledger.gap_frac());
        if ledger.gap_frac() > LEDGER_TOLERANCE {
            out.check(
                "round ledger",
                Err(format!("{:.1}% unattributed", 100.0 * ledger.gap_frac())),
            );
        }
        v.insert(
            "bench.traced_rounds".into(),
            out.traced_round_ms.len() as f64,
        );
        if !out.traced_round_ms.is_empty() && rounds > 0 {
            let overhead = trace::median(&out.traced_round_ms) / trace::median(&out.round_ms) - 1.0;
            v.insert("bench.trace_overhead_frac".into(), overhead);
        }
    }
    v.insert(
        "ops_failed_frac".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    v
}

/// The process's peak resident set size (`VmHWM`), in KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n, u))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        for (name, unit) in names {
            assert!(trace::valid_metric_name(name), "bad metric name {name}");
            assert!(trace::valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        // The repository root holds BENCHMARK.json; the metric tables
        // here are what the benchmark prints, so the two must agree.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for &(name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing"
            );
        }
        for &(name, unit, _) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}
