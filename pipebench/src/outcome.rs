//! What a measuring process records, and the helpers every workload loop
//! uses to time rounds and stalls.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::trace::{self, span};

/// What a workload process is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The generated input file.
    pub input: PathBuf,
    /// A scratch directory the workload may write (its store lives here).
    pub work: PathBuf,
    /// The q-error target derived from the input (0 when unused).
    pub q: f64,
}

impl Ctx {
    /// Whether round `i` runs traced: in a traced run every other round
    /// runs with tracing off, so the same run also measures the tracing
    /// overhead.
    pub fn traced_round(&self, i: usize) -> bool {
        self.trace && i.is_multiple_of(2)
    }
}

/// Everything one measuring process reports.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Latencies of counted rounds run with tracing off.
    pub round_ms: Vec<f64>,
    /// Latencies of counted rounds run with tracing on.
    pub traced_round_ms: Vec<f64>,
    /// Time of counted rounds plus stalls (checkpoints, recoveries,
    /// sweep set-ups) inside the measured loop.
    pub busy_s: f64,
    /// Events absorbed by counted rounds.
    pub events: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Further metrics by name (see the metric tables in `main.rs`).
    pub values: BTreeMap<&'static str, f64>,
    /// Calibration kernel times, one after every counted round.
    pub cal_ms: Vec<f64>,
}

impl Outcome {
    /// Count one attempted operation; an error counts as failed.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one output check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.op(what, result);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Whether the measured loop has run long enough: `seconds` of counted
    /// rounds and stalls (untimed output checks do not count), and at
    /// least `min_rounds` counted rounds.
    pub fn measured(&self, seconds: f64, min_rounds: usize) -> bool {
        self.busy_s >= seconds && self.round_ms.len() + self.traced_round_ms.len() >= min_rounds
    }

    /// How much faster than the reference the host ran this process:
    /// `CAL_REFERENCE_MS` over the median calibration time. Takes more
    /// calibration samples first when the run produced too few.
    pub fn host_factor(&mut self) -> f64 {
        while self.cal_ms.len() < MIN_CAL_SAMPLES {
            self.cal_ms.push(calibrate());
        }
        CAL_REFERENCE_MS / trace::median(&self.cal_ms)
    }

    /// Record a counted round: its latency and its events, then time the
    /// calibration kernel (off the clock).
    pub fn count_round(&mut self, traced: bool, ms: f64, events: usize) {
        if traced {
            self.traced_round_ms.push(ms);
        } else {
            self.round_ms.push(ms);
        }
        self.busy_s += ms * 1e-3;
        self.events += events as f64;
        if self.busy_s >= self.cal_ms.len() as f64 * CAL_EVERY_S {
            self.cal_ms.push(calibrate());
        }
    }
}

/// `Ok(())` when `ok`, else the error `err` describes.
pub fn ensure(ok: bool, err: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(err())
    }
}

/// Run one round inside a `round` span (when `traced`), returning its
/// result and latency in milliseconds.
pub fn timed_round<T>(traced: bool, f: impl FnOnce() -> T) -> (T, f64) {
    trace::set_enabled(traced);
    let start = Instant::now();
    let out = span("round", f);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    trace::set_enabled(false);
    (out, ms)
}

/// Run a stall (work between rounds the loop waits for) inside a span
/// named `name` when the run is traced; its time counts as busy time.
pub fn timed_stall<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    trace::set_enabled(ctx.trace);
    let start = Instant::now();
    let r = span(name, f);
    let secs = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    out.busy_s += secs;
    (r, secs)
}

/// Set-up, timed and traced as one `setup` span.
pub fn timed_setup<T>(ctx: &Ctx, f: impl FnOnce() -> T) -> (T, f64) {
    trace::set_enabled(ctx.trace);
    let start = Instant::now();
    let r = span("setup", f);
    let secs = start.elapsed().as_secs_f64();
    trace::set_enabled(false);
    (r, secs)
}

/// Rounds whose outputs are checked (untimed, not counted as latency
/// samples): the first round, then rounds 50, 100, 200, 400, ….
pub fn is_check_round(i: usize) -> bool {
    i == 1 || (i >= 50 && i.is_multiple_of(50) && (i / 50).is_power_of_two())
}

/// What the calibration kernel takes, in milliseconds, on the reference
/// host state. End-to-end times are reported at this host speed.
pub const CAL_REFERENCE_MS: f64 = 1.0;
const MIN_CAL_SAMPLES: usize = 21;
/// Busy seconds between calibration samples in a measured loop.
const CAL_EVERY_S: f64 = 0.05;
const CAL_TABLE: usize = 1 << 19;

/// Time a fixed kernel: 200k dependent random read-modify-writes over a
/// 4 MiB table, larger than a core's L2. Its time tracks how fast the
/// shared host runs this process at the moment (0.8–1.35 ms within minutes
/// on a 2-vCPU VM), so rounds can be reported at one reference speed.
pub fn calibrate() -> f64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![0; CAL_TABLE]);
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let mut pass = || {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut table[(x as usize) & (CAL_TABLE - 1)];
                *slot = slot.wrapping_add(i ^ x);
            }
            std::hint::black_box(&*table);
            start.elapsed().as_secs_f64() * 1e3
        };
        // The first pass reloads whatever the program evicted; only the
        // second is timed, so the reading does not depend on the
        // program's own cache footprint.
        pass();
        pass()
    })
}
