//! The repository benchmark: three workloads that each stress different
//! layers of the rsp workspace, an untraced run that prints the
//! end-to-end metrics, and a traced run that prints per-layer metrics
//! timed from outside each layer's public functions. See
//! `perfbench/README.md` for the workloads and the metric map.

mod lanes;
pub mod metrics;
mod pipeline;
pub mod record;
mod serve;
pub mod stats;
mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::Outcome;
use trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["pipeline-mix", "steer-lanes", "serve-tcp"];

/// An untraced run repeats its set-up at least this many times, and
/// until the repeats have taken about [`SETUP_MIN_SECONDS`]; `setup_s`
/// is the median. The repeats are spread over the measured window (see
/// [`Resetup`]), so a burst of load from elsewhere on the host or one
/// slow first touch of the page cache does not decide it.
pub const SETUP_MIN_REPEATS: usize = 7;

/// Set-up time an untraced full run spends on repeats, about.
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// Upper limit on set-up repeats.
pub const SETUP_MAX_REPEATS: usize = 64;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for stores, traces and result records.
    pub work_dir: PathBuf,
}

impl Opts {
    /// The measured window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Run one workload. `Err` only for a set-up failure that leaves
/// nothing to measure; correctness failures are counted in the outcome.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let tracer = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut out = Outcome::new(tracer);
    match name {
        "pipeline-mix" => pipeline::run(opts, &mut out)?,
        "steer-lanes" => lanes::run(opts, &mut out)?,
        "serve-tcp" => serve::run(opts, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if opts.trace {
        out.put("error_rate", out.error_rate());
        out.put("trace.spans", out.tracer.spans().len() as f64);
        // Every traced run prints every per-layer metric: a layer this
        // workload does not exercise did no work here.
        for d in metrics::PER_LAYER {
            if !d.workloads.contains(&name) {
                out.put(d.name, 0.0);
            }
        }
    } else if let Some(mb) = stats::peak_rss_mb() {
        out.put("peak_rss_mb", mb);
    }
    Ok(out)
}

/// Share of a CPU-bound workload's timed pieces of work that its
/// end-to-end metrics come from: the fastest tenth. The measuring host
/// is shared, and load from outside slows CPU-bound code by up to 2×
/// for stretches from a fraction of a second to minutes; it never
/// speeds work up. The fastest tenth of a run's short pieces is the
/// closest the run gets to the program's own speed, where a median
/// would measure the host's load as much.
pub const FAST_SHARE: f64 = 0.1;

/// The fastest [`FAST_SHARE`] of `passes` by `rate`, and at least
/// `at_least` of them (all, if there are fewer).
pub(crate) fn fastest<T>(mut passes: Vec<T>, at_least: usize, rate: impl Fn(&T) -> f64) -> Vec<T> {
    passes.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    let keep = ((passes.len() as f64 * FAST_SHARE).ceil() as usize).max(at_least);
    passes.truncate(keep);
    passes
}

/// Passes to keep at least when each is one operation: enough for
/// [`stats::MIN_TAIL`] samples beyond `op_p90_us`.
pub(crate) const OPS_AT_LEAST: usize = 10 * stats::MIN_TAIL;

/// Report `op_p50_us` and `op_p90_us` from per-operation latencies.
pub(crate) fn put_op_latencies(opts: &Opts, out: &mut Outcome, ops_us: &[f64]) {
    out.put_median("op_p50_us", ops_us);
    out.put_tail("op_p90_us", ops_us, 0.90, !opts.smoke);
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `setup` once and return its result with the [`Resetup`] that
/// times the further repeats `setup_s` is the median of.
pub(crate) fn timed_setup<'a, T: 'a>(
    opts: &Opts,
    mut setup: impl FnMut() -> Result<T, String> + 'a,
) -> Result<(T, Resetup<'a>), String> {
    let t = Instant::now();
    let first = setup()?;
    let first_s = t.elapsed().as_secs_f64();
    let target = if opts.smoke {
        SETUP_MIN_REPEATS
    } else {
        ((SETUP_MIN_SECONDS / first_s).ceil() as usize).clamp(SETUP_MIN_REPEATS, SETUP_MAX_REPEATS)
    };
    // The traced run, which does not report `setup_s`, sets up once.
    let again: Option<Box<dyn FnMut() -> Result<f64, String> + 'a>> = if opts.trace {
        None
    } else {
        Some(Box::new(move || {
            let t = Instant::now();
            drop(setup()?);
            Ok(t.elapsed().as_secs_f64())
        }))
    };
    Ok((
        first,
        Resetup {
            again,
            times: vec![first_s],
            target,
            every: opts.window().div_f64(target as f64),
            last: Instant::now(),
            error: None,
        },
    ))
}

/// The set-up repeats of an untraced run after the first. A workload
/// that measures in passes calls [`Resetup::between`] after each pass,
/// which sets up again (outside the pass's timing) once every
/// window / repeats; [`Resetup::finish`] runs whatever repeats are
/// still missing and reports the median as `setup_s`. Each repeat's
/// result is dropped at once; the first one's is the one measured.
pub(crate) struct Resetup<'a> {
    again: Option<Box<dyn FnMut() -> Result<f64, String> + 'a>>,
    times: Vec<f64>,
    target: usize,
    every: Duration,
    last: Instant,
    error: Option<String>,
}

impl Resetup<'_> {
    /// Set up again if the interval has passed since the last repeat.
    pub(crate) fn between(&mut self) {
        if self.times.len() < self.target && self.last.elapsed() >= self.every {
            self.repeat();
            self.last = Instant::now();
        }
    }

    fn repeat(&mut self) {
        let Some(again) = self.again.as_mut() else {
            return;
        };
        match again() {
            Ok(s) => self.times.push(s),
            Err(e) => {
                self.error.get_or_insert(e);
                self.again = None;
            }
        }
    }

    /// Run the missing repeats and report `setup_s` (untraced runs).
    pub(crate) fn finish(mut self, out: &mut Outcome) {
        if self.again.is_none() && self.error.is_none() {
            return;
        }
        while self.times.len() < self.target && self.again.is_some() {
            self.repeat();
        }
        if let Some(e) = self.error {
            out.check(false, || format!("set-up repeat: {e}"));
        }
        out.put_median("setup_s", &self.times);
    }
}

/// The traced run's measurement: `measure` fills half the window
/// untraced, then half with the outcome's tracer. Comparing the two
/// gives `trace.overhead`.
pub(crate) fn split_traced<T>(
    opts: &Opts,
    out: &mut Outcome,
    mut measure: impl FnMut(Duration, &mut Tracer, &mut Outcome) -> T,
) -> (T, T) {
    let half = opts.window() / 2;
    let plain = measure(half, &mut Tracer::off(), out);
    let mut tracer = std::mem::replace(&mut out.tracer, Tracer::off());
    let traced = measure(half, &mut tracer, out);
    out.tracer = tracer;
    (plain, traced)
}

/// Nanoseconds per operation for a batch timed as a whole.
pub(crate) fn per_op_ns(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}
