//! The metric registry (mirrored by `BENCHMARK.json`, which a test
//! checks) and the per-run outcome every workload fills in.

use crate::stats::{percentile, summarize, Summary, MIN_TAIL};
use crate::trace::Tracer;

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, ratios of success).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change counts as a regression (`None` for per-layer).
    pub bound: Option<f64>,
    /// Workloads that exercise it (every workload reports every
    /// metric of its run's list).
    pub workloads: &'static [&'static str],
}

const PM: &str = "pipeline-mix";
const SL: &str = "steer-lanes";
const ST: &str = "serve-tcp";
const ALL: &[&str] = &[PM, SL, ST];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        workloads,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workloads,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by the untraced run of every workload.
/// What an operation and a unit of work are differs per workload (see
/// `perfbench/README.md`); each is measured on every workload, and none
/// can be 0 on a run that did any work.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("peak_rss_mb", "MiB", Lower, 0.2, ALL),
    e2e("work_per_s", "1/s", Higher, 0.25, ALL),
    e2e("op_p50_us", "us", Lower, 0.25, ALL),
    e2e("op_p90_us", "us", Lower, 0.25, ALL),
];

/// Per-layer metrics, printed by the traced run of every workload. A
/// workload that does not exercise a layer reports its metrics as 0;
/// `workloads` names the ones that do.
pub const PER_LAYER: &[MetricDef] = &[
    layer("error_rate", "ratio", Lower, ALL),
    layer("trace.overhead", "ratio", Lower, ALL),
    layer("trace.spans", "count", Lower, ALL),
    // sim
    layer("sim.step_ns", "ns", Lower, &[PM]),
    layer("sim.run_setup_us", "us", Lower, &[PM]),
    layer("sim.steer_share", "ratio", Lower, &[PM]),
    layer("sim.cycles", "count", Lower, &[PM]),
    layer("sim.retired", "count", Higher, &[PM]),
    layer("sim.ipc", "instr/cycle", Higher, &[PM]),
    layer("sim.stall_queue_full_per_kcycle", "1/kcycle", Lower, &[PM]),
    layer("sim.stall_queue_empty_per_kcycle", "1/kcycle", Lower, &[PM]),
    layer(
        "sim.stall_unit_unconfigured_per_kcycle",
        "1/kcycle",
        Lower,
        &[PM],
    ),
    layer("sim.starved_per_kcycle", "1/kcycle", Lower, &[PM]),
    layer("sim.rfu_issue_fraction", "ratio", Higher, &[PM]),
    layer("sim.squashed_per_kinstr", "1/kinstr", Lower, &[PM]),
    // core
    layer("core.choose_ns", "ns", Lower, &[PM]),
    layer("core.policy_tick_ns", "ns", Lower, &[PM]),
    layer("core.loader_apply_ns", "ns", Lower, &[PM]),
    layer(
        "core.selection_changes_per_kcycle",
        "1/kcycle",
        Lower,
        &[PM],
    ),
    layer("core.loads_started_per_kcycle", "1/kcycle", Lower, &[PM]),
    layer("core.load_deferred_ratio", "ratio", Lower, &[PM]),
    layer("core.retries_per_kcycle", "1/kcycle", Lower, &[PM]),
    // fabric
    layer("fabric.available_all_ns", "ns", Lower, &[PM]),
    layer("fabric.tick_ns", "ns", Lower, &[PM]),
    layer("fabric.tick_faulty_ns", "ns", Lower, &[PM]),
    layer("fabric.load_failures_per_kcycle", "1/kcycle", Lower, &[PM]),
    // sched
    layer("sched.request_arbitrate_ns", "ns", Lower, &[PM]),
    layer("sched.wakeup_tick_ns", "ns", Lower, &[PM]),
    layer("sched.collisions_per_kcycle", "1/kcycle", Lower, &[PM]),
    // sim.lanes
    layer("lanes.word_step_ns", "ns", Lower, &[SL]),
    layer("lanes.stimulus_build_s", "s", Lower, &[SL]),
    layer("steer.scalar_replay_ns", "ns", Lower, &[SL]),
    layer("steer.scalar_replay_mismatches", "count", Lower, &[SL]),
    layer("lanes.speedup_steer_only", "ratio", Higher, &[SL]),
    layer(
        "lanes.loads_started_per_klane_cycle",
        "1/klane-cycle",
        Lower,
        &[SL],
    ),
    layer("lanes.choice_mismatches", "count", Lower, &[SL]),
    // serve
    layer("serve.rpc_p50_us", "us", Lower, &[ST]),
    layer("serve.rpc_p95_us", "us", Lower, &[ST]),
    layer("serve.connect_p50_us", "us", Lower, &[ST]),
    layer("serve.write_frame_us", "us", Lower, &[ST]),
    layer("serve.read_frame_us", "us", Lower, &[ST]),
    layer("serve.decode_us", "us", Lower, &[ST]),
    layer("serve.submit_us", "us", Lower, &[ST]),
    layer("serve.tick_us", "us", Lower, &[ST]),
    layer("serve.cycles_per_tick", "cycles", Higher, &[ST]),
    layer("serve.telemetry_us", "us", Lower, &[ST]),
    layer("serve.telemetry_bytes_per_tenant", "bytes", Lower, &[ST]),
    layer("serve.status_polls_per_tenant", "count", Lower, &[ST]),
    layer("serve.poll_useful_ratio", "ratio", Higher, &[ST]),
    layer("serve.shed_ratio", "ratio", Lower, &[ST]),
    layer("serve.pool_reuse_ratio", "ratio", Higher, &[ST]),
    layer("serve.lane_fill", "ratio", Higher, &[ST]),
    layer("serve.queue_residency_p99_ticks", "ticks", Lower, &[ST]),
    layer("serve.admit_to_first_step_p99_ticks", "ticks", Lower, &[ST]),
    // bench.sweep
    layer("sweep.run_point_ms", "ms", Lower, &[PM]),
    layer("sweep.cas_store_us", "us", Lower, &[PM]),
    layer("sweep.key_us", "us", Lower, &[PM]),
    layer("sweep.cas_load_us", "us", Lower, &[PM]),
    layer("sweep.render_ms", "ms", Lower, &[PM]),
    layer("sweep.hit_ratio", "ratio", Higher, &[PM]),
    layer("sweep.parallel_efficiency", "ratio", Higher, &[PM]),
    layer("sweep.store_bytes", "bytes", Lower, &[PM]),
];

/// Look a metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Registry entry.
    pub def: &'static MetricDef,
    /// The value printed (the median, for sampled metrics).
    pub value: f64,
    /// Median and quartiles, when the value summarises samples.
    pub summary: Option<Summary>,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (program runs, passes, tenants, sweeps).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// First failures, described (the rest are only counted).
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Reported>,
    /// Spans of the traced run (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome recording spans into `tracer`.
    pub fn new(tracer: Tracer) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            tracer,
        }
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Attempt one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(what());
        }
    }

    /// Report an exact value.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Reported {
            def,
            value,
            summary: None,
        });
    }

    /// Report the median of `samples`, keeping the quartiles for the
    /// result record. Fails the run if there are no samples.
    pub fn put_median(&mut self, name: &str, samples: &[f64]) {
        match summarize(samples) {
            Some(s) => {
                self.put(name, s.median);
                self.metrics.last_mut().expect("just pushed").summary = Some(s);
            }
            None => {
                self.attempt(1);
                self.fail(format!("{name}: no samples"));
            }
        }
    }

    /// Report nearest-rank percentile `p` of `samples`. With `strict`,
    /// fewer than [`MIN_TAIL`] samples beyond it fail the run (the
    /// value is still printed); a smoke run passes `false`.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], p: f64, strict: bool) {
        match percentile(samples, p) {
            Some(v) => self.put(name, v),
            None => {
                let mut v = samples.to_vec();
                v.sort_by(f64::total_cmp);
                let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
                self.put(name, v.get(rank - 1).copied().unwrap_or(0.0));
                if strict {
                    self.check(false, || {
                        format!(
                            "{name}: {} samples leave fewer than {MIN_TAIL} beyond",
                            samples.len()
                        )
                    });
                }
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
