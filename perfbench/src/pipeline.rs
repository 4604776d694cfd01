//! `pipeline-mix`: the full out-of-order scalar `Machine`, driven
//! through `BatchRunner`, over the four named synthetic mixes, phased
//! programs, the kernel suite, and phased programs under the faulty
//! fault environment. Telemetry stays off.
//!
//! Untraced: simulated cycles per host second (`work_per_s`) and the
//! host time of one program run (`op_p50_us`, `op_p90_us`), both from
//! the fastest tenth of each program's runs. Traced: `Machine::step`
//! and `BatchRunner::start` timed per program, then the steering,
//! availability and wake-up calls replayed on machine states captured
//! every few cycles, plus the simulated counts of one pass, and the
//! sweep layer (see `sweep.rs`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rsp_bench::throughput::faulty_params;
use rsp_core::{ConfigChoice, PaperSteering, SelectionUnit, SteeringPolicy};
use rsp_fabric::availability::{available_all, AvailabilityInputs};
use rsp_fabric::Fabric;
use rsp_isa::{DataMemory, Program, ReferenceInterpreter, TypeCounts, UnitType};
use rsp_sched::{arbitrate_into, WakeupArray};
use rsp_sim::processor::PolicyInstance;
use rsp_sim::{BatchRunner, FaultParams, SimConfig, SimReport};
use rsp_workloads::{kernels, PhasedSpec, SynthSpec, UnitMix};

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{
    fastest, mix_seed, per_op_ns, put_op_latencies, split_traced, timed_setup, Opts, Resetup,
};

/// Per-program cycle budget; every input halts far below it.
const BUDGET: u64 = 10_000_000;

/// Machine states captured per program for the replays.
const SNAPS_PER_PROGRAM: u64 = 512;

/// States cloned per replay chunk (keeps a chunk cache-resident).
const CHUNK: usize = 128;

/// The generated programs and their two configurations.
struct Inputs {
    clean_cfg: SimConfig,
    faulty_cfg: SimConfig,
    clean: Vec<Program>,
    faulty: Vec<Program>,
}

impl Inputs {
    /// Generate the programs for `seed`.
    fn generate(seed: u64, smoke: bool) -> Inputs {
        // Ten programs of each seeded kind: the seed changes the programs,
        // and with fewer the cycles/s of one seed differed from another's
        // by up to 20%.
        let per_mix = if smoke { 1 } else { 10 };
        let phased = if smoke { 1 } else { 10 };
        let iterations = if smoke { 1 } else { 4 };
        let phase_len = if smoke { 60 } else { 300 };
        let mut clean = Vec::new();
        for (m, (name, mix)) in UnitMix::named().into_iter().enumerate() {
            for k in 0..per_mix {
                let s = mix_seed(seed, (m * 16 + k) as u64);
                let mut spec = SynthSpec::new(format!("{name}-{k}"), mix, s);
                spec.iterations = iterations;
                clean.push(spec.generate());
            }
        }
        for k in 0..phased {
            clean.push(PhasedSpec::int_fp_mem(phase_len, 3, mix_seed(seed, 100 + k)).generate());
        }
        let suite = kernels::suite();
        let take = if smoke { 2 } else { suite.len() };
        clean.extend(suite.into_iter().take(take));
        let faulty = (0..phased)
            .map(|k| PhasedSpec::int_fp_mem(phase_len, 3, mix_seed(seed, 200 + k)).generate())
            .collect();
        let clean_cfg = SimConfig::default();
        let mut faulty_cfg = SimConfig::default();
        faulty_cfg.fabric.faults = FaultParams {
            seed: mix_seed(seed, 300),
            ..faulty_params()
        };
        Inputs {
            clean_cfg,
            faulty_cfg,
            clean,
            faulty,
        }
    }

    /// Every (configuration, program) pair, clean first.
    fn jobs(&self) -> impl Iterator<Item = (bool, &Program)> {
        self.clean
            .iter()
            .map(|p| (false, p))
            .chain(self.faulty.iter().map(|p| (true, p)))
    }
}

/// One reused runner per configuration, machines already built.
struct Runners {
    clean: BatchRunner,
    faulty: BatchRunner,
}

impl Runners {
    fn new(inputs: &Inputs) -> Result<Runners, String> {
        let mut clean = BatchRunner::new(inputs.clean_cfg.clone()).map_err(|e| e.to_string())?;
        let mut faulty = BatchRunner::new(inputs.faulty_cfg.clone()).map_err(|e| e.to_string())?;
        // The machine is built lazily on the first start: do it now.
        clean.start(&inputs.clean[0]).map_err(|e| e.to_string())?;
        faulty.start(&inputs.faulty[0]).map_err(|e| e.to_string())?;
        Ok(Runners { clean, faulty })
    }

    fn get(&mut self, faulty: bool) -> &mut BatchRunner {
        if faulty {
            &mut self.faulty
        } else {
            &mut self.clean
        }
    }
}

/// One pass over every program; returns the reports, the host time
/// spent inside the pass and each program run's host time in µs.
fn pass(
    runners: &mut Runners,
    inputs: &Inputs,
    tracer: &mut Tracer,
    group: u64,
) -> (Vec<SimReport>, Duration, Vec<f64>) {
    let mut reports = Vec::with_capacity(inputs.clean.len() + inputs.faulty.len());
    let mut runs_us = Vec::with_capacity(reports.capacity());
    let started = Instant::now();
    let pass_span = tracer.begin("sim.pass", group, SpanId::NONE);
    for (faulty, p) in inputs.jobs() {
        let run_started = Instant::now();
        let run_span = tracer.begin("sim.run", group, pass_span);
        let setup_span = tracer.begin("sim.run_setup", group, run_span);
        let m = runners
            .get(faulty)
            .start(p)
            .expect("generated programs validate");
        tracer.end(setup_span, 1);
        let steps_span = tracer.begin("sim.steps", group, run_span);
        while m.cycle() < BUDGET && m.step() {}
        let r = m.report();
        tracer.end(steps_span, r.cycles);
        tracer.end(run_span, r.cycles);
        runs_us.push(run_started.elapsed().as_secs_f64() * 1e6);
        reports.push(r);
    }
    let wall = started.elapsed();
    tracer.end(pass_span, reports.iter().map(|r| r.cycles).sum());
    (reports, wall, runs_us)
}

fn cycles_of(reports: &[SimReport]) -> u64 {
    reports.iter().map(|r| r.cycles).sum()
}

/// One timed pass: simulated cycles per host second and the host time
/// of each program run in it (µs).
struct Timed {
    rate: f64,
    runs_us: Vec<f64>,
}

/// Passes until `window` fills, with set-up repeats between them.
/// Every pass must reproduce `reference` exactly.
fn measure(
    runners: &mut Runners,
    inputs: &Inputs,
    reference: &[SimReport],
    resetup: &mut Resetup<'_>,
    window: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Timed> {
    let mut passes = Vec::new();
    let started = Instant::now();
    let mut group = 1;
    loop {
        let (reports, wall, runs_us) = pass(runners, inputs, tracer, group);
        group += 1;
        passes.push(Timed {
            rate: cycles_of(&reports) as f64 / wall.as_secs_f64(),
            runs_us,
        });
        for (i, (got, want)) in reports.iter().zip(reference).enumerate() {
            out.check(got == want, || {
                format!("program {i}: simulated counts differ between repetitions")
            });
        }
        resetup.between();
        if started.elapsed() >= window {
            break;
        }
    }
    passes
}

fn rates(passes: &[Timed]) -> Vec<f64> {
    passes.iter().map(|p| p.rate).collect()
}

/// Final architectural state of every program must equal the
/// reference interpreter's (checked outside any timed window).
fn check_arch_state(runners: &mut Runners, inputs: &Inputs, out: &mut Outcome) {
    for (faulty, p) in inputs.jobs() {
        let words = if faulty {
            inputs.faulty_cfg.data_mem_words
        } else {
            inputs.clean_cfg.data_mem_words
        };
        let mut reference = ReferenceInterpreter::new(DataMemory::new(words));
        reference.run(&p.instrs, BUDGET);
        let m = runners.get(faulty).start(p).expect("program validates");
        while m.cycle() < BUDGET && m.step() {}
        let r = m.report();
        let fregs = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ok = reference.halted()
            && r.halted
            && r.retired == reference.retired
            && m.regfile().iregs() == reference.state.iregs()
            && fregs(m.regfile().fregs()) == fregs(reference.state.fregs())
            && m.mem().cells() == reference.mem.cells();
        out.check(ok, || {
            format!("{}: final state differs from the reference", p.name)
        });
    }
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    // Set-up ends with a warm-up pass: it fills the caches and fixes
    // the reference counts every timed pass must reproduce.
    let ((inputs, mut runners, reference), mut resetup) = timed_setup(opts, || {
        let inputs = Inputs::generate(opts.seed, opts.smoke);
        let mut runners = Runners::new(&inputs)?;
        let (reference, _, _) = pass(&mut runners, &inputs, &mut Tracer::off(), 0);
        Ok((inputs, runners, reference))
    })?;
    out.attempt(reference.len() as u64);
    for (r, (_, p)) in reference.iter().zip(inputs.jobs()) {
        if !r.halted {
            out.fail(format!("{} hit the cycle budget", p.name));
        }
    }

    if opts.trace {
        let (plain, traced) = split_traced(opts, out, |window, tracer, out| {
            measure(
                &mut runners,
                &inputs,
                &reference,
                &mut resetup,
                window,
                tracer,
                out,
            )
        });
        out.put(
            "trace.overhead",
            median(&rates(&plain)) / median(&rates(&traced)) - 1.0,
        );
        let retired: u64 = reference.iter().map(|r| r.retired).sum();
        out.put("sim.ipc", retired as f64 / cycles_of(&reference) as f64);
        layer_metrics(&inputs, &reference, out)?;
        // The sweep layer runs these same machines under its runner.
        crate::sweep::layer_metrics(opts, out)?;
    } else {
        let passes = measure(
            &mut runners,
            &inputs,
            &reference,
            &mut resetup,
            opts.window(),
            &mut Tracer::off(),
            out,
        );
        // A program run takes 0.1–3 ms, so many runs of each program
        // fall between the stretches of load from elsewhere on a shared
        // host: keep the fastest tenth of each program's runs.
        let mut fast_us = Vec::new();
        let mut pass_us = 0.0;
        for j in 0..reference.len() {
            let runs: Vec<f64> = passes.iter().map(|p| p.runs_us[j]).collect();
            let fast = fastest(runs, 1, |&us| 1.0 / us);
            pass_us += median(&fast);
            fast_us.extend(fast);
        }
        out.put("work_per_s", cycles_of(&reference) as f64 / (pass_us / 1e6));
        put_op_latencies(opts, out, &fast_us);
    }
    resetup.finish(out);
    check_arch_state(&mut runners, &inputs, out);
    Ok(())
}

/// A machine state captured before a step, for the replays.
struct Snap {
    demand: TypeCounts,
    fabric: Fabric,
    wakeup: WakeupArray,
    policy: PaperSteering,
    /// The choice the policy makes in this state (for the loader).
    choice: ConfigChoice,
    /// Fig. 7 availability inputs of this state.
    slots: Vec<bool>,
    ffus: Vec<(UnitType, bool)>,
    /// Their output (the wake-up array's resource-available input).
    avail: [bool; 5],
}

impl Snap {
    fn inputs(&self) -> AvailabilityInputs<'_> {
        AvailabilityInputs {
            alloc: self.fabric.alloc(),
            slot_available: &self.slots,
            ffus: &self.ffus,
        }
    }
}

/// Step `p` on a fresh machine, capturing about [`SNAPS_PER_PROGRAM`]
/// states spread over the run. The demand paired with each state is
/// the one the steer stage saw that cycle (from the steer log). Returns
/// the states plus (steer calls, cycles).
fn capture(cfg: &SimConfig, p: &Program, cycles: u64) -> Result<(Vec<Snap>, u64, u64), String> {
    let stride = (cycles / SNAPS_PER_PROGRAM).max(1);
    let mut runner = BatchRunner::new(cfg.clone()).map_err(|e| e.to_string())?;
    let m = runner.start(p).map_err(|e| e.to_string())?;
    m.enable_steer_log();
    let mut snaps = Vec::new();
    let mut at = Vec::new();
    loop {
        if m.cycle() % stride == 0 {
            let PolicyInstance::Paper(policy) = m.policy() else {
                return Err("pipeline-mix expects the paper policy".into());
            };
            at.push(m.cycle() as usize);
            snaps.push(Snap {
                demand: TypeCounts::ZERO,
                fabric: m.fabric().clone(),
                wakeup: m.wakeup().clone(),
                policy: policy.clone(),
                choice: ConfigChoice::Current,
                slots: m.fabric().slot_available_signals(),
                ffus: m.fabric().ffu_signals(),
                avail: [false; 5],
            });
        }
        if !(m.cycle() < BUDGET && m.step()) {
            break;
        }
    }
    let log = m.take_steer_log();
    let mut kept = Vec::with_capacity(snaps.len());
    for (mut s, c) in snaps.into_iter().zip(at) {
        if let Some(rec) = log.get(c) {
            s.demand = rec.demand;
            let (mut p, mut f) = (s.policy.clone(), s.fabric.clone());
            s.choice = p
                .tick(&s.demand, &mut f)
                .choice
                .unwrap_or(ConfigChoice::Current);
            s.avail = available_all(&s.inputs());
            kept.push(s);
        }
    }
    Ok((kept, log.len() as u64, m.cycle()))
}

/// Time `op` over fresh clones of `snaps`, chunk by chunk, `rounds`
/// times; returns the median ns per call.
fn replay_mut<T>(
    snaps: &[Snap],
    rounds: usize,
    prep: impl Fn(&Snap) -> T,
    mut op: impl FnMut(&Snap, &mut T),
) -> f64 {
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut spent = Duration::ZERO;
        for chunk in snaps.chunks(CHUNK) {
            let mut state: Vec<T> = chunk.iter().map(&prep).collect();
            let t = Instant::now();
            for (s, st) in chunk.iter().zip(state.iter_mut()) {
                op(s, st);
            }
            spent += t.elapsed();
            black_box(&state);
        }
        per_round.push(per_op_ns(spent, snaps.len() as u64));
    }
    median(&per_round)
}

/// Time a read-only `op` over `items`, `rounds` times; median ns/call.
fn replay_ref<T>(items: &[T], rounds: usize, mut op: impl FnMut(&T)) -> f64 {
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for it in items {
            op(it);
        }
        per_round.push(per_op_ns(t.elapsed(), items.len() as u64));
    }
    median(&per_round)
}

/// Per-layer metrics: step and run-setup times from the traced passes,
/// replayed layer calls, and the simulated counts of one pass.
fn layer_metrics(
    inputs: &Inputs,
    reference: &[SimReport],
    out: &mut Outcome,
) -> Result<(), String> {
    let steps: Vec<_> = out.tracer.named("sim.steps").cloned().collect();
    let step_ns = steps.iter().map(|s| s.dur_ns()).sum::<u64>() as f64
        / steps.iter().map(|s| s.count).sum::<u64>().max(1) as f64;
    out.put("sim.step_ns", step_ns);
    let setups: Vec<f64> = out
        .tracer
        .named("sim.run_setup")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.put_median("sim.run_setup_us", &setups);

    // Capture states from eight clean programs spread evenly over the
    // list (every mix, phased programs and a kernel) and one faulty
    // program.
    let mut clean_snaps = Vec::new();
    let (mut calls, mut cycles) = (0u64, 0u64);
    let last = inputs.clean.len() - 1;
    let mut picked: Vec<usize> = (0..8).map(|j| j * last / 7).collect();
    picked.dedup();
    for i in picked {
        let (s, c, n) = capture(&inputs.clean_cfg, &inputs.clean[i], reference[i].cycles)?;
        clean_snaps.extend(s);
        calls += c;
        cycles += n;
    }
    let faulty_cycles = reference[inputs.clean.len()].cycles;
    let (faulty_snaps, _, _) = capture(&inputs.faulty_cfg, &inputs.faulty[0], faulty_cycles)?;

    let rounds = 5;
    let set = inputs.clean_cfg.steering_set.clone();
    let unit = SelectionUnit::PAPER;
    let choose_ns = replay_ref(&clean_snaps, rounds, |s| {
        black_box(unit.choose(
            black_box(s.demand.saturating_3bit()),
            s.fabric.configured_counts(),
            s.fabric.alloc(),
            &set,
        ));
    });
    out.put("core.choose_ns", choose_ns);

    let policy_ns = replay_mut(
        &clean_snaps,
        rounds,
        |s| (s.policy.clone(), s.fabric.clone()),
        |s, (p, f)| {
            black_box(p.tick(&s.demand, f));
        },
    );
    out.put("core.policy_tick_ns", policy_ns);

    let loader_ns = replay_mut(
        &clean_snaps,
        rounds,
        |s| (s.policy.loader.clone(), s.fabric.clone()),
        |s, (l, f)| {
            black_box(l.apply(s.choice, f));
        },
    );
    out.put("core.loader_apply_ns", loader_ns);

    let avail_ns = replay_ref(&clean_snaps, rounds, |s| {
        black_box(available_all(black_box(&s.inputs())));
    });
    out.put("fabric.available_all_ns", avail_ns);

    let fabric_tick = |snaps: &[Snap]| {
        let mut done = Vec::new();
        replay_mut(
            snaps,
            rounds,
            |s| s.fabric.clone(),
            |_, f| {
                f.tick_into(&mut done);
                black_box(&done);
            },
        )
    };
    out.put("fabric.tick_ns", fabric_tick(&clean_snaps));
    out.put("fabric.tick_faulty_ns", fabric_tick(&faulty_snaps));

    let mut reqs = Vec::with_capacity(64);
    let mut grants = Vec::with_capacity(64);
    let arb_ns = replay_ref(&clean_snaps, rounds, |s| {
        s.wakeup.requests_into(&s.avail, &mut reqs);
        arbitrate_into(&s.wakeup, &reqs, &s.fabric.idle_counts(), &mut grants);
        black_box(&grants);
    });
    out.put("sched.request_arbitrate_ns", arb_ns);
    let wake_ns = replay_mut(&clean_snaps, rounds, |s| s.wakeup.clone(), |_, w| w.tick());
    out.put("sched.wakeup_tick_ns", wake_ns);

    let calls_per_cycle = calls as f64 / cycles.max(1) as f64;
    out.put("sim.steer_share", calls_per_cycle * policy_ns / step_ns);

    simulated_counts(reference, out);
    Ok(())
}

/// Exact simulated counts of one pass (identical under any change that
/// only speeds up the simulator).
fn simulated_counts(reports: &[SimReport], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let cycles = sum(&|r| r.cycles);
    let retired = sum(&|r| r.retired);
    let per_k = |x: f64| 1e3 * x / cycles.max(1.0);
    out.put("sim.cycles", cycles);
    out.put("sim.retired", retired);
    out.put(
        "core.selection_changes_per_kcycle",
        per_k(sum(&|r| r.loader.selection_changes)),
    );
    let started = sum(&|r| r.loader.loads_started);
    out.put("core.loads_started_per_kcycle", per_k(started));
    let deferred = sum(&|r| r.loader.deferred_busy + r.loader.deferred_port);
    out.put(
        "core.load_deferred_ratio",
        deferred / (deferred + started).max(1.0),
    );
    out.put("sched.collisions_per_kcycle", per_k(sum(&|r| r.collisions)));
    out.put(
        "sim.stall_queue_full_per_kcycle",
        per_k(sum(&|r| r.stalls.queue_full)),
    );
    out.put(
        "sim.stall_queue_empty_per_kcycle",
        per_k(sum(&|r| r.stalls.queue_empty)),
    );
    out.put(
        "sim.stall_unit_unconfigured_per_kcycle",
        per_k(sum(&|r| r.stalls.unit_unconfigured)),
    );
    out.put(
        "sim.starved_per_kcycle",
        per_k(sum(&|r| r.stalls.starved_requests)),
    );
    let rfu = sum(&|r| r.issued_rfu);
    out.put(
        "sim.rfu_issue_fraction",
        rfu / (rfu + sum(&|r| r.issued_ffu)).max(1.0),
    );
    out.put(
        "sim.squashed_per_kinstr",
        1e3 * sum(&|r| r.squashed) / retired.max(1.0),
    );
    out.put(
        "fabric.load_failures_per_kcycle",
        per_k(sum(&|r| r.faults.load_failures)),
    );
    out.put("core.retries_per_kcycle", per_k(sum(&|r| r.loader.retries)));
}
