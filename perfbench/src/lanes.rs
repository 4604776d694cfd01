//! `steer-lanes`: steering-only replay. Stimulus is recorded from
//! scalar runs (`record_steering` + `stimulus_from_records`) and stepped
//! by the 64-lanes-per-word `LaneRunner`, bypassing the pipeline stages
//! and the scalar `SelectionUnit`. The traced run also pushes the same
//! stimulus through the scalar `SteeringPolicy::tick` + `Fabric::tick_into`,
//! the like-for-like steering-only baseline for the lane speed-up.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rsp_core::SteeringPolicy;
use rsp_fabric::{Fabric, UnitId};
use rsp_sim::lanes::{record_steering, stimulus_from_records, LaneBatch, RecordedRun};
use rsp_sim::processor::PolicyInstance;
use rsp_sim::{LaneRunner, LaneStimulus, Processor, SimConfig};
use rsp_workloads::{PhasedSpec, SynthSpec, UnitMix};

use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{
    fastest, mix_seed, put_op_latencies, split_traced, timed_setup, Opts, Resetup, OPS_AT_LEAST,
};

/// Recording budget per program (every input halts below it).
const BUDGET: u64 = 200_000;

/// What set-up leaves behind.
struct Setup {
    runs: Vec<RecordedRun>,
    programs: Vec<rsp_isa::Program>,
    runner: LaneRunner,
    build_s: f64,
}

/// Synth programs loop their body as often as a phased program runs
/// its three phases twice, so every recorded run has about the same
/// length before [`equal_length`] trims them.
fn programs(seed: u64, smoke: bool) -> Vec<rsp_isa::Program> {
    let per_mix = if smoke { 1 } else { 2 };
    let body = if smoke { 60 } else { 160 };
    let mut v = Vec::new();
    for (m, (name, mix)) in UnitMix::named().into_iter().enumerate() {
        for k in 0..per_mix {
            let spec = SynthSpec {
                body_len: body,
                iterations: 6,
                ..SynthSpec::new(
                    format!("lanes-{name}-{k}"),
                    mix,
                    mix_seed(seed, (m * 16 + k) as u64),
                )
            };
            v.push(spec.generate());
        }
    }
    for k in 0..per_mix as u64 {
        v.push(PhasedSpec::int_fp_mem(body, 2, mix_seed(seed, 500 + k)).generate());
    }
    v
}

/// Trim every run to the shortest one. `stimulus_from_records` pads
/// shorter runs with idle cycles up to the longest; with equal lengths
/// every lane-cycle the kernel steps replays a recorded scalar cycle,
/// so lane-cycles and scalar replay cycles count the same work.
fn equal_length(runs: &mut [RecordedRun]) {
    let len = runs.iter().map(|r| r.records.len()).min().unwrap_or(0);
    for r in runs {
        r.records.truncate(len);
        r.cycles = len as u64;
    }
}

/// Record the stimulus, build the runner, and step 64 warm-up passes
/// (first touch of the planes and the stimulus).
fn build(cfg: &SimConfig, seed: u64, smoke: bool, lanes: usize) -> Result<Setup, String> {
    let t = Instant::now();
    let programs = programs(seed, smoke);
    let mut runs = programs
        .iter()
        .map(|p| record_steering(cfg, p, BUDGET))
        .collect::<Result<Vec<_>, _>>()?;
    equal_length(&mut runs);
    let stim = stimulus_from_records(&runs, lanes, cfg.queue_size, cfg.fabric.rfu_slots)?;
    let build_s = t.elapsed().as_secs_f64();
    let mut runner = LaneRunner::new(cfg, stim)?;
    runner.run(64 * pass_cycles(smoke));
    Ok(Setup {
        runs,
        programs,
        runner,
        build_s,
    })
}

/// Kernel steps per timed pass: under 1 ms of host time for 256
/// lanes, short enough that many passes fall between the stretches of
/// load from elsewhere on a shared host.
fn pass_cycles(smoke: bool) -> u64 {
    if smoke {
        256
    } else {
        512
    }
}

/// One timed pass: aggregate lane-cycles per host second and the pass's
/// host time (µs).
struct Timed {
    rate: f64,
    us: f64,
}

/// Passes until `window` fills, with set-up repeats between them.
fn measure(
    runner: &mut LaneRunner,
    cycles: u64,
    resetup: &mut Resetup<'_>,
    window: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Timed> {
    let lanes = runner.batch().lanes() as u64;
    let mut passes = Vec::new();
    let started = Instant::now();
    let mut group = 1;
    loop {
        let before = runner.summary();
        let span = tracer.begin("lanes.pass", group, SpanId::NONE);
        let t = Instant::now();
        let after = runner.run(cycles);
        let wall = t.elapsed();
        tracer.end(span, cycles * lanes);
        group += 1;
        passes.push(Timed {
            rate: (cycles * lanes) as f64 / wall.as_secs_f64(),
            us: wall.as_secs_f64() * 1e6,
        });
        out.check(
            after.lane_cycles == before.lane_cycles + cycles * lanes,
            || "lane pass stepped the wrong number of lane-cycles".into(),
        );
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

/// Replay the stimulus on a fresh batch and compare every lane's
/// choice with the scalar run it replays, within that run's recorded
/// window. Returns the mismatching lane-cycles.
fn check_choices(
    cfg: &SimConfig,
    runs: &[RecordedRun],
    stim: &LaneStimulus,
    out: &mut Outcome,
) -> u64 {
    out.check(
        runs.iter().all(|r| r.records.len() == stim.cycles()),
        || "the stimulus pads a lane past its recorded run".into(),
    );
    let lanes = stim.lanes();
    let mut batch = match LaneBatch::new(cfg, lanes) {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || format!("lane batch: {e}"));
            return 0;
        }
    };
    let mut bad_lanes = vec![false; lanes];
    let mut mismatches = 0u64;
    for t in 0..stim.cycles() {
        batch.step(stim, t);
        for (lane, bad) in bad_lanes.iter_mut().enumerate() {
            if let Some(rec) = runs[lane % runs.len()].records.get(t) {
                if batch.lane_choice(lane) != rec.chosen {
                    mismatches += 1;
                    *bad = true;
                }
            }
        }
    }
    for (lane, bad) in bad_lanes.into_iter().enumerate() {
        out.check(!bad, || {
            format!("lane {lane}: choices differ from the scalar run")
        });
    }
    mismatches
}

/// Mirror a recorded busy mask onto the fabric's RFU units.
fn apply_busy(f: &mut Fabric, mask: u64) {
    let have = f.busy_mask();
    if have == mask {
        return;
    }
    for s in 0..f.alloc().len() {
        let Some(u) = f.alloc().unit_at(s) else {
            continue;
        };
        if u.head != s {
            continue;
        }
        match (mask >> s & 1 == 1, have >> s & 1 == 1) {
            (true, false) => f.set_busy(UnitId::Rfu { head: s }),
            (false, true) => f.clear_busy(UnitId::Rfu { head: s }),
            _ => {}
        }
    }
}

/// The same stimulus through the scalar steering path: the policy a
/// fresh machine starts with, its fabric with the recorded busy mask,
/// `SteeringPolicy::tick`, then `Fabric::tick_into`. Returns ns per
/// replayed cycle (median over rounds) and choice mismatches against
/// the recording.
fn scalar_replay(cfg: &SimConfig, setup: &Setup, rounds: usize) -> Result<(f64, u64), String> {
    let proc = Processor::try_new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut starts = Vec::new();
    for p in &setup.programs {
        let m = proc.start(p).map_err(|e| e.to_string())?;
        let PolicyInstance::Paper(policy) = m.policy() else {
            return Err("steer-lanes expects the paper policy".into());
        };
        starts.push((policy.clone(), m.fabric().clone()));
    }
    let cycles: u64 = setup.runs.iter().map(|r| r.records.len() as u64).sum();
    let mut per_round = Vec::new();
    let mut mismatches = 0;
    let mut done = Vec::new();
    for round in 0..rounds {
        let mut state = starts.clone();
        let t = Instant::now();
        for ((policy, fabric), run) in state.iter_mut().zip(&setup.runs) {
            for rec in &run.records {
                apply_busy(fabric, rec.busy);
                let o = policy.tick(&rec.demand, fabric);
                fabric.tick_into(&mut done);
                if round == 0 && o.choice.map(|c| c.two_bit()) != rec.chosen {
                    mismatches += 1;
                }
            }
        }
        per_round.push(t.elapsed().as_nanos() as f64 / cycles.max(1) as f64);
        black_box(&state);
    }
    Ok((median(&per_round), mismatches))
}

/// Run the workload.
pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let cfg = SimConfig::default();
    let lanes = if opts.smoke { 64 } else { 256 };
    let (mut setup, mut resetup) = timed_setup(opts, || build(&cfg, opts.seed, opts.smoke, lanes))?;
    let cycles = pass_cycles(opts.smoke);

    if opts.trace {
        let (plain, traced) = split_traced(opts, out, |window, tracer, out| {
            measure(&mut setup.runner, cycles, &mut resetup, window, tracer, out)
        });
        let (plain, traced) = (rates(&plain), rates(&traced));
        out.put("trace.overhead", median(&plain) / median(&traced) - 1.0);

        let words = setup.runner.batch().words() as u64;
        let passes: Vec<_> = out.tracer.named("lanes.pass").cloned().collect();
        let step_ns = passes.iter().map(|s| s.dur_ns()).sum::<u64>() as f64
            / (passes.len() as u64 * cycles * words).max(1) as f64;
        out.put("lanes.word_step_ns", step_ns);
        out.put("lanes.stimulus_build_s", setup.build_s);
        let (scalar_ns, scalar_bad) = scalar_replay(&cfg, &setup, if opts.smoke { 1 } else { 10 })?;
        out.put("steer.scalar_replay_ns", scalar_ns);
        out.put("steer.scalar_replay_mismatches", scalar_bad as f64);
        out.check(scalar_bad == 0, || {
            format!("scalar steering replay: {scalar_bad} choices differ from the recording")
        });
        // Both sides replay the same recorded cycles (no lane is padded)
        // through the steering loop only: lane-cycles/s over scalar
        // cycles/s.
        out.put("lanes.speedup_steer_only", median(&plain) * scalar_ns / 1e9);
        let sum = setup.runner.summary();
        out.put(
            "lanes.loads_started_per_klane_cycle",
            1e3 * sum.loads_started as f64 / sum.lane_cycles.max(1) as f64,
        );
    } else {
        let passes = measure(
            &mut setup.runner,
            cycles,
            &mut resetup,
            opts.window(),
            &mut Tracer::off(),
            out,
        );
        let fast = fastest(passes, OPS_AT_LEAST, |p| p.rate);
        out.put_median("work_per_s", &rates(&fast));
        let us: Vec<f64> = fast.iter().map(|p| p.us).collect();
        put_op_latencies(opts, out, &us);
    }
    resetup.finish(out);

    let mismatches = check_choices(&cfg, &setup.runs, setup.runner.stimulus(), out);
    if opts.trace {
        out.put("lanes.choice_mismatches", mismatches as f64);
    }
    Ok(())
}
