//! Batched program driver: run many programs back to back on one
//! reused [`Machine`].
//!
//! [`Processor::run`](crate::Processor::run) builds a fresh [`Machine`]
//! per program — fine for one long simulation, wasteful when sweeping
//! thousands of short synthetic workloads (the throughput-harness and
//! experiment-sweep pattern). [`BatchRunner`] validates the
//! configuration once and reuses one machine's wake-up array, register
//! update unit and data memory across programs via [`Machine::reset`],
//! so per-run setup cost stays flat no matter how many programs flow
//! through.
//!
//! A batched run of a program is behaviourally identical to
//! [`Processor::run`](crate::Processor::run) on that program: [`Machine::reset`] restores every
//! piece of architectural and microarchitectural state (a unit test and
//! the differential suite pin this down).
//!
//! ```
//! use rsp_sim::{BatchRunner, SimConfig};
//! use rsp_workloads::kernels;
//!
//! let mut runner = BatchRunner::new(SimConfig::default()).unwrap();
//! for n in [8, 16, 32] {
//!     let report = runner.run(&kernels::dot_product(n), 100_000).unwrap();
//!     assert!(report.halted);
//! }
//! ```

use crate::config::SimConfig;
use crate::processor::{Machine, RunError};
use crate::stats::{SimReport, StageTimes};
use rsp_isa::Program;
use serde::{Deserialize, Serialize};

/// Drives many programs through one reused [`Machine`].
#[derive(Debug, Clone)]
pub struct BatchRunner {
    cfg: SimConfig,
    machine: Option<Machine>,
}

impl BatchRunner {
    /// Validate `cfg` once; the machine itself is built lazily on the
    /// first run.
    pub fn new(cfg: SimConfig) -> Result<BatchRunner, RunError> {
        cfg.validate().map_err(RunError::BadConfig)?;
        Ok(BatchRunner { cfg, machine: None })
    }

    /// The configuration every batched run uses.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Reset (or lazily build) the machine for `program` and hand it
    /// back for cycle-level driving; the caller steps it.
    pub fn start(&mut self, program: &Program) -> Result<&mut Machine, RunError> {
        program.validate().map_err(RunError::BadProgram)?;
        match &mut self.machine {
            Some(m) => m.reset(program),
            None => self.machine = Some(Machine::new(self.cfg.clone(), program)),
        }
        Ok(self.machine.as_mut().expect("machine just ensured"))
    }

    /// Host time per step stage over every run so far; `None` unless
    /// `rsp-sim` was built with the `stage-timing` feature (or before
    /// the first run).
    pub fn stage_times(&self) -> Option<&StageTimes> {
        self.machine.as_ref().and_then(Machine::stage_times)
    }

    /// Run one program to completion (or `max_cycles`), reusing the
    /// machine from the previous run.
    pub fn run(&mut self, program: &Program, max_cycles: u64) -> Result<SimReport, RunError> {
        let m = self.start(program)?;
        while m.cycle() < max_cycles && m.step() {}
        Ok(m.report())
    }
}

/// Aggregate counters from a [`run_batch`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Programs run.
    pub runs: u64,
    /// Total simulated cycles across all runs.
    pub sim_cycles: u64,
    /// Total instructions retired across all runs.
    pub retired: u64,
    /// True iff every program halted within its cycle budget
    /// (vacuously true for an empty summary).
    pub all_halted: bool,
}

impl Default for BatchSummary {
    /// The empty summary: zero runs, and `all_halted` vacuously *true*
    /// so that `absorb` computes "every absorbed run halted" regardless
    /// of how the summary was built.
    fn default() -> BatchSummary {
        BatchSummary {
            runs: 0,
            sim_cycles: 0,
            retired: 0,
            all_halted: true,
        }
    }
}

impl BatchSummary {
    /// Fold one run's report into the aggregate.
    pub fn absorb(&mut self, report: &SimReport) {
        self.runs += 1;
        self.sim_cycles += report.cycles;
        self.retired += report.retired;
        self.all_halted &= report.halted;
    }
}

/// Run every program on one reused machine with a per-program cycle
/// budget, returning aggregate counters. The throughput harness in
/// `rsp-bench` builds on this.
pub fn run_batch(
    cfg: &SimConfig,
    programs: &[Program],
    max_cycles: u64,
) -> Result<BatchSummary, RunError> {
    let mut runner = BatchRunner::new(cfg.clone())?;
    let mut sum = BatchSummary::default();
    for p in programs {
        let report = runner.run(p, max_cycles)?;
        sum.absorb(&report);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use rsp_workloads::kernels;
    use rsp_workloads::synth::{SynthSpec, UnitMix};
    use std::time::Duration;

    /// A batched run must be bit-identical to a fresh-machine run,
    /// including after the machine was dirtied by a different program.
    #[test]
    fn reset_machine_matches_fresh_machine() {
        let cfg = SimConfig::default();
        let a = kernels::dot_product(24);
        let b = SynthSpec::new("mix", UnitMix::BALANCED, 7).generate();
        let c = kernels::matmul(4);

        let mut fresh = Vec::new();
        for p in [&a, &b, &c] {
            fresh.push(Processor::new(cfg.clone()).run(p, 1_000_000).unwrap());
        }

        let mut runner = BatchRunner::new(cfg).unwrap();
        for (p, want) in [&a, &b, &c].into_iter().zip(&fresh) {
            let got = runner.run(p, 1_000_000).unwrap();
            assert_eq!(&got, want, "batched run diverged on {}", p.name);
        }
        // Run the first program again after the machine saw the others.
        let again = runner.run(&a, 1_000_000).unwrap();
        assert_eq!(&again, &fresh[0]);
    }

    /// Stage timing is present exactly in `stage-timing` builds, and then
    /// accumulates across a runner's programs with every stage charged.
    #[test]
    fn stage_times_follow_the_feature() {
        let mut runner = BatchRunner::new(SimConfig::default()).unwrap();
        runner.run(&kernels::dot_product(8), 100_000).unwrap();
        let first = runner.stage_times().copied();
        assert_eq!(first.is_some(), cfg!(feature = "stage-timing"));
        runner.run(&kernels::checksum(8), 100_000).unwrap();
        if let (Some(first), Some(both)) = (first, runner.stage_times()) {
            for (stage, (a, b)) in first.total.iter().zip(&both.total).enumerate() {
                assert!(a > &Duration::ZERO, "stage {stage} never timed");
                assert!(b > a, "stage {stage} did not accumulate");
            }
        }
    }

    #[test]
    fn run_batch_aggregates() {
        let cfg = SimConfig::default();
        let programs = vec![kernels::dot_product(8), kernels::checksum(8)];
        let sum = run_batch(&cfg, &programs, 100_000).unwrap();
        assert_eq!(sum.runs, 2);
        assert!(sum.all_halted);
        let individual: u64 = programs
            .iter()
            .map(|p| Processor::new(cfg.clone()).run(p, 100_000).unwrap().cycles)
            .sum();
        assert_eq!(sum.sim_cycles, individual);
    }

    /// Regression: `BatchSummary::default()` used to report
    /// `all_halted == false`, so summaries built via `Default` (rather
    /// than through `run_batch`) claimed a halt failure even when every
    /// absorbed run halted.
    #[test]
    fn default_summary_is_vacuously_all_halted() {
        let sum = BatchSummary::default();
        assert!(sum.all_halted, "empty summary is vacuously all-halted");
        assert_eq!(sum.runs, 0);

        let mut sum = BatchSummary::default();
        let halted = Processor::new(SimConfig::default())
            .run(&kernels::dot_product(4), 100_000)
            .unwrap();
        sum.absorb(&halted);
        assert!(sum.all_halted, "halted runs keep all_halted true");

        // A budget-exhausted run still flips it off.
        let truncated = Processor::new(SimConfig::default())
            .run(&kernels::dot_product(64), 10)
            .unwrap();
        assert!(!truncated.halted);
        sum.absorb(&truncated);
        assert!(!sum.all_halted);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let bad_cfg = SimConfig {
            queue_size: 0,
            ..SimConfig::default()
        };
        assert!(BatchRunner::new(bad_cfg).is_err());
        let mut runner = BatchRunner::new(SimConfig::default()).unwrap();
        let empty = Program::new("empty", vec![]);
        assert!(matches!(
            runner.run(&empty, 100),
            Err(RunError::BadProgram(_))
        ));
        // A rejected program must not poison the runner.
        assert!(
            runner
                .run(&kernels::dot_product(4), 100_000)
                .unwrap()
                .halted
        );
    }
}
