//! Run statistics and the simulation report.

use rsp_core::loader::LoaderStats;
use rsp_fabric::fabric::FabricStats;
use rsp_fabric::fault::FaultStats;
use rsp_isa::units::TypeCounts;
use rsp_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Cycle-level stall/occupancy accounting. A cycle can contribute to
/// several counters (e.g. queue full *and* nothing issued).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallStats {
    /// Cycles where dispatch stalled because the instruction queue
    /// (wake-up array) was full.
    pub queue_full: u64,
    /// Cycles where dispatch stalled because the ROB was full.
    pub rob_full: u64,
    /// Cycles where at least one entry requested execution but received
    /// no grant (its unit type had no idle — or no configured — unit).
    pub starved_requests: u64,
    /// Cycles where the queue was completely empty (front-end starvation
    /// or program drain).
    pub queue_empty: u64,
    /// Cycles with at least one entry whose unit type had **no unit
    /// configured at all** (only possible transiently: the FFUs always
    /// provide one of each type in the default architecture).
    pub unit_unconfigured: u64,
}

/// The seven stages of [`crate::processor::Machine::step`], in call
/// order: the index of a stage in [`StageTimes::total`].
pub const STAGE_NAMES: [&str; 7] = [
    "retire", "complete", "issue", "steer", "dispatch", "fetch", "tick",
];

/// Host time spent in each `Machine::step` stage, indexed like
/// [`STAGE_NAMES`]. Only recorded when `rsp-sim` is built with the
/// `stage-timing` feature (see [`crate::processor::Machine::stage_times`]).
/// Each stage's time includes the cost of one clock read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Accumulated wall time per stage.
    pub total: [Duration; 7],
}

impl StageTimes {
    /// Mean nanoseconds per cycle of each stage over `cycles` cycles.
    pub fn ns_per_cycle(&self, cycles: u64) -> [f64; 7] {
        let cycles = cycles.max(1) as f64;
        self.total.map(|d| d.as_nanos() as f64 / cycles)
    }
}

/// The report produced by a completed (or budget-exhausted) run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired (architecturally executed).
    pub retired: u64,
    /// True iff the program halted (vs. the cycle budget running out).
    pub halted: bool,
    /// Per-type retired-instruction mix.
    pub retired_mix: TypeCounts,
    /// Instructions issued to FFUs.
    pub issued_ffu: u64,
    /// Instructions issued to RFUs.
    pub issued_rfu: u64,
    /// Branch mispredictions (pipeline flushes).
    pub flushes: u64,
    /// Instructions squashed by flushes.
    pub squashed: u64,
    /// Trace-cache hits / misses (fetch groups).
    pub trace_hits: u64,
    /// Trace-cache misses (fetch groups).
    pub trace_misses: u64,
    /// Stall accounting.
    pub stalls: StallStats,
    /// Select-free scheduling collisions (0 in arbitrated mode).
    pub collisions: u64,
    /// Fabric reconfiguration counters.
    pub fabric: FabricStats,
    /// Fault-injection counters (all-zero when the fault model is off).
    pub faults: FaultStats,
    /// Configuration-loader counters (all-default for policies without a
    /// configuration loader: static and demand-driven runs).
    pub loader: LoaderStats,
    /// Steering policy name.
    pub policy: String,
    /// Demand-driven policy loads (demand policy only).
    pub policy_loads: u64,
    /// Telemetry metrics snapshot (empty when telemetry was disabled).
    pub metrics: MetricsSnapshot,
}

impl SimReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Fraction of issues that went to reconfigurable units.
    pub fn rfu_issue_fraction(&self) -> f64 {
        let total = self.issued_ffu + self.issued_rfu;
        if total == 0 {
            0.0
        } else {
            self.issued_rfu as f64 / total as f64
        }
    }

    /// Trace-cache hit rate over fetch groups.
    pub fn trace_hit_rate(&self) -> f64 {
        let total = self.trace_hits + self.trace_misses;
        if total == 0 {
            0.0
        } else {
            self.trace_hits as f64 / total as f64
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} cycles={:<8} retired={:<8} IPC={:.3} reconfigs={:<4} flushes={}",
            self.policy,
            self.cycles,
            self.retired,
            self.ipc(),
            self.fabric.loads_started,
            self.flushes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_division_by_zero() {
        let r = SimReport::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.rfu_issue_fraction(), 0.0);
        assert_eq!(r.trace_hit_rate(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let r = SimReport {
            cycles: 100,
            retired: 250,
            issued_ffu: 3,
            issued_rfu: 1,
            trace_hits: 9,
            trace_misses: 1,
            ..SimReport::default()
        };
        assert_eq!(r.ipc(), 2.5);
        assert_eq!(r.rfu_issue_fraction(), 0.25);
        assert_eq!(r.trace_hit_rate(), 0.9);
        assert!(r.summary().contains("IPC=2.500"));
    }
}
