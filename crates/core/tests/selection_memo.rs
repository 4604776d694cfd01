//! Differential suite for the selection-unit memo in
//! `PaperSteering::tick_observed`: every cycle, the memoised choice and
//! CEM scores must equal a fresh evaluation of
//! `SelectionUnit::choose_with_scores_overriding` on the same inputs, and
//! the loads the policy starts must equal those a twin loader starts on
//! a twin fabric from the fresh choice.
//!
//! The stimulus covers what can change the memo's inputs between
//! cycles: arbitrary demand runs (repeats and kept demand make the memo
//! hit), loads in flight, busy units, load failures, upsets and scrub,
//! dead slots that engage the effective capacity view under the
//! fault-aware policy (with a short hysteresis so it flips within the
//! run), the selection unit's tie rule and CEM swapped between ticks,
//! and the fabric's units moved to other slots with their counts
//! unchanged (only the allocation vector tells those states apart).

use proptest::prelude::*;
use rsp_core::cem::CemUnit;
use rsp_core::loader::achievable_rfu_counts;
use rsp_core::{ConfigChoice, PaperSteering, SelectionUnit, SteeringPolicy, TieBreak};
use rsp_fabric::alloc::AllocationVector;
use rsp_fabric::config::{Configuration, SteeringSet};
use rsp_fabric::fabric::{Fabric, FabricParams};
use rsp_fabric::fault::FaultParams;
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_obs::{Event, Telemetry, MAX_CANDIDATES};

/// One run of cycles with the same demand, preceded by the between-tick
/// perturbations.
#[derive(Debug, Clone)]
struct Segment {
    demand: [u8; 5],
    /// 0, 1 = `demand`, 2 = the previous segment's demand, 3 = none.
    demand_kind: u8,
    repeat: usize,
    /// 0 = nothing, 1 = mark an idle unit busy, 2 = clear every busy
    /// unit, 3 = move the units to the other of two same-count
    /// placements (when nothing is loading or busy).
    fabric_op: u8,
    busy_type: usize,
    /// 0 = keep the unit, 1 = toggle the tie rule, 2 = toggle the CEM.
    unit_op: u8,
}

fn segment() -> impl Strategy<Value = Segment> {
    (
        proptest::array::uniform5(0u8..8),
        0u8..4,
        1usize..6,
        0u8..4,
        0usize..5,
        0u8..6,
    )
        .prop_map(
            |(demand, demand_kind, repeat, fabric_op, busy_type, unit_op)| Segment {
                demand,
                demand_kind,
                repeat,
                fabric_op,
                busy_type,
                // Unit swaps are rarer than steady cycles.
                unit_op: unit_op.saturating_sub(3),
            },
        )
}

/// Two placements of one Int-ALU, one FP-ALU and two LSUs: equal
/// counts, different allocation vectors. The first is one reload away
/// from Config 3, the second from Config 1, so at equal errors the
/// least-reconfiguration rule tells them apart.
fn same_count_placements() -> [Configuration; 2] {
    let place = |units: &[(usize, UnitType)]| {
        let mut v = AllocationVector::empty(8);
        for &(slot, t) in units {
            v.place(slot, t);
        }
        Configuration {
            name: "relocated".into(),
            counts: v.counts(),
            placement: v,
        }
    };
    [
        place(&[
            (0, UnitType::Lsu),
            (1, UnitType::Lsu),
            (2, UnitType::FpAlu),
            (5, UnitType::IntAlu),
        ]),
        place(&[
            (0, UnitType::IntAlu),
            (2, UnitType::FpAlu),
            (6, UnitType::Lsu),
            (7, UnitType::Lsu),
        ]),
    ]
}

/// The fresh selection-unit evaluation for the state `before` the tick,
/// given the capacity view the policy settled on in that tick.
fn fresh_choice(
    unit: &SelectionUnit,
    demand: &TypeCounts,
    before: &Fabric,
    effective_view: bool,
    set: &SteeringSet,
) -> (ConfigChoice, [u32; MAX_CANDIDATES], usize) {
    let current = if effective_view {
        before.effective_counts()
    } else {
        before.configured_counts()
    };
    let n = before.params().rfu_slots;
    let candidates: Vec<TypeCounts> = if effective_view {
        set.predefined
            .iter()
            .map(|c| achievable_rfu_counts(c, n, |s| before.slot_dead(s)).saturating_add(&set.ffu))
            .collect()
    } else {
        Vec::new()
    };
    let mut scores = [0u32; MAX_CANDIDATES];
    let (choice, _, scored) = unit.choose_with_scores_overriding(
        demand.saturating_3bit(),
        current,
        &candidates,
        before.alloc(),
        set,
        &mut scores,
    );
    (choice, scores, scored)
}

fn mark_busy(fabric: &mut Fabric, t: usize) {
    let t = UnitType::from_index(t).expect("valid type index");
    if let Some(id) = fabric.idle_unit(t) {
        fabric.set_busy(id);
    }
}

fn clear_busy(fabric: &mut Fabric) {
    for u in fabric.units() {
        if u.busy {
            fabric.clear_busy(u.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoised_selection_matches_fresh_evaluation(
        segments in proptest::collection::vec(segment(), 1..40),
        // Latency 0 completes every load in its own cycle, so the fabric
        // is often quiescent and the relocations happen.
        latency in 0u64..3,
        ports in 1usize..3,
        fault_aware in proptest::bool::ANY,
        hysteresis in 0u32..6,
        dead_mask in 0u8..=255,
        faults_on in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        // At most two dead slots, so the fabric keeps usable capacity.
        let dead_slots: Vec<usize> = (0..8).filter(|s| dead_mask & (1 << s) != 0).take(2).collect();
        let faults = FaultParams {
            seed,
            load_failure_ppm: if faults_on { 100_000 } else { 0 },
            upset_ppm: if faults_on { 20_000 } else { 0 },
            scrub_interval: if faults_on { 16 } else { 0 },
            dead_slots,
        };
        let mut fabric = Fabric::new(FabricParams {
            per_slot_load_latency: latency,
            reconfig_ports: ports,
            faults,
            ..FabricParams::default()
        });
        let mut policy = PaperSteering::paper_default().with_fault_aware(fault_aware);
        policy.hysteresis = hysteresis;
        let set = policy.loader.set().clone();
        // The twin loader is driven by the fresh choices on its own fabric.
        let mut twin_loader = policy.loader.clone();
        let mut twin_fabric = fabric.clone();

        let placements = same_count_placements();
        let mut relocations = 0usize;
        let mut demand = TypeCounts::ZERO;
        let mut cycle = 0u64;
        for seg in &segments {
            match seg.fabric_op {
                1 => {
                    mark_busy(&mut fabric, seg.busy_type);
                    mark_busy(&mut twin_fabric, seg.busy_type);
                }
                2 => {
                    clear_busy(&mut fabric);
                    clear_busy(&mut twin_fabric);
                }
                3 if fabric.loads_in_flight() == 0 && fabric.busy_mask() == 0 => {
                    let target = &placements[relocations % 2];
                    relocations += 1;
                    fabric.load_instantly(target);
                    twin_fabric.load_instantly(target);
                }
                _ => {}
            }
            match seg.unit_op {
                1 => {
                    policy.unit.tie = match policy.unit.tie {
                        TieBreak::FavorCurrent => TieBreak::PreferPredefined,
                        TieBreak::PreferPredefined => TieBreak::FavorCurrent,
                    };
                }
                2 => {
                    policy.unit.cem = if policy.unit.cem == CemUnit::PAPER {
                        CemUnit::EXACT
                    } else {
                        CemUnit::PAPER
                    };
                }
                _ => {}
            }
            demand = match seg.demand_kind {
                2 => demand,
                3 => TypeCounts::ZERO,
                _ => TypeCounts::new(seg.demand),
            };
            for _ in 0..seg.repeat {
                let before = fabric.clone();
                let mut obs = Telemetry::ring(64);
                let out = policy.tick_observed(&demand, &mut fabric, &mut obs);

                let (choice, scores, scored) =
                    fresh_choice(&policy.unit, &demand, &before, policy.effective_view(), &set);
                prop_assert_eq!(out.choice, Some(choice), "cycle {}", cycle);
                let decision = obs
                    .ring_sink()
                    .expect("ring telemetry")
                    .events()
                    .into_iter()
                    .find_map(|s| match s.event {
                        Event::SteeringDecision { scores, candidates, chosen, .. } => {
                            Some((scores, candidates, chosen))
                        }
                        _ => None,
                    })
                    .expect("one steering decision per tick");
                prop_assert_eq!(decision, (scores, scored as u8, choice.two_bit()), "cycle {}", cycle);

                let twin_loads = twin_loader.apply_observed(choice, &mut twin_fabric, &mut Telemetry::off());
                prop_assert_eq!(out.loads_started, twin_loads, "cycle {}", cycle);
                prop_assert!(fabric == twin_fabric, "fabrics diverged at cycle {}", cycle);

                fabric.tick();
                twin_fabric.tick();
                cycle += 1;
            }
        }
        prop_assert_eq!(policy.loader.stats(), twin_loader.stats());
    }
}

/// The suite's stimulus does reach the effective capacity view (a dead
/// slot under the fault-aware policy with a short hysteresis), so the
/// memo's view key is exercised in both states.
#[test]
fn dead_slots_flip_the_effective_view_within_a_run() {
    let mut fabric = Fabric::new(FabricParams {
        faults: FaultParams {
            dead_slots: vec![6],
            ..FaultParams::default()
        },
        ..FabricParams::default()
    });
    let mut policy = PaperSteering::paper_default().with_fault_aware(true);
    policy.hysteresis = 2;
    let demand = TypeCounts::new([0, 0, 3, 0, 0]);
    let mut seen = [false; 2];
    for _ in 0..8 {
        policy.tick(&demand, &mut fabric);
        fabric.tick();
        seen[policy.effective_view() as usize] = true;
    }
    assert_eq!(seen, [true, true]);
}

/// Only the allocation vector differs between two evaluations: the
/// same demand, counts and unit over two placements whose cheapest
/// predefined configuration differs. The memo must not serve the first
/// choice for the second fabric.
#[test]
fn equal_counts_on_another_placement_are_reevaluated() {
    let [near3, near1] = same_count_placements();
    let fabric_on = |c: &Configuration| {
        let mut f = Fabric::new(FabricParams::default());
        f.load_instantly(c);
        f
    };
    let (mut a, mut b) = (fabric_on(&near3), fabric_on(&near1));
    assert_eq!(a.configured_counts(), b.configured_counts());
    let mut policy = PaperSteering::paper_default();
    // At zero demand every error is 0: the ablation rule then picks the
    // predefined configuration needing the fewest reloads.
    policy.unit.tie = TieBreak::PreferPredefined;
    let idle = TypeCounts::ZERO;
    assert_eq!(
        policy.tick(&idle, &mut a).choice,
        Some(ConfigChoice::Predefined(2))
    );
    assert_eq!(
        policy.tick(&idle, &mut b).choice,
        Some(ConfigChoice::Predefined(0))
    );
}
