//! Grant arbitration.
//!
//! The wake-up logic is *select-free*: it "only determines when an
//! instruction is ready for execution and generates an execution request
//! … contention between instructions must be handled by the scheduler
//! after multiple instructions that use the same resources request
//! execution" (paper §4.1). This module is that scheduler: it matches
//! requesting entries to idle units of their type, **oldest first** (by
//! entry tag), at most one instruction per idle unit per cycle.

use crate::wakeup::{SlotIdx, WakeupArray};
use rsp_isa::units::{TypeCounts, UnitType};

/// One issued grant: which slot goes to which unit type, plus how many
/// idle units of that type remained before this grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The wake-up slot granted execution.
    pub slot: SlotIdx,
    /// The unit type it issues to.
    pub unit: UnitType,
}

/// Arbitrate one cycle into a caller-provided buffer (cleared first):
/// `requests` are the requesting slots (from
/// [`WakeupArray::requests_into`]); `idle_units[t]` is the number of
/// idle units of each type. Grants come out grouped by unit type in
/// [`UnitType::ALL`] order, oldest tag first within a type.
///
/// Allocation-free: requests fit a fixed on-stack table (the array
/// capacity is ≤ 64 slots) and the per-type grouping is a single sort
/// by `(type, tag)`. The hot loop reuses one grant buffer per machine.
/// Up to eight requests (the paper's 7-entry queue always) sort in a
/// small table, so the common cycle never fills the large one.
///
/// Note the arbiter does **not** mutate the array — the caller issues
/// [`WakeupArray::grant`] per returned grant once it has bound a concrete
/// unit (the simulator also marks the unit busy in the fabric).
pub fn arbitrate_into(
    array: &WakeupArray,
    requests: &[SlotIdx],
    idle_units: &TypeCounts,
    grants: &mut Vec<Grant>,
) {
    grants.clear();
    match requests.len() {
        0 => {}
        n if n <= SMALL_REQUESTS => {
            grant_oldest_first::<SMALL_REQUESTS>(array, requests, idle_units, grants)
        }
        _ => grant_oldest_first::<64>(array, requests, idle_units, grants),
    }
}

/// Request count up to which [`arbitrate_into`] sorts in a small table.
const SMALL_REQUESTS: usize = 8;

/// Sort `requests` (at most `N`) by `(type, tag)` in an `N`-entry table
/// and grant within each type's idle quota.
fn grant_oldest_first<const N: usize>(
    array: &WakeupArray,
    requests: &[SlotIdx],
    idle_units: &TypeCounts,
    grants: &mut Vec<Grant>,
) {
    // (type index, tag, slot) sorts into exactly the emission order:
    // types ascending, oldest tag first within a type.
    let mut keyed = [(0usize, 0u64, 0usize); N];
    let n = requests.len();
    debug_assert!(n <= N, "more requests than the {N}-entry table");
    for (k, &s) in keyed.iter_mut().zip(requests) {
        let e = array.get(s).expect("requesting slot must be occupied");
        *k = (e.unit.index(), e.tag, s);
    }
    let keyed = &mut keyed[..n];
    keyed.sort_unstable();
    let mut quota_left = idle_units.as_array();
    for &(t, _, slot) in keyed.iter() {
        if quota_left[t] > 0 {
            quota_left[t] -= 1;
            grants.push(Grant {
                slot,
                unit: UnitType::from_index(t).expect("valid type index"),
            });
        }
    }
}

/// [`arbitrate_into`] with a freshly allocated grant buffer.
pub fn arbitrate(array: &WakeupArray, requests: &[SlotIdx], idle_units: &TypeCounts) -> Vec<Grant> {
    let mut grants = Vec::with_capacity(requests.len());
    arbitrate_into(array, requests, idle_units, &mut grants);
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_bounded_by_idle_units() {
        let mut w = WakeupArray::paper();
        for i in 0..4 {
            w.insert(UnitType::IntAlu, &[], 10 + i).unwrap();
        }
        let reqs = w.requests(&[true; 5]);
        assert_eq!(reqs.len(), 4);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([2, 0, 0, 0, 0]));
        assert_eq!(grants.len(), 2);
        // Oldest (lowest tag) first.
        assert_eq!(grants[0].slot, 0);
        assert_eq!(grants[1].slot, 1);
    }

    #[test]
    fn oldest_first_is_by_tag_not_slot() {
        let mut w = WakeupArray::paper();
        // Fill, then clear slot 0 and reuse it for a *younger* entry.
        let a = w.insert(UnitType::IntAlu, &[], 100).unwrap();
        let _b = w.insert(UnitType::IntAlu, &[], 50).unwrap();
        w.clear(a);
        let c = w.insert(UnitType::IntAlu, &[], 200).unwrap();
        assert_eq!(c, 0, "slot reused");
        let reqs = w.requests(&[true; 5]);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([1, 0, 0, 0, 0]));
        assert_eq!(
            grants,
            vec![Grant {
                slot: 1,
                unit: UnitType::IntAlu
            }]
        );
    }

    #[test]
    fn types_arbitrate_independently() {
        let mut w = WakeupArray::paper();
        w.insert(UnitType::IntAlu, &[], 0).unwrap();
        w.insert(UnitType::Lsu, &[], 1).unwrap();
        w.insert(UnitType::FpMdu, &[], 2).unwrap();
        let reqs = w.requests(&[true; 5]);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([1, 1, 1, 1, 1]));
        assert_eq!(grants.len(), 3);
        let grants = arbitrate(&w, &reqs, &TypeCounts::new([0, 0, 1, 0, 1]));
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.unit != UnitType::IntAlu));
    }

    #[test]
    fn no_requests_no_grants() {
        let w = WakeupArray::paper();
        assert!(arbitrate(&w, &[], &TypeCounts::new([7, 7, 7, 7, 7])).is_empty());
    }

    proptest::proptest! {
        /// The small table grants exactly what the 64-entry table grants,
        /// in the same order.
        #[test]
        fn small_table_matches_full_table(
            entries in proptest::collection::vec((0usize..5, 0u64..1000), 0..=SMALL_REQUESTS),
            idle in proptest::array::uniform5(0u8..4),
        ) {
            let mut w = WakeupArray::new(SMALL_REQUESTS);
            for &(t, tag) in &entries {
                w.insert(UnitType::from_index(t).unwrap(), &[], tag).unwrap();
            }
            let reqs = w.requests(&[true; 5]);
            let idle = TypeCounts::new(idle);
            let (mut small, mut full) = (Vec::new(), Vec::new());
            grant_oldest_first::<SMALL_REQUESTS>(&w, &reqs, &idle, &mut small);
            grant_oldest_first::<64>(&w, &reqs, &idle, &mut full);
            proptest::prop_assert_eq!(&small, &full);
            proptest::prop_assert_eq!(arbitrate(&w, &reqs, &idle), full);
        }
    }
}
