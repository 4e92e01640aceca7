//! The slot-bitmap [`FairBus`] against a sorted-set reference model.
//!
//! The reference keeps every taken slot in a `BTreeSet` and walks the
//! occupied run from the requested slot, which is the textbook
//! definition of "first free cycle at or after `at_ps`". Random claim
//! sequences must get identical slots and `issued()` counts from both. The generator mixes the cases where a bitmap can go wrong:
//! claims on and around 64-slot word boundaries, backfill below earlier
//! claims, repeated equal requests, and claims far past the end of the
//! bitmap grown so far.

use dram_sim::chip::FairBus;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A sorted set of taken slots: the oracle.
struct ReferenceBus {
    cycle_ps: u64,
    taken: BTreeSet<u64>,
}

impl ReferenceBus {
    fn new(cycle_ps: u64) -> Self {
        Self {
            cycle_ps,
            taken: BTreeSet::new(),
        }
    }

    fn claim(&mut self, at_ps: u64) -> u64 {
        let mut slot = at_ps.div_ceil(self.cycle_ps);
        for &t in self.taken.range(slot..) {
            if t > slot {
                break;
            }
            slot = t + 1;
        }
        self.taken.insert(slot);
        slot * self.cycle_ps
    }

    fn issued(&self) -> u64 {
        self.taken.len() as u64
    }
}

/// Turns one generated `(kind, a, b)` triple into a request time, given
/// the previous request and the latest slot claimed so far.
fn request(kind: u8, a: u64, b: u64, cycle_ps: u64, prev_ps: u64, max_slot: u64) -> u64 {
    match kind % 6 {
        // Anywhere in the span claimed so far, off the cycle grid too.
        0 => a % ((max_slot + 2) * cycle_ps),
        // On, just before and just after a 64-slot word boundary.
        1 => {
            let boundary = (a % (max_slot / 64 + 2)) * 64;
            let slot = (boundary + (b % 3)).saturating_sub(1);
            slot * cycle_ps + (b / 3) % 2
        }
        // Backfill: strictly below the previous request.
        2 => prev_ps.checked_sub(1).map_or(0, |hi| a % (hi + 1)),
        // The same time again.
        3 => prev_ps,
        // Far past the end of the bitmap grown so far.
        4 => (max_slot + 64 * (1 + a % 4096) + b % 64) * cycle_ps,
        // Dense traffic near the front of the bus.
        _ => a % (4 * cycle_ps),
    }
}

fn check_sequence(cycle_ps: u64, steps: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut bus = FairBus::new(cycle_ps);
    let mut reference = ReferenceBus::new(cycle_ps);
    let (mut prev_ps, mut max_slot) = (0u64, 0u64);
    for (i, &(kind, a, b)) in steps.iter().enumerate() {
        let at_ps = request(kind, a, b, cycle_ps, prev_ps, max_slot);
        let got = bus.claim(at_ps);
        let want = reference.claim(at_ps);
        prop_assert_eq!(got, want, "claim {} at {} ps (kind {})", i, at_ps, kind % 6);
        prop_assert_eq!(bus.issued(), reference.issued());
        prev_ps = at_ps;
        max_slot = max_slot.max(got / cycle_ps);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random claim sequences grant identical slots and counts on the
    /// bitmap and the sorted-set reference.
    #[test]
    fn bitmap_bus_matches_sorted_set_reference(
        cycle_ps in prop::sample::select(vec![1u64, 7, 833, 1000]),
        steps in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..400),
    ) {
        check_sequence(cycle_ps, &steps)?;
    }
}

#[test]
fn word_boundary_runs_spill_into_the_next_word() {
    const C: u64 = 833;
    let mut bus = FairBus::new(C);
    // Fill slots 60..=63, the tail of word 0.
    for s in 60..64 {
        assert_eq!(bus.claim(s * C), s * C);
    }
    // A request inside the full run lands on the first slot of word 1.
    assert_eq!(bus.claim(61 * C), 64 * C);
    // Backfill below the run still finds the earliest free slot.
    assert_eq!(bus.claim(0), 0);
    assert_eq!(bus.claim(59 * C + 1), 65 * C);
    assert_eq!(bus.issued(), 7);
}

#[test]
fn far_claim_leaves_the_gap_free() {
    const C: u64 = 833;
    let mut bus = FairBus::new(C);
    let far = 1_000_000 * C;
    assert_eq!(bus.claim(far), far);
    // Everything before the far claim is still free, in order.
    assert_eq!(bus.claim(0), 0);
    assert_eq!(bus.claim(0), C);
    assert_eq!(bus.claim(far), far + C);
    assert_eq!(bus.issued(), 4);
}
