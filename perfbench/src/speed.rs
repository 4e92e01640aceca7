//! Host-speed reference for CPU-bound timings.
//!
//! A shared host's speed drifts: a fixed single-threaded loop on the
//! 2-core development host ran anywhere from 1.0× to 1.5× its slowest
//! speed, in spells of seconds to minutes, so raw CPU-bound times spread
//! by more than any useful regression bound from run to run. Each timed
//! call is therefore bracketed by a fixed reference kernel that belongs
//! to the benchmark (it never changes with the repository), and its time
//! is scaled to the reference's nominal speed:
//! `scaled = raw × NOMINAL_NS / mean(reference before, reference after)`.
//! The kernel is ordered-set and vector churn, like the timing
//! simulator's hot path, so both slow down together. Raw times are
//! printed beside the scaled ones.

use crate::gen::Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// The reference kernel's time at nominal host speed (its time on the
/// development host in a quiet spell), ns.
pub const NOMINAL_NS: f64 = 4.0e6;

fn reference_kernel() -> u64 {
    let mut rng = Rng::fork(0, 99);
    let mut set = BTreeSet::new();
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        set.insert(rng.next_u64() % 200_000);
        if i % 2 == 0 {
            if let Some(first) = set.pop_first() {
                acc = acc.wrapping_add(first);
            }
        }
    }
    let kept: Vec<u64> = set.into_iter().collect();
    kept.iter()
        .fold(acc, |a, &x| a.wrapping_mul(31).wrapping_add(x))
}

fn reference_ns() -> u64 {
    let t = Instant::now();
    std::hint::black_box(reference_kernel());
    t.elapsed().as_nanos() as u64
}

/// `raw` ns scaled to nominal host speed, given the reference times
/// measured just before and just after it.
pub fn scale(raw: u64, before: u64, after: u64) -> f64 {
    raw as f64 * NOMINAL_NS * 2.0 / (before + after) as f64
}

/// Times calls back to back, each bracketed by reference runs (one
/// reference run sits between consecutive calls).
pub struct ScaledClock {
    last_reference: u64,
    /// Every reference time measured, ns.
    pub references: Vec<u64>,
}

impl ScaledClock {
    pub fn new() -> Self {
        let first = reference_ns();
        Self {
            last_reference: first,
            references: vec![first],
        }
    }

    /// Runs `call`; returns its raw ns, its scaled ns and its output.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> (u64, f64, T) {
        let t = Instant::now();
        let out = call();
        let raw = t.elapsed().as_nanos() as u64;
        let after = reference_ns();
        let scaled = scale(raw, self.last_reference, after);
        self.last_reference = after;
        self.references.push(after);
        (raw, scaled, out)
    }

    /// Median reference time over nominal: above 1 on a slow spell.
    pub fn slowdown(&self) -> f64 {
        let ns: Vec<f64> = self.references.iter().map(|&r| r as f64).collect();
        crate::stats::median(&ns) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_the_host_speed() {
        let nominal = NOMINAL_NS as u64;
        assert_eq!(scale(1_000, nominal, nominal), 1_000.0);
        // Twice as slow on both sides: half the raw time.
        assert_eq!(scale(2_000, 2 * nominal, 2 * nominal), 1_000.0);
        // The mean of the two brackets is the host speed of the call.
        assert_eq!(scale(1_500, nominal, 2 * nominal), 1_000.0);
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }
}
