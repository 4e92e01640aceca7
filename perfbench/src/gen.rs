//! The load generator: every input the benchmark feeds the program is
//! derived here from the `--seed` argument, so one seed always yields the
//! same job stream and the same arrival schedule.

use ntt_pim::engine::batch::NttJob;

/// SplitMix64: a small, fast, well-mixed generator (no dependency).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (schedule, shuffle, values).
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut base = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// `n` coefficients uniform in `0..q`.
    pub fn poly(&mut self, n: usize, q: u64) -> Vec<u64> {
        (0..n).map(|_| self.below(q)).collect()
    }
}

/// Open-loop arrival schedule: `count` send times, in seconds from the
/// start, of a Poisson process at `rate` per second, conditioned on
/// exactly `count` arrivals in `count / rate` seconds.
///
/// Built from `count + 1` exponential gaps normalised to that span (the
/// spacings of sorted uniforms — the conditional law of Poisson arrival
/// times given their number), so the offered rate is exact while the
/// gaps keep their exponential burstiness.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = Rng::fork(seed, 1);
    let gaps: Vec<f64> = (0..=count).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let span = count as f64 / rate;
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|g| {
            at += g;
            at / total * span
        })
        .collect()
}

/// One request shape of a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub kind: Kind,
    pub n: usize,
    pub q: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Forward,
    Inverse,
    Polymul,
    Split,
}

impl Shape {
    pub fn job(self, rng: &mut Rng) -> NttJob {
        let coeffs = rng.poly(self.n, self.q);
        match self.kind {
            Kind::Forward => NttJob::forward(coeffs, self.q),
            Kind::Inverse => NttJob::inverse(coeffs, self.q),
            Kind::Polymul => {
                let rhs = rng.poly(self.n, self.q);
                NttJob::negacyclic_polymul(coeffs, rhs, self.q)
            }
            Kind::Split => NttJob::split_large(coeffs, self.q),
        }
    }
}

/// The RNS modulus of the mixed workloads (`2·4096 | q − 1`).
pub const Q_RNS: u64 = 8_380_417;
/// The modulus of the large split transform (`2·16384 | q − 1`).
pub const Q_SPLIT: u64 = 2_013_265_921;
/// Length of the large split transform.
pub const N_SPLIT: usize = 16_384;

/// The mixed RNS shapes: every length in {256, 1024, 2048, 4096} under
/// every kind in {forward, inverse, negacyclic polymul}.
pub fn mixed_shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for n in [256, 1024, 2048, 4096] {
        for kind in [Kind::Forward, Kind::Inverse, Kind::Polymul] {
            shapes.push(Shape { kind, n, q: Q_RNS });
        }
    }
    shapes
}

/// `count` shapes cycling through `mix`.
pub fn cycle(mix: &[Shape], count: usize) -> Vec<Shape> {
    (0..count).map(|i| mix[i % mix.len()]).collect()
}

/// Shuffles each consecutive `block` of `pool` in a seeded order: every
/// seed carries the same work in the same blocks, and only the order
/// inside a block (and the coefficient values) depend on the seed.
pub fn shuffle_blocks(seed: u64, pool: &mut [Shape], block: usize) {
    let mut rng = Rng::fork(seed, 2);
    for chunk in pool.chunks_mut(block) {
        rng.shuffle(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 80.0, 500);
        assert_eq!(a, poisson_schedule(7, 80.0, 500));
        assert_ne!(a, poisson_schedule(8, 80.0, 500));
    }

    #[test]
    fn schedule_offers_the_exact_rate_with_exponential_gaps() {
        let rate = 400.0;
        let count = 20_000;
        let at = poisson_schedule(3, rate, count);
        assert_eq!(at.len(), count);
        assert!(at.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let span = count as f64 / rate;
        assert!(at[0] > 0.0 && at[count - 1] < span);
        let gaps: Vec<f64> = std::iter::once(at[0])
            .chain(at.windows(2).map(|w| w[1] - w[0]))
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * rate - 1.0).abs() < 0.01, "mean gap {mean}");
        // Exponential gaps: standard deviation equals the mean.
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
    }

    #[test]
    fn pool_keeps_the_mix_of_every_block_and_shuffles_by_seed() {
        let mix = mixed_shapes();
        let pool = |seed| {
            let mut shapes = cycle(&mix, 120);
            shuffle_blocks(seed, &mut shapes, 12);
            shapes
        };
        let a = pool(1);
        assert_eq!(a, pool(1));
        assert_ne!(a, pool(2));
        for block in a.chunks(12) {
            for shape in &mix {
                assert_eq!(block.iter().filter(|s| *s == shape).count(), 1);
            }
        }
    }

    #[test]
    fn jobs_are_reduced_and_reproducible() {
        let shape = Shape {
            kind: Kind::Polymul,
            n: 256,
            q: Q_RNS,
        };
        let a = shape.job(&mut Rng::fork(5, 0));
        let b = shape.job(&mut Rng::fork(5, 0));
        assert_eq!(a.coeffs, b.coeffs);
        assert!(a.coeffs.iter().all(|&c| c < Q_RNS));
    }
}
