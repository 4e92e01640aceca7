//! Execution-layer types every backend shares, and the golden CPU model.
//!
//! Backends — the simulated PIM device, the lane-batched CPU kernels,
//! the published comparator models — run through `ntt-bus`'s per-batch
//! `NttBackend` trait. This module holds what that layer stands on:
//!
//! * [`window`] — the one shape validator ([`validate_shape`]) and the
//!   one capability-window type ([`CapabilityWindow`]). Malformed
//!   shapes are [`EngineError::Shape`] on every path; well-formed jobs
//!   outside a backend's window are [`EngineError::Unsupported`].
//! * [`batch`] — the job types ([`batch::NttJob`]), the bank-parallel
//!   PIM executor ([`batch::BatchExecutor`]) and its cost model, the
//!   `(kind, n, q)` lane grouping ([`batch::group_by_shape`]), and the
//!   lane-batched CPU path ([`batch::run_lane_batched`]).
//! * [`CpuNttEngine`] — the golden software model behind the per-op
//!   [`NttEngine`] interface: iterative DIT on the shared Shoup/Harvey
//!   lazy-reduction datapath ([`modmath::shoup`]), plans served from a
//!   shared [`PlanCache`], timed by host wall clock. The CPU window
//!   (`q < 2⁶²`) coincides with the lazy bound, so the widening kernel
//!   never runs inside it; [`cpu_kernel_label`] names the kernel a given
//!   modulus gets. Same-`(n, q)` micro-batches ride the lane-batched SoA
//!   kernel ([`crate::reference::lanes`]) through the inherent `*_batch`
//!   methods.
//!
//! Every path works on natural-order `u64` coefficients and derives the
//! transform root the same way (`ψ = root_of_unity(2N, q)`, `ω = ψ²`),
//! so outputs are bit-identical wherever capability windows overlap —
//! the cross-backend parity tests rely on exactly that.

pub mod batch;
pub mod window;

pub use window::{validate_shape, CapabilityWindow};

use crate::core::PimError;
use crate::reference::cache::{PlanCache, PlanCacheStats};
use crate::reference::plan::NttPlan;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Error type of the execution layer.
#[derive(Debug)]
pub enum EngineError {
    /// A well-formed request outside the backend's capability window
    /// ([`CapabilityWindow::admits`]).
    Unsupported {
        /// Backend display name.
        engine: String,
        /// Requested transform length.
        n: usize,
        /// Requested modulus.
        q: u64,
        /// Which capability failed.
        reason: String,
    },
    /// Malformed input ([`validate_shape`]: length, modulus, unreduced
    /// coefficients, operand mismatch) or a device-capacity violation.
    Shape {
        /// What was wrong.
        reason: String,
    },
    /// An underlying PIM device/mapper/scheduler error.
    Pim(PimError),
    /// An underlying modular-arithmetic error.
    Math(modmath::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Unsupported {
                engine,
                n,
                q,
                reason,
            } => write!(f, "{engine} does not support N={n}, q={q}: {reason}"),
            EngineError::Shape { reason } => write!(f, "bad input: {reason}"),
            EngineError::Pim(e) => write!(f, "PIM error: {e}"),
            EngineError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PimError> for EngineError {
    fn from(e: PimError) -> Self {
        EngineError::Pim(e)
    }
}

impl From<modmath::Error> for EngineError {
    fn from(e: modmath::Error) -> Self {
        EngineError::Math(e)
    }
}

/// Where a report's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// Cycle-accurate simulation (the PIM device) or a deterministic
    /// co-simulation (the CPU-lane timing model).
    Simulated,
    /// Host wall-clock measurement (the golden CPU engine).
    Measured,
    /// Published datapoints (baseline models).
    Published,
}

/// Cost/outcome of one golden-model request.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Request latency in nanoseconds.
    pub latency_ns: f64,
    /// Energy in nanojoules, when the backend models it.
    pub energy_nj: Option<f64>,
    /// DRAM row activations, when the backend counts them.
    pub activations: Option<u64>,
    /// Provenance of the numbers above.
    pub source: ReportSource,
}

impl EngineReport {
    fn measured(latency_ns: f64) -> Self {
        Self {
            latency_ns,
            energy_nj: None,
            activations: None,
            source: ReportSource::Measured,
        }
    }
}

/// The golden CPU model's per-operation interface, implemented by
/// [`CpuNttEngine`]. Every other backend runs through `ntt-bus`.
///
/// All methods use natural coefficient order and expect inputs reduced
/// mod `q`; the root of unity is `ψ = root_of_unity(2N, q)`, the same
/// derivation as the PIM memory controller, so the device agrees with
/// this model bit for bit.
///
/// ```
/// use ntt_pim::core::config::PimConfig;
/// use ntt_pim::engine::batch::{BatchExecutor, NttJob};
/// use ntt_pim::engine::{CpuNttEngine, EngineError, NttEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut golden = CpuNttEngine::golden();
/// let (n, q) = (256usize, 12289u64);
/// let input: Vec<u64> = (0..n as u64).map(|i| i * 7 % q).collect();
/// let mut spectrum = input.clone();
/// let report = golden.forward(&mut spectrum, q)?;
/// assert!(report.energy_nj.is_none()); // measured on the host
///
/// // Roundtrip: inverse undoes forward.
/// let mut back = spectrum.clone();
/// golden.inverse(&mut back, q)?;
/// assert_eq!(back, input);
///
/// // The simulated PIM device computes the identical spectrum.
/// let mut exec = BatchExecutor::new(PimConfig::hbm2e(2))?;
/// let out = exec.run(&[NttJob::forward(input, q)])?;
/// assert_eq!(out.spectra[0], spectrum);
///
/// // Malformed shapes are typed errors: 100 is not a power of two.
/// let err = golden.forward(&mut vec![0; 100], q).unwrap_err();
/// assert!(matches!(err, EngineError::Shape { .. }));
/// # Ok(())
/// # }
/// ```
pub trait NttEngine {
    /// Forward cyclic NTT in place (natural order in and out).
    fn forward(&mut self, data: &mut [u64], q: u64) -> Result<EngineReport, EngineError>;

    /// Inverse cyclic NTT in place, including the `N⁻¹` scaling.
    fn inverse(&mut self, data: &mut [u64], q: u64) -> Result<EngineReport, EngineError>;

    /// Negacyclic product `a ← a·b mod (X^N + 1, q)`.
    fn negacyclic_polymul(
        &mut self,
        a: &mut [u64],
        b: &[u64],
        q: u64,
    ) -> Result<EngineReport, EngineError>;
}

/// Which software dataflow a [`CpuNttEngine`] runs. The golden model has
/// one; the other reference dataflows (`ntt_ref::{stockham, four_step,
/// pease, blocked}`) are checked against it in their own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuDataflow {
    /// Classic in-place Cooley–Tukey DIT (the golden model).
    IterativeDit,
}

/// Which software kernel the CPU engine runs for modulus `q`: the
/// Shoup/Harvey lazy-reduction datapath whenever `q` is inside the lazy
/// bound (`q < 2⁶²`), the 128-bit widening kernel otherwise. Every
/// modulus inside [`CapabilityWindow::cpu_lanes`] is lazy.
pub fn cpu_kernel_label(q: u64) -> &'static str {
    if modmath::shoup::supports(q) {
        "shoup-lazy"
    } else {
        "widening"
    }
}

/// Name the golden engine reports in [`EngineError::Unsupported`].
const CPU_ENGINE: &str = "cpu-iterative-dit";

/// The golden CPU model as an [`NttEngine`], with `(N, q)` plans served
/// from a shared thread-safe [`PlanCache`]. Latency is measured host
/// wall clock; energy is not modeled. Requests are checked by the shared
/// shape validator, then against [`CapabilityWindow::cpu_lanes`].
///
/// Engines built with [`Self::golden`] share the process-wide
/// [`PlanCache::global`] cache, so short-lived per-thread instances (the
/// serving layer's pattern) never rebuild the O(N·log N) twiddle/Shoup
/// tables another engine already built. Hand [`Self::with_cache`] an
/// explicit cache to isolate or audit lookups.
#[derive(Debug, Clone)]
pub struct CpuNttEngine {
    cache: Arc<PlanCache>,
}

impl CpuNttEngine {
    /// The golden iterative-DIT engine, sharing the process-wide plan
    /// cache.
    pub fn golden() -> Self {
        Self::with_cache(CpuDataflow::IterativeDit, PlanCache::global())
    }

    /// An engine running `dataflow`, serving its plans from `cache`
    /// (shared with any number of sibling engines across threads).
    pub fn with_cache(dataflow: CpuDataflow, cache: Arc<PlanCache>) -> Self {
        let CpuDataflow::IterativeDit = dataflow;
        Self { cache }
    }

    /// The plan cache this engine reads through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Hit/miss counters of the engine's plan cache.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// Shape first, then the CPU window: every request the engine
    /// accepts is one `NttPlan` can run on the lazy kernel.
    fn check(data: &[u64], rhs: Option<&[u64]>, q: u64) -> Result<(), EngineError> {
        window::validate_operands(data, rhs, q)?;
        CapabilityWindow::cpu_lanes().admits(CPU_ENGINE, data.len(), q)
    }

    fn plan(&self, n: usize, q: u64) -> Result<Arc<NttPlan>, EngineError> {
        // The cache centralizes the ψ derivation (root_of_unity(2N, q)),
        // the same derivation as the PIM memory controller, so every
        // backend transforms with the identical root.
        self.cache.get_or_build(n, q).map_err(EngineError::from)
    }

    fn run(
        &mut self,
        data: &mut [u64],
        q: u64,
        f: fn(&NttPlan, &mut [u64]),
    ) -> Result<EngineReport, EngineError> {
        Self::check(data, None, q)?;
        let plan = self.plan(data.len(), q)?;
        let t0 = Instant::now();
        f(&plan, data);
        Ok(EngineReport::measured(t0.elapsed().as_nanos() as f64))
    }

    /// Validates a same-`(n, q)` batch (each `polys[i]` paired with
    /// `rhs[i]` for a polymul) and fetches its plan (`None` for an empty
    /// batch).
    fn batch_plan(
        &self,
        polys: &[Vec<u64>],
        rhs: Option<&[Vec<u64>]>,
        q: u64,
    ) -> Result<Option<Arc<NttPlan>>, EngineError> {
        let Some(first) = polys.first() else {
            return Ok(None);
        };
        let n = first.len();
        for (i, p) in polys.iter().enumerate() {
            if p.len() != n {
                return Err(EngineError::Shape {
                    reason: "batch polynomial lengths differ".into(),
                });
            }
            Self::check(p, rhs.map(|r| r[i].as_slice()), q)?;
        }
        self.plan(n, q).map(Some)
    }

    fn run_batch(
        &mut self,
        polys: &mut [Vec<u64>],
        q: u64,
        f: fn(&NttPlan, &mut [Vec<u64>]) -> usize,
    ) -> Result<(EngineReport, usize), EngineError> {
        let Some(plan) = self.batch_plan(polys, None, q)? else {
            return Ok((EngineReport::measured(0.0), 0));
        };
        let t0 = Instant::now();
        let lanes_done = f(&plan, polys);
        Ok((
            EngineReport::measured(t0.elapsed().as_nanos() as f64),
            lanes_done,
        ))
    }

    /// Forward cyclic NTT of a whole same-`(n, q)` batch, in place.
    ///
    /// Batches of at least [`crate::reference::lanes::LANE_WIDTH`]
    /// polynomials ride the lane-batched SoA kernel
    /// ([`crate::reference::lanes`]); the ragged tail — and any batch
    /// over a widening-only modulus — runs the scalar kernel. Outputs
    /// are bit-identical either way. Returns the measured report plus
    /// how many polynomials rode the lane kernel.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] when polynomial lengths differ or any
    /// polynomial fails the shape validator; [`EngineError::Unsupported`]
    /// outside the CPU window.
    pub fn forward_batch(
        &mut self,
        polys: &mut [Vec<u64>],
        q: u64,
    ) -> Result<(EngineReport, usize), EngineError> {
        self.run_batch(polys, q, crate::reference::lanes::forward_batch)
    }

    /// Inverse cyclic NTT of a whole same-`(n, q)` batch (includes the
    /// `N⁻¹` scaling); lane-batched counterpart of
    /// [`NttEngine::inverse`]. Same selection policy and return contract
    /// as [`Self::forward_batch`].
    ///
    /// # Errors
    ///
    /// As [`Self::forward_batch`].
    pub fn inverse_batch(
        &mut self,
        polys: &mut [Vec<u64>],
        q: u64,
    ) -> Result<(EngineReport, usize), EngineError> {
        self.run_batch(polys, q, crate::reference::lanes::inverse_batch)
    }

    /// Negacyclic products `lhs[i] ← lhs[i]·rhs[i] mod (Xᴺ + 1, q)` for
    /// a whole same-`(n, q)` batch; lane-batched counterpart of
    /// [`NttEngine::negacyclic_polymul`]. Same selection policy and
    /// return contract as [`Self::forward_batch`].
    ///
    /// # Errors
    ///
    /// As [`Self::forward_batch`], plus [`EngineError::Shape`] when
    /// `lhs` and `rhs` differ in batch size or operand length.
    pub fn negacyclic_polymul_batch(
        &mut self,
        lhs: &mut [Vec<u64>],
        rhs: &[Vec<u64>],
        q: u64,
    ) -> Result<(EngineReport, usize), EngineError> {
        if lhs.len() != rhs.len() {
            return Err(EngineError::Shape {
                reason: "batch lengths differ".into(),
            });
        }
        let Some(plan) = self.batch_plan(lhs, Some(rhs), q)? else {
            return Ok((EngineReport::measured(0.0), 0));
        };
        let t0 = Instant::now();
        let lanes_done = crate::reference::lanes::negacyclic_polymul_batch(&plan, lhs, rhs);
        Ok((
            EngineReport::measured(t0.elapsed().as_nanos() as f64),
            lanes_done,
        ))
    }
}

impl NttEngine for CpuNttEngine {
    fn forward(&mut self, data: &mut [u64], q: u64) -> Result<EngineReport, EngineError> {
        self.run(data, q, NttPlan::forward)
    }

    fn inverse(&mut self, data: &mut [u64], q: u64) -> Result<EngineReport, EngineError> {
        self.run(data, q, NttPlan::inverse)
    }

    fn negacyclic_polymul(
        &mut self,
        a: &mut [u64],
        b: &[u64],
        q: u64,
    ) -> Result<EngineReport, EngineError> {
        Self::check(a, Some(b), q)?;
        let plan = self.plan(a.len(), q)?;
        let t0 = Instant::now();
        let product = crate::reference::poly::mul_negacyclic(&plan, a, b);
        let latency_ns = t0.elapsed().as_nanos() as f64;
        a.copy_from_slice(&product);
        Ok(EngineReport::measured(latency_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::batch::{BatchExecutor, DeviceCostModel, NttJob};
    use super::*;
    use crate::core::config::{PimConfig, Topology};
    use crate::math::prime::{self, NttField};

    const Q: u64 = 12289;

    fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) % q
            })
            .collect()
    }

    #[test]
    fn caps_gate_bad_lengths_and_moduli() {
        let window = CapabilityWindow {
            arbitrary_modulus: true,
            native_modulus: None,
            max_n: Some(1024),
            bitwidth: 14,
            lanes: 1,
        };
        let unsupported = |w: &CapabilityWindow, n, q| {
            matches!(w.admits("w", n, q), Err(EngineError::Unsupported { .. }))
        };
        assert!(window.admits("w", 256, 12289).is_ok());
        assert!(unsupported(&window, 2048, 12289), "max_n");
        assert!(unsupported(&window, 256, 1 << 15), "bitwidth");
        let fixed = CapabilityWindow {
            arbitrary_modulus: false,
            native_modulus: Some(12289),
            ..window
        };
        assert!(fixed.admits("w", 256, 12289).is_ok(), "native modulus");
        assert!(unsupported(&fixed, 256, 7681), "fixed modulus rejects q");
        // Shape questions belong to the validator, not the window.
        let shape = |coeffs: Vec<u64>, q| {
            matches!(
                validate_shape(&NttJob::forward(coeffs, q)),
                Err(EngineError::Shape { .. })
            )
        };
        assert!(validate_shape(&NttJob::forward(poly(256, Q, 1), Q)).is_ok());
        assert!(shape(vec![0; 300], Q), "power of two");
        assert!(shape(vec![0; 256], 1 << 13), "primality");
        assert!(shape(vec![0; 1024], 7681), "needs 2N | q-1");
    }

    #[test]
    fn pim_engine_roundtrips_and_reports_simulated_cost() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2)).unwrap();
        let x = poly(256, Q, 1);
        let fwd = exec.run(&[NttJob::forward(x.clone(), Q)]).unwrap();
        assert_ne!(fwd.spectra[0], x);
        assert!(fwd.latency_ns > 0.0);
        assert!(fwd.energy_nj > 0.0);
        assert!(fwd.rank_acts >= 1);
        let inv = exec
            .run(&[NttJob::inverse(fwd.spectra[0].clone(), Q)])
            .unwrap();
        assert_eq!(inv.spectra[0], x);
    }

    #[test]
    fn cpu_engines_default_to_the_lazy_kernel() {
        // The CPU capability window (q < 2^62) coincides with the Shoup
        // lazy bound, so every supported request runs the lazy datapath.
        assert_eq!(CapabilityWindow::cpu_lanes().bitwidth, 62);
        for q in [7681u64, 12289, 8_380_417, 2_013_265_921] {
            assert_eq!(cpu_kernel_label(q), "shoup-lazy");
            let psi = prime::root_of_unity(512, q).unwrap();
            let plan = NttPlan::new(NttField::with_psi(256, q, psi).unwrap());
            assert!(plan.uses_lazy(), "q={q}");
        }
        assert_eq!(cpu_kernel_label(1 << 62), "widening");
    }

    #[test]
    fn cpu_batch_entry_points_match_scalar_and_count_lanes() {
        let mut e = CpuNttEngine::golden();
        let lane = crate::reference::lanes::LANE_WIDTH;
        let batch = lane + 3; // one lane group + a ragged scalar tail
        let orig: Vec<Vec<u64>> = (0..batch as u64).map(|i| poly(256, Q, 50 + i)).collect();

        let mut fwd = orig.clone();
        let (rep, lanes) = e.forward_batch(&mut fwd, Q).unwrap();
        assert_eq!(rep.source, ReportSource::Measured);
        assert_eq!(lanes, lane);
        for (i, p) in orig.iter().enumerate() {
            let mut expect = p.clone();
            e.forward(&mut expect, Q).unwrap();
            assert_eq!(fwd[i], expect, "poly {i}");
        }

        let (_, lanes) = e.inverse_batch(&mut fwd, Q).unwrap();
        assert_eq!(lanes, lane);
        assert_eq!(fwd, orig, "batch roundtrip");

        let rhs: Vec<Vec<u64>> = (0..batch as u64).map(|i| poly(256, Q, 80 + i)).collect();
        let mut prod = orig.clone();
        let (_, lanes) = e.negacyclic_polymul_batch(&mut prod, &rhs, Q).unwrap();
        assert_eq!(lanes, lane);
        for (i, (a, b)) in orig.iter().zip(&rhs).enumerate() {
            let mut expect = a.clone();
            e.negacyclic_polymul(&mut expect, b, Q).unwrap();
            assert_eq!(prod[i], expect, "poly {i}");
        }

        // Validation mirrors the scalar entry points.
        let mut bad = vec![vec![Q; 256]; lane];
        assert!(matches!(
            e.forward_batch(&mut bad, Q),
            Err(EngineError::Shape { .. })
        ));
        let mut ragged = vec![poly(256, Q, 1), poly(128, Q, 2)];
        assert!(matches!(
            e.forward_batch(&mut ragged, Q),
            Err(EngineError::Shape { .. })
        ));
        let (rep, lanes) = e.forward_batch(&mut [], Q).unwrap();
        assert_eq!((rep.latency_ns, lanes), (0.0, 0));
    }

    #[test]
    fn cpu_engines_roundtrip() {
        let mut e = CpuNttEngine::golden();
        let x = poly(1024, Q, 2);
        let mut v = x.clone();
        let rep = e.forward(&mut v, Q).unwrap();
        assert_eq!(rep.source, ReportSource::Measured);
        assert_ne!(v, x);
        e.inverse(&mut v, Q).unwrap();
        assert_eq!(v, x);
    }

    #[test]
    fn unsupported_requests_are_rejected_not_computed() {
        // A well-formed transform beyond the CPU window (q >= 2^62) is
        // Unsupported, and the data is left untouched.
        let q = prime::find_ntt_prime(512, 63).unwrap();
        assert!(q >= 1 << 62);
        let mut e = CpuNttEngine::golden();
        let x = poly(256, q, 4);
        let mut v = x.clone();
        let err = e.forward(&mut v, q).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err}");
        assert_eq!(v, x);
    }

    #[test]
    fn unreduced_input_is_rejected() {
        let mut e = CpuNttEngine::golden();
        let mut v = vec![Q; 256];
        assert!(matches!(
            e.forward(&mut v, Q),
            Err(EngineError::Shape { .. })
        ));
    }

    #[test]
    fn engines_agree_on_negacyclic_product() {
        let n = 256;
        let a = poly(n, Q, 5);
        let b = poly(n, Q, 6);
        let expect = crate::reference::naive::negacyclic_convolution(&a, &b, Q);
        let mut cpu = CpuNttEngine::golden();
        let mut va = a.clone();
        cpu.negacyclic_polymul(&mut va, &b, Q).unwrap();
        assert_eq!(va, expect);
        let mut pim = BatchExecutor::new(PimConfig::hbm2e(4)).unwrap();
        let out = pim.run(&[NttJob::negacyclic_polymul(a, b, Q)]).unwrap();
        assert_eq!(out.spectra[0], expect);
    }

    #[test]
    fn cost_estimates_exist_for_modeled_backends() {
        // The PIM cost model quotes exactly what the device's scheduler
        // reports for the same forward transform.
        let config = PimConfig::hbm2e(2);
        let mut model = DeviceCostModel::new(config).unwrap();
        let quote = model.transform_cost(1024);
        let mut device = crate::core::device::PimDevice::new(config).unwrap();
        let words: Vec<u32> = poly(1024, Q, 3).iter().map(|&c| c as u32).collect();
        let mut h = device.load_polynomial_bitrev(0, &words, Q as u32).unwrap();
        let rep = device
            .ntt_in_place(&mut h, crate::core::device::NttDirection::Forward)
            .unwrap();
        assert_eq!(quote, rep.latency_ns());
        assert!(model.transform_cost(4096) > quote, "bigger costs more");
    }

    #[test]
    fn engines_share_plans_through_the_cache() {
        // Two "worker" engines on one explicit cache: the second worker's
        // transforms are all cache hits — the O(N log N) table build
        // happened exactly once.
        let cache = Arc::new(PlanCache::new());
        let mut w1 = CpuNttEngine::with_cache(CpuDataflow::IterativeDit, cache.clone());
        let mut w2 = CpuNttEngine::with_cache(CpuDataflow::IterativeDit, cache.clone());
        let x = poly(256, Q, 9);
        let mut a = x.clone();
        w1.forward(&mut a, Q).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let mut b = x.clone();
        w2.forward(&mut b, Q).unwrap();
        assert_eq!(a, b, "engines agree through the shared plan");
        let stats = w2.cache_stats();
        assert_eq!(stats.misses, 1, "no rebuild for the second engine");
        assert!(stats.hits >= 1);
        assert_eq!(stats.entries, 1);
        // Golden engines all share the global cache.
        let (g1, g2) = (CpuNttEngine::golden(), CpuNttEngine::golden());
        assert!(Arc::ptr_eq(g1.plan_cache(), g2.plan_cache()));
        assert!(Arc::ptr_eq(g1.plan_cache(), &PlanCache::global()));
    }

    #[test]
    fn parallel_lanes_follow_the_device_topology() {
        let lanes = |config: PimConfig| DeviceCostModel::new(config).unwrap().lanes();
        assert_eq!(lanes(PimConfig::hbm2e(2)), 1);
        let sharded = PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4));
        assert_eq!(lanes(sharded), 16);
        assert_eq!(BatchExecutor::new(sharded).unwrap().bank_count(), 16);
        assert_eq!(CapabilityWindow::pim(16).lanes, 16);
        assert_eq!(
            CapabilityWindow::cpu_lanes().lanes,
            crate::reference::lanes::LANE_WIDTH
        );
    }
}
