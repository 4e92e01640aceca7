//! Cross-backend parity: random shapes, moduli, and kinds through the
//! registry — every backend that admits a job returns results
//! bit-identical to the golden CPU model, and every rejection is a
//! typed capability-window error, never a panic. Runs identically on
//! both feature halves (default and `simd`).
//!
//! The golden comparisons run on the Shoup/Harvey **lazy-reduction**
//! kernel: every grid modulus is inside the lazy bound (`q < 2⁶²`), so
//! parity across the PIM device, the CPU lanes, the published models and
//! the reference dataflows proves the lazy kernel against all of them.

use ntt_bus::{BackendBus, BackendSpec, EngineError, NttJob};
use ntt_pim::core::config::PimConfig;
use ntt_pim::engine::batch::{run_lane_batched, BatchExecutor, JobKind};
use ntt_pim::engine::{cpu_kernel_label, CpuNttEngine, NttEngine};
use ntt_pim::math::prime;
use ntt_pim::reference::{four_step, pease, stockham};
use proptest::prelude::*;

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

/// The length menu (64..4096 spans every backend's max-N boundary).
const LENGTHS: [usize; 5] = [64, 256, 1024, 2048, 4096];
/// Moduli with different 2-adic budgets (7681 caps n at 256; 12289 at
/// 2048; Dilithium's 8380417 at 4096).
const MODULI: [u64; 3] = [12289, 7681, 8_380_417];

fn job_for(n: usize, q: u64, kind: u8, seed: u64) -> NttJob {
    match kind % 3 {
        0 => NttJob::forward(poly(n, q, seed), q),
        1 => NttJob::inverse(poly(n, q, seed), q),
        _ => NttJob::negacyclic_polymul(poly(n, q, seed), poly(n, q, seed ^ 0xabc), q),
    }
}

fn golden(job: &NttJob) -> Vec<u64> {
    let mut cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        JobKind::Forward | JobKind::SplitLarge => cpu.forward(&mut data, job.q).unwrap(),
        JobKind::Inverse => cpu.inverse(&mut data, job.q).unwrap(),
        JobKind::NegacyclicPolymul { rhs } => {
            cpu.negacyclic_polymul(&mut data, rhs, job.q).unwrap()
        }
    };
    data
}

/// A bus with every backend kind registered: PIM, CPU lanes, and both
/// published models.
fn full_bus() -> BackendBus {
    let mut bus = BackendBus::new();
    for spec in [
        BackendSpec::default_pim(),
        BackendSpec::CpuLanes,
        BackendSpec::parse("mentt").unwrap(),
        BackendSpec::parse("bp-ntt").unwrap(),
    ] {
        bus.register(spec.build(None).unwrap());
    }
    bus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single jobs of every shape against every backend: admitted jobs
    /// are bit-identical to golden; rejected jobs fail with a typed
    /// window/shape error.
    #[test]
    fn every_admitted_job_is_bit_identical_to_golden(
        n_sel in 0usize..LENGTHS.len(),
        q_sel in 0usize..MODULI.len(),
        kind in 0u8..3,
        seed in 1u64..1_000_000,
    ) {
        let n = LENGTHS[n_sel];
        let q = MODULI[q_sel];
        let job = job_for(n, q, kind, seed);
        let shape_valid = (q - 1) % (2 * n as u64) == 0;
        let mut bus = full_bus();
        let mut admitted_somewhere = false;
        for handle in bus.handles() {
            match bus.admit(handle, &job) {
                Ok(()) => {
                    admitted_somewhere = true;
                    // Cost metadata is queryable for anything admitted.
                    let quote = bus.quote_ns(handle, &job).unwrap();
                    prop_assert!(
                        quote.is_finite() && quote > 0.0,
                        "{}: bad quote {quote}",
                        bus.label(handle)
                    );
                    let out = bus.submit(handle, std::slice::from_ref(&job)).unwrap();
                    prop_assert_eq!(
                        &out.spectra[0],
                        &golden(&job),
                        "backend {} diverged on n={} q={} kind={}",
                        bus.label(handle), n, q, kind % 3
                    );
                }
                Err(EngineError::Shape { .. } | EngineError::Unsupported { .. }) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "{}: rejection must be a typed window/shape error, got {other:?}",
                        bus.label(handle)
                    )));
                }
            }
        }
        // The CPU backend's window is the widest (62-bit, unbounded N):
        // every shape-valid job is admissible somewhere.
        prop_assert_eq!(
            admitted_somewhere,
            shape_valid,
            "n={} q={}: a valid shape must land somewhere, an invalid one nowhere",
            n, q
        );
    }

    /// Whole batches (mixed kinds, one shared shape so every backend
    /// with the shape in-window can take the batch): each backend's
    /// spectra all match golden, in order.
    #[test]
    fn admitted_batches_stay_ordered_and_bit_identical(
        specs in prop::collection::vec((0u8..3, 1u64..1_000_000), 1..10),
        n_sel in 0usize..3,
    ) {
        let n = [256usize, 512, 1024][n_sel];
        let q = 12289u64;
        let jobs: Vec<NttJob> = specs
            .iter()
            .map(|&(kind, seed)| job_for(n, q, kind, seed))
            .collect();
        let mut bus = full_bus();
        for handle in bus.handles() {
            if jobs.iter().any(|j| bus.admit(handle, j).is_err()) {
                continue;
            }
            let out = bus.submit(handle, &jobs).unwrap();
            prop_assert_eq!(out.spectra.len(), jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                prop_assert_eq!(
                    &out.spectra[i],
                    &golden(job),
                    "backend {} diverged on batch job {}",
                    bus.label(handle), i
                );
            }
        }
    }
}

/// Deterministic window pins: each backend's advertised capability
/// window rejects exactly the out-of-range shapes, with typed errors.
#[test]
fn capability_windows_are_honest() {
    let mut bus = full_bus();
    let pim = bus.by_name("pim").unwrap();
    let cpu = bus.by_name("cpu-lanes").unwrap();
    let mentt = bus.by_name("mentt").unwrap();
    let bp = bus.by_name("bp-ntt").unwrap();

    // MeNTT stops at N=1024 and its fixed modulus.
    let n2048 = NttJob::forward(poly(2048, 12289, 7), 12289);
    assert!(matches!(
        bus.admit(mentt, &n2048),
        Err(EngineError::Unsupported { .. })
    ));
    assert!(bus.admit(bp, &n2048).is_ok(), "BP-NTT reaches 4096");
    let dilithium = NttJob::forward(poly(256, 8_380_417, 7), 8_380_417);
    assert!(matches!(
        bus.admit(mentt, &dilithium),
        Err(EngineError::Unsupported { .. })
    ));
    assert!(matches!(
        bus.admit(bp, &dilithium),
        Err(EngineError::Unsupported { .. })
    ));
    assert!(bus.admit(pim, &dilithium).is_ok());

    // A >32-bit modulus is outside the PIM datapath but inside the
    // CPU's 62-bit window — and the CPU result still matches golden.
    let q_big = ntt_pim::math::prime::find_ntt_prime(512, 35).unwrap();
    assert!(q_big > u64::from(u32::MAX));
    let wide = NttJob::forward(poly(256, q_big, 9), q_big);
    assert!(bus.admit(pim, &wide).is_err());
    assert!(bus.admit(cpu, &wide).is_ok());
    let out = bus.submit(cpu, std::slice::from_ref(&wide)).unwrap();
    assert_eq!(out.spectra[0], golden(&wide));

    // Malformed jobs are Shape errors on every backend — never panics.
    let bad = NttJob::forward(vec![1; 100], 12289);
    for handle in bus.handles() {
        assert!(matches!(
            bus.admit(handle, &bad),
            Err(EngineError::Shape { .. })
        ));
    }
}

/// Registry mechanics: apertures partition the address space, dispatch
/// by address reaches the right backend, and unmapped addresses are
/// typed errors.
#[test]
fn aperture_dispatch_reaches_the_named_backend() {
    let mut bus = full_bus();
    assert_eq!(bus.len(), 4);
    let cpu = bus.by_name("cpu-lanes").unwrap();
    let range = bus.range(cpu);
    assert_eq!(bus.resolve(range.base), Some(cpu));
    assert_eq!(bus.resolve(range.base + range.len - 1), Some(cpu));
    let job = NttJob::forward(poly(256, 12289, 3), 12289);
    let out = bus
        .dispatch(range.base + 0x40, std::slice::from_ref(&job))
        .unwrap();
    assert_eq!(out.spectra[0], golden(&job));
    // Past the last aperture: typed Shape error.
    let past = ntt_bus::BACKEND_APERTURE * bus.len() as u64;
    assert!(matches!(
        bus.dispatch(past, std::slice::from_ref(&job)),
        Err(EngineError::Shape { .. })
    ));
}

/// The deterministic grid: N ∈ {256, 1024, 4096} against the Kyber-ish,
/// NewHope and Dilithium moduli. Points without a 2N-th root of unity
/// (e.g. N=1024 with q=7681) are skipped by the shape validator, never
/// by hand-maintained lists.
const GRID_LENGTHS: [usize; 3] = [256, 1024, 4096];
const GRID_MODULI: [u64; 3] = [7681, 12289, 8_380_417];

fn grid_points() -> Vec<(usize, u64)> {
    GRID_LENGTHS
        .iter()
        .flat_map(|&n| GRID_MODULI.iter().map(move |&q| (n, q)))
        .filter(|&(n, q)| ntt_bus::validate_shape(&NttJob::forward(vec![0; n], q)).is_ok())
        .collect()
}

#[test]
fn golden_grid_runs_the_lazy_kernel() {
    // Guard for the parity suite's premise: every modulus in the grid is
    // served by the Shoup-lazy datapath, so the golden comparisons
    // exercise the lazy kernel, not the widening fallback.
    for &q in GRID_MODULI.iter().chain(&MODULI) {
        assert_eq!(cpu_kernel_label(q), "shoup-lazy", "q={q}");
    }
}

#[test]
fn every_backend_matches_the_golden_transform() {
    let mut bus = full_bus();
    let mut covered = 0usize;
    for (n, q) in grid_points() {
        let job = NttJob::forward(poly(n, q, n as u64 ^ q), q);
        let expect = golden(&job);
        for handle in bus.handles() {
            if bus.admit(handle, &job).is_err() {
                continue;
            }
            let out = bus.submit(handle, std::slice::from_ref(&job)).unwrap();
            assert_eq!(
                out.spectra[0],
                expect,
                "{} disagrees with golden at N={n}, q={q}",
                bus.label(handle)
            );
            covered += 1;
        }
    }
    // PIM and the CPU lanes cover all six valid points, each published
    // model the two NewHope points inside its max N.
    assert!(covered >= 15, "only {covered} grid points ran");
}

#[test]
fn pim_device_matches_every_golden_engine_where_supported() {
    // Stated from the device's side: PIM output == the golden engine ==
    // each ntt-ref reference dataflow, on every grid point.
    let mut bus = full_bus();
    let pim = bus.by_name("pim").unwrap();
    let mut checked = 0usize;
    for (n, q) in grid_points() {
        let job = NttJob::forward(poly(n, q, 0xA5A5 ^ n as u64 ^ q), q);
        let device_out = bus.submit(pim, std::slice::from_ref(&job)).unwrap();
        assert_eq!(device_out.spectra[0], golden(&job), "golden at N={n} q={q}");
        let plan = CpuNttEngine::golden()
            .plan_cache()
            .get_or_build(n, q)
            .unwrap();
        let split = four_step::plan_split(n, 1).unwrap();
        let mut stockham_out = job.coeffs.clone();
        stockham::forward(&plan, &mut stockham_out);
        let mut pease_out = job.coeffs.clone();
        pease::forward(&plan, &mut pease_out);
        let mut four_step_out = job.coeffs.clone();
        four_step::forward(&plan, &mut four_step_out, split.rows);
        for (name, out) in [
            ("stockham", stockham_out),
            ("pease", pease_out),
            ("four-step", four_step_out),
        ] {
            assert_eq!(
                device_out.spectra[0], out,
                "{name} vs device at N={n} q={q}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 5, "device covered only {checked} grid points");
}

#[test]
fn inverse_roundtrips_through_every_backend() {
    let mut bus = full_bus();
    let (n, q) = (256usize, 12289u64);
    let input = poly(n, q, 77);
    for handle in bus.handles() {
        let label = bus.label(handle).to_string();
        let forward = NttJob::forward(input.clone(), q);
        assert!(
            bus.admit(handle, &forward).is_ok(),
            "{label} covers 256/12289"
        );
        let spectrum = bus.submit(handle, &[forward]).unwrap().spectra.remove(0);
        let back = bus.submit(handle, &[NttJob::inverse(spectrum, q)]).unwrap();
        assert_eq!(back.spectra[0], input, "{label} roundtrip");
    }
}

/// One validator, one verdict: every malformed shape is
/// `EngineError::Shape` on every path that accepts a transform, and
/// every well-formed job outside a backend's window is
/// `EngineError::Unsupported` there.
#[test]
fn malformed_shapes_get_one_verdict_on_every_path() {
    let q = 12289u64;
    let ok = poly(256, q, 5);
    let mut unreduced = ok.clone();
    unreduced[17] = q;
    let cases = [
        ("non-power-of-two n", NttJob::forward(vec![1; 100], q)),
        ("n < 4", NttJob::forward(vec![1; 2], q)),
        ("composite q", NttJob::forward(vec![1; 256], 12287)),
        ("no 2N-th root", NttJob::forward(vec![1; 1024], 7681)),
        (
            "unreduced coefficient",
            NttJob::forward(unreduced.clone(), q),
        ),
        (
            "rhs length mismatch",
            NttJob::negacyclic_polymul(ok.clone(), poly(128, q, 6), q),
        ),
        (
            "unreduced rhs",
            NttJob::negacyclic_polymul(ok.clone(), unreduced, q),
        ),
    ];
    let is_shape = |r: Result<(), EngineError>| matches!(r, Err(EngineError::Shape { .. }));
    let bus = full_bus();
    let mut exec = BatchExecutor::new(PimConfig::hbm2e(2)).unwrap();
    let mut cpu = CpuNttEngine::golden();
    for (case, job) in &cases {
        let mut data = job.coeffs.clone();
        let rhs = match &job.kind {
            JobKind::NegacyclicPolymul { rhs } => rhs.clone(),
            _ => vec![0; job.n()],
        };
        if !matches!(job.kind, JobKind::NegacyclicPolymul { .. }) {
            assert!(
                is_shape(cpu.forward(&mut data, job.q).map(drop)),
                "{case}: forward"
            );
        }
        let product = cpu.negacyclic_polymul(&mut data, &rhs, job.q);
        assert!(is_shape(product.map(drop)), "{case}: polymul");
        let lanes = run_lane_batched(&mut cpu, std::slice::from_ref(job));
        assert!(is_shape(lanes.map(drop)), "{case}: run_lane_batched");
        let batch = exec.run(std::slice::from_ref(job));
        assert!(is_shape(batch.map(drop)), "{case}: BatchExecutor::run");
        for handle in bus.handles() {
            let label = bus.label(handle);
            assert!(is_shape(bus.admit(handle, job)), "{case}: admit on {label}");
        }
    }

    // The window cases: well-formed, but outside one backend's window.
    let unsupported =
        |r: Result<(), EngineError>| matches!(r, Err(EngineError::Unsupported { .. }));
    let (pim, cpu_lanes) = (
        bus.by_name("pim").unwrap(),
        bus.by_name("cpu-lanes").unwrap(),
    );
    let (mentt, bp) = (
        bus.by_name("mentt").unwrap(),
        bus.by_name("bp-ntt").unwrap(),
    );
    let q33 = prime::find_ntt_prime(512, 35).unwrap();
    assert!(q33 > u64::from(u32::MAX));
    let wide = NttJob::forward(poly(256, q33, 9), q33);
    assert!(unsupported(bus.admit(pim, &wide)), "q >= 2^32 on pim");
    assert!(bus.admit(cpu_lanes, &wide).is_ok());
    let q63 = prime::find_ntt_prime(512, 63).unwrap();
    assert!(q63 >= 1 << 62);
    let widest = NttJob::forward(poly(256, q63, 9), q63);
    assert!(
        unsupported(bus.admit(cpu_lanes, &widest)),
        "q >= 2^62 on cpu-lanes"
    );
    let mut data = widest.coeffs.clone();
    assert!(
        unsupported(cpu.forward(&mut data, q63).map(drop)),
        "golden engine"
    );
    // Dilithium's 23-bit modulus at N=4096 is outside both
    // fixed-modulus published models but inside the device and CPU.
    let dilithium = NttJob::forward(poly(4096, 8_380_417, 7), 8_380_417);
    assert!(bus.admit(pim, &dilithium).is_ok());
    assert!(bus.admit(cpu_lanes, &dilithium).is_ok());
    for handle in [mentt, bp] {
        assert!(
            unsupported(bus.admit(handle, &dilithium)),
            "non-native q on {}",
            bus.label(handle)
        );
    }
}
