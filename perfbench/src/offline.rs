//! `offline-mixed`: a fixed cycle of 16-job mixed batches run back to
//! back through `PimBackend::run` on one 2×2×4 device, from one thread,
//! with no service — the paper-reproduction user (CLI `batch`, the
//! figure bins).

use crate::gen::{cycle, mixed_shapes, shuffle_blocks, Kind, Rng, Shape, N_SPLIT, Q_SPLIT};
use crate::replay::{Backend, Executed, Outcome, Replayer};
use crate::speed::ScaledClock;
use crate::stats::{describe, median, percentile};
use crate::trace::Tracer;
use crate::{golden_output, pim_config, Metric, Report};
use ntt_bus::{BackendOutcome, NttBackend, PimBackend};
use ntt_pim::engine::batch::NttJob;
use ntt_pim::reference::cache::PlanCache;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 16;
/// Batches per cycle; the last one of every cycle carries the split.
const CYCLE: usize = 8;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;

fn sim(out: &BackendOutcome) -> Outcome {
    Outcome {
        latency_ns: out.latency_ns,
        bus_slots: out.bus_slots,
        rank_acts: out.rank_acts,
        job_latency_ns: out.job_latency_ns.clone(),
    }
}

pub fn run(seed: u64, seconds: f64, trace: Option<Tracer>) -> Report {
    // Inputs: every batch holds a fixed set of shapes — the 12 RNS
    // shapes in turn, and one split N=16384 transform in the last batch
    // of the cycle — in a seeded order.
    let mix = mixed_shapes();
    let split = Shape {
        kind: Kind::Split,
        n: N_SPLIT,
        q: Q_SPLIT,
    };
    let mut shapes = cycle(&mix, BATCH * CYCLE - 1);
    shapes.push(split);
    shuffle_blocks(seed, &mut shapes, BATCH);
    let jobs: Vec<NttJob> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| s.job(&mut Rng::fork(seed, 1000 + i as u64)))
        .collect();
    let golden: Vec<Vec<u64>> = jobs.iter().map(golden_output).collect();
    let batches: Vec<&[NttJob]> = jobs.chunks(BATCH).collect();

    // Setup: build the backend and warm it with one job of every shape.
    let warm: Vec<NttJob> = mix
        .iter()
        .chain([&split])
        .map(|s| s.job(&mut Rng::fork(seed, 7)))
        .collect();
    let mut clock = ScaledClock::new();
    let mut setup_raw = Vec::new();
    let mut setup_s = Vec::new();
    let mut backend = None;
    for _ in 0..SETUPS {
        let (raw, scaled, b) = clock.time(|| {
            let mut b = PimBackend::new(pim_config()).expect("valid device configuration");
            b.run(&warm).expect("warm-up batch runs");
            b
        });
        setup_raw.push(raw as f64 * 1e-9);
        setup_s.push(scaled * 1e-9);
        backend = Some(b);
    }
    let mut backend = backend.expect("at least one setup");

    // Measured: whole cycles until the time is up.
    let mut first: Vec<Option<Outcome>> = vec![None; CYCLE];
    let mut batch_ns: Vec<u64> = Vec::new();
    let mut scaled_ms: Vec<Vec<f64>> = vec![Vec::new(); CYCLE];
    let mut cycles = 0;
    let (mut attempted, mut failed, mut drift) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for (b, batch) in batches.iter().enumerate() {
            let (dt, scaled, out) = clock.time(|| backend.run(batch));
            batch_ns.push(dt);
            scaled_ms[b].push(scaled / 1e6);
            attempted += batch.len() as u64;
            let Ok(out) = out else {
                failed += batch.len() as u64;
                continue;
            };
            let base = b * BATCH;
            failed += out
                .spectra
                .iter()
                .zip(&golden[base..])
                .filter(|(got, want)| got != want)
                .count() as u64;
            // Simulated results must repeat exactly, cycle after cycle.
            let now = sim(&out);
            match &first[b] {
                None => first[b] = Some(now),
                Some(seen) if *seen == now => {}
                Some(_) => drift += 1,
            }
        }
        cycles += 1;
    }
    let first: Vec<Outcome> = first
        .into_iter()
        .map(|o| o.expect("every batch ran"))
        .collect();
    let sim_ns: f64 = first.iter().map(|o| o.latency_ns).sum();
    let sim_jobs_per_s = (BATCH * CYCLE) as f64 / (sim_ns * 1e-9);
    // Each batch repeats identical work every cycle: take its median
    // scaled time. Every job of a batch completes with its batch.
    let typical_ms: Vec<f64> = scaled_ms.iter().map(|ms| median(ms)).collect();
    let mut job_ms: Vec<f64> = Vec::new();
    for (batch, &ms) in batches.iter().zip(&typical_ms) {
        job_ms.extend(std::iter::repeat_n(ms, batch.len()));
    }
    job_ms.sort_by(f64::total_cmp);
    let host_jobs_per_s = (BATCH * CYCLE) as f64 / (typical_ms.iter().sum::<f64>() * 1e-3);
    let batch_ms: Vec<f64> = batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let host_s: f64 = batch_ns.iter().sum::<u64>() as f64 * 1e-9;

    let mut report = Report::new(attempted, failed + drift * BATCH as u64);
    report.line(format!(
        "offline-mixed: {cycles} cycles x {CYCLE} batches x {BATCH} jobs, sim {:.1} us per cycle",
        sim_ns / 1e3
    ));
    report.line(describe("batch_ms (raw)", "ms", &batch_ms));
    report.line(format!(
        "host speed: reference kernel at {:.3}x its nominal time; raw setup_s {:.4}, raw host_jobs_per_s {:.2}",
        clock.slowdown(),
        median(&setup_raw),
        (BATCH * CYCLE * cycles) as f64 / host_s
    ));
    report.line(format!(
        "wall_to_sim: {:.1} host s per simulated s; batches whose simulated outcome drifted: {drift}",
        host_s / (sim_ns * 1e-9 * cycles as f64)
    ));
    report.e2e = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("host_jobs_per_s", "1/s", host_jobs_per_s),
        Metric::new("sim_jobs_per_s", "1/s", sim_jobs_per_s),
        Metric::new("latency_ms_p50", "ms", percentile(&job_ms, 50.0)),
        Metric::new("latency_ms_p90", "ms", percentile(&job_ms, 90.0)),
    ];

    if let Some(tracer) = trace {
        let mut replayer = Replayer::new(pim_config(), Arc::new(PlanCache::new()), false, tracer);
        let mut replayed = 0;
        'replay: for c in 0..cycles {
            for (b, batch) in batches.iter().enumerate() {
                if replayer.out_of_time() {
                    break 'replay;
                }
                replayed += 1;
                let base = b * BATCH;
                replayer.replay(&Executed {
                    backend: Backend::Pim,
                    jobs: batch,
                    reqs: (0..batch.len())
                        .map(|j| ((c * CYCLE * BATCH) + base + j) as u64)
                        .collect(),
                    expected: golden[base..base + batch.len()]
                        .iter()
                        .map(Vec::as_slice)
                        .collect(),
                    outcome: first[b].clone(),
                });
            }
        }
        report.line(format!(
            "replayed {replayed} of {} executed batches",
            cycles * CYCLE
        ));
        report.replay = Some(replayer);
    }
    report
}
