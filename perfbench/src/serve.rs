//! The open-loop serving workloads: one generator thread submits a
//! seeded Poisson stream into `NttService` and never waits for replies
//! before the next send, so a slow service builds a queue instead of
//! slowing the load.

use crate::gen::{cycle, mixed_shapes, poisson_schedule, shuffle_blocks, Kind, Rng, Shape};
use crate::replay::{Backend, Executed, Outcome, Replayer};
use crate::stats::{describe, median, percentile};
use crate::trace::Tracer;
use crate::{golden_output, pim_config, Metric, Report};
use ntt_pim::engine::batch::NttJob;
use ntt_pim::reference::cache::PlanCache;
use ntt_service::{
    BackendKind, BackendSpec, BatchSummary, NttService, ServiceConfig, ServiceStats,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;

pub struct Spec {
    pub name: &'static str,
    /// Offered load, requests per second.
    pub rate: f64,
    pub mix: fn() -> Vec<Shape>,
    /// `pim:1,cpu-lanes:1` fleet instead of one PIM device.
    pub hetero: bool,
    pub verify: bool,
}

/// The mixed RNS stream into one PIM device with golden verification,
/// at about half the service's capacity on a 2-core host. Runnable, but
/// not a gated workload: its latency is host CPU time plus the queue
/// behind it, and on a shared host that spread by 16–50% of the median
/// from run to run (see README.md).
pub const SERVE_MIXED: Spec = Spec {
    name: "serve-mixed",
    rate: 80.0,
    mix: mixed_shapes,
    hetero: false,
    verify: true,
};

/// Small forward transforms into a PIM + CPU-lanes fleet, verify off:
/// per-request compute is tiny, so batching and polling dominate.
pub const SERVE_SMALL_HETERO: Spec = Spec {
    name: "serve-small-hetero",
    rate: 400.0,
    mix: small_shapes,
    hetero: true,
    verify: false,
};

fn small_shapes() -> Vec<Shape> {
    vec![Shape {
        kind: Kind::Forward,
        n: 256,
        q: 12289,
    }]
}

fn service_config(spec: &Spec, cache: Arc<PlanCache>) -> ServiceConfig {
    let config = ServiceConfig::new(pim_config())
        .with_verify_golden(spec.verify)
        .with_plan_cache(cache);
    if spec.hetero {
        config.with_backends(vec![BackendSpec::Pim(pim_config()), BackendSpec::CpuLanes])
    } else {
        config
    }
}

/// What the generator saw of one request.
struct Sent {
    due: Instant,
    call: Instant,
    returned: Instant,
    /// `(wall, simulated latency, batch)` of a correct response.
    served: Option<(Duration, f64, Arc<BatchSummary>)>,
}

impl Sent {
    /// From the intended send time to the response: the generator's
    /// lateness, the submit call, then the service's own wall time.
    fn latency(&self) -> Option<Duration> {
        self.served
            .as_ref()
            .map(|(wall, _, _)| self.returned.duration_since(self.due) + *wall)
    }
}

fn delta(after: &ServiceStats, before: &ServiceStats) -> (u64, u64, f64, u64, u64) {
    let steals = |s: &ServiceStats| s.devices.iter().map(|d| d.steals).sum::<u64>();
    let rejected = |s: &ServiceStats| s.rejected_busy + s.rejected_tenant + s.rejected_invalid;
    (
        after.batches - before.batches,
        after.batched_jobs - before.batched_jobs,
        after.sim_busy_ns - before.sim_busy_ns,
        steals(after) - steals(before),
        rejected(after) - rejected(before),
    )
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: Option<Tracer>) -> Report {
    let mix = (spec.mix)();
    let count = ((spec.rate * seconds).round() as usize).max(1);
    let schedule = poisson_schedule(seed, spec.rate, count);
    let mut shapes = cycle(&mix, count);
    shuffle_blocks(seed, &mut shapes, mix.len());
    let make_job = |i: usize| shapes[i].job(&mut Rng::fork(seed, 1000 + i as u64));
    let mut jobs: Vec<Option<NttJob>> = (0..count).map(|i| Some(make_job(i))).collect();
    let golden: Vec<Vec<u64>> = jobs.iter().flatten().map(golden_output).collect();

    // Setup: start the service and serve one request of every shape,
    // each time with a cold plan cache.
    let warm: Vec<NttJob> = mix.iter().map(|s| s.job(&mut Rng::fork(seed, 7))).collect();
    let mut setup_s = Vec::new();
    let mut live: Option<(NttService, Arc<PlanCache>)> = None;
    for _ in 0..SETUPS {
        if let Some((service, _)) = live.take() {
            service.shutdown();
        }
        let cache = Arc::new(PlanCache::new());
        let t = Instant::now();
        let service = NttService::start(service_config(spec, cache.clone()))
            .expect("valid service configuration");
        let client = service.client();
        let tickets: Vec<_> = warm
            .iter()
            .map(|j| client.submit("warm", j.clone()).expect("warm-up admitted"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("warm-up served");
        }
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((service, cache));
    }
    let (service, cache) = live.expect("at least one setup");
    let before = service.stats();
    let client = service.client();

    // Open loop: send each request at its scheduled time.
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent = Vec::with_capacity(count);
    let mut tickets = Vec::with_capacity(count);
    for (i, &at) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let call = Instant::now();
        let ticket = client.submit("bench", jobs[i].take().expect("each job is sent once"));
        let returned = Instant::now();
        tickets.push(ticket);
        sent.push(Sent {
            due,
            call,
            returned,
            served: None,
        });
    }
    let mut failed = 0u64;
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.and_then(|t| t.wait()) {
            Ok(r) if r.result == golden[i] => {
                sent[i].served = Some((r.wall, r.sim_latency_ns, r.batch))
            }
            _ => failed += 1,
        }
    }
    let after = service.stats();
    drop(client);
    service.shutdown();

    let (batches, batched_jobs, sim_busy_ns, steals, rejected) = delta(&after, &before);
    let ok = count as u64 - failed;
    let end = sent
        .iter()
        .filter_map(|s| s.latency().map(|l| s.due + l))
        .max()
        .unwrap_or(start);
    // A failed request misses every latency limit.
    let mut latency_ms: Vec<f64> = sent
        .iter()
        .map(|s| s.latency().map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3))
        .collect();
    latency_ms.sort_by(f64::total_cmp);
    let late_ms: Vec<f64> = sent
        .iter()
        .map(|s| s.call.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let submit_us: Vec<f64> = sent
        .iter()
        .map(|s| (s.returned - s.call).as_secs_f64() * 1e6)
        .collect();
    let window_s = end.duration_since(start).as_secs_f64();

    let mut report = Report::new(count as u64, failed);
    report.line(format!(
        "{}: {count} requests offered at {} req/s over {:.2} s; {batches} batches",
        spec.name, spec.rate, window_s
    ));
    report.line(describe("latency_ms", "ms", &latency_ms));
    report.line(format!("goodput_rps: {:.3}", ok as f64 / window_s));
    report.e2e = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("host_jobs_per_s", "1/s", ok as f64 / window_s),
        Metric::new(
            "sim_jobs_per_s",
            "1/s",
            batched_jobs as f64 / (sim_busy_ns * 1e-9),
        ),
        Metric::new("latency_ms_p50", "ms", percentile(&latency_ms, 50.0)),
        Metric::new("latency_ms_p90", "ms", percentile(&latency_ms, 90.0)),
    ];
    report.layers = vec![
        Metric::new("service.submit_us_p50", "us", median(&submit_us)),
        Metric::new("service.batches", "count", batches as f64),
        Metric::new(
            "service.occupancy",
            "jobs",
            batched_jobs as f64 / batches.max(1) as f64,
        ),
        Metric::new("service.steals", "count", steals as f64),
        Metric::new("service.rejected", "count", rejected as f64),
        Metric::new("gen.late_ms_p50", "ms", median(&late_ms)),
        Metric::new(
            "gen.late_ms_max",
            "ms",
            late_ms.iter().copied().fold(0.0, f64::max),
        ),
    ];

    if let Some(mut tracer) = trace {
        for (i, s) in sent.iter().enumerate() {
            let req = Some(i as u64);
            let done = s.due + s.latency().unwrap_or_default();
            let root = tracer.push("request", req, s.due, done, None);
            tracer.push("gen.late", req, s.due, s.call, Some(root));
            tracer.push("service.submit", req, s.call, s.returned, Some(root));
        }
        let mut replayer = Replayer::new(pim_config(), cache, spec.verify, tracer);
        // Responses of one micro-batch share one summary.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in sent.iter().enumerate() {
            if let Some((_, _, batch)) = &s.served {
                groups
                    .entry(Arc::as_ptr(batch) as usize)
                    .or_default()
                    .push(i);
            }
        }
        let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
        groups.sort_by_key(|members| members[0]);
        let mut overhead_ms = Vec::new();
        let executed = groups.len();
        let mut replayed = 0;
        for members in groups {
            if replayer.out_of_time() {
                break;
            }
            replayed += 1;
            let (_, _, summary) = sent[members[0]]
                .served
                .as_ref()
                .expect("grouped responses were served");
            let backend = match summary.kind {
                BackendKind::Pim => Backend::Pim,
                BackendKind::CpuLanes => Backend::CpuLanes,
                BackendKind::Published => {
                    unreachable!("the benchmark fleets have no published model")
                }
            };
            if summary.size != members.len() {
                replayer.mismatches.push(format!(
                    "batch of {} answered {} requests",
                    summary.size,
                    members.len()
                ));
            }
            let jobs: Vec<NttJob> = members.iter().map(|&i| make_job(i)).collect();
            let untraced_ns = replayer.replay(&Executed {
                backend,
                jobs: &jobs,
                reqs: members.iter().map(|&i| i as u64).collect(),
                expected: members.iter().map(|&i| golden[i].as_slice()).collect(),
                outcome: Outcome {
                    latency_ns: summary.latency_ns,
                    bus_slots: summary.queue.bus_slots,
                    rank_acts: summary.queue.rank_acts,
                    job_latency_ns: members
                        .iter()
                        .map(|&i| sent[i].served.as_ref().expect("served").1)
                        .collect(),
                },
            });
            for &i in &members {
                let wall = sent[i].served.as_ref().expect("served").0;
                overhead_ms.push((wall.as_nanos() as f64 - untraced_ns as f64) / 1e6);
            }
        }
        report.line(format!(
            "replayed {replayed} of {executed} executed batches"
        ));
        report.layers.push(Metric::new(
            "service.overhead_ms_p50",
            "ms",
            median(&overhead_ms),
        ));
        report.replay = Some(replayer);
    }
    report
}
