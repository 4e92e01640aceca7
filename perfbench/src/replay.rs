//! The traced replay: every batch a workload executed is run again,
//! decomposed through the public function of each layer with a span
//! around every call, and must reproduce the recorded outcome bit for
//! bit. Its wall time is compared with the batch's untraced host time,
//! measured right before it by a plain `NttBackend::run` of the batch
//! (plus golden verification when the service verified), so that both
//! see the same host speed.

use crate::stats::percentile;
use crate::trace::{self_times, Tracer};
use ntt_bus::{BusCostModel, CpuLaneCostModel, CpuLanesBackend, NttBackend, PimBackend};
use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::{NttDirection, PimDevice, StoredOrder};
use ntt_pim::core::mapper::Program;
use ntt_pim::core::sched::DagJob;
use ntt_pim::engine::batch::{run_lane_batched, JobKind, NttJob, PlanUnit};
use ntt_pim::engine::{CpuDataflow, CpuNttEngine};
use ntt_pim::math::arith::pow_mod;
use ntt_pim::math::prime;
use ntt_pim::reference::cache::PlanCache;
use ntt_pim::reference::four_step::plan_split;
use ntt_pim::reference::lanes::LANE_WIDTH;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which backend executed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Pim,
    CpuLanes,
}

/// The simulated outcome a replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub latency_ns: f64,
    pub bus_slots: u64,
    pub rank_acts: u64,
    pub job_latency_ns: Vec<f64>,
}

/// One executed batch, as the workload recorded it.
pub struct Executed<'a> {
    pub backend: Backend,
    pub jobs: &'a [NttJob],
    /// Request id of each job (spans carry it).
    pub reqs: Vec<u64>,
    /// Golden output of each job.
    pub expected: Vec<&'a [u64]>,
    pub outcome: Outcome,
}

/// Seconds into the run after which no further batch is replayed, so a
/// traced run ends well inside its time limit even on a slow host. A
/// truncated replay is reported in the summary.
pub const REPLAY_DEADLINE_S: f64 = 140.0;

/// Largest share of a replayed batch's wall time the layer spans may
/// leave unattributed (the replay's own bookkeeping between calls).
pub const RECONCILE_TOLERANCE: f64 = 0.05;

pub struct Replayer {
    pim: PimBackend,
    pim_cost: BusCostModel,
    cpu: CpuLanesBackend,
    cpu_engine: CpuNttEngine,
    cpu_cost: CpuLaneCostModel,
    verify: Option<CpuNttEngine>,
    pub tracer: Tracer,
    roots: Vec<usize>,
    untraced_ns: Vec<u64>,
    sim_ns: f64,
    batches: [usize; 2],
    jobs: [usize; 2],
    cmds: u64,
    bus_slots: u64,
    rank_acts: u64,
    golden_jobs: usize,
    lane_jobs: usize,
    verified_batches: usize,
    cost_error: Vec<f64>,
    pub mismatches: Vec<String>,
}

impl Replayer {
    /// A replayer for batches of a device with `pim` configuration; the
    /// CPU engines read plans through `cache`, and `verify` mirrors the
    /// service's golden verification.
    pub fn new(pim: PimConfig, cache: Arc<PlanCache>, verify: bool, tracer: Tracer) -> Self {
        let engine = || CpuNttEngine::with_cache(CpuDataflow::IterativeDit, cache.clone());
        let pim_backend = PimBackend::new(pim).expect("benchmark device configuration is valid");
        let pim_cost = pim_backend.cost_model();
        Self {
            pim: pim_backend,
            pim_cost,
            cpu: CpuLanesBackend::with_cache(cache.clone()),
            cpu_engine: engine(),
            cpu_cost: CpuLaneCostModel::new(),
            verify: verify.then(engine),
            tracer,
            roots: Vec::new(),
            untraced_ns: Vec::new(),
            sim_ns: 0.0,
            batches: [0; 2],
            jobs: [0; 2],
            cmds: 0,
            bus_slots: 0,
            rank_acts: 0,
            golden_jobs: 0,
            lane_jobs: 0,
            verified_batches: 0,
            cost_error: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    /// Whether the run is past [`REPLAY_DEADLINE_S`].
    pub fn out_of_time(&self) -> bool {
        self.tracer.elapsed_s() > REPLAY_DEADLINE_S
    }

    /// Replays one batch traced, checks the outcome against the recorded
    /// one, and returns the batch's untraced host time, ns.
    pub fn replay(&mut self, batch: &Executed<'_>) -> u64 {
        let jobs = batch.jobs;
        let untraced_ns = self.plain(batch);
        self.untraced_ns.push(untraced_ns);
        self.sim_ns += batch.outcome.latency_ns;

        let root = self.tracer.enter("batch", None);
        self.roots.push(root);
        let traced = match batch.backend {
            Backend::Pim => self.traced_pim(jobs, &batch.reqs),
            Backend::CpuLanes => self.traced_cpu(jobs),
        };
        let predicted = self.tracer.leaf("bus.cost", None, || match batch.backend {
            Backend::Pim => self.pim_cost.batch_makespan_ns(jobs),
            Backend::CpuLanes => self.cpu_cost.batch_makespan_ns(jobs),
        });
        if let Some(golden) = &mut self.verify {
            let lanes = self
                .tracer
                .leaf("golden.verify", None, || run_lane_batched(golden, jobs));
            match lanes {
                Ok((expected, _, lane_jobs)) => {
                    self.golden_jobs += jobs.len();
                    self.lane_jobs += lane_jobs;
                    self.verified_batches += 1;
                    if expected
                        .iter()
                        .zip(&batch.expected)
                        .any(|(a, b)| a.as_slice() != *b)
                    {
                        self.mismatches
                            .push("golden verify disagrees with setup".into());
                    }
                }
                Err(e) => self.mismatches.push(format!("golden verify failed: {e}")),
            }
        }
        self.tracer.exit(root);

        let k = batch.backend as usize;
        self.batches[k] += 1;
        self.jobs[k] += jobs.len();
        match traced {
            Ok((spectra, outcome)) => {
                if spectra.len() != batch.expected.len()
                    || spectra
                        .iter()
                        .zip(&batch.expected)
                        .any(|(a, b)| a.as_slice() != *b)
                {
                    self.mismatches
                        .push(format!("replayed spectra differ (reqs {:?})", batch.reqs));
                }
                if outcome != batch.outcome {
                    self.mismatches.push(format!(
                        "replayed outcome differs (reqs {:?}): {outcome:?} vs {:?}",
                        batch.reqs, batch.outcome
                    ));
                }
                self.bus_slots += outcome.bus_slots;
                self.rank_acts += outcome.rank_acts;
                let reported = batch.outcome.latency_ns;
                self.cost_error
                    .push((predicted - reported).abs() / reported);
            }
            Err(e) => self.mismatches.push(format!("replay failed: {e}")),
        }
        untraced_ns
    }

    /// Host time of the batch run the way the service runs it: through
    /// `NttBackend::run`, then golden verification when it verifies.
    fn plain(&mut self, batch: &Executed<'_>) -> u64 {
        let t0 = Instant::now();
        let out = match batch.backend {
            Backend::Pim => self.pim.run(batch.jobs),
            Backend::CpuLanes => self.cpu.run(batch.jobs),
        };
        if let Some(golden) = &mut self.verify {
            std::hint::black_box(run_lane_batched(golden, batch.jobs).ok());
        }
        let ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(out.ok());
        ns
    }

    /// The PIM batch through the executor's layers: LPT plan, then per
    /// unit load / map / execute / read, then one timing pass over every
    /// bank queue — the order `BatchExecutor::run` takes.
    fn traced_pim(
        &mut self,
        jobs: &[NttJob],
        reqs: &[u64],
    ) -> Result<(Vec<Vec<u64>>, Outcome), String> {
        let tr = &mut self.tracer;
        let bus = tr.enter("bus.run_pim", None);
        let engine = tr.enter("engine.run", None);
        let exec = self.pim.executor_mut();
        let plan = tr
            .leaf("engine.plan", None, || exec.plan(jobs))
            .map_err(|e| e.to_string())?;
        let banks = exec.bank_count();
        let dev = exec.device_mut();

        struct SplitCtx {
            rows: usize,
            cols: usize,
            omega: u64,
            col_root: u32,
            row_root: u32,
            barrier: usize,
            matrix: Vec<Vec<u64>>,
        }
        let mut ctxs: BTreeMap<usize, SplitCtx> = BTreeMap::new();
        let mut spectra: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
        for (i, job) in jobs.iter().enumerate() {
            if job.kind == JobKind::SplitLarge {
                let split = plan_split(job.n(), banks).map_err(|e| e.to_string())?;
                let omega =
                    prime::root_of_unity(job.n() as u64, job.q).map_err(|e| e.to_string())?;
                let barrier = ctxs.len();
                ctxs.insert(
                    i,
                    SplitCtx {
                        rows: split.rows,
                        cols: split.cols,
                        omega,
                        col_root: pow_mod(omega, split.cols as u64, job.q) as u32,
                        row_root: pow_mod(omega, split.rows as u64, job.q) as u32,
                        barrier,
                        matrix: vec![vec![0; split.cols]; split.rows],
                    },
                );
                spectra[i] = vec![0; job.n()];
            }
        }

        type Tagged = (Program, Option<usize>, Option<usize>);
        let mut programs: Vec<Vec<Tagged>> = vec![Vec::new(); banks];
        // Pass A: ordinary jobs and column sub-jobs, in queue order.
        for (bank, queue) in plan.queues.iter().enumerate() {
            for &ui in queue {
                match plan.units[ui] {
                    PlanUnit::Job(ji) => {
                        let (program, out) = run_job(tr, dev, bank, &jobs[ji], reqs[ji])?;
                        spectra[ji] = out;
                        programs[bank].push((program, None, None));
                    }
                    PlanUnit::SplitColumn { job: ji, column } => {
                        let job = &jobs[ji];
                        let ctx = ctxs.get_mut(&ji).expect("split context exists");
                        let col: Vec<u32> = (0..ctx.rows)
                            .map(|r| job.coeffs[r * ctx.cols + column] as u32)
                            .collect();
                        let req = Some(reqs[ji]);
                        let mut h = tr
                            .leaf("funcsim.load", req, || {
                                dev.load_in_bank(
                                    bank,
                                    0,
                                    &col,
                                    job.q as u32,
                                    StoredOrder::BitReversed,
                                )
                            })
                            .map_err(|e| e.to_string())?;
                        let root = ctx.col_root;
                        let program = tr
                            .leaf("mapper.build", req, || dev.build_column_program(&h, root))
                            .map_err(|e| e.to_string())?;
                        h.assume_order(StoredOrder::Natural);
                        let out = exec_read(tr, dev, bank, &program, &h, req)?;
                        for (r, &v) in out.iter().enumerate() {
                            ctx.matrix[r][column] = u64::from(v);
                        }
                        programs[bank].push((program, None, Some(ctx.barrier)));
                    }
                    PlanUnit::SplitRow { .. } => {}
                }
            }
        }
        // Pass B: twiddled row sub-jobs, after every column drained.
        for (bank, queue) in plan.queues.iter().enumerate() {
            for &ui in queue {
                if let PlanUnit::SplitRow { job: ji, row } = plan.units[ui] {
                    let q = jobs[ji].q;
                    let ctx = &ctxs[&ji];
                    let tw = pow_mod(ctx.omega, row as u64, q) as u32;
                    let words: Vec<u32> = ctx.matrix[row].iter().map(|&c| c as u32).collect();
                    let req = Some(reqs[ji]);
                    let mut h = tr
                        .leaf("funcsim.load", req, || {
                            dev.load_in_bank(bank, 0, &words, q as u32, StoredOrder::Natural)
                        })
                        .map_err(|e| e.to_string())?;
                    let root = ctx.row_root;
                    let program = tr
                        .leaf("mapper.build", req, || {
                            dev.build_twiddle_row_program(&h, root, tw)
                        })
                        .map_err(|e| e.to_string())?;
                    h.assume_order(StoredOrder::BitReversed);
                    let out = exec_read(tr, dev, bank, &program, &h, req)?;
                    for (c, &v) in out.iter().enumerate() {
                        spectra[ji][c * ctx.rows + row] = u64::from(v);
                    }
                    programs[bank].push((program, Some(ctx.barrier), None));
                }
            }
        }
        self.cmds += programs
            .iter()
            .flatten()
            .map(|(p, _, _)| p.len() as u64)
            .sum::<u64>();
        let dag: Vec<Vec<DagJob<'_>>> = programs
            .iter()
            .map(|queue| {
                queue
                    .iter()
                    .map(|(program, waits_on, signals)| DagJob {
                        program,
                        waits_on: *waits_on,
                        signals: *signals,
                    })
                    .collect()
            })
            .collect();
        let report = tr
            .leaf("timing.schedule", None, || dev.schedule_queues_dag(&dag))
            .map_err(|e| e.to_string())?;
        let mut job_latency_ns = vec![0.0f64; jobs.len()];
        for (bank, ends) in report.job_end_ns.iter().enumerate() {
            let mut prev = 0.0;
            for (slot, &end) in ends.iter().enumerate() {
                match plan.units[plan.queues[bank][slot]] {
                    PlanUnit::Job(ji) => job_latency_ns[ji] = end - prev,
                    PlanUnit::SplitColumn { job: ji, .. } | PlanUnit::SplitRow { job: ji, .. } => {
                        job_latency_ns[ji] = job_latency_ns[ji].max(end);
                    }
                }
                prev = end;
            }
        }
        tr.exit(engine);
        tr.exit(bus);
        Ok((
            spectra,
            Outcome {
                latency_ns: report.latency_ns,
                bus_slots: report.bus_slots,
                rank_acts: report.rank_acts,
                job_latency_ns,
            },
        ))
    }

    /// The CPU-lanes batch: the lane kernel computes, and the backend's
    /// lane-wave co-simulation prices it (same-`(kind, n, q)` groups in
    /// first-seen order, each in `LANE_WIDTH`-wide waves).
    fn traced_cpu(&mut self, jobs: &[NttJob]) -> Result<(Vec<Vec<u64>>, Outcome), String> {
        let tr = &mut self.tracer;
        let bus = tr.enter("bus.run_cpu_lanes", None);
        let engine = &mut self.cpu_engine;
        let (spectra, _, lane_jobs) = tr
            .leaf("golden.lanes", None, || run_lane_batched(engine, jobs))
            .map_err(|e| e.to_string())?;
        self.golden_jobs += jobs.len();
        self.lane_jobs += lane_jobs;
        let cost = &mut self.cpu_cost;
        let (latency_ns, job_latency_ns) = tr.leaf("bus.cosim", None, || {
            let mut groups: Vec<(u8, usize, u64, Vec<usize>)> = Vec::new();
            for (i, job) in jobs.iter().enumerate() {
                let tag = match job.kind {
                    JobKind::Forward | JobKind::SplitLarge => 0,
                    JobKind::Inverse => 1,
                    JobKind::NegacyclicPolymul { .. } => 2,
                };
                match groups
                    .iter_mut()
                    .find(|g| (g.0, g.1, g.2) == (tag, job.n(), job.q))
                {
                    Some(g) => g.3.push(i),
                    None => groups.push((tag, job.n(), job.q, vec![i])),
                }
            }
            let mut now = 0.0f64;
            let mut per_job = vec![0.0; jobs.len()];
            for (_, _, _, idx) in &groups {
                let unit = cost.job_cost(&jobs[idx[0]]);
                for wave in idx.chunks(LANE_WIDTH) {
                    now += unit;
                    for &i in wave {
                        per_job[i] = unit;
                    }
                }
            }
            (now, per_job)
        });
        tr.exit(bus);
        Ok((
            spectra,
            Outcome {
                latency_ns,
                bus_slots: 0,
                rank_acts: 0,
                job_latency_ns,
            },
        ))
    }

    /// The per-layer metrics of everything replayed so far, plus the
    /// reconciliation of layer self time against batch wall time.
    pub fn layer_metrics(&self) -> LayerMetrics {
        let selfs = self_times(&self.tracer.spans);
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (span, &own) in self.tracer.spans.iter().zip(&selfs) {
            let e = by_name.entry(span.name).or_default();
            e.0 += own;
            e.1 += span.duration_ns();
        }
        let own = |name: &str| by_name.get(name).map_or(0, |e| e.0) as f64;
        let total = |name: &str| by_name.get(name).map_or(0, |e| e.1) as f64;
        let per = |v: f64, n: usize| if n == 0 { 0.0 } else { v / n as f64 };
        let [pim, cpu] = self.batches;
        let cmds = self.cmds as f64;
        let root_ns: u64 = self
            .roots
            .iter()
            .map(|&r| self.tracer.spans[r].duration_ns())
            .sum();
        let root_self: u64 = self.roots.iter().map(|&r| selfs[r]).sum();
        let untraced_ns: u64 = self.untraced_ns.iter().sum();
        let mut batch_ms: Vec<f64> = self.untraced_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        batch_ms.sort_by(f64::total_cmp);
        LayerMetrics {
            values: vec![
                (
                    "timing.schedule_ms",
                    "ms",
                    per(own("timing.schedule") / 1e6, pim),
                ),
                (
                    "timing.ns_per_cmd",
                    "ns",
                    if cmds > 0.0 {
                        own("timing.schedule") / cmds
                    } else {
                        0.0
                    },
                ),
                ("timing.bus_slots", "count", per(self.bus_slots as f64, pim)),
                ("timing.rank_acts", "count", per(self.rank_acts as f64, pim)),
                ("funcsim.exec_ms", "ms", per(own("funcsim.exec") / 1e6, pim)),
                (
                    "funcsim.load_read_ms",
                    "ms",
                    per((own("funcsim.load") + own("funcsim.read")) / 1e6, pim),
                ),
                (
                    "funcsim.ns_per_cmd",
                    "ns",
                    if cmds > 0.0 {
                        own("funcsim.exec") / cmds
                    } else {
                        0.0
                    },
                ),
                ("mapper.build_ms", "ms", per(own("mapper.build") / 1e6, pim)),
                ("mapper.cmds", "count", per(cmds, pim)),
                ("engine.plan_us", "us", per(own("engine.plan") / 1e3, pim)),
                (
                    "golden.verify_ms",
                    "ms",
                    per(own("golden.verify") / 1e6, self.verified_batches),
                ),
                (
                    "golden.lane_job_share",
                    "share",
                    per(self.lane_jobs as f64, self.golden_jobs),
                ),
                ("bus.run_ms_pim", "ms", per(total("bus.run_pim") / 1e6, pim)),
                (
                    "bus.run_ms_cpu_lanes",
                    "ms",
                    per(total("bus.run_cpu_lanes") / 1e6, cpu),
                ),
                (
                    "bus.job_share_pim",
                    "share",
                    per(self.jobs[0] as f64, self.jobs[0] + self.jobs[1]),
                ),
                (
                    "bus.cost_error",
                    "share",
                    per(self.cost_error.iter().sum(), self.cost_error.len()),
                ),
                (
                    "trace.overhead_pct",
                    "%",
                    100.0 * (root_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
                ),
                (
                    "trace.unattributed_pct",
                    "%",
                    100.0 * root_self as f64 / root_ns.max(1) as f64,
                ),
                ("batch_ms_p50", "ms", percentile(&batch_ms, 50.0)),
                ("batch_ms_p95", "ms", percentile(&batch_ms, 95.0)),
                ("wall_to_sim", "ratio", untraced_ns as f64 / self.sim_ns),
            ],
            unattributed: root_self as f64 / root_ns.max(1) as f64,
        }
    }
}

pub struct LayerMetrics {
    pub values: Vec<(&'static str, &'static str, f64)>,
    /// Share of replayed batch wall time outside every layer span.
    pub unattributed: f64,
}

/// One ordinary job on `bank`: load, map, execute, read back.
fn run_job(
    tr: &mut Tracer,
    dev: &mut PimDevice,
    bank: usize,
    job: &NttJob,
    req: u64,
) -> Result<(Program, Vec<u64>), String> {
    let req = Some(req);
    let q = job.q as u32;
    let words: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
    let err = |e: ntt_pim::core::PimError| e.to_string();
    let (program, handle) = match &job.kind {
        JobKind::Forward | JobKind::Inverse => {
            let forward = job.kind == JobKind::Forward;
            let (order, dir, after) = if forward {
                (
                    StoredOrder::BitReversed,
                    NttDirection::Forward,
                    StoredOrder::Natural,
                )
            } else {
                (
                    StoredOrder::Natural,
                    NttDirection::Inverse,
                    StoredOrder::BitReversed,
                )
            };
            let mut h = tr
                .leaf("funcsim.load", req, || {
                    dev.load_in_bank(bank, 0, &words, q, order)
                })
                .map_err(err)?;
            let program = tr
                .leaf("mapper.build", req, || dev.build_ntt_program(&h, dir))
                .map_err(err)?;
            h.assume_order(after);
            (program, h)
        }
        JobKind::NegacyclicPolymul { rhs } => {
            let wb: Vec<u32> = rhs.iter().map(|&c| c as u32).collect();
            let rhs_base = dev.config().polymul_rhs_base(job.n());
            let (ha, hb) = tr
                .leaf("funcsim.load", req, || {
                    let ha = dev.load_in_bank(bank, 0, &words, q, StoredOrder::Natural)?;
                    let hb = dev.load_in_bank(bank, rhs_base, &wb, q, StoredOrder::Natural)?;
                    Ok::<_, ntt_pim::core::PimError>((ha, hb))
                })
                .map_err(err)?;
            let program = tr
                .leaf("mapper.build", req, || dev.polymul_program(&ha, &hb))
                .map_err(err)?;
            (program, ha)
        }
        JobKind::SplitLarge => return Err("split jobs run as column/row units".into()),
    };
    let out = exec_read(tr, dev, bank, &program, &handle, req)?;
    Ok((program, out.into_iter().map(u64::from).collect()))
}

fn exec_read(
    tr: &mut Tracer,
    dev: &mut PimDevice,
    bank: usize,
    program: &Program,
    handle: &ntt_pim::core::device::PolyHandle,
    req: Option<u64>,
) -> Result<Vec<u32>, String> {
    tr.leaf("funcsim.exec", req, || dev.execute_program(bank, program))
        .map_err(|e| e.to_string())?;
    tr.leaf("funcsim.read", req, || dev.read_polynomial(handle))
        .map_err(|e| e.to_string())
}
