//! The serving datapath: one **router** thread turning the request
//! stream into dense micro-batches and placing them across the fleet,
//! plus one **worker** thread per device executing its queue. No thread
//! polls: each blocks on a condvar and is woken by the event it waits
//! for, so an idle service makes no wakeups at all.
//!
//! Lifecycle of one micro-batch:
//!
//! 1. **Open / fill** (router) — block until a first request is
//!    enqueued (or shutdown begins), then keep collecting until the
//!    batch holds `max_batch` requests (the fleet's total lane count by
//!    default) or the oldest has waited `max_wait`: the router sleeps
//!    exactly until that deadline, cut short only by a new request or
//!    shutdown. Shutdown closes the window early — nothing admitted is
//!    ever dropped.
//! 2. **Route** (router) — hand the batch to [`FleetRouter::route`]:
//!    argmin over per-device predicted drain time, split across devices
//!    when keeping it whole would breach the imbalance threshold. Jobs
//!    no device can serve are rejected here on their own ticket
//!    (malformed ⇒ [`ServiceError::Invalid`]; valid but the fleet has no
//!    healthy device for them ⇒ [`ServiceError::Exec`]).
//! 3. **Execute** (worker) — queuing a group wakes its device's worker,
//!    which runs it through its [`FailingDevice`]-wrapped
//!    [`NttBackend`] (a PIM device, the CPU's lane-batched kernels, or
//!    a published model — the bus makes them interchangeable),
//!    optionally re-checks results against the golden CPU model in one
//!    lane-batched sweep, and answers each ticket. A backend panic is
//!    caught and handled as a failed execution (step 4). Idle peers are
//!    woken only when a group lands on a device that is busy executing
//!    (or one pops work with more queued behind it); a woken worker
//!    **steals** from the most backed-up peer once that peer's predicted
//!    backlog exceeds its own by the steal threshold
//!    ([`fleet::pick_steal_victim`]), re-pricing the stolen group on its
//!    own cost model — provided its backend admits every stolen job. A
//!    group placed on an idle device is therefore run by that device.
//! 4. **Fail over** (worker) — a failed execution retires the backend
//!    ([`FleetRouter::mark_unhealthy`]), re-routes the failed group and
//!    everything still queued on it onto healthy peers, and only
//!    reports a typed [`ServiceError::Exec`] when no healthy backend
//!    remains (or the group has already bounced off every backend).
//!    Tickets always resolve — result or error, never a hang.
//! 5. **Re-admission** (worker) — unless disabled, a retired backend's
//!    idle worker parks with a timeout until its next probe is due,
//!    claims the router's probe slot ([`FleetRouter::request_probe`]),
//!    runs one probe job through the same fault-injected path real
//!    batches take, and on success rejoins the placement set with an
//!    empty backlog ([`FleetRouter::readmit`]); a failed probe doubles
//!    the wait (1 ms first, capped at 1,024 ms) and retires the backend
//!    again. Healthy workers never wait with a timeout.

use crate::fault::{FailingDevice, FaultSwitch};
use crate::fleet::{self, FleetRouter};
use crate::stats::StatsInner;
use crate::{lock, wait_until, BatchSummary, Pending, Response, ServiceError, Shared};
use ntt_bus::{BackendOutcome, NttBackend};
use ntt_pim::engine::batch::{self, JobKind, NttJob};
use ntt_pim::engine::{CpuNttEngine, NttEngine};
use ntt_ref::cache::PlanCache;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// First re-admission probe backoff; doubles on every failed probe.
const PROBE_BASE: Duration = Duration::from_millis(1);
/// Cap on the re-admission probe backoff.
const PROBE_CAP: Duration = Duration::from_millis(1024);

/// One placed group of requests riding to (or between) workers.
pub(crate) struct RoutedBatch {
    /// Tickets, parallel with `jobs`.
    pub(crate) pending: Vec<Pending>,
    /// The validated jobs of the group.
    pub(crate) jobs: Vec<NttJob>,
    /// Predicted makespan charged to the owning device's backlog — the
    /// amount to release via [`FleetRouter::complete`] when done.
    pub(crate) predicted_ns: f64,
    /// Devices this group has already failed on (bounces the group off
    /// at most every device before giving up with a typed error).
    pub(crate) attempts: usize,
}

/// What one device's worker waits on. Every field a parked worker's
/// wake condition reads lives under the one mutex it waits with, so a
/// wakeup cannot slip in between its check and its wait.
#[derive(Default)]
struct QueueState {
    /// Groups routed here (by the router or by failover), oldest first.
    batches: VecDeque<RoutedBatch>,
    /// The worker holds a group it has not answered yet.
    executing: bool,
    /// A busy peer's queue grew: look for work to steal before parking.
    steal_hint: bool,
    /// Shutdown: the worker exits once `batches` is empty.
    done: bool,
}

/// One device's work queue and the condvar its idle worker parks on.
#[derive(Default)]
pub(crate) struct DeviceQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

impl DeviceQueue {
    /// Appends a group and wakes the owner. Returns whether the owner
    /// was executing at the time — only then may a peer help out.
    fn put(&self, batch: RoutedBatch) -> bool {
        let mut state = lock(&self.state);
        state.batches.push_back(batch);
        let executing = state.executing;
        drop(state);
        self.wake.notify_one();
        executing
    }
}

/// State shared by the router thread and every worker.
pub(crate) struct FleetState {
    pub(crate) router: Mutex<FleetRouter>,
    /// Per-device work queues, fed by the router (and by failover).
    pub(crate) queues: Vec<DeviceQueue>,
    /// Whether idle workers steal from backed-up peers.
    pub(crate) work_stealing: bool,
    /// Whether retired backends may probe their way back into the
    /// placement set.
    pub(crate) readmission: bool,
}

impl FleetState {
    pub(crate) fn new(router: FleetRouter, work_stealing: bool, readmission: bool) -> Self {
        let devices = router.device_count();
        Self {
            router: Mutex::new(router),
            queues: (0..devices).map(|_| DeviceQueue::default()).collect(),
            work_stealing,
            readmission,
        }
    }

    fn device_count(&self) -> usize {
        self.queues.len()
    }

    /// Batches waiting (not in flight) per device — the steal policy's
    /// second input.
    fn queue_lens(&self) -> Vec<usize> {
        self.queues
            .iter()
            .map(|q| lock(&q.state).batches.len())
            .collect()
    }

    /// Queues a group on `device`. Its owner is woken first; idle peers
    /// are woken to steal only when the owner is busy executing, so a
    /// group placed on an idle device is run by the device it was
    /// routed to.
    fn push(&self, device: usize, batch: RoutedBatch) {
        if self.queues[device].put(batch) && self.work_stealing {
            self.wake_idle_peers(device);
        }
    }

    /// Nudges every idle worker but `device`'s to look for work to
    /// steal. Busy workers need no nudge: they look before parking.
    fn wake_idle_peers(&self, device: usize) {
        for (peer, queue) in self.queues.iter().enumerate() {
            if peer == device {
                continue;
            }
            let mut state = lock(&queue.state);
            if !state.executing {
                state.steal_hint = true;
                drop(state);
                queue.wake.notify_one();
            }
        }
    }

    /// Tells every worker to exit once its queue is empty.
    pub(crate) fn shut_down(&self) {
        for queue in &self.queues {
            lock(&queue.state).done = true;
            queue.wake.notify_one();
        }
    }
}

/// Answers one ticket and releases its admission slots. The release
/// happens *before* the send: a caller woken by its response must be
/// able to resubmit immediately without racing its own slot. A dropped
/// ticket (caller gave up) still releases — the send result is
/// irrelevant.
fn respond(shared: &Shared, pending: Pending, result: Result<Response, ServiceError>) {
    shared.release(&pending.tenant);
    let _ = pending.tx.send(result);
}

fn stat(shared: &Shared, update: impl FnOnce(&mut StatsInner)) {
    update(&mut lock(&shared.stats));
}

/// The front-end thread: collects micro-batches and places them.
pub(crate) struct Router {
    shared: Arc<Shared>,
    fleet: Arc<FleetState>,
    max_batch: usize,
    max_wait: Duration,
}

impl Router {
    pub(crate) fn new(
        shared: Arc<Shared>,
        fleet: Arc<FleetState>,
        max_batch: usize,
        max_wait: Duration,
    ) -> Self {
        Self {
            shared,
            fleet,
            max_batch,
            max_wait,
        }
    }

    pub(crate) fn run(mut self) {
        while let Some(batch) = self.collect() {
            self.place(batch);
        }
    }

    /// Collects the next micro-batch: `None` only when shutting down
    /// with nothing left to serve.
    fn collect(&mut self) -> Option<Vec<Pending>> {
        let shared = &*self.shared;
        let mut intake = lock(&shared.intake);
        // Phase 1: block until the batch opener arrives. A closing
        // service serves its backlog to the last request: submission
        // admits and enqueues under this same lock, so an empty queue
        // with a fully released depth proves nothing is in flight —
        // including groups a worker may still re-route on failover.
        let opener = loop {
            if let Some(pending) = intake.queue.pop_front() {
                break pending;
            }
            if intake.closing && intake.depth == 0 {
                return None;
            }
            stat(shared, |s| s.wakeups += 1);
            intake = wait_until(&shared.intake_ready, intake, None);
        };
        // Phase 2: fill until full, deadline, or shutdown.
        let deadline = Instant::now() + self.max_wait;
        let mut batch = vec![opener];
        while batch.len() < self.max_batch {
            if let Some(pending) = intake.queue.pop_front() {
                batch.push(pending);
            } else if intake.closing || Instant::now() >= deadline {
                break;
            } else {
                intake = wait_until(&shared.intake_ready, intake, Some(deadline));
            }
        }
        Some(batch)
    }

    /// Routes one micro-batch onto the fleet's queues, rejecting jobs no
    /// device can serve on their own ticket.
    fn place(&mut self, batch: Vec<Pending>) {
        let mut pending: Vec<Option<Pending>> = Vec::with_capacity(batch.len());
        let mut jobs: Vec<NttJob> = Vec::with_capacity(batch.len());
        for mut p in batch {
            jobs.push(std::mem::replace(&mut p.job, NttJob::new(Vec::new(), 0)));
            pending.push(Some(p));
        }
        let routing = lock(&self.fleet.router).route(&jobs);
        let mut jobs: Vec<Option<NttJob>> = jobs.into_iter().map(Some).collect();
        for &j in &routing.unroutable {
            let job = jobs[j].take().expect("unroutable job routed twice");
            let p = pending[j].take().expect("unroutable ticket routed twice");
            let error = self.classify_unroutable(&job);
            if matches!(error, ServiceError::Invalid { .. }) {
                stat(&self.shared, |s| s.rejected_invalid += 1);
            }
            respond(&self.shared, p, Err(error));
        }
        enqueue(&self.fleet, routing.placements, &mut pending, &mut jobs, 0);
    }

    /// Why could no healthy backend take this job? Admitted nowhere
    /// (malformed, or outside every capability window) ⇒ `Invalid`
    /// (with the first backend's typed reason); admitted by some
    /// retired backend ⇒ `Exec`.
    fn classify_unroutable(&self, job: &NttJob) -> ServiceError {
        let router = lock(&self.fleet.router);
        let mut first_reason = None;
        let mut valid_somewhere = false;
        for d in 0..router.device_count() {
            match router.admit(d, job) {
                Ok(()) => valid_somewhere = true,
                Err(e) => {
                    first_reason.get_or_insert_with(|| e.to_string());
                }
            }
        }
        if valid_somewhere {
            ServiceError::Exec {
                reason: "no healthy device can serve this request".into(),
            }
        } else {
            ServiceError::Invalid {
                reason: first_reason.unwrap_or_else(|| "fleet has no devices".into()),
            }
        }
    }
}

/// One backend's executing thread.
pub(crate) struct Worker {
    pub(crate) id: usize,
    pub(crate) device: FailingDevice,
    pub(crate) shared: Arc<Shared>,
    pub(crate) fleet: Arc<FleetState>,
    /// Golden verification engine, reading plans through the shared
    /// cache (present when the service was configured to verify).
    pub(crate) verify: Option<CpuNttEngine>,
    /// Local mirror of this backend's health — only its own worker ever
    /// retires or re-admits it.
    healthy: bool,
    /// Wait before the next re-admission probe after a failed one
    /// (doubling backoff, capped).
    probe_backoff: Duration,
    /// When the next re-admission probe is due.
    probe_at: Instant,
}

impl Worker {
    pub(crate) fn new(
        id: usize,
        backend: Box<dyn NttBackend>,
        fault: Option<Arc<FaultSwitch>>,
        shared: Arc<Shared>,
        fleet: Arc<FleetState>,
        verify_cache: Option<Arc<PlanCache>>,
    ) -> Self {
        Self {
            id,
            device: FailingDevice::new(backend, fault),
            shared,
            fleet,
            verify: verify_cache.map(|cache| {
                CpuNttEngine::with_cache(ntt_pim::engine::CpuDataflow::IterativeDit, cache)
            }),
            healthy: true,
            probe_backoff: PROBE_BASE,
            probe_at: Instant::now(),
        }
    }

    pub(crate) fn run(mut self) {
        loop {
            if let Some(batch) = self.pop_own().or_else(|| self.steal()) {
                self.process(batch);
            } else if self.probe_deadline().is_some_and(|at| at <= Instant::now()) {
                self.try_probe();
            } else if !self.park() {
                break;
            }
        }
    }

    /// When this worker must next wake on its own: only a retired
    /// backend with re-admission on has a deadline (its next probe).
    fn probe_deadline(&self) -> Option<Instant> {
        (!self.healthy && self.fleet.readmission).then_some(self.probe_at)
    }

    /// Blocks until there is something to do: a group in this device's
    /// queue, a hint that a busy peer has work to steal, a due probe,
    /// or shutdown (`false`: exit).
    fn park(&self) -> bool {
        stat(&self.shared, |s| s.wakeups += 1);
        let queue = &self.fleet.queues[self.id];
        let deadline = self.probe_deadline();
        let mut state = lock(&queue.state);
        state.executing = false;
        loop {
            if !state.batches.is_empty() || std::mem::take(&mut state.steal_hint) {
                return true;
            }
            if state.done {
                return false;
            }
            if deadline.is_some_and(|at| at <= Instant::now()) {
                return true;
            }
            state = wait_until(&queue.wake, state, deadline);
        }
    }

    /// Runs jobs on the backend. A panic inside the backend becomes an
    /// error like any other failure, so the worker survives to retire
    /// the device and answer the group's tickets.
    fn run_guarded(&mut self, jobs: &[NttJob]) -> Result<BackendOutcome, String> {
        let device = &mut self.device;
        match panic::catch_unwind(AssertUnwindSafe(|| device.run(jobs))) {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                Err(format!("backend panicked: {message}"))
            }
        }
    }

    /// One re-admission attempt: claim the router's probe slot, run the
    /// backend's probe job through the same fault-injected path real
    /// batches take, and rejoin on success. A failed probe doubles the
    /// wait before the next one.
    fn try_probe(&mut self) {
        let id = self.id;
        if !lock(&self.fleet.router).request_probe(id) {
            self.probe_at = Instant::now() + self.probe_backoff;
            return;
        }
        let probe = self.device.probe_job();
        let passed = match self.run_guarded(std::slice::from_ref(&probe)) {
            Ok(outcome) => match &mut self.verify {
                Some(golden) => outcome
                    .spectra
                    .first()
                    .is_some_and(|got| verify_one(golden, &probe, got)),
                None => true,
            },
            Err(_) => false,
        };
        if passed {
            lock(&self.fleet.router).readmit(id);
            self.healthy = true;
            self.probe_backoff = PROBE_BASE;
            self.probe_at = Instant::now();
            stat(&self.shared, |s| {
                s.readmissions += 1;
                s.devices[id].healthy = true;
                s.devices[id].readmissions += 1;
            });
        } else {
            lock(&self.fleet.router).fail_probe(id);
            self.probe_backoff = (self.probe_backoff * 2).min(PROBE_CAP);
            self.probe_at = Instant::now() + self.probe_backoff;
        }
    }

    /// Takes the oldest group routed here. If more wait behind it, idle
    /// peers are woken to steal them while this worker executes.
    fn pop_own(&self) -> Option<RoutedBatch> {
        let mut state = lock(&self.fleet.queues[self.id].state);
        let batch = state.batches.pop_front()?;
        state.executing = true;
        let backlog = !state.batches.is_empty();
        drop(state);
        if backlog && self.fleet.work_stealing {
            self.fleet.wake_idle_peers(self.id);
        }
        Some(batch)
    }

    /// Work stealing: an idle worker relieves the most backed-up peer
    /// once that peer's predicted backlog exceeds its own by more than
    /// the steal threshold, taking the *youngest* queued group (the
    /// victim keeps its oldest work — better latency fairness) and
    /// re-pricing it on its own topology.
    fn steal(&mut self) -> Option<RoutedBatch> {
        if !self.healthy || !self.fleet.work_stealing {
            return None;
        }
        let (queued, threshold) = {
            let router = lock(&self.fleet.router);
            (router.queued_ns().to_vec(), router.steal_threshold_ns())
        };
        let lens = self.fleet.queue_lens();
        let victim = fleet::pick_steal_victim(&queued, &lens, self.id, threshold)?;
        let mut batch = lock(&self.fleet.queues[victim].state).batches.pop_back()?;
        if batch.jobs.iter().any(|j| self.device.admit(j).is_err()) {
            // This backend cannot take the group (capacity or window);
            // hand it back, waking its owner in case it parked meanwhile.
            self.fleet.queues[victim].put(batch);
            return None;
        }
        lock(&self.fleet.queues[self.id].state).executing = true;
        batch.predicted_ns =
            lock(&self.fleet.router).reassign(victim, self.id, batch.predicted_ns, &batch.jobs);
        let id = self.id;
        stat(&self.shared, |s| s.devices[id].steals += 1);
        Some(batch)
    }

    fn process(&mut self, batch: RoutedBatch) {
        if !self.healthy {
            // Retired device with leftovers in its queue: drain them onto
            // the healthy fleet (accounting already released at retire
            // time for pre-retirement batches; a freshly routed batch
            // cannot land here because the router skips unhealthy
            // devices).
            self.reroute(batch, "device retired");
            return;
        }
        match self.run_guarded(&batch.jobs) {
            Ok(outcome) => self.respond_batch(batch, outcome),
            Err(reason) => self.retire(batch, &reason),
        }
    }

    /// A failed execution: retire this device, release its accounting,
    /// and push the failed group plus everything still queued here back
    /// through the router.
    fn retire(&mut self, batch: RoutedBatch, reason: &str) {
        self.healthy = false;
        let id = self.id;
        stat(&self.shared, |s| {
            s.exec_failures += 1;
            s.devices[id].exec_failures += 1;
            s.devices[id].healthy = false;
        });
        let leftovers: Vec<RoutedBatch> = lock(&self.fleet.queues[id].state)
            .batches
            .drain(..)
            .collect();
        {
            let mut router = lock(&self.fleet.router);
            router.mark_unhealthy(id);
            router.complete(id, batch.predicted_ns);
            for b in &leftovers {
                router.complete(id, b.predicted_ns);
            }
        }
        self.reroute(batch, reason);
        for b in leftovers {
            self.reroute(b, reason);
        }
    }

    /// Re-places a group whose device went away. The group's queued-ns
    /// accounting must already be released. Gives up with a typed error
    /// once the group has failed on as many devices as the fleet has —
    /// a ticket resolves, it never orbits.
    fn reroute(&self, batch: RoutedBatch, reason: &str) {
        let attempts = batch.attempts + 1;
        let failed = || {
            Err(ServiceError::Exec {
                reason: reason.to_string(),
            })
        };
        if attempts >= self.fleet.device_count() {
            for pending in batch.pending {
                respond(&self.shared, pending, failed());
            }
            return;
        }
        let routing = lock(&self.fleet.router).route(&batch.jobs);
        let mut pending: Vec<Option<Pending>> = batch.pending.into_iter().map(Some).collect();
        let mut jobs: Vec<Option<NttJob>> = batch.jobs.into_iter().map(Some).collect();
        for &j in &routing.unroutable {
            let p = pending[j].take().expect("unroutable ticket routed twice");
            respond(&self.shared, p, failed());
        }
        enqueue(
            &self.fleet,
            routing.placements,
            &mut pending,
            &mut jobs,
            attempts,
        );
    }

    /// Verifies (optionally) and answers every ticket of one executed
    /// group. The group's backlog accounting is released and the device
    /// marked idle *before* the answers go out, so a caller that replies
    /// at once finds the device free again.
    fn respond_batch(&mut self, batch: RoutedBatch, mut outcome: BackendOutcome) {
        let RoutedBatch {
            pending,
            jobs,
            predicted_ns,
            ..
        } = batch;
        // Golden verify recomputes the whole group in one sweep through
        // the lane-batched CPU kernel (same-(kind, n, q) jobs share each
        // twiddle load), falling back to job-by-job scalar verification
        // if the batched path rejects the batch.
        let mut verify_lane_jobs = 0u64;
        let verified: Vec<bool> = match &mut self.verify {
            Some(golden) => match batch::run_lane_batched(golden, &jobs) {
                Ok((expected, _, lane_jobs)) => {
                    verify_lane_jobs = lane_jobs as u64;
                    expected
                        .iter()
                        .zip(&outcome.spectra)
                        .map(|(want, got)| want == got)
                        .collect()
                }
                Err(_) => jobs
                    .iter()
                    .zip(&outcome.spectra)
                    .map(|(job, got)| verify_one(golden, job, got))
                    .collect(),
            },
            None => vec![true; jobs.len()],
        };
        let size = pending.len();
        let id = self.id;
        stat(&self.shared, |s| {
            s.batches += 1;
            s.batched_jobs += size as u64;
            s.max_batch_seen = s.max_batch_seen.max(size as u64);
            s.sim_busy_ns += outcome.latency_ns;
            s.energy_nj += outcome.energy_nj;
            s.bus_slots += outcome.bus_slots;
            s.rank_acts += outcome.rank_acts;
            s.verify_failures += verified.iter().filter(|&&ok| !ok).count() as u64;
            s.verify_lane_jobs += verify_lane_jobs;
            s.completed += verified.iter().filter(|&&ok| ok).count() as u64;
            s.devices[id].batches += 1;
            s.devices[id].jobs += size as u64;
            s.devices[id].sim_busy_ns += outcome.latency_ns;
        });
        let summary = Arc::new(BatchSummary {
            size,
            device: self.id,
            backend: self.device.label().to_string(),
            kind: self.device.kind(),
            lanes: self.device.lanes(),
            latency_ns: outcome.latency_ns,
            energy_nj: outcome.energy_nj,
            topology: outcome.topology,
            queue: outcome.queue_report.clone(),
        });
        lock(&self.fleet.router).complete(id, predicted_ns);
        lock(&self.fleet.queues[id].state).executing = false;
        for (i, p) in pending.into_iter().enumerate() {
            let result = if verified[i] {
                Ok(Response {
                    result: std::mem::take(&mut outcome.spectra[i]),
                    sim_latency_ns: outcome.job_latency_ns[i],
                    wall: p.submitted.elapsed(),
                    batch: summary.clone(),
                })
            } else {
                Err(ServiceError::VerifyFailed)
            };
            respond(&self.shared, p, result);
        }
    }
}

/// Queues each placement's share of a routed batch on its device.
/// `pending` and `jobs` are indexed by the batch position the
/// placements name; each slot is taken exactly once.
fn enqueue(
    fleet: &FleetState,
    placements: Vec<fleet::Placement>,
    pending: &mut [Option<Pending>],
    jobs: &mut [Option<NttJob>],
    attempts: usize,
) {
    for placement in placements {
        let group_pending: Vec<Pending> = placement
            .jobs
            .iter()
            .map(|&j| pending[j].take().expect("job placed twice"))
            .collect();
        let group_jobs: Vec<NttJob> = placement
            .jobs
            .iter()
            .map(|&j| jobs[j].take().expect("job placed twice"))
            .collect();
        fleet.push(
            placement.device,
            RoutedBatch {
                pending: group_pending,
                jobs: group_jobs,
                predicted_ns: placement.predicted_ns,
                attempts,
            },
        );
    }
}

/// Recomputes one job on the golden CPU model and compares.
fn verify_one(golden: &mut CpuNttEngine, job: &NttJob, got: &[u64]) -> bool {
    let mut expect = job.coeffs.clone();
    let ok = match &job.kind {
        // A split large transform is bit-identical to the whole forward
        // NTT — that is the device path's correctness contract.
        JobKind::Forward | JobKind::SplitLarge => golden.forward(&mut expect, job.q).is_ok(),
        JobKind::Inverse => golden.inverse(&mut expect, job.q).is_ok(),
        JobKind::NegacyclicPolymul { rhs } => {
            golden.negacyclic_polymul(&mut expect, rhs, job.q).is_ok()
        }
    };
    ok && expect == got
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetRouter;
    use ntt_pim::core::config::{PimConfig, Topology};

    const Q: u64 = 12289;

    fn poly(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) % Q
            })
            .collect()
    }

    fn shared(devices: &[Topology]) -> Arc<Shared> {
        Arc::new(Shared::new(64, 0, StatsInner::for_devices(devices)))
    }

    /// A deterministic end-to-end steal: device 0's worker never runs
    /// (a wedged device, the worst-case stall), its queue holds a
    /// routed batch with a large predicted backlog, and device 1's idle
    /// worker must take the work, re-price it, execute it, and resolve
    /// the ticket.
    #[test]
    fn idle_worker_steals_from_a_wedged_peer() {
        let topo = Topology::new(1, 1, 4);
        let configs = [
            PimConfig::hbm2e(2).with_topology(topo),
            PimConfig::hbm2e(2).with_topology(topo),
        ];
        let models = configs
            .iter()
            .map(|&c| ntt_bus::BackendSpec::Pim(c).cost_model().unwrap())
            .collect();
        let mut router = FleetRouter::with_backends(models, 0.0);
        let jobs = vec![NttJob::new(poly(256, 7), Q)];
        // Place the batch explicitly on device 0 (mimic the router having
        // chosen it just before the device wedged).
        let predicted = router.batch_cost_ns(0, &jobs);
        let routing = router.route(&jobs);
        assert_eq!(routing.placements.len(), 1);
        let placed = &routing.placements[0];
        let shared = shared(&[topo, topo]);
        let fleet = Arc::new(FleetState::new(router, true, true));
        // Move the placement onto device 0's queue wherever the router
        // put it, adjusting the accounting to match.
        if placed.device != 0 {
            let mut r = lock(&fleet.router);
            r.complete(placed.device, placed.predicted_ns);
            r.reassign(0, 0, 0.0, &jobs); // charge device 0 instead
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        fleet.push(
            0,
            RoutedBatch {
                pending: vec![Pending {
                    tenant: "t".into(),
                    job: NttJob::new(Vec::new(), 0),
                    submitted: Instant::now(),
                    tx,
                }],
                jobs: jobs.clone(),
                predicted_ns: predicted,
                attempts: 0,
            },
        );
        lock(&shared.intake).depth = 1;
        let backend = Box::new(ntt_bus::PimBackend::new(configs[1]).unwrap());
        let mut thief = Worker::new(1, backend, None, shared.clone(), fleet.clone(), None);
        let stolen = thief.steal().expect("backlogged peer must be stolen from");
        assert_eq!(stolen.jobs.len(), 1);
        thief.process(stolen);
        let response = rx.recv().unwrap().expect("stolen work still resolves");
        assert_eq!(response.batch.device, 1, "executed by the thief");
        let stats = lock(&shared.stats);
        assert_eq!(stats.devices[1].steals, 1);
        assert_eq!(stats.devices[1].jobs, 1);
        assert_eq!(stats.devices[0].jobs, 0);
        // Both sides of the accounting returned to zero.
        let router = lock(&fleet.router);
        assert!(router.queued_ns().iter().all(|&q| q == 0.0));
    }

    fn pim_pair() -> crate::ServiceConfig {
        let cfg = PimConfig::hbm2e(2).with_topology(Topology::new(1, 1, 4));
        crate::ServiceConfig::new(cfg).with_devices(vec![cfg, cfg])
    }

    /// Blocks until the router and both workers have parked once, so
    /// no thread is still on its start-up pass through the loop.
    fn await_parked(service: &crate::NttService) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().wakeups < 3 {
            assert!(Instant::now() < deadline, "service threads never parked");
            std::thread::yield_now();
        }
    }

    /// A group routed to an idle device is run by that device: its
    /// owner is woken, and no peer is. Each request is sent only after
    /// the previous answer, so the fleet is idle at every placement and
    /// nothing may be stolen.
    #[test]
    fn idle_owner_runs_its_own_work() {
        let service = crate::NttService::start(pim_pair()).unwrap();
        await_parked(&service);
        let client = service.client();
        for i in 0..50 {
            let ticket = client.submit("t", NttJob::new(poly(256, i), Q)).unwrap();
            ticket.wait().expect("sequential request served");
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 50);
        let steals: u64 = stats.devices.iter().map(|d| d.steals).sum();
        assert_eq!(steals, 0, "an idle owner's work was stolen");
    }

    /// An idle service blocks instead of polling: over 200 ms its three
    /// threads park about once each (a 1 kHz poll would count ~600).
    #[test]
    fn idle_service_makes_no_wakeups() {
        let service = crate::NttService::start(pim_pair()).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let wakeups = service.stats().wakeups;
        assert!(wakeups <= 4, "idle service woke {wakeups} times in 200 ms");
        service.shutdown();
    }

    /// Shutdown is woken, not timed out: an idle service joins at once,
    /// and a batch held behind a 30 s window is flushed and answered.
    #[test]
    fn shutdown_is_prompt() {
        let service = crate::NttService::start(pim_pair()).unwrap();
        let t0 = Instant::now();
        service.shutdown();
        assert!(t0.elapsed() < Duration::from_millis(100), "idle shutdown");

        let config = pim_pair()
            .with_max_wait(Duration::from_secs(30))
            .with_max_batch(64);
        let service = crate::NttService::start(config).unwrap();
        let client = service.client();
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                client
                    .submit("t", NttJob::new(poly(256, 40 + i), Q))
                    .unwrap()
            })
            .collect();
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || service.shutdown());
        for ticket in tickets {
            ticket.wait().expect("held ticket answered at shutdown");
        }
        let stats = handle.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "held-batch shutdown");
        assert_eq!(stats.completed, 3);
    }

    /// A worker below the steal threshold leaves the victim alone.
    #[test]
    fn steal_respects_the_threshold() {
        assert_eq!(
            fleet::pick_steal_victim(&[100.0, 0.0], &[1, 0], 1, 200.0),
            None
        );
        assert_eq!(
            fleet::pick_steal_victim(&[100.0, 0.0], &[1, 0], 1, 50.0),
            Some(0)
        );
        // No queued entries ⇒ nothing to steal however imbalanced.
        assert_eq!(
            fleet::pick_steal_victim(&[9999.0, 0.0], &[0, 0], 1, 0.0),
            None
        );
        // The busiest victim wins.
        assert_eq!(
            fleet::pick_steal_victim(&[50.0, 80.0, 0.0], &[1, 1, 0], 2, 0.0),
            Some(1)
        );
    }
}
