//! Service telemetry: the counters every serving decision leaves behind.

use ntt_bus::BackendKind;
use ntt_pim::core::config::Topology;
use ntt_ref::cache::PlanCacheStats;

/// Mutable counters behind the service's stats mutex.
#[derive(Debug, Default, Clone)]
pub(crate) struct StatsInner {
    pub(crate) accepted: u64,
    pub(crate) completed: u64,
    pub(crate) rejected_busy: u64,
    pub(crate) rejected_tenant: u64,
    pub(crate) rejected_invalid: u64,
    pub(crate) exec_failures: u64,
    pub(crate) verify_failures: u64,
    pub(crate) verify_lane_jobs: u64,
    pub(crate) batches: u64,
    pub(crate) batched_jobs: u64,
    pub(crate) max_batch_seen: u64,
    pub(crate) sim_busy_ns: f64,
    pub(crate) energy_nj: f64,
    pub(crate) bus_slots: u64,
    pub(crate) rank_acts: u64,
    pub(crate) readmissions: u64,
    pub(crate) wakeups: u64,
    /// One entry per fleet device, in device order.
    pub(crate) devices: Vec<DeviceStats>,
}

impl StatsInner {
    /// Seeds the per-device rows for a homogeneous PIM fleet (everything
    /// else defaults to zero). Production fleets seed through
    /// [`Self::for_backends`]; test helpers keep this shorthand.
    #[cfg(test)]
    pub(crate) fn for_devices(topologies: &[Topology]) -> Self {
        Self::for_backends(
            topologies
                .iter()
                .map(|&topology| {
                    (
                        "pim".to_string(),
                        BackendKind::Pim,
                        topology,
                        topology.total_banks(),
                    )
                })
                .collect(),
        )
    }

    /// Seeds the per-device rows from `(label, kind, topology, lanes)`
    /// descriptors, one per fleet slot in device order.
    pub(crate) fn for_backends(slots: Vec<(String, BackendKind, Topology, usize)>) -> Self {
        Self {
            devices: slots
                .into_iter()
                .enumerate()
                .map(|(device, (backend, kind, topology, lanes))| DeviceStats {
                    device,
                    backend,
                    kind,
                    topology,
                    lanes,
                    batches: 0,
                    jobs: 0,
                    sim_busy_ns: 0.0,
                    steals: 0,
                    exec_failures: 0,
                    readmissions: 0,
                    healthy: true,
                })
                .collect(),
            ..Self::default()
        }
    }

    pub(crate) fn snapshot(&self, plan_cache: PlanCacheStats) -> ServiceStats {
        ServiceStats {
            accepted: self.accepted,
            completed: self.completed,
            rejected_busy: self.rejected_busy,
            rejected_tenant: self.rejected_tenant,
            rejected_invalid: self.rejected_invalid,
            exec_failures: self.exec_failures,
            verify_failures: self.verify_failures,
            verify_lane_jobs: self.verify_lane_jobs,
            batches: self.batches,
            batched_jobs: self.batched_jobs,
            max_batch_seen: self.max_batch_seen,
            sim_busy_ns: self.sim_busy_ns,
            energy_nj: self.energy_nj,
            bus_slots: self.bus_slots,
            rank_acts: self.rank_acts,
            readmissions: self.readmissions,
            wakeups: self.wakeups,
            devices: self.devices.clone(),
            plan_cache,
        }
    }
}

/// Per-device health and occupancy counters, one row of
/// [`ServiceStats::devices`]. All counters are device-relative — in a
/// heterogeneous fleet every device reports against its *own* lane
/// count, never a fleet-wide constant.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device index in the fleet (stable across snapshots).
    pub device: usize,
    /// This slot's backend routing label (`pim`, `cpu-lanes`, `mentt`,
    /// `bp-ntt`, …).
    pub backend: String,
    /// This slot's backend family.
    pub kind: BackendKind,
    /// This device's topology (synthetic `1×1×lanes` for non-PIM
    /// backends).
    pub topology: Topology,
    /// This device's parallel lanes (total banks of **its** topology).
    pub lanes: usize,
    /// Micro-batch groups this device executed.
    pub batches: u64,
    /// Jobs this device executed.
    pub jobs: u64,
    /// Simulated busy time on this device, ns.
    pub sim_busy_ns: f64,
    /// Batches this device's worker stole from a backed-up peer.
    pub steals: u64,
    /// Batch executions that failed on this device.
    pub exec_failures: u64,
    /// Times this device was re-admitted to the router after passing a
    /// post-retirement probe job.
    pub readmissions: u64,
    /// Whether the router currently places work here. A device that
    /// fails a batch is retired; with re-admission enabled it rejoins
    /// once a probe job succeeds, otherwise retirement is permanent.
    pub healthy: bool,
}

impl DeviceStats {
    /// Mean executed batch size on this device (its batching density).
    pub fn occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.jobs as f64 / self.batches as f64
        }
    }

    /// Occupancy relative to this device's own lanes (1.0 = the mean
    /// batch filled the topology exactly; above 1.0 = batches queued
    /// more than one job per lane).
    pub fn utilization(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.occupancy() / self.lanes as f64
        }
    }
}

/// Point-in-time service counters (see [`crate::NttService::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests answered with a successful [`crate::Response`].
    pub completed: u64,
    /// Submissions shed at the global queue bound.
    pub rejected_busy: u64,
    /// Submissions shed at a per-tenant in-flight cap.
    pub rejected_tenant: u64,
    /// Admitted requests rejected on their ticket as malformed.
    pub rejected_invalid: u64,
    /// Micro-batches the device failed to execute.
    pub exec_failures: u64,
    /// Responses that failed golden verification.
    pub verify_failures: u64,
    /// Jobs whose golden verification rode the lane-batched CPU kernel
    /// (the whole micro-batch recomputes in one SoA sweep; tails shorter
    /// than the lane width verify through the scalar kernel and are not
    /// counted here).
    pub verify_lane_jobs: u64,
    /// Micro-batches flushed (by size or deadline).
    pub batches: u64,
    /// Valid jobs executed across all batches.
    pub batched_jobs: u64,
    /// Largest micro-batch executed.
    pub max_batch_seen: u64,
    /// Total simulated device time across batches, ns — the serving
    /// layer's throughput denominator (batches run back to back on one
    /// simulated device).
    pub sim_busy_ns: f64,
    /// Total simulated energy, nJ.
    pub energy_nj: f64,
    /// Command-bus slots issued across all batches.
    pub bus_slots: u64,
    /// Rank-level activations across all batches.
    pub rank_acts: u64,
    /// Devices re-admitted after retirement (fleet-wide total; per-slot
    /// counts live in [`DeviceStats::readmissions`]).
    pub readmissions: u64,
    /// Times the router or a worker found no work and went to wait. The
    /// service's threads block until woken, so an idle service adds
    /// about one per thread, not a steady rate.
    pub wakeups: u64,
    /// Per-device health and occupancy, in device order (a single-device
    /// service has exactly one row).
    pub devices: Vec<DeviceStats>,
    /// Shared plan-cache counters (twiddle/Shoup tables built vs reused).
    pub plan_cache: PlanCacheStats,
}

impl ServiceStats {
    /// Mean executed micro-batch size — the batching density the load
    /// actually achieved (1.0 = no batching, `max_batch` = perfect).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    /// Fraction of submissions shed by admission control.
    pub fn rejection_rate(&self) -> f64 {
        let offered = self.accepted + self.rejected_busy + self.rejected_tenant;
        if offered == 0 {
            0.0
        } else {
            (self.rejected_busy + self.rejected_tenant) as f64 / offered as f64
        }
    }

    /// Sustained simulated throughput, jobs per second of device time.
    /// With more than one device this denominator is the *sum* of
    /// per-device busy time; for fleet throughput (devices run in
    /// parallel) use [`Self::fleet_jobs_per_s`].
    pub fn sim_jobs_per_s(&self) -> f64 {
        if self.sim_busy_ns <= 0.0 {
            0.0
        } else {
            self.batched_jobs as f64 / (self.sim_busy_ns * 1e-9)
        }
    }

    /// Simulated wall time of the fleet, ns: the busiest device's total
    /// busy time (devices drain their queues in parallel).
    pub fn fleet_makespan_ns(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.sim_busy_ns)
            .fold(0.0, f64::max)
    }

    /// Fleet throughput, jobs per second of *parallel* simulated time
    /// ([`Self::fleet_makespan_ns`] as the denominator).
    pub fn fleet_jobs_per_s(&self) -> f64 {
        let makespan = self.fleet_makespan_ns();
        if makespan <= 0.0 {
            0.0
        } else {
            self.batched_jobs as f64 / (makespan * 1e-9)
        }
    }
}

/// Nearest-rank percentile of an **ascending-sorted** sample: the
/// smallest element such that at least `p`% of the sample is ≤ it
/// (`⌈p·len/100⌉`-th element; `p = 99` over 64 samples returns the
/// maximum, not the runner-up). Returns `0.0` on an empty sample.
/// Shared by every latency reporter (CLI `serve`, `service_loadgen`) so
/// tail percentiles cannot drift between the two.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reaches_the_tail() {
        assert_eq!(percentile(&[], 99), 0.0);
        let one = [7.0];
        assert_eq!(percentile(&one, 0), 7.0);
        assert_eq!(percentile(&one, 100), 7.0);
        // 64 samples 1..=64: p99 must be the maximum (rank ceil(63.36) =
        // 64), not the runner-up the old floor((len-1)*p/100) index gave.
        let sample: Vec<f64> = (1..=64).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99), 64.0);
        assert_eq!(percentile(&sample, 50), 32.0);
        assert_eq!(percentile(&sample, 100), 64.0);
        assert_eq!(percentile(&sample, 1), 1.0);
    }

    #[test]
    fn derived_rates_handle_empty_and_loaded_states() {
        let empty = StatsInner::default().snapshot(PlanCacheStats::default());
        assert_eq!(empty.mean_occupancy(), 0.0);
        assert_eq!(empty.rejection_rate(), 0.0);
        assert_eq!(empty.sim_jobs_per_s(), 0.0);

        let loaded = StatsInner {
            accepted: 90,
            completed: 88,
            rejected_busy: 8,
            rejected_tenant: 2,
            batches: 11,
            batched_jobs: 88,
            sim_busy_ns: 88_000.0,
            ..StatsInner::default()
        }
        .snapshot(PlanCacheStats::default());
        assert!((loaded.mean_occupancy() - 8.0).abs() < 1e-12);
        assert!((loaded.rejection_rate() - 0.1).abs() < 1e-12);
        assert!((loaded.sim_jobs_per_s() - 1_000_000.0).abs() < 1e-6);
    }
}
