//! Parseable backend fleet descriptions (`"pim:2,cpu-lanes:1,bp-ntt:1"`).
//!
//! [`BackendSpec`] is the one value the service configuration and the
//! CLI carry per fleet slot; [`BackendSpec::build`] turns it into a
//! live [`NttBackend`] and [`BackendSpec::cost_model`] into the router's
//! pricing entry, so every layer agrees on what a `"cpu-lanes"` slot
//! means.

use crate::backend::{CpuLanesBackend, NttBackend, PimBackend, PublishedBackend};
use crate::cost::{BusCostModel, CpuLaneCostModel, PublishedCostModel};
use crate::window::BackendKind;
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::DeviceCostModel;
use ntt_pim::reference::cache::PlanCache;
use pim_baselines::{BpNttModel, MenttModel, NttAccelerator};
use std::fmt;
use std::sync::Arc;

/// Largest fleet any description may name. Every slot gets a worker
/// thread and a backend, so the bound is checked before anything is
/// allocated; the largest fleet any bench or test builds is 16.
pub const MAX_FLEET_SLOTS: usize = 1024;

/// Why a fleet description was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An empty entry, an unknown backend name, or a bad count.
    Malformed(String),
    /// The entries name more than [`MAX_FLEET_SLOTS`] slots in total
    /// (`requested` saturates at `usize::MAX`).
    TooManySlots {
        /// Total slots the description asked for.
        requested: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed(reason) => f.write_str(reason),
            SpecError::TooManySlots { requested } => write!(
                f,
                "fleet of {requested} slots exceeds the limit of {MAX_FLEET_SLOTS}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Which published comparator a `published` slot models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishedKind {
    /// MeNTT: 6T-SRAM bit-serial PIM (max N 1024, fixed modulus).
    Mentt,
    /// BP-NTT: bit-parallel in-SRAM multiplier (max N 4096, fixed
    /// modulus).
    BpNtt,
}

impl PublishedKind {
    /// The slot's routing label.
    pub fn label(self) -> &'static str {
        match self {
            PublishedKind::Mentt => "mentt",
            PublishedKind::BpNtt => "bp-ntt",
        }
    }

    fn model(self) -> Arc<dyn NttAccelerator + Send + Sync> {
        match self {
            PublishedKind::Mentt => Arc::new(MenttModel),
            PublishedKind::BpNtt => Arc::new(BpNttModel),
        }
    }
}

/// One fleet slot: which backend to stand up there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// A simulated PIM device with this configuration.
    Pim(PimConfig),
    /// The host CPU's lane-batched kernels.
    CpuLanes,
    /// A published comparator model.
    Published(PublishedKind),
}

impl BackendSpec {
    /// The default PIM slot: 2 atom buffers, `1×1×4` topology — the
    /// shape `serve` has always defaulted to per device.
    pub fn default_pim() -> Self {
        BackendSpec::Pim(PimConfig::hbm2e(2).with_topology(Topology::new(1, 1, 4)))
    }

    /// Parses one slot name: `pim`, `cpu-lanes`, `mentt`, or `bp-ntt`
    /// (a parsed `pim` gets the [`Self::default_pim`] configuration;
    /// callers with their own topology substitute it afterwards).
    ///
    /// # Errors
    ///
    /// A description of the unknown name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pim" => Ok(Self::default_pim()),
            "cpu-lanes" => Ok(BackendSpec::CpuLanes),
            "mentt" => Ok(BackendSpec::Published(PublishedKind::Mentt)),
            "bp-ntt" => Ok(BackendSpec::Published(PublishedKind::BpNtt)),
            other => Err(format!(
                "unknown backend `{other}` (expected `pim`, `cpu-lanes`, `mentt`, or `bp-ntt`)"
            )),
        }
    }

    /// Parses a fleet description: comma-separated `name` or
    /// `name:count` entries, e.g. `pim:2,cpu-lanes:1,bp-ntt:1`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Malformed`] naming the first malformed entry, or
    /// [`SpecError::TooManySlots`] when the counts add up to more than
    /// [`MAX_FLEET_SLOTS`] (checked before any slot is allocated).
    pub fn parse_list(s: &str) -> Result<Vec<Self>, SpecError> {
        let mut entries = Vec::new();
        let mut total = 0usize;
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err(SpecError::Malformed("empty backend entry".into()));
            }
            let (name, count) = match entry.split_once(':') {
                Some((name, count)) => (
                    name,
                    count
                        .parse::<usize>()
                        .map_err(|_| SpecError::Malformed(format!("bad count in `{entry}`")))?,
                ),
                None => (entry, 1),
            };
            if count == 0 {
                return Err(SpecError::Malformed(format!("zero count in `{entry}`")));
            }
            entries.push((Self::parse(name).map_err(SpecError::Malformed)?, count));
            total = total.saturating_add(count);
        }
        if total > MAX_FLEET_SLOTS {
            return Err(SpecError::TooManySlots { requested: total });
        }
        Ok(entries
            .into_iter()
            .flat_map(|(spec, count)| std::iter::repeat_n(spec, count))
            .collect())
    }

    /// The slot's routing label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Pim(_) => "pim",
            BackendSpec::CpuLanes => "cpu-lanes",
            BackendSpec::Published(k) => k.label(),
        }
    }

    /// The slot's backend family.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendSpec::Pim(_) => BackendKind::Pim,
            BackendSpec::CpuLanes => BackendKind::CpuLanes,
            BackendSpec::Published(_) => BackendKind::Published,
        }
    }

    /// Stands up the backend this slot describes. CPU slots share
    /// `cache` when given (one plan cache across a fleet's CPU slots and
    /// verifiers).
    ///
    /// # Errors
    ///
    /// Propagates PIM configuration validation errors.
    pub fn build(&self, cache: Option<&Arc<PlanCache>>) -> Result<Box<dyn NttBackend>, PimError> {
        Ok(match self {
            BackendSpec::Pim(config) => Box::new(PimBackend::new(*config)?),
            BackendSpec::CpuLanes => Box::new(match cache {
                Some(cache) => CpuLanesBackend::with_cache(Arc::clone(cache)),
                None => CpuLanesBackend::new(),
            }),
            BackendSpec::Published(k) => Box::new(PublishedBackend::new(k.label(), k.model())),
        })
    }

    /// The router-side cost model pricing this slot.
    ///
    /// # Errors
    ///
    /// Propagates PIM configuration validation errors.
    pub fn cost_model(&self) -> Result<BusCostModel, PimError> {
        Ok(match self {
            BackendSpec::Pim(config) => BusCostModel::Pim(DeviceCostModel::new(*config)?),
            BackendSpec::CpuLanes => BusCostModel::CpuLanes(CpuLaneCostModel::new()),
            BackendSpec::Published(k) => {
                BusCostModel::Published(PublishedCostModel::new(k.label(), k.model()))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_descriptions_are_bounded_before_allocation() {
        assert_eq!(
            BackendSpec::parse_list("pim:18446744073709551615"),
            Err(SpecError::TooManySlots {
                requested: usize::MAX
            })
        );
        assert_eq!(
            BackendSpec::parse_list("cpu-lanes:3000000"),
            Err(SpecError::TooManySlots {
                requested: 3_000_000
            })
        );
        // The total counts, and it saturates instead of wrapping.
        assert_eq!(
            BackendSpec::parse_list("pim:1000,cpu-lanes:25"),
            Err(SpecError::TooManySlots { requested: 1025 })
        );
        assert_eq!(
            BackendSpec::parse_list("pim:18446744073709551615,mentt:2"),
            Err(SpecError::TooManySlots {
                requested: usize::MAX
            })
        );
        let at_limit = BackendSpec::parse_list(&format!("cpu-lanes:{MAX_FLEET_SLOTS}")).unwrap();
        assert_eq!(at_limit.len(), MAX_FLEET_SLOTS);
        let err = BackendSpec::parse_list("pim:2000").unwrap_err();
        assert!(err.to_string().contains("1024"), "{err}");
    }

    #[test]
    fn malformed_fleet_descriptions_are_typed() {
        for bad in ["", "pim,", "frob", "pim:0", "pim:x", "pim:-1"] {
            assert!(
                matches!(BackendSpec::parse_list(bad), Err(SpecError::Malformed(_))),
                "{bad:?}"
            );
        }
        let fleet = BackendSpec::parse_list("pim:2, cpu-lanes ,bp-ntt:1").unwrap();
        let labels: Vec<&str> = fleet.iter().map(BackendSpec::label).collect();
        assert_eq!(labels, ["pim", "pim", "cpu-lanes", "bp-ntt"]);
    }
}
