//! Backend kinds, plus the capability window and shape validator every
//! backend admits by. Those two live in [`ntt_pim::engine::window`], one
//! copy shared with the batch executor and the golden CPU engine, and
//! are re-exported here under the bus's paths.

pub use ntt_pim::engine::window::{validate_shape, CapabilityWindow};
use std::fmt;

/// Which family a backend belongs to. Kinds are coarse — routing and
/// reporting group by them; capability details live in the per-backend
/// [`CapabilityWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The bank-parallel DRAM PIM device simulator.
    Pim,
    /// The host CPU running the lane-batched (SoA, optionally AVX2)
    /// kernels.
    CpuLanes,
    /// A published accelerator model: golden-path compute, published
    /// datapoint timing.
    Published,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Pim => "pim",
            BackendKind::CpuLanes => "cpu-lanes",
            BackendKind::Published => "published",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pim" => Ok(BackendKind::Pim),
            "cpu-lanes" => Ok(BackendKind::CpuLanes),
            "published" => Ok(BackendKind::Published),
            other => Err(format!(
                "unknown backend kind `{other}` (expected `pim`, `cpu-lanes`, or `published`)"
            )),
        }
    }
}
