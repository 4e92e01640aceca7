//! The one shape validator and the one capability-window type.
//!
//! Every path that accepts a transform — the golden CPU engine, the
//! lane-batched CPU path, the batch executor, and each `ntt-bus`
//! backend's admission — asks the same two questions in the same order:
//!
//! 1. **Shape** ([`validate_shape`]): power-of-two length `n ≥ 4`, prime
//!    modulus with a `2N`-th root of unity, reduced coefficients,
//!    matching polymul operands. A violation is a malformed request,
//!    [`EngineError::Shape`], whichever backend sees it.
//! 2. **Window** ([`CapabilityWindow::admits`]): datapath width, maximum
//!    length, fixed modulus. A violation is a well-formed request this
//!    backend cannot run, [`EngineError::Unsupported`], so a router can
//!    fall through to the next candidate.

use super::batch::{JobKind, NttJob};
use super::EngineError;
use crate::math::prime;
use crate::reference::lanes::LANE_WIDTH;
use std::fmt;

/// What a backend honestly supports, carried per backend so routers and
/// admission control can reject a job *before* it reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityWindow {
    /// Whether the modulus can vary per job.
    pub arbitrary_modulus: bool,
    /// For fixed-modulus hardware, the one modulus its published
    /// numbers are valid for (`None` when `arbitrary_modulus`).
    pub native_modulus: Option<u64>,
    /// Coefficient datapath width in bits.
    pub bitwidth: u32,
    /// Largest supported transform length (`None` = unbounded).
    pub max_n: Option<usize>,
    /// Independent execution lanes one batch can fan across (total
    /// banks for PIM, SIMD lane width for the CPU, 1 for serial
    /// published models).
    pub lanes: usize,
}

impl CapabilityWindow {
    /// The PIM device's window: any NTT prime on the 32-bit datapath, up
    /// to 2²⁰ points (bounded by bank capacity, not the design), fanned
    /// across `lanes` banks.
    pub fn pim(lanes: usize) -> Self {
        Self {
            arbitrary_modulus: true,
            native_modulus: None,
            bitwidth: 32,
            max_n: Some(1 << 20),
            lanes,
        }
    }

    /// The CPU kernels' window: any NTT prime below the Shoup lazy bound
    /// (`q < 2⁶²`, so every admitted modulus runs the lazy kernel),
    /// unbounded length, one SIMD lane group wide.
    pub fn cpu_lanes() -> Self {
        Self {
            arbitrary_modulus: true,
            native_modulus: None,
            bitwidth: 62,
            max_n: None,
            lanes: LANE_WIDTH,
        }
    }

    /// Checks a length-`n` transform over `Z_q` against this window.
    /// Violations are typed [`EngineError::Unsupported`] errors naming
    /// `backend` — never a panic.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] naming the failed capability.
    pub fn admits(&self, backend: &str, n: usize, q: u64) -> Result<(), EngineError> {
        let unsupported = |reason: String| EngineError::Unsupported {
            engine: backend.to_string(),
            n,
            q,
            reason,
        };
        if let Some(max) = self.max_n {
            if n > max {
                return Err(unsupported(format!("length {n} exceeds max N {max}")));
            }
        }
        if self.bitwidth < 64 && q >= (1u64 << self.bitwidth) {
            return Err(unsupported(format!(
                "q={q} exceeds the {}-bit datapath",
                self.bitwidth
            )));
        }
        if let Some(native) = self.native_modulus {
            if q != native {
                return Err(unsupported(format!(
                    "fixed-modulus device (native q={native})"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for CapabilityWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit, modulus {}, max N {}, {} lanes",
            self.bitwidth,
            match self.native_modulus {
                Some(q) => q.to_string(),
                None => "arbitrary".into(),
            },
            match self.max_n {
                Some(n) => n.to_string(),
                None => "unbounded".into(),
            },
            self.lanes
        )
    }
}

/// The shape validator: power-of-two length `n ≥ 4`, prime modulus with
/// a `2N`-th root of unity, coefficients reduced mod `q`, and — for a
/// polymul — a second operand of the same length, also reduced. What
/// remains after it is genuinely *capability* (window) checking.
///
/// # Errors
///
/// [`EngineError::Shape`] describing the violation.
pub fn validate_shape(job: &NttJob) -> Result<(), EngineError> {
    let rhs = match &job.kind {
        JobKind::NegacyclicPolymul { rhs } => Some(rhs.as_slice()),
        _ => None,
    };
    validate_operands(&job.coeffs, rhs, job.q)
}

/// [`validate_shape`] over borrowed operands, so the golden CPU engine
/// checks caller slices without building a job.
pub(crate) fn validate_operands(
    coeffs: &[u64],
    rhs: Option<&[u64]>,
    q: u64,
) -> Result<(), EngineError> {
    let shape = |reason: String| EngineError::Shape { reason };
    let n = coeffs.len();
    if !n.is_power_of_two() || n < 4 {
        return Err(shape(format!("length {n} is not a power of two >= 4")));
    }
    if !prime::is_prime(q) {
        return Err(shape(format!("q={q} is not prime")));
    }
    if (q - 1) % (2 * n as u64) != 0 {
        return Err(shape(format!(
            "q={q} has no 2N-th root of unity (2N does not divide q-1)"
        )));
    }
    if coeffs.iter().any(|&c| c >= q) {
        return Err(shape("coefficients not reduced modulo q".into()));
    }
    if let Some(rhs) = rhs {
        if rhs.len() != n {
            return Err(shape(format!(
                "operand lengths differ ({n} vs {})",
                rhs.len()
            )));
        }
        if rhs.iter().any(|&c| c >= q) {
            return Err(shape("rhs coefficients not reduced modulo q".into()));
        }
    }
    Ok(())
}
