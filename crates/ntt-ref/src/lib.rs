//! Reference (CPU) implementations of the number-theoretic transform.
//!
//! This crate plays two roles in the NTT-PIM reproduction:
//!
//! 1. **Golden models.** Every hardware-mapped transform in
//!    [`ntt-pim-core`] is checked against these software implementations,
//!    starting from the naive O(N²) DFT ([`naive`]) that anchors the whole
//!    chain of trust.
//! 2. **The "x86 CPU" baseline.** The paper's Figs. 7–8 and Table III
//!    compare PIM latency against a software NTT; [`baseline`] times the
//!    iterative transform on the host machine.
//!
//! Implemented dataflows (all radix-2, power-of-two lengths):
//!
//! * [`iterative`] — the classic in-place Cooley–Tukey DIT (bit-reversed
//!   input → natural output) and Gentleman–Sande DIF (natural → bit-reversed),
//!   forward and inverse. The DIT graph with its geometric per-group twiddle
//!   sequences is exactly what the PIM compute unit executes. Both graphs
//!   run on the Shoup/Harvey lazy-reduction datapath
//!   ([`modmath::shoup`]) whenever `q < 2⁶²`, with the 128-bit widening
//!   kernel as the fallback above that bound.
//! * [`blocked`] — the same DIT transform reorganized into the paper's
//!   row-centric decomposition (§III.A): independent block-local stages
//!   followed by cross-block stages. This is the software mirror of the
//!   intra-row / inter-row mapping split.
//! * [`pease`] — constant-geometry dataflow (paper §II.B's discussion of
//!   parallel FFT algorithms \[17\]).
//! * [`stockham`] — self-sorting dataflow \[18\].
//! * [`four_step`] — cache-friendly four-step decomposition (extension).
//! * [`lanes`] — the lane-batched structure-of-arrays datapath: `L`
//!   polynomials per butterfly in lockstep, each twiddle (and Shoup
//!   quotient) loaded once per `L` residues. The throughput kernel for
//!   batched service traffic, with an optional AVX2 backend behind the
//!   `simd` feature.
//! * [`fast32`] — a 32-bit façade over the shared Shoup-lazy datapath,
//!   the *tuned* software baseline used for honest measured-CPU
//!   comparisons.
//! * [`cache`] — the shared, thread-safe `(n, q) → NttPlan` cache, so
//!   concurrent workers build each twiddle/Shoup table set once.
//! * [`naive`] — O(N²) evaluation, the ground truth.
//! * [`poly`] — cyclic and negacyclic polynomial multiplication built on the
//!   transforms, exercising the convolution theorem end to end.
//!
//! # Example
//!
//! ```
//! use modmath::prime::NttField;
//! use ntt_ref::plan::NttPlan;
//!
//! # fn main() -> Result<(), modmath::Error> {
//! let field = NttField::with_bits(8, 13)?;
//! let plan = NttPlan::new(field);
//! let mut data = vec![1, 2, 3, 4, 5, 6, 7, 8];
//! let original = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! assert_eq!(data, original);
//! # Ok(())
//! # }
//! ```
//!
//! [`ntt-pim-core`]: ../ntt_pim_core/index.html

// The crate is unsafe-free except for the optional AVX2 intrinsics of the
// lane-batched kernel, so the blanket `forbid` relaxes to `deny` (with one
// scoped `allow` on `lanes::simd`) only when the `simd` feature is on.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod baseline;
pub mod blocked;
pub mod cache;
pub mod fast32;
pub mod four_step;
pub mod iterative;
pub mod lanes;
pub mod naive;
pub mod pease;
pub mod plan;
pub mod poly;
pub mod stockham;
