//! Lorentz-model hyperbolic geometry (Sections II and IV of the paper).
//!
//! The hyperbolic space `H(β) = { a ∈ R^{n+1} : ⟨a,a⟩ = −β, a₀ ≥ √β }` is
//! built on the Lorentz inner product `⟨a,b⟩ = −a₀b₀ + Σᵢ aᵢbᵢ`. The paper's
//! key device is the **Lorentz distance** `d_Lo(a,b) = |⟨a,b⟩| − β`, which
//! is non-negative with zero self-distance (Lemma 4) yet is *not* bound by
//! the triangle inequality (Lemma 5) — exactly the freedom needed to embed
//! ground-truth trajectory distances (DTW, SSPD, EDR, …) that violate it.
//!
//! [`projection`] provides the two Euclidean→hyperbolic lifts: the *vanilla*
//! projection (which Theorem 6 shows degrades distances for large-norm
//! inputs) and the *Cosh* projection that repairs it (Theorems 7–9).
//! [`analysis`] turns those theorems into executable numeric demonstrations
//! used by tests and the ablation benches.
//!
//! This crate is deliberately pure `f64` and autodiff-free: it is the
//! mathematical reference. The trainable `f32` versions live in `lh-core`
//! and are tested against this reference.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lorentz;
pub mod projection;

pub use lorentz::{geodesic_distance, lorentz_distance, lorentz_inner, HyperbolicPoint};
pub use projection::{cosh_project, gamma_compress, vanilla_project, Projection, ProjectionKind};
