#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Node placement and sensor-data generation for WSN experiments.
//!
//! The paper's evaluation (§VI) simulates "a random distribution of nodes"
//! in a square area and uses "a fixed distribution of the physical
//! quantities, emulating real sensor data" — i.e. spatially correlated
//! readings like the Intel Lab deployment it cites (Fig. 4). Neither the
//! node coordinates nor the exact data are published, so this crate
//! reproduces the *generative process*:
//!
//! * [`Placement`] — uniform-random (the paper's setting), jittered grid and
//!   clustered node layouts over a rectangular [`Area`],
//! * [`CosineField`] — a stationary Gaussian random field approximated by a
//!   superposition of random cosine waves (the spectral / "random features"
//!   method). Its correlation length is a direct parameter, which is what
//!   the quadtree representation's gains depend on,
//! * [`FieldSpec`] / [`generate_readings`] — named per-attribute generators
//!   with cross-attribute correlation (humidity tracking temperature, etc.)
//!   and white measurement noise,
//! * [`FieldSampler`] — the same generator kept by a deployment: it owns the
//!   node positions and each spec's wave sums (the cosines, a function of
//!   the positions, the correlation length and the field seed only), so a
//!   redraw of the same field with new noise, mean, amplitude or coupling
//!   evaluates no cosine. [`generate_readings`] is one draw of a fresh
//!   sampler, so the two cannot disagree,
//! * [`presets`] — an Intel-Lab-like indoor climate preset and an outdoor
//!   environmental preset.
//!
//! Everything is deterministic given a seed, so experiments are exactly
//! reproducible.
//!
//! # Example
//!
//! ```
//! use sensjoin_field::{Area, Placement, presets, generate_readings};
//!
//! let area = Area::new(1050.0, 1050.0);
//! let positions = Placement::UniformRandom { n: 1500 }.generate(area, 42);
//! assert_eq!(positions.len(), 1500);
//! let specs = presets::indoor_climate();
//! let readings = generate_readings(&positions, &specs, 7);
//! assert_eq!(readings.len(), 1500);
//! assert_eq!(readings[0].len(), specs.len());
//! ```

mod field;
mod placement;
pub mod presets;
mod readings;

pub use field::CosineField;
pub use placement::{Area, Placement, Position};
pub use readings::{generate_readings, FieldSampler, FieldSpec};
