#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Quantization and Z-order encoding of join-attribute tuples.
//!
//! SENS-Join (§V-B) represents a join-attribute tuple as a point in a
//! restricted, discrete, n-dimensional space:
//!
//! 1. each dimension (join attribute) is **quantized** — bounded to
//!    `[min, max]` with a step size (`resolution`); the number of cells is
//!    rounded up to a power of two so that cell coordinates are plain bit
//!    strings (paper Fig. 7),
//! 2. the per-dimension cell coordinates are **bit-interleaved** into a
//!    single *Z-number*; nearby points receive similar numbers, which is what
//!    lets the quadtree representation exploit spatial correlation
//!    (paper Fig. 6).
//!
//! Dimensions may need different bit counts. Following the paper, "each
//! dimension contributes to the bit interleaving until its bits are
//! exhausted": interleaving proceeds MSB-first, level by level; at level `l`
//! every dimension with more than `l` bits contributes one bit. The sequence
//! of per-level contribution counts is the [`ZSpace::level_schedule`], which
//! the quadtree crate consumes as its branching structure.
//!
//! Quantization reduces accuracy, never correctness: the pre-computation may
//! produce false *positives* (tuples shipped although they do not join) but a
//! value is always mapped to the cell containing it (clamped to the boundary
//! cell when out of range), so no joining tuple is ever missed as long as the
//! pre-join evaluates conditions conservatively over cells (see
//! [`ZSpace::cell_box`]).
//!
//! # Example
//!
//! ```
//! use sensjoin_zorder::{Dimension, ZSpace};
//!
//! // temperature in [0, 40] at 0.1 degC, x in [0, 1050] at 1 m
//! let space = ZSpace::new(vec![
//!     Dimension::new("temp", 0.0, 40.0, 0.1),
//!     Dimension::new("x", 0.0, 1050.0, 1.0),
//! ]).unwrap();
//! let z = space.encode(&[21.53, 400.0]);
//! let cells = space.decode(z);
//! let cell_box = space.cell_box(z);
//! assert!(cell_box[0].0 <= 21.53 && 21.53 < cell_box[0].1 + 1e-9);
//! assert_eq!(space.encode_cells(&cells), z);
//! ```

mod dimension;
mod space;

pub use dimension::Dimension;
pub use space::{ZSpace, ZSpaceError};

/// A Z-number: the bit-interleaved, quantized image of a join-attribute
/// tuple. At most 64 bits (enforced by [`ZSpace::new`]).
pub type ZNumber = u64;
