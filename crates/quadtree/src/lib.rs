#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Pointerless region-quadtree encoding of join-attribute tuple sets.
//!
//! SENS-Join (§V) ships *sets* of quantized join-attribute tuples — Z-numbers
//! with relation flags — between nodes. This crate implements the paper's
//! compact wire format and the set primitives computed on it:
//!
//! * [`TreeShape`] — the branching structure of the generalized region
//!   quadtree: one level per Z-order interleave round (`2^k` children at a
//!   level consuming `k` bits), preceded by one level for the **relation
//!   flags** ("the topmost index node represents the relation flags", §V-C),
//! * [`PointSet`] — the logical set: Z-numbers with per-relation membership
//!   flags, plus [`PointSet::union`] / [`PointSet::intersect`] implementing
//!   the paper's `Union`/`Intersect` primitives with flag-OR / flag-AND
//!   semantics,
//! * [`encode`] / [`decode`] — the pointerless bitstring (paper Fig. 9):
//!   depth-first order; an *index node* is a `0` bit followed by a child-
//!   presence mask; a *point list* is `1`-prefixed points encoded relative to
//!   the current path, terminated by a `0` bit; subdivision stops exactly
//!   when listing the points costs fewer bits than subdividing (the paper's
//!   decomposition threshold, §V-C).
//!
//! The format is self-delimiting given the shape, and the DFS order makes
//! union and intersection single merge passes — no generic
//! compression/decompression round-trips (§V-D).
//!
//! # Example
//!
//! ```
//! use sensjoin_quadtree::{PointSet, TreeShape, RelFlags, encode, decode};
//!
//! let shape = TreeShape::new(&[2, 2, 2], 2); // 3 interleave levels + flags
//! let mut set = PointSet::new();
//! set.insert(0b000101, RelFlags::A);
//! set.insert(0b000111, RelFlags::B);
//! set.insert(0b000101, RelFlags::B); // same cell from the other relation
//! let wire = encode(&set, &shape);
//! let back = decode(&wire, &shape).unwrap();
//! assert_eq!(back, set);
//! assert!(back.contains_matching(0b000101, RelFlags::A));
//! ```

mod bits;
mod encoding;
mod point;
mod shape;

pub use bits::{BitReader, BitWriter};
pub use encoding::{
    contains_encoded, decode, encode, encoded_len_bits, encoded_wire_size, DecodeError, EncodedTree,
};
pub use point::{Point, PointSet, RelFlags, MAX_RELATIONS};
pub use shape::TreeShape;
