#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! General-purpose compression baselines for the SENS-Join evaluation.
//!
//! §VI-B of the paper compares the quadtree representation against two
//! classic general-purpose compressors on the Join-Attribute-Collection
//! traffic: **zlib** (LZ77 + Huffman coding) and **bzip2** (Burrows–Wheeler
//! transform). Neither runs on actual sensor nodes — the comparison
//! establishes an *upper bound* on what generic compression could achieve,
//! and shows that it is poor on the small data volumes of the
//! pre-computation (fixed headers dominate, there is little history for LZ
//! matching, BWT blocks are tiny).
//!
//! This crate implements both families from scratch:
//!
//! * [`Lz77Huffman`] — "zlib-like": greedy hash-chain LZ77 (32 KiB window,
//!   3..=258 byte matches) followed by canonical Huffman coding with
//!   DEFLATE's length/distance code structure; each block is emitted in
//!   whichever of {stored, static codes, dynamic codes} is smallest, plus a
//!   small container header and an Adler-32 checksum — the same structural
//!   overheads real zlib pays.
//! * [`Bwt`] — "bzip2-like": block-wise Burrows–Wheeler transform (prefix-
//!   doubling rotation sort), move-to-front, zero-run-length coding, and a
//!   dynamic Huffman back end, with a container magic and per-block headers.
//! * [`Identity`] — the "no compression" baseline.
//!
//! All codecs implement [`Codec`] and round-trip losslessly (lossy
//! compression would produce incorrect join results, §VI-B).
//!
//! # Example
//!
//! ```
//! use sensjoin_compress::{Codec, Lz77Huffman, Bwt, Identity};
//!
//! let data = b"abcabcabcabcabcabc from a sensor network".repeat(10);
//! for codec in [&Lz77Huffman as &dyn Codec, &Bwt, &Identity] {
//!     let packed = codec.compress(&data);
//!     assert_eq!(codec.decompress(&packed).unwrap(), data);
//! }
//! assert!(Lz77Huffman.compress(&data).len() < data.len());
//! ```

mod bitio;
mod bwt;
mod checksum;
mod huffman;
mod lz77;
mod mtf;
mod zlib_like;

pub use bwt::Bwt;
pub use zlib_like::Lz77Huffman;

/// Errors during decompression of a corrupt or truncated stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended early.
    Truncated,
    /// The container magic did not match.
    BadMagic,
    /// A Huffman code or structural field was invalid.
    Corrupt(&'static str),
    /// The checksum did not match the decompressed payload.
    ChecksumMismatch,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadMagic => write!(f, "container magic mismatch"),
            DecompressError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            DecompressError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// A lossless byte-stream codec.
pub trait Codec {
    /// Human-readable codec name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Compresses `data`. Always succeeds; incompressible input may grow by
    /// the container overhead.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses a buffer produced by [`Codec::compress`].
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, DecompressError>;
}

/// The "no compression" baseline: bytes pass through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Codec for Identity {
    fn name(&self) -> &'static str {
        "none"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        data.to_vec()
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, DecompressError> {
        Ok(data.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let data = b"hello".to_vec();
        assert_eq!(Identity.compress(&data), data);
        assert_eq!(Identity.decompress(&data).unwrap(), data);
        assert_eq!(Identity.name(), "none");
    }
}
