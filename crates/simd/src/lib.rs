#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The band-residual mask the repo benchmark's per-layer probe times, and
//! nothing else: [`band_mask`] evaluates a band predicate (`key ⋈ probe`,
//! `key − probe ⋈ c`, `|key − probe| ⋈ c`) over a run of keys, one survivor
//! bit per key, with plain IEEE-754 semantics (NaN fails every comparison).
//! No library caller is left, and the AVX2/BMI2 paths went with the `simd`
//! cargo feature when neither showed an end-to-end win (DESIGN.md §4.10):
//! every build is the scalar loop, and [`kernels_active`] says so.

/// Comparison operator of a band-form residual check.
///
/// `Ne` is absent by design: the predicate classifier never produces
/// band-indexed `!=` predicates (their candidate set is a complement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
}

/// The shape of a band residual check over a run of keys, mirroring the
/// query classifier's `BandForm` (operand order preserved via `key_is_lhs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskForm {
    /// `key op probe` (`key_is_lhs`) or `probe op key`.
    Direct {
        /// The comparison operator.
        op: CmpKind,
        /// Whether the key run is the left comparison operand.
        key_is_lhs: bool,
    },
    /// `(key − probe) op c` (`key_is_lhs`) or `(probe − key) op c`.
    Diff {
        /// The comparison operator.
        op: CmpKind,
        /// The constant bound.
        c: f64,
        /// Whether the key run is the left subtraction operand.
        key_is_lhs: bool,
    },
    /// `|key − probe| op c` (`key_is_lhs`) or `|probe − key| op c`.
    AbsDiff {
        /// The comparison operator.
        op: CmpKind,
        /// The constant bound.
        c: f64,
        /// Whether the key run is the left subtraction operand.
        key_is_lhs: bool,
    },
}

/// The residual check for one key.
#[inline]
fn band_accepts(form: MaskForm, probe: f64, key: f64) -> bool {
    let (op, key_is_lhs) = match form {
        MaskForm::Direct { op, key_is_lhs }
        | MaskForm::Diff { op, key_is_lhs, .. }
        | MaskForm::AbsDiff { op, key_is_lhs, .. } => (op, key_is_lhs),
    };
    let (l, r) = if key_is_lhs {
        (key, probe)
    } else {
        (probe, key)
    };
    let (l, r) = match form {
        MaskForm::Direct { .. } => (l, r),
        MaskForm::Diff { c, .. } => (l - r, c),
        MaskForm::AbsDiff { c, .. } => ((l - r).abs(), c),
    };
    match op {
        CmpKind::Lt => l < r,
        CmpKind::Le => l <= r,
        CmpKind::Gt => l > r,
        CmpKind::Ge => l >= r,
        CmpKind::Eq => l == r,
    }
}

/// Survivor bitmask of `form` applied to every key against `probe`: one bit
/// per key, little-endian (key `i` is bit `i % 64` of word `i / 64`).
pub fn band_mask(keys: &[f64], probe: f64, form: MaskForm, out: &mut Vec<u64>) {
    out.clear();
    out.resize(keys.len().div_ceil(64), 0);
    for (i, &k) in keys.iter().enumerate() {
        if band_accepts(form, probe, k) {
            out[i >> 6] |= 1u64 << (i & 63);
        }
    }
}

/// Which hardware fast paths this process dispatches to: none, so
/// `"scalar"`. Kept for the benchmark's configuration fingerprint.
pub fn kernels_active() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_bit_positions_and_nan() {
        let keys = [1.0, 5.0, 2.0, f64::NAN, 3.0];
        let lt = MaskForm::Direct {
            op: CmpKind::Lt,
            key_is_lhs: true,
        };
        let mut out = Vec::new();
        band_mask(&keys, 4.0, lt, &mut out);
        assert_eq!(out, vec![0b10101]);
        let within = MaskForm::AbsDiff {
            op: CmpKind::Le,
            c: 1.0,
            key_is_lhs: false,
        };
        band_mask(&keys, 2.0, within, &mut out);
        assert_eq!(out, vec![0b10101]);
        band_mask(&[0.5; 65], 0.0, lt, &mut out);
        assert_eq!(out, vec![0, 0]);
    }
}
