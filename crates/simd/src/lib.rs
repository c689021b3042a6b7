#![warn(missing_docs)]

//! Vectorized hot kernels shared by the join engine and the Z-order codec —
//! each with a scalar reference implementation that is **bit-identical by
//! construction**.
//!
//! The crate exposes two kernel families:
//!
//! * [`band_mask`] — the residual interval check of a band predicate
//!   (`key ⋈ probe`, `key − probe ⋈ c`, `|key − probe| ⋈ c`) evaluated over a
//!   whole candidate run at once, producing one survivor bit per key. The
//!   AVX2 path performs the *same* IEEE-754 subtraction, absolute value
//!   (sign-bit clear) and ordered comparison per lane as the scalar loop —
//!   no reassociation, no FMA — so the survivor set matches the scalar
//!   predicate exactly, including NaN (all ordered comparisons false),
//!   signed zeros and infinities.
//! * [`pdep_u64`] / [`pext_u64`] — parallel bit deposit/extract for Z-order
//!   interleaving (BMI2 when available, a mask-walking loop otherwise).
//!
//! With the `simd` cargo feature disabled — or at runtime on CPUs without
//! AVX2/BMI2 — every entry point runs the scalar reference. Hardware
//! detection is cached in a relaxed atomic, so dispatch costs one load.

use std::sync::atomic::{AtomicU8, Ordering};

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

#[inline]
fn cmp_scalar(op: CmpKind, l: f64, r: f64) -> bool {
    match op {
        CmpKind::Lt => l < r,
        CmpKind::Le => l <= r,
        CmpKind::Gt => l > r,
        CmpKind::Ge => l >= r,
        CmpKind::Eq => l == r,
    }
}

/// The scalar residual check for one key — the semantics both paths
/// implement.
#[inline]
pub fn band_accepts(form: MaskForm, probe: f64, key: f64) -> bool {
    match form {
        MaskForm::Direct { op, key_is_lhs } => {
            if key_is_lhs {
                cmp_scalar(op, key, probe)
            } else {
                cmp_scalar(op, probe, key)
            }
        }
        MaskForm::Diff { op, c, key_is_lhs } => {
            let d = if key_is_lhs { key - probe } else { probe - key };
            cmp_scalar(op, d, c)
        }
        MaskForm::AbsDiff { op, c, key_is_lhs } => {
            let d = if key_is_lhs { key - probe } else { probe - key };
            cmp_scalar(op, d.abs(), c)
        }
    }
}

/// Scalar reference: writes one survivor bit per key into `out`
/// (little-endian: key `i` is bit `i % 64` of word `i / 64`).
pub fn band_mask_scalar(keys: &[f64], probe: f64, form: MaskForm, out: &mut Vec<u64>) {
    out.clear();
    out.resize(keys.len().div_ceil(64), 0);
    for (i, &k) in keys.iter().enumerate() {
        if band_accepts(form, probe, k) {
            out[i >> 6] |= 1u64 << (i & 63);
        }
    }
}

/// Vectorized residual check over a candidate run: survivor bitmask of
/// `form` applied to every key against `probe`. Bit-identical to
/// [`band_mask_scalar`].
pub fn band_mask(keys: &[f64], probe: f64, form: MaskForm, out: &mut Vec<u64>) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if have_avx2() {
        // SAFETY: AVX2 presence was verified at runtime.
        unsafe { avx2::band_mask(keys, probe, form, out) };
        return;
    }
    band_mask_scalar(keys, probe, form, out);
}

/// Calls `f(i)` for every set bit `i` of a [`band_mask`] result.
#[inline]
pub fn for_each_set(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            f((w << 6) + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// Scalar parallel bit deposit: distributes the low `mask.count_ones()`
/// bits of `src` (LSB first) to the set positions of `mask` (ascending).
pub fn pdep_u64_scalar(mut src: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    while mask != 0 {
        let bit = mask & mask.wrapping_neg();
        if src & 1 != 0 {
            out |= bit;
        }
        src >>= 1;
        mask &= mask - 1;
    }
    out
}

/// Scalar parallel bit extract: gathers the bits of `src` at the set
/// positions of `mask` (ascending) into the low bits of the result.
pub fn pext_u64_scalar(src: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0u32;
    while mask != 0 {
        let bit = mask & mask.wrapping_neg();
        if src & bit != 0 {
            out |= 1u64 << i;
        }
        i += 1;
        mask &= mask - 1;
    }
    out
}

/// Parallel bit deposit (`PDEP`): BMI2 single instruction when available,
/// otherwise [`pdep_u64_scalar`].
#[inline]
pub fn pdep_u64(src: u64, mask: u64) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if have_bmi2() {
        // SAFETY: BMI2 presence was verified at runtime.
        return unsafe { pdep_hw(src, mask) };
    }
    pdep_u64_scalar(src, mask)
}

/// Parallel bit extract (`PEXT`): BMI2 single instruction when available,
/// otherwise [`pext_u64_scalar`].
#[inline]
pub fn pext_u64(src: u64, mask: u64) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if have_bmi2() {
        // SAFETY: BMI2 presence was verified at runtime.
        return unsafe { pext_hw(src, mask) };
    }
    pext_u64_scalar(src, mask)
}

/// Which hardware fast paths this process dispatches to:
/// `"avx2+bmi2"`, `"avx2"`, `"bmi2"` or `"scalar"`.
pub fn kernels_active() -> &'static str {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match (have_avx2(), have_bmi2()) {
            (true, true) => "avx2+bmi2",
            (true, false) => "avx2",
            (false, true) => "bmi2",
            (false, false) => "scalar",
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        "scalar"
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn cached_detect(cache: &AtomicU8, detect: impl FnOnce() -> bool) -> bool {
    match cache.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let v = detect();
            cache.store(if v { 1 } else { 2 }, Ordering::Relaxed);
            v
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn have_avx2() -> bool {
    static CACHE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&CACHE, || std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn have_bmi2() -> bool {
    static CACHE: AtomicU8 = AtomicU8::new(0);
    cached_detect(&CACHE, || std::arch::is_x86_feature_detected!("bmi2"))
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[allow(unused)]
fn silence_unused_import() {
    let _ = AtomicU8::new(0);
    let _ = Ordering::Relaxed;
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "bmi2")]
unsafe fn pdep_hw(src: u64, mask: u64) -> u64 {
    core::arch::x86_64::_pdep_u64(src, mask)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "bmi2")]
unsafe fn pext_hw(src: u64, mask: u64) -> u64 {
    core::arch::x86_64::_pext_u64(src, mask)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    //! AVX2 lane kernels. Lane layout of the residual check: 4 × f64 keys
    //! per 256-bit vector, probe and bound broadcast; `vsubpd` → optional
    //! sign-bit clear (`vandpd` with `0x7fff…`) → ordered-quiet `vcmppd` →
    //! `vmovmskpd` packs 4 survivor bits which are OR-ed into the output
    //! word at the key's bit offset. Ordered-quiet comparisons return false
    //! on NaN operands exactly like the scalar `<`/`<=`/`>`/`>=`/`==`.

    use super::{band_accepts, CmpKind, MaskForm};
    use core::arch::x86_64::*;

    const MODE_DIRECT: u8 = 0;
    const MODE_DIFF: u8 = 1;
    const MODE_ABS: u8 = 2;

    #[target_feature(enable = "avx2")]
    unsafe fn kernel<const MODE: u8, const OP: i32, const KEY_LHS: bool>(
        keys: &[f64],
        probe: f64,
        c: f64,
        out: &mut [u64],
    ) {
        let pv = _mm256_set1_pd(probe);
        let cv = _mm256_set1_pd(c);
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        // 4 survivor bits for the vector of keys starting at `i`.
        macro_rules! step {
            ($i:expr) => {{
                let kv = _mm256_loadu_pd(keys.as_ptr().add($i));
                let m = if MODE == MODE_DIRECT {
                    if KEY_LHS {
                        _mm256_cmp_pd::<OP>(kv, pv)
                    } else {
                        _mm256_cmp_pd::<OP>(pv, kv)
                    }
                } else {
                    let d = if KEY_LHS {
                        _mm256_sub_pd(kv, pv)
                    } else {
                        _mm256_sub_pd(pv, kv)
                    };
                    let d = if MODE == MODE_ABS {
                        _mm256_and_pd(d, abs_mask)
                    } else {
                        d
                    };
                    _mm256_cmp_pd::<OP>(d, cv)
                };
                _mm256_movemask_pd(m) as u64
            }};
        }
        // Whole 64-key output words accumulate in a register — one store
        // per word instead of a read-modify-write every 4 keys.
        let n64 = keys.len() & !63;
        let mut i = 0;
        while i < n64 {
            let mut word = 0u64;
            let mut lane = 0;
            while lane < 64 {
                word |= step!(i + lane) << lane;
                lane += 4;
            }
            *out.get_unchecked_mut(i >> 6) = word;
            i += 64;
        }
        let n4 = keys.len() & !3;
        while i < n4 {
            out[i >> 6] |= step!(i) << (i & 63);
            i += 4;
        }
    }

    pub(super) unsafe fn band_mask(keys: &[f64], probe: f64, form: MaskForm, out: &mut Vec<u64>) {
        out.clear();
        out.resize(keys.len().div_ceil(64), 0);
        macro_rules! with_op {
            ($mode:ident, $op:expr, $lhs:expr, $c:expr) => {
                match ($op, $lhs) {
                    (CmpKind::Lt, true) => kernel::<$mode, _CMP_LT_OQ, true>(keys, probe, $c, out),
                    (CmpKind::Lt, false) => {
                        kernel::<$mode, _CMP_LT_OQ, false>(keys, probe, $c, out)
                    }
                    (CmpKind::Le, true) => kernel::<$mode, _CMP_LE_OQ, true>(keys, probe, $c, out),
                    (CmpKind::Le, false) => {
                        kernel::<$mode, _CMP_LE_OQ, false>(keys, probe, $c, out)
                    }
                    (CmpKind::Gt, true) => kernel::<$mode, _CMP_GT_OQ, true>(keys, probe, $c, out),
                    (CmpKind::Gt, false) => {
                        kernel::<$mode, _CMP_GT_OQ, false>(keys, probe, $c, out)
                    }
                    (CmpKind::Ge, true) => kernel::<$mode, _CMP_GE_OQ, true>(keys, probe, $c, out),
                    (CmpKind::Ge, false) => {
                        kernel::<$mode, _CMP_GE_OQ, false>(keys, probe, $c, out)
                    }
                    (CmpKind::Eq, true) => kernel::<$mode, _CMP_EQ_OQ, true>(keys, probe, $c, out),
                    (CmpKind::Eq, false) => {
                        kernel::<$mode, _CMP_EQ_OQ, false>(keys, probe, $c, out)
                    }
                }
            };
        }
        match form {
            MaskForm::Direct { op, key_is_lhs } => with_op!(MODE_DIRECT, op, key_is_lhs, 0.0),
            MaskForm::Diff { op, c, key_is_lhs } => with_op!(MODE_DIFF, op, key_is_lhs, c),
            MaskForm::AbsDiff { op, c, key_is_lhs } => with_op!(MODE_ABS, op, key_is_lhs, c),
        }
        // Scalar tail: < 4 trailing keys, same IEEE ops as the lanes.
        for i in (keys.len() & !3)..keys.len() {
            if band_accepts(form, probe, keys[i]) {
                out[i >> 6] |= 1u64 << (i & 63);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECIALS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1.5e-308,  // near the subnormal boundary
        -4.9e-324, // smallest subnormal
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    fn all_forms() -> Vec<MaskForm> {
        let ops = [
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
            CmpKind::Eq,
        ];
        let mut forms = Vec::new();
        for &op in &ops {
            for key_is_lhs in [true, false] {
                forms.push(MaskForm::Direct { op, key_is_lhs });
                for c in [0.25, 0.0, -1.0, f64::INFINITY, f64::NAN] {
                    forms.push(MaskForm::Diff { op, c, key_is_lhs });
                    forms.push(MaskForm::AbsDiff { op, c, key_is_lhs });
                }
            }
        }
        forms
    }

    #[test]
    fn band_mask_matches_scalar_on_specials() {
        let mut keys: Vec<f64> = Vec::new();
        for _ in 0..12 {
            keys.extend_from_slice(&SPECIALS); // 144 keys: full lanes + tail
        }
        keys.truncate(141); // force a 1-key tail
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for form in all_forms() {
            for &probe in &SPECIALS {
                band_mask(&keys, probe, form, &mut fast);
                band_mask_scalar(&keys, probe, form, &mut slow);
                assert_eq!(fast, slow, "form {form:?} probe {probe}");
            }
        }
    }

    #[test]
    fn band_mask_random_runs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 40.0 - 20.0
        };
        for n in [0usize, 1, 3, 4, 63, 64, 65, 500] {
            let keys: Vec<f64> = (0..n).map(|_| next()).collect();
            let probe = next();
            for form in [
                MaskForm::AbsDiff {
                    op: CmpKind::Lt,
                    c: 3.0,
                    key_is_lhs: true,
                },
                MaskForm::Diff {
                    op: CmpKind::Ge,
                    c: -2.0,
                    key_is_lhs: false,
                },
                MaskForm::Direct {
                    op: CmpKind::Le,
                    key_is_lhs: true,
                },
            ] {
                let (mut fast, mut slow) = (Vec::new(), Vec::new());
                band_mask(&keys, probe, form, &mut fast);
                band_mask_scalar(&keys, probe, form, &mut slow);
                assert_eq!(fast, slow, "n={n} form {form:?}");
            }
        }
    }

    #[test]
    fn mask_bit_positions_and_iteration() {
        let keys = [1.0, 5.0, 2.0, 9.0, 3.0];
        let form = MaskForm::Direct {
            op: CmpKind::Lt,
            key_is_lhs: true,
        };
        let mut out = Vec::new();
        band_mask(&keys, 4.0, form, &mut out);
        assert_eq!(out, vec![0b10101]);
        let mut hit = Vec::new();
        for_each_set(&out, |i| hit.push(i));
        assert_eq!(hit, vec![0, 2, 4]);
    }

    #[test]
    fn pdep_pext_roundtrip() {
        let cases = [
            (0u64, 0u64),
            (u64::MAX, u64::MAX),
            (0b1011, 0b0110_1100),
            (0xdead_beef, 0x00ff_00ff_00ff_00ff),
            (42, 1 << 63),
        ];
        for (src, mask) in cases {
            let dep = pdep_u64(src, mask);
            assert_eq!(dep, pdep_u64_scalar(src, mask));
            assert_eq!(pext_u64(dep, mask), pext_u64_scalar(dep, mask));
            // deposit-then-extract recovers the low bits of src
            let low = if mask.count_ones() == 64 {
                src
            } else {
                src & ((1u64 << mask.count_ones()) - 1)
            };
            assert_eq!(pext_u64(dep, mask), low);
        }
    }

    #[test]
    fn pdep_pext_random_agree_with_scalar() {
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..2000 {
            let (src, mask) = (next(), next());
            assert_eq!(pdep_u64(src, mask), pdep_u64_scalar(src, mask));
            assert_eq!(pext_u64(src, mask), pext_u64_scalar(src, mask));
        }
    }

    #[test]
    fn kernels_active_reports() {
        let s = kernels_active();
        assert!(["avx2+bmi2", "avx2", "bmi2", "scalar"].contains(&s));
    }
}
