//! Explicit `f64x4` vector backends for the AMVA lane kernel.
//!
//! [`crate::amva::solve_lanes`] solves independent fixed-shape problems
//! ([`crate::FixedClasses`]) four to a vector: one `f64x4` holds the same
//! quantity of four unrelated fixed points, and the whole Bard–Schweitzer
//! loop runs on those vectors in registers, two vectors (eight problems)
//! per kernel call as independent dependency chains. This module provides
//! the vector types the kernel is generic over, and the backend dispatch:
//!
//! * `F64x4` — a portable `[f64; 4]` newtype whose operations are plain
//!   per-element IEEE adds/muls/divides in the exact scalar operation
//!   order. Stable Rust, every target; LLVM is free to (and on x86_64
//!   does) lower the element quadruples to vector instructions.
//! * `Avx2F64x4` (x86_64 only) — the same operations as AVX2/AVX
//!   intrinsics behind runtime feature detection, for when the
//!   autovectorizer must not be trusted with the hot loop.
//!
//! **Bit-identity by construction.** The DESIGN.md §11 contract freezes
//! the scalar kernel's floating-point sequence: results must stay
//! byte-identical across every execution strategy. Both backends uphold
//! it the same way — each lane performs exactly the scalar operation
//! sequence, in order, with only the interleaving across lanes changed.
//! Three rules make that hold at the instruction level:
//!
//! 1. **No FMA, no reassociation.** A fused `a*b + c` rounds once where
//!    the scalar kernel rounds twice, so `_mm256_fmadd_pd` (and any
//!    reassociating reduction) is banned; every multiply and add below is
//!    a separate, individually-rounded instruction, and rustc never
//!    contracts `a * b + c` on its own.
//! 2. **Branches become blends.** The scalar kernel's per-lane `if`s
//!    (dead class, zero-demand station, `n ≤ 1`, converged lane) are
//!    evaluated as masks and resolved with `select` — the not-taken value
//!    is computed and discarded, which IEEE 754 makes safe (no traps; a
//!    masked lane's inf/NaN never lands in state).
//! 3. **Compare-and-blend max.** The residual's `f64::max` is expressed
//!    as `select(b > a, b, a)`, which is bit-identical to `f64::max` for
//!    the never-NaN, non-negative values the residual reduction sees.
//!
//! The backend is chosen per batch scratch (see [`SimdBackend`]), and the
//! dispatch validates it on every call: an unsupported request runs
//! [`SimdBackend::Portable`], so the AVX2 entry point below is only ever
//! reached on a CPU that runtime detection approved. That containment is
//! why this module is the only place in the crate allowed to use `unsafe`
//! (the crate root is `#![deny(unsafe_code)]`).
#![allow(unsafe_code)]

use crate::amva::{lane_fixed_point, FixedClasses, LaneFixedPoint};

/// Which backend the AMVA lane kernel ([`crate::amva::solve_lanes`])
/// runs on.
///
/// Every backend is bit-identical to every other (and to the scalar
/// [`crate::FixedClasses::solve`]) by construction — see the module docs
/// — so this is purely a throughput knob. `Scalar` is the
/// always-available escape hatch (the `--no-simd` benchmark arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// No vector code: each lane is one scalar
    /// [`crate::FixedClasses::solve`].
    Scalar,
    /// Portable `[f64; 4]` lanes (stable Rust, every target).
    Portable,
    /// AVX2 `_mm256d` intrinsics. Only ever selected (or validated) on an
    /// x86_64 CPU whose runtime feature detection reports AVX2.
    Avx2,
}

/// The values the `ECOST_SIMD` environment variable accepts, as named in
/// the error for any other value.
const ECOST_SIMD_VALUES: &str =
    "`0`, `off` or `scalar` (scalar kernel), `portable` (portable f64x4 lanes)";

impl SimdBackend {
    /// The best backend for the running CPU: AVX2 where detected,
    /// otherwise the portable lanes. The `ECOST_SIMD` environment
    /// variable overrides detection for whole-process A/B runs (see
    /// [`SimdBackend::env_override`]); a value it does not accept is
    /// ignored here, so binaries check [`SimdBackend::env_override`]
    /// before doing any work.
    pub fn detect() -> SimdBackend {
        match SimdBackend::env_override() {
            Ok(Some(backend)) => backend,
            _ => detect_native(),
        }
    }

    /// The backend `ECOST_SIMD` pins: `Ok(None)` when the variable is
    /// unset, `Ok(Some(_))` for an accepted value (`0`, `off` and `scalar`
    /// pin the scalar kernel, `portable` the portable lanes), and an error
    /// naming the accepted values for anything else — a typo such as
    /// `Off` must not silently run the detected backend.
    pub fn env_override() -> Result<Option<SimdBackend>, String> {
        let Some(v) = std::env::var_os("ECOST_SIMD") else {
            return Ok(None);
        };
        match v.to_str() {
            Some("0" | "off" | "scalar") => Ok(Some(SimdBackend::Scalar)),
            Some("portable") => Ok(Some(SimdBackend::Portable)),
            _ => Err(format!(
                "ECOST_SIMD={v:?} is not a known value (accepted: {ECOST_SIMD_VALUES}; \
                 unset it to detect the backend)"
            )),
        }
    }

    /// Clamp a requested backend to what this machine can actually run:
    /// `Avx2` downgrades to [`SimdBackend::Portable`] unless runtime
    /// detection confirms support. The lane kernel's dispatch validates
    /// every request, which is what makes entering the intrinsics sound.
    pub fn validated(self) -> SimdBackend {
        match self {
            SimdBackend::Avx2 => match detect_native() {
                SimdBackend::Avx2 => SimdBackend::Avx2,
                _ => SimdBackend::Portable,
            },
            other => other,
        }
    }

    /// Stable identifier for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Portable => "portable-f64x4",
            SimdBackend::Avx2 => "avx2-f64x4",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_native() -> SimdBackend {
    if std::is_x86_feature_detected!("avx2") {
        SimdBackend::Avx2
    } else {
        SimdBackend::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_native() -> SimdBackend {
    SimdBackend::Portable
}

/// Four `f64` lanes advancing in lockstep. Comparisons produce all-ones /
/// all-zero lane masks consumed by [`LaneVec::select`] and combined with
/// [`LaneVec::and`]; arithmetic is one IEEE-rounded operation per lane
/// per call (never fused, never reassociated — the bit-identity contract
/// in the module docs).
pub(crate) trait LaneVec: Copy {
    /// All four lanes set to `x`.
    fn splat(x: f64) -> Self;
    /// Lanes from an array, lane `l` from `a[l]`.
    fn from_array(a: [f64; 4]) -> Self;
    /// Lanes to an array, lane `l` to `a[l]`.
    fn to_array(self) -> [f64; 4];
    /// Per-lane `self + o`.
    fn add(self, o: Self) -> Self;
    /// Per-lane `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Per-lane `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Per-lane `self / o`.
    fn div(self, o: Self) -> Self;
    /// Per-lane `f64::abs` (sign bit cleared).
    fn abs(self) -> Self;
    /// Per-lane mask: all-ones where `self > o` (ordered — false on NaN,
    /// matching the scalar `>`), all-zero elsewhere.
    fn gt(self, o: Self) -> Self;
    /// Per-lane bitwise AND (mask intersection).
    fn and(self, o: Self) -> Self;
    /// Per-lane `if mask { if_true } else { if_false }`.
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self;
    /// Whether any lane of a mask is set.
    fn any(self) -> bool;
}

/// Portable `f64x4`: plain per-element IEEE operations on a `[f64; 4]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F64x4([f64; 4]);

#[inline(always)]
fn zip(a: [f64; 4], b: [f64; 4], f: impl Fn(f64, f64) -> f64) -> [f64; 4] {
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

impl LaneVec for F64x4 {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        F64x4([x; 4])
    }

    #[inline(always)]
    fn from_array(a: [f64; 4]) -> Self {
        F64x4(a)
    }

    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self.0
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| a + b))
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| a - b))
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| a * b))
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| a / b))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        let a = self.0;
        F64x4([a[0].abs(), a[1].abs(), a[2].abs(), a[3].abs()])
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| {
            if a > b {
                f64::from_bits(u64::MAX)
            } else {
                0.0
            }
        }))
    }

    #[inline(always)]
    fn and(self, o: Self) -> Self {
        F64x4(zip(self.0, o.0, |a, b| {
            f64::from_bits(a.to_bits() & b.to_bits())
        }))
    }

    #[inline(always)]
    fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
        let pick = |m: f64, t: f64, f: f64| if m.to_bits() != 0 { t } else { f };
        F64x4([
            pick(mask.0[0], if_true.0[0], if_false.0[0]),
            pick(mask.0[1], if_true.0[1], if_false.0[1]),
            pick(mask.0[2], if_true.0[2], if_false.0[2]),
            pick(mask.0[3], if_true.0[3], if_false.0[3]),
        ])
    }

    #[inline(always)]
    fn any(self) -> bool {
        self.0.iter().any(|m| m.to_bits() != 0)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 lanes. Every intrinsic below is an AVX instruction (the f64x4
    //! arithmetic set predates AVX2; detection gates on the stricter
    //! feature anyway). SAFETY argument for the whole module: values of
    //! [`Avx2F64x4`] only come into existence inside
    //! [`lane_fixed_point_avx2`], which is compiled with
    //! `#[target_feature(enable = "avx2")]` and entered only through
    //! [`super::fixed_point_x8`] right after [`super::SimdBackend`]
    //! validation — i.e. after `is_x86_feature_detected!("avx2")`
    //! approved this CPU.

    use super::{FixedClasses, LaneFixedPoint, LaneVec};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_blendv_pd, _mm256_cmp_pd,
        _mm256_div_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _CMP_GT_OQ,
    };

    #[derive(Clone, Copy)]
    pub(crate) struct Avx2F64x4(__m256d);

    impl LaneVec for Avx2F64x4 {
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_set1_pd(x) })
        }

        #[inline(always)]
        fn from_array(a: [f64; 4]) -> Self {
            // SAFETY: AVX is available (module docs); the unaligned load
            // reads exactly the array's 32 bytes.
            Avx2F64x4(unsafe { _mm256_loadu_pd(a.as_ptr()) })
        }

        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut a = [0.0; 4];
            // SAFETY: AVX is available (module docs); the unaligned store
            // writes exactly the array's 32 bytes.
            unsafe { _mm256_storeu_pd(a.as_mut_ptr(), self.0) };
            a
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_div_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: AVX is available (module docs). andnot with the
            // sign-bit mask clears the sign, exactly `f64::abs`.
            Avx2F64x4(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }

        #[inline(always)]
        fn gt(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs). Ordered quiet
            // greater-than: false on NaN, like the scalar `>`.
            Avx2F64x4(unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(self.0, o.0) })
        }

        #[inline(always)]
        fn and(self, o: Self) -> Self {
            // SAFETY: AVX is available (module docs).
            Avx2F64x4(unsafe { _mm256_and_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn select(mask: Self, if_true: Self, if_false: Self) -> Self {
            // SAFETY: AVX is available (module docs). blendv picks by the
            // mask's sign bit; our masks are all-ones/all-zero lanes.
            Avx2F64x4(unsafe { _mm256_blendv_pd(if_false.0, if_true.0, mask.0) })
        }

        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: AVX is available (module docs). movemask gathers
            // the sign bits, set exactly in the all-ones lanes.
            unsafe { _mm256_movemask_pd(self.0) != 0 }
        }
    }

    /// The generic lane kernel instantiated on AVX2 lanes, compiled with
    /// the feature enabled so the `#[inline(always)]` chain folds into
    /// straight-line vector code.
    #[target_feature(enable = "avx2")]
    pub(super) fn lane_fixed_point_avx2<const NC: usize, const S: usize>(
        p: &[FixedClasses<NC, S>; 8],
    ) -> LaneFixedPoint<NC, S> {
        super::lane_fixed_point::<Avx2F64x4, NC, S>(p)
    }
}

/// Run the lane kernel on eight validated problems (two `f64x4` vectors)
/// with a vector backend.
/// `Scalar` never reaches this function ([`crate::amva::solve_lanes`]
/// solves its lanes one by one); it takes the portable lanes here only as
/// a defensive default. The backend is validated on every call, so an
/// `Avx2` request on a CPU without AVX2 runs the portable lanes.
pub(crate) fn fixed_point_x8<const NC: usize, const S: usize>(
    backend: SimdBackend,
    p: &[FixedClasses<NC, S>; 8],
) -> LaneFixedPoint<NC, S> {
    match backend.validated() {
        SimdBackend::Scalar | SimdBackend::Portable => lane_fixed_point::<F64x4, NC, S>(p),
        SimdBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `validated()` returned `Avx2`, i.e.
                // `is_x86_feature_detected!("avx2")` just confirmed the
                // CPU runs these instructions.
                unsafe { avx2::lane_fixed_point_avx2(p) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                lane_fixed_point::<F64x4, NC, S>(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_never_returns_an_unsupported_backend() {
        // Whatever the machine, a validated Avx2 request is either Avx2
        // (detection approved) or the portable fallback — never a lie.
        let v = SimdBackend::Avx2.validated();
        assert!(v == SimdBackend::Avx2 || v == SimdBackend::Portable);
        if v == SimdBackend::Avx2 {
            assert_eq!(SimdBackend::detect().validated(), SimdBackend::detect());
        }
        assert_eq!(SimdBackend::Scalar.validated(), SimdBackend::Scalar);
        assert_eq!(SimdBackend::Portable.validated(), SimdBackend::Portable);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        assert_eq!(SimdBackend::Portable.name(), "portable-f64x4");
        assert_eq!(SimdBackend::Avx2.name(), "avx2-f64x4");
    }

    #[test]
    fn portable_masks_blend_like_the_scalar_branches() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::from_array([4.0, 2.0, 1.0, f64::NAN]);
        // gt: ordered — NaN compares false, like the scalar `>`.
        let m = a.gt(b);
        let picked = F64x4::select(m, F64x4::splat(1.0), F64x4::splat(0.0));
        assert_eq!(picked.to_array(), [0.0, 0.0, 1.0, 0.0]);
        assert!(m.any());
        assert!(!F64x4::splat(0.0).any());
        // and: mask intersection.
        let both = m.and(F64x4::splat(1.0).gt(F64x4::splat(0.0)));
        let o2 = F64x4::select(both, F64x4::splat(1.0), F64x4::splat(0.0)).to_array();
        assert_eq!(o2, [0.0, 0.0, 1.0, 0.0]);
    }
}
