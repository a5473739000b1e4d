//! Signed division with the quotient rounded toward `-∞` (§6), and the
//! accompanying `mod` (remainder with the sign of the divisor).
//!
//! Some languages (Fortran's `MODULO`, Python, Ada's `mod`) require floor
//! rounding. The paper gives:
//!
//! * identity (6.1), computing a floor quotient from a trunc quotient even
//!   when both signs are unknown at compile time — see
//!   [`floor_div_via_trunc`] and [`ceil_div_via_trunc`];
//! * Figure 6.1, a short multiply sequence for constant `d > 0` based on
//!   identity (6.3): `⌊n/d⌋ = EOR(nsign, TRUNC(EOR(nsign, n)/d))` — see
//!   [`FloorDivisor`].

use core::fmt;

use magicdiv_dword::Limb;

use crate::error::DivisorError;
use crate::plan::{FloorPlan, FloorStrategy};
use crate::signed::SignedDivisor;
use crate::word::{SWord, UWord};

/// A precomputed signed divisor rounding quotients toward `-∞`.
///
/// For `d > 0` this is the paper's Figure 6.1 (1 multiply, 2 bit-ops,
/// 2 shifts for the general case); for `d < 0` it falls back to a trunc
/// division with a floor correction, since Figure 6.1 only covers positive
/// constants.
///
/// # Examples
///
/// ```
/// use magicdiv::FloorDivisor;
///
/// let by10 = FloorDivisor::<i32>::new(10)?;
/// assert_eq!(by10.divide(-1), -1);       // floor(-0.1) = -1, not 0
/// assert_eq!(by10.divide(-10), -1);
/// assert_eq!(by10.modulus(-1), 9);       // sign of the divisor
/// assert_eq!(by10.modulus(21), 1);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloorDivisor<S: SWord> {
    d: S,
    /// The `d < 0` arm runs the same kernel as [`SignedDivisor::divide`].
    strategy: FloorStrategy<S::Unsigned, SignedDivisor<S>>,
}

impl<S: SWord> FloorDivisor<S> {
    /// Precomputes the constants for floor-dividing by `d`.
    ///
    /// Strategy selection is delegated to the shared planning layer
    /// ([`FloorPlan`], Fig 6.1); the constants are cached here at the
    /// native word type.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: S) -> Result<Self, DivisorError> {
        let plan = FloorPlan::new(d.to_i128(), S::BITS)?;
        Ok(Self::from_plan(&plan))
    }

    /// Caches an already-selected plan at the native word type — how the
    /// plan cache (and the guarded-execution layer) turn a stored plan
    /// into a runnable divisor. The plan's constants are trusted as-is.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != S::BITS`.
    pub fn from_plan(plan: &FloorPlan) -> Self {
        assert_eq!(
            plan.width(),
            S::BITS,
            "plan width does not match divisor word width"
        );
        FloorDivisor {
            d: S::from_i128_truncate(plan.divisor()),
            strategy: plan
                .strategy()
                .map(<S::Unsigned as Limb>::from_u128_truncate, |trunc| {
                    SignedDivisor::from_plan(&trunc)
                }),
        }
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> S {
        self.d
    }

    /// The width-erased [`FloorPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> FloorPlan {
        FloorPlan {
            width: S::BITS,
            d: self.d.to_i128(),
            strategy: self.strategy.map(Limb::to_u128, |trunc| trunc.plan()),
        }
    }

    /// Computes `⌊n / d⌋` (round toward `-∞`).
    ///
    /// Wraps on `MIN / -1` like hardware (the floor and trunc quotients
    /// agree there).
    #[inline]
    pub fn divide(&self, n: S) -> S {
        match &self.strategy {
            FloorStrategy::Identity => n,
            FloorStrategy::Shift { l } => n.sra_full(*l),
            FloorStrategy::MulShift { m, sh_post } => {
                // Fig 6.1: EOR(nsign, n) maps n >= 0 to itself and n < 0 to
                // -n - 1 >= 0, both < 2^(N-1), so one unsigned MULUH
                // computes the trunc quotient; the outer EOR folds the
                // floor adjustment back in.
                let nsign = n.xsign().as_unsigned();
                let q0 = m.muluh(nsign ^ n.as_unsigned());
                S::from_unsigned(nsign ^ q0.shr_full(*sh_post))
            }
            FloorStrategy::NegativeTrunc { trunc } => {
                let (q, r) = trunc.div_rem(n);
                // Floor correction: the remainder is nonzero and has the
                // sign of the dividend; for d < 0 that means r > 0.
                if r > S::ZERO {
                    q.wrapping_sub(S::ONE)
                } else {
                    q
                }
            }
        }
    }

    /// Computes `n mod d` (remainder with the sign of the divisor — Ada
    /// `mod`, Fortran `MODULO`, Python `%`).
    #[inline]
    pub fn modulus(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }

    /// Computes floor quotient and modulus together.
    #[inline]
    pub fn div_mod(&self, n: S) -> (S, S) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }
}

impl<S: SWord> fmt::Display for FloorDivisor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FloorDivisor(/{})", self.d)
    }
}

/// Identity (6.1): computes `⌊n/d⌋` from a truncating division, with the
/// signs of both operands unknown — the paper's six-instructions-plus-divide
/// sequence for architectures that keep their divide instruction.
///
/// ```text
/// dsign = XSIGN(d)
/// nsign = XSIGN(OR(n, n + dsign))   // -1 iff the quotient needs biasing
/// qsign = EOR(nsign, dsign)         // -1 iff operand signs differ
/// q = TRUNC((n + dsign - nsign) / d) + qsign
/// ```
///
/// The biased numerator `n + dsign - nsign` never overflows (it is `n + 1`
/// only for `n < 0` and `n - 1` only for `n > 0`, as the paper notes).
///
/// # Panics
///
/// Panics when `d == 0` (as the underlying hardware division would).
///
/// # Examples
///
/// ```
/// use magicdiv::floor_div_via_trunc;
///
/// assert_eq!(floor_div_via_trunc(-7i32, 2), -4);
/// assert_eq!(floor_div_via_trunc(7i32, -2), -4);
/// assert_eq!(floor_div_via_trunc(-7i32, -2), 3);
/// ```
pub fn floor_div_via_trunc<S: SWord>(n: S, d: S) -> S {
    assert!(d != S::ZERO, "division by zero");
    let dsign = d.xsign();
    // For d > 0: nsign = XSIGN(n). For d < 0: nsign = XSIGN(n | (n-1)),
    // i.e. -1 iff n <= 0.
    let nsign = S::from_unsigned(
        (n.as_unsigned() | n.wrapping_add(dsign).as_unsigned()).sra_full(S::BITS - 1),
    );
    let qsign = S::from_unsigned(nsign.as_unsigned() ^ dsign.as_unsigned());
    let adjusted = n.wrapping_add(dsign).wrapping_sub(nsign);
    // MIN / -1 (only reachable as floor(MIN / -1)): wrap like hardware.
    let t = adjusted.checked_div(d).unwrap_or(S::MIN);
    t.wrapping_add(qsign)
}

/// The round-toward-`+∞` counterpart of identity (6.1) (§6 sketches the
/// analogous bit-trick identity; here it is computed from the floor
/// quotient plus a divisibility correction, which is what the tests verify
/// the identity against).
///
/// # Panics
///
/// Panics when `d == 0`.
///
/// # Examples
///
/// ```
/// use magicdiv::ceil_div_via_trunc;
///
/// assert_eq!(ceil_div_via_trunc(7i32, 2), 4);
/// assert_eq!(ceil_div_via_trunc(-7i32, 2), -3);
/// assert_eq!(ceil_div_via_trunc(7i32, -2), -3);
/// ```
pub fn ceil_div_via_trunc<S: SWord>(n: S, d: S) -> S {
    assert!(d != S::ZERO, "division by zero");
    // ⌈n/d⌉ = -⌊(-n)/d⌋ — but -n overflows for n = MIN, so use
    // ⌈n/d⌉ = -⌊n/(-d)⌋ guarding -d for d = MIN the same way:
    // ⌈n/d⌉ = ⌊n/d⌋ + (d divides n ? 0 : 1) via the floor path instead.
    let q = floor_div_via_trunc(n, d);
    let r = n.wrapping_sub(q.wrapping_mul(d));
    if r == S::ZERO {
        q
    } else {
        q.wrapping_add(S::ONE)
    }
}

/// The §6 branch-free nonnegative-remainder sequence for constant `d > 0`
/// (the paper's `n mod 10` example): 1 multiply, shifts and bit-ops, no
/// branches.
///
/// # Panics
///
/// Panics when `d <= 0`.
///
/// # Examples
///
/// ```
/// use magicdiv::mod_positive;
///
/// assert_eq!(mod_positive(-1i32, 10), 9);
/// assert_eq!(mod_positive(-100i32, 10), 0);
/// assert_eq!(mod_positive(7i32, 10), 7);
/// ```
pub fn mod_positive<S: SWord>(n: S, d: S) -> S {
    assert!(d > S::ZERO, "mod_positive requires d > 0");
    let f = FloorDivisor::new(d).expect("d > 0 is nonzero");
    f.modulus(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floor_div_oracle(n: i32, d: i32) -> i32 {
        // div_euclid differs from floor for negative divisors; compute floor
        // directly in i64.
        let q = (n as i64).div_euclid(d as i64);
        let r = (n as i64).rem_euclid(d as i64);
        // Euclid: 0 <= r < |d|. floor: r has sign of d.
        if d < 0 && r != 0 {
            (q - 1) as i32
        } else {
            q as i32
        }
    }

    #[test]
    fn floor_oracle_sanity() {
        assert_eq!(floor_div_oracle(-7, 2), -4);
        assert_eq!(floor_div_oracle(7, -2), -4);
        assert_eq!(floor_div_oracle(-7, -2), 3);
        assert_eq!(floor_div_oracle(6, -2), -3);
    }

    #[test]
    fn exhaustive_i8() {
        for d in i8::MIN..=i8::MAX {
            if d == 0 {
                continue;
            }
            let fd = FloorDivisor::new(d).unwrap();
            for n in i8::MIN..=i8::MAX {
                if n == i8::MIN && d == -1 {
                    assert_eq!(fd.divide(n), i8::MIN); // wraps
                    continue;
                }
                let expect = (n as i32).div_euclid(d as i32)
                    - if d < 0 && (n as i32).rem_euclid(d as i32) != 0 {
                        1
                    } else {
                        0
                    };
                assert_eq!(fd.divide(n) as i32, expect, "n={n} d={d}");
                let m = fd.modulus(n) as i32;
                assert_eq!(m, n as i32 - expect * d as i32, "mod n={n} d={d}");
                // mod takes the sign of the divisor.
                if m != 0 {
                    assert_eq!(m.signum(), (d as i32).signum(), "sign n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn identities_exhaustive_i8() {
        for d in i8::MIN..=i8::MAX {
            if d == 0 {
                continue;
            }
            for n in i8::MIN..=i8::MAX {
                if n == i8::MIN && d == -1 {
                    continue; // overflow: identity wraps like hardware
                }
                let floor = floor_div_via_trunc(n, d) as i32;
                let ceil = ceil_div_via_trunc(n, d) as i32;
                let fq = (n as i32).div_euclid(d as i32);
                let expect_floor = fq
                    - if d < 0 && (n as i32).rem_euclid(d as i32) != 0 {
                        1
                    } else {
                        0
                    };
                assert_eq!(floor, expect_floor, "floor n={n} d={d}");
                let expect_ceil = expect_floor + i32::from(n as i32 - expect_floor * d as i32 != 0);
                assert_eq!(ceil, expect_ceil, "ceil n={n} d={d}");
            }
        }
    }

    #[test]
    fn paper_mod10_example() {
        // §6: r = n mod 10 with the (2^33+3)/5 multiplier. Our FloorDivisor
        // reproduces the same results.
        let fd = FloorDivisor::<i32>::new(10).unwrap();
        match fd.strategy {
            FloorStrategy::MulShift { m, sh_post } => {
                assert_eq!(m as u64, ((1u64 << 33) + 3) / 5);
                assert_eq!(sh_post, 2);
            }
            ref s => panic!("unexpected strategy {s:?}"),
        }
        for n in [-100i32, -1, 0, 1, 9, 10, 11, i32::MIN, i32::MAX] {
            let r = fd.modulus(n);
            assert!((0..10).contains(&r), "n={n} r={r}");
            assert_eq!((n as i64 - r as i64) % 10, 0, "n={n}");
        }
    }

    #[test]
    fn spot_checks_i32_boundaries() {
        let ds = [
            1i32,
            2,
            3,
            7,
            10,
            100,
            -1,
            -2,
            -3,
            -10,
            i32::MAX,
            i32::MIN,
            i32::MIN + 1,
        ];
        let ns = [
            i32::MIN,
            i32::MIN + 1,
            -10,
            -1,
            0,
            1,
            10,
            i32::MAX - 1,
            i32::MAX,
        ];
        for &d in &ds {
            let fd = FloorDivisor::new(d).unwrap();
            for &n in &ns {
                if n == i32::MIN && d == -1 {
                    continue;
                }
                assert_eq!(fd.divide(n), floor_div_oracle(n, d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn mod_positive_is_nonnegative() {
        for n in [-1000i32, -1, 0, 1, 999, i32::MIN + 1, i32::MAX] {
            for d in [1i32, 2, 3, 10, 641] {
                let r = mod_positive(n, d);
                assert!((0..d).contains(&r), "n={n} d={d} r={r}");
            }
        }
    }

    #[test]
    fn div_mod_consistency_i64() {
        let fd = FloorDivisor::<i64>::new(1_000_000_007).unwrap();
        for n in [i64::MIN, -1, 0, 1, i64::MAX, 123456789012345] {
            let (q, m) = fd.div_mod(n);
            assert_eq!(q.wrapping_mul(1_000_000_007).wrapping_add(m), n);
            assert!((0..1_000_000_007).contains(&m));
        }
    }

    #[test]
    fn zero_divisor_rejected() {
        assert_eq!(FloorDivisor::<i32>::new(0).unwrap_err(), DivisorError::Zero);
    }

    #[test]
    fn plan_roundtrips_selection() {
        for d in [-10i32, -2, -1, 1, 2, 10, 16, 641, i32::MIN, i32::MAX] {
            let fd = FloorDivisor::new(d).unwrap();
            assert_eq!(fd.plan(), FloorPlan::new(d as i128, 32).unwrap(), "d={d}");
        }
        for d in [-1_000_000_007i64, -7, -2, -1, i64::MIN, i64::MIN + 1] {
            let fd = FloorDivisor::new(d).unwrap();
            assert_eq!(fd.plan(), FloorPlan::new(d as i128, 64).unwrap(), "d={d}");
        }
        for d in [-(1i128 << 100) - 1, -7, -2, -1, i128::MIN, i128::MIN + 1] {
            let fd = FloorDivisor::new(d).unwrap();
            assert_eq!(fd.plan(), FloorPlan::new(d, 128).unwrap(), "d={d}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn identity_zero_divisor_panics() {
        let _ = floor_div_via_trunc(5i32, 0);
    }
}
