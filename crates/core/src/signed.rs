//! Signed division with the quotient rounded toward zero (§5).
//!
//! [`SignedDivisor`] follows Figure 5.2 (constant divisor: strategy split
//! over `|d| = 1`, powers of two, small and large multipliers);
//! [`InvariantSignedDivisor`] follows Figure 5.1 (one code shape for any
//! nonzero divisor, suited to run-time invariants).
//!
//! # Overflow
//!
//! Like the paper's code (and like hardware `idiv` with wrapping
//! semantics), `MIN / -1` wraps to `MIN`. Use
//! [`SignedDivisor::checked_divide`] to detect that single overflowing
//! case.

use core::fmt;
use core::ops::{Div, Rem};

use crate::error::DivisorError;
use crate::plan::{SdivPlan, SdivStrategy};
use magicdiv_dword::Limb;

use crate::word::SWord;

/// A precomputed signed divisor rounding quotients toward zero,
/// following the Figure 5.2 constant-divisor strategy.
///
/// # Examples
///
/// ```
/// use magicdiv::SignedDivisor;
///
/// let by_minus7 = SignedDivisor::<i32>::new(-7)?;
/// assert_eq!(by_minus7.divide(100), -14);   // trunc(100 / -7)
/// assert_eq!(by_minus7.divide(-100), 14);
/// assert_eq!(by_minus7.remainder(100), 2);  // sign of the dividend
/// assert_eq!(by_minus7.remainder(-100), -2);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignedDivisor<S> {
    d: S,
    negate: bool,
    strategy: SdivStrategy<S>,
}

impl<S: SWord> SignedDivisor<S> {
    /// Precomputes the reciprocal constants for dividing by `d`.
    ///
    /// Strategy selection is delegated to the shared planning layer
    /// ([`SdivPlan`], Fig 5.2); the constants are cached here at the
    /// native word type.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: S) -> Result<Self, DivisorError> {
        let plan = SdivPlan::new(d.to_i128(), S::BITS)?;
        Ok(Self::from_plan(&plan))
    }

    /// Caches an already-selected plan at the native word type — how the
    /// plan cache (and the guarded-execution layer) turn a stored plan
    /// into a runnable divisor. The plan's constants are trusted as-is.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != S::BITS`.
    pub fn from_plan(plan: &SdivPlan) -> Self {
        assert_eq!(
            plan.width(),
            S::BITS,
            "plan width does not match divisor word width"
        );
        SignedDivisor {
            d: S::from_i128_truncate(plan.divisor()),
            negate: plan.negate(),
            strategy: plan
                .strategy()
                .map(|m| S::from_unsigned(<S::Unsigned as Limb>::from_u128_truncate(m))),
        }
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> S {
        self.d
    }

    /// Which Figure 5.2 code shape was selected, with its constants as
    /// native signed words.
    #[inline]
    pub fn strategy(&self) -> SdivStrategy<S> {
        self.strategy
    }

    /// The width-erased [`SdivPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> SdivPlan {
        SdivPlan {
            width: S::BITS,
            d: self.d.to_i128(),
            negate: self.negate,
            strategy: self.strategy.map(|m| m.as_unsigned().to_u128()),
        }
    }

    /// Computes `TRUNC(n / d)` without a division instruction.
    ///
    /// Wraps on the single overflowing input pair (`n == MIN`, `d == -1`),
    /// returning `MIN` exactly as two's-complement hardware does.
    #[inline]
    pub fn divide(&self, n: S) -> S {
        let q = match self.strategy {
            SdivStrategy::Identity => n,
            SdivStrategy::Shift { l } => {
                // q = SRA(n + SRL(SRA(n, l-1), N-l), l): adds d-1 to
                // negative dividends so the arithmetic shift truncates
                // toward zero.
                let bias = n.sra_full(l - 1).as_unsigned().shr_full(S::BITS - l);
                n.wrapping_add(S::from_unsigned(bias)).sra_full(l)
            }
            SdivStrategy::MulShift { m, sh_post } => {
                m.mulsh(n).sra_full(sh_post).wrapping_sub(n.xsign())
            }
            SdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => n
                .wrapping_add(m_minus_pow2n.mulsh(n))
                .sra_full(sh_post)
                .wrapping_sub(n.xsign()),
        };
        if self.negate {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// Computes `TRUNC(n / d)`, returning `None` on the `MIN / -1`
    /// overflow.
    #[inline]
    pub fn checked_divide(&self, n: S) -> Option<S> {
        if n == S::MIN && self.d == S::MINUS_ONE {
            None
        } else {
            Some(self.divide(n))
        }
    }

    /// Computes `n rem d` (remainder with the sign of the dividend, Ada
    /// `rem`, C99 `%`) via multiply-back.
    #[inline]
    pub fn remainder(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }

    /// Computes quotient and remainder together.
    #[inline]
    pub fn div_rem(&self, n: S) -> (S, S) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }

    /// Computes `⌊n / d⌋` (round toward `-∞`) from the trunc quotient
    /// plus the sign correction. For constant `d > 0` prefer
    /// [`FloorDivisor`](crate::FloorDivisor), which uses the shorter
    /// Figure 6.1 sequence.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::SignedDivisor;
    ///
    /// let by7 = SignedDivisor::<i32>::new(7)?;
    /// assert_eq!(by7.divide_floor(-1), -1);
    /// assert_eq!(by7.divide(-1), 0); // trunc, for contrast
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    #[inline]
    pub fn divide_floor(&self, n: S) -> S {
        let (q, r) = self.div_rem(n);
        // A nonzero remainder with sign opposite the divisor means the
        // trunc quotient rounded up; step it down.
        if r != S::ZERO && (r < S::ZERO) != (self.d < S::ZERO) {
            q.wrapping_sub(S::ONE)
        } else {
            q
        }
    }

    /// Computes `⌈n / d⌉` (round toward `+∞`).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::SignedDivisor;
    ///
    /// let by7 = SignedDivisor::<i32>::new(7)?;
    /// assert_eq!(by7.divide_ceil(1), 1);
    /// assert_eq!(by7.divide_ceil(-1), 0);
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    #[inline]
    pub fn divide_ceil(&self, n: S) -> S {
        let (q, r) = self.div_rem(n);
        if r != S::ZERO && (r < S::ZERO) == (self.d < S::ZERO) {
            q.wrapping_add(S::ONE)
        } else {
            q
        }
    }

    /// Euclidean division: the quotient such that the remainder is always
    /// in `0..|d|` (Boute's definition — the paper's reference \[6\]).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::SignedDivisor;
    ///
    /// let by_neg7 = SignedDivisor::<i32>::new(-7)?;
    /// assert_eq!(by_neg7.div_euclid(-20), 3);
    /// assert_eq!(by_neg7.rem_euclid(-20), 1);
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    #[inline]
    pub fn div_euclid(&self, n: S) -> S {
        let (q, r) = self.div_rem(n);
        if r < S::ZERO {
            // Bump the quotient toward making r nonnegative.
            if self.d > S::ZERO {
                q.wrapping_sub(S::ONE)
            } else {
                q.wrapping_add(S::ONE)
            }
        } else {
            q
        }
    }

    /// Euclidean remainder, always in `0..|d|`.
    #[inline]
    pub fn rem_euclid(&self, n: S) -> S {
        let r = self.remainder(n);
        if r < S::ZERO {
            if self.d > S::ZERO {
                r.wrapping_add(self.d)
            } else {
                r.wrapping_sub(self.d)
            }
        } else {
            r
        }
    }

    /// Divides every element of `values` in place (trunc rounding).
    pub fn divide_slice_in_place(&self, values: &mut [S]) {
        for v in values {
            *v = self.divide(*v);
        }
    }

    /// Batch quotient: `out[i] = TRUNC(ns[i] / d)`.
    ///
    /// # Panics
    ///
    /// Panics when `ns` and `out` have different lengths.
    pub fn div_slice(&self, ns: &[S], out: &mut [S]) {
        assert_eq!(ns.len(), out.len(), "div_slice: length mismatch");
        for (o, &n) in out.iter_mut().zip(ns) {
            *o = self.divide(n);
        }
    }

    /// Batch quotient and remainder: `q[i] = TRUNC(ns[i] / d)`,
    /// `r[i] = ns[i] rem d`.
    ///
    /// # Panics
    ///
    /// Panics when the three slices have different lengths.
    pub fn div_rem_slice(&self, ns: &[S], q: &mut [S], r: &mut [S]) {
        assert_eq!(ns.len(), q.len(), "div_rem_slice: length mismatch");
        assert_eq!(ns.len(), r.len(), "div_rem_slice: length mismatch");
        for ((q, r), &n) in q.iter_mut().zip(r.iter_mut()).zip(ns) {
            let (qq, rr) = self.div_rem(n);
            *q = qq;
            *r = rr;
        }
    }
}

impl<S: SWord> fmt::Display for SignedDivisor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignedDivisor(/{})", self.d)
    }
}

/// A precomputed signed divisor following Figure 5.1: one branch-free code
/// shape for every nonzero divisor, rounding toward zero.
///
/// Costs 1 multiply, 3 adds, 2 shifts and 1 bit-op per quotient.
///
/// # Examples
///
/// ```
/// use magicdiv::InvariantSignedDivisor;
///
/// for d in [-13i32, -4, -1, 1, 3, 10] {
///     let inv = InvariantSignedDivisor::new(d)?;
///     assert_eq!(inv.divide(-100), -100 / d);
/// }
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvariantSignedDivisor<S> {
    d: S,
    /// `m - 2^N` where `m = 1 + ⌊2^(N+l-1)/|d|⌋`.
    m_prime: S,
    d_sign: S,
    sh_post: u32,
}

impl<S: SWord> InvariantSignedDivisor<S> {
    /// Precomputes the Figure 5.1 constants for dividing by `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: S) -> Result<Self, DivisorError> {
        if d == S::ZERO {
            return Err(DivisorError::Zero);
        }
        let abs_d = d.unsigned_abs();
        let n = S::BITS;
        let l = abs_d.ceil_log2().max(1);
        // m = 1 + ⌊2^(N+l-1)/|d|⌋; N+l-1 <= 2N-1 < 2N so no overflow.
        let (q, _r) = magicdiv_dword::DWord::pow2(n + l - 1)
            .div_rem_limb(abs_d)
            .expect("divisor nonzero");
        let m = q.wrapping_add_limb(<S::Unsigned as Limb>::ONE);
        // m - 2^N: for |d| = 1, m = 2^N + 1 so m' = 1; otherwise
        // 2^(N-1) < m < 2^N and m' is negative.
        let m_prime = S::from_unsigned(m.lo());
        Ok(InvariantSignedDivisor {
            d,
            m_prime,
            d_sign: d.xsign(),
            sh_post: l - 1,
        })
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> S {
        self.d
    }

    /// The Figure 5.1 constants `(m - 2^N, sh_post)`.
    #[inline]
    pub fn constants(&self) -> (S, u32) {
        (self.m_prime, self.sh_post)
    }

    /// Computes `TRUNC(n / d)`; wraps on `MIN / -1` like hardware.
    #[inline]
    pub fn divide(&self, n: S) -> S {
        let q0 = n.wrapping_add(self.m_prime.mulsh(n));
        let q0 = q0.sra_full(self.sh_post).wrapping_sub(n.xsign());
        // q = EOR(q0, dsign) - dsign: conditional negate.
        S::from_unsigned(q0.as_unsigned() ^ self.d_sign.as_unsigned()).wrapping_sub(self.d_sign)
    }

    /// Computes `n rem d` via multiply-back.
    #[inline]
    pub fn remainder(&self, n: S) -> S {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }

    /// Computes quotient and remainder together.
    #[inline]
    pub fn div_rem(&self, n: S) -> (S, S) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }
}

impl<S: SWord> fmt::Display for InvariantSignedDivisor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InvariantSignedDivisor(/{})", self.d)
    }
}

macro_rules! impl_div_ops {
    ($t:ty) => {
        impl Div<&SignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: &SignedDivisor<$t>) -> $t {
                rhs.divide(self)
            }
        }
        impl Rem<&SignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn rem(self, rhs: &SignedDivisor<$t>) -> $t {
                rhs.remainder(self)
            }
        }
        impl Div<&InvariantSignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: &InvariantSignedDivisor<$t>) -> $t {
                rhs.divide(self)
            }
        }
        impl Rem<&InvariantSignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn rem(self, rhs: &InvariantSignedDivisor<$t>) -> $t {
                rhs.remainder(self)
            }
        }
    };
}

impl_div_ops!(i8);
impl_div_ops!(i16);
impl_div_ops!(i32);
impl_div_ops!(i64);
impl_div_ops!(i128);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_i8_both_types() {
        for d in i8::MIN..=i8::MAX {
            if d == 0 {
                continue;
            }
            let cd = SignedDivisor::new(d).unwrap();
            let id = InvariantSignedDivisor::new(d).unwrap();
            for n in i8::MIN..=i8::MAX {
                let expect_q = n.wrapping_div(d); // MIN/-1 wraps
                let expect_r = n.wrapping_rem(d);
                assert_eq!(cd.divide(n), expect_q, "constant n={n} d={d}");
                assert_eq!(id.divide(n), expect_q, "invariant n={n} d={d}");
                assert_eq!(cd.remainder(n), expect_r, "rem n={n} d={d}");
                assert_eq!(id.div_rem(n), (expect_q, expect_r), "divrem n={n} d={d}");
            }
        }
    }

    #[test]
    fn all_divisors_i16_sampled_dividends() {
        let ns: Vec<i16> = (-260..=260)
            .chain([i16::MIN, i16::MIN + 1, i16::MAX, i16::MAX - 1, 1000, -1000])
            .collect();
        for d in i16::MIN..=i16::MAX {
            if d == 0 {
                continue;
            }
            let cd = SignedDivisor::new(d).unwrap();
            for &n in &ns {
                assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn invariant_all_divisors_i16_sampled_dividends() {
        let ns = [
            i16::MIN,
            i16::MIN + 1,
            -1000,
            -3,
            -1,
            0,
            1,
            2,
            999,
            i16::MAX,
        ];
        for d in i16::MIN..=i16::MAX {
            if d == 0 {
                continue;
            }
            let id = InvariantSignedDivisor::new(d).unwrap();
            for &n in &ns {
                assert_eq!(id.divide(n), n.wrapping_div(d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn paper_example_d3() {
        // §5: d = 3, N = 32 gives m = (2^32 + 2)/3, sh_post = 0; the code is
        // q = MULSH(m, n) - XSIGN(n). m >= 2^31 so it lands in MulAddShift...
        // check: (2^32+2)/3 = 1431655766 < 2^31 = 2147483648 — MulShift.
        let d = SignedDivisor::<i32>::new(3).unwrap();
        match d.strategy() {
            SdivStrategy::MulShift { m, sh_post } => {
                assert_eq!(m as u64, ((1u64 << 32) + 2) / 3);
                assert_eq!(sh_post, 0);
            }
            s => panic!("unexpected strategy {s:?}"),
        }
        assert_eq!(d.divide(i32::MIN), i32::MIN / 3);
        assert_eq!(d.divide(i32::MAX), i32::MAX / 3);
    }

    #[test]
    fn paper_example_d7_uses_add_fixup() {
        // d = 7 at N = 32: m = (2^34 + 5)/7 = 2454267027 >= 2^31, so the
        // MulAddShift path with a negative m - 2^32 is used.
        let d = SignedDivisor::<i32>::new(7).unwrap();
        match d.strategy() {
            SdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                let m = ((1u64 << 34) + 5) / 7;
                assert_eq!(m_minus_pow2n as i64, m as i64 - (1i64 << 32));
                assert!(m_minus_pow2n < 0);
                assert_eq!(sh_post, 2);
            }
            s => panic!("unexpected strategy {s:?}"),
        }
    }

    #[test]
    fn power_of_two_and_identity_strategies() {
        assert_eq!(
            SignedDivisor::<i32>::new(1).unwrap().strategy(),
            SdivStrategy::Identity
        );
        assert_eq!(
            SignedDivisor::<i32>::new(-1).unwrap().strategy(),
            SdivStrategy::Identity
        );
        assert_eq!(
            SignedDivisor::<i32>::new(16).unwrap().strategy(),
            SdivStrategy::Shift { l: 4 }
        );
        assert_eq!(
            SignedDivisor::<i32>::new(-16).unwrap().strategy(),
            SdivStrategy::Shift { l: 4 }
        );
    }

    #[test]
    fn min_divisor_works() {
        let d = SignedDivisor::<i32>::new(i32::MIN).unwrap();
        assert_eq!(d.divide(i32::MIN), 1);
        assert_eq!(d.divide(i32::MAX), 0);
        assert_eq!(d.divide(-1), 0);
        assert_eq!(d.divide(0), 0);
        let id = InvariantSignedDivisor::<i32>::new(i32::MIN).unwrap();
        assert_eq!(id.divide(i32::MIN), 1);
        assert_eq!(id.divide(i32::MAX), 0);
    }

    #[test]
    fn min_over_minus_one_wraps_and_checked_catches_it() {
        let d = SignedDivisor::<i32>::new(-1).unwrap();
        assert_eq!(d.divide(i32::MIN), i32::MIN); // wraps like hardware
        assert_eq!(d.checked_divide(i32::MIN), None);
        assert_eq!(d.checked_divide(5), Some(-5));
        let id = InvariantSignedDivisor::<i32>::new(-1).unwrap();
        assert_eq!(id.divide(i32::MIN), i32::MIN);
    }

    #[test]
    fn boundary_dividends_i32_i64_i128() {
        let d32s = [
            2i32,
            -2,
            3,
            -3,
            7,
            -7,
            10,
            -10,
            100,
            641,
            i32::MAX,
            i32::MIN,
            i32::MIN + 1,
        ];
        for &d in &d32s {
            let cd = SignedDivisor::new(d).unwrap();
            let id = InvariantSignedDivisor::new(d).unwrap();
            for n in [
                i32::MIN,
                i32::MIN + 1,
                -1,
                0,
                1,
                i32::MAX,
                i32::MAX - 1,
                1 << 30,
            ] {
                assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
                assert_eq!(id.divide(n), n.wrapping_div(d), "n={n} d={d}");
            }
        }
        for &d in &[3i64, -10, i64::MIN, i64::MAX, 274177] {
            let cd = SignedDivisor::new(d).unwrap();
            for n in [i64::MIN, -1, 0, 1, i64::MAX] {
                assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
            }
        }
        for &d in &[3i128, -10, i128::MIN, i128::MAX, 274177] {
            let cd = SignedDivisor::new(d).unwrap();
            let id = InvariantSignedDivisor::new(d).unwrap();
            for n in [i128::MIN, -1, 0, 1, i128::MAX, 1 << 100] {
                assert_eq!(cd.divide(n), n.wrapping_div(d), "n={n} d={d}");
                assert_eq!(id.divide(n), n.wrapping_div(d), "n={n} d={d}");
            }
        }
    }

    #[test]
    fn operators() {
        let d = SignedDivisor::<i32>::new(-100).unwrap();
        assert_eq!(12345i32 / &d, -123);
        assert_eq!(12345i32 % &d, 45);
        let id = InvariantSignedDivisor::<i32>::new(-100).unwrap();
        assert_eq!(12345i32 / &id, -123);
        assert_eq!(12345i32 % &id, 45);
    }

    #[test]
    fn zero_divisor_rejected() {
        assert_eq!(
            SignedDivisor::<i32>::new(0).unwrap_err(),
            DivisorError::Zero
        );
        assert_eq!(
            InvariantSignedDivisor::<i32>::new(0).unwrap_err(),
            DivisorError::Zero
        );
    }
}

#[cfg(test)]
mod rounding_tests {
    use super::*;

    #[test]
    fn rounding_variants_exhaustive_i8() {
        for d in i8::MIN..=i8::MAX {
            if d == 0 {
                continue;
            }
            let cd = SignedDivisor::new(d).unwrap();
            for n in i8::MIN..=i8::MAX {
                if n == i8::MIN && d == -1 {
                    continue; // all roundings overflow identically
                }
                let wide_q = n as i32;
                let wide_d = d as i32;
                let floor = wide_q.div_euclid(wide_d)
                    - i32::from(wide_d < 0 && wide_q.rem_euclid(wide_d) != 0);
                let ceil = floor + i32::from(wide_q - floor * wide_d != 0);
                assert_eq!(cd.divide_floor(n) as i32, floor, "floor n={n} d={d}");
                assert_eq!(cd.divide_ceil(n) as i32, ceil, "ceil n={n} d={d}");
                assert_eq!(cd.div_euclid(n), n.div_euclid(d), "euclid n={n} d={d}");
                assert_eq!(cd.rem_euclid(n), n.rem_euclid(d), "rem_euclid n={n} d={d}");
            }
        }
    }

    #[test]
    fn euclid_laws_spot_i64() {
        for d in [-1_000_003i64, -7, -1, 1, 7, 1_000_003] {
            let cd = SignedDivisor::new(d).unwrap();
            for n in [i64::MIN + 1, -12345, -1, 0, 1, 98765, i64::MAX] {
                let (q, r) = (cd.div_euclid(n), cd.rem_euclid(n));
                assert_eq!(q.wrapping_mul(d).wrapping_add(r), n, "n={n} d={d}");
                assert!(
                    (0..d.unsigned_abs() as i64).contains(&r),
                    "n={n} d={d} r={r}"
                );
            }
        }
    }

    #[test]
    fn slice_division() {
        let cd = SignedDivisor::<i32>::new(-3).unwrap();
        let mut xs = [9, -9, 10, -10, 0];
        cd.divide_slice_in_place(&mut xs);
        assert_eq!(xs, [-3, 3, -3, 3, 0]);
    }

    #[test]
    fn plan_roundtrips_selection() {
        for d in [-16i32, -7, -3, -1, 1, 3, 7, 10, 16, 641, i32::MIN, i32::MAX] {
            let cd = SignedDivisor::new(d).unwrap();
            assert_eq!(cd.plan(), SdivPlan::new(d as i128, 32).unwrap(), "d={d}");
        }
        for d in [-10i128, 3, i128::MIN, i128::MAX] {
            let cd = SignedDivisor::new(d).unwrap();
            assert_eq!(cd.plan(), SdivPlan::new(d, 128).unwrap(), "d={d}");
        }
    }

    #[test]
    fn batch_slices_match_scalar() {
        for d in [-100i32, -7, -1, 1, 3, 10] {
            let cd = SignedDivisor::new(d).unwrap();
            let ns: Vec<i32> = (-50..50).map(|i| i * 0x0123_4567).collect();
            let mut q = vec![0i32; ns.len()];
            let mut r = vec![0i32; ns.len()];
            cd.div_rem_slice(&ns, &mut q, &mut r);
            for (i, &n) in ns.iter().enumerate() {
                assert_eq!(
                    (q[i], r[i]),
                    (n.wrapping_div(d), n.wrapping_rem(d)),
                    "n={n} d={d}"
                );
            }
        }
    }
}
