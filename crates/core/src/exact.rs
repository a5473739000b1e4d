//! Exact division and divisibility testing by constants (§9).
//!
//! When a division is known a priori to be exact — the motivating case is C
//! pointer subtraction, where the byte difference is divisible by the
//! object size — the full reciprocal machinery is unnecessary: writing
//! `d = 2^e * d_odd`, the inverse `dinv` of `d_odd` modulo `2^N` turns the
//! division into one `MULL` and one shift:
//!
//! ```text
//! n / d  =  SRL(MULL(dinv, n), e)        (unsigned, d | n)
//! n / d  =  SRA(MULL(dinv, n), e)        (signed,   d | n)
//! ```
//!
//! The same inverse yields a *divisibility test* without computing a
//! remainder, and a strength-reduced loop that tests divisibility with no
//! multiplication at all (the paper's closing example).

use core::fmt;

use magicdiv_dword::Limb;

use crate::error::DivisorError;
use crate::plan::ExactPlan;
use crate::tournament::{
    paper_only_tournament, ArithmeticCertifier, OpCountScorer, Strategy, TournamentResult,
};
use crate::word::{SWord, UWord};

/// Multiplicative inverse of an odd word modulo `2^N` by Newton's
/// iteration (the paper's (9.2)): each step doubles the number of correct
/// low bits, starting from the 3 bits `dinv = d` already provides.
///
/// # Panics
///
/// Panics when `d_odd` is even (no inverse exists).
///
/// # Examples
///
/// ```
/// use magicdiv::mod_inverse_newton;
///
/// // The paper's example: the inverse of 25 modulo 2^32 is (19*2^32 + 1)/25.
/// let dinv = mod_inverse_newton(25u32);
/// assert_eq!(dinv as u64, (19 * (1u64 << 32) + 1) / 25);
/// assert_eq!(dinv.wrapping_mul(25), 1);
/// ```
pub fn mod_inverse_newton<T: UWord>(d_odd: T) -> T {
    assert!(d_odd & T::ONE == T::ONE, "inverse requires an odd operand");
    let mut inv = d_odd; // correct modulo 2^3
                         // ⌈log2(N/3)⌉ iterations suffice; N <= 128 needs at most 6.
    let mut correct_bits = 3u32;
    while correct_bits < T::BITS {
        let two = T::ONE.wrapping_add(T::ONE);
        inv = inv.wrapping_mul(two.wrapping_sub(d_odd.wrapping_mul(inv)));
        correct_bits *= 2;
    }
    debug_assert!(inv.wrapping_mul(d_odd) == T::ONE);
    inv
}

/// Multiplicative inverse of an odd word modulo `2^N` by bitwise Hensel
/// lifting — the alternative the paper attributes to the extended Euclidean
/// approach, building the inverse one bit at a time.
///
/// Slower than [`mod_inverse_newton`] (N steps instead of log N) but
/// independently derived, so the two serve as cross-checks.
///
/// # Panics
///
/// Panics when `d_odd` is even.
///
/// # Examples
///
/// ```
/// use magicdiv::{mod_inverse_bitwise, mod_inverse_newton};
///
/// assert_eq!(mod_inverse_bitwise(625u64), mod_inverse_newton(625u64));
/// ```
pub fn mod_inverse_bitwise<T: UWord>(d_odd: T) -> T {
    assert!(d_odd & T::ONE == T::ONE, "inverse requires an odd operand");
    let mut inv = T::ONE;
    let mut prod = d_odd; // prod = d_odd * inv, always ends in bit pattern ...1
    for i in 1..T::BITS {
        if prod.bit(i) {
            inv = inv | T::ONE.shl_full(i);
            prod = prod.wrapping_add(d_odd.shl_full(i));
        }
    }
    debug_assert!(inv.wrapping_mul(d_odd) == T::ONE);
    inv
}

/// A precomputed *exact* divisor: divides values known to be multiples of
/// `d`, and tests divisibility, using only `MULL` (no upper product half
/// needed).
///
/// # Examples
///
/// ```
/// use magicdiv::ExactUnsignedDivisor;
///
/// let size12 = ExactUnsignedDivisor::<u32>::new(12)?;
/// assert_eq!(size12.divide_exact(144), 12);
/// assert!(size12.divides(144));
/// assert!(!size12.divides(145));
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactUnsignedDivisor<T> {
    d: T,
    /// log2 of the even part of `d`.
    e: u32,
    /// Inverse of the odd part modulo `2^N`.
    dinv: T,
    /// `⌊(2^N - 1)/d⌋`: the largest valid quotient, for the divisibility
    /// interval test.
    qmax: T,
}

impl<T: UWord> ExactUnsignedDivisor<T> {
    /// Precomputes the odd-part inverse for `d`.
    ///
    /// Constant selection is delegated to the shared planning layer
    /// ([`ExactPlan`], §9); the constants are cached here at the native
    /// word type.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: T) -> Result<Self, DivisorError> {
        let plan = ExactPlan::new_unsigned(d.to_u128(), T::BITS)?;
        debug_assert_eq!(
            T::from_u128_truncate(plan.dinv),
            mod_inverse_newton(d.shr_full(plan.e))
        );
        Ok(Self::from_plan(&plan))
    }

    /// Like [`new`](Self::new), reporting failure through the unified
    /// [`Fault`](crate::Fault) taxonomy instead of [`DivisorError`] —
    /// mirrors [`crate::try_choose_multiplier`].
    ///
    /// # Errors
    ///
    /// [`FaultKind::DivideByZero`](crate::FaultKind::DivideByZero) at
    /// [`FaultLayer::Plan`](crate::FaultLayer::Plan) when `d == 0`.
    pub fn try_new(d: T) -> Result<Self, crate::Fault> {
        Self::new(d).map_err(crate::Fault::from)
    }

    /// Caches an already-selected plan at the native word type — how the
    /// plan cache (and the guarded-execution layer) turn a stored plan
    /// into a runnable divisor. The plan's constants are trusted as-is.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != T::BITS` or the plan is signed.
    pub fn from_plan(plan: &ExactPlan) -> Self {
        assert_eq!(
            plan.width(),
            T::BITS,
            "plan width does not match divisor word width"
        );
        assert!(!plan.is_signed(), "signed exact plan for unsigned divisor");
        ExactUnsignedDivisor {
            d: T::from_u128_truncate(plan.d_abs),
            e: plan.e,
            dinv: T::from_u128_truncate(plan.dinv),
            qmax: T::from_u128_truncate(plan.qmax),
        }
    }

    /// The divisor this inverse was computed for.
    #[inline]
    pub fn divisor(&self) -> T {
        self.d
    }

    /// The inverse of the odd part of `d` modulo `2^N`, and the even-part
    /// shift `e` (so `d = 2^e * d_odd` and `dinv * d_odd == 1 mod 2^N`).
    #[inline]
    pub fn constants(&self) -> (T, u32) {
        (self.dinv, self.e)
    }

    /// The width-erased [`ExactPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> ExactPlan {
        ExactPlan {
            width: T::BITS,
            d_abs: self.d.to_u128(),
            signed: false,
            negate: false,
            e: self.e,
            dinv: self.dinv.to_u128(),
            qmax: self.qmax.to_u128(),
            low_mask: (1u128 << self.e) - 1,
            is_pow2: self.d.shr_full(self.e) == T::ONE,
        }
    }

    /// Computes `n / d` for `n` known to be a multiple of `d`, with one
    /// `MULL` and one shift.
    ///
    /// If `d` does not in fact divide `n`, the result is garbage (checked
    /// by a debug assertion).
    #[inline]
    pub fn divide_exact(&self, n: T) -> T {
        debug_assert!(self.divides(n), "divide_exact requires d | n");
        self.divide_exact_unchecked(n)
    }

    /// [`divide_exact`](Self::divide_exact) without the debug check, for
    /// the guard, whose constants may be corrupt so that `divides` lies.
    #[inline]
    pub(crate) fn divide_exact_unchecked(&self, n: T) -> T {
        // MULL(dinv, n) == 2^e * q (mod 2^N) and 2^e * q fits in N bits,
        // so one logical shift recovers q.
        self.dinv.mull(n).shr_full(self.e)
    }

    /// Tests `d | n` without computing a remainder (§9): one `MULL`, one
    /// rotate, one compare.
    #[inline]
    pub fn divides(&self, n: T) -> bool {
        // q0 = MULL(dinv, n); d | n iff the bottom e bits of q0 are zero
        // (the rotate moves them to the top, where they exceed qmax) and
        // the quotient part is at most qmax.
        let q0 = self.dinv.mull(n);
        q0.rotate_right_full(self.e) <= self.qmax
    }
}

impl<T: UWord> fmt::Display for ExactUnsignedDivisor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExactUnsignedDivisor(/{})", self.d)
    }
}

/// The signed counterpart of [`ExactUnsignedDivisor`] (§9): exact signed
/// division, divisibility tests, and the remainder-equality test.
///
/// # Examples
///
/// ```
/// use magicdiv::ExactSignedDivisor;
///
/// let by100 = ExactSignedDivisor::<i32>::new(100)?;
/// assert_eq!(by100.divide_exact(-12_300), -123);
/// assert!(by100.divides(-12_300));
/// assert!(!by100.divides(50));
/// // Remainder-equality without dividing: is n rem 100 == 99?
/// assert!(by100.has_remainder(199, 99));
/// assert!(!by100.has_remainder(-1, 99)); // -1 rem 100 == -1
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactSignedDivisor<S: SWord> {
    d: S,
    e: u32,
    dinv: S::Unsigned,
    /// `2^e * ⌊(2^(N-1) - 1)/|d|⌋`: bound on `|MULL(dinv, n)|` for exact
    /// multiples (the paper's `qmax`, scaled by the even part).
    qmax_scaled: S::Unsigned,
    /// `2^e - 1`, masking the bits that must vanish in `MULL(dinv, n)`.
    low_mask: S::Unsigned,
    /// `|d| == 2^e`: the interval test misses `n == MIN` there, and the
    /// paper prescribes a plain low-bits check instead.
    is_pow2: bool,
}

impl<S: SWord> ExactSignedDivisor<S> {
    /// Precomputes the odd-part inverse for `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: S) -> Result<Self, DivisorError> {
        let plan = ExactPlan::new_signed(d.to_i128(), S::BITS)?;
        Ok(Self::from_plan(&plan))
    }

    /// Like [`new`](Self::new), reporting failure through the unified
    /// [`Fault`](crate::Fault) taxonomy instead of [`DivisorError`] —
    /// mirrors [`crate::try_choose_multiplier`].
    ///
    /// # Errors
    ///
    /// [`FaultKind::DivideByZero`](crate::FaultKind::DivideByZero) at
    /// [`FaultLayer::Plan`](crate::FaultLayer::Plan) when `d == 0`.
    pub fn try_new(d: S) -> Result<Self, crate::Fault> {
        Self::new(d).map_err(crate::Fault::from)
    }

    /// Caches an already-selected plan at the native word type — how the
    /// plan cache (and the guarded-execution layer) turn a stored plan
    /// into a runnable divisor. The plan's constants are trusted as-is.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != S::BITS` or the plan is unsigned.
    pub fn from_plan(plan: &ExactPlan) -> Self {
        assert_eq!(
            plan.width(),
            S::BITS,
            "plan width does not match divisor word width"
        );
        assert!(plan.is_signed(), "unsigned exact plan for signed divisor");
        let word = <S::Unsigned as Limb>::from_u128_truncate;
        let d_abs = S::from_unsigned(word(plan.d_abs));
        ExactSignedDivisor {
            d: if plan.negate {
                d_abs.wrapping_neg()
            } else {
                d_abs
            },
            e: plan.e,
            dinv: word(plan.dinv),
            qmax_scaled: word(plan.qmax),
            low_mask: word(plan.low_mask),
            is_pow2: plan.is_pow2,
        }
    }

    /// Builds the divisor through the planner-tournament entry point.
    ///
    /// No competing candidate families exist for §9 exact division yet:
    /// every [`Strategy`] selects the paper's odd-part-inverse plan, and
    /// [`Strategy::Tournament`] wraps it in the single-candidate
    /// scoreboard (emitting `plan.tournament` events) so callers can
    /// treat every shape uniformly.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn with_strategy(
        d: S,
        strategy: Strategy,
    ) -> Result<(Self, Option<TournamentResult>), DivisorError> {
        let this = Self::new(d)?;
        let tournament = match strategy {
            Strategy::PaperOnly => None,
            Strategy::Tournament => Some(paper_only_tournament(
                this.plan().into(),
                &OpCountScorer,
                &ArithmeticCertifier,
            )),
        };
        Ok((this, tournament))
    }

    /// The divisor this inverse was computed for.
    #[inline]
    pub fn divisor(&self) -> S {
        self.d
    }

    /// The width-erased [`ExactPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> ExactPlan {
        ExactPlan {
            width: S::BITS,
            d_abs: self.d.unsigned_abs().to_u128(),
            signed: true,
            negate: self.d.is_negative(),
            e: self.e,
            dinv: self.dinv.to_u128(),
            qmax: self.qmax_scaled.to_u128(),
            low_mask: self.low_mask.to_u128(),
            is_pow2: self.is_pow2,
        }
    }

    /// Computes `n / d` for `n` known to be a multiple of `d`: one `MULL`
    /// and one arithmetic shift (plus a negation for `d < 0`).
    ///
    /// If `d` does not divide `n`, the result is garbage (checked by a
    /// debug assertion). `MIN / -1` wraps.
    #[inline]
    pub fn divide_exact(&self, n: S) -> S {
        debug_assert!(self.divides(n), "divide_exact requires d | n");
        let q0 = S::from_unsigned(self.dinv.mull(n.as_unsigned())).sra_full(self.e);
        if self.d.is_negative() {
            q0.wrapping_neg()
        } else {
            q0
        }
    }

    /// Tests `d | n` without computing a remainder.
    #[inline]
    pub fn divides(&self, n: S) -> bool {
        let q0 = self.dinv.mull(n.as_unsigned());
        if self.is_pow2 {
            // |d| = 2^e: dinv == 1, so q0 == n; only the low bits matter.
            // (This also covers n == MIN, which the interval test below
            // would wrongly reject.)
            return q0 & self.low_mask == <S::Unsigned as Limb>::ZERO;
        }
        // Divisible iff q0 (read as signed) is a multiple of 2^e in
        // [-qmax, qmax]; the symmetric interval is checked with one
        // unsigned add-and-compare.
        let in_range =
            q0.wrapping_add(self.qmax_scaled) <= self.qmax_scaled.wrapping_add(self.qmax_scaled);
        in_range && q0 & self.low_mask == <S::Unsigned as Limb>::ZERO
    }

    /// Tests `n rem d == r` for a constant `1 <= r < |d|` without dividing
    /// (§9's closing variation). `rem` takes the sign of the dividend, so
    /// this only holds for nonnegative `n`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is not in `1..|d|`.
    #[inline]
    pub fn has_remainder(&self, n: S, r: S) -> bool {
        assert!(
            r >= S::ONE && r.unsigned_abs() < self.d.unsigned_abs(),
            "has_remainder requires 1 <= r < |d|"
        );
        // MULL(dinv, n - r) must be a nonnegative multiple of 2^e not
        // exceeding 2^e * ⌊(2^(N-1) - 1 - r)/d⌋.
        let q0 = self.dinv.mull(n.wrapping_sub(r).as_unsigned());
        let bound = S::MAX
            .as_unsigned()
            .wrapping_sub(r.as_unsigned())
            .checked_div(self.d.unsigned_abs())
            .expect("d nonzero")
            .shl_full(self.e);
        q0 & self.low_mask == <S::Unsigned as Limb>::ZERO && q0 <= bound
    }
}

impl<S: SWord> fmt::Display for ExactSignedDivisor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExactSignedDivisor(/{})", self.d)
    }
}

/// The paper's strength-reduced divisibility loop (§9's closing example):
/// iterates `i = 0, 1, 2, ...` yielding whether `d | i`, with **no
/// multiplication or division in the loop body** — just one add and one
/// compare per step (`test += dinv` modulo `2^N`).
///
/// # Examples
///
/// ```
/// use magicdiv::DivisibilityScanner;
///
/// let hits: Vec<usize> = DivisibilityScanner::<i32>::new(100)?
///     .take(1000)
///     .enumerate()
///     .filter_map(|(i, divisible)| divisible.then_some(i))
///     .collect();
/// assert_eq!(hits, vec![0, 100, 200, 300, 400, 500, 600, 700, 800, 900]);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DivisibilityScanner<S: SWord> {
    dinv: S::Unsigned,
    qmax: S::Unsigned,
    low_mask: S::Unsigned,
    /// Running value of `dinv * i + qmax` modulo `2^N`.
    test: S::Unsigned,
}

impl<S: SWord> DivisibilityScanner<S> {
    /// Builds a scanner for divisibility by `d > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d <= 0`.
    pub fn new(d: S) -> Result<Self, DivisorError> {
        if d <= S::ZERO {
            return Err(DivisorError::Zero);
        }
        let abs_d = d.unsigned_abs();
        let e = abs_d.trailing_zeros();
        let d_odd = abs_d.shr_full(e);
        let dinv = mod_inverse_newton::<S::Unsigned>(d_odd);
        let qmax = S::MAX
            .as_unsigned()
            .checked_div(abs_d)
            .expect("d > 0")
            .shl_full(e);
        Ok(DivisibilityScanner {
            dinv,
            qmax,
            low_mask: <S::Unsigned as Limb>::ONE
                .shl_full(e)
                .wrapping_sub(<S::Unsigned as Limb>::ONE),
            test: qmax,
        })
    }
}

impl<S: SWord> Iterator for DivisibilityScanner<S> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        // test == dinv*i + qmax (mod 2^N). The paper's compiled loop body:
        //     if (test <= 2*qmax && (test & (2^e - 1)) == 0)
        // The low-bits check works on `test` directly because qmax is
        // itself a multiple of 2^e by construction.
        let divisible = self.test <= self.qmax.wrapping_add(self.qmax)
            && self.test & self.low_mask == <S::Unsigned as Limb>::ZERO;
        self.test = self.test.wrapping_add(self.dinv);
        Some(divisible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_strategy_wraps_the_paper_plan_in_a_scoreboard() {
        let (paper_only, none) = ExactSignedDivisor::<i32>::with_strategy(12, Strategy::PaperOnly)
            .expect("nonzero divisor");
        assert_eq!(none, None);
        let (selected, tournament) =
            ExactSignedDivisor::<i32>::with_strategy(12, Strategy::Tournament)
                .expect("nonzero divisor");
        assert_eq!(selected.plan(), paper_only.plan());
        let t = tournament.expect("tournament strategy returns a scoreboard");
        assert!(t.winner_is_paper());
        assert_eq!(selected.divide_exact(144), 12);
    }

    #[test]
    fn inverses_agree_and_invert() {
        for d in (1u32..2000).step_by(2) {
            let a = mod_inverse_newton(d);
            let b = mod_inverse_bitwise(d);
            assert_eq!(a, b, "d={d}");
            assert_eq!(a.wrapping_mul(d), 1, "d={d}");
        }
        for d in [1u128, 3, 25, 625, u128::MAX, (1 << 127) - 1] {
            let a = mod_inverse_newton(d);
            assert_eq!(a, mod_inverse_bitwise(d));
            assert_eq!(a.wrapping_mul(d), 1);
        }
    }

    #[test]
    fn paper_inverse_of_25() {
        let dinv = mod_inverse_newton(25u32);
        assert_eq!(dinv as u64, (19u64 * (1 << 32) + 1) / 25);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_operand_panics() {
        let _ = mod_inverse_newton(10u32);
    }

    #[test]
    fn unsigned_exhaustive_u8() {
        for d in 1u8..=u8::MAX {
            let ed = ExactUnsignedDivisor::new(d).unwrap();
            for n in 0u8..=u8::MAX {
                assert_eq!(ed.divides(n), n % d == 0, "divides n={n} d={d}");
                if n % d == 0 {
                    assert_eq!(ed.divide_exact(n), n / d, "exact n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn signed_exhaustive_i8() {
        for d in i8::MIN..=i8::MAX {
            if d == 0 {
                continue;
            }
            let ed = ExactSignedDivisor::new(d).unwrap();
            for n in i8::MIN..=i8::MAX {
                let divisible = n as i16 % d as i16 == 0;
                assert_eq!(ed.divides(n), divisible, "divides n={n} d={d}");
                if divisible && !(n == i8::MIN && d == -1) {
                    assert_eq!(ed.divide_exact(n), n / d, "exact n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn has_remainder_exhaustive_i8() {
        for d in 2i8..=i8::MAX {
            let ed = ExactSignedDivisor::new(d).unwrap();
            for r in 1..d {
                for n in i8::MIN..=i8::MAX {
                    let expect = n % d == r; // rem has the dividend's sign
                    assert_eq!(ed.has_remainder(n, r), expect, "n={n} d={d} r={r}");
                }
            }
        }
    }

    #[test]
    fn paper_divisible_by_100_example() {
        let ed = ExactSignedDivisor::<i32>::new(100).unwrap();
        let (dinv, e) = (ed.dinv, ed.e);
        assert_eq!(e, 2);
        assert_eq!(dinv as u64, (19u64 * (1 << 32) + 1) / 25);
        for n in [
            -1_000_000i32,
            -100,
            -1,
            0,
            1,
            99,
            100,
            101,
            12_345_600,
            i32::MAX,
            i32::MIN,
        ] {
            assert_eq!(ed.divides(n), n % 100 == 0, "n={n}");
        }
    }

    #[test]
    fn scanner_matches_modulo() {
        for d in [1i32, 2, 3, 4, 7, 100, 127] {
            let scan = DivisibilityScanner::new(d).unwrap();
            for (i, divisible) in scan.take(2000).enumerate() {
                assert_eq!(divisible, i as i32 % d == 0, "i={i} d={d}");
            }
        }
    }

    #[test]
    fn scanner_rejects_nonpositive() {
        assert!(DivisibilityScanner::<i32>::new(0).is_err());
        assert!(DivisibilityScanner::<i32>::new(-5).is_err());
    }

    #[test]
    fn unsigned_wide_spot_checks() {
        let ed = ExactUnsignedDivisor::<u64>::new(720).unwrap();
        assert_eq!(ed.divide_exact(720 * 123456789), 123456789);
        assert!(ed.divides(720 * 987654321));
        assert!(!ed.divides(720 * 987654321 + 1));
        let ed = ExactUnsignedDivisor::<u128>::new(1 << 100).unwrap();
        assert_eq!(ed.divide_exact(7 << 100), 7);
    }

    #[test]
    fn signed_negative_divisor() {
        let ed = ExactSignedDivisor::<i64>::new(-360).unwrap();
        assert_eq!(ed.divide_exact(720), -2);
        assert_eq!(ed.divide_exact(-720), 2);
        assert!(ed.divides(-3600));
        assert!(!ed.divides(-3601));
    }

    #[test]
    fn zero_divisor_rejected() {
        assert!(ExactUnsignedDivisor::<u32>::new(0).is_err());
        assert!(ExactSignedDivisor::<i32>::new(0).is_err());
    }

    #[test]
    fn plan_roundtrips_selection() {
        for d in [1u32, 2, 12, 100, 720, 1 << 20, u32::MAX] {
            let ed = ExactUnsignedDivisor::new(d).unwrap();
            assert_eq!(
                ed.plan(),
                ExactPlan::new_unsigned(d as u128, 32).unwrap(),
                "d={d}"
            );
        }
        for d in [-360i32, -1, 1, 100, 1 << 20, i32::MIN, i32::MAX] {
            let ed = ExactSignedDivisor::new(d).unwrap();
            assert_eq!(
                ed.plan(),
                ExactPlan::new_signed(d as i128, 32).unwrap(),
                "d={d}"
            );
        }
    }
}
