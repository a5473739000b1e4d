//! Unsigned division by a constant or run-time invariant divisor (§4).
//!
//! Two precomputed-divisor types are provided:
//!
//! * [`UnsignedDivisor`] follows Figure 4.2 — the *compiler* strategy for a
//!   compile-time constant: it picks among a plain shift (powers of two), a
//!   multiply-and-shift with an optional pre-shift (even divisors), and the
//!   longer add-fixup sequence when the multiplier needs `N + 1` bits.
//! * [`InvariantUnsignedDivisor`] follows Figure 4.1 — one branch-free code
//!   shape that works for *every* divisor, suitable when the divisor is a
//!   run-time invariant hoisted out of a loop (this is also what libdivide
//!   calls the "branchfree" variant).
//!
//! Both guarantee `divide(n) == n / d` for all `n`, backed by Theorem 4.2.

use core::fmt;
use core::ops::{Div, Rem};

use magicdiv_dword::DWord;

use crate::error::DivisorError;
use crate::plan::{UdivPlan, UdivStrategy, UremPlan, UremStrategy};
use crate::word::UWord;

/// A precomputed unsigned divisor following the Figure 4.2 constant-divisor
/// strategy.
///
/// # Examples
///
/// ```
/// use magicdiv::UnsignedDivisor;
///
/// let by10 = UnsignedDivisor::<u32>::new(10)?;
/// assert_eq!(by10.divide(1_000_000_007), 100_000_000);
/// assert_eq!(by10.remainder(1_000_000_007), 7);
/// assert_eq!(12345u32 / &by10, 1234);
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnsignedDivisor<T> {
    d: T,
    strategy: UdivStrategy<T>,
    /// The remainder path. A `MulBack` payload always equals `strategy`,
    /// the quotient this divisor runs.
    rem: UremStrategy<T>,
}

impl<T: UWord> UnsignedDivisor<T> {
    /// Precomputes the reciprocal constants for dividing by `d`.
    ///
    /// Strategy selection is delegated to the shared planning layer
    /// ([`UdivPlan`], Fig 4.2); the constants are cached here at the
    /// native word type.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: T) -> Result<Self, DivisorError> {
        let plan = UdivPlan::new(d.to_u128(), T::BITS)?;
        Ok(Self::from_plan(&plan))
    }

    /// Caches an already-selected plan at the native word type — how the
    /// tournament machinery (and the differential harness) turn a
    /// scoreboard winner into a runnable divisor.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != T::BITS`.
    pub fn from_plan(plan: &UdivPlan) -> Self {
        assert_eq!(
            plan.width(),
            T::BITS,
            "plan width does not match divisor word width"
        );
        let strategy = plan.strategy().map(T::from_u128_truncate);
        let rem = match strategy {
            // Powers of two (and d == 1): the remainder is a bare mask,
            // bit-identical to multiply-back but one op.
            UdivStrategy::Identity | UdivStrategy::Shift { .. } => UremStrategy::Mask {
                low_mask: T::from_u128_truncate(plan.divisor() - 1),
            },
            udiv => UremStrategy::MulBack { udiv },
        };
        UnsignedDivisor {
            d: T::from_u128_truncate(plan.divisor()),
            strategy,
            rem,
        }
    }

    /// Like [`new`](Self::new), but the remainder path uses the direct
    /// Lemire–Kaser–Kurz fraction plan ([`UremPlan::new_direct`]) instead
    /// of §1 multiply-back: `remainder` never forms the quotient. The
    /// quotient path is unchanged (Fig 4.2).
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new_direct_rem(d: T) -> Result<Self, DivisorError> {
        let mut div = Self::new(d)?;
        div.rem = UremPlan::new_direct(d.to_u128(), T::BITS)?
            .strategy()
            .map(T::from_u128_truncate);
        Ok(div)
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> T {
        self.d
    }

    /// Which Figure 4.2 code shape was selected, with its constants at
    /// the native word.
    #[inline]
    pub fn strategy(&self) -> UdivStrategy<T> {
        self.strategy
    }

    /// The width-erased [`UdivPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> UdivPlan {
        UdivPlan::from_raw(self.d.to_u128(), T::BITS, self.strategy.map(T::to_u128))
    }

    /// The width-erased [`UremPlan`] this divisor caches for its
    /// remainder path — multiply-back (or a mask) from [`new`](Self::new)
    /// and [`from_plan`](Self::from_plan), the LKK fraction from
    /// [`new_direct_rem`](Self::new_direct_rem).
    pub fn urem_plan(&self) -> UremPlan {
        UremPlan::from_raw(self.d.to_u128(), T::BITS, self.rem.map(T::to_u128))
    }

    /// The LKK fraction remainder at the native word: two multiplies to
    /// form the low `2N` fraction bits, two more (plus a carry) to scale
    /// them by `d`. The three leading multiplies are independent.
    ///
    /// Through `N = 32` the whole fraction fits one `u64`, so instead of
    /// limb arithmetic the plan's `c = ⌈2^2N/d⌉` is rescaled to
    /// `F = 64` (`c · 2^(64-2N)` stays admissible because the scaled
    /// rounding error `e · 2^(64-2N) < 2^(64-N)` is still under the
    /// Thm 1 slack) and the remainder is two host multiplies:
    /// `r = HI64(LOW64(n · c64) · d)`.
    #[inline]
    fn rem_fraction(&self, n: T, c_hi: T, c_lo: T) -> T {
        if T::BITS <= 32 {
            let k = 64 - 2 * T::BITS;
            let c64 = (((c_hi.to_u128() as u64) << T::BITS) | (c_lo.to_u128() as u64)) << k;
            let frac = (n.to_u128() as u64).wrapping_mul(c64);
            let r = (u128::from(frac) * self.d.to_u128()) >> 64;
            return T::from_u128_truncate(r);
        }
        // frac = (n * c) mod 2^2N in two N-bit limbs.
        let frac_lo = n.wrapping_mul(c_lo);
        let frac_hi = n.muluh(c_lo).wrapping_add(n.wrapping_mul(c_hi));
        // r = ⌊frac * d / 2^2N⌋.
        let b = frac_lo.muluh(self.d);
        let (_, carry) = frac_hi.wrapping_mul(self.d).overflowing_add(b);
        frac_hi
            .muluh(self.d)
            .wrapping_add(if carry { T::ONE } else { T::ZERO })
    }

    /// Computes `⌊n / d⌋` without a division instruction.
    #[inline]
    pub fn divide(&self, n: T) -> T {
        match self.strategy {
            UdivStrategy::Identity => n,
            UdivStrategy::Shift { sh } => n.shr_full(sh),
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                m.muluh(n.shr_full(sh_pre)).shr_full(sh_post)
            }
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                // q = SRL(t1 + SRL(n - t1, 1), sh_post - 1); conceptually
                // SRL(n + t1, sh_post) but n + t1 may overflow N bits.
                let t1 = m_minus_pow2n.muluh(n);
                t1.wrapping_add(n.wrapping_sub(t1).shr_full(1))
                    .shr_full(sh_post - 1)
            }
            UdivStrategy::MulRoundUp { m, sh_post } => {
                // q = ⌊m(n+1)/2^(N+sh_post)⌋: the high half of m*n plus
                // the carry out of the low half's + m, then a shift. The
                // sum cannot wrap: t_hi + 1 <= m < 2^N.
                let t_lo = m.wrapping_mul(n);
                let (_, carry) = t_lo.overflowing_add(m);
                m.muluh(n)
                    .wrapping_add(if carry { T::ONE } else { T::ZERO })
                    .shr_full(sh_post)
            }
        }
    }

    /// Computes `n mod d` without computing the quotient first when a
    /// direct plan is cached.
    ///
    /// From [`new`](Self::new) this multiplies the quotient back
    /// (`r = n - q * d`, one extra `MULL` and subtract as in §1) — or
    /// masks the low bits for power-of-two divisors. From
    /// [`new_direct_rem`](Self::new_direct_rem) it evaluates the
    /// Lemire–Kaser–Kurz fraction instead.
    #[inline]
    pub fn remainder(&self, n: T) -> T {
        match self.rem {
            UremStrategy::Mask { low_mask } => n & low_mask,
            UremStrategy::Fraction { c_hi, c_lo } => self.rem_fraction(n, c_hi, c_lo),
            UremStrategy::MulBack { .. } => n.wrapping_sub(self.divide(n).wrapping_mul(self.d)),
        }
    }

    /// Computes quotient and remainder together.
    #[inline]
    pub fn div_rem(&self, n: T) -> (T, T) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }

    /// Computes `⌈n / d⌉` (round up) — without the overflow-prone
    /// `(n + d - 1) / d` idiom.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::UnsignedDivisor;
    ///
    /// let by10 = UnsignedDivisor::<u32>::new(10)?;
    /// assert_eq!(by10.divide_ceil(21), 3);
    /// assert_eq!(by10.divide_ceil(20), 2);
    /// assert_eq!(by10.divide_ceil(u32::MAX), 429_496_730); // no overflow
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    #[inline]
    pub fn divide_ceil(&self, n: T) -> T {
        let (q, r) = self.div_rem(n);
        if r == T::ZERO {
            q
        } else {
            q.wrapping_add(T::ONE)
        }
    }

    /// Divides every element of `values` in place — the batch form of the
    /// loop the paper hoists the reciprocal out of.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::UnsignedDivisor;
    ///
    /// let by7 = UnsignedDivisor::<u64>::new(7)?;
    /// let mut xs = [0u64, 6, 7, 8, 700];
    /// by7.divide_slice_in_place(&mut xs);
    /// assert_eq!(xs, [0, 0, 1, 1, 100]);
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    pub fn divide_slice_in_place(&self, values: &mut [T]) {
        for v in values {
            *v = self.divide(*v);
        }
    }

    /// Batch quotient: `out[i] = ns[i] / d`. The strategy dispatch is
    /// hoisted out of the loop, so each element costs only the selected
    /// straight-line sequence.
    ///
    /// # Panics
    ///
    /// Panics when `ns` and `out` have different lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::UnsignedDivisor;
    ///
    /// let by7 = UnsignedDivisor::<u64>::new(7)?;
    /// let ns = [0u64, 6, 7, 8, 700];
    /// let mut qs = [0u64; 5];
    /// by7.div_slice(&ns, &mut qs);
    /// assert_eq!(qs, [0, 0, 1, 1, 100]);
    /// # Ok::<(), magicdiv::DivisorError>(())
    /// ```
    pub fn div_slice(&self, ns: &[T], out: &mut [T]) {
        assert_eq!(ns.len(), out.len(), "div_slice: length mismatch");
        match self.strategy {
            UdivStrategy::Identity => out.copy_from_slice(ns),
            UdivStrategy::Shift { sh } => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = n.shr_full(sh);
                }
            }
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = m.muluh(n.shr_full(sh_pre)).shr_full(sh_post);
                }
            }
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    let t1 = m_minus_pow2n.muluh(n);
                    *o = t1
                        .wrapping_add(n.wrapping_sub(t1).shr_full(1))
                        .shr_full(sh_post - 1);
                }
            }
            UdivStrategy::MulRoundUp { m, sh_post } => {
                for (o, &n) in out.iter_mut().zip(ns) {
                    let t_lo = m.wrapping_mul(n);
                    let (_, carry) = t_lo.overflowing_add(m);
                    *o = m
                        .muluh(n)
                        .wrapping_add(if carry { T::ONE } else { T::ZERO })
                        .shr_full(sh_post);
                }
            }
        }
    }

    /// Batch quotient and remainder: `q[i] = ns[i] / d`,
    /// `r[i] = ns[i] % d`.
    ///
    /// One fused loop per strategy variant, with the plan constants
    /// hoisted: the quotient is computed once per element and the
    /// remainder reuses it (`r = n - q * d`) instead of replanning or
    /// re-deriving `n mod d` from scratch. Power-of-two divisors mask
    /// instead of multiplying back.
    ///
    /// # Panics
    ///
    /// Panics when the three slices have different lengths.
    pub fn div_rem_slice(&self, ns: &[T], q: &mut [T], r: &mut [T]) {
        assert_eq!(ns.len(), q.len(), "div_rem_slice: length mismatch");
        assert_eq!(ns.len(), r.len(), "div_rem_slice: length mismatch");
        let d = self.d;
        if matches!(self.strategy, UdivStrategy::Identity) {
            q.copy_from_slice(ns);
            for r in r.iter_mut() {
                *r = T::ZERO;
            }
            return;
        }
        let pairs = q.iter_mut().zip(r.iter_mut()).zip(ns);
        match self.strategy {
            UdivStrategy::Identity => {}
            UdivStrategy::Shift { sh } => {
                let low_mask = d.wrapping_sub(T::ONE);
                for ((q, r), &n) in pairs {
                    *q = n.shr_full(sh);
                    *r = n & low_mask;
                }
            }
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                for ((q, r), &n) in pairs {
                    let quot = m.muluh(n.shr_full(sh_pre)).shr_full(sh_post);
                    *q = quot;
                    *r = n.wrapping_sub(quot.wrapping_mul(d));
                }
            }
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                for ((q, r), &n) in pairs {
                    let t1 = m_minus_pow2n.muluh(n);
                    let quot = t1
                        .wrapping_add(n.wrapping_sub(t1).shr_full(1))
                        .shr_full(sh_post - 1);
                    *q = quot;
                    *r = n.wrapping_sub(quot.wrapping_mul(d));
                }
            }
            UdivStrategy::MulRoundUp { m, sh_post } => {
                for ((q, r), &n) in pairs {
                    let t_lo = m.wrapping_mul(n);
                    let (_, carry) = t_lo.overflowing_add(m);
                    let quot = m
                        .muluh(n)
                        .wrapping_add(if carry { T::ONE } else { T::ZERO })
                        .shr_full(sh_post);
                    *q = quot;
                    *r = n.wrapping_sub(quot.wrapping_mul(d));
                }
            }
        }
    }

    /// Batch remainder only: `r[i] = ns[i] % d`, via whichever remainder
    /// plan this divisor caches (mask, direct fraction, or multiply-back)
    /// with its constants hoisted out of the loop.
    ///
    /// # Panics
    ///
    /// Panics when `ns` and `r` have different lengths.
    pub fn rem_slice(&self, ns: &[T], r: &mut [T]) {
        assert_eq!(ns.len(), r.len(), "rem_slice: length mismatch");
        match self.rem {
            UremStrategy::Mask { low_mask } => {
                for (r, &n) in r.iter_mut().zip(ns) {
                    *r = n & low_mask;
                }
            }
            UremStrategy::Fraction { c_hi, c_lo } => {
                for (r, &n) in r.iter_mut().zip(ns) {
                    *r = self.rem_fraction(n, c_hi, c_lo);
                }
            }
            UremStrategy::MulBack { .. } => {
                for (r, &n) in r.iter_mut().zip(ns) {
                    *r = n.wrapping_sub(self.divide(n).wrapping_mul(self.d));
                }
            }
        }
    }
}

impl<T: UWord> fmt::Display for UnsignedDivisor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UnsignedDivisor(/{})", self.d)
    }
}

/// A precomputed unsigned divisor following Figure 4.1: one branch-free
/// code shape valid for every nonzero divisor.
///
/// Prefer this over [`UnsignedDivisor`] when the divisor is a run-time
/// invariant (e.g. hoisted out of a loop): setup does no divisor-structure
/// branching, and `divide` is straight-line code.
///
/// # Examples
///
/// ```
/// use magicdiv::InvariantUnsignedDivisor;
///
/// for d in 1u32..=20 {
///     let inv = InvariantUnsignedDivisor::new(d)?;
///     assert_eq!(inv.divide(1000), 1000 / d);
/// }
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InvariantUnsignedDivisor<T> {
    d: T,
    /// `m - 2^N` where `m = ⌊2^(N+l)/d⌋ + 1`.
    m_prime: T,
    sh1: u32,
    sh2: u32,
}

impl<T: UWord> InvariantUnsignedDivisor<T> {
    /// Precomputes the Figure 4.1 constants for dividing by `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: T) -> Result<Self, DivisorError> {
        if d == T::ZERO {
            return Err(DivisorError::Zero);
        }
        let n = T::BITS;
        let l = d.ceil_log2();
        // m' = ⌊2^N * (2^l - d) / d⌋ + 1 = ⌊2^(N+l)/d⌋ - 2^N + 1.
        let two_nl = if n + l == 2 * n {
            // d > 2^(N-1): ⌊2^(2N)/d⌋ = ⌊(2^(2N)-1)/d⌋ since d is not a
            // power of two here (2^(N-1) is the largest power of two and
            // has l = N - 1).
            DWord::from_parts(T::MAX, T::MAX)
                .div_rem_limb(d)
                .expect("nonzero")
                .0
        } else {
            DWord::pow2(n + l).div_rem_limb(d).expect("nonzero").0
        };
        let m_prime = two_nl
            .wrapping_sub(DWord::from_hi(T::ONE))
            .wrapping_add_limb(T::ONE)
            .lo();
        Ok(InvariantUnsignedDivisor {
            d,
            m_prime,
            sh1: l.min(1),
            sh2: l.saturating_sub(1),
        })
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> T {
        self.d
    }

    /// The Figure 4.1 constants `(m - 2^N, sh1, sh2)`.
    #[inline]
    pub fn constants(&self) -> (T, u32, u32) {
        (self.m_prime, self.sh1, self.sh2)
    }

    /// Computes `⌊n / d⌋` with one `MULUH`, two add/subtracts and two
    /// shifts — branch-free.
    #[inline]
    pub fn divide(&self, n: T) -> T {
        let t1 = self.m_prime.muluh(n);
        t1.wrapping_add(n.wrapping_sub(t1).shr_full(self.sh1))
            .shr_full(self.sh2)
    }

    /// Computes `n mod d` via multiply-back.
    #[inline]
    pub fn remainder(&self, n: T) -> T {
        n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
    }

    /// Computes quotient and remainder together.
    #[inline]
    pub fn div_rem(&self, n: T) -> (T, T) {
        let q = self.divide(n);
        (q, n.wrapping_sub(q.wrapping_mul(self.d)))
    }
}

impl<T: UWord> fmt::Display for InvariantUnsignedDivisor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InvariantUnsignedDivisor(/{})", self.d)
    }
}

macro_rules! impl_div_ops {
    ($t:ty) => {
        impl Div<&UnsignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: &UnsignedDivisor<$t>) -> $t {
                rhs.divide(self)
            }
        }
        impl Rem<&UnsignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn rem(self, rhs: &UnsignedDivisor<$t>) -> $t {
                rhs.remainder(self)
            }
        }
        impl Div<&InvariantUnsignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn div(self, rhs: &InvariantUnsignedDivisor<$t>) -> $t {
                rhs.divide(self)
            }
        }
        impl Rem<&InvariantUnsignedDivisor<$t>> for $t {
            type Output = $t;
            #[inline]
            fn rem(self, rhs: &InvariantUnsignedDivisor<$t>) -> $t {
                rhs.remainder(self)
            }
        }
    };
}

impl_div_ops!(u8);
impl_div_ops!(u16);
impl_div_ops!(u32);
impl_div_ops!(u64);
impl_div_ops!(u128);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_u8_both_types() {
        for d in 1u8..=u8::MAX {
            let cd = UnsignedDivisor::new(d).unwrap();
            let id = InvariantUnsignedDivisor::new(d).unwrap();
            for n in 0u8..=u8::MAX {
                assert_eq!(cd.divide(n), n / d, "constant n={n} d={d}");
                assert_eq!(id.divide(n), n / d, "invariant n={n} d={d}");
                assert_eq!(cd.remainder(n), n % d, "rem n={n} d={d}");
                assert_eq!(id.div_rem(n), (n / d, n % d), "divrem n={n} d={d}");
            }
        }
    }

    #[test]
    fn all_divisors_u16_sampled_dividends() {
        let ns: Vec<u16> = (0..=300)
            .chain((0..16).map(|k| 1u16 << k))
            .chain((1..16).map(|k| (1u16 << k) - 1))
            .chain([u16::MAX, u16::MAX - 1, 32768, 32767])
            .collect();
        for d in 1u16..=u16::MAX {
            let cd = UnsignedDivisor::new(d).unwrap();
            for &n in &ns {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn invariant_all_divisors_u16_sampled_dividends() {
        let ns = [
            0u16, 1, 2, 9, 10, 99, 100, 255, 256, 32767, 32768, 65534, 65535,
        ];
        for d in 1u16..=u16::MAX {
            let id = InvariantUnsignedDivisor::new(d).unwrap();
            for &n in &ns {
                assert_eq!(id.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn paper_strategy_d10() {
        let d = UnsignedDivisor::<u32>::new(10).unwrap();
        match d.strategy() {
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                assert_eq!(m as u128, ((1u128 << 34) + 1) / 5);
                assert_eq!(sh_pre, 0);
                assert_eq!(sh_post, 3);
            }
            s => panic!("unexpected strategy {s:?}"),
        }
    }

    #[test]
    fn paper_strategy_d7_long_sequence() {
        let d = UnsignedDivisor::<u32>::new(7).unwrap();
        match d.strategy() {
            UdivStrategy::MulAddShift {
                m_minus_pow2n,
                sh_post,
            } => {
                let m = ((1u128 << 35) + 3) / 7;
                assert_eq!(m_minus_pow2n as u128, m - (1 << 32));
                assert_eq!(sh_post, 3);
            }
            s => panic!("unexpected strategy {s:?}"),
        }
    }

    #[test]
    fn paper_strategy_d14_pre_shift() {
        let d = UnsignedDivisor::<u32>::new(14).unwrap();
        match d.strategy() {
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                assert_eq!(m as u128, ((1u128 << 34) + 5) / 7);
                assert_eq!(sh_pre, 1);
                assert_eq!(sh_post, 2);
            }
            s => panic!("unexpected strategy {s:?}"),
        }
    }

    #[test]
    fn powers_of_two_use_shift() {
        for k in 1..32 {
            let d = UnsignedDivisor::<u32>::new(1 << k).unwrap();
            assert_eq!(d.strategy(), UdivStrategy::Shift { sh: k });
        }
        assert_eq!(
            UnsignedDivisor::<u32>::new(1).unwrap().strategy(),
            UdivStrategy::Identity
        );
    }

    #[test]
    fn boundary_dividends_u32() {
        let divisors = [
            1u32,
            2,
            3,
            7,
            10,
            14,
            641,
            274177,
            0x7fff_ffff,
            0x8000_0000,
            0x8000_0001,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &d in &divisors {
            let cd = UnsignedDivisor::new(d).unwrap();
            let id = InvariantUnsignedDivisor::new(d).unwrap();
            let ns = [
                0u32,
                1,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                d.wrapping_mul(2),
                u32::MAX / 2,
                u32::MAX / 2 + 1,
                u32::MAX - 1,
                u32::MAX,
            ];
            for &n in &ns {
                assert_eq!(cd.divide(n), n / d, "constant n={n} d={d}");
                assert_eq!(id.divide(n), n / d, "invariant n={n} d={d}");
            }
        }
    }

    #[test]
    fn boundary_dividends_u64_and_u128() {
        let d64s = [1u64, 3, 10, 274177, 1 << 33, u64::MAX, u64::MAX / 2];
        for &d in &d64s {
            let cd = UnsignedDivisor::new(d).unwrap();
            for n in [
                0u64,
                1,
                d,
                d.wrapping_add(1),
                u64::MAX,
                u64::MAX - 1,
                u64::MAX / 3,
            ] {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
        let d128s = [1u128, 3, 10, 274177, 1 << 100, u128::MAX, u128::MAX / 7];
        for &d in &d128s {
            let cd = UnsignedDivisor::new(d).unwrap();
            let id = InvariantUnsignedDivisor::new(d).unwrap();
            for n in [
                0u128,
                1,
                d,
                d.wrapping_add(1),
                u128::MAX,
                u128::MAX - 1,
                u128::MAX / 3,
            ] {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
                assert_eq!(id.divide(n), n / d, "invariant n={n} d={d}");
            }
        }
    }

    #[test]
    fn div_rem_operators() {
        let d = UnsignedDivisor::<u64>::new(1000).unwrap();
        assert_eq!(123_456u64 / &d, 123);
        assert_eq!(123_456u64 % &d, 456);
        let i = InvariantUnsignedDivisor::<u64>::new(1000).unwrap();
        assert_eq!(123_456u64 / &i, 123);
        assert_eq!(123_456u64 % &i, 456);
    }

    #[test]
    fn zero_divisor_rejected() {
        assert_eq!(
            UnsignedDivisor::<u32>::new(0).unwrap_err(),
            DivisorError::Zero
        );
        assert_eq!(
            InvariantUnsignedDivisor::<u32>::new(0).unwrap_err(),
            DivisorError::Zero
        );
    }

    #[test]
    fn display_is_informative() {
        let d = UnsignedDivisor::<u32>::new(7).unwrap();
        assert_eq!(format!("{d}"), "UnsignedDivisor(/7)");
    }
}

#[cfg(test)]
mod rounding_tests {
    use super::*;
    use crate::candidates::udiv_candidates;
    use crate::plan::DivPlan;
    use crate::testkit::interesting_unsigned_divisors;
    use crate::tournament::{run_udiv_tournament, run_urem_tournament, OpCount};
    use std::collections::BTreeSet;

    /// The divisor that runs the unsigned tournament's winner for `d`.
    fn tournament_divisor(d: u8) -> UnsignedDivisor<u8> {
        let t = run_udiv_tournament(d.into(), 8, &OpCount).unwrap();
        UnsignedDivisor::from_plan(&UdivPlan::try_from(t.winning().candidate.plan).unwrap())
    }

    #[test]
    fn divide_ceil_exhaustive_u8() {
        for d in 1u8..=u8::MAX {
            let cd = UnsignedDivisor::new(d).unwrap();
            for n in 0u8..=u8::MAX {
                let expect = (n as u16).div_ceil(d as u16) as u8;
                assert_eq!(cd.divide_ceil(n), expect, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn slice_division_u64() {
        let cd = UnsignedDivisor::<u64>::new(1_000_000_007).unwrap();
        let mut xs: Vec<u64> = (0..100).map(|i| i * 987_654_321_987).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| x / 1_000_000_007).collect();
        cd.divide_slice_in_place(&mut xs);
        assert_eq!(xs, expect);
    }

    /// Round-trips, for each `d` at `T`'s width, every candidate each
    /// unsigned generator fields and the urem plan of every remainder
    /// constructor through the native-word strategies. Records each
    /// candidate's `(source, strategy)` in `seen`.
    fn assert_plans_roundtrip<T: UWord>(
        ds: Vec<T>,
        seen: &mut BTreeSet<(&'static str, &'static str)>,
    ) {
        for d in ds {
            let (d128, w) = (d.to_u128(), T::BITS);
            for c in udiv_candidates(d128, w).unwrap() {
                let DivPlan::Unsigned(p) = c.plan else {
                    panic!("unsigned pool fielded {}", c.plan)
                };
                assert_eq!(UnsignedDivisor::<T>::from_plan(&p).plan(), p, "[{p}]");
                seen.insert((c.source.name(), c.plan.strategy_name()));
            }
            let cd = UnsignedDivisor::new(d).unwrap();
            assert_eq!(cd.plan(), UdivPlan::new(d128, w).unwrap(), "d={d}");
            assert_eq!(cd.urem_plan(), UremPlan::new(d128, w).unwrap(), "d={d}");
            let direct = UnsignedDivisor::new_direct_rem(d).unwrap().urem_plan();
            assert_eq!(direct, UremPlan::new_direct(d128, w).unwrap(), "d={d}");
            // The remainder tournament picks one of those two plans.
            let t = run_urem_tournament(d128, w, &OpCount).unwrap();
            let won = t.winning().candidate.plan;
            assert!(
                won == cd.urem_plan().into() || won == direct.into(),
                "d={d}"
            );
        }
    }

    #[test]
    fn plan_roundtrips_selection() {
        // The cached strategies must reconstruct the exact plans the
        // shared layer chose, for every candidate family and every
        // remainder constructor.
        let mut seen = BTreeSet::new();
        assert_plans_roundtrip((1..=u8::MAX).collect(), &mut seen);
        for (source, strategy) in [
            ("paper", "identity"),
            ("paper", "shift"),
            ("paper", "mul_shift"),
            ("paper", "mul_add_shift"),
            ("round_up", "mul_round_up"),
            ("optimal_bounds", "mul_shift"),
        ] {
            assert!(seen.contains(&(source, strategy)), "{source}/{strategy}");
        }
        assert_plans_roundtrip(interesting_unsigned_divisors::<u16>(), &mut seen);
        assert_plans_roundtrip(interesting_unsigned_divisors::<u32>(), &mut seen);
        assert_plans_roundtrip(interesting_unsigned_divisors::<u64>(), &mut seen);
        assert_plans_roundtrip(interesting_unsigned_divisors::<u128>(), &mut seen);
    }

    #[test]
    fn mulback_remainder_reports_the_executed_quotient() {
        // A multiply-back urem plan must embed the quotient strategy the
        // divisor actually runs, whichever constructor built it.
        let mut non_paper_quotients = 0;
        for d in 1u8..=u8::MAX {
            for cd in [UnsignedDivisor::new(d).unwrap(), tournament_divisor(d)] {
                if let UremStrategy::MulBack { udiv } = cd.urem_plan().strategy() {
                    assert_eq!(udiv, cd.plan().strategy(), "d={d}");
                    non_paper_quotients +=
                        usize::from(cd.plan() != UdivPlan::new(d.into(), 8).unwrap());
                }
            }
        }
        assert!(
            non_paper_quotients > 0,
            "no tournament quotient was multiplied back"
        );
    }

    #[test]
    fn tournament_winner_divides_correctly_exhaustive_u8() {
        for d in 1u8..=u8::MAX {
            let td = tournament_divisor(d);
            for n in 0u8..=u8::MAX {
                assert_eq!(td.divide(n), n / d, "n={n} d={d}");
                assert_eq!(td.remainder(n), n % d, "rem n={n} d={d}");
            }
            let mut qs = vec![0u8; 256];
            let ns: Vec<u8> = (0..=u8::MAX).collect();
            td.div_slice(&ns, &mut qs);
            for (&n, &q) in ns.iter().zip(&qs) {
                assert_eq!(q, n / d, "slice n={n} d={d}");
            }
        }
    }

    #[test]
    fn from_plan_roundtrips_and_checks_width() {
        let plan = UdivPlan::new(10, 32).unwrap();
        let cd = UnsignedDivisor::<u32>::from_plan(&plan);
        assert_eq!(cd, UnsignedDivisor::<u32>::new(10).unwrap());
        assert_eq!(cd.plan(), plan);
        let err = std::panic::catch_unwind(|| UnsignedDivisor::<u64>::from_plan(&plan));
        assert!(err.is_err(), "width mismatch must panic");
    }

    #[test]
    fn batch_slices_match_scalar() {
        for d in [1u32, 6, 7, 10, 16, 641, u32::MAX] {
            let cd = UnsignedDivisor::new(d).unwrap();
            let ns: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let mut q = vec![0u32; ns.len()];
            let mut r = vec![0u32; ns.len()];
            cd.div_rem_slice(&ns, &mut q, &mut r);
            for (i, &n) in ns.iter().enumerate() {
                assert_eq!((q[i], r[i]), (n / d, n % d), "n={n} d={d}");
            }
            let mut r2 = vec![0u32; ns.len()];
            cd.rem_slice(&ns, &mut r2);
            assert_eq!(r, r2, "rem_slice agrees with div_rem_slice d={d}");
        }
    }

    #[test]
    fn direct_rem_exhaustive_u8() {
        for d in 1u8..=u8::MAX {
            let dd = UnsignedDivisor::new_direct_rem(d).unwrap();
            for n in 0u8..=u8::MAX {
                assert_eq!(dd.remainder(n), n % d, "direct rem n={n} d={d}");
                assert_eq!(dd.divide(n), n / d, "quotient unchanged n={n} d={d}");
            }
        }
    }

    #[test]
    fn direct_rem_boundary_dividends_wide() {
        for d in [3u32, 7, 10, 641, 1_000_000_007, u32::MAX] {
            let dd = UnsignedDivisor::new_direct_rem(d).unwrap();
            for n in [0u32, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(dd.remainder(n), n % d, "n={n} d={d}");
            }
        }
        for d in [3u64, 10, (1 << 32) + 1, u64::MAX - 1, u64::MAX] {
            let dd = UnsignedDivisor::new_direct_rem(d).unwrap();
            for n in [0u64, 1, d - 1, d.wrapping_add(1), u64::MAX - 1, u64::MAX] {
                assert_eq!(dd.remainder(n), n % d, "n={n} d={d}");
            }
        }
        for d in [3u128, 10, (1 << 100) + 1, u128::MAX] {
            let dd = UnsignedDivisor::new_direct_rem(d).unwrap();
            for n in [0u128, 1, d - 1, d.wrapping_add(1), u128::MAX - 1, u128::MAX] {
                assert_eq!(dd.remainder(n), n % d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn direct_rem_pow2_is_mask_and_plan_roundtrips() {
        let dd = UnsignedDivisor::<u32>::new_direct_rem(16).unwrap();
        assert!(
            matches!(
                dd.urem_plan().strategy(),
                UremStrategy::Mask { low_mask: 15 }
            ),
            "pow2 direct rem is a mask"
        );
        let dd = UnsignedDivisor::<u32>::new_direct_rem(10).unwrap();
        assert!(
            matches!(dd.urem_plan().strategy(), UremStrategy::Fraction { .. }),
            "non-pow2 direct rem is the LKK fraction"
        );
        let base = UnsignedDivisor::<u32>::new(10).unwrap();
        assert!(
            matches!(base.urem_plan().strategy(), UremStrategy::MulBack { .. }),
            "paper baseline rem is multiply-back"
        );
        assert_eq!(
            base.urem_plan(),
            crate::plan::UremPlan::new(10, 32).unwrap(),
            "baseline urem plan matches UremPlan::new"
        );
    }
}
