//! Division of a doubleword (`2N`-bit) dividend by an invariant word
//! divisor (§8, Figure 8.1).
//!
//! This is the multiple-precision-arithmetic primitive (Knuth's
//! `divrem(udword, uword)`): quotient and remainder of a `2N`-bit value by
//! an `N`-bit invariant divisor, with the quotient known to fit in `N`
//! bits. After per-divisor setup, each division costs two multiplications
//! (both halves of each) and some 20–25 simple operations — no hardware
//! divide.
//!
//! Unlike §4–§6, this algorithm rounds its multiplier *down*
//! (`m' = ⌊(2^(N+l) - 1)/d⌋ - 2^N`), per Lemma 8.1.

use core::fmt;

use magicdiv_dword::DWord;

use crate::error::{DivisorError, DwordDivError};
use crate::plan::DwordPlan;
use crate::word::UWord;

/// A precomputed invariant divisor for doubleword dividends (Figure 8.1).
///
/// # Examples
///
/// ```
/// use magicdiv::DwordDivisor;
/// use magicdiv_dword::DWord;
///
/// let by10 = DwordDivisor::<u32>::new(10)?;
/// // (7 * 2^32 + 6) / 10, a dividend that does not fit in 32 bits:
/// let n = DWord::from_parts(7, 6);
/// let (q, r) = by10.div_rem(n)?;
/// assert_eq!(q as u64, ((7u64 << 32) + 6) / 10);
/// assert_eq!(r as u64, ((7u64 << 32) + 6) % 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DwordDivisor<T> {
    d: T,
    /// `⌊(2^(N+l) - 1)/d⌋ - 2^N`.
    m_prime: T,
    /// `1 + ⌊log2 d⌋`, so `2^(l-1) <= d < 2^l`.
    l: u32,
    /// `d` normalized to the top of the word: `SLL(d, N - l)`.
    d_norm: T,
}

impl<T: UWord> DwordDivisor<T> {
    /// Precomputes the Figure 8.1 constants for dividing by `d`.
    ///
    /// # Errors
    ///
    /// Returns [`DivisorError::Zero`] when `d == 0`.
    pub fn new(d: T) -> Result<Self, DivisorError> {
        // The planning layer is the single source of the Fig 8.1 constant
        // computation; this runtime divisor just caches the constants at
        // its native word type.
        let plan = DwordPlan::new(d.to_u128(), T::BITS)?;
        Ok(Self::from_plan(&plan))
    }

    /// Caches an already-selected plan at the native word type — how the
    /// plan cache (and the guarded-execution layer) turn a stored plan
    /// into a runnable divisor. The plan's constants are trusted as-is.
    ///
    /// # Panics
    ///
    /// Panics when `plan.width() != T::BITS`.
    pub fn from_plan(plan: &DwordPlan) -> Self {
        assert_eq!(
            plan.width(),
            T::BITS,
            "plan width does not match divisor word width"
        );
        DwordDivisor {
            d: T::from_u128_truncate(plan.divisor()),
            m_prime: T::from_u128_truncate(plan.m_prime()),
            l: plan.l(),
            d_norm: T::from_u128_truncate(plan.d_norm()),
        }
    }

    /// The width-erased [`DwordPlan`] this divisor caches — the same plan
    /// `magicdiv-codegen` lowers to IR and `magicdiv-simcpu` prices.
    pub fn plan(&self) -> DwordPlan {
        DwordPlan {
            width: T::BITS,
            d: self.d.to_u128(),
            m_prime: self.m_prime.to_u128(),
            l: self.l,
            d_norm: self.d_norm.to_u128(),
        }
    }

    /// The precomputed Figure 8.1 constants `(m', l, d_norm)`.
    #[inline]
    pub fn constants(&self) -> (T, u32, T) {
        (self.m_prime, self.l, self.d_norm)
    }

    /// The divisor this reciprocal was computed for.
    #[inline]
    pub fn divisor(&self) -> T {
        self.d
    }

    /// Divides the doubleword `n`, returning `(quotient, remainder)`.
    ///
    /// # Errors
    ///
    /// Returns [`DwordDivError::QuotientOverflow`] when the quotient does
    /// not fit in one word, i.e. `n >= d * 2^N` (equivalently
    /// `HIGH(n) >= d`) — the same precondition hardware `divlu`-style
    /// instructions impose.
    pub fn div_rem(&self, n: DWord<T>) -> Result<(T, T), DwordDivError> {
        if n.hi() >= self.d {
            return Err(DwordDivError::QuotientOverflow);
        }
        let nbits = T::BITS;
        let l = self.l;
        // n2 = SLL(HIGH(n), N - l) + SRL(LOW(n), l): the top N bits of the
        // dividend after normalization, i.e. ⌊n / 2^l⌋ truncated to a word.
        // Note l may equal N, so the saturating shifts matter (the paper's
        // note about shift counts of N).
        let n2 = n.hi().shl_full(nbits - l).wrapping_add(n.lo().shr_full(l));
        // n10 = SLL(LOW(n), N - l) = n1 * 2^(N-1) + n0 * 2^(N-l).
        let n10 = n.lo().shl_full(nbits - l);
        // n1 = XSIGN(n10): all-ones when the n1 bit of the dividend is set.
        let n1_mask = n10.xsign();
        // nadj = n10 + AND(n1, dnorm - 2^N), wrapping: the -2^N vanishes
        // modulo 2^N and underflow is impossible (n10 >= 2^(N-1) >= 2^N - dnorm).
        let nadj = n10.wrapping_add(n1_mask & self.d_norm);
        // q1 = n2 + HIGH(m' * (n2 - n1) + nadj); (n2 - n1_mask) = n2 + n1.
        let t = DWord::widening_mul(self.m_prime, n2.wrapping_sub(n1_mask))
            .wrapping_add(DWord::from_lo(nadj));
        let q1 = n2.wrapping_add(t.hi());
        // dr = n - 2^N*d + (2^N - 1 - q1)*d = n - (q1 + 1)*d, a signed
        // doubleword in [-d, d).
        let not_q1 = !q1;
        let dr = n
            .wrapping_sub(DWord::from_hi(self.d))
            .wrapping_add(DWord::widening_mul(not_q1, self.d));
        // HIGH(dr) is -1 (all ones) when dr < 0, else 0, because |dr| < d < 2^N.
        let q = dr.hi().wrapping_sub(not_q1); // = q1 + 1 + HIGH(dr) (mod 2^N)
        let r = dr.lo().wrapping_add(self.d & dr.hi());
        Ok((q, r))
    }
}

impl<T: UWord> fmt::Display for DwordDivisor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DwordDivisor(/{})", self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_u32(n: u64, d: u32) {
        let dd = DwordDivisor::<u32>::new(d).unwrap();
        let n_dw = DWord::from_parts((n >> 32) as u32, n as u32);
        if (n >> 32) as u32 >= d {
            assert_eq!(dd.div_rem(n_dw), Err(DwordDivError::QuotientOverflow));
        } else {
            let (q, r) = dd.div_rem(n_dw).unwrap();
            assert_eq!(q as u64, n / d as u64, "q for {n}/{d}");
            assert_eq!(r as u64, n % d as u64, "r for {n}/{d}");
        }
    }

    #[test]
    fn exhaustive_u8_limbs() {
        // Full cross product at N = 8: every divisor, every 16-bit dividend
        // would be 16M cases; sample dividends densely instead.
        for d in 1u8..=u8::MAX {
            let dd = DwordDivisor::<u8>::new(d).unwrap();
            for n in (0u16..=u16::MAX).step_by(7) {
                let n_dw = DWord::from_parts((n >> 8) as u8, n as u8);
                if (n >> 8) as u8 >= d {
                    assert!(dd.div_rem(n_dw).is_err(), "n={n} d={d}");
                } else {
                    let (q, r) = dd.div_rem(n_dw).unwrap();
                    assert_eq!(q as u16, n / d as u16, "q n={n} d={d}");
                    assert_eq!(r as u16, n % d as u16, "r n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_u8_small_divisors_all_dividends() {
        for d in [1u8, 2, 3, 7, 10, 127, 128, 129, 255] {
            let dd = DwordDivisor::<u8>::new(d).unwrap();
            for n in 0u16..=u16::MAX {
                let n_dw = DWord::from_parts((n >> 8) as u8, n as u8);
                if (n >> 8) as u8 >= d {
                    continue;
                }
                let (q, r) = dd.div_rem(n_dw).unwrap();
                assert_eq!(
                    (q as u16, r as u16),
                    (n / d as u16, n % d as u16),
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn boundaries_u32() {
        let ds = [1u32, 2, 3, 7, 10, 641, 0x7fff_ffff, 0x8000_0000, u32::MAX];
        for &d in &ds {
            for base in [0u64, 1, 9, 10, u32::MAX as u64, 1 << 40, u64::MAX / 2] {
                for delta in 0..3u64 {
                    let n = base.wrapping_add(delta);
                    // Clamp into the valid quotient range.
                    let n = n
                        .min((d as u64) << 32)
                        .saturating_sub(if n > ((d as u64) << 32) { 1 } else { 0 });
                    check_u32(n, d);
                }
            }
            // Largest valid dividend: d * 2^32 - 1.
            check_u32(((d as u64) << 32) - 1, d);
            // Smallest overflowing dividend: d * 2^32.
            check_u32((d as u64) << 32, d);
        }
    }

    #[test]
    fn random_u32_against_u64_oracle() {
        // Deterministic LCG; no external RNG needed here.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..20_000 {
            let d = (next() as u32) | 1; // avoid zero
            let n = next() % (((d as u64) << 32).max(1));
            check_u32(n, d);
        }
    }

    #[test]
    fn u64_limbs_against_u128_oracle() {
        let ds = [1u64, 3, 10, 1 << 40, u64::MAX, 0xdead_beef_cafe];
        for &d in &ds {
            let dd = DwordDivisor::<u64>::new(d).unwrap();
            for hi in [0u64, 1, d / 2, d.saturating_sub(1)] {
                if hi >= d {
                    continue;
                }
                for lo in [0u64, 1, u64::MAX, 0x1234_5678_9abc_def0] {
                    let n = ((hi as u128) << 64) | lo as u128;
                    let (q, r) = dd.div_rem(DWord::from_parts(hi, lo)).unwrap();
                    assert_eq!(q as u128, n / d as u128, "hi={hi} lo={lo} d={d}");
                    assert_eq!(r as u128, n % d as u128, "hi={hi} lo={lo} d={d}");
                }
            }
        }
    }

    #[test]
    fn plan_roundtrips_constants() {
        for d in [1u32, 2, 3, 10, 641, 0x8000_0000, u32::MAX] {
            let dd = DwordDivisor::new(d).unwrap();
            let plan = dd.plan();
            assert_eq!(plan, DwordPlan::new(d as u128, 32).unwrap(), "d={d}");
            let (m, l, dn) = dd.constants();
            assert_eq!(
                (m as u128, l, dn as u128),
                (plan.m_prime(), plan.l(), plan.d_norm()),
                "d={d}"
            );
        }
    }

    #[test]
    fn max_divisor_and_lemma_8_1_boundary() {
        // d = 2^N - 1: l = N, m' = 1, d_norm = d (already normalized).
        let d = u32::MAX;
        let dd = DwordDivisor::new(d).unwrap();
        let (m, l, dn) = dd.constants();
        assert_eq!(l, 32);
        assert_eq!(dn, d);
        assert_eq!(m, 1);
        // High limb at its largest valid value d - 1 (the Lemma 8.1
        // boundary: quotient approaches 2^N - 1).
        for lo in [0u32, 1, d - 1, d] {
            let n = (((d - 1) as u64) << 32) | lo as u64;
            let (q, r) = dd.div_rem(DWord::from_parts(d - 1, lo)).unwrap();
            assert_eq!(q as u64, n / d as u64, "lo={lo}");
            assert_eq!(r as u64, n % d as u64, "lo={lo}");
        }
        // One limb higher overflows the one-word quotient.
        assert_eq!(
            dd.div_rem(DWord::from_parts(d, 0)).unwrap_err(),
            DwordDivError::QuotientOverflow
        );
    }

    #[test]
    fn quotient_overflow_detected() {
        let dd = DwordDivisor::<u32>::new(10).unwrap();
        assert_eq!(
            dd.div_rem(DWord::from_parts(10, 0)).unwrap_err(),
            DwordDivError::QuotientOverflow
        );
        assert!(dd.div_rem(DWord::from_parts(9, u32::MAX)).is_ok());
    }

    #[test]
    fn zero_divisor_rejected() {
        assert_eq!(DwordDivisor::<u32>::new(0).unwrap_err(), DivisorError::Zero);
    }
}

#[cfg(test)]
mod u128_limb_tests {
    use super::*;

    #[test]
    fn u128_limbs_divide_256_bit_dividends() {
        // (hi, lo) 128-bit limbs: check against values reconstructible in
        // u128 pieces via q*d + r.
        let d = 0x0001_0000_0000_0000_0000_0000_0000_0043u128;
        let dd = DwordDivisor::<u128>::new(d).unwrap();
        for hi in [0u128, 1, d - 1, d / 2] {
            for lo in [0u128, 1, u128::MAX, 0xdead_beef_cafe_babe] {
                let (q, r) = dd.div_rem(DWord::from_parts(hi, lo)).unwrap();
                assert!(r < d);
                // Reconstruct: q*d + r == hi*2^128 + lo via DWord math.
                let (carry, prod) = DWord::<u128>::widening_mul(q, d).parts();
                let (sum_lo, c) = prod.overflowing_add(r);
                let sum_hi = carry + u128::from(c);
                assert_eq!((sum_hi, sum_lo), (hi, lo), "hi={hi:#x} lo={lo:#x}");
            }
        }
    }
}
