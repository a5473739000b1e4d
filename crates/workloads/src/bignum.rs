//! Multiple-precision arithmetic — the §8 use case.
//!
//! "One primitive operation for multiple precision arithmetic [Knuth] is
//! the division of a udword by a uword, obtaining uword quotient and
//! remainder." Printing a big number in decimal performs exactly this in
//! a loop: divide the limb array by 10^19 (the largest power of ten in a
//! u64), limb by limb, each step a 128÷64 division with an invariant
//! divisor — Figure 8.1's home turf.

use std::fmt::Write;

use magicdiv::{DWord, DwordDivisor};

/// Largest power of ten fitting in a `u64`: `10^19`.
const CHUNK: u64 = 10_000_000_000_000_000_000;
const CHUNK_DIGITS: usize = 19;

/// An unsigned multiple-precision integer (little-endian `u64` limbs).
///
/// # Examples
///
/// ```
/// use magicdiv_workloads::BigUint;
///
/// let two_pow_200 = BigUint::from_pow2(200);
/// assert_eq!(
///     two_pow_200.to_decimal_magic(),
///     "1606938044258990275541962092341162602522202993782792835301376"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Builds from little-endian limbs (trailing zeros trimmed).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// The power `2^k`.
    pub fn from_pow2(k: u32) -> Self {
        let mut limbs = vec![0u64; (k / 64) as usize + 1];
        let last = limbs.len() - 1;
        limbs[last] = 1u64 << (k % 64);
        BigUint { limbs }
    }

    /// `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Long division by one limb, most significant limb first: `step`
    /// divides each udword `(rem, limb)` into `(quotient, remainder)`.
    /// Trims the limbs that became zero and returns the remainder. The
    /// magic and baseline paths differ only in `step`.
    #[inline(always)]
    fn divmod_limb_by(&mut self, step: impl Fn(u64, u64) -> (u64, u64)) -> u64 {
        let mut rem = 0u64;
        for limb in self.limbs.iter_mut().rev() {
            (*limb, rem) = step(rem, *limb);
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        rem
    }

    /// Divides in place by a single nonzero limb using the §8 invariant
    /// divider, returning the remainder.
    ///
    /// Each step divides `(rem, limb)` — a udword — by `d`; the quotient
    /// is known to fit because `rem < d`.
    ///
    /// # Panics
    ///
    /// Panics when `d == 0`.
    pub fn divmod_limb_magic(&mut self, divider: &DwordDivisor<u64>) -> u64 {
        self.divmod_limb_by(|rem, limb| {
            divider
                .div_rem(DWord::from_parts(rem, limb))
                .expect("rem < d keeps the quotient in one limb")
        })
    }

    /// Baseline: the same long division with native `u128` division.
    ///
    /// # Panics
    ///
    /// Panics when `d == 0`.
    pub fn divmod_limb_baseline(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.divmod_limb_by(|rem, limb| {
            let wide = ((rem as u128) << 64) | limb as u128;
            ((wide / d as u128) as u64, (wide % d as u128) as u64)
        })
    }

    /// The decimal string from repeated `divmod` of a working copy by
    /// `10^19`: one chunk of 19 digits per call, least significant first.
    #[inline(always)]
    fn to_decimal_by(&self, mut divmod: impl FnMut(&mut BigUint) -> u64) -> String {
        let mut work = self.clone();
        // A value below 2^(64 L) has at most ⌈19.27 L⌉ digits, so at most
        // L + L/64 + 1 chunks.
        let limbs = self.limbs.len();
        let mut chunks = Vec::with_capacity(limbs + limbs / 64 + 1);
        while !work.is_zero() {
            chunks.push(divmod(&mut work));
        }
        Self::chunks_to_string(&chunks)
    }

    /// Decimal string via repeated §8 division by `10^19`.
    pub fn to_decimal_magic(&self) -> String {
        let divider = DwordDivisor::new(CHUNK).expect("10^19 != 0");
        self.to_decimal_by(|work| work.divmod_limb_magic(&divider))
    }

    /// Decimal string via native `u128` long division (baseline).
    pub fn to_decimal_baseline(&self) -> String {
        self.to_decimal_by(|work| work.divmod_limb_baseline(CHUNK))
    }

    /// Joins base-`10^19` chunks (least significant first) into one
    /// `String` sized up front: the leading chunk unpadded, every other
    /// chunk written zero-padded to 19 digits in place.
    fn chunks_to_string(chunks: &[u64]) -> String {
        let Some((most, rest)) = chunks.split_last() else {
            return "0".to_string();
        };
        let mut s = String::with_capacity(chunks.len() * CHUNK_DIGITS);
        // Writing into a `String` cannot fail.
        let _ = write!(s, "{most}");
        for c in rest.iter().rev() {
            let _ = write!(s, "{c:0width$}", width = CHUNK_DIGITS);
        }
        s
    }
}

/// Bench kernel: prints a `limbs`-limb pseudorandom number in decimal,
/// returning a digit checksum.
pub fn bignum_kernel(limbs: usize, magic: bool) -> u64 {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let raw: Vec<u64> = (0..limbs)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        })
        .collect();
    let n = BigUint::from_limbs(raw);
    let s = if magic {
        n.to_decimal_magic()
    } else {
        n.to_decimal_baseline()
    };
    s.bytes().map(u64::from).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_values_match_display() {
        for x in [
            0u128,
            1,
            9,
            10,
            CHUNK as u128 - 1,
            CHUNK as u128,
            CHUNK as u128 + 1,
            u64::MAX as u128,
            u128::MAX,
            12345678901234567890123456789012345678,
        ] {
            let b = BigUint::from_limbs(vec![x as u64, (x >> 64) as u64]);
            assert_eq!(b.to_decimal_magic(), x.to_string(), "{x}");
            assert_eq!(b.to_decimal_baseline(), x.to_string(), "{x}");
        }
    }

    #[test]
    fn powers_of_two_known_values() {
        assert_eq!(BigUint::from_pow2(0).to_decimal_magic(), "1");
        assert_eq!(
            BigUint::from_pow2(64).to_decimal_magic(),
            "18446744073709551616"
        );
        assert_eq!(
            BigUint::from_pow2(128).to_decimal_magic(),
            "340282366920938463463374607431768211456"
        );
        assert_eq!(
            BigUint::from_pow2(256).to_decimal_magic(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639936"
        );
    }

    #[test]
    fn magic_and_baseline_agree_on_random_numbers() {
        let mut state = 99u64;
        for limbs in [1usize, 2, 3, 5, 8] {
            for _ in 0..20 {
                let raw: Vec<u64> = (0..limbs)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state
                    })
                    .collect();
                let n = BigUint::from_limbs(raw);
                assert_eq!(n.to_decimal_magic(), n.to_decimal_baseline());
            }
        }
    }

    #[test]
    fn divmod_reduces_limb_count_eventually() {
        let mut n = BigUint::from_pow2(192);
        let divider = DwordDivisor::new(CHUNK).unwrap();
        let before = n.limbs.len();
        for _ in 0..2 {
            n.divmod_limb_magic(&divider);
        }
        assert!(n.limbs.len() < before);
    }

    /// Pins `bignum_kernel` for 0 to 64 limbs to the digit bytes of an
    /// independent decimal conversion: schoolbook division of the same
    /// limbs by 10, one digit at a time, in native `u128`.
    #[test]
    fn kernel_is_the_digit_byte_sum_of_the_decimal() {
        fn naive(limbs: usize) -> u64 {
            let mut state = 0x243F_6A88_85A3_08D3u64;
            let mut n: Vec<u64> = (0..limbs)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state
                })
                .collect();
            let mut sum = 0;
            loop {
                let mut rem = 0u128;
                for limb in n.iter_mut().rev() {
                    let wide = (rem << 64) | u128::from(*limb);
                    *limb = (wide / 10) as u64;
                    rem = wide % 10;
                }
                sum += u64::from(b'0') + rem as u64;
                while n.last() == Some(&0) {
                    n.pop();
                }
                if n.is_empty() {
                    return sum;
                }
            }
        }
        for limbs in 0..=64 {
            let want = naive(limbs);
            assert_eq!(bignum_kernel(limbs, true), want, "limbs={limbs}");
            assert_eq!(bignum_kernel(limbs, false), want, "limbs={limbs}");
        }
    }

    #[test]
    fn kernel_checksums_agree() {
        assert_eq!(bignum_kernel(16, true), bignum_kernel(16, false));
    }

    #[test]
    fn zero_prints_as_zero() {
        assert_eq!(BigUint::from_limbs(vec![]).to_decimal_magic(), "0");
        assert_eq!(BigUint::from_limbs(vec![0, 0]).to_decimal_baseline(), "0");
    }
}
