//! The [`Limb`] trait: the unsigned machine word a [`DWord`] is built from.
//!
//! [`DWord`]: crate::DWord

use core::fmt;
use core::hash::Hash;
use core::ops::{BitAnd, BitOr, BitXor, Not};

/// An unsigned machine word usable as half of a [`DWord`](crate::DWord).
///
/// This is deliberately a *narrow* interface: exactly the operations the
/// paper's compile-time arithmetic needs, implemented for `u8`, `u16`,
/// `u32`, `u64` and `u128`. The trait is sealed — the algorithms in the
/// workspace are only proved (and tested) for two's-complement words of
/// power-of-two width.
///
/// # Examples
///
/// ```
/// use magicdiv_dword::Limb;
///
/// fn is_pow2<T: Limb>(x: T) -> bool {
///     x != T::ZERO && x.bitand(x.wrapping_sub(T::ONE)) == T::ZERO
/// }
/// assert!(is_pow2(64u32));
/// assert!(!is_pow2(100u64));
/// ```
pub trait Limb:
    Copy
    + Eq
    + Ord
    + Hash
    + Default
    + fmt::Debug
    + fmt::Display
    + fmt::LowerHex
    + fmt::UpperHex
    + fmt::Binary
    + fmt::Octal
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Send
    + Sync
    + sealed::Sealed
    + 'static
{
    /// Number of bits in the word (the paper's `N`).
    const BITS: u32;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The all-ones word, `2^N - 1`.
    const MAX: Self;

    /// Addition modulo `2^N`.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Subtraction modulo `2^N`.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Multiplication modulo `2^N` (the paper's `MULL`).
    fn wrapping_mul(self, rhs: Self) -> Self;
    /// Two's-complement negation.
    fn wrapping_neg(self) -> Self;
    /// Addition with carry-out.
    fn overflowing_add(self, rhs: Self) -> (Self, bool);
    /// Subtraction with borrow-out.
    fn overflowing_sub(self, rhs: Self) -> (Self, bool);
    /// Native truncating division, `None` when `rhs == 0`.
    fn checked_div(self, rhs: Self) -> Option<Self>;
    /// Native remainder, `None` when `rhs == 0`.
    fn checked_rem(self, rhs: Self) -> Option<Self>;

    /// Logical left shift by `n` bits; returns zero when `n >= BITS`.
    fn shl_full(self, n: u32) -> Self;
    /// Logical right shift by `n` bits; returns zero when `n >= BITS`.
    fn shr_full(self, n: u32) -> Self;

    /// Number of leading zero bits.
    fn leading_zeros(self) -> u32;
    /// Number of trailing zero bits.
    fn trailing_zeros(self) -> u32;
    /// Population count.
    fn count_ones(self) -> u32;

    /// Converts from a small constant.
    fn from_u8(x: u8) -> Self;
    /// Widens into `u128`, zero-extending. Lossless for all implementors.
    fn to_u128(self) -> u128;
    /// Truncates a `u128` into this word, keeping the low `BITS` bits.
    fn from_u128_truncate(x: u128) -> Self;

    /// Full `N x N -> 2N` multiplication; returns `(hi, lo)`.
    ///
    /// `hi` is the paper's `MULUH(self, rhs)` and `lo` is
    /// `MULL(self, rhs)`.
    fn widening_mul(self, rhs: Self) -> (Self, Self);

    /// Divides the doubleword `self·2^N + lo` by `d`, returning the
    /// one-word `(quotient, remainder)`: the 2-by-1 step of long
    /// division by a single word.
    ///
    /// Requires `self < d`, which makes `d` nonzero and the quotient fit
    /// in one word (checked by a debug assertion). Limbs up to 64 bits
    /// use native double-width division; `u128` divides one 64-bit
    /// half-word at a time (Knuth's Algorithm D with two digits, Hacker's
    /// Delight `divlu`).
    fn div_rem_wide(self, lo: Self, d: Self) -> (Self, Self);

    /// The most significant bit, i.e. the sign bit under a signed reading.
    #[inline]
    fn msb(self) -> bool {
        self.shr_full(Self::BITS - 1) == Self::ONE
    }

    /// Value of bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `i >= BITS`.
    #[inline]
    fn bit(self, i: u32) -> bool {
        debug_assert!(i < Self::BITS);
        self.shr_full(i) & Self::ONE == Self::ONE
    }

    /// `true` when the word is an exact power of two.
    #[inline]
    fn is_power_of_two(self) -> bool {
        self != Self::ZERO && self & self.wrapping_sub(Self::ONE) == Self::ZERO
    }

    /// `⌈log2 x⌉` for `x > 0`, via the paper's leading-zero-count identity
    /// `⌈log2 x⌉ = N - LDZ(x - 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `x == 0`.
    #[inline]
    fn ceil_log2(self) -> u32 {
        assert!(self != Self::ZERO, "ceil_log2 of zero");
        Self::BITS - self.wrapping_sub(Self::ONE).leading_zeros()
    }

    /// `⌊log2 x⌋` for `x > 0`, via `⌊log2 x⌋ = N - 1 - LDZ(x)`.
    ///
    /// # Panics
    ///
    /// Panics when `x == 0`.
    #[inline]
    fn floor_log2(self) -> u32 {
        assert!(self != Self::ZERO, "floor_log2 of zero");
        Self::BITS - 1 - self.leading_zeros()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
}

/// Schoolbook `N x N -> 2N` multiplication using only `N`-bit arithmetic.
///
/// Used directly for `u128` (which has no wider native type) and as the
/// test oracle for the native fast paths of the narrower limbs.
pub(crate) fn widening_mul_schoolbook<T: Limb>(a: T, b: T) -> (T, T) {
    let h = T::BITS / 2;
    let mask = T::MAX.shr_full(h);
    let (a0, a1) = (a & mask, a.shr_full(h));
    let (b0, b1) = (b & mask, b.shr_full(h));

    let ll = a0.wrapping_mul(b0);
    let lh = a0.wrapping_mul(b1);
    let hl = a1.wrapping_mul(b0);
    let hh = a1.wrapping_mul(b1);

    // Accumulate the two middle partial products into the halves.
    let (mid, carry_mid) = lh.overflowing_add(hl);
    let mid_lo = mid.shl_full(h);
    let mid_hi = mid.shr_full(h)
        | if carry_mid {
            T::ONE.shl_full(h)
        } else {
            T::ZERO
        };

    let (lo, carry_lo) = ll.overflowing_add(mid_lo);
    let hi = hh
        .wrapping_add(mid_hi)
        .wrapping_add(if carry_lo { T::ONE } else { T::ZERO });
    (hi, lo)
}

/// [`Limb::div_rem_wide`] in `N`-bit arithmetic on `N/2`-bit digits:
/// normalize `d` so its top bit is set, then produce the two quotient
/// digits one at a time, each estimated from the divisor's top digit and
/// corrected at most twice (Knuth, TAOCP vol. 2, §4.3.1, Algorithm D).
///
/// Used directly for `u128` (which has no wider native type) and as the
/// algorithm the narrower limbs' native division tests.
pub(crate) fn div_rem_wide_halves<T: Limb>(hi: T, lo: T, d: T) -> (T, T) {
    debug_assert!(hi < d, "2-by-1 division needs hi < d");
    let h = T::BITS / 2;
    let base = T::ONE.shl_full(h);
    let low = base.wrapping_sub(T::ONE);
    let s = d.leading_zeros();
    let d = d.shl_full(s);
    let (dh, dl) = (d.shr_full(h), d & low);
    // The normalized dividend as a high word and two low digits.
    let top = hi.shl_full(s) | lo.shr_full(T::BITS - s);
    let low_word = lo.shl_full(s);
    // One quotient digit of `rem·2^h + digit`, for `rem < d`: the
    // estimate `rem / dh` exceeds the digit by at most two.
    let digit_step = |rem: T, digit: T| {
        let mut q = rem.checked_div(dh).unwrap_or(T::MAX);
        let mut rhat = rem.wrapping_sub(q.wrapping_mul(dh));
        while q >= base || q.wrapping_mul(dl) > rhat.shl_full(h) | digit {
            q = q.wrapping_sub(T::ONE);
            rhat = rhat.wrapping_add(dh);
            if rhat >= base {
                break;
            }
        }
        // The true remainder is below d, so the wrapping arithmetic is exact.
        let next = rem
            .shl_full(h)
            .wrapping_add(digit)
            .wrapping_sub(q.wrapping_mul(d));
        (q, next)
    };
    let (q1, rem) = digit_step(top, low_word.shr_full(h));
    let (q0, rem) = digit_step(rem, low_word & low);
    (q1.shl_full(h) | q0, rem.shr_full(s))
}

macro_rules! impl_limb_narrow {
    ($t:ty, $wide:ty) => {
        impl Limb for $t {
            const BITS: u32 = <$t>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MAX: Self = <$t>::MAX;

            #[inline]
            fn wrapping_add(self, rhs: Self) -> Self {
                <$t>::wrapping_add(self, rhs)
            }
            #[inline]
            fn wrapping_sub(self, rhs: Self) -> Self {
                <$t>::wrapping_sub(self, rhs)
            }
            #[inline]
            fn wrapping_mul(self, rhs: Self) -> Self {
                <$t>::wrapping_mul(self, rhs)
            }
            #[inline]
            fn wrapping_neg(self) -> Self {
                <$t>::wrapping_neg(self)
            }
            #[inline]
            fn overflowing_add(self, rhs: Self) -> (Self, bool) {
                <$t>::overflowing_add(self, rhs)
            }
            #[inline]
            fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
                <$t>::overflowing_sub(self, rhs)
            }
            #[inline]
            fn checked_div(self, rhs: Self) -> Option<Self> {
                <$t>::checked_div(self, rhs)
            }
            #[inline]
            fn checked_rem(self, rhs: Self) -> Option<Self> {
                <$t>::checked_rem(self, rhs)
            }
            #[inline]
            fn shl_full(self, n: u32) -> Self {
                if n >= Self::BITS {
                    0
                } else {
                    self << n
                }
            }
            #[inline]
            fn shr_full(self, n: u32) -> Self {
                if n >= Self::BITS {
                    0
                } else {
                    self >> n
                }
            }
            #[inline]
            fn leading_zeros(self) -> u32 {
                <$t>::leading_zeros(self)
            }
            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }
            #[inline]
            fn count_ones(self) -> u32 {
                <$t>::count_ones(self)
            }
            #[inline]
            fn from_u8(x: u8) -> Self {
                x as $t
            }
            #[inline]
            fn to_u128(self) -> u128 {
                self as u128
            }
            #[inline]
            fn from_u128_truncate(x: u128) -> Self {
                x as $t
            }
            #[inline]
            fn widening_mul(self, rhs: Self) -> (Self, Self) {
                let wide = (self as $wide) * (rhs as $wide);
                ((wide >> Self::BITS) as $t, wide as $t)
            }
            #[inline]
            fn div_rem_wide(self, lo: Self, d: Self) -> (Self, Self) {
                debug_assert!(self < d, "2-by-1 division needs hi < d");
                let n = ((self as $wide) << Self::BITS) | lo as $wide;
                let d = d as $wide;
                ((n / d) as $t, (n % d) as $t)
            }
        }
    };
}

impl_limb_narrow!(u8, u16);
impl_limb_narrow!(u16, u32);
impl_limb_narrow!(u32, u64);
impl_limb_narrow!(u64, u128);

impl Limb for u128 {
    const BITS: u32 = u128::BITS;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MAX: Self = u128::MAX;

    #[inline]
    fn wrapping_add(self, rhs: Self) -> Self {
        u128::wrapping_add(self, rhs)
    }
    #[inline]
    fn wrapping_sub(self, rhs: Self) -> Self {
        u128::wrapping_sub(self, rhs)
    }
    #[inline]
    fn wrapping_mul(self, rhs: Self) -> Self {
        u128::wrapping_mul(self, rhs)
    }
    #[inline]
    fn wrapping_neg(self) -> Self {
        u128::wrapping_neg(self)
    }
    #[inline]
    fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        u128::overflowing_add(self, rhs)
    }
    #[inline]
    fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        u128::overflowing_sub(self, rhs)
    }
    #[inline]
    fn checked_div(self, rhs: Self) -> Option<Self> {
        u128::checked_div(self, rhs)
    }
    #[inline]
    fn checked_rem(self, rhs: Self) -> Option<Self> {
        u128::checked_rem(self, rhs)
    }
    #[inline]
    fn shl_full(self, n: u32) -> Self {
        if n >= Self::BITS {
            0
        } else {
            self << n
        }
    }
    #[inline]
    fn shr_full(self, n: u32) -> Self {
        if n >= Self::BITS {
            0
        } else {
            self >> n
        }
    }
    #[inline]
    fn leading_zeros(self) -> u32 {
        u128::leading_zeros(self)
    }
    #[inline]
    fn trailing_zeros(self) -> u32 {
        u128::trailing_zeros(self)
    }
    #[inline]
    fn count_ones(self) -> u32 {
        u128::count_ones(self)
    }
    #[inline]
    fn from_u8(x: u8) -> Self {
        x as u128
    }
    #[inline]
    fn to_u128(self) -> u128 {
        self
    }
    #[inline]
    fn from_u128_truncate(x: u128) -> Self {
        x
    }
    #[inline]
    fn widening_mul(self, rhs: Self) -> (Self, Self) {
        widening_mul_schoolbook(self, rhs)
    }
    #[inline]
    fn div_rem_wide(self, lo: Self, d: Self) -> (Self, Self) {
        div_rem_wide_halves(self, lo, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_match_float_reference() {
        for x in 1u32..=4096 {
            assert_eq!(x.ceil_log2(), (x as f64).log2().ceil() as u32, "ceil {x}");
            assert_eq!(
                x.floor_log2(),
                (x as f64).log2().floor() as u32,
                "floor {x}"
            );
        }
        assert_eq!(u32::MAX.ceil_log2(), 32);
        assert_eq!(u32::MAX.floor_log2(), 31);
        assert_eq!(1u32.ceil_log2(), 0);
        assert_eq!(1u32.floor_log2(), 0);
    }

    #[test]
    fn shl_shr_full_saturate() {
        assert_eq!(1u8.shl_full(8), 0);
        assert_eq!(0x80u8.shr_full(8), 0);
        assert_eq!(1u8.shl_full(7), 0x80);
        assert_eq!(0x80u8.shr_full(7), 1);
        assert_eq!(1u128.shl_full(127), 1 << 127);
        assert_eq!(1u128.shl_full(128), 0);
    }

    #[test]
    fn msb_and_bit() {
        assert!(0x80u8.msb());
        assert!(!0x7fu8.msb());
        assert!(5u32.bit(0));
        assert!(!5u32.bit(1));
        assert!(5u32.bit(2));
        assert!((1u128 << 127).msb());
    }

    #[test]
    fn is_power_of_two_matches_std() {
        for x in 0u16..=u16::MAX {
            assert_eq!(Limb::is_power_of_two(x), x.is_power_of_two(), "{x}");
        }
    }

    #[test]
    fn widening_mul_u8_exhaustive_vs_schoolbook() {
        for a in 0u8..=u8::MAX {
            for b in 0u8..=u8::MAX {
                let native = Limb::widening_mul(a, b);
                let school = widening_mul_schoolbook(a, b);
                let wide = (a as u16) * (b as u16);
                assert_eq!(native, ((wide >> 8) as u8, wide as u8));
                assert_eq!(native, school, "{a} * {b}");
            }
        }
    }

    #[test]
    fn widening_mul_u64_spot_vs_schoolbook() {
        let samples = [
            0u64,
            1,
            2,
            3,
            10,
            0xffff_ffff,
            0x1_0000_0001,
            u64::MAX,
            u64::MAX - 1,
            0x8000_0000_0000_0000,
            0xdead_beef_cafe_babe,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    Limb::widening_mul(a, b),
                    widening_mul_schoolbook(a, b),
                    "{a} * {b}"
                );
            }
        }
    }

    #[test]
    fn widening_mul_u128_matches_split_oracle() {
        // Oracle: compute via 64-bit limbs using u128 intermediate products.
        fn oracle(a: u128, b: u128) -> (u128, u128) {
            let (a0, a1) = (a as u64 as u128, a >> 64);
            let (b0, b1) = (b as u64 as u128, b >> 64);
            let ll = a0 * b0;
            let lh = a0 * b1;
            let hl = a1 * b0;
            let hh = a1 * b1;
            let mid = (ll >> 64) + (lh & u64::MAX as u128) + (hl & u64::MAX as u128);
            let lo = (mid << 64) | (ll & u64::MAX as u128);
            let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
            (hi, lo)
        }
        let samples = [
            0u128,
            1,
            3,
            10,
            u64::MAX as u128,
            (u64::MAX as u128) + 1,
            u128::MAX,
            u128::MAX - 1,
            1 << 127,
            0xdead_beef_cafe_babe_0123_4567_89ab_cdef,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(Limb::widening_mul(a, b), oracle(a, b), "{a} * {b}");
            }
        }
    }

    /// `q·d + r == hi·2^N + lo` and `r < d`, via the full product.
    fn assert_div_rem_wide<T: Limb>(hi: T, lo: T, d: T, (q, r): (T, T)) {
        let (p_hi, p_lo) = q.widening_mul(d);
        let (sum_lo, carry) = p_lo.overflowing_add(r);
        let sum_hi = p_hi.wrapping_add(if carry { T::ONE } else { T::ZERO });
        assert_eq!((sum_hi, sum_lo), (hi, lo), "q·d + r for ({hi}, {lo}) / {d}");
        assert!(r < d, "remainder {r} of ({hi}, {lo}) / {d}");
    }

    /// Both the limb's own 2-by-1 step and the half-word algorithm.
    fn check_div_rem_wide<T: Limb>(hi: T, lo: T, d: T) {
        let native = hi.div_rem_wide(lo, d);
        assert_div_rem_wide(hi, lo, d, native);
        assert_eq!(div_rem_wide_halves(hi, lo, d), native, "({hi}, {lo}) / {d}");
    }

    /// Every `(hi, lo, d)` with `hi < d`: 8.4M divisions, under 2 s in
    /// a debug build.
    #[test]
    fn div_rem_wide_u8_exhaustive() {
        for d in 1..=u8::MAX {
            for hi in 0..d {
                for lo in 0..=u8::MAX {
                    check_div_rem_wide(hi, lo, d);
                }
            }
        }
    }

    /// The boundary divisors `1, 2^k, 2^k ± 1, MAX`, with `hi ∈ {0, 1,
    /// d/2, d - 1}` and `lo ∈ {0, 1, MAX}`, then seeded random triples.
    fn div_rem_wide_sweep<T: Limb>() {
        let powers = (1..T::BITS).map(|k| T::ONE.shl_full(k));
        let ds = powers
            .flat_map(|p| [p.wrapping_sub(T::ONE), p, p.wrapping_add(T::ONE)])
            .chain([T::ONE, T::MAX]);
        for d in ds {
            let his = [T::ZERO, T::ONE, d.shr_full(1), d.wrapping_sub(T::ONE)];
            for hi in his.into_iter().filter(|&hi| hi < d) {
                for lo in [T::ZERO, T::ONE, T::MAX] {
                    check_div_rem_wide(hi, lo, d);
                }
            }
        }
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            u128::from(z ^ (z >> 31))
        };
        let mut next = || T::from_u128_truncate(draw() << 64 | draw());
        for _ in 0..20_000 {
            // A random divisor width exercises every normalization shift.
            let d = next().shr_full(next().to_u128() as u32 % T::BITS) | T::ONE;
            let hi = next().checked_rem(d).unwrap_or(T::ZERO);
            check_div_rem_wide(hi, next(), d);
        }
    }

    #[test]
    fn div_rem_wide_boundaries_and_random() {
        div_rem_wide_sweep::<u16>();
        div_rem_wide_sweep::<u32>();
        div_rem_wide_sweep::<u64>();
        div_rem_wide_sweep::<u128>();
    }
}
