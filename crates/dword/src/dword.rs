//! The [`DWord`] doubleword type.

use core::cmp::Ordering;
use core::fmt;

use crate::Limb;

/// An unsigned `2N`-bit integer built from two `N`-bit limbs.
///
/// This is the paper's `udword`: `value = 2^N * hi + lo`. It supports the
/// arithmetic `CHOOSE_MULTIPLIER` (Fig 6.2) and the §8 doubleword dividend
/// algorithm need, at any limb width including `u128` (where no wider
/// native type exists).
///
/// All arithmetic is explicit (`wrapping_*`, `overflowing_*`, `checked_*`)
/// — there are no panicking operator overloads, because the call sites in
/// the paper's algorithms care exactly about carries and wraps.
///
/// # Examples
///
/// ```
/// use magicdiv_dword::DWord;
///
/// let x = DWord::<u64>::from_lo(u64::MAX);
/// let y = x.wrapping_add(DWord::from_lo(1));
/// assert_eq!(y.parts(), (1, 0)); // carried into the high limb
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DWord<T> {
    hi: T,
    lo: T,
}

impl<T: Limb> DWord<T> {
    /// The doubleword zero.
    #[inline]
    pub fn zero() -> Self {
        DWord {
            hi: T::ZERO,
            lo: T::ZERO,
        }
    }

    /// Builds a doubleword from its high and low limbs.
    #[inline]
    pub fn from_parts(hi: T, lo: T) -> Self {
        DWord { hi, lo }
    }

    /// Zero-extends a single limb.
    #[inline]
    pub fn from_lo(lo: T) -> Self {
        DWord { hi: T::ZERO, lo }
    }

    /// `2^N * hi`, i.e. a value with a zero low limb.
    #[inline]
    pub fn from_hi(hi: T) -> Self {
        DWord { hi, lo: T::ZERO }
    }

    /// The power `2^k` for `0 <= k < 2N`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= 2 * T::BITS`.
    #[inline]
    pub fn pow2(k: u32) -> Self {
        assert!(k < 2 * T::BITS, "pow2 exponent out of range");
        if k < T::BITS {
            DWord::from_lo(T::ONE.shl_full(k))
        } else {
            DWord::from_hi(T::ONE.shl_full(k - T::BITS))
        }
    }

    /// The high limb, the paper's `HIGH(n)`.
    #[inline]
    pub fn hi(self) -> T {
        self.hi
    }

    /// The low limb, the paper's `LOW(n)`.
    #[inline]
    pub fn lo(self) -> T {
        self.lo
    }

    /// Both limbs as `(hi, lo)`.
    #[inline]
    pub fn parts(self) -> (T, T) {
        (self.hi, self.lo)
    }

    /// `true` when the value is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.hi == T::ZERO && self.lo == T::ZERO
    }

    /// `true` when the value fits in a single limb.
    #[inline]
    pub fn fits_limb(self) -> bool {
        self.hi == T::ZERO
    }

    /// The sign bit under the paper's `sdword` (signed doubleword) reading.
    #[inline]
    pub fn is_negative_as_sdword(self) -> bool {
        self.hi.msb()
    }

    /// Addition modulo `2^(2N)`.
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Addition with carry-out of the doubleword.
    #[inline]
    pub fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        let (lo, c0) = self.lo.overflowing_add(rhs.lo);
        let (hi1, c1) = self.hi.overflowing_add(rhs.hi);
        let (hi, c2) = hi1.overflowing_add(if c0 { T::ONE } else { T::ZERO });
        (DWord { hi, lo }, c1 | c2)
    }

    /// Addition returning `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction modulo `2^(2N)`.
    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Subtraction with borrow-out.
    #[inline]
    pub fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        let (lo, b0) = self.lo.overflowing_sub(rhs.lo);
        let (hi1, b1) = self.hi.overflowing_sub(rhs.hi);
        let (hi, b2) = hi1.overflowing_sub(if b0 { T::ONE } else { T::ZERO });
        (DWord { hi, lo }, b1 | b2)
    }

    /// Subtraction returning `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Two's-complement negation modulo `2^(2N)`.
    #[inline]
    pub fn wrapping_neg(self) -> Self {
        DWord::from_lo(T::ZERO).wrapping_sub(self)
    }

    /// Adds a single limb, wrapping modulo `2^(2N)`.
    #[inline]
    pub fn wrapping_add_limb(self, rhs: T) -> Self {
        self.wrapping_add(DWord::from_lo(rhs))
    }

    /// Subtracts a single limb, wrapping modulo `2^(2N)`.
    #[inline]
    pub fn wrapping_sub_limb(self, rhs: T) -> Self {
        self.wrapping_sub(DWord::from_lo(rhs))
    }

    /// Logical left shift; returns zero when `n >= 2N`.
    #[inline]
    pub fn shl_full(self, n: u32) -> Self {
        let bits = T::BITS;
        if n == 0 {
            self
        } else if n < bits {
            DWord {
                hi: self.hi.shl_full(n) | self.lo.shr_full(bits - n),
                lo: self.lo.shl_full(n),
            }
        } else if n < 2 * bits {
            DWord {
                hi: self.lo.shl_full(n - bits),
                lo: T::ZERO,
            }
        } else {
            DWord::from_lo(T::ZERO)
        }
    }

    /// Logical right shift; returns zero when `n >= 2N`.
    #[inline]
    pub fn shr_full(self, n: u32) -> Self {
        let bits = T::BITS;
        if n == 0 {
            self
        } else if n < bits {
            DWord {
                hi: self.hi.shr_full(n),
                lo: self.lo.shr_full(n) | self.hi.shl_full(bits - n),
            }
        } else if n < 2 * bits {
            DWord {
                hi: T::ZERO,
                lo: self.hi.shr_full(n - bits),
            }
        } else {
            DWord::from_lo(T::ZERO)
        }
    }

    /// Arithmetic right shift under the `sdword` reading; saturates to the
    /// sign word when `n >= 2N`.
    #[inline]
    pub fn sar_full(self, n: u32) -> Self {
        let fill = if self.is_negative_as_sdword() {
            T::MAX
        } else {
            T::ZERO
        };
        let bits = T::BITS;
        if n == 0 {
            self
        } else if n < bits {
            DWord {
                hi: self.hi.shr_full(n) | fill.shl_full(bits - n),
                lo: self.lo.shr_full(n) | self.hi.shl_full(bits - n),
            }
        } else if n < 2 * bits {
            DWord {
                hi: fill,
                lo: self.hi.shr_full(n - bits) | fill.shl_full(2 * bits - n),
            }
        } else {
            DWord { hi: fill, lo: fill }
        }
    }

    /// Number of leading zero bits out of `2N`.
    #[inline]
    pub fn leading_zeros(self) -> u32 {
        if self.hi == T::ZERO {
            T::BITS + self.lo.leading_zeros()
        } else {
            self.hi.leading_zeros()
        }
    }

    /// Full `N x N -> 2N` product of two limbs (the paper's
    /// `2^N * MULUH + MULL` identity).
    #[inline]
    pub fn widening_mul(a: T, b: T) -> Self {
        let (hi, lo) = a.widening_mul(b);
        DWord { hi, lo }
    }

    /// Multiplies by a single limb, returning the low doubleword and the
    /// overflow limb (a `3N`-bit result split as `carry * 2^(2N) + dword`).
    pub fn mul_limb(self, m: T) -> (Self, T) {
        let (lo_hi, lo_lo) = self.lo.widening_mul(m);
        let (hi_hi, hi_lo) = self.hi.widening_mul(m);
        let (mid, c) = lo_hi.overflowing_add(hi_lo);
        let carry = hi_hi.wrapping_add(if c { T::ONE } else { T::ZERO });
        (DWord { hi: mid, lo: lo_lo }, carry)
    }

    /// Divides by a single limb, returning the doubleword quotient and the
    /// limb remainder, or `None` when `d == 0`.
    ///
    /// Two word-sized steps of schoolbook long division: `HIGH / d`, then
    /// the 2-by-1 step [`Limb::div_rem_wide`] on `(HIGH mod d, LOW)`. It
    /// runs under multiplier selection and as the native reference of the
    /// hardened doubleword guard, so it costs one double-width division,
    /// not a loop over the dividend's bits.
    pub fn div_rem_limb(self, d: T) -> Option<(Self, T)> {
        let q_hi = self.hi.checked_div(d)?;
        let r_hi = self.hi.wrapping_sub(q_hi.wrapping_mul(d));
        let (q_lo, r) = r_hi.div_rem_wide(self.lo, d);
        Some((DWord { hi: q_hi, lo: q_lo }, r))
    }

    /// Full doubleword division, returning `(quotient, remainder)`, or
    /// `None` when the divisor is zero.
    pub fn div_rem(self, d: Self) -> Option<(Self, Self)> {
        if d.is_zero() {
            return None;
        }
        if d.fits_limb() {
            let (q, r) = self.div_rem_limb(d.lo())?;
            return Some((q, DWord::from_lo(r)));
        }
        // Binary long division over 2N bits; divisor occupies > N bits so
        // the quotient fits in one limb, but we keep it general.
        let mut rem = DWord::from_lo(T::ZERO);
        let mut quot = DWord::from_lo(T::ZERO);
        let total = 2 * T::BITS;
        for i in (0..total).rev() {
            rem = rem.shl_full(1);
            let bit = if i >= T::BITS {
                self.hi.bit(i - T::BITS)
            } else {
                self.lo.bit(i)
            };
            if bit {
                rem = DWord {
                    hi: rem.hi,
                    lo: rem.lo | T::ONE,
                };
            }
            if rem >= d {
                rem = rem.wrapping_sub(d);
                quot = quot.wrapping_add(DWord::pow2(i));
            }
        }
        Some((quot, rem))
    }

    /// Widens into `u128`.
    ///
    /// # Panics
    ///
    /// Panics when the limb is wider than 64 bits (the value may not fit).
    #[inline]
    pub fn to_u128(self) -> u128 {
        assert!(
            T::BITS <= 64,
            "DWord::to_u128 requires limbs of at most 64 bits"
        );
        (self.hi.to_u128() << T::BITS) | self.lo.to_u128()
    }

    /// Truncates a `u128` into a doubleword (keeps the low `2N` bits).
    #[inline]
    pub fn from_u128_truncate(x: u128) -> Self {
        if T::BITS >= 128 {
            return DWord::from_lo(T::from_u128_truncate(x));
        }
        DWord {
            hi: T::from_u128_truncate(x >> T::BITS),
            lo: T::from_u128_truncate(x),
        }
    }
}

impl<T: Limb> PartialOrd for DWord<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Limb> Ord for DWord<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.hi.cmp(&other.hi).then(self.lo.cmp(&other.lo))
    }
}

impl<T: Limb> From<T> for DWord<T> {
    #[inline]
    fn from(lo: T) -> Self {
        DWord::from_lo(lo)
    }
}

impl<T: Limb> fmt::Debug for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DWord(hi={:#x}, lo={:#x})", self.hi, self.lo)
    }
}

impl<T: Limb> fmt::Display for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal output via repeated division by a power of ten; only used
        // in diagnostics, so the simple quadratic approach is fine.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = [0u8; 80]; // 2*128 bits < 78 decimal digits
        let mut n = *self;
        let ten = T::from_u8(10);
        let mut len = 0;
        while !n.is_zero() {
            let (q, r) = n.div_rem_limb(ten).expect("ten is nonzero");
            digits[len] = b'0' + r.to_u128() as u8;
            len += 1;
            n = q;
        }
        for i in (0..len).rev() {
            write!(f, "{}", (digits[i] - b'0'))?;
        }
        Ok(())
    }
}

impl<T: Limb> fmt::UpperHex for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi == T::ZERO {
            write!(f, "{:X}", self.lo)
        } else {
            write!(f, "{:X}", self.hi)?;
            let nibbles = (T::BITS / 4) as usize;
            let mut buf = [0u8; 32];
            let mut lo = self.lo;
            for slot in buf.iter_mut().take(nibbles) {
                let nib = (lo.to_u128() & 0xf) as u8;
                *slot = if nib < 10 {
                    b'0' + nib
                } else {
                    b'A' + nib - 10
                };
                lo = lo.shr_full(4);
            }
            for i in (0..nibbles).rev() {
                write!(f, "{}", buf[i] as char)?;
            }
            Ok(())
        }
    }
}

impl<T: Limb> fmt::Binary for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let total = 2 * T::BITS;
        let top = total - self.leading_zeros();
        for i in (0..top).rev() {
            let bit = if i >= T::BITS {
                self.hi.bit(i - T::BITS)
            } else {
                self.lo.bit(i)
            };
            f.write_str(if bit { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl<T: Limb> fmt::Octal for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 8 (diagnostics only).
        let eight = T::from_u8(8);
        let mut digits = [0u8; 90];
        let mut n = *self;
        let mut len = 0;
        while !n.is_zero() {
            let (q, r) = n.div_rem_limb(eight).expect("eight is nonzero");
            digits[len] = b'0' + r.to_u128() as u8;
            len += 1;
            n = q;
        }
        for i in (0..len).rev() {
            write!(f, "{}", (digits[i] - b'0'))?;
        }
        Ok(())
    }
}

impl<T: Limb> fmt::LowerHex for DWord<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hi == T::ZERO {
            write!(f, "{:x}", self.lo)
        } else {
            write!(f, "{:x}", self.hi)?;
            // Zero-pad the low limb to a full limb's worth of nibbles.
            let nibbles = (T::BITS / 4) as usize;
            let mut buf = [0u8; 32];
            let mut lo = self.lo;
            for slot in buf.iter_mut().take(nibbles) {
                let nib = (lo.to_u128() & 0xf) as u8;
                *slot = if nib < 10 {
                    b'0' + nib
                } else {
                    b'a' + nib - 10
                };
                lo = lo.shr_full(4);
            }
            for i in (0..nibbles).rev() {
                write!(f, "{}", buf[i] as char)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dw(x: u128) -> DWord<u32> {
        DWord::from_u128_truncate(x)
    }

    #[test]
    fn parts_roundtrip() {
        let x = DWord::<u32>::from_parts(0xdead, 0xbeef);
        assert_eq!(x.hi(), 0xdead);
        assert_eq!(x.lo(), 0xbeef);
        assert_eq!(x.parts(), (0xdead, 0xbeef));
        assert_eq!(x.to_u128(), 0xdead_0000_beef);
    }

    #[test]
    fn add_sub_with_carries() {
        let a = dw(0xffff_ffff_ffff_ffff);
        let (s, c) = a.overflowing_add(dw(1));
        assert!(c);
        assert!(s.is_zero());
        let (d, b) = dw(0).overflowing_sub(dw(1));
        assert!(b);
        assert_eq!(d.to_u128(), u64::MAX as u128);
        assert_eq!(
            dw(5).wrapping_neg().to_u128(),
            (5u64.wrapping_neg()) as u128
        );
    }

    #[test]
    fn checked_ops() {
        assert_eq!(dw(3).checked_add(dw(4)), Some(dw(7)));
        assert_eq!(dw(u64::MAX as u128).checked_add(dw(1)), None);
        assert_eq!(dw(3).checked_sub(dw(4)), None);
        assert_eq!(dw(4).checked_sub(dw(3)), Some(dw(1)));
    }

    #[test]
    fn shifts_match_u64_oracle() {
        let vals = [
            0u64,
            1,
            0xffff_ffff,
            u64::MAX,
            0x8000_0000_0000_0000,
            0x1234_5678_9abc_def0,
        ];
        for &v in &vals {
            for n in 0..=64u32 {
                let d = dw(v as u128);
                let shl = if n >= 64 { 0 } else { v << n };
                let shr = if n >= 64 { 0 } else { v >> n };
                let sar = if n >= 64 {
                    ((v as i64) >> 63) as u64
                } else {
                    ((v as i64) >> n) as u64
                };
                assert_eq!(d.shl_full(n).to_u128(), shl as u128, "shl {v} {n}");
                assert_eq!(d.shr_full(n).to_u128(), shr as u128, "shr {v} {n}");
                assert_eq!(d.sar_full(n).to_u128(), sar as u128, "sar {v} {n}");
            }
        }
    }

    #[test]
    fn pow2_all_exponents() {
        for k in 0..64 {
            assert_eq!(DWord::<u32>::pow2(k).to_u128(), 1u128 << k);
        }
    }

    #[test]
    #[should_panic(expected = "pow2 exponent out of range")]
    fn pow2_out_of_range_panics() {
        let _ = DWord::<u32>::pow2(64);
    }

    #[test]
    fn widening_mul_matches_oracle() {
        let vals = [0u32, 1, 2, 10, 0xffff, u32::MAX, 0x8000_0000];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    DWord::widening_mul(a, b).to_u128(),
                    (a as u128) * (b as u128)
                );
            }
        }
    }

    #[test]
    fn mul_limb_triple_word() {
        let x = dw(u64::MAX as u128);
        let (lo, carry) = x.mul_limb(u32::MAX);
        let full = (u64::MAX as u128) * (u32::MAX as u128);
        assert_eq!(lo.to_u128(), full & (u64::MAX as u128));
        assert_eq!(carry as u128, full >> 64);
    }

    #[test]
    fn div_rem_limb_matches_u64_oracle() {
        let nums = [
            0u64,
            1,
            9,
            10,
            11,
            99,
            100,
            u32::MAX as u64,
            u64::MAX,
            1 << 40,
            (1 << 40) + 123,
        ];
        let dens = [1u32, 2, 3, 7, 10, 641, 0x8000_0000, u32::MAX];
        for &n in &nums {
            for &d in &dens {
                let (q, r) = dw(n as u128).div_rem_limb(d).unwrap();
                assert_eq!(q.to_u128(), (n / d as u64) as u128, "{n}/{d}");
                assert_eq!(r as u64, n % d as u64, "{n}%{d}");
            }
        }
        assert!(dw(5).div_rem_limb(0).is_none());
    }

    #[test]
    fn div_rem_full_matches_u64_oracle() {
        let nums = [0u64, 1, u64::MAX, 1 << 63, 0xdead_beef_cafe_babe];
        let dens = [1u64, 2, 10, u32::MAX as u64 + 1, 1 << 63, u64::MAX];
        for &n in &nums {
            for &d in &dens {
                let (q, r) = dw(n as u128).div_rem(dw(d as u128)).unwrap();
                assert_eq!(q.to_u128(), (n / d) as u128, "{n}/{d}");
                assert_eq!(r.to_u128(), (n % d) as u128, "{n}%{d}");
            }
        }
        assert!(dw(5).div_rem(dw(0)).is_none());
    }

    #[test]
    fn div_rem_limb_u128_limbs() {
        // 2^200 / 10 with 128-bit limbs.
        let n = DWord::<u128>::pow2(200);
        let (q, r) = n.div_rem_limb(10).unwrap();
        // 2^200 = 1606938044258990275541962092341162602522202993782792835301376
        // q = that / 10, r = 6 (2^200 mod 10 == 6 since 2^200 ends in 6).
        assert_eq!(r, 6);
        let (q2, c) = q.mul_limb(10);
        assert_eq!(c, 0);
        assert_eq!(q2.wrapping_add_limb(6), n);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(dw(0) < dw(1));
        assert!(dw(u32::MAX as u128) < dw(u32::MAX as u128 + 1));
        assert!(DWord::<u32>::from_parts(1, 0) > DWord::from_parts(0, u32::MAX));
    }

    #[test]
    fn display_and_hex() {
        extern crate alloc;
        use alloc::format;
        assert_eq!(format!("{}", dw(0)), "0");
        assert_eq!(format!("{}", dw(1234567890123)), "1234567890123");
        assert_eq!(format!("{:x}", dw(0xdead_0000_beef)), "dead0000beef");
        assert_eq!(format!("{:x}", dw(0x1_0000_0000)), "100000000");
    }

    #[test]
    fn numeric_formats_match_u64_oracle() {
        extern crate alloc;
        use alloc::format;
        for v in [0u64, 1, 8, 9, 255, 0xdead_beef, u64::MAX, 1 << 63] {
            let d = dw(v as u128);
            assert_eq!(format!("{d:x}"), format!("{v:x}"), "{v}");
            assert_eq!(format!("{d:X}"), format!("{v:X}"), "{v}");
            assert_eq!(format!("{d:b}"), format!("{v:b}"), "{v}");
            assert_eq!(format!("{d:o}"), format!("{v:o}"), "{v}");
        }
    }

    #[test]
    fn leading_zeros_counts_both_limbs() {
        assert_eq!(dw(0).leading_zeros(), 64);
        assert_eq!(dw(1).leading_zeros(), 63);
        assert_eq!(dw(1 << 32).leading_zeros(), 31);
        assert_eq!(dw(u64::MAX as u128).leading_zeros(), 0);
    }

    #[test]
    fn sdword_sign_reading() {
        assert!(!dw(1).is_negative_as_sdword());
        assert!(dw(1u128 << 63).is_negative_as_sdword());
        assert!(dw(5).wrapping_neg().is_negative_as_sdword());
    }
}
