//! Const-evaluated divisors: the paper's *compile-time constant* case,
//! expressed as Rust `const fn`.
//!
//! When the divisor is a literal in the source, the reciprocal can be
//! computed during compilation — exactly what §10 does inside GCC. These
//! types run Figure 4.2 over the shared Figure 6.2
//! [`choose_multiplier_at`] in `const` context, so `CONST_BY10.divide(x)`
//! has *zero* runtime setup and the constants can live in `static`s
//! without `OnceLock`.
//!
//! Each type holds the [`UdivStrategy`] that
//! [`UdivPlan::new`](crate::UdivPlan::new) selects, at its native word,
//! and divides with one `const` `match` over it.
//!
//! (The generic [`UnsignedDivisor`](crate::UnsignedDivisor) cannot be
//! `const fn` on stable Rust — trait methods aren't callable in `const`
//! contexts — so these concrete 32/64-bit variants exist alongside it.)

use crate::choose_multiplier::choose_multiplier_at;
use crate::plan::UdivStrategy;

/// Figure 4.2 at width `n` in `const` context, for a `d` that fits in
/// `n` bits: the strategy [`UdivPlan::new`](crate::UdivPlan::new)
/// selects, or `None` when `d == 0`.
const fn udiv_strategy(d: u128, n: u32) -> Option<UdivStrategy> {
    if d == 1 {
        return Some(UdivStrategy::Identity);
    }
    if d.is_power_of_two() {
        return Some(UdivStrategy::Shift {
            sh: d.trailing_zeros(),
        });
    }
    let Some((m, sh_post)) = choose_multiplier_at(d, n, n) else {
        return None;
    };
    if m >> n == 0 {
        return Some(UdivStrategy::MulShift {
            m,
            sh_pre: 0,
            sh_post,
        });
    }
    if d & 1 == 0 {
        // Even divisor: pre-shift out 2^e and re-choose at precision
        // N - e, where the multiplier fits a word.
        let e = d.trailing_zeros();
        let Some((m, sh_post)) = choose_multiplier_at(d >> e, n, n - e) else {
            return None;
        };
        return Some(UdivStrategy::MulShift {
            m,
            sh_pre: e,
            sh_post,
        });
    }
    Some(UdivStrategy::MulAddShift {
        m_minus_pow2n: m - (1 << n),
        sh_post,
    })
}

/// One `const` divisor type per word: `$word` divides, `$wide` holds the
/// full `2N`-bit product.
macro_rules! const_divisor {
    ($(#[$doc:meta])* $name:ident: $word:ty, $wide:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            d: $word,
            strategy: UdivStrategy<$word>,
        }

        impl $name {
            /// Computes the reciprocal constants at compile time.
            ///
            /// # Panics
            ///
            /// Panics (at compile time, when used in `const` position) if
            /// `d == 0`.
            pub const fn new(d: $word) -> Self {
                let strategy = match udiv_strategy(d as u128, <$word>::BITS)
                    .expect("divisor is zero")
                {
                    UdivStrategy::Identity => UdivStrategy::Identity,
                    UdivStrategy::Shift { sh } => UdivStrategy::Shift { sh },
                    UdivStrategy::MulShift { m, sh_pre, sh_post } => UdivStrategy::MulShift {
                        m: m as $word,
                        sh_pre,
                        sh_post,
                    },
                    UdivStrategy::MulAddShift {
                        m_minus_pow2n,
                        sh_post,
                    } => UdivStrategy::MulAddShift {
                        m_minus_pow2n: m_minus_pow2n as $word,
                        sh_post,
                    },
                    UdivStrategy::MulRoundUp { m, sh_post } => UdivStrategy::MulRoundUp {
                        m: m as $word,
                        sh_post,
                    },
                };
                $name { d, strategy }
            }

            /// The divisor this reciprocal was computed for.
            pub const fn divisor(self) -> $word {
                self.d
            }

            /// Computes `n / d` without a division instruction; usable in
            /// `const` contexts itself.
            pub const fn divide(self, n: $word) -> $word {
                const N: u32 = <$word>::BITS;
                match self.strategy {
                    UdivStrategy::Identity => n,
                    UdivStrategy::Shift { sh } => n >> sh,
                    UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                        (((m as $wide * (n >> sh_pre) as $wide) >> N) as $word) >> sh_post
                    }
                    UdivStrategy::MulAddShift {
                        m_minus_pow2n,
                        sh_post,
                    } => {
                        let t = ((m_minus_pow2n as $wide * n as $wide) >> N) as $word;
                        t.wrapping_add(n.wrapping_sub(t) >> 1) >> (sh_post - 1)
                    }
                    UdivStrategy::MulRoundUp { m, sh_post } => {
                        (((m as $wide * (n as $wide + 1)) >> N) as $word) >> sh_post
                    }
                }
            }

            /// Computes `n % d`.
            pub const fn remainder(self, n: $word) -> $word {
                n.wrapping_sub(self.divide(n).wrapping_mul(self.d))
            }

            /// Computes quotient and remainder together.
            pub const fn div_rem(self, n: $word) -> ($word, $word) {
                let q = self.divide(n);
                (q, n.wrapping_sub(q.wrapping_mul(self.d)))
            }
        }
    };
}

const_divisor!(
    /// A `const`-constructible unsigned 32-bit divisor (Fig 4.2 strategy).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::ConstU32Divisor;
    ///
    /// // Evaluated entirely at compile time:
    /// const BY10: ConstU32Divisor = ConstU32Divisor::new(10);
    /// static BY7: ConstU32Divisor = ConstU32Divisor::new(7);
    ///
    /// assert_eq!(BY10.divide(1994), 199);
    /// assert_eq!(BY7.divide(u32::MAX), u32::MAX / 7);
    /// assert_eq!(BY10.div_rem(1234), (123, 4));
    /// ```
    ConstU32Divisor: u32, u64
);

const_divisor!(
    /// A `const`-constructible unsigned 64-bit divisor (Fig 4.2 strategy).
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::ConstU64Divisor;
    ///
    /// const BY1E9_7: ConstU64Divisor = ConstU64Divisor::new(1_000_000_007);
    /// assert_eq!(BY1E9_7.divide(u64::MAX), u64::MAX / 1_000_000_007);
    /// // Even in const position:
    /// const Q: u64 = BY1E9_7.divide(123_456_789_012_345);
    /// assert_eq!(Q, 123_456_789_012_345 / 1_000_000_007);
    /// ```
    ConstU64Divisor: u64, u128
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UdivPlan;
    use crate::validity::udiv_valid;

    /// The strategy a const divisor holds, read back into a plan: it must
    /// pass the exact predicate and be the one `UdivPlan::new` selects.
    fn assert_strategy_valid(d: u128, width: u32, strategy: UdivStrategy) {
        let plan = UdivPlan::from_raw(d, width, strategy);
        assert_eq!(udiv_valid(&plan), Ok(()), "{plan}");
        assert_eq!(Ok(plan), UdivPlan::new(d, width), "{plan}");
    }

    #[test]
    fn const_u32_divisor_sweep() {
        let mut d = 1u32;
        while d < 100_000 {
            let cd = ConstU32Divisor::new(d);
            assert_strategy_valid(d.into(), 32, cd.strategy.map(u128::from));
            for n in [
                0u32,
                1,
                d - 1,
                d,
                d + 1,
                u32::MAX / 2,
                u32::MAX - 1,
                u32::MAX,
            ] {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
                assert_eq!(cd.remainder(n), n % d, "n={n} d={d}");
            }
            d = d.wrapping_mul(3).wrapping_add(1);
        }
    }

    #[test]
    fn const_u32_exhaustive_u8_range() {
        for d in 1u32..=1024 {
            let cd = ConstU32Divisor::new(d);
            assert_strategy_valid(d.into(), 32, cd.strategy.map(u128::from));
            for n in (0u32..=66_000).step_by(7) {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn const_u64_boundary_divisors() {
        for d in [
            1u64,
            2,
            3,
            7,
            10,
            14,
            641,
            274177,
            1_000_000_007,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
            1 << 63,
            (1 << 63) + 1,
        ] {
            let cd = ConstU64Divisor::new(d);
            assert_strategy_valid(d.into(), 64, cd.strategy.map(u128::from));
            for n in [
                0u64,
                1,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                u64::MAX / 2,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn usable_in_const_context() {
        const BY10: ConstU32Divisor = ConstU32Divisor::new(10);
        const Q: u32 = BY10.divide(1994);
        const R: u32 = BY10.remainder(1994);
        assert_eq!((Q, R), (199, 4));
        static BY3: ConstU64Divisor = ConstU64Divisor::new(3);
        assert_eq!(BY3.divide(u64::MAX), u64::MAX / 3);
    }

    #[test]
    fn const_u64_randomized() {
        let mut state = 0xfeed_f00du64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = state | 1;
            let n = state.rotate_left(17);
            let cd = ConstU64Divisor::new(d);
            assert_strategy_valid(d.into(), 64, cd.strategy.map(u128::from));
            assert_eq!(cd.divide(n), n / d, "n={n} d={d}");
            let d_even = state.max(2) & !1;
            let cd = ConstU64Divisor::new(d_even);
            assert_strategy_valid(d_even.into(), 64, cd.strategy.map(u128::from));
            assert_eq!(cd.divide(n), n / d_even, "n={n} d={d_even}");
        }
    }
}
