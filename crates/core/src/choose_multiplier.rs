//! `CHOOSE_MULTIPLIER` — Figure 6.2 of the paper, shared by the unsigned,
//! signed-trunc and signed-floor code generators.
//!
//! Given a divisor `d` and a precision `prec` (the number of significant
//! dividend bits: `N` for unsigned division, `N - 1` for signed), it selects
//! a multiplier `m` and post-shift `sh_post` such that
//!
//! ```text
//! 2^(N + sh_post) < m * d <= 2^(N + sh_post) * (1 + 2^-prec)
//! ```
//!
//! which by Theorem 4.2 makes `⌊n/d⌋ = ⌊m * n / 2^(N + sh_post)⌋` for all
//! `0 <= n < 2^prec`. The multiplier may need `N + 1` bits. Up to N = 64
//! that fits a `u128`, and [`choose_multiplier_at`] runs the selection
//! there, in `const` context. Only N = 128 needs the doubleword body.

use magicdiv_dword::{DWord, Limb};

use crate::error::{Fault, FaultKind, FaultLayer};
use crate::plan::ceil_log2;
use crate::word::UWord;

/// The output of [`choose_multiplier`]: the paper's `(m_high, sh_post, l)`
/// triple.
///
/// # Examples
///
/// ```
/// use magicdiv::choose_multiplier;
///
/// // The paper's d = 10, N = 32 example: m = (2^34 + 1)/5, sh_post = 3.
/// let c = choose_multiplier::<u32>(10, 32)?;
/// assert_eq!(c.multiplier.to_u128(), ((1u128 << 34) + 1) / 5);
/// assert_eq!(c.sh_post, 3);
/// assert_eq!(c.l, 4);
/// // The reduced multiplier fits in a single 32-bit word...
/// assert!(c.multiplier_fits_word());
/// // ...whereas d = 7 famously does not (m = (2^35 + 3)/7 > 2^32).
/// assert!(!choose_multiplier::<u32>(7, 32)?.multiplier_fits_word());
/// # Ok::<(), magicdiv::Fault>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChosenMultiplier<T: Limb> {
    /// The magic multiplier `m`, up to `N + 1` bits wide.
    pub multiplier: DWord<T>,
    /// The post-shift count applied after taking the high product half.
    pub sh_post: u32,
    /// `⌈log2 d⌉`.
    pub l: u32,
}

impl<T: UWord> ChosenMultiplier<T> {
    /// `true` when the multiplier fits in a single `N`-bit word
    /// (`m < 2^N`) — i.e. the paper's `m >= 2^N` long-sequence case does
    /// *not* apply.
    #[inline]
    pub fn multiplier_fits_word(&self) -> bool {
        // The doc example above shows the d = 10 multiplier; this method is
        // exercised against the paper's d = 7 example in the tests.
        self.multiplier.fits_limb()
    }

    /// The multiplier truncated to one word; meaningful in two cases:
    /// when [`multiplier_fits_word`](Self::multiplier_fits_word) is true it
    /// is `m` itself, otherwise it is the paper's `m - 2^N` bit pattern
    /// used by the `MULUH(m - 2^N, n)` long sequence.
    #[inline]
    pub fn multiplier_low_word(&self) -> T {
        self.multiplier.lo()
    }
}

/// Figure 6.2 at width `n` in `1..=64`: the full multiplier `m` (up to
/// `n + 1` bits) and `sh_post` for dividing by `d` with `prec` bits of
/// dividend precision, computed in `u128` and usable in `const` context.
///
/// This is the one copy of the selection below N = 128: plans up to width
/// 64, [`choose_multiplier`] for `u8..=u64`, the `const` divisors and the
/// code generators all call it. The postconditions are those of
/// [`choose_multiplier`]; the bounds on `m·d` are asserted in debug builds
/// wherever `m·d` fits a `u128`.
///
/// Returns `None` when `d == 0`, `d >= 2^n`, `n` is outside `1..=64` or
/// `prec` is outside `1..=n`.
///
/// # Examples
///
/// ```
/// use magicdiv::choose_multiplier_at;
///
/// // The paper's d = 7 at N = 32: m = (2^35 + 3)/7 needs 33 bits.
/// const BY7: Option<(u128, u32)> = choose_multiplier_at(7, 32, 32);
/// assert_eq!(BY7, Some((((1u128 << 35) + 3) / 7, 3)));
/// assert_eq!(choose_multiplier_at(7, 2, 2), None); // 7 does not fit 2 bits
/// ```
pub const fn choose_multiplier_at(d: u128, n: u32, prec: u32) -> Option<(u128, u32)> {
    if n == 0 || n > 64 || prec == 0 || prec > n || d == 0 || d >> n != 0 {
        return None;
    }
    let l = ceil_log2(d);
    // m_low = ⌊2^(N+l)/d⌋ and m_high = ⌊(2^(N+l) + 2^(N+l-prec))/d⌋.
    // Write 2^(N+l) = q·d + r with 0 < r <= d, starting from 2^(N+l) - 1
    // so that 2^128 (N = 64, d > 2^63) does not overflow. r = d only for
    // powers of two.
    let pow_minus_1 = u128::MAX >> (128 - n - l);
    let q = pow_minus_1 / d;
    let r = pow_minus_1 - q * d + 1;
    let mut m_low = q + (r == d) as u128;
    let mut m_high = q + ((1 << (n + l - prec)) + r) / d;
    // Reduce m/2^sh_post to lowest terms: keep halving while both bounds
    // still straddle an integer.
    let mut sh_post = l;
    while m_low >> 1 < m_high >> 1 && sh_post > 0 {
        m_low >>= 1;
        m_high >>= 1;
        sh_post -= 1;
    }
    if cfg!(debug_assertions) && n + l < 127 {
        let (md, pow) = (m_high * d, 1 << (n + sh_post));
        assert!(
            pow < md && md - pow <= pow >> prec,
            "Fig 6.2 bounds violated"
        );
    }
    Some((m_high, sh_post))
}

/// Figure 6.2: selects the multiplier and shift for dividing by `d` with
/// `prec` bits of dividend precision.
///
/// Postconditions (the paper's comments):
///
/// * `2^(l-1) <= d < 2^l` (for `d >= 1`);
/// * `0 <= sh_post <= l`;
/// * `2^(N + sh_post) < m * d <= 2^(N + sh_post) * (1 + 2^-prec)`;
/// * if `d < 2^prec` then `m` fits in `max(prec, N - l) + 1` bits.
///
/// Up to `u64` this is [`choose_multiplier_at`] at `N = T::BITS`; `u128`
/// runs the same loop in doubleword arithmetic.
///
/// # Errors
///
/// [`FaultKind::DivideByZero`] when `d == 0`;
/// [`FaultKind::PrecisionOutOfRange`] when `prec` is not in `1..=N`.
///
/// # Examples
///
/// ```
/// use magicdiv::{choose_multiplier, FaultKind};
///
/// // Signed d = 3 at N = 32 uses prec = 31: m = (2^32 + 2)/3.
/// let c = choose_multiplier::<u32>(3, 31)?;
/// assert_eq!(c.multiplier.to_u128(), ((1u128 << 32) + 2) / 3);
/// assert_eq!(c.sh_post, 0);
/// let err = choose_multiplier::<u32>(10, 33).unwrap_err();
/// assert_eq!(err.kind, FaultKind::PrecisionOutOfRange { prec: 33, width: 32 });
/// # Ok::<(), magicdiv::Fault>(())
/// ```
pub fn choose_multiplier<T: UWord>(d: T, prec: u32) -> Result<ChosenMultiplier<T>, Fault> {
    let fault = |kind| Fault {
        layer: FaultLayer::Plan,
        kind,
        at: None,
    };
    if d == T::ZERO {
        return Err(fault(FaultKind::DivideByZero));
    }
    if !(1..=T::BITS).contains(&prec) {
        return Err(fault(FaultKind::PrecisionOutOfRange {
            prec,
            width: T::BITS,
        }));
    }
    Ok(match choose_multiplier_at(d.to_u128(), T::BITS, prec) {
        Some((m, sh_post)) => ChosenMultiplier {
            multiplier: DWord::from_parts(
                T::from_u128_truncate(m >> T::BITS),
                T::from_u128_truncate(m),
            ),
            sh_post,
            l: d.ceil_log2(),
        },
        // Past the checks above, only N = 128 is out of its range.
        None => choose_multiplier_dword(d, prec),
    })
}

/// `⌊2^k / d⌋` and the remainder, for `0 < k <= 2N`, entirely in
/// doubleword arithmetic.
///
/// For `k == 2N` the numerator `2^(2N)` overflows a doubleword; we use
/// `⌊(2^(2N) - 1)/d⌋` and patch up the remainder, which is exact because
/// the only divisors with `d | 2^(2N)` are powers of two.
fn div_pow2<T: UWord>(k: u32, d: T) -> (DWord<T>, T) {
    debug_assert!(d != T::ZERO);
    if k < 2 * T::BITS {
        DWord::pow2(k)
            .div_rem_limb(d)
            .expect("divisor checked nonzero")
    } else {
        debug_assert!(k == 2 * T::BITS);
        let (q, r) = DWord::from_parts(T::MAX, T::MAX)
            .div_rem_limb(d)
            .expect("divisor checked nonzero");
        // 2^(2N) = q*d + (r + 1); if r + 1 == d the quotient rounds up.
        if r.wrapping_add(T::ONE) == d {
            (q.wrapping_add_limb(T::ONE), T::ZERO)
        } else {
            (q, r.wrapping_add(T::ONE))
        }
    }
}

/// The Figure 6.2 body in doubleword arithmetic, where `2^(N+l)` needs
/// up to `2N` bits: [`choose_multiplier`] runs it for `u128` only. It
/// stays generic so the tests can hold it to [`choose_multiplier_at`]
/// exhaustively at a small width.
pub(crate) fn choose_multiplier_dword<T: UWord>(d: T, prec: u32) -> ChosenMultiplier<T> {
    let n = T::BITS;
    let l = d.ceil_log2();
    let mut sh_post = l;

    // m_low  = ⌊2^(N+l) / d⌋
    // m_high = ⌊(2^(N+l) + 2^(N+l-prec)) / d⌋
    let (mut m_low, r_low) = div_pow2(n + l, d);
    let (q_b, r_b) = div_pow2(n + l - prec, d);
    let mut m_high = m_low.wrapping_add(q_b);
    // Carry from the two remainders.
    let (r_sum, overflow) = r_low.overflowing_add(r_b);
    if overflow || r_sum >= d {
        m_high = m_high.wrapping_add_limb(T::ONE);
    }
    debug_assert!(m_low < m_high, "interval must be non-degenerate");

    while m_low.shr_full(1) < m_high.shr_full(1) && sh_post > 0 {
        m_low = m_low.shr_full(1);
        m_high = m_high.shr_full(1);
        sh_post -= 1;
    }

    ChosenMultiplier {
        multiplier: m_high,
        sh_post,
        l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubleword_body_matches_the_const_fn_exhaustively_u16() {
        // The N = 128 body is generic: every divisor at N = 16, both
        // precisions (unsigned and signed), must give the same (m, sh_post).
        for d in 1u16..=u16::MAX {
            for prec in [15u32, 16] {
                let c = choose_multiplier_dword::<u16>(d, prec);
                assert_eq!(
                    Some((c.multiplier.to_u128(), c.sh_post)),
                    choose_multiplier_at(d.into(), 16, prec),
                    "d={d} prec={prec}"
                );
                assert_eq!(c.l, ceil_log2(d.into()), "d={d}");
            }
        }
    }

    #[test]
    fn const_fn_rejects_what_fig_6_2_does_not_define() {
        assert_eq!(choose_multiplier_at(0, 32, 32), None);
        assert_eq!(choose_multiplier_at(1 << 32, 32, 32), None);
        assert_eq!(choose_multiplier_at(3, 0, 1), None);
        assert_eq!(choose_multiplier_at(3, 65, 65), None);
        assert_eq!(choose_multiplier_at(3, 32, 0), None);
        assert_eq!(choose_multiplier_at(3, 32, 33), None);
        // The 2^128 numerator, at N = 64 and d > 2^63: (2^64 - 1)(2^64 + 1)
        // = 2^128 - 1 brackets 2^128/d between 2^64 + 1 and 2^64 + 2.
        assert_eq!(
            choose_multiplier_at(u64::MAX.into(), 64, 64),
            Some(((1 << 63) + 1, 63))
        );
    }

    #[test]
    fn paper_example_d10_n32() {
        let c = choose_multiplier::<u32>(10, 32).unwrap();
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 34) + 1) / 5);
        assert_eq!(c.sh_post, 3);
        assert_eq!(c.l, 4);
        assert!(c.multiplier_fits_word());
    }

    #[test]
    fn paper_example_d7_n32_multiplier_exceeds_word() {
        // The paper: d = 7 gives m = (2^35 + 3)/7 > 2^32 — the long
        // sequence of Fig 4.1 is needed.
        let c = choose_multiplier::<u32>(7, 32).unwrap();
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 35) + 3) / 7);
        assert!(!c.multiplier_fits_word());
        assert_eq!(c.sh_post, 3);
    }

    #[test]
    fn paper_example_d3_signed() {
        let c = choose_multiplier::<u32>(3, 31).unwrap();
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 32) + 2) / 3);
        assert_eq!(c.sh_post, 0);
    }

    #[test]
    fn paper_example_signed_mod10() {
        // §6 example: the signed mod-10 code multiplies by (2^33 + 3)/5 and
        // shifts by 2 — that is choose_multiplier(10, 31) after reduction.
        let c = choose_multiplier::<u32>(10, 31).unwrap();
        assert_eq!(c.multiplier.to_u128(), ((1u128 << 33) + 3) / 5);
        assert_eq!(c.sh_post, 2);
    }

    #[test]
    fn d641_has_zero_final_shift() {
        // The paper notes d = 641 on a 32-bit machine ends with shift 0
        // after reducing an even multiplier to lowest terms (641 divides
        // 2^32 + 1, so the reciprocal has a tiny odd part).
        let c = choose_multiplier::<u32>(641, 32).unwrap();
        assert!(c.multiplier_fits_word());
        assert_eq!(c.sh_post, 0, "m={:?}", c.multiplier);
        // 641 * 6700417 = 2^32 + 1, so the fully reduced multiplier is 6700417.
        assert_eq!(c.multiplier.to_u128(), 6700417);
    }

    #[test]
    fn d274177_on_64_bit() {
        // Likewise 274177 | 2^64 + 1.
        let c = choose_multiplier::<u64>(274177, 64).unwrap();
        assert_eq!(c.sh_post, 0);
        assert!(c.multiplier_fits_word());
        // 274177 * 67280421310721 = 2^64 + 1.
        assert_eq!(c.multiplier.to_u128(), 67280421310721);
    }

    #[test]
    fn power_of_two_divisors() {
        for k in 0..32 {
            let c = choose_multiplier::<u32>(1u32 << k, 32).unwrap();
            assert_eq!(c.l, k);
        }
    }

    #[test]
    fn d1_yields_l0() {
        let c = choose_multiplier::<u32>(1, 32).unwrap();
        assert_eq!(c.l, 0);
        assert_eq!(c.sh_post, 0);
        // m = 2^N + 1 halved zero times... with l = 0: m_high = (2^32 + 1)/1.
        assert_eq!(c.multiplier.to_u128(), (1u128 << 32) + 1);
    }

    #[test]
    fn max_divisor_n8_exhaustive_bounds() {
        // Check the Theorem 4.2 style bound directly for every d at N = 8.
        for d in 1u8..=u8::MAX {
            let c = choose_multiplier::<u8>(d, 8).unwrap();
            let m = c.multiplier.to_u128();
            let lhs = 1u128 << (8 + c.sh_post);
            assert!(lhs < m * d as u128, "d={d}");
            assert!(m * d as u128 <= lhs + (lhs >> 8), "d={d}");
            // And the actual division property for all n.
            for n in 0u8..=u8::MAX {
                let q = (m * n as u128) >> (8 + c.sh_post);
                assert_eq!(q as u8, n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn works_at_n128() {
        let c = choose_multiplier::<u128>(10, 128).unwrap();
        // m * 10 must straddle 2^(128 + sh_post).
        assert_eq!(c.l, 4);
        // Spot check correctness by dividing a few n: the product m*n is a
        // triple-word value carry*2^256 + dword; q = value >> (128 + sh_post)
        // = (carry*2^128 + dword.hi) >> sh_post by nested floor division.
        for n in [0u128, 1, 9, 10, 99, 12345678901234567890, u128::MAX] {
            let (low2, carry) = c.multiplier.mul_limb(n);
            let q_dword = DWord::from_parts(carry, low2.hi()).shr_full(c.sh_post);
            assert!(q_dword.fits_limb());
            assert_eq!(q_dword.lo(), n / 10, "n={n}");
        }
    }

    #[test]
    fn typed_faults_at_the_precision_boundary() {
        use crate::error::{FaultKind, FaultLayer};
        // prec == N is the last legal precision; N + 1 is the first
        // illegal one, and 0 falls off the other end.
        assert!(choose_multiplier::<u32>(10, 32).is_ok());
        let err = choose_multiplier::<u32>(10, 33).unwrap_err();
        assert_eq!(err.layer, FaultLayer::Plan);
        assert_eq!(
            err.kind,
            FaultKind::PrecisionOutOfRange {
                prec: 33,
                width: 32
            }
        );
        assert_eq!(err.to_string(), "plan fault: precision 33 outside 1..=32");
        let err = choose_multiplier::<u32>(10, 0).unwrap_err();
        assert_eq!(
            err.kind,
            FaultKind::PrecisionOutOfRange { prec: 0, width: 32 }
        );
        let err = choose_multiplier::<u32>(0, 32).unwrap_err();
        assert_eq!(err.kind, FaultKind::DivideByZero);
    }
}
