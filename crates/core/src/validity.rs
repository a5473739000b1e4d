//! Exact validity predicates: does a plan's arithmetic compute the right
//! answer for *every* `N`-bit dividend?
//!
//! Each predicate decides the question in O(1) from the plan constants,
//! at every supported width up to 128, and is necessary *and*
//! sufficient: it never accepts a wrong plan and never rejects a correct
//! one. When a plan is wrong the predicate returns a witness dividend at
//! which it really disagrees with the truth, so a certifier can report a
//! concrete counterexample.
//!
//! | Shape | Condition |
//! |---|---|
//! | round-down `⌊c·n/2^k⌋` (`Identity`, `Shift`, `MulShift`, `MulAddShift`) | Thm 4.2; Lemire–Bartlett–Kaser (arXiv 2012.12369) Thm 1 |
//! | round-up `⌊c·(n+1)/2^k⌋` (`MulRoundUp`) | Li (arXiv 2412.03680) |
//! | remainder fraction (`UremStrategy::Fraction`) | Lemire–Kaser–Kurz (arXiv 1902.01961) Thm 1 |
//! | multiply-back (`UremStrategy::MulBack`) | its embedded quotient strategy |
//! | masks | `d == 2^e` and `mask == 2^e - 1` |
//! | §9 inverse-rotate test | `e = v2(d)`, `dinv·d_odd ≡ 1 (mod 2^(N-e))`, `qmax = ⌊(2^N-1)/d⌋` |
//! | signed trunc (Fig 5.2) | round-down for `n >= 0`; `⌊(c·a - 1)/2^k⌋ = ⌊a/\|d\|⌋` for `a = -n` |
//! | floor (Fig 6.1) | round-down on the sign-folded dividend; for `d < 0`, a trunc quotient at most one step off |
//! | §9 exact quotient | `MULL(dinv, d) = 2^e` up to the last quotient, plus the §9 test |
//! | doubleword (Fig 8.1) | Lemma 8.1: `d_norm` normalized and `2^N + m' = ⌊(2^2N - 1)/d_norm⌋` |
//!
//! The last four rows, with the round-down row, are what the guard's
//! construction probe checks ([`crate::guard::GuardKernel::valid`]).
//! Two cases are sound but not complete. The doubleword kernel's final
//! correction step also absorbs some `m'` and `d_norm` next to Lemma
//! 8.1's. A signed plan whose negation contradicts the sign of `d` is
//! refused, though a negative multiplier can make one right. The
//! predicates refuse such constants rather than accept them without a
//! proof.
//!
//! Constants are read the way the kernels read them: reduced to the
//! plan's word width.
//!
//! # Examples
//!
//! ```
//! use magicdiv::plan::UdivPlan;
//! use magicdiv::validity::udiv_valid;
//!
//! assert_eq!(udiv_valid(&UdivPlan::new(7, 32)?), Ok(()));
//! // The paper's d = 10 multiplier, 0xcccccccd, minus one is wrong, and
//! // the predicate names a dividend where it fails.
//! let bad = UdivPlan::new(10, 32)?.flip_bit(0);
//! let n = udiv_valid(&bad).unwrap_err();
//! assert_ne!((0xcccccccc * n) >> 35, n / 10);
//! # Ok::<(), magicdiv::DivisorError>(())
//! ```

use magicdiv_dword::DWord;

use crate::exact::mod_inverse_newton;
use crate::plan::{
    mask, DivPlan, DivisibilityPlan, DivisibilityStrategy, DwordPlan, ExactPlan, FloorPlan,
    FloorStrategy, SdivPlan, SdivStrategy, UdivPlan, UdivStrategy, UremPlan, UremStrategy,
};

type D = DWord<u128>;

/// A 384-bit unsigned integer, `top·2^256 + low`: wide enough for every
/// intermediate here (`c < 2^256`, `d, n < 2^128`, `2^k` with `k <= 257`).
/// Field order makes the derived ordering numeric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Wide {
    top: u128,
    low: D,
}

impl Wide {
    fn pow2(k: u32) -> Wide {
        if k >= 256 {
            Wide {
                top: 1 << (k - 256),
                low: D::zero(),
            }
        } else {
            Wide {
                top: 0,
                low: D::pow2(k),
            }
        }
    }

    /// `x · y`, exact.
    fn mul(x: D, y: u128) -> Wide {
        let (low, top) = x.mul_limb(y);
        Wide { top, low }
    }

    fn add(self, rhs: D) -> Wide {
        let (low, carry) = self.low.overflowing_add(rhs);
        Wide {
            top: self.top + u128::from(carry),
            low,
        }
    }

    /// `self - rhs`, or `None` when it would be negative.
    fn checked_sub(self, rhs: Wide) -> Option<Wide> {
        let (low, borrow) = self.low.overflowing_sub(rhs.low);
        let top = self.top.checked_sub(rhs.top)?;
        Some(Wide {
            top: top.checked_sub(u128::from(borrow))?,
            low,
        })
    }

    /// The value as a [`DWord`], when it is below `2^256`.
    fn fits(self) -> Option<D> {
        (self.top == 0).then_some(self.low)
    }
}

/// `x >> s`, zero once the shift passes the word.
fn shr(x: u128, s: u32) -> u128 {
    x.checked_shr(s).unwrap_or(0)
}

/// The full `N x N -> 2N` product of two `N`-bit words as `(high, low)`.
fn mul_wide(a: u128, b: u128, w: u32) -> (u128, u128) {
    if w <= 64 {
        let p = a * b;
        (p >> w, p & mask(w))
    } else {
        DWord::widening_mul(a, b).parts()
    }
}

/// Evaluates an unsigned-quotient plan at `n` the way the kernels do:
/// `N`-bit words, `MULUH` as the high half of the full product.
pub fn eval_unsigned(plan: &UdivPlan, n: u128) -> u128 {
    let w = plan.width();
    let nm = mask(w);
    match plan.strategy() {
        UdivStrategy::Identity => n,
        UdivStrategy::Shift { sh } => shr(n, sh),
        UdivStrategy::MulShift { m, sh_pre, sh_post } => {
            shr(mul_wide(m & nm, shr(n, sh_pre), w).0, sh_post)
        }
        UdivStrategy::MulAddShift {
            m_minus_pow2n,
            sh_post,
        } => {
            let t1 = mul_wide(m_minus_pow2n & nm, n, w).0;
            shr(t1 + ((n - t1) >> 1), sh_post.max(1) - 1)
        }
        UdivStrategy::MulRoundUp { m, sh_post } => {
            let m = m & nm;
            let (hi, lo) = mul_wide(m, n, w);
            shr(hi + u128::from(lo > nm - m), sh_post)
        }
    }
}

/// Evaluates an unsigned-remainder plan at `n`, limb by limb — the same
/// sequence `lower_urem` emits.
pub fn eval_urem(plan: &UremPlan, n: u128) -> u128 {
    let w = plan.width();
    let nm = mask(w);
    let d = plan.divisor();
    match plan.strategy() {
        UremStrategy::Mask { low_mask } => n & low_mask,
        UremStrategy::Fraction { c_hi, c_lo } => {
            // frac = (n * c) mod 2^2N in two N-bit limbs.
            let (t_hi, frac_lo) = mul_wide(c_lo & nm, n, w);
            let frac_hi = t_hi.wrapping_add(mul_wide(c_hi & nm, n, w).1) & nm;
            // r = ⌊frac * d / 2^2N⌋ = HI(frac_hi*d) + carry(LO(frac_hi*d)
            //     + HI(frac_lo*d)).
            let (p_hi, p_lo) = mul_wide(frac_hi, d, w);
            let b = mul_wide(frac_lo, d, w).0;
            (p_hi + u128::from(p_lo > nm - b)) & nm
        }
        UremStrategy::MulBack { udiv } => {
            let q = eval_unsigned(&UdivPlan::from_raw(d, w, udiv), n);
            n.wrapping_sub(q.wrapping_mul(d)) & nm
        }
    }
}

/// Evaluates a divisibility-test plan at `n`: `1` when the plan says
/// `d | n`, else `0`.
pub fn eval_divisibility(plan: &DivisibilityPlan, n: u128) -> u128 {
    let w = plan.width();
    let nm = mask(w);
    match plan.strategy() {
        DivisibilityStrategy::Mask { low_mask } => u128::from(n & low_mask == 0),
        DivisibilityStrategy::InverseRotate { e, dinv, qmax } => {
            let q0 = mul_wide(dinv & nm, n, w).1;
            let rot = if e == 0 || e >= w {
                q0
            } else {
                ((q0 >> e) | (q0 << (w - e))) & nm
            };
            u128::from(rot <= qmax & nm)
        }
    }
}

/// The largest `n <= n_max` with `n mod d = d - 1`: where a round-down
/// multiplier that is too large first overshoots.
fn last_full_group(d: u128, n_max: u128) -> u128 {
    let r = n_max % d;
    if r == d - 1 {
        n_max
    } else {
        n_max - r - 1
    }
}

/// Round-down: `⌊c·n/2^k⌋ = ⌊n/d⌋` for every `n <= n_max` (`1 <= d <=
/// n_max`) iff `c·d >= 2^k` and `(c·d - 2^k)·n_c < 2^k`, with `n_c` the
/// [`last_full_group`] (Lemire–Bartlett–Kaser Thm 1; the paper's
/// Thm 4.2 is the sufficient half). Failing the first inequality the
/// plan reads `0` at `n = d`; failing the second it reads more than
/// `⌊n_c/d⌋` at `n_c`.
fn round_down(d: u128, n_max: u128, c: D, k: u32) -> Result<(), u128> {
    let n_c = last_full_group(d, n_max);
    // c < 2^129 and d < 2^128, so c·d < 2^257 <= 2^k.
    if k > 256 {
        return Err(d);
    }
    let pow2k = Wide::pow2(k);
    let Some(e) = Wide::mul(c, d).checked_sub(pow2k) else {
        return Err(d);
    };
    // e >= 2^256 >= 2^k already fails, since n_c >= 1.
    match e.fits() {
        Some(e) if Wide::mul(e, n_c) < pow2k => Ok(()),
        _ => Err(n_c),
    }
}

/// Round-up (Li): `⌊c·(n+1)/2^k⌋ = ⌊n/d⌋` for every `n <= n_max` iff
/// `f = 2^k - c·d >= 1` and `f·(q_top·d + 1) <= 2^k`, with `q_top·d` the
/// largest multiple of `d` in range. Failing the first the plan reads
/// more than `0` at `n = d - 1`; failing the second it reads less than
/// `q_top` at `n = q_top·d`.
fn round_up(d: u128, n_max: u128, c: u128, k: u32) -> Result<(), u128> {
    let top = n_max - n_max % d;
    // c·d < 2^256, so f > 2^(k-1) and f·(top + 1) > 2^k.
    if k > 256 {
        return Err(top);
    }
    let pow2k = Wide::pow2(k);
    let f = match pow2k.checked_sub(Wide::mul(D::from_lo(c), d)) {
        Some(f) if f.top != 0 || !f.low.is_zero() => f,
        _ => return Err(d - 1),
    };
    match f.fits() {
        Some(f) if Wide::mul(f, top).add(f) <= pow2k => Ok(()),
        _ => Err(top),
    }
}

/// Whether an unsigned-quotient plan computes `⌊n/d⌋` for every `N`-bit
/// `n`; `Err(n)` names a dividend where it does not.
///
/// `Identity`, `Shift`, `MulShift` and `MulAddShift` are all the
/// round-down form `⌊c·⌊n/2^p⌋/2^k⌋` (`MulAddShift` with `c = 2^N +
/// m'`); a pre-shift `p` with `2^p | d` divides it out exactly, and one
/// without leaves `d - 1` and `d` indistinguishable. `MulRoundUp` is the
/// round-up form.
pub fn udiv_valid(plan: &UdivPlan) -> Result<(), u128> {
    let w = plan.width();
    let d = plan.divisor();
    let n_max = mask(w);
    let (c, p, k) = match plan.strategy() {
        UdivStrategy::Identity => (D::from_lo(1), 0, 0),
        UdivStrategy::Shift { sh } => (D::from_lo(1), 0, sh),
        UdivStrategy::MulShift { m, sh_pre, sh_post } => {
            (D::from_lo(m & n_max), sh_pre, w.saturating_add(sh_post))
        }
        UdivStrategy::MulAddShift {
            m_minus_pow2n,
            sh_post,
        } => (
            D::pow2(w).wrapping_add(D::from_lo(m_minus_pow2n & n_max)),
            0,
            w.saturating_add(sh_post.max(1)),
        ),
        UdivStrategy::MulRoundUp { m, sh_post } => {
            return round_up(d, n_max, m & n_max, w.saturating_add(sh_post));
        }
    };
    if p == 0 {
        return round_down(d, n_max, c, k);
    }
    if p >= w || d.trailing_zeros() < p {
        // ⌊(d-1)/2^p⌋ = ⌊d/2^p⌋, but the quotients differ: one is wrong.
        let at_d = k <= 256 && Wide::mul(c, shr(d, p)) >= Wide::pow2(k);
        return Err(if at_d { d - 1 } else { d });
    }
    let low = (1u128 << p) - 1;
    round_down(d >> p, n_max >> p, c, k).map_err(|n| if n == d >> p { d } else { (n << p) | low })
}

/// LKK Thm 1 at `F = 2N`, made exact: the fraction plan with `c =
/// c_hi·2^N + c_lo` computes `n mod d` for every `N`-bit `n` iff
/// `E·n_max < 2^2N`, where `E = (c·d - 2^2N) mod d·2^2N`. (The kernel
/// reads `r = ⌊d·{n·c/2^2N}⌋`, which is right exactly when
/// `(n·E mod d·2^2N) < 2^2N`; the steps of `n·E` are smaller than
/// `2^2N`, so the first `n` that leaves that band is `⌈2^2N/E⌉`.) That
/// first `n` is the witness.
pub fn fraction_valid(d: u128, width: u32, c_hi: u128, c_lo: u128) -> Result<(), u128> {
    if d == 1 {
        return Ok(()); // r = 0 whatever the fraction
    }
    let n_max = mask(width);
    let c = D::from_lo(c_hi & n_max)
        .shl_full(width)
        .wrapping_add(D::from_lo(c_lo & n_max));
    let two_n = Wide::pow2(2 * width);
    // c < 2^2N, so c·d - 2^2N < (d-1)·2^2N: the reduction is at most one
    // wrap, which leaves E >= 2^2N and fails at n = 1.
    let e = match Wide::mul(c, d).checked_sub(two_n) {
        Some(e) if e < two_n => e.low,
        _ => return Err(1),
    };
    if e.is_zero() || Wide::mul(e, n_max) < two_n {
        return Ok(());
    }
    let below = two_n
        .checked_sub(Wide::pow2(0))
        .map_or(D::zero(), |x| x.low);
    let q = below.div_rem(e).map_or(0, |(q, _)| q.lo());
    Err(q + 1)
}

/// Both mask shapes (`r = n & L`, `d | n ⟺ n & L = 0`) are right iff
/// `d = 2^e` and `L = 2^e - 1`. The witness is `d`, the lowest set bit of
/// `d`, or the lowest bit where `L` and `d - 1` differ.
fn mask_valid(d: u128, n_max: u128, low_mask: u128) -> Result<(), u128> {
    let l = low_mask & n_max;
    if !d.is_power_of_two() {
        return Err(if d & l != 0 {
            d
        } else {
            1 << d.trailing_zeros()
        });
    }
    match l ^ (d - 1) {
        0 => Ok(()),
        diff => Err(1 << diff.trailing_zeros()),
    }
}

/// Whether an unsigned-remainder plan computes `n mod d` for every
/// `N`-bit `n`; `Err(n)` names a dividend where it does not.
///
/// Multiply-back is judged by its embedded quotient strategy. That is
/// exact for odd `d` (a quotient wrong by less than `2^N` changes `n -
/// q·d mod 2^N`); for even `d` it is the stronger claim that the quotient
/// itself is right, which every multiply-back plan the planner builds
/// satisfies.
pub fn urem_valid(plan: &UremPlan) -> Result<(), u128> {
    let (w, d) = (plan.width(), plan.divisor());
    match plan.strategy() {
        UremStrategy::Mask { low_mask } => mask_valid(d, mask(w), low_mask),
        UremStrategy::Fraction { c_hi, c_lo } => fraction_valid(d, w, c_hi, c_lo),
        UremStrategy::MulBack { udiv } => udiv_valid(&UdivPlan::from_raw(d, w, udiv)),
    }
}

/// Whether a divisibility test answers `d | n` correctly for every
/// `N`-bit `n`; `Err(n)` names a dividend where it does not.
///
/// The §9 inverse-rotate test maps the multiples of `d` bijectively onto
/// `[0, ⌊(2^N-1)/d⌋]` when `e = v2(d)` and `dinv` inverts `d_odd` modulo
/// `2^(N-e)` — the high `e` bits of `dinv` never reach the rotated
/// result — and is right exactly then (for `d = 2^e`, any odd `dinv`
/// permutes the multiples; for `d = 1` only `qmax` matters).
pub fn divisibility_valid(plan: &DivisibilityPlan) -> Result<(), u128> {
    let (w, d) = (plan.width(), plan.divisor());
    let n_max = mask(w);
    let (e, a, qmax) = match plan.strategy() {
        DivisibilityStrategy::Mask { low_mask } => return mask_valid(d, n_max, low_mask),
        DivisibilityStrategy::InverseRotate { e, dinv, qmax } => (e, dinv & n_max, qmax & n_max),
    };
    let t = d.trailing_zeros();
    let d_odd = d >> t;
    let q_top = n_max / d;
    // u = dinv·d_odd mod 2^(N-e): what the test maps the multiple j·d to,
    // per unit of j.
    let u = (e < w).then(|| a.wrapping_mul(d_odd) & mask(w - e));
    let inverts = e == t && u.is_some_and(|u| u == 1 || d_odd == 1 && u & 1 == 1);
    if d == 1 && qmax == n_max || inverts && qmax == q_top {
        return Ok(());
    }
    if let (true, Some(u)) = (inverts, u) {
        // The multiples fill [0, q_top] exactly: a short threshold
        // rejects the multiple that lands on qmax + 1, a long one accepts
        // the non-multiple that rotates to q_top + 1.
        return Err(if qmax < q_top {
            let j = mod_inverse_newton(u).wrapping_mul(qmax + 1) & mask(w - e);
            j * d
        } else {
            let rol = ((q_top + 1) << e | shr(q_top + 1, w - e)) & n_max;
            mod_inverse_newton(a).wrapping_mul(rol) & n_max
        });
    }
    // Wrong rotation or multiplier. The failure usually sits at d, at a
    // power of two, at the first multiple carried past the threshold, or
    // at the preimage of a small value; the low dividends are the
    // backstop, which covers every dividend up to width 12.
    let mut probes = vec![d, q_top * d, n_max, qmax.wrapping_add(1) & n_max];
    if let (true, Some(u)) = (a & 1 == 1, u) {
        let a_inv = mod_inverse_newton(a) & n_max;
        let rol = |y: u128| (y << e | shr(y, w - e)) & n_max;
        probes.extend([1, 2, qmax, q_top + 1].map(|y| a_inv.wrapping_mul(rol(y)) & n_max));
        probes.extend((1..=2).map(|i| (qmax / u.max(1) + i).min(q_top) * d));
    }
    let wrong = |n: &u128| eval_divisibility(plan, *n) != u128::from(*n % d == 0);
    Err(probes
        .into_iter()
        .chain((0..w).map(|i| 1u128 << i))
        .chain(0..=n_max.min(BACKSTOP))
        .find(wrong)
        .unwrap_or(d))
}

/// How many of the lowest dividends the divisibility witness search
/// tries last.
const BACKSTOP: u128 = 1 << 12;

/// The low `w` bits of `x`, sign-extended: how an `iN` kernel reads a
/// constant.
fn sext(x: u128, w: u32) -> i128 {
    let s = 128 - w;
    ((x << s) as i128) >> s
}

/// The negative half of the signed kernels: `⌊(c·a - 1)/2^k⌋ = ⌊a/d⌋`
/// for every `1 <= a <= a_max`, with `1 <= d <= a_max`. Writing `n_c` for
/// the [`last_full_group`], this holds iff `c·d > 2^k` and `c·n_c <=
/// ((n_c + 1)/d)·2^k`: the low end of every group is bounded by the
/// first inequality and the high end of every full group by the second
/// (with `e = c·d - 2^k`, the `j`-th group needs `j·e <= c`, which
/// tightens as `j` climbs). A partial last group follows from the last
/// full one, since `d <= a_max` makes that group's `j >= 1`, so `e <=
/// c`. Each failure names the `a` where it fails.
fn round_down_minus_one(d: u128, a_max: u128, c: D, k: u32) -> Result<(), u128> {
    // c < 2^129 and d <= 2^127, so c·d < 2^256 <= 2^k from here on.
    if k > 255 {
        return Err(d);
    }
    if Wide::mul(c, d) <= Wide::pow2(k) {
        return Err(d);
    }
    let n_c = last_full_group(d, a_max);
    if Wide::mul(c, n_c) > Wide::mul(D::pow2(k), (n_c + 1) / d) {
        return Err(n_c);
    }
    Ok(())
}

/// The multiplier of a signed `MulShift`/`MulAddShift` kernel, which
/// computes `⌊c·n/2^k⌋ - XSIGN(n)` before negation, with `k = N +
/// sh_post`: `MulShift` reads `m` as an `iN`, `MulAddShift` reads `c =
/// 2^N + (m - 2^N)`. `None` for the shapes without a multiplier.
///
/// # Errors
///
/// A dividend the kernel gets wrong whatever the divisor: `-1` when `c
/// <= 0` (`q0(-1) >= 1`, but `TRUNC(-1/|d|) <= 0`), and `MIN` when
/// `MulAddShift` reads `m - 2^N >= 1` with a post-shift. Then
/// `n + MULSH(m - 2^N, n)` wraps at `n = MIN` to a positive value, so
/// `q0(MIN) >= 1`. (With no post-shift the wrap is harmless: `q0` is
/// then `⌊c·n/2^N⌋ + 1` modulo `2^N`, which is all the answer is
/// compared modulo.)
fn signed_multiplier(strategy: SdivStrategy, w: u32) -> Result<Option<(D, u32)>, i128> {
    let (c, sh_post) = match strategy {
        SdivStrategy::MulShift { m, sh_post } => {
            let m = u128::try_from(sext(m, w)).ok().filter(|&m| m > 0);
            (D::from_lo(m.ok_or(-1)?), sh_post)
        }
        SdivStrategy::MulAddShift {
            m_minus_pow2n,
            sh_post,
        } => {
            let v = sext(m_minus_pow2n, w);
            if v > 0 && sh_post > 0 {
                return Err((1u128 << (w - 1)).wrapping_neg() as i128);
            }
            let c = if v < 0 {
                D::pow2(w).wrapping_sub(D::from_lo(v.unsigned_abs()))
            } else {
                D::pow2(w).wrapping_add(D::from_lo(v as u128))
            };
            (c, sh_post)
        }
        SdivStrategy::Identity | SdivStrategy::Shift { .. } => return Ok(None),
    };
    Ok(Some((c, w.saturating_add(sh_post))))
}

/// Whether a signed truncating plan computes `TRUNC(n/d)` (wrapping
/// `MIN / -1` to `MIN`, as hardware does) for every `N`-bit `n`;
/// `Err(n)` names a dividend where it does not.
///
/// The kernel computes a quotient `q0` for `|d|` and negates it when
/// the plan says so. The predicate asks that it negate exactly when `d <
/// 0`, as every planned constant set does; then negation is a bijection
/// on the quotients in range, the plan is right iff `q0 = TRUNC(n/|d|)`
/// everywhere, and the predicate is exact. (A plan with the other
/// negation is refused, although some are right: a negative multiplier
/// can divide by `d` directly.) `Identity` is right iff `|d| = 1` and
/// `Shift { l }` iff `|d| = 2^l`. The multiply shapes compute
/// `⌊c·n/2^k⌋` for `n >= 0`, a round-down on `[0, 2^(N-1) - 1]`, and
/// for `n = -a`, `a` in `[1, 2^(N-1)]`, they compute `⌊c·n/2^k⌋ + 1`,
/// which is `-⌊(c·a - 1)/2^k⌋` and must be `-⌊a/|d|⌋`.
pub fn sdiv_valid(plan: &SdivPlan) -> Result<(), i128> {
    let w = plan.width();
    let d = sext(plan.divisor() as u128, w);
    let abs = d.unsigned_abs();
    let half = 1u128 << (w - 1);
    if d == 0 {
        return Err(1);
    }
    // -a for 1 <= a <= 2^(N-1), which wraps to i128::MIN at w128.
    let neg = |a: u128| (a as i128).wrapping_neg();
    match plan.strategy() {
        SdivStrategy::Identity if abs != 1 => return Err(neg(abs)),
        SdivStrategy::Shift { l } if !(1..w).contains(&l) || abs != 1 << l => {
            // Off by a power of two: -min(|d|, 2^l) has trunc quotient -1
            // by the smaller and 0 by the larger.
            let pow = 1u128.checked_shl(l).unwrap_or(half).min(half);
            return Err(neg(abs.min(pow)));
        }
        strategy => {
            let Some((c, k)) = signed_multiplier(strategy, w)? else {
                return check_sign(plan.negate(), d);
            };
            if abs < half {
                round_down(abs, half - 1, c, k).map_err(|n| n as i128)?;
            } else if k <= 256 && Wide::mul(c, half - 1) >= Wide::pow2(k) {
                // |d| = 2^(N-1): every quotient of a nonnegative n is 0.
                return Err((half - 1) as i128);
            }
            round_down_minus_one(abs, half, c, k).map_err(neg)?;
        }
    }
    check_sign(plan.negate(), d)
}

/// The last step of [`sdiv_valid`], once `q0` is right: the kernel must
/// negate exactly when `d < 0`, else it errs at `n = -|d|`, where `q0 =
/// -1`.
fn check_sign(negate: bool, d: i128) -> Result<(), i128> {
    if negate == (d < 0) {
        Ok(())
    } else {
        Err((d.unsigned_abs() as i128).wrapping_neg())
    }
}

/// Whether a floor plan computes `⌊n/d⌋` for every `N`-bit `n`; `Err(n)`
/// names a dividend where it does not.
///
/// `Identity` is right iff `d = 1` and `Shift { l }` iff `d = 2^l`.
/// `MulShift` computes `⌊m·u/2^k⌋` on `u = n` or `u = !n`, both in `[0,
/// 2^(N-1) - 1]`, and folds the sign back in, so it is right iff that is
/// a round-down for `d > 0` on that range. `NegativeTrunc` corrects a
/// trunc quotient `q` to `q - [r > 0]`, so it is right iff the trunc
/// kernel's quotient for `|d|` is at most one step below `⌈n/|d|⌉`
/// everywhere: a wider condition than [`sdiv_valid`], checked exactly for
/// the multiply shapes.
pub fn floor_valid(plan: &FloorPlan) -> Result<(), i128> {
    let w = plan.width();
    let d = sext(plan.divisor() as u128, w);
    let half = 1u128 << (w - 1);
    match plan.strategy() {
        FloorStrategy::Identity if d == 1 => Ok(()),
        // ⌊1/d⌋ = -1 for d < 0; ⌊d/d⌋ = 1.
        FloorStrategy::Identity => Err(if d < 0 { 1 } else { d }),
        FloorStrategy::Shift { l } => {
            let pow = 1u128.checked_shl(l).unwrap_or(u128::MAX);
            match d {
                // SRA(-1, l) = -1, where ⌊-1/d⌋ >= 0.
                ..=0 => Err(-1),
                _ if (d as u128) < pow => Err(d),
                _ if (d as u128) > pow => Err(pow as i128),
                _ => Ok(()),
            }
        }
        FloorStrategy::MulShift { m, sh_post } if d > 0 => round_down(
            d as u128,
            half - 1,
            D::from_lo(m & mask(w)),
            w.saturating_add(sh_post),
        )
        .map_err(|n| n as i128),
        // A nonnegative quotient at n = 1, where ⌊1/d⌋ = -1.
        FloorStrategy::MulShift { .. } => Err(1),
        FloorStrategy::NegativeTrunc { trunc } => {
            if d >= 0 || trunc.width() != w || sext(trunc.divisor() as u128, w) != d {
                return Err(1);
            }
            floor_negative_valid(&trunc)
        }
    }
}

/// The floor plan for `d < 0`: a trunc plan for `d` whose quotient `q`
/// is corrected to `q - [r > 0]`, `r = n - q·d`. With `D = |d|` and `q =
/// -q0`, that is `⌈n/D⌉` negated iff `q0 ∈ {⌈n/D⌉ - 1, ⌈n/D⌉}`: the
/// correction repairs a trunc quotient one step off on one side, so this
/// is wider than [`sdiv_valid`]. (For `D = 2^(N-1)`, `r` wraps unless
/// `q0(MIN) = -1` exactly.) For the multiply shapes it is exact:
///
/// * `c·D > 2^k` (fails at `n = -D`);
/// * for `n >= 0`, where `q0 = ⌊c·n/2^k⌋`: `c·h·D < (h + 1)·2^k` at the
///   last full group `h = ⌊(2^(N-1) - 1)/D⌋`, and the partial group's top
///   `2^(N-1) - 1` below `(h + 2)·2^k`;
/// * for `n = -a < 0`, where `q0 = -⌊(c·a - 1)/2^k⌋`: `c·n_c <= (j + 1)·
///   2^k` at the [`last_full_group`] `n_c = j·D - 1`, and `c·2^(N-1) <=
///   (⌊2^(N-1)/D⌋ + 2)·2^k` when that group is partial (`+ 1` for `D =
///   2^(N-1)`).
///
/// Other trunc plans are judged by [`sdiv_valid`], which is sufficient.
fn floor_negative_valid(trunc: &SdivPlan) -> Result<(), i128> {
    let w = trunc.width();
    let abs = sext(trunc.divisor() as u128, w).unsigned_abs();
    let half = 1u128 << (w - 1);
    let neg = |a: u128| (a as i128).wrapping_neg();
    if !trunc.negate() {
        return sdiv_valid(trunc);
    }
    let Some((c, k)) = signed_multiplier(trunc.strategy(), w)? else {
        return sdiv_valid(trunc);
    };
    if k > 255 || Wide::mul(c, abs) <= Wide::pow2(k) {
        return Err(neg(abs));
    }
    let times_pow2k = |j: u128| Wide::mul(D::pow2(k), j);
    let n_max = half - 1;
    let h = n_max / abs;
    if h > 0 && Wide::mul(c, h * abs) >= times_pow2k(h + 1) {
        return Err((h * abs) as i128);
    }
    if n_max % abs != 0 && Wide::mul(c, n_max) >= times_pow2k(h + 2) {
        return Err(n_max as i128);
    }
    let n_c = last_full_group(abs, half);
    if Wide::mul(c, n_c) > times_pow2k((n_c + 1) / abs + 1) {
        return Err(neg(n_c));
    }
    let slack = if abs == half { 1 } else { 2 };
    if n_c != half && Wide::mul(c, half) > times_pow2k(half / abs + slack) {
        return Err(neg(half));
    }
    Ok(())
}

/// Whether an unsigned exact-division plan answers both of its calls
/// for every `N`-bit input: `divide_exact` (`MULL(dinv, n) >> e`) on
/// every multiple `n = j·d`, and `divides` (the §9 inverse-rotate test)
/// on every `n`. `Err(n)` names an input where one of them is wrong.
///
/// With `c = MULL(dinv, d)` the quotient of `j·d` reads
/// `(j·c mod 2^N) >> e`, which is `j` for every `j <= q_top =
/// ⌊(2^N - 1)/d⌋` iff `c >> e = 1` (at `j = 1`), `q_top·c < 2^N` (the
/// first wrap lands below its `j·2^e`) and `(q_top·c) >> e = q_top` (the
/// error `j·(c - 2^e)` grows with `j`). The test is
/// [`divisibility_valid`].
///
/// # Panics
///
/// Panics when the plan is signed.
pub fn exact_valid(plan: &ExactPlan) -> Result<(), u128> {
    assert!(!plan.is_signed(), "signed exact plans have no kernel here");
    let w = plan.width();
    let n_max = mask(w);
    let d = plan.d_abs & n_max;
    if d == 0 {
        return Err(0);
    }
    let q_top = n_max / d;
    let c = mul_wide(plan.dinv & n_max, d, w).1;
    if shr(c, plan.e) != 1 {
        return Err(d);
    }
    // The last quotient whose j·c does not wrap: q_top, or the one
    // before the first wrap, which then lands below its j·2^e.
    let wraps = mul_wide(q_top, c, w).0 != 0;
    let j = if wraps { n_max / c } else { q_top };
    if shr(j * c, plan.e) != j {
        return Err(j * d);
    }
    if wraps {
        return Err((j + 1) * d);
    }
    let test = DivisibilityPlan {
        width: w,
        d,
        strategy: DivisibilityStrategy::InverseRotate {
            e: plan.e,
            dinv: plan.dinv,
            qmax: plan.qmax,
        },
    };
    divisibility_valid(&test)
}

/// Whether a doubleword plan carries Lemma 8.1's constants for its
/// divisor, which the Figure 8.1 kernel is proved correct with: `l` is
/// the bit length of `d`, `d_norm = d·2^(N-l)` has its top bit set, and
/// `(2^N + m')·d_norm <= 2^2N - 1 < (2^N + m' + 1)·d_norm`.
///
/// This is sound, not complete: the kernel's final correction step also
/// absorbs some `m'` and `d_norm` next to Lemma 8.1's. `Err((hi, lo))`
/// names the largest dividend, `(d - 1)·2^N + 2^N - 1`, as the input to
/// report; the kernel need not be wrong there.
pub fn dword_valid(plan: &DwordPlan) -> Result<(), (u128, u128)> {
    let w = plan.width();
    let n_max = mask(w);
    let d = plan.divisor() & n_max;
    let witness = (d.saturating_sub(1), n_max);
    let l = 128 - d.leading_zeros();
    if d == 0 || plan.l() != l || plan.d_norm() & n_max != d << (w - l) {
        return Err(witness);
    }
    let c = D::pow2(w).wrapping_add(D::from_lo(plan.m_prime() & n_max));
    let two_n = Wide::pow2(2 * w);
    let d_norm = plan.d_norm() & n_max;
    let fits = Wide::mul(c, d_norm) < two_n;
    let tight = Wide::mul(c.wrapping_add(D::from_lo(1)), d_norm) >= two_n;
    if fits && tight {
        Ok(())
    } else {
        Err(witness)
    }
}

/// The exact validity predicate for any plan shape the tournament
/// fields — unsigned quotient, remainder and divisibility — or `None`
/// for the shapes it does not cover (signed, floor, exact, doubleword).
pub fn plan_valid(plan: &DivPlan) -> Option<Result<(), u128>> {
    Some(match plan {
        DivPlan::Unsigned(p) => udiv_valid(p),
        DivPlan::Urem(p) => urem_valid(p),
        DivPlan::Divisibility(p) => divisibility_valid(p),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::unsigned_generators;

    /// Every `n` in `ns` on which `plan` disagrees with `truth`, first one.
    fn first_failure(
        ns: impl IntoIterator<Item = u128>,
        mut got: impl FnMut(u128) -> u128,
        mut truth: impl FnMut(u128) -> u128,
    ) -> Option<u128> {
        ns.into_iter().find(|&n| got(n) != truth(n))
    }

    /// Quotient dividends to run: all of them, or — for the monotone
    /// round-down and round-up kernels, where a quotient group is right
    /// iff both its ends are — the two ends of every group.
    fn quotient_dividends(d: u128, w: u32, all: bool) -> Vec<u128> {
        let n_max = mask(w);
        if all {
            return (0..=n_max).collect();
        }
        (0..=n_max / d)
            .flat_map(|q| [q * d, (q * d + d - 1).min(n_max)])
            .collect()
    }

    /// The predicate's verdict must equal the exhaustive one, and every
    /// witness must be a dividend where the plan is really wrong.
    fn assert_exact(
        what: &str,
        verdict: Result<(), u128>,
        exhaustive: Option<u128>,
        wrong_at: impl Fn(u128) -> bool,
    ) {
        assert_eq!(
            verdict.is_ok(),
            exhaustive.is_none(),
            "{what}: predicate {verdict:?}, exhaustive failure at {exhaustive:?}"
        );
        if let Err(n) = verdict {
            assert!(wrong_at(n), "{what}: witness {n} is not a counterexample");
        }
    }

    /// The ±4 window around `x`, clipped to `[0, max]`.
    fn window(x: u128, max: u128) -> impl Iterator<Item = u128> {
        x.saturating_sub(4)..=x.saturating_add(4).min(max)
    }

    /// Every generated unsigned candidate for every `d`, with every
    /// multiplier in a ±4 window and every post-shift.
    fn sweep_udiv(w: u32, all: bool) {
        let n_max = mask(w);
        for d in 1..=n_max {
            let ns = quotient_dividends(d, w, all);
            for gen in unsigned_generators() {
                for cand in gen.generate(d, w).unwrap() {
                    let DivPlan::Unsigned(base) = cand.plan else {
                        unreachable!()
                    };
                    for strategy in udiv_neighbors(base.strategy(), w) {
                        let plan = UdivPlan::from_raw(d, w, strategy);
                        let exhaustive = first_failure(
                            ns.iter().copied(),
                            |n| eval_unsigned(&plan, n),
                            |n| n / d,
                        );
                        assert_exact(&plan.to_string(), udiv_valid(&plan), exhaustive, |n| {
                            eval_unsigned(&plan, n) != n / d
                        });
                    }
                }
            }
        }
    }

    fn udiv_neighbors(s: UdivStrategy, w: u32) -> Vec<UdivStrategy> {
        let n_max = mask(w);
        let shifts = 0..=w;
        match s {
            UdivStrategy::Identity | UdivStrategy::Shift { .. } => shifts
                .map(|sh| UdivStrategy::Shift { sh })
                .chain([UdivStrategy::Identity])
                .collect(),
            UdivStrategy::MulShift { m, sh_pre, .. } => window(m, n_max)
                .flat_map(|m| {
                    shifts
                        .clone()
                        .map(move |sh_post| UdivStrategy::MulShift { m, sh_pre, sh_post })
                })
                .collect(),
            UdivStrategy::MulAddShift { m_minus_pow2n, .. } => window(m_minus_pow2n, n_max)
                .flat_map(|m_minus_pow2n| {
                    (1..=w).map(move |sh_post| UdivStrategy::MulAddShift {
                        m_minus_pow2n,
                        sh_post,
                    })
                })
                .collect(),
            UdivStrategy::MulRoundUp { m, .. } => window(m, n_max)
                .flat_map(|m| {
                    shifts
                        .clone()
                        .map(move |sh_post| UdivStrategy::MulRoundUp { m, sh_post })
                })
                .collect(),
        }
    }

    /// The LKK fraction for every non-power-of-two `d`: a ±4 window
    /// around the smallest admissible `c` and around the largest.
    fn sweep_fraction(w: u32, d_step: usize) {
        let n_max = mask(w);
        let two_n = 1u128 << (2 * w);
        for d in (3..=n_max).step_by(d_step).filter(|d| !d.is_power_of_two()) {
            let c_min = two_n / d + 1;
            let c_top = (two_n + (two_n - 1) / n_max) / d;
            for c in window(c_min, two_n - 1).chain(window(c_top, two_n - 1)) {
                let (c_hi, c_lo) = (c >> w, c & n_max);
                let plan = UremPlan::from_raw(d, w, UremStrategy::Fraction { c_hi, c_lo });
                let exhaustive = first_failure(0..=n_max, |n| eval_urem(&plan, n), |n| n % d);
                assert_exact(&plan.to_string(), urem_valid(&plan), exhaustive, |n| {
                    eval_urem(&plan, n) != n % d
                });
            }
        }
    }

    /// The §9 test (and the mask for powers of two) for every `d`: the
    /// right rotation and its neighbors, a ±4 window on the inverse and a
    /// ±2 window on the threshold.
    fn sweep_divisibility(w: u32, d_step: usize) {
        let n_max = mask(w);
        for d in (1..=n_max).step_by(d_step) {
            let base = DivisibilityPlan::new(d, w).unwrap();
            let strategies: Vec<DivisibilityStrategy> = match base.strategy() {
                DivisibilityStrategy::Mask { low_mask } => window(low_mask, n_max)
                    .map(|low_mask| DivisibilityStrategy::Mask { low_mask })
                    .collect(),
                DivisibilityStrategy::InverseRotate { e, dinv, qmax } => {
                    [e.wrapping_sub(1), e, e + 1]
                        .into_iter()
                        .filter(|&e| e < w)
                        .flat_map(|e| {
                            window(dinv, n_max).flat_map(move |dinv| {
                                (qmax.saturating_sub(2)..=(qmax + 2).min(n_max)).map(move |qmax| {
                                    DivisibilityStrategy::InverseRotate { e, dinv, qmax }
                                })
                            })
                        })
                        .collect()
                }
            };
            for strategy in strategies {
                let plan = DivisibilityPlan {
                    width: w,
                    d,
                    strategy,
                };
                let truth = |n: u128| u128::from(n % d == 0);
                let exhaustive = first_failure(0..=n_max, |n| eval_divisibility(&plan, n), truth);
                assert_exact(
                    &plan.to_string(),
                    divisibility_valid(&plan),
                    exhaustive,
                    |n| eval_divisibility(&plan, n) != truth(n),
                );
            }
        }
    }

    #[test]
    fn predicates_match_exhaustive_evaluation_up_to_w12() {
        for w in 1..=12 {
            sweep_udiv(w, w <= 8);
            sweep_fraction(w, 1);
            sweep_divisibility(w, 1);
        }
    }

    /// Runs the predicate on each of `plans` against exhaustive
    /// evaluation of the real kernel: it must never accept a wrong plan,
    /// and, when `named` is set, its witness for a wrong one must be an
    /// input the kernel really gets wrong. Returns the right plans it
    /// refuses, which an exact predicate never does.
    fn refused_but_right<P: core::fmt::Debug, N: Copy + core::fmt::Debug>(
        plans: impl IntoIterator<Item = P>,
        verdict: impl Fn(&P) -> Result<(), N>,
        wrong_at: impl Fn(&P, N) -> bool,
        inputs: &[N],
        named: bool,
    ) -> Vec<P> {
        let mut refused = Vec::new();
        for plan in plans {
            let right = !inputs.iter().any(|&n| wrong_at(&plan, n));
            match verdict(&plan) {
                Ok(()) => assert!(right, "{plan:?}: accepted, but wrong"),
                Err(_) if right => refused.push(plan),
                Err(n) => assert!(
                    !named || wrong_at(&plan, n),
                    "{plan:?}: witness {n:?} is right"
                ),
            }
        }
        refused
    }

    fn all_i8() -> Vec<i128> {
        (-128..=127).collect()
    }

    /// `TRUNC(n/d)` and `⌊n/d⌋` at `i8`, wrapping `MIN / -1`.
    fn trunc8(n: i8, d: i8) -> i8 {
        n.checked_div(d).unwrap_or(i8::MIN)
    }

    fn floor8(n: i8, d: i8) -> i8 {
        match (n.checked_div(d), n.checked_rem(d)) {
            (Some(q), Some(r)) if r != 0 && (r < 0) != (d < 0) => q - 1,
            (Some(q), _) => q,
            _ => i8::MIN,
        }
    }

    /// Every multiply-shape trunc plan at `i8` for `d`: both shapes, every
    /// multiplier, every post-shift up to 9, either negation.
    fn signed_mul_plans(d: i128) -> Vec<SdivPlan> {
        let base = SdivPlan::new(d, 8).unwrap();
        let mut plans = Vec::new();
        for m in 0..=255u128 {
            for sh_post in 0..=9 {
                for strategy in [
                    SdivStrategy::MulShift { m, sh_post },
                    SdivStrategy::MulAddShift {
                        m_minus_pow2n: m,
                        sh_post,
                    },
                ] {
                    for negate in [false, true] {
                        plans.push(SdivPlan {
                            strategy,
                            negate,
                            ..base
                        });
                    }
                }
            }
        }
        plans
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "~200M kernel calls: seconds in release")]
    fn signed_floor_and_exact_predicates_match_the_kernels_at_w8() {
        use crate::{ExactUnsignedDivisor, FloorDivisor, SignedDivisor};
        let ns = all_i8();
        // Trunc plans whose negation contradicts the sign of d are only
        // checked for soundness: the predicates refuse them, though some
        // are right, such as a negative multiplier with no negation, a
        // floor division by a negative divisor in round-up form.
        for d in (-128i128..=127).filter(|&d| d != 0) {
            let (plans, flipped): (Vec<SdivPlan>, Vec<SdivPlan>) = signed_mul_plans(d)
                .into_iter()
                .partition(|p| p.negate == (d < 0));
            let trunc = |p: &SdivPlan, n: i128| {
                let k = SignedDivisor::<i8>::from_plan(p);
                k.divide(n as i8) != trunc8(n as i8, d as i8)
            };
            let refused = refused_but_right(plans.iter().copied(), sdiv_valid, trunc, &ns, true);
            assert_eq!(refused, [], "d = {d}");
            refused_but_right(flipped.iter().copied(), sdiv_valid, trunc, &ns, false);
            let floor = |p: &FloorPlan, n: i128| {
                FloorDivisor::<i8>::from_plan(p).divide(n as i8) != floor8(n as i8, d as i8)
            };
            let base = FloorPlan::new(d, 8).unwrap();
            let with_trunc = |trunc| FloorPlan {
                strategy: FloorStrategy::NegativeTrunc { trunc },
                ..base
            };
            let floors: Vec<FloorPlan> = if d < 0 {
                let flipped = flipped.into_iter().map(with_trunc);
                refused_but_right(flipped, floor_valid, floor, &ns, false);
                plans.into_iter().map(with_trunc).collect()
            } else {
                (0..=255u128)
                    .flat_map(|m| {
                        (0..=9).map(move |sh_post| FloorPlan {
                            strategy: FloorStrategy::MulShift { m, sh_post },
                            ..base
                        })
                    })
                    .collect()
            };
            assert_eq!(
                refused_but_right(floors, floor_valid, floor, &ns, true),
                [],
                "d = {d}"
            );
        }
        // Exact division: every inverse, thresholds around the right one
        // and shifts around v2(d); both calls on every dividend.
        let inputs: Vec<u128> = (0..=255).collect();
        for d in 1..=255u128 {
            let base = ExactPlan::new_unsigned(d, 8).unwrap();
            let plans = (0..=255u128).flat_map(|dinv| {
                let qmaxes = base.qmax.saturating_sub(2)..=(base.qmax + 2).min(255);
                qmaxes.flat_map(move |qmax| {
                    (base.e.saturating_sub(1)..=(base.e + 1).min(7)).map(move |e| ExactPlan {
                        dinv,
                        qmax,
                        e,
                        ..base
                    })
                })
            });
            let wrong = |p: &ExactPlan, n: u128| {
                let k = ExactUnsignedDivisor::<u8>::from_plan(p);
                let (n, d8) = (n as u8, d as u8);
                k.divides(n) != (n % d8 == 0)
                    || n % d8 == 0 && k.divide_exact_unchecked(n) != n / d8
            };
            assert_eq!(
                refused_but_right(plans, exact_valid, wrong, &inputs, true),
                []
            );
        }
    }

    #[test]
    #[ignore = "every d at width 16: seconds in release"]
    fn predicates_match_exhaustive_evaluation_w16() {
        sweep_udiv(16, false);
        sweep_fraction(16, 257);
        sweep_divisibility(16, 257);
    }
}
