//! Lowering division plans to IR.
//!
//! The planning layer in [`magicdiv::plan`] decides *which* code shape a
//! divisor gets (Fig 4.2, 5.2, 6.1, 8.1, §9); this module decides what
//! that shape *is* in Table 3.1 operations. [`lower_plan`] is the one
//! `DivPlan` → [`Program`] mapping, and [`compile`] is that mapping
//! followed by the optimizer: the code the codegen targets emit, the
//! simcpu pricer prices and the tournament's judge certifies. Each
//! `lower_*` function behind it appends the straight-line sequence for
//! one plan family to a [`Builder`] and returns the result register, so
//! a kernel can embed one division in a larger program.
//!
//! Because the same plan drives both the runtime divisors and this
//! lowering, the two layers cannot disagree about strategy — the
//! differential tests in the workspace assert exactly that.
//!
//! # Examples
//!
//! ```
//! use magicdiv::plan::UdivPlan;
//! use magicdiv_ir::compile;
//!
//! let prog = compile(UdivPlan::new(10, 32)?)?;
//! assert_eq!(prog.eval1(&[1234])?, 123);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DivisibilityStrategy, DwordPlan, ExactPlan, FloorPlan,
    FloorStrategy, SdivPlan, SdivStrategy, UdivPlan, UdivStrategy, UremPlan, UremStrategy,
};
use magicdiv::FaultKind;

use crate::program::{Builder, Op, Program, Reg};

/// Lowers any division plan to its raw (unoptimized) program;
/// [`compile`] also optimizes it, giving the code `magicdiv-codegen`
/// emits.
///
/// The Fig 8.1 [`DivPlan::Dword`] program takes `(hi, lo)` and returns
/// `(q, r)`; every other plan takes the dividend and returns one value
/// (quotient, remainder, or the 0/1 divisibility verdict).
///
/// # Errors
///
/// [`FaultKind::UnsupportedWidth`] when the plan's width exceeds 64 (the
/// IR's word limit), and [`FaultKind::BadProgram`] for a plan kind this
/// lowering does not know.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, DwordPlan, UdivPlan};
/// use magicdiv::FaultKind;
/// use magicdiv_ir::{compile, lower_plan};
///
/// let prog = compile(DwordPlan::new(10, 32).unwrap()).unwrap();
/// let n = (7u64 << 32) + 6;
/// assert_eq!(prog.eval(&[7, 6]).unwrap(), vec![n / 10, n % 10]);
///
/// let wide = DivPlan::from(UdivPlan::new(10, 128).unwrap());
/// assert_eq!(lower_plan(&wide), Err(FaultKind::UnsupportedWidth { width: 128 }));
/// ```
pub fn lower_plan(plan: &DivPlan) -> Result<Program, FaultKind> {
    let width = plan.width();
    if width > 64 {
        return Err(FaultKind::UnsupportedWidth { width });
    }
    if let DivPlan::Dword(p) = plan {
        let mut b = Builder::new(width, 2);
        let (hi, lo) = (b.arg(0), b.arg(1));
        let (q, r) = lower_dword_div(&mut b, hi, lo, p);
        return Ok(b.finish([q, r]));
    }
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let out = match plan {
        DivPlan::Unsigned(p) => lower_udiv(&mut b, n, p),
        DivPlan::Signed(p) => lower_sdiv(&mut b, n, p),
        DivPlan::Floor(p) => lower_floor_div(&mut b, n, p),
        DivPlan::Exact(p) => lower_exact_div(&mut b, n, p),
        DivPlan::Urem(p) => lower_urem(&mut b, n, p),
        DivPlan::Divisibility(p) => lower_divisibility(&mut b, n, p),
        other => {
            return Err(FaultKind::BadProgram(format!(
                "unknown plan kind {other:?}"
            )))
        }
    };
    Ok(b.finish([out]))
}

/// The optimized lowering of `plan`: [`lower_plan`], then
/// [`optimize`](crate::optimize). This is the program `magicdiv-codegen`
/// emits and `magicdiv-simcpu` prices for the plan.
///
/// # Errors
///
/// As [`lower_plan`]: [`FaultKind::UnsupportedWidth`] above 64 bits and
/// [`FaultKind::BadProgram`] for a plan kind the lowering does not know.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::UdivPlan;
/// use magicdiv_ir::compile;
///
/// let prog = compile(UdivPlan::new(10, 32)?)?;
/// assert_eq!(prog.eval1(&[1234])?, 123);
/// assert!(!prog.op_counts().uses_divide());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile(plan: impl Into<DivPlan>) -> Result<Program, FaultKind> {
    lower_plan(&plan.into()).map(|raw| crate::optimize(&raw))
}

fn check_width(b: &Builder, plan_width: u32) {
    assert_eq!(
        b.width(),
        plan_width,
        "plan width does not match builder width"
    );
}

/// Lowers a Figure 4.2 unsigned-division plan: `q = ⌊n / d⌋`.
pub fn lower_udiv(b: &mut Builder, n: Reg, plan: &UdivPlan) -> Reg {
    check_width(b, plan.width());
    match plan.strategy() {
        UdivStrategy::Identity => n,
        UdivStrategy::Shift { sh } => b.push(Op::Srl(n, sh)),
        UdivStrategy::MulShift { m, sh_pre, sh_post } => {
            // q = SRL(MULUH(m, SRL(n, sh_pre)), sh_post)
            let mreg = b.constant(m as u64);
            let n_pre = if sh_pre > 0 {
                b.push(Op::Srl(n, sh_pre))
            } else {
                n
            };
            let hi = b.push(Op::MulUH(mreg, n_pre));
            if sh_post > 0 {
                b.push(Op::Srl(hi, sh_post))
            } else {
                hi
            }
        }
        UdivStrategy::MulAddShift {
            m_minus_pow2n,
            sh_post,
        } => {
            // Fig 4.1 long sequence: t1 = MULUH(m - 2^N, n);
            // q = SRL(t1 + SRL(n - t1, 1), sh_post - 1).
            let mreg = b.constant(m_minus_pow2n as u64);
            let t1 = b.push(Op::MulUH(mreg, n));
            let diff = b.push(Op::Sub(n, t1));
            let half = b.push(Op::Srl(diff, 1));
            let sum = b.push(Op::Add(t1, half));
            if sh_post > 1 {
                b.push(Op::Srl(sum, sh_post - 1))
            } else {
                sum
            }
        }
        UdivStrategy::MulRoundUp { m, sh_post } => {
            // Round-up variant (Li, arXiv 2412.03680):
            // q = SRL(MULUH(m, n) + carry(MULL(m, n) + m), sh_post),
            // i.e. ⌊m(n+1) / 2^(N+sh_post)⌋ with the n+1 folded into a
            // carry so n = 2^N - 1 cannot overflow. The two multiplies
            // are independent, so they overlap on pipelined multipliers.
            let mreg = b.constant(m as u64);
            let t_lo = b.push(Op::MulL(mreg, n));
            let t_hi = b.push(Op::MulUH(mreg, n));
            let c = b.push(Op::Carry(t_lo, mreg));
            let sum = b.push(Op::Add(t_hi, c));
            if sh_post > 0 {
                b.push(Op::Srl(sum, sh_post))
            } else {
                sum
            }
        }
    }
}

/// Lowers a Figure 5.2 signed-division plan: `q = TRUNC(n / d)`.
pub fn lower_sdiv(b: &mut Builder, n: Reg, plan: &SdivPlan) -> Reg {
    check_width(b, plan.width());
    let width = b.width();
    let q = match plan.strategy() {
        SdivStrategy::Identity => n,
        SdivStrategy::Shift { l } => {
            // q = SRA(n + SRL(SRA(n, l-1), N-l), l)
            let sra = b.push(Op::Sra(n, l - 1));
            let srl = b.push(Op::Srl(sra, width - l));
            let biased = b.push(Op::Add(n, srl));
            b.push(Op::Sra(biased, l))
        }
        SdivStrategy::MulShift { m, sh_post } => {
            let mreg = b.constant(m as u64);
            let q0 = b.push(Op::MulSH(mreg, n));
            let shifted = if sh_post > 0 {
                b.push(Op::Sra(q0, sh_post))
            } else {
                q0
            };
            let sign = b.push(Op::Xsign(n));
            b.push(Op::Sub(shifted, sign))
        }
        SdivStrategy::MulAddShift {
            m_minus_pow2n,
            sh_post,
        } => {
            // m >= 2^(N-1): q0 = n + MULSH(m - 2^N, n)  (m - 2^N < 0)
            let mreg = b.constant(m_minus_pow2n as u64);
            let hi = b.push(Op::MulSH(mreg, n));
            let q0 = b.push(Op::Add(n, hi));
            let shifted = if sh_post > 0 {
                b.push(Op::Sra(q0, sh_post))
            } else {
                q0
            };
            let sign = b.push(Op::Xsign(n));
            b.push(Op::Sub(shifted, sign))
        }
    };
    if plan.negate() {
        b.push(Op::Neg(q))
    } else {
        q
    }
}

/// Lowers a Figure 6.1 floor-division plan: `q = ⌊n / d⌋` (signed).
pub fn lower_floor_div(b: &mut Builder, n: Reg, plan: &FloorPlan) -> Reg {
    check_width(b, plan.width());
    match plan.strategy() {
        FloorStrategy::Identity => n,
        FloorStrategy::Shift { l } => b.push(Op::Sra(n, l)),
        FloorStrategy::MulShift { m, sh_post } => {
            // Fig 6.1: nsign = XSIGN(n); q0 = MULUH(m, EOR(nsign, n));
            // q = EOR(nsign, SRL(q0, sh_post)).
            let nsign = b.push(Op::Xsign(n));
            let folded = b.push(Op::Eor(nsign, n));
            let mreg = b.constant(m as u64);
            let q0 = b.push(Op::MulUH(mreg, folded));
            let shifted = if sh_post > 0 {
                b.push(Op::Srl(q0, sh_post))
            } else {
                q0
            };
            b.push(Op::Eor(nsign, shifted))
        }
        FloorStrategy::NegativeTrunc { trunc } => {
            // trunc quotient, then branch-free correction:
            // q_floor = q_trunc - (r > 0)   [for d < 0, a nonzero
            // remainder has the dividend's sign].
            let qt = lower_sdiv(b, n, &trunc);
            let dreg = b.constant(plan.divisor() as u64);
            let prod = b.push(Op::MulL(qt, dreg));
            let r = b.push(Op::Sub(n, prod));
            let zero = b.constant(0);
            let rpos = b.push(Op::SltS(zero, r));
            b.push(Op::Sub(qt, rpos))
        }
    }
}

/// Lowers a §9 exact-division plan (`n` known divisible by `d`): one
/// `MULL` and one shift, plus a negation for signed `d < 0`.
pub fn lower_exact_div(b: &mut Builder, n: Reg, plan: &ExactPlan) -> Reg {
    check_width(b, plan.width());
    let q0 = if plan.is_pow2() {
        n
    } else {
        let inv = b.constant(plan.inverse() as u64);
        b.push(Op::MulL(inv, n))
    };
    let e = plan.pre_shift();
    let q1 = if e == 0 {
        q0
    } else if plan.is_signed() {
        b.push(Op::Sra(q0, e))
    } else {
        b.push(Op::Srl(q0, e))
    };
    if plan.negate() {
        b.push(Op::Neg(q1))
    } else {
        q1
    }
}

/// Lowers a Figure 8.1 doubleword-division plan: `(q, r)` of the `2N`-bit
/// dividend `hi:lo` divided by the plan's invariant word divisor.
///
/// The `2N`-bit intermediate values of Fig 8.1 (`t = m'·(n2 - n1) + nadj`
/// and `dr = n - (q1 + 1)·d`) are decomposed over word limbs using
/// [`Op::Carry`] to propagate between halves; shift counts that would
/// equal `N` (the paper's note about shift counts of `N` when `l = N`)
/// are specialized away at lowering time, since the plan's `l` is a
/// compile-time constant.
///
/// The caller must ensure `hi < d` (the Fig 8.1 quotient-fits-one-word
/// precondition); the lowered code has no trap and silently wraps
/// otherwise, exactly like hardware `divlu`-style instructions without
/// their overflow check.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::DwordPlan;
/// use magicdiv_ir::{lower_dword_div, optimize, Builder};
///
/// let plan = DwordPlan::new(10, 32).unwrap();
/// let mut b = Builder::new(32, 2);
/// let (hi, lo) = (b.arg(0), b.arg(1));
/// let (q, r) = lower_dword_div(&mut b, hi, lo, &plan);
/// let prog = optimize(&b.finish([q, r]));
/// // (7 * 2^32 + 6) / 10:
/// let n = (7u64 << 32) + 6;
/// assert_eq!(prog.eval(&[7, 6]).unwrap(), vec![n / 10, n % 10]);
/// ```
pub fn lower_dword_div(b: &mut Builder, hi: Reg, lo: Reg, plan: &DwordPlan) -> (Reg, Reg) {
    check_width(b, plan.width());
    let width = b.width();
    let l = plan.l();
    let d = b.constant(plan.divisor() as u64);
    // n2 = SLL(hi, N-l) + SRL(lo, l): the top N bits of the normalized
    // dividend. When l == N both shifts degenerate (SLL by 0, SRL by N)
    // and n2 is just hi.
    let n2 = if l == width {
        hi
    } else {
        let hi_part = b.push(Op::Sll(hi, width - l));
        let lo_part = b.push(Op::Srl(lo, l));
        b.push(Op::Add(hi_part, lo_part))
    };
    // n10 = SLL(lo, N-l); its sign bit is the n1 digit of Fig 8.1.
    let n10 = if l == width {
        lo
    } else {
        b.push(Op::Sll(lo, width - l))
    };
    let n1_mask = b.push(Op::Xsign(n10));
    // nadj = n10 + AND(n1, d_norm - 2^N); the -2^N vanishes mod 2^N.
    let d_norm = b.constant(plan.d_norm() as u64);
    let adj = b.push(Op::And(n1_mask, d_norm));
    let nadj = b.push(Op::Add(n10, adj));
    // t = m' * (n2 - n1) + nadj, a 2N-bit value split over two words:
    // only HIGH(t) is needed, so the low half contributes just its carry.
    let m_prime = b.constant(plan.m_prime() as u64);
    let x = b.push(Op::Sub(n2, n1_mask)); // n2 - n1_mask = n2 + n1
    let t_lo = b.push(Op::MulL(m_prime, x));
    let t_hi = b.push(Op::MulUH(m_prime, x));
    let t_carry = b.push(Op::Carry(t_lo, nadj));
    let t_top = b.push(Op::Add(t_hi, t_carry));
    // q1 = n2 + HIGH(t).
    let q1 = b.push(Op::Add(n2, t_top));
    // dr = n - 2^N*d + (2^N - 1 - q1)*d = n - (q1 + 1)*d, computed over
    // limbs: LOW(dr) = lo + LOW(~q1 * d); HIGH(dr) = hi - d + HIGH(~q1 *
    // d) + carry.
    let not_q1 = b.push(Op::Not(q1));
    let p_lo = b.push(Op::MulL(not_q1, d));
    let p_hi = b.push(Op::MulUH(not_q1, d));
    let dr_lo = b.push(Op::Add(lo, p_lo));
    let dr_carry = b.push(Op::Carry(lo, p_lo));
    let hi_minus_d = b.push(Op::Sub(hi, d));
    let dr_hi_partial = b.push(Op::Add(hi_minus_d, p_hi));
    let dr_hi = b.push(Op::Add(dr_hi_partial, dr_carry));
    // HIGH(dr) is all-ones when dr < 0 (|dr| < d < 2^N), else zero:
    // q = q1 + 1 + HIGH(dr) = HIGH(dr) - ~q1; r = LOW(dr) + AND(d, HIGH(dr)).
    let q = b.push(Op::Sub(dr_hi, not_q1));
    let r_fix = b.push(Op::And(d, dr_hi));
    let r = b.push(Op::Add(dr_lo, r_fix));
    (q, r)
}

/// Lowers a remainder plan: `r = n mod d`.
///
/// The mask and multiply-back arms reuse the quotient lowering; the
/// Lemire–Kaser–Kurz fraction arm forms the low `2N` bits of `n·c` over
/// two limbs and scales them by `d`, propagating between halves with
/// [`Op::Carry`] exactly as the Fig 8.1 doubleword lowering does. Its
/// three leading multiplies are mutually independent, so they overlap
/// on pipelined multipliers.
pub fn lower_urem(b: &mut Builder, n: Reg, plan: &UremPlan) -> Reg {
    check_width(b, plan.width());
    match plan.strategy() {
        UremStrategy::Mask { low_mask } => {
            let m = b.constant(low_mask as u64);
            b.push(Op::And(n, m))
        }
        UremStrategy::Fraction { c_hi, c_lo } => {
            // frac = (n * c) mod 2^2N, two N-bit limbs.
            let c_lo_reg = b.constant(c_lo as u64);
            let c_hi_reg = b.constant(c_hi as u64);
            let d = b.constant(plan.divisor() as u64);
            let frac_lo = b.push(Op::MulL(c_lo_reg, n));
            let t_hi = b.push(Op::MulUH(c_lo_reg, n));
            let t2 = b.push(Op::MulL(c_hi_reg, n));
            let frac_hi = b.push(Op::Add(t_hi, t2));
            // r = ⌊frac * d / 2^2N⌋ = HIGH(frac_hi * d) plus the carry
            // out of LOW(frac_hi * d) + HIGH(frac_lo * d).
            let borrow = b.push(Op::MulUH(frac_lo, d));
            let p_lo = b.push(Op::MulL(frac_hi, d));
            let p_hi = b.push(Op::MulUH(frac_hi, d));
            let carry = b.push(Op::Carry(p_lo, borrow));
            b.push(Op::Add(p_hi, carry))
        }
        UremStrategy::MulBack { udiv } => {
            let q = lower_udiv(
                b,
                n,
                &UdivPlan::from_raw(plan.divisor(), plan.width(), udiv),
            );
            let d = b.constant(plan.divisor() as u64);
            let prod = b.push(Op::MulL(q, d));
            b.push(Op::Sub(n, prod))
        }
    }
}

/// Lowers a divisibility-test plan: the result register holds 1 when
/// `d | n`, else 0, with no remainder computed (§9 rotate test / LKK §3).
pub fn lower_divisibility(b: &mut Builder, n: Reg, plan: &DivisibilityPlan) -> Reg {
    check_width(b, plan.width());
    let width = b.width();
    match plan.strategy() {
        DivisibilityStrategy::Mask { low_mask } => {
            // Power of two: test the low bits.
            let m = b.constant(low_mask as u64);
            let low = b.push(Op::And(n, m));
            let zero = b.constant(0);
            // low == 0  <=>  !(0 < low)
            let ne = b.push(Op::SltU(zero, low));
            let one = b.constant(1);
            b.push(Op::Sub(one, ne))
        }
        DivisibilityStrategy::InverseRotate { e, dinv, qmax } => {
            let inv = b.constant(dinv as u64);
            let q0 = b.push(Op::MulL(inv, n));
            // Rotate right by e: OR(SRL(q0, e), SLL(q0, N - e)).
            let rotated = if e == 0 {
                q0
            } else {
                let lo = b.push(Op::Srl(q0, e));
                let hi = b.push(Op::Sll(q0, width - e));
                b.push(Op::Or(lo, hi))
            };
            let qmax = b.constant(qmax as u64);
            // divisible <=> rotated <= qmax <=> !(qmax < rotated)
            let gt = b.push(Op::SltU(qmax, rotated));
            let one = b.constant(1);
            b.push(Op::Sub(one, gt))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::mask;
    use crate::opt::optimize;

    /// The optimized program for `plan`, through [`lower_plan`].
    fn prog(plan: impl Into<DivPlan>) -> Program {
        optimize(&lower_plan(&plan.into()).unwrap())
    }

    #[test]
    fn lowered_udiv_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = prog(UdivPlan::new(d as u128, 8).unwrap());
            for n in 0u64..=255 {
                assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn lowered_sdiv_spot_checks() {
        for d in [-10i64, -3, -1, 1, 3, 7, 10, 16] {
            let prog = prog(SdivPlan::new(d as i128, 32).unwrap());
            let m = mask(32);
            for n in [0i64, 1, -1, 12345, -12345, i32::MAX as i64, i32::MIN as i64] {
                let expect = (n as i32).wrapping_div(d as i32) as u64 & m;
                assert_eq!(prog.eval1(&[n as u64 & m]).unwrap(), expect, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn lowered_exact_and_divisibility() {
        let exact = prog(ExactPlan::new_unsigned(12, 32).unwrap());
        assert_eq!(exact.eval1(&[144]).unwrap(), 12);

        let divtest = prog(DivisibilityPlan::new(12, 32).unwrap());
        assert_eq!(divtest.eval1(&[144]).unwrap(), 1);
        assert_eq!(divtest.eval1(&[145]).unwrap(), 0);
    }

    #[test]
    fn lowered_urem_exhaustive_width8_both_paths() {
        for d in 1u64..=255 {
            let mulback = prog(UremPlan::new(d as u128, 8).unwrap());
            let direct = prog(UremPlan::new_direct(d as u128, 8).unwrap());
            for n in 0u64..=255 {
                assert_eq!(mulback.eval1(&[n]).unwrap(), n % d, "mulback n={n} d={d}");
                assert_eq!(direct.eval1(&[n]).unwrap(), n % d, "direct n={n} d={d}");
            }
        }
    }

    #[test]
    fn lowered_urem_spot_checks_width32() {
        for d in [3u64, 7, 10, 641, 1_000_000_007, u32::MAX as u64] {
            let direct = prog(UremPlan::new_direct(d as u128, 32).unwrap());
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d + 1,
                u32::MAX as u64 - 1,
                u32::MAX as u64,
            ] {
                let n = n & 0xffff_ffff;
                assert_eq!(direct.eval1(&[n]).unwrap(), n % d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn lowered_divisibility_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = prog(DivisibilityPlan::new(d as u128, 8).unwrap());
            for n in 0u64..=255 {
                assert_eq!(
                    prog.eval1(&[n]).unwrap(),
                    u64::from(n % d == 0),
                    "n={n} d={d}"
                );
            }
        }
    }

    fn dword_prog(d: u64, width: u32) -> Program {
        prog(DwordPlan::new(d as u128, width).unwrap())
    }

    #[test]
    fn lowered_dword_exhaustive_width8() {
        // Every divisor (including 2^8 - 1, where l == N and the shifts
        // degenerate), dividends sampled densely over the valid range
        // hi < d.
        for d in 1u64..=255 {
            let prog = dword_prog(d, 8);
            for n in (0u64..(d << 8)).step_by(5) {
                let (hi, lo) = (n >> 8, n & 0xff);
                assert_eq!(
                    prog.eval(&[hi, lo]).unwrap(),
                    vec![n / d, n % d],
                    "n={n} d={d}"
                );
            }
            // The largest valid dividend: d * 2^8 - 1.
            let top = (d << 8) - 1;
            assert_eq!(
                prog.eval(&[top >> 8, top & 0xff]).unwrap(),
                vec![top / d, top % d],
                "d={d}"
            );
        }
    }

    #[test]
    fn lowered_dword_spot_checks_width32() {
        for d in [1u64, 3, 10, 641, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff] {
            let prog = dword_prog(d, 32);
            for n in [0u64, 1, 9, 10, u32::MAX as u64, 1 << 40, (d << 32) - 1] {
                if n >> 32 >= d {
                    continue;
                }
                assert_eq!(
                    prog.eval(&[n >> 32, n & 0xffff_ffff]).unwrap(),
                    vec![n / d, n % d],
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn lower_plan_rejects_every_kind_above_the_ir_limit() {
        let plans: [DivPlan; 8] = [
            UdivPlan::new(10, 128).unwrap().into(),
            SdivPlan::new(-10, 128).unwrap().into(),
            FloorPlan::new(-10, 128).unwrap().into(),
            ExactPlan::new_unsigned(10, 128).unwrap().into(),
            DwordPlan::new(10, 128).unwrap().into(),
            UremPlan::new(10, 128).unwrap().into(),
            UremPlan::new_direct(10, 128).unwrap().into(),
            DivisibilityPlan::new(10, 128).unwrap().into(),
        ];
        for plan in plans {
            assert_eq!(
                lower_plan(&plan),
                Err(FaultKind::UnsupportedWidth { width: 128 }),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn lower_plan_picks_the_arity() {
        let dword = prog(DwordPlan::new(10, 32).unwrap());
        assert_eq!((dword.arg_count(), dword.results().len()), (2, 2));
        let udiv = prog(UdivPlan::new(10, 32).unwrap());
        assert_eq!((udiv.arg_count(), udiv.results().len()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "plan width")]
    fn width_mismatch_panics() {
        let plan = UdivPlan::new(10, 32).unwrap();
        let mut b = Builder::new(16, 1);
        let n = b.arg(0);
        let _ = lower_udiv(&mut b, n, &plan);
    }
}
