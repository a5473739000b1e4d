//! Division-by-constant code generation: the paper's Figures 4.1/4.2,
//! 5.1/5.2, 6.1 and the §9 exact/divisibility sequences, emitted as IR
//! programs.
//!
//! Every generator takes the divisor and the word width and returns a
//! straight-line [`Program`] whose single argument is the dividend. The
//! hardware-division baselines (`*_hw`) emit one `div`/`rem` instruction —
//! exactly what a compiler without the optimization produces — so the
//! simulator can price both.
//!
//! All generated programs are verified against the interpreter and native
//! division in this module's tests (exhaustively at width 8).
//!
//! Strategy selection lives in `magicdiv::plan` — the generators here only
//! construct a plan and hand it to [`magicdiv_ir::lower_plan`], so codegen
//! can never pick a different code shape than the runtime divisors built
//! from the same plan. To lower an already-selected plan (a tournament
//! winner, say), call `lower_plan` and `optimize` directly.

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
    UremStrategy,
};
use magicdiv::UWord;
use magicdiv_ir::{
    lower_plan, lower_sdiv, lower_udiv, mask, optimize, sign_extend, Builder, Op, Program, Reg,
};

/// The optimized program for `plan`.
///
/// # Panics
///
/// Panics when the plan's width exceeds 64 (the IR limit).
fn gen_plan(plan: impl Into<DivPlan>) -> Program {
    optimize(&lower_plan(&plan.into()).expect("plan width must be at most 64 (IR limit)"))
}

/// The Figure 4.2 plan for `d` masked to `width` bits.
fn udiv_plan(d: u64, width: u32) -> UdivPlan {
    UdivPlan::new((d & mask(width)) as u128, width).expect("division by zero")
}

/// The Figure 5.2 plan for `d` read as a signed `width`-bit value.
fn sdiv_plan(d: i64, width: u32) -> SdivPlan {
    let d = sign_extend(d as u64 & mask(width), width);
    SdivPlan::new(d as i128, width).expect("division by zero")
}

/// Emits Figure 4.2 — optimized unsigned `q = ⌊n/d⌋` for constant `d != 0`.
///
/// # Panics
///
/// Panics when `d == 0` after masking to `width`, or `width` is not in
/// `1..=64`.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::gen_unsigned_div;
///
/// let prog = gen_unsigned_div(10, 32);
/// assert_eq!(prog.eval1(&[1234]).unwrap(), 123);
/// assert!(!prog.op_counts().uses_divide());
/// ```
pub fn gen_unsigned_div(d: u64, width: u32) -> Program {
    gen_plan(udiv_plan(d, width))
}

/// Emits the Figure 4.2 logic into an existing builder, returning the
/// quotient register. Exposed so kernels (e.g. radix conversion) can embed
/// divisions into larger programs.
///
/// # Panics
///
/// Panics when `d` masks to zero at the builder's width.
pub fn emit_unsigned_div(b: &mut Builder, n: Reg, d: u64) -> Reg {
    let plan = udiv_plan(d, b.width());
    lower_udiv(b, n, &plan)
}

/// Emits Figure 4.1 — the single branch-free shape for any unsigned
/// divisor (the run-time-invariant form).
///
/// # Panics
///
/// Panics when `d` masks to zero, or `width` is not one of 8/16/32/64
/// (the invariant form mirrors real machine word sizes).
pub fn gen_unsigned_div_invariant(d: u64, width: u32) -> Program {
    fn consts<T: UWord>(d: u64) -> (u64, u32, u32) {
        let dt = T::from_u128_truncate(d as u128);
        let inv = magicdiv::InvariantUnsignedDivisor::new(dt).expect("nonzero");
        let (m, sh1, sh2) = inv.constants();
        (m.to_u128() as u64, sh1, sh2)
    }
    let d = d & mask(width);
    assert!(d != 0, "division by zero");
    assert!(
        matches!(width, 8 | 16 | 32 | 64),
        "invariant form requires a machine width (8/16/32/64)"
    );
    let (m_prime, sh1, sh2) = match width {
        8 => consts::<u8>(d),
        16 => consts::<u16>(d),
        32 => consts::<u32>(d),
        _ => consts::<u64>(d),
    };
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let mreg = b.constant(m_prime);
    let t1 = b.push(Op::MulUH(mreg, n));
    let diff = b.push(Op::Sub(n, t1));
    let s1 = if sh1 > 0 {
        b.push(Op::Srl(diff, sh1))
    } else {
        diff
    };
    let sum = b.push(Op::Add(t1, s1));
    let q = if sh2 > 0 {
        b.push(Op::Srl(sum, sh2))
    } else {
        sum
    };
    // Deliberately *not* optimized: this is the fixed code shape a
    // compiler emits when the divisor is unknown until run time.
    b.finish([q])
}

/// Emits Figure 5.1 — the single branch-free shape for any signed
/// divisor (the run-time-invariant form): 1 multiply, 3 adds, 2 shifts,
/// 1 bit-op per quotient.
///
/// # Panics
///
/// Panics when `d` sign-extends to zero, or `width` is not one of
/// 8/16/32/64.
pub fn gen_signed_div_invariant(d: i64, width: u32) -> Program {
    fn consts<T: UWord>(d: i64) -> (u64, u32)
    where
        T::Signed: magicdiv::SWord<Unsigned = T>,
    {
        let ds = <T::Signed as magicdiv::SWord>::from_i128_truncate(d as i128);
        let inv = magicdiv::InvariantSignedDivisor::new(ds).expect("nonzero");
        let (m_prime, sh_post) = inv.constants();
        (
            <T::Signed as magicdiv::SWord>::as_unsigned(m_prime).to_u128() as u64,
            sh_post,
        )
    }
    let d_se = sign_extend(d as u64 & mask(width), width);
    assert!(d_se != 0, "division by zero");
    assert!(
        matches!(width, 8 | 16 | 32 | 64),
        "invariant form requires a machine width (8/16/32/64)"
    );
    let (m_prime, sh_post) = match width {
        8 => consts::<u8>(d_se),
        16 => consts::<u16>(d_se),
        32 => consts::<u32>(d_se),
        _ => consts::<u64>(d_se),
    };
    let d_sign = if d_se < 0 { mask(width) } else { 0 };
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let mreg = b.constant(m_prime);
    // q0 = n + MULSH(m', n); q0 = SRA(q0, sh_post) - XSIGN(n);
    // q = EOR(q0, dsign) - dsign.
    let hi = b.push(Op::MulSH(mreg, n));
    let q0 = b.push(Op::Add(n, hi));
    let q0 = if sh_post > 0 {
        b.push(Op::Sra(q0, sh_post))
    } else {
        q0
    };
    let nsign = b.push(Op::Xsign(n));
    let q0 = b.push(Op::Sub(q0, nsign));
    let dsign_reg = b.constant(d_sign);
    let flipped = b.push(Op::Eor(q0, dsign_reg));
    let q = b.push(Op::Sub(flipped, dsign_reg));
    // Deliberately *not* optimized: the fixed run-time-invariant shape.
    b.finish([q])
}

/// Emits Figure 5.2 — optimized signed `q = TRUNC(n/d)` for constant
/// `d != 0` (`d` is the sign-extended low `width` bits of the argument).
///
/// # Panics
///
/// Panics when `d` masks to zero, or `width` is not in `2..=64`.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::gen_signed_div;
/// use magicdiv_ir::mask;
///
/// let prog = gen_signed_div(-7, 32);
/// let q = prog.eval1(&[100]).unwrap();
/// assert_eq!(q, (-14i64 as u64) & mask(32));
/// ```
pub fn gen_signed_div(d: i64, width: u32) -> Program {
    gen_plan(sdiv_plan(d, width))
}

/// Emits the Figure 5.2 logic into an existing builder.
///
/// # Panics
///
/// Panics when `d` sign-extends to zero at the builder's width.
pub fn emit_signed_div(b: &mut Builder, n: Reg, d: i64) -> Reg {
    let plan = sdiv_plan(d, b.width());
    lower_sdiv(b, n, &plan)
}

/// Emits Figure 6.1 — signed floor division `q = ⌊n/d⌋` for constant
/// `d != 0`. For `d < 0` the trunc sequence plus a branch-free floor
/// correction is emitted (Figure 6.1 itself covers `d > 0`).
///
/// # Panics
///
/// Panics when `d` masks to zero.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::gen_floor_div;
/// use magicdiv_ir::mask;
///
/// let prog = gen_floor_div(10, 32);
/// assert_eq!(prog.eval1(&[(-1i64) as u64 & mask(32)]).unwrap(), (-1i64 as u64) & mask(32));
/// ```
pub fn gen_floor_div(d: i64, width: u32) -> Program {
    let d_se = sign_extend(d as u64 & mask(width), width);
    gen_plan(FloorPlan::new(d_se as i128, width).expect("division by zero"))
}

/// Emits the remainder via multiply-back: `r = n - d * div(n)` (§1's "one
/// additional multiplication and subtraction").
pub fn gen_unsigned_rem(d: u64, width: u32) -> Program {
    let udiv = udiv_plan(d, width);
    gen_plan(UremPlan::from_raw(
        udiv.divisor(),
        width,
        UremStrategy::MulBack {
            udiv: udiv.strategy(),
        },
    ))
}

/// Emits the direct remainder `r = n mod d` with no quotient formed:
/// the LKK fraction path (or a single mask for powers of two). Compare
/// with [`gen_unsigned_rem`], the §1 multiply-back baseline.
///
/// # Panics
///
/// Panics when `d` masks to zero at `width`, or `width` is not in
/// `1..=64`.
pub fn gen_urem_direct(d: u64, width: u32) -> Program {
    gen_plan(UremPlan::new_direct((d & mask(width)) as u128, width).expect("division by zero"))
}

/// Emits both quotient and remainder as a two-result program (the shape
/// GCC's CSE produces for `x / 10; x % 10`, as in Figure 11.1).
pub fn gen_unsigned_divrem(d: u64, width: u32) -> Program {
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let q = emit_unsigned_div(&mut b, n, d);
    let dreg = b.constant(d);
    let prod = b.push(Op::MulL(q, dreg));
    let r = b.push(Op::Sub(n, prod));
    optimize(&b.finish([q, r]))
}

/// Emits §9 exact division (`n` known divisible by `d`): one `MULL` and
/// one shift. With `signed`, `d` is the sign-extended low `width` bits
/// of the argument and the quotient is signed; otherwise `d` is the
/// unsigned low `width` bits.
///
/// # Panics
///
/// Panics when `d` masks to zero.
pub fn gen_exact_div(d: i64, width: u32, signed: bool) -> Program {
    let bits = d as u64 & mask(width);
    let plan = if signed {
        ExactPlan::new_signed(sign_extend(bits, width) as i128, width)
    } else {
        ExactPlan::new_unsigned(bits as u128, width)
    };
    gen_plan(plan.expect("division by zero"))
}

/// Emits the §9 divisibility test (`d | n`, unsigned): returns 1 or 0
/// without computing a remainder.
///
/// # Panics
///
/// Panics when `d` masks to zero.
pub fn gen_divisibility_test(d: u64, width: u32) -> Program {
    gen_plan(DivisibilityPlan::new((d & mask(width)) as u128, width).expect("division by zero"))
}

/// Emits Figure 8.1 — doubleword ÷ word division for constant `d != 0`:
/// a two-argument (`hi`, `lo`) and two-result (`q`, `r`) program built
/// from the same [`DwordPlan`] the runtime [`magicdiv::DwordDivisor`]
/// uses. The caller must guarantee `hi < d` (the quotient fits a word);
/// the emitted straight-line code does not trap on overflow.
///
/// # Panics
///
/// Panics when `d` masks to zero at `width`, or `width` is not in
/// `1..=64`.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::gen_dword_div;
///
/// let prog = gen_dword_div(10, 32);
/// // n = 7 * 2^32 + 6
/// let n = (7u64 << 32) + 6;
/// assert_eq!(prog.eval(&[7, 6]).unwrap(), vec![n / 10, n % 10]);
/// ```
pub fn gen_dword_div(d: u64, width: u32) -> Program {
    gen_plan(DwordPlan::new((d & mask(width)) as u128, width).expect("division by zero"))
}

/// Baseline: one hardware unsigned division instruction.
pub fn gen_unsigned_div_hw(width: u32) -> Program {
    let mut b = Builder::new(width, 2);
    let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
    b.finish([q])
}

/// Baseline: one hardware signed division instruction.
pub fn gen_signed_div_hw(width: u32) -> Program {
    let mut b = Builder::new(width, 2);
    let q = b.push(Op::DivS(b.arg(0), b.arg(1)));
    b.finish([q])
}

/// Baseline: hardware quotient and remainder (two instructions).
pub fn gen_unsigned_divrem_hw(width: u32) -> Program {
    let mut b = Builder::new(width, 2);
    let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
    let r = b.push(Op::RemU(b.arg(0), b.arg(1)));
    b.finish([q, r])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = gen_unsigned_div(d, 8);
            let inv = gen_unsigned_div_invariant(d, 8);
            assert!(!prog.op_counts().uses_divide());
            for n in 0u64..=255 {
                assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "n={n} d={d}");
                assert_eq!(inv.eval1(&[n]).unwrap(), n / d, "inv n={n} d={d}");
            }
        }
    }

    #[test]
    fn signed_exhaustive_width8() {
        for d in -128i64..=127 {
            if d == 0 {
                continue;
            }
            let prog = gen_signed_div(d, 8);
            assert!(!prog.op_counts().uses_divide());
            for n in -128i64..=127 {
                let expect = (n as i8).wrapping_div(d as i8) as i64 as u64 & 0xff;
                let got = prog.eval1(&[(n as u64) & 0xff]).unwrap();
                assert_eq!(got, expect, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn floor_exhaustive_width8() {
        for d in -128i64..=127 {
            if d == 0 {
                continue;
            }
            let prog = gen_floor_div(d, 8);
            for n in -128i64..=127 {
                if n == -128 && d == -1 {
                    continue; // overflow wraps; skip oracle comparison
                }
                let expect = n.div_euclid(d) - i64::from(d < 0 && n.rem_euclid(d) != 0);
                let got = prog.eval1(&[(n as u64) & 0xff]).unwrap();
                assert_eq!(got, (expect as u64) & 0xff, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn signed_invariant_exhaustive_width8() {
        for d in -128i64..=127 {
            if d == 0 {
                continue;
            }
            let prog = gen_signed_div_invariant(d, 8);
            // The Fig 5.1 cost claim: 1 multiply, 3 adds, 2 shifts, 1 bit-op
            // (our count folds XSIGN into the shift class, and sh_post may
            // vanish for |d| <= 2).
            let c = prog.op_counts();
            assert_eq!(c.mul_high, 1, "d={d}");
            assert!(c.add_sub == 3 && c.bit_op == 1, "d={d}: {c}");
            for n in -128i64..=127 {
                let expect = (n as i8).wrapping_div(d as i8) as u8 as u64;
                assert_eq!(
                    prog.eval1(&[(n as u64) & 0xff]).unwrap(),
                    expect,
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn remainders_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = gen_unsigned_rem(d, 8);
            let direct = gen_urem_direct(d, 8);
            assert!(!direct.op_counts().uses_divide());
            for n in (0u64..=255).step_by(3) {
                assert_eq!(prog.eval1(&[n]).unwrap(), n % d, "n={n} d={d}");
                assert_eq!(direct.eval1(&[n]).unwrap(), n % d, "direct n={n} d={d}");
            }
        }
    }

    #[test]
    fn dword_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = gen_dword_div(d, 8);
            assert!(!prog.op_counts().uses_divide());
            for n in (0u64..(d << 8)).step_by(7) {
                assert_eq!(
                    prog.eval(&[n >> 8, n & 0xff]).unwrap(),
                    vec![n / d, n % d],
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn dword_emits_on_every_target() {
        use crate::targets::{emit_assembly, Target};
        for &t in &Target::ALL {
            for d in [3u64, 10, 641, 0xffff_ffff] {
                let prog = gen_dword_div(d, 32);
                let asm = emit_assembly(&prog, t, "dwdiv");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                assert!(asm.instruction_count() >= 5, "{t} d={d}");
            }
        }
    }

    #[test]
    fn divrem_two_results() {
        let prog = gen_unsigned_divrem(10, 32);
        assert_eq!(prog.eval(&[1234]).unwrap(), vec![123, 4]);
        // Shares the quotient computation: exactly one MULUH.
        assert_eq!(prog.op_counts().mul_high, 1);
    }

    #[test]
    fn exact_div_exhaustive_width8() {
        for d in 1u64..=255 {
            let unsigned = gen_exact_div(d as i64, 8, false);
            for q in 0u64..=(255 / d) {
                let n = q * d;
                assert_eq!(unsigned.eval1(&[n]).unwrap(), q, "n={n} d={d}");
            }
        }
        for d in 1i64..=127 {
            let signed = gen_exact_div(d, 8, true);
            for q in -(128 / d)..=(127 / d) {
                let n = (q * d) as u64 & 0xff;
                assert_eq!(
                    signed.eval1(&[n]).unwrap(),
                    (q as u64) & 0xff,
                    "q={q} d={d}"
                );
            }
        }
        // Negative divisors.
        let signed = gen_exact_div(-12, 8, true);
        assert_eq!(
            signed.eval1(&[(24u64) & 0xff]).unwrap(),
            (-2i64 as u64) & 0xff
        );
    }

    #[test]
    fn divisibility_exhaustive_width8() {
        for d in 1u64..=255 {
            let prog = gen_divisibility_test(d, 8);
            assert!(!prog.op_counts().uses_divide());
            for n in 0u64..=255 {
                assert_eq!(
                    prog.eval1(&[n]).unwrap(),
                    u64::from(n % d == 0),
                    "n={n} d={d}"
                );
            }
        }
    }

    #[test]
    fn urem_direct_emits_on_every_target() {
        use crate::targets::{emit_assembly, Target};
        for &t in &Target::ALL {
            for d in [3u64, 10, 641, 0xffff_ffff] {
                let asm = emit_assembly(&gen_urem_direct(d, 32), t, "urem");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                let asm = emit_assembly(&gen_divisibility_test(d, 32), t, "divtest");
                assert!(!asm.uses_divide(), "{t} divtest d={d}:\n{asm}");
            }
        }
    }

    #[test]
    fn urem_spot_checks_wider() {
        for width in [16u32, 32, 64] {
            let m = mask(width);
            for d in [3u64, 7, 10, 641, 60000] {
                let direct = gen_urem_direct(d, width);
                let mulback = gen_unsigned_rem(d, width);
                for n in [0u64, 1, d - 1, d, d + 1, m / 2, m - 1, m] {
                    let n = n & m;
                    assert_eq!(direct.eval1(&[n]).unwrap(), n % d, "w={width} n={n} d={d}");
                    assert_eq!(
                        mulback.eval1(&[n]).unwrap(),
                        n % d,
                        "mulback w={width} n={n} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn spot_checks_width_16_32_64() {
        for width in [16u32, 32, 64] {
            let m = mask(width);
            for d in [3u64, 7, 10, 14, 641, 60000] {
                let prog = gen_unsigned_div(d, width);
                for n in [0u64, 1, d - 1, d, d + 1, m / 2, m - 1, m] {
                    assert_eq!(
                        prog.eval1(&[n]).unwrap(),
                        (n & m) / d,
                        "w={width} n={n} d={d}"
                    );
                }
            }
            for d in [-10i64, -3, 3, 10, 127] {
                let prog = gen_signed_div(d, width);
                let min = 1u64 << (width - 1);
                for n in [0u64, 1, m, min, min - 1, min + 1] {
                    let ns = magicdiv_ir::sign_extend(n & m, width);
                    let expect = ns.wrapping_div(d) as u64 & m;
                    assert_eq!(prog.eval1(&[n]).unwrap(), expect, "w={width} n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn odd_widths_work_too() {
        // The IR interprets any width; magic constants via the u128 path.
        for width in [9u32, 13, 24, 48, 57] {
            let m = mask(width);
            for d in [3u64, 7, 10, 100] {
                let prog = gen_unsigned_div(d, width);
                for n in [0u64, 1, d, m / 3, m - 1, m] {
                    assert_eq!(
                        prog.eval1(&[n]).unwrap(),
                        (n & m) / d,
                        "w={width} n={n} d={d}"
                    );
                }
                let sprog = gen_signed_div(d as i64, width);
                for n in [0u64, 1, m, 1u64 << (width - 1)] {
                    let ns = magicdiv_ir::sign_extend(n & m, width);
                    let expect = ns.wrapping_div(d as i64) as u64 & m;
                    assert_eq!(sprog.eval1(&[n]).unwrap(), expect, "w={width} n={n} d={d}");
                }
            }
        }
    }

    #[test]
    fn paper_op_counts_hold() {
        // d = 10 at 32 bits: one multiply + one shift (Table 11.1 kernel).
        let c = gen_unsigned_div(10, 32).op_counts();
        assert_eq!((c.mul_high, c.shift, c.add_sub), (1, 1, 0));
        // d = 7: the long sequence — 1 multiply, 2 add/sub, 2 shifts.
        let c = gen_unsigned_div(7, 32).op_counts();
        assert_eq!((c.mul_high, c.add_sub, c.shift), (1, 2, 2));
        // d = 3 signed: mulsh + sub of xsign = 1 multiply, 1 shift-class
        // (xsign), 1 sub — the paper's "one multiply, one shift, one
        // subtract".
        let c = gen_signed_div(3, 32).op_counts();
        assert_eq!((c.mul_high, c.shift, c.add_sub), (1, 1, 1));
        // Baselines use the divider.
        assert!(gen_unsigned_div_hw(32).op_counts().uses_divide());
    }

    #[test]
    fn hw_baselines_match_native() {
        let prog = gen_unsigned_div_hw(32);
        assert_eq!(prog.eval(&[1234, 10]).unwrap(), vec![123]);
        let prog = gen_signed_div_hw(32);
        let m = mask(32);
        assert_eq!(
            prog.eval(&[(-1234i64 as u64) & m, 10]).unwrap(),
            vec![(-123i64 as u64) & m]
        );
        let dr = gen_unsigned_divrem_hw(32);
        assert_eq!(dr.eval(&[1234, 10]).unwrap(), vec![123, 4]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_panics() {
        let _ = gen_unsigned_div(0, 32);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_divisor_after_masking_panics() {
        let _ = gen_unsigned_div(1 << 40, 32); // masks to 0 at width 32
    }
}
