//! Division code generation beyond one plan: the paper's run-time
//! invariant Figures 4.1 and 5.1, the quotient-and-remainder pair of
//! Figure 11.1, and the hardware-division baselines, emitted as IR
//! programs.
//!
//! The invariant generators take the divisor and the word width and
//! return a straight-line [`Program`] whose single argument is the
//! dividend. The hardware-division baselines (`*_hw`) emit one
//! `div`/`rem` instruction — exactly what a compiler without the
//! optimization produces — so the simulator can price both.
//!
//! All generated programs are verified against the interpreter and native
//! division in this module's tests (exhaustively at width 8).
//!
//! Strategy selection lives in `magicdiv::plan`: the code for one
//! constant divisor is its plan compiled by [`magicdiv_ir::compile`]
//! (`compile(UdivPlan::new(10, 32)?)`), so codegen can never pick a
//! different code shape than the runtime divisors built from the same
//! plan.

use magicdiv::plan::UdivPlan;
use magicdiv::{DivisorError, FaultKind, UWord};
use magicdiv_ir::{lower_udiv, mask, optimize, sign_extend, Builder, Op, Program};

/// The run-time-invariant forms mirror real machine word sizes: they
/// exist at widths 8, 16, 32 and 64 only.
fn check_machine_width(width: u32) -> Result<(), DivisorError> {
    if matches!(width, 8 | 16 | 32 | 64) {
        Ok(())
    } else {
        Err(DivisorError::UnsupportedWidth { width })
    }
}

/// Emits Figure 4.1 — the single branch-free shape for any unsigned
/// divisor (the run-time-invariant form). `d` is read modulo `2^width`.
///
/// # Errors
///
/// [`DivisorError::UnsupportedWidth`] when `width` is not one of
/// 8/16/32/64, and [`DivisorError::Zero`] when `d` masks to zero at
/// `width` (`d = 0`, or `d = 2^32` at width 32).
///
/// # Examples
///
/// ```
/// use magicdiv::DivisorError;
/// use magicdiv_codegen::gen_unsigned_div_invariant;
///
/// let prog = gen_unsigned_div_invariant(7, 32)?;
/// assert_eq!(prog.eval1(&[100])?, 14);
/// assert_eq!(gen_unsigned_div_invariant(1 << 32, 32).err(), Some(DivisorError::Zero));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gen_unsigned_div_invariant(d: u64, width: u32) -> Result<Program, DivisorError> {
    fn consts<T: UWord>(d: u64) -> Result<(u64, u32, u32), DivisorError> {
        let dt = T::from_u128_truncate(d as u128);
        let (m, sh1, sh2) = magicdiv::InvariantUnsignedDivisor::new(dt)?.constants();
        Ok((m.to_u128() as u64, sh1, sh2))
    }
    check_machine_width(width)?;
    let (m_prime, sh1, sh2) = match width {
        8 => consts::<u8>(d)?,
        16 => consts::<u16>(d)?,
        32 => consts::<u32>(d)?,
        _ => consts::<u64>(d)?,
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
    Ok(b.finish([q]))
}

/// Emits Figure 5.1 — the single branch-free shape for any signed
/// divisor (the run-time-invariant form): 1 multiply, 3 adds, 2 shifts,
/// 1 bit-op per quotient. `d` is read as its low `width` bits,
/// sign-extended.
///
/// # Errors
///
/// [`DivisorError::UnsupportedWidth`] when `width` is not one of
/// 8/16/32/64, and [`DivisorError::Zero`] when `d`'s low `width` bits
/// are zero.
pub fn gen_signed_div_invariant(d: i64, width: u32) -> Result<Program, DivisorError> {
    fn consts<T: UWord>(d: i64) -> Result<(u64, u32), DivisorError>
    where
        T::Signed: magicdiv::SWord<Unsigned = T>,
    {
        let ds = <T::Signed as magicdiv::SWord>::from_i128_truncate(d as i128);
        let (m_prime, sh_post) = magicdiv::InvariantSignedDivisor::new(ds)?.constants();
        Ok((
            <T::Signed as magicdiv::SWord>::as_unsigned(m_prime).to_u128() as u64,
            sh_post,
        ))
    }
    check_machine_width(width)?;
    let d_se = sign_extend(d as u64 & mask(width), width);
    let (m_prime, sh_post) = match width {
        8 => consts::<u8>(d_se)?,
        16 => consts::<u16>(d_se)?,
        32 => consts::<u32>(d_se)?,
        _ => consts::<u64>(d_se)?,
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
    Ok(b.finish([q]))
}

/// Emits the quotient and remainder of `plan`'s division as a
/// two-result program (the shape GCC's CSE produces for `x / 10;
/// x % 10`, as in Figure 11.1): the remainder multiplies the quotient
/// back (§1).
///
/// # Errors
///
/// [`FaultKind::UnsupportedWidth`] when the plan's width exceeds 64 (the
/// IR limit).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::UdivPlan;
/// use magicdiv_codegen::gen_unsigned_divrem;
///
/// let prog = gen_unsigned_divrem(&UdivPlan::new(10, 32)?)?;
/// assert_eq!(prog.eval(&[1234])?, vec![123, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gen_unsigned_divrem(plan: &UdivPlan) -> Result<Program, FaultKind> {
    let width = plan.width();
    if width > 64 {
        return Err(FaultKind::UnsupportedWidth { width });
    }
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let q = lower_udiv(&mut b, n, plan);
    let dreg = b.constant(plan.divisor() as u64);
    let prod = b.push(Op::MulL(q, dreg));
    let r = b.push(Op::Sub(n, prod));
    Ok(optimize(&b.finish([q, r])))
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
    use magicdiv::plan::{DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UremPlan};
    use magicdiv_ir::compile;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn unsigned_exhaustive_width8() -> TestResult {
        for d in 1u64..=255 {
            let prog = compile(UdivPlan::new(d.into(), 8)?)?;
            let inv = gen_unsigned_div_invariant(d, 8)?;
            assert!(!prog.op_counts().uses_divide());
            for n in 0u64..=255 {
                assert_eq!(prog.eval1(&[n])?, n / d, "n={n} d={d}");
                assert_eq!(inv.eval1(&[n])?, n / d, "inv n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn signed_exhaustive_width8() -> TestResult {
        for d in (-128i64..=127).filter(|&d| d != 0) {
            let prog = compile(SdivPlan::new(d.into(), 8)?)?;
            assert!(!prog.op_counts().uses_divide());
            for n in -128i64..=127 {
                let expect = (n as i8).wrapping_div(d as i8) as i64 as u64 & 0xff;
                let got = prog.eval1(&[(n as u64) & 0xff])?;
                assert_eq!(got, expect, "n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn floor_exhaustive_width8() -> TestResult {
        for d in (-128i64..=127).filter(|&d| d != 0) {
            let prog = compile(FloorPlan::new(d.into(), 8)?)?;
            for n in -128i64..=127 {
                if n == -128 && d == -1 {
                    continue; // overflow wraps; skip oracle comparison
                }
                let expect = n.div_euclid(d) - i64::from(d < 0 && n.rem_euclid(d) != 0);
                let got = prog.eval1(&[(n as u64) & 0xff])?;
                assert_eq!(got, (expect as u64) & 0xff, "n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn signed_invariant_exhaustive_width8() -> TestResult {
        for d in -128i64..=127 {
            if d == 0 {
                continue;
            }
            let prog = gen_signed_div_invariant(d, 8)?;
            // The Fig 5.1 cost claim: 1 multiply, 3 adds, 2 shifts, 1 bit-op
            // (our count folds XSIGN into the shift class, and sh_post may
            // vanish for |d| <= 2).
            let c = prog.op_counts();
            assert_eq!(c.mul_high, 1, "d={d}");
            assert!(c.add_sub == 3 && c.bit_op == 1, "d={d}: {c}");
            for n in -128i64..=127 {
                let expect = (n as i8).wrapping_div(d as i8) as u8 as u64;
                assert_eq!(prog.eval1(&[(n as u64) & 0xff])?, expect, "n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn invariant_forms_reject_divisors_that_mask_to_zero() {
        for width in [8u32, 16, 32, 64] {
            let zero = Some(DivisorError::Zero);
            assert_eq!(
                gen_unsigned_div_invariant(0, width).err(),
                zero,
                "w={width}"
            );
            assert_eq!(gen_signed_div_invariant(0, width).err(), zero, "w={width}");
            if width < 64 {
                // Only the low `width` bits count.
                let wrap = 1u64 << width;
                assert_eq!(gen_unsigned_div_invariant(wrap, width).err(), zero);
                assert_eq!(gen_signed_div_invariant(wrap as i64, width).err(), zero);
                assert_eq!(gen_signed_div_invariant(-(wrap as i64), width).err(), zero);
            }
        }
    }

    #[test]
    fn invariant_forms_reject_widths_that_are_not_machine_words() {
        for width in [0u32, 1, 7, 24, 57, 63, 65, 128, u32::MAX] {
            let unsupported = Some(DivisorError::UnsupportedWidth { width });
            assert_eq!(gen_unsigned_div_invariant(10, width).err(), unsupported);
            assert_eq!(gen_signed_div_invariant(-10, width).err(), unsupported);
            // The width is checked before the divisor.
            assert_eq!(gen_unsigned_div_invariant(0, width).err(), unsupported);
        }
    }

    #[test]
    fn remainders_exhaustive_width8() -> TestResult {
        for d in 1u64..=255 {
            let prog = compile(UremPlan::new(d.into(), 8)?)?;
            let direct = compile(UremPlan::new_direct(d.into(), 8)?)?;
            assert!(!direct.op_counts().uses_divide());
            for n in (0u64..=255).step_by(3) {
                assert_eq!(prog.eval1(&[n])?, n % d, "n={n} d={d}");
                assert_eq!(direct.eval1(&[n])?, n % d, "direct n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn dword_exhaustive_width8() -> TestResult {
        for d in 1u64..=255 {
            let prog = compile(DwordPlan::new(d.into(), 8)?)?;
            assert!(!prog.op_counts().uses_divide());
            for n in (0u64..(d << 8)).step_by(7) {
                assert_eq!(
                    prog.eval(&[n >> 8, n & 0xff])?,
                    vec![n / d, n % d],
                    "n={n} d={d}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn dword_emits_on_every_target() -> TestResult {
        use crate::targets::{emit_assembly, Target};
        for &t in &Target::ALL {
            for d in [3u128, 10, 641, 0xffff_ffff] {
                let prog = compile(DwordPlan::new(d, 32)?)?;
                let asm = emit_assembly(&prog, t, "dwdiv");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                assert!(asm.instruction_count() >= 5, "{t} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn divrem_two_results() -> TestResult {
        let prog = gen_unsigned_divrem(&UdivPlan::new(10, 32)?)?;
        assert_eq!(prog.eval(&[1234])?, vec![123, 4]);
        // Shares the quotient computation: exactly one MULUH.
        assert_eq!(prog.op_counts().mul_high, 1);
        let wide = UdivPlan::new(10, 128)?;
        assert_eq!(
            gen_unsigned_divrem(&wide).err(),
            Some(FaultKind::UnsupportedWidth { width: 128 })
        );
        Ok(())
    }

    #[test]
    fn exact_div_exhaustive_width8() -> TestResult {
        for d in 1u64..=255 {
            let unsigned = compile(ExactPlan::new_unsigned(d.into(), 8)?)?;
            for q in 0u64..=(255 / d) {
                let n = q * d;
                assert_eq!(unsigned.eval1(&[n])?, q, "n={n} d={d}");
            }
        }
        for d in 1i64..=127 {
            let signed = compile(ExactPlan::new_signed(d.into(), 8)?)?;
            for q in -(128 / d)..=(127 / d) {
                let n = (q * d) as u64 & 0xff;
                assert_eq!(signed.eval1(&[n])?, (q as u64) & 0xff, "q={q} d={d}");
            }
        }
        // Negative divisors.
        let signed = compile(ExactPlan::new_signed(-12, 8)?)?;
        assert_eq!(signed.eval1(&[24])?, (-2i64 as u64) & 0xff);
        Ok(())
    }

    #[test]
    fn divisibility_exhaustive_width8() -> TestResult {
        for d in 1u64..=255 {
            let prog = compile(DivisibilityPlan::new(d.into(), 8)?)?;
            assert!(!prog.op_counts().uses_divide());
            for n in 0u64..=255 {
                assert_eq!(prog.eval1(&[n])?, u64::from(n % d == 0), "n={n} d={d}");
            }
        }
        Ok(())
    }

    #[test]
    fn urem_direct_emits_on_every_target() -> TestResult {
        use crate::targets::{emit_assembly, Target};
        for &t in &Target::ALL {
            for d in [3u128, 10, 641, 0xffff_ffff] {
                let urem = compile(UremPlan::new_direct(d, 32)?)?;
                let asm = emit_assembly(&urem, t, "urem");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                let divtest = compile(DivisibilityPlan::new(d, 32)?)?;
                let asm = emit_assembly(&divtest, t, "divtest");
                assert!(!asm.uses_divide(), "{t} divtest d={d}:\n{asm}");
            }
        }
        Ok(())
    }

    #[test]
    fn urem_spot_checks_wider() -> TestResult {
        for width in [16u32, 32, 64] {
            let m = mask(width);
            for d in [3u64, 7, 10, 641, 60000] {
                let direct = compile(UremPlan::new_direct(d.into(), width)?)?;
                let mulback = compile(UremPlan::new(d.into(), width)?)?;
                for n in [0u64, 1, d - 1, d, d + 1, m / 2, m - 1, m] {
                    let n = n & m;
                    assert_eq!(direct.eval1(&[n])?, n % d, "w={width} n={n} d={d}");
                    assert_eq!(mulback.eval1(&[n])?, n % d, "mulback w={width} n={n} d={d}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn spot_checks_width_16_32_64() -> TestResult {
        for width in [16u32, 32, 64] {
            let m = mask(width);
            for d in [3u64, 7, 10, 14, 641, 60000] {
                let prog = compile(UdivPlan::new(d.into(), width)?)?;
                for n in [0u64, 1, d - 1, d, d + 1, m / 2, m - 1, m] {
                    assert_eq!(prog.eval1(&[n])?, (n & m) / d, "w={width} n={n} d={d}");
                }
            }
            for d in [-10i64, -3, 3, 10, 127] {
                let prog = compile(SdivPlan::new(d.into(), width)?)?;
                let min = 1u64 << (width - 1);
                for n in [0u64, 1, m, min, min - 1, min + 1] {
                    let ns = sign_extend(n & m, width);
                    let expect = ns.wrapping_div(d) as u64 & m;
                    assert_eq!(prog.eval1(&[n])?, expect, "w={width} n={n} d={d}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn odd_widths_work_too() -> TestResult {
        // The IR interprets any width; magic constants via the u128 path.
        for width in [9u32, 13, 24, 48, 57] {
            let m = mask(width);
            for d in [3u64, 7, 10, 100] {
                let prog = compile(UdivPlan::new(d.into(), width)?)?;
                for n in [0u64, 1, d, m / 3, m - 1, m] {
                    assert_eq!(prog.eval1(&[n])?, (n & m) / d, "w={width} n={n} d={d}");
                }
                let sprog = compile(SdivPlan::new(d.into(), width)?)?;
                for n in [0u64, 1, m, 1u64 << (width - 1)] {
                    let ns = sign_extend(n & m, width);
                    let expect = ns.wrapping_div(d as i64) as u64 & m;
                    assert_eq!(sprog.eval1(&[n])?, expect, "w={width} n={n} d={d}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn paper_op_counts_hold() -> TestResult {
        // d = 10 at 32 bits: one multiply + one shift (Table 11.1 kernel).
        let c = compile(UdivPlan::new(10, 32)?)?.op_counts();
        assert_eq!((c.mul_high, c.shift, c.add_sub), (1, 1, 0));
        // d = 7: the long sequence — 1 multiply, 2 add/sub, 2 shifts.
        let c = compile(UdivPlan::new(7, 32)?)?.op_counts();
        assert_eq!((c.mul_high, c.add_sub, c.shift), (1, 2, 2));
        // d = 3 signed: mulsh + sub of xsign = 1 multiply, 1 shift-class
        // (xsign), 1 sub — the paper's "one multiply, one shift, one
        // subtract".
        let c = compile(SdivPlan::new(3, 32)?)?.op_counts();
        assert_eq!((c.mul_high, c.shift, c.add_sub), (1, 1, 1));
        // Baselines use the divider.
        assert!(gen_unsigned_div_hw(32).op_counts().uses_divide());
        Ok(())
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
    fn zero_divisor_is_a_typed_error() {
        assert_eq!(UdivPlan::new(0, 32).err(), Some(DivisorError::Zero));
    }

    #[test]
    fn divisor_past_the_width_is_a_typed_error() {
        // Refused, not masked: 2^40 would mask to 0 at width 32.
        assert_eq!(
            UdivPlan::new(1 << 40, 32).err(),
            Some(DivisorError::OutOfRange {
                d_bits: 1 << 40,
                signed: false,
                width: 32
            })
        );
    }
}
