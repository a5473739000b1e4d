//! Cross-crate integration: the code generator's IR programs, the core
//! library's divisor types, and native division must agree everywhere —
//! exhaustively at width 8, over the boundary catalog at wider widths.

use magicdiv_suite::magicdiv::plan::{DivisibilityPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan};
use magicdiv_suite::magicdiv::testkit::{
    interesting_signed_dividends, interesting_signed_divisors, interesting_unsigned_dividends,
    interesting_unsigned_divisors,
};
use magicdiv_suite::magicdiv::{
    FloorDivisor, InvariantSignedDivisor, InvariantUnsignedDivisor, SignedDivisor, UnsignedDivisor,
};
use magicdiv_suite::magicdiv_codegen::{
    emit_radix_loop, gen_unsigned_div_invariant, gen_unsigned_divrem, Target,
};
use magicdiv_suite::magicdiv_ir::{compile, mask, sign_extend};

type TestResult = Result<(), Box<dyn std::error::Error>>;

#[test]
fn three_layers_agree_unsigned_width8_exhaustive() -> TestResult {
    for d in 1u64..=255 {
        let prog = compile(UdivPlan::new(d.into(), 8)?)?;
        let prog_inv = gen_unsigned_div_invariant(d, 8)?;
        let lib = UnsignedDivisor::<u8>::new(d as u8).unwrap();
        let lib_inv = InvariantUnsignedDivisor::<u8>::new(d as u8).unwrap();
        for n in 0u64..=255 {
            let expect = n / d;
            assert_eq!(prog.eval1(&[n]).unwrap(), expect, "codegen n={n} d={d}");
            assert_eq!(
                prog_inv.eval1(&[n]).unwrap(),
                expect,
                "codegen-inv n={n} d={d}"
            );
            assert_eq!(lib.divide(n as u8) as u64, expect, "lib n={n} d={d}");
            assert_eq!(
                lib_inv.divide(n as u8) as u64,
                expect,
                "lib-inv n={n} d={d}"
            );
        }
    }
    Ok(())
}

#[test]
fn three_layers_agree_signed_width8_exhaustive() -> TestResult {
    for d in -128i64..=127 {
        if d == 0 {
            continue;
        }
        let prog = compile(SdivPlan::new(d.into(), 8)?)?;
        let lib = SignedDivisor::<i8>::new(d as i8).unwrap();
        let lib_inv = InvariantSignedDivisor::<i8>::new(d as i8).unwrap();
        for n in -128i64..=127 {
            let expect = (n as i8).wrapping_div(d as i8);
            let bits = (n as u64) & 0xff;
            assert_eq!(
                prog.eval1(&[bits]).unwrap(),
                (expect as u64) & 0xff,
                "codegen n={n} d={d}"
            );
            assert_eq!(lib.divide(n as i8), expect, "lib n={n} d={d}");
            assert_eq!(lib_inv.divide(n as i8), expect, "lib-inv n={n} d={d}");
        }
    }
    Ok(())
}

#[test]
fn catalog_sweep_width32() -> TestResult {
    let ds = interesting_unsigned_divisors::<u32>();
    for &d in &ds {
        let prog = compile(UdivPlan::new(d.into(), 32)?)?;
        let lib = UnsignedDivisor::<u32>::new(d).unwrap();
        for n in interesting_unsigned_dividends::<u32>(d) {
            let expect = (n / d) as u64;
            assert_eq!(prog.eval1(&[n as u64]).unwrap(), expect, "n={n} d={d}");
            assert_eq!(lib.divide(n) as u64, expect, "n={n} d={d}");
        }
    }
    Ok(())
}

#[test]
fn catalog_sweep_signed_width32() -> TestResult {
    for &d in &interesting_signed_divisors::<i32>() {
        let prog = compile(SdivPlan::new(d.into(), 32)?)?;
        let fprog = compile(FloorPlan::new(d.into(), 32)?)?;
        let lib = SignedDivisor::<i32>::new(d).unwrap();
        let flib = FloorDivisor::<i32>::new(d).unwrap();
        for n in interesting_signed_dividends::<i32>(d) {
            let bits = (n as u32) as u64;
            let expect_t = n.wrapping_div(d);
            assert_eq!(
                prog.eval1(&[bits]).unwrap() as u32,
                expect_t as u32,
                "trunc n={n} d={d}"
            );
            assert_eq!(lib.divide(n), expect_t, "lib trunc n={n} d={d}");
            let codegen_floor = fprog.eval1(&[bits]).unwrap() as u32;
            assert_eq!(
                codegen_floor,
                flib.divide(n) as u32,
                "floor layers n={n} d={d}"
            );
        }
    }
    Ok(())
}

#[test]
fn catalog_sweep_width64() -> TestResult {
    for &d in interesting_unsigned_divisors::<u64>().iter().step_by(3) {
        let prog = compile(UdivPlan::new(d.into(), 64)?)?;
        let lib = UnsignedDivisor::<u64>::new(d).unwrap();
        for n in interesting_unsigned_dividends::<u64>(d) {
            assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "n={n} d={d}");
            assert_eq!(lib.divide(n), n / d, "n={n} d={d}");
        }
    }
    Ok(())
}

#[test]
fn divrem_program_invariant_width8() -> TestResult {
    for d in 1u64..=255 {
        let prog = gen_unsigned_divrem(&UdivPlan::new(d.into(), 8)?)?;
        for n in (0u64..=255).step_by(3) {
            let out = prog.eval(&[n]).unwrap();
            assert_eq!(out[0] * d + out[1], n, "q*d+r n={n} d={d}");
            assert!(out[1] < d, "r<d n={n} d={d}");
        }
    }
    Ok(())
}

#[test]
fn exact_and_divisibility_codegen_width16() -> TestResult {
    for d in [1u64, 2, 3, 12, 24, 100, 255, 256, 1000] {
        let exact = compile(ExactPlan::new_unsigned(d.into(), 16)?)?;
        for q in (0u64..=(0xffff / d)).step_by(7) {
            assert_eq!(exact.eval1(&[q * d]).unwrap(), q, "q={q} d={d}");
        }
        let test = compile(DivisibilityPlan::new(d.into(), 16)?)?;
        for n in (0u64..=0xffff).step_by(11) {
            assert_eq!(
                test.eval1(&[n]).unwrap(),
                u64::from(n % d == 0),
                "n={n} d={d}"
            );
        }
    }
    Ok(())
}

#[test]
fn all_targets_emit_loop_listings() {
    for &t in &Target::ALL {
        for magic in [true, false] {
            let asm = emit_radix_loop(t, magic);
            assert_eq!(asm.uses_divide(), !magic, "{t} magic={magic}:\n{asm}");
            assert!(asm.instruction_count() >= 8, "{t} magic={magic}");
        }
    }
}

#[test]
fn sign_extension_consistency_between_ir_and_native() {
    for w in [8u32, 16, 32] {
        let m = mask(w);
        for x in [0u64, 1, m / 2, m / 2 + 1, m - 1, m] {
            let se = sign_extend(x, w);
            // Cross-check against i64 shifts.
            let shift = 64 - w;
            assert_eq!(se, ((x << shift) as i64) >> shift);
        }
    }
}
