//! Assembly-level end-to-end tests: the Table 11.1 radix-conversion
//! listings (plus the bonus x86 column) are *executed* by the instruction
//! interpreter and checked against `u32::to_string()` — the longest path
//! through the reproduction: magic constants → IR → optimizer → register
//! allocation → target syntax → simulated machine.

use magicdiv_suite::magicdiv::plan::{
    DivisibilityPlan, SdivPlan, UdivPlan, UdivStrategy, UremPlan, UremStrategy,
};
use magicdiv_suite::magicdiv_codegen::{
    emit_assembly, emit_radix_loop, execute_radix_listing, gen_unsigned_divrem, Target,
};
use magicdiv_suite::magicdiv_ir::{compile, mask, sign_extend, Program};

type TestResult = Result<(), Box<dyn std::error::Error>>;

const FIVE_TARGETS: [Target; 5] = [
    Target::Alpha,
    Target::Mips,
    Target::Power,
    Target::Sparc,
    Target::X86,
];

#[test]
fn radix_listings_execute_correctly_everywhere() {
    for t in FIVE_TARGETS {
        for magic in [true, false] {
            let asm = emit_radix_loop(t, magic);
            for x in [
                0u32,
                1,
                9,
                10,
                99,
                100,
                1994,
                123_456_789,
                u32::MAX - 1,
                u32::MAX,
            ] {
                let got = execute_radix_listing(&asm, x)
                    .unwrap_or_else(|e| panic!("{t} magic={magic} x={x}: {e}\n{asm}"));
                assert_eq!(got, x.to_string(), "{t} magic={magic} x={x}\n{asm}");
            }
        }
    }
}

#[test]
fn radix_listings_randomized_everywhere() {
    let mut state = 0x0123_4567_89ab_cdefu64;
    let asms: Vec<_> = FIVE_TARGETS
        .iter()
        .map(|&t| emit_radix_loop(t, true))
        .collect();
    for _ in 0..500 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = (state >> 13) as u32;
        for asm in &asms {
            assert_eq!(
                execute_radix_listing(asm, x).unwrap(),
                x.to_string(),
                "{} x={x}",
                asm.target
            );
        }
    }
}

#[test]
fn emitted_functions_have_sane_shape_for_many_divisors() -> TestResult {
    // Every generated division function emits for every target without
    // exhausting register pools, and the magic ones never divide.
    let divisors: [i128; 8] = [2, 3, 7, 10, 14, 100, 641, 1_000_000_007];
    for t in FIVE_TARGETS {
        for &d in &divisors {
            let udiv = UdivPlan::new(d as u128, 32)?;
            let progs: Vec<Program> = vec![
                compile(udiv)?,
                compile(SdivPlan::new(d, 32)?)?,
                compile(SdivPlan::new(-d, 32)?)?,
                gen_unsigned_divrem(&udiv)?,
            ];
            for prog in &progs {
                prog.validate().expect("generated programs are well-formed");
                let asm = emit_assembly(prog, t, "f");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                assert!(asm.instruction_count() >= 2, "{t} d={d}");
            }
        }
    }
    Ok(())
}

#[test]
fn generated_programs_validate_across_widths() -> TestResult {
    for width in [8u32, 16, 24, 32, 48, 57, 64] {
        for d in [1u64, 3, 10, 255] {
            compile(UdivPlan::new(d.into(), width)?)?.validate()?;
            // The signed divisor with the same low bits (255 is -1 at w8).
            let ds = sign_extend(d & mask(width), width);
            compile(SdivPlan::new(ds.into(), width)?)?.validate()?;
        }
    }
    Ok(())
}

#[test]
fn x86_materializes_a_constant_result_in_eax() -> TestResult {
    // Optimized `n % 1` is the constant 0 and `1 | n` the constant 1. x86
    // folds constants as immediates, so neither ever had a register.
    let mul_back = UremStrategy::MulBack {
        udiv: UdivStrategy::Identity,
    };
    for w in [8, 16, 32, 64] {
        for (prog, want) in [
            (compile(UremPlan::new_direct(1, w)?)?, "\tmov eax,0x0\n"),
            (
                compile(UremPlan::from_raw(1, w, mul_back))?,
                "\tmov eax,0x0\n",
            ),
            (compile(DivisibilityPlan::new(1, w)?)?, "\tmov eax,0x1\n"),
        ] {
            let asm = emit_assembly(&prog, Target::X86, "f");
            let text = asm.to_string();
            assert!(text.contains(want), "w{w}:\n{text}");
            assert!(text.ends_with("\tret\n"), "w{w}:\n{text}");
            assert!(!asm.uses_divide(), "w{w}:\n{text}");
        }
    }
    Ok(())
}
