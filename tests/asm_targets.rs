//! Assembly-level end-to-end tests: the Table 11.1 radix-conversion
//! listings (plus the bonus x86 column) are *executed* by the instruction
//! interpreter and checked against `u32::to_string()` — the longest path
//! through the reproduction: magic constants → IR → optimizer → register
//! allocation → target syntax → simulated machine.

use magicdiv_suite::magicdiv_codegen::{
    emit_assembly, emit_radix_loop, execute_radix_listing, gen_divisibility_test, gen_signed_div,
    gen_unsigned_div, gen_unsigned_divrem, gen_unsigned_rem, gen_urem_direct, Target,
};
use magicdiv_suite::magicdiv_ir::Program;

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
fn emitted_functions_have_sane_shape_for_many_divisors() {
    // Every generated division function emits for every target without
    // exhausting register pools, and the magic ones never divide.
    let divisors: [i64; 8] = [2, 3, 7, 10, 14, 100, 641, 1_000_000_007];
    for t in FIVE_TARGETS {
        for &d in &divisors {
            let progs: Vec<Program> = vec![
                gen_unsigned_div(d as u64, 32),
                gen_signed_div(d, 32),
                gen_signed_div(-d, 32),
                gen_unsigned_divrem(d as u64, 32),
            ];
            for prog in &progs {
                prog.validate().expect("generated programs are well-formed");
                let asm = emit_assembly(prog, t, "f");
                assert!(!asm.uses_divide(), "{t} d={d}:\n{asm}");
                assert!(asm.instruction_count() >= 2, "{t} d={d}");
            }
        }
    }
}

#[test]
fn generated_programs_validate_across_widths() {
    for width in [8u32, 16, 24, 32, 48, 57, 64] {
        for d in [1u64, 3, 10, 255] {
            gen_unsigned_div(d, width).validate().unwrap();
            gen_signed_div(d as i64, width).validate().unwrap();
        }
    }
}

#[test]
fn x86_materializes_a_constant_result_in_eax() {
    // Optimized `n % 1` is the constant 0 and `1 | n` the constant 1. x86
    // folds constants as immediates, so neither ever had a register.
    for w in [8, 16, 32, 64] {
        for (prog, want) in [
            (gen_urem_direct(1, w), "\tmov eax,0x0\n"),
            (gen_unsigned_rem(1, w), "\tmov eax,0x0\n"),
            (gen_divisibility_test(1, w), "\tmov eax,0x1\n"),
        ] {
            let asm = emit_assembly(&prog, Target::X86, "f");
            let text = asm.to_string();
            assert!(text.contains(want), "w{w}:\n{text}");
            assert!(text.ends_with("\tret\n"), "w{w}:\n{text}");
            assert!(!asm.uses_divide(), "w{w}:\n{text}");
        }
    }
}
