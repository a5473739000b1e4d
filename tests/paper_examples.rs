//! Every worked example from the paper's text, checked in one place.
//!
//! These pin the reproduction to the published constants: if any
//! algorithm drifts from the paper, one of these fails.

#![allow(clippy::manual_div_ceil)] // the manual forms are the subject matter
use magicdiv_suite::magicdiv::{
    choose_multiplier, mod_inverse_newton, DivisibilityScanner, ExactSignedDivisor, FloorDivisor,
    SdivStrategy, SignedDivisor, UdivPlan, UdivStrategy, UnsignedDivisor,
};
use magicdiv_suite::magicdiv_codegen::{emit_radix_loop, plan_mul_const, plan_op_count, Target};
use magicdiv_suite::magicdiv_ir::compile;
use magicdiv_suite::magicdiv_workloads::decimal_magic;

#[test]
fn section4_example_d10() {
    // "CHOOSE_MULTIPLIER finds m_low = (2^36 - 6)/10 and
    //  m_high = (2^36 + 14)/10. After one round of divisions by 2, it
    //  returns (m, 3, 4), where m = (2^34 + 1)/5. The suggested code
    //  q = SRL(MULUH((2^34+1)/5, n), 3)"
    let c = choose_multiplier::<u32>(10, 32).unwrap();
    assert_eq!(c.multiplier.to_u128(), ((1u128 << 34) + 1) / 5);
    assert_eq!((c.sh_post, c.l), (3, 4));
    match UnsignedDivisor::<u32>::new(10).unwrap().strategy() {
        UdivStrategy::MulShift { m, sh_pre, sh_post } => {
            assert_eq!(m as u128, ((1u128 << 34) + 1) / 5);
            assert_eq!((sh_pre, sh_post), (0, 3));
        }
        s => panic!("wrong strategy {s:?}"),
    }
}

#[test]
fn section4_example_d7() {
    // "Here m = (2^35 + 3)/7 > 2^32. This example uses the longer
    //  sequence in Figure 4.1."
    let c = choose_multiplier::<u32>(7, 32).unwrap();
    assert_eq!(c.multiplier.to_u128(), ((1u128 << 35) + 3) / 7);
    assert!(!c.multiplier.fits_limb());
    assert!(matches!(
        UnsignedDivisor::<u32>::new(7).unwrap().strategy(),
        UdivStrategy::MulAddShift { .. }
    ));
}

#[test]
fn section4_example_d14() {
    // "The suggested code uses separate divisions by 2 and 7:
    //  q = SRL(MULUH((2^34+5)/7, SRL(n, 1)), 2)."
    match UnsignedDivisor::<u32>::new(14).unwrap().strategy() {
        UdivStrategy::MulShift { m, sh_pre, sh_post } => {
            assert_eq!(m as u128, ((1u128 << 34) + 5) / 7);
            assert_eq!((sh_pre, sh_post), (1, 2));
        }
        s => panic!("wrong strategy {s:?}"),
    }
}

#[test]
fn section5_example_d3_signed() {
    // "CHOOSE_MULTIPLIER(3, 31) returns sh_post = 0 and m = (2^32+2)/3.
    //  The code q = MULSH(m, n) - XSIGN(n) uses one multiply, one shift,
    //  one subtract."
    let c = choose_multiplier::<u32>(3, 31).unwrap();
    assert_eq!(c.multiplier.to_u128(), ((1u128 << 32) + 2) / 3);
    assert_eq!(c.sh_post, 0);
    match SignedDivisor::<i32>::new(3).unwrap().strategy() {
        SdivStrategy::MulShift { m, sh_post } => {
            assert_eq!(m as u64, ((1u64 << 32) + 2) / 3);
            assert_eq!(sh_post, 0);
        }
        s => panic!("wrong strategy {s:?}"),
    }
}

#[test]
fn section6_example_mod10() {
    // "uword q0 = MULUH((2^33 + 3)/5, EOR(nsign, n)); ...
    //  The cost is 1 multiply, 4 shifts, 2 bit ops, 2 subtracts."
    let c = choose_multiplier::<u32>(10, 31).unwrap();
    assert_eq!(c.multiplier.to_u128(), ((1u128 << 33) + 3) / 5);
    assert_eq!(c.sh_post, 2);
    // FloorDivisor reproduces the nonnegative-remainder semantics.
    let fd = FloorDivisor::<i32>::new(10).unwrap();
    for n in [i32::MIN, -10, -1, 0, 9, 10, i32::MAX] {
        let r = fd.modulus(n);
        assert!((0..10).contains(&r), "n={n}");
        assert_eq!(((n as i64) - (r as i64)).rem_euclid(10), 0, "n={n}");
    }
}

#[test]
fn section9_example_divisible_by_100() {
    // "let dinv = (19 * 2^32 + 1)/25 ... check whether q0 is a multiple
    //  of 4 in the interval [-qmax, qmax], where qmax = (2^31 - 48)/25."
    let dinv = mod_inverse_newton(25u32);
    assert_eq!(dinv as u64, (19u64 * (1 << 32) + 1) / 25);
    // (2^31 - 48)/25 == 4 * floor((2^31 - 1)/100):
    assert_eq!(((1u64 << 31) - 48) / 25, 4 * (((1u64 << 31) - 1) / 100));
    let ed = ExactSignedDivisor::<i32>::new(100).unwrap();
    for n in -10_000i32..10_000 {
        assert_eq!(ed.divides(n), n % 100 == 0, "n={n}");
    }
}

#[test]
fn section9_strength_reduced_loop() {
    // The closing example: "No explicit multiplication or division
    //  remains" — i % 100 == 0 over i in 0..imax.
    let hits = DivisibilityScanner::<i32>::new(100)
        .unwrap()
        .take(100_000)
        .filter(|&b| b)
        .count();
    assert_eq!(hits, 1000);
}

#[test]
fn fermat_factor_divisors() {
    // "In rare cases (e.g., d = 641 on a 32-bit machine, d = 274177 on a
    //  64-bit machine) the final shift is zero."
    let c = choose_multiplier::<u32>(641, 32).unwrap();
    assert_eq!(c.sh_post, 0);
    assert_eq!(c.multiplier.to_u128(), 6700417); // 641 * 6700417 = 2^32 + 1
    let c = choose_multiplier::<u64>(274177, 64).unwrap();
    assert_eq!(c.sh_post, 0);
    assert_eq!(c.multiplier.to_u128(), 67280421310721);
}

#[test]
fn table_11_1_constants() {
    // The MIPS/POWER/SPARC columns load 0xcccccccd = (2^34+1)/5 truncated
    // to 32 bits; the paper's listings all contain the cccc/cccd pattern.
    assert_eq!((((1u128 << 34) + 1) / 5) as u32, 0xcccc_cccd);
    for t in [Target::Mips, Target::Power, Target::Sparc] {
        let asm = emit_radix_loop(t, true).to_string();
        assert!(
            asm.to_lowercase().contains("cccc"),
            "{t} listing missing the magic constant:\n{asm}"
        );
    }
}

#[test]
fn alpha_shift_add_expansion_cost() {
    // "the multiplications needed by these algorithms can sometimes be
    //  computed quickly using a sequence of shifts, adds, and subtracts,
    //  since multipliers for small constant divisors have regular binary
    //  patterns" — the (2^34+1)/5 plan must beat Alpha's 23-cycle mulq.
    let plan = plan_mul_const(((1u64 << 34) + 1) / 5);
    assert!(plan_op_count(&plan) < 23, "cost {}", plan_op_count(&plan));
}

#[test]
fn figure_11_1_behaviour() {
    // decimal() converts correctly for a full 32-bit number...
    assert_eq!(decimal_magic(u32::MAX), "4294967295");
    // ...and the generated kernel has no divide.
    let by10 = compile(UdivPlan::new(10, 32).unwrap()).unwrap();
    assert!(!by10.op_counts().uses_divide());
}
