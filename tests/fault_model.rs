//! The unified fault model, exercised across layers.
//!
//! Three executable layers — the IR interpreter, the assembly-listing
//! interpreter, and the simulated-CPU cost model — report through one
//! typed [`magicdiv::Fault`] (layer + kind + faulting instruction
//! index). These tests pin the taxonomy down at its corners:
//!
//! * the `MIN / -1` two's-complement corner must *agree* across the
//!   runtime divisors, the generated IR, and the hardware-baseline IR
//!   (all wrap, like hardware `idiv` with wrapping semantics), and must
//!   become a typed `SignedOverflow` fault when trap mode is requested;
//! * resource exhaustion (interpreter fuel, assembly step limits) is a
//!   typed fault naming the limit, never a hang;
//! * the doubleword divider's quotient-overflow precondition
//!   (`HIGH(n) >= d`, i.e. `n >= d * 2^N`) is enforced exactly at the
//!   boundary for every limb width.

use magicdiv::plan::SdivPlan;
use magicdiv::{
    DWord, DwordDivError, DwordDivisor, Fault, FaultKind, FaultLayer, InvariantSignedDivisor,
    SignedDivisor,
};
use magicdiv_codegen::{
    emit_radix_loop, execute_radix_listing_with_limit, gen_signed_div_hw, Target,
};
use magicdiv_ir::{compile, EvalError, EvalOptions};

// --- MIN / -1: agreement between the runtime divisors and the IR ---

/// Checks one width's worth of MIN / -1 behavior through a macro so the
/// concrete `i8`/`i16`/`i32`/`i64` types stay monomorphic.
macro_rules! min_over_minus_one_agrees {
    ($name:ident, $s:ty, $width:expr) => {
        #[test]
        fn $name() {
            let min = <$s>::MIN;

            // Runtime layer: both signed divisor families wrap, and the
            // checked form refuses.
            let rt = SignedDivisor::new(-1 as $s).unwrap();
            assert_eq!(rt.divide(min), min, "SignedDivisor must wrap like idiv");
            assert_eq!(rt.checked_divide(min), None);
            let inv = InvariantSignedDivisor::new(-1 as $s).unwrap();
            assert_eq!(inv.divide(min), min, "invariant form must wrap too");

            // IR layer: the generated (multiplier-based) program and the
            // hardware-baseline DivS program both wrap by default...
            let min_bits = (min as i64) as u64 & magicdiv_ir::mask($width);
            let neg1_bits = (-1i64) as u64 & magicdiv_ir::mask($width);
            let gen = compile(SdivPlan::new(-1, $width).unwrap()).unwrap();
            assert_eq!(gen.eval1(&[min_bits]).unwrap(), min_bits);
            let hw = gen_signed_div_hw($width);
            assert_eq!(
                hw.eval(&[min_bits, neg1_bits]).unwrap(),
                vec![min_bits],
                "hardware-baseline DivS must wrap in the default mode"
            );

            // ...and the baseline traps when trap mode is requested,
            // reporting a typed fault with the faulting instruction.
            let trap = EvalOptions {
                trap_signed_overflow: true,
                ..Default::default()
            };
            let err = hw.eval_with(&[min_bits, neg1_bits], &trap).unwrap_err();
            assert!(matches!(err, EvalError::SignedOverflow { .. }), "{err}");
            let fault = Fault::from(err);
            assert_eq!(fault.layer, FaultLayer::IrInterp);
            assert!(matches!(fault.kind, FaultKind::SignedOverflow));
            assert!(fault.at.is_some(), "fault must name the instruction");

            // The multiplier-based program contains no division op, so it
            // is immune to the trap: same wrapped answer in trap mode.
            assert_eq!(gen.eval_with(&[min_bits], &trap).unwrap(), vec![min_bits]);
        }
    };
}

min_over_minus_one_agrees!(min_over_minus_one_agrees_w8, i8, 8);
min_over_minus_one_agrees!(min_over_minus_one_agrees_w16, i16, 16);
min_over_minus_one_agrees!(min_over_minus_one_agrees_w32, i32, 32);
min_over_minus_one_agrees!(min_over_minus_one_agrees_w64, i64, 64);

// --- resource-limit faults: IR fuel and assembly step limits ---

#[test]
fn ir_fuel_exhaustion_is_a_typed_fault() {
    let prog = compile(SdivPlan::new(-7, 32).unwrap()).unwrap();
    // Plenty of fuel: fine.
    let opts = EvalOptions {
        fuel: Some(1_000),
        ..Default::default()
    };
    assert!(prog.eval_with(&[42], &opts).is_ok());
    // One unit of fuel cannot finish a multi-op kernel.
    let starved = EvalOptions {
        fuel: Some(1),
        ..Default::default()
    };
    let err = prog.eval_with(&[42], &starved).unwrap_err();
    assert!(
        matches!(err, EvalError::FuelExhausted { limit: 1 }),
        "{err}"
    );
    let fault = Fault::from(err);
    assert_eq!(fault.layer, FaultLayer::IrInterp);
    assert!(matches!(fault.kind, FaultKind::StepLimit { limit: 1 }));
}

#[test]
fn asm_step_limit_is_a_typed_fault_on_every_target() {
    for t in [
        Target::Alpha,
        Target::Mips,
        Target::Power,
        Target::Sparc,
        Target::X86,
    ] {
        let asm = emit_radix_loop(t, true);
        // The radix loop terminates comfortably within the default
        // budget but not within three steps.
        assert!(
            execute_radix_listing_with_limit(&asm, 12345, 100_000).is_ok(),
            "{t:?}"
        );
        let err = execute_radix_listing_with_limit(&asm, 12345, 3).unwrap_err();
        let fault = Fault::from(err);
        assert_eq!(fault.layer, FaultLayer::AsmInterp);
        assert!(
            matches!(fault.kind, FaultKind::StepLimit { limit: 3 }),
            "{t:?}: {fault}"
        );
        assert!(fault.at.is_some(), "{t:?}: fault must carry a line index");
    }
}

// --- simulated-CPU layer: typed fault, same taxonomy ---

#[test]
fn simcpu_unsupported_width_is_a_typed_fault() {
    let plan = magicdiv::UdivPlan::new(10, 128).expect("plan exists at any width");
    let model = magicdiv_simcpu::find_model("pentium").unwrap();
    let err = magicdiv_simcpu::try_cycles_for_plan(&plan.into(), &model).unwrap_err();
    assert_eq!(err.layer, FaultLayer::SimCpu);
    assert!(matches!(
        err.kind,
        FaultKind::UnsupportedWidth { width: 128 }
    ));
    // And the supported widths cost out without faulting.
    for width in [8, 16, 32, 64] {
        let plan = magicdiv::UdivPlan::new(10, width).unwrap();
        assert!(magicdiv_simcpu::try_cycles_for_plan(&plan.into(), &model).is_ok());
    }
}

// --- doubleword divider: quotient-overflow boundary, all limb widths ---

/// `n = d * 2^N - 1` (the largest in-contract dividend) must divide,
/// and `n = d * 2^N` (the smallest overflowing one) must be rejected —
/// for every limb width and a spread of divisors.
macro_rules! dword_overflow_boundary {
    ($name:ident, $t:ty) => {
        #[test]
        fn $name() {
            for d in [1 as $t, 2, 3, 7, 10, <$t>::MAX / 2, <$t>::MAX] {
                let dd = DwordDivisor::new(d).unwrap();
                // d * 2^N - 1 == (d - 1) * 2^N + (2^N - 1): parts (d-1, MAX).
                let largest_ok = DWord::from_parts(d - 1, <$t>::MAX);
                let (q, r) = dd.div_rem(largest_ok).expect("in contract");
                // q = 2^N - ceil(2^N / d) ... check against wide arithmetic.
                let n_wide = (d as u128) * (1u128 << <$t>::BITS) - 1;
                assert_eq!(q as u128, n_wide / d as u128, "d={d}");
                assert_eq!(r as u128, n_wide % d as u128, "d={d}");
                // d * 2^N: parts (d, 0) — quotient 2^N does not fit.
                let smallest_bad = DWord::from_parts(d, 0);
                assert_eq!(
                    dd.div_rem(smallest_bad),
                    Err(DwordDivError::QuotientOverflow),
                    "d={d}"
                );
            }
        }
    };
}

dword_overflow_boundary!(dword_overflow_boundary_u8, u8);
dword_overflow_boundary!(dword_overflow_boundary_u16, u16);
dword_overflow_boundary!(dword_overflow_boundary_u32, u32);
dword_overflow_boundary!(dword_overflow_boundary_u64, u64);

// --- DWord carry edges ---

#[test]
fn dword_carry_edges() {
    // Adding 1 to (x, MAX) must carry into the high limb.
    let n = DWord::<u32>::from_parts(5, u32::MAX);
    assert_eq!(n.wrapping_add_limb(1).parts(), (6, 0));
    // Full-word overflow wraps and reports the carry-out.
    let top = DWord::<u32>::from_parts(u32::MAX, u32::MAX);
    let (wrapped, carried) = top.overflowing_add(DWord::from_lo(1));
    assert!(carried);
    assert!(wrapped.is_zero());
    assert_eq!(top.checked_add(DWord::from_lo(1)), None);
    // Subtracting across the limb boundary borrows.
    let (borrowed, out) = DWord::<u32>::from_parts(1, 0).overflowing_sub(DWord::from_lo(1));
    assert!(!out);
    assert_eq!(borrowed.parts(), (0, u32::MAX));
    let (under, borrow) = DWord::<u32>::zero().overflowing_sub(DWord::from_lo(1));
    assert!(borrow);
    assert_eq!(under.parts(), (u32::MAX, u32::MAX));
    // Shifts at exactly the limb width move whole limbs (the paper's
    // "shift counts of N" note).
    assert_eq!(DWord::<u32>::from_lo(7).shl_full(32).parts(), (7, 0));
    assert_eq!(DWord::<u32>::from_hi(7).shr_full(32).parts(), (0, 7));
    assert_eq!(
        DWord::<u32>::from_hi(0x8000_0000).sar_full(32).parts(),
        (0xffff_ffff, 0x8000_0000)
    );
}

#[test]
fn udword64_boundary_matches_the_u128_oracle() {
    // One independent cross-check at the widest limb: u64 limbs against
    // native u128 division on the exact boundary pair.
    let d = 0x8000_0000_0000_0001u64;
    let dd = DwordDivisor::new(d).unwrap();
    let n = DWord::from_parts(d - 1, u64::MAX);
    let (q, r) = dd.div_rem(n).unwrap();
    let wide = ((d as u128) << 64) - 1;
    assert_eq!(q as u128, wide / d as u128);
    assert_eq!(r as u128, wide % d as u128);
    assert_eq!(
        dd.div_rem(DWord::from_parts(d, 0)),
        Err(DwordDivError::QuotientOverflow)
    );
}

// --- guard & cache layers: same taxonomy, new corners ---

#[test]
fn guard_self_check_failure_is_a_typed_fault() {
    use magicdiv::plan::{UdivPlan, UdivStrategy};
    use magicdiv::{GuardPolicy, GuardedUnsignedDivisor};

    // A plan whose strategy is flatly wrong for its divisor: d = 7
    // claimed to be a shift by 3 (i.e. division by 8).
    let bad = UdivPlan::from_raw(7, 32, UdivStrategy::Shift { sh: 3 });
    let fault = GuardedUnsignedDivisor::<u32>::from_plan(&bad, &GuardPolicy::default())
        .expect_err("probe must reject a wrong-strategy plan");
    assert_eq!(fault.layer, FaultLayer::Guard);
    let FaultKind::SelfCheckFailed { n, got, want } = fault.kind else {
        panic!("expected SelfCheckFailed, got {:?}", fault.kind);
    };
    // The witness is a genuine counterexample, recorded exactly.
    assert_eq!(got, n / 8);
    assert_eq!(want, n / 7);
    assert_ne!(got, want);
    let msg = fault.to_string();
    assert!(
        msg.starts_with("guard fault: self-check failed at n="),
        "{msg}"
    );
}

#[test]
fn cache_and_budget_faults_render_their_layer_and_cause() {
    let poisoned = Fault {
        layer: FaultLayer::Cache,
        kind: FaultKind::CachePoisoned,
        at: None,
    };
    assert_eq!(
        poisoned.to_string(),
        "cache fault: cached plan failed its checksum"
    );

    let tripped = Fault {
        layer: FaultLayer::Guard,
        kind: FaultKind::FaultBudgetExhausted { limit: 3 },
        at: None,
    };
    assert_eq!(
        tripped.to_string(),
        "guard fault: fault budget of 3 demotions exhausted"
    );

    // source() exposes the kind, as for every other fault in the model.
    use core::error::Error;
    assert!(tripped.source().is_some());
}

#[test]
fn try_new_constructors_speak_the_same_taxonomy() {
    use magicdiv::{ExactUnsignedDivisor, FloorDivisor, InvariantUnsignedDivisor, UnsignedDivisor};

    // Zero divisors come back as an error from every constructor, never
    // a panic, and lift into the same typed plan-layer fault.
    for err in [
        UnsignedDivisor::<u32>::new(0).expect_err("zero"),
        InvariantUnsignedDivisor::<u64>::new(0).expect_err("zero"),
        SignedDivisor::<i32>::new(0).expect_err("zero"),
        InvariantSignedDivisor::<i64>::new(0).expect_err("zero"),
        FloorDivisor::<i16>::new(0).expect_err("zero"),
        ExactUnsignedDivisor::<u16>::new(0).expect_err("zero"),
        DwordDivisor::<u32>::new(0).expect_err("zero"),
    ] {
        let fault = Fault::from(err);
        assert_eq!(fault.layer, FaultLayer::Plan);
        assert_eq!(fault.kind, FaultKind::DivideByZero);
    }
}
