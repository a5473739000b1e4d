//! Simulator-level integration: the reproduction's quantitative claims —
//! who wins, by roughly what factor, where the crossovers fall — hold on
//! the Table 1.1 timing models.

use magicdiv_suite::magicdiv::plan::{SdivPlan, UdivPlan};
use magicdiv_suite::magicdiv_codegen::{
    gen_unsigned_div_hw, gen_unsigned_div_invariant, gen_unsigned_div_tuned, radix_body,
    MachineDesc, RadixStyle,
};
use magicdiv_suite::magicdiv_ir::{compile, schedule, Program, ScheduleWeights, TargetCaps};
use magicdiv_suite::magicdiv_simcpu::{
    cycles_for_program, find_model, radix_conversion_timing, table_11_2_models,
    table_11_2_paper_numbers, table_1_1,
};

/// The Fig 4.2 program for `d` at 32 bits.
fn udiv32(d: u64) -> Program {
    compile(UdivPlan::new(d.into(), 32).unwrap()).unwrap()
}

#[test]
fn magic_beats_divide_for_every_divisor_class_on_every_machine() {
    let hw = gen_unsigned_div_hw(32);
    for model in table_1_1() {
        let div_cost = cycles_for_program(&hw, &model);
        for d in [3u64, 7, 10, 14, 641, 1_000_000_007] {
            let magic_cost = cycles_for_program(&udiv32(d), &model);
            assert!(
                magic_cost < div_cost,
                "{}: d={d} magic {magic_cost} >= div {div_cost}",
                model.name
            );
        }
    }
}

#[test]
fn signed_magic_also_wins_broadly() {
    let hw = gen_unsigned_div_hw(32); // divide cost is the same class
    for model in table_1_1() {
        let div_cost = cycles_for_program(&hw, &model);
        for d in [-100i64, -3, 3, 7, 1_000_000_007] {
            let sdiv = compile(SdivPlan::new(d.into(), 32).unwrap()).unwrap();
            let magic_cost = cycles_for_program(&sdiv, &model);
            assert!(
                magic_cost <= div_cost,
                "{}: d={d} magic {magic_cost} > div {div_cost}",
                model.name
            );
        }
    }
}

#[test]
fn speedups_within_factor_two_of_paper() {
    // Shape reproduction: each Table 11.2 speedup lands within 2x of the
    // paper's measured ratio (same winners, same magnitudes).
    for ((name, _, _, _, paper_speedup), model) in
        table_11_2_paper_numbers().iter().zip(table_11_2_models())
    {
        let sim = radix_conversion_timing(&model).speedup();
        let ratio = sim / paper_speedup;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{name}: sim {sim:.1}x vs paper {paper_speedup:.1}x"
        );
    }
}

#[test]
fn crossover_constant_vs_invariant_form() {
    // Fig 4.2's specialization is never slower than the generic Fig 4.1
    // shape, and strictly faster for powers of two.
    for model in table_1_1() {
        for d in [2u64, 8, 10, 641, 4096] {
            let tuned = cycles_for_program(&udiv32(d), &model);
            let generic = cycles_for_program(&gen_unsigned_div_invariant(d, 32).unwrap(), &model);
            assert!(tuned <= generic, "{} d={d}", model.name);
            if d.is_power_of_two() {
                assert!(tuned < generic, "{} d={d}", model.name);
            }
        }
    }
}

#[test]
fn alpha_shift_add_body_beats_mulq_body_on_alpha() {
    let alpha = find_model("alpha").unwrap();
    let shift_add = radix_body(64, RadixStyle::AlphaShiftAdd);
    let magic_mul = radix_body(32, RadixStyle::Magic);
    let sa = cycles_for_program(&shift_add, &alpha);
    let mm = cycles_for_program(&magic_mul, &alpha);
    assert!(
        sa <= mm,
        "shift/add body {sa} should not exceed mulq body {mm} on Alpha"
    );
    // ...but on a fast-multiplier machine the multiply wins.
    let mc88110 = find_model("88110").unwrap();
    let sa = cycles_for_program(&shift_add, &mc88110);
    let mm = cycles_for_program(&magic_mul, &mc88110);
    assert!(
        mm < sa,
        "3-cycle multiplier should beat the shift/add chain"
    );
}

#[test]
fn div_mul_gap_motivates_and_grows() {
    // §1: divide always costs more than multiply (the 1985 CISC parts are
    // closest, e.g. the 386's 1.6x), and on the post-1990 implementations
    // the gap is "several times" — the trend the paper's Table 1.1 shows.
    let mut recent = Vec::new();
    for model in table_1_1() {
        assert!(
            model.div_to_mul_ratio() > 1.0,
            "{}: ratio {:.1}",
            model.name,
            model.div_to_mul_ratio()
        );
        if model.year >= 1990 {
            recent.push(model.div_to_mul_ratio());
        }
    }
    let avg = recent.iter().sum::<f64>() / recent.len() as f64;
    assert!(avg >= 3.0, "average post-1990 div/mul ratio {avg:.1}");
}

#[test]
fn list_scheduling_never_hurts_on_pipelined_machines() {
    // The radix-conversion body has independent work (the multiply-back
    // and the +'0') that can hide under the quotient multiply.
    let body = radix_body(32, RadixStyle::Magic);
    for model in table_1_1().into_iter().filter(|m| m.mul_pipelined) {
        let weights = ScheduleWeights {
            multiply: model.mul_high_cycles,
            divide: model.div_cycles,
            simple: model.simple_cycles,
        };
        let scheduled = schedule(&body, weights);
        let before = cycles_for_program(&body, &model);
        let after = cycles_for_program(&scheduled, &model);
        assert!(after <= before, "{}: {after} > {before}", model.name);
        // Semantics preserved.
        for x in [0u64, 9, 1994, u32::MAX as u64] {
            assert_eq!(scheduled.eval(&[x]).unwrap(), body.eval(&[x]).unwrap());
        }
    }
}

#[test]
fn machine_tuned_codegen_beats_or_matches_generic() {
    for model in table_1_1().into_iter().filter(|m| m.bits == 32) {
        let desc = MachineDesc {
            width: 32,
            mul_cycles: model.mul_high_cycles,
            div_cycles: model.div_cycles,
            caps: TargetCaps::FULL,
            wide_registers: false,
        };
        for d in [3u64, 10, 100, 641] {
            let tuned = gen_unsigned_div_tuned(d, &desc).unwrap();
            let generic = udiv32(d);
            let tc = cycles_for_program(&tuned, &model);
            let gc = cycles_for_program(&generic, &model);
            assert!(tc <= gc, "{} d={d}: tuned {tc} > generic {gc}", model.name);
            for n in [0u64, d - 1, d, 1 << 31, u32::MAX as u64] {
                assert_eq!(
                    tuned.eval1(&[n]).unwrap(),
                    n / d,
                    "{} n={n} d={d}",
                    model.name
                );
            }
        }
    }
}
