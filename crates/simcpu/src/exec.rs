//! The cycle-cost executor: prices an IR program against a
//! [`TimingModel`].
//!
//! The machine model is a single-issue in-order pipeline:
//!
//! * every instruction issues one cycle after the previous one at the
//!   earliest, and only once its operands are ready;
//! * a *pipelined* multiplier (the paper's `p` footnote) lets independent
//!   work proceed during the multiply's latency; non-pipelined multiply
//!   and divide block issue until they complete;
//! * constants and arguments are free (registers are preloaded outside
//!   the loop, as in all the paper's kernels);
//! * a `RemU`/`RemS` immediately reusing the operands of the previous
//!   `DivU`/`DivS` is free, modelling HI/LO-style divide units (MIPS) and
//!   combined `divul`-style instructions (MC68020) that produce both
//!   results with one divide.

use magicdiv::plan::DivPlan;
use magicdiv::{Fault, FaultKind, FaultLayer};
use magicdiv_ir::{lower_plan, optimize, Op, OpClass, Program};

use crate::models::TimingModel;

/// The cycle cost of one operation class under a model, ignoring hazards.
fn latency(model: &TimingModel, op: &Op) -> u64 {
    match op.class() {
        OpClass::Nop => 0,
        OpClass::AddSub | OpClass::Shift | OpClass::BitOp | OpClass::Cmp => {
            model.simple_cycles as u64
        }
        OpClass::MulLow => model.mul_low_cycles as u64,
        OpClass::MulHigh => model.mul_high_cycles as u64,
        OpClass::Div => model.div_cycles as u64,
    }
}

/// Prices a straight-line program in cycles under `model`.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{gen_unsigned_div, gen_unsigned_div_hw};
/// use magicdiv_simcpu::{cycles_for_program, find_model};
///
/// let pentium = find_model("pentium").unwrap();
/// let magic = cycles_for_program(&gen_unsigned_div(10, 32), &pentium);
/// let hw = cycles_for_program(&gen_unsigned_div_hw(32), &pentium);
/// assert!(magic < hw, "magic {magic} >= divide {hw}");
/// ```
pub fn cycles_for_program(prog: &Program, model: &TimingModel) -> u64 {
    schedule(prog, model, |_, _, _, _| {})
}

/// Prices a division *plan* in cycles under `model`: the plan is lowered
/// to its optimized IR sequence (exactly what `magicdiv-codegen` emits
/// for the same divisor) and priced with [`cycles_for_program`].
///
/// This is the estimator's entry point for "what would dividing by this
/// constant cost on machine X?" without the caller assembling a program.
///
/// # Panics
///
/// Panics when the plan's width exceeds 64 (the IR's limit — 128-bit
/// plans have no Table 3.1 encoding to price).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv_simcpu::{cycles_for_plan, find_model};
///
/// let pentium = find_model("pentium").unwrap();
/// let by_10 = DivPlan::from(UdivPlan::new(10, 32).unwrap());
/// let by_1024 = DivPlan::from(UdivPlan::new(1024, 32).unwrap());
/// assert!(cycles_for_plan(&by_1024, &pentium) <= cycles_for_plan(&by_10, &pentium));
/// ```
pub fn cycles_for_plan(plan: &DivPlan, model: &TimingModel) -> u64 {
    try_cycles_for_plan(plan, model).expect("plan width must be 8..=64 (IR limit)")
}

/// Fallible variant of [`cycles_for_plan`] for the differential harness:
/// an unpriceable plan is reported as a typed [`Fault`] (layer
/// [`FaultLayer::SimCpu`]) instead of a panic.
///
/// # Errors
///
/// The [`magicdiv_ir::lower_plan`] fault kinds, at this layer:
/// [`FaultKind::UnsupportedWidth`] when the plan's width exceeds 64 (the
/// IR's limit — 128-bit plans have no Table 3.1 encoding to price), and
/// [`FaultKind::BadProgram`] for a plan kind the lowering does not know.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv::{FaultKind, FaultLayer};
/// use magicdiv_simcpu::{find_model, try_cycles_for_plan};
///
/// let pentium = find_model("pentium").unwrap();
/// let wide = DivPlan::from(UdivPlan::new(10, 128).unwrap());
/// let fault = try_cycles_for_plan(&wide, &pentium).unwrap_err();
/// assert_eq!(fault.layer, FaultLayer::SimCpu);
/// assert_eq!(fault.kind, FaultKind::UnsupportedWidth { width: 128 });
/// ```
pub fn try_cycles_for_plan(plan: &DivPlan, model: &TimingModel) -> Result<u64, Fault> {
    let prog = optimize(&lower_plan(plan).map_err(simcpu_fault)?);
    Ok(price(plan, &prog, model))
}

/// A lowering fault, reported at this layer.
fn simcpu_fault(kind: FaultKind) -> Fault {
    Fault {
        layer: FaultLayer::SimCpu,
        kind,
        at: None,
    }
}

/// Prices `prog`, the lowering of `plan`, under `model` and reports the
/// total as a `simcpu.plan_cycles` event.
fn price(plan: &DivPlan, prog: &Program, model: &TimingModel) -> u64 {
    let cycles = cycles_for_program(prog, model);
    magicdiv_trace::event!("simcpu.plan_cycles",
        "model" => model.name, "strategy" => plan.strategy_name(),
        "width" => plan.width(), "ops" => prog.op_counts().total_executed(),
        "cycles" => cycles, "paper" => "Table 1.1 latencies");
    cycles
}

/// One Table 1.1 model's predicted cycle total for a plan — the unit the
/// calibration layer joins against host-measured timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPrediction {
    /// Table 1.1 model name, exactly as [`TimingModel::name`] spells it.
    pub model: &'static str,
    /// Predicted cycle total from [`cycles_for_plan`].
    pub cycles: u64,
}

/// Prices `plan` under **every** Table 1.1 model in one call, in the
/// paper's row order. This is the joining surface for measured-vs-
/// predicted calibration: the plan is lowered once and that program is
/// priced under every model, each total labelled with its model name.
///
/// # Errors
///
/// Same conditions as [`try_cycles_for_plan`] (width above the IR limit,
/// unknown plan kind): the failure is a property of the plan, not the
/// model, so no model is priced.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv_simcpu::{predictions_for_plan, table_1_1};
///
/// let plan = DivPlan::from(UdivPlan::new(10, 32).unwrap());
/// let preds = predictions_for_plan(&plan).unwrap();
/// assert_eq!(preds.len(), table_1_1().len());
/// assert!(preds.iter().all(|p| p.cycles > 0));
/// ```
pub fn predictions_for_plan(plan: &DivPlan) -> Result<Vec<PlanPrediction>, Fault> {
    let prog = optimize(&lower_plan(plan).map_err(simcpu_fault)?);
    Ok(crate::models::table_1_1()
        .iter()
        .map(|model| PlanPrediction {
            model: model.name,
            cycles: price(plan, &prog, model),
        })
        .collect())
}

/// One instruction's simulated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrTiming {
    /// Instruction index in the program.
    pub index: usize,
    /// Rendered operation (mnemonic + operands).
    pub text: String,
    /// Cycle the instruction issues.
    pub issue: u64,
    /// Cycle its result is available.
    pub complete: u64,
}

/// Simulates `prog` under `model`, returning the issue/complete schedule of
/// every executed instruction (constants and arguments are free and
/// omitted). [`cycles_for_program`] is the max `complete` of this trace.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::gen_unsigned_div;
/// use magicdiv_simcpu::{find_model, trace_program};
///
/// let trace = trace_program(&gen_unsigned_div(10, 32), &find_model("R3000").unwrap());
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[0].issue <= w[1].issue)); // in order
/// ```
pub fn trace_program(prog: &Program, model: &TimingModel) -> Vec<InstrTiming> {
    let mut trace = Vec::new();
    schedule(prog, model, |index, op, issue, complete| {
        trace.push(InstrTiming {
            index,
            text: format!("{op:?}"),
            issue,
            complete,
        });
    });
    trace
}

/// The scheduler behind [`cycles_for_program`] and [`trace_program`]:
/// simulates `prog` under `model`, calls `on_inst(index, op, issue,
/// complete)` once per executed instruction, and returns the cycle the
/// last result is available.
fn schedule(
    prog: &Program,
    model: &TimingModel,
    mut on_inst: impl FnMut(usize, &Op, u64, u64),
) -> u64 {
    let insts = prog.insts();
    let tracing = magicdiv_trace::enabled();
    let mut class_busy = [0u64; 8];
    let mut executed = 0usize;
    let mut ready = vec![0u64; insts.len()];
    // Earliest cycle at which the next instruction may issue, plus how
    // many issue slots that cycle has already consumed (superscalar
    // machines issue `issue_width` instructions per cycle, in order).
    let mut next_issue = 0u64;
    let mut slots_used = 0u32;
    let issue_width = model.issue_width.max(1);
    let mut finish = 0u64;
    let mut last_div: Option<(usize, &Op)> = None;

    for (i, op) in insts.iter().enumerate() {
        if matches!(op.class(), OpClass::Nop) {
            ready[i] = 0;
            continue;
        }
        // HI/LO fusion: a remainder right after the matching divide is a
        // register read.
        let fused_rem = match (op, last_div) {
            (Op::RemU(a, b), Some((_, Op::DivU(x, y)))) if *a == *x && *b == *y => true,
            (Op::RemS(a, b), Some((_, Op::DivS(x, y)))) if *a == *x && *b == *y => true,
            _ => false,
        };
        let lat = if fused_rem {
            model.simple_cycles as u64
        } else {
            latency(model, op)
        };
        if tracing {
            class_busy[op.class().index()] += lat;
        }
        let operands_ready = op.operands().map(|r| ready[r.index()]).max().unwrap_or(0);
        // Earliest legal issue cycle: the in-order floor (bumped by one
        // when this cycle's issue slots are full) and the data dependences.
        let floor = if slots_used >= issue_width {
            next_issue + 1
        } else {
            next_issue
        };
        let issue = floor.max(operands_ready);
        ready[i] = issue + lat;
        finish = finish.max(ready[i]);
        if issue == next_issue {
            slots_used += 1;
        } else {
            next_issue = issue;
            slots_used = 1;
        }
        // Pipelining: only the multiplier is pipelined (when flagged);
        // everything else blocks issue until done. Simple ops complete in
        // `simple_cycles` anyway.
        let blocking = match op.class() {
            OpClass::MulLow | OpClass::MulHigh => !model.mul_pipelined,
            OpClass::Div => false, // divides park in HI/LO on pipelined parts too; treat as blocking only through data deps
            _ => false,
        };
        if blocking && ready[i] > next_issue {
            // The unit stalls issue until completion; no slots consumed
            // at the completion cycle itself.
            next_issue = ready[i];
            slots_used = 0;
        }
        if matches!(op, Op::DivU(..) | Op::DivS(..)) {
            last_div = Some((i, op));
        }
        executed += 1;
        on_inst(i, op, issue, ready[i]);
    }
    if tracing {
        magicdiv_trace::event!("simcpu.cycles",
            "model" => model.name,
            "total" => finish,
            "instructions" => executed,
            "add_sub_busy" => class_busy[OpClass::AddSub.index()],
            "shift_busy" => class_busy[OpClass::Shift.index()],
            "bit_op_busy" => class_busy[OpClass::BitOp.index()],
            "cmp_busy" => class_busy[OpClass::Cmp.index()],
            "mul_low_busy" => class_busy[OpClass::MulLow.index()],
            "mul_high_busy" => class_busy[OpClass::MulHigh.index()],
            "div_busy" => class_busy[OpClass::Div.index()],
            "paper" => "Table 1.1 latencies, single-issue in-order");
    }
    finish
}

/// Prices a loop kernel: `iterations` executions of `body` plus
/// `overhead_per_iter` simple operations (store, pointer bump, branch) per
/// iteration.
///
/// # Examples
///
/// ```
/// use magicdiv_codegen::{radix_body, RadixStyle};
/// use magicdiv_simcpu::{cycles_for_loop, find_model};
///
/// let viking = find_model("viking").unwrap();
/// let body = radix_body(32, RadixStyle::Magic);
/// let ten_digits = cycles_for_loop(&body, &viking, 10, 3);
/// assert!(ten_digits > 0);
/// ```
pub fn cycles_for_loop(
    body: &Program,
    model: &TimingModel,
    iterations: u64,
    overhead_per_iter: u64,
) -> u64 {
    let per_iter = cycles_for_program(body, model) + overhead_per_iter * model.simple_cycles as u64;
    per_iter * iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::find_model;
    use magicdiv_codegen::{gen_unsigned_div, gen_unsigned_div_hw, gen_unsigned_divrem_hw};
    use magicdiv_ir::Builder;

    #[test]
    fn magic_beats_divide_on_every_table_row() {
        // The headline claim: the multiply sequence beats the divide on
        // every Table 1.1 machine for d = 10.
        let magic = gen_unsigned_div(10, 32);
        let hw = gen_unsigned_div_hw(32);
        for model in crate::models::table_1_1() {
            let mc = cycles_for_program(&magic, &model);
            let dc = cycles_for_program(&hw, &model);
            assert!(mc < dc, "{}: magic {mc} >= divide {dc}", model.name);
        }
    }

    #[test]
    fn rem_after_div_is_fused() {
        let model = find_model("R3000").unwrap();
        let divrem = gen_unsigned_divrem_hw(32);
        let single = gen_unsigned_div_hw(32);
        let both = cycles_for_program(&divrem, &model);
        let one = cycles_for_program(&single, &model);
        assert!(
            both <= one + model.simple_cycles as u64 + 1,
            "both={both} one={one}"
        );
    }

    #[test]
    fn pipelined_multiplier_overlaps_independent_work() {
        // mul followed by 5 independent adds: pipelined machines hide the
        // adds under the multiply.
        let build = || {
            let mut b = Builder::new(32, 2);
            let m = b.push(magicdiv_ir::Op::MulUH(b.arg(0), b.arg(1)));
            let mut acc = b.arg(1);
            for _ in 0..5 {
                acc = b.push(magicdiv_ir::Op::Add(acc, acc));
            }
            let merged = b.push(magicdiv_ir::Op::Add(m, acc));
            b.finish([merged])
        };
        let prog = build();
        let r3000 = find_model("R3000").unwrap(); // pipelined, mul 12
        let m68020 = find_model("68020").unwrap(); // not pipelined, mul 42
        let piped = cycles_for_program(&prog, &r3000);
        let blocked = cycles_for_program(&prog, &m68020);
        // Pipelined: ~ mul latency + 1 (adds hidden); blocked: mul + adds.
        assert!(piped <= 12 + 3, "piped={piped}");
        assert!(blocked >= 42 + 5, "blocked={blocked}");
    }

    #[test]
    fn plan_cycles_match_generated_code() {
        // Pricing a plan must agree with pricing the code generated for
        // the same divisor — both go through the shared lowering.
        let model = find_model("pentium").unwrap();
        for d in [1u64, 2, 3, 7, 10, 641, 60000] {
            let plan = magicdiv::plan::DivPlan::from(
                magicdiv::plan::UdivPlan::new(d as u128, 32).unwrap(),
            );
            assert_eq!(
                cycles_for_plan(&plan, &model),
                cycles_for_program(&gen_unsigned_div(d, 32), &model),
                "d={d}"
            );
        }
        for d in [-10i64, -3, 3, 7, 16] {
            let plan = magicdiv::plan::DivPlan::from(
                magicdiv::plan::SdivPlan::new(d as i128, 32).unwrap(),
            );
            assert_eq!(
                cycles_for_plan(&plan, &model),
                cycles_for_program(&magicdiv_codegen::gen_signed_div(d, 32), &model),
                "d={d}"
            );
        }
    }

    #[test]
    fn dword_plan_cycles_match_generated_code() {
        // Fig 8.1 pricing goes through the same lowering codegen uses, on
        // every Table 1.1 timing model.
        for model in crate::models::table_1_1() {
            for d in [1u64, 3, 10, 641, 0xffff_ffff] {
                let plan = magicdiv::plan::DivPlan::from(
                    magicdiv::plan::DwordPlan::new(d as u128, 32).unwrap(),
                );
                assert_eq!(
                    cycles_for_plan(&plan, &model),
                    cycles_for_program(&magicdiv_codegen::gen_dword_div(d, 32), &model),
                    "{} d={d}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn urem_and_divisibility_price_on_every_table_row() {
        // Both new shapes must be priceable on every Table 1.1 model,
        // agreeing with the code generated for the same plan, and both
        // must beat the hardware remainder/divide path.
        for model in crate::models::table_1_1() {
            for d in [3u64, 10, 641, 60000] {
                let direct = magicdiv::plan::UremPlan::new_direct(d as u128, 32).unwrap();
                let mulback = magicdiv::plan::UremPlan::new(d as u128, 32).unwrap();
                for (p, prog) in [
                    (direct, magicdiv_codegen::gen_urem_direct(d, 32)),
                    (mulback, magicdiv_codegen::gen_unsigned_rem(d, 32)),
                ] {
                    assert_eq!(
                        cycles_for_plan(&magicdiv::plan::DivPlan::Urem(p), &model),
                        cycles_for_program(&prog, &model),
                        "{} d={d}",
                        model.name
                    );
                }
                let divtest = magicdiv::plan::DivisibilityPlan::new(d as u128, 32).unwrap();
                let dc = cycles_for_plan(&magicdiv::plan::DivPlan::Divisibility(divtest), &model);
                assert_eq!(
                    dc,
                    cycles_for_program(&magicdiv_codegen::gen_divisibility_test(d, 32), &model),
                    "{} divtest d={d}",
                    model.name
                );
                let hw = cycles_for_program(&gen_unsigned_div_hw(32), &model);
                assert!(dc < hw, "{}: divtest {dc} >= divide {hw}", model.name);
            }
        }
    }

    #[test]
    fn dword_costs_more_than_single_word_but_less_than_divide() {
        // Fig 8.1 is a longer straight-line sequence than Fig 4.2, yet
        // still beats the hardware doubleword divide where one exists
        // (price the divide as two chained word divides, the usual
        // library fallback).
        let model = find_model("pentium").unwrap();
        let dword = magicdiv::plan::DivPlan::from(magicdiv::plan::DwordPlan::new(10, 32).unwrap());
        let word = magicdiv::plan::DivPlan::from(magicdiv::plan::UdivPlan::new(10, 32).unwrap());
        let dc = cycles_for_plan(&dword, &model);
        let wc = cycles_for_plan(&word, &model);
        let hw = 2 * cycles_for_program(&gen_unsigned_div_hw(32), &model);
        assert!(wc < dc, "word {wc} >= dword {dc}");
        assert!(dc < hw, "dword {dc} >= 2x divide {hw}");
    }

    #[test]
    fn constants_are_free() {
        let mut b = Builder::new(32, 1);
        let c = b.constant(1234);
        let s = b.push(magicdiv_ir::Op::Add(b.arg(0), c));
        let prog = b.finish([s]);
        let model = find_model("viking").unwrap();
        assert_eq!(cycles_for_program(&prog, &model), 1);
    }

    #[test]
    fn loop_scales_linearly() {
        let model = find_model("viking").unwrap();
        let body = gen_unsigned_div(10, 32);
        let one = cycles_for_loop(&body, &model, 1, 3);
        let ten = cycles_for_loop(&body, &model, 10, 3);
        assert_eq!(ten, one * 10);
    }
}
