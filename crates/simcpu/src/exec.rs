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
use magicdiv_ir::{compile, Op, OpClass, Program};

use crate::models::{TimingModel, TABLE_1_1};

/// Prices a straight-line program in cycles under `model`.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::UdivPlan;
/// use magicdiv_codegen::gen_unsigned_div_hw;
/// use magicdiv_ir::compile;
/// use magicdiv_simcpu::{cycles_for_program, find_model};
///
/// let pentium = find_model("pentium").unwrap();
/// let magic = cycles_for_program(&compile(UdivPlan::new(10, 32)?)?, &pentium);
/// let hw = cycles_for_program(&gen_unsigned_div_hw(32), &pentium);
/// assert!(magic < hw, "magic {magic} >= divide {hw}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cycles_for_program(prog: &Program, model: &TimingModel) -> u64 {
    decode(prog).run(model, |_, _, _| {})
}

/// Prices a division *plan* in cycles under `model`: the plan is
/// compiled to its optimized IR sequence ([`magicdiv_ir::compile`],
/// exactly what `magicdiv-codegen` emits for the same divisor) and priced
/// with [`cycles_for_program`].
///
/// This is the estimator's entry point for "what would dividing by this
/// constant cost on machine X?" without the caller assembling a program.
/// An unpriceable plan is reported as a typed [`Fault`] (layer
/// [`FaultLayer::SimCpu`]).
///
/// # Errors
///
/// The [`magicdiv_ir::compile`] fault kinds, at this layer:
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
/// let by_10 = DivPlan::from(UdivPlan::new(10, 32)?);
/// let by_1024 = DivPlan::from(UdivPlan::new(1024, 32)?);
/// assert!(try_cycles_for_plan(&by_1024, &pentium)? <= try_cycles_for_plan(&by_10, &pentium)?);
///
/// let wide = DivPlan::from(UdivPlan::new(10, 128)?);
/// let fault = try_cycles_for_plan(&wide, &pentium).unwrap_err();
/// assert_eq!(fault.layer, FaultLayer::SimCpu);
/// assert_eq!(fault.kind, FaultKind::UnsupportedWidth { width: 128 });
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn try_cycles_for_plan(plan: &DivPlan, model: &TimingModel) -> Result<u64, Fault> {
    let prog = compile(*plan).map_err(simcpu_fault)?;
    Ok(cycles_for_lowered_plan(plan, &prog, model))
}

/// A lowering fault, reported at this layer.
fn simcpu_fault(kind: FaultKind) -> Fault {
    Fault {
        layer: FaultLayer::SimCpu,
        kind,
        at: None,
    }
}

/// Prices `prog`, the compiled `plan`, under `model` and
/// reports the total as a `simcpu.plan_cycles` event. This is
/// [`try_cycles_for_plan`] for a caller that already holds the program,
/// so that the program it prices is the one it runs.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv_ir::compile;
/// use magicdiv_simcpu::{cycles_for_lowered_plan, find_model, try_cycles_for_plan};
///
/// let r4000 = find_model("R4000").unwrap();
/// let plan = DivPlan::from(UdivPlan::new(7, 32).unwrap());
/// let prog = compile(plan).unwrap();
/// assert_eq!(
///     cycles_for_lowered_plan(&plan, &prog, &r4000),
///     try_cycles_for_plan(&plan, &r4000).unwrap()
/// );
/// ```
pub fn cycles_for_lowered_plan(plan: &DivPlan, prog: &Program, model: &TimingModel) -> u64 {
    price_decoded_plan(plan, prog, &mut decode(prog), model)
}

/// [`cycles_for_lowered_plan`] with `prog` already decoded, so one
/// decode serves every model [`predictions_for_plan`] prices.
fn price_decoded_plan(
    plan: &DivPlan,
    prog: &Program,
    decoded: &mut Decoded,
    model: &TimingModel,
) -> u64 {
    let cycles = decoded.run(model, |_, _, _| {});
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
    /// Predicted cycle total from [`try_cycles_for_plan`].
    pub cycles: u64,
}

/// Prices `plan` under **every** Table 1.1 model in one call, in the
/// paper's row order. This is the joining surface for measured-vs-
/// predicted calibration: the plan is compiled and decoded once and that
/// program is priced under every model, each total labelled with its
/// model name.
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
    let prog = compile(*plan).map_err(simcpu_fault)?;
    let mut decoded = decode(&prog);
    Ok(TABLE_1_1
        .iter()
        .map(|model| PlanPrediction {
            model: model.name,
            cycles: price_decoded_plan(plan, &prog, &mut decoded, model),
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
/// use magicdiv::plan::UdivPlan;
/// use magicdiv_ir::compile;
/// use magicdiv_simcpu::{find_model, trace_program};
///
/// let prog = compile(UdivPlan::new(10, 32)?)?;
/// let trace = trace_program(&prog, &find_model("R3000").unwrap());
/// assert!(!trace.is_empty());
/// assert!(trace.windows(2).all(|w| w[0].issue <= w[1].issue)); // in order
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_program(prog: &Program, model: &TimingModel) -> Vec<InstrTiming> {
    let mut trace = Vec::new();
    decode(prog).run(model, |index, issue, complete| {
        trace.push(InstrTiming {
            index,
            text: format!("{:?}", prog.insts()[index]),
            issue,
            complete,
        });
    });
    trace
}

/// One executed instruction as the scheduler reads it, whatever the
/// model.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Instruction index in the program.
    index: u32,
    /// Its cost class.
    class: OpClass,
    /// Instruction indices of its operands (a unary operation repeats its
    /// one operand).
    operands: [u32; 2],
    /// A remainder of the same operands as the latest divide: HI/LO
    /// fusion makes it a register read, priced as a simple operation.
    fused_rem: bool,
}

/// A program decoded once for the scheduler: its executed instructions
/// (constants and arguments are free and left out) in program order.
/// [`Decoded::run`] prices it under one model; every pricing entry point
/// is [`decode`] followed by one `run` per model.
#[derive(Debug)]
struct Decoded {
    steps: Vec<Step>,
    /// Cycle each instruction's result is available, by instruction
    /// index. A run writes each step's slot before any later step reads
    /// it, so runs share the buffer; constants and arguments keep 0.
    ready: Vec<u64>,
}

/// Decodes `prog` for [`Decoded::run`].
fn decode(prog: &Program) -> Decoded {
    let insts = prog.insts();
    let mut steps = Vec::with_capacity(insts.len());
    let mut last_div: Option<&Op> = None;
    for (i, op) in insts.iter().enumerate() {
        let class = op.class();
        if matches!(class, OpClass::Nop) {
            continue;
        }
        let fused_rem = match (op, last_div) {
            (Op::RemU(a, b), Some(Op::DivU(x, y))) => a == x && b == y,
            (Op::RemS(a, b), Some(Op::DivS(x, y))) => a == x && b == y,
            _ => false,
        };
        if matches!(op, Op::DivU(..) | Op::DivS(..)) {
            last_div = Some(op);
        }
        let mut operands = op.operands().map(|r| r.index() as u32);
        let a = operands.next().unwrap_or(0);
        let b = operands.next().unwrap_or(a);
        steps.push(Step {
            index: i as u32,
            class,
            operands: [a, b],
            fused_rem,
        });
    }
    Decoded {
        steps,
        ready: vec![0; insts.len()],
    }
}

impl Decoded {
    /// Simulates the decoded program under `model`, calls
    /// `on_inst(index, issue, complete)` once per executed instruction,
    /// and returns the cycle the last result is available. Emits the
    /// `simcpu.cycles` event.
    fn run(&mut self, model: &TimingModel, mut on_inst: impl FnMut(usize, u64, u64)) -> u64 {
        let tracing = magicdiv_trace::enabled();
        let simple = u64::from(model.simple_cycles);
        // Latency per class, in `OpClass::index` order; constants and
        // arguments never reach the loop.
        let latency = [
            0,
            simple,
            simple,
            simple,
            simple,
            u64::from(model.mul_low_cycles),
            u64::from(model.mul_high_cycles),
            u64::from(model.div_cycles),
        ];
        let mut class_busy = [0u64; 8];
        let ready = &mut self.ready;
        // Earliest cycle at which the next instruction may issue, plus how
        // many issue slots that cycle has already consumed (superscalar
        // machines issue `issue_width` instructions per cycle, in order).
        let mut next_issue = 0u64;
        let mut slots_used = 0u32;
        let issue_width = model.issue_width.max(1);
        let mut finish = 0u64;

        for step in &self.steps {
            let class = step.class.index();
            let lat = if step.fused_rem {
                simple
            } else {
                latency[class]
            };
            if tracing {
                class_busy[class] += lat;
            }
            let [a, b] = step.operands;
            let operands_ready = ready[a as usize].max(ready[b as usize]);
            // Earliest legal issue cycle: the in-order floor (bumped by one
            // when this cycle's issue slots are full) and the data
            // dependences.
            let floor = if slots_used >= issue_width {
                next_issue + 1
            } else {
                next_issue
            };
            let issue = floor.max(operands_ready);
            let complete = issue + lat;
            ready[step.index as usize] = complete;
            finish = finish.max(complete);
            if issue == next_issue {
                slots_used += 1;
            } else {
                next_issue = issue;
                slots_used = 1;
            }
            // Pipelining: only the multiplier is pipelined (when flagged);
            // everything else blocks issue only through data dependences
            // (divides park in HI/LO). Simple ops complete in
            // `simple_cycles` anyway.
            let blocking =
                matches!(step.class, OpClass::MulLow | OpClass::MulHigh) && !model.mul_pipelined;
            if blocking && complete > next_issue {
                // The unit stalls issue until completion; no slots consumed
                // at the completion cycle itself.
                next_issue = complete;
                slots_used = 0;
            }
            on_inst(step.index as usize, issue, complete);
        }
        if tracing {
            magicdiv_trace::event!("simcpu.cycles",
                "model" => model.name,
                "total" => finish,
                "instructions" => self.steps.len(),
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
    use magicdiv::plan::{DivisibilityPlan, DwordPlan, SdivPlan, UdivPlan, UremPlan};
    use magicdiv_codegen::{gen_unsigned_div_hw, gen_unsigned_divrem_hw};
    use magicdiv_ir::Builder;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn magic_beats_divide_on_every_table_row() -> TestResult {
        // The headline claim: the multiply sequence beats the divide on
        // every Table 1.1 machine for d = 10.
        let magic = compile(UdivPlan::new(10, 32)?)?;
        let hw = gen_unsigned_div_hw(32);
        for model in crate::models::table_1_1() {
            let mc = cycles_for_program(&magic, &model);
            let dc = cycles_for_program(&hw, &model);
            assert!(mc < dc, "{}: magic {mc} >= divide {dc}", model.name);
        }
        Ok(())
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
    fn plan_cycles_price_the_compiled_program() -> TestResult {
        // Pricing a plan must agree with pricing the program compiled
        // from it, for every shape on every Table 1.1 timing model.
        let mut plans: Vec<DivPlan> = Vec::new();
        for d in [1u128, 2, 3, 7, 10, 641, 60000, 0xffff_ffff] {
            plans.push(UdivPlan::new(d, 32)?.into());
            plans.push(DwordPlan::new(d, 32)?.into());
            plans.push(UremPlan::new(d, 32)?.into());
            plans.push(UremPlan::new_direct(d, 32)?.into());
            plans.push(DivisibilityPlan::new(d, 32)?.into());
        }
        for d in [-10i128, -3, 3, 7, 16] {
            plans.push(SdivPlan::new(d, 32)?.into());
        }
        for model in crate::models::table_1_1() {
            for &plan in &plans {
                assert_eq!(
                    try_cycles_for_plan(&plan, &model)?,
                    cycles_for_program(&compile(plan)?, &model),
                    "{} {plan}",
                    model.name
                );
            }
        }
        Ok(())
    }

    #[test]
    fn divisibility_beats_divide_on_every_table_row() -> TestResult {
        for model in crate::models::table_1_1() {
            let hw = cycles_for_program(&gen_unsigned_div_hw(32), &model);
            for d in [3u128, 10, 641, 60000] {
                let plan = DivPlan::from(DivisibilityPlan::new(d, 32)?);
                let dc = try_cycles_for_plan(&plan, &model)?;
                assert!(dc < hw, "{}: divtest {dc} >= divide {hw}", model.name);
            }
        }
        Ok(())
    }

    #[test]
    fn dword_costs_more_than_single_word_but_less_than_divide() {
        // Fig 8.1 is a longer straight-line sequence than Fig 4.2, yet
        // still beats the hardware doubleword divide where one exists
        // (price the divide as two chained word divides, the usual
        // library fallback).
        let model = find_model("pentium").unwrap();
        let dword = DivPlan::from(DwordPlan::new(10, 32).unwrap());
        let word = DivPlan::from(UdivPlan::new(10, 32).unwrap());
        let dc = try_cycles_for_plan(&dword, &model).unwrap();
        let wc = try_cycles_for_plan(&word, &model).unwrap();
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
    fn loop_scales_linearly() -> TestResult {
        let model = find_model("viking").unwrap();
        let body = compile(UdivPlan::new(10, 32)?)?;
        let one = cycles_for_loop(&body, &model, 1, 3);
        let ten = cycles_for_loop(&body, &model, 10, 3);
        assert_eq!(ten, one * 10);
        Ok(())
    }
}
