//! `Program::eval_lanes` is the interpreter: it evaluates a batch of
//! inputs column by column, and `eval`, `eval_with` and `eval1` are its
//! one-lane calls. Every lane must agree with a one-input
//! `Program::eval_with` call on that lane's arguments, in values, errors
//! and `ir.eval` trace events. `Program::eval1` evaluates single-result
//! programs in a stack buffer (with a heap fallback for long programs);
//! it must agree with `Program::eval(..)[0]` in the same three ways.

use std::sync::Arc;

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv::testkit::directed_unsigned_dividends;
use magicdiv::{Fault, FaultKind, FaultLayer};
use magicdiv_ir::{
    apply_mutation, compile, lower_plan, mask, mutations, optimize, Builder, EvalError,
    EvalOptions, Op, Program, LANES,
};
use magicdiv_trace::{install, CaptureSink, Event};

/// Every single-result lowering at every machine width, for each
/// divisor in {1, 3, 7, 10, 641, 2^(w-1), 2^w - 1} the shape accepts.
fn lowered_programs() -> Vec<Program> {
    let mut plans: Vec<DivPlan> = Vec::new();
    for w in [8u32, 16, 32, 64] {
        let top = mask(w);
        for d in [1u64, 3, 7, 10, 641, 1 << (w - 1), top] {
            if d > top {
                continue;
            }
            let (du, ds) = (u128::from(d), i128::from(d));
            plans.extend(UdivPlan::new(du, w).ok().map(DivPlan::from));
            if d <= top >> 1 {
                plans.push(SdivPlan::new(ds, w).unwrap().into());
                plans.push(FloorPlan::new(ds, w).unwrap().into());
                plans.extend(ExactPlan::new_signed(ds, w).ok().map(DivPlan::from));
            }
            plans.extend(ExactPlan::new_unsigned(du, w).ok().map(DivPlan::from));
            for r in [UremPlan::new_direct(du, w), UremPlan::new(du, w)] {
                plans.extend(r.ok().map(DivPlan::from));
            }
            plans.extend(DivisibilityPlan::new(du, w).ok().map(DivPlan::from));
        }
    }
    plans.iter().map(|&p| compile(p).unwrap()).collect()
}

/// `len` chained additions computing `(len + 1) * n`; at 100 the program
/// is longer than `eval1`'s stack buffer.
fn chained_adds(len: usize) -> Program {
    let mut b = Builder::new(32, 1);
    let mut acc = b.arg(0);
    for _ in 0..len {
        acc = b.push(Op::Add(acc, b.arg(0)));
    }
    b.finish([acc])
}

/// Directed boundaries plus seeded random words at the program's width.
fn inputs(width: u32, seed: u64) -> Vec<u64> {
    let m = mask(width);
    let mut v = vec![0, 1, 2, 3, 7, 10, 641, m >> 1, (m >> 1) + 1, m - 1, m];
    let mut s = seed;
    for _ in 0..64 {
        // SplitMix64.
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        v.push((z ^ (z >> 31)) & m);
    }
    v
}

fn first(p: &Program, args: &[u64]) -> Result<u64, EvalError> {
    p.eval(args).map(|out| out[0])
}

#[test]
fn eval1_matches_eval_on_every_lowered_shape() {
    let progs = lowered_programs();
    assert!(progs.len() > 100, "only {} programs", progs.len());
    for (k, p) in progs.iter().enumerate() {
        for n in inputs(p.width(), k as u64) {
            assert_eq!(p.eval1(&[n]), first(p, &[n]), "{p} n={n}");
        }
    }
}

#[test]
fn eval1_falls_back_to_the_heap_for_long_programs() {
    let p = chained_adds(100);
    for n in inputs(32, 100) {
        let got = p.eval1(&[n]);
        assert_eq!(got, first(&p, &[n]), "n={n}");
        assert_eq!(got, Ok(n.wrapping_mul(101) & mask(32)), "n={n}");
    }
    assert_eq!(chained_adds(5).eval1(&[3]), Ok(18));
}

#[test]
fn eval1_errors_match_eval() {
    for p in [chained_adds(5), chained_adds(100)] {
        assert_eq!(
            p.eval1(&[]),
            Err(EvalError::ArgCount {
                expected: 1,
                got: 0
            })
        );
        for args in [&[][..], &[1, 2]] {
            assert_eq!(p.eval1(args), first(&p, args));
        }
    }
    // A divide by zero reports the faulting instruction in both buffers.
    for pad in [0usize, 100] {
        let mut b = Builder::new(16, 2);
        let mut acc = b.arg(0);
        for _ in 0..pad {
            acc = b.push(Op::Add(acc, b.arg(0)));
        }
        let q = b.push(Op::DivU(acc, b.arg(1)));
        let p = b.finish([q]);
        let err = p.eval1(&[5, 0]);
        assert_eq!(err, Err(EvalError::DivideByZero { at: 2 + pad }));
        assert_eq!(err, first(&p, &[5, 0]));
    }
}

#[test]
fn eval1_rejects_multi_result_programs() {
    let mut b = Builder::new(32, 2);
    let q = b.push(Op::DivU(b.arg(0), b.arg(1)));
    let r = b.push(Op::RemU(b.arg(0), b.arg(1)));
    let p = b.finish([q, r]);
    let err = EvalError::ResultCount {
        expected: 1,
        got: 2,
    };
    let want = Err(err);
    assert_eq!(p.eval1(&[1234, 10]), want);
    // Checked before evaluation: even a zero divisor is not reached.
    assert_eq!(p.eval1(&[1234, 0]), want);

    let dword = lower_plan(&DwordPlan::new(10, 32).unwrap().into()).unwrap();
    assert_eq!(optimize(&dword).eval1(&[0, 1234]), want);

    let fault: Fault = err.into();
    assert_eq!(fault.layer, FaultLayer::IrInterp);
    assert!(matches!(fault.kind, FaultKind::BadProgram(_)), "{fault:?}");
    assert_eq!(fault.at, None);
    assert_eq!(err.to_string(), "expected 1 result values, got 2");
}

#[test]
fn eval1_emits_the_same_trace_events_as_eval() {
    let mut progs = lowered_programs();
    progs.push(chained_adds(100));
    for p in &progs {
        let n = mask(p.width()) / 3;
        let via_eval1 = Arc::new(CaptureSink::new());
        {
            let _g = install(via_eval1.clone());
            p.eval1(&[n]).unwrap();
        }
        let via_eval = Arc::new(CaptureSink::new());
        {
            let _g = install(via_eval.clone());
            p.eval(&[n]).unwrap();
        }
        let events = via_eval1.named("ir.eval");
        assert_eq!(events.len(), 1, "{p}");
        assert_eq!(events, via_eval.named("ir.eval"), "{p}");
    }
}

/// Every `lower_plan` shape at `width` — the single-result ones for each
/// divisor in {1, 3, 7, 10, 641, 2^(w-1), 2^w - 1} the shape accepts,
/// plus the two-argument, two-result doubleword division for a few
/// divisors — as raw and optimized programs.
fn lane_programs(width: u32) -> Vec<Program> {
    let top = mask(width);
    let mut plans: Vec<DivPlan> = Vec::new();
    for d in [1u64, 3, 7, 10, 641, 1 << (width - 1), top] {
        if d > top {
            continue;
        }
        let (du, ds) = (u128::from(d), i128::from(d));
        plans.extend(UdivPlan::new(du, width).ok().map(DivPlan::from));
        if d <= top >> 1 {
            plans.push(SdivPlan::new(ds, width).unwrap().into());
            plans.push(SdivPlan::new(-ds, width).unwrap().into());
            plans.push(FloorPlan::new(ds, width).unwrap().into());
            plans.push(FloorPlan::new(-ds, width).unwrap().into());
            plans.extend(ExactPlan::new_signed(ds, width).ok().map(DivPlan::from));
        }
        plans.extend(ExactPlan::new_unsigned(du, width).ok().map(DivPlan::from));
        for r in [UremPlan::new_direct(du, width), UremPlan::new(du, width)] {
            plans.extend(r.ok().map(DivPlan::from));
        }
        plans.extend(DivisibilityPlan::new(du, width).ok().map(DivPlan::from));
        if [3, 10, top].contains(&d) {
            plans.push(DwordPlan::new(du, width).unwrap().into());
        }
    }
    plans
        .iter()
        .flat_map(|p| {
            let raw = lower_plan(p).unwrap();
            [optimize(&raw), raw]
        })
        .collect()
}

/// Hand-built programs whose lanes fault: every hardware division op,
/// fed its operands straight from the two arguments, then one more
/// instruction after the division so a fuel limit can land either side.
fn dividing_programs(width: u32) -> Vec<Program> {
    let ops: [fn(magicdiv_ir::Reg, magicdiv_ir::Reg) -> Op; 4] =
        [Op::DivU, Op::RemU, Op::DivS, Op::RemS];
    ops.iter()
        .map(|op| {
            let mut b = Builder::new(width, 2);
            let q = b.push(op(b.arg(0), b.arg(1)));
            let s = b.push(Op::Add(q, b.arg(1)));
            b.finish([q, s])
        })
        .collect()
}

/// Argument tuples for `p`: `inputs` itself for one argument; for two,
/// each input paired with another from the list, with the second
/// arguments 0, 1, -1, `MAX` and `MIN` (a zero divisor faults, `MIN` by
/// -1 traps), and as the divisor of `MIN`.
fn arg_tuples(p: &Program, inputs: &[u64]) -> Vec<Vec<u64>> {
    let m = mask(p.width());
    match p.arg_count() {
        1 => inputs.iter().map(|&n| vec![n]).collect(),
        2 => {
            let special = [0, 1, m, m >> 1, (m >> 1) + 1];
            let mut out: Vec<Vec<u64>> = Vec::new();
            for (i, &a) in inputs.iter().enumerate() {
                out.push(vec![a, inputs[(i * 7 + 3) % inputs.len()]]);
                out.extend(special.iter().map(|&b| vec![a, b]));
                out.push(vec![(m >> 1) + 1, a]);
            }
            out
        }
        k => panic!("{k}-argument program"),
    }
}

/// Captures the trace events `f` emits.
fn events_of(f: impl FnOnce()) -> Vec<Event> {
    let sink = Arc::new(CaptureSink::new());
    {
        let _g = install(sink.clone());
        f();
    }
    sink.events()
}

/// Evaluates `tuples` through `eval_lanes` in batches of `lanes` and
/// checks every lane against a one-input `eval_with` call: the same
/// values or the same error, and the same `ir.eval` events.
fn assert_lanes_match(p: &Program, tuples: &[Vec<u64>], opts: &EvalOptions, lanes: usize) {
    assert_lanes_match_traced(p, tuples, opts, lanes, true);
}

/// [`assert_lanes_match`], comparing the trace events only when `traced`
/// (capturing one event per lane dominates the cost of a large sweep).
fn assert_lanes_match_traced(
    p: &Program,
    tuples: &[Vec<u64>],
    opts: &EvalOptions,
    lanes: usize,
    traced: bool,
) {
    let k = p.arg_count() as usize;
    let results = p.results().len();
    for batch in tuples.chunks(lanes) {
        let l = batch.len();
        let mut args = vec![0u64; k * l];
        for (lane, tuple) in batch.iter().enumerate() {
            for (arg, &v) in tuple.iter().enumerate() {
                args[arg * l + lane] = v;
            }
        }
        let mut out = vec![0u64; results * l];
        let mut status = vec![Ok(()); l];
        let mut want = Vec::new();
        if traced {
            let lane_events = events_of(|| {
                p.eval_lanes(&args, opts, &mut out, &mut status);
            });
            let one_events = events_of(|| {
                want = batch.iter().map(|t| p.eval_with(t, opts)).collect();
            });
            assert_eq!(lane_events, one_events, "{p} {opts:?}");
        } else {
            p.eval_lanes(&args, opts, &mut out, &mut status);
            want = batch.iter().map(|t| p.eval_with(t, opts)).collect();
        }
        for (lane, (tuple, want)) in batch.iter().zip(&want).enumerate() {
            let got = status[lane].map(|()| (0..results).map(|r| out[r * l + lane]).collect());
            assert_eq!(&got, want, "{p} args={tuple:?} {opts:?}");
        }
    }
}

/// Directed dividends plus seeded random words at `width`.
fn directed_and_random(width: u32, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = directed_unsigned_dividends(641.min(u128::from(mask(width))), width)
        .into_iter()
        .map(|n| n as u64)
        .collect();
    v.extend(inputs(width, seed));
    v
}

#[test]
fn lanes_match_one_input_eval_on_every_shape_at_w8() {
    let every: Vec<u64> = (0..=255).collect();
    let progs = lane_programs(8);
    assert!(progs.len() > 50, "only {} programs", progs.len());
    for p in &progs {
        assert_lanes_match(p, &arg_tuples(p, &every), &EvalOptions::default(), LANES);
    }
}

#[test]
fn lanes_match_one_input_eval_at_w16_w32_w64() {
    for width in [16u32, 32, 64] {
        for (k, p) in lane_programs(width).iter().enumerate() {
            let tuples = arg_tuples(p, &directed_and_random(width, k as u64));
            assert_lanes_match(p, &tuples, &EvalOptions::default(), LANES);
        }
    }
}

#[test]
fn lanes_match_one_input_eval_on_mutants() {
    let trap = EvalOptions {
        fuel: Some(10_000),
        trap_signed_overflow: true,
    };
    for width in [8u32, 16, 32, 64] {
        // The optimized programs: the code that runs.
        for (k, p) in lane_programs(width).iter().step_by(2).enumerate() {
            // Every input at w8; the directed words and a few random ones
            // otherwise (a mutant's wrong lanes show on the boundaries).
            let ns: Vec<u64> = if width == 8 && p.arg_count() == 1 {
                (0..=255).collect()
            } else {
                inputs(width, k as u64).into_iter().take(24).collect()
            };
            for m in mutations(p) {
                let mutant = apply_mutation(p, m).unwrap();
                let tuples = arg_tuples(&mutant, &ns);
                for opts in [EvalOptions::default(), trap] {
                    assert_lanes_match_traced(&mutant, &tuples, &opts, LANES, false);
                }
                // Events on a slice: one batch of each mutant.
                let head = &tuples[..LANES.min(tuples.len())];
                assert_lanes_match(&mutant, head, &trap, LANES);
            }
        }
    }
}

#[test]
fn faulting_lanes_report_what_one_input_eval_reports() {
    for width in [8u32, 16, 32, 64] {
        let m = mask(width);
        let min = (m >> 1) + 1;
        let ns = [0, 1, 2, 7, m, m - 1, m >> 1, min, min + 1];
        for p in dividing_programs(width) {
            // Every pair, so zero divisors and MIN / -1 land in every lane
            // position, mixed with lanes that succeed.
            let tuples: Vec<Vec<u64>> = ns
                .iter()
                .flat_map(|&a| ns.iter().map(move |&b| vec![a, b]))
                .collect();
            for trap_signed_overflow in [false, true] {
                for fuel in [None, Some(0), Some(2), Some(3), Some(4), Some(5)] {
                    let opts = EvalOptions {
                        fuel,
                        trap_signed_overflow,
                    };
                    for lanes in [1, 3, LANES, 200] {
                        assert_lanes_match(&p, &tuples, &opts, lanes);
                    }
                }
            }
        }
        // The faults themselves: a zero divisor at the division's index,
        // and MIN / -1 only when trapping.
        let divs = dividing_programs(width);
        let trap = EvalOptions {
            trap_signed_overflow: true,
            ..Default::default()
        };
        let args = [7, min, /* divisors */ 0, m];
        let mut out = [0u64; 4];
        let mut status = [Ok(()); 2];
        divs[2].eval_lanes(&args, &trap, &mut out, &mut status);
        assert_eq!(
            status,
            [
                Err(EvalError::DivideByZero { at: 2 }),
                Err(EvalError::SignedOverflow { at: 2 })
            ]
        );
        divs[2].eval_lanes(&args, &EvalOptions::default(), &mut out, &mut status);
        assert_eq!(status, [Err(EvalError::DivideByZero { at: 2 }), Ok(())]);
        assert_eq!(out[1], min, "MIN / -1 wraps to MIN");
    }
}

#[test]
fn lanes_report_argument_count_errors_per_lane() {
    let p = chained_adds(5);
    for lanes in [1usize, 4] {
        // Two argument columns for a one-argument program.
        let args = vec![1u64; 2 * lanes];
        let mut out = vec![0u64; lanes];
        let mut status = vec![Ok(()); lanes];
        let events =
            events_of(|| p.eval_lanes(&args, &EvalOptions::default(), &mut out, &mut status));
        assert!(events.is_empty());
        assert!(status
            .iter()
            .all(|s| *s == p.eval_with(&[1, 1], &EvalOptions::default()).map(|_| ())));
        assert_eq!(
            status[0],
            Err(EvalError::ArgCount {
                expected: 1,
                got: 2
            })
        );
    }
    // No lanes: nothing to do, nothing emitted.
    let events = events_of(|| p.eval_lanes(&[], &EvalOptions::default(), &mut [], &mut []));
    assert!(events.is_empty());
}

#[test]
fn lanes_longer_than_the_one_lane_stack_buffer() {
    let p = chained_adds(100);
    let ns = inputs(32, 100);
    assert_lanes_match(&p, &arg_tuples(&p, &ns), &EvalOptions::default(), LANES);
    let starved = EvalOptions {
        fuel: Some(50),
        ..Default::default()
    };
    assert_lanes_match(&p, &arg_tuples(&p, &ns), &starved, 7);
}

/// The lane core against one-input calls over every input at width 16
/// (for the doubleword programs: every low word under a spread of high
/// words). Run in release by `scripts/check.sh`.
#[test]
#[ignore = "exhaustive at width 16; run in release by scripts/check.sh"]
fn lanes_match_one_input_eval_exhaustive_w16() {
    let every: Vec<u64> = (0..=0xffff).collect();
    for p in lane_programs(16) {
        let tuples: Vec<Vec<u64>> = match p.arg_count() {
            1 => every.iter().map(|&n| vec![n]).collect(),
            _ => [0u64, 1, 2, 9, 0x7fff, 0xfffe]
                .iter()
                .flat_map(|&hi| every.iter().map(move |&lo| vec![hi, lo]))
                .collect(),
        };
        assert_lanes_match_traced(&p, &tuples, &EvalOptions::default(), LANES, false);
    }
}
