//! `Program::eval1` evaluates single-result programs in a stack buffer
//! (with a heap fallback for long programs); it must agree with
//! `Program::eval(..)[0]` in values, errors and trace events.

use std::sync::Arc;

use magicdiv::plan::{
    DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv::{Fault, FaultKind, FaultLayer};
use magicdiv_ir::{
    lower_divisibility, lower_dword_div, lower_exact_div, lower_floor_div, lower_sdiv, lower_udiv,
    lower_urem, mask, optimize, Builder, EvalError, Op, Program,
};
use magicdiv_trace::{install, CaptureSink};

fn one_arg(
    width: u32,
    lower: impl FnOnce(&mut Builder, magicdiv_ir::Reg) -> magicdiv_ir::Reg,
) -> Program {
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let q = lower(&mut b, n);
    optimize(&b.finish([q]))
}

/// Every single-result lowering at every machine width, for each
/// divisor in {1, 3, 7, 10, 641, 2^(w-1), 2^w - 1} the shape accepts.
fn lowered_programs() -> Vec<Program> {
    let mut progs = Vec::new();
    for w in [8u32, 16, 32, 64] {
        let top = mask(w);
        for d in [1u64, 3, 7, 10, 641, 1 << (w - 1), top] {
            if d > top {
                continue;
            }
            let (du, ds) = (u128::from(d), i128::from(d));
            if let Ok(p) = UdivPlan::new(du, w) {
                progs.push(one_arg(w, |b, n| lower_udiv(b, n, &p)));
            }
            if d <= top >> 1 {
                let s = SdivPlan::new(ds, w).unwrap();
                progs.push(one_arg(w, |b, n| lower_sdiv(b, n, &s)));
                let f = FloorPlan::new(ds, w).unwrap();
                progs.push(one_arg(w, |b, n| lower_floor_div(b, n, &f)));
                if let Ok(e) = ExactPlan::new_signed(ds, w) {
                    progs.push(one_arg(w, |b, n| lower_exact_div(b, n, &e)));
                }
            }
            if let Ok(e) = ExactPlan::new_unsigned(du, w) {
                progs.push(one_arg(w, |b, n| lower_exact_div(b, n, &e)));
            }
            for r in [UremPlan::new_direct(du, w), UremPlan::new(du, w)]
                .into_iter()
                .flatten()
            {
                progs.push(one_arg(w, |b, n| lower_urem(b, n, &r)));
            }
            if let Ok(t) = DivisibilityPlan::new(du, w) {
                progs.push(one_arg(w, |b, n| lower_divisibility(b, n, &t)));
            }
        }
    }
    progs
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

    let plan = DwordPlan::new(10, 32).unwrap();
    let mut b = Builder::new(32, 2);
    let (hi, lo) = (b.arg(0), b.arg(1));
    let (q, r) = lower_dword_div(&mut b, hi, lo, &plan);
    assert_eq!(optimize(&b.finish([q, r])).eval1(&[0, 1234]), want);

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
