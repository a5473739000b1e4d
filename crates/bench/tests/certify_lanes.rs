//! The tournament judges run a candidate pool's shared probes in
//! batches: [`OpCount`] natively, [`SimcpuJudge`] on the lowered program
//! through `Program::eval_lanes`. Each must return exactly the
//! [`Certification`] of the one-dividend-at-a-time loop kept here as the
//! reference: the same variant, `inputs` and `proved`, and on failure the
//! first failing `n`, `got` and `want` in probe order.
//!
//! The judges run the validity predicate and the directed probes, not
//! every dividend, at every width. The exhaustive evidence that the
//! lowered candidates divide correctly lives here instead: every
//! dividend at width 8 and at the interesting width-16 divisors.

use magicdiv::plan::{DivPlan, UdivPlan, UremPlan, UremStrategy};
use magicdiv::testkit::{directed_unsigned_dividends, interesting_unsigned_divisors};
use magicdiv::validity::{eval_unsigned, eval_urem, plan_valid};
use magicdiv::{
    udiv_candidates, urem_candidates, Candidate, Certification, OpCount, PlanJudge, Probes,
};
use magicdiv_bench::SimcpuJudge;
use magicdiv_ir::{compile, EvalOptions, LANES};

fn mask(width: u32) -> u128 {
    u128::MAX >> (128 - width)
}

/// The per-dividend certification loop: the predicate's witness (when
/// it refutes the plan) and then the directed dividends, stopping at the
/// first disagreement.
fn reference(plan: &DivPlan, run: impl Fn(u128) -> u128) -> Certification {
    let (d, truth): (u128, fn(u128, u128) -> u128) = match plan {
        DivPlan::Unsigned(p) => (p.divisor(), |n, d| n / d),
        DivPlan::Urem(p) => (p.divisor(), |n, d| n % d),
        _ => return Certification::Skipped,
    };
    let mut inputs = 0u64;
    let mut check = |n: u128| {
        inputs += 1;
        let (got, want) = (run(n), truth(n, d));
        (got != want).then_some(Certification::Failed { n, got, want })
    };
    let mut proved = true;
    if let Some(Err(n)) = plan_valid(plan) {
        if let Some(fail) = check(n) {
            return fail;
        }
        proved = false;
    }
    if let Some(fail) = directed_unsigned_dividends(d, plan.width())
        .into_iter()
        .find_map(&mut check)
    {
        return fail;
    }
    Certification::Passed { inputs, proved }
}

/// The reference loop on the plan's own arithmetic.
fn arithmetic_reference(plan: &DivPlan) -> Certification {
    match plan {
        DivPlan::Unsigned(p) => reference(plan, |n| eval_unsigned(p, n)),
        DivPlan::Urem(p) => reference(plan, |n| eval_urem(p, n)),
        _ => Certification::Skipped,
    }
}

/// The reference loop on the lowered, optimized program, one `eval1`
/// per dividend; a faulting dividend reads `u128::MAX`.
fn oracle_reference(plan: &DivPlan) -> Certification {
    let Ok(prog) = compile(*plan) else {
        return arithmetic_reference(plan);
    };
    reference(plan, |n| {
        prog.eval1(&[n as u64]).map_or(u128::MAX, u128::from)
    })
}

/// `plan` with bit `bit` of its multiplier (or fraction, or mask)
/// flipped: mostly plans that certification must refute.
fn flipped(plan: &DivPlan, bit: u32) -> DivPlan {
    match plan {
        DivPlan::Unsigned(p) => p.flip_bit(bit).into(),
        DivPlan::Urem(p) => {
            let (d, w) = (p.divisor(), p.width());
            let strategy = match p.strategy() {
                UremStrategy::Mask { low_mask } => UremStrategy::Mask {
                    low_mask: low_mask ^ (1 << bit),
                },
                UremStrategy::Fraction { c_hi, c_lo } => UremStrategy::Fraction {
                    c_hi,
                    c_lo: c_lo ^ (1 << bit),
                },
                UremStrategy::MulBack { udiv } => UremStrategy::MulBack {
                    udiv: UdivPlan::from_raw(d, w, udiv).flip_bit(bit).strategy(),
                },
            };
            UremPlan::from_raw(d, w, strategy).into()
        }
        other => *other,
    }
}

/// The quotient and the remainder candidate pools for `(d, width)`.
fn pools(d: u128, width: u32) -> [Vec<Candidate>; 2] {
    [
        udiv_candidates(d, width).unwrap(),
        urem_candidates(d, width).unwrap(),
    ]
}

/// Certifies every quotient and remainder candidate for `(d, width)`,
/// and its copies with each of `bits` flipped, on the pool's shared
/// probes; both judges must match their references. Returns how many
/// certifications failed.
fn check_pools(d: u128, width: u32, bits: &[u32]) -> usize {
    let mut failures = 0;
    let simcpu = SimcpuJudge::default_model();
    for pool in pools(d, width) {
        let probes = Probes::for_plan(&pool[0].plan);
        for c in &pool {
            let plans = std::iter::once(c.plan).chain(bits.iter().map(|&b| flipped(&c.plan, b)));
            for plan in plans {
                let (_, arith) = OpCount.judge(&plan, &probes);
                assert_eq!(arith, arithmetic_reference(&plan), "arithmetic {plan}");
                let (_, oracle) = simcpu.judge(&plan, &probes);
                assert_eq!(oracle, oracle_reference(&plan), "simcpu {plan}");
                failures += usize::from(matches!(oracle, Certification::Failed { .. }));
            }
        }
    }
    failures
}

/// Runs every candidate for `(d, width)` on every dividend, its lowered
/// and optimized program through `eval_lanes` [`LANES`] dividends at a
/// time, against native division; both judges must prove it.
fn check_exhaustive(d: u128, width: u32) {
    let simcpu = SimcpuJudge::default_model();
    let opts = EvalOptions::default();
    let mut out = [0u64; LANES];
    let mut status = [Ok(()); LANES];
    let dividends: Vec<u64> = (0..=mask(width) as u64).collect();
    for (pool, truth) in pools(d, width)
        .into_iter()
        .zip([(|n, d| n / d) as fn(u64, u64) -> u64, |n, d| n % d])
    {
        let probes = Probes::for_plan(&pool[0].plan);
        for c in &pool {
            let plan = &c.plan;
            for judge in [&OpCount as &dyn PlanJudge, &simcpu] {
                let (_, cert) = judge.judge(plan, &probes);
                assert!(
                    matches!(cert, Certification::Passed { proved: true, .. }),
                    "{} {plan}: {cert:?}",
                    judge.model_name()
                );
            }
            let prog = compile(*plan).unwrap();
            for ns in dividends.chunks(LANES) {
                let lanes = ns.len();
                prog.eval_lanes(ns, &opts, &mut out[..lanes], &mut status[..lanes]);
                for ((&n, &got), s) in ns.iter().zip(&out).zip(&status) {
                    assert_eq!(*s, Ok(()), "{plan} n={n}");
                    assert_eq!(got, truth(n, d as u64), "{plan} n={n}");
                }
            }
        }
    }
}

#[test]
fn lowered_candidates_divide_every_dividend_at_w8() {
    for d in 1..=255u128 {
        check_exhaustive(d, 8);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive over u16; run in release")]
fn lowered_candidates_divide_every_dividend_at_w16() {
    for d in interesting_unsigned_divisors::<u16>() {
        check_exhaustive(d.into(), 16);
    }
}

#[test]
fn batched_certification_matches_the_reference_for_every_d_at_w8() {
    let failures: usize = (1..=255u128)
        .map(|d| check_pools(d, 8, &[0, 1, 4, 7]))
        .sum();
    assert!(
        failures > 1000,
        "only {failures} refuted flips: the failure path went unexercised"
    );
}

#[test]
fn batched_certification_matches_the_reference_at_w32() {
    let ds = interesting_unsigned_divisors::<u32>();
    let failures: usize = ds
        .iter()
        .map(|&d| check_pools(d.into(), 32, &[0, 31]))
        .sum();
    assert!(failures > 100, "only {failures} refuted flips");
}

#[test]
fn batched_certification_matches_the_reference_at_w64() {
    let ds = interesting_unsigned_divisors::<u64>();
    let failures: usize = ds
        .iter()
        .map(|&d| check_pools(d.into(), 64, &[0, 63]))
        .sum();
    assert!(failures > 100, "only {failures} refuted flips");
}

#[test]
fn probes_from_another_pool_are_not_used() {
    let udiv = DivPlan::from(UdivPlan::new(10, 32).unwrap());
    let urem = DivPlan::from(UremPlan::new_direct(10, 32).unwrap());
    let wider = DivPlan::from(UdivPlan::new(10, 64).unwrap());
    let simcpu = SimcpuJudge::default_model();
    for (plan, foreign) in [(udiv, &urem), (urem, &udiv), (udiv, &wider), (wider, &udiv)] {
        let foreign = Probes::for_plan(foreign);
        for judge in [&OpCount as &dyn PlanJudge, &simcpu] {
            assert_eq!(
                judge.judge(&plan, &foreign),
                judge.judge(&plan, &Probes::for_plan(&plan)),
                "{plan}"
            );
        }
    }
}
