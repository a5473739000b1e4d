//! The tournament certifiers run a candidate pool's shared probes in
//! batches: [`ArithmeticCertifier`] natively, [`OracleCertifier`] on the
//! lowered program through `Program::eval_lanes`. Each must return
//! exactly the [`Certification`] of the one-dividend-at-a-time loop
//! kept here as the reference: the same variant, `inputs` and `proved`,
//! and on failure the first failing `n`, `got` and `want` in probe order.

use magicdiv::plan::{DivPlan, UdivPlan, UremPlan, UremStrategy};
use magicdiv::testkit::{directed_unsigned_dividends, interesting_unsigned_divisors};
use magicdiv::validity::{eval_unsigned, eval_urem, plan_valid};
use magicdiv::{
    unsigned_generators, urem_candidates, ArithmeticCertifier, Certification, PlanCertifier, Probes,
};
use magicdiv_bench::OracleCertifier;
use magicdiv_ir::{lower_plan, optimize};

fn mask(width: u32) -> u128 {
    u128::MAX >> (128 - width)
}

/// The per-dividend certification loop: every dividend through width 16;
/// above, the predicate's witness (when it refutes the plan) and then the
/// directed dividends, stopping at the first disagreement.
fn reference(plan: &DivPlan, run: impl Fn(u128) -> u128) -> Certification {
    let (d, truth): (u128, fn(u128, u128) -> u128) = match plan {
        DivPlan::Unsigned(p) => (p.divisor(), |n, d| n / d),
        DivPlan::Urem(p) => (p.divisor(), |n, d| n % d),
        _ => return Certification::Skipped,
    };
    let w = plan.width();
    let mut inputs = 0u64;
    let mut check = |n: u128| {
        inputs += 1;
        let (got, want) = (run(n), truth(n, d));
        (got != want).then_some(Certification::Failed { n, got, want })
    };
    if w <= 16 {
        if let Some(fail) = (0..=mask(w)).find_map(&mut check) {
            return fail;
        }
        return Certification::Passed {
            inputs,
            proved: false,
        };
    }
    let mut proved = true;
    if let Some(Err(n)) = plan_valid(plan) {
        if let Some(fail) = check(n) {
            return fail;
        }
        proved = false;
    }
    if let Some(fail) = directed_unsigned_dividends(d, w)
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
    let Ok(raw) = lower_plan(plan) else {
        return arithmetic_reference(plan);
    };
    let prog = optimize(&raw);
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

/// Certifies every quotient and remainder candidate for `(d, width)`,
/// and its copies with each of `bits` flipped, on the pool's shared
/// probes; both certifiers must match their references. Returns how many
/// certifications failed.
fn check_pools(d: u128, width: u32, bits: &[u32]) -> usize {
    let mut failures = 0;
    let mut udiv = Vec::new();
    for gen in unsigned_generators() {
        udiv.extend(gen.generate(d, width).unwrap());
    }
    for pool in [udiv, urem_candidates(d, width).unwrap()] {
        let probes = Probes::for_plan(&pool[0].plan);
        for c in &pool {
            let plans = std::iter::once(c.plan).chain(bits.iter().map(|&b| flipped(&c.plan, b)));
            for plan in plans {
                let arith = ArithmeticCertifier.certify(&plan, &probes);
                assert_eq!(arith, arithmetic_reference(&plan), "arithmetic {plan}");
                let oracle = OracleCertifier.certify(&plan, &probes);
                assert_eq!(oracle, oracle_reference(&plan), "oracle {plan}");
                failures += usize::from(matches!(oracle, Certification::Failed { .. }));
            }
        }
    }
    failures
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
    for (plan, foreign) in [(udiv, &urem), (urem, &udiv), (udiv, &wider), (wider, &udiv)] {
        let foreign = Probes::for_plan(foreign);
        for certifier in [&ArithmeticCertifier as &dyn PlanCertifier, &OracleCertifier] {
            assert_eq!(
                certifier.certify(&plan, &foreign),
                certifier.certify(&plan, &Probes::for_plan(&plan)),
                "{plan}"
            );
        }
    }
}
