//! Differential tests for the planning layer: the runtime divisors, the
//! IR code generators and the plan module itself must agree — same
//! strategy, same constants, same quotients.
//!
//! For every divisor under test we check three things:
//!
//! 1. the plan the runtime divisor reports (`divisor.plan()`) equals the
//!    plan codegen and the simulator construct for the same `(d, width)`;
//! 2. the runtime quotient/remainder match native division;
//! 3. the generated IR program evaluates to the same quotient.
//!
//! Width 8 is exhaustive over all divisors and dividends; widths 16, 32
//! and 64 cover the boundary divisors (1, 2, even, `2^k ± 1`, `2^(N-1)`,
//! `MAX`) over boundary dividends.
//!
//! The structural tests at the end close the loop from the other side:
//! every plan a typed divisor reports, lowered through
//! [`compile`], computes what that divisor's kernel computes.

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UdivStrategy,
    UremPlan,
};
use magicdiv::testkit::{directed_unsigned_dividends, interesting_signed_dividends};
use magicdiv::{
    run_udiv_tournament, run_urem_tournament, CandidateSource, Certification, DWord, DwordDivisor,
    ExactUnsignedDivisor, FloorDivisor, OpCount, SignedDivisor, TournamentResult, UnsignedDivisor,
};
use magicdiv_bench::{run_tournament, SplitMix};
use magicdiv_ir::{compile, mask, sign_extend, Program};

/// The unsigned tournament under the core's op-count judge.
fn udiv_tournament(d: u128, width: u32) -> TournamentResult {
    run_udiv_tournament(d, width, &OpCount).unwrap()
}

/// The compiled program for `plan`, through the one plan → IR entry
/// point codegen, simcpu and the tournament judge share.
fn lowered(plan: impl Into<DivPlan>) -> Program {
    compile(plan).expect("width within the IR limit")
}

#[test]
fn unsigned_width8_exhaustive() {
    for d in 1u64..=255 {
        let rt = UnsignedDivisor::new(d as u8).unwrap();
        let plan = UdivPlan::new(d as u128, 8).unwrap();
        assert_eq!(rt.plan(), plan, "d={d}: runtime and plan layer disagree");
        let prog = lowered(plan);
        for n in 0u64..=255 {
            let (q, r) = rt.div_rem(n as u8);
            assert_eq!((q as u64, r as u64), (n / d, n % d), "runtime n={n} d={d}");
            assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "ir n={n} d={d}");
        }
    }
}

#[test]
fn signed_width8_exhaustive() {
    for d in -128i64..=127 {
        if d == 0 {
            continue;
        }
        let rt = SignedDivisor::new(d as i8).unwrap();
        let plan = SdivPlan::new(d as i128, 8).unwrap();
        assert_eq!(rt.plan(), plan, "d={d}");
        let prog = lowered(plan);
        for n in -128i64..=127 {
            let (q, r) = rt.div_rem(n as i8);
            let qe = (n as i8).wrapping_div(d as i8);
            let re = (n as i8).wrapping_rem(d as i8);
            assert_eq!((q, r), (qe, re), "runtime n={n} d={d}");
            assert_eq!(
                prog.eval1(&[(n as u64) & 0xff]).unwrap(),
                (qe as u64) & 0xff,
                "ir n={n} d={d}"
            );
        }
    }
}

#[test]
fn floor_width8_exhaustive() {
    for d in -128i64..=127 {
        if d == 0 {
            continue;
        }
        let rt = FloorDivisor::new(d as i8).unwrap();
        let plan = FloorPlan::new(d as i128, 8).unwrap();
        assert_eq!(rt.plan(), plan, "d={d}");
        let prog = lowered(plan);
        for n in -128i64..=127 {
            if n == -128 && d == -1 {
                continue; // quotient overflows i8; both sides wrap
            }
            let (q, r) = rt.div_mod(n as i8);
            let qe = n.div_euclid(d) - i64::from(d < 0 && n.rem_euclid(d) != 0);
            let re = n - qe * d;
            assert_eq!((q as i64, r as i64), (qe, re), "runtime n={n} d={d}");
            assert_eq!(
                prog.eval1(&[(n as u64) & 0xff]).unwrap(),
                (qe as u64) & 0xff,
                "ir n={n} d={d}"
            );
        }
    }
}

#[test]
fn exact_width8_exhaustive() {
    for d in 1u64..=255 {
        let rt = ExactUnsignedDivisor::new(d as u8).unwrap();
        let plan = ExactPlan::new_unsigned(d as u128, 8).unwrap();
        assert_eq!(rt.plan(), plan, "d={d}");
        let prog = lowered(plan);
        for q in 0u64..=(255 / d) {
            let n = q * d;
            assert_eq!(rt.divide_exact(n as u8) as u64, q, "runtime n={n} d={d}");
            assert_eq!(prog.eval1(&[n]).unwrap(), q, "ir n={n} d={d}");
        }
    }
}

#[test]
fn urem_width8_exhaustive() {
    // Both remainder paths — the LKK fraction and §1 multiply-back — at
    // every divisor and dividend: the runtime divisor, the plan layer
    // and the plan-lowered IR must all agree with native `%`.
    for d in 1u64..=255 {
        let rt = UnsignedDivisor::new_direct_rem(d as u8).unwrap();
        let direct = UremPlan::new_direct(d as u128, 8).unwrap();
        assert_eq!(rt.urem_plan(), direct, "d={d}: runtime/plan disagree");
        let back = UremPlan::new(d as u128, 8).unwrap();
        let (prog_direct, prog_back) = (lowered(direct), lowered(back));
        for n in 0u64..=255 {
            assert_eq!(rt.remainder(n as u8) as u64, n % d, "runtime n={n} d={d}");
            assert_eq!(
                prog_direct.eval1(&[n]).unwrap(),
                n % d,
                "direct n={n} d={d}"
            );
            assert_eq!(prog_back.eval1(&[n]).unwrap(), n % d, "mulback n={n} d={d}");
        }
    }
}

#[test]
fn divisibility_width8_exhaustive() {
    // The divisibility plan's inverse-rotate test at every divisor and
    // dividend: runtime, plan and lowered IR against native `% == 0`.
    for d in 1u64..=255 {
        let rt = ExactUnsignedDivisor::new(d as u8).unwrap();
        let plan = DivisibilityPlan::new(d as u128, 8).unwrap();
        let prog = lowered(plan);
        for n in 0u64..=255 {
            let want = n % d == 0;
            assert_eq!(rt.divides(n as u8), want, "runtime n={n} d={d}");
            assert_eq!(prog.eval1(&[n]).unwrap(), u64::from(want), "ir n={n} d={d}");
        }
    }
}

/// Boundary divisors for an unsigned width: 1, 2, a small even, `2^k ± 1`
/// around the middle, `2^(N-1)` and `MAX`.
fn boundary_unsigned(width: u32) -> Vec<u64> {
    let k = width / 2;
    vec![
        1,
        2,
        6,
        (1 << k) - 1,
        (1 << k) + 1,
        1 << (width - 1),
        mask(width),
    ]
}

fn boundary_dividends(width: u32) -> Vec<u64> {
    let m = mask(width);
    vec![0, 1, 2, 3, m / 3, m / 2, m - 1, m]
}

#[test]
fn unsigned_boundaries_at_16_32_64() {
    // One typed check per width so the width-erased plan is compared
    // against the actual UWord instantiation the runtime uses.
    fn plan_of(d: u64, width: u32) -> UdivPlan {
        match width {
            16 => UnsignedDivisor::new(d as u16).unwrap().plan(),
            32 => UnsignedDivisor::new(d as u32).unwrap().plan(),
            64 => UnsignedDivisor::new(d).unwrap().plan(),
            _ => unreachable!(),
        }
    }
    fn div_rem_of(n: u64, d: u64, width: u32) -> (u64, u64) {
        match width {
            16 => {
                let (q, r) = UnsignedDivisor::new(d as u16).unwrap().div_rem(n as u16);
                (q as u64, r as u64)
            }
            32 => {
                let (q, r) = UnsignedDivisor::new(d as u32).unwrap().div_rem(n as u32);
                (q as u64, r as u64)
            }
            64 => UnsignedDivisor::new(d).unwrap().div_rem(n),
            _ => unreachable!(),
        }
    }
    for width in [16u32, 32, 64] {
        for d in boundary_unsigned(width) {
            let plan = UdivPlan::new(d as u128, width).unwrap();
            assert_eq!(plan_of(d, width), plan, "w={width} d={d}");
            assert_eq!(
                DivPlan::from(plan).width(),
                width,
                "umbrella width w={width} d={d}"
            );
            let prog = lowered(plan);
            for n in boundary_dividends(width) {
                let native = ((n & mask(width)) / d, (n & mask(width)) % d);
                assert_eq!(
                    div_rem_of(n, d, width),
                    native,
                    "runtime w={width} n={n} d={d}"
                );
                assert_eq!(
                    prog.eval1(&[n]).unwrap(),
                    native.0,
                    "ir w={width} n={n} d={d}"
                );
            }
        }
    }
}

#[test]
fn urem_boundaries_at_16_32_64_and_128() {
    // One typed check per width: the LKK fraction remainder at the
    // native word (including the narrow-word u64 fast path and the
    // 128-bit limb path) against native `%`, and the plan-lowered IR
    // where an IR form exists (width <= 64).
    fn rem_of(n: u64, d: u64, width: u32) -> u64 {
        match width {
            16 => UnsignedDivisor::new_direct_rem(d as u16)
                .unwrap()
                .remainder(n as u16) as u64,
            32 => UnsignedDivisor::new_direct_rem(d as u32)
                .unwrap()
                .remainder(n as u32) as u64,
            64 => UnsignedDivisor::new_direct_rem(d).unwrap().remainder(n),
            _ => unreachable!(),
        }
    }
    for width in [16u32, 32, 64] {
        for d in boundary_unsigned(width) {
            let plan = UremPlan::new_direct(d as u128, width).unwrap();
            assert_eq!(DivPlan::from(plan).width(), width, "umbrella w={width}");
            let prog = lowered(plan);
            for n in boundary_dividends(width) {
                let native = (n & mask(width)) % d;
                assert_eq!(rem_of(n, d, width), native, "runtime w={width} n={n} d={d}");
                assert_eq!(
                    prog.eval1(&[n]).unwrap(),
                    native,
                    "ir w={width} n={n} d={d}"
                );
            }
        }
    }
    // Width 128 has no IR form; the runtime fraction must still agree.
    let m = u128::MAX;
    for d in [3u128, 10, 641, (1 << 64) + 1, m - 1] {
        let rt = UnsignedDivisor::new_direct_rem(d).unwrap();
        for n in [0u128, 1, d - 1, d, d + 1, m / 3, m / 2, m - 1, m] {
            assert_eq!(rt.remainder(n), n % d, "u128 n={n} d={d}");
        }
    }
}

#[test]
fn urem_tournament_width8_exhaustive_agrees_with_native() {
    // Whatever remainder candidate wins — mask, fraction or
    // multiply-back — its lowered program must compute native `n % d`
    // exhaustively.
    for d in 1u64..=255 {
        let t = run_urem_tournament(d as u128, 8, &OpCount).unwrap();
        let prog = lowered(t.winning().candidate.plan);
        for n in 0u64..=255 {
            assert_eq!(prog.eval1(&[n]).unwrap(), n % d, "winner n={n} d={d}");
        }
    }
}

#[test]
fn signed_boundaries_at_16_32_64() {
    fn plan_of(d: i64, width: u32) -> SdivPlan {
        match width {
            16 => SignedDivisor::new(d as i16).unwrap().plan(),
            32 => SignedDivisor::new(d as i32).unwrap().plan(),
            64 => SignedDivisor::new(d).unwrap().plan(),
            _ => unreachable!(),
        }
    }
    fn div_rem_of(n: i64, d: i64, width: u32) -> (i64, i64) {
        match width {
            16 => {
                let (q, r) = SignedDivisor::new(d as i16).unwrap().div_rem(n as i16);
                (q as i64, r as i64)
            }
            32 => {
                let (q, r) = SignedDivisor::new(d as i32).unwrap().div_rem(n as i32);
                (q as i64, r as i64)
            }
            64 => SignedDivisor::new(d).unwrap().div_rem(n),
            _ => unreachable!(),
        }
    }
    for width in [16u32, 32, 64] {
        let m = mask(width);
        let min = (1i64 << (width - 1)).wrapping_neg();
        let max = (m >> 1) as i64;
        let k = width / 2;
        let divisors = [
            1i64,
            -1,
            2,
            -2,
            6,
            -6,
            (1 << k) - 1,
            -((1 << k) + 1),
            min, // -2^(N-1): the only magnitude needing the extra signed headroom
            max,
        ];
        for d in divisors {
            let plan = SdivPlan::new(d as i128, width).unwrap();
            assert_eq!(plan_of(d, width), plan, "w={width} d={d}");
            let prog = lowered(plan);
            for n in [0i64, 1, -1, max / 3, -max / 3, max - 1, max, min + 1, min] {
                if n == min && d == -1 {
                    continue; // quotient overflows; wrapping covered at width 8
                }
                let native = (n.wrapping_div(d), n.wrapping_rem(d));
                assert_eq!(
                    div_rem_of(n, d, width),
                    native,
                    "runtime w={width} n={n} d={d}"
                );
                let bits = (n as u64) & m;
                assert_eq!(
                    sign_extend(prog.eval1(&[bits]).unwrap(), width),
                    native.0,
                    "ir w={width} n={n} d={d}"
                );
            }
        }
    }
}

#[test]
fn plans_flow_through_the_umbrella_type() {
    // DivPlan::from on each family keeps the width and a stable
    // strategy name — what the tools print and the estimator prices.
    let u = UdivPlan::new(10, 32).unwrap();
    assert_eq!(DivPlan::from(u).strategy_name(), "mul_shift");
    let s = SdivPlan::new(-7, 32).unwrap();
    assert_eq!(DivPlan::from(s).strategy_name(), "mul_add_shift");
    let f = FloorPlan::new(-10, 32).unwrap();
    assert_eq!(DivPlan::from(f).strategy_name(), "trunc_fixup");
    let e = ExactPlan::new_unsigned(12, 32).unwrap();
    assert_eq!(DivPlan::from(e).strategy_name(), "exact_inverse");
    let dw = DwordPlan::new(10, 32).unwrap();
    assert_eq!(DivPlan::from(dw).strategy_name(), "dword");
}

#[test]
fn dword_width8_exhaustive() {
    // Every (hi, lo) with hi < d for boundary and ordinary divisors:
    // runtime Fig 8.1 and the plan-lowered IR against native division.
    for d in [1u64, 2, 3, 7, 10, 127, 128, 129, 254, 255] {
        let rt = DwordDivisor::new(d as u8).unwrap();
        let plan = DwordPlan::new(d as u128, 8).unwrap();
        assert_eq!(rt.plan(), plan, "d={d}: runtime and plan layer disagree");
        let prog = lowered(plan);
        for n in 0..(d << 8) {
            let (hi, lo) = (n >> 8, n & 0xff);
            let (q, r) = rt
                .div_rem(DWord::from_parts(hi as u8, lo as u8))
                .expect("hi < d");
            assert_eq!((q as u64, r as u64), (n / d, n % d), "runtime n={n} d={d}");
            assert_eq!(
                prog.eval(&[hi, lo]).unwrap(),
                vec![n / d, n % d],
                "ir n={n} d={d}"
            );
        }
        // hi = d overflows the single-word quotient: the runtime traps.
        assert!(rt.div_rem(DWord::from_parts(d as u8, 0)).is_err(), "d={d}");
    }
}

#[test]
fn dword_boundaries_at_16_32_64() {
    // One typed check per width, so the width-erased plan is compared
    // against the actual UWord instantiation the runtime uses, and the
    // plan-lowered two-result IR program against both.
    macro_rules! check_width {
        ($t:ty, $w:expr) => {{
            let width: u32 = $w;
            let m = mask(width);
            let mut rng = SplitMix(0x8d0 + width as u64);
            for d in boundary_unsigned(width) {
                let rt = DwordDivisor::new(d as $t).unwrap();
                let plan = DwordPlan::new(d as u128, width).unwrap();
                assert_eq!(rt.plan(), plan, "w={width} d={d}");
                assert_eq!(DivPlan::from(plan).width(), width, "umbrella w={width}");
                let prog = lowered(plan);
                let directed_his = [0u64, 1, d / 2, d.saturating_sub(2), d - 1];
                let directed_los = [0u64, 1, 2, m / 3, m / 2, m - 1, m];
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                for hi in directed_his {
                    for lo in directed_los {
                        pairs.push((hi, lo));
                    }
                }
                for _ in 0..32 {
                    pairs.push((rng.next_u64() % d, rng.next_u64() & m));
                }
                for (hi, lo) in pairs {
                    if hi >= d {
                        continue;
                    }
                    let (q, r) = rt
                        .div_rem(DWord::from_parts(hi as $t, lo as $t))
                        .expect("hi < d");
                    let wide = ((hi as u128) << width) | lo as u128;
                    let (qe, re) = (wide / d as u128, wide % d as u128);
                    assert_eq!(
                        (q as u128, r as u128),
                        (qe, re),
                        "runtime w={width} d={d} hi={hi} lo={lo}"
                    );
                    let out = prog.eval(&[hi, lo]).unwrap();
                    assert_eq!(
                        (out[0] as u128, out[1] as u128),
                        (qe, re),
                        "ir w={width} d={d} hi={hi} lo={lo}"
                    );
                }
            }
        }};
    }
    check_width!(u16, 16);
    check_width!(u32, 32);
    check_width!(u64, 64);
}

#[test]
fn tournament_width8_exhaustive_agrees_with_paper_quotients() {
    // Whatever candidate wins the tournament, its quotients must be the
    // paper plan's quotients — exhaustively, for every divisor and
    // dividend at width 8.
    for d in 1u64..=255 {
        let prog = lowered(udiv_tournament(d as u128, 8).winning().candidate.plan);
        for n in 0u64..=255 {
            assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "winner n={n} d={d}");
        }
    }
}

#[test]
fn tournament_boundaries_at_16_32_64_agree_with_native() {
    // Boundary divisors and dividends at the real word widths: the
    // tournament winner's IR must compute native quotients, and the
    // winner must carry a non-Skipped certification.
    for width in [16u32, 32, 64] {
        for d in boundary_unsigned(width) {
            let t = udiv_tournament(d as u128, width);
            let prog = lowered(t.winning().candidate.plan);
            for n in boundary_dividends(width) {
                let n = n & mask(width);
                assert_eq!(prog.eval1(&[n]).unwrap(), n / d, "w={width} n={n} d={d}");
            }
            assert!(
                matches!(t.winning().certification, Certification::Passed { .. }),
                "w={width} d={d}: winner must be certified"
            );
        }
    }
}

#[test]
fn tournament_pins_the_optimal_bounds_wins_at_width8() {
    // Two pinned cells where the Lemire–Bartlett–Kaser generator finds a
    // plain mul-shift the paper's fixed-precision search misses. The
    // exact multipliers are part of the contract: a cost-model or
    // generator change that silently alters them should fail here.
    for (d, m, sh_post) in [(35u128, 235u128, 5u32), (44, 187, 5)] {
        let t = udiv_tournament(d, 8);
        assert!(!t.winner_is_paper(), "d={d}: paper should lose this cell");
        assert_eq!(
            t.winning().candidate.source,
            CandidateSource::OptimalBounds,
            "d={d}"
        );
        assert_eq!(
            UdivPlan::try_from(t.winning().candidate.plan)
                .unwrap()
                .strategy(),
            UdivStrategy::MulShift {
                m,
                sh_pre: 0,
                sh_post
            },
            "d={d}: pinned winning constants"
        );
    }
}

#[test]
fn tournament_beats_paper_at_certified_win_cells() {
    // The acceptance bar for the tournament: at these (width, divisor)
    // cells a non-paper candidate wins with *strictly* fewer simcpu
    // cycles than the paper baseline, and the winner is certified. 18
    // cells — comfortably past the "at least 10" requirement.
    let cells: [(u32, u128); 18] = [
        (8, 35),
        (8, 44),
        (8, 47),
        (8, 70),
        (8, 89),
        (8, 90),
        (16, 586),
        (16, 831),
        (16, 879),
        (16, 950),
        (16, 1059),
        (16, 1172),
        (32, 102_807),
        (32, 205_614),
        (32, 290_498),
        (32, 296_795),
        (32, 308_421),
        (32, 411_228),
    ];
    for (width, d) in cells {
        let t = run_tournament(d, width, None).unwrap();
        assert!(!t.winner_is_paper(), "w={width} d={d}: paper should lose");
        let winner = t.winning();
        let won = winner.cycles.expect("winner is priced");
        assert!(
            matches!(winner.certification, Certification::Passed { .. }),
            "w={width} d={d}: winner must be certified, got {:?}",
            winner.certification
        );
        let paper = t
            .scoreboard
            .iter()
            .find(|s| s.candidate.source == CandidateSource::PaperBaseline)
            .expect("paper always competes");
        let paper_cycles = paper.cycles.expect("paper plan is priceable");
        assert!(
            won < paper_cycles,
            "w={width} d={d}: winner {won} cycles must beat paper {paper_cycles}"
        );
    }
}

#[test]
fn dword_odd_ir_widths_match_native() {
    // The IR lowering is width-generic even where no runtime word type
    // exists; pin the odd widths against native 128-bit division.
    let mut rng = SplitMix(0xd0d0);
    for width in [24u32, 57] {
        let m = mask(width);
        for d in [1u64, 3, 10, (1 << (width / 2)) + 1, m - 1, m] {
            let plan = DwordPlan::new(d as u128, width).unwrap();
            assert_eq!(plan.divisor(), d as u128, "w={width} d={d}");
            let prog = lowered(plan);
            for i in 0..64u64 {
                let (hi, lo) = match i {
                    0 => (0, 0),
                    1 => (0, m),
                    2 => (d - 1, m),
                    3 => (d - 1, 0),
                    4 => (d / 2, m / 2),
                    _ => (rng.next_u64() % d, rng.next_u64() & m),
                };
                let wide = ((hi as u128) << width) | lo as u128;
                let out = prog.eval(&[hi, lo]).unwrap();
                assert_eq!(
                    (out[0] as u128, out[1] as u128),
                    (wide / d as u128, wide % d as u128),
                    "w={width} d={d} hi={hi} lo={lo}"
                );
            }
        }
    }
}

/// Lowers every plan the typed divisors at one width report — unsigned
/// quotient and remainder plans from `new`, `new_direct_rem` and the
/// tournament, signed, floor, exact and doubleword — and checks each
/// program against the typed kernel that runs it, on every dividend at
/// width 8 and the testkit's directed dividends above (doubleword: six
/// high limbs up to `d - 1` against those low limbs). This catches a
/// lowering that drifts from the host kernel even where the two run
/// different code for one plan: at u32 the LKK fraction is a rescaled
/// 64-bit constant on the host and a 2N-limb sequence in the IR.
macro_rules! check_lowered_plans {
    ($u:ty, $s:ty, $divisors:expr, $signed_divisors:expr) => {{
        const W: u32 = <$u>::BITS;
        for d in $divisors {
            let du = d as $u;
            let ns: Vec<u64> = if W == 8 {
                (0..=255).collect()
            } else {
                let ns = directed_unsigned_dividends(u128::from(d), W);
                ns.into_iter().map(|n| n as u64).collect()
            };
            let won = udiv_tournament(u128::from(d), W).winning().candidate.plan;
            let tournament = UnsignedDivisor::from_plan(&UdivPlan::try_from(won).unwrap());
            let paper = UnsignedDivisor::new(du).unwrap();
            let direct = UnsignedDivisor::new_direct_rem(du).unwrap();
            for rt in [paper, direct, tournament] {
                let (q_plan, r_plan) = (rt.plan(), rt.urem_plan());
                let (q_prog, r_prog) = (lowered(q_plan), lowered(r_plan));
                for &n in &ns {
                    let want = rt.divide(n as $u) as u64;
                    assert_eq!(q_prog.eval1(&[n]).unwrap(), want, "{q_plan} n={n}");
                    let want = rt.remainder(n as $u) as u64;
                    assert_eq!(r_prog.eval1(&[n]).unwrap(), want, "{r_plan} n={n}");
                }
            }
            let exact = ExactUnsignedDivisor::new(du).unwrap();
            let prog = lowered(exact.plan());
            for &n in &ns {
                let n = n - n % d;
                let want = exact.divide_exact(n as $u) as u64;
                assert_eq!(prog.eval1(&[n]).unwrap(), want, "{} n={n}", exact.plan());
            }
            let dword = DwordDivisor::new(du).unwrap();
            let prog = lowered(dword.plan());
            for hi in [0, 1, 2, d / 2, d.saturating_sub(2), d - 1] {
                for &lo in ns.iter().filter(|_| hi < d) {
                    let (q, r) = dword
                        .div_rem(DWord::from_parts(hi as $u, lo as $u))
                        .expect("hi < d");
                    let got = prog.eval(&[hi, lo]).unwrap();
                    assert_eq!(
                        got,
                        [q as u64, r as u64],
                        "{} hi={hi} lo={lo}",
                        dword.plan()
                    );
                }
            }
        }
        for d in $signed_divisors {
            let ds = d as $s;
            let ns: Vec<$s> = if W == 8 {
                (-128i64..=127).map(|n| n as $s).collect()
            } else {
                interesting_signed_dividends(ds)
            };
            let trunc = SignedDivisor::new(ds).unwrap();
            let floor = FloorDivisor::new(ds).unwrap();
            let (t_prog, f_prog) = (lowered(trunc.plan()), lowered(floor.plan()));
            for n in ns {
                let bits = n as $u as u64;
                let want = trunc.divide(n) as $u as u64;
                assert_eq!(
                    t_prog.eval1(&[bits]).unwrap(),
                    want,
                    "{} n={n}",
                    trunc.plan()
                );
                let want = floor.divide(n) as $u as u64;
                assert_eq!(
                    f_prog.eval1(&[bits]).unwrap(),
                    want,
                    "{} n={n}",
                    floor.plan()
                );
            }
        }
    }};
}

#[test]
fn lowered_plans_run_the_typed_kernels_at_width8() {
    check_lowered_plans!(u8, i8, 1u64..=255, (-128i64..=127).filter(|&d| d != 0));
}

#[test]
fn lowered_plans_run_the_typed_kernels_at_16_32_64() {
    fn unsigned(width: u32) -> Vec<u64> {
        let mut ds = boundary_unsigned(width);
        ds.extend([3, 7, 10, 641]);
        ds
    }
    fn signed(width: u32) -> Vec<i64> {
        let max = (mask(width) >> 1) as i64;
        let k = width / 2;
        let mut ds = vec![max, -max - 1, (1 << k) - 1, -((1 << k) + 1)];
        for d in [1i64, 2, 3, 6, 7, 10, 641] {
            ds.extend([d, -d]);
        }
        ds
    }
    check_lowered_plans!(u16, i16, unsigned(16), signed(16));
    check_lowered_plans!(u32, i32, unsigned(32), signed(32));
    check_lowered_plans!(u64, i64, unsigned(64), signed(64));
}
