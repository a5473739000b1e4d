//! The bench-side half of the planner tournament: a [`PlanJudge`] that
//! lowers each candidate once, prices that program on a Table 1.1 cycle
//! model via `magicdiv-simcpu`, and certifies the same program against
//! the candidate pool's truth values.
//!
//! The core crate sits below the IR in the dependency order, so its
//! [`OpCount`] judge counts operations and evaluates plan arithmetic
//! directly. The judge here closes the loop: the scoreboard prices what
//! the machine would run, and the winner is certified on the instruction
//! sequence `magicdiv-codegen` emits.

use magicdiv::plan::DivPlan;
use magicdiv::{
    certify_plan, run_udiv_tournament, Certification, DivisorError, OpCount, PlanJudge, Probes,
    TournamentResult,
};
use magicdiv_ir::{compile, EvalOptions, LANES};
use magicdiv_simcpu::{cycles_for_lowered_plan, find_model, TimingModel};

/// The default cost model for tournaments: pipelined multiplier, the
/// mid-range of Table 1.1 — a model where multiply-heavy candidates can
/// genuinely overlap independent work.
pub const DEFAULT_TOURNAMENT_MODEL: &str = "MIPS R4000";

/// Judges a candidate on its *lowered, optimized* IR program: the plan is
/// compiled once ([`magicdiv_ir::compile`]), that program is priced on a
/// Table 1.1 timing model ([`cycles_for_lowered_plan`], the same
/// `simcpu.plan_cycles` event as [`magicdiv_simcpu::try_cycles_for_plan`]),
/// and then the same program is certified through [`certify_plan`]. The
/// program runs [`LANES`] probes at a time through
/// [`Program::eval_lanes`](magicdiv_ir::Program::eval_lanes), one
/// interpreter pass per batch; a lane that faults reads as `u128::MAX`,
/// which no truth value equals.
///
/// A bug in the lowering, not just in the plan constants, fails
/// certification here. At width 128, beyond the IR interpreter's words,
/// the plan is unpriced and certified on its arithmetic, as [`OpCount`]
/// certifies it.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv::{Certification, PlanJudge, Probes};
/// use magicdiv_bench::SimcpuJudge;
///
/// let judge = SimcpuJudge::default_model();
/// let plan = DivPlan::from(UdivPlan::new(10, 32).unwrap());
/// let (cycles, cert) = judge.judge(&plan, &Probes::for_plan(&plan));
/// assert!(cycles.unwrap() > 0);
/// assert!(matches!(cert, Certification::Passed { proved: true, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct SimcpuJudge {
    model: TimingModel,
}

impl SimcpuJudge {
    /// A judge on the Table 1.1 model with the given name (see
    /// [`magicdiv_simcpu::find_model`]); `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        find_model(name).map(|model| SimcpuJudge { model })
    }

    /// A judge on [`DEFAULT_TOURNAMENT_MODEL`].
    pub fn default_model() -> Self {
        Self::named(DEFAULT_TOURNAMENT_MODEL).expect("default model is in the Table 1.1 catalog")
    }
}

impl PlanJudge for SimcpuJudge {
    fn model_name(&self) -> &str {
        self.model.name
    }

    fn judge(&self, plan: &DivPlan, probes: &Probes) -> (Option<u64>, Certification) {
        // Above the IR's 64-bit words there is no program to price or run.
        let Ok(prog) = compile(*plan) else {
            return (None, OpCount.judge(plan, probes).1);
        };
        let cycles = cycles_for_lowered_plan(plan, &prog, &self.model);
        let opts = EvalOptions::default();
        let mut args = [0u64; LANES];
        let mut out = [0u64; LANES];
        let mut status = [Ok(()); LANES];
        let certification = certify_plan(plan, probes, |ns, got| {
            for (ns, got) in ns.chunks(LANES).zip(got.chunks_mut(LANES)) {
                let lanes = ns.len();
                for (a, &n) in args.iter_mut().zip(ns) {
                    *a = n as u64;
                }
                prog.eval_lanes(
                    &args[..lanes],
                    &opts,
                    &mut out[..lanes],
                    &mut status[..lanes],
                );
                for ((g, &v), s) in got.iter_mut().zip(&out).zip(&status) {
                    *g = s.map_or(u128::MAX, |()| u128::from(v));
                }
            }
        });
        (Some(cycles), certification)
    }
}

/// Runs the full unsigned tournament for `(d, width)` on the named
/// Table 1.1 model, judged by [`SimcpuJudge`]. `None` model name means
/// [`DEFAULT_TOURNAMENT_MODEL`].
///
/// # Errors
///
/// [`DivisorError::Zero`] when `d == 0`. Unknown model names fall back
/// to the default model (the caller validated the name; the tournament
/// records which model actually priced it in
/// [`TournamentResult::model`]).
pub fn run_tournament(
    d: u128,
    width: u32,
    model: Option<&str>,
) -> Result<TournamentResult, DivisorError> {
    run_udiv_tournament(d, width, &judge_for(model))
}

/// Runs the direct-remainder tournament for `(d, width)` on the named
/// Table 1.1 model: the LKK fraction, the mask shortcut for powers of
/// two, and the §1 multiply-back baseline, judged by [`SimcpuJudge`].
/// `None` model name means [`DEFAULT_TOURNAMENT_MODEL`].
///
/// # Errors
///
/// [`DivisorError::Zero`] when `d == 0`; unknown model names fall back
/// to the default model, as in [`run_tournament`].
pub fn run_urem_tournament(
    d: u128,
    width: u32,
    model: Option<&str>,
) -> Result<TournamentResult, DivisorError> {
    magicdiv::run_urem_tournament(d, width, &judge_for(model))
}

/// The judge on the named model, or on the default for `None` or an
/// unknown name.
fn judge_for(model: Option<&str>) -> SimcpuJudge {
    model
        .and_then(SimcpuJudge::named)
        .unwrap_or_else(SimcpuJudge::default_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicdiv::plan::UdivPlan;
    use magicdiv::{CandidateSource, Outcome};

    /// Certifies one plan on its lowered IR and its own pool's probes.
    fn certify_alone(plan: &DivPlan) -> Certification {
        SimcpuJudge::default_model()
            .judge(plan, &Probes::for_plan(plan))
            .1
    }

    #[test]
    fn simcpu_judge_prices_all_word_widths() {
        let judge = SimcpuJudge::default_model();
        for width in [8u32, 16, 32, 64] {
            let plan = DivPlan::from(UdivPlan::new(7, width).unwrap());
            let probes = Probes::for_plan(&plan);
            assert!(judge.judge(&plan, &probes).0.is_some(), "w={width}");
        }
        let wide = DivPlan::from(UdivPlan::new(7, 128).unwrap());
        let (cycles, cert) = judge.judge(&wide, &Probes::for_plan(&wide));
        assert_eq!(cycles, None, "128-bit plans are unpriceable");
        assert!(matches!(cert, Certification::Passed { proved: true, .. }));
    }

    #[test]
    fn simcpu_judge_passes_paper_plans() {
        for (d, width) in [(3u128, 8u32), (10, 16), (7, 32), (274177, 64)] {
            let plan = DivPlan::from(UdivPlan::new(d, width).unwrap());
            match certify_alone(&plan) {
                Certification::Passed { inputs, .. } => assert!(inputs > 0),
                other => panic!("d={d} w={width}: {other:?}"),
            }
        }
    }

    #[test]
    fn simcpu_judge_fails_a_corrupted_plan() {
        // An off-by-one magic multiplier must be caught: d = 10's
        // multiplier (2^34 + 1)/5 is odd, so flipping bit 0 subtracts one.
        let bad = UdivPlan::new(10, 32).unwrap().flip_bit(0);
        assert!(matches!(
            certify_alone(&DivPlan::from(bad)),
            Certification::Failed { .. }
        ));
    }

    #[test]
    fn tournament_on_cycle_model_beats_paper_for_known_cells() {
        // d = 35 at width 8: Fig 4.2 needs the add-fixup sequence; the
        // optimal-bounds multiplier is a plain MULUH + SRL — strictly
        // fewer cycles on every model.
        let t = run_tournament(35, 8, None).unwrap();
        assert!(!t.winner_is_paper());
        assert_eq!(t.winning().candidate.source, CandidateSource::OptimalBounds);
        let paper = &t.scoreboard[0];
        assert!(t.winning().cycles.unwrap() < paper.cycles.unwrap());
        assert!(matches!(paper.outcome, Outcome::Lost(_)));
    }

    #[test]
    fn simcpu_judge_covers_urem_plans() {
        use magicdiv::plan::{UremPlan, UremStrategy};
        for (d, width) in [(3u128, 8u32), (10, 16), (7, 32), (641, 64)] {
            let plan = DivPlan::from(UremPlan::new_direct(d, width).unwrap());
            match certify_alone(&plan) {
                Certification::Passed { inputs, .. } => assert!(inputs > 0),
                other => panic!("d={d} w={width}: {other:?}"),
            }
        }
        // A fraction multiplier one below the LKK minimum fails at the
        // directed probe n = d (upward perturbations are equivalent
        // plans, not bugs — see the core tournament tests).
        let good = UremPlan::new_direct(10, 32).unwrap();
        let UremStrategy::Fraction { c_hi, c_lo } = good.strategy() else {
            panic!("d=10 w=32 should take the fraction path");
        };
        let bad = UremPlan::from_raw(
            10,
            32,
            UremStrategy::Fraction {
                c_hi,
                c_lo: c_lo.wrapping_sub(1),
            },
        );
        assert!(matches!(
            certify_alone(&DivPlan::from(bad)),
            Certification::Failed { .. }
        ));
    }

    #[test]
    fn urem_tournament_prefers_direct_remainder_on_pipelined_models() {
        // d = 7 at width 32 on the pipelined Alpha 21064: the quotient
        // plan needs Fig 4.2's add-fixup before the multiply-back, while
        // the LKK fraction's three independent leading multiplies
        // overlap in the pipelined multiplier — the direct form wins.
        let t = run_urem_tournament(7, 32, Some("DEC Alpha 21064")).unwrap();
        assert!(matches!(
            t.winning().candidate.plan,
            DivPlan::Urem(p) if matches!(p.strategy(), magicdiv::plan::UremStrategy::Fraction { .. })
        ));
        // On the R4000 at d = 10 the plain mul-shift quotient is cheap
        // enough that multiply-back keeps the crown — the scoreboard is
        // a genuine per-model decision, not a foregone conclusion.
        let t = run_urem_tournament(10, 32, None).unwrap();
        assert!(matches!(
            t.winning().candidate.plan,
            DivPlan::Urem(p) if matches!(p.strategy(), magicdiv::plan::UremStrategy::MulBack { .. })
        ));
        // Powers of two always collapse to the mask.
        let t = run_urem_tournament(64, 32, None).unwrap();
        assert!(matches!(
            t.winning().candidate.plan,
            DivPlan::Urem(p) if matches!(p.strategy(), magicdiv::plan::UremStrategy::Mask { .. })
        ));
    }

    #[test]
    fn one_lowering_per_candidate_at_the_standalone_prices() {
        use magicdiv::{udiv_candidates, urem_candidates};
        use magicdiv_trace::{install, JsonlSink};
        use std::sync::Arc;

        // A `CaptureSink` keeps events only; the JSONL stream has spans.
        for run in [run_tournament, run_urem_tournament] {
            let sink = Arc::new(JsonlSink::new());
            let t = {
                let _guard = install(sink.clone());
                run(10, 32, None).unwrap()
            };
            let lowerings = sink
                .finish()
                .lines()
                .filter(|l| l.contains(r#""type":"span_enter","depth":"#))
                .filter(|l| l.ends_with(r#""name":"ir.optimize"}"#))
                .count();
            assert_eq!(lowerings, t.scoreboard.len());
        }
        let judge = SimcpuJudge::default_model();
        for width in [8u32, 16, 32, 64] {
            for d in [3u128, 7, 10, 35, 44, 586, 641, 102_807] {
                if d >> width != 0 {
                    continue;
                }
                let pools = [udiv_candidates(d, width), urem_candidates(d, width)];
                for pool in pools.map(Result::unwrap) {
                    let probes = Probes::for_plan(&pool[0].plan);
                    for c in &pool {
                        let want = magicdiv_simcpu::try_cycles_for_plan(&c.plan, &judge.model);
                        assert_eq!(judge.judge(&c.plan, &probes).0, want.ok(), "{}", c.plan);
                    }
                }
            }
        }
    }

    #[test]
    fn tournament_result_is_stable_across_runs() {
        for d in [7u128, 35, 586, 102807] {
            for width in [16u32, 32] {
                if d > (1 << width) - 1 {
                    continue;
                }
                let a = run_tournament(d, width, Some("MIPS R4000")).unwrap();
                let b = run_tournament(d, width, Some("MIPS R4000")).unwrap();
                assert_eq!(a, b, "d={d} w={width}");
            }
        }
    }
}
