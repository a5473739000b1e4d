//! The bench-side half of the planner tournament: a [`PlanScorer`] that
//! prices candidates on a Table 1.1 cycle model via `magicdiv-simcpu`,
//! and a [`PlanCertifier`] that certifies the *lowered IR* of each
//! candidate against the i128 differential oracle — the same ground
//! truth the `verify` harness uses.
//!
//! The core crate sits below the IR in the dependency order, so its
//! default scorer counts operations and its default certifier evaluates
//! plan arithmetic directly. The implementations here close the loop:
//! the scoreboard prices what the machine would run, and the winner is
//! certified on the instruction sequence `magicdiv-codegen` emits.

use magicdiv::plan::DivPlan;
use magicdiv::{
    certify_plan, run_udiv_tournament, ArithmeticCertifier, Certification, DivisorError,
    PlanCertifier, PlanScorer, Probes, TournamentResult,
};
use magicdiv_ir::{lower_plan, optimize, EvalOptions, LANES};
use magicdiv_simcpu::{find_model, TimingModel};

/// The default cost model for tournaments: pipelined multiplier, the
/// mid-range of Table 1.1 — a model where multiply-heavy candidates can
/// genuinely overlap independent work.
pub const DEFAULT_TOURNAMENT_MODEL: &str = "MIPS R4000";

/// Prices a plan by lowering it to optimized IR and simulating it on a
/// Table 1.1 timing model ([`magicdiv_simcpu::cycles_for_plan`]).
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv::PlanScorer;
/// use magicdiv_bench::SimcpuScorer;
///
/// let scorer = SimcpuScorer::default_model();
/// let plan = DivPlan::from(UdivPlan::new(10, 32).unwrap());
/// assert!(scorer.score(&plan).unwrap() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimcpuScorer {
    model: TimingModel,
}

impl SimcpuScorer {
    /// A scorer on the given timing model.
    pub fn new(model: TimingModel) -> Self {
        SimcpuScorer { model }
    }

    /// A scorer on the Table 1.1 model with the given name (see
    /// [`magicdiv_simcpu::find_model`]); `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        find_model(name).map(SimcpuScorer::new)
    }

    /// A scorer on [`DEFAULT_TOURNAMENT_MODEL`].
    pub fn default_model() -> Self {
        Self::named(DEFAULT_TOURNAMENT_MODEL).expect("default model is in the Table 1.1 catalog")
    }

    /// The underlying timing model.
    pub fn model(&self) -> &TimingModel {
        &self.model
    }
}

impl PlanScorer for SimcpuScorer {
    fn score(&self, plan: &DivPlan) -> Option<u64> {
        magicdiv_simcpu::try_cycles_for_plan(plan, &self.model).ok()
    }

    fn model_name(&self) -> &str {
        self.model.name
    }
}

/// Certifies an unsigned or direct-remainder candidate on its *lowered,
/// optimized* IR program through [`certify_plan`]: every dividend through
/// width 16; above, the plan's exact validity predicate plus the directed
/// probes, which here run the program and so exercise the lowering. The
/// program runs [`LANES`] probes at a time through
/// [`Program::eval_lanes`](magicdiv_ir::Program::eval_lanes), one
/// interpreter pass per batch; a lane that faults reads as `u128::MAX`,
/// which no truth value equals. At width 128, beyond the IR
/// interpreter's words, it defers to the [`ArithmeticCertifier`]. Plans
/// with no competing candidate pool (signed, floor, …) are
/// [`Certification::Skipped`].
///
/// This is strictly stronger than the core's arithmetic certifier: a bug
/// in the lowering (not just the plan constants) fails certification
/// here.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleCertifier;

impl PlanCertifier for OracleCertifier {
    fn certify(&self, plan: &DivPlan, probes: &Probes) -> Certification {
        if !matches!(plan, DivPlan::Unsigned(_) | DivPlan::Urem(_)) {
            return Certification::Skipped;
        }
        // Above the IR's 64-bit words there is no program to run.
        let Ok(raw) = lower_plan(plan) else {
            return ArithmeticCertifier.certify(plan, probes);
        };
        let prog = optimize(&raw);
        let opts = EvalOptions::default();
        let mut args = [0u64; LANES];
        let mut out = [0u64; LANES];
        let mut status = [Ok(()); LANES];
        certify_plan(plan, probes, |ns, got| {
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
        })
    }
}

/// Runs the full unsigned tournament for `(d, width)` on the named
/// Table 1.1 model, priced by [`SimcpuScorer`] and certified by
/// [`OracleCertifier`]. `None` model name means
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
    let scorer = model
        .and_then(SimcpuScorer::named)
        .unwrap_or_else(SimcpuScorer::default_model);
    run_udiv_tournament(d, width, &scorer, &OracleCertifier)
}

/// Runs the direct-remainder tournament for `(d, width)` on the named
/// Table 1.1 model: the LKK fraction, the mask shortcut for powers of
/// two, and the §1 multiply-back baseline, priced by [`SimcpuScorer`]
/// and certified on lowered IR by [`OracleCertifier`]. `None` model name
/// means [`DEFAULT_TOURNAMENT_MODEL`].
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
    let scorer = model
        .and_then(SimcpuScorer::named)
        .unwrap_or_else(SimcpuScorer::default_model);
    magicdiv::run_urem_tournament(d, width, &scorer, &OracleCertifier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magicdiv::plan::UdivPlan;
    use magicdiv::{CandidateSource, Outcome};

    /// Certifies one plan on its lowered IR and its own pool's probes.
    fn certify_alone(plan: &DivPlan) -> Certification {
        OracleCertifier.certify(plan, &Probes::for_plan(plan))
    }

    #[test]
    fn simcpu_scorer_prices_all_word_widths() {
        let scorer = SimcpuScorer::default_model();
        for width in [8u32, 16, 32, 64] {
            let plan = DivPlan::from(UdivPlan::new(7, width).unwrap());
            assert!(scorer.score(&plan).is_some(), "w={width}");
        }
        let wide = DivPlan::from(UdivPlan::new(7, 128).unwrap());
        assert_eq!(scorer.score(&wide), None, "128-bit plans are unpriceable");
    }

    #[test]
    fn oracle_certifier_passes_paper_plans() {
        for (d, width) in [(3u128, 8u32), (10, 16), (7, 32), (274177, 64)] {
            let plan = DivPlan::from(UdivPlan::new(d, width).unwrap());
            match certify_alone(&plan) {
                Certification::Passed { inputs, .. } => assert!(inputs > 0),
                other => panic!("d={d} w={width}: {other:?}"),
            }
        }
    }

    #[test]
    fn oracle_certifier_fails_a_corrupted_plan() {
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
    fn oracle_certifier_covers_urem_plans() {
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
        // plans, not bugs — see the core certifier tests).
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
