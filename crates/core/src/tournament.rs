//! The planner tournament: lower every candidate strategy, price it on a
//! cost model, certify the winner, and keep the full scoreboard.
//!
//! [`select_udiv`] is the selection entry the public constructors wrap:
//! with [`Strategy::PaperOnly`] it short-circuits to the 1994 Figure 4.2
//! rules (bit-identical plans, goldens stay reproducible); with
//! [`Strategy::Tournament`] every [`CandidateGen`](crate::CandidateGen) family competes and
//! the cheapest *certified* plan wins.
//!
//! Pricing and certification are injected through [`PlanScorer`] and
//! [`PlanCertifier`] so this crate stays at the bottom of the dependency
//! order: the core defaults ([`OpCountScorer`], [`ArithmeticCertifier`])
//! know nothing about the IR; `magicdiv-bench` supplies a
//! `simcpu`-backed scorer on a selectable Table 1.1 model and an
//! oracle-backed certifier that runs the *lowered* program.
//!
//! Every tournament emits `plan.tournament` trace events (one per
//! candidate, with provenance) plus a `tournament` summary event whose
//! `candidates`/`winner` fields land in the run-ledger metrics.

use core::fmt;

use crate::candidates::{unsigned_generators, urem_candidates, Candidate, CandidateSource};
use crate::error::DivisorError;
use crate::plan::{
    mask, DivPlan, DivisibilityStrategy, UdivPlan, UdivStrategy, UremPlan, UremStrategy,
};
use crate::testkit::directed_unsigned_dividends;
use crate::validity;

/// How a public constructor selects its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The escape hatch: exactly the paper's decision rules, no
    /// competing candidates, no extra trace events. The default — all
    /// pinned plans and goldens reproduce.
    #[default]
    PaperOnly,
    /// Run the candidate tournament and take the certified winner.
    Tournament,
}

/// Prices a plan for the tournament. `None` means this scorer cannot
/// price the plan (unsupported shape or width); such candidates lose as
/// [`LossReason::Unpriced`] unless every candidate is unpriced, in which
/// case the paper baseline wins by default.
pub trait PlanScorer {
    /// Estimated cost (cycles, or any monotone proxy) — lower wins.
    fn score(&self, plan: &DivPlan) -> Option<u64>;

    /// The cost model's name, recorded in the scoreboard.
    fn model_name(&self) -> &str;
}

/// Checks a candidate plan against ground truth. Implementations must be
/// deterministic — the tournament result feeds drift-gated snapshots.
pub trait PlanCertifier {
    /// Certifies (or refutes) `plan`.
    fn certify(&self, plan: &DivPlan) -> Certification;
}

/// The outcome of certifying one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Certification {
    /// Every probed dividend agreed with ground truth.
    Passed {
        /// How many dividends were checked (`2^width` when exhaustive).
        inputs: u64,
        /// Whether an exact validity predicate proved the plan for every
        /// dividend, the `inputs` being directed probes on top.
        proved: bool,
    },
    /// A counterexample was found; the candidate is disqualified.
    Failed {
        /// The dividend that disagreed.
        n: u128,
        /// What the candidate computed.
        got: u128,
        /// The true quotient.
        want: u128,
    },
    /// The certifier does not cover this plan shape; the candidate stays
    /// eligible (soundness rests on the generator's proof).
    Skipped,
}

/// Why a candidate lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossReason {
    /// Strictly more cycles than the winner on the scoring model.
    MoreCycles,
    /// Same cycles, but the multiplier needs more than a word
    /// (`m >= 2^N`) while the winner's fits.
    WiderMultiply,
    /// The certifier found a counterexample.
    FailedCertification,
    /// The scorer could not price this plan.
    Unpriced,
    /// Tied on every ranked criterion; lost the deterministic
    /// paper-first / smaller-multiplier tie-break.
    LostTieBreak,
}

impl LossReason {
    /// Short stable name for tables and traces.
    pub fn name(self) -> &'static str {
        match self {
            LossReason::MoreCycles => "more_cycles",
            LossReason::WiderMultiply => "wider_multiply",
            LossReason::FailedCertification => "failed_certification",
            LossReason::Unpriced => "unpriced",
            LossReason::LostTieBreak => "lost_tie_break",
        }
    }
}

impl fmt::Display for LossReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Won or lost (and why).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// This candidate's plan was selected.
    Won,
    /// This candidate lost for the stated reason.
    Lost(LossReason),
}

/// One scoreboard row: a candidate with its price and fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredCandidate {
    /// The candidate (plan + provenance).
    pub candidate: Candidate,
    /// Its price on the scoring model, when priceable.
    pub cycles: Option<u64>,
    /// Its certification result.
    pub certification: Certification,
    /// Won or lost.
    pub outcome: Outcome,
}

/// The full record of one tournament.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentResult {
    /// The divisor competed for.
    pub d: u128,
    /// The bit width.
    pub width: u32,
    /// The scoring model's name.
    pub model: String,
    /// Every candidate in generation order (paper baseline first).
    pub scoreboard: Vec<ScoredCandidate>,
    /// Index of the winner in [`scoreboard`](Self::scoreboard).
    pub winner: usize,
}

impl TournamentResult {
    /// The winning row.
    pub fn winning(&self) -> &ScoredCandidate {
        &self.scoreboard[self.winner]
    }

    /// The losing rows, in generation order.
    pub fn losers(&self) -> impl Iterator<Item = &ScoredCandidate> {
        let w = self.winner;
        self.scoreboard
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != w)
            .map(|(_, c)| c)
    }

    /// Whether the paper baseline kept its crown.
    pub fn winner_is_paper(&self) -> bool {
        self.winning().candidate.source == CandidateSource::PaperBaseline
    }
}

/// The core default scorer: straight operation counts of the lowered
/// sequence, mirroring `magicdiv_ir::lower_udiv`. Prices unsigned plans
/// only — `magicdiv-bench` provides the Table 1.1 cycle-model scorer for
/// everything the IR lowers.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCountScorer;

/// Operation count of the lowered unsigned-quotient sequence.
fn udiv_op_count(strategy: UdivStrategy) -> u64 {
    match strategy {
        UdivStrategy::Identity => 0,
        UdivStrategy::Shift { .. } => 1,
        UdivStrategy::MulShift {
            sh_pre, sh_post, ..
        } => 1 + u64::from(sh_pre > 0) + u64::from(sh_post > 0),
        UdivStrategy::MulAddShift { sh_post, .. } => 4 + u64::from(sh_post > 1),
        UdivStrategy::MulRoundUp { sh_post, .. } => 4 + u64::from(sh_post > 0),
    }
}

impl PlanScorer for OpCountScorer {
    fn score(&self, plan: &DivPlan) -> Option<u64> {
        Some(match plan {
            DivPlan::Unsigned(p) => udiv_op_count(p.strategy()),
            DivPlan::Urem(p) => match p.strategy() {
                UremStrategy::Mask { .. } => 1,
                // MULL, MULUH, MULL, ADD to form the fraction, then
                // MULUH, MULL, MULUH, CARRY, ADD to scale it by d.
                UremStrategy::Fraction { .. } => 9,
                // The quotient sequence plus MULL and SUB (§1).
                UremStrategy::MulBack { udiv } => udiv_op_count(udiv) + 2,
            },
            DivPlan::Divisibility(p) => match p.strategy() {
                // AND, then compare-to-zero via SLTU + SUB-from-1.
                DivisibilityStrategy::Mask { .. } => 3,
                // MULL, rotate (SRL/SLL/OR when e > 0), SLTU, SUB.
                DivisibilityStrategy::InverseRotate { e, .. } => 3 + 3 * u64::from(e > 0),
            },
            _ => return None,
        })
    }

    fn model_name(&self) -> &str {
        "op-count"
    }
}

/// The core default certifier: evaluates unsigned quotient, remainder
/// and divisibility plans arithmetically (see [`certify_plan`]) against
/// native `u128` division. Other shapes are [`Certification::Skipped`]
/// (`magicdiv-bench` certifies against the lowered IR).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArithmeticCertifier;

/// The certification driver both tournament certifiers share. `run(n)`
/// returns `(got, want)` for one dividend: what the candidate computes
/// (however the caller runs it) and the truth.
///
/// At `width <= 16` every dividend is run. Above, the plan must satisfy
/// its exact [`validity`] predicate — a proof for every
/// dividend — and then agree on the [`directed_unsigned_dividends`],
/// which exercise the code that runs rather than the constants. A plan
/// the predicate refutes fails at the predicate's witness. Shapes
/// without a predicate are [`Certification::Skipped`].
pub fn certify_plan(plan: &DivPlan, mut run: impl FnMut(u128) -> (u128, u128)) -> Certification {
    let d = match plan {
        DivPlan::Unsigned(p) => p.divisor(),
        DivPlan::Urem(p) => p.divisor(),
        DivPlan::Divisibility(p) => p.divisor(),
        _ => return Certification::Skipped,
    };
    let w = plan.width();
    let mut inputs = 0u64;
    if w <= 16 {
        return first_failure(0..=mask(w), &mut run, &mut inputs).unwrap_or(
            Certification::Passed {
                inputs,
                proved: false,
            },
        );
    }
    let mut proved = true;
    if let Some(Err(n)) = validity::plan_valid(plan) {
        if let Some(fail) = first_failure([n], &mut run, &mut inputs) {
            return fail;
        }
        // The predicate refuted the plan but its witness agrees. Only two
        // plans get here: a multiply-back remainder with even `d`, whose
        // quotient is wrong at `n` while the remainder can still be right,
        // and a §9 test with a wrong inverse whose witness search came up
        // empty. No proof either way, so certify on the probes alone.
        proved = false;
    }
    first_failure(directed_unsigned_dividends(d, w), &mut run, &mut inputs)
        .unwrap_or(Certification::Passed { inputs, proved })
}

/// Runs `ns` in order, counting them in `inputs`, up to the first that
/// disagrees with the truth.
fn first_failure(
    ns: impl IntoIterator<Item = u128>,
    run: &mut impl FnMut(u128) -> (u128, u128),
    inputs: &mut u64,
) -> Option<Certification> {
    ns.into_iter().find_map(|n| {
        *inputs += 1;
        let (got, want) = run(n);
        (got != want).then_some(Certification::Failed { n, got, want })
    })
}

impl PlanCertifier for ArithmeticCertifier {
    fn certify(&self, plan: &DivPlan) -> Certification {
        match plan {
            DivPlan::Unsigned(p) => {
                certify_plan(plan, |n| (validity::eval_unsigned(p, n), n / p.divisor()))
            }
            DivPlan::Urem(p) => {
                certify_plan(plan, |n| (validity::eval_urem(p, n), n % p.divisor()))
            }
            DivPlan::Divisibility(p) => certify_plan(plan, |n| {
                (
                    validity::eval_divisibility(p, n),
                    u128::from(n % p.divisor() == 0),
                )
            }),
            _ => Certification::Skipped,
        }
    }
}

/// What [`select_udiv`] hands back: the plan to cache, plus the full
/// scoreboard when a tournament actually ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdivSelection {
    /// The selected plan.
    pub plan: UdivPlan,
    /// The tournament record (`None` under [`Strategy::PaperOnly`]).
    pub tournament: Option<TournamentResult>,
}

/// Whether a plan's multiplier exceeds the word (`m >= 2^N`).
fn wider_multiply(plan: &DivPlan) -> bool {
    matches!(
        plan,
        DivPlan::Unsigned(p) if matches!(p.strategy(), UdivStrategy::MulAddShift { .. })
    )
}

/// A deterministic tie-break key after cycles: word-sized multipliers
/// beat wide ones, the paper baseline beats challengers, then the
/// smaller multiplier wins.
fn tie_break_key(c: &Candidate) -> (bool, bool, u128) {
    let m = match &c.plan {
        DivPlan::Unsigned(p) => match p.strategy() {
            UdivStrategy::MulShift { m, .. } | UdivStrategy::MulRoundUp { m, .. } => m,
            // 2^N + m', except at w128, where only m' fits (and orders
            // the same: `wider_multiply` already sets these apart).
            UdivStrategy::MulAddShift { m_minus_pow2n, .. } => {
                m_minus_pow2n | 1u128.checked_shl(p.width()).unwrap_or(0)
            }
            _ => 0,
        },
        _ => 0,
    };
    (
        wider_multiply(&c.plan),
        c.source != CandidateSource::PaperBaseline,
        m,
    )
}

/// Runs the unsigned tournament: generate, price, certify, rank.
///
/// The scoreboard keeps generation order (paper baseline first). The
/// winner is the cheapest certified candidate under
/// `(cycles, wide-multiplier, non-paper, multiplier)` ordering; if no
/// candidate is both priceable and certified, the paper baseline wins by
/// default (its correctness is the paper's Theorem 4.2, not the
/// scorer's).
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `d == 0`.
///
/// # Panics
///
/// Panics when `width` is unsupported (see [`crate::plan`]) or `d` does
/// not fit in `width` bits (both via [`UdivPlan::new`]).
pub fn run_udiv_tournament(
    d: u128,
    width: u32,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> Result<TournamentResult, DivisorError> {
    let _span = magicdiv_trace::span("plan.tournament");
    let mut candidates = Vec::new();
    for gen in unsigned_generators() {
        candidates.extend(gen.generate(d, width)?);
    }
    Ok(rank_candidates(d, width, candidates, scorer, certifier))
}

/// Runs the unsigned-remainder tournament: §1 multiply-back vs the
/// Lemire–Kaser–Kurz direct fraction path, priced and certified like any
/// other candidate pool. Same ranking and default-to-paper rules as
/// [`run_udiv_tournament`].
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `d == 0`.
///
/// # Panics
///
/// Panics when `width` is unsupported (see [`crate::plan`]) or `d` does
/// not fit in `width` bits (both via [`UremPlan::new`]).
pub fn run_urem_tournament(
    d: u128,
    width: u32,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> Result<TournamentResult, DivisorError> {
    let _span = magicdiv_trace::span("plan.tournament");
    let candidates = urem_candidates(d, width)?;
    Ok(rank_candidates(d, width, candidates, scorer, certifier))
}

/// Prices, certifies and ranks a candidate pool: the cheapest
/// certified-or-skipped priced candidate wins; if no candidate is both
/// priceable and uncontradicted, the paper baseline wins by default.
fn rank_candidates(
    d: u128,
    width: u32,
    candidates: Vec<Candidate>,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> TournamentResult {
    let mut rows: Vec<ScoredCandidate> = Vec::new();
    let mut paper_idx = 0usize;
    for candidate in candidates {
        if candidate.source == CandidateSource::PaperBaseline {
            paper_idx = rows.len();
        }
        let cycles = scorer.score(&candidate.plan);
        let certification = certifier.certify(&candidate.plan);
        rows.push(ScoredCandidate {
            candidate,
            cycles,
            certification,
            outcome: Outcome::Lost(LossReason::LostTieBreak), // assigned below
        });
    }
    // Rank: cheapest certified-or-skipped priced candidate wins.
    let winner = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| !matches!(r.certification, Certification::Failed { .. }))
        .filter_map(|(i, r)| r.cycles.map(|c| (i, r, c)))
        .min_by_key(|(_, r, c)| (*c, tie_break_key(&r.candidate)))
        .map(|(i, _, _)| i)
        .unwrap_or(paper_idx);
    let win_cycles = rows[winner].cycles;
    let win_wide = wider_multiply(&rows[winner].candidate.plan);
    for (i, row) in rows.iter_mut().enumerate() {
        row.outcome = if i == winner {
            Outcome::Won
        } else if matches!(row.certification, Certification::Failed { .. }) {
            Outcome::Lost(LossReason::FailedCertification)
        } else {
            match (row.cycles, win_cycles) {
                (None, _) => Outcome::Lost(LossReason::Unpriced),
                (Some(c), Some(w)) if c > w => Outcome::Lost(LossReason::MoreCycles),
                _ => {
                    if wider_multiply(&row.candidate.plan) && !win_wide {
                        Outcome::Lost(LossReason::WiderMultiply)
                    } else {
                        Outcome::Lost(LossReason::LostTieBreak)
                    }
                }
            }
        };
    }
    let result = TournamentResult {
        d,
        width,
        model: scorer.model_name().to_string(),
        scoreboard: rows,
        winner,
    };
    emit_events(&result);
    result
}

/// Emits the `plan.tournament` per-candidate events and the `tournament`
/// summary event (whose `candidates`/`winner` fields become run-ledger
/// metrics via the metrics sink).
fn emit_events(t: &TournamentResult) {
    for (i, row) in t.scoreboard.iter().enumerate() {
        let (outcome, why) = match row.outcome {
            Outcome::Won => ("won", "selected"),
            Outcome::Lost(reason) => ("lost", reason.name()),
        };
        magicdiv_trace::event!("plan.tournament",
            "d" => t.d, "width" => t.width, "model" => t.model.clone(),
            "source" => row.candidate.source.name(),
            "strategy" => row.candidate.plan.strategy_name(),
            "plan" => format!("{}", row.candidate.plan),
            "cycles" => row.cycles.map_or_else(|| "-".to_string(), |c| c.to_string()),
            "certified" => match row.certification {
                Certification::Passed { .. } => "passed",
                Certification::Failed { .. } => "failed",
                Certification::Skipped => "skipped",
            },
            "outcome" => outcome, "why" => why, "rank" => i as u64,
            "provenance" => row.candidate.source.provenance());
    }
    magicdiv_trace::event!("tournament",
        "d" => t.d, "width" => t.width,
        "candidates" => t.scoreboard.len() as u64,
        "winner" => t.winner as u64,
        "winner_non_paper" => u64::from(!t.winner_is_paper()),
        "model" => t.model.clone());
}

/// The selection entry the public unsigned constructors wrap.
///
/// [`Strategy::PaperOnly`] short-circuits to [`UdivPlan::new`] — no
/// candidates, no tournament events, bit-identical plans.
/// [`Strategy::Tournament`] runs [`run_udiv_tournament`] and returns its
/// certified winner.
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `d == 0`.
///
/// # Panics
///
/// Panics when `width` is unsupported or `d` does not fit in `width`
/// bits.
pub fn select_udiv(
    d: u128,
    width: u32,
    strategy: Strategy,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> Result<UdivSelection, DivisorError> {
    match strategy {
        Strategy::PaperOnly => Ok(UdivSelection {
            plan: UdivPlan::new(d, width)?,
            tournament: None,
        }),
        Strategy::Tournament => {
            let t = run_udiv_tournament(d, width, scorer, certifier)?;
            let plan = match t.winning().candidate.plan {
                DivPlan::Unsigned(p) => p,
                // Unsigned generators only produce unsigned plans; fall
                // back to the paper plan should that ever change.
                _ => UdivPlan::new(d, width)?,
            };
            Ok(UdivSelection {
                plan,
                tournament: Some(t),
            })
        }
    }
}

/// What [`select_urem`] hands back: the remainder plan to cache, plus the
/// full scoreboard when a tournament actually ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UremSelection {
    /// The selected plan.
    pub plan: UremPlan,
    /// The tournament record (`None` under [`Strategy::PaperOnly`]).
    pub tournament: Option<TournamentResult>,
}

/// The selection entry for the remainder path.
///
/// [`Strategy::PaperOnly`] short-circuits to [`UremPlan::new`] — the §1
/// multiply-back baseline (or a mask for powers of two), bit-compatible
/// with what `div_rem` always computed. [`Strategy::Tournament`] runs
/// [`run_urem_tournament`] and returns its certified winner, which may be
/// the Lemire–Kaser–Kurz direct fraction plan.
///
/// # Errors
///
/// Returns [`DivisorError::Zero`] when `d == 0`.
///
/// # Panics
///
/// Panics when `width` is unsupported or `d` does not fit in `width`
/// bits.
pub fn select_urem(
    d: u128,
    width: u32,
    strategy: Strategy,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> Result<UremSelection, DivisorError> {
    match strategy {
        Strategy::PaperOnly => Ok(UremSelection {
            plan: UremPlan::new(d, width)?,
            tournament: None,
        }),
        Strategy::Tournament => {
            let t = run_urem_tournament(d, width, scorer, certifier)?;
            let plan = match t.winning().candidate.plan {
                DivPlan::Urem(p) => p,
                // The urem roster only fields urem plans; fall back to
                // the baseline should that ever change.
                _ => UremPlan::new(d, width)?,
            };
            Ok(UremSelection {
                plan,
                tournament: Some(t),
            })
        }
    }
}

/// Wraps an already-selected plan of any shape as a one-candidate
/// "tournament" scoreboard — how the signed/floor/exact constructors
/// surface their (currently uncontested) paper baseline through the same
/// reporting machinery.
pub fn paper_only_tournament(
    plan: DivPlan,
    scorer: &dyn PlanScorer,
    certifier: &dyn PlanCertifier,
) -> TournamentResult {
    let d = match &plan {
        DivPlan::Unsigned(p) => p.divisor(),
        DivPlan::Signed(p) => p.divisor().unsigned_abs(),
        DivPlan::Floor(p) => p.divisor().unsigned_abs(),
        DivPlan::Exact(p) => p.divisor_abs(),
        DivPlan::Dword(p) => p.divisor(),
        DivPlan::Urem(p) => p.divisor(),
        DivPlan::Divisibility(p) => p.divisor(),
    };
    let width = plan.width();
    let cycles = scorer.score(&plan);
    let certification = certifier.certify(&plan);
    let result = TournamentResult {
        d,
        width,
        model: scorer.model_name().to_string(),
        scoreboard: vec![ScoredCandidate {
            candidate: Candidate {
                plan,
                source: CandidateSource::PaperBaseline,
                why: "only family fielding candidates for this shape".to_string(),
            },
            cycles,
            certification,
            outcome: Outcome::Won,
        }],
        winner: 0,
    };
    emit_events(&result);
    result
}

/// The scoreboard a single-family constructor returns for `strategy`:
/// none under [`Strategy::PaperOnly`], otherwise `plan` wrapped by
/// [`paper_only_tournament`] under the core's op-count scorer and
/// arithmetic certifier.
pub(crate) fn paper_only_scoreboard(
    plan: impl Into<DivPlan>,
    strategy: Strategy,
) -> Option<TournamentResult> {
    match strategy {
        Strategy::PaperOnly => None,
        Strategy::Tournament => Some(paper_only_tournament(
            plan.into(),
            &OpCountScorer,
            &ArithmeticCertifier,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DivisibilityPlan;
    use crate::validity::{eval_divisibility, eval_unsigned, eval_urem};

    #[test]
    fn paper_only_matches_legacy_selection() {
        for d in [1u128, 2, 3, 7, 10, 14, 641, 274177] {
            for width in [8u32, 16, 32, 64] {
                if d > ((1u128 << width) - 1) {
                    continue;
                }
                let sel = select_udiv(
                    d,
                    width,
                    Strategy::PaperOnly,
                    &OpCountScorer,
                    &ArithmeticCertifier,
                )
                .unwrap();
                assert_eq!(
                    sel.plan,
                    UdivPlan::new(d, width).unwrap(),
                    "d={d} w={width}"
                );
                assert!(sel.tournament.is_none());
            }
        }
    }

    #[test]
    fn tournament_winner_is_always_certified_w8_exhaustive() {
        for d in 1u128..=255 {
            let sel = select_udiv(
                d,
                8,
                Strategy::Tournament,
                &OpCountScorer,
                &ArithmeticCertifier,
            )
            .unwrap();
            let t = sel.tournament.expect("tournament ran");
            match t.winning().certification {
                Certification::Passed { inputs, .. } => assert_eq!(inputs, 256, "d={d}"),
                other => panic!("d={d}: winner not certified: {other:?}"),
            }
            // The winner's plan must actually divide.
            for n in 0u128..=255 {
                assert_eq!(eval_unsigned(&sel.plan, n), n / d, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn tournament_never_scores_worse_than_paper() {
        for d in 1u128..=255 {
            let sel = select_udiv(
                d,
                8,
                Strategy::Tournament,
                &OpCountScorer,
                &ArithmeticCertifier,
            )
            .unwrap();
            let t = sel.tournament.unwrap();
            let paper = &t.scoreboard[0];
            assert_eq!(paper.candidate.source, CandidateSource::PaperBaseline);
            if let (Some(win), Some(base)) = (t.winning().cycles, paper.cycles) {
                assert!(win <= base, "d={d}: winner {win} vs paper {base}");
            }
        }
    }

    #[test]
    fn losers_carry_reasons_and_events_fire() {
        use magicdiv_trace::{install, CaptureSink};
        use std::sync::Arc;

        let sink = Arc::new(CaptureSink::new());
        let t = {
            let _guard = install(sink.clone());
            run_udiv_tournament(14, 32, &OpCountScorer, &ArithmeticCertifier).unwrap()
        };
        assert!(t.scoreboard.len() >= 2, "d=14 should field challengers");
        for loser in t.losers() {
            assert!(matches!(loser.outcome, Outcome::Lost(_)));
        }
        let events = sink.events();
        let per_candidate = events
            .iter()
            .filter(|e| e.name == "plan.tournament")
            .count();
        assert_eq!(per_candidate, t.scoreboard.len());
        assert_eq!(events.iter().filter(|e| e.name == "tournament").count(), 1);
    }

    #[test]
    fn tournament_is_deterministic() {
        for d in [3u128, 7, 10, 14, 25, 641] {
            let a = run_udiv_tournament(d, 32, &OpCountScorer, &ArithmeticCertifier).unwrap();
            let b = run_udiv_tournament(d, 32, &OpCountScorer, &ArithmeticCertifier).unwrap();
            assert_eq!(a, b, "d={d}");
        }
    }

    #[test]
    fn urem_fraction_and_mulback_agree_w8_exhaustive() {
        for d in 1u128..=255 {
            for c in urem_candidates(d, 8).unwrap() {
                let DivPlan::Urem(p) = c.plan else {
                    panic!("urem roster fielded {}", c.plan);
                };
                for n in 0u128..=255 {
                    assert_eq!(eval_urem(&p, n), n % d, "d={d} n={n} [{p}]");
                }
            }
        }
    }

    #[test]
    fn urem_fraction_boundary_dividends_w32_w64() {
        for (w, dmax) in [(32u32, u32::MAX as u128), (64, u64::MAX as u128)] {
            for d in [3u128, 7, 10, 641, 274177, dmax - 1, dmax] {
                let p = UremPlan::new_direct(d, w).unwrap();
                let q_top = dmax / d;
                for n in [
                    0,
                    1,
                    d - 1,
                    d,
                    d + 1,
                    q_top * d - 1,
                    q_top * d,
                    dmax - 1,
                    dmax,
                ] {
                    assert_eq!(eval_urem(&p, n), n % d, "w={w} d={d} n={n}");
                }
            }
        }
    }

    #[test]
    fn divisibility_eval_w8_exhaustive() {
        for d in 1u128..=255 {
            let p = DivisibilityPlan::new(d, 8).unwrap();
            for n in 0u128..=255 {
                assert_eq!(
                    eval_divisibility(&p, n),
                    u128::from(n % d == 0),
                    "d={d} n={n} [{p}]"
                );
            }
        }
    }

    #[test]
    fn urem_tournament_winner_is_certified_w8_exhaustive() {
        for d in 1u128..=255 {
            let sel = select_urem(
                d,
                8,
                Strategy::Tournament,
                &OpCountScorer,
                &ArithmeticCertifier,
            )
            .unwrap();
            let t = sel.tournament.expect("tournament ran");
            match t.winning().certification {
                Certification::Passed { inputs, .. } => assert_eq!(inputs, 256, "d={d}"),
                other => panic!("d={d}: winner not certified: {other:?}"),
            }
            for n in 0u128..=255 {
                assert_eq!(eval_urem(&sel.plan, n), n % d, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn urem_paper_only_is_mulback_or_mask() {
        for d in [3u128, 7, 10, 16, 641] {
            let sel = select_urem(
                d,
                32,
                Strategy::PaperOnly,
                &OpCountScorer,
                &ArithmeticCertifier,
            )
            .unwrap();
            assert!(sel.tournament.is_none());
            assert_eq!(sel.plan, UremPlan::new(d, 32).unwrap(), "d={d}");
            assert!(!matches!(
                sel.plan.strategy(),
                UremStrategy::Fraction { .. }
            ));
        }
    }

    #[test]
    fn urem_certifier_kills_corrupted_fraction() {
        // Drop c to c - 1 = ⌊(2^2N - 1)/d⌋: one below the LKK minimum,
        // so the fraction underestimates and n = d itself (a directed
        // probe) reads back r = d - 1 instead of 0. Note +1 corruptions
        // are NOT killable — at F = 2N the admissible interval for c is
        // ~2^N/d wide, so c + 1 is an equally-correct plan.
        let good = UremPlan::new_direct(10, 32).unwrap();
        let UremStrategy::Fraction { c_hi, c_lo } = good.strategy() else {
            panic!("expected fraction");
        };
        let bad = UremPlan::from_raw(
            10,
            32,
            UremStrategy::Fraction {
                c_hi,
                c_lo: c_lo.wrapping_sub(1),
            },
        );
        match ArithmeticCertifier.certify(&DivPlan::Urem(bad)) {
            Certification::Failed { .. } => {}
            other => panic!("corrupted fraction not refuted: {other:?}"),
        }
        assert!(matches!(
            ArithmeticCertifier.certify(&DivPlan::Urem(good)),
            Certification::Passed { .. }
        ));
    }

    /// Width-128 divisors: small, the paper's worked examples, a Fermat
    /// factor and one just past half the range.
    const W128_DIVISORS: [u128; 5] = [3, 7, 10, 641, (1 << 127) + 1];

    #[test]
    fn w128_tournament_is_proved_not_skipped() {
        for d in W128_DIVISORS {
            let t = run_udiv_tournament(d, 128, &OpCountScorer, &ArithmeticCertifier).unwrap();
            for row in &t.scoreboard {
                assert_ne!(row.certification, Certification::Skipped, "d={d}");
            }
            assert!(
                matches!(
                    t.winning().certification,
                    Certification::Passed { proved: true, .. }
                ),
                "d={d}: {:?}",
                t.winning().certification
            );
        }
    }

    #[test]
    fn w128_paper_multiplier_minus_one_fails_at_a_real_witness() {
        for d in W128_DIVISORS {
            let paper = UdivPlan::new(d, 128).unwrap();
            let strategy = match paper.strategy() {
                UdivStrategy::MulShift { m, sh_pre, sh_post } => UdivStrategy::MulShift {
                    m: m - 1,
                    sh_pre,
                    sh_post,
                },
                UdivStrategy::MulAddShift {
                    m_minus_pow2n,
                    sh_post,
                } => UdivStrategy::MulAddShift {
                    m_minus_pow2n: m_minus_pow2n - 1,
                    sh_post,
                },
                s => panic!("d={d}: no multiplier in {s:?}"),
            };
            let bad = UdivPlan::from_raw(d, 128, strategy);
            match ArithmeticCertifier.certify(&DivPlan::Unsigned(bad)) {
                Certification::Failed { n, got, want } => {
                    assert_eq!(want, n / d, "d={d}");
                    assert_eq!(got, eval_unsigned(&bad, n), "d={d}");
                    assert_ne!(got, want, "d={d}: witness {n} is not a counterexample");
                }
                other => panic!("d={d}: corrupted multiplier not refuted: {other:?}"),
            }
        }
    }

    #[test]
    fn paper_only_tournament_wraps_any_shape() {
        let plan = DivPlan::from(crate::plan::SdivPlan::new(-7, 32).unwrap());
        let t = paper_only_tournament(plan, &OpCountScorer, &ArithmeticCertifier);
        assert_eq!(t.scoreboard.len(), 1);
        assert!(t.winner_is_paper());
        assert_eq!(t.winning().certification, Certification::Skipped);
        assert_eq!(t.winning().outcome, Outcome::Won);
    }
}
