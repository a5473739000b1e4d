//! The planner tournament: lower every candidate strategy, price it on a
//! cost model, certify the winner, and keep the full scoreboard.
//!
//! The typed divisors' `new` constructors run the paper's rules alone
//! and never run a tournament. [`run_udiv_tournament`] lets every
//! [`CandidateGen`](crate::CandidateGen) family compete, and
//! [`run_urem_tournament`] the remainder plans; the cheapest *certified*
//! plan wins. A caller who wants the winner takes its plan back out of
//! the [`DivPlan`] with `TryFrom` and hands it to the divisor's
//! `from_plan`, as the example on [`run_udiv_tournament`] shows.
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
//! `candidates`/`winner` fields land in any installed metrics sink.

use core::fmt;

use crate::candidates::{unsigned_generators, urem_candidates, Candidate, CandidateSource};
use crate::error::DivisorError;
use crate::plan::{mask, DivPlan, DivisibilityStrategy, UdivStrategy, UremStrategy};
use crate::testkit::directed_unsigned_dividends;
use crate::validity;

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
/// deterministic — the tournament result is pinned by byte-identical
/// goldens.
pub trait PlanCertifier {
    /// Certifies (or refutes) `plan` on `probes`, the dividends and
    /// truth values the tournament built once for the plan's candidate
    /// pool (see [`certify_plan`]).
    fn certify(&self, plan: &DivPlan, probes: &Probes) -> Certification;
}

/// How many dividends [`certify_plan`] hands its `run` callback at once.
const PROBE_CHUNK: usize = 64;

/// The function every plan in a candidate pool computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Truth {
    Quotient,
    Remainder,
    Divisible,
}

impl Truth {
    fn of(plan: &DivPlan) -> Option<(Truth, u128)> {
        Some(match plan {
            DivPlan::Unsigned(p) => (Truth::Quotient, p.divisor()),
            DivPlan::Urem(p) => (Truth::Remainder, p.divisor()),
            DivPlan::Divisibility(p) => (Truth::Divisible, p.divisor()),
            _ => return None,
        })
    }

    fn at(self, n: u128, d: u128) -> u128 {
        // Word-sized operands take the native 64-bit divide.
        let (q, r) = match (u64::try_from(n), u64::try_from(d)) {
            (Ok(n), Ok(d)) => (u128::from(n / d), u128::from(n % d)),
            _ => (n / d, n % d),
        };
        match self {
            Truth::Quotient => q,
            Truth::Remainder => r,
            Truth::Divisible => u128::from(r == 0),
        }
    }
}

/// The certification probes of one candidate pool: every candidate in a
/// tournament divides by the same `d` at the same width and computes the
/// same function, so the tournament builds these once per pool and
/// [`certify_plan`] runs every candidate on them.
///
/// At width ≤ 16 the probes are every dividend, generated 64 at a time
/// and never stored whole. Above, they are the
/// [`directed_unsigned_dividends`] with the truth at each, computed here
/// once. A candidate's predicate witness belongs to the candidate, not
/// the pool; [`certify_plan`] runs it first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Probes {
    /// `None` for a plan shape no tournament pools, which certifies as
    /// [`Certification::Skipped`].
    truth: Option<(Truth, u128)>,
    width: u32,
    /// The directed dividends (empty at width ≤ 16) and their truth.
    directed: Vec<u128>,
    want: Vec<u128>,
}

impl Probes {
    /// The probes of `plan`'s candidate pool: its divisor, width and
    /// function. Shapes no tournament pools (signed, floor, exact,
    /// doubleword) get empty probes, on which every plan is
    /// [`Certification::Skipped`].
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv::{certify_plan, Certification, DivPlan, Probes, UdivPlan};
    ///
    /// let plan = DivPlan::from(UdivPlan::new(10, 8).unwrap());
    /// let probes = Probes::for_plan(&plan);
    /// // Run the "candidate" natively: every u8 dividend passes.
    /// let cert = certify_plan(&plan, &probes, |ns, got| {
    ///     for (g, n) in got.iter_mut().zip(ns) {
    ///         *g = n / 10;
    ///     }
    /// });
    /// assert_eq!(cert, Certification::Passed { inputs: 256, proved: false });
    /// ```
    pub fn for_plan(plan: &DivPlan) -> Probes {
        let truth = Truth::of(plan);
        let width = plan.width();
        let directed = match truth {
            Some((_, d)) if width > 16 => directed_unsigned_dividends(d, width),
            _ => Vec::new(),
        };
        let want = match truth {
            Some((t, d)) => directed.iter().map(|&n| t.at(n, d)).collect(),
            None => Vec::new(),
        };
        Probes {
            truth,
            width,
            directed,
            want,
        }
    }

    /// Whether these are the probes of `plan`'s pool.
    fn fit(&self, plan: &DivPlan) -> bool {
        self.truth == Truth::of(plan) && self.width == plan.width()
    }
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

/// The certification driver both tournament certifiers share.
/// `run(ns, got)` writes to `got[i]` what the candidate computes for
/// dividend `ns[i]`, however the caller runs it, for up to 64 dividends
/// at a time; `probes` supply the dividends and the truth.
///
/// At `width <= 16` every dividend is run. Above, the plan must satisfy
/// its exact [`validity`] predicate — a proof for every
/// dividend — and then agree on the [`directed_unsigned_dividends`],
/// which exercise the code that runs rather than the constants. A plan
/// the predicate refutes fails at the predicate's witness. Shapes
/// without a predicate are [`Certification::Skipped`]. A failure names
/// the first disagreeing dividend in probe order. Probes built for
/// another pool are not used: the plan is certified on its own.
pub fn certify_plan(
    plan: &DivPlan,
    probes: &Probes,
    mut run: impl FnMut(&[u128], &mut [u128]),
) -> Certification {
    if !probes.fit(plan) {
        let own = Probes::for_plan(plan);
        return certify_plan(plan, &own, run);
    }
    let Some((truth, d)) = probes.truth else {
        return Certification::Skipped;
    };
    let w = probes.width;
    let mut got = [0u128; PROBE_CHUNK];
    if w <= 16 {
        let mut ns = [0u128; PROBE_CHUNK];
        let mut want = [0u128; PROBE_CHUNK];
        let end = mask(w) + 1;
        let mut start = 0u128;
        while start < end {
            let len = (end - start).min(PROBE_CHUNK as u128) as usize;
            for (i, (n, t)) in ns[..len].iter_mut().zip(&mut want).enumerate() {
                *n = start + i as u128;
                *t = truth.at(*n, d);
            }
            if let Some(fail) = first_failure(&ns[..len], &want, &mut got, &mut run) {
                return fail;
            }
            start += len as u128;
        }
        return Certification::Passed {
            inputs: end as u64,
            proved: false,
        };
    }
    let mut inputs = probes.directed.len() as u64;
    let mut proved = true;
    if let Some(Err(n)) = validity::plan_valid(plan) {
        if let Some(fail) = first_failure(&[n], &[truth.at(n, d)], &mut got, &mut run) {
            return fail;
        }
        // The predicate refuted the plan but its witness agrees. Only two
        // plans get here: a multiply-back remainder with even `d`, whose
        // quotient is wrong at `n` while the remainder can still be right,
        // and a §9 test with a wrong inverse whose witness search came up
        // empty. No proof either way, so certify on the probes alone.
        inputs += 1;
        proved = false;
    }
    for (ns, want) in probes
        .directed
        .chunks(PROBE_CHUNK)
        .zip(probes.want.chunks(PROBE_CHUNK))
    {
        if let Some(fail) = first_failure(ns, want, &mut got, &mut run) {
            return fail;
        }
    }
    Certification::Passed { inputs, proved }
}

/// Runs one chunk of dividends and returns the first that disagrees with
/// the truth.
fn first_failure(
    ns: &[u128],
    want: &[u128],
    got: &mut [u128; PROBE_CHUNK],
    run: &mut impl FnMut(&[u128], &mut [u128]),
) -> Option<Certification> {
    let got = &mut got[..ns.len()];
    run(ns, got);
    (0..ns.len()).find_map(|i| {
        (got[i] != want[i]).then_some(Certification::Failed {
            n: ns[i],
            got: got[i],
            want: want[i],
        })
    })
}

/// Writes `f(n)` to `got` for every dividend of a [`certify_plan`] chunk.
fn each(ns: &[u128], got: &mut [u128], f: impl Fn(u128) -> u128) {
    for (g, &n) in got.iter_mut().zip(ns) {
        *g = f(n);
    }
}

impl PlanCertifier for ArithmeticCertifier {
    fn certify(&self, plan: &DivPlan, probes: &Probes) -> Certification {
        match plan {
            DivPlan::Unsigned(p) => certify_plan(plan, probes, |ns, got| {
                each(ns, got, |n| validity::eval_unsigned(p, n))
            }),
            DivPlan::Urem(p) => certify_plan(plan, probes, |ns, got| {
                each(ns, got, |n| validity::eval_urem(p, n))
            }),
            DivPlan::Divisibility(p) => certify_plan(plan, probes, |ns, got| {
                each(ns, got, |n| validity::eval_divisibility(p, n))
            }),
            _ => Certification::Skipped,
        }
    }
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
/// not fit in `width` bits (both via [`UdivPlan::new`](crate::UdivPlan::new)).
///
/// # Examples
///
/// Build the divisor the winner runs:
///
/// ```
/// use magicdiv::{
///     run_udiv_tournament, ArithmeticCertifier, OpCountScorer, UdivPlan, UnsignedDivisor,
/// };
///
/// let t = run_udiv_tournament(35, 8, &OpCountScorer, &ArithmeticCertifier)?;
/// let plan = UdivPlan::try_from(t.winning().candidate.plan).expect("an unsigned plan");
/// let by35 = UnsignedDivisor::<u8>::from_plan(&plan);
/// for n in 0..=u8::MAX {
///     assert_eq!(by35.divide(n), n / 35);
/// }
/// # Ok::<(), magicdiv::DivisorError>(())
/// ```
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
/// not fit in `width` bits (both via [`UremPlan::new`](crate::UremPlan::new)).
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
    // Every candidate shares `d`, the width and the family: one probe set.
    let probes = candidates
        .first()
        .map(|c| Probes::for_plan(&c.plan))
        .unwrap_or_default();
    for candidate in candidates {
        if candidate.source == CandidateSource::PaperBaseline {
            paper_idx = rows.len();
        }
        let cycles = scorer.score(&candidate.plan);
        let certification = certifier.certify(&candidate.plan, &probes);
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
/// summary event (whose `candidates`/`winner` fields become metrics in
/// any installed metrics sink).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DivisibilityPlan, UdivPlan, UremPlan};
    use crate::validity::{eval_divisibility, eval_unsigned, eval_urem};

    /// Certifies one plan arithmetically on its own pool's probes.
    fn certify_alone(plan: &DivPlan) -> Certification {
        ArithmeticCertifier.certify(plan, &Probes::for_plan(plan))
    }

    #[test]
    fn tournament_winner_is_always_certified_w8_exhaustive() {
        for d in 1u128..=255 {
            let t = run_udiv_tournament(d, 8, &OpCountScorer, &ArithmeticCertifier).unwrap();
            match t.winning().certification {
                Certification::Passed { inputs, .. } => assert_eq!(inputs, 256, "d={d}"),
                other => panic!("d={d}: winner not certified: {other:?}"),
            }
            // The winner's plan must actually divide.
            let plan = UdivPlan::try_from(t.winning().candidate.plan).unwrap();
            for n in 0u128..=255 {
                assert_eq!(eval_unsigned(&plan, n), n / d, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn tournament_never_scores_worse_than_paper() {
        for d in 1u128..=255 {
            let t = run_udiv_tournament(d, 8, &OpCountScorer, &ArithmeticCertifier).unwrap();
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
            let t = run_urem_tournament(d, 8, &OpCountScorer, &ArithmeticCertifier).unwrap();
            match t.winning().certification {
                Certification::Passed { inputs, .. } => assert_eq!(inputs, 256, "d={d}"),
                other => panic!("d={d}: winner not certified: {other:?}"),
            }
            let plan = UremPlan::try_from(t.winning().candidate.plan).unwrap();
            // Multiply-back (or a mask) or the direct fraction: the two
            // remainder kernels a typed divisor can run.
            assert!(
                plan == UremPlan::new(d, 8).unwrap() || plan == UremPlan::new_direct(d, 8).unwrap(),
                "d={d}: {plan}"
            );
            for n in 0u128..=255 {
                assert_eq!(eval_urem(&plan, n), n % d, "d={d} n={n}");
            }
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
        match certify_alone(&DivPlan::Urem(bad)) {
            Certification::Failed { .. } => {}
            other => panic!("corrupted fraction not refuted: {other:?}"),
        }
        assert!(matches!(
            certify_alone(&DivPlan::Urem(good)),
            Certification::Passed { .. }
        ));
    }

    #[test]
    fn a_refuted_plan_whose_witness_agrees_certifies_on_the_probes_alone() {
        // A plan the predicate refutes, run by a "candidate" that computes
        // the truth everywhere: its witness agrees, so the certification
        // falls back to the probes, unproven, and counts the witness too.
        let good = UdivPlan::new(10, 32).unwrap();
        let bad = DivPlan::Unsigned(good.flip_bit(0));
        assert!(matches!(validity::plan_valid(&bad), Some(Err(_))));
        let probes = Probes::for_plan(&bad);
        let truth = |ns: &[u128], got: &mut [u128]| each(ns, got, |n| n / 10);
        assert_eq!(
            certify_plan(&bad, &probes, truth),
            Certification::Passed {
                inputs: 1 + probes.directed.len() as u64,
                proved: false
            }
        );
        let good = DivPlan::Unsigned(good);
        assert_eq!(
            certify_plan(&good, &probes, truth),
            Certification::Passed {
                inputs: probes.directed.len() as u64,
                proved: true
            }
        );
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
            match certify_alone(&DivPlan::Unsigned(bad)) {
                Certification::Failed { n, got, want } => {
                    assert_eq!(want, n / d, "d={d}");
                    assert_eq!(got, eval_unsigned(&bad, n), "d={d}");
                    assert_ne!(got, want, "d={d}: witness {n} is not a counterexample");
                }
                other => panic!("d={d}: corrupted multiplier not refuted: {other:?}"),
            }
        }
    }
}
