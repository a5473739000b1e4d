//! Candidate generation: the competing strategy families the planner
//! tournament arbitrates between.
//!
//! The paper's Figure 4.2 decision rules are *one* way to pick a
//! multiplier. Two post-1994 refinements produce plans that lower to
//! strictly fewer operations for many divisors:
//!
//! * **Optimal-bounds multipliers** (Lemire, Bartlett & Kaser,
//!   arXiv 2012.12369): instead of fixing `m = ⌈2^(N+⌈log2 d⌉)/d⌉`, search
//!   every shift `k >= N` for *any* `m < 2^N` whose rounding interval
//!   covers all dividends. When one exists the add-fixup long sequence
//!   (and often the even-divisor pre-shift) collapses to a bare
//!   `MULUH + SRL` — or just `MULUH` when `k == N`.
//! * **Round-up dividend** (Li, arXiv 2412.03680): keep the round-*down*
//!   multiplier `m = ⌊2^(N+s)/d⌋ < 2^N` and divide `n + 1` instead of
//!   `n`, folding the `+1` into the carry of `MULL(m, n) + m`. The two
//!   multiplies are independent, so the sequence beats the serial
//!   add-fixup chain on machines with pipelined multipliers.
//!
//! [`udiv_candidates`] fields the paper plan and those two families as
//! [`Candidate`]s — a [`DivPlan`] plus provenance — for the
//! [`tournament`](crate::tournament) to price and certify;
//! [`urem_candidates`] does the same for remainders. The paper baseline
//! is always a candidate, so the tournament can never do worse than
//! Figure 4.2.

use core::fmt;

use crate::error::DivisorError;
use crate::plan::{mask, DivPlan, UdivPlan, UdivStrategy, UremPlan};
use crate::validity::udiv_valid;

/// Which strategy family produced a candidate, with citation metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CandidateSource {
    /// The paper's own Figure 4.2 / 5.2 / 6.1 decision rules.
    PaperBaseline,
    /// Round-up dividend variant (Li).
    RoundUp,
    /// Optimal-bounds multiplier search (Lemire–Bartlett–Kaser).
    OptimalBounds,
    /// Direct remainder from the fraction low bits (Lemire–Kaser–Kurz).
    LkkFraction,
}

impl CandidateSource {
    /// Short stable name for tables, traces and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CandidateSource::PaperBaseline => "paper",
            CandidateSource::RoundUp => "round_up",
            CandidateSource::OptimalBounds => "optimal_bounds",
            CandidateSource::LkkFraction => "lkk_fraction",
        }
    }

    /// Where the family comes from — the paper figure or arXiv id.
    pub fn provenance(self) -> &'static str {
        match self {
            CandidateSource::PaperBaseline => "Granlund-Montgomery PLDI 1994, Fig 4.2",
            CandidateSource::RoundUp => "Li, arXiv 2412.03680",
            CandidateSource::OptimalBounds => "Lemire-Bartlett-Kaser, arXiv 2012.12369",
            CandidateSource::LkkFraction => "Lemire-Kaser-Kurz, arXiv 1902.01961, Thm 1",
        }
    }
}

impl fmt::Display for CandidateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One competing plan: what to run, and who proposed it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The complete plan this family proposes.
    pub plan: DivPlan,
    /// The proposing strategy family.
    pub source: CandidateSource,
}

/// The unsigned-quotient candidate pool for dividing by `d` at `width`
/// bits: the paper's Fig 4.2 plan first, so the tournament always has
/// the 1994 plan to beat, then the round-up and the optimal-bounds plans
/// where those families have one. Powers of two (and `d == 1`) already
/// have 0/1-op plans, and width 128 exceeds the searches' `u128`
/// arithmetic, so those pools hold the paper plan alone.
///
/// Every plan is sound by construction: the searches keep only plans
/// their exact [`udiv_valid`] predicate accepts, so the tournament's
/// certification is a defense-in-depth check, not the correctness
/// argument.
///
/// # Errors
///
/// [`UdivPlan::new`]'s: an unsupported width, a zero divisor, or one
/// that does not fit in `width` bits.
pub fn udiv_candidates(d: u128, width: u32) -> Result<Vec<Candidate>, DivisorError> {
    let mut out = vec![Candidate {
        plan: DivPlan::Unsigned(UdivPlan::new(d, width)?),
        source: CandidateSource::PaperBaseline,
    }];
    if width <= 64 && !d.is_power_of_two() {
        out.extend(round_up(d, width));
        out.extend(optimal_bounds(d, width));
    }
    Ok(out)
}

/// The round-up dividend candidate (Li, arXiv 2412.03680) for a `d`
/// that is not a power of two, at `width <= 64`.
///
/// Uses the round-*down* multiplier `m = ⌊2^(N+s)/d⌋` (always `< 2^N`
/// for `s <= ⌈log2 d⌉ - 1`) and computes `q = ⌊m(n+1)/2^(N+s)⌋`.
/// Writing `e = 2^(N+s) mod d` and `q_top = ⌊(2^N - 1)/d⌋`, the variant
/// is valid for the full dividend range iff
///
/// ```text
/// e * (d * q_top + 1) <= 2^(N+s)
/// ```
///
/// (the lower bound binds at `n = q_top * d`, the largest exact multiple;
/// the upper bound always holds because `m` rounds down) — the check
/// [`udiv_valid`] makes. Returns the smallest valid `s`, since `s == 0`
/// drops the final shift.
fn round_up(d: u128, width: u32) -> Option<Candidate> {
    let l = 128 - (d - 1).leading_zeros(); // ⌈log2 d⌉, d >= 2
    (0..l).find_map(|s| {
        // s <= l - 1 keeps m = ⌊2^(N+s)/d⌋ < 2^N.
        let k = width + s;
        let plan = UdivPlan {
            width,
            d,
            strategy: UdivStrategy::MulRoundUp {
                m: (1u128 << k) / d,
                sh_post: s,
            },
        };
        udiv_valid(&plan).is_ok().then_some(Candidate {
            plan: DivPlan::Unsigned(plan),
            source: CandidateSource::RoundUp,
        })
    })
}

/// The optimal-bounds multiplier candidate (Lemire–Bartlett–Kaser,
/// arXiv 2012.12369) for a `d` that is not a power of two, at
/// `width <= 64`.
///
/// For each shift `k` in `N..=N+⌈log2 d⌉`, the set of multipliers making
/// `⌊mn/2^k⌋ = ⌊n/d⌋` over the whole range is the interval
/// `[m_min, m_max]` with
///
/// ```text
/// m_min = ⌈2^k / d⌉
/// m_max = ⌊(2^k * q_top - 1) / (q_top * d - 1)⌋      // last full group
/// ```
///
/// where `q_top = ⌊(2^N - 1)/d⌋`, so a word-sized multiplier exists at
/// `k` iff `m_min < 2^N` passes [`udiv_valid`]. The plan is then a bare
/// `MulShift { sh_pre: 0, sh_post: k - N }` — no add fixup, no
/// pre-shift. Returns the smallest such `k`.
fn optimal_bounds(d: u128, width: u32) -> Option<Candidate> {
    let l = 128 - (d - 1).leading_zeros();
    for k in width..=(width + l).min(127) {
        let m_min = (1u128 << k) / d + 1; // ⌈2^k/d⌉, exact since d ∤ 2^k
        if m_min > mask(width) {
            // Larger k only grows m_min; nothing fits a word anymore.
            return None;
        }
        let plan = UdivPlan {
            width,
            d,
            strategy: UdivStrategy::MulShift {
                m: m_min,
                sh_pre: 0,
                sh_post: k - width,
            },
        };
        if udiv_valid(&plan).is_ok() {
            return Some(Candidate {
                plan: DivPlan::Unsigned(plan),
                source: CandidateSource::OptimalBounds,
            });
        }
    }
    None
}

/// The unsigned-remainder candidate roster: the §1 multiply-back baseline
/// first, then the Lemire–Kaser–Kurz direct fraction path. For powers of
/// two both constructors degenerate to the same mask, so only the
/// baseline is emitted.
///
/// # Errors
///
/// [`UremPlan::new`]'s: an unsupported width, a zero divisor, or one
/// that does not fit in `width` bits.
pub fn urem_candidates(d: u128, width: u32) -> Result<Vec<Candidate>, DivisorError> {
    let baseline = UremPlan::new(d, width)?;
    let mut out = vec![Candidate {
        plan: DivPlan::Urem(baseline),
        source: CandidateSource::PaperBaseline,
    }];
    if !d.is_power_of_two() {
        out.push(Candidate {
            plan: DivPlan::Urem(UremPlan::new_direct(d, width)?),
            source: CandidateSource::LkkFraction,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validity::eval_unsigned;

    fn unsigned_plan(c: &Candidate) -> UdivPlan {
        match c.plan {
            DivPlan::Unsigned(p) => p,
            ref other => panic!("unsigned generator produced {other}"),
        }
    }

    #[test]
    fn round_up_candidates_divide_correctly_w8_exhaustive() {
        for d in 2u128..=255 {
            if let Some(c) = round_up(d, 8) {
                let p = unsigned_plan(&c);
                for n in 0u128..=255 {
                    assert_eq!(eval_unsigned(&p, n), n / d, "d={d} n={n} [{p}]");
                }
            }
        }
    }

    #[test]
    fn optimal_bounds_candidates_divide_correctly_w8_exhaustive() {
        for d in 2u128..=255 {
            if let Some(c) = optimal_bounds(d, 8) {
                let p = unsigned_plan(&c);
                for n in 0u128..=255 {
                    assert_eq!(eval_unsigned(&p, n), n / d, "d={d} n={n} [{p}]");
                }
            }
        }
    }

    #[test]
    fn optimal_bounds_beats_pre_shift_for_d44_w8() {
        // Fig 4.2 gives d = 44 = 4 * 11 a pre-shift of 2; the interval
        // search finds a direct word-sized multiplier (m = 187 at k = 13)
        // with no pre-shift at all.
        let c = optimal_bounds(44, 8).unwrap();
        match unsigned_plan(&c).strategy() {
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                assert_eq!((m, sh_pre, sh_post), (187, 0, 5));
            }
            s => panic!("unexpected {s:?}"),
        }
        // The paper plan for comparison: pre-shift + multiply + post-shift.
        match UdivPlan::new(44, 8).unwrap().strategy() {
            UdivStrategy::MulShift { sh_pre, .. } => assert!(sh_pre > 0),
            s => panic!("paper baseline changed: {s:?}"),
        }
    }

    #[test]
    fn optimal_bounds_replaces_add_fixup_for_d35_w8() {
        // d = 35 needs the N+1-bit add-fixup sequence under Fig 4.2, but
        // a 9-bit-shift word multiplier exists: m = 235 at k = 13.
        let c = optimal_bounds(35, 8).unwrap();
        match unsigned_plan(&c).strategy() {
            UdivStrategy::MulShift { m, sh_pre, sh_post } => {
                assert_eq!((m, sh_pre, sh_post), (235, 0, 5));
            }
            s => panic!("unexpected {s:?}"),
        }
        assert!(matches!(
            UdivPlan::new(35, 8).unwrap().strategy(),
            UdivStrategy::MulAddShift { .. }
        ));
    }

    #[test]
    fn optimal_bounds_has_no_word_multiplier_for_d7_w32() {
        // The famous d = 7: every valid multiplier needs 33 bits, at any
        // shift — the paper's add-fixup plan stands.
        assert!(optimal_bounds(7, 32).is_none());
    }

    #[test]
    fn round_up_handles_d7_w32_without_fixup() {
        let c = round_up(7, 32).unwrap();
        match unsigned_plan(&c).strategy() {
            UdivStrategy::MulRoundUp { m, sh_post } => {
                assert_eq!(m, (1u128 << (32 + sh_post)) / 7);
                assert!(m <= u32::MAX as u128);
                // Spot-check the extremes at width 32.
                let p = unsigned_plan(&c);
                for n in [0u128, 1, 6, 7, 8, (u32::MAX - 3) as u128, u32::MAX as u128] {
                    assert_eq!(eval_unsigned(&p, n), n / 7, "n={n}");
                }
            }
            s => panic!("unexpected {s:?}"),
        }
    }

    #[test]
    fn trivial_divisors_yield_no_alternative_candidates() {
        for d in [1u128, 2, 4, 64, 128] {
            let cs = udiv_candidates(d, 8).unwrap();
            assert_eq!(cs.len(), 1, "d={d}");
            assert_eq!(cs[0].source, CandidateSource::PaperBaseline, "d={d}");
        }
        // Width 128 is beyond the searches: the paper plan alone.
        assert_eq!(udiv_candidates(7, 128).unwrap().len(), 1);
    }

    #[test]
    fn udiv_pool_is_paper_then_round_up_then_optimal_bounds() {
        let sources: Vec<_> = udiv_candidates(35, 8)
            .unwrap()
            .iter()
            .map(|c| c.source)
            .collect();
        assert_eq!(
            sources,
            [
                CandidateSource::PaperBaseline,
                CandidateSource::RoundUp,
                CandidateSource::OptimalBounds
            ]
        );
        assert_eq!(udiv_candidates(0, 32).unwrap_err(), DivisorError::Zero);
    }

    #[test]
    fn sources_have_stable_names_and_provenance() {
        assert_eq!(CandidateSource::PaperBaseline.name(), "paper");
        assert_eq!(CandidateSource::RoundUp.name(), "round_up");
        assert_eq!(CandidateSource::OptimalBounds.name(), "optimal_bounds");
        assert_eq!(CandidateSource::LkkFraction.name(), "lkk_fraction");
        assert!(CandidateSource::RoundUp.provenance().contains("2412.03680"));
        assert!(CandidateSource::OptimalBounds
            .provenance()
            .contains("2012.12369"));
        assert!(CandidateSource::LkkFraction
            .provenance()
            .contains("1902.01961"));
    }

    #[test]
    fn urem_roster_is_baseline_plus_fraction() {
        let cs = urem_candidates(10, 32).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].source, CandidateSource::PaperBaseline);
        assert_eq!(cs[1].source, CandidateSource::LkkFraction);
        // Powers of two: one mask candidate, nothing to race.
        let cs = urem_candidates(16, 32).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(urem_candidates(0, 32).unwrap_err(), DivisorError::Zero);
    }
}
