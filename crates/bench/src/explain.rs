//! The `magic explain` renderer: one `(shape, width, divisor)` query
//! rendered as the plan-decision trace (with paper provenance), the
//! lowered IR with its per-pass optimization history, the simulated
//! cycle cost under every Table 1.1 timing model, and — for unsigned
//! queries — the planner-tournament scoreboard: every candidate family
//! that competed for this `(d, width)`, its cycle price, certification
//! status, and why the losers lost.
//!
//! The renderer is a library function rather than bin-only code so the
//! golden-snapshot tests can call it directly, and so other tools can
//! embed the same report.

use std::str::FromStr;
use std::sync::Arc;

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv::{Certification, Outcome, TournamentResult};
use magicdiv_ir::{lower_plan, optimize};
use magicdiv_simcpu::{cycles_for_plan, table_1_1};
use magicdiv_trace::{install, CaptureSink, Event, JsonlSink, TextTreeSink};

/// Which division flavor `magic explain` should walk through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplainShape {
    /// Unsigned truncating division (Fig 4.2).
    Unsigned,
    /// Signed truncating division (Fig 5.2).
    Signed,
    /// Signed floor division (Fig 6.1).
    Floor,
    /// Exact division / divisibility (§9).
    Exact,
    /// Doubleword-by-word division (Fig 8.1).
    Dword,
    /// Direct unsigned remainder, no quotient formed (LKK Thm 1).
    Urem,
    /// Divisibility test via the §9 modular-inverse rotate.
    Divtest,
}

impl ExplainShape {
    /// Every shape, in the order the paper introduces them.
    pub const ALL: [ExplainShape; 7] = [
        ExplainShape::Unsigned,
        ExplainShape::Signed,
        ExplainShape::Floor,
        ExplainShape::Exact,
        ExplainShape::Dword,
        ExplainShape::Urem,
        ExplainShape::Divtest,
    ];

    /// The CLI spelling of this shape.
    pub fn name(&self) -> &'static str {
        match self {
            ExplainShape::Unsigned => "unsigned",
            ExplainShape::Signed => "signed",
            ExplainShape::Floor => "floor",
            ExplainShape::Exact => "exact",
            ExplainShape::Dword => "dword",
            ExplainShape::Urem => "urem",
            ExplainShape::Divtest => "divtest",
        }
    }

    /// The paper artifact this shape reproduces.
    pub fn paper(&self) -> &'static str {
        match self {
            ExplainShape::Unsigned => "Fig 4.2",
            ExplainShape::Signed => "Fig 5.2",
            ExplainShape::Floor => "Fig 6.1",
            ExplainShape::Exact => "§9",
            ExplainShape::Dword => "Fig 8.1",
            ExplainShape::Urem => "LKK Thm 1",
            ExplainShape::Divtest => "§9 + LKK §3",
        }
    }
}

impl FromStr for ExplainShape {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unsigned" | "udiv" => Ok(ExplainShape::Unsigned),
            "signed" | "sdiv" => Ok(ExplainShape::Signed),
            "floor" => Ok(ExplainShape::Floor),
            "exact" => Ok(ExplainShape::Exact),
            "dword" | "udword" => Ok(ExplainShape::Dword),
            "urem" | "rem" => Ok(ExplainShape::Urem),
            "divtest" | "divisibility" => Ok(ExplainShape::Divtest),
            other => Err(format!(
                "unknown shape {other:?} (expected unsigned/signed/floor/exact/dword/urem/divtest)"
            )),
        }
    }
}

/// Valid machine widths for an explain query.
const WIDTHS: [u32; 5] = [8, 16, 32, 64, 128];

fn check_width(width: u32) -> Result<(), String> {
    if WIDTHS.contains(&width) {
        Ok(())
    } else {
        Err(format!("width must be one of 8/16/32/64/128, got {width}"))
    }
}

/// Builds the plan for `(shape, width, d)` with whatever trace sinks are
/// installed, so decision events land in them.
fn build_plan(shape: ExplainShape, width: u32, d: i128) -> Result<DivPlan, String> {
    let err = |e: magicdiv::DivisorError| e.to_string();
    match shape {
        ExplainShape::Unsigned => {
            let du = unsigned_divisor(width, d)?;
            Ok(UdivPlan::new(du, width).map_err(err)?.into())
        }
        ExplainShape::Signed => Ok(SdivPlan::new(d, width).map_err(err)?.into()),
        ExplainShape::Floor => Ok(FloorPlan::new(d, width).map_err(err)?.into()),
        ExplainShape::Exact => {
            let plan = if d < 0 {
                ExactPlan::new_signed(d, width)
            } else {
                ExactPlan::new_unsigned(d as u128, width)
            };
            Ok(plan.map_err(err)?.into())
        }
        ExplainShape::Dword => {
            let du = unsigned_divisor(width, d)?;
            Ok(DwordPlan::new(du, width).map_err(err)?.into())
        }
        ExplainShape::Urem => {
            let du = unsigned_divisor(width, d)?;
            Ok(UremPlan::new_direct(du, width).map_err(err)?.into())
        }
        ExplainShape::Divtest => {
            let du = unsigned_divisor(width, d)?;
            Ok(DivisibilityPlan::new(du, width).map_err(err)?.into())
        }
    }
}

fn unsigned_divisor(width: u32, d: i128) -> Result<u128, String> {
    if d <= 0 {
        return Err(format!(
            "shape unsigned/dword/urem/divtest requires a positive divisor, got {d}"
        ));
    }
    let du = d as u128;
    if width < 128 && (du >> width) != 0 {
        return Err(format!("divisor {d} does not fit in u{width}"));
    }
    Ok(du)
}

fn indent(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn field_u64(event: &Event, key: &str) -> u64 {
    event.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn pass_history(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events.iter().filter(|e| e.name == "ir.pass") {
        out.push_str(&format!(
            "  pass {}: ops {} -> {}  (folded {}, copy-propagated {}, cse {}, dce {}){}\n",
            field_u64(e, "pass"),
            field_u64(e, "ops_before"),
            field_u64(e, "ops_after"),
            field_u64(e, "folded"),
            field_u64(e, "copy_propagated"),
            field_u64(e, "cse_hits"),
            field_u64(e, "dce_removed"),
            match e.get("changed") {
                Some(magicdiv_trace::Value::Bool(false)) => "  [fixed point]",
                _ => "",
            },
        ));
    }
    out
}

/// Renders one tournament scoreboard as a table plus provenance notes:
/// every candidate family that competed, its price on the scoring
/// model, its certification verdict, and the outcome (for losers, the
/// reason they lost).
pub fn render_tournament(t: &TournamentResult) -> String {
    let mut out = format!("  scored on {}:\n", t.model);
    let rows: Vec<Vec<String>> = t
        .scoreboard
        .iter()
        .map(|c| {
            let cycles = c
                .cycles
                .map_or_else(|| "-".to_string(), |cy| cy.to_string());
            let certified = match c.certification {
                Certification::Passed {
                    inputs,
                    proved: false,
                } => format!("passed ({inputs} inputs)"),
                Certification::Passed {
                    inputs,
                    proved: true,
                } => format!("proved (+{inputs} probes)"),
                Certification::Failed { n, .. } => format!("FAILED at n={n}"),
                Certification::Skipped => "skipped".to_string(),
            };
            let outcome = match c.outcome {
                Outcome::Won => "won".to_string(),
                Outcome::Lost(reason) => format!("lost: {reason}"),
            };
            vec![
                c.candidate.source.name().to_string(),
                cycles,
                certified,
                outcome,
                c.candidate.plan.to_string(),
            ]
        })
        .collect();
    out.push_str(&indent(&crate::render_table(
        &["candidate", "cycles", "certified", "outcome", "plan"],
        &rows,
    )));
    out.push('\n');
    for c in &t.scoreboard {
        out.push_str(&format!(
            "  {}: {}\n",
            c.candidate.source.name(),
            c.candidate.source.provenance()
        ));
    }
    out
}

/// Renders the full explain report for one query.
///
/// # Errors
///
/// Returns a human-readable message when the width is unsupported, the
/// divisor is zero / out of range for the shape, or the plan cannot be
/// lowered.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::{explain, ExplainShape};
///
/// let report = explain(ExplainShape::Unsigned, 32, 7).unwrap();
/// assert!(report.contains("plan.decision"));
/// assert!(report.contains("Fig 4.2"));
/// assert!(report.contains("predicted cycles"));
/// ```
pub fn explain(shape: ExplainShape, width: u32, d: i128) -> Result<String, String> {
    check_width(width)?;
    let mut out = format!(
        "== explain: {} division by {d} at N = {width} ({}) ==\n",
        shape.name(),
        shape.paper()
    );

    // 1. Plan construction under a tree sink: the decision trace.
    let tree = Arc::new(TextTreeSink::new());
    let plan = {
        let _guard = install(tree.clone());
        build_plan(shape, width, d)?
    };
    out.push_str("\n-- plan decision trace --\n");
    out.push_str(&indent(&tree.finish()));

    out.push_str(&format!(
        "\n-- selected plan --\n  [{}] {plan}\n",
        plan.strategy_name()
    ));

    if width > 64 {
        out.push_str(
            "\n(width 128 exceeds the IR limit of 64 bits: no lowered\n\
             form or cycle prediction — see the library word types.)\n",
        );
        return Ok(out);
    }

    // 2. Lowering and optimization under a capture sink: per-pass history.
    let raw = lower_plan(&plan).map_err(|kind| kind.to_string())?;
    let capture = Arc::new(CaptureSink::new());
    let optimized = {
        let _guard = install(capture.clone());
        optimize(&raw)
    };
    out.push_str("\n-- lowered IR (raw) --\n");
    out.push_str(&indent(&raw.to_string()));
    out.push_str("\n-- optimization passes --\n");
    out.push_str(&pass_history(&capture.events()));
    out.push_str("\n-- optimized IR --\n");
    out.push_str(&indent(&optimized.to_string()));

    // 3. Cycle prediction per Table 1.1 model (single-issue in-order;
    // matches simcpu::cycles_for_plan exactly).
    out.push_str("\n-- predicted cycles (Table 1.1 latencies, in-order) --\n");
    let rows: Vec<Vec<String>> = table_1_1()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.year.to_string(),
                cycles_for_plan(&plan, m).to_string(),
            ]
        })
        .collect();
    out.push_str(&indent(&crate::render_table(
        &["model", "year", "cycles"],
        &rows,
    )));

    // 4. The planner tournament (unsigned quotients and direct
    // remainders): every candidate family that competed for this
    // (d, width) cell, priced on the default tournament model and
    // certified against the differential oracle.
    let tournament = match shape {
        ExplainShape::Unsigned => crate::run_tournament(d as u128, width, None).ok(),
        ExplainShape::Urem => crate::run_urem_tournament(d as u128, width, None).ok(),
        _ => None,
    };
    if let Some(t) = tournament {
        out.push_str("\n-- tournament --\n");
        out.push_str(&render_tournament(&t));
    }
    Ok(out)
}

/// Runs the same pipeline as [`explain`] but returns the machine-readable
/// JSONL event stream instead of the rendered report (the `--json` mode
/// of `magic explain`).
///
/// # Errors
///
/// Same conditions as [`explain`].
pub fn explain_jsonl(shape: ExplainShape, width: u32, d: i128) -> Result<String, String> {
    check_width(width)?;
    let sink = Arc::new(JsonlSink::new());
    {
        let _guard = install(sink.clone());
        let plan = build_plan(shape, width, d)?;
        if width <= 64 {
            let raw = lower_plan(&plan).map_err(|kind| kind.to_string())?;
            let _optimized = optimize(&raw);
            for model in table_1_1() {
                cycles_for_plan(&plan, &model);
            }
            // The tournament emits one `plan.tournament` event per
            // candidate (with provenance) plus a summary event.
            match shape {
                ExplainShape::Unsigned => {
                    let _ = crate::run_tournament(d as u128, width, None);
                }
                ExplainShape::Urem => {
                    let _ = crate::run_urem_tournament(d as u128, width, None);
                }
                _ => {}
            }
        }
    }
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_7_cites_the_add_shift_branch() {
        let report = explain(ExplainShape::Unsigned, 32, 7).unwrap();
        assert!(report.contains("mul_add_shift"), "{report}");
        assert!(report.contains("Fig 4.2"), "{report}");
        assert!(report.contains("-- optimization passes --"), "{report}");
        assert!(report.contains("pass 0:"), "{report}");
    }

    #[test]
    fn unsigned_explain_includes_the_tournament_scoreboard() {
        // d = 7: the round-up candidate ties the paper's add-fixup on
        // op count and wins the narrow-multiply tie-break; the paper
        // row must show up as a loser with a reason.
        let report = explain(ExplainShape::Unsigned, 32, 7).unwrap();
        assert!(report.contains("-- tournament --"), "{report}");
        assert!(report.contains("won"), "{report}");
        assert!(report.contains("lost:"), "{report}");
        assert!(report.contains("Granlund-Montgomery"), "{report}");
        // Non-unsigned shapes have no competing candidates yet.
        let signed = explain(ExplainShape::Signed, 32, -7).unwrap();
        assert!(!signed.contains("-- tournament --"), "{signed}");
    }

    #[test]
    fn unsigned_explain_shows_a_non_paper_winner_at_a_win_cell() {
        // d = 35 at width 8: the optimal-bounds multiplier strictly
        // beats the paper's add-fixup sequence on every cycle model.
        let report = explain(ExplainShape::Unsigned, 8, 35).unwrap();
        assert!(report.contains("optimal_bounds"), "{report}");
        assert!(report.contains("Lemire-Bartlett-Kaser"), "{report}");
        let paper_row = report
            .lines()
            .find(|l| l.trim_start().starts_with("paper") && l.contains("lost:"))
            .unwrap_or_else(|| panic!("no losing paper row in {report}"));
        assert!(paper_row.contains("more_cycles"), "{paper_row}");
    }

    #[test]
    fn urem_explain_walks_the_pipeline_with_a_scoreboard() {
        let report = explain(ExplainShape::Urem, 32, 10).unwrap();
        assert!(report.contains("LKK Thm 1"), "{report}");
        assert!(report.contains("plan.remainder"), "{report}");
        assert!(report.contains("urem_fraction"), "{report}");
        assert!(report.contains("-- lowered IR (raw) --"), "{report}");
        assert!(report.contains("-- tournament --"), "{report}");
        assert!(report.contains("lkk_fraction"), "{report}");
        assert!(report.contains("Lemire-Kaser-Kurz"), "{report}");
        // The multiply-back baseline shows up on the same scoreboard.
        assert!(report.contains("mul-back"), "{report}");
        // Powers of two collapse to the mask and skip the fraction.
        let pow2 = explain(ExplainShape::Urem, 32, 64).unwrap();
        assert!(pow2.contains("urem_mask"), "{pow2}");
    }

    #[test]
    fn divtest_explain_cites_the_inverse_rotate() {
        let report = explain(ExplainShape::Divtest, 32, 10).unwrap();
        assert!(report.contains("plan.divisibility"), "{report}");
        assert!(report.contains("divtest_inverse"), "{report}");
        assert!(report.contains("-- lowered IR (raw) --"), "{report}");
        assert!(report.contains("predicted cycles"), "{report}");
        // No candidate pool for divisibility yet: no scoreboard.
        assert!(!report.contains("-- tournament --"), "{report}");
        let pow2 = explain(ExplainShape::Divtest, 16, 8).unwrap();
        assert!(pow2.contains("divtest_mask"), "{pow2}");
    }

    #[test]
    fn shape_parses_every_spelling() {
        for shape in ExplainShape::ALL {
            assert_eq!(shape.name().parse::<ExplainShape>().unwrap(), shape);
        }
        assert!("bogus".parse::<ExplainShape>().is_err());
    }

    #[test]
    fn dword_walks_the_full_pipeline() {
        let report = explain(ExplainShape::Dword, 32, 10).unwrap();
        assert!(report.contains("plan.dword"), "{report}");
        assert!(report.contains("Lemma 8.1"), "{report}");
        assert!(report.contains("[dword]"), "{report}");
        assert!(report.contains("-- lowered IR (raw) --"), "{report}");
        assert!(report.contains("carry"), "{report}");
        assert!(report.contains("-- optimization passes --"), "{report}");
        assert!(report.contains("predicted cycles"), "{report}");
    }

    #[test]
    fn width_128_skips_ir_sections() {
        let report = explain(ExplainShape::Unsigned, 128, 10).unwrap();
        assert!(report.contains("selected plan"), "{report}");
        assert!(!report.contains("lowered IR"), "{report}");
        // Fig 8.1 at width 128 still has plan constants, just no IR form.
        let report = explain(ExplainShape::Dword, 128, 10).unwrap();
        assert!(report.contains("[dword]"), "{report}");
        assert!(!report.contains("lowered IR"), "{report}");
    }

    #[test]
    fn rejects_bad_queries() {
        assert!(explain(ExplainShape::Unsigned, 13, 7).is_err());
        assert!(explain(ExplainShape::Unsigned, 32, -7).is_err());
        assert!(explain(ExplainShape::Signed, 32, 0).is_err());
        assert!(explain(ExplainShape::Unsigned, 8, 300).is_err());
    }

    #[test]
    fn jsonl_mode_emits_plan_and_cycle_events() {
        let out = explain_jsonl(ExplainShape::Unsigned, 32, 7).unwrap();
        assert!(out.contains("\"name\":\"plan.decision\""), "{out}");
        assert!(out.contains("\"name\":\"simcpu.plan_cycles\""), "{out}");
        assert!(out.contains("\"name\":\"plan.tournament\""), "{out}");
        assert!(out.contains("\"name\":\"tournament\""), "{out}");
        assert!(out.contains("provenance"), "{out}");
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn jsonl_dword_includes_cycle_table() {
        let out = explain_jsonl(ExplainShape::Dword, 32, 10).unwrap();
        assert!(out.contains("\"name\":\"plan.dword\""), "{out}");
        assert!(out.contains("\"name\":\"simcpu.plan_cycles\""), "{out}");
        assert!(out.contains("\"strategy\":\"dword\""), "{out}");
        // One cycle event per Table 1.1 model.
        let n = out.matches("simcpu.plan_cycles").count();
        assert_eq!(n, table_1_1().len(), "{out}");
    }
}
