//! # magicdiv-bench — harness utilities for regenerating the paper's
//! tables
//!
//! The binaries in `src/bin/` print each evaluation artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table_1_1` | Table 1.1 — mul/div latencies per CPU, plus host-measured latencies as a modern datapoint |
//! | `table_11_1` | Table 11.1 — radix-conversion assembly for Alpha/MIPS/POWER/SPARC |
//! | `table_11_2` | Table 11.2 — radix-conversion µs with/without division elimination, simulated vs paper |
//! | `op_counts` | The per-figure operation-count claims (Figs 4.1–6.1, §9) |
//! | `spec_like` | The §11 SPEC92 note — division-heavy kernels, measured on the host |
//!
//! The `benches/` targets (`cargo bench`, timed with [`measure_ns`])
//! measure the same claims on the host CPU.

// This repository *reimplements division*: clippy's suggestions to use the
// standard division helpers (div_ceil, is_multiple_of, ...) would replace
// the very algorithms under study.
#![allow(clippy::manual_div_ceil, clippy::manual_is_multiple_of)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asmprofile;
pub mod calibrate;
pub mod chaos;
mod corpus;
mod diff;
pub mod drift;
mod explain;
pub mod json;
pub mod overhead;
mod runmeta;
mod tournament;

pub use crate::asmprofile::{dynamic_op_profile, OpProfile};
pub use crate::calibrate::{
    run_calibration, score_models, strategy_divisors, CalibrationCell, CalibrationConfig,
    CalibrationReport, Inversion, ModelScore,
};
pub use crate::chaos::{
    corrupt_udiv_plan, run_chaos, ChaosConfig, ChaosReport, ScenarioTally, CHAOS_WIDTHS,
    DEFAULT_CHAOS_ROUNDS, DEFAULT_CHAOS_SEED,
};
pub use crate::corpus::{
    default_corpus_dir, read_corpus, write_entry, write_entry_traced, CorpusEntry,
};
pub use crate::diff::{
    build_repro_program, classify_mutant, run, shrink, Case, MutantFate, Repro, Shape, SplitMix,
    DEFAULT_EVAL_FUEL,
};
pub use crate::drift::{diff_snapshots, DriftFinding, DriftKind, DriftReport};
pub use crate::explain::{explain, explain_jsonl, render_tournament, ExplainShape};
pub use crate::overhead::{run_overhead, OverheadGate, OverheadReport, OverheadRow};
pub use crate::runmeta::{git_sha, host, unix_time_ms};
pub use crate::tournament::{
    run_tournament, run_urem_tournament, SimcpuJudge, DEFAULT_TOURNAMENT_MODEL,
};

use std::time::Instant;

/// Measures the average nanoseconds of `f` per call over enough
/// iterations to dominate timer noise, using a volatile-ish accumulator
/// to defeat dead-code elimination.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::measure_ns;
///
/// let ns = measure_ns(1_000, |i| i.wrapping_mul(3));
/// assert!(ns >= 0.0);
/// ```
pub fn measure_ns(iters: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    // Warmup.
    let mut sink = 0u64;
    for i in 0..iters.min(10_000) {
        sink = sink.wrapping_add(f(i));
    }
    let start = Instant::now();
    for i in 0..iters {
        sink = sink.wrapping_add(f(i));
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    elapsed.as_nanos() as f64 / iters as f64
}

/// Minimum-of-`repeats` variant of [`measure_ns`]: each repeat runs its
/// own warmup pass and timed pass, and the smallest average wins.
///
/// The minimum is the standard estimator for "how fast does this code
/// run when nothing else interferes": timer jitter, migrations and
/// frequency ramps only ever *add* time, so outliers inflate the mean
/// but never deflate the min. The bench and calibration loops use this
/// so a batch kernel is never reported slower than its scalar
/// counterpart purely because one timing pass was unlucky.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::measure_ns_min;
///
/// let ns = measure_ns_min(1_000, 3, |i| i.wrapping_mul(3));
/// assert!(ns.is_finite() && ns >= 0.0);
/// ```
pub fn measure_ns_min(iters: u64, repeats: u32, mut f: impl FnMut(u64) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        best = best.min(measure_ns(iters, &mut f));
    }
    best
}

/// Renders rows as a fixed-width text table with a header rule.
///
/// # Examples
///
/// ```
/// use magicdiv_bench::render_table;
///
/// let out = render_table(
///     &["cpu", "cycles"],
///     &[vec!["Pentium".into(), "46".into()]],
/// );
/// assert!(out.contains("Pentium"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xxxxxx".into(), "1".into()],
                vec!["y".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a       bbbb"));
        assert!(lines[2].starts_with("xxxxxx  1"));
    }

    #[test]
    fn measure_returns_positive_time_for_real_work() {
        let ns = measure_ns(100_000, |i| {
            std::hint::black_box(i).wrapping_mul(0x9e3779b97f4a7c15) % 1009
        });
        assert!(ns > 0.0);
    }
}
