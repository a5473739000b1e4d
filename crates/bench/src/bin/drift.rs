//! `drift` — cross-release drift report over two directories of saved
//! reports.
//!
//! `drift <baseline_dir> <candidate_dir> [threshold_pct=10]` pairs the
//! files of the two directories by name and diffs each pair: bench
//! drift from bench reports (rows slower than the threshold),
//! mutation-kill-rate drift from verify summaries, chaos drift from
//! fixed-seed chaos reports, calibration notes, and metric drift from
//! `magic metrics` `.prom` expositions — one combined report (see
//! `magicdiv_bench::drift`).
//!
//! Exit status: 0 clean, 1 when any regression-grade drift is found,
//! 2 on usage or I/O errors.

use std::path::Path;

use magicdiv_bench::diff_snapshots;

fn die(msg: &str) -> ! {
    eprintln!("drift: {msg}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(base), Some(cand), None) = (args.first(), args.get(1), args.get(3)) else {
        die(
            "usage: drift <baseline_dir> <candidate_dir> [threshold_pct=10]\n\
             snapshot dirs may hold .json reports and .prom expositions",
        )
    };
    let threshold_pct: f64 = match args.get(2) {
        None => 10.0,
        Some(s) => match s.parse() {
            Ok(t) if t >= 0.0 => t,
            _ => die(&format!(
                "threshold must be a non-negative percentage, got {s:?}"
            )),
        },
    };
    let report =
        diff_snapshots(Path::new(base), Path::new(cand), threshold_pct).unwrap_or_else(|e| die(&e));
    println!("baseline:  {base}");
    println!("candidate: {cand}");
    println!("bench threshold: +{threshold_pct}%");
    println!();
    print!("{}", report.render_text());
    std::process::exit(i32::from(report.regressions() > 0));
}
