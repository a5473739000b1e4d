//! Cross-release drift detection: diffs two directories of saved
//! reports and reports bench, mutation, chaos and metrics drift in one
//! report.
//!
//! A *snapshot* is a directory of reports the bins already write:
//! `bench` reports, `verify` summaries, `magic calibrate` and
//! `magic chaos` reports (`*.json`) and `magic metrics` expositions
//! (`*.prom`). [`diff_snapshots`] pairs files by name and diffs each
//! pair with a format-aware comparison:
//!
//! * **bench reports** — rows matched by name, `ns_per_op` growth
//!   beyond the threshold is bench drift;
//! * **verify summaries** — a mutation kill-rate drop, new mismatches
//!   or new surviving mutants are mutation drift;
//! * **calibration reports** — rank-correlation movement beyond 0.05
//!   is reported as a note (informational, host-dependent);
//! * **chaos reports** — any movement of a fixed-seed counter, or a
//!   candidate with silently wrong quotients, is chaos drift;
//! * **metric expositions** — any sample-value movement between two
//!   expositions is metrics drift; series appearing or disappearing
//!   are notes.
//!
//! Identical snapshots (e.g. two runs of the same build) produce an
//! empty report — `scripts/check.sh` gates on exactly that.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};

/// Which longitudinal signal a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// A benchmark row regressed beyond the threshold.
    Bench,
    /// The mutation oracle got weaker (kill rate, survivors, mismatches).
    Mutation,
    /// The chaos harness's fault accounting moved between fixed-seed
    /// runs, or the candidate reports silently wrong quotients.
    Chaos,
    /// A metric exposition sample moved between two scrapes.
    Metrics,
    /// Informational: files added/removed, calibration movement.
    Note,
}

impl DriftKind {
    /// Short label for report rendering.
    pub fn label(&self) -> &'static str {
        match self {
            DriftKind::Bench => "bench",
            DriftKind::Mutation => "mutation",
            DriftKind::Chaos => "chaos",
            DriftKind::Metrics => "metrics",
            DriftKind::Note => "note",
        }
    }
}

/// One observed difference between the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftFinding {
    /// Signal classification.
    pub kind: DriftKind,
    /// Snapshot file the finding came from.
    pub file: String,
    /// What changed, `key: old -> new` style.
    pub what: String,
    /// Whether this finding should fail a release gate.
    pub regression: bool,
}

/// The full diff of two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Every finding, in deterministic (file, key) order.
    pub findings: Vec<DriftFinding>,
    /// How many file pairs were compared.
    pub files_compared: usize,
}

impl DriftReport {
    /// Number of regression-grade findings.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.regression).count()
    }

    /// Renders the report as text, one line per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}] {}: {}\n",
                if f.regression { "DRIFT" } else { "note " },
                f.kind.label(),
                f.file,
                f.what
            ));
        }
        out.push_str(&format!(
            "{} file pairs compared, {} findings, {} regressions\n",
            self.files_compared,
            self.findings.len(),
            self.regressions()
        ));
        out
    }
}

fn push(report: &mut DriftReport, kind: DriftKind, file: &str, what: String, regression: bool) {
    report.findings.push(DriftFinding {
        kind,
        file: file.to_string(),
        what,
        regression,
    });
}

/// `name -> ns_per_op` from a v1 (flat array) or v2 (`rows` member)
/// bench report.
fn bench_rows(doc: &Json) -> Option<BTreeMap<String, f64>> {
    let rows = match doc {
        Json::Arr(rows) => rows.as_slice(),
        Json::Obj(_) => doc.get("rows")?.as_arr()?,
        _ => return None,
    };
    let mut out = BTreeMap::new();
    for row in rows {
        let name = row.get("name")?.as_str()?;
        let ns = row.get("ns_per_op")?.as_f64()?;
        out.insert(name.to_string(), ns);
    }
    Some(out)
}

fn diff_bench(report: &mut DriftReport, file: &str, a: &Json, b: &Json, threshold_pct: f64) {
    let (Some(ra), Some(rb)) = (bench_rows(a), bench_rows(b)) else {
        push(
            report,
            DriftKind::Note,
            file,
            "bench report without rows".to_string(),
            false,
        );
        return;
    };
    for (name, &old_ns) in &ra {
        let Some(&new_ns) = rb.get(name) else {
            push(
                report,
                DriftKind::Note,
                file,
                format!("bench row {name} gone"),
                false,
            );
            continue;
        };
        if old_ns <= 0.0 {
            continue;
        }
        let pct = (new_ns - old_ns) / old_ns * 100.0;
        if pct > threshold_pct {
            push(
                report,
                DriftKind::Bench,
                file,
                format!("{name}: {old_ns:.3} -> {new_ns:.3} ns/op ({pct:+.1}%)"),
                true,
            );
        }
    }
}

fn diff_verify(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let get = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    if let (Some(ka), Some(kb)) = (get(a, "kill_rate"), get(b, "kill_rate")) {
        if kb + 1e-9 < ka {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("kill_rate: {ka:.6} -> {kb:.6}"),
                true,
            );
        }
    }
    if let (Some(ma), Some(mb)) = (get(a, "mismatches"), get(b, "mismatches")) {
        if mb > ma {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("mismatches: {ma} -> {mb}"),
                true,
            );
        }
    }
    let survived = |doc: &Json| {
        doc.get("mutants")
            .and_then(|m| m.get("survived"))
            .and_then(Json::as_f64)
    };
    if let (Some(sa), Some(sb)) = (survived(a), survived(b)) {
        if sb > sa {
            push(
                report,
                DriftKind::Mutation,
                file,
                format!("surviving mutants: {sa} -> {sb}"),
                true,
            );
        }
    }
}

fn diff_calibration(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let scores = |doc: &Json| -> BTreeMap<String, f64> {
        doc.get("models")
            .and_then(Json::as_arr)
            .map(|models| {
                models
                    .iter()
                    .filter_map(|m| {
                        Some((
                            m.get("model")?.as_str()?.to_string(),
                            m.get("rank_correlation")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (sa, sb) = (scores(a), scores(b));
    for (model, ra) in &sa {
        if let Some(rb) = sb.get(model) {
            if (ra - rb).abs() > 0.05 {
                push(
                    report,
                    DriftKind::Note,
                    file,
                    format!("rank correlation [{model}]: {ra:.4} -> {rb:.4}"),
                    false,
                );
            }
        }
    }
}

/// The counters a fixed-seed chaos run must reproduce exactly: the
/// injection schedule is deterministic, so any movement means the
/// guard/cache behaviour changed between the two revisions.
const CHAOS_COUNTERS: [&str; 7] = [
    "injected",
    "detected_degraded",
    "typed_faults",
    "silent_wrong",
    "guard_demotions",
    "cache_poisoned",
    "cache_lock_poisoned",
];

fn diff_chaos(report: &mut DriftReport, file: &str, a: &Json, b: &Json) {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    // A candidate with silently wrong quotients is a regression even if
    // the baseline was equally broken — this gate has zero tolerance.
    if let Some(sw) = num(b, "silent_wrong") {
        if sw > 0.0 {
            push(
                report,
                DriftKind::Chaos,
                file,
                format!("candidate reports {sw} silently wrong quotients"),
                true,
            );
        }
    }
    for key in CHAOS_COUNTERS {
        if let (Some(va), Some(vb)) = (num(a, key), num(b, key)) {
            if va != vb {
                push(
                    report,
                    DriftKind::Chaos,
                    file,
                    format!("{key}: {va} -> {vb}"),
                    true,
                );
            }
        }
    }
    if num(a, "seed") != num(b, "seed") {
        push(
            report,
            DriftKind::Note,
            file,
            "chaos runs used different seeds; counter comparison is informational".to_string(),
            false,
        );
    }
}

/// Parses a Prometheus-style text exposition into `series -> value`:
/// one entry per sample line (`name{labels} value`), comments and blank
/// lines skipped. Values keep their rendered text so integer samples
/// compare exactly.
fn exposition_series(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            out.insert(series.to_string(), value.to_string());
        }
    }
    out
}

/// Diffs two metric expositions (`magic metrics` output). Any value
/// movement on a shared series is metrics drift; series appearing or
/// disappearing are notes (new instrumentation is not a regression).
fn diff_expositions(report: &mut DriftReport, file: &str, a: &str, b: &str) {
    let (sa, sb) = (exposition_series(a), exposition_series(b));
    for (series, va) in &sa {
        match sb.get(series) {
            Some(vb) if va == vb => {}
            Some(vb) => push(
                report,
                DriftKind::Metrics,
                file,
                format!("{series}: {va} -> {vb}"),
                true,
            ),
            None => push(
                report,
                DriftKind::Note,
                file,
                format!("{series}: {va} -> (gone)"),
                false,
            ),
        }
    }
    for (series, vb) in &sb {
        if !sa.contains_key(series) {
            push(
                report,
                DriftKind::Note,
                file,
                format!("{series}: (new) -> {vb}"),
                false,
            );
        }
    }
}

fn diff_json_pair(report: &mut DriftReport, file: &str, a: &str, b: &str, threshold_pct: f64) {
    let (da, db) = match (parse(a), parse(b)) {
        (Ok(da), Ok(db)) => (da, db),
        (Err(e), _) | (_, Err(e)) => {
            push(
                report,
                DriftKind::Note,
                file,
                format!("unparseable report: {e}"),
                false,
            );
            return;
        }
    };
    // Classify by shape: chaos reports carry scenarios+silent_wrong,
    // verify summaries carry kill_rate, calibration reports carry
    // models+cells, anything with rows is a bench report.
    let is_chaos = da.get("scenarios").is_some() && da.get("silent_wrong").is_some();
    let is_verify = da.get("kill_rate").is_some() || db.get("kill_rate").is_some();
    let is_calibration = da.get("models").is_some() && da.get("cells").is_some();
    if is_chaos {
        diff_chaos(report, file, &da, &db);
    } else if is_verify {
        diff_verify(report, file, &da, &db);
    } else if is_calibration {
        diff_calibration(report, file, &da, &db);
    } else {
        diff_bench(report, file, &da, &db, threshold_pct);
    }
}

fn snapshot_files(dir: &Path) -> Result<BTreeMap<String, std::path::PathBuf>, String> {
    let mut out = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".json") || name.ends_with(".prom") {
            out.insert(name, path);
        }
    }
    Ok(out)
}

/// Diffs two snapshot directories. Bench rows may regress up to
/// `threshold_pct` percent before they count; mutation, chaos and
/// metrics drift have no tolerance.
///
/// # Errors
///
/// When either directory cannot be listed or a paired file cannot be
/// read. Unparseable *contents* become [`DriftKind::Note`] findings
/// instead, so one corrupt artifact does not hide drift in the rest.
pub fn diff_snapshots(a: &Path, b: &Path, threshold_pct: f64) -> Result<DriftReport, String> {
    let (fa, fb) = (snapshot_files(a)?, snapshot_files(b)?);
    let mut report = DriftReport::default();
    for (name, pa) in &fa {
        let Some(pb) = fb.get(name) else {
            push(
                &mut report,
                DriftKind::Note,
                name,
                "only in baseline snapshot".to_string(),
                false,
            );
            continue;
        };
        let ca = std::fs::read_to_string(pa).map_err(|e| format!("{}: {e}", pa.display()))?;
        let cb = std::fs::read_to_string(pb).map_err(|e| format!("{}: {e}", pb.display()))?;
        report.files_compared += 1;
        if ca == cb {
            continue; // byte-identical: nothing can have drifted
        }
        if name.ends_with(".prom") {
            diff_expositions(&mut report, name, &ca, &cb);
        } else {
            diff_json_pair(&mut report, name, &ca, &cb, threshold_pct);
        }
    }
    for name in fb.keys() {
        if !fa.contains_key(name) {
            push(
                &mut report,
                DriftKind::Note,
                name,
                "only in candidate snapshot".to_string(),
                false,
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("magicdiv_drift_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn identical_snapshots_report_zero_drift() {
        let a = tmpdir("ident_a");
        let b = tmpdir("ident_b");
        let bench = r#"{"version":2,"rows":[{"name":"u32/scalar/7","ns_per_op":1.0}]}"#;
        let expo = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 10\n";
        for dir in [&a, &b] {
            std::fs::write(dir.join("bench.json"), bench).expect("write");
            std::fs::write(dir.join("metrics.prom"), expo).expect("write");
        }
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.files_compared, 2);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn bench_regression_beyond_threshold_is_flagged() {
        let a = tmpdir("bench_a");
        let b = tmpdir("bench_b");
        let base = r#"[{"name": "u32/scalar/7", "ns_per_op": 1.0}, {"name": "u32/batch/7", "ns_per_op": 0.5}]"#;
        let cand = r#"[{"name": "u32/scalar/7", "ns_per_op": 1.3}, {"name": "u32/batch/7", "ns_per_op": 0.5}]"#;
        std::fs::write(a.join("bench.json"), base).expect("write");
        std::fs::write(b.join("bench.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report.findings[0].what.contains("u32/scalar/7"));
        // A generous threshold absorbs the same movement.
        let relaxed = diff_snapshots(&a, &b, 50.0).expect("diff");
        assert_eq!(relaxed.regressions(), 0, "{relaxed:?}");
    }

    #[test]
    fn kill_rate_drop_is_mutation_drift() {
        let a = tmpdir("kill_a");
        let b = tmpdir("kill_b");
        let base = r#"{"status":"ok","kill_rate":1.0,"mismatches":0,"mutants":{"total":100,"killed":98,"equivalent":2,"survived":0}}"#;
        let cand = r#"{"status":"ok","kill_rate":0.97,"mismatches":0,"mutants":{"total":100,"killed":95,"equivalent":2,"survived":3}}"#;
        std::fs::write(a.join("verify.json"), base).expect("write");
        std::fs::write(b.join("verify.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() >= 2, "{report:?}"); // kill_rate + survivors
        assert!(report
            .findings
            .iter()
            .all(|f| f.kind == DriftKind::Mutation));
    }

    #[test]
    fn chaos_counter_movement_is_chaos_drift() {
        let a = tmpdir("chaos_a");
        let b = tmpdir("chaos_b");
        let base = r#"{"version":1,"seed":7,"scenarios":[{"name":"plan-bit-flip","injected":12}],"injected":12,"detected_degraded":10,"typed_faults":2,"silent_wrong":0,"guard_demotions":10,"cache_poisoned":3,"cache_lock_poisoned":1}"#;
        let cand = base.replace("\"guard_demotions\":10", "\"guard_demotions\":11");
        assert_ne!(base, cand, "seeding failed");
        std::fs::write(a.join("chaos.json"), base).expect("write");
        std::fs::write(b.join("chaos.json"), &cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == DriftKind::Chaos && f.what.contains("guard_demotions")));
    }

    #[test]
    fn silently_wrong_quotients_in_candidate_are_zero_tolerance() {
        let a = tmpdir("silent_a");
        let b = tmpdir("silent_b");
        let base = r#"{"version":1,"seed":7,"scenarios":[],"injected":5,"silent_wrong":0}"#;
        let cand = r#"{"version":1,"seed":7,"scenarios":[],"injected":5,"silent_wrong":2}"#;
        std::fs::write(a.join("chaos.json"), base).expect("write");
        std::fs::write(b.join("chaos.json"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(report.regressions() >= 1, "{report:?}");
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == DriftKind::Chaos && f.what.contains("silently wrong")));
    }

    #[test]
    fn exposition_value_movement_is_metrics_drift() {
        let a = tmpdir("expo_a");
        let b = tmpdir("expo_b");
        let base = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 10\n\
                    magicdiv_req{d=\"7\"} 3\n";
        let cand = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 12\n\
                    magicdiv_req{d=\"10\"} 3\n";
        std::fs::write(a.join("metrics.prom"), base).expect("write");
        std::fs::write(b.join("metrics.prom"), cand).expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 1, "{report:?}");
        assert!(report.findings.iter().any(
            |f| f.kind == DriftKind::Metrics && f.what.contains("magicdiv_cache_hit: 10 -> 12")
        ));
        // Series churn (d="7" gone, d="10" new) is informational.
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.kind == DriftKind::Note)
                .count(),
            2,
            "{report:?}"
        );
        // Identical expositions short-circuit to zero findings.
        std::fs::write(b.join("metrics.prom"), base).expect("write");
        let clean = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert!(clean.findings.is_empty(), "{clean:?}");
    }

    #[test]
    fn added_and_removed_files_are_notes_not_regressions() {
        let a = tmpdir("files_a");
        let b = tmpdir("files_b");
        std::fs::write(a.join("only_a.prom"), "").expect("write");
        std::fs::write(b.join("only_b.json"), "{}").expect("write");
        let report = diff_snapshots(&a, &b, 10.0).expect("diff");
        assert_eq!(report.regressions(), 0, "{report:?}");
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings.iter().all(|f| f.kind == DriftKind::Note));
    }
}
