//! End-to-end tests for the `drift` bin: real report directories on
//! disk, the real executable, real exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magicdiv_driftbin_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn drift(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drift"))
        .args(args)
        .output()
        .expect("spawn drift")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn identical_snapshots_exit_zero() {
    let a = tmpdir("same_a");
    let b = tmpdir("same_b");
    let bench = r#"{"version":2,"rows":[{"name":"u32/batch/7","ns_per_op":0.5}]}"#;
    let expo = "# TYPE magicdiv_cache_hit counter\nmagicdiv_cache_hit 10\n";
    for dir in [&a, &b] {
        std::fs::write(dir.join("BENCH_division.json"), bench).expect("write");
        std::fs::write(dir.join("metrics.prom"), expo).expect("write");
    }
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 file pairs compared"), "{stdout}");
    assert!(stdout.contains("0 regressions"), "{stdout}");
}

#[test]
fn bench_regression_respects_threshold() {
    let a = tmpdir("bench_a");
    let b = tmpdir("bench_b");
    std::fs::write(
        a.join("BENCH_division.json"),
        r#"[{"name": "u32/batch/7", "ns_per_op": 0.5}]"#,
    )
    .expect("write");
    std::fs::write(
        b.join("BENCH_division.json"),
        r#"[{"name": "u32/batch/7", "ns_per_op": 0.65}]"#,
    )
    .expect("write");
    // +30% against a 10% threshold: regression.
    let out = drift(&[path_str(&a), path_str(&b), "10"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[bench]"));
    // The same movement under a 50% threshold: clean.
    let out = drift(&[path_str(&a), path_str(&b), "50"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn kill_rate_drop_is_mutation_drift() {
    let a = tmpdir("kill_a");
    let b = tmpdir("kill_b");
    std::fs::write(
        a.join("VERIFY_summary.json"),
        r#"{"status":"ok","kill_rate":1.0,"mutants":{"total":10,"killed":10,"equivalent":0,"survived":0}}"#,
    )
    .expect("write");
    std::fs::write(
        b.join("VERIFY_summary.json"),
        r#"{"status":"ok","kill_rate":0.9,"mutants":{"total":10,"killed":9,"equivalent":0,"survived":1}}"#,
    )
    .expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[mutation]"), "{stdout}");
    assert!(stdout.contains("kill_rate"), "{stdout}");
}

#[test]
fn usage_and_missing_dirs_exit_two() {
    let out = drift(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = drift(&["/nonexistent/a", "/nonexistent/b"]);
    assert_eq!(out.status.code(), Some(2));
    // A fourth argument is a usage error, not something to ignore.
    let dir = tmpdir("extra_arg");
    let out = drift(&[path_str(&dir), path_str(&dir), "10", "junk"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: drift"));
}

#[test]
fn chaos_reports_diff_as_chaos_drift() {
    use magicdiv_bench::{run_chaos, ChaosConfig};

    let a = tmpdir("chaos_a");
    let b = tmpdir("chaos_b");
    let cfg = ChaosConfig {
        seed: 99,
        rounds: 2,
    };
    let report = run_chaos(&cfg).to_json();

    // Same seed, same code: byte-identical reports, zero findings.
    std::fs::write(a.join("chaos.json"), &report).expect("write");
    std::fs::write(b.join("chaos.json"), &report).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // A candidate snapshot reporting a silently wrong quotient is a
    // zero-tolerance regression.
    let doctored = report.replace("\"silent_wrong\": 0,", "\"silent_wrong\": 1,");
    assert_ne!(report, doctored);
    std::fs::write(b.join("chaos.json"), &doctored).expect("write");
    let out = drift(&[path_str(&a), path_str(&b)]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chaos"), "{stdout}");
    assert!(stdout.contains("silently wrong"), "{stdout}");
}
