//! Round-trip coverage for the hand-rolled `json` module against every
//! report schema this repository writes: v2 bench reports and
//! calibration reports, plus string-escape edge cases and the non-finite
//! rejections the offline writer depends on.

use magicdiv_bench::json::{fmt_num, parse, Json};
use magicdiv_bench::{
    score_models, CalibrationCell, CalibrationConfig, CalibrationReport, SplitMix,
};
use magicdiv_trace::json_string;

#[test]
fn v2_bench_report_round_trips() {
    let text = r#"{
  "version": 2,
  "git_sha": "abc123",
  "unix_ms": 1722950000000,
  "iters": 500,
  "duration_ms": 42,
  "rows": [
    {"name": "u32/scalar/7", "width": 32, "divisor": 7, "strategy": "mul_add_shift", "ns_per_op": 1.2345},
    {"name": "i64/hardware/-7", "width": 64, "divisor": -7, "strategy": "hardware", "ns_per_op": 3.5}
  ],
  "metrics": {"counters": {"events.plan": 12}, "histograms": {"bench.cycles.shift": {"count": 4, "min": 1, "max": 2, "mean": 1.5, "p50": 1.4, "p90": 1.9, "p99": 2.0, "buckets": []}}}
}"#;
    let doc = parse(text).expect("v2 report parses");
    assert_eq!(doc.get("version").and_then(Json::as_f64), Some(2.0));
    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[1].get("divisor").and_then(Json::as_f64),
        Some(-7.0),
        "negative divisors survive"
    );
    let p90 = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("bench.cycles.shift"))
        .and_then(|h| h.get("p90"))
        .and_then(Json::as_f64);
    assert_eq!(p90, Some(1.9), "quantile fields reach the reader");
}

#[test]
fn calibration_report_round_trips_through_writer_and_parser() {
    // Synthetic cells exercise the writer end-to-end without timing.
    let models = magicdiv_simcpu::table_1_1();
    let cells = vec![
        CalibrationCell {
            name: "u32/hardware/7".to_string(),
            width: 32,
            divisor: 7,
            strategy: "hardware".to_string(),
            measured_ns: 4.25,
            predicted: vec![(models[0].name, 40), (models[1].name, 10)],
        },
        CalibrationCell {
            name: "u32/mul_add_shift/7".to_string(),
            width: 32,
            divisor: 7,
            strategy: "mul_add_shift".to_string(),
            measured_ns: 1.5,
            predicted: vec![(models[0].name, 14), (models[1].name, 30)],
        },
    ];
    let report = CalibrationReport {
        version: 1,
        git_sha: "deadbeef".to_string(),
        unix_ms: 1,
        duration_ms: 2,
        config: CalibrationConfig::default(),
        models: score_models(&cells, 5.0),
        cells,
    };
    let doc = parse(&report.to_json()).expect("calibration JSON parses");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 2);
    assert_eq!(
        cells[0].get("measured_ns").and_then(Json::as_f64),
        Some(4.25)
    );
    let scored = doc.get("models").and_then(Json::as_arr).expect("models");
    assert_eq!(scored.len(), magicdiv_simcpu::table_1_1().len());
    // Every score carries the fields the drift bin and docs promise.
    for m in scored {
        for key in [
            "model",
            "scale_ns_per_cycle",
            "rank_correlation",
            "inversions",
        ] {
            assert!(m.get(key).is_some(), "model score missing {key}");
        }
    }
    // models[1] predicts hardware (10) beats mul_add_shift (30); the
    // host measured the opposite — that inversion must be in the JSON.
    let inv = scored
        .iter()
        .find(|m| m.get("model").and_then(Json::as_str) == Some(models[1].name))
        .and_then(|m| m.get("inversions"))
        .and_then(Json::as_arr)
        .expect("inversions array");
    assert_eq!(inv.len(), 1);
    assert_eq!(
        inv[0].get("predicted_faster").and_then(Json::as_str),
        Some("u32/hardware/7")
    );
}

#[test]
fn string_escapes_round_trip_for_generated_corpus() {
    // Property-style sweep: random strings from the escape-heavy
    // alphabet, written with the emitter the whole repo uses
    // (magicdiv_trace::json_string), read back with the parser.
    let alphabet: Vec<char> = vec![
        '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', 'a', 'Z', '0', ' ', 'µ', '→', '☃',
        '\u{1}', '\u{1f}',
    ];
    let mut rng = SplitMix(0xc0ffee);
    for _ in 0..200 {
        let len = (rng.next_u64() % 24) as usize;
        let s: String = (0..len)
            .map(|_| alphabet[rng.next_u64() as usize % alphabet.len()])
            .collect();
        let encoded = json_string(&s);
        let decoded = parse(&encoded).unwrap_or_else(|e| panic!("{encoded:?} rejected: {e}"));
        assert_eq!(decoded.as_str(), Some(s.as_str()), "through {encoded:?}");
    }
}

#[test]
fn escape_edge_cases_round_trip() {
    for s in [
        "",
        "\"",
        "\\\\",
        "a\\\"b",
        "line1\nline2\r\ttabbed",
        "control:\u{1}\u{1f}",
        "bmp: µ → ☃",
    ] {
        let encoded = json_string(s);
        assert_eq!(parse(&encoded).expect("parses").as_str(), Some(s));
    }
}

#[test]
fn fmt_num_round_trips_and_rejects_non_finite() {
    for v in [0.0, -0.0, 1.5, -2.25, 1e-9, 1.7976931348623157e308, 42.0] {
        let text = fmt_num(v).expect("finite");
        assert_eq!(parse(&text).expect("parses").as_f64(), Some(v));
    }
    assert!(fmt_num(f64::NAN).is_err());
    assert!(fmt_num(f64::INFINITY).is_err());
    assert!(fmt_num(f64::NEG_INFINITY).is_err());
    // And the parser side refuses the same values spelled as literals.
    for bad in ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"] {
        assert!(parse(bad).is_err(), "parser accepted {bad:?}");
    }
}
