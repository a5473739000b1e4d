use super::*;
use crate::harness::Off;

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's BENCHMARK.json, so names printed here cannot drift from
/// the ones the benchmark is judged by.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn smoke(workload: &str, trace: bool) -> Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.3,
        trace,
        out: None,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(report.failed, 0, "{workload}");
    assert!(report.attempted > 0 && report.windows > 0, "{workload}");
    report
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names = benchmark_names("end_to_end");
    assert!(names.len() >= 5, "{names:?}");
    for workload in WORKLOADS {
        let report = smoke(workload, false);
        for name in &names {
            let v = report
                .get(name)
                .unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert!(v > 0.0, "{workload} {name} = {v}");
        }
        assert!(report.metrics.iter().all(|m| !m.unit.is_empty()));
        let json = report.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric() {
    let names = benchmark_names("per_layer");
    assert!(names.len() >= 30, "{names:?}");
    for workload in WORKLOADS {
        let report = smoke(workload, true);
        for name in &names {
            assert!(
                report.get(name).is_some(),
                "{workload} traced run lacks {name}"
            );
        }
        assert!(report.metrics.iter().all(|m| !m.unit.is_empty()));
        assert!(!report.spans.is_empty(), "{workload}");
        assert!(
            report.get("request.ns_p50").unwrap_or(0.0) > 0.0,
            "{workload}"
        );
    }
}

fn fingerprint<W: Workload>(seed: u64) -> u64 {
    W::setup(seed).expect("set-up").fingerprint()
}

#[test]
fn op_streams_follow_the_seed() {
    fn check<W: Workload>(name: &str) {
        assert_eq!(fingerprint::<W>(5), fingerprint::<W>(5), "{name}");
        assert_ne!(fingerprint::<W>(5), fingerprint::<W>(6), "{name}");
    }
    check::<service::ServiceHot>("service_hot");
    check::<batch::BatchKernels>("batch_kernels");
    check::<churn::DivisorChurn>("divisor_churn");
    check::<compile::CompilePipeline>("compile_pipeline");
}

#[test]
fn same_seed_gives_the_same_hits_and_misses() {
    let counts = |seed| {
        let mut w = churn::DivisorChurn::setup(seed).expect("set-up");
        run_phase(&mut w, &mut Off, Until::Windows(40), 0.0, || Ok(())).expect("checks pass");
        let s = w.cache_stats();
        (s.hits, s.misses, s.evictions)
    };
    let a = counts(3);
    assert_eq!(a, counts(3));
    assert_eq!(a.0 + a.1, 40 * 256, "one lookup per request");
    assert!(a.2 > 0, "the cache fills and evicts");
}

#[test]
fn code_size_is_the_same_on_every_run() {
    let a = compile::code_insts().expect("corpus compiles");
    assert!(a > 1000, "{a}");
    assert_eq!(a, compile::code_insts().expect("corpus compiles"));
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let cfg = parse_args(&args(
        "--workload service_hot --seed 3 --seconds 10 --trace 1 --out x.json",
    ))
    .expect("valid");
    assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 10.0, true));
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload service_hot --seconds 10 --trace 0",
        "--workload service_hot --seed 3 --seconds 0 --trace 0",
        "--workload service_hot --seed 3 --seconds 10 --trace 2",
        "--workload service_hot --seed 3 --seconds 10 --trace",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
