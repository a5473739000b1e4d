//! `e2e`: the end-to-end benchmark for magicdiv.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file.json>]
//! ```
//!
//! One process, one thread, a closed loop: the next window starts when
//! the previous one has been timed and checked. Untraced runs print the
//! end-to-end metrics; traced runs time every layer boundary from the
//! outside and print the per-layer metrics. The last stdout line is the
//! JSON result. See README.md for the workloads and metrics.

#![forbid(unsafe_code)]
// This repository reimplements division; the oracles divide natively on
// purpose.
#![allow(clippy::manual_div_ceil, clippy::manual_is_multiple_of)]

mod batch;
mod churn;
mod compile;
mod harness;
mod oracle;
mod rng;
mod service;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::{
    analyze, loop_floor_ns, peak_rss_mb, percentile, run_phase, stamp_floor_ns, timer_floor_ns,
    Analysis, CountOps, Layer, Off, Recorder, Span, Until, Workload,
};

const WORKLOADS: [&str; 4] = [
    "service_hot",
    "batch_kernels",
    "divisor_churn",
    "compile_pipeline",
];

/// At most this many spans are kept per traced run.
const MAX_SPANS: usize = 1 << 16;

/// Per-layer metrics a traced run reports, with units. Layers a
/// workload does not exercise read 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("cache.hit_ns_p50", "ns"),
    ("cache.hit_ns_p99", "ns"),
    ("cache.checksum_ns_p50", "ns"),
    ("kernel.from_plan_ns_p50", "ns"),
    ("cache.miss_ns_p50", "ns"),
    ("cache.miss_ns_p99", "ns"),
    ("cache.hit_ratio", "fraction"),
    ("cache.evictions_per_kreq", "1/kreq"),
    ("plan.build_ns_p50", "ns"),
    ("guard.construct_ns_p50", "ns"),
    ("guard.construct_ns_p99", "ns"),
    ("guard.op_ns_p50", "ns"),
    ("guard.demotions", "count"),
    ("kernel.op_ns_p50", "ns"),
    ("kernel.div_slice_u32_ns_per_elem", "ns"),
    ("kernel.div_slice_u64_ns_per_elem", "ns"),
    ("kernel.div_rem_slice_u64_ns_per_elem", "ns"),
    ("kernel.rem_slice_u32_ns_per_elem", "ns"),
    ("kernel.div_slice_i64_ns_per_elem", "ns"),
    ("workloads.radix_ns_per_op", "ns"),
    ("workloads.hashing_ns_per_op", "ns"),
    ("workloads.calendar_ns_per_op", "ns"),
    ("workloads.histogram_ns_per_op", "ns"),
    ("workloads.count_divisible_ns_per_op", "ns"),
    ("workloads.bignum_ns_per_op", "ns"),
    ("workloads.graphics_ns_per_op", "ns"),
    ("baseline.hw_ns_per_op", "ns"),
    ("tournament.udiv_ns_p50", "ns"),
    ("tournament.urem_ns_p50", "ns"),
    ("tournament.candidates_per_cell", "count"),
    ("tournament.paper_win_ratio", "fraction"),
    ("ir.lower_opt_ns_p50", "ns"),
    ("ir.insts_per_cell", "count"),
    ("codegen.emit_ns_p50", "ns"),
    ("simcpu.price_ns_p50", "ns"),
    ("simcpu.cycles_per_cell", "cycles"),
    ("trace.metrics_sink_ns_per_op", "ns"),
    ("harness.timer_ns", "ns"),
    ("harness.loop_ns_per_op", "ns"),
    ("harness.span_overhead_pct", "%"),
    ("request.self_ns_p50", "ns"),
    ("request.layer_share_pct", "%"),
    ("request.ns_p50", "ns"),
];

/// Span-derived metrics: name, layer, percentile. Values are ns per
/// unit of the span's work (per element for slice and workload kernels).
const SPAN_METRICS: [(&str, Layer, f64); 30] = [
    ("cache.hit_ns_p50", Layer::CacheHit, 0.5),
    ("cache.hit_ns_p99", Layer::CacheHit, 0.99),
    ("cache.checksum_ns_p50", Layer::Checksum, 0.5),
    ("kernel.from_plan_ns_p50", Layer::FromPlan, 0.5),
    ("cache.miss_ns_p50", Layer::CacheMiss, 0.5),
    ("cache.miss_ns_p99", Layer::CacheMiss, 0.99),
    ("plan.build_ns_p50", Layer::PlanBuild, 0.5),
    ("guard.construct_ns_p50", Layer::GuardConstruct, 0.5),
    ("guard.construct_ns_p99", Layer::GuardConstruct, 0.99),
    ("guard.op_ns_p50", Layer::GuardOps, 0.5),
    ("kernel.op_ns_p50", Layer::KernelOp, 0.5),
    ("kernel.div_slice_u32_ns_per_elem", Layer::DivSliceU32, 0.5),
    ("kernel.div_slice_u64_ns_per_elem", Layer::DivSliceU64, 0.5),
    (
        "kernel.div_rem_slice_u64_ns_per_elem",
        Layer::DivRemSliceU64,
        0.5,
    ),
    ("kernel.rem_slice_u32_ns_per_elem", Layer::RemSliceU32, 0.5),
    ("kernel.div_slice_i64_ns_per_elem", Layer::DivSliceI64, 0.5),
    ("workloads.radix_ns_per_op", Layer::Radix, 0.5),
    ("workloads.hashing_ns_per_op", Layer::Hashing, 0.5),
    ("workloads.calendar_ns_per_op", Layer::Calendar, 0.5),
    ("workloads.histogram_ns_per_op", Layer::Histogram, 0.5),
    (
        "workloads.count_divisible_ns_per_op",
        Layer::CountDivisible,
        0.5,
    ),
    ("workloads.bignum_ns_per_op", Layer::Bignum, 0.5),
    ("workloads.graphics_ns_per_op", Layer::Graphics, 0.5),
    ("baseline.hw_ns_per_op", Layer::Baseline, 0.5),
    ("tournament.udiv_ns_p50", Layer::TournamentUdiv, 0.5),
    ("tournament.urem_ns_p50", Layer::TournamentUrem, 0.5),
    ("ir.lower_opt_ns_p50", Layer::IrLowerOpt, 0.5),
    ("codegen.emit_ns_p50", Layer::CodegenEmit, 0.5),
    ("simcpu.price_ns_p50", Layer::SimcpuPrice, 0.5),
    ("request.ns_p50", Layer::Request, 0.5),
];

#[derive(Debug, Clone)]
struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug, Clone)]
struct Report {
    workload: String,
    attempted: u64,
    failed: u64,
    windows: u64,
    /// Digest of the generated op stream.
    stream: u64,
    metrics: Vec<Metric>,
    spans: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    #[cfg(test)]
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    magicdiv_trace::json_string(&m.name),
                    m.value,
                    magicdiv_trace::json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

const USAGE: &str =
    "usage: e2e --workload <service_hot|batch_kernels|divisor_churn|compile_pipeline> \
--seed <n> --seconds <s> --trace <0|1> [--out <file.json>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "service_hot" => run_workload::<service::ServiceHot>(cfg),
        "batch_kernels" => run_workload::<batch::BatchKernels>(cfg),
        "divisor_churn" => run_workload::<churn::DivisorChurn>(cfg),
        "compile_pipeline" => run_workload::<compile::CompilePipeline>(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn run_workload<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let t = Instant::now();
    let mut w = W::setup(cfg.seed)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let stream = w.fingerprint();
    let timer_ns = timer_floor_ns();

    // Warm-up: caches filled, lazy statics initialized, clocks ramped.
    let mut count = CountOps(0);
    let warm_s = (cfg.seconds * 0.05).clamp(0.02, 1.0);
    run_phase(
        &mut w,
        &mut count,
        Until::Elapsed(secs(warm_s)),
        timer_ns,
        || Ok(()),
    )?;

    let mut report = Report {
        workload: cfg.workload.clone(),
        attempted: 0,
        failed: 0,
        windows: 0,
        stream,
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    let faults0 = w.faults();
    if !cfg.trace {
        if magicdiv_trace::enabled() {
            return Err("a trace sink is installed before an untraced phase".into());
        }
        // Set-up is repeated between slices of the measured phase, not
        // back to back, so one disturbed moment cannot set `setup_s`.
        // Each repeat builds a fresh state and drops it; the service's
        // re-warm of the shared cache leaves the same plans in it.
        let phase = run_phase(
            &mut w,
            &mut Off,
            Until::Elapsed(secs(cfg.seconds)),
            timer_ns,
            || {
                let t = Instant::now();
                W::setup(cfg.seed)?;
                setup.push(t.elapsed().as_secs_f64());
                Ok(())
            },
        )?;
        report.attempted = phase.ops();
        report.windows = phase.windows();
        report.set("setup_s", percentile(&setup, 0.5), "s");
        report.set("ops_per_s", phase.ops_per_s(), "ops/s");
        report.set("ns_per_op_p50", phase.p50(), "ns");
        report.set("ns_per_op_p99", phase.p99(), "ns");
        report.set("peak_rss_mb", peak_rss_mb()?, "MB");
        report.set("code_insts", compile::code_insts()? as f64, "count");
    } else {
        for (name, unit) in PER_LAYER {
            report.set(name, 0.0, unit);
        }
        // An untraced reference, the same stream under a metrics sink,
        // then the traced phase.
        if magicdiv_trace::enabled() {
            return Err("a trace sink is installed before an untraced phase".into());
        }
        let plain = run_phase(
            &mut w,
            &mut Off,
            Until::Elapsed(secs(cfg.seconds * 0.25)),
            timer_ns,
            || Ok(()),
        )?;
        let sink = {
            let registry = Arc::new(magicdiv_trace::Registry::new());
            let _guard =
                magicdiv_trace::install(Arc::new(magicdiv_trace::MetricsSink::new(registry)));
            run_phase(
                &mut w,
                &mut Off,
                Until::Elapsed(secs(cfg.seconds * 0.1)),
                timer_ns,
                || Ok(()),
            )?
        };
        let traced_s = cfg.seconds * 0.65;
        let expected_spans = count.0 as f64 / warm_s * traced_s * W::SPANS_PER_OP as f64;
        let stride = (expected_spans / (MAX_SPANS as f64 * 0.9)).ceil().max(1.0) as u64;
        let stamp_ns = stamp_floor_ns(stride);
        let mut rec = Recorder::new(stride, MAX_SPANS);
        w.begin_counters();
        let traced = run_phase(
            &mut w,
            &mut rec,
            Until::Elapsed(secs(traced_s)),
            timer_ns,
            || Ok(()),
        )?;
        for (name, value) in w.counters() {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("count", |&(_, u)| u);
            report.set(name, value, unit);
        }
        let analysis = analyze(rec.spans(), stamp_ns);
        layer_metrics(&mut report, rec.spans(), &analysis);
        report.set("trace.metrics_sink_ns_per_op", sink.p50(), "ns");
        report.set("harness.timer_ns", stamp_ns, "ns");
        report.set("harness.loop_ns_per_op", loop_floor_ns(timer_ns)?, "ns");
        let base = plain.p50();
        let with_spans = traced.p50();
        report.set(
            "harness.span_overhead_pct",
            (with_spans - base) / base * 100.0,
            "%",
        );
        report.attempted = plain.ops() + sink.ops() + traced.ops();
        report.windows = traced.windows();
        report.spans = spans_jsonl(rec.spans(), &analysis);
    }
    report.failed = w.faults() - faults0;
    Ok(report)
}

fn layer_metrics(report: &mut Report, spans: &[Span], a: &Analysis) {
    for (name, layer, q) in SPAN_METRICS {
        let values: Vec<f64> = spans
            .iter()
            .zip(&a.net)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, &t)| t / f64::from(s.units.max(1)))
            .collect();
        if !values.is_empty() {
            report.set(name, percentile(&values, q), "ns");
        }
    }
    // The layers' share of each request, as a median so one preempted
    // request cannot swing it.
    let (mut self_ns, mut share) = (Vec::new(), Vec::new());
    for ((s, &t), &own) in spans.iter().zip(&a.net).zip(&a.self_ns) {
        if s.layer == Layer::Request && t > 0.0 {
            self_ns.push(own);
            share.push((1.0 - own / t) * 100.0);
        }
    }
    report.set("request.self_ns_p50", percentile(&self_ns, 0.5), "ns");
    report.set("request.layer_share_pct", percentile(&share, 0.5), "%");
}

fn spans_jsonl(spans: &[Span], a: &Analysis) -> Vec<String> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = if s.parent == harness::NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"stamps\": {}, \"units\": {}, \"net_ns\": {}, \"self_ns\": {}}}",
                s.layer.name(),
                s.op,
                s.start,
                s.end,
                s.stamps,
                s.units,
                a.net[i],
                a.self_ns[i]
            )
        })
        .collect()
}

fn write_outputs(cfg: &Config, report: &Report, out: &Path) -> Result<(), String> {
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, report.json() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    if cfg.trace {
        let path = out.with_extension("spans.jsonl");
        let mut body = report.spans.join("\n");
        body.push('\n');
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {}: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    let out = cfg.out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_build/e2e/{}-seed{}.json",
            cfg.workload, cfg.seed
        ))
    });
    if let Err(e) = write_outputs(&cfg, &report, &out) {
        eprintln!("e2e: {e}");
        return ExitCode::from(1);
    }
    println!(
        "workload {} seed {} stream {:016x} trace {} windows {} attempted {} failed {} error_rate {}",
        report.workload,
        cfg.seed,
        report.stream,
        u8::from(cfg.trace),
        report.windows,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &report.metrics {
        println!("{:<40} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.failed > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests;
