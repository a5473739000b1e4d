//! `bench` — fixed-iteration division microbenchmarks, reported per
//! strategy per width, written to `BENCH_division.json`.
//!
//! For every width (8/16/32/64) one divisor per Figure 4.2/5.2 strategy
//! is timed (identity, shift, mul_shift, mul_add_shift), scalar and
//! batched, against the hardware-divide baseline. The two remainder
//! paths are timed head-to-head per width (`rem_direct`, the LKK Thm 1
//! fraction, vs `rem_mulback`, §1's `n - q·d`, vs `rem_hardware`),
//! plus a hashing-bucketing row pair (`bucket_direct` /
//! `bucket_mulback`). The strategy labels come from the shared planning
//! layer, so the JSON rows name exactly the code shape that ran.
//!
//! Usage: `cargo run --release -p magicdiv-bench --bin bench -- [iters] [out.json]`
//!
//! The JSON report is the v2 schema: a top-level object carrying run
//! metadata (schema `version`, `git_sha`, `unix_ms` timestamp, `iters`,
//! `duration_ms`) plus the measurement `rows`, a `metrics` section
//! with per-strategy instruction/cycle histograms aggregated through
//! `magicdiv-trace`, and an `exposition` field holding the same
//! registry rendered as Prometheus-style text. `drift` diffs two such
//! files row by row (and still reads the v1 flat-array schema).
//!
//! `bench overhead [iters] [out.json]` instead runs the tracing
//! overhead self-profile (see `magicdiv_bench::overhead`): baseline /
//! tracing-off / null-sink / flight-recorder cost per division, with
//! pinned budget gates. Writes `results/overhead.json` by default and
//! exits 1 when a gate fails, so check.sh can enforce that tracing-off
//! stays free and the recorder stays within budget.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use magicdiv::plan::{DivPlan, DivisibilityPlan, SdivPlan, UdivPlan, UremPlan};
use magicdiv::{SignedDivisor, UnsignedDivisor};
use magicdiv_bench::{
    git_sha, measure_ns_min, render_table, run_overhead, strategy_divisors, unix_time_ms, RunLedger,
};
use magicdiv_simcpu::{table_1_1, try_cycles_for_plan};
use magicdiv_trace::{
    install, json_string, render_exposition, CaptureSink, ExpositionOptions, MetricsSink, Registry,
    Value,
};

const LEN: u64 = 1024;
/// Timing passes per cell; the fastest wins. Jitter (migrations,
/// frequency ramps, interrupts) only ever adds time, so min-of-k keeps
/// one unlucky pass from reporting a batch kernel slower than scalar.
const REPEATS: u32 = 5;

struct Row {
    name: String,
    width: u32,
    divisor: i128,
    strategy: &'static str,
    ns_per_op: f64,
}

fn write_json(
    path: &str,
    iters: u64,
    duration_ms: u64,
    rows: &[Row],
    metrics_json: &str,
    exposition: &str,
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str(&format!("  \"git_sha\": {},\n", json_string(&git_sha())));
    out.push_str(&format!("  \"unix_ms\": {},\n", unix_time_ms()));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str(&format!("  \"duration_ms\": {duration_ms},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"width\": {}, \"divisor\": {}, \"strategy\": \"{}\", \"ns_per_op\": {:.4}}}{}\n",
            json_string(&r.name),
            r.width,
            r.divisor,
            r.strategy,
            r.ns_per_op,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"metrics\": {metrics_json},\n"));
    out.push_str(&format!("  \"exposition\": {}\n", json_string(exposition)));
    out.push_str("}\n");
    std::fs::write(path, out)
}

/// Every plan the measurement loops exercise, for the metrics section.
fn benched_plans() -> Vec<DivPlan> {
    let mut plans = Vec::new();
    for width in [8u32, 16, 32, 64] {
        for d in strategy_divisors(width) {
            plans.push(UdivPlan::new(d as u128, width).expect("nonzero").into());
        }
    }
    for width in [32u32, 64] {
        for d in [-7i128, 3, 10] {
            plans.push(SdivPlan::new(d, width).expect("nonzero").into());
        }
    }
    // The two remainder paths and the divisibility test, per width.
    for width in [8u32, 16, 32, 64] {
        for d in [7u128, 10] {
            plans.push(UremPlan::new_direct(d, width).expect("nonzero").into());
            plans.push(UremPlan::new(d, width).expect("nonzero").into());
            plans.push(DivisibilityPlan::new(d, width).expect("nonzero").into());
        }
    }
    plans
}

/// Prices every benched plan under every Table 1.1 model, aggregating
/// per-strategy instruction and cycle histograms (plus the raw
/// `simcpu.plan_cycles` event stream) into a trace [`Registry`].
/// Returns the registry snapshot twice: as the JSON `metrics` section
/// and as Prometheus-style exposition text.
fn collect_metrics() -> (String, String) {
    let registry = Arc::new(Registry::new());
    let capture = Arc::new(CaptureSink::new());
    {
        let _metrics = install(Arc::new(MetricsSink::new(registry.clone())));
        let _capture = install(capture.clone());
        for plan in benched_plans() {
            for model in table_1_1() {
                // Width/model mismatches are impossible here; skip
                // defensively rather than abort the report.
                let _ = try_cycles_for_plan(&plan, &model);
            }
        }
    }
    for e in capture.named("simcpu.plan_cycles") {
        let Some(Value::Str(strategy)) = e.get("strategy") else {
            continue;
        };
        if let Some(cycles) = e.get("cycles").and_then(Value::as_u64) {
            registry
                .histogram(&format!("bench.cycles.{strategy}"))
                .observe(cycles);
        }
        if let Some(ops) = e.get("ops").and_then(Value::as_u64) {
            registry
                .histogram(&format!("bench.instructions.{strategy}"))
                .observe(ops);
        }
    }
    let snapshot = registry.snapshot();
    let exposition = render_exposition(&snapshot, &ExpositionOptions::default());
    (snapshot.to_json(), exposition)
}

macro_rules! bench_unsigned_at {
    ($t:ty, $iters:expr, $rows:expr) => {{
        let width = <$t>::BITS;
        let inputs: Vec<$t> = (0..LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as $t)
            .collect();
        let mut out = vec![0 as $t; inputs.len()];
        for d in strategy_divisors(width) {
            let dv = UnsignedDivisor::new(d as $t).expect("nonzero");
            let strategy = DivPlan::from(dv.plan()).strategy_name();

            let ns = measure_ns_min($iters, REPEATS, |_| {
                let d = black_box(d as $t);
                inputs.iter().map(|&n| (black_box(n) / d) as u64).sum()
            });
            $rows.push(Row {
                name: format!("u{width}/hardware/{d}"),
                width,
                divisor: d as i128,
                strategy: "hardware",
                ns_per_op: ns / LEN as f64,
            });

            let ns = measure_ns_min($iters, REPEATS, |_| {
                inputs.iter().map(|&n| dv.divide(black_box(n)) as u64).sum()
            });
            $rows.push(Row {
                name: format!("u{width}/scalar/{d}"),
                width,
                divisor: d as i128,
                strategy,
                ns_per_op: ns / LEN as f64,
            });

            let ns = measure_ns_min($iters, REPEATS, |_| {
                dv.div_slice(black_box(&inputs), &mut out);
                out[0] as u64
            });
            $rows.push(Row {
                name: format!("u{width}/batch/{d}"),
                width,
                divisor: d as i128,
                strategy,
                ns_per_op: ns / LEN as f64,
            });
        }
    }};
}

macro_rules! bench_urem_at {
    ($t:ty, $iters:expr, $rows:expr) => {{
        let width = <$t>::BITS;
        let inputs: Vec<$t> = (0..LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as $t)
            .collect();
        // d = 7 forces the add-fixup quotient under multiply-back; the
        // prime exercises the hashing-bucketing reduction.
        for d in [7u64, 10, 251] {
            let back = UnsignedDivisor::new(d as $t).expect("nonzero");
            let direct = UnsignedDivisor::new_direct_rem(d as $t).expect("nonzero");
            let back_strategy = DivPlan::from(back.urem_plan()).strategy_name();
            let direct_strategy = DivPlan::from(direct.urem_plan()).strategy_name();

            let ns = measure_ns_min($iters, REPEATS, |_| {
                let d = black_box(d as $t);
                inputs.iter().map(|&n| (black_box(n) % d) as u64).sum()
            });
            $rows.push(Row {
                name: format!("u{width}/rem_hardware/{d}"),
                width,
                divisor: d as i128,
                strategy: "hardware",
                ns_per_op: ns / LEN as f64,
            });

            let ns = measure_ns_min($iters, REPEATS, |_| {
                inputs
                    .iter()
                    .map(|&n| back.remainder(black_box(n)) as u64)
                    .sum()
            });
            $rows.push(Row {
                name: format!("u{width}/rem_mulback/{d}"),
                width,
                divisor: d as i128,
                strategy: back_strategy,
                ns_per_op: ns / LEN as f64,
            });

            let ns = measure_ns_min($iters, REPEATS, |_| {
                inputs
                    .iter()
                    .map(|&n| direct.remainder(black_box(n)) as u64)
                    .sum()
            });
            $rows.push(Row {
                name: format!("u{width}/rem_direct/{d}"),
                width,
                divisor: d as i128,
                strategy: direct_strategy,
                ns_per_op: ns / LEN as f64,
            });

            // Hashing-bucketing: the PrimeHashTable probe path — mix the
            // key, then reduce it to a bucket with each remainder path.
            if d == 251 {
                let mix = |n: $t| n.wrapping_mul(0x9e37_79b9_7f4a_7c15u64 as $t);
                let ns = measure_ns_min($iters, REPEATS, |_| {
                    inputs
                        .iter()
                        .map(|&n| back.remainder(mix(black_box(n))) as u64)
                        .sum()
                });
                $rows.push(Row {
                    name: format!("u{width}/bucket_mulback/{d}"),
                    width,
                    divisor: d as i128,
                    strategy: back_strategy,
                    ns_per_op: ns / LEN as f64,
                });
                let ns = measure_ns_min($iters, REPEATS, |_| {
                    inputs
                        .iter()
                        .map(|&n| direct.remainder(mix(black_box(n))) as u64)
                        .sum()
                });
                $rows.push(Row {
                    name: format!("u{width}/bucket_direct/{d}"),
                    width,
                    divisor: d as i128,
                    strategy: direct_strategy,
                    ns_per_op: ns / LEN as f64,
                });
            }
        }
    }};
}

macro_rules! bench_signed_at {
    ($t:ty, $iters:expr, $rows:expr) => {{
        let width = <$t>::BITS;
        let inputs: Vec<$t> = (0..LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as $t)
            .collect();
        for d in [-7i64, 3, 10] {
            let dv = SignedDivisor::new(d as $t).expect("nonzero");
            let strategy = DivPlan::from(dv.plan()).strategy_name();

            let ns = measure_ns_min($iters, REPEATS, |_| {
                let d = black_box(d as $t);
                inputs
                    .iter()
                    .map(|&n| black_box(n).wrapping_div(d) as u64)
                    .fold(0u64, u64::wrapping_add)
            });
            $rows.push(Row {
                name: format!("i{width}/hardware/{d}"),
                width,
                divisor: d as i128,
                strategy: "hardware",
                ns_per_op: ns / LEN as f64,
            });

            let ns = measure_ns_min($iters, REPEATS, |_| {
                inputs
                    .iter()
                    .map(|&n| dv.divide(black_box(n)) as u64)
                    .fold(0u64, u64::wrapping_add)
            });
            $rows.push(Row {
                name: format!("i{width}/scalar/{d}"),
                width,
                divisor: d as i128,
                strategy,
                ns_per_op: ns / LEN as f64,
            });
        }
    }};
}

fn overhead_main(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: bench overhead [iters=2000] [out=results/overhead.json]");
        std::process::exit(2)
    };
    let mut iters: u64 = 2000;
    if let Some(s) = args.first() {
        match s.parse() {
            Ok(n) if n > 0 => iters = n,
            _ => usage(),
        }
    }
    let out_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "results/overhead.json".to_string());
    if args.len() > 2 {
        usage()
    }

    let run = RunLedger::start("bench overhead");
    let report = run_overhead(iters, REPEATS);

    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.shape.to_string(),
                r.mode.to_string(),
                format!("{:.3}", r.ns_per_div),
            ]
        })
        .collect();
    println!("{}", render_table(&["shape", "mode", "ns/div"], &rows));
    let gates: Vec<Vec<String>> = report
        .gates
        .iter()
        .map(|g| {
            vec![
                g.name.to_string(),
                format!("{:.3}", g.measured),
                format!("{:.3}", g.limit),
                if g.pass { "pass" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["gate", "measured ns", "limit ns", "verdict"], &gates)
    );

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(1)
            }
        }
    }
    match std::fs::write(&out_path, report.to_json()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1)
        }
    }
    if let Err(e) = run.finish() {
        eprintln!("bench: warning: could not append ledger record: {e}");
    }
    if !report.pass() {
        eprintln!("error: tracing overhead budget exceeded — see {out_path}");
        std::process::exit(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("overhead") {
        overhead_main(&args[2..]);
        return;
    }
    let iters: u64 = match std::env::args().nth(1) {
        None => 500,
        // Reject 0 as well: zero iterations would write `inf` ns/op,
        // which is not representable in JSON.
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("bench: iters must be a positive integer, got {s:?}");
                eprintln!("usage: bench [iters=500] [out=BENCH_division.json]");
                eprintln!("       bench overhead [iters=2000] [out=results/overhead.json]");
                std::process::exit(2);
            }
        },
    };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_division.json".to_string());

    let run = RunLedger::start("bench");
    let started = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    bench_unsigned_at!(u8, iters, rows);
    bench_unsigned_at!(u16, iters, rows);
    bench_unsigned_at!(u32, iters, rows);
    bench_unsigned_at!(u64, iters, rows);
    bench_urem_at!(u8, iters, rows);
    bench_urem_at!(u16, iters, rows);
    bench_urem_at!(u32, iters, rows);
    bench_urem_at!(u64, iters, rows);
    bench_signed_at!(i32, iters, rows);
    bench_signed_at!(i64, iters, rows);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.strategy.to_string(),
                format!("{:.3}", r.ns_per_op),
            ]
        })
        .collect();
    println!("{}", render_table(&["bench", "strategy", "ns/op"], &table));

    let (metrics_json, exposition) = collect_metrics();
    let duration_ms = started.elapsed().as_millis() as u64;
    match write_json(
        &out_path,
        iters,
        duration_ms,
        &rows,
        &metrics_json,
        &exposition,
    ) {
        Ok(()) => println!("wrote {} rows to {out_path}", rows.len()),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = run.finish() {
        eprintln!("bench: warning: could not append ledger record: {e}");
    }
}
