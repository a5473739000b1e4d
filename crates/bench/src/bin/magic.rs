//! `magic` — the magic-constant calculator.
//!
//! Prints the reciprocal constants of Figures 4.1/4.2/5.2/6.2/8.1/§9 for
//! any divisor, at any machine width, in a form you can paste into a code
//! generator (the classic companion tool to this paper — compare
//! "Hacker's Delight" magic(), or libdivide's generators).
//!
//! Usage:
//!
//! * `magic <divisor> [width]` — print the constant table;
//! * `magic explain <width> <divisor> [shape] [--json]` — print the
//!   plan-decision trace, per-pass IR history and predicted cycles
//!   (shape defaults to `unsigned`, or `signed` for negative divisors;
//!   `--json` emits the raw JSONL event stream instead);
//! * `magic calibrate [iters] [repeats] [out.json]` — measure the host
//!   and score every Table 1.1 cost model against it (see
//!   `magicdiv_bench::calibrate`); defaults write
//!   `results/calibration.json`;
//! * `magic chaos [seed] [rounds] [out.json]` — run the deterministic
//!   fault-injection campaign against the guarded division service
//!   (see `magicdiv_bench::chaos`): plan-constant bit flips, cache
//!   poisoning, lock poisoning, interpreter fuel exhaustion and forced
//!   demotions. Exits 1 if any injected fault produced a silently
//!   wrong quotient, whose reproducers the report lists under `repros`
//!   (it writes nothing else); defaults write `results/chaos.json`;
//! * `magic metrics [seed] [requests] [out.prom]` — drive a seeded
//!   synthetic request mix through a private plan cache and print the
//!   resulting Prometheus-style text exposition. The stream is a pure
//!   function of the seed, so two same-seed runs are byte-identical —
//!   check.sh diffs them against the committed
//!   `results/metrics_42_2000.prom`, and the `drift` bin diffs two
//!   saved `.prom` files across releases.

use std::sync::Arc;

use magicdiv::cache::ChaosLockPoison;
use magicdiv::{PlanCache, UnsignedDivisor};
use magicdiv_bench::{
    explain, explain_jsonl, render_table, run_calibration, run_chaos, CalibrationConfig,
    ChaosConfig, ExplainShape, SplitMix,
};
use magicdiv_trace::{install, render_exposition, ExpositionOptions, MetricsSink, Registry};

fn usage() -> ! {
    eprintln!("usage: magic <divisor> [width=32]");
    eprintln!("       magic explain <width> <divisor> [shape] [--json]");
    eprintln!("       magic calibrate [iters=300] [repeats=5] [out=results/calibration.json]");
    eprintln!("       magic chaos [seed] [rounds=8] [out=results/chaos.json]");
    eprintln!("       magic metrics [seed] [requests=2000] [out.prom]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("explain") {
        explain_main(&args[2..]);
        return;
    }
    if args.get(1).map(String::as_str) == Some("calibrate") {
        calibrate_main(&args[2..]);
        return;
    }
    if args.get(1).map(String::as_str) == Some("chaos") {
        chaos_main(&args[2..]);
        return;
    }
    if args.get(1).map(String::as_str) == Some("metrics") {
        metrics_main(&args[2..]);
        return;
    }
    let d: i128 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let width: u32 = match args.get(2) {
        None => 32,
        Some(s) => s.parse().unwrap_or_else(|_| usage()),
    };
    if d == 0 {
        eprintln!("divisor must be nonzero");
        std::process::exit(1);
    }
    if ![8, 16, 32, 64, 128].contains(&width) {
        eprintln!("width must be one of 8/16/32/64/128");
        std::process::exit(1);
    }
    match width {
        8 => report::<u8>(d),
        16 => report::<u16>(d),
        32 => report::<u32>(d),
        64 => report::<u64>(d),
        _ => report::<u128>(d),
    }
}

fn explain_main(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: magic explain <width> <divisor> [shape] [--json]");
        eprintln!("       shape: unsigned | signed | floor | exact | dword | urem | divtest");
        std::process::exit(2)
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => usage(),
            other => positional.push(other),
        }
    }
    let (Some(width), Some(d)) = (
        positional.first().and_then(|s| s.parse::<u32>().ok()),
        positional.get(1).and_then(|s| s.parse::<i128>().ok()),
    ) else {
        usage()
    };
    let shape = match positional.get(2) {
        Some(s) => s.parse::<ExplainShape>().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }),
        None if d < 0 => ExplainShape::Signed,
        None => ExplainShape::Unsigned,
    };
    let result = if json {
        explain_jsonl(shape, width, d)
    } else {
        explain(shape, width, d)
    };
    match result {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1)
        }
    }
}

fn calibrate_main(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: magic calibrate [iters=300] [repeats=5] [out=results/calibration.json]");
        std::process::exit(2)
    };
    let mut cfg = CalibrationConfig::default();
    if let Some(s) = args.first() {
        match s.parse() {
            Ok(n) if n > 0 => cfg.iters = n,
            _ => usage(),
        }
    }
    if let Some(s) = args.get(1) {
        match s.parse() {
            Ok(n) if n > 0 => cfg.repeats = n,
            _ => usage(),
        }
    }
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "results/calibration.json".to_string());
    if args.len() > 3 {
        usage()
    }

    let report = run_calibration(&cfg);
    print!("{}", report.render_text());
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(1)
            }
        }
    }
    match std::fs::write(&out_path, report.to_json()) {
        Ok(()) => println!(
            "wrote {} cells, {} model scores to {out_path}",
            report.cells.len(),
            report.models.len()
        ),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1)
        }
    }
}

fn chaos_main(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: magic chaos [seed] [rounds=8] [out=results/chaos.json]");
        std::process::exit(2)
    };
    let mut cfg = ChaosConfig::default();
    if let Some(s) = args.first() {
        // Accept decimal or 0x-prefixed hex seeds.
        let parsed = s
            .strip_prefix("0x")
            .map_or_else(|| s.parse(), |hex| u64::from_str_radix(hex, 16));
        match parsed {
            Ok(n) => cfg.seed = n,
            _ => usage(),
        }
    }
    if let Some(s) = args.get(1) {
        match s.parse() {
            Ok(n) if n > 0 => cfg.rounds = n,
            _ => usage(),
        }
    }
    let out_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "results/chaos.json".to_string());
    if args.len() > 3 {
        usage()
    }

    // The lock-poisoning scenario panics a writer on purpose; keep that
    // one unwind quiet and hand every other panic to the saved hook.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_injected_lock_poison(info.payload()) {
            hook(info);
        }
    }));
    let report = run_chaos(&cfg);

    print!("{}", report.render_text());
    let json = report.to_json();
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(1)
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1)
    }
    println!("wrote {out_path}");
    if report.silent_wrong() > 0 {
        for entry in &report.repros {
            eprintln!("reproducer: {entry}");
        }
        eprintln!(
            "error: {} silently wrong quotient(s) — reproducers under \"repros\" in {out_path}",
            report.silent_wrong()
        );
        std::process::exit(1)
    }
}

/// Whether a panic payload is the lock-poisoning scenario's deliberate
/// unwind ([`PlanCache::chaos_poison_lock_udiv`]), the one panic the
/// chaos campaign keeps quiet.
fn is_injected_lock_poison(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<ChaosLockPoison>()
}

fn metrics_main(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: magic metrics [seed] [requests=2000] [out.prom]");
        std::process::exit(2)
    };
    let mut seed: u64 = 42;
    if let Some(s) = args.first() {
        // Accept decimal or 0x-prefixed hex seeds, like `magic chaos`.
        let parsed = s
            .strip_prefix("0x")
            .map_or_else(|| s.parse(), |hex| u64::from_str_radix(hex, 16));
        match parsed {
            Ok(n) => seed = n,
            _ => usage(),
        }
    }
    let mut requests: u64 = 2000;
    if let Some(s) = args.get(1) {
        match s.parse() {
            Ok(n) if n > 0 => requests = n,
            _ => usage(),
        }
    }
    let out_path = args.get(2).cloned();
    if args.len() > 3 {
        usage()
    }

    // The service's own trace events (cache hits, misses, plan builds)
    // land in the same registry as the request counters.
    let registry = Arc::new(Registry::new());
    let metrics = install(Arc::new(MetricsSink::new(registry.clone())));
    drive_service(seed, requests, &registry);
    drop(metrics);
    let text = render_exposition(&registry.snapshot(), &ExpositionOptions::default());
    match &out_path {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    if let Err(e) = std::fs::create_dir_all(parent) {
                        eprintln!("error: cannot create {}: {e}", parent.display());
                        std::process::exit(1)
                    }
                }
            }
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1)
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

/// Drive a deterministic synthetic request mix through a private plan
/// cache. Divisors follow a skewed (zipf-ish) distribution so the
/// exposition exercises both the hot-divisor labels and the `other`
/// overflow bucket; everything is a pure function of the seed.
fn drive_service(seed: u64, requests: u64, registry: &Arc<Registry>) {
    let mut rng = SplitMix(seed);
    let cache = PlanCache::new(64);
    let mut acc = 0u64;
    for _ in 0..requests {
        let z = rng.next_u64();
        // Small spans dominate (span doubles per top-bit bucket), so a
        // handful of small divisors take most of the traffic.
        let span = 1u64 << (1 + (z >> 58) % 10);
        let d = 2 + (z % span);
        let n = rng.next_u64();
        registry.counter(&format!("service.requests.d.{d}")).inc();
        match cache.udiv(u128::from(d), 64) {
            Ok(plan) => {
                let divisor = UnsignedDivisor::<u64>::from_plan(&plan);
                acc = acc.wrapping_add(divisor.divide(n));
            }
            Err(_) => registry.counter("service.faults").inc(),
        }
    }
    std::hint::black_box(acc);
}

fn report<T: magicdiv::UWord>(d: i128)
where
    T::Signed: magicdiv::SWord<Unsigned = T>,
{
    use magicdiv::plan::{DivPlan, DivisibilityPlan, UremPlan};
    use magicdiv::{
        choose_multiplier, DwordDivisor, ExactSignedDivisor, FloorDivisor,
        InvariantUnsignedDivisor, SignedDivisor, UnsignedDivisor,
    };

    // A rejected divisor surfaces as a typed fault and a clean exit, not
    // a panic.
    fn must<V>(what: &str, r: Result<V, impl Into<magicdiv::Fault>>) -> V {
        r.map_err(Into::into)
            .unwrap_or_else(|fault: magicdiv::Fault| {
                eprintln!("error: {what}: {fault}");
                std::process::exit(1)
            })
    }

    let n = T::BITS;
    println!("== magic constants for d = {d} at N = {n} ==\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    let plan_row = |label: &str, plan: DivPlan| {
        vec![
            label.to_string(),
            format!("[{}] {plan}", plan.strategy_name()),
        ]
    };

    if d > 0 {
        let du = T::from_u128_truncate(d as u128);
        if du.to_u128() != d as u128 {
            eprintln!("divisor does not fit in {n} bits");
            std::process::exit(1);
        }
        let ud = must("unsigned divisor", UnsignedDivisor::new(du));
        rows.push(plan_row("unsigned plan (Fig 4.2)", ud.plan().into()));
        rows.push(vec![
            "unsigned (Fig 4.2)".into(),
            format!("{:?}", ud.strategy()),
        ]);
        let inv = must(
            "invariant unsigned divisor",
            InvariantUnsignedDivisor::new(du),
        );
        let (m, sh1, sh2) = inv.constants();
        rows.push(vec![
            "unsigned invariant (Fig 4.1)".into(),
            format!("m' = {m:#x}, sh1 = {sh1}, sh2 = {sh2}"),
        ]);
        let c = must("CHOOSE_MULTIPLIER", choose_multiplier(du, n));
        rows.push(vec![
            "CHOOSE_MULTIPLIER(d, N)".into(),
            format!(
                "m = {:#x}, sh_post = {}, l = {}",
                c.multiplier, c.sh_post, c.l
            ),
        ]);
        let dd = must("dword divisor", DwordDivisor::new(du));
        rows.push(plan_row("dword plan (Fig 8.1)", dd.plan().into()));
        rows.push(vec!["udword/uword (Fig 8.1)".into(), format!("{dd:?}")]);
        // Direct remainder and divisibility: first-class plan shapes,
        // not derived from the quotient.
        if let Ok(rp) = UremPlan::new_direct(d as u128, n) {
            rows.push(plan_row("remainder plan (LKK Thm 1)", rp.into()));
        }
        if let Ok(dp) = DivisibilityPlan::new(d as u128, n) {
            rows.push(plan_row("divisibility plan (§9 + LKK §3)", dp.into()));
        }
    }
    let ds = <T::Signed as magicdiv::SWord>::from_i128_truncate(d);
    if <T::Signed as magicdiv::SWord>::to_i128(ds) == d {
        let sd = must("signed divisor", SignedDivisor::new(ds));
        rows.push(plan_row("signed plan (Fig 5.2)", sd.plan().into()));
        rows.push(vec![
            "signed trunc (Fig 5.2)".into(),
            format!("{:?}", sd.strategy()),
        ]);
        let fd = must("floor divisor", FloorDivisor::new(ds));
        rows.push(plan_row("floor plan (Fig 6.1)", fd.plan().into()));
        let ed = must("exact signed divisor", ExactSignedDivisor::new(ds));
        rows.push(plan_row("exact plan (§9)", ed.plan().into()));
        rows.push(vec!["exact / divisibility (§9)".into(), format!("{ed:?}")]);
    } else {
        eprintln!("(signed forms skipped: divisor does not fit in i{n})");
    }

    println!("{}", render_table(&["algorithm", "constants"], &rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_injected_lock_poison_is_silenced() {
        assert!(is_injected_lock_poison(&ChaosLockPoison));
        assert!(!is_injected_lock_poison(&"index out of bounds"));
        assert!(!is_injected_lock_poison(&String::from("boom")));
    }
}
