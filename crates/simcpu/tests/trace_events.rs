//! Cross-layer trace-event integration tests: the cycle totals the
//! tracing layer reports must equal what the public costing API
//! returns, plan events must carry paper provenance, and tracing must
//! be structurally absent when no sink is installed.

use std::collections::HashSet;
use std::sync::Arc;

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv::{FaultKind, FaultLayer};
use magicdiv_codegen::gen_unsigned_divrem_hw;
use magicdiv_ir::{compile, Builder, Op, OpClass, Program};
use magicdiv_simcpu::{
    cycles_for_program, predictions_for_plan, table_1_1, trace_program, try_cycles_for_plan,
};
use magicdiv_trace::{install, CaptureSink, Event, MetricsSink, Registry, Value};

fn u64_field(e: &Event, key: &str) -> u64 {
    e.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("event {} lacks u64 field {key}: {e}", e.name))
}

fn sample_plans() -> Vec<DivPlan> {
    vec![
        UdivPlan::new(7, 32).unwrap().into(),
        UdivPlan::new(10, 64).unwrap().into(),
        UdivPlan::new(1, 16).unwrap().into(),
        UdivPlan::new(32, 8).unwrap().into(),
        SdivPlan::new(-7, 32).unwrap().into(),
        SdivPlan::new(3, 64).unwrap().into(),
        FloorPlan::new(-5, 32).unwrap().into(),
    ]
}

/// Every priceable shape (unsigned, signed, floor, exact, both urem
/// forms, divisibility, dword) at every machine width, for each divisor
/// in {1, 3, 7, 10, 641, 2^(w-1), 2^w - 1} the shape accepts.
fn priceable_plans() -> Vec<DivPlan> {
    let mut plans = Vec::new();
    for w in [8u32, 16, 32, 64] {
        let top = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        for d in [1u64, 3, 7, 10, 641, 1 << (w - 1), top] {
            if d > top {
                continue;
            }
            // 2^(w-1) and 2^w - 1 do not fit a signed w-bit divisor.
            let (du, ds) = (u128::from(d), i128::from(d));
            let shapes: [Option<DivPlan>; 8] = [
                UdivPlan::new(du, w).ok().map(Into::into),
                SdivPlan::new(ds, w).ok().map(Into::into),
                FloorPlan::new(ds, w).ok().map(Into::into),
                ExactPlan::new_unsigned(du, w).ok().map(Into::into),
                UremPlan::new_direct(du, w).ok().map(Into::into),
                UremPlan::new(du, w).ok().map(Into::into),
                DivisibilityPlan::new(du, w).ok().map(Into::into),
                DwordPlan::new(du, w).ok().map(Into::into),
            ];
            plans.extend(shapes.into_iter().flatten());
        }
    }
    plans
}

#[test]
fn priceable_plans_cover_every_shape_and_width() {
    let plans = priceable_plans();
    for w in [8u32, 16, 32, 64] {
        let shapes: HashSet<_> = plans
            .iter()
            .filter(|p| p.width() == w)
            .map(std::mem::discriminant)
            .collect();
        assert_eq!(shapes.len(), 7, "a DivPlan shape is missing at w{w}");
    }
}

/// `predictions_for_plan` lowers once and prices that program under
/// every model: its table must equal `try_cycles_for_plan` model by
/// model, in Table 1.1 order, with one `simcpu.plan_cycles` event per
/// model carrying the same cycles.
#[test]
fn one_lowering_prices_like_sixteen() {
    let models = table_1_1();
    for plan in priceable_plans() {
        let capture = Arc::new(CaptureSink::new());
        let preds = {
            let _g = install(capture.clone());
            predictions_for_plan(&plan).expect("machine widths are priceable")
        };
        assert_eq!(preds.len(), models.len());
        let events = capture.named("simcpu.plan_cycles");
        assert_eq!(events.len(), models.len(), "one pricing event per model");
        for ((pred, model), event) in preds.iter().zip(&models).zip(&events) {
            let single = try_cycles_for_plan(&plan, model).expect("priceable");
            assert_eq!(pred.model, model.name);
            assert_eq!(
                pred.cycles, single,
                "{plan:?} on {}: table diverges from a single pricing",
                model.name
            );
            assert_eq!(event.get("model"), Some(&Value::from(model.name)));
            assert_eq!(u64_field(event, "cycles"), single);
        }
    }
    let wide = DivPlan::from(UdivPlan::new(10, 128).unwrap());
    let capture = Arc::new(CaptureSink::new());
    let fault = {
        let _g = install(capture.clone());
        predictions_for_plan(&wide).unwrap_err()
    };
    assert_eq!(fault.layer, FaultLayer::SimCpu);
    assert_eq!(fault.kind, FaultKind::UnsupportedWidth { width: 128 });
    assert!(capture.named("simcpu.plan_cycles").is_empty());
}

/// With no sink installed, `predictions_for_plan` (one decode, sixteen
/// runs) prices every plan exactly as `cycles_for_program` prices the
/// same optimized lowering, model by model.
#[test]
fn untraced_predictions_match_single_pricings() {
    assert!(!magicdiv_trace::enabled());
    let models = table_1_1();
    for plan in priceable_plans() {
        let preds = predictions_for_plan(&plan).expect("machine widths are priceable");
        let prog = compile(plan).expect("priceable plan");
        assert_eq!(preds.len(), models.len());
        for (pred, model) in preds.iter().zip(&models) {
            assert_eq!(pred.model, model.name);
            assert_eq!(
                pred.cycles,
                cycles_for_program(&prog, model),
                "{plan:?} on {}",
                model.name
            );
        }
    }
}

/// A program longer than any fixed-size scheduler buffer: a chain of 100
/// dependent adds costs exactly 100 simple operations on every
/// single-issue model, traced or not.
#[test]
fn long_dependent_chain_prices_every_link() {
    let mut b = Builder::new(32, 2);
    let (x, y) = (b.arg(0), b.arg(1));
    let mut acc = x;
    for _ in 0..100 {
        acc = b.push(Op::Add(acc, y));
    }
    let chain = b.finish([acc]);
    let mut single_issue = 0;
    for model in table_1_1().iter().filter(|m| m.issue_width == 1) {
        let want = 100 * u64::from(model.simple_cycles);
        assert_eq!(cycles_for_program(&chain, model), want, "{}", model.name);
        let trace = trace_program(&chain, model);
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.last().map(|t| t.complete), Some(want));
        let capture = Arc::new(CaptureSink::new());
        let traced = {
            let _g = install(capture.clone());
            cycles_for_program(&chain, model)
        };
        assert_eq!(traced, want, "{} traced", model.name);
        assert_eq!(
            u64_field(&capture.named("simcpu.cycles")[0], "add_sub_busy"),
            want
        );
        single_issue += 1;
    }
    assert!(single_issue > 0, "Table 1.1 has single-issue rows");
}

/// The `simcpu.plan_cycles` event must report exactly the number
/// `try_cycles_for_plan` returns, for every plan × model combination.
#[test]
fn plan_cycles_event_matches_try_cycles_for_plan() {
    for plan in sample_plans() {
        for model in table_1_1() {
            let capture = Arc::new(CaptureSink::new());
            let cycles = {
                let _g = install(capture.clone());
                try_cycles_for_plan(&plan, &model).expect("priceable plan")
            };
            let events = capture.named("simcpu.plan_cycles");
            assert_eq!(events.len(), 1, "one pricing event per call");
            assert_eq!(
                u64_field(&events[0], "cycles"),
                cycles,
                "trace total diverges from try_cycles_for_plan for {} on {}",
                plan.strategy_name(),
                model.name,
            );
            assert_eq!(
                events[0].get("strategy"),
                Some(&Value::from(plan.strategy_name())),
            );
        }
    }
}

/// `cycles_for_program` and `trace_program` share one scheduler: the
/// cycle total must be the trace's last completion, both must emit the
/// same `simcpu.cycles` event, and its per-class busy cycles must equal
/// the trace's issue-to-complete spans summed per operation class. Covers
/// every priceable shape plus the HI/LO-fused divide/remainder pair, on
/// every Table 1.1 model.
#[test]
fn cycle_attribution_total_matches_cycles_for_program() {
    let mut progs: Vec<Program> = priceable_plans()
        .into_iter()
        .map(|p| compile(p).expect("priceable plan"))
        .collect();
    progs.push(gen_unsigned_divrem_hw(32));
    let busy_fields = [
        (OpClass::AddSub, "add_sub_busy"),
        (OpClass::Shift, "shift_busy"),
        (OpClass::BitOp, "bit_op_busy"),
        (OpClass::Cmp, "cmp_busy"),
        (OpClass::MulLow, "mul_low_busy"),
        (OpClass::MulHigh, "mul_high_busy"),
        (OpClass::Div, "div_busy"),
    ];
    for prog in &progs {
        for model in table_1_1() {
            let traced = Arc::new(CaptureSink::new());
            let timings = {
                let _g = install(traced.clone());
                trace_program(prog, &model)
            };
            let priced = Arc::new(CaptureSink::new());
            let cycles = {
                let _g = install(priced.clone());
                cycles_for_program(prog, &model)
            };
            let last = timings.iter().map(|t| t.complete).max().unwrap_or(0);
            assert_eq!(cycles, last, "{prog} on {}", model.name);
            let events = traced.named("simcpu.cycles");
            assert_eq!(events.len(), 1);
            assert_eq!(priced.named("simcpu.cycles"), events);
            assert_eq!(u64_field(&events[0], "total"), cycles);
            assert_eq!(u64_field(&events[0], "instructions"), timings.len() as u64);
            for (class, field) in busy_fields {
                let busy: u64 = timings
                    .iter()
                    .filter(|t| prog.insts()[t.index].class() == class)
                    .map(|t| t.complete - t.issue)
                    .sum();
                assert_eq!(
                    u64_field(&events[0], field),
                    busy,
                    "{field} for {prog} on {}",
                    model.name
                );
            }
        }
    }
}

/// Every plan decision event names the paper artifact that justified it.
#[test]
fn plan_decisions_carry_paper_provenance() {
    let capture = Arc::new(CaptureSink::new());
    {
        // Plan construction under the sink is what gets traced.
        let _g = install(capture.clone());
        let _plans = sample_plans();
    }
    let decisions = capture.named("plan.decision");
    assert!(!decisions.is_empty(), "plans emitted no decisions");
    for d in &decisions {
        let paper = d.get("paper").expect("decision without paper field");
        let text = paper.to_string();
        assert!(
            text.contains("Fig") || text.contains('§') || text.contains("Thm"),
            "paper field does not cite an artifact: {text}"
        );
        assert!(
            d.get("strategy").is_some(),
            "decision without strategy: {d}"
        );
    }
}

/// Aggregating the event stream through a `MetricsSink` yields counters
/// for every event name and histograms for the cycle totals.
#[test]
fn metrics_sink_aggregates_pricing_events() {
    let registry = Arc::new(Registry::new());
    {
        let _g = install(Arc::new(MetricsSink::new(registry.clone())));
        for plan in sample_plans() {
            for model in table_1_1() {
                try_cycles_for_plan(&plan, &model).expect("priceable plan");
            }
        }
    }
    let snap = registry.snapshot();
    let priced = (sample_plans().len() * table_1_1().len()) as u64;
    assert_eq!(snap.counters["events.simcpu.plan_cycles"], priced);
    let hist = &snap.histograms["simcpu.plan_cycles.cycles"];
    assert_eq!(hist.count, priced);
    // Identity plans optimize to zero instructions (0 cycles), so only
    // the upper end is guaranteed nonzero.
    assert!(hist.max >= 1, "non-trivial plans cost at least one cycle");
}

/// With no sink installed, tracing is off and pricing emits nothing —
/// the zero-cost guard the batch hot paths rely on.
#[test]
fn no_sink_means_no_tracing() {
    assert!(!magicdiv_trace::enabled());
    let capture = Arc::new(CaptureSink::new());
    for plan in sample_plans() {
        let pentium = table_1_1()
            .into_iter()
            .find(|m| m.name.contains("Pentium"))
            .expect("Pentium row");
        try_cycles_for_plan(&plan, &pentium).expect("priceable plan");
    }
    assert!(capture.events().is_empty(), "uninstalled sink saw events");
}
