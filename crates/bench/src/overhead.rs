//! The tracing-overhead self-profile (`bench overhead`).
//!
//! The tournament prices candidate plans down to single cycles, and the
//! guarded service runs instrumentation (`cache.hit`, `guard.*`) on the
//! same hot paths — so the observability layer must be priced like any
//! other candidate. This module measures the per-division cost of one
//! service request under four tracing configurations:
//!
//! * **baseline** — the bare division kernel (no cache, no events): the
//!   pre-instrumentation floor;
//! * **off** — the full service path (plan-cache lookup + divide) with
//!   no sink installed, so every `event!` site reduces to one
//!   thread-local read;
//! * **sink** — the same path with a [`NullSink`] installed (events are
//!   built and dispatched, then discarded);
//! * **recorder** — the same path with a [`FlightRecorder`] installed
//!   (events are additionally cloned into the per-thread ring).
//!
//! Each configuration runs scalar (one cache lookup + one division per
//! request) and batch (one lookup amortized over a [`BATCH_LEN`]-wide
//! `div_slice`) shapes, min-of-k timed via
//! [`measure_ns_min`]. The report carries pinned
//! budgets and pass/fail gates; `bench overhead` exits nonzero when a
//! gate fails, and check.sh runs it so tracing-off staying free is CI-
//! enforced, not aspirational.

use std::hint::black_box;
use std::sync::Arc;

use magicdiv::{PlanCache, UnsignedDivisor};
use magicdiv_trace::{install, FlightRecorder, NullSink, Sink};

use crate::measure_ns_min;

/// Batch shape width: divisions per `div_slice` request.
pub const BATCH_LEN: usize = 1024;

/// Divisors the request stream cycles through: the paper's small
/// mul-shift and add-fixup divisors plus the Fermat factor 641.
const DIVISORS: [u64; 4] = [3, 7, 10, 641];

/// Scalar recorder gate: `recorder` may cost at most this many times
/// the scalar `baseline` kernel (plus [`SCALAR_SLACK_NS`]). With the
/// recorder on, the request's `cache.hit` event is cloned into the
/// ring. Eight runs of the report on a 2-vCPU x86-64 VM measured
/// 40–73×; 150 leaves at least 2× headroom.
pub const RECORDER_SCALAR_FACTOR: f64 = 150.0;

/// Per-division budget for the *batch* path with the recorder installed
/// (nanoseconds): the lookup and its event amortize over [`BATCH_LEN`]
/// divisions, so this must sit within a few ns of the bare kernel.
pub const RECORDER_BATCH_BUDGET_NS: f64 = 25.0;

/// Tracing-off batch gate: `off` may exceed `baseline` by at most this
/// factor (plus [`OFF_BATCH_SLACK_NS`] absolute slack for timer noise).
/// The batch path's entire service overhead — one cache lookup and one
/// disabled `event!` site per 1024 divisions — must stay in the noise.
pub const OFF_BATCH_FACTOR: f64 = 1.5;

/// Absolute slack (ns/division) for the tracing-off batch gate.
pub const OFF_BATCH_SLACK_NS: f64 = 2.0;

/// Tracing-off scalar gate: `off` (one plan-cache hit, one `from_plan`
/// and one division, with no sink installed) may cost at most this many
/// times the scalar `baseline` kernel (plus [`SCALAR_SLACK_NS`]). Eight
/// runs of the report on a 2-vCPU x86-64 VM measured 11–20×; 40 leaves
/// at least 2× headroom.
pub const OFF_SCALAR_FACTOR: f64 = 40.0;

/// Absolute slack (ns/division) for the two scalar ratio gates, for
/// timer noise on a ~2 ns baseline.
pub const SCALAR_SLACK_NS: f64 = 10.0;

/// One measured cell: a tracing configuration × request shape.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Request shape: `"scalar"` or `"batch"`.
    pub shape: &'static str,
    /// Tracing configuration: `baseline`/`off`/`sink`/`recorder`.
    pub mode: &'static str,
    /// Cost per division, nanoseconds (min-of-k).
    pub ns_per_div: f64,
}

/// One budget gate verdict.
#[derive(Debug, Clone)]
pub struct OverheadGate {
    /// Gate name (stable identifier for CI grep).
    pub name: &'static str,
    /// Measured value (ns/division).
    pub measured: f64,
    /// The limit the measurement was held against (ns/division).
    pub limit: f64,
    /// Whether the gate passed.
    pub pass: bool,
}

/// The full self-profile: all rows plus the gate verdicts.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Timing iterations per cell.
    pub iters: u64,
    /// Min-of-k repeats per cell.
    pub repeats: u32,
    /// The measured cells.
    pub rows: Vec<OverheadRow>,
    /// Budget verdicts.
    pub gates: Vec<OverheadGate>,
}

impl OverheadReport {
    /// Whether every budget gate passed.
    pub fn pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// The row for a `(shape, mode)` cell (0.0 if absent; the driver
    /// always emits all eight cells).
    pub fn ns(&self, shape: &str, mode: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.shape == shape && r.mode == mode)
            .map(|r| r.ns_per_div)
            .unwrap_or(0.0)
    }

    /// Renders the report as a JSON document for `results/overhead.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"git_sha\": \"{}\",\n", crate::git_sha()));
        out.push_str(&format!("  \"iters\": {},\n", self.iters));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"batch_len\": {BATCH_LEN},\n"));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"mode\": \"{}\", \"ns_per_div\": {:.4}}}{}\n",
                r.shape,
                r.mode,
                r.ns_per_div,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"gates\": [\n");
        for (i, g) in self.gates.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"measured_ns\": {:.4}, \"limit_ns\": {:.4}, \
                 \"pass\": {}}}{}\n",
                g.name,
                g.measured,
                g.limit,
                g.pass,
                if i + 1 < self.gates.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"pass\": {}\n", self.pass()));
        out.push_str("}\n");
        out
    }
}

/// Measures one tracing configuration: scalar and batch ns/division for
/// the service path, with `sink` (if any) installed for the duration.
fn measure_mode(iters: u64, repeats: u32, sink: Option<Arc<dyn Sink>>) -> (f64, f64) {
    let _guard = sink.map(install);
    let cache = PlanCache::new(64);
    // Warm the cache: every measured lookup is a hit (the service
    // steady state; misses are planning cost, not tracing cost).
    for d in DIVISORS {
        let _ = cache.udiv(d as u128, 64);
    }
    let scalar = measure_ns_min(iters, repeats, |i| {
        let d = DIVISORS[(i % 4) as usize];
        let Ok(plan) = cache.udiv(black_box(d) as u128, 64) else {
            return 0;
        };
        let dv = UnsignedDivisor::<u64>::from_plan(&plan);
        dv.divide(black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    });

    let inputs: Vec<u64> = (0..BATCH_LEN as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut out = vec![0u64; BATCH_LEN];
    let batch_iters = (iters / 64).max(8);
    let batch = measure_ns_min(batch_iters, repeats, |i| {
        let d = DIVISORS[(i % 4) as usize];
        let Ok(plan) = cache.udiv(black_box(d) as u128, 64) else {
            return 0;
        };
        let dv = UnsignedDivisor::<u64>::from_plan(&plan);
        dv.div_slice(black_box(&inputs), &mut out);
        out[0]
    });
    (scalar, batch / BATCH_LEN as f64)
}

/// Measures the bare division kernel (no cache, no instrumentation):
/// the floor every budget is read against.
fn measure_baseline(iters: u64, repeats: u32) -> (f64, f64) {
    let divisors: Vec<UnsignedDivisor<u64>> = DIVISORS
        .iter()
        .filter_map(|&d| UnsignedDivisor::new(d).ok())
        .collect();
    let scalar = measure_ns_min(iters, repeats, |i| {
        let dv = &divisors[(i % 4) as usize];
        dv.divide(black_box(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    });
    let inputs: Vec<u64> = (0..BATCH_LEN as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut out = vec![0u64; BATCH_LEN];
    let batch_iters = (iters / 64).max(8);
    let batch = measure_ns_min(batch_iters, repeats, |i| {
        let dv = &divisors[(i % 4) as usize];
        dv.div_slice(black_box(&inputs), &mut out);
        out[0]
    });
    (scalar, batch / BATCH_LEN as f64)
}

/// Runs the full self-profile: four configurations × two shapes, then
/// applies the pinned budgets.
///
/// Sinks are per-thread, so the cells are measured on a fresh thread:
/// no sink the caller installed (a bin's run-wide `RunLedger` sink, say)
/// leaks into them, and the `off` rows really run with none.
pub fn run_overhead(iters: u64, repeats: u32) -> OverheadReport {
    std::thread::scope(|s| s.spawn(|| measure_report(iters, repeats)).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn measure_report(iters: u64, repeats: u32) -> OverheadReport {
    let mut rows = Vec::new();
    let (scalar, batch) = measure_baseline(iters, repeats);
    rows.push(OverheadRow {
        shape: "scalar",
        mode: "baseline",
        ns_per_div: scalar,
    });
    rows.push(OverheadRow {
        shape: "batch",
        mode: "baseline",
        ns_per_div: batch,
    });
    let modes: [(&'static str, Option<Arc<dyn Sink>>); 3] = [
        ("off", None),
        ("sink", Some(Arc::new(NullSink))),
        (
            "recorder",
            Some(Arc::new(FlightRecorder::with_capacity(256))),
        ),
    ];
    for (mode, sink) in modes {
        let (scalar, batch) = measure_mode(iters, repeats, sink);
        rows.push(OverheadRow {
            shape: "scalar",
            mode,
            ns_per_div: scalar,
        });
        rows.push(OverheadRow {
            shape: "batch",
            mode,
            ns_per_div: batch,
        });
    }

    let report = OverheadReport {
        iters,
        repeats,
        rows,
        gates: Vec::new(),
    };
    let gate = |name, shape, mode, limit| {
        let measured = report.ns(shape, mode);
        OverheadGate {
            name,
            measured,
            limit,
            pass: measured <= limit,
        }
    };
    let baseline_batch = report.ns("batch", "baseline");
    let baseline_scalar = report.ns("scalar", "baseline");
    let gates = vec![
        gate(
            "tracing_off_batch_free",
            "batch",
            "off",
            baseline_batch * OFF_BATCH_FACTOR + OFF_BATCH_SLACK_NS,
        ),
        gate(
            "tracing_off_scalar_ratio",
            "scalar",
            "off",
            baseline_scalar * OFF_SCALAR_FACTOR + SCALAR_SLACK_NS,
        ),
        gate(
            "recorder_scalar_ratio",
            "scalar",
            "recorder",
            baseline_scalar * RECORDER_SCALAR_FACTOR + SCALAR_SLACK_NS,
        ),
        gate(
            "recorder_batch_budget",
            "batch",
            "recorder",
            RECORDER_BATCH_BUDGET_NS,
        ),
    ];
    OverheadReport { gates, ..report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_all_cells_and_gates() {
        // Tiny budget: this validates shape and JSON, not timing.
        let report = run_overhead(64, 2);
        assert_eq!(report.rows.len(), 8);
        for shape in ["scalar", "batch"] {
            for mode in ["baseline", "off", "sink", "recorder"] {
                assert!(
                    report.ns(shape, mode) > 0.0,
                    "missing or zero cell {shape}/{mode}"
                );
            }
        }
        assert_eq!(report.gates.len(), 4);
        let json = report.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"tracing_off_batch_free\""));
        assert!(json.contains("\"recorder_batch_budget\""));
        assert!(!json.contains("NaN"), "{json}");
        crate::json::parse(&json).expect("overhead report parses");
    }

    #[test]
    fn gate_arithmetic_is_consistent() {
        let report = run_overhead(64, 2);
        for g in &report.gates {
            assert_eq!(g.pass, g.measured <= g.limit, "{}", g.name);
        }
        assert_eq!(report.pass(), report.gates.iter().all(|g| g.pass));
    }
}
