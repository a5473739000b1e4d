//! The benchmark's own timing: windows timed with `Instant`, spans kept
//! in memory at each layer boundary, and the harness floor: the timer
//! cost, which every window and span is reported net of, and the cost
//! of the empty closed loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::rng::Rng;

/// The layers spans are recorded at, named after the modules they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One request (service, churn), round (batch) or cell (compile).
    Request,
    CacheHit,
    CacheMiss,
    Checksum,
    PlanBuild,
    FromPlan,
    KernelOp,
    GuardConstruct,
    GuardOps,
    DivSliceU32,
    DivSliceU64,
    DivRemSliceU64,
    RemSliceU32,
    DivSliceI64,
    Radix,
    Hashing,
    Calendar,
    Histogram,
    CountDivisible,
    Bignum,
    Graphics,
    Baseline,
    TournamentUdiv,
    TournamentUrem,
    IrLowerOpt,
    CodegenEmit,
    SimcpuPrice,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::CacheHit => "cache.hit",
            Layer::CacheMiss => "cache.miss",
            Layer::Checksum => "cache.checksum",
            Layer::PlanBuild => "plan.build",
            Layer::FromPlan => "kernel.from_plan",
            Layer::KernelOp => "kernel.op",
            Layer::GuardConstruct => "guard.construct",
            Layer::GuardOps => "guard.op",
            Layer::DivSliceU32 => "kernel.div_slice_u32",
            Layer::DivSliceU64 => "kernel.div_slice_u64",
            Layer::DivRemSliceU64 => "kernel.div_rem_slice_u64",
            Layer::RemSliceU32 => "kernel.rem_slice_u32",
            Layer::DivSliceI64 => "kernel.div_slice_i64",
            Layer::Radix => "workloads.radix",
            Layer::Hashing => "workloads.hashing",
            Layer::Calendar => "workloads.calendar",
            Layer::Histogram => "workloads.histogram",
            Layer::CountDivisible => "workloads.count_divisible",
            Layer::Bignum => "workloads.bignum",
            Layer::Graphics => "workloads.graphics",
            Layer::Baseline => "baseline.hw",
            Layer::TournamentUdiv => "tournament.udiv",
            Layer::TournamentUrem => "tournament.urem",
            Layer::IrLowerOpt => "ir.lower_opt",
            Layer::CodegenEmit => "codegen.emit",
            Layer::SimcpuPrice => "simcpu.price",
        }
    }
}

/// Where a workload marks layer boundaries. [`Off`] compiles every hook
/// away, so untraced runs execute exactly the library calls and nothing
/// else; [`Recorder`] timestamps them.
///
/// Inside an op the recorder is a stopwatch: `begin` opens a span, each
/// `lap` closes the interval since the last stamp as a child span of one
/// layer, `skip` closes it as harness time (the parent's self time), and
/// `end` closes the span. Adjacent layers share one stamp, so a layer
/// boundary costs one `Instant::now()`.
pub trait Probe {
    const ON: bool;
    /// Start of op `id` (a request, round or cell).
    fn op(&mut self, _id: u64) {}
    /// Whether this op's spans are kept (sampling).
    fn sampled(&self) -> bool {
        false
    }
    /// Opens a span doing `units` items of work.
    fn begin(&mut self, _layer: Layer, _units: u32) {}
    /// Records the time since the last stamp as `layer`.
    fn lap(&mut self, _layer: Layer, _units: u32) {}
    /// Leaves the time since the last stamp to the open span.
    fn skip(&mut self) {}
    fn end(&mut self) {}
    /// Renames the span recorded last (a lookup found to be a miss).
    fn relabel(&mut self, _layer: Layer) {}
}

pub struct Off;

impl Probe for Off {
    const ON: bool = false;
}

/// Counts ops and nothing else (sizes the trace sample stride).
pub struct CountOps(pub u64);

impl Probe for CountOps {
    const ON: bool = false;
    fn op(&mut self, _id: u64) {
        self.0 += 1;
    }
}

/// Runs `f` and records the time since the previous stamp as `layer`.
#[inline(always)]
pub fn lap<P: Probe, R>(p: &mut P, layer: Layer, f: impl FnOnce() -> R) -> R {
    lap_n(p, layer, 1, f)
}

#[inline(always)]
pub fn lap_n<P: Probe, R>(p: &mut P, layer: Layer, units: u32, f: impl FnOnce() -> R) -> R {
    let r = f();
    p.lap(layer, units);
    r
}

/// Runs `f` in a span of its own.
#[inline(always)]
pub fn span<P: Probe, R>(p: &mut P, layer: Layer, units: u32, f: impl FnOnce() -> R) -> R {
    p.begin(layer, units);
    let r = f();
    p.end();
    r
}

pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are ns since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub units: u32,
    pub parent: u32,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    /// Stamps taken inside the span, its own end included: each adds one
    /// timer interval to the raw duration.
    pub stamps: u32,
}

/// Keeps the spans of every `stride`-th op, up to `cap` spans. Ops that
/// are not kept still take their timestamps, so every op in a traced
/// phase pays the same tracing cost.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_stamp: u64,
    last_span: u32,
    op: u64,
    keep: bool,
    stride: u64,
    cap: usize,
}

/// Spans one op may add after the sampling decision (a batch round has
/// the most, about 20).
const OP_SPAN_HEADROOM: usize = 64;

impl Recorder {
    pub fn new(stride: u64, cap: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap + OP_SPAN_HEADROOM),
            open: Vec::with_capacity(16),
            last_stamp: 0,
            last_span: NO_PARENT,
            op: 0,
            keep: false,
            stride: stride.max(1),
            cap,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes a stamp, charging it to every open span.
    #[inline(always)]
    fn stamp(&mut self) -> u64 {
        let t = self.origin.elapsed().as_nanos() as u64;
        for &i in &self.open {
            if i != NO_PARENT {
                self.spans[i as usize].stamps += 1;
            }
        }
        self.last_stamp = t;
        t
    }

    fn push(&mut self, layer: Layer, units: u32, start: u64) -> u32 {
        let i = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            units,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            start,
            end: start,
            stamps: 0,
        });
        i
    }
}

impl Probe for Recorder {
    const ON: bool = true;

    fn op(&mut self, id: u64) {
        self.op = id;
        self.keep = id % self.stride == 0 && self.spans.len() < self.cap;
    }

    fn sampled(&self) -> bool {
        self.keep
    }

    #[inline(always)]
    fn begin(&mut self, layer: Layer, units: u32) {
        let t = self.stamp();
        let i = if self.keep {
            self.push(layer, units, t)
        } else {
            NO_PARENT
        };
        self.open.push(i);
    }

    #[inline(always)]
    fn lap(&mut self, layer: Layer, units: u32) {
        let start = self.last_stamp;
        let t = self.stamp();
        if self.keep {
            self.last_span = self.push(layer, units, start);
            let s = &mut self.spans[self.last_span as usize];
            s.end = t;
            s.stamps = 1;
        }
    }

    #[inline(always)]
    fn skip(&mut self) {
        self.stamp();
    }

    #[inline(always)]
    fn end(&mut self) {
        let t = self.stamp();
        let i = self.open.pop().unwrap_or(NO_PARENT);
        if i != NO_PARENT {
            self.spans[i as usize].end = t;
            self.last_span = i;
        }
    }

    fn relabel(&mut self, layer: Layer) {
        if self.keep && self.last_span != NO_PARENT {
            self.spans[self.last_span as usize].layer = layer;
        }
    }
}

/// Per-span durations net of the harness (`timer_ns` per stamp taken
/// inside the span), and self time: the net duration minus the
/// children's net durations.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    pub net: Vec<f64>,
    pub self_ns: Vec<f64>,
}

pub fn analyze(spans: &[Span], timer_ns: f64) -> Analysis {
    let net: Vec<f64> = spans
        .iter()
        .map(|s| {
            let raw = s.end.saturating_sub(s.start) as f64;
            (raw - f64::from(s.stamps) * timer_ns).max(0.0)
        })
        .collect();
    let mut children = vec![0.0; spans.len()];
    for (s, &t) in spans.iter().zip(&net) {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += t;
        }
    }
    let self_ns = net
        .iter()
        .zip(&children)
        .map(|(t, c)| (t - c).max(0.0))
        .collect();
    Analysis { net, self_ns }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted data;
/// 0 for no data.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A benchmark workload: inputs fixed at set-up from the seed, then run
/// window by window, each window checked against an oracle off the clock.
pub trait Workload: Sized {
    /// Upper bound on spans one op records when traced.
    const SPANS_PER_OP: u64;
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs one window; returns the ops it did.
    fn window<P: Probe>(&mut self, p: &mut P) -> u64;
    /// Checks the window just run against an independent oracle. The
    /// error names the op and its inputs.
    fn check<P: Probe>(&mut self, p: &mut P) -> Result<(), String>;
    /// Typed faults so far.
    fn faults(&self) -> u64;
    /// Starts the counters [`Workload::counters`] reports.
    fn begin_counters(&mut self);
    /// Per-layer counts since [`Workload::begin_counters`].
    fn counters(&self) -> Vec<(&'static str, f64)>;
    /// Digest of the generated op stream (printed as `stream`).
    fn fingerprint(&self) -> u64;
}

#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    #[cfg_attr(not(test), allow(dead_code))]
    Windows(u64),
}

/// A phase is cut into this many equal time slices.
const SLICES: u32 = 40;
/// Per-window samples kept for the phase-wide tail percentile.
const RESERVOIR: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct Slice {
    p50: f64,
    ops: u64,
    ns: f64,
    windows: usize,
}

/// What one phase measured, in memory that does not grow with the
/// phase (so `peak_rss_mb` does not depend on how fast it ran).
///
/// Other tenants of a shared host slow the machine for seconds at a
/// time, by up to ~40% on the reference machine. Only noise adds time,
/// so the typical cost is taken from the least disturbed slice: the
/// median window of the fastest slice, and the throughput of the
/// fastest slice. The tail is the phase-wide 99th percentile of
/// windows, from a uniform sample of them.
#[derive(Debug, Clone)]
pub struct Phase {
    slices: Vec<Slice>,
    open: Vec<f64>,
    open_slice: u32,
    open_ops: u64,
    open_ns: f64,
    sample: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            slices: Vec::with_capacity(SLICES as usize + 1),
            open: Vec::new(),
            open_slice: 0,
            open_ops: 0,
            open_ns: 0.0,
            sample: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Rng::new(0x5eed),
        }
    }
}

impl Phase {
    /// Adds one window: its ns net of the timer, its ops, and the slice
    /// it finished in.
    pub fn push(&mut self, slice: u32, ns: f64, ops: u64) {
        if slice != self.open_slice {
            self.close_slice();
            self.open_slice = slice;
        }
        let per_op = ns / ops.max(1) as f64;
        self.open.push(per_op);
        self.open_ops += ops;
        self.open_ns += ns;
        if self.sample.len() < RESERVOIR {
            self.sample.push(per_op);
        } else {
            let j = self.rng.below(self.seen + 1) as usize;
            if j < RESERVOIR {
                self.sample[j] = per_op;
            }
        }
        self.seen += 1;
    }

    fn close_slice(&mut self) {
        if self.open.is_empty() {
            return;
        }
        self.slices.push(Slice {
            p50: percentile(&self.open, 0.5),
            ops: self.open_ops,
            ns: self.open_ns,
            windows: self.open.len(),
        });
        self.open.clear();
        self.open_ops = 0;
        self.open_ns = 0.0;
    }

    fn finish(mut self) -> Self {
        self.close_slice();
        self
    }

    pub fn windows(&self) -> u64 {
        self.seen
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum::<u64>() + self.open_ops
    }

    /// The slices, less any holding under a quarter of the median
    /// slice's windows (the ragged end of the phase).
    fn full_slices(&self) -> impl Iterator<Item = &Slice> {
        let counts: Vec<f64> = self.slices.iter().map(|s| s.windows as f64).collect();
        let floor = percentile(&counts, 0.5) / 4.0;
        self.slices
            .iter()
            .filter(move |s| s.windows as f64 >= floor)
    }

    /// Median per-window ns/op of the fastest slice.
    pub fn p50(&self) -> f64 {
        self.full_slices()
            .map(|s| s.p50)
            .fold(f64::INFINITY, f64::min)
    }

    /// 99th percentile of per-window ns/op over the whole phase.
    pub fn p99(&self) -> f64 {
        percentile(&self.sample, 0.99)
    }

    /// Ops per second of on-clock time in the fastest slice.
    pub fn ops_per_s(&self) -> f64 {
        self.full_slices()
            .filter(|s| s.ns > 0.0)
            .map(|s| s.ops as f64 * 1e9 / s.ns)
            .fold(0.0, f64::max)
    }
}

/// The closed loop: one window at a time, timed, then checked.
/// `between_slices` runs off the clock whenever a new slice starts.
pub fn run_phase<W: Workload, P: Probe>(
    w: &mut W,
    p: &mut P,
    until: Until,
    timer_ns: f64,
    mut between_slices: impl FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut last_slice = 0;
    loop {
        let slice = match until {
            Until::Elapsed(d) => {
                let at = start.elapsed();
                if at >= d {
                    return Ok(phase.finish());
                }
                (at.as_secs_f64() / d.as_secs_f64() * f64::from(SLICES)) as u32
            }
            Until::Windows(n) => {
                if phase.windows() >= n {
                    return Ok(phase.finish());
                }
                (phase.windows() * u64::from(SLICES) / n.max(1)) as u32
            }
        };
        if slice != last_slice {
            between_slices()?;
            last_slice = slice;
        }
        let t0 = Instant::now();
        let ops = w.window(p);
        let dt = t0.elapsed().as_nanos() as f64;
        w.check(p)?;
        phase.push(slice, (dt - timer_ns).max(0.0), ops);
    }
}

/// Median cost of back-to-back `Instant::now()` calls: the interval one
/// timestamp adds to whatever it brackets.
pub fn timer_floor_ns() -> f64 {
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    percentile(&samples, 0.5)
}

/// One stamp's cost as the traced phase pays it: the median duration of
/// an empty lap, measured with the phase's sample stride (so with the
/// same branch and cache behaviour).
pub fn stamp_floor_ns(stride: u64) -> f64 {
    const KEPT: u64 = 8192;
    let mut r = Recorder::new(stride, 3 * KEPT as usize);
    for id in 0..KEPT * stride {
        r.op(id);
        r.begin(Layer::Request, 1);
        r.lap(Layer::KernelOp, 1);
        r.lap(Layer::KernelOp, 1);
        r.end();
    }
    let laps: Vec<f64> = r
        .spans()
        .iter()
        .filter(|s| s.layer == Layer::KernelOp)
        .map(|s| (s.end - s.start) as f64)
        .collect();
    percentile(&laps, 0.5)
}

/// A workload whose request does nothing: prices the closed loop itself.
pub struct Noop {
    out: Vec<u64>,
    next: u64,
}

const NOOP_WINDOW: usize = 1024;

impl Workload for Noop {
    const SPANS_PER_OP: u64 = 0;

    fn setup(_seed: u64) -> Result<Self, String> {
        Ok(Noop {
            out: vec![0; NOOP_WINDOW],
            next: 0,
        })
    }

    fn window<P: Probe>(&mut self, p: &mut P) -> u64 {
        for o in &mut self.out {
            p.op(self.next);
            *o = black_box(self.next);
            self.next += 1;
        }
        NOOP_WINDOW as u64
    }

    fn check<P: Probe>(&mut self, _p: &mut P) -> Result<(), String> {
        Ok(())
    }

    fn faults(&self) -> u64 {
        0
    }

    fn begin_counters(&mut self) {}

    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn fingerprint(&self) -> u64 {
        0
    }
}

/// Median ns per no-op request through [`run_phase`].
pub fn loop_floor_ns(timer_ns: f64) -> Result<f64, String> {
    let mut w = Noop::setup(0)?;
    let phase = run_phase(
        &mut w,
        &mut Off,
        Until::Elapsed(Duration::from_millis(50)),
        timer_ns,
        || Ok(()),
    )?;
    Ok(phase.p50())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(layer: Layer, parent: u32, start: u64, end: u64, stamps: u32) -> Span {
        Span {
            layer,
            units: 1,
            parent,
            op: 0,
            start,
            end,
            stamps,
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_stamps() {
        // A request [0, 100) laps a over [0, 30), skips to 40, then
        // holds span b [40, 90) which laps c over [40, 60). The request
        // saw six stamps (lap, skip, b's begin, c's lap, b's end, its
        // own end), b two, each lap one. With 2 ns stamps: c nets 18, b
        // 46, a 28, the request 88, leaving it 14 of self time.
        let spans = [
            mk(Layer::Request, NO_PARENT, 0, 100, 6),
            mk(Layer::CacheHit, 0, 0, 30, 1),
            mk(Layer::GuardOps, 0, 40, 90, 2),
            mk(Layer::KernelOp, 2, 40, 60, 1),
        ];
        let a = analyze(&spans, 2.0);
        assert_eq!(a.net, vec![88.0, 28.0, 46.0, 18.0]);
        assert_eq!(a.self_ns, vec![14.0, 28.0, 28.0, 18.0]);
        // A zero floor leaves raw durations.
        let raw = analyze(&spans, 0.0);
        assert_eq!(raw.net, vec![100.0, 30.0, 50.0, 20.0]);
        assert_eq!(raw.self_ns, vec![20.0, 30.0, 30.0, 20.0]);
    }

    #[test]
    fn recorder_samples_whole_ops_and_counts_stamps() {
        let mut r = Recorder::new(2, 1000);
        for id in 0..4 {
            r.op(id);
            r.begin(Layer::Request, 1);
            lap(&mut r, Layer::CacheHit, || ());
            r.relabel(Layer::CacheMiss);
            r.skip();
            span(&mut r, Layer::Checksum, 1, || ());
            r.end();
        }
        let s = r.spans();
        assert_eq!(s.len(), 6, "ops 0 and 2 kept, three spans each");
        let layers: Vec<Layer> = s[..3].iter().map(|x| x.layer).collect();
        assert_eq!(layers, [Layer::Request, Layer::CacheMiss, Layer::Checksum]);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert_eq!((s[0].stamps, s[1].stamps, s[2].stamps), (5, 1, 1));
        assert_eq!(s[1].start, s[0].start, "the first lap starts with its op");
        assert_eq!((s[3].op, s[4].parent), (2, 3));
        assert!(s.iter().all(|x| x.end >= x.start));
    }

    #[test]
    fn phase_statistics_come_from_the_fastest_slice() {
        // Six slices of ten 1-op windows: slice k runs at 100 + k ns per
        // op with one 500 ns straggler, except slices 4 and 5, disturbed,
        // at 1000 ns.
        let mut phase = Phase::default();
        for slice in 0..6u32 {
            let ns = if slice >= 4 {
                1000.0
            } else {
                100.0 + f64::from(slice)
            };
            for i in 0..10 {
                phase.push(slice, if i == 0 { 500.0 } else { ns }, 1);
            }
        }
        // A ragged final slice with one fast window is left out.
        phase.push(6, 1.0, 1);
        let phase = phase.finish();
        assert_eq!(phase.p50(), 100.0);
        assert_eq!((phase.windows(), phase.ops()), (61, 61));
        let ops = phase.ops_per_s();
        assert!((ops - 1e9 / 140.0).abs() < 1e-3, "{ops}");
        // 18 of 61 windows take 1000 ns: the tail is disturbed time.
        assert_eq!(phase.p99(), 1000.0);
    }

    #[test]
    fn floors_are_positive() {
        assert!(timer_floor_ns() > 0.0);
        assert!(stamp_floor_ns(7) > 0.0);
    }
}
