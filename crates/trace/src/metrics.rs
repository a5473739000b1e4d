//! Atomic counters and power-of-two histograms, with a registry and a
//! [`Sink`](crate::Sink) that aggregates the event stream into them.
//!
//! Counters and histograms are lock-free once created (plain atomics);
//! the registry itself takes a mutex only on first registration of a
//! name. A [`MetricsSnapshot`] is an ordinary sortable value the bins
//! serialize into their JSON reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{json_string, Event, Value};
use crate::sink::Sink;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    n: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.n.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: values land in bucket `⌈log2(v+1)⌉`, so
/// bucket 0 holds 0, bucket 1 holds 1, bucket k holds `2^(k-1)+1 ..= 2^k`.
const BUCKETS: usize = 65;

/// A histogram over `u64` observations with power-of-two buckets, plus
/// exact count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index for an observation.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some(BucketCount {
                        le: if i == 0 { 0 } else { ((1u128 << i) - 1) as u64 },
                        count: n,
                    })
                })
                .collect(),
        }
    }
}

/// One non-empty histogram bucket: `count` observations `<= le` (and
/// greater than the previous bucket's `le`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket (`2^k - 1`).
    pub le: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// The non-empty buckets, in increasing order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.try_mean().unwrap_or(0.0)
    }

    /// Mean observation, or `None` for the empty histogram — the
    /// non-lossy form for callers that must distinguish "no data" from
    /// "observed zeros" without a NaN ever reaching a report.
    pub fn try_mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Estimated value at quantile `q` (clamped to `0.0..=1.0`),
    /// interpolated linearly *within* the power-of-two bucket that
    /// contains the target rank and clamped to the exact observed
    /// `[min, max]`. Returns 0.0 for an empty histogram.
    ///
    /// The buckets only record that an observation fell in
    /// `(prev_le, le]`, so the estimate assumes a uniform spread inside
    /// the bucket — exact for counts that land on bucket boundaries,
    /// and never off by more than one bucket span otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use magicdiv_trace::Histogram;
    ///
    /// let h = Histogram::new();
    /// for v in 1..=1000u64 {
    ///     h.observe(v);
    /// }
    /// let s = h.snapshot();
    /// let p50 = s.quantile(0.5);
    /// assert!((400.0..=600.0).contains(&p50), "p50 = {p50}");
    /// assert_eq!(s.quantile(1.0), 1000.0);
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // NaN would sail through `clamp` (which propagates it) and turn
        // every comparison below false; pin it to the 0th quantile so a
        // bad caller gets a deterministic finite answer.
        let q = if q.is_nan() { 0.0 } else { q };
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        let mut prev_le = 0u64;
        for b in &self.buckets {
            let upper = cum + b.count;
            if (upper as f64) >= target {
                let frac = if b.count == 0 {
                    0.0
                } else {
                    (target - cum as f64) / b.count as f64
                };
                let lo = prev_le as f64;
                let hi = b.le as f64;
                let est = lo + frac.clamp(0.0, 1.0) * (hi - lo);
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum = upper;
            prev_le = b.le;
        }
        self.max as f64
    }

    /// Renders as a JSON object (with interpolated p50/p90/p99).
    /// Non-finite statistics (which no current path can produce, but
    /// which would be invalid JSON) render as `null` rather than `NaN`.
    pub fn to_json(&self) -> String {
        fn finite(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".to_string()
            }
        }
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .map(|b| format!("[{},{}]", b.le, b.count))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            finite(self.mean()),
            finite(self.quantile(0.50)),
            finite(self.quantile(0.90)),
            finite(self.quantile(0.99)),
            buckets.join(",")
        )
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Default cap on distinct counter names (and, separately, histogram
/// names) a [`Registry`] will register. Registrations past the cap are
/// counted by `registry.overflow` and absorbed by the shared
/// `registry.other` series, so a zipf divisor stream minting one name
/// per divisor cannot grow the registry without bound.
pub const DEFAULT_REGISTRY_CAPACITY: usize = 512;

/// A named collection of counters and histograms.
///
/// Cardinality is bounded: at most `capacity` distinct counter names
/// and `capacity` distinct histogram names are registered (default
/// [`DEFAULT_REGISTRY_CAPACITY`]). A lookup of a *new* name past the
/// cap increments the `registry.overflow` counter and returns the
/// shared `registry.other` sink metric instead — callers keep working,
/// updates keep being counted, memory stays fixed.
///
/// # Examples
///
/// ```
/// use magicdiv_trace::Registry;
///
/// let reg = Registry::new();
/// reg.counter("plans").inc();
/// reg.histogram("cycles").observe(9);
/// reg.histogram("cycles").observe(5);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters["plans"], 1);
/// assert_eq!(snap.histograms["cycles"].count, 2);
/// assert_eq!(snap.histograms["cycles"].sum, 14);
/// ```
pub struct Registry {
    inner: Mutex<RegistryInner>,
    capacity: usize,
    overflow: Arc<Counter>,
    other_counter: Arc<Counter>,
    other_histogram: Arc<Histogram>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_REGISTRY_CAPACITY)
    }
}

impl Registry {
    /// An empty registry with the default cardinality cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry capped at `capacity` distinct names per metric
    /// kind (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Registry {
            inner: Mutex::new(RegistryInner::default()),
            capacity: capacity.max(1),
            overflow: Arc::new(Counter::new()),
            other_counter: Arc::new(Counter::new()),
            other_histogram: Arc::new(Histogram::new()),
        }
    }

    /// New-name registrations rejected by the cardinality cap so far.
    pub fn overflow(&self) -> u64 {
        self.overflow.get()
    }

    /// The counter named `name`, created on first use. Past the
    /// cardinality cap, new names share the `registry.other` counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        if inner.counters.len() >= self.capacity {
            self.overflow.inc();
            return self.other_counter.clone();
        }
        let c = Arc::new(Counter::new());
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// The histogram named `name`, created on first use. Past the
    /// cardinality cap, new names share the `registry.other` histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        if inner.histograms.len() >= self.capacity {
            self.overflow.inc();
            return self.other_histogram.clone();
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// A point-in-time copy of every metric. When the cardinality cap
    /// was hit, the snapshot carries `registry.overflow` (rejected
    /// registrations) and the merged `registry.other` series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut counters: BTreeMap<String, u64> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let overflow = self.overflow.get();
        if overflow > 0 {
            counters.insert("registry.overflow".to_string(), overflow);
            let other = self.other_counter.get();
            if other > 0 {
                counters.insert("registry.other".to_string(), other);
            }
            let other_hist = self.other_histogram.snapshot();
            if other_hist.count > 0 {
                histograms.insert("registry.other".to_string(), other_hist);
            }
        }
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders as a JSON object `{"counters":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), v.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            histograms.join(",")
        )
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k}: n={} sum={} min={} max={} mean={:.2} p50={:.1} p90={:.1} p99={:.1}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            )?;
        }
        Ok(())
    }
}

/// A sink that aggregates the event stream into a [`Registry`]: every
/// event increments counter `events.<name>`, and every integer field
/// feeds histogram `<name>.<key>`.
pub struct MetricsSink {
    registry: Arc<Registry>,
}

impl MetricsSink {
    /// Aggregates into `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        MetricsSink { registry }
    }

    /// The registry this sink feeds.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Sink for MetricsSink {
    fn event(&self, _depth: u32, event: &Event) {
        self.registry
            .counter(&format!("events.{}", event.name))
            .inc();
        for f in &event.fields {
            if let Some(v) = match f.value {
                Value::U64(v) => Some(v),
                Value::U128(v) => u64::try_from(v).ok(),
                _ => None,
            } {
                self.registry
                    .histogram(&format!("{}.{}", event.name, f.key))
                    .observe(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::with_sink;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean(), 26.5);
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), 4);
    }

    #[test]
    fn metrics_sink_aggregates_events() {
        let reg = Arc::new(Registry::new());
        with_sink(Arc::new(MetricsSink::new(reg.clone())), || {
            crate::event!("simcpu.plan_cycles", "cycles" => 9u64);
            crate::event!("simcpu.plan_cycles", "cycles" => 5u64);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["events.simcpu.plan_cycles"], 2);
        let h = &snap.histograms["simcpu.plan_cycles.cycles"];
        assert_eq!((h.count, h.sum), (2, 14));
    }

    #[test]
    fn quantiles_of_empty_and_singleton() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        h.observe(42);
        let s = h.snapshot();
        // One observation: every quantile is that observation (clamped
        // to [min, max] = [42, 42]).
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 42.0, "q={q}");
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in 1..=1024u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        // Uniform 1..=1024: the true p50 is 512, exactly a bucket
        // boundary; p90 ≈ 922 sits inside the (512, 1024] bucket where
        // interpolation assumes uniform spread (which it is here).
        assert!(
            (s.quantile(0.5) - 512.0).abs() <= 1.0,
            "{}",
            s.quantile(0.5)
        );
        assert!(
            (s.quantile(0.9) - 921.6).abs() <= 16.0,
            "{}",
            s.quantile(0.9)
        );
        assert_eq!(s.quantile(1.0), 1024.0);
        assert_eq!(s.quantile(0.0), 1.0); // clamped to observed min
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.observe(x % 10_000);
        }
        let s = h.snapshot();
        let qs: Vec<f64> = (0..=20).map(|i| s.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs[0] >= s.min as f64 && qs[20] <= s.max as f64);
    }

    #[test]
    fn snapshot_json_carries_quantiles() {
        let reg = Registry::new();
        reg.histogram("h").observe(7);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"p50\":7.0000"), "{json}");
        assert!(json.contains("\"p99\":7.0000"), "{json}");
        let text = reg.snapshot().to_string();
        assert!(text.contains("p50=7.0"), "{text}");
    }

    #[test]
    fn empty_histogram_stats_stay_finite() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        // NaN q is pinned, not propagated.
        assert_eq!(s.quantile(f64::NAN), 0.0);
        let json = s.to_json();
        assert!(!json.contains("NaN"), "{json}");
        assert!(json.contains("\"mean\":0.0000"), "{json}");
    }

    #[test]
    fn nan_quantile_is_pinned_on_nonempty_histograms() {
        let h = Histogram::new();
        h.observe(42);
        let s = h.snapshot();
        assert_eq!(s.quantile(f64::NAN), 42.0);
        assert_eq!(s.try_mean(), Some(42.0));
    }

    #[test]
    fn registry_cardinality_is_capped_with_overflow_counter() {
        let reg = Registry::with_capacity(4);
        for d in 0..10u64 {
            reg.counter(&format!("req.d.{d}")).add(1 + d);
        }
        // 4 registered, 6 rejected; rejected increments all landed in
        // the shared `registry.other` sink: (1+4)+...+(1+9) = 45.
        assert_eq!(reg.overflow(), 6);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["registry.overflow"], 6);
        assert_eq!(snap.counters["registry.other"], 45);
        assert_eq!(snap.counters["req.d.0"], 1);
        assert!(!snap.counters.contains_key("req.d.7"));
        // Existing names keep resolving to their own counter at the cap.
        reg.counter("req.d.0").inc();
        assert_eq!(reg.snapshot().counters["req.d.0"], 2);
    }

    #[test]
    fn histogram_cardinality_is_capped_too() {
        let reg = Registry::with_capacity(2);
        for d in 0..5u64 {
            reg.histogram(&format!("lat.d.{d}")).observe(d + 1);
        }
        assert_eq!(reg.overflow(), 3);
        let snap = reg.snapshot();
        // Overflowed observations merged: 3 + 4 + 5 = 12.
        assert_eq!(snap.histograms["registry.other"].count, 3);
        assert_eq!(snap.histograms["registry.other"].sum, 12);
        assert_eq!(snap.histograms.len(), 3);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.histogram("h").observe(7);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a\":2"));
        assert!(json.contains("\"buckets\":[[7,1]]"));
    }
}
