//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! [`render_exposition`] turns the registry's counters and histograms
//! into the classic scrape format: `# TYPE` comment lines, one sample
//! per line, names sanitized to `[a-zA-Z0-9_]` under a common prefix,
//! and a **stable sort** so two snapshots of the same run diff cleanly
//! (`drift` consumes exactly this property).
//!
//! Divisor-keyed series are the cardinality hazard: a zipf stream of
//! divisors can mint one metric name per divisor. Names whose last
//! dot-segment is numeric (`service.requests.d.7`) are folded into one
//! metric family with a `d="7"` label; each family keeps at most
//! [`ExpositionOptions::max_label_card`] smallest keys and merges the
//! remainder into an explicit `d="other"` bucket, so the exposition
//! stays bounded no matter what the divisor stream looked like.
//!
//! # Examples
//!
//! ```
//! use magicdiv_trace::{render_exposition, ExpositionOptions, Registry};
//!
//! let reg = Registry::new();
//! reg.counter("cache.hit").add(3);
//! reg.counter("service.requests.d.7").add(2);
//! let text = render_exposition(&reg.snapshot(), &ExpositionOptions::default());
//! assert!(text.contains("# TYPE magicdiv_cache_hit counter"));
//! assert!(text.contains("magicdiv_cache_hit 3"));
//! assert!(text.contains("magicdiv_service_requests_d{d=\"7\"} 2"));
//! ```

use std::collections::BTreeMap;

use crate::metrics::{BucketCount, HistogramSnapshot, MetricsSnapshot};

/// Rendering knobs for [`render_exposition`].
#[derive(Debug, Clone)]
pub struct ExpositionOptions {
    /// Prefix prepended (with `_`) to every metric name.
    pub prefix: &'static str,
    /// Maximum numeric-label keys kept per family before folding the
    /// rest into the `d="other"` bucket.
    pub max_label_card: usize,
}

impl Default for ExpositionOptions {
    fn default() -> Self {
        ExpositionOptions {
            prefix: "magicdiv",
            max_label_card: 8,
        }
    }
}

/// Sanitizes a dotted metric name into `[a-zA-Z0-9_]` under `prefix`.
fn sanitize(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + 1 + name.len());
    if !prefix.is_empty() {
        out.push_str(prefix);
        out.push('_');
    }
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Splits `a.b.7` into `("a.b", Some(7))`; names without an all-digit
/// last segment stay whole.
fn split_numeric_suffix(name: &str) -> (&str, Option<u128>) {
    if let Some((family, last)) = name.rsplit_once('.') {
        if !last.is_empty() && last.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = last.parse::<u128>() {
                return (family, Some(v));
            }
        }
    }
    (name, None)
}

/// A counter family: an optional unlabeled sample plus labeled keys.
#[derive(Default)]
struct CounterFamily {
    plain: Option<u64>,
    labeled: BTreeMap<u128, u64>,
}

/// A histogram family, same shape.
#[derive(Default)]
struct HistogramFamily {
    plain: Option<HistogramSnapshot>,
    labeled: BTreeMap<u128, HistogramSnapshot>,
}

/// Merges `b` into `a` bucket-wise (used for the `other` fold).
fn merge_histograms(a: &mut HistogramSnapshot, b: &HistogramSnapshot) {
    if b.count == 0 {
        return;
    }
    if a.count == 0 {
        *a = b.clone();
        return;
    }
    let mut buckets: BTreeMap<u64, u64> = a.buckets.iter().map(|b| (b.le, b.count)).collect();
    for bc in &b.buckets {
        *buckets.entry(bc.le).or_insert(0) += bc.count;
    }
    a.count += b.count;
    a.sum += b.sum;
    a.min = a.min.min(b.min);
    a.max = a.max.max(b.max);
    a.buckets = buckets
        .into_iter()
        .map(|(le, count)| BucketCount { le, count })
        .collect();
}

/// Splits a labeled map into (kept keys, merged-other), keeping the
/// `max_label_card` smallest keys.
fn bound_labels<V: Clone>(
    labeled: &BTreeMap<u128, V>,
    max_card: usize,
) -> (Vec<(u128, V)>, Vec<V>) {
    let kept: Vec<(u128, V)> = labeled
        .iter()
        .take(max_card)
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    let rest: Vec<V> = labeled
        .iter()
        .skip(max_card)
        .map(|(_, v)| v.clone())
        .collect();
    (kept, rest)
}

/// Writes one histogram's sample lines (`_bucket`/`_sum`/`_count`).
fn render_histogram_samples(
    out: &mut String,
    name: &str,
    label: Option<&str>,
    snap: &HistogramSnapshot,
) {
    let label_prefix = |le: &str| match label {
        Some(l) => format!("{{d=\"{l}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let plain_suffix = match label {
        Some(l) => format!("{{d=\"{l}\"}}"),
        None => String::new(),
    };
    let mut cum = 0u64;
    for b in &snap.buckets {
        cum += b.count;
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_prefix(&b.le.to_string())
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        label_prefix("+Inf"),
        snap.count
    ));
    out.push_str(&format!("{name}_sum{plain_suffix} {}\n", snap.sum));
    out.push_str(&format!("{name}_count{plain_suffix} {}\n", snap.count));
}

/// Renders `snap` in the Prometheus text format. Deterministic for a
/// given snapshot: families and label keys are emitted in sorted order
/// and label cardinality is bounded by
/// [`ExpositionOptions::max_label_card`].
pub fn render_exposition(snap: &MetricsSnapshot, opts: &ExpositionOptions) -> String {
    let mut counters: BTreeMap<String, CounterFamily> = BTreeMap::new();
    for (name, value) in &snap.counters {
        let (family, key) = split_numeric_suffix(name);
        let fam = counters.entry(sanitize(opts.prefix, family)).or_default();
        match key {
            Some(k) => {
                *fam.labeled.entry(k).or_insert(0) += value;
            }
            None => fam.plain = Some(fam.plain.unwrap_or(0) + value),
        }
    }
    let mut histograms: BTreeMap<String, HistogramFamily> = BTreeMap::new();
    for (name, value) in &snap.histograms {
        let (family, key) = split_numeric_suffix(name);
        let fam = histograms.entry(sanitize(opts.prefix, family)).or_default();
        match key {
            Some(k) => {
                merge_histograms(fam.labeled.entry(k).or_default(), value);
            }
            None => {
                let slot = fam.plain.get_or_insert_with(HistogramSnapshot::default);
                merge_histograms(slot, value);
            }
        }
    }

    let mut out = String::new();
    for (name, fam) in &counters {
        out.push_str(&format!("# TYPE {name} counter\n"));
        if let Some(v) = fam.plain {
            out.push_str(&format!("{name} {v}\n"));
        }
        if !fam.labeled.is_empty() {
            let (kept, rest) = bound_labels(&fam.labeled, opts.max_label_card);
            for (k, v) in kept {
                out.push_str(&format!("{name}{{d=\"{k}\"}} {v}\n"));
            }
            let other: u64 = rest.into_iter().sum();
            out.push_str(&format!("{name}{{d=\"other\"}} {other}\n"));
        }
    }
    for (name, fam) in &histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        if let Some(snap) = &fam.plain {
            render_histogram_samples(&mut out, name, None, snap);
        }
        if !fam.labeled.is_empty() {
            let (kept, rest) = bound_labels(&fam.labeled, opts.max_label_card);
            for (k, snap) in &kept {
                render_histogram_samples(&mut out, name, Some(&k.to_string()), snap);
            }
            let mut other = HistogramSnapshot::default();
            for snap in &rest {
                merge_histograms(&mut other, snap);
            }
            render_histogram_samples(&mut out, name, Some("other"), &other);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn numeric_suffix_becomes_a_label() {
        assert_eq!(split_numeric_suffix("a.b.7"), ("a.b", Some(7)));
        assert_eq!(split_numeric_suffix("a.b.d"), ("a.b.d", None));
        assert_eq!(split_numeric_suffix("plain"), ("plain", None));
        assert_eq!(split_numeric_suffix("x.007"), ("x", Some(7)));
    }

    #[test]
    fn exposition_is_sorted_and_prefixed() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(5);
        reg.histogram("guard.probe.witnesses").observe(3);
        let text = render_exposition(&reg.snapshot(), &ExpositionOptions::default());
        let a = text.find("magicdiv_a_first 5").expect("a.first");
        let z = text.find("magicdiv_z_last 1").expect("z.last");
        assert!(a < z);
        assert!(text.contains("# TYPE magicdiv_guard_probe_witnesses histogram"));
        assert!(text.contains("magicdiv_guard_probe_witnesses_bucket{le=\"3\"} 1"));
        assert!(text.contains("magicdiv_guard_probe_witnesses_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("magicdiv_guard_probe_witnesses_count 1"));
    }

    #[test]
    fn label_cardinality_is_bounded_with_an_other_bucket() {
        let reg = Registry::new();
        for d in 1..=20u64 {
            reg.counter(&format!("service.requests.d.{d}")).add(d);
        }
        let opts = ExpositionOptions {
            max_label_card: 4,
            ..ExpositionOptions::default()
        };
        let text = render_exposition(&reg.snapshot(), &opts);
        for d in 1..=4u64 {
            assert!(
                text.contains(&format!("magicdiv_service_requests_d{{d=\"{d}\"}} {d}")),
                "{text}"
            );
        }
        assert!(!text.contains("{d=\"5\"}"), "{text}");
        // 5 + 6 + ... + 20 = 200.
        assert!(
            text.contains("magicdiv_service_requests_d{d=\"other\"} 200"),
            "{text}"
        );
    }

    #[test]
    fn labeled_histograms_fold_into_other() {
        let reg = Registry::new();
        for d in 1..=3u64 {
            reg.histogram(&format!("lat.d.{d}")).observe(d);
        }
        let opts = ExpositionOptions {
            max_label_card: 1,
            ..ExpositionOptions::default()
        };
        let text = render_exposition(&reg.snapshot(), &opts);
        assert!(
            text.contains("magicdiv_lat_d_bucket{d=\"1\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(text.contains("magicdiv_lat_d_sum{d=\"other\"} 5"), "{text}");
        assert!(
            text.contains("magicdiv_lat_d_count{d=\"other\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("cycles");
        for v in [1u64, 2, 3, 100] {
            h.observe(v);
        }
        let text = render_exposition(&reg.snapshot(), &ExpositionOptions::default());
        assert!(
            text.contains("magicdiv_cycles_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("magicdiv_cycles_bucket{le=\"3\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("magicdiv_cycles_bucket{le=\"127\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("magicdiv_cycles_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("magicdiv_cycles_sum 106"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let text = render_exposition(&MetricsSnapshot::default(), &ExpositionOptions::default());
        assert!(text.is_empty());
    }
}
