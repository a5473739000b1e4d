//! # magicdiv-trace — pipeline-wide tracing, explain-plan and metrics
//!
//! Every stage of the reproduction — strategy selection per Granlund &
//! Montgomery Figs 4.2/5.2/6.1/§9, IR lowering and optimization,
//! assembly/simulated execution, and the bench/verify harnesses — emits
//! structured records through this crate so a run can answer *why* a
//! plan was chosen, *what* each pass did and *where* cycles go.
//!
//! Four pieces:
//!
//! * **Events and spans** ([`Event`], [`span`], [`event!`]) — typed
//!   records with static names and key/value fields, nested by spans;
//! * **Sinks** ([`Sink`]) — [`TextTreeSink`] (human-readable indented
//!   tree, the `magic explain` renderer), [`JsonlSink`] (machine-readable
//!   JSON Lines), [`MetricsSink`] (aggregation into a registry),
//!   [`CaptureSink`] (programmatic inspection in tests), [`NullSink`];
//! * **Metrics** ([`Counter`], [`Histogram`], [`Registry`],
//!   [`MetricsSnapshot`]) — atomic counters and power-of-two histograms
//!   the bench/verify bins serialize into their JSON reports;
//! * **Exposition** ([`render_exposition`]) — the Prometheus-style text
//!   rendering of a registry snapshot served by `magic metrics`.
//!
//! Sinks are installed per-thread ([`with_sink`] / [`install`]); with
//! none installed, [`enabled`] is `false` and instrumentation reduces to
//! one thread-local read, so the batch hot paths cost nothing when
//! tracing is off.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use magicdiv_trace::{span, with_sink, TextTreeSink};
//!
//! let sink = Arc::new(TextTreeSink::new());
//! with_sink(sink.clone(), || {
//!     let _plan = span("plan.udiv");
//!     magicdiv_trace::event!("plan.decision",
//!         "strategy" => "mul_shift", "paper" => "Fig 4.2");
//! });
//! let tree = sink.finish();
//! assert!(tree.contains("plan.udiv\n  plan.decision"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod expo;
mod metrics;
mod sink;

pub use crate::event::{json_string, Event, Field, Value};
pub use crate::expo::{render_exposition, ExpositionOptions};
pub use crate::metrics::{
    BucketCount, Counter, Histogram, HistogramSnapshot, MetricsSink, MetricsSnapshot, Registry,
    DEFAULT_REGISTRY_CAPACITY,
};
pub use crate::sink::{
    emit, enabled, install, span, with_sink, CaptureSink, InstallGuard, JsonlSink, NullSink, Sink,
    SpanGuard, TextTreeSink,
};
