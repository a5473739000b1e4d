//! The flight recorder: a fixed-capacity ring of recent trace events
//! with automatic black-box dumps.
//!
//! A [`FlightRecorder`] is an ordinary [`Sink`](crate::Sink): install it
//! next to whatever other sinks a bin uses and it retains the last N
//! events per emitting thread in a preallocated ring (per-thread
//! segments, so writer threads never contend with each other). When an
//! event whose name is in the trigger set arrives — a guard demotion, a
//! cache poisoning, a circuit-breaker trip — the recorder snapshots
//! every segment into a [`BlackboxDump`]: the merged, sequence-ordered
//! tail of what the service was doing right before the fault, ending at
//! the trigger event itself.
//!
//! Writers use `try_lock` on their own segment and drop the record (and
//! count the drop) if a concurrent dump holds it, so the hot path never
//! blocks. With no sink installed at all, instrumentation sites are
//! still gated by [`enabled`](crate::enabled) and the recorder costs
//! nothing.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use magicdiv_trace::{with_sink, FlightRecorder};
//!
//! let rec = Arc::new(FlightRecorder::with_capacity(16));
//! with_sink(rec.clone(), || {
//!     magicdiv_trace::event!("plan.decision", "strategy" => "mul_shift");
//!     magicdiv_trace::event!("guard.demotion", "d" => 7u64, "why" => "probe");
//! });
//! let dumps = rec.take_dumps();
//! assert_eq!(dumps.len(), 1);
//! assert_eq!(dumps[0].trigger, "guard.demotion");
//! assert_eq!(dumps[0].events.last().unwrap().event.name, "guard.demotion");
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError, Weak};

use crate::event::{json_string, Event};
use crate::sink::Sink;

/// Event names that trigger an automatic black-box dump: the guarded
/// division service's fault signals (DESIGN.md §12) plus explicit chaos
/// findings.
pub const DEFAULT_BLACKBOX_TRIGGERS: &[&str] = &[
    "guard.demotion",
    "guard.circuit_open",
    "cache.poisoned",
    "cache.lock_poisoned",
    "chaos.finding",
];

/// Default per-thread ring capacity (events retained per segment).
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Dumps retained before further triggers are counted as suppressed
/// rather than stored (a fault storm must not grow memory unboundedly).
const MAX_DUMPS: usize = 8;

static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(1);
static THREAD_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense id for the current thread (stable for its lifetime).
    static THREAD_ID: u64 = THREAD_IDS.fetch_add(1, Ordering::Relaxed);
    /// Per-thread cache of this thread's segment in each live recorder,
    /// keyed by recorder id. Weak so a dropped recorder's entries are
    /// reclaimed on the next lookup instead of pinning its rings.
    static LOCAL_SEGMENTS: RefCell<Vec<(u64, Weak<Segment>)>> = const { RefCell::new(Vec::new()) };
}

/// One recorded trace event with its global sequence stamp.
#[derive(Debug, Clone)]
pub struct RecordedEvent {
    /// Global monotone sequence number (total order across threads).
    pub seq: u64,
    /// Dense id of the thread that emitted the event.
    pub thread: u64,
    /// Span nesting depth at emission.
    pub depth: u32,
    /// The event itself.
    pub event: Event,
}

/// One thread's ring of recent events.
struct Segment {
    thread: u64,
    ring: Mutex<VecDeque<RecordedEvent>>,
    dropped: AtomicU64,
}

/// The black-box contents captured when a trigger event fired: every
/// retained event up to and including the trigger, merged across
/// threads and ordered by sequence number.
#[derive(Debug, Clone)]
pub struct BlackboxDump {
    /// Name of the event that triggered the dump.
    pub trigger: &'static str,
    /// Sequence stamp of the trigger event (the dump's last event).
    pub trigger_seq: u64,
    /// Events dropped by writers (contended segments) before the dump.
    pub dropped: u64,
    /// The retained events, ascending by `seq`; the trigger is last.
    pub events: Vec<RecordedEvent>,
}

impl BlackboxDump {
    /// Renders the dump as JSON Lines: a `"type":"blackbox"` header
    /// line, then one `"type":"event"` line per retained event in the
    /// same schema as [`JsonlSink`](crate::JsonlSink) (plus a `thread`
    /// key), so the drift bin can replay the dump like any archived
    /// trace stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"blackbox\",\"trigger\":{},\"trigger_seq\":{},\
             \"events\":{},\"dropped\":{}}}\n",
            json_string(self.trigger),
            self.trigger_seq,
            self.events.len(),
            self.dropped
        );
        for r in &self.events {
            out.push_str(&format!(
                "{{\"seq\":{},\"type\":\"event\",\"depth\":{},\"thread\":{},\"name\":{}",
                r.seq,
                r.depth,
                r.thread,
                json_string(r.event.name)
            ));
            out.push_str(",\"fields\":{");
            for (i, f) in r.event.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(f.key));
                out.push(':');
                out.push_str(&f.value.to_json());
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// A [`Sink`] that retains the last N events per emitting thread and
/// snapshots them into a [`BlackboxDump`] whenever a trigger event
/// (guard demotion, cache poisoning, circuit trip, chaos finding)
/// arrives.
pub struct FlightRecorder {
    id: u64,
    capacity: usize,
    triggers: Vec<&'static str>,
    segments: Mutex<Vec<Arc<Segment>>>,
    dumps: Mutex<Vec<BlackboxDump>>,
    suppressed: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with the default per-thread capacity
    /// ([`DEFAULT_RECORDER_CAPACITY`]) and trigger set
    /// ([`DEFAULT_BLACKBOX_TRIGGERS`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder retaining the last `capacity` events per thread
    /// (minimum 1), with the default trigger set.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            triggers: DEFAULT_BLACKBOX_TRIGGERS.to_vec(),
            segments: Mutex::new(Vec::new()),
            dumps: Mutex::new(Vec::new()),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Replaces the trigger set (builder style). An empty set makes the
    /// recorder a pure ring: it still retains events but never dumps.
    pub fn with_triggers(mut self, triggers: &[&'static str]) -> Self {
        self.triggers = triggers.to_vec();
        self
    }

    /// Per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped on contended segments (a concurrent dump held the
    /// ring lock; writers never block).
    pub fn dropped(&self) -> u64 {
        let segments = self
            .segments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        segments
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Triggers that fired once the retained-dump cap was full (counted
    /// instead of stored).
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Drains and returns every retained dump, oldest first.
    pub fn take_dumps(&self) -> Vec<BlackboxDump> {
        std::mem::take(&mut *self.dumps.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// This thread's segment, created and registered on first use
    /// (cold path; subsequent lookups hit the thread-local cache).
    fn segment(&self) -> Arc<Segment> {
        let cached = LOCAL_SEGMENTS.with(|v| {
            v.borrow()
                .iter()
                .find(|(id, _)| *id == self.id)
                .and_then(|(_, w)| w.upgrade())
        });
        if let Some(seg) = cached {
            return seg;
        }
        let seg = Arc::new(Segment {
            thread: THREAD_ID.with(|t| *t),
            ring: Mutex::new(VecDeque::with_capacity(self.capacity)),
            dropped: AtomicU64::new(0),
        });
        self.segments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(seg.clone());
        LOCAL_SEGMENTS.with(|v| {
            let mut v = v.borrow_mut();
            v.retain(|(_, w)| w.strong_count() > 0);
            v.push((self.id, Arc::downgrade(&seg)));
        });
        seg
    }

    /// Snapshots every segment into a dump ending at `trigger_seq`.
    /// Events stamped after the trigger (a concurrent writer racing the
    /// dump) are excluded so the trigger is always the last event.
    fn dump(&self, trigger: &'static str, trigger_seq: u64) {
        {
            let dumps = self.dumps.lock().unwrap_or_else(PoisonError::into_inner);
            if dumps.len() >= MAX_DUMPS {
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let segments = self
            .segments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut events: Vec<RecordedEvent> = Vec::new();
        let mut dropped = 0u64;
        for seg in &segments {
            let ring = seg.ring.lock().unwrap_or_else(PoisonError::into_inner);
            events.extend(ring.iter().filter(|r| r.seq <= trigger_seq).cloned());
            dropped += seg.dropped.load(Ordering::Relaxed);
        }
        events.sort_by_key(|r| r.seq);
        let dump = BlackboxDump {
            trigger,
            trigger_seq,
            dropped,
            events,
        };
        let mut dumps = self.dumps.lock().unwrap_or_else(PoisonError::into_inner);
        if dumps.len() >= MAX_DUMPS {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        dumps.push(dump);
    }
}

impl Sink for FlightRecorder {
    fn event(&self, depth: u32, event: &Event) {
        let seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
        let seg = self.segment();
        let rec = RecordedEvent {
            seq,
            thread: seg.thread,
            depth,
            event: event.clone(),
        };
        match seg.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() == self.capacity {
                    ring.pop_front();
                }
                ring.push_back(rec);
            }
            Err(TryLockError::Poisoned(p)) => {
                let mut ring = p.into_inner();
                if ring.len() == self.capacity {
                    ring.pop_front();
                }
                ring.push_back(rec);
            }
            Err(TryLockError::WouldBlock) => {
                seg.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The ring lock is released before dumping: the dump re-locks
        // every segment (including this one) to snapshot it.
        if self.triggers.contains(&event.name) {
            self.dump(event.name, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::with_sink;

    #[test]
    fn ring_retains_only_the_last_n() {
        let rec = Arc::new(FlightRecorder::with_capacity(4).with_triggers(&["boom"]));
        with_sink(rec.clone(), || {
            for i in 0..10u64 {
                crate::event!("step", "i" => i);
            }
            crate::event!("boom", "d" => 7u64);
        });
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        // Capacity 4: the three newest steps plus the trigger.
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.events.last().map(|r| r.event.name), Some("boom"));
        assert!(d.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn default_triggers_catch_guard_demotion() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        with_sink(rec.clone(), || {
            crate::event!("plan.decision", "strategy" => "mul_shift");
            crate::event!("guard.demotion", "d" => 641u64, "why" => "checksum");
        });
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, "guard.demotion");
        let last = dumps[0].events.last().expect("nonempty");
        assert_eq!(last.event.name, "guard.demotion");
        assert_eq!(last.event.get("d").map(|v| v.to_json()), Some("641".into()));
    }

    #[test]
    fn dump_count_is_bounded() {
        let rec = Arc::new(FlightRecorder::with_capacity(2).with_triggers(&["boom"]));
        with_sink(rec.clone(), || {
            for _ in 0..(MAX_DUMPS + 3) {
                crate::event!("boom");
            }
        });
        assert_eq!(rec.suppressed(), 3);
        assert_eq!(rec.take_dumps().len(), MAX_DUMPS);
        // Draining resets the budget.
        with_sink(rec.clone(), || crate::event!("boom"));
        assert_eq!(rec.take_dumps().len(), 1);
    }

    #[test]
    fn jsonl_round_trip_shape() {
        let rec = Arc::new(FlightRecorder::with_capacity(8));
        with_sink(rec.clone(), || {
            crate::event!("cache.poisoned", "width" => 32u32, "d_bits" => 10u64);
        });
        let dumps = rec.take_dumps();
        let text = dumps[0].to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"blackbox\""));
        assert!(lines[0].contains("\"trigger\":\"cache.poisoned\""));
        assert!(lines[1].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"d_bits\":10"));
        assert!(lines[1].contains("\"thread\":"));
    }

    #[test]
    fn segments_merge_across_threads() {
        let rec = Arc::new(FlightRecorder::with_capacity(64).with_triggers(&["boom"]));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                with_sink(rec, || {
                    for i in 0..8u64 {
                        crate::event!("work", "t" => t, "i" => i);
                    }
                });
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        with_sink(rec.clone(), || crate::event!("boom"));
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.events.len(), 4 * 8 + 1);
        assert!(d.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(d.events.last().map(|r| r.event.name), Some("boom"));
        let threads: std::collections::BTreeSet<u64> = d.events.iter().map(|r| r.thread).collect();
        assert!(
            threads.len() >= 5,
            "expected 5 distinct threads: {threads:?}"
        );
    }
}
