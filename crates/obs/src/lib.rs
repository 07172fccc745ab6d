//! Dependency-free observability substrate for the audit pipeline.
//!
//! One [`Obs`] handle per audit run carries three channels:
//!
//! * **spans** — a hierarchical trace of pipeline stages ([`Span`], closed
//!   by drop guards, deterministic under any worker count);
//! * **metrics** — typed counters / gauges / histograms registered under
//!   dotted paths ([`Registry`]), always live even when tracing is off;
//! * **events** — a bounded ring buffer of severity-tagged occurrences
//!   ([`EventLog`]).
//!
//! Timestamps come from a pluggable [`Clock`] — in this workspace netsim's
//! `VirtualClock` — so traces carry virtual time and reproduce exactly.
//! [`claim_map`], the workspace's one worker pool, lives here too: every
//! crate that fans work out already depends on `obs`.
//!
//! # Cost model
//!
//! `Obs::disabled()` (the default everywhere) wires in [`NullRecorder`]:
//! [`Obs::span`] returns a disabled [`Span`] whose every method is a null
//! check, and events are dropped before formatting. Metrics stay live —
//! they are single relaxed atomic ops and the `experiments` binary's
//! `caches:` line reads them — but nothing is allocated per operation.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use obs::{JsonRecorder, ManualClock, Obs};
//!
//! let recorder = Arc::new(JsonRecorder::new());
//! let obs = Obs::with_recorder(recorder.clone(), Arc::new(ManualClock::new()));
//!
//! {
//!     let root = obs.span("audit");
//!     let shard = root.child_keyed("crawl.shard", 0);
//!     shard.record("pages", 12);
//! } // drop guards close both spans here
//!
//! obs.counter("crawl.pages_fetched").add(12);
//! assert_eq!(obs.counter_value("crawl.pages_fetched"), 12);
//! assert!(recorder.canonical_trace().contains("crawl.shard"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod event;
mod json;
mod metrics;
mod pool;
mod recorder;
mod span;

pub use clock::{Clock, ManualClock};
pub use event::{Event, EventLog, Severity};
pub use metrics::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
    HISTOGRAM_BUCKETS,
};
pub use pool::claim_map;
pub use recorder::{JsonRecorder, NullRecorder, Recorder};
pub use span::{FieldValue, Span, SpanData};

use span::SpanInner;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default event ring-buffer capacity.
const DEFAULT_EVENT_CAPACITY: usize = 4096;

pub(crate) struct ObsCore {
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) recorder: Arc<dyn Recorder>,
    /// `recorder.is_tracing()`, cached at construction: checked on every
    /// span open, so it must not take a virtual call.
    tracing: bool,
    next_span: AtomicU64,
    registry: Registry,
    events: EventLog,
}

impl ObsCore {
    pub(crate) fn open_span(
        self: &Arc<ObsCore>,
        name: &'static str,
        key: Option<u64>,
        parent: Option<u64>,
    ) -> Span {
        if !self.tracing {
            return Span::disabled();
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        Span {
            inner: Some(SpanInner {
                core: Arc::clone(self),
                id,
                parent,
                name,
                key,
                start_ms: self.clock.now_millis(),
                fields: Mutex::new(Vec::new()),
            }),
        }
    }
}

/// Handle to one audit run's observability state. Cheap to clone; every
/// clone shares the same registry, recorder, clock, and event log.
#[derive(Clone)]
pub struct Obs {
    core: Arc<ObsCore>,
}

impl Obs {
    /// Observability with everything but metrics off: [`NullRecorder`],
    /// manual clock, spans disabled. This is the default wired through the
    /// pipeline when no recorder is attached.
    pub fn disabled() -> Obs {
        Obs::with_recorder(Arc::new(NullRecorder), Arc::new(ManualClock::new()))
    }

    /// Observability with the given recorder and clock.
    pub fn with_recorder(recorder: Arc<dyn Recorder>, clock: Arc<dyn Clock>) -> Obs {
        let tracing = recorder.is_tracing();
        Obs {
            core: Arc::new(ObsCore {
                clock,
                recorder,
                tracing,
                next_span: AtomicU64::new(1),
                registry: Registry::new(),
                events: EventLog::with_capacity(DEFAULT_EVENT_CAPACITY),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_tracing(&self) -> bool {
        self.core.tracing
    }

    /// Open a root span. Disabled (free) unless a tracing recorder is
    /// attached.
    pub fn span(&self, name: &'static str) -> Span {
        self.core.open_span(name, None, None)
    }

    /// Open a keyed root span.
    pub fn span_keyed(&self, name: &'static str, key: u64) -> Span {
        self.core.open_span(name, Some(key), None)
    }

    /// The counter registered at `path`.
    pub fn counter(&self, path: &str) -> Counter {
        self.core.registry.counter(path)
    }

    /// The gauge registered at `path`.
    pub fn gauge(&self, path: &str) -> Gauge {
        self.core.registry.gauge(path)
    }

    /// The histogram registered at `path`.
    pub fn histogram(&self, path: &str) -> Histogram {
        self.core.registry.histogram(path)
    }

    /// Current counter value at `path` (0 when absent).
    pub fn counter_value(&self, path: &str) -> u64 {
        self.core.registry.counter_value(path)
    }

    /// Current gauge value at `path` (0 when absent).
    pub fn gauge_value(&self, path: &str) -> i64 {
        self.core.registry.gauge_value(path)
    }

    /// Every registered metric, sorted by path.
    pub fn metrics_snapshot(&self) -> Vec<(String, MetricValue)> {
        self.core.registry.snapshot()
    }

    /// A canonical one-line-per-metric rendering of every metric whose
    /// path starts with `prefix` (`""` for all), sorted by path:
    /// `path=value\n`. Because registry contents are a pure function of
    /// the instrumented program's execution, two runs of a deterministic
    /// program produce byte-identical canonical metrics — the
    /// determinism suites diff this string directly (e.g. the `sched.`
    /// slice at 1 worker vs 4).
    pub fn canonical_metrics(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (path, value) in self.metrics_snapshot() {
            if path.starts_with(prefix) {
                writeln!(out, "{path}={value}").expect("string write cannot fail");
            }
        }
        out
    }

    /// Log an event (ring buffer + recorder).
    pub fn event(&self, severity: Severity, target: &'static str, message: impl Into<String>) {
        let event = Event {
            at_ms: self.core.clock.now_millis(),
            severity,
            target,
            message: message.into(),
        };
        self.core.recorder.on_event(&event);
        self.core.events.push(event);
    }

    /// Events currently retained in the ring buffer, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.core.events.drain_snapshot()
    }

    /// Events evicted from the ring buffer so far.
    pub fn events_dropped(&self) -> u64 {
        self.core.events.dropped()
    }
}

impl Default for Obs {
    /// Same as [`Obs::disabled`].
    fn default() -> Obs {
        Obs::disabled()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.core.tracing)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> (Obs, Arc<JsonRecorder>) {
        let recorder = Arc::new(JsonRecorder::new());
        let obs = Obs::with_recorder(recorder.clone(), Arc::new(ManualClock::new()));
        (obs, recorder)
    }

    #[test]
    fn disabled_spans_are_free_and_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_tracing());
        let span = obs.span("root");
        assert!(!span.is_enabled());
        let child = span.child_keyed("work", 3);
        assert!(!child.is_enabled());
        child.record("pages", 7); // must not panic or allocate state
    }

    #[test]
    fn metrics_live_even_when_disabled() {
        let obs = Obs::disabled();
        obs.counter("crawl.pages_fetched").add(5);
        assert_eq!(obs.counter_value("crawl.pages_fetched"), 5);
    }

    #[test]
    fn canonical_metrics_filters_by_prefix_and_sorts() {
        let obs = Obs::disabled();
        obs.counter("sched.submitted").add(3);
        obs.gauge("sched.queue_depth").set(-1);
        obs.histogram("sched.wait_ms").record(40);
        obs.counter("crawl.pages_fetched").incr();
        assert_eq!(
            obs.canonical_metrics("sched."),
            "sched.queue_depth=-1\nsched.submitted=3\nsched.wait_ms=n=1 sum=40 min=40 max=40\n"
        );
        assert!(obs
            .canonical_metrics("")
            .starts_with("crawl.pages_fetched=1\n"));
    }

    #[test]
    fn span_nesting_appears_in_trace() {
        let (obs, rec) = traced();
        {
            let root = obs.span("audit");
            let stage = root.child("static");
            let shard = stage.child_keyed("shard", 2);
            shard.record("pages", 4);
        }
        let trace = rec.canonical_trace();
        assert_eq!(
            trace,
            "{\"trace\":[{\"name\":\"audit\",\"children\":[\
             {\"name\":\"static\",\"children\":[\
             {\"name\":\"shard\",\"key\":2,\"fields\":{\"pages\":4}}]}]}]}"
        );
    }

    #[test]
    fn spans_close_under_panic() {
        let (obs, rec) = traced();
        let root = obs.span("audit");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let worker = root.child_keyed("worker", 0);
            worker.record("before_panic", 1);
            panic!("worker died");
        }));
        assert!(result.is_err());
        drop(root);
        // Both spans closed: the worker span via unwind, the root via drop.
        assert_eq!(rec.span_count(), 2);
        assert!(rec.canonical_trace().contains("before_panic"));
    }

    #[test]
    fn sibling_merge_is_order_independent() {
        // Serial run: one span per unit, in order.
        let (obs_a, rec_a) = traced();
        {
            let root = obs_a.span("stage");
            for unit in 0..4u64 {
                let s = root.child_keyed("unit", unit % 2);
                s.record("items", unit + 1);
            }
        }
        // "Parallel" run: same identities, scrambled creation order,
        // interleaved lifetimes.
        let (obs_b, rec_b) = traced();
        {
            let root = obs_b.span("stage");
            let s3 = root.child_keyed("unit", 1); // unit 3
            let s0 = root.child_keyed("unit", 0); // unit 0
            s3.record("items", 4);
            let s2 = root.child_keyed("unit", 0); // unit 2
            s0.record("items", 1);
            drop(s0);
            s2.record("items", 3);
            let s1 = root.child_keyed("unit", 1); // unit 1
            s1.record("items", 2);
            drop(s2);
        }
        assert_eq!(rec_a.canonical_trace(), rec_b.canonical_trace());
        // Merged fields sum across same-key siblings: key 0 → 1+3, key 1 → 2+4.
        assert!(rec_a
            .canonical_trace()
            .contains("\"key\":0,\"fields\":{\"items\":4}"));
        assert!(rec_a
            .canonical_trace()
            .contains("\"key\":1,\"fields\":{\"items\":6}"));
    }

    #[test]
    fn worker_span_count_is_invisible_in_canonical_trace() {
        // One serial "worker" span vs three parallel ones doing the same
        // total work must canonicalise identically: the merged node carries
        // summed fields but no span count.
        let (obs_serial, rec_serial) = traced();
        {
            let root = obs_serial.span("analysis");
            let w = root.child("worker");
            w.record("bots", 6);
        }
        let (obs_par, rec_par) = traced();
        {
            let root = obs_par.span("analysis");
            for bots in [1u64, 2, 3] {
                let w = root.child("worker");
                w.record("bots", bots);
            }
        }
        assert_eq!(rec_serial.canonical_trace(), rec_par.canonical_trace());
    }

    #[test]
    fn disagreeing_string_fields_are_dropped() {
        let (obs, rec) = traced();
        {
            let root = obs.span("stage");
            root.child_keyed("unit", 0).record_str("host", "a.example");
            root.child_keyed("unit", 0).record_str("host", "b.example");
            root.child_keyed("unit", 1).record_str("host", "c.example");
        }
        let trace = rec.canonical_trace();
        assert!(!trace.contains("a.example"));
        assert!(!trace.contains("b.example"));
        assert!(trace.contains("c.example"), "agreeing singleton survives");
    }

    #[test]
    fn events_flow_to_ring_buffer_and_recorder() {
        let (obs, rec) = traced();
        obs.event(Severity::Warn, "store.journal", "torn frame discarded");
        assert_eq!(obs.events().len(), 1);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.events()[0].severity, Severity::Warn);
        assert_eq!(obs.events_dropped(), 0);
    }
}
