//! # lgv-trace
//!
//! Virtual-time observability for the LGV offloading stack: structured
//! trace events, pluggable sinks, and a metrics registry — with **no
//! dependencies** (not even on `lgv-types`), so every crate in the
//! workspace can emit events without dependency cycles.
//!
//! ## Design
//!
//! The central handle is the [`Tracer`]: a cheap, cloneable object
//! every instrumented component holds. All clones share one **sink
//! list** (a single JSONL file or metrics registry sees the
//! interleaved stream of the whole stack) and one **emission
//! counter** (`seq`, a total order over the run). The **virtual
//! clock**, the **current-span register**, and the **span/msg id
//! allocators** live one level down, in a *family* shared by plain
//! clones but forked by [`Tracer::for_vehicle`]: every fleet vehicle
//! gets its own clock and id space, so sessions stepped on different
//! worker threads can never race each other's timestamps or span
//! attribution. Components whose APIs carry no time parameter (e.g.
//! the bus publish path) still emit correctly-timestamped events —
//! they hold a clone from their own session's family.
//!
//! A disabled tracer (the [`Tracer::default`]) is a no-op: emission
//! sites pay one `Option` check and, via [`Tracer::emit_with`], build
//! no event at all.
//!
//! ## Determinism
//!
//! Timestamps are virtual time, the emission sequence is a plain
//! counter, and the JSON encoding is fixed-order with shortest-
//! round-trip floats — so for a fixed mission seed the JSONL output is
//! **byte-for-byte identical** across runs. See `docs/OBSERVABILITY.md`
//! for the schema and the replay workflow built on that guarantee.
//! For fleets stepped by several worker threads the guarantee is
//! per-vehicle: each vehicle's record subsequence (its timestamps,
//! span/msg ids, and relative order) is byte-identical across runs
//! and thread counts, while the global `seq` interleaving between
//! vehicles follows the OS schedule — sort by `(vehicle, seq)` and
//! drop `seq` to compare threaded fleet traces.
//!
//! ```
//! use lgv_trace::{RingBufferSink, TraceEvent, Tracer};
//!
//! let tracer = Tracer::enabled();
//! let ring = tracer.attach(RingBufferSink::new(16));
//!
//! tracer.set_time_ns(200_000_000); // the engine advances the clock
//! tracer.emit(TraceEvent::RttSample { rtt_ns: 24_000_000 });
//!
//! let ring = ring.lock().unwrap();
//! let rec = ring.records().next().unwrap();
//! assert_eq!(rec.t_ns, 200_000_000);
//! assert_eq!(rec.event, TraceEvent::RttSample { rtt_ns: 24_000_000 });
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod analyze;
mod event;
pub mod json;
mod metrics;
pub mod prof;
mod reader;
mod sink;
mod span;

pub use analyze::{RecoveryReport, TraceAnalysis};
pub use event::{EventCategory, SendKind, TraceEvent, TraceRecord};
pub use metrics::{Histogram, MetricsRegistry};
pub use reader::{ParseError, TraceReader};
pub use sink::{JsonlSink, NullSink, RingBufferSink, TraceSink};
pub use span::{MsgId, SpanId};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A sink shared between the tracer and the code that inspects it
/// after the run.
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// State shared by *every* clone of a tracer, whatever its vehicle:
/// the sink list and the global emission counter.
struct TracerInner {
    /// Emission counter (total order over the whole run).
    seq: AtomicU64,
    sinks: Mutex<Vec<SharedSink>>,
}

/// Per-vehicle-family registers. Plain clones share their family;
/// [`Tracer::for_vehicle`] forks a fresh one, so fleet sessions
/// stepped by different worker threads cannot race each other's
/// clock, span attribution, or id allocation.
struct FamilyCells {
    /// Virtual time in nanoseconds for this family.
    clock_ns: AtomicU64,
    /// Next message-lineage id (local ids start at 1; 0 is
    /// [`MsgId::NONE`]; emitted ids carry the vehicle in high bits).
    next_msg: AtomicU64,
    /// Next span id (same scheme as `next_msg`).
    next_span: AtomicU64,
    /// The span currently open (0 when none). A session's loop is
    /// single-threaded, so a single cell — not a stack — suffices.
    current_span: AtomicU64,
}

impl FamilyCells {
    fn new(clock_ns: u64) -> Self {
        FamilyCells {
            clock_ns: AtomicU64::new(clock_ns),
            next_msg: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            current_span: AtomicU64::new(0),
        }
    }
}

/// Bit position of the vehicle tag in span/msg ids: each family
/// allocates locally (no cross-thread contention, deterministic per
/// vehicle) and ids stay globally unique because the vehicle id is
/// folded into the high bits. Vehicle 0 — single-vehicle runs — keeps
/// plain small ids, so solo traces are unchanged.
const VEHICLE_ID_SHIFT: u32 = 40;

#[derive(Clone)]
struct Enabled {
    shared: Arc<TracerInner>,
    cells: Arc<FamilyCells>,
}

/// The cloneable tracing handle held by every instrumented component.
///
/// See the [crate docs](crate) for the sharing model. A default
/// tracer is disabled; [`Tracer::enabled`] plus [`Tracer::attach`]
/// turns tracing on.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Enabled>,
    /// Fleet vehicle (tenant) stamped into every record this clone
    /// emits; 0 = unattributed (single-vehicle runs, fleet-level
    /// components). Per-clone, like the family cells and unlike the
    /// shared sink/seq state: a fleet driver derives one
    /// [`Tracer::for_vehicle`] clone per session and hands it to all
    /// of that session's components.
    vehicle: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(e) => f
                .debug_struct("Tracer")
                .field("time_ns", &e.cells.clock_ns.load(Ordering::Relaxed))
                .field("events", &e.shared.seq.load(Ordering::Relaxed))
                .finish(),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A disabled tracer: every emission is a no-op. This is the
    /// default every component starts with.
    pub fn disabled() -> Self {
        Tracer {
            inner: None,
            vehicle: 0,
        }
    }

    /// An enabled tracer with an empty sink list and the clock at 0.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Enabled {
                shared: Arc::new(TracerInner {
                    seq: AtomicU64::new(0),
                    sinks: Mutex::new(Vec::new()),
                }),
                cells: Arc::new(FamilyCells::new(0)),
            }),
            vehicle: 0,
        }
    }

    /// A clone of this tracer whose emissions are attributed to fleet
    /// vehicle `vehicle` (see [`TraceRecord::vehicle`]). The clone
    /// shares the sequence counter and sinks with `self`, so a
    /// fleet's per-vehicle streams interleave in one total order —
    /// but owns a fresh clock, span register, and span/msg id space
    /// (seeded from `self`'s clock), so sessions stepped on different
    /// worker threads stay per-vehicle deterministic. Asking for the
    /// vehicle `self` already carries returns a plain clone.
    pub fn for_vehicle(&self, vehicle: u64) -> Self {
        let inner = self.inner.as_ref().map(|e| {
            if vehicle == self.vehicle {
                e.clone()
            } else {
                Enabled {
                    shared: e.shared.clone(),
                    cells: Arc::new(FamilyCells::new(e.cells.clock_ns.load(Ordering::Relaxed))),
                }
            }
        });
        Tracer { inner, vehicle }
    }

    /// Fold this clone's vehicle into a family-local id so ids stay
    /// globally unique without cross-family coordination.
    fn tag_id(&self, local: u64) -> u64 {
        (self.vehicle << VEHICLE_ID_SHIFT) | local
    }

    /// The vehicle id stamped on this clone's emissions (0 = none).
    pub fn vehicle(&self) -> u64 {
        self.vehicle
    }

    /// Whether emissions go anywhere at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a sink, returning a shared handle for later inspection
    /// (e.g. reading a ring buffer or dumping metrics after the run).
    ///
    /// On a disabled tracer the sink is still returned but will never
    /// receive events.
    pub fn attach<S: TraceSink + Send + 'static>(&self, sink: S) -> Arc<Mutex<S>> {
        let shared = Arc::new(Mutex::new(sink));
        self.add_sink(shared.clone());
        shared
    }

    /// Attach an already-shared sink.
    pub fn add_sink(&self, sink: SharedSink) {
        if let Some(e) = &self.inner {
            e.shared.sinks.lock().unwrap().push(sink);
        }
    }

    /// Advance the shared virtual clock (nanoseconds since the
    /// simulation epoch). Called by whoever owns time — the mission
    /// engine — so that emission sites without a time parameter stamp
    /// correctly.
    pub fn set_time_ns(&self, ns: u64) {
        if let Some(e) = &self.inner {
            e.cells.clock_ns.store(ns, Ordering::Relaxed);
        }
    }

    /// The current virtual time (0 when disabled).
    pub fn time_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |e| e.cells.clock_ns.load(Ordering::Relaxed))
    }

    /// Emit an event stamped with the shared clock.
    pub fn emit(&self, event: TraceEvent) {
        if self.inner.is_some() {
            let t_ns = self.time_ns();
            self.emit_record(t_ns, event);
        }
    }

    /// Emit an event stamped with an explicit virtual time — for call
    /// sites that already receive `now` as a parameter.
    pub fn emit_at(&self, t_ns: u64, event: TraceEvent) {
        if self.inner.is_some() {
            self.emit_record(t_ns, event);
        }
    }

    /// Emit lazily: the event (and any `String` it allocates) is only
    /// built when the tracer is enabled. Use on hot paths.
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&self, f: F) {
        if self.inner.is_some() {
            let t_ns = self.time_ns();
            self.emit_record(t_ns, f());
        }
    }

    /// Like [`Tracer::emit_with`] with an explicit timestamp.
    pub fn emit_with_at<F: FnOnce() -> TraceEvent>(&self, t_ns: u64, f: F) {
        if self.inner.is_some() {
            self.emit_record(t_ns, f());
        }
    }

    fn emit_record(&self, t_ns: u64, event: TraceEvent) {
        let e = self.inner.as_ref().expect("checked by callers");
        let seq = e.shared.seq.fetch_add(1, Ordering::Relaxed);
        let span = SpanId(e.cells.current_span.load(Ordering::Relaxed));
        let rec = TraceRecord {
            t_ns,
            seq,
            span,
            vehicle: self.vehicle,
            event,
        };
        for sink in e.shared.sinks.lock().unwrap().iter() {
            sink.lock().unwrap().record(&rec);
        }
    }

    /// Allocate a fresh message-lineage id ([`MsgId::NONE`] when
    /// disabled, so untraced runs carry no ids and pay one load).
    pub fn alloc_msg(&self) -> MsgId {
        match &self.inner {
            Some(e) => MsgId(self.tag_id(e.cells.next_msg.fetch_add(1, Ordering::Relaxed))),
            None => MsgId::NONE,
        }
    }

    /// Open a causal span: allocates an id, makes it the current span
    /// (stamped into every subsequent record's envelope), and emits a
    /// [`TraceEvent::SpanBegin`] — which itself already carries the new
    /// id, so the begin record nests under its own span.
    pub fn span_begin(&self, name: &str, index: u64) -> SpanId {
        match &self.inner {
            Some(e) => {
                let span = SpanId(self.tag_id(e.cells.next_span.fetch_add(1, Ordering::Relaxed)));
                e.cells.current_span.store(span.0, Ordering::Relaxed);
                self.emit(TraceEvent::SpanBegin {
                    span,
                    name: name.to_string(),
                    index,
                });
                span
            }
            None => SpanId::NONE,
        }
    }

    /// Close a span: emits [`TraceEvent::SpanEnd`] (still stamped with
    /// the span, so the end record nests under it too) and clears the
    /// current span.
    pub fn span_end(&self, span: SpanId) {
        if let Some(e) = &self.inner {
            self.emit(TraceEvent::SpanEnd { span });
            e.cells.current_span.store(0, Ordering::Relaxed);
        }
    }

    /// The span currently open ([`SpanId::NONE`] when none/disabled).
    pub fn current_span(&self) -> SpanId {
        self.inner.as_ref().map_or(SpanId::NONE, |e| {
            SpanId(e.cells.current_span.load(Ordering::Relaxed))
        })
    }

    /// Flush every attached sink.
    pub fn flush(&self) {
        if let Some(e) = &self.inner {
            for sink in e.shared.sinks.lock().unwrap().iter() {
                sink.lock().unwrap().flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_cheap_noop() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.set_time_ns(5);
        assert_eq!(t.time_ns(), 0);
        t.emit(TraceEvent::MigrationAbort);
        t.emit_with(|| panic!("must not be built"));
        t.flush();
    }

    #[test]
    fn clones_share_clock_and_sinks() {
        let a = Tracer::enabled();
        let b = a.clone();
        let ring = a.attach(RingBufferSink::new(8));
        b.set_time_ns(42);
        assert_eq!(a.time_ns(), 42);
        b.emit(TraceEvent::NetSwitch { to_remote: true });
        a.emit(TraceEvent::NetSwitch { to_remote: false });
        let ring = ring.lock().unwrap();
        let recs: Vec<_> = ring.records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t_ns, 42);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
    }

    #[test]
    fn emit_at_overrides_the_clock() {
        let t = Tracer::enabled();
        let ring = t.attach(RingBufferSink::new(4));
        t.set_time_ns(100);
        t.emit_at(7, TraceEvent::MigrationAbort);
        assert_eq!(ring.lock().unwrap().records().next().unwrap().t_ns, 7);
    }

    #[test]
    fn spans_stamp_the_envelope_and_msgs_count_up() {
        let t = Tracer::enabled();
        let ring = t.attach(RingBufferSink::new(8));
        assert_eq!(t.alloc_msg(), MsgId(1));
        assert_eq!(t.alloc_msg(), MsgId(2));
        t.emit(TraceEvent::MigrationAbort); // outside any span
        let span = t.span_begin("cycle", 0);
        assert_eq!(span, SpanId(1));
        assert_eq!(t.current_span(), span);
        t.emit(TraceEvent::RttSample { rtt_ns: 5 });
        t.span_end(span);
        assert_eq!(t.current_span(), SpanId::NONE);
        t.emit(TraceEvent::MigrationAbort); // outside again
        let ring = ring.lock().unwrap();
        let spans: Vec<_> = ring.records().map(|r| r.span).collect();
        assert_eq!(
            spans,
            vec![SpanId(0), SpanId(1), SpanId(1), SpanId(1), SpanId(0)]
        );

        let off = Tracer::disabled();
        assert_eq!(off.alloc_msg(), MsgId::NONE);
        assert_eq!(off.span_begin("cycle", 0), SpanId::NONE);
    }

    #[test]
    fn vehicle_clones_stamp_their_records() {
        let fleet = Tracer::enabled();
        let ring = fleet.attach(RingBufferSink::new(8));
        let v1 = fleet.for_vehicle(1);
        let v2 = fleet.for_vehicle(2);
        assert_eq!(fleet.vehicle(), 0);
        assert_eq!(v2.vehicle(), 2);
        fleet.emit(TraceEvent::MigrationAbort);
        v1.emit(TraceEvent::RttSample { rtt_ns: 5 });
        v2.emit(TraceEvent::RttSample { rtt_ns: 6 });
        let ring = ring.lock().unwrap();
        let vehicles: Vec<u64> = ring.records().map(|r| r.vehicle).collect();
        assert_eq!(vehicles, vec![0, 1, 2]);
        // Clones share the sequence counter: one total order.
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // The envelope field only appears when attributed.
        let jsons: Vec<String> = ring.records().map(|r| r.to_json()).collect();
        assert!(!jsons[0].contains("\"vehicle\""));
        assert!(jsons[1].contains("\"vehicle\":1"));
    }

    #[test]
    fn vehicle_families_have_independent_clocks_spans_and_ids() {
        let fleet = Tracer::enabled();
        let ring = fleet.attach(RingBufferSink::new(16));
        fleet.set_time_ns(50);
        // Forked families start at the parent's clock, then diverge.
        let v1 = fleet.for_vehicle(1);
        let v2 = fleet.for_vehicle(2);
        assert_eq!(v1.time_ns(), 50);
        v1.set_time_ns(100);
        v2.set_time_ns(999);
        assert_eq!(v1.time_ns(), 100, "v2's clock write must not leak into v1");
        assert_eq!(fleet.time_ns(), 50, "the root clock is its own family");

        // Id spaces are family-local, namespaced by the vehicle tag.
        assert_eq!(v1.alloc_msg(), MsgId((1 << VEHICLE_ID_SHIFT) | 1));
        assert_eq!(v2.alloc_msg(), MsgId((2 << VEHICLE_ID_SHIFT) | 1));
        assert_eq!(fleet.alloc_msg(), MsgId(1));

        // An open span on one vehicle never stamps another's records.
        let s1 = v1.span_begin("cycle", 0);
        assert_eq!(s1, SpanId((1 << VEHICLE_ID_SHIFT) | 1));
        v2.emit(TraceEvent::RttSample { rtt_ns: 6 });
        v1.emit(TraceEvent::RttSample { rtt_ns: 5 });
        v1.span_end(s1);
        assert_eq!(v2.current_span(), SpanId::NONE);
        let ring = ring.lock().unwrap();
        let recs: Vec<_> = ring.records().collect();
        let v2_rec = recs.iter().find(|r| r.vehicle == 2).unwrap();
        assert_eq!(v2_rec.span, SpanId::NONE);
        assert_eq!(v2_rec.t_ns, 999);
        let v1_rtt = recs
            .iter()
            .find(|r| r.vehicle == 1 && r.event.kind() == "rtt_sample")
            .unwrap();
        assert_eq!(v1_rtt.span, s1);
        assert_eq!(v1_rtt.t_ns, 100);

        // Re-asking for the vehicle a clone already carries shares the
        // family (the session hands clones to its own components).
        let v1b = v1.for_vehicle(1);
        v1b.set_time_ns(123);
        assert_eq!(v1.time_ns(), 123);
    }

    #[test]
    fn multiple_sinks_all_see_the_stream() {
        let t = Tracer::enabled();
        let ring = t.attach(RingBufferSink::new(4));
        let metrics = t.attach(MetricsRegistry::new());
        t.emit(TraceEvent::RttSample { rtt_ns: 1_000_000 });
        assert_eq!(ring.lock().unwrap().len(), 1);
        assert_eq!(metrics.lock().unwrap().counter("events.rtt_sample"), 1);
    }

    #[test]
    fn a_new_span_replaces_the_open_one_and_its_end_clears_it() {
        let t = Tracer::enabled();
        let ring = t.attach(RingBufferSink::new(8));
        let outer = t.span_begin("outer", 0);
        let inner = t.span_begin("inner", 1);
        assert_ne!(outer, inner);
        assert_eq!(t.current_span(), inner);
        t.span_end(inner);
        // Spans do not nest: closing one leaves no span open.
        assert_eq!(t.current_span(), SpanId::NONE);
        let ring = ring.lock().unwrap();
        let kinds: Vec<_> = ring.records().map(|r| (r.event.kind(), r.span)).collect();
        assert_eq!(
            kinds,
            vec![
                ("span_begin", outer),
                ("span_begin", inner),
                ("span_end", inner)
            ]
        );
    }
}
