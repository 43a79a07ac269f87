//! Counters, gauges, and histograms with a deterministic text dump.
//!
//! [`MetricsRegistry`] is the aggregate view next to the event stream:
//! where a trace answers "what happened, when", metrics answer "how
//! much, overall". The registry also implements [`TraceSink`], so it
//! can be attached to a [`crate::Tracer`] directly and aggregate the
//! event stream without any extra instrumentation.

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Running summary of an observed value series.
///
/// Keeps every sample (sorted) so exact percentiles are available —
/// the series here are per-mission, small enough that an exact answer
/// beats a sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// All observations, kept sorted ascending (insertion point found
    /// by binary search, so `observe` is O(log n) + shift).
    samples: Vec<f64>,
}

impl Histogram {
    /// Fold one observation in.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let at = self.samples.partition_point(|s| *s < v);
        self.samples.insert(at, v);
    }

    /// Exact nearest-rank percentile: the smallest sample such that at
    /// least `p`% of observations are ≤ it. `p` is clamped to
    /// `[0, 100]`; an empty histogram reports 0 (like `min`/`max`).
    ///
    /// ```
    /// use lgv_trace::Histogram;
    ///
    /// let mut h = Histogram::default();
    /// for v in [10.0, 20.0, 30.0, 40.0] {
    ///     h.observe(v);
    /// }
    /// assert_eq!(h.percentile(50.0), 20.0);
    /// assert_eq!(h.percentile(95.0), 40.0);
    /// assert_eq!(h.percentile(0.0), 10.0);
    /// ```
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.max(1) - 1]
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are free-form dotted strings (`"bus.drops"`). Storage is
/// `BTreeMap`, so [`MetricsRegistry::dump`] is sorted and
/// deterministic.
///
/// ```
/// use lgv_trace::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.inc("bus.publishes");
/// m.inc_by("bus.publishes", 2);
/// m.set_gauge("battery.soc", 0.93);
/// m.observe("rtt_ms", 24.0);
/// m.observe("rtt_ms", 30.0);
///
/// assert_eq!(m.counter("bus.publishes"), 3);
/// assert_eq!(m.gauge("battery.soc"), Some(0.93));
/// assert_eq!(m.histogram("rtt_ms").unwrap().mean(), 27.0);
/// assert!(m.dump().contains("counter bus.publishes 3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Increment a counter by `n`.
    pub fn inc_by(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Fold a value into a histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram summary, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Render every metric as sorted, deterministic text: one
    /// `counter|gauge|hist <name> <value…>` line per metric.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v:?}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist {name} count={} min={:?} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}",
                h.count(),
                h.min(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max()
            );
        }
        out
    }
}

/// Attached as a sink, the registry aggregates the event stream:
/// per-kind event counters, outcome counters for channel sends,
/// latency/energy histograms, and latest-value gauges for the
/// controller and battery signals.
impl TraceSink for MetricsRegistry {
    fn record(&mut self, rec: &TraceRecord) {
        self.inc_by(&format!("events.{}", rec.event.kind()), 1);
        match &rec.event {
            TraceEvent::BusDrop { topic, .. } => self.inc_by(&format!("bus.drops.{topic}"), 1),
            TraceEvent::ChannelSend { dir, outcome, .. } => {
                self.inc_by(&format!("channel.{dir}.{}", outcome.as_str()), 1)
            }
            TraceEvent::ChannelLoss { dir, .. } => {
                self.inc_by(&format!("channel.{dir}.radio_loss"), 1)
            }
            TraceEvent::ChannelDeliver {
                dir, latency_ns, ..
            } => {
                self.inc_by(&format!("channel.{dir}.delivered"), 1);
                self.observe(&format!("latency_ms.{dir}"), *latency_ns as f64 / 1e6);
            }
            TraceEvent::RttSample { rtt_ns } => {
                self.observe("rtt_ms", *rtt_ns as f64 / 1e6);
            }
            TraceEvent::ProfileSample { node, nanos, .. } => {
                self.observe(&format!("proc_ms.{node}"), *nanos as f64 / 1e6);
            }
            TraceEvent::ControlDecision {
                bandwidth,
                max_linear,
                ..
            } => {
                self.set_gauge("control.bandwidth", *bandwidth);
                self.set_gauge("control.max_linear", *max_linear);
            }
            TraceEvent::GovernorDecision { threads, .. } => {
                self.set_gauge("governor.threads", f64::from(*threads));
            }
            TraceEvent::EnergyDelta { component, joules } => {
                self.observe(&format!("energy_j.{component}"), *joules);
            }
            TraceEvent::MissionProgress { battery_soc, .. } => {
                self.set_gauge("battery.soc", *battery_soc);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.observe(2.0);
        h.observe(4.0);
        h.observe(-1.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 4.0);
        assert!((h.mean() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let empty = Histogram::default();
        assert_eq!(empty.percentile(50.0), 0.0);

        let mut h = Histogram::default();
        // Insert out of order to exercise the sorted-insert path.
        for v in [50.0, 10.0, 40.0, 20.0, 30.0, 60.0, 90.0, 70.0, 100.0, 80.0] {
            h.observe(v);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(95.0), 100.0);
        assert_eq!(h.percentile(99.0), 100.0);
        assert_eq!(h.percentile(10.0), 10.0);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(-5.0), 10.0);
        assert_eq!(h.percentile(250.0), 100.0);
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.set_gauge("mid", 1.5);
        m.observe("h", 3.0);
        let d = m.dump();
        let a = d.find("counter a.first").unwrap();
        let z = d.find("counter z.last").unwrap();
        assert!(a < z);
        assert!(d.contains("gauge mid 1.5"));
        assert!(d.contains("hist h count=1 min=3.0 mean=3.0 p50=3.0 p95=3.0 p99=3.0 max=3.0"));
    }

    #[test]
    fn registry_aggregates_events_as_a_sink() {
        use crate::event::SendKind;
        use crate::span::{MsgId, SpanId};
        let mut m = MetricsRegistry::new();
        let mk = |seq, event| TraceRecord {
            t_ns: 0,
            seq,
            span: SpanId::NONE,
            vehicle: 0,
            event,
        };
        m.record(&mk(0, TraceEvent::RttSample { rtt_ns: 2_000_000 }));
        m.record(&mk(
            1,
            TraceEvent::ChannelSend {
                dir: "up".into(),
                seq: 0,
                bytes: 8,
                outcome: SendKind::Discarded,
                msg: MsgId(1),
            },
        ));
        m.record(&mk(
            2,
            TraceEvent::BusDrop {
                topic: "scan".into(),
                msg: MsgId(1),
            },
        ));
        m.record(&mk(
            3,
            TraceEvent::ChannelDeliver {
                dir: "up".into(),
                seq: 1,
                msg: MsgId(2),
                latency_ns: 3_000_000,
            },
        ));
        assert_eq!(m.counter("events.rtt_sample"), 1);
        assert_eq!(m.counter("channel.up.discarded"), 1);
        assert_eq!(m.counter("bus.drops.scan"), 1);
        assert_eq!(m.counter("channel.up.delivered"), 1);
        assert_eq!(m.histogram("rtt_ms").unwrap().max(), 2.0);
        assert_eq!(m.histogram("latency_ms.up").unwrap().max(), 3.0);
    }

    #[test]
    fn counters_and_gauges_start_empty_and_update_in_place() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), None);
        assert!(m.histogram("h").is_none());
        m.inc_by("c", 5);
        m.inc("c");
        assert_eq!(m.counter("c"), 6);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", -2.5);
        assert_eq!(m.gauge("g"), Some(-2.5));
        m.observe("h", 4.0);
        m.observe("h", 6.0);
        assert_eq!(m.histogram("h").unwrap().sum(), 10.0);
    }

    #[test]
    fn histogram_keeps_repeated_samples() {
        let mut h = Histogram::default();
        for v in [3.0, 1.0, 3.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.percentile(25.0), 1.0);
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(Histogram::default().max(), 0.0);
    }
}
