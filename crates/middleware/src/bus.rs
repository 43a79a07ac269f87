//! In-process topic bus.
//!
//! Publishers serialize messages once through the [`crate::codec`] and
//! fan the bytes out to every subscriber queue. Queues are bounded;
//! when full, the **oldest** message is dropped — the freshness-over-
//! completeness policy the paper's VDP links rely on (a queue capacity
//! of 1 is exactly the "one-length queue" of §VI).

use crate::codec::{from_bytes, to_bytes, CodecError, Wire};
use crate::topic::TopicName;
use bytes::Bytes;
use lgv_trace::{MsgId, TraceEvent, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock without poisoning: a thread that panicked while holding a bus
/// lock does not make the bus unusable for every other thread. Every
/// update made under these locks leaves the queues and counters valid
/// at each step, so the recovered guard sees consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct SubQueue {
    cap: usize,
    /// Payload plus the lineage id of its publish.
    queue: Mutex<VecDeque<(Bytes, MsgId)>>,
    dropped: Mutex<u64>,
}

impl SubQueue {
    /// Enqueue; returns the lineage id of the oldest message when a
    /// full queue dropped it.
    fn push(&self, b: Bytes, msg: MsgId) -> Option<MsgId> {
        let mut q = lock(&self.queue);
        let dropped = if q.len() == self.cap {
            let (_, old) = q.pop_front().expect("cap > 0");
            *lock(&self.dropped) += 1;
            Some(old)
        } else {
            None
        };
        q.push_back((b, msg));
        dropped
    }
}

#[derive(Debug, Default)]
struct TopicState {
    subs: Vec<Arc<SubQueue>>,
    latest: Option<Bytes>,
    publish_count: u64,
}

#[derive(Debug, Default)]
struct BusInner {
    topics: HashMap<TopicName, TopicState>,
    tracer: Tracer,
}

/// A shared in-process message bus (one per host: the LGV runs one,
/// each remote VM runs one).
#[derive(Debug, Clone, Default)]
pub struct Bus {
    inner: Arc<Mutex<BusInner>>,
}

impl Bus {
    /// Fresh, empty bus.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Subscribe to a topic with a bounded queue of `cap` messages.
    pub fn subscribe(&self, topic: TopicName, cap: usize) -> Subscriber {
        assert!(cap > 0, "queue capacity must be at least 1");
        let q = Arc::new(SubQueue {
            cap,
            queue: Mutex::new(VecDeque::with_capacity(cap)),
            dropped: Mutex::new(0),
        });
        lock(&self.inner)
            .topics
            .entry(topic)
            .or_default()
            .subs
            .push(q.clone());
        Subscriber { queue: q, topic }
    }

    /// Route this bus's publish/drop events to `tracer` (timestamps
    /// come from the tracer's shared virtual clock).
    pub fn set_tracer(&self, tracer: Tracer) {
        lock(&self.inner).tracer = tracer;
    }

    /// Publish raw bytes to a topic, returning the lineage id
    /// allocated to the message ([`MsgId::NONE`] when untraced).
    pub fn publish_bytes(&self, topic: TopicName, bytes: Bytes) -> MsgId {
        self.publish_bytes_from(topic, bytes, MsgId::NONE)
    }

    /// Like [`Bus::publish_bytes`], but records `parent` as the
    /// message's lineage origin — used when relaying a message that
    /// was first published on a peer host's bus, so traces chain the
    /// re-publication back to the original publish.
    pub fn publish_bytes_from(&self, topic: TopicName, bytes: Bytes, parent: MsgId) -> MsgId {
        let mut inner = lock(&self.inner);
        let len = bytes.len() as u64;
        let msg = inner.tracer.alloc_msg();
        let state = inner.topics.entry(topic).or_default();
        state.publish_count += 1;
        state.latest = Some(bytes.clone());
        let mut drops = Vec::new();
        for s in &state.subs {
            if let Some(old) = s.push(bytes.clone(), msg) {
                drops.push(old);
            }
        }
        let fanout = state.subs.len() as u32;
        inner.tracer.emit_with(|| TraceEvent::BusPublish {
            topic: topic.as_str().to_string(),
            bytes: len,
            fanout,
            msg,
            parent,
        });
        for old in drops {
            inner.tracer.emit_with(|| TraceEvent::BusDrop {
                topic: topic.as_str().to_string(),
                msg: old,
            });
        }
        msg
    }

    /// Encode and publish a message, returning its lineage id.
    pub fn publish<T: Wire>(&self, topic: TopicName, msg: &T) -> Result<MsgId, CodecError> {
        let b = to_bytes(msg)?;
        Ok(self.publish_bytes(topic, b))
    }

    /// Encode and publish with an explicit lineage parent.
    pub fn publish_from<T: Wire>(
        &self,
        topic: TopicName,
        msg: &T,
        parent: MsgId,
    ) -> Result<MsgId, CodecError> {
        let b = to_bytes(msg)?;
        Ok(self.publish_bytes_from(topic, b, parent))
    }

    /// The most recently published bytes on a topic ("latched" read,
    /// like a ROS latched topic), regardless of subscriptions.
    pub fn latest_bytes(&self, topic: TopicName) -> Option<Bytes> {
        lock(&self.inner)
            .topics
            .get(&topic)
            .and_then(|t| t.latest.clone())
    }

    /// Decode the most recent message on a topic.
    pub fn latest<T: Wire>(&self, topic: TopicName) -> Option<T> {
        self.latest_bytes(topic).and_then(|b| from_bytes(&b).ok())
    }

    /// Total messages ever published on a topic.
    pub fn publish_count(&self, topic: TopicName) -> u64 {
        lock(&self.inner)
            .topics
            .get(&topic)
            .map_or(0, |t| t.publish_count)
    }
}

/// A subscription handle with its own bounded queue.
#[derive(Debug, Clone)]
pub struct Subscriber {
    queue: Arc<SubQueue>,
    topic: TopicName,
}

impl Subscriber {
    /// Pop the oldest queued raw message.
    pub fn recv_bytes(&self) -> Option<Bytes> {
        self.recv_bytes_tagged().map(|(b, _)| b)
    }

    /// Pop the oldest queued raw message with its lineage id.
    pub fn recv_bytes_tagged(&self) -> Option<(Bytes, MsgId)> {
        lock(&self.queue.queue).pop_front()
    }

    /// Pop and decode the oldest queued message.
    pub fn recv<T: Wire>(&self) -> Result<Option<T>, CodecError> {
        match self.recv_bytes() {
            None => Ok(None),
            Some(b) => from_bytes(&b).map(Some),
        }
    }

    /// Drain the queue, returning only the newest message (the common
    /// freshness pattern for one-length control queues).
    pub fn recv_latest<T: Wire>(&self) -> Result<Option<T>, CodecError> {
        Ok(self.recv_latest_tagged()?.map(|(msg, _)| msg))
    }

    /// Like [`Subscriber::recv_latest`], keeping the lineage id so the
    /// consumer can attribute downstream work to the message.
    pub fn recv_latest_tagged<T: Wire>(&self) -> Result<Option<(T, MsgId)>, CodecError> {
        let mut last = None;
        while let Some(pair) = self.recv_bytes_tagged() {
            last = Some(pair);
        }
        match last {
            None => Ok(None),
            Some((b, id)) => Ok(Some((from_bytes(&b)?, id))),
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        lock(&self.queue.queue).len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Messages dropped from this queue because it was full.
    pub fn dropped(&self) -> u64 {
        *lock(&self.queue.dropped)
    }

    /// The subscribed topic.
    pub fn topic(&self) -> TopicName {
        self.topic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_types::prelude::*;

    #[test]
    fn pub_sub_roundtrip() {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::CMD_VEL, 4);
        bus.publish(TopicName::CMD_VEL, &Twist::new(0.1, 0.2))
            .unwrap();
        let t: Twist = sub.recv().unwrap().expect("message queued");
        assert_eq!(t, Twist::new(0.1, 0.2));
        assert!(sub.recv::<Twist>().unwrap().is_none());
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let bus = Bus::new();
        let a = bus.subscribe(TopicName::SCAN, 2);
        let b = bus.subscribe(TopicName::SCAN, 2);
        bus.publish(TopicName::SCAN, &7u32).unwrap();
        assert_eq!(a.recv::<u32>().unwrap(), Some(7));
        assert_eq!(b.recv::<u32>().unwrap(), Some(7));
    }

    #[test]
    fn one_length_queue_keeps_freshest() {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::CMD_VEL, 1);
        for i in 0..5u32 {
            bus.publish(TopicName::CMD_VEL, &i).unwrap();
        }
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.recv::<u32>().unwrap(), Some(4));
        assert_eq!(sub.dropped(), 4);
    }

    #[test]
    fn recv_latest_drains() {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::POSE, 8);
        for i in 0..5u32 {
            bus.publish(TopicName::POSE, &i).unwrap();
        }
        assert_eq!(sub.recv_latest::<u32>().unwrap(), Some(4));
        assert!(sub.is_empty());
    }

    #[test]
    fn latched_latest_without_subscription() {
        let bus = Bus::new();
        bus.publish(TopicName::MAP, &42u64).unwrap();
        assert_eq!(bus.latest::<u64>(TopicName::MAP), Some(42));
        assert_eq!(bus.latest::<u64>(TopicName::PLAN), None);
        assert_eq!(bus.publish_count(TopicName::MAP), 1);
    }

    #[test]
    fn subscription_only_sees_later_messages() {
        let bus = Bus::new();
        bus.publish(TopicName::ODOM, &1u32).unwrap();
        let sub = bus.subscribe(TopicName::ODOM, 4);
        assert!(sub.is_empty());
        bus.publish(TopicName::ODOM, &2u32).unwrap();
        assert_eq!(sub.recv::<u32>().unwrap(), Some(2));
    }

    #[test]
    fn traced_publishes_carry_lineage() {
        use lgv_trace::RingBufferSink;
        let bus = Bus::new();
        let tracer = Tracer::enabled();
        let ring = tracer.attach(RingBufferSink::new(16));
        bus.set_tracer(tracer);
        let sub = bus.subscribe(TopicName::SCAN, 1);
        let m1 = bus.publish(TopicName::SCAN, &1u32).unwrap();
        let m2 = bus.publish_from(TopicName::SCAN, &2u32, m1).unwrap();
        assert_eq!(m1, MsgId(1));
        assert_eq!(m2, MsgId(2));
        // The one-length queue kept the fresh message, tagged with m2.
        assert_eq!(sub.recv_latest_tagged::<u32>().unwrap(), Some((2, m2)));
        let ring = ring.lock().unwrap();
        let parents: Vec<MsgId> = ring
            .records()
            .filter_map(|r| match &r.event {
                TraceEvent::BusPublish { parent, .. } => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(parents, vec![MsgId::NONE, m1]);
        let drops: Vec<MsgId> = ring
            .records()
            .filter_map(|r| match &r.event {
                TraceEvent::BusDrop { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![m1]);
    }

    #[test]
    fn bus_clones_share_state() {
        let bus = Bus::new();
        let bus2 = bus.clone();
        let sub = bus.subscribe(TopicName::GOAL, 2);
        bus2.publish(TopicName::GOAL, &9u8).unwrap();
        assert_eq!(sub.recv::<u8>().unwrap(), Some(9));
    }

    #[test]
    #[should_panic(expected = "queue capacity must be at least 1")]
    fn zero_capacity_subscription_panics() {
        let _ = Bus::new().subscribe(TopicName::SCAN, 0);
    }

    #[test]
    fn an_undecodable_payload_is_an_error_not_a_panic() {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::PLAN, 4);
        bus.publish_bytes(TopicName::PLAN, Bytes::from_static(&[1, 2]));
        assert!(sub.recv::<u64>().is_err());
        // The latched copy is garbage too: `latest` reports nothing.
        assert_eq!(bus.latest::<u64>(TopicName::PLAN), None);
        assert_eq!(bus.latest_bytes(TopicName::PLAN).unwrap()[..], [1, 2]);
        bus.publish_bytes(TopicName::PLAN, Bytes::from_static(&[3]));
        assert!(sub.recv_latest::<u64>().is_err());
        assert!(sub.is_empty());
    }

    #[test]
    fn each_subscriber_counts_its_own_drops() {
        let bus = Bus::new();
        let small = bus.subscribe(TopicName::ODOM, 1);
        let large = bus.subscribe(TopicName::ODOM, 3);
        for v in 0..3u32 {
            bus.publish(TopicName::ODOM, &v).unwrap();
        }
        assert_eq!((small.dropped(), small.len()), (2, 1));
        assert_eq!((large.dropped(), large.len()), (0, 3));
        assert_eq!(small.topic(), TopicName::ODOM);
        assert_eq!(bus.publish_count(TopicName::ODOM), 3);
        assert_eq!(bus.publish_count(TopicName::SCAN), 0);
        assert_eq!(large.recv::<u32>().unwrap(), Some(0));
    }
}
