//! # lgv-middleware
//!
//! A ROS-like publish/subscribe middleware, the programming abstraction
//! the paper's stack runs on (§VII):
//!
//! * [`codec`] — the hand-written [`codec::Wire`] binary format for the
//!   handful of message types that cross the robot–cloud link (the
//!   stand-in for protobuf over evpp).
//! * [`bus`] — an in-process topic bus with bounded per-subscriber
//!   queues; VDP topics use one-length queues for data freshness.
//! * [`service`] — the client/server paradigm of Fig. 2's dashed
//!   arrows (Path Planning serving route requests).
//! * [`topic`] — the standard topic names of the pipeline (Fig. 2).
//! * [`switcher`] — the cross-host message relay: forwards selected
//!   topics over a simulated [`lgv_net::DuplexLink`], attaching
//!   temporal metadata (send stamps, echoed stamps for RTT, remote
//!   node processing times) exactly as the paper's Switcher/Profiler
//!   threads do.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bus;
pub mod codec;
pub mod service;
pub mod switcher;
pub mod topic;

pub use bus::{Bus, Publisher, Subscriber};
pub use codec::{from_bytes, to_bytes, CodecError, Wire};
pub use service::{ServiceClient, ServiceServer};
pub use switcher::{Envelope, Switcher, SwitcherConfig};
pub use topic::TopicName;
