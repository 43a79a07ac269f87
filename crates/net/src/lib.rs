//! # lgv-net
//!
//! Simulated networking between the LGV and the remote server:
//!
//! * [`signal`] — log-distance path-loss radio model around a wireless
//!   access point (WAP), with a weak-signal region where the driver
//!   blocks the kernel buffer.
//! * [`channel`] — a virtual-time UDP channel reproducing the exact
//!   failure mode of the paper's Fig. 7: under weak signal the driver
//!   holds one packet in the kernel buffer and the non-blocking socket
//!   silently discards the rest, so *measured* latency stays healthy
//!   while real throughput collapses. Also a TCP-like reliable channel
//!   for control traffic.
//! * [`link`] — duplex robot↔server links, with an optional wired WAN
//!   segment modelling the lab→datacenter hop.
//! * [`measure`] — the metrics Algorithm 2 consumes: packet bandwidth
//!   (receive rate), signal direction, and RTT tracking.
//! * [`shared`] — deterministic shared-spectrum contention for fleets:
//!   concurrent uplinks through one WAP stretch each other's airtime.

//! ## Example: the Fig. 7 failure mode in four lines
//!
//! ```
//! use lgv_net::channel::{SendOutcome, UdpChannel};
//! use lgv_net::signal::{SignalModel, WirelessConfig};
//! use lgv_types::prelude::*;
//! use bytes::Bytes;
//!
//! let radio = WirelessConfig::default().with_weak_radius(15.0);
//! let signal = SignalModel::new(radio, Point2::new(0.0, 0.0));
//! let mut ch = UdpChannel::new(signal, Duration::ZERO, SimRng::seed_from_u64(1));
//!
//! let far = Point2::new(40.0, 0.0); // deep in the weak zone
//! let first = ch.send(SimTime::EPOCH, far, Bytes::from_static(b"cmd"));
//! let second = ch.send(SimTime::EPOCH, far, Bytes::from_static(b"cmd"));
//! assert_eq!(first, SendOutcome::HeldInKernelBuffer);
//! assert_eq!(second, SendOutcome::DiscardedFullBuffer); // silent!
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod channel;
pub mod fault;
pub mod link;
pub mod measure;
pub mod shared;
pub mod signal;
pub mod tcp;

pub use channel::{Packet, SendOutcome, UdpChannel};
pub use fault::{
    CloudFaultKind, CloudFaultSchedule, FaultClock, FaultEdge, FaultInjector, FaultKind,
    FaultSchedule, Schedule, Window,
};
pub use link::{DuplexLink, LinkConfig, RemoteSite};
pub use measure::{BandwidthMeter, RttTracker, SignalDirectionEstimator};
pub use shared::{MediumStats, SharedMedium};
pub use signal::{SignalModel, WirelessConfig};
pub use tcp::{TcpChannel, TcpStats};
