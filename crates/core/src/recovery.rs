//! Failure-recovery policy knobs.
//!
//! PR 3's crash recovery hardcoded its constants: an 8 s migration
//! rebuild horizon, a 1.5 s cloud-liveness heartbeat, and a 2 s → 30 s
//! exponential re-offload backoff. The horizon and the two recovery
//! mechanisms this layer grew later live here; the heartbeat and
//! backoff belong to Algorithm 2's controller
//! ([`HEARTBEAT_TIMEOUT`](crate::netctl::HEARTBEAT_TIMEOUT),
//! [`BACKOFF_BASE`](crate::netctl::BACKOFF_BASE),
//! [`BACKOFF_CAP`](crate::netctl::BACKOFF_CAP)). [`RecoveryConfig`]
//! switches the mechanisms on:
//!
//! * **Checkpointed re-offload** ([`RecoveryConfig::checkpoints`]):
//!   while a node set runs remotely, the session streams a compact
//!   snapshot of the offloaded state over the migration TCP path every
//!   [`CHECKPOINT_INTERVAL`]. When the remote crashes, the rebuild only
//!   has to cover the time since the last completed checkpoint instead
//!   of the full rebuild horizon — bounded re-compute instead of a cold
//!   rebuild.
//! * **Degraded-mode autonomy** ([`RecoveryConfig::degraded`]): when a
//!   blackout persists or re-offload keeps failing, the session drops
//!   the local pipeline to reduced fidelity (fewer SLAM particles,
//!   coarser DWA sampling) so the 200 ms control deadline keeps being
//!   met on vehicle silicon, and restores full fidelity — with
//!   hysteresis — once the cloud is healthy again.
//!
//! The `Default` configuration reproduces the pre-config behavior
//! byte for byte: same constants, checkpoints off, degraded mode off.

use lgv_types::prelude::*;

/// How long a crash-abandoned migration may rebuild remote state
/// before the session falls back to cold local execution (and how long
/// the cold fallback waits before clearing): freshly-invoked nodes
/// rebuild equivalent state from live sensor data on this scale (the
/// costmap's obstacle history ages out on it anyway). Doubles as the
/// migration deadline: a transfer still in flight at this point
/// delivers state the destination no longer needs.
pub const REBUILD_HORIZON: Duration = Duration::from_secs(8);

/// Checkpoint cadence while offloaded, with checkpoints on.
pub const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(2);

/// Checkpoint size as a fraction of the full migration state
/// (incremental snapshots are much smaller than a cold transfer).
pub const CHECKPOINT_FRACTION: f64 = 0.25;

// Degraded mode's two thresholds are hysteresis guards: entry requires
// the stress condition to hold continuously for `DEGRADED_TRIGGER_AFTER`,
// and exit requires continuous health for `DEGRADED_RESTORE_HOLD` — a
// link that flaps faster than either window never toggles the mode.

/// Continuous stress (blackout or exhausted re-offload backoff)
/// required before fidelity drops.
pub const DEGRADED_TRIGGER_AFTER: Duration = Duration::from_secs(3);
/// Continuous health required before full fidelity is restored.
pub const DEGRADED_RESTORE_HOLD: Duration = Duration::from_secs(5);
/// SLAM particle count while degraded (clamped to the configured
/// count; the filter keeps its best particle across the switch).
pub const DEGRADED_SLAM_PARTICLES: usize = 4;
/// DWA trajectory-sample budget while degraded.
pub const DEGRADED_DWA_SAMPLES: u32 = 100;

const _: () = assert!(
    DEGRADED_RESTORE_HOLD.as_nanos() > DEGRADED_TRIGGER_AFTER.as_nanos(),
    "hysteresis is asymmetric"
);
const _: () = assert!(DEGRADED_SLAM_PARTICLES >= 1 && DEGRADED_DWA_SAMPLES >= 12);

/// Recovery-policy configuration, threaded through
/// [`MissionConfig`](crate::mission::MissionConfig) (and from there
/// through [`FleetConfig`](crate::fleet::FleetConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryConfig {
    /// Stream a checkpoint every [`CHECKPOINT_INTERVAL`] while
    /// offloaded. Off keeps the pre-checkpoint behavior.
    pub checkpoints: bool,
    /// Drop to reduced fidelity under a sustained outage. Off keeps
    /// full fidelity no matter how long the outage lasts (the
    /// pre-degraded behavior).
    pub degraded: bool,
}

impl RecoveryConfig {
    /// Enable checkpointed re-offload.
    pub fn with_checkpoints(mut self) -> Self {
        self.checkpoints = true;
        self
    }

    /// Enable degraded-mode autonomy.
    pub fn with_degraded(mut self) -> Self {
        self.degraded = true;
        self
    }

    /// The full recovery posture: checkpoints plus degraded mode —
    /// what the chaos-fleet scenario runs.
    pub fn resilient() -> Self {
        RecoveryConfig::default().with_checkpoints().with_degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netctl::{BACKOFF_BASE, BACKOFF_CAP, HEARTBEAT_TIMEOUT};

    #[test]
    fn defaults_reproduce_the_historical_constants() {
        let cfg = RecoveryConfig::default();
        assert_eq!(REBUILD_HORIZON, Duration::from_secs(8));
        assert_eq!(HEARTBEAT_TIMEOUT, Duration::from_millis(1500));
        assert_eq!(BACKOFF_BASE, Duration::from_secs(2));
        assert_eq!(BACKOFF_CAP, Duration::from_secs(30));
        assert!(!cfg.checkpoints);
        assert!(!cfg.degraded);
    }

    #[test]
    fn resilient_enables_both_mechanisms() {
        let cfg = RecoveryConfig::resilient();
        assert!(cfg.checkpoints);
        assert_eq!(CHECKPOINT_INTERVAL, Duration::from_secs(2));
        assert!(cfg.degraded);
    }

    #[test]
    fn each_builder_enables_only_its_own_mechanism() {
        let c = RecoveryConfig::default().with_checkpoints();
        assert!(c.checkpoints && !c.degraded);
        let d = RecoveryConfig::default().with_degraded();
        assert!(d.degraded && !d.checkpoints);
        assert_eq!(c.with_degraded(), RecoveryConfig::resilient());
    }
}
