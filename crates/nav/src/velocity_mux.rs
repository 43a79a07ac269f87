//! Priority-based velocity multiplexer (the VelocityMux node).
//!
//! Modelled on Yujin Robot's `yocs_cmd_vel_mux`, the implementation
//! the paper uses: each velocity source has a priority and a timeout;
//! the multiplexer forwards the highest-priority source that has
//! published recently, falling back to a stop command when everything
//! has expired. It is the last hop of the VDP (Fig. 2, node 7) and
//! computationally negligible (Table II lists no cycles for it).

use lgv_types::prelude::*;
use std::collections::HashMap;

/// A source's command expires after this long without refresh, until
/// [`VelocityMux::set_timeout`] changes it.
pub const BASE_TIMEOUT: Duration = Duration::from_millis(600);

/// The multiplexer.
#[derive(Debug, Clone)]
pub struct VelocityMux {
    timeout: Duration,
    latest: HashMap<VelocitySource, VelocityCmd>,
}

impl Default for VelocityMux {
    fn default() -> Self {
        VelocityMux::new()
    }
}

impl VelocityMux {
    /// A multiplexer with no commands and the [`BASE_TIMEOUT`].
    pub fn new() -> Self {
        VelocityMux {
            timeout: BASE_TIMEOUT,
            latest: HashMap::new(),
        }
    }

    /// Adjust the staleness timeout at runtime (the mission Controller
    /// tracks the VDP makespan: a slow pipeline legitimately delivers
    /// commands at a lower rate).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Accept a command from a source.
    pub fn submit(&mut self, cmd: VelocityCmd) {
        self.latest.insert(cmd.source, cmd);
    }

    /// Select the active command at `now`: the freshest command of the
    /// highest-priority non-expired source. Returns a STOP command
    /// (Navigation-sourced) when everything has expired.
    pub fn select(&mut self, now: SimTime) -> VelocityCmd {
        // Evict expired entries.
        let timeout = self.timeout;
        self.latest
            .retain(|_, c| now.saturating_since(c.stamp) <= timeout);

        let best = self.latest.values().max_by_key(|c| c.source).copied();
        best.unwrap_or(VelocityCmd {
            stamp: now,
            twist: Twist::STOP,
            source: VelocitySource::Navigation,
        })
    }

    /// The per-activation cycle demand (constant and tiny).
    pub fn work(&self) -> Work {
        Work::serial(5_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(ms: u64, v: f64, source: VelocitySource) -> VelocityCmd {
        VelocityCmd {
            stamp: SimTime::EPOCH + Duration::from_millis(ms),
            twist: Twist::new(v, 0.0),
            source,
        }
    }

    #[test]
    fn forwards_single_source() {
        let mut mux = VelocityMux::new();
        mux.submit(cmd(0, 0.2, VelocitySource::Navigation));
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(100));
        assert_eq!(out.twist.linear, 0.2);
        assert_eq!(out.source, VelocitySource::Navigation);
    }

    #[test]
    fn higher_priority_wins() {
        let mut mux = VelocityMux::new();
        mux.submit(cmd(0, 0.2, VelocitySource::Navigation));
        mux.submit(cmd(10, 0.0, VelocitySource::SafetyController));
        mux.submit(cmd(5, 0.1, VelocitySource::Joystick));
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(100));
        assert_eq!(out.source, VelocitySource::SafetyController);
        assert_eq!(out.twist, Twist::STOP);
    }

    #[test]
    fn expired_source_falls_through() {
        let mut mux = VelocityMux::new();
        mux.submit(cmd(0, 0.0, VelocitySource::SafetyController));
        mux.submit(cmd(800, 0.2, VelocitySource::Navigation));
        // At t=1s the safety command (stamped t=0) has expired.
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(1000));
        assert_eq!(out.source, VelocitySource::Navigation);
        assert_eq!(out.twist.linear, 0.2);
    }

    #[test]
    fn all_expired_yields_stop() {
        let mut mux = VelocityMux::new();
        mux.submit(cmd(0, 0.2, VelocitySource::Navigation));
        let out = mux.select(SimTime::EPOCH + Duration::from_secs(5));
        assert!(out.twist.is_stop());
    }

    #[test]
    fn refresh_keeps_source_alive() {
        let mut mux = VelocityMux::new();
        for k in 0..10 {
            mux.submit(cmd(k * 200, 0.15, VelocitySource::Navigation));
        }
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(2000));
        assert_eq!(out.twist.linear, 0.15);
    }

    #[test]
    fn work_is_negligible() {
        let mux = VelocityMux::new();
        assert!(mux.work().total_cycles() < 1e5);
    }

    #[test]
    fn timeout_is_inclusive_and_configurable() {
        let at = |ns: u64| SimTime::EPOCH + Duration::from_nanos(ns);
        let mut mux = VelocityMux::new();
        mux.submit(cmd(0, 0.2, VelocitySource::Joystick));
        let edge = BASE_TIMEOUT.as_nanos();
        assert_eq!(mux.select(at(edge)).source, VelocitySource::Joystick);
        let stop = mux.select(at(edge + 1));
        assert!(stop.twist.is_stop());
        assert_eq!(
            (stop.stamp, stop.source),
            (at(edge + 1), VelocitySource::Navigation)
        );

        mux.set_timeout(Duration::from_millis(100));
        mux.submit(cmd(0, 0.2, VelocitySource::Joystick));
        assert!(mux.select(at(150_000_000)).twist.is_stop());
    }

    #[test]
    fn a_newer_command_replaces_its_source() {
        let mut mux = VelocityMux::default();
        mux.submit(cmd(0, 0.1, VelocitySource::Navigation));
        mux.submit(cmd(50, 0.2, VelocitySource::Navigation));
        let out = mux.select(SimTime::EPOCH + Duration::from_millis(100));
        assert_eq!(out.twist.linear, 0.2);
        assert_eq!(out.stamp, SimTime::EPOCH + Duration::from_millis(50));
    }
}
