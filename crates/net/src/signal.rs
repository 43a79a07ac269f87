//! Radio signal model.
//!
//! Received signal strength follows the standard log-distance path
//! loss model: `RSSI(d) = P_tx − L₀ − 10·n·log₁₀(d/d₀)`. From the
//! RSSI we derive (a) a packet-loss probability via a logistic curve
//! and (b) the *weak-signal* condition under which the wireless driver
//! blocks the kernel buffer (paper Fig. 7).

use crate::fault::FaultSchedule;
use lgv_types::prelude::*;

/// Transmit power (dBm).
pub const TX_POWER_DBM: f64 = 15.0;
/// Path-loss exponent `n` (2 free space, 2.5–4 indoors).
pub const PATH_LOSS_EXP: f64 = 3.0;
/// RSSI below which the driver considers the signal weak and blocks
/// the kernel buffer (dBm).
pub const WEAK_RSSI_DBM: f64 = -72.0;
/// Steepness of the loss logistic (per dB).
pub const LOSS_STEEPNESS: f64 = 0.8;
/// Link bandwidth (bits/s).
pub const BANDWIDTH_BPS: f64 = 20e6;
/// Propagation + MAC base latency.
pub const BASE_LATENCY: Duration = Duration::from_millis(2);

/// Radio configuration for a 5 GHz WiFi link (paper §VIII-A). The
/// settings no scenario varies are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct WirelessConfig {
    /// Reference path loss at 1 m (dB). ~46 dB for 5 GHz.
    pub ref_loss_db: f64,
    /// RSSI at which packet loss reaches 50 % (dBm).
    pub loss_mid_dbm: f64,
    /// Uniform jitter bound added per packet.
    pub jitter: Duration,
}

impl Default for WirelessConfig {
    fn default() -> Self {
        WirelessConfig {
            ref_loss_db: 46.0,
            loss_mid_dbm: -76.0,
            jitter: Duration::from_millis(1),
        }
    }
}

impl WirelessConfig {
    /// A config whose weak-signal boundary sits at roughly `radius`
    /// metres from the WAP — convenient for staging the Fig. 11
    /// experiment geometry.
    pub fn with_weak_radius(mut self, radius: f64) -> Self {
        // Solve RSSI(radius) = weak_rssi for ref_loss.
        self.ref_loss_db =
            TX_POWER_DBM - WEAK_RSSI_DBM - 10.0 * PATH_LOSS_EXP * radius.max(0.1).log10();
        self
    }
}

/// The signal model anchored at a WAP position.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalModel {
    cfg: WirelessConfig,
    /// WAP position in the world frame.
    pub wap: Point2,
    /// Scripted fault windows overlaid on the smooth path-loss model
    /// (empty by default). Radio faults alter the time-aware queries
    /// ([`Self::is_weak_at`], [`Self::loss_prob_at`],
    /// [`Self::tx_delay_at`]); a remote-host crash deliberately does
    /// *not* — the radio is healthy, only the far end is dead.
    faults: FaultSchedule,
}

impl SignalModel {
    /// Build a model for a WAP at `wap`.
    pub fn new(cfg: WirelessConfig, wap: Point2) -> Self {
        SignalModel {
            cfg,
            wap,
            faults: FaultSchedule::default(),
        }
    }

    /// Radio configuration.
    pub fn config(&self) -> &WirelessConfig {
        &self.cfg
    }

    /// Overlay scripted fault windows on the radio model.
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// The scripted fault windows (empty when none were installed).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// RSSI (dBm) at a robot position.
    pub fn rssi_at(&self, robot: Point2) -> f64 {
        let d = robot.distance(self.wap).max(0.1);
        TX_POWER_DBM - self.cfg.ref_loss_db - 10.0 * PATH_LOSS_EXP * d.log10()
    }

    /// Is the driver in the weak-signal (buffer-blocking) regime here?
    pub fn is_weak(&self, robot: Point2) -> bool {
        self.rssi_at(robot) < WEAK_RSSI_DBM
    }

    /// Per-packet loss probability at a robot position (logistic in
    /// RSSI; ~0 near the WAP, →1 far outside range).
    pub fn loss_prob(&self, robot: Point2) -> f64 {
        let rssi = self.rssi_at(robot);
        1.0 / (1.0 + ((rssi - self.cfg.loss_mid_dbm) * LOSS_STEEPNESS).exp())
    }

    /// Transmission delay for a packet of `bytes` at this position
    /// (base latency + serialization; jitter is added by the channel).
    pub fn tx_delay(&self, bytes: usize) -> Duration {
        BASE_LATENCY + self.serialization_delay(bytes)
    }

    /// The airtime a packet of `bytes` occupies on the medium
    /// (`bytes·8 / bandwidth`) — the unit of contention when several
    /// senders share one access point
    /// ([`crate::shared::SharedMedium`]).
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / BANDWIDTH_BPS)
    }

    /// Distance from a robot position to the WAP.
    pub fn distance(&self, robot: Point2) -> f64 {
        robot.distance(self.wap)
    }

    /// Time-aware [`Self::is_weak`]: a blackout window forces the
    /// weak-signal (buffer-blocking) regime everywhere.
    pub fn is_weak_at(&self, robot: Point2, now: SimTime) -> bool {
        self.faults.blackout_at(now) || self.is_weak(robot)
    }

    /// Time-aware [`Self::loss_prob`]: a blackout window loses every
    /// packet regardless of position.
    pub fn loss_prob_at(&self, robot: Point2, now: SimTime) -> f64 {
        if self.faults.blackout_at(now) {
            return 1.0;
        }
        self.loss_prob(robot)
    }

    /// Time-aware [`Self::tx_delay`]: latency-spike windows add their
    /// extra one-way delay.
    pub fn tx_delay_at(&self, bytes: usize, now: SimTime) -> Duration {
        self.tx_delay(bytes) + self.faults.extra_latency_at(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    fn model() -> SignalModel {
        SignalModel::new(WirelessConfig::default(), Point2::new(0.0, 0.0))
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let m = model();
        let near = m.rssi_at(Point2::new(1.0, 0.0));
        let mid = m.rssi_at(Point2::new(5.0, 0.0));
        let far = m.rssi_at(Point2::new(25.0, 0.0));
        assert!(near > mid && mid > far);
    }

    #[test]
    fn rssi_follows_log_distance_slope() {
        let m = model();
        // ×10 distance → −10·n dB.
        let a = m.rssi_at(Point2::new(1.0, 0.0));
        let b = m.rssi_at(Point2::new(10.0, 0.0));
        assert!((a - b - 30.0).abs() < 1e-9, "{}", a - b);
    }

    #[test]
    fn loss_prob_is_probability_and_monotone() {
        let m = model();
        let mut prev = 0.0;
        for d in [1.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let p = m.loss_prob(Point2::new(d, 0.0));
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev, "loss must not decrease with distance");
            prev = p;
        }
        assert!(m.loss_prob(Point2::new(1.0, 0.0)) < 0.01);
        assert!(m.loss_prob(Point2::new(100.0, 0.0)) > 0.9);
    }

    #[test]
    fn weak_region_is_far_from_wap() {
        let m = model();
        assert!(!m.is_weak(Point2::new(2.0, 0.0)));
        assert!(m.is_weak(Point2::new(60.0, 0.0)));
    }

    #[test]
    fn weak_radius_helper_places_boundary() {
        let cfg = WirelessConfig::default().with_weak_radius(20.0);
        let m = SignalModel::new(cfg, Point2::new(0.0, 0.0));
        assert!(!m.is_weak(Point2::new(19.0, 0.0)));
        assert!(m.is_weak(Point2::new(21.0, 0.0)));
    }

    #[test]
    fn tx_delay_scales_with_size() {
        let m = model();
        let small = m.tx_delay(48);
        let big = m.tx_delay(48_000);
        assert!(big > small);
        // 48 kB at 20 Mb/s ≈ 19.2 ms + 2 ms base.
        assert!(
            (big.as_millis_f64() - 21.2).abs() < 0.5,
            "{}",
            big.as_millis_f64()
        );
    }

    #[test]
    fn rssi_clamps_tiny_distances() {
        let m = model();
        // At the WAP itself we clamp to 0.1 m instead of +∞ dB.
        let r = m.rssi_at(Point2::new(0.0, 0.0));
        assert!(r.is_finite());
    }

    #[test]
    fn blackout_window_forces_certain_loss() {
        let mut m = model();
        let robot = Point2::new(1.0, 0.0);
        m.set_faults(FaultSchedule::none().with(1.0, 2.0, FaultKind::Blackout));
        assert_eq!(m.faults().windows().len(), 1);
        let inside = SimTime::from_secs_f64(2.0);
        let after = SimTime::from_secs_f64(3.0);
        assert_eq!(m.loss_prob_at(robot, inside), 1.0);
        assert!(m.is_weak_at(robot, inside));
        assert_eq!(m.loss_prob_at(robot, after), m.loss_prob(robot));
        assert_eq!(m.is_weak_at(robot, after), m.is_weak(robot));
    }

    #[test]
    fn latency_spikes_add_to_tx_delay_inside_their_window() {
        let mut m = model();
        let extra = Duration::from_millis(40);
        m.set_faults(FaultSchedule::none().with(0.0, 1.0, FaultKind::LatencySpike { extra }));
        assert_eq!(
            m.tx_delay_at(1000, SimTime::EPOCH),
            m.tx_delay(1000) + extra
        );
        assert_eq!(
            m.tx_delay_at(1000, SimTime::from_secs_f64(1.0)),
            m.tx_delay(1000)
        );
        assert_eq!(m.tx_delay(0), BASE_LATENCY);
        assert_eq!(m.distance(Point2::new(3.0, 4.0)), 5.0);
    }
}
