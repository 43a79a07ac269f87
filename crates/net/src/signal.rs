//! Radio signal model.
//!
//! Received signal strength follows the standard log-distance path
//! loss model: `RSSI(d) = P_tx − L₀ − 10·n·log₁₀(d/d₀)`. From the
//! RSSI we derive (a) a packet-loss probability via a logistic curve
//! and (b) the *weak-signal* condition under which the wireless driver
//! blocks the kernel buffer (paper Fig. 7).

use crate::fault::FaultSchedule;
use lgv_types::prelude::*;

/// Radio configuration for a 5 GHz WiFi link (paper §VIII-A).
#[derive(Debug, Clone, PartialEq)]
pub struct WirelessConfig {
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// Reference path loss at 1 m (dB). ~46 dB for 5 GHz.
    pub ref_loss_db: f64,
    /// Path-loss exponent `n` (2 free space, 2.5–4 indoors).
    pub path_loss_exp: f64,
    /// RSSI below which the driver considers the signal weak and
    /// blocks the kernel buffer (dBm).
    pub weak_rssi_dbm: f64,
    /// RSSI at which packet loss reaches 50 % (dBm).
    pub loss_mid_dbm: f64,
    /// Steepness of the loss logistic (per dB).
    pub loss_steepness: f64,
    /// Link bandwidth (bits/s).
    pub bandwidth_bps: f64,
    /// Propagation + MAC base latency.
    pub base_latency: Duration,
    /// Uniform jitter bound added per packet.
    pub jitter: Duration,
}

impl Default for WirelessConfig {
    fn default() -> Self {
        WirelessConfig {
            tx_power_dbm: 15.0,
            ref_loss_db: 46.0,
            path_loss_exp: 3.0,
            weak_rssi_dbm: -72.0,
            loss_mid_dbm: -76.0,
            loss_steepness: 0.8,
            bandwidth_bps: 20e6,
            base_latency: Duration::from_millis(2),
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
        self.ref_loss_db = self.tx_power_dbm
            - self.weak_rssi_dbm
            - 10.0 * self.path_loss_exp * radius.max(0.1).log10();
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
        self.cfg.tx_power_dbm - self.cfg.ref_loss_db - 10.0 * self.cfg.path_loss_exp * d.log10()
    }

    /// Is the driver in the weak-signal (buffer-blocking) regime here?
    pub fn is_weak(&self, robot: Point2) -> bool {
        self.rssi_at(robot) < self.cfg.weak_rssi_dbm
    }

    /// Per-packet loss probability at a robot position (logistic in
    /// RSSI; ~0 near the WAP, →1 far outside range).
    pub fn loss_prob(&self, robot: Point2) -> f64 {
        let rssi = self.rssi_at(robot);
        1.0 / (1.0 + ((rssi - self.cfg.loss_mid_dbm) * self.cfg.loss_steepness).exp())
    }

    /// Transmission delay for a packet of `bytes` at this position
    /// (base latency + serialization; jitter is added by the channel).
    pub fn tx_delay(&self, bytes: usize) -> Duration {
        self.cfg.base_latency + self.serialization_delay(bytes)
    }

    /// The airtime a packet of `bytes` occupies on the medium
    /// (`bytes·8 / bandwidth`) — the unit of contention when several
    /// senders share one access point
    /// ([`crate::shared::SharedMedium`]).
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.cfg.bandwidth_bps)
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
}
