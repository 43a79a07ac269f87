//! The Rao-Blackwellized particle filter (GMapping).
//!
//! Pipeline per scan (paper Fig. 6):
//!
//! 1. **propagate** every particle through the odometry motion model
//!    (serial, cheap);
//! 2. **scanMatch** every particle against its own map and integrate
//!    the scan — the 98 %-of-compute phase, distributed `M/N` particles
//!    per thread by the [`ParallelExecutor`];
//! 3. **updateTreeWeights** — normalize weights, compute `N_eff`
//!    (serial, main thread);
//! 4. **resample** with the low-variance sampler when `N_eff` drops
//!    below the threshold (serial; copies particle maps into the
//!    buffers of the particles it drops, see `GMapping::resample`).
//!
//! Every phase tallies cycles into a [`Work`] record with the correct
//! serial/parallel split, which is what the platform model in
//! `lgv-sim` prices for Figures 9 and 13.

use crate::map::OccupancyGrid;
use crate::motion::{MotionModel, MotionNoise};
use crate::pool::ParallelExecutor;
use crate::scan_match::{ScanCache, ScanMatcher};
use lgv_trace::prof;
use lgv_types::prelude::*;
use lgv_types::rng::low_variance_resample;

/// Cycle-cost constants for SLAM work accounting.
///
/// Calibrated so the default configuration (30 particles, 360-beam
/// LDS-01 at 5 Hz) demands ≈ 3.3 Gcycles/s — the paper's Table II
/// "without a map" Localization (SLAM) figure — with ≈ 98 % of it in
/// `scanMatch`, matching the paper's timestamp measurement (§V).
pub mod cost {
    /// Cycles per beam-likelihood evaluation inside `scanMatch`
    /// (9 grid reads, a world→grid transform, trig). Calibrated so a
    /// 30-particle filter over LDS-01 scans in the lab demands
    /// ≈ 3.3 Gcycles/s at 5 Hz (Table II) — in open rooms roughly half
    /// of all beams are max-range misses that skip evaluation, which
    /// this constant absorbs.
    pub const CYCLES_PER_BEAM_EVAL: f64 = 6000.0;
    /// Cycles per occupancy-grid cell update during scan integration.
    pub const CYCLES_PER_MAP_CELL_UPDATE: f64 = 50.0;
    /// Cycles to draw one motion-model sample.
    pub const CYCLES_PER_MOTION_SAMPLE: f64 = 800.0;
    /// Cycles per particle for weight normalization / N_eff.
    pub const CYCLES_PER_WEIGHT_UPDATE: f64 = 300.0;
    /// Cycles per map cell copied during resampling.
    pub const CYCLES_PER_CELL_COPY: f64 = 1.0;
}

/// Resample when `N_eff < RESAMPLE_NEFF_FRAC · M`. AMCL's default
/// threshold too.
pub const RESAMPLE_NEFF_FRAC: f64 = 0.5;

/// Filter configuration. The scan matcher runs at
/// [`ScanMatcherConfig::default`](crate::scan_match::ScanMatcherConfig)
/// and the motion model at [`MotionNoise::default`].
#[derive(Debug, Clone)]
pub struct SlamConfig {
    /// Particle count `M` (the paper sweeps 10–100 in Fig. 9).
    pub num_particles: usize,
    /// Thread count `N` for the parallel scanMatch (Fig. 6).
    pub threads: usize,
    /// Geometry of each particle's map.
    pub map_dims: GridDims,
    /// Weight-update gain applied to match scores.
    pub score_gain: f64,
}

impl Default for SlamConfig {
    fn default() -> Self {
        SlamConfig {
            num_particles: 30,
            threads: 1,
            map_dims: GridDims::new(400, 400, 0.05, Point2::ORIGIN),
            score_gain: 0.05,
        }
    }
}

/// One filter update's outputs.
#[derive(Debug, Clone)]
pub struct SlamOutput {
    /// Best-particle pose estimate.
    pub pose: PoseEstimate,
    /// Cycle demand of this update (serial + parallel split).
    pub work: Work,
    /// Effective sample size after the weight update.
    pub neff: f64,
    /// Whether resampling fired.
    pub resampled: bool,
    /// Best particle's match score.
    pub best_score: f64,
}

#[derive(Debug, Clone)]
struct Particle {
    pose: Pose2D,
    log_weight: f64,
    map: OccupancyGrid,
    rng: SimRng,
}

/// The GMapping filter.
#[derive(Debug)]
pub struct GMapping {
    cfg: SlamConfig,
    particles: Vec<Particle>,
    /// Particles currently participating in the filter (a prefix of
    /// `particles`). Equal to the configured count at full fidelity;
    /// degraded-mode autonomy lowers it via
    /// [`GMapping::set_active_particles`].
    active: usize,
    matcher: ScanMatcher,
    motion: MotionModel,
    executor: ParallelExecutor,
    last_odom: Option<Pose2D>,
    rng: SimRng,
    best: usize,
    /// Scans processed so far.
    pub scans_processed: u64,
    /// Resampling events so far.
    pub resample_count: u64,
}

impl GMapping {
    /// Build a filter with all particles at `start`.
    pub fn new(cfg: SlamConfig, start: Pose2D, mut rng: SimRng) -> Self {
        assert!(cfg.num_particles > 0, "need at least one particle");
        let particles = (0..cfg.num_particles)
            .map(|i| Particle {
                pose: start,
                log_weight: 0.0,
                map: OccupancyGrid::new(cfg.map_dims),
                rng: rng.fork(i as u64),
            })
            .collect();
        let matcher = ScanMatcher::default();
        let motion = MotionModel::new(MotionNoise::default());
        let executor = ParallelExecutor::new(cfg.threads);
        let active = cfg.num_particles;
        GMapping {
            cfg,
            particles,
            active,
            matcher,
            motion,
            executor,
            last_odom: None,
            rng,
            best: 0,
            scans_processed: 0,
            resample_count: 0,
        }
    }

    /// Particle count.
    pub fn num_particles(&self) -> usize {
        self.particles.len()
    }

    /// Set the fidelity knob: run the filter over the first `k`
    /// particles only (clamped to `1..=num_particles`). Shrinking
    /// keeps the best particle; growing back re-seeds the reactivated
    /// slots from the current best particle (their own state is stale)
    /// with re-forked RNGs so they diverge again. At `k ==
    /// num_particles` from construction the filter is untouched.
    pub fn set_active_particles(&mut self, k: usize) {
        let k = k.clamp(1, self.particles.len());
        if k == self.active {
            return;
        }
        if k < self.active {
            if self.best >= k {
                self.particles.swap(0, self.best);
                self.best = 0;
            }
        } else {
            let best = self.particles[self.best].clone();
            for slot in self.active..k {
                let mut p = best.clone();
                p.log_weight = 0.0;
                p.rng = self.rng.fork(slot as u64);
                self.particles[slot] = p;
            }
        }
        self.active = k;
    }

    /// Change the parallelism degree at runtime (the Controller does
    /// this when migrating the node between platforms).
    pub fn set_threads(&mut self, threads: usize) {
        self.executor = ParallelExecutor::new(threads);
    }

    /// Current best-particle pose.
    pub fn best_pose(&self) -> Pose2D {
        self.particles[self.best].pose
    }

    /// Pose and log-weight of every active particle, in slot order.
    pub fn particle_states(&self) -> impl Iterator<Item = (Pose2D, f64)> + '_ {
        self.particles[..self.active]
            .iter()
            .map(|p| (p.pose, p.log_weight))
    }

    /// Current best-particle map.
    pub fn best_map(&self, stamp: SimTime) -> MapMsg {
        self.particles[self.best].map.to_map_msg(stamp)
    }

    /// Process one odometry + scan pair.
    pub fn process(&mut self, odom: &OdometryMsg, scan: &LaserScan) -> SlamOutput {
        let delta = match self.last_odom {
            Some(last) => last.between(odom.pose),
            None => Pose2D::default(),
        };
        self.last_odom = Some(odom.pose);
        self.scans_processed += 1;

        let m = self.active;
        let mut meter = WorkMeter::new();

        // 1. Propagate (serial).
        {
            let _prof = prof::scope("slam/propagate");
            for p in &mut self.particles[..m] {
                p.pose = self.motion.sample(p.pose, delta, &mut p.rng);
            }
        }
        meter.serial_ops(m as u64, cost::CYCLES_PER_MOTION_SAMPLE);

        // 2. Parallel scanMatch + map integration (Fig. 6: each thread
        //    handles M/N particles). The scan-dependent part of the
        //    matcher's inner loop (hit filtering, skip stride, beam
        //    trig) is hoisted into a ScanCache built once per scan and
        //    shared read-only across all particle threads.
        let matcher = &self.matcher;
        let cache = {
            let _prof = prof::scope("slam/scan_cache");
            ScanCache::new(scan, self.matcher.config().beam_skip)
        };
        let cache = &cache;
        let gain = self.cfg.score_gain;
        let _prof_match = prof::scope("slam/scan_match");
        let chunk_stats = self.executor.run_chunks(&mut self.particles[..m], |chunk| {
            let mut beam_evals = 0u64;
            let mut map_cycles = 0.0f64;
            let mut best_local = f64::NEG_INFINITY;
            for p in chunk.iter_mut() {
                let r = {
                    let _prof = prof::scope("slam/particle_score");
                    matcher.optimize_cached(&p.map, p.pose, cache)
                };
                p.pose = r.pose;
                p.log_weight += r.score * gain;
                best_local = best_local.max(r.score);
                beam_evals += r.beam_evals;
                let mut local = WorkMeter::new();
                {
                    let _prof = prof::scope("slam/map_integrate");
                    p.map.integrate_scan(p.pose, scan, &mut local);
                }
                map_cycles += local.finish().total_cycles();
            }
            (beam_evals, map_cycles, best_local)
        });
        drop(_prof_match);
        let total_evals: u64 = chunk_stats.iter().map(|c| c.0).sum();
        let total_map_cycles: f64 = chunk_stats.iter().map(|c| c.1).sum();
        let best_score = chunk_stats
            .iter()
            .map(|c| c.2)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        meter.parallel_ops(total_evals, cost::CYCLES_PER_BEAM_EVAL, m as u32);
        meter.parallel_ops(1, total_map_cycles, m as u32);

        // 3. updateTreeWeights (serial, main thread).
        let (weights, neff) = {
            let _prof = prof::scope("slam/weights");
            self.update_tree_weights()
        };
        meter.serial_ops(m as u64, cost::CYCLES_PER_WEIGHT_UPDATE);

        // 4. Resample (serial, main thread).
        let resampled = neff < RESAMPLE_NEFF_FRAC * m as f64;
        if resampled {
            let _prof = prof::scope("slam/resample");
            let copied_cells = self.resample(&weights);
            self.resample_count += 1;
            meter.serial_ops(copied_cells, cost::CYCLES_PER_CELL_COPY);
        }

        // Best particle by weight (among the active prefix).
        self.best = self.particles[..m]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.log_weight.total_cmp(&b.1.log_weight))
            .map(|(i, _)| i)
            .unwrap_or(0);

        let confidence = (neff / m as f64).clamp(0.0, 1.0);
        SlamOutput {
            pose: PoseEstimate {
                stamp: scan.stamp,
                pose: self.best_pose(),
                confidence,
            },
            work: meter.finish(),
            neff,
            resampled,
            best_score,
        }
    }

    /// Normalize log-weights into linear weights; returns the weights
    /// and the effective sample size `N_eff = 1 / Σ wᵢ²`.
    fn update_tree_weights(&mut self) -> (Vec<f64>, f64) {
        let active = &self.particles[..self.active];
        let max_lw = active
            .iter()
            .map(|p| p.log_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut weights: Vec<f64> = active
            .iter()
            .map(|p| (p.log_weight - max_lw).exp())
            .collect();
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            let u = 1.0 / weights.len() as f64;
            weights.iter_mut().for_each(|w| *w = u);
        } else {
            weights.iter_mut().for_each(|w| *w /= sum);
        }
        let neff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();
        (weights, neff)
    }

    /// Low-variance resampling of the active prefix; returns the number
    /// of map cells charged as copied, one full map per pick (the
    /// dominant resampling cost in real gmapping).
    ///
    /// Slot `s` of the new generation is old particle `picks[s]` with
    /// its log-weight reset and `fork(s)` as its RNG, exactly as if
    /// every pick were cloned. The maps are not cloned: a picked
    /// particle moves into the first slot that picks it, and each
    /// further pick of it is copied into the map buffer of a particle
    /// nobody picked. There are as many of those as repeated picks, so
    /// the filter allocates no map and never holds two generations of
    /// them at once. Inactive particles sit out the resample untouched.
    fn resample(&mut self, weights: &[f64]) -> u64 {
        let m = self.active;
        let picks = low_variance_resample(&mut self.rng, weights, m);
        let mut old: Vec<Option<Particle>> = self.particles.drain(..m).map(Some).collect();
        let mut picked = vec![false; m];
        for &i in &picks {
            picked[i] = true;
        }
        let mut spare_maps: Vec<OccupancyGrid> = old
            .iter_mut()
            .zip(&picked)
            .filter(|(_, &picked)| !picked)
            .filter_map(|(p, _)| p.take().map(|p| p.map))
            .collect();
        let mut first_slot = vec![0; m];
        let mut next: Vec<Particle> = Vec::with_capacity(m + self.particles.len());
        let mut copied = 0u64;
        for (slot, &i) in picks.iter().enumerate() {
            let rng = self.rng.fork(slot as u64);
            let p = match old[i].take() {
                Some(p) => {
                    first_slot[i] = slot;
                    Particle {
                        log_weight: 0.0,
                        rng,
                        ..p
                    }
                }
                None => {
                    let src = &next[first_slot[i]];
                    let mut map = spare_maps
                        .pop()
                        .expect("each repeated pick has an unpicked particle's map");
                    map.clone_from(&src.map);
                    Particle {
                        pose: src.pose,
                        log_weight: 0.0,
                        map,
                        rng,
                    }
                }
            };
            copied += p.map.dims().len() as u64;
            next.push(p);
        }
        next.append(&mut self.particles);
        self.particles = next;
        copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn small_cfg(particles: usize, threads: usize) -> SlamConfig {
        SlamConfig {
            num_particles: particles,
            threads,
            map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
            ..Default::default()
        }
    }

    /// A synthetic "room" scan: constant-range walls all around.
    /// Only valid for a *stationary* robot (the scan is independent of
    /// position); moving tests use [`room_scan`].
    fn scan_at(stamp_ms: u64, range: f64) -> LaserScan {
        let beams = 120;
        LaserScan {
            stamp: SimTime::EPOCH + Duration::from_millis(stamp_ms),
            angle_min: 0.0,
            angle_increment: 2.0 * PI / beams as f64,
            range_max: 3.5,
            ranges: vec![range; beams],
        }
    }

    /// Exact ranges from `pose` to the walls of a fixed box room
    /// `[1,6] × [1.5,6.5]` — a position-dependent scan stream, like a
    /// real environment.
    fn room_scan(stamp_ms: u64, pose: Pose2D) -> LaserScan {
        let (xmin, xmax, ymin, ymax) = (1.0, 6.0, 1.5, 6.5);
        let beams = 120;
        let inc = 2.0 * PI / beams as f64;
        let ranges = (0..beams)
            .map(|i| {
                let a = pose.theta + i as f64 * inc;
                let (c, s) = (a.cos(), a.sin());
                let tx = if c > 1e-12 {
                    (xmax - pose.x) / c
                } else if c < -1e-12 {
                    (xmin - pose.x) / c
                } else {
                    f64::INFINITY
                };
                let ty = if s > 1e-12 {
                    (ymax - pose.y) / s
                } else if s < -1e-12 {
                    (ymin - pose.y) / s
                } else {
                    f64::INFINITY
                };
                tx.min(ty).min(3.5)
            })
            .collect();
        LaserScan {
            stamp: SimTime::EPOCH + Duration::from_millis(stamp_ms),
            angle_min: 0.0,
            angle_increment: inc,
            range_max: 3.5,
            ranges,
        }
    }

    fn odom_at(stamp_ms: u64, pose: Pose2D) -> OdometryMsg {
        OdometryMsg {
            stamp: SimTime::EPOCH + Duration::from_millis(stamp_ms),
            pose,
            twist: Twist::STOP,
        }
    }

    #[test]
    fn first_update_builds_a_map() {
        let mut slam = GMapping::new(
            small_cfg(5, 1),
            Pose2D::new(4.0, 4.0, 0.0),
            SimRng::seed_from_u64(1),
        );
        let out = slam.process(&odom_at(0, Pose2D::new(4.0, 4.0, 0.0)), &scan_at(0, 2.0));
        assert_eq!(slam.scans_processed, 1);
        assert!(out.work.total_cycles() > 0.0);
        assert!(out.work.parallel_fraction() > 0.9, "scanMatch dominates");
        let map = slam.best_map(SimTime::EPOCH);
        assert!(map.known_fraction() > 0.0);
    }

    #[test]
    fn stationary_robot_keeps_pose() {
        let start = Pose2D::new(4.0, 4.0, 0.0);
        let mut slam = GMapping::new(small_cfg(10, 1), start, SimRng::seed_from_u64(2));
        for k in 0..8 {
            slam.process(&odom_at(k * 200, start), &scan_at(k * 200, 2.0));
        }
        let err = slam.best_pose().distance(start);
        assert!(err < 0.15, "pose drifted {err} m while stationary");
    }

    #[test]
    fn tracks_odometry_motion() {
        // The robot steps forward 5 cm per scan; SLAM should follow.
        let mut slam = GMapping::new(
            small_cfg(10, 1),
            Pose2D::new(3.0, 4.0, 0.0),
            SimRng::seed_from_u64(3),
        );
        let mut pose = Pose2D::new(3.0, 4.0, 0.0);
        for k in 0..10 {
            slam.process(&odom_at(k * 200, pose), &room_scan(k * 200, pose));
            pose = Pose2D::new(pose.x + 0.05, pose.y, 0.0);
        }
        // Final odom pose was 3.45; estimate within tolerance.
        let est = slam.best_pose();
        assert!((est.x - 3.45).abs() < 0.25, "x = {}", est.x);
        assert!((est.y - 4.0).abs() < 0.2, "y = {}", est.y);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // scanMatch is deterministic per particle and motion noise uses
        // per-particle RNGs, so thread count must not change results.
        let run = |threads: usize| {
            let mut slam = GMapping::new(
                small_cfg(8, threads),
                Pose2D::new(4.0, 4.0, 0.0),
                SimRng::seed_from_u64(7),
            );
            let mut pose = Pose2D::new(4.0, 4.0, 0.0);
            for k in 0..5 {
                slam.process(&odom_at(k * 200, pose), &scan_at(k * 200, 2.0));
                pose = Pose2D::new(pose.x + 0.04, pose.y, 0.0);
            }
            slam.best_pose()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn work_scales_with_particles() {
        let mut small = GMapping::new(
            small_cfg(5, 1),
            Pose2D::new(4.0, 4.0, 0.0),
            SimRng::seed_from_u64(4),
        );
        let mut large = GMapping::new(
            small_cfg(20, 1),
            Pose2D::new(4.0, 4.0, 0.0),
            SimRng::seed_from_u64(4),
        );
        let w_small = small
            .process(&odom_at(0, Pose2D::new(4.0, 4.0, 0.0)), &scan_at(0, 2.0))
            .work;
        let w_large = large
            .process(&odom_at(0, Pose2D::new(4.0, 4.0, 0.0)), &scan_at(0, 2.0))
            .work;
        let ratio = w_large.parallel_cycles / w_small.parallel_cycles;
        assert!((3.0..5.5).contains(&ratio), "ratio {ratio} should be ≈ 4");
        assert_eq!(w_large.parallel_items, 20);
    }

    #[test]
    fn neff_stays_within_bounds_and_resampling_fires_eventually() {
        let cfg = SlamConfig {
            score_gain: 0.3,
            ..small_cfg(12, 1)
        };
        let mut slam = GMapping::new(cfg, Pose2D::new(3.0, 4.0, 0.0), SimRng::seed_from_u64(5));
        let mut pose = Pose2D::new(3.0, 4.0, 0.0);
        let mut any_resample = false;
        for k in 0..30 {
            let out = slam.process(&odom_at(k * 200, pose), &room_scan(k * 200, pose));
            assert!(
                out.neff >= 1.0 - 1e-9 && out.neff <= 12.0 + 1e-9,
                "neff {}",
                out.neff
            );
            any_resample |= out.resampled;
            pose = Pose2D::new(pose.x + 0.05, pose.y, 0.0);
        }
        assert!(any_resample, "weights should eventually degenerate");
        assert!(slam.resample_count > 0);
    }

    #[test]
    fn confidence_tracks_neff() {
        let mut slam = GMapping::new(
            small_cfg(10, 1),
            Pose2D::new(4.0, 4.0, 0.0),
            SimRng::seed_from_u64(6),
        );
        let out = slam.process(&odom_at(0, Pose2D::new(4.0, 4.0, 0.0)), &scan_at(0, 2.0));
        assert!((0.0..=1.0).contains(&out.pose.confidence));
    }

    #[test]
    fn fidelity_knob_shrinks_work_and_preserves_best_pose() {
        let start = Pose2D::new(4.0, 4.0, 0.0);
        let mut slam = GMapping::new(small_cfg(10, 1), start, SimRng::seed_from_u64(9));
        for k in 0..4 {
            slam.process(&odom_at(k * 200, start), &scan_at(k * 200, 2.0));
        }
        let full_pose = slam.best_pose();
        slam.set_active_particles(2);
        assert_eq!(slam.active, 2);
        assert_eq!(
            slam.best_pose(),
            full_pose,
            "shrink keeps the best particle"
        );
        let degraded = slam.process(&odom_at(800, start), &scan_at(800, 2.0));
        assert_eq!(degraded.work.parallel_items, 2);
        // Restore: all ten slots participate again and the filter
        // still tracks.
        slam.set_active_particles(10);
        let restored = slam.process(&odom_at(1_000, start), &scan_at(1_000, 2.0));
        assert_eq!(restored.work.parallel_items, 10);
        assert!(slam.best_pose().distance(start) < 0.2);
        // Clamped at both ends.
        slam.set_active_particles(0);
        assert_eq!(slam.active, 1);
        slam.set_active_particles(99);
        assert_eq!(slam.active, 10);
    }

    #[test]
    fn full_fidelity_knob_is_a_noop() {
        let start = Pose2D::new(4.0, 4.0, 0.0);
        let run = |touch: bool| {
            let mut slam = GMapping::new(small_cfg(8, 1), start, SimRng::seed_from_u64(11));
            if touch {
                slam.set_active_particles(8);
            }
            let mut pose = start;
            for k in 0..6 {
                slam.process(&odom_at(k * 200, pose), &room_scan(k * 200, pose));
                pose = Pose2D::new(pose.x + 0.05, pose.y, 0.0);
            }
            slam.best_pose()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn set_threads_changes_executor() {
        let mut slam = GMapping::new(
            small_cfg(4, 1),
            Pose2D::new(4.0, 4.0, 0.0),
            SimRng::seed_from_u64(8),
        );
        slam.set_threads(8);
        // Still functions after the switch.
        let out = slam.process(&odom_at(0, Pose2D::new(4.0, 4.0, 0.0)), &scan_at(0, 2.0));
        assert!(out.work.total_cycles() > 0.0);
    }

    /// The clone-based resample that `GMapping::resample` replaced:
    /// every pick clones its particle while the old generation lives.
    fn resample_by_cloning(slam: &mut GMapping, weights: &[f64]) -> u64 {
        let m = slam.active;
        let tail = slam.particles.split_off(m);
        let picks = low_variance_resample(&mut slam.rng, weights, m);
        let mut copied = 0u64;
        let mut new_particles: Vec<Particle> = picks
            .iter()
            .enumerate()
            .map(|(slot, &i)| {
                copied += slam.particles[i].map.dims().len() as u64;
                let mut p = slam.particles[i].clone();
                p.log_weight = 0.0;
                p.rng = slam.rng.fork(slot as u64);
                p
            })
            .collect();
        new_particles.extend(tail);
        slam.particles = new_particles;
        copied
    }

    /// A filter of 1–12 particles on a 30×30 grid, `active` of them in
    /// play, each with its own pose, log-weight, map and RNG position:
    /// the same filter for the same `seed`.
    fn scrambled_filter(seed: u64) -> GMapping {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 1 + rng.index(12);
        let cfg = SlamConfig {
            num_particles: n,
            threads: 1,
            map_dims: GridDims::new(30, 30, 0.1, Point2::ORIGIN),
            ..Default::default()
        };
        let mut slam = GMapping::new(cfg, Pose2D::new(1.5, 1.5, 0.0), rng.fork(1));
        slam.set_active_particles(1 + rng.index(n));
        for p in &mut slam.particles {
            p.pose = Pose2D::new(
                rng.uniform_range(0.2, 2.8),
                rng.uniform_range(0.2, 2.8),
                rng.uniform_range(-PI, PI),
            );
            p.log_weight = rng.uniform_range(-5.0, 0.0);
            for _ in 0..rng.index(3) {
                let scan = LaserScan {
                    angle_increment: 2.0 * PI / 24.0,
                    ranges: (0..24).map(|_| rng.uniform_range(0.1, 3.5)).collect(),
                    ..scan_at(0, 1.0)
                };
                p.map.integrate_scan(p.pose, &scan, &mut WorkMeter::new());
            }
            for _ in 0..rng.index(4) {
                p.rng.uniform();
            }
        }
        slam
    }

    /// Everything a particle carries, as comparable bits; the RNG as its
    /// next draw.
    fn particle_bits(p: &Particle) -> (Pose2D, u64, Vec<u32>, usize, u64) {
        (
            p.pose,
            p.log_weight.to_bits(),
            p.map.logodds_cells().iter().map(|l| l.to_bits()).collect(),
            p.map.observed_cells(),
            p.rng.clone().uniform().to_bits(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        #[test]
        fn in_place_resample_matches_cloning(seed in 0u64..1_000_000, shape in 0usize..4) {
            let (mut fast, mut slow) = (scrambled_filter(seed), scrambled_filter(seed));
            let m = fast.active;
            let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed);
            // Random weights, all-zero (the uniform fallback), one
            // particle taking every pick, or a few heavy ones repeating.
            let weights: Vec<f64> = match shape {
                0 => (0..m).map(|_| rng.uniform()).collect(),
                1 => vec![0.0; m],
                2 => {
                    let hot = rng.index(m);
                    (0..m).map(|i| if i == hot { 1.0 } else { 0.0 }).collect()
                }
                _ => (0..m).map(|_| if rng.chance(0.3) { rng.uniform_range(1.0, 9.0) } else { 1e-3 }).collect(),
            };
            let tail: Vec<_> = fast.particles[m..].iter().map(particle_bits).collect();
            let copied = fast.resample(&weights);
            proptest::prop_assert_eq!(copied, resample_by_cloning(&mut slow, &weights));
            proptest::prop_assert_eq!(fast.particles.len(), slow.particles.len());
            for (slot, (a, b)) in fast.particles.iter().zip(&slow.particles).enumerate() {
                proptest::prop_assert_eq!(particle_bits(a), particle_bits(b), "slot {} of {} active", slot, m);
            }
            let tail_after: Vec<_> = fast.particles[m..].iter().map(particle_bits).collect();
            proptest::prop_assert_eq!(tail, tail_after);
            proptest::prop_assert_eq!(fast.rng.uniform().to_bits(), slow.rng.uniform().to_bits());
        }
    }
}
