//! Hill-climbing scan-to-map matching.
//!
//! `scanMatch` refines a particle's predicted pose by locally
//! maximizing the likelihood of the current laser scan against the
//! particle's own map. The paper measures that 98 % of SLAM time is
//! spent here (§V), which is why it is the unit the parallel gmapping
//! algorithm distributes across threads.
//!
//! The likelihood of a pose is the sum over (subsampled) hit beams of
//! a small-neighbourhood endpoint score: a beam endpoint landing on an
//! occupied cell scores 1, next to one scores 0.55, elsewhere ~0. The
//! optimizer is a coordinate-descent hill climber with step halving —
//! the same structure GMapping's `ScanMatcher::optimize` uses.

use crate::map::{OccupancyGrid, L_FREE_THRESHOLD, L_OCC_THRESHOLD};
use lgv_types::prelude::*;

/// Scan-matcher tuning knobs.
#[derive(Debug, Clone)]
pub struct ScanMatcherConfig {
    /// Initial translational step (m).
    pub step_trans: f64,
    /// Initial rotational step (rad).
    pub step_rot: f64,
    /// Number of step-halving refinement levels.
    pub levels: u32,
    /// Use every `beam_skip`-th beam (1 = all beams).
    pub beam_skip: usize,
    /// Score a pose must reach (per used beam) for the match to count
    /// as successful; otherwise the motion prediction is kept.
    pub min_score: f64,
}

impl Default for ScanMatcherConfig {
    fn default() -> Self {
        ScanMatcherConfig {
            step_trans: 0.05,
            step_rot: 0.035,
            levels: 3,
            beam_skip: 2,
            min_score: 0.15,
        }
    }
}

/// Outcome of one scan-match call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// The refined pose (or the prediction if matching failed).
    pub pose: Pose2D,
    /// Final likelihood score (sum over used beams).
    pub score: f64,
    /// Whether the optimizer beat `min_score`.
    pub converged: bool,
    /// Beam-likelihood evaluations performed (the parallel work unit).
    pub beam_evals: u64,
}

/// Precomputed per-scan data for the matcher's inner loop.
///
/// Holds the robot-frame endpoint offset `(r·cos aᵢ, r·sin aᵢ)` of
/// every used hit beam (with `beam_skip` already applied). Scoring a
/// candidate pose then reduces to one rotation + translation per beam
/// — no trig, no re-walking the skip stride, no re-testing `is_hit` —
/// which matters because `optimize` scores dozens of candidate poses
/// against the *same* scan, and the particle filter runs that for
/// every particle. The cache is plain data: build it once per scan and
/// share it read-only across the scan-match worker threads.
#[derive(Debug, Clone, Default)]
pub struct ScanCache {
    /// Robot-frame endpoint offsets of the used hit beams.
    offsets: Vec<(f64, f64)>,
}

impl ScanCache {
    /// Extract the used hit beams of `scan` at the given skip stride.
    pub fn new(scan: &LaserScan, beam_skip: usize) -> Self {
        let skip = beam_skip.max(1);
        let mut offsets = Vec::with_capacity(scan.len() / skip + 1);
        let mut i = 0;
        while i < scan.len() {
            if scan.is_hit(i) {
                let r = scan.ranges[i].min(scan.range_max);
                let (sin_a, cos_a) = scan.beam_angle(i).sin_cos();
                offsets.push((r * cos_a, r * sin_a));
            }
            i += skip;
        }
        ScanCache { offsets }
    }

    /// Number of beams the matcher will evaluate per score call.
    pub fn used_beams(&self) -> u64 {
        self.offsets.len() as u64
    }
}

/// The matcher.
#[derive(Debug, Clone, Default)]
pub struct ScanMatcher {
    cfg: ScanMatcherConfig,
}

impl ScanMatcher {
    /// Build with config.
    pub fn new(cfg: ScanMatcherConfig) -> Self {
        ScanMatcher { cfg }
    }

    /// Configuration.
    pub fn config(&self) -> &ScanMatcherConfig {
        &self.cfg
    }

    /// Likelihood of `scan` observed from `pose` against `map`.
    /// Returns (score, beams_used).
    pub fn score(&self, map: &OccupancyGrid, pose: Pose2D, scan: &LaserScan) -> (f64, u64) {
        self.score_cached(map, pose, &ScanCache::new(scan, self.cfg.beam_skip))
    }

    /// [`ScanMatcher::score`] against a prebuilt [`ScanCache`].
    ///
    /// This is the 98 %-of-SLAM-time inner loop (§V): each cached
    /// robot-frame offset is rotated by the candidate heading (one
    /// `sin_cos` per pose, not per beam) and looked up in the grid.
    pub fn score_cached(&self, map: &OccupancyGrid, pose: Pose2D, cache: &ScanCache) -> (f64, u64) {
        let mut total = 0.0;
        let dims = *map.dims();
        let cells = map.logodds_cells();
        let w = dims.width as usize;
        let (sin_th, cos_th) = pose.theta.sin_cos();
        for &(ox, oy) in &cache.offsets {
            let endpoint = Point2::new(
                pose.x + ox * cos_th - oy * sin_th,
                pose.y + ox * sin_th + oy * cos_th,
            );
            let c = dims.world_to_grid(endpoint);
            let interior = c.col > 0
                && c.row > 0
                && (c.col as u32) + 1 < dims.width
                && (c.row as u32) + 1 < dims.height;
            if interior {
                // The whole 3×3 neighbourhood is inside the grid: read
                // it by flat offset, with the checked path's scores.
                let i = dims.flat(c);
                let occ = |j: usize| cells[j] > L_OCC_THRESHOLD;
                let centre = cells[i];
                if centre > L_OCC_THRESHOLD {
                    total += 1.0;
                } else if occ(i - 1)
                    | occ(i + 1)
                    | occ(i - w - 1)
                    | occ(i - w)
                    | occ(i - w + 1)
                    | occ(i + w - 1)
                    | occ(i + w)
                    | occ(i + w + 1)
                {
                    total += 0.55;
                } else if centre >= L_FREE_THRESHOLD {
                    // Unknown: not occupied, and log-odds are never NaN.
                    total += 0.05;
                }
            } else if map.is_occupied(c) {
                total += 1.0;
            } else {
                // Check the 8-neighbourhood for a near miss.
                let near = c.neighbors8().iter().any(|n| map.is_occupied(*n));
                if near {
                    total += 0.55;
                } else if map.is_unknown(c) {
                    // Unknown terrain is weak evidence either way.
                    total += 0.05;
                }
            }
        }
        (total, cache.used_beams())
    }

    /// Refine `prediction` against `map`. The returned
    /// [`MatchResult::beam_evals`] feeds the SLAM work meter.
    pub fn optimize(
        &self,
        map: &OccupancyGrid,
        prediction: Pose2D,
        scan: &LaserScan,
    ) -> MatchResult {
        self.optimize_cached(map, prediction, &ScanCache::new(scan, self.cfg.beam_skip))
    }

    /// [`ScanMatcher::optimize`] against a prebuilt [`ScanCache`] —
    /// the form the particle filter uses so the cache is built once
    /// per scan and shared across all particle threads.
    pub fn optimize_cached(
        &self,
        map: &OccupancyGrid,
        prediction: Pose2D,
        cache: &ScanCache,
    ) -> MatchResult {
        let mut evals = 0u64;
        let mut best = prediction;
        let (mut best_score, used) = self.score_cached(map, best, cache);
        evals += used;
        if used == 0 {
            return MatchResult {
                pose: prediction,
                score: 0.0,
                converged: false,
                beam_evals: evals,
            };
        }

        let mut dt = self.cfg.step_trans;
        let mut dr = self.cfg.step_rot;
        for _ in 0..self.cfg.levels {
            let mut improved = true;
            while improved {
                improved = false;
                let candidates = [
                    Pose2D::new(best.x + dt, best.y, best.theta),
                    Pose2D::new(best.x - dt, best.y, best.theta),
                    Pose2D::new(best.x, best.y + dt, best.theta),
                    Pose2D::new(best.x, best.y - dt, best.theta),
                    Pose2D::new(best.x, best.y, best.theta + dr),
                    Pose2D::new(best.x, best.y, best.theta - dr),
                ];
                for cand in candidates {
                    let (s, u) = self.score_cached(map, cand, cache);
                    evals += u;
                    if s > best_score {
                        best_score = s;
                        best = cand;
                        improved = true;
                    }
                }
            }
            dt /= 2.0;
            dr /= 2.0;
        }

        let converged = best_score / used as f64 >= self.cfg.min_score;
        MatchResult {
            pose: if converged { best } else { prediction },
            score: best_score,
            converged,
            beam_evals: evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Build a map of a square room and a scan consistent with a pose
    /// at its centre.
    fn room_map_and_scan() -> (OccupancyGrid, LaserScan, Pose2D) {
        let dims = GridDims::new(120, 120, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let true_pose = Pose2D::new(3.0, 3.0, 0.0);
        // Synthetic room: walls at distance 2 m in all directions is
        // approximated by a scan with constant 2 m ranges; integrate it
        // repeatedly to build the map.
        let beams = 180;
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / beams as f64,
            range_max: 3.5,
            ranges: vec![2.0; beams],
        };
        let mut m = WorkMeter::new();
        for _ in 0..4 {
            map.integrate_scan(true_pose, &scan, &mut m);
        }
        (map, scan, true_pose)
    }

    #[test]
    fn true_pose_scores_high() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let (s, used) = sm.score(&map, pose, &scan);
        assert!(used > 0);
        assert!(s / used as f64 > 0.8, "per-beam score {}", s / used as f64);
    }

    #[test]
    fn offset_pose_scores_lower() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let (s_true, _) = sm.score(&map, pose, &scan);
        let off = Pose2D::new(pose.x + 0.3, pose.y - 0.2, pose.theta + 0.1);
        let (s_off, _) = sm.score(&map, off, &scan);
        assert!(s_off < s_true, "true {s_true} vs offset {s_off}");
    }

    #[test]
    fn optimizer_recovers_small_offsets() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let prediction = Pose2D::new(pose.x + 0.08, pose.y - 0.06, pose.theta + 0.05);
        let r = sm.optimize(&map, prediction, &scan);
        assert!(r.converged);
        let err = r.pose.distance(pose);
        let pred_err = prediction.distance(pose);
        assert!(
            err < pred_err,
            "optimizer should reduce error: {err} vs {pred_err}"
        );
        assert!(err < 0.06, "residual error {err}");
        assert!(r.beam_evals > 0);
    }

    #[test]
    fn fails_gracefully_on_empty_map() {
        let dims = GridDims::new(50, 50, 0.05, Point2::ORIGIN);
        let map = OccupancyGrid::new(dims);
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.1,
            range_max: 3.5,
            ranges: vec![1.0; 60],
        };
        let sm = ScanMatcher::default();
        let pred = Pose2D::new(1.25, 1.25, 0.0);
        let r = sm.optimize(&map, pred, &scan);
        assert!(!r.converged);
        assert_eq!(r.pose, pred, "failed match keeps the prediction");
    }

    #[test]
    fn all_misses_scan_cannot_converge() {
        let (map, _, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.1,
            range_max: 3.5,
            ranges: vec![3.5; 60], // nothing but max-range returns
        };
        let r = sm.optimize(&map, pose, &scan);
        assert!(!r.converged);
        assert_eq!(r.beam_evals, 0);
    }

    #[test]
    fn beam_skip_reduces_evals() {
        let (map, scan, pose) = room_map_and_scan();
        let all = ScanMatcher::new(ScanMatcherConfig {
            beam_skip: 1,
            ..Default::default()
        });
        let half = ScanMatcher::new(ScanMatcherConfig {
            beam_skip: 2,
            ..Default::default()
        });
        let (_, used_all) = all.score(&map, pose, &scan);
        let (_, used_half) = half.score(&map, pose, &scan);
        assert!(used_half * 2 <= used_all + 1);
    }
}
