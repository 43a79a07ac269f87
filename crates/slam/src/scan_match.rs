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
//! the same structure GMapping's `ScanMatcher::optimize` uses. It skips
//! host work that cannot change its result (repeated poses, candidates
//! that can no longer win) without changing a bit of it or of the
//! modelled work; see [`ScanMatcher::optimize_cached`].

use crate::map::{OccupancyGrid, L_FREE_THRESHOLD, L_OCC_THRESHOLD};
use lgv_types::prelude::*;

/// Initial translational step of the hill climb (m).
pub const STEP_TRANS: f64 = 0.05;
/// Initial rotational step of the hill climb (rad).
pub const STEP_ROT: f64 = 0.035;
/// Number of step-halving refinement levels.
pub const STEP_LEVELS: u32 = 3;

/// Scan-matcher tuning knobs.
#[derive(Debug, Clone)]
pub struct ScanMatcherConfig {
    /// Use every `beam_skip`-th beam (1 = all beams).
    pub beam_skip: usize,
    /// Score a pose must reach (per used beam) for the match to count
    /// as successful; otherwise the motion prediction is kept.
    pub min_score: f64,
}

impl Default for ScanMatcherConfig {
    fn default() -> Self {
        ScanMatcherConfig {
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

    /// Likelihood of the scan `cache` was built from, observed from
    /// `pose` against `map`. Returns (score, beams_used).
    ///
    /// This is the 98 %-of-SLAM-time inner loop (§V): each cached
    /// robot-frame offset is rotated by the candidate heading (one
    /// `sin_cos` per pose, not per beam) and looked up in the grid.
    pub fn score_cached(&self, map: &OccupancyGrid, pose: Pose2D, cache: &ScanCache) -> (f64, u64) {
        // No partial sum can reach −∞, so every beam is scored.
        let total = score_bounded(map, pose, cache, f64::NEG_INFINITY);
        (total, cache.used_beams())
    }

    /// Refine `prediction` against `map` for the scan `cache` was
    /// built from. The returned [`MatchResult::beam_evals`] feeds the
    /// SLAM work meter. The particle filter builds the cache once per
    /// scan and shares it across all particle threads.
    ///
    /// Returns bit for bit what a hill climb that scores every beam of
    /// every candidate returns, but does less host work in two exact
    /// ways. A candidate is accepted only if its score `s` beats the
    /// running best strictly (`s > best_score`), so:
    ///
    /// - **Repeated poses are skipped.** Stepping `+dt` and then `−dt`
    ///   often lands on a pose already scored in this call. Scoring is
    ///   a pure function of the pose bits, and `best_score` only rises,
    ///   so a pose that did not beat the best then cannot beat it now,
    ///   and one that did is the best or was overtaken. Up to 64 poses
    ///   (the prediction first) are remembered in a stack buffer; once
    ///   it is full, new poses are simply scored.
    /// - **Hopeless candidates stop early.** Scoring stops once the
    ///   partial sum plus one point per remaining beam cannot exceed
    ///   `best_score`. The test carries a rounding slack, proven on the
    ///   private `score_bounded`, so it never rejects a winner.
    ///
    /// [`MatchResult::beam_evals`] still charges the full `used` beams
    /// for every candidate, skipped or stopped: it is the modelled work
    /// of the algorithm, not of this host's shortcut.
    pub fn optimize_cached(
        &self,
        map: &OccupancyGrid,
        prediction: Pose2D,
        cache: &ScanCache,
    ) -> MatchResult {
        let used = cache.used_beams();
        let mut evals = used;
        if used == 0 {
            return MatchResult {
                pose: prediction,
                score: 0.0,
                converged: false,
                beam_evals: evals,
            };
        }
        let mut best = prediction;
        let mut best_score = score_bounded(map, best, cache, f64::NEG_INFINITY);
        let mut seen = SeenPoses::default();
        seen.insert(prediction);

        let mut dt = STEP_TRANS;
        let mut dr = STEP_ROT;
        for _ in 0..STEP_LEVELS {
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
                    evals += used;
                    if !seen.insert(cand) {
                        continue;
                    }
                    let s = score_bounded(map, cand, cache, best_score);
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

/// Poses one [`ScanMatcher::optimize_cached`] call remembers in order
/// to skip rescoring them. A call tries six candidates per climb step
/// over three levels: on fig13 (quick) they averaged 28.5 a call, and
/// 0.6% of calls tried more than 63. Past the buffer the matcher only
/// loses the skip.
const SEEN_POSES: usize = 64;

/// The exact bits of the poses scored so far in one optimize call.
struct SeenPoses {
    bits: [[u64; 3]; SEEN_POSES],
    len: usize,
}

impl Default for SeenPoses {
    fn default() -> Self {
        SeenPoses {
            bits: [[0; 3]; SEEN_POSES],
            len: 0,
        }
    }
}

impl SeenPoses {
    /// Whether `pose` is new (bit for bit), recording it while there is
    /// room. A full buffer reports every unrecorded pose as new.
    fn insert(&mut self, pose: Pose2D) -> bool {
        let key = [pose.x.to_bits(), pose.y.to_bits(), pose.theta.to_bits()];
        if self.bits[..self.len].contains(&key) {
            return false;
        }
        if self.len < SEEN_POSES {
            self.bits[self.len] = key;
            self.len += 1;
        }
        true
    }
}

/// Most beams for which [`score_bounded`] may stop early. Beyond it
/// the rounding slack below is not proven, and every beam is scored.
const MAX_BOUNDED_BEAMS: usize = 1 << 24;

/// Score `pose` like [`ScanMatcher::score_cached`], but stop as soon as
/// the final sum provably cannot exceed `floor`.
///
/// Returns the full score, bit for bit the one an unbounded call
/// returns, whenever that score is above `floor`. Otherwise it may
/// return a partial sum, which is then also at most `floor`. With
/// `floor = −∞` it never stops.
///
/// **Why the test is exact.** Let `n ≤ 2²⁴` be the used beams, `u =
/// 2⁻⁵³` and `E = (n + 1)·u`. Before each beam the loop holds the
/// partial sum `T` and `R` beams still to score (`R` counts down by
/// exact steps of 1.0), and stops when `fl(T + fl(R + S)) ≤ floor`
/// with the slack `S = (n + 2)²·u`.
///
/// 1. Every beam adds 0, 0.05, 0.55 or 1.0, never more than 1.0.
///    Rounded addition is monotone, so the final sum is at most `U`,
///    the sum obtained by adding 1.0 for each of the `R` beams left.
/// 2. After `j` such additions a sum is at most `j + j·E`, which stays
///    below `n + 1` because `n(n + 1)·u < 1/2`. A rounded addition
///    whose exact result lies in `[0, n + 1)` errs by at most half an
///    ulp there, which is below `E`. So `U ≤ T + R + R·E`.
/// 3. The two additions of the test, whose exact results also stay
///    below `n + 1`, err by at most `E` each, so
///    `fl(T + fl(R + S)) ≥ T + R + S − 2E ≥ T + R + R·E ≥ U`, because
///    `S = (n + 2)²·u ≥ (R + 2)(n + 1)·u = (R + 2)·E`.
///
/// So a stop means the full score is at most `floor` and would fail the
/// matcher's strict `s > best_score` test anyway. `S` itself is exact:
/// `(n + 2)²` is an integer below 2⁵³ and `u` a power of two. Scans come
/// decoded from the network, so `n` is not trusted: above 2²⁴ beams the
/// slack is +∞ and the loop never stops early.
fn score_bounded(map: &OccupancyGrid, pose: Pose2D, cache: &ScanCache, floor: f64) -> f64 {
    let n = cache.offsets.len();
    let slack = if n <= MAX_BOUNDED_BEAMS {
        let m = (n + 2) as f64;
        m * m * f64::EPSILON * 0.5
    } else {
        f64::INFINITY
    };
    let mut total = 0.0;
    let mut remaining = n as f64;
    let dims = *map.dims();
    let cells = map.logodds_cells();
    let w = dims.width as usize;
    let (sin_th, cos_th) = pose.theta.sin_cos();
    for &(ox, oy) in &cache.offsets {
        if total + (remaining + slack) <= floor {
            break;
        }
        remaining -= 1.0;
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
    total
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

    fn cache(sm: &ScanMatcher, scan: &LaserScan) -> ScanCache {
        ScanCache::new(scan, sm.config().beam_skip)
    }

    #[test]
    fn true_pose_scores_high() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let (s, used) = sm.score_cached(&map, pose, &cache(&sm, &scan));
        assert!(used > 0);
        assert!(s / used as f64 > 0.8, "per-beam score {}", s / used as f64);
    }

    #[test]
    fn offset_pose_scores_lower() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let (s_true, _) = sm.score_cached(&map, pose, &cache(&sm, &scan));
        let off = Pose2D::new(pose.x + 0.3, pose.y - 0.2, pose.theta + 0.1);
        let (s_off, _) = sm.score_cached(&map, off, &cache(&sm, &scan));
        assert!(s_off < s_true, "true {s_true} vs offset {s_off}");
    }

    #[test]
    fn optimizer_recovers_small_offsets() {
        let (map, scan, pose) = room_map_and_scan();
        let sm = ScanMatcher::default();
        let prediction = Pose2D::new(pose.x + 0.08, pose.y - 0.06, pose.theta + 0.05);
        let r = sm.optimize_cached(&map, prediction, &cache(&sm, &scan));
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
        let r = sm.optimize_cached(&map, pred, &cache(&sm, &scan));
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
        let r = sm.optimize_cached(&map, pose, &cache(&sm, &scan));
        assert!(!r.converged);
        assert_eq!(r.beam_evals, 0);
    }

    #[test]
    fn seen_poses_match_bits_and_stop_recording_when_full() {
        let mut seen = SeenPoses::default();
        let pose = |i: usize| Pose2D::new(i as f64, 0.5, -0.25);
        for i in 0..SEEN_POSES {
            assert!(seen.insert(pose(i)));
        }
        assert!(!seen.insert(pose(3)), "a recorded pose is a repeat");
        // Bits, not values: −0.0 is not the recorded 0.0.
        assert!(seen.insert(Pose2D::new(-0.0, 0.5, -0.25)));
        // Full: a new pose is scored every time it comes up.
        assert!(seen.insert(pose(SEEN_POSES)));
        assert!(seen.insert(pose(SEEN_POSES)));
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
        let (_, used_all) = all.score_cached(&map, pose, &cache(&all, &scan));
        let (_, used_half) = half.score_cached(&map, pose, &cache(&half, &scan));
        assert!(used_half * 2 <= used_all + 1);
    }

    #[test]
    fn scan_cache_keeps_the_hits_at_the_skip_stride() {
        let mut scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: std::f64::consts::PI / 4.0,
            range_max: 3.5,
            ranges: vec![1.0; 8],
        };
        scan.ranges[3] = 3.5;
        // A skip of zero reads every beam, like a skip of one.
        assert_eq!(ScanCache::new(&scan, 0).used_beams(), 7);
        assert_eq!(ScanCache::new(&scan, 1).used_beams(), 7);
        // Beams 0, 3 and 6: beam 3 is a miss.
        assert_eq!(ScanCache::new(&scan, 3).used_beams(), 2);
        assert_eq!(ScanCache::new(&scan, 100).used_beams(), 1);
    }
}
