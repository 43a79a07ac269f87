//! Property-based tests for the SLAM stack: map-update invariants,
//! scan-matcher behaviour, and filter conservation laws.

use lgv_slam::map::OccupancyGrid;
use lgv_slam::motion::{MotionModel, MotionNoise};
use lgv_slam::pool::ParallelExecutor;
use lgv_slam::scan_match::{MatchResult, ScanCache, ScanMatcher, ScanMatcherConfig};
use lgv_slam::{GMapping, SlamConfig};
use lgv_types::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

fn box_scan(pose: Pose2D, beams: usize) -> LaserScan {
    let (xmin, xmax, ymin, ymax) = (0.5, 7.5, 0.5, 7.5);
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
        stamp: SimTime::EPOCH,
        angle_min: 0.0,
        angle_increment: inc,
        range_max: 3.5,
        ranges,
    }
}

proptest! {
    #[test]
    fn occupancy_probabilities_stay_valid(
        px in 1.5f64..6.5, py in 1.5f64..6.5, th in -PI..PI, repeats in 1usize..6,
    ) {
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let pose = Pose2D::new(px, py, th);
        let scan = box_scan(pose, 90);
        let mut meter = WorkMeter::new();
        for _ in 0..repeats {
            map.integrate_scan(pose, &scan, &mut meter);
        }
        for col in (0..160).step_by(7) {
            for row in (0..160).step_by(7) {
                let p = map.occ_prob(GridIndex::new(col, row));
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn sensor_origin_cell_is_never_occupied(
        px in 1.5f64..6.5, py in 1.5f64..6.5, repeats in 2usize..6,
    ) {
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let pose = Pose2D::new(px, py, 0.0);
        let scan = box_scan(pose, 90);
        let mut meter = WorkMeter::new();
        for _ in 0..repeats {
            map.integrate_scan(pose, &scan, &mut meter);
        }
        // The robot stands in free space; repeated integration must
        // never mark its own cell occupied.
        prop_assert!(!map.is_occupied(dims.world_to_grid(pose.position())));
    }

    #[test]
    fn scan_matcher_score_is_maximal_near_truth(
        dx in -0.15f64..0.15, dy in -0.15f64..0.15,
    ) {
        prop_assume!(dx.abs() + dy.abs() > 0.08);
        let dims = GridDims::new(160, 160, 0.05, Point2::ORIGIN);
        let mut map = OccupancyGrid::new(dims);
        let truth = Pose2D::new(4.0, 4.0, 0.0);
        let scan = box_scan(truth, 180);
        let mut meter = WorkMeter::new();
        for _ in 0..4 {
            map.integrate_scan(truth, &scan, &mut meter);
        }
        let sm = ScanMatcher::default();
        let (s_true, _) = sm.score(&map, truth, &scan);
        let (s_off, _) =
            sm.score(&map, Pose2D::new(truth.x + dx, truth.y + dy, 0.0), &scan);
        prop_assert!(s_true >= s_off, "true {s_true} vs offset {s_off}");
    }

    #[test]
    fn motion_model_is_finite(
        dx in -0.5f64..0.5, dy in -0.5f64..0.5, dth in -1.0f64..1.0, seed in 0u64..100,
    ) {
        let m = MotionModel::new(MotionNoise::default());
        let mut rng = SimRng::seed_from_u64(seed);
        let q = m.sample(Pose2D::new(1.0, 1.0, 0.3), Pose2D::new(dx, dy, dth), &mut rng);
        prop_assert!(q.x.is_finite() && q.y.is_finite() && q.theta.is_finite());
        prop_assert!(q.theta > -PI && q.theta <= PI);
    }

    #[test]
    fn executor_chunk_results_cover_input(threads in 1usize..9, n in 0usize..200) {
        let ex = ParallelExecutor::new(threads);
        let mut items: Vec<u64> = (0..n as u64).collect();
        let sums = ex.run_chunks(&mut items, |c| c.iter().sum::<u64>());
        prop_assert_eq!(
            sums.iter().sum::<u64>(),
            (0..n as u64).sum::<u64>()
        );
    }

    #[test]
    fn slam_update_work_is_positive_and_mostly_parallel(
        particles in 2usize..12, seed in 0u64..50,
    ) {
        let cfg = SlamConfig {
            num_particles: particles,
            threads: 1,
            map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
            ..SlamConfig::default()
        };
        let start = Pose2D::new(4.0, 4.0, 0.0);
        let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(seed));
        let odom = OdometryMsg { stamp: SimTime::EPOCH, pose: start, twist: Twist::STOP };
        // First update builds maps; second does real matching.
        slam.process(&odom, &box_scan(start, 90));
        let out = slam.process(&odom, &box_scan(start, 90));
        prop_assert!(out.work.total_cycles() > 0.0);
        prop_assert!(out.work.parallel_fraction() > 0.5);
        prop_assert_eq!(out.work.parallel_items as usize, particles);
        prop_assert!(out.neff >= 1.0 - 1e-9);
        prop_assert!(out.neff <= particles as f64 + 1e-9);
    }

    #[test]
    fn slam_thread_count_does_not_change_estimates(
        threads in 2usize..6, seed in 0u64..30,
    ) {
        let mk = |threads: usize| {
            let cfg = SlamConfig {
                num_particles: 6,
                threads,
                map_dims: GridDims::new(160, 160, 0.05, Point2::ORIGIN),
                ..SlamConfig::default()
            };
            let start = Pose2D::new(4.0, 4.0, 0.0);
            let mut slam = GMapping::new(cfg, start, SimRng::seed_from_u64(seed));
            let mut pose = start;
            for i in 0..4 {
                let odom = OdometryMsg {
                    stamp: SimTime::EPOCH + Duration::from_millis(200 * i),
                    pose,
                    twist: Twist::STOP,
                };
                slam.process(&odom, &box_scan(pose, 90));
                pose = Pose2D::new(pose.x + 0.03, pose.y, 0.0);
            }
            slam.best_pose()
        };
        prop_assert_eq!(mk(1), mk(threads));
    }
}

/// `ScanMatcher::score` as it stood before its interior fast path:
/// every endpoint through the checked `is_occupied` / `is_unknown`
/// reads. Kept here only as the reference the fast path must match.
fn reference_score(map: &OccupancyGrid, pose: Pose2D, scan: &LaserScan, skip: usize) -> f64 {
    let dims = map.dims();
    let (sin_th, cos_th) = pose.theta.sin_cos();
    let mut total = 0.0;
    for i in (0..scan.len()).step_by(skip) {
        if !scan.is_hit(i) {
            continue;
        }
        let r = scan.ranges[i].min(scan.range_max);
        let (sin_a, cos_a) = scan.beam_angle(i).sin_cos();
        let (ox, oy) = (r * cos_a, r * sin_a);
        let c = dims.world_to_grid(Point2::new(
            pose.x + ox * cos_th - oy * sin_th,
            pose.y + ox * sin_th + oy * cos_th,
        ));
        if map.is_occupied(c) {
            total += 1.0;
        } else if c.neighbors8().iter().any(|n| map.is_occupied(*n)) {
            total += 0.55;
        } else if map.is_unknown(c) {
            total += 0.05;
        }
    }
    total
}

proptest! {
    // Equivalence checks are cheap: draw many more cases than usual.
    #![proptest_config(ProptestConfig::with_cases(500))]

    fn score_matches_the_checked_reference(
        seed in 0u64..1_000_000, x in -0.3f64..2.3, y in -0.3f64..1.9, th in -PI..PI,
    ) {
        // A small random map with occupied, free and unknown cells right
        // up to every edge, then a few random scans integrated into it
        // so some cells sit exactly on the free threshold (two misses)
        // or between the thresholds. The scored scan's endpoints land
        // inside the map, on its border cells and past them.
        let dims = GridDims::new(20, 16, 0.1, Point2::ORIGIN);
        let mut rng = SimRng::seed_from_u64(seed);
        let cells = (0..dims.len())
            .map(|_| [MapMsg::OCCUPIED, MapMsg::FREE, MapMsg::UNKNOWN, MapMsg::UNKNOWN][rng.index(4)])
            .collect();
        let mut map = OccupancyGrid::from_map_msg(&MapMsg { stamp: SimTime::EPOCH, dims, cells });
        let beams = 120;
        let random_scan = |rng: &mut SimRng| LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 2.0 * PI / beams as f64,
            range_max: 3.0,
            ranges: (0..beams).map(|_| rng.uniform_range(0.0, 3.2)).collect(),
        };
        let mut meter = WorkMeter::new();
        for _ in 0..3 {
            let from = Pose2D::new(rng.uniform_range(0.0, 2.0), rng.uniform_range(0.0, 1.6), 0.0);
            let scan = random_scan(&mut rng);
            map.integrate_scan(from, &scan, &mut meter);
        }
        let scan = random_scan(&mut rng);
        let sm = ScanMatcher::default();
        let pose = Pose2D::new(x, y, th);
        let (got, _) = sm.score(&map, pose, &scan);
        let want = reference_score(&map, pose, &scan, sm.config().beam_skip);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
}

/// `ScanMatcher::optimize` as it stood before it skipped repeated poses
/// and stopped hopeless candidates early: every candidate scored in
/// full, through [`reference_score`]. Kept here only as the reference
/// the pruned climb must match.
fn reference_optimize(
    cfg: &ScanMatcherConfig,
    map: &OccupancyGrid,
    prediction: Pose2D,
    scan: &LaserScan,
) -> MatchResult {
    let used = ScanCache::new(scan, cfg.beam_skip).used_beams();
    let score = |pose| reference_score(map, pose, scan, cfg.beam_skip.max(1));
    let mut evals = used;
    let mut best = prediction;
    let mut best_score = score(best);
    if used == 0 {
        return MatchResult {
            pose: prediction,
            score: 0.0,
            converged: false,
            beam_evals: evals,
        };
    }
    let (mut dt, mut dr) = (cfg.step_trans, cfg.step_rot);
    for _ in 0..cfg.levels {
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
                let s = score(cand);
                evals += used;
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
    let converged = best_score / used as f64 >= cfg.min_score;
    MatchResult {
        pose: if converged { best } else { prediction },
        score: best_score,
        converged,
        beam_evals: evals,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    fn pruned_optimize_matches_the_full_reference(
        seed in 0u64..1_000_000,
        x in -0.3f64..2.3, y in -0.3f64..1.9, th in -PI..PI,
        kind in 0u32..4, beams in 0usize..160, skip in 1usize..4, min_score in 0.0f64..0.9,
    ) {
        // A small random map as in `score_matches_the_checked_reference`:
        // endpoints land inside it, on its border cells and past them.
        let dims = GridDims::new(20, 16, 0.1, Point2::ORIGIN);
        let mut rng = SimRng::seed_from_u64(seed);
        let cells = (0..dims.len())
            .map(|_| [MapMsg::OCCUPIED, MapMsg::FREE, MapMsg::UNKNOWN, MapMsg::UNKNOWN][rng.index(4)])
            .collect();
        let mut map = OccupancyGrid::from_map_msg(&MapMsg { stamp: SimTime::EPOCH, dims, cells });
        let range_max = 3.0;
        let random_scan = |rng: &mut SimRng, beams: usize| LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: rng.uniform_range(-PI, PI),
            angle_increment: 2.0 * PI / beams.max(1) as f64,
            range_max,
            ranges: (0..beams).map(|_| rng.uniform_range(0.0, 3.2)).collect(),
        };
        let mut meter = WorkMeter::new();
        for _ in 0..3 {
            let from = Pose2D::new(rng.uniform_range(0.0, 2.0), rng.uniform_range(0.0, 1.6), 0.0);
            let scan = random_scan(&mut rng, 90);
            map.integrate_scan(from, &scan, &mut meter);
        }
        let mut scan = random_scan(&mut rng, beams);
        let prediction = Pose2D::new(x, y, th);
        match kind {
            // No hit beams at all: every return at or past range_max.
            0 => scan.ranges.iter_mut().for_each(|r| *r = range_max + *r * 0.1),
            // The scan was seen from near the prediction, so the climb
            // has a real optimum to find and often converges.
            1 => {
                let truth = Pose2D::new(x + 0.04, y - 0.03, th + 0.02);
                for _ in 0..3 {
                    map.integrate_scan(truth, &scan, &mut meter);
                }
            }
            _ => {}
        }
        let cfg = ScanMatcherConfig { beam_skip: skip, min_score, ..Default::default() };
        let sm = ScanMatcher::new(cfg.clone());
        let got = sm.optimize(&map, prediction, &scan);
        let want = reference_optimize(&cfg, &map, prediction, &scan);
        prop_assert_eq!(got.pose.x.to_bits(), want.pose.x.to_bits());
        prop_assert_eq!(got.pose.y.to_bits(), want.pose.y.to_bits());
        prop_assert_eq!(got.pose.theta.to_bits(), want.pose.theta.to_bits());
        prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
        prop_assert_eq!(got.converged, want.converged);
        prop_assert_eq!(got.beam_evals, want.beam_evals);
    }
}
