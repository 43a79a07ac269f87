//! Golden outputs of the SLAM kernels, pinned bit for bit.
//!
//! `OccupancyGrid::integrate_scan`, `ScanMatcher::score_cached` /
//! `optimize_cached` and `GMapping::process` feed every SLAM scenario,
//! so any speed-up of them must leave their results exactly as they
//! are. The SLAM map covers only part of the lab, so beams run off its
//! edges, and the partition wall crosses its top and bottom rows: the
//! scan matcher reads occupied cells on the border and cells past it.

use lgv_sim::lidar::{Lidar, LidarConfig};
use lgv_sim::world::presets;
use lgv_slam::map::OccupancyGrid;
use lgv_slam::scan_match::{ScanCache, ScanMatcher};
use lgv_slam::{GMapping, SlamConfig};
use lgv_types::prelude::*;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a_words(words: &[u64]) -> u64 {
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// 10 × 8 m of the 12 × 10 m lab.
fn map_dims() -> GridDims {
    GridDims::new(200, 160, 0.05, Point2::new(0.5, 0.5))
}

/// Four poses well inside the map, then four whose beams reach its
/// border: the bottom-left corner, the partition wall where it crosses
/// the bottom and the top row, and the top-right corner.
const POSES: [(f64, f64, f64); 8] = [
    (1.5, 5.0, 0.0),
    (3.0, 3.9, 0.3),
    (4.4, 6.0, -2.0),
    (8.5, 4.0, 1.0),
    (0.8, 1.0, 0.5),
    (6.6, 0.9, 3.0),
    (5.6, 8.2, 0.0),
    (10.2, 8.2, -2.5),
];

fn pose(i: usize) -> Pose2D {
    let (x, y, th) = POSES[i];
    Pose2D::new(x, y, th)
}

/// A lidar whose odd scans reach 8 m, far past the map's edge.
fn scan_at(world: &lgv_sim::world::World, k: usize, seed: u64) -> LaserScan {
    let cfg = LidarConfig {
        range_max: if k % 2 == 1 { 8.0 } else { 3.5 },
        ..LidarConfig::default()
    };
    let mut lidar = Lidar::new(cfg, SimRng::seed_from_u64(seed + k as u64));
    lidar.scan(world, pose(k), SimTime::from_secs_f64(0.2 * k as f64))
}

/// The map after integrating one scan from every pose, twice over,
/// and the work the integration charged.
fn integrated_map() -> (OccupancyGrid, Work) {
    let world = presets::lab();
    let mut map = OccupancyGrid::new(map_dims());
    let mut meter = WorkMeter::new();
    for round in 0..2 {
        for k in 0..POSES.len() {
            let scan = scan_at(&world, k, 100 * round);
            map.integrate_scan(pose(k), &scan, &mut meter);
        }
    }
    (map, meter.finish())
}

#[test]
fn integrate_scan_is_pinned() {
    let (map, work) = integrated_map();
    let dims = *map.dims();
    let grid =
        fnv1a((0..dims.len()).flat_map(|i| map.logodds(dims.unflat(i)).to_bits().to_le_bytes()));
    let got = (
        grid,
        map.observed_cells(),
        work.serial_cycles.to_bits(),
        work.parallel_cycles.to_bits(),
    );
    assert_eq!(
        got,
        (0x5bc7_eeb1_c87c_88b6, 29361, 0x4171_0637_2000_0000, 0),
        "{got:#x?}"
    );
}

/// Per pose: `score_cached` at the pose and at a perturbed
/// prediction, as `(score bits, beams)`, then `optimize_cached` from
/// the prediction as `(x, y, θ, score)` bits, `beam_evals` and
/// `converged`.
type MatchGolden = ((u64, u64), (u64, u64), [u64; 4], u64, bool);

/// How many used hit beams of `scan` seen from `p` end on the map's
/// outer ring of cells, and how many past it.
fn border_endpoints(dims: &GridDims, scan: &LaserScan, p: Pose2D, skip: usize) -> (usize, usize) {
    let (w, h) = (dims.width as i32, dims.height as i32);
    let (mut ring, mut past) = (0, 0);
    for i in (0..scan.len()).step_by(skip).filter(|&i| scan.is_hit(i)) {
        let c = dims.world_to_grid(scan.beam_endpoint(p, i));
        if !dims.contains(c) {
            past += 1;
        } else if c.col == 0 || c.row == 0 || c.col == w - 1 || c.row == h - 1 {
            ring += 1;
        }
    }
    (ring, past)
}

fn match_run() -> Vec<MatchGolden> {
    let (map, _) = integrated_map();
    let world = presets::lab();
    let matcher = ScanMatcher::default();
    let mut on_ring = 0;
    let got = (0..POSES.len())
        .map(|k| {
            let scan = scan_at(&world, k, 7);
            let cache = ScanCache::new(&scan, matcher.config().beam_skip);
            let truth = pose(k);
            if k >= 4 {
                let (ring, past) =
                    border_endpoints(map.dims(), &scan, truth, matcher.config().beam_skip);
                assert!(past > 0, "pose {k} stays inside the map");
                on_ring += ring;
            }
            let prediction = Pose2D::new(truth.x + 0.04, truth.y - 0.03, truth.theta + 0.02);
            let (s_true, u_true) = matcher.score_cached(&map, truth, &cache);
            let (s_pred, u_pred) = matcher.score_cached(&map, prediction, &cache);
            let r = matcher.optimize_cached(&map, prediction, &cache);
            (
                (s_true.to_bits(), u_true),
                (s_pred.to_bits(), u_pred),
                [
                    r.pose.x.to_bits(),
                    r.pose.y.to_bits(),
                    r.pose.theta.to_bits(),
                    r.score.to_bits(),
                ],
                r.beam_evals,
                r.converged,
            )
        })
        .collect();
    assert!(on_ring > 0, "no endpoint on the map's outer ring");
    got
}

const MATCH_GOLDEN: [MatchGolden; 8] = [
    (
        (4632909231671371373, 117),
        (4630678542480939422, 117),
        [
            4609389182617428951,
            4617309888462066811,
            4567911030049346560,
            4632719236062091680,
        ],
        4329,
        true,
    ),
    (
        (4636821733847649471, 176),
        (4634327161866551274, 176),
        [
            4613915300242936300,
            4615953179074321449,
            4599120975467024216,
            4636695070108129675,
        ],
        8624,
        true,
    ),
    (
        (4636350263261659134, 101),
        (4633824025345680995, 101),
        [
            4616642792767262557,
            4618449862117744968,
            13835046796283095286,
            4636286931391899238,
        ],
        5555,
        true,
    ),
    (
        (4638035594684714178, 179),
        (4635256029289696441, 179),
        [
            4620969063159305338,
            4616178359055689974,
            4607193677799085832,
            4638035594684714177,
        ],
        6623,
        true,
    ),
    (
        (4629038950741599871, 145),
        (4628278968304481100, 145),
        [
            4606191626881995900,
            4606912202822375178,
            4603016589144699700,
            4629038950741599871,
        ],
        5365,
        true,
    ),
    (
        (4636184896712841627, 174),
        (4634161795317733780, 174),
        [
            4619119772562316329,
            4605898892906216817,
            4613982854237346856,
            4635766202684984526,
        ],
        6438,
        true,
    ),
    (
        (4634499565289786574, 132),
        (4631867774257541939, 132),
        [
            4618007946404309238,
            4620788919174210519,
            13797227818412251648,
            4634689560899066269,
        ],
        5676,
        true,
    ),
    (
        (4632508129829558680, 173),
        (4630045223783340455, 173),
        [
            4621926078080121568,
            4620810029797463819,
            13836138919192732631,
            4632768494183016038,
        ],
        6401,
        true,
    ),
];

#[test]
fn scan_match_is_pinned_inside_and_at_the_border() {
    let got = match_run();
    assert_eq!(got, MATCH_GOLDEN, "{got:?}");
}

/// Every output of ten `GMapping::process` calls along a route that
/// starts in the map's bottom-left corner: per call the `Work` bits,
/// best score, `N_eff` and resample flag, then every particle's pose
/// and log-weight bits.
fn gmapping_run(threads: usize) -> Vec<u64> {
    let world = presets::lab();
    let mut lidar = Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(21));
    let cfg = SlamConfig {
        num_particles: 8,
        threads,
        map_dims: map_dims(),
        ..SlamConfig::default()
    };
    let at = |k: usize| {
        Pose2D::new(
            1.0 + 0.09 * k as f64,
            1.3 + 0.06 * k as f64,
            0.6 + 0.02 * k as f64,
        )
    };
    let mut slam = GMapping::new(cfg, at(0), SimRng::seed_from_u64(3));
    let mut out = Vec::new();
    for k in 0..10 {
        let stamp = SimTime::from_secs_f64(0.2 * k as f64);
        let truth = at(k);
        let scan = lidar.scan(&world, truth, stamp);
        let odom = OdometryMsg {
            stamp,
            pose: truth,
            twist: Twist::STOP,
        };
        let r = slam.process(&odom, &scan);
        out.extend([
            r.work.serial_cycles.to_bits(),
            r.work.parallel_cycles.to_bits(),
            r.work.parallel_items as u64,
            r.best_score.to_bits(),
            r.neff.to_bits(),
            r.resampled as u64,
        ]);
        for (p, w) in slam.particle_states() {
            out.extend([p.x.to_bits(), p.y.to_bits(), p.theta.to_bits(), w.to_bits()]);
        }
    }
    out
}

#[test]
fn gmapping_process_is_pinned_at_one_two_and_eight_threads() {
    let serial = gmapping_run(1);
    for threads in [2, 8] {
        assert_eq!(gmapping_run(threads), serial, "threads {threads}");
    }
    let got = fnv1a_words(&serial);
    assert_eq!(got, 0x7c95_d4ca_8533_409d, "{got:#018x}");
}
