//! Golden outputs of the two VDP kernels, pinned bit for bit.
//!
//! `DwaPlanner::compute` and `Costmap::update` feed every checksummed
//! scenario, so any speed-up of them must leave their results exactly
//! as they are. These tests pin the chosen twist, score, counts and
//! modelled cycles of DWA activations on the lab map, and an FNV-1a
//! fingerprint of the master grid and the modelled cycles after a run
//! of costmap updates.

use lgv_nav::costmap::{Costmap, CostmapConfig};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_sim::lidar::{Lidar, LidarConfig};
use lgv_sim::world::presets;
use lgv_sim::world::{World, WorldBuilder};
use lgv_types::prelude::*;

/// Route through the lab: left room, doorway, right room.
fn lab_path() -> PathMsg {
    PathMsg {
        stamp: SimTime::EPOCH,
        waypoints: vec![
            Point2::new(1.5, 5.0),
            Point2::new(5.0, 4.8),
            Point2::new(6.1, 4.8),
            Point2::new(10.5, 3.0),
        ],
    }
}

/// Activation poses: open floor, next to clutter, the doorway, and
/// headings within a hair of ±π so rollouts wrap.
const DWA_POSES: [(f64, f64, f64); 6] = [
    (1.5, 5.0, 0.0),
    (2.25, 4.4, 0.0),
    (4.0, 3.9, -0.4),
    (6.07, 4.8, 3.1413),
    (4.4, 3.0, -3.1414),
    (9.5, 3.2, 2.0),
];

/// `(twist.linear, twist.angular, score, total_cycles)` bit patterns,
/// then `evaluated` and `discarded`, for each pose in turn.
const DWA_GOLDEN: [([u64; 4], u32, u32); 6] = [
    (
        [
            4597094355634707497,
            13813660464857486328,
            4607725587810766894,
            4730025359708258304,
        ],
        588,
        0,
    ),
    (
        [
            4594045765117718238,
            4603236826150867453,
            4601003761833282377,
            4729403260538978304,
        ],
        588,
        245,
    ),
    (
        [
            4597094355634707497,
            4608091926236959548,
            4599752452027212496,
            4729409904316514304,
        ],
        588,
        196,
    ),
    (
        [
            4597094355634707497,
            4610974229998476666,
            4602976829950495454,
            4730025359708258304,
        ],
        588,
        0,
    ),
    (
        [
            4597094355634707497,
            4612771276093690844,
            13830644883180918764,
            4730025359708258304,
        ],
        588,
        0,
    ),
    (
        [
            4597094355634707497,
            4613577530270883512,
            4600632022545298912,
            4730025359708258304,
        ],
        588,
        0,
    ),
];

fn dwa_run(threads: usize) -> Vec<([u64; 4], u32, u32)> {
    let map = presets::lab().to_map_msg(SimTime::EPOCH);
    let cm = Costmap::from_map(CostmapConfig::default(), &map);
    let mut dwa = DwaPlanner::new(DwaConfig {
        samples: 600,
        threads,
        ..Default::default()
    });
    let path = lab_path();
    let goal = presets::lab_goal();
    DWA_POSES
        .iter()
        .map(|&(x, y, th)| {
            let r = dwa.compute(&cm, Pose2D::new(x, y, th), &path, goal);
            (
                [
                    r.twist.linear.to_bits(),
                    r.twist.angular.to_bits(),
                    r.score.to_bits(),
                    r.work.total_cycles().to_bits(),
                ],
                r.evaluated,
                r.discarded,
            )
        })
        .collect()
}

#[test]
fn dwa_outputs_are_pinned_at_one_two_three_and_eight_threads() {
    for threads in [1, 2, 3, 8] {
        let got = dwa_run(threads);
        assert_eq!(got, DWA_GOLDEN, "threads {threads}: {got:?}");
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a of the master grid after `from_map` of `map` and five
/// updates from scans of `seen` taken along `poses`, and the bits of
/// the cycles those updates charged.
fn costmap_fingerprint(map: &MapMsg, seen: &World, poses: &[Pose2D], seed: u64) -> (u64, u64) {
    let mut cm = Costmap::from_map(CostmapConfig::default(), map);
    let mut lidar = Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(seed));
    let mut meter = WorkMeter::new();
    for (k, &pose) in poses.iter().enumerate() {
        let scan = lidar.scan(seen, pose, SimTime::from_secs_f64(0.2 * k as f64));
        cm.update(map, pose, &scan, &mut meter);
    }
    let dims = *cm.dims();
    (
        fnv1a((0..dims.len()).map(|i| cm.cost(dims.unflat(i)))),
        meter.finish().total_cycles().to_bits(),
    )
}

/// Mark the cells within `r` of `c` free in `map`.
fn erase_disc(map: &mut MapMsg, c: Point2, r: f64) {
    for i in 0..map.cells.len() {
        if map.dims.grid_to_world(map.dims.unflat(i)).distance(c) <= r {
            map.cells[i] = MapMsg::FREE;
        }
    }
}

#[test]
fn lab_costmap_master_grid_is_pinned() {
    let world = presets::lab();
    // The static map misses two chairs the scanner sees.
    let mut map = world.to_map_msg(SimTime::EPOCH);
    erase_disc(&mut map, Point2::new(2.9, 4.4), 0.3);
    erase_disc(&mut map, Point2::new(4.3, 5.3), 0.3);
    let poses = [
        (1.5, 5.0, 0.0),
        (2.2, 4.9, 0.1),
        (3.0, 4.8, 0.0),
        (3.8, 4.8, -0.1),
        (4.6, 4.8, 0.0),
    ]
    .map(|(x, y, th)| Pose2D::new(x, y, th));
    let got = costmap_fingerprint(&map, &world, &poses, 11);
    assert_eq!(
        got,
        (0x46c2_ce44_e2fb_fd98, 0x41c7_a947_2a00_0000),
        "{got:#018x?}"
    );
}

/// A 6 × 6 m walled room with random boxes, an unknown patch in its
/// map, and random discs only the scanner sees.
fn seeded_case(seed: u64) -> (MapMsg, World) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut room = WorldBuilder::new(6.0, 6.0, 0.05).walls();
    for _ in 0..6 {
        let (x, y) = (rng.uniform_range(0.5, 5.0), rng.uniform_range(0.5, 5.0));
        let (w, h) = (rng.uniform_range(0.1, 0.6), rng.uniform_range(0.1, 0.6));
        room = room.rect(Point2::new(x, y), Point2::new(x + w, y + h));
    }
    let mut map = room.clone().build().to_map_msg(SimTime::EPOCH);
    let (c0, r0) = (rng.index(80), rng.index(80));
    for row in r0..r0 + 30 {
        for col in c0..c0 + 30 {
            map.cells[row * 120 + col] = MapMsg::UNKNOWN;
        }
    }
    for _ in 0..3 {
        let c = Point2::new(rng.uniform_range(0.5, 5.5), rng.uniform_range(0.5, 5.5));
        room = room.disc(c, rng.uniform_range(0.1, 0.3));
    }
    (map, room.build())
}

#[test]
fn seeded_costmap_master_grids_are_pinned() {
    let poses: [Pose2D; 5] = std::array::from_fn(|k| {
        Pose2D::new(1.0 + 0.8 * k as f64, 3.0 + 0.2 * k as f64, 0.4 * k as f64)
    });
    let got = [3u64, 17, 29].map(|seed| {
        let (map, seen) = seeded_case(seed);
        costmap_fingerprint(&map, &seen, &poses, seed)
    });
    assert_eq!(
        got,
        [
            (0xf6bb_0ac9_e6f3_ee70, 0x41ae_4f19_b000_0000),
            (0x50b0_09d5_8834_b248, 0x41ae_2251_a000_0000),
            (0xb4df_8a32_db9b_1a2a, 0x41ae_136d_7000_0000),
        ],
        "{got:#018x?}"
    );
}
