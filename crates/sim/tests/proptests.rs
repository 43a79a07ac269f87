//! Property-based tests for the simulation substrate.

use lgv_sim::platform::Platform;
use lgv_sim::power::{LgvProfile, TransmitModel};
use lgv_sim::world::WorldBuilder;
use lgv_sim::{Battery, Lidar, LidarConfig, Vehicle, VehicleConfig};
use lgv_types::prelude::*;
use proptest::prelude::*;

proptest! {
    #[test]
    fn raycast_never_exceeds_max_range(
        x in 0.5f64..9.5, y in 0.5f64..9.5, a in -3.1f64..3.1, r in 0.1f64..20.0,
    ) {
        let w = WorldBuilder::new(10.0, 10.0, 0.05).walls().build();
        let d = w.raycast(Point2::new(x, y), a, r);
        prop_assert!(d >= 0.0 && d <= r + 1e-9);
    }

    #[test]
    fn raycast_monotone_in_max_range(
        x in 1.0f64..9.0, y in 1.0f64..9.0, a in -3.1f64..3.1,
    ) {
        let w = WorldBuilder::new(10.0, 10.0, 0.05).walls()
            .disc(Point2::new(5.0, 5.0), 0.6).build();
        let d_short = w.raycast(Point2::new(x, y), a, 1.0);
        let d_long = w.raycast(Point2::new(x, y), a, 8.0);
        // A longer budget can only reveal hits at or past the short cap.
        prop_assert!(d_long + 1e-9 >= d_short || d_short >= 1.0 - 1e-9);
    }

    #[test]
    fn vehicle_never_penetrates_walls(
        seed in 0u64..200, vx in 0.0f64..0.22, wz in -2.0f64..2.0,
    ) {
        let w = WorldBuilder::new(6.0, 6.0, 0.05).walls().build();
        let mut v = Vehicle::new(
            VehicleConfig::default(),
            Pose2D::new(3.0, 3.0, 0.0),
            SimRng::seed_from_u64(seed),
        );
        v.command(Twist::new(vx, wz));
        for _ in 0..400 {
            v.step(&w, Duration::from_millis(50));
            let p = v.true_pose().position();
            prop_assert!(!w.collides_disc(p, v.config().radius * 0.9),
                "vehicle inside wall at {p:?}");
        }
    }

    #[test]
    fn vehicle_speed_never_exceeds_limits(
        vx in -1.0f64..1.0, wz in -5.0f64..5.0,
    ) {
        let w = WorldBuilder::new(6.0, 6.0, 0.05).walls().build();
        let cfg = VehicleConfig::default();
        let (ml, ma) = (cfg.max_linear, cfg.max_angular);
        let mut v = Vehicle::new(cfg, Pose2D::new(3.0, 3.0, 0.0), SimRng::seed_from_u64(1));
        v.command(Twist::new(vx, wz));
        for _ in 0..100 {
            let t = v.step(&w, Duration::from_millis(20));
            prop_assert!(t.linear.abs() <= ml + 1e-9);
            prop_assert!(t.angular.abs() <= ma + 1e-9);
        }
    }

    #[test]
    fn exec_time_monotone_in_work(
        serial in 0.0f64..1e9, par in 0.0f64..1e10, threads in 1u32..16,
    ) {
        let p = Platform::edge_gateway();
        let w1 = Work::with_parallel(serial, par, 100);
        let w2 = Work::with_parallel(serial * 2.0 + 1.0, par * 2.0 + 1.0, 100);
        prop_assert!(p.exec_time(&w2, threads) >= p.exec_time(&w1, threads));
    }

    #[test]
    fn exec_time_positive_for_nonzero_work(cycles in 1.0f64..1e10, threads in 1u32..32) {
        for p in [Platform::turtlebot3(), Platform::edge_gateway(), Platform::cloud_server()] {
            let t = p.exec_time(&Work::serial(cycles), threads);
            prop_assert!(t > lgv_types::Duration::ZERO);
        }
    }

    #[test]
    fn best_threads_is_optimal(serial in 0.0f64..1e8, par in 0.0f64..1e9, items in 1u32..256) {
        let p = Platform::cloud_server();
        let w = Work::with_parallel(serial, par, items);
        let best = p.best_threads(&w);
        let t_best = p.exec_time(&w, best);
        for t in [1u32, 2, 4, 8, 16, 24, 48] {
            prop_assert!(t_best <= p.exec_time(&w, t));
        }
    }

    #[test]
    fn motor_power_nonnegative_and_bounded(v in -1.0f64..1.0, a in -5.0f64..5.0) {
        let m = LgvProfile::turtlebot3().motor_model();
        let p = m.power(v, a);
        prop_assert!(p >= 0.0 && p <= m.max_w);
    }

    #[test]
    fn transmit_energy_linear_in_bytes(bytes in 1usize..100_000, rate in 1e3f64..1e9) {
        let t = TransmitModel { power_w: 1.3 };
        let e1 = t.energy(bytes, rate);
        let e2 = t.energy(bytes * 2, rate);
        prop_assert!((e2 - 2.0 * e1).abs() < 1e-9 * e1.max(1.0));
    }

    #[test]
    fn battery_drain_conserves(cap in 0.1f64..100.0, drains in proptest::collection::vec(0.0f64..1000.0, 0..20)) {
        let mut b = Battery::new_wh(cap);
        let total_cap = cap * 3600.0;
        for d in &drains {
            b.drain(*d);
        }
        let spent: f64 = drains.iter().sum::<f64>().min(total_cap);
        prop_assert!((b.remaining_j() - (total_cap - spent)).abs() < 1e-6);
    }

    #[test]
    fn lidar_ranges_within_bounds(seed in 0u64..100, x in 1.0f64..9.0, y in 1.0f64..9.0) {
        let w = WorldBuilder::new(10.0, 10.0, 0.05).walls()
            .rect(Point2::new(4.0, 4.0), Point2::new(5.0, 5.0)).build();
        let mut l = Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(seed));
        if w.collides_disc(Point2::new(x, y), 0.2) {
            return Ok(());
        }
        let s = l.scan(&w, Pose2D::new(x, y, 0.3), SimTime::EPOCH);
        prop_assert_eq!(s.len(), 360);
        prop_assert!(s.ranges.iter().all(|&r| (0.0..=3.5).contains(&r)));
    }
}

/// `World::raycast_dir` as it stood before it walked the shared
/// `RayWalk`: its own inlined copy of the stepping loop, with libm
/// `floor`. Kept here only as the reference the shared walk must
/// reproduce bit for bit.
fn reference_raycast_dir(
    w: &lgv_sim::world::World,
    from: Point2,
    dir_x: f64,
    dir_y: f64,
    max_range: f64,
) -> f64 {
    let dims = w.dims();
    let to_grid = |p: Point2| {
        GridIndex::new(
            ((p.x - dims.origin.x) / dims.resolution).floor() as i32,
            ((p.y - dims.origin.y) / dims.resolution).floor() as i32,
        )
    };
    let res = dims.resolution;
    let to = Point2::new(from.x + max_range * dir_x, from.y + max_range * dir_y);
    let start = to_grid(from);
    let end = to_grid(to);
    let dx = to.x - from.x;
    let dy = to.y - from.y;
    let step_x: i32 = if dx > 0.0 { 1 } else { -1 };
    let step_y: i32 = if dy > 0.0 { 1 } else { -1 };
    let fx = (from.x - dims.origin.x) / res - start.col as f64;
    let fy = (from.y - dims.origin.y) / res - start.row as f64;
    let mut t_max_x = if dx.abs() < 1e-12 {
        f64::INFINITY
    } else if dx > 0.0 {
        (1.0 - fx) * res / dx.abs()
    } else {
        fx * res / dx.abs()
    };
    let mut t_max_y = if dy.abs() < 1e-12 {
        f64::INFINITY
    } else if dy > 0.0 {
        (1.0 - fy) * res / dy.abs()
    } else {
        fy * res / dy.abs()
    };
    let t_delta_x = if dx.abs() < 1e-12 {
        f64::INFINITY
    } else {
        res / dx.abs()
    };
    let t_delta_y = if dy.abs() < 1e-12 {
        f64::INFINITY
    } else {
        res / dy.abs()
    };
    let chebyshev = (start.col - end.col).abs().max((start.row - end.row).abs());
    let mut remaining = (chebyshev as u32 + 1) * 2 + 4;
    let mut cur = start;
    loop {
        if remaining == 0 {
            return max_range;
        }
        remaining -= 1;
        if w.occupied(cur) {
            let hit = dims.grid_to_world(cur);
            return from.distance(hit).min(max_range);
        }
        if cur == end {
            return max_range;
        }
        if t_max_x < t_max_y {
            t_max_x += t_delta_x;
            cur.col += step_x;
        } else {
            t_max_y += t_delta_y;
            cur.row += step_y;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    fn raycast_dir_matches_reference_bit_for_bit(
        x in -1.0f64..11.0, y in -1.0f64..11.0, a in -3.2f64..3.2, r in 0.0f64..16.0,
        axis in 0u8..3,
    ) {
        let w = WorldBuilder::new(10.0, 10.0, 0.05).walls()
            .disc(Point2::new(5.0, 5.0), 0.6)
            .rect(Point2::new(2.0, 6.0), Point2::new(3.0, 6.4))
            .build();
        // Arbitrary headings, plus exact axis directions.
        let (dx, dy) = match axis {
            0 => (a.cos(), a.sin()),
            1 => (a.signum(), 0.0),
            _ => (0.0, a.signum()),
        };
        let from = Point2::new(x, y);
        let got = w.raycast_dir(from, dx, dy, r);
        let want = reference_raycast_dir(&w, from, dx, dy, r);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
fn raycast_with_a_corrupt_range_stops_at_the_world_edge() {
    let w = WorldBuilder::new(10.0, 10.0, 0.05).build();
    for r in [1e300, f64::INFINITY] {
        let d = w.raycast(Point2::new(5.0, 5.0), 0.3, r);
        assert!(d.is_finite() && d < 10.0, "range {r:e}: {d}");
    }
}
