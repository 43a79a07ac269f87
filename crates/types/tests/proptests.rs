//! Property-based tests for the foundation types.

use lgv_types::prelude::*;
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    #[test]
    fn normalize_angle_always_in_range(a in -1e6f64..1e6) {
        let n = normalize_angle(a);
        prop_assert!(n > -PI && n <= PI);
    }

    #[test]
    fn normalize_angle_preserves_direction(a in -1e3f64..1e3) {
        // The normalized angle differs from the input by a multiple of 2π.
        let n = normalize_angle(a);
        let k = (a - n) / (2.0 * PI);
        prop_assert!((k - k.round()).abs() < 1e-6, "k = {k}");
    }

    #[test]
    fn angle_sub_is_shortest(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let d = (Angle::from_radians(a) - Angle::from_radians(b)).radians();
        prop_assert!(d.abs() <= PI + 1e-9);
    }

    #[test]
    fn pose_roundtrip_local_world(
        px in -50.0f64..50.0, py in -50.0f64..50.0, pth in -PI..PI,
        qx in -50.0f64..50.0, qy in -50.0f64..50.0,
    ) {
        let pose = Pose2D::new(px, py, pth);
        let q = Point2::new(qx, qy);
        let rt = pose.transform_to_local(pose.transform_from_local(q));
        prop_assert!(rt.distance(q) < 1e-9);
    }

    #[test]
    fn pose_compose_between_roundtrip(
        ax in -20.0f64..20.0, ay in -20.0f64..20.0, ath in -PI..PI,
        bx in -20.0f64..20.0, by in -20.0f64..20.0, bth in -PI..PI,
    ) {
        let a = Pose2D::new(ax, ay, ath);
        let b = Pose2D::new(bx, by, bth);
        let r = a.compose(a.between(b));
        prop_assert!(r.distance(b) < 1e-9);
        prop_assert!(normalize_angle(r.theta - b.theta).abs() < 1e-9);
    }

    #[test]
    fn integrate_arc_length_matches_speed(
        v in 0.0f64..1.0, w in -2.0f64..2.0, dt in 0.001f64..0.5,
    ) {
        // Over a short step the chord length is ≤ v·dt and close to it.
        let p = Pose2D::new(0.0, 0.0, 0.0);
        let q = p.integrate(Twist::new(v, w), dt);
        let chord = p.distance(q);
        prop_assert!(chord <= v * dt + 1e-9);
        prop_assert!(chord >= v * dt * 0.9 - 1e-9, "chord {chord} vs {}", v * dt);
    }

    #[test]
    fn grid_world_roundtrip(col in 0i32..200, row in 0i32..150) {
        let dims = GridDims::new(200, 150, 0.05, Point2::new(-3.0, -2.0));
        let idx = GridIndex::new(col, row);
        prop_assert_eq!(dims.world_to_grid(dims.grid_to_world(idx)), idx);
    }

    #[test]
    fn grid_flat_roundtrip(col in 0i32..64, row in 0i32..48) {
        let dims = GridDims::new(64, 48, 0.1, Point2::ORIGIN);
        let idx = GridIndex::new(col, row);
        prop_assert_eq!(dims.unflat(dims.flat(idx)), idx);
    }

    #[test]
    fn ray_is_connected_and_terminates(
        x0 in 0.05f64..9.95, y0 in 0.05f64..7.95,
        x1 in 0.05f64..9.95, y1 in 0.05f64..7.95,
    ) {
        let dims = GridDims::new(100, 80, 0.1, Point2::ORIGIN);
        let cells: Vec<_> = GridRay::new(&dims, Point2::new(x0, y0), Point2::new(x1, y1)).collect();
        prop_assert!(!cells.is_empty());
        prop_assert_eq!(cells[0], dims.world_to_grid(Point2::new(x0, y0)));
        prop_assert_eq!(*cells.last().unwrap(), dims.world_to_grid(Point2::new(x1, y1)));
        for w in cells.windows(2) {
            prop_assert!(w[0].neighbors4().contains(&w[1]));
        }
    }

    #[test]
    fn duration_secs_roundtrip(s in 0.0f64..1e6) {
        let d = Duration::from_secs_f64(s);
        prop_assert!((d.as_secs_f64() - s).abs() < 1e-6);
    }

    #[test]
    fn low_variance_resample_in_bounds(seed in 0u64..500, n in 1usize..12, k in 1usize..64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..n).map(|i| (i as f64) + 0.5).collect();
        let idx = lgv_types::rng::low_variance_resample(&mut rng, &weights, k);
        prop_assert_eq!(idx.len(), k);
        prop_assert!(idx.iter().all(|&i| i < n));
        // Systematic resampling produces sorted index sequences.
        prop_assert!(idx.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn nodeset_roundtrip(bits in 0u8..128) {
        let kinds: Vec<NodeKind> = NodeKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, k)| k)
            .collect();
        let set = NodeSet::from_iter(kinds.iter().copied());
        prop_assert_eq!(set.len(), kinds.len());
        let back: Vec<NodeKind> = set.iter().collect();
        prop_assert_eq!(back, kinds);
    }
}

/// The cell walk as it stood before [`RayWalk`]: a `GridIndex` stepper
/// with libm `floor`, kept here only as the reference the shared walk
/// must reproduce cell for cell.
mod reference {
    use lgv_types::prelude::*;

    fn world_to_grid(dims: &GridDims, p: Point2) -> GridIndex {
        GridIndex::new(
            ((p.x - dims.origin.x) / dims.resolution).floor() as i32,
            ((p.y - dims.origin.y) / dims.resolution).floor() as i32,
        )
    }

    pub fn cells(dims: &GridDims, from: Point2, to: Point2) -> Vec<GridIndex> {
        let start = world_to_grid(dims, from);
        let end = world_to_grid(dims, to);
        let dir = to - from;
        let res = dims.resolution;
        let step_x = if dir.x > 0.0 { 1 } else { -1 };
        let step_y = if dir.y > 0.0 { 1 } else { -1 };
        let fx = (from.x - dims.origin.x) / res - start.col as f64;
        let fy = (from.y - dims.origin.y) / res - start.row as f64;
        let mut t_max_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.x > 0.0 {
            (1.0 - fx) * res / dir.x.abs()
        } else {
            fx * res / dir.x.abs()
        };
        let mut t_max_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else if dir.y > 0.0 {
            (1.0 - fy) * res / dir.y.abs()
        } else {
            fy * res / dir.y.abs()
        };
        let t_delta_x = if dir.x.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.x.abs()
        };
        let t_delta_y = if dir.y.abs() < 1e-12 {
            f64::INFINITY
        } else {
            res / dir.y.abs()
        };
        let chebyshev = (start.col - end.col).abs().max((start.row - end.row).abs());
        let mut remaining = (chebyshev as u32 + 1) * 2 + 4;
        let mut cur = start;
        let mut out = Vec::new();
        while remaining > 0 {
            remaining -= 1;
            out.push(cur);
            if cur == end {
                break;
            }
            if t_max_x < t_max_y {
                t_max_x += t_delta_x;
                cur.col += step_x;
            } else {
                t_max_y += t_delta_y;
                cur.row += step_y;
            }
        }
        out
    }
}

/// Every cell of a [`RayWalk::walk`]: the visited ones, then the end
/// cell when the walk reached it. Checks each cell's flat index.
fn walked_cells(dims: &GridDims, from: Point2, to: Point2) -> Vec<GridIndex> {
    let mut cells = Vec::new();
    let mut record = |c: RayCell| {
        let want = dims.contains(c.idx).then(|| dims.flat(c.idx));
        assert_eq!(c.flat, want, "flat index of {:?}", c.idx);
        cells.push(c.idx);
    };
    let walked = RayWalk::new(dims, from, to).walk(|c| {
        record(c);
        std::ops::ControlFlow::<()>::Continue(())
    });
    if let std::ops::ControlFlow::Continue(Some(end)) = walked {
        record(end);
    }
    cells
}

/// The reference's cells, `GridRay`'s and `RayWalk::walk`'s, all of
/// which must agree.
fn all_walks(dims: &GridDims, from: Point2, to: Point2) -> [Vec<GridIndex>; 3] {
    [
        reference::cells(dims, from, to),
        GridRay::new(dims, from, to).collect(),
        walked_cells(dims, from, to),
    ]
}

/// A 10 × 8 m grid at 0.1 m whose origin is off the cell lattice of
/// the world frame.
fn walk_dims() -> GridDims {
    GridDims::new(100, 80, 0.1, Point2::new(-0.03, 0.07))
}

proptest! {
    // Equivalence checks are cheap: draw many more cases than usual.
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn floor_i32_matches_floor_on_any_bits(x in any::<f64>()) {
        prop_assert_eq!(lgv_types::grid::floor_i32(x), x.floor() as i32);
    }

    #[test]
    fn floor_i32_matches_floor_near_the_i32_range(x in -2.2e9f64..2.2e9) {
        prop_assert_eq!(lgv_types::grid::floor_i32(x), x.floor() as i32);
    }

    #[test]
    fn ray_walk_matches_reference(
        x0 in -2.0f64..12.0, y0 in -2.0f64..10.0,
        x1 in -2.0f64..12.0, y1 in -2.0f64..10.0,
        kind in 0u8..5,
    ) {
        // Free segments, segments leaving the grid, axis-aligned ones,
        // zero-length ones, and ones with both ends on cell borders.
        let snap = |v: f64| (v * 10.0).round() / 10.0 - 0.03;
        let (a, b) = match kind {
            0 => (Point2::new(x0, y0), Point2::new(x1, y1)),
            1 => (Point2::new(x0, y0), Point2::new(x1, y0)),
            2 => (Point2::new(x0, y0), Point2::new(x0, y1)),
            3 => (Point2::new(x0, y0), Point2::new(x0, y0)),
            _ => (Point2::new(snap(x0), snap(y0)), Point2::new(snap(x1), snap(y1))),
        };
        let dims = walk_dims();
        let [want, ray, walk] = all_walks(&dims, a, b);
        prop_assert!(!want.is_empty());
        prop_assert_eq!(&ray, &want);
        prop_assert_eq!(&walk, &want);
    }
}

#[test]
fn floor_i32_matches_floor_at_the_edges() {
    let two31 = 2147483648.0f64;
    let cases = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        -5e-324,
        0.5,
        -0.5,
        -1.0,
        -1.0 - f64::EPSILON,
        two31 - 1.0,
        two31 - 0.5,
        two31,
        two31 + 0.5,
        -two31,
        -two31 + 0.5,
        -two31 - 0.5,
        -two31 - 1.0,
        -two31 - 1.5,
    ];
    for x in cases {
        assert_eq!(lgv_types::grid::floor_i32(x), x.floor() as i32, "x = {x:e}");
    }
}

#[test]
fn ray_walk_matches_reference_when_rounding_misses_the_end_cell() {
    // A direction too steep for `t_max_x` (|dx| < 1e-12) across a
    // column border: the walk never turns into the end column and runs
    // out its cell budget.
    let dims = GridDims::new(100, 80, 0.1, Point2::ORIGIN);
    let a = Point2::new(0.299_999_999_999_99, 0.05);
    let b = Point2::new(0.300_000_000_000_01, 0.55);
    let [want, ray, walk] = all_walks(&dims, a, b);
    assert_ne!(want.last(), Some(&dims.world_to_grid(b)));
    assert_eq!(want.len(), 16);
    assert_eq!(ray, want);
    assert_eq!(walk, want);
}

#[test]
fn far_apart_rays_neither_panic_nor_wrap() {
    let dims = GridDims::new(100, 80, 0.1, Point2::ORIGIN);
    let coords = [
        -1e300,
        1e300,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NAN,
        0.5,
    ];
    for &x0 in &coords {
        for &x1 in &coords {
            for &y1 in &coords {
                let (a, b) = (Point2::new(x0, 0.5), Point2::new(x1, y1));
                assert!(GridRay::new(&dims, a, b).take(1000).count() > 0);
                let mut n = 0;
                let _ = RayWalk::new(&dims, a, b).walk(|_| {
                    n += 1;
                    if n == 1000 {
                        std::ops::ControlFlow::Break(())
                    } else {
                        std::ops::ControlFlow::Continue(())
                    }
                });
            }
        }
    }
    let (lo, hi) = (
        GridIndex::new(i32::MIN, i32::MIN),
        GridIndex::new(i32::MAX, i32::MAX),
    );
    assert_eq!(lo.chebyshev(hi), u32::MAX as i64);
    // The cell budget saturates instead of wrapping: a ray from one end
    // of the i32 range to the other walks more than a few cells.
    let (a, b) = (Point2::new(-1e300, 0.5), Point2::new(1e300, 0.5));
    assert_eq!(GridRay::new(&dims, a, b).take(1000).count(), 1000);
}
