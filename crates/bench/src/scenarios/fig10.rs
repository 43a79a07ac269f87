//! Figure 10 — processing time (ms) of the velocity-dependent path
//! (CostmapGen + PathTracking + VelocityMux) under different numbers
//! of threads and trajectory samples, on the three platforms.
//!
//! Method: run the real costmap update + DWA trajectory rollout on
//! the lab map at each sample count, take the per-activation `Work`,
//! and price it per platform/thread count.

use crate::suite::ScenarioCtx;
use crate::{write_banner, TablePrinter};
use lgv_nav::costmap::{Costmap, CostmapConfig};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_nav::velocity_mux::VelocityMux;
use lgv_sim::platform::Platform;
use lgv_sim::world::presets;
use lgv_sim::{Lidar, LidarConfig};
use lgv_types::prelude::*;
use std::io;

fn vdp_work(seed: u64, samples: u32) -> Work {
    let world = presets::lab();
    let map = world.to_map_msg(SimTime::EPOCH);
    let mut cm = Costmap::from_map(CostmapConfig::default(), &map);
    let pose = presets::lab_start();
    let mut lidar = Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(seed));
    let scan = lidar.scan(&world, pose, SimTime::EPOCH);

    let mut meter = WorkMeter::new();
    cm.update(&map, pose, &scan, &mut meter);
    let w_cm = meter.finish();

    let mut dwa = DwaPlanner::new(DwaConfig {
        samples,
        ..DwaConfig::default()
    });
    let path = PathMsg {
        stamp: SimTime::EPOCH,
        waypoints: vec![pose.position(), presets::lab_goal()],
    };
    let out = dwa.compute(&cm, pose, &path, presets::lab_goal());
    let w_mux = VelocityMux::new().work();
    w_cm + out.work + w_mux
}

/// Regenerate Figure 10.
pub fn run(ctx: &mut ScenarioCtx) -> io::Result<()> {
    write_banner(
        ctx.out,
        "Figure 10: VDP (CG + PT + VM) processing time (ms) vs threads x samples",
        "reduction up to 23.92x on the gateway, 17.29x on the cloud; high frequency \
         wins on VDP; no benefit past ~4 threads (tiny per-thread work)",
    )?;

    let sample_counts: &[u32] = if ctx.quick {
        &[100, 1000]
    } else {
        &[100, 500, 1000, 2000]
    };
    let threads = [1u32, 2, 4, 8, 12];

    let works: Vec<(u32, Work)> = sample_counts
        .iter()
        .map(|&s| (s, vdp_work(ctx.seed, s)))
        .collect();

    let platforms = [
        ("(a) Turtlebot3", Platform::turtlebot3()),
        ("(b) Edge gateway", Platform::edge_gateway()),
        ("(c) Cloud server", Platform::cloud_server()),
    ];
    let local = Platform::turtlebot3();
    let mut best_gw = 0.0f64;
    let mut best_cloud = 0.0f64;

    for (label, platform) in &platforms {
        writeln!(ctx.out, "{label} ({})", platform.model)?;
        let mut t = TablePrinter::new(
            std::iter::once("# threads".to_string())
                .chain(works.iter().map(|(s, _)| format!("{s} samples")))
                .collect::<Vec<_>>(),
        );
        for &n in &threads {
            let mut row = vec![n.to_string()];
            for (_, w) in &works {
                let ms = platform.exec_time(w, n).as_millis_f64();
                row.push(format!("{ms:.1}"));
                let speedup = local.exec_time(w, 1).as_millis_f64() / ms;
                match platform.kind {
                    lgv_sim::platform::PlatformKind::EdgeGateway => best_gw = best_gw.max(speedup),
                    lgv_sim::platform::PlatformKind::CloudServer => {
                        best_cloud = best_cloud.max(speedup)
                    }
                    _ => {}
                }
            }
            t.row(row);
        }
        t.write_to(ctx.out)?;
        t.save_csv_to(
            ctx.out,
            &format!("fig10_{:?}", platform.kind).to_lowercase(),
        )?;
        writeln!(ctx.out)?;
    }

    // The plateau observation.
    let w = &works.last().unwrap().1;
    let gw = Platform::edge_gateway();
    let t4 = gw.exec_time(w, 4).as_millis_f64();
    let t8 = gw.exec_time(w, 8).as_millis_f64();
    writeln!(
        ctx.out,
        "gateway 4->8 thread gain at max samples: {:.2}x (paper: ~flat past 4 threads)",
        t4 / t8
    )?;
    writeln!(ctx.out, "max VDP speedup vs local 1-thread:")?;
    writeln!(ctx.out, "  edge gateway : {best_gw:.2}x   (paper: 23.92x)")?;
    writeln!(
        ctx.out,
        "  cloud server : {best_cloud:.2}x   (paper: 17.29x)"
    )
}
