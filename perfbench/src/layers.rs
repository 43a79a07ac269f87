//! Per-layer replays: the layer calls `VehicleSession::step` makes,
//! timed one by one through each crate's public API.
//!
//! A replay takes a workload's own inputs — its world, seed, SLAM
//! particle count, DWA sample count and deployment — and feeds the
//! layers a scripted scan/odometry tour through that world, one 200 ms
//! cycle at a time, in the order a control cycle calls them. Calls
//! that return a `Work` also charge its modelled Gcycles, so host time
//! and modelled cost sit side by side for each call.

use crate::stats::Timing;
use bytes::Bytes;
use lgv_middleware::{from_bytes, to_bytes, Bus, TopicName};
use lgv_nav::costmap::{Costmap, CostmapConfig};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_nav::frontier::{FrontierConfig, FrontierExplorer};
use lgv_nav::global_planner::{GlobalPlanner, PlannerConfig};
use lgv_nav::{Amcl, AmclConfig};
use lgv_net::signal::SignalModel;
use lgv_net::UdpChannel;
use lgv_offload::fleet::ElasticConfig;
use lgv_offload::mission::{MissionConfig, Workload as MissionKind};
use lgv_offload::session::CONTROL_PERIOD;
use lgv_sim::cloud::CloudScheduler;
use lgv_sim::world::World;
use lgv_sim::{Lidar, LidarConfig};
use lgv_slam::{GMapping, SlamConfig};
use lgv_types::prelude::*;
use std::collections::BTreeMap;

/// Every timed layer call, in report order, and whether it returns a
/// modelled `Work` (so reports `.gcycles_per_call`).
pub const LAYERS: &[(&str, bool)] = &[
    ("core.step", true),
    ("core.session_new", false),
    ("core.run_fleet", false),
    ("slam.process", true),
    ("slam.best_map", false),
    ("nav.costmap_update", true),
    ("nav.costmap_set_static_map", false),
    ("nav.dwa_compute", true),
    ("nav.amcl_process", true),
    ("nav.plan", true),
    ("nav.frontier", true),
    ("sim.lidar_scan", false),
    ("sim.cloud_admit", false),
    ("net.udp_send_tick_recv", false),
    ("middleware.encode_scan", false),
    ("middleware.decode_scan", false),
    ("middleware.encode_map", false),
    ("middleware.bus_publish_recv", false),
];

/// Timings keyed by layer-call name.
pub type Timings = BTreeMap<&'static str, Timing>;

/// A scripted tour through a world, sampled by the standard lidar: the
/// same kind of scan/odometry feed a mission's vehicle produces.
struct Feed {
    world: World,
    lidar: Lidar,
    pose: Pose2D,
    t: SimTime,
    k: u32,
}

impl Feed {
    fn new(world: World, start: Pose2D, seed: u64) -> Self {
        Feed {
            world,
            lidar: Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(seed)),
            pose: start,
            t: SimTime::EPOCH,
            k: 0,
        }
    }

    /// Next (odometry, scan) pair; the scan is timed into `lidar`.
    fn next(&mut self, lidar: &mut Timing) -> (OdometryMsg, LaserScan) {
        // Gentle S-curve steering, turning in place before a collision.
        self.k += 1;
        let twist = Twist::new(0.15, 0.4 * (self.k as f64 * 0.12).sin());
        let next = self.pose.integrate(twist, CONTROL_PERIOD.as_secs_f64());
        self.pose = if self.world.collides_disc(next.position(), 0.18) {
            Pose2D::new(self.pose.x, self.pose.y, self.pose.theta + 0.5)
        } else {
            next
        };
        self.t += CONTROL_PERIOD;
        let odom = OdometryMsg {
            stamp: self.t,
            pose: self.pose,
            twist,
        };
        let scan = lidar.time(|| self.lidar.scan(&self.world, self.pose, self.t));
        (odom, scan)
    }
}

/// Replay `cycles` control cycles of `cfg`'s layer calls and return
/// their timings. `tenants` > 0 also replays the shared cloud's
/// admissions: every cycle, that many tenants admit the path-tracking
/// stage.
pub fn replay(cfg: &MissionConfig, cycles: usize, tenants: u64) -> Timings {
    let [mut lidar_t, mut slam_t, mut best_map_t, mut static_t, mut update_t, mut dwa_t, mut amcl_t, mut plan_t, mut frontier_t, mut admit_t, mut udp_t, mut enc_scan_t, mut dec_scan_t, mut enc_map_t, mut bus_t] =
        std::array::from_fn(|_| Timing::default());

    let exploring = cfg.workload == MissionKind::Exploration;
    let threads = cfg.deployment.threads.max(1);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut feed = Feed::new(cfg.world.clone(), cfg.start, cfg.seed);
    let dims = *cfg.world.dims();
    let truth = cfg.world.to_map_msg(SimTime::EPOCH);

    let mut slam = exploring.then(|| {
        let mut slam = GMapping::new(
            SlamConfig {
                num_particles: cfg.slam_particles,
                threads: 1,
                map_dims: dims,
                ..SlamConfig::default()
            },
            cfg.start,
            rng.fork(4),
        );
        slam.set_threads(threads as usize);
        slam
    });
    let mut amcl =
        (!exploring).then(|| Amcl::new(AmclConfig::default(), &truth, cfg.start, rng.fork(3)));
    let mut map = if exploring {
        MapMsg {
            stamp: SimTime::EPOCH,
            dims,
            cells: vec![MapMsg::UNKNOWN; dims.len()],
        }
    } else {
        truth
    };
    let mut costmap = if exploring {
        Costmap::empty(CostmapConfig::default(), dims)
    } else {
        Costmap::from_map(CostmapConfig::default(), &map)
    };
    let planner = GlobalPlanner::new(PlannerConfig {
        allow_unknown: exploring,
        ..PlannerConfig::default()
    });
    let frontier = FrontierExplorer::new(FrontierConfig::default());
    let mut dwa = DwaPlanner::new(DwaConfig {
        samples: cfg.dwa_samples,
        max_linear: cfg.velocity.hw_cap,
        threads: 1,
        ..DwaConfig::default()
    });

    let bus = Bus::new();
    let sub = bus.subscribe(TopicName::SCAN, 1);
    let wan = cfg
        .wan_latency_override
        .or(cfg.deployment.site.map(|s| s.wan_latency()))
        .unwrap_or(Duration::ZERO);
    let mut channel = UdpChannel::new(
        SignalModel::new(cfg.wireless.clone(), cfg.wap),
        wan,
        rng.fork(5),
    );
    let remote = cfg.deployment.remote_platform();
    let cloud = (tenants > 0).then(|| {
        CloudScheduler::elastic(remote.hw_threads, CONTROL_PERIOD, ElasticConfig::balanced())
    });

    let mut goal = cfg.nav_goal;
    let mut path = PathMsg {
        stamp: SimTime::EPOCH,
        waypoints: vec![],
    };
    for k in 0..cycles {
        let (odom, scan) = feed.next(&mut lidar_t);
        let now = odom.stamp;
        let pose = if let Some(slam) = slam.as_mut() {
            let out = slam_t.time(|| slam.process(&odom, &scan));
            slam_t.charge(&out.work);
            map = best_map_t.time(|| slam.best_map(now));
            static_t.time(|| costmap.set_static_map(&map));
            out.pose.pose
        } else {
            let amcl = amcl
                .as_mut()
                .expect("navigation replays localise with AMCL");
            let out = amcl_t.time(|| amcl.process(&odom, &scan));
            amcl_t.charge(&out.work);
            out.pose.pose
        };

        let mut meter = WorkMeter::new();
        update_t.time(|| costmap.update(&map, pose, &scan, &mut meter));
        update_t.charge(&meter.finish());

        // 1 Hz planning, as in the control cycle.
        if k % 5 == 0 {
            if exploring {
                let out = frontier_t
                    .time(|| frontier.select_goal_excluding(&map, pose.position(), now, &[], 0.6));
                frontier_t.charge(&out.work);
                if let Some(g) = out.goal {
                    goal = g.target;
                }
            }
            let planned = plan_t.time(|| {
                if exploring {
                    planner.plan_near(&costmap, pose.position(), goal, 0.5, now)
                } else {
                    planner.plan(&costmap, pose.position(), goal, now)
                }
            });
            if let Ok(res) = planned {
                plan_t.charge(&res.work);
                path = res.path;
            }
        }

        let out = dwa_t.time(|| dwa.compute(&costmap, pose, &path, goal));
        dwa_t.charge(&out.work);

        if let Some(cloud) = cloud.as_ref() {
            let exec = remote.exec_time(&out.work, threads);
            for tenant in 1..=tenants {
                std::hint::black_box(
                    admit_t
                        .time(|| cloud.admit(tenant, NodeKind::PathTracking, now, threads, exec)),
                );
            }
        }

        let bytes: Bytes = enc_scan_t.time(|| to_bytes(&scan).expect("scans encode"));
        let decoded =
            dec_scan_t.time(|| from_bytes::<LaserScan>(&bytes).expect("encoded scans decode"));
        std::hint::black_box(decoded);
        std::hint::black_box(enc_map_t.time(|| to_bytes(&map).expect("maps encode")));
        let received = bus_t.time(|| {
            bus.publish(TopicName::SCAN, &scan).expect("scans publish");
            sub.recv::<LaserScan>().expect("published scans decode")
        });
        std::hint::black_box(received);
        let pos = pose.position();
        let delivered = udp_t.time(|| {
            channel.send(now, pos, bytes.clone());
            channel.tick(now + Duration::from_millis(10), pos);
            channel.recv()
        });
        std::hint::black_box(delivered);
    }

    Timings::from([
        ("sim.lidar_scan", lidar_t),
        ("slam.process", slam_t),
        ("slam.best_map", best_map_t),
        ("nav.costmap_set_static_map", static_t),
        ("nav.costmap_update", update_t),
        ("nav.dwa_compute", dwa_t),
        ("nav.amcl_process", amcl_t),
        ("nav.plan", plan_t),
        ("nav.frontier", frontier_t),
        ("sim.cloud_admit", admit_t),
        ("net.udp_send_tick_recv", udp_t),
        ("middleware.encode_scan", enc_scan_t),
        ("middleware.decode_scan", dec_scan_t),
        ("middleware.encode_map", enc_map_t),
        ("middleware.bus_publish_recv", bus_t),
    ])
}
