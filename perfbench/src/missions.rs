//! The three workloads' mission sets, and the outside stepping loop
//! that drives them.

use crate::stats::Timing;
use lgv_net::RemoteSite;
use lgv_offload::fleet::{CloudPolicy, ElasticConfig, FleetConfig, RegionTopology};
use lgv_offload::mission::{MissionConfig, MissionReport, Workload as MissionKind};
use lgv_offload::{Deployment, VehicleSession};
use lgv_sim::world::generator::{generate, Floorplan, FloorplanConfig};
use lgv_trace::Tracer;
use lgv_types::prelude::*;
use std::time::Instant;

/// The seed whose mission fingerprints are stored in `golden.txt`.
pub const CANONICAL_SEED: u64 = 42;
/// Procedural floorplans per `navigate` run; each runs under two
/// deployments.
pub const FLOORPLANS: u64 = 6;
/// Vehicles in the `fleet` workload.
pub const FLEET_SIZE: usize = 128;
/// Vehicles per floorplan stripe (region) in the `fleet` workload.
pub const FLEET_REGION_STRIDE: usize = 32;

/// The cloud tier with two remote threads. Host threads equal modelled
/// threads in the SLAM and DWA kernels, so no workload may model more
/// threads than the host has; two fits a 2-core machine.
pub fn cloud_2t() -> Deployment {
    Deployment {
        label: "Cloud (2t)",
        site: Some(RemoteSite::CloudServer),
        threads: 2,
    }
}

/// Exploration missions per `explore` run. Host time per simulated
/// second differs by up to a fifth between mission seeds, so a run
/// averages several.
pub const EXPLORE_MISSIONS: u64 = 6;
/// Simulated seconds of each `explore` mission. Exploration missions
/// finish after 180 s to several minutes depending on the seed; every
/// mission runs this long, so every run does the same phase of the
/// work.
pub const EXPLORE_SECS: u64 = 90;

/// One `explore` mission: the first [`EXPLORE_SECS`] of an Exploration
/// mission on the lab preset with seed `seed`, SLAM offloaded to a
/// 2-thread cloud tier.
pub fn explore_config(seed: u64) -> MissionConfig {
    let mut cfg = MissionConfig::exploration_lab(cloud_2t());
    cfg.seed = seed;
    cfg.max_time = Duration::from_secs(EXPLORE_SECS);
    cfg.slam_particles = 30;
    cfg.dwa_samples = 1000;
    cfg
}

/// Every `explore` mission of workload seed `seed`: a block of
/// [`EXPLORE_MISSIONS`] mission seeds of its own.
pub fn explore_configs(seed: u64) -> Vec<MissionConfig> {
    (0..EXPLORE_MISSIONS)
        .map(|i| explore_config(seed.wrapping_mul(EXPLORE_MISSIONS).wrapping_add(i)))
        .collect()
}

/// The `navigate` floorplan family: 3 × 2 rooms of 4.5 m, as the
/// deployment sweep uses.
pub fn floorplan_config() -> FloorplanConfig {
    FloorplanConfig {
        rooms_x: 3,
        rooms_y: 2,
        room_size: 4.5,
        door: 1.3,
        ..Default::default()
    }
}

/// The floorplan seeds a `navigate` run with workload seed `seed`
/// uses: a block of [`FLOORPLANS`] seeds of its own.
pub fn floorplan_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..FLOORPLANS).map(move |i| seed.wrapping_mul(FLOORPLANS).wrapping_add(i))
}

/// The two deployments every `navigate` floorplan runs under.
pub fn navigate_deployments() -> [Deployment; 2] {
    [Deployment::local(), Deployment::cloud()]
}

/// One `navigate` mission: Navigation across `plan` under `deployment`.
pub fn navigate_config(plan: &Floorplan, plan_seed: u64, deployment: Deployment) -> MissionConfig {
    let gen = floorplan_config();
    let mut cfg = MissionConfig::navigation_lab(deployment);
    cfg.seed = plan_seed;
    cfg.world = plan.world.clone();
    cfg.start = plan.start;
    cfg.nav_goal = plan.goal;
    cfg.wap = Point2::new(
        gen.rooms_x as f64 * gen.room_size / 2.0,
        gen.rooms_y as f64 * gen.room_size / 2.0,
    );
    cfg.record_traces = false;
    // Local missions take 70–130 simulated seconds; the cap bounds the
    // host time of a mission that gets stuck.
    cfg.max_time = Duration::from_secs(300);
    cfg
}

/// Every `navigate` mission of workload seed `seed`, floorplan-major.
pub fn navigate_configs(seed: u64) -> Vec<MissionConfig> {
    let gen = floorplan_config();
    floorplan_seeds(seed)
        .flat_map(|s| {
            let plan = generate(&gen, s);
            navigate_deployments().map(|d| navigate_config(&plan, s, d))
        })
        .collect()
}

/// `fleet`: a regionally sharded fleet of `compact_lab` Navigation
/// vehicles on the 1-thread cloud, elastic pools over half as many
/// pools as regions (so WAN hops occur), stepped by two workers.
pub fn fleet_config(seed: u64) -> FleetConfig {
    let mut base = MissionConfig::compact_lab(Deployment::cloud(), MissionKind::Navigation);
    base.seed = seed;
    let regions = (FLEET_SIZE / FLEET_REGION_STRIDE).max(1) as u32;
    FleetConfig::new(base, FLEET_SIZE)
        .with_cloud(CloudPolicy::Elastic(ElasticConfig::balanced()))
        .with_topology(RegionTopology::sharded(regions).with_cloud_pools((regions / 2).max(1)))
        .with_threads(2)
}

/// Drive one session from outside — `begin`, `step` until it reports
/// the mission over, `finish` — timing every `step` into `steps`.
/// Returns the report and the summed stepping wall time in seconds.
/// Produces the same report as `mission::run` on the same config.
pub fn drive(mut session: VehicleSession, steps: &mut Timing) -> (MissionReport, f64) {
    let t0 = Instant::now();
    session.begin();
    while steps.time(|| session.step()) {}
    let report = session.finish();
    (report, t0.elapsed().as_secs_f64())
}

/// Build the session for `cfg`, timing `VehicleSession::new`.
pub fn new_session(cfg: MissionConfig, tracer: Tracer, timing: &mut Timing) -> VehicleSession {
    timing.time(|| VehicleSession::new(cfg, tracer))
}
