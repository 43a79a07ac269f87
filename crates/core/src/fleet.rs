//! Fleet-scale multi-tenancy: N vehicles, regional contention domains.
//!
//! The paper evaluates a single LGV that has the cloud server and the
//! wireless spectrum to itself. A warehouse does not work like that:
//! every vehicle's offloaded pipeline lands on a shared cloud box and
//! every uplink crosses a shared WAP. This module runs N
//! [`VehicleSession`]s interleaved on one virtual clock against those
//! shared contention resources:
//!
//! * a [`CloudScheduler`] multiplexing a remote pool's hardware
//!   threads across tenants — per-tenant queueing delay inflates the
//!   remote processing times the profiler measures, so Algorithm 1's
//!   placement genuinely reacts to cloud saturation, and
//! * a [`SharedMedium`] splitting uplink airtime between concurrent
//!   senders, so a crowded WAP stretches scan delivery.
//!
//! **Regional sharding.** One WAP and one cloud box stop scaling long
//! before 1000 vehicles, so a [`RegionTopology`] partitions the
//! warehouse floorplan into `regions` stripes: each region owns its
//! own WAP ([`SharedMedium`]) and is served by one of `cloud_pools`
//! scheduler replica pools (pool `p` is homed in region `p`; region
//! `r` is served by pool `r % cloud_pools`). Vehicles are assigned to
//! regions by floorplan stall position — stalls are filled in vehicle
//! order, stripe by stripe, so region blocks are contiguous in vehicle
//! id. A vehicle whose serving pool is homed in another region pays a
//! deterministic **WAN hop** on every admission
//! ([`VehicleSession::set_wan_hop`]).
//!
//! **Parallel execution.** Regions sharing a scheduler pool form a
//! *pool group*; groups share no mutable state, so each lockstep round
//! fans the groups across [`ParallelExecutor`] participants (the
//! calling thread and its workers, claiming chunks of groups) and
//! barriers at the round boundary. Within a group, regions (and their
//! vehicles) step in vehicle order. Reports are therefore byte-identical for
//! any [`FleetConfig::threads`] value — the round barrier plus the
//! previous-window census (below) make intra-round order immaterial,
//! and inter-group order never exists.
//!
//! **Lockstep determinism.** The driver advances every running session
//! through control cycle `k` before any session starts cycle `k+1`.
//! Both contention models bill window `w` against the *previous*
//! window's census, which is final once a round begins — so results
//! are independent of the order sessions are stepped within a round,
//! and a fleet run is exactly reproducible from its seed.
//!
//! **Fleet-of-one identity.** Vehicle 1 runs the base config verbatim,
//! [`VehicleSession::join_fleet`] draws no randomness, and a lone
//! tenant is charged exactly zero by both models — so a size-1 fleet's
//! [`MissionReport`] is byte-identical (same [`MissionReport::fingerprint`])
//! to [`crate::mission::run`] on the same config. The same collapse
//! holds one level up: a 1-region topology builds exactly one
//! scheduler and one medium, emits no region events, and steps
//! sessions in vehicle order — byte-identical to the unsharded path.

use crate::mission::{MissionConfig, MissionReport};
use crate::session::{SharedLayers, VehicleSession, CONTROL_PERIOD};
use lgv_net::fault::CloudFaultSchedule;
use lgv_net::shared::{MediumStats, SharedMedium};
pub use lgv_sim::cloud::ElasticConfig;
use lgv_sim::cloud::{CloudScheduler, CloudStats};
use lgv_slam::pool::ParallelExecutor;
use lgv_trace::{TraceEvent, Tracer};
use lgv_types::prelude::*;

/// Golden-ratio mixing constant for deriving per-vehicle seeds.
const SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// How the fleet's shared cloud tier is provisioned (each regional
/// pool is provisioned independently under the same policy).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CloudPolicy {
    /// The paper's fixed box: one replica, every admission charged
    /// independently.
    #[default]
    Fixed,
    /// FogROS-style elastic provisioning: same-stage batching and
    /// replica autoscaling per the given [`ElasticConfig`].
    Elastic(ElasticConfig),
}

/// How the fleet's floorplan is sharded into contention domains.
///
/// The warehouse is divided into `regions` equal stripes; vehicle
/// stalls are filled in vehicle order, stripe by stripe, so the
/// vehicles of region `r` are a contiguous id block. Each region owns
/// its own WAP ([`SharedMedium`]); scheduler pools may be scarcer than
/// regions (`cloud_pools ≤ regions`), in which case region `r` is
/// served by pool `r % cloud_pools` and pays `wan_hop` per admission
/// whenever that pool is homed in a different region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTopology {
    /// Floorplan stripes, each with its own WAP (clamped to
    /// `[1, fleet size]` at run time).
    pub regions: u32,
    /// Cloud scheduler pools (clamped to `[1, regions]`); pool `p` is
    /// homed in region `p`.
    pub cloud_pools: u32,
    /// Deterministic one-way surcharge a vehicle pays per remote
    /// admission when its serving pool is homed in another region.
    pub wan_hop: Duration,
}

impl Default for RegionTopology {
    fn default() -> Self {
        RegionTopology::single()
    }
}

impl RegionTopology {
    /// Default WAN hop between non-colocated regions (a metro
    /// round-trip's worth of one-way latency).
    pub const DEFAULT_WAN_HOP: Duration = Duration::from_millis(10);

    /// The unsharded topology: one region, one pool, no WAN — the
    /// exact pre-regional fleet.
    pub fn single() -> Self {
        RegionTopology {
            regions: 1,
            cloud_pools: 1,
            wan_hop: Duration::ZERO,
        }
    }

    /// `regions` stripes, one scheduler pool per region (no
    /// cross-region traffic, maximal parallelism).
    pub fn sharded(regions: u32) -> Self {
        RegionTopology {
            regions: regions.max(1),
            cloud_pools: regions.max(1),
            wan_hop: Duration::ZERO,
        }
    }

    /// Serve the regions from only `pools` scheduler pools; regions
    /// without a home pool reach theirs over the default WAN hop.
    pub fn with_cloud_pools(mut self, pools: u32) -> Self {
        self.cloud_pools = pools.max(1);
        if self.cloud_pools < self.regions && self.wan_hop == Duration::ZERO {
            self.wan_hop = Self::DEFAULT_WAN_HOP;
        }
        self
    }

    /// Effective `(regions, pools)` for a fleet of `size` vehicles:
    /// regions clamp to `[1, size]`, pools to `[1, regions]`.
    fn effective(&self, size: u64) -> (u32, u32) {
        let regions = u64::from(self.regions.max(1)).min(size).max(1) as u32;
        let pools = self.cloud_pools.clamp(1, regions);
        (regions, pools)
    }

    /// The region whose floorplan stripe holds vehicle `vehicle`'s
    /// stall (1-based vehicle id, balanced contiguous blocks).
    pub fn region_of(&self, vehicle: u64, size: u64) -> u32 {
        let size = size.max(1);
        let (regions, _) = self.effective(size);
        ((vehicle.clamp(1, size) - 1) * u64::from(regions) / size) as u32
    }
}

/// A fleet of identical missions differing only in their seeds.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The mission every vehicle runs. Vehicle 1 uses it verbatim
    /// (including its seed); later vehicles derive their seeds.
    pub base: MissionConfig,
    /// Number of vehicles (clamped to ≥ 1).
    pub size: usize,
    /// Provisioning policy for the shared cloud (ignored when the
    /// deployment does not offload). Applied per regional pool.
    pub cloud: CloudPolicy,
    /// Deterministic cloud-tier fault schedule (replica crashes,
    /// stragglers, failed scale-ups). Empty by default, which leaves
    /// the scheduler's fast path untouched. Applied to every pool.
    pub cloud_faults: CloudFaultSchedule,
    /// Regional sharding of the contention domains (defaults to the
    /// unsharded single region).
    pub topology: RegionTopology,
    /// Worker threads for fanning pool groups across a
    /// [`ParallelExecutor`] each round. Reports are byte-identical
    /// for any value (≥ 1); 1 (the default) steps everything inline.
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet of `size` vehicles running `base` against the fixed
    /// (paper) cloud, unsharded.
    pub fn new(base: MissionConfig, size: usize) -> Self {
        FleetConfig {
            base,
            size,
            cloud: CloudPolicy::Fixed,
            cloud_faults: CloudFaultSchedule::none(),
            topology: RegionTopology::single(),
            threads: 1,
        }
    }

    /// The same fleet against an elastically provisioned cloud.
    pub fn with_cloud(mut self, cloud: CloudPolicy) -> Self {
        self.cloud = cloud;
        self
    }

    /// The same fleet with a cloud-tier fault schedule injected into
    /// every regional scheduler pool.
    pub fn with_cloud_faults(mut self, faults: CloudFaultSchedule) -> Self {
        self.cloud_faults = faults;
        self
    }

    /// The same fleet sharded per `topology`.
    pub fn with_topology(mut self, topology: RegionTopology) -> Self {
        self.topology = topology;
        self
    }

    /// The same fleet stepped by `threads` workers (per-round fan-out
    /// over pool groups; does not change any report byte).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The same fleet with every vehicle running `policy` as its
    /// offload decider (see [`crate::policy`]). Per-vehicle seeds
    /// still stride, so learned policies explore independently.
    pub fn with_policy(mut self, policy: crate::policy::PolicyKind) -> Self {
        self.base.policy = policy;
        self
    }

    /// The configuration vehicle `vehicle` (1-based) runs: the base
    /// config with a seed derived by golden-ratio mixing for vehicles
    /// past the first. Vehicle 1 gets the base verbatim, which is what
    /// makes the size-1 fleet byte-identical to a single-vehicle run.
    pub fn vehicle_config(&self, vehicle: u64) -> MissionConfig {
        let mut cfg = self.base.clone();
        if vehicle > 1 {
            cfg.seed = self.base.seed ^ vehicle.wrapping_mul(SEED_STRIDE);
        }
        cfg
    }
}

/// Per-region outcome of a sharded fleet run.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Region index (floorplan stripe).
    pub region: u32,
    /// Vehicles whose stalls fall in this stripe.
    pub vehicles: u64,
    /// Scheduler pool serving the region (`region % cloud_pools`).
    pub cloud_pool: u32,
    /// Whether that pool is homed in another region (admissions pay
    /// the WAN hop).
    pub remote_pool: bool,
    /// Cross-region admissions charged by this region's vehicles.
    pub wan_crossings: u64,
    /// Total WAN surcharge those admissions paid.
    pub wan_extra: Duration,
    /// This region's WAP counters (None when the deployment does not
    /// offload).
    pub uplink: Option<MediumStats>,
    /// The ledger of the pool homed in this region (None for regions
    /// that are not a pool home, or when nothing offloads).
    pub cloud: Option<CloudStats>,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-vehicle mission reports, in vehicle-id order (vehicle `i`
    /// is at index `i − 1`).
    pub vehicles: Vec<MissionReport>,
    /// Cloud admission counters aggregated across every regional pool
    /// (None when the deployment does not offload). For a 1-region
    /// fleet this is the lone pool's ledger verbatim.
    pub cloud: Option<CloudStats>,
    /// Access-point contention counters aggregated across every
    /// regional WAP (None when the deployment does not offload).
    pub uplink: Option<MediumStats>,
    /// Per-region breakdown, in region order (always at least one
    /// entry; a single entry for unsharded fleets).
    pub regions: Vec<RegionStats>,
    /// Lockstep rounds driven (= the slowest vehicle's cycle count).
    pub rounds: u64,
}

impl FleetReport {
    /// Vehicles that completed their mission.
    pub fn completed(&self) -> usize {
        self.vehicles.iter().filter(|v| v.completed).count()
    }

    /// Mean mission time across vehicles (seconds).
    pub fn mean_mission_secs(&self) -> f64 {
        let n = self.vehicles.len().max(1) as f64;
        self.vehicles
            .iter()
            .map(|v| v.time.total().as_secs_f64())
            .sum::<f64>()
            / n
    }

    /// Mean energy across vehicles (joules).
    pub fn mean_energy_j(&self) -> f64 {
        let n = self.vehicles.len().max(1) as f64;
        self.vehicles
            .iter()
            .map(|v| v.energy.total_joules())
            .sum::<f64>()
            / n
    }

    /// Total cross-region admissions across the fleet.
    pub fn wan_crossings(&self) -> u64 {
        self.regions.iter().map(|r| r.wan_crossings).sum()
    }
}

/// One region's runtime state: its sessions (in vehicle order) and
/// their running flags.
struct RegionRt {
    index: u32,
    sessions: Vec<(u64, VehicleSession)>,
    running: Vec<bool>,
}

/// Regions served by one scheduler pool. The unit of parallelism: a
/// pool's census is mutated only by its own group's worker, so groups
/// share no state and any fan-out of groups over threads is
/// deterministic.
struct PoolGroup {
    regions: Vec<RegionRt>,
}

impl PoolGroup {
    /// Step every running session one control cycle, regions (and
    /// vehicles within them) in vehicle order. Returns whether any
    /// session is still running.
    fn step_round(&mut self) -> bool {
        let mut any = false;
        for region in &mut self.regions {
            for (i, (_, s)) in region.sessions.iter_mut().enumerate() {
                if region.running[i] {
                    region.running[i] = s.step();
                    any |= region.running[i];
                }
            }
        }
        any
    }
}

/// Create and enrol every vehicle's session, grouped by scheduler pool.
///
/// Sessions are created and enrolled in vehicle order on the calling
/// thread, so RNG forking matches the unsharded path exactly. Every
/// vehicle runs the base mission but for its seed, so each gets a
/// clone of `layers` and all of them share its read-only grids.
fn enrol(
    cfg: &FleetConfig,
    tracer: &Tracer,
    schedulers: &[CloudScheduler],
    media: &[SharedMedium],
    layers: &SharedLayers,
) -> Vec<PoolGroup> {
    let n = cfg.size.max(1) as u64;
    let (regions, pools) = cfg.topology.effective(n);
    let offloaded = cfg.base.deployment.offloaded();
    let wan_hop = cfg.topology.wan_hop;
    let mut groups: Vec<PoolGroup> = (0..pools)
        .map(|_| PoolGroup {
            regions: Vec::new(),
        })
        .collect();
    for r in 0..regions {
        groups[(r % pools) as usize].regions.push(RegionRt {
            index: r,
            sessions: Vec::new(),
            running: Vec::new(),
        });
    }
    for v in 1..=n {
        let region = cfg.topology.region_of(v, n);
        let pool = region % pools;
        let crossing = pool != region;
        let vt = tracer.for_vehicle(v);
        if offloaded && regions > 1 {
            vt.emit_at(
                0,
                TraceEvent::RegionAssign {
                    region,
                    cloud_pool: pool,
                    wan: crossing && wan_hop > Duration::ZERO,
                },
            );
        }
        let mut s = VehicleSession::with_layers(cfg.vehicle_config(v), vt, layers.clone());
        s.join_fleet(
            VehicleId(v),
            schedulers.get(pool as usize).cloned(),
            media.get(region as usize).cloned(),
        );
        if offloaded && crossing {
            s.set_wan_hop(region, pool, wan_hop);
        }
        let group = &mut groups[(pool % pools) as usize];
        let rt = group
            .regions
            .iter_mut()
            .find(|rt| rt.index == region)
            .expect("every region is in its pool's group");
        rt.sessions.push((v, s));
        rt.running.push(true);
    }
    groups
}

/// Run a fleet without tracing.
pub fn run_fleet(cfg: FleetConfig) -> FleetReport {
    run_fleet_traced(cfg, Tracer::disabled())
}

/// Run a fleet with every session's events tagged by vehicle id
/// through a [`Tracer::for_vehicle`] clone per session, all sharing
/// `tracer`'s sink and virtual clock.
pub fn run_fleet_traced(cfg: FleetConfig, tracer: Tracer) -> FleetReport {
    let n = cfg.size.max(1) as u64;
    let (regions, pools) = cfg.topology.effective(n);
    let offloaded = cfg.base.deployment.offloaded();

    // One scheduler per pool, one WAP per region. A 1-region topology
    // builds exactly what the unsharded path did: one of each.
    let schedulers: Vec<CloudScheduler> = if offloaded {
        let hw = cfg.base.deployment.remote_platform().hw_threads;
        (0..pools)
            .map(|_| {
                let sched = match cfg.cloud {
                    CloudPolicy::Fixed => CloudScheduler::new(hw, CONTROL_PERIOD),
                    CloudPolicy::Elastic(ec) => CloudScheduler::elastic(hw, CONTROL_PERIOD, ec),
                };
                sched.set_faults(cfg.cloud_faults.clone());
                sched
            })
            .collect()
    } else {
        Vec::new()
    };
    let media: Vec<SharedMedium> = if offloaded {
        (0..regions)
            .map(|_| SharedMedium::new(CONTROL_PERIOD))
            .collect()
    } else {
        Vec::new()
    };

    let mut groups = enrol(
        &cfg,
        &tracer,
        &schedulers,
        &media,
        &SharedLayers::build(&cfg.base),
    );
    // Sessions begin in vehicle order on the calling thread, so
    // mission_start emission order matches the unsharded path exactly.
    for g in groups.iter_mut() {
        for region in &mut g.regions {
            for (_, s) in region.sessions.iter_mut() {
                s.begin();
            }
        }
    }

    // Lockstep rounds: every running session finishes cycle k before
    // any session starts cycle k+1. Pool groups fan out across the
    // executor's participants; the run_chunks return is the round
    // barrier.
    // Sessions drop out individually as their missions end (goal,
    // battery, or time cap).
    let executor = ParallelExecutor::new(cfg.threads.max(1).min(groups.len().max(1)));
    let mut rounds = 0u64;
    loop {
        let _prof = lgv_trace::prof::scope("fleet/round");
        rounds += 1;
        let any: Vec<bool> = executor.run_chunks(&mut groups, |chunk| {
            let mut any = false;
            for g in chunk {
                any |= g.step_round();
            }
            any
        });
        if !any.into_iter().any(|a| a) {
            break;
        }
    }

    // Per-region stats, then the fleet-wide aggregates. Region blocks
    // are contiguous in vehicle id, so flattening groups region-first
    // and sorting by vehicle restores report order.
    let mut region_stats: Vec<RegionStats> = Vec::with_capacity(regions as usize);
    let mut vehicles: Vec<(u64, MissionReport)> = Vec::with_capacity(n as usize);
    let mut regions_rt: Vec<RegionRt> = groups.into_iter().flat_map(|g| g.regions).collect();
    regions_rt.sort_by_key(|rt| rt.index);
    for rt in regions_rt {
        let pool = rt.index % pools;
        let mut crossings = 0u64;
        let mut extra = Duration::ZERO;
        for (_, s) in &rt.sessions {
            let (c, e) = s.wan_stats();
            crossings += c;
            extra += e;
        }
        region_stats.push(RegionStats {
            region: rt.index,
            vehicles: rt.sessions.len() as u64,
            cloud_pool: pool,
            remote_pool: pool != rt.index,
            wan_crossings: crossings,
            wan_extra: extra,
            uplink: media.get(rt.index as usize).map(|m| m.stats()),
            cloud: (pool == rt.index)
                .then(|| schedulers.get(pool as usize).map(|c| c.stats()))
                .flatten(),
        });
        vehicles.extend(rt.sessions.into_iter().map(|(v, s)| (v, s.finish())));
    }
    vehicles.sort_by_key(|(v, _)| *v);

    let cloud = (!schedulers.is_empty())
        .then(|| CloudStats::merged(&schedulers.iter().map(|c| c.stats()).collect::<Vec<_>>()));
    let uplink = (!media.is_empty()).then(|| {
        let mut total = media[0].stats();
        for m in &media[1..] {
            total.absorb(&m.stats());
        }
        total
    });

    FleetReport {
        vehicles: vehicles.into_iter().map(|(_, r)| r).collect(),
        cloud,
        uplink,
        regions: region_stats,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::mission::Workload;
    use crate::session::Localizer;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let cfg = FleetConfig::new(
            MissionConfig::compact_lab(Deployment::edge(), Workload::Navigation),
            4,
        );
        assert_eq!(cfg.vehicle_config(1).seed, cfg.base.seed);
        let seeds: Vec<u64> = (1..=4).map(|v| cfg.vehicle_config(v).seed).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            seeds,
            (1..=4)
                .map(|v| cfg.vehicle_config(v).seed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn local_fleet_has_no_shared_resources() {
        let base = MissionConfig::compact_lab(Deployment::local(), Workload::Navigation);
        let report = run_fleet(FleetConfig::new(base, 2));
        assert_eq!(report.vehicles.len(), 2);
        assert!(report.cloud.is_none());
        assert!(report.uplink.is_none());
        assert_eq!(report.regions.len(), 1);
        assert!(report.regions[0].uplink.is_none());
        assert!(report.rounds > 0);
        assert_eq!(report.completed(), 2, "both local vehicles should finish");
    }

    #[test]
    fn contention_appears_beyond_one_vehicle() {
        let base = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
        let report = run_fleet(FleetConfig::new(base, 2));
        let cloud = report.cloud.expect("offloaded fleet tracks the cloud");
        assert!(cloud.admissions > 0);
        assert!(
            cloud.delayed > 0,
            "two tenants on one edge box should queue"
        );
        let uplink = report.uplink.expect("offloaded fleet tracks the WAP");
        assert!(uplink.contended_sends > 0, "two uplinks should contend");
        assert!(report.mean_mission_secs() > 0.0);
        assert!(report.mean_energy_j() > 0.0);
    }

    #[test]
    fn fleet_sessions_share_one_copy_of_each_read_only_layer() {
        let base = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
        let cfg = FleetConfig::new(base, 5).with_topology(RegionTopology::sharded(2));
        let layers = SharedLayers::build(&cfg.base);
        let groups = enrol(&cfg, &Tracer::disabled(), &[], &[], &layers);
        let sessions: Vec<&VehicleSession> = groups
            .iter()
            .flat_map(|g| &g.regions)
            .flat_map(|rt| &rt.sessions)
            .map(|(_, s)| s)
            .collect();
        assert_eq!(sessions.len(), 5);
        for s in &sessions {
            assert!(std::sync::Arc::ptr_eq(s.known_map(), &layers.known_map));
        }
        // The fleet's handle plus exactly one per session: the map in
        // the session, the grid in its AMCL, the table in its lidar. A
        // session that built its own copy would not count here.
        let Localizer::Amcl(amcl_grid) = &layers.localizer else {
            panic!("a Navigation fleet localizes with AMCL");
        };
        assert_eq!(std::sync::Arc::strong_count(&layers.known_map), 6);
        assert_eq!(std::sync::Arc::strong_count(amcl_grid), 6);
        assert_eq!(std::sync::Arc::strong_count(&layers.beams), 6);
    }

    #[test]
    fn floorplan_stalls_assign_balanced_contiguous_regions() {
        let topo = RegionTopology::sharded(4);
        // 10 vehicles over 4 stripes: blocks of 3/2/3/2 — balanced
        // (±1) and contiguous in vehicle id.
        let assignment: Vec<u32> = (1..=10).map(|v| topo.region_of(v, 10)).collect();
        assert_eq!(assignment, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Clamps: more regions than vehicles degrades to one region
        // per vehicle; region indices never exceed the fleet.
        assert_eq!(RegionTopology::sharded(8).region_of(3, 3), 2);
        assert_eq!(RegionTopology::single().region_of(7, 10), 0);
    }

    #[test]
    fn topology_effective_clamps_pools_and_regions() {
        let topo = RegionTopology::sharded(6).with_cloud_pools(9);
        assert_eq!(topo.effective(100), (6, 6));
        assert_eq!(topo.effective(4), (4, 4));
        let scarce = RegionTopology::sharded(6).with_cloud_pools(2);
        assert_eq!(scarce.effective(100), (6, 2));
        // Scarce pools imply a WAN hop unless one is already set.
        assert_eq!(scarce.wan_hop, RegionTopology::DEFAULT_WAN_HOP);
        let hop = Duration::from_millis(3);
        let set = RegionTopology {
            wan_hop: hop,
            ..RegionTopology::sharded(6)
        };
        assert_eq!(set.with_cloud_pools(2).wan_hop, hop);
    }
}
