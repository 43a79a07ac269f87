//! One vehicle's full runtime stack, packaged for fleet interleaving.
//!
//! [`VehicleSession`] is the single-vehicle mission engine factored
//! out of [`crate::mission`] so that N instances can run **interleaved
//! on one virtual clock**: the fleet driver calls [`VehicleSession::step`]
//! once per vehicle per 200 ms control round, in lockstep, and every
//! shared-resource model (the cloud admission scheduler, the shared
//! wireless medium) reads only *finalized previous-round* state — so
//! results are independent of the order vehicles are stepped within a
//! round.
//!
//! A session that never joins a fleet behaves byte-for-byte like the
//! original single-vehicle runner: [`VehicleSession::join_fleet`]
//! draws no randomness, and both contention models charge exactly zero
//! to a lone tenant.
//!
//! Pipeline semantics are faithful to the paper's system: VDP nodes
//! communicate over one-length queues; an activation whose platform is
//! still busy drops its input (freshness over completeness); a
//! command computed remotely only reaches the actuators if the
//! downlink actually delivers it — so a static offloading policy
//! genuinely stalls in a dead zone, which is what Algorithm 2 fixes.

use crate::classify::{classify, table2_with_map, table2_without_map, Classification, NodeProfile};
use crate::controller::{ControlInputs, Controller};
use crate::deploy::Deployment;
use crate::governor::ThreadGovernor;
use crate::migration::{MigrationEvent, MigrationManager};
use crate::mission::{MissionConfig, MissionReport, NetSample, VelocitySample, Workload};
use crate::model::TimeBreakdown;
use crate::netctl::{NetDecision, SwitchCause};
use crate::policy::{self, EnergyParams, NodeEstimates};
use crate::profiler::Profiler;
use crate::recovery::{
    CHECKPOINT_FRACTION, CHECKPOINT_INTERVAL, DEGRADED_DWA_SAMPLES, DEGRADED_RESTORE_HOLD,
    DEGRADED_SLAM_PARTICLES, DEGRADED_TRIGGER_AFTER, REBUILD_HORIZON,
};
use crate::strategy::PlacementPlan;
use lgv_middleware::{Bus, Switcher, SwitcherConfig, TopicName};
use lgv_nav::costmap::{Costmap, CostmapConfig};
use lgv_nav::dwa::{DwaConfig, DwaPlanner};
use lgv_nav::frontier::{FrontierConfig, FrontierExplorer};
use lgv_nav::global_planner::{GlobalPlanner, PlannerConfig};
use lgv_nav::velocity_mux::VelocityMux;
use lgv_nav::{Amcl, AmclConfig};
use lgv_net::fault::{CloudFaultKind, FaultClock, FaultKind};
use lgv_net::link::{DuplexLink, LinkConfig};
use lgv_net::measure::SignalDirectionEstimator;
use lgv_net::shared::SharedMedium;
use lgv_net::signal::SignalModel;
use lgv_sim::cloud::CloudScheduler;
use lgv_sim::energy::{Component, EnergyLedger};
use lgv_sim::platform::Platform;
use lgv_sim::power::{LgvProfile, TransmitModel};
use lgv_sim::{Battery, Lidar, Vehicle, VehicleConfig};
use lgv_slam::map::OccupancyGrid;
use lgv_slam::{GMapping, SlamConfig};
use lgv_trace::{MsgId, TraceEvent, Tracer};
use lgv_types::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Length of one control cycle — also the contention window of the
/// fleet's shared cloud scheduler and shared wireless medium, so
/// "concurrent" means "within the same lockstep round".
pub const CONTROL_PERIOD: Duration = Duration::from_millis(200);
pub(crate) const SUBSTEP: Duration = Duration::from_millis(10);
pub(crate) const GOAL_TOLERANCE: f64 = 0.35;

/// The grids a session derives from its world and then only reads.
/// A fleet builds one set from its base mission and hands every
/// session a clone, which shares them by `Arc`;
/// [`VehicleSession::new`] builds a set of its own. Either way the
/// session goes through [`VehicleSession::with_layers`], so the two
/// paths cannot drift.
#[derive(Clone)]
pub(crate) struct SharedLayers {
    /// The map planning starts from: the truth for Navigation, all
    /// unknown for Exploration (SLAM replaces it from the first scan).
    pub(crate) known_map: Arc<MapMsg>,
    /// AMCL's likelihood grid over the truth (Navigation only).
    pub(crate) amcl_grid: Option<Arc<OccupancyGrid>>,
    /// The costmap before its first update. Each session takes a clone,
    /// which shares the static layer and master grid until it writes
    /// them, and owns its obstacle marks.
    costmap: Costmap,
    /// The lidar's per-beam directions.
    pub(crate) beams: Arc<[(f64, f64)]>,
}

impl SharedLayers {
    /// The layers of a session running `cfg`. They depend on its world,
    /// workload and lidar only, never on its seed, so every vehicle of
    /// a fleet can share its base mission's set.
    pub(crate) fn build(cfg: &MissionConfig) -> Self {
        let beams = Lidar::beam_table(&cfg.lidar);
        match cfg.workload {
            Workload::Navigation => {
                let truth = cfg.world.to_map_msg(SimTime::EPOCH);
                SharedLayers {
                    amcl_grid: Some(Arc::new(OccupancyGrid::from_map_msg(&truth))),
                    costmap: Costmap::from_map(CostmapConfig::default(), &truth),
                    known_map: Arc::new(truth),
                    beams,
                }
            }
            Workload::Exploration => {
                let dims = *cfg.world.dims();
                SharedLayers {
                    known_map: Arc::new(MapMsg {
                        stamp: SimTime::EPOCH,
                        dims,
                        cells: vec![MapMsg::UNKNOWN; dims.len()],
                    }),
                    amcl_grid: None,
                    costmap: Costmap::empty(CostmapConfig::default(), dims),
                    beams,
                }
            }
        }
    }
}

/// One vehicle's complete runtime wiring: simulated hardware, the real
/// algorithm stack, middleware over the radio, Algorithms 1 + 2, and
/// the energy/trace accounting — advanced one 200 ms control cycle at
/// a time so a fleet driver can interleave many sessions.
pub struct VehicleSession {
    cfg: MissionConfig,
    now: SimTime,
    vehicle: Vehicle,
    lidar: Lidar,
    /// The map the costmap and frontier search read: the shared truth
    /// for Navigation, SLAM's latest best map for Exploration.
    known_map: Arc<MapMsg>,
    amcl: Option<Amcl>,
    slam: Option<GMapping>,
    costmap: Costmap,
    planner: GlobalPlanner,
    dwa: DwaPlanner,
    mux: VelocityMux,
    frontier: FrontierExplorer,
    tb3: Platform,
    remote: Platform,
    profiler: Profiler,
    controller: Controller,
    governor: ThreadGovernor,
    /// State transfer during Algorithm 2 switches; nodes run cold
    /// (velocity-capped) while their state is in flight.
    migration: Option<MigrationManager>,
    cold_state: bool,
    cold_since: SimTime,
    /// How long the current cold stretch must last before the nodes
    /// are considered rebuilt. Starts at the configured rebuild
    /// horizon; a completed checkpoint shrinks the next crash's
    /// rebuild to the time since that snapshot.
    rebuild_need: Duration,
    /// When the last checkpoint transfer was attempted (cadence gate).
    last_ckpt_attempt: SimTime,
    /// Degraded-mode state machine (active only when
    /// `cfg.recovery.degraded` is set).
    degraded: bool,
    /// First cycle of the current continuous-stress stretch.
    stress_since: Option<SimTime>,
    /// First cycle of the current continuous-health stretch.
    healthy_since: Option<SimTime>,
    degrade_entered_at: SimTime,
    /// Control cycles whose scan was dropped while degraded (the
    /// deadline-miss count the degraded mode exists to zero out).
    missed_cycles_degraded: u64,
    /// Emits one `fault_begin`/`fault_end` pair per scripted window
    /// (the channels apply the fault effects silently).
    fault_clock: FaultClock<FaultKind>,
    effective_threads: u32,
    threads_sum: f64,
    threads_n: u64,
    direction: SignalDirectionEstimator,
    class: Classification,
    /// The static Table II profile `class` was classified from: the
    /// cold-start fallback of the VDP and per-node estimates.
    table2: Vec<NodeProfile>,
    // Fleet membership (absent for a standalone single-vehicle run).
    vehicle_id: VehicleId,
    cloud: Option<CloudScheduler>,
    /// Deterministic per-admission WAN surcharge when this vehicle's
    /// serving cloud pool is homed in another region: `(from_region,
    /// to_region, hop)`. `None` for unsharded and pool-home vehicles,
    /// so the pre-regional path charges exactly nothing.
    wan_hop: Option<(u32, u32, Duration)>,
    /// Cross-region admissions charged and their summed surcharge.
    wan_crossings: u64,
    wan_extra: Duration,
    // Middleware (present when the deployment offloads).
    switcher: Option<Switcher>,
    robot_bus: Bus,
    remote_bus: Bus,
    cmd_sub: lgv_middleware::bus::Subscriber,
    remote_scan_sub: lgv_middleware::bus::Subscriber,
    remote_enabled: bool,
    plan: PlacementPlan,
    // Pipeline state.
    local_busy_until: SimTime,
    local_pending: Option<(SimTime, VelocityCmd)>,
    remote_busy_until: SimTime,
    remote_pending: Option<(SimTime, VelocityCmd, MsgId)>,
    slam_busy_until: SimTime,
    pose_est: Pose2D,
    pose_conf: f64,
    /// Odometry pose at the last localization output (for dead
    /// reckoning while the SLAM platform is busy).
    odom_at_fix: Option<Pose2D>,
    current_goal: Point2,
    path: PathMsg,
    last_plan_at: Option<SimTime>,
    explored_done_votes: u32,
    /// Frontier centroids that repeatedly proved unplannable.
    frontier_blacklist: Vec<Point2>,
    /// Consecutive planning failures towards the current goal.
    plan_failures: u32,
    // Accounting.
    profile: LgvProfile,
    battery: Battery,
    ledger: EnergyLedger,
    drained_j: f64,
    transmit: TransmitModel,
    prev_uplink_bytes: u64,
    standby: Duration,
    moving: Duration,
    node_cycles: HashMap<NodeKind, f64>,
    makespan_sum: f64,
    makespan_n: u64,
    velocity_trace: Vec<VelocitySample>,
    net_trace: Vec<NetSample>,
    vmax_now: f64,
    tracer: Tracer,
    /// Monotone index of the current 200 ms control cycle (span name
    /// `cycle`, one span per iteration).
    cycle_index: u64,
    /// Lineage id of the scan message currently driving computation
    /// (`NONE` outside remote VDP activations).
    trace_msg: MsgId,
    /// Set once the mission has ended: (completed, reason).
    outcome: Option<(bool, String)>,
}

impl VehicleSession {
    /// Build a session from a mission configuration. All randomness is
    /// forked from `cfg.seed`; the tracer is wired into every
    /// subsystem that emits events.
    pub fn new(cfg: MissionConfig, tracer: Tracer) -> Self {
        let layers = SharedLayers::build(&cfg);
        Self::with_layers(cfg, tracer, layers)
    }

    /// [`VehicleSession::new`] on layers built by
    /// [`SharedLayers::build`] for a mission with the same world,
    /// workload and lidar as `cfg`.
    pub(crate) fn with_layers(cfg: MissionConfig, tracer: Tracer, layers: SharedLayers) -> Self {
        debug_assert_eq!(layers.known_map.dims, *cfg.world.dims());
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let vehicle_cfg = VehicleConfig {
            max_linear: cfg.velocity.hw_cap,
        };
        let vehicle = Vehicle::new(vehicle_cfg, cfg.start, rng.fork(1));
        let lidar = Lidar::with_beam_table(cfg.lidar.clone(), layers.beams, rng.fork(2));

        let (amcl, slam, planner, table2) = match cfg.workload {
            Workload::Navigation => {
                let grid = layers
                    .amcl_grid
                    .expect("Navigation layers carry AMCL's grid");
                let amcl = Amcl::on_grid(AmclConfig::default(), grid, cfg.start, rng.fork(3));
                let planner = GlobalPlanner::new(PlannerConfig::default());
                (Some(amcl), None, planner, table2_with_map())
            }
            Workload::Exploration => {
                let slam_cfg = SlamConfig {
                    num_particles: cfg.slam_particles,
                    threads: 1,
                    map_dims: *cfg.world.dims(),
                    ..SlamConfig::default()
                };
                let slam = GMapping::new(slam_cfg, cfg.start, rng.fork(4));
                let planner = GlobalPlanner::new(PlannerConfig {
                    allow_unknown: true,
                    ..PlannerConfig::default()
                });
                (None, Some(slam), planner, table2_without_map())
            }
        };
        let known_map = layers.known_map;
        let costmap = layers.costmap;

        let dwa = DwaPlanner::new(DwaConfig {
            samples: cfg.dwa_samples,
            max_linear: cfg.velocity.hw_cap,
            threads: 1,
        });

        // Middleware over the simulated radio.
        let robot_bus = Bus::new();
        let remote_bus = Bus::new();
        let sw_cfg = SwitcherConfig {
            up_topics: vec![(TopicName::SCAN, 1)],
            down_topics: vec![(TopicName::CMD_VEL_NAV, 1), (TopicName::PLAN, 1)],
        };
        let cmd_sub = robot_bus.subscribe(TopicName::CMD_VEL_NAV, 1);
        let remote_scan_sub = remote_bus.subscribe(TopicName::SCAN, 1);
        let mut switcher = if let Some(site) = cfg.deployment.site {
            let mut link_cfg = LinkConfig::new(site, cfg.wap);
            link_cfg.wireless = cfg.wireless.clone();
            link_cfg.wan_latency = cfg.wan_latency_override;
            let link = DuplexLink::new(link_cfg, &mut rng);
            let mut sw = Switcher::new(link, robot_bus.clone(), remote_bus.clone(), &sw_cfg);
            sw.set_faults(&cfg.faults);
            Some(sw)
        } else {
            None
        };

        // Wire the tracer into every subsystem that emits events.
        robot_bus.set_tracer(tracer.clone());
        remote_bus.set_tracer(tracer.clone());
        if let Some(sw) = switcher.as_mut() {
            sw.set_tracer(tracer.clone());
        }
        let mut profiler = Profiler::new();
        profiler.set_tracer(tracer.clone());
        let mut governor = ThreadGovernor::new(cfg.deployment.threads.max(1));
        governor.set_tracer(tracer.clone());
        let mut ledger = EnergyLedger::new();
        ledger.set_tracer(tracer.clone());

        let profile = LgvProfile::turtlebot3();
        let battery = Battery::new_wh(cfg.battery_wh.unwrap_or(profile.battery_wh));
        let transmit = TransmitModel {
            power_w: profile.trans_power_w,
        };
        let tb3 = Deployment::local_platform();
        let remote = cfg.deployment.remote_platform();

        // The decision layer: one factory path builds the configured
        // policy (Algorithm 1 by default) and the startup plan, so
        // solo missions and fleet tenants construct their decisions
        // identically.
        let mut controller = Controller::new(
            cfg.velocity,
            policy::for_mission(&cfg),
            cfg.deployment.offloaded(),
            cfg.adaptive,
        );
        controller.set_tracer(tracer.clone());
        let class = classify(&table2);
        let plan = policy::initial_plan(&class, cfg.deployment.offloaded());

        let start = cfg.start;
        let nav_goal = cfg.nav_goal;
        let wap = cfg.wap;
        let remote_enabled = cfg.deployment.offloaded();
        VehicleSession {
            vehicle,
            lidar,
            known_map,
            amcl,
            slam,
            costmap,
            planner,
            dwa,
            mux: VelocityMux::new(),
            frontier: FrontierExplorer::new(FrontierConfig::default()),
            tb3,
            remote,
            profiler,
            controller,
            governor,
            migration: if let Some(site) = cfg.deployment.site {
                let sm = SignalModel::new(cfg.wireless.clone(), cfg.wap);
                let wan = cfg
                    .wan_latency_override
                    .unwrap_or_else(|| site.wan_latency());
                let mut mig = MigrationManager::new(sm, wan, rng.fork(0xC3));
                mig.set_tracer(tracer.clone());
                mig.set_faults(cfg.faults.clone());
                mig.set_deadline(REBUILD_HORIZON);
                Some(mig)
            } else {
                None
            },
            cold_state: false,
            cold_since: SimTime::EPOCH,
            rebuild_need: REBUILD_HORIZON,
            last_ckpt_attempt: SimTime::EPOCH,
            degraded: false,
            stress_since: None,
            healthy_since: None,
            degrade_entered_at: SimTime::EPOCH,
            missed_cycles_degraded: 0,
            fault_clock: FaultClock::new(cfg.faults.clone()),
            effective_threads: cfg.deployment.threads.max(1),
            threads_sum: 0.0,
            threads_n: 0,
            direction: SignalDirectionEstimator::new(wap),
            class,
            table2,
            vehicle_id: VehicleId::NONE,
            cloud: None,
            wan_hop: None,
            wan_crossings: 0,
            wan_extra: Duration::ZERO,
            switcher,
            robot_bus,
            remote_bus,
            cmd_sub,
            remote_scan_sub,
            remote_enabled,
            plan,
            local_busy_until: SimTime::EPOCH,
            local_pending: None,
            remote_busy_until: SimTime::EPOCH,
            remote_pending: None,
            slam_busy_until: SimTime::EPOCH,
            pose_est: start,
            pose_conf: 1.0,
            odom_at_fix: None,
            current_goal: nav_goal,
            path: PathMsg {
                stamp: SimTime::EPOCH,
                waypoints: vec![],
            },
            last_plan_at: None,
            explored_done_votes: 0,
            frontier_blacklist: Vec::new(),
            plan_failures: 0,
            profile,
            battery,
            ledger,
            drained_j: 0.0,
            transmit,
            prev_uplink_bytes: 0,
            standby: Duration::ZERO,
            moving: Duration::ZERO,
            node_cycles: HashMap::new(),
            makespan_sum: 0.0,
            makespan_n: 0,
            velocity_trace: Vec::new(),
            net_trace: Vec::new(),
            vmax_now: 0.15,
            now: SimTime::EPOCH,
            tracer,
            cycle_index: 0,
            trace_msg: MsgId::NONE,
            outcome: None,
            cfg,
        }
    }

    /// The map the costmap and frontier search read.
    #[cfg(test)]
    pub(crate) fn known_map(&self) -> &Arc<MapMsg> {
        &self.known_map
    }

    /// Enrol this session in a fleet as `vehicle`: stamp the tenant id
    /// onto every middleware envelope, contend on the fleet's shared
    /// cloud box and shared access point. Draws **no** randomness, and
    /// both contention models charge a lone tenant exactly zero, so a
    /// fleet of one stays byte-identical to a standalone run.
    pub fn join_fleet(
        &mut self,
        vehicle: VehicleId,
        cloud: Option<CloudScheduler>,
        medium: Option<SharedMedium>,
    ) {
        self.vehicle_id = vehicle;
        if let Some(sw) = self.switcher.as_mut() {
            sw.set_vehicle(vehicle);
            if let Some(m) = medium {
                sw.link_mut().join_shared_medium(m, vehicle.raw());
            }
        }
        self.cloud = cloud;
    }

    /// The fleet id of this session (`VehicleId::NONE` standalone).
    pub fn vehicle(&self) -> VehicleId {
        self.vehicle_id
    }

    /// Charge every remote admission a deterministic WAN hop because
    /// this vehicle's serving cloud pool (homed in `to_region`) is not
    /// colocated with its radio region (`from_region`). Draws no
    /// randomness; a zero `hop` is ignored so the pre-regional path
    /// stays byte-identical.
    pub fn set_wan_hop(&mut self, from_region: u32, to_region: u32, hop: Duration) {
        if hop > Duration::ZERO {
            self.wan_hop = Some((from_region, to_region, hop));
        }
    }

    /// Cross-region admissions charged so far and their total WAN
    /// surcharge (both zero unless [`VehicleSession::set_wan_hop`] was
    /// armed). Read by the fleet driver for per-region stats.
    pub fn wan_stats(&self) -> (u64, Duration) {
        (self.wan_crossings, self.wan_extra)
    }

    /// Current virtual time of this session's clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the mission has ended (goal, battery, or time cap).
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    fn charge_node(&mut self, kind: NodeKind, work: &Work, local: bool) -> Duration {
        *self.node_cycles.entry(kind).or_insert(0.0) += work.total_cycles();
        if local {
            // Eq. 1c dynamic energy on the embedded computer.
            let model = self.profile.compute_model(&self.tb3);
            self.ledger.add(
                Component::EmbeddedComputer,
                model.dynamic_energy(work.total_cycles()),
            );
            let t = self.tb3.exec_time(work, 1);
            self.profiler.record_local_msg(kind, t, self.trace_msg);
            t
        } else {
            let mut t = self.remote.exec_time(work, self.effective_threads);
            // Multi-tenant cloud: the shared box stretches this
            // activation by the admission queueing delay. The inflated
            // time is what the profiler (and thus Algorithm 1's
            // placement) observes — a saturated cloud genuinely looks
            // slower. Zero when the session has the box to itself.
            // Elastic schedulers also report batch joins and replica
            // scaling, forwarded here to the vehicle's tracer so the
            // events carry this session's vehicle id.
            if let Some(cloud) = self.cloud.as_ref() {
                let adm = cloud.admit(
                    self.vehicle_id.raw(),
                    kind,
                    self.now,
                    self.effective_threads,
                    t,
                );
                for s in &adm.scales {
                    self.tracer.emit_at(
                        self.now.as_nanos(),
                        TraceEvent::CloudScale {
                            from_replicas: s.from,
                            to_replicas: s.to,
                            utilization: s.utilization,
                            window: s.window,
                        },
                    );
                }
                if let Some(b) = adm.batch {
                    self.tracer.emit_at(
                        self.now.as_nanos(),
                        TraceEvent::CloudBatch {
                            stage: b.stage.short_name().to_string(),
                            occupancy: b.occupancy,
                            window: b.window,
                            marginal_ns: b.marginal.as_nanos(),
                        },
                    );
                }
                // Cloud fault windows the scheduler first observed on
                // this admission (begin edges, exactly once per
                // window). Failed scale-ups stay ledger-only.
                for f in &adm.faults {
                    let event = match f.kind {
                        CloudFaultKind::ReplicaCrash { replicas } => TraceEvent::ReplicaCrash {
                            replicas: u64::from(replicas),
                            window: f.window,
                            window_ns: f.span.as_nanos(),
                        },
                        CloudFaultKind::Straggler { factor } => TraceEvent::ReplicaStraggle {
                            factor,
                            window: f.window,
                            window_ns: f.span.as_nanos(),
                        },
                        CloudFaultKind::FailedScaleUp => continue,
                    };
                    self.tracer.emit_at(self.now.as_nanos(), event);
                }
                t += adm.delay;
                // Regional sharding: a vehicle whose serving pool is
                // homed in another region pays the deterministic WAN
                // hop on every admission. Like the queueing delay, the
                // surcharge lands in the remote processing time the
                // profiler sees, so Algorithm 1 genuinely prices the
                // cross-region route.
                if let Some((from, to, hop)) = self.wan_hop {
                    t += hop;
                    self.wan_crossings += 1;
                    self.wan_extra += hop;
                    self.tracer.emit_at(
                        self.now.as_nanos(),
                        TraceEvent::WanHop {
                            from_region: from,
                            to_region: to,
                            delay_ns: hop.as_nanos(),
                        },
                    );
                }
            }
            self.profiler.record_remote_msg(kind, t, self.trace_msg);
            if let Some(sw) = self.switcher.as_mut() {
                sw.report_remote_proc_time(kind, t);
            }
            t
        }
    }

    /// Host threads for a node's parallel kernel: an offloaded node
    /// gets its modelled threads capped at the host's parallelism, an
    /// on-board one gets 1. Outputs do not depend on this; it only
    /// decides how many cores the host spends.
    fn host_threads(&self, local: bool) -> usize {
        if local {
            1
        } else {
            (self.effective_threads as usize).min(lgv_slam::pool::host_parallelism())
        }
    }

    /// Run the VDP (CostmapGen → PathTracking → VelocityMux) on the
    /// given scan; returns the velocity command and its total
    /// processing time on the executing platform.
    fn run_vdp(&mut self, scan: &LaserScan, local: bool) -> (VelocityCmd, Duration) {
        let _prof = lgv_trace::prof::scope("mission/vdp");
        let mut meter = WorkMeter::new();
        {
            let _prof = lgv_trace::prof::scope("nav/costmap_update");
            self.costmap
                .update(&self.known_map, self.pose_est, scan, &mut meter);
        }
        let cm_work = meter.finish();
        let t_cm = self.charge_node(NodeKind::CostmapGen, &cm_work, local);

        self.dwa.set_max_linear(self.vmax_now);
        self.dwa.set_threads(self.host_threads(local));
        let dwa_out = {
            let _prof = lgv_trace::prof::scope("nav/dwa");
            self.dwa
                .compute(&self.costmap, self.pose_est, &self.path, self.current_goal)
        };
        let t_pt = self.charge_node(NodeKind::PathTracking, &dwa_out.work, local);

        let mux_work = self.mux.work();
        let t_mux = self.charge_node(NodeKind::VelocityMux, &mux_work, true);

        // Low-confidence localization caps speed (vision-LGV style
        // safety from §IX applies to any degraded estimate).
        let mut twist = dwa_out.twist;
        if self.pose_conf < 0.2 {
            twist.linear = twist.linear.min(0.08);
        }
        let cmd = VelocityCmd {
            stamp: scan.stamp,
            twist,
            source: VelocitySource::Navigation,
        };
        (cmd, t_cm + t_pt + t_mux)
    }

    fn run_localization(&mut self, odom: &OdometryMsg, scan: &LaserScan) {
        match self.cfg.workload {
            Workload::Navigation => {
                let out = {
                    let _prof = lgv_trace::prof::scope("nav/amcl");
                    self.amcl
                        .as_mut()
                        .expect("Navigation sessions always build AMCL")
                        .process(odom, scan)
                };
                self.charge_node(NodeKind::Localization, &out.work, true);
                self.pose_est = out.pose.pose;
                self.pose_conf = out.pose.confidence;
            }
            Workload::Exploration => {
                // SLAM is an ECN: it may run remotely; when its platform
                // is busy, the scan is dropped (one-length queue) and
                // the pose estimate dead-reckons on odometry — exactly
                // what the ROS map→odom transform chain does between
                // SLAM corrections.
                if self.now < self.slam_busy_until {
                    if let Some(at_fix) = self.odom_at_fix {
                        let delta = at_fix.between(odom.pose);
                        self.pose_est = self.pose_est.compose(delta);
                        self.odom_at_fix = Some(odom.pose);
                    }
                    return;
                }
                let slam_remote = self.remote_enabled && self.plan.remote.contains(NodeKind::Slam);
                let threads = self.host_threads(!slam_remote);
                let slam = self
                    .slam
                    .as_mut()
                    .expect("Exploration sessions always build SLAM");
                slam.set_threads(threads);
                let out = slam.process(odom, scan);
                let t = self.charge_node(NodeKind::Slam, &out.work, !slam_remote);
                self.slam_busy_until = self.now + t;
                self.pose_est = out.pose.pose;
                self.pose_conf = out.pose.confidence;
                self.odom_at_fix = Some(odom.pose);
                self.known_map = Arc::new(
                    self.slam
                        .as_ref()
                        .expect("Exploration sessions always build SLAM")
                        .best_map(self.now),
                );
                self.costmap.set_static_map(&self.known_map);
            }
        }
    }

    fn run_planning(&mut self) {
        if self.cfg.workload == Workload::Exploration {
            let out = {
                let _prof = lgv_trace::prof::scope("nav/frontier");
                self.frontier.select_goal_excluding(
                    &self.known_map,
                    self.pose_est.position(),
                    self.now,
                    &self.frontier_blacklist,
                    0.6,
                )
            };
            self.charge_node(NodeKind::Exploration, &out.work, true);
            match out.goal {
                Some(g) => {
                    if g.target.distance(self.current_goal) > 0.3 {
                        self.plan_failures = 0;
                    }
                    self.current_goal = g.target;
                    self.explored_done_votes = 0;
                }
                None => self.explored_done_votes += 1,
            }
        }
        // Plan commitment: replanning every decision tick makes the
        // robot flap between near-equal-cost routes (two doorways into
        // the same room) under command latency. Keep the current path
        // unless the goal moved, the robot strayed from it, it expired,
        // or it never existed.
        let goal_moved = self
            .path
            .waypoints
            .last()
            .is_none_or(|w| w.distance(self.current_goal) > 0.6);
        let off_path = {
            let p = self.pose_est.position();
            let d = self
                .path
                .waypoints
                .iter()
                .map(|w| w.distance(p))
                .fold(f64::INFINITY, f64::min);
            d > 1.0
        };
        let expired = self
            .last_plan_at
            .is_none_or(|t| self.now.saturating_since(t) > Duration::from_secs(5));
        if !(goal_moved || off_path || expired || self.path.waypoints.is_empty()) {
            return;
        }

        let plan_result = {
            let _prof = lgv_trace::prof::scope("nav/plan");
            if self.cfg.workload == Workload::Exploration {
                // Frontier cells often hug the inflation of newly-seen
                // walls; aim for the nearest plannable cell around them.
                self.planner.plan_near(
                    &self.costmap,
                    self.pose_est.position(),
                    self.current_goal,
                    0.5,
                    self.now,
                )
            } else {
                self.planner.plan(
                    &self.costmap,
                    self.pose_est.position(),
                    self.current_goal,
                    self.now,
                )
            }
        };
        match plan_result {
            Ok(res) => {
                self.charge_node(NodeKind::PathPlanning, &res.work, true);
                self.path = res.path;
                self.last_plan_at = Some(self.now);
                self.plan_failures = 0;
            }
            Err(_) => {
                // Keep the previous path; planning failures are routine
                // while the costmap settles. But a frontier goal that
                // stays unplannable is unreachable (e.g. a shadow
                // behind furniture): blacklist it so exploration can
                // move on — and terminate once only blacklisted
                // frontiers remain.
                self.plan_failures += 1;
                if self.cfg.workload == Workload::Exploration && self.plan_failures >= 3 {
                    self.frontier_blacklist.push(self.current_goal);
                    self.plan_failures = 0;
                }
            }
        }
    }

    /// One 200 ms control cycle.
    fn cycle(&mut self) {
        let _prof = lgv_trace::prof::scope("mission/cycle");
        let cycle_start = self.now;
        self.tracer.set_time_ns(cycle_start.as_nanos());
        let span = self.tracer.span_begin("cycle", self.cycle_index);
        self.cycle_index += 1;
        let true_pose = self.vehicle.true_pose();
        let scan = self.lidar.scan(&self.cfg.world, true_pose, cycle_start);
        let odom = self.vehicle.odometry(cycle_start);

        {
            let _prof = lgv_trace::prof::scope("mission/localization");
            self.run_localization(&odom, &scan);
        }

        // 1 Hz planning.
        if (cycle_start.as_nanos() / CONTROL_PERIOD.as_nanos()).is_multiple_of(5) {
            let _prof = lgv_trace::prof::scope("mission/planning");
            self.run_planning();
        }

        // The runtime Controller: Algorithm 1 placement, Eq. 2c
        // velocity, actuation limits, and Algorithm 2 — all from the
        // profiler's latest measurements. The liveness inputs come
        // straight from the robot's own observables: when it last
        // heard the remote, and what its radio diagnostics say.
        let (since_downlink, radio_weak) = match self.switcher.as_ref() {
            Some(sw) => (
                sw.last_downlink_at()
                    .map(|t0| cycle_start.saturating_since(t0)),
                sw.link().radio_weak(true_pose.position(), cycle_start),
            ),
            None => (None, true),
        };
        let inputs = ControlInputs {
            local_vdp: self.estimate_vdp(true),
            cloud_vdp: self.estimate_vdp(false),
            bandwidth: self.profiler.bandwidth(),
            direction: self.profiler.signal_direction(),
            remote_enabled: self.remote_enabled,
            cold_state: self.cold_state,
            exploration_cap: (self.cfg.workload == Workload::Exploration)
                .then_some(self.cfg.exploration_speed_cap),
            since_downlink,
            radio_weak,
            rtt: {
                let measured = self.profiler.rtt();
                if measured > Duration::ZERO {
                    measured
                } else {
                    // The same static WAN prior the cold-start
                    // makespan estimate uses.
                    Duration::from_millis(20)
                }
            },
            nodes: self.node_estimates(),
            energy: EnergyParams {
                local_j_per_gcycle: self.profile.compute_model(&self.tb3).dynamic_energy(1e9),
                tx_power_w: self.transmit.power_w,
            },
        };
        let decision = self.controller.evaluate(cycle_start, &self.class, inputs);
        self.plan = decision.plan;
        let vdp_remote = decision.vdp_remote;
        self.vmax_now = decision.max_linear;
        self.makespan_sum += decision.makespan.as_secs_f64();
        self.makespan_n += 1;
        self.dwa.set_max_angular(decision.max_angular);
        self.mux.set_timeout(decision.mux_timeout);
        match decision.net_decision {
            d @ (NetDecision::InvokeLocal | NetDecision::InvokeRemote) => {
                self.remote_enabled = d == NetDecision::InvokeRemote;
                self.tracer.emit_at(
                    cycle_start.as_nanos(),
                    TraceEvent::NetSwitch {
                        to_remote: self.remote_enabled,
                    },
                );
                if decision.net_cause == SwitchCause::HeartbeatMiss {
                    // The remote host is presumed dead: its state is
                    // unreachable, so migrating it back would stall
                    // against a crashed endpoint. Abort any transfer
                    // in flight and rebuild cold from fresh sensor
                    // data instead — only as far back as the last
                    // completed checkpoint reaches.
                    if let Some(mig) = self.migration.as_mut() {
                        if !mig.abort_checkpoint() && mig.in_progress() {
                            mig.abort();
                            self.tracer
                                .emit_at(cycle_start.as_nanos(), TraceEvent::MigrationAbort);
                        }
                        self.rebuild_need = match mig.take_checkpoint() {
                            Some(at) => cycle_start.saturating_since(at).min(REBUILD_HORIZON),
                            None => REBUILD_HORIZON,
                        };
                    }
                    self.cold_state = true;
                    self.cold_since = cycle_start;
                } else if let Some(mig) = self.migration.as_mut() {
                    // Ship the switched nodes' state (paper §VI-A);
                    // they run cold until it lands. An in-flight
                    // checkpoint stream yields the channel.
                    mig.abort_checkpoint();
                    if let Ok(ticket) =
                        mig.begin(cycle_start, self.plan.remote, self.cfg.slam_particles)
                    {
                        self.tracer.emit_at(
                            cycle_start.as_nanos(),
                            TraceEvent::MigrationStart {
                                bytes: ticket.bytes as u64,
                            },
                        );
                        self.cold_state = true;
                        self.cold_since = cycle_start;
                    }
                }
                // A freshly-offloaded remote gets `heartbeat_timeout`
                // of grace to produce its first downlink before the
                // liveness clock can judge it.
                if self.remote_enabled {
                    if let Some(sw) = self.switcher.as_mut() {
                        sw.reset_downlink_clock(cycle_start);
                    }
                }
            }
            NetDecision::Keep => {}
        }

        // Checkpointed re-offload: while nodes run remotely and the
        // migration channel is idle, periodically stream a compact
        // snapshot of the offloaded state so a later crash rebuilds
        // from the snapshot's age instead of the full horizon.
        if self.cfg.recovery.checkpoints {
            if let Some(mig) = self.migration.as_mut() {
                if self.remote_enabled
                    && !self.cold_state
                    && !mig.in_progress()
                    && !self.plan.remote.is_empty()
                    && cycle_start.saturating_since(self.last_ckpt_attempt) >= CHECKPOINT_INTERVAL
                {
                    self.last_ckpt_attempt = cycle_start;
                    let _ = mig.begin_checkpoint(
                        cycle_start,
                        self.plan.remote,
                        self.cfg.slam_particles,
                        CHECKPOINT_FRACTION,
                    );
                }
            }
        }

        // Degraded-mode autonomy: under sustained stress (blackout or
        // a re-offload backoff that keeps failing while the pipeline
        // runs locally), drop SLAM/DWA fidelity so the 200 ms deadline
        // keeps being met on vehicle silicon; restore — with
        // hysteresis — once the link is healthy again.
        if self.cfg.recovery.degraded {
            let stressed = self.cfg.deployment.offloaded()
                && !self.remote_enabled
                && (radio_weak || self.controller.offload_failures() >= 2);
            if stressed {
                self.healthy_since = None;
                let since = *self.stress_since.get_or_insert(cycle_start);
                if !self.degraded && cycle_start.saturating_since(since) >= DEGRADED_TRIGGER_AFTER {
                    self.degraded = true;
                    self.degrade_entered_at = cycle_start;
                    self.missed_cycles_degraded = 0;
                    if let Some(slam) = self.slam.as_mut() {
                        slam.set_active_particles(DEGRADED_SLAM_PARTICLES);
                    }
                    self.dwa.set_samples(DEGRADED_DWA_SAMPLES);
                    self.tracer.emit_at(
                        cycle_start.as_nanos(),
                        TraceEvent::DegradeEnter {
                            cause: if radio_weak { "blackout" } else { "backoff" }.to_string(),
                            slam_particles: DEGRADED_SLAM_PARTICLES as u64,
                            dwa_samples: u64::from(DEGRADED_DWA_SAMPLES),
                        },
                    );
                }
            } else {
                self.stress_since = None;
                let since = *self.healthy_since.get_or_insert(cycle_start);
                if self.degraded && cycle_start.saturating_since(since) >= DEGRADED_RESTORE_HOLD {
                    self.degraded = false;
                    if let Some(slam) = self.slam.as_mut() {
                        slam.set_active_particles(self.cfg.slam_particles);
                    }
                    self.dwa.set_samples(self.cfg.dwa_samples);
                    self.tracer.emit_at(
                        cycle_start.as_nanos(),
                        TraceEvent::DegradeExit {
                            held_ns: cycle_start
                                .saturating_since(self.degrade_entered_at)
                                .as_nanos(),
                            missed_cycles: self.missed_cycles_degraded,
                        },
                    );
                }
            }
        }

        // §VIII-E thread governor: scale remote parallelism to the
        // velocity actually achieved.
        self.governor
            .observe(self.vmax_now, self.vehicle.twist().linear.abs());
        if self.cfg.adaptive_parallelism && self.cfg.deployment.offloaded() {
            self.effective_threads = self.governor.recommend();
        }
        self.threads_sum += self.effective_threads as f64;
        self.threads_n += 1;

        // Dispatch the VDP activation. A previous activation whose
        // completion fell between substeps must flush before it can be
        // overwritten.
        self.flush_local_pending(cycle_start);
        if vdp_remote {
            // Ship the scan; the remote worker activates on delivery.
            let _ = self.robot_bus.publish(TopicName::SCAN, &scan);
        } else if cycle_start >= self.local_busy_until {
            let (cmd, t) = self.run_vdp(&scan, true);
            self.local_busy_until = cycle_start + t;
            self.local_pending = Some((cycle_start + t, cmd));
        } else if self.degraded {
            // Local platform still busy → this scan is dropped
            // (1-queue): a missed control deadline. Counting these
            // while degraded is the SLO the reduced fidelity exists
            // to drive to zero.
            self.missed_cycles_degraded += 1;
        }
        // else: local platform busy → this scan is dropped (1-queue).

        // Substep loop: network, deliveries, actuation, energy.
        {
            let _prof = lgv_trace::prof::scope("mission/substeps");
            let substeps = (CONTROL_PERIOD.as_nanos() / SUBSTEP.as_nanos()) as u32;
            for _ in 0..substeps {
                self.substep(vdp_remote);
            }
        }
        self.tracer.set_time_ns(self.now.as_nanos());

        // End-of-cycle measurements for Algorithm 2.
        let pos = self.vehicle.true_pose().position();
        let dir = self.direction.update(self.now, pos);
        self.profiler.record_signal_direction(dir);
        if let Some(sw) = self.switcher.as_mut() {
            let bw = sw.downlink_bandwidth(self.now);
            self.profiler.record_bandwidth(bw);
            if let Some(rtt) = sw.rtt().latest() {
                self.profiler.record_rtt(rtt);
            }
        }

        if self.cfg.record_traces {
            let twist = self.vehicle.twist();
            self.velocity_trace.push(VelocitySample {
                t: self.now.as_secs_f64(),
                vmax: self.vmax_now,
                actual: twist.linear.abs(),
                position: self.vehicle.true_pose().position(),
            });
            self.net_trace.push(NetSample {
                t: self.now.as_secs_f64(),
                bandwidth: self.profiler.bandwidth(),
                rtt_ms: self.profiler.rtt().as_millis_f64(),
                direction: dir,
                remote_active: self.remote_enabled,
            });
        }

        self.tracer.emit_with(|| TraceEvent::MissionProgress {
            x: pos.x,
            y: pos.y,
            goal_x: self.current_goal.x,
            goal_y: self.current_goal.y,
            goal_dist: pos.distance(self.current_goal),
            battery_soc: self.battery.soc(),
        });
        self.ledger.trace_flush();
        self.tracer.span_end(span);
    }

    /// Estimate the VDP makespan for both worlds from the profiler
    /// (falls back to the static Table II profile before data exists).
    fn estimate_vdp(&self, local: bool) -> Duration {
        let measured = if local {
            self.profiler.local_vdp_time()
        } else {
            self.profiler.cloud_vdp_time(self.class.t3)
        };
        if measured > Duration::ZERO {
            return measured;
        }
        // Cold start: price the static profile on the platforms.
        let mut total = Duration::ZERO;
        for p in &self.table2 {
            if !p.kind.on_vdp() {
                continue;
            }
            total += if local {
                self.tb3.exec_time(&p.work, 1)
            } else {
                self.remote.exec_time(&p.work, self.effective_threads)
            };
        }
        if !local {
            total += Duration::from_millis(20);
        }
        total
    }

    /// Per-node local/remote processing-time and demand estimates for
    /// the decision layer: the profiler's live measurements where they
    /// exist, the static Table II profile priced on the platform
    /// models otherwise (the same cold-start fallback as
    /// [`Self::estimate_vdp`]).
    fn node_estimates(&self) -> NodeEstimates {
        let mut nodes = NodeEstimates::default();
        for p in &self.table2 {
            nodes.set_demand(p.kind, p.cycles_per_sec() / 1e9);
            nodes.set_local(
                p.kind,
                self.profiler
                    .node_time(p.kind, Placement::Local)
                    .unwrap_or_else(|| self.tb3.exec_time(&p.work, 1)),
            );
            nodes.set_remote(
                p.kind,
                self.profiler
                    .node_time(p.kind, Placement::Remote)
                    .unwrap_or_else(|| self.remote.exec_time(&p.work, self.effective_threads)),
            );
        }
        nodes
    }

    fn substep(&mut self, vdp_remote: bool) {
        let t = self.now;
        self.tracer.set_time_ns(t.as_nanos());
        let pos = self.vehicle.true_pose().position();

        // Scripted fault-window edges: exactly one begin/end pair per
        // window, emitted here so the channels (which each hold their
        // own injector) stay silent about scheduling.
        for edge in self.fault_clock.poll(t) {
            let event = if edge.begin {
                TraceEvent::FaultBegin {
                    fault: edge.kind.label().to_string(),
                    window: edge.window,
                    window_ns: edge.span.as_nanos(),
                }
            } else {
                TraceEvent::FaultEnd {
                    fault: edge.kind.label().to_string(),
                    window: edge.window,
                }
            };
            self.tracer.emit_at(t.as_nanos(), event);
        }

        // Network relay.
        if let Some(sw) = self.switcher.as_mut() {
            {
                let _prof = lgv_trace::prof::scope("net/switcher");
                sw.tick(t, pos);
            }
            // Eq. 1b: transmission energy for new uplink bytes.
            let sent = sw.uplink_bytes_sent;
            let delta = (sent - self.prev_uplink_bytes) as usize;
            self.prev_uplink_bytes = sent;
            if delta > 0 {
                let e = self.transmit.energy(delta, sw.link().uplink_bps());
                self.ledger.add(Component::Wireless, e);
            }
        }

        // State migration / checkpoint transfer. The manager's
        // deadline (the rebuild horizon) bounds it: past that point
        // the destination nodes have reconstructed equivalent state
        // from fresh sensor data (the costmap's obstacle history ages
        // out after ~5 s anyway), so a still-running transfer is
        // aborted and counted as an offload failure for the
        // re-offload backoff. Checkpoint streams tick here too, while
        // the session is warm.
        if self.cold_state || self.migration.as_ref().is_some_and(|m| m.in_progress()) {
            if let Some(mig) = self.migration.as_mut() {
                match mig.tick(t, pos) {
                    Some(MigrationEvent::Done(done)) => {
                        self.tracer.emit_at(
                            t.as_nanos(),
                            TraceEvent::MigrationCommit {
                                elapsed_ns: done.elapsed.as_nanos(),
                                attempts: done.attempts,
                            },
                        );
                        self.cold_state = false;
                    }
                    Some(MigrationEvent::CheckpointDone(done)) => {
                        self.tracer.emit_at(
                            t.as_nanos(),
                            TraceEvent::Checkpoint {
                                bytes: done.ticket.bytes as u64,
                                elapsed_ns: done.elapsed.as_nanos(),
                            },
                        );
                    }
                    Some(MigrationEvent::TimedOut { .. }) => {
                        // The manager already cancelled the segments
                        // and emitted `migration_timeout`.
                        self.tracer
                            .emit_at(t.as_nanos(), TraceEvent::MigrationAbort);
                        self.cold_state = false;
                        self.controller.record_offload_failure(t);
                    }
                    None => {
                        // Crash fallback: no transfer is running (the
                        // remote died with the state); cold until the
                        // nodes have rebuilt from live sensor data —
                        // or from the last checkpoint, which shrinks
                        // `rebuild_need` below the full horizon.
                        if self.cold_state
                            && !mig.in_progress()
                            && t.saturating_since(self.cold_since) >= self.rebuild_need
                        {
                            self.cold_state = false;
                        }
                    }
                }
            }
        }

        // Remote worker: flush a completed command first, then
        // activate on scan delivery.
        if vdp_remote {
            self.flush_remote_pending(t);
            if let Ok(Some((scan, msg))) = self.remote_scan_sub.recv_latest_tagged::<LaserScan>() {
                if t >= self.remote_busy_until {
                    self.trace_msg = msg;
                    let (cmd, dur) = self.run_vdp(&scan, false);
                    self.trace_msg = MsgId::NONE;
                    self.remote_busy_until = t + dur;
                    self.remote_pending = Some((t + dur, cmd, msg));
                    self.flush_remote_pending(t);
                }
            }
        } else if self.switcher.is_some() {
            // Probe stream so Algorithm 2 can still measure bandwidth
            // while running locally (a real system keeps a heartbeat).
            let probe = VelocityCmd {
                stamp: t,
                twist: Twist::STOP,
                source: VelocitySource::Navigation,
            };
            let _ = self.remote_bus.publish(TopicName::PLAN, &probe);
        }

        // Local pipeline completion.
        self.flush_local_pending(t);
        // Downlink deliveries → mux.
        while let Some(bytes) = self.cmd_sub.recv_bytes() {
            if let Ok(cmd) = lgv_middleware::from_bytes::<VelocityCmd>(&bytes) {
                self.mux.submit(cmd);
            }
        }

        // Actuation.
        let selected = self.mux.select(t);
        self.vehicle.command(selected.twist);
        let applied = self.vehicle.step(&self.cfg.world, SUBSTEP);

        // Energy integration (Eq. 1a components).
        let dt = SUBSTEP;
        self.ledger
            .add_power(Component::Sensor, self.profile.max_power.sensor, dt);
        self.ledger.add_power(
            Component::Microcontroller,
            self.profile.max_power.microcontroller,
            dt,
        );
        let ec_model = self.profile.compute_model(&self.tb3);
        self.ledger
            .add_power(Component::EmbeddedComputer, ec_model.idle_w, dt);
        let motor = self.profile.motor_model();
        let p_motor = motor.power(applied.linear, self.vehicle.accel_demand());
        self.ledger.add_power(Component::Motor, p_motor, dt);

        // Standby/moving split (Eq. 2a).
        if applied.linear.abs() < 0.01 && applied.angular.abs() < 0.05 {
            self.standby += dt;
        } else {
            self.moving += dt;
        }

        self.now += SUBSTEP;
    }

    /// Submit a completed local VDP command whose ready time has
    /// passed (stamped at production time).
    fn flush_local_pending(&mut self, now: SimTime) {
        if let Some((ready, mut cmd)) = self.local_pending {
            if now >= ready {
                cmd.stamp = ready;
                self.mux.submit(cmd);
                self.local_pending = None;
            }
        }
    }

    /// Publish a completed remote VDP command whose ready time has
    /// passed (stamped at production time; the switcher ships it).
    fn flush_remote_pending(&mut self, now: SimTime) {
        if let Some((ready, mut cmd, parent)) = self.remote_pending {
            if now >= ready {
                cmd.stamp = ready;
                let _ = self
                    .remote_bus
                    .publish_from(TopicName::CMD_VEL_NAV, &cmd, parent);
                self.remote_pending = None;
            }
        }
    }

    fn goal_reached(&self) -> bool {
        match self.cfg.workload {
            Workload::Navigation => {
                self.vehicle
                    .true_pose()
                    .position()
                    .distance(self.cfg.nav_goal)
                    < GOAL_TOLERANCE
            }
            Workload::Exploration => self.explored_done_votes >= 2,
        }
    }

    /// Emit the mission-start trace event. Call once before stepping.
    pub fn begin(&mut self) {
        self.tracer.set_time_ns(self.now.as_nanos());
        self.tracer.emit_with(|| TraceEvent::MissionStart {
            workload: format!("{:?}", self.cfg.workload),
            deployment: self.cfg.deployment.label.to_string(),
            seed: self.cfg.seed,
        });
    }

    /// Advance one 200 ms control cycle and apply the end-of-cycle
    /// mission checks (battery depletion, goal, time cap). Returns
    /// `true` while the mission is still running; once it returns
    /// `false` the session is finished and further calls are no-ops.
    pub fn step(&mut self) -> bool {
        if self.outcome.is_some() {
            return false;
        }
        if self.now.as_nanos() >= self.cfg.max_time.as_nanos() {
            self.outcome = Some((false, format!("time cap {} expired", self.cfg.max_time)));
            return false;
        }
        self.cycle();
        // Coulomb-count the battery as energy is spent; an empty
        // pack ends the mission on the spot (the paper's core
        // motivation: the 19.98 Wh pack bounds everything).
        let spent = self.ledger.total_joules();
        self.battery.drain(spent - self.drained_j);
        self.drained_j = spent;
        if self.battery.depleted() {
            self.outcome = Some((
                false,
                format!("battery depleted after {:.0}s", self.now.as_secs_f64()),
            ));
            return false;
        }
        if self.goal_reached() {
            self.outcome = Some((true, "goal reached".into()));
            return false;
        }
        true
    }

    /// Emit the mission-end trace events and assemble the report.
    pub fn finish(mut self) -> MissionReport {
        let (completed, reason) = self
            .outcome
            .take()
            .unwrap_or_else(|| (false, format!("time cap {} expired", self.cfg.max_time)));
        self.tracer.set_time_ns(self.now.as_nanos());
        self.ledger.trace_flush();
        if self.degraded {
            // The mission ended still degraded: close the span so the
            // analyzer's degraded-time accounting balances.
            self.tracer.emit_with(|| TraceEvent::DegradeExit {
                held_ns: self
                    .now
                    .saturating_since(self.degrade_entered_at)
                    .as_nanos(),
                missed_cycles: self.missed_cycles_degraded,
            });
        }
        self.tracer.emit_with(|| TraceEvent::MissionEnd {
            completed,
            reason: reason.clone(),
        });
        self.tracer.flush();

        let total = self.standby + self.moving;
        let mut node_gcycles: Vec<(NodeKind, f64)> = self
            .node_cycles
            .iter()
            .map(|(k, c)| (*k, c / 1e9))
            .collect();
        node_gcycles.sort_by_key(|(k, _)| *k);
        MissionReport {
            completed,
            reason,
            time: TimeBreakdown {
                standby: self.standby,
                moving: self.moving,
            },
            energy: self.ledger.report(total),
            distance: self.vehicle.distance_travelled(),
            velocity_trace: self.velocity_trace,
            net_trace: self.net_trace,
            node_gcycles,
            avg_vdp_makespan: Duration::from_secs_f64(
                self.makespan_sum / self.makespan_n.max(1) as f64,
            ),
            net_switches: self.controller.net_switches(),
            avg_threads: self.threads_sum / self.threads_n.max(1) as f64,
            battery_soc: self.battery.soc(),
        }
    }

    /// Run the mission to completion (or to the time cap).
    pub fn run(mut self) -> MissionReport {
        self.begin();
        while self.step() {}
        self.finish()
    }
}
