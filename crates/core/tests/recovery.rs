//! Acceptance tests for the recovery stack: checkpointed re-offload,
//! degraded-mode autonomy, and fault-composition determinism.

use lgv_net::fault::{CloudFaultSchedule, FaultKind, FaultSchedule};
use lgv_offload::deploy::Deployment;
use lgv_offload::fleet::{run_fleet, FleetConfig};
use lgv_offload::mission::{self, MissionConfig, Workload};
use lgv_offload::model::VelocityModel;
use lgv_offload::recovery::{DegradedConfig, RecoveryConfig};
use lgv_sim::world::WorldBuilder;
use lgv_trace::{TraceAnalysis, Tracer};
use lgv_types::prelude::*;
use proptest::prelude::*;

fn run_analyzed(cfg: MissionConfig) -> (mission::MissionReport, TraceAnalysis) {
    let tracer = Tracer::enabled();
    let sink = tracer.attach(TraceAnalysis::default());
    let report = mission::run_traced(cfg, tracer);
    let analysis = std::mem::take(&mut *sink.lock().unwrap());
    (report, analysis)
}

/// A corridor long enough (~45 s of virtual time) that a failure at
/// t = 8 s lands mid-flight and the full recovery arc completes
/// before the goal.
fn corridor(faults: FaultSchedule, recovery: RecoveryConfig) -> MissionConfig {
    let world = WorldBuilder::new(16.0, 4.0, 0.05).walls().build();
    let mut cfg = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
    cfg.world = world;
    cfg.start = Pose2D::new(1.0, 2.0, 0.0);
    cfg.nav_goal = Point2::new(14.5, 2.0);
    cfg.wap = Point2::new(14.5, 2.0);
    cfg.max_time = Duration::from_secs(240);
    cfg.velocity = VelocityModel {
        hw_cap: 0.35,
        ..VelocityModel::default()
    };
    cfg.seed = 13;
    cfg.faults = faults;
    cfg.recovery = recovery;
    cfg
}

#[test]
fn checkpointed_recovery_beats_cold_rebuild() {
    let crash = FaultSchedule::none().with(8.0, 10.0, FaultKind::RemoteCrash);
    let cold = mission::run(corridor(crash.clone(), RecoveryConfig::default()));
    let (ckpt, analysis) = run_analyzed(corridor(
        crash,
        RecoveryConfig::default().with_checkpoints(Duration::from_secs(2)),
    ));
    assert!(cold.completed && ckpt.completed);
    let recovery = analysis.recovery_report().expect("checkpoints traced");
    assert!(recovery.checkpoints > 0, "checkpoints should complete");
    assert!(recovery.checkpoint_bytes > 0);
    // Same crash, same seed: resuming from the last snapshot instead
    // of a cold rebuild must strictly shorten the mission.
    assert!(
        ckpt.time.total() < cold.time.total(),
        "ckpt {:?} !< cold {:?}",
        ckpt.time.total(),
        cold.time.total()
    );
}

#[test]
fn degraded_mode_drops_no_cycles_under_sustained_blackout() {
    let blackout = FaultSchedule::none().with(8.0, 20.0, FaultKind::Blackout);
    let (report, analysis) = run_analyzed(corridor(
        blackout,
        RecoveryConfig::default().with_degraded(DegradedConfig::default()),
    ));
    assert!(report.completed, "mission rides out the blackout");
    let recovery = analysis.recovery_report().expect("degrade events traced");
    assert!(
        recovery.degrade_entries >= 1,
        "blackout should trigger degraded mode"
    );
    assert!(recovery.degraded_ns > 0);
    assert_eq!(
        recovery.missed_cycles, 0,
        "reduced fidelity must keep every 200 ms deadline"
    );
}

#[test]
fn degraded_mode_restores_full_fidelity_after_recovery() {
    let blackout = FaultSchedule::none().with(8.0, 12.0, FaultKind::Blackout);
    let (report, analysis) = run_analyzed(corridor(
        blackout,
        RecoveryConfig::default().with_degraded(DegradedConfig::default()),
    ));
    assert!(report.completed);
    let recovery = analysis.recovery_report().expect("degrade events traced");
    // Entered during the blackout, exited after the restore hold: the
    // degraded span is bounded well below the whole mission.
    assert!(recovery.degrade_entries >= 1);
    assert!(recovery.degraded_fraction < 0.9, "mode must not stick");
}

#[test]
fn faulted_fleet_runs_are_seed_stable() {
    let mission = |()| {
        let mut cfg = corridor(
            FaultSchedule::randomized(21, Duration::from_secs(20)),
            RecoveryConfig::resilient(),
        );
        cfg.max_time = Duration::from_secs(120);
        FleetConfig::new(cfg, 2)
            .with_cloud_faults(CloudFaultSchedule::randomized(21, Duration::from_secs(20)))
    };
    let a = run_fleet(mission(()));
    let b = run_fleet(mission(()));
    let fa: Vec<u64> = a.vehicles.iter().map(|v| v.fingerprint()).collect();
    let fb: Vec<u64> = b.vehicles.iter().map(|v| v.fingerprint()).collect();
    assert_eq!(fa, fb, "identical seeds must replay byte-identically");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any composition of randomized channel and cloud fault
    /// schedules terminates every mission in bounded virtual time
    /// (completion or a clean abort before `max_time`), and replays
    /// byte-identically from its seed.
    #[test]
    fn composed_fault_schedules_terminate_and_replay(seed in 0u64..1_000) {
        let cfg = || {
            let mut c = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
            c.seed = seed;
            c.faults = FaultSchedule::randomized(seed, Duration::from_secs(20));
            c.recovery = RecoveryConfig::resilient();
            FleetConfig::new(c, 2)
                .with_cloud_faults(CloudFaultSchedule::randomized(seed, Duration::from_secs(20)))
        };
        let a = run_fleet(cfg());
        // Bounded virtual time: every vehicle ends at or before the
        // 120 s cap, whatever the schedules composed to.
        for v in &a.vehicles {
            prop_assert!(v.time.total() <= Duration::from_secs(120));
        }
        let b = run_fleet(cfg());
        let fa: Vec<u64> = a.vehicles.iter().map(|v| v.fingerprint()).collect();
        let fb: Vec<u64> = b.vehicles.iter().map(|v| v.fingerprint()).collect();
        prop_assert_eq!(fa, fb);
    }
}
