//! Chaos sweep: seeded randomized fault schedules thrown at short
//! offloaded navigation missions, plus the scripted remote-crash
//! showcase (the Fig. 12 storyline with a dead cloud instead of a
//! dead zone). Every run is deterministic per seed — any row here can
//! be replayed exactly.
//!
//! Quick mode shrinks the sweep for smoke runs.

use crate::suite::ScenarioCtx;
use crate::{write_banner, TablePrinter};
use lgv_net::signal::WirelessConfig;
use lgv_net::{FaultKind, FaultSchedule};
use lgv_offload::deploy::Deployment;
use lgv_offload::mission::{self, MissionConfig, MissionReport, Workload};
use lgv_offload::model::{Goal, VelocityModel};
use lgv_offload::policy::PolicyKind;
use lgv_offload::recovery::RecoveryConfig;
use lgv_offload::strategy::PinPolicy;
use lgv_sim::world::WorldBuilder;
use lgv_sim::LidarConfig;
use lgv_trace::{TraceAnalysis, Tracer};
use lgv_types::prelude::*;
use std::io;
use std::sync::Mutex;

/// Run one mission on the job's tracer and take the analysis of its
/// records out of `sink`, a [`TraceAnalysis`] attached to that tracer
/// (emptied again for the next mission).
fn run_analyzed(
    cfg: MissionConfig,
    tracer: &Tracer,
    sink: &Mutex<TraceAnalysis>,
) -> (MissionReport, TraceAnalysis) {
    let report = mission::run_traced(cfg, tracer.clone());
    let analysis = std::mem::take(&mut *sink.lock().expect("trace analysis sink poisoned"));
    (report, analysis)
}

fn chaos_config(seed: u64) -> MissionConfig {
    let world = WorldBuilder::new(7.0, 5.0, 0.05)
        .walls()
        .disc(Point2::new(3.5, 2.6), 0.3)
        .build();
    MissionConfig {
        workload: Workload::Navigation,
        deployment: Deployment::edge_8t(),
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(5.8, 2.2),
        wap: Point2::new(3.5, 4.5),
        wireless: WirelessConfig::default().with_weak_radius(30.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(180),
        dwa_samples: 400,
        slam_particles: 6,
        velocity: VelocityModel::default(),
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: FaultSchedule::randomized(seed, Duration::from_secs(20)),
        recovery: RecoveryConfig::default(),
    }
}

fn schedule_label(s: &FaultSchedule) -> String {
    s.windows()
        .iter()
        .map(|w| {
            format!(
                "{}@{:.0}s+{:.0}s",
                w.kind.label(),
                w.from.saturating_since(SimTime::EPOCH).as_secs_f64(),
                w.until.saturating_since(w.from).as_secs_f64()
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn chaos_sweep(ctx: &mut ScenarioCtx, sink: &Mutex<TraceAnalysis>) -> io::Result<()> {
    write_banner(
        ctx.out,
        "Chaos sweep: randomized fault schedules vs the recovery stack",
        "graceful degradation: complete or abort cleanly, never panic, per-seed deterministic",
    )?;
    let n_seeds: u64 = if ctx.quick { 3 } else { 10 };
    let mut table = TablePrinter::new(vec![
        "seed", "schedule", "done", "time s", "switches", "hb miss", "mig t/o", "backoffs",
    ]);
    for seed in ctx.seed..ctx.seed + n_seeds {
        let cfg = chaos_config(seed);
        let label = schedule_label(&cfg.faults);
        let (report, analysis) = run_analyzed(cfg, &ctx.tracer, sink);
        table.row(vec![
            seed.to_string(),
            label,
            if report.completed {
                "yes".into()
            } else {
                format!("no: {}", report.reason)
            },
            format!("{:.1}", report.time.total().as_secs_f64()),
            report.net_switches.to_string(),
            analysis.heartbeat_miss_count().to_string(),
            analysis.migration_timeout_count().to_string(),
            analysis.backoff_count().to_string(),
        ]);
    }
    table.write_to(ctx.out)
}

fn crash_showcase(ctx: &mut ScenarioCtx, sink: &Mutex<TraceAnalysis>) -> io::Result<()> {
    write_banner(
        ctx.out,
        "Scripted remote crash: heartbeat fallback and backed-off re-offload",
        "crash at t=30 s for 20 s: local within 2 s (heartbeat), re-offload gated by backoff",
    )?;
    let world = WorldBuilder::new(18.0, 4.0, 0.05).walls().build();
    let cfg = MissionConfig {
        workload: Workload::Navigation,
        deployment: Deployment::edge_8t(),
        goal: Goal::MissionTime,
        policy: PolicyKind::Algorithm1,
        adaptive: true,
        adaptive_parallelism: false,
        pins: PinPolicy::none(),
        seed: 11,
        world,
        start: Pose2D::new(1.0, 2.0, 0.0),
        nav_goal: Point2::new(16.0, 2.0),
        wap: Point2::new(16.0, 2.0),
        wireless: WirelessConfig::default().with_weak_radius(40.0),
        wan_latency_override: None,
        max_time: Duration::from_secs(240),
        dwa_samples: 600,
        slam_particles: 6,
        velocity: VelocityModel {
            hw_cap: 0.22,
            ..VelocityModel::default()
        },
        battery_wh: None,
        lidar: LidarConfig::default(),
        exploration_speed_cap: 0.3,
        record_traces: false,
        faults: FaultSchedule::none().with(30.0, 20.0, FaultKind::RemoteCrash),
        recovery: RecoveryConfig::default(),
    };
    let (report, analysis) = run_analyzed(cfg, &ctx.tracer, sink);
    writeln!(
        ctx.out,
        "  completed {} in {:.1} s  (switches {}, heartbeat misses {}, migration timeouts {}, backoffs {})",
        report.completed,
        report.time.total().as_secs_f64(),
        report.net_switches,
        analysis.heartbeat_miss_count(),
        analysis.migration_timeout_count(),
        analysis.backoff_count(),
    )?;
    writeln!(ctx.out)?;
    // The analysis layer's own attribution of the window.
    for line in analysis.render_report().lines() {
        if line.contains("fault") || line.contains("inside:") || line.contains("backoff") {
            writeln!(ctx.out, "  {line}")?;
        }
    }
    Ok(())
}

/// Regenerate the chaos sweep + crash showcase.
pub fn run(ctx: &mut ScenarioCtx) -> io::Result<()> {
    let sink = ctx.tracer.attach(TraceAnalysis::default());
    chaos_sweep(ctx, &sink)?;
    crash_showcase(ctx, &sink)
}
