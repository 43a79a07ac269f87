//! Chaos-fleet: the recovery stack under scripted and randomized
//! failures, with recovery-SLO accounting.
//!
//! Six arms pit two recovery postures (the historical defaults vs the
//! full resilient posture: 2 s checkpoints + degraded-mode autonomy)
//! against three failure families:
//!
//! * a scripted **remote crash** mid-mission — cold rebuild vs
//!   checkpointed re-offload,
//! * a sustained **radio blackout** — rigid full-fidelity pipeline vs
//!   reduced-fidelity degraded mode, and
//! * **cloud-tier chaos** (replica crashes, stragglers, failed
//!   scale-ups) against the elastic scheduler, with the waste priced
//!   in the cost ledger.
//!
//! Every arm prints one machine-readable
//! `SLO arm=<name> ttr_s=<x> degraded_frac=<x> missed=<n>` line
//! ([`Slo`]) — `suite check-recovery` reads these back and diffs them
//! against the committed `BENCH_recovery_baseline.txt`, so
//! recovery-SLO regressions fail CI the same way perf regressions do.

use crate::suite::ScenarioCtx;
use crate::{write_banner, TablePrinter};
use lgv_net::fault::{CloudFaultKind, CloudFaultSchedule};
use lgv_net::{FaultKind, FaultSchedule};
use lgv_offload::deploy::Deployment;
use lgv_offload::fleet::{run_fleet_traced, CloudPolicy, ElasticConfig, FleetConfig, FleetReport};
use lgv_offload::mission::{MissionConfig, Workload};
use lgv_offload::model::VelocityModel;
use lgv_offload::recovery::RecoveryConfig;
use lgv_sim::world::WorldBuilder;
use lgv_trace::{TraceAnalysis, Tracer};
use lgv_types::prelude::*;
use std::io;
use std::sync::Mutex;

/// One arm's recovery SLOs: the `SLO` line it prints, and what the
/// recovery gate ([`crate::gate::check_recovery`]) reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Arm name.
    pub arm: String,
    /// Mean heartbeat-miss → re-offload latency (seconds); `None` when
    /// the arm never re-offloaded (printed as `n/a`).
    pub ttr_s: Option<f64>,
    /// Fraction of the trace spent at reduced fidelity.
    pub degraded_frac: f64,
    /// Control cycles dropped while degraded.
    pub missed: u64,
}

impl Slo {
    /// `ttr_s` as printed: milliseconds precision, or `n/a`.
    fn ttr_text(&self) -> String {
        self.ttr_s.map_or("n/a".to_string(), |t| format!("{t:.3}"))
    }

    /// The printed line.
    pub fn line(&self) -> String {
        format!(
            "SLO arm={} ttr_s={} degraded_frac={:.4} missed={}",
            self.arm,
            self.ttr_text(),
            self.degraded_frac,
            self.missed
        )
    }

    /// Every `SLO ` line of `text`, in order; other lines are skipped
    /// and a malformed SLO line is an error.
    pub fn parse_all(text: &str) -> Result<Vec<Slo>, String> {
        text.lines()
            .filter(|l| l.starts_with("SLO "))
            .map(|l| Slo::parse_line(l).ok_or_else(|| format!("malformed SLO line {l:?}")))
            .collect()
    }

    fn parse_line(line: &str) -> Option<Slo> {
        let mut fields = line.strip_prefix("SLO ")?.split(' ');
        let mut next = |key: &str| fields.next()?.strip_prefix(key)?.strip_prefix('=');
        let arm = next("arm")?.to_string();
        let ttr_s = match next("ttr_s")? {
            "n/a" => None,
            t => Some(t.parse().ok()?),
        };
        let degraded_frac = next("degraded_frac")?.parse().ok()?;
        let missed = next("missed")?.parse().ok()?;
        fields.next().is_none().then_some(Slo {
            arm,
            ttr_s,
            degraded_frac,
            missed,
        })
    }
}

/// One experimental arm: a failure script plus a recovery posture.
struct Arm {
    name: &'static str,
    faults: FaultSchedule,
    cloud_faults: CloudFaultSchedule,
    recovery: RecoveryConfig,
    policy: CloudPolicy,
}

fn arms(seed: u64) -> Vec<Arm> {
    let crash = || FaultSchedule::none().with(8.0, 10.0, FaultKind::RemoteCrash);
    let blackout = || FaultSchedule::none().with(8.0, 12.0, FaultKind::Blackout);
    let cloud_chaos = || {
        CloudFaultSchedule::none()
            .with(5.0, 10.0, CloudFaultKind::ReplicaCrash { replicas: 1 })
            .with(12.0, 8.0, CloudFaultKind::Straggler { factor: 2.5 })
            .with(5.0, 12.0, CloudFaultKind::FailedScaleUp)
    };
    vec![
        Arm {
            name: "crash-cold",
            faults: crash(),
            cloud_faults: CloudFaultSchedule::none(),
            recovery: RecoveryConfig::default(),
            policy: CloudPolicy::Fixed,
        },
        Arm {
            name: "crash-ckpt",
            faults: crash(),
            cloud_faults: CloudFaultSchedule::none(),
            recovery: RecoveryConfig::default().with_checkpoints(),
            policy: CloudPolicy::Fixed,
        },
        Arm {
            name: "blackout-rigid",
            faults: blackout(),
            cloud_faults: CloudFaultSchedule::none(),
            recovery: RecoveryConfig::default(),
            policy: CloudPolicy::Fixed,
        },
        Arm {
            name: "blackout-degraded",
            faults: blackout(),
            cloud_faults: CloudFaultSchedule::none(),
            recovery: RecoveryConfig::default().with_degraded(),
            policy: CloudPolicy::Fixed,
        },
        Arm {
            name: "cloud-chaos",
            faults: FaultSchedule::none(),
            cloud_faults: cloud_chaos(),
            recovery: RecoveryConfig::default(),
            policy: CloudPolicy::Elastic(ElasticConfig::balanced()),
        },
        Arm {
            name: "compound-resilient",
            faults: FaultSchedule::randomized(seed, Duration::from_secs(20)),
            cloud_faults: CloudFaultSchedule::randomized(seed, Duration::from_secs(20)),
            recovery: RecoveryConfig::resilient(),
            policy: CloudPolicy::Elastic(ElasticConfig::balanced()),
        },
    ]
}

/// The arm's mission: a 14 m corridor drive slow enough (~45 s of
/// virtual time per vehicle) that the scripted failures land
/// mid-flight and the full recovery arc — detect, fall local, back
/// off, re-offload — fits before the goal.
fn corridor_mission(seed: u64) -> MissionConfig {
    let world = WorldBuilder::new(16.0, 4.0, 0.05).walls().build();
    let mut base = MissionConfig::compact_lab(Deployment::edge_8t(), Workload::Navigation);
    base.world = world;
    base.start = Pose2D::new(1.0, 2.0, 0.0);
    base.nav_goal = Point2::new(14.5, 2.0);
    base.wap = Point2::new(14.5, 2.0);
    base.max_time = Duration::from_secs(240);
    base.velocity = VelocityModel {
        hw_cap: 0.35,
        ..VelocityModel::default()
    };
    base.seed = seed;
    base
}

/// Run one arm's fleet on the job's tracer and take the analysis of
/// its records out of `sink`, a [`TraceAnalysis`] attached to that
/// tracer (emptied again for the next arm).
fn run_arm(
    arm: &Arm,
    seed: u64,
    size: usize,
    tracer: &Tracer,
    sink: &Mutex<TraceAnalysis>,
) -> (FleetReport, TraceAnalysis) {
    let mut base = corridor_mission(seed);
    base.faults = arm.faults.clone();
    base.recovery = arm.recovery;
    let report = run_fleet_traced(
        FleetConfig::new(base, size)
            .with_cloud(arm.policy)
            .with_cloud_faults(arm.cloud_faults.clone()),
        tracer.clone(),
    );
    let analysis = std::mem::take(&mut *sink.lock().expect("trace analysis sink poisoned"));
    (report, analysis)
}

/// Regenerate the chaos-fleet recovery-SLO study.
pub fn run(ctx: &mut ScenarioCtx) -> io::Result<()> {
    // The banner is checksummed output: it keeps naming the shell gate
    // that `suite check-recovery` replaced.
    write_banner(
        ctx.out,
        "Chaos-fleet: recovery SLOs under crash, blackout, and cloud chaos",
        "two recovery postures vs three failure families; SLO lines feed \
         scripts/check_recovery.sh",
    )?;
    let size: usize = if ctx.quick { 2 } else { 3 };

    let mut table = TablePrinter::new(vec![
        "arm",
        "done",
        "mean t s",
        "hb miss",
        "ckpts",
        "degraded s",
        "missed",
        "ttr s",
        "wasted repl-s",
    ]);
    let mut slo_lines = Vec::new();
    let sink = ctx.tracer.attach(TraceAnalysis::default());
    let mut mission_secs = Vec::new();
    for arm in arms(ctx.seed) {
        let (report, analysis) = run_arm(&arm, ctx.seed, size, &ctx.tracer, &sink);
        mission_secs.push((arm.name, report.mean_mission_secs()));
        let recovery = analysis.recovery_report();
        let (degraded_s, degraded_frac, missed, ckpts) =
            recovery.as_ref().map_or((0.0, 0.0, 0, 0), |r| {
                (
                    r.degraded_ns as f64 / 1e9,
                    r.degraded_fraction,
                    r.missed_cycles,
                    r.checkpoints,
                )
            });
        let slo = Slo {
            arm: arm.name.to_string(),
            ttr_s: analysis
                .mean_reoffload_latency_ns()
                .map(|ns| ns as f64 / 1e9),
            degraded_frac,
            missed,
        };
        let wasted = report
            .cloud
            .as_ref()
            .map_or(0.0, |c| c.wasted_replica_seconds);
        table.row(vec![
            arm.name.to_string(),
            format!("{}/{}", report.completed(), report.vehicles.len()),
            format!("{:.1}", report.mean_mission_secs()),
            analysis.heartbeat_miss_count().to_string(),
            ckpts.to_string(),
            format!("{degraded_s:.1}"),
            missed.to_string(),
            slo.ttr_text(),
            format!("{wasted:.1}"),
        ]);
        slo_lines.push(slo.line());
    }
    table.write_to(ctx.out)?;
    table.save_csv_to(ctx.out, "chaos_fleet")?;

    for line in &slo_lines {
        writeln!(ctx.out, "{line}")?;
    }

    // The two headline claims, stated over the arm results.
    let t_of = |name: &str| {
        mission_secs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    };
    writeln!(
        ctx.out,
        "checkpointed re-offload no slower than cold rebuild: {} \
         (cold {:.1} s vs ckpt {:.1} s mean mission)",
        t_of("crash-ckpt") <= t_of("crash-cold"),
        t_of("crash-cold"),
        t_of("crash-ckpt"),
    )?;
    writeln!(
        ctx.out,
        "degraded mode no slower than rigid under blackout: {} \
         (rigid {:.1} s vs degraded {:.1} s mean mission)",
        t_of("blackout-degraded") <= t_of("blackout-rigid"),
        t_of("blackout-rigid"),
        t_of("blackout-degraded"),
    )?;
    writeln!(ctx.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_slo_lines_read_back_and_print_identically() {
        let text = include_str!("../../../../BENCH_recovery_baseline.txt");
        let slos = Slo::parse_all(text).expect("baseline parses");
        assert_eq!(slos.len(), 6);
        let printed: Vec<String> = slos.iter().map(Slo::line).collect();
        assert_eq!(printed, text.lines().collect::<Vec<_>>());
        assert_eq!(slos[0].ttr_s, Some(10.8));
        assert_eq!(slos[2].ttr_s, None);
    }

    #[test]
    fn malformed_slo_lines_are_errors_and_other_lines_are_skipped() {
        assert_eq!(Slo::parse_all("==== banner ====\nok: x\n"), Ok(vec![]));
        for bad in [
            "SLO arm=a ttr_s=x degraded_frac=0.1 missed=0",
            "SLO arm=a ttr_s=n/a degraded_frac=0.1",
            "SLO arm=a ttr_s=n/a degraded_frac=0.1 missed=-1",
            "SLO arm=a ttr_s=n/a missed=0 degraded_frac=0.1",
            "SLO arm=a ttr_s=n/a degraded_frac=0.1 missed=0 extra=1",
        ] {
            assert!(Slo::parse_all(bad).is_err(), "accepted {bad:?}");
        }
    }
}
