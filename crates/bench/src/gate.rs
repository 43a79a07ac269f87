//! Regression gates over the suite's outputs, run as
//! `suite check-perf` and `suite check-recovery` (see `docs/CI.md`).
//!
//! - The **perf gate** compares a quick-mode `BENCH_suite.json` against
//!   the committed `BENCH_baseline_quick.json`. A checksum change is an
//!   output change, not a perf change: it fails, and the baseline must
//!   be regenerated deliberately. A wall-time regression beyond
//!   [`PERF_TOLERANCE`] fails too, but only for scenarios whose
//!   baseline is at least [`PERF_FLOOR_MS`]; shorter jobs are noise.
//! - The **recovery gate** compares the chaos-fleet [`Slo`] lines of a
//!   quick run against the committed `BENCH_recovery_baseline.txt`.
//!   The SLOs are measured on the virtual clock, so they are exactly
//!   reproducible; the tolerance absorbs deliberate tuning, not noise.
//!
//! Rows present in only one file (new or dropped scenarios and arms)
//! are reported without failing: registry drift is the freshness
//! test's concern.
//!
//! The perf gate also prints the median current/baseline wall ratio
//! over the scenarios it times, and warns, without failing, when every
//! one of them ran more than [`STALE_BASELINE_SPEEDUP`] faster than
//! its baseline: a baseline taken on a slower host leaves the
//! tolerance unable to see a regression smaller than that gap.

use crate::scenarios::chaos_fleet::Slo;
use crate::suite::Artifact;

/// Fractional wall-time regression the perf gate allows.
pub const PERF_TOLERANCE: f64 = 0.15;
/// Baseline wall time below which the perf gate checks only the
/// checksum.
pub const PERF_FLOOR_MS: f64 = 100.0;
/// Speed-up over the baseline, on every scenario the wall-time check
/// covers, at which the perf gate warns that the baseline looks stale.
pub const STALE_BASELINE_SPEEDUP: f64 = 0.35;
/// Fractional regression the recovery gate allows on `ttr_s` and
/// `degraded_frac`.
pub const RECOVERY_TOLERANCE: f64 = 0.10;
/// Absolute slack on top of the relative `degraded_frac` tolerance.
pub const DEGRADED_FRAC_SLACK: f64 = 0.01;

/// What a gate found: one report line per compared row, and whether
/// any row failed.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    /// Report lines, in row order.
    pub lines: Vec<String>,
    /// Whether any row failed.
    pub failed: bool,
}

impl Verdict {
    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn fail(&mut self, line: String) {
        self.lines.push(line);
        self.failed = true;
    }
}

/// The perf gate. `Err` means an input is not a usable quick-mode
/// suite artifact (wrong schema, full-mode run, no rows). With
/// `checksums_only` the wall-time check is off, which leaves checksum
/// drift as the only failure: the profiler-off control build uses it.
pub fn check_perf(current: &str, baseline: &str, checksums_only: bool) -> Result<Verdict, String> {
    let read = |which: &str, text: &str| {
        let a = Artifact::parse(text).map_err(|e| format!("{which}: {e}"))?;
        if !a.quick {
            return Err(format!("{which}: the perf gate compares quick runs only"));
        }
        if a.rows.is_empty() {
            return Err(format!("{which}: no scenario rows"));
        }
        Ok(a)
    };
    let (cur, base) = (read("current", current)?, read("baseline", baseline)?);
    let mut v = Verdict::default();
    // current/baseline wall ratios of the rows the wall-time check
    // covers.
    let mut timed = Vec::new();
    for row in &cur.rows {
        let Some(b) = base.rows.iter().find(|b| b.name == row.name) else {
            v.note(format!(
                "  new scenario (not in baseline): {:<15} {:>10.1} ms",
                row.name, row.wall_ms
            ));
            continue;
        };
        if row.checksum != b.checksum {
            v.fail(format!(
                "  CHECKSUM DRIFT:  {:<15} {} -> {} (outputs changed; regenerate the baseline deliberately)",
                row.name, b.checksum, row.checksum
            ));
            continue;
        }
        let ratio = if b.wall_ms > 0.0 {
            row.wall_ms / b.wall_ms
        } else {
            1.0
        };
        let change = format!(
            "{:<15} {:>10.1} ms -> {:>10.1} ms ({:+.0}%)",
            row.name,
            b.wall_ms,
            row.wall_ms,
            (ratio - 1.0) * 100.0
        );
        if b.wall_ms >= PERF_FLOOR_MS {
            timed.push(ratio);
        }
        if !checksums_only && b.wall_ms >= PERF_FLOOR_MS && ratio > 1.0 + PERF_TOLERANCE {
            v.fail(format!("  PERF REGRESSION: {change}"));
        } else {
            v.note(format!("  ok: {change}"));
        }
    }
    for b in &base.rows {
        if !cur.rows.iter().any(|r| r.name == b.name) {
            v.note(format!("  scenario dropped from current run: {}", b.name));
        }
    }
    if !timed.is_empty() {
        timed.sort_by(f64::total_cmp);
        let mid = timed.len() / 2;
        let median = if timed.len() % 2 == 1 {
            timed[mid]
        } else {
            (timed[mid - 1] + timed[mid]) / 2.0
        };
        v.note(format!(
            "  median wall ratio (current/baseline) over {} timed scenarios: {median:.2}",
            timed.len()
        ));
        if timed.iter().all(|&r| r < 1.0 - STALE_BASELINE_SPEEDUP) {
            v.note(format!(
                "  WARNING: stale baseline? every timed scenario ran more than {:.0}% faster \
                 than the baseline, so the {:.0}% gate cannot see regressions below that gap; \
                 re-take the baseline on this host",
                STALE_BASELINE_SPEEDUP * 100.0,
                PERF_TOLERANCE * 100.0
            ));
        }
    }
    Ok(v)
}

/// The recovery gate over two texts holding `SLO` lines (a captured
/// chaos-fleet run and the committed baseline). `Err` means a text
/// holds no SLO line, or a malformed one.
pub fn check_recovery(current: &str, baseline: &str) -> Result<Verdict, String> {
    let read = |which: &str, text: &str| {
        let slos = Slo::parse_all(text).map_err(|e| format!("{which}: {e}"))?;
        if slos.is_empty() {
            return Err(format!("{which}: no SLO lines"));
        }
        Ok(slos)
    };
    let (cur, base) = (read("current", current)?, read("baseline", baseline)?);
    let tol = 1.0 + RECOVERY_TOLERANCE;
    let mut v = Verdict::default();
    for s in &cur {
        let Some(b) = base.iter().find(|b| b.arm == s.arm) else {
            v.note(format!("  new arm (not in baseline): {}", s.arm));
            continue;
        };
        let mut problems = Vec::new();
        match (b.ttr_s, s.ttr_s) {
            (Some(was), None) => {
                problems.push(format!("lost its ttr measurement (was {was:.3} s)"))
            }
            (None, Some(now)) => problems.push(format!(
                "gained a ttr measurement ({now:.3} s); regenerate the baseline"
            )),
            (Some(was), Some(now)) if now > was * tol => {
                problems.push(format!("ttr {was:.3} s -> {now:.3} s"))
            }
            _ => {}
        }
        if s.degraded_frac > b.degraded_frac * tol + DEGRADED_FRAC_SLACK {
            problems.push(format!(
                "degraded_frac {:.4} -> {:.4}",
                b.degraded_frac, s.degraded_frac
            ));
        }
        if s.missed > b.missed {
            problems.push(format!(
                "missed cycles {} -> {} (zero tolerance)",
                b.missed, s.missed
            ));
        }
        if problems.is_empty() {
            v.note(format!("  ok: {}", s.line()));
        }
        for p in problems {
            v.fail(format!("  SLO REGRESSION: {:<20} {p}", s.arm));
        }
    }
    for b in &base {
        if !cur.iter().any(|s| s.arm == b.arm) {
            v.note(format!("  arm dropped from current run: {}", b.arm));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{JobResult, SuiteReport};
    use lgv_trace::prof::ProfileTree;

    /// A suite artifact with `(name, wall_ms, checksum)` rows, rendered
    /// by the real serializer.
    fn artifact(quick: bool, rows: &[(&str, f64, &str)]) -> String {
        SuiteReport {
            threads: 1,
            quick,
            profiled: false,
            total_wall_ms: 0.0,
            results: rows
                .iter()
                .map(|&(name, wall_ms, checksum)| JobResult {
                    name: name.into(),
                    seed: 0,
                    wall_ms,
                    sim_time_s: 0.0,
                    events: 0,
                    output: Vec::new(),
                    checksum: checksum.into(),
                    error: None,
                    profile: ProfileTree::new(),
                })
                .collect(),
        }
        .to_json()
    }

    fn fails(r: Result<Verdict, String>) -> bool {
        r.map_or(true, |v| v.failed)
    }

    const BASE_ROWS: &[(&str, f64, &str)] =
        &[("slow", 1000.0, "fnv1a:1"), ("fast", 50.0, "fnv1a:2")];

    #[test]
    fn perf_gate_passes_an_identical_run_and_reports_new_and_dropped_rows() {
        let base = artifact(true, BASE_ROWS);
        let v = check_perf(&base, &base, false).unwrap();
        assert!(!v.failed, "{:?}", v.lines);
        let cur = artifact(
            true,
            &[("slow", 1100.0, "fnv1a:1"), ("new", 9.0, "fnv1a:3")],
        );
        let v = check_perf(&cur, &base, false).unwrap();
        assert!(!v.failed, "{:?}", v.lines);
        assert!(v.lines.iter().any(|l| l.contains("new scenario")));
        assert!(v
            .lines
            .iter()
            .any(|l| l.contains("dropped") && l.contains("fast")));
    }

    #[test]
    fn perf_gate_fails_on_a_wrong_schema_tag() {
        let base = artifact(true, BASE_ROWS);
        let other = base.replace(crate::suite::SCHEMA, "lgv-bench-suite/v2");
        assert!(fails(check_perf(&other, &base, false)));
        assert!(fails(check_perf(&base, &other, false)));
    }

    #[test]
    fn perf_gate_fails_on_a_non_quick_artifact() {
        let base = artifact(true, BASE_ROWS);
        let full = artifact(false, BASE_ROWS);
        assert!(fails(check_perf(&full, &base, false)));
        assert!(fails(check_perf(&base, &full, true)));
    }

    #[test]
    fn perf_gate_fails_on_an_artifact_without_rows() {
        let base = artifact(true, BASE_ROWS);
        let empty = artifact(true, &[]);
        assert!(fails(check_perf(&empty, &base, false)));
        assert!(fails(check_perf(&base, &empty, false)));
    }

    #[test]
    fn perf_gate_fails_on_checksum_drift_even_checksums_only() {
        let base = artifact(true, BASE_ROWS);
        let cur = artifact(
            true,
            &[("slow", 1000.0, "fnv1a:1"), ("fast", 50.0, "fnv1a:9")],
        );
        assert!(fails(check_perf(&cur, &base, false)));
        assert!(fails(check_perf(&cur, &base, true)));
    }

    #[test]
    fn perf_gate_fails_on_wall_time_regression_above_the_floor_only() {
        let base = artifact(true, BASE_ROWS);
        // 1000 ms -> 1151 ms is past the 15% tolerance...
        let slow = artifact(
            true,
            &[("slow", 1151.0, "fnv1a:1"), ("fast", 50.0, "fnv1a:2")],
        );
        assert!(fails(check_perf(&slow, &base, false)));
        // ...but not a failure when only checksums are compared,
        assert!(!fails(check_perf(&slow, &base, true)));
        // and a sub-floor job may slow down arbitrarily.
        let fast = artifact(
            true,
            &[("slow", 1149.0, "fnv1a:1"), ("fast", 500.0, "fnv1a:2")],
        );
        assert!(!fails(check_perf(&fast, &base, false)));
    }

    #[test]
    fn perf_gate_prints_the_median_ratio_and_warns_on_a_stale_baseline() {
        let base = artifact(
            true,
            &[
                ("a", 1000.0, "fnv1a:1"),
                ("b", 2000.0, "fnv1a:2"),
                ("c", 400.0, "fnv1a:3"),
                ("tiny", 50.0, "fnv1a:4"),
            ],
        );
        let median = |v: &Verdict| {
            v.lines
                .iter()
                .find(|l| l.contains("median wall ratio"))
                .cloned()
                .unwrap_or_default()
        };
        let stale = |v: &Verdict| v.lines.iter().any(|l| l.contains("stale baseline"));
        // Every timed row more than 35% faster (the sub-floor row does
        // not count): a warning, not a failure, in both modes.
        let fast = artifact(
            true,
            &[
                ("a", 300.0, "fnv1a:1"),
                ("b", 1200.0, "fnv1a:2"),
                ("c", 200.0, "fnv1a:3"),
                ("tiny", 50.0, "fnv1a:4"),
            ],
        );
        for checksums_only in [false, true] {
            let v = check_perf(&fast, &base, checksums_only).unwrap();
            assert!(!v.failed, "{:?}", v.lines);
            assert!(stale(&v), "{:?}", v.lines);
            assert!(
                median(&v).ends_with("over 3 timed scenarios: 0.50"),
                "{:?}",
                v.lines
            );
        }
        // One timed row only 30% faster: no warning.
        let mixed = fast.replace("\"wall_ms\": 200.0", "\"wall_ms\": 280.0");
        assert_ne!(mixed, fast);
        let v = check_perf(&mixed, &base, false).unwrap();
        assert!(!stale(&v), "{:?}", v.lines);
        assert!(median(&v).ends_with(": 0.60"), "{:?}", v.lines);
        // An identical run: ratio 1, no warning.
        let v = check_perf(&base, &base, false).unwrap();
        assert!(
            !stale(&v) && median(&v).ends_with(": 1.00"),
            "{:?}",
            v.lines
        );
    }

    const SLO_BASE: &str = "\
SLO arm=ckpt ttr_s=10.000 degraded_frac=0.0000 missed=0
SLO arm=blackout ttr_s=n/a degraded_frac=0.3000 missed=1
";

    /// The baseline with one field of one arm replaced.
    fn slo_edit(from: &str, to: &str) -> String {
        assert!(SLO_BASE.contains(from));
        SLO_BASE.replacen(from, to, 1)
    }

    #[test]
    fn recovery_gate_passes_within_tolerance_and_reports_new_and_dropped_arms() {
        let within = slo_edit("ttr_s=10.000", "ttr_s=11.000")
            .replace("degraded_frac=0.3000", "degraded_frac=0.3399");
        let v = check_recovery(&within, SLO_BASE).unwrap();
        assert!(!v.failed, "{:?}", v.lines);
        let cur = "banner\nSLO arm=ckpt ttr_s=9.000 degraded_frac=0.0000 missed=0\n\
                   SLO arm=new ttr_s=n/a degraded_frac=0.0000 missed=0\n";
        let v = check_recovery(cur, SLO_BASE).unwrap();
        assert!(!v.failed, "{:?}", v.lines);
        assert!(v.lines.iter().any(|l| l.contains("new arm")));
        assert!(v
            .lines
            .iter()
            .any(|l| l.contains("dropped") && l.contains("blackout")));
    }

    #[test]
    fn recovery_gate_fails_without_slo_lines() {
        assert!(fails(check_recovery("no slo here\n", SLO_BASE)));
        assert!(fails(check_recovery(SLO_BASE, "")));
    }

    #[test]
    fn recovery_gate_fails_when_ttr_is_lost() {
        let cur = slo_edit("ttr_s=10.000", "ttr_s=n/a");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
    }

    #[test]
    fn recovery_gate_fails_when_ttr_is_gained() {
        let cur = slo_edit("ttr_s=n/a", "ttr_s=1.000");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
    }

    #[test]
    fn recovery_gate_fails_when_ttr_regresses_past_tolerance() {
        let cur = slo_edit("ttr_s=10.000", "ttr_s=11.001");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
    }

    #[test]
    fn recovery_gate_fails_when_degraded_frac_regresses_past_tolerance() {
        // 0.3 * 1.1 + 0.01 = 0.34 is the limit.
        let cur = slo_edit("degraded_frac=0.3000", "degraded_frac=0.3401");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
        // From zero only the absolute slack applies.
        let cur = slo_edit("degraded_frac=0.0000", "degraded_frac=0.0101");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
    }

    #[test]
    fn recovery_gate_fails_on_any_missed_cycle_increase() {
        let cur = slo_edit("missed=1", "missed=2");
        assert!(fails(check_recovery(&cur, SLO_BASE)));
    }
}
