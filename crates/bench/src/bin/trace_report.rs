//! Offline trace analysis: reconstruct message journeys and control
//! cycles from a `lgv-trace` JSONL file and print a deterministic
//! report (latency waterfall, critical-path attribution, drop/loss
//! lineage, and §V "lying RTT" anomalies).
//!
//! ```text
//! cargo run --release -p lgv-bench --bin trace_report -- /tmp/mission.jsonl
//! cargo run --release -p lgv-bench --bin trace_report -- --prof BENCH_profile.json
//! ```
//!
//! A file may hold several missions back to back (each starts with a
//! `mission_start` record); the report prints one section per mission.
//! Fleet traces interleave N vehicles' records in one file, each
//! stamped with its vehicle id: those are first partitioned per
//! vehicle (id order), then split into missions within each vehicle.
//! Output depends only on the file's bytes, so re-running on the same
//! trace is byte-for-byte identical.
//!
//! `--prof <BENCH_profile.json>` switches to wall-clock profile mode:
//! it reads the `lgv-bench-profile/v1` artifact that `suite --profile`
//! writes and renders (a) a top-N self-time table across every
//! scenario — where the wall-clock actually went — and (b) one
//! waterfall per scenario: the scope tree indented by call depth with
//! total/self milliseconds, call counts, and the coverage summary
//! (profiled vs unattributed time). `--top N` resizes the table
//! (default 20).

use lgv_bench::suite::PROFILE_SCHEMA;
use lgv_bench::TablePrinter;
use lgv_trace::json::Value;
use lgv_trace::{TraceEvent, TraceReader, TraceRecord};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Split a record stream into missions at `mission_start` boundaries.
/// Records before the first `mission_start` (e.g. a concatenated tail
/// from a crashed run) form their own leading segment.
fn split_missions(records: Vec<TraceRecord>) -> Vec<Vec<TraceRecord>> {
    let mut missions: Vec<Vec<TraceRecord>> = Vec::new();
    for rec in records {
        let boundary = matches!(rec.event, TraceEvent::MissionStart { .. });
        if boundary || missions.is_empty() {
            missions.push(Vec::new());
        }
        missions.last_mut().expect("segment exists").push(rec);
    }
    missions
}

/// One flattened scope row from the profile artifact.
struct ScopeRow {
    path: String,
    depth: u64,
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// One scenario section from the profile artifact.
struct ProfScenario {
    name: String,
    wall_ms: f64,
    profiled_ms: f64,
    unattributed_ms: f64,
    coverage: f64,
    scopes: Vec<ScopeRow>,
}

fn parse_profile(v: &Value) -> Result<Vec<ProfScenario>, String> {
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != PROFILE_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (want \"{PROFILE_SCHEMA}\")"
        ));
    }
    let mut out = Vec::new();
    for sc in v.get("scenarios").map(Value::items).unwrap_or(&[]) {
        let scopes = sc
            .get("scopes")
            .map(Value::items)
            .unwrap_or(&[])
            .iter()
            .map(|s| ScopeRow {
                path: s.get("path").and_then(Value::as_str).unwrap_or("?").into(),
                depth: s.get("depth").and_then(Value::as_u64).unwrap_or(1),
                count: s.get("count").and_then(Value::as_u64).unwrap_or(0),
                total_ns: s.get("total_ns").and_then(Value::as_u64).unwrap_or(0),
                self_ns: s.get("self_ns").and_then(Value::as_u64).unwrap_or(0),
            })
            .collect();
        out.push(ProfScenario {
            name: sc.get("name").and_then(Value::as_str).unwrap_or("?").into(),
            wall_ms: sc.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
            profiled_ms: sc.get("profiled_ms").and_then(Value::as_f64).unwrap_or(0.0),
            unattributed_ms: sc
                .get("unattributed_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            coverage: sc.get("coverage").and_then(Value::as_f64).unwrap_or(0.0),
            scopes,
        });
    }
    Ok(out)
}

fn prof_report(scenarios: &[ProfScenario], top: usize) {
    // ---- Top-N self-time table across every scenario: where the
    // wall-clock actually went, hottest kernels first. ----
    let mut hot: Vec<(usize, usize)> = Vec::new(); // (scenario idx, scope idx)
    for (si, sc) in scenarios.iter().enumerate() {
        for (ri, _) in sc.scopes.iter().enumerate() {
            hot.push((si, ri));
        }
    }
    // Sort by self time descending; break ties on (scenario, path) so
    // the report is deterministic for equal timings.
    hot.sort_by(|&(sa, ra), &(sb, rb)| {
        let a = &scenarios[sa].scopes[ra];
        let b = &scenarios[sb].scopes[rb];
        b.self_ns
            .cmp(&a.self_ns)
            .then_with(|| scenarios[sa].name.cmp(&scenarios[sb].name))
            .then_with(|| a.path.cmp(&b.path))
    });
    println!("==== top {} scopes by self time ====", top.min(hot.len()));
    println!();
    let mut t = TablePrinter::new(vec![
        "#", "scenario", "scope", "calls", "self ms", "total ms", "% wall",
    ]);
    for (rank, &(si, ri)) in hot.iter().take(top).enumerate() {
        let sc = &scenarios[si];
        let row = &sc.scopes[ri];
        let pct = if sc.wall_ms > 0.0 {
            100.0 * (row.self_ns as f64 / 1e6) / sc.wall_ms
        } else {
            0.0
        };
        t.row(vec![
            (rank + 1).to_string(),
            sc.name.clone(),
            row.path.clone(),
            row.count.to_string(),
            format!("{:.3}", row.self_ns as f64 / 1e6),
            format!("{:.3}", row.total_ns as f64 / 1e6),
            format!("{pct:.1}"),
        ]);
    }
    t.print();

    // ---- Per-scenario waterfalls: scope tree indented by depth. ----
    for sc in scenarios {
        println!();
        println!("==== {} ====", sc.name);
        println!(
            "wall {:.1} ms | profiled {:.1} ms ({:.1}% coverage) | unattributed {:.1} ms",
            sc.wall_ms,
            sc.profiled_ms,
            100.0 * sc.coverage,
            sc.unattributed_ms
        );
        if sc.scopes.is_empty() {
            println!("(no scopes recorded)");
            continue;
        }
        println!();
        // Rows arrive in depth-first canonical order; indenting the
        // leaf segment by depth draws the call tree. Hand-format with
        // a left-aligned scope column (TablePrinter right-aligns,
        // which would erase the indentation).
        let cells: Vec<(String, String, String, String)> = sc
            .scopes
            .iter()
            .map(|row| {
                let leaf = row.path.rsplit(';').next().unwrap_or(&row.path);
                let indent = "  ".repeat((row.depth.max(1) - 1) as usize);
                (
                    format!("{indent}{leaf}"),
                    row.count.to_string(),
                    format!("{:.3}", row.total_ns as f64 / 1e6),
                    format!("{:.3}", row.self_ns as f64 / 1e6),
                )
            })
            .collect();
        let w0 = cells.iter().map(|c| c.0.len()).max().unwrap_or(5).max(5);
        let w1 = cells.iter().map(|c| c.1.len()).max().unwrap_or(5).max(5);
        let w2 = cells.iter().map(|c| c.2.len()).max().unwrap_or(8).max(8);
        let w3 = cells.iter().map(|c| c.3.len()).max().unwrap_or(7).max(7);
        println!(
            "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}",
            "scope", "calls", "total ms", "self ms"
        );
        println!("{}", "-".repeat(w0 + w1 + w2 + w3 + 6));
        for (scope, calls, total, selfms) in &cells {
            println!("{scope:<w0$}  {calls:>w1$}  {total:>w2$}  {selfms:>w3$}");
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: trace_report <trace.jsonl>");
    eprintln!("       trace_report --prof <BENCH_profile.json> [--top N]");
    eprintln!("  analyse a virtual-time trace produced with --trace <path>,");
    eprintln!("  or render a wall-clock profile written by `suite --profile`");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();

    // Profile mode: --prof <file> [--top N].
    if argv.first().map(String::as_str) == Some("--prof") {
        let Some(path) = argv.get(1) else {
            return usage();
        };
        let mut top = 20usize;
        let mut i = 2;
        while i < argv.len() {
            match argv[i].as_str() {
                "--top" => {
                    let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) else {
                        return usage();
                    };
                    top = v;
                    i += 2;
                }
                _ => return usage(),
            }
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_report: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let scenarios = match Value::parse(&text).and_then(|v| parse_profile(&v)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace_report: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        prof_report(&scenarios, top);
        return ExitCode::SUCCESS;
    }

    let mut args = argv.into_iter();
    let Some(path) = args.next() else {
        return usage();
    };
    if args.next().is_some() {
        return usage();
    }

    let records = match TraceReader::read_file(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace_report: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if records.is_empty() {
        eprintln!("trace_report: {path}: no records");
        return ExitCode::from(2);
    }

    // Fleet traces interleave several vehicles' records; partition
    // them per vehicle first (id 0 = untagged single-vehicle records).
    let mut by_vehicle: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
    for rec in records {
        by_vehicle.entry(rec.vehicle).or_default().push(rec);
    }
    let fleet = by_vehicle.keys().any(|&v| v != 0);
    let groups = by_vehicle.len();
    for (gi, (vehicle, group)) in by_vehicle.into_iter().enumerate() {
        if fleet {
            if vehicle == 0 {
                println!("==== untagged records ====");
            } else {
                println!("==== vehicle v{vehicle} ====");
            }
            println!();
        }
        let missions = split_missions(group);
        let many = missions.len() > 1;
        for (i, mission) in missions.iter().enumerate() {
            if many {
                println!("==== mission {} of {} ====", i + 1, missions.len());
                println!();
            }
            let analysis = lgv_trace::TraceAnalysis::from_records(mission);
            print!("{}", analysis.render_report());
            if many && i + 1 < missions.len() {
                println!();
            }
        }
        if fleet && gi + 1 < groups {
            println!();
        }
    }
    ExitCode::SUCCESS
}
