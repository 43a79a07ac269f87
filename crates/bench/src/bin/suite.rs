//! `lgv-bench suite` — the one entry point of the evaluation: run,
//! print and trace registered table/figure scenarios as seeded jobs
//! fanned out across worker threads, write the machine-readable
//! `BENCH_suite.json` artifact, and gate a run against the committed
//! baselines.
//!
//! ```text
//! suite [--threads N] [--quick] [--only NAME[,NAME...]] [--out PATH]
//!       [--profile] [--profile-out PATH] [--no-history] [--history-out PATH]
//!       [--list] [--print-output] [--trace PATH]
//! suite check-perf [--checksums-only] CURRENT.json BASELINE.json
//! suite check-recovery CURRENT.txt BASELINE.txt
//! ```
//!
//! - `--threads N` — worker threads for the fan-out (default: all
//!   cores). Results are byte-identical for every N — the integration
//!   tests assert it.
//! - `--quick` — shrink sweeps for smoke runs.
//! - `--only a,b` — run a subset of scenarios by name.
//! - `--out PATH` — where to write the JSON artifact (`-` for stdout
//!   only). Default `BENCH_suite.json` for a full run; a subset run
//!   writes no artifact unless asked.
//! - `--profile` — collect wall-clock scope profiles and write the
//!   `lgv-bench-profile/v1` artifact (default `BENCH_profile.json`).
//!   Requires the `prof` feature (on by default); exits non-zero if
//!   the profiler is compiled out.
//! - `--profile-out PATH` — where the profile artifact goes (`-` for
//!   stdout; implies `--profile`).
//! - `--no-history` — skip appending this run to the perf-history log.
//! - `--history-out PATH` — where the history log lives. Default
//!   `BENCH_history.jsonl` for a full run; a subset run appends no
//!   history unless asked.
//! - `--list` — print the registry and exit.
//! - `--print-output` — dump each scenario's captured text output
//!   after the summary table.
//! - `--trace PATH` — write the scenario's trace events to PATH as
//!   JSONL (`docs/OBSERVABILITY.md`); needs exactly one scenario, and
//!   exits non-zero if that scenario emitted no events.
//!
//! `check-perf` and `check-recovery` are the CI regression gates
//! (`lgv_bench::gate`): they compare a suite artifact, or a captured
//! chaos-fleet run, against a committed baseline and exit non-zero on
//! a regression. `--checksums-only` turns the wall-time check off.

use lgv_bench::gate::{self, Verdict};
use lgv_bench::suite::{registry, run_suite, Scenario};
use lgv_bench::TablePrinter;
use lgv_trace::JsonlSink;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: suite [--threads N] [--quick] [--only NAME,...] [--out PATH] \
                     [--profile] [--profile-out PATH] [--no-history] [--history-out PATH] \
                     [--list] [--print-output] [--trace PATH]\n       \
                     suite check-perf [--checksums-only] CURRENT.json BASELINE.json\n       \
                     suite check-recovery CURRENT.txt BASELINE.txt";

struct Args {
    threads: usize,
    quick: bool,
    only: Option<Vec<String>>,
    out: Option<String>,
    profile: bool,
    profile_out: String,
    history_out: Option<String>,
    list: bool,
    print_output: bool,
    trace: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        quick: false,
        only: None,
        out: None,
        profile: false,
        profile_out: "BENCH_profile.json".to_string(),
        history_out: None,
        list: false,
        print_output: false,
        trace: None,
    };
    let mut no_history = false;
    let mut it = argv.iter().cloned();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value {v:?}"))?;
                if args.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--only" => {
                let v = it.next().ok_or("--only needs a value")?;
                args.only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a value")?),
            "--profile" => args.profile = true,
            "--profile-out" => {
                args.profile_out = it.next().ok_or("--profile-out needs a value")?;
                args.profile = true;
            }
            "--no-history" => no_history = true,
            "--history-out" => {
                args.history_out = Some(it.next().ok_or("--history-out needs a value")?)
            }
            "--list" => args.list = true,
            "--print-output" => args.print_output = true,
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a file path")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    // A full run refreshes the canonical artifacts; a subset run writes
    // only what it is asked for.
    if args.only.is_none() {
        args.out.get_or_insert_with(|| "BENCH_suite.json".into());
        args.history_out
            .get_or_insert_with(|| "BENCH_history.jsonl".into());
    }
    if no_history {
        args.history_out = None;
    }
    Ok(args)
}

/// `suite check-perf` / `suite check-recovery`: read the current and
/// baseline files, run the gate, print its report.
fn run_gate(
    name: &str,
    files: &[String],
    check: impl Fn(&str, &str) -> Result<Verdict, String>,
) -> ExitCode {
    let [current, baseline] = files else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let verdict = read(current).and_then(|cur| check(&cur, &read(baseline)?));
    match verdict {
        Ok(v) => {
            for line in &v.lines {
                println!("{line}");
            }
            let status = if v.failed { "FAILED" } else { "OK" };
            println!("{name} gate {status} ({current} vs baseline {baseline})");
            if v.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            println!("{name} gate FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check-perf") => {
            let checksums_only = argv.get(1).is_some_and(|a| a == "--checksums-only");
            let files = &argv[1 + usize::from(checksums_only)..];
            return run_gate("perf", files, |cur, base| {
                gate::check_perf(cur, base, checksums_only)
            });
        }
        Some("check-recovery") => return run_gate("recovery", &argv[1..], gate::check_recovery),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.profile && !lgv_trace::prof::is_available() {
        eprintln!("--profile requires the `prof` feature (rebuild without --no-default-features)");
        return ExitCode::FAILURE;
    }

    let all = registry();
    if args.list {
        let mut t = TablePrinter::new(vec!["name", "seed", "cost hint", "title"]);
        for s in &all {
            t.row(vec![
                s.name.to_string(),
                s.seed.to_string(),
                s.cost_hint.to_string(),
                s.title.to_string(),
            ]);
        }
        t.print();
        return ExitCode::SUCCESS;
    }

    let scenarios: Vec<Scenario> = match &args.only {
        None => all,
        Some(names) => {
            let mut picked = Vec::new();
            for n in names {
                match all.iter().find(|s| s.name == *n) {
                    Some(s) => picked.push(*s),
                    None => {
                        eprintln!(
                            "unknown scenario {n:?}; known: {}",
                            all.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            picked
        }
    };

    let trace = match &args.trace {
        None => None,
        Some(_) if scenarios.len() != 1 => {
            eprintln!("--trace needs exactly one scenario (--only NAME)");
            return ExitCode::FAILURE;
        }
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!(
        "running {} scenario(s) on {} thread(s){}{}...",
        scenarios.len(),
        args.threads,
        if args.quick { " [quick]" } else { "" },
        if args.profile { " [profile]" } else { "" }
    );
    let report = run_suite(&scenarios, args.threads, args.quick, args.profile, trace);

    let mut t = TablePrinter::new(vec![
        "scenario",
        "seed",
        "wall ms",
        "sim time s",
        "events",
        "output B",
        "checksum",
        "status",
    ]);
    let mut failed = false;
    for r in &report.results {
        failed |= r.error.is_some();
        t.row(vec![
            r.name.clone(),
            r.seed.to_string(),
            format!("{:.1}", r.wall_ms),
            if r.events == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", r.sim_time_s)
            },
            if r.events == 0 {
                "-".to_string()
            } else {
                r.events.to_string()
            },
            r.output.len().to_string(),
            r.checksum.clone(),
            r.error.clone().unwrap_or_else(|| "ok".into()),
        ]);
    }
    t.print();
    println!(
        "total wall-clock: {:.1} ms on {} thread(s)",
        report.total_wall_ms, report.threads
    );

    if args.print_output {
        for r in &report.results {
            println!("\n===== {} =====", r.name);
            print!("{}", String::from_utf8_lossy(&r.output));
        }
    }

    if let Some(path) = &args.trace {
        // A scenario that emits nothing on the job's tracer (an
        // untraced one) leaves the file empty: fail rather than exit 0.
        if let Some(r) = report.results.iter().find(|r| r.events == 0) {
            eprintln!(
                "scenario {} emitted no events to the suite's tracer; trace file {path} is empty",
                r.name
            );
            return ExitCode::FAILURE;
        }
        println!("wrote trace {path}");
    }

    if let Some(out) = &args.out {
        let json = report.to_json();
        if out == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(out, &json) {
            eprintln!("failed to write {out}: {e}");
            return ExitCode::FAILURE;
        } else {
            println!("wrote {out}");
        }
    }

    if args.profile {
        let pjson = report.profile_json();
        if args.profile_out == "-" {
            print!("{pjson}");
        } else if let Err(e) = std::fs::write(&args.profile_out, &pjson) {
            eprintln!("failed to write {}: {e}", args.profile_out);
            return ExitCode::FAILURE;
        } else {
            println!("wrote {}", args.profile_out);
        }
    }

    if let Some(history_out) = &args.history_out {
        let line = report.history_line();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history_out)
            .and_then(|mut f| writeln!(f, "{line}"));
        match appended {
            Ok(()) => println!("appended run record to {history_out}"),
            // History is telemetry, not a gate: a read-only checkout
            // shouldn't fail the run.
            Err(e) => eprintln!("warning: could not append {history_out}: {e}"),
        }
    }

    if failed {
        eprintln!("one or more scenarios failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
