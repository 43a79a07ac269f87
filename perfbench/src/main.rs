//! Command line for the benchmark:
//!
//! ```text
//! perfbench --workload <explore|navigate|fleet> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench --print-golden
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run's context (machine, clocks, fingerprints).
//! `--print-golden` prints `golden.txt` for the current program.
//! `--setup-rep <k>` (with `--workload` and `--seed`) times set-up
//! repetition `k` alone and prints its seconds; the end-to-end run
//! starts one such process per repetition.

use perfbench::{golden_lines, missions, run, setup_seconds, Options, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <explore|navigate|fleet> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke] | --print-golden";

/// Parsed options, and the set-up repetition to time alone, if any.
fn parse(args: &[String]) -> Result<(Options, Option<usize>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut setup_rep = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--setup-rep" => {
                setup_rep = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--setup-rep: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(missions::CANONICAL_SEED),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
        smoke,
        setup_exe: std::env::current_exe().ok(),
    };
    Ok((opts, setup_rep))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-golden") {
        println!(
            "# <workload> <mission> <MissionReport::fingerprint> at seed {}",
            missions::CANONICAL_SEED
        );
        for w in Workload::ALL {
            let out = run(&Options {
                workload: w,
                seed: missions::CANONICAL_SEED,
                seconds: 0.0,
                trace: false,
                smoke: true,
                setup_exe: None,
            });
            print!("{}", golden_lines(w, &out.fingerprints));
        }
        return ExitCode::SUCCESS;
    }
    let (opts, setup_rep) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rep) = setup_rep {
        println!("{}", setup_seconds(opts.workload, opts.seed, rep));
        return ExitCode::SUCCESS;
    }
    let out = run(&opts);
    for m in &out.metrics {
        eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.context);
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}
