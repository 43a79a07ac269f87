//! Integration tests for the parallel evaluation harness.
//!
//! The load-bearing property: running the suite with N worker threads
//! produces **byte-identical** scenario outputs to running it with one.
//! Each scenario runs on its own virtual clock, its own seeded RNGs,
//! and its own captured output buffer, so parallelism must not be able
//! to leak into results. These tests compare the same FNV-1a checksums
//! that land in `BENCH_suite.json`.
//!
//! The full all-scenario comparison is `#[ignore]`d because debug-mode
//! missions are slow; `scripts/ci.sh` runs it in release mode
//! (`cargo test --release -p lgv-bench --test suite -- --ignored`).

use lgv_bench::suite::{
    registry, run_suite, Artifact, Scenario, HISTORY_SCHEMA, PROFILE_SCHEMA, SCHEMA,
};
use lgv_trace::json::Value;
use std::collections::BTreeSet;

/// Profiled and unprofiled suite runs share one process-wide collection
/// flag; tests that turn it on (or assert it stayed off) must not
/// overlap.
static PROF_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Scenarios cheap enough to run twice in a debug-mode test.
fn fast_scenarios() -> Vec<Scenario> {
    let fast = ["table1", "fig7", "fig10", "fig11"];
    registry()
        .into_iter()
        .filter(|s| fast.contains(&s.name))
        .collect()
}

fn assert_identical_runs(scenarios: &[Scenario], quick: bool) {
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Profile one of the two runs: wall-clock profiling must never
    // leak into scenario outputs either.
    let serial = run_suite(scenarios, 1, quick, false, None);
    let parallel = run_suite(scenarios, 4, quick, true, None);
    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.name, p.name, "result order must match registry order");
        assert_eq!(s.error, p.error, "{}: error mismatch", s.name);
        assert_eq!(
            s.checksum,
            p.checksum,
            "{}: serial and parallel outputs differ:\n--- serial ---\n{}\n--- parallel ---\n{}",
            s.name,
            String::from_utf8_lossy(&s.output),
            String::from_utf8_lossy(&p.output),
        );
        assert_eq!(s.output, p.output, "{}: checksum collision?", s.name);
        assert_eq!(s.events, p.events, "{}: trace event count differs", s.name);
        assert_eq!(
            s.sim_time_s, p.sim_time_s,
            "{}: virtual time differs",
            s.name
        );
    }
}

#[test]
fn fast_scenarios_parallel_matches_serial() {
    let scenarios = fast_scenarios();
    assert!(scenarios.len() >= 4, "fast subset shrank — update the test");
    assert_identical_runs(&scenarios, true);
}

/// The full contract over every registered scenario, in quick mode.
/// Slow in debug builds; the CI gate runs it with `--release`.
#[test]
#[ignore = "runs every scenario twice; ci.sh runs this in release mode"]
fn all_scenarios_parallel_matches_serial() {
    assert_identical_runs(&registry(), true);
}

#[test]
fn suite_json_is_valid_and_lists_every_scenario() {
    let scenarios = fast_scenarios();
    let report = run_suite(&scenarios, 2, true, false, None);
    let json = report.to_json();
    Value::parse(&json).expect("suite JSON must parse");
    assert!(json.contains("\"schema\": \"lgv-bench-suite/v3\""));
    assert!(json.contains(&format!("\"scenario_count\": {}", scenarios.len())));
    assert!(json.contains("\"total_sim_time_s\": "));
    for s in &scenarios {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", s.name)),
            "missing {}",
            s.name
        );
    }
    // fig7 and fig10 emit no trace events: the artifact must say
    // "not traced", not "zero seconds of simulation".
    for line in json.lines() {
        if line.contains("\"name\": \"fig7\"") || line.contains("\"name\": \"fig10\"") {
            assert!(
                line.contains("\"sim_time_s\": null, \"events\": null"),
                "untraced scenario should serialize null sim fields: {line}"
            );
        }
        if line.contains("\"name\": \"fig11\"") {
            assert!(
                !line.contains("null"),
                "traced scenario lost its sim-time fields: {line}"
            );
        }
    }
}

/// `--profile` must produce a parseable `lgv-bench-profile/v1`
/// artifact whose scope attribution covers the instrumented scenarios,
/// with named kernels (not unattributed residue) on top.
#[test]
fn profile_json_is_valid_and_attributes_named_kernels() {
    if !lgv_trace::prof::is_available() {
        eprintln!("prof feature compiled out; skipping");
        return;
    }
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "fig11")
        .collect();
    let report = run_suite(&scenarios, 1, true, true, None);
    assert!(report.profiled);
    let json = report.profile_json();
    Value::parse(&json).expect("profile JSON must parse");
    assert!(json.contains("\"schema\": \"lgv-bench-profile/v1\""));
    assert!(json.contains("\"name\": \"fig11\""));
    // fig11 drives the UDP channel directly (no mission engine), so
    // its profile is the channel-delivery kernel.
    assert!(
        json.contains("\"path\": \"net/channel_tick\""),
        "missing net/channel_tick in:\n{json}"
    );
    let r = &report.results[0];
    let root = r
        .profile
        .children_sorted(0)
        .into_iter()
        .find(|&n| r.profile.nodes()[n].name == "fig11")
        .expect("job root scope");
    assert!(r.profile.nodes()[root].count == 1);
    assert!(!r.profile.nodes()[root].children.is_empty());
}

/// The headline acceptance property, on the dominant scenario: with
/// profiling on, fig13's instrumented scopes account for most of its
/// wall time and the top self-time scope is a named kernel, not
/// unattributed residue. Release-only (a debug fig13 run is minutes);
/// `scripts/ci.sh` runs it via the `--ignored` release pass.
#[test]
#[ignore = "runs fig13; ci.sh runs this in release mode"]
fn profiled_fig13_covers_its_wall_time_with_named_kernels() {
    if !lgv_trace::prof::is_available() {
        eprintln!("prof feature compiled out; skipping");
        return;
    }
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "fig13")
        .collect();
    let report = run_suite(&scenarios, 1, true, true, None);
    let r = &report.results[0];
    assert!(r.error.is_none(), "{:?}", r.error);
    let root = r
        .profile
        .children_sorted(0)
        .into_iter()
        .find(|&n| r.profile.nodes()[n].name == "fig13")
        .expect("job root scope");
    let profiled_ns: u64 = r.profile.nodes()[root]
        .children
        .iter()
        .map(|&c| r.profile.nodes()[c].total_ns)
        .sum();
    let coverage = (profiled_ns as f64 / 1e6) / r.wall_ms;
    assert!(
        coverage >= 0.8,
        "profiled scopes cover {:.1}% of fig13's wall time (need >= 80%)",
        coverage * 100.0
    );
    // Top self-time scope below the root must be a named kernel.
    let (top, _) = r
        .profile
        .walk(0)
        .into_iter()
        .filter(|&(n, _)| n != root)
        .max_by_key(|&(n, _)| r.profile.self_ns(n))
        .expect("at least one scope");
    let name = &r.profile.nodes()[top].name;
    assert!(
        name.contains('/'),
        "top self-time scope {name:?} is not a subsystem/kernel name"
    );
    assert!(
        r.profile.self_ns(top) > r.profile.self_ns(root),
        "unattributed residue ({} ns) outweighs the top kernel {name:?} ({} ns)",
        r.profile.self_ns(root),
        r.profile.self_ns(top)
    );
}

/// A run without `--profile` must carry no profile data (and still
/// render a valid, explicitly-unprofiled artifact).
#[test]
fn unprofiled_run_has_empty_trees() {
    let _guard = PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenarios: Vec<Scenario> = registry()
        .into_iter()
        .filter(|s| s.name == "table1")
        .collect();
    let report = run_suite(&scenarios, 1, true, false, None);
    assert!(!report.profiled);
    assert!(report.results[0].profile.is_empty());
    let json = report.profile_json();
    Value::parse(&json).expect("even an empty profile renders valid JSON");
    assert!(json.contains("\"profiled\": false"));
    assert!(json.contains("\"coverage\": 0.0000"));
}

/// The committed artifact must stay in sync with the registry: a
/// readable artifact of the current schema whose scenario-name set is
/// exactly the registered one — no missing names and no stale ones.
#[test]
fn committed_bench_artifact_matches_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_suite.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_suite.json missing at repo root — regenerate with `suite`");
    let artifact = Artifact::parse(&text).expect("committed BENCH_suite.json must read back");
    let committed: BTreeSet<&str> = artifact.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        committed.len(),
        artifact.rows.len(),
        "duplicate scenario rows"
    );
    let registered: BTreeSet<&str> = registry().iter().map(|s| s.name).collect();
    assert_eq!(
        committed, registered,
        "BENCH_suite.json scenario set differs from the registry — regenerate with `suite`"
    );
}

/// A file at the repo root, by its repo-relative path.
fn repo_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

/// Every `lgv-bench-<name>/v<N>` tag mentioned in `text`.
fn schema_tags(text: &str) -> BTreeSet<String> {
    text.split("lgv-bench-")
        .skip(1)
        .filter_map(|rest| {
            let name = rest.find(|c: char| !c.is_ascii_lowercase())?;
            let version = rest[name..].strip_prefix("/v")?;
            let digits = version
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(version.len());
            (name > 0 && digits > 0)
                .then(|| format!("lgv-bench-{}/v{}", &rest[..name], &version[..digits]))
        })
        .collect()
}

/// The artifact schema tags the suite emits are exactly the ones
/// `docs/CI.md` documents, and `suite.rs` mentions no other (a stale
/// tag in a doc comment counts as drift too).
#[test]
fn artifact_schema_tags_match_docs_ci() {
    let emitted: BTreeSet<String> = [SCHEMA, PROFILE_SCHEMA, HISTORY_SCHEMA]
        .map(String::from)
        .into();
    assert_eq!(
        schema_tags(&repo_file("crates/bench/src/suite.rs")),
        emitted,
        "crates/bench/src/suite.rs mentions a tag it does not emit"
    );
    assert_eq!(
        schema_tags(&repo_file("docs/CI.md")),
        emitted,
        "docs/CI.md documents different artifact schema tags than suite.rs emits"
    );
}

/// The cross-linked doc set exists and the README links into it.
#[test]
fn cross_linked_docs_exist() {
    for doc in [
        "docs/ARCHITECTURE.md",
        "docs/FLEET.md",
        "docs/OBSERVABILITY.md",
        "docs/RESILIENCE.md",
        "docs/POLICY.md",
        "docs/CI.md",
    ] {
        repo_file(doc);
    }
    assert!(
        repo_file("README.md").contains("docs/ARCHITECTURE.md"),
        "README.md does not link docs/ARCHITECTURE.md"
    );
}

/// Three lists name the same shims: the directories under
/// `crates/shims/`, the rows of the table in `crates/shims/README.md`
/// and the root `[workspace.dependencies]` paths into `crates/shims/`.
#[test]
fn shim_set_matches_readme_and_workspace_dependencies() {
    let shims = format!("{}/../shims", env!("CARGO_MANIFEST_DIR"));
    let dirs: BTreeSet<String> = std::fs::read_dir(&shims)
        .unwrap_or_else(|e| panic!("cannot list {shims}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    // Rows read "| `name` | replaces | provides |".
    let table: BTreeSet<String> = repo_file("crates/shims/README.md")
        .lines()
        .filter_map(|line| Some(line.strip_prefix("| `")?.split_once('`')?.0.to_string()))
        .collect();
    let manifest = repo_file("Cargo.toml");
    let deps = manifest
        .split_once("[workspace.dependencies]")
        .expect("root Cargo.toml has [workspace.dependencies]")
        .1;
    let deps = deps.split("\n[").next().unwrap();
    let declared: BTreeSet<String> = deps
        .lines()
        .filter_map(|line| {
            let path = line.split_once("path = \"crates/shims/")?.1;
            Some(path.split_once('"')?.0.to_string())
        })
        .collect();
    assert!(!dirs.is_empty(), "no shims found under {shims}");
    assert_eq!(table, dirs, "crates/shims/README.md table vs crates/shims/");
    assert_eq!(
        declared, dirs,
        "root [workspace.dependencies] vs crates/shims/"
    );
}

/// Settable tuning values: the `pub` fields of every `pub struct
/// *Config` under `crates/*/src`. A value with one setting in use is a
/// constant beside the code that reads it, not a field; adding a knob
/// means raising this ceiling in the same change.
const CONFIG_FIELD_CEILING: usize = 81;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Fields of each `pub struct *Config { .. }` in `text`, by name.
fn config_fields(text: &str) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(name) = line
            .strip_prefix("pub struct ")
            .and_then(|rest| rest.strip_suffix(" {"))
            .filter(|name| name.ends_with("Config"))
        else {
            continue;
        };
        let fields = lines
            .by_ref()
            .take_while(|l| *l != "}")
            .filter(|l| l.starts_with("    pub "))
            .count();
        found.push((name.to_string(), fields));
    }
    found
}

#[test]
fn config_fields_stay_under_the_ceiling() {
    let crates = format!("{}/..", env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap_or_else(|e| panic!("cannot list {crates}: {e}"))
    {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut structs = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
        structs.extend(config_fields(&text));
    }
    let total: usize = structs.iter().map(|(_, n)| n).sum();
    assert!(
        structs.iter().any(|(name, _)| name == "MissionConfig"),
        "the scan found no MissionConfig: {structs:?}"
    );
    assert!(
        total <= CONFIG_FIELD_CEILING,
        "{total} config fields exceed the ceiling of {CONFIG_FIELD_CEILING}: make a value \
         only its Default sets a constant, or raise the ceiling on purpose ({structs:?})"
    );
}

/// `suite --trace`: the JSONL sink rides on the job's own tracer, so
/// the file holds exactly the events the artifact counts.
fn assert_trace_matches_artifact(name: &str) {
    let scenarios: Vec<Scenario> = registry().into_iter().filter(|s| s.name == name).collect();
    let path = std::env::temp_dir().join(format!(
        "lgv-suite-trace-{name}-{}.jsonl",
        std::process::id()
    ));
    let sink = lgv_trace::JsonlSink::create(&path).expect("temp trace file");
    let report = run_suite(&scenarios, 1, true, false, Some(sink));
    let records = lgv_trace::TraceReader::read_file(&path).expect("trace reads back");
    let _ = std::fs::remove_file(&path);
    assert!(report.results[0].events > 0, "{name} traced nothing");
    assert_eq!(records.len() as u64, report.results[0].events, "{name}");
}

#[test]
fn traced_job_writes_its_event_stream() {
    assert_trace_matches_artifact("fig11");
}

/// chaos folds a live `TraceAnalysis` per mission; that sink rides on
/// the job's tracer too, so the counting and JSONL sinks see the same
/// missions.
#[test]
fn traced_chaos_writes_its_event_stream() {
    assert_trace_matches_artifact("chaos");
}

/// `suite --trace` on a scenario that emits no events on the job's
/// tracer fails and names it, instead of exiting 0 beside an empty
/// file.
#[test]
fn trace_of_an_untraced_scenario_is_an_error() {
    let path = std::env::temp_dir().join(format!("lgv-suite-empty-{}.jsonl", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--quick", "--threads", "1", "--only", "table1", "--trace"])
        .arg(&path)
        .output()
        .expect("suite runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success(), "empty trace exited 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("table1 emitted no events"), "{err}");
}
