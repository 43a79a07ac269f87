//! Parallel evaluation harness over every table/figure scenario.
//!
//! Every table and figure of the paper's evaluation (§V, Tables I–III,
//! Figs. 7–14) plus the repo's own extension studies (ablations,
//! sweep, chaos) is registered here as a named, seeded job (see
//! [`registry`]). The `lgv-bench suite` binary fans the jobs out
//! across worker threads — reusing the fork-join
//! [`ParallelExecutor`] the parallel gmapping algorithm uses for its
//! particles — captures each scenario's text output in memory, and
//! emits a machine-readable `BENCH_suite.json` with per-job wall-clock
//! and virtual-time accounting. [`Artifact`] reads that file back for
//! the perf gate ([`crate::gate`]) and the freshness test.
//!
//! Because each scenario runs on its own virtual clock, its own RNG
//! seeds, and its own captured output buffer, running the suite with
//! `--threads 8` must produce **byte-identical** scenario outputs to
//! `--threads 1`. The integration tests assert this with the same
//! FNV-1a output checksums that land in the JSON artifact; CI fails if
//! parallelism ever leaks into scenario results.
//!
//! JSON schema (`lgv-bench-suite/v3`, one object per file). `v2` added
//! the run-level accounting fields `scenario_count` (number of jobs in
//! the artifact) and `total_sim_time_s` (summed virtual time across
//! all scenarios) next to the worker-thread count and total wall time;
//! `v3` serializes `sim_time_s`/`events` as `null` for scenarios that
//! emit no trace events (they used to read `0.000`/`0`, implying a
//! measured zero rather than "not traced"):
//!
//! ```json
//! {
//!   "schema": "lgv-bench-suite/v3",
//!   "threads": 4,
//!   "quick": false,
//!   "scenario_count": 13,
//!   "total_wall_ms": 1234.5,
//!   "total_sim_time_s": 5678.9,
//!   "scenarios": [
//!     {
//!       "name": "fig9",
//!       "seed": 11,
//!       "wall_ms": 210.7,
//!       "sim_time_s": null,
//!       "events": null,
//!       "output_bytes": 4211,
//!       "checksum": "fnv1a:cbf29ce484222325"
//!     }
//!   ]
//! }
//! ```
//!
//! With `--profile`, the suite additionally collects each job's
//! wall-clock scope tree (`lgv_trace::prof`) and renders it as a
//! `BENCH_profile.json` (schema `lgv-bench-profile/v1`) via
//! [`SuiteReport::profile_json`] — per-scenario self-time attribution
//! over the instrumented kernels, the substrate of the "make fig13
//! fast" work.
//!
//! See `docs/CI.md` for how the gate consumes these files.

use lgv_slam::pool::ParallelExecutor;
use lgv_trace::json::{write_escaped, Value};
use lgv_trace::prof::{self, ProfileTree};
use lgv_trace::{JsonlSink, TraceRecord, TraceSink, Tracer};
use lgv_types::fnv1a;
use std::io::{self, Write};
use std::sync::Mutex;

/// Schema tag of the `BENCH_suite.json` artifact.
pub const SCHEMA: &str = "lgv-bench-suite/v3";

/// Schema tag of the `BENCH_profile.json` artifact.
pub const PROFILE_SCHEMA: &str = "lgv-bench-profile/v1";

/// Schema tag of each `BENCH_history.jsonl` line.
pub const HISTORY_SCHEMA: &str = "lgv-bench-history/v1";

/// Everything a scenario needs to run: an output writer (captured and
/// checksummed by the suite), the quick flag, the scenario's base RNG
/// seed, and a tracer whose events are tallied into the JSON artifact.
pub struct ScenarioCtx<'a> {
    /// Where the scenario's human-readable output goes.
    pub out: &'a mut dyn Write,
    /// Shrink sweeps for smoke runs (`suite --quick`).
    pub quick: bool,
    /// Base RNG seed for the scenario's top-level randomness.
    pub seed: u64,
    /// Tracer for virtual-time event accounting: the suite attaches a
    /// counting sink, plus a JSONL file sink under `suite --trace`.
    pub tracer: Tracer,
}

/// A registered table/figure job.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Unique job name (what `suite --only` selects).
    pub name: &'static str,
    /// One-line description of what the scenario reproduces.
    pub title: &'static str,
    /// Canonical base seed (forwarded as [`ScenarioCtx::seed`]).
    pub seed: u64,
    /// Relative cost hint for load balancing (bigger = slower).
    pub cost_hint: u32,
    /// Entry point.
    pub run: fn(&mut ScenarioCtx) -> io::Result<()>,
}

/// All registered scenarios, in artifact order.
pub fn registry() -> Vec<Scenario> {
    use crate::scenarios::*;
    vec![
        Scenario {
            name: "table1",
            title: "Tables I & III: component power and platform specs",
            seed: 0,
            cost_hint: 1,
            run: table1::run,
        },
        Scenario {
            name: "table2",
            title: "Table II: per-node cycle breakdown (Gcycles/s)",
            seed: 42,
            cost_hint: 30,
            run: table2::run,
        },
        Scenario {
            name: "fig7",
            title: "Figure 7: UDP packet walk under an unstable link",
            seed: 1,
            cost_hint: 1,
            run: fig7::run,
        },
        Scenario {
            name: "fig9",
            title: "Figure 9: SLAM processing time vs threads x particles",
            seed: 11,
            cost_hint: 25,
            run: fig9::run,
        },
        Scenario {
            name: "fig10",
            title: "Figure 10: VDP processing time vs threads x samples",
            seed: 5,
            cost_hint: 2,
            run: fig10::run,
        },
        Scenario {
            name: "fig11",
            title: "Figure 11: UDP latency/bandwidth on the A-C-A drive",
            seed: 3,
            cost_hint: 2,
            run: fig11::run,
        },
        Scenario {
            name: "fig12",
            title: "Figure 12: max velocity under five deployments",
            seed: 42,
            cost_hint: 40,
            run: fig12::run,
        },
        Scenario {
            name: "fig13",
            title: "Figure 13: energy and mission time per deployment",
            seed: 42,
            cost_hint: 100,
            run: fig13::run,
        },
        Scenario {
            name: "fig14",
            title: "Figure 14: max vs real velocity across path phases",
            seed: 42,
            cost_hint: 40,
            run: fig14::run,
        },
        Scenario {
            name: "ablations",
            title: "Ablations of the paper's optimization strategies",
            seed: 42,
            cost_hint: 60,
            run: ablations::run,
        },
        Scenario {
            name: "sweep",
            title: "Deployment sweep over procedural floorplans",
            seed: 1,
            cost_hint: 90,
            run: sweep::run,
        },
        Scenario {
            name: "chaos",
            title: "Chaos sweep: randomized fault schedules + crash showcase",
            seed: 0,
            cost_hint: 50,
            run: chaos::run,
        },
        Scenario {
            name: "fleet",
            title: "Fleet sweep: shared cloud + shared spectrum, 1..1024 vehicles",
            seed: 7,
            cost_hint: 500,
            run: fleet::run,
        },
        Scenario {
            name: "elastic-fleet",
            title: "Elastic cloud ablation: fixed vs. autoscale vs. autoscale+batching",
            seed: 7,
            cost_hint: 90,
            run: elastic_fleet::run,
        },
        Scenario {
            name: "chaos-fleet",
            title: "Chaos-fleet: recovery SLOs under crash, blackout, and cloud chaos",
            seed: 13,
            cost_hint: 120,
            run: chaos_fleet::run,
        },
        Scenario {
            name: "policy",
            title: "Policy race: Algorithm 1 vs global placement vs contextual bandit",
            seed: 21,
            cost_hint: 80,
            run: policy::run,
        },
    ]
}

/// Counts records and tracks the largest virtual timestamp — the
/// cheapest possible sink, used for the JSON accounting fields.
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
    max_t_ns: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.events += 1;
        self.max_t_ns = self.max_t_ns.max(rec.t_ns);
    }
}

/// One completed job, with its captured output.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Scenario name.
    pub name: String,
    /// Seed the job ran with.
    pub seed: u64,
    /// Wall-clock duration of the job (host time, milliseconds).
    pub wall_ms: f64,
    /// Largest virtual timestamp the scenario's tracer saw (seconds).
    pub sim_time_s: f64,
    /// Trace events emitted on the scenario's virtual clock.
    pub events: u64,
    /// The captured scenario output (what `suite --print-output`
    /// prints).
    pub output: Vec<u8>,
    /// `fnv1a:<16 hex digits>` over `output`.
    pub checksum: String,
    /// Error message if the scenario failed.
    pub error: Option<String>,
    /// Wall-clock scope tree harvested from the job's thread (empty
    /// unless the suite ran with profiling on).
    pub profile: ProfileTree,
}

/// Results of one full suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Worker thread count the fan-out used.
    pub threads: usize,
    /// Whether quick mode was on.
    pub quick: bool,
    /// Whether wall-clock profiling was collecting during the run.
    pub profiled: bool,
    /// End-to-end wall-clock of the fan-out (milliseconds).
    pub total_wall_ms: f64,
    /// Per-job results, in [`registry`] order.
    pub results: Vec<JobResult>,
}

fn run_job(scenario: &Scenario, quick: bool, trace: Option<JsonlSink>) -> JobResult {
    let mut output: Vec<u8> = Vec::with_capacity(4096);
    let tracer = Tracer::enabled();
    let counter = tracer.attach(CountingSink::default());
    if let Some(sink) = trace {
        tracer.attach(sink);
    }
    // Drop any profile residue from a previous job on this worker, and
    // root this job's scopes under a node named after the scenario (a
    // no-op unless profiling is collecting).
    let _ = prof::take_thread();
    let prof_root = prof::scope(scenario.name);
    let start = std::time::Instant::now();
    let err = {
        let mut ctx = ScenarioCtx {
            out: &mut output,
            quick,
            seed: scenario.seed,
            tracer,
        };
        let err = (scenario.run)(&mut ctx).err();
        ctx.tracer.flush();
        err
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(prof_root);
    let profile = prof::take_thread();
    let (events, max_t_ns) = {
        let c = counter.lock().expect("counting sink poisoned");
        (c.events, c.max_t_ns)
    };
    JobResult {
        name: scenario.name.to_string(),
        seed: scenario.seed,
        wall_ms,
        sim_time_s: max_t_ns as f64 / 1e9,
        events,
        checksum: format!("fnv1a:{:016x}", fnv1a(&output)),
        output,
        error: err.map(|e| e.to_string()),
        profile,
    }
}

/// Run `scenarios` across `threads` workers and collect results in the
/// given order.
///
/// Jobs are partitioned into one bucket per worker with a greedy
/// longest-processing-time heuristic over [`Scenario::cost_hint`],
/// then the buckets are executed fork-join style by the same
/// [`ParallelExecutor`] the parallel gmapping algorithm uses — one
/// bucket per chunk, the calling thread and the workers each draining
/// the buckets they claim serially.
///
/// With `profile` on (and the `prof` feature compiled in), wall-clock
/// scope collection is enabled for the duration of the run and each
/// job's scope tree lands in [`JobResult::profile`]. Profiling cannot
/// change scenario outputs — the determinism tests run with it both on
/// and off.
///
/// `trace` attaches a JSONL sink to the job's tracer; it needs exactly
/// one scenario, so the file holds one job's stream.
pub fn run_suite(
    scenarios: &[Scenario],
    threads: usize,
    quick: bool,
    profile: bool,
    trace: Option<JsonlSink>,
) -> SuiteReport {
    assert!(
        trace.is_none() || scenarios.len() == 1,
        "a trace file needs exactly one scenario"
    );
    let trace = Mutex::new(trace);
    let threads = threads.max(1);
    let profiled = profile && prof::is_available();
    if profiled {
        prof::set_enabled(true);
    }
    let start = std::time::Instant::now();

    // Greedy LPT partition: heaviest job first into the lightest bucket.
    let n = threads.min(scenarios.len()).max(1);
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(scenarios[i].cost_hint));
    let mut buckets: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); n];
    for i in order {
        let lightest = buckets
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one bucket");
        lightest.0 += scenarios[i].cost_hint as u64;
        lightest.1.push(i);
    }
    let mut work: Vec<Vec<usize>> = buckets.into_iter().map(|(_, jobs)| jobs).collect();

    // Fork-join over the buckets: `n` items at degree `n` are `n`
    // one-bucket chunks.
    let executor = ParallelExecutor::new(n);
    let per_bucket: Vec<Vec<(usize, JobResult)>> = executor.run_chunks(&mut work, |chunk| {
        let mut done = Vec::new();
        for bucket in chunk.iter() {
            for &i in bucket {
                let sink = trace.lock().expect("trace sink poisoned").take();
                done.push((i, run_job(&scenarios[i], quick, sink)));
            }
        }
        done
    });

    let mut slots: Vec<Option<JobResult>> = vec![None; scenarios.len()];
    for (i, r) in per_bucket.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if profiled {
        prof::set_enabled(false);
        // Discard the residue the fan-out harvest grafted onto this
        // thread (jobs drain their own trees; only scraps remain).
        let _ = prof::take_thread();
    }
    SuiteReport {
        threads,
        quick,
        profiled,
        total_wall_ms,
        results: slots
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect(),
    }
}

/// Append the artifact field `"key": "<value>"`, value JSON-escaped.
fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push_str(&format!("\"{key}\": \""));
    write_escaped(s, value);
    s.push('"');
}

impl SuiteReport {
    /// Summed virtual time across all scenarios (seconds) — how much
    /// simulation the suite covered, independent of host speed.
    pub fn total_sim_time_s(&self) -> f64 {
        self.results.iter().map(|r| r.sim_time_s).sum()
    }

    /// Render the machine-readable `BENCH_suite.json` artifact
    /// (schema `lgv-bench-suite/v3`). Scenarios that emitted no trace
    /// events report `sim_time_s`/`events` as `null` — "not traced",
    /// not "measured zero".
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"scenario_count\": {},\n", self.results.len()));
        s.push_str(&format!(
            "  \"total_wall_ms\": {:.3},\n",
            self.total_wall_ms
        ));
        s.push_str(&format!(
            "  \"total_sim_time_s\": {:.3},\n",
            self.total_sim_time_s()
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str("    {");
            push_str_field(&mut s, "name", &r.name);
            s.push_str(", ");
            s.push_str(&format!("\"seed\": {}, ", r.seed));
            s.push_str(&format!("\"wall_ms\": {:.3}, ", r.wall_ms));
            if r.events == 0 {
                s.push_str("\"sim_time_s\": null, ");
                s.push_str("\"events\": null, ");
            } else {
                s.push_str(&format!("\"sim_time_s\": {:.3}, ", r.sim_time_s));
                s.push_str(&format!("\"events\": {}, ", r.events));
            }
            s.push_str(&format!("\"output_bytes\": {}, ", r.output.len()));
            push_str_field(&mut s, "checksum", &r.checksum);
            if let Some(e) = &r.error {
                s.push_str(", ");
                push_str_field(&mut s, "error", e);
            }
            s.push('}');
            s.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Render the `BENCH_profile.json` artifact (schema
    /// `lgv-bench-profile/v1`): per-scenario wall-clock attribution
    /// over the instrumented scopes.
    ///
    /// Per scenario: `wall_ms` is the job's measured wall time,
    /// `profiled_ms` the summed totals of its top-level scopes,
    /// `coverage` their ratio, and `unattributed_ms` the remainder
    /// (scenario code outside any named scope). Each scope row carries
    /// its call path **relative to the scenario root** plus exact
    /// nanosecond aggregates, so a flamegraph's folded input is
    /// reconstructible from the artifact (`path self_ns` per row —
    /// see `trace_report --prof`). Scope rows are in canonical
    /// depth-first name-sorted order; values are host wall-clock and
    /// machine-dependent by nature.
    pub fn profile_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{PROFILE_SCHEMA}\",\n"));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"profiled\": {},\n", self.profiled));
        s.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            // The job's scopes hang under a root node named after the
            // scenario (created by the suite harness itself).
            let root = r
                .profile
                .children_sorted(0)
                .into_iter()
                .find(|&n| r.profile.nodes()[n].name == r.name);
            let profiled_ns: u64 = root.map_or(0, |n| {
                r.profile.nodes()[n]
                    .children
                    .iter()
                    .map(|&c| r.profile.nodes()[c].total_ns)
                    .sum()
            });
            let unattributed_ns = root.map_or(0, |n| r.profile.self_ns(n));
            let coverage = if r.wall_ms > 0.0 {
                (profiled_ns as f64 / 1e6) / r.wall_ms
            } else {
                0.0
            };
            s.push_str("    {\n");
            s.push_str("      ");
            push_str_field(&mut s, "name", &r.name);
            s.push_str(",\n");
            s.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall_ms));
            s.push_str(&format!(
                "      \"profiled_ms\": {:.3},\n",
                profiled_ns as f64 / 1e6
            ));
            s.push_str(&format!(
                "      \"unattributed_ms\": {:.3},\n",
                unattributed_ns as f64 / 1e6
            ));
            s.push_str(&format!("      \"coverage\": {coverage:.4},\n"));
            s.push_str("      \"scopes\": [\n");
            let rows = root.map_or_else(Vec::new, |root| r.profile.walk(root));
            for (j, &(n, depth)) in rows.iter().enumerate() {
                let node = &r.profile.nodes()[n];
                // Path relative to the scenario root: strip the
                // leading "<scenario>;".
                let full = r.profile.path(n);
                let rel = full.split_once(';').map_or(full.as_str(), |(_, p)| p);
                s.push_str("        {");
                push_str_field(&mut s, "path", &rel.replace(' ', "_"));
                s.push_str(", ");
                s.push_str(&format!("\"depth\": {depth}, "));
                s.push_str(&format!("\"count\": {}, ", node.count));
                s.push_str(&format!("\"total_ns\": {}, ", node.total_ns));
                s.push_str(&format!("\"self_ns\": {}, ", r.profile.self_ns(n)));
                s.push_str(&format!("\"min_ns\": {}, ", node.min_ns));
                s.push_str(&format!("\"max_ns\": {}", node.max_ns));
                s.push('}');
                s.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ]\n");
            s.push_str("    }");
            s.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// One compact perf-history record (schema `lgv-bench-history/v1`)
    /// — a single JSONL line the `suite` binary appends to
    /// `BENCH_history.jsonl` after every run, so wall-time trends are
    /// queryable across commits without re-running anything.
    pub fn history_line(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!("{{\"schema\": \"{HISTORY_SCHEMA}\", "));
        s.push_str(&format!("\"threads\": {}, ", self.threads));
        s.push_str(&format!("\"quick\": {}, ", self.quick));
        s.push_str(&format!("\"profiled\": {}, ", self.profiled));
        s.push_str(&format!("\"total_wall_ms\": {:.3}, ", self.total_wall_ms));
        s.push_str("\"scenarios\": [");
        for (i, r) in self.results.iter().enumerate() {
            s.push('{');
            push_str_field(&mut s, "name", &r.name);
            s.push_str(&format!(", \"wall_ms\": {:.3}, ", r.wall_ms));
            push_str_field(&mut s, "checksum", &r.checksum);
            s.push('}');
            if i + 1 < self.results.len() {
                s.push_str(", ");
            }
        }
        s.push_str("]}");
        s
    }
}

/// One scenario row of a suite artifact, as [`Artifact::parse`] reads
/// it back.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRow {
    /// Scenario name.
    pub name: String,
    /// Wall-clock duration of the job (milliseconds).
    pub wall_ms: f64,
    /// `fnv1a:<16 hex digits>` over the scenario's output.
    pub checksum: String,
}

/// A `BENCH_suite.json` artifact read back through
/// [`lgv_trace::json`]: the fields of [`SuiteReport::to_json`] that the
/// perf gate and the freshness test compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Whether the run was in quick mode.
    pub quick: bool,
    /// One row per scenario, in artifact order.
    pub rows: Vec<ArtifactRow>,
}

impl Artifact {
    /// Parse artifact text; anything but a well-formed [`SCHEMA`]
    /// document is an error.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let v = Value::parse(text)?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} artifact (schema {schema:?})"));
        }
        let rows = v
            .get("scenarios")
            .map(Value::items)
            .unwrap_or(&[])
            .iter()
            .map(|sc| {
                let text = |key: &str| {
                    sc.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("scenario row without a string `{key}`"))
                };
                Ok(ArtifactRow {
                    name: text("name")?,
                    wall_ms: sc
                        .get("wall_ms")
                        .and_then(Value::as_f64)
                        .ok_or("scenario row without a numeric `wall_ms`")?,
                    checksum: text("checksum")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Artifact {
            quick: v.get("quick") == Some(&Value::Bool(true)),
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let reg = registry();
        assert!(!reg.is_empty());
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
    }

    #[test]
    fn json_escaping_handles_specials() {
        let json_escape = |v: &str| {
            let mut out = String::new();
            write_escaped(&mut out, v);
            out
        };
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let mut field = String::new();
        push_str_field(&mut field, "name", "a\"b");
        assert_eq!(field, "\"name\": \"a\\\"b\"");
    }

    fn job(name: &str, events: u64, sim_time_s: f64) -> JobResult {
        JobResult {
            name: name.into(),
            seed: 7,
            wall_ms: 1.0,
            sim_time_s,
            events,
            output: b"hello".to_vec(),
            checksum: format!("fnv1a:{:016x}", fnv1a(b"hello")),
            error: None,
            profile: ProfileTree::new(),
        }
    }

    #[test]
    fn report_json_is_balanced_and_tagged() {
        let report = SuiteReport {
            threads: 2,
            quick: true,
            profiled: false,
            total_wall_ms: 1.5,
            results: vec![job("x", 0, 0.0)],
        };
        let j = report.to_json();
        assert!(j.contains("\"schema\": \"lgv-bench-suite/v3\""));
        assert!(j.contains("\"scenario_count\": 1"));
        assert!(j.contains("\"total_sim_time_s\": 0.000"));
        assert!(j.contains("\"name\": \"x\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn untraced_scenarios_serialize_null_sim_fields() {
        let report = SuiteReport {
            threads: 1,
            quick: true,
            profiled: false,
            total_wall_ms: 2.0,
            results: vec![job("untraced", 0, 0.0), job("traced", 12, 3.5)],
        };
        let j = report.to_json();
        assert!(j.contains("\"name\": \"untraced\", \"seed\": 7, \"wall_ms\": 1.000, \"sim_time_s\": null, \"events\": null,"));
        assert!(j.contains("\"name\": \"traced\", \"seed\": 7, \"wall_ms\": 1.000, \"sim_time_s\": 3.500, \"events\": 12,"));
        // The run-level sum only counts traced scenarios (untraced
        // contribute 0 by construction).
        assert!(j.contains("\"total_sim_time_s\": 3.500"));
    }

    #[test]
    fn profile_json_attributes_scopes_below_the_scenario_root() {
        // Hand-build a job tree: root -> "x" -> {kernel_a, kernel_a;sub, kernel_b}.
        let folded = "x 200\nx;kernel_a 500\nx;kernel_a;sub 300\nx;kernel_b 100\n";
        let tree = ProfileTree::from_folded(folded).expect("valid folded");
        let mut r = job("x", 0, 0.0);
        r.wall_ms = 0.0012; // 1200 ns measured: 900 ns profiled + residue
        r.profile = tree;
        let report = SuiteReport {
            threads: 1,
            quick: false,
            profiled: true,
            total_wall_ms: 1.0,
            results: vec![r],
        };
        let j = report.profile_json();
        assert!(j.contains("\"schema\": \"lgv-bench-profile/v1\""));
        // profiled = kernel_a (800 total) + kernel_b (100) = 900 ns;
        // unattributed = x's self time, 200 ns.
        assert!(j.contains("\"profiled_ms\": 0.001"), "{j}");
        assert!(j.contains("\"unattributed_ms\": 0.000"), "{j}");
        // Paths are relative to the scenario root, canonical order.
        let a = j.find("\"path\": \"kernel_a\", \"depth\": 1").unwrap();
        let sub = j.find("\"path\": \"kernel_a;sub\", \"depth\": 2").unwrap();
        let b = j.find("\"path\": \"kernel_b\", \"depth\": 1").unwrap();
        assert!(a < sub && sub < b);
        assert!(j.contains("\"total_ns\": 800, \"self_ns\": 500"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn round_trips_a_real_suite_report() {
        let report = SuiteReport {
            threads: 2,
            quick: true,
            profiled: false,
            total_wall_ms: 5.0,
            results: vec![job("x", 0, 0.0), job("y", 3, 1.0)],
        };
        let json = report.to_json();
        let artifact = Artifact::parse(&json).expect("suite JSON reads back");
        assert!(artifact.quick);
        let names: Vec<&str> = artifact.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(artifact.rows[0].wall_ms, 1.0);
        assert_eq!(artifact.rows[0].checksum, report.results[0].checksum);
        let v = Value::parse(&json).unwrap();
        let sc = &v.get("scenarios").unwrap().items()[0];
        assert_eq!(sc.get("sim_time_s"), Some(&Value::Null));
        assert_eq!(sc.get("events"), Some(&Value::Null));
        let hv = Value::parse(&report.history_line()).expect("history line parses");
        assert_eq!(
            hv.get("schema").and_then(Value::as_str),
            Some("lgv-bench-history/v1")
        );
        let pv = Value::parse(&report.profile_json()).expect("profile JSON parses");
        assert_eq!(
            pv.get("schema").and_then(Value::as_str),
            Some("lgv-bench-profile/v1")
        );
        // Another schema is not a suite artifact.
        assert!(Artifact::parse(&report.history_line()).is_err());
    }

    #[test]
    fn history_line_is_one_compact_record() {
        let report = SuiteReport {
            threads: 4,
            quick: true,
            profiled: false,
            total_wall_ms: 9.5,
            results: vec![job("x", 0, 0.0), job("y", 3, 1.0)],
        };
        let line = report.history_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"schema\": \"lgv-bench-history/v1\""));
        assert!(line.contains("\"name\": \"x\""));
        assert!(line.contains("\"name\": \"y\""));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
