//! Self-test of the benchmark: the outside stepping loop measures the
//! program unchanged, every metric `BENCHMARK.json` names is emitted
//! with its unit and a finite value, and the canonical fingerprints
//! match `golden.txt`.

use lgv_offload::mission;
use lgv_trace::Tracer;
use perfbench::missions::{self, CANONICAL_SEED};
use perfbench::stats::Timing;
use perfbench::{golden, run, Options, Outcome, Workload};

/// `(name, unit)` of every entry in the `BENCHMARK.json` array `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    let field = |entry: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        let at = entry.find(&tag).expect("field present") + tag.len();
        entry[at..]
            .split('"')
            .next()
            .expect("field closes")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: CANONICAL_SEED,
        seconds: 0.0,
        trace,
        smoke: true,
        setup_exe: Some(env!("CARGO_BIN_EXE_perfbench").into()),
    })
}

fn assert_emits(out: &Outcome, key: &str, nonzero: bool) {
    let emitted: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(emitted, declared(key), "{key} metrics and units");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(!nonzero || m.value > 0.0, "{} must never be 0", m.name);
    }
}

#[test]
fn stepping_from_outside_reproduces_mission_run() {
    let navigate = missions::navigate_configs(CANONICAL_SEED);
    for cfg in [
        missions::explore_config(CANONICAL_SEED),
        navigate[1].clone(),
    ] {
        let expected = mission::run(cfg.clone()).fingerprint();
        let mut timing = Timing::default();
        let session = missions::new_session(cfg, Tracer::disabled(), &mut timing);
        let (report, _) = missions::drive(session, &mut timing);
        assert_eq!(report.fingerprint(), expected);
        assert!(timing.calls() > 1);
    }
}

#[test]
fn end_to_end_smoke_emits_every_metric_and_matches_golden() {
    for w in Workload::ALL {
        let out = smoke(w, false);
        assert!(out.correct, "{} failed {}", w.name(), out.failed);
        assert_eq!(out.failed, 0);
        assert_eq!(out.fingerprints, golden(w), "{} fingerprints", w.name());
        assert_eq!(out.attempted as usize, out.fingerprints.len());
        assert_emits(&out, "end_to_end", true);
        let line = out.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(out.context.contains("\"prof_compiled\": "));
    }
}

#[test]
fn per_layer_smoke_emits_every_metric() {
    let out = smoke(Workload::Fleet, true);
    assert!(out.correct);
    assert_emits(&out, "per_layer", false);
    let value = |name: &str| out.metric(name).expect("emitted").value;
    assert!(value("core.run_fleet.calls") >= 1.0);
    assert!(value("sim.cloud_admit.calls") > 0.0);
    assert!(value("nav.dwa_compute.gcycles_per_call") > 0.0);
    assert_eq!(value("slam.process.calls"), 0.0);
}

#[test]
fn golden_covers_every_mission() {
    assert_eq!(
        golden(Workload::Explore).len(),
        missions::EXPLORE_MISSIONS as usize
    );
    assert_eq!(
        golden(Workload::Navigate).len(),
        2 * missions::FLOORPLANS as usize
    );
    assert_eq!(golden(Workload::Fleet).len(), missions::FLEET_SIZE);
}
