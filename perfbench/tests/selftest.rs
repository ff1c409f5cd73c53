//! Self-test of the benchmark at a tiny size: outcomes are checked and
//! exact, both passes report exactly the metrics `BENCHMARK.json` lists,
//! and the failure count is not blind.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

use crossroads_metrics::{parse_json, JsonValue};
use crossroads_perfbench::traced::replay_decisions;
use crossroads_perfbench::workload::Case;
use crossroads_perfbench::{setup, timed_pass, traced_pass, Fingerprint, Scale, Workload};
use crossroads_trace::{Recorder, TraceEvent};
use crossroads_units::Seconds;

const SEEDS: [u64; 2] = [11, 42];

/// Fingerprints and total failures of one untraced pass over `workload`.
fn outcomes(workload: Workload, seed: u64) -> (Vec<Fingerprint>, usize) {
    let mut failures = 0;
    let fingerprints = setup(workload, seed, Scale::TINY)
        .iter()
        .map(|run| {
            let out = run.simulate();
            failures += out.failures();
            out.fingerprint()
        })
        .collect();
    (fingerprints, failures)
}

#[test]
fn digests_repeat_within_a_seed_and_differ_across_seeds() {
    for workload in Workload::ALL {
        let [a, b] = SEEDS.map(|seed| outcomes(workload, seed));
        assert_eq!(
            a,
            outcomes(workload, SEEDS[0]),
            "{workload}: same seed differs"
        );
        assert_eq!(b.1, 0, "{workload}: failures at seed {}", SEEDS[1]);
        assert_eq!(a.1, 0, "{workload}: failures at seed {}", SEEDS[0]);
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_ne!(x.digest, y.digest, "{workload}: seeds give the same run");
        }
    }
}

#[test]
fn stranded_vehicles_count_as_failures() {
    let mut run = setup(Workload::SingleAdverse, SEEDS[0], Scale::TINY)
        .into_iter()
        .next()
        .expect("one run");
    // Cut the run off one second after the last arrival: vehicles still
    // approaching the box are stranded.
    let Case::Single(config) = &mut run.plan.case else {
        panic!("single_adverse runs one intersection");
    };
    config.horizon_slack = Seconds::new(1.0);
    let out = run.simulate();
    assert!(out.failures() > 0, "a truncated run must report failures");
}

/// The decision replay builds its policies by hand, as the simulator
/// does privately. Its first decision in every call must give the
/// program's own first verdict, and it must replay every leg the
/// program decided, at every intersection of a corridor.
#[test]
fn decision_replay_follows_the_program() {
    let mut kinds = BTreeSet::new();
    for workload in Workload::ALL {
        for run in setup(workload, SEEDS[0], Scale::TINY) {
            let mut recorder = Recorder::fixed(1 << 20);
            let out = run.simulate_traced(&mut recorder);
            assert_eq!(recorder.dropped(), 0);
            let trace = recorder.into_trace();
            let mut decided = HashSet::new();
            let mut first = None;
            for r in &trace.records {
                if let TraceEvent::DecisionExit { verdict, .. } = r.event {
                    decided.insert((r.vehicle, r.im));
                    first.get_or_insert(verdict);
                }
            }
            let replay = replay_decisions(&run, &out, &trace);
            let label = &run.plan.label;
            assert_eq!(replay.first_verdict, first, "{workload} {label}");
            assert_eq!(replay.ns.len(), decided.len(), "{workload} {label}");
            kinds.insert(format!("{}", run.plan.sim().policy));
        }
    }
    assert_eq!(kinds.len(), 3, "every policy kind replayed: {kinds:?}");
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn passes_report_exactly_the_listed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = listed_names(&spec);
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let end_to_end = listed(&spec, "end_to_end");
    let per_layer = listed(&spec, "per_layer");

    for workload in Workload::ALL {
        let timed = timed_pass(workload, SEEDS[0], Scale::TINY, Duration::ZERO);
        let (traced, spans) = traced_pass(workload, SEEDS[0], Scale::TINY, Duration::ZERO);
        for (result, list) in [(&timed, &end_to_end), (&traced, &per_layer)] {
            assert!(result.correct, "{workload}: {}", result.to_json());
            assert_eq!(result.failed, 0);
            let reported: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&reported, list, "{workload}");
            let line = parse_json(&result.to_json()).expect("result line parses");
            assert!(line.get("metrics").is_some());
        }
        for m in &timed.metrics {
            assert!(
                m.value > 0.0,
                "{workload}: end-to-end {} is {}",
                m.name,
                m.value
            );
        }
        assert!(spans.spans().iter().all(|s| s.end_s >= s.start_s));
        assert!(spans.spans().iter().any(|s| s.name == "decide_replay"));
    }
}

fn listed_names(spec: &JsonValue) -> Vec<String> {
    spec.get("workloads")
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json has a workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}
