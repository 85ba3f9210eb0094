//! Smoke-sized runs of every workload: the metric names match
//! `BENCHMARK.json`, the correctness checks pass, and a fixed seed replays
//! the same op sequence with the same results.

use std::sync::Mutex;

use e2ebench::{run, Config, Outcome, WORKLOADS};

/// Runs share process-wide state (the tracing switch, the event ring), so
/// they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = Config {
        workload: workload.to_string(),
        seed,
        seconds: 60.0,
        trace,
        scale: 0.1,
        max_ops: Some(48),
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("e2ebench-{workload}-{seed}-{trace}")),
    };
    run(&config).unwrap_or_else(|e| panic!("{workload} failed: {e}"))
}

/// The `name`s listed under `key` in the benchmark description.
fn declared(key: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let list = &json[start..];
    let list = &list[..list.find(']').expect("list closes")];
    list.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.keys().cloned().collect()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_checks() {
    let mut e2e = declared("end_to_end");
    let mut layers = declared("per_layer");
    e2e.sort();
    layers.sort();
    let workloads = declared("workloads");
    assert_eq!(workloads, WORKLOADS, "BENCHMARK.json lists the workloads");
    for workload in WORKLOADS {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = smoke(workload, 7, trace);
            assert!(
                out.correct && out.failed == 0,
                "{workload} trace={trace}: {:?}",
                out.notes
            );
            assert!(out.attempted > 0);
            assert_eq!(&names(&out), want, "{workload} trace={trace}");
            for (name, m) in &out.metrics {
                assert!(m.value.is_finite(), "{workload} {name} = {}", m.value);
            }
        }
    }
}

#[test]
fn a_fixed_seed_replays_the_same_ops_and_results() {
    for workload in WORKLOADS {
        let a = smoke(workload, 11, false);
        let b = smoke(workload, 11, false);
        let c = smoke(workload, 12, false);
        assert_eq!(a.digest, b.digest, "{workload}: same seed, same digest");
        assert_ne!(a.digest, c.digest, "{workload}: another seed, other ops");
    }
}
