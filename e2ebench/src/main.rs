//! `e2ebench --workload <desk|archive|remote> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report line with every metric the workload measures, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Exits
//! non-zero without a result line when the run cannot be carried out.

use std::collections::BTreeMap;
use std::process::ExitCode;

use e2ebench::stats::{json_str, metrics_json};
use e2ebench::{run, Config, WORKLOADS};

fn parse_args() -> Result<Config, String> {
    let mut args: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        args.insert(key.to_string(), value);
    }
    let get = |k: &str| args.get(k).cloned();
    for k in args.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let workload = get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")
        .ok_or("--seconds is required")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: 0 or 1, not {v:?}")),
    };
    let work_dir = std::env::current_dir()
        .map_err(|e| format!("current dir: {e}"))?
        .join(".e2ebench_work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        max_ops: None,
        work_dir,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", config.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("e2ebench: {note}");
    }
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \"report\": {}, \"notes\": [{}]}}",
        json_str(&config.workload),
        config.seed,
        config.trace,
        outcome.digest,
        metrics_json(&outcome.report, true),
        notes.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    );
    ExitCode::SUCCESS
}
