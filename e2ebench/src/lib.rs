//! End-to-end HAC benchmark.
//!
//! Replays seeded user sessions of the paper's operations against the
//! public API — `save`, `ssync`, `smkdir`/`set_query`, scoped `search`,
//! link edits, `path(...)` queries, remote and federated search — and
//! reports what a user waits for, plus (in a separate traced run) where
//! each op's time went, layer by layer. See `README.md` next to this file.

pub mod layers;
pub mod local;
pub mod remote;
pub mod session;
pub mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::Metric;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["desk", "archive", "remote"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// `desk`, `archive` or `remote`.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured session time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Corpus size factor (1.0 = the documented sizes; tests shrink it).
    pub scale: f64,
    /// Stop after this many session ops instead of at the deadline (makes
    /// the op sequence, not just its prefix, a function of the seed).
    pub max_ops: Option<u64>,
    /// Scratch directory for on-disk stores; removed when the run ends.
    pub work_dir: PathBuf,
}

/// What one run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed and no op failed.
    pub correct: bool,
    /// Session ops plus correctness checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The metrics of the last output line: the end-to-end set, or with
    /// tracing the per-layer set.
    pub metrics: BTreeMap<String, Metric>,
    /// Every metric the workload measures, with sample counts.
    pub report: BTreeMap<String, Metric>,
    /// Digest of the op sequence and its results.
    pub digest: u64,
    /// Failure messages and other findings.
    pub notes: Vec<String>,
}

/// When the measured session ends: at a deadline, or after a fixed number
/// of ops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Instant,
    max_ops: Option<u64>,
}

impl Budget {
    /// A budget of `seconds` (or `max_ops` ops) starting now.
    pub fn new(seconds: f64, max_ops: Option<u64>) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            max_ops,
        }
    }

    /// Whether op number `done` (0-based) may still run.
    pub fn allows(&self, done: u64) -> bool {
        match self.max_ops {
            Some(n) => done < n,
            None => Instant::now() < self.deadline,
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last environment, and
/// returns it with the median set-up time in seconds and the peak resident
/// memory after the first set-up, in MB (later set-ups reuse memory the
/// earlier ones freed, so only the first shows what one set-up needs).
/// Earlier environments are dropped before the next set-up starts.
pub fn timed_setup<E>(mut setup: impl FnMut(usize) -> E) -> (E, Metric, Metric) {
    let mut times = stats::Samples::default();
    let mut env = None;
    let mut rss_mb = f64::NAN;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            rss_mb = session::peak_rss_mb();
        }
    }
    (
        env.expect("at least one set-up ran"),
        Metric::p50(&times, "s", 1.0),
        Metric::new(rss_mb, "MB", 1),
    )
}

/// Removes a scratch directory when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates (empty) `path`.
    pub fn create(path: &Path) -> std::io::Result<WorkDir> {
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path)?;
        Ok(WorkDir(path.to_path_buf()))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let work = WorkDir::create(&config.work_dir).map_err(|e| format!("work dir: {e}"))?;
    match config.workload.as_str() {
        "desk" => local::run(local::Kind::Desk, config, work.path()),
        "archive" => local::run(local::Kind::Archive, config, work.path()),
        "remote" => remote::run(config),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Assembles an [`Outcome`] from a finished session: `e2e` and `layer_set`
/// are the end-to-end and per-layer sets, `report` the full table.
pub fn finish(
    rec: &session::Recorder,
    config: &Config,
    e2e: BTreeMap<String, Metric>,
    layer_set: BTreeMap<String, Metric>,
    mut report: BTreeMap<String, Metric>,
) -> Outcome {
    let mut notes = rec.errors.clone();
    // The traced run's accounting check counts like any other check.
    let misses = if config.trace {
        rec.accounting_misses()
    } else {
        Vec::new()
    };
    for miss in &misses {
        notes.push(format!("trace accounting: {miss}"));
    }
    let attempted = rec.attempted + u64::from(config.trace);
    let failed = rec.failed + u64::from(!misses.is_empty());
    report.insert(
        "failed_frac".into(),
        Metric::new(failed as f64 / attempted.max(1) as f64, "ratio", attempted),
    );
    if config.trace {
        report.extend(layer_set.clone());
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: if config.trace { layer_set } else { e2e },
        report,
        digest: rec.digest.0,
        notes,
    }
}
