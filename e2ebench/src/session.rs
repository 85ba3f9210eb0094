//! What every workload records while it replays a session, and how the
//! records become the printed metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::{self, TracedOp, LAYERS};
use crate::stats::{geomean, Digest, Metric, Samples};

/// Per-run recorder: latencies per op class, traced layer splits, failures,
/// and the digest that must repeat for a fixed seed.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Untraced latency per op class, µs.
    pub lat: BTreeMap<&'static str, Samples>,
    /// Traced latency per op class, µs (traced phase only).
    pub traced_lat: BTreeMap<&'static str, Samples>,
    /// Layer split of every traced op, by op class.
    pub traced: Vec<(&'static str, TracedOp)>,
    /// Traced ops whose trace could not be read back whole.
    pub lost_traces: u64,
    /// Bench-timed query parse per search op, µs (traced phase only).
    pub parse_us: Samples,
    /// Ops and checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Op sequence and result digest.
    pub digest: Digest,
    /// Whether the current phase runs traced.
    pub tracing: bool,
}

impl Recorder {
    /// Runs one session op of `class`, timing it (and splitting its trace
    /// when the phase is traced). `parse` is the query text of a local
    /// search op, whose parse time is carved out of the root's own time.
    pub fn op<R>(
        &mut self,
        class: &'static str,
        parse: Option<&str>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.attempted += 1;
        if !self.tracing {
            let t = Instant::now();
            let out = std::hint::black_box(f());
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.record(class, us);
            return (out, us);
        }
        let parse_us = parse.map(time_parse);
        let (out, us, op) = layers::traced(f);
        let op = op.map(|mut op| {
            if let Some(p) = parse_us {
                self.parse_us.push(p);
                // Local search: the root's own time is the parse plus
                // scope computation (and the result's path mapping).
                op.carve("bench.self", "query.parse", p);
                op.carve("bench.self", "scope.self", f64::INFINITY);
            }
            op
        });
        self.record(class, us);
        self.push_traced(class, op);
        (out, us)
    }

    /// Records one op latency of `class`, µs, into the current phase.
    pub fn record(&mut self, class: &'static str, us: f64) {
        let map = if self.tracing {
            &mut self.traced_lat
        } else {
            &mut self.lat
        };
        map.entry(class).or_default().push(us);
    }

    /// Keeps the layer split of one traced op (`None`: trace not closed).
    pub fn push_traced(&mut self, class: &'static str, op: Option<TracedOp>) {
        match op {
            Some(op) => self.traced.push((class, op)),
            None => self.lost_traces += 1,
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (class, s) in &other.lat {
            self.lat.entry(class).or_default().extend(s);
        }
        for (class, s) in &other.traced_lat {
            self.traced_lat.entry(class).or_default().extend(s);
        }
        self.traced.extend(other.traced);
        self.lost_traces += other.lost_traces;
        self.parse_us.extend(&other.parse_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.digest.feed(&other.digest.0.to_le_bytes());
    }

    /// Records a failed op or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records one check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Untraced samples of `class` (empty when none ran).
    pub fn samples(&self, class: &str) -> Samples {
        self.lat.get(class).cloned().unwrap_or_default()
    }

    /// Untraced samples of every class in `classes`, pooled.
    pub fn pooled(&self, classes: &[&str]) -> Samples {
        let mut out = Samples::default();
        for c in classes {
            out.extend(&self.samples(c));
        }
        out
    }

    /// Untraced ops completed.
    pub fn untraced_ops(&self) -> u64 {
        self.lat.values().map(|s| s.len() as u64).sum()
    }

    /// `search_p50_us` (the geometric mean of the medians of `classes`),
    /// `search_p90_us` and `search_tail_us` (of all their samples pooled),
    /// and each class's own median, from the untraced (or with `traced`,
    /// the traced) samples.
    pub fn search_metrics(&self, classes: &[&str], traced: bool) -> BTreeMap<String, Metric> {
        let lat = if traced { &self.traced_lat } else { &self.lat };
        let mut out = BTreeMap::new();
        let mut medians = Vec::new();
        let mut pooled = Samples::default();
        for class in classes {
            let Some(s) = lat.get(class).filter(|s| !s.is_empty()) else {
                continue;
            };
            medians.push(s.p50());
            out.insert(format!("{class}_p50_us"), Metric::p50(s, "us", 1.0));
            pooled.extend(s);
        }
        let n = pooled.len() as u64;
        out.insert(
            "search_p50_us".into(),
            Metric::new(geomean(&medians), "us", n),
        );
        out.insert("search_p90_us".into(), Metric::at(&pooled, 90.0, "us", 1.0));
        out.insert("search_tail_us".into(), Metric::tail(&pooled, "us", 1.0));
        out
    }

    /// The traced run's per-layer metrics shared by every workload:
    /// each layer's share of traced session time, the µs medians of the
    /// layers every search crosses, the tracing overhead on search latency
    /// (traced vs untraced `search_p50_us`), and how complete the traces were.
    pub fn layer_metrics(&self, search_classes: &[&str]) -> BTreeMap<String, Metric> {
        let mut out = BTreeMap::new();
        let n = self.traced.len() as u64;
        let total_root: f64 = self.traced.iter().map(|(_, op)| op.root_us).sum();
        for layer in LAYERS {
            let t: f64 = self
                .traced
                .iter()
                .map(|(_, op)| op.layers.get(layer).copied().unwrap_or(0.0))
                .sum();
            out.insert(
                format!("{layer}_pct"),
                Metric::new(100.0 * t / total_root.max(1e-9), "%", n),
            );
        }
        let searches: Vec<&TracedOp> = self
            .traced
            .iter()
            .filter(|(c, _)| search_classes.contains(c))
            .map(|(_, op)| op)
            .collect();
        for layer in ["query.eval_self", "index.eval_self"] {
            let mut s = Samples::default();
            for op in &searches {
                s.push(op.layers.get(layer).copied().unwrap_or(0.0));
            }
            out.insert(format!("{layer}_us"), Metric::p50(&s, "us", 1.0));
        }
        out.insert(
            "query.parse_us".into(),
            Metric::p50(&self.parse_us, "us", 1.0),
        );
        let p50 = |traced| self.search_metrics(search_classes, traced)["search_p50_us"].clone();
        out.insert("trace.search_p50_traced_us".into(), p50(true));
        out.insert("trace.search_p50_untraced_us".into(), p50(false));
        let unaccounted: f64 = self.traced.iter().map(|(_, op)| op.unaccounted_us).sum();
        out.insert(
            "trace.unaccounted_pct".into(),
            Metric::new(100.0 * unaccounted / total_root.max(1e-9), "%", n),
        );
        out.insert(
            "trace.lost_ops".into(),
            Metric::new(self.lost_traces as f64, "count", n + self.lost_traces),
        );
        out
    }

    /// The accounting check of the traced run, per op class: the layer
    /// times of all traced ops of a class add up to the benchmark's own
    /// timing of those calls within the stated tolerance. Returns the
    /// classes that miss it.
    pub fn accounting_misses(&self) -> Vec<String> {
        let mut by_class: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
        for (class, op) in &self.traced {
            let e = by_class.entry(class).or_default();
            e.0 += op.bench_us;
            e.1 += op.layers.values().sum::<f64>();
            e.2 += 1.0;
        }
        by_class
            .into_iter()
            .filter(|(_, (timed, sum, ops))| {
                (timed - sum).abs()
                    > timed * layers::TOLERANCE_FRAC + layers::TOLERANCE_US_PER_OP * ops
            })
            .map(|(class, (timed, sum, _))| {
                format!("{class}: layers {sum:.0} us of {timed:.0} us timed")
            })
            .collect()
    }
}

/// Bench-side time of parsing `query`, µs (the program parses the same
/// text inside the measured call).
pub fn time_parse(query: &str) -> f64 {
    let t = Instant::now();
    let _ = std::hint::black_box(hac_query::parse(std::hint::black_box(query)));
    t.elapsed().as_secs_f64() * 1e6
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(root_us: f64, bench_us: f64) -> TracedOp {
        let mut op = TracedOp {
            root_us,
            bench_us,
            ..TracedOp::default()
        };
        op.layers.insert("bench.self", root_us * 0.25);
        op.layers.insert("index.eval_self", root_us * 0.75);
        op
    }

    #[test]
    fn accounting_holds_the_split_to_the_bench_clock() {
        let mut rec = Recorder::default();
        rec.push_traced("search", Some(op(1000.0, 999.0)));
        rec.push_traced("search", Some(op(500.0, 501.0)));
        assert!(rec.accounting_misses().is_empty());
        // A root span that recorded 10% more than the call took misses.
        rec.push_traced("save", Some(op(110.0, 100.0)));
        let misses = rec.accounting_misses();
        assert_eq!(misses.len(), 1);
        assert!(misses[0].starts_with("save:"), "{misses:?}");
    }

    #[test]
    fn carve_moves_at_most_what_the_layer_holds() {
        let mut op = op(100.0, 100.0);
        op.carve("bench.self", "query.parse", 10.0);
        op.carve("bench.self", "scope.self", f64::INFINITY);
        assert_eq!(op.layers["query.parse"], 10.0);
        assert_eq!(op.layers["scope.self"], 15.0);
        assert_eq!(op.layers["bench.self"], 0.0);
        assert_eq!(op.layers.values().sum::<f64>(), 100.0);
    }
}
