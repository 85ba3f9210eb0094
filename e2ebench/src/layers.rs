//! Per-layer time attribution from the spans the program already emits.
//!
//! In a traced run every public call the benchmark makes is wrapped in a
//! bench-owned root span (`e2e_root`). The program's own spans
//! (`query_eval`, `index_eval`, `ssync`, `net_client_request`, …) open
//! underneath it and become its descendants, also across threads and the
//! loopback wire, because the program propagates the trace context. After
//! the call the benchmark reads the trace back from the event ring and
//! splits the root's wall time across layers by self-time: a span's
//! duration minus the part of it that its children cover.
//!
//! Siblings that run in parallel (the federation's per-shard queries) share
//! the wall-clock interval they overlap in, so the layer times of one op add
//! up to its root span. Child time outside its parent's interval (a shard
//! thread closing its span after the gather returned) is off the caller's
//! path: it is reported as `trace.unaccounted_pct`, not attributed.
//!
//! The traced run checks the split against a clock of its own: per op
//! class, the layer times must add up to the benchmark's own `Instant`
//! timing of the same calls within [`TOLERANCE_FRAC`] plus
//! [`TOLERANCE_US_PER_OP`] per op. So the split is a split of the latency
//! the benchmark reports, not only of whatever the root span recorded.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use hac_obs::Event;

/// Name of the bench-owned root span around each public call.
pub const ROOT_SPAN: &str = "e2e_root";

/// Accounting tolerance: the layer times of an op class may miss the
/// benchmark's own timing of its calls by this share of it …
pub const TOLERANCE_FRAC: f64 = 0.01;
/// … plus this many microseconds per op (the root span is opened just
/// before the benchmark's clock starts, closed just after it stops, and
/// its duration is truncated to whole microseconds).
pub const TOLERANCE_US_PER_OP: f64 = 2.0;

/// Every layer an op's time can land in, in report order. `bench.self` is
/// the root's own time outside any program span; for local searches it is
/// split into `query.parse` and `scope.self` by the caller.
pub const LAYERS: [&str; 15] = [
    "bench.self",
    "query.parse",
    "scope.self",
    "query.eval_self",
    "index.eval_self",
    "semdir.resync_self",
    "ssync.self",
    "ssync.tokenize_self",
    "store.commit_self",
    "remote.adapter_self",
    "net.client_self",
    "net.server_self",
    "fed.scatter_self",
    "fed.shard_query_self",
    "other.self",
];

/// The layer a span's self-time belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        ROOT_SPAN => "bench.self",
        "query_eval" => "query.eval_self",
        "index_eval" => "index.eval_self",
        // `ssync_resync` is the pass's choice of which semantic
        // directories to re-evaluate; the re-evaluations are its children.
        "semdir_resync" | "ssync_resync" => "semdir.resync_self",
        "ssync" => "ssync.self",
        "ssync_tokenize" => "ssync.tokenize_self",
        "store_commit" | "store_checkpoint" | "store_merge" => "store.commit_self",
        "remote_request" | "remote_search" => "remote.adapter_self",
        "net_client_request" => "net.client_self",
        "net_server_request" => "net.server_self",
        "fed_scatter" => "fed.scatter_self",
        "fed_shard_query" => "fed.shard_query_self",
        _ => "other.self",
    }
}

/// One traced public call, split across layers.
#[derive(Debug, Clone, Default)]
pub struct TracedOp {
    /// Root span duration, µs.
    pub root_us: f64,
    /// The benchmark's own timing of the call, µs.
    pub bench_us: f64,
    /// Self-time per layer, µs (sums to `root_us`).
    pub layers: BTreeMap<&'static str, f64>,
    /// Child time outside its parent's interval, µs.
    pub unaccounted_us: f64,
}

impl TracedOp {
    /// Moves up to `us` of layer `from`'s time to layer `to`.
    pub fn carve(&mut self, from: &'static str, to: &'static str, us: f64) {
        let Some(have) = self.layers.get_mut(from) else {
            return;
        };
        let moved = us.min(*have);
        *have -= moved;
        *self.layers.entry(to).or_default() += moved;
    }
}

/// Runs `f` under a fresh bench-owned root span and returns its result, its
/// wall time in µs, and (with tracing enabled) the layer split of the trace
/// it left. Spans opened by detached program threads may land in the ring
/// after `f` returns; collection waits up to 50 ms for the trace to close.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, f64, Option<TracedOp>) {
    let root = hac_obs::span!("e2e_root");
    let ctx = root.context();
    let t = Instant::now();
    let out = f();
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(root);
    let Some(ctx) = ctx else {
        return (out, us, None);
    };
    let deadline = Instant::now() + Duration::from_millis(50);
    loop {
        let events: Vec<Event> = hac_obs::recent_events()
            .into_iter()
            .filter(|e| e.trace_id == Some(ctx.trace_id) && e.span_id.is_some())
            .collect();
        if let Some(op) = split(&events, ctx.span_id) {
            return (out, us, Some(TracedOp { bench_us: us, ..op }));
        }
        if Instant::now() >= deadline {
            return (out, us, None);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Splits one closed trace across layers; `None` while some span's parent
/// has not been recorded yet (or the root is missing).
pub fn split(events: &[Event], root_id: u64) -> Option<TracedOp> {
    let by_id: HashMap<u64, usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.span_id.map(|id| (id, i)))
        .collect();
    let root = *by_id.get(&root_id)?;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    for (i, e) in events.iter().enumerate() {
        if i == root {
            continue;
        }
        let parent = by_id.get(&e.parent_span_id?)?;
        children[*parent].push(i);
    }
    let interval = |i: usize| {
        let end = events[i].at_micros as f64;
        (end - events[i].duration_micros.unwrap_or(0) as f64, end)
    };
    let mut op = TracedOp {
        root_us: events[root].duration_micros.unwrap_or(0) as f64,
        ..TracedOp::default()
    };
    // Iterative walk: (span, weight, interval it is clipped to).
    let mut stack = vec![(root, 1.0f64, interval(root))];
    while let Some((i, weight, (start, end))) = stack.pop() {
        let clipped: Vec<(usize, (f64, f64))> = children[i]
            .iter()
            .map(|&c| {
                let (cs, ce) = interval(c);
                let (s, e) = (cs.max(start), ce.min(end));
                op.unaccounted_us += weight * ((ce - cs) - (e - s).max(0.0));
                (c, (s, e.max(s)))
            })
            .collect();
        let covered = union_len(clipped.iter().map(|(_, iv)| *iv).collect());
        let total: f64 = clipped.iter().map(|(_, (s, e))| e - s).sum();
        *op.layers.entry(layer_of(&events[i].name)).or_default() +=
            weight * ((end - start) - covered).max(0.0);
        let share = if total > covered {
            covered / total
        } else {
            1.0
        };
        for (c, iv) in clipped {
            stack.push((c, weight * share, iv));
        }
    }
    Some(op)
}

/// Length of the union of intervals.
fn union_len(mut ivs: Vec<(f64, f64)>) -> f64 {
    ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut len = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in ivs {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                len += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((s, e)) = cur {
        len += e - s;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: Option<u64>, end: u64, dur: u64) -> Event {
        Event {
            name: name.into(),
            fields: Vec::new(),
            at_micros: end,
            duration_micros: Some(dur),
            trace_id: Some(1),
            span_id: Some(id),
            parent_span_id: parent,
        }
    }

    #[test]
    fn nested_spans_split_by_self_time() {
        let events = vec![
            span(ROOT_SPAN, 1, None, 100, 100),
            span("query_eval", 2, Some(1), 90, 60),
            span("index_eval", 3, Some(2), 80, 40),
        ];
        let op = split(&events, 1).unwrap();
        assert_eq!(op.layers["bench.self"], 40.0);
        assert_eq!(op.layers["query.eval_self"], 20.0);
        assert_eq!(op.layers["index.eval_self"], 40.0);
        assert_eq!(op.layers.values().sum::<f64>(), op.root_us);
    }

    #[test]
    fn parallel_siblings_share_their_overlap() {
        let events = vec![
            span(ROOT_SPAN, 1, None, 100, 100),
            span("fed_scatter", 2, Some(1), 100, 100),
            span("fed_shard_query", 3, Some(2), 90, 80),
            span("fed_shard_query", 4, Some(2), 90, 80),
        ];
        let op = split(&events, 1).unwrap();
        assert_eq!(op.layers["fed.scatter_self"], 20.0);
        assert_eq!(op.layers["fed.shard_query_self"], 80.0);
        assert_eq!(op.layers.values().sum::<f64>(), op.root_us);
    }

    #[test]
    fn missing_parent_means_trace_not_closed() {
        let events = vec![
            span(ROOT_SPAN, 1, None, 100, 100),
            span("net_client_request", 5, Some(4), 90, 10),
        ];
        assert!(split(&events, 1).is_none());
    }
}
