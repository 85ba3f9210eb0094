//! The `remote` workload: a ~2,000-document corpus exported by `RemoteHac`,
//! queried over loopback TCP in an open loop at fixed arrival rates.
//!
//! Two lanes answer the same questions:
//!
//! * `remote` — one `HacServer` holding the whole corpus, reached through a
//!   `NetRemote` with at most two connections;
//! * `fed` — the corpus placed by the shard map across two `HacServer`s,
//!   reached through a `FedRemote` (one connection per shard).
//!
//! Traffic is point searches on marker terms (each marker is in four
//! documents, so evaluation costs less than the round trip) and document
//! fetches. Two generator threads each send on a fixed schedule. A request
//! that could not be sent on time because the previous one had not returned
//! is timed from when it was due, so a stall also counts against the
//! requests queued behind it; how late the generator itself woke up is
//! reported as `gen.late_*`. The lanes alternate in short slices at the
//! base rate, then step through higher rates to find the highest one whose
//! p99 stays within [`P99_LIMIT_US`] while the generator keeps up.
//!
//! Every search result is checked against the corpus' ground truth (so
//! federated and single-server answers are identical), no federated pass
//! may be partial, and every fetched body must match what was written.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hac_core::{HacFs, RemoteQuerySystem};
use hac_corpus::Vocabulary;
use hac_fed::{FedConfig, FedRemote, ShardMap};
use hac_net::{ClientConfig, HacServer, NetRemote, ServerConfig};
use hac_remote::RemoteHac;
use hac_vfs::VPath;

use crate::layers;
use crate::session::{peak_rss_mb, Recorder};
use crate::stats::{percentile, Deck, Metric, Rng, Samples};
use crate::{finish, timed_setup, Budget, Config, Outcome};

/// Corpus documents at scale 1.
const DOCS: usize = 2000;
/// Documents sharing each marker term.
const PER_MARKER: usize = 4;
/// Base arrival rate over both generator threads, requests per second.
pub const BASE_RATE: f64 = 200.0;
/// Rates the capacity sweep steps through, as multiples of the base rate.
const SWEEP: [f64; 4] = [2.0, 4.0, 8.0, 16.0];
/// Latency limit on p99 for `remote_max_rps`, µs.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// A request sent later than this after its due time counts as late.
const LATE_US: f64 = 1_000.0;
/// Length of one lane slice in the alternating base phase.
const SLICE: Duration = Duration::from_millis(500);

/// Servers, clients and the ground truth.
pub struct Env {
    servers: Vec<HacServer>,
    fss: Vec<Arc<HacFs>>,
    single: NetRemote,
    fed: FedRemote,
    docs: Vec<(String, String)>,
    /// Each marker and the sorted ids of the documents holding it.
    truth: Vec<(String, Vec<String>)>,
}

impl Drop for Env {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

fn marker(m: usize) -> String {
    format!("mk{m:04}")
}

/// Generates the corpus, indexes it three times (whole, and per shard),
/// starts the three loopback servers and connects both lanes.
pub fn setup(seed: u64, scale: f64) -> Result<Env, String> {
    let n = ((DOCS as f64 * scale).round() as usize).max(PER_MARKER * 4);
    let markers = n / PER_MARKER;
    let vocab = Vocabulary::new(4000, 1.0);
    let mut text = hac_corpus::words::rng(seed);
    let mut rng = Rng::new(seed, 3);
    let mut docs = Vec::with_capacity(n);
    let mut truth: BTreeMap<String, Vec<String>> = BTreeMap::new();
    // Each marker sits in PER_MARKER consecutive documents, so they share
    // an index block and a point search verifies one or two blocks.
    for i in 0..n {
        let path = format!("/lib/d{:02}/doc{i:05}.txt", i / 100);
        let mk = marker((i / PER_MARKER).min(markers - 1));
        let words = 15 + rng.below(20);
        let body = format!("{} {mk}", vocab.sample_text(&mut text, words));
        truth.entry(mk).or_default().push(path.clone());
        docs.push((path, body));
    }
    for ids in truth.values_mut() {
        ids.sort();
    }

    let placement = ShardMap::new("lib", &[String::new(), String::new()]);
    let mut fss = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    // Index 0: the whole corpus; 1 and 2: the two shards.
    for part in 0..3 {
        let fs = Arc::new(HacFs::new());
        for (path, body) in &docs {
            if part > 0 && placement.shard_of(path) != part - 1 {
                continue;
            }
            let path = VPath::parse(path).map_err(|e| e.to_string())?;
            if let Some(parent) = path.parent() {
                fs.mkdir_p(&parent).map_err(|e| e.to_string())?;
            }
            fs.save(&path, body.as_bytes()).map_err(|e| e.to_string())?;
        }
        fs.ssync(&VPath::root()).map_err(|e| e.to_string())?;
        let ns = if part == 0 {
            "lib".to_string()
        } else {
            placement.shards[part - 1].ns.clone()
        };
        let backend = Arc::new(RemoteHac::new(&ns, Arc::clone(&fs), VPath::root()));
        let server = HacServer::serve("127.0.0.1:0", vec![backend], ServerConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        addrs.push(server.local_addr().to_string());
        servers.push(server);
        fss.push(fs);
    }
    let single = NetRemote::connect(
        "lib",
        &addrs[0],
        ClientConfig {
            max_connections: 2,
            ..ClientConfig::default()
        },
    );
    let fed_config = FedConfig::default();
    let fed = FedRemote::connect(
        ShardMap::new("lib", &addrs[1..]),
        FedConfig {
            client: ClientConfig {
                max_connections: 1,
                ..fed_config.client.clone()
            },
            ..fed_config
        },
    );
    Ok(Env {
        servers,
        fss,
        single,
        fed,
        docs,
        truth: truth.into_iter().collect(),
    })
}

/// Which client a slice drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Single,
    Fed,
}

impl Lane {
    fn class(self, search: bool) -> &'static str {
        match (self, search) {
            (Lane::Single, true) => "remote_search",
            (Lane::Single, false) => "remote_fetch",
            (Lane::Fed, true) => "fed_search",
            (Lane::Fed, false) => "fed_fetch",
        }
    }
}

/// What open-loop requests measured: one generator thread's slice, or a
/// whole phase merged.
#[derive(Default)]
struct Tally {
    rec: Recorder,
    late: Samples,
    partial: u64,
    fed_searches: u64,
    waiters: Samples,
    markers: Vec<String>,
}

/// One request: search a marker or fetch a document, checked against the
/// ground truth. Returns the op class and the call's own time, µs.
fn request(
    env: &Env,
    lane: Lane,
    search: bool,
    rng: &mut Rng,
    out: &mut Tally,
    traced: bool,
) -> (&'static str, f64) {
    let remote: &dyn RemoteQuerySystem = match lane {
        Lane::Single => &env.single,
        Lane::Fed => &env.fed,
    };
    let class = lane.class(search);
    out.rec.attempted += 1;
    if search {
        let (mk, want) = rng.pick(&env.truth);
        if traced && out.markers.len() < 256 {
            out.markers.push(mk.clone());
        }
        // The user's query text is parsed and projected onto content, as
        // `HacFs` does for a remote mount, inside the timed call.
        let ((res, partial), us) = call(out, traced, class, true, || {
            let t = Instant::now();
            let query = hac_query::parse(mk).map(|q| q.expr.content_projection());
            let parsed = t.elapsed().as_secs_f64() * 1e6;
            let res = match query {
                Ok(query) => remote.search(&query).map_err(|e| e.to_string()),
                Err(e) => Err(format!("parse: {e}")),
            };
            ((res, lane == Lane::Fed && remote.last_partial()), parsed)
        });
        if lane == Lane::Fed {
            out.fed_searches += 1;
            out.partial += u64::from(partial);
        }
        match res {
            Ok(docs) => {
                let got: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
                out.rec
                    .digest
                    .feed(format!("{mk} {}", got.len()).as_bytes());
                if got != want.iter().map(String::as_str).collect::<Vec<_>>() || partial {
                    out.rec.fail(format!(
                        "{lane:?} search {mk}: {} hits (want {}), partial {partial}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => out.rec.fail(format!("{lane:?} search {mk}: {e}")),
        }
        (class, us)
    } else {
        let (id, body) = rng.pick(&env.docs);
        let (res, us) = call(out, traced, class, false, || (remote.fetch(id), 0.0));
        match res {
            Ok(bytes) if bytes == body.as_bytes() => out.rec.digest.feed(id.as_bytes()),
            Ok(_) => out.rec.fail(format!("{lane:?} fetch {id}: wrong bytes")),
            Err(e) => out.rec.fail(format!("{lane:?} fetch {id}: {e}")),
        }
        (class, us)
    }
}

/// Times `f` (under a root span when traced, keeping its layer split).
/// `f` also returns how long it spent parsing, µs; for a `search`, a
/// traced call moves that time from the root's own time to `query.parse`.
fn call<R>(
    out: &mut Tally,
    traced: bool,
    class: &'static str,
    search: bool,
    f: impl FnOnce() -> (R, f64),
) -> (R, f64) {
    if traced {
        let ((res, parsed), us, op) = layers::traced(f);
        let op = op.map(|mut op| {
            if search {
                out.rec.parse_us.push(parsed);
                op.carve("bench.self", "query.parse", parsed);
            }
            op
        });
        out.rec.push_traced(class, op);
        return (res, us);
    }
    let t = Instant::now();
    let (res, _) = f();
    (res, t.elapsed().as_secs_f64() * 1e6)
}

/// Callers currently waiting for a pooled connection, over every client.
fn pool_waiters() -> f64 {
    ["lib", "lib.0", "lib.1"]
        .iter()
        .map(|ns| hac_obs::gauge("hac_net_pool_waiters", &[("ns", ns)]).get() as f64)
        .sum()
}

/// One open-loop slice: two generator threads at `rate`/2 each, offset by
/// half a period, on `lane` for `length` (or `max_ops` requests per
/// thread). Each thread's op sequence is a function of `seed`. A traced
/// slice runs one thread at the full rate, so reading one op's trace back
/// from the shared event ring never overlaps another op in flight.
fn slice(
    env: &Env,
    lane: Lane,
    rate: f64,
    length: Duration,
    max_ops: Option<u64>,
    seed: u64,
    traced: bool,
) -> Vec<Tally> {
    let threads = if traced { 1 } else { 2 };
    let period = Duration::from_secs_f64(threads as f64 / rate);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Tally::default();
                    out.rec.tracing = traced;
                    let mut rng = Rng::new(seed, 100 + t);
                    // 7 point searches to 3 fetches.
                    let mut mix = Deck::new(&[7, 3]);
                    let start = Instant::now() + period.mul_f64(t as f64 / 2.0);
                    let budget = Budget::new(length.as_secs_f64(), max_ops);
                    let mut j = 0u64;
                    while budget.allows(j) {
                        let due = start + period.mul_f64(j as f64);
                        let now = Instant::now();
                        // A request still due when the previous one returned
                        // was held back by the system under test: its wait
                        // counts. One whose thread slept past its due time
                        // was held back by the generator: that lateness is
                        // reported as `gen.late_*`, not charged to the system.
                        let held = if due > now {
                            std::thread::sleep(due - now);
                            out.late.push((Instant::now() - due).as_secs_f64() * 1e6);
                            0.0
                        } else {
                            out.late.push(0.0);
                            (now - due).as_secs_f64() * 1e6
                        };
                        out.waiters.push(pool_waiters());
                        let search = mix.draw(&mut rng) == 0;
                        let (class, us) = request(env, lane, search, &mut rng, &mut out, traced);
                        out.rec.record(class, held + us);
                        j += 1;
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.rec.merge(other.rec);
        self.late.extend(&other.late);
        self.waiters.extend(&other.waiters);
        self.partial += other.partial;
        self.fed_searches += other.fed_searches;
        self.markers.extend(other.markers);
    }
}

/// The base phase: lanes alternate in [`SLICE`]s at [`BASE_RATE`]. Returns
/// what it measured and how long it took, in seconds.
fn base_phase(
    env: &Env,
    seconds: f64,
    max_ops: Option<u64>,
    seed: u64,
    traced: bool,
) -> (Tally, f64) {
    let mut phase = Tally::default();
    let t = Instant::now();
    let slices = match max_ops {
        Some(_) => 2,
        None => ((seconds / SLICE.as_secs_f64()).round() as u64).max(2),
    };
    for k in 0..slices {
        let lane = if k % 2 == 0 { Lane::Single } else { Lane::Fed };
        let ops = max_ops.map(|n| (n / 4).max(1));
        for s in slice(env, lane, BASE_RATE, SLICE, ops, seed ^ k, traced) {
            phase.absorb(s);
        }
    }
    (phase, t.elapsed().as_secs_f64())
}

/// Whether a slice met the latency limit with the generator keeping up
/// and nothing failing.
fn sustained(slices: &[Tally], lane: Lane) -> bool {
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let mut failed = 0;
    for s in slices {
        lat.extend(
            s.rec
                .pooled(&[lane.class(true), lane.class(false)])
                .sorted(),
        );
        late.extend(s.late.sorted());
        failed += s.rec.failed + s.partial;
    }
    lat.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    failed == 0
        && percentile(&lat, 99.0) <= P99_LIMIT_US
        && percentile(&late, 99.0) <= P99_LIMIT_US / 2.0
}

/// Runs `remote`.
pub fn run(config: &Config) -> Result<Outcome, String> {
    hac_obs::set_tracing_enabled(false);
    let (env, setup_s, setup_rss) = timed_setup(|_| setup(config.seed, config.scale));
    let env = env?;
    let attr_before: Vec<_> = env.fss.iter().map(|f| f.vfs().attr_cache_stats()).collect();

    let base_s = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds * 0.6
    };
    let (base, base_secs) = base_phase(&env, base_s, config.max_ops, config.seed, false);
    let session_rss_mb = peak_rss_mb();

    // Capacity sweep (end-to-end run only): each rate on each lane.
    let mut max_rps = [BASE_RATE; 2];
    let mut sweep_ok = [true; 2];
    let mut sweep = Tally::default();
    if !config.trace {
        let each = Duration::from_secs_f64(config.seconds * 0.4 / (2 * SWEEP.len()) as f64);
        for (k, mult) in SWEEP.iter().enumerate() {
            for (l, lane) in [Lane::Single, Lane::Fed].into_iter().enumerate() {
                let ops = config.max_ops.map(|n| (n / 8).max(1));
                let seed = config.seed ^ (0x5eed + (k * 2 + l) as u64);
                let slices = slice(&env, lane, BASE_RATE * mult, each, ops, seed, false);
                sweep_ok[l] = sweep_ok[l] && sustained(&slices, lane);
                if sweep_ok[l] {
                    max_rps[l] = BASE_RATE * mult;
                }
                for s in slices {
                    sweep.absorb(s);
                }
            }
        }
    }

    let traced = if config.trace {
        hac_obs::set_tracing_enabled(true);
        let (traced, _) = base_phase(
            &env,
            config.seconds / 2.0,
            config.max_ops,
            config.seed ^ 1,
            true,
        );
        hac_obs::set_tracing_enabled(false);
        traced
    } else {
        Tally::default()
    };

    // One recorder for the base and traced phases (traced latencies land in
    // the traced maps, so untraced medians stay untraced). The sweep's
    // latencies stay out of it; its failures count.
    let mut rec = base.rec;
    rec.merge(traced.rec);
    rec.attempted += sweep.rec.attempted;
    rec.failed += sweep.rec.failed;
    rec.errors.extend(sweep.rec.errors);
    let partial = base.partial + sweep.partial + traced.partial;
    let fed_searches = base.fed_searches + sweep.fed_searches + traced.fed_searches;
    rec.check(partial == 0, || {
        format!("{partial} federated passes were partial")
    });

    let single = rec.pooled(&[Lane::Single.class(true), Lane::Single.class(false)]);
    let fed = rec.pooled(&[Lane::Fed.class(true), Lane::Fed.class(false)]);
    let classes = [Lane::Single.class(true), Lane::Fed.class(true)];
    let searches = rec.search_metrics(&classes, false);
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s".to_string(), setup_s);
    e2e.insert(
        "ops_per_s".to_string(),
        Metric::new(
            (single.len() + fed.len()) as f64 / base_secs.max(1e-9),
            "1/s",
            (single.len() + fed.len()) as u64,
        ),
    );
    e2e.insert(
        "search_p50_us".to_string(),
        searches["search_p50_us"].clone(),
    );
    e2e.insert("rss_mb".to_string(), setup_rss);

    let mut report = e2e.clone();
    report.insert(
        "rss_session_mb".into(),
        Metric::new(session_rss_mb, "MB", 1),
    );
    report.extend(searches);
    report.insert("remote_p50_us".into(), Metric::p50(&single, "us", 1.0));
    report.insert("remote_p99_us".into(), Metric::at(&single, 99.0, "us", 1.0));
    report.insert("fed_p50_us".into(), Metric::p50(&fed, "us", 1.0));
    report.insert("fed_p99_us".into(), Metric::at(&fed, 99.0, "us", 1.0));
    if !config.trace {
        report.insert(
            "remote_max_rps".into(),
            Metric::new(max_rps[0], "1/s", SWEEP.len() as u64),
        );
        report.insert(
            "fed_max_rps".into(),
            Metric::new(max_rps[1], "1/s", SWEEP.len() as u64),
        );
        report.insert(
            "sweep_late_p99_us".into(),
            Metric::at(&sweep.late, 99.0, "us", 1.0),
        );
    }
    report.insert(
        "gen.late_p99_us".into(),
        Metric::at(&base.late, 99.0, "us", 1.0),
    );

    let mut layer_set = rec.layer_metrics(&classes);
    // Index work of the searched markers, from the explain accessor on
    // the single server's file system (not timed).
    let (mut candidates, mut verified, mut useful, mut postings) = (0.0, 0.0, 0.0, 0.0);
    for mk in &traced.markers {
        if let Ok((_, st)) = env.fss[0].search_explained(&VPath::root(), mk) {
            candidates += st.candidates as f64;
            verified += st.verified as f64;
            useful += (st.verified - st.false_positives) as f64;
            postings += st.postings_scanned as f64;
        }
    }
    let explained = traced.markers.len() as u64;
    let per = |v: f64| v / (explained.max(1) as f64);
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    for (fs, before) in env.fss.iter().zip(&attr_before) {
        let after = fs.vfs().attr_cache_stats();
        hits += after.hits - before.hits;
        misses += after.misses - before.misses;
        evictions += after.evictions - before.evictions;
    }
    let traced_ops = rec.traced.len() as u64;
    let all_ops = rec.untraced_ops() + traced_ops;
    let late = |s: &Samples| s.sorted().iter().filter(|v| **v > LATE_US).count() as f64;
    let late_frac = (late(&base.late) + late(&traced.late))
        / ((base.late.len() + traced.late.len()).max(1) as f64);
    let mut put = |name: &str, value: f64, unit: &'static str, n: u64| {
        let m = Metric::new(value, unit, n);
        report.insert(name.to_string(), m.clone());
        layer_set.insert(name.to_string(), m);
    };
    put(
        "vfs.attr_hit_ratio",
        hits as f64 / ((hits + misses).max(1) as f64),
        "ratio",
        all_ops,
    );
    put(
        "vfs.attr_evictions_per_op",
        evictions as f64 / (all_ops.max(1) as f64),
        "count",
        all_ops,
    );
    put(
        "index.candidates_per_search",
        per(candidates),
        "count",
        explained,
    );
    put(
        "index.verified_per_search",
        per(verified),
        "count",
        explained,
    );
    put(
        "index.useful_ratio",
        useful / verified.max(1.0),
        "ratio",
        explained,
    );
    put(
        "index.postings_per_search",
        per(postings),
        "count",
        explained,
    );
    put("semdir.dirs_per_ssync", 0.0, "count", 0);
    put("ssync.files_per_pass", 0.0, "count", 0);
    put("store.segments_per_ssync", 0.0, "count", 0);
    put("store.bytes_per_user_byte", 0.0, "ratio", 0);
    put(
        "net.pool_waiters",
        base.waiters.sorted().iter().sum::<f64>() / (base.waiters.len().max(1) as f64),
        "count",
        base.waiters.len() as u64,
    );
    put(
        "fed.partial_frac",
        partial as f64 / (fed_searches.max(1) as f64),
        "ratio",
        fed_searches,
    );
    put("gen.late_frac", late_frac, "ratio", all_ops);
    Ok(finish(&rec, config, e2e, layer_set, report))
}
