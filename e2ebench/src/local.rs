//! The in-process workloads, `desk` and `archive`: one user driving a
//! `HacFs` in a closed loop (the next op starts when the last returns).
//!
//! * `desk` — one user's namespace below the VFS attribute cache (~2,900
//!   nodes): mail, a source tree and documents, six semantic directories
//!   (nested, a field query, `path(...)` references), a `FileStore` in a
//!   fresh directory. Mixed session: scoped searches, saves, `ssync`,
//!   `smkdir`/`set_query`, link edits.
//! * `archive` — ~6,000 documents at 250 per directory, about 1.5x the
//!   attribute cache, three `path(...)` semantic directories and no store.
//!   Session: whole-archive, per-directory and `/` searches, saves, `ssync`.
//!
//! After the session a final `ssync` runs and every search class's query is
//! replayed against a fresh, cold-indexed `HacFs` holding the same final
//! files; the result sets must be identical.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use hac_core::{HacFs, LinkKind};
use hac_corpus::mail::{SENDERS, TOPICS};
use hac_corpus::{
    generate_docs, generate_mailbox, generate_source_tree, DocCollectionSpec, MailboxSpec,
    SourceTreeSpec, Vocabulary,
};
use hac_vfs::{NodeKind, VPath};
use rand::rngs::StdRng;

use crate::session::{peak_rss_mb, Recorder};
use crate::stats::{Deck, Metric, Rng, Samples};
use crate::{finish, timed_setup, Budget, Config, Outcome};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Desk,
    Archive,
}

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("benchmark paths are valid")
}

/// Vocabulary of `generate_docs` (its default spec).
const DOC_VOCAB: usize = 4000;

/// One workload's namespace after set-up.
pub struct Env {
    kind: Kind,
    fs: Arc<HacFs>,
    /// Files a save may overwrite.
    docs: Vec<VPath>,
    /// Plain directories a search may be scoped to (besides fixed ones).
    doc_dirs: Vec<VPath>,
    /// Semantic directories link edits act on / searches are scoped to.
    semdirs: Vec<VPath>,
    /// Terms of few and intermediate selectivity.
    few: Vec<String>,
    mid: Vec<String>,
    vocab: Vocabulary,
    text_rng: StdRng,
    /// Bytes of content the session saved (for store write amplification).
    saved_bytes: u64,
    store_dir: Option<std::path::PathBuf>,
}

/// Documents containing a term, as a share of the collection: few (about
/// 1.5%) and intermediate (about 15%) selectivity, the query classes of
/// the paper's Table 4.
const FEW_DF: f64 = 0.015;
const MID_DF: f64 = 0.15;
/// Terms kept per selectivity class.
const TERMS: usize = 8;

/// The [`TERMS`] terms of `vocab` whose document frequency in `files` is
/// closest to `FEW_DF` and to `MID_DF`. Choosing by measured frequency
/// rather than by rank makes each query do about the same work whatever
/// the seed, so runs with different seeds stay comparable.
fn pick_terms(fs: &HacFs, files: &[VPath], vocab: &Vocabulary) -> (Vec<String>, Vec<String>) {
    let mut df: BTreeMap<&str, usize> = (10..DOC_VOCAB / 2)
        .map(|r| (vocab.word_at_rank(r), 0))
        .collect();
    for f in files {
        let Ok(bytes) = fs.read_file(f) else { continue };
        let text = String::from_utf8_lossy(&bytes);
        let mut words: Vec<&str> = text.split_whitespace().collect();
        words.sort_unstable();
        words.dedup();
        for w in words {
            if let Some(n) = df.get_mut(w) {
                *n += 1;
            }
        }
    }
    let closest = |target: f64| {
        let want = target * files.len() as f64;
        let mut by_distance: Vec<(&str, usize)> = df.iter().map(|(w, n)| (*w, *n)).collect();
        by_distance.sort_by(|a, b| {
            (a.1 as f64 - want)
                .abs()
                .total_cmp(&(b.1 as f64 - want).abs())
                .then(a.0.cmp(b.0))
        });
        by_distance
            .into_iter()
            .take(TERMS)
            .map(|(w, _)| w.to_string())
            .collect::<Vec<_>>()
    };
    (closest(FEW_DF), closest(MID_DF))
}

/// Builds the workload's namespace, cold index and semantic directories.
pub fn setup(kind: Kind, seed: u64, scale: f64, store_dir: Option<&Path>) -> Result<Env, String> {
    fn err(what: &'static str) -> impl Fn(hac_core::HacError) -> String {
        move |e| format!("{what}: {e}")
    }
    fn verr(what: &'static str) -> impl Fn(hac_vfs::VfsError) -> String {
        move |e| format!("{what}: {e}")
    }
    let fs = Arc::new(HacFs::new());
    let n = |x: usize| ((x as f64 * scale).round() as usize).max(8);
    let vocab = Vocabulary::new(DOC_VOCAB, 1.0);
    let mut store_path = None;
    let (docs, semdirs, few, mid) = match kind {
        Kind::Desk => {
            if let Some(dir) = store_dir {
                let _ = std::fs::remove_dir_all(dir);
                let store = hac_store::FileStore::open(dir).map_err(|e| format!("store: {e}"))?;
                fs.attach_store(Arc::new(store)).map_err(err("attach"))?;
                store_path = Some(dir.to_path_buf());
            }
            let vfs = fs.vfs();
            let mail = MailboxSpec {
                messages: n(800),
                body_words: 40,
                seed,
            };
            generate_mailbox(vfs, &p("/home/mail"), &mail).map_err(verr("mail"))?;
            let src = SourceTreeSpec {
                modules: 10,
                files_per_module: if scale < 1.0 { 2 } else { 20 },
                seed: seed ^ 0x5eed,
                ..SourceTreeSpec::default()
            };
            generate_source_tree(vfs, &p("/home/src"), &src).map_err(verr("src"))?;
            let spec = DocCollectionSpec {
                files: n(1500),
                files_per_dir: 50,
                seed: seed ^ 0xd0c5,
                ..DocCollectionSpec::default()
            };
            let docs = generate_docs(vfs, &p("/home/docs"), &spec).map_err(verr("docs"))?;
            let (few, mid) = pick_terms(&fs, &docs.files, &vocab);
            fs.ssync(&VPath::root()).map_err(err("cold ssync"))?;
            fs.mkdir_p(&p("/home/sem")).map_err(err("mkdir"))?;
            let dirs: [(&str, String); 6] = [
                ("/home/sem/alice", "from:alice".into()),
                ("/home/sem/fp", "fingerprint".into()),
                ("/home/sem/fp/budget", "budget".into()),
                (
                    "/home/sem/docs-mid",
                    format!("{} AND path(/home/docs)", mid[0]),
                ),
                ("/home/sem/src-hot", "return AND path(/home/src)".into()),
                (
                    "/home/sem/alice-deadline",
                    "deadline AND path(/home/sem/alice)".into(),
                ),
            ];
            for (dir, q) in &dirs {
                fs.smkdir(&p(dir), q).map_err(err("smkdir"))?;
            }
            (
                docs.files,
                vec![
                    p("/home/sem/fp"),
                    p("/home/sem/alice"),
                    p("/home/sem/docs-mid"),
                ],
                few,
                mid,
            )
        }
        Kind::Archive => {
            let spec = DocCollectionSpec {
                files: n(6000),
                files_per_dir: if scale < 1.0 { 50 } else { 250 },
                seed,
                ..DocCollectionSpec::default()
            };
            let docs = generate_docs(fs.vfs(), &p("/archive"), &spec).map_err(verr("docs"))?;
            let (few, mid) = pick_terms(&fs, &docs.files, &vocab);
            fs.ssync(&VPath::root()).map_err(err("cold ssync"))?;
            fs.mkdir_p(&p("/sem")).map_err(err("mkdir"))?;
            let dirs = [
                ("/sem/a", format!("{} AND path(/archive/d0001)", mid[1])),
                ("/sem/b", format!("{} AND path(/archive/d0003)", few[1])),
                ("/sem/c", format!("{} AND path(/archive)", few[2])),
            ];
            for (dir, q) in &dirs {
                fs.smkdir(&p(dir), q).map_err(err("smkdir"))?;
            }
            (docs.files, vec![p("/sem/a"), p("/sem/c")], few, mid)
        }
    };
    let mut doc_dirs: Vec<VPath> = docs.iter().filter_map(|d| d.parent()).collect();
    doc_dirs.dedup();
    Ok(Env {
        kind,
        fs,
        docs,
        doc_dirs,
        semdirs,
        few,
        mid,
        vocab,
        text_rng: hac_corpus::words::rng(seed ^ 0x7e47),
        saved_bytes: 0,
        store_dir: store_path,
    })
}

/// Bytes under a directory tree.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Session state that outlives single ops.
struct Session {
    /// Op mix and search class mix.
    ops: Deck,
    searches: Deck,
    /// Mixes within an op kind: new mail or rewritten doc; which link edit
    /// in which semantic directory; which scratch directory gets which
    /// query shape, and whether it is retired first.
    saves: Deck,
    links: Deck,
    link_dirs: Deck,
    slots: Deck,
    shapes: Deck,
    retire: Deck,
    /// Session seconds at the end of each op-mix cycle.
    cycles: Vec<f64>,
    /// Scratch semantic directories in use.
    scratch: [bool; 4],
    pins: u64,
    new_mail: u64,
    /// Counter readings for the per-layer counts.
    counts: BTreeMap<&'static str, f64>,
}

impl Session {
    fn new(kind: Kind) -> Session {
        // search, save, ssync, smkdir/set_query, link edit
        let ops: &[usize] = match kind {
            Kind::Desk => &[8, 5, 2, 2, 3],
            Kind::Archive => &[16, 3, 1, 0, 0],
        };
        Session {
            ops: Deck::new(ops),
            searches: Deck::new(match kind {
                Kind::Desk => &[1; 8],
                Kind::Archive => &[2, 2, 1, 1, 1, 1],
            }),
            saves: Deck::new(match kind {
                Kind::Desk => &[2, 3],
                Kind::Archive => &[0, 1],
            }),
            links: Deck::new(&[1, 1, 1]),
            link_dirs: Deck::new(&[1, 1, 1]),
            slots: Deck::new(&[1; 4]),
            shapes: Deck::new(&[1; 4]),
            retire: Deck::new(&[1, 3]),
            cycles: Vec::new(),
            scratch: [false; 4],
            pins: 0,
            new_mail: 0,
            counts: BTreeMap::new(),
        }
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }
}

/// One session op, chosen from the seed.
fn step(env: &mut Env, s: &mut Session, rec: &mut Recorder, rng: &mut Rng) {
    match s.ops.draw(rng) {
        0 => search(env, s, rec, rng),
        1 => save(env, s, rec, rng),
        2 => ssync(env, s, rec),
        3 => requery(env, s, rec, rng),
        _ => link_edit(env, s, rec, rng),
    }
}

/// Search classes of `desk`: scope and term selectivity. Each class is one
/// query in one scope, its term picked by document frequency
/// ([`pick_terms`]), so every seed runs searches of the same cost. The
/// session deals the classes in equal shares, and `search_p50_us` is the
/// geometric mean of their medians: a run's figure does not hinge on where
/// a pooled median falls between classes of very different cost.
pub const DESK_SEARCHES: [&str; 8] = [
    "search.root_few",
    "search.root_mid",
    "search.docs_few",
    "search.docs_mid",
    "search.dir_mid",
    "search.semdir_few",
    "search.mail_field",
    "search.semdir_field",
];

/// Search classes of `archive` (see [`DESK_SEARCHES`]). Whole-archive
/// searches get twice the share of the others, so they hold the tail.
pub const ARCHIVE_SEARCHES: [&str; 6] = [
    "search.archive_few",
    "search.archive_mid",
    "search.dir_few",
    "search.dir_mid",
    "search.root_few",
    "search.root_mid",
];

/// The search classes of `kind`.
pub fn search_classes(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Desk => &DESK_SEARCHES,
        Kind::Archive => &ARCHIVE_SEARCHES,
    }
}

/// The (scope, query) of search class `cell`.
fn search_query(env: &Env, cell: usize) -> (VPath, String) {
    let dir = |k: usize| env.doc_dirs[k % env.doc_dirs.len()].clone();
    let (few, mid) = (&env.few, &env.mid);
    match (env.kind, cell) {
        (Kind::Desk, 0) => (VPath::root(), few[0].clone()),
        (Kind::Desk, 1) => (VPath::root(), mid[2].clone()),
        (Kind::Desk, 2) => (p("/home/docs"), few[3].clone()),
        (Kind::Desk, 3) => (p("/home/docs"), mid[5].clone()),
        (Kind::Desk, 4) => (dir(7), mid[3].clone()),
        (Kind::Desk, 5) => (p("/home/sem/docs-mid"), few[6].clone()),
        (Kind::Desk, 6) => (p("/home/mail"), "from:carol AND deadline".into()),
        (Kind::Desk, _) => (p("/home/sem/fp"), "from:dave".into()),
        (Kind::Archive, 0) => (p("/archive"), few[0].clone()),
        (Kind::Archive, 1) => (p("/archive"), mid[2].clone()),
        (Kind::Archive, 2) => (dir(5), few[3].clone()),
        (Kind::Archive, 3) => (dir(9), mid[5].clone()),
        (Kind::Archive, 4) => (VPath::root(), few[4].clone()),
        (Kind::Archive, _) => (VPath::root(), mid[6].clone()),
    }
}

fn search(env: &mut Env, s: &mut Session, rec: &mut Recorder, rng: &mut Rng) {
    let cell = s.searches.draw(rng);
    let class = search_classes(env.kind)[cell];
    let (scope, query) = search_query(env, cell);
    let before = env.fs.vfs().attr_cache_stats();
    let (res, _) = rec.op(class, Some(&query), || env.fs.search(&scope, &query));
    let after = env.fs.vfs().attr_cache_stats();
    s.add("attr_hits", (after.hits - before.hits) as f64);
    s.add("attr_misses", (after.misses - before.misses) as f64);
    s.add(
        "attr_evictions",
        (after.evictions - before.evictions) as f64,
    );
    match res {
        Ok(hits) => {
            rec.digest
                .feed(format!("search {scope} {query} {}", hits.len()).as_bytes());
            if rec.tracing {
                // Work counters of the same search, from the public
                // explain accessor (not timed).
                if let Ok((_, st)) = env.fs.search_explained(&scope, &query) {
                    s.add("searches_explained", 1.0);
                    s.add("candidates", st.candidates as f64);
                    s.add("verified", st.verified as f64);
                    s.add("useful", (st.verified - st.false_positives) as f64);
                    s.add("postings", st.postings_scanned as f64);
                }
            }
        }
        Err(e) => rec.fail(format!("search {scope} {query}: {e}")),
    }
}

fn save(env: &mut Env, s: &mut Session, rec: &mut Recorder, rng: &mut Rng) {
    let (path, body) = if s.saves.draw(rng) == 0 {
        s.new_mail += 1;
        let from = rng.pick(SENDERS);
        let topic = rng.pick(TOPICS);
        let words = env.vocab.sample_text(&mut env.text_rng, 40);
        (
            p(&format!("/home/mail/new{:05}.eml", s.new_mail)),
            format!(
                "From: {from} <{from}@example.org>\r\nTo: bob <bob@example.org>\r\n\
                 Subject: {topic} follow-up {}\r\n\r\n{words} {topic}\r\n",
                s.new_mail
            ),
        )
    } else {
        let path = rng.pick(&env.docs).clone();
        let n = 60 + rng.below(120);
        (path, env.vocab.sample_text(&mut env.text_rng, n))
    };
    env.saved_bytes += body.len() as u64;
    rec.digest
        .feed(format!("save {path} {}", body.len()).as_bytes());
    if let (Err(e), _) = rec.op("save", None, || env.fs.save(&path, body.as_bytes())) {
        rec.fail(format!("save {path}: {e}"));
    }
}

fn ssync(env: &mut Env, s: &mut Session, rec: &mut Recorder) {
    let segments = hac_obs::counter("hac_store_segments_written_total", &[]);
    let before = segments.get();
    match rec.op("ssync", None, || env.fs.ssync(&VPath::root())).0 {
        Ok(r) => {
            rec.digest.feed(
                format!(
                    "ssync {} {} {} {}",
                    r.added, r.updated, r.removed, r.dirs_synced
                )
                .as_bytes(),
            );
            s.add("ssyncs", 1.0);
            s.add("ssync_dirs", r.dirs_synced as f64);
            s.add("ssync_files", (r.added + r.updated + r.removed) as f64);
            s.add("segments", (segments.get() - before) as f64);
        }
        Err(e) => rec.fail(format!("ssync: {e}")),
    }
}

fn requery(env: &mut Env, s: &mut Session, rec: &mut Recorder, rng: &mut Rng) {
    let slot = s.slots.draw(rng);
    let dir = p(&format!("/home/sem/q{slot}"));
    let query = match s.shapes.draw(rng) {
        0 => rng.pick(&env.mid).clone(),
        1 => format!(
            "{} AND path({})",
            rng.pick(&env.few),
            rng.pick(&env.doc_dirs)
        ),
        2 => format!("{} AND path(/home/sem/alice)", rng.pick(TOPICS)),
        _ => format!("from:{} OR {}", rng.pick(SENDERS), rng.pick(TOPICS)),
    };
    if s.retire.draw(rng) == 0 && s.scratch[slot] {
        // Retire the directory so creation stays part of the mix.
        if let Err(e) = env.fs.remove_recursive(&dir) {
            rec.fail(format!("remove {dir}: {e}"));
            return;
        }
        s.scratch[slot] = false;
    }
    let res = if s.scratch[slot] {
        rec.op("smkdir", Some(&query), || env.fs.set_query(&dir, &query))
            .0
            .map(|_| ())
    } else {
        rec.op("smkdir", Some(&query), || env.fs.smkdir(&dir, &query))
            .0
            .map(|_| ())
    };
    match res {
        Ok(()) => {
            s.scratch[slot] = true;
            let links = env.fs.list_links(&dir).map(|l| l.len()).unwrap_or(0);
            rec.digest
                .feed(format!("requery {dir} {query} {links}").as_bytes());
        }
        Err(e) => rec.fail(format!("smkdir/set_query {dir} {query}: {e}")),
    }
}

fn link_edit(env: &mut Env, s: &mut Session, rec: &mut Recorder, rng: &mut Rng) {
    let dir = env.semdirs[s.link_dirs.draw(rng) % env.semdirs.len()].clone();
    let transient: Vec<String> = env
        .fs
        .list_links(&dir)
        .map(|links| {
            links
                .into_iter()
                .filter(|l| l.kind == LinkKind::Transient)
                .map(|l| l.name)
                .collect()
        })
        .unwrap_or_default();
    // Pin when the directory has no transient link left to act on.
    let choice = match s.links.draw(rng) {
        _ if transient.is_empty() => 1,
        k => k,
    };
    let res = match choice {
        0 => {
            let link = dir.join(rng.pick(&transient).as_str()).expect("link name");
            rec.digest.feed(format!("unlink {link}").as_bytes());
            rec.op("link_edit", None, || env.fs.unlink(&link)).0
        }
        1 => {
            s.pins += 1;
            let link = dir.join(&format!("pin{}", s.pins)).expect("link name");
            let target = rng.pick(&env.docs).clone();
            rec.digest.feed(format!("pin {link} {target}").as_bytes());
            rec.op("link_edit", None, || env.fs.symlink(&link, &target))
                .0
                .map(|_| ())
        }
        _ => {
            let link = dir.join(rng.pick(&transient).as_str()).expect("link name");
            rec.digest.feed(format!("permanent {link}").as_bytes());
            rec.op("link_edit", None, || env.fs.make_permanent(&link)).0
        }
    };
    if let Err(e) = res {
        rec.fail(format!("link edit in {dir}: {e}"));
    }
}

/// Sorted result paths.
fn sorted(paths: Vec<VPath>) -> Vec<String> {
    let mut v: Vec<String> = paths.into_iter().map(|p| p.to_string()).collect();
    v.sort();
    v
}

/// The scope a semantic directory provides: its files and link targets.
fn semdir_members(fs: &HacFs, dir: &VPath) -> Vec<String> {
    let mut out = Vec::new();
    for entry in fs.readdir(dir).unwrap_or_default() {
        let Ok(path) = dir.join(&entry.name) else {
            continue;
        };
        match entry.kind {
            NodeKind::File => out.push(path.to_string()),
            NodeKind::Symlink => {
                if let Ok(target) = fs.readlink(&path) {
                    if let Ok(id) = fs.vfs().resolve(&target) {
                        if let Ok(real) = fs.vfs().path_of(id) {
                            out.push(real.to_string());
                        }
                    }
                }
            }
            NodeKind::Dir => {}
        }
    }
    out
}

/// Replays every search class, and terms the session never searched for,
/// against a cold-indexed copy of the final files: the incremental index
/// must answer exactly as a cold one.
fn check_against_cold(env: &Env, rec: &mut Recorder) {
    let live = &env.fs;
    if let Err(e) = live.ssync(&VPath::root()) {
        rec.check(false, || format!("final ssync: {e}"));
        return;
    }
    let cold = HacFs::new();
    let files = hac_vfs::walk(live.vfs(), &VPath::root()).unwrap_or_default();
    for f in files {
        if f.attr.kind != NodeKind::File || f.path.to_string().starts_with("/.hac-meta") {
            continue;
        }
        let copied = live
            .read_file(&f.path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                if let Some(parent) = f.path.parent() {
                    cold.mkdir_p(&parent).map_err(|e| e.to_string())?;
                }
                cold.save(&f.path, &bytes).map_err(|e| e.to_string())
            });
        if let Err(e) = copied {
            rec.check(false, || format!("copy {}: {e}", f.path));
            return;
        }
    }
    if let Err(e) = cold.ssync(&VPath::root()) {
        rec.check(false, || format!("cold ssync: {e}"));
        return;
    }
    let mut pairs: Vec<(VPath, String)> = (0..search_classes(env.kind).len())
        .map(|cell| search_query(env, cell))
        .collect();
    for dir in &env.semdirs {
        pairs.push((dir.clone(), env.mid[0].clone()));
    }
    pairs.push((VPath::root(), env.few[1].clone()));
    pairs.push((VPath::root(), env.mid[1].clone()));
    pairs.push((env.doc_dirs[0].clone(), env.few[2].clone()));
    for (scope, query) in &pairs {
        let got = live.search(scope, query).map(sorted);
        let want = if live.is_semantic(scope) {
            let members = semdir_members(live, scope);
            cold.search(&VPath::root(), query)
                .map(sorted)
                .map(|all| all.into_iter().filter(|p| members.contains(p)).collect())
        } else {
            cold.search(scope, query).map(sorted)
        };
        match (got, want) {
            (Ok(got), Ok(want)) => {
                rec.digest
                    .feed(format!("check {scope} {query} {}", got.len()).as_bytes());
                rec.check(got == want, || {
                    format!(
                        "incremental != cold for {query:?} in {scope}: {} vs {} hits",
                        got.len(),
                        want.len()
                    )
                });
            }
            (got, want) => rec.check(false, || {
                format!(
                    "check {query:?} in {scope}: {:?} / {:?}",
                    got.err(),
                    want.err()
                )
            }),
        }
    }
}

/// Runs the session loop until the budget is spent; returns ops completed
/// per second: one op-mix cycle divided by the median time a cycle took,
/// so neither a run's last, partial cycle nor a burst of outside load on
/// one cycle moves it (over all ops when no cycle completed).
fn session_loop(
    env: &mut Env,
    s: &mut Session,
    rec: &mut Recorder,
    rng: &mut Rng,
    budget: Budget,
) -> Metric {
    let start = std::time::Instant::now();
    let mut done = 0;
    s.cycles.clear();
    while budget.allows(done) {
        step(env, s, rec, rng);
        done += 1;
        if s.ops.cycle_done() {
            s.cycles.push(start.elapsed().as_secs_f64());
        }
    }
    let mut cycle_s = Samples::default();
    let mut prev = 0.0;
    for &at in &s.cycles {
        cycle_s.push(at - prev);
        prev = at;
    }
    if cycle_s.is_empty() {
        let secs = start.elapsed().as_secs_f64();
        return Metric::new(done as f64 / secs.max(1e-9), "1/s", done);
    }
    Metric::new(s.ops.cycle_len() as f64 / cycle_s.p50(), "1/s", done)
}

/// Runs `desk` or `archive`.
pub fn run(kind: Kind, config: &Config, work: &Path) -> Result<Outcome, String> {
    hac_obs::set_tracing_enabled(false);
    let (env, setup_s, setup_rss) = timed_setup(|rep| {
        let store = (kind == Kind::Desk).then(|| work.join(format!("store{rep}")));
        setup(kind, config.seed, config.scale, store.as_deref())
    });
    let mut env = env?;
    let mut rec = Recorder::default();
    let mut s = Session::new(kind);
    let mut rng = Rng::new(config.seed, 1);
    let store_before = env.store_dir.as_deref().map(dir_bytes).unwrap_or(0);

    // The end-to-end run measures the whole budget untraced. The traced
    // run measures half untraced (the overhead baseline) and half traced.
    let (untraced_s, traced_s) = if config.trace {
        (config.seconds / 2.0, config.seconds / 2.0)
    } else {
        (config.seconds, 0.0)
    };
    let half = config.max_ops.map(|n| if config.trace { n / 2 } else { n });
    let ops_per_s = session_loop(
        &mut env,
        &mut s,
        &mut rec,
        &mut rng,
        Budget::new(untraced_s, half),
    );
    let session_rss_mb = peak_rss_mb();
    if config.trace {
        hac_obs::set_tracing_enabled(true);
        rec.tracing = true;
        session_loop(
            &mut env,
            &mut s,
            &mut rec,
            &mut rng,
            Budget::new(traced_s, half),
        );
        hac_obs::set_tracing_enabled(false);
    }
    let store_after = env.store_dir.as_deref().map(dir_bytes).unwrap_or(0);
    check_against_cold(&env, &mut rec);

    let classes = search_classes(kind);
    let searches = rec.search_metrics(classes, false);
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s".to_string(), setup_s);
    e2e.insert("ops_per_s".to_string(), ops_per_s);
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
    let ssync = rec.samples("ssync");
    report.insert("ssync_p50_ms".into(), Metric::p50(&ssync, "ms", 1e-3));
    report.insert("ssync_tail_ms".into(), Metric::tail(&ssync, "ms", 1e-3));
    report.insert(
        "save_p50_us".into(),
        Metric::p50(&rec.samples("save"), "us", 1.0),
    );
    if kind == Kind::Desk {
        report.insert(
            "smkdir_p50_ms".into(),
            Metric::p50(&rec.samples("smkdir"), "ms", 1e-3),
        );
        report.insert(
            "link_edit_p50_us".into(),
            Metric::p50(&rec.samples("link_edit"), "us", 1.0),
        );
    }

    let c = |k: &str| s.counts.get(k).copied().unwrap_or(0.0);
    let traced_ops = rec.traced.len() as u64;
    let mut layer_set = rec.layer_metrics(classes);
    let lookups = c("attr_hits") + c("attr_misses");
    let mut put = |name: &str, value: f64, unit: &'static str, n: u64| {
        let m = Metric::new(value, unit, n);
        report.insert(name.to_string(), m.clone());
        layer_set.insert(name.to_string(), m);
    };
    let search_n = rec.pooled(classes).len() as u64
        + rec
            .traced
            .iter()
            .filter(|(c, _)| classes.contains(c))
            .count() as u64;
    put(
        "vfs.attr_hit_ratio",
        c("attr_hits") / lookups.max(1.0),
        "ratio",
        search_n,
    );
    put(
        "vfs.attr_evictions_per_op",
        c("attr_evictions") / (search_n.max(1) as f64),
        "count",
        search_n,
    );
    let explained = c("searches_explained").max(1.0);
    put(
        "index.candidates_per_search",
        c("candidates") / explained,
        "count",
        c("searches_explained") as u64,
    );
    put(
        "index.verified_per_search",
        c("verified") / explained,
        "count",
        c("searches_explained") as u64,
    );
    put(
        "index.useful_ratio",
        c("useful") / c("verified").max(1.0),
        "ratio",
        c("searches_explained") as u64,
    );
    put(
        "index.postings_per_search",
        c("postings") / explained,
        "count",
        c("searches_explained") as u64,
    );
    let ssyncs = c("ssyncs").max(1.0);
    put(
        "semdir.dirs_per_ssync",
        c("ssync_dirs") / ssyncs,
        "count",
        c("ssyncs") as u64,
    );
    put(
        "ssync.files_per_pass",
        c("ssync_files") / ssyncs,
        "count",
        c("ssyncs") as u64,
    );
    put(
        "store.segments_per_ssync",
        c("segments") / ssyncs,
        "count",
        c("ssyncs") as u64,
    );
    put(
        "store.bytes_per_user_byte",
        store_after.saturating_sub(store_before) as f64 / (env.saved_bytes.max(1) as f64),
        "ratio",
        1,
    );
    put("net.pool_waiters", 0.0, "count", traced_ops);
    put("fed.partial_frac", 0.0, "ratio", traced_ops);
    put("gen.late_frac", 0.0, "ratio", traced_ops);
    Ok(finish(&rec, config, e2e, layer_set, report))
}
