//! Incremental-reindex bookkeeping: dirty sets, the term→semdir "query
//! index", and the doc→path map.
//!
//! The paper's data-consistency policy (§2.4) only stays cheap if a reindex
//! pass costs what *changed*, not what exists. Three structures make that
//! possible:
//!
//! * [`DirtySet`] — the documents one pass added / re-indexed / dropped,
//!   plus the token keys those documents contributed;
//! * [`QueryIndex`] — an inverted map from token keys to the semantic
//!   directories whose queries mention them, so `resync_dirty` can seed the
//!   re-evaluation set by intersecting query terms with dirty postings
//!   instead of re-evaluating every directory;
//! * [`DocPathMap`] — the path each document was indexed under, ordered so
//!   stale-entry detection for a subtree is a prefix range scan, not a walk
//!   of the whole index.

use std::collections::{BTreeMap, HashMap, HashSet};

use hac_index::token::normalize_word;
use hac_index::{DocId, Token};
use hac_query::QueryExpr;
use hac_vfs::{FileId, VPath};

/// What one reindex pass changed in the CBA index.
#[derive(Debug, Default, Clone)]
pub struct DirtySet {
    /// Documents indexed for the first time.
    pub added: HashSet<DocId>,
    /// Documents re-indexed because their content version changed.
    pub updated: HashSet<DocId>,
    /// Documents dropped because the file vanished.
    pub removed: HashSet<DocId>,
    /// Token keys (see [`Token::key`]) contributed by the added and
    /// updated documents. Removed documents contribute no keys — their
    /// effect on a query result is caught by membership in the old result.
    pub terms: HashSet<String>,
}

impl DirtySet {
    /// An empty dirty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the pass changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.updated.is_empty() && self.removed.is_empty()
    }

    /// Number of dirty documents.
    pub fn doc_count(&self) -> u64 {
        (self.added.len() + self.updated.len() + self.removed.len()) as u64
    }

    /// Iterates every dirty document once (a doc can only be in one set).
    pub fn docs(&self) -> impl Iterator<Item = DocId> + '_ {
        self.added
            .iter()
            .chain(self.updated.iter())
            .chain(self.removed.iter())
            .copied()
    }

    /// Records the token keys of an added or updated document.
    pub fn absorb_tokens(&mut self, tokens: &[Token]) {
        for t in tokens {
            self.terms.insert(t.key());
        }
    }
}

/// Per-directory registration kept so a query can be unregistered (or
/// re-registered on `set_query`) without re-walking the old expression.
#[derive(Debug, Default, Clone)]
struct QueryKeys {
    terms: Vec<String>,
    prefixes: Vec<String>,
    broad: bool,
}

/// Inverted index over semantic-directory queries: token key → directories
/// whose query mentions it.
///
/// Queries whose sensitivity cannot be reduced to a term set — `All`,
/// `NOT …` (complement over the scope), `~word` (approximate match may
/// reach terms we cannot enumerate), and `path(...)` references to
/// *syntactic* directories (their subtree scope shifts with any file
/// change) — register as **broad** and are seeded whenever any document is
/// dirty. References to *semantic* directories are already handled by the
/// dependency graph's `update_order` cascade, but classifying every
/// `Dir(..)` as broad keeps the seed computation independent of what kind
/// of directory the reference resolves to today.
#[derive(Debug, Default)]
pub struct QueryIndex {
    by_term: HashMap<String, HashSet<FileId>>,
    by_prefix: HashMap<String, HashSet<FileId>>,
    broad: HashSet<FileId>,
    keys_of: HashMap<FileId, QueryKeys>,
}

impl QueryIndex {
    /// An empty query index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) a directory's query.
    pub fn insert(&mut self, dir: FileId, expr: &QueryExpr) {
        self.remove(dir);
        let mut keys = QueryKeys::default();
        collect_keys(expr, &mut keys);
        keys.terms.sort();
        keys.terms.dedup();
        keys.prefixes.sort();
        keys.prefixes.dedup();
        for t in &keys.terms {
            self.by_term.entry(t.clone()).or_default().insert(dir);
        }
        for p in &keys.prefixes {
            self.by_prefix.entry(p.clone()).or_default().insert(dir);
        }
        if keys.broad {
            self.broad.insert(dir);
        }
        self.keys_of.insert(dir, keys);
    }

    /// Unregisters a directory (no-op when absent).
    pub fn remove(&mut self, dir: FileId) {
        let Some(keys) = self.keys_of.remove(&dir) else {
            return;
        };
        for t in &keys.terms {
            if let Some(set) = self.by_term.get_mut(t) {
                set.remove(&dir);
                if set.is_empty() {
                    self.by_term.remove(t);
                }
            }
        }
        for p in &keys.prefixes {
            if let Some(set) = self.by_prefix.get_mut(p) {
                set.remove(&dir);
                if set.is_empty() {
                    self.by_prefix.remove(p);
                }
            }
        }
        self.broad.remove(&dir);
    }

    /// Number of registered directories.
    pub fn len(&self) -> usize {
        self.keys_of.len()
    }

    /// True when no directory is registered.
    pub fn is_empty(&self) -> bool {
        self.keys_of.is_empty()
    }

    /// The directories whose query terms intersect the dirty token keys
    /// (plus every broad query, when anything is dirty at all).
    pub fn seeds(&self, dirty: &DirtySet) -> HashSet<FileId> {
        let mut out = HashSet::new();
        if dirty.is_empty() {
            return out;
        }
        out.extend(self.broad.iter().copied());
        for term in &dirty.terms {
            if let Some(dirs) = self.by_term.get(term) {
                out.extend(dirs.iter().copied());
            }
        }
        for (prefix, dirs) in &self.by_prefix {
            if dirty.terms.iter().any(|t| t.starts_with(prefix.as_str())) {
                out.extend(dirs.iter().copied());
            }
        }
        out
    }
}

fn collect_keys(expr: &QueryExpr, keys: &mut QueryKeys) {
    match expr {
        QueryExpr::Term(t) => keys.terms.push(normalize_word(t)),
        QueryExpr::Field(n, v) => keys.terms.push(Token::field_key(n, v)),
        QueryExpr::Phrase(ws) => {
            // A document can only gain/lose a phrase match if it
            // gains/loses one of the phrase's words.
            keys.terms.extend(ws.iter().map(|w| normalize_word(w)));
        }
        QueryExpr::Prefix(t) => keys.prefixes.push(normalize_word(t)),
        QueryExpr::Approx(..) | QueryExpr::All | QueryExpr::Dir(_) => keys.broad = true,
        QueryExpr::Not(a) => {
            // Complement: a doc *leaving* the operand's match set enters the
            // result, so any dirty doc is relevant.
            keys.broad = true;
            collect_keys(a, keys);
        }
        QueryExpr::And(a, b) | QueryExpr::Or(a, b) | QueryExpr::AndNot(a, b) => {
            collect_keys(a, keys);
            collect_keys(b, keys);
        }
    }
}

/// The path every document was last indexed under, with a sorted view so
/// "which indexed docs lived under this subtree?" is a range scan.
///
/// Paths here are *as of the last reindex* — a rename can leave them stale
/// until the next pass, so consumers must verify against the live namespace
/// before acting on an entry (exactly the paper's lazy-consistency
/// contract).
#[derive(Debug, Default)]
pub struct DocPathMap {
    by_path: BTreeMap<String, DocId>,
    paths: HashMap<DocId, String>,
}

impl DocPathMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or moves) a document's indexed path.
    ///
    /// Two documents can transiently claim one path (a file replaced in
    /// place by a new inode before the old doc is swept); `by_path` then
    /// holds the latest claimant, so releases of a path entry must check
    /// ownership first.
    pub fn record(&mut self, doc: DocId, path: &VPath) {
        let key = path.to_string();
        if let Some(old) = self.paths.get(&doc) {
            if *old == key {
                return;
            }
            if self.by_path.get(old) == Some(&doc) {
                self.by_path.remove(old);
            }
        }
        self.by_path.insert(key.clone(), doc);
        self.paths.insert(doc, key);
    }

    /// Drops a document.
    pub fn forget(&mut self, doc: DocId) {
        if let Some(old) = self.paths.remove(&doc) {
            if self.by_path.get(&old) == Some(&doc) {
                self.by_path.remove(&old);
            }
        }
    }

    /// The recorded path of a document, if any.
    pub fn path_of(&self, doc: DocId) -> Option<&str> {
        self.paths.get(&doc).map(String::as_str)
    }

    /// All recorded (doc, path) entries — the payload of a durable
    /// checkpoint's path sidecar.
    pub fn dump(&self) -> Vec<(u64, String)> {
        self.paths.iter().map(|(d, p)| (d.0, p.clone())).collect()
    }

    /// Number of recorded documents.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Every document recorded at or under `root`, via a prefix range scan
    /// (cost proportional to the subtree, not the index).
    pub fn docs_under(&self, root: &VPath) -> Vec<DocId> {
        let root_str = root.to_string();
        if root_str == "/" {
            return self.by_path.values().copied().collect();
        }
        let mut out = Vec::new();
        if let Some(&doc) = self.by_path.get(&root_str) {
            out.push(doc);
        }
        // '/' + 1 == '0' in ASCII, so every "<root>/…" key sorts into
        // ["<root>/", "<root>0").
        let lo = format!("{root_str}/");
        let hi = format!("{root_str}0");
        out.extend(self.by_path.range(lo..hi).map(|(_, &d)| d));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn dirty_set_tracks_docs_and_terms() {
        let mut d = DirtySet::new();
        assert!(d.is_empty());
        d.added.insert(DocId(1));
        d.updated.insert(DocId(2));
        d.removed.insert(DocId(3));
        d.absorb_tokens(&[Token::word("Fox"), Token::field("ext", "txt")]);
        assert!(!d.is_empty());
        assert_eq!(d.doc_count(), 3);
        assert_eq!(d.docs().count(), 3);
        assert!(d.terms.contains("fox"));
        assert!(d.terms.contains(&Token::field_key("ext", "txt")));
    }

    #[test]
    fn query_index_seeds_by_term_intersection() {
        let mut qi = QueryIndex::new();
        let a = FileId(10);
        let b = FileId(11);
        qi.insert(a, &QueryExpr::Term("alpha".into()));
        qi.insert(
            b,
            &QueryExpr::and(
                QueryExpr::Term("beta".into()),
                QueryExpr::Field("ext".into(), "txt".into()),
            ),
        );

        let mut dirty = DirtySet::new();
        dirty.added.insert(DocId(1));
        dirty.terms.insert("alpha".into());
        let seeds = qi.seeds(&dirty);
        assert!(seeds.contains(&a));
        assert!(!seeds.contains(&b));

        let mut dirty2 = DirtySet::new();
        dirty2.updated.insert(DocId(2));
        dirty2.terms.insert(Token::field_key("ext", "txt"));
        let seeds2 = qi.seeds(&dirty2);
        assert!(seeds2.contains(&b));
        assert!(!seeds2.contains(&a));
    }

    #[test]
    fn query_index_broad_and_prefix_queries() {
        let mut qi = QueryIndex::new();
        let broad = FileId(1);
        let pre = FileId(2);
        let narrow = FileId(3);
        qi.insert(
            broad,
            &QueryExpr::Not(Box::new(QueryExpr::Term("x".into()))),
        );
        qi.insert(pre, &QueryExpr::Prefix("fing".into()));
        qi.insert(narrow, &QueryExpr::Term("zzz".into()));

        let mut dirty = DirtySet::new();
        dirty.added.insert(DocId(9));
        dirty.terms.insert("fingerprint".into());
        let seeds = qi.seeds(&dirty);
        assert!(seeds.contains(&broad), "broad queries seed on any change");
        assert!(seeds.contains(&pre), "prefix matches dirty term");
        assert!(!seeds.contains(&narrow));

        // Empty dirty set seeds nothing, even with broad queries present.
        assert!(qi.seeds(&DirtySet::new()).is_empty());
    }

    #[test]
    fn query_index_remove_and_reinsert() {
        let mut qi = QueryIndex::new();
        let a = FileId(5);
        qi.insert(a, &QueryExpr::Term("old".into()));
        qi.insert(a, &QueryExpr::Term("new".into()));
        assert_eq!(qi.len(), 1);

        let mut dirty = DirtySet::new();
        dirty.added.insert(DocId(1));
        dirty.terms.insert("old".into());
        assert!(qi.seeds(&dirty).is_empty(), "stale registration must drop");

        dirty.terms.insert("new".into());
        assert!(qi.seeds(&dirty).contains(&a));

        qi.remove(a);
        assert!(qi.is_empty());
        assert!(qi.seeds(&dirty).is_empty());
    }

    #[test]
    fn doc_path_map_prefix_scan_is_exact() {
        let mut m = DocPathMap::new();
        m.record(DocId(1), &p("/a/b"));
        m.record(DocId(2), &p("/a/b/file1"));
        m.record(DocId(3), &p("/a/b/sub/file2"));
        m.record(DocId(4), &p("/a/bc")); // sibling sharing the byte prefix
        m.record(DocId(5), &p("/a/b!")); // sorts between "/a/b" and "/a/b/"
        m.record(DocId(6), &p("/z"));

        let mut under: Vec<u64> = m.docs_under(&p("/a/b")).iter().map(|d| d.0).collect();
        under.sort();
        assert_eq!(under, vec![1, 2, 3]);

        assert_eq!(m.docs_under(&p("/")).len(), 6);
        assert!(m.docs_under(&p("/nope")).is_empty());
    }

    #[test]
    fn doc_path_map_record_moves_and_forget() {
        let mut m = DocPathMap::new();
        m.record(DocId(1), &p("/a/x"));
        m.record(DocId(1), &p("/b/x")); // moved
        assert_eq!(m.len(), 1);
        assert_eq!(m.path_of(DocId(1)), Some("/b/x"));
        assert!(m.docs_under(&p("/a")).is_empty());
        assert_eq!(m.docs_under(&p("/b")).len(), 1);

        m.forget(DocId(1));
        assert!(m.is_empty());
        assert!(m.path_of(DocId(1)).is_none());
    }

    #[test]
    fn doc_path_map_replace_at_same_path_keeps_new_doc() {
        // A file replaced in place (delete+recreate or rename-over) puts a
        // new inode at the old doc's recorded path before the stale doc is
        // swept; forgetting the old doc must not drop the new doc's entry.
        let mut m = DocPathMap::new();
        m.record(DocId(1), &p("/a"));
        m.record(DocId(2), &p("/a"));
        m.forget(DocId(1));
        assert_eq!(m.path_of(DocId(2)), Some("/a"));
        let under: Vec<u64> = m.docs_under(&p("/")).iter().map(|d| d.0).collect();
        assert_eq!(under, vec![2], "new doc must survive the stale sweep");
        assert!(m.path_of(DocId(1)).is_none());
    }

    #[test]
    fn doc_path_map_move_does_not_drop_other_docs_entry() {
        // Doc 2 takes over doc 1's path, then doc 1 moves away: the move
        // must release only entries doc 1 still owns.
        let mut m = DocPathMap::new();
        m.record(DocId(1), &p("/a"));
        m.record(DocId(2), &p("/a")); // shadows doc 1 at /a
        m.record(DocId(1), &p("/c")); // doc 1 moves; /a belongs to doc 2
        assert_eq!(m.path_of(DocId(2)), Some("/a"));
        assert_eq!(m.path_of(DocId(1)), Some("/c"));
        let mut under: Vec<u64> = m.docs_under(&p("/")).iter().map(|d| d.0).collect();
        under.sort();
        assert_eq!(under, vec![1, 2]);
    }
}
