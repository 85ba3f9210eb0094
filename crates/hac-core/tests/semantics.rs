//! Behavioural tests of the paper's semantics: semantic directories, link
//! classification, scope consistency, dependency-graph updates, and
//! semantic mount points.

use std::sync::Arc;

use hac_core::{HacError, HacFs, LinkKind, LinkTarget, NamespaceId};
use hac_vfs::VPath;

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

/// Standard corpus: four documents about fingerprints / email / groceries.
fn corpus() -> HacFs {
    let fs = HacFs::new();
    fs.mkdir_p(&p("/docs")).unwrap();
    fs.save(
        &p("/docs/algo.txt"),
        b"fingerprint matching algorithm ridge",
    )
    .unwrap();
    fs.save(
        &p("/docs/mail1.txt"),
        b"email about the fingerprint project deadline",
    )
    .unwrap();
    fs.save(&p("/docs/mail2.txt"), b"email about groceries milk eggs")
        .unwrap();
    fs.save(&p("/docs/socks.txt"), b"matching socks and gloves")
        .unwrap();
    fs.ssync(&p("/")).unwrap();
    fs
}

fn names(fs: &HacFs, dir: &str) -> Vec<String> {
    fs.readdir(&p(dir))
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect()
}

#[test]
fn smkdir_populates_transient_links() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt"]);
    // Links resolve to the real files.
    assert_eq!(
        &fs.read_file(&p("/fp/algo.txt")).unwrap()[..],
        b"fingerprint matching algorithm ridge"
    );
    // All links are transient.
    for link in fs.list_links(&p("/fp")).unwrap() {
        assert_eq!(link.kind, LinkKind::Transient);
    }
    assert!(fs.is_semantic(&p("/fp")));
    assert!(!fs.is_semantic(&p("/docs")));
}

#[test]
fn smkdir_on_root_rejected() {
    let fs = corpus();
    assert!(matches!(
        fs.smkdir(&p("/"), "x"),
        Err(HacError::RootHasNoQuery)
    ));
}

#[test]
fn and_not_query_from_the_paper() {
    let fs = corpus();
    // §2.3: "fingerprint AND NOT murder" — here NOT email.
    fs.smkdir(&p("/fp"), "fingerprint AND NOT email").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt"]);
}

#[test]
fn deleted_links_become_prohibited_and_stay_out() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.unlink(&p("/fp/mail1.txt")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt"]);

    // Neither an explicit re-sync nor a full reindex brings it back (§2.3:
    // "HAC will ensure that these links will not be implicitly added
    // later").
    fs.ssync(&p("/")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt"]);
    fs.reindex_full().unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt"]);

    let prohibited = fs.list_prohibited(&p("/fp")).unwrap();
    assert_eq!(prohibited.len(), 1);

    // The footnote API can lift the prohibition; the link returns.
    assert!(fs.forgive(&p("/fp"), &prohibited[0]).unwrap());
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt"]);
}

#[test]
fn user_symlinks_are_permanent_and_survive_everything() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    // The user adds a file that does NOT match the query (§2.3: "creating
    // new links to files that have related information, but were missed").
    fs.symlink(&p("/fp/socks"), &p("/docs/socks.txt")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt", "socks"]);

    fs.ssync(&p("/")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt", "socks"]);

    // Even a query change keeps the permanent link.
    fs.set_query(&p("/fp"), "ridge").unwrap();
    let links = fs.list_links(&p("/fp")).unwrap();
    let socks = links.iter().find(|l| l.name == "socks").unwrap();
    assert_eq!(socks.kind, LinkKind::Permanent);
    assert!(names(&fs, "/fp").contains(&"socks".to_string()));
}

#[test]
fn make_permanent_promotes_transient_links() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.make_permanent(&p("/fp/mail1.txt")).unwrap();
    // Narrow the query so mail1 no longer matches; the promoted link stays.
    fs.set_query(&p("/fp"), "algorithm").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt"]);
}

#[test]
fn regular_files_can_live_in_semantic_directories() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.save(&p("/fp/notes.txt"), b"my own fingerprint notes minutiae")
        .unwrap();
    assert!(names(&fs, "/fp").contains(&"notes.txt".to_string()));
    fs.ssync(&p("/")).unwrap();
    // Still there, and no self-link was created for it.
    let listing = names(&fs, "/fp");
    assert_eq!(listing.iter().filter(|n| n.contains("notes")).count(), 1);
}

#[test]
fn child_scope_is_a_refinement_of_parent_links() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/fp/mail"), "email").unwrap();
    // Only mail1 is both a fingerprint match (parent scope) and an email
    // match; mail2 mentions email but is outside the parent scope.
    assert_eq!(names(&fs, "/fp/mail"), vec!["mail1.txt"]);

    // The §2.3 invariant: transient links ⊆ scope provided by parent.
    let parent_scope = fs.scope_of(&p("/fp")).unwrap();
    let child_result = fs.result_bitmap(&p("/fp/mail")).unwrap();
    for doc in child_result.ids() {
        assert!(parent_scope.local.contains(doc));
    }
}

#[test]
fn parent_edit_propagates_to_children() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/fp/mail"), "email").unwrap();
    assert_eq!(names(&fs, "/fp/mail"), vec!["mail1.txt"]);

    // Deleting mail1 from the parent shrinks the child's scope (§2.3
    // inconsistency source 1, repaired automatically).
    fs.unlink(&p("/fp/mail1.txt")).unwrap();
    assert!(names(&fs, "/fp/mail").is_empty());

    // Adding a permanent link to the parent grows the child's scope.
    fs.symlink(&p("/fp/groceries"), &p("/docs/mail2.txt"))
        .unwrap();
    assert_eq!(names(&fs, "/fp/mail"), vec!["mail2.txt"]);
}

#[test]
fn grandchildren_update_in_topological_order() {
    let fs = corpus();
    fs.smkdir(&p("/a"), "fingerprint OR email OR matching")
        .unwrap();
    fs.smkdir(&p("/a/b"), "fingerprint").unwrap();
    fs.smkdir(&p("/a/b/c"), "email").unwrap();
    assert_eq!(names(&fs, "/a/b/c"), vec!["mail1.txt"]);
    // Cutting fingerprint out of the top empties the whole chain (the
    // child directory entries themselves remain, of course).
    fs.set_query(&p("/a"), "socks").unwrap();
    let non_dirs = |d: &str| {
        fs.readdir(&p(d))
            .unwrap()
            .into_iter()
            .filter(|e| e.kind != hac_vfs::NodeKind::Dir)
            .count()
    };
    assert_eq!(non_dirs("/a/b"), 0);
    assert_eq!(non_dirs("/a/b/c"), 0);
}

#[test]
fn query_can_reference_other_directories() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.unlink(&p("/fp/mail1.txt")).unwrap(); // hand-tuned result
                                             // §2.5: a new query combines a search expression with an edited result.
    fs.smkdir(&p("/combo"), "matching AND path(/fp)").unwrap();
    // /fp provides only algo.txt now; socks.txt matches "matching" but is
    // not in /fp's provided scope.
    assert_eq!(names(&fs, "/combo"), vec!["algo.txt"]);
}

#[test]
fn dir_references_survive_renames_via_uid_map() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/combo"), "email AND path(/fp)").unwrap();
    assert_eq!(names(&fs, "/combo"), vec!["mail1.txt"]);

    // Rename the referenced directory; the stored UID keeps the dependency
    // alive (§2.5) and the displayed query tracks the new name.
    fs.rename(&p("/fp"), &p("/fingerprint")).unwrap();
    assert_eq!(
        fs.get_query(&p("/combo")).unwrap(),
        "(email AND path(/fingerprint))"
    );

    // The dependency still propagates: delete the only email match from
    // the renamed directory.
    fs.unlink(&p("/fingerprint/mail1.txt")).unwrap();
    assert!(names(&fs, "/combo").is_empty());
}

#[test]
fn cycles_are_rejected() {
    let fs = corpus();
    fs.smkdir(&p("/a"), "fingerprint").unwrap();
    fs.smkdir(&p("/b"), "email AND path(/a)").unwrap();
    // a → b would close the loop.
    let err = fs.set_query(&p("/a"), "ridge AND path(/b)");
    assert!(matches!(err, Err(HacError::CycleDetected { .. })));
    // The original query is untouched.
    assert_eq!(fs.get_query(&p("/a")).unwrap(), "fingerprint");

    // Self-reference is a cycle too.
    assert!(matches!(
        fs.set_query(&p("/a"), "x AND path(/a)"),
        Err(HacError::CycleDetected { .. })
    ));

    // smkdir with an immediate cycle leaves no debris behind.
    let err = fs.smkdir(&p("/a/inner"), "path(/b) AND path(/a/inner)");
    assert!(err.is_err());
    assert!(!fs.exists(&p("/a/inner")));
}

#[test]
fn unknown_query_targets_are_rejected() {
    let fs = corpus();
    let err = fs.smkdir(&p("/x"), "a AND path(/no/such/dir)");
    assert!(matches!(err, Err(HacError::UnknownQueryTarget(_))));
    assert!(!fs.exists(&p("/x")));
}

#[test]
fn moving_a_semantic_directory_reevaluates_against_new_parent() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/fp/mail"), "email").unwrap();
    assert_eq!(names(&fs, "/fp/mail"), vec!["mail1.txt"]);

    // Move the child to the root: its scope widens to all indexed files
    // (§2.3 inconsistency source 2).
    fs.rename(&p("/fp/mail"), &p("/mail")).unwrap();
    assert_eq!(names(&fs, "/mail"), vec!["mail1.txt", "mail2.txt"]);

    // And back under a *different* semantic parent.
    fs.smkdir(&p("/sock"), "socks").unwrap();
    fs.rename(&p("/mail"), &p("/sock/mail")).unwrap();
    assert!(names(&fs, "/sock/mail").is_empty());
}

#[test]
fn moving_a_semdir_under_its_dependent_is_rejected_and_rolled_back() {
    let fs = corpus();
    fs.smkdir(&p("/a"), "fingerprint").unwrap();
    fs.smkdir(&p("/b"), "email AND path(/a)").unwrap();
    // Moving /a under /b makes a depend on b (hierarchy) while b depends
    // on a (query ref) — a cycle. Must fail and leave /a in place.
    let err = fs.rename(&p("/a"), &p("/b/a"));
    assert!(matches!(err, Err(HacError::CycleDetected { .. })));
    assert!(fs.exists(&p("/a")));
    assert!(!fs.exists(&p("/b/a")));
    assert_eq!(names(&fs, "/a"), vec!["algo.txt", "mail1.txt"]);
}

#[test]
fn moving_a_link_between_semdirs_prohibits_and_makes_permanent() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.smkdir(&p("/other"), "socks").unwrap();
    fs.rename(&p("/fp/mail1.txt"), &p("/other/mail1.txt"))
        .unwrap();

    // Source: prohibited (does not come back).
    fs.ssync(&p("/")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt"]);
    assert_eq!(fs.list_prohibited(&p("/fp")).unwrap().len(), 1);

    // Destination: permanent (survives sync although it doesn't match).
    let links = fs.list_links(&p("/other")).unwrap();
    let moved = links.iter().find(|l| l.name == "mail1.txt").unwrap();
    assert_eq!(moved.kind, LinkKind::Permanent);
    assert!(names(&fs, "/other").contains(&"mail1.txt".to_string()));
}

#[test]
fn data_consistency_is_lazy_until_ssync() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt"]);

    // A new matching file appears: not picked up instantly (§2.4).
    fs.save(&p("/docs/new.txt"), b"another fingerprint survey")
        .unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt"]);

    // ssync reconciles.
    let report = fs.ssync(&p("/")).unwrap();
    assert_eq!(report.added, 1);
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "mail1.txt", "new.txt"]);

    // Content change that un-matches a file: also reconciled at sync time.
    fs.write_file(&p("/docs/mail1.txt"), b"now about cooking")
        .unwrap();
    let report = fs.ssync(&p("/")).unwrap();
    assert_eq!(report.updated, 1);
    assert_eq!(names(&fs, "/fp"), vec!["algo.txt", "new.txt"]);
}

#[test]
fn eager_mode_reconciles_immediately() {
    let fs = HacFs::with_config(hac_core::HacConfig {
        eager_content_index: true,
        ..Default::default()
    });
    fs.mkdir(&p("/docs")).unwrap();
    fs.save(&p("/docs/a.txt"), b"fingerprint one").unwrap();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["a.txt"]);
    // "update certain semantic directories as soon as new mail comes in".
    fs.save(&p("/docs/b.txt"), b"fingerprint two").unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["a.txt", "b.txt"]);
    fs.unlink(&p("/docs/a.txt")).unwrap();
    assert_eq!(names(&fs, "/fp"), vec!["b.txt"]);
}

#[test]
fn renamed_target_repaired_at_ssync() {
    let fs = corpus();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    fs.rename(&p("/docs/algo.txt"), &p("/docs/algorithm.txt"))
        .unwrap();
    // ssync repairs the dangling link (data inconsistency (i) of §2.4).
    let report = fs.ssync(&p("/")).unwrap();
    assert!(report.links_repaired >= 1 || names(&fs, "/fp").contains(&"algorithm.txt".into()));
    let listing = names(&fs, "/fp");
    // The link (whatever its name) must resolve to the moved content.
    let ok = listing.iter().any(|n| {
        fs.read_file(&p(&format!("/fp/{n}")))
            .map(|c| c.starts_with(b"fingerprint matching"))
            .unwrap_or(false)
    });
    assert!(
        ok,
        "link to renamed target must resolve after ssync: {listing:?}"
    );
}

#[test]
fn set_query_replaces_results() {
    let fs = corpus();
    fs.smkdir(&p("/d"), "fingerprint").unwrap();
    fs.set_query(&p("/d"), "groceries").unwrap();
    assert_eq!(names(&fs, "/d"), vec!["mail2.txt"]);
    assert_eq!(fs.get_query(&p("/d")).unwrap(), "groceries");
    // Non-semantic dirs refuse query operations.
    assert!(matches!(
        fs.set_query(&p("/docs"), "x"),
        Err(HacError::NotSemantic(_))
    ));
    assert!(matches!(
        fs.get_query(&p("/docs")),
        Err(HacError::NotSemantic(_))
    ));
}

#[test]
fn sact_returns_matching_lines() {
    let fs = HacFs::new();
    fs.mkdir(&p("/docs")).unwrap();
    fs.save(
        &p("/docs/long.txt"),
        b"intro line\nfingerprint ridge analysis\nunrelated line\nfingerprint summary\n",
    )
    .unwrap();
    fs.ssync(&p("/")).unwrap();
    fs.smkdir(&p("/fp"), "fingerprint").unwrap();
    let lines = fs.sact(&p("/fp/long.txt")).unwrap();
    assert_eq!(
        lines,
        vec!["fingerprint ridge analysis", "fingerprint summary"]
    );
    // sact outside a semantic directory is an error.
    fs.symlink(&p("/plain"), &p("/docs/long.txt")).unwrap();
    assert!(matches!(
        fs.sact(&p("/plain")),
        Err(HacError::NoQueryContext(_))
    ));
}

#[test]
fn search_without_directory_is_the_glimpse_baseline() {
    let fs = corpus();
    let mut hits = fs.search(&p("/"), "fingerprint").unwrap();
    hits.sort();
    assert_eq!(
        hits.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        vec!["/docs/algo.txt", "/docs/mail1.txt"]
    );
    // Scoped search.
    let hits = fs.search(&p("/docs"), "socks").unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn words_longer_than_the_index_limit_are_found() {
    // The tokenizer cuts words to MAX_WORD_LEN (48) bytes; a query for the
    // whole identifier must probe and verify the same cut key.
    let ident = "Match_Minutiae_Against_The_Enrolled_Template_For_Ridge_Count";
    assert_eq!(ident.len(), 60);
    let fs = HacFs::new();
    fs.mkdir_p(&p("/src")).unwrap();
    fs.save(&p("/src/other.c"), b"int main(void) {\n  return 0;\n}\n")
        .unwrap();
    fs.smkdir(&p("/hits"), ident).unwrap();
    let source = format!("#include <match.h>\n\nint {ident}(int a) {{\n  return a;\n}}\n");
    fs.save(&p("/src/match.c"), source.as_bytes()).unwrap();
    fs.ssync(&p("/")).unwrap();

    let found = |q: &str| -> Vec<String> {
        let hits = fs.search(&p("/"), q).unwrap();
        hits.iter().map(|h| h.to_string()).collect()
    };
    let want = vec!["/src/match.c".to_string()];
    assert_eq!(found(ident), want, "word term");
    assert_eq!(found(&ident.to_ascii_uppercase()), want, "case-folded");
    assert_eq!(found(&format!("\"int {ident}\"")), want, "phrase");
    assert_eq!(found(&format!("{}*", &ident[..52])), want, "prefix");
    // Field values are stored whole, so `func:` takes the whole name.
    assert_eq!(found(&format!("func:{ident}")), want, "field");
    // The semantic directory made before the file saw it at ssync: the
    // dirty-set seeding keys the query by the same cut word.
    assert_eq!(names(&fs, "/hits"), vec!["match.c"]);
}

// ---------------------------------------------------------------------
// Semantic mount points (§3)
// ---------------------------------------------------------------------

mod mounts {
    use super::*;
    use hac_core::{RemoteDoc, RemoteError, RemoteQuerySystem};
    use hac_index::ContentExpr;
    use std::sync::atomic::{AtomicBool, Ordering};

    struct Library {
        ns: &'static str,
        docs: Vec<(&'static str, &'static str)>,
        fail: AtomicBool,
    }

    impl Library {
        fn new(ns: &'static str, docs: Vec<(&'static str, &'static str)>) -> Arc<Self> {
            Arc::new(Library {
                ns,
                docs,
                fail: AtomicBool::new(false),
            })
        }
    }

    impl RemoteQuerySystem for Library {
        fn namespace(&self) -> NamespaceId {
            NamespaceId(self.ns.into())
        }
        fn search(&self, query: &ContentExpr) -> Result<Vec<RemoteDoc>, RemoteError> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(RemoteError::Unavailable("down".into()));
            }
            fn m(q: &ContentExpr, words: &[&str]) -> bool {
                match q {
                    ContentExpr::Term(t) => words.contains(&t.as_str()),
                    ContentExpr::All => true,
                    ContentExpr::Nothing => false,
                    ContentExpr::And(a, b) => m(a, words) && m(b, words),
                    ContentExpr::Or(a, b) => m(a, words) || m(b, words),
                    ContentExpr::AndNot(a, b) => m(a, words) && !m(b, words),
                    ContentExpr::Not(a) => !m(a, words),
                    _ => false,
                }
            }
            Ok(self
                .docs
                .iter()
                .filter(|(_, text)| m(query, &text.split_whitespace().collect::<Vec<_>>()))
                .map(|(id, _)| RemoteDoc {
                    id: (*id).into(),
                    title: (*id).into(),
                })
                .collect())
        }
        fn fetch(&self, id: &str) -> Result<Vec<u8>, RemoteError> {
            self.docs
                .iter()
                .find(|(d, _)| *d == id)
                .map(|(_, t)| t.as_bytes().to_vec())
                .ok_or_else(|| RemoteError::NotFound(id.into()))
        }
    }

    fn digital_library() -> Arc<Library> {
        Library::new(
            "library",
            vec![
                ("paper-fp", "fingerprint verification survey"),
                ("paper-db", "database systems survey"),
                ("paper-fp2", "fingerprint indexing structures"),
            ],
        )
    }

    #[test]
    fn semantic_mount_imports_remote_results() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        fs.smount(&p("/lib"), digital_library()).unwrap();
        assert_eq!(
            fs.mounts_at(&p("/lib")).unwrap(),
            vec![NamespaceId("library".into())]
        );

        // A semantic directory whose scope (root) covers the mount imports
        // both local and remote matches.
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        let listing = names(&fs, "/fp");
        assert!(listing.contains(&"algo.txt".to_string()));
        assert!(listing.contains(&"paper-fp".to_string()));
        assert!(listing.contains(&"paper-fp2".to_string()));
        assert!(!listing.contains(&"paper-db".to_string()));

        // Remote content is reachable through the link.
        assert_eq!(
            fs.fetch_link(&p("/fp/paper-fp")).unwrap(),
            b"fingerprint verification survey".to_vec()
        );
        // And sact works across the mount.
        let lines = fs.sact(&p("/fp/paper-fp")).unwrap();
        assert_eq!(lines, vec!["fingerprint verification survey"]);
    }

    #[test]
    fn children_refine_imported_remote_results() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        fs.smount(&p("/lib"), digital_library()).unwrap();
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        // Child: only indexing-related fingerprint papers, restricted to
        // what the parent imported.
        fs.smkdir(&p("/fp/idx"), "indexing").unwrap();
        assert_eq!(names(&fs, "/fp/idx"), vec!["paper-fp2"]);
    }

    #[test]
    fn deleting_remote_links_prohibits_them() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        fs.smount(&p("/lib"), digital_library()).unwrap();
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        fs.unlink(&p("/fp/paper-fp")).unwrap();
        fs.ssync(&p("/")).unwrap();
        let listing = names(&fs, "/fp");
        assert!(!listing.contains(&"paper-fp".to_string()));
        assert!(listing.contains(&"paper-fp2".to_string()));
        let prohibited = fs.list_prohibited(&p("/fp")).unwrap();
        assert!(prohibited.iter().any(
            |t| matches!(t, LinkTarget::Remote(ns, id) if ns.0 == "library" && id == "paper-fp")
        ));
    }

    #[test]
    fn multiple_mounts_union_their_results() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        fs.smount(&p("/lib"), digital_library()).unwrap();
        fs.smount(
            &p("/lib"),
            Library::new("archive", vec![("old-fp", "fingerprint history archive")]),
        )
        .unwrap();
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        let listing = names(&fs, "/fp");
        assert!(listing.contains(&"paper-fp".to_string()));
        assert!(listing.contains(&"old-fp".to_string()));
        assert_eq!(fs.mounts_at(&p("/lib")).unwrap().len(), 2);
    }

    #[test]
    fn remote_failure_keeps_previous_results() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        let lib = digital_library();
        fs.smount(&p("/lib"), Arc::clone(&lib) as Arc<dyn RemoteQuerySystem>)
            .unwrap();
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        assert!(names(&fs, "/fp").contains(&"paper-fp".to_string()));

        // The remote goes down; a resync keeps the imported links instead
        // of dropping them.
        lib.fail.store(true, Ordering::Relaxed);
        fs.ssync(&p("/")).unwrap();
        assert!(names(&fs, "/fp").contains(&"paper-fp".to_string()));

        // It comes back with fewer documents: now the links are refreshed.
        lib.fail.store(false, Ordering::Relaxed);
        fs.ssync(&p("/")).unwrap();
        assert!(names(&fs, "/fp").contains(&"paper-fp".to_string()));
    }

    #[test]
    fn unmount_withdraws_transient_remote_links() {
        let fs = corpus();
        fs.mkdir(&p("/lib")).unwrap();
        fs.smount(&p("/lib"), digital_library()).unwrap();
        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        assert!(names(&fs, "/fp").contains(&"paper-fp".to_string()));

        fs.sunmount(&p("/lib"), None).unwrap();
        assert!(fs.mounts_at(&p("/lib")).unwrap().is_empty());
        fs.ssync(&p("/")).unwrap();
        let listing = names(&fs, "/fp");
        assert!(!listing.contains(&"paper-fp".to_string()));
        // Local results are unaffected.
        assert!(listing.contains(&"algo.txt".to_string()));
        // Unmounting again errors.
        assert!(matches!(
            fs.sunmount(&p("/lib"), None),
            Err(HacError::NotMounted(_))
        ));
    }

    #[test]
    fn mount_scope_is_positional() {
        // A mount buried under /area is in scope for a semdir created at
        // the root, but NOT for a semdir whose parent scope excludes it.
        let fs = corpus();
        fs.mkdir_p(&p("/area/lib")).unwrap();
        fs.smount(&p("/area/lib"), digital_library()).unwrap();

        fs.smkdir(&p("/fp"), "fingerprint").unwrap();
        assert!(names(&fs, "/fp").contains(&"paper-fp".to_string()));

        // A child of a semantic directory sees only what the parent
        // imported — and the parent of this one imported nothing remote.
        fs.smkdir(&p("/local"), "socks").unwrap();
        fs.smkdir(&p("/local/deep"), "fingerprint").unwrap();
        assert!(names(&fs, "/local/deep").is_empty());
    }
}
