//! Property tests: the VFS against a trivial reference model.
//!
//! The model is a flat `BTreeMap<String, Entry>` keyed by path string. We
//! replay a random operation trace against both the model and the real VFS
//! and require identical observable outcomes (success/failure and final
//! contents). Renames and symlinks are exercised separately because the
//! flat model cannot express subtree moves cheaply. A last property holds
//! the id-native `walk` to a reference walk built from `readdir` and
//! `lstat` on random trees with symlinks and symlink cycles.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hac_vfs::{files_under, walk, NodeKind, VPath, Vfs, WalkEntry};

#[derive(Debug, Clone)]
enum Op {
    Mkdir(u8),
    Create(u8, u8),
    Write(u8, u8, Vec<u8>),
    Unlink(u8, u8),
    Rmdir(u8),
}

#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Dir,
    File(Vec<u8>),
}

/// Directory name pool: /d0../d3; file name pool: f0..f3 within a dir.
fn dir_path(d: u8) -> VPath {
    VPath::parse(&format!("/d{}", d % 4)).unwrap()
}

fn file_path(d: u8, f: u8) -> VPath {
    VPath::parse(&format!("/d{}/f{}", d % 4, f % 4)).unwrap()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Mkdir),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Create(d, f)),
        (
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..16)
        )
            .prop_map(|(d, f, data)| Op::Write(d, f, data)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Unlink(d, f)),
        any::<u8>().prop_map(Op::Rmdir),
    ]
}

fn apply_model(model: &mut BTreeMap<String, Entry>, op: &Op) -> bool {
    match op {
        Op::Mkdir(d) => {
            let p = dir_path(*d).to_string();
            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(p) {
                e.insert(Entry::Dir);
                true
            } else {
                false
            }
        }
        Op::Create(d, f) => {
            let dir = dir_path(*d).to_string();
            let p = file_path(*d, *f).to_string();
            if model.get(&dir) != Some(&Entry::Dir) || model.contains_key(&p) {
                false
            } else {
                model.insert(p, Entry::File(Vec::new()));
                true
            }
        }
        Op::Write(d, f, data) => {
            let p = file_path(*d, *f).to_string();
            match model.get_mut(&p) {
                Some(Entry::File(content)) => {
                    *content = data.clone();
                    true
                }
                _ => false,
            }
        }
        Op::Unlink(d, f) => {
            let p = file_path(*d, *f).to_string();
            match model.get(&p) {
                Some(Entry::File(_)) => {
                    model.remove(&p);
                    true
                }
                _ => false,
            }
        }
        Op::Rmdir(d) => {
            let dir = dir_path(*d).to_string();
            if model.get(&dir) != Some(&Entry::Dir) {
                return false;
            }
            let prefix = format!("{dir}/");
            if model.keys().any(|k| k.starts_with(&prefix)) {
                return false;
            }
            model.remove(&dir);
            true
        }
    }
}

fn apply_vfs(fs: &Vfs, op: &Op) -> bool {
    match op {
        Op::Mkdir(d) => fs.mkdir(&dir_path(*d)).is_ok(),
        Op::Create(d, f) => fs.create(&file_path(*d, *f)).is_ok(),
        Op::Write(d, f, data) => fs.write_file(&file_path(*d, *f), data).is_ok(),
        Op::Unlink(d, f) => fs.unlink(&file_path(*d, *f)).is_ok(),
        Op::Rmdir(d) => fs.rmdir(&dir_path(*d)).is_ok(),
    }
}

/// One step of building a random tree, one byte each: kind, parent pick,
/// name, target pick. Picks index the directories or all paths made so
/// far, modulo their count.
type TreeOp = u32;

/// Builds a tree from `ops`: directories nested at random, files, writes,
/// renames, and symlinks to existing paths (ancestors included, so cycles
/// occur) or to paths that do not exist. Returns every path created.
fn build_tree(fs: &Vfs, ops: &[TreeOp]) -> Vec<VPath> {
    let mut dirs = vec![VPath::root()];
    let mut all = vec![VPath::root()];
    for op in ops {
        let [kind, parent, name, target] = op.to_le_bytes();
        let dir = dirs[parent as usize % dirs.len()].clone();
        let path = dir.join(&format!("n{}", name % 6)).unwrap();
        let made = match kind % 6 {
            0 | 1 => fs.mkdir(&path).is_ok(),
            2 => fs.save(&path, &[name; 3][..(name % 4) as usize]).is_ok(),
            3 => {
                let to = &all[target as usize % all.len()];
                fs.symlink(&path, to).is_ok()
            }
            4 => {
                let to = VPath::parse(&format!("/missing/t{target}")).unwrap();
                fs.symlink(&path, &to).is_ok()
            }
            _ => {
                // Touch an existing node: rewrite a file or move an entry
                // into `dir`, both changing attrs the walk must report.
                let from = &all[target as usize % all.len()];
                let _ = fs.write_file(from, b"rewritten");
                let _ = fs.rename(from, &path);
                false
            }
        };
        if made {
            if fs.lstat(&path).is_ok_and(|a| a.is_dir()) {
                dirs.push(path.clone());
            }
            all.push(path);
        }
    }
    all
}

/// The walk as a path-based traversal: `lstat` the start, then `readdir`
/// and `lstat` every entry, descending into directories.
fn reference_walk(fs: &Vfs, start: &VPath) -> Vec<WalkEntry> {
    fn into(fs: &Vfs, dir: &VPath, out: &mut Vec<WalkEntry>) {
        for entry in fs.readdir(dir).unwrap() {
            let path = dir.join(&entry.name).unwrap();
            let attr = fs.lstat(&path).unwrap();
            out.push(WalkEntry {
                path: path.clone(),
                attr,
            });
            if attr.kind == NodeKind::Dir {
                into(fs, &path, out);
            }
        }
    }
    let attr = fs.lstat(start).unwrap();
    let mut out = vec![WalkEntry {
        path: start.clone(),
        attr,
    }];
    if attr.kind == NodeKind::Dir {
        into(fs, start, &mut out);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn walk_matches_a_readdir_lstat_walk(
        ops in proptest::collection::vec(any::<TreeOp>(), 1..60),
        start in any::<u8>(),
        cache in 1usize..16,
    ) {
        // A small attribute cache makes the reference walk evict, so its
        // attrs come from both the cache and the node table.
        let fs = Vfs::with_cache_capacity(cache);
        let all = build_tree(&fs, &ops);
        prop_assert_eq!(walk(&fs, &VPath::root()).unwrap(), reference_walk(&fs, &VPath::root()));
        let live: Vec<&VPath> = all.iter().filter(|p| fs.lstat(p).is_ok()).collect();
        let start = live[start as usize % live.len()];
        prop_assert_eq!(walk(&fs, start).unwrap(), reference_walk(&fs, start));
    }

    #[test]
    fn vfs_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let fs = Vfs::new();
        let mut model: BTreeMap<String, Entry> = BTreeMap::new();

        for op in &ops {
            let model_ok = apply_model(&mut model, op);
            let vfs_ok = apply_vfs(&fs, op);
            prop_assert_eq!(model_ok, vfs_ok, "outcome diverged on {:?}", op);
        }

        // Final states agree: every model entry exists with equal content,
        // and the VFS has no extra files.
        for (path, entry) in &model {
            let vp = VPath::parse(path).unwrap();
            match entry {
                Entry::Dir => prop_assert!(fs.stat(&vp).unwrap().is_dir()),
                Entry::File(content) => {
                    prop_assert_eq!(&fs.read_file(&vp).unwrap()[..], &content[..]);
                }
            }
        }
        let vfs_files = files_under(&fs, &VPath::root()).unwrap();
        let model_files = model.values().filter(|e| matches!(e, Entry::File(_))).count();
        prop_assert_eq!(vfs_files.len(), model_files);
    }

    #[test]
    fn rename_preserves_subtree_content(
        names in proptest::collection::vec("[a-z]{1,8}", 1..10),
        content in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let fs = Vfs::new();
        let src = VPath::parse("/src").unwrap();
        fs.mkdir(&src).unwrap();
        let mut expected = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let file = src.join(&format!("{name}{i}")).unwrap();
            fs.save(&file, &content).unwrap();
            expected.push(format!("{name}{i}"));
        }
        fs.rename(&src, &VPath::parse("/dst").unwrap()).unwrap();
        for name in &expected {
            let moved = VPath::parse(&format!("/dst/{name}")).unwrap();
            prop_assert_eq!(&fs.read_file(&moved).unwrap()[..], &content[..]);
        }
        prop_assert!(!fs.exists(&src));
    }

    #[test]
    fn snapshot_restore_is_identity(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let fs = Vfs::new();
        for op in &ops {
            let _ = apply_vfs(&fs, op);
        }
        let bytes = hac_vfs::persist::snapshot(&fs).unwrap();
        let restored = Vfs::new();
        hac_vfs::persist::restore(&restored, &bytes).unwrap();

        let orig = files_under(&fs, &VPath::root()).unwrap();
        let back = files_under(&restored, &VPath::root()).unwrap();
        prop_assert_eq!(&orig, &back);
        for f in &orig {
            prop_assert_eq!(fs.read_file(f).unwrap(), restored.read_file(f).unwrap());
        }
    }

    #[test]
    fn path_parse_display_roundtrip(parts in proptest::collection::vec("[a-zA-Z0-9_.-]{1,12}", 0..6)) {
        // Filter out the component forms the parser normalizes away.
        let parts: Vec<String> = parts.into_iter().filter(|p| p != "." && p != "..").collect();
        let joined = format!("/{}", parts.join("/"));
        let parsed = VPath::parse(&joined).unwrap();
        prop_assert_eq!(parsed.depth(), parts.len());
        let reparsed = VPath::parse(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}
