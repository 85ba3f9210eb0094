//! Path-building collectors over the id traversal.

use crate::attr::{Attr, FileId, NodeKind};
use crate::error::{VfsError, VfsResult};
use crate::fs::Vfs;
use crate::path::VPath;

/// One visited entry during a walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkEntry {
    /// Absolute path of the entry.
    pub path: VPath,
    /// Attributes at visit time (symlinks are reported as themselves, not
    /// followed — following them would let link cycles make walks diverge).
    pub attr: Attr,
}

/// Depth-first, name-ordered traversal of the subtree rooted at `start`: a
/// collector over [`Vfs::visit_subtree`] that gives each entry its path,
/// joined once onto its parent's.
///
/// The starting node itself is included as the first entry, under `start`
/// as given. Symbolic links are reported but never followed; mount points
/// are reported as the local directory they cover and not descended into
/// (the mounted namespace is foreign).
///
/// # Errors
///
/// Resolution errors for `start` (without following a final symlink or
/// crossing a final mount point); [`VfsError::Unsupported`] when `start`
/// lies inside a mounted namespace.
pub fn walk(vfs: &Vfs, start: &VPath) -> VfsResult<Vec<WalkEntry>> {
    let id = vfs.resolve_nofollow(start)?;
    let mut out: Vec<WalkEntry> = Vec::new();
    // The directories on the current descent: (id, index in `out`).
    let mut open: Vec<(FileId, usize)> = Vec::new();
    let live = vfs.visit_subtree(id, |v| {
        let path = if out.is_empty() {
            start.clone()
        } else {
            let Some(depth) = open.iter().rposition(|&(dir, _)| dir == v.parent) else {
                return;
            };
            open.truncate(depth + 1);
            let Ok(path) = out[open[depth].1].path.join(v.name) else {
                return;
            };
            path
        };
        if v.attr.kind == NodeKind::Dir {
            open.push((v.id, out.len()));
        }
        out.push(WalkEntry { path, attr: v.attr });
    });
    if !live {
        return Err(VfsError::NotFound(start.clone()));
    }
    Ok(out)
}

/// Collects the paths of all regular files in the subtree rooted at `start`.
pub fn files_under(vfs: &Vfs, start: &VPath) -> VfsResult<Vec<VPath>> {
    Ok(walk(vfs, start)?
        .into_iter()
        .filter(|e| e.attr.kind == NodeKind::File)
        .map(|e| e.path)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vfs {
        let fs = Vfs::new();
        let p = |s: &str| VPath::parse(s).unwrap();
        fs.mkdir_p(&p("/a/b")).unwrap();
        fs.save(&p("/a/one.txt"), b"1").unwrap();
        fs.save(&p("/a/b/two.txt"), b"2").unwrap();
        fs.symlink(&p("/a/link"), &p("/a/b/two.txt")).unwrap();
        fs
    }

    #[test]
    fn walk_visits_subtree_depth_first() {
        let fs = sample();
        let entries = walk(&fs, &VPath::parse("/a").unwrap()).unwrap();
        let paths: Vec<String> = entries.iter().map(|e| e.path.to_string()).collect();
        assert_eq!(
            paths,
            vec!["/a", "/a/b", "/a/b/two.txt", "/a/link", "/a/one.txt"]
        );
    }

    #[test]
    fn walk_reports_symlinks_without_following() {
        let fs = sample();
        let entries = walk(&fs, &VPath::parse("/a").unwrap()).unwrap();
        let link = entries
            .iter()
            .find(|e| e.path.to_string() == "/a/link")
            .unwrap();
        assert!(link.attr.is_symlink());
    }

    #[test]
    fn files_under_filters_to_regular_files() {
        let fs = sample();
        let files = files_under(&fs, &VPath::root()).unwrap();
        let names: Vec<String> = files.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["/a/b/two.txt", "/a/one.txt"]);
    }

    #[test]
    fn walk_of_a_file_is_just_the_file() {
        let fs = sample();
        let entries = walk(&fs, &VPath::parse("/a/one.txt").unwrap()).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].attr.is_file());
    }

    #[test]
    fn symlink_cycle_does_not_hang_walk() {
        let fs = Vfs::new();
        let p = |s: &str| VPath::parse(s).unwrap();
        fs.mkdir(&p("/d")).unwrap();
        fs.symlink(&p("/d/self"), &p("/d")).unwrap();
        let entries = walk(&fs, &p("/d")).unwrap();
        assert_eq!(entries.len(), 2);
    }
}
