//! The virtual file system.
//!
//! [`Vfs`] is the substrate the HAC layer builds on: a thread-safe,
//! in-process hierarchical file system with regular files, directories,
//! symbolic links, per-process file descriptors, a shared attribute cache,
//! read-through syntactic mount points, and a mutation event stream.
//!
//! The public surface deliberately mirrors the narrow API the paper's HAC
//! prototype required from its native file system ("HAC interacts with UNIX
//! using a well defined API which assumes very little about the native file
//! system").

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::attr::{Attr, FileId, LogicalTime, NodeKind};
use crate::attrcache::{AttrCache, CacheStats};
use crate::error::{VfsError, VfsResult};
use crate::event::{EventBus, VfsEvent};
use crate::fd::{Fd, OpenMode, ProcessId, ProcessRegistry};
use crate::node::{Node, NodeBody, NodeTable};
use crate::path::VPath;

/// Maximum number of symbolic links a single resolution may traverse before
/// the VFS reports a cycle.
pub const MAX_LINK_DEPTH: usize = 40;

/// Default capacity of the shared attribute cache, in entries.
pub const DEFAULT_ATTR_CACHE_CAPACITY: usize = 4096;

/// One entry as returned by [`Vfs::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within the directory.
    pub name: String,
    /// Id of the entry's node.
    pub id: FileId,
    /// Kind of the entry's node.
    pub kind: NodeKind,
}

/// One node as an id traversal ([`Vfs::visit_subtree`],
/// [`Vfs::visit_children`]) hands it over, borrowed from the node table.
#[derive(Debug, Clone, Copy)]
pub struct NodeVisit<'a> {
    /// The node's id.
    pub id: FileId,
    /// Id of the directory holding it (the root is its own parent).
    pub parent: FileId,
    /// Its name in that directory (empty for the root).
    pub name: &'a str,
    /// Its attributes, read from the node table.
    pub attr: Attr,
    /// A symbolic link's stored target, unresolved; `None` for other kinds.
    pub link_target: Option<&'a VPath>,
}

impl<'a> NodeVisit<'a> {
    fn of(node: &'a Node, name: &'a str) -> Self {
        NodeVisit {
            id: node.id,
            parent: node.parent,
            name,
            attr: node.attr(),
            link_target: match &node.body {
                NodeBody::Symlink { target } => Some(target),
                _ => None,
            },
        }
    }
}

/// Behaviour of [`Vfs::open`] when the path does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreatePolicy {
    /// Fail with [`VfsError::NotFound`] if missing.
    MustExist,
    /// Create an empty regular file if missing.
    CreateIfMissing,
    /// Create if missing, truncate to empty if present.
    CreateOrTruncate,
}

/// Cheap operation counters, useful when analysing where a layered file
/// system spends its substrate calls.
#[derive(Debug, Default)]
pub struct SyscallCounters {
    lookups: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    creates: AtomicU64,
    removes: AtomicU64,
    renames: AtomicU64,
}

/// Snapshot of [`SyscallCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyscallSnapshot {
    /// Path resolutions / stats / readdirs.
    pub lookups: u64,
    /// File content reads.
    pub reads: u64,
    /// File content writes.
    pub writes: u64,
    /// Node creations (files, dirs, symlinks).
    pub creates: u64,
    /// Node removals.
    pub removes: u64,
    /// Renames.
    pub renames: u64,
}

impl SyscallCounters {
    fn snapshot(&self) -> SyscallSnapshot {
        SyscallSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            creates: self.creates.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            renames: self.renames.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct Inner {
    nodes: NodeTable,
    /// Mount points: directory id → foreign namespace grafted there.
    mounts: Vec<(FileId, Arc<Vfs>)>,
    clock: u64,
}

impl Inner {
    fn tick(&mut self) -> LogicalTime {
        self.clock += 1;
        LogicalTime(self.clock)
    }

    fn is_mount(&self, id: FileId) -> bool {
        self.mounts.iter().any(|(m, _)| *m == id)
    }

    /// The entries a traversal descends into: a directory's own, unless a
    /// mounted namespace covers it.
    fn local_entries<'a>(&self, node: &'a Node) -> Option<&'a BTreeMap<String, FileId>> {
        if self.is_mount(node.id) {
            return None;
        }
        node.dir_entries()
    }

    fn mount_at(&self, id: FileId) -> Option<Arc<Vfs>> {
        self.mounts
            .iter()
            .find(|(m, _)| *m == id)
            .map(|(_, v)| Arc::clone(v))
    }
}

/// Result of resolving a path that may cross a mount point.
enum Target {
    /// The path resolves inside this namespace.
    Local(FileId),
    /// The path continues inside a mounted namespace.
    Foreign(Arc<Vfs>, VPath),
}

/// The in-process hierarchical file system.
///
/// All methods take `&self`; interior locking makes a `Vfs` shareable via
/// [`Arc`] between the HAC layer, benchmark drivers and the reindex daemon.
///
/// # Examples
///
/// ```
/// use hac_vfs::{Vfs, VPath};
///
/// let fs = Vfs::new();
/// fs.mkdir_p(&VPath::parse("/home/user").unwrap()).unwrap();
/// fs.save(&VPath::parse("/home/user/note.txt").unwrap(), b"fingerprint minutiae").unwrap();
/// let data = fs.read_file(&VPath::parse("/home/user/note.txt").unwrap()).unwrap();
/// assert_eq!(&data[..], b"fingerprint minutiae");
/// ```
#[derive(Debug)]
pub struct Vfs {
    inner: RwLock<Inner>,
    attr_cache: AttrCache,
    procs: RwLock<ProcessRegistry>,
    events: EventBus,
    counters: SyscallCounters,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty namespace containing only the root directory.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_ATTR_CACHE_CAPACITY)
    }

    /// Creates an empty namespace with a custom attribute-cache capacity.
    pub fn with_cache_capacity(cache_entries: usize) -> Self {
        Vfs {
            inner: RwLock::new(Inner {
                nodes: NodeTable::with_root(),
                mounts: Vec::new(),
                clock: 0,
            }),
            attr_cache: AttrCache::new(cache_entries),
            procs: RwLock::new(ProcessRegistry::default()),
            events: EventBus::new(),
            counters: SyscallCounters::default(),
        }
    }

    // ------------------------------------------------------------------
    // Events, processes, statistics
    // ------------------------------------------------------------------

    /// Subscribes to the mutation event stream.
    pub fn subscribe(&self) -> crossbeam::channel::Receiver<VfsEvent> {
        self.events.subscribe()
    }

    /// Registers a lightweight process (owner of a descriptor table).
    pub fn spawn_process(&self) -> ProcessId {
        self.procs.write().spawn()
    }

    /// Tears down a process and its descriptors.
    ///
    /// # Errors
    ///
    /// [`VfsError::BadProcess`] if the process is unknown.
    pub fn exit_process(&self, pid: ProcessId) -> VfsResult<()> {
        self.procs.write().exit(pid)
    }

    /// Snapshot of the substrate-call counters.
    pub fn counters(&self) -> SyscallSnapshot {
        self.counters.snapshot()
    }

    /// Snapshot of attribute-cache statistics.
    pub fn attr_cache_stats(&self) -> CacheStats {
        self.attr_cache.stats()
    }

    /// Resident bytes of per-process state (descriptor tables), mirroring
    /// the paper's ~16 KB/process shared-memory figure.
    pub fn process_resident_bytes(&self) -> u64 {
        self.procs.read().resident_bytes() + self.attr_cache.resident_bytes()
    }

    /// Approximate metadata footprint of the namespace in bytes (no file
    /// content), for the §4 space-overhead comparison.
    pub fn metadata_bytes(&self) -> u64 {
        self.inner.read().nodes.metadata_bytes()
    }

    /// Number of live nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.inner.read().nodes.len()
    }

    /// Current logical time.
    pub fn now(&self) -> LogicalTime {
        LogicalTime(self.inner.read().clock)
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves a path to a node id, following symbolic links everywhere
    /// (including the final component). Crosses mount points.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`], [`VfsError::NotADirectory`],
    /// [`VfsError::TooManyLinks`], or [`VfsError::Unsupported`] when the
    /// path lands in a foreign namespace (foreign ids are not exposed; use
    /// the read operations, which delegate transparently).
    pub fn resolve(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => Ok(id),
            Target::Foreign(..) => Err(VfsError::Unsupported("foreign node id")),
        }
    }

    /// Like [`Vfs::resolve`] but does not follow a symlink in the final
    /// component, and does not descend into a mount covering the final
    /// component (so mount points themselves stay addressable for
    /// [`Vfs::mount`]/[`Vfs::unmount`] management).
    pub fn resolve_nofollow(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target_inner(path, false, 0, false)? {
            Target::Local(id) => Ok(id),
            Target::Foreign(..) => Err(VfsError::Unsupported("foreign node id")),
        }
    }

    /// Whether a path resolves (following links).
    pub fn exists(&self, path: &VPath) -> bool {
        self.stat(path).is_ok()
    }

    /// Reconstructs the absolute path of a node by walking parent pointers.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the node is not live.
    pub fn path_of(&self, id: FileId) -> VfsResult<VPath> {
        let inner = self.inner.read();
        let mut names: Vec<String> = Vec::new();
        let mut cur = id;
        let mut hops = 0usize;
        while cur != FileId::ROOT {
            let node = inner
                .nodes
                .get(cur)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            names.push(node.name.clone());
            cur = node.parent;
            hops += 1;
            if hops > inner.nodes.len() {
                return Err(VfsError::NotFound(VPath::root()));
            }
        }
        names.reverse();
        VPath::from_components(names)
    }

    /// The id of the directory holding `id`, read from the node's parent
    /// pointer. `None` for the root and for ids that are not live.
    pub fn parent_of(&self, id: FileId) -> Option<FileId> {
        if id == FileId::ROOT {
            return None;
        }
        self.inner.read().nodes.get(id).map(|n| n.parent)
    }

    fn resolve_target(&self, path: &VPath, follow_last: bool, depth: usize) -> VfsResult<Target> {
        self.resolve_target_inner(path, follow_last, depth, true)
    }

    fn resolve_target_inner(
        &self,
        path: &VPath,
        follow_last: bool,
        depth: usize,
        cross_trailing_mount: bool,
    ) -> VfsResult<Target> {
        if depth > MAX_LINK_DEPTH {
            return Err(VfsError::TooManyLinks(path.clone()));
        }
        // Collect any symlink/mount redirection under the lock, then recurse
        // outside it so a foreign namespace never sees our lock held.
        enum Redirect {
            Done(FileId),
            FollowLink(VPath),
            IntoMount(Arc<Vfs>, VPath),
        }
        let redirect = {
            let inner = self.inner.read();
            let comps: Vec<&str> = path.components().collect();
            let mut cur = FileId::ROOT;
            let mut redirect = None;
            let mut walked = VPath::root();
            for (i, comp) in comps.iter().enumerate() {
                let is_last = i + 1 == comps.len();
                // Descend through a mount point before looking up the child.
                if let Some(foreign) = inner.mount_at(cur) {
                    let rest = VPath::from_components(comps[i..].iter().map(|s| s.to_string()))?;
                    redirect = Some(Redirect::IntoMount(foreign, rest));
                    break;
                }
                let node = inner
                    .nodes
                    .get(cur)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(walked.clone()))?;
                let child = *entries
                    .get(*comp)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                walked = walked.join(comp)?;
                let child_node = inner
                    .nodes
                    .get(child)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                if let NodeBody::Symlink { target } = &child_node.body {
                    if is_last && !follow_last {
                        redirect = Some(Redirect::Done(child));
                        break;
                    }
                    // Splice the link target in front of the remaining
                    // components and restart.
                    let mut spliced: Vec<String> =
                        target.components().map(str::to_string).collect();
                    spliced.extend(comps[i + 1..].iter().map(|s| s.to_string()));
                    redirect = Some(Redirect::FollowLink(VPath::from_components(spliced)?));
                    break;
                }
                cur = child;
            }
            redirect.unwrap_or(Redirect::Done(cur))
        };
        match redirect {
            Redirect::Done(id) => {
                // A trailing mount point swallows the node it covers, unless
                // the caller manages mounts and needs the covered node.
                if cross_trailing_mount {
                    if let Some(foreign) = self.inner.read().mount_at(id) {
                        return Ok(Target::Foreign(foreign, VPath::root()));
                    }
                }
                Ok(Target::Local(id))
            }
            Redirect::FollowLink(next) => {
                self.resolve_target_inner(&next, follow_last, depth + 1, cross_trailing_mount)
            }
            Redirect::IntoMount(foreign, rest) => Ok(Target::Foreign(foreign, rest)),
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// `stat`: attributes of the node at `path`, following symlinks. Served
    /// from the shared attribute cache when possible.
    pub fn stat(&self, path: &VPath) -> VfsResult<Attr> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => self.attr_of(id, path),
            Target::Foreign(ns, rest) => ns.stat(&rest),
        }
    }

    /// `lstat`: like [`Vfs::stat`] but reports a final-component symlink
    /// itself.
    pub fn lstat(&self, path: &VPath) -> VfsResult<Attr> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, false, 0)? {
            Target::Local(id) => self.attr_of(id, path),
            Target::Foreign(ns, rest) => ns.lstat(&rest),
        }
    }

    fn attr_of(&self, id: FileId, path: &VPath) -> VfsResult<Attr> {
        if let Some(attr) = self.attr_cache.get(id) {
            return Ok(attr);
        }
        let inner = self.inner.read();
        let node = inner
            .nodes
            .get(id)
            .ok_or_else(|| VfsError::NotFound(path.clone()))?;
        let attr = node.attr();
        drop(inner);
        self.attr_cache.put(attr);
        Ok(attr)
    }

    /// Reads a whole regular file, following symlinks.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] when the path names a directory, plus the
    /// resolution errors.
    pub fn read_file(&self, path: &VPath) -> VfsResult<Bytes> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => {
                let inner = self.inner.read();
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                match &node.body {
                    NodeBody::File { data } => Ok(data.clone()),
                    NodeBody::Dir { .. } => Err(VfsError::IsADirectory(path.clone())),
                    NodeBody::Symlink { .. } => Err(VfsError::DanglingLink(path.clone())),
                }
            }
            Target::Foreign(ns, rest) => ns.read_file(&rest),
        }
    }

    /// Reads a regular file by id: its name in its parent directory and its
    /// content, under one read lock and without building or resolving a
    /// path. `None` when the id is not a live regular file of this
    /// namespace.
    pub fn file_by_id(&self, id: FileId) -> Option<(String, Bytes)> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.read();
        let node = inner.nodes.get(id)?;
        match &node.body {
            NodeBody::File { data } => Some((node.name.clone(), data.clone())),
            NodeBody::Dir { .. } | NodeBody::Symlink { .. } => None,
        }
    }

    /// Reads the target of a symbolic link without following it.
    pub fn readlink(&self, path: &VPath) -> VfsResult<VPath> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, false, 0)? {
            Target::Local(id) => {
                let inner = self.inner.read();
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                match &node.body {
                    NodeBody::Symlink { target } => Ok(target.clone()),
                    _ => Err(VfsError::Unsupported("readlink on non-symlink")),
                }
            }
            Target::Foreign(ns, rest) => ns.readlink(&rest),
        }
    }

    /// Lists a directory in name order.
    pub fn readdir(&self, path: &VPath) -> VfsResult<Vec<DirEntry>> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        match self.resolve_target(path, true, 0)? {
            Target::Local(id) => {
                let inner = self.inner.read();
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                let mut out = Vec::with_capacity(entries.len());
                for (name, child) in entries {
                    let kind = inner
                        .nodes
                        .get(*child)
                        .map(Node::kind)
                        .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                    out.push(DirEntry {
                        name: name.clone(),
                        id: *child,
                        kind,
                    });
                }
                Ok(out)
            }
            Target::Foreign(ns, rest) => ns.readdir(&rest),
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    fn require_local_parent(&self, path: &VPath) -> VfsResult<(FileId, String)> {
        let parent = path.parent().ok_or(VfsError::RootImmutable)?;
        let name = path.file_name().ok_or(VfsError::RootImmutable)?.to_string();
        match self.resolve_target(&parent, true, 0)? {
            Target::Local(id) => Ok((id, name)),
            Target::Foreign(..) => Err(VfsError::CrossMount(path.clone())),
        }
    }

    /// Creates a directory. The parent must exist.
    pub fn mkdir(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let event;
        let id;
        {
            let mut inner = self.inner.write();
            id = Self::insert_child(&mut inner, parent, &name, path, |id, t| Node {
                id,
                parent,
                name: name.clone(),
                ctime: t,
                mtime: t,
                version: 0,
                body: NodeBody::Dir {
                    entries: Default::default(),
                },
            })?;
            event = VfsEvent::DirCreated {
                id,
                path: path.clone(),
            };
        }
        self.attr_cache.invalidate(parent);
        self.events.publish(event);
        Ok(id)
    }

    /// Creates a directory and any missing ancestors; returns the id of the
    /// deepest directory. Existing directories along the way are accepted.
    pub fn mkdir_p(&self, path: &VPath) -> VfsResult<FileId> {
        let mut cur = VPath::root();
        let mut id = FileId::ROOT;
        for comp in path.components() {
            cur = cur.join(comp)?;
            match self.mkdir(&cur) {
                Ok(new_id) => id = new_id,
                Err(VfsError::AlreadyExists(_)) => {
                    id = self.resolve(&cur)?;
                    let attr = self.attr_of(id, &cur)?;
                    if !attr.is_dir() {
                        return Err(VfsError::NotADirectory(cur));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(id)
    }

    /// Creates an empty regular file.
    pub fn create(&self, path: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let event;
        let id;
        {
            let mut inner = self.inner.write();
            id = Self::insert_child(&mut inner, parent, &name, path, |id, t| Node {
                id,
                parent,
                name: name.clone(),
                ctime: t,
                mtime: t,
                version: 0,
                body: NodeBody::File { data: Bytes::new() },
            })?;
            event = VfsEvent::FileCreated {
                id,
                path: path.clone(),
            };
        }
        self.attr_cache.invalidate(parent);
        self.events.publish(event);
        Ok(id)
    }

    /// Creates a symbolic link at `path` pointing to `target`.
    pub fn symlink(&self, path: &VPath, target: &VPath) -> VfsResult<FileId> {
        self.counters.creates.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let event;
        let id;
        {
            let mut inner = self.inner.write();
            let target = target.clone();
            id = Self::insert_child(&mut inner, parent, &name, path, |id, t| Node {
                id,
                parent,
                name: name.clone(),
                ctime: t,
                mtime: t,
                version: 0,
                body: NodeBody::Symlink {
                    target: target.clone(),
                },
            })?;
            event = VfsEvent::SymlinkCreated {
                id,
                path: path.clone(),
                target: target.clone(),
            };
        }
        self.attr_cache.invalidate(parent);
        self.events.publish(event);
        Ok(id)
    }

    /// Creates many symbolic links in one directory under a single lock
    /// acquisition. Either all links are created or none (the batch is
    /// validated for collisions first). Used by bulk producers like HAC's
    /// scope resynchronization, where per-link locking would dominate.
    pub fn symlink_batch(&self, dir: &VPath, links: &[(String, VPath)]) -> VfsResult<Vec<FileId>> {
        if links.is_empty() {
            return Ok(Vec::new());
        }
        self.counters
            .creates
            .fetch_add(links.len() as u64, Ordering::Relaxed);
        let parent = match self.resolve_target(dir, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(dir.clone())),
        };
        let mut events = Vec::with_capacity(links.len());
        let mut ids = Vec::with_capacity(links.len());
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(dir.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(dir.clone()))?;
                for (name, _) in links {
                    if entries.contains_key(name) {
                        return Err(VfsError::AlreadyExists(dir.join(name)?));
                    }
                }
                // Duplicate names inside the batch are also collisions.
                let mut seen = std::collections::HashSet::new();
                for (name, _) in links {
                    if !seen.insert(name.as_str()) {
                        return Err(VfsError::AlreadyExists(dir.join(name)?));
                    }
                }
            }
            for (name, target) in links {
                let id = inner.nodes.alloc_id();
                inner.nodes.insert(Node {
                    id,
                    parent,
                    name: name.clone(),
                    ctime: t,
                    mtime: t,
                    version: 0,
                    body: NodeBody::Symlink {
                        target: target.clone(),
                    },
                });
                let path = dir.join(name)?;
                events.push(VfsEvent::SymlinkCreated {
                    id,
                    path,
                    target: target.clone(),
                });
                ids.push(id);
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            let entries = pnode.dir_entries_mut().expect("parent is a directory");
            for ((name, _), id) in links.iter().zip(ids.iter()) {
                entries.insert(name.clone(), *id);
            }
        }
        self.attr_cache.invalidate(parent);
        for event in events {
            self.events.publish(event);
        }
        Ok(ids)
    }

    fn insert_child(
        inner: &mut Inner,
        parent: FileId,
        name: &str,
        path: &VPath,
        make: impl Fn(FileId, LogicalTime) -> Node,
    ) -> VfsResult<FileId> {
        let t = inner.tick();
        {
            let pnode = inner
                .nodes
                .get(parent)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            let entries = pnode
                .dir_entries()
                .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
            if entries.contains_key(name) {
                return Err(VfsError::AlreadyExists(path.clone()));
            }
        }
        let id = inner.nodes.alloc_id();
        inner.nodes.insert(make(id, t));
        let pnode = inner
            .nodes
            .get_mut(parent)
            .ok_or_else(|| VfsError::NotFound(path.clone()))?;
        pnode.mtime = t;
        if let Some(entries) = pnode.dir_entries_mut() {
            entries.insert(name.to_string(), id);
        }
        Ok(id)
    }

    /// Replaces the content of an existing regular file (follows symlinks).
    pub fn write_file(&self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let id = match self.resolve_target(path, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(path.clone())),
        };
        let event;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    *d = Bytes::copy_from_slice(data);
                    node.mtime = t;
                    node.version += 1;
                    event = VfsEvent::FileWritten {
                        id,
                        path: path.clone(),
                        new_version: node.version,
                    };
                }
                NodeBody::Dir { .. } => return Err(VfsError::IsADirectory(path.clone())),
                NodeBody::Symlink { .. } => return Err(VfsError::DanglingLink(path.clone())),
            }
        }
        self.attr_cache.invalidate(id);
        self.events.publish(event);
        Ok(())
    }

    /// Creates the file if missing, then writes `data` (create-or-replace).
    pub fn save(&self, path: &VPath, data: &[u8]) -> VfsResult<FileId> {
        match self.create(path) {
            Ok(_) | Err(VfsError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
        self.write_file(path, data)?;
        self.resolve(path)
    }

    /// Appends bytes to an existing regular file.
    pub fn append(&self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let id = match self.resolve_target(path, true, 0)? {
            Target::Local(id) => id,
            Target::Foreign(..) => return Err(VfsError::CrossMount(path.clone())),
        };
        let event;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    let mut buf = Vec::with_capacity(d.len() + data.len());
                    buf.extend_from_slice(d);
                    buf.extend_from_slice(data);
                    *d = Bytes::from(buf);
                    node.mtime = t;
                    node.version += 1;
                    event = VfsEvent::FileWritten {
                        id,
                        path: path.clone(),
                        new_version: node.version,
                    };
                }
                NodeBody::Dir { .. } => return Err(VfsError::IsADirectory(path.clone())),
                NodeBody::Symlink { .. } => return Err(VfsError::DanglingLink(path.clone())),
            }
        }
        self.attr_cache.invalidate(id);
        self.events.publish(event);
        Ok(())
    }

    /// Removes a regular file or symbolic link (never follows the final
    /// component).
    pub fn unlink(&self, path: &VPath) -> VfsResult<()> {
        self.counters.removes.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let event;
        let removed;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                *entries
                    .get(&name)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?
            };
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            if node.kind() == NodeKind::Dir {
                return Err(VfsError::IsADirectory(path.clone()));
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            pnode
                .dir_entries_mut()
                .expect("parent is a directory")
                .remove(&name);
            inner.nodes.remove(id);
            removed = id;
            event = VfsEvent::Removed {
                id,
                path: path.clone(),
                was_dir: false,
            };
        }
        self.attr_cache.invalidate(removed);
        self.attr_cache.invalidate(parent);
        self.events.publish(event);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &VPath) -> VfsResult<()> {
        self.counters.removes.fetch_add(1, Ordering::Relaxed);
        let (parent, name) = self.require_local_parent(path)?;
        let event;
        let removed;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(parent)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                *entries
                    .get(&name)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?
            };
            {
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(path.clone()))?;
                let entries = node
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(path.clone()))?;
                if !entries.is_empty() {
                    return Err(VfsError::NotEmpty(path.clone()));
                }
            }
            if inner.mount_at(id).is_some() {
                return Err(VfsError::CrossMount(path.clone()));
            }
            let pnode = inner
                .nodes
                .get_mut(parent)
                .expect("parent vanished under write lock");
            pnode.mtime = t;
            pnode
                .dir_entries_mut()
                .expect("parent is a directory")
                .remove(&name);
            inner.nodes.remove(id);
            removed = id;
            event = VfsEvent::Removed {
                id,
                path: path.clone(),
                was_dir: true,
            };
        }
        self.attr_cache.invalidate(removed);
        self.attr_cache.invalidate(parent);
        self.events.publish(event);
        Ok(())
    }

    /// Recursively removes a file, link, or directory subtree.
    pub fn remove_recursive(&self, path: &VPath) -> VfsResult<()> {
        let attr = self.lstat(path)?;
        if attr.kind != NodeKind::Dir {
            return self.unlink(path);
        }
        let children = self.readdir(path)?;
        for entry in children {
            self.remove_recursive(&path.join(&entry.name)?)?;
        }
        self.rmdir(path)
    }

    /// Renames (moves) a file, symlink, or directory. Refuses to replace an
    /// existing destination, to move a directory into its own subtree, or to
    /// cross a mount boundary.
    pub fn rename(&self, from: &VPath, to: &VPath) -> VfsResult<()> {
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        if from.is_root() || to.is_root() {
            return Err(VfsError::RootImmutable);
        }
        if to.starts_with(from) && from != to {
            return Err(VfsError::IntoSelf(from.clone()));
        }
        let (from_parent, from_name) = self.require_local_parent(from)?;
        let (to_parent, to_name) = self.require_local_parent(to)?;
        let event;
        let moved;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let id = {
                let pnode = inner
                    .nodes
                    .get(from_parent)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?;
                let entries = pnode
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(from.clone()))?;
                *entries
                    .get(&from_name)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?
            };
            {
                let dest = inner
                    .nodes
                    .get(to_parent)
                    .ok_or_else(|| VfsError::NotFound(to.clone()))?;
                let entries = dest
                    .dir_entries()
                    .ok_or_else(|| VfsError::NotADirectory(to.clone()))?;
                if entries.contains_key(&to_name) {
                    return Err(VfsError::AlreadyExists(to.clone()));
                }
            }
            // Guard against moving a directory under itself via ids (the
            // lexical check above misses moves through symlinks).
            let mut cursor = to_parent;
            loop {
                if cursor == id {
                    return Err(VfsError::IntoSelf(from.clone()));
                }
                if cursor == FileId::ROOT {
                    break;
                }
                cursor = inner
                    .nodes
                    .get(cursor)
                    .ok_or_else(|| VfsError::NotFound(to.clone()))?
                    .parent;
            }
            let is_dir;
            {
                let node = inner
                    .nodes
                    .get(id)
                    .ok_or_else(|| VfsError::NotFound(from.clone()))?;
                is_dir = node.kind() == NodeKind::Dir;
            }
            inner
                .nodes
                .get_mut(from_parent)
                .expect("source parent vanished under write lock")
                .dir_entries_mut()
                .expect("source parent is a directory")
                .remove(&from_name);
            {
                let node = inner.nodes.get_mut(id).expect("moved node vanished");
                node.parent = to_parent;
                node.name = to_name.clone();
                node.mtime = t;
            }
            {
                let dest = inner
                    .nodes
                    .get_mut(to_parent)
                    .expect("dest parent vanished");
                dest.mtime = t;
                dest.dir_entries_mut()
                    .expect("dest parent is a directory")
                    .insert(to_name.clone(), id);
            }
            inner
                .nodes
                .get_mut(from_parent)
                .expect("source parent vanished")
                .mtime = t;
            moved = id;
            event = VfsEvent::Renamed {
                id,
                from: from.clone(),
                to: to.clone(),
                is_dir,
            };
        }
        self.attr_cache.invalidate(moved);
        self.attr_cache.invalidate(from_parent);
        self.attr_cache.invalidate(to_parent);
        self.events.publish(event);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mounts
    // ------------------------------------------------------------------

    /// Grafts a foreign namespace at an existing local directory (a
    /// *syntactic mount point*). Reads traverse into the mounted namespace;
    /// local mutations under the mount point are rejected with
    /// [`VfsError::CrossMount`].
    pub fn mount(&self, at: &VPath, ns: Arc<Vfs>) -> VfsResult<()> {
        let id = self.resolve_nofollow(at)?;
        {
            let inner = self.inner.read();
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(at.clone()))?;
            if node.kind() != NodeKind::Dir {
                return Err(VfsError::NotADirectory(at.clone()));
            }
        }
        let mut inner = self.inner.write();
        if inner.mount_at(id).is_some() {
            return Err(VfsError::AlreadyExists(at.clone()));
        }
        inner.mounts.push((id, ns));
        drop(inner);
        self.events.publish(VfsEvent::Mounted { at: at.clone() });
        Ok(())
    }

    /// Detaches a foreign namespace from a mount point.
    pub fn unmount(&self, at: &VPath) -> VfsResult<()> {
        let id = self.resolve_nofollow(at)?;
        let mut inner = self.inner.write();
        let before = inner.mounts.len();
        inner.mounts.retain(|(m, _)| *m != id);
        if inner.mounts.len() == before {
            return Err(VfsError::NotFound(at.clone()));
        }
        drop(inner);
        self.events.publish(VfsEvent::Unmounted { at: at.clone() });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Descriptor I/O
    // ------------------------------------------------------------------

    /// Opens a file for descriptor-based I/O in process `pid`.
    pub fn open(
        &self,
        pid: ProcessId,
        path: &VPath,
        mode: OpenMode,
        policy: CreatePolicy,
    ) -> VfsResult<Fd> {
        let id = match self.resolve_target(path, true, 0) {
            Ok(Target::Local(id)) => {
                if policy == CreatePolicy::CreateOrTruncate {
                    self.write_file(path, b"")?;
                }
                id
            }
            Ok(Target::Foreign(..)) => return Err(VfsError::CrossMount(path.clone())),
            Err(VfsError::NotFound(_)) if policy != CreatePolicy::MustExist => self.create(path)?,
            Err(e) => return Err(e),
        };
        {
            let inner = self.inner.read();
            let node = inner
                .nodes
                .get(id)
                .ok_or_else(|| VfsError::NotFound(path.clone()))?;
            if node.kind() == NodeKind::Dir {
                return Err(VfsError::IsADirectory(path.clone()));
            }
        }
        let mut procs = self.procs.write();
        Ok(procs.table_mut(pid)?.open(id, mode))
    }

    /// Reads up to `len` bytes at the descriptor's offset, advancing it.
    pub fn read_fd(&self, pid: ProcessId, fd: Fd, len: usize) -> VfsResult<Bytes> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        let (file, offset) = {
            let procs = self.procs.read();
            let of = *procs.table(pid)?.get(fd)?;
            if !of.mode.can_read() {
                return Err(VfsError::BadMode("descriptor not open for reading"));
            }
            (of.file, of.offset)
        };
        let chunk = {
            let inner = self.inner.read();
            let node = inner
                .nodes
                .get(file)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            match &node.body {
                NodeBody::File { data } => {
                    let start = (offset as usize).min(data.len());
                    let end = (start + len).min(data.len());
                    data.slice(start..end)
                }
                _ => return Err(VfsError::BadMode("descriptor does not refer to a file")),
            }
        };
        let mut procs = self.procs.write();
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset + chunk.len() as u64;
        Ok(chunk)
    }

    /// Writes bytes at the descriptor's offset (zero-filling any gap),
    /// advancing it.
    pub fn write_fd(&self, pid: ProcessId, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        let (file, offset) = {
            let procs = self.procs.read();
            let of = *procs.table(pid)?.get(fd)?;
            if !of.mode.can_write() {
                return Err(VfsError::BadMode("descriptor not open for writing"));
            }
            (of.file, of.offset)
        };
        let event;
        {
            let mut inner = self.inner.write();
            let t = inner.tick();
            let node = inner
                .nodes
                .get_mut(file)
                .ok_or_else(|| VfsError::NotFound(VPath::root()))?;
            match &mut node.body {
                NodeBody::File { data: d } => {
                    let start = offset as usize;
                    let mut buf = d.to_vec();
                    if buf.len() < start {
                        buf.resize(start, 0);
                    }
                    let end = start + data.len();
                    if buf.len() < end {
                        buf.resize(end, 0);
                    }
                    buf[start..end].copy_from_slice(data);
                    *d = Bytes::from(buf);
                    node.mtime = t;
                    node.version += 1;
                    event = VfsEvent::FileWritten {
                        id: file,
                        path: VPath::root(),
                        new_version: node.version,
                    };
                }
                _ => return Err(VfsError::BadMode("descriptor does not refer to a file")),
            }
        }
        self.attr_cache.invalidate(file);
        // Descriptor writes report the file id; the path may have changed
        // since open, so consumers needing a path should call `path_of`.
        let event = match event {
            VfsEvent::FileWritten {
                id, new_version, ..
            } => VfsEvent::FileWritten {
                id,
                path: self.path_of(file).unwrap_or_else(|_| VPath::root()),
                new_version,
            },
            other => other,
        };
        self.events.publish(event);
        let mut procs = self.procs.write();
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset + data.len() as u64;
        Ok(data.len())
    }

    /// Repositions a descriptor's offset.
    pub fn seek(&self, pid: ProcessId, fd: Fd, offset: u64) -> VfsResult<()> {
        let mut procs = self.procs.write();
        procs.table_mut(pid)?.get_mut(fd)?.offset = offset;
        Ok(())
    }

    /// Closes a descriptor.
    pub fn close(&self, pid: ProcessId, fd: Fd) -> VfsResult<()> {
        let mut procs = self.procs.write();
        procs.table_mut(pid)?.close(fd)
    }

    // ------------------------------------------------------------------
    // Bulk access for indexing / persistence
    // ------------------------------------------------------------------

    /// Depth-first, name-ordered traversal of the subtree rooted at `start`,
    /// by id and under one read lock: `start` first, then each directory's
    /// entries in name order, every subdirectory's subtree right after its
    /// own entry. Symbolic links are reported, never followed. A mount point
    /// is reported as the local directory it covers and not descended into:
    /// the mounted namespace is foreign and its ids are not ours. No path is
    /// built or resolved and the attribute cache is neither read nor filled.
    ///
    /// `f` runs with the node table's read lock held, so it must not call
    /// back into this `Vfs`: a second read can deadlock against a queued
    /// writer. Collect what needs resolving (link targets, say) and resolve
    /// it after the traversal returns.
    ///
    /// Returns `false`, visiting nothing, when `start` is not a live node.
    pub fn visit_subtree(&self, start: FileId, mut f: impl FnMut(&NodeVisit<'_>)) -> bool {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.read();
        let Some(node) = inner.nodes.get(start) else {
            return false;
        };
        f(&NodeVisit::of(node, &node.name));
        let mut open: Vec<_> = inner
            .local_entries(node)
            .map(|e| e.iter())
            .into_iter()
            .collect();
        while let Some(entries) = open.last_mut() {
            let Some((name, &id)) = entries.next() else {
                open.pop();
                continue;
            };
            let Some(node) = inner.nodes.get(id) else {
                continue;
            };
            f(&NodeVisit::of(node, name));
            if let Some(children) = inner.local_entries(node) {
                open.push(children.iter());
            }
        }
        true
    }

    /// Visits the entries of directory `dir` in name order, one level deep,
    /// under one read lock; the same rules and the same restriction on `f`
    /// as [`Vfs::visit_subtree`]. A mount point has no local entries to
    /// visit. Returns `false` when `dir` is not a live directory.
    pub fn visit_children(&self, dir: FileId, mut f: impl FnMut(&NodeVisit<'_>)) -> bool {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.read();
        let Some(node) = inner.nodes.get(dir).filter(|n| n.kind() == NodeKind::Dir) else {
            return false;
        };
        for (name, &id) in inner.local_entries(node).into_iter().flatten() {
            if let Some(child) = inner.nodes.get(id) {
                f(&NodeVisit::of(child, name));
            }
        }
        true
    }

    /// Clones the raw node table (for snapshot persistence).
    pub(crate) fn clone_nodes(&self) -> NodeTable {
        self.inner.read().nodes.clone()
    }

    /// Replaces the node table wholesale (snapshot restore). Clears caches.
    pub(crate) fn replace_nodes(&self, nodes: NodeTable, clock: u64) {
        let mut inner = self.inner.write();
        inner.nodes = nodes;
        inner.clock = clock;
        drop(inner);
        self.attr_cache.clear();
    }

    pub(crate) fn clock_value(&self) -> u64 {
        self.inner.read().clock
    }
}
