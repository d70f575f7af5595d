//! The in-memory filesystem behind [`crate::SimOs`].
//!
//! A straightforward inode table: directories are name→inode maps,
//! files carry their bytes plus an optional *program key* naming an
//! entry in the simulated-program registry (that is how `/bin/cat`
//! "executes"). Paths are resolved UNIX-style against a current
//! working directory, with `.` and `..` handling.
//!
//! The inode table is shared copy-on-write, and so is each inode:
//! cloning a `Vfs` (and so a whole [`crate::SimOs`], for `fork`, a
//! pooled slot's recycle, or the boot image) bumps a refcount. The
//! first write through a clone copies the table of inode pointers,
//! and a write to an inode copies that inode only. Two filesystems
//! that still share one table are equal without a read; otherwise
//! [`Vfs::digest`] walks the tree.

use crate::error::{OsError, OsResult};
use crate::sim::{fnv, FNV_OFFSET};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub(crate) usize);

/// One filesystem node.
#[derive(Debug, Clone)]
pub enum Node {
    /// A directory: sorted name → inode map.
    Dir(BTreeMap<String, Ino>),
    /// A regular file.
    File {
        /// File contents.
        data: Vec<u8>,
        /// If set, the file is an executable bound to this key in the
        /// simulated program registry.
        program: Option<String>,
        /// Executable permission bit (scripts may be executable
        /// without a program key).
        executable: bool,
    },
    /// The null device: it reads as empty and discards what is written.
    Null,
}

/// The filesystem: a copy-on-write handle on an inode table whose
/// inode 0 is the root. Clones share the nodes themselves too.
#[derive(Debug, Clone)]
pub struct Vfs {
    tree: Rc<Vec<Rc<Node>>>,
}

/// Result of a path resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// The path names this existing inode.
    Found(Ino),
    /// The parent directory exists but the final component does not.
    /// Carries the parent inode (creation can proceed).
    Missing(Ino),
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a filesystem containing only an empty root directory.
    pub fn new() -> Vfs {
        Vfs {
            tree: Rc::new(vec![Rc::new(Node::Dir(BTreeMap::new()))]),
        }
    }

    /// The root directory's inode.
    pub fn root(&self) -> Ino {
        Ino(0)
    }

    fn node(&self, ino: Ino) -> &Node {
        &self.tree[ino.0]
    }

    /// The one way to write the table: unshares it (copying its inode
    /// pointers if a clone still holds it).
    fn tree_mut(&mut self) -> &mut Vec<Rc<Node>> {
        Rc::make_mut(&mut self.tree)
    }

    /// Unshares the one inode written (copying it if a clone still
    /// holds it).
    fn node_mut(&mut self, ino: Ino) -> &mut Node {
        Rc::make_mut(&mut self.tree_mut()[ino.0])
    }

    fn push_node(&mut self, node: Node) -> Ino {
        let nodes = self.tree_mut();
        nodes.push(Rc::new(node));
        Ino(nodes.len() - 1)
    }

    /// True if the two filesystems have the same contents: they share
    /// one inode table, or their digests are equal.
    pub(crate) fn same_tree(&self, other: &Vfs) -> bool {
        Rc::ptr_eq(&self.tree, &other.tree) || self.digest() == other.digest()
    }

    /// Deterministic digest of everything reachable from the root:
    /// each path, whether it is a directory, and a file's executable
    /// bit and program key or contents, walked afresh on every call.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        self.hash_dir(self.root(), &mut String::new(), &mut h);
        h
    }

    fn hash_dir(&self, dir: Ino, path: &mut String, h: &mut u64) {
        let Node::Dir(entries) = self.node(dir) else {
            return;
        };
        for (name, &ino) in entries {
            let len = path.len();
            path.push('/');
            path.push_str(name);
            fnv(h, path.as_bytes());
            match self.node(ino) {
                Node::Dir(_) => {
                    fnv(h, b"dir");
                    self.hash_dir(ino, path, h);
                }
                Node::Null => fnv(h, b"null"),
                Node::File {
                    data,
                    program,
                    executable,
                } => {
                    fnv(h, &[(*executable || program.is_some()) as u8]);
                    match program {
                        Some(key) => {
                            fnv(h, b"prog");
                            fnv(h, key.as_bytes());
                        }
                        None => {
                            fnv(h, b"file");
                            fnv(h, data);
                        }
                    }
                }
            }
            path.truncate(len);
        }
    }

    /// Normalises `path` against `cwd` into absolute components.
    /// `cwd` must itself be absolute ("/" separated, starting with /).
    pub fn normalize(path: &str, cwd: &str) -> Vec<String> {
        let mut comps: Vec<String> = Vec::new();
        let full: String = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("{}/{}", cwd.trim_end_matches('/'), path)
        };
        for part in full.split('/') {
            match part {
                "" | "." => {}
                ".." => {
                    comps.pop();
                }
                other => comps.push(other.to_string()),
            }
        }
        comps
    }

    /// Resolves `path` (relative to `cwd`) to an inode, or to its
    /// would-be parent if only the final component is missing.
    pub fn resolve(&self, path: &str, cwd: &str) -> OsResult<Resolved> {
        let comps = Self::normalize(path, cwd);
        let mut cur = self.root();
        for (i, comp) in comps.iter().enumerate() {
            let last = i + 1 == comps.len();
            match self.node(cur) {
                Node::Dir(entries) => match entries.get(comp) {
                    Some(&child) => cur = child,
                    None if last => return Ok(Resolved::Missing(cur)),
                    None => return Err(OsError::NoEnt(path.to_string())),
                },
                Node::File { .. } | Node::Null => return Err(OsError::NotDir(path.to_string())),
            }
        }
        Ok(Resolved::Found(cur))
    }

    /// Resolves `path` to an existing inode or fails with ENOENT.
    pub fn lookup(&self, path: &str, cwd: &str) -> OsResult<Ino> {
        match self.resolve(path, cwd)? {
            Resolved::Found(ino) => Ok(ino),
            Resolved::Missing(_) => Err(OsError::NoEnt(path.to_string())),
        }
    }

    /// Returns true if `path` names an existing regular file.
    pub fn is_file(&self, path: &str, cwd: &str) -> bool {
        matches!(
            self.lookup(path, cwd).map(|i| self.node(i)),
            Ok(Node::File { .. })
        )
    }

    /// Returns true if `path` names an existing directory.
    pub fn is_dir(&self, path: &str, cwd: &str) -> bool {
        matches!(
            self.lookup(path, cwd).map(|i| self.node(i)),
            Ok(Node::Dir(_))
        )
    }

    /// Returns true if `path` is an executable file.
    pub fn is_executable(&self, path: &str, cwd: &str) -> bool {
        matches!(
            self.lookup(path, cwd).map(|i| self.node(i)),
            Ok(Node::File {
                executable: true,
                ..
            }) | Ok(Node::File {
                program: Some(_),
                ..
            })
        )
    }

    /// The program-registry key of an executable, if any.
    pub fn program_of(&self, ino: Ino) -> Option<&str> {
        match self.node(ino) {
            Node::File {
                program: Some(p), ..
            } => Some(p),
            _ => None,
        }
    }

    /// Whole contents of the file at `ino` (none for the null device).
    ///
    /// # Panics
    ///
    /// Panics if `ino` is a directory (callers check first).
    pub fn file_data(&self, ino: Ino) -> &[u8] {
        match self.node(ino) {
            Node::File { data, .. } => data,
            Node::Null => &[],
            Node::Dir(_) => panic!("file_data on a directory"),
        }
    }

    /// Byte length of the file at `ino` (0 for anything else).
    pub fn file_len(&self, ino: Ino) -> usize {
        match self.node(ino) {
            Node::File { data, .. } => data.len(),
            Node::Dir(_) | Node::Null => 0,
        }
    }

    /// Reads up to `buf.len()` bytes at `offset`.
    pub fn read_at(&self, ino: Ino, offset: usize, buf: &mut [u8]) -> usize {
        let data = self.file_data(ino);
        if offset >= data.len() {
            return 0;
        }
        let n = buf.len().min(data.len() - offset);
        buf[..n].copy_from_slice(&data[offset..offset + n]);
        n
    }

    /// Writes `bytes` at `offset`, zero-filling any gap (the null
    /// device discards them).
    pub fn write_at(&mut self, ino: Ino, offset: usize, bytes: &[u8]) {
        match self.node_mut(ino) {
            Node::File { data, .. } => {
                if data.len() < offset {
                    data.resize(offset, 0);
                }
                let end = offset + bytes.len();
                if end <= data.len() {
                    data[offset..end].copy_from_slice(bytes);
                } else {
                    data.truncate(offset);
                    data.extend_from_slice(bytes);
                }
            }
            Node::Null => {}
            Node::Dir(_) => panic!("write_at on a directory"),
        }
    }

    /// Truncates the file to zero length.
    pub fn truncate(&mut self, ino: Ino) {
        match self.node_mut(ino) {
            Node::File { data, .. } => data.clear(),
            Node::Null => {}
            Node::Dir(_) => panic!("truncate on a directory"),
        }
    }

    /// Creates (or opens, if `exclusive` is false) a regular file.
    /// Returns its inode. Fails with EEXIST if `exclusive` and present,
    /// EISDIR if the path is a directory.
    pub fn create_file(&mut self, path: &str, cwd: &str, exclusive: bool) -> OsResult<Ino> {
        match self.resolve(path, cwd)? {
            Resolved::Found(ino) => match self.node(ino) {
                Node::Dir(_) => Err(OsError::IsDir(path.to_string())),
                _ if exclusive => Err(OsError::Exists(path.to_string())),
                _ => Ok(ino),
            },
            Resolved::Missing(parent) => self.link(
                parent,
                path,
                cwd,
                Node::File {
                    data: Vec::new(),
                    program: None,
                    executable: false,
                },
            ),
        }
    }

    /// Puts `node` in directory `parent` under the last component of
    /// `path`, which resolved as missing there.
    fn link(&mut self, parent: Ino, path: &str, cwd: &str, node: Node) -> OsResult<Ino> {
        let name = Self::normalize(path, cwd)
            .pop()
            .ok_or_else(|| OsError::Inval(path.to_string()))?;
        let ino = self.push_node(node);
        match self.node_mut(parent) {
            Node::Dir(entries) => {
                entries.insert(name, ino);
            }
            _ => unreachable!("parent is a dir by construction"),
        }
        Ok(ino)
    }

    /// Creates the null device at `path`.
    pub(crate) fn put_null(&mut self, path: &str) -> OsResult<Ino> {
        match self.resolve(path, "/")? {
            Resolved::Found(_) => Err(OsError::Exists(path.to_string())),
            Resolved::Missing(parent) => self.link(parent, path, "/", Node::Null),
        }
    }

    /// Creates a directory. Fails with EEXIST if the path exists.
    pub fn mkdir(&mut self, path: &str, cwd: &str) -> OsResult<Ino> {
        match self.resolve(path, cwd)? {
            Resolved::Found(_) => Err(OsError::Exists(path.to_string())),
            Resolved::Missing(parent) => self.link(parent, path, cwd, Node::Dir(BTreeMap::new())),
        }
    }

    /// Creates every missing directory along `path` (mkdir -p).
    pub fn mkdir_all(&mut self, path: &str) -> OsResult<Ino> {
        let comps = Self::normalize(path, "/");
        let mut cur = "/".to_string();
        let mut ino = self.root();
        for comp in comps {
            let next = format!("{}/{}", cur.trim_end_matches('/'), comp);
            ino = match self.resolve(&next, "/")? {
                Resolved::Found(i) => match self.node(i) {
                    Node::Dir(_) => i,
                    _ => return Err(OsError::NotDir(next)),
                },
                Resolved::Missing(_) => self.mkdir(&next, "/")?,
            };
            cur = next;
        }
        Ok(ino)
    }

    /// Removes a file (not a directory).
    pub fn unlink(&mut self, path: &str, cwd: &str) -> OsResult<()> {
        let comps = Self::normalize(path, cwd);
        let name = comps.last().cloned().ok_or(OsError::Inval(path.into()))?;
        let ino = self.lookup(path, cwd)?;
        if matches!(self.node(ino), Node::Dir(_)) {
            return Err(OsError::IsDir(path.to_string()));
        }
        let parent_path: String = format!("/{}", comps[..comps.len() - 1].join("/"));
        let parent = self.lookup(&parent_path, "/")?;
        match self.node_mut(parent) {
            Node::Dir(entries) => {
                entries.remove(&name);
                Ok(())
            }
            _ => unreachable!("parent is a dir by construction"),
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str, cwd: &str) -> OsResult<()> {
        let comps = Self::normalize(path, cwd);
        let name = comps.last().cloned().ok_or(OsError::Inval(path.into()))?;
        let ino = self.lookup(path, cwd)?;
        match self.node(ino) {
            Node::Dir(entries) if !entries.is_empty() => {
                return Err(OsError::NotEmpty(path.to_string()))
            }
            Node::Dir(_) => {}
            _ => return Err(OsError::NotDir(path.to_string())),
        }
        let parent_path: String = format!("/{}", comps[..comps.len() - 1].join("/"));
        let parent = self.lookup(&parent_path, "/")?;
        match self.node_mut(parent) {
            Node::Dir(entries) => {
                entries.remove(&name);
                Ok(())
            }
            _ => unreachable!("parent is a dir by construction"),
        }
    }

    /// Sorted names in a directory.
    pub fn read_dir(&self, path: &str, cwd: &str) -> OsResult<Vec<String>> {
        let ino = self.lookup(path, cwd)?;
        match self.node(ino) {
            Node::Dir(entries) => Ok(entries.keys().cloned().collect()),
            _ => Err(OsError::NotDir(path.to_string())),
        }
    }

    /// Convenience: writes a whole file, creating it if needed.
    pub fn put_file(&mut self, path: &str, data: &[u8]) -> OsResult<Ino> {
        if let Some(dir) = parent_of(path) {
            self.mkdir_all(&dir)?;
        }
        let ino = self.create_file(path, "/", false)?;
        self.truncate(ino);
        self.write_at(ino, 0, data);
        Ok(ino)
    }

    /// Convenience: installs an executable bound to a registry program.
    pub fn put_program(&mut self, path: &str, key: &str) -> OsResult<Ino> {
        let ino = self.put_file(path, b"#!simulated\n")?;
        if let Node::File {
            program,
            executable,
            ..
        } = self.node_mut(ino)
        {
            *program = Some(key.to_string());
            *executable = true;
        }
        Ok(ino)
    }

    /// Marks an existing file executable (e.g. an es script).
    pub fn set_executable(&mut self, path: &str, on: bool) -> OsResult<()> {
        let ino = self.lookup(path, "/")?;
        match self.node_mut(ino) {
            Node::File { executable, .. } => {
                *executable = on;
                Ok(())
            }
            Node::Null => Ok(()),
            Node::Dir(_) => Err(OsError::IsDir(path.to_string())),
        }
    }
}

/// The directory part of an absolute path, if any.
fn parent_of(path: &str) -> Option<String> {
    let trimmed = path.trim_end_matches('/');
    trimmed.rfind('/').map(|i| {
        if i == 0 {
            "/".to_string()
        } else {
            trimmed[..i].to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_paths() {
        assert_eq!(Vfs::normalize("/a/b", "/"), vec!["a", "b"]);
        assert_eq!(Vfs::normalize("b", "/a"), vec!["a", "b"]);
        assert_eq!(Vfs::normalize("../c", "/a/b"), vec!["a", "c"]);
        assert_eq!(Vfs::normalize("./x/./y", "/"), vec!["x", "y"]);
        assert_eq!(Vfs::normalize("/..", "/"), Vec::<String>::new());
        assert_eq!(Vfs::normalize("//a///b//", "/"), vec!["a", "b"]);
    }

    #[test]
    fn create_write_read() {
        let mut fs = Vfs::new();
        let ino = fs.put_file("/tmp/foo", b"hello").unwrap();
        assert_eq!(fs.file_data(ino), b"hello");
        let mut buf = [0u8; 3];
        assert_eq!(fs.read_at(ino, 2, &mut buf), 3);
        assert_eq!(&buf, b"llo");
        assert_eq!(fs.read_at(ino, 5, &mut buf), 0);
        fs.write_at(ino, 3, b"LOW");
        assert_eq!(fs.file_data(ino), b"helLOW");
    }

    #[test]
    fn exclusive_create() {
        let mut fs = Vfs::new();
        fs.put_file("/f", b"x").unwrap();
        assert_eq!(
            fs.create_file("/f", "/", true),
            Err(OsError::Exists("/f".into()))
        );
        assert!(fs.create_file("/f", "/", false).is_ok());
    }

    #[test]
    fn lookup_errors() {
        let fs = Vfs::new();
        assert_eq!(fs.lookup("/nope", "/"), Err(OsError::NoEnt("/nope".into())));
        let mut fs = Vfs::new();
        fs.put_file("/file", b"").unwrap();
        assert_eq!(
            fs.lookup("/file/sub", "/"),
            Err(OsError::NotDir("/file/sub".into()))
        );
        // Missing intermediate directory is ENOENT, not Missing.
        assert_eq!(
            fs.resolve("/no/such/dir", "/"),
            Err(OsError::NoEnt("/no/such/dir".into()))
        );
    }

    #[test]
    fn dirs_and_listing() {
        let mut fs = Vfs::new();
        fs.mkdir_all("/usr/tmp").unwrap();
        fs.put_file("/usr/tmp/b", b"").unwrap();
        fs.put_file("/usr/tmp/a", b"").unwrap();
        assert_eq!(fs.read_dir("/usr/tmp", "/").unwrap(), vec!["a", "b"]);
        assert!(fs.is_dir("/usr/tmp", "/"));
        assert!(!fs.is_dir("/usr/tmp/a", "/"));
        assert!(fs.is_file("/usr/tmp/a", "/"));
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut fs = Vfs::new();
        fs.mkdir_all("/d").unwrap();
        fs.put_file("/d/f", b"").unwrap();
        assert_eq!(fs.rmdir("/d", "/"), Err(OsError::NotEmpty("/d".into())));
        fs.unlink("/d/f", "/").unwrap();
        fs.rmdir("/d", "/").unwrap();
        assert!(!fs.is_dir("/d", "/"));
        assert_eq!(fs.unlink("/d/f", "/"), Err(OsError::NoEnt("/d/f".into())));
    }

    #[test]
    fn programs_are_executable() {
        let mut fs = Vfs::new();
        fs.put_program("/bin/cat", "cat").unwrap();
        assert!(fs.is_executable("/bin/cat", "/"));
        let ino = fs.lookup("/bin/cat", "/").unwrap();
        assert_eq!(fs.program_of(ino), Some("cat"));
        assert!(!fs.is_executable("/bin", "/"));
    }

    #[test]
    fn relative_resolution_uses_cwd() {
        let mut fs = Vfs::new();
        fs.put_file("/home/u/notes", b"n").unwrap();
        assert!(fs.is_file("notes", "/home/u"));
        assert!(fs.is_file("../u/notes", "/home/u"));
        assert!(!fs.is_file("notes", "/"));
    }

    #[test]
    fn write_with_gap_zero_fills() {
        let mut fs = Vfs::new();
        let ino = fs.put_file("/f", b"ab").unwrap();
        fs.write_at(ino, 4, b"z");
        assert_eq!(fs.file_data(ino), b"ab\0\0z");
    }
}
