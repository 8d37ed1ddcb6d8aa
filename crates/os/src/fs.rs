//! The in-memory filesystem: inodes, a flat directory, per-process
//! descriptor tables.
//!
//! File content is either real bytes (database tables, logs — workloads
//! read back what they wrote) or synthetic (the SPECWeb file set: servers
//! only ship the bytes, nobody parses them), so multi-megabyte file sets
//! don't cost host memory.

use crate::proto::{Errno, Fd, FileStat};
use compass_isa::{ConnId, ProcessId};
use compass_mem::VAddr;
use std::collections::HashMap;

/// File content.
#[derive(Debug, Clone)]
pub enum FileData {
    /// Real bytes.
    Bytes(Vec<u8>),
    /// Deterministic pattern of the given length.
    Synthetic {
        /// Length in bytes.
        len: u64,
    },
}

/// One inode.
#[derive(Debug)]
pub struct Inode {
    /// Inode number.
    pub no: u64,
    /// Content.
    pub data: FileData,
    /// Simulated address of the in-kernel inode structure.
    pub kaddr: VAddr,
}

impl Inode {
    /// Current length.
    pub fn len(&self) -> u64 {
        match &self.data {
            FileData::Bytes(b) => b.len() as u64,
            FileData::Synthetic { len } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads up to `len` bytes at `off` (functional).
    pub fn read_at(&self, off: u64, len: u32) -> Vec<u8> {
        let flen = self.len();
        if off >= flen {
            return Vec::new();
        }
        let n = (len as u64).min(flen - off) as usize;
        match &self.data {
            FileData::Bytes(b) => b[off as usize..off as usize + n].to_vec(),
            FileData::Synthetic { .. } => (0..n)
                .map(|i| (self.no.wrapping_add(off + i as u64) & 0xff) as u8)
                .collect(),
        }
    }

    /// Writes `data` at `off`, extending (zero-filling) as needed. A write
    /// to synthetic content materialises it.
    pub fn write_at(&mut self, off: u64, data: &[u8]) {
        if let FileData::Synthetic { len } = self.data {
            // Materialise lazily — only small files are written in
            // practice (logs, generated tables).
            let bytes = self.read_at(0, len.min(u32::MAX as u64) as u32);
            self.data = FileData::Bytes(bytes);
        }
        let FileData::Bytes(b) = &mut self.data else {
            unreachable!()
        };
        let end = off as usize + data.len();
        if b.len() < end {
            b.resize(end, 0);
        }
        b[off as usize..end].copy_from_slice(data);
    }
}

/// The filesystem: a flat path → inode map.
#[derive(Debug, Default)]
pub struct FileSystem {
    by_path: HashMap<String, u64>,
    inodes: Vec<Inode>,
}

impl FileSystem {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or truncates) a file with the given content; returns its
    /// inode number. Used for pre-simulation population (the SPECWeb file
    /// set generator, database loads) and by `open(create)`.
    pub fn create(&mut self, path: &str, data: FileData, kaddr: VAddr) -> u64 {
        if let Some(&no) = self.by_path.get(path) {
            self.inodes[no as usize].data = data;
            return no;
        }
        let no = self.inodes.len() as u64;
        self.inodes.push(Inode { no, data, kaddr });
        self.by_path.insert(path.to_string(), no);
        no
    }

    /// Looks a path up.
    pub fn lookup(&self, path: &str) -> Option<u64> {
        self.by_path.get(path).copied()
    }

    /// Borrows an inode.
    pub fn inode(&self, no: u64) -> &Inode {
        &self.inodes[no as usize]
    }

    /// Mutably borrows an inode.
    pub fn inode_mut(&mut self, no: u64) -> &mut Inode {
        &mut self.inodes[no as usize]
    }

    /// `stat` helper.
    pub fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        let no = self.lookup(path).ok_or(Errno::NoEnt)?;
        Ok(FileStat {
            inode: no,
            len: self.inode(no).len(),
        })
    }

    /// Removes a path (the inode stays allocated; open descriptors keep
    /// working, as on UNIX).
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.by_path.remove(path).map(|_| ()).ok_or(Errno::NoEnt)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.by_path.len()
    }

    /// True when no files exist.
    pub fn is_empty(&self) -> bool {
        self.by_path.is_empty()
    }
}

/// What a descriptor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Desc {
    /// An open file with a cursor.
    File {
        /// Inode number.
        inode: u64,
        /// Current offset.
        offset: u64,
    },
    /// A listening TCP socket.
    Listener {
        /// Port.
        port: u16,
    },
    /// A connected TCP socket.
    Sock {
        /// Connection.
        conn: ConnId,
    },
}

/// Per-process descriptor tables.
#[derive(Debug, Default)]
pub struct FdTables {
    tables: HashMap<ProcessId, Vec<Option<Desc>>>,
}

impl FdTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a descriptor for `pid`; returns the new fd (lowest free,
    /// as on UNIX).
    pub fn install(&mut self, pid: ProcessId, desc: Desc) -> Fd {
        let table = self.tables.entry(pid).or_default();
        for (i, slot) in table.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(desc);
                return Fd(i as u32);
            }
        }
        table.push(Some(desc));
        Fd(table.len() as u32 - 1)
    }

    /// Looks a descriptor up.
    pub fn get(&self, pid: ProcessId, fd: Fd) -> Result<Desc, Errno> {
        self.tables
            .get(&pid)
            .and_then(|t| t.get(fd.0 as usize))
            .and_then(|d| *d)
            .ok_or(Errno::BadF)
    }

    /// Mutates a descriptor (offset updates).
    pub fn get_mut(&mut self, pid: ProcessId, fd: Fd) -> Result<&mut Desc, Errno> {
        self.tables
            .get_mut(&pid)
            .and_then(|t| t.get_mut(fd.0 as usize))
            .and_then(|d| d.as_mut())
            .ok_or(Errno::BadF)
    }

    /// Closes a descriptor, returning what it was.
    pub fn close(&mut self, pid: ProcessId, fd: Fd) -> Result<Desc, Errno> {
        self.tables
            .get_mut(&pid)
            .and_then(|t| t.get_mut(fd.0 as usize))
            .and_then(|d| d.take())
            .ok_or(Errno::BadF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProcessId = ProcessId(1);

    #[test]
    fn synthetic_reads_are_deterministic_and_cheap() {
        let mut fs = FileSystem::new();
        let no = fs.create(
            "/web/file1",
            FileData::Synthetic { len: 10_000 },
            VAddr(0xC0010000),
        );
        let a = fs.inode(no).read_at(100, 50);
        let b = fs.inode(no).read_at(100, 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        // Reads beyond EOF truncate.
        assert_eq!(fs.inode(no).read_at(9_990, 50).len(), 10);
        assert!(fs.inode(no).read_at(20_000, 10).is_empty());
    }

    #[test]
    fn bytes_roundtrip_through_write() {
        let mut fs = FileSystem::new();
        let no = fs.create("/db/t1", FileData::Bytes(vec![]), VAddr(0xC0010000));
        fs.inode_mut(no).write_at(4, b"hello");
        assert_eq!(fs.inode(no).len(), 9);
        assert_eq!(fs.inode(no).read_at(4, 5), b"hello");
        assert_eq!(fs.inode(no).read_at(0, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn writing_synthetic_materialises_it() {
        let mut fs = FileSystem::new();
        let no = fs.create("/f", FileData::Synthetic { len: 8 }, VAddr(0xC0010000));
        let before = fs.inode(no).read_at(0, 8);
        fs.inode_mut(no).write_at(2, b"XY");
        let after = fs.inode(no).read_at(0, 8);
        assert_eq!(&after[..2], &before[..2]);
        assert_eq!(&after[2..4], b"XY");
        assert_eq!(&after[4..], &before[4..]);
    }

    #[test]
    fn stat_and_unlink() {
        let mut fs = FileSystem::new();
        fs.create("/a", FileData::Synthetic { len: 7 }, VAddr(0xC0010000));
        assert_eq!(fs.stat("/a").unwrap().len, 7);
        fs.unlink("/a").unwrap();
        assert_eq!(fs.stat("/a"), Err(Errno::NoEnt));
        assert_eq!(fs.unlink("/a"), Err(Errno::NoEnt));
    }

    #[test]
    fn fd_tables_reuse_lowest_slot() {
        let mut t = FdTables::new();
        let a = t.install(
            P,
            Desc::File {
                inode: 1,
                offset: 0,
            },
        );
        let b = t.install(
            P,
            Desc::File {
                inode: 2,
                offset: 0,
            },
        );
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.close(P, a).unwrap();
        let c = t.install(P, Desc::Listener { port: 80 });
        assert_eq!(c, Fd(0), "lowest free fd must be reused");
        assert_eq!(
            t.get(P, b).unwrap(),
            Desc::File {
                inode: 2,
                offset: 0
            }
        );
    }

    #[test]
    fn fd_errors() {
        let mut t = FdTables::new();
        assert_eq!(t.get(P, Fd(0)), Err(Errno::BadF));
        let a = t.install(
            P,
            Desc::File {
                inode: 1,
                offset: 0,
            },
        );
        t.close(P, a).unwrap();
        assert_eq!(t.close(P, a), Err(Errno::BadF));
    }
}
