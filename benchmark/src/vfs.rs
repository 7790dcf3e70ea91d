//! A counting, timing [`Vfs`] wrapper: the benchmark's own view of what
//! the durability layer asks of the file system. Every count reported
//! under `core.storage.*` is made here, not read from the library.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use paradise_core::storage::{Vfs, VfsFile};

/// Totals since the wrapper was made. Plain statistics, published to
/// no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct VfsCounts {
    pub calls: AtomicU64,
    pub write_calls: AtomicU64,
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
    /// `sync_data` + `sync_all` + `sync_dir`.
    pub fsyncs: AtomicU64,
    pub busy_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsTotals {
    pub calls: u64,
    pub write_calls: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub fsyncs: u64,
    pub busy_ns: u64,
}

impl VfsCounts {
    pub fn totals(&self) -> VfsTotals {
        VfsTotals {
            calls: self.calls.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Time `f` as one file-system call.
    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn fsync<T>(&self, f: impl FnOnce() -> T) -> T {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.call(f)
    }
}

#[derive(Debug)]
struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<VfsCounts>,
}

/// `inner` behind a counting wrapper, and the wrapper's counts.
pub fn counting(inner: Arc<dyn Vfs>) -> (Arc<dyn Vfs>, Arc<VfsCounts>) {
    let counts = Arc::new(VfsCounts::default());
    let vfs = CountingVfs {
        inner,
        counts: counts.clone(),
    };
    (Arc::new(vfs), counts)
}

impl CountingVfs {
    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: file?,
            counts: self.counts.clone(),
        }))
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counts.call(|| self.inner.create_dir_all(path))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.counts.call(|| self.inner.read(path))?;
        self.counts
            .bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
    fn read_dir_names(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.counts.call(|| self.inner.read_dir_names(dir))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.counts.call(|| self.inner.create(path)))
    }
    fn open_append(&self, path: &Path, valid_bytes: u64) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(
            self.counts
                .call(|| self.inner.open_append(path, valid_bytes)),
        )
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counts.call(|| self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counts.call(|| self.inner.remove_file(path))
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counts.fsync(|| self.inner.sync_dir(dir))
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<VfsCounts>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counts.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counts.call(|| self.inner.write_all(buf))
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.counts.fsync(|| self.inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.counts.fsync(|| self.inner.sync_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_core::storage::RealVfs;

    #[test]
    fn counts_calls_bytes_and_fsyncs_and_passes_data_through() {
        let dir = crate::out_dir().join(format!("vfs-test-{}", std::process::id()));
        let (vfs, counts) = counting(RealVfs::shared());
        vfs.create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.write_all(b" world").unwrap();
        f.sync_data().unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let mut f = vfs.open_append(&path, 5).unwrap();
        f.write_all(b"!").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello!");
        assert_eq!(vfs.read_dir_names(&dir).unwrap(), vec!["a.bin".to_string()]);
        vfs.rename(&path, &dir.join("b.bin")).unwrap();
        vfs.remove_file(&dir.join("b.bin")).unwrap();

        let t = counts.totals();
        assert_eq!(t.write_calls, 3);
        assert_eq!(t.bytes_written, 12);
        assert_eq!(t.bytes_read, 17);
        assert_eq!(t.fsyncs, 3);
        // create_dir_all, create, 2 writes, 2 syncs, sync_dir, read,
        // open_append, write, read, read_dir_names, rename, remove_file
        assert_eq!(t.calls, 14);
        assert!(t.busy_ns > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
