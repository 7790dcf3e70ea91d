//! Durability: write-ahead logging, catalog snapshots, and
//! crash-recovery replay for the continuous-query [`Runtime`].
//!
//! A runtime opts in with [`Runtime::durable`], pointing at a
//! directory. From then on every state-changing operation — source
//! installs, ingest batches, retention evictions, query registrations
//! and removals, policy swaps — is recorded in a CRC-framed
//! [write-ahead log](wal) before the tick that made it observable
//! completes, and the full state is periodically checkpointed as an
//! atomically-replaced [snapshot]. Reopening the same
//! directory rebuilds the runtime: latest valid snapshot, then ordered
//! log replay, with per-table absolute stream positions making the
//! replay idempotent.
//!
//! The layer is **paranoid on the read side**: torn log tails (a crash
//! mid-write) are truncated and counted, never fatal; a partially
//! written snapshot fails its checksum and recovery falls back to the
//! previous generation; only structural impossibilities — an unknown
//! record type under a valid CRC, a replay gap, every snapshot
//! generation corrupt — surface as [`CoreError::Corrupt`].
//!
//! On-disk layout (one directory per runtime):
//!
//! ```text
//! snapshot.<g>.pds   checkpoint ending generation g (atomic rename)
//! wal.<g>.log        records appended after snapshot g
//! snapshot.tmp       in-flight checkpoint (ignored by recovery)
//! ```
//!
//! Generation `g`'s log starts empty at `snapshot.<g>.pds`'s barrier.
//! Taking snapshot `g+1` rotates the log and deletes generations
//! `≤ g−1`; generation `g` is kept so a corrupt `snapshot.<g+1>.pds`
//! still recovers from `snapshot.<g>.pds` + `wal.<g>.log` +
//! `wal.<g+1>.log`.
//!
//! [`Runtime`]: crate::runtime::Runtime
//! [`Runtime::durable`]: crate::runtime::Runtime::durable

pub mod codec;
pub mod snapshot;
pub mod vfs;
pub mod wal;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{CoreError, CoreResult};

pub use snapshot::{PolicyState, SessionMark, SnapshotData, TableState};
pub use vfs::{DirLock, FaultKind, FaultOp, FaultStats, FaultVfs, RealVfs, Vfs, VfsFile};
pub use wal::{Registration, Spend, WalRecord};

use snapshot::{list_generations, read_snapshot, snapshot_path, wal_path, write_snapshot};
use wal::{io_err, read_wal, Wal};

/// Counters and recovery facts of an attached durability layer, from
/// [`Runtime::durability_stats`](crate::runtime::Runtime::durability_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current snapshot/log generation.
    pub generation: u64,
    /// Log records appended (buffered or written) since open.
    pub wal_records: u64,
    /// Group commits that wrote at least one record.
    pub wal_commits: u64,
    /// Log bytes handed to the OS since open.
    pub wal_bytes: u64,
    /// Snapshots written since open (including the initial one of a
    /// fresh directory).
    pub snapshots: u64,
    /// `true` when the open rebuilt state from disk (snapshot and/or
    /// log) instead of starting fresh.
    pub recovered: bool,
    /// Log records replayed during recovery.
    pub replayed: u64,
    /// Replayed records skipped as already-applied (the idempotency
    /// checks; non-zero only for duplicated or overlapping logs).
    pub skipped: u64,
    /// Torn log bytes truncated during recovery (a crash mid-write).
    pub torn_bytes: u64,
    /// Snapshot generations that failed validation and were skipped in
    /// favor of an older one.
    pub corrupt_snapshots: u64,
}

/// Result of [`Durability::open`]: the state to rebuild (if any) plus
/// the attached layer, ready for appends.
#[derive(Debug)]
pub struct Opened {
    /// The chosen snapshot, when one was recovered.
    pub snapshot: Option<SnapshotData>,
    /// Log records to replay on top, in append order.
    pub records: Vec<WalRecord>,
    /// The attached layer (log resumed past any torn tail).
    pub durability: Durability,
}

/// An attached durability directory: the open write-ahead log, the
/// generation counter, and the snapshot cadence.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: Wal,
    /// The in-process exclusive claim on `dir` (released on drop, or
    /// explicitly by the crash-emulation path).
    lock: Option<DirLock>,
    generation: u64,
    /// Take a snapshot automatically every this many ticks
    /// (0 = only on explicit request).
    pub(crate) snapshot_every: u64,
    pub(crate) ticks_since_snapshot: u64,
    pub(crate) stats: DurabilityStats,
}

impl Durability {
    /// Attach to `dir` (created if missing) through the real file
    /// system. A directory with prior state yields the recovered
    /// snapshot + replay records; a fresh directory yields neither, and
    /// the caller checkpoints its current state via
    /// [`Durability::initial_snapshot`].
    pub fn open(dir: &Path) -> CoreResult<Opened> {
        Durability::open_with(dir, RealVfs::shared())
    }

    /// [`Durability::open`] through an explicit [`Vfs`] — the
    /// fault-injection entry point.
    pub fn open_with(dir: &Path, vfs: Arc<dyn Vfs>) -> CoreResult<Opened> {
        vfs.create_dir_all(dir)
            .map_err(|e| io_err("create durability directory", dir, &e))?;
        let lock = Some(DirLock::acquire(dir)?);
        let (snaps, wals) = list_generations(&vfs, dir)?;

        if snaps.is_empty() && wals.is_empty() {
            // fresh directory: generation 1 starts with the caller's
            // initial snapshot; the log is created right away so a
            // crash between the two still recovers
            let durability = Durability {
                dir: dir.to_path_buf(),
                wal: Wal::create(&vfs, &wal_path(dir, 1))?,
                vfs,
                lock,
                generation: 1,
                snapshot_every: DEFAULT_SNAPSHOT_EVERY,
                ticks_since_snapshot: 0,
                stats: DurabilityStats { generation: 1, ..DurabilityStats::default() },
            };
            return Ok(Opened { snapshot: None, records: Vec::new(), durability });
        }
        if snaps.is_empty() {
            return Err(CoreError::Corrupt(format!(
                "durability directory {} has logs but no snapshot",
                dir.display()
            )));
        }

        // choose the newest snapshot that validates, falling back one
        // generation at a time; every generation corrupt is fatal
        let mut corrupt_snapshots = 0u64;
        let mut chosen: Option<SnapshotData> = None;
        let mut last_err = None;
        for &g in snaps.iter().rev() {
            match read_snapshot(&vfs, &snapshot_path(dir, g)) {
                Ok(data) => {
                    chosen = Some(data);
                    break;
                }
                Err(e) => {
                    corrupt_snapshots += 1;
                    last_err = Some(e);
                }
            }
        }
        let Some(snapshot) = chosen else {
            return Err(match last_err {
                Some(CoreError::Corrupt(msg)) => CoreError::Corrupt(format!(
                    "no snapshot generation in {} validates (last: {msg})",
                    dir.display()
                )),
                Some(other) => other,
                None => CoreError::Corrupt("no snapshot found".to_string()),
            });
        };

        // replay every log from the chosen snapshot's barrier on, in
        // generation order; only the newest log may have a torn tail
        // we resume past
        let base = snapshot.generation;
        let mut records = Vec::new();
        let mut torn_bytes = 0u64;
        let mut resume_at = (base, 0u64);
        for &g in wals.iter().filter(|&&g| g >= base) {
            let contents = read_wal(&vfs, &wal_path(dir, g))?;
            torn_bytes += contents.torn_bytes;
            records.extend(contents.records);
            resume_at = (g, contents.valid_bytes);
        }
        let (resume_gen, valid_bytes) = resume_at;
        let generation = resume_gen.max(base);
        let wal = Wal::resume(&vfs, &wal_path(dir, generation), valid_bytes)?;

        let stats = DurabilityStats {
            generation,
            recovered: true,
            replayed: records.len() as u64,
            torn_bytes,
            corrupt_snapshots,
            ..DurabilityStats::default()
        };
        let durability = Durability {
            dir: dir.to_path_buf(),
            wal,
            vfs,
            lock,
            generation,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            ticks_since_snapshot: 0,
            stats,
        };
        Ok(Opened { snapshot: Some(snapshot), records, durability })
    }

    /// Buffer one record for the next group commit.
    pub fn record(&mut self, record: &WalRecord) {
        self.wal.append(record);
        self.stats.wal_records += 1;
    }

    /// Group-commit everything buffered (one write syscall).
    pub fn commit(&mut self) -> CoreResult<()> {
        self.wal.commit()?;
        self.stats.wal_commits = self.wal.commits();
        self.stats.wal_bytes = self.wal.committed_bytes();
        Ok(())
    }

    /// Repair after a failed commit or snapshot: reopen the log
    /// truncated back to its last known-good length (dropping any torn
    /// prefix of the failed write) and retry the pending buffer. This
    /// is the disk-recovered half of
    /// [`Runtime::resume_durability`](crate::runtime::Runtime::resume_durability).
    pub fn resume(&mut self) -> CoreResult<()> {
        self.wal.repair()?;
        self.commit()
    }

    /// Records buffered but not yet committed (non-zero after a failed
    /// commit — degraded mode preserves them for the resume retry).
    pub fn pending_records(&self) -> u64 {
        self.wal.pending_records()
    }

    /// Release the in-process directory lock without dropping the
    /// layer. Used by crash-emulation paths that deliberately leak the
    /// runtime (`std::mem::forget`) — the lock must not leak with it,
    /// or the same process could never reopen the directory.
    pub fn release_lock(&mut self) {
        if let Some(mut lock) = self.lock.take() {
            lock.release();
        }
    }

    /// The first checkpoint of a fresh directory: written at the
    /// current generation, no rotation.
    pub fn initial_snapshot(&mut self, mut data: SnapshotData) -> CoreResult<()> {
        data.generation = self.generation;
        write_snapshot(&self.vfs, &self.dir, &data)?;
        self.stats.snapshots += 1;
        Ok(())
    }

    /// Take a checkpoint: commit + sync the log, write the snapshot of
    /// generation `g+1` atomically, rotate to a fresh `wal.<g+1>.log`,
    /// and delete generations `≤ g−1` (the barrier's log truncation —
    /// generation `g` stays as the fallback).
    pub fn rotate_snapshot(&mut self, mut data: SnapshotData) -> CoreResult<()> {
        self.wal.commit()?;
        self.wal.sync()?;
        let next = self.generation + 1;
        data.generation = next;
        // create the next log *before* publishing the snapshot: if the
        // snapshot write fails, appends keep going to the current log,
        // which recovery still replays (a stray empty wal.<g+1> is
        // harmless). Publishing first would route post-failure records
        // to a log older than the newest snapshot — invisible to
        // recovery.
        let wal = Wal::create(&self.vfs, &wal_path(&self.dir, next))?;
        write_snapshot(&self.vfs, &self.dir, &data)?;
        self.wal = wal;
        let old = self.generation;
        self.generation = next;
        self.stats.generation = next;
        self.stats.snapshots += 1;
        self.ticks_since_snapshot = 0;
        // best-effort cleanup: a leftover file is re-deleted next time
        if let Ok((snaps, wals)) = list_generations(&self.vfs, &self.dir) {
            for g in snaps.into_iter().filter(|&g| g < old) {
                let _ = self.vfs.remove_file(&snapshot_path(&self.dir, g));
            }
            for g in wals.into_iter().filter(|&g| g < old) {
                let _ = self.vfs.remove_file(&wal_path(&self.dir, g));
            }
        }
        Ok(())
    }

    /// Current counters (the generation field is always live).
    pub fn stats(&self) -> DurabilityStats {
        let mut s = self.stats;
        s.wal_commits = self.wal.commits();
        s.wal_bytes = self.wal.committed_bytes();
        s
    }
}

/// Default automatic-snapshot cadence, in ticks.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Command, QueryHandle};

    fn remove(id: u64) -> WalRecord {
        WalRecord::Command(Command::RemoveQuery { handle: QueryHandle::from_id(id) })
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("paradise-dur-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_open_then_reopen_replays() {
        let dir = tmp("fresh");
        let opened = Durability::open(&dir).unwrap();
        assert!(opened.snapshot.is_none());
        let mut d = opened.durability;
        d.initial_snapshot(SnapshotData::default()).unwrap();
        d.record(&WalRecord::SetPolicy {
            version: 1,
            module: "M".into(),
            xml: "<x/>".into(),
            origin: (0, 0),
        });
        d.record(&remove(0));
        d.commit().unwrap();
        drop(d);

        let opened = Durability::open(&dir).unwrap();
        assert!(opened.snapshot.is_some());
        assert_eq!(opened.records.len(), 2);
        let s = opened.durability.stats();
        assert!(s.recovered);
        assert_eq!(s.replayed, 2);
        assert_eq!(s.generation, 1);
    }

    #[test]
    fn rotation_keeps_a_fallback_generation() {
        let dir = tmp("rotate");
        let mut d = Durability::open(&dir).unwrap().durability;
        d.initial_snapshot(SnapshotData::default()).unwrap();
        d.record(&remove(1));
        d.rotate_snapshot(SnapshotData::default()).unwrap(); // gen 2
        d.record(&remove(2));
        d.rotate_snapshot(SnapshotData::default()).unwrap(); // gen 3
        drop(d);

        let (snaps, wals) = list_generations(&RealVfs::shared(), &dir).unwrap();
        assert_eq!(snaps, vec![2, 3], "generation 1 was cleaned up");
        assert_eq!(wals, vec![2, 3]);

        // corrupt the newest snapshot: recovery falls back to gen 2
        // and replays wal.2 + wal.3
        std::fs::write(snapshot_path(&dir, 3), b"garbage").unwrap();
        let mut d = Durability::open(&dir).unwrap().durability;
        let s = d.stats();
        assert_eq!(s.corrupt_snapshots, 1);
        assert_eq!(s.generation, 3, "appending resumes on the newest log");
        d.record(&remove(3));
        d.commit().unwrap();
        drop(d);
        let opened = Durability::open(&dir).unwrap();
        assert_eq!(opened.snapshot.unwrap().generation, 2);
        assert_eq!(opened.records.len(), 2, "wal.2's record replays after the fallback");
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = tmp("allbad");
        let mut d = Durability::open(&dir).unwrap().durability;
        d.initial_snapshot(SnapshotData::default()).unwrap();
        d.rotate_snapshot(SnapshotData::default()).unwrap();
        drop(d);
        std::fs::write(snapshot_path(&dir, 1), b"").unwrap();
        std::fs::write(snapshot_path(&dir, 2), b"bad").unwrap();
        assert!(matches!(Durability::open(&dir), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn second_open_of_a_live_directory_is_locked() {
        let dir = tmp("locked");
        let mut d = Durability::open(&dir).unwrap().durability;
        d.initial_snapshot(SnapshotData::default()).unwrap();
        assert!(matches!(Durability::open(&dir), Err(CoreError::Locked(_))));
        drop(d);
        // released on drop: reopen works (and a failed open released
        // its own claim too)
        let mut d = Durability::open(&dir).unwrap().durability;
        d.release_lock();
        drop(Durability::open(&dir).unwrap().durability);
    }

    #[test]
    fn logs_without_any_snapshot_are_corrupt() {
        let dir = tmp("nosnap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(wal_path(&dir, 4), b"").unwrap();
        assert!(matches!(Durability::open(&dir), Err(CoreError::Corrupt(_))));
    }
}
