//! Catalog snapshots: the full durable state of a [`Runtime`] as one
//! atomically-replaced file per generation.
//!
//! A snapshot holds everything replay would otherwise have to rebuild
//! from the log: every source table (with its front-eviction count, so
//! absolute stream positions survive), every module policy with its
//! version, the global version counter, and every registration (slot,
//! generation, module, SQL text). Runtime *configuration* — chain
//! topology, retention, sharding, processor options — is **not**
//! persisted: the caller reconstructs the runtime the same way it was
//! built and [`Runtime::durable`](crate::runtime::Runtime::durable)
//! restores the state into it.
//!
//! Write protocol: encode to `snapshot.tmp`, `fsync`, then atomically
//! rename to `snapshot.<generation>.pds` (and `fsync` the directory so
//! the rename itself is durable). A crash mid-write leaves a stale
//! `.tmp` that is never read; a crash mid-rename leaves the previous
//! generation in place. The file carries a magic number and a whole-
//! payload CRC, so a partially materialised file is *detected* and
//! recovery falls back to the previous generation — which is why the
//! previous snapshot (and its log) are only deleted one generation
//! later.
//!
//! [`Runtime`]: crate::runtime::Runtime

use std::path::{Path, PathBuf};
use std::sync::Arc;

use paradise_engine::Frame;

use crate::error::{CoreError, CoreResult};

use super::codec::{crc32, dec_frame, enc_frame, Dec, Enc};
use super::vfs::Vfs;
use super::wal::{io_err, Registration, Spend};

/// `b"PDS1"` little-endian: magic + format version of snapshot files.
const MAGIC: u32 = u32::from_le_bytes(*b"PDS1");

/// One source table's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Chain node the table lives at.
    pub node: String,
    /// Table name.
    pub table: String,
    /// Front-eviction count — restored so absolute stream positions
    /// (and thus log-record idempotency checks) line up after recovery.
    pub evicted: u64,
    /// The retained rows.
    pub frame: Frame,
}

/// One installed module policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState {
    /// Module id.
    pub module: String,
    /// The version this policy was installed as.
    pub version: u64,
    /// `policy_to_xml` rendering.
    pub xml: String,
}

/// One client session's durable idempotency mark: the highest request
/// sequence number whose effect is part of this snapshot. A retried
/// mutating request at-or-below the mark is a no-op after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMark {
    /// Client-assigned session id (never 0).
    pub session: u64,
    /// Highest applied request sequence.
    pub seq: u64,
}

/// The complete durable state of a runtime at a snapshot barrier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotData {
    /// Generation this snapshot ends (its write-ahead log starts empty
    /// at the same barrier).
    pub generation: u64,
    /// Every source table of the source-of-record chain.
    pub tables: Vec<TableState>,
    /// Every installed module policy.
    pub policies: Vec<PolicyState>,
    /// The runtime's global monotonic policy-version counter.
    pub version_counter: u64,
    /// Every live registration, in slot order.
    pub registrations: Vec<Registration>,
    /// Total slots (occupied or free) — restored so freed low slots
    /// stay free and handle indices keep their meaning.
    pub slots: u32,
    /// The next handle generation to assign.
    pub next_generation: u32,
    /// Every module's epsilon-ledger position, sorted by module id —
    /// a ledger is snapshotted here *and* every spend is logged
    /// ([`WalRecord::SpendEpsilon`](super::wal::WalRecord::SpendEpsilon)).
    pub ledgers: Vec<Spend>,
    /// Every client session's idempotency mark, sorted by session id.
    pub sessions: Vec<SessionMark>,
}

/// Path of generation `g`'s snapshot file.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.pds"))
}

/// Path of generation `g`'s write-ahead log.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// Parse `name` against `prefix.<u64>.suffix`.
fn generation_of(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The snapshot and log generations present in `dir`, each sorted
/// ascending.
pub fn list_generations(vfs: &Arc<dyn Vfs>, dir: &Path) -> CoreResult<(Vec<u64>, Vec<u64>)> {
    let mut snapshots = Vec::new();
    let mut wals = Vec::new();
    let names = vfs
        .read_dir_names(dir)
        .map_err(|e| io_err("list durability directory", dir, &e))?;
    for name in &names {
        if let Some(g) = generation_of(name, "snapshot.", ".pds") {
            snapshots.push(g);
        } else if let Some(g) = generation_of(name, "wal.", ".log") {
            wals.push(g);
        }
    }
    snapshots.sort_unstable();
    wals.sort_unstable();
    Ok((snapshots, wals))
}

/// Bytes of the file header: magic, payload CRC, payload length.
const HEADER: usize = 12;

/// The snapshot file: [`HEADER`], then the payload, encoded into one
/// buffer; the header is patched in place when the payload is done.
fn encode_file(data: &SnapshotData) -> Vec<u8> {
    let mut e = Enc::from(vec![0; HEADER]);
    encode(&mut e, data);
    let mut bytes = e.into_bytes();
    let (header, payload) = bytes.split_at_mut(HEADER);
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes
}

fn encode(e: &mut Enc, data: &SnapshotData) {
    e.u64(data.generation);
    e.u32(data.tables.len() as u32);
    for t in &data.tables {
        e.str(&t.node);
        e.str(&t.table);
        e.u64(t.evicted);
        enc_frame(e, &t.frame);
    }
    e.u32(data.policies.len() as u32);
    for p in &data.policies {
        e.str(&p.module);
        e.u64(p.version);
        e.str(&p.xml);
    }
    e.u64(data.version_counter);
    e.u32(data.registrations.len() as u32);
    for r in &data.registrations {
        r.enc(e);
    }
    e.u32(data.slots);
    e.u32(data.next_generation);
    e.u32(data.ledgers.len() as u32);
    for l in &data.ledgers {
        l.enc(e);
    }
    e.u32(data.sessions.len() as u32);
    for s in &data.sessions {
        e.u64(s.session);
        e.u64(s.seq);
    }
}

fn decode(payload: &[u8]) -> CoreResult<SnapshotData> {
    let mut d = Dec::new(payload);
    let generation = d.u64()?;
    let mut tables = Vec::new();
    for _ in 0..d.u32()? {
        tables.push(TableState {
            node: d.str()?,
            table: d.str()?,
            evicted: d.u64()?,
            frame: dec_frame(&mut d)?,
        });
    }
    let mut policies = Vec::new();
    for _ in 0..d.u32()? {
        policies.push(PolicyState { module: d.str()?, version: d.u64()?, xml: d.str()? });
    }
    let version_counter = d.u64()?;
    let mut registrations = Vec::new();
    for _ in 0..d.u32()? {
        registrations.push(Registration::dec(&mut d)?);
    }
    let slots = d.u32()?;
    let next_generation = d.u32()?;
    let mut ledgers = Vec::new();
    for _ in 0..d.u32()? {
        ledgers.push(Spend::dec(&mut d)?);
    }
    let mut sessions = Vec::new();
    for _ in 0..d.u32()? {
        sessions.push(SessionMark { session: d.u64()?, seq: d.u64()? });
    }
    if !d.done() {
        return Err(CoreError::Corrupt("trailing bytes after snapshot payload".to_string()));
    }
    Ok(SnapshotData {
        generation,
        tables,
        policies,
        version_counter,
        registrations,
        slots,
        next_generation,
        ledgers,
        sessions,
    })
}

/// Write `data` as generation `data.generation`'s snapshot, atomically
/// (tmp + `fsync` + rename + directory `fsync`).
pub fn write_snapshot(vfs: &Arc<dyn Vfs>, dir: &Path, data: &SnapshotData) -> CoreResult<()> {
    let bytes = encode_file(data);
    let tmp = dir.join("snapshot.tmp");
    let mut file =
        vfs.create(&tmp).map_err(|e| io_err("create snapshot temp file", &tmp, &e))?;
    file.write_all(&bytes).map_err(|e| io_err("write snapshot", &tmp, &e))?;
    file.sync_all().map_err(|e| io_err("sync snapshot", &tmp, &e))?;
    drop(file);

    let target = snapshot_path(dir, data.generation);
    vfs.rename(&tmp, &target).map_err(|e| io_err("install snapshot", &target, &e))?;
    // make the rename itself durable (best-effort off unixes)
    let _ = vfs.sync_dir(dir);
    Ok(())
}

/// Read and validate one snapshot file. Any failure — unreadable,
/// short, bad magic, CRC mismatch, undecodable payload — is
/// [`CoreError::Corrupt`] (or [`CoreError::Io`]), and the caller falls
/// back to the previous generation.
pub fn read_snapshot(vfs: &Arc<dyn Vfs>, path: &Path) -> CoreResult<SnapshotData> {
    let bytes = vfs.read(path).map_err(|e| io_err("read snapshot", path, &e))?;
    if bytes.len() < HEADER {
        return Err(CoreError::Corrupt(format!(
            "snapshot {} is truncated ({} bytes)",
            path.display(),
            bytes.len()
        )));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(CoreError::Corrupt(format!(
            "snapshot {} has wrong magic {magic:#010x}",
            path.display()
        )));
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let payload = bytes.get(HEADER..).filter(|p| p.len() == len).ok_or_else(|| {
        CoreError::Corrupt(format!("snapshot {} payload length mismatch", path.display()))
    })?;
    if crc32(payload) != crc {
        return Err(CoreError::Corrupt(format!(
            "snapshot {} failed its checksum",
            path.display()
        )));
    }
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::vfs::RealVfs;
    use paradise_engine::{DataType, Schema, Value};

    fn vfs() -> Arc<dyn Vfs> {
        RealVfs::shared()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("paradise-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The payload of `data`'s snapshot file.
    fn encode(data: &SnapshotData) -> Vec<u8> {
        encode_file(data).split_off(HEADER)
    }

    fn sample() -> SnapshotData {
        let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
        let frame =
            Frame::new(schema, vec![vec![Value::Int(5)], vec![Value::Null]]).unwrap();
        SnapshotData {
            generation: 3,
            tables: vec![TableState {
                node: "motion-sensor".into(),
                table: "stream".into(),
                evicted: 17,
                frame,
            }],
            policies: vec![PolicyState {
                module: "ActionFilter".into(),
                version: 2,
                xml: "<module id=\"ActionFilter\"/>".into(),
            }],
            version_counter: 2,
            registrations: vec![Registration {
                slot: 1,
                generation: 4,
                module: "ActionFilter".into(),
                sql: "SELECT x FROM stream".into(),
                origin: (11, 6),
            }],
            slots: 2,
            next_generation: 5,
            ledgers: vec![Spend { module: "ActionFilter".into(), seq: 9, spent: 4.5 }],
            sessions: vec![SessionMark { session: 11, seq: 6 }],
        }
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // (length, CRC-32) of the encoded sample payload: a change here
        // is a snapshot format change, which needs a new magic and a
        // reader for the old format
        let payload = encode(&sample());
        assert_eq!((payload.len(), crc32(&payload)), (272, 0x6EFE_AD02));
    }

    #[test]
    fn write_read_roundtrip_and_listing() {
        let dir = tmp("roundtrip");
        let data = sample();
        write_snapshot(&vfs(), &dir, &data).unwrap();
        let back = read_snapshot(&vfs(), &snapshot_path(&dir, 3)).unwrap();
        assert_eq!(back, data);
        assert!(!dir.join("snapshot.tmp").exists(), "tmp is renamed away");

        std::fs::write(wal_path(&dir, 3), b"").unwrap();
        std::fs::write(wal_path(&dir, 2), b"").unwrap();
        let (snaps, wals) = list_generations(&vfs(), &dir).unwrap();
        assert_eq!(snaps, vec![3]);
        assert_eq!(wals, vec![2, 3]);
    }

    #[test]
    fn zero_length_and_truncated_snapshots_are_corrupt() {
        let dir = tmp("short");
        let path = snapshot_path(&dir, 1);
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(read_snapshot(&vfs(), &path), Err(CoreError::Corrupt(_))));

        write_snapshot(&vfs(), &dir, &sample()).unwrap();
        let full = std::fs::read(snapshot_path(&dir, 3)).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(read_snapshot(&vfs(), &path), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let dir = tmp("flip");
        write_snapshot(&vfs(), &dir, &sample()).unwrap();
        let path = snapshot_path(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&vfs(), &path), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let dir = tmp("magic");
        let path = snapshot_path(&dir, 1);
        std::fs::write(&path, b"NOPE00000000u-wot").unwrap();
        assert!(matches!(read_snapshot(&vfs(), &path), Err(CoreError::Corrupt(_))));
    }
}
