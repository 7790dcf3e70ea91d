//! The write-ahead log: every state-changing runtime operation as a
//! typed, CRC-framed record.
//!
//! On-disk framing per record:
//!
//! ```text
//! [u32 body length][u32 CRC-32 of body][body = u8 record tag + payload]
//! ```
//!
//! Appends are **group-committed**: [`Wal::append`] only buffers the
//! encoded record in memory, and [`Wal::commit`] writes the whole
//! buffer with one `write` call — the runtime commits at tick
//! boundaries (plus immediately for rare control operations), so the
//! steady-tick overhead is one buffered encode per ingest and one
//! syscall per tick. `commit` hands the bytes to the OS; they are
//! forced to stable media (`fsync`) only at snapshot barriers, which is
//! the layer's documented durability point.
//!
//! Reading is torn-tail tolerant: a record whose header runs past the
//! end of the file, or whose CRC does not match, marks the *valid
//! prefix boundary* — everything before it replays, everything from it
//! on is truncated (a crash mid-`write` is normal operation, not
//! corruption). A record whose CRC is valid but whose body does not
//! decode — unknown tag, trailing garbage — is real corruption and
//! surfaces as [`CoreError::Corrupt`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use paradise_engine::Frame;

use crate::error::{CoreError, CoreResult};

use super::codec::{crc32, dec_frame, enc_frame, Dec, Enc};
use super::vfs::{Vfs, VfsFile};

/// Format an I/O failure as the typed core error (carrying the
/// operation and path, since `std::io::Error` is not `Clone`).
pub(crate) fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Io(format!("{op} {}: {e}", path.display()))
}

/// One durable runtime operation. Every record that moves a stream
/// position carries the **absolute** position it applies at, which is
/// what makes replay idempotent without a global sequence number: a
/// record at-or-below the recovered state's position is skipped, a
/// record exactly at it applies, and a record beyond it is a gap
/// (corruption).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Runtime::install_source`: (re)place a source table wholesale.
    /// Naturally idempotent — replaying it resets the table to the
    /// recorded contents and subsequent `Ingest` records re-apply.
    InstallSource {
        /// Chain node the table lives at.
        node: String,
        /// Table name.
        table: String,
        /// The installed contents.
        frame: Frame,
    },
    /// `Runtime::ingest`: one appended stream batch.
    Ingest {
        /// Chain node the table lives at.
        node: String,
        /// Table name.
        table: String,
        /// Absolute stream row the batch starts at (the table's high
        /// watermark when it was appended).
        start: u64,
        /// Client session the batch originated from (0 = none); with
        /// `seq`, the runtime's durable dedup mark — a retried batch
        /// whose `(session, seq)` is at-or-below the session's mark is
        /// a no-op, even across crash recovery. Embedded in the record
        /// itself (not a companion record) so a torn tail can never
        /// separate a batch from its idempotency mark.
        session: u64,
        /// Session-monotonic request sequence number (0 = none).
        seq: u64,
        /// The batch itself.
        frame: Frame,
    },
    /// Retention eviction of a table's oldest rows.
    Evict {
        /// Chain node the table lives at.
        node: String,
        /// Table name.
        table: String,
        /// Absolute front-eviction count *after* the eviction.
        evicted_to: u64,
    },
    /// `Runtime::register`: a continuous query, as its SQL text (the
    /// parser/display roundtrip is pinned by the sql crate's tests).
    /// Slot and generation are recorded so recovered `QueryHandle`s
    /// held by callers stay valid across the restart.
    Register {
        /// Slot index the handle occupies.
        slot: u32,
        /// Handle generation (process-monotonic).
        generation: u32,
        /// Module the query was registered under.
        module: String,
        /// The query, rendered as SQL.
        sql: String,
        /// Originating client session (0 = none) — lets a resumed
        /// session recover its handles after a server restart.
        session: u64,
        /// Session-monotonic request sequence number (0 = none).
        seq: u64,
    },
    /// `Runtime::remove_query`.
    RemoveQuery {
        /// Slot index of the removed handle.
        slot: u32,
        /// Generation of the removed handle.
        generation: u32,
    },
    /// `Runtime::set_policy`: the module policy as its XML rendering
    /// (the parse/render roundtrip is pinned by the policy crate's
    /// tests) plus the version it was installed as.
    SetPolicy {
        /// The policy version this install produced (global monotonic).
        version: u64,
        /// Module the policy applies to.
        module: String,
        /// `policy_to_xml` rendering of the module policy.
        xml: String,
        /// Originating client session (0 = none).
        session: u64,
        /// Session-monotonic request sequence number (0 = none).
        seq: u64,
    },
    /// One differential-privacy budget spend of a module's epsilon
    /// ledger (one noisy tick). Carries the **absolute** cumulative
    /// spend and the ledger sequence number it applies at, following
    /// the same idempotent-replay discipline as stream positions:
    /// at-or-below the recovered sequence is skipped, exactly the next
    /// sequence applies, beyond it is a gap. Recovery therefore never
    /// regains spent budget — and because the noise seed derives from
    /// the ledger sequence, a recovered runtime replays bitwise-
    /// identical noisy results.
    SpendEpsilon {
        /// Module whose ledger spent.
        module: String,
        /// Ledger sequence number *after* this spend (1-based).
        seq: u64,
        /// Absolute cumulative epsilon spent after this spend.
        spent: f64,
    },
}

const TAG_INSTALL: u8 = 1;
const TAG_INGEST: u8 = 2;
const TAG_EVICT: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_SET_POLICY: u8 = 6;
const TAG_SPEND_EPSILON: u8 = 7;

impl WalRecord {
    /// Encode as the framed body (tag + payload), without the
    /// length/CRC header.
    fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::InstallSource { node, table, frame } => {
                e.u8(TAG_INSTALL);
                e.str(node);
                e.str(table);
                enc_frame(&mut e, frame);
            }
            WalRecord::Ingest { node, table, start, session, seq, frame } => {
                e.u8(TAG_INGEST);
                e.str(node);
                e.str(table);
                e.u64(*start);
                e.u64(*session);
                e.u64(*seq);
                enc_frame(&mut e, frame);
            }
            WalRecord::Evict { node, table, evicted_to } => {
                e.u8(TAG_EVICT);
                e.str(node);
                e.str(table);
                e.u64(*evicted_to);
            }
            WalRecord::Register { slot, generation, module, sql, session, seq } => {
                e.u8(TAG_REGISTER);
                e.u32(*slot);
                e.u32(*generation);
                e.str(module);
                e.str(sql);
                e.u64(*session);
                e.u64(*seq);
            }
            WalRecord::RemoveQuery { slot, generation } => {
                e.u8(TAG_REMOVE);
                e.u32(*slot);
                e.u32(*generation);
            }
            WalRecord::SetPolicy { version, module, xml, session, seq } => {
                e.u8(TAG_SET_POLICY);
                e.u64(*version);
                e.str(module);
                e.str(xml);
                e.u64(*session);
                e.u64(*seq);
            }
            WalRecord::SpendEpsilon { module, seq, spent } => {
                e.u8(TAG_SPEND_EPSILON);
                e.str(module);
                e.u64(*seq);
                e.f64(*spent);
            }
        }
        e.into_bytes()
    }

    /// Decode a framed body whose CRC already checked out. Structural
    /// failure here is real corruption, never a torn write.
    fn decode_body(body: &[u8]) -> CoreResult<WalRecord> {
        let mut d = Dec::new(body);
        let record = match d.u8()? {
            TAG_INSTALL => WalRecord::InstallSource {
                node: d.str()?,
                table: d.str()?,
                frame: dec_frame(&mut d)?,
            },
            TAG_INGEST => WalRecord::Ingest {
                node: d.str()?,
                table: d.str()?,
                start: d.u64()?,
                session: d.u64()?,
                seq: d.u64()?,
                frame: dec_frame(&mut d)?,
            },
            TAG_EVICT => WalRecord::Evict {
                node: d.str()?,
                table: d.str()?,
                evicted_to: d.u64()?,
            },
            TAG_REGISTER => WalRecord::Register {
                slot: d.u32()?,
                generation: d.u32()?,
                module: d.str()?,
                sql: d.str()?,
                session: d.u64()?,
                seq: d.u64()?,
            },
            TAG_REMOVE => WalRecord::RemoveQuery { slot: d.u32()?, generation: d.u32()? },
            TAG_SET_POLICY => WalRecord::SetPolicy {
                version: d.u64()?,
                module: d.str()?,
                xml: d.str()?,
                session: d.u64()?,
                seq: d.u64()?,
            },
            TAG_SPEND_EPSILON => WalRecord::SpendEpsilon {
                module: d.str()?,
                seq: d.u64()?,
                spent: d.f64()?,
            },
            tag => {
                return Err(CoreError::Corrupt(format!(
                    "unknown write-ahead-log record type {tag}"
                )))
            }
        };
        if !d.done() {
            return Err(CoreError::Corrupt(
                "trailing bytes after write-ahead-log record".to_string(),
            ));
        }
        Ok(record)
    }
}

/// An open write-ahead log file with its group-commit buffer.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Encoded-but-unwritten records (the group-commit buffer). On a
    /// failed commit the buffer is **preserved** — degraded mode keeps
    /// accumulating and [`Wal::repair`] + a retried commit drain it.
    pending: Vec<u8>,
    pending_records: u64,
    /// Committed (known-good) length of the file in bytes — the repair
    /// truncation point after a possibly-torn failed write.
    file_len: u64,
    /// Records written to the OS since this `Wal` was opened.
    committed_records: u64,
    /// `commit` calls that actually wrote something.
    commits: u64,
    /// Bytes written to the OS since this `Wal` was opened.
    committed_bytes: u64,
}

impl Wal {
    /// Create a fresh (truncated) log at `path`.
    pub fn create(vfs: &Arc<dyn Vfs>, path: &Path) -> CoreResult<Self> {
        let file =
            vfs.create(path).map_err(|e| io_err("create write-ahead log", path, &e))?;
        Ok(Wal::over(file, vfs, path, 0))
    }

    /// Reopen an existing log for appending after recovery, truncating
    /// it to `valid_bytes` first (dropping any torn tail the reader
    /// found).
    pub fn resume(vfs: &Arc<dyn Vfs>, path: &Path, valid_bytes: u64) -> CoreResult<Self> {
        let file = vfs
            .open_append(path, valid_bytes)
            .map_err(|e| io_err("open write-ahead log", path, &e))?;
        Ok(Wal::over(file, vfs, path, valid_bytes))
    }

    fn over(file: Box<dyn VfsFile>, vfs: &Arc<dyn Vfs>, path: &Path, file_len: u64) -> Self {
        Wal {
            file,
            vfs: Arc::clone(vfs),
            path: path.to_path_buf(),
            pending: Vec::new(),
            pending_records: 0,
            file_len,
            committed_records: 0,
            commits: 0,
            committed_bytes: 0,
        }
    }

    /// Buffer one record for the next [`Wal::commit`] (no I/O).
    pub fn append(&mut self, record: &WalRecord) {
        let body = record.encode_body();
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(&body).to_le_bytes());
        self.pending.extend_from_slice(&header);
        self.pending.extend_from_slice(&body);
        self.pending_records += 1;
    }

    /// Write every buffered record to the OS in order (the group
    /// commit). No `fsync` — stable-media durability is the snapshot
    /// barrier's job ([`Wal::sync`]). On failure the buffer is kept
    /// intact: the file may hold a torn prefix of it, which
    /// [`Wal::repair`] truncates away before the commit is retried.
    pub fn commit(&mut self) -> CoreResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.pending)
            .map_err(|e| io_err("append to write-ahead log", &self.path, &e))?;
        self.file_len += self.pending.len() as u64;
        self.committed_bytes += self.pending.len() as u64;
        self.committed_records += self.pending_records;
        self.commits += 1;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Recover from a failed commit: reopen the file truncated back to
    /// its last known-good length, dropping whatever prefix of the
    /// failed write (possibly torn mid-record) reached the disk. The
    /// pending buffer still holds every uncommitted record, so a
    /// subsequent [`Wal::commit`] writes them cleanly — nothing is
    /// duplicated and nothing is lost.
    pub fn repair(&mut self) -> CoreResult<()> {
        self.file = self
            .vfs
            .open_append(&self.path, self.file_len)
            .map_err(|e| io_err("repair write-ahead log", &self.path, &e))?;
        Ok(())
    }

    /// Records buffered but not yet committed.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Force everything committed so far to stable media.
    pub fn sync(&mut self) -> CoreResult<()> {
        self.file.sync_data().map_err(|e| io_err("sync write-ahead log", &self.path, &e))
    }

    /// Records committed (written to the OS) since open.
    pub fn committed_records(&self) -> u64 {
        self.committed_records
    }

    /// Commit calls that wrote at least one record.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Bytes committed since open.
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }
}

/// What [`read_wal`] found in one log file.
#[derive(Debug)]
pub struct WalContents {
    /// The records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix — [`Wal::resume`] truncates the
    /// file to this before appending.
    pub valid_bytes: u64,
    /// Bytes dropped after the valid prefix (a torn tail from a crash
    /// mid-write, or a CRC-damaged region; zero on a clean log).
    pub torn_bytes: u64,
}

/// Read a log file, replay-tolerantly: stop at (and report) a torn
/// tail, error only on structural corruption inside a CRC-valid
/// record. A missing file reads as empty (a crash can land between
/// snapshot rename and log rotation).
pub fn read_wal(vfs: &Arc<dyn Vfs>, path: &Path) -> CoreResult<WalContents> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("read write-ahead log", path, &e)),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let Some(end) = at.checked_add(8).and_then(|s| s.checked_add(len)) else {
            break; // length overflows — unreadable tail
        };
        if len == 0 || end > bytes.len() {
            break; // header torn or body incomplete
        }
        let body = &bytes[at + 8..end];
        if crc32(body) != crc {
            break; // torn or bit-damaged record: truncate from here
        }
        records.push(WalRecord::decode_body(body)?);
        at = end;
    }
    Ok(WalContents {
        records,
        valid_bytes: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::vfs::RealVfs;
    use paradise_engine::{DataType, Schema, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "paradise-wal-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn vfs() -> Arc<dyn Vfs> {
        RealVfs::shared()
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
        let frame = Frame::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        vec![
            WalRecord::InstallSource {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame: frame.clone(),
            },
            WalRecord::SetPolicy {
                version: 3,
                module: "M".into(),
                xml: "<module/>".into(),
                session: 0,
                seq: 0,
            },
            WalRecord::Register {
                slot: 0,
                generation: 0,
                module: "M".into(),
                sql: "SELECT x FROM stream".into(),
                session: 7,
                seq: 2,
            },
            WalRecord::Ingest {
                node: "motion-sensor".into(),
                table: "stream".into(),
                start: 2,
                session: 7,
                seq: 3,
                frame,
            },
            WalRecord::Evict { node: "motion-sensor".into(), table: "stream".into(), evicted_to: 1 },
            WalRecord::RemoveQuery { slot: 0, generation: 0 },
            WalRecord::SpendEpsilon { module: "M".into(), seq: 4, spent: 0.5 },
        ]
    }

    #[test]
    fn record_bodies_are_pinned_byte_for_byte() {
        // (tag, body length, CRC-32 of the body) of every sample record:
        // a change here is a WAL format change, which needs a version
        // bump and a reader for the old format
        const PINNED: [(u8, usize, u32); 7] = [
            (TAG_INSTALL, 62, 0xD163_9428),
            (TAG_SET_POLICY, 43, 0xE067_2DC3),
            (TAG_REGISTER, 54, 0x70BB_8350),
            (TAG_INGEST, 86, 0x8D42_9706),
            (TAG_EVICT, 36, 0xC412_C336),
            (TAG_REMOVE, 9, 0xAC9E_51E1),
            (TAG_SPEND_EPSILON, 22, 0x21FB_588E),
        ];
        let got: Vec<(u8, usize, u32)> = sample_records()
            .iter()
            .map(|r| {
                let body = r.encode_body();
                (body[0], body.len(), crc32(&body))
            })
            .collect();
        assert_eq!(got, PINNED);
    }

    #[test]
    fn append_commit_read_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&vfs(), &path).unwrap();
        let records = sample_records();
        for r in &records {
            wal.append(r);
        }
        assert_eq!(wal.committed_records(), 0, "append alone does no I/O");
        wal.commit().unwrap();
        assert_eq!(wal.committed_records(), records.len() as u64);
        assert_eq!(wal.commits(), 1);
        wal.commit().unwrap();
        assert_eq!(wal.commits(), 1, "empty commit is free");

        let read = read_wal(&vfs(), &path).unwrap();
        assert_eq!(read.records, records);
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(read.valid_bytes, wal.committed_bytes());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        let mut wal = Wal::create(&vfs(), &path).unwrap();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.commit().unwrap();
        let full = std::fs::read(&path).unwrap();
        // chop the last record mid-body
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let read = read_wal(&vfs(), &path).unwrap();
        assert_eq!(read.records.len(), sample_records().len() - 1);
        assert!(read.torn_bytes > 0);

        // resume truncates the tail and appending continues cleanly
        let mut wal = Wal::resume(&vfs(), &path, read.valid_bytes).unwrap();
        wal.append(&WalRecord::RemoveQuery { slot: 9, generation: 9 });
        wal.commit().unwrap();
        let read = read_wal(&vfs(), &path).unwrap();
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(
            read.records.last(),
            Some(&WalRecord::RemoveQuery { slot: 9, generation: 9 })
        );
    }

    #[test]
    fn bit_flip_truncates_from_the_damage() {
        let path = tmp("bitflip");
        let mut wal = Wal::create(&vfs(), &path).unwrap();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.commit().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_wal(&vfs(), &path).unwrap();
        assert!(read.records.len() < sample_records().len());
        assert!(read.torn_bytes > 0);
    }

    #[test]
    fn unknown_record_type_is_corruption() {
        let path = tmp("unknown");
        // hand-frame a record with tag 99 and a *valid* CRC
        let body = vec![99u8, 1, 2, 3];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_wal(&vfs(), &path), Err(CoreError::Corrupt(_))));
    }

    #[test]
    fn failed_commit_keeps_pending_and_repair_retries_cleanly() {
        use crate::storage::vfs::{FaultKind, FaultOp, FaultVfs};
        let path = tmp("repair");
        let fault = FaultVfs::new();
        let as_vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let mut wal = Wal::create(&as_vfs, &path).unwrap();
        wal.append(&WalRecord::RemoveQuery { slot: 1, generation: 1 });
        wal.commit().unwrap();

        // the next commit tears mid-write; the buffer must survive
        fault.schedule(FaultOp::Write, 0, FaultKind::Torn { keep: 5 });
        wal.append(&WalRecord::RemoveQuery { slot: 2, generation: 2 });
        wal.append(&WalRecord::RemoveQuery { slot: 3, generation: 3 });
        assert!(matches!(wal.commit(), Err(CoreError::Io(_))));
        assert_eq!(wal.pending_records(), 2, "failed commit keeps the buffer");

        // the file now ends in a torn prefix of the failed write;
        // repair truncates it and the retry lands every record once
        wal.repair().unwrap();
        wal.commit().unwrap();
        let read = read_wal(&vfs(), &path).unwrap();
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(
            read.records,
            vec![
                WalRecord::RemoveQuery { slot: 1, generation: 1 },
                WalRecord::RemoveQuery { slot: 2, generation: 2 },
                WalRecord::RemoveQuery { slot: 3, generation: 3 },
            ]
        );
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing").with_extension("nope");
        let read = read_wal(&vfs(), &path).unwrap();
        assert!(read.records.is_empty());
        assert_eq!(read.valid_bytes, 0);
    }
}
