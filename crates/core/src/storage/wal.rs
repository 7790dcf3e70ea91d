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
use crate::runtime::Command;

use super::codec::{
    command_tag, crc32, dec_command, dec_frame, dec_text_body, enc_command,
    enc_frame, enc_origin, enc_text_body, Dec, Enc, TAG_INGEST, TAG_INSTALL, TAG_REGISTER,
    TAG_REMOVE, TAG_SET_POLICY,
};
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
///
/// A command's record is its tag, the record's own prefix (if any) and
/// the command's body as [`enc_command`] lays it out; only `Ingest`
/// writes its own arm, because its `start` sits inside the body.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A [`Command::InstallSource`] or [`Command::RemoveQuery`]: the
    /// command is the whole record. Replaying an install resets the
    /// table to the recorded contents (later `Ingest` records
    /// re-apply); replaying a removal of a handle that is not live is
    /// a no-op.
    Command(Command),
    /// `Runtime::ingest`: one appended stream batch.
    Ingest {
        /// Chain node the table lives at.
        node: String,
        /// Table name.
        table: String,
        /// Absolute stream row the batch starts at (the table's high
        /// watermark when it was appended).
        start: u64,
        /// Client `(session, seq)` (`(0, 0)` = none): the durable dedup
        /// mark, in the record itself so a torn tail can never
        /// separate a batch from it. A retried batch at-or-below its
        /// session's mark is a no-op, even across crash recovery.
        origin: (u64, u64),
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
    /// `Runtime::register`.
    Register(Registration),
    /// `Runtime::set_policy`: the version it installed, then the
    /// `SetPolicy` body (the policy crate pins the XML roundtrip).
    SetPolicy {
        /// The policy version this install produced (global monotonic).
        version: u64,
        /// Module the policy applies to.
        module: String,
        /// `policy_to_xml` rendering of the module policy.
        xml: String,
        /// Originating client `(session, seq)` (`(0, 0)` = none).
        origin: (u64, u64),
    },
    /// One differential-privacy budget spend of a module's epsilon
    /// ledger (one noisy tick). Follows the same idempotent-replay
    /// discipline as stream positions: at-or-below the recovered
    /// sequence is skipped, exactly the next sequence applies, beyond
    /// it is a gap. Recovery therefore never regains spent budget —
    /// and because the noise seed derives from the ledger sequence, a
    /// recovered runtime replays bitwise-identical noisy results.
    SpendEpsilon(Spend),
}

/// A registered query as the log records it and the snapshot keeps it:
/// the handle's slot and generation — so handles held by callers stay
/// valid across a restart — then the `Register` body (the sql crate
/// pins the SQL roundtrip).
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Slot index the handle occupies.
    pub slot: u32,
    /// Handle generation (process-monotonic).
    pub generation: u32,
    /// Module the query runs under.
    pub module: String,
    /// The query, rendered as SQL.
    pub sql: String,
    /// Originating client `(session, seq)` (`(0, 0)` = none) — lets a
    /// resumed session recover its handles after a server restart.
    pub origin: (u64, u64),
}

impl Registration {
    pub(crate) fn enc(&self, e: &mut Enc) {
        e.u32(self.slot);
        e.u32(self.generation);
        enc_text_body(e, &self.module, &self.sql, self.origin);
    }

    pub(crate) fn dec(d: &mut Dec<'_>) -> CoreResult<Self> {
        let (slot, generation) = (d.u32()?, d.u32()?);
        let (module, sql, origin) = dec_text_body(d)?;
        Ok(Registration { slot, generation, module, sql, origin })
    }
}

/// A module's epsilon-ledger position after a spend, as a
/// `SpendEpsilon` record logs it and the snapshot keeps it. Losing it
/// across a crash would let an adversary re-query for fresh noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Spend {
    /// Module whose ledger spent.
    pub module: String,
    /// Ledger sequence number *after* the spend (1-based; the number of
    /// noisy ticks so far).
    pub seq: u64,
    /// Absolute cumulative epsilon spent after the spend.
    pub spent: f64,
}

impl Spend {
    pub(crate) fn enc(&self, e: &mut Enc) {
        e.str(&self.module);
        e.u64(self.seq);
        e.f64(self.spent);
    }

    pub(crate) fn dec(d: &mut Dec<'_>) -> CoreResult<Self> {
        Ok(Spend { module: d.str()?, seq: d.u64()?, spent: d.f64()? })
    }
}

const TAG_EVICT: u8 = 3;
const TAG_SPEND_EPSILON: u8 = 7;

impl WalRecord {
    /// Encode the framed body (tag + payload), without the length/CRC
    /// header.
    fn enc(&self, e: &mut Enc) {
        match self {
            WalRecord::Command(cmd) => {
                e.u8(command_tag(cmd));
                enc_command(e, cmd);
            }
            WalRecord::Ingest { node, table, start, origin, frame } => {
                e.u8(TAG_INGEST);
                e.str(node);
                e.str(table);
                e.u64(*start);
                enc_origin(e, *origin);
                enc_frame(e, frame);
            }
            WalRecord::Evict { node, table, evicted_to } => {
                e.u8(TAG_EVICT);
                e.str(node);
                e.str(table);
                e.u64(*evicted_to);
            }
            WalRecord::Register(registration) => {
                e.u8(TAG_REGISTER);
                registration.enc(e);
            }
            WalRecord::SetPolicy { version, module, xml, origin } => {
                e.u8(TAG_SET_POLICY);
                e.u64(*version);
                enc_text_body(e, module, xml, *origin);
            }
            WalRecord::SpendEpsilon(spend) => {
                e.u8(TAG_SPEND_EPSILON);
                spend.enc(e);
            }
        }
    }

    /// Decode a framed body whose CRC already checked out. Structural
    /// failure here is real corruption, never a torn write.
    fn decode_body(body: &[u8]) -> CoreResult<WalRecord> {
        let mut d = Dec::new(body);
        let record = match d.u8()? {
            tag @ (TAG_INSTALL | TAG_REMOVE) => WalRecord::Command(dec_command(&mut d, tag)?),
            TAG_INGEST => WalRecord::Ingest {
                node: d.str()?,
                table: d.str()?,
                start: d.u64()?,
                origin: (d.u64()?, d.u64()?),
                frame: dec_frame(&mut d)?,
            },
            TAG_EVICT => WalRecord::Evict {
                node: d.str()?,
                table: d.str()?,
                evicted_to: d.u64()?,
            },
            TAG_REGISTER => WalRecord::Register(Registration::dec(&mut d)?),
            TAG_SET_POLICY => {
                let version = d.u64()?;
                let (module, xml, origin) = dec_text_body(&mut d)?;
                WalRecord::SetPolicy { version, module, xml, origin }
            }
            TAG_SPEND_EPSILON => WalRecord::SpendEpsilon(Spend::dec(&mut d)?),
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
        // the body encodes straight into the buffer, behind a
        // placeholder header patched once its length and CRC are known
        let at = self.pending.len();
        self.pending.resize(at + 8, 0);
        let mut e = Enc::from(std::mem::take(&mut self.pending));
        record.enc(&mut e);
        self.pending = e.into_bytes();
        let (header, body) = self.pending[at..].split_at_mut(8);
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(body).to_le_bytes());
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
    use crate::runtime::QueryHandle;
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

    impl WalRecord {
        /// The framed body on its own.
        fn encode_body(&self) -> Vec<u8> {
            let mut e = Enc::new();
            self.enc(&mut e);
            e.into_bytes()
        }
    }

    fn remove(id: u64) -> WalRecord {
        WalRecord::Command(Command::RemoveQuery { handle: QueryHandle::from_id(id) })
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
        let frame = Frame::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
        vec![
            WalRecord::Command(Command::InstallSource {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame: frame.clone(),
            }),
            WalRecord::SetPolicy {
                version: 3,
                module: "M".into(),
                xml: "<module/>".into(),
                origin: (0, 0),
            },
            WalRecord::Register(Registration {
                slot: 0,
                generation: 0,
                module: "M".into(),
                sql: "SELECT x FROM stream".into(),
                origin: (7, 2),
            }),
            WalRecord::Ingest {
                node: "motion-sensor".into(),
                table: "stream".into(),
                start: 2,
                origin: (7, 3),
                frame,
            },
            WalRecord::Evict { node: "motion-sensor".into(), table: "stream".into(), evicted_to: 1 },
            remove(0),
            WalRecord::SpendEpsilon(Spend { module: "M".into(), seq: 4, spent: 0.5 }),
        ]
    }

    /// One command of each kind, with a query and a policy that give
    /// the SQL and XML parsers something to chew on.
    fn sample_commands() -> Vec<Command> {
        let xml = r#"<module module_ID="M"><attributeList>
            <attribute name="x"><allow>true</allow>
              <condition><atomicCondition>x &gt; 2</atomicCondition></condition></attribute>
            <attribute name="s"><allow>true</allow><aggregation>
              <aggregationType>COUNT</aggregationType><groupBy>x</groupBy></aggregation></attribute>
          </attributeList></module>"#;
        let sql = "SELECT x, COUNT(s) FROM stream WHERE x > 2 GROUP BY x";
        let frame = Frame::new(
            Schema::from_pairs(&[("x", DataType::Integer), ("s", DataType::Text)]),
            vec![vec![Value::Int(1), Value::Str("a".into())], vec![Value::Null, Value::Null]],
        )
        .unwrap();
        vec![
            Command::InstallSource {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame: frame.clone(),
            },
            Command::Ingest {
                node: "motion-sensor".into(),
                table: "stream".into(),
                frame,
                origin: (7, 3),
            },
            Command::Register {
                module: "M".into(),
                query: Box::new(paradise_sql::parse_query(sql).unwrap()),
                origin: (7, 4),
            },
            Command::RemoveQuery { handle: QueryHandle::from_id(0x0000_0002_0000_0001) },
            Command::SetPolicy {
                module: "M".into(),
                policy: paradise_policy::parse_policy(xml).unwrap().modules.remove(0),
                origin: (7, 5),
            },
        ]
    }

    /// Every proper prefix of `bytes`, then every single-bit flip of it.
    fn truncations_and_flips(bytes: &[u8]) -> Vec<Vec<u8>> {
        let truncations = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        truncations.chain(flips).collect()
    }

    #[test]
    fn decoders_survive_every_truncation_and_bit_flip() {
        // each input gives a value or a typed error, never a panic
        for cmd in sample_commands() {
            let mut e = Enc::new();
            e.u8(command_tag(&cmd));
            enc_command(&mut e, &cmd);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let tag = d.u8().unwrap();
            assert_eq!(dec_command(&mut d, tag).unwrap(), cmd, "intact, it round-trips");
            assert!(d.done());
            for input in truncations_and_flips(&bytes) {
                let mut d = Dec::new(&input);
                if let Ok(tag) = d.u8() {
                    let _ = dec_command(&mut d, tag);
                }
            }
        }
        for record in sample_records() {
            for input in truncations_and_flips(&record.encode_body()) {
                let _ = WalRecord::decode_body(&input);
            }
        }
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
        wal.append(&remove(9));
        wal.commit().unwrap();
        let read = read_wal(&vfs(), &path).unwrap();
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(
            read.records.last(),
            Some(&remove(9))
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
        wal.append(&remove(1));
        wal.commit().unwrap();

        // the next commit tears mid-write; the buffer must survive
        fault.schedule(FaultOp::Write, 0, FaultKind::Torn { keep: 5 });
        wal.append(&remove(2));
        wal.append(&remove(3));
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
                remove(1),
                remove(2),
                remove(3),
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
