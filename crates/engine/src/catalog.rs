//! The catalog: named tables/streams available to the executor, with
//! per-table **row watermarks** for delta-aware (incremental) execution.
//!
//! Every table tracks how many rows were ever appended to it and how
//! many were evicted from the front (stream retention). A consumer that
//! remembers the [`Watermark`] of its last read can ask for
//! [`Catalog::delta_since`] — the appended suffix — instead of
//! rescanning the whole retained window, together with how many of the
//! rows it saw have been evicted since — rows it can retract from its
//! state instead of rebuilding. Appends keep a handle on the most
//! recent batch, so the common one-ingest-per-tick case hands the delta
//! back as zero-copy column shares; anything else falls back to an
//! `O(delta)` suffix slice. Replacing a table (or mutating it through
//! [`Catalog::get_mut`]) bumps the table's *epoch*, which invalidates
//! every outstanding watermark — delta consumers then rescan once and
//! re-anchor; so does an eviction past a consumer's position (rows it
//! never saw).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minipool::ThreadPool;

use crate::error::{EngineError, EngineResult};
use crate::frame::Frame;

/// Process-global epoch allocator: every table (re)registration gets a
/// fresh epoch, so watermarks stay unambiguous even across catalog
/// clones.
static EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A consumer's position in a stream table: which incarnation of the
/// table it read (`epoch`), how many rows had been evicted from the
/// front at that point, and how many rows it has processed in total.
///
/// Obtained from [`Catalog::watermark`], redeemed at
/// [`Catalog::delta_since`]. A watermark is only a position marker —
/// it holds no data and is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    epoch: u64,
    evicted: u64,
    rows: u64,
}

impl Watermark {
    /// Total rows ever appended up to this mark (monotonic per epoch).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Rows evicted from the front of the stream up to this mark. The
    /// durability layer persists this so a recovered table resumes at
    /// the same absolute stream positions the write-ahead log recorded.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// One catalog table plus its stream-position accounting.
#[derive(Debug, Clone)]
struct TableEntry {
    frame: Frame,
    /// Bumped whenever the table is replaced or mutably borrowed:
    /// outstanding watermarks become invalid.
    epoch: u64,
    /// Rows evicted from the front since registration (retention).
    evicted: u64,
    /// The most recent appended batch and its absolute start row —
    /// the zero-copy fast path of [`Catalog::delta_since`].
    last_batch: Option<(u64, Frame)>,
    /// Per-shard row buckets of `last_batch` under the catalog's
    /// partitioning, computed eagerly at append time — a partitioned
    /// incremental stage then routes the delta without re-hashing the
    /// key column. Lives and dies with `last_batch`.
    last_split: Option<Arc<Vec<Vec<u32>>>>,
}

impl TableEntry {
    fn new(frame: Frame) -> Self {
        TableEntry { frame, epoch: next_epoch(), evicted: 0, last_batch: None, last_split: None }
    }

    /// Total rows ever appended (absolute high mark).
    fn high(&self) -> u64 {
        self.evicted + self.frame.len() as u64
    }

    fn watermark(&self) -> Watermark {
        Watermark { epoch: self.epoch, evicted: self.evicted, rows: self.high() }
    }
}

/// A named collection of frames. Table names are case-insensitive.
///
/// In PArADISE terms, every node of the vertical hierarchy holds its own
/// catalog: the sensor's catalog has the raw `stream`. The shipped
/// results of lower fragments (`d1`, `d2`, …) reach a node's executor
/// as a bound input ([`crate::Executor::with_input`]) alongside it.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, TableEntry>,
    /// Stream partitioning: `(key column, shard count)`, the count in
    /// `2..=65535`. When set, every appended batch is eagerly split
    /// into per-shard row buckets by a hash of the key, and grouped
    /// incremental stages over this catalog fold per shard.
    partitioning: Option<(String, usize)>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Partition the catalog's streams `shards` ways by a hash of the
    /// `key` column (see [`Catalog`] docs). `0` and `1` mean
    /// unpartitioned; the count is clamped to `65535`, because a
    /// grouped state names a retained row's shard in 16 bits. Applies
    /// to batches appended from now on; tables whose schema lacks the
    /// key column are simply never split.
    pub fn set_partitioning(&mut self, key: &str, shards: usize) {
        let shards = shards.min(u16::MAX as usize);
        self.partitioning = (shards > 1).then(|| (key.to_string(), shards));
        // a split cached under the previous policy routes nothing now
        for entry in self.tables.values_mut() {
            entry.last_split = None;
        }
    }

    /// The partitioning `(key column, shard count)`, if any.
    pub(crate) fn partitioning(&self) -> Option<(&str, usize)> {
        self.partitioning.as_ref().map(|(key, shards)| (key.as_str(), *shards))
    }

    /// Register a table. Fails if the name is taken.
    pub fn register(&mut self, name: &str, frame: Frame) -> EngineResult<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::DuplicateTable(name.to_string()));
        }
        self.tables.insert(key, TableEntry::new(frame));
        Ok(())
    }

    /// Register or replace a table. Replacing starts a fresh epoch:
    /// watermarks taken against the previous contents are invalidated.
    pub fn register_or_replace(&mut self, name: &str, frame: Frame) {
        self.tables.insert(name.to_ascii_lowercase(), TableEntry::new(frame));
    }

    /// Register or replace a table *at a recovered stream position*: the
    /// table starts a fresh epoch (in-memory delta consumers rescan
    /// once, as after any replacement) but keeps the given
    /// front-eviction count, so the absolute row positions of
    /// [`Catalog::watermark`] line up with what a write-ahead log
    /// recorded before a restart. This is the crash-recovery
    /// counterpart of [`Catalog::register_or_replace`].
    pub fn restore(&mut self, name: &str, frame: Frame, evicted: u64) {
        let mut entry = TableEntry::new(frame);
        entry.evicted = evicted;
        self.tables.insert(name.to_ascii_lowercase(), entry);
    }

    /// Append a batch of rows to a registered table — the ingest path of
    /// continuous queries over sensor streams. The table must already be
    /// registered (a typo'd stream name must fail loudly, not misroute
    /// data into a table nobody queries) and the batch schema must equal
    /// the installed schema exactly, so compiled plans keyed by schema
    /// fingerprint stay valid. The batch is remembered (by `Arc` bump)
    /// as the table's most recent delta for [`Catalog::delta_since`].
    pub fn append(&mut self, name: &str, batch: Frame) -> EngineResult<()> {
        let entry = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        if entry.frame.schema != batch.schema {
            return Err(EngineError::Unsupported(format!(
                "cannot append batch to table {name:?}: schemas differ"
            )));
        }
        let start = entry.high();
        entry.frame.append_copy(&batch)?;
        entry.last_split = self.partitioning.as_ref().and_then(|(key, shards)| {
            let ci = batch.schema.try_resolve(None, key)?;
            let pool = ThreadPool::global();
            Some(Arc::new(crate::plan::sharded::split_indices(batch.column(ci), *shards, pool)))
        });
        entry.last_batch = Some((start, batch));
        Ok(())
    }

    /// The per-shard split (one row-index bucket per shard, under the
    /// current partitioning) of a table's most recent batch, when that
    /// batch is exactly the `rows` rows from absolute row `from` on.
    /// `None` otherwise — the caller then hashes the delta itself.
    pub(crate) fn last_batch_split(
        &self,
        name: &str,
        from: u64,
        rows: usize,
    ) -> Option<Arc<Vec<Vec<u32>>>> {
        let entry = self.tables.get(&name.to_ascii_lowercase())?;
        let (start, batch) = entry.last_batch.as_ref()?;
        if *start != from || batch.len() != rows {
            return None;
        }
        entry.last_split.clone()
    }

    /// Evict the oldest `rows` rows of a table (stream retention). The
    /// epoch is kept — only the *evicted* count moves, so watermark
    /// arithmetic stays O(1). A delta consumer whose state covers the
    /// evicted rows learns their number from [`Catalog::delta_since`]
    /// and retracts them; one whose mark the eviction passed rescans.
    pub fn evict_front(&mut self, name: &str, rows: usize) -> EngineResult<()> {
        let entry = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let rows = rows.min(entry.frame.len());
        // the retention cap bounds what a stream holds: free the
        // evicted rows now, not when the table next grows
        entry.frame.skip_rows(rows);
        entry.frame.reclaim();
        entry.evicted += rows as u64;
        if let Some((start, _)) = entry.last_batch {
            if start < entry.evicted {
                entry.last_batch = None;
                entry.last_split = None;
            }
        }
        Ok(())
    }

    /// The current stream position of a table (see [`Watermark`]).
    pub fn watermark(&self, name: &str) -> EngineResult<Watermark> {
        self.entry(name).map(TableEntry::watermark)
    }

    /// The rows appended since `since`, oldest first, and how many rows
    /// were evicted from the front since — the consumer's first rows,
    /// which it retracts from its state. `None` when the delta is not
    /// derivable (the table was replaced or mutably borrowed since, or
    /// rows were evicted past the consumer's position, i.e. rows it
    /// never saw) and the consumer must rescan the full table.
    ///
    /// When the delta is exactly the most recently appended batch, the
    /// batch frame is returned as-is (zero-copy column shares);
    /// otherwise the suffix is sliced out, `O(delta)`.
    pub fn delta_since(&self, name: &str, since: Watermark) -> EngineResult<Option<(Frame, u64)>> {
        let entry = self.entry(name)?;
        let high = entry.high();
        if since.epoch != entry.epoch
            || since.evicted > entry.evicted
            || since.rows < entry.evicted
            || since.rows > high
        {
            return Ok(None);
        }
        let evicted = entry.evicted - since.evicted;
        if since.rows == high {
            return Ok(Some((Frame::empty(entry.frame.schema.clone()), evicted)));
        }
        if let Some((start, batch)) = &entry.last_batch {
            if *start == since.rows && start + batch.len() as u64 == high {
                return Ok(Some((batch.clone(), evicted)));
            }
        }
        Ok(Some((entry.frame.slice_tail((since.rows - entry.evicted) as usize), evicted)))
    }

    /// Remove a table, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Frame> {
        self.tables.remove(&name.to_ascii_lowercase()).map(|e| e.frame)
    }

    fn entry(&self, name: &str) -> EngineResult<&TableEntry> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Look a table up.
    pub fn get(&self, name: &str) -> EngineResult<&Frame> {
        self.entry(name).map(|e| &e.frame)
    }

    /// Mutable table lookup. Starts a fresh epoch for the table: the
    /// borrower may rewrite anything, so outstanding watermarks (and the
    /// cached last batch) are conservatively invalidated.
    pub fn get_mut(&mut self, name: &str) -> EngineResult<&mut Frame> {
        let entry = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        entry.epoch = next_epoch();
        entry.evicted = 0;
        entry.last_batch = None;
        entry.last_split = None;
        Ok(&mut entry.frame)
    }

    /// Does the catalog know this name?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// No tables?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn tiny() -> Frame {
        Frame::empty(Schema::from_pairs(&[("x", DataType::Integer)]))
    }

    fn batch(vals: &[i64]) -> Frame {
        let schema = Schema::from_pairs(&[("x", DataType::Integer)]);
        Frame::new(schema, vals.iter().map(|v| vec![Value::Int(*v)]).collect()).unwrap()
    }

    fn col(frame: &Frame) -> Vec<Value> {
        frame.column_values(0).collect()
    }

    #[test]
    fn register_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Stream", tiny()).unwrap();
        assert!(c.get("stream").is_ok());
        assert!(c.get("STREAM").is_ok());
        assert!(c.contains("StReAm"));
        assert!(matches!(c.get("other"), Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut c = Catalog::new();
        c.register("d", tiny()).unwrap();
        assert!(matches!(c.register("D", tiny()), Err(EngineError::DuplicateTable(_))));
        c.register_or_replace("d", tiny());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn append_accumulates_and_checks_schema() {
        let mut c = Catalog::new();
        // an absent table is an error, not an implicit registration —
        // a typo'd stream name must not silently swallow batches
        assert!(matches!(c.append("s", batch(&[1, 2])), Err(EngineError::UnknownTable(_))));
        c.register("s", batch(&[1, 2])).unwrap();
        c.append("S", batch(&[3])).unwrap();
        assert_eq!(c.get("s").unwrap().len(), 3);
        let other = Frame::empty(Schema::from_pairs(&[("y", DataType::Integer)]));
        assert!(matches!(c.append("s", other), Err(EngineError::Unsupported(_))));
        assert_eq!(c.get("s").unwrap().len(), 3, "failed append must not corrupt");
    }

    #[test]
    fn remove_returns_frame() {
        let mut c = Catalog::new();
        c.register("d", tiny()).unwrap();
        assert!(c.remove("D").is_some());
        assert!(c.is_empty());
        assert!(c.remove("d").is_none());
    }

    #[test]
    fn delta_since_returns_appended_suffix() {
        let mut c = Catalog::new();
        c.register("s", batch(&[1, 2])).unwrap();
        let mark = c.watermark("s").unwrap();
        assert_eq!(mark.rows(), 2);

        // nothing appended yet: an empty delta, not a rescan
        let (empty, evicted) = c.delta_since("s", mark).unwrap().unwrap();
        assert!(empty.is_empty());
        assert_eq!(evicted, 0);
        assert_eq!(empty.schema, c.get("s").unwrap().schema);

        // the single-batch fast path shares the batch's buffers
        let b = batch(&[3, 4]);
        c.append("s", b.clone()).unwrap();
        let (delta, _) = c.delta_since("s", mark).unwrap().unwrap();
        assert_eq!(col(&delta), vec![Value::Int(3), Value::Int(4)]);
        assert!(delta.shares_columns(&b), "one-batch delta must be zero-copy");

        // two appends since the mark: the suffix is sliced instead
        c.append("s", batch(&[5])).unwrap();
        let (delta, _) = c.delta_since("s", mark).unwrap().unwrap();
        assert_eq!(col(&delta), vec![Value::Int(3), Value::Int(4), Value::Int(5)]);

        // a newer mark narrows the delta to the last batch again
        let mid = c.watermark("s").unwrap();
        c.append("s", batch(&[6])).unwrap();
        assert_eq!(col(&c.delta_since("s", mid).unwrap().unwrap().0), vec![Value::Int(6)]);
    }

    #[test]
    fn delta_survives_eviction_behind_the_mark_only() {
        let mut c = Catalog::new();
        c.register("s", batch(&[1, 2, 3, 4])).unwrap();
        let mark = c.watermark("s").unwrap();
        c.append("s", batch(&[5, 6])).unwrap();

        // evicting rows the consumer has seen keeps the delta and
        // reports how many of its rows are gone, to retract …
        c.evict_front("s", 2).unwrap();
        assert_eq!(c.get("s").unwrap().len(), 4);
        let (delta, evicted) = c.delta_since("s", mark).unwrap().unwrap();
        assert_eq!(col(&delta), vec![Value::Int(5), Value::Int(6)]);
        assert_eq!(evicted, 2, "the consumer's first two rows are gone");

        // … and after re-anchoring, deltas continue with adjusted
        // offsets (evicted=2 now) and nothing more to retract
        let mark = c.watermark("s").unwrap();
        assert_eq!(mark.rows(), 6);
        c.append("s", batch(&[7])).unwrap();
        assert_eq!(c.delta_since("s", mark).unwrap().unwrap(), (batch(&[7]), 0));

        // an eviction past the mark takes rows the consumer never saw:
        // no delta, it must rescan
        c.append("s", batch(&[8, 9])).unwrap();
        c.evict_front("s", 6).unwrap();
        assert_eq!(col(c.get("s").unwrap()), vec![Value::Int(9)]);
        assert!(c.delta_since("s", mark).unwrap().is_none(), "eviction past the mark rescans");
    }

    #[test]
    fn replace_and_get_mut_invalidate_watermarks() {
        let mut c = Catalog::new();
        c.register("s", batch(&[1])).unwrap();
        let mark = c.watermark("s").unwrap();
        c.register_or_replace("s", batch(&[1]));
        assert!(c.delta_since("s", mark).unwrap().is_none(), "replace bumps the epoch");

        let mark = c.watermark("s").unwrap();
        c.get_mut("s").unwrap().skip_rows(1);
        assert!(c.delta_since("s", mark).unwrap().is_none(), "get_mut bumps the epoch");
    }

    #[test]
    fn partitioning_is_off_below_two_shards_and_clamped_to_16_bit_ids() {
        let mut c = Catalog::new();
        c.set_partitioning("x", 0);
        assert_eq!(c.partitioning(), None, "0 shards means unpartitioned");
        c.set_partitioning("x", 1);
        assert_eq!(c.partitioning(), None, "1 shard means unpartitioned");
        c.set_partitioning("x", 100_000);
        assert_eq!(c.partitioning(), Some(("x", 65_535)));

        // a split cached under one policy is dropped with it
        c.set_partitioning("x", 4);
        c.register("s", batch(&[1])).unwrap();
        c.append("s", batch(&[2, 3, 4])).unwrap();
        assert_eq!(c.last_batch_split("s", 1, 3).unwrap().len(), 4);
        assert!(c.last_batch_split("s", 0, 3).is_none(), "another batch");
        c.set_partitioning("x", 8);
        assert!(c.last_batch_split("s", 1, 3).is_none());
    }

    #[test]
    fn stale_marks_never_alias_new_data() {
        let mut c = Catalog::new();
        c.register("s", batch(&[1, 2, 3])).unwrap();
        let mark = c.watermark("s").unwrap();
        // a mark from a *different* incarnation with coincidentally
        // plausible row numbers must not be honoured
        c.register_or_replace("s", batch(&[9, 9, 9, 9]));
        assert!(c.delta_since("s", mark).unwrap().is_none());
        // a mark "from the future" is equally invalid
        let future = Watermark { epoch: c.watermark("s").unwrap().epoch, evicted: 0, rows: 99 };
        assert!(c.delta_since("s", future).unwrap().is_none());
    }
}
