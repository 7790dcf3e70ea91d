//! Delta-aware (incremental) execution: tick cost proportional to the
//! **batch**, not the retained window.
//!
//! A continuous query re-executes over a stream whose retained window
//! may hold orders of magnitude more rows than one tick appends. For
//! two plan shapes the appended suffix is all that needs processing:
//!
//! * **Stateless stages** (filter / projection / expression programs
//!   over a single base table, no windows, ordering, `DISTINCT` or
//!   `LIMIT`): output over `old ++ delta` equals output over `old`
//!   followed by output over `delta`, so the stage keeps its full
//!   output cached and only appends each tick's delta-output.
//! * **Grouped aggregation** (`COUNT`/`SUM`/`AVG`/`MIN`/`MAX`, the
//!   stddev/variance and `regr_*` kinds, with optional `GROUP BY`,
//!   `HAVING`, `ORDER BY`, `DISTINCT`, `LIMIT`): per-group
//!   [`Accumulator`]s fold each delta batch; the small extended frame
//!   (one row per group) is rebuilt and post-processed per tick,
//!   `O(groups)`.
//!
//! A grouped stage's state holds N ≥ 1 shard states, and
//! [`Executor::run_incremental`] is the one entry point for every N: N
//! follows the executor's catalog partitioning
//! ([`Catalog::set_partitioning`]) and is 1 when the catalog is
//! unpartitioned or no `GROUP BY` expression is exactly the partition
//! column (see the `sharded` module). One shard folds on the calling
//! thread with no merged view.
//!
//! Anything else — joins, window functions, `ORDER BY` over full
//! history, subqueries — is **not** incrementally maintainable and
//! [`Executor::compile_incremental`] returns `None`; callers fall back
//! to the compiled full-rescan plan with identical semantics.
//!
//! Accumulators fold rows in ascending row order exactly like the
//! rescan kernels (which update per group in row order), group ids are
//! assigned in first-appearance order, and the post-aggregation tail is
//! the *same code* as the rescan path, so incremental results are
//! identical to a full rescan — including floating-point accumulation
//! order.
//!
//! A grouped state finds a row's group by one hash of the row's
//! borrowed key cells under `GroupKey` equality (integral floats fold
//! onto ints, `-0.0` onto `0`, NaN compares by bits; the hash the shard
//! router uses), confirmed against the key cells it stores once per
//! group (`GroupKeys`). A fold builds no key and clones no text per
//! row, so its allocations do not grow with the batch.
//!
//! A retention eviction behind the state's [`Watermark`] arrives as
//! "the first E input rows are gone" beside the delta, and the state
//! retracts them: an append stage drops the matching prefix of its
//! cached output (a [`PassBits`] record says how many of the E rows
//! passed its `WHERE`), and a grouped stage deletes the groups whose
//! rows were all evicted and *refolds* the few that straddle the cut
//! from their retained rows — found through its record of each
//! retained input row's group (and shard), and recomputed, never
//! subtracted, so every accumulator stays bitwise-equal to a rescan.
//! A trim then costs O(evicted rows + straddling groups' rows), plus
//! an O(groups) renumbering. The state rebuilds from the full input
//! only on the first run, a replaced table, an eviction past its mark
//! (rows it never saw), and under global aggregation (its one group
//! straddles every cut).

use std::borrow::Borrow;
use std::hash::Hasher;
use std::sync::Arc;

use minipool::ThreadPool;

use super::sharded::GroupedState;
use super::{
    agg_finalize, compile_query, expr_subqueries, filter_rows_parallel, select_rows_parallel,
    AggBody, ArgFold, Body, ExprProgram, Executor, FxHashMap, FxHasher, PNode, ProjStep,
};
use crate::catalog::{Catalog, Watermark};
use crate::column::{merge_front, ColumnData};
use crate::error::{EngineError, EngineResult};
use crate::eval::Batch;
use crate::exec::aggregate::Accumulator;
use crate::exec::finalise_types;
use crate::frame::Frame;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// A query compiled for delta-aware re-execution (see the module docs
/// for which shapes qualify). Compiled once per (query, schema) by
/// [`Executor::compile_incremental`]; the mutable between-tick state
/// lives separately in an [`IncrementalState`] owned by the caller, so
/// one plan can be shared across consumers.
#[derive(Debug, Clone)]
pub struct IncrementalPlan {
    /// Base table the stage reads.
    pub(super) table: String,
    /// Input schema the programs were compiled against (base schema
    /// qualified with the scan source), kept for evaluation contexts.
    pub(super) in_schema: Schema,
    /// Compiled `WHERE` program, applied to every delta batch.
    pub(super) filter: Option<ExprProgram>,
    pub(super) kind: IncKind,
    pub(super) tables: Vec<String>,
    pub(super) fingerprint: u64,
}

#[derive(Debug, Clone)]
pub(super) enum IncKind {
    /// Stateless filter/projection: cached output + per-tick append.
    Append {
        items: Vec<ProjStep>,
        /// Output schema with the compile-time declared types (runtime
        /// type refinement happens on the returned result only).
        out_schema: Schema,
    },
    /// Grouped aggregation with live per-group accumulators.
    Grouped(Box<AggBody>),
}

impl IncrementalPlan {
    /// The schema fingerprint the plan was compiled against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Does this plan keep per-group accumulator state (vs. a cached
    /// append-only output)?
    pub fn is_grouped(&self) -> bool {
        matches!(self.kind, IncKind::Grouped(_))
    }

    /// How this plan folds over `catalog`'s partitioning: the key
    /// column's ordinal in the plan's input schema and the shard count.
    /// `None` — one shard — unless the catalog is partitioned and the
    /// plan is grouped aggregation one of whose `GROUP BY` expressions
    /// is exactly the key column. Rows with equal group keys then route
    /// to one shard, so every group lives on exactly one.
    pub(super) fn partition(&self, catalog: &Catalog) -> Option<(usize, usize)> {
        let (key, shards) = catalog.partitioning()?;
        let IncKind::Grouped(body) = &self.kind else { return None };
        let key = self.in_schema.try_resolve(None, key)?;
        body.group.iter().any(|p| p.column() == Some(key)).then_some((key, shards))
    }
}

/// Where a tick's delta comes from.
pub enum DeltaInput<'a> {
    /// Read the appended suffix of the plan's base table from the
    /// executor's catalog via its [`Watermark`] (the stream source at
    /// the bottom of a fragment pipeline).
    Source,
    /// The delta was computed by an upstream incremental stage and is
    /// pushed directly; `reset` signals that the upstream stage rebuilt
    /// its state and `delta` is its **full** output, so this stage must
    /// rebuild too.
    ///
    /// When `evicted > 0`, a grouped stage reads its retained input —
    /// the plan's table as the executor resolves it, i.e. the upstream
    /// stage's full output bound with [`Executor::with_input`] — to
    /// refold the groups that straddle the cut (or, under global
    /// aggregation, to rebuild from it).
    Pushed {
        /// The new input rows (or the full input when `reset`).
        delta: &'a Frame,
        /// Upstream rebuilt: treat `delta` as the full input.
        reset: bool,
        /// Upstream retracted this many rows from the front of this
        /// stage's input since its last tick (ignored on a reset).
        evicted: usize,
    },
}

/// One tick's product of [`Executor::run_incremental`].
#[derive(Debug)]
pub struct IncrementalRun {
    /// The stage's full logical output — identical to what the
    /// full-rescan plan would produce over the full input.
    pub result: Frame,
    /// For stateless (append) stages: the output of just this tick's
    /// delta, for pushing into a downstream incremental stage. `None`
    /// for grouped aggregation (downstream consumes `result`).
    pub delta: Option<Frame>,
    /// The state was rebuilt from the full input this tick (first run,
    /// table replacement, an eviction past the mark or of a global
    /// aggregation, upstream reset) — downstream stages must rebuild too.
    pub reset: bool,
    /// For append stages: rows retracted from the front of the stage's
    /// output this tick, to push into a downstream stage with `delta`.
    /// 0 for grouped aggregation and on a reset.
    pub evicted: usize,
    /// Input rows consumed this tick (the pre-filter delta, plus the
    /// retained rows a retraction refolded; the full window on a reset)
    /// — what a node accounts as scanned.
    pub input_rows: usize,
}

/// The mutable between-tick state of one incremental consumer: the
/// source watermark plus either the cached append-only output or the
/// per-group accumulators. Owned by the caller (in PArADISE terms: by
/// the runtime's `QueryHandle`), separate from the shareable
/// [`IncrementalPlan`].
#[derive(Debug, Default)]
pub struct IncrementalState {
    pub(super) mark: Option<Watermark>,
    pub(super) data: StateData,
    /// Fingerprint of the plan the state was folded under: a
    /// recompiled plan (schema change) must never fold into state built
    /// by its predecessor.
    pub(super) plan_fp: Option<u64>,
    /// Cumulative count of groups whose HAVING predicate was
    /// (re-)evaluated (diagnostic): pins the dirty-mask contract that
    /// HAVING costs O(groups *touched* per tick), not O(all groups).
    pub(super) having_evals: u64,
    /// Cumulative count of rebuilds from the full input (diagnostic).
    pub(super) rebuilds: u64,
    /// Cumulative count of groups a front eviction reached (diagnostic).
    pub(super) retracted_groups: u64,
}

impl IncrementalState {
    /// Fresh, empty state: the first run rebuilds from the full input.
    pub fn new() -> Self {
        IncrementalState::default()
    }

    /// Rows folded so far (diagnostic).
    pub fn rows_seen(&self) -> u64 {
        match &self.data {
            StateData::Empty => 0,
            StateData::Append { rows_in, .. } => *rows_in,
            StateData::Grouped(g) => g.rows_seen(),
        }
    }

    /// Cumulative number of groups whose HAVING predicate has been
    /// evaluated across all ticks (diagnostic). Grows by the number of
    /// groups *touched* per tick — a regression guard against HAVING
    /// re-evaluation over every group.
    pub fn having_groups_evaluated(&self) -> u64 {
        self.having_evals
    }

    /// Cumulative number of ticks that rebuilt the state from the full
    /// input (diagnostic): the first run, a replaced table, an eviction
    /// past the mark or of a global aggregation, an upstream reset.
    /// A retention trim that the state retracts leaves it unchanged.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Cumulative number of groups that front evictions reached
    /// (diagnostic): deleted because every row of theirs was evicted,
    /// or refolded from their retained rows because some were.
    pub fn retracted_groups(&self) -> u64 {
        self.retracted_groups
    }
}

#[derive(Debug, Default)]
pub(super) enum StateData {
    #[default]
    Empty,
    Append {
        /// Accumulated full output (raw declared types; the result view
        /// is type-refined per tick).
        out: Frame,
        /// Input rows consumed (diagnostic).
        rows_in: u64,
        /// Which retained input rows passed the `WHERE`; `None` without
        /// one (every input row is an output row).
        passed: Option<PassBits>,
    },
    Grouped(GroupedState),
}

/// One bit per retained input row of an append stage with a `WHERE`:
/// did the row pass? Evicting the first E input rows drops as many
/// output rows as there are set bits among the first E.
#[derive(Debug, Default)]
pub(super) struct PassBits {
    words: Vec<u64>,
    /// Bit offset of the first retained row in `words[0]` (< 64).
    head: usize,
    /// Retained rows.
    len: usize,
}

impl PassBits {
    fn push(&mut self, mask: &[bool]) {
        for &passed in mask {
            let at = self.head + self.len;
            if at / 64 == self.words.len() {
                self.words.push(0);
            }
            if passed {
                self.words[at / 64] |= 1 << (at % 64);
            }
            self.len += 1;
        }
    }

    /// Drop the first `rows` (≤ the retained count) and return how many
    /// of them passed.
    fn retract(&mut self, rows: usize) -> usize {
        debug_assert!(rows <= self.len);
        let end = self.head + rows;
        let mut passed = 0;
        let mut at = self.head;
        while at < end {
            let (word, lo) = (at / 64, at % 64);
            let width = (64 - lo).min(end - at);
            let bits = self.words[word] >> lo;
            let bits = if width == 64 { bits } else { bits & ((1 << width) - 1) };
            passed += bits.count_ones() as usize;
            at += width;
        }
        self.words.drain(..end / 64);
        self.head = end % 64;
        self.len -= rows;
        passed
    }
}

/// Per-group accumulator state of a grouped-aggregation stage.
///
/// Besides the accumulators it maintains the *extended frame's*
/// columns in place — representative values and cached `finish()`
/// values, one cell per group, behind `Arc`s — so producing a tick's
/// extended frame costs O(groups **touched** this tick), not
/// O(all groups). Untouched groups' accumulators are unchanged, so
/// their cached finish values are exactly what a rebuild would
/// recompute.
#[derive(Debug)]
pub(super) struct GroupState {
    /// The key of each slot's group, found by a hash of a row's borrowed
    /// key cells. A slot is the index of the group's accumulators,
    /// stable while the group lives (a front eviction renumbers the
    /// dense group ids, not the slots). The merged view of a partitioned
    /// state leaves it empty.
    pub(super) keys: GroupKeys,
    /// Number of groups (tracked explicitly: `calls` may be empty).
    pub(super) n_groups: u32,
    /// Representative (first-row) values per group, one buffer per
    /// `rep_cols` entry; appended at group creation.
    pub(super) reps: Vec<Arc<ColumnData>>,
    /// `accs[call][slot]`.
    pub(super) accs: Vec<Vec<Accumulator>>,
    /// The slot of each group.
    pub(super) slot_of: Vec<u32>,
    /// The group of each slot; `u32::MAX` for a free slot.
    group_of: Vec<u32>,
    /// Free slots, reused by new groups.
    free: Vec<u32>,
    /// Slots of groups a front eviction deleted, whose keys are still
    /// chained in `keys` (a dead slot reads as absent): the next tick's
    /// fold re-chains the live keys and frees the slots, which keeps the
    /// O(all slots) sweep out of the eviction's tick.
    dead: Vec<u32>,
    /// Cached `finish()` of each group's accumulators per call, updated
    /// for the groups touched by each fold.
    pub(super) vals: Vec<Arc<ColumnData>>,
    /// Scratch: group ids touched by the current fold.
    pub(super) touched: Vec<u32>,
    /// Input rows folded.
    pub(super) rows: u64,
    /// Global aggregation: has the representative row been captured?
    pub(super) have_global_rep: bool,
    /// Cached HAVING mask (one bool per group), maintained for the
    /// touched groups per tick. `None` when the plan has no HAVING or
    /// aggregates globally (one group — nothing to save), and on the
    /// shards of a partitioned state, whose merged view keeps it.
    pub(super) having: Option<Vec<bool>>,
    /// Stream position of each group's first row (assigned pre-filter,
    /// since the last rebuild), ascending in group id — orders merged
    /// and refolded group ids identically to a rescan. Empty for global
    /// aggregation.
    pub(super) first_rows: Vec<u64>,
}

impl GroupState {
    pub(super) fn new(body: &AggBody, in_schema: &Schema) -> GroupState {
        let mut state = GroupState {
            keys: GroupKeys::new(body.group.len()),
            n_groups: 0,
            reps: body
                .rep_cols
                .iter()
                .map(|&i| Arc::new(ColumnData::empty(in_schema.columns()[i].data_type)))
                .collect(),
            accs: body.calls.iter().map(|_| Vec::new()).collect(),
            slot_of: Vec::new(),
            group_of: Vec::new(),
            free: Vec::new(),
            dead: Vec::new(),
            vals: body.calls.iter().map(|_| Arc::new(ColumnData::empty(DataType::Float))).collect(),
            touched: Vec::new(),
            rows: 0,
            have_global_rep: false,
            having: if body.group.is_empty() {
                None
            } else {
                body.having.as_ref().map(|_| Vec::new())
            },
            first_rows: Vec::new(),
        };
        state.seed_global(body);
        state
    }

    /// Forget every group and keep the buffers: a rebuild over a
    /// stationary window then re-grows neither the key map nor the
    /// per-group columns (one rehash-and-copy per rebuild otherwise).
    pub(super) fn clear(&mut self, body: &AggBody) {
        self.keys.clear();
        self.n_groups = 0;
        for col in self.reps.iter_mut().chain(self.vals.iter_mut()) {
            Arc::make_mut(col).truncate(0);
        }
        self.accs.iter_mut().for_each(Vec::clear);
        self.slot_of.clear();
        self.group_of.clear();
        self.free.clear();
        self.dead.clear();
        self.touched.clear();
        self.rows = 0;
        self.have_global_rep = false;
        if let Some(mask) = self.having.as_mut() {
            mask.clear();
        }
        self.first_rows.clear();
        self.seed_global(body);
    }

    /// The global group always exists: zero folded rows must still
    /// yield the empty-input aggregate values (COUNT = 0, SUM = NULL,
    /// …), exactly like the rescan path.
    fn seed_global(&mut self, body: &AggBody) {
        if !body.group.is_empty() {
            return;
        }
        self.new_group(body);
        for (vals, accs) in self.vals.iter_mut().zip(&self.accs) {
            Arc::make_mut(vals).push(accs[0].finish());
        }
    }

    /// Append a group with fresh accumulators in a free slot (or a new
    /// one) and return its slot.
    fn new_group(&mut self, body: &AggBody) -> u32 {
        let gid = self.n_groups;
        self.n_groups += 1;
        let fresh = body.calls.iter().map(|c| Accumulator::new(c.kind, c.distinct));
        let slot = match self.free.pop() {
            Some(slot) => {
                for (accs, acc) in self.accs.iter_mut().zip(fresh) {
                    accs[slot as usize] = acc;
                }
                self.group_of[slot as usize] = gid;
                slot
            }
            None => {
                for (accs, acc) in self.accs.iter_mut().zip(fresh) {
                    accs.push(acc);
                }
                self.group_of.push(gid);
                self.group_of.len() as u32 - 1
            }
        };
        self.slot_of.push(slot);
        slot
    }

    /// Drop the keys of the groups earlier front evictions deleted, and
    /// free their slots.
    pub(super) fn drop_dead_keys(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        let group_of = &self.group_of;
        self.keys.rechain(|slot| group_of[slot as usize] != u32::MAX);
        self.free.append(&mut self.dead);
    }

    /// Retract every input row before stream position `cut` from a
    /// grouped (non-global) state. The groups that start before the cut
    /// are a prefix of the group ids. Those with no retained row are
    /// deleted and free their slots. Those that straddle the cut —
    /// found through `rows`, the index in `input` (whose row 0 is at
    /// position `cut`) and the slot of each retained input row of this
    /// state, ascending — move to their first retained row's place in
    /// first-appearance order, take it as their representative, and are
    /// refolded from fresh accumulators over their retained rows. Leaves
    /// the refolded groups in `touched`; returns how many groups the cut
    /// reached and how many rows were refolded.
    pub(super) fn retract(
        &mut self,
        body: &AggBody,
        exec: &Executor<'_>,
        input: &Frame,
        cut: u64,
        rows: impl Iterator<Item = (usize, u32)>,
    ) -> EngineResult<(u64, usize)> {
        let reached = self.first_rows.partition_point(|&first| first < cut);
        if reached == 0 {
            return Ok((0, 0));
        }
        // the straddlers, in the order of their first retained row, and
        // all their retained rows
        let mut straddles = vec![false; reached];
        let (mut straddlers, mut firsts) = (Vec::new(), Vec::new());
        let (mut picked, mut positions) = (Vec::new(), Vec::new());
        for (ri, slot) in rows {
            let Some(&g) = self.group_of.get(slot as usize) else { continue };
            if (g as usize) < reached {
                if !std::mem::replace(&mut straddles[g as usize], true) {
                    straddlers.push(g);
                    firsts.push(ri);
                }
                picked.push(ri);
                positions.push(cut + ri as u64);
            }
        }
        for (g, _) in straddles.iter().enumerate().filter(|(_, s)| !**s) {
            let slot = self.slot_of[g];
            self.group_of[slot as usize] = u32::MAX;
            self.dead.push(slot);
        }

        // the new group order: the untouched groups and the straddlers,
        // merged by first row (both runs ascend)
        let (n, s) = (self.n_groups as usize, straddlers.len());
        let new_firsts: Vec<u64> = firsts.iter().map(|&ri| cut + ri as u64).collect();
        let mut from_straddlers = Vec::with_capacity(n - reached + s);
        let (mut i, mut j) = (reached, 0);
        while i < n || j < s {
            let straddler = j < s && (i == n || new_firsts[j] < self.first_rows[i]);
            from_straddlers.push(straddler);
            if straddler {
                j += 1;
            } else {
                i += 1;
            }
        }
        let old: Vec<usize> = straddlers.iter().map(|&g| g as usize).collect();
        let straddler_slots: Vec<u32> = old.iter().map(|&g| self.slot_of[g]).collect();
        merge_groups(&mut self.slot_of, reached, &straddler_slots, &from_straddlers);
        merge_groups(&mut self.first_rows, reached, &new_firsts, &from_straddlers);
        for (rep, &ci) in self.reps.iter_mut().zip(&body.rep_cols) {
            let extra = input.column(ci).gather(&firsts);
            Arc::make_mut(rep).merge_in(reached, &extra, &from_straddlers);
        }
        for vals in &mut self.vals {
            // placeholders: the refold below refreshes them
            let extra = vals.gather(&old);
            Arc::make_mut(vals).merge_in(reached, &extra, &from_straddlers);
        }
        if let Some(mask) = self.having.as_mut() {
            merge_groups(mask, reached, &vec![false; s], &from_straddlers);
        }
        self.n_groups = from_straddlers.len() as u32;
        for (g, &slot) in self.slot_of.iter().enumerate() {
            self.group_of[slot as usize] = g as u32;
        }

        // refold the straddlers from fresh accumulators
        for &slot in &straddler_slots {
            for (accs, call) in self.accs.iter_mut().zip(&body.calls) {
                accs[slot as usize] = Accumulator::new(call.kind, call.distinct);
            }
        }
        let retained = input.select_rows(&picked);
        fold_grouped(body, self, &retained, exec, &positions, |_, _| ())?;
        Ok((reached as u64, picked.len()))
    }
}

/// Drop the first `reached` groups' entries of `v` and merge in the
/// straddlers' (see [`merge_front`]).
fn merge_groups<T: Clone>(v: &mut Vec<T>, reached: usize, extra: &[T], from_extra: &[bool]) {
    merge_front(v, reached, extra, from_extra);
    v.drain(..reached - extra.len());
}

/// The key of each slot's group. A row's key is found by one hash of
/// its borrowed key cells ([`GroupKey`] equality: integral floats fold
/// onto ints, `-0.0` onto `0`, NaN compares by bits), so no key is
/// built and no text cloned per row. The hash maps to the slot stored
/// under it last; distinct keys with equal hashes chain through `next`,
/// and a hit is confirmed against the stored cells.
///
/// [`GroupKey`]: crate::value::GroupKey
#[derive(Debug)]
pub(super) struct GroupKeys {
    /// Key hash → the slot stored under it last.
    heads: FxHashMap<u64, u32>,
    /// Per slot: the slot stored under the same hash before it,
    /// `u32::MAX` at the end of the chain.
    next: Vec<u32>,
    /// Per slot: the hash of its key.
    pub(super) hashes: Vec<u64>,
    /// Per key column: the key cell of each slot, written when the slot
    /// gets its group.
    pub(super) cells: Vec<ColumnData>,
}

impl GroupKeys {
    fn new(width: usize) -> Self {
        GroupKeys {
            heads: FxHashMap::default(),
            next: Vec::new(),
            hashes: Vec::new(),
            cells: (0..width).map(|_| ColumnData::empty(DataType::Float)).collect(),
        }
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
        self.hashes.clear();
        self.cells.iter_mut().for_each(|c| c.truncate(0));
    }

    /// The hash of row `ri`'s key over the key columns `cols`.
    fn hash<C: Borrow<ColumnData>>(cols: &[C], ri: usize) -> u64 {
        let mut h = FxHasher::default();
        for col in cols {
            col.borrow().hash_key_at(ri, &mut h);
        }
        h.finish()
    }

    /// The slot, among those `live` accepts, whose key equals row `ri`'s
    /// over `cols`, which hashes to `h`.
    pub(super) fn find<C: Borrow<ColumnData>>(
        &self,
        h: u64,
        cols: &[C],
        ri: usize,
        live: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        let mut slot = *self.heads.get(&h)?;
        while slot != u32::MAX {
            let at = slot as usize;
            let equal = || {
                let mut cells = self.cells.iter().zip(cols);
                cells.all(|(c, col)| c.key_eq_at(at, col.borrow(), ri))
            };
            if live(slot) && equal() {
                return Some(slot);
            }
            slot = self.next[at];
        }
        None
    }

    /// Store row `ri`'s key over `cols`, which hashes to `h`, as the key
    /// of `slot`: a new slot (the next one) or a freed one.
    pub(super) fn insert<C: Borrow<ColumnData>>(
        &mut self,
        slot: u32,
        h: u64,
        cols: &[C],
        ri: usize,
    ) {
        let at = slot as usize;
        let next = self.heads.insert(h, slot).unwrap_or(u32::MAX);
        if at == self.hashes.len() {
            self.hashes.push(h);
            self.next.push(next);
            for (c, col) in self.cells.iter_mut().zip(cols) {
                c.push(col.borrow().value(ri));
            }
        } else {
            self.hashes[at] = h;
            self.next[at] = next;
            for (c, col) in self.cells.iter_mut().zip(cols) {
                c.set(at, col.borrow().value(ri));
            }
        }
    }

    /// Re-chain the slots `live` accepts from their stored hashes and
    /// forget the others: O(slots).
    fn rechain(&mut self, live: impl Fn(u32) -> bool) {
        self.heads.clear();
        for (slot, (&h, next)) in self.hashes.iter().zip(&mut self.next).enumerate() {
            if live(slot as u32) {
                *next = self.heads.insert(h, slot as u32).unwrap_or(u32::MAX);
            }
        }
    }
}

impl<'a> Executor<'a> {
    /// Compile `query` for delta-aware execution, or `None` when the
    /// shape is not incrementally maintainable (see the module docs) —
    /// callers then use the compiled full-rescan plan.
    pub fn compile_incremental(&self, query: &paradise_sql::ast::Query) -> EngineResult<Option<IncrementalPlan>> {
        let (node, _) = compile_query(self, query)?;
        // subquery results may change between ticks without the base
        // table moving: never fold them incrementally
        if !expr_subqueries(query).is_empty() {
            return Ok(None);
        }
        let PNode::Block(block) = node else { return Ok(None) };
        let super::BlockPlan { input, filter, body } = *block;
        let PNode::Scan { table, source } = input else { return Ok(None) };
        let in_schema = self.table(&table)?.schema.with_source(&source);
        let kind = match body {
            Body::Plain(p) => {
                let p = *p;
                if !p.windows.is_empty()
                    || !p.order.is_empty()
                    || p.distinct
                    || p.limit.is_some()
                    || p.offset.is_some()
                {
                    return Ok(None);
                }
                let out_schema = p.declared_schema(&in_schema);
                IncKind::Append { items: p.items, out_schema }
            }
            Body::Agg(a) => IncKind::Grouped(a),
        };
        let tables = paradise_sql::analysis::base_relations(query);
        let fingerprint = self.fingerprint(&tables);
        Ok(Some(IncrementalPlan { table, in_schema, filter, kind, tables, fingerprint }))
    }

    /// Resolve one tick's delta for `plan`: the appended suffix since
    /// `state`'s watermark and how many input rows were evicted from the
    /// front since (from the catalog, or pushed by an upstream stage),
    /// or the full input with `reset` when no delta is derivable.
    fn resolve_delta(
        &self,
        plan: &IncrementalPlan,
        state: &IncrementalState,
        input: DeltaInput<'_>,
    ) -> EngineResult<(Frame, bool, usize, Option<Watermark>)> {
        Ok(match input {
            DeltaInput::Source => {
                if self.fingerprint(&plan.tables) != plan.fingerprint {
                    return Err(EngineError::StalePlan);
                }
                let mark = self.catalog.watermark(&plan.table)?;
                let delta = match state.mark {
                    Some(m) => self.catalog.delta_since(&plan.table, m)?,
                    None => None,
                };
                match delta {
                    Some((d, evicted)) => (d, false, evicted as usize, Some(mark)),
                    None => (self.table(&plan.table)?.clone(), true, 0, Some(mark)),
                }
            }
            DeltaInput::Pushed { delta, reset, evicted } => {
                if delta.schema.len() != plan.in_schema.len() {
                    return Err(EngineError::StalePlan);
                }
                (delta.clone(), reset, if reset { 0 } else { evicted }, None)
            }
        })
    }

    /// One tick of an incremental plan: resolve the delta (from the
    /// catalog watermark or pushed by an upstream stage), retract the
    /// evicted input rows from `state` and fold the delta into it, and
    /// return the stage's **full** result — identical to running the
    /// compiled full-rescan plan over the full input.
    ///
    /// When the delta is not derivable (first run, table replacement,
    /// eviction past the mark, upstream reset), or the state cannot
    /// retract an eviction (global aggregation), the state is rebuilt
    /// from the full input transparently and `reset` is flagged so
    /// downstream consumers rebuild too.
    ///
    /// A grouped stage folds per shard when the executor's catalog is
    /// partitioned ([`Catalog::set_partitioning`]) and a `GROUP BY`
    /// expression is the key column (see the `sharded` module);
    /// otherwise it is one shard.
    pub fn run_incremental(
        &self,
        plan: &IncrementalPlan,
        state: &mut IncrementalState,
        input: DeltaInput<'_>,
    ) -> EngineResult<IncrementalRun> {
        // 1. resolve the delta and whether the state survives
        let (mut delta, mut reset, mut evicted, mark) = self.resolve_delta(plan, state, input)?;
        let partition = plan.partition(self.catalog);
        // a state of the wrong shape — fresh, folded under a different
        // plan (recompilation after a schema change), of the other
        // kind, or routed by another key or shard count — always
        // rebuilds
        let compatible = state.plan_fp == Some(plan.fingerprint)
            && match (&plan.kind, &state.data) {
                (IncKind::Append { .. }, StateData::Append { .. }) => true,
                (IncKind::Grouped(_), StateData::Grouped(g)) => g.partition() == partition,
                _ => false,
            };
        // a grouped state reads its retained input on an eviction: to
        // refold the groups that straddle the cut, or to rebuild from it
        // under global aggregation, whose one group straddles every cut
        let mut retained = None;
        if let (true, false, StateData::Grouped(g)) = (compatible, reset, &state.data) {
            if evicted > 0 {
                let input = self.table(&plan.table)?;
                if g.retained() + delta.len() as u64 != (evicted + input.len()) as u64 {
                    return Err(EngineError::StalePlan);
                }
                retained = Some(input);
            }
        }
        let retracts = match &plan.kind {
            IncKind::Append { .. } => true,
            IncKind::Grouped(body) => !body.group.is_empty(),
        };
        if !compatible || (retained.is_some() && !retracts) {
            if !reset {
                // a pushed partial delta cannot rebuild state from
                // scratch: the caller must re-run with the full input
                // (the driver resets the whole pipeline state and
                // retries once). `mark` is `Some` exactly for `Source`
                // input, where the full table is available — the
                // rebuild rescans it right here — and an eviction read
                // the retained input above.
                delta = match retained.take() {
                    Some(input) => input.clone(),
                    None if mark.is_none() => return Err(EngineError::StalePlan),
                    None => self.table(&plan.table)?.clone(),
                };
            }
            reset = true;
        }
        if reset {
            evicted = 0;
            state.rebuilds += 1;
        }
        let mut input_rows = delta.len();
        state.plan_fp = Some(plan.fingerprint);

        // 2. reset, retract, fold into the state and produce the full
        // result
        match &plan.kind {
            IncKind::Append { items, out_schema } => {
                let (fd, mask) = filter_delta(plan, delta, self)?;
                let n = fd.len();
                let mut cols: Vec<Arc<ColumnData>> = Vec::with_capacity(out_schema.len());
                for step in items {
                    match step {
                        ProjStep::Splice(indices) => {
                            for &i in indices {
                                cols.push(fd.column_arc(i));
                            }
                        }
                        ProjStep::Prog(p) => {
                            cols.push(p.eval(&fd, self)?.into_column_arc(n))
                        }
                    }
                }
                let delta_out = Frame::from_arc_columns(out_schema.clone(), cols)?;
                if reset {
                    match &mut state.data {
                        // a rebuild under the same plan refills the
                        // buffers it owns: over a stationary window the
                        // output never outgrows them, where fresh
                        // exact-size ones are re-grown — a copy of the
                        // whole output — by the first append after
                        // every rebuild
                        StateData::Append { out, rows_in, passed } if compatible => {
                            out.truncate(0);
                            *rows_in = 0;
                            if let Some(bits) = passed {
                                bits.retract(bits.len);
                            }
                        }
                        data => {
                            *data = StateData::Append {
                                out: Frame::empty(out_schema.clone()),
                                rows_in: 0,
                                passed: plan.filter.as_ref().map(|_| PassBits::default()),
                            };
                        }
                    }
                }
                let StateData::Append { out, rows_in, passed } = &mut state.data else {
                    unreachable!("reset guarantees matching state")
                };
                // retract the evicted input rows' output rows, a prefix
                if evicted > passed.as_ref().map_or(out.len(), |bits| bits.len) {
                    return Err(EngineError::StalePlan);
                }
                let dropped = passed.as_mut().map_or(evicted, |bits| bits.retract(evicted));
                out.skip_rows(dropped);
                if let (Some(bits), Some(mask)) = (passed, &mask) {
                    bits.push(mask);
                }
                // by-reference append: `delta_out` stays alive (it is
                // returned for downstream stages), so an owned append
                // would pay a second copy
                out.append_copy(&delta_out)?;
                *rows_in += n as u64;
                let mut result = out.clone();
                finalise_types(&mut result);
                state.mark = mark;
                Ok(IncrementalRun {
                    result,
                    delta: Some(delta_out),
                    reset,
                    evicted: dropped,
                    input_rows,
                })
            }
            IncKind::Grouped(body) => {
                if reset {
                    match &mut state.data {
                        // as for the append state: keep the buffers
                        StateData::Grouped(g) if compatible => g.clear(body),
                        data => {
                            let g = GroupedState::new(body, &plan.in_schema, partition);
                            *data = StateData::Grouped(g);
                        }
                    }
                }
                // a partitioned fold reuses the catalog's split of the
                // last appended batch when this source delta is exactly it
                let split = match (partition, state.mark, &mark) {
                    (Some(_), Some(prev), Some(_)) if !reset => {
                        self.catalog.last_batch_split(&plan.table, prev.rows(), delta.len())
                    }
                    _ => None,
                };
                let (having_evals, retracted_groups) =
                    (&mut state.having_evals, &mut state.retracted_groups);
                let StateData::Grouped(g) = &mut state.data else {
                    unreachable!("reset guarantees matching state")
                };
                // 3. retract and fold, then the extended frame, the
                // HAVING mask and the shared finalize over the groups
                // the fold reports: the one shard's, or the merged view
                // over all shards
                let retract = retained.map(|input| (evicted as u64, input));
                let folded = g.fold(body, plan, delta, self, split, retract);
                let run = folded.and_then(|(gs, reached, refolded)| {
                    *retracted_groups += reached;
                    input_rows += refolded;
                    let ext = build_state_ext(body, gs, &plan.in_schema)?;
                    if let (Some(h), Some(mask)) = (&body.having, gs.having.as_mut()) {
                        *having_evals += refresh_having_mask(self, h, &ext, &gs.touched, mask)?;
                    } else if body.having.is_some() {
                        // uncached (global aggregation): full evaluation
                        *having_evals += ext.len() as u64;
                    }
                    agg_finalize(self, body, ext, gs.having.as_deref())
                });
                match run {
                    Ok(result) => {
                        state.mark = mark;
                        Ok(IncrementalRun { result, delta: None, reset, evicted: 0, input_rows })
                    }
                    Err(e) => {
                        // the fold may have partially mutated the
                        // accumulators (on any number of shards) but the
                        // watermark did not advance: poison the whole
                        // state so the next call rebuilds from the full
                        // input instead of double-folding re-delivered
                        // rows — no partial fold is ever observable
                        *state = IncrementalState::default();
                        Err(e)
                    }
                }
            }
        }
    }
}

/// `delta` with `plan`'s `WHERE` program applied, and the mask it
/// applied (`None` without a `WHERE`).
pub(super) fn filter_delta(
    plan: &IncrementalPlan,
    delta: Frame,
    exec: &Executor<'_>,
) -> EngineResult<(Frame, Option<Vec<bool>>)> {
    Ok(match &plan.filter {
        Some(p) => {
            let mask = p.eval_mask(&delta, exec)?;
            (filter_rows_parallel(&delta, &mask, ThreadPool::global()), Some(mask))
        }
        None => (delta, None),
    })
}

/// Fold one (filtered) delta batch into the group state. Rows are
/// processed in ascending order, so each group's accumulator sees its
/// rows in exactly the order the rescan kernels would — results,
/// including floating-point sums, are identical.
///
/// `positions` carries one stream position per row of `fd`: each new
/// group records its first in [`GroupState::first_rows`]. Unless the
/// aggregation is global, the fold hands each row's position and slot
/// to `record`. The groups the fold touches join
/// [`GroupState::touched`], which the caller clears.
pub(super) fn fold_grouped(
    body: &AggBody,
    gs: &mut GroupState,
    fd: &Frame,
    exec: &Executor<'_>,
    positions: &[u64],
    mut record: impl FnMut(u64, u32),
) -> EngineResult<()> {
    let n = fd.len();
    if n == 0 {
        return Ok(());
    }
    debug_assert_eq!(positions.len(), n);
    let key_cols: Vec<Arc<ColumnData>> = body
        .group
        .iter()
        .map(|p| Ok(p.eval(fd, exec)?.into_column_arc(n)))
        .collect::<EngineResult<_>>()?;
    let arg_batches: Vec<Vec<Batch>> = super::eval_call_args(&body.calls, fd, exec)?;
    let mut folds: Vec<ArgFold<'_>> = body
        .calls
        .iter()
        .zip(&arg_batches)
        .map(|(c, args)| ArgFold::new(c.kind, c.distinct, args))
        .collect();

    let global = body.group.is_empty();
    // the first row of each new group, its representative
    let mut rep_rows = Vec::with_capacity(n);
    for (ri, &pos) in positions.iter().enumerate() {
        let (gid, slot) = if global {
            if !gs.have_global_rep {
                gs.have_global_rep = true;
                rep_rows.push(ri);
            }
            (0, gs.slot_of[0])
        } else {
            let h = GroupKeys::hash(&key_cols, ri);
            let group_of = &gs.group_of;
            let live = |slot: u32| group_of[slot as usize] != u32::MAX;
            let slot = match gs.keys.find(h, &key_cols, ri, live) {
                Some(slot) => slot,
                // absent, or the key of a deleted group
                None => {
                    let slot = gs.new_group(body);
                    rep_rows.push(ri);
                    gs.first_rows.push(pos);
                    gs.keys.insert(slot, h, &key_cols, ri);
                    slot
                }
            };
            record(pos, slot);
            (gs.group_of[slot as usize], slot)
        };
        if gs.touched.last() != Some(&gid) {
            gs.touched.push(gid);
        }
        for (fold, accs) in folds.iter_mut().zip(gs.accs.iter_mut()) {
            fold.update(&mut accs[slot as usize], ri)?;
        }
    }
    gs.rows += n as u64;
    // new groups take the next group ids, in the order of their first
    // rows: their representatives append in one gather per column
    if !rep_rows.is_empty() {
        for (buf, &ci) in gs.reps.iter_mut().zip(&body.rep_cols) {
            Arc::make_mut(buf).append_owned(fd.column(ci).gather(&rep_rows));
        }
    }

    // refresh the cached finish values of exactly the touched groups
    // (new groups are always touched; `touched` ascending puts their
    // pushes in group order)
    gs.touched.sort_unstable();
    gs.touched.dedup();
    let touched = std::mem::take(&mut gs.touched);
    for (accs, vals) in gs.accs.iter().zip(gs.vals.iter_mut()) {
        let col = Arc::make_mut(vals);
        for &gid in &touched {
            let v = accs[gs.slot_of[gid as usize] as usize].finish();
            if (gid as usize) < col.len() {
                col.set(gid as usize, v);
            } else {
                col.push(v);
            }
        }
    }
    gs.touched = touched;
    Ok(())
}

/// Build the extended frame (representative values ++ aggregate
/// columns, one row per group) from the live state or the merged view
/// over the shards — the incremental counterpart of the rescan path's
/// `build_ext_frame`. The maintained columns are shared by `Arc` bump,
/// so this is O(columns) on top of the per-fold O(touched-groups)
/// maintenance.
fn build_state_ext(body: &AggBody, gs: &GroupState, in_schema: &Schema) -> EngineResult<Frame> {
    let global_empty = body.group.is_empty() && gs.rows == 0;
    let n_groups = gs.n_groups as usize;
    let mut schema = Schema::default();
    let mut cols: Vec<Arc<ColumnData>> =
        Vec::with_capacity(body.rep_cols.len() + body.agg_names.len());
    for (k, &ci) in body.rep_cols.iter().enumerate() {
        schema.push(in_schema.columns()[ci].clone());
        let col = if global_empty {
            // the synthetic all-NULL representative row of the empty
            // global group, exactly like the rescan path
            Arc::new(ColumnData::from_values(vec![Value::Null]))
        } else {
            Arc::clone(&gs.reps[k])
        };
        cols.push(col);
    }
    for (vals, name) in gs.vals.iter().zip(&body.agg_names) {
        schema.push(Column::new(name.clone(), DataType::Float));
        cols.push(Arc::clone(vals));
    }
    if body.rep_cols.is_empty() && body.agg_names.is_empty() {
        return Ok(Frame::without_columns(n_groups));
    }
    Frame::from_arc_columns(schema, cols)
}

/// Re-evaluate the cached HAVING mask for exactly the `touched` groups
/// of `ext` (one row per group) and return how many groups were
/// evaluated — the dirty-set maintenance that keeps HAVING
/// `O(touched groups)` per tick. New groups extend the mask; a front
/// eviction renumbers it with the groups (see [`GroupState::retract`]),
/// leaving the refolded groups touched.
fn refresh_having_mask(
    exec: &Executor<'_>,
    having: &ExprProgram,
    ext: &Frame,
    touched: &[u32],
    mask: &mut Vec<bool>,
) -> EngineResult<u64> {
    if mask.len() < ext.len() {
        mask.resize(ext.len(), false);
    }
    if touched.is_empty() {
        return Ok(0);
    }
    let indices: Vec<usize> = touched.iter().map(|&g| g as usize).collect();
    let sub = select_rows_parallel(ext, &indices, ThreadPool::global());
    let bits = having.eval_mask(&sub, exec)?;
    for (&g, b) in indices.iter().zip(bits) {
        mask[g] = b;
    }
    Ok(indices.len() as u64)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::value::GroupKey;
    use paradise_sql::parse_query;

    #[test]
    fn groups_are_keyed_by_group_key_equality_across_buffer_types() {
        let schema = Schema::from_pairs(&[("k", DataType::Float)]);
        let mut catalog = Catalog::new();
        catalog.register("s", Frame::empty(schema.clone())).unwrap();
        let exec = Executor::new(&catalog);
        let query = parse_query("SELECT k, COUNT(*) AS n FROM s GROUP BY k").unwrap();
        let plan = exec.compile_incremental(&query).unwrap().unwrap();
        let IncKind::Grouped(body) = &plan.kind else { panic!("a grouped plan") };
        let mut gs = GroupState::new(body, &plan.in_schema);

        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let batches = [
            // an Int buffer, a Float buffer, a Mixed one
            vec![Value::Int(2), Value::Int(0), Value::Null, Value::Int(2)],
            vec![
                Value::Float(2.0),
                Value::Float(-0.0),
                Value::Float(nan),
                Value::Float(other_nan),
                Value::Float(2.5),
                Value::Null,
            ],
            vec![
                Value::Str("2".into()),
                Value::Float(2.0),
                Value::Int(0),
                Value::Float(other_nan),
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Str("2".into()),
            ],
        ];
        let mut reference: HashMap<GroupKey, u32> = HashMap::new();
        let mut first = 0;
        for (b, values) in batches.into_iter().enumerate() {
            let col = ColumnData::from_values(values.clone());
            let kind = (col.int_slice().is_some(), col.float_slice().is_some());
            assert_eq!(kind, [(true, false), (false, true), (false, false)][b]);
            let frame = Frame::from_columns(schema.clone(), vec![col]).unwrap();
            let positions: Vec<u64> = (first..first + values.len() as u64).collect();
            let mut rows = vec![u32::MAX; values.len()];
            let record = |pos: u64, slot| rows[(pos - first) as usize] = slot;
            fold_grouped(body, &mut gs, &frame, &exec, &positions, record).unwrap();
            first += values.len() as u64;
            for (v, &slot) in values.iter().zip(&rows) {
                let next = reference.len() as u32;
                let want = *reference.entry(v.group_key()).or_insert(next);
                assert_eq!(gs.group_of[slot as usize], want, "batch {b}, {v:?}");
            }
        }
        // 2 (with 2.0), 0 (with -0.0), NULL, the two NaNs, 2.5, "2", true
        assert_eq!((gs.n_groups as usize, reference.len()), (8, 8));
    }

    #[test]
    fn a_stage_shards_when_its_group_by_holds_the_partition_column() {
        let schema = Schema::from_pairs(&[("x", DataType::Integer), ("y", DataType::Integer)]);
        let mut catalog = Catalog::new();
        catalog.set_partitioning("x", 4);
        catalog.register("s", Frame::empty(schema)).unwrap();
        let exec = Executor::new(&catalog);
        for (sql, shards) in [
            ("SELECT x, y, COUNT(*) AS n FROM s GROUP BY x, y", true),
            ("SELECT x, COUNT(DISTINCT y) AS dy FROM s GROUP BY x", true),
            ("SELECT x + y AS k, COUNT(*) AS n FROM s GROUP BY x + y", false),
            ("SELECT COUNT(*) AS n, SUM(y) AS sy FROM s", false),
        ] {
            let plan = exec.compile_incremental(&parse_query(sql).unwrap()).unwrap().unwrap();
            assert_eq!(plan.partition(&catalog), shards.then_some((0, 4)), "{sql}");
        }
    }

    #[test]
    fn distinct_keys_under_one_hash_are_both_found() {
        let cols = [
            ColumnData::from_values(vec![Value::Int(1), Value::Int(1), Value::Int(1)]),
            ColumnData::from_values(["a", "b", "c"].map(|s| Value::Str(s.into())).to_vec()),
        ];
        let mut keys = GroupKeys::new(2);
        keys.insert(0, 7, &cols, 0);
        keys.insert(1, 7, &cols, 1);
        let all = |_| true;
        assert_eq!(keys.find(7, &cols, 0, all), Some(0));
        assert_eq!(keys.find(7, &cols, 1, all), Some(1));
        assert_eq!(keys.find(7, &cols, 2, all), None, "an unstored key under the hash");
        assert_eq!(keys.find(8, &cols, 0, all), None, "a stored key under another hash");
        // a dead slot reads as absent; re-chaining forgets it
        assert_eq!(keys.find(7, &cols, 0, |slot| slot != 0), None);
        keys.rechain(|slot| slot != 0);
        assert_eq!((keys.find(7, &cols, 0, all), keys.find(7, &cols, 1, all)), (None, Some(1)));
        // a freed slot takes a new key
        keys.insert(0, 7, &cols, 2);
        assert_eq!((keys.find(7, &cols, 2, all), keys.find(7, &cols, 1, all)), (Some(0), Some(1)));

        // under one hash, keys compare as `GroupKey`s: NaN payloads by
        // bits, an integral float as its integer
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let floats = [Value::Float(nan), Value::Float(other_nan), Value::Float(2.0), Value::Int(2)];
        let cols = [ColumnData::from_values(floats.to_vec())];
        let mut keys = GroupKeys::new(1);
        keys.insert(0, 7, &cols, 0);
        assert_eq!(keys.find(7, &cols, 1, all), None, "NaN payloads differ");
        keys.insert(1, 7, &cols, 1);
        assert_eq!(keys.find(7, &cols, 2, all), None, "2.0 is no NaN");
        keys.insert(2, 7, &cols, 2);
        let found: Vec<_> = (0..4).map(|ri| keys.find(7, &cols, ri, all)).collect();
        assert_eq!(found, [Some(0), Some(1), Some(2), Some(2)]);
    }
}
