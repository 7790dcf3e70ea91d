//! The grouped state of an incremental aggregation: one fold state per
//! shard of the stream, and a merged view over them.
//!
//! A catalog partitioned N ways by a key ([`Catalog::set_partitioning`])
//! routes every row to a shard by a hash of the key: the hash of its
//! borrowed cell, bitwise the hash of its owned `GroupKey`, so no key is
//! built per row. A grouped stage shards when one of its `GROUP BY`
//! expressions is exactly the key column (see
//! [`IncrementalPlan::partition`]): rows with equal group keys then have
//! equal partition keys, so every group lives on exactly one shard — the
//! intended deployment, partition by user id and group by user id. Its
//! state keeps N plain [`GroupState`]s and folds each shard's delta on
//! the scoped thread pool. Any other stage is the N = 1 case: one shard,
//! folded on the calling thread over the whole delta, with no merged
//! view.
//!
//! Every N retracts a front eviction the same way: each shard retracts
//! its own retained rows ([`GroupState::retract`]), found through the
//! state's record of each retained row's slot and, for N > 1, shard.
//!
//! For N > 1 a [`MergedGroups`] view lays the shards' groups out in the
//! *global* first-appearance order (via per-group first stream positions
//! assigned pre-filter) and copies their cached finish values, so
//! results are identical to one shard's. A fold appends the shards' new
//! groups and copies the touched ones; a retraction renumbers the
//! shards' groups, so after one the view is rebuilt from the shards in
//! O(groups).
//!
//! [`Catalog::set_partitioning`]: crate::Catalog::set_partitioning

use std::hash::Hasher;
use std::sync::Arc;

use minipool::ThreadPool;

use super::incremental::{filter_delta, fold_grouped, GroupState, IncrementalPlan};
use super::{AggBody, FxHasher, PARALLEL_MIN_ROWS};
use crate::column::ColumnData;
use crate::error::EngineResult;
use crate::exec::Executor;
use crate::frame::Frame;
use crate::schema::Schema;

/// Shard ordinal of cell `ri` of `col`: the FxHash of its borrowed
/// [`GroupKey`] reduced modulo the shard count. Keyed like the groups,
/// so numerically equal keys of different types land on the same shard.
///
/// [`GroupKey`]: crate::value::GroupKey
fn shard_of(col: &ColumnData, ri: usize, shards: usize) -> u32 {
    let mut h = FxHasher::default();
    col.hash_key_at(ri, &mut h);
    (h.finish() % shards as u64) as u32
}

/// Row indices of `col` bucketed by shard: `buckets[s]` holds the rows
/// routed to shard `s`, each in ascending order. Hashing is
/// chunk-parallel over the pool; the bucket scatter is serial (cheap
/// relative to hashing, and keeps per-bucket order deterministic).
pub(crate) fn split_indices(col: &ColumnData, shards: usize, pool: &ThreadPool) -> Vec<Vec<u32>> {
    let n = col.len();
    let mut sid = vec![0u32; n];
    let ranges = pool.chunk_ranges(n, PARALLEL_MIN_ROWS);
    if ranges.len() <= 1 {
        for (ri, s) in sid.iter_mut().enumerate() {
            *s = shard_of(col, ri, shards);
        }
    } else {
        pool.scope(|scope| {
            let mut rest: &mut [u32] = &mut sid;
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let base = range.start;
                scope.spawn(move || {
                    for (i, s) in chunk.iter_mut().enumerate() {
                        *s = shard_of(col, base + i, shards);
                    }
                });
            }
        });
    }
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for (ri, &s) in sid.iter().enumerate() {
        buckets[s as usize].push(ri as u32);
    }
    buckets
}

/// The state of a grouped incremental stage: one [`GroupState`] per
/// shard, and the merged view over them when there is more than one.
#[derive(Debug)]
pub(super) struct GroupedState {
    shards: Vec<GroupState>,
    /// `Some` exactly when there is more than one shard (boxed: one
    /// shard carries no merged view, and its state stays small).
    merged: Option<Box<MergedGroups>>,
    /// Stream position (input rows since the last rebuild, pre-filter)
    /// of the next delta's first row; positions order group creation.
    next_pos: u64,
    /// Input rows evicted from the front since the last rebuild: the
    /// position of the first retained row.
    evicted: u64,
    /// Grouped (not global) aggregation: the slot of each retained input
    /// row's group on its shard (`u32::MAX` where the `WHERE` dropped
    /// it), from position `evicted` on — what a front eviction refolds
    /// from.
    row_groups: Vec<u32>,
}

/// The cross-shard view of a partitioned grouped state.
#[derive(Debug)]
struct MergedGroups {
    /// The merged groups in *global* first-appearance order, held the
    /// way one shard would hold them — representatives, cached finish
    /// values, HAVING mask, touched set — except that the keys and
    /// accumulators stay with the shards, so its own stay empty.
    groups: GroupState,
    /// `to_merged[shard][local gid] = merged gid`; grows in lockstep
    /// with each shard's `n_groups`.
    to_merged: Vec<Vec<u32>>,
    /// The shard of each row of [`GroupedState::row_groups`]
    /// (`u16::MAX` where the `WHERE` dropped it): slots are
    /// shard-local, so a shard retracts only the rows marked its own.
    row_shards: Vec<u16>,
    /// Partition-key ordinal in the plan's input schema.
    key_col: usize,
}

impl GroupedState {
    /// An empty state: `partition` is `(key column, shards)` as
    /// [`IncrementalPlan::partition`] resolves it, `None` for one shard.
    pub(super) fn new(
        body: &AggBody,
        in_schema: &Schema,
        partition: Option<(usize, usize)>,
    ) -> Self {
        let shard = || {
            let mut gs = GroupState::new(body, in_schema);
            // the merged view keeps the HAVING mask
            gs.having = gs.having.filter(|_| partition.is_none());
            gs
        };
        GroupedState {
            shards: (0..partition.map_or(1, |(_, shards)| shards)).map(|_| shard()).collect(),
            merged: partition.map(|(key_col, shards)| {
                Box::new(MergedGroups {
                    groups: GroupState::new(body, in_schema),
                    to_merged: vec![Vec::new(); shards],
                    row_shards: Vec::new(),
                    key_col,
                })
            }),
            next_pos: 0,
            evicted: 0,
            row_groups: Vec::new(),
        }
    }

    /// The `(key column, shards)` the state routes by, `None` for one
    /// shard.
    pub(super) fn partition(&self) -> Option<(usize, usize)> {
        self.merged.as_ref().map(|m| (m.key_col, self.shards.len()))
    }

    /// Forget every group on every shard and in the merged view, and
    /// keep all their buffers (see [`GroupState::clear`]).
    pub(super) fn clear(&mut self, body: &AggBody) {
        for gs in &mut self.shards {
            gs.clear(body);
        }
        if let Some(m) = &mut self.merged {
            m.groups.clear(body);
            m.to_merged.iter_mut().for_each(Vec::clear);
            m.row_shards.clear();
        }
        self.next_pos = 0;
        self.evicted = 0;
        self.row_groups.clear();
    }

    /// Input rows the state covers: appended since the last rebuild,
    /// less those evicted.
    pub(super) fn retained(&self) -> u64 {
        self.next_pos - self.evicted
    }

    /// Rows folded so far across all shards (diagnostic).
    pub(super) fn rows_seen(&self) -> u64 {
        self.shards.iter().map(|gs| gs.rows).sum()
    }

    /// Fold one tick and return the groups the stage's result is built
    /// from — the one shard's, or the merged view brought up to date —
    /// with how many groups the retraction reached and how many retained
    /// rows it refolded.
    ///
    /// `retract` is `(evicted, input)`: first retract the `evicted`
    /// input rows at the front, refolding straddling groups from
    /// `input`, the retained input (see [`GroupState::retract`]). Then
    /// fold the unfiltered `delta`; `split` is the catalog's per-shard
    /// split of it, when it has one. Error reporting is deterministic:
    /// the lowest-numbered failing shard wins regardless of completion
    /// order.
    pub(super) fn fold(
        &mut self,
        body: &AggBody,
        plan: &IncrementalPlan,
        delta: Frame,
        exec: &Executor<'_>,
        split: Option<Arc<Vec<Vec<u32>>>>,
        retract: Option<(u64, &Frame)>,
    ) -> EngineResult<(&mut GroupState, u64, usize)> {
        let base = self.next_pos;
        self.next_pos += delta.len() as u64;
        if let Some((evicted, _)) = retract {
            self.row_groups.drain(..evicted as usize);
            if let Some(m) = &mut self.merged {
                m.row_shards.drain(..evicted as usize);
            }
            self.evicted += evicted;
        }
        let cut = retract.map(|(_, input)| (input, self.evicted));
        // the delta's rows are recorded after the retained ones; global
        // aggregation keeps no record (it rebuilds on an eviction)
        let kept = self.row_groups.len();
        if !body.group.is_empty() {
            self.row_groups.resize((self.next_pos - self.evicted) as usize, u32::MAX);
        }
        let (old, new) = self.row_groups.split_at_mut(kept);
        let Some(m) = &mut self.merged else {
            let gs = &mut self.shards[0];
            let cut = cut.map(|(input, cut)| (input, cut, old.iter().copied().enumerate()));
            let positions = base..self.next_pos;
            let record = |pos: u64, slot| new[(pos - base) as usize] = slot;
            let (reached, refolded) =
                fold_shard(body, plan, exec, gs, cut, delta, positions, record)?;
            return Ok((gs, reached, refolded));
        };
        m.row_shards.resize(kept + new.len(), u16::MAX);
        let pool = ThreadPool::global();
        let computed;
        let buckets: &[Vec<u32>] = match &split {
            Some(s) => s.as_slice(),
            None => {
                computed = split_indices(delta.column(m.key_col), self.shards.len(), pool);
                &computed
            }
        };
        // per shard: what its retraction reached and refolded, and the
        // position and slot of each row it folded
        type Folded = EngineResult<((u64, usize), Vec<(u64, u32)>)>;
        let mut results: Vec<Folded> = Vec::with_capacity(self.shards.len());
        results.resize_with(self.shards.len(), || Ok(((0, 0), Vec::new())));
        // on a trim, each shard's retained rows and their slots, found
        // in one pass: slots are shard-local, so a shard sees only its own
        let mut own: Vec<Vec<(u32, u32)>> = Vec::new();
        if cut.is_some() {
            let mut counts = vec![0; self.shards.len()];
            for &s in &m.row_shards[..kept] {
                if let Some(count) = counts.get_mut(s as usize) {
                    *count += 1;
                }
            }
            own = counts.into_iter().map(Vec::with_capacity).collect();
            for (ri, (&slot, &s)) in old.iter().zip(&m.row_shards).enumerate() {
                if let Some(rows) = own.get_mut(s as usize) {
                    rows.push((ri as u32, slot));
                }
            }
        }
        let delta = &delta;
        pool.scope(|scope| {
            let shards = self.shards.iter_mut().zip(buckets).zip(results.iter_mut());
            for (si, ((gs, bucket), out)) in shards.enumerate() {
                let own = own.get(si).map_or(&[][..], Vec::as_slice);
                scope.spawn(move || {
                    if bucket.is_empty() && cut.is_none() {
                        gs.touched.clear();
                        return;
                    }
                    let own = own.iter().map(|&(ri, slot)| (ri as usize, slot));
                    let cut = cut.map(|(input, cut)| (input, cut, own));
                    let indices: Vec<usize> = bucket.iter().map(|&i| i as usize).collect();
                    let positions = bucket.iter().map(|&i| base + i as u64);
                    let mut folded = Vec::with_capacity(bucket.len());
                    let record = |pos, slot| folded.push((pos, slot));
                    let rows = delta.select_rows(&indices);
                    *out = fold_shard(body, plan, exec, gs, cut, rows, positions, record)
                        .map(|retracted| (retracted, folded));
                });
            }
        });
        let (mut reached, mut refolded) = (0, 0);
        for (si, result) in results.into_iter().enumerate() {
            let ((r, f), folded) = result?;
            (reached, refolded) = (reached + r, refolded + f);
            for (pos, slot) in folded {
                let at = (pos - base) as usize;
                new[at] = slot;
                m.row_shards[kept + at] = si as u16;
            }
        }
        m.refresh(body, &self.shards, reached > 0);
        Ok((&mut m.groups, reached, refolded))
    }
}

/// One shard's step of a tick: retract the rows before the cut, apply
/// the `WHERE` program to `rows`, whose stream positions `positions`
/// gives, fold the rows that pass, and hand each folded row's position
/// and slot to `record`.
///
/// `cut` is `(input, cut, own)`: the retained input, whose row 0 is at
/// position `cut`, and the index in `input` and the slot of each
/// retained row of this shard. Returns how many groups the retraction
/// reached and how many rows it refolded.
#[allow(clippy::too_many_arguments)]
fn fold_shard(
    body: &AggBody,
    plan: &IncrementalPlan,
    exec: &Executor<'_>,
    gs: &mut GroupState,
    cut: Option<(&Frame, u64, impl Iterator<Item = (usize, u32)>)>,
    rows: Frame,
    positions: impl Iterator<Item = u64>,
    record: impl FnMut(u64, u32),
) -> EngineResult<(u64, usize)> {
    gs.touched.clear();
    gs.drop_dead_keys();
    let retracted = match cut {
        Some((input, cut, own)) => gs.retract(body, exec, input, cut, own)?,
        None => (0, 0),
    };
    let (fd, mask) = filter_delta(plan, rows, exec)?;
    let mut kept = Vec::with_capacity(fd.len());
    match mask {
        Some(mask) => kept.extend(positions.zip(mask).filter_map(|(pos, k)| k.then_some(pos))),
        None => kept.extend(positions),
    }
    fold_grouped(body, gs, &fd, exec, &kept, record)?;
    Ok(retracted)
}

impl MergedGroups {
    /// Bring the view up to date with this tick's folds: append the
    /// shards' new groups in ascending order of their first (pre-filter)
    /// stream position — the order one fold over the un-split delta
    /// would have created them in, so merged group ids match one
    /// shard's — and copy the touched groups' finish values. After a
    /// retraction, which renumbers the shards' groups, rebuild the view
    /// from the shards instead and mark every group touched.
    fn refresh(&mut self, body: &AggBody, shards: &[GroupState], retracted: bool) {
        let groups = &mut self.groups;
        if retracted {
            groups.clear(body);
            self.to_merged.iter_mut().for_each(Vec::clear);
        }
        let old = groups.n_groups;
        let new = shards.iter().zip(&self.to_merged).map(|(gs, m)| gs.n_groups as usize - m.len());
        let mut created: Vec<(u64, u16, u32)> = Vec::with_capacity(new.sum());
        for (si, (gs, to_merged)) in shards.iter().zip(&self.to_merged).enumerate() {
            for lg in to_merged.len()..gs.n_groups as usize {
                created.push((gs.first_rows[lg], si as u16, lg as u32));
            }
        }
        created.sort_unstable();
        for (_, si, lg) in created {
            let shard = &shards[si as usize];
            let cells = groups.reps.iter_mut().zip(&shard.reps);
            for (buf, shard_buf) in cells.chain(groups.vals.iter_mut().zip(&shard.vals)) {
                Arc::make_mut(buf).push(shard_buf.value(lg as usize));
            }
            self.to_merged[si as usize].push(groups.n_groups);
            groups.n_groups += 1;
        }
        groups.touched.clear();
        if retracted {
            groups.touched.extend(0..groups.n_groups);
            return;
        }
        for (gs, to_merged) in shards.iter().zip(&self.to_merged) {
            groups.touched.extend(gs.touched.iter().map(|&lg| to_merged[lg as usize]));
        }
        // the new groups took their values above
        for (ci, vals) in groups.vals.iter_mut().enumerate() {
            let col = Arc::make_mut(vals);
            for (gs, to_merged) in shards.iter().zip(&self.to_merged) {
                for &lg in &gs.touched {
                    let mg = to_merged[lg as usize];
                    if mg < old {
                        col.set(mg as usize, gs.vals[ci].value(lg as usize));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DeltaInput, IncrementalState};
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::Executor;
    use crate::frame::Frame;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};
    use paradise_sql::parse_query;

    fn batch(rows: &[(i64, i64)]) -> Frame {
        let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
        let data =
            rows.iter().map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]).collect();
        Frame::new(schema, data).unwrap()
    }

    fn gen_rows(seed: u64, n: usize, users: i64) -> Vec<(i64, i64)> {
        // splitmix64-ish deterministic generator (no external RNG)
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let u = (next() % users as u64) as i64;
                let v = (next() % 1000) as i64 - 500;
                (u, v)
            })
            .collect()
    }

    #[test]
    fn split_indices_cover_all_rows_once() {
        let f = batch(&gen_rows(7, 500, 37));
        for shards in [1usize, 4, 64] {
            let buckets = split_indices(f.column(0), shards, ThreadPool::global());
            assert_eq!(buckets.len(), shards);
            let mut seen: Vec<u32> = buckets.iter().flatten().copied().collect();
            assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 500);
            seen.sort_unstable();
            assert_eq!(seen, (0..500).collect::<Vec<u32>>());
            // buckets keep ascending row order
            for b in &buckets {
                assert!(b.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn shards_route_as_the_owned_group_key_hashes() {
        use std::hash::Hash;
        // the routing as it hashed an owned `GroupKey` per row
        let by_group_key = |col: &ColumnData, ri: usize, shards: usize| {
            let mut h = FxHasher::default();
            col.group_key_at(ri).hash(&mut h);
            (h.finish() % shards as u64) as u32
        };
        let col = ColumnData::from_values(vec![
            Value::Int(7),
            Value::Float(7.0),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(f64::from_bits(f64::NAN.to_bits() ^ 1)),
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Str("7".into()),
            Value::Str(String::new()),
            Value::Int(-3),
            Value::Float(1e300),
        ]);
        for shards in [2usize, 4, 7, 64] {
            for ri in 0..col.len() {
                let want = by_group_key(&col, ri, shards);
                assert_eq!(shard_of(&col, ri, shards), want, "row {ri}, {shards} shards");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_and_rescan_across_ticks() {
        let sql = "SELECT uid, COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av, MIN(v) AS lo \
                   FROM s WHERE v >= -400 GROUP BY uid HAVING SUM(v) > -2000 \
                   ORDER BY uid";
        let batches: Vec<Frame> = (0..5).map(|i| batch(&gen_rows(i, 200, 23))).collect();
        for shards in [1usize, 2, 4, 64] {
            let mut cat_a = Catalog::new();
            cat_a.set_partitioning("uid", shards);
            cat_a.register("s", batch(&[])).unwrap();
            let mut cat_b = Catalog::new();
            cat_b.register("s", batch(&[])).unwrap();
            let mut st_sharded = IncrementalState::new();
            let mut st_serial = IncrementalState::new();
            for b in &batches {
                cat_a.append("s", b.clone()).unwrap();
                cat_b.append("s", b.clone()).unwrap();
                let q = parse_query(sql).unwrap();
                let ex_a = Executor::new(&cat_a);
                let plan_a = ex_a.compile_incremental(&q).unwrap().unwrap();
                let sharded =
                    ex_a.run_incremental(&plan_a, &mut st_sharded, DeltaInput::Source).unwrap();
                let ex_b = Executor::new(&cat_b);
                let plan_b = ex_b.compile_incremental(&q).unwrap().unwrap();
                let serial = ex_b
                    .run_incremental(&plan_b, &mut st_serial, DeltaInput::Source)
                    .unwrap();
                let rescan = ex_b.execute(&q).unwrap();
                assert_eq!(
                    sharded.result.to_rows(),
                    serial.result.to_rows(),
                    "shards={shards}: sharded != serial"
                );
                assert_eq!(
                    sharded.result.to_rows(),
                    rescan.to_rows(),
                    "shards={shards}: sharded != rescan"
                );
            }
        }
    }

    #[test]
    fn sharded_having_mask_is_touched_bounded() {
        // 1000 groups seeded, then ticks touching a single group each:
        // the HAVING evaluation count must grow by ~1 per tick, not by
        // the total group count
        let mut cat = Catalog::new();
        cat.set_partitioning("uid", 8);
        let seed: Vec<(i64, i64)> = (0..1000).map(|u| (u, 1)).collect();
        cat.register("s", batch(&seed)).unwrap();
        let q = parse_query("SELECT uid, SUM(v) AS sv FROM s GROUP BY uid HAVING SUM(v) > 1")
            .unwrap();
        let mut st = IncrementalState::new();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
        }
        let after_seed = st.having_groups_evaluated();
        assert_eq!(after_seed, 1000, "rebuild evaluates every group once");
        for i in 0..20 {
            cat.append("s", batch(&[(i % 7, 5)])).unwrap();
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
        }
        assert_eq!(
            st.having_groups_evaluated(),
            after_seed + 20,
            "each single-group tick must re-evaluate exactly one group"
        );
    }

    #[test]
    fn sharded_error_poisons_all_shards_coherently() {
        // SUM over text: NULL-only batch folds fine, a non-numeric
        // value then errors mid-fold on one shard — the whole state
        // must poison and the next tick rebuild from scratch
        let schema =
            Schema::from_pairs(&[("uid", DataType::Integer), ("w", DataType::Text)]);
        let ok = Frame::new(
            schema.clone(),
            (0..50).map(|i| vec![Value::Int(i), Value::Null]).collect(),
        )
        .unwrap();
        let bad = Frame::new(
            schema.clone(),
            vec![vec![Value::Int(3), Value::Str("boom".into())]],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.set_partitioning("uid", 4);
        cat.register("s", ok).unwrap();
        let q = parse_query("SELECT uid, SUM(w) AS sw FROM s GROUP BY uid ORDER BY uid").unwrap();
        let mut st = IncrementalState::new();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
        }
        assert_eq!(st.rows_seen(), 50);
        cat.append("s", bad).unwrap();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            assert!(ex.run_incremental(&plan, &mut st, DeltaInput::Source).is_err());
        }
        // poisoned: no partial fold survives
        assert_eq!(st.rows_seen(), 0);
        // replacing the table with clean data recovers via rebuild
        let clean = Frame::new(
            schema,
            (0..10).map(|i| vec![Value::Int(i % 3), Value::Null]).collect(),
        )
        .unwrap();
        cat.register_or_replace("s", clean);
        let ex = Executor::new(&cat);
        let plan = ex.compile_incremental(&parse_query(
            "SELECT uid, SUM(w) AS sw FROM s GROUP BY uid ORDER BY uid",
        ).unwrap())
        .unwrap()
        .unwrap();
        let run = ex.run_incremental(&plan, &mut st, DeltaInput::Source).unwrap();
        assert!(run.reset);
        assert_eq!(run.result.len(), 3);
    }
}
