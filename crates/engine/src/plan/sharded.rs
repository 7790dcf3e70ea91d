//! Partition-parallel incremental aggregation: shard the stream by a
//! hash of a declared partition key into N sub-streams, fold each
//! shard's delta on the scoped thread pool, and merge per-group
//! accumulators only at the aggregation boundary.
//!
//! Each shard owns a plain [`GroupState`] and folds exactly like the
//! serial path; a cross-shard [`MergedGroups`] view re-establishes the
//! *global* first-appearance group order (via per-group first stream
//! positions assigned pre-filter) and merges accumulators for groups
//! that span shards. Rows of one group land on one shard whenever the
//! partition key functionally determines the `GROUP BY` key — the
//! intended deployment (partition by user id, group by user id) — in
//! which case no accumulator is ever merged and results are bit-exact
//! against serial incremental execution. When a group *does* span
//! shards, moment-based accumulators ([`Accumulator::merge`]) keep
//! results exact for integer inputs and equal up to floating-point
//! re-association otherwise.
//!
//! Shapes that cannot shard — stateless append stages, global
//! aggregation, `DISTINCT` aggregate calls (not mergeable), a missing
//! key column, or `shards <= 1` — fall back to
//! [`Executor::run_incremental`] transparently, so shard count 1 stays
//! an executable serial reference path.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use minipool::ThreadPool;

use super::incremental::{
    fold_grouped, DeltaInput, GroupState, IncKind, IncrementalPlan, IncrementalRun,
    IncrementalState, SlotKey, StateData,
};
use super::{
    agg_finalize_masked, select_rows_parallel, AggBody, Executor, ExprProgram, FxHashMap,
    FxHasher, PARALLEL_MIN_ROWS,
};
use crate::column::ColumnData;
use crate::error::{EngineError, EngineResult};
use crate::eval::EvalContext;
use crate::frame::Frame;
use crate::schema::{Column, Schema};
use crate::value::{DataType, GroupKey};

/// Partition-parallel execution policy for a registered stream: route
/// rows to `shards` sub-streams by a hash of the `key` column and fold
/// each shard's delta in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Partition-key column name (resolved case-insensitively against
    /// the stream schema).
    pub key: String,
    /// Number of shards; `1` keeps the serial reference path.
    pub shards: usize,
}

impl ShardSpec {
    /// A spec for `shards`-way partitioning by `key`. The shard count
    /// is clamped to `1..=u16::MAX`.
    pub fn new(key: impl Into<String>, shards: usize) -> ShardSpec {
        ShardSpec { key: key.into(), shards: shards.clamp(1, u16::MAX as usize) }
    }
}

/// Shard ordinal of one group key: FxHash reduced modulo the shard
/// count. Uses [`GroupKey`] (not the raw value) so numerically equal
/// keys of different types land on the same shard, exactly mirroring
/// group-key equality.
fn shard_of(key: &GroupKey, shards: usize) -> u32 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
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
            *s = shard_of(&col.group_key_at(ri), shards);
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
                        *s = shard_of(&col.group_key_at(base + i), shards);
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

/// One shard's slice of a sharded grouped state: a plain serial
/// [`GroupState`] plus the map from shard-local group ids to merged
/// (global) group ids.
#[derive(Debug)]
struct ShardSlot {
    gs: GroupState,
    /// `to_merged[local gid] = merged gid`; grows in lockstep with
    /// `gs.n_groups`.
    to_merged: Vec<u32>,
}

/// Which shard-local accumulators feed one merged group.
#[derive(Debug)]
enum Owners {
    /// The common case (partition key determines the group key): the
    /// group lives on exactly one shard as `(shard, local gid)` and its
    /// cached finish value is copied, never re-merged.
    One(u16, u32),
    /// The group spans shards; finish values are recomputed by merging
    /// accumulator clones in first-appearance order.
    Many(Vec<(u16, u32)>),
}

/// The cross-shard view: merged group ids in *global* first-appearance
/// order plus the maintained extended-frame columns, mirroring what a
/// serial [`GroupState`] would hold.
#[derive(Debug)]
struct MergedGroups {
    slots: FxHashMap<SlotKey, u32>,
    n_groups: u32,
    owners: Vec<Owners>,
    /// Representative (globally first-row) values per merged group.
    reps: Vec<Arc<ColumnData>>,
    /// Cached finish values per call, refreshed for touched groups.
    vals: Vec<Arc<ColumnData>>,
    /// Cached HAVING mask over merged groups (`None` without HAVING).
    having: Option<Vec<bool>>,
    /// Merged group ids touched by the current tick (sorted, deduped).
    touched: Vec<u32>,
}

/// Partition-parallel grouped state: per-shard fold states plus the
/// merged cross-shard group view.
#[derive(Debug)]
pub(super) struct ShardedGroupedState {
    shards: Vec<ShardSlot>,
    merged: MergedGroups,
    /// Stream position (rows since the last rebuild) assigned to the
    /// next delta's first row; positions order merged group creation.
    next_pos: u64,
    /// Partition-key ordinal in the plan's input schema.
    key_col: usize,
}

impl ShardedGroupedState {
    fn new(body: &AggBody, in_schema: &Schema, shards: usize, key_col: usize) -> Self {
        ShardedGroupedState {
            shards: (0..shards)
                .map(|_| ShardSlot { gs: GroupState::new(body, in_schema), to_merged: Vec::new() })
                .collect(),
            merged: MergedGroups {
                slots: FxHashMap::default(),
                n_groups: 0,
                owners: Vec::new(),
                reps: body
                    .rep_cols
                    .iter()
                    .map(|&i| Arc::new(ColumnData::empty(in_schema.columns()[i].data_type)))
                    .collect(),
                vals: body
                    .calls
                    .iter()
                    .map(|_| Arc::new(ColumnData::empty(DataType::Float)))
                    .collect(),
                having: body.having.as_ref().map(|_| Vec::new()),
                touched: Vec::new(),
            },
            next_pos: 0,
            key_col,
        }
    }

    /// Rows folded so far across all shards (diagnostic).
    pub(super) fn rows_seen(&self) -> u64 {
        self.shards.iter().map(|s| s.gs.rows).sum()
    }
}

impl<'a> Executor<'a> {
    /// One tick of an incremental plan with partition-parallel
    /// execution per `spec`: semantics identical to
    /// [`Executor::run_incremental`] (same results, same `StalePlan` /
    /// poison-on-error contract), with the grouped fold fanned out over
    /// the shards of the partition key. Non-shardable shapes fall back
    /// to the serial path transparently.
    pub fn run_incremental_sharded(
        &self,
        plan: &IncrementalPlan,
        state: &mut IncrementalState,
        input: DeltaInput<'_>,
        spec: &ShardSpec,
    ) -> EngineResult<IncrementalRun> {
        let key_col = match plan.shard_key_col(&spec.key) {
            Some(c) if spec.shards > 1 => c,
            _ => return self.run_incremental(plan, state, input),
        };
        let IncKind::Grouped(body) = &plan.kind else {
            unreachable!("shard_key_col only resolves for grouped plans")
        };

        // 1. resolve the delta and whether the state survives (same
        // contract as the serial path; a sharded state is additionally
        // incompatible when the shard count or key column changed)
        let prev_rows = state.mark.map(|m| m.rows());
        let (mut delta, mut reset, mark) = self.resolve_delta(plan, state, input)?;
        let compatible = state.plan_fp == Some(plan.fingerprint)
            && matches!(
                &state.data,
                StateData::Sharded(ss) if ss.shards.len() == spec.shards && ss.key_col == key_col
            );
        if !compatible {
            if !reset {
                // an incompatible state (fresh, other plan, changed
                // shard routing) cannot fold a partial delta. Pushed
                // input has no full window to fall back to — signal the
                // driver to retry from a clean rebuild; source-backed
                // input rescans the full window right here.
                if mark.is_none() {
                    return Err(EngineError::StalePlan);
                }
                delta = self.table(&plan.table)?.clone();
            }
            reset = true;
        }
        let input_rows = delta.len();
        state.plan_fp = Some(plan.fingerprint);
        if reset {
            state.data = StateData::Sharded(ShardedGroupedState::new(
                body,
                &plan.in_schema,
                spec.shards,
                key_col,
            ));
        }
        let having_evals = &mut state.having_evals;
        let StateData::Sharded(ss) = &mut state.data else {
            unreachable!("reset guarantees matching state")
        };

        // 2. reuse the catalog's cached per-shard split when this
        // tick's delta is exactly the last appended batch
        let cached_split = match (&mark, reset) {
            (Some(_), false) => self
                .catalog
                .last_batch_split(&plan.table, &spec.key, spec.shards)
                .and_then(|(start, split)| {
                    let aligned = prev_rows == Some(start)
                        && split.iter().map(Vec::len).sum::<usize>() == delta.len();
                    aligned.then_some(split)
                }),
            _ => None,
        };

        // 3. parallel per-shard fold, serial merge, shared finalize
        let run = shard_fold(body, plan, ss, &delta, cached_split).and_then(|()| {
            let ext = build_merged_ext(body, &ss.merged, &plan.in_schema)?;
            if let Some(h) = &body.having {
                let mask = ss.merged.having.as_mut().expect("sharded HAVING mask allocated");
                *having_evals += refresh_having_mask(h, &ext, &ss.merged.touched, mask)?;
            }
            agg_finalize_masked(self, body, ext, ss.merged.having.as_deref())
        });
        match run {
            Ok(result) => {
                ss.next_pos += input_rows as u64;
                state.mark = mark;
                Ok(IncrementalRun { result, delta: None, reset, input_rows })
            }
            Err(e) => {
                // some shards may have folded before another erred and
                // the watermark did not advance: poison the whole state
                // (all shards at once) so the next call rebuilds
                // coherently — no partial merge is ever observable
                *state = IncrementalState::default();
                Err(e)
            }
        }
    }
}

/// Split `delta` by shard and fold every shard's rows in parallel, then
/// merge newly created groups and refresh the merged view. Error
/// reporting is deterministic: the lowest-numbered failing shard wins
/// regardless of completion order.
fn shard_fold(
    body: &AggBody,
    plan: &IncrementalPlan,
    ss: &mut ShardedGroupedState,
    delta: &Frame,
    cached_split: Option<Arc<Vec<Vec<u32>>>>,
) -> EngineResult<()> {
    let pool = ThreadPool::global();
    let n_shards = ss.shards.len();
    let base = ss.next_pos;
    let computed;
    let buckets: &[Vec<u32>] = match &cached_split {
        Some(s) => s.as_slice(),
        None => {
            computed = split_indices(delta.column(ss.key_col), n_shards, pool);
            &computed
        }
    };
    let mut results: Vec<EngineResult<()>> = Vec::with_capacity(n_shards);
    results.resize_with(n_shards, || Ok(()));
    pool.scope(|scope| {
        for ((slot, bucket), out) in
            ss.shards.iter_mut().zip(buckets).zip(results.iter_mut())
        {
            scope.spawn(move || {
                *out = fold_shard(body, plan, slot, delta, bucket, base);
            });
        }
    });
    for r in results {
        r?;
    }
    merge_new_groups(ss);
    refresh_merged(ss)
}

/// Fold one shard's delta rows: gather the bucket, assign pre-filter
/// stream positions, apply the `WHERE` program, and run the plain
/// serial fold with position tracking.
fn fold_shard(
    body: &AggBody,
    plan: &IncrementalPlan,
    slot: &mut ShardSlot,
    delta: &Frame,
    bucket: &[u32],
    base: u64,
) -> EngineResult<()> {
    if bucket.is_empty() {
        // keep per-tick scratch coherent for the merge step
        slot.gs.touched.clear();
        slot.gs.new_keys.clear();
        return Ok(());
    }
    let indices: Vec<usize> = bucket.iter().map(|&i| i as usize).collect();
    let sub = delta.select_rows(&indices);
    let mut positions: Vec<u64> = bucket.iter().map(|&i| base + i as u64).collect();
    let ctx = EvalContext { schema: &plan.in_schema, subquery: None };
    let fd = match &plan.filter {
        Some(p) => {
            let mask = p.eval_mask(&sub, &ctx)?;
            let mut kept = Vec::with_capacity(positions.len());
            for (&pos, &keep) in positions.iter().zip(&mask) {
                if keep {
                    kept.push(pos);
                }
            }
            positions = kept;
            sub.filter_rows(&mask)
        }
        None => sub,
    };
    fold_grouped(body, &mut slot.gs, &fd, &ctx, Some(&positions))
}

/// Insert the groups created by this tick's folds into the merged map,
/// in ascending order of their first (pre-filter) stream position — the
/// exact order a serial fold over the un-split delta would have created
/// them in, so merged group ids match the serial path's.
fn merge_new_groups(ss: &mut ShardedGroupedState) {
    let bases: Vec<usize> = ss.shards.iter().map(|s| s.to_merged.len()).collect();
    let mut created: Vec<(u64, u16, u32)> = Vec::new();
    for (si, slot) in ss.shards.iter().enumerate() {
        for lg in bases[si]..slot.gs.n_groups as usize {
            created.push((slot.gs.first_rows[lg], si as u16, lg as u32));
        }
    }
    created.sort_unstable();
    let merged = &mut ss.merged;
    for (_, si, lg) in created {
        let (si_us, lg_us) = (si as usize, lg as usize);
        let key = ss.shards[si_us].gs.new_keys[lg_us - bases[si_us]].clone();
        use std::collections::hash_map::Entry;
        match merged.slots.entry(key) {
            Entry::Occupied(e) => {
                // the key hashes to one shard, so a second owner can
                // only appear after a shard-count change rebuilt the
                // routing — still handled exactly
                let mg = *e.get();
                match &mut merged.owners[mg as usize] {
                    Owners::Many(list) => list.push((si, lg)),
                    one => {
                        let Owners::One(s0, g0) = *one else { unreachable!() };
                        *one = Owners::Many(vec![(s0, g0), (si, lg)]);
                    }
                }
                ss.shards[si_us].to_merged.push(mg);
            }
            Entry::Vacant(e) => {
                let mg = merged.n_groups;
                merged.n_groups += 1;
                e.insert(mg);
                merged.owners.push(Owners::One(si, lg));
                for (buf, shard_rep) in merged.reps.iter_mut().zip(&ss.shards[si_us].gs.reps) {
                    Arc::make_mut(buf).push(shard_rep.value(lg_us));
                }
                ss.shards[si_us].to_merged.push(mg);
            }
        }
    }
}

/// Refresh the merged touched set and the cached finish values of
/// exactly the merged groups touched by this tick's folds.
fn refresh_merged(ss: &mut ShardedGroupedState) -> EngineResult<()> {
    let merged = &mut ss.merged;
    merged.touched.clear();
    for slot in &ss.shards {
        for &lg in &slot.gs.touched {
            merged.touched.push(slot.to_merged[lg as usize]);
        }
    }
    merged.touched.sort_unstable();
    merged.touched.dedup();
    let shards = &ss.shards;
    for (ci, vals) in merged.vals.iter_mut().enumerate() {
        let col = Arc::make_mut(vals);
        for &mg in &merged.touched {
            let v = match &merged.owners[mg as usize] {
                Owners::One(s, g) => shards[*s as usize].gs.vals[ci].value(*g as usize),
                Owners::Many(list) => {
                    let (s0, g0) = list[0];
                    let mut acc = shards[s0 as usize].gs.accs[ci][g0 as usize].clone();
                    for &(s, g) in &list[1..] {
                        acc.merge(&shards[s as usize].gs.accs[ci][g as usize])?;
                    }
                    acc.finish()
                }
            };
            // touched is ascending and new merged gids are contiguous
            // at the tail, so pushes land in group order
            if (mg as usize) < col.len() {
                col.set(mg as usize, v);
            } else {
                col.push(v);
            }
        }
    }
    Ok(())
}

/// Build the extended frame (representatives ++ aggregate columns, one
/// row per merged group) from the maintained merged columns — the
/// sharded counterpart of the serial path's `build_state_ext`.
/// O(columns): the column buffers are shared by `Arc` bump.
fn build_merged_ext(
    body: &AggBody,
    merged: &MergedGroups,
    in_schema: &Schema,
) -> EngineResult<Frame> {
    let n_groups = merged.n_groups as usize;
    let mut schema = Schema::default();
    let mut cols: Vec<Arc<ColumnData>> =
        Vec::with_capacity(body.rep_cols.len() + body.agg_names.len());
    for (k, &ci) in body.rep_cols.iter().enumerate() {
        schema.push(in_schema.columns()[ci].clone());
        cols.push(Arc::clone(&merged.reps[k]));
    }
    for (vals, name) in merged.vals.iter().zip(&body.agg_names) {
        schema.push(Column::new(name.clone(), DataType::Float));
        cols.push(Arc::clone(vals));
    }
    if body.rep_cols.is_empty() && body.agg_names.is_empty() {
        return Ok(Frame::from_rows(schema, vec![Vec::new(); n_groups]));
    }
    Frame::from_arc_columns(schema, cols)
}

/// Re-evaluate the cached HAVING mask for exactly the `touched` groups
/// of `ext` (one row per group) and return how many groups were
/// evaluated — the dirty-set maintenance shared by the serial and
/// sharded incremental paths that keeps HAVING `O(touched groups)` per
/// tick. The mask only ever grows: groups are never removed from a
/// live state.
pub(super) fn refresh_having_mask(
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
    // incremental HAVING programs are subquery-free by construction
    // (`compile_incremental` rejects them), so no subquery executor
    let ctx = EvalContext { schema: &ext.schema, subquery: None };
    let bits = having.eval_mask(&sub, &ctx)?;
    for (&g, b) in indices.iter().zip(bits) {
        mask[g] = b;
    }
    Ok(indices.len() as u64)
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
    fn sharded_matches_serial_and_rescan_across_ticks() {
        let sql = "SELECT uid, COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av, MIN(v) AS lo \
                   FROM s WHERE v >= -400 GROUP BY uid HAVING SUM(v) > -2000 \
                   ORDER BY uid";
        let batches: Vec<Frame> = (0..5).map(|i| batch(&gen_rows(i, 200, 23))).collect();
        for shards in [1usize, 2, 4, 64] {
            let spec = ShardSpec::new("uid", shards);
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
                let sharded = ex_a
                    .run_incremental_sharded(&plan_a, &mut st_sharded, DeltaInput::Source, &spec)
                    .unwrap();
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
        let spec = ShardSpec::new("uid", 8);
        let mut st = IncrementalState::new();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental_sharded(&plan, &mut st, DeltaInput::Source, &spec).unwrap();
        }
        let after_seed = st.having_groups_evaluated();
        assert_eq!(after_seed, 1000, "rebuild evaluates every group once");
        for i in 0..20 {
            cat.append("s", batch(&[(i % 7, 5)])).unwrap();
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental_sharded(&plan, &mut st, DeltaInput::Source, &spec).unwrap();
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
        let spec = ShardSpec::new("uid", 4);
        let mut st = IncrementalState::new();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            ex.run_incremental_sharded(&plan, &mut st, DeltaInput::Source, &spec).unwrap();
        }
        assert_eq!(st.rows_seen(), 50);
        cat.append("s", bad).unwrap();
        {
            let ex = Executor::new(&cat);
            let plan = ex.compile_incremental(&q).unwrap().unwrap();
            assert!(ex
                .run_incremental_sharded(&plan, &mut st, DeltaInput::Source, &spec)
                .is_err());
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
        let run = ex
            .run_incremental_sharded(&plan, &mut st, DeltaInput::Source, &spec)
            .unwrap();
        assert!(run.reset);
        assert_eq!(run.result.len(), 3);
    }
}
