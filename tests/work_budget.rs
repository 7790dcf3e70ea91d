//! Work budgets that do not drift: the allocation count of a steady
//! resident tick, pinned as a ceiling per query shape, of the tick
//! after a retention trim at 1 and at 4 shards, of a tick whose
//! 500-row release the postprocessor anonymises, and of the mutations
//! around them (ingest, in memory and durable; a snapshot; register; a
//! policy swap). The flat tick's
//! count must also not grow with the batch: its medians after 250-,
//! 500- and 1 000-row batches lie within 5 % of each other; nor must
//! the snapshot's with the window: its medians over 25k- and 100k-row
//! windows lie within 5 % of each other. A
//! counting global allocator — in this test binary only — counts
//! `alloc` and `realloc` calls. The count depends on the
//! code and the seeded input, not on the machine, so it catches
//! per-call work that timing on a noisy box cannot resolve. A lone
//! handle ticks on the calling thread, so the count is the same at
//! every `PARADISE_THREADS`.
//!
//! `PARADISE_THREADS=1 cargo test --test work_budget -- --nocapture`
//! prints the counts. A change that lowers one lowers its ceiling too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use paradise::core::AnonDecision;
use paradise::prelude::*;

/// The system allocator, counting the calls that allocate.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

const FLAT: &str = "SELECT x, y, z, t FROM stream";

/// (query, stream shards, ceiling on the median allocations per steady
/// tick): the flat projection (rewritten to the grouped aggregation, 3
/// stages), the paper query (4 stages), and the flat projection over a
/// stream partitioned 4 ways by `x`, whose grouped stage folds per shard
/// into the merged view. Each ceiling is the measured median plus 5 %.
const SHAPES: &[(&str, usize, u64)] = &[(FLAT, 1, 231), (PAPER_ORIGINAL, 1, 264), (FLAT, 4, 376)];

/// Ceiling on the median allocations per steady scoped tick of one of
/// two resident flat projections (the measured median plus 5 %).
const SCOPED_TICK: u64 = 229;

/// (stream shards, ceiling on the median allocations per tick of the
/// flat projection right after a batched retention trim of its 10k-row
/// window): the stages retract the evicted rows, at 4 shards each shard
/// its own, and the merged view is rebuilt. Each ceiling is the
/// measured median plus 5 %.
const TRIM_TICKS: [(usize, u64); 2] = [(1, 299), (4, 564)];

/// A per-user `SUM` policy: `uid` is released, `v` only as `SUM(v)` per
/// `uid`, for users whose sum passes 50.
const USERS_SUM_POLICY: &str = r#"<module module_ID="UserSums">
  <attributeList>
    <attribute name="uid"><allow>true</allow></attribute>
    <attribute name="v">
      <allow>true</allow>
      <aggregation>
        <aggregationType>SUM</aggregationType>
        <groupBy>uid</groupBy>
        <having>SUM(v)&gt;50</having>
      </aggregation>
    </attribute>
  </attributeList>
</module>"#;

/// Users in the per-user shape's stream.
const USERS: u64 = 500;

/// Ceiling on the median allocations per steady tick of `SELECT uid, v
/// FROM stream` under [`USERS_SUM_POLICY`] over 500 users (about 5 %
/// over the measured median): a ~500-row release that the postprocessor
/// anonymises (QID detection, then Mondrian on the sums).
const USERS_SUM_TICK: u64 = 806;

fn stream(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

/// Ceilings on the median allocations inside one mutation call:
/// `ingest` of a 500-row batch in memory (the two owned names a command
/// may carry, nothing more) and durable (the log record owns the
/// names, and its body encodes straight into the commit buffer);
/// `register` of the paper query; `set_policy` over three resident flat
/// projections.
const INGEST: u64 = 4;
const DURABLE_INGEST: u64 = 11;
const REGISTER: u64 = 287;
const SET_POLICY: u64 = 517;

/// `f`'s result and the allocations made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The Figure 4 policy over a 100k-row window that is never trimmed and
/// partitioned `shards` ways by `x`, with `sql` registered and ticked
/// once; durable in `dir` when given.
fn resident(sql: &str, shards: usize, dir: Option<&Path>) -> Runtime {
    let rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(10_000_000)
        .with_partitioning("x", shards);
    let mut rt = match dir {
        Some(dir) => rt.with_snapshot_every(0).durable(dir).unwrap(),
        None => rt,
    };
    rt.install_source("motion-sensor", "stream", stream(1, 10_000)).unwrap();
    rt.register("ActionFilter", &parse_query(sql).unwrap()).unwrap();
    rt.tick().unwrap();
    rt
}

/// Allocations inside each of 30 steady ticks of `sql` over `shards`
/// shards, each after a 500-row batch.
fn allocations_per_tick(sql: &str, shards: usize) -> Vec<u64> {
    let mut rt = resident(sql, shards, None);
    (0..30)
        .map(|i| {
            rt.ingest("motion-sensor", "stream", stream(100 + i, 50)).unwrap();
            let (ticked, n) = allocations(|| rt.tick());
            ticked.unwrap();
            n
        })
        .collect()
}

/// Batch sizes, in steps of the stream (10 rows each), of the
/// batch-size shape: 250-, 500- and 1 000-row batches.
const BATCH_STEPS: [usize; 3] = [25, 50, 100];

/// Allocations inside each of 30 steady ticks of the flat projection
/// with the anonymiser off, each after a batch of `steps` steps. The
/// grouped fold keys a row's group without building a key, so its
/// allocations do not grow with the batch. The anonymiser is off
/// because in this never-trimmed window its release grows with the
/// batch (84 → 141 rows between 750- and 900-row batches) and it
/// allocates per released row: that is the release's cost, not the
/// fold's.
fn allocations_per_tick_after(steps: usize) -> Vec<u64> {
    let options = RuntimeOptions { anon: AnonStrategy::None, ..Default::default() };
    let mut rt = resident(FLAT, 1, None).with_options(options);
    rt.tick().unwrap();
    (0..30)
        .map(|i| {
            rt.ingest("motion-sensor", "stream", stream(100 + i, steps)).unwrap();
            let (ticked, n) = allocations(|| rt.tick());
            ticked.unwrap();
            n
        })
        .collect()
}

/// The median of `counts`.
fn median(mut counts: Vec<u64>) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// Allocations inside each of 30 steady ticks that name one of two
/// resident flat projections, each after a 500-row batch.
fn allocations_per_scoped_tick() -> Vec<u64> {
    let mut rt = resident(FLAT, 1, None);
    let named = rt.register("ActionFilter", &parse_query(FLAT).unwrap()).unwrap();
    rt.tick_each(&[named]).unwrap();
    (0..30)
        .map(|i| {
            rt.ingest("motion-sensor", "stream", stream(100 + i, 50)).unwrap();
            let (ticked, n) = allocations(|| rt.tick_each(&[named]));
            assert!(ticked.unwrap()[0].1.is_ok());
            n
        })
        .collect()
}

/// Allocations inside each of 30 ticks of the flat projection over
/// `shards` shards, each right after a 2 600-row batch took the 10k-row
/// window past its 25 % retention slack and the runtime trimmed it back
/// to 10k rows. No stage rebuilds.
fn allocations_per_trim_tick(shards: usize) -> Vec<u64> {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(10_000)
        .with_partitioning("x", shards);
    rt.install_source("motion-sensor", "stream", stream(1, 1_000)).unwrap();
    let handle = rt.register("ActionFilter", &parse_query(FLAT).unwrap()).unwrap();
    rt.tick().unwrap();
    let rebuilds = rt.handle_stats(handle).unwrap().rebuilds;
    (0..30)
        .map(|i| {
            rt.ingest("motion-sensor", "stream", stream(100 + i, 260)).unwrap();
            let (ticked, n) = allocations(|| rt.tick());
            ticked.unwrap();
            assert_eq!(rt.handle_stats(handle).unwrap().rebuilds, rebuilds, "a trim rebuilt");
            n
        })
        .collect()
}

/// `rows` rows `(uid, v)` from row `from` of a deterministic stream:
/// its first 500 rows carry every uid once, `v` lies in `0..300`. Over
/// 2 000–5 000 rows ~80 % of the users' sums are distinct and ~65 % are
/// unique: the sums are the QID, `uid` a direct identifier.
fn users(from: u64, rows: u64) -> Frame {
    // splitmix64's finaliser: well-spread values from a row number
    let mix = |i: u64| {
        let z = (i ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let rows = (from..from + rows)
        .map(|i| {
            let uid = if i < USERS { i } else { mix(i) % USERS };
            vec![Value::Int(uid as i64), Value::Int((mix(!i) % 300) as i64)]
        })
        .collect();
    Frame::new(schema, rows).unwrap()
}

/// Allocations inside each of 30 steady ticks of the per-user `SUM`
/// over a 2 000-row window, each after a 100-row batch, on one PC-level
/// node. Every release goes through Mondrian.
fn allocations_per_users_tick() -> Vec<u64> {
    let policy = parse_policy(USERS_SUM_POLICY).unwrap().modules.remove(0);
    let chain = ProcessingChain::new(vec![Node::new("server", Level::Pc)]).unwrap();
    let mut rt = Runtime::new(chain).with_policy("UserSums", policy).with_retention(100_000);
    rt.install_source("server", "stream", users(0, 2_000)).unwrap();
    rt.register("UserSums", &parse_query("SELECT uid, v FROM stream").unwrap()).unwrap();
    rt.tick().unwrap();
    (0..30)
        .map(|i| {
            rt.ingest("server", "stream", users(2_000 + 100 * i, 100)).unwrap();
            let (ticked, n) = allocations(|| rt.tick());
            let outcome = ticked.unwrap().remove(0).1;
            assert!(outcome.result.len() > 400, "{} users released", outcome.result.len());
            assert!(
                matches!(outcome.post.decision, AnonDecision::TupleWise { .. }),
                "{:?}",
                outcome.post.decision
            );
            n
        })
        .collect()
}

/// Allocations inside each of 30 ingests of a 500-row batch, each
/// followed by a tick.
fn allocations_per_ingest(dir: Option<&Path>) -> Vec<u64> {
    let mut rt = resident(PAPER_ORIGINAL, 1, dir);
    (0..30)
        .map(|i| {
            let batch = stream(100 + i, 50);
            let (ingested, n) = allocations(|| rt.ingest("motion-sensor", "stream", batch));
            ingested.unwrap();
            rt.tick().unwrap();
            n
        })
        .collect()
}

/// Allocations inside each of 30 registrations of the paper query, each
/// removed again.
fn allocations_per_register() -> Vec<u64> {
    let mut rt = resident(PAPER_ORIGINAL, 1, None);
    let query = parse_query(PAPER_ORIGINAL).unwrap();
    (0..30)
        .map(|_| {
            let (handle, n) = allocations(|| rt.register("ActionFilter", &query));
            rt.remove_query(handle.unwrap()).unwrap();
            n
        })
        .collect()
}

/// Allocations inside each of 30 swaps of the Figure 4 policy, each
/// re-planning three resident flat projections.
fn allocations_per_policy_swap() -> Vec<u64> {
    let mut rt = resident(FLAT, 1, None);
    let query = parse_query(FLAT).unwrap();
    for _ in 0..2 {
        rt.register("ActionFilter", &query).unwrap();
    }
    rt.tick().unwrap();
    (0..30)
        .map(|_| {
            let policy = figure4_policy().modules.remove(0);
            allocations(|| rt.set_policy("ActionFilter", policy)).1
        })
        .collect()
}

/// A fresh directory for a durable shape.
fn scratch_dir() -> PathBuf {
    let base =
        option_env!("CARGO_TARGET_TMPDIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("work-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Window sizes, in steps of the stream (10 rows each), of the
/// snapshot shape: 25k- and 100k-row windows.
const SNAPSHOT_STEPS: [usize; 2] = [2_500, 10_000];

/// Ceiling on the median allocations per `Runtime::snapshot` of the
/// snapshot shape (the measured median plus 5 %).
const SNAPSHOT: u64 = 196;

/// Allocations inside each of 10 `Runtime::snapshot` calls of a durable
/// runtime whose window holds `steps` steps of the stream, with the
/// flat projection registered. The file is encoded into one buffer
/// that grows at most once per column (`enc_column` reserves a
/// column's room up front), so the count does not grow with the window.
fn allocations_per_snapshot(steps: usize) -> Vec<u64> {
    let dir = scratch_dir();
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(10_000_000)
        .with_snapshot_every(0)
        .durable(&dir)
        .unwrap();
    rt.install_source("motion-sensor", "stream", stream(1, steps)).unwrap();
    rt.register("ActionFilter", &parse_query(FLAT).unwrap()).unwrap();
    rt.tick().unwrap();
    let counts = (0..10)
        .map(|_| {
            let (snapshot, n) = allocations(|| rt.snapshot());
            snapshot.unwrap();
            n
        })
        .collect();
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

/// Print a shape's counts and check its median against its ceiling.
fn check(shape: &str, unit: &str, mut counts: Vec<u64>, ceiling: u64) {
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    println!(
        "work budget: {shape}: median {median} allocations per {unit} \
         (min {}, max {}, ceiling {ceiling})",
        counts[0],
        counts[counts.len() - 1],
    );
    assert!(median <= ceiling, "{shape}: {median} allocations per {unit}, ceiling {ceiling}");
}

/// One test, so no other test of this binary allocates while a call is
/// counted.
#[test]
fn steady_ticks_stay_within_their_allocation_ceilings() {
    for &(sql, shards, ceiling) in SHAPES {
        let shape = format!("{sql:?}, {shards} shard(s)");
        check(&shape, "steady tick", allocations_per_tick(sql, shards), ceiling);
    }
    // the steady tick pays per tick, not per batch row: the largest
    // median over the batch sizes is within 5 % of the smallest
    let medians = BATCH_STEPS.map(|steps| median(allocations_per_tick_after(steps)));
    println!("work budget: FLAT, anonymiser off, 250 / 500 / 1 000-row batches: {medians:?}");
    let (lo, hi) = (medians.iter().min().unwrap(), medians.iter().max().unwrap());
    assert!(hi * 100 <= lo * 105, "allocations per tick grow with the batch: {medians:?}");
    let scoped = allocations_per_scoped_tick();
    check("FLAT, 1 of 2 residents named", "scoped tick", scoped, SCOPED_TICK);
    for (shards, ceiling) in TRIM_TICKS {
        let shape = format!("FLAT, {shards} shard(s), after a retention trim");
        check(&shape, "tick", allocations_per_trim_tick(shards), ceiling);
    }
    check("per-user SUM, 500 users", "steady tick", allocations_per_users_tick(), USERS_SUM_TICK);
    check("ingest, in memory", "500-row batch", allocations_per_ingest(None), INGEST);
    let dir = scratch_dir();
    let durable = allocations_per_ingest(Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    check("ingest, durable", "500-row batch", durable, DURABLE_INGEST);
    // a snapshot pays per table, not per row: the 100k-row window's
    // median is within 5 % of the 25k-row window's
    let [small, large] = SNAPSHOT_STEPS.map(allocations_per_snapshot);
    let medians = [median(small), median(large.clone())];
    println!("work budget: snapshot, 25k / 100k-row windows: {medians:?}");
    let (lo, hi) = (medians.iter().min().unwrap(), medians.iter().max().unwrap());
    assert!(hi * 100 <= lo * 105, "allocations per snapshot grow with the window: {medians:?}");
    check("snapshot, 100k-row window", "call", large, SNAPSHOT);
    check("register, paper query", "call", allocations_per_register(), REGISTER);
    check("set_policy, 3 residents", "call", allocations_per_policy_swap(), SET_POLICY);
}
