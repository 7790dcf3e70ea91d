//! Incremental execution equivalence: over randomized-ish schedules of
//! appends, evictions and replacements, the delta-aware path must
//! produce frames **identical** (schema and cells) to the compiled
//! full-rescan plan and to the naive row oracle.

mod oracle;

use paradise_engine::{
    Catalog, DataType, DeltaInput, Executor, Frame, IncrementalPlan, IncrementalRun,
    IncrementalState, Schema, Value,
};
use paradise_sql::ast::Query;
use paradise_sql::parse_query;
use proptest::prelude::*;

/// Queries that must compile incrementally (stateless + grouped).
const MAINTAINABLE: &[&str] = &[
    "SELECT * FROM stream",
    "SELECT * FROM stream WHERE z < 2",
    "SELECT x, t FROM stream WHERE z < 2 AND x > y",
    "SELECT x + y AS s, z FROM stream",
    "SELECT COUNT(*) FROM stream",
    "SELECT COUNT(*) AS n, SUM(z) AS sz, AVG(z) AS az, MIN(t) AS lo, MAX(t) AS hi FROM stream",
    "SELECT x, AVG(z) AS za FROM stream GROUP BY x",
    "SELECT x, y, AVG(z) AS za, t FROM stream WHERE x > y GROUP BY x, y HAVING SUM(z) > 3",
    "SELECT x, COUNT(DISTINCT y) AS dy FROM stream GROUP BY x",
    "SELECT x, SUM(z) AS sz FROM stream GROUP BY x ORDER BY sz DESC LIMIT 3",
    "SELECT x, STDDEV(z) AS sd, regr_slope(y, x) AS sl FROM stream GROUP BY x",
    "SELECT x + y AS s, AVG(z) AS za FROM stream GROUP BY x + y",
    // a three-column key with NULLs and non-integral floats (`z`)
    "SELECT x, y, z, COUNT(*) AS n, SUM(t) AS st FROM stream GROUP BY x, y, z",
    // a text-valued key
    "SELECT CAST(x AS TEXT) || '/' || CAST(y AS TEXT) AS k, COUNT(*) AS n, AVG(z) AS za \
     FROM stream GROUP BY CAST(x AS TEXT) || '/' || CAST(y AS TEXT)",
];

/// Shapes that must *refuse* incremental compilation (fall back).
const NOT_MAINTAINABLE: &[&str] = &[
    "SELECT x FROM stream ORDER BY t",
    "SELECT DISTINCT x FROM stream",
    "SELECT x FROM stream LIMIT 5",
    "SELECT SUM(z) OVER (PARTITION BY x ORDER BY t) FROM stream",
    "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t",
    "SELECT x FROM (SELECT x FROM stream)",
    "SELECT x FROM stream UNION SELECT y FROM stream",
];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("x", DataType::Float),
        ("y", DataType::Float),
        ("z", DataType::Float),
        ("t", DataType::Integer),
    ])
}

/// Deterministic pseudo-random batch: values vary with `seed` so group
/// populations, NULL placement and filter selectivity all move.
fn batch(seed: u64, rows: usize) -> Frame {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let rows = (0..rows)
        .map(|i| {
            let r = next();
            let x = (r % 7) as f64;
            let y = ((r >> 8) % 5) as f64;
            let z = ((r >> 16) % 30) as f64 / 10.0;
            let t = (seed * 1000 + i as u64) as i64;
            let z = if r % 13 == 0 { Value::Null } else { Value::Float(z) };
            vec![Value::Float(x), Value::Float(y), z, Value::Int(t)]
        })
        .collect();
    Frame::new(schema(), rows).unwrap()
}

/// One step of the ingest schedule.
enum Step {
    Append(u64, usize),
    Evict(usize),
    Replace(u64, usize),
}

fn run_schedule(sql: &str, steps: &[Step]) {
    let mut catalog = Catalog::new();
    catalog.register("stream", batch(0, 17)).unwrap();
    let query = parse_query(sql).unwrap();
    let plan = {
        let exec = Executor::new(&catalog);
        exec.compile_incremental(&query)
            .unwrap()
            .unwrap_or_else(|| panic!("{sql} should be incrementally maintainable"))
    };
    let mut state = IncrementalState::new();
    let mut resets = 0usize;

    for (tick, step) in steps.iter().enumerate() {
        match step {
            Step::Append(seed, rows) => catalog.append("stream", batch(*seed, *rows)).unwrap(),
            Step::Evict(rows) => catalog.evict_front("stream", *rows).unwrap(),
            Step::Replace(seed, rows) => catalog.register_or_replace("stream", batch(*seed, *rows)),
        }
        let exec = Executor::new(&catalog);
        let run = exec.run_incremental(&plan, &mut state, DeltaInput::Source).unwrap();
        if run.reset {
            resets += 1;
        }

        let compiled = {
            let full = exec.compile(&query).unwrap();
            exec.run_plan(&full).unwrap()
        };
        let reference = oracle::run(&catalog, &query).unwrap();

        assert_eq!(run.result.schema, compiled.schema, "{sql}: schema diverges at tick {tick}");
        assert_eq!(
            run.result.to_rows(),
            compiled.to_rows(),
            "{sql}: incremental != compiled at tick {tick}"
        );
        assert_eq!(compiled, reference, "{sql}: compiled != oracle at tick {tick}");
    }
    // the schedule below evicts/replaces, so some resets must occur;
    // pure-append prefixes must not reset after the first tick
    assert!(resets >= 1, "{sql}: at least the first tick rebuilds");
}

fn schedule() -> Vec<Step> {
    vec![
        Step::Append(1, 9),
        Step::Append(2, 4),
        Step::Append(3, 0), // empty tick
        Step::Append(4, 13),
        Step::Evict(10), // retention: forces one rebuild
        Step::Append(5, 6),
        Step::Append(6, 8),
        Step::Replace(7, 21), // table replaced wholesale
        Step::Append(8, 5),
        Step::Evict(3),
        Step::Append(9, 7),
    ]
}

#[test]
fn incremental_matches_rescan_and_oracle_over_schedules() {
    for sql in MAINTAINABLE {
        run_schedule(sql, &schedule());
    }
}

#[test]
fn steady_appends_never_reset_after_the_first_tick() {
    let mut catalog = Catalog::new();
    catalog.register("stream", batch(0, 50)).unwrap();
    let query = parse_query("SELECT x, AVG(z) AS za FROM stream GROUP BY x").unwrap();
    let plan = Executor::new(&catalog).compile_incremental(&query).unwrap().unwrap();
    let mut state = IncrementalState::new();

    let first = Executor::new(&catalog)
        .run_incremental(&plan, &mut state, DeltaInput::Source)
        .unwrap();
    assert!(first.reset, "first run rebuilds from the full window");

    for seed in 1..6u64 {
        catalog.append("stream", batch(seed, 20)).unwrap();
        let run = Executor::new(&catalog)
            .run_incremental(&plan, &mut state, DeltaInput::Source)
            .unwrap();
        assert!(!run.reset, "steady appends fold deltas only");
    }
    assert_eq!(state.rows_seen(), 50 + 5 * 20);
}

#[test]
fn a_rebuild_refills_its_buffers_and_leaves_handed_out_results_alone() {
    // a rebuild under the same plan clears and refills the state's
    // buffers instead of allocating fresh ones — on one shard and on
    // every shard of a partitioned stream; results of earlier ticks may
    // still share those buffers and must not change
    for shards in [1, 4] {
        for sql in [
            "SELECT * FROM stream WHERE z < 2",
            "SELECT x, AVG(z) AS za FROM stream GROUP BY x",
            "SELECT x, y, AVG(z) AS za, t FROM stream WHERE x > y GROUP BY x, y HAVING SUM(z) > 3",
        ] {
            let mut catalog = Catalog::new();
            catalog.set_partitioning("x", shards);
            catalog.register("stream", batch(0, 60)).unwrap();
            let query = parse_query(sql).unwrap();
            let plan = Executor::new(&catalog).compile_incremental(&query).unwrap().unwrap();
            let mut state = IncrementalState::new();
            let mut held: Vec<(Frame, Vec<Vec<Value>>)> = Vec::new();
            // the first tick and the replacement rebuild; the eviction
            // retracts and the last append folds
            let steps =
                [Step::Append(1, 10), Step::Evict(55), Step::Replace(2, 5), Step::Append(3, 30)];
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Append(s, rows) => catalog.append("stream", batch(s, rows)).unwrap(),
                    Step::Evict(rows) => catalog.evict_front("stream", rows).unwrap(),
                    Step::Replace(s, rows) => catalog.register_or_replace("stream", batch(s, rows)),
                }
                let exec = Executor::new(&catalog);
                let run = exec.run_incremental(&plan, &mut state, DeltaInput::Source).unwrap();
                let at = format!("{sql}, {shards} shard(s): step {i}");
                assert_eq!(run.reset, i == 0 || i == 2, "{at}");
                assert_eq!(run.result.to_rows(), exec.execute(&query).unwrap().to_rows(), "{at}");
                for (frame, rows) in &held {
                    assert_eq!(&frame.to_rows(), rows, "{at}: an earlier result changed");
                }
                let rows = run.result.to_rows();
                held.push((run.result, rows));
            }
        }
    }
}

#[test]
fn unmaintainable_shapes_refuse_incremental_compilation() {
    let mut catalog = Catalog::new();
    catalog.register("stream", batch(0, 10)).unwrap();
    let exec = Executor::new(&catalog);
    for sql in NOT_MAINTAINABLE {
        let q = parse_query(sql).unwrap();
        assert!(
            exec.compile_incremental(&q).unwrap().is_none(),
            "{sql} must fall back to the rescan path"
        );
    }
    for sql in MAINTAINABLE {
        let q = parse_query(sql).unwrap();
        assert!(
            exec.compile_incremental(&q).unwrap().is_some(),
            "{sql} must compile incrementally"
        );
    }
}

#[test]
fn pushed_deltas_chain_stages() {
    // stage 1 (stateless filter) feeds stage 2 (grouped aggregation)
    // through pushed deltas, like the fragment pipeline does
    let mut catalog = Catalog::new();
    catalog.register("stream", batch(0, 30)).unwrap();
    let q1 = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();

    let plan1 = Executor::new(&catalog).compile_incremental(&q1).unwrap().unwrap();
    let mut st1 = IncrementalState::new();

    // stage 2 compiles against a catalog holding stage 1's output shape
    let mut mid = Catalog::new();
    let first = {
        let exec = Executor::new(&catalog);
        exec.run_incremental(&plan1, &mut st1, DeltaInput::Source).unwrap()
    };
    mid.register("d1", first.result.clone()).unwrap();
    let q2 = parse_query("SELECT x, AVG(z) AS za FROM d1 GROUP BY x").unwrap();
    let plan2 = Executor::new(&mid).compile_incremental(&q2).unwrap().unwrap();
    let mut st2 = IncrementalState::new();
    {
        let exec = Executor::new(&mid);
        let delta = first.delta.clone().unwrap();
        let run2 = exec
            .run_incremental(&plan2, &mut st2, DeltaInput::Pushed { delta: &delta, reset: true, evicted: 0 })
            .unwrap();
        assert_eq!(run2.result.to_rows(), exec.execute(&q2).unwrap().to_rows());
    }

    for seed in 1..5u64 {
        catalog.append("stream", batch(seed, 12)).unwrap();
        let run1 = {
            let exec = Executor::new(&catalog);
            exec.run_incremental(&plan1, &mut st1, DeltaInput::Source).unwrap()
        };
        assert!(!run1.reset);
        let delta = run1.delta.clone().unwrap();
        let run2 = {
            let exec = Executor::new(&mid);
            exec.run_incremental(
                &plan2,
                &mut st2,
                DeltaInput::Pushed { delta: &delta, reset: run1.reset, evicted: run1.evicted },
            )
            .unwrap()
        };
        // reference: the full rescan of stage 2 over stage 1's full output
        let mut reference = Catalog::new();
        reference.register("d1", run1.result.clone()).unwrap();
        let expect = Executor::new(&reference).execute(&q2).unwrap();
        assert_eq!(run2.result.to_rows(), expect.to_rows(), "chained stage diverges at {seed}");
    }
}

/// One generated step: append `rows` rows of batch `seed`, or evict
/// `eighths`/8 of the retained window (8 = every row). A schedule pairs
/// each step with whether the consumers tick after it; steps without a
/// tick let an eviction pass the consumers' marks.
#[derive(Debug, Clone)]
enum Gen {
    Append(u64, usize),
    Evict(usize),
}

fn arb_schedule() -> impl Strategy<Value = Vec<(Gen, bool)>> {
    let step = prop_oneof![
        (1u64..10_000, 0usize..24).prop_map(|(seed, rows)| Gen::Append(seed, rows)),
        (1usize..9).prop_map(Gen::Evict),
    ];
    proptest::collection::vec((step, any::<bool>()), 4..16)
}

/// A consumer of the generated schedule: its query, plan and state.
struct Consumer {
    query: Query,
    plan: IncrementalPlan,
    state: IncrementalState,
    /// Global aggregation, which can only rebuild on an eviction.
    rebuilds_on_evict: bool,
    shards: usize,
}

impl Consumer {
    fn new(sql: &str, catalog: &Catalog, shards: usize) -> Consumer {
        let query = parse_query(sql).unwrap();
        let plan = Executor::new(catalog).compile_incremental(&query).unwrap().unwrap();
        let rebuilds_on_evict = plan.is_grouped() && !sql.contains("GROUP BY");
        let state = IncrementalState::new();
        Consumer { query, plan, state, rebuilds_on_evict, shards }
    }

    /// Run one tick and check it: the result equals the compiled plan
    /// and the oracle over `catalog` (where the input is bound as
    /// `bound`, if given), and the state rebuilt exactly when it must.
    fn tick(
        &mut self,
        exec: &Executor<'_>,
        oracle_catalog: &Catalog,
        input: DeltaInput<'_>,
        must_rebuild: bool,
        evicted: bool,
    ) -> Result<IncrementalRun, TestCaseError> {
        let rebuilds = self.state.rebuilds();
        let run = exec.run_incremental(&self.plan, &mut self.state, input).unwrap();
        let expect_reset = must_rebuild || (evicted && self.rebuilds_on_evict);
        let at = format!("{} at {} shard(s)", self.query, self.shards);
        prop_assert_eq!(run.reset, expect_reset, "{}: reset", at);
        prop_assert_eq!(self.state.rebuilds(), rebuilds + u64::from(run.reset));
        let compiled = exec.run_plan(&exec.compile(&self.query).unwrap()).unwrap();
        prop_assert_eq!(&run.result.schema, &compiled.schema);
        let incremental = run.result.to_rows();
        prop_assert_eq!(incremental, compiled.to_rows(), "{}: incremental != compiled", at);
        let reference = oracle::run(oracle_catalog, &self.query).unwrap();
        prop_assert_eq!(compiled, reference, "{}: compiled != oracle", at);
        Ok(run)
    }
}

/// Drive `sql` over a generated schedule at `shards` shards, twice: on
/// the source stream, and behind an append stage with a `WHERE` whose
/// output (and retractions) it receives as pushed deltas.
fn run_generated(sql: &str, shards: usize, steps: &[(Gen, bool)]) -> Result<u64, TestCaseError> {
    let mut catalog = Catalog::new();
    catalog.set_partitioning("x", shards);
    catalog.register("stream", batch(0, 17)).unwrap();
    let mut direct = Consumer::new(sql, &catalog, shards);
    let mut filter = Consumer::new("SELECT * FROM stream WHERE z < 2", &catalog, shards);
    let mut mid = Catalog::new();
    mid.set_partitioning("x", shards);
    mid.register("d1", Executor::new(&catalog).execute(&filter.query).unwrap()).unwrap();
    let mut chained = Consumer::new(&sql.replace("FROM stream", "FROM d1"), &mid, shards);

    // the window position the consumers last ran at: an eviction past
    // it takes rows they never saw
    let mut seen: Option<u64> = None;
    let mut evicted = false;
    let ticks = steps.iter().map(|(_, tick)| *tick).chain([true]);
    let mut retracted = 0;
    for (step, tick) in steps.iter().map(|(step, _)| Some(step)).chain([None]).zip(ticks) {
        match step {
            Some(Gen::Append(seed, rows)) => catalog.append("stream", batch(*seed, *rows)).unwrap(),
            Some(Gen::Evict(eighths)) => {
                let len = catalog.get("stream").unwrap().len();
                catalog.evict_front("stream", len * eighths / 8).unwrap();
                evicted |= len * eighths / 8 > 0;
            }
            None => {}
        }
        if !tick {
            continue;
        }
        let mark = catalog.watermark("stream").unwrap();
        let must_rebuild = seen.is_none_or(|rows| mark.evicted() > rows);
        let exec = Executor::new(&catalog);
        direct.tick(&exec, &catalog, DeltaInput::Source, must_rebuild, evicted)?;
        let run = filter.tick(&exec, &catalog, DeltaInput::Source, must_rebuild, evicted)?;
        let mut bound = Catalog::new();
        bound.register("d1", run.result.clone()).unwrap();
        let delta = run.delta.clone().unwrap();
        let pushed = DeltaInput::Pushed { delta: &delta, reset: run.reset, evicted: run.evicted };
        let exec = Executor::with_input(&mid, "d1", &run.result);
        chained.tick(&exec, &bound, pushed, run.reset, run.evicted > 0)?;
        retracted += direct.state.retracted_groups() + chained.state.retracted_groups();
        seen = Some(mark.rows());
        evicted = false;
    }
    Ok(retracted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated append/evict schedules — cuts inside a batch and
    /// across all rows, keys evicted and re-ingested, groups straddling
    /// the cut, evictions past the mark — over every maintainable shape
    /// at 1, 4 and 64 shards: every tick equals the compiled plan and
    /// the oracle, retractions never rebuild, and the rebuilds that
    /// remain happen exactly where no state can be retracted.
    #[test]
    fn retraction_matches_rescan_over_generated_schedules(steps in arb_schedule()) {
        for sql in MAINTAINABLE {
            for shards in [1, 4, 64] {
                run_generated(sql, shards, &steps)?;
            }
        }
    }
}

#[test]
fn eviction_past_the_mark_rebuilds_and_behind_it_retracts() {
    let steps = [
        (Gen::Append(1, 20), true),
        // behind the mark, cutting a batch: retracted
        (Gen::Evict(3), true),
        (Gen::Append(2, 10), false),
        // past the mark (the 10 rows were never seen): rebuilt
        (Gen::Evict(8), false),
        (Gen::Append(3, 12), true),
        // every row, then the same keys again
        (Gen::Evict(8), true),
        (Gen::Append(3, 12), true),
        (Gen::Evict(5), true),
    ];
    for sql in MAINTAINABLE {
        for shards in [1, 4] {
            let retracted = run_generated(sql, shards, &steps).unwrap();
            if sql.contains("GROUP BY") {
                assert!(retracted > 0, "{sql}, {shards} shard(s): the chained stage retracts");
            }
        }
    }
}
