//! Partition-parallel (sharded) tick execution over the façade:
//! `Runtime::with_partitioning` must be a pure execution strategy —
//! results bitwise-identical to serial execution and to the test-side
//! reference (`support/reference.rs`), across shard counts, randomized
//! ingest/tick/evict/policy-swap schedules, and whatever
//! `PARADISE_THREADS` the CI matrix sets.

use proptest::prelude::*;

use paradise::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::reference;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// One query that rewrites to the incrementally-maintained (and thus
/// shardable) aggregation, one window query exercising the full-mode
/// stage above the aggregation barrier.
const QUERIES: &[&str] = &["SELECT x, y, z, t FROM stream", PAPER_ORIGINAL];

/// The figure-4-shaped policy of the continuous-runtime suite: `z` is
/// only released aggregated (AVG over GROUP BY x, y with a SUM HAVING
/// threshold), so registered queries rewrite to the grouped shape the
/// sharded driver maintains.
fn policy_variant(module: &str, z_limit: i64, sum_threshold: i64) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    m.attributes
        .push(AttributeRule::allowed("x").with_condition(parse_expr("x > y").unwrap()));
    m.attributes.push(AttributeRule::allowed("y"));
    m.attributes.push(
        AttributeRule::allowed("z")
            .with_condition(parse_expr(&format!("z < {z_limit}")).unwrap())
            .with_aggregation(
                AggregationSpec::new("AVG")
                    .group_by(&["x", "y"])
                    .having(parse_expr(&format!("SUM(z) > {sum_threshold}")).unwrap()),
            ),
    );
    m.attributes.push(AttributeRule::allowed("t"));
    m
}

/// A deterministic integer "many users" stream: `x` is the user id
/// (the partition key), `(x, y)` the group key, `z` the aggregated
/// measure, `t` a unique timestamp. splitmix64-style, no external RNG.
fn users(seed: u64, rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Integer),
        ("y", DataType::Integer),
        ("z", DataType::Integer),
        ("t", DataType::Integer),
    ]);
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let data = (0..rows)
        .map(|i| {
            let x = (next() % 17) as i64;
            let y = (next() % 5) as i64;
            let z = (next() % 9) as i64 - 2;
            let t = (seed * 1_000_000 + i as u64) as i64;
            vec![Value::Int(x), Value::Int(y), Value::Int(z), Value::Int(t)]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

/// The policies [`build`] installs: one module per corpus query.
fn initial_policies() -> Vec<ModulePolicy> {
    (0..QUERIES.len()).map(|i| policy_variant(&format!("Mod{i}"), 2, 50)).collect()
}

/// Build a runtime over the apartment chain with one module per corpus
/// query. `shards` = `None` keeps the serial path, `Some(n)` declares
/// n-way partitioning by `x`.
fn build(shards: Option<usize>, cap: usize, source: &Frame) -> Runtime {
    let mut rt = Runtime::new(ProcessingChain::apartment()).with_retention(cap);
    if let Some(n) = shards {
        rt = rt.with_partitioning("x", n);
    }
    for policy in initial_policies() {
        rt.set_policy(policy.module_id.clone(), policy);
    }
    rt.install_source("motion-sensor", "stream", source.clone()).unwrap();
    for (i, q) in QUERIES.iter().enumerate() {
        rt.register(&format!("Mod{i}"), &parse_query(q).unwrap()).unwrap();
    }
    rt
}

/// What every handle of `rt` must have returned on the tick just run:
/// the reference over `rt`'s retained window under `policies`.
fn expected(rt: &Runtime, policies: &[ModulePolicy]) -> Vec<Outcome> {
    policies
        .iter()
        .zip(QUERIES)
        .map(|(policy, q)| reference(rt, policy, &parse_query(q).unwrap(), None, None).unwrap())
        .collect()
}

/// Fixed-schedule determinism: the exact same ingest/evict/policy-swap
/// schedule must produce identical per-tick outcomes at every shard
/// count — and identical to the reference — regardless of the thread
/// count the CI matrix runs this under. A trim behind every handle's
/// mark rebuilds no stage at any shard count.
#[test]
fn shard_count_never_changes_results() {
    let source = users(42, 300);
    let cap = 600;
    let mut variants: Vec<(usize, Runtime)> =
        [1usize, 4, 64].iter().map(|&n| (n, build(Some(n), cap, &source))).collect();
    let mut policies = initial_policies();
    let mut rebuilds: Vec<Vec<u64>> = vec![Vec::new(); variants.len()];

    for step in 0..7u64 {
        match step {
            2 => {
                // eviction: overrun the retention slack, all states rebuild
                let batch = users(1000 + step, 700);
                for (_, rt) in &mut variants {
                    rt.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                }
            }
            4 => {
                // live policy swap on the aggregation module
                policies[0] = policy_variant("Mod0", 3, 0);
                for (_, rt) in &mut variants {
                    rt.set_policy("Mod0", policies[0].clone());
                }
            }
            6 => {
                // trim behind the mark: the window ticked at the cap
                // (600 rows), these 200 cross the slack, and the trim
                // takes 200 rows every handle has seen
                let batch = users(1000 + step, 200);
                for (_, rt) in &mut variants {
                    rt.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                }
            }
            _ => {
                let batch = users(100 + step, 120);
                for (_, rt) in &mut variants {
                    rt.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                }
            }
        }
        for ((n, rt), seen) in variants.iter_mut().zip(&mut rebuilds) {
            let got = rt.tick().unwrap();
            let now: Vec<u64> =
                got.iter().map(|(h, _)| rt.handle_stats(*h).unwrap().rebuilds).collect();
            if step == 6 {
                assert_eq!(&now, seen, "shards={n}: a trim behind the mark rebuilt a stage");
            }
            *seen = now;
            let expect = expected(rt, &policies);
            assert_eq!(got.len(), expect.len());
            for ((_, og), oe) in got.iter().zip(&expect) {
                assert_eq!(
                    og.result.to_rows(),
                    oe.result.to_rows(),
                    "shards={n} step={step}: result diverges from the reference"
                );
                assert_eq!(og.shipped, oe.shipped, "shards={n} step={step}: shipped rows");
                assert_eq!(og.planned.anonymized_at, oe.planned.anonymized_at);
            }
        }
    }
}

/// The sharded path must still be exact after the engine signals
/// `StalePlan` internally (plan recompiled mid-stream): forcing a
/// source replacement rebuilds every shard coherently.
#[test]
fn source_replacement_rebuilds_all_shards_coherently() {
    let mut sharded = build(Some(4), 5000, &users(7, 200));
    sharded.tick().unwrap();

    // wholesale source replacement: shard states must rebuild, not fold
    sharded.install_source("motion-sensor", "stream", users(8, 250)).unwrap();
    let got = sharded.tick().unwrap();
    for ((_, og), oe) in got.iter().zip(&expected(&sharded, &initial_policies())) {
        assert_eq!(og.result.to_rows(), oe.result.to_rows(), "post-replacement tick");
    }
}

/// The dirty-set HAVING regression (large scale): with 100k groups
/// live, a tick that touches a single group must re-evaluate the
/// HAVING predicate for exactly one group — on both the serial and the
/// sharded incremental paths. Counted via the engine's timing-free
/// `having_groups_evaluated` diagnostic, so the O(total groups) mask
/// rebuild this replaced cannot regress silently.
#[test]
fn having_mask_touches_one_group_per_tick_at_100k_groups() {
    use paradise::engine::{DeltaInput, Executor, IncrementalState};

    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let seed_frame = Frame::new(
        schema.clone(),
        (0..100_000).map(|u| vec![Value::Int(u), Value::Int(1)]).collect(),
    )
    .unwrap();
    let one = |u: i64| {
        Frame::new(schema.clone(), vec![vec![Value::Int(u), Value::Int(5)]]).unwrap()
    };
    let sql = "SELECT uid, SUM(v) AS sv FROM s GROUP BY uid HAVING SUM(v) > 3";

    for shards in [1usize, 8] {
        let mut cat = Catalog::new();
        cat.set_partitioning("uid", shards);
        cat.register("s", seed_frame.clone()).unwrap();
        let mut st = IncrementalState::new();
        let run = |cat: &Catalog, st: &mut IncrementalState| {
            let ex = Executor::new(cat);
            let plan = ex.compile_incremental(&parse_query(sql).unwrap()).unwrap().unwrap();
            ex.run_incremental(&plan, st, DeltaInput::Source).unwrap()
        };
        run(&cat, &mut st);
        assert_eq!(
            st.having_groups_evaluated(),
            100_000,
            "shards={shards}: the rebuild evaluates every group once"
        );
        for i in 0..10 {
            cat.append("s", one(i * 997 % 100_000)).unwrap();
            run(&cat, &mut st);
        }
        assert_eq!(
            st.having_groups_evaluated(),
            100_010,
            "shards={shards}: 10 single-group ticks must evaluate exactly 10 groups, \
             not 10 x 100k"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole equivalence, runtime-level: over a randomized
    /// schedule of small ingests, eviction-forcing ingests, data-less
    /// ticks and live policy swaps, the sharded runtimes (1, 4 and 64
    /// shards) and the serial runtime produce, at every tick, outcomes
    /// identical to the reference over their retained window under
    /// each module's current policy.
    #[test]
    fn sharded_and_serial_ticks_equal_the_reference_over_random_schedules(
        seed in 1u64..400,
        cap in 300usize..500,
        ops in proptest::collection::vec(0u8..4, 4..9),
        z_swap in 1i64..4,
        sum_swap in proptest::sample::select(vec![0i64, 25, 50]),
    ) {
        let source = users(seed, 250);
        let mut runtimes: Vec<(Option<usize>, Runtime)> = [None, Some(1usize), Some(4), Some(64)]
            .iter()
            .map(|&n| (n, build(n, cap, &source)))
            .collect();
        let mut policies = initial_policies();

        for (step, op) in ops.iter().enumerate() {
            let mut everyone = |f: &mut dyn FnMut(&mut Runtime)| {
                for (_, rt) in &mut runtimes {
                    f(rt);
                }
            };
            match op {
                0 => {
                    // small batch: folds as a pure delta on every shard
                    let batch = users(1000 + step as u64, 60);
                    everyone(&mut |rt| {
                        rt.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                    });
                }
                1 => {
                    // big batch: overruns the retention slack and forces
                    // a batched eviction + rebuild of all shard states
                    let batch = users(2000 + step as u64, 400);
                    everyone(&mut |rt| {
                        rt.ingest("motion-sensor", "stream", batch.clone()).unwrap();
                    });
                }
                2 => {} // data-less tick: empty deltas on every shard
                _ => {
                    // live policy swap of one module
                    let i = step % QUERIES.len();
                    policies[i] = policy_variant(&format!("Mod{i}"), z_swap, sum_swap);
                    everyone(&mut |rt| {
                        rt.set_policy(policies[i].module_id.clone(), policies[i].clone());
                    });
                }
            }
            for (n, rt) in &mut runtimes {
                let got = rt.tick().unwrap();
                let expect = expected(rt, &policies);
                prop_assert_eq!(got.len(), expect.len());
                for ((_, og), oe) in got.iter().zip(&expect) {
                    prop_assert_eq!(
                        &og.result, &oe.result,
                        "shards={:?} != reference at step {}", n, step
                    );
                    prop_assert_eq!(&og.shipped, &oe.shipped);
                    prop_assert_eq!(&og.planned.anonymized_at, &oe.planned.anonymized_at);
                }
            }
        }
    }
}
