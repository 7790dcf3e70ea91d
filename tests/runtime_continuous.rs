//! The continuous-query runtime over the façade: equivalence with the
//! test-side reference (`support/reference.rs`), steady-state cache
//! behaviour over streaming ingest, and the policy hot-swap properties
//! (a `set_policy` call invalidates exactly the affected module's
//! handles; post-swap outcomes equal a fresh runtime built with the new
//! policy).

use proptest::prelude::*;

use paradise::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::reference;

const PAPER_ORIGINAL: &str = "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
                              FROM (SELECT x, y, z, t FROM stream)";

/// The query shapes modules register (all survive the figure-4-style
/// policies below).
const QUERIES: &[&str] = &[
    PAPER_ORIGINAL,
    "SELECT x, y, z, t FROM stream",
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
     FROM (SELECT x, y, z, t FROM stream) LIMIT 9",
];

/// A figure-4-shaped policy with tunable privacy constants: different
/// parameters produce different injected conditions and HAVING
/// thresholds, i.e. genuinely different rewrites and results.
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

fn stream(seed: u64, steps: usize) -> Frame {
    let config = SmartRoomConfig { persons: 10, switch_probability: 0.003, ..Default::default() };
    SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
}

#[test]
fn first_tick_matches_the_reference() {
    let policy = figure4_policy().modules.remove(0);
    let mut runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("ActionFilter", policy.clone());
    runtime.install_source("motion-sensor", "stream", stream(42, 500)).unwrap();
    let q = parse_query(PAPER_ORIGINAL).unwrap();
    let handle = runtime.register("ActionFilter", &q).unwrap();
    let ticked = runtime.tick().unwrap();
    assert_eq!(ticked.len(), 1);
    assert_eq!(ticked[0].0, handle);

    let expect = reference(&runtime, &policy, &q, None, None).unwrap();
    assert_eq!(ticked[0].1.result, expect.result);
    assert_eq!(ticked[0].1.planned.anonymized_at, expect.planned.anonymized_at);
}

#[test]
fn ticks_over_ingest_match_the_reference() {
    let policy = figure4_policy().modules.remove(0);
    let mut runtime =
        Runtime::new(ProcessingChain::apartment()).with_policy("ActionFilter", policy.clone());
    runtime.install_source("motion-sensor", "stream", stream(42, 300)).unwrap();
    let handles: Vec<QueryHandle> = QUERIES
        .iter()
        .map(|q| runtime.register("ActionFilter", &parse_query(q).unwrap()).unwrap())
        .collect();

    for round in 0..3u64 {
        runtime.ingest("motion-sensor", "stream", stream(100 + round, 20)).unwrap();
        let ticked = runtime.tick().unwrap();
        assert_eq!(
            ticked.iter().map(|(h, _)| *h).collect::<Vec<_>>(),
            handles,
            "results keep registration order"
        );

        // the reference over the same accumulated stream must produce
        // identical results for every query
        for (query, (_, outcome)) in QUERIES.iter().zip(&ticked) {
            let expect =
                reference(&runtime, &policy, &parse_query(query).unwrap(), None, None).unwrap();
            assert_eq!(outcome.result, expect.result, "query {query:?} round {round}");
            assert_eq!(outcome.shipped, expect.shipped);
            assert_eq!(outcome.planned.anonymized_at, expect.planned.anonymized_at);
        }
    }
}

#[test]
fn steady_state_ticks_never_recompile() {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(4000);
    runtime.install_source("motion-sensor", "stream", stream(7, 200)).unwrap();
    for q in QUERIES {
        runtime.register("ActionFilter", &parse_query(q).unwrap()).unwrap();
    }

    runtime.tick().unwrap();
    let cold = runtime.stats();
    assert_eq!(cold.plan.misses as usize, QUERIES.len(), "one rewrite per registration");
    assert_eq!(cold.plan.invalidations, 0);
    assert!(cold.engine.misses > 0, "first tick compiles the stage plans");

    let ticks = 5u64;
    for round in 0..ticks {
        runtime.ingest("motion-sensor", "stream", stream(200 + round, 30)).unwrap();
        runtime.tick().unwrap();
    }
    let warm = runtime.stats();
    // the compile-once contract: zero preprocess/fragment/compile work
    // on steady-state ticks — a 100% hit rate on the rewrite plans, and
    // stages that keep their compiled plans never touch the plan cache
    assert_eq!(warm.plan.misses, cold.plan.misses);
    assert_eq!(warm.engine, cold.engine);
    assert_eq!(warm.plan.hits, (ticks + 1) * QUERIES.len() as u64);
}

#[test]
fn identical_registrations_share_compiled_plans() {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    let mut other = figure4_policy().modules.remove(0);
    other.module_id = "Other".into();
    runtime.set_policy("Other", other);
    runtime.install_source("motion-sensor", "stream", stream(42, 100)).unwrap();

    let q = parse_query(PAPER_ORIGINAL).unwrap();
    runtime.register("ActionFilter", &q).unwrap();
    runtime.tick().unwrap();
    let first = runtime.stats();
    assert!(first.engine.misses > 0, "first handle compiles its stage plans");
    assert!(first.shared_plans > 0, "compiled plans are kept in the runtime's cache");

    // a second handle — same rewritten fragments, and even a *different*
    // module rewriting to the same fragments — compiles nothing: every
    // stage takes its plans from the cache before its first execution
    runtime.register("ActionFilter", &q).unwrap();
    runtime.register("Other", &q).unwrap();
    runtime.tick().unwrap();
    let second = runtime.stats();
    assert_eq!(
        second.engine.misses, first.engine.misses,
        "identical registrations must not recompile: {second:?}"
    );
    assert_eq!(second.engine.invalidations, 0);
    assert_eq!(second.shared_plans, first.shared_plans, "no new distinct fragments");
}

#[test]
fn retention_eviction_is_batched_and_deltas_survive_trims() {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(1000);
    runtime.install_source("motion-sensor", "stream", stream(42, 90)).unwrap(); // 900 rows
    let handle =
        runtime.register("ActionFilter", &parse_query("SELECT x, y, z, t FROM stream").unwrap()).unwrap();
    runtime.tick().unwrap();

    let len = |rt: &Runtime| {
        rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().len()
    };
    // appends within the 25% slack do NOT trim (amortized eviction) …
    runtime.ingest("motion-sensor", "stream", stream(1, 20)).unwrap(); // 1100
    assert_eq!(len(&runtime), 1100, "within slack: no trim");
    runtime.ingest("motion-sensor", "stream", stream(2, 14)).unwrap(); // 1240
    assert_eq!(len(&runtime), 1240, "still within slack");
    // … and one over-slack append trims back down to the cap exactly
    runtime.ingest("motion-sensor", "stream", stream(3, 4)).unwrap(); // 1280 > 1250
    assert_eq!(len(&runtime), 1000, "over slack: one batched trim to the cap");

    // delta execution stays correct across the trim: the tick after an
    // eviction equals the reference over the retained window
    let ticked = runtime.tick().unwrap();
    let expect = reference(
        &runtime,
        &figure4_policy().modules.remove(0),
        &parse_query("SELECT x, y, z, t FROM stream").unwrap(),
        None,
        None,
    )
    .unwrap();
    assert_eq!(ticked[0].0, handle);
    assert_eq!(ticked[0].1.result, expect.result, "post-trim tick must match the reference");
}

#[test]
fn a_retention_trim_retracts_instead_of_rebuilding() {
    let query = parse_query("SELECT x, y, z, t FROM stream").unwrap();
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_retention(1000);
    runtime.install_source("motion-sensor", "stream", stream(42, 90)).unwrap(); // 900 rows
    let handle = runtime.register("ActionFilter", &query).unwrap();
    runtime.tick().unwrap();
    let first = runtime.handle_stats(handle).unwrap();
    assert!(first.rebuilds > 0, "the first tick builds every delta-aware stage");

    let len = |rt: &Runtime| {
        rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().len()
    };
    // three batched trims, each ticked on its own and between appends
    let mut trims = 0;
    for (seed, steps) in [(1, 20), (2, 14), (3, 4), (4, 9), (5, 21), (6, 3), (7, 30)] {
        let before = len(&runtime);
        runtime.ingest("motion-sensor", "stream", stream(seed, steps)).unwrap();
        trims += usize::from(len(&runtime) < before + steps * 10);
        let ticked = runtime.tick().unwrap();
        let expect = reference(
            &runtime,
            &figure4_policy().modules.remove(0),
            &query,
            None,
            None,
        )
        .unwrap();
        assert_eq!(ticked[0].1.result, expect.result, "tick after batch {seed} vs the reference");
        let stats = runtime.handle_stats(handle).unwrap();
        assert_eq!(stats.rebuilds, first.rebuilds, "batch {seed}: no stage rebuilt");
    }
    assert_eq!(trims, 3, "the schedule crosses the retention slack three times");
    let stats = runtime.handle_stats(handle).unwrap();
    assert!(stats.retracted_groups > 0, "the grouped stage retracted the evicted rows");
}

#[test]
fn tick_each_quarantines_failing_handles_without_poisoning_the_tick() {
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    let mut other = figure4_policy().modules.remove(0);
    other.module_id = "Other".into();
    runtime.set_policy("Other", other);
    runtime.install_source("motion-sensor", "stream", stream(42, 200)).unwrap();

    let victim = runtime.register("ActionFilter", &parse_query(PAPER_ORIGINAL).unwrap()).unwrap();
    let bystander =
        runtime.register("Other", &parse_query("SELECT x, y, z, t FROM stream").unwrap()).unwrap();
    runtime.tick().unwrap();

    // swap in a policy that denies every attribute of the victim's
    // query: `tick` (atomic) fails wholesale, `tick_each` isolates
    let mut deny_all = ModulePolicy::new("ActionFilter");
    for attr in ["x", "y", "z", "t"] {
        deny_all.attributes.push(AttributeRule::denied(attr));
    }
    runtime.set_policy("ActionFilter", deny_all);
    assert!(matches!(runtime.tick(), Err(CoreError::QueryDenied(_))));

    for round in 0..3u64 {
        runtime.ingest("motion-sensor", "stream", stream(500 + round, 10)).unwrap();
        let per_handle = runtime.tick_each(&[victim, bystander]).unwrap();
        assert_eq!(per_handle.len(), 2, "every live handle reports, round {round}");
        assert_eq!(per_handle[0].0, victim);
        assert!(
            matches!(per_handle[0].1, Err(CoreError::QueryDenied(_))),
            "quarantined handle carries its typed error, round {round}"
        );
        assert_eq!(per_handle[1].0, bystander);
        assert!(per_handle[1].1.is_ok(), "bystander executes normally, round {round}");
    }

    // the bystander's results must equal a runtime that never held the
    // poisoned module at all
    let retained =
        runtime.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().clone();
    let mut reference = Runtime::new(ProcessingChain::apartment());
    let mut other = figure4_policy().modules.remove(0);
    other.module_id = "Other".into();
    reference.set_policy("Other", other);
    reference.install_source("motion-sensor", "stream", retained).unwrap();
    reference.register("Other", &parse_query("SELECT x, y, z, t FROM stream").unwrap()).unwrap();
    let expect = reference.tick().unwrap();
    let per_handle = runtime.tick_each(&[victim, bystander]).unwrap();
    let ok = per_handle[1].1.as_ref().expect("bystander result");
    assert_eq!(ok.result, expect[0].1.result, "bystander unaffected by the quarantine");

    // quarantine is idempotent: repeated failing ticks move no counters
    // for the victim (each retry probes the cache, nothing more)
    let before = runtime.handle_stats(victim).unwrap();
    runtime.tick_each(&[victim, bystander]).unwrap();
    runtime.tick_each(&[victim, bystander]).unwrap();
    let after = runtime.handle_stats(victim).unwrap();
    assert_eq!(after.plan, before.plan, "quarantined handle's counters stay put");

    // recovery: a compatible policy swap un-quarantines the victim
    runtime.set_policy("ActionFilter", figure4_policy().modules.remove(0));
    let per_handle = runtime.tick_each(&[victim, bystander]).unwrap();
    assert!(per_handle[0].1.is_ok(), "victim recovers after a compatible swap");
    assert!(per_handle[1].1.is_ok());
}

#[test]
fn statically_invalid_fragment_is_a_typed_error_on_the_first_tick() {
    // the policy allows an attribute the stream does not have, so the
    // rewrite passes and the fragment `… w …` is what fails — in the
    // engine's compile step, before any row is read
    let mut lenient = figure4_policy().modules.remove(0);
    lenient.module_id = "Lenient".into();
    lenient.attributes.push(AttributeRule::allowed("w"));
    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0))
        .with_policy("Lenient", lenient);
    runtime.install_source("motion-sensor", "stream", stream(42, 200)).unwrap();

    let bystander = runtime
        .register("ActionFilter", &parse_query("SELECT x, y, z, t FROM stream").unwrap())
        .unwrap();
    let victim = runtime.register("Lenient", &parse_query("SELECT w, t FROM stream").unwrap()).unwrap();

    let mut reference = Runtime::new(ProcessingChain::apartment())
        .with_policy("ActionFilter", figure4_policy().modules.remove(0));
    reference.install_source("motion-sensor", "stream", stream(42, 200)).unwrap();
    reference
        .register("ActionFilter", &parse_query("SELECT x, y, z, t FROM stream").unwrap())
        .unwrap();

    let mut misses_before = 0;
    for round in 0..3u64 {
        let per_handle = runtime.tick_each(&[bystander, victim]).unwrap();
        let expect = reference.tick().unwrap();
        assert_eq!(per_handle.len(), 2);
        assert_eq!(per_handle[0].0, bystander);
        let ok = per_handle[0].1.as_ref().expect("bystander executes normally");
        assert_eq!(ok.result, expect[0].1.result, "bystander unaffected, round {round}");
        assert_eq!(per_handle[1].0, victim);
        let err = per_handle[1].1.as_ref().expect_err("the victim's fragment cannot compile");
        assert!(
            err.to_string().contains("unknown column \"w\""),
            "typed engine error from the first tick on, round {round}: {err}"
        );
        // a failed compile is never cached as a plan (or as a verdict):
        // the failing fragment is a fresh miss on every tick, while the
        // upstream fragments that do compile turn into hits
        let engine = runtime.stats().engine;
        assert!(engine.misses > misses_before, "round {round}: {engine:?}");
        misses_before = engine.misses;
        let batch = stream(900 + round, 10);
        runtime.ingest("motion-sensor", "stream", batch.clone()).unwrap();
        reference.ingest("motion-sensor", "stream", batch).unwrap();
    }
    // the atomic tick reports the same error
    assert!(runtime.tick().unwrap_err().to_string().contains("unknown column \"w\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: over a randomized schedule of ingests
    /// (small and eviction-forcing), data-less ticks and live policy
    /// swaps, every tick's outcomes are identical to the reference
    /// evaluated over the retained window under each module's current
    /// policy (whose engine is itself pinned against the row oracle by
    /// the executor equivalence suite).
    #[test]
    fn ticks_equal_the_reference_over_random_schedules(
        seed in 1u64..400,
        cap in 250usize..450,
        ops in proptest::collection::vec(0u8..4, 4..10),
        z_swap in 1i64..4,
        sum_swap in proptest::sample::select(vec![0i64, 50, 100]),
    ) {
        // one module per corpus query (the flat projection rewrites to
        // the incrementally-maintained aggregation; the window queries
        // exercise the full-mode stages above the aggregation barrier)
        let corpus: Vec<Query> = QUERIES
            .iter()
            .copied()
            .chain(["SELECT x, y, z, t FROM stream"])
            .map(|q| parse_query(q).unwrap())
            .collect();
        let mut policies: Vec<ModulePolicy> =
            (0..corpus.len()).map(|i| policy_variant(&format!("Mod{i}"), 2, 100)).collect();
        let mut rt = Runtime::new(ProcessingChain::apartment()).with_retention(cap);
        for policy in &policies {
            rt.set_policy(policy.module_id.clone(), policy.clone());
        }
        rt.install_source("motion-sensor", "stream", stream(seed, 25)).unwrap();
        for (policy, q) in policies.iter().zip(&corpus) {
            rt.register(&policy.module_id, q).unwrap();
        }

        for (step, op) in ops.iter().enumerate() {
            match op {
                // small batch: folds as a pure delta
                0 => rt.ingest("motion-sensor", "stream", stream(1000 + step as u64, 4)).unwrap(),
                // big batch: overruns the retention slack and forces a
                // batched eviction + state rebuild
                1 => rt.ingest("motion-sensor", "stream", stream(2000 + step as u64, 30)).unwrap(),
                2 => {} // data-less tick: empty deltas
                _ => {
                    // live policy swap of one module
                    let i = step % corpus.len();
                    policies[i] = policy_variant(&format!("Mod{i}"), z_swap, sum_swap);
                    rt.set_policy(policies[i].module_id.clone(), policies[i].clone());
                }
            }
            let ticked = rt.tick().unwrap();
            prop_assert_eq!(ticked.len(), corpus.len());
            for ((_, got), (policy, q)) in ticked.iter().zip(policies.iter().zip(&corpus)) {
                let expect = reference(&rt, policy, q, None, None).unwrap();
                prop_assert_eq!(&got.result, &expect.result, "result diverges at step {}", step);
                prop_assert_eq!(&got.shipped, &expect.shipped, "shipped diverges at step {}", step);
                prop_assert_eq!(&got.planned.anonymized_at, &expect.planned.anonymized_at);
            }
        }
    }
    #[test]
    fn policy_hot_swap_is_exact_and_equivalent(
        seed in 1u64..500,
        swapped in 0usize..3,
        z_before in 1i64..4,
        z_after in 1i64..4,
        sum_after in proptest::sample::select(vec![0i64, 50, 100]),
        warm_ticks in 1u64..3,
    ) {
        let modules = ["ModA", "ModB", "ModC"];
        let source = stream(seed, 50);

        let mut runtime = Runtime::new(ProcessingChain::apartment());
        for (i, module) in modules.iter().enumerate() {
            runtime.set_policy(*module, policy_variant(module, z_before + (i as i64 % 2), 100));
        }
        runtime.install_source("motion-sensor", "stream", source.clone()).unwrap();

        // one query per module, round-robin over the corpus
        let handles: Vec<QueryHandle> = modules
            .iter()
            .enumerate()
            .map(|(i, module)| {
                runtime.register(module, &parse_query(QUERIES[i % QUERIES.len()]).unwrap()).unwrap()
            })
            .collect();
        for _ in 0..warm_ticks {
            runtime.tick().unwrap();
        }

        // live swap of one module's policy
        let new_policy = policy_variant(modules[swapped], z_after, sum_after);
        runtime.set_policy(modules[swapped], new_policy.clone());
        let lookups = |rt: &Runtime| rt.stats().engine.hits + rt.stats().engine.misses;
        let lookups_before = lookups(&runtime);
        let ticked = runtime.tick().unwrap();
        prop_assert_eq!(ticked.len(), modules.len());
        // bystanders keep their stage plans: the swap tick's plan-cache
        // lookups are the swapped handle's rebuilt stages alone
        prop_assert_eq!(
            lookups(&runtime) - lookups_before,
            ticked[swapped].1.planned.stages.len() as u64
        );

        for (i, handle) in handles.iter().enumerate() {
            let stats = runtime.handle_stats(*handle).unwrap();
            if i == swapped {
                prop_assert_eq!(stats.plan.invalidations, 1, "swapped module rebuilds once");
                prop_assert_eq!(stats.plan.hits, warm_ticks + 1);
            } else {
                // bystanders: zero invalidations, a hit on every tick
                prop_assert_eq!(stats.plan.invalidations, 0, "bystander {} invalidated", i);
                prop_assert_eq!(stats.plan.misses, 1);
                prop_assert_eq!(stats.plan.hits, warm_ticks + 1);
            }
        }

        // equivalence: a fresh runtime built with the new policy from
        // scratch produces the same outcome for the swapped module
        let mut fresh = Runtime::new(ProcessingChain::apartment())
            .with_policy(modules[swapped], new_policy);
        fresh.install_source("motion-sensor", "stream", source).unwrap();
        let fresh_handle = fresh
            .register(modules[swapped], &parse_query(QUERIES[swapped % QUERIES.len()]).unwrap())
            .unwrap();
        let fresh_ticked = fresh.tick().unwrap();
        prop_assert_eq!(fresh_ticked[0].0, fresh_handle);
        let swapped_outcome = &ticked[swapped].1;
        let fresh_outcome = &fresh_ticked[0].1;
        prop_assert_eq!(&swapped_outcome.result, &fresh_outcome.result);
        prop_assert_eq!(&swapped_outcome.planned.preprocess.query, &fresh_outcome.planned.preprocess.query);
        prop_assert_eq!(&swapped_outcome.planned.plan, &fresh_outcome.planned.plan);
    }
}
