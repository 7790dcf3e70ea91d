//! Utility/equivalence pins for the differential-privacy rewrite mode:
//! `ε = ∞` (and DP off) must be **bitwise** identical to the exact
//! engine across serial/sharded execution; fixed-seed noisy results
//! must be deterministic across shard counts, bitwise equal to the
//! test-side reference's `apply_laplace` output, and inside analytic
//! Laplace tail bounds; and the
//! epsilon ledger must survive kill-and-recover without regaining a
//! single spent epsilon (replaying bitwise-identical noise).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use paradise::prelude::*;

#[path = "support/reference.rs"]
mod reference;
use reference::reference;

const DP_QUERY: &str =
    "SELECT x, COUNT(*) AS n, SUM(z) AS sz, AVG(z) AS az FROM stream GROUP BY x ORDER BY x";

/// Clamp bounds used throughout; the generated `z` never leaves them,
/// so clamping is semantically a no-op and the exact run is a valid
/// noise-free reference for the clamped noisy run.
const CLAMP: (f64, f64) = (-4.0, 8.0);

fn scratch(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "dp-rewrite-{}-{name}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic stream batches; `z` stays inside [`CLAMP`].
fn users(seed: u64, rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[
        ("x", DataType::Integer),
        ("y", DataType::Integer),
        ("z", DataType::Integer),
        ("t", DataType::Integer),
    ]);
    let mut s = seed;
    let data = (0..rows)
        .map(|i| {
            let x = (splitmix(&mut s) % 7) as i64;
            let y = (splitmix(&mut s) % 5) as i64;
            let z = (splitmix(&mut s) % 13) as i64 - 4; // in [-4, 8]
            let t = (seed * 1_000_000 + i as u64) as i64;
            vec![Value::Int(x), Value::Int(y), Value::Int(z), Value::Int(t)]
        })
        .collect();
    Frame::new(schema, data).unwrap()
}

/// Allow-all policy (no structural rewriting) with an optional DP
/// config — differences between runs are then exactly the DP layer's.
fn policy(module: &str, dp: Option<DpConfig>) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    for attr in ["x", "y", "z", "t"] {
        m.attributes.push(AttributeRule::allowed(attr));
    }
    m.dp = dp;
    m
}

fn runtime(shards: usize, dp: Option<DpConfig>) -> Runtime {
    let mut rt =
        Runtime::new(ProcessingChain::apartment()).with_policy("Mod", policy("Mod", dp));
    if shards > 1 {
        rt = rt.with_partitioning("x", shards);
    }
    rt.install_source("motion-sensor", "stream", users(3, 200)).unwrap();
    rt
}

/// Fixed schedule: register, then ingest+tick rounds; returns each
/// tick's result rows.
fn run_schedule(rt: &mut Runtime, ticks: u64) -> Vec<Vec<Row>> {
    run_schedule_checked(rt, ticks, |_, _, _| {})
}

/// [`run_schedule`], handing every tick's outcome (with the runtime as
/// it stands right after the tick) to `check`.
fn run_schedule_checked(
    rt: &mut Runtime,
    ticks: u64,
    mut check: impl FnMut(&Runtime, QueryHandle, &Outcome),
) -> Vec<Vec<Row>> {
    let handle = rt.register("Mod", &parse_query(DP_QUERY).unwrap()).unwrap();
    (0..ticks)
        .map(|round| {
            rt.ingest("motion-sensor", "stream", users(100 + round, 60)).unwrap();
            let outcome = rt.tick().unwrap().remove(0).1;
            check(rt, handle, &outcome);
            outcome.result.to_rows()
        })
        .collect()
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

// --------------------------------------------------------------------
// bitwise equality in the exact limits
// --------------------------------------------------------------------

/// DP off and `ε = ∞` (even with clamp bounds configured) must be
/// bitwise-equal to the exact engine, across shard counts {1, 4} — and
/// must neither spend budget nor draw noise.
#[test]
fn dp_off_and_infinite_epsilon_match_the_exact_engine_bitwise() {
    for shards in [1usize, 4] {
        let exact = run_schedule(&mut runtime(shards, None), 4);
        for dp in [
            DpConfig::new(f64::INFINITY, f64::INFINITY),
            DpConfig::new(f64::INFINITY, f64::INFINITY).with_clamp(CLAMP.0, CLAMP.1),
        ] {
            let mut rt = runtime(shards, Some(dp));
            let got = run_schedule(&mut rt, 4);
            assert_eq!(got, exact, "shards={shards}: ε=∞ must be bitwise exact");
            let stats = rt.stats();
            assert_eq!(stats.dp_noise_draws, 0, "ε=∞ draws no noise");
            assert_eq!(stats.dp_epsilon_spent_micro, 0, "ε=∞ spends no budget");
            assert!(rt.epsilon_ledger("Mod").is_none(), "nothing was ever spent");
        }
    }
}

// --------------------------------------------------------------------
// noisy determinism + calibration
// --------------------------------------------------------------------

fn noisy_config() -> DpConfig {
    DpConfig::new(1.0, f64::INFINITY).with_clamp(CLAMP.0, CLAMP.1)
}

/// Fixed-seed noisy ticks are deterministic: identical runs agree
/// bitwise, serial and sharded execution produce the same noisy bytes
/// (shard merge happens pre-noise and the seed depends only on
/// (handle, ledger position)) — and every tick equals, bitwise, the
/// reference's `apply_laplace` over a full re-execution.
#[test]
fn noisy_results_are_deterministic_and_equal_the_reference_bitwise() {
    let first_run = run_schedule(&mut runtime(1, Some(noisy_config())), 4);
    let module = policy("Mod", Some(noisy_config()));
    let query = parse_query(DP_QUERY).unwrap();
    for shards in [1usize, 4] {
        let mut rt = runtime(shards, Some(noisy_config()));
        let got = run_schedule_checked(&mut rt, 4, |rt, handle, got| {
            let expect = reference(rt, &module, &query, None, Some(handle)).unwrap();
            assert_eq!(got.result, expect.result, "shards={shards}: noisy tick != reference");
            assert_eq!(got.shipped, expect.shipped, "shards={shards}: noisy shipped != reference");
        });
        assert_eq!(got, first_run, "shards={shards}: noisy ticks must be deterministic");
        let stats = rt.stats();
        assert!(stats.dp_noise_draws > 0, "the noisy path must actually draw");
        assert_eq!(stats.dp_epsilon_spent_micro, 4_000_000, "4 ticks × ε=1.0");
    }
}

/// Noise is calibrated: every noisy aggregate sits within the analytic
/// Laplace tail bound of its exact counterpart. With scale `b`,
/// `P(|Lap(b)| > 40b) = e^{-40} ≈ 4·10⁻¹⁸` — a violation is a bug, not
/// bad luck. Group keys must pass through exactly.
#[test]
fn noisy_aggregates_sit_inside_analytic_tail_bounds() {
    let exact = run_schedule(&mut runtime(1, None), 4);
    let noisy = run_schedule(&mut runtime(1, Some(noisy_config())), 4);

    // ε=1 split over 3 noised columns → ε_col = 1/3:
    //   COUNT: Δ=1            → b =  3
    //   SUM:   Δ=max(4, 8)=8  → b = 24
    //   AVG:   Δ=8-(-4)=12    → b = 36
    let bounds = [3.0 * 40.0, 24.0 * 40.0, 36.0 * 40.0];

    let mut saw_difference = false;
    for (tick, (er, nr)) in exact.iter().zip(&noisy).enumerate() {
        assert_eq!(er.len(), nr.len(), "tick {tick}: group keys are exact → same groups");
        for (e_row, n_row) in er.iter().zip(nr) {
            assert_eq!(e_row[0], n_row[0], "tick {tick}: group key must pass through exactly");
            for (col, bound) in bounds.iter().enumerate() {
                let (e, n) = (as_f64(&e_row[col + 1]), as_f64(&n_row[col + 1]));
                assert!(
                    (e - n).abs() <= *bound,
                    "tick {tick} col {col}: |{e} - {n}| exceeds the 40b tail bound {bound}"
                );
                saw_difference |= e != n;
            }
        }
    }
    assert!(saw_difference, "finite ε must actually perturb something");

    // noisy COUNT stays a non-negative integer
    for row in noisy.iter().flatten() {
        assert!(matches!(&row[1], Value::Int(n) if *n >= 0), "COUNT domain: {:?}", row[1]);
    }
}

// --------------------------------------------------------------------
// budget exhaustion
// --------------------------------------------------------------------

/// A finite budget is spent once per module per tick; the tick that
/// would overdraw fails with the typed error *before* spending, and a
/// live swap to a larger budget resumes from the same cumulative spend
/// (no refunds).
#[test]
fn budget_exhaustion_is_typed_and_swapping_a_larger_budget_resumes() {
    let mut rt = runtime(1, Some(DpConfig::new(1.0, 3.0).with_clamp(CLAMP.0, CLAMP.1)));
    rt.register("Mod", &parse_query(DP_QUERY).unwrap()).unwrap();
    for _ in 0..3 {
        rt.ingest("motion-sensor", "stream", users(7, 40)).unwrap();
        rt.tick().unwrap();
    }
    let ledger = rt.epsilon_ledger("Mod").expect("three spends");
    assert_eq!(ledger.seq(), 3);
    assert!((ledger.spent() - 3.0).abs() < 1e-9);

    // the atomic tick fails closed, leaving the ledger untouched
    match rt.tick() {
        Err(CoreError::BudgetExhausted { module, spent, budget }) => {
            assert_eq!(module, "Mod");
            assert!((spent - 3.0).abs() < 1e-9);
            assert!((budget - 3.0).abs() < 1e-9);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert_eq!(rt.epsilon_ledger("Mod").unwrap().seq(), 3, "a refused tick spends nothing");
    assert_eq!(rt.stats().dp_budget_exhausted, 1);

    // a larger budget un-quarantines without refunding spent epsilon
    rt.set_policy("Mod", policy("Mod", Some(DpConfig::new(1.0, 5.0).with_clamp(CLAMP.0, CLAMP.1))));
    rt.tick().unwrap();
    let ledger = rt.epsilon_ledger("Mod").unwrap();
    assert_eq!(ledger.seq(), 4);
    assert!((ledger.spent() - 4.0).abs() < 1e-9, "spend continues, never resets");
}

/// Under `tick_each` (the server's isolating mode) an exhausted module
/// quarantines its own handle while an exact module on the same stream
/// keeps producing results.
#[test]
fn exhaustion_quarantines_only_the_dp_module() {
    let mut rt = Runtime::new(ProcessingChain::apartment())
        .with_policy("DpMod", policy("DpMod", Some(DpConfig::new(1.0, 1.0).with_clamp(CLAMP.0, CLAMP.1))))
        .with_policy("ExactMod", policy("ExactMod", None));
    rt.install_source("motion-sensor", "stream", users(3, 120)).unwrap();
    let dp_handle = rt.register("DpMod", &parse_query(DP_QUERY).unwrap()).unwrap();
    let exact_handle = rt.register("ExactMod", &parse_query(DP_QUERY).unwrap()).unwrap();

    // tick 1: both fine (budget covers exactly one spend)
    for (_, result) in rt.tick_each(&[dp_handle, exact_handle]).unwrap() {
        result.expect("first tick is within budget");
    }
    // tick 2: the DP handle carries the typed error, the exact one works
    let results = rt.tick_each(&[dp_handle, exact_handle]).unwrap();
    for (handle, result) in results {
        if handle == dp_handle {
            assert!(
                matches!(result, Err(CoreError::BudgetExhausted { .. })),
                "the DP handle must fail typed"
            );
        } else {
            assert_eq!(handle, exact_handle);
            assert!(!result.unwrap().result.to_rows().is_empty(), "the exact tenant is unaffected");
        }
    }
}

/// A scoped tick runs and bills only the handles it names. Module A's
/// handle ticks 100× beside module B's; B's ledger `(seq, spent)` does
/// not move, and B's later noisy results are bitwise those of a runtime
/// that never ticks A.
#[test]
fn a_scoped_tick_never_bills_an_unnamed_module() {
    let setup = || {
        let dp = DpConfig::new(0.5, 100.0).with_clamp(CLAMP.0, CLAMP.1);
        let mut rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("A", policy("A", Some(dp)))
            .with_policy("B", policy("B", Some(dp)));
        rt.install_source("motion-sensor", "stream", users(5, 120)).unwrap();
        let query = parse_query(DP_QUERY).unwrap();
        let a = rt.register("A", &query).unwrap();
        let b = rt.register("B", &query).unwrap();
        (rt, a, b)
    };
    let tick_b = |rt: &mut Runtime, b: QueryHandle, round: u64| -> Vec<Row> {
        rt.ingest("motion-sensor", "stream", users(900 + round, 30)).unwrap();
        let (handle, result) = rt.tick_each(&[b]).unwrap().remove(0);
        assert_eq!(handle, b);
        result.expect("B is within budget").result.to_rows()
    };
    let (mut rt, a, b) = setup();
    let (mut alone, _, b_alone) = setup();
    assert_eq!(b, b_alone, "both runtimes seed B's noise from the same handle id");

    let (mut got, mut expect) = (vec![tick_b(&mut rt, b, 0)], vec![tick_b(&mut alone, b, 0)]);
    let before = rt.epsilon_ledger("B").expect("B ticked once");
    for _ in 0..100 {
        let ticked = rt.tick_each(&[a]).unwrap();
        assert_eq!(ticked.len(), 1, "a scoped tick answers only the named handle");
        assert!(ticked[0].0 == a && ticked[0].1.is_ok());
    }
    let a_ledger = rt.epsilon_ledger("A").unwrap();
    assert_eq!((a_ledger.seq(), a_ledger.spent()), (100, 50.0));
    let after = rt.epsilon_ledger("B").unwrap();
    assert_eq!((after.seq(), after.spent()), (before.seq(), before.spent()), "B was not billed");
    assert_eq!((before.seq(), before.spent()), (1, 0.5));

    for round in 1..4 {
        got.push(tick_b(&mut rt, b, round));
        expect.push(tick_b(&mut alone, b, round));
    }
    assert_eq!(got, expect, "B's noisy results do not depend on A's ticks");
    assert_eq!(rt.epsilon_ledger("B"), alone.epsilon_ledger("B"));
    assert_eq!(alone.epsilon_ledger("A"), None, "the B-only runtime never ticked A");
}

// --------------------------------------------------------------------
// kill-and-recover
// --------------------------------------------------------------------

/// The ledger is durable: killing a DP runtime and reopening its
/// directory preserves the cumulative spend (never resets it), the
/// continuation replays **bitwise-identical** noisy results (seeds
/// derive from the recovered ledger position), and the budget runs out
/// at exactly the same tick as the uninterrupted reference.
#[test]
fn kill_and_recover_regains_no_budget_and_replays_identical_noise() {
    let config = DpConfig::new(1.0, 5.0).with_clamp(CLAMP.0, CLAMP.1);
    let make = |dir: Option<&PathBuf>| -> Runtime {
        let rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("Mod", policy("Mod", Some(config)));
        let mut rt = match dir {
            Some(dir) => rt.durable(dir).unwrap(),
            None => rt,
        };
        if rt.registered() == 0 {
            rt.install_source("motion-sensor", "stream", users(3, 200)).unwrap();
            rt.register("Mod", &parse_query(DP_QUERY).unwrap()).unwrap();
        }
        rt
    };
    let tick_round = |rt: &mut Runtime, round: u64| -> Vec<Row> {
        rt.ingest("motion-sensor", "stream", users(500 + round, 50)).unwrap();
        rt.tick().unwrap()[0].1.result.to_rows()
    };

    // uninterrupted in-memory reference: 5 ticks, then exhaustion
    let mut reference = make(None);
    let expect: Vec<_> = (0..5).map(|r| tick_round(&mut reference, r)).collect();
    assert!(matches!(reference.tick(), Err(CoreError::BudgetExhausted { .. })));

    // durable run killed after tick 3
    let dir = scratch("ledger");
    let mut rt = make(Some(&dir));
    for (r, want) in expect.iter().enumerate().take(3) {
        assert_eq!(&tick_round(&mut rt, r as u64), want, "pre-crash tick {r}");
    }
    drop(rt); // crash point

    let mut rt = make(Some(&dir));
    assert!(rt.durability_stats().unwrap().recovered);
    let ledger = rt.epsilon_ledger("Mod").expect("recovered ledger");
    assert_eq!(ledger.seq(), 3, "spend sequence survives the crash");
    assert!((ledger.spent() - 3.0).abs() < 1e-9, "recovery must not regain spent budget");

    // the continuation replays the reference's noise bitwise …
    for (r, want) in expect.iter().enumerate().skip(3) {
        assert_eq!(&tick_round(&mut rt, r as u64), want, "post-recovery tick {r}");
    }
    // … and exhausts at exactly the same tick
    match rt.tick() {
        Err(CoreError::BudgetExhausted { spent, budget, .. }) => {
            assert!((spent - 5.0).abs() < 1e-9);
            assert!((budget - 5.0).abs() < 1e-9);
        }
        other => panic!("expected BudgetExhausted after recovery, got {other:?}"),
    }
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second kill *between* the recovered ticks (double crash) still
/// lands on the same trajectory: spends are group-committed with the
/// tick that made them, so a crash can never report results whose
/// budget was not durably spent.
#[test]
fn double_crash_never_double_spends_or_resets() {
    let config = DpConfig::new(1.0, f64::INFINITY).with_clamp(CLAMP.0, CLAMP.1);
    let dir = scratch("double");
    let build = || -> Runtime {
        Runtime::new(ProcessingChain::apartment())
            .with_policy("Mod", policy("Mod", Some(config)))
            .durable(&dir)
            .unwrap()
    };

    let mut rt = build();
    rt.install_source("motion-sensor", "stream", users(3, 100)).unwrap();
    rt.register("Mod", &parse_query(DP_QUERY).unwrap()).unwrap();
    rt.ingest("motion-sensor", "stream", users(601, 40)).unwrap();
    let first = rt.tick().unwrap()[0].1.result.to_rows();
    drop(rt);

    let mut rt = build();
    assert_eq!(rt.epsilon_ledger("Mod").unwrap().seq(), 1);
    let second = rt.tick().unwrap()[0].1.result.to_rows();
    drop(rt);

    let mut rt = build();
    assert_eq!(rt.epsilon_ledger("Mod").unwrap().seq(), 2, "both spends survived");
    let third = rt.tick().unwrap()[0].1.result.to_rows();
    assert_eq!(rt.epsilon_ledger("Mod").unwrap().seq(), 3);

    // no ingest between the ticks: the exact answer is static, so any
    // difference between the three is exactly the per-tick fresh noise
    assert_ne!(first, second, "each tick draws from a fresh seed");
    assert_ne!(second, third, "each recovered tick advances the seed");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}
