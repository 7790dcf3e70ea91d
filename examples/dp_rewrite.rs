//! Differential-privacy rewrite mode: two assistive modules watch the
//! same sensor stream — one exact, one under a [`DpConfig`] with a
//! small epsilon budget. The DP module's COUNT/SUM/AVG come back
//! noise-calibrated, its per-module budget decays tick by tick, and
//! the tick that would overdraw fails with the typed
//! `BudgetExhausted` error while the exact module keeps running. A
//! tick bills only the handles it names: ticking the exact module
//! alone leaves the DP module's ledger where it was.
//!
//! Run with `cargo run --example dp_rewrite`.

use paradise::prelude::*;

const QUERY: &str =
    "SELECT x, COUNT(*) AS n, SUM(z) AS sz, AVG(z) AS az FROM stream GROUP BY x ORDER BY x";

fn policy(module: &str, dp: Option<DpConfig>) -> ModulePolicy {
    let mut m = ModulePolicy::new(module);
    for attr in ["x", "z"] {
        m.attributes.push(AttributeRule::allowed(attr));
    }
    m.dp = dp;
    m
}

fn batch(seed: i64, rows: usize) -> Frame {
    let schema = Schema::from_pairs(&[("x", DataType::Integer), ("z", DataType::Integer)]);
    let data = (0..rows as i64)
        .map(|i| vec![Value::Int((seed + i) % 3), Value::Int((seed * 31 + i * 7) % 13 - 4)])
        .collect();
    Frame::new(schema, data).unwrap()
}

fn render(frame: &Frame) -> String {
    frame
        .to_rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Float(f) => format!("{f:.2}"),
                    other => format!("{other:?}"),
                })
                .collect();
            format!("({})", cells.join(", "))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    // ε = 1.0 per tick against a total budget of 3.0: three noisy
    // releases, then the module is out of privacy budget. Clamping
    // each row's z to [-4, 8] bounds the sensitivity the Laplace
    // scales are calibrated from.
    let dp = DpConfig::new(1.0, 3.0).with_clamp(-4.0, 8.0);

    let mut runtime = Runtime::new(ProcessingChain::apartment())
        .with_policy("Exact", policy("Exact", None))
        .with_policy("Noisy", policy("Noisy", Some(dp)));
    runtime.install_source("motion-sensor", "stream", batch(1, 60)).unwrap();

    let query = parse_query(QUERY).unwrap();
    let exact = runtime.register("Exact", &query).unwrap();
    let noisy = runtime.register("Noisy", &query).unwrap();

    for round in 0..4i64 {
        runtime.ingest("motion-sensor", "stream", batch(10 + round, 30)).unwrap();
        println!("tick {}:", round + 1);
        // tick_each = per-handle isolation, like the TCP server uses:
        // an exhausted module quarantines alone.
        for (handle, result) in runtime.tick_each(&[exact, noisy]).unwrap() {
            let who = if handle == exact { "exact" } else { "noisy" };
            match result {
                Ok(outcome) => println!("  {who:>5}: {}", render(&outcome.result)),
                Err(e) => println!("  {who:>5}: {e}"),
            }
        }
        match runtime.epsilon_ledger("Noisy") {
            Some(ledger) => println!(
                "  budget: spent ε={:.1}, remaining ε={:.1}",
                ledger.spent(),
                ledger.remaining(&dp)
            ),
            None => println!("  budget: untouched"),
        }
    }

    // A tick runs and bills only the handles it names: ticking `Exact`
    // alone leaves `Noisy`'s ledger (sequence and spend) unchanged.
    let before = runtime.epsilon_ledger("Noisy").unwrap();
    runtime.ingest("motion-sensor", "stream", batch(20, 30)).unwrap();
    let (_, result) = runtime.tick_each(&[exact]).unwrap().remove(0);
    println!("exact alone: {}", render(&result.unwrap().result));
    let after = runtime.epsilon_ledger("Noisy").unwrap();
    assert_eq!(after, before, "ticking Exact must not bill Noisy");
    println!("  noisy ledger unchanged: seq {}, spent ε={:.1}", after.seq(), after.spent());

    // Swapping in a larger budget un-quarantines the module — without
    // refunding a single spent epsilon.
    let bigger = DpConfig::new(1.0, 5.0).with_clamp(-4.0, 8.0);
    runtime.set_policy("Noisy", policy("Noisy", Some(bigger)));
    let (_, result) = runtime.tick_each(&[noisy]).unwrap().remove(0);
    println!("after raising the budget to ε=5.0:");
    println!("  noisy: {}", render(&result.unwrap().result));
    let ledger = runtime.epsilon_ledger("Noisy").unwrap();
    println!("  budget: spent ε={:.1} (spend is cumulative, never reset)", ledger.spent());

    let stats = runtime.stats();
    println!(
        "runtime counters: {} noise draws, {} µε spent, {} exhausted tick(s)",
        stats.dp_noise_draws, stats.dp_epsilon_spent_micro, stats.dp_budget_exhausted
    );
}
