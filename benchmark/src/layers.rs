//! The per-layer replay of a traced run: every layer's public
//! functions called on the workload's own query, policy, window and
//! batch, and the loops the workload itself does not run, for a fixed
//! op count on the same inputs (a durable twin behind a counting
//! `Vfs`, a served twin, the one-shot pipeline, a policy swap). Repeat
//! counts depend only on `--seconds`, so every count repeats exactly.
//!
//! Timings are medians of spans the benchmark records around its own
//! calls; nothing here reads a counter the library keeps.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use paradise_core::storage::RealVfs;
use paradise_core::{assign_to_chain, fragment_query, postprocess, preprocess, Runtime};
use paradise_engine::{Catalog, Executor, Frame};
use paradise_policy::parse_policy;
use paradise_server::{Client, ServerConfig};
use paradise_sql::parse_query;

use crate::gen::UsersGen;
use crate::loops::{
    attach, drive, fresh_dir, remove_dir, Caller, DurableAt, LoopOut, Oneshot, Resident, Served,
    SNAPSHOT_EVERY,
};
use crate::scenario::{module_policy, Ctx, Res, Scenario, TABLE, USERS};
use crate::stats::median;
use crate::vfs::counting;

pub type Metrics = BTreeMap<String, f64>;

/// How often each kind of replay repeats, from `--seconds` alone.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Calls of a function that takes microseconds (parse, rewrite…).
    pub fast: usize,
    /// Calls of one that scans the whole window or touches the disk.
    pub heavy: usize,
    /// Ops of a twin loop: whole snapshot periods.
    pub loop_ops: u64,
}

impl Reps {
    pub fn for_seconds(seconds: f64) -> Reps {
        Reps {
            fast: ((20.0 * seconds) as usize).clamp(20, 200),
            heavy: ((3.0 * seconds) as usize).clamp(5, 30),
            loop_ops: SNAPSHOT_EVERY * ((seconds / 2.5).ceil() as u64).clamp(1, 4),
        }
    }
}

/// Median duration in µs of `n` calls of `f`.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    time_with_us(n, || (), |()| f())
}

/// Like [`time_us`], with an untimed `prepare` before every call.
fn time_with_us<I, T>(n: usize, mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            let out = black_box(f(black_box(input)));
            let elapsed = start.elapsed();
            drop(out);
            elapsed.as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Median duration (µs) of the spans named `name` in a loop's
/// recorders; `None` when it recorded no such span.
pub fn span_us(out: &LoopOut, name: &str) -> Option<f64> {
    let all: Vec<f64> = out
        .recorders
        .iter()
        .flat_map(|r| r.durations_us(name))
        .collect();
    (!all.is_empty()).then(|| median(&all))
}

/// Share and median of the ops slower than ten times the median: the
/// ticks that rebuild after a retention trim (some 45 medians long),
/// not the few-millisecond ops around them. Where no op is that slow
/// (a window that never reaches its retention), the share is 0 and the
/// second value is the slowest op there was.
pub fn slow_ops(lat_us: &[f64]) -> (f64, f64) {
    let p50 = median(lat_us);
    let slow: Vec<f64> = lat_us.iter().copied().filter(|l| *l > 10.0 * p50).collect();
    let slowest = lat_us.iter().copied().fold(0.0, f64::max);
    (
        slow.len() as f64 / lat_us.len().max(1) as f64,
        if slow.is_empty() {
            slowest
        } else {
            median(&slow)
        },
    )
}

/// Replay every layer on the scenario's inputs.
pub fn replay(sc: Scenario, seed: u64, reps: Reps) -> Res<Metrics> {
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let mut source = sc.source(seed);
    let window = source.frame(sc.window_rows);
    let batch = source.frame(sc.batch_rows);
    let (query, policy) = (sc.query(), sc.policy());

    // -- sql, policy, core: planning functions -------------------------
    let pre = preprocess(&query, &policy, &Default::default()).ctx("preprocess")?;
    let plan = fragment_query(&pre.query).ctx("fragment_query")?;
    let chain = sc.chain();
    let stages = assign_to_chain(&plan, &chain, Default::default()).ctx("assign_to_chain")?;
    let rewritten_sql = pre.query.to_string();
    put("sql.parse_us", time_us(reps.fast, || parse_query(sc.sql)));
    put(
        "sql.render_us",
        time_us(reps.fast, || (query.to_string(), pre.query.to_string())),
    );
    put(
        "policy.parse_xml_us",
        time_us(reps.fast, || parse_policy(sc.policy_xml)),
    );
    put(
        "core.preprocess_us",
        time_us(reps.fast, || {
            preprocess(&query, &policy, &Default::default())
        }),
    );
    put("core.preprocess_actions", pre.actions.len() as f64);
    put(
        "core.fragment_us",
        time_us(reps.fast, || fragment_query(&pre.query)),
    );
    put("core.fragment_count", plan.fragments.len() as f64);
    put(
        "core.assign_us",
        time_us(reps.fast, || {
            assign_to_chain(&plan, &chain, Default::default())
        }),
    );
    parse_query(&rewritten_sql).ctx("the rewritten query does not re-parse")?;

    // -- engine: the rewritten query over the window, and over one batch
    let catalog_of = |frame: &Frame| {
        let mut catalog = Catalog::new();
        catalog.register_or_replace(TABLE, frame.clone());
        catalog
    };
    let (over_window, over_batch) = (catalog_of(&window), catalog_of(&batch));
    Executor::new(&over_window)
        .execute(&pre.query)
        .ctx("execute rewritten query")?;
    put(
        "engine.exec_window_us",
        time_us(reps.heavy, || {
            Executor::new(&over_window).execute(&pre.query)
        }),
    );
    put(
        "engine.exec_batch_us",
        time_us(reps.fast, || Executor::new(&over_batch).execute(&pre.query)),
    );

    // -- nodes, postprocess: the assigned stages on a fresh chain, as a
    //    one-shot run meets them (plans are compiled inside)
    let shipped = sc
        .chain_from(Some(window.clone()))
        .run_stages(&stages)
        .ctx("run_stages")?
        .result;
    put(
        "nodes.run_stages_us",
        time_with_us(
            reps.heavy,
            || sc.chain_from(Some(window.clone())),
            |mut chain| chain.run_stages(&stages),
        ),
    );
    put(
        "core.postprocess_us",
        time_with_us(
            reps.heavy,
            || shipped.clone(),
            |frame| postprocess(frame, &Default::default()),
        ),
    );

    // -- one-shot pipeline and the cloud baseline ---------------------
    let mut oneshot = Oneshot::setup(
        Scenario {
            warmup_ops: 2,
            ..sc
        },
        seed,
    )?;
    let shots = run_twin(&mut oneshot, reps.heavy as u64)?;
    put("core.runtime.oneshot_us", median(&shots.lat_us));
    put(
        "core.runtime.register_us",
        twin_span_us(&shots, "core.runtime.register")?,
    );
    put(
        "core.runtime.first_tick_us",
        twin_span_us(&shots, "core.runtime.first_tick")?,
    );
    let mut runtime = sc.runtime();
    runtime
        .install_source(sc.node(), TABLE, window.clone())
        .ctx("install_source")?;
    let integrated = runtime.integrated_catalog();
    Executor::new(&integrated)
        .execute(&query)
        .ctx("cloud baseline")?;
    put(
        "engine.cloud_baseline_us",
        time_us(reps.heavy, || Executor::new(&integrated).execute(&query)),
    );
    runtime.register(sc.module, &query).ctx("register")?;
    let outcome = runtime.tick().ctx("tick")?.remove(0).1;
    let sensor_rows = outcome.stage_reports.first().map_or(0, |r| r.rows_out);
    put(
        "nodes.sensor_rows_out_share",
        sensor_rows as f64 / window.len() as f64,
    );
    put(
        "nodes.shipped_bytes_per_op",
        outcome.traffic.total_bytes() as f64,
    );
    put(
        "nodes.egress_bytes_share",
        outcome.post.frame.size_bytes() as f64 / window.size_bytes() as f64,
    );

    // -- live policy swap on the resident runtime, and the tick that re-plans
    let swaps = [module_policy(sc.policy_b_xml), policy];
    let (mut swap_us, mut replan_us) = (Vec::new(), Vec::new());
    for i in 0..reps.heavy {
        let next = swaps[i % 2].clone();
        let start = Instant::now();
        runtime.set_policy(sc.module, next);
        swap_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        runtime.tick().ctx("tick after policy swap")?;
        replan_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    put("core.runtime.set_policy_us", median(&swap_us));
    put("core.runtime.replan_tick_us", median(&replan_us));
    drop(runtime);

    // -- resident loop in process: ingest + tick -----------------------
    let mut resident = Resident::setup(sc, seed, None)?;
    let plain = run_twin(&mut resident, reps.loop_ops)?;
    resident.check()?;
    let plain_tick_us = twin_span_us(&plain, "core.runtime.tick")?;
    put(
        "core.runtime.ingest_us",
        twin_span_us(&plain, "core.runtime.ingest")?,
    );
    put("core.runtime.tick_us", plain_tick_us);
    let (slow_share, slow_p50) = slow_ops(&plain.lat_us);
    put("core.runtime.slow_tick_share", slow_share);
    put("core.runtime.slow_tick_p50_us", slow_p50);
    put("server.inproc_op_us", median(&plain.lat_us));

    // -- core.storage: the same loop, durable, behind a counting Vfs ----
    let dir = fresh_dir("replay-durable")?;
    let (vfs, counts) = counting(RealVfs::shared());
    let at = DurableAt {
        dir: dir.clone(),
        vfs: Some(vfs),
    };
    let mut durable = Resident::setup(sc, seed, Some(at))?;
    let before = counts.totals();
    let logged = run_twin(&mut durable, reps.loop_ops)?;
    let after = counts.totals();
    let ops = logged.lat_us.len() as f64;
    put(
        "core.storage.write_bytes_per_row",
        (after.bytes_written - before.bytes_written) as f64 / (ops * sc.batch_rows as f64),
    );
    put(
        "core.storage.fsyncs_per_op",
        (after.fsyncs - before.fsyncs) as f64 / ops,
    );
    put(
        "core.storage.vfs_busy_share",
        (after.busy_ns - before.busy_ns) as f64 / 1e3 / logged.lat_us.iter().sum::<f64>(),
    );
    put(
        "core.storage.tick_tax_us",
        twin_span_us(&logged, "core.runtime.tick")? - plain_tick_us,
    );
    durable.runtime.snapshot().ctx("snapshot")?;
    put(
        "core.storage.snapshot_ms",
        time_us(reps.heavy, || durable.runtime.snapshot()) / 1e3,
    );
    // half a period of log for recovery to replay on top of the snapshot
    run_twin(&mut durable, SNAPSHOT_EVERY / 2)?;
    let retained = durable
        .runtime
        .integrated_catalog()
        .get(TABLE)
        .ctx("window")?
        .size_bytes();
    put(
        "core.storage.dir_bytes_per_retained_byte",
        dir_bytes(&dir)? as f64 / retained as f64,
    );
    drop(durable); // releases the directory lock
    let at = DurableAt {
        dir: dir.clone(),
        vfs: None,
    };
    attach(sc.runtime(), &at)?;
    put(
        "core.storage.recover_ms",
        time_us(reps.heavy, || attach(sc.runtime(), &at)) / 1e3,
    );
    remove_dir(&dir)?;

    // -- server: the same ops over localhost TCP ------------------------
    let mut served = Served::setup(sc, seed)?;
    let mut probe = Client::connect(served.addr()).ctx("connect")?;
    probe
        .hello(ServerConfig::default().overload, None)
        .ctx("hello")?;
    probe.ping().ctx("ping")?;
    put("server.ping_rtt_us", time_us(reps.fast, || probe.ping()));
    drop(probe);
    let wire = served.run(reps.loop_ops, true, Instant::now());
    if let Some(e) = &wire.first_error {
        return Err(format!("served twin: {e}"));
    }
    served.check()?;
    m.insert(
        "server.ingest_rtt_us".into(),
        twin_span_us(&wire, "server.ingest_rtt")?,
    );
    m.insert(
        "server.tick_rtt_us".into(),
        twin_span_us(&wire, "server.tick_rtt")?,
    );
    put_served(&mut m, &wire);
    Ok(m)
}

/// The `server.*` metrics one served loop gives beyond its span medians.
pub fn put_served(m: &mut Metrics, wire: &LoopOut) {
    m.insert("server.op_us".into(), median(&wire.lat_us));
    // each tenant's median op, from the `bench.op` spans of its thread
    let mut by_tenant: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for rec in &wire.recorders {
        by_tenant
            .entry(rec.tid())
            .or_default()
            .extend(rec.durations_us("bench.op"));
    }
    let (lo, hi) = by_tenant
        .values()
        .map(|lat| median(lat))
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
            (lo.min(p), hi.max(p))
        });
    m.insert("server.client_p50_skew".into(), hi / lo);
    m.insert("server.retries".into(), wire.failed as f64);
}

/// What follows from the measured values; computed last, after the
/// workload's own spans have replaced the replay's where it has them.
pub fn derive(m: &mut Metrics) {
    let v = |m: &Metrics, name: &str| m[name];
    let tick_minus_engine = v(m, "core.runtime.tick_us") - v(m, "engine.exec_batch_us");
    m.insert(
        "core.runtime.tick_minus_engine_us".into(),
        tick_minus_engine,
    );
    let planned = v(m, "core.preprocess_us")
        + v(m, "core.fragment_us")
        + v(m, "core.assign_us")
        + v(m, "nodes.run_stages_us")
        + v(m, "core.postprocess_us");
    m.insert(
        "core.runtime.oneshot_self_us".into(),
        v(m, "core.runtime.oneshot_us") - planned,
    );
    let overhead = v(m, "core.runtime.oneshot_us") / v(m, "engine.cloud_baseline_us");
    m.insert("core.overhead_vs_cloud".into(), overhead);
    let wire_tax = v(m, "server.op_us") - v(m, "server.inproc_op_us");
    m.insert("server.wire_tax_us".into(), wire_tax);
}

fn twin_span_us(out: &LoopOut, name: &str) -> Res<f64> {
    span_us(out, name).ok_or_else(|| format!("the twin loop recorded no {name} span"))
}

/// Run a single-caller twin traced, failing on its first failed op.
fn run_twin(caller: &mut impl Caller, ops: u64) -> Res<LoopOut> {
    let out = drive(caller, ops, true, Instant::now(), 0);
    match &out.first_error {
        Some(e) => Err(format!("twin loop: {e}")),
        None => Ok(out),
    }
}

fn dir_bytes(dir: &std::path::Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).ctx("read_dir")? {
        total += entry.ctx("read_dir")?.metadata().ctx("metadata")?.len();
    }
    Ok(total)
}

/// The partition-parallel "many users" shape, ungated: the same ticks
/// with the stream split four ways and not split. Its inputs belong to
/// no workload, so `run --trace` measures it once, beside the
/// workloads; read it with `nproc`.
pub fn sharded(reps: Reps) -> Res<Metrics> {
    const MANY_USERS: u64 = 262_144;
    const BATCH_ROWS: usize = 8_192;
    // the selective policy variant: few users pass its threshold, so a
    // tick is the fold, not the release of a quarter-million-row result
    let sc = Scenario {
        stream: crate::scenario::Stream::Users(MANY_USERS),
        policy_xml: USERS.policy_b_xml,
        ..USERS
    };
    let mut tick_us = [0.0; 2];
    for (slot, shards) in [(0, 4), (1, 1)] {
        let mut source = UsersGen::new(1, MANY_USERS);
        let mut runtime: Runtime = Runtime::new(sc.chain())
            .with_policy(sc.module, sc.policy())
            .with_retention(4 * MANY_USERS as usize)
            .with_partitioning("uid", shards);
        runtime
            .install_source(sc.node(), TABLE, source.frame(MANY_USERS as usize))
            .ctx("install_source")?;
        runtime.register(sc.module, &sc.query()).ctx("register")?;
        runtime.tick().ctx("first tick")?;
        let mut samples = Vec::new();
        for _ in 0..reps.heavy {
            runtime
                .ingest(sc.node(), TABLE, source.frame(BATCH_ROWS))
                .ctx("ingest")?;
            let start = Instant::now();
            black_box(runtime.tick().ctx("tick")?);
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        tick_us[slot] = median(&samples);
    }
    Ok(Metrics::from([
        ("engine.sharded_tick_us".to_string(), tick_us[0]),
        ("engine.serial_tick_us".to_string(), tick_us[1]),
        ("engine.shard_speedup".to_string(), tick_us[1] / tick_us[0]),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_depend_on_seconds_only_and_loops_cover_whole_snapshot_periods() {
        let r = Reps::for_seconds(10.0);
        assert_eq!((r.fast, r.heavy, r.loop_ops), (200, 30, 256));
        let r = Reps::for_seconds(0.1);
        assert_eq!((r.fast, r.heavy, r.loop_ops), (20, 5, 64));
        assert_eq!(Reps::for_seconds(60.0).loop_ops % SNAPSHOT_EVERY, 0);
    }

    #[test]
    fn slow_ops_are_those_beyond_ten_medians() {
        let mut lat = vec![10.0; 96];
        lat.extend([400.0, 500.0, 600.0, 99.0]);
        let (share, p50) = slow_ops(&lat);
        assert_eq!(share, 0.03);
        assert_eq!(p50, 500.0);
        assert_eq!(slow_ops(&[1.0, 2.0]), (0.0, 2.0));
    }
}
