//! The four closed loops the workloads are made of, each generic over a
//! [`Scenario`]: a resident runtime fed batch by batch (optionally
//! durable), the one-shot pipeline, policy churn, and tenants served
//! over TCP. A workload runs its own loop; the per-layer replay runs
//! the others, shorter, on the same inputs. Every loop has a fixed op
//! count, so counts and digests repeat exactly.
//!
//! All loops are closed: a caller issues its next op only after the
//! previous one returned. Input generation happens between ops and is
//! not timed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paradise_core::storage::Vfs;
use paradise_core::{QueryHandle, Runtime};
use paradise_engine::Frame;
use paradise_policy::parse_policy;
use paradise_server::{IngestAck, RetryClient, RetryConfig, Server, ServerConfig};
use paradise_sql::ast::Query;
use paradise_sql::parse_query;

use crate::scenario::{digest, Ctx, Res, Scenario, Source, CHURN_RESIDENT_SQL, CHURN_SQL, TABLE};
use crate::trace::Recorder;

/// Index (counted from the first op after warm-up) of the op whose
/// result is digested; every measured loop runs at least this far.
pub const DIGEST_OP: u64 = 64;

/// Automatic snapshot cadence of the durable loop, in ticks.
pub const SNAPSHOT_EVERY: u64 = 64;

/// What one or more runs of a loop measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Latency of every op that succeeded, µs, all callers pooled.
    pub lat_us: Vec<f64>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub recorders: Vec<Recorder>,
}

impl LoopOut {
    pub fn attempted(&self) -> u64 {
        self.lat_us.len() as u64 + self.failed
    }

    pub fn merge(&mut self, other: LoopOut) {
        self.lat_us.extend(other.lat_us);
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        self.recorders.extend(other.recorders);
    }
}

/// Where a caller is in its measured ops, and the digest it took.
#[derive(Debug, Default)]
pub struct Progress {
    ops_done: u64,
    /// Digest of the result of op [`DIGEST_OP`], once that op ran.
    pub digest: Option<u64>,
}

impl Progress {
    /// The id of the op that starts now.
    fn next_op(&mut self) -> u64 {
        self.ops_done += 1;
        self.ops_done - 1
    }

    /// Op `id` gave `result`.
    fn record(&mut self, id: u64, result: &Frame) {
        if id == DIGEST_OP {
            self.digest = Some(digest(result));
        }
    }
}

/// One synchronous caller: `op` prepares its input untimed, performs
/// one operation inside a `bench.op` span and returns its latency.
pub trait Caller {
    fn op(&mut self, rec: &mut Recorder) -> Res<Duration>;
    fn progress(&mut self) -> &mut Progress;
}

/// Run the untimed warm-up ops, then start counting measured ops.
fn warm_up(caller: &mut impl Caller, ops: u64) -> Res<()> {
    let mut rec = Recorder::off();
    for _ in 0..ops {
        caller.op(&mut rec)?;
    }
    *caller.progress() = Progress::default();
    Ok(())
}

/// Drive one caller for `ops` ops.
pub fn drive(caller: &mut impl Caller, ops: u64, trace: bool, epoch: Instant, tid: u32) -> LoopOut {
    let mut rec = Recorder::new(trace, epoch, tid);
    let mut out = LoopOut::default();
    for _ in 0..ops {
        match caller.op(&mut rec) {
            Ok(latency) => out.lat_us.push(latency.as_secs_f64() * 1e6),
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert(e);
            }
        }
    }
    out.recorders.push(rec);
    out
}

/// Time `f` as one op under a `bench.op` span.
fn timed_op<T>(
    rec: &mut Recorder,
    op: u64,
    f: impl FnOnce(&mut Recorder) -> Res<T>,
) -> Res<(T, Duration)> {
    let start = Instant::now();
    let out = rec.span("bench.op", op, f)?;
    Ok((out, start.elapsed()))
}

// ---------------------------------------------------------------------
// Resident runtime: ingest one batch, tick (steady_tick, durable_tick)
// ---------------------------------------------------------------------

/// Where a durable resident runtime keeps its directory.
pub struct DurableAt {
    pub dir: PathBuf,
    /// `None` = the library's default (`Runtime::durable`).
    pub vfs: Option<Arc<dyn Vfs>>,
}

pub struct Resident {
    sc: Scenario,
    pub runtime: Runtime,
    source: Source,
    pub progress: Progress,
    pub last_result: Option<Frame>,
    last_batch: Option<Frame>,
    durable: Option<DurableAt>,
}

impl Resident {
    /// Build the runtime, install the window, register the scenario's
    /// query, tick once and run the warm-up ops.
    pub fn setup(sc: Scenario, seed: u64, durable: Option<DurableAt>) -> Res<Self> {
        let mut runtime = sc.runtime();
        if let Some(at) = &durable {
            runtime = attach(runtime, at)?;
        }
        let mut source = sc.source(seed);
        runtime
            .install_source(sc.node(), TABLE, source.frame(sc.window_rows))
            .ctx("install_source")?;
        runtime.register(sc.module, &sc.query()).ctx("register")?;
        runtime.tick().ctx("first tick")?;
        let mut this = Resident {
            sc,
            runtime,
            source,
            progress: Progress::default(),
            last_result: None,
            last_batch: None,
            durable,
        };
        warm_up(&mut this, sc.warmup_ops)?;
        Ok(this)
    }

    /// The final result equals a fresh runtime ticked once over the
    /// final window, the window ends with the last batch, and — when
    /// durable — a runtime re-opened from the directory holds the same
    /// window and gives the same result.
    pub fn check(self) -> Res<()> {
        let Resident {
            sc,
            runtime,
            last_result,
            last_batch,
            durable,
            ..
        } = self;
        let last_result = last_result.ok_or("no op produced a result")?;
        let last_batch = last_batch.ok_or("no batch was ingested")?;
        let window = runtime
            .integrated_catalog()
            .get(TABLE)
            .ctx("final window")?
            .clone();
        if window.len() < sc.retention.min(sc.window_rows)
            || window.len() > sc.retention * 5 / 4 + sc.batch_rows
        {
            return Err(format!("retained window holds {} rows", window.len()));
        }
        if window.slice_tail(window.len() - last_batch.len()) != last_batch {
            return Err("the retained window does not end with the last batch".into());
        }
        let mut fresh = sc.runtime();
        fresh
            .install_source(sc.node(), TABLE, window.clone())
            .ctx("reference install")?;
        fresh
            .register(sc.module, &sc.query())
            .ctx("reference register")?;
        let reference = fresh.tick().ctx("reference tick")?.remove(0).1.result;
        if reference != last_result {
            return Err(format!(
                "final result ({} rows) differs from a fresh runtime over the final window ({} rows)",
                last_result.len(),
                reference.len()
            ));
        }
        if let Some(at) = durable {
            drop(runtime); // releases the directory lock
            let mut reopened = attach(sc.runtime(), &at)?;
            if reopened
                .integrated_catalog()
                .get(TABLE)
                .ctx("recovered window")?
                != &window
            {
                return Err("the recovered window differs from the one that was running".into());
            }
            let recovered = reopened.tick().ctx("recovered tick")?.remove(0).1.result;
            if recovered != last_result {
                return Err("the result after re-opening the directory differs".into());
            }
        }
        Ok(())
    }
}

/// `with_snapshot_every(..).durable(dir)`, last in the builder chain.
pub fn attach(runtime: Runtime, at: &DurableAt) -> Res<Runtime> {
    let runtime = runtime.with_snapshot_every(SNAPSHOT_EVERY);
    match &at.vfs {
        Some(vfs) => runtime.durable_with(&at.dir, vfs.clone()),
        None => runtime.durable(&at.dir),
    }
    .ctx("attach durability directory")
}

impl Caller for Resident {
    fn progress(&mut self) -> &mut Progress {
        &mut self.progress
    }

    fn op(&mut self, rec: &mut Recorder) -> Res<Duration> {
        let batch = self.source.frame(self.sc.batch_rows);
        self.last_batch = Some(batch.clone());
        let id = self.progress.next_op();
        let (node, runtime) = (self.sc.node(), &mut self.runtime);
        let (mut outcomes, latency) = timed_op(rec, id, |rec| {
            rec.span("core.runtime.ingest", id, |_| {
                runtime.ingest(node, TABLE, batch)
            })
            .ctx("ingest")?;
            rec.span("core.runtime.tick", id, |_| runtime.tick())
                .ctx("tick")
        })?;
        let result = outcomes.pop().ok_or("tick returned no outcome")?.1.result;
        self.progress.record(id, &result);
        self.last_result = Some(result);
        Ok(latency)
    }
}

// ---------------------------------------------------------------------
// One-shot: build, install, register, tick, drop (paper_oneshot)
// ---------------------------------------------------------------------

pub struct Oneshot {
    pub sc: Scenario,
    pub query: Query,
    pub window: Frame,
    pub progress: Progress,
}

impl Oneshot {
    pub fn setup(sc: Scenario, seed: u64) -> Res<Self> {
        let window = sc.source(seed).frame(sc.window_rows);
        let mut this = Oneshot {
            sc,
            query: sc.query(),
            window,
            progress: Progress::default(),
        };
        warm_up(&mut this, sc.warmup_ops)?;
        Ok(this)
    }
}

impl Caller for Oneshot {
    fn progress(&mut self) -> &mut Progress {
        &mut self.progress
    }

    fn op(&mut self, rec: &mut Recorder) -> Res<Duration> {
        let id = self.progress.next_op();
        let (sc, query, window) = (self.sc, &self.query, &self.window);
        let (result, latency) = timed_op(rec, id, |rec| {
            let mut runtime = rec.span("core.runtime.build", id, |_| sc.runtime());
            // a clone shares the window's columns: nothing is copied
            rec.span("core.runtime.install_source", id, |_| {
                runtime.install_source(sc.node(), TABLE, window.clone())
            })
            .ctx("install_source")?;
            rec.span("core.runtime.register", id, |_| {
                runtime.register(sc.module, query)
            })
            .ctx("register")?;
            let mut outcomes = rec
                .span("core.runtime.first_tick", id, |_| runtime.tick())
                .ctx("tick")?;
            let outcome = outcomes.pop().ok_or("tick returned no outcome")?.1;
            rec.span("core.runtime.drop", id, |_| drop(runtime));
            Ok(outcome.result)
        })?;
        self.progress.record(id, &result);
        Ok(latency)
    }
}

// ---------------------------------------------------------------------
// Policy churn: swap policy, register a new query, tick, remove it
// ---------------------------------------------------------------------

pub struct Churn {
    sc: Scenario,
    runtime: Runtime,
    shapes: Vec<&'static str>,
    pub progress: Progress,
}

impl Churn {
    /// Handles that stay registered and are re-planned after every swap.
    pub const RESIDENTS: usize = 3;

    pub fn setup(sc: Scenario, seed: u64) -> Res<Self> {
        let mut runtime = sc.runtime();
        runtime
            .install_source(sc.node(), TABLE, sc.source(seed).frame(sc.window_rows))
            .ctx("install_source")?;
        for sql in CHURN_RESIDENT_SQL.lines() {
            runtime
                .register(sc.module, &parse_query(sql).ctx(sql)?)
                .ctx(sql)?;
        }
        runtime.tick().ctx("first tick")?;
        let mut this = Churn {
            sc,
            runtime,
            shapes: CHURN_SQL.lines().collect(),
            progress: Progress::default(),
        };
        warm_up(&mut this, sc.warmup_ops)?;
        Ok(this)
    }

    /// The SQL of op `i`: the shapes in turn, with a literal that varies.
    pub fn sql(shapes: &[&str], i: u64) -> String {
        shapes[(i % shapes.len() as u64) as usize].replace("{n}", &(i % 7 + 1).to_string())
    }
}

impl Caller for Churn {
    fn progress(&mut self) -> &mut Progress {
        &mut self.progress
    }

    fn op(&mut self, rec: &mut Recorder) -> Res<Duration> {
        let id = self.progress.next_op();
        let sc = self.sc;
        let xml = if id.is_multiple_of(2) {
            sc.policy_b_xml
        } else {
            sc.policy_xml
        };
        let sql = Churn::sql(&self.shapes, id);
        let runtime = &mut self.runtime;
        let (result, latency) = timed_op(rec, id, |rec| {
            let mut policy = rec
                .span("policy.parse_xml", id, |_| parse_policy(xml))
                .ctx("parse_policy")?;
            rec.span("core.runtime.set_policy", id, |_| {
                runtime.set_policy(sc.module, policy.modules.remove(0))
            });
            let query = rec.span("sql.parse", id, |_| parse_query(&sql)).ctx(&sql)?;
            let handle: QueryHandle = rec
                .span("core.runtime.register", id, |_| {
                    runtime.register(sc.module, &query)
                })
                .ctx(&sql)?;
            let mut outcomes = rec
                .span("core.runtime.tick", id, |_| runtime.tick())
                .ctx(&sql)?;
            if outcomes.len() != Churn::RESIDENTS + 1 {
                return Err(format!("tick gave {} outcomes", outcomes.len()));
            }
            let (ticked, outcome) = outcomes.pop().expect("length checked");
            if ticked != handle {
                return Err("the last outcome is not the new handle's".into());
            }
            rec.span("core.runtime.remove_query", id, |_| {
                runtime.remove_query(handle)
            })
            .ctx("remove_query")?;
            Ok(outcome.result)
        })?;
        self.progress.record(id, &result);
        Ok(latency)
    }
}

// ---------------------------------------------------------------------
// Served fleet: tenants over localhost TCP (served_fleet)
// ---------------------------------------------------------------------

/// Load-generating caller threads: one per tenant.
pub const TENANTS: usize = 2;

pub struct Tenant {
    sc: Scenario,
    client: RetryClient,
    source: Source,
    table: String,
    pub progress: Progress,
    /// Batches ingested since set-up, warm-up included: what the
    /// in-process reference must be fed.
    batches_sent: u64,
    pub last_result: Option<Frame>,
}

pub struct Served {
    sc: Scenario,
    seed: u64,
    server: Server,
    pub tenants: Vec<Tenant>,
}

/// Tenant `i`'s module, table and query: each tenant has its own.
fn tenant_names(sc: &Scenario, i: usize) -> (String, String, String) {
    let table = format!("{TABLE}{i}");
    (
        format!("{}{i}", sc.module),
        table.clone(),
        sc.sql.replace(TABLE, &table),
    )
}

fn tenant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(TENANTS as u64 + 1).wrapping_add(i as u64)
}

/// A runtime holding every tenant's policy, no data yet.
fn fleet_runtime(sc: &Scenario) -> Runtime {
    let mut runtime = Runtime::new(sc.chain()).with_retention(sc.retention);
    for i in 0..TENANTS {
        runtime = runtime.with_policy(tenant_names(sc, i).0, sc.policy());
    }
    runtime
}

impl Served {
    pub fn setup(sc: Scenario, seed: u64) -> Res<Self> {
        let server =
            Server::start(fleet_runtime(&sc), ServerConfig::default()).ctx("Server::start")?;
        let mut tenants = Vec::new();
        for i in 0..TENANTS {
            let (module, table, sql) = tenant_names(&sc, i);
            // One attempt per request: anything that would have been
            // retried surfaces as a failed op, which is how the driver
            // observes retries without reading the client's counters.
            let config = RetryConfig {
                max_attempts: 1,
                ..RetryConfig::new(i as u64 + 1)
            };
            let mut client = RetryClient::connect(server.local_addr(), config).ctx("connect")?;
            let mut source = sc.source(tenant_seed(seed, i));
            client
                .install_source(sc.node(), &table, &source.frame(sc.window_rows))
                .ctx("install_source")?;
            client.register(&module, &sql).ctx("register")?;
            client.tick().ctx("first tick")?;
            tenants.push(Tenant {
                sc,
                client,
                source,
                table,
                progress: Progress::default(),
                batches_sent: 0,
                last_result: None,
            });
        }
        let mut this = Served {
            sc,
            seed,
            server,
            tenants,
        };
        let warm = this.run(sc.warmup_ops, false, Instant::now());
        if let Some(e) = warm.first_error {
            return Err(format!("warm-up: {e}"));
        }
        for t in &mut this.tenants {
            t.progress = Progress::default();
        }
        Ok(this)
    }

    /// Every tenant runs its own closed loop of `ops` ops on its own thread.
    pub fn run(&mut self, ops: u64, trace: bool, epoch: Instant) -> LoopOut {
        let mut out = LoopOut::default();
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .tenants
                .iter_mut()
                .enumerate()
                .map(|(i, t)| scope.spawn(move || drive(t, ops, trace, epoch, i as u32)))
                .collect();
            for w in workers {
                out.merge(w.join().expect("tenant thread panicked"));
            }
        });
        out
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Every tenant's digests combined.
    pub fn digest(&self) -> Option<u64> {
        self.tenants
            .iter()
            .try_fold(0u64, |acc, t| Some(acc.rotate_left(1) ^ t.progress.digest?))
    }

    /// Each tenant's last frame equals an in-process runtime fed the
    /// same batches and ticked once. Shuts the server down.
    pub fn check(self) -> Res<()> {
        let Served {
            sc,
            seed,
            server,
            tenants,
        } = self;
        let sent: Vec<(u64, Option<Frame>)> = tenants
            .into_iter()
            .map(|t| (t.batches_sent, t.last_result))
            .collect();
        // clients are dropped: the server can drain and hand back the runtime
        server
            .shutdown()
            .ok_or("the server did not hand its runtime back")?;
        let mut reference = fleet_runtime(&sc);
        for (i, (ops, _)) in sent.iter().enumerate() {
            let (module, table, sql) = tenant_names(&sc, i);
            let mut source = sc.source(tenant_seed(seed, i));
            reference
                .install_source(sc.node(), &table, source.frame(sc.window_rows))
                .ctx("reference install")?;
            reference
                .register(&module, &parse_query(&sql).ctx(&sql)?)
                .ctx("reference register")?;
            for _ in 0..*ops {
                reference
                    .ingest(sc.node(), &table, source.frame(sc.batch_rows))
                    .ctx("reference ingest")?;
            }
        }
        let outcomes = reference.tick().ctx("reference tick")?;
        for (i, ((_, last), (_, outcome))) in sent.iter().zip(&outcomes).enumerate() {
            if last.as_ref() != Some(&outcome.result) {
                return Err(format!(
                    "tenant {i}'s last frame differs from the in-process reference"
                ));
            }
        }
        Ok(())
    }
}

impl Caller for Tenant {
    fn progress(&mut self) -> &mut Progress {
        &mut self.progress
    }

    fn op(&mut self, rec: &mut Recorder) -> Res<Duration> {
        let batch = self.source.frame(self.sc.batch_rows);
        self.batches_sent += 1;
        let id = self.progress.next_op();
        let (node, table, client) = (self.sc.node(), &self.table, &mut self.client);
        let (mut reply, latency) = timed_op(rec, id, |rec| {
            match rec.span("server.ingest_rtt", id, |_| {
                client.ingest(node, table, &batch)
            }) {
                Ok(IngestAck::Accepted { .. }) => {}
                Ok(IngestAck::Overloaded { reason }) => return Err(format!("refused: {reason}")),
                Err(e) => return Err(format!("ingest: {e}")),
            }
            rec.span("server.tick_rtt", id, |_| client.tick())
                .ctx("tick")
        })?;
        if let Some(e) = reply.deferred.first() {
            return Err(format!("deferred: {e}"));
        }
        let result = match reply.results.pop() {
            Some((_, Ok(frame))) => frame,
            Some((_, Err((code, message)))) => {
                return Err(format!("handle failed ({code}): {message}"))
            }
            None => return Err("tick returned no result".into()),
        };
        self.progress.record(id, &result);
        self.last_result = Some(result);
        Ok(latency)
    }
}

/// A directory of the benchmark's own under `out/`, empty.
pub fn fresh_dir(name: &str) -> Res<PathBuf> {
    let dir = crate::out_dir().join(format!("{name}-{}", std::process::id()));
    remove_dir(&dir)?;
    std::fs::create_dir_all(&dir).ctx("create directory")?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(format!("remove {dir:?}: {e}")),
        _ => Ok(()),
    }
}
