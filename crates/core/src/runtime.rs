//! The continuous-query runtime: the one entry point of the processor
//! (paper Figure 2).
//!
//! The paper's setting is *continuous* queries from assistive systems
//! over sensor streams — a module registers its query once, sensor data
//! keeps arriving, and every tick re-evaluates all registered queries
//! under the current privacy policies. [`Runtime`] models exactly that
//! lifecycle.
//!
//! Every mutation is one [`Command`] — install a source, ingest a
//! batch, register or remove a query, set a policy — and
//! [`Runtime::apply`] is the only path that changes state, whether the
//! command is live, replayed from the write-ahead log or forwarded by
//! the serving layer. The mutating methods below are one-line wrappers
//! over it:
//!
//! * [`Runtime::register`] — plan the query **once**: preprocess (policy
//!   rewrite), fragment, assign to the chain and, when the options set
//!   a threshold, run the §3.1 information-gain check; the handle keeps
//!   the [`Planned`] behind one `Arc`;
//! * [`Runtime::ingest`] — append a stream batch at a chain node;
//! * [`Runtime::tick_each`] — the one tick primitive: run the named
//!   handles, and only those, against the fresh data, fanning
//!   independent queries out over the scoped thread pool
//!   (`PARADISE_THREADS`; serial at 1), one fault-isolated result per
//!   handle in the order named; ε is spent only for the named handles'
//!   modules. A tick is admit → spend → execute → release → commit:
//!   admission decides which named handles may run, the spend bills
//!   their modules' ε, execution runs their stages on the chain,
//!   `release` — the §3.2 postprocessing, anonymization then the cloud
//!   remainder — is the one place where a result leaves, and the
//!   commit accounts the nodes and group-commits the log;
//! * [`Runtime::tick`] — `tick_each` over every live handle, in
//!   registration order, atomic when some handle may not run;
//! * [`Runtime::run_once`] — the one-shot session: register, tick that
//!   handle alone, remove — the same path, once;
//! * [`Runtime::set_policy`] — swap a module's policy live. The swap
//!   re-plans exactly that module's handles, there and then, and
//!   [`Applied::denied`] names those the new policy denies; each stores
//!   the error and reports it on every tick until a compatible policy
//!   re-plans it. Other handles are untouched;
//! * [`Runtime::stats`] / [`Runtime::handle_stats`] — hit/miss/
//!   invalidation counters of the handles' plans and the compiled-plan
//!   cache.
//!
//! There is one tick plan: every stage runs delta-aware
//! (`incremental.rs`). A handle's first tick — and the tick after a
//! policy swap or a source replacement — sees the whole retained window
//! as its delta, so it *is* the full computation; the tick after a
//! retention trim retracts the evicted rows instead. Shapes the engine
//! cannot maintain re-execute over their full input inside the same
//! driver.
//!
//! A tick plans nothing: a handle's plan is built at the events that
//! change its inputs — registration, a policy swap, a source-schema
//! change, recovery — and every tick only reads it, sharing it with its
//! [`Outcome`] by `Arc`. Every stage keeps its compiled physical plans
//! (`Arc<CompiledPlan>`) with its state.
//! A stage without plans takes them from the runtime's one plan cache,
//! keyed by (fragment AST, input schemas), so identical fragments of
//! different handles — or modules — compile once.
//!
//! There is one chain. A handle owns only its plan, its counters and
//! its per-stage state; during a tick every handle
//! reads the chain, and each stage's output reaches the next stage as
//! a bound executor input, never through a catalog. That is what makes
//! the multi-query fan-out safe: ticks of different handles share
//! nothing mutable but the plan cache behind its lock.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use minipool::ThreadPool;
use paradise_engine::{Catalog, Frame, PlanCache, PlanCacheStats};
use paradise_nodes::ProcessingChain;
use paradise_policy::{
    DpConfig, EpsilonLedger, ModulePolicy, PolicyVersion,
};
use paradise_sql::ast::Query;

use crate::checks::information_gain_check;
use crate::dp::{self, DpPlan};
use crate::error::{CoreError, CoreResult};
use crate::fragment::{assign_to_chain, fragment_query};
use crate::incremental::{run_stages_delta, HandleDeltaState};
use crate::pipeline::{
    anonymization_site, release, source_fingerprint, Outcome, Planned, RuntimeOptions,
};
use crate::preprocess::preprocess;
use crate::remainder::Remainder;
use crate::storage::codec::{module_policy, policy_xml};
use crate::storage::{
    Durability, DurabilityStats, PolicyState, Registration, SessionMark, SnapshotData, Spend,
    TableState, Vfs, WalRecord, DEFAULT_SNAPSHOT_EVERY,
};

/// Opaque handle of one registered continuous query.
///
/// Handles stay valid until [`Runtime::remove_query`]; a removed
/// handle's slot may be reused, but the generation makes stale handles
/// detectable ([`CoreError::UnknownHandle`]) instead of silently
/// addressing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryHandle {
    index: u32,
    generation: u32,
}

impl QueryHandle {
    /// A compact scalar id (generation ≪ 32 | slot), for logging.
    pub fn id(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// The handle [`QueryHandle::id`] was taken from. An id that names
    /// no live registration resolves to [`CoreError::UnknownHandle`].
    pub fn from_id(id: u64) -> Self {
        QueryHandle { index: id as u32, generation: (id >> 32) as u32 }
    }
}

impl std::fmt::Display for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}.{}", self.index, self.generation)
    }
}

/// One mutation of a [`Runtime`], the input of [`Runtime::apply`]. The
/// paper's processor reacts to three events — a module registers a
/// query, a policy changes, sensor data arrives — and a deployment adds
/// installing a source and withdrawing a query.
///
/// `origin` is the client idempotency origin `(session, seq)`; `(0, 0)`
/// means none. A command whose origin is at or below its session's
/// applied high-water mark is a duplicate delivery: it changes nothing,
/// and [`Runtime::apply`] answers what the first delivery answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Install (or replace) a source table at a chain node. Replacing a
    /// table under a different schema re-plans the handles reading it.
    InstallSource {
        /// Chain node name.
        node: String,
        /// Table name.
        table: String,
        /// The table's contents.
        frame: Frame,
    },
    /// Append a stream batch to an installed source table.
    Ingest {
        /// Chain node name.
        node: String,
        /// Table name.
        table: String,
        /// The batch; its schema must equal the table's.
        frame: Frame,
        /// Idempotency origin `(session, seq)`.
        origin: (u64, u64),
    },
    /// Register a continuous query for a module.
    Register {
        /// Module id.
        module: String,
        /// The query (boxed: it is most of the enum's size).
        query: Box<Query>,
        /// Idempotency origin `(session, seq)`.
        origin: (u64, u64),
    },
    /// Deregister a query.
    RemoveQuery {
        /// The handle to retire.
        handle: QueryHandle,
    },
    /// Install or swap a module's policy.
    SetPolicy {
        /// Module id.
        module: String,
        /// The new policy.
        policy: ModulePolicy,
        /// Idempotency origin `(session, seq)`.
        origin: (u64, u64),
    },
}

impl Command {
    /// The command's idempotency origin, `(0, 0)` for a variant that
    /// carries none.
    pub fn origin(&self) -> (u64, u64) {
        match self {
            Command::Ingest { origin, .. }
            | Command::Register { origin, .. }
            | Command::SetPolicy { origin, .. } => *origin,
            Command::InstallSource { .. } | Command::RemoveQuery { .. } => (0, 0),
        }
    }

    /// Set the origin's session; a variant without an origin is
    /// unchanged. The server applies a wire command under the
    /// connection's own session this way.
    pub fn set_session(&mut self, session: u64) {
        if let Command::Ingest { origin, .. }
        | Command::Register { origin, .. }
        | Command::SetPolicy { origin, .. } = self
        {
            origin.0 = session;
        }
    }
}

/// What [`Runtime::apply`] answered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Applied {
    /// The command was a duplicate delivery: nothing changed, and the
    /// other fields repeat the first delivery's answer (its handle, the
    /// module's current version).
    pub duplicate: bool,
    /// `Register`: the query's handle.
    pub handle: Option<QueryHandle>,
    /// `SetPolicy`: the module's policy version.
    pub version: Option<PolicyVersion>,
    /// `SetPolicy`: the module's handles the new policy denies, in slot
    /// order; empty for a duplicate.
    pub denied: Vec<QueryHandle>,
}

/// One registered query: its plan plus the handle's per-stage
/// execution state.
struct Registered {
    generation: u32,
    module: String,
    query: Query,
    /// The plan under `version` and the sources as of `fingerprint`, or
    /// the error planning failed with — a *denied* handle, which every
    /// tick reports until an event re-plans it.
    plan: CoreResult<Arc<Planned>>,
    /// Policy version the plan was built under.
    version: PolicyVersion,
    /// Base tables of the original query and the source-schema
    /// fingerprint captured at planning time (a change re-plans).
    tables: Vec<String>,
    fingerprint: u64,
    /// Per-handle plan counters (see [`RuntimeStats::plan`]).
    stats: PlanCacheStats,
    /// Per-stage execution state (compiled plans, delta watermarks,
    /// cached append outputs, per-group accumulators), dropped whenever
    /// the handle is re-planned.
    delta: HandleDeltaState,
    /// Idempotency origin `(session, seq)` of the registration request,
    /// `(0, 0)` for direct API registrations. A retried registration
    /// with the same origin resolves to the slot its first delivery
    /// created instead of registering twice.
    origin: (u64, u64),
}

/// One tick's bookkeeping, threaded through its steps (see
/// [`Runtime::tick_each`]): a [`Step`] per named handle, in the order
/// named.
struct TickCtx {
    steps: Vec<(QueryHandle, Step)>,
}

/// Where one named handle stands in a tick. Each ends as `Ran` or
/// `Refused`; boxing `Ran` would cost an allocation per handle per tick.
#[allow(clippy::large_enum_variant)]
enum Step {
    /// Not run and not billed: stale, repeated or refused.
    Refused(CoreError),
    /// Admitted: its slot, and the noise seed `spend` derived for it (0
    /// for a plan that adds no noise).
    Run { slot: usize, seed: u64 },
    /// Executed and released: the Laplace draws its run took, and its
    /// outcome with the input rows each stage consumed.
    Ran { draws: u64, result: CoreResult<(Outcome, Vec<usize>)> },
}

/// Aggregate cache/tick counters of a [`Runtime`], from
/// [`Runtime::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Live registered queries.
    pub registered: usize,
    /// Completed tick calls — every [`Runtime::tick`],
    /// [`Runtime::tick_each`] and [`Runtime::run_once`], scoped or not.
    pub ticks: u64,
    /// Plan counters summed over all live handles: a miss is a plan
    /// built (at registration, recovery or an event re-plan, denied or
    /// not); an invalidation is a re-plan by a policy swap or a source
    /// schema change, counted at that event; a hit is a tick that ran
    /// the handle on its stored plan.
    pub plan: PlanCacheStats,
    /// Counters of the runtime's compiled-plan cache, consulted only
    /// when a stage has no plans yet: steady-state ticks leave them
    /// unchanged.
    pub engine: PlanCacheStats,
    /// Fragment plans in the runtime's compiled-plan cache: identical
    /// fragments registered by different handles (or modules) compile
    /// once and share one `Arc<CompiledPlan>` from here.
    pub shared_plans: usize,
    /// Cumulative differential-privacy epsilon spent across all module
    /// ledgers, in micro-epsilon (`spent × 10⁶`, saturating) — integer
    /// so the stats struct stays `Copy + Eq`.
    pub dp_epsilon_spent_micro: u64,
    /// Laplace noise draws consumed by DP aggregate finalization.
    pub dp_noise_draws: u64,
    /// Ticks refused (handle quarantined or tick aborted) because a
    /// module's epsilon budget was exhausted.
    pub dp_budget_exhausted: u64,
}

/// Per-handle counters, from [`Runtime::handle_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleStats {
    /// Module the query was registered under.
    pub module: String,
    /// Policy version the handle's plans are currently built against.
    pub policy_version: PolicyVersion,
    /// This handle's plan counters (see [`RuntimeStats::plan`]).
    pub plan: PlanCacheStats,
    /// Stage rebuilds from the full input since the handle's stage
    /// state was last dropped (a re-plan drops it): summed
    /// [`IncrementalState::rebuilds`](paradise_engine::IncrementalState::rebuilds)
    /// over its delta-aware stages. A retention trim the stages retract
    /// leaves it unchanged.
    pub rebuilds: u64,
    /// Groups that front evictions reached in the handle's stages,
    /// over the same span (summed
    /// [`IncrementalState::retracted_groups`](paradise_engine::IncrementalState::retracted_groups)).
    pub retracted_groups: u64,
}

/// The long-lived continuous-query runtime (see the module docs).
pub struct Runtime {
    /// The chain: holds the ingested streams, executes every handle's
    /// stages (read-only during a tick) and accumulates the nodes'
    /// execution statistics.
    chain: ProcessingChain,
    policies: HashMap<String, (PolicyVersion, ModulePolicy)>,
    options: RuntimeOptions,
    remainder: Option<Remainder>,
    /// Per-(node, table) cap on retained stream rows (oldest evicted).
    retention: Option<usize>,
    /// Compiled fragment plans keyed by (fragment AST, input schemas),
    /// consulted when a stage has no plans; never locked across a
    /// compile.
    plans: Mutex<PlanCache>,
    slots: Vec<Option<Registered>>,
    next_generation: u32,
    /// Global monotonic policy-version counter: every install gets a
    /// fresh number, so versions are unique across modules too.
    version_counter: u64,
    ticks: u64,
    /// Per-module differential-privacy spend ledgers. Pure spend
    /// records — budget and per-tick epsilon are read from the
    /// *current* policy at check time, so a live policy swap
    /// immediately re-budgets the accumulated spend.
    ledgers: HashMap<String, EpsilonLedger>,
    /// Laplace draws consumed runtime-wide (see [`RuntimeStats`]).
    dp_noise_draws: u64,
    /// Budget-exhaustion refusals runtime-wide (see [`RuntimeStats`]).
    dp_budget_exhausted: u64,
    /// The attached durability layer (write-ahead log + snapshots),
    /// `None` for a purely in-memory runtime. See [`Runtime::durable`].
    durability: Option<Durability>,
    /// Automatic-snapshot cadence in ticks (0 = only on explicit
    /// [`Runtime::snapshot`] calls).
    snapshot_every: u64,
    /// Degraded read-only mode: set (to the root cause) when a WAL
    /// commit or snapshot write fails. While set, mutating calls are
    /// refused with [`CoreError::Degraded`], noisy-DP handles are
    /// quarantined (their ε-spends could not be made durable), and the
    /// failed write is not retried until an explicit
    /// [`Runtime::resume_durability`].
    degraded: Option<String>,
    /// Per-session idempotency high-water marks: the highest applied
    /// request sequence of each client session. Persisted in snapshots
    /// and advanced by origin-carrying WAL records, so retry dedup
    /// survives crash recovery.
    marks: HashMap<u64, u64>,
}

impl Runtime {
    /// Runtime over a chain with default options.
    pub fn new(chain: ProcessingChain) -> Self {
        Runtime {
            chain,
            policies: HashMap::new(),
            options: RuntimeOptions::default(),
            remainder: None,
            retention: None,
            plans: Mutex::new(PlanCache::new()),
            slots: Vec::new(),
            next_generation: 0,
            version_counter: 0,
            ticks: 0,
            ledgers: HashMap::new(),
            dp_noise_draws: 0,
            dp_budget_exhausted: 0,
            durability: None,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            degraded: None,
            marks: HashMap::new(),
        }
    }

    /// Builder: install a module policy (equivalent to
    /// [`Runtime::set_policy`]).
    #[must_use]
    pub fn with_policy(mut self, module_id: impl Into<String>, policy: ModulePolicy) -> Self {
        self.set_policy(module_id, policy);
        self
    }

    /// Builder: set the runtime options (preprocess substitutions,
    /// assignment policy, anonymization strategy, information-gain
    /// threshold). Every live handle — registered earlier, or recovered
    /// by [`Runtime::durable`] — is re-planned under them, counted as an
    /// invalidation; one the new options refuse is stored denied.
    #[must_use]
    pub fn with_options(mut self, options: RuntimeOptions) -> Self {
        self.options = options;
        self.replan(|_, _| true);
        self
    }

    /// Builder: set the cloud remainder stage.
    #[must_use]
    pub fn with_remainder(mut self, remainder: Remainder) -> Self {
        self.remainder = Some(remainder);
        self
    }

    /// Builder: keep at most `rows` rows per ingested stream table —
    /// the sliding-window retention of a long-running deployment.
    /// Eviction is **batched** for amortized O(1) appends: a table is
    /// only trimmed (back down to `rows`) once it exceeds the cap by
    /// ≥25%, so the retained window breathes between `rows` and
    /// `1.25 × rows`. The tick after a trim retracts the evicted rows
    /// from the handles' incremental state (see [`Runtime::ingest`]).
    #[must_use]
    pub fn with_retention(mut self, rows: usize) -> Self {
        self.retention = Some(rows);
        self
    }

    /// Builder: partition every node's streams `shards` ways by a hash
    /// of the `key` column ([`Catalog::set_partitioning`]). A grouped
    /// aggregation stage whose `GROUP BY` holds the `key` column folds
    /// each tick's delta per shard in parallel; each of its groups lives
    /// on one shard. Results are identical to one shard — sharding is
    /// purely an execution strategy. Other stages — stateless filters,
    /// global aggregation, a `GROUP BY` without the key column, or
    /// fragments without it — fold as one shard, and so does every
    /// stage when `shards` is `0` or `1`; the count is clamped to
    /// `65535`.
    ///
    /// Ingested batches are split per shard eagerly at the source, so
    /// steady-state ticks route each delta without re-hashing.
    #[must_use]
    pub fn with_partitioning(mut self, key: impl Into<String>, shards: usize) -> Self {
        let key = key.into();
        for node in self.chain.nodes_mut() {
            node.catalog.set_partitioning(&key, shards);
        }
        self
    }

    /// Builder: attach the durability layer at `dir` (created if
    /// missing), making this runtime survive crashes.
    ///
    /// * **Fresh directory** — the runtime's current state is
    ///   checkpointed as the first snapshot, and from then on every
    ///   [`Command`] [`Runtime::apply`] accepts (`InstallSource`,
    ///   `Ingest`, `Register`, `RemoveQuery`, `SetPolicy`), every
    ///   retention eviction and every ε spend is recorded in a
    ///   CRC-framed write-ahead log. Ingest records are
    ///   **group-committed** at the next [`Runtime::tick`] (one write
    ///   syscall per tick); every other command commits before `apply`
    ///   returns; bytes are forced to stable media at snapshot barriers.
    /// * **Directory with prior state** — the runtime is *rebuilt*:
    ///   latest valid snapshot (falling back one generation past a
    ///   partially-written one), then ordered log replay. Replay is
    ///   idempotent — every record carries the absolute stream
    ///   position or version it applies at, so duplicated records are
    ///   skipped, torn log tails are truncated, and the rebuilt state
    ///   (tables, watermarks, policies, registrations — including
    ///   still-valid caller-held [`QueryHandle`]s) equals an
    ///   uninterrupted run's. A record the position check applies runs
    ///   the same per-command step as the live `apply`. Every
    ///   registration is planned under the recovered policies; one they
    ///   deny is restored denied, as the live swap left it. Incremental
    ///   per-handle state is rebuilt on the first tick.
    ///
    /// Call this **last** in the builder chain, on a runtime
    /// constructed with the *same configuration* (chain topology,
    /// retention, partitioning, options) as the run that wrote the
    /// directory — configuration is deliberately not persisted, state
    /// is.
    ///
    /// Errors: [`CoreError::Io`] on filesystem failures,
    /// [`CoreError::Locked`] when another live runtime in this process
    /// already holds the directory, and [`CoreError::Corrupt`] when no
    /// snapshot generation validates or the log is structurally damaged
    /// (a torn tail from a crash mid-write is *not* corruption and
    /// recovers silently).
    pub fn durable(self, dir: impl AsRef<Path>) -> CoreResult<Self> {
        self.durable_with(dir, crate::storage::RealVfs::shared())
    }

    /// [`Runtime::durable`] through an explicit [`Vfs`] — the
    /// fault-injection entry point. Attach a
    /// [`FaultVfs`](crate::storage::FaultVfs) to schedule deterministic
    /// per-operation I/O failures (full disk, I/O errors, torn writes,
    /// failed fsyncs or renames) against the durability layer and
    /// observe the typed degraded-mode reaction.
    pub fn durable_with(mut self, dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> CoreResult<Self> {
        let opened = Durability::open_with(dir.as_ref(), vfs)?;
        let mut durability = opened.durability;
        durability.snapshot_every = self.snapshot_every;
        if !durability.stats().recovered {
            let data = self.snapshot_data();
            durability.initial_snapshot(data)?;
            self.durability = Some(durability);
            return Ok(self);
        }
        if let Some(snap) = opened.snapshot {
            self.apply_snapshot(snap)?;
        }
        let mut skipped = 0u64;
        for record in opened.records {
            self.apply_record(record, &mut skipped)?;
        }
        durability.stats.skipped = skipped;
        self.durability = Some(durability);
        Ok(self)
    }

    /// Builder: automatic-snapshot cadence in ticks (default
    /// [`DEFAULT_SNAPSHOT_EVERY`]; `0` disables automatic snapshots —
    /// only explicit [`Runtime::snapshot`] calls checkpoint). Set it
    /// before [`Runtime::durable`].
    #[must_use]
    pub fn with_snapshot_every(mut self, ticks: u64) -> Self {
        self.snapshot_every = ticks;
        if let Some(d) = self.durability.as_mut() {
            d.snapshot_every = ticks;
        }
        self
    }

    /// Checkpoint now: commit + sync the log, write the next snapshot
    /// generation atomically, rotate the log at the barrier, and
    /// delete generations older than the fallback. Errors with
    /// [`CoreError::Io`] when no durability layer is attached.
    pub fn snapshot(&mut self) -> CoreResult<()> {
        self.check_not_degraded()?;
        let data = self.snapshot_data();
        let Some(d) = self.durability.as_mut() else {
            return Err(CoreError::Io(
                "snapshot requested but no durability directory is attached".to_string(),
            ));
        };
        match d.rotate_snapshot(data) {
            Ok(()) => Ok(()),
            // the previous snapshot generation survives a failed
            // rotation untouched — recovery keeps a valid fallback
            Err(e) => Err(self.enter_degraded(e)),
        }
    }

    /// The degraded-mode cause, when the runtime is in degraded
    /// read-only mode (see [`CoreError::Degraded`]); `None` when fully
    /// operational.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Leave degraded mode: repair the write-ahead log (reopening it
    /// truncated back to the last committed byte, dropping any torn
    /// prefix of the failed write), re-commit every preserved pending
    /// record, and re-enable mutations. Fails — staying degraded — if
    /// the disk still refuses the write. Errors with [`CoreError::Io`]
    /// when the runtime has no durability layer (a purely in-memory
    /// runtime can never degrade).
    pub fn resume_durability(&mut self) -> CoreResult<()> {
        let Some(d) = self.durability.as_mut() else {
            return Err(CoreError::Io(
                "resume requested but no durability directory is attached".to_string(),
            ));
        };
        d.resume()?;
        self.degraded = None;
        Ok(())
    }

    /// Refuse mutations while degraded (see [`CoreError::Degraded`]).
    fn check_not_degraded(&self) -> CoreResult<()> {
        match &self.degraded {
            Some(msg) => Err(CoreError::Degraded(msg.clone())),
            None => Ok(()),
        }
    }

    /// Enter degraded read-only mode (keeping the first cause if
    /// already degraded) and type the error for the caller.
    fn enter_degraded(&mut self, cause: CoreError) -> CoreError {
        let msg = cause.to_string();
        if self.degraded.is_none() {
            self.degraded = Some(msg.clone());
        }
        CoreError::Degraded(msg)
    }

    /// Group-commit the WAL, entering degraded mode on failure (the
    /// pending records are preserved for the resume retry).
    fn commit_durability(&mut self) -> CoreResult<()> {
        let Some(d) = self.durability.as_mut() else { return Ok(()) };
        match d.commit() {
            Ok(()) => Ok(()),
            Err(e) => Err(self.enter_degraded(e)),
        }
    }

    /// Highest applied request sequence of a client session (0 when the
    /// session has never applied a mutation) — the serving layer's
    /// dedup floor when resuming a session after a reconnect.
    pub fn session_mark(&self, session: u64) -> u64 {
        self.marks.get(&session).copied().unwrap_or(0)
    }

    /// Live registrations created by a client session, as `(seq,
    /// handle, module)` in ascending request order — lets a resumed
    /// session recover the handles its acknowledged registrations
    /// produced, across reconnects and server restarts.
    pub fn session_registrations(&self, session: u64) -> Vec<(u64, QueryHandle, String)> {
        let mut regs: Vec<(u64, QueryHandle, String)> = self
            .live()
            .filter(|(_, reg)| session != 0 && reg.origin.0 == session)
            .map(|(handle, reg)| (reg.origin.1, handle, reg.module.clone()))
            .collect();
        regs.sort_by_key(|&(seq, _, _)| seq);
        regs
    }

    /// Every live registration with its handle, in slot order.
    fn live(&self) -> impl Iterator<Item = (QueryHandle, &Registered)> {
        self.slots.iter().enumerate().filter_map(|(index, slot)| {
            let reg = slot.as_ref()?;
            Some((QueryHandle { index: index as u32, generation: reg.generation }, reg))
        })
    }

    /// Was `(session, seq)` already applied? Direct API calls carry the
    /// null origin `(0, 0)` and are never deduplicated.
    pub fn is_duplicate(&self, session: u64, seq: u64) -> bool {
        session != 0 && self.marks.get(&session).is_some_and(|&mark| seq <= mark)
    }

    /// Advance a session's applied high-water mark (no-op for the null
    /// origin).
    fn advance_mark(&mut self, (session, seq): (u64, u64)) {
        if session != 0 {
            let mark = self.marks.entry(session).or_insert(0);
            *mark = (*mark).max(seq);
        }
    }

    /// Crash emulation for tests and recovery drills: release the
    /// durability directory's in-process lock, then leak the runtime
    /// without running destructors — no final commit, exactly like a
    /// hard kill. The on-disk state is whatever previous commit points
    /// made durable.
    pub fn simulate_crash(mut self) {
        if let Some(d) = self.durability.as_mut() {
            d.release_lock();
        }
        std::mem::forget(self);
    }

    /// Durability counters and recovery facts; `None` when the runtime
    /// is purely in-memory.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durability.as_ref().map(Durability::stats)
    }

    /// The complete durable state, as written into snapshots.
    fn snapshot_data(&self) -> SnapshotData {
        let mut tables = Vec::new();
        for node in self.chain.nodes() {
            for table in node.catalog.table_names() {
                let (Ok(frame), Ok(wm)) =
                    (node.catalog.get(table), node.catalog.watermark(table))
                else {
                    continue;
                };
                tables.push(TableState {
                    node: node.name.clone(),
                    table: table.to_string(),
                    evicted: wm.evicted(),
                    frame: frame.clone(),
                });
            }
        }
        let mut policies: Vec<PolicyState> = self
            .policies
            .iter()
            .map(|(module, (version, policy))| PolicyState {
                module: module.clone(),
                version: version.as_u64(),
                xml: policy_xml(policy),
            })
            .collect();
        policies.sort_by(|a, b| a.module.cmp(&b.module));
        let registrations = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, reg)| {
                reg.as_ref().map(|reg| Registration {
                    slot: slot as u32,
                    generation: reg.generation,
                    module: reg.module.clone(),
                    sql: reg.query.to_string(),
                    origin: reg.origin,
                })
            })
            .collect();
        let mut ledgers: Vec<Spend> = self
            .ledgers
            .iter()
            .map(|(module, l)| Spend {
                module: module.clone(),
                seq: l.seq(),
                spent: l.spent(),
            })
            .collect();
        ledgers.sort_by(|a, b| a.module.cmp(&b.module));
        let mut sessions: Vec<SessionMark> = self
            .marks
            .iter()
            .map(|(&session, &seq)| SessionMark { session, seq })
            .collect();
        sessions.sort_by_key(|s| s.session);
        SnapshotData {
            generation: 0, // assigned by the durability layer
            tables,
            policies,
            version_counter: self.version_counter,
            registrations,
            slots: self.slots.len() as u32,
            next_generation: self.next_generation,
            ledgers,
            sessions,
        }
    }

    /// Rebuild state from a recovered snapshot (tables and policies
    /// first, so each registration plans once, under them).
    fn apply_snapshot(&mut self, snap: SnapshotData) -> CoreResult<()> {
        for p in snap.policies {
            let policy = module_policy(&p.xml, &p.module)?;
            self.policies.insert(p.module, (PolicyVersion(p.version), policy));
        }
        self.version_counter = snap.version_counter;
        for l in snap.ledgers {
            let mut ledger = EpsilonLedger::new();
            ledger.restore(l.seq, l.spent);
            self.ledgers.insert(l.module, ledger);
        }
        for t in snap.tables {
            let node = self.chain.node_mut(&t.node).map_err(|_| {
                CoreError::Corrupt(format!(
                    "snapshot references node {:?}, absent from this chain — \
                     reconstruct the runtime with the configuration that wrote \
                     the durability directory",
                    t.node
                ))
            })?;
            node.catalog.restore(&t.table, t.frame, t.evicted);
        }
        for s in snap.sessions {
            self.marks.insert(s.session, s.seq);
        }
        self.slots = (0..snap.slots).map(|_| None).collect();
        for r in snap.registrations {
            let query = paradise_sql::parse_query(&r.sql)?;
            let reg = self.build_registration(r.generation, r.module, query, r.origin);
            self.place(r.slot as usize, reg)?;
        }
        self.next_generation = snap.next_generation;
        Ok(())
    }

    /// Replay one log record. Each record carries the absolute
    /// position it applies at, so replay over recovered state is
    /// idempotent: at-or-below → skip (counted), exactly-at → apply,
    /// beyond → a gap, which is real corruption. A command record that
    /// applies runs the same step as the live [`Runtime::apply`];
    /// `Evict` and `SpendEpsilon` are effects, not commands, and apply
    /// here.
    fn apply_record(&mut self, record: WalRecord, skipped: &mut u64) -> CoreResult<()> {
        match record {
            WalRecord::Command(Command::InstallSource { node, table, frame }) => {
                self.install_table(&node, &table, frame)?;
            }
            WalRecord::Command(Command::RemoveQuery { handle }) => {
                if self.resolve(handle).is_ok() {
                    self.vacate(handle.index as usize);
                } else {
                    *skipped += 1;
                }
            }
            WalRecord::Command(_) => {
                return Err(CoreError::Corrupt(
                    "a bare command log record must install a source or remove a query".into(),
                ));
            }
            WalRecord::Ingest { node, table, start, origin, frame } => {
                let wm = self.chain.node(&node)?.catalog.watermark(&table)?;
                if wm.rows() > start {
                    *skipped += 1;
                } else if wm.rows() == start {
                    self.append(&node, &table, frame, origin)?;
                } else {
                    return Err(CoreError::Corrupt(format!(
                        "log gap: table {table:?} at row {}, ingest record starts at {start}",
                        wm.rows()
                    )));
                }
            }
            WalRecord::Evict { node, table, evicted_to } => {
                let wm = self.chain.node(&node)?.catalog.watermark(&table)?;
                if wm.evicted() >= evicted_to {
                    *skipped += 1;
                } else if evicted_to <= wm.rows() {
                    let rows = (evicted_to - wm.evicted()) as usize;
                    self.chain.node_mut(&node)?.catalog.evict_front(&table, rows)?;
                } else {
                    return Err(CoreError::Corrupt(format!(
                        "log gap: eviction to row {evicted_to} of table {table:?} \
                         which only reaches row {}",
                        wm.rows()
                    )));
                }
            }
            WalRecord::Register(Registration { slot, generation, module, sql, origin }) => {
                if self.next_generation > generation {
                    *skipped += 1;
                } else if self.next_generation == generation {
                    let query = paradise_sql::parse_query(&sql)?;
                    let reg = self.build_registration(generation, module, query, origin);
                    self.place(slot as usize, reg)?;
                } else {
                    return Err(CoreError::Corrupt(format!(
                        "log gap: registration generation {generation} but the \
                         runtime is at {}",
                        self.next_generation
                    )));
                }
            }
            WalRecord::SetPolicy { version, module, xml, origin } => {
                if version <= self.version_counter {
                    *skipped += 1;
                } else if version == self.version_counter + 1 {
                    let policy = module_policy(&xml, &module)?;
                    self.install_policy(module, version, policy, origin);
                } else {
                    return Err(CoreError::Corrupt(format!(
                        "log gap: policy version {version} but the runtime is at {}",
                        self.version_counter
                    )));
                }
            }
            WalRecord::SpendEpsilon(Spend { module, seq, spent }) => {
                let at = self.ledgers.get(&module).map_or(0, |l| l.seq());
                if seq <= at {
                    *skipped += 1;
                } else if seq == at + 1 {
                    self.ledgers.entry(module).or_default().restore(seq, spent);
                } else {
                    return Err(CoreError::Corrupt(format!(
                        "log gap: epsilon spend sequence {seq} for module \
                         {module:?} whose ledger is at {at}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The one way a [`Registered`] comes to be — at registration and
    /// at recovery alike: `query`, planned under the module's current
    /// policy. A planning failure is stored in the registration; the
    /// caller decides whether it refuses the registration.
    fn build_registration(
        &self,
        generation: u32,
        module: String,
        query: Query,
        origin: (u64, u64),
    ) -> Registered {
        let mut reg = Registered {
            generation,
            plan: Err(CoreError::NoPolicy(module.clone())),
            module,
            tables: paradise_sql::analysis::base_relations(&query),
            query,
            version: PolicyVersion::default(),
            fingerprint: 0,
            stats: PlanCacheStats::default(),
            delta: HandleDeltaState::default(),
            origin,
        };
        self.plan_into(&mut reg);
        reg
    }

    /// Plan `reg` under its module's current policy and the current
    /// source schemas, replacing its plan (or storing the failure) and
    /// dropping its per-stage state. Counted as a miss.
    fn plan_into(&self, reg: &mut Registered) {
        reg.fingerprint = source_fingerprint(&self.chain, &reg.tables);
        // a module's policy is never removed: only a registration can
        // lack one, and keeps its `NoPolicy` error
        if let Some((version, policy)) = self.policies.get(&reg.module) {
            reg.version = *version;
            reg.plan = plan(&reg.query, policy, &self.chain, &self.options).map(Arc::new);
        }
        reg.stats.misses += 1;
        reg.delta.reset();
    }

    /// Re-plan, at the event that changed their inputs, every live
    /// handle `affected` selects (given the chain as the event left it),
    /// and return those the new plan denies. Counted as an invalidation.
    fn replan(
        &mut self,
        affected: impl Fn(&Registered, &ProcessingChain) -> bool,
    ) -> Vec<QueryHandle> {
        let mut slots = std::mem::take(&mut self.slots);
        let mut denied = Vec::new();
        for (index, slot) in slots.iter_mut().enumerate() {
            let Some(reg) = slot.as_mut().filter(|reg| affected(reg, &self.chain)) else { continue };
            self.plan_into(reg);
            reg.stats.invalidations += 1;
            if reg.plan.is_err() {
                denied.push(QueryHandle { index: index as u32, generation: reg.generation });
            }
        }
        self.slots = slots;
        denied
    }

    /// Step of `InstallSource`, live and replayed: install (or replace)
    /// a source table and re-plan the handles whose source schemas it
    /// changed.
    fn install_table(&mut self, node: &str, table: &str, frame: Frame) -> CoreResult<()> {
        self.chain.node_mut(node)?.install_table(table, frame);
        self.replan(|reg, chain| source_fingerprint(chain, &reg.tables) != reg.fingerprint);
        Ok(())
    }

    /// Step of `Ingest`, live and replayed: a raw append that advances
    /// the origin's mark. The origin rides in the batch's own log
    /// record, so a torn tail never separates the two; retention trims
    /// are logged as their own records, which pins a recovered window
    /// to the original run's eviction decisions.
    fn append(&mut self, node: &str, table: &str, frame: Frame, origin: (u64, u64)) -> CoreResult<()> {
        self.chain.ingest(node, table, frame)?;
        self.advance_mark(origin);
        Ok(())
    }

    /// Step of `Register`, live and replayed: occupy slot `index` with
    /// `reg` — a recorded slot and generation keep caller-held handles
    /// valid across a restart — and advance the generation counter and
    /// the origin's mark past it.
    fn place(&mut self, index: usize, reg: Registered) -> CoreResult<()> {
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        if self.slots[index].is_some() {
            return Err(CoreError::Corrupt(format!("slot {index} registered twice")));
        }
        self.next_generation = reg.generation + 1;
        self.advance_mark(reg.origin);
        self.slots[index] = Some(reg);
        Ok(())
    }

    /// Step of `RemoveQuery`, live and replayed: drop the slot's
    /// registration with its execution state.
    fn vacate(&mut self, index: usize) {
        self.slots[index] = None;
    }

    /// Step of `SetPolicy`, live and replayed: install `policy` as
    /// `module`'s policy at `version`, advance the origin's mark,
    /// re-plan the module's handles and return those the policy denies.
    fn install_policy(
        &mut self,
        module: String,
        version: u64,
        policy: ModulePolicy,
        origin: (u64, u64),
    ) -> Vec<QueryHandle> {
        self.version_counter = version;
        self.advance_mark(origin);
        self.policies.insert(module.clone(), (PolicyVersion(version), policy));
        self.replan(|reg, _| reg.module == module)
    }

    /// Apply one mutation: the only path that changes a runtime's state.
    /// In order:
    ///
    /// 1. a degraded runtime refuses ([`CoreError::Degraded`]);
    /// 2. a duplicate delivery (see [`Command`]) changes nothing and
    ///    answers what the first delivery answered, with
    ///    [`Applied::duplicate`] set — or [`CoreError::UnknownHandle`]
    ///    for a `Register` whose handle was since removed;
    /// 3. the command is validated: a query its module's policy denies
    ///    is refused here, before any state or log changes;
    /// 4. it is applied in memory, by the same step log replay runs;
    /// 5. its record is logged, when the runtime is durable;
    /// 6. the log is committed. An `Ingest` record is group-committed at
    ///    the next tick instead, and a retention trim it causes logs its
    ///    own `Evict` record. A failed commit enters degraded mode and
    ///    returns [`CoreError::Degraded`]; the change stays applied and
    ///    its record pending for [`Runtime::resume_durability`].
    pub fn apply(&mut self, cmd: Command) -> CoreResult<Applied> {
        self.check_not_degraded()?;
        let (session, seq) = cmd.origin();
        if self.is_duplicate(session, seq) {
            return self.duplicate(&cmd);
        }
        let durable = self.durability.is_some();
        let mut applied = Applied::default();
        match cmd {
            Command::InstallSource { node, table, frame } => {
                // the clone is per-column Arc bumps, no cell copies
                let logged = durable.then(|| frame.clone());
                self.install_table(&node, &table, frame)?;
                self.log(logged.map(|frame| {
                    WalRecord::Command(Command::InstallSource { node, table, frame })
                }));
            }
            Command::Ingest { node, table, frame, .. } => {
                // the record carries the absolute start row (replay's
                // idempotency anchor), taken before the batch moves
                let logged = match durable {
                    true => {
                        let start = self.chain.node(&node)?.catalog.watermark(&table)?.rows();
                        Some((start, frame.clone()))
                    }
                    false => None,
                };
                self.append(&node, &table, frame, (session, seq))?;
                let mut evicted_to = None;
                if let Some(max) = self.retention {
                    let catalog = &mut self.chain.node_mut(&node)?.catalog;
                    let len = catalog.get(&table)?.len();
                    if len > max.saturating_add(max / 4) {
                        catalog.evict_front(&table, len - max)?;
                        evicted_to = Some(catalog.watermark(&table)?.evicted());
                    }
                }
                if let Some((start, frame)) = logged {
                    let evict = evicted_to.map(|evicted_to| WalRecord::Evict {
                        node: node.clone(),
                        table: table.clone(),
                        evicted_to,
                    });
                    let origin = (session, seq);
                    self.log(Some(WalRecord::Ingest { node, table, start, origin, frame }));
                    self.log(evict);
                }
                // buffered only: group-committed at the next tick
                return Ok(applied);
            }
            Command::Register { module, query, .. } => {
                let generation = self.next_generation;
                let reg = self.build_registration(generation, module, *query, (session, seq));
                if let Err(e) = &reg.plan {
                    return Err(e.clone());
                }
                let index = self.slots.iter().position(Option::is_none).unwrap_or(self.slots.len());
                let logged = durable.then(|| {
                    WalRecord::Register(Registration {
                        slot: index as u32,
                        generation,
                        module: reg.module.clone(),
                        sql: reg.query.to_string(),
                        origin: (session, seq),
                    })
                });
                self.place(index, reg)?;
                self.log(logged);
                applied.handle = Some(QueryHandle { index: index as u32, generation });
            }
            Command::RemoveQuery { handle } => {
                self.resolve(handle)?;
                self.vacate(handle.index as usize);
                self.log(durable.then_some(WalRecord::Command(Command::RemoveQuery { handle })));
            }
            Command::SetPolicy { module, policy, .. } => {
                let version = self.version_counter + 1;
                let logged = durable.then(|| WalRecord::SetPolicy {
                    version,
                    module: module.clone(),
                    xml: policy_xml(&policy),
                    origin: (session, seq),
                });
                applied.denied = self.install_policy(module, version, policy, (session, seq));
                applied.version = Some(PolicyVersion(version));
                self.log(logged);
            }
        }
        self.commit_durability()?;
        Ok(applied)
    }

    /// The answer to a duplicate delivery: the handle the first
    /// delivery registered, the module's current version, or a no-op.
    fn duplicate(&self, cmd: &Command) -> CoreResult<Applied> {
        let mut applied = Applied { duplicate: true, ..Applied::default() };
        match cmd {
            Command::Register { origin, .. } => {
                let first = self.live().find(|(_, reg)| reg.origin == *origin);
                applied.handle = Some(first.ok_or(CoreError::UnknownHandle(0))?.0);
            }
            Command::SetPolicy { module, .. } => applied.version = self.policy_version(module),
            _ => {}
        }
        Ok(applied)
    }

    /// Buffer `record` for the next commit (`None`: nothing to log).
    fn log(&mut self, record: Option<WalRecord>) {
        if let (Some(d), Some(record)) = (self.durability.as_mut(), record) {
            d.record(&record);
        }
    }

    /// Install or swap a module's policy **live** — [`Command::SetPolicy`]
    /// without an origin — and return the module's policy version after
    /// the call. The module's registered queries are re-planned here,
    /// under the new version (counted in their invalidation stats), and
    /// take the compiled plans of their new fragments from the plan
    /// cache at their next tick. A query the new policy denies keeps its
    /// handle and reports the stored error on every tick until a
    /// compatible policy re-plans it. Handles of *other* modules are
    /// untouched.
    ///
    /// Like every command but `Ingest`, the swap commits before it
    /// returns, and a degraded runtime refuses it, leaving the version
    /// unchanged. [`Runtime::apply`] returns the typed error, and the
    /// handles the swap denied.
    pub fn set_policy(&mut self, module_id: impl Into<String>, policy: ModulePolicy) -> PolicyVersion {
        let module = module_id.into();
        let _ = self.apply(Command::SetPolicy { module: module.clone(), policy, origin: (0, 0) });
        self.policy_version(&module).unwrap_or_default()
    }

    /// The installed policy version of a module, if any.
    pub fn policy_version(&self, module_id: &str) -> Option<PolicyVersion> {
        self.policies.get(module_id).map(|(v, _)| *v)
    }

    /// A module's differential-privacy spend ledger (a copy), if the
    /// module has ever spent. Budget checks always read the *current*
    /// policy's [`DpConfig`] against this spend, so swapping in a
    /// larger budget un-quarantines an exhausted module without
    /// refunding a single spent epsilon.
    pub fn epsilon_ledger(&self, module_id: &str) -> Option<EpsilonLedger> {
        self.ledgers.get(module_id).copied()
    }

    /// Register a continuous query for a module ([`Command::Register`]
    /// without an origin): plan it **once** — preprocess (policy
    /// rewrite), fragment, assign to the chain, check the information
    /// gain when the options ask — and return the handle. A query the
    /// policy denies, or whose rewrite fails the check, is refused here.
    /// Ticks run the stored plan until the module's policy or a source
    /// schema changes and re-plans it.
    pub fn register(&mut self, module_id: &str, query: &Query) -> CoreResult<QueryHandle> {
        let query = Box::new(query.clone());
        let cmd = Command::Register { module: module_id.into(), query, origin: (0, 0) };
        self.apply(cmd)?.handle.ok_or_else(|| CoreError::Internal("register answered no handle".into()))
    }

    /// Deregister a query ([`Command::RemoveQuery`]); its handle becomes
    /// invalid and its execution state is dropped.
    pub fn remove_query(&mut self, handle: QueryHandle) -> CoreResult<()> {
        self.apply(Command::RemoveQuery { handle }).map(drop)
    }

    /// Install (or replace) source data at a chain node
    /// ([`Command::InstallSource`]). Replacing a table under a
    /// *different* schema re-plans the handles reading it, here; a
    /// same-schema replacement keeps every plan.
    pub fn install_source(&mut self, node: &str, table: &str, frame: Frame) -> CoreResult<()> {
        self.apply(Command::InstallSource { node: node.into(), table: table.into(), frame }).map(drop)
    }

    /// Append a stream batch to a source table ([`Command::Ingest`]
    /// without an origin) — the per-tick data path of a deployment. The
    /// table must already exist (via [`Runtime::install_source`]; an
    /// unknown name errors rather than silently misrouting data) and the
    /// batch schema must match the installed table's exactly (so every
    /// cached plan stays valid).
    ///
    /// When a retention cap is set, eviction is batched: the oldest
    /// rows are trimmed (down to the cap) only once the table exceeds
    /// the cap by ≥25%, one trim per quarter-window of arrivals. The
    /// trim frees the evicted rows at once; delta consumers stay purely
    /// incremental across it: the next tick's stages retract the
    /// evicted rows from their state (the stage output a trim drops,
    /// the groups it deletes or refolds) instead of rebuilding from the
    /// window.
    pub fn ingest(&mut self, node: &str, table: &str, batch: Frame) -> CoreResult<()> {
        let cmd = Command::Ingest { node: node.into(), table: table.into(), frame: batch, origin: (0, 0) };
        self.apply(cmd).map(drop)
    }

    /// Evaluate every registered query against the current stream state:
    /// one tick of the continuous-query loop, [`Runtime::tick_each`]'s
    /// steps over every live handle. The result order is the
    /// registration order at any thread count, and the first failing
    /// handle's error (in that order) is returned.
    ///
    /// A tick some handle refuses is **atomic**: if a handle is denied
    /// (typically by a [`Runtime::set_policy`] swap its query no longer
    /// passes), its module's epsilon budget is exhausted, or it is noisy
    /// while the runtime is degraded, the tick returns that error *before*
    /// touching any state but `dp_budget_exhausted`. The runtime stays
    /// consistent and retries are idempotent; recover by installing a
    /// compatible policy or [`Runtime::remove_query`]-ing the rejected
    /// handle. An execution error is returned once the tick has run — and
    /// committed — every other handle, as [`Runtime::tick_each`] runs them;
    /// a failed commit takes precedence over it.
    pub fn tick(&mut self) -> CoreResult<Vec<(QueryHandle, Outcome)>> {
        let live: Vec<QueryHandle> = self.live().map(|(handle, _)| handle).collect();
        let mut ctx = self.admit(&live, true)?;
        self.spend(&mut ctx);
        self.execute(&mut ctx);
        self.commit(ctx)?.into_iter().map(|(handle, outcome)| Ok((handle, outcome?))).collect()
    }

    /// The one-shot session (paper Figure 2, once): [`Runtime::register`]
    /// → [`Runtime::tick_each`] of this handle alone → its outcome →
    /// [`Runtime::remove_query`]. No resident query runs or spends ε.
    /// The handle is removed on the error path too, so nothing stays
    /// registered.
    pub fn run_once(&mut self, module_id: &str, query: &Query) -> CoreResult<Outcome> {
        let handle = self.register(module_id, query)?;
        let ticked = self.tick_each(&[handle]);
        let removed = self.remove_query(handle);
        let mine = ticked?.pop().map(|(_, outcome)| outcome);
        removed?;
        mine.unwrap_or(Err(CoreError::UnknownHandle(handle.id())))
    }

    /// One **fault-isolating** tick of the named handles, and of no
    /// other: only they are admitted, run and accounted on the nodes,
    /// and epsilon is spent only for the modules of the named noisy
    /// handles. Every named handle gets its own `Result`, in the order
    /// the handles were named, and one failing handle cannot poison
    /// the tick for the others.
    ///
    /// * A stale handle (removed, or never issued) and a repeat of a
    ///   handle named earlier in the list get a
    ///   [`CoreError::UnknownHandle`] entry: neither is run or billed.
    /// * A handle that may not run — denied by the policy swap or source
    ///   change that last re-planned it, over its module's epsilon
    ///   budget, or noisy while degraded — is **quarantined for this
    ///   tick**: its entry carries the typed error (a denial the same
    ///   one on every tick, until an event re-plans the handle), its
    ///   counters and cached state are untouched (retries stay
    ///   idempotent), and every other handle executes normally.
    /// * A handle whose *execution* fails likewise reports its error in
    ///   place; its incremental state is reset so the next tick rebuilds
    ///   from a clean slate.
    /// * The outer `Err` is reserved for runtime-global failures — a
    ///   failed durability commit or automatic snapshot — after which no
    ///   per-handle result is meaningful. The group commit and the
    ///   snapshot cadence run on every call, an empty list included.
    ///
    /// This is the primitive a multi-tenant serving layer builds handle
    /// quarantine on: one tenant ticks, and is billed for, its own
    /// handles alone, and its rejected query yields a typed error to
    /// that tenant alone.
    ///
    /// A tick is admit → spend → execute → release → commit (see the
    /// module docs); [`Runtime::tick`] takes the same steps, admitting
    /// atomically.
    pub fn tick_each(&mut self, handles: &[QueryHandle]) -> CoreResult<Vec<(QueryHandle, CoreResult<Outcome>)>> {
        let mut ctx = self.admit(handles, false)?;
        self.spend(&mut ctx);
        self.execute(&mut ctx);
        self.commit(ctx)
    }

    /// The tick's first step, one [`Step`] per named handle: a stale or
    /// repeated handle is refused as [`CoreError::UnknownHandle`], one
    /// that may not run ([`Runtime::may_run`]) with its error, counting
    /// budget refusals; every other handle runs. An `atomic` tick
    /// returns the first refusal before anything is spent or run.
    fn admit(&mut self, handles: &[QueryHandle], atomic: bool) -> CoreResult<TickCtx> {
        let mut steps: Vec<(QueryHandle, Step)> = Vec::with_capacity(handles.len());
        for &handle in handles {
            let repeat = steps.iter().any(|(named, _)| *named == handle);
            let verdict = self.resolve(handle).and_then(|reg| match repeat {
                true => Err(CoreError::UnknownHandle(handle.id())),
                false => self.may_run(reg),
            });
            let step = match verdict {
                Ok(()) => Step::Run { slot: handle.index as usize, seed: 0 },
                Err(e) => {
                    if matches!(e, CoreError::BudgetExhausted { .. }) {
                        self.dp_budget_exhausted += 1;
                    }
                    if atomic {
                        return Err(e);
                    }
                    Step::Refused(e)
                }
            };
            steps.push((handle, step));
        }
        Ok(TickCtx { steps })
    }

    /// Spend each DP module's per-tick epsilon once, however many of its
    /// admitted handles tick, and seed every noisy handle from (handle
    /// id, ledger sequence). The spend's log record reaches the OS in
    /// [`Runtime::commit`]'s group commit, *before* any result is
    /// returned, so recovery never sees a released noisy result whose
    /// spend (and seed) it lost. A failed run is not refunded:
    /// over-counting spend is privacy-safe, refunding is not.
    fn spend(&mut self, ctx: &mut TickCtx) {
        let mut spent: HashMap<&str, u64> = HashMap::new();
        for (handle, step) in &mut ctx.steps {
            let Step::Run { slot, seed } = step else { continue };
            let Some(reg) = self.slots[*slot].as_ref() else { continue };
            let Some(cfg) = self.noisy_config(reg) else { continue };
            let seq = *spent.entry(reg.module.as_str()).or_insert_with(|| {
                let ledger = self.ledgers.entry(reg.module.clone()).or_default();
                let seq = ledger.spend(cfg.epsilon_per_tick);
                if let Some(d) = self.durability.as_mut() {
                    d.record(&WalRecord::SpendEpsilon(Spend {
                        module: reg.module.clone(),
                        seq,
                        spent: ledger.spent(),
                    }));
                }
                seq
            });
            *seed = dp::derive_seed(handle.id(), seq);
        }
    }

    /// Run every admitted handle on the chain, borrowed read-only —
    /// delta-aware over the rows ingested since its last tick, or the
    /// whole window when it has no state to fold them into — and
    /// [`release`] its result, each handle in its own job on the scoped
    /// pool. A lone admitted handle runs on the calling thread: queued,
    /// its tick would cost whatever the race between this thread and a
    /// woken worker for the one job happens to cost.
    fn execute(&mut self, ctx: &mut TickCtx) {
        // in slot order, so one walk over the slots lends each job its
        // registration
        let mut jobs: Vec<(usize, u64, &mut Step)> = ctx.steps.iter_mut()
            .filter_map(|(_, step)| match *step {
                Step::Run { slot, seed } => Some((slot, seed, step)),
                _ => None,
            })
            .collect();
        jobs.sort_unstable_by_key(|&(slot, ..)| slot);
        let lone = jobs.len() == 1;
        let (chain, plans, options) = (&self.chain, &self.plans, &self.options);
        let (remainder, mut slots) = (self.remainder.as_ref(), self.slots.iter_mut().enumerate());
        ThreadPool::global().scope(|scope| {
            for (slot, seed, step) in jobs {
                let Some((_, Some(reg))) = slots.find(|(index, _)| *index == slot) else { continue };
                let mut job = move || {
                    let mut draws = 0;
                    let result = reg.plan.clone().and_then(|planned| {
                        reg.stats.hits += 1;
                        let dp = planned.dp.as_ref().filter(|p| p.is_noisy()).map(|p| (p, seed));
                        let run = run_stages_delta(chain, &planned.stages, &mut reg.delta, plans, dp)?;
                        draws = run.draws;
                        Ok((release(planned, run.run, options, remainder)?, run.rows_in))
                    });
                    // a failed run may have consumed part of its delta:
                    // the next tick rebuilds from clean sources
                    if result.is_err() {
                        reg.delta.reset();
                    }
                    *step = Step::Ran { draws, result };
                };
                if lone {
                    job();
                } else {
                    scope.spawn(job);
                }
            }
        });
    }

    /// The tick's last step: count it, collect the results in the order
    /// named and account every released run on the chain's nodes. Then
    /// the durability group commit: every record buffered since the
    /// last commit point (ingests, evictions, policy swaps, this tick's
    /// ε-spends) reaches the OS in one write, whether or not some handle
    /// failed, and the snapshot cadence advances. A failed write enters
    /// degraded mode and withholds the results: a noisy result must
    /// never be released before its spend reaches the log.
    fn commit(&mut self, ctx: TickCtx) -> CoreResult<Vec<(QueryHandle, CoreResult<Outcome>)>> {
        self.ticks += 1;
        let out: Vec<_> = ctx.steps.into_iter().map(|(handle, step)| {
            let result = match step {
                Step::Refused(e) => Err(e),
                // an admitted slot the pool never executed is an
                // invariant violation; report it typed and keep collecting
                Step::Run { slot, .. } => {
                    Err(CoreError::Internal(format!("slot {slot} was not executed this tick")))
                }
                Step::Ran { draws, result } => {
                    self.dp_noise_draws += draws;
                    result.map(|(outcome, rows_in)| {
                        for (report, rows_in) in outcome.stage_reports.iter().zip(rows_in) {
                            if let Ok(node) = self.chain.node_mut(&report.node) {
                                node.account(rows_in, report.rows_out, report.bytes_out);
                            }
                        }
                        outcome
                    })
                }
            };
            (handle, result)
        }).collect();
        if self.degraded.is_none() {
            self.commit_durability()?;
        }
        let auto_snapshot = self.degraded.is_none()
            && self.durability.as_mut().is_some_and(|d| {
                d.ticks_since_snapshot += 1;
                d.snapshot_every > 0 && d.ticks_since_snapshot >= d.snapshot_every
            });
        if auto_snapshot {
            self.snapshot()?;
        }
        Ok(out)
    }

    /// May `reg` run this tick? Its stored plan (a denial is reported
    /// as stored), its module's epsilon budget and — for a noisy plan —
    /// degraded mode decide. Nothing is mutated.
    fn may_run(&self, reg: &Registered) -> CoreResult<()> {
        if let Err(e) = &reg.plan {
            return Err(e.clone());
        }
        // non-noisy plans (DP off, ε = ∞, or no noisable aggregate)
        // spend nothing and always pass
        let Some(cfg) = self.noisy_config(reg) else { return Ok(()) };
        let ledger = self.ledgers.get(&reg.module).copied().unwrap_or_default();
        if !ledger.can_spend(&cfg) {
            return Err(CoreError::BudgetExhausted {
                module: reg.module.clone(),
                spent: ledger.spent(),
                budget: cfg.budget,
            });
        }
        // in degraded mode a noisy handle cannot tick: its ε-spend
        // record could not be made durable, and releasing noisy results
        // whose spend a crash could lose breaks the privacy accounting.
        // Non-noisy handles keep serving from memory.
        match &self.degraded {
            Some(msg) => Err(CoreError::Degraded(format!(
                "cannot persist this tick's epsilon spend: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// The module's [`DpConfig`] when `reg`'s plan adds noise.
    fn noisy_config(&self, reg: &Registered) -> Option<DpConfig> {
        let planned = reg.plan.as_ref().ok()?;
        if !planned.dp.as_ref().is_some_and(DpPlan::is_noisy) {
            return None;
        }
        self.policies.get(&reg.module).and_then(|(_, policy)| policy.dp)
    }

    /// Aggregate cache/tick counters (see [`RuntimeStats`]). After the
    /// first tick of a steady-state deployment, `plan.hits` grows by
    /// `registered` per tick and `engine` stays unchanged — the
    /// compile-once contract, asserted by the runtime tests.
    pub fn stats(&self) -> RuntimeStats {
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stats = RuntimeStats {
            registered: self.slots.iter().flatten().count(),
            ticks: self.ticks,
            engine: plans.stats(),
            shared_plans: plans.len(),
            // saturating as-cast: an infinite or absurd spend pins to
            // u64::MAX instead of poisoning the stats struct's Eq
            dp_epsilon_spent_micro: self
                .ledgers
                .values()
                .map(|l| (l.spent() * 1e6) as u64)
                .fold(0, u64::saturating_add),
            dp_noise_draws: self.dp_noise_draws,
            dp_budget_exhausted: self.dp_budget_exhausted,
            ..RuntimeStats::default()
        };
        for reg in self.slots.iter().flatten() {
            stats.plan.hits += reg.stats.hits;
            stats.plan.misses += reg.stats.misses;
            stats.plan.invalidations += reg.stats.invalidations;
        }
        stats
    }

    /// Rewrite-plan counters and policy version of one handle.
    pub fn handle_stats(&self, handle: QueryHandle) -> CoreResult<HandleStats> {
        let reg = self.resolve(handle)?;
        let (rebuilds, retracted_groups) = reg.delta.counters();
        Ok(HandleStats {
            module: reg.module.clone(),
            policy_version: reg.version,
            plan: reg.stats,
            rebuilds,
            retracted_groups,
        })
    }

    /// Number of live registered queries.
    pub fn registered(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Borrow the chain: the ingested streams in its nodes' catalogs,
    /// and every tick's execution statistics in their
    /// [`NodeStats`](paradise_nodes::NodeStats).
    pub fn chain(&self) -> &ProcessingChain {
        &self.chain
    }

    /// A merged catalog of every source table — the hypothetical
    /// integrated database `d` of the paper, which baselines and the
    /// plan-time information-gain check read.
    pub fn integrated_catalog(&self) -> Catalog {
        integrated_catalog(&self.chain)
    }

    /// Baseline for the Figure 3 experiment: ship the raw integrated
    /// data `d` to the cloud and execute the original query there.
    /// Returns the result and the bytes that would leave the apartment.
    pub fn cloud_baseline(&self, query: &Query) -> CoreResult<(Frame, usize)> {
        let catalog = self.integrated_catalog();
        let raw_bytes: usize = catalog
            .table_names()
            .iter()
            .filter_map(|t| catalog.get(t).ok())
            .map(Frame::size_bytes)
            .sum();
        let executor = paradise_engine::Executor::new(&catalog);
        let result = executor.execute(query)?;
        Ok((result, raw_bytes))
    }

    fn resolve(&self, handle: QueryHandle) -> CoreResult<&Registered> {
        self.slots
            .get(handle.index as usize)
            .and_then(Option::as_ref)
            .filter(|reg| reg.generation == handle.generation)
            .ok_or(CoreError::UnknownHandle(handle.id()))
    }
}

impl Drop for Runtime {
    /// A graceful drop is a commit point: whatever the write-ahead log
    /// buffered since the last tick reaches the OS, so only a hard
    /// kill (or power loss inside the OS cache window) can lose the
    /// tail. Errors cannot propagate from here and are ignored — the
    /// log's valid prefix is still consistent.
    fn drop(&mut self) {
        if let Some(d) = self.durability.as_mut() {
            let _ = d.commit();
        }
    }
}

/// The source tables of every node of `chain`, merged into one catalog
/// whose frames share their buffers with the nodes'.
fn integrated_catalog(chain: &ProcessingChain) -> Catalog {
    let mut merged = Catalog::new();
    for node in chain.nodes() {
        for table in node.catalog.table_names() {
            if let Ok(frame) = node.catalog.get(table) {
                merged.register_or_replace(table, frame.clone());
            }
        }
    }
    merged
}

/// Plan one query under a module policy on `chain`: preprocess (the
/// policy rewrite), clamp-lower `SUM`/`AVG` arguments under the
/// module's DP config (so the clamp compiles into the normal
/// aggregation path), fragment, derive the noise plan, assign the
/// fragments to nodes, fix the anonymization site and — when the
/// options set a threshold — run the §3.1 information-gain check of
/// the rewrite over the chain's current sources. The clamped AST
/// flows into every fragment — and therefore into every derived
/// plan-cache key — so toggling DP on a module can never serve a plan
/// built for the other mode. Called only at the events that change its
/// inputs, never by a tick.
fn plan(
    query: &Query,
    policy: &ModulePolicy,
    chain: &ProcessingChain,
    options: &RuntimeOptions,
) -> CoreResult<Planned> {
    let mut pre = preprocess(query, policy, &options.preprocess)?;
    if let Some(cfg) = &policy.dp {
        dp::lower_clamps(&mut pre.query, cfg);
    }
    let plan = fragment_query(&pre.query)?;
    let dp = policy.dp.as_ref().and_then(|cfg| dp::derive_plan(&plan, cfg));
    let stages = assign_to_chain(&plan, chain, options.assignment)?;
    let anonymized_at = anonymization_site(chain, &stages);
    let information_gain = options
        .info_gain_threshold
        .map(|threshold| {
            information_gain_check(&integrated_catalog(chain), query, &pre.query, threshold)
        })
        .transpose()?;
    Ok(Planned { preprocess: pre, plan, stages, anonymized_at, dp, information_gain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_nodes::SmartRoomSim;
    use paradise_policy::figure4_policy;
    use paradise_sql::parse_query;

    const PAPER_ORIGINAL: &str =
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)";

    fn stream(seed: u64, steps: usize) -> Frame {
        let config = paradise_nodes::SmartRoomConfig {
            persons: 10,
            switch_probability: 0.003,
            ..Default::default()
        };
        SmartRoomSim::with_config(seed, config).ubisense_positions(steps)
    }

    fn runtime() -> Runtime {
        let mut rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("ActionFilter", figure4_policy().modules.remove(0));
        rt.install_source("motion-sensor", "stream", stream(42, 500)).unwrap();
        rt
    }

    #[test]
    fn register_requires_a_policy() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        assert!(matches!(rt.register("Nope", &q), Err(CoreError::NoPolicy(_))));
        assert!(rt.register("ActionFilter", &q).is_ok());
    }

    #[test]
    fn steady_state_ticks_hit_every_cache() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        rt.register("ActionFilter", &q).unwrap();
        rt.tick().unwrap();
        let cold = rt.stats();
        assert_eq!(cold.plan, PlanCacheStats { hits: 1, misses: 1, invalidations: 0 });
        assert!(cold.engine.misses >= 4, "first tick compiles every stage: {cold:?}");

        for _ in 0..3 {
            rt.ingest("motion-sensor", "stream", stream(7, 10)).unwrap();
            rt.tick().unwrap();
        }
        let warm = rt.stats();
        assert_eq!(warm.plan.misses, cold.plan.misses, "no re-preprocessing after tick 1");
        assert_eq!(warm.engine, cold.engine, "stages keep their plans: no cache traffic");
        assert_eq!(warm.plan.hits, 4);
        assert_eq!(warm.ticks, 4);
    }

    #[test]
    fn ingest_appends_and_retention_caps() {
        let mut rt = runtime().with_retention(600);
        rt.ingest("motion-sensor", "stream", stream(1, 20)).unwrap();
        let len = rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().len();
        assert_eq!(len, 600, "5000 + 200 rows capped to the retention window");
        // a mismatched batch is rejected
        let bad = Frame::empty(paradise_engine::Schema::from_pairs(&[(
            "only",
            paradise_engine::DataType::Integer,
        )]));
        assert!(rt.ingest("motion-sensor", "stream", bad).is_err());
        // …and so is a typo'd (uninstalled) stream name: no silent
        // misrouting of batches
        assert!(rt.ingest("motion-sensor", "straem", stream(1, 1)).is_err());
    }

    #[test]
    fn set_policy_invalidates_only_that_module() {
        let mut rt = runtime();
        let mut fig4 = figure4_policy();
        rt.set_policy("Other", fig4.modules.remove(0));
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let affected = rt.register("ActionFilter", &q).unwrap();
        let bystander = rt.register("Other", &q).unwrap();
        rt.tick().unwrap();
        rt.tick().unwrap();

        let before = rt.stats().engine;
        let v2 = rt.set_policy("ActionFilter", figure4_policy().modules.remove(0));
        rt.tick().unwrap();

        let hit = rt.handle_stats(affected).unwrap();
        assert_eq!(hit.policy_version, v2);
        assert_eq!(hit.plan.invalidations, 1, "policy swap rebuilt the rewrite");
        // the same policy rewrites to the same fragments over the same
        // schemas: the rebuilt stages find every plan in the cache
        let after = rt.stats().engine;
        assert_eq!(after.misses, before.misses, "an unchanged rewrite compiles nothing");
        assert!(after.hits > before.hits);

        let clean = rt.handle_stats(bystander).unwrap();
        assert_eq!(clean.plan.invalidations, 0);
        assert_eq!(clean.plan.hits, 3, "bystander kept its 100% hit rate");
    }

    #[test]
    fn source_schema_change_invalidates() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let h = rt.register("ActionFilter", &q).unwrap();
        rt.tick().unwrap();

        let old = rt.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().clone();
        let mut schema = old.schema.clone();
        schema.push(paradise_engine::Column::new("w", paradise_engine::DataType::Float));
        let rows: Vec<Vec<paradise_engine::Value>> = old
            .iter_rows()
            .map(|mut r| {
                r.push(paradise_engine::Value::Float(0.0));
                r
            })
            .collect();
        rt.install_source("motion-sensor", "stream", paradise_engine::Frame::new(schema, rows).unwrap())
            .unwrap();
        rt.tick().unwrap();
        let stats = rt.handle_stats(h).unwrap();
        assert_eq!(stats.plan.invalidations, 1, "schema change must invalidate");
    }

    #[test]
    fn failing_policy_swap_keeps_the_tick_atomic() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let h = rt.register("ActionFilter", &q).unwrap();
        let mut other = figure4_policy().modules.remove(0);
        other.module_id = "Other".into();
        rt.set_policy("Other", other);
        let bystander = rt.register("Other", &parse_query("SELECT x, y, z, t FROM stream").unwrap()).unwrap();
        rt.tick().unwrap();

        // swap in a policy that denies every attribute of the
        // registered query: the re-plan at the swap fails…
        let mut deny_all = paradise_policy::ModulePolicy::new("ActionFilter");
        for attr in ["x", "y", "z", "t"] {
            deny_all.attributes.push(paradise_policy::AttributeRule::denied(attr));
        }
        rt.set_policy("ActionFilter", deny_all);
        let before = rt.stats();
        assert!(matches!(rt.tick(), Err(CoreError::QueryDenied(_))));
        // …atomically: repeated failing ticks move no counters, for the
        // rejected handle or the bystander
        assert!(matches!(rt.tick(), Err(CoreError::QueryDenied(_))));
        assert_eq!(rt.stats().plan, before.plan);
        assert_eq!(rt.stats().engine, before.engine);

        // recovery: remove the rejected handle, the bystander resumes
        rt.remove_query(h).unwrap();
        let ticked = rt.tick().unwrap();
        assert_eq!(ticked.len(), 1);
        assert_eq!(ticked[0].0, bystander);
        // (recovery by re-installing a compatible policy works too)
        let h2 = rt.register("Other", &q).unwrap();
        assert!(rt.tick().is_ok());
        assert!(rt.handle_stats(h2).is_ok());
    }

    #[test]
    fn a_policy_swap_answers_the_handles_it_denies() {
        use paradise_policy::AttributeRule;
        let policy = |deny_y: bool| {
            let mut m = ModulePolicy::new("M");
            for attr in ["x", "y", "z", "t"] {
                m.attributes.push(match deny_y && attr == "y" {
                    true => AttributeRule::denied(attr),
                    false => AttributeRule::allowed(attr),
                });
            }
            m
        };
        let swap = |deny_y, seq| Command::SetPolicy {
            module: "M".into(),
            policy: policy(deny_y),
            origin: (9, seq),
        };
        let mut rt = Runtime::new(ProcessingChain::apartment()).with_policy("M", policy(false));
        rt.install_source("motion-sensor", "stream", stream(42, 50)).unwrap();
        let reads_y = rt.register("M", &parse_query("SELECT y FROM stream").unwrap()).unwrap();
        rt.register("M", &parse_query("SELECT x FROM stream").unwrap()).unwrap();

        let denying = rt.apply(swap(true, 1)).unwrap();
        assert!(!denying.duplicate);
        assert_eq!(denying.denied, vec![reads_y]);
        let back = rt.apply(swap(false, 2)).unwrap();
        assert_eq!(back.denied, vec![]);
        // a second delivery of the denying swap changes nothing and
        // names no one
        let again = rt.apply(swap(true, 1)).unwrap();
        assert!(again.duplicate);
        assert_eq!(again.denied, vec![]);
        assert_eq!(again.version, back.version);
        assert!(rt.tick().is_ok(), "the duplicate did not re-deny");
    }

    #[test]
    fn remove_query_retires_the_handle() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let a = rt.register("ActionFilter", &q).unwrap();
        let b = rt.register("ActionFilter", &q).unwrap();
        assert_eq!(rt.registered(), 2);
        rt.remove_query(a).unwrap();
        assert_eq!(rt.registered(), 1);
        assert!(matches!(rt.remove_query(a), Err(CoreError::UnknownHandle(_))));
        assert!(matches!(rt.handle_stats(a), Err(CoreError::UnknownHandle(_))));

        // the freed slot is reused under a fresh generation: the old
        // handle stays dead
        let c = rt.register("ActionFilter", &q).unwrap();
        assert_ne!(a, c);
        assert!(rt.handle_stats(c).is_ok());
        assert!(matches!(rt.handle_stats(a), Err(CoreError::UnknownHandle(_))));

        let ticked = rt.tick().unwrap();
        let handles: Vec<QueryHandle> = ticked.iter().map(|(h, _)| *h).collect();
        assert_eq!(handles, vec![c, b], "slot order is registration order");
    }

    /// `runtime()` with a DP module `Dp` whose grouped count is noisy.
    fn dp_runtime() -> (Runtime, Query) {
        let mut dp = ModulePolicy::new("Dp");
        dp.attributes.push(paradise_policy::AttributeRule::allowed("x"));
        dp.dp = Some(DpConfig::new(0.5, 100.0));
        let q = parse_query("SELECT x, COUNT(*) AS n FROM stream GROUP BY x").unwrap();
        (runtime().with_policy("Dp", dp), q)
    }

    #[test]
    fn tick_each_runs_and_bills_each_named_live_handle_once() {
        let (mut rt, q) = dp_runtime();
        let stale = rt.register("Dp", &q).unwrap();
        rt.remove_query(stale).unwrap();
        let ticked = rt.tick_each(&[stale]).unwrap();
        assert_eq!(ticked.len(), 1, "one entry per named handle");
        assert!(matches!(ticked[0], (h, Err(CoreError::UnknownHandle(id))) if h == stale && id == stale.id()));
        assert_eq!(rt.epsilon_ledger("Dp"), None, "a stale handle is not billed");

        // the slot is reused under a new generation: the stale handle
        // still names nothing, and a repeat of the live one is not
        // run or billed a second time
        let live = rt.register("Dp", &q).unwrap();
        assert_eq!(live.index, stale.index);
        let ticked = rt.tick_each(&[stale, live, live]).unwrap();
        let named: Vec<QueryHandle> = ticked.iter().map(|(h, _)| *h).collect();
        assert_eq!(named, [stale, live, live], "entries come back in the order named");
        assert!(matches!(ticked[0].1, Err(CoreError::UnknownHandle(_))));
        assert!(ticked[1].1.is_ok());
        assert!(matches!(ticked[2].1, Err(CoreError::UnknownHandle(_))));
        assert_eq!(rt.epsilon_ledger("Dp").map(|l| l.seq()), Some(1), "billed once");
        assert_eq!(rt.handle_stats(live).unwrap().plan.hits, 1, "run once");
    }

    #[test]
    fn an_empty_tick_runs_nothing_but_commits_buffered_ingests() {
        let dir = std::env::temp_dir().join(format!("paradise-rt-{}-empty-tick", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (rt, q) = dp_runtime();
        let mut rt = rt.with_snapshot_every(0).durable(&dir).unwrap();
        let h = rt.register("Dp", &q).unwrap();
        rt.ingest("motion-sensor", "stream", stream(3, 10)).unwrap();
        let commits = |rt: &Runtime| rt.durability_stats().unwrap().wal_commits;
        let before = commits(&rt);
        assert!(rt.tick_each(&[]).unwrap().is_empty());
        assert_eq!(commits(&rt), before + 1, "the buffered ingest reached the log");
        assert_eq!(rt.handle_stats(h).unwrap().plan.hits, 0, "no handle ran");
        assert_eq!(rt.epsilon_ledger("Dp"), None, "no module was billed");
        assert_eq!(rt.stats().ticks, 1, "an empty tick is still a tick");
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `runtime()` with the §3.1 check on at `threshold`.
    fn checked_runtime(threshold: f64) -> Runtime {
        runtime().with_options(RuntimeOptions {
            info_gain_threshold: Some(threshold),
            ..RuntimeOptions::default()
        })
    }

    const FLAT: &str = "SELECT x, y, z, t FROM stream";

    #[test]
    fn info_gain_check_refuses_register_at_plan_time() {
        let mut rt = checked_runtime(1e-12);
        let q = parse_query(FLAT).unwrap();
        assert!(matches!(
            rt.register("ActionFilter", &q),
            Err(CoreError::InsufficientInformation { .. })
        ));
        assert!(rt.slots.is_empty(), "a refused registration takes no slot");
        assert_eq!(rt.stats().registered, 0);
    }

    #[test]
    fn info_gain_check_runs_once_per_plan_not_per_tick() {
        let mut rt = checked_runtime(1e6);
        let h = rt.register("ActionFilter", &parse_query(FLAT).unwrap()).unwrap();
        let first = rt.tick().unwrap().remove(0).1.planned;
        let report = first.information_gain.clone().expect("the check ran at registration");
        assert!(!report.compared_columns.is_empty());
        for seed in 0..3 {
            rt.ingest("motion-sensor", "stream", stream(seed, 10)).unwrap();
            let (handle, outcome) = rt.tick().unwrap().remove(0);
            assert_eq!(handle, h);
            assert!(Arc::ptr_eq(&outcome.planned, &first), "a tick re-plans nothing");
        }
        assert_eq!(rt.handle_stats(h).unwrap().plan.misses, 1);
    }

    #[test]
    fn info_gain_check_reruns_at_a_policy_swap() {
        let mut rt = checked_runtime(1e6);
        let h = rt.register("ActionFilter", &parse_query(FLAT).unwrap()).unwrap();
        let rows_at = |rt: &Runtime| {
            let planned = rt.resolve(h).unwrap().plan.as_ref().unwrap();
            planned.information_gain.as_ref().expect("the check is on").rows
        };
        let before = rows_at(&rt);
        rt.ingest("motion-sensor", "stream", stream(7, 10)).unwrap();
        assert_eq!(rows_at(&rt), before, "an ingest re-runs nothing");
        rt.set_policy("ActionFilter", figure4_policy().modules.remove(0));
        // the swap re-planned over the window as it stands now: the
        // original query reads the 100 ingested rows too
        assert_eq!(rows_at(&rt).0, before.0 + 100);
    }

    #[test]
    fn with_options_replans_recovered_handles() {
        let dir = std::env::temp_dir()
            .join(format!("paradise-rt-{}-with-options", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stack = || RuntimeOptions {
            assignment: crate::fragment::AssignmentPolicy::Stack,
            ..RuntimeOptions::default()
        };
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let mut written = runtime().with_options(stack()).durable(&dir).unwrap();
        let h = written.register("ActionFilter", &q).unwrap();
        drop(written);
        let nodes = |rt: Runtime| -> Vec<String> {
            let planned = rt.resolve(h).unwrap().plan.clone().unwrap();
            planned.stages.iter().map(|s| s.node.clone()).collect()
        };
        let fresh = || Runtime::new(ProcessingChain::apartment());
        let options_then_reopen = nodes(fresh().with_options(stack()).durable(&dir).unwrap());
        let reopen_then_options = nodes(fresh().durable(&dir).unwrap().with_options(stack()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reopen_then_options, options_then_reopen);
        assert_ne!(
            options_then_reopen,
            ["motion-sensor", "appliance", "media-center", "local-server"],
            "Stack keeps consecutive fragments on one node"
        );
    }

    #[test]
    fn multi_query_results_keep_registration_order() {
        let mut rt = runtime();
        let queries = [
            PAPER_ORIGINAL,
            "SELECT x, y, z, t FROM stream",
            "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
             FROM (SELECT x, y, z, t FROM stream) LIMIT 7",
        ];
        let mut handles = Vec::new();
        for q in queries {
            handles.push(rt.register("ActionFilter", &parse_query(q).unwrap()).unwrap());
        }
        let ticked = rt.tick().unwrap();
        let got: Vec<QueryHandle> = ticked.iter().map(|(h, _)| *h).collect();
        assert_eq!(got, handles);
        assert!(ticked[2].1.result.len() <= 7, "LIMIT survives the pipeline");
    }
}
