//! The delta-aware tick driver: runs a handle's fragment pipeline so
//! that steady-state tick cost is proportional to the **ingested
//! batch**, not the retained stream window.
//!
//! Stages chain as in [`ProcessingChain::run_stages`], but instead of
//! re-executing every fragment over its full input, each stage runs in
//! one of three modes, probed once and memoized:
//!
//! * **Incremental append** (stateless filter/projection): processes
//!   only the input delta and ships only the *output delta* to the next
//!   node — the in-network traffic shrinks with the batch too.
//! * **Incremental snapshot** (grouped aggregation): folds the input
//!   delta into per-group accumulator state and ships the recomputed
//!   (small) full output.
//! * **Full**: shapes the engine cannot maintain incrementally (window
//!   functions, joins, `ORDER BY` over history) re-execute over their
//!   full input exactly as before — but when they sit above an
//!   aggregation barrier that input is already tiny.
//!
//! The driver runs on the runtime's one chain, read-only. A stage's
//! input is the upstream output bound to its executor under the
//! upstream `publish_as` name for the duration of the stage call
//! ([`Executor::with_input`]); nothing is installed into any catalog.
//! Everything a stage keeps between ticks — mode, incremental state,
//! compiled plans, fragment metadata — lives in the handle's
//! `StageSlot`s, so a steady tick does no AST hashing and no cache
//! lookup.
//!
//! A retention trim travels down the pipeline as a retraction: stage 0
//! learns from its watermark how many of its input rows were evicted,
//! drops their outputs (an append stage) or deletes and refolds the
//! groups they fed (a grouped stage), and an append stage hands the
//! number of output rows it dropped on beside its delta, so the next
//! stage retracts those in the same tick. Invalidation is
//! cascade-shaped: a source replacement, an eviction past a stage's
//! mark or a trim of a global aggregation makes that stage rebuild from
//! its full input; its rebuild flag travels down the pipeline so every
//! downstream state rebuilds in the same tick. Results are
//! **identical** to re-executing every
//! fragment over its full input — pinned by the engine's incremental
//! equivalence suite and, against the test-side reference
//! (`tests/support/reference.rs`), by the runtime's
//! ingest/tick/policy-swap proptests.

use std::sync::{Mutex, PoisonError};

use paradise_engine::{
    DeltaInput, EngineError, Executor, Frame, IncrementalState, PlanCache, PlanSet,
};
use paradise_nodes::{
    ChainRun, FragmentMeta, Hop, NodeError, NodeResult, ProcessingChain, Stage, StageReport,
    TrafficLog,
};
use paradise_sql::ast::Query;

use crate::dp::DpPlan;
use crate::error::{CoreError, CoreResult};

/// Per-stage execution mode, discovered on the first tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageMode {
    /// Not probed yet.
    Probe,
    /// Delta-aware (append or snapshot).
    Incremental,
    /// Full re-execution per tick.
    Full,
}

/// Everything about one stage of a handle's pipeline that outlives a
/// tick: its mode, its incremental state, its compiled plans and its
/// fragment's static metadata.
#[derive(Debug)]
struct StageSlot {
    mode: StageMode,
    state: IncrementalState,
    /// Taken from the runtime's plan cache when the slot has none, and
    /// dropped when the stage's input schemas move under it.
    plans: Option<PlanSet>,
    meta: FragmentMeta,
}

/// The per-handle execution state, owned by the runtime's
/// `QueryHandle` slot and dropped whenever the handle's rewrite plan is
/// rebuilt (policy swap, source schema change).
#[derive(Debug, Default)]
pub(crate) struct HandleDeltaState {
    slots: Vec<StageSlot>,
}

impl HandleDeltaState {
    /// Drop all per-stage state: the next tick rebuilds everything.
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
    }

    /// Rebuilds and retracted groups, summed over the stages.
    pub(crate) fn counters(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(rebuilds, groups), slot| {
            (rebuilds + slot.state.rebuilds(), groups + slot.state.retracted_groups())
        })
    }
}

/// What flows from one stage to the next.
enum Carry {
    /// First stage: reads its source table (watermarked) directly.
    Start,
    /// Upstream ran incrementally append-style: its output delta, the
    /// rows it retracted from the front of its output, and its cached
    /// full output (shared buffers, no copies).
    Delta { delta: Frame, evicted: usize, full: Frame, reset: bool },
    /// Upstream produced a complete output (snapshot or full mode).
    Full(Frame),
}

/// One successful pipeline run: the chain run, the input rows each
/// stage consumed (for the nodes' statistics) and the Laplace draws its
/// noise took.
pub(crate) struct DeltaRun {
    pub(crate) run: ChainRun,
    pub(crate) rows_in: Vec<usize>,
    pub(crate) draws: u64,
}

/// Run the stage pipeline delta-aware (see the module docs). The
/// internal consistency signal [`EngineError::StalePlan`] — a stage's
/// state fell out of sync with a mid-stream plan recompilation — resets
/// the whole pipeline state and retries once from a clean rebuild; it
/// can never mask a genuine query error, which propagates as-is. Only
/// the attempt that succeeds counts its draws.
pub(crate) fn run_stages_delta(
    chain: &ProcessingChain,
    stages: &[Stage],
    hs: &mut HandleDeltaState,
    cache: &Mutex<PlanCache>,
    dp: Option<(&DpPlan, u64)>,
) -> CoreResult<DeltaRun> {
    let result = match try_run_stages_delta(chain, stages, hs, cache, dp) {
        Err(CoreError::Node(NodeError::Engine(EngineError::StalePlan))) => {
            hs.reset();
            try_run_stages_delta(chain, stages, hs, cache, dp)
        }
        other => other,
    };
    if result.is_err() {
        // a failing stage may leave upstream states already advanced
        // past the tick's delta (their watermarks committed) while
        // downstream states never folded it. Rebuilding everything on
        // the next tick keeps failed ticks convergent with a full
        // re-execution — no batch can be silently lost.
        hs.reset();
    }
    result
}

fn try_run_stages_delta(
    chain: &ProcessingChain,
    stages: &[Stage],
    hs: &mut HandleDeltaState,
    cache: &Mutex<PlanCache>,
    dp: Option<(&DpPlan, u64)>,
) -> CoreResult<DeltaRun> {
    if stages.is_empty() {
        return Err(CoreError::Node(NodeError::BadChain("no stages to run".into())));
    }
    if hs.slots.len() != stages.len() {
        hs.slots = stages
            .iter()
            .map(|s| StageSlot {
                mode: StageMode::Probe,
                state: IncrementalState::new(),
                plans: None,
                meta: FragmentMeta::of(&s.fragment),
            })
            .collect();
    }

    let mut traffic = TrafficLog::default();
    let mut reports: Vec<StageReport> = Vec::with_capacity(stages.len());
    let mut rows_in: Vec<usize> = Vec::with_capacity(stages.len());
    let mut draws = 0;
    let mut carry = Carry::Start;

    for (i, stage) in stages.iter().enumerate() {
        let slot = &mut hs.slots[i];
        // hand the previous stage's output on by value: its full output
        // is bound under its `publish_as` name for this stage's
        // executor, and an incremental consumer also gets the delta
        let (input, pushed) = match &carry {
            Carry::Start => (None, None),
            Carry::Delta { delta, evicted, full, reset } => {
                // steady incremental ticks ship only the output delta;
                // an upstream rebuild (and every tick of a full-mode
                // consumer) ships the full output
                let full_needed = *reset || slot.mode != StageMode::Incremental;
                traffic.hops.push(hop(&stages[i - 1], stage, if full_needed { full } else { delta }));
                let pushed = DeltaInput::Pushed { delta, reset: *reset, evicted: *evicted };
                (Some(full), Some(pushed))
            }
            Carry::Full(frame) => {
                traffic.hops.push(hop(&stages[i - 1], stage, frame));
                // a wholesale-replaced input cannot be folded as a
                // delta: this stage re-executes fully
                slot.mode = StageMode::Full;
                (Some(frame), None)
            }
        };
        let node = chain.node(&stage.node)?;
        let exec = match input {
            Some(frame) => Executor::with_input(&node.catalog, &stages[i - 1].publish_as, frame),
            None => Executor::new(&node.catalog),
        };
        let admitted_rows = node.admit(&slot.meta, &exec)?;
        let (produced, consumed) =
            run_stage(admitted_rows, slot, &exec, &stage.fragment, pushed, cache)?;
        rows_in.push(consumed);

        // the differential-privacy noise boundary: noise the aggregation
        // stage's *finalized* output before it is reported or shipped
        // downstream. The accumulator state behind it stays exact (and
        // shard merges, which happen inside the stage, are pre-noise);
        // everything from here up consumes only the noised frame. A
        // noised carry is necessarily `Full` — the noise changes every
        // tick, so downstream stages cannot fold it as a delta.
        let produced = match (dp, produced) {
            (Some((plan, seed)), Carry::Delta { full, .. } | Carry::Full(full))
                if plan.stage == i && plan.is_noisy() =>
            {
                let (noised, n) = paradise_engine::apply_laplace(&full, &plan.specs, seed);
                draws += n;
                Carry::Full(noised)
            }
            (_, produced) => produced,
        };

        let full = match &produced {
            Carry::Delta { full, .. } | Carry::Full(full) => full,
            Carry::Start => unreachable!("every stage produces output"),
        };
        reports.push(StageReport {
            node: stage.node.clone(),
            level: node.level,
            rows_out: full.len(),
            bytes_out: full.size_bytes(),
        });
        carry = produced;
    }

    let result = match carry {
        Carry::Delta { full, .. } | Carry::Full(full) => full,
        Carry::Start => unreachable!("stages is non-empty"),
    };
    Ok(DeltaRun { run: ChainRun { result, traffic, stages: reports }, rows_in, draws })
}

/// One admitted stage: take the slot's plans (from the runtime cache
/// when it has none or the input schemas moved), then run it in the
/// slot's mode. `admitted_rows` are the input rows a full re-execution
/// scans; returns the stage's output and the rows it consumed.
fn run_stage(
    admitted_rows: usize,
    slot: &mut StageSlot,
    exec: &Executor<'_>,
    fragment: &Query,
    pushed: Option<DeltaInput<'_>>,
    cache: &Mutex<PlanCache>,
) -> NodeResult<(Carry, usize)> {
    if slot.plans.as_ref().is_some_and(|p| !p.is_current(exec)) {
        slot.plans = None;
    }
    let plans = match &mut slot.plans {
        Some(plans) => plans,
        empty => empty.insert(cached_plans(cache, exec, fragment)?),
    };
    let inc = match (slot.mode, &plans.incremental) {
        (StageMode::Probe | StageMode::Incremental, Some(inc)) => inc,
        _ => {
            slot.mode = StageMode::Full;
            return Ok((Carry::Full(exec.run_plan(&plans.plan)?), admitted_rows));
        }
    };
    let run = exec.run_incremental(inc, &mut slot.state, pushed.unwrap_or(DeltaInput::Source))?;
    slot.mode = StageMode::Incremental;
    let carry = match run.delta {
        Some(delta) => {
            Carry::Delta { delta, evicted: run.evicted, full: run.result, reset: run.reset }
        }
        // downstream consumes the recomputed snapshot wholesale (it is
        // O(groups)-sized)
        None => Carry::Full(run.result),
    };
    Ok((carry, run.input_rows))
}

/// The plans of `fragment` over the schemas `exec` resolves, from the
/// runtime's cache or freshly compiled — never under the lock.
fn cached_plans(
    cache: &Mutex<PlanCache>,
    exec: &Executor<'_>,
    fragment: &Query,
) -> NodeResult<PlanSet> {
    // a panic elsewhere cannot leave the cache half-updated: lookup and
    // insert hold the lock only for panic-free map updates, so a
    // poisoned guard still guards a valid cache
    let lock = || cache.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plans) = lock().lookup(exec, fragment) {
        return Ok(plans);
    }
    let plans = exec.compile_set(fragment)?;
    // a handle that compiled the same fragment meanwhile wins: adopt its
    // set so every stage shares one `Arc`
    Ok(lock().insert(exec, fragment, plans))
}

fn hop(from: &Stage, to: &Stage, shipped: &Frame) -> Hop {
    Hop {
        from: from.node.clone(),
        to: to.node.clone(),
        table: from.publish_as.clone(),
        rows: shipped.len(),
        bytes: shipped.size_bytes(),
    }
}
