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
//! Invalidation is cascade-shaped: a retention eviction or source
//! replacement makes stage 0 rebuild from the full window; its rebuild
//! flag travels down the pipeline so every downstream state rebuilds in
//! the same tick. Results are **identical** to re-executing every
//! fragment over its full input — pinned by the engine's incremental
//! equivalence suite and, against the test-side reference
//! (`tests/support/reference.rs`), by the runtime's
//! ingest/tick/policy-swap proptests.

use std::collections::HashMap;
use std::sync::Arc;

use paradise_engine::plan::ast_key;
use paradise_engine::{
    CompiledPlan, DeltaInput, EngineError, Frame, IncrementalState, ShardSpec,
};
use paradise_nodes::{
    ChainRun, DeltaOutcome, Hop, NodeError, ProcessingChain, Stage, StageReport, TrafficLog,
};
use paradise_sql::ast::Query;

use crate::dp::DpPlan;
use crate::error::{CoreError, CoreResult};

/// The cross-handle plan pool: compiled fragment plans keyed by
/// (node name, fragment AST hash). Owned by the runtime, read-shared
/// into every handle's tick for just-in-time seeding.
pub(crate) type SharedPlans = HashMap<(String, u64), Vec<(Query, Arc<CompiledPlan>)>>;

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

/// One stage's memoized mode + incremental state.
#[derive(Debug)]
struct StageSlot {
    node: String,
    key: u64,
    mode: StageMode,
    state: IncrementalState,
}

/// The per-handle incremental execution state, owned by the runtime's
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

    /// (Re)align the slots with the current stage list; any mismatch in
    /// length, node assignment or fragment identity rebuilds all state.
    fn align(&mut self, stages: &[Stage]) {
        let matches = self.slots.len() == stages.len()
            && self
                .slots
                .iter()
                .zip(stages)
                .all(|(slot, stage)| slot.node == stage.node && slot.key == ast_key(&stage.fragment));
        if !matches {
            self.slots = stages
                .iter()
                .map(|s| StageSlot {
                    node: s.node.clone(),
                    key: ast_key(&s.fragment),
                    mode: StageMode::Probe,
                    state: IncrementalState::new(),
                })
                .collect();
        }
    }
}

/// What flows from one stage to the next.
enum Carry {
    /// First stage: reads its source table (watermarked) directly.
    Start,
    /// Upstream ran incrementally append-style: its output delta plus
    /// its cached full output (shared buffers, no copies).
    Delta { delta: Frame, full: Frame, reset: bool },
    /// Upstream produced a complete output (snapshot or full mode).
    Full(Frame),
}

/// Run the stage pipeline delta-aware (see the module docs). The
/// internal consistency signal [`EngineError::StalePlan`] — a stage's
/// state fell out of sync with a mid-stream plan recompilation — resets
/// the whole pipeline state and retries once from a clean rebuild; it
/// can never mask a genuine query error, which propagates as-is.
pub(crate) fn run_stages_delta(
    chain: &mut ProcessingChain,
    stages: &[Stage],
    hs: &mut HandleDeltaState,
    shared: &SharedPlans,
    shard: Option<&ShardSpec>,
    dp: Option<(&DpPlan, u64)>,
    draws: &mut u64,
) -> CoreResult<ChainRun> {
    // count draws per attempt so a StalePlan retry doesn't double-count
    let mut attempt_draws = 0u64;
    let result = match try_run_stages_delta(chain, stages, hs, shared, shard, dp, &mut attempt_draws)
    {
        Err(CoreError::Node(NodeError::Engine(EngineError::StalePlan))) => {
            hs.reset();
            attempt_draws = 0;
            try_run_stages_delta(chain, stages, hs, shared, shard, dp, &mut attempt_draws)
        }
        other => other,
    };
    if result.is_ok() {
        *draws += attempt_draws;
    }
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
    chain: &mut ProcessingChain,
    stages: &[Stage],
    hs: &mut HandleDeltaState,
    shared: &SharedPlans,
    shard: Option<&ShardSpec>,
    dp: Option<(&DpPlan, u64)>,
    draws: &mut u64,
) -> CoreResult<ChainRun> {
    if stages.is_empty() {
        return Err(CoreError::Node(NodeError::BadChain("no stages to run".into())));
    }
    hs.align(stages);

    let mut traffic = TrafficLog::default();
    let mut reports: Vec<StageReport> = Vec::with_capacity(stages.len());
    let mut carry = Carry::Start;

    for (i, stage) in stages.iter().enumerate() {
        let slot = &mut hs.slots[i];
        let was_probe = slot.mode == StageMode::Probe;
        // deliver the previous stage's output to this node and decide
        // how this stage consumes it; `(delta, reset, logical input
        // bytes)` — the size feeds the §3.1 capacity check, since an
        // incremental consumer's catalog holds only a schema husk
        let input: Option<(Frame, bool, usize)> = match &carry {
            Carry::Start => None,
            Carry::Delta { delta, full, reset } => {
                let prev = &stages[i - 1];
                // steady incremental ticks ship only the output delta;
                // an upstream rebuild (and every tick of a full-mode
                // consumer) ships the full output
                let full_needed = *reset || slot.mode != StageMode::Incremental;
                let shipped = if full_needed { full } else { delta };
                traffic.hops.push(Hop {
                    from: prev.node.clone(),
                    to: stage.node.clone(),
                    table: prev.publish_as.clone(),
                    rows: shipped.len(),
                    bytes: shipped.size_bytes(),
                });
                match slot.mode {
                    // full consumers (and the probe, whose fallback may
                    // execute over the catalog) need the real input
                    StageMode::Probe | StageMode::Full => {
                        chain.node_mut(&stage.node)?.install_table(&prev.publish_as, full.clone());
                    }
                    // incremental consumers fold the pushed delta; the
                    // catalog entry only carries the input *schema* for
                    // plan (re)compilation. Installing a schema-only
                    // frame instead of the data keeps the upstream
                    // stage's cached output exclusively owned — a
                    // pinned Arc would turn its per-tick append into a
                    // copy-on-write rescan of the whole window.
                    StageMode::Incremental => {
                        if *reset {
                            chain
                                .node_mut(&stage.node)?
                                .install_table(&prev.publish_as, Frame::empty(full.schema.clone()));
                        }
                    }
                }
                Some((delta.clone(), *reset, full.size_bytes()))
            }
            Carry::Full(frame) => {
                let prev = &stages[i - 1];
                traffic.hops.push(Hop {
                    from: prev.node.clone(),
                    to: stage.node.clone(),
                    table: prev.publish_as.clone(),
                    rows: frame.len(),
                    bytes: frame.size_bytes(),
                });
                chain.node_mut(&stage.node)?.install_table(&prev.publish_as, frame.clone());
                // a wholesale-replaced input cannot be folded as a
                // delta: this stage re-executes fully
                slot.mode = StageMode::Full;
                None
            }
        };

        let node = chain.node_mut(&stage.node)?;
        if was_probe {
            // just-in-time cross-handle sharing: another handle may have
            // compiled this exact fragment already — seed it (the input
            // table exists in the catalog by now, so the seed's schema
            // fingerprint can be verified) and skip the compile
            if let Some(entries) = shared.get(&(stage.node.clone(), slot.key)) {
                for (query, plan) in entries {
                    node.seed_plan(query, Arc::clone(plan));
                }
            }
        }
        let next_carry = match slot.mode {
            StageMode::Full => Carry::Full(node.execute(&stage.fragment)?),
            StageMode::Probe | StageMode::Incremental => {
                let (delta_input, bytes_hint) = match &input {
                    None => (DeltaInput::Source, None),
                    Some((delta, reset, bytes)) => {
                        (DeltaInput::Pushed { delta, reset: *reset }, Some(*bytes))
                    }
                };
                match node.try_execute_delta(
                    &stage.fragment,
                    delta_input,
                    &mut slot.state,
                    bytes_hint,
                    shard,
                )? {
                    Some(outcome) => {
                        slot.mode = StageMode::Incremental;
                        if was_probe && i > 0 {
                            // the probe installed the real input as a
                            // fallback; shrink it to a schema carrier so
                            // the upstream cache stays exclusively owned
                            let prev = &stages[i - 1];
                            let schema = node
                                .catalog
                                .get(&prev.publish_as)
                                .map(|f| f.schema.clone());
                            if let Ok(schema) = schema {
                                node.install_table(&prev.publish_as, Frame::empty(schema));
                            }
                        }
                        match outcome {
                            DeltaOutcome::Append { full, delta, reset } => {
                                Carry::Delta { delta, full, reset }
                            }
                            // downstream consumes the recomputed
                            // snapshot wholesale (it is O(groups)-sized)
                            DeltaOutcome::Snapshot { full, reset: _ } => Carry::Full(full),
                        }
                    }
                    None => {
                        // not incrementally maintainable: the full input
                        // is in the catalog (stage 0 always; later
                        // stages were installed above on probe)
                        slot.mode = StageMode::Full;
                        Carry::Full(node.execute(&stage.fragment)?)
                    }
                }
            }
        };

        // the differential-privacy noise boundary: noise the aggregation
        // stage's *finalized* output before it is reported or shipped
        // downstream. The accumulator state behind it stays exact (and
        // shard merges, which happen inside the stage, are pre-noise);
        // everything from here up consumes only the noised frame. A
        // noised carry is necessarily `Full` — the noise changes every
        // tick, so downstream stages cannot fold it as a delta.
        let next_carry = match (dp, next_carry) {
            (Some((plan, seed)), produced) if plan.stage == i && plan.is_noisy() => {
                let full = match produced {
                    Carry::Delta { full, .. } | Carry::Full(full) => full,
                    Carry::Start => unreachable!("every stage produces output"),
                };
                let (noised, n) = paradise_engine::apply_laplace(&full, &plan.specs, seed);
                *draws += n;
                Carry::Full(noised)
            }
            (_, produced) => produced,
        };

        if i > 0 && input.is_some() && slot.mode == StageMode::Full {
            // a full-mode stage fed by an upstream *append* cache must
            // not keep its installed input between ticks: the shared
            // column Arcs would turn the upstream's next O(batch) fold
            // into a copy-on-write rescan of its whole cached output.
            // The input is re-installed fresh at the next delivery.
            let prev = &stages[i - 1];
            let node = chain.node_mut(&stage.node)?;
            if let Ok(schema) = node.catalog.get(&prev.publish_as).map(|f| f.schema.clone()) {
                node.install_table(&prev.publish_as, Frame::empty(schema));
            }
        }

        let (full, level) = match &next_carry {
            Carry::Delta { full, .. } | Carry::Full(full) => {
                (full, chain.node(&stage.node)?.level)
            }
            Carry::Start => unreachable!("every stage produces output"),
        };
        reports.push(StageReport {
            node: stage.node.clone(),
            level,
            sql: if stage.sql.is_empty() {
                stage.fragment.to_string()
            } else {
                stage.sql.clone()
            },
            rows_out: full.len(),
            bytes_out: full.size_bytes(),
        });
        carry = next_carry;
    }

    let result = match carry {
        Carry::Delta { full, .. } | Carry::Full(full) => full,
        Carry::Start => unreachable!("stages is non-empty"),
    };
    Ok(ChainRun { result, traffic, stages: reports })
}
