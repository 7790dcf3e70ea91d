//! A single processing node of the vertical hierarchy.

use std::collections::HashMap;
use std::sync::Arc;

use paradise_engine::plan::{ast_key, PlanCache, PlanCacheStats};
use paradise_engine::{
    Catalog, CompiledPlan, DeltaInput, Executor, Frame, IncrementalState, ShardSpec,
};
use paradise_sql::analysis::{base_relations, block_features, deep_features, FeatureSet};
use paradise_sql::ast::Query;

use crate::capability::{Capability, Level};
use crate::error::{NodeError, NodeResult};

/// Per-fragment static metadata, cached next to the compiled plan so
/// steady-state ticks re-walk no ASTs (capability features and
/// streamability are static per fragment).
#[derive(Debug, Clone)]
struct FragmentMeta {
    query: Query,
    features: FeatureSet,
    streamable: bool,
    tables: Vec<String>,
}

/// Upper bound on cached fragment metadata entries (epoch reset).
const MAX_CACHED_META: usize = 1024;

/// Execution statistics a node accumulates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Fragments executed.
    pub fragments_executed: usize,
    /// Input rows scanned across executions.
    pub rows_in: usize,
    /// Output rows produced.
    pub rows_out: usize,
    /// Output bytes produced.
    pub bytes_out: usize,
    /// Simulated CPU cost in abstract work units (rows / cpu_power).
    pub simulated_cost: f64,
}

/// One node: identity, capability, local catalog and statistics.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name within the chain (e.g. `"ubisense-sensor"`).
    pub name: String,
    /// Which level the node sits on.
    pub level: Level,
    /// What it can execute.
    pub capability: Capability,
    /// Tables/streams this node can access locally.
    pub catalog: Catalog,
    /// Accumulated statistics.
    pub stats: NodeStats,
    /// Compiled physical plans per (fragment, schema fingerprint,
    /// policy-version salt): continuous-query ticks re-execute without
    /// touching the AST.
    plans: PlanCache,
    /// Key extension of the plan cache: the policy version the node's
    /// fragments were rewritten under (0 outside the runtime).
    plan_salt: u64,
    /// Static fragment metadata (capability features, streamability,
    /// base tables), keyed like the plan cache.
    meta: HashMap<u64, Vec<FragmentMeta>>,
}

impl Node {
    /// New node with the default capability of its level.
    pub fn new(name: impl Into<String>, level: Level) -> Self {
        Node::with_capability_impl(name.into(), level, Capability::for_level(level))
    }

    /// New node with an explicit capability profile.
    pub fn with_capability(name: impl Into<String>, level: Level, capability: Capability) -> Self {
        Node::with_capability_impl(name.into(), level, capability)
    }

    fn with_capability_impl(name: String, level: Level, capability: Capability) -> Self {
        Node {
            name,
            level,
            capability,
            catalog: Catalog::new(),
            stats: NodeStats::default(),
            plans: PlanCache::new(),
            plan_salt: 0,
            meta: HashMap::new(),
        }
    }

    /// Hit/miss/invalidation counters of this node's compiled-plan
    /// cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The current plan-cache key extension (policy version).
    pub fn plan_salt(&self) -> u64 {
        self.plan_salt
    }

    /// Set the plan-cache key extension — the invalidation hook behind
    /// live policy updates. When the salt actually changes, every plan
    /// compiled under a previous salt is evicted (counted as
    /// invalidations in [`Node::plan_cache_stats`]) along with the
    /// cached fragment metadata, so a policy swap can never serve a
    /// stale rewriting's plan. Returns the number of evicted plans.
    pub fn set_plan_salt(&mut self, salt: u64) -> usize {
        if salt == self.plan_salt {
            return 0;
        }
        self.plan_salt = salt;
        self.meta.clear();
        self.plans.purge_salt(salt)
    }

    /// Register an input table (raw stream or a lower fragment's result).
    pub fn install_table(&mut self, name: &str, frame: Frame) {
        self.catalog.register_or_replace(name, frame);
    }

    /// Append a stream batch to a local table (see [`Catalog::append`]):
    /// the ingest path of the continuous-query runtime. The batch schema
    /// must match the installed table's, so cached plans stay valid.
    pub fn append_table(&mut self, name: &str, batch: Frame) -> NodeResult<()> {
        self.catalog.append(name, batch).map_err(NodeError::from)
    }

    /// Can this node run `fragment` (its own block only — nested blocks
    /// are other nodes' fragments)?
    pub fn can_execute(&self, fragment: &Query) -> bool {
        self.capability.supports(&block_features(fragment))
    }

    /// Capability check for a whole (unfragmented) query.
    pub fn can_execute_deep(&self, query: &Query) -> bool {
        self.capability.supports(&deep_features(query))
    }

    /// §3.1 capacity check: does the estimated working set fit?
    pub fn has_capacity_for(&self, input_bytes: usize) -> bool {
        // rule of thumb: engine working set ≈ 3× input
        input_bytes.saturating_mul(3) <= self.capability.memory_bytes
    }

    /// Is `fragment` executable tuple-at-a-time in constant memory?
    /// Pure filter scans are — a sensor streams them without holding the
    /// data; grouping, sorting, distinct, windows and joins materialise.
    pub fn is_streamable(fragment: &Query) -> bool {
        let flat_scan = matches!(fragment.from, Some(paradise_sql::ast::TableRef::Table { .. }))
            || fragment.from.is_none();
        flat_scan
            && fragment.group_by.is_empty()
            && fragment.having.is_none()
            && fragment.order_by.is_empty()
            && !fragment.distinct
            && fragment.unions.is_empty()
            && !block_features(fragment).contains(paradise_sql::analysis::SqlFeature::WindowFunctions)
    }

    /// Populate (if needed) and check the fragment's static metadata:
    /// capability features and — for materialising fragments — the §3.1
    /// capacity bound. `input_bytes_hint` overrides the catalog-derived
    /// input size (the delta driver passes the upstream stage's full
    /// output size, since incremental consumers keep only a schema
    /// husk of their input in the catalog). Returns the total rows of
    /// the catalog-resident input tables (for statistics).
    fn admit(
        &mut self,
        fragment: &Query,
        key: u64,
        input_bytes_hint: Option<usize>,
    ) -> NodeResult<usize> {
        let cached = self
            .meta
            .get(&key)
            .is_some_and(|list| list.iter().any(|m| m.query == *fragment));
        if !cached {
            if self.meta.len() >= MAX_CACHED_META {
                self.meta.clear();
            }
            self.meta.entry(key).or_default().push(FragmentMeta {
                query: fragment.clone(),
                features: deep_features(fragment),
                streamable: Node::is_streamable(fragment),
                tables: base_relations(fragment),
            });
        }
        let meta = self.meta[&key]
            .iter()
            .find(|m| m.query == *fragment)
            .expect("just inserted");

        if !self.capability.supports(&meta.features) {
            return Err(NodeError::CapabilityViolation {
                node: self.name.clone(),
                missing: self.capability.missing(&meta.features),
            });
        }
        let mut input_rows = 0usize;
        let mut catalog_bytes = 0usize;
        for frame in meta.tables.iter().filter_map(|t| self.catalog.get(t).ok()) {
            input_rows += frame.len();
            catalog_bytes += frame.size_bytes();
        }
        let input_bytes = input_bytes_hint.unwrap_or(catalog_bytes);
        if !meta.streamable && !self.has_capacity_for(input_bytes) {
            return Err(NodeError::CapacityExceeded {
                node: self.name.clone(),
                needed: input_bytes.saturating_mul(3),
                available: self.capability.memory_bytes,
            });
        }
        Ok(input_rows)
    }

    fn account(&mut self, rows_in: usize, result: &Frame) {
        self.stats.fragments_executed += 1;
        self.stats.rows_in += rows_in;
        self.stats.rows_out += result.len();
        self.stats.bytes_out += result.size_bytes();
        self.stats.simulated_cost += rows_in as f64 / self.capability.cpu_power;
    }

    /// Execute a fragment against the local catalog, enforcing the
    /// capability boundary and accounting statistics.
    ///
    /// The node caches a compiled physical plan plus the fragment's
    /// static metadata (capability features, streamability, base
    /// tables) per (fragment, schema fingerprint): a continuous query
    /// re-executing every tick walks no ASTs in steady state.
    pub fn execute(&mut self, fragment: &Query) -> NodeResult<Frame> {
        let key = ast_key(fragment);
        let input_rows = self.admit(fragment, key, None)?;
        let executor = Executor::new(&self.catalog);
        let plan = self.plans.get_or_compile_salted(&executor, fragment, self.plan_salt)?;
        let result = executor.run_plan(&plan)?;
        self.account(input_rows, &result);
        Ok(result)
    }

    /// Delta-aware fragment execution (see
    /// [`paradise_engine::plan::IncrementalPlan`]): process only the
    /// rows that arrived since the consumer's watermark — from the
    /// local catalog (`DeltaInput::Source`) or pushed by an upstream
    /// stage — and fold them into `state`.
    ///
    /// Returns `Ok(None)` when the fragment's shape is not
    /// incrementally maintainable; the caller then runs
    /// [`Node::execute`] over the full input (the compiled plan is
    /// already cached by this call, so the fallback lookup is a hit).
    /// Capability and capacity checks are enforced exactly like
    /// [`Node::execute`]; for pushed inputs, whose catalog entry is
    /// only a schema husk, the caller passes the logical input size as
    /// `input_bytes_hint` so the §3.1 capacity bound still binds.
    /// Statistics account the rows actually consumed.
    ///
    /// With a `shard` spec, grouped-aggregation stages run
    /// partition-parallel over the spec's shard count
    /// ([`paradise_engine::ShardSpec`]); every other shape (and shard
    /// count 1) takes the serial path with identical semantics.
    pub fn try_execute_delta(
        &mut self,
        fragment: &Query,
        input: DeltaInput<'_>,
        state: &mut IncrementalState,
        input_bytes_hint: Option<usize>,
        shard: Option<&ShardSpec>,
    ) -> NodeResult<Option<DeltaOutcome>> {
        let key = ast_key(fragment);
        self.admit(fragment, key, input_bytes_hint)?;
        let executor = Executor::new(&self.catalog);
        let (_, inc) =
            self.plans.get_or_compile_with_incremental(&executor, fragment, self.plan_salt)?;
        let Some(inc) = inc else { return Ok(None) };
        let run = match shard {
            Some(spec) => executor.run_incremental_sharded(&inc, state, input, spec)?,
            None => executor.run_incremental(&inc, state, input)?,
        };
        let input_rows = run.input_rows;
        let outcome = match run.delta {
            Some(delta) => {
                DeltaOutcome::Append { full: run.result, delta, reset: run.reset }
            }
            None => DeltaOutcome::Snapshot { full: run.result, reset: run.reset },
        };
        self.account(input_rows, outcome.full());
        Ok(Some(outcome))
    }

    /// Insert a plan compiled at another node/handle under this node's
    /// current salt — the seeding half of cross-handle plan sharing.
    /// Refused (returns `false`) when an entry already exists or the
    /// plan's schema fingerprint does not match this node's catalog.
    pub fn seed_plan(&mut self, fragment: &Query, plan: Arc<CompiledPlan>) -> bool {
        let executor = Executor::new(&self.catalog);
        self.plans.seed(&executor, fragment, self.plan_salt, plan)
    }

    /// The plans of this node's cache — the harvesting half of
    /// cross-handle plan sharing.
    pub fn shareable_plans(&self) -> Vec<(Query, Arc<CompiledPlan>)> {
        self.plans
            .compiled_entries()
            .map(|(q, p)| (q.clone(), Arc::clone(p)))
            .collect()
    }
}

/// What [`Node::try_execute_delta`] produced.
#[derive(Debug)]
pub enum DeltaOutcome {
    /// A stateless stage: `full` is the stage's complete logical
    /// output, `delta` the output of just this tick's input delta
    /// (push it downstream). `reset` = the state was rebuilt and
    /// `delta` covers the full input.
    Append {
        /// Complete logical output (cached, shared buffers).
        full: Frame,
        /// Output of this tick's delta only.
        delta: Frame,
        /// State was rebuilt this tick.
        reset: bool,
    },
    /// A grouped-aggregation stage: the (small) full output,
    /// recomputed from accumulator state.
    Snapshot {
        /// Complete logical output.
        full: Frame,
        /// State was rebuilt this tick.
        reset: bool,
    },
}

impl DeltaOutcome {
    /// The stage's complete logical output.
    pub fn full(&self) -> &Frame {
        match self {
            DeltaOutcome::Append { full, .. } | DeltaOutcome::Snapshot { full, .. } => full,
        }
    }

    /// Did the stage rebuild its state this tick?
    pub fn reset(&self) -> bool {
        match self {
            DeltaOutcome::Append { reset, .. } | DeltaOutcome::Snapshot { reset, .. } => *reset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};
    use paradise_sql::parse_query;

    fn stream_frame(n: usize) -> Frame {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("t", DataType::Integer),
        ]);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Float(i as f64 % 7.0),
                    Value::Float(i as f64 % 5.0),
                    Value::Float((i % 3) as f64),
                    Value::Int(i as i64),
                ]
            })
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn sensor_executes_its_fragment() {
        let mut sensor = Node::new("motion-sensor", Level::Sensor);
        sensor.install_table("stream", stream_frame(30));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        let result = sensor.execute(&q).unwrap();
        assert!(result.len() < 30 && !result.is_empty());
        assert_eq!(sensor.stats.fragments_executed, 1);
        assert_eq!(sensor.stats.rows_in, 30);
        assert_eq!(sensor.stats.rows_out, result.len());
    }

    #[test]
    fn sensor_rejects_projection() {
        let mut sensor = Node::new("motion-sensor", Level::Sensor);
        sensor.install_table("stream", stream_frame(10));
        let q = parse_query("SELECT x FROM stream").unwrap();
        let err = sensor.execute(&q).unwrap_err();
        assert!(matches!(err, NodeError::CapabilityViolation { .. }));
        assert_eq!(sensor.stats.fragments_executed, 0);
    }

    #[test]
    fn appliance_executes_group_by() {
        let mut appliance = Node::new("media-center", Level::Appliance);
        appliance.install_table("d2", stream_frame(30));
        let q = parse_query(
            "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 0",
        )
        .unwrap();
        assert!(appliance.can_execute(&q));
        let result = appliance.execute(&q).unwrap();
        assert!(!result.is_empty());
    }

    #[test]
    fn capacity_check_blocks_oversized_materialising_fragment() {
        // an appliance-capable node with sensor-sized memory cannot run a
        // GROUP BY over a large input — the data must escalate (§3.2)
        let mut capability = crate::capability::Capability::appliance_default();
        capability.memory_bytes = 64 * 1024;
        let mut tiny = Node::with_capability("tiny-tv", Level::Appliance, capability);
        tiny.install_table("d", stream_frame(30_000));
        let q = parse_query("SELECT x, AVG(z) AS za FROM d GROUP BY x").unwrap();
        let err = tiny.execute(&q).unwrap_err();
        assert!(matches!(err, NodeError::CapacityExceeded { .. }));
    }

    #[test]
    fn streamable_filters_bypass_the_capacity_check() {
        let mut sensor = Node::new("tiny", Level::Sensor);
        // 30k rows vastly exceed 64 KiB, but a pure filter streams
        sensor.install_table("stream", stream_frame(30_000));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        assert!(Node::is_streamable(&q));
        assert!(sensor.execute(&q).is_ok());
    }

    #[test]
    fn streamability_classification() {
        let ok = parse_query("SELECT x, y FROM d WHERE x > y LIMIT 10").unwrap();
        assert!(Node::is_streamable(&ok));
        for bad in [
            "SELECT x, AVG(z) FROM d GROUP BY x",
            "SELECT DISTINCT x FROM d",
            "SELECT x FROM d ORDER BY x",
            "SELECT SUM(x) OVER (ORDER BY t) FROM d",
            "SELECT x FROM (SELECT x FROM d)",
        ] {
            assert!(!Node::is_streamable(&parse_query(bad).unwrap()), "{bad}");
        }
    }

    #[test]
    fn deep_check_covers_nested_blocks() {
        let pc = Node::new("local-server", Level::Pc);
        let q = parse_query(
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
             FROM (SELECT x, y, AVG(z) AS zAVG, t FROM d GROUP BY x, y)",
        )
        .unwrap();
        assert!(pc.can_execute_deep(&q));
        let appliance = Node::new("tv", Level::Appliance);
        assert!(!appliance.can_execute_deep(&q));
        // but the appliance can run the inner block alone
        let inner = parse_query("SELECT x, y, AVG(z) AS zAVG, t FROM d GROUP BY x, y").unwrap();
        assert!(appliance.can_execute(&inner));
    }

    #[test]
    fn fragment_plans_are_cached_and_invalidated_per_schema() {
        let mut sensor = Node::new("s", Level::Sensor);
        sensor.install_table("stream", stream_frame(30));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        let first = sensor.execute(&q).unwrap();
        let second = sensor.execute(&q).unwrap();
        assert_eq!(first.to_rows(), second.to_rows());
        let stats = sensor.plan_cache_stats();
        assert_eq!(stats.misses, 1, "first tick compiles");
        assert_eq!(stats.hits, 1, "second tick reuses the plan");

        // replacing the stream with a different schema must recompile,
        // not reuse stale ordinals
        let schema = Schema::from_pairs(&[("z", DataType::Float)]);
        let narrow = Frame::new(
            schema,
            vec![vec![Value::Float(1.0)], vec![Value::Float(5.0)]],
        )
        .unwrap();
        sensor.install_table("stream", narrow);
        let out = sensor.execute(&q).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(sensor.plan_cache_stats().invalidations, 1);
    }

    #[test]
    fn append_table_ingests_batches() {
        let mut sensor = Node::new("s", Level::Sensor);
        sensor.install_table("stream", stream_frame(10));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        sensor.execute(&q).unwrap();
        sensor.append_table("stream", stream_frame(5)).unwrap();
        sensor.execute(&q).unwrap();
        assert_eq!(sensor.stats.rows_in, 25, "second tick sees the appended batch");
        // same schema: the compiled plan stayed valid
        let stats = sensor.plan_cache_stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 0));
        // a mismatched batch is rejected
        let narrow = Frame::new(
            Schema::from_pairs(&[("z", DataType::Float)]),
            vec![vec![Value::Float(1.0)]],
        )
        .unwrap();
        assert!(sensor.append_table("stream", narrow).is_err());
    }

    #[test]
    fn plan_salt_change_purges_cached_plans() {
        let mut sensor = Node::new("s", Level::Sensor);
        sensor.install_table("stream", stream_frame(10));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        sensor.execute(&q).unwrap();
        sensor.execute(&q).unwrap();
        assert_eq!(sensor.plan_cache_stats().hits, 1);

        // same salt: nothing happens
        assert_eq!(sensor.set_plan_salt(0), 0);
        // new salt (policy version bump): the cached plan is evicted and
        // the next tick recompiles under the new key
        assert_eq!(sensor.set_plan_salt(7), 1);
        assert_eq!(sensor.plan_salt(), 7);
        assert_eq!(sensor.plan_cache_stats().invalidations, 1);
        sensor.execute(&q).unwrap();
        assert_eq!(sensor.plan_cache_stats().misses, 2);
        sensor.execute(&q).unwrap();
        assert_eq!(sensor.plan_cache_stats().hits, 2);
    }

    #[test]
    fn stats_accumulate_over_fragments() {
        let mut pc = Node::new("pc", Level::Pc);
        pc.install_table("d", stream_frame(10));
        let q = parse_query("SELECT x FROM d").unwrap();
        pc.execute(&q).unwrap();
        pc.execute(&q).unwrap();
        assert_eq!(pc.stats.fragments_executed, 2);
        assert_eq!(pc.stats.rows_in, 20);
        assert!(pc.stats.simulated_cost > 0.0);
    }
}
