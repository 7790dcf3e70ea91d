//! A single processing node of the vertical hierarchy.

use paradise_engine::{Catalog, Executor, Frame};
use paradise_sql::analysis::{base_relations, block_features, deep_features, FeatureSet};
use paradise_sql::ast::Query;

use crate::capability::{Capability, Level};
use crate::error::{NodeError, NodeResult};

/// A fragment's static metadata: what a node's capability and capacity
/// checks read. A continuous query computes it once per stage, so its
/// steady-state ticks re-walk no ASTs.
#[derive(Debug, Clone)]
pub struct FragmentMeta {
    features: FeatureSet,
    streamable: bool,
    tables: Vec<String>,
}

impl FragmentMeta {
    /// Analyse `fragment`.
    pub fn of(fragment: &Query) -> Self {
        FragmentMeta {
            features: deep_features(fragment),
            streamable: Node::is_streamable(fragment),
            tables: base_relations(fragment),
        }
    }
}

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
}

impl Node {
    /// New node with the default capability of its level.
    pub fn new(name: impl Into<String>, level: Level) -> Self {
        Node::with_capability(name, level, Capability::for_level(level))
    }

    /// New node with an explicit capability profile.
    pub fn with_capability(name: impl Into<String>, level: Level, capability: Capability) -> Self {
        Node {
            name: name.into(),
            level,
            capability,
            catalog: Catalog::new(),
            stats: NodeStats::default(),
        }
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

    /// Admit a fragment with metadata `meta` whose input tables resolve
    /// through `exec` (this node's catalog, plus whatever input the
    /// caller bound): enforce the capability boundary and — for
    /// materialising fragments — the §3.1 capacity bound. Returns the
    /// total rows of the input tables (for statistics).
    pub fn admit(&self, meta: &FragmentMeta, exec: &Executor<'_>) -> NodeResult<usize> {
        if !self.capability.supports(&meta.features) {
            return Err(NodeError::CapabilityViolation {
                node: self.name.clone(),
                missing: self.capability.missing(&meta.features),
            });
        }
        let mut input_rows = 0usize;
        let mut input_bytes = 0usize;
        for frame in meta.tables.iter().filter_map(|t| exec.table(t).ok()) {
            input_rows += frame.len();
            input_bytes += frame.size_bytes();
        }
        if !meta.streamable && !self.has_capacity_for(input_bytes) {
            return Err(NodeError::CapacityExceeded {
                node: self.name.clone(),
                needed: input_bytes.saturating_mul(3),
                available: self.capability.memory_bytes,
            });
        }
        Ok(input_rows)
    }

    /// Account one fragment execution in the node's statistics.
    pub fn account(&mut self, rows_in: usize, rows_out: usize, bytes_out: usize) {
        self.stats.fragments_executed += 1;
        self.stats.rows_in += rows_in;
        self.stats.rows_out += rows_out;
        self.stats.bytes_out += bytes_out;
        self.stats.simulated_cost += rows_in as f64 / self.capability.cpu_power;
    }

    /// Execute a fragment against the local catalog, enforcing the
    /// capability boundary and accounting statistics. The fragment is
    /// analysed and compiled on every call; a continuous query keeps its
    /// metadata and plans with its stages instead.
    pub fn execute(&mut self, fragment: &Query) -> NodeResult<Frame> {
        let exec = Executor::new(&self.catalog);
        let input_rows = self.admit(&FragmentMeta::of(fragment), &exec)?;
        let result = exec.execute(fragment)?;
        self.account(input_rows, result.len(), result.size_bytes());
        Ok(result)
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
    fn admit_blocks_oversized_materialising_fragment() {
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
    fn admission_counts_a_bound_input_like_a_catalog_table() {
        // the upstream output reaches a node as a bound input, not a
        // catalog table: the §3.1 capacity bound still sees its size
        let mut capability = crate::capability::Capability::appliance_default();
        capability.memory_bytes = 64 * 1024;
        let tiny = Node::with_capability("tiny-tv", Level::Appliance, capability);
        let meta = FragmentMeta::of(&parse_query("SELECT x, AVG(z) AS za FROM d GROUP BY x").unwrap());
        let small = stream_frame(10);
        assert_eq!(tiny.admit(&meta, &Executor::with_input(&tiny.catalog, "d", &small)).unwrap(), 10);
        let big = stream_frame(30_000);
        let err = tiny.admit(&meta, &Executor::with_input(&tiny.catalog, "d", &big)).unwrap_err();
        assert!(matches!(err, NodeError::CapacityExceeded { .. }));
        assert!(tiny.catalog.is_empty(), "admission installs nothing");
    }

    #[test]
    fn streamable_filters_bypass_the_capacity_bound() {
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
        // the window function runs on the PC, not the appliance…
        assert!(pc.can_execute(&q));
        let appliance = Node::new("tv", Level::Appliance);
        assert!(!appliance.can_execute(&q));
        // …but the appliance can run the inner block alone
        let inner = parse_query("SELECT x, y, AVG(z) AS zAVG, t FROM d GROUP BY x, y").unwrap();
        assert!(appliance.can_execute(&inner));
    }

    #[test]
    fn execute_follows_source_schema_changes() {
        let mut sensor = Node::new("s", Level::Sensor);
        sensor.install_table("stream", stream_frame(30));
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        let first = sensor.execute(&q).unwrap();
        let second = sensor.execute(&q).unwrap();
        assert_eq!(first.to_rows(), second.to_rows());

        // replacing the stream with a different schema must bind the
        // new ordinals, not stale ones
        let schema = Schema::from_pairs(&[("z", DataType::Float)]);
        let narrow = Frame::new(
            schema,
            vec![vec![Value::Float(1.0)], vec![Value::Float(5.0)]],
        )
        .unwrap();
        sensor.install_table("stream", narrow);
        let out = sensor.execute(&q).unwrap();
        assert_eq!(out.len(), 1);
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
        // a mismatched batch is rejected
        let narrow = Frame::new(
            Schema::from_pairs(&[("z", DataType::Float)]),
            vec![vec![Value::Float(1.0)]],
        )
        .unwrap();
        assert!(sensor.append_table("stream", narrow).is_err());
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
