//! The processing chain: an ordered sequence of nodes from the data
//! source (sensor) up to the cloud, with traffic accounting for every
//! hop (the Figure 3 experiments measure exactly this).

use paradise_engine::Frame;
use paradise_sql::ast::Query;

use crate::capability::Level;
use crate::error::{NodeError, NodeResult};
use crate::node::Node;

/// One shipment of data between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Sending node.
    pub from: String,
    /// Receiving node.
    pub to: String,
    /// Table name the data was published under at the receiver.
    pub table: String,
    /// Rows shipped.
    pub rows: usize,
    /// Bytes shipped.
    pub bytes: usize,
}

/// Log of all shipments of a chain run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficLog {
    /// Hops in shipment order.
    pub hops: Vec<Hop>,
}

impl TrafficLog {
    /// Total bytes over all hops.
    pub fn total_bytes(&self) -> usize {
        self.hops.iter().map(|h| h.bytes).sum()
    }

    /// Bytes of the final hop — what actually "leaves the apartment"
    /// towards the cloud in the paper's story.
    pub fn last_hop_bytes(&self) -> usize {
        self.hops.last().map(|h| h.bytes).unwrap_or(0)
    }

    /// Bytes shipped *from* a given node.
    pub fn bytes_from(&self, node: &str) -> usize {
        self.hops.iter().filter(|h| h.from == node).map(|h| h.bytes).sum()
    }
}

/// A fragment assigned to a node, publishing its result under a name
/// for the next stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Node to run on (must exist in the chain).
    pub node: String,
    /// Fragment to execute there.
    pub fragment: Query,
    /// Name under which the result is installed at the *next* stage's
    /// node (or returned, for the last stage).
    pub publish_as: String,
}

/// Report for one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Node name.
    pub node: String,
    /// Level of the node.
    pub level: Level,
    /// Rows produced.
    pub rows_out: usize,
    /// Bytes produced.
    pub bytes_out: usize,
}

/// Result of running a full stage pipeline.
#[derive(Debug, Clone)]
pub struct ChainRun {
    /// Output of the last stage.
    pub result: Frame,
    /// Shipments between stages.
    pub traffic: TrafficLog,
    /// Per-stage reports, bottom-up.
    pub stages: Vec<StageReport>,
}

/// An ordered chain of nodes, lowest level (sensor) first.
#[derive(Debug, Clone)]
pub struct ProcessingChain {
    nodes: Vec<Node>,
}

fn rank(level: Level) -> u8 {
    match level {
        Level::Sensor => 0,
        Level::Appliance => 1,
        Level::Pc => 2,
        Level::Cloud => 3,
    }
}

impl ProcessingChain {
    /// Build a chain; nodes must be ordered bottom-up (levels
    /// non-decreasing) and names unique.
    pub fn new(nodes: Vec<Node>) -> NodeResult<Self> {
        if nodes.is_empty() {
            return Err(NodeError::BadChain("chain must contain at least one node".into()));
        }
        for pair in nodes.windows(2) {
            if rank(pair[0].level) > rank(pair[1].level) {
                return Err(NodeError::BadChain(format!(
                    "node {:?} ({}) must not sit above {:?} ({})",
                    pair[0].name, pair[0].level, pair[1].name, pair[1].level
                )));
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            if nodes[..i].iter().any(|m| m.name == n.name) {
                return Err(NodeError::BadChain(format!("duplicate node name {:?}", n.name)));
            }
        }
        Ok(ProcessingChain { nodes })
    }

    /// The standard apartment chain of the paper's use case (§4.2):
    /// motion sensor → appliance → media center → local server → cloud.
    pub fn apartment() -> Self {
        ProcessingChain::new(vec![
            Node::new("motion-sensor", Level::Sensor),
            Node::new("appliance", Level::Appliance),
            Node::new("media-center", Level::Appliance),
            Node::new("local-server", Level::Pc),
            Node::new("cloud", Level::Cloud),
        ])
        .expect("static chain is valid")
    }

    /// Ablation variant: the same chain but with the local server limited
    /// to strict SQL-92 (paper Table 1 verbatim, without the §4.2
    /// window-function extension). Window/regression fragments then
    /// escalate to the cloud.
    pub fn apartment_strict_sql92() -> Self {
        ProcessingChain::new(vec![
            Node::new("motion-sensor", Level::Sensor),
            Node::new("appliance", Level::Appliance),
            Node::new("media-center", Level::Appliance),
            Node::with_capability(
                "local-server",
                Level::Pc,
                crate::capability::Capability::pc_strict_sql92(),
            ),
            Node::new("cloud", Level::Cloud),
        ])
        .expect("static chain is valid")
    }

    /// Nodes bottom-up.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to every node, e.g. to configure the catalogs'
    /// stream partitioning policy.
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// Append a stream batch to a table at a named node — the chain-level
    /// ingest path of the continuous-query runtime.
    pub fn ingest(&mut self, node: &str, table: &str, batch: Frame) -> NodeResult<()> {
        self.node_mut(node)?.append_table(table, batch)
    }

    /// Mutable node lookup by name.
    pub fn node_mut(&mut self, name: &str) -> NodeResult<&mut Node> {
        self.nodes
            .iter_mut()
            .find(|n| n.name == name)
            .ok_or_else(|| NodeError::UnknownNode(name.to_string()))
    }

    /// Node lookup by name.
    pub fn node(&self, name: &str) -> NodeResult<&Node> {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .ok_or_else(|| NodeError::UnknownNode(name.to_string()))
    }

    /// The lowest node (data source end).
    pub fn bottom(&self) -> &Node {
        self.nodes.first().expect("chain is non-empty")
    }

    /// The highest node (cloud end).
    pub fn top(&self) -> &Node {
        self.nodes.last().expect("chain is non-empty")
    }

    /// First node at or above `level` that can execute `fragment`
    /// (used by the fragmenter to place fragments maximally low).
    pub fn lowest_capable(&self, fragment: &Query) -> Option<&Node> {
        self.nodes.iter().find(|n| n.can_execute(fragment))
    }

    /// Execute a pipeline of stages bottom-up. Stage `i`'s result is
    /// installed at stage `i+1`'s node under stage `i`'s `publish_as`
    /// name; the last stage's output is returned.
    pub fn run_stages(&mut self, stages: &[Stage]) -> NodeResult<ChainRun> {
        self.run_stages_with(stages, |_, frame| frame)
    }

    /// [`ProcessingChain::run_stages`] with a per-stage post-processing
    /// hook applied to each stage's finalized output **before** it is
    /// reported and shipped upward. This is the differential-privacy
    /// noise boundary: the runtime noises the aggregation stage here, so
    /// traffic accounting and every downstream node see only the noised
    /// frame, while the stage's own execution (and any accumulator
    /// state behind it) stays exact.
    pub fn run_stages_with(
        &mut self,
        stages: &[Stage],
        mut post: impl FnMut(usize, Frame) -> Frame,
    ) -> NodeResult<ChainRun> {
        if stages.is_empty() {
            return Err(NodeError::BadChain("no stages to run".into()));
        }
        let mut traffic = TrafficLog::default();
        let mut reports = Vec::with_capacity(stages.len());
        let mut current: Option<Frame> = None;

        for (i, stage) in stages.iter().enumerate() {
            // install the previous result at this node
            if let Some(frame) = current.take() {
                let prev = &stages[i - 1];
                traffic.hops.push(Hop {
                    from: prev.node.clone(),
                    to: stage.node.clone(),
                    table: prev.publish_as.clone(),
                    rows: frame.len(),
                    bytes: frame.size_bytes(),
                });
                self.node_mut(&stage.node)?.install_table(&prev.publish_as, frame);
            }
            let node = self.node_mut(&stage.node)?;
            let result = post(i, node.execute(&stage.fragment)?);
            reports.push(StageReport {
                node: node.name.clone(),
                level: node.level,
                rows_out: result.len(),
                bytes_out: result.size_bytes(),
            });
            current = Some(result);
        }
        Ok(ChainRun {
            result: current.expect("at least one stage ran"),
            traffic,
            stages: reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_engine::{DataType, Schema, Value};
    use paradise_sql::parse_query;

    fn stream(n: usize) -> Frame {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("z", DataType::Float),
            ("t", DataType::Integer),
        ]);
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::Float((i % 9) as f64),
                    Value::Float((i % 4) as f64),
                    Value::Float((i % 3) as f64 * 0.9),
                    Value::Int(i as i64),
                ]
            })
            .collect();
        Frame::new(schema, rows).unwrap()
    }

    #[test]
    fn apartment_chain_is_ordered() {
        let chain = ProcessingChain::apartment();
        assert_eq!(chain.bottom().level, Level::Sensor);
        assert_eq!(chain.top().level, Level::Cloud);
        assert_eq!(chain.nodes().len(), 5);
    }

    #[test]
    fn chain_validates_order_and_names() {
        let bad = ProcessingChain::new(vec![
            Node::new("cloud", Level::Cloud),
            Node::new("sensor", Level::Sensor),
        ]);
        assert!(matches!(bad, Err(NodeError::BadChain(_))));
        let dup = ProcessingChain::new(vec![
            Node::new("a", Level::Sensor),
            Node::new("a", Level::Appliance),
        ]);
        assert!(matches!(dup, Err(NodeError::BadChain(_))));
        assert!(matches!(ProcessingChain::new(vec![]), Err(NodeError::BadChain(_))));
    }

    #[test]
    fn run_stages_ships_and_accounts() {
        let mut chain = ProcessingChain::apartment();
        chain.node_mut("motion-sensor").unwrap().install_table("stream", stream(50));
        let stages = vec![
            Stage {
                node: "motion-sensor".into(),
                fragment: parse_query("SELECT * FROM stream WHERE z < 2").unwrap(),
                publish_as: "d1".into(),
            },
            Stage {
                node: "appliance".into(),
                fragment: parse_query("SELECT x, y, z, t FROM d1 WHERE x > y").unwrap(),
                publish_as: "d2".into(),
            },
            Stage {
                node: "media-center".into(),
                fragment: parse_query(
                    "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 0",
                )
                .unwrap(),
                publish_as: "d3".into(),
            },
            Stage {
                node: "local-server".into(),
                fragment: parse_query(
                    "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3",
                )
                .unwrap(),
                publish_as: "dprime".into(),
            },
        ];
        let run = chain.run_stages(&stages).unwrap();
        assert_eq!(run.stages.len(), 4);
        assert_eq!(run.traffic.hops.len(), 3);
        // data volume shrinks monotonically along this chain
        let bytes: Vec<usize> = run.traffic.hops.iter().map(|h| h.bytes).collect();
        assert!(bytes[0] >= bytes[1] && bytes[1] >= bytes[2], "{bytes:?}");
        assert!(run.traffic.last_hop_bytes() <= run.traffic.total_bytes());
        assert!(!run.result.is_empty());
    }

    #[test]
    fn run_stages_rejects_fragment_beyond_capability() {
        let mut chain = ProcessingChain::apartment();
        chain.node_mut("motion-sensor").unwrap().install_table("stream", stream(10));
        let stages = vec![Stage {
            node: "motion-sensor".into(),
            fragment: parse_query("SELECT x FROM stream").unwrap(), // projection!
            publish_as: "d1".into(),
        }];
        assert!(matches!(
            chain.run_stages(&stages),
            Err(NodeError::CapabilityViolation { .. })
        ));
    }

    #[test]
    fn lowest_capable_finds_sensor_for_const_filter() {
        let chain = ProcessingChain::apartment();
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        assert_eq!(chain.lowest_capable(&q).unwrap().level, Level::Sensor);
        let q2 = parse_query("SELECT x, y FROM d WHERE x > y").unwrap();
        assert_eq!(chain.lowest_capable(&q2).unwrap().level, Level::Appliance);
        let q3 = parse_query("SELECT SUM(z) OVER (ORDER BY t) FROM d").unwrap();
        assert_eq!(chain.lowest_capable(&q3).unwrap().level, Level::Pc);
    }

    #[test]
    fn traffic_bytes_from() {
        let mut log = TrafficLog::default();
        log.hops.push(Hop { from: "a".into(), to: "b".into(), table: "t".into(), rows: 1, bytes: 10 });
        log.hops.push(Hop { from: "b".into(), to: "c".into(), table: "t".into(), rows: 1, bytes: 4 });
        assert_eq!(log.total_bytes(), 14);
        assert_eq!(log.bytes_from("a"), 10);
        assert_eq!(log.last_hop_bytes(), 4);
    }

    #[test]
    fn unknown_node_errors() {
        let mut chain = ProcessingChain::apartment();
        assert!(matches!(chain.node_mut("nope"), Err(NodeError::UnknownNode(_))));
        assert!(matches!(chain.node("nope"), Err(NodeError::UnknownNode(_))));
    }
}
