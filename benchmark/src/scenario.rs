//! The inputs of a workload: chain, policy, query, stream shape and
//! sizes. Policies and queries are the files under `policies/` and
//! `queries/`, compiled in, so the benchmark owns every input and a
//! library PR cannot change a workload.

use std::fmt::Display;

use paradise_core::{ProcessingChain, Runtime};
use paradise_engine::{Frame, Value};
use paradise_nodes::{Level, Node};
use paradise_policy::{parse_policy, ModulePolicy};
use paradise_sql::ast::Query;
use paradise_sql::parse_query;

use crate::gen::{RoomGen, UsersGen};

pub type Res<T> = Result<T, String>;

/// Turn a library error into the benchmark's string error, saying
/// which call failed.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Every workload streams into a table of this name.
pub const TABLE: &str = "stream";

pub const FIG4_XML: &str = include_str!("../policies/fig4.xml");
pub const FIG4_B_XML: &str = include_str!("../policies/fig4_b.xml");
pub const USERS_SUM_XML: &str = include_str!("../policies/users_sum.xml");
pub const USERS_SUM_B_XML: &str = include_str!("../policies/users_sum_b.xml");
pub const FLAT_SQL: &str = include_str!("../queries/flat.sql");
pub const PAPER_SQL: &str = include_str!("../queries/paper.sql");
pub const USERS_SQL: &str = include_str!("../queries/users.sql");
pub const FORBIDDEN_SQL: &str = include_str!("../queries/forbidden.sql");
pub const CHURN_SQL: &str = include_str!("../queries/churn.sql");
pub const CHURN_RESIDENT_SQL: &str = include_str!("../queries/churn_resident.sql");

/// The paper's §4.2 chain: motion sensor → appliance → media center →
/// local server → cloud.
const APARTMENT: [(&str, Level); 5] = [
    ("motion-sensor", Level::Sensor),
    ("appliance", Level::Appliance),
    ("media-center", Level::Appliance),
    ("local-server", Level::Pc),
    ("cloud", Level::Cloud),
];

#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Smart-room positions `(x, y, z, t)`, 10 persons.
    Room,
    /// `(uid, v)` over this many users.
    Users(u64),
}

/// A seeded stream of frames.
pub enum Source {
    Room(RoomGen),
    Users(UsersGen),
}

impl Source {
    pub fn frame(&mut self, rows: usize) -> Frame {
        match self {
            Source::Room(g) => g.frame(rows),
            Source::Users(g) => g.frame(rows),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// The paper's five-node apartment chain, or a single PC-level node.
    pub apartment: bool,
    pub module: &'static str,
    pub policy_xml: &'static str,
    /// The variant a live policy swap alternates with.
    pub policy_b_xml: &'static str,
    pub sql: &'static str,
    pub stream: Stream,
    /// Rows installed at the source before the first op.
    pub window_rows: usize,
    /// Rows per ingested batch.
    pub batch_rows: usize,
    /// `Runtime::with_retention`.
    pub retention: usize,
    /// Untimed ops after set-up's first tick, so caches and lazy state
    /// are warm before the first measured op.
    pub warmup_ops: u64,
}

/// `steady_tick` and `durable_tick`: the flat projection, which the
/// Figure 4 policy rewrites to the grouped aggregation.
pub const ROOM_FLAT: Scenario = Scenario {
    apartment: true,
    module: "ActionFilter",
    policy_xml: FIG4_XML,
    policy_b_xml: FIG4_B_XML,
    sql: FLAT_SQL,
    stream: Stream::Room,
    window_rows: 100_000,
    // The window is trimmed once it exceeds retention by a quarter, and
    // the tick after a trim rebuilds from the whole window: with
    // 500-row batches that is one op in 51, which keeps the slow ops
    // (rebuild, the op after it, one hash-table growth) near 6 % of all
    // ops, clear of the 90th percentile.
    batch_rows: 500,
    retention: 100_000,
    warmup_ops: 200,
};

/// `paper_oneshot`: the paper's §4.2 window-regression query.
pub const ROOM_PAPER: Scenario = Scenario {
    sql: PAPER_SQL,
    window_rows: 20_000,
    retention: 20_000,
    warmup_ops: 50,
    ..ROOM_FLAT
};

/// `policy_churn`: a small window, so planning dominates execution.
pub const ROOM_CHURN: Scenario = Scenario {
    window_rows: 500,
    batch_rows: 50,
    retention: 500,
    warmup_ops: 100,
    ..ROOM_FLAT
};

/// `served_fleet`: per-user sums on a single PC-level node.
pub const USERS: Scenario = Scenario {
    apartment: false,
    module: "UserSums",
    policy_xml: USERS_SUM_XML,
    policy_b_xml: USERS_SUM_B_XML,
    sql: USERS_SQL,
    stream: Stream::Users(500),
    window_rows: 2_000,
    batch_rows: 100,
    retention: 100_000,
    warmup_ops: 100,
};

impl Scenario {
    /// The node the stream arrives at (the chain's bottom).
    pub fn node(&self) -> &'static str {
        if self.apartment {
            APARTMENT[0].0
        } else {
            "server"
        }
    }

    pub fn chain(&self) -> ProcessingChain {
        self.chain_from(None)
    }

    /// The chain, with `source` (if any) as the stream table at its
    /// bottom node.
    pub fn chain_from(&self, source: Option<Frame>) -> ProcessingChain {
        let levels: &[(&str, Level)] = if self.apartment {
            &APARTMENT
        } else {
            &[("server", Level::Pc)]
        };
        let mut nodes: Vec<Node> = levels
            .iter()
            .map(|(name, level)| Node::new(*name, *level))
            .collect();
        if let Some(frame) = source {
            nodes[0].catalog.register_or_replace(TABLE, frame);
        }
        ProcessingChain::new(nodes).expect("the benchmark's own chain is valid")
    }

    pub fn source(&self, seed: u64) -> Source {
        match self.stream {
            Stream::Room => Source::Room(RoomGen::new(seed)),
            Stream::Users(users) => Source::Users(UsersGen::new(seed, users)),
        }
    }

    pub fn query(&self) -> Query {
        parse_query(self.sql).expect("the benchmark's own query parses")
    }

    pub fn policy(&self) -> ModulePolicy {
        module_policy(self.policy_xml)
    }

    /// A runtime over the scenario's chain with its policy installed,
    /// no data yet.
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.chain())
            .with_policy(self.module, self.policy())
            .with_retention(self.retention)
    }
}

/// The first module of one of the benchmark's own policy files.
pub fn module_policy(xml: &str) -> ModulePolicy {
    parse_policy(xml)
        .expect("the benchmark's own policy parses")
        .modules
        .remove(0)
}

/// FNV-1a over a frame's column names and cells, from the values
/// themselves (not their rendering), so the digest of one result is the
/// same on every run and every platform.
pub fn digest(frame: &Frame) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    };
    for name in frame.schema.names() {
        eat(name.as_bytes());
        eat(&[0xff]);
    }
    for row in frame.iter_rows() {
        for value in row {
            match value {
                Value::Null => eat(&[0]),
                Value::Bool(b) => eat(&[1, u8::from(b)]),
                Value::Int(i) => {
                    eat(&[2]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[3]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[4]);
                    eat(s.as_bytes());
                    eat(&[0xff]);
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_input_file_parses() {
        for xml in [FIG4_XML, FIG4_B_XML, USERS_SUM_XML, USERS_SUM_B_XML] {
            assert_eq!(parse_policy(xml).unwrap().modules.len(), 1);
        }
        for sql in [FLAT_SQL, PAPER_SQL, USERS_SQL, FORBIDDEN_SQL] {
            parse_query(sql).unwrap();
        }
        assert_eq!(CHURN_SQL.lines().count(), 10);
        for line in CHURN_SQL.lines().chain(CHURN_RESIDENT_SQL.lines()) {
            parse_query(&line.replace("{n}", "3")).unwrap();
        }
    }

    #[test]
    fn digest_sees_values_and_names() {
        let a = RoomGen::new(1).frame(50);
        assert_eq!(digest(&a), digest(&RoomGen::new(1).frame(50)));
        assert_ne!(digest(&a), digest(&RoomGen::new(2).frame(50)));
        assert_ne!(digest(&a), digest(&UsersGen::new(1, 10).frame(50)));
    }
}
