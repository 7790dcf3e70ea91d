//! Executor-equivalence suite: every query of the shared corpus
//! (`crates/sql/tests/corpus`) is executed over the same `SmartRoomSim`
//! data by the engine — compile once, run the plan twice — and by the
//! naive row-at-a-time oracle (`crates/engine/tests/oracle`), and the
//! resulting frames must be identical, or both must fail with the same
//! error. `Executor::compile` is total: it yields a plan or a typed
//! error, never a panic and never a fallback.

#[path = "../crates/sql/tests/corpus/mod.rs"]
mod corpus;
#[path = "../crates/engine/tests/oracle/mod.rs"]
mod oracle;

use corpus::CORPUS;
use paradise::prelude::*;

/// Extra queries over the tagged stream (text, boolean and NULL-bearing
/// columns) so string comparison, LIKE, CASE and boolean predicates run
/// over typed buffers too.
const TAGGED_EXTRAS: &[&str] = &[
    "SELECT tag, valid FROM tagged WHERE valid",
    "SELECT tag FROM tagged WHERE NOT valid ORDER BY tag, t LIMIT 7",
    "SELECT who FROM tagged WHERE who LIKE 'p1%'",
    "SELECT who, COUNT(*) AS n FROM tagged GROUP BY who ORDER BY n DESC, who",
    "SELECT CASE WHEN valid THEN who ELSE 'lost' END AS label, z FROM tagged ORDER BY 1 LIMIT 9",
    "SELECT who || '!' AS shout FROM tagged WHERE z > 1.2",
    "SELECT DISTINCT who FROM tagged ORDER BY who",
    "SELECT tag, SUM(z) OVER (PARTITION BY who ORDER BY t) AS rz FROM tagged",
    // subqueries and join predicates, bound into the plan at compile time
    "SELECT tag, z FROM tagged WHERE z > (SELECT AVG(z) FROM stream)",
    "SELECT t, z - (SELECT MIN(z) FROM tagged WHERE valid) AS dz FROM stream",
    "SELECT who, COUNT(*) AS n FROM tagged GROUP BY who \
     HAVING COUNT(*) > (SELECT COUNT(*) / 8 FROM tagged) ORDER BY who",
    "SELECT COUNT(*) AS n FROM tagged WHERE EXISTS (SELECT 1 FROM stream WHERE z > 1)",
    "SELECT tag, t FROM tagged WHERE NOT EXISTS (SELECT 1 FROM stream WHERE z > 100)",
    "SELECT a.t, b.who FROM stream a JOIN tagged b ON a.t < b.t WHERE a.z < 1",
    "SELECT a.t, b.who FROM stream a JOIN tagged b ON a.t = b.t AND a.z > b.z - 0.25",
    "SELECT a.t, b.who FROM stream a LEFT JOIN tagged b ON a.t = b.t AND a.z > b.z - 0.25",
];

fn catalog() -> Catalog {
    let config = SmartRoomConfig { persons: 4, switch_probability: 0.02, ..Default::default() };
    let mut sim = SmartRoomSim::with_config(7, config.clone());
    let stream = sim.ubisense_positions(60);

    // tagged stream extended with a text column (and NULLs for invalid
    // readings) to exercise the Str/Bool/Mixed buffers
    let mut sim2 = SmartRoomSim::with_config(8, config);
    let base = sim2.ubisense_tagged(60);
    let mut schema = base.schema.clone();
    schema.push(paradise::engine::Column::new("who", DataType::Text));
    let rows: Vec<Row> = base
        .iter_rows()
        .map(|mut r| {
            let who = match (&r[0], &r[5]) {
                (Value::Int(tag), Value::Bool(true)) => Value::Str(format!("p{}", tag - 100)),
                _ => Value::Null,
            };
            r.push(who);
            r
        })
        .collect();
    let tagged = Frame::new(schema, rows).unwrap();

    let mut c = Catalog::new();
    c.register("stream", stream).unwrap();
    c.register("tagged", tagged).unwrap();
    c
}

/// `compile` either yields a plan — which, run twice, gives the oracle's
/// frame both times — or a typed error, the one the oracle trips over
/// (every catalog here is populated, so the lazy oracle sees it too).
/// Returns whether the query compiled.
fn assert_equivalent(catalog: &Catalog, sql: &str) -> bool {
    let query = parse_query(sql).unwrap_or_else(|e| panic!("corpus query fails to parse: {sql}: {e}"));
    let exec = Executor::new(catalog);
    let reference = oracle::run(catalog, &query);
    let plan = match exec.compile(&query) {
        Ok(plan) => plan,
        Err(e) => {
            let expected = reference.expect_err(sql);
            assert_eq!(e.to_string(), expected.to_string(), "compile error diverges for: {sql}");
            assert_eq!(exec.execute(&query).unwrap_err(), e, "execute must fail in compile: {sql}");
            return false;
        }
    };
    let once = exec.run_plan(&plan);
    assert_eq!(once, exec.run_plan(&plan), "re-running a plan changed the result for: {sql}");
    assert_eq!(once, exec.execute(&query), "plan reuse diverges from execute for: {sql}");
    match (once, reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.schema, b.schema, "schemas diverge for: {sql}");
            assert_eq!(a.to_rows(), b.to_rows(), "rows diverge for: {sql}");
            assert_eq!(a, b, "frame equality diverges for: {sql}");
            assert_eq!(a.size_bytes(), b.size_bytes(), "size accounting diverges for: {sql}");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors diverge for: {sql}"),
        (a, b) => panic!(
            "engine and oracle disagree for {sql}: {:?} vs {:?}",
            a.as_ref().map(|f| f.len()),
            b.as_ref().map(|f| f.len())
        ),
    }
    true
}

/// The whole corpus — the shared SQL corpus, the tagged extras and the
/// benchmark's own query files (one query per line, `{n}` a row
/// threshold; run over both of its stream shapes, the room
/// `stream(x, y, z, t)` and the users `stream(uid, v)`).
#[test]
fn compile_is_total() {
    let room = catalog();
    for sql in CORPUS.iter().chain(TAGGED_EXTRAS) {
        assert_equivalent(&room, sql);
    }

    let mut users = Catalog::new();
    let schema = Schema::from_pairs(&[("uid", DataType::Integer), ("v", DataType::Integer)]);
    let rows = (0..40).map(|i| vec![Value::Int(i % 7), Value::Int(i * 3 % 11)]).collect();
    users.register("stream", Frame::new(schema, rows).unwrap()).unwrap();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/queries");
    let mut files: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    assert_eq!(files.len(), 6, "benchmark/queries changed: {files:?}");
    let mut compiled = 0;
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for sql in text.lines().filter(|l| !l.trim().is_empty()) {
            let sql = sql.replace("{n}", "3");
            for catalog in [&room, &users] {
                compiled += usize::from(assert_equivalent(catalog, &sql));
            }
        }
    }
    // every file but forbidden.sql compiles against the stream it is for
    assert_eq!(compiled, 16, "benchmark queries that compile");
}

/// Compilation reads schemas, never rows: over the room catalog and
/// over the same tables emptied, every corpus query compiles on both or
/// fails with the same error on both.
#[test]
fn compile_is_data_independent() {
    let room = catalog();
    let mut empty = Catalog::new();
    for table in ["stream", "tagged"] {
        empty.register(table, Frame::empty(room.get(table).unwrap().schema.clone())).unwrap();
    }
    for sql in CORPUS.iter().chain(TAGGED_EXTRAS) {
        let query = parse_query(sql).unwrap();
        let compile = |c: &Catalog| Executor::new(c).compile(&query).map(|_| ());
        assert_eq!(compile(&room), compile(&empty), "compile depends on the data for: {sql}");
    }
}

#[test]
fn input_construction_path_does_not_matter() {
    // a frame built row-by-row through the row-view adapter must execute
    // identically to one built in bulk from the same rows
    let config = SmartRoomConfig { persons: 3, switch_probability: 0.02, ..Default::default() };
    let bulk = SmartRoomSim::with_config(11, config).ubisense_positions(40);
    let mut incremental = Frame::empty(bulk.schema.clone());
    for row in bulk.iter_rows() {
        incremental.push_row(row).unwrap();
    }
    assert_eq!(incremental, bulk);
    assert_eq!(incremental.size_bytes(), bulk.size_bytes());

    let mut c1 = Catalog::new();
    c1.register("stream", bulk).unwrap();
    let mut c2 = Catalog::new();
    c2.register("stream", incremental).unwrap();
    for sql in CORPUS {
        let query = parse_query(sql).unwrap();
        let a = Executor::new(&c1).execute(&query);
        let b = Executor::new(&c2).execute(&query);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "construction path changed result for: {sql}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("construction path changed success for: {sql}"),
        }
    }
}
