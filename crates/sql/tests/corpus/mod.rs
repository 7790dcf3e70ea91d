//! The query corpus shared by the SQL round-trip suite and the
//! executor-equivalence suite (`tests/executor_equivalence.rs` pulls this
//! file in via `#[path]`): one list, so a query added here is parsed,
//! rendered, compiled, executed and checked against the oracle.

/// Paper-style queries over the ubisense `stream(x, y, z, t)` schema,
/// spanning every syntactic feature the dialect supports.
pub const CORPUS: &[&str] = &[
    // projection / scan shapes
    "SELECT * FROM stream",
    "SELECT x, y FROM stream",
    "SELECT DISTINCT x, y FROM stream",
    "SELECT x AS px, y AS py FROM stream",
    // filters
    "SELECT * FROM stream WHERE z < 2",
    "SELECT x FROM stream WHERE x > y AND z < 2",
    "SELECT x FROM stream WHERE x > 1 OR NOT y < 2",
    "SELECT x FROM stream WHERE x + 1 > y * 2 - 3",
    "SELECT x FROM stream WHERE z BETWEEN 1 AND 2",
    "SELECT x FROM stream WHERE t IN (1, 2, 3)",
    "SELECT x FROM stream WHERE name LIKE 'bob%'",
    "SELECT x FROM stream WHERE y IS NULL",
    "SELECT x FROM stream WHERE y IS NOT NULL",
    // aggregation
    "SELECT AVG(z) FROM stream",
    "SELECT COUNT(*) FROM stream",
    "SELECT x, AVG(z) AS za FROM stream GROUP BY x",
    "SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x HAVING SUM(z) > 10",
    // ordering and paging
    "SELECT x FROM stream ORDER BY x",
    "SELECT x FROM stream ORDER BY x DESC, y ASC LIMIT 5",
    "SELECT x FROM stream ORDER BY t LIMIT 10 OFFSET 20",
    // joins
    "SELECT a.x FROM stream a JOIN stream b ON a.t = b.t",
    "SELECT a.x, b.y FROM stream a LEFT JOIN stream b ON a.t = b.t WHERE b.y IS NULL",
    // subqueries and set operations
    "SELECT x FROM (SELECT x FROM stream)",
    "SELECT za FROM (SELECT x, AVG(z) AS za FROM stream WHERE z < 2 GROUP BY x)",
    "SELECT x FROM stream UNION SELECT y FROM stream",
    // expressions
    "SELECT CASE WHEN z < 1 THEN 'floor' ELSE 'air' END FROM stream",
    "SELECT CAST(t AS FLOAT) FROM stream",
    // windows (the paper's §4.2 rewrite target)
    "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM stream",
    "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
     FROM (SELECT x, y, AVG(z) AS zAVG, t FROM stream \
     WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)",
    // ML-style UDF from Table 1
    "SELECT filterByClass(z) FROM stream",
];
