//! The five named workloads and how one of them is run: set up, measure
//! against the clock, check the outputs, report.

use std::time::Instant;

use paradise_core::preprocess;
use paradise_sql::parse_query;

use crate::json::Json;
use crate::layers::{self, Metrics, Reps};
use crate::loops::{
    drive, fresh_dir, remove_dir, Churn, DurableAt, LoopOut, Oneshot, Resident, Served, DIGEST_OP,
    TENANTS,
};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::scenario::{
    module_policy, Ctx, Res, Scenario, CHURN_SQL, FLAT_SQL, FORBIDDEN_SQL, ROOM_CHURN, ROOM_FLAT,
    ROOM_PAPER, TABLE, USERS,
};
use crate::stats;
use crate::trace::chrome_trace;
use crate::waterfall;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Steady,
    Durable,
    Oneshot,
    Churn,
    Served,
}

pub struct Workload {
    pub name: &'static str,
    /// The line `BENCHMARK.json` gives for it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
    kind: Kind,
    pub sc: Scenario,
    /// Ops the reference box completes per second of measuring, all
    /// callers together: a run measures `ops_per_s × --seconds` ops, so
    /// it lasts about `--seconds` there and does the same work anywhere.
    ops_per_s: u64,
}

impl Workload {
    fn callers(&self) -> u64 {
        if self.kind == Kind::Served {
            TENANTS as u64
        } else {
            1
        }
    }

    /// Ops each caller performs in a run of this nominal length.
    fn ops_per_caller(&self, seconds: f64) -> u64 {
        (self.ops_per_s as f64 * seconds / self.callers() as f64).round() as u64
    }

    /// Ops each caller performs in one part of such a run: an equal
    /// share untraced; traced, half the run's ops in one part, in whole
    /// pairs of blocks.
    fn part_ops(&self, seconds: f64, trace: bool) -> u64 {
        if trace {
            let pairs = (self.ops_per_caller(seconds) / (4 * TRACE_BLOCK_OPS)).max(1);
            pairs * 2 * TRACE_BLOCK_OPS
        } else {
            self.ops_per_caller(seconds)
                .div_ceil(PARTS as u64)
                .max(DIGEST_OP + 1)
        }
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady_tick",
        why: "Resident continuous query, warm plans: the delta fold does the work; sql, planning, storage and server do none. One op in 51 trims the window and rebuilds.",
        kind: Kind::Steady,
        sc: ROOM_FLAT,
        ops_per_s: 1_000,
    },
    Workload {
        name: "durable_tick",
        why: "The same op with a WAL and a snapshot every 64 ticks: core.storage on every op. The difference to steady_tick is the durability tax.",
        kind: Kind::Durable,
        sc: ROOM_FLAT,
        ops_per_s: 700,
    },
    Workload {
        name: "paper_oneshot",
        why: "The paper's own experiment: build, install 20000 rows, register the regr_intercept window query, tick once, drop. Full scan, fragmentation, anonymisation; no delta path.",
        kind: Kind::Oneshot,
        sc: ROOM_PAPER,
        ops_per_s: 220,
    },
    Workload {
        name: "policy_churn",
        why: "Cold path: parse and swap the policy, parse and register a new query, tick (re-plans 3 residents), remove it, over 500 rows. Planning dominates, row execution is almost nothing.",
        kind: Kind::Churn,
        sc: ROOM_CHURN,
        ops_per_s: 1_250,
    },
    Workload {
        name: "served_fleet",
        why: "Two tenants over localhost TCP, each ingesting 100 rows and ticking in a closed loop: payload work is tiny, so the serving layer owns most of the op.",
        kind: Kind::Served,
        sc: USERS,
        ops_per_s: 850,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Parts of an untraced run. Each is a fresh process that sets the
/// workload up and measures an equal share of the run's ops, and every
/// end-to-end metric of the run is the median over its parts: what one
/// process drew (where its memory landed, which allocator arenas its
/// threads got, what the box did in those seconds) does not own the run.
pub const PARTS: usize = 5;

/// Ops per caller in one block of the traced run.
const TRACE_BLOCK_OPS: u64 = 64;

/// A workload set up and ready for its first measured op.
enum Live {
    Resident(Box<Resident>, Option<std::path::PathBuf>),
    Oneshot(Box<Oneshot>),
    Churn(Box<Churn>),
    Served(Box<Served>),
}

impl Live {
    fn setup(w: &Workload, seed: u64) -> Res<Live> {
        Ok(match w.kind {
            Kind::Steady => Live::Resident(Box::new(Resident::setup(w.sc, seed, None)?), None),
            Kind::Durable => {
                // default flush policy: group commit per tick, fsync at
                // snapshot barriers
                let dir = fresh_dir(w.name)?;
                let at = DurableAt {
                    dir: dir.clone(),
                    vfs: None,
                };
                Live::Resident(Box::new(Resident::setup(w.sc, seed, Some(at))?), Some(dir))
            }
            Kind::Oneshot => Live::Oneshot(Box::new(Oneshot::setup(w.sc, seed)?)),
            Kind::Churn => Live::Churn(Box::new(Churn::setup(w.sc, seed)?)),
            Kind::Served => Live::Served(Box::new(Served::setup(w.sc, seed)?)),
        })
    }

    fn run(&mut self, ops: u64, trace: bool, epoch: Instant) -> LoopOut {
        match self {
            Live::Resident(r, _) => drive(r.as_mut(), ops, trace, epoch, 0),
            Live::Oneshot(o) => drive(o.as_mut(), ops, trace, epoch, 0),
            Live::Churn(c) => drive(c.as_mut(), ops, trace, epoch, 0),
            Live::Served(s) => s.run(ops, trace, epoch),
        }
    }

    fn digest(&self) -> Option<u64> {
        match self {
            Live::Resident(r, _) => r.progress.digest,
            Live::Oneshot(o) => o.progress.digest,
            Live::Churn(c) => c.progress.digest,
            Live::Served(s) => s.digest(),
        }
    }

    /// The workload's correctness checks; consumes (and tears down)
    /// what was set up.
    fn check(self) -> Res<()> {
        match self {
            Live::Resident(r, dir) => {
                let checked = r.check();
                if let Some(dir) = dir {
                    remove_dir(&dir)?;
                }
                checked
            }
            Live::Oneshot(o) => check_oneshot(&o),
            Live::Churn(c) => {
                drop(c);
                check_churn(&ROOM_CHURN)
            }
            Live::Served(s) => s.check(),
        }
    }
}

/// Only policy-permitted columns are released — `z` only as `zAVG` —
/// and a query for an attribute the policy does not list is denied.
fn check_oneshot(o: &Oneshot) -> Res<()> {
    let sc = o.sc;
    let mut runtime = sc.runtime();
    runtime
        .install_source(sc.node(), TABLE, o.window.clone())
        .ctx("install_source")?;
    let flat = parse_query(FLAT_SQL).ctx(FLAT_SQL)?;
    runtime
        .register(sc.module, &flat)
        .ctx("register flat query")?;
    runtime
        .register(sc.module, &o.query)
        .ctx("register paper query")?;
    let forbidden = parse_query(FORBIDDEN_SQL).ctx(FORBIDDEN_SQL)?;
    if runtime.register(sc.module, &forbidden).is_ok() {
        return Err(format!("{FORBIDDEN_SQL:?} was admitted"));
    }
    let outcomes = runtime.tick().ctx("tick")?;
    let released = outcomes[0].1.result.schema.names().join(", ");
    if released != "x, y, zAVG, t" {
        return Err(format!("the flat query released columns [{released}]"));
    }
    if outcomes[0].1.result.is_empty() {
        return Err("the flat query released no rows: the window holds no standing group".into());
    }
    for (_, outcome) in &outcomes {
        for report in &outcome.stage_reports {
            if report.rows_out > o.window.len() {
                return Err(format!(
                    "node {} emitted more rows than the window holds",
                    report.node
                ));
            }
        }
        if outcome.post.frame.size_bytes() >= o.window.size_bytes() {
            return Err("more bytes leave the apartment than the raw window holds".into());
        }
    }
    if outcomes[1].1.result.schema.len() != 1 {
        return Err("the paper query released more than the regression column".into());
    }
    Ok(())
}

/// Every rewrite the churn ops cause re-parses to the same query.
fn check_churn(sc: &Scenario) -> Res<()> {
    let shapes: Vec<&str> = CHURN_SQL.lines().collect();
    for xml in [sc.policy_xml, sc.policy_b_xml] {
        let policy = module_policy(xml);
        for i in 0..(shapes.len() * 7) as u64 {
            let sql = Churn::sql(&shapes, i);
            let query = parse_query(&sql).ctx(&sql)?;
            let rewritten = preprocess(&query, &policy, &Default::default())
                .ctx(&sql)?
                .query;
            let rendered = rewritten.to_string();
            if parse_query(&rendered).ctx(&rendered)? != rewritten {
                return Err(format!(
                    "{rendered:?} does not re-parse to the rewritten query"
                ));
            }
        }
    }
    Ok(())
}

/// What one run of one workload gives.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    pub digest: Option<u64>,
    /// Every metric the contract names for this kind of run.
    pub metrics: Metrics,
    /// Reported, not gated and not part of the result line.
    pub extra: Metrics,
}

impl Report {
    fn new(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
        Report {
            workload: w.name,
            seed,
            seconds,
            trace,
            attempted: 1,
            failed: 0,
            errors: Vec::new(),
            digest: None,
            metrics: Metrics::new(),
            extra: Metrics::new(),
        }
    }

    /// A part that gave no result: every op it should have measured
    /// counts as failed.
    pub fn failed(w: &Workload, seed: u64, seconds: f64, trace: bool, why: String) -> Report {
        let attempted = w.part_ops(seconds, trace) * w.callers();
        Report {
            attempted,
            failed: attempted,
            errors: vec![why],
            ..Report::new(w, seed, seconds, trace)
        }
    }

    /// A part's report, read back from the file it left.
    pub fn from_json(w: &Workload, doc: &Json) -> Res<Report> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("the part's report has no {key}"))
        };
        let metrics = |key: &str| -> Metrics {
            doc.get(key)
                .map_or(&[][..], Json::as_obj)
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        let digest = doc.get("result_digest").and_then(Json::as_str);
        Ok(Report {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: doc
                .get("errors")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(|e| e.as_str().map(String::from))
                .collect(),
            digest: digest.and_then(|d| u64::from_str_radix(d, 16).ok()),
            metrics: metrics("metrics"),
            extra: metrics("extra"),
            ..Report::new(
                w,
                num("seed")? as u64,
                num("seconds")?,
                doc.get("trace").and_then(Json::as_bool) == Some(true),
            )
        })
    }

    /// The run's report from its parts': counts add up, every metric is
    /// the median over the parts, and the parts (same seed, same inputs)
    /// must agree on the digest.
    pub fn combine(parts: Vec<Report>) -> Report {
        let first = &parts[0];
        let mut run = Report {
            workload: first.workload,
            seed: first.seed,
            seconds: first.seconds,
            trace: first.trace,
            attempted: parts.iter().map(|p| p.attempted).sum(),
            failed: parts.iter().map(|p| p.failed).sum(),
            errors: Vec::new(),
            digest: first.digest,
            metrics: Metrics::new(),
            extra: Metrics::new(),
        };
        for (i, part) in parts.iter().enumerate() {
            for e in &part.errors {
                run.errors.push(format!("part {i}: {e}"));
            }
            if part.digest != run.digest {
                run.errors.push(format!(
                    "part {i}'s result_digest differs from part 0's for the same seed"
                ));
            }
        }
        let median_of = |pick: fn(&Report) -> &Metrics| -> Metrics {
            pick(first)
                .keys()
                .map(|name| {
                    let values: Vec<f64> = parts
                        .iter()
                        .filter_map(|p| pick(p).get(name).copied())
                        .collect();
                    (name.clone(), stats::median(&values))
                })
                .collect()
        };
        run.metrics = median_of(|p| &p.metrics);
        run.extra = median_of(|p| &p.extra);
        run.extra.insert("parts".into(), parts.len() as f64);
        run.close();
        run
    }

    /// Declared metrics that are missing or not finite make the report
    /// incorrect, and an incorrect report counts all its ops as failed.
    fn close(&mut self) {
        let missing = self.missing();
        if !missing.is_empty() {
            self.errors.push(format!(
                "metrics missing or not finite: {}",
                missing.join(", ")
            ));
        }
        if !self.correct() {
            self.failed = self.attempted;
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> Json {
        let metrics = self.defs().iter().map(|d| {
            let value = self.metrics.get(d.name).copied().unwrap_or(f64::NAN);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Everything, for the result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            (
                "result_digest",
                self.digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
            ),
            ("metrics", Json::from(&self.metrics)),
            ("extra", Json::from(&self.extra)),
        ])
    }

    /// Every declared metric is present and finite.
    fn missing(&self) -> Vec<&'static str> {
        self.defs()
            .iter()
            .filter(|d| !self.metrics.get(d.name).is_some_and(|v| v.is_finite()))
            .map(|d| d.name)
            .collect()
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One part of a run, in this process: set the workload up, measure
/// its share of the run's ops (or, traced, the blocks and the replay),
/// check the outputs.
pub fn part(w: &'static Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::new(w, seed, seconds, trace);
    let ran = if trace {
        traced(w, &mut report)
    } else {
        untraced(w, &mut report)
    };
    if let Err(e) = ran {
        report.errors.push(e);
    }
    report.close();
    report
}

fn account(report: &mut Report, out: &LoopOut) {
    report.attempted = out.attempted().max(1);
    report.failed = out.failed;
    if let Some(e) = &out.first_error {
        report.errors.push(format!(
            "{} of {} ops failed, the first with: {e}",
            out.failed,
            out.attempted()
        ));
    }
}

fn untraced(w: &'static Workload, report: &mut Report) -> Res<()> {
    let start = Instant::now();
    let mut live = Live::setup(w, report.seed)?;
    let setup_s = start.elapsed().as_secs_f64();
    let out = live.run(w.part_ops(report.seconds, false), false, Instant::now());
    account(report, &out);
    report.digest = live.digest();
    // before the checks build their reference runtimes
    let peak_rss_mb = peak_rss_mb()?;
    if let Err(e) = live.check() {
        report.errors.push(e);
    }

    let mut sorted = out.lat_us;
    stats::sort(&mut sorted);
    let callers = w.callers() as f64;
    let waited_s = sorted.iter().sum::<f64>() / 1e6;
    let m = &mut report.metrics;
    m.insert("setup_s".into(), setup_s);
    m.insert("op_p50_us".into(), stats::percentile(&sorted, 0.50));
    m.insert("op_p90_us".into(), stats::percentile(&sorted, 0.90));
    m.insert("ops_per_s".into(), callers * sorted.len() as f64 / waited_s);
    m.insert("peak_rss_mb".into(), peak_rss_mb);
    let x = &mut report.extra;
    x.insert("tail.op_p99_us".into(), stats::percentile(&sorted, 0.99));
    x.insert(
        "tail.op_max_us".into(),
        sorted.last().copied().unwrap_or(0.0),
    );
    x.insert("part.ops".into(), sorted.len() as f64);
    x.insert("part.measured_s".into(), waited_s / callers);
    x.insert("callers".into(), callers);
    Ok(())
}

fn traced(w: &'static Workload, report: &mut Report) -> Res<()> {
    let mut live = Live::setup(w, report.seed)?;
    // Half the run's ops, in alternating untraced and traced blocks, so
    // that drift in the workload cancels out of the tracing overhead.
    let pairs = w.part_ops(report.seconds, true) / (2 * TRACE_BLOCK_OPS);
    let (mut plain, mut spans) = (LoopOut::default(), LoopOut::default());
    let epoch = Instant::now();
    for _ in 0..pairs {
        plain.merge(live.run(TRACE_BLOCK_OPS, false, epoch));
        spans.merge(live.run(TRACE_BLOCK_OPS, true, epoch));
    }
    account(report, &spans);
    report.attempted += plain.attempted();
    report.failed += plain.failed;
    report.digest = live.digest();
    if let Err(e) = live.check() {
        report.errors.push(e);
    }

    // the replay on the workload's own inputs gives every layer a number…
    let mut m = layers::replay(w.sc, report.seed, Reps::for_seconds(report.seconds))?;
    // …and where the workload's own ops cross a layer, their spans replace it
    for d in PER_LAYER {
        let own = d
            .name
            .strip_suffix("_us")
            .and_then(|span| layers::span_us(&spans, span));
        if let Some(us) = own {
            m.insert(d.name.into(), us);
        }
    }
    match w.kind {
        Kind::Steady | Kind::Durable => {
            let (share, p50) = layers::slow_ops(&spans.lat_us);
            m.insert("core.runtime.slow_tick_share".into(), share);
            m.insert("core.runtime.slow_tick_p50_us".into(), p50);
        }
        Kind::Oneshot => {
            m.insert(
                "core.runtime.oneshot_us".into(),
                stats::median(&spans.lat_us),
            );
        }
        Kind::Churn => {}
        Kind::Served => layers::put_served(&mut m, &spans),
    }
    layers::derive(&mut m);

    let mut sorted = plain.lat_us.clone();
    stats::sort(&mut sorted);
    m.insert("tail.op_p99_us".into(), stats::percentile(&sorted, 0.99));
    m.insert(
        "tail.op_max_us".into(),
        sorted.last().copied().unwrap_or(0.0),
    );
    let overhead = stats::median(&spans.lat_us) / stats::median(&plain.lat_us) - 1.0;
    m.insert("trace.overhead_share".into(), overhead);
    report.metrics = m;

    let out = crate::out_dir();
    std::fs::create_dir_all(&out).ctx("create out/")?;
    std::fs::write(
        out.join(format!("trace-{}.json", w.name)),
        chrome_trace(&spans.recorders).to_string(),
    )
    .ctx("write trace file")?;
    std::fs::write(
        out.join(format!("waterfall-{}.md", w.name)),
        waterfall::render(w.name, &report.metrics, &spans.recorders),
    )
    .ctx("write waterfall")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part_report(p50: f64, digest: u64) -> Report {
        let w = find("policy_churn").unwrap();
        let mut part = Report::new(w, 7, 10.0, false);
        part.attempted = 100;
        part.digest = Some(digest);
        for d in END_TO_END {
            part.metrics.insert(d.name.into(), 1.0);
        }
        part.metrics.insert("op_p50_us".into(), p50);
        part
    }

    #[test]
    fn a_run_is_the_median_of_its_parts_and_their_counts_added_up() {
        let w = find("policy_churn").unwrap();
        let parts = [300.0, 100.0, 900.0].map(|p50| {
            // through the file format, as `measure` reads a part back
            let text = part_report(p50, 0xabc).to_json().to_string();
            Report::from_json(w, &Json::parse(&text).unwrap()).unwrap()
        });
        let run = Report::combine(parts.into());
        assert!(run.correct(), "{:?}", run.errors);
        assert_eq!((run.attempted, run.failed, run.seed), (300, 0, 7));
        assert_eq!(run.metrics["op_p50_us"], 300.0);
        assert_eq!(run.digest, Some(0xabc));
    }

    #[test]
    fn parts_that_disagree_or_fail_fail_the_run() {
        let run = Report::combine(vec![part_report(1.0, 1), part_report(1.0, 2)]);
        assert!(!run.correct());
        assert_eq!(run.failed, run.attempted);

        let w = find("policy_churn").unwrap();
        let lost = Report::failed(w, 7, 10.0, false, "killed".into());
        assert_eq!(lost.attempted, w.part_ops(10.0, false));
        let run = Report::combine(vec![part_report(1.0, 1), lost]);
        assert!(!run.correct());
        assert_eq!(run.failed, run.attempted);
    }

    #[test]
    fn a_run_measures_a_fixed_number_of_ops() {
        for w in WORKLOADS {
            let per_part = w.part_ops(10.0, false);
            assert!(
                per_part * PARTS as u64 >= w.ops_per_caller(10.0),
                "{}",
                w.name
            );
            assert!(w.part_ops(0.1, false) > DIGEST_OP, "{}", w.name);
            assert_eq!(
                w.part_ops(10.0, true) % (2 * TRACE_BLOCK_OPS),
                0,
                "{}",
                w.name
            );
        }
    }
}
