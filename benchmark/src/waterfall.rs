//! The cost waterfall of a traced run, as markdown: where a served
//! request's time goes, where the privacy-preserving pipeline's time
//! goes against the unprotected cloud baseline, and the self times of
//! the workload's own spans. Generated, never hand-written.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers::Metrics;
use crate::stats::median;
use crate::trace::Recorder;

/// A table of per-layer metrics as shares of the metric `whole`.
fn table(m: &Metrics, first_column: &str, whole: &str, rows: &[(&str, &str)]) -> String {
    let v = |name: &str| m.get(name).copied().unwrap_or(f64::NAN);
    let mut out = format!(
        "| {first_column} | median µs | share of `{whole}` | how measured |\n|---|---:|---:|---|\n"
    );
    for (name, how) in rows {
        let share = 100.0 * v(name) / v(whole);
        writeln!(out, "| `{name}` | {:.1} | {share:.1} % | {how} |", v(name))
            .expect("String write");
    }
    out
}

/// The served request: the TCP floor, the two halves of the op, the
/// same op in process, and what the serving layer adds.
pub fn served_table(m: &Metrics) -> String {
    table(
        m,
        "step",
        "server.op_us",
        &[
            (
                "server.ping_rtt_us",
                "`Client::ping`: TCP + frame + wake-up floor",
            ),
            ("server.ingest_rtt_us", "span around `RetryClient::ingest`"),
            ("server.tick_rtt_us", "span around `RetryClient::tick`"),
            ("server.op_us", "ingest + tick as the tenant sees it"),
            (
                "server.inproc_op_us",
                "the same op on an in-process `Runtime`",
            ),
            ("server.wire_tax_us", "served op − in-process op"),
        ],
    )
}

/// The one-shot pipeline against the cloud baseline, split by stage.
pub fn oneshot_table(m: &Metrics) -> String {
    let mut out = table(
        m,
        "stage",
        "core.runtime.oneshot_us",
        &[
            (
                "engine.cloud_baseline_us",
                "original query on the raw window, no privacy layer",
            ),
            (
                "core.runtime.oneshot_us",
                "build → install → register → tick → drop",
            ),
            ("core.preprocess_us", "replay of `preprocess`"),
            ("core.fragment_us", "replay of `fragment_query`"),
            ("core.assign_us", "replay of `assign_to_chain`"),
            (
                "nodes.run_stages_us",
                "replay of `run_stages` on a fresh chain",
            ),
            (
                "core.postprocess_us",
                "replay of `postprocess` on the shipped frame",
            ),
            (
                "core.runtime.oneshot_self_us",
                "one-shot op − the five replays above",
            ),
        ],
    );
    let overhead = m.get("core.overhead_vs_cloud").copied().unwrap_or(f64::NAN);
    writeln!(
        out,
        "\n`core.overhead_vs_cloud` = {overhead:.2} (one-shot op ÷ cloud baseline)."
    )
    .expect("String write");
    out
}

/// The workload's own spans: count, median, median self time (duration
/// minus what child spans cover) and the self time's share of the op.
pub fn span_table(recorders: &[Recorder]) -> String {
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for rec in recorders {
        for (name, (durations, selfs)) in rec.by_name() {
            let entry = by_name.entry(name).or_default();
            entry.0.extend(durations);
            entry.1.extend(selfs);
        }
    }
    let op = by_name.get("bench.op").map_or(f64::NAN, |(d, _)| median(d));
    let mut out = String::from("| span | count | median µs | median self µs | self share of op |\n|---|---:|---:|---:|---:|\n");
    for (name, (durations, selfs)) in &by_name {
        writeln!(
            out,
            "| `{name}` | {} | {:.1} | {:.1} | {:.1} % |",
            durations.len(),
            median(durations),
            median(selfs),
            100.0 * median(selfs) / op
        )
        .expect("String write");
    }
    out
}

/// The waterfall of one workload's traced run.
pub fn render(workload: &str, m: &Metrics, recorders: &[Recorder]) -> String {
    format!(
        "# Cost waterfall: `{workload}`\n\n\
         Medians of spans the benchmark records around its own calls, on this workload's inputs.\n\n\
         ## The workload's own op\n\n{}\n\
         ## A served request on these inputs\n\n{}\n\
         ## The one-shot pipeline against the cloud baseline on these inputs\n\n{}",
        span_table(recorders),
        served_table(m),
        oneshot_table(m)
    )
}

/// The two tables ROADMAP item 1 asks for, from the workloads that own
/// them: the served request from `served_fleet`, the pipeline split
/// from `paper_oneshot`; and the ungated shard pair.
pub fn combined(served_fleet: &Metrics, paper_oneshot: &Metrics, sharded: &Metrics) -> String {
    let v = |name: &str| sharded.get(name).copied().unwrap_or(f64::NAN);
    format!(
        "# Cost waterfall\n\n\
         ## Where a served request goes (`served_fleet`)\n\n{}\n\
         ## PArADISE against the cloud baseline, by stage (`paper_oneshot`)\n\n{}\n\
         ## Many users, four shards against one (ungated)\n\n\
         `engine.sharded_tick_us` = {:.1}, `engine.serial_tick_us` = {:.1}, \
         `engine.shard_speedup` = {:.2}.\n",
        served_table(served_fleet),
        oneshot_table(paper_oneshot),
        v("engine.sharded_tick_us"),
        v("engine.serial_tick_us"),
        v("engine.shard_speedup")
    )
}
