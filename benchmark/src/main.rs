//! The repo's benchmark: five smart-environment workloads, gated
//! end-to-end metrics, and an outside-in per-layer cost waterfall.
//! See `README.md` beside this package.
//!
//! ```text
//! paradise-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! paradise-benchmark aa  [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! Both measure in children of this binary (`part …`, see `measure`).

mod gen;
mod json;
mod layers;
mod loops;
mod metrics;
mod scenario;
mod stats;
mod trace;
mod vfs;
mod waterfall;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use layers::{Metrics, Reps};
use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use scenario::{Ctx, Res};
use workload::{Report, Workload, WORKLOADS};

/// Wall-clock cap on one workload's run, all its parts together:
/// set-ups, ops, checks and, when traced, the replay.
const WORKLOAD_CAP: Duration = Duration::from_secs(60);

/// The longest `--seconds`: set-ups and checks come on top of the
/// measured ops, and a slower box must still finish under the cap.
const MAX_SECONDS: f64 = 30.0;

/// The benchmark's package directory (`cargo run` and `cargo test` say
/// where it is; a bare binary falls back to where it was built).
pub fn pkg_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Everything the benchmark writes goes here (ignored by git).
pub fn out_dir() -> PathBuf {
    pkg_dir().join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    index: usize,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 2,
        index: 0,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace` alone switches tracing on; the driver passes 0 or 1
            parsed.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().ctx("--seed")?,
            "--seconds" => parsed.seconds = value.parse().ctx("--seconds")?,
            "--runs" => parsed.runs = value.parse().ctx("--runs")?,
            "--index" => parsed.index = value.parse().ctx("--index")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= MAX_SECONDS) {
        return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
    }
    if parsed.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_args(rest).and_then(|args| match &args.workload {
            Some(name) => find(name).and_then(|w| Ok(run_one(w, &args)?.correct())),
            None => run_all(&args),
        }),
        Some((cmd, rest)) if cmd == "aa" => parse_args(rest).and_then(|args| aa(&args)),
        // what `measure` starts: one part of a run, in this process
        Some((cmd, rest)) if cmd == "part" => parse_args(rest).and_then(|args| part(&args)),
        _ => Err("usage: paradise-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n       \
                  paradise-benchmark aa [--runs N] [--seed N] [--seconds S]"
            .into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn find(name: &str) -> Res<&'static Workload> {
    workload::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// Where a run leaves its full report.
fn report_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

/// Where part `index` of a run leaves its report for `measure`.
fn part_path(workload: &str, trace: bool, index: usize) -> PathBuf {
    let trace = u8::from(trace);
    out_dir().join(format!("part-{workload}-trace{trace}-{index}.json"))
}

/// `part --workload W --seed N --seconds S --trace T --index I`.
fn part(args: &Args) -> Res<bool> {
    let w = find(args.workload.as_deref().ok_or("part needs --workload")?)?;
    let report = workload::part(w, args.seed, args.seconds, args.trace);
    std::fs::create_dir_all(out_dir()).ctx("create out/")?;
    std::fs::write(
        part_path(w.name, args.trace, args.index),
        report.to_json().pretty(),
    )
    .ctx("write part report")?;
    Ok(report.correct())
}

/// One run of one workload: its parts, each in a fresh child of this
/// binary (peak RSS, allocator state and the library's global thread
/// pool are the part's own), one after the other, all waited for. A
/// part still running when the workload's cap expires is killed and
/// counts as failed, as does every part after it.
fn measure(w: &'static Workload, args: &Args) -> Res<Report> {
    let exe = std::env::current_exe().ctx("current_exe")?;
    let deadline = Instant::now() + WORKLOAD_CAP;
    let parts = if args.trace { 1 } else { workload::PARTS };
    let mut reports = Vec::new();
    for index in 0..parts {
        let failed = |why: String| Report::failed(w, args.seed, args.seconds, args.trace, why);
        if Instant::now() >= deadline {
            reports.push(failed(format!("not started: {WORKLOAD_CAP:?} had passed")));
            continue;
        }
        let path = part_path(w.name, args.trace, index);
        let _ = std::fs::remove_file(&path);
        let mut child = Command::new(&exe)
            .args(["part", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--index", &index.to_string()])
            .stdin(Stdio::null())
            .spawn()
            .ctx("start part")?;
        let status = loop {
            if let Some(status) = child.try_wait().ctx("wait for part")? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                child.kill().ctx("kill part")?;
                child.wait().ctx("wait for killed part")?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        reports.push(match (status, std::fs::read_to_string(&path)) {
            (None, _) => failed(format!("killed: no result within {WORKLOAD_CAP:?}")),
            (Some(status), Err(e)) => failed(format!("left no report ({e}); {status}")),
            (Some(_), Ok(text)) => Report::from_json(w, &Json::parse(&text)?)?,
        });
    }
    Ok(Report::combine(reports))
}

/// One workload; the last line printed is the result.
fn run_one(w: &'static Workload, args: &Args) -> Res<Report> {
    let report = measure(w, args)?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = report.metrics.get(d.name) {
            println!("  {:<44} {v:>16.4} {}", d.name, d.unit);
        }
    }
    for (name, v) in &report.extra {
        println!("  {name:<44} {v:>16.4} (reported, not gated)");
    }
    println!(
        "  failed_share {} ({} of {} ops)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    if let Some(d) = report.digest {
        println!("  result_digest {d:016x}");
    }
    for e in &report.errors {
        println!("  FAILED: {e}");
    }
    std::fs::write(report_path(w.name, args.trace), report.to_json().pretty())
        .ctx("write report")?;
    println!("{}", report.result_line());
    Ok(report)
}

/// What the numbers were measured on.
fn environment(seed: u64, seconds: f64) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(pkg_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "PARADISE_THREADS",
            Json::str(
                std::env::var("PARADISE_THREADS")
                    .unwrap_or_else(|_| "unset (library default)".into()),
            ),
        ),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("load_generating_threads", Json::Num(loops::TENANTS as f64)),
    ])
}

/// Every workload, one after the other; a table and a result file.
fn run_all(args: &Args) -> Res<bool> {
    let mut all_correct = true;
    let mut reports = Vec::new();
    let mut by_workload: BTreeMap<&str, Metrics> = BTreeMap::new();
    for w in WORKLOADS {
        let report = run_one(w, args)?;
        all_correct &= report.correct();
        reports.push((w.name, report.to_json()));
        by_workload.insert(w.name, report.metrics);
    }

    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("\n{}", table(defs, &by_workload));
    let mut results = vec![
        ("environment", environment(args.seed, args.seconds)),
        ("workloads", Json::obj(reports)),
    ];
    if args.trace {
        // the ungated shard pair belongs to no workload: once, here
        let pair = layers::sharded(Reps::for_seconds(args.seconds))?;
        for (name, value) in &pair {
            println!("{name:<44} {value:>14.4} (ungated; nproc in the results file)");
        }
        let path = out_dir().join("waterfall.md");
        std::fs::write(
            &path,
            waterfall::combined(
                &by_workload["served_fleet"],
                &by_workload["paper_oneshot"],
                &pair,
            ),
        )
        .ctx("write waterfall")?;
        println!("waterfall: {}", path.display());
        results.push(("sharded", Json::from(&pair)));
    }
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = out_dir().join(format!("results-{kind}.json"));
    std::fs::write(&path, Json::obj(results).pretty()).ctx("write results")?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

/// Metrics down, workloads across.
fn table(defs: &[MetricDef], by_workload: &BTreeMap<&str, Metrics>) -> String {
    let mut out = format!("{:<44} {:<6}", "metric", "unit");
    for w in WORKLOADS {
        out += &format!(" {:>14}", w.name);
    }
    for d in defs {
        out += &format!("\n{:<44} {:<6}", d.name, d.unit);
        for w in WORKLOADS {
            let v = by_workload[w.name].get(d.name).copied().unwrap_or(f64::NAN);
            out += &format!(" {v:>14.4}");
        }
    }
    out
}

/// A/A: the untraced suite `--runs` times on the same code and seed.
/// Per workload and end-to-end metric, the spread of the runs' values
/// (distance between the quartiles as a share of the median, the
/// driver's rule) must stay within the metric's bound (the one in
/// `BENCHMARK.json`; a test keeps the table here equal to it), no op
/// may fail, and every run must give the same digest.
fn aa(args: &Args) -> Res<bool> {
    // [workload][metric] -> one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut digests: BTreeMap<&str, Option<u64>> = BTreeMap::new();
    let mut ok = true;
    for run in 0..args.runs {
        for w in WORKLOADS {
            let report = run_one(w, args)?;
            if !report.correct() {
                println!("aa: {} run {run} is not correct", w.name);
                ok = false;
            }
            if *digests.entry(w.name).or_insert(report.digest) != report.digest {
                println!("aa: {}: run {run}'s result_digest differs", w.name);
                ok = false;
            }
            for (name, value) in report.metrics {
                values
                    .entry(w.name)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    println!(
        "\n{:<14} {:<12} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let runs = &values[w.name][d.name];
            let bound = d.bound.expect("end-to-end metrics are gated");
            let spread = stats::spread(runs);
            let verdict = if spread <= bound / 3.0 {
                "ok"
            } else if spread <= bound {
                "ok (above a third of the bound)"
            } else {
                ok = false;
                "OUTSIDE"
            };
            println!(
                "{:<14} {:<12} {:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                w.name,
                d.name,
                stats::median(runs),
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    println!("\naa: {}", if ok { "within bounds" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<Args> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line_and_the_bare_trace_flag() {
        let a = args(&[
            "--workload",
            "steady_tick",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("steady_tick"), 7, 10.0, true)
        );
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "3"]).unwrap().trace);
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.runs),
            (42, RUN_SECONDS, false, 2)
        );
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// `BENCHMARK.json` at the root says what this package measures.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc =
            Json::parse(&std::fs::read_to_string(pkg_dir().join("../BENCHMARK.json")).unwrap())
                .unwrap();
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::str("benchmark")]);

        let workloads = doc.get("workloads").unwrap().as_arr();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(listed.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    l.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    l.get("better").and_then(Json::as_str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                assert_eq!(l.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
                assert_eq!(
                    l.as_obj().len(),
                    if d.bound.is_some() { 4 } else { 3 },
                    "{}",
                    d.name
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }
}
