//! Smoke test: every workload, untraced and traced, at a hundredth of
//! the run length, through the real binary — every metric
//! `BENCHMARK.json` names is emitted, finite and carries its unit — and
//! the sources keep to the API the README lists.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::PathBuf;
use std::process::Command;

use json::Json;

fn pkg_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn contract() -> Json {
    let text =
        std::fs::read_to_string(pkg_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Run one workload through the binary and return its result line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_paradise-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn check(workload: &str, trace: bool) {
    let contract = contract();
    let result = run(workload, trace);
    let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 65.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));

    let declared = contract
        .get(if trace { "per_layer" } else { "end_to_end" })
        .unwrap()
        .as_arr();
    let metrics = result.get("metrics").unwrap().as_obj();
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: exactly the declared metrics"
    );
    for d in declared {
        let name = d.get("name").and_then(Json::as_str).unwrap();
        let m = result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {name} has no number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(m.get("unit"), d.get("unit"), "{workload}: unit of {name}");
        if !trace {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is never 0"
            );
        }
    }
}

macro_rules! smoke {
    ($($name:ident),*) => {$(
        mod $name {
            #[test]
            fn untraced() {
                super::check(stringify!($name), false);
            }
            #[test]
            fn traced() {
                super::check(stringify!($name), true);
                let out = super::pkg_dir().join("out");
                assert!(out.join(concat!("trace-", stringify!($name), ".json")).exists());
                assert!(out.join(concat!("waterfall-", stringify!($name), ".md")).exists());
            }
        }
    )*};
}

smoke!(
    steady_tick,
    durable_tick,
    paper_oneshot,
    policy_churn,
    served_fleet
);

#[test]
fn contract_names_the_five_workloads() {
    let contract = contract();
    let names: Vec<&str> = contract
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "steady_tick",
            "durable_tick",
            "paper_oneshot",
            "policy_churn",
            "served_fleet"
        ]
    );
}

/// The benchmark may not lean on API that ROADMAP items 2 and 5 delete
/// or replace (they may not edit `benchmark/`).
#[test]
fn sources_use_only_the_allowed_api() {
    let forbidden = [
        "Processor",
        "with_incremental",
        "ExecMode",
        "PARADISE_SHARDS",
        "Request",
        "Response",
        "Stats",
        "stats()",
        "SmartRoomSim",
        "figure4_policy",
        "FIG4_POLICY_XML",
        "paradise_bench",
    ];
    for entry in std::fs::read_dir(pkg_dir().join("src")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for word in forbidden {
            assert!(!text.contains(word), "{} mentions {word}", path.display());
        }
    }
}
