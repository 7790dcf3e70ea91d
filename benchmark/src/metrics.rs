//! The names, units and bounds the benchmark reports — the same table
//! `BENCHMARK.json` holds at the root of the repo (a test keeps the two
//! equal). Definitions, and which end-to-end metric each per-layer
//! metric should move on which workload, are in the README.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    #[cfg_attr(not(test), allow(dead_code))] // for the test that compares with BENCHMARK.json
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

/// `--seconds` when the caller gives none; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("op_p50_us", "us", "lower", 0.25),
    gated("op_p90_us", "us", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("peak_rss_mb", "MiB", "lower", 0.25),
];

pub const PER_LAYER: &[MetricDef] = &[
    lower("sql.parse_us", "us"),
    lower("sql.render_us", "us"),
    lower("policy.parse_xml_us", "us"),
    lower("core.preprocess_us", "us"),
    lower("core.preprocess_actions", "count"),
    lower("core.fragment_us", "us"),
    lower("core.assign_us", "us"),
    lower("core.fragment_count", "count"),
    lower("core.postprocess_us", "us"),
    lower("core.overhead_vs_cloud", "ratio"),
    lower("core.runtime.ingest_us", "us"),
    lower("core.runtime.tick_us", "us"),
    lower("core.runtime.tick_minus_engine_us", "us"),
    lower("core.runtime.slow_tick_share", "ratio"),
    lower("core.runtime.slow_tick_p50_us", "us"),
    lower("core.runtime.register_us", "us"),
    lower("core.runtime.first_tick_us", "us"),
    lower("core.runtime.set_policy_us", "us"),
    lower("core.runtime.replan_tick_us", "us"),
    lower("core.runtime.oneshot_us", "us"),
    lower("core.runtime.oneshot_self_us", "us"),
    lower("core.storage.write_bytes_per_row", "B"),
    lower("core.storage.fsyncs_per_op", "count"),
    lower("core.storage.vfs_busy_share", "ratio"),
    lower("core.storage.tick_tax_us", "us"),
    lower("core.storage.snapshot_ms", "ms"),
    lower("core.storage.recover_ms", "ms"),
    lower("core.storage.dir_bytes_per_retained_byte", "ratio"),
    lower("engine.exec_window_us", "us"),
    lower("engine.exec_batch_us", "us"),
    lower("engine.cloud_baseline_us", "us"),
    lower("nodes.run_stages_us", "us"),
    lower("nodes.sensor_rows_out_share", "ratio"),
    lower("nodes.shipped_bytes_per_op", "B"),
    lower("nodes.egress_bytes_share", "ratio"),
    lower("server.ping_rtt_us", "us"),
    lower("server.ingest_rtt_us", "us"),
    lower("server.tick_rtt_us", "us"),
    lower("server.op_us", "us"),
    lower("server.inproc_op_us", "us"),
    lower("server.wire_tax_us", "us"),
    lower("server.client_p50_skew", "ratio"),
    lower("server.retries", "count"),
    lower("tail.op_p99_us", "us"),
    lower("tail.op_max_us", "us"),
    lower("trace.overhead_share", "ratio"),
];
