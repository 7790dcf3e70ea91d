//! The end-to-end privacy-aware query processor (paper Figure 2):
//! preprocessor → vertical fragmentation → distributed execution →
//! postprocessor/anonymization → (cloud) remainder.

use std::collections::HashMap;

use paradise_engine::{Catalog, Frame, PlanCacheStats};
use paradise_nodes::{ProcessingChain, Stage, StageReport, TrafficLog};
use paradise_policy::ModulePolicy;
use paradise_sql::ast::Query;

use crate::checks::{information_gain_check, InformationGainReport};
use crate::error::{CoreError, CoreResult};
use crate::fragment::{assign_to_chain, fragment_query, AssignmentPolicy, FragmentPlan};
use crate::postprocess::{postprocess, AnonStrategy, PostprocessOutcome};
use crate::preprocess::{preprocess, PreprocessOptions, PreprocessOutcome};
use crate::remainder::Remainder;

/// Processor configuration.
#[derive(Debug, Clone)]
pub struct ProcessorOptions {
    /// Preprocessor options (relation substitutions…).
    pub preprocess: PreprocessOptions,
    /// Fragment-to-node assignment policy.
    pub assignment: AssignmentPolicy,
    /// Anonymization strategy for the postprocessor.
    pub anon: AnonStrategy,
    /// If set, run the §3.1 information-gain check against the raw data
    /// and refuse rewritings that lose more than this KL threshold.
    pub info_gain_threshold: Option<f64>,
    /// Cache fragment plans keyed by (module, query), so repeated
    /// continuous-query runs skip preprocessing and fragmentation.
    pub plan_cache: bool,
}

impl Default for ProcessorOptions {
    fn default() -> Self {
        ProcessorOptions {
            preprocess: PreprocessOptions::default(),
            assignment: AssignmentPolicy::default(),
            anon: AnonStrategy::default(),
            info_gain_threshold: None,
            plan_cache: true,
        }
    }
}

/// Upper bound on cached fragment plans before the cache resets.
const MAX_CACHED_PLANS: usize = 1024;

/// A cached (preprocess, fragmentation) result for one
/// (module, query, schema fingerprint) triple. Node assignment is
/// *not* cached — it depends on live chain state and is cheap to
/// re-derive.
#[derive(Debug, Clone)]
struct CachedPlan {
    /// The original query (verified on every hit, so a hash collision
    /// can never serve a wrong plan).
    query: Query,
    pre: PreprocessOutcome,
    plan: FragmentPlan,
    /// Base tables of the query, inputs of `fingerprint`.
    tables: Vec<String>,
    /// Fingerprint of the source-table schemas across the chain at
    /// caching time; a mismatch invalidates the entry.
    fingerprint: u64,
}

/// Fingerprint the schemas of `tables` as installed anywhere in
/// `chain` (first node owning each table wins; absent tables hash as
/// absent). Drives fragment-plan invalidation on schema change, for
/// both the one-shot [`Processor`] and the continuous-query
/// [`Runtime`](crate::runtime::Runtime).
pub(crate) fn source_fingerprint(chain: &ProcessingChain, tables: &[String]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in tables {
        t.hash(&mut h);
        let schema = chain
            .nodes()
            .iter()
            .find_map(|n| n.catalog.get(t).ok().map(|f| &f.schema));
        match schema {
            Some(s) => paradise_engine::plan::schema_hash(s).hash(&mut h),
            None => u64::MAX.hash(&mut h),
        }
    }
    h.finish()
}

/// §3.2: the anonymization runs at the last stage's node if powerful
/// enough, otherwise data escalates to the next node that supports it.
pub(crate) fn anonymization_site(chain: &ProcessingChain, stages: &[Stage]) -> String {
    let last_node = stages.last().map(|s| s.node.as_str()).unwrap_or_default();
    let nodes = chain.nodes();
    let start = nodes.iter().position(|n| n.name == last_node).unwrap_or(0);
    nodes[start..]
        .iter()
        .find(|n| n.capability.supports_anonymization)
        .map(|n| n.name.clone())
        .unwrap_or_else(|| last_node.to_string())
}

/// The per-run execution path shared by the one-shot [`Processor`] and
/// the per-handle tick of the continuous-query
/// [`Runtime`](crate::runtime::Runtime): assign the (already rewritten,
/// already fragmented) query to the live chain, execute bottom-up, run
/// the anonymization step `A` and the optional cloud remainder.
///
/// Frames are handed between the stages by *sharing column buffers*
/// (`Frame::clone` bumps per-column `Arc`s): between the `run_stages`
/// output and `Outcome.result` no row or cell is copied — `shipped`,
/// the postprocessor input, `post.frame` and `result` all reference the
/// same buffers unless a stage actually rewrites data.
pub(crate) fn execute_pipeline(
    chain: &mut ProcessingChain,
    pre: PreprocessOutcome,
    plan: FragmentPlan,
    information_gain: Option<InformationGainReport>,
    options: &ProcessorOptions,
    remainder: Option<&Remainder>,
) -> CoreResult<Outcome> {
    // 3b. assign to the (live) chain
    let stages = assign_to_chain(&plan, chain, options.assignment)?;

    // 4. execute bottom-up across the chain
    let run = chain.run_stages(&stages)?;

    // 5.–6. anonymization + remainder
    assemble_outcome(chain, pre, plan, stages, run, information_gain, options, remainder)
}

/// The tail every execution path shares — one-shot, full-rescan tick
/// and incremental tick: anonymization step `A` at the most powerful
/// in-apartment node, the optional cloud remainder, and the assembled
/// [`Outcome`]. The postprocessor input shares the shipped frame's
/// buffers; with no rewriting stage, `shipped`, `post.frame` and
/// `result` stay pointer-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble_outcome(
    chain: &ProcessingChain,
    pre: PreprocessOutcome,
    plan: FragmentPlan,
    stages: Vec<Stage>,
    run: paradise_nodes::ChainRun,
    information_gain: Option<InformationGainReport>,
    options: &ProcessorOptions,
    remainder: Option<&Remainder>,
) -> CoreResult<Outcome> {
    // 5. anonymization step A at the most powerful in-apartment node
    let anonymized_at = anonymization_site(chain, &stages);
    let shipped = run.result;
    let post = postprocess(shipped.clone(), &options.anon)?;

    // 6. cloud remainder (shares `post.frame`'s buffers when absent)
    let (result, remainder_applied) = match remainder {
        Some(r) => (r.apply(post.frame.clone()), Some(r.name.clone())),
        None => (post.frame.clone(), None),
    };

    Ok(Outcome {
        preprocess: pre,
        information_gain,
        plan,
        stages,
        stage_reports: run.stages,
        traffic: run.traffic,
        shipped,
        anonymized_at,
        post,
        remainder_applied,
        result,
    })
}

/// The PArADISE processor bound to a node chain: the original one-shot
/// `run(module, query)` entry point.
///
/// For *continuous* queries — the paper's actual setting — prefer the
/// registration-based [`Runtime`](crate::runtime::Runtime): it
/// preprocesses, fragments and compiles once per registered query,
/// supports live policy swaps with exact cache invalidation, ingests
/// stream batches, and fans multi-query ticks out across chains.
pub struct Processor {
    chain: ProcessingChain,
    policies: HashMap<String, ModulePolicy>,
    options: ProcessorOptions,
    remainder: Option<Remainder>,
    plan_cache: HashMap<(String, u64), CachedPlan>,
    cache_stats: PlanCacheStats,
}

/// Everything a processor run produces, for inspection and experiments.
#[derive(Debug)]
pub struct Outcome {
    /// Preprocessing (rewriting) report.
    pub preprocess: PreprocessOutcome,
    /// Information-gain report, when the check was enabled.
    pub information_gain: Option<InformationGainReport>,
    /// The fragmentation plan.
    pub plan: FragmentPlan,
    /// The stages as assigned to chain nodes.
    pub stages: Vec<Stage>,
    /// Per-stage execution reports.
    pub stage_reports: Vec<StageReport>,
    /// Traffic between nodes.
    pub traffic: TrafficLog,
    /// The raw shipped result `d'` before anonymization.
    pub shipped: Frame,
    /// Node at which the anonymization step `A` ran.
    pub anonymized_at: String,
    /// Postprocessing (anonymization) outcome; `frame` is what leaves
    /// the apartment.
    pub post: PostprocessOutcome,
    /// Name of the applied cloud remainder, if any.
    pub remainder_applied: Option<String>,
    /// Final result after the remainder.
    pub result: Frame,
}

impl Processor {
    /// Processor over a chain with default options.
    pub fn new(chain: ProcessingChain) -> Self {
        Processor {
            chain,
            policies: HashMap::new(),
            options: ProcessorOptions::default(),
            remainder: None,
            plan_cache: HashMap::new(),
            cache_stats: PlanCacheStats::default(),
        }
    }

    /// Builder: install a module policy. Invalidates any cached plans of
    /// the module (the policy drives the rewriting).
    #[must_use]
    pub fn with_policy(mut self, module_id: impl Into<String>, policy: ModulePolicy) -> Self {
        let module: String = module_id.into();
        self.plan_cache.retain(|(m, _), _| m != &module);
        self.policies.insert(module, policy);
        self
    }

    /// Builder: set options. Clears the plan cache (preprocess options
    /// affect the rewriting).
    #[must_use]
    pub fn with_options(mut self, options: ProcessorOptions) -> Self {
        self.plan_cache.clear();
        self.options = options;
        self
    }

    /// Hit/miss counters of the fragment-plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache_stats
    }

    /// Aggregated hit/miss/invalidation counters of the chain nodes'
    /// compiled-plan caches (the engine-level cache layer; see
    /// `paradise_engine::plan::PlanCache`).
    pub fn engine_plan_stats(&self) -> PlanCacheStats {
        let mut total = PlanCacheStats::default();
        for node in self.chain.nodes() {
            let s = node.plan_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
        }
        total
    }

    /// Builder: set the cloud remainder stage.
    #[must_use]
    pub fn with_remainder(mut self, remainder: Remainder) -> Self {
        self.remainder = Some(remainder);
        self
    }

    /// Install source data (the raw sensor stream) at a chain node.
    pub fn install_source(&mut self, node: &str, table: &str, frame: Frame) -> CoreResult<()> {
        self.chain.node_mut(node)?.install_table(table, frame);
        Ok(())
    }

    /// Borrow the chain (e.g. to inspect node statistics).
    pub fn chain(&self) -> &ProcessingChain {
        &self.chain
    }

    /// A merged catalog of every node's tables — the hypothetical
    /// integrated database `d` of the paper, used for baselines and the
    /// information-gain check.
    pub fn integrated_catalog(&self) -> Catalog {
        let mut merged = Catalog::new();
        for node in self.chain.nodes() {
            for table in node.catalog.table_names() {
                if let Ok(frame) = node.catalog.get(table) {
                    merged.register_or_replace(table, frame.clone());
                }
            }
        }
        merged
    }

    /// Run a query for a module: the full Figure 2 pipeline, as a
    /// one-shot session over the same execution path the
    /// [`Runtime`](crate::runtime::Runtime) ticks registered queries
    /// through.
    ///
    /// **Deprecation note:** for continuous queries, prefer
    /// [`Runtime::register`](crate::runtime::Runtime::register) +
    /// [`Runtime::tick`](crate::runtime::Runtime::tick) — callers then
    /// stop re-submitting the query per tick, policies become hot-
    /// swappable via
    /// [`Runtime::set_policy`](crate::runtime::Runtime::set_policy), and
    /// independent queries tick in parallel. `Processor::run` stays for
    /// one-shot/ad-hoc runs and as the serial reference the runtime's
    /// equivalence tests compare against.
    ///
    /// Frames are handed between the stages by *sharing column buffers*
    /// (`Frame::clone` bumps per-column `Arc`s): between the
    /// `run_stages` output and `Outcome.result` no row or cell is
    /// copied — `shipped`, the postprocessor input, `post.frame` and
    /// `result` all reference the same buffers unless a stage actually
    /// rewrites data. `shares_columns` tests pin this down.
    pub fn run(&mut self, module_id: &str, query: &Query) -> CoreResult<Outcome> {
        if !self.policies.contains_key(module_id) {
            return Err(CoreError::NoPolicy(module_id.to_string()));
        }

        // 1. preprocess (rewrite under the policy) + 3a. fragment —
        // cached per (module, query, schema fingerprint) so continuous
        // queries skip both. The key hashes the query AST directly
        // (no SQL rendering per tick); a hit verifies the stored AST,
        // so hash collisions can never serve a wrong plan, and a
        // source-schema change invalidates the entry.
        let key = (module_id.to_string(), paradise_engine::plan::ast_key(query));
        let (pre, plan) = if self.options.plan_cache {
            let cached = self.plan_cache.get(&key).and_then(|c| {
                if c.query != *query {
                    return None; // hash collision: recompute
                }
                if source_fingerprint(&self.chain, &c.tables) != c.fingerprint {
                    return Some(None); // schemas changed: invalidate
                }
                Some(Some((c.pre.clone(), c.plan.clone())))
            });
            match cached {
                Some(Some(hit)) => {
                    self.cache_stats.hits += 1;
                    hit
                }
                stale => {
                    self.cache_stats.misses += 1;
                    if matches!(stale, Some(None)) {
                        self.cache_stats.invalidations += 1;
                    }
                    let policy = &self.policies[module_id];
                    let pre = preprocess(query, policy, &self.options.preprocess)?;
                    let plan = fragment_query(&pre.query)?;
                    // bound the cache: a stream of distinct ad-hoc queries
                    // must not grow memory forever (epoch-style reset)
                    if self.plan_cache.len() >= MAX_CACHED_PLANS {
                        self.plan_cache.clear();
                    }
                    let tables = paradise_sql::analysis::base_relations(query);
                    let fingerprint = source_fingerprint(&self.chain, &tables);
                    self.plan_cache.insert(
                        key,
                        CachedPlan {
                            query: query.clone(),
                            pre: pre.clone(),
                            plan: plan.clone(),
                            tables,
                            fingerprint,
                        },
                    );
                    (pre, plan)
                }
            }
        } else {
            let policy = &self.policies[module_id];
            let pre = preprocess(query, policy, &self.options.preprocess)?;
            let plan = fragment_query(&pre.query)?;
            (pre, plan)
        };

        // 2. information-gain check (optional)
        let information_gain = match self.options.info_gain_threshold {
            Some(threshold) => {
                let catalog = self.integrated_catalog();
                Some(information_gain_check(&catalog, query, &pre.query, threshold)?)
            }
            None => None,
        };

        // 3b.–6. the shared execution path (assignment, bottom-up
        // execution, anonymization, remainder)
        execute_pipeline(
            &mut self.chain,
            pre,
            plan,
            information_gain,
            &self.options,
            self.remainder.as_ref(),
        )
    }

    /// Baseline for the Figure 3 experiment: ship the raw integrated
    /// data `d` to the cloud and execute the original query there.
    /// Returns the result and the bytes that would leave the apartment.
    pub fn cloud_baseline(&self, query: &Query) -> CoreResult<(Frame, usize)> {
        let catalog = self.integrated_catalog();
        let raw_bytes: usize = catalog
            .table_names()
            .iter()
            .filter_map(|t| catalog.get(t).ok())
            .map(Frame::size_bytes)
            .sum();
        let executor = paradise_engine::Executor::new(&catalog);
        let result = executor.execute(query)?;
        Ok((result, raw_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradise_nodes::SmartRoomSim;
    use paradise_policy::figure4_policy;
    use paradise_sql::parse_query;

    const PAPER_ORIGINAL: &str =
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)";

    fn processor() -> Processor {
        let mut p = Processor::new(ProcessingChain::apartment())
            .with_policy("ActionFilter", figure4_policy().modules.remove(0));
        // a meeting-sized population so that standing groups survive the
        // Figure-4 policy's SUM(z) > 100 threshold
        let config = paradise_nodes::SmartRoomConfig {
            persons: 10,
            switch_probability: 0.003,
            ..Default::default()
        };
        let mut sim = SmartRoomSim::with_config(42, config);
        p.install_source("motion-sensor", "stream", sim.ubisense_positions(500))
            .unwrap();
        p
    }

    #[test]
    fn end_to_end_paper_pipeline() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = p.run("ActionFilter", &q).unwrap();

        // four fragments on the paper's nodes
        let nodes: Vec<&str> = outcome.stages.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(
            nodes,
            vec!["motion-sensor", "appliance", "media-center", "local-server"]
        );
        // traffic decreases toward the top
        assert!(outcome.traffic.hops.len() >= 2);
        // anonymization at the local server (first node from the top
        // stage that supports it)
        assert_eq!(outcome.anonymized_at, "local-server");
        assert_eq!(outcome.result.schema.len(), outcome.post.frame.schema.len());
    }

    #[test]
    fn missing_policy_is_an_error() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        assert!(matches!(
            p.run("UnknownModule", &q),
            Err(CoreError::NoPolicy(_))
        ));
    }

    #[test]
    fn cloud_baseline_ships_everything() {
        let p = processor();
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let (result, raw_bytes) = p.cloud_baseline(&q).unwrap();
        assert_eq!(result.len(), 5000); // 500 steps × 10 persons
        assert_eq!(raw_bytes, p.integrated_catalog().get("stream").unwrap().size_bytes());
    }

    #[test]
    fn paradise_ships_less_than_baseline() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let (_, raw_bytes) = p.cloud_baseline(&q).unwrap();
        let outcome = p.run("ActionFilter", &q).unwrap();
        let shipped = outcome.traffic.last_hop_bytes();
        assert!(
            shipped < raw_bytes,
            "PArADISE shipped {shipped} bytes, baseline {raw_bytes}"
        );
    }

    #[test]
    fn info_gain_check_can_reject() {
        let mut p = processor();
        p.options.info_gain_threshold = Some(1e-12); // impossibly tight
        // a flat query whose output columns survive rewriting, so the
        // distributions are actually comparable
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let err = p.run("ActionFilter", &q).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientInformation { .. }));
    }

    #[test]
    fn info_gain_check_passes_with_loose_threshold() {
        let mut p = processor();
        p.options.info_gain_threshold = Some(1e6);
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let outcome = p.run("ActionFilter", &q).unwrap();
        let report = outcome.information_gain.unwrap();
        assert!(report.divergence > 0.0);
        assert!(!report.compared_columns.is_empty());
    }

    #[test]
    fn remainder_is_applied_at_the_cloud() {
        let mut p = processor().with_remainder(crate::remainder::filter_by_class(
            crate::remainder::ActionClass::Walk,
        ));
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = p.run("ActionFilter", &q).unwrap();
        assert!(outcome.remainder_applied.as_deref().unwrap().contains("filterByClass"));
        // the remainder appends the action column
        assert_eq!(
            outcome.result.schema.len(),
            outcome.post.frame.schema.len() + 1
        );
    }

    #[test]
    fn plan_cache_serves_repeated_runs() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let first = p.run("ActionFilter", &q).unwrap();
        let second = p.run("ActionFilter", &q).unwrap();
        let stats = p.plan_cache_stats();
        assert_eq!(stats.misses, 1, "first run preprocesses + fragments");
        assert_eq!(stats.hits, 1, "second run is served from the cache");
        assert_eq!(first.preprocess.query, second.preprocess.query);
        assert_eq!(first.plan, second.plan);
    }

    #[test]
    fn plan_cache_invalidates_on_source_schema_change() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        p.run("ActionFilter", &q).unwrap();
        p.run("ActionFilter", &q).unwrap();
        assert_eq!(p.plan_cache_stats().hits, 1);
        assert_eq!(p.plan_cache_stats().invalidations, 0);

        // re-install the source under a wider schema: the cached plan
        // must be invalidated, not silently reused
        let old = p.chain().node("motion-sensor").unwrap().catalog.get("stream").unwrap().clone();
        let mut schema = old.schema.clone();
        schema.push(paradise_engine::Column::new("w", paradise_engine::DataType::Float));
        let rows: Vec<Vec<paradise_engine::Value>> = old
            .iter_rows()
            .map(|mut r| {
                r.push(paradise_engine::Value::Float(0.0));
                r
            })
            .collect();
        let widened = paradise_engine::Frame::new(schema, rows).unwrap();
        p.install_source("motion-sensor", "stream", widened).unwrap();

        p.run("ActionFilter", &q).unwrap();
        let stats = p.plan_cache_stats();
        assert_eq!(stats.invalidations, 1, "schema change must invalidate");
        assert_eq!(stats.misses, 2);
        // and the refreshed entry is served again afterwards
        p.run("ActionFilter", &q).unwrap();
        assert_eq!(p.plan_cache_stats().hits, 2);
    }

    #[test]
    fn node_plan_caches_warm_across_runs() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        p.run("ActionFilter", &q).unwrap();
        let cold = p.engine_plan_stats();
        assert_eq!(cold.hits, 0, "first tick compiles every stage");
        assert!(cold.misses >= 4);
        p.run("ActionFilter", &q).unwrap();
        let warm = p.engine_plan_stats();
        assert!(warm.hits >= 4, "second tick reuses every stage plan: {warm:?}");
        assert_eq!(warm.misses, cold.misses, "no recompilation on the warm tick");
    }

    #[test]
    fn plan_cache_can_be_disabled() {
        let mut p = processor().with_options(ProcessorOptions {
            plan_cache: false,
            ..ProcessorOptions::default()
        });
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        p.run("ActionFilter", &q).unwrap();
        p.run("ActionFilter", &q).unwrap();
        assert_eq!(p.plan_cache_stats(), PlanCacheStats::default());
    }

    #[test]
    fn pipeline_output_shares_buffers_with_shipped() {
        // with anonymization off and no remainder, the final result IS
        // the shipped frame: between the run_stages output and
        // Outcome.result no frame/row is copied, only Arcs are bumped
        let mut p = processor().with_options(ProcessorOptions {
            anon: AnonStrategy::None,
            ..ProcessorOptions::default()
        });
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = p.run("ActionFilter", &q).unwrap();
        assert!(outcome.post.frame.shares_columns(&outcome.shipped));
        assert!(outcome.result.shares_columns(&outcome.shipped));
    }

    #[test]
    fn stats_accumulate_on_nodes() {
        let mut p = processor();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        p.run("ActionFilter", &q).unwrap();
        let sensor = p.chain().node("motion-sensor").unwrap();
        assert_eq!(sensor.stats.fragments_executed, 1);
        assert_eq!(sensor.stats.rows_in, 5000);
    }
}
