//! The paper's three stages around the chain (Figure 2): the options
//! that steer a run, a handle's [`Planned`] pipeline — §3.1
//! preprocessing, fragmentation and placement, built at the events
//! that change them — and `release`, the §3.2 postprocessing that
//! turns a handle's chain run into the [`Outcome`] a tick hands back:
//! anonymization step `A`, then the optional cloud remainder. A tick
//! is admit → spend → execute → release → commit (see
//! [`Runtime::tick_each`](crate::runtime::Runtime::tick_each)).

use std::sync::Arc;

use paradise_engine::Frame;
use paradise_nodes::{ChainRun, ProcessingChain, Stage, StageReport, TrafficLog};

use crate::checks::InformationGainReport;
use crate::dp::DpPlan;
use crate::error::CoreResult;
use crate::fragment::{AssignmentPolicy, FragmentPlan};
use crate::postprocess::{postprocess, AnonStrategy, PostprocessOutcome};
use crate::preprocess::{PreprocessOptions, PreprocessOutcome};
use crate::remainder::Remainder;

/// Runtime configuration (see
/// [`Runtime::with_options`](crate::runtime::Runtime::with_options)).
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// Preprocessor options (relation substitutions…).
    pub preprocess: PreprocessOptions,
    /// Fragment-to-node assignment policy.
    pub assignment: AssignmentPolicy,
    /// Anonymization strategy for the postprocessor.
    pub anon: AnonStrategy,
    /// If set, run the §3.1 information-gain check when a handle is
    /// planned — at registration, a policy swap, a source-schema change
    /// or recovery — over the raw window as it stands then, and refuse
    /// rewritings that lose more than this KL threshold: the failure is
    /// a planning error, like a denial. Ticks do not re-run it.
    pub info_gain_threshold: Option<f64>,
}

/// A handle's plan: everything its ticks read that is a function of
/// (query, policy version, source schemas, chain) alone. It is built
/// at the events that change one of those — registration, a policy
/// swap, a source-schema change, recovery — and every tick shares it
/// by `Arc` instead of recomputing or copying it.
#[derive(Debug)]
pub struct Planned {
    /// Preprocessing (rewriting) report.
    pub preprocess: PreprocessOutcome,
    /// The fragmentation plan.
    pub plan: FragmentPlan,
    /// The stages as assigned to chain nodes.
    pub stages: Vec<Stage>,
    /// Node at which the anonymization step `A` runs.
    pub anonymized_at: String,
    /// Differential-privacy noise plan (which stage's output to noise,
    /// per-column Laplace scales); `None` when the module has no DP
    /// config or the query has no noisable aggregate.
    pub dp: Option<DpPlan>,
    /// The §3.1 information-gain report of the rewrite, taken when the
    /// plan was built; `None` when the check is off.
    pub information_gain: Option<InformationGainReport>,
}

/// Everything one query's tick produces, for inspection and experiments.
#[derive(Debug)]
pub struct Outcome {
    /// The plan the tick ran: the rewrite, the fragments, the stages
    /// and the anonymization site, shared with the handle.
    pub planned: Arc<Planned>,
    /// Per-stage execution reports.
    pub stage_reports: Vec<StageReport>,
    /// Traffic between nodes.
    pub traffic: TrafficLog,
    /// The raw shipped result `d'` before anonymization; a caller grades
    /// `post.frame` against it with the §3.2 DD/KL metrics on request.
    pub shipped: Frame,
    /// Postprocessing (anonymization) outcome; `frame` is what leaves
    /// the apartment.
    pub post: PostprocessOutcome,
    /// Name of the applied cloud remainder, if any.
    pub remainder_applied: Option<String>,
    /// Final result after the remainder.
    pub result: Frame,
}

/// Fingerprint the schemas of `tables` as installed anywhere in
/// `chain` (first node owning each table wins; absent tables hash as
/// absent). A handle is re-planned when an installed source moves its
/// fingerprint.
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

/// §3.2 postprocessing, the one place where a handle's tick result
/// leaves the chain: anonymization step `A` at the most powerful
/// in-apartment node, then the optional cloud remainder. Every rule
/// about what a module may receive belongs here. It runs inside the
/// handle's pool job, so the handles of one tick release in parallel.
///
/// Frames are handed on by *sharing column buffers* (`Frame::clone`
/// bumps per-column `Arc`s): between the chain run's output and
/// `Outcome.result` no row or cell is copied — `shipped`, the
/// postprocessor input, `post.frame` and `result` all reference the
/// same buffers unless a stage actually rewrites data.
pub(crate) fn release(
    planned: Arc<Planned>,
    run: ChainRun,
    options: &RuntimeOptions,
    remainder: Option<&Remainder>,
) -> CoreResult<Outcome> {
    let shipped = run.result;
    let post = postprocess(shipped.clone(), &options.anon)?;

    let (result, remainder_applied) = match remainder {
        Some(r) => (r.apply(post.frame.clone()), Some(r.name.clone())),
        None => (post.frame.clone(), None),
    };

    Ok(Outcome {
        planned,
        stage_reports: run.stages,
        traffic: run.traffic,
        shipped,
        post,
        remainder_applied,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::runtime::Runtime;
    use paradise_nodes::SmartRoomSim;
    use paradise_policy::figure4_policy;
    use paradise_sql::parse_query;

    const PAPER_ORIGINAL: &str =
        "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) \
         FROM (SELECT x, y, z, t FROM stream)";

    fn runtime_with(options: RuntimeOptions) -> Runtime {
        let mut rt = Runtime::new(ProcessingChain::apartment())
            .with_policy("ActionFilter", figure4_policy().modules.remove(0))
            .with_options(options);
        // a meeting-sized population so that standing groups survive the
        // Figure-4 policy's SUM(z) > 100 threshold
        let config = paradise_nodes::SmartRoomConfig {
            persons: 10,
            switch_probability: 0.003,
            ..Default::default()
        };
        let mut sim = SmartRoomSim::with_config(42, config);
        rt.install_source("motion-sensor", "stream", sim.ubisense_positions(500)).unwrap();
        rt
    }

    fn runtime() -> Runtime {
        runtime_with(RuntimeOptions::default())
    }

    #[test]
    fn end_to_end_paper_pipeline() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();

        // four fragments on the paper's nodes
        let nodes: Vec<&str> = outcome.planned.stages.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(
            nodes,
            vec!["motion-sensor", "appliance", "media-center", "local-server"]
        );
        // traffic decreases toward the top
        assert!(outcome.traffic.hops.len() >= 2);
        // anonymization at the local server (first node from the top
        // stage that supports it)
        assert_eq!(outcome.planned.anonymized_at, "local-server");
        assert_eq!(outcome.result.schema.len(), outcome.post.frame.schema.len());
    }

    #[test]
    fn anonymization_escalates_past_nodes_without_the_power() {
        // `x > y` needs the appliance, which cannot anonymize (§3.2):
        // step `A` escalates to the first node above it that can
        let mut rt = runtime();
        let q = parse_query("SELECT x, y FROM stream").unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();
        assert_eq!(outcome.planned.stages.last().unwrap().node, "appliance");
        assert_eq!(outcome.planned.anonymized_at, "local-server");
    }

    #[test]
    fn missing_policy_is_an_error() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        assert!(matches!(
            rt.run_once("UnknownModule", &q),
            Err(CoreError::NoPolicy(_))
        ));
    }

    #[test]
    fn cloud_baseline_ships_everything() {
        let rt = runtime();
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let (result, raw_bytes) = rt.cloud_baseline(&q).unwrap();
        assert_eq!(result.len(), 5000); // 500 steps × 10 persons
        assert_eq!(raw_bytes, rt.integrated_catalog().get("stream").unwrap().size_bytes());
    }

    #[test]
    fn paradise_ships_less_than_baseline() {
        let mut rt = runtime();
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let (_, raw_bytes) = rt.cloud_baseline(&q).unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();
        let shipped = outcome.traffic.last_hop_bytes();
        assert!(
            shipped < raw_bytes,
            "PArADISE shipped {shipped} bytes, baseline {raw_bytes}"
        );
    }

    #[test]
    fn info_gain_check_can_reject() {
        let mut rt = runtime_with(RuntimeOptions {
            info_gain_threshold: Some(1e-12), // impossibly tight
            ..RuntimeOptions::default()
        });
        // a flat query whose output columns survive rewriting, so the
        // distributions are actually comparable
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let err = rt.run_once("ActionFilter", &q).unwrap_err();
        assert!(matches!(err, CoreError::InsufficientInformation { .. }));
    }

    #[test]
    fn info_gain_check_passes_with_loose_threshold() {
        let mut rt = runtime_with(RuntimeOptions {
            info_gain_threshold: Some(1e6),
            ..RuntimeOptions::default()
        });
        let q = parse_query("SELECT x, y, z, t FROM stream").unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();
        let report = outcome.planned.information_gain.as_ref().unwrap();
        assert!(report.divergence > 0.0);
        assert!(!report.compared_columns.is_empty());
    }

    #[test]
    fn remainder_is_applied_at_the_cloud() {
        let mut rt = runtime().with_remainder(crate::remainder::filter_by_class(
            crate::remainder::ActionClass::Walk,
        ));
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();
        assert!(outcome.remainder_applied.as_deref().unwrap().contains("filterByClass"));
        // the remainder appends the action column
        assert_eq!(
            outcome.result.schema.len(),
            outcome.post.frame.schema.len() + 1
        );
    }

    #[test]
    fn pipeline_output_shares_buffers_with_shipped() {
        // with anonymization off and no remainder, the final result IS
        // the shipped frame: between the chain run's output and
        // Outcome.result no frame/row is copied, only Arcs are bumped
        let mut rt = runtime_with(RuntimeOptions {
            anon: AnonStrategy::None,
            ..RuntimeOptions::default()
        });
        let q = parse_query(PAPER_ORIGINAL).unwrap();
        let outcome = rt.run_once("ActionFilter", &q).unwrap();
        assert!(outcome.post.frame.shares_columns(&outcome.shipped));
        assert!(outcome.result.shares_columns(&outcome.shipped));
    }
}
