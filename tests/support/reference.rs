//! The executable reference the runtime suites compare against: the
//! Figure 2 pipeline composed from public functions only, every
//! fragment re-executed over its full input through `Node::execute`.
//! It never touches the runtime's delta driver, so it stays independent
//! of the path it checks. Shared via `#[path] mod reference;`.

use std::sync::Arc;

use paradise::core::{
    assign_to_chain, derive_dp_plan, derive_dp_seed, fragment_query, lower_clamps, postprocess,
    preprocess, CoreResult, DpPlan, Outcome, Planned, QueryHandle, Remainder, Runtime,
    RuntimeOptions,
};
use paradise::engine::apply_laplace;
use paradise::policy::ModulePolicy;
use paradise::sql::Query;

/// What a default-options tick of `query` must return *now*: evaluated
/// over `rt`'s retained window (a clone of its source-of-record chain,
/// so the intermediate tables stay off the runtime) under `policy`, the
/// module's current one. For a module with a noisy `DpConfig` pass the
/// handle just ticked: the noise seed is `(handle, ledger position)`.
pub fn reference(
    rt: &Runtime,
    policy: &ModulePolicy,
    query: &Query,
    remainder: Option<&Remainder>,
    noisy: Option<QueryHandle>,
) -> CoreResult<Outcome> {
    let options = RuntimeOptions::default();
    let mut pre = preprocess(query, policy, &options.preprocess)?;
    if let Some(cfg) = &policy.dp {
        lower_clamps(&mut pre.query, cfg);
    }
    let plan = fragment_query(&pre.query)?;
    let mut chain = rt.chain().clone();
    let stages = assign_to_chain(&plan, &chain, options.assignment)?;

    let dp = policy.dp.as_ref().and_then(|cfg| derive_dp_plan(&plan, cfg));
    let noise: Option<(&DpPlan, u64)> = dp
        .as_ref()
        .filter(|dp| dp.is_noisy())
        .map(|dp| {
            let handle = noisy.expect("a noisy module's reference needs the ticked handle");
            let module = rt.handle_stats(handle).expect("live handle").module;
            let ledger = rt.epsilon_ledger(&module).expect("a noisy tick spent epsilon");
            (dp, derive_dp_seed(handle.id(), ledger.seq()))
        });
    let run = chain.run_stages_with(&stages, |i, frame| match &noise {
        Some((dp, seed)) if dp.stage == i => apply_laplace(&frame, &dp.specs, *seed).0,
        _ => frame,
    })?;

    // §3.2: anonymize at the last stage's node, or the next one up that can
    let last = stages.last().map(|s| s.node.clone()).unwrap_or_default();
    let anonymized_at = chain
        .nodes()
        .iter()
        .skip_while(|n| n.name != last)
        .find(|n| n.capability.supports_anonymization)
        .map_or(last.clone(), |n| n.name.clone());
    let post = postprocess(run.result.clone(), &options.anon)?;
    let result = match remainder {
        Some(r) => r.apply(post.frame.clone()),
        None => post.frame.clone(),
    };
    Ok(Outcome {
        planned: Arc::new(Planned {
            preprocess: pre,
            plan,
            stages,
            anonymized_at,
            dp,
            information_gain: None,
        }),
        stage_reports: run.stages,
        traffic: run.traffic,
        shipped: run.result,
        post,
        remainder_applied: remainder.map(|r| r.name.clone()),
        result,
    })
}
