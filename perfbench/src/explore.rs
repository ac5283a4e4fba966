//! One timed model-checker exploration, shared by the checker workloads.

use std::time::Instant;

use ifsyn_sim::{CheckConfig, Checker, StateSpace};
use ifsyn_spec::System;

use crate::harness::{Counts, PassOut};
use crate::stats::rss_bytes;
use crate::trace::Tracer;

/// Builds a checker for `system`, explores it and runs `props` over the
/// state space, each step in its own span. Records the exploration's
/// latency and counters into `out`; a traced exploration also records
/// its resident-memory growth.
pub fn exploration<R>(
    system: &System,
    config: CheckConfig,
    item: u64,
    tr: &mut Tracer,
    out: &mut PassOut,
    props: impl FnOnce(&StateSpace<'_>) -> R,
) -> Result<R, String> {
    let t0 = Instant::now();
    let open = tr.begin("bench.exploration", item);
    let rss0 = if tr.enabled() { rss_bytes() } else { 0 };
    let result = explore_and_check(system, config, item, tr, &mut out.counts, rss0, props);
    tr.end(open);
    out.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    result
}

fn explore_and_check<R>(
    system: &System,
    config: CheckConfig,
    item: u64,
    tr: &mut Tracer,
    c: &mut Counts,
    rss0: u64,
    props: impl FnOnce(&StateSpace<'_>) -> R,
) -> Result<R, String> {
    let ck = tr
        .span("check.build", item, || Checker::with_config(system, config))
        .map_err(|e| format!("checker: {e}"))?;
    let ss = tr
        .span("check.explore", item, || ck.explore())
        .map_err(|e| format!("exploration: {e}"))?;
    if tr.enabled() {
        c.add("check.rss_growth", rss_bytes().saturating_sub(rss0) as f64);
    }
    let st = ss.stats();
    c.add("check.explorations", 1.0);
    c.add("check.states", st.states as f64);
    c.add("check.transitions", st.transitions as f64);
    c.add("check.terminals", st.terminals as f64);
    c.add("check.dedup_hits", st.dedup_hits as f64);
    c.add("check.ample_states", st.ample_states as f64);
    c.add("check.full_states", st.full_states as f64);
    c.add("check.state_allocs", st.state_allocs as f64);
    c.max("check.peak_frontier", st.peak_frontier as f64);
    Ok(tr.span("check.props", item, || props(&ss)))
}

/// Derived checker ratios of a pass, from its summed counters.
pub fn finish_counts(out: &mut PassOut) {
    let c = &mut out.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let states = c.get("check.states");
    let dedup = c.get("check.dedup_hits");
    let ample = c.get("check.ample_states");
    let full = c.get("check.full_states");
    c.set("check.dedup_ratio", ratio(dedup, dedup + states));
    c.set("check.ample_ratio", ratio(ample, ample + full));
    c.set(
        "check.bytes_per_state",
        ratio(c.get("check.rss_growth"), states),
    );
    out.work = states;
}
