//! The benchmark's workloads and metrics, and the `BENCHMARK.json`
//! written from them.

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 25;

/// `(name, why)` per workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "spec_sweep",
        "designer loop on one thread: parse, derive, busgen, 640 refine+compile+simulate points; \
         scheduler-bound kernel, no shards, no checker",
    ),
    (
        "field_sim",
        "one synthetic field simulated scalar and sharded on min(2, cores) threads: \
         dispatch-bound kernel and shard fork/join",
    ),
    (
        "check_big",
        "one 1.26M-state exploration of the cost-carrying synthetic field: \
         explore, commit and intern dominate",
    ),
    (
        "check_catalog",
        "15 small fault-environment explorations with 35 pinned verdicts: \
         checker build, properties and counterexample replay weigh more",
    ),
];

/// One metric. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported on every workload from untraced passes.
/// An operation is a design point (`spec_sweep`), a simulation
/// (`field_sim`) or an exploration (`check_*`); a work unit is a
/// simulated instruction (`spec_sweep`, `field_sim`) or a distinct
/// checker state (`check_*`).
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p90", "ms", "lower", 0.25),
    e2e("mwork_per_s", "M/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer metrics of the traced run. Times are seconds per pass
/// (medians over traced passes); counts are those of the run's first
/// traced pass and repeat exactly for one seed.
pub const PER_LAYER: [Metric; 46] = [
    layer("lang.parse_s", "s", "lower"),
    layer("lang.bytes", "count", "higher"),
    layer("partition.derive_s", "s", "lower"),
    layer("partition.channels", "count", "higher"),
    layer("core.busgen_s", "s", "lower"),
    layer("core.busgen_rows", "count", "higher"),
    layer("core.refine_s", "s", "lower"),
    layer("core.refines", "count", "higher"),
    layer("core.refined_behaviors", "count", "lower"),
    layer("core.refined_procedures", "count", "lower"),
    layer("core.refined_signals", "count", "lower"),
    layer("sim.compile_s", "s", "lower"),
    layer("sim.blocks_requested", "count", "higher"),
    layer("sim.blocks_compiled", "count", "lower"),
    layer("sim.cache_hit_ratio", "ratio", "higher"),
    layer("sim.run_s", "s", "lower"),
    layer("sim.instrs", "count", "lower"),
    layer("sim.deltas", "count", "lower"),
    layer("sim.time_steps", "count", "lower"),
    layer("sim.cycles", "count", "lower"),
    layer("sim.heap_peak", "count", "lower"),
    layer("sim.shard.run_s", "s", "lower"),
    layer("sim.shard.speedup", "x", "higher"),
    layer("sim.shard.parallel_rounds", "count", "higher"),
    layer("sim.shard.scalar_rounds", "count", "lower"),
    layer("sim.shard.barrier_stall_instrs", "count", "lower"),
    layer("sim.shard.stall_ratio", "ratio", "lower"),
    layer("sim.shard.max_share", "ratio", "lower"),
    layer("check.build_s", "s", "lower"),
    layer("check.explore_s", "s", "lower"),
    layer("check.props_s", "s", "lower"),
    layer("check.states", "count", "lower"),
    layer("check.transitions", "count", "lower"),
    layer("check.terminals", "count", "lower"),
    layer("check.dedup_hits", "count", "lower"),
    layer("check.dedup_ratio", "ratio", "lower"),
    layer("check.ample_ratio", "ratio", "higher"),
    layer("check.peak_frontier", "count", "lower"),
    layer("check.state_allocs", "count", "lower"),
    layer("check.bytes_per_state", "B", "lower"),
    layer("bench.pass.self_s", "s", "lower"),
    layer("bench.design.self_s", "s", "lower"),
    layer("bench.exploration.self_s", "s", "lower"),
    layer("trace.overhead", "x", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.duplicate_inputs", "count", "lower"),
];

fn metric_json(m: &Metric) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
