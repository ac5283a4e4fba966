//! `field_sim`: one synthetic producer/consumer field, simulated on the
//! scalar kernel and again sharded over `min(2, cores)` threads.
//!
//! Long compute activations make the kernel dispatch-bound and exercise
//! the shard layer's fork/join. Set-up generates the field and compiles
//! it into a code cache that both simulations then share. The sharded
//! report must equal the scalar one.

use std::time::Instant;

use ifsyn_sim::{CodeCache, ParallelStats, Program, SimConfig, SimReport, Simulator};
use ifsyn_spec::System;
use ifsyn_systems::synth::{synth_system, SynthConfig};

use crate::data::{apply_initial, draw_initial, fingerprint};
use crate::harness::{PassOut, Workload};
use crate::trace::Tracer;

/// The field: 8 couples over 4 modules, each round a few hundred
/// compute operations per side. The structure seed is pinned so that
/// every benchmark seed simulates the same amount of work; the
/// benchmark seed draws the producers' initial accumulators.
pub fn field_config() -> SynthConfig {
    SynthConfig::new()
        .with_modules(4)
        .with_couples(8)
        .with_rounds(240)
        .with_compute(600)
        .with_seed(0xb16_5757)
}

/// Names of the producers' accumulators, the field's seeded data.
pub fn accumulators(couples: usize) -> Vec<String> {
    (0..couples).map(|i| format!("p{i}_acc")).collect()
}

pub struct FieldSim {
    threads: usize,
}

impl FieldSim {
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }
}

pub struct FieldInput {
    system: System,
    cache: CodeCache,
}

/// One simulation: look the program up in the cache, then run it.
/// Returns the report, the parallel engine's counters and the run time.
fn simulate(
    input: &FieldInput,
    config: SimConfig,
    run_span: &'static str,
    item: u64,
    tr: &mut Tracer,
) -> Result<(SimReport, ParallelStats, f64), String> {
    let sim = tr
        .span("sim.compile", item, || {
            Simulator::with_config_cached(&input.system, config, Some(&input.cache))
        })
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (report, stats) = tr
        .span(run_span, item, || sim.run_to_quiescence_with_stats())
        .map_err(|e| e.to_string())?;
    Ok((report, stats, t.elapsed().as_secs_f64()))
}

impl Workload for FieldSim {
    type Input = FieldInput;

    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&mut self, seed: u64) -> Result<FieldInput, String> {
        let cfg = field_config();
        let mut system = synth_system(&cfg).system;
        let data = draw_initial(&system, &accumulators(cfg.couples), seed);
        apply_initial(&mut system, &data);
        let cache = CodeCache::new();
        Program::compile_cached(&system, &SimConfig::new().cost_model, Some(&cache));
        Ok(FieldInput { system, cache })
    }

    fn pass(&mut self, input: &FieldInput, tr: &mut Tracer, fp: bool) -> PassOut {
        let mut out = PassOut::default();
        let blocks = (input.system.behaviors.len() + input.system.procedures.len()) as f64;
        let cached = input.cache.len();

        let t0 = Instant::now();
        let scalar = simulate(input, SimConfig::new(), "sim.run", 0, tr);
        out.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.fingerprint(fp, || fingerprint(&input.system, "sim_threads=1"));

        let sharded_config = SimConfig::new().with_sim_threads(self.threads);
        let t0 = Instant::now();
        let sharded = simulate(input, sharded_config, "sim.shard.run", 1, tr);
        out.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let tag = format!("sim_threads={}", self.threads);
        out.fingerprint(fp, || fingerprint(&input.system, &tag));

        out.counts.add("sim.blocks_requested", 2.0 * blocks);
        out.counts
            .add("sim.blocks_compiled", (input.cache.len() - cached) as f64);
        out.counts.set(
            "sim.cache_hit_ratio",
            1.0 - out.counts.get("sim.blocks_compiled") / (2.0 * blocks),
        );
        match (&scalar, &sharded) {
            (Ok((a, _, scalar_s)), Ok((b, stats, sharded_s))) => {
                out.check(true, String::new);
                out.check(a == b, || "sharded report differs from scalar".to_string());
                crate::record_report(&mut out.counts, a);
                crate::record_report(&mut out.counts, b);
                record_shards(&mut out, stats, scalar_s / sharded_s);
            }
            _ => {
                for r in [&scalar, &sharded] {
                    let err = r.as_ref().err().cloned();
                    out.check(err.is_none(), || err.unwrap_or_default());
                }
            }
        }
        out.work = out.counts.get("sim.instrs");
        out
    }
}

fn record_shards(out: &mut PassOut, stats: &ParallelStats, speedup: f64) {
    let c = &mut out.counts;
    let busy: u64 = stats.shard_instrs.iter().sum();
    let max = stats.shard_instrs.iter().copied().max().unwrap_or(0);
    c.set("sim.shard.speedup", speedup);
    c.set("sim.shard.parallel_rounds", stats.parallel_rounds as f64);
    c.set("sim.shard.scalar_rounds", stats.scalar_rounds as f64);
    c.set(
        "sim.shard.barrier_stall_instrs",
        stats.barrier_stall_instrs as f64,
    );
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    c.set(
        "sim.shard.stall_ratio",
        ratio(
            stats.barrier_stall_instrs,
            busy + stats.barrier_stall_instrs,
        ),
    );
    c.set("sim.shard.max_share", ratio(max, busy));
}
