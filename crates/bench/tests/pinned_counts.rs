//! Exact instruction-count pins for the simulation workloads.
//!
//! Every run of the kernel is deterministic, so the number of bytecode
//! instructions a workload executes is a property of the code, not of
//! the machine. A change in one of these counts means the compiler, the
//! refinement or the scheduler now does different work; a change that
//! meant to keep behaviour must keep every pin. Throughput is the job of
//! the benchmark in `perfbench/`, not of these tests.

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind};
use ifsyn_sim::{CodeCache, SimConfig, Simulator};
use ifsyn_spec::System;
use ifsyn_systems::synth::{synth_system, SynthConfig};
use ifsyn_systems::{fig3, flc};

/// Instructions the scalar kernel executes on the FLC shared bus,
/// summed over widths 1..=30.
const FLC_SHARED_SWEEP_INSTRS: u64 = 703_394;

/// `fig7::run().total_instrs`: eval alone, conv alone and shared, per
/// width.
const FIG7_INSTRS: u64 = 1_320_302;

/// The Fig. 3 golden run plus nine refined widths over one code cache.
const FIG3_PIPELINE_INSTRS: u64 = 3_901;

/// One scalar run of the synthetic field [`big_system`].
const BIG_SYSTEM_INSTRS: u64 = 457_584;

/// A synthetic field large enough that its process count dwarfs any
/// paper example, fixed by seed.
fn big_system() -> System {
    synth_system(
        &SynthConfig::new()
            .with_modules(4)
            .with_couples(8)
            .with_rounds(24)
            .with_compute(600)
            .with_seed(0xb16_5757),
    )
    .system
}

#[test]
fn flc_shared_bus_sweep_instrs() {
    let f = flc::flc();
    let instrs: u64 = (1..=30)
        .map(|width| {
            let design =
                BusDesign::with_width(f.bus_channels(), width, ProtocolKind::FullHandshake);
            let refined = ProtocolGenerator::new()
                .refine(&f.system, &design)
                .expect("flc refinement");
            Simulator::new(&refined.system)
                .expect("sim setup")
                .run_to_quiescence()
                .expect("sim")
                .total_instrs()
        })
        .sum();
    assert_eq!(instrs, FLC_SHARED_SWEEP_INSTRS);
}

#[test]
fn fig7_sweep_instrs() {
    assert_eq!(ifsyn_bench::fig7::run().total_instrs, FIG7_INSTRS);
}

#[test]
fn fig3_pipeline_instrs() {
    const WIDTHS: [u32; 9] = [1, 2, 3, 5, 7, 11, 16, 22, 32];
    let cache = CodeCache::new();
    let run = |sys: &System| {
        Simulator::with_config_cached(sys, SimConfig::new(), Some(&cache))
            .expect("sim setup")
            .run_to_quiescence()
            .expect("sim")
            .total_instrs()
    };
    let f = fig3::fig3();
    let mut instrs = run(&f.system);
    for width in WIDTHS {
        let design = BusDesign::with_width(f.channels(), width, ProtocolKind::FullHandshake);
        let refined = ProtocolGenerator::new()
            .refine(&f.system, &design)
            .expect("fig3 refinement");
        instrs += run(&refined.system);
    }
    assert_eq!(instrs, FIG3_PIPELINE_INSTRS);
}

/// The sharded kernel at 2 sim-threads returns the scalar report, with
/// the fork/join path engaged; two threads so it engages even on small
/// machines without oversubscribing them.
#[test]
fn big_system_matches_scalar_at_two_sim_threads() {
    let sys = big_system();
    let scalar = Simulator::new(&sys)
        .expect("sim setup")
        .run_to_quiescence()
        .expect("scalar run");
    assert_eq!(scalar.total_instrs(), BIG_SYSTEM_INSTRS);
    let (par, stats) = Simulator::with_config(&sys, SimConfig::new().with_sim_threads(2))
        .expect("sim setup")
        .run_to_quiescence_with_stats()
        .expect("parallel run");
    assert_eq!(scalar, par, "2-thread report diverged from scalar");
    assert!(stats.shards > 1, "partitioner produced a single shard");
    assert!(
        stats.parallel_rounds > 0,
        "fork/join never engaged on the big system"
    );
}
