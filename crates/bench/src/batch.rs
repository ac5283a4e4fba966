//! Parallel batch simulation front-end.
//!
//! Sweeps and design-space exploration simulate many refined systems
//! that share most of their generated protocol code (the same handshake
//! procedures at every width, the same server loops). [`BatchRunner`]
//! fans the runs out over worker threads and routes every compilation
//! through one shared [`CodeCache`], so each distinct behavior or
//! procedure body is lowered to register bytecode exactly once per
//! batch instead of once per run.
//!
//! ```
//! use ifsyn_bench::batch::BatchRunner;
//! # use ifsyn_spec::{System, Ty, dsl::*};
//! # let mut sys = System::new("b");
//! # let m = sys.add_module("chip");
//! # let b = sys.add_behavior("P", m);
//! # let x = sys.add_variable("x", Ty::Int(8), b);
//! # sys.behavior_mut(b).body = vec![assign(var(x), int_const(1, 8))];
//! let systems = vec![sys.clone(), sys];
//! let reports = BatchRunner::new().with_jobs(2).run(&systems);
//! assert!(reports.iter().all(|r| r.is_ok()));
//! ```

use ifsyn_analyze::{analyze_report, BusAnalysis, BusMeta};
use ifsyn_sim::{CodeCache, SimConfig, SimError, SimReport, Simulator};
use ifsyn_spec::System;

use crate::sweep::{parallel_sweep_with, sweep_threads};

/// Runs batches of simulations in parallel with shared compiled code.
#[derive(Debug, Default)]
pub struct BatchRunner {
    jobs: usize,
    config: SimConfig,
    cache: CodeCache,
}

impl BatchRunner {
    /// Creates a runner with the default configuration and automatic
    /// worker count (the sweep driver's resolution: `--jobs` override,
    /// `IFSYN_SWEEP_THREADS`, then one per core).
    #[must_use]
    pub fn new() -> Self {
        Self {
            jobs: 0,
            config: SimConfig::new(),
            cache: CodeCache::new(),
        }
    }

    /// Sets the worker thread count; 0 means automatic.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the simulator configuration used for every run.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the per-simulation thread count ([`SimConfig::sim_threads`])
    /// used for every run. Composes with the batch fan-out through a
    /// shared thread budget: unless [`BatchRunner::with_jobs`] pins an
    /// explicit worker count, the automatic job count shrinks so that
    /// `jobs × sim_threads` stays within the sweep driver's budget —
    /// batch parallelism across systems and shard parallelism within
    /// each simulation never oversubscribe the machine together.
    #[must_use]
    pub fn with_sim_threads(mut self, threads: usize) -> Self {
        self.config.sim_threads = threads.max(1);
        self
    }

    /// The worker count the next [`BatchRunner::run`] call will use.
    ///
    /// An explicit [`BatchRunner::with_jobs`] setting is honored as-is;
    /// the automatic count divides the sweep driver's thread budget by
    /// [`BatchRunner::sim_threads`] so the total stays bounded.
    #[must_use]
    pub fn jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            (sweep_threads() / self.sim_threads()).max(1)
        }
    }

    /// Threads each individual simulation runs on.
    #[must_use]
    pub fn sim_threads(&self) -> usize {
        self.config.sim_threads.max(1)
    }

    /// Distinct code blocks compiled so far (shared across all runs).
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.cache.len()
    }

    /// Simulates every system to quiescence, fanning out over the
    /// configured worker count, and returns the reports in input order.
    ///
    /// Each failure is reported in place rather than aborting the batch:
    /// one deadlocked configuration in a width sweep must not cost the
    /// other 29 results.
    pub fn run(&self, systems: &[System]) -> Vec<Result<SimReport, SimError>> {
        parallel_sweep_with(self.jobs(), systems, |sys| {
            Simulator::with_config_cached(sys, self.config.clone(), Some(&self.cache))?
                .run_to_quiescence()
        })
    }

    /// Simulates every `(refined system, bus metadata)` pair with
    /// tracing forced on and runs the bus analyzer over each in-memory
    /// trace, fanning out like [`BatchRunner::run`].
    ///
    /// The trace never touches disk: the simulator records events in
    /// memory and [`ifsyn_analyze::analyze_report`] consumes them
    /// directly — the same events the VCD writer would serialize, minus
    /// the round-trip through text. Tracing is enabled on top of the
    /// configured [`SimConfig`], so callers only need
    /// [`SimConfig::with_max_trace_events`] when the default event cap
    /// is too small for their workload.
    pub fn run_analyzed(&self, jobs: &[(System, BusMeta)]) -> Vec<Result<BusAnalysis, String>> {
        parallel_sweep_with(self.jobs(), jobs, |(sys, meta)| {
            let config = self.config.clone().with_trace();
            let report = Simulator::with_config_cached(sys, config, Some(&self.cache))
                .map_err(|e| e.to_string())?
                .run_to_quiescence()
                .map_err(|e| e.to_string())?;
            analyze_report(sys, &report, meta).map_err(|e| e.to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind};
    use ifsyn_systems::flc;

    fn refined_flc(width: u32) -> System {
        let f = flc::flc();
        let design = BusDesign::with_width(f.bus_channels(), width, ProtocolKind::FullHandshake);
        ProtocolGenerator::new()
            .refine(&f.system, &design)
            .expect("flc refinement")
            .system
    }

    #[test]
    fn batch_matches_individual_runs() {
        let systems: Vec<System> = [4u32, 8, 16].iter().map(|&w| refined_flc(w)).collect();
        let batch = BatchRunner::new().with_jobs(2).run(&systems);
        for (sys, got) in systems.iter().zip(&batch) {
            let alone = Simulator::new(sys)
                .expect("setup")
                .run_to_quiescence()
                .expect("sim");
            let got = got.as_ref().expect("batch sim");
            assert_eq!(got.time(), alone.time());
            assert_eq!(got.total_instrs(), alone.total_instrs());
            assert_eq!(got.total_deltas(), alone.total_deltas());
        }
    }

    #[test]
    fn cache_is_shared_across_runs() {
        let systems: Vec<System> = vec![refined_flc(8), refined_flc(8)];
        let runner = BatchRunner::new().with_jobs(1);
        let first = runner.run(&systems[..1]);
        assert!(first[0].is_ok());
        let after_one = runner.cached_blocks();
        assert!(after_one > 0, "first run must populate the cache");
        let second = runner.run(&systems[1..]);
        assert!(second[0].is_ok());
        // An identical system compiles no new blocks.
        assert_eq!(runner.cached_blocks(), after_one);
    }

    #[test]
    fn cache_shares_width_independent_blocks_across_widths() {
        // The per-block cache key hashes only the types a block
        // references, so the application behaviors (which never name the
        // bus signals) compile once for the whole width sweep.
        let runner = BatchRunner::new().with_jobs(1);
        runner.run(&[refined_flc(4)]).remove(0).expect("width 4");
        let one_width = runner.cached_blocks();
        runner.run(&[refined_flc(8)]).remove(0).expect("width 8");
        let two_widths = runner.cached_blocks();
        assert!(
            two_widths < 2 * one_width,
            "expected cross-width sharing: {one_width} blocks for one \
             width, {two_widths} after two"
        );
    }

    #[test]
    fn jobs_zero_resolves_to_at_least_one() {
        assert!(BatchRunner::new().jobs() >= 1);
        assert_eq!(BatchRunner::new().with_jobs(3).jobs(), 3);
    }

    #[test]
    fn jobs_and_sim_threads_share_one_budget() {
        // Explicit jobs are honored verbatim.
        let pinned = BatchRunner::new().with_jobs(2).with_sim_threads(3);
        assert_eq!(pinned.jobs(), 2);
        assert_eq!(pinned.sim_threads(), 3);
        // Automatic jobs divide the sweep budget: a per-sim thread count
        // at least the whole budget leaves exactly one batch worker.
        let budget = crate::sweep::sweep_threads();
        let auto = BatchRunner::new().with_sim_threads(budget * 2);
        assert_eq!(auto.jobs(), 1);
    }

    #[test]
    fn batch_with_sim_threads_matches_scalar_batch() {
        let systems: Vec<System> = [4u32, 8, 16].iter().map(|&w| refined_flc(w)).collect();
        let scalar = BatchRunner::new().with_jobs(1).run(&systems);
        let parallel = BatchRunner::new()
            .with_jobs(1)
            .with_sim_threads(4)
            .run(&systems);
        for (a, b) in scalar.iter().zip(&parallel) {
            assert_eq!(
                a.as_ref().expect("scalar"),
                b.as_ref().expect("parallel"),
                "sharded simulation diverged inside the batch runner"
            );
        }
    }

    #[test]
    fn run_analyzed_analyzes_in_memory_without_vcd() {
        let f = flc::flc();
        let widths = [4u32, 8];
        let jobs: Vec<(System, BusMeta)> = widths
            .iter()
            .map(|&w| {
                let design =
                    BusDesign::with_width(f.bus_channels(), w, ProtocolKind::FullHandshake);
                let refined = ProtocolGenerator::new()
                    .refine(&f.system, &design)
                    .expect("flc refinement");
                let meta = BusMeta::from_refined(&refined);
                (refined.system, meta)
            })
            .collect();
        let runner = BatchRunner::new()
            .with_jobs(2)
            .with_config(SimConfig::new().with_max_trace_events(2_000_000));
        let results = runner.run_analyzed(&jobs);
        for (r, &width) in results.iter().zip(&widths) {
            let a = r.as_ref().expect("analysis");
            assert_eq!(a.width, width);
            assert_eq!(a.channels.len(), 2);
            assert!(a.words > 0);
            assert!(a.utilization > 0.0 && a.utilization <= 1.0);
        }
    }

    #[test]
    fn failures_stay_in_place() {
        use ifsyn_spec::{dsl::*, Ty};
        let mut bad = System::new("bad");
        let m = bad.add_module("chip");
        let b = bad.add_behavior("P", m);
        let x = bad.add_variable(
            "x",
            Ty::Array {
                elem: Box::new(Ty::Int(8)),
                len: 4,
            },
            b,
        );
        // Out-of-bounds element write: fails at runtime, not at setup.
        bad.behavior_mut(b).body = vec![assign(index(var(x), int_const(9, 8)), int_const(1, 8))];
        let good = refined_flc(4);
        let results = BatchRunner::new().with_jobs(2).run(&[good, bad]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }
}
