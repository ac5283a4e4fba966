//! `check_big`: one exhaustive exploration of the cost-carrying synthetic
//! field, plus its terminal-delivery property.
//!
//! Explore, commit and intern dominate: the graph is deep (1,256,402
//! states) with a peak frontier of 822. Every quiescent state must show
//! the consumer sums of a reference simulation of the same field, and the
//! exploration must finish within its state budget.

use ifsyn_sim::{CheckConfig, Simulator};
use ifsyn_spec::System;
use ifsyn_systems::synth::{synth_system, SynthConfig};

use crate::data::{apply_initial, draw_initial, fingerprint};
use crate::explore::{exploration, finish_counts};
use crate::field_sim::accumulators;
use crate::harness::{PassOut, Workload};
use crate::trace::Tracer;

/// State budget of the exploration; reaching it is a failure.
pub const MAX_STATES: usize = 1 << 21;

/// Two couples, 16 rounds of 64 compute steps that each cost a cycle,
/// so every step is a distinct time-abstracted checker state. The
/// compute variables are unobserved, so partial-order reduction may
/// treat them as private. The structure seed is the generator's default;
/// the benchmark seed draws the producers' initial accumulators.
pub fn big_config() -> SynthConfig {
    SynthConfig::new()
        .with_couples(2)
        .with_rounds(16)
        .with_compute(64)
        .with_compute_cost(1)
        .without_conflicts()
}

pub struct CheckBig {
    threads: usize,
}

impl CheckBig {
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }
}

pub struct BigInput {
    system: System,
    /// Final consumer sums of the reference simulation.
    sums: Vec<(String, i64)>,
}

impl Workload for CheckBig {
    type Input = BigInput;

    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&mut self, seed: u64) -> Result<BigInput, String> {
        let cfg = big_config();
        let mut system = synth_system(&cfg).system;
        let data = draw_initial(&system, &accumulators(cfg.couples), seed);
        apply_initial(&mut system, &data);
        let reference = Simulator::new(&system)
            .and_then(Simulator::run_to_quiescence)
            .map_err(|e| format!("reference simulation: {e}"))?;
        let sums = (0..cfg.couples)
            .map(|i| {
                let name = format!("c{i}_sum");
                let v = reference
                    .final_variable_by_name(&name)
                    .and_then(|v| v.as_i64().ok())
                    .ok_or_else(|| format!("reference lacks `{name}`"))?;
                Ok((name, v))
            })
            .collect::<Result<_, String>>()?;
        Ok(BigInput { system, sums })
    }

    fn pass(&mut self, input: &BigInput, tr: &mut Tracer, fp: bool) -> PassOut {
        let mut out = PassOut::default();
        let config = CheckConfig::new()
            .with_check_threads(self.threads)
            .with_max_states(MAX_STATES)
            .with_observed_variables(vec![]);
        let result = exploration(&input.system, config, 0, tr, &mut out, |ss| {
            let rep = ss.check_terminal("delivers_all_sums", |v| {
                v.all_done()
                    && input.sums.iter().all(|(name, want)| {
                        v.variable(name).and_then(|x| x.as_i64().ok()) == Some(*want)
                    })
            });
            (rep.holds, ss.bounded().is_none(), ss.state_count())
        });
        match result {
            Ok((holds, complete, states)) => out
                .check(holds && complete && states <= MAX_STATES, || {
                    format!("delivery holds: {holds}, complete: {complete}, states: {states}")
                }),
            Err(e) => out.check(false, || e),
        }
        let tag = format!("check_threads={}", self.threads);
        out.fingerprint(fp, || fingerprint(&input.system, &tag));
        finish_counts(&mut out);
        out
    }
}
