//! The measurement loop shared by every workload.
//!
//! A run alternates set-up and timed passes until its time budget is
//! spent. Pass `k` works on data variant `k` of the run's seed, so no
//! pass repeats another's inputs. In a traced run even passes are traced
//! and odd passes are not; end-to-end figures come from untraced passes
//! only, and the ratio of the two kinds of pass is the tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::data::variant_seed;
use crate::stats::peak_rss_bytes;
use crate::trace::{layer_times, Span, Tracer};

/// Set-ups timed per run at the least, so `setup_s` is a median of many
/// samples even for workloads whose passes are long.
const MIN_SETUPS: usize = 21;

/// Per-layer counters of one pass, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

/// What one timed pass did.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Latency of each operation (design point, simulation, exploration),
    /// in milliseconds.
    pub ops_ms: Vec<f64>,
    /// Work units done: simulated instructions or distinct checker states.
    pub work: f64,
    /// Checked outcomes, and how many of them were wrong or errors.
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, for the first few failures.
    pub errors: Vec<String>,
    pub counts: Counts,
    /// Fingerprints of every simulation and exploration input; filled
    /// only when asked for.
    pub inputs: Vec<u64>,
    /// Time spent fingerprinting inside the pass, excluded from its wall
    /// time.
    pub excluded: Duration,
}

impl PassOut {
    /// Order-independent digest of the pass's input fingerprints.
    pub fn inputs_digest(&self) -> u64 {
        self.inputs.iter().fold(0, |d, &fp| d.wrapping_add(fp))
    }

    /// Counts one checked outcome.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Records an input fingerprint when fingerprinting is on, keeping
    /// its cost out of the pass's wall time.
    pub fn fingerprint(&mut self, on: bool, f: impl FnOnce() -> u64) {
        if on {
            let t = Instant::now();
            self.inputs.push(f());
            self.excluded += t.elapsed();
        }
    }
}

/// One workload: a set-up that builds a pass's inputs and reference
/// results, and a timed pass over them.
pub trait Workload {
    type Input;

    /// Worker threads the workload's layers run with.
    fn threads(&self) -> usize;

    /// Builds the inputs of the pass for data variant `seed`.
    fn setup(&mut self, seed: u64) -> Result<Self::Input, String>;

    /// Runs one pass; fingerprints inputs when `fingerprint` is set.
    fn pass(&mut self, input: &Self::Input, tr: &mut Tracer, fingerprint: bool) -> PassOut;
}

/// One pass as the run recorded it.
#[derive(Debug)]
pub struct PassRecord {
    pub traced: bool,
    pub wall_s: f64,
    pub out: PassOut,
    pub spans: Vec<Span>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub passes: Vec<PassRecord>,
    pub peak_rss_bytes: u64,
    /// Inputs that occurred more than once in the run (traced runs only).
    pub duplicate_inputs: usize,
}

impl Run {
    pub fn untraced(&self) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(|p| !p.traced)
    }

    pub fn traced(&self) -> impl Iterator<Item = &PassRecord> {
        self.passes.iter().filter(|p| p.traced)
    }

    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.out.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.out.failed).sum()
    }

    /// Per-layer (total, self) seconds of each traced pass.
    pub fn layer_times(&self) -> Vec<BTreeMap<&'static str, (f64, f64)>> {
        self.traced().map(|p| layer_times(&p.spans)).collect()
    }
}

/// Runs `w` for `seconds` of passes (at least one, and in a traced run at
/// least one of each kind).
pub fn drive<W: Workload>(w: &mut W, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut setup_s = Vec::new();
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut k = 0u64;
    loop {
        let traced = trace && k.is_multiple_of(2);
        let t = Instant::now();
        let input = w.setup(variant_seed(seed, k))?;
        setup_s.push(t.elapsed().as_secs_f64());

        let mut tr = Tracer::new(traced);
        let t = Instant::now();
        let root = tr.begin("bench.pass", k);
        let out = w.pass(&input, &mut tr, trace);
        tr.end(root);
        let wall = t.elapsed().saturating_sub(out.excluded);
        passes.push(PassRecord {
            traced,
            wall_s: wall.as_secs_f64(),
            out,
            spans: tr.into_spans(),
        });
        drop(input);
        k += 1;
        let both_kinds = !trace || k >= 2;
        if start.elapsed() >= budget && both_kinds {
            break;
        }
    }
    // Extra set-ups (inputs built and dropped) until the median has
    // enough samples.
    while setup_s.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(w.setup(variant_seed(seed, k))?);
        setup_s.push(t.elapsed().as_secs_f64());
        k += 1;
    }
    let peak_rss_bytes = peak_rss_bytes();

    let mut seen = BTreeSet::new();
    let duplicate_inputs = passes
        .iter()
        .flat_map(|p| &p.out.inputs)
        .filter(|&&fp| !seen.insert(fp))
        .count();
    Ok(Run {
        setup_s,
        passes,
        peak_rss_bytes,
        duplicate_inputs,
    })
}
