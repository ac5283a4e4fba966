//! `spec_sweep`: the designer's width-exploration loop on one thread.
//!
//! Each pass parses every bundled `specs/*.ifs`, derives channels where
//! a spec declares none, runs the bus generator's width exploration,
//! then refines every width 1..=32 under four protocols and simulates
//! each design point once on the scalar kernel, sharing one code cache
//! per spec. Every design point's final memories must equal those of the
//! unrefined spec simulated on the same data.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CodeCache, SimConfig, SimReport, Simulator};
use ifsyn_spec::{ChannelId, System, Value};

use crate::data::{apply_initial, draw_initial, fingerprint};
use crate::harness::{PassOut, Workload};
use crate::trace::Tracer;

/// Bus widths refined per spec and protocol.
const WIDTHS: std::ops::RangeInclusive<u32> = 1..=32;

/// The protocols of the sweep: full handshake, fixed delay 2, full
/// handshake with a 16-cycle watchdog and 3 retries, and full handshake
/// with integrity check words. (Half handshake is illegal for the specs'
/// read channels.)
const PROTOCOLS: [&str; 4] = ["full", "fixed:2", "full+timeout", "full+integrity"];

fn protocol(name: &str) -> (ProtocolKind, ProtocolGenerator) {
    let g = ProtocolGenerator::new();
    match name {
        "full" => (ProtocolKind::FullHandshake, g),
        "fixed:2" => (ProtocolKind::FixedDelay { cycles: 2 }, g),
        "full+timeout" => (
            ProtocolKind::FullHandshake,
            g.with_timeout(16).with_retry_limit(3),
        ),
        "full+integrity" => (ProtocolKind::FullHandshake, g.with_integrity()),
        other => unreachable!("unknown sweep protocol `{other}`"),
    }
}

/// One spec with its data variant and the unrefined spec's results.
#[derive(Debug)]
pub struct SpecCase {
    name: String,
    source: String,
    /// Seeded initial values of the memories (the channel variables).
    data: Vec<(String, Value)>,
    /// Final memory values of the unrefined spec on that data.
    golden: Vec<(String, Value)>,
}

pub struct SpecSweep {
    specs: PathBuf,
}

impl SpecSweep {
    pub fn new(root: &Path) -> Self {
        Self {
            specs: root.join("specs"),
        }
    }

    fn spec_files(&self) -> Result<Vec<PathBuf>, String> {
        let dir = std::fs::read_dir(&self.specs)
            .map_err(|e| format!("cannot list {}: {e}", self.specs.display()))?;
        let mut files: Vec<PathBuf> = dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ifs"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no .ifs specs in {}", self.specs.display()));
        }
        Ok(files)
    }
}

/// The spec with channels: as written, or derived by the partitioner
/// when it declares none.
fn channelized(system: &System) -> Result<(System, Vec<ChannelId>), String> {
    if system.channels.is_empty() {
        let p = ifsyn_partition::Partitioner::new()
            .partition(system)
            .map_err(|e| e.to_string())?;
        Ok((p.system, p.channels))
    } else {
        Ok((system.clone(), system.channel_ids().collect()))
    }
}

impl Workload for SpecSweep {
    type Input = Vec<SpecCase>;

    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, seed: u64) -> Result<Vec<SpecCase>, String> {
        let mut cases = Vec::new();
        for (i, path) in self.spec_files()?.into_iter().enumerate() {
            let name = path
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let mut system =
                ifsyn_lang::parse_system(&source).map_err(|e| format!("{name}: {e}"))?;
            let (chan, channels) = channelized(&system).map_err(|e| format!("{name}: {e}"))?;
            let mut memories: Vec<String> = Vec::new();
            for &c in &channels {
                let var = &chan.variable(chan.channel(c).variable).name;
                if !memories.contains(var) {
                    memories.push(var.clone());
                }
            }
            let data = draw_initial(&system, &memories, seed ^ i as u64);
            apply_initial(&mut system, &data);
            let report = Simulator::new(&system)
                .and_then(Simulator::run_to_quiescence)
                .map_err(|e| format!("{name}: reference simulation: {e}"))?;
            let golden = memories
                .iter()
                .map(|m| {
                    let v = report.final_variable_by_name(m).cloned();
                    v.map(|v| (m.clone(), v))
                        .ok_or_else(|| format!("{name}: memory `{m}` missing"))
                })
                .collect::<Result<_, _>>()?;
            cases.push(SpecCase {
                name,
                source,
                data,
                golden,
            });
        }
        Ok(cases)
    }

    fn pass(&mut self, cases: &Vec<SpecCase>, tr: &mut Tracer, fp: bool) -> PassOut {
        let mut out = PassOut::default();
        let points_per_spec = (PROTOCOLS.len() * WIDTHS.count()) as u64;
        for (si, case) in cases.iter().enumerate() {
            let si = si as u64;
            let front = front_end(case, si, tr, &mut out);
            let (system, channels) = match front {
                Ok(f) => f,
                Err(e) => {
                    for _ in 0..points_per_spec {
                        out.check(false, || format!("{}: {e}", case.name));
                    }
                    continue;
                }
            };
            let cache = CodeCache::new();
            for (pi, &proto) in PROTOCOLS.iter().enumerate() {
                let (kind, generator) = protocol(proto);
                for width in WIDTHS {
                    let item = si * points_per_spec
                        + (pi as u64) * u64::from(*WIDTHS.end())
                        + u64::from(width - 1);
                    let t0 = Instant::now();
                    let open = tr.begin("bench.design", item);
                    let design = BusDesign::with_width(channels.clone(), width, kind);
                    let point =
                        design_point(&system, &design, &generator, &cache, item, tr, &mut out);
                    tr.end(open);
                    out.ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match point {
                        Ok((refined, report)) => {
                            let ok = case.golden.iter().all(|(name, want)| {
                                report.final_variable_by_name(name) == Some(want)
                            });
                            out.check(ok, || {
                                format!("{} {proto} w{width}: memories differ", case.name)
                            });
                            out.fingerprint(fp, || fingerprint(&refined.system, "scalar"));
                        }
                        Err(e) => {
                            out.check(false, || format!("{} {proto} w{width}: {e}", case.name))
                        }
                    }
                }
            }
            out.counts.add("sim.blocks_compiled", cache.len() as f64);
        }
        let requested = out.counts.get("sim.blocks_requested");
        if requested > 0.0 {
            let hits = 1.0 - out.counts.get("sim.blocks_compiled") / requested;
            out.counts.set("sim.cache_hit_ratio", hits);
        }
        out.work = out.counts.get("sim.instrs");
        out
    }
}

/// Parse, data, channel derivation and width exploration of one spec.
fn front_end(
    case: &SpecCase,
    si: u64,
    tr: &mut Tracer,
    out: &mut PassOut,
) -> Result<(System, Vec<ChannelId>), String> {
    let mut system = tr
        .span("lang.parse", si, || ifsyn_lang::parse_system(&case.source))
        .map_err(|e| e.to_string())?;
    out.counts.add("lang.bytes", case.source.len() as f64);
    apply_initial(&mut system, &case.data);
    let (system, channels) = if system.channels.is_empty() {
        tr.span("partition.derive", si, || channelized(&system))?
    } else {
        let channels = system.channel_ids().collect();
        (system, channels)
    };
    out.counts.add("partition.channels", channels.len() as f64);
    let exploration = tr
        .span("core.busgen", si, || {
            ifsyn_core::BusGenerator::new().explore(&system, &channels)
        })
        .map_err(|e| e.to_string())?;
    out.counts
        .add("core.busgen_rows", exploration.rows.len() as f64);
    Ok((system, channels))
}

/// Refines, compiles and simulates one design point.
fn design_point(
    system: &System,
    design: &BusDesign,
    generator: &ProtocolGenerator,
    cache: &CodeCache,
    item: u64,
    tr: &mut Tracer,
    out: &mut PassOut,
) -> Result<(RefinedSystem, SimReport), String> {
    let refined = tr
        .span("core.refine", item, || generator.refine(system, design))
        .map_err(|e| e.to_string())?;
    let rs = &refined.system;
    out.counts.add("core.refines", 1.0);
    out.counts
        .add("core.refined_behaviors", rs.behaviors.len() as f64);
    out.counts
        .add("core.refined_procedures", rs.procedures.len() as f64);
    out.counts
        .add("core.refined_signals", rs.signals.len() as f64);
    out.counts.add(
        "sim.blocks_requested",
        (rs.behaviors.len() + rs.procedures.len()) as f64,
    );
    let sim = tr
        .span("sim.compile", item, || {
            Simulator::with_config_cached(rs, SimConfig::new(), Some(cache))
        })
        .map_err(|e| e.to_string())?;
    let report = tr
        .span("sim.run", item, || sim.run_to_quiescence())
        .map_err(|e| e.to_string())?;
    crate::record_report(&mut out.counts, &report);
    Ok((refined, report))
}
