//! `check_catalog`: the robustness catalog of many small explorations.
//!
//! fig3 at width 8 and the two-access reduced FLC at width 16, under three
//! fault environments (none, `B_DONE` stuck low, one flip of `B_DATA`
//! bit 2) and the plain, hardened and protected protocols: 15
//! explorations and 35 verdicts per pass, 5 of them known
//! counterexamples. Checker construction, property checks and
//! counterexample replay take a larger share here than on `check_big`.
//!
//! The catalog's structure is fixed; the seed draws the data the
//! transfers carry, so each pass explores distinct systems while the
//! verdict matrix stays pinned.

use ifsyn_core::{BusDesign, ProtocolGenerator, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CheckConfig, EnvFault, Simulator, StateSpace, StateView};
use ifsyn_spec::{System, Value};
use ifsyn_systems::{fig3, flc};

use crate::data::{apply_initial, draw_initial, fingerprint};
use crate::explore::{exploration, finish_counts};
use crate::harness::{PassOut, Workload};
use crate::trace::Tracer;

/// Known counterexamples per pass: the stuck-`B_DONE` deadlock of plain
/// fig3 and plain FLC, and the silent data corruption of plain and
/// hardened fig3 and plain FLC.
const KNOWN_COUNTEREXAMPLES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    Hardened,
    Protected,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Hardened => "hardened",
            Variant::Protected => "protected",
        }
    }

    /// Hardening: a 16-cycle watchdog with 3 retries; protection adds
    /// integrity check words.
    fn generator(self) -> ProtocolGenerator {
        let g = ProtocolGenerator::new();
        match self {
            Variant::Plain => g,
            Variant::Hardened => g.with_timeout(16).with_retry_limit(3),
            Variant::Protected => g.with_timeout(16).with_retry_limit(3).with_integrity(),
        }
    }
}

fn scenarios() -> [(&'static str, Vec<EnvFault>); 3] {
    [
        ("none", vec![]),
        (
            "done_stuck_low",
            vec![EnvFault::StuckLow {
                signal: "B_DONE".to_string(),
            }],
        ),
        (
            "data_flip",
            vec![EnvFault::FlipBit {
                signal: "B_DATA".to_string(),
                bit: 2,
                budget: 1,
            }],
        ),
    ]
}

/// The pinned verdict of a property under a scenario and variant.
fn expected(property: &str, scenario: &str, variant: Variant) -> bool {
    match (property, scenario) {
        ("delivers_or_flags", "done_stuck_low") => variant != Variant::Plain,
        ("delivers_or_flags", "data_flip") => variant == Variant::Protected,
        _ => true,
    }
}

/// One refined system of the catalog, with the memory values every
/// delivering terminal state must hold.
pub struct Case {
    system: &'static str,
    variant: Variant,
    refined: RefinedSystem,
    memories: Vec<(String, Value)>,
}

pub struct CheckCatalog {
    threads: usize,
}

impl CheckCatalog {
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }
}

/// Seeds the named data of `base`, simulates it as the reference, and
/// refines it under each variant.
fn cases(
    label: &'static str,
    mut base: System,
    design: &BusDesign,
    seeded: &[&str],
    checked: &[&str],
    variants: &[Variant],
    seed: u64,
) -> Result<Vec<Case>, String> {
    let seeded: Vec<String> = seeded.iter().map(|s| s.to_string()).collect();
    let data = draw_initial(&base, &seeded, seed);
    apply_initial(&mut base, &data);
    let reference = Simulator::new(&base)
        .and_then(Simulator::run_to_quiescence)
        .map_err(|e| format!("{label}: reference simulation: {e}"))?;
    let memories: Vec<(String, Value)> = checked
        .iter()
        .map(|&n| {
            let v = reference.final_variable_by_name(n).cloned();
            v.map(|v| (n.to_string(), v))
                .ok_or_else(|| format!("{label}: reference lacks `{n}`"))
        })
        .collect::<Result<_, _>>()?;
    variants
        .iter()
        .map(|&variant| {
            let refined = variant
                .generator()
                .refine(&base, design)
                .map_err(|e| format!("{label} {}: {e}", variant.name()))?;
            Ok(Case {
                system: label,
                variant,
                refined,
                memories: memories.clone(),
            })
        })
        .collect()
}

/// Checks the catalog's properties over one state space. Returns
/// `(property, holds, rendered counterexample)` per verdict.
fn properties(
    ss: &StateSpace<'_>,
    case: &Case,
    scenario: &str,
) -> Vec<(&'static str, bool, String)> {
    let rs = &case.refined;
    let name = |s| rs.system.signal(s).name.clone();
    let mut verdicts = Vec::new();
    let render =
        |c: Option<ifsyn_sim::Counterexample>| c.map(|c| c.to_string()).unwrap_or_default();
    let arbiter = rs.bus.arbiter.as_ref();
    if let Some(arb) = arbiter {
        let gnts: Vec<String> = arb.gnt.iter().map(|&g| name(g)).collect();
        let rep = ss.check_invariant("gnt_mutex", |v| {
            gnts.iter().filter(|n| v.signal_high(n)).count() <= 1
        });
        verdicts.push(("gnt_mutex", rep.holds, render(rep.counterexample)));
    }
    let flags: Vec<String> = rs.bus.status_flags.iter().map(|&(_, s)| name(s)).collect();
    let delivered = |v: &StateView<'_>| {
        v.all_done()
            && case
                .memories
                .iter()
                .all(|(n, want)| v.variable(n) == Some(want))
    };
    let rep = ss.check_terminal("delivers_or_flags", |v| {
        delivered(v) || flags.iter().any(|n| v.signal_high(n))
    });
    verdicts.push(("delivers_or_flags", rep.holds, render(rep.counterexample)));
    if let (Some(arb), "none") = (arbiter, scenario) {
        let mut holds = true;
        let mut detail = String::new();
        for (&rq, &gn) in arb.req.iter().zip(&arb.gnt) {
            let (rq, gn) = (name(rq), name(gn));
            let rep = ss.check_leads_to(
                "eventual_grant",
                |v| v.signal_high(&rq) && !v.signal_high(&gn),
                |v| v.signal_high(&gn),
            );
            if !rep.holds {
                holds = false;
                detail = render(rep.counterexample);
                break;
            }
        }
        verdicts.push(("eventual_grant", holds, detail));
    }
    verdicts
}

impl Workload for CheckCatalog {
    type Input = Vec<Case>;

    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&mut self, seed: u64) -> Result<Vec<Case>, String> {
        let f = fig3::fig3();
        let fig3_design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
        let r = flc::flc_reduced(2);
        let flc_design = BusDesign::with_width(r.channels(), 16, ProtocolKind::FullHandshake);
        let mut all = cases(
            "fig3@8",
            f.system,
            &fig3_design,
            &["X", "MEM", "COUNT"],
            &["X", "MEM"],
            &[Variant::Plain, Variant::Hardened, Variant::Protected],
            seed,
        )?;
        all.extend(cases(
            "flcr2@16",
            r.system,
            &flc_design,
            &["trru0", "trru2"],
            &["trru0", "trru2", "conv_acc"],
            &[Variant::Plain, Variant::Protected],
            seed ^ 1,
        )?);
        Ok(all)
    }

    fn pass(&mut self, cases: &Vec<Case>, tr: &mut Tracer, fp: bool) -> PassOut {
        let mut out = PassOut::default();
        let mut counterexamples = 0;
        for (si, (scenario, faults)) in scenarios().into_iter().enumerate() {
            for (ci, case) in cases.iter().enumerate() {
                let item = (si * cases.len() + ci) as u64;
                let mut config = CheckConfig::new().with_check_threads(self.threads);
                for f in &faults {
                    config = config.with_fault(f.clone());
                }
                let label = format!("{} {scenario} {}", case.system, case.variant.name());
                let result = exploration(&case.refined.system, config, item, tr, &mut out, |ss| {
                    properties(ss, case, scenario)
                });
                match result {
                    Ok(verdicts) => {
                        for (property, holds, detail) in verdicts {
                            let want = expected(property, scenario, case.variant);
                            out.check(holds == want, || {
                                format!("{label} {property}: holds={holds}, expected {want}")
                            });
                            if !holds {
                                counterexamples += 1;
                                out.check(!detail.is_empty(), || {
                                    format!("{label} {property}: no counterexample")
                                });
                            }
                        }
                    }
                    Err(e) => out.check(false, || format!("{label}: {e}")),
                }
                let tag = format!("check_threads={} faults={faults:?}", self.threads);
                out.fingerprint(fp, || fingerprint(&case.refined.system, &tag));
            }
        }
        out.check(counterexamples == KNOWN_COUNTEREXAMPLES, || {
            format!("{counterexamples} counterexamples, expected {KNOWN_COUNTEREXAMPLES}")
        });
        finish_counts(&mut out);
        out
    }
}
