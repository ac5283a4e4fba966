//! Model-checking campaign: exhaustive verification of refined protocols.
//!
//! The fault campaign (`faults.rs`) runs one deterministic schedule per
//! scenario; this campaign runs the explicit-state checker
//! ([`ifsyn_sim::Checker`]) over the *whole* schedule space of the same
//! refined systems, under a nondeterministic fault environment that may
//! strike at any instant. Systems: the Fig. 3 worked example at width 8
//! (every variant) and a reduced two-access FLC at width 16 (plain vs
//! protected) — the full 128-access FLC is far beyond exhaustive reach,
//! but the reduced build generates the identical protocol shape.
//!
//! Properties per exploration:
//!
//! * `gnt_mutex` — **safety invariant**: at most one arbiter grant line
//!   is high in every reachable state (bus mutual exclusion);
//! * `delivers_or_flags` — **terminal safety**: every quiescent state
//!   either has all clients finished with intact data or has a sticky
//!   `*_STAT_*` flag raised. The plain protocol is *expected to fail*
//!   this under faults — the checker produces the known deadlock and
//!   silent-corruption counterexamples — while the protected variant
//!   must pass on every schedule and strike timing;
//! * `eventual_grant` — **liveness** (fault-free runs): from every state
//!   with a request pending and not granted, some continuation grants
//!   it (`AG(REQ ∧ ¬GNT → EF GNT)`). The formulation is
//!   fairness-constrained: a violation means the goal is unreachable on
//!   every continuation, not merely missed by one unfair schedule.
//!
//! Each exploration also records the reachable-state count and the
//! worst-case cycle cost to quiescence — PR 2's analytic completion
//! bound, now measured over *all* schedules instead of one.
//!
//! Every row carries its expected verdict; [`CheckData::unexpected`]
//! reports deviations and `experiments check` exits nonzero on any.
//! Output is hand-rolled JSON (offline build, no serde) written to
//! `BENCH_check.json`.
//!
//! Every exploration also reports its dedup hits, partial-order-reduction
//! split (ample vs fully expanded states) and peak frontier, and the
//! campaign ends with a **big-system** exploration: a synthetic
//! producer/consumer field ([`ifsyn_systems::synth`]) whose compute loops
//! carry cycle costs, pushing the reachable space past a million distinct
//! states — the scale demonstration for the interned-state explorer.
//!
//! The report holds only deterministic counts and verdicts, so
//! `BENCH_check.json` regenerates byte-identical and the committed file
//! pins every state count, ample ratio and counterexample exactly.
//! Timing belongs to the benchmark in `perfbench/`.

use ifsyn_core::{BusDesign, ProtocolKind, RefinedSystem};
use ifsyn_sim::{CheckConfig, Checker, EnvFault, StateView};
use ifsyn_spec::Value;
use ifsyn_systems::synth::{synth_system, SynthConfig};
use ifsyn_systems::{fig3, flc};

use crate::emit::{json_opt, json_str};
use crate::faults::{generator, Variant};
use crate::table::Table;

/// Maximum characters of counterexample detail kept per row.
const DETAIL_CAP: usize = 600;

/// One (system, scenario, variant, property) verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    /// Which system: `"fig3@8"` or `"flcr2@16"`.
    pub system: String,
    /// Fault-environment scenario (`"none"`, `"done_stuck_low"`,
    /// `"data_flip"`).
    pub scenario: String,
    /// Protocol variant of this exploration.
    pub variant: Variant,
    /// Property name.
    pub property: String,
    /// Whether the property held over the explored space.
    pub holds: bool,
    /// The verdict this campaign expects (plain is *expected* to fail
    /// under faults; protected must not).
    pub expected: bool,
    /// Reachable states the check examined.
    pub states: usize,
    /// Counterexample trace/diagnosis for failed properties (capped).
    pub detail: Option<String>,
}

/// Exploration statistics for one (system, scenario, variant).
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceRow {
    /// Which system.
    pub system: String,
    /// Fault-environment scenario.
    pub scenario: String,
    /// Protocol variant.
    pub variant: Variant,
    /// Distinct reachable states.
    pub states: usize,
    /// Explored transitions.
    pub transitions: usize,
    /// Terminal (quiescent) states.
    pub terminals: usize,
    /// Worst-case cycle cost to quiescence over all schedules
    /// (`None` when a reachable cycle makes it unbounded).
    pub worst_cost: Option<u64>,
    /// Successor insertions that hit an already-known state.
    pub dedup_hits: u64,
    /// States expanded through a partial-order-reduced (singleton ample)
    /// successor set.
    pub ample_states: u64,
    /// States expanded with the full successor set.
    pub full_states: u64,
    /// Largest BFS level encountered.
    pub peak_frontier: usize,
}

/// The big-system scale demonstration: one exploration of the synthetic
/// producer/consumer field, sized past a million distinct states.
#[derive(Debug, Clone, PartialEq)]
pub struct BigRow {
    /// Distinct reachable states (the ≥ 1M scale witness).
    pub states: usize,
    /// Explored transitions.
    pub transitions: usize,
    /// Successor insertions that hit an already-known state.
    pub dedup_hits: u64,
    /// States expanded through a singleton ample set.
    pub ample_states: u64,
    /// States expanded fully.
    pub full_states: u64,
    /// Largest BFS level.
    pub peak_frontier: usize,
    /// Whether the terminal delivery property held (every quiescent
    /// state has all processes done with consumer sums matching the
    /// simulator's reference run).
    pub holds: bool,
    /// Exploration error, when the run failed outright.
    pub error: Option<String>,
}

/// The whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckData {
    /// One row per property verdict.
    pub rows: Vec<CheckRow>,
    /// One row per exploration.
    pub spaces: Vec<SpaceRow>,
    /// The big-system scale run.
    pub big: BigRow,
}

impl CheckData {
    /// Rows whose verdict deviates from expectation: a required property
    /// violated, or a known-broken baseline unexpectedly passing (which
    /// would mean the checker lost the counterexample). `experiments
    /// check` exits nonzero when this is nonempty.
    pub fn unexpected(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.holds != r.expected).collect()
    }

    /// Failing rows that are expected to fail: the checker's deadlock and
    /// corruption counterexamples against the plain/hardened baselines.
    pub fn known_counterexamples(&self) -> Vec<&CheckRow> {
        self.rows
            .iter()
            .filter(|r| !r.holds && !r.expected)
            .collect()
    }

    /// Whether the big-system run failed (property violated or
    /// exploration error).
    pub fn big_failed(&self) -> bool {
        !self.big.holds || self.big.error.is_some()
    }
}

/// The nondeterministic fault environments, over the shared bus `B`'s
/// wires (the checker may strike at *any* instant, unlike the fault
/// campaign's fixed injection times).
fn scenarios() -> Vec<(&'static str, Vec<EnvFault>)> {
    vec![
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

/// The expected verdict for a property under a scenario and variant.
fn expected(property: &str, scenario: &str, variant: Variant) -> bool {
    match (property, scenario) {
        // Bus mutual exclusion must survive everything the environment
        // does, on every variant.
        ("gnt_mutex", _) => true,
        // Fault-free liveness must hold on every variant.
        ("eventual_grant", _) => true,
        // Fault-free runs deliver intact data on every variant.
        ("delivers_or_flags", "none") => true,
        // A stuck DONE deadlocks the plain protocol (the known
        // counterexample); hardened/protected abort with their flag.
        ("delivers_or_flags", "done_stuck_low") => variant != Variant::Plain,
        // A data flip silently corrupts plain and hardened transfers;
        // only the protected variant detects and retransmits.
        ("delivers_or_flags", "data_flip") => variant == Variant::Protected,
        _ => true,
    }
}

fn array_elem_i64(v: &Value, i: usize) -> Option<i64> {
    match v {
        Value::Array(items) => items.get(i)?.as_i64().ok(),
        _ => None,
    }
}

fn array_sum_i64(v: &Value) -> i64 {
    match v {
        Value::Array(items) => items.iter().filter_map(|x| x.as_i64().ok()).sum(),
        other => other.as_i64().unwrap_or(0),
    }
}

/// Explores one refined system under one fault environment and checks
/// the property set, appending verdicts and exploration stats.
#[allow(clippy::too_many_arguments)] // one call site per campaign cell; a context struct would just rename the arguments
fn check_one(
    system: &str,
    scenario: &str,
    faults: &[EnvFault],
    variant: Variant,
    refined: &RefinedSystem,
    data_ok: &dyn Fn(&StateView<'_>) -> bool,
    rows: &mut Vec<CheckRow>,
    spaces: &mut Vec<SpaceRow>,
) {
    let mut config = CheckConfig::new();
    for f in faults {
        config = config.with_fault(f.clone());
    }
    // Exploration failures (state cap, runtime error) are recorded as an
    // unexpected row so the gate trips.
    let exploration_failed = |e: ifsyn_sim::SimError, rows: &mut Vec<CheckRow>| {
        rows.push(CheckRow {
            system: system.to_string(),
            scenario: scenario.to_string(),
            variant,
            property: "exploration".to_string(),
            holds: false,
            expected: true,
            states: 0,
            detail: Some(e.to_string()),
        });
    };
    let ck = match Checker::with_config(&refined.system, config) {
        Ok(ck) => ck,
        Err(e) => return exploration_failed(e, rows),
    };
    let ss = match ck.explore() {
        Ok(ss) => ss,
        Err(e) => return exploration_failed(e, rows),
    };
    let (states, transitions, terminals, worst) = (
        ss.state_count(),
        ss.transition_count(),
        ss.terminal_count(),
        ss.worst_cost_to_quiescence(),
    );
    let st = ss.stats();
    spaces.push(SpaceRow {
        system: system.to_string(),
        scenario: scenario.to_string(),
        variant,
        states,
        transitions,
        terminals,
        worst_cost: worst,
        dedup_hits: st.dedup_hits,
        ample_states: st.ample_states,
        full_states: st.full_states,
        peak_frontier: st.peak_frontier,
    });
    let mut push = |property: &str, holds: bool, detail: Option<String>| {
        rows.push(CheckRow {
            system: system.to_string(),
            scenario: scenario.to_string(),
            variant,
            property: property.to_string(),
            holds,
            expected: expected(property, scenario, variant),
            states,
            detail: detail.map(|d| {
                if d.len() > DETAIL_CAP {
                    let cut = d
                        .char_indices()
                        .take_while(|&(i, _)| i < DETAIL_CAP)
                        .last()
                        .map_or(0, |(i, c)| i + c.len_utf8());
                    format!("{}…", &d[..cut])
                } else {
                    d
                }
            }),
        });
    };

    // gnt_mutex: at most one arbiter grant high, in every state.
    if let Some(arb) = &refined.bus.arbiter {
        let gnt_names: Vec<String> = arb
            .gnt
            .iter()
            .map(|&g| refined.system.signal(g).name.clone())
            .collect();
        let rep = ss.check_invariant("gnt_mutex", |v| {
            gnt_names.iter().filter(|n| v.signal_high(n)).count() <= 1
        });
        push(
            "gnt_mutex",
            rep.holds,
            rep.counterexample.map(|c| c.to_string()),
        );
    }

    // delivers_or_flags: every quiescent state delivered intact data or
    // raised a sticky abort flag.
    let flag_names: Vec<String> = refined
        .bus
        .status_flags
        .iter()
        .map(|&(_, sig)| refined.system.signal(sig).name.clone())
        .collect();
    let rep = ss.check_terminal("delivers_or_flags", |v| {
        (v.all_done() && data_ok(v)) || flag_names.iter().any(|n| v.signal_high(n))
    });
    push(
        "delivers_or_flags",
        rep.holds,
        rep.counterexample.map(|c| c.to_string()),
    );

    // eventual_grant (fault-free only): every pending request is
    // eventually granted, per arbiter client.
    if scenario == "none" {
        if let Some(arb) = &refined.bus.arbiter {
            let mut holds = true;
            let mut detail = None;
            for (&rq, &gn) in arb.req.iter().zip(&arb.gnt) {
                let rq_name = refined.system.signal(rq).name.clone();
                let gn_name = refined.system.signal(gn).name.clone();
                let rep = ss.check_leads_to(
                    "eventual_grant",
                    |v| v.signal_high(&rq_name) && !v.signal_high(&gn_name),
                    |v| v.signal_high(&gn_name),
                );
                if !rep.holds {
                    holds = false;
                    detail = rep
                        .counterexample
                        .map(|c| format!("request `{rq_name}`:\n{c}"));
                    break;
                }
            }
            push("eventual_grant", holds, detail);
        }
    }
}

/// Runs the campaign: scenarios × variants over fig3@8 and the reduced
/// FLC at width 16, then the big-system scale demonstration.
pub fn run() -> CheckData {
    let mut rows = Vec::new();
    let mut spaces = Vec::new();
    for (scenario, faults) in scenarios() {
        for variant in Variant::ALL {
            let f = fig3::fig3();
            let design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
            let refined = generator(variant)
                .refine(&f.system, &design)
                .expect("fig3 check refinement");
            let x = f.x;
            let mem = f.mem;
            let data_ok = |v: &StateView<'_>| {
                let x_ok = v
                    .variable(&name_of_var(&refined, x))
                    .and_then(|val| val.as_i64().ok())
                    == Some(32);
                let mem_ok = v
                    .variable(&name_of_var(&refined, mem))
                    .map(|val| {
                        array_elem_i64(val, 17) == Some(39) && array_elem_i64(val, 60) == Some(1234)
                    })
                    .unwrap_or(false);
                x_ok && mem_ok
            };
            check_one(
                "fig3@8",
                scenario,
                &faults,
                variant,
                &refined,
                &data_ok,
                &mut rows,
                &mut spaces,
            );
        }
        // Reduced FLC: plain (the unhardened baseline) vs protected (the
        // full defense); hardened adds little beyond the fig3 matrix and
        // exhaustive exploration is expensive.
        for variant in [Variant::Plain, Variant::Protected] {
            let f = flc::flc_reduced(2);
            let design = BusDesign::with_width(f.channels(), 16, ProtocolKind::FullHandshake);
            let refined = generator(variant)
                .refine(&f.system, &design)
                .expect("flc_reduced check refinement");
            let trru0 = f.trru0;
            let conv_acc = f.conv_acc;
            let trru0_sum = f.expected_trru0_sum();
            let checksum = f.expected_checksum();
            let data_ok = |v: &StateView<'_>| {
                let acc_ok = v
                    .variable(&name_of_var(&refined, conv_acc))
                    .and_then(|val| val.as_i64().ok())
                    == Some(checksum);
                let mem_ok = v
                    .variable(&name_of_var(&refined, trru0))
                    .map(|val| array_sum_i64(val) == trru0_sum)
                    .unwrap_or(false);
                acc_ok && mem_ok
            };
            check_one(
                "flcr2@16",
                scenario,
                &faults,
                variant,
                &refined,
                &data_ok,
                &mut rows,
                &mut spaces,
            );
        }
    }
    CheckData {
        rows,
        spaces,
        big: big_system(),
    }
}

/// Configuration of the big-system run: a two-couple producer/consumer
/// field whose compute loops carry a 1-cycle cost, making every
/// iteration a distinct time-abstracted checker state. Under
/// partial-order reduction this explores ~1.26M distinct states (the
/// full interleaving graph is far larger); the compute variables are
/// declared unobserved so the reducer may treat them as private.
fn big_config() -> SynthConfig {
    SynthConfig::new()
        .with_couples(2)
        .with_rounds(16)
        .with_compute(64)
        .with_compute_cost(1)
        .without_conflicts()
}

/// Explores the big synthetic system and checks terminal delivery
/// against sums computed by the reference simulator.
fn big_system() -> BigRow {
    let failed = |e: String| BigRow {
        states: 0,
        transitions: 0,
        dedup_hits: 0,
        ample_states: 0,
        full_states: 0,
        peak_frontier: 0,
        holds: false,
        error: Some(e),
    };
    let s = synth_system(&big_config());
    // Reference run: the per-couple dataflow is schedule-independent, so
    // one simulated schedule yields the sums every terminal must show.
    let reference = match ifsyn_sim::Simulator::new(&s.system).and_then(|s| s.run_to_quiescence()) {
        Ok(r) => r,
        Err(e) => return failed(format!("reference simulation failed: {e}")),
    };
    let sums: Vec<(String, i64)> = (0..s.consumers.len())
        .map(|i| {
            let name = format!("c{i}_sum");
            let v = reference
                .final_variable_by_name(&name)
                .and_then(|v| v.as_i64().ok())
                .unwrap_or(0);
            (name, v)
        })
        .collect();
    let config = CheckConfig::new()
        .with_max_states(1 << 21)
        .with_observed_variables(vec![]);
    let ck = match Checker::with_config(&s.system, config) {
        Ok(ck) => ck,
        Err(e) => return failed(e.to_string()),
    };
    let ss = match ck.explore() {
        Ok(ss) => ss,
        Err(e) => return failed(e.to_string()),
    };
    let rep = ss.check_terminal("delivers_all_sums", |v| {
        v.all_done()
            && sums
                .iter()
                .all(|(name, want)| v.variable(name).and_then(|x| x.as_i64().ok()) == Some(*want))
    });
    let st = ss.stats();
    BigRow {
        states: ss.state_count(),
        transitions: ss.transition_count(),
        dedup_hits: st.dedup_hits,
        ample_states: st.ample_states,
        full_states: st.full_states,
        peak_frontier: st.peak_frontier,
        holds: rep.holds,
        error: None,
    }
}

fn name_of_var(refined: &RefinedSystem, id: ifsyn_spec::VarId) -> String {
    refined.system.variable(id).name.clone()
}

/// Percentage of expanded states that took the reduced (ample) path.
fn ample_pct(ample: u64, full: u64) -> f64 {
    let total = ample + full;
    if total == 0 {
        0.0
    } else {
        ample as f64 * 100.0 / total as f64
    }
}

/// Renders the campaign as text.
pub fn render(data: &CheckData) -> String {
    let mut out = String::new();
    out.push_str("Model-checking campaign — exhaustive exploration of refined protocols\n\n");
    let mut t = Table::new([
        "system", "scenario", "protocol", "property", "result", "expected", "states",
    ]);
    for r in &data.rows {
        t.row([
            r.system.clone(),
            r.scenario.clone(),
            r.variant.as_str().to_string(),
            r.property.clone(),
            if r.holds { "PASS" } else { "FAIL" }.to_string(),
            if r.expected { "PASS" } else { "FAIL" }.to_string(),
            r.states.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nexploration sizes:\n");
    let mut s = Table::new([
        "system",
        "scenario",
        "protocol",
        "states",
        "transitions",
        "terminals",
        "worst cost",
        "ample%",
    ]);
    for r in &data.spaces {
        s.row([
            r.system.clone(),
            r.scenario.clone(),
            r.variant.as_str().to_string(),
            r.states.to_string(),
            r.transitions.to_string(),
            r.terminals.to_string(),
            r.worst_cost
                .map_or("unbounded".to_string(), |c| c.to_string()),
            format!("{:.1}", ample_pct(r.ample_states, r.full_states)),
        ]);
    }
    out.push_str(&s.render());
    let b = &data.big;
    match &b.error {
        Some(e) => out.push_str(&format!("\nbig-system exploration FAILED: {e}\n")),
        None => out.push_str(&format!(
            "\nbig-system exploration: {} states, {} transitions, \
             {:.1}% ample, {} dedup hit(s), peak frontier {}; \
             delivery property {}\n",
            b.states,
            b.transitions,
            ample_pct(b.ample_states, b.full_states),
            b.dedup_hits,
            b.peak_frontier,
            if b.holds { "PASS" } else { "FAIL" },
        )),
    }
    let known = data.known_counterexamples();
    out.push_str(&format!(
        "\n{} expected counterexample(s) against unprotected baselines:\n",
        known.len()
    ));
    for r in known {
        out.push_str(&format!(
            "\n{} / {} ({}) violates {}:\n",
            r.system,
            r.scenario,
            r.variant.as_str(),
            r.property
        ));
        if let Some(d) = &r.detail {
            out.push_str(d);
            out.push('\n');
        }
    }
    let bad = data.unexpected();
    if bad.is_empty() {
        out.push_str("\nall verdicts match expectation\n");
    } else {
        out.push_str(&format!(
            "\nCHECK REGRESSION: {} verdict(s) deviate from expectation\n",
            bad.len()
        ));
        for r in bad {
            out.push_str(&format!(
                "  {} / {} ({}) {}: got {}, expected {}\n",
                r.system,
                r.scenario,
                r.variant.as_str(),
                r.property,
                if r.holds { "PASS" } else { "FAIL" },
                if r.expected { "PASS" } else { "FAIL" },
            ));
            if let Some(d) = &r.detail {
                out.push_str(&format!("    {}\n", d.replace('\n', "\n    ")));
            }
        }
    }
    out
}

/// Serializes the campaign as the `BENCH_check.json` document. Schema
/// v3 holds no timings or thread counts, so the document is a pure
/// function of the code.
pub fn to_json(data: &CheckData) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ifsyn-bench-check-v3\",\n");
    out.push_str(&format!("  \"unexpected\": {},\n", data.unexpected().len()));
    out.push_str(&format!(
        "  \"known_counterexamples\": {},\n",
        data.known_counterexamples().len()
    ));
    out.push_str("  \"properties\": [\n");
    crate::emit::array_rows(&mut out, &data.rows, |r| {
        format!(
            "    {{\"system\": {}, \"scenario\": {}, \"protocol\": {}, \
             \"property\": {}, \"holds\": {}, \"expected\": {}, \"states\": {}, \
             \"detail\": {}}}",
            json_str(&r.system),
            json_str(&r.scenario),
            json_str(r.variant.as_str()),
            json_str(&r.property),
            r.holds,
            r.expected,
            r.states,
            crate::emit::json_opt_str(r.detail.as_deref()),
        )
    });
    out.push_str("  ],\n");
    out.push_str("  \"explorations\": [\n");
    crate::emit::array_rows(&mut out, &data.spaces, |r| {
        format!(
            "    {{\"system\": {}, \"scenario\": {}, \"protocol\": {}, \
             \"states\": {}, \"transitions\": {}, \"terminals\": {}, \
             \"worst_cost\": {}, \"dedup_hits\": {}, \
             \"ample_states\": {}, \"full_states\": {}, \
             \"ample_ratio\": {:.4}, \"peak_frontier\": {}}}",
            json_str(&r.system),
            json_str(&r.scenario),
            json_str(r.variant.as_str()),
            r.states,
            r.transitions,
            r.terminals,
            json_opt(r.worst_cost),
            r.dedup_hits,
            r.ample_states,
            r.full_states,
            ample_pct(r.ample_states, r.full_states) / 100.0,
            r.peak_frontier,
        )
    });
    out.push_str("  ],\n");
    let b = &data.big;
    out.push_str(&format!(
        "  \"big_system\": {{\"states\": {}, \"transitions\": {}, \
         \"dedup_hits\": {}, \"ample_states\": {}, \"full_states\": {}, \
         \"ample_ratio\": {:.4}, \"peak_frontier\": {}, \
         \"holds\": {}, \"error\": {}}}\n",
        b.states,
        b.transitions,
        b.dedup_hits,
        b.ample_states,
        b.full_states,
        ample_pct(b.ample_states, b.full_states) / 100.0,
        b.peak_frontier,
        b.holds,
        crate::emit::json_opt_str(b.error.as_deref()),
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_matrix_is_sound() {
        // Plain must be expected to fail under both fault scenarios.
        assert!(!expected(
            "delivers_or_flags",
            "done_stuck_low",
            Variant::Plain
        ));
        assert!(!expected("delivers_or_flags", "data_flip", Variant::Plain));
        assert!(!expected(
            "delivers_or_flags",
            "data_flip",
            Variant::Hardened
        ));
        // Protected must be expected to pass everywhere.
        for scenario in ["none", "done_stuck_low", "data_flip"] {
            assert!(expected("delivers_or_flags", scenario, Variant::Protected));
            assert!(expected("gnt_mutex", scenario, Variant::Protected));
        }
    }

    fn big_row() -> BigRow {
        BigRow {
            states: 1_256_402,
            transitions: 2_391_381,
            dedup_hits: 1_134_980,
            ample_states: 119_920,
            full_states: 1_136_482,
            peak_frontier: 822,
            holds: true,
            error: None,
        }
    }

    #[test]
    fn unexpected_gates_on_mismatch() {
        let row = |holds, expected| CheckRow {
            system: "fig3@8".into(),
            scenario: "none".into(),
            variant: Variant::Plain,
            property: "gnt_mutex".into(),
            holds,
            expected,
            states: 10,
            detail: None,
        };
        let data = CheckData {
            rows: vec![row(true, true), row(false, false)],
            spaces: vec![],
            big: big_row(),
        };
        assert!(data.unexpected().is_empty());
        assert_eq!(data.known_counterexamples().len(), 1);
        let data = CheckData {
            rows: vec![row(false, true)],
            spaces: vec![],
            big: big_row(),
        };
        assert_eq!(data.unexpected().len(), 1);
    }

    #[test]
    fn big_gate_trips_on_violation_or_error() {
        let ok = CheckData {
            rows: vec![],
            spaces: vec![],
            big: big_row(),
        };
        assert!(!ok.big_failed());
        let mut violated = ok.clone();
        violated.big.holds = false;
        assert!(violated.big_failed());
        let mut errored = ok.clone();
        errored.big.error = Some("boom".into());
        assert!(errored.big_failed());
    }

    #[test]
    fn json_is_balanced() {
        let data = CheckData {
            rows: vec![CheckRow {
                system: "fig3@8".into(),
                scenario: "data_flip".into(),
                variant: Variant::Protected,
                property: "delivers_or_flags".into(),
                holds: true,
                expected: true,
                states: 1234,
                detail: None,
            }],
            spaces: vec![SpaceRow {
                system: "fig3@8".into(),
                scenario: "data_flip".into(),
                variant: Variant::Protected,
                states: 1234,
                transitions: 4321,
                terminals: 3,
                worst_cost: Some(99),
                dedup_hits: 55,
                ample_states: 400,
                full_states: 834,
                peak_frontier: 17,
            }],
            big: big_row(),
        };
        let json = to_json(&data);
        assert!(json.contains("\"schema\": \"ifsyn-bench-check-v3\""));
        for field in [
            "\"system\"",
            "\"scenario\"",
            "\"protocol\"",
            "\"property\"",
            "\"holds\"",
            "\"expected\"",
            "\"states\"",
            "\"detail\"",
            "\"transitions\"",
            "\"terminals\"",
            "\"worst_cost\": 99",
            "\"dedup_hits\"",
            "\"ample_ratio\"",
            "\"peak_frontier\"",
            "\"big_system\"",
        ] {
            assert!(json.contains(field), "missing field {field}");
        }
        // Nothing that depends on the machine or the run.
        for field in ["elapsed_ms", "states_per_sec", "threads", "throughput"] {
            assert!(!json.contains(field), "run-dependent field {field}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

#[cfg(test)]
mod exploration_tests {
    use super::*;

    /// Fault-free fig3 at width 8, plain protocol: every schedule the
    /// checker can produce completes with intact data. This is the
    /// regression fence for the eager-release semantics — without
    /// kernel-faithful waiter wake-up, interleaving invents a spurious
    /// missed-pulse deadlock (a server sleeping through the brief START
    /// low phase between two back-to-back bus words).
    #[test]
    fn fig3_plain_fault_free_completes_on_every_schedule() {
        let f = fig3::fig3();
        let design = BusDesign::with_width(f.channels(), 8, ProtocolKind::FullHandshake);
        let refined = generator(Variant::Plain)
            .refine(&f.system, &design)
            .expect("fig3 refinement");
        let ck = Checker::with_config(&refined.system, CheckConfig::new()).expect("checker");
        let ss = ck.explore().expect("explore");
        assert_eq!(ss.error_count(), 0);
        let rep = ss.check_terminal("all terminals finish", |v| v.all_done());
        assert!(rep.holds, "{:?}", rep.counterexample.map(|c| c.to_string()));
    }

    /// Reduced FLC, protected variant, DONE stuck at 0 at any instant:
    /// no schedule crashes (the bound guard keeps false-accepted
    /// addresses out of the arrays) and every quiescent state either
    /// delivered intact data or raised a sticky status flag. This is
    /// the regression fence for the position-weighted checksum — the
    /// salted-XOR scheme it replaced false-accepted a retry-desynced
    /// word stream here and committed a corrupt address.
    #[test]
    fn flcr2_protected_stuck_done_never_corrupts() {
        let f = flc::flc_reduced(2);
        let design = BusDesign::with_width(f.channels(), 16, ProtocolKind::FullHandshake);
        let refined = generator(Variant::Protected)
            .refine(&f.system, &design)
            .expect("flc_reduced refinement");
        let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
            signal: "B_DONE".to_string(),
        });
        let ck = Checker::with_config(&refined.system, config).expect("checker");
        let ss = ck.explore().expect("explore");
        assert_eq!(ss.error_count(), 0, "no schedule may crash the servers");
        let trru0 = name_of_var(&refined, f.trru0);
        let conv_acc = name_of_var(&refined, f.conv_acc);
        let trru0_sum = f.expected_trru0_sum();
        let checksum = f.expected_checksum();
        let flag_names: Vec<String> = refined
            .bus
            .status_flags
            .iter()
            .map(|&(_, sig)| refined.system.signal(sig).name.clone())
            .collect();
        let rep = ss.check_terminal("delivers_or_flags", |v| {
            let acc_ok = v.variable(&conv_acc).and_then(|x| x.as_i64().ok()) == Some(checksum);
            let mem_ok = v
                .variable(&trru0)
                .map(|x| array_sum_i64(x) == trru0_sum)
                .unwrap_or(false);
            (v.all_done() && acc_ok && mem_ok) || flag_names.iter().any(|n| v.signal_high(n))
        });
        assert!(rep.holds, "{:?}", rep.counterexample.map(|c| c.to_string()));
    }
}
