use super::*;
use ifsyn_spec::dsl::*;
use ifsyn_spec::{Arg, ParamMode, Procedure, System, Ty, Value};

/// Two-phase handshake: `P` raises REQ and waits for ACK; `C` waits
/// for REQ and raises ACK.
fn handshake() -> System {
    let mut sys = System::new("hs");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    sys.behavior_mut(p).body = vec![
        drive(req, bit_const(true)),
        wait_until(eq(signal(ack), bit_const(true))),
        drive(req, bit_const(false)),
    ];
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    sys
}

#[test]
fn handshake_completes_on_every_schedule() {
    let sys = handshake();
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    assert!(ss.state_count() > 1);
    assert!(ss.terminal_count() >= 1);
    let report = ss.check_terminal("handshake completes", |v| v.all_done());
    assert!(report.holds, "{report}");
    assert_eq!(report.verdict, Verdict::Pass);
}

#[test]
fn cross_wait_deadlock_is_found_with_cycle() {
    let mut sys = System::new("dl");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    // Both sides wait before driving: classic circular wait.
    sys.behavior_mut(p).body = vec![
        wait_until(eq(signal(ack), bit_const(true))),
        drive(req, bit_const(true)),
    ];
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_terminal("completes", |v| v.all_done());
    assert!(!report.holds);
    assert_eq!(report.verdict, Verdict::Fail);
    let cex = report.counterexample.expect("counterexample");
    let diag = cex.diagnosis.expect("diagnosis");
    assert_eq!(diag.blocked.len(), 2);
    let cycle = diag.cycles.first().expect("wait-for cycle");
    assert!(cycle.contains(&"P".to_string()) && cycle.contains(&"C".to_string()));
}

#[test]
fn interleavings_reach_joint_state_and_bound_is_exact() {
    let mut sys = System::new("diamond");
    let m = sys.add_module("chip");
    let p1 = sys.add_behavior("P1", m);
    let p2 = sys.add_behavior("P2", m);
    let a = sys.add_variable("A", Ty::Int(8), p1);
    let b = sys.add_variable("B", Ty::Int(8), p2);
    sys.behavior_mut(p1).body = vec![assign(var(a), int_const(1, 8))];
    sys.behavior_mut(p2).body = vec![assign(var(b), int_const(1, 8))];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let both_set = |v: &StateView<'_>| {
        v.variable("A").unwrap().as_i64().unwrap() == 1
            && v.variable("B").unwrap().as_i64().unwrap() == 1
    };
    let report = ss.check_invariant("never both set", |v| !both_set(v));
    assert!(!report.holds, "the joint state must be reachable");
    // Two unit-cost assigns on every maximal path.
    assert_eq!(ss.worst_cost_to_quiescence(), Some(2));
}

#[test]
fn repeating_server_eventually_grants() {
    let mut sys = System::new("grant");
    let m = sys.add_module("chip");
    let cl = sys.add_behavior("CLIENT", m);
    let sv = sys.add_behavior("SERVER", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let gnt = sys.add_signal("GNT", Ty::Bit);
    sys.behavior_mut(cl).body = vec![
        drive(req, bit_const(true)),
        wait_until(eq(signal(gnt), bit_const(true))),
        drive(req, bit_const(false)),
    ];
    sys.behavior_mut(sv).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(gnt, bit_const(true)),
        wait_until(eq(signal(req), bit_const(false))),
        drive(gnt, bit_const(false)),
    ];
    sys.behavior_mut(sv).repeats = true;
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_leads_to(
        "pending request is eventually granted",
        |v| v.signal_high("REQ") && !v.signal_high("GNT"),
        |v| v.signal_high("GNT"),
    );
    assert!(report.holds, "{report}");
}

#[test]
fn watchdog_expires_only_at_global_stall() {
    let mut sys = System::new("wd");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let ack = sys.add_signal("ACK", Ty::Bit);
    let x = sys.add_variable("X", Ty::Int(8), p);
    sys.behavior_mut(p).body = vec![
        wait_until_for(eq(signal(ack), bit_const(true)), 8),
        if_else(
            eq(signal(ack), bit_const(true)),
            vec![assign(var(x), int_const(1, 8))],
            vec![assign(var(x), int_const(2, 8))],
        ),
    ];
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    // ACK is never driven: the watchdog must fire and the abort
    // branch must run to quiescence on every schedule.
    let report = ss.check_terminal("aborts via watchdog", |v| {
        v.done("P") && v.variable("X").unwrap().as_i64().unwrap() == 2
    });
    assert!(report.holds, "{report}");
    let worst = ss.worst_cost_to_quiescence().expect("bounded");
    assert!(
        worst >= 8,
        "watchdog bound {worst} must include the timeout"
    );
}

#[test]
fn flip_bit_fault_wakes_a_blocked_waiter() {
    let build = || {
        let mut sys = System::new("flip");
        let m = sys.add_module("chip");
        let p = sys.add_behavior("P", m);
        let ack = sys.add_signal("ACK", Ty::Bit);
        let x = sys.add_variable("X", Ty::Int(8), p);
        sys.behavior_mut(p).body = vec![
            wait_until(eq(signal(ack), bit_const(true))),
            assign(var(x), int_const(1, 8)),
        ];
        sys
    };
    let sys = build();
    let ck = Checker::new(&sys).unwrap();
    let ss = ck.explore().unwrap();
    let x_zero = |v: &StateView<'_>| v.variable("X").unwrap().as_i64().unwrap() == 0;
    assert!(ss.check_invariant("x stays 0", x_zero).holds);

    let sys = build();
    let config = CheckConfig::new().with_fault(EnvFault::FlipBit {
        signal: "ACK".to_string(),
        bit: 0,
        budget: 1,
    });
    let ck = Checker::with_config(&sys, config).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_invariant("x stays 0", x_zero);
    assert!(!report.holds, "the fault must wake P");
    let cex = report.counterexample.expect("counterexample");
    assert!(
        cex.trace.iter().any(|s| s.contains("flips `ACK`")),
        "trace must show the fault strike: {:?}",
        cex.trace
    );
}

#[test]
fn stuck_low_ack_blocks_the_handshake() {
    let sys = handshake();
    let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
        signal: "ACK".to_string(),
    });
    let ck = Checker::with_config(&sys, config).unwrap();
    let ss = ck.explore().unwrap();
    let report = ss.check_terminal("handshake completes", |v| v.all_done());
    assert!(!report.holds, "a stuck ACK must strand P");
    let diag = report
        .counterexample
        .expect("counterexample")
        .diagnosis
        .expect("diagnosis");
    assert!(diag.blocked.iter().any(|b| b.behavior == "P"));
}

#[test]
fn exploration_is_deterministic() {
    let sys = handshake();
    let ck = Checker::new(&sys).unwrap();
    let a = ck.explore().unwrap();
    let b = ck.explore().unwrap();
    assert_eq!(a.state_count(), b.state_count());
    assert_eq!(a.transition_count(), b.transition_count());
    assert_eq!(a.terminal_count(), b.terminal_count());
    assert_eq!(a.worst_cost_to_quiescence(), b.worst_cost_to_quiescence());
}

#[test]
fn unknown_fault_signal_is_rejected() {
    let sys = handshake();
    let config = CheckConfig::new().with_fault(EnvFault::StuckLow {
        signal: "NOPE".to_string(),
    });
    let err = Checker::with_config(&sys, config)
        .err()
        .expect("must be rejected");
    assert!(err.to_string().contains("NOPE"));
}

// ---- scaling features ----

/// Two behaviors stepping private counters, plus a handshake pair: the
/// counter steps are pure once the counters are declared unobserved.
/// With `deadlock`, P waits before driving — a circular wait with C.
fn mixed_private_with(deadlock: bool) -> System {
    let mut sys = System::new("mix");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let c = sys.add_behavior("C", m);
    let req = sys.add_signal("REQ", Ty::Bit);
    let ack = sys.add_signal("ACK", Ty::Bit);
    sys.behavior_mut(p).body = if deadlock {
        vec![
            wait_until(eq(signal(ack), bit_const(true))),
            drive(req, bit_const(true)),
        ]
    } else {
        vec![
            drive(req, bit_const(true)),
            wait_until(eq(signal(ack), bit_const(true))),
            drive(req, bit_const(false)),
        ]
    };
    sys.behavior_mut(c).body = vec![
        wait_until(eq(signal(req), bit_const(true))),
        drive(ack, bit_const(true)),
    ];
    let w1 = sys.add_behavior("W1", m);
    let x1 = sys.add_variable("X1", Ty::Int(8), w1);
    sys.behavior_mut(w1).body = (0..6i64)
        .map(|i| assign(var(x1), int_const(i, 8)))
        .collect();
    let w2 = sys.add_behavior("W2", m);
    let x2 = sys.add_variable("X2", Ty::Int(8), w2);
    sys.behavior_mut(w2).body = (0..6i64)
        .map(|i| assign(var(x2), int_const(i, 8)))
        .collect();
    sys
}

fn mixed_private() -> System {
    mixed_private_with(false)
}

#[test]
fn por_reduces_private_interleavings_and_preserves_verdicts() {
    let sys = mixed_private();
    let reduced =
        Checker::with_config(&sys, CheckConfig::new().with_observed_variables(Vec::new())).unwrap();
    let full = Checker::with_config(
        &sys,
        CheckConfig::new()
            .with_observed_variables(Vec::new())
            .without_por(),
    )
    .unwrap();
    let rs = reduced.explore().unwrap();
    let fs = full.explore().unwrap();
    assert!(rs.stats().ample_states > 0, "reduction must fire");
    assert!(
        rs.state_count() < fs.state_count(),
        "reduced {} !< full {}",
        rs.state_count(),
        fs.state_count()
    );
    for ss in [&rs, &fs] {
        let report = ss.check_terminal("all done", |v| v.all_done());
        assert!(report.holds, "{report}");
        let grant = ss.check_leads_to(
            "req leads to ack",
            |v| v.signal_high("REQ"),
            |v| v.signal_high("ACK"),
        );
        assert!(grant.holds, "{grant}");
    }
    assert_eq!(
        rs.worst_cost_to_quiescence(),
        fs.worst_cost_to_quiescence(),
        "reduction must preserve the completion bound"
    );
}

#[test]
fn reduced_failure_reports_match_the_unreduced_explorer() {
    // A deadlocked handshake beside pure private work: reduction fires,
    // the terminal property fails, and the failure report must be
    // byte-identical to a POR-off exploration's (replay delegation).
    let sys = mixed_private_with(true);
    let observed = CheckConfig::new().with_observed_variables(Vec::new());
    let reduced = Checker::with_config(&sys, observed.clone()).unwrap();
    let full = Checker::with_config(&sys, observed.without_por()).unwrap();
    let rs = reduced.explore().unwrap();
    let fs = full.explore().unwrap();
    assert!(rs.stats().ample_states > 0, "reduction must fire");
    let rr = rs.check_terminal("completes", |v| v.all_done());
    let fr = fs.check_terminal("completes", |v| v.all_done());
    assert!(!rr.holds && !fr.holds);
    assert_eq!(rr.to_string(), fr.to_string());
}

#[test]
fn thread_count_does_not_change_the_graph_or_reports() {
    let sys = mixed_private();
    let explore = |threads: usize| {
        let ck =
            Checker::with_config(&sys, CheckConfig::new().with_check_threads(threads)).unwrap();
        let ss = ck.explore().unwrap();
        let counts = (ss.state_count(), ss.transition_count(), ss.terminal_count());
        let report = ss
            .check_invariant("x1 stays small", |v| {
                v.variable("X1").unwrap().as_i64().unwrap() < 5
            })
            .to_string();
        (counts, report, ss.worst_cost_to_quiescence())
    };
    let base = explore(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            explore(threads),
            base,
            "threads={threads} must match serial"
        );
    }
}

#[test]
fn bounded_exploration_reports_a_bounded_verdict() {
    let sys = mixed_private();
    let ck = Checker::with_config(&sys, CheckConfig::new().with_state_limit(20)).unwrap();
    let ss = ck.explore().unwrap();
    let info = ss.bounded().expect("exploration must hit the budget");
    assert!(info.frontier > 0);
    assert_eq!(info.limit, 20);
    assert!(ss.state_count() >= 20);
    let report = ss.check_invariant("x1 in range", |v| {
        v.variable("X1").unwrap().as_i64().unwrap() <= 6
    });
    assert!(report.holds);
    assert_eq!(report.verdict, Verdict::Bounded);
    let line = report.to_string();
    assert!(line.starts_with("BOUND"), "{line}");
    assert!(line.contains("state limit 20"), "{line}");
    // A bounded graph cannot certify a completion bound.
    assert_eq!(ss.worst_cost_to_quiescence(), None);
}

/// A procedure with an `out` parameter aimed at a shared variable,
/// returning past an internal scheduling point: the resumed run executes
/// only statically pure instructions plus `Ret`, but its copy-back (a
/// place resolved back at the call) writes the shared variable. Treating
/// that run as an ample singleton would hide every interleaving where
/// `Q` samples the pre-copy-back value from the mid-procedure state.
#[test]
fn por_never_hides_procedure_copyback_writes() {
    let mut sys = System::new("copyback");
    let m = sys.add_module("chip");
    let p = sys.add_behavior("P", m);
    let q = sys.add_behavior("Q", m);
    let a = sys.add_signal("A", Ty::Bit);
    let sh = sys.add_variable("sh", Ty::Int(8), p);
    let r1 = sys.add_variable("r1", Ty::Bit, q);
    let r2 = sys.add_variable_init("r2", Ty::Int(8), q, Value::int(99, 8));
    let mut give = Procedure::new("give_two");
    let out_slot = give.add_param("result", Ty::Int(8), ParamMode::Out);
    give.body = vec![
        assign(local(out_slot), int_const(1, 8)),
        wait_cycles(1), // scheduling point between the call and the copy-back
        assign(local(out_slot), int_const(2, 8)),
    ];
    let give = sys.add_procedure(give);
    sys.behavior_mut(p).body = vec![
        drive(a, bit_const(true)),
        call(give, vec![Arg::Out(var(sh))]),
        wait_cycles(1),
    ];
    sys.behavior_mut(q).body = vec![assign(var(r1), signal(a)), assign(var(r2), load(var(sh)))];
    // Seeing `A` high with `sh` still 0 requires scheduling Q entirely
    // between P's call and P's copy-back — i.e. from the mid-procedure
    // state, exactly the state a copy-back-blind ample set would commit
    // as a singleton.
    let window = |v: &StateView<'_>| {
        matches!(v.variable("r1"), Some(Value::Bit(true)))
            && v.variable("r2").unwrap().as_i64().unwrap() == 0
    };
    let full = Checker::with_config(&sys, CheckConfig::new().without_por()).unwrap();
    let fs = full.explore().unwrap();
    let fr = fs.check_invariant("window unreachable", |v| !window(v));
    assert!(!fr.holds, "the mid-procedure window must be reachable");
    let reduced = Checker::new(&sys).unwrap();
    let rs = reduced.explore().unwrap();
    let rr = rs.check_invariant("window unreachable", |v| !window(v));
    assert!(!rr.holds, "reduction hid the copy-back write");
    assert_eq!(rr.to_string(), fr.to_string());
}

/// A graceful state budget supersedes the hard `max_states` abort: a
/// `--check-limit` above the cap must end in a `Bounded` verdict, never
/// the exhaustion error (that error fires mid-level, before the budget
/// is even consulted).
#[test]
fn state_limit_supersedes_the_hard_state_cap() {
    let sys = mixed_private();
    // Budget above the cap, space bigger than both: stops at the budget.
    let ck = Checker::with_config(
        &sys,
        CheckConfig::new().with_max_states(20).with_state_limit(50),
    )
    .unwrap();
    let ss = ck
        .explore()
        .expect("budgeted run must not hit the hard cap");
    let b = ss.bounded().expect("budget must bound the run");
    assert_eq!(b.limit, 50);
    assert!(ss.state_count() >= 50);
    // Budget above the cap, space smaller than the budget: completes.
    let ck = Checker::with_config(
        &sys,
        CheckConfig::new()
            .with_max_states(20)
            .with_state_limit(1_000_000),
    )
    .unwrap();
    let ss = ck
        .explore()
        .expect("budgeted run must not hit the hard cap");
    assert!(ss.bounded().is_none(), "the space fits the budget");
    assert!(ss.state_count() > 20);
    // Without a budget the hard cap still aborts.
    let ck = Checker::with_config(&sys, CheckConfig::new().with_max_states(20)).unwrap();
    let err = ck.explore().err().expect("hard cap must abort");
    assert!(err.to_string().contains("exceeds 20 states"));
}

#[test]
fn unknown_observed_names_are_rejected() {
    let sys = handshake();
    let err = Checker::with_config(
        &sys,
        CheckConfig::new().with_observed_signals(vec!["NOPE".to_string()]),
    )
    .err()
    .expect("unknown signal must be rejected");
    assert!(err.to_string().contains("NOPE"));
    let err = Checker::with_config(
        &sys,
        CheckConfig::new().with_observed_variables(vec!["NOPE".to_string()]),
    )
    .err()
    .expect("unknown variable must be rejected");
    assert!(err.to_string().contains("NOPE"));
}

#[test]
fn exploration_reuses_scratch_states() {
    let sys = mixed_private();
    let ck = Checker::with_config(&sys, CheckConfig::new().with_check_threads(4)).unwrap();
    let ss = ck.explore().unwrap();
    assert!(ss.state_count() > 100, "need a non-trivial space");
    let allocs = ss.stats().state_allocs;
    assert!(
        allocs < 64,
        "full-state allocations must stay O(threads), got {allocs}"
    );
}
