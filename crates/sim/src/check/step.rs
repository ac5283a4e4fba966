//! The atomic-run transition executor.
//!
//! `run_one` runs one process from its control point to its next
//! scheduling point on the shared interpreter ([`crate::interp`]) with
//! the checker's [`Machine`] hooks; `release_waiters` eagerly advances
//! every process parked at a now-satisfied level-sensitive wait. Two
//! mechanics serve the scaled explorer:
//!
//! * **scratch discipline** — instead of cloning the source state on
//!   every call, `run_one` copies into a caller-owned scratch state with
//!   buffer-reusing [`Clone::clone_from`], and the register file is
//!   reused across all runs of a worker;
//! * **effect tracking** — every write is recorded in a [`RunFx`]: which
//!   variable groups went dirty, whether any signal was stored, which
//!   processes a release sweep advanced, and whether every executed
//!   instruction was statically pure. The explorer uses the effects to
//!   re-intern only dirty components and to validate ample candidates.

use ifsyn_spec::{System, Value};

use crate::error::SimError;
use crate::eval::EvalCtx;
use crate::exec::RegFile;
use crate::interp::{self, level_wait_holds, Machine, Parts, Tables};
use crate::process::{CodeRef, Frame, Root};
use crate::program::{Instr, WaitSpec};

use super::state::{CkProc, CkState, Layout};
use super::Checker;

/// Effects of one atomic run (plus its waiter-release sweep), recorded
/// by the write paths so the explorer can re-intern only what changed
/// and validate partial-order-reduction candidates without comparing
/// whole states.
#[derive(Debug, Default)]
pub(super) struct RunFx {
    /// A signal value was actually stored (frozen-swallowed writes do
    /// not count — they change nothing).
    pub wrote_sig: bool,
    /// Variable groups written, deduplicated, in first-write order.
    pub dirty_groups: Vec<u32>,
    /// Processes a release sweep advanced past a satisfied wait.
    pub released: Vec<u32>,
    /// Every executed instruction was statically pure (meaningful only
    /// when `track` is set).
    pub pure_run: bool,
    /// Whether to consult the purity tables at all.
    pub track: bool,
}

impl RunFx {
    pub fn reset(&mut self, track: bool) {
        self.wrote_sig = false;
        self.dirty_groups.clear();
        self.released.clear();
        self.pure_run = track;
        self.track = track;
    }

    #[inline]
    fn mark_var(&mut self, layout: &Layout, var: usize) {
        let g = layout.group_of_var[var];
        if !self.dirty_groups.contains(&g) {
            self.dirty_groups.push(g);
        }
    }
}

impl<'a> Checker<'a> {
    pub(super) fn tables(&self) -> Tables<'_> {
        Tables {
            system: self.system,
            program: &self.program,
        }
    }

    pub(super) fn initial_state(&self) -> CkState {
        CkState {
            signals: self
                .system
                .signals
                .iter()
                .map(|s| s.initial_value())
                .collect(),
            vars: self
                .system
                .variables
                .iter()
                .map(|v| v.initial_value())
                .collect(),
            procs: (0..self.system.behaviors.len())
                .map(|b| CkProc {
                    frames: vec![Frame::new(CodeRef::Behavior(b), Vec::new())],
                    done: false,
                })
                .collect(),
            fault_budget: self.faults.iter().map(|(_, f)| f.budget()).collect(),
            frozen: vec![false; self.system.signals.len()],
        }
    }

    /// Whether process `pid` is parked at a level-sensitive wait, and if
    /// so whether it holds in `s` (`None`: not at such a wait).
    pub(super) fn parked_wait_holds(
        &self,
        s: &CkState,
        pid: usize,
        regs: &mut RegFile,
    ) -> Result<Option<bool>, SimError> {
        let p = &s.procs[pid];
        if p.done {
            return Ok(None);
        }
        let Some(f) = p.frames.last() else {
            return Ok(None);
        };
        let Some(Instr::Wait(spec)) = self.tables().block(f.code).instrs.get(f.pc) else {
            return Ok(None);
        };
        let ctx = EvalCtx {
            vars: &s.vars,
            signals: &s.signals,
            locals: &f.locals,
        };
        level_wait_holds(&ctx, regs, spec)
    }

    /// Runs process `pid` from its current control point in `cur` up to
    /// its next scheduling point, building the successor in the `next`
    /// scratch state and returning the cycle cost.
    ///
    /// Scheduling points: after any cycle-consuming instruction, at an
    /// unsatisfied wait (pc stays at the wait), and after a repeating
    /// root restarts. Returns `Ok(None)` when the process cannot take a
    /// step of the requested kind at all; a returned successor equal to
    /// the source means "blocked with no progress" and is dropped by the
    /// caller (see [`RunFx`] — the explorer detects this without a whole
    /// state comparison).
    ///
    /// With `force_timeout`, the current instruction must be a watchdog
    /// wait whose condition is unsatisfied: the wait is expired (costing
    /// its bound) and execution continues into the re-test/abort code.
    pub(super) fn run_one(
        &self,
        cur: &CkState,
        next: &mut CkState,
        regs: &mut RegFile,
        pid: usize,
        force_timeout: bool,
        fx: &mut RunFx,
    ) -> Result<Option<u64>, SimError> {
        if cur.procs[pid].done {
            return Ok(None);
        }
        let mut cost = 0;
        if force_timeout {
            // Watchdog expiries are global-stall transitions, never
            // candidates for reduction.
            fx.pure_run = false;
            let f = cur.procs[pid].frames.last().expect("frame");
            let cycles = match self.tables().block(f.code).instrs.get(f.pc) {
                Some(Instr::Wait(
                    WaitSpec::UntilTimeout { cycles, .. }
                    | WaitSpec::UntilSignalIsTimeout { cycles, .. },
                )) => *cycles,
                _ => return Ok(None),
            };
            if self.parked_wait_holds(cur, pid, regs)? != Some(false) {
                return Ok(None);
            }
            cost = cycles;
        }
        next.clone_from(cur);
        if force_timeout {
            next.procs[pid].frames.last_mut().expect("frame").pc += 1;
        }
        let mut run = Run {
            ck: self,
            s: next,
            pid,
            regs,
            fx,
            cost,
        };
        let mut steps = 0;
        interp::run_until_suspend(self.tables(), &mut run, &mut steps)?;
        Ok(Some(run.cost))
    }

    /// Advances every process parked at a now-satisfied level-sensitive
    /// wait, chaining through consecutive satisfied waits.
    ///
    /// The kernel's event loop wakes every waiter on a signal the moment
    /// it changes, so a waiter can never sleep through a pulse. The
    /// interleaved transition relation must mirror that by re-arming
    /// waiters eagerly after each write-carrying transition — not when
    /// the scheduler next happens to pick them — or it invents spurious
    /// missed-pulse deadlocks the synchronous kernel cannot exhibit.
    /// Watchdog-bounded waits release along their success path; the
    /// timeout branch remains reachable only via `force_timeout`.
    ///
    /// Every advanced process is recorded in `fx.released`.
    pub(super) fn release_waiters(
        &self,
        s: &mut CkState,
        regs: &mut RegFile,
        fx: &mut RunFx,
    ) -> Result<(), SimError> {
        for pid in 0..s.procs.len() {
            let mut advanced = false;
            while self.parked_wait_holds(s, pid, regs)? == Some(true) {
                s.procs[pid].frames.last_mut().expect("frame").pc += 1;
                advanced = true;
            }
            if advanced {
                fx.released.push(pid as u32);
            }
        }
        Ok(())
    }
}

/// The checker as an interpreter client: one atomic run of process
/// `pid` against a scratch state. Signal writes land at once (unless the
/// line is frozen by a stuck fault), every cycle-consuming instruction
/// and every restart ends the run, and the effect hooks feed [`RunFx`].
struct Run<'r, 'a> {
    ck: &'r Checker<'a>,
    s: &'r mut CkState,
    pid: usize,
    regs: &'r mut RegFile,
    fx: &'r mut RunFx,
    /// Cycles consumed by the run so far.
    cost: u64,
}

impl Machine for Run<'_, '_> {
    /// A blocked process stays at its wait; `release_waiters` re-tests
    /// it after every transition.
    const PARK_AT_WAIT: bool = true;

    #[inline]
    fn parts(&mut self) -> Parts<'_> {
        Parts {
            vars: &mut self.s.vars,
            signals: &self.s.signals,
            frames: &mut self.s.procs[self.pid].frames,
            regs: &mut *self.regs,
        }
    }

    fn behavior(&self) -> usize {
        // One process per behavior, same index.
        self.pid
    }

    fn now(&self) -> u64 {
        // States are time-abstracted.
        0
    }

    fn step_limit(&self) -> u64 {
        self.ck.config.step_budget
    }

    fn over_budget(&self, system: &System) -> SimError {
        SimError::eval(format!(
            "step budget of {} exceeded in `{}` (zero-cost loop without waits?)",
            self.ck.config.step_budget, system.behaviors[self.pid].name
        ))
    }

    #[inline]
    fn on_instr(&mut self, code: CodeRef, pc: usize) {
        if self.fx.track && self.fx.pure_run {
            self.fx.pure_run = self
                .ck
                .por
                .as_ref()
                .is_some_and(|t| t.pure(self.pid, code, pc));
        }
    }

    #[inline]
    fn on_var_write(&mut self, var: usize) {
        self.fx.mark_var(&self.ck.layout, var);
    }

    fn on_copyback(&mut self, target: Root) {
        // Copy-back targets were resolved at the call — possibly in an
        // earlier atomic run whose impurity this run never saw — so
        // `Ret`'s static purity row cannot account for them: a copy-back
        // into a shared or observed variable is a visible,
        // cross-process-dependent write and must disqualify the run from
        // standing alone as an ample set.
        if self.fx.track && self.fx.pure_run {
            if let Root::Var(v) = target {
                self.fx.pure_run = self
                    .ck
                    .por
                    .as_ref()
                    .is_some_and(|t| t.copyback_pure(self.pid, v));
            }
        }
    }

    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError> {
        // Time-abstracted visibility: the drive lands now. Writes to a
        // frozen (stuck) signal are swallowed, mirroring the fault
        // semantics of [`crate::FaultKind::StuckAt`].
        if !self.s.frozen[signal] {
            self.s.signals[signal] = value;
            self.fx.wrote_sig = true;
        }
        self.cost += u64::from(cost);
        Ok(cost > 0)
    }

    fn elapse(&mut self, cycles: u64, _busy: bool) -> Result<bool, SimError> {
        self.cost += cycles;
        Ok(true)
    }

    /// Event-sensitive waits are abstracted as a plain scheduling point:
    /// the process is resumable whenever the scheduler picks it
    /// (generated protocol code never uses bare `wait on`); a blocked
    /// level-sensitive wait expires only via `force_timeout`.
    fn park(&mut self, _wait: &WaitSpec) {}

    /// Yield at a restart so zero-cost repeating bodies bound every
    /// atomic run.
    fn restarted(&mut self) -> bool {
        false
    }

    fn finished(&mut self) {
        self.s.procs[self.pid].done = true;
    }
}
