//! The bytecode interpreter: the one place [`Instr`]s execute.
//!
//! Three clients run compiled code, and they must give it one meaning:
//! the scalar kernel (`kernel.rs`), the shard workers of the parallel
//! kernel (`shard.rs`) and the model checker's atomic runs
//! (`check/step.rs`). [`run_until_suspend`] dispatches every instruction
//! for all three; the place, call and channel helpers below are written
//! once. What the clients genuinely do differently is factored into the
//! small [`Machine`] trait — the engine/client split of a generic
//! discrete-event engine:
//!
//! * **signal writes** — the kernel queues pending writes (and may jump
//!   time forward past a costed write), a shard worker stages them for
//!   the barrier replay, the checker stores them at once unless the line
//!   is frozen by a stuck fault;
//! * **costed suspension and wait registration** — the kernel sleeps or
//!   fast-advances and registers waiters, a worker stages both, the
//!   checker ends its atomic run and accumulates the cost;
//! * **repeating-body restart** — the checker yields there so zero-cost
//!   repeating bodies bound every atomic run; the kernel keeps running;
//! * **the step budget** and its error;
//! * **effect hooks** on instructions, variable writes and copy-backs,
//!   which feed the checker's partial-order-reduction bookkeeping and
//!   compile to nothing in the kernel and the workers.
//!
//! The trait is used only as a generic bound, so every client gets its
//! own monomorphised dispatch loop with the hooks inlined.

use ifsyn_spec::{ChannelId, ParamMode, System, Ty, Value};

use crate::error::SimError;
use crate::eval::{coerce, EvalCtx};
use crate::exec::{eval_code, CArg, CPath, CPathStep, CPlace, CRoot, ExprCode, RegFile};
use crate::process::{CodeRef, Frame, ResolvedPlace, Root, Step};
use crate::program::{Code, Instr, Program, WaitSpec};

/// The immutable half of an execution: the system and its compiled
/// code. Borrowed apart from the mutable machine state, so the running
/// block is a plain reference for the whole activation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tables<'t> {
    pub system: &'t System,
    pub program: &'t Program,
}

impl<'t> Tables<'t> {
    /// The code block a frame executes.
    #[inline]
    pub fn block(self, code: CodeRef) -> &'t Code {
        match code {
            CodeRef::Behavior(i) => &self.program.behaviors[i],
            CodeRef::Procedure(i) => &self.program.procedures[i],
        }
    }
}

/// Split borrows of the storage one process executes against.
pub(crate) struct Parts<'m> {
    /// System variables (a shard worker's copy holds only its own).
    pub vars: &'m mut [Value],
    /// Signal values as the process sees them.
    pub signals: &'m [Value],
    /// The running process's call stack.
    pub frames: &'m mut Vec<Frame>,
    /// The evaluation register file.
    pub regs: &'m mut RegFile,
}

/// What a client of the interpreter decides for itself.
///
/// Hooks that return `bool` answer "did the process suspend?": `false`
/// keeps the activation running.
pub(crate) trait Machine {
    /// Whether a process blocked on a level-sensitive wait stays *at*
    /// the wait (to be re-tested and released by the client) rather than
    /// resuming after it once woken.
    const PARK_AT_WAIT: bool;

    /// The storage of the running process.
    fn parts(&mut self) -> Parts<'_>;

    /// Behavior index of the running process.
    fn behavior(&self) -> usize;

    /// The time reported in assertion failures.
    fn now(&self) -> u64;

    /// Instructions one activation may execute without time passing.
    fn step_limit(&self) -> u64;

    /// The error for an activation that exceeded [`Machine::step_limit`].
    fn over_budget(&self, system: &System) -> SimError;

    /// Called before each instruction executes.
    #[inline]
    fn on_instr(&mut self, _code: CodeRef, _pc: usize) {}

    /// Called before any write into system variable `var`.
    #[inline]
    fn on_var_write(&mut self, _var: usize) {}

    /// Called before each procedure copy-back write into `target`.
    #[inline]
    fn on_copyback(&mut self, _target: Root) {}

    /// Drives `signal` with an already-coerced `value`, visible after
    /// `cost` cycles (the next delta when zero).
    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError>;

    /// Lets `cycles > 0` cycles pass; `busy` marks cycles spent
    /// executing (as opposed to a `wait for`).
    fn elapse(&mut self, cycles: u64, busy: bool) -> Result<bool, SimError>;

    /// Suspends on a wait that does not hold (always, for `wait on`).
    fn park(&mut self, wait: &WaitSpec);

    /// A repeating behavior's body restarted at its first instruction;
    /// returns `true` to keep running.
    fn restarted(&mut self) -> bool;

    /// A non-repeating behavior finished its body.
    fn finished(&mut self);

    /// An assertion held.
    #[inline]
    fn assert_passed(&mut self) {}
}

/// Runs the current process from its top frame's program counter until
/// it suspends, finishes or fails, counting executed instructions into
/// `steps` (also on failure).
///
/// The program counter and code block live in locals; the frame's `pc`
/// is written back only at suspension points and calls.
pub(crate) fn run_until_suspend<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    steps: &mut u64,
) -> Result<(), SimError> {
    let (mut code_ref, mut pc) = {
        let frame = m
            .parts()
            .frames
            .last()
            .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
        (frame.code, frame.pc)
    };
    let mut block = t.block(code_ref);
    let limit = m.step_limit();
    // Zero-delay-loop budget: counts steps since time last passed, so
    // long runs that legitimately consume simulated time (the kernel's
    // fast-forward) are never misdiagnosed.
    let mut instant_steps = 0u64;
    loop {
        *steps += 1;
        instant_steps += 1;
        if instant_steps > limit {
            return Err(m.over_budget(t.system));
        }
        m.on_instr(code_ref, pc);
        match &block.instrs[pc] {
            Instr::Assign { place, value, cost } => {
                // Constant sources skip the evaluation context.
                let v = match value.const_value() {
                    Some(c) => c.clone(),
                    None => eval(m, value)?.clone(),
                };
                write_cplace(t, m, place, v)?;
                pc += 1;
                if *cost > 0 {
                    if m.elapse(u64::from(*cost), true)? {
                        return suspend(m, pc);
                    }
                    instant_steps = 0;
                }
            }
            Instr::SignalWrite {
                signal,
                value,
                cost,
            } => {
                // Constants were pre-coerced to the signal's type at
                // compile time, so the pool value drives verbatim.
                let v = match value.const_value() {
                    Some(c) => c.clone(),
                    None => coerce(eval(m, value)?.clone(), &t.system.signal(*signal).ty),
                };
                pc += 1;
                if m.drive(signal.index(), v, *cost)? {
                    return suspend(m, pc);
                }
                if *cost > 0 {
                    instant_steps = 0;
                }
            }
            Instr::Jump(target) => pc = *target,
            Instr::JumpIfNot { cond, target } => {
                pc = if eval_bool(m, cond)? { pc + 1 } else { *target };
            }
            Instr::LoopInit { var, from, to } => {
                let bound = eval_i64(m, to)?;
                let start = eval(m, from)?.clone();
                write_cplace(t, m, var, start)?;
                top_frame(m).loop_bounds.push(bound);
                pc += 1;
            }
            Instr::LoopTest { var, exit } => {
                // Loop counters are whole int variables or locals in
                // practice; read them without an evaluation context.
                let fast = {
                    let p = m.parts();
                    match var {
                        CPlace::Var(v) => p.vars.get(*v as usize),
                        CPlace::Local(slot) => {
                            p.frames.last().and_then(|f| f.locals.get(*slot as usize))
                        }
                        CPlace::Path(_) => None,
                    }
                    .and_then(|v| match v {
                        Value::Int { value, .. } => Some(*value),
                        _ => None,
                    })
                };
                let v = match fast {
                    Some(v) => v,
                    None => read_cplace(m, var)?
                        .as_i64()
                        .map_err(|e| SimError::eval(e.to_string()))?,
                };
                pc = loop_branch(m, v, pc + 1, *exit)?;
            }
            Instr::LoopIncr { var, body, exit } => {
                // Fused back-edge: in-place increment for whole int
                // counters (stored values are unmasked, so this matches
                // rebuild+write), then test the bound and branch.
                if let CPlace::Var(v) = var {
                    m.on_var_write(*v as usize);
                }
                let fast = {
                    let p = m.parts();
                    match var {
                        CPlace::Var(v) => p.vars.get_mut(*v as usize),
                        CPlace::Local(slot) => p
                            .frames
                            .last_mut()
                            .and_then(|f| f.locals.get_mut(*slot as usize)),
                        CPlace::Path(_) => None,
                    }
                    .and_then(|v| match v {
                        Value::Int { value, width } if *width > 0 => {
                            *value += 1;
                            Some(*value)
                        }
                        _ => None,
                    })
                };
                let v = match fast {
                    Some(v) => v,
                    None => {
                        let cur = read_cplace(m, var)?;
                        let v = cur.as_i64().map_err(|e| SimError::eval(e.to_string()))?;
                        let width = match &cur {
                            Value::Int { width, .. } => *width,
                            other => other.ty().bit_width(),
                        };
                        write_cplace(t, m, var, Value::int(v + 1, width.max(1)))?;
                        v + 1
                    }
                };
                pc = loop_branch(m, v, *body, *exit)?;
            }
            Instr::Wait(spec) => match spec {
                WaitSpec::ForCycles(n) => {
                    pc += 1;
                    if *n > 0 {
                        if m.elapse(*n, false)? {
                            return suspend(m, pc);
                        }
                        instant_steps = 0;
                    }
                }
                WaitSpec::OnSignals(_) => {
                    m.park(spec);
                    return suspend(m, pc + 1);
                }
                _ => {
                    let holds = {
                        let p = m.parts();
                        let frame = p.frames.last().expect("frame");
                        let ctx = EvalCtx {
                            vars: p.vars,
                            signals: p.signals,
                            locals: &frame.locals,
                        };
                        level_wait_holds(&ctx, p.regs, spec)?
                    };
                    if holds != Some(true) {
                        m.park(spec);
                        return suspend(m, if M::PARK_AT_WAIT { pc } else { pc + 1 });
                    }
                    pc += 1;
                }
            },
            Instr::Call { procedure, args } => {
                // The return address is stored before the callee frame is
                // pushed; argument evaluation still sees the caller frame.
                top_frame(m).pc = pc + 1;
                enter_procedure(t, m, *procedure, args)?;
                code_ref = CodeRef::Procedure(*procedure);
                block = t.block(code_ref);
                pc = 0;
            }
            Instr::Ret => {
                if leave_frame(t, m)? {
                    return Ok(());
                }
                let frame = top_frame(m);
                code_ref = frame.code;
                pc = frame.pc;
                block = t.block(code_ref);
            }
            Instr::ChannelSend {
                channel,
                addr,
                data,
                cost,
            } => {
                let data_v = eval(m, data)?.clone();
                let addr_v = match addr {
                    Some(a) => Some(eval_i64(m, a)?),
                    None => None,
                };
                channel_write(t, m, *channel, addr_v, data_v)?;
                pc += 1;
                if *cost > 0 {
                    if m.elapse(u64::from(*cost), true)? {
                        return suspend(m, pc);
                    }
                    instant_steps = 0;
                }
            }
            Instr::ChannelReceive {
                channel,
                addr,
                target,
                cost,
            } => {
                let addr_v = match addr {
                    Some(a) => Some(eval_i64(m, a)?),
                    None => None,
                };
                let v = channel_read(t, m, *channel, addr_v)?;
                write_cplace(t, m, target, v)?;
                pc += 1;
                if *cost > 0 {
                    if m.elapse(u64::from(*cost), true)? {
                        return suspend(m, pc);
                    }
                    instant_steps = 0;
                }
            }
            Instr::Assert { cond, note } => {
                if !eval_bool(m, cond)? {
                    return Err(SimError::AssertionFailed {
                        behavior: t.system.behaviors[m.behavior()].name.clone(),
                        note: note.clone(),
                        time: m.now(),
                    });
                }
                m.assert_passed();
                pc += 1;
            }
            Instr::Consume { cycles } => {
                pc += 1;
                if *cycles > 0 {
                    if m.elapse(*cycles, true)? {
                        return suspend(m, pc);
                    }
                    instant_steps = 0;
                }
            }
        }
    }
}

/// Stores the resume point of a suspending process.
#[inline]
fn suspend<M: Machine>(m: &mut M, pc: usize) -> Result<(), SimError> {
    top_frame(m).pc = pc;
    Ok(())
}

#[inline]
fn top_frame<M: Machine>(m: &mut M) -> &mut Frame {
    let frames = m.parts().frames;
    frames.last_mut().expect("frame")
}

/// Tests a loop counter against the innermost bound: pops the bound and
/// returns `exit` when the loop is done, `next` otherwise.
#[inline]
fn loop_branch<M: Machine>(m: &mut M, v: i64, next: usize, exit: usize) -> Result<usize, SimError> {
    let frame = top_frame(m);
    let bound = *frame
        .loop_bounds
        .last()
        .ok_or_else(|| SimError::eval("loop bound stack empty".to_string()))?;
    if v > bound {
        frame.loop_bounds.pop();
        Ok(exit)
    } else {
        Ok(next)
    }
}

/// Whether a level-sensitive wait holds in `ctx`; `None` for waits that
/// are not level-sensitive (`wait for`, `wait on`).
pub(crate) fn level_wait_holds(
    ctx: &EvalCtx<'_>,
    regs: &mut RegFile,
    spec: &WaitSpec,
) -> Result<Option<bool>, SimError> {
    match spec {
        WaitSpec::ForCycles(_) | WaitSpec::OnSignals(_) => Ok(None),
        WaitSpec::Until(cond) | WaitSpec::UntilTimeout { cond, .. } => {
            eval_code(ctx, &cond.code, regs)?
                .as_bool()
                .map(Some)
                .map_err(|e| SimError::eval(e.to_string()))
        }
        WaitSpec::UntilSignalIs { signal, value }
        | WaitSpec::UntilSignalIsTimeout { signal, value, .. } => {
            Ok(Some(ctx.signals[signal.index()] == *value))
        }
    }
}

// ---- expression evaluation in the running process's top frame ----

fn eval<'m, M: Machine>(m: &'m mut M, code: &'m ExprCode) -> Result<&'m Value, SimError> {
    let p = m.parts();
    let frames: &'m Vec<Frame> = p.frames;
    let frame = frames
        .last()
        .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
    let ctx = EvalCtx {
        vars: p.vars,
        signals: p.signals,
        locals: &frame.locals,
    };
    eval_code(&ctx, code, p.regs)
}

fn eval_bool<M: Machine>(m: &mut M, code: &ExprCode) -> Result<bool, SimError> {
    eval(m, code)?
        .as_bool()
        .map_err(|e| SimError::eval(e.to_string()))
}

fn eval_i64<M: Machine>(m: &mut M, code: &ExprCode) -> Result<i64, SimError> {
    eval(m, code)?
        .as_i64()
        .map_err(|e| SimError::eval(e.to_string()))
}

// ---- places ----

/// Resolves a compiled path to concrete storage steps; index and offset
/// code evaluates in the process's current (top) frame.
fn resolve_cpath<M: Machine>(
    m: &mut M,
    path: &CPath,
    frame_abs: usize,
) -> Result<ResolvedPlace, SimError> {
    let root = match path.root {
        CRoot::Var(i) => Root::Var(i as usize),
        CRoot::Local(s) => Root::Local {
            frame: frame_abs,
            slot: s as usize,
        },
    };
    let mut steps = Vec::with_capacity(path.steps.len());
    for st in path.steps.iter() {
        match st {
            CPathStep::Elem(code) => {
                let i = eval_i64(m, code)?;
                let i = usize::try_from(i)
                    .map_err(|_| SimError::eval(format!("negative array index {i}")))?;
                steps.push(Step::Elem(i));
            }
            CPathStep::Slice(hi, lo) => steps.push(Step::Slice(*hi, *lo)),
            CPathStep::DynSlice(code, width) => {
                // The offset evaluates once at resolution time, turning
                // the dynamic slice into a concrete one.
                let lo = eval_i64(m, code)?;
                let lo = u32::try_from(lo)
                    .map_err(|_| SimError::eval(format!("negative slice offset {lo}")))?;
                steps.push(Step::Slice(lo + width - 1, lo));
            }
        }
    }
    Ok(ResolvedPlace { root, steps })
}

/// Resolves a compiled place for copy-back, returning the concrete
/// destination and its type (captured at call time, VHDL-style).
fn resolve_cplace<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    place: &CPlace,
    frame_abs: usize,
) -> Result<(ResolvedPlace, Ty), SimError> {
    match place {
        CPlace::Var(i) => {
            let decl = t
                .system
                .variables
                .get(*i as usize)
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?;
            Ok((
                ResolvedPlace {
                    root: Root::Var(*i as usize),
                    steps: Vec::new(),
                },
                decl.ty.clone(),
            ))
        }
        CPlace::Local(slot) => {
            let slot = *slot as usize;
            let ty = local_ty(t, m.parts().frames, frame_abs, slot)?;
            Ok((
                ResolvedPlace {
                    root: Root::Local {
                        frame: frame_abs,
                        slot,
                    },
                    steps: Vec::new(),
                },
                ty,
            ))
        }
        CPlace::Path(path) => {
            let ty = path
                .ty
                .clone()
                .ok_or_else(|| untyped_place_error(&path.root))?;
            let rp = resolve_cpath(m, path, frame_abs)?;
            Ok((rp, ty))
        }
    }
}

/// The declared type of a frame's local slot.
fn local_ty(
    t: Tables<'_>,
    frames: &[Frame],
    frame_abs: usize,
    slot: usize,
) -> Result<Ty, SimError> {
    match frames[frame_abs].code {
        CodeRef::Procedure(p) => {
            let proc = &t.system.procedures[p];
            if slot < proc.slot_count() {
                Ok(proc.slot_ty(slot).clone())
            } else {
                Err(SimError::eval(format!("missing local slot {slot}")))
            }
        }
        CodeRef::Behavior(_) => Err(SimError::eval(
            "local slot referenced outside a procedure".to_string(),
        )),
    }
}

/// Reads a compiled place's current value.
fn read_cplace<M: Machine>(m: &mut M, place: &CPlace) -> Result<Value, SimError> {
    match place {
        CPlace::Var(i) => m
            .parts()
            .vars
            .get(*i as usize)
            .cloned()
            .ok_or_else(|| SimError::eval(format!("missing variable v{i}"))),
        CPlace::Local(slot) => m
            .parts()
            .frames
            .last()
            .ok_or_else(|| SimError::eval("process has no frame".to_string()))?
            .locals
            .get(*slot as usize)
            .cloned()
            .ok_or_else(|| SimError::eval(format!("missing local slot {slot}"))),
        CPlace::Path(path) => {
            let frame_abs = m.parts().frames.len() - 1;
            let rp = resolve_cpath(m, path, frame_abs)?;
            read_resolved(&m.parts(), &rp)
        }
    }
}

/// Reads the value at a resolved path.
fn read_resolved(p: &Parts<'_>, rp: &ResolvedPlace) -> Result<Value, SimError> {
    let mut cur: &Value = match rp.root {
        Root::Var(i) => p
            .vars
            .get(i)
            .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?,
        Root::Local { frame, slot } => p
            .frames
            .get(frame)
            .and_then(|f| f.locals.get(slot))
            .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))?,
    };
    for (i, step) in rp.steps.iter().enumerate() {
        match step {
            Step::Elem(idx) => match cur {
                Value::Array(items) => {
                    cur = items
                        .get(*idx)
                        .ok_or_else(|| SimError::eval(format!("array index {idx} out of range")))?;
                }
                other => return Err(SimError::eval(format!("indexing non-array value {other}"))),
            },
            Step::Slice(hi, lo) => {
                if i + 1 != rp.steps.len() {
                    return Err(SimError::eval(
                        "slice must be the last projection of a write target".to_string(),
                    ));
                }
                let bits = cur.to_bits();
                if *hi >= bits.width() {
                    return Err(SimError::eval(format!(
                        "slice {hi} downto {lo} out of range for width {}",
                        bits.width()
                    )));
                }
                return Ok(Value::Bits(bits.slice(*hi, *lo)));
            }
        }
    }
    Ok(cur.clone())
}

/// Writes `value` (already coerced) at a resolved path.
fn write_resolved<M: Machine>(m: &mut M, rp: &ResolvedPlace, value: Value) -> Result<(), SimError> {
    if let Root::Var(i) = rp.root {
        m.on_var_write(i);
    }
    let p = m.parts();
    let root: &mut Value = match rp.root {
        Root::Var(i) => p
            .vars
            .get_mut(i)
            .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?,
        Root::Local { frame, slot } => p
            .frames
            .get_mut(frame)
            .and_then(|f| f.locals.get_mut(slot))
            .ok_or_else(|| SimError::eval(format!("missing local slot {slot}")))?,
    };
    write_steps(root, &rp.steps, value)
}

/// Writes `value` (coerced to the target's type) into a place.
fn write_cplace<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    place: &CPlace,
    value: Value,
) -> Result<(), SimError> {
    // Whole-variable and whole-local writes (the overwhelmingly common
    // case) skip place resolution entirely.
    match place {
        CPlace::Var(i) => {
            let decl = t
                .system
                .variables
                .get(*i as usize)
                .ok_or_else(|| SimError::eval(format!("missing variable v{i}")))?;
            m.on_var_write(*i as usize);
            m.parts().vars[*i as usize] = coerce(value, &decl.ty);
            Ok(())
        }
        CPlace::Local(slot) => {
            let slot = *slot as usize;
            let p = m.parts();
            let frame_abs = p.frames.len() - 1;
            let ty = local_ty(t, p.frames, frame_abs, slot)?;
            p.frames[frame_abs].locals[slot] = coerce(value, &ty);
            Ok(())
        }
        CPlace::Path(path) => {
            let ty = path
                .ty
                .clone()
                .ok_or_else(|| untyped_place_error(&path.root))?;
            let frame_abs = m.parts().frames.len() - 1;
            let rp = resolve_cpath(m, path, frame_abs)?;
            write_resolved(m, &rp, coerce(value, &ty))
        }
    }
}

// ---- calls ----

/// Pushes a callee frame: `in` arguments evaluated, `out`/`inout`
/// destinations resolved now and copied back at return.
fn enter_procedure<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    procedure: usize,
    args: &[CArg],
) -> Result<(), SimError> {
    let proc = &t.system.procedures[procedure];
    let caller_frame_abs = m.parts().frames.len() - 1;
    let mut locals = Vec::with_capacity(proc.slot_count());
    let mut copyback = Vec::new();
    for (i, (arg, param)) in args.iter().zip(&proc.params).enumerate() {
        match (arg, param.mode) {
            (CArg::In(e), ParamMode::In) => {
                locals.push(coerce(eval(m, e)?.clone(), &param.ty));
            }
            (CArg::Out(place), ParamMode::Out) => {
                locals.push(Value::default_of(&param.ty));
                let (rp, ty) = resolve_cplace(t, m, place, caller_frame_abs)?;
                copyback.push((i, rp, ty));
            }
            (CArg::InOut(place), ParamMode::InOut) => {
                locals.push(coerce(read_cplace(m, place)?, &param.ty));
                let (rp, ty) = resolve_cplace(t, m, place, caller_frame_abs)?;
                copyback.push((i, rp, ty));
            }
            _ => {
                return Err(SimError::eval(format!(
                    "argument mode mismatch calling `{}`",
                    proc.name
                )))
            }
        }
    }
    for l in &proc.locals {
        locals.push(Value::default_of(&l.ty));
    }
    let mut frame = Frame::new(CodeRef::Procedure(procedure), locals);
    frame.copyback = copyback;
    m.parts().frames.push(frame);
    Ok(())
}

/// Pops the current frame, performing its copy-backs. Returns `true`
/// when the process stopped running: it finished, or it restarted its
/// repeating body and the machine yields there.
fn leave_frame<M: Machine>(t: Tables<'_>, m: &mut M) -> Result<bool, SimError> {
    let frame = m.parts().frames.pop().expect("frame");
    for (slot, rp, ty) in &frame.copyback {
        m.on_copyback(rp.root);
        let v = coerce(frame.locals[*slot].clone(), ty);
        write_resolved(m, rp, v)?;
    }
    if !m.parts().frames.is_empty() {
        return Ok(false);
    }
    let b = m.behavior();
    if t.system.behaviors[b].repeats {
        m.parts()
            .frames
            .push(Frame::new(CodeRef::Behavior(b), Vec::new()));
        Ok(!m.restarted())
    } else {
        m.finished();
        Ok(true)
    }
}

// ---- ideal channels ----

/// Ideal-channel write: store directly into the remote variable.
fn channel_write<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    channel: ChannelId,
    addr: Option<i64>,
    data: Value,
) -> Result<(), SimError> {
    let var_idx = t.system.channel(channel).variable.index();
    m.on_var_write(var_idx);
    let ty = &t.system.variables[var_idx].ty;
    let p = m.parts();
    let slot = &mut p.vars[var_idx];
    match addr {
        Some(i) => {
            let i = usize::try_from(i)
                .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
            let elem_ty = match ty {
                Ty::Array { elem, .. } => &**elem,
                other => other,
            };
            match slot {
                Value::Array(items) => {
                    let item = items.get_mut(i).ok_or_else(|| {
                        SimError::eval(format!("channel address {i} out of range"))
                    })?;
                    *item = coerce(data, elem_ty);
                }
                _ => {
                    return Err(SimError::eval(
                        "addressed channel write to non-array variable".to_string(),
                    ))
                }
            }
        }
        None => *slot = coerce(data, ty),
    }
    Ok(())
}

/// Ideal-channel read: fetch directly from the remote variable.
fn channel_read<M: Machine>(
    t: Tables<'_>,
    m: &mut M,
    channel: ChannelId,
    addr: Option<i64>,
) -> Result<Value, SimError> {
    let var_idx = t.system.channel(channel).variable.index();
    let p = m.parts();
    let value = &p.vars[var_idx];
    match addr {
        Some(i) => {
            let i = usize::try_from(i)
                .map_err(|_| SimError::eval(format!("negative channel address {i}")))?;
            match value {
                Value::Array(items) => items
                    .get(i)
                    .cloned()
                    .ok_or_else(|| SimError::eval(format!("channel address {i} out of range"))),
                _ => Err(SimError::eval(
                    "addressed channel read from non-array variable".to_string(),
                )),
            }
        }
        None => Ok(value.clone()),
    }
}

/// The error for a compiled place whose type could not be resolved at
/// compile time (today: a local referenced from a behavior body).
fn untyped_place_error(root: &CRoot) -> SimError {
    match root {
        CRoot::Local(_) => SimError::eval("local slot referenced outside a procedure".to_string()),
        CRoot::Var(_) => SimError::eval("place cannot be typed in this scope".to_string()),
    }
}

/// Writes `value` through a resolved navigation path.
fn write_steps(root: &mut Value, steps: &[Step], value: Value) -> Result<(), SimError> {
    match steps.split_first() {
        None => {
            *root = value;
            Ok(())
        }
        Some((Step::Elem(i), rest)) => match root {
            Value::Array(items) => {
                let slot = items
                    .get_mut(*i)
                    .ok_or_else(|| SimError::eval(format!("array index {i} out of range")))?;
                write_steps(slot, rest, value)
            }
            other => Err(SimError::eval(format!("indexing non-array value {other}"))),
        },
        Some((Step::Slice(hi, lo), rest)) => {
            if !rest.is_empty() {
                return Err(SimError::eval(
                    "slice must be the last projection of a write target".to_string(),
                ));
            }
            let ty = root.ty();
            let mut bits = root.to_bits();
            if *hi >= bits.width() {
                return Err(SimError::eval(format!(
                    "slice {hi} downto {lo} out of range for width {}",
                    bits.width()
                )));
            }
            bits.write_slice(*hi, *lo, &value.to_bits().resized(hi - lo + 1));
            *root = Value::from_bits(&ty, &bits);
            Ok(())
        }
    }
}
