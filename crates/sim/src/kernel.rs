//! The discrete-event simulation kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{mpsc, Arc};

use ifsyn_partition::{plan_shards, ShardPlan};
use ifsyn_spec::{BitVec, Expr, SignalId, System, Value};

use crate::config::SimConfig;
use crate::diagnose::{diagnose, DeadlockDiagnosis, Parked};
use crate::error::SimError;
use crate::eval::{coerce, EvalCtx};
use crate::exec::{self, ExprCode, RegFile};
use crate::fault::{FaultKind, InjectedFault};
use crate::interp::{self, Machine, Parts, Tables};
use crate::process::{Process, Status, WaitKind};
use crate::program::{CodeCache, Program, WaitSpec};
use crate::report::{BehaviorOutcome, SimReport, TraceEvent};
use crate::shard::{self, Job, JobResult, Outcome, ParallelStats, Staged};

/// Upper bound on recorded [`InjectedFault`] entries, so a stuck line on
/// a long run cannot grow the report without bound.
const MAX_RECORDED_INJECTIONS: usize = 10_000;

/// A scheduled future signal write.
///
/// Ordered by `(time, seq)` so the event heap pops writes in schedule
/// order within an instant, reproducing the FIFO semantics of the old
/// per-time bucket lists.
#[derive(Debug)]
struct TimedWrite {
    time: u64,
    seq: u64,
    signal: usize,
    value: Value,
    /// Forced writes (fault injections and already-delayed writes) bypass
    /// the fault filter when they take effect.
    forced: bool,
}

impl PartialEq for TimedWrite {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for TimedWrite {}

impl PartialOrd for TimedWrite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimedWrite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A fault from the configured plan with its signal resolved to an index.
#[derive(Debug)]
struct ResolvedFault {
    signal: usize,
    kind: FaultKind,
}

/// What the fault filter decides about a write in the update phase.
enum Disposition {
    Keep,
    Drop(&'static str),
    Delay(u64),
}

/// One process's contribution to a parallel round, re-ordered into
/// scalar pop order for the barrier replay (its `Process` state has
/// already been moved home by then).
struct Replay {
    pid: usize,
    ops: Vec<Staged>,
    steps: u64,
    asserts: u64,
    error: Option<SimError>,
}

/// Round-persistent state of the parallel delta-cycle engine: the shard
/// plan, the worker channels, the shared signal snapshot and reusable
/// scratch. Lives on `run_events_parallel`'s stack inside the worker
/// thread scope, never in the `Simulator` itself.
struct ParEngine {
    plan: ShardPlan,
    /// Variable indices owned by each shard.
    shard_vars: Vec<Vec<usize>>,
    /// Parked full-length variable buffers per shard: placeholders while
    /// the shard is idle, swapped against the master copy for a round so
    /// the master's `vars` stays authoritative between rounds.
    var_bufs: Vec<Option<Vec<Value>>>,
    /// Signal state shared read-only with the workers; refreshed in
    /// place (`Arc::make_mut` plus the master's dirty list) each round,
    /// because the workers drop their handles at the barrier.
    snapshot: Arc<Vec<Value>>,
    max_steps: u64,
    /// Register file for the job the main thread runs inline.
    inline_regs: RegFile,
    /// Job channels per shard; index 0 is `None` (shard 0, when active,
    /// always runs inline on the main thread).
    job_txs: Vec<Option<mpsc::Sender<Job>>>,
    res_rx: mpsc::Receiver<JobResult>,
    /// Scratch: the current round in scalar pop order.
    round: Vec<usize>,
    /// Scratch: pid → position in `round` (stale outside the round).
    round_pos: Vec<usize>,
    /// Scratch: round pids grouped by shard, pop order within a shard.
    shard_pids: Vec<Vec<usize>>,
    /// Scratch: per-shard instruction count of the current round.
    shard_round_instrs: Vec<u64>,
    /// Scratch: outcomes re-ordered into round order for replay.
    ordered: Vec<Option<Replay>>,
    stats: ParallelStats,
}

/// Evaluates compiled expression code for one process, splitting the
/// simulator's storage fields so the shared context borrows (variables,
/// signals, the frame) coexist with the mutable register-file borrow.
fn eval_split<'s>(
    vars: &'s [Value],
    signals: &'s [Value],
    processes: &'s [Process],
    regs: &'s mut RegFile,
    pid: usize,
    code: &'s ExprCode,
) -> Result<&'s Value, SimError> {
    let frame = processes[pid]
        .frames
        .last()
        .ok_or_else(|| SimError::eval("process has no frame".to_string()))?;
    let ctx = EvalCtx {
        vars,
        signals,
        locals: &frame.locals,
    };
    exec::eval_code(&ctx, code, regs)
}

/// A deterministic discrete-event simulator over a [`System`].
///
/// Semantics (see the crate docs for the rationale):
///
/// * time advances in integer clock cycles; instructions carry cycle
///   costs; a zero-cost signal write becomes visible at the next *delta*
///   (same time instant), a cost-`c` write becomes visible at `t + c`;
/// * an event is a signal *value change*;
/// * `wait until` is level-sensitive: if the condition already holds the
///   process continues without suspending.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use ifsyn_sim::Simulator;
/// use ifsyn_spec::{System, Ty, dsl::*};
///
/// let mut sys = System::new("handshake");
/// let m = sys.add_module("chip");
/// let req = sys.add_signal("REQ", Ty::Bit);
/// let ack = sys.add_signal("ACK", Ty::Bit);
/// let a = sys.add_behavior("producer", m);
/// sys.behavior_mut(a).body = vec![
///     drive_cost(req, bit_const(true), 1),
///     wait_until(eq(signal(ack), bit_const(true))),
/// ];
/// let b = sys.add_behavior("consumer", m);
/// sys.behavior_mut(b).body = vec![
///     wait_until(eq(signal(req), bit_const(true))),
///     drive_cost(ack, bit_const(true), 1),
/// ];
///
/// let report = Simulator::new(&sys)?.run_to_quiescence()?;
/// assert_eq!(report.finish_time(a), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    /// The compiled code, borrowed by the interpreter apart from the
    /// mutable `Kernel` state. Its blocks sit behind `Arc`s so a
    /// [`CodeCache`] can share identical blocks between simulator
    /// instances (and `Arc`, not `Rc`, keeps the simulator `Send` for
    /// the parallel sweep driver).
    program: Program,
    kernel: Kernel<'a>,
}

/// The mutable state of one simulation: storage, processes and the
/// event scheduler.
#[derive(Debug)]
struct Kernel<'a> {
    system: &'a System,
    config: SimConfig,
    /// The reusable micro-op register file, pre-sized at compile time to
    /// the widest expression in the program.
    regs: RegFile,
    time: u64,
    signals: Vec<Value>,
    vars: Vec<Value>,
    processes: Vec<Process>,
    ready: VecDeque<usize>,
    /// Zero-delay signal writes awaiting the next delta; the flag marks
    /// forced writes that bypass the fault filter.
    pending: Vec<(usize, Value, bool)>,
    /// Future signal writes: a min-heap on `(time, seq)`.
    timed_writes: BinaryHeap<Reverse<TimedWrite>>,
    /// Sleeping processes: a min-heap on `(time, seq, pid)`. Entries are
    /// lazily invalidated — a pop whose process is no longer `Sleeping`
    /// is skipped rather than eagerly removed.
    sleepers: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Watchdog deadlines of timeout waits: a min-heap on
    /// `(time, seq, pid, wait_gen)`. An entry is stale — skipped, never
    /// advancing time — unless its process is still `Waiting` with the
    /// same `wait_gen` it suspended with.
    wait_timeouts: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    /// The configured fault plan, signal names resolved to indices.
    faults: Vec<ResolvedFault>,
    /// Per signal: indices into `faults` (empty without a plan).
    signal_faults: Vec<Vec<usize>>,
    /// Scheduled one-shot injections (stuck-value forcings, bit flips):
    /// a min-heap on `(time, seq, fault index)`.
    injections: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Faults actually applied, for the report (bounded).
    injected: Vec<InjectedFault>,
    /// Fast-path flag: the plan was non-empty.
    has_faults: bool,
    /// Monotonic tiebreaker giving heap entries FIFO order per instant.
    event_seq: u64,
    /// Deadline of the current `run_events` call, mirrored into a field
    /// so the interpreter's fast-forward path can respect it.
    run_deadline: Option<u64>,
    /// Per signal: processes registered as waiters (swap-remove lists;
    /// order is irrelevant because wake order flows from `ready`).
    waiters: Vec<Vec<usize>>,
    /// Monotonic counter identifying one `register_wait` call; paired
    /// with `sig_mark` to deduplicate a sensitivity list in O(1) per
    /// signal instead of scanning the waiter list.
    reg_epoch: u64,
    /// Per signal: the `reg_epoch` that last touched it. Equal to the
    /// current epoch means this registration already covered the signal.
    sig_mark: Vec<u64>,
    /// Scratch: per-signal index of the last pending write in the batch
    /// being applied (`usize::MAX` = none); reset on use.
    last_write: Vec<usize>,
    /// Scratch: signals changed in the current delta.
    changed: Vec<usize>,
    /// Scratch: waiter snapshot while waking (reused across deltas).
    signal_events: Vec<u64>,
    /// Signals changed since the parallel engine last refreshed its
    /// shared snapshot; only tracked while `snap_track` is on.
    snap_dirty: Vec<usize>,
    /// Dirty tracking switch — on only inside a parallel run, so scalar
    /// runs pay one dead branch per signal change and no memory.
    snap_track: bool,
    trace: Vec<TraceEvent>,
    total_deltas: u64,
    total_instrs: u64,
    assertions_checked: u64,
    /// Peak combined size of the two scheduler heaps.
    heap_peak: usize,
    /// Distinct time instants the scheduler advanced through.
    time_steps: u64,
}

impl<'a> Simulator<'a> {
    /// Compiles `system` for simulation with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn new(system: &'a System) -> Result<Self, SimError> {
        Self::with_config(system, SimConfig::new())
    }

    /// Compiles `system` with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn with_config(system: &'a System, config: SimConfig) -> Result<Self, SimError> {
        Self::with_config_cached(system, config, None)
    }

    /// Compiles `system`, sharing compiled code blocks through `cache`.
    ///
    /// Batch drivers that simulate many identical (or near-identical)
    /// refined systems pass one shared [`CodeCache`] so each distinct
    /// behavior or procedure body is lowered to bytecode only once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] if the system fails validation.
    pub fn with_config_cached(
        system: &'a System,
        config: SimConfig,
        cache: Option<&CodeCache>,
    ) -> Result<Self, SimError> {
        system.check().map_err(|e| SimError::InvalidSystem {
            message: e.to_string(),
        })?;
        let program = Program::compile_cached(system, &config.cost_model, cache);
        let max_regs = program
            .behaviors
            .iter()
            .chain(&program.procedures)
            .map(|c| c.max_regs)
            .max()
            .unwrap_or(0);
        let signals = system
            .signals
            .iter()
            .map(|s| s.initial_value())
            .collect::<Vec<_>>();
        let vars = system
            .variables
            .iter()
            .map(|v| v.initial_value())
            .collect::<Vec<_>>();
        let processes: Vec<Process> = (0..system.behaviors.len()).map(Process::new).collect();
        let ready = (0..processes.len()).collect();
        let n_signals = signals.len();
        // Resolve fault-plan signal names once; unknown names are a
        // configuration error, not something to discover mid-run.
        let mut faults = Vec::with_capacity(config.fault_plan.faults.len());
        let mut signal_faults = vec![Vec::new(); n_signals];
        let mut injections = BinaryHeap::new();
        for f in &config.fault_plan.faults {
            let idx = system
                .signals
                .iter()
                .position(|s| s.name == f.signal)
                .ok_or_else(|| SimError::InvalidSystem {
                    message: format!("fault plan names unknown signal `{}`", f.signal),
                })?;
            let fi = faults.len();
            match f.kind {
                FaultKind::StuckAt { from, .. } => {
                    injections.push(Reverse((from, fi as u64, fi)));
                }
                FaultKind::FlipBit { at, .. } => {
                    injections.push(Reverse((at, fi as u64, fi)));
                }
                FaultKind::DelayWrites { .. } | FaultKind::DropWrites { .. } => {}
            }
            signal_faults[idx].push(fi);
            faults.push(ResolvedFault {
                signal: idx,
                kind: f.kind.clone(),
            });
        }
        let has_faults = !faults.is_empty();
        let kernel = Kernel {
            system,
            config,
            regs: RegFile::with_capacity(max_regs as usize),
            time: 0,
            signals,
            vars,
            processes,
            ready,
            pending: Vec::new(),
            timed_writes: BinaryHeap::new(),
            sleepers: BinaryHeap::new(),
            wait_timeouts: BinaryHeap::new(),
            faults,
            signal_faults,
            injections,
            injected: Vec::new(),
            has_faults,
            event_seq: 0,
            run_deadline: None,
            waiters: vec![Vec::new(); n_signals],
            reg_epoch: 0,
            sig_mark: vec![0; n_signals],
            last_write: vec![usize::MAX; n_signals],
            changed: Vec::new(),
            signal_events: vec![0; n_signals],
            snap_dirty: Vec::new(),
            snap_track: false,
            trace: Vec::new(),
            total_deltas: 0,
            total_instrs: 0,
            assertions_checked: 0,
            heap_peak: 0,
            time_steps: 0,
        };
        Ok(Self { program, kernel })
    }

    /// Runs until no further event can occur, then reports.
    ///
    /// Quiescence means: every process is finished, or suspended on a wait
    /// that nothing pending can satisfy. Server processes idling on their
    /// bus is the expected quiescent state of a refined system.
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] — simulated time passed the configured cap.
    /// * [`SimError::DeltaOverflow`] / [`SimError::ZeroDelayLoop`] —
    ///   zero-time oscillation.
    /// * [`SimError::Eval`] — a runtime type or bounds violation.
    pub fn run_to_quiescence(self) -> Result<SimReport, SimError> {
        self.run_to_quiescence_with_stats().map(|(r, _)| r)
    }

    /// Like [`Simulator::run_to_quiescence`], additionally returning the
    /// parallel engine's counters ([`ParallelStats`]).
    ///
    /// The stats are a side channel on purpose: the report itself is
    /// byte-identical at any [`SimConfig::sim_threads`] value, while the
    /// stats describe how the work was actually spread.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_to_quiescence`].
    pub fn run_to_quiescence_with_stats(mut self) -> Result<(SimReport, ParallelStats), SimError> {
        let t = Tables {
            system: self.kernel.system,
            program: &self.program,
        };
        let k = &mut self.kernel;
        let stats = k.run_all(t, None)?;
        if k.config.fail_on_deadlock {
            let stuck = k.processes.iter().any(|p| {
                matches!(p.status, Status::Waiting(_)) && !k.system.behaviors[p.behavior].repeats
            });
            if stuck {
                let diagnosis = k.diagnosis(t).expect("a blocked process exists");
                return Err(SimError::Deadlock {
                    diagnosis: Box::new(diagnosis),
                });
            }
        }
        Ok((self.kernel.into_report(), stats))
    }

    /// Runs until time `deadline` (inclusive) or quiescence, whichever
    /// comes first, then reports.
    ///
    /// Unlike [`Simulator::run_to_quiescence`] this terminates cleanly
    /// for free-running systems (periodic producers, servers fed by
    /// repeating clients) that never become quiescent.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_to_quiescence`], except
    /// that reaching the deadline is success, not a timeout.
    pub fn run_until(self, deadline: u64) -> Result<SimReport, SimError> {
        self.run_until_with_stats(deadline).map(|(r, _)| r)
    }

    /// Like [`Simulator::run_until`], additionally returning the
    /// parallel engine's counters ([`ParallelStats`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run_until`].
    pub fn run_until_with_stats(
        mut self,
        deadline: u64,
    ) -> Result<(SimReport, ParallelStats), SimError> {
        let t = Tables {
            system: self.kernel.system,
            program: &self.program,
        };
        let stats = self.kernel.run_all(t, Some(deadline))?;
        Ok((self.kernel.into_report(), stats))
    }
}

impl<'a> Kernel<'a> {
    /// Dispatches to the scalar or parallel event loop according to
    /// [`SimConfig::sim_threads`] and the shard plan.
    fn run_all(&mut self, t: Tables<'_>, deadline: Option<u64>) -> Result<ParallelStats, SimError> {
        let threads = self.config.sim_threads.max(1);
        if threads <= 1 {
            self.run_events(t, deadline)?;
            return Ok(ParallelStats::scalar(threads, 1.min(self.processes.len())));
        }
        let plan = plan_shards(self.system, threads);
        if plan.shards <= 1 {
            // One atomic group: the partitioner proved a fork can never
            // have two shards to feed, so skip the pool entirely.
            self.run_events(t, deadline)?;
            return Ok(ParallelStats::scalar(threads, plan.shards));
        }
        self.run_events_parallel(t, deadline, plan, threads)
    }

    /// The main event loop; stops at quiescence, or past `deadline`.
    fn run_events(&mut self, t: Tables<'_>, deadline: Option<u64>) -> Result<(), SimError> {
        self.run_deadline = deadline;
        loop {
            self.settle_instant(t)?;
            if !self.advance_time(t, deadline)? {
                return Ok(());
            }
        }
    }

    /// Advances to the next scheduled instant and moves its events into
    /// `pending`/`ready`. Returns `false` at quiescence or the deadline.
    fn advance_time(&mut self, t: Tables<'_>, deadline: Option<u64>) -> Result<bool, SimError> {
        let next_write = self.timed_writes.peek().map(|Reverse(w)| w.time);
        let next_sleep = self.sleepers.peek().map(|&Reverse((t, _, _))| t);
        // Stale watchdog entries must be pruned *before* choosing the
        // next instant — a satisfied wait's leftover deadline must not
        // drag simulated time forward.
        let next_timeout = self.next_live_wait_timeout();
        let next_injection = self.injections.peek().map(|&Reverse((t, _, _))| t);
        let next = [next_write, next_sleep, next_timeout, next_injection]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else { return Ok(false) };
        if let Some(deadline) = deadline {
            if next > deadline {
                self.time = deadline;
                return Ok(false);
            }
        }
        if next > self.config.max_time {
            return Err(SimError::Timeout {
                max_time: self.config.max_time,
                diagnosis: self.diagnosis(t).map(Box::new),
            });
        }
        self.time = next;
        self.time_steps += 1;
        while self
            .timed_writes
            .peek()
            .is_some_and(|Reverse(w)| w.time == next)
        {
            let Reverse(w) = self.timed_writes.pop().expect("peeked");
            self.pending.push((w.signal, w.value, w.forced));
        }
        while self
            .sleepers
            .peek()
            .is_some_and(|&Reverse((t, _, _))| t == next)
        {
            let Reverse((_, _, pid)) = self.sleepers.pop().expect("peeked");
            // Lazy invalidation: skip entries whose process moved on.
            if matches!(self.processes[pid].status, Status::Sleeping) {
                self.processes[pid].status = Status::Ready;
                self.ready.push_back(pid);
            }
        }
        while self
            .wait_timeouts
            .peek()
            .is_some_and(|&Reverse((t, _, _, _))| t == next)
        {
            let Reverse((_, _, pid, gen)) = self.wait_timeouts.pop().expect("peeked");
            // Same lazy invalidation as sleepers: only a process still
            // suspended on the *same* wait expires.
            let p = &self.processes[pid];
            if matches!(p.status, Status::Waiting(_)) && p.wait_gen == gen {
                self.make_ready(pid);
            }
        }
        while self
            .injections
            .peek()
            .is_some_and(|&Reverse((t, _, _))| t == next)
        {
            let Reverse((_, _, fi)) = self.injections.pop().expect("peeked");
            self.apply_injection(fi);
        }
        Ok(true)
    }

    /// Earliest watchdog deadline still attached to a live suspension,
    /// popping stale entries on the way.
    fn next_live_wait_timeout(&mut self) -> Option<u64> {
        while let Some(&Reverse((t, _, pid, gen))) = self.wait_timeouts.peek() {
            let p = &self.processes[pid];
            if matches!(p.status, Status::Waiting(_)) && p.wait_gen == gen {
                return Some(t);
            }
            self.wait_timeouts.pop();
        }
        None
    }

    /// Applies a scheduled one-shot injection (stuck-value forcing or bit
    /// flip) as a forced zero-delay write, bypassing the fault filter.
    fn apply_injection(&mut self, fi: usize) {
        let sig = self.faults[fi].signal;
        match &self.faults[fi].kind {
            FaultKind::StuckAt { value, .. } => {
                let system: &'a System = self.system;
                let v = coerce(value.clone(), &system.signals[sig].ty);
                self.pending.push((sig, v, true));
                self.record_injection(sig, "forced stuck value".to_string());
            }
            FaultKind::FlipBit { bit, .. } => {
                let bit = *bit;
                let cur = &self.signals[sig];
                let ty = cur.ty();
                let mut bits = cur.to_bits();
                if bit < bits.width() {
                    let inverted = BitVec::from_u64(u64::from(!bits.bit(bit)), 1);
                    bits.write_slice(bit, bit, &inverted);
                    let v = Value::from_bits(&ty, &bits);
                    self.pending.push((sig, v, true));
                    self.record_injection(sig, format!("bit {bit} flipped"));
                }
            }
            FaultKind::DelayWrites { .. } | FaultKind::DropWrites { .. } => {}
        }
    }

    /// Records an applied fault for the report, up to the cap.
    fn record_injection(&mut self, sig: usize, effect: String) {
        if self.injected.len() < MAX_RECORDED_INJECTIONS {
            self.injected.push(InjectedFault {
                time: self.time,
                signal: self.system.signals[sig].name.clone(),
                effect,
            });
        }
    }

    /// Decides what happens to an ordinary write to `sig` landing now.
    fn write_disposition(&self, sig: usize) -> Disposition {
        for &fi in &self.signal_faults[sig] {
            let kind = &self.faults[fi].kind;
            if !kind.window_contains(self.time) {
                continue;
            }
            match kind {
                FaultKind::StuckAt { .. } => {
                    return Disposition::Drop("write dropped (stuck line)")
                }
                FaultKind::DropWrites { .. } => return Disposition::Drop("write dropped"),
                FaultKind::DelayWrites { cycles, .. } if *cycles > 0 => {
                    return Disposition::Delay(*cycles)
                }
                _ => {}
            }
        }
        Disposition::Keep
    }

    /// Executes all delta cycles of the current time instant.
    fn settle_instant(&mut self, t: Tables<'_>) -> Result<(), SimError> {
        let mut deltas = 0u32;
        loop {
            if !self.pending.is_empty() {
                self.apply_pending();
                self.wake_on()?;
                deltas += 1;
                self.total_deltas += 1;
                if deltas > self.config.max_deltas_per_instant {
                    return Err(SimError::DeltaOverflow { time: self.time });
                }
            }
            if self.ready.is_empty() {
                if self.pending.is_empty() {
                    return Ok(());
                }
                continue;
            }
            while let Some(pid) = self.ready.pop_front() {
                if matches!(self.processes[pid].status, Status::Ready) {
                    self.run_process(t, pid)?;
                }
            }
        }
    }

    /// Spawns the worker pool and runs the event loop with fork/join
    /// delta rounds. `threads - 1` workers are spawned (the main thread
    /// executes one shard of every round itself), bounding the run to
    /// `threads` busy threads as [`SimConfig::sim_threads`] promises.
    fn run_events_parallel(
        &mut self,
        t: Tables<'_>,
        deadline: Option<u64>,
        plan: ShardPlan,
        threads: usize,
    ) -> Result<ParallelStats, SimError> {
        let shards = plan.shards;
        let mut shard_vars: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (v, owner) in plan.var_shard.iter().enumerate() {
            if let Some(s) = *owner {
                shard_vars[s].push(v);
            }
        }
        let max_regs = t
            .program
            .behaviors
            .iter()
            .chain(&t.program.procedures)
            .map(|c| c.max_regs)
            .max()
            .unwrap_or(0) as usize;
        let max_steps = self.config.max_steps_per_activation;
        let n_vars = self.vars.len();
        self.snap_dirty.clear();
        self.snap_track = true;
        let result = std::thread::scope(|scope| -> Result<ParallelStats, SimError> {
            let (res_tx, res_rx) = mpsc::channel::<JobResult>();
            let mut job_txs: Vec<Option<mpsc::Sender<Job>>> = Vec::with_capacity(shards);
            job_txs.push(None);
            for _ in 1..shards {
                let (tx, rx) = mpsc::channel::<Job>();
                job_txs.push(Some(tx));
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut regs = RegFile::with_capacity(max_regs);
                    while let Ok(job) = rx.recv() {
                        let out = shard::run_job(t, max_steps, &mut regs, job);
                        if res_tx.send(out).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(res_tx);
            let mut eng = ParEngine {
                plan,
                shard_vars,
                var_bufs: (0..shards)
                    .map(|_| Some(vec![Value::Bit(false); n_vars]))
                    .collect(),
                snapshot: Arc::new(self.signals.clone()),
                max_steps,
                inline_regs: RegFile::with_capacity(max_regs),
                job_txs,
                res_rx,
                round: Vec::new(),
                round_pos: vec![usize::MAX; self.processes.len()],
                shard_pids: vec![Vec::new(); shards],
                shard_round_instrs: vec![0; shards],
                ordered: Vec::new(),
                stats: ParallelStats::scalar(threads, shards),
            };
            self.run_events_par(t, deadline, &mut eng)?;
            Ok(eng.stats)
            // `eng` (and with it every job sender) drops here, so the
            // workers' `recv` fails and the scope joins them — on the
            // error path too.
        });
        self.snap_track = false;
        self.snap_dirty.clear();
        result
    }

    /// The parallel twin of [`Simulator::run_events`].
    fn run_events_par(
        &mut self,
        t: Tables<'_>,
        deadline: Option<u64>,
        eng: &mut ParEngine,
    ) -> Result<(), SimError> {
        self.run_deadline = deadline;
        loop {
            self.settle_instant_par(t, eng)?;
            if !self.advance_time(t, deadline)? {
                return Ok(());
            }
        }
    }

    /// The parallel twin of [`Simulator::settle_instant`]: drains the
    /// ready queue round by round. A round whose runnable processes span
    /// multiple shards forks across the pool; anything else (one
    /// runnable process, or all on one shard) runs the unmodified scalar
    /// path, keeping the fast-forward time jumps.
    fn settle_instant_par(&mut self, t: Tables<'_>, eng: &mut ParEngine) -> Result<(), SimError> {
        let mut deltas = 0u32;
        loop {
            if !self.pending.is_empty() {
                self.apply_pending();
                self.wake_on()?;
                deltas += 1;
                self.total_deltas += 1;
                if deltas > self.config.max_deltas_per_instant {
                    return Err(SimError::DeltaOverflow { time: self.time });
                }
            }
            if self.ready.is_empty() {
                if self.pending.is_empty() {
                    return Ok(());
                }
                continue;
            }
            // Like the scalar drain, processes woken mid-drain (by a
            // fast-forwarded write) join before the next pending batch
            // applies — each pass re-inspects what is left.
            while !self.ready.is_empty() {
                let mut runnable = 0usize;
                let mut first_shard = usize::MAX;
                let mut multi = false;
                for &pid in &self.ready {
                    if matches!(self.processes[pid].status, Status::Ready) {
                        runnable += 1;
                        let s = eng.plan.shard_of[pid];
                        if first_shard == usize::MAX {
                            first_shard = s;
                        } else if s != first_shard {
                            multi = true;
                        }
                    }
                }
                if !multi {
                    if runnable > 0 {
                        eng.stats.scalar_rounds += 1;
                    }
                    while let Some(pid) = self.ready.pop_front() {
                        if matches!(self.processes[pid].status, Status::Ready) {
                            self.run_process(t, pid)?;
                        }
                    }
                } else {
                    self.run_round_parallel(t, eng)?;
                }
            }
        }
    }

    /// One fork/join round: dispatch the runnable processes to their
    /// shards, run one shard inline, then replay every staged effect in
    /// scalar pop order at the barrier (see `shard.rs` for why the
    /// replay reconstructs the scalar execution exactly).
    fn run_round_parallel(&mut self, t: Tables<'_>, eng: &mut ParEngine) -> Result<(), SimError> {
        // Capture the round in scalar pop order.
        eng.round.clear();
        while let Some(pid) = self.ready.pop_front() {
            if matches!(self.processes[pid].status, Status::Ready) {
                eng.round.push(pid);
            }
        }
        for (i, &pid) in eng.round.iter().enumerate() {
            eng.round_pos[pid] = i;
        }
        // Refresh the shared snapshot in place: the workers dropped
        // their handles at the previous barrier, so the Arc is unique
        // and only signals that actually changed are cloned.
        {
            let snap = Arc::make_mut(&mut eng.snapshot);
            for &sig in &self.snap_dirty {
                snap[sig] = self.signals[sig].clone();
            }
            self.snap_dirty.clear();
        }
        // Build one job per active shard: move the shard's variable
        // values and processes out of the master (placeholders stay
        // behind), pop order preserved within each shard.
        for pids in &mut eng.shard_pids {
            pids.clear();
        }
        for &pid in &eng.round {
            eng.shard_pids[eng.plan.shard_of[pid]].push(pid);
        }
        let mut inline_job: Option<Job> = None;
        let mut dispatched = 0usize;
        for s in 0..eng.shard_pids.len() {
            if eng.shard_pids[s].is_empty() {
                continue;
            }
            let mut vars = eng.var_bufs[s].take().expect("buffer parked at barrier");
            for &v in &eng.shard_vars[s] {
                std::mem::swap(&mut self.vars[v], &mut vars[v]);
            }
            let procs = eng.shard_pids[s]
                .iter()
                .map(|&pid| {
                    let placeholder = Process {
                        behavior: self.processes[pid].behavior,
                        frames: Vec::new(),
                        status: Status::Finished,
                        registered: Vec::new(),
                        wait_gen: 0,
                        finish_time: None,
                        iterations: 0,
                        active_cycles: 0,
                        instrs_executed: 0,
                    };
                    (
                        pid,
                        std::mem::replace(&mut self.processes[pid], placeholder),
                    )
                })
                .collect();
            let job = Job {
                shard: s,
                time: self.time,
                snapshot: Arc::clone(&eng.snapshot),
                vars,
                procs,
            };
            match &eng.job_txs[s] {
                // The first active shard (shard 0 when present — it has
                // no worker) runs inline so the main thread pulls its
                // weight instead of idling at the barrier.
                Some(tx) if inline_job.is_some() => {
                    tx.send(job).expect("worker alive inside the scope");
                    dispatched += 1;
                }
                _ => inline_job = Some(job),
            }
        }
        for n in &mut eng.shard_round_instrs {
            *n = 0;
        }
        eng.ordered.clear();
        eng.ordered.resize_with(eng.round.len(), || None);
        let inline_job = inline_job.expect("a multi-shard round has at least two active shards");
        let inline_res = shard::run_job(t, eng.max_steps, &mut eng.inline_regs, inline_job);
        self.integrate_result(eng, inline_res);
        for _ in 0..dispatched {
            let res = eng
                .res_rx
                .recv()
                .expect("a worker disappeared mid-round (panic in shard executor)");
            self.integrate_result(eng, res);
        }
        let round_max = eng.shard_round_instrs.iter().copied().max().unwrap_or(0);
        for (s, &n) in eng.shard_round_instrs.iter().enumerate() {
            eng.stats.shard_instrs[s] += n;
            eng.stats.barrier_stall_instrs += round_max - n;
        }
        eng.stats.parallel_rounds += 1;
        // Barrier replay in scalar pop order. Only the round's last
        // process may fast-forward time — exactly the scalar condition
        // (the ready queue is empty when it suspends) — and on success
        // it simply keeps running on the scalar path.
        let last = eng.round.len() - 1;
        for i in 0..eng.round.len() {
            let rep = eng.ordered[i].take().expect("every round member reported");
            let pid = rep.pid;
            self.total_instrs += rep.steps;
            self.assertions_checked += rep.asserts;
            for op in rep.ops {
                match op {
                    Staged::Pending { signal, value } => {
                        self.pending.push((signal, value, false));
                    }
                    Staged::Sleep { wake } => {
                        if i == last && self.try_fast_advance(wake)? {
                            self.run_process(t, pid)?;
                        } else {
                            self.sleep_until(pid, wake);
                        }
                    }
                    Staged::TimedWrite {
                        wake,
                        signal,
                        value,
                    } => {
                        if i == last {
                            match self.try_fast_advance_write(wake, signal, value)? {
                                None => self.run_process(t, pid)?,
                                Some(v) => {
                                    self.schedule_write(wake, signal, v, false);
                                    self.sleep_until(pid, wake);
                                }
                            }
                        } else {
                            self.schedule_write(wake, signal, value, false);
                            self.sleep_until(pid, wake);
                        }
                    }
                    Staged::WaitOn { signals } => {
                        self.register_wait(pid, WaitKind::Signals, &signals);
                    }
                    Staged::WaitUntil { cond, deadline } => {
                        self.register_wait(
                            pid,
                            WaitKind::Until(Arc::clone(&cond)),
                            &cond.sensitivity,
                        );
                        if let Some(d) = deadline {
                            self.arm_watchdog(pid, d);
                        }
                    }
                    Staged::WaitIs {
                        signal,
                        value,
                        deadline,
                    } => {
                        self.register_wait_one(pid, WaitKind::SignalIs(signal, value), signal);
                        if let Some(d) = deadline {
                            self.arm_watchdog(pid, d);
                        }
                    }
                }
            }
            // First error in pop order wins; the staged effects of every
            // later process are discarded, exactly as the scalar kernel
            // would never have run them.
            if let Some(e) = rep.error {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Integrates one shard's result at the barrier: variables swap back
    /// (master copy authoritative again), processes move home, outcomes
    /// line up in scalar pop order for the replay.
    fn integrate_result(&mut self, eng: &mut ParEngine, res: JobResult) {
        let JobResult {
            shard,
            mut vars,
            outcomes,
        } = res;
        for &v in &eng.shard_vars[shard] {
            std::mem::swap(&mut self.vars[v], &mut vars[v]);
        }
        eng.var_bufs[shard] = Some(vars);
        for out in outcomes {
            let Outcome {
                pid,
                process,
                ops,
                steps,
                asserts,
                error,
            } = out;
            eng.shard_round_instrs[shard] += steps;
            self.processes[pid] = process;
            eng.ordered[eng.round_pos[pid]] = Some(Replay {
                pid,
                ops,
                steps,
                asserts,
                error,
            });
        }
    }

    /// Applies zero-delay writes, recording changed signals in the
    /// `changed` scratch buffer.
    ///
    /// Multiple writes to one signal within the same delta collapse to the
    /// last one (VHDL projected-waveform semantics), producing at most one
    /// event per signal per delta. Runs allocation-free: the pending batch
    /// and all bookkeeping live in reusable buffers.
    fn apply_pending(&mut self) {
        self.changed.clear();
        if self.pending.len() == 1 {
            // Single write: no collision bookkeeping needed.
            let (sig, value, forced) = self.pending.pop().expect("len checked");
            self.apply_one(sig, value, forced);
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        // Pass 1: last write per signal wins.
        for (i, (sig, _, _)) in pending.iter().enumerate() {
            self.last_write[*sig] = i;
        }
        // Pass 2: apply winners in first-write order, resetting scratch.
        for (i, entry) in pending.iter_mut().enumerate() {
            let sig = entry.0;
            if self.last_write[sig] != i {
                continue;
            }
            self.last_write[sig] = usize::MAX;
            let value = std::mem::replace(&mut entry.1, Value::Bit(false));
            let forced = entry.2;
            self.apply_one(sig, value, forced);
        }
        pending.clear();
        // Processes may have queued new writes only after this returns,
        // so the swap back cannot clobber anything.
        self.pending = pending;
    }

    /// Applies one winning write (first through the fault filter, unless
    /// forced), recording the event if it changed.
    fn apply_one(&mut self, sig: usize, value: Value, forced: bool) {
        if self.has_faults && !forced {
            match self.write_disposition(sig) {
                Disposition::Keep => {}
                Disposition::Drop(effect) => {
                    self.record_injection(sig, effect.to_string());
                    return;
                }
                Disposition::Delay(cycles) => {
                    self.record_injection(sig, format!("write delayed {cycles} cycles"));
                    // Re-queued as forced so it cannot be delayed again.
                    self.schedule_write(self.time + cycles, sig, value, true);
                    return;
                }
            }
        }
        if self.signals[sig] != value {
            self.signals[sig] = value;
            self.signal_events[sig] += 1;
            self.changed.push(sig);
            if self.snap_track {
                self.snap_dirty.push(sig);
            }
            if self.config.trace && self.trace.len() < self.config.max_trace_events {
                self.trace.push(TraceEvent {
                    time: self.time,
                    signal: ifsyn_spec::SignalId::new(sig as u32),
                    value: self.signals[sig].clone(),
                });
            }
        }
    }

    /// Wakes processes sensitive to the signals in the `changed` buffer.
    fn wake_on(&mut self) -> Result<(), SimError> {
        for ci in 0..self.changed.len() {
            let sig = self.changed[ci];
            // Iterate the waiter list in place: when a process wakes,
            // `make_ready` swap-removes its entry, so the slot at `i` is
            // refilled and the index only advances past survivors. No
            // process can suspend during a wake sweep, so no new entries
            // appear behind us.
            let mut i = 0;
            while i < self.waiters[sig].len() {
                let pid = self.waiters[sig][i];
                let sat = match &self.processes[pid].status {
                    Status::Waiting(WaitKind::Signals) => true,
                    Status::Waiting(WaitKind::Until(cond)) => {
                        // Split borrows: the condition lives in `processes`
                        // (shared), the register file is the only mutable
                        // field touched — no Arc clone on the wake path.
                        eval_split(
                            &self.vars,
                            &self.signals,
                            &self.processes,
                            &mut self.regs,
                            pid,
                            &cond.code,
                        )?
                        .as_bool()
                        .map_err(|e| SimError::eval(e.to_string()))?
                    }
                    Status::Waiting(WaitKind::SignalIs(idx, v)) => self.signals[*idx] == *v,
                    _ => false,
                };
                if sat {
                    self.make_ready(pid);
                } else {
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn make_ready(&mut self, pid: usize) {
        let mut registered = std::mem::take(&mut self.processes[pid].registered);
        for &sig in &registered {
            // Waiter lists are unordered: swap-remove instead of retain.
            if let Some(pos) = self.waiters[sig].iter().position(|&p| p == pid) {
                self.waiters[sig].swap_remove(pos);
            }
        }
        registered.clear();
        // Hand the emptied buffer back so its capacity is reused.
        self.processes[pid].registered = registered;
        self.processes[pid].status = Status::Ready;
        self.ready.push_back(pid);
    }

    fn sleep_until(&mut self, pid: usize, until: u64) {
        self.processes[pid].status = Status::Sleeping;
        self.sleepers.push(Reverse((until, self.event_seq, pid)));
        self.event_seq += 1;
        self.note_heap_size();
    }

    fn schedule_write(&mut self, time: u64, signal: usize, value: Value, forced: bool) {
        self.timed_writes.push(Reverse(TimedWrite {
            time,
            seq: self.event_seq,
            signal,
            value,
            forced,
        }));
        self.event_seq += 1;
        self.note_heap_size();
    }

    fn note_heap_size(&mut self) {
        let size = self.timed_writes.len() + self.sleepers.len();
        if size > self.heap_peak {
            self.heap_peak = size;
        }
    }

    fn register_wait(&mut self, pid: usize, kind: WaitKind, sensitivity: &[SignalId]) {
        // A fresh generation invalidates any watchdog entry left over from
        // an earlier suspension of this process.
        self.processes[pid].wait_gen += 1;
        // A fresh epoch makes every `sig_mark` entry stale at once, so
        // deduplicating a wide sensitivity list is O(1) per signal instead
        // of a scan of the waiter list. A process can never already be in
        // a waiter list here (make_ready clears its registrations before
        // it runs again), so only same-list duplicates need catching.
        self.reg_epoch += 1;
        let epoch = self.reg_epoch;
        let mut registered = std::mem::take(&mut self.processes[pid].registered);
        registered.clear();
        for s in sensitivity {
            let idx = s.index();
            if self.sig_mark[idx] != epoch {
                self.sig_mark[idx] = epoch;
                self.waiters[idx].push(pid);
                registered.push(idx);
            }
        }
        self.processes[pid].registered = registered;
        self.processes[pid].status = Status::Waiting(kind);
    }

    /// Single-signal fast path of [`register_wait`]: no epoch bump and no
    /// dedup pass — a one-element sensitivity list cannot contain
    /// duplicates. This is the shape of every generated handshake wait.
    fn register_wait_one(&mut self, pid: usize, kind: WaitKind, idx: usize) {
        self.processes[pid].wait_gen += 1;
        self.waiters[idx].push(pid);
        let registered = &mut self.processes[pid].registered;
        registered.clear();
        registered.push(idx);
        self.processes[pid].status = Status::Waiting(kind);
    }

    /// Arms a watchdog for the suspension the process just entered (must
    /// be called directly after `register_wait`).
    fn arm_watchdog(&mut self, pid: usize, deadline: u64) {
        let gen = self.processes[pid].wait_gen;
        self.wait_timeouts
            .push(Reverse((deadline, self.event_seq, pid, gen)));
        self.event_seq += 1;
    }

    /// Attempts to jump simulated time    /// Writes the cached program counter back into the process's top
    /// frame (done only at suspension points, not per instruction).
    /// Attempts to jump simulated time straight to `wake` without
    /// suspending the running process.
    ///
    /// Legal exactly when nothing else can observe the skipped interval:
    /// no undelivered zero-delay writes, no other runnable process, and
    /// no scheduled event at or before `wake`. A wake past the run
    /// deadline or the time cap declines too, so those terminations stay
    /// handled in one place (`run_events`). On success the instant
    /// counter advances just as the event loop would have done.
    fn try_fast_advance(&mut self, wake: u64) -> Result<bool, SimError> {
        if !self.ready.is_empty() {
            return Ok(false);
        }
        if wake > self.config.max_time || self.run_deadline.is_some_and(|d| wake > d) {
            return Ok(false);
        }
        if !self.pending.is_empty() {
            // `ready` is empty, so the running process is the last runner
            // of this delta round: applying the batch here is exactly the
            // settle step that would otherwise follow its suspension.
            self.apply_pending();
            self.wake_on()?;
            self.total_deltas += 1;
            if !self.ready.is_empty() {
                // The delta woke somebody; the interval is observable.
                return Ok(false);
            }
        }
        let next_write = self.timed_writes.peek().map(|Reverse(w)| w.time);
        let next_sleep = self.sleepers.peek().map(|&Reverse((t, _, _))| t);
        let next_timeout = self.next_live_wait_timeout();
        let next_injection = self.injections.peek().map(|&Reverse((t, _, _))| t);
        if next_write.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_sleep.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_timeout.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        if next_injection.is_some_and(|t| t <= wake) {
            return Ok(false);
        }
        self.time = wake;
        self.time_steps += 1;
        Ok(true)
    }

    /// Fast path for a costed signal write: when the interval to `wake`
    /// is unobservable (same conditions as [`Self::try_fast_advance`]),
    /// the write is applied as the single delta of the new instant —
    /// exactly what draining it from the timed-write heap would have done
    /// — and the caller keeps running ahead of any process it woke.
    /// Declines by handing the value back for the slow path.
    fn try_fast_advance_write(
        &mut self,
        wake: u64,
        signal: usize,
        value: Value,
    ) -> Result<Option<Value>, SimError> {
        if !self.try_fast_advance(wake)? {
            return Ok(Some(value));
        }
        self.pending.push((signal, value, false));
        self.apply_pending();
        self.wake_on()?;
        self.total_deltas += 1;
        Ok(None)
    }

    /// Runs one process until it blocks, sleeps or finishes, then flushes
    /// the executed-instruction counters in one add each.
    fn run_process(&mut self, t: Tables<'_>, pid: usize) -> Result<(), SimError> {
        let mut steps = 0u64;
        let result = interp::run_until_suspend(t, &mut Running { k: self, pid }, &mut steps);
        self.total_instrs += steps;
        self.processes[pid].instrs_executed += steps;
        result
    }

    /// Builds the per-process wait diagnosis, or `None` when nothing is
    /// suspended on a wait.
    fn diagnosis(&self, t: Tables<'_>) -> Option<DeadlockDiagnosis> {
        let parked = self
            .processes
            .iter()
            .filter_map(|p| {
                let Status::Waiting(kind) = &p.status else {
                    return None;
                };
                let wait = match kind {
                    WaitKind::Signals => {
                        let names: Vec<&str> = p
                            .registered
                            .iter()
                            .map(|&s| self.system.signals[s].name.as_str())
                            .collect();
                        format!("wait on {}", names.join(", "))
                    }
                    WaitKind::Until(cond) => {
                        format!("wait until {}", render_expr(self.system, &cond.display))
                    }
                    WaitKind::SignalIs(sig, v) => {
                        format!("wait until {} = {v}", self.system.signals[*sig].name)
                    }
                };
                Some(Parked {
                    behavior: p.behavior,
                    wait,
                    sens: p.registered.clone(),
                })
            })
            .collect();
        diagnose(self.system, t.program, &self.signals, self.time, parked)
    }

    fn into_report(self) -> SimReport {
        let behaviors = self
            .processes
            .iter()
            .map(|p| BehaviorOutcome {
                name: self.system.behaviors[p.behavior].name.clone(),
                finish_time: p.finish_time,
                iterations: p.iterations,
                blocked: matches!(p.status, Status::Waiting(_)),
                repeats: self.system.behaviors[p.behavior].repeats,
                active_cycles: p.active_cycles,
                instrs_executed: p.instrs_executed,
            })
            .collect();
        let variables = self
            .system
            .variables
            .iter()
            .zip(&self.vars)
            .map(|(d, v)| (d.name.clone(), v.clone()))
            .collect();
        let signals = self
            .system
            .signals
            .iter()
            .zip(&self.signals)
            .map(|(d, v)| (d.name.clone(), v.clone()))
            .collect();
        let signal_events = self
            .system
            .signals
            .iter()
            .zip(&self.signal_events)
            .map(|(d, &n)| (d.name.clone(), n))
            .collect();
        let blocked_at_exit = self
            .processes
            .iter()
            .filter(|p| {
                !self.system.behaviors[p.behavior].repeats && !matches!(p.status, Status::Finished)
            })
            .count();
        SimReport {
            time: self.time,
            behaviors,
            variables,
            signals,
            signal_events,
            injected_faults: self.injected,
            blocked_at_exit,
            trace: self.trace,
            total_deltas: self.total_deltas,
            total_instrs: self.total_instrs,
            assertions_checked: self.assertions_checked,
            heap_peak: self.heap_peak,
            time_steps: self.time_steps,
        }
    }
}

/// The scalar kernel as an interpreter client: one process running
/// against the kernel's storage, with writes queued as pending or timed
/// writes and time fast-forwarded past unobservable intervals.
struct Running<'k, 'a> {
    k: &'k mut Kernel<'a>,
    pid: usize,
}

impl Machine for Running<'_, '_> {
    const PARK_AT_WAIT: bool = false;

    #[inline]
    fn parts(&mut self) -> Parts<'_> {
        let k = &mut *self.k;
        Parts {
            vars: &mut k.vars,
            signals: &k.signals,
            frames: &mut k.processes[self.pid].frames,
            regs: &mut k.regs,
        }
    }

    fn behavior(&self) -> usize {
        self.k.processes[self.pid].behavior
    }

    fn now(&self) -> u64 {
        self.k.time
    }

    fn step_limit(&self) -> u64 {
        self.k.config.max_steps_per_activation
    }

    fn over_budget(&self, system: &System) -> SimError {
        SimError::ZeroDelayLoop {
            behavior: system.behaviors[self.behavior()].name.clone(),
            time: self.k.time,
        }
    }

    #[inline]
    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError> {
        if cost == 0 {
            self.k.pending.push((signal, value, false));
            return Ok(false);
        }
        self.k.processes[self.pid].active_cycles += u64::from(cost);
        let wake = self.k.time + u64::from(cost);
        match self.k.try_fast_advance_write(wake, signal, value)? {
            None => Ok(false),
            Some(value) => {
                self.k.schedule_write(wake, signal, value, false);
                self.k.sleep_until(self.pid, wake);
                Ok(true)
            }
        }
    }

    #[inline]
    fn elapse(&mut self, cycles: u64, busy: bool) -> Result<bool, SimError> {
        if busy {
            self.k.processes[self.pid].active_cycles += cycles;
        }
        let wake = self.k.time + cycles;
        if self.k.try_fast_advance(wake)? {
            return Ok(false);
        }
        self.k.sleep_until(self.pid, wake);
        Ok(true)
    }

    fn park(&mut self, wait: &WaitSpec) {
        let (k, pid) = (&mut *self.k, self.pid);
        match wait {
            WaitSpec::ForCycles(_) => unreachable!("timed waits elapse, never park"),
            WaitSpec::OnSignals(signals) => k.register_wait(pid, WaitKind::Signals, signals),
            WaitSpec::Until(cond) => {
                k.register_wait(pid, WaitKind::Until(Arc::clone(cond)), &cond.sensitivity);
            }
            WaitSpec::UntilTimeout { cond, cycles } => {
                k.register_wait(pid, WaitKind::Until(Arc::clone(cond)), &cond.sensitivity);
                k.arm_watchdog(pid, k.time + cycles);
            }
            WaitSpec::UntilSignalIs { signal, value } => {
                let idx = signal.index();
                k.register_wait_one(pid, WaitKind::SignalIs(idx, value.clone()), idx);
            }
            WaitSpec::UntilSignalIsTimeout {
                signal,
                value,
                cycles,
            } => {
                let idx = signal.index();
                k.register_wait_one(pid, WaitKind::SignalIs(idx, value.clone()), idx);
                k.arm_watchdog(pid, k.time + cycles);
            }
        }
    }

    fn restarted(&mut self) -> bool {
        self.k.processes[self.pid].iterations += 1;
        true
    }

    fn finished(&mut self) {
        let p = &mut self.k.processes[self.pid];
        p.status = Status::Finished;
        p.finish_time = Some(self.k.time);
    }

    fn assert_passed(&mut self) {
        self.k.assertions_checked += 1;
    }
}

/// Renders a wait condition compactly for diagnosis messages: signal
/// names, literal values and operators; structural forms fall back to a
/// placeholder rather than a full printout.
pub(crate) fn render_expr(system: &System, expr: &Expr) -> String {
    match expr {
        Expr::Signal(s) => system.signal(*s).name.clone(),
        Expr::Const(v) => v.to_string(),
        Expr::Unary { op, arg } => format!("{op} {}", render_expr(system, arg)),
        Expr::Binary { op, lhs, rhs } => format!(
            "{} {op} {}",
            render_expr(system, lhs),
            render_expr(system, rhs)
        ),
        _ => "<expr>".to_string(),
    }
}
