//! The staged per-shard interpreter of the parallel delta-cycle kernel.
//!
//! A parallel round forks one job per shard: each worker executes its
//! runnable processes against a **read-only snapshot** of signal state
//! and its shard's **exclusively owned slice** of variable storage (the
//! partitioner's hard constraint, [`ifsyn_partition::plan_shards`]).
//! Everything that would touch shared scheduler state — pending signal
//! writes, sleeps, wait registrations, watchdogs — is *staged* as a
//! [`Staged`] op instead of applied.
//!
//! At the barrier the kernel replays every process's staged ops **in the
//! scalar ready-queue pop order**. Because a delta round never makes a
//! staged write visible mid-round (two-phase signal update) and never
//! lets two shards share a variable, the replay reconstructs the exact
//! scalar execution: identical pending-write order (so identical
//! conflict resolution and trace), identical `event_seq` assignment (so
//! identical heap tie-breaking and `heap_peak`), identical error choice
//! (first in pop order wins). The result is byte-identical to the
//! scalar kernel at any thread count — the correctness bar the
//! differential suite (`tests/parallel_differential.rs`) enforces.
//!
//! Workers run the shared interpreter ([`crate::interp`]); only the
//! [`Machine`] hooks below differ from the scalar kernel's.

use std::sync::Arc;

use ifsyn_spec::{SignalId, System, Value};

use crate::error::SimError;
use crate::exec::RegFile;
use crate::interp::{self, Machine, Parts, Tables};
use crate::process::{Process, Status};
use crate::program::{CompiledCond, WaitSpec};

/// Aggregate counters of the parallel engine.
///
/// Deliberately a **side channel** (returned next to the report by
/// [`crate::Simulator::run_to_quiescence_with_stats`], never inside it):
/// [`crate::SimReport`] must stay byte-identical across thread counts,
/// and these numbers genuinely depend on the shard plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelStats {
    /// Configured worker thread count ([`crate::SimConfig::sim_threads`]).
    pub sim_threads: usize,
    /// Shards the partitioner actually produced (≤ `sim_threads`).
    pub shards: usize,
    /// Fork/join rounds dispatched across workers.
    pub parallel_rounds: u64,
    /// Delta rounds run inline on the scalar path (sole-runnable
    /// process, or every runnable process on one shard).
    pub scalar_rounds: u64,
    /// Instructions executed per shard inside parallel rounds.
    pub shard_instrs: Vec<u64>,
    /// Instruction-weighted barrier idle time: per round, each shard
    /// contributes the gap between its instruction count and the
    /// slowest shard's. High values mean the partition is unbalanced.
    pub barrier_stall_instrs: u64,
}

impl ParallelStats {
    /// Stats of a run that never forked (scalar kernel or one shard).
    pub fn scalar(sim_threads: usize, shards: usize) -> Self {
        Self {
            sim_threads,
            shards,
            parallel_rounds: 0,
            scalar_rounds: 0,
            shard_instrs: vec![0; shards],
            barrier_stall_instrs: 0,
        }
    }
}

/// One scheduler effect staged by a worker, replayed at the barrier.
///
/// The terminal suspension of a process (everything except `Pending`)
/// is always the last op of its list; a process that ran into an error
/// or finished its body stages no terminal.
#[derive(Debug)]
pub(crate) enum Staged {
    /// Zero-delay signal write awaiting the next delta.
    Pending { signal: usize, value: Value },
    /// Timed sleep (costed instruction or `wait for`).
    Sleep { wake: u64 },
    /// Costed signal write: schedule at `wake`, sleep until then.
    TimedWrite {
        wake: u64,
        signal: usize,
        value: Value,
    },
    /// `wait on ...` registration.
    WaitOn { signals: Vec<SignalId> },
    /// `wait until <expr>` registration, with an optional watchdog.
    WaitUntil {
        cond: Arc<CompiledCond>,
        deadline: Option<u64>,
    },
    /// `wait until <signal> = <const>` registration, with an optional
    /// watchdog.
    WaitIs {
        signal: usize,
        value: Value,
        deadline: Option<u64>,
    },
}

/// One shard's work for one parallel round.
pub(crate) struct Job {
    pub shard: usize,
    pub time: u64,
    /// Signal state at round start, shared read-only by every worker.
    pub snapshot: Arc<Vec<Value>>,
    /// Full-length variable storage; only this shard's indices hold
    /// live values (the rest are placeholders).
    pub vars: Vec<Value>,
    /// `(pid, process)` pairs in ready-queue pop order.
    pub procs: Vec<(usize, Process)>,
}

/// What one process did during its shard's round.
pub(crate) struct Outcome {
    pub pid: usize,
    pub process: Process,
    pub ops: Vec<Staged>,
    pub steps: u64,
    pub asserts: u64,
    pub error: Option<SimError>,
}

/// A completed [`Job`].
pub(crate) struct JobResult {
    pub shard: usize,
    pub vars: Vec<Value>,
    pub outcomes: Vec<Outcome>,
}

/// Runs every process of `job` through the shared interpreter with
/// staging hooks.
///
/// Errors don't stop the shard — whether an error is *the* simulation
/// error is decided by ready-order at the barrier, and a worker cannot
/// know its position there.
pub(crate) fn run_job(t: Tables<'_>, max_steps: u64, regs: &mut RegFile, job: Job) -> JobResult {
    let Job {
        shard,
        time,
        snapshot,
        mut vars,
        procs,
    } = job;
    let mut outcomes = Vec::with_capacity(procs.len());
    for (pid, mut process) in procs {
        let mut w = Worker {
            max_steps,
            time,
            snapshot: &snapshot,
            vars: &mut vars,
            regs: &mut *regs,
            proc: &mut process,
            ops: Vec::new(),
            asserts: 0,
        };
        let mut steps = 0u64;
        let error = interp::run_until_suspend(t, &mut w, &mut steps).err();
        let (ops, asserts) = (w.ops, w.asserts);
        process.instrs_executed += steps;
        outcomes.push(Outcome {
            pid,
            process,
            ops,
            steps,
            asserts,
            error,
        });
    }
    JobResult {
        shard,
        vars,
        outcomes,
    }
}

/// One process's execution context inside a worker: its shard's
/// variables, the round's signal snapshot, and the ops it stages.
///
/// Every suspension stages an op and ends the activation, because only
/// the barrier (knowing the full round) can decide whether time may
/// jump; a worker never advances time, so the zero-delay budget counts
/// exactly like a scalar activation up to its first suspension.
struct Worker<'w> {
    max_steps: u64,
    time: u64,
    snapshot: &'w [Value],
    vars: &'w mut [Value],
    regs: &'w mut RegFile,
    proc: &'w mut Process,
    ops: Vec<Staged>,
    asserts: u64,
}

impl Machine for Worker<'_> {
    const PARK_AT_WAIT: bool = false;

    #[inline]
    fn parts(&mut self) -> Parts<'_> {
        Parts {
            vars: &mut *self.vars,
            signals: self.snapshot,
            frames: &mut self.proc.frames,
            regs: &mut *self.regs,
        }
    }

    fn behavior(&self) -> usize {
        self.proc.behavior
    }

    fn now(&self) -> u64 {
        self.time
    }

    fn step_limit(&self) -> u64 {
        self.max_steps
    }

    fn over_budget(&self, system: &System) -> SimError {
        SimError::ZeroDelayLoop {
            behavior: system.behaviors[self.proc.behavior].name.clone(),
            time: self.time,
        }
    }

    fn drive(&mut self, signal: usize, value: Value, cost: u32) -> Result<bool, SimError> {
        if cost == 0 {
            self.ops.push(Staged::Pending { signal, value });
            return Ok(false);
        }
        self.proc.active_cycles += u64::from(cost);
        self.ops.push(Staged::TimedWrite {
            wake: self.time + u64::from(cost),
            signal,
            value,
        });
        Ok(true)
    }

    fn elapse(&mut self, cycles: u64, busy: bool) -> Result<bool, SimError> {
        if busy {
            self.proc.active_cycles += cycles;
        }
        self.ops.push(Staged::Sleep {
            wake: self.time + cycles,
        });
        Ok(true)
    }

    fn park(&mut self, wait: &WaitSpec) {
        let op = match wait {
            WaitSpec::ForCycles(_) => unreachable!("timed waits elapse, never park"),
            WaitSpec::OnSignals(signals) => Staged::WaitOn {
                signals: signals.clone(),
            },
            WaitSpec::Until(cond) => Staged::WaitUntil {
                cond: Arc::clone(cond),
                deadline: None,
            },
            WaitSpec::UntilTimeout { cond, cycles } => Staged::WaitUntil {
                cond: Arc::clone(cond),
                deadline: Some(self.time + cycles),
            },
            WaitSpec::UntilSignalIs { signal, value } => Staged::WaitIs {
                signal: signal.index(),
                value: value.clone(),
                deadline: None,
            },
            WaitSpec::UntilSignalIsTimeout {
                signal,
                value,
                cycles,
            } => Staged::WaitIs {
                signal: signal.index(),
                value: value.clone(),
                deadline: Some(self.time + cycles),
            },
        };
        self.ops.push(op);
    }

    fn restarted(&mut self) -> bool {
        self.proc.iterations += 1;
        true
    }

    fn finished(&mut self) {
        self.proc.status = Status::Finished;
        self.proc.finish_time = Some(self.time);
    }

    fn assert_passed(&mut self) {
        self.asserts += 1;
    }
}
