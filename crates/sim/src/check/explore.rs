//! The exploration engine: level-synchronized breadth-first search with
//! partial-order reduction, interned compact states, optional parallel
//! frontier expansion and a structured state budget.
//!
//! # Determinism
//!
//! The engine expands one BFS level at a time. Expansion of the level's
//! states is side-effect-free (workers own their scratch state and only
//! read the pools), so it can run on any number of threads; all shared
//! mutation — interning, dedup, state numbering, edge/parent recording —
//! happens in a serial *commit* pass that walks the level in state
//! order. Discovery order is therefore exactly the seed's FIFO order,
//! and state numbering, pool-id assignment (hence fingerprints), error
//! propagation order and the max-states abort point are all
//! byte-identical at every thread count.
//!
//! # Partial-order reduction
//!
//! During expansion each worker scans processes in pid order; the first
//! run that dynamically qualifies as *ample* (every executed instruction
//! statically pure, no signal written, no waiter released, `done`
//! unchanged, no crash among earlier pids) is returned alone and the
//! remaining transitions — including environment faults — are deferred
//! to the successor. The commit pass enforces the cycle proviso: if an
//! ample successor is already in the dedup table, the source is
//! re-expanded in full, so every cycle in the reduced graph contains a
//! fully expanded state and no transition is deferred forever.

use ifsyn_spec::{BitVec, Value};

use crate::error::SimError;
use crate::eval::coerce;
use crate::exec::RegFile;

use super::state::{CkProc, CkState, CompactState, Dedup, EnvComp, Layout, Pools};
use super::step::RunFx;
use super::{Checker, EnvFault};

/// One transition label, stored compactly and rendered to the seed's
/// exact strings only when a trace is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StepLabel {
    /// `\`{behavior}\` runs`.
    Run(u32),
    /// `watchdog expires in \`{behavior}\``.
    Watchdog(u32),
    /// `environment flips …` / `environment forces …`, by fault index.
    Fault(u32),
}

/// One successor, described by its changed components only — the commit
/// pass re-interns exactly these and inherits the rest from the source.
pub(super) struct SuccData {
    pub label: StepLabel,
    pub cost: u64,
    /// Full signal valuation, when any signal was stored.
    sig: Option<Box<[Value]>>,
    /// Dirty variable groups with their new valuations.
    groups: Vec<(u32, Box<[Value]>)>,
    /// Changed process control states.
    procs: Vec<(u32, CkProc)>,
    /// New fault environment, when a fault struck.
    env: Option<EnvComp>,
}

/// Result of expanding one state.
pub(super) enum Expansion {
    /// A single ample transition stands in for the whole successor set.
    Ample(SuccData),
    /// The full successor set, as in the seed.
    Full {
        succs: Vec<SuccData>,
        terminal: bool,
        crashes: Vec<String>,
    },
}

/// A worker's private scratch: two materialized states, a register
/// file and an effect tracker, allocated once and reused for every
/// state the worker expands.
pub(super) struct WorkerCtx {
    cur: CkState,
    next: CkState,
    regs: RegFile,
    fx: RunFx,
}

impl WorkerCtx {
    fn new(checker: &Checker<'_>) -> Self {
        let cur = checker.initial_state();
        let next = cur.clone();
        Self {
            cur,
            next,
            regs: RegFile::with_capacity(checker.max_regs as usize),
            fx: RunFx::default(),
        }
    }

    /// Rebuilds `cur` from a compact state, reusing every buffer.
    fn materialize(&mut self, pools: &Pools, layout: &Layout, cs: CompactState) {
        let s = &mut self.cur;
        s.signals.clear();
        s.signals.extend_from_slice(pools.sigs.get(cs.sig));
        for (g, &gid) in pools.varvecs.get(cs.var).iter().enumerate() {
            let vals = pools.groups.get(gid);
            for (off, &v) in layout.group_members[g].iter().enumerate() {
                s.vars[v as usize].clone_from(&vals[off]);
            }
        }
        for (p, &pid_id) in pools.ctls.get(cs.ctl).iter().enumerate() {
            s.procs[p].clone_from(pools.procs.get(pid_id));
        }
        let env = pools.envs.get(cs.env);
        s.fault_budget.clear();
        s.fault_budget.extend_from_slice(&env.fault_budget);
        s.frozen.clear();
        s.frozen.extend_from_slice(&env.frozen);
    }
}

impl<'a> Checker<'a> {
    fn por_on(&self) -> bool {
        self.por.as_ref().is_some_and(|t| t.enabled)
    }

    /// The hard abort cap on stored states. A graceful state budget
    /// ([`super::CheckConfig::with_state_limit`]) supersedes it: a
    /// budgeted run's contract is a structured `Bounded` verdict, never
    /// an exhaustion error, regardless of where the budget sits relative
    /// to `max_states` (the budget is enforced at level boundaries, so a
    /// lower `max_states` could otherwise abort mid-level first).
    pub(super) fn hard_max_states(&self) -> usize {
        if self.config.state_limit.is_some() {
            usize::MAX
        } else {
            self.config.max_states
        }
    }

    /// Exact progress test replacing the seed's whole-state `state !=
    /// *src` comparison: the tracked effects bound what can differ, so
    /// only the touched components are compared (and usually none are —
    /// an advanced pc or a released waiter decides immediately).
    fn progress(&self, cur: &CkState, next: &CkState, fx: &RunFx, pid: Option<usize>) -> bool {
        if let Some(p) = pid {
            if next.procs[p] != cur.procs[p] {
                return true;
            }
        }
        if !fx.released.is_empty() {
            return true;
        }
        if fx.wrote_sig && next.signals != cur.signals {
            return true;
        }
        fx.dirty_groups.iter().any(|&g| {
            self.layout.group_members[g as usize]
                .iter()
                .any(|&v| next.vars[v as usize] != cur.vars[v as usize])
        })
    }

    /// Packages the changed components of `next` relative to `cur`.
    #[allow(clippy::too_many_arguments)]
    fn extract(
        &self,
        cur: &CkState,
        next: &CkState,
        fx: &RunFx,
        pid: Option<u32>,
        env_changed: bool,
        label: StepLabel,
        cost: u64,
    ) -> SuccData {
        let mut procs = Vec::new();
        let mut note = |p: u32| {
            if next.procs[p as usize] != cur.procs[p as usize]
                && !procs.iter().any(|(q, _)| *q == p)
            {
                procs.push((p, next.procs[p as usize].clone()));
            }
        };
        if let Some(p) = pid {
            note(p);
        }
        for &p in &fx.released {
            note(p);
        }
        SuccData {
            label,
            cost,
            sig: (fx.wrote_sig || env_changed).then(|| next.signals.iter().cloned().collect()),
            groups: fx
                .dirty_groups
                .iter()
                .map(|&g| (g, self.layout.extract_group(g, &next.vars)))
                .collect(),
            procs,
            env: env_changed.then(|| EnvComp {
                fault_budget: next.fault_budget.clone().into_boxed_slice(),
                frozen: next.frozen.clone().into_boxed_slice(),
            }),
        }
    }

    /// Expands one state: the seed's `successors` with the ample-set
    /// shortcut. With `por` set, the first qualifying pure run is
    /// returned alone (later pids unscanned — sound, see the module
    /// docs); otherwise the full successor set is produced in the seed's
    /// order: process runs in pid order, watchdog expiries when nothing
    /// else moves, then budgeted fault strikes in config order.
    fn expand_one(
        &self,
        ctx: &mut WorkerCtx,
        pools: &Pools,
        cs: CompactState,
        por: bool,
    ) -> Result<Expansion, SimError> {
        ctx.materialize(pools, &self.layout, cs);
        let mut succs = Vec::new();
        let mut crashes = Vec::new();
        let mut live = false;
        for pid in 0..ctx.cur.procs.len() {
            ctx.fx.reset(por);
            match self.run_one(
                &ctx.cur,
                &mut ctx.next,
                &mut ctx.regs,
                pid,
                false,
                &mut ctx.fx,
            ) {
                Ok(Some(cost)) => {
                    self.release_waiters(&mut ctx.next, &mut ctx.regs, &mut ctx.fx)?;
                    if self.progress(&ctx.cur, &ctx.next, &ctx.fx, Some(pid)) {
                        live = true;
                        let sd = self.extract(
                            &ctx.cur,
                            &ctx.next,
                            &ctx.fx,
                            Some(pid as u32),
                            false,
                            StepLabel::Run(pid as u32),
                            cost,
                        );
                        if por
                            && crashes.is_empty()
                            && ctx.fx.pure_run
                            && !ctx.fx.wrote_sig
                            && ctx.fx.released.is_empty()
                            && ctx.next.procs[pid].done == ctx.cur.procs[pid].done
                        {
                            return Ok(Expansion::Ample(sd));
                        }
                        succs.push(sd);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    live = true;
                    crashes.push(format!(
                        "`{}` crashes: {e}",
                        self.system.behaviors[pid].name
                    ));
                }
            }
        }
        if !live {
            for pid in 0..ctx.cur.procs.len() {
                ctx.fx.reset(por);
                match self.run_one(
                    &ctx.cur,
                    &mut ctx.next,
                    &mut ctx.regs,
                    pid,
                    true,
                    &mut ctx.fx,
                ) {
                    Ok(Some(cost)) => {
                        self.release_waiters(&mut ctx.next, &mut ctx.regs, &mut ctx.fx)?;
                        if self.progress(&ctx.cur, &ctx.next, &ctx.fx, Some(pid)) {
                            live = true;
                            succs.push(self.extract(
                                &ctx.cur,
                                &ctx.next,
                                &ctx.fx,
                                Some(pid as u32),
                                false,
                                StepLabel::Watchdog(pid as u32),
                                cost,
                            ));
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        live = true;
                        crashes.push(format!(
                            "watchdog expiry in `{}` crashes: {e}",
                            self.system.behaviors[pid].name
                        ));
                    }
                }
            }
        }
        let terminal = !live;
        for (fi, (idx, fault)) in self.faults.iter().enumerate() {
            if ctx.cur.fault_budget[fi] == 0 {
                continue;
            }
            match fault {
                EnvFault::FlipBit { bit, .. } => {
                    if ctx.cur.frozen[*idx] {
                        continue;
                    }
                    let mut bits = ctx.cur.signals[*idx].to_bits();
                    if *bit >= bits.width() {
                        continue;
                    }
                    let ty = ctx.cur.signals[*idx].ty();
                    let inverted = BitVec::from_u64(u64::from(!bits.bit(*bit)), 1);
                    bits.write_slice(*bit, *bit, &inverted);
                    ctx.fx.reset(false);
                    ctx.next.clone_from(&ctx.cur);
                    ctx.next.signals[*idx] = Value::from_bits(&ty, &bits);
                    ctx.next.fault_budget[fi] -= 1;
                    self.release_waiters(&mut ctx.next, &mut ctx.regs, &mut ctx.fx)?;
                    succs.push(self.extract(
                        &ctx.cur,
                        &ctx.next,
                        &ctx.fx,
                        None,
                        true,
                        StepLabel::Fault(fi as u32),
                        0,
                    ));
                }
                EnvFault::StuckLow { .. } => {
                    let ty = &self.system.signals[*idx].ty;
                    ctx.fx.reset(false);
                    ctx.next.clone_from(&ctx.cur);
                    ctx.next.signals[*idx] = coerce(Value::Bit(false), ty);
                    ctx.next.frozen[*idx] = true;
                    ctx.next.fault_budget[fi] -= 1;
                    self.release_waiters(&mut ctx.next, &mut ctx.regs, &mut ctx.fx)?;
                    succs.push(self.extract(
                        &ctx.cur,
                        &ctx.next,
                        &ctx.fx,
                        None,
                        true,
                        StepLabel::Fault(fi as u32),
                        0,
                    ));
                }
            }
        }
        Ok(Expansion::Full {
            succs,
            terminal,
            crashes,
        })
    }
}

/// Exploration statistics, reported on every [`super::StateSpace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct states discovered.
    pub states: usize,
    /// Transitions (edges) recorded.
    pub transitions: usize,
    /// Quiescent (terminal) states.
    pub terminals: usize,
    /// Crash (error) edges recorded.
    pub errors: usize,
    /// Successors that landed on an already-visited state.
    pub dedup_hits: u64,
    /// States expanded through a single ample transition.
    pub ample_states: u64,
    /// States expanded in full.
    pub full_states: u64,
    /// Largest number of discovered-but-unexpanded states after any
    /// level commit.
    pub peak_frontier: usize,
    /// Worker threads used for frontier expansion.
    pub threads: usize,
    /// Full `CkState` materializations allocated over the exploration
    /// (scratch states are reused, so this stays O(threads), not
    /// O(states) — asserted by `exploration_reuses_scratch_states` and
    /// the `check_differential` suite).
    pub state_allocs: u64,
}

/// Exploration stopped at the configured state budget instead of
/// exhausting the reachable set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedInfo {
    /// The configured [`super::CheckConfig::with_state_limit`] budget.
    pub limit: usize,
    /// States discovered but never expanded when the budget hit.
    pub frontier: usize,
}

/// A parent-link back-pointer: enough to rebuild any state's discovery
/// path without storing per-state trace strings.
#[derive(Debug, Clone, Copy)]
pub(super) struct Parent {
    /// Predecessor state index (`u32::MAX` for the root).
    pub pred: u32,
    pub label: StepLabel,
    pub cost: u64,
}

/// One transition in the compressed-sparse-row edge list.
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    pub to: u32,
    pub cost: u64,
}

/// The explored (possibly reduced, possibly bounded) state graph.
pub(super) struct Graph {
    pub pools: Pools,
    pub states: Vec<CompactState>,
    pub parents: Vec<Parent>,
    /// Edges of state `i`: `edges[edge_off[i]..edge_off[i + 1]]`.
    pub edges: Vec<Edge>,
    pub edge_off: Vec<u32>,
    pub terminals: Vec<u32>,
    pub errors: Vec<(u32, String)>,
    pub stats: CheckStats,
    pub bounded: Option<BoundedInfo>,
}

/// Serial commit of one full expansion's results.
#[allow(clippy::too_many_arguments)]
fn commit_full(
    checker: &Checker<'_>,
    g: &mut Graph,
    dedup: &mut Dedup,
    si: usize,
    succs: Vec<SuccData>,
    terminal: bool,
    crashes: Vec<String>,
) -> Result<(), SimError> {
    if terminal {
        g.terminals.push(si as u32);
    }
    for label in crashes {
        g.errors.push((si as u32, label));
    }
    for sd in succs {
        let (cs, label, cost) = intern_succ(&mut g.pools, g.states[si], sd);
        let fp = cs.fingerprint();
        let ni = match dedup.probe(cs, fp) {
            Some(i) => {
                g.stats.dedup_hits += 1;
                i
            }
            None => {
                let i = g.states.len();
                if i >= checker.hard_max_states() {
                    return Err(SimError::eval(format!(
                        "reachable state space exceeds {} states; \
                         reduce the system or raise CheckConfig::max_states",
                        checker.config.max_states
                    )));
                }
                g.states.push(cs);
                dedup.insert(cs, fp, i as u32);
                g.parents.push(Parent {
                    pred: si as u32,
                    label,
                    cost,
                });
                i as u32
            }
        };
        g.edges.push(Edge { to: ni, cost });
    }
    Ok(())
}

/// Re-interns a successor's changed components over its source state.
fn intern_succ(
    pools: &mut Pools,
    src: CompactState,
    sd: SuccData,
) -> (CompactState, StepLabel, u64) {
    let SuccData {
        label,
        cost,
        sig,
        groups,
        procs,
        env,
    } = sd;
    let sig_id = match sig {
        Some(v) => pools.sigs.intern(v),
        None => src.sig,
    };
    let var_id = if groups.is_empty() {
        src.var
    } else {
        let mut vv = pools.varvecs.get(src.var).to_vec();
        for (grp, vals) in groups {
            vv[grp as usize] = pools.groups.intern(vals);
        }
        pools.varvecs.intern(vv.into_boxed_slice())
    };
    let ctl_id = if procs.is_empty() {
        src.ctl
    } else {
        let mut cv = pools.ctls.get(src.ctl).to_vec();
        for (p, proc) in procs {
            cv[p as usize] = pools.procs.intern(proc);
        }
        pools.ctls.intern(cv.into_boxed_slice())
    };
    let env_id = match env {
        Some(e) => pools.envs.intern(e),
        None => src.env,
    };
    (
        CompactState {
            sig: sig_id,
            var: var_id,
            ctl: ctl_id,
            env: env_id,
        },
        label,
        cost,
    )
}

/// Interns a fully materialized state (the root).
fn intern_full(pools: &mut Pools, layout: &Layout, s: &CkState) -> CompactState {
    let sig = pools.sigs.intern(s.signals.iter().cloned().collect());
    let var_ids: Box<[u32]> = (0..layout.groups())
        .map(|grp| {
            pools
                .groups
                .intern(layout.extract_group(grp as u32, &s.vars))
        })
        .collect();
    let var = pools.varvecs.intern(var_ids);
    let ctl_ids: Box<[u32]> = s
        .procs
        .iter()
        .map(|p| pools.procs.intern(p.clone()))
        .collect();
    let ctl = pools.ctls.intern(ctl_ids);
    let env = pools.envs.intern(EnvComp {
        fault_budget: s.fault_budget.clone().into_boxed_slice(),
        frozen: s.frozen.clone().into_boxed_slice(),
    });
    CompactState { sig, var, ctl, env }
}

impl<'a> Checker<'a> {
    /// Explores the reachable graph; see [`Checker::explore`] for the
    /// error contract.
    pub(super) fn explore_graph(&self) -> Result<Graph, SimError> {
        let threads = self.config.threads.max(1);
        let por = self.por_on();
        let mut ctxs: Vec<WorkerCtx> = (0..threads).map(|_| WorkerCtx::new(self)).collect();
        let mut state_allocs = 2 * threads as u64;

        let mut g = Graph {
            pools: Pools::new(),
            states: Vec::new(),
            parents: Vec::new(),
            edges: Vec::new(),
            edge_off: vec![0],
            terminals: Vec::new(),
            errors: Vec::new(),
            stats: CheckStats {
                threads,
                ..CheckStats::default()
            },
            bounded: None,
        };
        let mut dedup = Dedup::new();

        let mut init = self.initial_state();
        state_allocs += 1;
        {
            let ctx = &mut ctxs[0];
            ctx.fx.reset(false);
            self.release_waiters(&mut init, &mut ctx.regs, &mut ctx.fx)?;
        }
        let init_cs = intern_full(&mut g.pools, &self.layout, &init);
        dedup.insert(init_cs, init_cs.fingerprint(), 0);
        g.states.push(init_cs);
        g.parents.push(Parent {
            pred: u32::MAX,
            label: StepLabel::Run(0),
            cost: 0,
        });

        let (mut l0, mut l1) = (0usize, 1usize);
        'levels: while l0 < l1 {
            let level_len = l1 - l0;
            let results: Vec<Result<Expansion, SimError>> =
                if threads == 1 || level_len < threads * 8 {
                    let ctx = &mut ctxs[0];
                    let pools = &g.pools;
                    g.states[l0..l1]
                        .iter()
                        .map(|&cs| self.expand_one(ctx, pools, cs, por))
                        .collect()
                } else {
                    let chunk = level_len.div_ceil(threads);
                    let level = &g.states[l0..l1];
                    let pools = &g.pools;
                    std::thread::scope(|sc| {
                        let mut handles = Vec::with_capacity(threads);
                        for (t, ctx) in ctxs.iter_mut().enumerate() {
                            let start = t * chunk;
                            if start >= level_len {
                                break;
                            }
                            let span = &level[start..(start + chunk).min(level_len)];
                            handles.push(sc.spawn(move || {
                                span.iter()
                                    .map(|&cs| self.expand_one(ctx, pools, cs, por))
                                    .collect::<Vec<_>>()
                            }));
                        }
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("checker worker panicked"))
                            .collect()
                    })
                };

            for (k, res) in results.into_iter().enumerate() {
                let si = l0 + k;
                match res? {
                    Expansion::Ample(sd) => {
                        let (cs, label, cost) = intern_succ(&mut g.pools, g.states[si], sd);
                        let fp = cs.fingerprint();
                        if dedup.probe(cs, fp).is_some() {
                            // Cycle proviso: the deferred transitions
                            // would never be explored along this lasso —
                            // re-expand the source in full, serially.
                            let exp = {
                                let ctx = &mut ctxs[0];
                                let pools = &g.pools;
                                self.expand_one(ctx, pools, g.states[si], false)?
                            };
                            let Expansion::Full {
                                succs,
                                terminal,
                                crashes,
                            } = exp
                            else {
                                unreachable!("POR disabled for proviso re-expansion")
                            };
                            commit_full(self, &mut g, &mut dedup, si, succs, terminal, crashes)?;
                            g.stats.full_states += 1;
                        } else {
                            let i = g.states.len();
                            if i >= self.hard_max_states() {
                                return Err(SimError::eval(format!(
                                    "reachable state space exceeds {} states; \
                                     reduce the system or raise CheckConfig::max_states",
                                    self.config.max_states
                                )));
                            }
                            g.states.push(cs);
                            dedup.insert(cs, fp, i as u32);
                            g.parents.push(Parent {
                                pred: si as u32,
                                label,
                                cost,
                            });
                            g.edges.push(Edge { to: i as u32, cost });
                            g.stats.ample_states += 1;
                        }
                    }
                    Expansion::Full {
                        succs,
                        terminal,
                        crashes,
                    } => {
                        commit_full(self, &mut g, &mut dedup, si, succs, terminal, crashes)?;
                        g.stats.full_states += 1;
                    }
                }
                g.edge_off.push(g.edges.len() as u32);
            }

            let frontier = g.states.len() - l1;
            g.stats.peak_frontier = g.stats.peak_frontier.max(frontier);
            l0 = l1;
            l1 = g.states.len();
            if let Some(limit) = self.config.state_limit {
                if g.states.len() >= limit && l0 < l1 {
                    g.bounded = Some(BoundedInfo {
                        limit,
                        frontier: l1 - l0,
                    });
                    break 'levels;
                }
            }
        }

        // Pad the CSR offsets so unexpanded (frontier) states index an
        // empty edge range.
        let total = g.edges.len() as u32;
        g.edge_off.resize(g.states.len() + 1, total);
        g.stats.states = g.states.len();
        g.stats.transitions = g.edges.len();
        g.stats.terminals = g.terminals.len();
        g.stats.errors = g.errors.len();
        g.stats.state_allocs = state_allocs;
        Ok(g)
    }
}
