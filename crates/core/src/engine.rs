//! The simulation engine.
//!
//! One global virtual clock drives everything: simulated processes execute
//! their op streams run-until-yield, the paging daemon and releaser run as
//! scheduled events, and disks/locks/prefetch threads are deterministic
//! timelines inside [`vm`] / [`disk`]. A process executes ops while its
//! local clock does not pass the next queued event, then re-queues itself —
//! so causality between processes, daemons and I/O is preserved exactly.
//!
//! The engine is cut along its seams: this module holds the [`Engine`],
//! its builders and the dispatch loop; `dispatch` executes ops and exits
//! processes; `daemons` wakes the paging daemon and the releaser;
//! `supervise` recovers crashed components; `fleet` runs overload
//! control; `finish` assembles the results. The loop keeps only the
//! per-op, daemon and pressure events inline; every rare event has a
//! cold handler, so edits to rare paths do not move the hot one's speed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use runtime::prefetcher::PrefetchPool;
use runtime::supervisor::Supervisor;
use runtime::{BrownoutConfig, BrownoutController, OpStream, RuntimeLayer};
use sim_core::fault::{CrashComponent, FaultDomain, FaultLog, FaultPlan};
use sim_core::obs::span::{ReqId, SpanTracker};
use sim_core::rng::Pcg32;
use sim_core::sanitizer::Mutation;
use sim_core::{EventQueue, SimDuration, SimTime};
use vm::{Pid, PressureMonitor, VmSys, Vpn};

use crate::machine::MachineConfig;
use crate::timeline::TimelineSample;

mod daemons;
mod dispatch;
mod finish;
mod fleet;
mod supervise;
#[cfg(test)]
mod tests;

use dispatch::CpuPool;
pub use finish::{ProcResult, RunResult};
pub use fleet::{FleetStats, ShedRecord, TenantTail};

/// Engines alive in this process: built and not yet dropped.
static LIVE_ENGINES: AtomicUsize = AtomicUsize::new(0);

/// One engine's share of [`LIVE_ENGINES`], held for its lifetime.
struct LiveEngine;

impl LiveEngine {
    fn new() -> Self {
        LIVE_ENGINES.fetch_add(1, Ordering::AcqRel);
        LiveEngine
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        LIVE_ENGINES.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Events the engine schedules.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Run(usize),
    Pagingd,
    Releaser,
    Sample,
    /// Fault injection: the upper memory limit shrinks at this instant.
    Shrink,
    /// Fault injection: the component dies at this instant.
    Crash(CrashComponent),
    /// Supervisor probe: down components miss one beat; detections
    /// schedule restarts.
    Heartbeat,
    /// One supervised restart attempt for the component.
    Restart(CrashComponent),
    /// Checked-mode self test: apply a deliberate state corruption.
    Mutate(Mutation),
    /// Periodic memory-pressure sample feeding the brownout ladder
    /// (self-rescheduling, like `Sample`).
    Pressure,
}

/// One registered process: its stream and run-time layer, the execution
/// state the loop needs, and the result it accumulates.
struct EngineProc {
    /// What the run reports for this process; its run-time-layer and lock
    /// statistics are filled in when the run ends.
    result: ProcResult,
    stream: Box<dyn OpStream>,
    rt: Option<RuntimeLayer>,
    pool: PrefetchPool,
    local: SimTime,
    sweep_start: Option<SimTime>,
    sweep_fault_base: u64,
    primary: bool,
    /// Releaser-verified frees already credited to the admission trust
    /// score (high-water mark of the VM's per-proc `pages_released`).
    released_seen: u64,
    /// The next registration of the same pid, if it was registered again.
    next_same_pid: Option<usize>,
    /// When the process starts executing (fleet arrival instant;
    /// `SimTime::ZERO` for classic runs).
    start_at: SimTime,
    /// The open span request this process is executing under, when the
    /// span tracker is armed: a `Sweep` request between sweep marks, or
    /// a provisional whole-process `Batch` request for sweepless streams.
    span_req: Option<ReqId>,
}

impl EngineProc {
    /// The process has exited (normally, shed, or OOM-killed).
    fn finished(&self) -> bool {
        self.result.finish_time != SimTime::MAX
    }
}

/// The simulation engine (see module docs).
///
/// # Examples
///
/// ```
/// use hogtame::prelude::*;
/// use runtime::ops::VecStream;
/// use runtime::Op;
/// use vm::Backing;
///
/// let mut engine = Engine::new(MachineConfig::small());
/// let pid = engine.vm_mut().add_process(false);
/// let region = engine.vm_mut().map_region(pid, 4, Backing::SwapPrefilled, false);
/// let ops = vec![
///     Op::Touch { vpn: region.start, write: false },
///     Op::Compute(SimDuration::from_millis(1)),
///     Op::End,
/// ];
/// engine.register(pid, "demo", Box::new(VecStream::new(ops)), None, true);
/// let result = engine.run();
/// assert_eq!(result.swap_reads, 1, "one demand page-in");
/// assert!(result.procs[0].finish_time > SimTime::ZERO);
/// ```
pub struct Engine {
    vm: VmSys,
    config: MachineConfig,
    queue: EventQueue<Ev>,
    procs: Vec<EngineProc>,
    /// Index into `procs` of each VM pid's first registration (dense by
    /// pid); later ones chain through `EngineProc::next_same_pid`.
    proc_of_pid: Vec<Option<usize>>,
    /// Some registered process is primary.
    any_primary: bool,
    /// Primaries registered and not yet exited.
    live_primaries: usize,
    /// The pids the VM last reported released pages for, reused across
    /// releaser activations.
    released_pids: Vec<Pid>,
    pagingd_scheduled: bool,
    releaser_scheduled: bool,
    cpus: CpuPool,
    timeline: Option<(SimDuration, Vec<TimelineSample>)>,
    faults: FaultPlan,
    daemon_rng: Option<Pcg32>,
    fault_log: FaultLog,
    supervisor: Option<Supervisor>,
    /// Structured instrumentation is on: every subsystem's flight recorder
    /// captures events and the run result carries the merged stream.
    observe: bool,
    /// Checked mode is on: subsystems run their invariant probes and the
    /// VM diffs against the lockstep oracle.
    checked: bool,
    /// Checked-mode self test: one scheduled state corruption.
    mutation: Option<(SimTime, Mutation)>,
    /// The run-time hint layers accept ops (dead → hints are no-ops).
    hint_layer_alive: bool,
    /// The prefetch pthread pools accept work (dead → demand faulting and
    /// main-thread PM release calls).
    prefetch_alive: bool,
    /// Overload control and the fleet record.
    fleet: fleet::FleetState,
    /// The per-request span tracker, when the run observes (armed by
    /// [`Engine::with_observability`]).
    spans: Option<SpanTracker>,
    /// The pages a hint call lets through, reused across hints.
    hint_pages: Vec<Vpn>,
    /// Safety valve: stop even if primaries never finish.
    pub max_time: SimTime,
    _live: LiveEngine,
}

impl Engine {
    /// Creates an engine for the given machine.
    pub fn new(config: MachineConfig) -> Self {
        let vm = VmSys::new(
            config.frames,
            config.tunables,
            config.costs,
            config.swap.clone(),
        );
        let ncpus = config.cpus as usize;
        Engine {
            vm,
            config,
            queue: EventQueue::new(),
            procs: Vec::new(),
            proc_of_pid: Vec::new(),
            any_primary: false,
            live_primaries: 0,
            released_pids: Vec::new(),
            pagingd_scheduled: false,
            releaser_scheduled: false,
            cpus: CpuPool::new(ncpus),
            timeline: None,
            faults: FaultPlan::default(),
            daemon_rng: None,
            fault_log: FaultLog::default(),
            supervisor: None,
            observe: false,
            checked: false,
            mutation: None,
            hint_layer_alive: true,
            prefetch_alive: true,
            fleet: fleet::FleetState::default(),
            spans: None,
            hint_pages: Vec::new(),
            max_time: SimTime::from_nanos(u64::MAX / 2),
            _live: LiveEngine::new(),
        }
    }

    /// Whether the process has a core that no engine and no executor
    /// producer thread is using: the rule for running a compiled
    /// program's executor on its own thread
    /// ([`runtime::handoff::Pipelined`]). A 1-worker pool on 2 cores has
    /// one; a pool with a worker per core has none.
    pub fn spare_core(&self) -> bool {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
        cores > LIVE_ENGINES.load(Ordering::Acquire) + runtime::handoff::live_producers()
    }

    /// Whether checked mode is on.
    pub(crate) fn is_checked(&self) -> bool {
        self.checked
    }

    /// Arms overload control: the memory-pressure monitor samples the
    /// free-memory slope, steal rate and quota-shield signals every
    /// `period` (see [`vm::PressureMonitor`]), and, given a `ladder`
    /// configuration, the brownout ladder walks on each graded sample.
    pub fn enable_overload_control(&mut self, period: SimDuration, ladder: Option<BrownoutConfig>) {
        self.fleet.overload = Some(fleet::Overload {
            period,
            monitor: PressureMonitor::new(),
            ladder: ladder.map(BrownoutController::new),
            fanned: None,
        });
    }

    /// Declares the surge window `[start, end)` for the fleet result's
    /// pre/post-surge throughput accounting.
    pub fn set_surge_window(&mut self, start: SimTime, end: SimTime) {
        self.fleet.surge_window = Some((start, end));
    }

    /// Defers an already-registered process's first instruction to `at`
    /// (its fleet arrival instant).
    pub fn set_start(&mut self, pid: Pid, at: SimTime) {
        if let Some(p) = self.registered_mut(pid) {
            p.start_at = at;
            p.local = at;
        }
    }

    /// Tags an already-registered process with its logical fleet tenant
    /// (enables per-tenant tail accounting and makes it sheddable at
    /// `Emergency` when above its guaranteed share).
    pub fn tag_tenant(&mut self, pid: Pid, tenant: u32) {
        if let Some(p) = self.registered_mut(pid) {
            p.result.tenant = Some(tenant);
        }
    }

    /// The first registration of `pid`, if it has one.
    fn registered_mut(&mut self, pid: Pid) -> Option<&mut EngineProc> {
        let i = (*self.proc_of_pid.get(pid.0 as usize)?)?;
        Some(&mut self.procs[i])
    }

    /// Installs a fault plan, chainably. Must be applied before
    /// [`Engine::register`] so hint-emitting processes get their
    /// per-process fault streams; the swap array and daemon scheduling are
    /// armed immediately.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        if plan.io.any() {
            self.vm
                .swap_mut()
                .arm_faults(plan.io, plan.rng_for(FaultDomain::Io));
        }
        if plan.daemons.any() {
            self.daemon_rng = Some(plan.rng_for(FaultDomain::Daemons));
        }
        if plan.crashes.any() {
            self.supervisor = Some(Supervisor::new(&plan.crashes));
        }
        self
    }

    /// Enables occupancy sampling at the given period, chainably (see
    /// [`crate::timeline::Timeline`]).
    #[must_use]
    pub fn with_timeline(mut self, period: SimDuration) -> Self {
        self.timeline = Some((period, Vec::new()));
        self
    }

    /// Enables full structured observability, chainably: every subsystem's
    /// flight recorder (VM, swap array, and each run-time layer registered
    /// afterwards) captures typed events, and the run result carries the
    /// merged stream in [`RunResult::events`]. Purely observational — sim
    /// outcomes are byte-identical with or without it.
    #[must_use]
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self.vm.set_trace_enabled(true);
        self.vm.swap_mut().set_obs_enabled(true);
        self.spans = Some(SpanTracker::new());
        self
    }

    /// Enables checked mode, chainably: every subsystem (VM, swap array,
    /// and each run-time layer registered afterwards) arms its invariant
    /// probes, and the VM diffs its live state against the lockstep
    /// reference oracle. The first disagreement raises a typed
    /// [`sim_core::sanitizer::InvariantViolation`]. Flight recorders are
    /// enabled so violations carry their subsystem's event tail. A checked
    /// run's simulated outcome is bit-identical to an unchecked run.
    #[must_use]
    pub fn with_checked(mut self) -> Self {
        self.checked = true;
        self.vm.set_checked(true);
        self.vm.set_trace_enabled(true);
        self.vm.swap_mut().set_obs_enabled(true);
        self.vm.swap_mut().set_checked(true);
        self
    }

    /// Schedules one deliberate state corruption at `at`, chainably — the
    /// checked-mode mutation self test. Routed to the corrupted subsystem
    /// when the event fires; a clean run schedules nothing.
    #[doc(hidden)]
    #[must_use]
    pub fn with_mutation(mut self, at: SimTime, m: Mutation) -> Self {
        self.mutation = Some((at, m));
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Mutable access to the VM (process/region setup).
    pub fn vm_mut(&mut self) -> &mut VmSys {
        &mut self.vm
    }

    /// Read access to the VM.
    pub fn vm(&self) -> &VmSys {
        &self.vm
    }

    /// Makes room for `additional` more processes, in the VM's tables and
    /// in the engine's own, before a known population is installed.
    pub fn reserve_processes(&mut self, additional: usize) {
        self.vm.reserve_processes(additional);
        self.procs.reserve_exact(additional);
        self.proc_of_pid.reserve_exact(additional);
    }

    /// Registers a process for execution.
    ///
    /// `pid` must already exist in the VM with its regions mapped. `rt` is
    /// the run-time layer for hint-emitting streams. Primaries determine
    /// when the run stops.
    pub fn register(
        &mut self,
        pid: Pid,
        name: impl Into<String>,
        stream: Box<dyn OpStream>,
        mut rt: Option<RuntimeLayer>,
        primary: bool,
    ) {
        if let Some(rt) = rt.as_mut() {
            if self.observe || self.checked {
                rt.set_obs_enabled(true);
            }
            if self.checked {
                rt.set_checked(true);
            }
            if self.faults.hints.any() {
                // Each process perturbs its hint stream from its own RNG
                // stream, so adding a process never shifts another's draws.
                rt.arm_faults(
                    self.faults.hints,
                    self.faults.stream_rng(FaultDomain::Hints, u64::from(pid.0)),
                );
            }
        }
        let slot = pid.0 as usize;
        if self.proc_of_pid.len() <= slot {
            self.proc_of_pid.resize(slot + 1, None);
        }
        let i = self.procs.len();
        match self.proc_of_pid[slot] {
            None => self.proc_of_pid[slot] = Some(i),
            Some(mut last) => {
                while let Some(next) = self.procs[last].next_same_pid {
                    last = next;
                }
                self.procs[last].next_same_pid = Some(i);
            }
        }
        if primary {
            self.any_primary = true;
            self.live_primaries += 1;
        }
        self.procs.push(EngineProc {
            result: ProcResult::new(pid, name.into()),
            stream,
            rt,
            pool: PrefetchPool::new(self.config.prefetch_threads),
            local: SimTime::ZERO,
            sweep_start: None,
            sweep_fault_base: 0,
            primary,
            released_seen: 0,
            next_same_pid: None,
            start_at: SimTime::ZERO,
            span_req: None,
        });
    }

    /// Runs until every primary process finishes (or `max_time`).
    ///
    /// If the engine panics mid-run (an engine bug, or an injected
    /// executor fault), the subsystem flight recorders dump their last
    /// events to stderr before the panic resumes, so the crash report
    /// carries what each subsystem saw leading up to it.
    pub fn run(mut self) -> RunResult {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_inner())) {
            Ok(result) => result,
            Err(payload) => {
                self.dump_flight_recorders();
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// The dispatch loop: per-op and daemon events run inline, every rare
    /// event in its own cold handler.
    fn run_inner(&mut self) -> RunResult {
        self.schedule_initial_events();
        while !self.primaries_done() {
            let Some(ev) = self.queue.pop() else { break };
            if ev.time > self.max_time {
                break;
            }
            match ev.payload {
                Ev::Run(i) => self.run_proc(i),
                Ev::Pagingd => self.on_pagingd(ev.time),
                Ev::Releaser => self.on_releaser(ev.time),
                Ev::Pressure => self.on_pressure_sample(ev.time),
                Ev::Sample => self.on_sample(ev.time),
                Ev::Shrink => self.on_shrink(ev.time),
                Ev::Mutate(m) => self.on_mutate(ev.time, m),
                Ev::Crash(component) => self.on_crash(ev.time, component),
                Ev::Heartbeat => self.on_heartbeat(ev.time),
                Ev::Restart(component) => self.on_restart(ev.time, component),
            }
        }
        self.finish()
    }

    /// Queues every process's first turn and each armed periodic or
    /// one-shot event.
    #[cold]
    fn schedule_initial_events(&mut self) {
        for i in 0..self.procs.len() {
            let at = self.procs[i].start_at;
            self.queue.schedule(at, Ev::Run(i));
        }
        if self.timeline.is_some() {
            self.queue.schedule(SimTime::ZERO, Ev::Sample);
        }
        if let Some(o) = &self.fleet.overload {
            self.queue.schedule(SimTime::ZERO + o.period, Ev::Pressure);
        }
        if let Some(at) = self.faults.daemons.shrink_limit_at {
            self.queue.schedule(at, Ev::Shrink);
        }
        if let Some((at, m)) = self.mutation {
            self.queue.schedule(at, Ev::Mutate(m));
        }
        if let Some(sup) = &self.supervisor {
            // Crashes are scheduled before the first heartbeat so a crash
            // and a probe landing on the same instant order crash-first.
            for (component, at) in sup.crash_times() {
                self.queue.schedule(at, Ev::Crash(component));
            }
            let period = sup.config().heartbeat_period;
            self.queue.schedule(SimTime::ZERO + period, Ev::Heartbeat);
        }
    }

    /// Every primary has exited (false when there is none: such a run
    /// goes on until its queue empties).
    #[inline]
    fn primaries_done(&self) -> bool {
        self.any_primary && self.live_primaries == 0
    }
}
