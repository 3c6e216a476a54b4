//! The simulation engine.
//!
//! One global virtual clock drives everything: simulated processes execute
//! their op streams run-until-yield, the paging daemon and releaser run as
//! scheduled events, and disks/locks/prefetch threads are deterministic
//! timelines inside [`vm`] / [`disk`]. A process executes ops while its
//! local clock does not pass the next queued event, then re-queues itself —
//! so causality between processes, daemons and I/O is preserved exactly.

use std::collections::BTreeMap;

use runtime::prefetcher::PrefetchPool;
use runtime::supervisor::{RestartOutcome, Supervisor};
use runtime::{BrownoutConfig, BrownoutController, Mark, Op, OpStream, RtStats, RuntimeLayer};
use sim_core::fault::{CrashComponent, FaultDomain, FaultKind, FaultLog, FaultPlan};
use sim_core::obs::span::{SpanKind, SpanReport, SpanState, SpanTracker};
use sim_core::obs::{EventStream, MetricsRegistry, Recorder};
use sim_core::rng::Pcg32;
use sim_core::sanitizer::{Mutation, MutationTarget};
use sim_core::stats::{jain, TailDigest, TimeBreakdown, TimeCategory};
use sim_core::{EventQueue, PressureLevel, SimDuration, SimTime};
use vm::{Pid, PressureMonitor, VmSys, Vpn};

use crate::machine::MachineConfig;
use crate::timeline::{Timeline, TimelineSample};

/// A pool of CPU timelines: user-code bursts serialize onto the machine's
/// processors, so more runnable processes than CPUs produces the "stalled
/// for ... CPUs" component of the paper's resource-stall category. (Kernel
/// fault handling is not CPU-contended: with the paper's four processors
/// it never was, and the fault paths' timing is already fixed by the lock
/// and disk timelines.)
#[derive(Debug)]
struct CpuPool {
    free_at: Vec<SimTime>,
}

impl CpuPool {
    fn new(n: usize) -> Self {
        CpuPool {
            free_at: vec![SimTime::ZERO; n.max(1)],
        }
    }

    /// Runs a burst of length `d` starting no earlier than `at`; returns
    /// `(start, wait)`.
    fn acquire(&mut self, at: SimTime, d: SimDuration) -> (SimTime, SimDuration) {
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("nonempty pool");
        let start = self.free_at[idx].max(at);
        self.free_at[idx] = start + d;
        (start, start.since(at))
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

struct EngineProc {
    pid: Pid,
    name: String,
    stream: Box<dyn OpStream>,
    rt: Option<RuntimeLayer>,
    pool: PrefetchPool,
    local: SimTime,
    breakdown: TimeBreakdown,
    sweeps: Vec<SimDuration>,
    sweep_faults: Vec<u64>,
    sweep_start: Option<SimTime>,
    sweep_fault_base: u64,
    primary: bool,
    finished: bool,
    finish_time: SimTime,
    ops_executed: u64,
    /// Releaser-verified frees already credited to the admission trust
    /// score (high-water mark of the VM's per-proc `pages_released`).
    released_seen: u64,
    /// When the process starts executing (fleet arrival instant;
    /// `SimTime::ZERO` for classic runs).
    start_at: SimTime,
    /// The logical fleet tenant this process belongs to, if any.
    tenant: Option<u32>,
    /// The brownout ladder shed this process at `Emergency`.
    shed: bool,
    /// The process died on an unsatisfiable allocation (typed OOM kill).
    oom_killed: bool,
    /// The open span request this process is executing under, when the
    /// span tracker is armed: a `Sweep` request between sweep marks, or
    /// a provisional whole-process `Batch` request for sweepless streams.
    span_req: Option<sim_core::obs::span::ReqId>,
    /// The stream has produced at least one `SweepStart`: request
    /// identity is per-sweep, so no `Batch` request may open between
    /// sweeps.
    saw_sweep: bool,
}

/// Per-process results of a run.
#[derive(Clone, Debug)]
pub struct ProcResult {
    /// Process name.
    pub name: String,
    /// VM-level pid (index into `RunResult::vm_stats.procs`).
    pub pid: Pid,
    /// Execution-time breakdown (Figure 7 categories).
    pub breakdown: TimeBreakdown,
    /// Response-time samples (interactive sweeps).
    pub sweeps: Vec<SimDuration>,
    /// Hard page faults per sweep (Figure 10c).
    pub sweep_faults: Vec<u64>,
    /// When the process finished (`SimTime::MAX` if it never did).
    pub finish_time: SimTime,
    /// Run-time layer statistics, if the process had one.
    pub rt_stats: Option<runtime::RtStats>,
    /// Hint-health monitor statistics (per-kind misfire counts), if the
    /// layer ran with health monitoring.
    pub health_stats: Option<runtime::HealthStats>,
    /// Admission-control statistics, if the layer ran with admission.
    pub admission_stats: Option<runtime::AdmissionStats>,
    /// Address-space lock statistics (acquisitions, contention, waits).
    pub lock_stats: vm::lock::LockStats,
    /// Total ops executed.
    pub ops_executed: u64,
    /// The logical fleet tenant, if the process was tenant-tagged.
    pub tenant: Option<u32>,
    /// The brownout ladder shed this process (a typed outcome — the run
    /// completed; this tenant was evicted at `Emergency`).
    pub shed: bool,
    /// The process died because an allocation could not be satisfied
    /// even by forced reclaims (a typed outcome — the run completed;
    /// this is what uncontrolled overload does to a machine with no
    /// ladder defending it).
    pub oom_killed: bool,
}

impl ProcResult {
    /// Mean response time over the recorded sweeps, skipping the first
    /// (cold-start) sweep when more than one was recorded. `None` only if
    /// no sweep completed.
    pub fn mean_response(&self) -> Option<SimDuration> {
        let samples = if self.sweeps.len() >= 2 {
            &self.sweeps[1..]
        } else {
            &self.sweeps[..]
        };
        if samples.is_empty() {
            return None;
        }
        let sum: u64 = samples.iter().map(|d| d.as_nanos()).sum();
        Some(SimDuration::from_nanos(sum / samples.len() as u64))
    }

    /// Mean hard faults per sweep (skipping the cold-start sweep when
    /// possible).
    pub fn mean_sweep_faults(&self) -> Option<f64> {
        let s = if self.sweep_faults.len() >= 2 {
            &self.sweep_faults[1..]
        } else {
            &self.sweep_faults[..]
        };
        if s.is_empty() {
            return None;
        }
        Some(s.iter().sum::<u64>() as f64 / s.len() as f64)
    }
}

/// Exact tail-latency summary for one tenant's interactive sweeps
/// (nearest-rank percentiles over every recorded response).
#[derive(Clone, Copy, Debug)]
pub struct TenantTail {
    /// The logical tenant (`u32::MAX` for the fleet-wide aggregate).
    pub tenant: u32,
    /// Responses recorded.
    pub count: u64,
    /// Mean response time.
    pub mean: SimDuration,
    /// Median response time.
    pub p50: SimDuration,
    /// 99th-percentile response time.
    pub p99: SimDuration,
    /// 99.9th-percentile response time.
    pub p999: SimDuration,
    /// Worst response time.
    pub max: SimDuration,
}

/// One tenant shed by the brownout ladder (also in the fault log as
/// [`FaultKind::TenantShed`]; carried here with its tenant tag for the
/// fairness proofs in `bench --bin surge_matrix`).
#[derive(Clone, Copy, Debug)]
pub struct ShedRecord {
    /// VM pid of the shed process.
    pub pid: u32,
    /// Its logical tenant.
    pub tenant: u32,
    /// When it was shed.
    pub at: SimTime,
    /// Its resident set at shed time (always above `guaranteed` — the
    /// ladder never sheds a tenant at or below its guaranteed share).
    pub rss: u64,
    /// Its guaranteed share.
    pub guaranteed: u64,
}

/// Fleet-level results: per-tenant tail latency, fairness, and the
/// overload-control record. Present when the run had tenant-tagged
/// processes or the pressure monitor armed; `None` for classic
/// two-process runs.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Per-tenant tail summaries, ordered by tenant id.
    pub tenants: Vec<TenantTail>,
    /// The fleet-wide aggregate (`tenant == u32::MAX`).
    pub overall: TenantTail,
    /// Jain's fairness index over the per-tenant mean response times
    /// (1.0 = perfectly fair).
    pub jain: f64,
    /// Tenants shed by the ladder.
    pub tenants_shed: u64,
    /// Processes killed on unsatisfiable allocations (typed OOM kills;
    /// the undefended machine's failure mode).
    pub oom_kills: u64,
    /// Every shed, in order.
    pub sheds: Vec<ShedRecord>,
    /// Brownout ladder moves (either direction).
    pub brownout_transitions: u64,
    /// Simulated time at each ladder rung, indexed by
    /// [`PressureLevel::index`] (all-zero when the ladder was off).
    pub time_at_level: [SimDuration; 4],
    /// The ladder rung (or, with the ladder off, raw pressure level) at
    /// end of run.
    pub final_level: PressureLevel,
    /// Raw pressure-level changes seen by the monitor.
    pub pressure_shifts: u64,
    /// Sweeps completed before the surge window opened.
    pub pre_surge_sweeps: u64,
    /// Sweeps completed after the surge window closed.
    pub post_surge_sweeps: u64,
    /// Pre-surge throughput, sweeps per simulated second.
    pub pre_surge_rate: f64,
    /// Post-surge throughput, sweeps per simulated second.
    pub post_surge_rate: f64,
}

/// The results of one engine run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-process results, in registration order.
    pub procs: Vec<ProcResult>,
    /// Final VM statistics (daemon counters, freed-page outcomes …).
    pub vm_stats: vm::VmStats,
    /// Swap device statistics.
    pub swap_reads: u64,
    /// Swap writes.
    pub swap_writes: u64,
    /// Frames on the free list when the run ended (after process exits).
    pub final_free: u64,
    /// When the run ended.
    pub end_time: SimTime,
    /// The occupancy timeline, when sampling was enabled.
    pub timeline: Option<Timeline>,
    /// Every fault injected and degradation transition taken, merged
    /// across the engine, the swap array, and each run-time layer.
    pub fault_log: FaultLog,
    /// The merged, time-sorted structured event stream (empty unless the
    /// run observed via [`Engine::with_observability`] or ran checked).
    pub events: EventStream,
    /// Scalar metrics snapshotted from every subsystem at end of run
    /// (always populated; exportable as Prometheus text).
    pub metrics: MetricsRegistry,
    /// Fleet overload-control results (tail latency, fairness, brownout
    /// record) — `None` unless the run was tenant-tagged or pressure-
    /// monitored.
    pub fleet: Option<FleetStats>,
    /// Per-request causal span report (state blame table, critical
    /// paths, top-k exemplars) — `None` unless the run observed via
    /// [`Engine::with_observability`].
    pub spans: Option<SpanReport>,
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
    /// Index into `procs` of each VM pid's registration (dense by pid).
    proc_of_pid: Vec<Option<usize>>,
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
    /// The memory-pressure monitor and its sampling period, when armed.
    pressure: Option<(SimDuration, PressureMonitor)>,
    /// The brownout overload controller, when the ladder is armed.
    brownout: Option<BrownoutController>,
    /// The rung and admission clamp shift last fanned out to the hint
    /// layers (`None` before the first pressure sample).
    brownout_applied: Option<(PressureLevel, u32)>,
    /// Surge window `[start, end)` for pre/post throughput accounting.
    surge_window: Option<(SimTime, SimTime)>,
    /// Tenant-tagged sweep completions: `(at, tenant, response)`.
    sweep_log: Vec<(SimTime, u32, SimDuration)>,
    /// Wall-clock spent at each *monitor* level (used for
    /// `time_at_level` when no brownout controller is doing its own,
    /// hysteresis-aware accounting): the accumulator plus the instant
    /// and level of the last pressure sample.
    level_clock: ([SimDuration; 4], SimTime, PressureLevel),
    /// Every tenant shed by the ladder, in order.
    shed_log: Vec<ShedRecord>,
    /// The per-request span tracker, when the run observes (armed by
    /// [`Engine::with_observability`]).
    spans: Option<SpanTracker>,
    /// Safety valve: stop even if primaries never finish.
    pub max_time: SimTime,
}

/// Ops a process may execute per scheduling turn before yielding, keeping
/// event interleaving fair when the queue is otherwise empty.
const OPS_PER_TURN: u64 = 50_000;

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
            pressure: None,
            brownout: None,
            brownout_applied: None,
            surge_window: None,
            sweep_log: Vec::new(),
            level_clock: ([SimDuration::ZERO; 4], SimTime::ZERO, PressureLevel::Normal),
            shed_log: Vec::new(),
            spans: None,
            max_time: SimTime::from_nanos(u64::MAX / 2),
        }
    }

    /// Arms the memory-pressure monitor: the free-memory slope, steal
    /// rate and quota-shield signals are sampled every `period` (see
    /// [`vm::PressureMonitor`]) and the graded level drives the brownout
    /// ladder when one is armed via [`Engine::enable_brownout`].
    pub fn enable_pressure(&mut self, period: SimDuration) {
        self.pressure = Some((period, PressureMonitor::new()));
    }

    /// Arms the brownout overload controller (no effect unless the
    /// pressure monitor is also armed — the ladder only moves on
    /// pressure samples).
    pub fn enable_brownout(&mut self, config: BrownoutConfig) {
        self.brownout = Some(BrownoutController::new(config));
    }

    /// Declares the surge window `[start, end)` for the fleet result's
    /// pre/post-surge throughput accounting.
    pub fn set_surge_window(&mut self, start: SimTime, end: SimTime) {
        self.surge_window = Some((start, end));
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
            p.tenant = Some(tenant);
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

    /// The fault plan in force (default: no faults).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
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
        if self.observe || self.checked {
            if let Some(rt) = rt.as_mut() {
                rt.set_obs_enabled(true);
            }
        }
        if self.checked {
            if let Some(rt) = rt.as_mut() {
                rt.set_checked(true);
            }
        }
        if self.faults.hints.any() {
            if let Some(rt) = rt.as_mut() {
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
        self.proc_of_pid[slot].get_or_insert(self.procs.len());
        self.procs.push(EngineProc {
            pid,
            name: name.into(),
            stream,
            rt,
            pool: PrefetchPool::new(self.config.prefetch_threads),
            local: SimTime::ZERO,
            breakdown: TimeBreakdown::new(),
            sweeps: Vec::new(),
            sweep_faults: Vec::new(),
            sweep_start: None,
            sweep_fault_base: 0,
            primary,
            finished: false,
            finish_time: SimTime::MAX,
            ops_executed: 0,
            released_seen: 0,
            start_at: SimTime::ZERO,
            tenant: None,
            shed: false,
            oom_killed: false,
            span_req: None,
            saw_sweep: false,
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

    fn run_inner(&mut self) -> RunResult {
        for i in 0..self.procs.len() {
            let at = self.procs[i].start_at;
            self.queue.schedule(at, Ev::Run(i));
        }
        if self.timeline.is_some() {
            self.queue.schedule(SimTime::ZERO, Ev::Sample);
        }
        if let Some((period, _)) = &self.pressure {
            self.queue.schedule(SimTime::ZERO + *period, Ev::Pressure);
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
        while !self.primaries_done() {
            let Some(ev) = self.queue.pop() else { break };
            if ev.time > self.max_time {
                break;
            }
            debug_assert!(ev.time <= self.max_time);
            match ev.payload {
                Ev::Run(i) => self.run_proc(i),
                Ev::Pagingd => {
                    self.pagingd_scheduled = false;
                    if let Some(next) = self.vm.service_pagingd(ev.time) {
                        self.pagingd_scheduled = true;
                        let next = next + self.pagingd_fault_delay(ev.time);
                        self.queue.schedule(next, Ev::Pagingd);
                    }
                }
                Ev::Releaser => {
                    self.releaser_scheduled = false;
                    if !self.vm.releaser_alive() {
                        // The daemon died while this wakeup was in flight;
                        // its queue waits for restart reconciliation.
                        continue;
                    }
                    if let Some(next) = self.vm.service_releaser(ev.time) {
                        self.releaser_scheduled = true;
                        let next = next + self.releaser_fault_delay(ev.time);
                        self.queue.schedule(next, Ev::Releaser);
                    }
                    self.credit_verified_releases(ev.time);
                }
                Ev::Mutate(m) => {
                    match m.target() {
                        MutationTarget::Vm => {
                            let pid = self
                                .procs
                                .iter()
                                .find(|p| p.primary)
                                .map_or(Pid(0), |p| p.pid);
                            self.vm.apply_mutation(ev.time, m, pid);
                        }
                        MutationTarget::Runtime => {
                            if let Some(rt) = self.procs.iter_mut().find_map(|p| p.rt.as_mut()) {
                                rt.apply_mutation(m);
                            }
                        }
                        MutationTarget::Disk => self.vm.swap_mut().apply_mutation(m),
                    }
                    self.wake_daemons(ev.time);
                }
                Ev::Shrink => {
                    let frac = self.faults.daemons.shrink_to_frac;
                    let (from, to) = self.vm.shrink_limit(frac);
                    self.fault_log
                        .record(ev.time, FaultKind::LimitShrunk { from, to });
                    self.wake_daemons(ev.time);
                }
                Ev::Pressure => self.on_pressure_sample(ev.time),
                Ev::Sample => {
                    if let Some((period, samples)) = self.timeline.as_mut() {
                        samples.push(TimelineSample {
                            t: ev.time,
                            free: self.vm.free_pages(),
                            rss: self.procs.iter().map(|p| self.vm.rss(p.pid)).collect(),
                        });
                        let next = ev.time + *period;
                        self.queue.schedule(next, Ev::Sample);
                    }
                }
                Ev::Crash(component) => {
                    self.set_component_alive(component, false);
                    if let Some(sup) = self.supervisor.as_mut() {
                        sup.on_crash(component);
                    }
                    self.fault_log
                        .record(ev.time, FaultKind::ComponentCrashed { component });
                }
                Ev::Heartbeat => {
                    let Some(sup) = self.supervisor.as_mut() else {
                        continue;
                    };
                    for det in sup.on_heartbeat() {
                        self.fault_log.record(
                            ev.time,
                            FaultKind::CrashDetected {
                                component: det.component,
                                missed: det.missed,
                            },
                        );
                        self.queue
                            .schedule(ev.time + det.backoff, Ev::Restart(det.component));
                    }
                    let sup = self.supervisor.as_ref().expect("checked above");
                    if sup.active() {
                        let period = sup.config().heartbeat_period;
                        self.queue.schedule(ev.time + period, Ev::Heartbeat);
                    }
                }
                Ev::Restart(component) => {
                    let Some(sup) = self.supervisor.as_mut() else {
                        continue;
                    };
                    match sup.on_restart_attempt(component) {
                        RestartOutcome::Failed {
                            attempt,
                            next_backoff,
                        } => {
                            self.fault_log.record(
                                ev.time,
                                FaultKind::RestartFailed {
                                    component,
                                    attempt,
                                    backoff: next_backoff,
                                },
                            );
                            self.queue
                                .schedule(ev.time + next_backoff, Ev::Restart(component));
                        }
                        RestartOutcome::Restarted { attempt } => {
                            self.fault_log.record(
                                ev.time,
                                FaultKind::ComponentRestarted { component, attempt },
                            );
                            let (orphaned, bitmap_fixups) =
                                self.reconcile_component(component, ev.time);
                            self.fault_log.record(
                                ev.time,
                                FaultKind::StateReconciled {
                                    component,
                                    orphaned,
                                    bitmap_fixups,
                                },
                            );
                            self.set_component_alive(component, true);
                            self.wake_daemons(ev.time);
                        }
                        RestartOutcome::Abandoned { attempts } => {
                            self.fault_log.record(
                                ev.time,
                                FaultKind::ComponentAbandoned {
                                    component,
                                    attempts,
                                },
                            );
                            if component == CrashComponent::Releaser {
                                // Permanently dead releaser: revalidate the
                                // stranded release-pending pages so the run
                                // degrades cleanly to stock reactive paging.
                                let (orphaned, bitmap_fixups) =
                                    self.reconcile_component(component, ev.time);
                                self.fault_log.record(
                                    ev.time,
                                    FaultKind::StateReconciled {
                                        component,
                                        orphaned,
                                        bitmap_fixups,
                                    },
                                );
                                self.wake_daemons(ev.time);
                            }
                        }
                    }
                }
            }
        }
        // The run ends when the last activity completes: processes run
        // ahead of the popped event time within a turn, so take the max of
        // the queue clock and every recorded finish time.
        let mut end_time = self.queue.now().min(self.max_time);
        for p in &self.procs {
            if p.finished {
                end_time = end_time.max(p.finish_time);
            }
        }
        if let Some(ctrl) = self.brownout.as_mut() {
            ctrl.finish(end_time);
        }
        let fleet = self.compute_fleet(end_time);
        let procs = self
            .procs
            .iter()
            .map(|p| ProcResult {
                name: p.name.clone(),
                pid: p.pid,
                breakdown: p.breakdown,
                sweeps: p.sweeps.clone(),
                sweep_faults: p.sweep_faults.clone(),
                finish_time: p.finish_time,
                rt_stats: p.rt.as_ref().map(|rt| *rt.stats()),
                health_stats: p.rt.as_ref().and_then(|rt| rt.health_stats()).cloned(),
                admission_stats: p.rt.as_ref().and_then(|rt| rt.admission_stats()).copied(),
                lock_stats: self.vm.lock_stats(p.pid),
                ops_executed: p.ops_executed,
                tenant: p.tenant,
                shed: p.shed,
                oom_killed: p.oom_killed,
            })
            .collect();
        let mut fault_log = self.fault_log.clone();
        fault_log.merge(self.vm.swap().fault_log());
        for p in &self.procs {
            if let Some(rt) = &p.rt {
                fault_log.merge(rt.fault_log());
            }
        }
        // Seal the span tracker first: requests still open at end of run
        // are counted as unfinished, everything closed becomes the report.
        let spans = self.spans.take().map(SpanTracker::finish);
        // One merged, time-sorted event stream: the VM's recorder, each
        // run-time layer's (in registration order), the swap array's, the
        // span tracker's, then the fault log — a fixed absorb order so
        // the sealed stream is byte-identical however the grid was
        // scheduled.
        let mut events = EventStream::new();
        events.absorb(self.vm.recorder());
        for p in &self.procs {
            if let Some(rt) = &p.rt {
                events.absorb(rt.recorder());
            }
        }
        events.absorb(self.vm.swap().recorder());
        if let Some((rec, _)) = spans.as_ref() {
            events.absorb(rec);
        }
        events.absorb_faults(&fault_log);
        events.seal();
        // Degradation transitions (and the limit shrink) annotate the
        // occupancy timeline so plots show *when* the system backed off —
        // derived from the single event stream, not a second bookkeeping
        // path.
        let marks = events.timeline_marks();
        let timeline = self.timeline.take().map(|(period, samples)| Timeline {
            period,
            total_frames: self.vm.total_frames(),
            proc_names: self.procs.iter().map(|p| p.name.clone()).collect(),
            samples,
            marks,
        });
        let mut metrics = self.export_metrics(end_time, &fault_log);
        let fleet = fleet.map(|(stats, mut overall)| {
            export_fleet_metrics(&mut metrics, &stats, &mut overall);
            stats
        });
        RunResult {
            procs,
            vm_stats: self.vm.stats().clone(),
            swap_reads: self.vm.swap().stats().page_reads.get(),
            swap_writes: self.vm.swap().stats().page_writes.get(),
            final_free: self.vm.free_pages(),
            end_time,
            timeline,
            fault_log,
            events,
            metrics,
            fleet,
            spans: spans.map(|(_, report)| report),
        }
    }

    /// Dumps the tail of every subsystem flight recorder to stderr (the
    /// crash path: called when a run panics, before the panic resumes).
    fn dump_flight_recorders(&self) {
        const TAIL: usize = 32;
        eprintln!("==== hogtame flight recorder (run aborted) ====");
        let dump = |label: &str, rec: &Recorder| {
            if rec.total() == 0 {
                return;
            }
            eprintln!("-- {label}: {} events captured --", rec.total());
            eprint!("{}", rec.dump_tail(TAIL));
        };
        dump("vm", self.vm.recorder());
        for p in &self.procs {
            if let Some(rt) = &p.rt {
                dump(&format!("rt/{}", p.name), rt.recorder());
            }
        }
        dump("swap", self.vm.swap().recorder());
        if !self.fault_log.events().is_empty() {
            eprintln!("-- faults: {}", self.fault_log.summary());
        }
        eprintln!("==== end flight recorder ====");
    }

    /// Snapshots every subsystem's counters into a metrics registry
    /// (always run — the registry is scalar and cheap, independent of the
    /// event recorders).
    fn export_metrics(&self, end_time: SimTime, fault_log: &FaultLog) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let vm = self.vm.stats();
        m.gauge(
            "hogtame_sim_end_seconds",
            "Simulated clock when the run ended",
            end_time.as_secs_f64(),
        );
        m.gauge(
            "hogtame_frames_free",
            "Frames on the free list at end of run",
            self.vm.free_pages() as f64,
        );
        let pd = &vm.pagingd;
        m.counter(
            "hogtame_pagingd_activations_total",
            "Paging-daemon activations",
            pd.activations.get(),
        );
        m.counter(
            "hogtame_pagingd_frames_scanned_total",
            "Frames examined by the paging daemon",
            pd.frames_scanned.get(),
        );
        m.counter(
            "hogtame_pagingd_pages_stolen_total",
            "Pages reclaimed by the paging daemon",
            pd.pages_stolen.get(),
        );
        m.counter(
            "hogtame_pagingd_invalidations_total",
            "Mappings invalidated by the scan",
            pd.invalidations.get(),
        );
        m.counter(
            "hogtame_pagingd_writebacks_total",
            "Dirty pages written back by the daemon",
            pd.writebacks.get(),
        );
        m.counter(
            "hogtame_pagingd_reactive_steals_total",
            "Steals guided by reactive eviction candidates",
            pd.reactive_steals.get(),
        );
        m.gauge(
            "hogtame_pagingd_busy_seconds",
            "Total paging-daemon busy time",
            pd.busy.as_secs_f64(),
        );
        let rl = &vm.releaser;
        m.counter(
            "hogtame_releaser_activations_total",
            "Releaser-daemon activations",
            rl.activations.get(),
        );
        m.counter(
            "hogtame_releaser_requests_total",
            "Release requests accepted onto the queue",
            rl.requests.get(),
        );
        m.counter(
            "hogtame_releaser_pages_released_total",
            "Pages freed by the releaser",
            rl.pages_released.get(),
        );
        m.counter(
            "hogtame_releaser_skipped_reref_total",
            "Requests cancelled by a re-reference",
            rl.skipped_reref.get(),
        );
        m.counter(
            "hogtame_releaser_skipped_nonresident_total",
            "Requests dropped because the page was gone",
            rl.skipped_nonresident.get(),
        );
        m.counter(
            "hogtame_releaser_writebacks_total",
            "Dirty pages written back by the releaser",
            rl.writebacks.get(),
        );
        m.gauge(
            "hogtame_releaser_busy_seconds",
            "Total releaser busy time",
            rl.busy.as_secs_f64(),
        );
        let fr = &vm.freed;
        m.counter(
            "hogtame_freed_by_daemon_total",
            "Pages freed by the paging daemon",
            fr.freed_by_daemon.get(),
        );
        m.counter(
            "hogtame_freed_by_release_total",
            "Pages freed by compiler-inserted releases",
            fr.freed_by_release.get(),
        );
        m.counter(
            "hogtame_rescued_daemon_total",
            "Daemon-freed pages rescued from the free list",
            fr.rescued_daemon.get(),
        );
        m.counter(
            "hogtame_rescued_release_total",
            "Released pages rescued from the free list",
            fr.rescued_release.get(),
        );
        let sw = self.vm.swap().stats();
        m.counter(
            "hogtame_swap_reads_total",
            "Completed swap page reads",
            sw.page_reads.get(),
        );
        m.counter(
            "hogtame_swap_writes_total",
            "Completed swap page writes",
            sw.page_writes.get(),
        );
        m.counter(
            "hogtame_swap_transient_retries_total",
            "Transient I/O failures retried",
            sw.transient_retries.get(),
        );
        m.counter(
            "hogtame_swap_tail_delays_total",
            "Requests hit by the injected slow tail",
            sw.tail_delays.get(),
        );
        m.histogram(
            "hogtame_swap_latency",
            "Swap I/O completion latency",
            self.vm.swap().latency_histogram(),
        );
        m.counter(
            "hogtame_fault_log_entries_total",
            "Entries in the merged fault/degradation log",
            fault_log.events().len() as u64,
        );
        // The overload-control state the run ended in, exported whenever
        // the corresponding subsystem is armed (fleet or not).
        if let Some((_, mon)) = self.pressure.as_ref() {
            m.gauge(
                "hogtame_pressure_level",
                "Final graded memory-pressure level (0=normal .. 3=emergency)",
                mon.level().index() as f64,
            );
        }
        if let Some(ctrl) = self.brownout.as_ref() {
            m.gauge(
                "hogtame_brownout_rung",
                "Final brownout-ladder rung (0=normal .. 3=emergency)",
                ctrl.level().index() as f64,
            );
        }
        // Per-process metric families are only useful at human scale; a
        // 2000-process fleet would explode the registry, so those runs
        // keep the machine-level families plus the fleet aggregates.
        let per_proc = self.procs.len() <= 64;
        for p in self.procs.iter().filter(|_| per_proc) {
            let ps = vm.proc(p.pid.0 as usize);
            let base = format!("hogtame_proc_{}", metric_slug(&p.name));
            m.counter(
                format!("{base}_hard_faults_total"),
                "Hard page faults taken by this process",
                ps.hard_faults.get(),
            );
            m.counter(
                format!("{base}_soft_faults_total"),
                "Free-list rescues (daemon- or release-freed) by this process",
                ps.soft_faults_daemon.get() + ps.soft_faults_release.get(),
            );
            m.counter(
                format!("{base}_prefetch_validates_total"),
                "Prefetched pages later used by this process",
                ps.prefetch_validates.get(),
            );
            m.counter(
                format!("{base}_pages_released_total"),
                "Pages this process released via hints",
                ps.pages_released.get(),
            );
            m.gauge(
                format!("{base}_peak_rss_frames"),
                "Peak resident-set size in frames",
                ps.peak_rss as f64,
            );
            m.counter(
                format!("{base}_ops_total"),
                "Simulated ops executed by this process",
                p.ops_executed,
            );
        }
        m
    }

    /// Flips the liveness switch for one crashable component.
    fn set_component_alive(&mut self, component: CrashComponent, alive: bool) {
        match component {
            CrashComponent::Releaser => self.vm.set_releaser_alive(alive),
            CrashComponent::PrefetchPool => self.prefetch_alive = alive,
            CrashComponent::HintLayer => self.hint_layer_alive = alive,
        }
    }

    /// Rebuilds the component's state after a restart: drop orphaned
    /// queues, re-derive shared-bitmap residency from the page table, and
    /// re-arm the one-behind filters. Returns `(orphaned, bitmap_fixups)`.
    fn reconcile_component(&mut self, component: CrashComponent, now: SimTime) -> (u64, u64) {
        match component {
            CrashComponent::Releaser => self.vm.reconcile_releaser(now),
            CrashComponent::HintLayer => {
                let mut orphaned = 0;
                for p in &mut self.procs {
                    if let Some(rt) = p.rt.as_mut() {
                        orphaned += rt.reconcile_after_crash();
                    }
                }
                (orphaned, 0)
            }
            CrashComponent::PrefetchPool => {
                // A fresh pool: in-flight assignment timelines died with
                // the threads; the I/O they started completes in the disk
                // model regardless.
                for p in &mut self.procs {
                    p.pool = PrefetchPool::new(self.config.prefetch_threads);
                }
                (0, 0)
            }
        }
    }

    fn primaries_done(&self) -> bool {
        let mut saw_primary = false;
        for p in &self.procs {
            if p.primary {
                saw_primary = true;
                if !p.finished {
                    return false;
                }
            }
        }
        saw_primary
    }

    /// Lazily opens a whole-process `Batch` span request: a sweepless
    /// process becomes one request spanning its first timed op to its
    /// finish. Sweep streams are opened per-sweep by `SweepStart`
    /// instead, and a provisional batch request is discarded without a
    /// trace if a sweep mark does arrive.
    fn span_ensure(&mut self, i: usize) {
        let Some(tracker) = self.spans.as_mut() else {
            return;
        };
        let p = &mut self.procs[i];
        if p.span_req.is_none() && !p.saw_sweep {
            let tenant = p.tenant.unwrap_or(u32::MAX);
            p.span_req = Some(tracker.open(p.pid.0, tenant, SpanKind::Batch, p.local));
        }
    }

    /// Attributes `[start, start + dur)` of process `i`'s open span
    /// request to `state`. A no-op when the tracker is off, the process
    /// has no open request, or the interval is empty.
    fn span_add(&mut self, i: usize, state: SpanState, start: SimTime, dur: SimDuration) {
        let Some(tracker) = self.spans.as_mut() else {
            return;
        };
        let Some(req) = self.procs[i].span_req else {
            return;
        };
        tracker.add(req, state, start, dur);
    }

    fn run_proc(&mut self, i: usize) {
        if self.procs[i].finished {
            return;
        }
        let mut executed: u64 = 0;
        loop {
            // Yield when another event is due before our local clock.
            if let Some(next) = self.queue.peek_time() {
                if self.procs[i].local > next {
                    let at = self.procs[i].local;
                    self.queue.schedule(at, Ev::Run(i));
                    return;
                }
            }
            if executed >= OPS_PER_TURN || self.procs[i].local > self.max_time {
                let at = self.procs[i].local;
                self.queue.schedule(at, Ev::Run(i));
                return;
            }
            let op = self.procs[i].stream.next_op();
            executed += 1;
            self.procs[i].ops_executed += 1;
            // Every timed op belongs to a request: open the lazy batch
            // request before dispatch (marks manage their own identity,
            // and `End` closes in `finish_proc`).
            if self.spans.is_some() && !matches!(op, Op::Mark(_) | Op::End) {
                self.span_ensure(i);
            }
            match op {
                Op::Compute(d) => {
                    let at = self.procs[i].local;
                    let (start, wait) = self.cpus.acquire(at, d);
                    let p = &mut self.procs[i];
                    p.breakdown.add(TimeCategory::StallResource, wait);
                    p.breakdown.add(TimeCategory::User, d);
                    p.local = start + d;
                    self.span_add(i, SpanState::Queued, at, wait);
                    self.span_add(i, SpanState::Running, start, d);
                }
                Op::Touch { vpn, write } => {
                    self.op_touch(i, vpn, write);
                    if self.procs[i].finished {
                        // The touch OOM-killed the process.
                        return;
                    }
                }
                Op::PrefetchHint { .. } | Op::ReleaseHint { .. } | Op::RetireTag { .. } => {
                    self.op_hint(i, op)
                }
                Op::Sleep(d) => {
                    // Think time: wall-clock passes without execution.
                    let at = self.procs[i].local;
                    self.procs[i].local += d;
                    self.span_add(i, SpanState::Idle, at, d);
                }
                Op::Mark(Mark::SweepStart) => {
                    let p = &mut self.procs[i];
                    p.sweep_start = Some(p.local);
                    p.sweep_fault_base = self.vm.stats().proc(p.pid.0 as usize).hard_faults.get();
                    // Request identity becomes per-sweep: a provisional
                    // batch request (or an unterminated earlier sweep)
                    // is discarded, and this sweep opens fresh.
                    if let Some(tracker) = self.spans.as_mut() {
                        let p = &mut self.procs[i];
                        if let Some(req) = p.span_req.take() {
                            tracker.discard(req);
                        }
                        p.saw_sweep = true;
                        let tenant = p.tenant.unwrap_or(u32::MAX);
                        p.span_req = Some(tracker.open(p.pid.0, tenant, SpanKind::Sweep, p.local));
                    }
                }
                Op::Mark(Mark::SweepEnd) => {
                    let now_faults = {
                        let p = &self.procs[i];
                        self.vm.stats().proc(p.pid.0 as usize).hard_faults.get()
                    };
                    let p = &mut self.procs[i];
                    let mut span_close = None;
                    if let Some(start) = p.sweep_start.take() {
                        let resp = p.local.since(start);
                        p.sweeps.push(resp);
                        p.sweep_faults.push(now_faults - p.sweep_fault_base);
                        if let Some(tenant) = p.tenant {
                            self.sweep_log.push((p.local, tenant, resp));
                        }
                        span_close = p.span_req.take().map(|req| (req, p.local));
                    }
                    if let (Some(tracker), Some((req, at))) = (self.spans.as_mut(), span_close) {
                        tracker.close(req, at, false);
                    }
                }
                Op::End => {
                    self.finish_proc(i);
                    return;
                }
            }
        }
    }

    fn op_touch(&mut self, i: usize, vpn: Vpn, write: bool) {
        let (pid, local) = (self.procs[i].pid, self.procs[i].local);
        let res = match self.vm.try_touch(local, pid, vpn, write) {
            Ok(res) => res,
            Err(vm::VmError::OutOfMemory { .. }) => {
                // The allocation could not be satisfied even by repeated
                // forced reclaims: kill the process with a typed outcome
                // instead of panicking the run. On a defended machine
                // the ladder sheds over-guarantee tenants long before
                // this point; an undefended machine under a storm gets
                // here, and the kill is indiscriminate — which is
                // exactly the contrast the fleet results record.
                self.oom_kill(i, local);
                return;
            }
            // Unmapped addresses are a programming error, not overload.
            Err(e) => panic!("{e}"),
        };
        let p = &mut self.procs[i];
        p.breakdown.add(TimeCategory::System, res.system);
        p.breakdown
            .add(TimeCategory::StallResource, res.resource_wait);
        p.breakdown.add(TimeCategory::StallIo, res.io_wait);
        p.local = res.done_at;
        if self.spans.is_some() && self.procs[i].span_req.is_some() {
            // Tile `[local, done_at]` exactly: the TouchResult invariant
            // (`done_at - now == system + resource_wait + io_wait`, with
            // `lock_wait ⊆ resource_wait` and `io_queue ⊆ io_wait`)
            // guarantees the four tiles sum to the touch's latency.
            let fault = res.system + res.resource_wait.saturating_sub(res.lock_wait);
            let queue = res.io_queue.min(res.io_wait);
            let xfer = res.io_wait.saturating_sub(queue);
            let mut at = local;
            for (state, d) in [
                (SpanState::HardFaultStall, fault),
                (SpanState::LockWait, res.lock_wait),
                (SpanState::SwapQueue, queue),
                (SpanState::SwapTransfer, xfer),
            ] {
                self.span_add(i, state, at, d);
                at += d;
            }
            debug_assert_eq!(at, res.done_at);
        }
        // Hint-effectiveness feedback: a cancelled release or free-list
        // rescue here charges a misfire to the hinting tag.
        let touch_now = self.procs[i].local;
        if let Some(rt) = self.procs[i].rt.as_mut() {
            rt.note_touch_outcome(touch_now, vpn, res.kind);
        }
        self.wake_daemons(self.procs[i].local);
    }

    /// Runs one compiler-inserted hint (`PrefetchHint`, `ReleaseHint`
    /// or `RetireTag`) through the process's run-time layer, charges the
    /// layer's CPU cost, and issues whatever pages it let through.
    fn op_hint(&mut self, i: usize, op: Op) {
        if !self.hint_layer_alive {
            return;
        }
        let (pid, now) = (self.procs[i].pid, self.procs[i].local);
        let track = self.spans.is_some() && self.procs[i].span_req.is_some();
        let Some(rt) = self.procs[i].rt.as_mut() else {
            return;
        };
        // Each hint call moves only its own rejection counters, so one
        // sum serves all three kinds.
        let rejected =
            |s: &RtStats| s.prefetch_rejected + s.prefetch_advisory_dropped + s.release_rejected;
        let rejected_before = if track { rejected(rt.stats()) } else { 0 };
        let (pages, cost) = match op {
            Op::PrefetchHint { vpn, npages, tag } => {
                rt.on_prefetch_hint(&self.vm, pid, now, vpn, npages, tag)
            }
            Op::ReleaseHint { vpn, priority, tag } => {
                rt.on_release_hint(&self.vm, pid, now, vpn, priority, tag)
            }
            Op::RetireTag { tag } => rt.on_retire_tag(&self.vm, pid, now, tag),
            _ => unreachable!("op_hint takes hint ops only"),
        };
        // The hint call's CPU cost is Running unless the admission
        // limiter rejected pages (AdmissionWait) or the brownout ladder
        // is engaged (Throttled) — classified by counter deltas so the
        // attribution is exact, not heuristic.
        let state = if !track {
            SpanState::Running
        } else if rejected(rt.stats()) > rejected_before {
            SpanState::AdmissionWait
        } else if rt.brownout() != PressureLevel::Normal {
            SpanState::Throttled
        } else {
            SpanState::Running
        };
        let p = &mut self.procs[i];
        p.breakdown.add(TimeCategory::User, cost);
        p.local += cost;
        let local = p.local;
        self.span_add(i, state, now, cost);
        if let Op::PrefetchHint { .. } = op {
            // A dead pthread pool prefetches nothing: the filtered pages
            // will demand-fault later.
            if self.prefetch_alive {
                self.issue_prefetches(i, pid, local, &pages);
            }
            self.wake_daemons(local);
            return;
        }
        if !pages.is_empty() {
            self.issue_releases(i, pid, local, &pages);
        }
        if let (Op::ReleaseHint { .. }, Some(rt)) = (op, self.procs[i].rt.as_mut()) {
            // The run-time layer decides which pages to offer the OS as
            // eviction candidates; the VM applies them.
            let candidates = rt.take_eviction_candidates();
            if !candidates.is_empty() {
                self.vm.offer_eviction_candidates(pid, &candidates);
            }
        }
    }

    fn issue_prefetches(&mut self, i: usize, pid: Pid, local: SimTime, pages: &[Vpn]) {
        for &page in pages {
            // The prefetch pthread makes the PM call and waits for the I/O;
            // none of that lands on the main thread's clock.
            let (thread, start) = self.procs[i].pool.assign(local);
            let (outcome, call_cost) = self.vm.prefetch(start, pid, page);
            let busy_until = match outcome {
                vm::PrefetchOutcome::Started { arrives_at } => arrives_at,
                _ => start + call_cost,
            };
            self.procs[i].pool.complete(thread, busy_until);
            let already = matches!(outcome, vm::PrefetchOutcome::AlreadyResident);
            if let Some(rt) = self.procs[i].rt.as_mut() {
                rt.note_prefetch_outcome(local, page, already);
            }
        }
    }

    fn issue_releases(&mut self, i: usize, pid: Pid, local: SimTime, pages: &[Vpn]) {
        let call = self.vm.cost_params().pm_release_call;
        if self.prefetch_alive {
            // Release requests ride the same pthread pool as prefetches.
            let (thread, start) = self.procs[i].pool.assign(local);
            self.vm.release(start, pid, pages);
            self.procs[i].pool.complete(thread, start + call);
            self.wake_daemons(start);
        } else {
            // Dead pthread pool: the main thread makes the PM call itself
            // and pays for it on its own clock.
            self.vm.release(local, pid, pages);
            let p = &mut self.procs[i];
            p.breakdown.add(TimeCategory::System, call);
            p.local += call;
            self.span_add(i, SpanState::Running, local, call);
            self.wake_daemons(local);
        }
    }

    fn finish_proc(&mut self, i: usize) {
        let pid = self.procs[i].pid;
        let local = self.procs[i].local;
        // Flush any still-buffered releases (end-of-program); a dead hint
        // layer has nothing trustworthy to flush.
        let flushed = if self.hint_layer_alive {
            self.procs[i]
                .rt
                .as_mut()
                .map(|rt| rt.flush(local, pid))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        if !flushed.is_empty() {
            self.issue_releases(i, pid, local, &flushed);
        }
        let p = &mut self.procs[i];
        p.finished = true;
        p.finish_time = p.local;
        // The process exits: its memory returns to the system.
        let (pid, local) = (p.pid, p.local);
        let span_req = p.span_req.take();
        self.vm.exit_process(local, pid);
        // A batch request spans to the process's final instant.
        if let (Some(tracker), Some(req)) = (self.spans.as_mut(), span_req) {
            tracker.close(req, local, false);
        }
    }

    fn wake_daemons(&mut self, at: SimTime) {
        let at = at.max(self.queue.now());
        if !self.pagingd_scheduled && self.vm.pagingd_needed() {
            self.pagingd_scheduled = true;
            let skew = self.pagingd_fault_delay(at);
            self.queue.schedule(at + skew, Ev::Pagingd);
        }
        if !self.releaser_scheduled && self.vm.releaser_pending() {
            self.releaser_scheduled = true;
            let delay = self.vm.tunables().releaser_delay;
            let jitter = self.releaser_fault_delay(at);
            self.queue.schedule(at + delay + jitter, Ev::Releaser);
        }
    }

    /// One `Ev::Pressure` tick: grade the machine, walk the brownout
    /// ladder, fan a changed rung out to every hinting tenant, and shed
    /// at `Emergency` — then reschedule.
    fn on_pressure_sample(&mut self, now: SimTime) {
        let (level, next) = {
            let Some((period, mon)) = self.pressure.as_mut() else {
                return;
            };
            (mon.sample(now, &mut self.vm), now + *period)
        };
        self.queue.schedule(next, Ev::Pressure);
        {
            let (acc, since, at) = &mut self.level_clock;
            acc[*at as usize] += now.since(*since);
            (*since, *at) = (now, level);
        }
        let mut applied = None;
        let mut budget = 0;
        if let Some(ctrl) = self.brownout.as_mut() {
            ctrl.observe(now, level, &mut self.fault_log);
            applied = Some((ctrl.level(), ctrl.clamp_shift()));
            budget = ctrl.shed_budget();
        }
        // Fan the rung out only when it (or its clamp shift) changes.
        // Every process, fleet arrivals included, is registered before
        // the run starts, so a wave that lands while the ladder is
        // engaged already holds the current rung; a hint-layer restart
        // keeps it too. Re-applying an unchanged rung would only settle
        // each admission bucket at `now`, which the next `admit` does
        // anyway with the same result.
        if let Some((to, shift)) = applied.filter(|&a| Some(a) != self.brownout_applied) {
            self.brownout_applied = applied;
            for p in &mut self.procs {
                if let Some(rt) = p.rt.as_mut() {
                    rt.set_brownout(now, to, shift);
                }
            }
        }
        // The blame table buckets by the *applied* rung when a ladder is
        // armed (what the tenants actually experienced), the raw monitor
        // grade otherwise.
        if let Some(tracker) = self.spans.as_mut() {
            tracker.set_level(applied.map(|(l, _)| l).unwrap_or(level));
        }
        if budget > 0 {
            let shed = self.shed_tenants(now, budget);
            if shed > 0 {
                if let Some(ctrl) = self.brownout.as_mut() {
                    ctrl.note_shed(shed);
                }
            }
        }
        self.wake_daemons(now);
    }

    /// Sheds up to `budget` tenants at `Emergency`: only processes whose
    /// resident set exceeds their guaranteed share are candidates (a
    /// tenant at or below its guarantee is never shed), newest arrival
    /// first. Each shed is a typed [`FaultKind::TenantShed`] outcome and
    /// an ordinary process teardown — never a panic. Returns the number
    /// shed.
    fn shed_tenants(&mut self, now: SimTime, budget: u32) -> u64 {
        let mut victims: Vec<(SimTime, usize)> = Vec::new();
        for (i, p) in self.procs.iter().enumerate() {
            if p.finished || p.tenant.is_none() || p.start_at > now {
                continue;
            }
            let rss = self.vm.rss(p.pid);
            if rss > self.vm.quotas().guaranteed(p.pid.0) {
                victims.push((p.start_at, i));
            }
        }
        // Newest arrival first; registration order breaks ties.
        victims.sort_by(|a, b| b.cmp(a));
        let mut shed = 0;
        for (_, i) in victims.into_iter().take(budget as usize) {
            let pid = self.procs[i].pid;
            let tenant = self.procs[i].tenant.unwrap_or(u32::MAX);
            let rss = self.vm.rss(pid);
            let guaranteed = self.vm.quotas().guaranteed(pid.0);
            self.fault_log.record(
                now,
                FaultKind::TenantShed {
                    pid: pid.0,
                    rss,
                    guaranteed,
                },
            );
            self.shed_log.push(ShedRecord {
                pid: pid.0,
                tenant,
                at: now,
                rss,
                guaranteed,
            });
            self.procs[i].shed = true;
            self.tear_down(i, now);
            shed += 1;
        }
        shed
    }

    /// Kills process `i` at `now` because an allocation was
    /// unsatisfiable: records the typed [`FaultKind::OomKill`] and tears
    /// the process down like a shed, freeing everything it held. Cold
    /// because inlining this rare path into the per-op dispatch loop
    /// slowed the fleet storm by about 8% (perfbench `work_s`, 2-core
    /// Xeon).
    #[cold]
    fn oom_kill(&mut self, i: usize, now: SimTime) {
        let pid = self.procs[i].pid;
        let rss = self.vm.rss(pid);
        self.fault_log
            .record(now, FaultKind::OomKill { pid: pid.0, rss });
        self.procs[i].oom_killed = true;
        let local = self.tear_down(i, now);
        self.wake_daemons(local);
    }

    /// Tears process `i` down mid-run at `now` (a shed or an OOM kill) and
    /// returns its final clock. Buffered hints are dropped on the floor —
    /// the process goes precisely because memory is scarce — and its
    /// memory returns to the system exactly as on a normal exit. Its open
    /// request lands as a `Shed` interval covering any jump to `now` and
    /// closes shed, so it never pollutes the tail.
    fn tear_down(&mut self, i: usize, now: SimTime) -> SimTime {
        let p = &mut self.procs[i];
        p.finished = true;
        let was_at = p.local;
        p.local = p.local.max(now);
        p.finish_time = p.local;
        let (pid, local) = (p.pid, p.local);
        let span_req = p.span_req.take();
        self.vm.exit_process(local, pid);
        if let (Some(tracker), Some(req)) = (self.spans.as_mut(), span_req) {
            tracker.add(req, SpanState::Shed, was_at, local.since(was_at));
            tracker.close(req, local, true);
        }
        local
    }

    /// Aggregates the fleet section of the results: per-tenant exact
    /// tail digests, Jain's fairness over per-tenant means, the shed and
    /// brownout record, and pre/post-surge throughput. `None` when the
    /// run had neither tenant tags nor a pressure monitor (classic runs
    /// carry no fleet section). Also returns the fleet-wide digest so
    /// the metrics exporter can register its percentile family.
    fn compute_fleet(&mut self, end_time: SimTime) -> Option<(FleetStats, TailDigest)> {
        if self.pressure.is_none() && self.procs.iter().all(|p| p.tenant.is_none()) {
            return None;
        }
        let mut per_tenant: BTreeMap<u32, TailDigest> = BTreeMap::new();
        let mut overall = TailDigest::new();
        for &(_, tenant, resp) in &self.sweep_log {
            per_tenant.entry(tenant).or_default().record(resp);
            overall.record(resp);
        }
        let tenants: Vec<TenantTail> = per_tenant
            .iter_mut()
            .map(|(&tenant, d)| tenant_tail(tenant, d))
            .collect();
        let means: Vec<f64> = tenants.iter().map(|t| t.mean.as_secs_f64()).collect();
        let (pre, post, pre_rate, post_rate) = match self.surge_window {
            Some((start, end)) => {
                // Equal-width windows on either side of the storm, so the
                // two rates are directly comparable: `[start - w, start)`
                // against `[end, end + w)`.
                let w = end.since(start).min(start.since(SimTime::ZERO));
                let pre_from = SimTime::ZERO + start.since(SimTime::ZERO).saturating_sub(w);
                let post_to = end + w;
                let pre = self
                    .sweep_log
                    .iter()
                    .filter(|&&(t, ..)| t >= pre_from && t < start)
                    .count() as u64;
                let post = self
                    .sweep_log
                    .iter()
                    .filter(|&&(t, ..)| t >= end && t < post_to)
                    .count() as u64;
                let secs = w.as_secs_f64();
                let rate = |n: u64, secs: f64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
                (pre, post, rate(pre, secs), rate(post, secs))
            }
            None => {
                let all = self.sweep_log.len() as u64;
                let secs = end_time.as_secs_f64();
                let rate = if secs > 0.0 { all as f64 / secs } else { 0.0 };
                (all, 0, rate, 0.0)
            }
        };
        let (transitions, time_at_level) = match self.brownout.as_ref() {
            Some(c) => (c.stats().transitions, c.stats().time_at_level),
            None => {
                // No controller accounting: close out the raw monitor
                // clock instead.
                let (mut acc, since, at) = self.level_clock;
                acc[at as usize] += end_time.since(since);
                (0, acc)
            }
        };
        let final_level = self.brownout.as_ref().map_or_else(
            || {
                self.pressure
                    .as_ref()
                    .map_or(PressureLevel::Normal, |(_, m)| m.level())
            },
            BrownoutController::level,
        );
        let stats = FleetStats {
            tenants,
            overall: tenant_tail(u32::MAX, &mut overall),
            jain: jain(&means),
            tenants_shed: self.shed_log.len() as u64,
            oom_kills: self.procs.iter().filter(|p| p.oom_killed).count() as u64,
            sheds: self.shed_log.clone(),
            brownout_transitions: transitions,
            time_at_level,
            final_level,
            pressure_shifts: self.pressure.as_ref().map_or(0, |(_, m)| m.shifts()),
            pre_surge_sweeps: pre,
            post_surge_sweeps: post,
            pre_surge_rate: pre_rate,
            post_surge_rate: post_rate,
        };
        Some((stats, overall))
    }

    /// Credits releaser-verified frees to each process's admission trust
    /// score. This is the only path by which a low-trust tenant's
    /// releases earn good-behaviour credit: the VM's per-proc
    /// `pages_released` counter only moves when the releaser daemon
    /// actually freed a frame, so a tenant cannot launder trust by
    /// issuing releases for pages it never gives back.
    fn credit_verified_releases(&mut self, now: SimTime) {
        for p in &mut self.procs {
            let Some(rt) = p.rt.as_mut() else { continue };
            let released = self.vm.stats().proc(p.pid.0 as usize).pages_released.get();
            let delta = released.saturating_sub(p.released_seen);
            if delta > 0 {
                p.released_seen = released;
                rt.note_releases_verified(now, delta);
            }
        }
    }

    /// Fault injection: extra delay for one releaser wakeup — uniform
    /// jitter in `[0, releaser_jitter]`, or, with probability
    /// `releaser_stall`, a stall of four jitter windows after which the
    /// queued work is serviced in one burst.
    fn releaser_fault_delay(&mut self, now: SimTime) -> SimDuration {
        let f = self.faults.daemons;
        let Some(rng) = self.daemon_rng.as_mut() else {
            return SimDuration::ZERO;
        };
        if f.releaser_jitter == SimDuration::ZERO && f.releaser_stall == 0.0 {
            return SimDuration::ZERO;
        }
        let stall = f.releaser_stall > 0.0 && rng.next_f64() < f.releaser_stall;
        let window = if f.releaser_jitter > SimDuration::ZERO {
            f.releaser_jitter
        } else {
            self.vm.tunables().releaser_delay
        };
        let extra = if stall {
            window.saturating_mul(4)
        } else if f.releaser_jitter > SimDuration::ZERO {
            SimDuration::from_nanos(rng.next_u64() % (f.releaser_jitter.as_nanos() + 1))
        } else {
            SimDuration::ZERO
        };
        if extra > SimDuration::ZERO {
            self.fault_log.record(
                now,
                FaultKind::ReleaserJitter {
                    delay: extra,
                    stall,
                },
            );
        }
        extra
    }

    /// Fault injection: uniform extra skew in `[0, pagingd_skew]` for one
    /// paging-daemon wakeup.
    fn pagingd_fault_delay(&mut self, now: SimTime) -> SimDuration {
        let skew = self.faults.daemons.pagingd_skew;
        let Some(rng) = self.daemon_rng.as_mut() else {
            return SimDuration::ZERO;
        };
        if skew == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let extra = SimDuration::from_nanos(rng.next_u64() % (skew.as_nanos() + 1));
        if extra > SimDuration::ZERO {
            self.fault_log
                .record(now, FaultKind::PagingdSkew { delay: extra });
        }
        extra
    }
}

/// Summarizes one tail digest (exact nearest-rank percentiles).
fn tenant_tail(tenant: u32, d: &mut TailDigest) -> TenantTail {
    let (p50, p99, p999) = d.tail();
    TenantTail {
        tenant,
        count: d.count(),
        mean: d.mean(),
        p50,
        p99,
        p999,
        max: d.max(),
    }
}

/// Registers the fleet aggregates as metric families.
fn export_fleet_metrics(m: &mut MetricsRegistry, f: &FleetStats, overall: &mut TailDigest) {
    m.tail(
        "hogtame_fleet_response",
        "Interactive response time across all tenants",
        overall,
    );
    m.gauge(
        "hogtame_fleet_jain",
        "Jain fairness index over per-tenant mean response times",
        f.jain,
    );
    m.counter(
        "hogtame_fleet_tenants_shed_total",
        "Tenants shed by the brownout ladder",
        f.tenants_shed,
    );
    m.counter(
        "hogtame_fleet_oom_kills_total",
        "Processes killed on unsatisfiable allocations",
        f.oom_kills,
    );
    m.counter(
        "hogtame_fleet_brownout_transitions_total",
        "Brownout ladder moves in either direction",
        f.brownout_transitions,
    );
    m.counter(
        "hogtame_fleet_pressure_shifts_total",
        "Raw pressure-level changes seen by the monitor",
        f.pressure_shifts,
    );
    for level in PressureLevel::ALL {
        m.gauge(
            format!("hogtame_fleet_time_at_{}_seconds", level.name()),
            "Simulated time spent at this brownout rung",
            f.time_at_level[level.index()].as_secs_f64(),
        );
        // The same clock as an exact counter (nanoseconds), so scrapes
        // can be reconciled against `FleetStats::time_at_level` without
        // float rounding.
        m.counter(
            format!("hogtame_fleet_time_at_{}_nanos_total", level.name()),
            "Simulated nanoseconds spent at this brownout rung",
            f.time_at_level[level.index()].as_nanos(),
        );
    }
}

/// Lowercases a process name into a Prometheus-safe metric-name segment
/// (every non-alphanumeric byte becomes `_`).
fn metric_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::ops::VecStream;
    use vm::Backing;

    fn engine_small() -> Engine {
        Engine::new(MachineConfig::small())
    }

    #[test]
    fn single_process_compute_only() {
        let mut e = engine_small();
        let pid = e.vm_mut().add_process(false);
        let stream = VecStream::new([Op::Compute(SimDuration::from_millis(5)), Op::End]);
        e.register(pid, "calc", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(
            res.procs[0].breakdown.get(TimeCategory::User),
            SimDuration::from_millis(5)
        );
        assert_eq!(res.procs[0].finish_time, SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn touches_fault_and_charge_io() {
        let mut e = engine_small();
        let pid = e.vm_mut().add_process(false);
        let r = e.vm_mut().map_region(pid, 8, Backing::SwapPrefilled, false);
        let stream = VecStream::new([
            Op::Touch {
                vpn: r.start,
                write: false,
            },
            Op::Touch {
                vpn: r.start.offset(1),
                write: false,
            },
            Op::End,
        ]);
        e.register(pid, "toucher", Box::new(stream), None, true);
        let res = e.run();
        let b = &res.procs[0].breakdown;
        assert!(b.get(TimeCategory::StallIo) > SimDuration::ZERO);
        assert!(b.get(TimeCategory::System) > SimDuration::ZERO);
        assert_eq!(res.vm_stats.proc(pid.0 as usize).hard_faults.get(), 2);
        assert_eq!(res.swap_reads, 2);
    }

    #[test]
    fn two_processes_interleave_on_one_clock() {
        let mut e = engine_small();
        let a = e.vm_mut().add_process(false);
        let ra = e.vm_mut().map_region(a, 4, Backing::ZeroFill, false);
        let b = e.vm_mut().add_process(false);
        let rb = e.vm_mut().map_region(b, 4, Backing::ZeroFill, false);
        let mk = |base: vm::PageRange| {
            let mut ops = Vec::new();
            for i in 0..4 {
                ops.push(Op::Touch {
                    vpn: base.start.offset(i),
                    write: true,
                });
                ops.push(Op::Compute(SimDuration::from_micros(100)));
            }
            ops.push(Op::End);
            VecStream::new(ops)
        };
        e.register(a, "a", Box::new(mk(ra)), None, true);
        e.register(b, "b", Box::new(mk(rb)), None, true);
        let res = e.run();
        assert!(res.procs.iter().all(|p| p.finish_time < SimTime::MAX));
        // Both did their zero-fills.
        assert_eq!(res.vm_stats.proc(0).zero_fills.get(), 4);
        assert_eq!(res.vm_stats.proc(1).zero_fills.get(), 4);
    }

    #[test]
    fn sleep_advances_clock_without_charging() {
        let mut e = engine_small();
        let pid = e.vm_mut().add_process(false);
        let stream = VecStream::new([
            Op::Sleep(SimDuration::from_secs(3)),
            Op::Compute(SimDuration::from_millis(1)),
            Op::End,
        ]);
        e.register(pid, "sleeper", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(res.procs[0].breakdown.total(), SimDuration::from_millis(1));
        assert!(res.procs[0].finish_time >= SimTime::from_nanos(3_001_000_000));
    }

    #[test]
    fn marks_record_sweep_durations() {
        let mut e = engine_small();
        let pid = e.vm_mut().add_process(false);
        let stream = VecStream::new([
            Op::Mark(Mark::SweepStart),
            Op::Compute(SimDuration::from_millis(2)),
            Op::Mark(Mark::SweepEnd),
            Op::Mark(Mark::SweepStart),
            Op::Compute(SimDuration::from_millis(4)),
            Op::Mark(Mark::SweepEnd),
            Op::End,
        ]);
        e.register(pid, "marked", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(res.procs[0].sweeps.len(), 2);
        assert_eq!(res.procs[0].sweeps[0], SimDuration::from_millis(2));
        assert_eq!(res.procs[0].sweeps[1], SimDuration::from_millis(4));
        // mean_response skips the first sweep.
        assert_eq!(
            res.procs[0].mean_response().unwrap(),
            SimDuration::from_millis(4)
        );
    }

    #[test]
    fn max_time_stops_runaway_runs() {
        let mut e = engine_small();
        e.max_time = SimTime::from_nanos(1_000_000);
        let pid = e.vm_mut().add_process(false);
        // An infinite sleeper that never Ends.
        struct Forever;
        impl OpStream for Forever {
            fn next_op(&mut self) -> Op {
                Op::Sleep(SimDuration::from_millis(1))
            }
        }
        e.register(pid, "forever", Box::new(Forever), None, true);
        let res = e.run();
        assert!(res.end_time <= SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn cpu_contention_charges_resource_stall() {
        // Six compute-bound processes on four CPUs: every burst beyond the
        // fourth must wait, showing up as resource stall.
        let mut e = engine_small();
        assert_eq!(e.config().cpus, 4);
        let mut pids = Vec::new();
        for _ in 0..6 {
            pids.push(e.vm_mut().add_process(false));
        }
        for (k, pid) in pids.into_iter().enumerate() {
            let ops: Vec<Op> = std::iter::repeat_n(Op::Compute(SimDuration::from_millis(10)), 50)
                .chain([Op::End])
                .collect();
            e.register(
                pid,
                format!("cruncher-{k}"),
                Box::new(VecStream::new(ops)),
                None,
                true,
            );
        }
        let res = e.run();
        let total_wait: u64 = res
            .procs
            .iter()
            .map(|p| p.breakdown.get(TimeCategory::StallResource).as_nanos())
            .sum();
        assert!(
            total_wait > 0,
            "six runnable processes on four CPUs must queue"
        );
        // Work conservation: total user time is exactly 6 × 50 × 10 ms.
        let total_user: u64 = res
            .procs
            .iter()
            .map(|p| p.breakdown.get(TimeCategory::User).as_nanos())
            .sum();
        assert_eq!(total_user, 6 * 50 * 10_000_000);
        // The machine cannot finish faster than total work / 4 CPUs.
        let min_end = 6.0 * 50.0 * 0.010 / 4.0;
        assert!(res.end_time.as_secs_f64() >= min_end * 0.99);
    }

    #[test]
    fn four_processes_fit_without_contention() {
        let mut e = engine_small();
        for k in 0..4 {
            let pid = e.vm_mut().add_process(false);
            let ops: Vec<Op> = std::iter::repeat_n(Op::Compute(SimDuration::from_millis(5)), 20)
                .chain([Op::End])
                .collect();
            e.register(
                pid,
                format!("p{k}"),
                Box::new(VecStream::new(ops)),
                None,
                true,
            );
        }
        let res = e.run();
        for p in &res.procs {
            assert_eq!(
                p.breakdown.get(TimeCategory::StallResource),
                SimDuration::ZERO,
                "{} stalled with a free CPU",
                p.name
            );
        }
    }

    #[test]
    fn shrink_fault_fires_and_is_logged() {
        use sim_core::fault::{DaemonFaults, FaultPlan};
        let mut e = engine_small().with_fault_plan(FaultPlan {
            seed: 5,
            daemons: DaemonFaults {
                shrink_limit_at: Some(SimTime::from_nanos(1_000_000)),
                shrink_to_frac: 0.5,
                ..DaemonFaults::default()
            },
            ..FaultPlan::default()
        });
        let old_limit = e.vm().tunables().maxrss;
        let pid = e.vm_mut().add_process(false);
        let stream = VecStream::new([Op::Compute(SimDuration::from_millis(5)), Op::End]);
        e.register(pid, "calc", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(res.fault_log.count("limit_shrunk"), 1);
        let shrunk = res.fault_log.events().iter().any(|ev| {
            matches!(ev.kind, FaultKind::LimitShrunk { from, to }
                if from == old_limit && to < from)
        });
        assert!(shrunk, "log: {}", res.fault_log.summary());
    }

    #[test]
    fn daemon_jitter_draws_are_seed_reproducible() {
        use sim_core::fault::{DaemonFaults, FaultPlan};
        let run = || {
            let mut e = engine_small().with_fault_plan(FaultPlan {
                seed: 11,
                daemons: DaemonFaults {
                    releaser_jitter: SimDuration::from_micros(500),
                    releaser_stall: 0.25,
                    pagingd_skew: SimDuration::from_micros(200),
                    ..DaemonFaults::default()
                },
                ..FaultPlan::default()
            });
            let pid = e.vm_mut().add_process(false);
            let frames = e.config().frames as u64;
            let r = e
                .vm_mut()
                .map_region(pid, frames + 100, Backing::ZeroFill, false);
            let mut ops = Vec::new();
            for i in 0..frames + 50 {
                ops.push(Op::Touch {
                    vpn: r.start.offset(i),
                    write: false,
                });
                ops.push(Op::Compute(SimDuration::from_micros(30)));
            }
            ops.push(Op::End);
            e.register(pid, "hog", Box::new(VecStream::new(ops)), None, true);
            let res = e.run();
            (res.end_time, res.fault_log.summary())
        };
        let (end1, log1) = run();
        let (end2, log2) = run();
        assert_eq!(end1, end2, "jittered runs must reproduce exactly");
        assert_eq!(log1, log2);
        assert!(log1.contains("pagingd_skew"), "skew injected: {log1}");
    }

    #[test]
    fn releaser_crash_is_detected_restarted_and_reconciled() {
        use sim_core::fault::{CrashFaults, CrashSpec, FaultPlan};
        let run = || {
            let mut e = engine_small().with_fault_plan(FaultPlan {
                seed: 7,
                crashes: CrashFaults {
                    releaser: Some(CrashSpec::at(SimTime::from_nanos(1_000_000))),
                    ..CrashFaults::default()
                },
                ..FaultPlan::default()
            });
            let pid = e.vm_mut().add_process(false);
            let stream = VecStream::new([Op::Compute(SimDuration::from_millis(100)), Op::End]);
            e.register(pid, "calc", Box::new(stream), None, true);
            let res = e.run();
            (res.end_time, res.fault_log.summary())
        };
        let (end1, log1) = run();
        assert!(log1.contains("component_crashed"), "log: {log1}");
        assert!(log1.contains("crash_detected"), "log: {log1}");
        assert!(log1.contains("component_restarted"), "log: {log1}");
        assert!(log1.contains("state_reconciled"), "log: {log1}");
        assert!(!log1.contains("component_abandoned"), "log: {log1}");
        let (end2, log2) = run();
        assert_eq!(end1, end2, "crash-plan runs must reproduce exactly");
        assert_eq!(log1, log2);
    }

    #[test]
    fn permanent_crash_exhausts_restarts_and_is_abandoned() {
        use sim_core::fault::{CrashFaults, CrashSpec, FaultPlan};
        let mut e = engine_small().with_fault_plan(FaultPlan {
            seed: 9,
            crashes: CrashFaults {
                releaser: Some(CrashSpec::permanent(SimTime::from_nanos(1_000_000))),
                ..CrashFaults::default()
            },
            ..FaultPlan::default()
        });
        let pid = e.vm_mut().add_process(false);
        // Long enough that the full backoff ladder (10..500 ms, six
        // attempts) plays out before the primary finishes.
        let stream = VecStream::new([Op::Compute(SimDuration::from_secs(1)), Op::End]);
        e.register(pid, "calc", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(res.fault_log.count("component_crashed"), 1);
        assert_eq!(res.fault_log.count("component_abandoned"), 1);
        assert_eq!(res.fault_log.count("restart_failed"), 5);
        assert_eq!(res.fault_log.count("component_restarted"), 0);
        // The abandoned releaser still gets one reconcile pass so the run
        // degrades cleanly to stock paging.
        assert_eq!(res.fault_log.count("state_reconciled"), 1);
        assert!(res.procs[0].finish_time < SimTime::MAX, "run completed");
    }

    #[test]
    fn crash_free_plans_schedule_no_heartbeats() {
        use sim_core::fault::{FaultPlan, IoFaults};
        // A plan without crash specs must not perturb event interleaving.
        let mut e = engine_small().with_fault_plan(FaultPlan {
            seed: 2,
            io: IoFaults::flaky(0.1),
            ..FaultPlan::default()
        });
        let pid = e.vm_mut().add_process(false);
        let stream = VecStream::new([Op::Compute(SimDuration::from_millis(5)), Op::End]);
        e.register(pid, "calc", Box::new(stream), None, true);
        let res = e.run();
        assert_eq!(res.fault_log.count("component_crashed"), 0);
        assert_eq!(res.fault_log.count("crash_detected"), 0);
    }

    #[test]
    fn memory_pressure_wakes_paging_daemon() {
        let mut e = engine_small();
        let pid = e.vm_mut().add_process(false);
        let frames = e.config().frames as u64;
        let r = e
            .vm_mut()
            .map_region(pid, frames + 100, Backing::ZeroFill, false);
        let mut ops = Vec::new();
        for i in 0..frames + 50 {
            ops.push(Op::Touch {
                vpn: r.start.offset(i),
                write: false,
            });
            ops.push(Op::Compute(SimDuration::from_micros(30)));
        }
        ops.push(Op::End);
        e.register(pid, "hog", Box::new(VecStream::new(ops)), None, true);
        let res = e.run();
        assert!(res.vm_stats.pagingd.activations.get() > 0);
        assert!(res.vm_stats.pagingd.pages_stolen.get() > 0);
    }
}
