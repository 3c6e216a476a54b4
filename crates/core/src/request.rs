//! The unified run-description API.
//!
//! Every experiment in this reproduction — a paper figure cell, an
//! ablation point, a fault-matrix entry — is one *fully-specified,
//! self-contained* run: a machine, optionally an out-of-core benchmark in
//! one of the build versions, optionally the interactive task, plus
//! run-time-layer tunables, observation toggles and a seeded fault plan.
//! [`RunRequest`] is the value that carries all of it.
//!
//! Because a request captures *everything* the simulation reads (the
//! engine is a pure function of its inputs — see `tests/determinism.rs`),
//! requests can be executed in any order, on any thread, and produce
//! bit-identical results. That property is what the parallel executor in
//! [`crate::exec`] builds on: experiment runners expand their grids into
//! `Vec<RunRequest>` and hand them over; results come back by request
//! index, never by completion order.
//!
//! # Examples
//!
//! ```
//! use hogtame::prelude::*;
//!
//! let outcome = RunRequest::on(MachineConfig::small())
//!     .bench("MATVEC", Version::Buffered)
//!     .interactive(SimDuration::from_secs(5), None)
//!     .run()
//!     .expect("MATVEC is registered");
//! assert!(outcome.hog.unwrap().finish_time > SimTime::ZERO);
//! ```

use runtime::RtConfig;
use sim_core::fault::{AdversaryPlan, FaultPlan};
use sim_core::fingerprint::{Fingerprint, Fnv1a};
use sim_core::sanitizer::{self, Mutation};
use sim_core::{SimDuration, SimTime};
use vm::{Pid, TenantQuota};
use workloads::{BenchSpec, FleetSpec};

use crate::engine::{Engine, ProcResult, RunResult};
use crate::machine::MachineConfig;
use crate::scenario::{
    install_adversaries, install_bench, install_fleet, install_interactive, Version,
};

/// Why a [`RunRequest`] could not be executed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The requested benchmark name is not in the workload registry.
    UnknownBenchmark(String),
    /// The request named neither a benchmark nor the interactive task.
    Empty,
    /// The machine description cannot be simulated (zero page counts,
    /// zero or inverted memory limits) — caught by [`RunRequest::validate`]
    /// before it can surface as a deep engine panic.
    InvalidMachine(String),
    /// The per-tenant quota configuration is malformed (a zero guaranteed
    /// share, or guarantees that together exceed physical memory) —
    /// caught by [`RunRequest::validate`].
    InvalidTenants(String),
    /// The adversary plan references tenant slots that don't line up with
    /// the processes the request actually registers, or slots with no
    /// declared quota.
    InvalidAdversary(String),
    /// The fleet spec is malformed (zero tenants, an empty working-set
    /// range, a zero pressure period, an out-of-range surge shrink) —
    /// caught by [`RunRequest::validate`].
    InvalidFleet(String),
    /// The worker executing the request panicked (after exhausting any
    /// retries the fault plan's [`sim_core::fault::ExecFaults`] allowed).
    /// Only this request is lost; the rest of the grid is unaffected.
    Crashed(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name}"),
            RunError::Empty => write!(f, "empty run request (no benchmark, no interactive task)"),
            RunError::InvalidMachine(why) => write!(f, "invalid machine: {why}"),
            RunError::InvalidTenants(why) => write!(f, "invalid tenant quotas: {why}"),
            RunError::InvalidAdversary(why) => write!(f, "invalid adversary plan: {why}"),
            RunError::InvalidFleet(why) => write!(f, "invalid fleet spec: {why}"),
            RunError::Crashed(why) => write!(f, "worker crashed: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The benchmark a request runs: a registry name (resolved at run time,
/// fingerprint-stable) or a caller-supplied spec.
#[derive(Clone, Debug)]
enum BenchSel {
    Named(String),
    Spec(Box<BenchSpec>),
}

/// A fully-specified experimental run (see module docs).
#[derive(Clone, Debug)]
pub struct RunRequest {
    machine: MachineConfig,
    bench: Option<(BenchSel, Version)>,
    interactive: Option<(SimDuration, Option<u32>)>,
    rt_config: RtConfig,
    timeline: Option<SimDuration>,
    observe: bool,
    checked: bool,
    mutation: Option<(SimTime, Mutation)>,
    fault_plan: FaultPlan,
    reseed: Option<u64>,
    tenants: Vec<TenantQuota>,
    adversary: AdversaryPlan,
    fleet: Option<FleetSpec>,
}

/// Results of executing one [`RunRequest`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The out-of-core process, if one ran.
    pub hog: Option<ProcResult>,
    /// The interactive task, if it ran.
    pub interactive: Option<ProcResult>,
    /// The full engine results.
    pub run: RunResult,
}

impl RunRequest {
    /// Starts a request on `machine`.
    pub fn on(machine: MachineConfig) -> Self {
        RunRequest {
            machine,
            bench: None,
            interactive: None,
            rt_config: RtConfig::default(),
            timeline: None,
            observe: false,
            checked: sanitizer::env_checked(),
            mutation: None,
            fault_plan: FaultPlan::default(),
            reseed: None,
            tenants: Vec::new(),
            adversary: AdversaryPlan::default(),
            fleet: None,
        }
    }

    /// Adds a registry benchmark by name, in the given build version. The
    /// name is resolved when the request runs; an unknown name surfaces as
    /// [`RunError::UnknownBenchmark`].
    #[must_use]
    pub fn bench(mut self, name: impl Into<String>, version: Version) -> Self {
        self.bench = Some((BenchSel::Named(name.into()), version));
        self
    }

    /// Adds a caller-built benchmark spec (custom workloads, tests).
    #[must_use]
    pub fn bench_spec(mut self, spec: BenchSpec, version: Version) -> Self {
        self.bench = Some((BenchSel::Spec(Box::new(spec)), version));
        self
    }

    /// Adds the interactive task with the given think time and optional
    /// sweep limit.
    #[must_use]
    pub fn interactive(mut self, sleep: SimDuration, max_sweeps: Option<u32>) -> Self {
        self.interactive = Some((sleep, max_sweeps));
        self
    }

    /// Overrides the run-time layer configuration.
    #[must_use]
    pub fn rt_config(mut self, config: RtConfig) -> Self {
        self.rt_config = config;
        self
    }

    /// Enables memory-occupancy sampling at `period`.
    #[must_use]
    pub fn timeline(mut self, period: SimDuration) -> Self {
        self.timeline = Some(period);
        self
    }

    /// Enables full structured observability: every subsystem's flight
    /// recorder captures typed events and the outcome carries the merged
    /// stream in `RunOutcome::run.events` (see
    /// [`crate::engine::Engine::with_observability`]). Purely
    /// observational — sim outcomes are byte-identical with or without it.
    #[must_use]
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Enables checked mode: every subsystem arms its invariant probes
    /// and the VM diffs against the lockstep reference oracle (see
    /// [`crate::engine::Engine::with_checked`]). Also enabled for every
    /// request when the `HOGTAME_CHECKED` environment variable is set.
    /// A checked run's simulated outcome is bit-identical to an unchecked
    /// run; the first invariant disagreement raises a typed
    /// [`sim_core::sanitizer::InvariantViolation`].
    #[must_use]
    pub fn checked(mut self) -> Self {
        self.checked = true;
        self
    }

    /// Whether this request runs in checked mode.
    pub fn is_checked(&self) -> bool {
        self.checked
    }

    /// Schedules one deliberate state corruption at `at` — the
    /// checked-mode mutation self test (see
    /// [`crate::engine::Engine::with_mutation`]).
    #[doc(hidden)]
    #[must_use]
    pub fn mutate(mut self, at: SimTime, m: Mutation) -> Self {
        self.mutation = Some((at, m));
        self
    }

    /// Installs a seeded fault-injection plan for the run.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Re-seeds the benchmark's indirection-array contents (replication
    /// studies). No-op for benchmarks without indirect references.
    #[must_use]
    pub fn reseed(mut self, seed: u64) -> Self {
        self.reseed = Some(seed);
        self
    }

    /// Declares per-tenant memory quotas, indexed by registration order
    /// (tenant 0 is the benchmark if present, then the interactive task,
    /// then adversaries). Installing quotas generalizes the Eq. 1 shared
    /// limit: each tenant's upper limit is additionally clamped to its
    /// guaranteed share plus burstable slack, the slack is debited by
    /// wasteful hints, and the paging daemon will not steal a tenant
    /// below its guarantee while another tenant sits above its own.
    #[must_use]
    pub fn tenants(mut self, quotas: Vec<TenantQuota>) -> Self {
        self.tenants = quotas;
        self
    }

    /// Installs a seeded adversary plan: `plan.count` byzantine processes
    /// running `plan.strategy`, registered after the well-behaved
    /// processes starting at tenant slot `plan.tenant` (see
    /// [`sim_core::fault::AdversaryPlan`]).
    #[must_use]
    pub fn adversary(mut self, plan: AdversaryPlan) -> Self {
        self.adversary = plan;
        self
    }

    /// Installs a seeded fleet: arrival-process-driven hogs and
    /// interactive tasks, per-tenant quotas derived from the plan (hogs
    /// get `hog_guarantee` plus their working set as burst; tasks get
    /// their working set as guarantee), the pressure monitor, the
    /// brownout ladder when `spec.ladder`, and the surge window when a
    /// storm is scheduled. A surge's `shrink_to_frac < 1.0` is routed
    /// through the fault plan's daemon machinery (unless the plan
    /// already schedules its own shrink). Fleet results land in
    /// `RunOutcome::run.fleet`.
    #[must_use]
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.fleet = Some(spec);
        self
    }

    /// The machine this request runs on.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The fault plan this request runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether this request's successful outcome can be persisted to (and
    /// replayed from) a completion journal: plain statistical runs of a
    /// registry benchmark only. Timelines, structured event streams,
    /// health and admission statistics and fleet results carry state the
    /// journal codec deliberately does not model, and a custom spec is
    /// fingerprinted only approximately.
    pub fn journalable(&self) -> bool {
        self.timeline.is_none()
            && self.rt_config.health.is_none()
            && self.rt_config.admission.is_none()
            && !matches!(self.bench, Some((BenchSel::Spec(_), _)))
            && !self.observe
            && !self.checked
            && self.mutation.is_none()
            && self.tenants.is_empty()
            && !self.adversary.any()
            && self.fleet.is_none()
    }

    /// Validates the request without running it: a malformed machine
    /// description (zero page counts, zero or inverted memory limits)
    /// surfaces as a typed [`RunError::InvalidMachine`] here instead of a
    /// panic deep inside the engine.
    ///
    /// # Errors
    ///
    /// [`RunError::Empty`] for a request naming no workload at all, and
    /// [`RunError::InvalidMachine`] for an unsimulatable machine.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.bench.is_none() && self.interactive.is_none() && self.fleet.is_none() {
            return Err(RunError::Empty);
        }
        let m = &self.machine;
        if m.frames == 0 {
            return Err(RunError::InvalidMachine(String::from(
                "zero physical frames",
            )));
        }
        if m.page_size == 0 {
            return Err(RunError::InvalidMachine(String::from("zero page size")));
        }
        if m.prefetch_threads == 0 {
            return Err(RunError::InvalidMachine(String::from(
                "zero prefetch threads",
            )));
        }
        let t = &m.tunables;
        if t.maxrss == 0 {
            return Err(RunError::InvalidMachine(String::from(
                "zero maxrss memory limit",
            )));
        }
        if t.min_freemem > t.target_freemem {
            return Err(RunError::InvalidMachine(format!(
                "inverted free-memory limits (min {} > target {})",
                t.min_freemem, t.target_freemem
            )));
        }
        if t.target_freemem > m.frames as u64 {
            return Err(RunError::InvalidMachine(format!(
                "target_freemem {} exceeds the machine's {} frames",
                t.target_freemem, m.frames
            )));
        }
        for (i, q) in self.tenants.iter().enumerate() {
            if q.guaranteed == 0 {
                return Err(RunError::InvalidTenants(format!(
                    "tenant {i} has a zero guaranteed share (it could never hold a page)"
                )));
            }
        }
        let guarantees: u64 = self.tenants.iter().map(|q| q.guaranteed).sum();
        if guarantees > m.frames as u64 {
            return Err(RunError::InvalidTenants(format!(
                "guaranteed shares sum to {guarantees} frames but the machine has only {}",
                m.frames
            )));
        }
        if self.adversary.any() {
            // Pids are assigned in registration order (bench, interactive,
            // then adversaries), so the plan's starting slot is statically
            // checkable.
            let well_behaved =
                usize::from(self.bench.is_some()) + usize::from(self.interactive.is_some());
            if self.adversary.tenant as usize != well_behaved {
                return Err(RunError::InvalidAdversary(format!(
                    "plan starts at tenant slot {} but this request registers {} well-behaved \
                     process(es), so adversaries occupy slots {well_behaved}..",
                    self.adversary.tenant, well_behaved
                )));
            }
            let end = self.adversary.tenant as usize + self.adversary.count as usize;
            if !self.tenants.is_empty() && end > self.tenants.len() {
                return Err(RunError::InvalidAdversary(format!(
                    "adversaries occupy tenant slots {}..{end} but only {} tenant quota(s) \
                     are declared",
                    self.adversary.tenant,
                    self.tenants.len()
                )));
            }
        }
        if let Some(f) = &self.fleet {
            if f.tenants == 0 {
                return Err(RunError::InvalidFleet(String::from("zero tenants")));
            }
            if f.task_pages_min == 0 || f.task_pages_min > f.task_pages_max {
                return Err(RunError::InvalidFleet(format!(
                    "empty task working-set range {}..={}",
                    f.task_pages_min, f.task_pages_max
                )));
            }
            if f.hogs > 0 && f.hog_pages == 0 {
                return Err(RunError::InvalidFleet(String::from(
                    "hogs with a zero-page working set",
                )));
            }
            if f.pressure_period == SimDuration::ZERO {
                // A zero period would reschedule `Ev::Pressure` at the
                // same instant forever.
                return Err(RunError::InvalidFleet(String::from(
                    "zero pressure-sampling period",
                )));
            }
            if let Some(s) = f.surge {
                if !(s.shrink_to_frac > 0.0 && s.shrink_to_frac <= 1.0) {
                    return Err(RunError::InvalidFleet(format!(
                        "surge shrink_to_frac {} outside (0, 1]",
                        s.shrink_to_frac
                    )));
                }
                if s.hogs > 0 && s.hog_pages == 0 {
                    return Err(RunError::InvalidFleet(String::from(
                        "surge hogs with a zero-page working set",
                    )));
                }
                if s.waves == 0 {
                    return Err(RunError::InvalidFleet(String::from("zero surge waves")));
                }
                if s.waves > 1 && s.wave_gap == SimDuration::ZERO {
                    return Err(RunError::InvalidFleet(String::from(
                        "multi-wave surge with a zero wave gap",
                    )));
                }
            }
        }
        Ok(())
    }

    /// Executes the request. Borrows `self` so the executor can run the
    /// same request value from a queue without consuming it; every
    /// execution builds a fresh engine, which is what makes repeated and
    /// concurrent runs bit-identical.
    pub fn run(&self) -> Result<RunOutcome, RunError> {
        self.validate()?;
        let mut engine = Engine::new(self.machine.clone());
        if let Some(period) = self.timeline {
            engine = engine.with_timeline(period);
        }
        if self.observe {
            engine = engine.with_observability();
        }
        if self.checked {
            engine = engine.with_checked();
        }
        if let Some((at, m)) = self.mutation {
            engine = engine.with_mutation(at, m);
        }
        // A fleet surge's limit shrink rides the fault plan's existing
        // daemon machinery; an explicitly-scheduled shrink wins.
        let mut fault_plan = self.fault_plan;
        if let Some(surge) = self.fleet.as_ref().and_then(|f| f.surge) {
            if surge.shrink_to_frac < 1.0 && fault_plan.daemons.shrink_limit_at.is_none() {
                fault_plan.daemons.shrink_limit_at = Some(surge.at);
                fault_plan.daemons.shrink_to_frac = surge.shrink_to_frac;
            }
        }
        // Before registration: hint-emitting layers draw their per-process
        // fault streams at registration time.
        if fault_plan.any() {
            engine = engine.with_fault_plan(fault_plan);
        }
        let mut hog_idx = None;
        let mut int_idx = None;

        if let Some((sel, version)) = &self.bench {
            let spec = match sel {
                BenchSel::Named(name) => workloads::benchmark(name)
                    .ok_or_else(|| RunError::UnknownBenchmark(name.clone()))?,
                BenchSel::Spec(spec) => (**spec).clone(),
            };
            let spec = match self.reseed {
                Some(seed) => spec.reseed(seed),
                None => spec,
            };
            install_bench(&mut engine, &spec, *version, self.rt_config);
            hog_idx = Some(0usize);
        }
        if let Some((sleep, max_sweeps)) = self.interactive {
            // The interactive task is primary only when it runs alone.
            let primary = hog_idx.is_none();
            install_interactive(&mut engine, sleep, max_sweeps, primary);
            int_idx = Some(hog_idx.map_or(0, |_| 1));
        }
        install_adversaries(&mut engine, &self.adversary, self.rt_config, &fault_plan);
        for (i, q) in self.tenants.iter().enumerate() {
            engine.vm_mut().set_tenant_quota(Pid(i as u32), *q);
        }
        if let Some(spec) = &self.fleet {
            let pids = install_fleet(&mut engine, spec, self.rt_config);
            // Quotas derived from the plan: hogs may burst past their
            // guarantee (that is what makes them sheddable at
            // `Emergency`); a task's whole working set is guaranteed, so
            // the ladder can never shed it.
            for (pid, a) in pids.iter().zip(spec.plan()) {
                let q = if a.hog {
                    TenantQuota::new(spec.hog_guarantee.max(1), a.pages)
                } else {
                    TenantQuota::new(a.pages, 0)
                };
                engine.vm_mut().set_tenant_quota(*pid, q);
            }
            // Scale the ladder's step-down dwell to wall-clock rather
            // than sample count: ~250 ms of strictly-calmer samples
            // (never fewer than the stock 3) before it unwinds one rung.
            // At fast sampling periods the stock count would unwind in
            // single-digit milliseconds — before a storm's next wave —
            // defeating the hysteresis.
            let ladder = spec.ladder.then(|| {
                let stock = runtime::BrownoutConfig::default();
                let dwell = SimDuration::from_millis(250).as_nanos();
                let per = spec.pressure_period.as_nanos().max(1);
                let calm = u32::try_from(dwell.div_ceil(per)).unwrap_or(u32::MAX);
                runtime::BrownoutConfig {
                    calm_samples: calm.max(stock.calm_samples),
                    ..stock
                }
            });
            engine.enable_overload_control(spec.pressure_period, ladder);
            if let Some(s) = spec.surge {
                engine.set_surge_window(s.at, s.at + s.duration);
            }
        }

        let run = engine.run();
        Ok(RunOutcome {
            hog: hog_idx.map(|i| run.procs[i].clone()),
            interactive: int_idx.map(|i| run.procs[i].clone()),
            run,
        })
    }

    /// Feeds a canonical encoding of the request into `h` — the key of its
    /// completion-journal record (see [`crate::journal`]).
    /// Two requests that would simulate identically fingerprint
    /// identically; any field that could change the results is included.
    pub fn feed(&self, h: &mut Fnv1a) {
        h.write_str("run_request/v4");
        // MachineConfig holds only plain scalar/struct fields, so its
        // `Debug` rendering is a deterministic value encoding (no
        // randomized map iteration anywhere in it).
        h.write_str(&format!("{:?}", self.machine));
        match &self.bench {
            None => h.write_str("no-bench"),
            Some((sel, version)) => {
                h.write_str(version.label());
                match sel {
                    BenchSel::Named(name) => {
                        h.write_str("named");
                        h.write_str(name);
                    }
                    BenchSel::Spec(spec) => {
                        // Custom specs are fingerprinted structurally but
                        // approximately: they are never journaled, so they
                        // just need inequality with high probability.
                        h.write_str("spec");
                        h.write_str(&spec.name);
                        h.write_u64(spec.data_set_bytes());
                        h.write_u64(spec.estimated_iterations());
                        h.write_u64(u64::from(spec.invocations));
                    }
                }
            }
        }
        match self.interactive {
            None => h.write_str("no-interactive"),
            Some((sleep, max_sweeps)) => {
                h.write_str("interactive");
                sleep.feed(h);
                h.write_u64(max_sweeps.map_or(u64::MAX, u64::from));
            }
        }
        h.write_str(&format!("{:?}", self.rt_config));
        match self.timeline {
            None => h.write_bool(false),
            Some(p) => {
                h.write_bool(true);
                p.feed(h);
            }
        }
        h.write_bool(self.observe);
        h.write_bool(self.checked);
        match self.mutation {
            None => h.write_bool(false),
            Some((at, m)) => {
                h.write_bool(true);
                h.write_u64(at.as_nanos());
                h.write_str(m.label());
            }
        }
        self.fault_plan.feed(h);
        h.write_u64(self.reseed.map_or(u64::MAX, |s| s));
        // Written ONLY when set, so a plain request's fingerprint does not
        // depend on these later axes.
        if !self.tenants.is_empty() {
            h.write_str("tenants");
            h.write_u64(self.tenants.len() as u64);
            for q in &self.tenants {
                h.write_u64(q.guaranteed);
                h.write_u64(q.burst);
            }
        }
        if self.adversary.any() {
            h.write_str("adversary");
            h.write_str(self.adversary.strategy.map_or("none", |s| s.name()));
            h.write_u64(u64::from(self.adversary.count));
            h.write_u64(u64::from(self.adversary.tenant));
            h.write_u64(self.adversary.pages);
            h.write_u64(u64::from(self.adversary.intensity));
        }
        if let Some(f) = &self.fleet {
            h.write_str("fleet");
            // Like MachineConfig above: plain scalar fields only, so the
            // `Debug` rendering is a deterministic value encoding.
            h.write_str(&format!("{f:?}"));
        }
    }

    /// The 64-bit fingerprint of this request alone.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.feed(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    #[test]
    fn empty_request_is_a_typed_error() {
        let err = RunRequest::on(MachineConfig::small()).run().unwrap_err();
        assert_eq!(err, RunError::Empty);
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let err = RunRequest::on(MachineConfig::small())
            .bench("NO-SUCH-BENCH", Version::Original)
            .run()
            .unwrap_err();
        assert_eq!(err, RunError::UnknownBenchmark("NO-SUCH-BENCH".into()));
    }

    #[test]
    fn malformed_machines_are_typed_errors_not_panics() {
        let base = |m: MachineConfig| {
            RunRequest::on(m)
                .bench("MATVEC", Version::Original)
                .run()
                .unwrap_err()
        };
        let mut zero_frames = MachineConfig::small();
        zero_frames.frames = 0;
        assert!(matches!(base(zero_frames), RunError::InvalidMachine(_)));

        let mut zero_pages = MachineConfig::small();
        zero_pages.page_size = 0;
        assert!(matches!(base(zero_pages), RunError::InvalidMachine(_)));

        let mut no_threads = MachineConfig::small();
        no_threads.prefetch_threads = 0;
        assert!(matches!(base(no_threads), RunError::InvalidMachine(_)));

        let mut zero_limit = MachineConfig::small();
        zero_limit.tunables.maxrss = 0;
        assert!(matches!(base(zero_limit), RunError::InvalidMachine(_)));

        let mut inverted = MachineConfig::small();
        inverted.tunables.min_freemem = inverted.tunables.target_freemem + 1;
        let err = base(inverted);
        assert!(matches!(err, RunError::InvalidMachine(_)));
        assert!(err.to_string().contains("inverted"), "err: {err}");

        let mut oversize_target = MachineConfig::small();
        oversize_target.tunables.target_freemem = oversize_target.frames as u64 + 1;
        assert!(matches!(base(oversize_target), RunError::InvalidMachine(_)));

        assert!(RunRequest::on(MachineConfig::small())
            .interactive(SimDuration::from_secs(1), Some(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn journalable_excludes_observational_runs() {
        let base = RunRequest::on(MachineConfig::small()).bench("MATVEC", Version::Original);
        assert!(base.clone().journalable());
        assert!(!base
            .clone()
            .timeline(SimDuration::from_millis(1))
            .journalable());
        assert!(!base.clone().observe().journalable());
        assert!(!base.clone().checked().journalable());
        assert!(!base
            .clone()
            .mutate(SimTime::from_nanos(1), Mutation::LeakFrame)
            .journalable());
        for rt in [
            RtConfig {
                health: Some(runtime::HealthConfig::default()),
                ..RtConfig::default()
            },
            RtConfig {
                admission: Some(runtime::AdmissionConfig::default()),
                ..RtConfig::default()
            },
        ] {
            assert!(!base.clone().rt_config(rt).journalable());
        }
        let spec = workloads::benchmark("MATVEC").expect("registered");
        assert!(!base.bench_spec(spec, Version::Original).journalable());
    }

    #[test]
    fn interactive_alone_runs() {
        let outcome = RunRequest::on(MachineConfig::small())
            .interactive(SimDuration::from_secs(1), Some(5))
            .run()
            .unwrap();
        let int = outcome.interactive.unwrap();
        assert_eq!(int.sweeps.len(), 5);
        assert!(outcome.hog.is_none());
    }

    #[test]
    fn rerunning_one_request_is_bit_identical() {
        let req = RunRequest::on(MachineConfig::small())
            .bench("MATVEC", Version::Release)
            .interactive(SimDuration::from_secs(1), None);
        let a = req.run().unwrap();
        let b = req.run().unwrap();
        let key = |o: &RunOutcome| {
            (
                o.hog.as_ref().unwrap().finish_time,
                o.run.swap_reads,
                o.run.vm_stats.releaser.pages_released.get(),
            )
        };
        assert_eq!(key(&a), key(&b));
        assert!(a.hog.unwrap().finish_time < SimTime::MAX);
    }

    #[test]
    fn fingerprint_separates_every_axis() {
        let base = || {
            RunRequest::on(MachineConfig::small())
                .bench("MATVEC", Version::Release)
                .interactive(SimDuration::from_secs(5), None)
        };
        let fp = base().fingerprint();
        assert_eq!(fp, base().fingerprint(), "fingerprint is stable");
        let variants = [
            base().bench("MATVEC", Version::Buffered),
            base().bench("EMBAR", Version::Release),
            base().interactive(SimDuration::from_secs(4), None),
            base().interactive(SimDuration::from_secs(5), Some(12)),
            base().timeline(SimDuration::from_millis(250)),
            base().observe(),
            base().checked(),
            base().mutate(SimTime::from_nanos(1), Mutation::LeakFrame),
            base().reseed(7),
            base().fault_plan(FaultPlan {
                seed: 1,
                hints: sim_core::fault::HintFaults::poisoned(0.5),
                ..FaultPlan::default()
            }),
            base().fault_plan(FaultPlan {
                seed: 1,
                crashes: sim_core::fault::CrashFaults {
                    releaser: Some(sim_core::fault::CrashSpec::at(SimTime::from_nanos(
                        1_000_000,
                    ))),
                    ..sim_core::fault::CrashFaults::default()
                },
                ..FaultPlan::default()
            }),
            base().fault_plan(FaultPlan {
                seed: 1,
                exec: sim_core::fault::ExecFaults::flaky(2),
                ..FaultPlan::default()
            }),
            RunRequest::on(MachineConfig::origin200())
                .bench("MATVEC", Version::Release)
                .interactive(SimDuration::from_secs(5), None),
            base().tenants(vec![TenantQuota::new(100, 20), TenantQuota::new(50, 10)]),
            base().adversary(AdversaryPlan::new(
                sim_core::fault::AdversaryStrategy::HintFlood,
                2,
                2,
            )),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(fp, v.fingerprint(), "variant {i} must change the key");
        }
        // Quota amounts and adversary strategy are themselves axes.
        let q = base().tenants(vec![TenantQuota::new(100, 20)]);
        assert_ne!(
            q.fingerprint(),
            base()
                .tenants(vec![TenantQuota::new(100, 21)])
                .fingerprint()
        );
        let a = |s| base().adversary(AdversaryPlan::new(s, 2, 2));
        assert_ne!(
            a(sim_core::fault::AdversaryStrategy::HintFlood).fingerprint(),
            a(sim_core::fault::AdversaryStrategy::QuotaProbing).fingerprint()
        );
    }

    #[test]
    fn malformed_tenant_configs_are_typed_errors() {
        let base = || {
            RunRequest::on(MachineConfig::small()).interactive(SimDuration::from_secs(1), Some(1))
        };
        let err = base()
            .tenants(vec![TenantQuota::new(0, 10)])
            .validate()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidTenants(_)), "err: {err}");
        assert!(err.to_string().contains("zero guaranteed"), "err: {err}");

        let frames = MachineConfig::small().frames as u64;
        let err = base()
            .tenants(vec![
                TenantQuota::new(frames, 0),
                TenantQuota::new(frames, 0),
            ])
            .validate()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidTenants(_)), "err: {err}");

        // A valid quota passes.
        assert!(base()
            .tenants(vec![TenantQuota::new(64, 16)])
            .validate()
            .is_ok());
    }

    #[test]
    fn fleet_run_completes_with_tail_stats() {
        use workloads::{FleetSpec, SurgeSpec};
        let spec = FleetSpec {
            hogs: 4,
            tasks: 12,
            horizon: SimDuration::from_secs(3),
            surge: Some(SurgeSpec {
                hogs: 3,
                ..SurgeSpec::default()
            }),
            ..FleetSpec::default()
        };
        let req = RunRequest::on(MachineConfig::small()).fleet(spec);
        assert!(!req.journalable(), "fleet runs are not journalable");
        let out = req.run().unwrap();
        let fleet = out.run.fleet.as_ref().expect("fleet section present");
        assert!(fleet.overall.count > 0, "tasks recorded sweeps");
        assert!(fleet.overall.p50 <= fleet.overall.p99);
        assert!(fleet.overall.p99 <= fleet.overall.p999);
        assert!(fleet.jain > 0.0 && fleet.jain <= 1.0, "jain {}", fleet.jain);
        assert!(!fleet.tenants.is_empty());
        // Every process terminated (finished or shed) — never a panic.
        assert!(out.run.procs.iter().all(|p| p.finish_time < SimTime::MAX));
        // The pre/post throughput accounting saw the surge window.
        assert!(fleet.pre_surge_sweeps > 0);
        // Percentile metric families registered.
        assert!(out
            .run
            .metrics
            .get("hogtame_fleet_response_p99_seconds")
            .is_some());
    }

    #[test]
    fn fleet_runs_are_bit_identical() {
        use workloads::FleetSpec;
        let spec = FleetSpec {
            hogs: 3,
            tasks: 10,
            horizon: SimDuration::from_secs(2),
            ..FleetSpec::default()
        };
        let req = RunRequest::on(MachineConfig::small()).fleet(spec);
        let a = req.run().unwrap();
        let b = req.run().unwrap();
        let key = |o: &RunOutcome| {
            let f = o.run.fleet.as_ref().unwrap();
            (
                o.run.end_time,
                f.overall.count,
                f.overall.p999,
                f.tenants_shed,
                f.brownout_transitions,
            )
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn malformed_fleet_specs_are_typed_errors() {
        use workloads::{FleetSpec, SurgeSpec};
        let base = || RunRequest::on(MachineConfig::small());
        let err = |spec: FleetSpec| base().fleet(spec).validate().unwrap_err();
        assert!(matches!(
            err(FleetSpec {
                tenants: 0,
                ..FleetSpec::default()
            }),
            RunError::InvalidFleet(_)
        ));
        assert!(matches!(
            err(FleetSpec {
                task_pages_min: 8,
                task_pages_max: 4,
                ..FleetSpec::default()
            }),
            RunError::InvalidFleet(_)
        ));
        assert!(matches!(
            err(FleetSpec {
                pressure_period: SimDuration::ZERO,
                ..FleetSpec::default()
            }),
            RunError::InvalidFleet(_)
        ));
        assert!(matches!(
            err(FleetSpec {
                surge: Some(SurgeSpec {
                    shrink_to_frac: 0.0,
                    ..SurgeSpec::default()
                }),
                ..FleetSpec::default()
            }),
            RunError::InvalidFleet(_)
        ));
        assert!(base().fleet(FleetSpec::default()).validate().is_ok());
    }

    #[test]
    fn malformed_adversary_plans_are_typed_errors() {
        use sim_core::fault::AdversaryStrategy;
        let base = || {
            RunRequest::on(MachineConfig::small()).interactive(SimDuration::from_secs(1), Some(1))
        };
        // Slot 2, but only the interactive task registers (slot 0).
        let err = base()
            .adversary(AdversaryPlan::new(AdversaryStrategy::HintFlood, 1, 2))
            .validate()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidAdversary(_)), "err: {err}");

        // Two adversaries at slots 1..3, but quotas declared only for 1.
        let err = base()
            .tenants(vec![TenantQuota::new(64, 8)])
            .adversary(AdversaryPlan::new(AdversaryStrategy::HintFlood, 2, 1))
            .validate()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidAdversary(_)), "err: {err}");

        // Properly covered: interactive at 0, adversaries at 1..3.
        assert!(base()
            .tenants(vec![
                TenantQuota::new(64, 8),
                TenantQuota::new(32, 8),
                TenantQuota::new(32, 8),
            ])
            .adversary(AdversaryPlan::new(AdversaryStrategy::HintFlood, 2, 1))
            .validate()
            .is_ok());
    }

    #[test]
    fn adversary_run_completes_and_is_bit_identical() {
        use sim_core::fault::AdversaryStrategy;
        let req = RunRequest::on(MachineConfig::small())
            .interactive(SimDuration::from_millis(50), Some(8))
            .tenants(vec![TenantQuota::new(80, 16), TenantQuota::new(100, 16)])
            .adversary(AdversaryPlan::new(AdversaryStrategy::HintFlood, 1, 1));
        assert!(!req.journalable(), "adversary runs are not journalable");
        let a = req.run().unwrap();
        let b = req.run().unwrap();
        let int = a.interactive.as_ref().unwrap();
        assert_eq!(int.sweeps.len(), 8, "victim finished all sweeps");
        assert_eq!(a.run.procs.len(), 2, "interactive + 1 adversary");
        assert_eq!(
            a.interactive.unwrap().finish_time,
            b.interactive.unwrap().finish_time,
            "adversary runs are bit-reproducible"
        );
    }
}
