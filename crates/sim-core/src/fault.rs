//! Deterministic fault injection.
//!
//! The paper's robustness story is that compiler hints are *advisory*:
//! wrong, late, or missing hints must degrade the system toward stock
//! reactive paging rather than corrupt it. This module defines the
//! **fault plan** — the seeded configuration describing which faults to
//! inject where — plus the event types the rest of the stack uses to
//! record what it injected and how the degradation machinery responded.
//!
//! The plan itself lives here so every layer (runtime hint filters, the
//! VM daemons, the disk array) shares one vocabulary, but the injection
//! *mechanics* live next to the code they perturb. Every random draw
//! comes from a [`Pcg32`] derived from the plan seed and a fixed
//! per-domain stream, so a faulty run is exactly reproducible from its
//! seed — determinism is a hard invariant, faults included.

use std::collections::BTreeMap;

use crate::rng::{Pcg32, SplitMix64};
use crate::{SimDuration, SimTime};

/// Perturbations of the compiler's hint stream, applied by the run-time
/// layer before its own filters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HintFaults {
    /// Probability a hint is silently dropped.
    pub drop: f64,
    /// Probability a hint is delivered twice.
    pub duplicate: f64,
    /// Probability a hint's tag is rewritten to an unrelated tag.
    pub mistag: f64,
    /// Probability a hint is delayed: held back and delivered in front of
    /// the *next* hint the process issues (hints arrive late and out of
    /// order, as a preempted user thread would deliver them).
    pub delay: f64,
    /// Staleness window for shared-page reads: the layer caches bitmap and
    /// usage/limit reads and serves them unrefreshed for this long.
    pub stale_shared_window: SimDuration,
}

impl HintFaults {
    /// Whether any hint fault is configured.
    pub fn any(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.mistag > 0.0
            || self.delay > 0.0
            || self.stale_shared_window > SimDuration::ZERO
    }

    /// Full poisoning at `rate`: drop/duplicate/mis-tag each at `rate`,
    /// delay at `rate`, and a generous staleness window. At `rate = 1.0`
    /// every hint is dropped — the stream carries no information at all.
    pub fn poisoned(rate: f64) -> Self {
        HintFaults {
            drop: rate,
            duplicate: rate * 0.5,
            mistag: rate * 0.5,
            delay: rate * 0.5,
            stale_shared_window: SimDuration::from_millis((rate * 50.0) as u64),
        }
    }
}

/// Perturbations of the kernel daemons' scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DaemonFaults {
    /// Extra uniform jitter in `[0, releaser_jitter]` added to every
    /// releaser wakeup (models a loaded run queue).
    pub releaser_jitter: SimDuration,
    /// Probability a releaser wakeup *stalls*: it is deferred by four
    /// jitter windows, after which the queued work is serviced in one
    /// burst.
    pub releaser_stall: f64,
    /// Extra uniform skew in `[0, pagingd_skew]` added to paging-daemon
    /// wakeups.
    pub pagingd_skew: SimDuration,
    /// If set, at this instant the per-process upper memory limit
    /// (`maxrss`) shrinks to `shrink_to_frac` of its configured value —
    /// a hostile memory hog stealing the machine mid-run.
    pub shrink_limit_at: Option<SimTime>,
    /// Fraction of the configured limit that survives the shrink.
    pub shrink_to_frac: f64,
}

impl DaemonFaults {
    /// Whether any daemon fault is configured.
    pub fn any(&self) -> bool {
        self.releaser_jitter > SimDuration::ZERO
            || self.releaser_stall > 0.0
            || self.pagingd_skew > SimDuration::ZERO
            || self.shrink_limit_at.is_some()
    }
}

/// Perturbations of the swap disk array.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoFaults {
    /// Probability a read or write fails transiently and must be retried.
    pub transient: f64,
    /// Bound on retries for one request; each retry waits an exponential
    /// backoff (`backoff`, doubled per attempt) and repeats the transfer.
    /// A request that exhausts its retries completes anyway (the sim has
    /// no data to lose) but is charged the full retry latency.
    pub max_retries: u32,
    /// Initial backoff before the first retry.
    pub backoff: SimDuration,
    /// Probability a request lands in the slow tail.
    pub tail: f64,
    /// Service-time multiplier for tail requests (e.g. 8 = an 8× tail).
    pub tail_factor: u32,
}

impl IoFaults {
    /// Whether any I/O fault is configured.
    pub fn any(&self) -> bool {
        self.transient > 0.0 || self.tail > 0.0
    }

    /// A flaky array: transient failures at `rate` with 3 retries and a
    /// 2 ms starting backoff, plus an 8× latency tail at `rate / 4`.
    pub fn flaky(rate: f64) -> Self {
        IoFaults {
            transient: rate,
            max_retries: 3,
            backoff: SimDuration::from_millis(2),
            tail: rate / 4.0,
            tail_factor: 8,
        }
    }
}

/// Which supervised component a crash fault kills.
///
/// Each of these is part of the *guided* path: the system must survive
/// losing any of them because the paging daemon — the stock reactive
/// backstop — is never crashable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashComponent {
    /// The releaser daemon (the paper's new kernel daemon).
    Releaser,
    /// The run-time layer's prefetch thread pool.
    PrefetchPool,
    /// The run-time hint layer as a whole (filters, buffers, tag state).
    HintLayer,
}

impl CrashComponent {
    /// A short stable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CrashComponent::Releaser => "releaser",
            CrashComponent::PrefetchPool => "prefetch_pool",
            CrashComponent::HintLayer => "hint_layer",
        }
    }
}

/// One scheduled component crash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSpec {
    /// The instant the component dies.
    pub at: SimTime,
    /// If true, every restart attempt fails and the supervisor eventually
    /// abandons the component — the run degrades to stock behaviour.
    pub permanent: bool,
    /// Number of restart attempts that fail before one succeeds
    /// (deterministically exercises the exponential backoff). Ignored when
    /// `permanent` is set.
    pub failed_restarts: u32,
}

impl CrashSpec {
    /// A crash at `at` whose first restart attempt succeeds.
    pub fn at(at: SimTime) -> Self {
        CrashSpec {
            at,
            permanent: false,
            failed_restarts: 0,
        }
    }

    /// A permanent crash at `at` (the component never comes back).
    pub fn permanent(at: SimTime) -> Self {
        CrashSpec {
            at,
            permanent: true,
            failed_restarts: 0,
        }
    }

    /// A crash whose first `n` restart attempts fail.
    #[must_use]
    pub fn with_failed_restarts(mut self, n: u32) -> Self {
        self.failed_restarts = n;
        self
    }
}

/// Supervisor tuning: heartbeat-based detection and bounded exponential
/// restart backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SupervisorConfig {
    /// Period of the supervisor's heartbeat probe.
    pub heartbeat_period: SimDuration,
    /// Consecutive missed heartbeats before a crash is declared.
    pub miss_threshold: u32,
    /// Backoff before the first restart attempt.
    pub backoff_initial: SimDuration,
    /// Upper bound on the (doubling) backoff.
    pub backoff_cap: SimDuration,
    /// Restart attempts before the supervisor abandons the component.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            heartbeat_period: SimDuration::from_millis(5),
            miss_threshold: 2,
            backoff_initial: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(500),
            max_restarts: 6,
        }
    }
}

/// Component-crash faults: which supervised components die, and how the
/// supervisor that watches them is tuned.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CrashFaults {
    /// Crash of the releaser daemon.
    pub releaser: Option<CrashSpec>,
    /// Crash of the prefetch thread pool.
    pub prefetch: Option<CrashSpec>,
    /// Crash of the whole run-time hint layer.
    pub hint_layer: Option<CrashSpec>,
    /// Supervisor tuning shared by all supervised components.
    pub supervisor: SupervisorConfig,
}

impl CrashFaults {
    /// Whether any component crash is configured.
    pub fn any(&self) -> bool {
        self.releaser.is_some() || self.prefetch.is_some() || self.hint_layer.is_some()
    }

    /// The spec configured for `component`, if any.
    pub fn spec_for(&self, component: CrashComponent) -> Option<CrashSpec> {
        match component {
            CrashComponent::Releaser => self.releaser,
            CrashComponent::PrefetchPool => self.prefetch,
            CrashComponent::HintLayer => self.hint_layer,
        }
    }
}

/// Executor-level faults: injected worker panics, handled *outside* the
/// simulation by `hogtame::exec`'s panic isolation and retry machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecFaults {
    /// Number of times executing this request panics before it succeeds.
    pub transient_panics: u32,
    /// Bound on automatic retries the executor performs for the request.
    /// With `max_retries < transient_panics` the request surfaces as a
    /// crash error; otherwise a retry eventually succeeds.
    pub max_retries: u32,
}

impl ExecFaults {
    /// Whether any executor fault is configured.
    pub fn any(&self) -> bool {
        self.transient_panics > 0
    }

    /// A transiently-crashable request: panics `n` times, retried up to
    /// `n` times, so the final attempt succeeds.
    pub fn flaky(n: u32) -> Self {
        ExecFaults {
            transient_panics: n,
            max_retries: n,
        }
    }
}

/// One byzantine hint-abuse strategy a hostile tenant runs.
///
/// Faults model *accidents*; an adversary models *malice*: a tenant
/// deliberately shaping its hint stream to steal memory or kernel time
/// from its neighbours. Each strategy targets a different seam of the
/// guided-paging machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdversaryStrategy {
    /// Saturate the hint path with maximum-rate prefetch+release churn,
    /// burning kernel hint-check time and daemon activations.
    HintFlood,
    /// Prefetch huge ranges it never touches, draining the free list so
    /// neighbours' allocations force paging-daemon scans.
    FalsePrefetchStorm,
    /// Grow a large resident set and never release, touching pages just
    /// often enough to defeat the clock — a classic memory hog that
    /// ignores the cooperative protocol entirely.
    ReleaseWithholding,
    /// Issue releases for pages it immediately re-touches, farming
    /// rescue/cancellation work while looking cooperative (inflating its
    /// apparent hint "priority").
    PriorityInflation,
    /// Alternate bursts that probe the quota ceiling with idle cool-downs,
    /// trying to time allocation spikes between daemon activations.
    QuotaProbing,
}

impl AdversaryStrategy {
    /// All strategies, in matrix order.
    pub const ALL: [AdversaryStrategy; 5] = [
        AdversaryStrategy::HintFlood,
        AdversaryStrategy::FalsePrefetchStorm,
        AdversaryStrategy::ReleaseWithholding,
        AdversaryStrategy::PriorityInflation,
        AdversaryStrategy::QuotaProbing,
    ];

    /// A short stable name for reports and fingerprints.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryStrategy::HintFlood => "hint_flood",
            AdversaryStrategy::FalsePrefetchStorm => "false_prefetch_storm",
            AdversaryStrategy::ReleaseWithholding => "release_withholding",
            AdversaryStrategy::PriorityInflation => "priority_inflation",
            AdversaryStrategy::QuotaProbing => "quota_probing",
        }
    }
}

/// A seeded description of the hostile tenants in one run.
///
/// `count` adversaries all run `strategy`, occupying the tenant slots
/// `[tenant, tenant + count)` of the run's tenant table (so quota
/// validation can check the references). Adversary `k` draws from
/// `stream_rng(FaultDomain::Adversary, k)` — adding an adversary never
/// shifts the draws another one sees.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryPlan {
    /// The abuse strategy every adversary in this plan runs.
    pub strategy: Option<AdversaryStrategy>,
    /// Number of hostile tenants (0 = no adversaries; the default).
    pub count: u32,
    /// Index of the first adversary's slot in the run's tenant table.
    pub tenant: u32,
    /// Pages each adversary grazes over (its attack working set).
    pub pages: u64,
    /// Aggression knob: hints per burst for the hint strategies, touch
    /// fraction for the withholding strategy, burst length for probing.
    pub intensity: u32,
}

impl AdversaryPlan {
    /// A plan running `count` adversaries of `strategy` starting at
    /// tenant slot `tenant`, with a default working set and intensity.
    pub fn new(strategy: AdversaryStrategy, count: u32, tenant: u32) -> Self {
        AdversaryPlan {
            strategy: Some(strategy),
            count,
            tenant,
            pages: 256,
            intensity: 32,
        }
    }

    /// Whether the plan fields any adversary at all.
    pub fn any(&self) -> bool {
        self.strategy.is_some() && self.count > 0
    }
}

/// The complete, seeded description of what to inject into one run.
///
/// A default plan injects nothing; `FaultPlan::default()` is the
/// fault-free run every experiment uses unless a scenario opts in.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-domain fault RNG streams derive from.
    pub seed: u64,
    /// Hint-stream perturbation (run-time layer).
    pub hints: HintFaults,
    /// Daemon scheduling perturbation (VM system / engine).
    pub daemons: DaemonFaults,
    /// Disk perturbation (swap array).
    pub io: IoFaults,
    /// Component crashes and supervisor tuning (engine).
    pub crashes: CrashFaults,
    /// Worker-panic injection (experiment executor).
    pub exec: ExecFaults,
}

/// The independent random streams a plan feeds. Each domain draws from
/// its own [`Pcg32`] so adding a fault class never perturbs the draws of
/// another domain (which would destroy cross-run comparability).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDomain {
    /// Hint-stream perturbation in the run-time layer.
    Hints,
    /// Daemon scheduling perturbation.
    Daemons,
    /// Disk I/O perturbation.
    Io,
    /// Hostile-tenant behaviour scripts (one stream per adversary).
    Adversary,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (useful as a base to
    /// struct-update from).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects anything at all.
    pub fn any(&self) -> bool {
        self.hints.any()
            || self.daemons.any()
            || self.io.any()
            || self.crashes.any()
            || self.exec.any()
    }

    /// Derives the deterministic RNG for one injection domain.
    pub fn rng_for(&self, domain: FaultDomain) -> Pcg32 {
        self.stream_rng(domain, 0)
    }

    /// Derives the deterministic RNG for one domain *instance* — e.g. one
    /// hint stream per process — so adding a process never shifts the
    /// draws another process sees.
    pub fn stream_rng(&self, domain: FaultDomain, stream: u64) -> Pcg32 {
        let salt: u64 = match domain {
            FaultDomain::Hints => 0x48_49_4e_54,
            FaultDomain::Daemons => 0x44_41_45_4d,
            FaultDomain::Io => 0x44_49_53_4b,
            FaultDomain::Adversary => 0x41_44_56_53,
        };
        let mut mix =
            SplitMix64::new(self.seed ^ salt ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Pcg32::new(mix.next_u64(), mix.next_u64())
    }
}

/// One fault injected, or one degradation transition taken, during a run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultKind {
    /// A hint was dropped before the run-time layer saw it.
    HintDropped {
        /// Directive tag of the lost hint.
        tag: u32,
    },
    /// A hint was delivered twice.
    HintDuplicated {
        /// Directive tag of the duplicated hint.
        tag: u32,
    },
    /// A hint's tag was rewritten.
    HintMistagged {
        /// The tag the compiler emitted.
        from: u32,
        /// The tag the layer saw instead.
        to: u32,
    },
    /// A hint was held back and delivered before the next hint.
    HintDelayed {
        /// Directive tag of the late hint.
        tag: u32,
    },
    /// A shared-page read was served from a stale cache.
    StaleSharedRead {
        /// Age of the value served.
        age: SimDuration,
    },
    /// A releaser wakeup was jittered or stalled by this much.
    ReleaserJitter {
        /// Extra delay applied.
        delay: SimDuration,
        /// Whether this was a full stall (burst service afterwards).
        stall: bool,
    },
    /// A paging-daemon wakeup was skewed by this much.
    PagingdSkew {
        /// Extra delay applied.
        delay: SimDuration,
    },
    /// The upper memory limit shrank mid-run.
    LimitShrunk {
        /// Limit before the shrink, in pages.
        from: u64,
        /// Limit after the shrink, in pages.
        to: u64,
    },
    /// A disk request failed transiently and was retried.
    IoTransient {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff charged before the retry.
        backoff: SimDuration,
    },
    /// A disk request hit the slow tail.
    IoTail {
        /// Multiplier applied to its service time.
        factor: u32,
    },
    /// The health monitor disabled one hint tag (its hints now degrade to
    /// reactive candidates).
    TagDisabled {
        /// The disabled tag.
        tag: u32,
        /// Misfires observed in the evaluation window.
        misfires: u32,
        /// Size of the evaluation window.
        window: u32,
    },
    /// The health monitor re-enabled a tag after probation.
    TagProbation {
        /// The tag re-entering service.
        tag: u32,
    },
    /// The whole hint stream was reverted to reactive paging.
    StreamDisabled {
        /// Number of tags individually disabled when the stream tripped.
        disabled_tags: usize,
    },
    /// The hint stream was restored after probation.
    StreamRestored,
    /// A supervised component died (the injected crash itself).
    ComponentCrashed {
        /// The component that died.
        component: CrashComponent,
    },
    /// The supervisor declared the component dead after missed heartbeats.
    CrashDetected {
        /// The component declared dead.
        component: CrashComponent,
        /// Consecutive heartbeats missed before the declaration.
        missed: u32,
    },
    /// A restart attempt failed; the supervisor backs off and retries.
    RestartFailed {
        /// The component being restarted.
        component: CrashComponent,
        /// 1-based restart attempt number.
        attempt: u32,
        /// Backoff charged before the next attempt.
        backoff: SimDuration,
    },
    /// A restart attempt succeeded and the component is back in service.
    ComponentRestarted {
        /// The component restored.
        component: CrashComponent,
        /// 1-based attempt number that succeeded.
        attempt: u32,
    },
    /// The supervisor gave up restarting the component; the run continues
    /// on the paging-daemon backstop (stock behaviour for that path).
    ComponentAbandoned {
        /// The component abandoned.
        component: CrashComponent,
        /// Restart attempts made before giving up.
        attempts: u32,
    },
    /// The admission controller demoted a tenant to low trust: its
    /// prefetches become advisory and its releases must be verified
    /// before earning credit.
    TrustDemoted {
        /// Bad-behaviour events in the evaluation window.
        bad: u32,
        /// Size of the evaluation window.
        window: u32,
    },
    /// The admission controller restored a tenant to full trust.
    TrustRestored,
    /// Post-restart reconciliation: state rebuilt from the page table.
    StateReconciled {
        /// The component whose state was reconciled.
        component: CrashComponent,
        /// Orphaned queued entries dropped (release queue / buffers).
        orphaned: u64,
        /// Shared-bitmap bits re-derived from page-table residency.
        bitmap_fixups: u64,
    },
    /// The brownout ladder moved (escalation or hysteresis unwind).
    BrownoutShift {
        /// Ladder level before the shift.
        from: crate::PressureLevel,
        /// Ladder level after the shift.
        to: crate::PressureLevel,
    },
    /// The overload controller shed a tenant process entirely (typed
    /// outcome — never a panic). Only tenants holding more than their
    /// guaranteed share are eligible.
    TenantShed {
        /// Pid of the shed process.
        pid: u32,
        /// Resident pages the tenant held when shed.
        rss: u64,
        /// The tenant's guaranteed share (always < `rss` at shed time).
        guaranteed: u64,
    },
    /// A process was killed because an allocation could not be satisfied
    /// even after repeated forced reclaims (typed outcome — never a
    /// panic). The uncontrolled counterpart of [`FaultKind::TenantShed`]:
    /// this is what overload looks like when no ladder is defending the
    /// machine, and it can hit *any* process, guaranteed share or not.
    OomKill {
        /// Pid of the killed process.
        pid: u32,
        /// Resident pages it held when killed.
        rss: u64,
    },
}

impl FaultKind {
    /// A short stable name for aggregation in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::HintDropped { .. } => "hint_dropped",
            FaultKind::HintDuplicated { .. } => "hint_duplicated",
            FaultKind::HintMistagged { .. } => "hint_mistagged",
            FaultKind::HintDelayed { .. } => "hint_delayed",
            FaultKind::StaleSharedRead { .. } => "stale_shared_read",
            FaultKind::ReleaserJitter { .. } => "releaser_jitter",
            FaultKind::PagingdSkew { .. } => "pagingd_skew",
            FaultKind::LimitShrunk { .. } => "limit_shrunk",
            FaultKind::IoTransient { .. } => "io_transient",
            FaultKind::IoTail { .. } => "io_tail",
            FaultKind::TagDisabled { .. } => "tag_disabled",
            FaultKind::TagProbation { .. } => "tag_probation",
            FaultKind::StreamDisabled { .. } => "stream_disabled",
            FaultKind::StreamRestored => "stream_restored",
            FaultKind::ComponentCrashed { .. } => "component_crashed",
            FaultKind::CrashDetected { .. } => "crash_detected",
            FaultKind::RestartFailed { .. } => "restart_failed",
            FaultKind::ComponentRestarted { .. } => "component_restarted",
            FaultKind::ComponentAbandoned { .. } => "component_abandoned",
            FaultKind::TrustDemoted { .. } => "trust_demoted",
            FaultKind::TrustRestored => "trust_restored",
            FaultKind::StateReconciled { .. } => "state_reconciled",
            FaultKind::BrownoutShift { .. } => "brownout_shift",
            FaultKind::TenantShed { .. } => "tenant_shed",
            FaultKind::OomKill { .. } => "oom_kill",
        }
    }

    /// Whether this is a degradation/supervision transition (health-monitor
    /// or supervisor state change) rather than an injected fault.
    pub fn is_transition(&self) -> bool {
        matches!(
            self,
            FaultKind::TagDisabled { .. }
                | FaultKind::TagProbation { .. }
                | FaultKind::StreamDisabled { .. }
                | FaultKind::StreamRestored
                | FaultKind::ComponentCrashed { .. }
                | FaultKind::CrashDetected { .. }
                | FaultKind::RestartFailed { .. }
                | FaultKind::ComponentRestarted { .. }
                | FaultKind::ComponentAbandoned { .. }
                | FaultKind::TrustDemoted { .. }
                | FaultKind::TrustRestored
                | FaultKind::StateReconciled { .. }
                | FaultKind::BrownoutShift { .. }
                | FaultKind::TenantShed { .. }
                | FaultKind::OomKill { .. }
        )
    }
}

/// A timestamped [`FaultKind`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultEvent {
    /// When the fault was injected / the transition taken.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultKind,
}

/// Default cap on verbatim events kept by a [`FaultLog`].
pub const DEFAULT_LOG_CAP: usize = 10_000;

/// A bounded record of fault events with exact per-kind counts.
///
/// High fault rates generate millions of events; the log keeps the first
/// [`DEFAULT_LOG_CAP`] verbatim (enough to reconstruct any early
/// divergence) and counts the rest, so recording never changes the cost
/// profile of a run by more than a constant.
#[derive(Clone, Debug)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    cap: usize,
    counts: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog::with_cap(DEFAULT_LOG_CAP)
    }
}

impl FaultLog {
    /// An empty log keeping at most `cap` verbatim events.
    pub fn with_cap(cap: usize) -> Self {
        FaultLog {
            events: Vec::new(),
            cap,
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Records one event.
    pub fn record(&mut self, at: SimTime, kind: FaultKind) {
        *self.counts.entry(kind.name()).or_insert(0) += 1;
        self.total += 1;
        if self.events.len() < self.cap {
            self.events.push(FaultEvent { at, kind });
        }
    }

    /// The verbatim events kept (first `cap` recorded).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Exact count per event kind, all events included.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Count for one kind name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total events recorded (kept + counted-only).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Merges another log into this one, re-sorting kept events by time
    /// (stable, so equal-time events keep their per-source order).
    pub fn merge(&mut self, other: &FaultLog) {
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
        self.events.extend_from_slice(&other.events);
        self.events.sort_by_key(|e| e.at);
        self.events.truncate(self.cap);
    }

    /// A deterministic one-line summary: `total` plus per-kind counts.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{} events", self.total);
        for (k, v) in &self.counts {
            let _ = write!(s, ", {k}={v}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_adversary_plan_is_benign() {
        let a = AdversaryPlan::default();
        assert!(!a.any());
        let a = AdversaryPlan::new(AdversaryStrategy::HintFlood, 2, 1);
        assert!(a.any());
        assert_eq!(a.strategy.unwrap().name(), "hint_flood");
    }

    #[test]
    fn adversary_streams_are_independent() {
        let p = FaultPlan::seeded(7);
        let mut a0 = p.stream_rng(FaultDomain::Adversary, 0);
        let mut a1 = p.stream_rng(FaultDomain::Adversary, 1);
        let mut h0 = p.stream_rng(FaultDomain::Hints, 0);
        assert_ne!(a0.next_u32(), a1.next_u32());
        // Same seed, different domain salt: different draws.
        let mut a0b = p.stream_rng(FaultDomain::Adversary, 0);
        assert_ne!(a0b.next_u32(), h0.next_u32());
    }

    #[test]
    fn default_plan_is_fault_free() {
        let p = FaultPlan::default();
        assert!(!p.any());
        assert!(!p.hints.any() && !p.daemons.any() && !p.io.any());
    }

    #[test]
    fn poisoned_hints_register() {
        assert!(HintFaults::poisoned(1.0).any());
        assert!(IoFaults::flaky(0.1).any());
        assert!(FaultPlan {
            seed: 1,
            hints: HintFaults::poisoned(0.5),
            ..FaultPlan::default()
        }
        .any());
    }

    #[test]
    fn domain_rngs_are_independent_and_reproducible() {
        let p = FaultPlan::seeded(99);
        let a1: Vec<u32> = {
            let mut r = p.rng_for(FaultDomain::Hints);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let a2: Vec<u32> = {
            let mut r = p.rng_for(FaultDomain::Hints);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = p.rng_for(FaultDomain::Io);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a1, a2, "same domain must reproduce");
        assert_ne!(a1, b, "domains must be independent streams");
    }

    #[test]
    fn per_instance_streams_are_independent() {
        let p = FaultPlan::seeded(7);
        let draw = |stream: u64| -> Vec<u32> {
            let mut r = p.stream_rng(FaultDomain::Hints, stream);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_ne!(draw(1), draw(2), "per-process streams must differ");
        assert_eq!(draw(0), {
            let mut r = p.rng_for(FaultDomain::Hints);
            (0..8).map(|_| r.next_u32()).collect::<Vec<u32>>()
        });
    }

    #[test]
    fn log_caps_events_but_counts_all() {
        let mut log = FaultLog::with_cap(2);
        for i in 0..5 {
            log.record(
                SimTime::from_nanos(i),
                FaultKind::HintDropped { tag: i as u32 },
            );
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.total(), 5);
        assert_eq!(log.count("hint_dropped"), 5);
        assert!(log.summary().contains("hint_dropped=5"));
    }

    #[test]
    fn merge_sorts_and_sums() {
        let mut a = FaultLog::with_cap(10);
        a.record(SimTime::from_nanos(5), FaultKind::StreamRestored);
        let mut b = FaultLog::with_cap(10);
        b.record(SimTime::from_nanos(1), FaultKind::IoTail { factor: 8 });
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.events()[0].at, SimTime::from_nanos(1));
        assert_eq!(a.count("io_tail"), 1);
        assert_eq!(a.count("stream_restored"), 1);
    }

    #[test]
    fn transitions_are_classified() {
        assert!(FaultKind::StreamDisabled { disabled_tags: 3 }.is_transition());
        assert!(!FaultKind::HintDropped { tag: 0 }.is_transition());
        assert!(FaultKind::ComponentCrashed {
            component: CrashComponent::Releaser
        }
        .is_transition());
        assert!(FaultKind::StateReconciled {
            component: CrashComponent::HintLayer,
            orphaned: 3,
            bitmap_fixups: 0,
        }
        .is_transition());
    }

    #[test]
    fn crash_plans_register() {
        assert!(!CrashFaults::default().any());
        assert!(!ExecFaults::default().any());
        let plan = FaultPlan {
            seed: 3,
            crashes: CrashFaults {
                releaser: Some(CrashSpec::permanent(SimTime::from_nanos(5))),
                ..CrashFaults::default()
            },
            ..FaultPlan::default()
        };
        assert!(plan.any());
        assert!(plan.crashes.any());
        assert_eq!(
            plan.crashes.spec_for(CrashComponent::Releaser),
            Some(CrashSpec::permanent(SimTime::from_nanos(5)))
        );
        assert_eq!(plan.crashes.spec_for(CrashComponent::HintLayer), None);
        let flaky = FaultPlan {
            exec: ExecFaults::flaky(2),
            ..FaultPlan::default()
        };
        assert!(flaky.any() && flaky.exec.any());
    }
}
