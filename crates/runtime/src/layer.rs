//! The per-process run-time layer facade.
//!
//! Glues the filters ([`crate::filter`]) and release policies
//! ([`crate::policy`]) together. The simulation engine feeds it the hint
//! ops coming out of the executor; the layer answers with the prefetch and
//! release requests that should actually reach the OS, plus the user-CPU
//! cost of its own checking work (this overhead is what inflates CGM's user
//! time in the paper's Figure 7).
//!
//! Two robustness mechanisms wrap the hint path:
//!
//! * **Fault injection** ([`sim_core::fault::HintFaults`], armed via
//!   [`RuntimeLayer::arm_faults`]) perturbs the incoming stream *before*
//!   the layer's own filters — hints can be dropped, delayed behind the
//!   next hint, duplicated, or mis-tagged, and shared-page bitmap reads
//!   can be served from a stale cache. All draws come from the plan's
//!   per-process RNG stream, so faulty runs stay seed-reproducible.
//! * **The hint health monitor** ([`crate::health`]) watches per-tag
//!   effectiveness feedback from the VM (cancelled releases, free-list
//!   rescues, already-resident prefetches) and degrades misbehaving tags
//!   — or the whole stream — to reactive paging: suppressed release hints
//!   become mere eviction candidates and suppressed prefetches fall back
//!   to demand faulting.

use std::collections::VecDeque;

use sim_core::fault::{FaultKind, FaultLog, HintFaults};
use sim_core::hash::HashMap;
use sim_core::obs::{EventKind, Recorder};
use sim_core::rng::Pcg32;
use sim_core::sanitizer::{InvariantViolation, Mutation};
use sim_core::{PressureLevel, SimDuration, SimTime};
use vm::{Pid, VmSys, Vpn};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, AdmissionVerdict};
use crate::filter::TagFilter;
use crate::health::{HealthConfig, HealthStats, HintHealth, Misfire};
use crate::pages::PageTags;
use crate::policy::{ReleaseBuffers, ReleasePolicy};

/// Cap on queued reactive eviction candidates produced by degradation.
const DEGRADED_CAP: usize = 4096;

/// Pages per eviction-candidate hand-off to the OS.
const CANDIDATE_BATCH: usize = 128;

/// Buffered pages at which [`ReleasePolicy::Reactive`] hands a batch over.
const REACTIVE_HIGH_WATER: usize = 256;

/// The 0–2 copies of one hint the fault front end lets through, held
/// inline: `(vpn, npages or priority, tag)`.
type HintCopies = std::iter::Take<std::array::IntoIter<(Vpn, u64, u32), 2>>;

/// Tunables of the run-time layer.
#[derive(Clone, Copy, Debug)]
pub struct RtConfig {
    /// Pages to issue per buffered drain — "Currently, the run-time layer
    /// attempts to release a total of 100 pages whenever releasing is
    /// deemed necessary."
    pub release_batch_target: usize,
    /// Drain when `usage + slack ≥ limit` (how "close to the upper limit"
    /// is close enough).
    pub limit_slack_pages: u64,
    /// User-CPU cost of checking one hint against the shared-page bitmap.
    pub hint_check: SimDuration,
    /// User-CPU cost of buffering/queue bookkeeping per release.
    pub buffer_op: SimDuration,
    /// Whether the per-tag one-behind filter is applied (ablation; the
    /// paper's layer always applies it).
    pub one_behind: bool,
    /// Hint health monitoring thresholds; `None` disables the monitor
    /// (hints are trusted unconditionally, as in the paper's baseline).
    pub health: Option<HealthConfig>,
    /// Hint admission control (per-tenant rate limit + trust score);
    /// `None` disables it — any tenant may hint at any rate, as in the
    /// paper's single-job setting.
    pub admission: Option<AdmissionConfig>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            release_batch_target: 100,
            limit_slack_pages: 64,
            hint_check: SimDuration::from_nanos(250),
            buffer_op: SimDuration::from_nanos(400),
            one_behind: true,
            health: None,
            admission: None,
        }
    }
}

sim_core::stats_struct! {
    /// Run-time layer statistics.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct RtStats {
        /// Prefetch hints seen (pages).
        pub prefetch_hints: u64,
        /// Prefetch pages dropped because the bitmap showed them resident.
        pub prefetch_filtered: u64,
        /// Prefetch pages forwarded to the OS.
        pub prefetch_issued: u64,
        /// Release hints seen.
        pub release_hints: u64,
        /// Releases dropped by the same-page tag check.
        pub release_same_page: u64,
        /// Releases dropped because the page was not resident.
        pub release_filtered_bitmap: u64,
        /// Releases forwarded to the OS immediately.
        pub release_issued_direct: u64,
        /// Releases buffered for later.
        pub release_buffered: u64,
        /// Buffered releases drained to the OS by memory pressure.
        pub release_drained: u64,
        /// Hints the fault layer dropped before the filters saw them.
        pub hints_dropped: u64,
        /// Hints the fault layer held back behind the next hint.
        pub hints_delayed: u64,
        /// Hints the fault layer delivered twice.
        pub hints_duplicated: u64,
        /// Hints whose tag the fault layer rewrote.
        pub hints_mistagged: u64,
        /// Bitmap reads served from the stale cache with a wrong value.
        pub stale_reads: u64,
        /// Hints the health monitor degraded to reactive behavior.
        pub hints_suppressed: u64,
        /// Releases cancelled by a re-reference (misfire feedback).
        pub misfires_cancelled: u64,
        /// Released pages rescued back off the free list (misfire feedback).
        pub misfires_rescued: u64,
        /// Prefetches that reached the OS already resident (misfire feedback).
        pub misfires_useless_prefetch: u64,
        /// Directive tags retired on loop-nest exit.
        pub tags_retired: u64,
        /// Prefetch pages rejected by the admission rate limiter.
        pub prefetch_rejected: u64,
        /// Release hints rejected by the admission rate limiter.
        pub release_rejected: u64,
        /// Advisory (low-trust) prefetch pages dropped for lack of free
        /// headroom.
        pub prefetch_advisory_dropped: u64,
        /// Release completions the engine verified (frames actually freed).
        pub releases_verified: u64,
        /// Prefetch pages dropped because the brownout ladder sits at
        /// `Critical` or worse (machine-wide stand-down, not tenant fault).
        pub prefetch_browned_out: u64,
    }
}

/// The run-time layer for one process (see module docs).
#[derive(Debug)]
pub struct RuntimeLayer {
    policy: ReleasePolicy,
    config: RtConfig,
    tags: TagFilter,
    buffers: ReleaseBuffers,
    stats: RtStats,
    health: Option<HintHealth>,
    admission: Option<AdmissionController>,
    faults: HintFaults,
    fault_rng: Option<Pcg32>,
    fault_log: FaultLog,
    obs: Recorder,
    delayed_release: VecDeque<(Vpn, u32, u32)>,
    delayed_prefetch: VecDeque<(Vpn, u64, u32)>,
    /// Stale shared-bitmap cache: page → (sampled at, resident then).
    stale: HashMap<Vpn, (SimTime, bool)>,
    /// Pages whose release was issued/buffered, by responsible tag, so VM
    /// feedback (cancellation, rescue) can be attributed for health.
    release_tags: PageTags,
    /// Pages whose prefetch was issued, by responsible tag.
    prefetch_tags: PageTags,
    /// Suppressed release hints, kept as reactive eviction candidates.
    degraded: VecDeque<Vpn>,
    /// Brownout ladder rung in force (engine-applied, machine-wide).
    brownout: PressureLevel,
    /// Checked mode: run the hint-path invariant probes.
    checked: bool,
}

impl RuntimeLayer {
    /// Creates a layer with the given release policy.
    pub fn new(policy: ReleasePolicy, config: RtConfig) -> Self {
        RuntimeLayer {
            policy,
            config,
            tags: TagFilter::new(),
            buffers: ReleaseBuffers::new(),
            stats: RtStats::default(),
            health: config.health.map(HintHealth::new),
            admission: config.admission.map(AdmissionController::new),
            faults: HintFaults::default(),
            fault_rng: None,
            fault_log: FaultLog::default(),
            obs: Recorder::default(),
            delayed_release: VecDeque::new(),
            delayed_prefetch: VecDeque::new(),
            stale: HashMap::default(),
            release_tags: PageTags::default(),
            prefetch_tags: PageTags::default(),
            degraded: VecDeque::new(),
            brownout: PressureLevel::Normal,
            checked: false,
        }
    }

    /// Enables or disables the checked-mode invariant probes (one-behind
    /// filter safety, release-buffer priority coherence).
    pub fn set_checked(&mut self, enabled: bool) {
        self.checked = enabled;
    }

    /// Applies a seeded state corruption from the checked-mode mutation
    /// matrix. Mutations targeting other subsystems are ignored.
    #[doc(hidden)]
    pub fn apply_mutation(&mut self, m: Mutation) {
        match m {
            Mutation::ReorderReleaseQueue => self.buffers.corrupt_priority_order(),
            Mutation::FilterPassthrough => self.tags.corrupt_echo_same_page(),
            _ => {}
        }
    }

    /// Raises a runtime-subsystem invariant violation with this layer's
    /// flight-recorder tail attached.
    fn checked_fail(&self, at: SimTime, invariant: &'static str, detail: String) -> ! {
        InvariantViolation {
            at,
            subsystem: "runtime",
            invariant,
            detail,
            tail: self.obs.dump_tail(16),
        }
        .raise()
    }

    /// The release policy in force.
    pub fn policy(&self) -> ReleasePolicy {
        self.policy
    }

    /// Applies a brownout ladder rung: at `Elevated`+ buffered/reactive
    /// releases escalate to aggressive, at `Critical`+ prefetches are
    /// disabled, and the admission refill rate is clamped by
    /// `clamp_shift`. `Normal` (shift 0) restores stock behaviour — the
    /// hysteresis unwind is exactly this call with a calmer rung.
    pub fn set_brownout(&mut self, now: SimTime, level: PressureLevel, clamp_shift: u32) {
        self.brownout = level;
        if let Some(a) = self.admission.as_mut() {
            a.set_clamp_shift(now, clamp_shift);
        }
    }

    /// The brownout rung currently applied to this layer.
    pub fn brownout(&self) -> PressureLevel {
        self.brownout
    }

    /// The policy after brownout overrides: under pressure, buffered and
    /// reactive releases escalate to aggressive so held pages reach the
    /// free list now instead of at the next drain.
    fn effective_policy(&self) -> ReleasePolicy {
        if self.brownout >= PressureLevel::Elevated {
            ReleasePolicy::Aggressive
        } else {
            self.policy
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RtStats {
        &self.stats
    }

    /// Health-monitor counters, if the monitor is enabled.
    pub fn health_stats(&self) -> Option<&HealthStats> {
        self.health.as_ref().map(|h| h.stats())
    }

    /// Admission-controller counters, if admission control is enabled.
    pub fn admission_stats(&self) -> Option<&AdmissionStats> {
        self.admission.as_ref().map(|a| a.stats())
    }

    /// Whether the admission controller currently holds this tenant at
    /// low trust.
    pub fn low_trust(&self) -> bool {
        self.admission.as_ref().is_some_and(|a| a.low_trust())
    }

    /// Engine feedback: `n` of this tenant's releases were *verified* —
    /// the releaser actually freed the frames. The only path by which a
    /// low-trust tenant earns release credit back.
    pub fn note_releases_verified(&mut self, now: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.releases_verified += n;
        if let Some(a) = self.admission.as_mut() {
            a.note_releases_verified(n, now, &mut self.fault_log);
        }
    }

    /// Faults injected and degradation transitions taken so far.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Enables or disables structured hint-lifecycle recording.
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// The layer's flight recorder: one typed event per hint-pipeline
    /// stage (received, suppressed, filtered, issued, buffered, drained).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Pages currently sitting in the release buffers.
    pub fn buffered_pages(&self) -> usize {
        self.buffers.buffered()
    }

    /// Arms hint-stream fault injection with the per-process RNG stream
    /// derived from a [`sim_core::fault::FaultPlan`].
    pub fn arm_faults(&mut self, faults: HintFaults, rng: Pcg32) {
        self.faults = faults;
        self.fault_rng = Some(rng);
    }

    /// Processes a prefetch hint for `npages` pages starting at `vpn`.
    ///
    /// Returns the pages that should actually be prefetched (bitmap check
    /// filtered the rest) and the user-CPU cost of the checking. The
    /// allocating form of [`RuntimeLayer::prefetch_hint`].
    pub fn on_prefetch_hint(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        vpn: Vpn,
        npages: u64,
        tag: u32,
    ) -> (Vec<Vpn>, SimDuration) {
        let mut out = Vec::new();
        let cost = self.prefetch_hint(vm, pid, now, (vpn, npages, tag), &mut out);
        (out, cost)
    }

    /// Processes a prefetch hint `(vpn, npages, tag)`, appending the pages
    /// to prefetch to `out`; returns the user-CPU cost of the checking.
    #[inline]
    pub fn prefetch_hint(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        (vpn, npages, tag): (Vpn, u64, u32),
        out: &mut Vec<Vpn>,
    ) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        // Deliver hints the fault layer held back, ahead of this one.
        while let Some(hint) = self.delayed_prefetch.pop_front() {
            cost += self.prefetch_core(vm, pid, now, hint, out);
        }
        for hint in self.perturb(now, vpn, npages, tag, false) {
            cost += self.prefetch_core(vm, pid, now, hint, out);
        }
        cost
    }

    /// Processes a release hint `(vpn, priority, tag)`.
    ///
    /// Returns the pages whose release should be issued to the OS now, and
    /// the user-CPU cost of the layer's work. The allocating form of
    /// [`RuntimeLayer::release_hint`].
    pub fn on_release_hint(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        vpn: Vpn,
        priority: u32,
        tag: u32,
    ) -> (Vec<Vpn>, SimDuration) {
        let mut out = Vec::new();
        let cost = self.release_hint(vm, pid, now, (vpn, priority, tag), &mut out);
        (out, cost)
    }

    /// Processes a release hint `(vpn, priority, tag)`, appending the
    /// pages to release now to `out`; returns the user-CPU cost of the
    /// layer's work.
    #[inline]
    pub fn release_hint(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        (vpn, priority, tag): (Vpn, u32, u32),
        out: &mut Vec<Vpn>,
    ) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        while let Some(hint) = self.delayed_release.pop_front() {
            cost += self.release_core(vm, pid, now, hint, out);
        }
        for (v, p, t) in self.perturb(now, vpn, u64::from(priority), tag, true) {
            cost += self.release_core(vm, pid, now, (v, p as u32, t), out);
        }
        cost
    }

    /// Retires directive `tag` on loop-nest exit: evicts its one-behind
    /// filter entry and handles the trailing recorded page through the
    /// policy (the nest is over, so no further reuse is expected). The
    /// allocating form of [`RuntimeLayer::retire_tag`].
    pub fn on_retire_tag(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        tag: u32,
    ) -> (Vec<Vpn>, SimDuration) {
        let mut out = Vec::new();
        let cost = self.retire_tag(vm, pid, now, tag, &mut out);
        (out, cost)
    }

    /// Retires directive `tag` (see [`RuntimeLayer::on_retire_tag`]),
    /// appending the pages to release now to `out`; returns the user-CPU
    /// cost.
    #[inline]
    pub fn retire_tag(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        tag: u32,
        out: &mut Vec<Vpn>,
    ) -> SimDuration {
        self.stats.tags_retired += 1;
        let Some(trailing) = self.tags.retire_tag(tag) else {
            return SimDuration::ZERO;
        };
        let cost = self.config.hint_check;
        if self.health.as_ref().is_some_and(|h| h.tag_degraded(tag)) {
            self.push_degraded(trailing);
            return cost;
        }
        // The nest is over, so no further reuse is expected: priority 0.
        cost + self.release_tail(vm, pid, now, (trailing, 0, tag), out)
    }

    /// Feedback from the VM about a touch on `vpn`: attributes release
    /// misfires (cancellations, free-list rescues) to the hinting tag.
    #[inline]
    pub fn note_touch_outcome(&mut self, now: SimTime, vpn: Vpn, kind: vm::TouchKind) {
        use vm::frame::FreeSource;
        use vm::TouchKind;
        let misfire = match kind {
            TouchKind::SoftFaultRelease => Some(Misfire::CancelledRelease),
            TouchKind::Rescue(FreeSource::Release) => Some(Misfire::RescuedRelease),
            TouchKind::HardFault | TouchKind::Rescue(_) => None,
            _ => return,
        };
        let Some(tag) = self.release_tags.remove(vpn) else {
            return;
        };
        match misfire {
            Some(Misfire::CancelledRelease) => self.stats.misfires_cancelled += 1,
            Some(Misfire::RescuedRelease) => self.stats.misfires_rescued += 1,
            _ => {}
        }
        if let (Some(a), Some(_)) = (self.admission.as_mut(), misfire) {
            a.note_bad(now, &mut self.fault_log);
        }
        if let (Some(h), Some(m)) = (self.health.as_mut(), misfire) {
            h.on_misfire(tag, m);
        }
    }

    /// Feedback from the VM about an issued prefetch: an already-resident
    /// outcome is a useless-prefetch misfire for the hinting tag.
    #[inline]
    pub fn note_prefetch_outcome(&mut self, now: SimTime, vpn: Vpn, already_resident: bool) {
        let Some(tag) = self.prefetch_tags.remove(vpn) else {
            return;
        };
        if already_resident {
            self.stats.misfires_useless_prefetch += 1;
            if let Some(a) = self.admission.as_mut() {
                a.note_bad(now, &mut self.fault_log);
            }
            if let Some(h) = self.health.as_mut() {
                h.on_misfire(tag, Misfire::UselessPrefetch);
            }
        } else if let Some(a) = self.admission.as_mut() {
            // A prefetch the OS accepted is provisional good behaviour.
            a.note_good(now, &mut self.fault_log);
        }
    }

    /// Takes the pages to offer the OS as eviction candidates after a
    /// release hint, reactive ones first: under [`ReleasePolicy::Reactive`]
    /// the 128 lowest-priority buffered pages once 256 are buffered, then
    /// (under any policy) 128 suppressed hints once 128 are queued. Empty
    /// when neither batch is due.
    pub fn take_eviction_candidates(&mut self) -> Vec<Vpn> {
        let mut out = Vec::new();
        if self.policy == ReleasePolicy::Reactive && self.buffers.buffered() >= REACTIVE_HIGH_WATER
        {
            out = self.buffers.drain_lowest(CANDIDATE_BATCH);
        }
        if self.degraded.len() >= CANDIDATE_BATCH {
            out.extend(self.degraded.drain(..CANDIDATE_BATCH));
        }
        out
    }

    /// End-of-program flush: everything still buffered is released.
    pub fn flush(&mut self, now: SimTime, pid: Pid) -> Vec<Vpn> {
        let out = self.buffers.drain_all();
        self.stats.release_drained += out.len() as u64;
        for page in &out {
            self.obs
                .emit_page(now, pid.0, page.0, EventKind::ReleaseDrained);
        }
        out
    }

    /// Rebuilds the layer's volatile state after a crash-restart of the
    /// hint layer: the one-behind filter re-arms from scratch, buffered
    /// releases are orphaned (the crashed layer's buffers are gone — the
    /// pages stay resident and the OS reclaims them reactively), and every
    /// delayed/stale/attribution map is dropped. Statistics, the fault
    /// log and the flight recorder survive — they belong to the run, not
    /// the component. Returns the number of orphaned buffered releases.
    pub fn reconcile_after_crash(&mut self) -> u64 {
        let orphaned = (self.buffers.buffered()
            + self.delayed_release.len()
            + self.delayed_prefetch.len()) as u64;
        self.tags = TagFilter::new();
        self.buffers = ReleaseBuffers::new();
        self.delayed_release.clear();
        self.delayed_prefetch.clear();
        self.stale.clear();
        self.release_tags.clear();
        self.prefetch_tags.clear();
        self.degraded.clear();
        orphaned
    }

    /// Applies the fault front end to one hint, returning the copies to
    /// actually process (0 = dropped or delayed, 2 = duplicated) inline,
    /// without allocating. The middle tuple slot is npages for
    /// prefetches, priority for releases.
    fn perturb(
        &mut self,
        now: SimTime,
        vpn: Vpn,
        extra: u64,
        tag: u32,
        is_release: bool,
    ) -> HintCopies {
        let Some(mut rng) = self.fault_rng.take() else {
            return [(vpn, extra, tag); 2].into_iter().take(1);
        };
        let f = self.faults;
        let mut tag = tag;
        // Fixed draw order keeps the stream identical across policies.
        let dropped = f.drop > 0.0 && rng.next_f64() < f.drop;
        let delayed = f.delay > 0.0 && rng.next_f64() < f.delay;
        let duplicated = f.duplicate > 0.0 && rng.next_f64() < f.duplicate;
        let mistagged = f.mistag > 0.0 && rng.next_f64() < f.mistag;
        if mistagged {
            let to = tag.wrapping_add(1 + rng.next_below(7));
            self.fault_log
                .record(now, FaultKind::HintMistagged { from: tag, to });
            self.stats.hints_mistagged += 1;
            tag = to;
        }
        let copies = if dropped {
            self.fault_log.record(now, FaultKind::HintDropped { tag });
            self.stats.hints_dropped += 1;
            0
        } else if delayed {
            self.fault_log.record(now, FaultKind::HintDelayed { tag });
            self.stats.hints_delayed += 1;
            if is_release {
                self.delayed_release.push_back((vpn, extra as u32, tag));
            } else {
                self.delayed_prefetch.push_back((vpn, extra, tag));
            }
            0
        } else if duplicated {
            self.fault_log
                .record(now, FaultKind::HintDuplicated { tag });
            self.stats.hints_duplicated += 1;
            2
        } else {
            1
        };
        self.fault_rng = Some(rng);
        [(vpn, extra, tag); 2].into_iter().take(copies)
    }

    /// Shared-page bitmap read, through the stale cache when the fault
    /// plan configures a staleness window.
    fn resident(&mut self, vm: &VmSys, pid: Pid, now: SimTime, vpn: Vpn) -> bool {
        let window = self.faults.stale_shared_window;
        if window == SimDuration::ZERO {
            return vm.pm_resident(pid, vpn);
        }
        if let Some(&(at, cached)) = self.stale.get(&vpn) {
            if now < at + window {
                if cached != vm.pm_resident(pid, vpn) {
                    self.fault_log
                        .record(now, FaultKind::StaleSharedRead { age: now - at });
                    self.stats.stale_reads += 1;
                }
                return cached;
            }
        }
        let live = vm.pm_resident(pid, vpn);
        self.stale.insert(vpn, (now, live));
        live
    }

    fn push_degraded(&mut self, vpn: Vpn) {
        self.degraded.push_back(vpn);
        if self.degraded.len() > DEGRADED_CAP {
            self.degraded.pop_front();
        }
    }

    /// Runs one prefetch hint `(vpn, npages, tag)` through the layer,
    /// appending the pages to prefetch to `to_issue`; returns the user-CPU
    /// cost.
    fn prefetch_core(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        (vpn, npages, tag): (Vpn, u64, u32),
        to_issue: &mut Vec<Vpn>,
    ) -> SimDuration {
        let cost = self.config.hint_check.saturating_mul(npages);
        self.stats.prefetch_hints += npages;
        self.obs.emit_page(
            now,
            pid.0,
            vpn.0,
            EventKind::PrefetchHint {
                tag,
                pages: npages as u32,
            },
        );
        // Brownout at Critical or worse: prefetches are disabled
        // machine-wide, ahead of admission so the stand-down does not
        // charge the tenant's token bucket.
        if self.brownout >= PressureLevel::Critical {
            self.stats.prefetch_browned_out += npages;
            self.obs.emit_page(
                now,
                pid.0,
                vpn.0,
                EventKind::PrefetchSuppressed {
                    tag,
                    pages: npages as u32,
                },
            );
            return cost;
        }
        // Admission control runs ahead of everything else — including
        // the health monitor — so a flooding tenant cannot even buy tag
        // evaluations with its excess hints.
        let mut advisory = false;
        if let Some(a) = self.admission.as_mut() {
            match a.admit(now, true) {
                AdmissionVerdict::Reject => {
                    self.stats.prefetch_rejected += npages;
                    self.obs.emit_page(
                        now,
                        pid.0,
                        vpn.0,
                        EventKind::PrefetchRejected {
                            tag,
                            pages: npages as u32,
                        },
                    );
                    return cost;
                }
                AdmissionVerdict::AdmitAdvisory => advisory = true,
                AdmissionVerdict::Admit => {}
            }
        }
        if let Some(h) = self.health.as_mut() {
            if !h.on_hint(tag, now, &mut self.fault_log) {
                // Degraded: fall back to demand faulting.
                self.stats.hints_suppressed += 1;
                self.obs.emit_page(
                    now,
                    pid.0,
                    vpn.0,
                    EventKind::PrefetchSuppressed {
                        tag,
                        pages: npages as u32,
                    },
                );
                return cost;
            }
        }
        // A low-trust tenant's prefetch is advisory: it may only consume
        // free memory the paging daemon considers surplus, so it can
        // never create pressure for the neighbours.
        if advisory {
            let surplus = vm.free_pages().saturating_sub(vm.tunables().target_freemem);
            if surplus <= npages {
                self.stats.prefetch_advisory_dropped += npages;
                if let Some(a) = self.admission.as_mut() {
                    a.note_advisory_dropped();
                }
                self.obs.emit_page(
                    now,
                    pid.0,
                    vpn.0,
                    EventKind::PrefetchAdvisoryDropped {
                        tag,
                        pages: npages as u32,
                    },
                );
                return cost;
            }
        }
        for i in 0..npages {
            let page = Vpn(vpn.0 + i);
            if self.resident(vm, pid, now, page) {
                self.stats.prefetch_filtered += 1;
                self.obs
                    .emit_page(now, pid.0, page.0, EventKind::PrefetchFiltered { tag });
            } else {
                self.stats.prefetch_issued += 1;
                self.obs
                    .emit_page(now, pid.0, page.0, EventKind::PrefetchIssued { tag });
                self.prefetch_tags.insert(vm.address_space(pid), page, tag);
                to_issue.push(page);
            }
        }
        cost
    }

    /// Runs one release hint `(vpn, priority, tag)` through the layer,
    /// appending the pages to release now to `out`; returns the user-CPU
    /// cost.
    fn release_core(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        (vpn, priority, tag): (Vpn, u32, u32),
        out: &mut Vec<Vpn>,
    ) -> SimDuration {
        self.stats.release_hints += 1;
        self.obs
            .emit_page(now, pid.0, vpn.0, EventKind::ReleaseHint { tag, pages: 1 });
        if let Some(a) = self.admission.as_mut() {
            // Releases are rate-limited but never demoted: freeing
            // memory is always safe, so AdmitAdvisory processes normally
            // (the *credit* for it waits for engine verification).
            if a.admit(now, false) == AdmissionVerdict::Reject {
                self.stats.release_rejected += 1;
                self.obs
                    .emit_page(now, pid.0, vpn.0, EventKind::ReleaseRejected { tag });
                return self.config.hint_check;
            }
        }
        if self.checked {
            if let Err(why) = self.buffers.check_coherent() {
                self.checked_fail(now, "release_queue_priority", why);
            }
        }
        let cost = self.config.hint_check;

        if let Some(h) = self.health.as_mut() {
            if !h.on_hint(tag, now, &mut self.fault_log) {
                // Degraded: the page becomes a reactive eviction
                // candidate instead of a trusted release.
                self.stats.hints_suppressed += 1;
                self.obs.emit_page(
                    now,
                    pid.0,
                    vpn.0,
                    EventKind::ReleaseSuppressed { tag, pages: 1 },
                );
                self.push_degraded(vpn);
                return cost;
            }
        }

        // One-behind tag filter: handle the previously recorded page.
        // With the filter ablated, act on the hinted page directly.
        let prev = if self.config.one_behind {
            match self.tags.observe(tag, vpn) {
                Some(prev) => {
                    if self.checked && prev == vpn {
                        self.checked_fail(
                            now,
                            "one_behind_filter",
                            format!(
                                "one-behind filter passed just-hinted {vpn} for \
                                 tag {tag} straight through"
                            ),
                        );
                    }
                    prev
                }
                None => {
                    self.stats.release_same_page = self.tags.dropped_same_page();
                    self.obs.emit_page(
                        now,
                        pid.0,
                        vpn.0,
                        EventKind::ReleaseFilteredSamePage { tag },
                    );
                    return cost;
                }
            }
        } else {
            vpn
        };

        cost + self.release_tail(vm, pid, now, (prev, priority, tag), out)
    }

    /// The tail every release shares once the filters have picked its
    /// page: the bitmap check, the misfire tag, and the (brownout-
    /// adjusted) policy. Appends the pages to release now to `out`;
    /// returns the user-CPU cost beyond the hint check.
    fn release_tail(
        &mut self,
        vm: &VmSys,
        pid: Pid,
        now: SimTime,
        (vpn, priority, tag): (Vpn, u32, u32),
        out: &mut Vec<Vpn>,
    ) -> SimDuration {
        // Bitmap check: the page must still be in memory.
        if !self.resident(vm, pid, now, vpn) {
            self.stats.release_filtered_bitmap += 1;
            self.obs
                .emit_page(now, pid.0, vpn.0, EventKind::ReleaseFilteredBitmap { tag });
            return SimDuration::ZERO;
        }

        self.release_tags.insert(vm.address_space(pid), vpn, tag);
        match self.effective_policy() {
            ReleasePolicy::Aggressive => {
                self.stats.release_issued_direct += 1;
                self.obs
                    .emit_page(now, pid.0, vpn.0, EventKind::ReleaseIssued { tag });
                out.push(vpn);
                SimDuration::ZERO
            }
            ReleasePolicy::Reactive => {
                // Accumulate candidates; nothing is released proactively.
                self.buffers.buffer(tag, priority.max(1), vpn);
                self.stats.release_buffered += 1;
                self.obs.emit_page(
                    now,
                    pid.0,
                    vpn.0,
                    EventKind::ReleaseBuffered {
                        tag,
                        priority: priority.max(1),
                    },
                );
                self.config.buffer_op
            }
            ReleasePolicy::Buffered => {
                if priority == 0 {
                    // No expected reuse: issue after the simple checks.
                    self.stats.release_issued_direct += 1;
                    self.obs
                        .emit_page(now, pid.0, vpn.0, EventKind::ReleaseIssued { tag });
                    out.push(vpn);
                    return SimDuration::ZERO;
                }
                self.buffers.buffer(tag, priority, vpn);
                self.stats.release_buffered += 1;
                self.obs.emit_page(
                    now,
                    pid.0,
                    vpn.0,
                    EventKind::ReleaseBuffered { tag, priority },
                );
                // Near the OS-suggested limit? Drain the lowest priorities.
                if let Some(view) = vm.shared_view(pid) {
                    if view.usage + self.config.limit_slack_pages >= view.limit {
                        let drained = self.buffers.drain_lowest(self.config.release_batch_target);
                        self.stats.release_drained += drained.len() as u64;
                        for page in &drained {
                            self.obs
                                .emit_page(now, pid.0, page.0, EventKind::ReleaseDrained);
                        }
                        out.extend(drained);
                    }
                }
                self.config.buffer_op
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{Backing, CostParams, Tunables};

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// A VM with one PM process owning an 8-page region, `resident` pages
    /// touched in.
    fn setup(total: usize, resident: u64) -> (VmSys, Pid, vm::PageRange) {
        let mut tun = Tunables::for_memory(total as u64);
        tun.min_freemem = 2;
        tun.target_freemem = 4;
        let mut vm = VmSys::new(
            total,
            tun,
            CostParams::default(),
            disk::SwapConfig::test_array(),
        );
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 64, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..resident {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        (vm, pid, r)
    }

    fn hint_rng() -> Pcg32 {
        sim_core::fault::FaultPlan::seeded(42).rng_for(sim_core::fault::FaultDomain::Hints)
    }

    #[test]
    fn prefetch_hint_filters_resident_pages() {
        let (vm, pid, r) = setup(128, 2);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        let (issue, cost) = rt.on_prefetch_hint(&vm, pid, t(2), r.start, 4, 0);
        // Pages 0 and 1 are resident → filtered; 2 and 3 issued.
        assert_eq!(issue, vec![r.start.offset(2), r.start.offset(3)]);
        assert_eq!(rt.stats().prefetch_filtered, 2);
        assert_eq!(rt.stats().prefetch_issued, 2);
        assert!(cost > SimDuration::ZERO);
    }

    #[test]
    fn brownout_critical_disables_prefetch_without_charging_admission() {
        let (vm, pid, r) = setup(128, 2);
        let mut rt = RuntimeLayer::new(
            ReleasePolicy::Aggressive,
            RtConfig {
                admission: Some(AdmissionConfig::default()),
                ..RtConfig::default()
            },
        );
        rt.set_brownout(t(1), PressureLevel::Critical, 2);
        let (issue, _) = rt.on_prefetch_hint(&vm, pid, t(2), r.start, 4, 0);
        assert!(issue.is_empty(), "prefetches stand down at Critical");
        assert_eq!(rt.stats().prefetch_browned_out, 4);
        assert_eq!(
            rt.admission_stats().unwrap().admitted,
            0,
            "the stand-down never reaches the token bucket"
        );
        // Unwinding to Normal restores the prefetch path.
        rt.set_brownout(t(3), PressureLevel::Normal, 0);
        let (issue, _) = rt.on_prefetch_hint(&vm, pid, t(4), r.start, 4, 0);
        assert_eq!(issue.len(), 2);
    }

    #[test]
    fn brownout_elevated_escalates_buffered_releases() {
        let (vm, pid, r) = setup(128, 3);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        rt.set_brownout(t(1), PressureLevel::Elevated, 0);
        // Priority > 0 would normally buffer; under brownout the release
        // goes straight out (one-behind still applies).
        rt.on_release_hint(&vm, pid, t(2), r.start, 3, 7);
        let (second, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(1), 3, 7);
        assert_eq!(second, vec![r.start], "escalated to aggressive");
        assert_eq!(rt.stats().release_buffered, 0);
        assert_eq!(rt.stats().release_issued_direct, 1);
    }

    #[test]
    fn aggressive_release_is_one_behind() {
        let (vm, pid, r) = setup(128, 3);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        let (first, _) = rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        assert!(first.is_empty(), "first hint only records");
        let (second, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(1), 0, 7);
        assert_eq!(second, vec![r.start], "previous page released");
    }

    #[test]
    fn release_of_nonresident_page_filtered() {
        let (vm, pid, r) = setup(128, 1);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        // Record page 5 (never touched → not resident), then move on.
        rt.on_release_hint(&vm, pid, t(2), r.start.offset(5), 0, 7);
        let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(6), 0, 7);
        assert!(out.is_empty());
        assert_eq!(rt.stats().release_filtered_bitmap, 1);
    }

    #[test]
    fn buffered_priority_zero_issues_directly() {
        let (vm, pid, r) = setup(128, 3);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(1), 0, 7);
        assert_eq!(out, vec![r.start]);
        assert_eq!(rt.buffered_pages(), 0);
    }

    #[test]
    fn buffered_positive_priority_buffers_until_pressure() {
        // Plenty of memory: limit far above usage → no drain.
        let (vm, pid, r) = setup(1024, 3);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        rt.on_release_hint(&vm, pid, t(2), r.start, 1, 7);
        let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(1), 1, 7);
        assert!(out.is_empty());
        assert_eq!(rt.buffered_pages(), 1);
        assert_eq!(rt.stats().release_buffered, 1);
    }

    #[test]
    fn buffered_drains_near_limit() {
        // Small machine: after touching most of memory the Eq. 1 limit is
        // close to usage, so buffering immediately drains.
        let (mut vm, pid, r) = setup(40, 30);
        // Refresh shared words via an extra touch (activity).
        vm.touch(t(500), pid, r.start, false);
        let view = vm.shared_view(pid).unwrap();
        assert!(view.usage + 64 >= view.limit, "test premise: near limit");
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        rt.on_release_hint(&vm, pid, t(500), r.start, 1, 7);
        let (out, _) = rt.on_release_hint(&vm, pid, t(500), r.start.offset(1), 1, 7);
        assert_eq!(out, vec![r.start], "pressure forces the drain");
        assert_eq!(rt.stats().release_drained, 1);
    }

    #[test]
    fn flush_empties_buffers() {
        let (vm, pid, r) = setup(1024, 5);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        for i in 0..4 {
            rt.on_release_hint(&vm, pid, t(2), r.start.offset(i), 2, 9);
        }
        assert_eq!(rt.buffered_pages(), 3, "one-behind keeps the newest");
        let out = rt.flush(t(3), pid);
        assert_eq!(out.len(), 3);
        assert_eq!(rt.buffered_pages(), 0);
    }

    #[test]
    fn dropped_hints_never_reach_the_filters() {
        let (vm, pid, r) = setup(128, 8);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        rt.arm_faults(
            HintFaults {
                drop: 1.0,
                ..HintFaults::default()
            },
            hint_rng(),
        );
        for i in 0..4 {
            let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(i), 0, 7);
            assert!(out.is_empty());
        }
        assert_eq!(rt.stats().hints_dropped, 4);
        assert_eq!(rt.stats().release_hints, 0, "filters never saw them");
        assert_eq!(rt.fault_log().count("hint_dropped"), 4);
    }

    #[test]
    fn delayed_hint_arrives_before_the_next_one() {
        let (vm, pid, r) = setup(128, 8);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        // Delay every hint: hint N is processed when hint N+1 arrives.
        rt.arm_faults(
            HintFaults {
                delay: 1.0,
                ..HintFaults::default()
            },
            hint_rng(),
        );
        let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        assert!(out.is_empty(), "first hint held back");
        assert_eq!(rt.stats().release_hints, 0);
        let (out, _) = rt.on_release_hint(&vm, pid, t(3), r.start.offset(1), 0, 7);
        assert!(out.is_empty(), "held-back hint only records in the filter");
        assert_eq!(rt.stats().release_hints, 1, "delayed hint was delivered");
        let (out, _) = rt.on_release_hint(&vm, pid, t(4), r.start.offset(2), 0, 7);
        assert_eq!(out, vec![r.start], "one-behind runs over the late stream");
        assert_eq!(rt.stats().hints_delayed, 3);
    }

    #[test]
    fn duplicated_hint_is_processed_twice() {
        let (vm, pid, r) = setup(128, 8);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        rt.arm_faults(
            HintFaults {
                duplicate: 1.0,
                ..HintFaults::default()
            },
            hint_rng(),
        );
        rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        assert_eq!(rt.stats().release_hints, 2);
        assert_eq!(rt.stats().hints_duplicated, 1);
        // The duplicate names the same page, so the one-behind same-page
        // check absorbs it — the fault costs work, not correctness.
        assert_eq!(rt.stats().release_same_page, 1);
    }

    #[test]
    fn mistagged_hint_lands_on_another_tag() {
        let (vm, pid, r) = setup(128, 8);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        rt.arm_faults(
            HintFaults {
                mistag: 1.0,
                ..HintFaults::default()
            },
            hint_rng(),
        );
        rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        assert_eq!(rt.stats().hints_mistagged, 1);
        assert_eq!(rt.fault_log().count("hint_mistagged"), 1);
        let tracked = rt.tags.tracked_tags();
        assert_eq!(tracked, 1, "hint recorded under the rewritten tag");
        assert_eq!(rt.tags.retire_tag(7), None, "original tag untouched");
    }

    #[test]
    fn stale_bitmap_read_serves_old_value_inside_window() {
        let (mut vm, pid, r) = setup(128, 1);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        rt.config.one_behind = false; // act on the hinted page directly
        rt.arm_faults(
            HintFaults {
                stale_shared_window: SimDuration::from_millis(100),
                ..HintFaults::default()
            },
            hint_rng(),
        );
        let page = r.start.offset(5);
        // First read caches "not resident" and filters the release.
        let (out, _) = rt.on_release_hint(&vm, pid, t(2), page, 0, 7);
        assert!(out.is_empty());
        // The page becomes resident, but the cache still says otherwise.
        vm.touch(t(3), pid, page, false);
        assert!(vm.pm_resident(pid, page));
        let (out, _) = rt.on_release_hint(&vm, pid, t(4), page, 0, 7);
        assert!(out.is_empty(), "stale cache suppressed the release");
        assert_eq!(rt.stats().stale_reads, 1);
        assert_eq!(rt.fault_log().count("stale_shared_read"), 1);
        // Past the window the cache refreshes and the release goes out.
        let (out, _) = rt.on_release_hint(&vm, pid, t(200), page, 0, 7);
        assert_eq!(out, vec![page]);
    }

    #[test]
    fn misfire_feedback_degrades_tag_to_reactive_candidates() {
        let (vm, pid, r) = setup(128, 16);
        let mut cfg = RtConfig {
            health: Some(HealthConfig {
                window: 4,
                disable_threshold: 0.5,
                enable_threshold: 0.25,
                probation: 1000,
                stream_disable_tags: 8,
            }),
            ..RtConfig::default()
        };
        cfg.one_behind = false;
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, cfg);
        // Every issued release gets cancelled by a re-reference.
        for i in 0..4 {
            let (out, _) = rt.on_release_hint(&vm, pid, t(2), r.start.offset(i), 0, 7);
            if !out.is_empty() {
                rt.note_touch_outcome(t(2), out[0], vm::TouchKind::SoftFaultRelease);
            }
        }
        assert!(rt.fault_log().count("tag_disabled") == 1, "tag 7 disabled");
        assert_eq!(rt.stats().misfires_cancelled, 3, "3 hints before disable");
        // Further hints for the tag become reactive candidates, handed to
        // the OS once a full batch has queued.
        let before = rt.stats().hints_suppressed;
        let (out, _) = rt.on_release_hint(&vm, pid, t(3), r.start.offset(9), 0, 7);
        assert!(out.is_empty());
        assert_eq!(rt.stats().hints_suppressed, before + 1);
        assert!(rt.take_eviction_candidates().is_empty(), "batch not due");
        for i in 0..2 * CANDIDATE_BATCH as u64 {
            if rt.stats().hints_suppressed == CANDIDATE_BATCH as u64 {
                break;
            }
            rt.on_release_hint(&vm, pid, t(3), r.start.offset(10 + i % 50), 0, 7);
        }
        let handed = rt.take_eviction_candidates();
        assert_eq!(handed.len(), CANDIDATE_BATCH);
        assert_eq!(
            handed[before as usize],
            r.start.offset(9),
            "the suppressed page"
        );
        assert!(rt.take_eviction_candidates().is_empty(), "queue drained");
    }

    #[test]
    fn reconcile_after_crash_drops_volatile_state_keeps_counters() {
        let (vm, pid, r) = setup(1024, 8);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Buffered, RtConfig::default());
        for i in 0..4 {
            rt.on_release_hint(&vm, pid, t(2), r.start.offset(i), 1, 9);
        }
        assert_eq!(rt.buffered_pages(), 3, "one-behind keeps the newest");
        let hints_before = rt.stats().release_hints;
        let orphaned = rt.reconcile_after_crash();
        assert_eq!(orphaned, 3, "buffered releases were orphaned");
        assert_eq!(rt.buffered_pages(), 0);
        assert_eq!(rt.stats().release_hints, hints_before, "stats survive");
        // The one-behind filter re-armed: the next hint only records.
        let (out, _) = rt.on_release_hint(&vm, pid, t(3), r.start.offset(5), 1, 9);
        assert!(out.is_empty());
        assert_eq!(rt.buffered_pages(), 0, "fresh filter held the page back");
    }

    #[test]
    fn retire_tag_flushes_trailing_page() {
        let (vm, pid, r) = setup(128, 4);
        let mut rt = RuntimeLayer::new(ReleasePolicy::Aggressive, RtConfig::default());
        rt.on_release_hint(&vm, pid, t(2), r.start, 0, 7);
        rt.on_release_hint(&vm, pid, t(2), r.start.offset(1), 0, 7);
        // Tag 7's filter still holds page 1; nest exit flushes it.
        let (out, cost) = rt.on_retire_tag(&vm, pid, t(3), 7);
        assert_eq!(out, vec![r.start.offset(1)]);
        assert!(cost > SimDuration::ZERO);
        assert_eq!(rt.stats().tags_retired, 1);
        // Idempotent: the tag is gone.
        let (out, _) = rt.on_retire_tag(&vm, pid, t(3), 7);
        assert!(out.is_empty());
    }
}
