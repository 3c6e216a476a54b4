//! The VM system facade.
//!
//! [`VmSys`] owns the frame table, the global free list, the swap device,
//! all process address spaces, and the two kernel daemons. Its API is the
//! OS boundary the rest of the reproduction talks to:
//!
//! * [`VmSys::touch`] — a memory reference: TLB, soft/hard fault paths,
//!   rescue from the free list, zero-fill.
//! * [`VmSys::prefetch`] / [`VmSys::release`] — the PagingDirected PM
//!   operations.
//! * [`VmSys::service_pagingd`] / [`VmSys::service_releaser`] — daemon
//!   activations driven by the simulation engine.
//!
//! Every operation returns explicit timing; nothing inside the crate knows
//! about the event queue.

use std::collections::VecDeque;

use disk::{IoKind, SwapConfig, SwapDevice, SwapSlot};
use sim_core::hash::HashMap;
use sim_core::obs::{EventKind, Recorder};
use sim_core::oracle::{naive_limit, Oracle};
use sim_core::sanitizer::{InvariantViolation, Mutation};
use sim_core::{SimDuration, SimTime};

use crate::addr::{PageRange, Pfn, Pid, Vpn};
use crate::frame::{FrameTable, FreeSource};
use crate::freelist::{FreeList, RescueLinks};
use crate::lock::TimelineLock;
use crate::outcome::{PrefetchOutcome, ReleaseEnqueue, TouchKind, TouchResult};
use crate::pagetable::{InvalidReason, PageTable, Pte};
use crate::pagingd::PagingDaemon;
use crate::params::{CostParams, Tunables};
use crate::policy::PagingDirected;
use crate::quota::{QuotaSet, TenantQuota};
use crate::releaser::Releaser;
use crate::shared_page::upper_limit;
use crate::stats::VmStats;
use crate::tlb::Tlb;

/// What backs a region's pages before they are first touched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Out-of-core data: the region's content already lives in swap, so the
    /// first touch of every page is a demand page-in.
    SwapPrefilled,
    /// Ordinary anonymous memory: the first touch is a zero-fill minor
    /// fault; swap slots are assigned on first eviction.
    ZeroFill,
}

/// A mapped region of a process's address space.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    pub range: PageRange,
    pub backing: Backing,
    /// For `SwapPrefilled`: slot of the region's first page.
    pub base_slot: Option<SwapSlot>,
}

/// One process's memory-management state.
pub(crate) struct ProcessMem {
    pub pt: PageTable,
    pub regions: Vec<Region>,
    pub tlb: Tlb,
    pub lock: TimelineLock,
    pub pm: Option<PagingDirected>,
    next_vpn: u64,
    /// The process is in `VmSys::released_pids`: its `pages_released`
    /// moved since the engine last took the list.
    released_listed: bool,
}

/// The process table holds each page's rescue link in its entry.
impl RescueLinks for [ProcessMem] {
    #[inline]
    fn link(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut Option<Pfn>> {
        let e = self.get_mut(pid.0 as usize)?.pt.get_mut(vpn)?;
        Some(&mut e.rescue)
    }
}

/// Why a VM operation could not be completed.
///
/// Only genuinely unrecoverable conditions surface here; the panicking
/// wrappers ([`VmSys::touch`]) keep hot-path call sites unchanged while
/// `try_` variants let embedders handle the failure themselves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The address lies outside every mapped region of the process.
    UnmappedAddress {
        /// The faulting process.
        pid: Pid,
        /// The unmapped page.
        vpn: Vpn,
    },
    /// Repeated paging-daemon activations could not reclaim a frame.
    OutOfMemory {
        /// The process whose allocation could not be satisfied.
        pid: Pid,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::UnmappedAddress { pid, vpn } => {
                write!(f, "{pid} touched unmapped address {vpn}")
            }
            VmError::OutOfMemory { pid } => write!(
                f,
                "out of physical memory: no frame reclaimable for {pid} after 64 daemon passes"
            ),
        }
    }
}

impl std::error::Error for VmError {}

/// A snapshot of the shared page's usage/limit words as the application
/// reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedView {
    /// Word 0: resident pages at the last refresh.
    pub usage: u64,
    /// Word 1: Eq. 1 upper limit at the last refresh.
    pub limit: u64,
}

/// The VM system (see module docs).
///
/// # Examples
///
/// ```
/// use vm::{Backing, VmSys, TouchKind};
/// use sim_core::SimTime;
///
/// let mut vm = VmSys::with_defaults(256);
/// let pid = vm.add_process(true); // with the PagingDirected PM
/// let region = vm.map_region(pid, 16, Backing::SwapPrefilled, true);
///
/// // First touch demand-faults from swap; the second hits.
/// let first = vm.touch(SimTime::ZERO, pid, region.start, false);
/// assert_eq!(first.kind, TouchKind::HardFault);
/// let second = vm.touch(first.done_at, pid, region.start, false);
/// assert_eq!(second.kind, TouchKind::Hit);
///
/// // Release it back: the bitmap bit clears at request time and the
/// // releaser daemon frees it.
/// vm.release(second.done_at, pid, &[region.start]);
/// assert!(!vm.pm_resident(pid, region.start));
/// vm.service_releaser(second.done_at);
/// assert_eq!(vm.rss(pid), 0);
/// ```
pub struct VmSys {
    pub(crate) params: CostParams,
    pub(crate) tun: Tunables,
    pub(crate) swap: SwapDevice,
    pub(crate) frames: FrameTable,
    pub(crate) free: FreeList,
    pub(crate) procs: Vec<ProcessMem>,
    pub(crate) pagingd: PagingDaemon,
    pub(crate) releaser: Releaser,
    /// Crash injection can kill the releaser; while dead, release
    /// requests are lost and the paging daemon is the only reclaimer.
    releaser_alive: bool,
    pub(crate) stats: VmStats,
    /// Reactive-mode eviction candidates per process (VINO-style: the
    /// application tells the OS which of its pages to take when the OS
    /// decides to reclaim from it).
    pub(crate) reactive: HashMap<Pid, VecDeque<Vpn>>,
    /// Per-tenant quota contracts plus the frame-charge / hint-debt
    /// ledgers. Empty = stock Eq. 1 behaviour for everyone.
    pub(crate) quota: QuotaSet,
    /// Free-memory level at the last threshold-notification broadcast.
    last_broadcast_free: u64,
    /// Structured kernel-activity flight recorder (disabled by default).
    pub(crate) obs: Recorder,
    next_swap_slot: u64,
    /// Checked mode: invariant probes fire at state-mutation sites.
    checked: bool,
    /// The lockstep reference oracle (present only in checked mode).
    oracle: Option<Oracle>,
    /// Shadow copy of each PM process's shared usage/limit words taken at
    /// the last legitimate refresh; out-of-band tampering is caught by
    /// comparison at the next probe sweep.
    checked_shadow: HashMap<u32, (u64, u64)>,
    /// Clock-hand position recorded at the end of the last paging-daemon
    /// activation (checked mode): the hand must not move between
    /// activations.
    checked_hand: Option<usize>,
    /// Suppresses oracle feeding for one operation (the `StealthFree`
    /// self-test mutation: a legitimate free the oracle never hears of).
    oracle_mute: bool,
    /// Each process whose `pages_released` moved since the engine last
    /// took this list, once (deduplicated by `ProcessMem::released_listed`).
    released_pids: Vec<Pid>,
}

impl VmSys {
    /// Creates a machine with `total_frames` user-available frames.
    pub fn new(
        total_frames: usize,
        tun: Tunables,
        params: CostParams,
        swap_config: SwapConfig,
    ) -> Self {
        let frames = FrameTable::new(total_frames);
        let mut free = FreeList::new();
        free.fill_initial(&frames);
        let quota = QuotaSet::new(tun.maxrss);
        VmSys {
            params,
            tun,
            swap: SwapDevice::new(swap_config),
            frames,
            free,
            procs: Vec::new(),
            pagingd: PagingDaemon::new(),
            releaser: Releaser::new(),
            releaser_alive: true,
            stats: VmStats::default(),
            reactive: HashMap::default(),
            quota,
            last_broadcast_free: total_frames as u64,
            obs: Recorder::default(),
            next_swap_slot: 0,
            checked: false,
            oracle: None,
            checked_shadow: HashMap::default(),
            checked_hand: None,
            oracle_mute: false,
            released_pids: Vec::new(),
        }
    }

    /// Convenience constructor with default tunables and costs.
    pub fn with_defaults(total_frames: usize) -> Self {
        VmSys::new(
            total_frames,
            Tunables::for_memory(total_frames as u64),
            CostParams::default(),
            SwapConfig::paper(),
        )
    }

    /// Makes room for `additional` more processes in each per-process
    /// table, so adding a known population allocates every table once
    /// instead of doubling it (and freeing the smaller copies) as it goes.
    pub fn reserve_processes(&mut self, additional: usize) {
        self.procs.reserve_exact(additional);
        self.stats.procs.reserve_exact(additional);
        self.quota.reserve(additional);
    }

    /// Creates a process; `with_pm` attaches the PagingDirected PM.
    pub fn add_process(&mut self, with_pm: bool) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        let base = 0x1000; // arbitrary nonzero base
        self.procs.push(ProcessMem {
            pt: PageTable::with_base(Vpn(base)),
            regions: Vec::new(),
            tlb: Tlb::new(64),
            lock: TimelineLock::new(),
            pm: with_pm.then(PagingDirected::new),
            next_vpn: base,
            released_listed: false,
        });
        self.stats.proc_mut(pid.0 as usize);
        self.quota.add_process(pid.0);
        pid
    }

    /// Maps a region of `npages` pages; if the process has the
    /// PagingDirected PM and `attach_pm` is set, the PM governs the region.
    pub fn map_region(
        &mut self,
        pid: Pid,
        npages: u64,
        backing: Backing,
        attach_pm: bool,
    ) -> PageRange {
        let base_slot = match backing {
            Backing::SwapPrefilled => {
                let slot = SwapSlot(self.next_swap_slot);
                self.next_swap_slot += npages;
                Some(slot)
            }
            Backing::ZeroFill => None,
        };
        let p = &mut self.procs[pid.0 as usize];
        let range = PageRange::new(Vpn(p.next_vpn), npages);
        p.next_vpn += npages + 16; // guard gap between regions
        p.regions.push(Region {
            range,
            backing,
            base_slot,
        });
        if attach_pm {
            if let Some(pm) = p.pm.as_mut() {
                pm.attach(range);
            }
        }
        range
    }

    /// Number of frames currently free.
    #[inline]
    pub fn free_pages(&self) -> u64 {
        self.free.live() as u64
    }

    /// Total frames in the machine.
    pub fn total_frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Resident set size of a process, in pages.
    pub fn rss(&self, pid: Pid) -> u64 {
        self.procs[pid.0 as usize].pt.resident_pages()
    }

    /// The span of a process's address space: from its page table's base
    /// to the end of its last mapped region (guard gaps included). Every
    /// page a process can touch lies inside it.
    pub fn address_space(&self, pid: Pid) -> PageRange {
        let p = &self.procs[pid.0 as usize];
        let base = p.pt.base();
        PageRange::new(base, p.next_vpn - base.0)
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Hands over, in `into` (cleared first), each process whose
    /// `pages_released` counter moved since the last call, once each and
    /// in the order their first release landed. `into`'s buffer is kept
    /// for the next list, so alternating two buffers allocates nothing.
    pub fn take_released_pids(&mut self, into: &mut Vec<Pid>) {
        into.clear();
        std::mem::swap(into, &mut self.released_pids);
        for pid in into.iter() {
            self.procs[pid.0 as usize].released_listed = false;
        }
    }

    /// Read-only swap-device view.
    pub fn swap(&self) -> &SwapDevice {
        &self.swap
    }

    /// Mutable swap-device access (e.g. to arm I/O fault injection).
    pub fn swap_mut(&mut self) -> &mut SwapDevice {
        &mut self.swap
    }

    /// The tunables in force.
    #[inline]
    pub fn tunables(&self) -> &Tunables {
        &self.tun
    }

    /// The cost parameters in force.
    #[inline]
    pub fn cost_params(&self) -> &CostParams {
        &self.params
    }

    /// Shrinks the per-process upper memory limit (`maxrss`) to `frac` of
    /// its current value — fault injection's hostile memory hog claiming
    /// the machine mid-run. The paging daemon will trim over-limit
    /// processes on its next activation; the shared-page limit words pick
    /// the new value up on their next refresh, exactly as a real
    /// `setrlimit` would be observed lazily. Returns `(old, new)` limits
    /// in pages.
    pub fn shrink_limit(&mut self, frac: f64) -> (u64, u64) {
        let old = self.tun.maxrss;
        let floor = (self.tun.target_freemem.max(16)).min(old);
        let new = ((old as f64 * frac.clamp(0.0, 1.0)) as u64).max(floor);
        self.set_maxrss(new);
        // The daemon must notice newly over-limit processes promptly.
        self.pagingd.request_wake();
        (old, new)
    }

    /// Sets `maxrss` in the tunables and in the quota ledger, whose
    /// over-cap index rechecks every process against the new limit.
    pub(crate) fn set_maxrss(&mut self, maxrss: u64) {
        self.tun.maxrss = maxrss;
        self.quota.set_maxrss(maxrss);
    }

    /// Address-space lock statistics for one process.
    pub fn lock_stats(&self, pid: Pid) -> crate::lock::LockStats {
        *self.procs[pid.0 as usize].lock.stats()
    }

    /// Registers (or replaces) a tenant's memory quota. Tenants without a
    /// quota keep the stock Eq. 1 behaviour.
    pub fn set_tenant_quota(&mut self, pid: Pid, quota: TenantQuota) {
        self.quota.set(pid.0, quota);
        // A tighter cap may make the tenant over-limit immediately.
        self.pagingd.request_wake();
    }

    /// Read access to the quota registry and its ledgers.
    pub fn quotas(&self) -> &QuotaSet {
        &self.quota
    }

    /// The effective page cap for `pid`:
    /// `min(maxrss, guaranteed + burst - debt)` for quota'd tenants,
    /// `maxrss` otherwise.
    pub fn tenant_cap(&self, pid: Pid) -> u64 {
        self.quota.cap(pid.0)
    }

    // ------------------------------------------------------------------
    // Shared-page access (what the run-time layer reads).
    // ------------------------------------------------------------------

    /// Reads the usage/limit words of a process's shared page.
    ///
    /// Lazy semantics (the paper's): the words are whatever the last
    /// memory-system activity left there. With the
    /// `immediate_limit_updates` ablation they are recomputed on every read.
    #[inline]
    pub fn shared_view(&self, pid: Pid) -> Option<SharedView> {
        let p = &self.procs[pid.0 as usize];
        let pm = p.pm.as_ref()?;
        if self.tun.immediate_limit_updates {
            let usage = p.pt.resident_pages();
            let limit = upper_limit(
                self.tun.maxrss,
                usage,
                self.free.live() as u64,
                self.tun.min_freemem,
            )
            .min(self.quota.cap(pid.0));
            Some(SharedView { usage, limit })
        } else {
            Some(SharedView {
                usage: pm.shared.usage_word,
                limit: pm.shared.limit_word,
            })
        }
    }

    /// Reads one residency bit from the shared page (bitmap reads are
    /// always current; the OS maintains them eagerly).
    #[inline]
    pub fn pm_resident(&self, pid: Pid, vpn: Vpn) -> bool {
        match &self.procs[pid.0 as usize].pm {
            Some(pm) => pm.shared.is_resident(vpn),
            None => false,
        }
    }

    /// Refreshes the shared page's usage/limit words (the OS does this on
    /// every memory-system activity of the owning process).
    pub(crate) fn refresh_shared(&mut self, now: SimTime, pid: Pid) {
        let free = self.free.live() as u64;
        let pidx = pid.0 as usize;
        let usage = self.procs[pidx].pt.resident_pages();
        let limit = upper_limit(self.tun.maxrss, usage, free, self.tun.min_freemem);
        if self.checked && self.procs[pidx].pm.is_some() {
            // Probe *before* overwriting: a tampered word must be caught
            // here, not silently repaired by this refresh. And diff the
            // optimized Eq. 1 against the oracle's naive arithmetic.
            let p = &self.procs[pidx];
            if let (Some(pm), Some(&(u, l))) = (p.pm.as_ref(), self.checked_shadow.get(&pid.0)) {
                if (pm.shared.usage_word, pm.shared.limit_word) != (u, l) {
                    self.checked_fail(
                        now,
                        "eq1_accounting",
                        format!(
                            "pid {}: shared words ({}, {}) diverged from the last refresh ({u}, {l})",
                            pid.0, pm.shared.usage_word, pm.shared.limit_word
                        ),
                    );
                }
            }
            let naive = naive_limit(self.tun.maxrss, usage, free, self.tun.min_freemem);
            if naive != limit {
                self.checked_fail(
                    now,
                    "oracle_eq1",
                    format!("Eq. 1 disagreement: optimized limit {limit}, naive spec {naive}"),
                );
            }
        }
        // Per-tenant quota clamp, applied *after* the oracle comparison:
        // the oracle models the paper's raw Eq. 1; the quota is this
        // reproduction's multi-tenant extension layered on top of it.
        let limit = limit.min(self.quota.cap(pid.0));
        let p = &mut self.procs[pidx];
        if let Some(pm) = p.pm.as_mut() {
            pm.shared.refresh(usage, limit);
            if self.checked {
                self.checked_shadow.insert(pid.0, (usage, limit));
            }
        }
        self.maybe_broadcast(free);
    }

    /// §3.1.1 threshold notification: if free memory moved beyond the
    /// configured threshold since the last broadcast, refresh every PM
    /// process's shared words (the alternative the paper chose not to
    /// build; provided for the ablation study).
    fn maybe_broadcast(&mut self, free: u64) {
        let Some(threshold) = self.tun.shared_update_threshold else {
            return;
        };
        if free.abs_diff(self.last_broadcast_free) <= threshold {
            return;
        }
        self.last_broadcast_free = free;
        for (pidx, p) in self.procs.iter_mut().enumerate() {
            if let Some(pm) = p.pm.as_mut() {
                let usage = p.pt.resident_pages();
                let limit = upper_limit(self.tun.maxrss, usage, free, self.tun.min_freemem)
                    .min(self.quota.cap(pidx as u32));
                pm.shared.refresh(usage, limit);
                if self.checked {
                    self.checked_shadow.insert(pidx as u32, (usage, limit));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Touch (the memory-reference entry point).
    // ------------------------------------------------------------------

    /// References `(pid, vpn)` at `now`. Returns the timed outcome.
    ///
    /// # Panics
    ///
    /// Panics if the address is not inside any mapped region, or if the
    /// machine is irrecoverably out of memory; use [`VmSys::try_touch`] on
    /// paths where either is a recoverable condition.
    pub fn touch(&mut self, now: SimTime, pid: Pid, vpn: Vpn, write: bool) -> TouchResult {
        self.try_touch(now, pid, vpn, write)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`VmSys::touch`]: references `(pid, vpn)` at `now`,
    /// returning the timed outcome or the reason the reference is
    /// unserviceable ([`VmError::UnmappedAddress`],
    /// [`VmError::OutOfMemory`]).
    ///
    /// A touch of a valid page, the common case, reads its entry once by
    /// reference and tests the entry's TLB bit; every fault path is out
    /// of line.
    #[inline]
    pub fn try_touch(
        &mut self,
        now: SimTime,
        pid: Pid,
        vpn: Vpn,
        write: bool,
    ) -> Result<TouchResult, VmError> {
        let pidx = pid.0 as usize;
        let p = &mut self.procs[pidx];
        match p.pt.get_mut(vpn) {
            Some(e) if e.valid && e.resident() => {
                e.last_ref = now;
                e.clock_sampled = false;
                e.hw_referenced = true;
                e.dirty |= write;
            }
            _ => return self.touch_slow(now, pid, vpn, write),
        }
        if p.tlb.touch(&mut p.pt, vpn) {
            return Ok(TouchResult::hit(now));
        }
        self.stats.proc_mut(pidx).tlb_misses.bump();
        let refill = self.params.tlb_refill;
        Ok(TouchResult {
            kind: TouchKind::TlbMiss,
            system: refill,
            resource_wait: SimDuration::ZERO,
            io_wait: SimDuration::ZERO,
            lock_wait: SimDuration::ZERO,
            io_queue: SimDuration::ZERO,
            done_at: now + refill,
        })
    }

    /// Every touch of a page that is not valid: a soft fault on a resident
    /// page, a rescue, a zero-fill or a hard fault.
    #[inline(never)]
    fn touch_slow(
        &mut self,
        now: SimTime,
        pid: Pid,
        vpn: Vpn,
        write: bool,
    ) -> Result<TouchResult, VmError> {
        let pidx = pid.0 as usize;
        let (resident, swapped) = self.procs[pidx]
            .pt
            .get_ref(vpn)
            .map_or((false, false), |e| {
                (e.resident(), e.materialized && e.swap_slot.is_some())
            });

        if resident {
            return Ok(self.touch_invalid(now, pid, vpn, write));
        }

        // Not resident: rescue, zero-fill, or hard fault.
        if self.tun.rescue_enabled {
            if let Some(result) = self.try_rescue(now, pid, vpn, write) {
                return Ok(result);
            }
        }

        let region = self
            .region_of(pid, vpn)
            .ok_or(VmError::UnmappedAddress { pid, vpn })?;
        let needs_io = match region.backing {
            Backing::SwapPrefilled => true,
            // Zero-fill pages need I/O only once they've been written back.
            Backing::ZeroFill => swapped,
        };
        if needs_io {
            self.hard_fault(now, pid, vpn, write)
        } else {
            self.zero_fill(now, pid, vpn, write)
        }
    }

    /// A touch of a resident page whose PTE is invalid: one of the three
    /// software-sampling states.
    fn touch_invalid(&mut self, now: SimTime, pid: Pid, vpn: Vpn, write: bool) -> TouchResult {
        let pidx = pid.0 as usize;
        let params = self.params;

        let (reason, arrives_at) = {
            let e = self.procs[pidx].pt.entry(vpn);
            e.last_ref = now;
            e.clock_sampled = false;
            e.hw_referenced = true;
            if write {
                e.dirty = true;
            }
            debug_assert!(!e.valid, "valid pages take the fast path");
            (e.invalid_reason, e.arrives_at)
        };

        match reason {
            Some(InvalidReason::Prefetched) => {
                // Wait for the in-flight prefetch, then validate.
                let io_wait = arrives_at.since(now);
                let t_arrived = now + io_wait;
                let system = params.prefetch_validate + params.tlb_refill;
                self.validate_pte(pidx, vpn, now);
                self.tlb_touch(pidx, vpn);
                self.stats.proc_mut(pidx).prefetch_validates.bump();
                self.quota.credit(pid.0, 1);
                self.note_page(now, pid.0, vpn.0, EventKind::PrefetchValidated);
                TouchResult {
                    kind: TouchKind::PrefetchValidate,
                    system,
                    resource_wait: SimDuration::ZERO,
                    io_wait,
                    lock_wait: SimDuration::ZERO,
                    io_queue: SimDuration::ZERO,
                    done_at: t_arrived + system,
                }
            }
            Some(InvalidReason::DaemonSample) => {
                let acq = self.procs[pidx].lock.acquire(now, params.soft_fault_lock);
                let system = params.soft_fault;
                self.validate_pte(pidx, vpn, now);
                self.tlb_touch(pidx, vpn);
                self.stats.proc_mut(pidx).soft_faults_daemon.bump();
                self.note_page(now, pid.0, vpn.0, EventKind::SoftFaultDaemon);
                self.refresh_shared(now, pid);
                TouchResult {
                    kind: TouchKind::SoftFaultDaemon,
                    system,
                    resource_wait: acq.wait,
                    io_wait: SimDuration::ZERO,
                    lock_wait: acq.wait,
                    io_queue: SimDuration::ZERO,
                    done_at: acq.start + system,
                }
            }
            Some(InvalidReason::ReleasePending) => {
                // The touch cancels the pending release (the releaser's
                // bit-vector check will see the re-reference).
                let acq = self.procs[pidx].lock.acquire(now, params.soft_fault_lock);
                let system = params.soft_fault;
                {
                    let e = self.procs[pidx].pt.entry(vpn);
                    e.release_requested = None;
                }
                self.validate_pte(pidx, vpn, now);
                self.tlb_touch(pidx, vpn);
                if let Some(pm) = self.procs[pidx].pm.as_mut() {
                    pm.shared.set_resident(vpn, true);
                }
                self.stats.proc_mut(pidx).soft_faults_release.bump();
                // A cancelled release wasted kernel work on both ends.
                self.quota.debit(pid.0, 1);
                self.note_page(now, pid.0, vpn.0, EventKind::ReleaseCancelled);
                self.refresh_shared(now, pid);
                TouchResult {
                    kind: TouchKind::SoftFaultRelease,
                    system,
                    resource_wait: acq.wait,
                    io_wait: SimDuration::ZERO,
                    lock_wait: acq.wait,
                    io_queue: SimDuration::ZERO,
                    done_at: acq.start + system,
                }
            }
            None => {
                // Resident, invalid, no recorded reason: treat as a daemon
                // sample for robustness (should not happen).
                debug_assert!(false, "resident invalid PTE with no reason");
                self.validate_pte(pidx, vpn, now);
                TouchResult::hit(now)
            }
        }
    }

    /// References `vpn` in process `pidx`'s TLB (installing it on a miss).
    fn tlb_touch(&mut self, pidx: usize, vpn: Vpn) -> bool {
        let p = &mut self.procs[pidx];
        p.tlb.touch(&mut p.pt, vpn)
    }

    /// Drops `vpn` from process `pidx`'s TLB if it is there.
    fn tlb_invalidate(&mut self, pidx: usize, vpn: Vpn) {
        let p = &mut self.procs[pidx];
        p.tlb.invalidate(&mut p.pt, vpn);
    }

    fn validate_pte(&mut self, pidx: usize, vpn: Vpn, now: SimTime) {
        let e = self.procs[pidx].pt.entry(vpn);
        e.valid = true;
        e.invalid_reason = None;
        e.clock_sampled = false;
        e.hw_referenced = true;
        e.last_ref = now;
    }

    fn try_rescue(&mut self, now: SimTime, pid: Pid, vpn: Vpn, write: bool) -> Option<TouchResult> {
        let pidx = pid.0 as usize;
        let pfn = self
            .free
            .rescue(&mut self.frames, &mut self.procs[..], pid, vpn)?;
        let params = self.params;
        let source = self.frames.get(pfn).source;
        let acq = self.procs[pidx].lock.acquire(now, params.rescue_lock);
        let system = params.rescue_fault;

        let frame_dirty = self.frames.get(pfn).dirty;
        {
            let frames = self.frames.get_mut(pfn);
            frames.owner = Some((pid, vpn));
        }
        self.procs[pidx].pt.map(vpn, pfn);
        {
            let e = self.procs[pidx].pt.entry(vpn);
            e.valid = true;
            e.invalid_reason = None;
            e.dirty = frame_dirty || write;
            e.last_ref = now;
            e.clock_sampled = false;
            e.hw_referenced = true;
            e.release_requested = None;
            e.materialized = true;
        }
        self.tlb_touch(pidx, vpn);
        if let Some(pm) = self.procs[pidx].pm.as_mut() {
            pm.shared.set_resident(vpn, true);
        }
        let stats = self.stats.proc_mut(pidx);
        stats.rescues.bump();
        self.quota.charge(pid.0);
        match source {
            FreeSource::Daemon => {
                self.stats.freed.rescued_daemon.bump();
                self.note_page(now, pid.0, vpn.0, EventKind::RescueDaemon);
            }
            FreeSource::Release => {
                // A rescued release wasted the releaser's work: the hint
                // named a page the tenant still needed.
                self.stats.freed.rescued_release.bump();
                self.quota.debit(pid.0, 1);
                self.note_page(now, pid.0, vpn.0, EventKind::RescueRelease);
            }
            _ => {}
        }
        self.update_peak_rss(pidx);
        self.refresh_shared(now, pid);
        Some(TouchResult {
            kind: TouchKind::Rescue(source),
            system,
            resource_wait: acq.wait,
            io_wait: SimDuration::ZERO,
            lock_wait: acq.wait,
            io_queue: SimDuration::ZERO,
            done_at: acq.start + system,
        })
    }

    fn zero_fill(
        &mut self,
        now: SimTime,
        pid: Pid,
        vpn: Vpn,
        write: bool,
    ) -> Result<TouchResult, VmError> {
        let pidx = pid.0 as usize;
        let params = self.params;
        let (pfn, mem_wait, t_alloc) = self.alloc_frame_forcing(now, pid)?;
        let acq = self.procs[pidx]
            .lock
            .acquire(t_alloc, params.soft_fault_lock);
        let system = params.zero_fill_fault;
        self.install_page(pidx, pid, vpn, pfn, now, write);
        self.stats.proc_mut(pidx).zero_fills.bump();
        self.note_page(now, pid.0, vpn.0, EventKind::ZeroFill);
        self.refresh_shared(now, pid);
        Ok(TouchResult {
            kind: TouchKind::ZeroFill,
            system,
            resource_wait: mem_wait + acq.wait,
            io_wait: SimDuration::ZERO,
            lock_wait: acq.wait,
            io_queue: SimDuration::ZERO,
            done_at: acq.start + system,
        })
    }

    fn hard_fault(
        &mut self,
        now: SimTime,
        pid: Pid,
        vpn: Vpn,
        write: bool,
    ) -> Result<TouchResult, VmError> {
        let pidx = pid.0 as usize;
        let params = self.params;
        let slot = self.try_slot_for(pid, vpn)?;

        let (pfn, mem_wait, t_alloc) = self.alloc_frame_forcing(now, pid)?;
        let acq = self.procs[pidx]
            .lock
            .acquire(t_alloc, params.hard_fault_lock);
        let t_setup_done = acq.start + params.hard_fault_setup;
        // The read cannot start before any writeback of the frame's prior
        // content has finished.
        let clean_at = self.frames.get(pfn).clean_at;
        let io_start = if clean_at > t_setup_done {
            clean_at
        } else {
            t_setup_done
        };
        let io_done = self.swap.submit(io_start, slot, IoKind::Read);
        let done_at = io_done + params.hard_fault_finish;

        self.install_page(pidx, pid, vpn, pfn, now, write);
        {
            let e = self.procs[pidx].pt.entry(vpn);
            e.swap_slot = Some(slot);
        }
        self.stats.proc_mut(pidx).hard_faults.bump();
        self.note_page(now, pid.0, vpn.0, EventKind::HardFault);
        self.refresh_shared(now, pid);
        let io_wait = io_done.since(t_setup_done);
        Ok(TouchResult {
            kind: TouchKind::HardFault,
            system: params.hard_fault_setup + params.hard_fault_finish,
            resource_wait: mem_wait + acq.wait,
            io_wait,
            lock_wait: acq.wait,
            // Everything past the disk's own positioning + transfer was
            // queueing: any writeback wait before the read could start,
            // plus FIFO/bus/retry/tail delays inside the device.
            io_queue: io_wait.saturating_sub(self.swap.last_service()),
            done_at,
        })
    }

    /// Maps `pfn` at `vpn` valid and referenced; common install path.
    fn install_page(
        &mut self,
        pidx: usize,
        pid: Pid,
        vpn: Vpn,
        pfn: Pfn,
        now: SimTime,
        write: bool,
    ) {
        {
            let f = self.frames.get_mut(pfn);
            f.owner = Some((pid, vpn));
            f.dirty = false;
        }
        self.procs[pidx].pt.map(vpn, pfn);
        {
            let e = self.procs[pidx].pt.entry(vpn);
            e.valid = true;
            e.invalid_reason = None;
            e.dirty = write;
            e.last_ref = now;
            e.clock_sampled = false;
            e.hw_referenced = true;
            e.release_requested = None;
            e.materialized = true;
        }
        self.tlb_touch(pidx, vpn);
        if let Some(pm) = self.procs[pidx].pm.as_mut() {
            pm.shared.set_resident(vpn, true);
        }
        self.stats.proc_mut(pidx).allocations.bump();
        self.quota.charge(pid.0);
        self.update_peak_rss(pidx);
    }

    fn update_peak_rss(&mut self, pidx: usize) {
        let rss = self.procs[pidx].pt.resident_pages();
        let s = self.stats.proc_mut(pidx);
        if rss > s.peak_rss {
            s.peak_rss = rss;
        }
    }

    /// The swap slot backing `(pid, vpn)`, assigning one if needed.
    ///
    /// # Panics
    ///
    /// Panics if the address is not in a mapped region.
    pub(crate) fn slot_for(&mut self, pid: Pid, vpn: Vpn) -> SwapSlot {
        self.try_slot_for(pid, vpn)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`VmSys::slot_for`].
    fn try_slot_for(&mut self, pid: Pid, vpn: Vpn) -> Result<SwapSlot, VmError> {
        let pidx = pid.0 as usize;
        if let Some(slot) = self.procs[pidx].pt.get(vpn).swap_slot {
            return Ok(slot);
        }
        let region = self
            .region_of(pid, vpn)
            .ok_or(VmError::UnmappedAddress { pid, vpn })?;
        let slot = match (region.backing, region.base_slot) {
            (Backing::SwapPrefilled, Some(base)) => SwapSlot(base.0 + region.range.offset_of(vpn)),
            _ => {
                let s = SwapSlot(self.next_swap_slot);
                self.next_swap_slot += 1;
                s
            }
        };
        self.procs[pidx].pt.entry(vpn).swap_slot = Some(slot);
        Ok(slot)
    }

    fn region_of(&self, pid: Pid, vpn: Vpn) -> Option<Region> {
        self.procs[pid.0 as usize]
            .regions
            .iter()
            .find(|r| r.range.contains(vpn))
            .cloned()
    }

    /// Allocates a frame, forcing paging-daemon activations inline if the
    /// free list is empty (the faulting process waits for the daemon).
    ///
    /// Returns `(frame, time stalled waiting for memory, allocation time)`,
    /// or [`VmError::OutOfMemory`] if repeated daemon activations cannot
    /// produce a free frame.
    fn alloc_frame_forcing(
        &mut self,
        now: SimTime,
        pid: Pid,
    ) -> Result<(Pfn, SimDuration, SimTime), VmError> {
        let mut t = now;
        let mut waited = SimDuration::ZERO;
        for _attempt in 0..64 {
            if let Some(pfn) = self.free.alloc(&mut self.frames, &mut self.procs[..]) {
                if (self.free.live() as u64) < self.tun.min_freemem {
                    self.pagingd.request_wake();
                }
                return Ok((pfn, waited, t));
            }
            // Out of frames: the faulting process sleeps while the paging
            // daemon reclaims.
            let end = self.pagingd_activation(t, true);
            if end > t {
                waited += end.since(t);
                t = end;
            } else {
                // The daemon found nothing steal-worthy this pass; let
                // simulated time advance so sampled pages age.
                let step = self.tun.daemon_period;
                waited += step;
                t += step;
            }
        }
        Err(VmError::OutOfMemory { pid })
    }

    // ------------------------------------------------------------------
    // PagingDirected operations.
    // ------------------------------------------------------------------

    /// Handles a prefetch request for `(pid, vpn)` arriving at `now`.
    ///
    /// Returns the outcome and the CPU cost charged to the calling thread
    /// (the run-time layer's prefetch pthread).
    pub fn prefetch(&mut self, now: SimTime, pid: Pid, vpn: Vpn) -> (PrefetchOutcome, SimDuration) {
        let pidx = pid.0 as usize;
        let cost = self.params.pm_prefetch_call;
        let resident = self.procs[pidx].pt.get_ref(vpn).is_some_and(Pte::resident);
        let stats = self.stats.proc_mut(pidx);
        stats.prefetch_requests.bump();

        if resident {
            self.stats.proc_mut(pidx).prefetch_redundant.bump();
            // Redundant prefetch: kernel work spent checking a page the
            // tenant already had. Debit its burst slack.
            self.quota.debit(pid.0, 1);
            self.note_page(now, pid.0, vpn.0, EventKind::PrefetchRedundant);
            return (PrefetchOutcome::AlreadyResident, cost);
        }

        // A page outside every mapped region has nothing to read in: no
        // frame, no swap slot, no quota charge or debit.
        if self.region_of(pid, vpn).is_none() {
            self.stats.proc_mut(pidx).prefetch_discarded.bump();
            self.note_page(now, pid.0, vpn.0, EventKind::PrefetchDiscarded);
            return (PrefetchOutcome::Discarded, cost);
        }

        // Quota gate: a tenant at or above its cap may not occupy more
        // frames asynchronously. Demand faults still succeed (the daemon
        // trims the tenant back afterwards), but prefetch — the cheap way
        // to graze the whole machine — stops at the contract line. Only
        // tenants with a registered quota are affected.
        if self.quota.quota(pid.0).is_some() && self.quota.charged(pid.0) >= self.quota.cap(pid.0) {
            self.stats.proc_mut(pidx).prefetch_quota_denied.bump();
            self.quota.debit(pid.0, 1);
            self.note_page(now, pid.0, vpn.0, EventKind::PrefetchQuotaDenied);
            self.refresh_shared(now, pid);
            return (PrefetchOutcome::Discarded, cost);
        }

        // A free-list rescue satisfies the prefetch without I/O.
        if self.tun.rescue_enabled {
            if let Some(pfn) = self
                .free
                .rescue(&mut self.frames, &mut self.procs[..], pid, vpn)
            {
                let source = self.frames.get(pfn).source;
                self.frames.get_mut(pfn).owner = Some((pid, vpn));
                self.install_prefetched(pidx, pid, vpn, pfn, now, now);
                match source {
                    FreeSource::Daemon => {
                        self.stats.freed.rescued_daemon.bump();
                        self.note_page(now, pid.0, vpn.0, EventKind::RescueDaemon);
                    }
                    FreeSource::Release => {
                        // Releasing a page and prefetching it right back
                        // wasted both hints' kernel work.
                        self.stats.freed.rescued_release.bump();
                        self.quota.debit(pid.0, 1);
                        self.note_page(now, pid.0, vpn.0, EventKind::RescueRelease);
                    }
                    _ => {}
                }
                self.stats.proc_mut(pidx).rescues.bump();
                self.note_page(now, pid.0, vpn.0, EventKind::PrefetchRescued);
                self.refresh_shared(now, pid);
                return (PrefetchOutcome::Rescued, cost);
            }
        }

        // "If there is no free memory, the request is discarded immediately":
        // prefetches never trigger stealing.
        if self.tun.prefetch_discard_when_low && (self.free.live() as u64) <= self.tun.min_freemem {
            self.stats.proc_mut(pidx).prefetch_discarded.bump();
            self.note_page(now, pid.0, vpn.0, EventKind::PrefetchDiscarded);
            self.refresh_shared(now, pid);
            return (PrefetchOutcome::Discarded, cost);
        }
        let Some(pfn) = self.free.alloc(&mut self.frames, &mut self.procs[..]) else {
            self.stats.proc_mut(pidx).prefetch_discarded.bump();
            self.note_page(now, pid.0, vpn.0, EventKind::PrefetchDiscarded);
            return (PrefetchOutcome::Discarded, cost);
        };
        if (self.free.live() as u64) < self.tun.min_freemem {
            self.pagingd.request_wake();
        }

        let slot = self.slot_for(pid, vpn);
        let clean_at = self.frames.get(pfn).clean_at;
        let io_start = if clean_at > now { clean_at } else { now };
        let arrives_at = self.swap.submit(io_start, slot, IoKind::Read);
        self.frames.get_mut(pfn).owner = Some((pid, vpn));
        self.install_prefetched(pidx, pid, vpn, pfn, now, arrives_at);
        self.note_page(now, pid.0, vpn.0, EventKind::PrefetchStarted);
        self.refresh_shared(now, pid);
        (PrefetchOutcome::Started { arrives_at }, cost)
    }

    /// Installs a prefetched page: resident but *not validated* and *not in
    /// the TLB* (the PM's two deliberate differences from a page fault).
    fn install_prefetched(
        &mut self,
        pidx: usize,
        pid: Pid,
        vpn: Vpn,
        pfn: Pfn,
        now: SimTime,
        arrives_at: SimTime,
    ) {
        {
            let f = self.frames.get_mut(pfn);
            f.owner = Some((pid, vpn));
            f.dirty = false;
        }
        self.procs[pidx].pt.map(vpn, pfn);
        {
            let e = self.procs[pidx].pt.entry(vpn);
            e.valid = false;
            e.invalid_reason = Some(InvalidReason::Prefetched);
            e.arrives_at = arrives_at;
            e.dirty = false;
            e.last_ref = now;
            e.clock_sampled = false;
            e.release_requested = None;
            e.materialized = true;
            if e.swap_slot.is_none() {
                // Keep the slot assignment for the eventual writeback.
                e.swap_slot = None;
            }
        }
        if let Some(pm) = self.procs[pidx].pm.as_mut() {
            pm.shared.set_resident(vpn, true);
        }
        self.stats.proc_mut(pidx).allocations.bump();
        self.quota.charge(pid.0);
        self.update_peak_rss(pidx);
    }

    /// Handles a release request for a batch of pages at `now`.
    ///
    /// The PM clears the shared-page bits, invalidates the PTEs (so a
    /// re-reference is observable), and enqueues the pages for the releaser
    /// daemon. Returns enqueue accounting; the caller charges
    /// [`CostParams::pm_release_call`] per batch to the issuing thread.
    pub fn release(&mut self, now: SimTime, pid: Pid, vpns: &[Vpn]) -> ReleaseEnqueue {
        if !self.releaser_alive {
            // Dead releaser: the request is lost before any PTE or bitmap
            // state changes. Pages stay resident and valid; the paging
            // daemon reclaims them reactively (stock behaviour).
            return ReleaseEnqueue::default();
        }
        let pidx = pid.0 as usize;
        let mut out = ReleaseEnqueue::default();
        for &vpn in vpns {
            let (releasable, in_flight) = match self.procs[pidx].pt.get_ref(vpn) {
                Some(e) if e.resident() && e.release_requested.is_none() => (
                    true,
                    e.invalid_reason == Some(InvalidReason::Prefetched) && e.arrives_at > now,
                ),
                _ => (false, false),
            };
            if !releasable {
                out.skipped_nonresident += 1;
                self.stats.releaser.skipped_nonresident.bump();
                self.note_page(now, pid.0, vpn.0, EventKind::ReleaseSkippedNonresident);
                continue;
            }
            // Releasing an in-flight prefetch would race its I/O; skip.
            if in_flight {
                out.skipped_nonresident += 1;
                self.stats.releaser.skipped_nonresident.bump();
                self.note_page(now, pid.0, vpn.0, EventKind::ReleaseSkippedNonresident);
                continue;
            }
            {
                let e = self.procs[pidx].pt.entry(vpn);
                e.valid = false;
                e.invalid_reason = Some(InvalidReason::ReleasePending);
                e.release_requested = Some(now);
            }
            self.tlb_invalidate(pidx, vpn);
            if let Some(pm) = self.procs[pidx].pm.as_mut() {
                pm.shared.set_resident(vpn, false);
            }
            self.releaser.enqueue(pid, vpn, now);
            self.stats.releaser.requests.bump();
            self.note_page(now, pid.0, vpn.0, EventKind::ReleaseAccepted);
            out.accepted += 1;
        }
        self.refresh_shared(now, pid);
        self.checked_sweep(now);
        out
    }

    /// Frees one resident page (shared by the daemons).
    ///
    /// Initiates writeback if dirty; the frame lands at the free-list tail,
    /// rescuable. Returns the writeback completion time, if any.
    pub(crate) fn free_page(
        &mut self,
        t: SimTime,
        pid: Pid,
        vpn: Vpn,
        source: FreeSource,
    ) -> Option<SimTime> {
        let pidx = pid.0 as usize;
        let dirty = self.procs[pidx].pt.get(vpn).dirty;
        let mut clean_at = None;
        let slot_for_wb = if dirty {
            Some(self.slot_for(pid, vpn))
        } else {
            None
        };
        let pfn = self.procs[pidx].pt.unmap(vpn);
        self.tlb_invalidate(pidx, vpn);
        if let Some(pm) = self.procs[pidx].pm.as_mut() {
            pm.shared.set_resident(vpn, false);
        }
        {
            let f = self.frames.get_mut(pfn);
            f.owner = Some((pid, vpn));
            f.source = source;
            if let Some(slot) = slot_for_wb {
                let done = self.swap.submit(t, slot, IoKind::Write);
                f.clean_at = done;
                f.dirty = false;
                clean_at = Some(done);
            } else {
                f.dirty = false;
            }
        }
        // The page's swap copy is now current; mark the PTE clean.
        self.procs[pidx].pt.entry(vpn).dirty = false;
        let rescuable = self.tun.rescue_enabled
            && (source != FreeSource::Release || self.tun.released_pages_rescuable);
        self.free
            .push_freed(&mut self.frames, &mut self.procs[..], pfn, rescuable);
        self.quota.uncharge(pid.0);
        match source {
            FreeSource::Daemon => {
                self.stats.freed.freed_by_daemon.bump();
                self.stats.proc_mut(pidx).pages_stolen.bump();
                self.note_page(t, pid.0, vpn.0, EventKind::FreedByDaemon);
            }
            FreeSource::Release => {
                self.stats.freed.freed_by_release.bump();
                self.stats.proc_mut(pidx).pages_released.bump();
                let p = &mut self.procs[pidx];
                if !p.released_listed {
                    p.released_listed = true;
                    self.released_pids.push(pid);
                }
                // The release did its job: a frame actually came back.
                self.quota.credit(pid.0, 1);
                self.note_page(t, pid.0, vpn.0, EventKind::FreedByRelease);
            }
            _ => {}
        }
        clean_at
    }

    // ------------------------------------------------------------------
    // Daemon driving (engine-facing).
    // ------------------------------------------------------------------

    /// Whether the paging daemon has work (low free memory, an over-limit
    /// process, or an explicit wake request).
    #[inline]
    pub fn pagingd_needed(&self) -> bool {
        (self.free.live() as u64) < self.tun.min_freemem
            || self.pagingd.wake_requested()
            || self.over_limit_pid().is_some()
    }

    /// The lowest-numbered process exceeding its cap (`maxrss`, tightened
    /// by any tenant quota), if any (the daemon trims it first). O(log n)
    /// in the number of processes: the quota ledger keeps the over-cap
    /// set current at every charge, uncharge, debit, credit and cap
    /// change.
    #[inline]
    pub fn over_limit_pid(&self) -> Option<Pid> {
        self.quota.first_over_cap().map(Pid)
    }

    /// Runs one paging-daemon activation at `now`; returns the next wake
    /// time if memory pressure persists.
    pub fn service_pagingd(&mut self, now: SimTime) -> Option<SimTime> {
        self.pagingd.clear_wake();
        if !((self.free.live() as u64) < self.tun.min_freemem || self.over_limit_pid().is_some()) {
            return None;
        }
        let end = self.pagingd_activation(now, false);
        if self.pagingd_needed() {
            let period = self.tun.daemon_period;
            Some(end.max(now) + period)
        } else {
            None
        }
    }

    /// Whether the releaser has queued work (always false while dead).
    #[inline]
    pub fn releaser_pending(&self) -> bool {
        self.releaser_alive && !self.releaser.is_empty()
    }

    /// Whether the releaser daemon is alive (crash injection can kill it).
    pub fn releaser_alive(&self) -> bool {
        self.releaser_alive
    }

    /// Marks the releaser daemon dead (crash) or back in service
    /// (restart). Killing it does not touch its queue; restart-time
    /// reconciliation ([`VmSys::reconcile_releaser`]) decides what
    /// survives.
    pub fn set_releaser_alive(&mut self, alive: bool) {
        self.releaser_alive = alive;
    }

    /// Reconciles releaser state after a supervised restart (or after the
    /// supervisor abandons the daemon): the queue the dead daemon held is
    /// dropped — its requests are stale — and every PTE still marked
    /// release-pending is revalidated, with its shared-bitmap bit
    /// re-derived from page-table residency. Returns `(orphaned queue
    /// entries dropped, bitmap bits fixed up)`.
    pub fn reconcile_releaser(&mut self, now: SimTime) -> (u64, u64) {
        let orphaned = self.releaser.clear() as u64;
        let mut fixups = 0u64;
        for pidx in 0..self.procs.len() {
            let stranded: Vec<Vpn> = self.procs[pidx]
                .pt
                .iter_resident()
                .filter(|(_, pte)| pte.invalid_reason == Some(InvalidReason::ReleasePending))
                .map(|(vpn, _)| vpn)
                .collect();
            if stranded.is_empty() {
                continue;
            }
            for vpn in stranded {
                self.procs[pidx].pt.entry(vpn).release_requested = None;
                self.validate_pte(pidx, vpn, now);
                if let Some(pm) = self.procs[pidx].pm.as_mut() {
                    if !pm.shared.is_resident(vpn) {
                        fixups += 1;
                    }
                    pm.shared.set_resident(vpn, true);
                }
            }
            self.refresh_shared(now, Pid(pidx as u32));
        }
        (orphaned, fixups)
    }

    /// Enables/disables the kernel-activity flight recorder.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Read access to the kernel-activity flight recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    // ------------------------------------------------------------------
    // Checked mode: invariant probes + lockstep oracle.
    // ------------------------------------------------------------------

    /// Enables checked mode: invariant probes fire at every daemon
    /// activation and release batch, and a fresh lockstep
    /// [`Oracle`] starts consuming the kernel event stream. Purely
    /// observational — a checked run's simulated outcome is bit-identical
    /// to an unchecked one. Call before any process is registered (the
    /// oracle models the machine from its pristine state).
    pub fn set_checked(&mut self, enabled: bool) {
        self.checked = enabled;
        if enabled {
            self.oracle = Some(Oracle::new(self.frames.len() as u64));
            self.checked_hand = Some(self.pagingd.hand());
        } else {
            self.oracle = None;
            self.checked_hand = None;
            self.checked_shadow.clear();
        }
    }

    /// Whether checked mode is enabled.
    pub fn checked(&self) -> bool {
        self.checked
    }

    /// Records a page-attributed kernel event; in checked mode the same
    /// event feeds the lockstep oracle's residency model.
    pub(crate) fn note_page(&mut self, at: SimTime, pid: u32, vpn: u64, kind: EventKind) {
        if self.checked && !self.oracle_mute {
            if let Some(o) = self.oracle.as_mut() {
                o.apply_page(pid, vpn, &kind);
            }
        }
        self.obs.emit_page(at, pid, vpn, kind);
    }

    /// Records a kernel event with no page attribution; in checked mode
    /// the oracle tracks the clock hand from the paging daemon's scans.
    pub(crate) fn note(&mut self, at: SimTime, kind: EventKind) {
        if self.checked {
            if let Some(o) = self.oracle.as_mut() {
                o.apply(&kind);
            }
        }
        self.obs.emit(at, kind);
    }

    /// Remembers where the clock hand parked at the end of an activation
    /// (the monotonicity probe asserts nothing else moves it).
    pub(crate) fn checked_park_hand(&mut self) {
        if self.checked {
            self.checked_hand = Some(self.pagingd.hand());
        }
    }

    /// Raises a checked-mode violation with this subsystem's
    /// flight-recorder tail attached.
    pub(crate) fn checked_fail(&self, at: SimTime, invariant: &'static str, detail: String) -> ! {
        InvariantViolation {
            at,
            subsystem: "vm",
            invariant,
            detail,
            tail: self.obs.dump_tail(16),
        }
        .raise()
    }

    /// Runs every whole-system invariant probe: clock-hand position,
    /// frame conservation, per-process page-table ⇄ frame ⇄ bitmap ⇄
    /// Eq. 1 agreement, and — when a lockstep diff is due — the oracle's
    /// residency and clock models. One branch when checked mode is off.
    pub(crate) fn checked_sweep(&mut self, now: SimTime) {
        if !self.checked {
            return;
        }
        if let Some(hand) = self.checked_hand {
            let live = self.pagingd.hand();
            if hand != live {
                self.checked_fail(
                    now,
                    "clock_hand_monotonic",
                    format!(
                        "clock hand moved outside an activation: parked at {hand}, live {live}"
                    ),
                );
            }
        }
        let free = self.free.live();
        let allocated = self.frames.allocated_count();
        let total = self.frames.len();
        if free + allocated != total {
            self.checked_fail(
                now,
                "frame_conservation",
                format!("free {free} + allocated {allocated} != total {total}"),
            );
        }
        for pidx in 0..self.procs.len() {
            self.checked_sweep_proc(now, pidx);
        }
        // Every rescuable free frame is linked from its page (the
        // converse of the per-process link check above).
        for (pfn, f) in self.frames.iter() {
            let Some((pid, vpn)) = f.owner.filter(|_| f.on_free_list) else {
                continue;
            };
            let link = self.procs[pid.0 as usize]
                .pt
                .get_ref(vpn)
                .and_then(|e| e.rescue);
            if link != Some(pfn) {
                self.checked_fail(
                    now,
                    "rescue_link",
                    format!(
                        "free frame {} holds pid {} vpn {} but the page links {link:?}",
                        pfn.0, pid.0, vpn.0
                    ),
                );
            }
        }
        // The quota ledger's incremental over-cap set and above-guarantee
        // count, recomputed naively from the page tables. After the
        // per-process loop, so a corrupted resident count is reported as
        // such rather than as the index disagreeing with it.
        let over: Vec<u32> = (0..self.procs.len() as u32)
            .filter(|&pid| self.rss(Pid(pid)) > self.quota.cap(pid))
            .collect();
        if !self.quota.over_cap_pids().eq(over.iter().copied()) {
            self.checked_fail(
                now,
                "over_cap_index",
                format!(
                    "over-cap index {:?} != page-table recount {over:?}",
                    self.quota.over_cap_pids().collect::<Vec<_>>()
                ),
            );
        }
        let above = (0..self.procs.len() as u32)
            .filter(|&pid| self.rss(Pid(pid)) > self.quota.guaranteed(pid))
            .count();
        if self.quota.above_guarantee_count() != above {
            self.checked_fail(
                now,
                "shield_count",
                format!(
                    "above-guarantee count {} != page-table recount {above}",
                    self.quota.above_guarantee_count()
                ),
            );
        }
        if self.oracle.is_some() {
            self.checked_diff_oracle(now);
        }
    }

    /// Per-process probes of one sweep (see [`VmSys::checked_sweep`]).
    fn checked_sweep_proc(&self, now: SimTime, pidx: usize) {
        let p = &self.procs[pidx];
        let cached = p.pt.resident_pages();
        let recount = p.pt.iter_resident().count() as u64;
        if cached != recount {
            self.checked_fail(
                now,
                "eq1_usage_recount",
                format!(
                    "pid {pidx}: cached resident count {cached} != page-table recount {recount}"
                ),
            );
        }
        let charged = self.quota.charged(pidx as u32);
        if charged != recount {
            self.checked_fail(
                now,
                "quota_conservation",
                format!(
                    "pid {pidx}: quota ledger charges {charged} frames but page-table recount is {recount}"
                ),
            );
        }
        let mut bits_implied = 0;
        for (vpn, pte) in p.pt.iter_resident() {
            if let Some(pfn) = pte.pfn {
                let f = self.frames.get(pfn);
                if f.on_free_list {
                    self.checked_fail(
                        now,
                        "frame_ownership",
                        format!(
                            "pid {pidx} vpn {} maps frame {} that sits on the free list",
                            vpn.0, pfn.0
                        ),
                    );
                }
                if f.owner != Some((Pid(pidx as u32), vpn)) {
                    self.checked_fail(
                        now,
                        "frame_ownership",
                        format!(
                            "pid {pidx} vpn {} maps frame {} owned by {:?}",
                            vpn.0, pfn.0, f.owner
                        ),
                    );
                }
            }
            if let Some(pm) = p.pm.as_ref() {
                if pm.shared.covers(vpn) {
                    let want = pte.release_requested.is_none();
                    bits_implied += usize::from(want);
                    if pm.shared.is_resident(vpn) != want {
                        self.checked_fail(
                            now,
                            "bitmap_agreement",
                            format!(
                                "pid {pidx} vpn {}: bitmap bit {} but page table implies {}",
                                vpn.0,
                                pm.shared.is_resident(vpn),
                                want
                            ),
                        );
                    }
                }
            }
        }
        self.checked_tlb_and_links(now, pidx);
        if let Some(pm) = p.pm.as_ref() {
            // The loop above checked every resident page's bit; a set bit
            // on a non-resident page shows up as a surplus here.
            let bits_set = pm.shared.resident_count();
            if bits_set != bits_implied {
                self.checked_fail(
                    now,
                    "bitmap_agreement",
                    format!(
                        "pid {pidx}: {bits_set} bitmap bits set but the page table implies {bits_implied}"
                    ),
                );
            }
            if let Some(&(u, l)) = self.checked_shadow.get(&(pidx as u32)) {
                if (pm.shared.usage_word, pm.shared.limit_word) != (u, l) {
                    self.checked_fail(
                        now,
                        "eq1_accounting",
                        format!(
                            "pid {pidx}: shared words ({}, {}) diverged from the last refresh ({u}, {l})",
                            pm.shared.usage_word, pm.shared.limit_word
                        ),
                    );
                }
            }
        }
    }

    /// The incremental per-page state of one process, recomputed from the
    /// page table: the TLB ring holds exactly the pages whose TLB bit is
    /// set, and every rescue link names a free-listed frame that still
    /// holds that page.
    fn checked_tlb_and_links(&self, now: SimTime, pidx: usize) {
        let p = &self.procs[pidx];
        let ring = p.tlb.entries();
        if let Some(&vpn) = ring
            .iter()
            .find(|&&v| !p.pt.get_ref(v).is_some_and(|e| e.in_tlb))
        {
            self.checked_fail(
                now,
                "tlb_ring_agreement",
                format!(
                    "pid {pidx}: TLB ring holds vpn {} whose TLB bit is clear",
                    vpn.0
                ),
            );
        }
        let bits = p.pt.iter().filter(|(_, e)| e.in_tlb).count();
        if bits != ring.len() {
            self.checked_fail(
                now,
                "tlb_ring_agreement",
                format!(
                    "pid {pidx}: {bits} TLB bits set but the ring holds {} entries",
                    ring.len()
                ),
            );
        }
        for (vpn, e) in p.pt.iter() {
            let Some(pfn) = e.rescue else {
                continue;
            };
            let f = self.frames.get(pfn);
            if !f.on_free_list || f.owner != Some((Pid(pidx as u32), vpn)) {
                self.checked_fail(
                    now,
                    "rescue_link",
                    format!(
                        "pid {pidx} vpn {} links frame {} (free-listed {}, owner {:?})",
                        vpn.0, pfn.0, f.on_free_list, f.owner
                    ),
                );
            }
        }
    }

    /// Diffs the live state against the lockstep oracle.
    fn checked_diff_oracle(&self, now: SimTime) {
        let Some(o) = self.oracle.as_ref() else {
            return;
        };
        for pidx in 0..self.procs.len() {
            let live = self.procs[pidx].pt.resident_pages();
            let model = o.resident_count(pidx as u32);
            if live != model {
                self.checked_fail(
                    now,
                    "oracle_residency",
                    format!("pid {pidx}: live resident pages {live} != oracle model {model}"),
                );
            }
        }
        let live_free = self.free.live() as u64;
        if o.free_frames() != live_free {
            self.checked_fail(
                now,
                "oracle_residency",
                format!(
                    "oracle free-frame model {} != live free list {live_free}",
                    o.free_frames()
                ),
            );
        }
        let live_hand = self.pagingd.hand() as u64;
        if o.hand() != live_hand {
            self.checked_fail(
                now,
                "oracle_clock",
                format!(
                    "oracle clock-hand model {} != live hand {live_hand}",
                    o.hand()
                ),
            );
        }
    }

    /// Applies a VM-targeted seeded state corruption (the sanitizer
    /// self-test matrix; see [`Mutation`]). `pid` is the process whose
    /// state gets corrupted. Mutations targeting other subsystems are
    /// ignored here. Test plumbing only — no production path calls this.
    pub fn apply_mutation(&mut self, now: SimTime, m: Mutation, pid: Pid) {
        let pidx = pid.0 as usize;
        match m {
            Mutation::FlipBitmapBit => {
                let p = &self.procs[pidx];
                let target =
                    p.pt.iter_resident()
                        .filter(|(_, pte)| pte.release_requested.is_none())
                        .map(|(v, _)| v)
                        .find(|&v| p.pm.as_ref().is_some_and(|pm| pm.shared.covers(v)));
                if let (Some(vpn), Some(pm)) = (target, self.procs[pidx].pm.as_mut()) {
                    let bit = pm.shared.is_resident(vpn);
                    pm.shared.set_resident(vpn, !bit);
                }
            }
            Mutation::TamperUsageWord => {
                if let Some(pm) = self.procs[pidx].pm.as_mut() {
                    pm.shared.usage_word = pm.shared.usage_word.wrapping_add(7);
                }
            }
            Mutation::TamperLimitWord => {
                if let Some(pm) = self.procs[pidx].pm.as_mut() {
                    pm.shared.limit_word = pm.shared.limit_word.wrapping_add(7);
                }
            }
            Mutation::SkipUsageDecrement => {
                self.procs[pidx].pt.corrupt_resident_count();
            }
            Mutation::LeakFrame => {
                self.free.corrupt_leak_frame(&self.frames);
            }
            Mutation::DoubleFreeFrame => {
                let target = self.procs[pidx].pt.iter_resident().next();
                if let Some(pfn) = target.and_then(|(_, pte)| pte.pfn) {
                    self.free
                        .push_freed(&mut self.frames, &mut self.procs[..], pfn, false);
                }
            }
            Mutation::WarpClockHand => {
                self.pagingd.corrupt_warp_hand(self.frames.len());
            }
            Mutation::ReleaseInflightPrefetch => {
                let target = self.procs[pidx]
                    .pt
                    .iter_resident()
                    .find(|(_, pte)| pte.release_requested.is_none())
                    .map(|(v, _)| v);
                if let Some(vpn) = target {
                    {
                        let e = self.procs[pidx].pt.entry(vpn);
                        e.valid = false;
                        e.invalid_reason = Some(InvalidReason::Prefetched);
                        e.arrives_at = now + SimDuration::from_secs(1000);
                        e.release_requested = Some(now);
                        e.last_ref = SimTime::ZERO;
                    }
                    // Keep the bitmap consistent so only the in-flight
                    // probe (not bitmap_agreement) can fire.
                    if let Some(pm) = self.procs[pidx].pm.as_mut() {
                        pm.shared.set_resident(vpn, false);
                    }
                    self.releaser.enqueue(pid, vpn, now);
                }
            }
            Mutation::StaleOverCapIndex => {
                self.quota.corrupt_over_cap_index(pid.0);
            }
            Mutation::DropTlbInvalidation => {
                let p = &mut self.procs[pidx];
                p.tlb.corrupt_drop_invalidation(&mut p.pt);
            }
            Mutation::StaleRescueLink => {
                // A guard-gap page the process never touches, linked to a
                // frame that does not hold it.
                let p = &mut self.procs[pidx];
                if let Some(gap) = p.regions.first().map(|r| r.range.end()) {
                    p.pt.entry(gap).rescue = Some(Pfn(0));
                }
            }
            Mutation::DropReleasedPid => {
                // The process stays marked as listed, so none of its
                // later releases is listed either.
                self.released_pids.retain(|&p| p != pid);
                self.procs[pidx].released_listed = true;
            }
            Mutation::StealthFree => {
                let target = self.procs[pidx]
                    .pt
                    .iter_resident()
                    .find(|(_, pte)| pte.release_requested.is_none())
                    .map(|(v, _)| v);
                if let Some(vpn) = target {
                    self.oracle_mute = true;
                    self.free_page(now, pid, vpn, FreeSource::Daemon);
                    self.oracle_mute = false;
                }
            }
            // Runtime- and disk-targeted mutations are applied by their
            // own subsystems.
            Mutation::ReorderReleaseQueue
            | Mutation::FilterPassthrough
            | Mutation::DoubleCompleteIo
            | Mutation::BustRetryBudget => {}
        }
    }

    /// Tears down a finished process: every resident page returns to the
    /// free list (not rescuable — the address space is gone), pending
    /// reactive candidates are dropped. RSS becomes zero.
    pub fn exit_process(&mut self, now: SimTime, pid: Pid) {
        let pidx = pid.0 as usize;
        let vpns: Vec<Vpn> = self.procs[pidx]
            .pt
            .iter_resident()
            .map(|(vpn, _)| vpn)
            .collect();
        for vpn in vpns {
            let pfn = self.procs[pidx].pt.unmap(vpn);
            self.tlb_invalidate(pidx, vpn);
            if let Some(pm) = self.procs[pidx].pm.as_mut() {
                pm.shared.set_resident(vpn, false);
            }
            {
                let f = self.frames.get_mut(pfn);
                f.owner = None;
                f.dirty = false;
                f.source = FreeSource::Unmap;
            }
            self.free
                .push_freed(&mut self.frames, &mut self.procs[..], pfn, false);
            self.quota.uncharge(pid.0);
        }
        self.reactive.remove(&pid);
        if let Some(o) = self.oracle.as_mut() {
            o.exit(pid.0);
        }
        self.checked_sweep(now);
    }

    /// Registers pages the application is willing to surrender when the OS
    /// reclaims from it (the reactive alternative of §2.2: "the OS notifies
    /// the application when one or more of its pages is about to be
    /// reclaimed; the application can then implement its own replacement
    /// policy by telling the system which pages to take").
    pub fn offer_eviction_candidates(&mut self, pid: Pid, vpns: &[Vpn]) {
        let q = self.reactive.entry(pid).or_default();
        q.extend(vpns.iter().copied());
    }

    /// Whether `(pid, vpn)` is resident — inspection hook for invariant
    /// tests.
    pub fn page_resident_for_test(&self, pid: Pid, vpn: Vpn) -> bool {
        self.procs[pid.0 as usize].pt.get(vpn).resident()
    }

    /// Whether `(pid, vpn)` has a release request pending — inspection hook
    /// for invariant tests.
    pub fn release_pending_for_test(&self, pid: Pid, vpn: Vpn) -> bool {
        self.procs[pid.0 as usize]
            .pt
            .get(vpn)
            .release_requested
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TouchKind;

    fn small_vm() -> VmSys {
        let mut tun = Tunables::for_memory(64);
        tun.min_freemem = 4;
        tun.target_freemem = 8;
        VmSys::new(64, tun, CostParams::default(), SwapConfig::test_array())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn try_touch_reports_unmapped_addresses() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 8, Backing::ZeroFill, false);
        let bogus = r.start.offset(1_000_000);
        assert_eq!(
            vm.try_touch(t(1), pid, bogus, false).unwrap_err(),
            VmError::UnmappedAddress { pid, vpn: bogus }
        );
        assert!(vm.try_touch(t(1), pid, r.start, false).is_ok());
    }

    #[test]
    fn prefetch_of_unmapped_page_is_discarded_without_side_effects() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        // A zero cap would make the quota gate debit a mapped prefetch.
        vm.set_tenant_quota(pid, TenantQuota::new(0, 0));
        let free = vm.free_pages();
        for bogus in [r.start.offset(8), r.start.offset(1_000_000), Vpn(1)] {
            let (outcome, _) = vm.prefetch(t(1), pid, bogus);
            assert_eq!(outcome, PrefetchOutcome::Discarded);
        }
        assert_eq!(vm.free_pages(), free, "no frame allocated");
        assert_eq!(vm.rss(pid), 0);
        assert_eq!(vm.quotas().debt(pid.0), 0, "quota ledger untouched");
        assert_eq!(vm.stats().proc(pid.0 as usize).prefetch_discarded.get(), 3);
        assert!(!vm.page_resident_for_test(pid, r.start.offset(8)));
    }

    #[test]
    fn reserved_processes_are_added_without_regrowing_tables() {
        let mut vm = small_vm();
        vm.reserve_processes(37);
        let caps = |vm: &VmSys| {
            (
                vm.procs.capacity(),
                vm.stats.procs.capacity(),
                vm.quota.capacity(),
            )
        };
        let before = caps(&vm);
        assert!(before.0 >= 37 && before.1 >= 37 && before.2 >= 37);
        for _ in 0..37 {
            vm.add_process(false);
        }
        assert_eq!(caps(&vm), before);
    }

    #[test]
    #[should_panic(expected = "touched unmapped address")]
    fn touch_unmapped_panics() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        vm.touch(t(1), pid, Vpn(u64::MAX), false);
    }

    #[test]
    fn zero_fill_then_hit() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 8, Backing::ZeroFill, false);
        let first = vm.touch(t(1), pid, r.start, false);
        assert_eq!(first.kind, TouchKind::ZeroFill);
        assert!(first.done_at > t(1));
        let second = vm.touch(first.done_at, pid, r.start, false);
        assert_eq!(second.kind, TouchKind::Hit);
        assert_eq!(vm.rss(pid), 1);
    }

    #[test]
    fn swap_prefilled_first_touch_is_hard_fault() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, false);
        let res = vm.touch(t(1), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::HardFault);
        assert!(res.io_wait > SimDuration::ZERO);
        assert_eq!(vm.stats().proc(pid.0 as usize).hard_faults.get(), 1);
    }

    #[test]
    fn tlb_miss_costs_refill() {
        // Big enough that 66 touches cause no memory pressure.
        let mut vm = VmSys::new(
            256,
            Tunables::for_memory(256),
            CostParams::default(),
            SwapConfig::test_array(),
        );
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 70, Backing::ZeroFill, false);
        // Touch 66 distinct pages to overflow the 64-entry TLB, then
        // re-touch the first: resident + valid but TLB-evicted.
        let mut now = t(1);
        for i in 0..66 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let res = vm.touch(now, pid, r.start, false);
        assert_eq!(res.kind, TouchKind::TlbMiss);
        assert_eq!(res.system, vm.cost_params().tlb_refill);
    }

    #[test]
    fn prefetch_then_touch_validates() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let (out, _) = vm.prefetch(t(1), pid, r.start);
        let arrives = match out {
            PrefetchOutcome::Started { arrives_at } => arrives_at,
            other => panic!("expected Started, got {other:?}"),
        };
        assert!(vm.pm_resident(pid, r.start), "bitmap set at request time");
        // Touch long after arrival: validation only, no I/O stall.
        let res = vm.touch(arrives + SimDuration::from_secs(1), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::PrefetchValidate);
        assert_eq!(res.io_wait, SimDuration::ZERO);
    }

    #[test]
    fn touch_before_prefetch_arrival_stalls() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let (out, _) = vm.prefetch(t(1), pid, r.start);
        let arrives = match out {
            PrefetchOutcome::Started { arrives_at } => arrives_at,
            other => panic!("unexpected {other:?}"),
        };
        let res = vm.touch(t(1), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::PrefetchValidate);
        assert_eq!(res.io_wait, arrives.since(t(1)));
    }

    #[test]
    fn prefetch_discarded_when_memory_low() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 64, Backing::SwapPrefilled, true);
        // Consume frames until free <= min_freemem.
        let mut now = t(1);
        let mut i = 0;
        while vm.free_pages() > vm.tunables().min_freemem {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
            i += 1;
        }
        let (out, _) = vm.prefetch(now, pid, r.start.offset(i + 1));
        assert_eq!(out, PrefetchOutcome::Discarded);
        assert!(vm.stats().proc(pid.0 as usize).prefetch_discarded.get() >= 1);
    }

    #[test]
    fn redundant_prefetch_detected() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let done = vm.touch(t(1), pid, r.start, false).done_at;
        let (out, _) = vm.prefetch(done, pid, r.start);
        assert_eq!(out, PrefetchOutcome::AlreadyResident);
    }

    #[test]
    fn release_invalidates_and_enqueues() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let done = vm.touch(t(1), pid, r.start, false).done_at;
        let enq = vm.release(done, pid, &[r.start]);
        assert_eq!(enq.accepted, 1);
        assert!(!vm.pm_resident(pid, r.start), "bit cleared at request time");
        assert!(vm.releaser_pending());
        // A touch before the releaser runs cancels the release.
        let res = vm.touch(done + SimDuration::from_micros(10), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::SoftFaultRelease);
        assert!(vm.pm_resident(pid, r.start), "bit restored by re-reference");
    }

    #[test]
    fn release_of_nonresident_is_skipped() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let enq = vm.release(t(1), pid, &[r.start]);
        assert_eq!(enq.accepted, 0);
        assert_eq!(enq.skipped_nonresident, 1);
    }

    #[test]
    fn shared_view_is_lazy() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        // Before any activity the words are zero.
        let v0 = vm.shared_view(pid).unwrap();
        assert_eq!(v0.usage, 0);
        let done = vm.touch(t(1), pid, r.start, false).done_at;
        let v1 = vm.shared_view(pid).unwrap();
        assert_eq!(v1.usage, 1);
        assert!(v1.limit > 0);
        let _ = done;
    }

    #[test]
    fn eq1_limit_reflects_free_memory() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        vm.touch(t(1), pid, r.start, false);
        let v = vm.shared_view(pid).unwrap();
        // usage + free - min_freemem, capped by maxrss.
        let expect = (1 + vm.free_pages() - vm.tunables().min_freemem).min(vm.tunables().maxrss);
        assert_eq!(v.limit, expect);
    }

    #[test]
    fn forced_reclaim_when_out_of_memory() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 200, Backing::SwapPrefilled, false);
        // Touch more pages than exist: the daemon must reclaim inline.
        let mut now = t(1);
        for i in 0..100 {
            let res = vm.touch(now, pid, r.start.offset(i), false);
            now = res.done_at;
        }
        assert_eq!(vm.rss(pid) + vm.free_pages(), 64, "frames conserved");
        assert!(vm.stats().pagingd.pages_stolen.get() > 0);
        assert!(vm.stats().pagingd.activations.get() > 0);
    }

    #[test]
    fn write_marks_dirty_and_evict_writes_back() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 200, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..100 {
            let res = vm.touch(now, pid, r.start.offset(i), true);
            now = res.done_at;
        }
        assert!(
            vm.swap().stats().page_writes.get() > 0,
            "dirty steals must write back"
        );
    }

    #[test]
    fn recorder_captures_daemon_activity() {
        let mut vm = small_vm();
        vm.set_trace_enabled(true);
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 64, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..62 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        assert!(vm.pagingd_needed(), "62 of 64 frames used");
        vm.service_pagingd(now);
        vm.release(now, pid, &[r.start, r.start.offset(1)]);
        vm.service_releaser(now + SimDuration::from_millis(1));
        let rec = vm.recorder();
        assert!(rec.count("pagingd_scan") >= 1, "counts: {:?}", rec.counts());
        assert_eq!(rec.count("releaser_batch"), 1, "counts: {:?}", rec.counts());
        assert_eq!(rec.count("hard_fault"), 62);
        assert_eq!(rec.count("release_accepted"), 2);
        assert_eq!(
            rec.count("freed_by_release"),
            vm.stats().releaser.pages_released.get()
        );
        assert_eq!(
            rec.count("freed_by_daemon"),
            vm.stats().freed.freed_by_daemon.get()
        );
    }

    #[test]
    fn disabled_recorder_stays_empty_and_changes_nothing() {
        let run = |observed: bool| {
            let mut vm = small_vm();
            vm.set_trace_enabled(observed);
            let pid = vm.add_process(true);
            let r = vm.map_region(pid, 64, Backing::SwapPrefilled, true);
            let mut now = t(1);
            for i in 0..62 {
                now = vm.touch(now, pid, r.start.offset(i), false).done_at;
            }
            vm.service_pagingd(now);
            vm.release(now, pid, &[r.start]);
            let end = vm.service_releaser(now + SimDuration::from_millis(1));
            (
                end,
                vm.free_pages(),
                vm.stats().freed.freed_by_daemon.get(),
                vm.recorder().total(),
            )
        };
        let (end_a, free_a, daemon_a, total_a) = run(false);
        let (end_b, free_b, daemon_b, total_b) = run(true);
        assert_eq!(total_a, 0, "disabled recorder records nothing");
        assert!(total_b > 0);
        // Observation must not perturb the simulation.
        assert_eq!(end_a, end_b);
        assert_eq!(free_a, free_b);
        assert_eq!(daemon_a, daemon_b);
    }

    #[test]
    fn exit_process_returns_all_frames() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 32, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..20 {
            now = vm.touch(now, pid, r.start.offset(i), true).done_at;
        }
        assert_eq!(vm.rss(pid), 20);
        vm.exit_process(now, pid);
        assert_eq!(vm.rss(pid), 0);
        assert_eq!(vm.free_pages(), 64);
        // Exited pages are not rescuable: a (hypothetical) re-touch would
        // hard-fault, not rescue.
        let res = vm.touch(now + SimDuration::from_millis(1), pid, r.start, false);
        assert_eq!(res.kind, TouchKind::HardFault);
    }

    #[test]
    fn release_of_inflight_prefetch_is_skipped() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let (out, _) = vm.prefetch(t(1), pid, r.start);
        assert!(matches!(out, PrefetchOutcome::Started { .. }));
        // Release while the I/O is still in flight: refused.
        let enq = vm.release(t(1), pid, &[r.start]);
        assert_eq!(enq.accepted, 0);
        assert_eq!(enq.skipped_nonresident, 1);
    }

    #[test]
    fn double_release_of_same_page_is_idempotent() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let done = vm.touch(t(1), pid, r.start, false).done_at;
        let first = vm.release(done, pid, &[r.start]);
        assert_eq!(first.accepted, 1);
        let second = vm.release(done + SimDuration::from_micros(1), pid, &[r.start]);
        assert_eq!(second.accepted, 0, "already pending");
        vm.service_releaser(done + SimDuration::from_millis(1));
        assert_eq!(vm.stats().releaser.pages_released.get(), 1);
        assert_eq!(vm.rss(pid), 0);
    }

    #[test]
    fn prefetch_rescues_from_free_list() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let done = vm.touch(t(1), pid, r.start, false).done_at;
        vm.release(done, pid, &[r.start]);
        vm.service_releaser(done + SimDuration::from_micros(500));
        assert_eq!(vm.rss(pid), 0);
        // A later prefetch finds the frame still on the free list: no I/O.
        let reads_before = vm.swap().stats().page_reads.get();
        let (out, _) = vm.prefetch(t(100), pid, r.start);
        assert_eq!(out, PrefetchOutcome::Rescued);
        assert_eq!(vm.swap().stats().page_reads.get(), reads_before);
        assert!(vm.pm_resident(pid, r.start));
    }

    #[test]
    fn zero_fill_page_written_then_stolen_hard_faults_back() {
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 200, Backing::ZeroFill, false);
        // Write page 0 so it has content, then flood memory to evict it.
        let mut now = vm.touch(t(1), pid, r.start, true).done_at;
        for i in 1..120 {
            now = vm.touch(now, pid, r.start.offset(i), true).done_at;
        }
        // Run the daemon until page 0 is gone (two passes after sampling).
        for _ in 0..8 {
            now = vm.pagingd_activation(now, false).max(now) + SimDuration::from_millis(1);
        }
        let res = vm.touch(now + SimDuration::from_secs(1), pid, r.start, false);
        assert!(
            matches!(res.kind, TouchKind::HardFault | TouchKind::Rescue(_)),
            "dirty zero-fill content must come back from swap or rescue, got {:?}",
            res.kind
        );
        if res.kind == TouchKind::HardFault {
            assert!(
                vm.swap().stats().page_writes.get() > 0,
                "writeback happened"
            );
        }
    }

    #[test]
    fn lock_contention_inflates_fault_time() {
        // Arrange a daemon activation, then fault immediately: the fault
        // must wait for the daemon's lock hold.
        let mut vm = small_vm();
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 200, Backing::SwapPrefilled, false);
        let mut now = t(1);
        for i in 0..61 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        assert!(vm.pagingd_needed(), "free = 3 < min_freemem = 4");
        // Daemon activates "now" and holds the AS lock into the future.
        vm.pagingd_activation(now, false);
        let res = vm.touch(now, pid, r.start.offset(61), false);
        assert!(
            res.resource_wait > SimDuration::ZERO,
            "fault during the daemon's lock hold must wait"
        );
    }

    #[test]
    fn dead_releaser_drops_requests_and_reconcile_restores_state() {
        let mut vm = small_vm();
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..4 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        // One release enqueued while alive, then the daemon dies.
        let enq = vm.release(now, pid, &[r.start]);
        assert_eq!(enq.accepted, 1);
        vm.set_releaser_alive(false);
        assert!(!vm.releaser_pending(), "dead daemon reports no work");
        // Requests made while dead are lost before any state changes.
        let lost = vm.release(now, pid, &[r.start.offset(1)]);
        assert_eq!(lost.accepted, 0);
        assert!(vm.page_resident_for_test(pid, r.start.offset(1)));
        assert!(vm.pm_resident(pid, r.start.offset(1)), "bit untouched");
        // Reconcile on restart: the orphaned queue entry is dropped and
        // the stranded release-pending page is revalidated, bitmap fixed.
        assert!(!vm.pm_resident(pid, r.start), "bit cleared pre-crash");
        let (orphaned, fixups) = vm.reconcile_releaser(now + SimDuration::from_millis(1));
        vm.set_releaser_alive(true);
        assert_eq!(orphaned, 1);
        assert_eq!(fixups, 1);
        assert!(vm.pm_resident(pid, r.start), "bitmap re-derived");
        assert!(!vm.release_pending_for_test(pid, r.start));
        assert!(!vm.releaser_pending());
        // The revalidated page hits normally again.
        let res = vm.touch(now + SimDuration::from_millis(2), pid, r.start, false);
        assert!(matches!(res.kind, TouchKind::Hit | TouchKind::TlbMiss));
    }

    #[test]
    fn frames_conserved_under_mixed_load() {
        let mut vm = small_vm();
        let a = vm.add_process(true);
        let b = vm.add_process(false);
        let ra = vm.map_region(a, 100, Backing::SwapPrefilled, true);
        let rb = vm.map_region(b, 100, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..60 {
            now = vm.touch(now, a, ra.start.offset(i), false).done_at;
            now = vm.touch(now, b, rb.start.offset(i), true).done_at;
            if i % 10 == 0 {
                vm.release(now, a, &[ra.start.offset(i)]);
            }
        }
        let allocated = vm.rss(a) + vm.rss(b);
        assert_eq!(allocated + vm.free_pages(), 64);
    }
}
