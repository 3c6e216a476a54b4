//! The paging daemon ("vhand").
//!
//! IRIX's global replacement daemon, as the paper describes it:
//!
//! > "a variant of a clock algorithm is used, in which pages can be
//! > reclaimed if they have not been referenced for a number of passes of
//! > the clock hand. Since the MIPS TLB does not have reference bits,
//! > reference information must be simulated in software using the valid
//! > bit instead. As free memory becomes low, pages are periodically marked
//! > invalid to see if they are still in use."
//!
//! The two observable costs the paper attributes to this design are both
//! modelled here:
//!
//! 1. **Soft page faults** — every invalidation of a live page forces the
//!    owner to re-validate on its next reference (Figure 8).
//! 2. **Lock contention** — the daemon holds each victim's address-space
//!    lock for a whole per-process batch of invalidations/steals, during
//!    which that process's page faults cannot be serviced.
//!
//! A page is stolen on the pass *after* it was sampled, if nothing touched
//! it in between (`clock_sampled` still set).

use sim_core::obs::EventKind;
use sim_core::{SimDuration, SimTime};

use crate::addr::{Pfn, Pid, Vpn};
use crate::frame::FreeSource;
use crate::pagetable::InvalidReason;
use crate::vmsys::VmSys;

/// Persistent daemon state.
#[derive(Clone, Debug, Default)]
pub struct PagingDaemon {
    hand: usize,
    wake_requested: bool,
}

/// One action the scan phase decided on (applied under the victim's lock).
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Clear `valid` to sample the reference bit (live page, software
    /// sampling — the MIPS case).
    Invalidate(Vpn),
    /// Clear the hardware reference bit (live page, hardware-refbit mode:
    /// no PTE invalidation, no later soft fault).
    ClearRef(Vpn),
    /// Mark an already-invalid page as sampled (no PTE change visible to
    /// the owner; costs only scan work).
    MarkSampled(Vpn),
    /// Steal the page: unmap, write back if dirty, free-list tail.
    Steal(Vpn, Pfn),
}

impl PagingDaemon {
    /// Creates the daemon with its clock hand at frame 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a wakeup (set by allocation paths crossing `min_freemem`).
    pub fn request_wake(&mut self) {
        self.wake_requested = true;
    }

    /// Whether a wake was requested.
    #[inline]
    pub fn wake_requested(&self) -> bool {
        self.wake_requested
    }

    /// Clears the wake request (the engine is now servicing it).
    pub fn clear_wake(&mut self) {
        self.wake_requested = false;
    }

    /// Current clock-hand position (for tests/diagnostics).
    pub fn hand(&self) -> usize {
        self.hand
    }

    /// Deliberately warps the clock hand outside an activation — the
    /// sanitizer self-test's `WarpClockHand` mutation. Test plumbing only.
    #[doc(hidden)]
    pub fn corrupt_warp_hand(&mut self, total: usize) {
        self.hand = (self.hand + 1) % total.max(2);
    }
}

impl VmSys {
    /// Pops the next usable reactive candidate of `pid`: resident, not
    /// already being released, not an in-flight prefetch. Candidates must
    /// additionally be unreferenced since they were offered? The VINO-style
    /// contract trusts the application's choice, so only hard validity is
    /// checked.
    fn pop_reactive_candidate(&mut self, pid: Pid, now: SimTime) -> Option<(Vpn, Pfn)> {
        let q = self.reactive.get_mut(&pid)?;
        while let Some(vpn) = q.pop_front() {
            let pte = self.procs[pid.0 as usize].pt.get(vpn);
            let in_flight =
                pte.invalid_reason == Some(InvalidReason::Prefetched) && pte.arrives_at > now;
            if pte.resident() && pte.release_requested.is_none() && !in_flight {
                // Mark it sampled so the Steal re-check accepts it.
                let e = self.procs[pid.0 as usize].pt.entry(vpn);
                e.clock_sampled = true;
                let pfn = e.pfn.expect("resident checked");
                return Some((vpn, pfn));
            }
        }
        None
    }

    /// Runs one daemon activation starting at `now`; returns the instant the
    /// daemon finished its work.
    ///
    /// `forced` activations (allocation found the free list empty) scan even
    /// if free memory is nominally above the low-water mark and keep going
    /// until at least one frame is freed or the scan budget is exhausted.
    pub(crate) fn pagingd_activation(&mut self, now: SimTime, forced: bool) -> SimTime {
        // Checked mode: the hand must be where the last activation parked
        // it, and the whole system must be self-consistent before the scan
        // moves anything.
        self.checked_sweep(now);
        self.stats.pagingd.activations.bump();
        if forced {
            self.stats.pagingd.forced_activations.bump();
        }
        let trim_target = self.over_limit_pid();
        let total = self.frames.len();
        if total == 0 {
            return now;
        }
        let batch = (self.tun.daemon_scan_batch as usize).min(total);
        let target_free = self.tun.target_freemem as usize;

        // Phase 1: scan under the clock hand, deciding actions.
        // The scan itself only reads PTEs; mutations happen in phase 2
        // under the victims' address-space locks.
        //
        // Like the real vhand, a non-forced activation scans its whole
        // batch regardless of how many pages it has already found — the
        // daemon samples at a *rate*, which is what makes prefetching
        // (faster consumption → more activations) so much harder on other
        // processes than ordinary demand paging.
        let mut actions: Vec<(Pid, Action)> = Vec::new();
        let mut scan_cost = SimDuration::ZERO;
        let mut would_free = 0usize;
        let mut scanned = 0usize;
        while scanned < batch {
            if forced && self.free.live() + would_free >= target_free && trim_target.is_none() {
                break;
            }
            let pfn = Pfn(self.hand_advance(total) as u32);
            scanned += 1;
            scan_cost += self.params.daemon_scan_page;
            let info = self.frames.get(pfn);
            if info.on_free_list {
                continue;
            }
            let Some((pid, vpn)) = info.owner else {
                continue;
            };
            if let Some(tpid) = trim_target {
                if pid != tpid {
                    continue;
                }
            }
            let pte = self.procs[pid.0 as usize].pt.get(vpn);
            if !pte.resident() || pte.pfn != Some(pfn) {
                continue; // stale owner info
            }
            if pte.release_requested.is_some() {
                continue; // the releaser owns this page
            }
            if pte.invalid_reason == Some(InvalidReason::Prefetched) && pte.arrives_at > now {
                continue; // prefetch still in flight
            }
            // Reactive mode: when the clock lands on a page of a process
            // that registered eviction candidates, the OS takes a page the
            // *application* chose instead — better replacement for the app,
            // but the OS still decides which process pays, so neighbours
            // are not isolated (the paper's §2.2 argument).
            if let Some(cand) = self.pop_reactive_candidate(pid, now) {
                actions.push((pid, Action::Steal(cand.0, cand.1)));
                would_free += 1;
                self.stats.pagingd.reactive_steals.bump();
                continue;
            }
            if self.tun.hardware_refbits {
                // Hardware reference bits: read-and-clear; steal pages whose
                // bit stayed clear for a whole pass. No invalidation, hence
                // no soft faults.
                if pte.hw_referenced {
                    actions.push((pid, Action::ClearRef(vpn)));
                } else if pte.clock_sampled {
                    actions.push((pid, Action::Steal(vpn, pfn)));
                    would_free += 1;
                } else {
                    actions.push((pid, Action::MarkSampled(vpn)));
                }
            } else if pte.clock_sampled {
                actions.push((pid, Action::Steal(vpn, pfn)));
                would_free += 1;
            } else if pte.valid {
                actions.push((pid, Action::Invalidate(vpn)));
            } else {
                actions.push((pid, Action::MarkSampled(vpn)));
            }
        }
        self.stats.pagingd.frames_scanned.add(scanned as u64);

        // Phase 2: apply actions per victim process, holding each victim's
        // address-space lock for the whole batch — the long holds the paper
        // blames for inflated fault times.
        let mut t = now + scan_cost;
        actions.sort_by_key(|(pid, _)| pid.0);
        let mut i = 0;
        while i < actions.len() {
            let pid = actions[i].0;
            let mut j = i;
            let mut hold = self.params.daemon_lock_overhead;
            while j < actions.len() && actions[j].0 == pid {
                hold += match actions[j].1 {
                    Action::Invalidate(_) => self.params.daemon_invalidate_page,
                    Action::ClearRef(_) => self.params.daemon_scan_page,
                    Action::MarkSampled(_) => self.params.daemon_scan_page,
                    Action::Steal(vpn, _) => {
                        let dirty = self.procs[pid.0 as usize].pt.get(vpn).dirty;
                        if dirty {
                            self.params.daemon_steal_page + self.params.daemon_writeback_init
                        } else {
                            self.params.daemon_steal_page
                        }
                    }
                };
                j += 1;
            }
            let acq = self.procs[pid.0 as usize].lock.acquire(t, hold);
            let mut stole_from_pid = false;
            for (_, action) in &actions[i..j] {
                match *action {
                    Action::Invalidate(vpn) => {
                        let e = self.procs[pid.0 as usize].pt.entry(vpn);
                        // Re-check: the owner may have touched it while we
                        // waited for the lock; sampling stands regardless
                        // (clock semantics), but skip pages that vanished.
                        if e.pfn.is_none() {
                            continue;
                        }
                        e.valid = false;
                        e.invalid_reason = Some(InvalidReason::DaemonSample);
                        e.clock_sampled = true;
                        let p = &mut self.procs[pid.0 as usize];
                        p.tlb.invalidate(&mut p.pt, vpn);
                        self.stats.pagingd.invalidations.bump();
                    }
                    Action::ClearRef(vpn) => {
                        let e = self.procs[pid.0 as usize].pt.entry(vpn);
                        if e.pfn.is_none() {
                            continue;
                        }
                        e.hw_referenced = false;
                        e.clock_sampled = false;
                    }
                    Action::MarkSampled(vpn) => {
                        let e = self.procs[pid.0 as usize].pt.entry(vpn);
                        if e.pfn.is_none() {
                            continue;
                        }
                        e.clock_sampled = true;
                    }
                    Action::Steal(vpn, pfn) => {
                        let e = self.procs[pid.0 as usize].pt.get(vpn);
                        if e.pfn != Some(pfn) || !e.clock_sampled {
                            continue; // rescued or touched meanwhile
                        }
                        // Quota isolation: never steal below a tenant's
                        // guaranteed share while some other tenant is
                        // above its own guarantee (trim that one instead).
                        // Re-checked at apply time because residency
                        // drifts within the batch. The over-cap trim
                        // target is exempt: over cap implies over
                        // guarantee.
                        if trim_target != Some(pid) && self.quota.shields(pid.0) {
                            self.stats.pagingd.quota_protected.bump();
                            continue;
                        }
                        let dirty = e.dirty;
                        self.free_page(acq.end, pid, vpn, FreeSource::Daemon);
                        self.stats.pagingd.pages_stolen.bump();
                        if dirty {
                            self.stats.pagingd.writebacks.bump();
                        }
                        stole_from_pid = true;
                    }
                }
            }
            if stole_from_pid {
                // Having memory stolen is memory-system activity: the OS
                // refreshes the victim's shared page.
                self.refresh_shared(now, pid);
            }
            t = acq.end;
            i = j;
        }
        self.stats.pagingd.busy += t.since(now);
        self.note(
            now,
            EventKind::PagingdScan {
                scanned: scanned as u64,
                free: self.free.live() as u64,
            },
        );
        self.checked_park_hand();
        t
    }

    fn hand_advance(&mut self, total: usize) -> usize {
        let h = self.pagingd.hand;
        self.pagingd.hand = (h + 1) % total;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TouchKind;
    use crate::params::{CostParams, Tunables};
    use crate::vmsys::Backing;
    use disk::SwapConfig;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn vm_with(frames: usize, min_free: u64, target: u64) -> VmSys {
        let mut tun = Tunables::for_memory(frames as u64);
        tun.min_freemem = min_free;
        tun.target_freemem = target;
        tun.daemon_scan_batch = frames as u64;
        VmSys::new(frames, tun, CostParams::default(), SwapConfig::test_array())
    }

    #[test]
    fn idle_daemon_does_nothing() {
        let mut vm = vm_with(64, 4, 8);
        assert!(!vm.pagingd_needed());
        assert!(vm.service_pagingd(t(1)).is_none());
        // service_pagingd bails out before scanning when memory is ample.
        assert_eq!(vm.stats().pagingd.frames_scanned.get(), 0);
    }

    #[test]
    fn first_pass_samples_second_pass_steals() {
        let mut vm = vm_with(32, 8, 12);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        // Fill until below min_freemem.
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        assert!(vm.pagingd_needed());
        let end1 = vm.pagingd_activation(now, false);
        assert!(vm.stats().pagingd.invalidations.get() > 0, "pass 1 samples");
        let stolen_after_1 = vm.stats().pagingd.pages_stolen.get();
        let _end2 = vm.pagingd_activation(end1, false);
        assert!(
            vm.stats().pagingd.pages_stolen.get() > stolen_after_1,
            "pass 2 steals unreferenced pages"
        );
    }

    #[test]
    fn touched_pages_survive_the_clock() {
        let mut vm = vm_with(32, 8, 10);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let end1 = vm.pagingd_activation(now, false);
        // Re-touch page 0 (soft fault revalidates and clears the sample).
        let res = vm.touch(end1, pid, r.start, false);
        assert_eq!(res.kind, TouchKind::SoftFaultDaemon);
        vm.pagingd_activation(res.done_at, false);
        // Page 0 must still be resident.
        assert!(vm.touch(t(500), pid, r.start, false).kind != TouchKind::HardFault);
    }

    #[test]
    fn invalidation_soft_faults_are_counted() {
        let mut vm = vm_with(32, 8, 10);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let end = vm.pagingd_activation(now, false);
        let mut soft = 0;
        let mut cur = end;
        for i in 0..28 {
            let res = vm.touch(cur, pid, r.start.offset(i), false);
            cur = res.done_at;
            if res.kind == TouchKind::SoftFaultDaemon {
                soft += 1;
            }
        }
        assert_eq!(
            soft,
            vm.stats().proc(pid.0 as usize).soft_faults_daemon.get()
        );
        assert!(soft > 0);
    }

    #[test]
    fn daemon_skips_release_pending_pages() {
        let mut vm = vm_with(32, 31, 32); // daemon always "needed"
        let pid = vm.add_process(true);
        let r = vm.map_region(pid, 8, Backing::SwapPrefilled, true);
        let mut now = t(1);
        for i in 0..4 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        vm.release(now, pid, &[r.start]);
        vm.pagingd_activation(now, false);
        vm.pagingd_activation(now + SimDuration::from_millis(10), false);
        // The released page must have been left to the releaser: it was
        // never stolen by the daemon.
        assert_eq!(vm.stats().freed.freed_by_daemon.get(), {
            // Pages 1..4 may be stolen, page 0 must not be (release pending).
            let stolen = vm.stats().pagingd.pages_stolen.get();
            assert!(stolen <= 3, "stole {stolen}, including a released page?");
            stolen
        });
    }

    #[test]
    fn daemon_holds_victim_lock() {
        let mut vm = vm_with(32, 8, 12);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let before = vm.lock_stats(pid).acquisitions.get();
        vm.pagingd_activation(now, false);
        assert!(vm.lock_stats(pid).acquisitions.get() > before);
        assert!(vm.lock_stats(pid).total_hold > SimDuration::ZERO);
    }

    #[test]
    fn maxrss_trim_targets_over_limit_process() {
        let mut vm = vm_with(64, 2, 4);
        let pid = vm.add_process(false);
        let other = vm.add_process(false);
        let r = vm.map_region(pid, 40, Backing::ZeroFill, false);
        let ro = vm.map_region(other, 8, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..8 {
            now = vm.touch(now, other, ro.start.offset(i), false).done_at;
        }
        for i in 0..30 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        // Lower maxrss below the hog's RSS.
        vm.set_maxrss(16);
        assert_eq!(vm.over_limit_pid(), Some(pid));
        let end = vm.pagingd_activation(now, false);
        vm.pagingd_activation(end, false);
        // Only the hog lost pages.
        assert!(vm.stats().proc(pid.0 as usize).pages_stolen.get() > 0);
        assert_eq!(vm.stats().proc(other.0 as usize).pages_stolen.get(), 0);
    }

    #[test]
    fn activation_count_matches_service_calls() {
        let mut vm = vm_with(32, 8, 10);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let a0 = vm.stats().pagingd.activations.get();
        let next = vm.service_pagingd(now);
        assert_eq!(vm.stats().pagingd.activations.get(), a0 + 1);
        // Pressure persists (pass 1 only samples), so a next wake is due.
        assert!(next.is_some());
    }
}

#[cfg(test)]
mod hw_refbit_tests {
    use super::*;
    use crate::outcome::TouchKind;
    use crate::params::{CostParams, Tunables};
    use crate::vmsys::Backing;
    use disk::SwapConfig;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn vm_hw(frames: usize) -> VmSys {
        let mut tun = Tunables::for_memory(frames as u64);
        tun.min_freemem = 8;
        tun.target_freemem = 12;
        tun.daemon_scan_batch = frames as u64;
        tun.hardware_refbits = true;
        VmSys::new(frames, tun, CostParams::default(), SwapConfig::test_array())
    }

    #[test]
    fn hw_sampling_causes_no_soft_faults() {
        let mut vm = vm_hw(32);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let end = vm.pagingd_activation(now, false);
        // A re-touch after the sampling pass is a plain hit/TLB-miss, never
        // a soft fault: the daemon only cleared the reference bit.
        let res = vm.touch(end, pid, r.start, false);
        assert!(
            matches!(res.kind, TouchKind::Hit | TouchKind::TlbMiss),
            "unexpected {:?}",
            res.kind
        );
        assert_eq!(vm.stats().proc(pid.0 as usize).soft_faults_daemon.get(), 0);
        assert_eq!(vm.stats().pagingd.invalidations.get(), 0);
    }

    #[test]
    fn hw_mode_still_steals_unreferenced_pages() {
        let mut vm = vm_hw(32);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        // Pass 1 clears bits, pass 2 marks sampled, pass 3 steals.
        let e1 = vm.pagingd_activation(now, false);
        let e2 = vm.pagingd_activation(e1, false);
        vm.pagingd_activation(e2, false);
        assert!(
            vm.stats().pagingd.pages_stolen.get() > 0,
            "hardware mode must still reclaim"
        );
    }

    #[test]
    fn hw_mode_spares_retouch_pages() {
        let mut vm = vm_hw(32);
        let pid = vm.add_process(false);
        let r = vm.map_region(pid, 32, Backing::ZeroFill, false);
        let mut now = t(1);
        for i in 0..28 {
            now = vm.touch(now, pid, r.start.offset(i), false).done_at;
        }
        let e1 = vm.pagingd_activation(now, false);
        // Re-touch page 0 between passes: its bit is set again.
        let res = vm.touch(e1, pid, r.start, false);
        let e2 = vm.pagingd_activation(res.done_at, false);
        vm.pagingd_activation(e2, false);
        assert!(
            vm.touch(t(900), pid, r.start, false).kind != TouchKind::ZeroFill,
            "recently referenced page survived the clock"
        );
    }
}
