//! The daemons' side of the loop: paging-daemon and releaser wakeups and
//! their injected delays, admission credit for verified releases, and
//! the rare machine-wide events (limit shrink, checked-mode mutation,
//! occupancy samples).

use sim_core::fault::FaultKind;
use sim_core::sanitizer::{InvariantViolation, Mutation, MutationTarget};
use sim_core::{SimDuration, SimTime};
use vm::Pid;

use super::{Engine, Ev};
use crate::timeline::TimelineSample;

impl Engine {
    /// One paging-daemon activation; it reschedules itself while memory
    /// stays short.
    #[inline]
    pub(super) fn on_pagingd(&mut self, now: SimTime) {
        self.pagingd_scheduled = false;
        if let Some(next) = self.vm.service_pagingd(now) {
            self.pagingd_scheduled = true;
            let next = next + self.pagingd_fault_delay(now);
            self.queue.schedule(next, Ev::Pagingd);
        }
    }

    /// One releaser activation; it reschedules itself while its queue
    /// holds work, then credits what it verifiably freed.
    #[inline]
    pub(super) fn on_releaser(&mut self, now: SimTime) {
        self.releaser_scheduled = false;
        if !self.vm.releaser_alive() {
            // The daemon died while this wakeup was in flight; its queue
            // waits for restart reconciliation.
            return;
        }
        if let Some(next) = self.vm.service_releaser(now) {
            self.releaser_scheduled = true;
            let next = next + self.releaser_fault_delay(now);
            self.queue.schedule(next, Ev::Releaser);
        }
        self.credit_verified_releases(now);
    }

    /// Schedules whichever daemon the VM now needs and is not already
    /// queued.
    pub(super) fn wake_daemons(&mut self, at: SimTime) {
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

    /// Schedules the daemons the VM needs after an op, or, when the op
    /// `changed` nothing a daemon waits on (the free count, the paging
    /// daemon's wake flag, the over-cap set, the releaser queue), skips
    /// the check. Skipping matches waking only while every daemon the VM
    /// needs is already scheduled; checked mode verifies exactly that at
    /// each skip.
    #[inline]
    pub(super) fn wake_daemons_if(&mut self, changed: bool, at: SimTime) {
        if changed {
            self.wake_daemons(at);
        } else if self.checked {
            self.checked_daemon_wake();
        }
    }

    /// Checked mode: each daemon the VM needs has a wakeup scheduled.
    #[cold]
    fn checked_daemon_wake(&self) {
        let daemon = if self.vm.pagingd_needed() && !self.pagingd_scheduled {
            "paging daemon"
        } else if self.vm.releaser_pending() && !self.releaser_scheduled {
            "releaser"
        } else {
            return;
        };
        InvariantViolation {
            at: self.queue.now(),
            subsystem: "engine",
            invariant: "daemon_wake",
            detail: format!("the {daemon} has work but no wakeup is scheduled"),
            tail: self.vm.recorder().dump_tail(16),
        }
        .raise()
    }

    /// Credits releaser-verified frees to each process's admission trust
    /// score. This is the only path by which a low-trust tenant's
    /// releases earn good-behaviour credit: the VM's per-proc
    /// `pages_released` counter only moves when the releaser daemon
    /// actually freed a frame, so a tenant cannot launder trust by
    /// issuing releases for pages it never gives back. Only the pids the
    /// VM lists as having released since the last credit are visited,
    /// each through every registration it has.
    fn credit_verified_releases(&mut self, now: SimTime) {
        let mut pids = std::mem::take(&mut self.released_pids);
        self.vm.take_released_pids(&mut pids);
        for &pid in &pids {
            let released = self.vm.stats().proc(pid.0 as usize).pages_released.get();
            let mut next = self.proc_of_pid.get(pid.0 as usize).copied().flatten();
            while let Some(i) = next {
                let p = &mut self.procs[i];
                next = p.next_same_pid;
                let Some(rt) = p.rt.as_mut() else { continue };
                let delta = released.saturating_sub(p.released_seen);
                if delta > 0 {
                    p.released_seen = released;
                    rt.note_releases_verified(now, delta);
                }
            }
        }
        self.released_pids = pids;
        if self.checked {
            self.checked_release_credit();
        }
    }

    /// Checked mode: every process with a run-time layer has been
    /// credited exactly the releases the VM verified for its pid.
    #[cold]
    fn checked_release_credit(&self) {
        for p in self.procs.iter().filter(|p| p.rt.is_some()) {
            let pid = p.result.pid;
            let released = self.vm.stats().proc(pid.0 as usize).pages_released.get();
            if p.released_seen != released {
                InvariantViolation {
                    at: self.queue.now(),
                    subsystem: "engine",
                    invariant: "release_credit",
                    detail: format!(
                        "pid {} ({}) credited {} verified releases, the VM freed {released}",
                        pid.0, p.result.name, p.released_seen
                    ),
                    tail: self.vm.recorder().dump_tail(16),
                }
                .raise()
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

    /// Fault injection: the upper memory limit shrinks now.
    #[cold]
    pub(super) fn on_shrink(&mut self, now: SimTime) {
        let frac = self.faults.daemons.shrink_to_frac;
        let (from, to) = self.vm.shrink_limit(frac);
        self.fault_log
            .record(now, FaultKind::LimitShrunk { from, to });
        self.wake_daemons(now);
    }

    /// Checked-mode self test: corrupts the targeted subsystem's state.
    #[cold]
    pub(super) fn on_mutate(&mut self, now: SimTime, m: Mutation) {
        match m.target() {
            MutationTarget::Vm => {
                let pid = self
                    .procs
                    .iter()
                    .find(|p| p.primary)
                    .map_or(Pid(0), |p| p.result.pid);
                self.vm.apply_mutation(now, m, pid);
            }
            MutationTarget::Runtime => {
                if let Some(rt) = self.procs.iter_mut().find_map(|p| p.rt.as_mut()) {
                    rt.apply_mutation(m);
                }
            }
            MutationTarget::Disk => self.vm.swap_mut().apply_mutation(m),
        }
        self.wake_daemons(now);
    }

    /// One occupancy-timeline sample; reschedules itself.
    #[cold]
    pub(super) fn on_sample(&mut self, now: SimTime) {
        if let Some((period, samples)) = self.timeline.as_mut() {
            samples.push(TimelineSample {
                t: now,
                free: self.vm.free_pages(),
                rss: self
                    .procs
                    .iter()
                    .map(|p| self.vm.rss(p.result.pid))
                    .collect(),
            });
            let next = now + *period;
            self.queue.schedule(next, Ev::Sample);
        }
    }
}
