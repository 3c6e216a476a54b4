//! The lockstep reference oracle: a deliberately naive executable spec.
//!
//! The optimized `vm` structures (cached resident counters, lazily
//! deleted free-list entries, packed residency bitmaps) are checked in
//! checked mode against *themselves* by the invariant probes — but a
//! shared misunderstanding baked into both the structure and its probe
//! would pass. This module closes that loop with a second, independent
//! implementation: the simplest possible model of the paper's
//! bookkeeping — per-process residency **sets**, the global clock hand,
//! and the Eq. 1 upper-limit arithmetic — fed the exact event stream the
//! PR 4 recorders already emit, and diffed against the live state at
//! every sweep.
//!
//! Naivety is the point. [`Oracle`] holds `BTreeSet`s and recomputes
//! everything from scratch; it shares no code with `vm`, so a bug has to
//! be made twice, independently, to slip through. It deliberately stays
//! around two hundred lines.
//!
//! The residency model, in terms of [`EventKind`]:
//!
//! * **map** (page becomes resident): `ZeroFill`, `HardFault`,
//!   `RescueDaemon`, `RescueRelease`, `PrefetchStarted`,
//!   `PrefetchRescued`. Set semantics absorb the rescue paths that emit
//!   both a rescue event and a prefetch event for the same page.
//! * **unmap** (frame goes back to the free list): `FreedByDaemon`,
//!   `FreedByRelease`.
//! * everything else (`PrefetchValidated`, `SoftFaultDaemon`,
//!   `ReleaseCancelled`, skip/filter events, …) changes validity or
//!   queue state but never the mapping, so the oracle ignores it.
//! * process exit unmaps everything without events — the VM calls
//!   [`Oracle::exit`] explicitly.
//!
//! Free frames follow by conservation: `total − Σ |resident set|`.

use std::collections::{BTreeMap, BTreeSet};

use crate::obs::EventKind;

/// Naive Eq. 1: the paper's upper limit on a process's resident set,
/// written as the obvious if/else arithmetic (the executable spec the
/// optimized `vm::shared_page::upper_limit` is diffed against).
// The spelled-out branch *is* the spec; `saturating_sub` would restate
// the implementation this function exists to cross-check.
#[allow(clippy::implicit_saturating_sub)]
pub fn naive_limit(maxrss: u64, current_size: u64, tot_freemem: u64, min_freemem: u64) -> u64 {
    let headroom = if tot_freemem > min_freemem {
        tot_freemem - min_freemem
    } else {
        0
    };
    let candidate = current_size + headroom;
    if candidate < maxrss {
        candidate
    } else {
        maxrss
    }
}

/// The lockstep reference model (see module docs).
#[derive(Clone, Debug)]
pub struct Oracle {
    total_frames: u64,
    resident: BTreeMap<u32, BTreeSet<u64>>,
    hand: u64,
}

impl Oracle {
    /// A fresh oracle for a machine with `total_frames` physical frames.
    pub fn new(total_frames: u64) -> Self {
        Oracle {
            total_frames,
            resident: BTreeMap::new(),
            hand: 0,
        }
    }

    /// Applies one page-attributed event to the residency model.
    pub fn apply_page(&mut self, pid: u32, vpn: u64, kind: &EventKind) {
        match kind {
            EventKind::ZeroFill
            | EventKind::HardFault
            | EventKind::RescueDaemon
            | EventKind::RescueRelease
            | EventKind::PrefetchStarted
            | EventKind::PrefetchRescued => {
                self.resident.entry(pid).or_default().insert(vpn);
            }
            EventKind::FreedByDaemon | EventKind::FreedByRelease => {
                if let Some(set) = self.resident.get_mut(&pid) {
                    set.remove(&vpn);
                }
            }
            _ => {}
        }
    }

    /// Applies one non-page event: the paging daemon's scan advances the
    /// clock hand once per scanned frame, modulo the frame count.
    pub fn apply(&mut self, kind: &EventKind) {
        if let EventKind::PagingdScan { scanned, .. } = kind {
            if self.total_frames > 0 {
                self.hand = (self.hand + scanned) % self.total_frames;
            }
        }
    }

    /// A process exited: all of its pages unmap at once (the VM emits no
    /// per-page events on exit, so the teardown is explicit).
    pub fn exit(&mut self, pid: u32) {
        self.resident.remove(&pid);
    }

    /// Resident pages the model believes `pid` has.
    pub fn resident_count(&self, pid: u32) -> u64 {
        self.resident.get(&pid).map_or(0, |s| s.len() as u64)
    }

    /// Total mapped pages across all processes.
    pub fn mapped_total(&self) -> u64 {
        self.resident.values().map(|s| s.len() as u64).sum()
    }

    /// Free frames by conservation: `total − mapped`.
    pub fn free_frames(&self) -> u64 {
        self.total_frames.saturating_sub(self.mapped_total())
    }

    /// Where the model believes the clock hand points.
    pub fn hand(&self) -> u64 {
        self.hand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_limit_matches_its_spec() {
        // Plenty of headroom: limited by maxrss.
        assert_eq!(naive_limit(100, 40, 80, 10), 100);
        // Tight memory: current + headroom.
        assert_eq!(naive_limit(100, 40, 20, 10), 50);
        // Below min_freemem: no headroom at all.
        assert_eq!(naive_limit(100, 40, 5, 10), 40);
        assert_eq!(naive_limit(100, 40, 10, 10), 40);
    }

    #[test]
    fn residency_set_tracks_map_and_unmap() {
        let mut o = Oracle::new(8);
        o.apply_page(0, 1, &EventKind::ZeroFill);
        o.apply_page(0, 2, &EventKind::HardFault);
        o.apply_page(1, 7, &EventKind::PrefetchStarted);
        // A rescue path emits both events for the same page; the set
        // absorbs the double insert.
        o.apply_page(1, 9, &EventKind::RescueDaemon);
        o.apply_page(1, 9, &EventKind::PrefetchRescued);
        assert_eq!(o.resident_count(0), 2);
        assert_eq!(o.resident_count(1), 2);
        assert_eq!(o.mapped_total(), 4);
        assert_eq!(o.free_frames(), 4);

        o.apply_page(0, 2, &EventKind::FreedByDaemon);
        o.apply_page(1, 9, &EventKind::FreedByRelease);
        assert_eq!(o.mapped_total(), 2);

        // Validity-only events never move the mapping.
        o.apply_page(0, 1, &EventKind::PrefetchValidated);
        o.apply_page(0, 1, &EventKind::SoftFaultDaemon);
        o.apply_page(0, 1, &EventKind::ReleaseCancelled);
        assert_eq!(o.resident_count(0), 1);

        o.exit(1);
        assert_eq!(o.mapped_total(), 1);
        assert_eq!(o.free_frames(), 7);
    }

    #[test]
    fn clock_hand_wraps_modulo_frames() {
        let mut o = Oracle::new(10);
        o.apply(&EventKind::PagingdScan {
            scanned: 4,
            free: 0,
        });
        assert_eq!(o.hand(), 4);
        o.apply(&EventKind::PagingdScan {
            scanned: 9,
            free: 0,
        });
        assert_eq!(o.hand(), 3);
        // Non-scan events leave the hand alone.
        o.apply(&EventKind::ReleaserBatch {
            handled: 1,
            queued: 0,
        });
        assert_eq!(o.hand(), 3);
    }
}
