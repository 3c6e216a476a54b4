//! VM statistics, organized around the paper's evaluation.

use sim_core::stats::Counter;
use sim_core::SimDuration;

sim_core::stats_struct! {
    /// Paging daemon ("vhand") statistics — Table 3 and Figure 8 inputs.
    #[derive(Clone, Debug, Default)]
    pub struct PagingdStats {
        /// Activations ("number of times the paging daemon needs to operate").
        pub activations: Counter,
        /// Forced activations: an allocation found the free list *empty* and
        /// had to run the daemon inline. Nonzero deltas are the strongest
        /// overload signal the machine produces (the pressure monitor grades
        /// them straight to `Emergency`).
        pub forced_activations: Counter,
        /// Frames examined across all clock passes.
        pub frames_scanned: Counter,
        /// Pages invalidated to sample references (each may later produce a
        /// Figure 8 soft fault in the owner).
        pub invalidations: Counter,
        /// Pages stolen (unmapped and freed).
        pub pages_stolen: Counter,
        /// Dirty steals that required writeback.
        pub writebacks: Counter,
        /// Steals satisfied by application-chosen (reactive) candidates
        /// instead of clock victims.
        pub reactive_steals: Counter,
        /// Steals skipped because the victim sat at or below its guaranteed
        /// tenant quota while another tenant was above its own guarantee.
        pub quota_protected: Counter,
        /// Total daemon busy time.
        pub busy: SimDuration,
    }
}

sim_core::stats_struct! {
    /// Releaser daemon statistics.
    #[derive(Clone, Debug, Default)]
    pub struct ReleaserStats {
        /// Service activations.
        pub activations: Counter,
        /// Individual page-release requests received.
        pub requests: Counter,
        /// Pages actually freed.
        pub pages_released: Counter,
        /// Requests dropped because the page was re-referenced after the
        /// request (bit-vector check).
        pub skipped_reref: Counter,
        /// Requests dropped because the page was not resident.
        pub skipped_nonresident: Counter,
        /// Dirty releases that required writeback.
        pub writebacks: Counter,
        /// Total releaser busy time.
        pub busy: SimDuration,
    }
}

sim_core::stats_struct! {
    /// Freed-page outcome accounting for Figure 9.
    #[derive(Clone, Debug, Default)]
    pub struct FreedPageStats {
        /// Pages freed by the paging daemon.
        pub freed_by_daemon: Counter,
        /// Pages freed by explicit release.
        pub freed_by_release: Counter,
        /// Daemon-freed pages later rescued from the free list.
        pub rescued_daemon: Counter,
        /// Release-freed pages later rescued from the free list.
        pub rescued_release: Counter,
    }
}

sim_core::stats_struct! {
    /// Per-process statistics.
    #[derive(Clone, Debug, Default)]
    pub struct ProcStats {
        /// Soft faults caused by daemon reference sampling (Figure 8).
        pub soft_faults_daemon: Counter,
        /// Soft faults that cancelled a pending release.
        pub soft_faults_release: Counter,
        /// Validation faults on first touch of prefetched pages.
        pub prefetch_validates: Counter,
        /// Hard (I/O) page faults (Figure 10c for the interactive task).
        pub hard_faults: Counter,
        /// Zero-fill minor faults.
        pub zero_fills: Counter,
        /// Own pages rescued from the free list.
        pub rescues: Counter,
        /// Pages stolen from this process by the paging daemon.
        pub pages_stolen: Counter,
        /// Pages of this process freed via explicit release.
        pub pages_released: Counter,
        /// Prefetch requests issued to the PM on this process's behalf.
        pub prefetch_requests: Counter,
        /// Prefetch requests discarded for lack of free memory.
        pub prefetch_discarded: Counter,
        /// Prefetch requests that found the page already resident.
        pub prefetch_redundant: Counter,
        /// Prefetch requests denied because the tenant was at its quota cap.
        pub prefetch_quota_denied: Counter,
        /// TLB misses.
        pub tlb_misses: Counter,
        /// Total frame allocations performed for this process (page
        /// allocations, Table 3's companion metric).
        pub allocations: Counter,
        /// Peak resident set size (pages).
        pub peak_rss: u64,
    }
}

/// All VM statistics.
#[derive(Clone, Debug, Default)]
pub struct VmStats {
    /// Paging daemon counters.
    pub pagingd: PagingdStats,
    /// Releaser counters.
    pub releaser: ReleaserStats,
    /// Figure 9 freed-page outcomes.
    pub freed: FreedPageStats,
    /// Per-process counters, indexed by `Pid`.
    pub procs: Vec<ProcStats>,
}

impl VmStats {
    /// Per-process stats, growing the vector as processes appear.
    #[inline]
    pub fn proc_mut(&mut self, pid: usize) -> &mut ProcStats {
        if pid >= self.procs.len() {
            self.procs.resize_with(pid + 1, ProcStats::default);
        }
        &mut self.procs[pid]
    }

    /// Per-process stats (default if the process never had activity).
    pub fn proc(&self, pid: usize) -> ProcStats {
        self.procs.get(pid).cloned().unwrap_or_default()
    }

    /// Total pages freed by either mechanism.
    pub fn total_freed(&self) -> u64 {
        self.freed.freed_by_daemon.get() + self.freed.freed_by_release.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_mut_grows() {
        let mut s = VmStats::default();
        s.proc_mut(3).hard_faults.bump();
        assert_eq!(s.procs.len(), 4);
        assert_eq!(s.proc(3).hard_faults.get(), 1);
        assert_eq!(s.proc(7).hard_faults.get(), 0);
    }

    #[test]
    fn total_freed_sums_sources() {
        let mut s = VmStats::default();
        s.freed.freed_by_daemon.add(5);
        s.freed.freed_by_release.add(7);
        assert_eq!(s.total_freed(), 12);
    }
}
