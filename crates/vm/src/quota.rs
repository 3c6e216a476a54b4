//! Per-tenant memory quotas: guaranteed share + burstable slack.
//!
//! The paper's Eq. 1 gives every process the same global view: its upper
//! limit is `min(maxrss, usage + free - min_freemem)`. That is fine for
//! one cooperative job but gives a byzantine tenant the whole machine to
//! graze on. [`QuotaSet`] generalizes the limit into a per-tenant
//! contract:
//!
//! * a **guaranteed** share — frames the tenant can always hold; the
//!   paging daemon never steals below it while any other tenant is above
//!   its own guarantee;
//! * a **burstable** slack — frames above the guarantee the tenant may
//!   use while the machine has room, *rented against good behaviour*:
//!   every hint that wastes kernel work (a cancelled release, a rescued
//!   release, a redundant prefetch) debits the slack, and every hint that
//!   does its job (a validated prefetch, a release that actually freed a
//!   frame) credits it back.
//!
//! The effective per-tenant cap is
//! `min(maxrss, guaranteed + burst - debt)`; debt saturates at `burst`,
//! so the cap can never drop below the guarantee. Tenants without a
//! registered quota keep the stock Eq. 1 behaviour, and a [`QuotaSet`]
//! with no registrations is a complete no-op — existing single-tenant
//! runs are bit-identical.
//!
//! The set also answers the paging daemon's two fleet-wide questions —
//! "which process is over its cap?" and "is anyone above a guarantee?" —
//! from state maintained where charges and caps change, so neither query
//! walks the process table.
//!
//! Independently of quotas, the set keeps an exact per-tenant **charged**
//! frame count, incremented/decremented at the same sites that map/unmap
//! resident pages. Checked mode asserts it equals each page table's
//! resident count — the conservation property the adversary tests lean
//! on.

use std::collections::BTreeSet;

/// One tenant's memory contract (pages).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TenantQuota {
    /// Frames the tenant can always hold (never stolen below this while
    /// another tenant is above its own guarantee).
    pub guaranteed: u64,
    /// Burstable slack above the guarantee, debited by wasteful hints.
    pub burst: u64,
}

impl TenantQuota {
    /// A quota of `guaranteed` pages plus `burst` pages of slack.
    pub fn new(guaranteed: u64, burst: u64) -> Self {
        TenantQuota { guaranteed, burst }
    }

    /// The cap with zero debt: `guaranteed + burst`.
    pub fn ceiling(&self) -> u64 {
        self.guaranteed + self.burst
    }
}

/// One process's row of the dense, pid-indexed ledger.
#[derive(Clone, Copy, Debug, Default)]
struct Ledger {
    quota: Option<TenantQuota>,
    /// Burst slack consumed by wasteful hints (≤ burst).
    debt: u64,
    /// Exact resident-frame count (kept for *all* pids, not just
    /// quota'd tenants, so conservation is checkable machine-wide).
    charged: u64,
    /// `charged > cap`: a member of [`QuotaSet::over_cap`].
    over_cap: bool,
    /// `charged > guaranteed`: counted in [`QuotaSet::above_guarantee`].
    above_guarantee: bool,
}

/// The per-machine registry of tenant quotas plus the frame-charge and
/// hint-debt ledgers (see module docs), in pid-indexed rows grown as
/// processes are added.
///
/// The set also answers the two fleet-wide contract queries without
/// rescanning: every ledger update rechecks its own pid against its cap
/// and guarantee, and touches the ordered over-cap set or the
/// above-guarantee count only when that pid's answer flips.
#[derive(Clone, Debug)]
pub struct QuotaSet {
    rows: Vec<Ledger>,
    any: bool,
    /// The machine-wide `maxrss` every cap is clamped to.
    maxrss: u64,
    /// Pids whose charge exceeds their cap, lowest first.
    over_cap: BTreeSet<u32>,
    /// Processes whose charge exceeds their guaranteed share.
    above_guarantee: usize,
    debits: u64,
    credits: u64,
}

impl QuotaSet {
    /// An empty set bounded by `maxrss` (every operation a no-op until a
    /// quota is registered).
    pub(crate) fn new(maxrss: u64) -> Self {
        QuotaSet {
            rows: Vec::new(),
            any: false,
            maxrss,
            over_cap: BTreeSet::new(),
            above_guarantee: 0,
            debits: 0,
            credits: 0,
        }
    }

    /// Gives a new process `pid` its ledger row (pids are dense, from
    /// 0). Every ledger update requires the row.
    pub(crate) fn add_process(&mut self, pid: u32) {
        self.row_mut(pid);
    }

    /// Makes room for `additional` more ledger rows in one allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve_exact(additional);
    }

    /// How many ledger rows fit before the ledger reallocates.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// `pid`'s row, growing the ledger up to it if needed.
    fn row_mut(&mut self, pid: u32) -> &mut Ledger {
        let i = pid as usize;
        if i >= self.rows.len() {
            self.rows.resize(i + 1, Ledger::default());
        }
        &mut self.rows[i]
    }

    /// Whether any tenant has a registered quota.
    pub fn any(&self) -> bool {
        self.any
    }

    /// Registers (or replaces) `pid`'s quota. The process need not exist
    /// yet: the quota applies once it does. Debt carried over from a
    /// replaced quota is clamped to the new burst.
    pub fn set(&mut self, pid: u32, quota: TenantQuota) {
        let r = self.row_mut(pid);
        r.quota = Some(quota);
        r.debt = r.debt.min(quota.burst);
        self.any = true;
        self.recheck(pid);
    }

    /// The quota registered for `pid`, if any.
    pub fn quota(&self, pid: u32) -> Option<TenantQuota> {
        self.rows.get(pid as usize).and_then(|r| r.quota)
    }

    /// `pid`'s guaranteed share (0 for tenants without a quota).
    pub fn guaranteed(&self, pid: u32) -> u64 {
        self.quota(pid).map_or(0, |q| q.guaranteed)
    }

    /// `pid`'s current hint debt against its burst slack.
    pub fn debt(&self, pid: u32) -> u64 {
        self.rows.get(pid as usize).map_or(0, |r| r.debt)
    }

    /// Replaces `maxrss` and rechecks every pid against its new cap.
    pub(crate) fn set_maxrss(&mut self, maxrss: u64) {
        self.maxrss = maxrss;
        for pid in 0..self.rows.len() as u32 {
            self.recheck(pid);
        }
    }

    /// The effective per-tenant cap: `min(maxrss, guaranteed + burst -
    /// debt)` for quota'd tenants, `maxrss` otherwise. Debt saturates at
    /// `burst`, so the cap never drops below the guarantee.
    pub fn cap(&self, pid: u32) -> u64 {
        match self.quota(pid) {
            None => self.maxrss,
            Some(q) => self.maxrss.min(q.guaranteed + q.burst - self.debt(pid)),
        }
    }

    /// Debits `pages` of burst slack for a wasteful hint (saturating at
    /// the tenant's burst). No-op for tenants without a quota.
    pub fn debit(&mut self, pid: u32, pages: u64) {
        let r = &mut self.rows[pid as usize];
        let Some(q) = r.quota else {
            return;
        };
        r.debt = (r.debt + pages).min(q.burst);
        self.debits += pages;
        self.recheck(pid);
    }

    /// Credits `pages` of burst slack back for a hint that did its job
    /// (saturating at zero). No-op for tenants without a quota.
    pub fn credit(&mut self, pid: u32, pages: u64) {
        let r = &mut self.rows[pid as usize];
        if r.quota.is_none() {
            return;
        }
        r.debt = r.debt.saturating_sub(pages);
        self.credits += pages;
        self.recheck(pid);
    }

    /// Records one frame becoming resident for `pid`.
    pub fn charge(&mut self, pid: u32) {
        self.rows[pid as usize].charged += 1;
        self.recheck(pid);
    }

    /// Records one frame leaving residency for `pid`.
    pub fn uncharge(&mut self, pid: u32) {
        let c = &mut self.rows[pid as usize].charged;
        debug_assert!(*c > 0, "uncharge below zero for pid {pid}");
        *c = c.saturating_sub(1);
        self.recheck(pid);
    }

    /// Re-derives `pid`'s over-cap and above-guarantee answers from its
    /// charge, updating the fleet-wide index only on a flip.
    fn recheck(&mut self, pid: u32) {
        let cap = self.cap(pid);
        let guaranteed = self.guaranteed(pid);
        let r = &mut self.rows[pid as usize];
        let over = r.charged > cap;
        if over != r.over_cap {
            r.over_cap = over;
            if over {
                self.over_cap.insert(pid);
            } else {
                self.over_cap.remove(&pid);
            }
        }
        let above = r.charged > guaranteed;
        if above != r.above_guarantee {
            r.above_guarantee = above;
            if above {
                self.above_guarantee += 1;
            } else {
                self.above_guarantee -= 1;
            }
        }
    }

    /// Exact frames currently charged to `pid`.
    pub fn charged(&self, pid: u32) -> u64 {
        self.rows.get(pid as usize).map_or(0, |r| r.charged)
    }

    /// The lowest pid charged above its cap, if any. O(log n): the
    /// over-cap set is maintained at every ledger update.
    #[inline]
    pub(crate) fn first_over_cap(&self) -> Option<u32> {
        self.over_cap.first().copied()
    }

    /// Every pid charged above its cap, lowest first.
    pub(crate) fn over_cap_pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.over_cap.iter().copied()
    }

    /// How many processes are charged above their guaranteed share.
    pub(crate) fn above_guarantee_count(&self) -> usize {
        self.above_guarantee
    }

    /// Whether the contract shields `pid` from a steal right now: some
    /// tenant has a quota, `pid` sits at or below its guaranteed share,
    /// and some process is above its own guarantee (necessarily another
    /// one, since `pid` is not). O(1).
    pub fn shields(&self, pid: u32) -> bool {
        self.any && !self.rows[pid as usize].above_guarantee && self.above_guarantee > 0
    }

    /// Sum of charged frames across every process.
    pub fn total_charged(&self) -> u64 {
        self.rows.iter().map(|r| r.charged).sum()
    }

    /// Sum of all registered guarantees.
    pub fn total_guaranteed(&self) -> u64 {
        self.rows
            .iter()
            .filter_map(|r| r.quota)
            .map(|q| q.guaranteed)
            .sum()
    }

    /// Total debit events applied (diagnostics).
    pub fn total_debits(&self) -> u64 {
        self.debits
    }

    /// Total credit events applied (diagnostics).
    pub fn total_credits(&self) -> u64 {
        self.credits
    }

    /// Test-only corruption: enters `pid` in the over-cap set while its
    /// own flag (and its charge) still say it is under cap. Exists solely
    /// for the checked-mode mutation matrix.
    pub(crate) fn corrupt_over_cap_index(&mut self, pid: u32) {
        self.over_cap.insert(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set bounded by `maxrss` with ledger rows for pids `0..n`.
    fn with_procs(maxrss: u64, n: u32) -> QuotaSet {
        let mut q = QuotaSet::new(maxrss);
        for pid in 0..n {
            q.add_process(pid);
        }
        q
    }

    #[test]
    fn empty_set_is_transparent() {
        let q = with_procs(1000, 1);
        assert!(!q.any());
        assert_eq!(q.cap(0), 1000);
        assert_eq!(q.guaranteed(0), 0);
        assert_eq!(q.debt(0), 0);
    }

    #[test]
    fn debit_and_credit_never_leave_the_burst_band() {
        let mut q = with_procs(1000, 2);
        q.set(1, TenantQuota::new(100, 40));
        assert_eq!(q.cap(1), 140);
        q.debit(1, 25);
        assert_eq!(q.cap(1), 115);
        // Debt saturates at burst: the cap never dips below the guarantee.
        q.debit(1, 1000);
        assert_eq!(q.debt(1), 40);
        assert_eq!(q.cap(1), 100);
        // Credits restore slack, saturating at zero debt.
        q.credit(1, 10);
        assert_eq!(q.cap(1), 110);
        q.credit(1, 1000);
        assert_eq!(q.debt(1), 0);
        assert_eq!(q.cap(1), 140);
        assert_eq!(q.total_debits(), 1025);
        assert_eq!(q.total_credits(), 1010);
    }

    #[test]
    fn replacing_a_quota_keeps_the_cap_at_or_above_the_guarantee() {
        let mut q = with_procs(1000, 1);
        q.set(0, TenantQuota::new(10, 8));
        q.debit(0, 8);
        q.set(0, TenantQuota::new(2, 3));
        assert_eq!(q.debt(0), 3);
        assert_eq!(q.cap(0), 2);
    }

    #[test]
    fn cap_is_still_bounded_by_maxrss() {
        let mut q = with_procs(64, 1);
        q.set(0, TenantQuota::new(50, 500));
        assert_eq!(q.cap(0), 64, "maxrss still binds");
        q.set_maxrss(10_000);
        assert_eq!(q.cap(0), 550);
    }

    #[test]
    fn debits_on_unquotad_tenants_are_noops() {
        let mut q = with_procs(1000, 2);
        q.set(1, TenantQuota::new(10, 10));
        q.debit(0, 5);
        q.credit(0, 5);
        assert_eq!(q.debt(0), 0);
        assert_eq!(q.total_debits(), 0);
    }

    #[test]
    fn charge_ledger_tracks_all_pids() {
        let mut q = with_procs(1000, 4);
        q.charge(0);
        q.charge(0);
        q.charge(3);
        q.uncharge(0);
        assert_eq!(q.charged(0), 1);
        assert_eq!(q.charged(3), 1);
        assert_eq!(q.charged(7), 0);
        assert_eq!(q.total_charged(), 2);
    }

    #[test]
    fn totals_sum_guarantees() {
        let mut q = with_procs(1000, 2);
        q.set(0, TenantQuota::new(10, 5));
        q.set(1, TenantQuota::new(20, 0));
        assert_eq!(q.total_guaranteed(), 30);
    }

    #[test]
    fn over_cap_index_follows_every_cap_input() {
        let mut q = with_procs(4, 3);
        q.set(1, TenantQuota::new(1, 2));
        for _ in 0..3 {
            q.charge(1);
        }
        assert_eq!(q.first_over_cap(), None, "at the cap is not over it");
        q.debit(1, 1);
        assert_eq!(q.first_over_cap(), Some(1), "debt tightens the cap");
        for _ in 0..5 {
            q.charge(2);
        }
        assert_eq!(q.over_cap_pids().collect::<Vec<_>>(), vec![1, 2]);
        q.credit(1, 1);
        assert_eq!(q.first_over_cap(), Some(2), "credit loosens it again");
        q.set_maxrss(8);
        assert_eq!(q.first_over_cap(), None);
        q.set_maxrss(3);
        assert_eq!(q.first_over_cap(), Some(2), "maxrss binds pid 2 only");
        q.set(1, TenantQuota::new(1, 1));
        assert_eq!(q.first_over_cap(), Some(1), "a tighter quota");
        q.set(1, TenantQuota::new(3, 0));
        q.uncharge(2);
        q.uncharge(2);
        assert_eq!(q.first_over_cap(), None);
    }

    #[test]
    fn shield_needs_a_quota_and_someone_above_guarantee() {
        let mut q = with_procs(100, 2);
        q.charge(1);
        assert!(!q.shields(0), "no quota registered: no shield");
        q.set(0, TenantQuota::new(2, 0));
        q.charge(0);
        assert_eq!(q.above_guarantee_count(), 1);
        assert!(q.shields(0), "pid 0 at its guarantee, pid 1 above its own");
        assert!(!q.shields(1), "pid 1 is above its guarantee");
        q.uncharge(1);
        assert!(!q.shields(0), "nobody above a guarantee: the shield yields");
    }

    #[test]
    fn a_quota_may_precede_its_process() {
        let mut q = with_procs(100, 1);
        q.set(2, TenantQuota::new(1, 0));
        q.add_process(1);
        q.add_process(2);
        q.charge(2);
        q.charge(2);
        assert_eq!(q.quota(2), Some(TenantQuota::new(1, 0)));
        assert_eq!(q.first_over_cap(), Some(2));
    }
}
