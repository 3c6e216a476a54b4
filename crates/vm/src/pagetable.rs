//! Per-process page tables.
//!
//! The simulated hardware is MIPS-like: **no reference bit**. The paging
//! daemon samples references by clearing `valid` on resident pages; the next
//! touch traps (a *soft fault*), revalidates, and thereby proves the page is
//! live. The same trick backs the PagingDirected release path: a release
//! request invalidates the PTE so that any touch between the request and the
//! releaser servicing it is observable and cancels the release.

use sim_core::SimTime;

use crate::addr::{Pfn, Vpn};
use disk::SwapSlot;

/// Why a resident PTE is currently invalid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvalidReason {
    /// The paging daemon cleared `valid` to sample the reference bit in
    /// software. Revalidation counts as a Figure 8 soft fault.
    DaemonSample,
    /// A release request cleared `valid`; a touch before the releaser runs
    /// cancels the release.
    ReleasePending,
    /// The page was prefetched and has not been referenced yet (the PM does
    /// not fully validate prefetched pages nor insert TLB entries).
    Prefetched,
}

/// A page-table entry.
#[derive(Clone, Copy, Debug)]
pub struct Pte {
    /// The backing frame while resident.
    pub pfn: Option<Pfn>,
    /// Hardware-valid: a touch of a resident invalid page traps.
    pub valid: bool,
    /// Why the entry is invalid while resident.
    pub invalid_reason: Option<InvalidReason>,
    /// Dirty relative to swap.
    pub dirty: bool,
    /// For pages the daemon's clock has sampled: still unreferenced.
    /// Set on the sampling pass, cleared by any touch; a page whose flag is
    /// still set on the next pass is stolen.
    pub clock_sampled: bool,
    /// Hardware reference bit (only meaningful when the machine is
    /// configured with `hardware_refbits`): set by every touch, cleared by
    /// the daemon's sampling pass without invalidating the PTE.
    pub hw_referenced: bool,
    /// When a prefetch in flight will have arrived (touches before this
    /// stall on the I/O).
    pub arrives_at: SimTime,
    /// Last reference (touch) time.
    pub last_ref: SimTime,
    /// When a release request was made for this page, if one is pending.
    pub release_requested: Option<SimTime>,
    /// The swap slot holding this page's backing copy, once assigned.
    pub swap_slot: Option<SwapSlot>,
    /// Whether the page has ever been materialized (zero-filled or paged
    /// in). Untouched zero-fill pages have no content anywhere.
    pub materialized: bool,
    /// Whether the process's TLB holds this page. Maintained only by
    /// [`crate::tlb::Tlb`], whose ring holds exactly the pages with this
    /// bit set.
    pub in_tlb: bool,
    /// While the page is not resident: the free-listed frame still holding
    /// its content, which a fault can rescue without I/O. Maintained only
    /// by [`crate::freelist::FreeList`], which clears the link when it
    /// reallocates the frame.
    pub rescue: Option<Pfn>,
}

impl Default for Pte {
    fn default() -> Self {
        Pte {
            pfn: None,
            valid: false,
            invalid_reason: None,
            dirty: false,
            clock_sampled: false,
            hw_referenced: false,
            arrives_at: SimTime::ZERO,
            last_ref: SimTime::ZERO,
            release_requested: None,
            swap_slot: None,
            materialized: false,
            in_tlb: false,
            rescue: None,
        }
    }
}

impl Pte {
    /// Whether the page is resident in physical memory.
    #[inline]
    pub fn resident(&self) -> bool {
        self.pfn.is_some()
    }
}

/// Why a page-table operation could not be performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageTableError {
    /// The page lies outside the table: below its base, or past the
    /// highest entry ever written.
    Unmapped(Vpn),
    /// The page has an entry but no backing frame.
    NotResident(Vpn),
}

impl std::fmt::Display for PageTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageTableError::Unmapped(vpn) => write!(f, "unmap of unmapped {vpn}"),
            PageTableError::NotResident(vpn) => {
                write!(f, "unmap of non-resident page {vpn}")
            }
        }
    }
}

impl std::error::Error for PageTableError {}

/// A per-process page table: one dense array of entries indexed by
/// `vpn - base`, as a hardware page table is indexed by VPN.
///
/// `base` is the process's first VPN. The array grows lazily to the
/// highest entry written; regions are handed out contiguously (with small
/// guard gaps), so the table stays dense. Entries past the end read as
/// [`Pte::default`].
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    base: u64,
    entries: Vec<Pte>,
    resident: u64,
}

impl PageTable {
    /// Creates an empty table whose first VPN is 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table whose first VPN is `base`.
    pub fn with_base(base: Vpn) -> Self {
        PageTable {
            base: base.0,
            ..Self::default()
        }
    }

    /// The table's first VPN.
    pub fn base(&self) -> Vpn {
        Vpn(self.base)
    }

    /// Index of `vpn` in `entries` (`None` below the base).
    #[inline]
    fn index(&self, vpn: Vpn) -> Option<usize> {
        vpn.0
            .checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
    }

    /// Looks up an entry; entries never written read as the default
    /// (non-resident).
    pub fn get(&self, vpn: Vpn) -> Pte {
        self.get_ref(vpn).copied().unwrap_or_default()
    }

    /// The entry of `vpn` by reference, if it was ever written; entries
    /// never written read as [`Pte::default`] through [`PageTable::get`].
    #[inline]
    pub fn get_ref(&self, vpn: Vpn) -> Option<&Pte> {
        self.index(vpn).and_then(|i| self.entries.get(i))
    }

    /// Mutable access to the entry of `vpn` if it was ever written,
    /// without growing the table.
    #[inline]
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.index(vpn).and_then(|i| self.entries.get_mut(i))
    }

    /// Mutable entry access, growing the table to cover `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies below the table's base.
    pub fn entry(&mut self, vpn: Vpn) -> &mut Pte {
        let i = self
            .index(vpn)
            .unwrap_or_else(|| panic!("{vpn} lies below the page table's base"));
        if i >= self.entries.len() {
            self.entries.resize(i + 1, Pte::default());
        }
        &mut self.entries[i]
    }

    /// Number of resident pages (the process RSS in pages).
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Marks `vpn` resident in `pfn`. Maintains the RSS count.
    ///
    /// # Panics
    ///
    /// Panics (debug) if already resident.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn) {
        let e = self.entry(vpn);
        debug_assert!(e.pfn.is_none(), "double map of {vpn}");
        e.pfn = Some(pfn);
        self.resident += 1;
    }

    /// Removes the residency of `vpn`, returning the frame it occupied.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident; use [`PageTable::try_unmap`] on
    /// paths where that is a recoverable condition.
    pub fn unmap(&mut self, vpn: Vpn) -> Pfn {
        self.try_unmap(vpn).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PageTable::unmap`]: removes the residency of `vpn`,
    /// returning the frame it occupied, or the reason it could not. The
    /// entry's TLB bit is left for [`crate::tlb::Tlb::invalidate`] to
    /// clear together with the ring.
    pub fn try_unmap(&mut self, vpn: Vpn) -> Result<Pfn, PageTableError> {
        let e = self.get_mut(vpn).ok_or(PageTableError::Unmapped(vpn))?;
        let pfn = e.pfn.take().ok_or(PageTableError::NotResident(vpn))?;
        e.valid = false;
        e.invalid_reason = None;
        e.clock_sampled = false;
        e.release_requested = None;
        self.resident -= 1;
        Ok(pfn)
    }

    /// Iterates over every written entry in VPN order, resident or not.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
        let base = self.base;
        self.entries
            .iter()
            .enumerate()
            .map(move |(i, e)| (Vpn(base + i as u64), e))
    }

    /// Iterates over the resident entries in VPN order.
    pub fn iter_resident(&self) -> impl Iterator<Item = (Vpn, &Pte)> + '_ {
        self.iter().filter(|(_, e)| e.resident())
    }

    /// Test-only corruption: desynchronizes the cached resident counter
    /// from the entries (models a skipped Eq. 1 usage decrement). Exists
    /// solely for the checked-mode mutation matrix.
    #[doc(hidden)]
    pub fn corrupt_resident_count(&mut self) {
        self.resident += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_entry_is_nonresident() {
        let pt = PageTable::new();
        let e = pt.get(Vpn(5));
        assert!(!e.resident());
        assert!(!e.valid);
        assert!(!e.materialized);
    }

    #[test]
    fn map_unmap_tracks_rss() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(10));
        pt.map(Vpn(2), Pfn(11));
        assert_eq!(pt.resident_pages(), 2);
        assert_eq!(pt.unmap(Vpn(1)), Pfn(10));
        assert_eq!(pt.resident_pages(), 1);
        assert!(!pt.get(Vpn(1)).resident());
        assert!(pt.get(Vpn(2)).resident());
    }

    #[test]
    fn unmap_clears_transient_state() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(0));
        {
            let e = pt.entry(Vpn(1));
            e.valid = true;
            e.clock_sampled = true;
            e.release_requested = Some(SimTime::from_nanos(5));
            e.invalid_reason = Some(InvalidReason::DaemonSample);
        }
        pt.unmap(Vpn(1));
        let e = pt.get(Vpn(1));
        assert!(!e.valid);
        assert!(!e.clock_sampled);
        assert!(e.release_requested.is_none());
        assert!(e.invalid_reason.is_none());
    }

    #[test]
    #[should_panic(expected = "unmap of unmapped")]
    fn unmap_absent_panics() {
        PageTable::new().unmap(Vpn(9));
    }

    #[test]
    fn try_unmap_reports_typed_errors() {
        let mut pt = PageTable::new();
        assert_eq!(pt.try_unmap(Vpn(9)), Err(PageTableError::Unmapped(Vpn(9))));
        pt.entry(Vpn(9)).dirty = true; // materialized but not resident
        assert_eq!(
            pt.try_unmap(Vpn(9)),
            Err(PageTableError::NotResident(Vpn(9)))
        );
        pt.map(Vpn(9), Pfn(3));
        assert_eq!(pt.try_unmap(Vpn(9)), Ok(Pfn(3)));
        assert_eq!(pt.resident_pages(), 0);
    }

    #[test]
    fn entry_materializes() {
        let mut pt = PageTable::new();
        pt.entry(Vpn(3)).dirty = true;
        assert!(pt.get(Vpn(3)).dirty, "the written field persists");
        assert_eq!(
            pt.iter_resident().count(),
            0,
            "a materialized but non-resident entry is skipped"
        );
        pt.map(Vpn(5), Pfn(1));
        let resident: Vec<Vpn> = pt.iter_resident().map(|(v, _)| v).collect();
        assert_eq!(resident, vec![Vpn(5)]);
    }

    #[test]
    fn based_table_reads_below_base_as_default() {
        let mut pt = PageTable::with_base(Vpn(0x1000));
        pt.map(Vpn(0x1002), Pfn(4));
        assert!(!pt.get(Vpn(2)).resident());
        assert!(!pt.get(Vpn(0x2000)).resident(), "past the end");
        assert_eq!(pt.try_unmap(Vpn(5)), Err(PageTableError::Unmapped(Vpn(5))));
        let resident: Vec<Vpn> = pt.iter_resident().map(|(v, _)| v).collect();
        assert_eq!(resident, vec![Vpn(0x1002)]);
    }

    #[test]
    #[should_panic(expected = "below the page table's base")]
    fn entry_below_base_panics() {
        PageTable::with_base(Vpn(0x1000)).entry(Vpn(1));
    }
}
