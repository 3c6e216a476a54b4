//! A small TLB model.
//!
//! The R10000 has a 64-entry software-managed TLB. We model it as a FIFO
//! of virtual page numbers; a miss costs a software refill. The
//! PagingDirected PM deliberately does **not** insert entries for prefetched
//! pages ("prevents mappings for prefetched pages from displacing TLB
//! entries which are still in use"), so prefetch completions leave the TLB
//! untouched — only the first real reference installs an entry.
//!
//! Membership is a bit in each page's [`Pte`](crate::pagetable::Pte)
//! (`in_tlb`), so a lookup is one bit test and no scan. The FIFO ring
//! exists only to pick the eviction victim: it is a plain vector of at
//! most `capacity` entries, used as a ring once full, with `head` the
//! oldest entry. A miss sets the page's bit, overwrites the ring's head
//! and clears the evicted page's bit. Invalidating a page whose bit is
//! clear returns at once; only a page actually in the TLB costs a search,
//! which straightens the ring back into FIFO order before removing the
//! entry, so `head` is 0 whenever the TLB is not full. Every method takes
//! the page table, so the ring and the bits cannot be updated apart.
//! Storage grows only with the entries actually installed.

use crate::addr::Vpn;
use crate::pagetable::PageTable;

/// A FIFO TLB of fixed capacity.
#[derive(Clone, Debug)]
pub struct Tlb {
    capacity: usize,
    /// Installed entries, oldest at `head`, in insertion order around the
    /// ring.
    entries: Vec<Vpn>,
    /// Slot of the oldest entry; 0 unless the TLB is full.
    head: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB of `capacity` entries. Storage grows with the
    /// entries actually installed: a fleet of small processes never
    /// touches most of its 64 slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            capacity,
            entries: Vec::new(),
            head: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// References `vpn`, whose entry in `pt` must exist: returns `true` on
    /// hit; on miss, installs the entry (evicting FIFO) and returns
    /// `false`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` lies below the page table's base.
    #[inline]
    pub fn touch(&mut self, pt: &mut PageTable, vpn: Vpn) -> bool {
        let e = pt.entry(vpn);
        if e.in_tlb {
            self.hits += 1;
            return true;
        }
        e.in_tlb = true;
        self.install(pt, vpn);
        false
    }

    /// The miss path of [`Tlb::touch`]: `vpn`'s bit is already set; put
    /// it in the ring and clear the bit of the entry it evicts.
    fn install(&mut self, pt: &mut PageTable, vpn: Vpn) {
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(vpn);
            return;
        }
        let evicted = std::mem::replace(&mut self.entries[self.head], vpn);
        self.head = if self.head + 1 == self.capacity {
            0
        } else {
            self.head + 1
        };
        if let Some(e) = pt.get_mut(evicted) {
            e.in_tlb = false;
        }
    }

    /// Drops the entry for `vpn` if present (page invalidated or
    /// unmapped). O(1) when the page is not in the TLB.
    #[inline]
    pub fn invalidate(&mut self, pt: &mut PageTable, vpn: Vpn) {
        let Some(e) = pt.get_mut(vpn) else {
            return;
        };
        if !e.in_tlb {
            return;
        }
        e.in_tlb = false;
        self.remove(vpn);
    }

    /// Removes `vpn` from the ring, straightening it into FIFO order.
    fn remove(&mut self, vpn: Vpn) {
        let Some(i) = self.entries.iter().position(|&v| v == vpn) else {
            return;
        };
        let len = self.entries.len();
        self.entries.rotate_left(self.head);
        self.entries.remove((i + len - self.head) % len);
        self.head = 0;
    }

    /// The installed entries, in ring order (not FIFO order).
    pub fn entries(&self) -> &[Vpn] {
        &self.entries
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Test-only corruption: clears the TLB bit of the newest entry but
    /// leaves the entry in the ring, as an invalidation that dropped its
    /// ring update would. The next touch of the page installs it a second
    /// time. Exists solely for the checked-mode mutation matrix. Returns
    /// the page, or `None` when the TLB is empty.
    #[doc(hidden)]
    pub fn corrupt_drop_invalidation(&mut self, pt: &mut PageTable) -> Option<Vpn> {
        let newest = if self.head == 0 {
            *self.entries.last()?
        } else {
            self.entries[self.head - 1]
        };
        pt.entry(newest).in_tlb = false;
        Some(newest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        pt.entry(Vpn(n));
        pt
    }

    #[test]
    fn hit_after_install() {
        let (mut tlb, mut pt) = (Tlb::new(4), table(8));
        assert!(!tlb.touch(&mut pt, Vpn(1)), "first touch misses");
        assert!(pt.get(Vpn(1)).in_tlb);
        assert!(tlb.touch(&mut pt, Vpn(1)), "second touch hits");
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn fifo_eviction() {
        let (mut tlb, mut pt) = (Tlb::new(2), table(8));
        tlb.touch(&mut pt, Vpn(1));
        tlb.touch(&mut pt, Vpn(2));
        tlb.touch(&mut pt, Vpn(3)); // evicts 1
        assert!(!pt.get(Vpn(1)).in_tlb, "the evicted page's bit is cleared");
        assert!(!tlb.touch(&mut pt, Vpn(1)), "1 was evicted");
        assert!(tlb.touch(&mut pt, Vpn(3)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let (mut tlb, mut pt) = (Tlb::new(4), table(8));
        tlb.touch(&mut pt, Vpn(7));
        tlb.invalidate(&mut pt, Vpn(7));
        assert!(!pt.get(Vpn(7)).in_tlb);
        assert!(tlb.entries().is_empty());
        assert!(!tlb.touch(&mut pt, Vpn(7)));
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let (mut tlb, mut pt) = (Tlb::new(2), table(8));
        tlb.touch(&mut pt, Vpn(1));
        tlb.invalidate(&mut pt, Vpn(5));
        tlb.invalidate(&mut pt, Vpn(99)); // past the table's end
        assert!(tlb.touch(&mut pt, Vpn(1)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
