//! A small TLB model.
//!
//! The R10000 has a 64-entry software-managed TLB. We model it as a FIFO
//! of virtual page numbers; a miss costs a software refill. The
//! PagingDirected PM deliberately does **not** insert entries for prefetched
//! pages ("prevents mappings for prefetched pages from displacing TLB
//! entries which are still in use"), so prefetch completions leave the TLB
//! untouched — only the first real reference installs an entry.
//!
//! The FIFO is a plain vector of at most `capacity` entries, used as a
//! ring once full: `head` is the oldest entry, and a miss overwrites it.
//! A lookup compares the entries in blocks of sixteen, ORing the results
//! within a block with no branch, so each block is a few vector
//! instructions; it stops after the block that holds the page. Most
//! touches of the paper's gather loops miss and must compare every entry
//! anyway, while a fleet task re-sweeping its pages hits after half the
//! blocks on average. An invalidation, which is rare, straightens the
//! ring back into FIFO order before it removes the entry, so `head` is 0
//! whenever the TLB is not full. Storage grows only with the entries
//! actually installed.

use crate::addr::Vpn;

/// Entries compared together, with no branch between them.
const BLOCK: usize = 16;

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

    /// References `vpn`: returns `true` on hit; on miss, installs the entry
    /// (evicting FIFO) and returns `false`.
    pub fn touch(&mut self, vpn: Vpn) -> bool {
        let mut blocks = self.entries.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        let hit =
            blocks.any(|b| b.iter().fold(false, |hit, &v| hit | (v == vpn))) || tail.contains(&vpn);
        if hit {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(vpn);
        } else {
            self.entries[self.head] = vpn;
            self.head = if self.head + 1 == self.capacity {
                0
            } else {
                self.head + 1
            };
        }
        false
    }

    /// Drops the entry for `vpn` if present (page invalidated or unmapped).
    pub fn invalidate(&mut self, vpn: Vpn) {
        let Some(i) = self.entries.iter().position(|&v| v == vpn) else {
            return;
        };
        let len = self.entries.len();
        self.entries.rotate_left(self.head);
        self.entries.remove((i + len - self.head) % len);
        self.head = 0;
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.touch(Vpn(1)), "first touch misses");
        assert!(tlb.touch(Vpn(1)), "second touch hits");
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.touch(Vpn(1));
        tlb.touch(Vpn(2));
        tlb.touch(Vpn(3)); // evicts 1
        assert!(!tlb.touch(Vpn(1)), "1 was evicted");
        assert!(tlb.touch(Vpn(3)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.touch(Vpn(7));
        tlb.invalidate(Vpn(7));
        assert!(!tlb.touch(Vpn(7)));
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let mut tlb = Tlb::new(2);
        tlb.touch(Vpn(1));
        tlb.invalidate(Vpn(99));
        assert!(tlb.touch(Vpn(1)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
