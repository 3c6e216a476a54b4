//! The global free list, with rescue support.
//!
//! Frames are allocated from the **head** and freed pages are appended at
//! the **tail** — the paper's releaser "places released pages at the end of
//! the free list, giving pages that were released too early a chance to be
//! rescued". A *rescue* removes a specific frame from the middle of the
//! list when its former owner faults on the page before the frame is
//! reallocated; the page returns to the owner without any I/O.
//!
//! Removal from the middle uses lazy deletion: rescued frames are flagged in
//! the frame table and skipped when they surface at the head, so every
//! operation stays `O(1)` amortized.
//!
//! A freed frame that keeps its content is found again through its page:
//! the page-table entry of the former owner records the frame
//! ([`Pte::rescue`]), reached through the [`RescueLinks`] the caller
//! passes in. No index keyed by `(pid, vpn)` is kept, so freeing,
//! allocating and rescuing each cost one array read, with no hashing.

use std::collections::VecDeque;

use crate::addr::{Pfn, Pid, Vpn};
use crate::frame::FrameTable;
use crate::pagetable::PageTable;
#[cfg(doc)]
use crate::pagetable::Pte;

/// Where each page's rescue link lives: the [`Pte::rescue`] field of the
/// page's entry, or whatever stands in for it.
pub trait RescueLinks {
    /// The rescue link of `(pid, vpn)`, or `None` when the page has no
    /// entry to hold one (it was never mapped, so it has no frame).
    fn link(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut Option<Pfn>>;
}

/// Page tables indexed by pid hold their pages' links.
impl RescueLinks for [PageTable] {
    #[inline]
    fn link(&mut self, pid: Pid, vpn: Vpn) -> Option<&mut Option<Pfn>> {
        let e = self.get_mut(pid.0 as usize)?.get_mut(vpn)?;
        Some(&mut e.rescue)
    }
}

/// The global free list.
#[derive(Clone, Debug, Default)]
pub struct FreeList {
    queue: VecDeque<Pfn>,
    live: usize,
}

impl FreeList {
    /// Creates an empty free list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Populates the list with every frame of a fresh frame table.
    pub fn fill_initial(&mut self, frames: &FrameTable) {
        for (pfn, info) in frames.iter() {
            debug_assert!(info.on_free_list);
            self.queue.push_back(pfn);
            self.live += 1;
        }
    }

    /// Number of frames available for allocation.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether any frame is available.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Appends a freed frame at the tail.
    ///
    /// If the frame retains a content identity (`owner` set in the frame
    /// table) and `rescuable` is true, the owner's page links to it for
    /// rescue; a newer link replaces an older one.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the frame is already on the list.
    pub fn push_freed(
        &mut self,
        frames: &mut FrameTable,
        links: &mut (impl RescueLinks + ?Sized),
        pfn: Pfn,
        rescuable: bool,
    ) {
        let info = frames.get_mut(pfn);
        debug_assert!(!info.on_free_list, "double free of {pfn}");
        info.on_free_list = true;
        if !rescuable {
            info.owner = None;
        }
        if let Some((pid, vpn)) = info.owner {
            // A newer frame for the same (pid, vpn) shouldn't exist, but an
            // older stale mapping might if the page cycled quickly; the
            // newest frame wins.
            if let Some(link) = links.link(pid, vpn) {
                *link = Some(pfn);
            }
        }
        self.queue.push_back(pfn);
        self.live += 1;
    }

    /// Allocates a frame from the head of the list.
    ///
    /// The frame loses its previous content identity (no longer
    /// rescuable). Returns `None` when the list is empty.
    pub fn alloc(
        &mut self,
        frames: &mut FrameTable,
        links: &mut (impl RescueLinks + ?Sized),
    ) -> Option<Pfn> {
        while let Some(pfn) = self.queue.pop_front() {
            let info = frames.get_mut(pfn);
            if !info.on_free_list {
                // Lazily deleted (rescued earlier); skip.
                continue;
            }
            info.on_free_list = false;
            if let Some((pid, vpn)) = info.owner.take() {
                // Only clear the link if it still names this frame.
                if let Some(link) = links.link(pid, vpn).filter(|l| **l == Some(pfn)) {
                    *link = None;
                }
            }
            self.live -= 1;
            return Some(pfn);
        }
        None
    }

    /// Attempts to rescue the frame holding `(pid, vpn)` from the list.
    ///
    /// On success the frame is removed from the list (lazily) and returned
    /// still holding its content; the caller re-maps it.
    pub fn rescue(
        &mut self,
        frames: &mut FrameTable,
        links: &mut (impl RescueLinks + ?Sized),
        pid: Pid,
        vpn: Vpn,
    ) -> Option<Pfn> {
        let pfn = links.link(pid, vpn)?.take()?;
        let info = frames.get_mut(pfn);
        if !info.on_free_list || info.owner != Some((pid, vpn)) {
            // Stale link: the frame was reallocated meanwhile.
            return None;
        }
        info.on_free_list = false;
        self.live -= 1;
        // The queue entry remains and is skipped when it reaches the head.
        Some(pfn)
    }

    /// Test-only corruption: silently drops one live frame from the list
    /// while the frame table still believes it is free (a leaked frame).
    /// Exists solely for the checked-mode mutation matrix. Returns false
    /// when the list has no live entry to leak.
    #[doc(hidden)]
    pub fn corrupt_leak_frame(&mut self, frames: &FrameTable) -> bool {
        let Some(idx) = self
            .queue
            .iter()
            .position(|&pfn| frames.get(pfn).on_free_list)
        else {
            return false;
        };
        self.queue.remove(idx);
        self.live -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame table of `n` free frames, its free list, and three processes'
    /// page tables with entries for pages 0..=8.
    fn setup(n: usize) -> (FrameTable, FreeList, Vec<PageTable>) {
        let frames = FrameTable::new(n);
        let mut free = FreeList::new();
        free.fill_initial(&frames);
        let mut pts = vec![PageTable::new(), PageTable::new(), PageTable::new()];
        for pt in &mut pts {
            pt.entry(Vpn(8));
        }
        (frames, free, pts)
    }

    fn take(frames: &mut FrameTable, free: &mut FreeList, pts: &mut [PageTable]) -> Pfn {
        free.alloc(frames, pts).expect("frame available")
    }

    #[test]
    fn initial_fill_and_alloc_order() {
        let (mut frames, mut free, mut pts) = setup(3);
        assert_eq!(free.live(), 3);
        assert_eq!(take(&mut frames, &mut free, &mut pts), Pfn(0));
        assert_eq!(take(&mut frames, &mut free, &mut pts), Pfn(1));
        assert_eq!(take(&mut frames, &mut free, &mut pts), Pfn(2));
        assert!(free.alloc(&mut frames, &mut pts[..]).is_none());
        assert_eq!(free.live(), 0);
    }

    #[test]
    fn freed_pages_go_to_tail() {
        let (mut frames, mut free, mut pts) = setup(2);
        let a = take(&mut frames, &mut free, &mut pts);
        frames.get_mut(a).owner = Some((Pid(1), Vpn(7)));
        free.push_freed(&mut frames, &mut pts[..], a, true);
        // Tail order: the untouched frame 1 comes out before the freed one.
        assert_eq!(take(&mut frames, &mut free, &mut pts), Pfn(1));
        assert_eq!(take(&mut frames, &mut free, &mut pts), a);
    }

    #[test]
    fn rescue_returns_content_frame() {
        let (mut frames, mut free, mut pts) = setup(2);
        let a = take(&mut frames, &mut free, &mut pts);
        frames.get_mut(a).owner = Some((Pid(1), Vpn(7)));
        free.push_freed(&mut frames, &mut pts[..], a, true);
        assert_eq!(
            pts[1].get(Vpn(7)).rescue,
            Some(a),
            "the page links its frame"
        );
        let rescued = free
            .rescue(&mut frames, &mut pts[..], Pid(1), Vpn(7))
            .unwrap();
        assert_eq!(rescued, a);
        assert_eq!(pts[1].get(Vpn(7)).rescue, None, "the rescue took the link");
        assert_eq!(free.live(), 1);
        // The lazily deleted entry is skipped on allocation.
        assert_eq!(take(&mut frames, &mut free, &mut pts), Pfn(1));
        assert!(free.alloc(&mut frames, &mut pts[..]).is_none());
    }

    #[test]
    fn allocation_clears_identity() {
        let (mut frames, mut free, mut pts) = setup(1);
        let a = take(&mut frames, &mut free, &mut pts);
        frames.get_mut(a).owner = Some((Pid(2), Vpn(3)));
        free.push_freed(&mut frames, &mut pts[..], a, true);
        let b = take(&mut frames, &mut free, &mut pts);
        assert_eq!(a, b);
        assert!(frames.get(b).owner.is_none());
        assert_eq!(
            pts[2].get(Vpn(3)).rescue,
            None,
            "allocation cleared the link"
        );
        assert!(free
            .rescue(&mut frames, &mut pts[..], Pid(2), Vpn(3))
            .is_none());
    }

    #[test]
    fn non_rescuable_free_drops_identity() {
        let (mut frames, mut free, mut pts) = setup(1);
        let a = take(&mut frames, &mut free, &mut pts);
        frames.get_mut(a).owner = Some((Pid(2), Vpn(3)));
        free.push_freed(&mut frames, &mut pts[..], a, false);
        assert_eq!(pts[2].get(Vpn(3)).rescue, None);
        assert!(frames.get(a).owner.is_none());
    }

    #[test]
    fn live_count_is_conserved() {
        let (mut frames, mut free, mut pts) = setup(10);
        let total = 10;
        let mut held = Vec::new();
        for _ in 0..6 {
            held.push(take(&mut frames, &mut free, &mut pts));
        }
        assert_eq!(free.live() + held.len(), total);
        for pfn in held.drain(..3) {
            free.push_freed(&mut frames, &mut pts[..], pfn, false);
        }
        assert_eq!(free.live(), 7);
        assert_eq!(frames.allocated_count(), 3);
    }

    #[test]
    fn rescue_after_realloc_fails_cleanly() {
        let (mut frames, mut free, mut pts) = setup(1);
        let a = take(&mut frames, &mut free, &mut pts);
        frames.get_mut(a).owner = Some((Pid(1), Vpn(1)));
        free.push_freed(&mut frames, &mut pts[..], a, true);
        let _b = take(&mut frames, &mut free, &mut pts); // reallocated to someone else
        assert!(free
            .rescue(&mut frames, &mut pts[..], Pid(1), Vpn(1))
            .is_none());
    }

    #[test]
    fn stale_link_is_refused() {
        // A link left naming a reallocated frame (only a corruption can
        // leave one) is taken and refused, exactly as a stale index entry
        // was.
        let (mut frames, mut free, mut pts) = setup(2);
        let a = take(&mut frames, &mut free, &mut pts);
        pts[1].entry(Vpn(4)).rescue = Some(a);
        assert!(free
            .rescue(&mut frames, &mut pts[..], Pid(1), Vpn(4))
            .is_none());
        assert_eq!(pts[1].get(Vpn(4)).rescue, None);
        assert_eq!(free.live(), 1);
    }

    #[test]
    fn pages_without_an_entry_have_no_link() {
        let (mut frames, mut free, mut pts) = setup(1);
        assert!(free
            .rescue(&mut frames, &mut pts[..], Pid(0), Vpn(1 << 40))
            .is_none());
        assert!(free
            .rescue(&mut frames, &mut pts[..], Pid(9), Vpn(1))
            .is_none());
        assert_eq!(pts[0].get(Vpn(1 << 40)).rescue, None);
    }
}
