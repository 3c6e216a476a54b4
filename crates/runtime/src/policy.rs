//! Release policies: aggressive vs. buffered.
//!
//! "We have built run-time layers which implement two different policies
//! for handling the release requests inserted by the compiler — one
//! aggressively issues release requests to the OS at the time when they are
//! encountered, while the other buffers releases based on the
//! compiler-inserted priorities and only issues requests when necessary,
//! based on the information provided by the OS."
//!
//! Buffering structure (paper Figure 6b): requests with priority 0 are
//! issued immediately; others go into per-tag release queues. A priority
//! list maps each priority level to its queues. When current usage
//! approaches the OS-suggested upper limit, the layer issues roughly 100
//! pages starting from the lowest-priority queues, round-robin among queues
//! of equal priority.

use std::collections::{BTreeMap, VecDeque};

use vm::Vpn;

use crate::pages::PageSet;

/// Which release policy a run-time layer uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReleasePolicy {
    /// Issue every (filtered) release to the OS immediately — the paper's
    /// "R" executables.
    Aggressive,
    /// Buffer releases by priority; drain when near the memory limit — the
    /// paper's "B" executables.
    Buffered,
    /// Never release proactively: accumulate the compiler's releasable
    /// pages as *eviction candidates* the OS consults when it reclaims from
    /// this process (the VINO-style reactive alternative of §2.2, built for
    /// comparison — the paper argues it cannot protect other applications).
    Reactive,
}

/// One tag's release queue.
#[derive(Clone, Debug, Default)]
struct TagQueue {
    /// The tag's Eq. 2 priority, fixed at its first buffered page.
    priority: u32,
    /// Buffered pages, oldest first.
    pages: VecDeque<Vpn>,
    /// The same pages as a set, for coalescing.
    queued: PageSet,
}

/// The tags buffered at one priority level.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Slots of the level's tags, in registration order (round-robin).
    slots: Vec<usize>,
    /// Where the next drain of this level starts.
    cursor: usize,
}

/// The per-tag buffered release queues with their priority index.
///
/// Duplicate pages coalesce: "allowing multiple buffered releases for a
/// particular reference to be coalesced into a single entry in the queue"
/// (paper §3.3) — a page re-hinted while already queued is not queued
/// twice.
///
/// Each tag that ever buffered a page owns a slot: its queue, its
/// priority and its coalescing set sit together, found by a scan of the
/// registered tags (one per buffered release directive of the program),
/// so buffering a page hashes nothing.
#[derive(Clone, Debug, Default)]
pub struct ReleaseBuffers {
    /// Registered tags; `queues[i]` belongs to `tags[i]`.
    tags: Vec<u32>,
    queues: Vec<TagQueue>,
    /// priority → the slots at that priority.
    priolist: BTreeMap<u32, Bucket>,
    buffered: usize,
}

impl ReleaseBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages currently buffered.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Buffers one page for `tag` at `priority` (> 0; priority-0 requests
    /// are issued directly and never buffered).
    ///
    /// # Panics
    ///
    /// Panics if `priority` is zero or the tag changes priority.
    pub fn buffer(&mut self, tag: u32, priority: u32, vpn: Vpn) {
        assert!(priority > 0, "priority-0 releases are not buffered");
        let slot = match self.tags.iter().position(|&t| t == tag) {
            Some(i) => {
                let p = self.queues[i].priority;
                assert_eq!(p, priority, "tag {tag} changed priority");
                i
            }
            None => {
                let i = self.tags.len();
                self.tags.push(tag);
                self.queues.push(TagQueue {
                    priority,
                    ..TagQueue::default()
                });
                self.priolist.entry(priority).or_default().slots.push(i);
                i
            }
        };
        let q = &mut self.queues[slot];
        if !q.queued.insert(vpn) {
            return; // already queued for this tag: coalesce
        }
        q.pages.push_back(vpn);
        self.buffered += 1;
    }

    /// Drains up to `want` pages from the lowest-priority queues,
    /// round-robin among queues of equal priority.
    ///
    /// Within a queue the **most recently buffered** page is drained first:
    /// this is the MRU replacement the paper prescribes for reuse that will
    /// not fit ("keeping at least the first portion of the array in memory
    /// for future use").
    pub fn drain_lowest(&mut self, want: usize) -> Vec<Vpn> {
        let mut out = Vec::with_capacity(want.min(self.buffered));
        for bucket in self.priolist.values_mut() {
            if out.len() >= want {
                break;
            }
            let n = bucket.slots.len();
            if n == 0 {
                continue;
            }
            let mut cursor = bucket.cursor % n;
            let mut empty_streak = 0;
            while out.len() < want && empty_streak < n {
                let slot = bucket.slots[cursor];
                cursor = (cursor + 1) % n;
                match self.queues.get_mut(slot).and_then(|q| {
                    let vpn = q.pages.pop_back()?;
                    q.queued.remove(vpn);
                    Some(vpn)
                }) {
                    Some(vpn) => {
                        out.push(vpn);
                        self.buffered -= 1;
                        empty_streak = 0;
                    }
                    None => empty_streak += 1,
                }
            }
            bucket.cursor = cursor;
        }
        out
    }

    /// Drains everything (end of run).
    pub fn drain_all(&mut self) -> Vec<Vpn> {
        self.drain_lowest(usize::MAX)
    }

    /// Checked-mode coherence audit of the buffering structure: the
    /// buffered count equals the queue sizes, every priolist tag carries
    /// exactly its registered Eq. 2 priority, and the coalescing sets
    /// mirror the queues. Returns the first disagreement found.
    pub fn check_coherent(&self) -> Result<(), String> {
        let queued: usize = self.queues.iter().map(|q| q.pages.len()).sum();
        if queued != self.buffered {
            return Err(format!(
                "buffered count {} != pages actually queued {}",
                self.buffered, queued
            ));
        }
        for (&prio, bucket) in &self.priolist {
            for &slot in &bucket.slots {
                match (self.tags.get(slot), self.queues.get(slot)) {
                    (Some(_), Some(q)) if q.priority == prio => {}
                    (Some(tag), Some(q)) => {
                        return Err(format!(
                            "tag {tag} sits in priority-{prio} bucket but is \
                             registered at Eq. 2 priority {}",
                            q.priority
                        ));
                    }
                    _ => {
                        return Err(format!(
                            "slot {slot} sits in priority-{prio} bucket but has \
                             no registered tag"
                        ));
                    }
                }
            }
        }
        for (slot, (tag, q)) in self.tags.iter().zip(&self.queues).enumerate() {
            if !self
                .priolist
                .get(&q.priority)
                .is_some_and(|b| b.slots.contains(&slot))
            {
                return Err(format!(
                    "tag {tag} registered at priority {} but missing from \
                     that priority's bucket",
                    q.priority
                ));
            }
            if q.pages.len() != q.queued.len() {
                return Err(format!(
                    "tag {tag} queue holds {} pages but its coalescing set \
                     holds {}",
                    q.pages.len(),
                    q.queued.len()
                ));
            }
            if let Some(vpn) = q.pages.iter().find(|&&v| !q.queued.contains(v)) {
                return Err(format!(
                    "tag {tag} queue holds {vpn} absent from its \
                     coalescing set"
                ));
            }
        }
        Ok(())
    }

    /// Test-only corruption: moves one tag into the wrong priority bucket
    /// (or plants an orphan bucket entry when nothing is buffered yet).
    /// Exists solely for the checked-mode mutation matrix.
    #[doc(hidden)]
    pub fn corrupt_priority_order(&mut self) {
        let victim = self
            .priolist
            .iter()
            .find(|(_, b)| !b.slots.is_empty())
            .map(|(&prio, b)| (prio, b.slots[0]));
        match victim {
            Some((prio, slot)) => {
                if let Some(b) = self.priolist.get_mut(&prio) {
                    b.slots.retain(|&s| s != slot);
                }
                self.priolist.entry(prio + 1).or_default().slots.push(slot);
            }
            None => {
                self.priolist.entry(1).or_default().slots.push(usize::MAX);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_and_count() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 1, Vpn(10));
        b.buffer(1, 1, Vpn(11));
        b.buffer(2, 2, Vpn(20));
        assert_eq!(b.buffered(), 3);
    }

    #[test]
    fn drain_prefers_lowest_priority() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 2, Vpn(20)); // higher priority: keep longer
        b.buffer(2, 1, Vpn(10)); // lower priority: release first
        b.buffer(2, 1, Vpn(11));
        let out = b.drain_lowest(2);
        assert_eq!(out, vec![Vpn(11), Vpn(10)], "MRU within a queue");
        assert_eq!(b.buffered(), 1);
        // Exhausting low priority falls through to higher.
        assert_eq!(b.drain_lowest(5), vec![Vpn(20)]);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn round_robin_among_equal_priority_tags() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 1, Vpn(100));
        b.buffer(1, 1, Vpn(101));
        b.buffer(2, 1, Vpn(200));
        b.buffer(2, 1, Vpn(201));
        let out = b.drain_lowest(4);
        // Alternates between the two tags, newest first within each.
        assert_eq!(out, vec![Vpn(101), Vpn(201), Vpn(100), Vpn(200)]);
    }

    #[test]
    fn duplicate_pages_coalesce_per_tag() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 1, Vpn(10));
        b.buffer(1, 1, Vpn(10)); // coalesced
        b.buffer(2, 1, Vpn(10)); // different tag: separate entry
        assert_eq!(b.buffered(), 2);
        // After draining, the page may be buffered again.
        assert_eq!(b.drain_all().len(), 2);
        b.buffer(1, 1, Vpn(10));
        assert_eq!(b.buffered(), 1);
    }

    #[test]
    fn drain_respects_want() {
        let mut b = ReleaseBuffers::new();
        for i in 0..10 {
            b.buffer(1, 1, Vpn(i));
        }
        assert_eq!(b.drain_lowest(3).len(), 3);
        assert_eq!(b.buffered(), 7);
    }

    #[test]
    fn drain_all_empties() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 3, Vpn(1));
        b.buffer(2, 1, Vpn(2));
        let all = b.drain_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], Vpn(2), "lowest priority first even in drain_all");
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    #[should_panic(expected = "priority-0")]
    fn zero_priority_buffer_panics() {
        ReleaseBuffers::new().buffer(1, 0, Vpn(0));
    }

    #[test]
    fn rr_cursor_persists_across_drains() {
        let mut b = ReleaseBuffers::new();
        b.buffer(1, 1, Vpn(100));
        b.buffer(2, 1, Vpn(200));
        b.buffer(1, 1, Vpn(101));
        b.buffer(2, 1, Vpn(201));
        assert_eq!(b.drain_lowest(1), vec![Vpn(101)]);
        assert_eq!(b.drain_lowest(1), vec![Vpn(201)], "cursor advanced");
    }
}
