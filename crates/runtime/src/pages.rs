//! Dense side tables for the hint layer's per-page state.
//!
//! The hint layer keeps a little state per page: which tag hinted a
//! release or prefetch of it, and whether a release queue already holds
//! it. Pages are dense within a process's address space, so each table is
//! an array indexed by `vpn - base`, grown lazily to the highest page
//! written; a lookup is one subtraction, one compare and one read, with no
//! hashing. Pages far outside the dense window (a corrupt or adversarial
//! hint can name any page) go to a hash map, which stays empty on every
//! ordinary run; a lookup in an empty map returns before hashing.

use sim_core::hash::{HashMap, HashSet};
use vm::{PageRange, Vpn};

/// The tag responsible for each page's last hint, if any.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageTags {
    /// First VPN of `slots`: the address space's base, fixed at the first
    /// insert.
    base: u64,
    /// One tag per page from `base`, [`PageTags::NONE`] where unset.
    slots: Vec<u32>,
    /// Pages outside the address space, and the tag [`PageTags::NONE`].
    far: HashMap<Vpn, u32>,
}

impl PageTags {
    /// The slot value of a page with no tag.
    const NONE: u32 = u32::MAX;

    /// Index of `vpn` in `slots`, if it lies inside the grown window.
    #[inline]
    fn index(&self, vpn: Vpn) -> Option<usize> {
        let i = vpn.0.wrapping_sub(self.base);
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// Records `tag` for `vpn`, replacing any earlier tag. Pages inside
    /// `space` (the process's address space) go to the dense array.
    #[inline]
    pub(crate) fn insert(&mut self, space: PageRange, vpn: Vpn, tag: u32) {
        if self.slots.is_empty() {
            self.base = space.start.0;
        }
        if space.contains(vpn) && vpn.0 >= self.base && tag != Self::NONE {
            let i = (vpn.0 - self.base) as usize;
            if i >= self.slots.len() {
                self.slots.resize(i + 1, Self::NONE);
            }
            self.slots[i] = tag;
            if !self.far.is_empty() {
                self.far.remove(&vpn);
            }
        } else {
            if let Some(i) = self.index(vpn) {
                self.slots[i] = Self::NONE;
            }
            self.far.insert(vpn, tag);
        }
    }

    /// Takes the tag recorded for `vpn`, if any.
    #[inline]
    pub(crate) fn remove(&mut self, vpn: Vpn) -> Option<u32> {
        if let Some(i) = self.index(vpn) {
            let tag = std::mem::replace(&mut self.slots[i], Self::NONE);
            if tag != Self::NONE {
                return Some(tag);
            }
        }
        if self.far.is_empty() {
            None
        } else {
            self.far.remove(&vpn)
        }
    }

    /// Forgets every page.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.far.clear();
    }
}

/// A set of pages, as a bitmap over a window that grows to cover the
/// pages inserted.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageSet {
    /// First VPN of `words` (a multiple of 64).
    base: u64,
    words: Vec<u64>,
    /// Pages too far from the window to widen it for.
    far: HashSet<Vpn>,
    len: usize,
}

impl PageSet {
    /// Widest window a set covers densely, in pages (256 KB of bitmap).
    const MAX_SPAN: u64 = 1 << 21;

    /// Number of pages in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Word index and bit mask of `vpn`, if it lies inside the window.
    #[inline]
    fn locate(&self, vpn: Vpn) -> Option<(usize, u64)> {
        let i = vpn.0.wrapping_sub(self.base);
        let w = i / 64;
        (w < self.words.len() as u64).then(|| (w as usize, 1u64 << (i % 64)))
    }

    /// Widens the window to cover `vpn` if that keeps it within
    /// [`PageSet::MAX_SPAN`]; returns whether `vpn` is now inside.
    fn widen(&mut self, vpn: Vpn) -> bool {
        let page = vpn.0 & !63;
        if self.words.is_empty() {
            self.base = page;
        }
        let end = self.base + 64 * self.words.len() as u64;
        let (start, new_end) = (self.base.min(page), end.max(page.saturating_add(64)));
        if new_end - start > Self::MAX_SPAN {
            return false;
        }
        if start < self.base {
            // Grow downward by at least the current width, so a loop that
            // walks pages backwards re-lays the words only a logarithmic
            // number of times.
            let need = (self.base - start) / 64;
            let room = (Self::MAX_SPAN / 64 - self.words.len() as u64).min(self.base / 64);
            let add = need.max(self.words.len() as u64).min(room) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, add));
            self.base -= 64 * add as u64;
        }
        let words = ((new_end - self.base) / 64) as usize;
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
        if !self.far.is_empty() {
            // Far pages the window now covers move into it.
            let mut far = std::mem::take(&mut self.far);
            far.retain(|&v| match self.locate(v) {
                Some((w, bit)) => {
                    self.words[w] |= bit;
                    false
                }
                None => true,
            });
            self.far = far;
        }
        true
    }

    /// Adds `vpn`; returns `false` if it was already present.
    #[inline]
    pub(crate) fn insert(&mut self, vpn: Vpn) -> bool {
        let fresh = match self.locate(vpn) {
            Some((w, bit)) => {
                let fresh = self.words[w] & bit == 0;
                self.words[w] |= bit;
                fresh
            }
            None if self.widen(vpn) => {
                let (w, bit) = self.locate(vpn).expect("window widened to cover the page");
                self.words[w] |= bit;
                true
            }
            None => self.far.insert(vpn),
        };
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `vpn` if present.
    #[inline]
    pub(crate) fn remove(&mut self, vpn: Vpn) {
        let present = match self.locate(vpn) {
            Some((w, bit)) => {
                let present = self.words[w] & bit != 0;
                self.words[w] &= !bit;
                present
            }
            None => !self.far.is_empty() && self.far.remove(&vpn),
        };
        self.len -= usize::from(present);
    }

    /// Whether `vpn` is in the set.
    pub(crate) fn contains(&self, vpn: Vpn) -> bool {
        match self.locate(vpn) {
            Some((w, bit)) => self.words[w] & bit != 0,
            None => self.far.contains(&vpn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PageRange {
        PageRange::new(Vpn(0x1000), 100)
    }

    #[test]
    fn page_tags_round_trip_inside_and_outside_the_space() {
        let mut t = PageTags::default();
        t.insert(space(), Vpn(0x1005), 7);
        t.insert(space(), Vpn(0x10), 8); // below the space
        t.insert(space(), Vpn(1 << 50), 9); // far above it
        t.insert(space(), Vpn(0x1006), u32::MAX); // the sentinel value
        assert_eq!(t.slots.len(), 6, "grown to the highest page written");
        assert_eq!(t.far.len(), 3);
        assert_eq!(t.remove(Vpn(0x1005)), Some(7));
        assert_eq!(t.remove(Vpn(0x1005)), None, "taken");
        assert_eq!(t.remove(Vpn(0x10)), Some(8));
        assert_eq!(t.remove(Vpn(1 << 50)), Some(9));
        assert_eq!(t.remove(Vpn(0x1006)), Some(u32::MAX));
        assert_eq!(t.remove(Vpn(0x1001)), None);
    }

    #[test]
    fn page_tags_newest_insert_wins_across_a_growing_space() {
        let mut t = PageTags::default();
        // A page past the space's end goes far; once the space grows to
        // cover it, a newer tag lands in the array and the far one goes.
        t.insert(space(), Vpn(0x1100), 1);
        t.insert(PageRange::new(Vpn(0x1000), 0x200), Vpn(0x1100), 2);
        assert!(t.far.is_empty());
        assert_eq!(t.remove(Vpn(0x1100)), Some(2));
        assert_eq!(t.remove(Vpn(0x1100)), None);
        // And the other way: an array page re-tagged with the sentinel.
        t.insert(space(), Vpn(0x1001), 3);
        t.insert(space(), Vpn(0x1001), u32::MAX);
        assert_eq!(t.remove(Vpn(0x1001)), Some(u32::MAX));
        assert_eq!(t.remove(Vpn(0x1001)), None);
    }

    #[test]
    fn page_set_matches_a_hash_set_model() {
        let mut rng = sim_core::rng::Pcg32::new(7, 3);
        let mut set = PageSet::default();
        let mut model = std::collections::HashSet::new();
        for _ in 0..20_000 {
            // Mostly a dense window walked both ways, sometimes far away.
            let vpn = match rng.next_below(10) {
                0 => Vpn(u64::from(rng.next_u32()) << 20),
                _ => Vpn(0x40_0000 + u64::from(rng.next_below(5000))),
            };
            if rng.next_below(3) == 0 {
                set.remove(vpn);
                model.remove(&vpn);
            } else {
                assert_eq!(set.insert(vpn), model.insert(vpn), "insert {vpn}");
            }
            assert_eq!(set.contains(vpn), model.contains(&vpn));
            assert_eq!(set.len(), model.len());
        }
    }

    #[test]
    fn page_set_grows_downward_for_descending_walks() {
        let mut set = PageSet::default();
        for v in (0..10_000u64).rev() {
            assert!(set.insert(Vpn(0x10_0000 + v)));
        }
        assert!(set.far.is_empty(), "a descending walk stays dense");
        assert!(set.words.len() <= 2 * 10_000 / 64 + 2);
        assert_eq!(set.len(), 10_000);
    }
}
