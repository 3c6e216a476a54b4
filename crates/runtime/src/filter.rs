//! The run-time layer's "simple checks".
//!
//! "In both cases, the run-time layer attempts to reduce overhead by
//! filtering out the obviously bad releases inserted by the compiler. …
//! First, the requests inserted by the compiler are checked against the
//! bitvector to make sure that the pages are in memory. Second, the
//! run-time layer tracks the last address released for each unique release
//! directive placed in the code, using the request identifier (or tag). …
//! If a release request identifies the same page as the previous request,
//! it is dropped since the page is obviously still in use. If instead, the
//! current release request identifies a different page, then the previously
//! recorded release is actually handled and the current one is recorded."

use vm::Vpn;

/// The per-tag one-behind release filter.
///
/// The live tags sit in a small table: one slot per tag, found by a scan
/// of a few `u32`s (a process has one live tag per release directive of
/// the loop nests it is in), with no hashing.
#[derive(Clone, Debug, Default)]
pub struct TagFilter {
    /// The live tags, in first-seen order; `last[i]` belongs to `tags[i]`.
    tags: Vec<u32>,
    /// The page last recorded for each live tag.
    last: Vec<Vpn>,
    dropped_same_page: u64,
    echo_same_page: bool,
}

impl TagFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `tag`, if it is live.
    #[inline]
    fn slot(&self, tag: u32) -> Option<usize> {
        self.tags.iter().position(|&t| t == tag)
    }

    /// Observes a release hint `(tag, vpn)`.
    ///
    /// Returns the page whose release should now actually be handled (the
    /// previously recorded page for this tag), or `None` if the hint names
    /// the same page as before (dropped) or is the first for its tag.
    #[inline]
    pub fn observe(&mut self, tag: u32, vpn: Vpn) -> Option<Vpn> {
        let prev = match self.slot(tag) {
            Some(i) => Some(std::mem::replace(&mut self.last[i], vpn)),
            None => {
                self.tags.push(tag);
                self.last.push(vpn);
                None
            }
        };
        if self.echo_same_page {
            // Corrupted (mutation matrix): the still-in-use page leaks
            // straight through instead of being held back one hint.
            return Some(vpn);
        }
        match prev {
            Some(prev) if prev == vpn => {
                self.dropped_same_page += 1;
                None
            }
            prev => prev,
        }
    }

    /// Hints dropped because they repeated the previous page.
    pub fn dropped_same_page(&self) -> u64 {
        self.dropped_same_page
    }

    /// Pages still recorded (one per tag), e.g. for end-of-run flushing.
    pub fn drain_recorded(&mut self) -> Vec<Vpn> {
        self.tags.clear();
        std::mem::take(&mut self.last)
    }

    /// Retires one tag, returning its trailing recorded page (if any) so
    /// the caller can flush it.
    ///
    /// A release directive's tag is scoped to its loop nest: once the
    /// executor leaves the nest, the tag will never hint again, so keeping
    /// its entry would leak one slot per retired tag over a long
    /// multi-phase run. The executor calls this on nest exit.
    pub fn retire_tag(&mut self, tag: u32) -> Option<Vpn> {
        let i = self.slot(tag)?;
        self.tags.swap_remove(i);
        Some(self.last.swap_remove(i))
    }

    /// Retires every listed tag, collecting their trailing pages.
    pub fn retire_tags(&mut self, tags: impl IntoIterator<Item = u32>) -> Vec<Vpn> {
        tags.into_iter()
            .filter_map(|t| self.retire_tag(t))
            .collect()
    }

    /// Number of tags currently tracked (bounded by live nests, not by
    /// run length, once retirement is wired in).
    pub fn tracked_tags(&self) -> usize {
        self.tags.len()
    }

    /// Test-only corruption: makes every observation echo the just-used
    /// page instead of holding it back one hint. Exists solely for the
    /// checked-mode mutation matrix.
    #[doc(hidden)]
    pub fn corrupt_echo_same_page(&mut self) {
        self.echo_same_page = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_hint_is_recorded_not_issued() {
        let mut f = TagFilter::new();
        assert_eq!(f.observe(1, Vpn(10)), None);
    }

    #[test]
    fn same_page_repeat_is_dropped() {
        let mut f = TagFilter::new();
        f.observe(1, Vpn(10));
        assert_eq!(f.observe(1, Vpn(10)), None);
        assert_eq!(f.dropped_same_page(), 1);
    }

    #[test]
    fn new_page_releases_previous() {
        let mut f = TagFilter::new();
        f.observe(1, Vpn(10));
        assert_eq!(f.observe(1, Vpn(11)), Some(Vpn(10)));
        assert_eq!(f.observe(1, Vpn(12)), Some(Vpn(11)));
    }

    #[test]
    fn tags_are_independent() {
        let mut f = TagFilter::new();
        f.observe(1, Vpn(10));
        f.observe(2, Vpn(20));
        assert_eq!(f.observe(1, Vpn(11)), Some(Vpn(10)));
        assert_eq!(f.observe(2, Vpn(21)), Some(Vpn(20)));
    }

    #[test]
    fn retire_tag_evicts_entry_and_returns_trailing_page() {
        let mut f = TagFilter::new();
        f.observe(1, Vpn(10));
        f.observe(2, Vpn(20));
        assert_eq!(f.tracked_tags(), 2);
        assert_eq!(f.retire_tag(1), Some(Vpn(10)));
        assert_eq!(f.tracked_tags(), 1, "retired tag no longer tracked");
        assert_eq!(f.retire_tag(1), None, "retire is idempotent");
        // The tag restarts cleanly if it ever reappears.
        assert_eq!(f.observe(1, Vpn(30)), None);
        assert_eq!(f.observe(1, Vpn(31)), Some(Vpn(30)));
    }

    #[test]
    fn retirement_bounds_tracked_tags_across_phases() {
        // Regression: without eviction, one entry leaked per retired tag,
        // growing the filter without bound over a multi-phase run.
        let mut f = TagFilter::new();
        for phase in 0..1000u32 {
            f.observe(phase, Vpn(u64::from(phase)));
            f.observe(phase, Vpn(u64::from(phase) + 1));
            let flushed = f.retire_tags([phase]);
            assert_eq!(flushed, vec![Vpn(u64::from(phase) + 1)]);
        }
        assert_eq!(f.tracked_tags(), 0, "retired tags must not accumulate");
    }

    #[test]
    fn drain_returns_trailing_pages() {
        let mut f = TagFilter::new();
        f.observe(1, Vpn(10));
        f.observe(2, Vpn(20));
        f.observe(1, Vpn(11));
        let mut drained = f.drain_recorded();
        drained.sort();
        assert_eq!(drained, vec![Vpn(11), Vpn(20)]);
        assert_eq!(f.observe(1, Vpn(12)), None, "filter restarts after drain");
    }
}
