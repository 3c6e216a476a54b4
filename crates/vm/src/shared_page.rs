//! The PagingDirected shared page.
//!
//! When a process creates the PagingDirected policy module, the OS maps a
//! single read-only 16 KB page into its address space. The page holds:
//!
//! * word 0 — the process's **current usage** (resident pages);
//! * word 1 — the **upper limit** on pages it should use (Eq. 1);
//! * the rest — a **residency bitmap** indexed by virtual page number over
//!   the attached ranges (bit set ⇔ page in memory).
//!
//! The bitmap is one flat bit array over the process's span of attached
//! pages, from the first attached page to the end of the last, with the
//! pages between ranges (and every page outside the span) reading as set,
//! as the paper specifies for unattached addresses. A read is one
//! subtraction, one compare and one bit test, whatever the number of
//! ranges; a second bit array marks which pages of the span are attached.
//!
//! Per the paper, the two words are updated **only when the process has
//! memory-system activity** (a prefetch/release request, a page fault, or a
//! page stolen from it) — not every time global conditions change. The
//! bitmap, by contrast, is maintained eagerly by the OS on every allocation
//! and reclamation.

use crate::addr::{PageRange, Vpn};

/// A simple growable bitmap.
#[derive(Clone, Debug, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bitmap of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        // Clear the tail beyond len for a clean popcount.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The shared page: usage/limit words plus the flat residency bitmap.
#[derive(Clone, Debug, Default)]
pub struct SharedPage {
    /// Word 0: pages currently in use (lazily updated).
    pub usage_word: u64,
    /// Word 1: upper limit on pages to use (lazily updated, Eq. 1).
    pub limit_word: u64,
    /// First VPN of the span `bits` and `attached` cover.
    base: u64,
    /// One bit per page of the span: residency on attached pages, always
    /// set on the others.
    bits: BitVec,
    /// One bit per page of the span: whether the page is attached.
    attached: BitVec,
}

impl SharedPage {
    /// Creates a shared page with no attached ranges.
    ///
    /// Per the paper, all bits are conceptually set when the PM is created;
    /// attaching a range clears the bits for those addresses.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `vpn` in the span, if it lies inside it.
    #[inline]
    fn index(&self, vpn: Vpn) -> Option<usize> {
        // Below the base the subtraction wraps past the span's end.
        let i = vpn.0.wrapping_sub(self.base);
        (i < self.bits.len() as u64).then_some(i as usize)
    }

    /// Attaches the PM to a range of the address space (bits cleared).
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an already-attached range.
    pub fn attach(&mut self, range: PageRange) {
        if let Some(i) = range.iter().find(|&v| self.covers(v)) {
            panic!("overlapping PM attachment: {range:?} covers attached {i}");
        }
        let (start, end) = (range.start.0, range.end().0);
        let (old_start, old_end) = (self.base, self.base + self.bits.len() as u64);
        let (new_start, new_end) = if self.bits.is_empty() {
            (start, end)
        } else {
            (old_start.min(start), old_end.max(end))
        };
        if (new_start, new_end) != (old_start, old_end) {
            // Re-lay both arrays over the widened span; pages new to it
            // are unattached, so they read as set.
            let len = (new_end - new_start) as usize;
            let mut bits = BitVec::new(len);
            bits.set_all();
            let mut attached = BitVec::new(len);
            // An empty span has nothing to copy, wherever its base was.
            let shift = old_start.saturating_sub(new_start) as usize;
            for i in 0..self.bits.len() {
                bits.set(shift + i, self.bits.get(i));
                attached.set(shift + i, self.attached.get(i));
            }
            self.base = new_start;
            self.bits = bits;
            self.attached = attached;
        }
        for vpn in range.iter() {
            let i = (vpn.0 - self.base) as usize;
            self.bits.set(i, false);
            self.attached.set(i, true);
        }
    }

    /// Whether `vpn` is covered by any attached range.
    pub fn covers(&self, vpn: Vpn) -> bool {
        self.index(vpn).is_some_and(|i| self.attached.get(i))
    }

    /// Reads the residency bit for `vpn`. Pages outside attached ranges read
    /// as set (the paper initializes non-attached bits to 1).
    #[inline]
    pub fn is_resident(&self, vpn: Vpn) -> bool {
        self.index(vpn).is_none_or(|i| self.bits.get(i))
    }

    /// Updates the residency bit for `vpn` (no-op outside attached ranges).
    #[inline]
    pub fn set_resident(&mut self, vpn: Vpn, resident: bool) {
        if let Some(i) = self.index(vpn).filter(|&i| self.attached.get(i)) {
            self.bits.set(i, resident);
        }
    }

    /// Refreshes the usage/limit words (called by the OS on memory-system
    /// activity of the owning process).
    pub fn refresh(&mut self, usage: u64, limit: u64) {
        self.usage_word = usage;
        self.limit_word = limit;
    }

    /// Total resident bits across attached ranges (for diagnostics).
    pub fn resident_count(&self) -> usize {
        self.bits
            .words
            .iter()
            .zip(&self.attached.words)
            .map(|(b, a)| (b & a).count_ones() as usize)
            .sum()
    }
}

/// Computes the Eq. 1 upper limit:
///
/// `upper_limit = min(maxrss, current_size + tot_freemem - min_freemem)`
///
/// Saturates at zero if free memory is below `min_freemem`.
pub fn upper_limit(maxrss: u64, current_size: u64, tot_freemem: u64, min_freemem: u64) -> u64 {
    let competed = current_size + tot_freemem.saturating_sub(min_freemem);
    maxrss.min(competed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_set_get() {
        let mut b = BitVec::new(130);
        assert!(!b.get(0));
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0));
        assert!(b.get(64));
        assert!(b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn bitvec_set_all_respects_len() {
        let mut b = BitVec::new(70);
        b.set_all();
        assert_eq!(b.count_ones(), 70);
    }

    #[test]
    #[should_panic]
    fn bitvec_out_of_range_panics() {
        BitVec::new(8).get(8);
    }

    #[test]
    fn shared_page_attach_and_bits() {
        let mut sp = SharedPage::new();
        sp.attach(PageRange::new(Vpn(100), 10));
        // Attached bits start cleared.
        assert!(!sp.is_resident(Vpn(100)));
        // Unattached addresses read as set.
        assert!(sp.is_resident(Vpn(0)));
        sp.set_resident(Vpn(105), true);
        assert!(sp.is_resident(Vpn(105)));
        assert_eq!(sp.resident_count(), 1);
        sp.set_resident(Vpn(105), false);
        assert!(!sp.is_resident(Vpn(105)));
    }

    #[test]
    fn set_resident_outside_ranges_is_noop() {
        let mut sp = SharedPage::new();
        sp.attach(PageRange::new(Vpn(0), 4));
        sp.set_resident(Vpn(50), true);
        assert_eq!(sp.resident_count(), 0);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_attach_panics() {
        let mut sp = SharedPage::new();
        sp.attach(PageRange::new(Vpn(0), 10));
        sp.attach(PageRange::new(Vpn(5), 10));
    }

    #[test]
    fn multiple_disjoint_ranges() {
        let mut sp = SharedPage::new();
        sp.attach(PageRange::new(Vpn(0), 4));
        sp.attach(PageRange::new(Vpn(100), 4));
        sp.set_resident(Vpn(2), true);
        sp.set_resident(Vpn(101), true);
        assert!(sp.covers(Vpn(2)));
        assert!(sp.covers(Vpn(101)));
        assert!(!sp.covers(Vpn(50)));
        assert_eq!(sp.resident_count(), 2);
    }

    #[test]
    fn eq1_upper_limit() {
        // Ample memory: limited by maxrss.
        assert_eq!(upper_limit(1000, 200, 5000, 100), 1000);
        // Limited memory: current + free - min_freemem.
        assert_eq!(upper_limit(10_000, 200, 500, 100), 600);
        // Free below min_freemem saturates the free contribution.
        assert_eq!(upper_limit(10_000, 200, 50, 100), 200);
    }

    #[test]
    fn refresh_updates_words() {
        let mut sp = SharedPage::new();
        sp.refresh(42, 99);
        assert_eq!(sp.usage_word, 42);
        assert_eq!(sp.limit_word, 99);
    }
}
