//! Reference-model property tests for the dense per-process structures,
//! under random operation interleavings: the page table (one array
//! indexed by `vpn - base`) against a naive `BTreeMap<Vpn, Pte>`; the
//! FIFO TLB, whose membership is a bit in each entry, against a
//! `VecDeque` + `HashSet` FIFO; the shared page's flat residency bitmap
//! against one bitmap per attached range; and the free list's rescue
//! links, kept in the page-table entries, against a `(pid, vpn)`-keyed
//! index.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use sim_core::check::{self, run_cases};
use sim_core::rng::Pcg32;
use sim_core::SimTime;
use vm::frame::FrameTable;
use vm::freelist::FreeList;
use vm::pagetable::{InvalidReason, PageTable, Pte};
use vm::shared_page::SharedPage;
use vm::tlb::Tlb;
use vm::{PageRange, PageTableError, Pfn, Pid, Vpn};

/// Pages of address space the random operations range over.
const SPAN: u64 = 96;

/// Entries compare by their full debug rendering, so a field added to
/// [`Pte`] is covered without touching this test.
fn same(a: &Pte, b: &Pte) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The naive page table: every written entry in a sorted map.
struct ModelTable {
    base: u64,
    entries: BTreeMap<Vpn, Pte>,
}

impl ModelTable {
    fn get(&self, vpn: Vpn) -> Pte {
        self.entries.get(&vpn).copied().unwrap_or_default()
    }

    fn entry(&mut self, vpn: Vpn) -> &mut Pte {
        self.entries.entry(vpn).or_default()
    }

    fn try_unmap(&mut self, vpn: Vpn) -> Result<Pfn, PageTableError> {
        // Outside the table: below its base or past the highest entry
        // ever written.
        let past_end = self
            .entries
            .last_key_value()
            .is_none_or(|(&last, _)| vpn > last);
        if vpn.0 < self.base || past_end {
            return Err(PageTableError::Unmapped(vpn));
        }
        let e = self.entry(vpn);
        let pfn = e.pfn.take().ok_or(PageTableError::NotResident(vpn))?;
        e.valid = false;
        e.invalid_reason = None;
        e.clock_sampled = false;
        e.release_requested = None;
        Ok(pfn)
    }

    fn resident(&self) -> Vec<(Vpn, Pte)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.resident())
            .map(|(&v, &e)| (v, e))
            .collect()
    }
}

/// Writes one random field of `e` (the same draw is replayed on both
/// tables by passing the same `choice` and `value`).
fn write_field(e: &mut Pte, choice: u32, value: u64) {
    match choice {
        0 => e.dirty = value % 2 == 1,
        1 => e.last_ref = SimTime::from_nanos(value),
        2 => {
            e.valid = false;
            e.invalid_reason = Some(InvalidReason::DaemonSample);
        }
        3 => e.release_requested = Some(SimTime::from_nanos(value)),
        4 => e.materialized = true,
        _ => e.clock_sampled = !e.clock_sampled,
    }
}

fn random_vpn(rng: &mut Pcg32, base: u64) -> Vpn {
    // Reads and unmaps may land below the base and past every entry.
    Vpn(base.saturating_sub(8) + check::int_in(rng, 0, SPAN + 24))
}

#[test]
fn dense_page_table_matches_sorted_map_model() {
    run_cases(0x50_47_54_42, 96, |rng| {
        let base = if check::flip(rng) { 0x1000 } else { 0 };
        let mut pt = if base == 0 {
            PageTable::new()
        } else {
            PageTable::with_base(Vpn(base))
        };
        let mut model = ModelTable {
            base,
            entries: BTreeMap::new(),
        };
        let mut next_pfn = 0u32;
        let steps = check::int_in(rng, 1, 400);
        for _ in 0..steps {
            match rng.next_below(6) {
                0 => {
                    let vpn = Vpn(base + check::int_in(rng, 0, SPAN));
                    if !model.get(vpn).resident() {
                        pt.map(vpn, Pfn(next_pfn));
                        model.entry(vpn).pfn = Some(Pfn(next_pfn));
                        next_pfn += 1;
                    }
                }
                1 => {
                    let vpn = random_vpn(rng, base);
                    assert_eq!(pt.try_unmap(vpn), model.try_unmap(vpn), "try_unmap({vpn})");
                }
                2 => {
                    let vpn = Vpn(base + check::int_in(rng, 0, SPAN));
                    let choice = rng.next_below(6);
                    let value = u64::from(rng.next_u32());
                    write_field(pt.entry(vpn), choice, value);
                    write_field(model.entry(vpn), choice, value);
                }
                3 => {
                    let vpn = random_vpn(rng, base);
                    assert!(same(&pt.get(vpn), &model.get(vpn)), "get({vpn})");
                }
                _ => {
                    let got: Vec<(Vpn, Pte)> = pt.iter_resident().map(|(v, e)| (v, *e)).collect();
                    let want = model.resident();
                    assert_eq!(got.len(), want.len(), "resident entry count");
                    for ((gv, ge), (wv, we)) in got.iter().zip(&want) {
                        assert_eq!(gv, wv, "iter_resident order");
                        assert!(same(ge, we), "resident entry {gv}");
                    }
                }
            }
            assert_eq!(pt.resident_pages(), model.resident().len() as u64, "RSS");
        }
        // Every page of the span reads back identically at the end.
        for off in 0..SPAN + 24 {
            let vpn = Vpn(base.saturating_sub(8) + off);
            assert!(same(&pt.get(vpn), &model.get(vpn)), "final get({vpn})");
        }
    });
}

/// The naive FIFO TLB: insertion-ordered queue plus a membership set.
struct ModelTlb {
    capacity: usize,
    fifo: VecDeque<Vpn>,
    set: HashSet<Vpn>,
    hits: u64,
    misses: u64,
}

impl ModelTlb {
    fn touch(&mut self, vpn: Vpn) -> bool {
        if self.set.contains(&vpn) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.fifo.len() == self.capacity {
            let old = self.fifo.pop_front().expect("full queue");
            self.set.remove(&old);
        }
        self.fifo.push_back(vpn);
        self.set.insert(vpn);
        false
    }

    fn invalidate(&mut self, vpn: Vpn) {
        if self.set.remove(&vpn) {
            self.fifo.retain(|&v| v != vpn);
        }
    }
}

/// Where an invalidation lands in the model's FIFO.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Site {
    Head,
    Middle,
    Tail,
    Absent,
}

/// The TLB (bits in the page table, a ring once full for FIFO order,
/// straightened on invalidation) against the queue-and-set model: every
/// touch must hit or miss alike, across fills, wrap-arounds, and
/// invalidations of the oldest entry, a middle one, the newest one and a
/// page that is not installed; and after every step the set bits are
/// exactly the model's set.
#[test]
fn scanned_tlb_matches_fifo_set_model() {
    for capacity in [1usize, 2, 64] {
        let mut seen: HashSet<Site> = HashSet::new();
        run_cases(0x54_4c_42 ^ capacity as u64, 48, |rng| {
            let mut tlb = Tlb::new(capacity);
            let mut pt = PageTable::new();
            let mut model = ModelTlb {
                capacity,
                fifo: VecDeque::new(),
                set: HashSet::new(),
                hits: 0,
                misses: 0,
            };
            // A page universe a little larger than the TLB, so hits,
            // evictions and re-installs all happen.
            let universe = 2 * capacity as u64 + 3;
            let steps = check::int_in(rng, 1, 600);
            for _ in 0..steps {
                let vpn = Vpn(check::int_in(rng, 0, universe));
                if rng.next_below(4) == 0 {
                    let site = match rng.next_below(4) {
                        0 => Site::Head,
                        1 => Site::Middle,
                        2 => Site::Tail,
                        _ => Site::Absent,
                    };
                    let len = model.fifo.len();
                    let target = match site {
                        _ if len == 0 => vpn,
                        Site::Head => model.fifo[0],
                        Site::Middle => model.fifo[len / 2],
                        Site::Tail => model.fifo[len - 1],
                        Site::Absent => Vpn(universe + u64::from(rng.next_below(3))),
                    };
                    seen.insert(if model.set.contains(&target) {
                        site
                    } else {
                        Site::Absent
                    });
                    tlb.invalidate(&mut pt, target);
                    model.invalidate(target);
                } else {
                    assert_eq!(tlb.touch(&mut pt, vpn), model.touch(vpn), "touch({vpn})");
                }
                assert_eq!(tlb.hits(), model.hits, "hits");
                assert_eq!(tlb.misses(), model.misses, "misses");
                let bits: HashSet<Vpn> = pt
                    .iter()
                    .filter(|(_, e)| e.in_tlb)
                    .map(|(v, _)| v)
                    .collect();
                assert_eq!(bits, model.set, "TLB bits");
                let ring: HashSet<Vpn> = tlb.entries().iter().copied().collect();
                assert_eq!(
                    (ring, tlb.entries().len()),
                    (bits, model.fifo.len()),
                    "ring"
                );
            }
        });
        // With one entry, head, middle and tail coincide.
        assert!(seen.contains(&Site::Head) && seen.contains(&Site::Absent));
        if capacity > 2 {
            assert_eq!(seen.len(), 4, "capacity {capacity}: sites hit {seen:?}");
        }
    }
}

/// The shared page as it was: one bitmap per attached range, searched in
/// turn; everything outside the ranges reads as set.
#[derive(Default)]
struct ModelShared {
    ranges: Vec<(PageRange, Vec<bool>)>,
}

impl ModelShared {
    fn find(&self, vpn: Vpn) -> Option<(usize, usize)> {
        self.ranges
            .iter()
            .position(|(r, _)| r.contains(vpn))
            .map(|k| (k, self.ranges[k].0.offset_of(vpn) as usize))
    }

    fn is_resident(&self, vpn: Vpn) -> bool {
        self.find(vpn).is_none_or(|(k, i)| self.ranges[k].1[i])
    }

    fn set_resident(&mut self, vpn: Vpn, resident: bool) {
        if let Some((k, i)) = self.find(vpn) {
            self.ranges[k].1[i] = resident;
        }
    }
}

/// The flat bitmap against the per-range model: ranges attached in any
/// order with guard gaps between them, reads and writes of attached
/// pages, gap pages, and pages below and beyond every range.
#[test]
fn flat_bitmap_matches_per_range_model() {
    run_cases(0x5a_b1_7e, 128, |rng| {
        let mut flat = SharedPage::new();
        let mut model = ModelShared::default();
        // Three to five ranges with gaps, attached in a shuffled order.
        let mut ranges = Vec::new();
        let mut next = 0x1000 + u64::from(rng.next_below(64));
        for _ in 0..check::int_in(rng, 3, 5) {
            let len = check::int_in(rng, 1, 150);
            ranges.push(PageRange::new(Vpn(next), len));
            next += len + check::int_in(rng, 0, 20);
        }
        rng.shuffle(&mut ranges);
        for r in ranges {
            flat.attach(r);
            model.ranges.push((r, vec![false; r.len as usize]));
        }
        let (lo, hi) = (0x1000 - 8, next + 8);
        for _ in 0..check::int_in(rng, 1, 400) {
            let vpn = Vpn(check::int_in(rng, lo, hi));
            if check::flip(rng) {
                let bit = check::flip(rng);
                flat.set_resident(vpn, bit);
                model.set_resident(vpn, bit);
            }
            assert_eq!(flat.is_resident(vpn), model.is_resident(vpn), "{vpn}");
            assert_eq!(flat.covers(vpn), model.find(vpn).is_some(), "{vpn}");
        }
        for v in lo..hi {
            assert_eq!(flat.is_resident(Vpn(v)), model.is_resident(Vpn(v)));
        }
        let set: usize = model
            .ranges
            .iter()
            .map(|(_, b)| b.iter().filter(|&&x| x).count())
            .sum();
        assert_eq!(flat.resident_count(), set);
        assert!(flat.is_resident(Vpn(0)) && flat.is_resident(Vpn(u64::MAX)));
    });
}

/// The free list's rescue links against the index they replaced, a map
/// from `(pid, vpn)` to frame: random frees (rescuable or not, pages
/// cycling quickly so a newer frame overrides an older one), allocations
/// and rescue attempts must return the same frames, and every link must
/// equal the index entry.
#[test]
fn rescue_links_match_hash_index_model() {
    const PROCS: u32 = 3;
    const PAGES: u64 = 12;
    run_cases(0x2e_5c_0e, 128, |rng| {
        let nframes = check::int_in(rng, 1, 24) as usize;
        let mut frames = FrameTable::new(nframes);
        let mut free = FreeList::new();
        free.fill_initial(&frames);
        let mut pts: Vec<PageTable> = (0..PROCS)
            .map(|_| {
                let mut pt = PageTable::new();
                pt.entry(Vpn(PAGES - 1));
                pt
            })
            .collect();
        let mut index: HashMap<(Pid, Vpn), Pfn> = HashMap::new();
        let mut held: Vec<Pfn> = Vec::new();
        for _ in 0..check::int_in(rng, 1, 300) {
            let pid = Pid(rng.next_below(PROCS));
            let vpn = Vpn(check::int_in(rng, 0, PAGES - 1));
            match rng.next_below(3) {
                0 => {
                    let got = free.alloc(&mut frames, &mut pts[..]);
                    // The model: the same frame, and its index entry goes
                    // only if it still names the frame.
                    if let Some(pfn) = got {
                        index.retain(|_, &mut f| f != pfn);
                        held.push(pfn);
                    }
                }
                1 if !held.is_empty() => {
                    let pfn = held.swap_remove(rng.index(held.len()));
                    let rescuable = rng.next_below(4) != 0;
                    frames.get_mut(pfn).owner = Some((pid, vpn));
                    free.push_freed(&mut frames, &mut pts[..], pfn, rescuable);
                    if rescuable {
                        index.insert((pid, vpn), pfn);
                    }
                }
                _ => {
                    let want = index.remove(&(pid, vpn)).filter(|&pfn| {
                        let f = frames.get(pfn);
                        f.on_free_list && f.owner == Some((pid, vpn))
                    });
                    let got = free.rescue(&mut frames, &mut pts[..], pid, vpn);
                    assert_eq!(got, want, "rescue of {pid:?} {vpn}");
                    if let Some(pfn) = got {
                        held.push(pfn);
                    }
                }
            }
            for (p, pt) in pts.iter().enumerate() {
                for (v, e) in pt.iter() {
                    assert_eq!(e.rescue, index.get(&(Pid(p as u32), v)).copied(), "link");
                }
            }
            assert_eq!(free.live() + held.len(), nframes, "frames conserved");
        }
    });
}
