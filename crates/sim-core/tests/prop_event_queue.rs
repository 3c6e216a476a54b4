//! Property tests for the event queue: total order, FIFO tie-break,
//! causality under interleaved scheduling. Cases are generated by the
//! crate's own deterministic harness ([`sim_core::check`]).

use sim_core::check::{self, run_cases};
use sim_core::{EventQueue, SimTime};

/// Whatever the schedule order, pops come out in non-decreasing time,
/// and events at equal times come out in scheduling order.
#[test]
fn pops_are_ordered_and_fifo() {
    run_cases(0xE7E47, 256, |rng| {
        let times = check::vec_of_ints(rng, 1, 200, 0, 50);
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, seq));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            let (t, seq) = ev.payload;
            assert_eq!(ev.time, SimTime::from_nanos(t));
            if let Some((lt, lseq)) = last {
                assert!(t >= lt, "time went backwards");
                if t == lt {
                    assert!(seq > lseq, "FIFO violated at equal times");
                }
            }
            last = Some((t, seq));
            popped += 1;
        }
        assert_eq!(popped, times.len());
    });
}

/// Interleaved schedule/pop keeps causality: you can never pop a time
/// earlier than one already popped.
#[test]
fn interleaved_operations_preserve_causality() {
    run_cases(0x17E41E, 256, |rng| {
        let n = check::int_in(rng, 1, 200);
        let ops: Vec<(u64, bool)> = (0..n)
            .map(|_| (check::int_in(rng, 0, 1000), check::flip(rng)))
            .collect();
        let mut q = EventQueue::new();
        let mut last_popped = SimTime::ZERO;
        for (dt, do_pop) in ops {
            let at = q.now() + sim_core::SimDuration::from_nanos(dt);
            q.schedule(at, ());
            if do_pop {
                if let Some(ev) = q.pop() {
                    assert!(ev.time >= last_popped);
                    last_popped = ev.time;
                }
            }
        }
    });
}
