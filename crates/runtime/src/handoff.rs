//! A compiled program's executor on its own producer thread.
//!
//! The paper's run-time layer keeps the main thread from waiting by
//! handing work to a pthread pool. [`Pipelined`] does the same for the
//! simulator: a named producer thread runs the [`Executor`] and hands its
//! ops to the engine thread in chunks, so generating the op stream
//! overlaps executing it.
//!
//! The hand-off is three buffers of 1,024 ops, all allocated once by
//! the engine thread: the consumer reads one while the producer fills the
//! two ring slots, so the producer runs at most two chunks ahead and
//! allocates nothing. Each side spins briefly, then parks, when the other
//! is behind; each wakes the other after every chunk.
//!
//! The executor is a pure function of its program and bindings, so the
//! op stream is the one the inline executor yields, bit for bit. A panic
//! on the producer thread (a checked-mode [`InvariantViolation`], say)
//! resumes on the engine thread with its payload at the op where the
//! inline executor would have raised it. Dropping a [`Pipelined`] stops
//! the producer and joins it, so no thread outlives the stream. The
//! thread only saves wall time: when the operating system refuses it,
//! [`Pipelined::spawn`] hands the executor back to run inline.
//!
//! [`InvariantViolation`]: sim_core::sanitizer::InvariantViolation

use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

use crate::exec::Executor;
use crate::ops::{Op, OpStream};

/// Ops per hand-off chunk.
const CHUNK: usize = 1024;

/// Ring slots: how many chunks the producer may run ahead.
const SLOTS: u64 = 2;

/// The producer's stack. Generation is shallow: no recursion, every
/// buffer on the heap.
const STACK: usize = 256 * 1024;

/// The producer thread's name (as `/proc/self/task/*/comm` shows it).
pub const THREAD_NAME: &str = "hogtame-exec";

/// Spin-loop rounds before a waiting side parks.
const SPINS: u32 = 256;

/// Producer threads alive in this process (spawned and not yet joined).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Producer threads alive in this process: spawned by
/// [`Pipelined::spawn`] and not yet joined.
pub fn live_producers() -> usize {
    LIVE.load(Ordering::Acquire)
}

/// What the two threads share. A slot's contents pass between the
/// threads through its mutex; the counters only say whose turn it is
/// (each stored with `Release` after the slot is unlocked, loaded with
/// `Acquire` before it is locked).
struct Shared {
    /// The executor, until the producer takes it: it stays here when no
    /// thread can be made, so the caller can run it inline.
    exec: Mutex<Option<Executor>>,
    slots: [Mutex<Vec<Op>>; SLOTS as usize],
    /// Chunks the producer has published.
    published: AtomicU64,
    /// Chunks the consumer has taken.
    taken: AtomicU64,
    /// The consumer is gone: the producer stops.
    stop: AtomicBool,
    /// The producer has returned or unwound.
    exited: AtomicBool,
    consumer: Thread,
}

/// Marks the producer exited and wakes the consumer, on return and on
/// unwind alike.
struct ExitGuard<'a>(&'a Shared);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.exited.store(true, Ordering::Release);
        self.0.consumer.unpark();
    }
}

/// Spins `SPINS` rounds, then parks until the other side unparks.
fn backoff(spins: &mut u32) {
    if *spins < SPINS {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        thread::park();
    }
}

/// The producer: fills slot `k % SLOTS` once the consumer has taken chunk
/// `k - SLOTS`, until the program ends or the consumer stops it.
fn produce(shared: &Shared) {
    let _exit = ExitGuard(shared);
    let mut exec = shared
        .exec
        .lock()
        .expect("the executor's lock is only ever held to move it")
        .take()
        .expect("the executor waits for its producer");
    for k in 0u64.. {
        let mut spins = 0;
        while k - shared.taken.load(Ordering::Acquire) >= SLOTS {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            backoff(&mut spins);
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let mut slot = shared.slots[(k % SLOTS) as usize]
            .lock()
            .expect("no panic while a slot is locked: fill's are caught");
        slot.clear();
        let filled = catch_unwind(AssertUnwindSafe(|| exec.fill(&mut slot, CHUNK)));
        // A panic mid-chunk still publishes the ops generated before it,
        // so the engine executes exactly what it would have inline before
        // the panic resumes on its thread.
        let any = !slot.is_empty();
        drop(slot);
        if any {
            shared.published.store(k + 1, Ordering::Release);
            shared.consumer.unpark();
        }
        match filled {
            Ok(false) => {}
            Ok(true) => return,
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// An [`OpStream`] whose executor runs on a producer thread (see the
/// module docs).
pub struct Pipelined {
    shared: Arc<Shared>,
    /// The chunk being read: `chunk[next..]` is still to come.
    chunk: Vec<Op>,
    next: usize,
    /// Chunks taken so far.
    taken: u64,
    producer: Option<JoinHandle<()>>,
    /// The producer wakes the thread that spawned it, so the stream
    /// stays on that thread.
    _home: PhantomData<Rc<()>>,
}

impl Pipelined {
    /// Starts `exec` on a producer thread. If the operating system
    /// refuses the thread, hands `exec` back, boxed, to run inline.
    pub fn spawn(exec: Executor) -> Result<Self, Box<Executor>> {
        Self::spawn_with_stack(exec, STACK)
    }

    fn spawn_with_stack(exec: Executor, stack: usize) -> Result<Self, Box<Executor>> {
        let cap = CHUNK + exec.max_overshoot();
        let shared = Arc::new(Shared {
            exec: Mutex::new(Some(exec)),
            slots: std::array::from_fn(|_| Mutex::new(Vec::with_capacity(cap))),
            published: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            exited: AtomicBool::new(false),
            consumer: thread::current(),
        });
        let theirs = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name(THREAD_NAME.into())
            .stack_size(stack)
            .spawn(move || produce(&theirs));
        let Ok(producer) = spawned else {
            // No thread ran, so the executor is still in its slot.
            let exec = shared
                .exec
                .lock()
                .expect("the executor's lock is only ever held to move it")
                .take();
            return Err(Box::new(exec.expect("no producer took the executor")));
        };
        LIVE.fetch_add(1, Ordering::AcqRel);
        Ok(Pipelined {
            shared,
            chunk: Vec::with_capacity(cap),
            next: 0,
            taken: 0,
            producer: Some(producer),
            _home: PhantomData,
        })
    }

    /// Joins the producer, once.
    fn join(&mut self) -> Option<thread::Result<()>> {
        let handle = self.producer.take()?;
        let result = handle.join();
        LIVE.fetch_sub(1, Ordering::AcqRel);
        Some(result)
    }

    /// Swaps the drained chunk for the next published one, waiting for
    /// the producer if it is behind; returns the chunk's first op.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Op {
        if self.chunk.last() == Some(&Op::End) {
            return Op::End;
        }
        let mut spins = 0;
        while self.shared.published.load(Ordering::Acquire) == self.taken {
            if self.shared.exited.load(Ordering::Acquire)
                && self.shared.published.load(Ordering::Acquire) == self.taken
            {
                // The producer is gone without publishing the program's
                // end: it panicked. Raise its panic here.
                match self.join() {
                    Some(Err(payload)) => resume_unwind(payload),
                    _ => unreachable!("the producer returned before the program's end"),
                }
            }
            backoff(&mut spins);
        }
        {
            let mut slot = self.shared.slots[(self.taken % SLOTS) as usize]
                .lock()
                .expect("no panic while a slot is locked: fill's are caught");
            std::mem::swap(&mut self.chunk, &mut slot);
        }
        self.taken += 1;
        self.shared.taken.store(self.taken, Ordering::Release);
        if let Some(p) = &self.producer {
            p.thread().unpark();
        }
        self.next = 1;
        self.chunk[0]
    }
}

impl OpStream for Pipelined {
    fn next_op(&mut self) -> Op {
        match self.chunk.get(self.next) {
            Some(&op) => {
                self.next += 1;
                op
            }
            None => self.refill(),
        }
    }
}

impl Drop for Pipelined {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(p) = &self.producer {
            p.thread().unpark();
        }
        // A producer panic the engine never read (the process exited
        // first) is not the run's: an inline executor would never have
        // reached it.
        let _ = self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::{ArrayBinding, Bindings, IndirectGen, TripSpec};
    use compiler::expr::{Affine, Bound};
    use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
    use compiler::{compile, CompileOptions, MachineModel};
    use sim_core::sanitizer::InvariantViolation;
    use vm::Vpn;

    /// `p[colidx[i]]` beside `aval[i]` and `colidx[i]`, CGM's gather at a
    /// small scale, compiled with prefetches and releases.
    fn gather(n: i64) -> Executor {
        let mut p = SourceProgram::new("gather");
        let aval = p.array("aval", 32, vec![Bound::Known(n)]);
        let colidx = p.array("colidx", 4, vec![Bound::Known(n)]);
        let pv = p.array("p", 8, vec![Bound::Known(n)]);
        let i = LoopId(0);
        p.nest(
            NestBuilder::new("spmv")
                .counted_loop(Bound::Known(n))
                .work_ns(45)
                .reference(ArrayRef::read(aval, vec![Index::aff(Affine::var(i))]))
                .reference(ArrayRef::read(colidx, vec![Index::aff(Affine::var(i))]))
                .reference(ArrayRef::read(
                    pv,
                    vec![Index::Indirect {
                        via: colidx,
                        subscript: Affine::var(i),
                    }],
                ))
                .build(),
        );
        let prog = compile(
            &p,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        let array = |base, elem_size| ArrayBinding {
            base_vpn: Vpn(base),
            dims: vec![n],
            elem_size,
        };
        let bind = Bindings {
            arrays: vec![array(0, 32), array(1 << 20, 4), array(2 << 20, 8)],
            indirect: [(
                colidx,
                IndirectGen {
                    seed: 3,
                    range: n as u64,
                },
            )]
            .into_iter()
            .collect(),
            page_size: 16 * 1024,
            trips: vec![vec![TripSpec::Static]],
            invocations: 2,
        };
        Executor::new(prog, bind)
    }

    fn drain(s: &mut dyn OpStream) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = s.next_op();
            ops.push(op);
            if op == Op::End {
                return ops;
            }
        }
    }

    #[test]
    fn pipelined_stream_equals_inline_stream() {
        let want = drain(&mut gather(20_000));
        assert!(want.len() > 3 * CHUNK, "spans several chunks");
        let mut piped = Pipelined::spawn(gather(20_000))
            .ok()
            .expect("a producer thread");
        assert_eq!(drain(&mut piped), want);
        assert_eq!(piped.next_op(), Op::End, "End repeats");
    }

    #[test]
    fn a_refused_thread_hands_the_executor_back_to_run_inline() {
        let want = drain(&mut gather(20_000));
        // No address space holds a 4 EiB stack, so the operating system
        // refuses the thread without reserving anything.
        let Err(mut exec) = Pipelined::spawn_with_stack(gather(20_000), 1 << 62) else {
            panic!("a 4 EiB stack was granted");
        };
        assert_eq!(drain(&mut *exec), want, "the executor is untouched");
    }

    #[test]
    fn dropping_midway_stops_and_joins_the_producer() {
        let mut piped = Pipelined::spawn(gather(20_000))
            .ok()
            .expect("a producer thread");
        for _ in 0..10 {
            piped.next_op();
        }
        let shared = Arc::downgrade(&piped.shared);
        drop(piped);
        assert!(
            shared.upgrade().is_none(),
            "the producer let go of the ring"
        );
    }

    #[test]
    fn producer_panic_resumes_on_the_consumer_with_its_payload() {
        let corrupt = || {
            let mut ex = gather(20_000);
            ex.set_checked(true);
            ex.overrun_windows(1_000);
            ex
        };
        let raise = |s: &mut dyn OpStream| {
            let mut n = 0u64;
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                n += 1;
                if s.next_op() == Op::End {
                    break;
                }
            }))
            .expect_err("the overrun window is caught");
            let v = payload
                .downcast_ref::<InvariantViolation>()
                .expect("typed payload")
                .clone();
            (v.invariant, v.detail, n)
        };
        let inline = raise(&mut corrupt());
        assert_eq!(inline.0, "exec_window");
        let mut piped = Pipelined::spawn(corrupt()).ok().expect("a producer thread");
        assert_eq!(raise(&mut piped), inline, "same violation at the same op");
        drop(piped);
    }
}
