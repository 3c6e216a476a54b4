//! Op execution: the per-process run-until-yield turn, each op's
//! handler, span attribution, and the exit every departure shares.

use runtime::ops::VecStream;
use runtime::{Mark, Op, RtStats};
use sim_core::fault::FaultKind;
use sim_core::obs::span::{SpanKind, SpanState};
use sim_core::sanitizer::InvariantViolation;
use sim_core::stats::TimeCategory;
use sim_core::{PressureLevel, SimDuration, SimTime};
use vm::{Pid, Vpn};

use super::{Engine, Ev};

/// Ops a process may execute per scheduling turn before yielding, keeping
/// event interleaving fair when the queue is otherwise empty.
const OPS_PER_TURN: u64 = 50_000;

/// A pool of CPU timelines: user-code bursts serialize onto the machine's
/// processors, so more runnable processes than CPUs produces the "stalled
/// for ... CPUs" component of the paper's resource-stall category. (Kernel
/// fault handling is not CPU-contended: with the paper's four processors
/// it never was, and the fault paths' timing is already fixed by the lock
/// and disk timelines.)
#[derive(Debug)]
pub(super) struct CpuPool {
    free_at: Vec<SimTime>,
}

impl CpuPool {
    pub(super) fn new(n: usize) -> Self {
        CpuPool {
            free_at: vec![SimTime::ZERO; n.max(1)],
        }
    }

    /// Runs a burst of length `d` starting no earlier than `at`; returns
    /// `(start, wait)`.
    fn acquire(&mut self, at: SimTime, d: SimDuration) -> (SimTime, SimDuration) {
        let idx = (0..self.free_at.len())
            .min_by_key(|&i| self.free_at[i])
            .expect("nonempty pool");
        let start = self.free_at[idx].max(at);
        self.free_at[idx] = start + d;
        (start, start.since(at))
    }
}

impl Engine {
    /// Lazily opens a whole-process `Batch` span request: a sweepless
    /// process becomes one request spanning its first timed op to its
    /// finish. Sweep streams are opened per-sweep by `SweepStart`
    /// instead, and a provisional batch request is discarded without a
    /// trace if a sweep mark does arrive.
    fn span_ensure(&mut self, i: usize) {
        // A stream has started a sweep iff one is open or one completed.
        let p = &self.procs[i];
        let swept = p.sweep_start.is_some() || !p.result.sweeps.is_empty();
        if p.span_req.is_none() && !swept {
            self.span_open(i, SpanKind::Batch);
        }
    }

    /// Opens a `kind` span request for process `i` at its clock, first
    /// discarding any request it still has open.
    fn span_open(&mut self, i: usize, kind: SpanKind) {
        let Some(tracker) = self.spans.as_mut() else {
            return;
        };
        let p = &mut self.procs[i];
        if let Some(req) = p.span_req.take() {
            tracker.discard(req);
        }
        let tenant = p.result.tenant.unwrap_or(u32::MAX);
        p.span_req = Some(tracker.open(p.result.pid.0, tenant, kind, p.local));
    }

    /// Attributes `[start, start + dur)` of process `i`'s open span
    /// request to `state`. A no-op when the tracker is off, the process
    /// has no open request, or the interval is empty.
    fn span_add(&mut self, i: usize, state: SpanState, start: SimTime, dur: SimDuration) {
        let Some(tracker) = self.spans.as_mut() else {
            return;
        };
        let Some(req) = self.procs[i].span_req else {
            return;
        };
        tracker.add(req, state, start, dur);
    }

    /// One scheduling turn of process `i`: execute ops until the next
    /// queued event is due, the turn's op budget runs out, or the
    /// process exits.
    pub(super) fn run_proc(&mut self, i: usize) {
        if self.procs[i].finished() {
            return;
        }
        let mut executed: u64 = 0;
        loop {
            // Yield when another event is due before our local clock, or
            // the turn's budget is spent.
            let local = self.procs[i].local;
            let due = self.queue.peek_time().is_some_and(|next| local > next);
            if due || executed >= OPS_PER_TURN || local > self.max_time {
                self.queue.schedule(local, Ev::Run(i));
                return;
            }
            let op = self.procs[i].stream.next_op();
            executed += 1;
            self.procs[i].result.ops_executed += 1;
            // Every timed op belongs to a request: open the lazy batch
            // request before dispatch (marks manage their own identity,
            // and `End` closes in `finish_proc`).
            if self.spans.is_some() && !matches!(op, Op::Mark(_) | Op::End) {
                self.span_ensure(i);
            }
            match op {
                Op::Compute(d) => {
                    let at = self.procs[i].local;
                    let (start, wait) = self.cpus.acquire(at, d);
                    let p = &mut self.procs[i];
                    p.result.breakdown.add(TimeCategory::StallResource, wait);
                    p.result.breakdown.add(TimeCategory::User, d);
                    p.local = start + d;
                    self.span_add(i, SpanState::Queued, at, wait);
                    self.span_add(i, SpanState::Running, start, d);
                }
                Op::Touch { vpn, write } => {
                    self.op_touch(i, vpn, write);
                    if self.procs[i].finished() {
                        // The touch OOM-killed the process.
                        return;
                    }
                }
                Op::PrefetchHint { .. } | Op::ReleaseHint { .. } | Op::RetireTag { .. } => {
                    self.op_hint(i, op)
                }
                Op::Sleep(d) => {
                    // Think time: wall-clock passes without execution.
                    let at = self.procs[i].local;
                    self.procs[i].local += d;
                    self.span_add(i, SpanState::Idle, at, d);
                }
                Op::Mark(Mark::SweepStart) => self.sweep_start(i),
                Op::Mark(Mark::SweepEnd) => self.sweep_end(i),
                Op::End => {
                    self.finish_proc(i);
                    return;
                }
            }
        }
    }

    fn sweep_start(&mut self, i: usize) {
        let p = &mut self.procs[i];
        let pid = p.result.pid.0 as usize;
        p.sweep_start = Some(p.local);
        p.sweep_fault_base = self.vm.stats().proc(pid).hard_faults.get();
        // Request identity becomes per-sweep: a provisional batch request
        // (or an unterminated earlier sweep) is discarded, and this sweep
        // opens fresh.
        self.span_open(i, SpanKind::Sweep);
    }

    fn sweep_end(&mut self, i: usize) {
        let p = &mut self.procs[i];
        let Some(start) = p.sweep_start.take() else {
            return;
        };
        let now_faults = self
            .vm
            .stats()
            .proc(p.result.pid.0 as usize)
            .hard_faults
            .get();
        let resp = p.local.since(start);
        p.result.sweeps.push(resp);
        p.result.sweep_faults.push(now_faults - p.sweep_fault_base);
        if let Some(tenant) = p.result.tenant {
            self.fleet.sweep_log.push((p.local, tenant, resp));
        }
        if let (Some(tracker), Some(req)) = (self.spans.as_mut(), p.span_req.take()) {
            tracker.close(req, p.local, false);
        }
    }

    fn op_touch(&mut self, i: usize, vpn: Vpn, write: bool) {
        let (pid, local) = (self.procs[i].result.pid, self.procs[i].local);
        let res = match self.vm.try_touch(local, pid, vpn, write) {
            Ok(res) => res,
            Err(vm::VmError::OutOfMemory { .. }) => {
                // The allocation could not be satisfied even by repeated
                // forced reclaims: kill the process with a typed outcome
                // instead of panicking the run. On a defended machine
                // the ladder sheds over-guarantee tenants long before
                // this point; an undefended machine under a storm gets
                // here, and the kill is indiscriminate — which is
                // exactly the contrast the fleet results record.
                self.oom_kill(i, local);
                return;
            }
            // Unmapped addresses are a programming error, not overload.
            Err(e) => panic!("{e}"),
        };
        let p = &mut self.procs[i];
        p.result.breakdown.add(TimeCategory::System, res.system);
        p.result
            .breakdown
            .add(TimeCategory::StallResource, res.resource_wait);
        p.result.breakdown.add(TimeCategory::StallIo, res.io_wait);
        p.local = res.done_at;
        if self.spans.is_some() && self.procs[i].span_req.is_some() {
            // Tile `[local, done_at]` exactly: the TouchResult invariant
            // (`done_at - now == system + resource_wait + io_wait`, with
            // `lock_wait ⊆ resource_wait` and `io_queue ⊆ io_wait`)
            // guarantees the four tiles sum to the touch's latency.
            let fault = res.system + res.resource_wait.saturating_sub(res.lock_wait);
            let queue = res.io_queue.min(res.io_wait);
            let xfer = res.io_wait.saturating_sub(queue);
            let mut at = local;
            for (state, d) in [
                (SpanState::HardFaultStall, fault),
                (SpanState::LockWait, res.lock_wait),
                (SpanState::SwapQueue, queue),
                (SpanState::SwapTransfer, xfer),
            ] {
                self.span_add(i, state, at, d);
                at += d;
            }
            debug_assert_eq!(at, res.done_at);
        }
        // Hint-effectiveness feedback: a cancelled release or free-list
        // rescue here charges a misfire to the hinting tag.
        let p = &mut self.procs[i];
        if let Some(rt) = p.rt.as_mut() {
            rt.note_touch_outcome(p.local, vpn, res.kind);
        }
        // A TLB hit or miss changes nothing the daemons wait on.
        let changed = !matches!(res.kind, vm::TouchKind::Hit | vm::TouchKind::TlbMiss);
        self.wake_daemons_if(changed, res.done_at);
    }

    /// Runs one compiler-inserted hint (`PrefetchHint`, `ReleaseHint`
    /// or `RetireTag`) through the process's run-time layer, charges the
    /// layer's CPU cost, and issues whatever pages it let through. The
    /// pages pass through the engine's one reused buffer.
    fn op_hint(&mut self, i: usize, op: Op) {
        if !self.hint_layer_alive {
            return;
        }
        let (pid, now) = (self.procs[i].result.pid, self.procs[i].local);
        let track = self.spans.is_some() && self.procs[i].span_req.is_some();
        let Some(rt) = self.procs[i].rt.as_mut() else {
            return;
        };
        // Each hint call moves only its own rejection counters, so one
        // sum serves all three kinds.
        let rejected =
            |s: &RtStats| s.prefetch_rejected + s.prefetch_advisory_dropped + s.release_rejected;
        let rejected_before = if track { rejected(rt.stats()) } else { 0 };
        let mut pages = std::mem::take(&mut self.hint_pages);
        pages.clear();
        let cost = match op {
            Op::PrefetchHint { vpn, npages, tag } => {
                rt.prefetch_hint(&self.vm, pid, now, (vpn, npages, tag), &mut pages)
            }
            Op::ReleaseHint { vpn, priority, tag } => {
                rt.release_hint(&self.vm, pid, now, (vpn, priority, tag), &mut pages)
            }
            Op::RetireTag { tag } => rt.retire_tag(&self.vm, pid, now, tag, &mut pages),
            _ => unreachable!("op_hint takes hint ops only"),
        };
        // The hint call's CPU cost is Running unless the admission
        // limiter rejected pages (AdmissionWait) or the brownout ladder
        // is engaged (Throttled) — classified by counter deltas so the
        // attribution is exact, not heuristic.
        let state = if !track {
            SpanState::Running
        } else if rejected(rt.stats()) > rejected_before {
            SpanState::AdmissionWait
        } else if rt.brownout() != PressureLevel::Normal {
            SpanState::Throttled
        } else {
            SpanState::Running
        };
        let p = &mut self.procs[i];
        p.result.breakdown.add(TimeCategory::User, cost);
        p.local += cost;
        let local = p.local;
        self.span_add(i, state, now, cost);
        if let Op::PrefetchHint { .. } = op {
            // A dead pthread pool prefetches nothing: the filtered pages
            // will demand-fault later. A hint that reaches the OS with no
            // page changes nothing the daemons wait on.
            let issued = self.prefetch_alive && !pages.is_empty();
            if issued {
                self.issue_prefetches(i, pid, local, &pages);
            }
            self.wake_daemons_if(issued, local);
        } else {
            if !pages.is_empty() {
                self.issue_releases(i, pid, local, &pages);
            }
            if let (Op::ReleaseHint { .. }, Some(rt)) = (op, self.procs[i].rt.as_mut()) {
                // The run-time layer decides which pages to offer the OS
                // as eviction candidates; the VM applies them.
                let candidates = rt.take_eviction_candidates();
                if !candidates.is_empty() {
                    self.vm.offer_eviction_candidates(pid, &candidates);
                }
            }
        }
        self.hint_pages = pages;
    }

    fn issue_prefetches(&mut self, i: usize, pid: Pid, local: SimTime, pages: &[Vpn]) {
        for &page in pages {
            // The prefetch pthread makes the PM call and waits for the I/O;
            // none of that lands on the main thread's clock.
            let (thread, start) = self.procs[i].pool.assign(local);
            let (outcome, call_cost) = self.vm.prefetch(start, pid, page);
            let busy_until = match outcome {
                vm::PrefetchOutcome::Started { arrives_at } => arrives_at,
                _ => start + call_cost,
            };
            self.procs[i].pool.complete(thread, busy_until);
            let already = matches!(outcome, vm::PrefetchOutcome::AlreadyResident);
            if let Some(rt) = self.procs[i].rt.as_mut() {
                rt.note_prefetch_outcome(local, page, already);
            }
        }
    }

    fn issue_releases(&mut self, i: usize, pid: Pid, local: SimTime, pages: &[Vpn]) {
        let call = self.vm.cost_params().pm_release_call;
        let at = if self.prefetch_alive {
            // Release requests ride the same pthread pool as prefetches.
            let (thread, start) = self.procs[i].pool.assign(local);
            self.procs[i].pool.complete(thread, start + call);
            start
        } else {
            // Dead pthread pool: the main thread makes the PM call itself
            // and pays for it on its own clock.
            let p = &mut self.procs[i];
            p.result.breakdown.add(TimeCategory::System, call);
            p.local += call;
            self.span_add(i, SpanState::Running, local, call);
            local
        };
        self.vm.release(at, pid, pages);
        self.wake_daemons(at);
    }

    /// The normal exit at the stream's `End`: still-buffered releases are
    /// flushed first (a dead hint layer has nothing trustworthy to flush),
    /// and a batch request spans to the process's final instant.
    fn finish_proc(&mut self, i: usize) {
        let (pid, local) = (self.procs[i].result.pid, self.procs[i].local);
        let flushed = match self.procs[i].rt.as_mut() {
            Some(rt) if self.hint_layer_alive => rt.flush(local, pid),
            _ => Vec::new(),
        };
        if !flushed.is_empty() {
            self.issue_releases(i, pid, local, &flushed);
        }
        self.exit(i, None);
    }

    /// Kills process `i` at `now` because an allocation was
    /// unsatisfiable: records the typed [`FaultKind::OomKill`] and tears
    /// the process down like a shed, freeing everything it held. Cold
    /// because inlining this rare path into the per-op dispatch loop
    /// slowed the fleet storm by about 8% (perfbench `work_s`, 2-core
    /// Xeon).
    #[cold]
    fn oom_kill(&mut self, i: usize, now: SimTime) {
        let pid = self.procs[i].result.pid;
        let rss = self.vm.rss(pid);
        self.fault_log
            .record(now, FaultKind::OomKill { pid: pid.0, rss });
        self.procs[i].result.oom_killed = true;
        let local = self.tear_down(i, now);
        self.wake_daemons(local);
    }

    /// Tears process `i` down mid-run at `now` (a shed or an OOM kill) and
    /// returns its final clock. Buffered hints are dropped on the floor —
    /// the process goes precisely because memory is scarce. Its open
    /// request lands as a `Shed` interval covering any jump to `now` and
    /// closes shed, so it never pollutes the tail.
    pub(super) fn tear_down(&mut self, i: usize, now: SimTime) -> SimTime {
        let p = &mut self.procs[i];
        let was_at = p.local;
        p.local = p.local.max(now);
        self.exit(i, Some(was_at))
    }

    /// The steps every exit shares: the process finishes at its clock,
    /// its stream is dropped, its memory returns to the system, and its
    /// open span request closes there — shed from `shed_from` when the
    /// exit was forced.
    /// Returns the finish time.
    fn exit(&mut self, i: usize, shed_from: Option<SimTime>) -> SimTime {
        let p = &mut self.procs[i];
        let (pid, local) = (p.result.pid, p.local);
        p.result.finish_time = local;
        // An executor's producer thread is joined here, not at the run's
        // end.
        p.stream = Box::new(VecStream::default());
        let span_req = p.span_req.take();
        if p.primary {
            self.live_primaries -= 1;
            if self.checked {
                self.checked_live_primaries();
            }
        }
        self.vm.exit_process(local, pid);
        if let (Some(tracker), Some(req)) = (self.spans.as_mut(), span_req) {
            if let Some(was_at) = shed_from {
                tracker.add(req, SpanState::Shed, was_at, local.since(was_at));
            }
            tracker.close(req, local, shed_from.is_some());
        }
        local
    }

    /// Checked mode: the live-primary count equals a scan of the
    /// process table.
    #[cold]
    fn checked_live_primaries(&self) {
        let scanned = self
            .procs
            .iter()
            .filter(|p| p.primary && !p.finished())
            .count();
        if scanned != self.live_primaries {
            InvariantViolation {
                at: self.queue.now(),
                subsystem: "engine",
                invariant: "live_primaries",
                detail: format!(
                    "{} live primaries counted, {scanned} in the process table",
                    self.live_primaries
                ),
                tail: self.vm.recorder().dump_tail(16),
            }
            .raise()
        }
    }
}
