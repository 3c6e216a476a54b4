//! Structured observability: typed events, a flight recorder, and metrics.
//!
//! The paper's entire evaluation is observability — stacked time
//! breakdowns, hint counts, filter effectiveness, reclamation activity —
//! and this module gives the simulation one structured spine to derive
//! them all from:
//!
//! * [`Event`] / [`EventKind`] — a typed, sim-time-stamped event schema.
//!   Every record carries its subsystem, an optional process id and
//!   virtual page correlation, and a payload specific to the kind; no
//!   `String` messages, so recording never formats on the hot path.
//! * [`Recorder`] — a bounded flight recorder: keeps the *last* `cap`
//!   events verbatim (what you want after a crash) plus exact per-kind
//!   counts of everything ever emitted (what reconciliation and the
//!   outcome tables want). Zero-cost beyond one branch when disabled.
//! * [`EventStream`] — the per-run merge of every recorder plus the
//!   fault log, stably sorted by sim time, with exporters: JSONL, Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`), and
//!   plain text. Timeline marks are derived from this single stream.
//! * [`MetricsRegistry`] — named counters and gauges snapshotted at the
//!   end of a run and rendered as Prometheus-style text.
//!
//! Determinism is a hard invariant: events are stamped with [`SimTime`]
//! only (never wall clock), recorded single-threaded inside one run, and
//! merged in a fixed subsystem order with a stable sort — so the exported
//! bytes are identical across worker counts and journal resumes.

pub mod span;

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::fault::{FaultEvent, FaultKind, FaultLog};
use crate::time::{SimDuration, SimTime};

/// Default number of events a [`Recorder`] keeps verbatim.
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// Which part of the stack emitted an event. The rank (declaration
/// order) doubles as the Chrome-trace thread id, so every export lays
/// subsystems out identically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Subsystem {
    /// The paging daemon (the stock reactive reclaimer).
    Pagingd,
    /// The releaser daemon (the paper's new kernel daemon).
    Releaser,
    /// The run-time hint layer (filters, buffers, priorities).
    Hint,
    /// The core VM system (faults, rescues, prefetch completion).
    Vm,
    /// The striped swap array.
    Disk,
    /// Injected faults and degradation transitions.
    Fault,
    /// Per-request causal spans (see [`span`]).
    Span,
}

impl Subsystem {
    /// Short stable name for exports.
    pub fn name(&self) -> &'static str {
        match self {
            Subsystem::Pagingd => "pagingd",
            Subsystem::Releaser => "releaser",
            Subsystem::Hint => "hint",
            Subsystem::Vm => "vm",
            Subsystem::Disk => "disk",
            Subsystem::Fault => "fault",
            Subsystem::Span => "span",
        }
    }

    /// Stable small integer for the Chrome-trace `tid` field.
    pub fn rank(&self) -> u32 {
        match self {
            Subsystem::Pagingd => 0,
            Subsystem::Releaser => 1,
            Subsystem::Hint => 2,
            Subsystem::Vm => 3,
            Subsystem::Disk => 4,
            Subsystem::Fault => 5,
            Subsystem::Span => 6,
        }
    }

    /// All subsystems, in rank order (for export metadata).
    pub fn all() -> [Subsystem; 7] {
        [
            Subsystem::Pagingd,
            Subsystem::Releaser,
            Subsystem::Hint,
            Subsystem::Vm,
            Subsystem::Disk,
            Subsystem::Fault,
            Subsystem::Span,
        ]
    }
}

/// One typed argument of an event payload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArgVal {
    /// An unsigned integer (counts, tags, nanoseconds).
    U(u64),
    /// A static string (component names and the like).
    S(&'static str),
}

/// What happened. Each variant corresponds to exactly one site in the
/// stack where the matching [`crate::stats`]/`vm::stats` counter is
/// bumped, so per-kind event counts reconcile exactly with the counters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// One paging-daemon activation finished scanning.
    PagingdScan {
        /// Frames examined this activation.
        scanned: u64,
        /// Frames on the free list afterwards.
        free: u64,
    },
    /// One releaser activation serviced its queue.
    ReleaserBatch {
        /// Queued release requests handled.
        handled: u64,
        /// Requests left queued (per-activation cap hit).
        queued: u64,
    },
    /// The layer received a release hint from the compiler's stub.
    ReleaseHint {
        /// Directive tag.
        tag: u32,
        /// Pages named by the hint.
        pages: u32,
    },
    /// The health monitor suppressed a release hint.
    ReleaseSuppressed {
        /// Directive tag.
        tag: u32,
        /// Pages degraded to reactive candidates.
        pages: u32,
    },
    /// The admission controller's rate limiter rejected a release hint.
    ReleaseRejected {
        /// Directive tag.
        tag: u32,
    },
    /// The one-behind filter absorbed a same-page release.
    ReleaseFilteredSamePage {
        /// Directive tag.
        tag: u32,
    },
    /// The shared-page bitmap filtered a release.
    ReleaseFilteredBitmap {
        /// Directive tag.
        tag: u32,
    },
    /// A release was issued directly to the kernel.
    ReleaseIssued {
        /// Directive tag.
        tag: u32,
    },
    /// A release was buffered at a priority.
    ReleaseBuffered {
        /// Directive tag.
        tag: u32,
        /// Buffer priority (0 = most releasable).
        priority: u32,
    },
    /// One buffered page was drained to the kernel under pressure.
    ReleaseDrained,
    /// The layer received a prefetch hint.
    PrefetchHint {
        /// Directive tag.
        tag: u32,
        /// Pages named by the hint.
        pages: u32,
    },
    /// The health monitor suppressed a prefetch hint.
    PrefetchSuppressed {
        /// Directive tag.
        tag: u32,
        /// Pages not prefetched.
        pages: u32,
    },
    /// The admission controller's rate limiter rejected a prefetch hint.
    PrefetchRejected {
        /// Directive tag.
        tag: u32,
        /// Pages not prefetched.
        pages: u32,
    },
    /// A low-trust tenant's advisory prefetch was dropped for lack of
    /// free-memory headroom.
    PrefetchAdvisoryDropped {
        /// Directive tag.
        tag: u32,
        /// Pages not prefetched.
        pages: u32,
    },
    /// The shared-page bitmap filtered one prefetch page.
    PrefetchFiltered {
        /// Directive tag.
        tag: u32,
    },
    /// One prefetch page was issued to the kernel.
    PrefetchIssued {
        /// Directive tag.
        tag: u32,
    },
    /// The kernel accepted one release request onto the releaser queue.
    ReleaseAccepted,
    /// The kernel skipped a release: page not resident (or already
    /// pending / being prefetched).
    ReleaseSkippedNonresident,
    /// The releaser skipped a release: the page was re-referenced.
    ReleaseSkippedReref,
    /// A pending release was cancelled by a touch (soft fault).
    ReleaseCancelled,
    /// A daemon-freed page was rescued from the free list by a touch.
    RescueDaemon,
    /// A release-freed page was rescued from the free list by a touch.
    RescueRelease,
    /// The paging daemon stole one frame.
    FreedByDaemon,
    /// The releaser freed one frame from a release request.
    FreedByRelease,
    /// A prefetch page-in was started.
    PrefetchStarted,
    /// A prefetch found the page already resident.
    PrefetchRedundant,
    /// A prefetch was discarded (no frames / not worthwhile).
    PrefetchDiscarded,
    /// A prefetch was denied because the tenant was at its quota cap.
    PrefetchQuotaDenied,
    /// A prefetch rescued the page from the free list instead of doing
    /// I/O.
    PrefetchRescued,
    /// A touch validated (first-used) a prefetched page.
    PrefetchValidated,
    /// A hard fault: the touch had to page in from swap.
    HardFault,
    /// A soft fault on a daemon-freed page still in memory.
    SoftFaultDaemon,
    /// A first touch allocated a zero-filled frame.
    ZeroFill,
    /// One swap I/O request, submit to completion (a span).
    Io {
        /// True for a page-out, false for a page-in.
        write: bool,
        /// Submit-to-completion latency.
        dur: SimDuration,
        /// The portion of `dur` spent queued (behind other requests,
        /// transient-retry backoffs, bus waits) before the final
        /// positioning + transfer began.
        queue: SimDuration,
    },
    /// The graded memory-pressure signal changed level (emitted by the
    /// VM pressure monitor; input to the brownout ladder).
    PressureShift {
        /// Level before the change.
        from: crate::PressureLevel,
        /// Level after the change.
        to: crate::PressureLevel,
    },
    /// An injected fault or degradation transition (from the fault log).
    Fault(FaultKind),
    /// One tracked request's full span, emitted at close (see
    /// [`span::SpanTracker`]). Stamped at the request's open time.
    SpanRequest {
        /// Request id (open order within the run).
        req: u64,
        /// Open-to-close latency.
        dur: SimDuration,
        /// True when the request was shed or OOM-killed.
        shed: bool,
    },
    /// One coalesced state interval inside a tracked request's span.
    SpanState {
        /// Owning request id.
        req: u64,
        /// Stable state name ([`span::SpanState::name`]).
        state: &'static str,
        /// Interval length.
        dur: SimDuration,
    },
}

impl EventKind {
    /// Short stable snake-case name, used as the exact-count key and in
    /// every exporter. [`EventKind::Fault`] delegates to
    /// [`FaultKind::name`].
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PagingdScan { .. } => "pagingd_scan",
            EventKind::ReleaserBatch { .. } => "releaser_batch",
            EventKind::ReleaseHint { .. } => "release_hint",
            EventKind::ReleaseSuppressed { .. } => "release_suppressed",
            EventKind::ReleaseRejected { .. } => "release_rejected",
            EventKind::ReleaseFilteredSamePage { .. } => "release_filtered_same_page",
            EventKind::ReleaseFilteredBitmap { .. } => "release_filtered_bitmap",
            EventKind::ReleaseIssued { .. } => "release_issued",
            EventKind::ReleaseBuffered { .. } => "release_buffered",
            EventKind::ReleaseDrained => "release_drained",
            EventKind::PrefetchHint { .. } => "prefetch_hint",
            EventKind::PrefetchSuppressed { .. } => "prefetch_suppressed",
            EventKind::PrefetchRejected { .. } => "prefetch_rejected",
            EventKind::PrefetchAdvisoryDropped { .. } => "prefetch_advisory_dropped",
            EventKind::PrefetchFiltered { .. } => "prefetch_filtered",
            EventKind::PrefetchIssued { .. } => "prefetch_issued",
            EventKind::ReleaseAccepted => "release_accepted",
            EventKind::ReleaseSkippedNonresident => "release_skipped_nonresident",
            EventKind::ReleaseSkippedReref => "release_skipped_reref",
            EventKind::ReleaseCancelled => "release_cancelled",
            EventKind::RescueDaemon => "rescue_daemon",
            EventKind::RescueRelease => "rescue_release",
            EventKind::FreedByDaemon => "freed_by_daemon",
            EventKind::FreedByRelease => "freed_by_release",
            EventKind::PrefetchStarted => "prefetch_started",
            EventKind::PrefetchRedundant => "prefetch_redundant",
            EventKind::PrefetchDiscarded => "prefetch_discarded",
            EventKind::PrefetchQuotaDenied => "prefetch_quota_denied",
            EventKind::PrefetchRescued => "prefetch_rescued",
            EventKind::PrefetchValidated => "prefetch_validated",
            EventKind::HardFault => "hard_fault",
            EventKind::SoftFaultDaemon => "soft_fault_daemon",
            EventKind::ZeroFill => "zero_fill",
            EventKind::Io { write: false, .. } => "io_read",
            EventKind::Io { write: true, .. } => "io_write",
            EventKind::PressureShift { .. } => "pressure_shift",
            EventKind::Fault(kind) => kind.name(),
            EventKind::SpanRequest { .. } => "span_request",
            EventKind::SpanState { .. } => "span_state",
        }
    }

    /// The subsystem that emits this kind.
    pub fn subsystem(&self) -> Subsystem {
        match self {
            EventKind::PagingdScan { .. } | EventKind::FreedByDaemon => Subsystem::Pagingd,
            EventKind::ReleaserBatch { .. }
            | EventKind::ReleaseAccepted
            | EventKind::ReleaseSkippedNonresident
            | EventKind::ReleaseSkippedReref
            | EventKind::FreedByRelease => Subsystem::Releaser,
            EventKind::ReleaseHint { .. }
            | EventKind::ReleaseSuppressed { .. }
            | EventKind::ReleaseRejected { .. }
            | EventKind::ReleaseFilteredSamePage { .. }
            | EventKind::ReleaseFilteredBitmap { .. }
            | EventKind::ReleaseIssued { .. }
            | EventKind::ReleaseBuffered { .. }
            | EventKind::ReleaseDrained
            | EventKind::PrefetchHint { .. }
            | EventKind::PrefetchSuppressed { .. }
            | EventKind::PrefetchRejected { .. }
            | EventKind::PrefetchAdvisoryDropped { .. }
            | EventKind::PrefetchFiltered { .. }
            | EventKind::PrefetchIssued { .. } => Subsystem::Hint,
            EventKind::ReleaseCancelled
            | EventKind::RescueDaemon
            | EventKind::RescueRelease
            | EventKind::PrefetchStarted
            | EventKind::PrefetchRedundant
            | EventKind::PrefetchDiscarded
            | EventKind::PrefetchQuotaDenied
            | EventKind::PrefetchRescued
            | EventKind::PrefetchValidated
            | EventKind::HardFault
            | EventKind::SoftFaultDaemon
            | EventKind::ZeroFill
            | EventKind::PressureShift { .. } => Subsystem::Vm,
            EventKind::Io { .. } => Subsystem::Disk,
            EventKind::Fault(_) => Subsystem::Fault,
            EventKind::SpanRequest { .. } | EventKind::SpanState { .. } => Subsystem::Span,
        }
    }

    /// The payload as `(key, value)` pairs, in a fixed order. Only
    /// evaluated at export time, never on the recording path.
    pub fn args(&self) -> Vec<(&'static str, ArgVal)> {
        use ArgVal::U;
        match *self {
            EventKind::PagingdScan { scanned, free } => {
                vec![("scanned", U(scanned)), ("free", U(free))]
            }
            EventKind::ReleaserBatch { handled, queued } => {
                vec![("handled", U(handled)), ("queued", U(queued))]
            }
            EventKind::ReleaseHint { tag, pages }
            | EventKind::ReleaseSuppressed { tag, pages }
            | EventKind::PrefetchHint { tag, pages }
            | EventKind::PrefetchSuppressed { tag, pages }
            | EventKind::PrefetchRejected { tag, pages }
            | EventKind::PrefetchAdvisoryDropped { tag, pages } => {
                vec![("tag", U(tag.into())), ("pages", U(pages.into()))]
            }
            EventKind::ReleaseFilteredSamePage { tag }
            | EventKind::ReleaseFilteredBitmap { tag }
            | EventKind::ReleaseIssued { tag }
            | EventKind::ReleaseRejected { tag }
            | EventKind::PrefetchFiltered { tag }
            | EventKind::PrefetchIssued { tag } => vec![("tag", U(tag.into()))],
            EventKind::ReleaseBuffered { tag, priority } => {
                vec![("tag", U(tag.into())), ("priority", U(priority.into()))]
            }
            EventKind::Io { dur, queue, .. } => vec![
                ("dur_ns", U(dur.as_nanos())),
                ("queue_ns", U(queue.as_nanos())),
            ],
            EventKind::PressureShift { from, to } => vec![
                ("from", ArgVal::S(from.name())),
                ("to", ArgVal::S(to.name())),
            ],
            EventKind::Fault(kind) => fault_args(&kind),
            EventKind::SpanRequest { req, dur, shed } => vec![
                ("req", U(req)),
                ("dur_ns", U(dur.as_nanos())),
                ("shed", U(u64::from(shed))),
            ],
            EventKind::SpanState { req, state, dur } => vec![
                ("req", U(req)),
                ("state", ArgVal::S(state)),
                ("dur_ns", U(dur.as_nanos())),
            ],
            _ => Vec::new(),
        }
    }
}

/// Payload args for a wrapped fault/transition event.
fn fault_args(kind: &FaultKind) -> Vec<(&'static str, ArgVal)> {
    use ArgVal::{S, U};
    match *kind {
        FaultKind::HintDropped { tag }
        | FaultKind::HintDuplicated { tag }
        | FaultKind::HintDelayed { tag }
        | FaultKind::TagProbation { tag } => vec![("tag", U(tag.into()))],
        FaultKind::HintMistagged { from, to } => {
            vec![("from", U(from.into())), ("to", U(to.into()))]
        }
        FaultKind::StaleSharedRead { age } => vec![("age_ns", U(age.as_nanos()))],
        FaultKind::ReleaserJitter { delay, stall } => vec![
            ("delay_ns", U(delay.as_nanos())),
            ("stall", U(u64::from(stall))),
        ],
        FaultKind::PagingdSkew { delay } => vec![("delay_ns", U(delay.as_nanos()))],
        FaultKind::LimitShrunk { from, to } => vec![("from", U(from)), ("to", U(to))],
        FaultKind::IoTransient { attempt, backoff } => vec![
            ("attempt", U(attempt.into())),
            ("backoff_ns", U(backoff.as_nanos())),
        ],
        FaultKind::IoTail { factor } => vec![("factor", U(factor.into()))],
        FaultKind::TagDisabled {
            tag,
            misfires,
            window,
        } => vec![
            ("tag", U(tag.into())),
            ("misfires", U(misfires.into())),
            ("window", U(window.into())),
        ],
        FaultKind::StreamDisabled { disabled_tags } => {
            vec![("disabled_tags", U(disabled_tags as u64))]
        }
        FaultKind::StreamRestored => Vec::new(),
        FaultKind::TrustDemoted { bad, window } => {
            vec![("bad", U(bad.into())), ("window", U(window.into()))]
        }
        FaultKind::TrustRestored => Vec::new(),
        FaultKind::ComponentCrashed { component } => vec![("component", S(component.name()))],
        FaultKind::CrashDetected { component, missed } => vec![
            ("component", S(component.name())),
            ("missed", U(missed.into())),
        ],
        FaultKind::RestartFailed {
            component,
            attempt,
            backoff,
        } => vec![
            ("component", S(component.name())),
            ("attempt", U(attempt.into())),
            ("backoff_ns", U(backoff.as_nanos())),
        ],
        FaultKind::ComponentRestarted { component, attempt } => vec![
            ("component", S(component.name())),
            ("attempt", U(attempt.into())),
        ],
        FaultKind::ComponentAbandoned {
            component,
            attempts,
        } => vec![
            ("component", S(component.name())),
            ("attempts", U(attempts.into())),
        ],
        FaultKind::StateReconciled {
            component,
            orphaned,
            bitmap_fixups,
        } => vec![
            ("component", S(component.name())),
            ("orphaned", U(orphaned)),
            ("bitmap_fixups", U(bitmap_fixups)),
        ],
        FaultKind::BrownoutShift { from, to } => {
            vec![("from", S(from.name())), ("to", S(to.name()))]
        }
        FaultKind::TenantShed {
            pid,
            rss,
            guaranteed,
        } => vec![
            ("pid", U(pid.into())),
            ("rss", U(rss)),
            ("guaranteed", U(guaranteed)),
        ],
        FaultKind::OomKill { pid, rss } => vec![("pid", U(pid.into())), ("rss", U(rss))],
    }
}

/// One structured, sim-time-stamped event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Event {
    /// When it happened (sim time; never wall clock).
    pub at: SimTime,
    /// The process the event is attributed to, if any.
    pub pid: Option<u32>,
    /// The virtual page the event concerns, if any.
    pub vpn: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// One-line text rendering (the flight-recorder dump format).
    pub fn render(&self) -> String {
        let mut s = format!(
            "t={:>14}ns [{:<8}] {}",
            self.at.as_nanos(),
            self.kind.subsystem().name(),
            self.kind.name()
        );
        if let Some(pid) = self.pid {
            let _ = write!(s, " pid={pid}");
        }
        if let Some(vpn) = self.vpn {
            let _ = write!(s, " vpn={vpn}");
        }
        for (k, v) in self.kind.args() {
            match v {
                ArgVal::U(n) => {
                    let _ = write!(s, " {k}={n}");
                }
                ArgVal::S(t) => {
                    let _ = write!(s, " {k}={t}");
                }
            }
        }
        s
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"t_ns\":{},\"sub\":\"{}\",\"name\":\"{}\"",
            self.at.as_nanos(),
            self.kind.subsystem().name(),
            self.kind.name()
        );
        if let Some(pid) = self.pid {
            let _ = write!(s, ",\"pid\":{pid}");
        }
        if let Some(vpn) = self.vpn {
            let _ = write!(s, ",\"vpn\":{vpn}");
        }
        let args = self.kind.args();
        if !args.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                match v {
                    ArgVal::U(n) => {
                        let _ = write!(s, "\"{k}\":{n}");
                    }
                    ArgVal::S(t) => {
                        let _ = write!(s, "\"{k}\":\"{}\"", json_escape(t));
                    }
                }
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Deterministic microsecond rendering of a nanosecond timestamp
/// (Chrome traces use µs): always three decimals, no float formatting.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// A bounded flight recorder for one subsystem of one run.
///
/// Keeps the **last** `cap` events verbatim — after a panic the tail is
/// what matters — and exact per-kind counts plus a total for everything
/// ever emitted, so reconciliation against the stats counters never
/// depends on the ring depth. When disabled, [`Recorder::emit`] is one
/// branch and performs no allocation.
///
/// # Examples
///
/// ```
/// use sim_core::obs::{EventKind, Recorder};
/// use sim_core::SimTime;
///
/// let mut rec = Recorder::new(8);
/// rec.set_enabled(true);
/// rec.emit(SimTime::ZERO, EventKind::HardFault);
/// assert_eq!(rec.count("hard_fault"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Recorder {
    ring: VecDeque<Event>,
    cap: usize,
    enabled: bool,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
    /// Exact per-process counts for pid-attributed events. Kept outside
    /// the ring so eviction never loses tenant attribution.
    pid_counts: BTreeMap<(u32, &'static str), u64>,
    total: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_EVENT_CAP)
    }
}

impl Recorder {
    /// A disabled recorder keeping at most `cap` events verbatim.
    pub fn new(cap: usize) -> Self {
        Recorder {
            ring: VecDeque::new(),
            cap,
            enabled: false,
            dropped: 0,
            counts: BTreeMap::new(),
            pid_counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Enables or disables recording. Disabled emits cost one branch.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event with no process/page attribution.
    #[inline]
    pub fn emit(&mut self, at: SimTime, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            at,
            pid: None,
            vpn: None,
            kind,
        });
    }

    /// Records an event attributed to `(pid, vpn)`.
    #[inline]
    pub fn emit_page(&mut self, at: SimTime, pid: u32, vpn: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            at,
            pid: Some(pid),
            vpn: Some(vpn),
            kind,
        });
    }

    /// Records an event attributed to a process but no particular page.
    #[inline]
    pub fn emit_proc(&mut self, at: SimTime, pid: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.push(Event {
            at,
            pid: Some(pid),
            vpn: None,
            kind,
        });
    }

    fn push(&mut self, ev: Event) {
        *self.counts.entry(ev.kind.name()).or_insert(0) += 1;
        if let Some(pid) = ev.pid {
            *self.pid_counts.entry((pid, ev.kind.name())).or_insert(0) += 1;
        }
        self.total += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Exact count per event name, all events included (even evicted).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Exact count for one event name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Exact per-process counts for pid-attributed events.
    pub fn pid_counts(&self) -> &BTreeMap<(u32, &'static str), u64> {
        &self.pid_counts
    }

    /// Total events emitted while enabled.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted from the ring (still counted).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the last `n` retained events as text, newest last — the
    /// post-mortem dump printed when a run panics.
    pub fn dump_tail(&self, n: usize) -> String {
        let skip = self.ring.len().saturating_sub(n);
        let mut out = String::new();
        for ev in self.ring.iter().skip(skip) {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// A per-hint outcome row of the paper's good/wasted/filtered taxonomy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeRow {
    /// Hints that did what the compiler intended (frames actually given
    /// back / prefetched pages actually first-used).
    pub good: u64,
    /// Hints the kernel had to undo or that cost work for nothing
    /// (re-referenced, cancelled, rescued, redundant, discarded).
    pub wasted: u64,
    /// Hints the run-time layer filtered before the kernel saw them.
    pub filtered: u64,
}

impl OutcomeRow {
    /// good + wasted + filtered.
    pub fn total(&self) -> u64 {
        self.good + self.wasted + self.filtered
    }
}

/// A per-tenant outcome row: the good/wasted/filtered taxonomy plus the
/// hints the admission controller rejected before the filters saw them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantOutcomeRow {
    /// The good/wasted/filtered taxonomy for this tenant.
    pub row: OutcomeRow,
    /// Hints rejected by admission control (rate limit or advisory drop).
    pub rejected: u64,
}

impl TenantOutcomeRow {
    /// good + wasted + filtered + rejected.
    pub fn total(&self) -> u64 {
        self.row.total() + self.rejected
    }

    /// Whether the tenant produced any hint activity at all.
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

/// The merged, time-sorted event stream of one run.
///
/// Built by the engine at the end of a run: it absorbs every subsystem's
/// [`Recorder`] in a fixed order (pagingd/releaser/VM first, then each
/// process's hint layer in registration order, then the disk, then the
/// span tracker, then the fault log) and stably sorts by time —
/// equal-time events keep their absorb order, so the merge is a pure
/// function of the run and its exports are byte-identical across worker
/// counts and resumes.
#[derive(Clone, Debug, Default)]
pub struct EventStream {
    events: Vec<Event>,
    counts: BTreeMap<&'static str, u64>,
    pid_counts: BTreeMap<(u32, &'static str), u64>,
    total: u64,
    dropped: u64,
}

impl EventStream {
    /// An empty stream.
    pub fn new() -> Self {
        EventStream::default()
    }

    /// Absorbs one recorder's retained events and exact counts.
    pub fn absorb(&mut self, rec: &Recorder) {
        self.events.extend(rec.events().copied());
        for (k, v) in rec.counts() {
            *self.counts.entry(k).or_insert(0) += v;
        }
        for (&(pid, k), v) in rec.pid_counts() {
            *self.pid_counts.entry((pid, k)).or_insert(0) += v;
        }
        self.total += rec.total();
        self.dropped += rec.dropped();
    }

    /// Absorbs the fault log as [`EventKind::Fault`] events.
    pub fn absorb_faults(&mut self, log: &FaultLog) {
        self.events.extend(log.events().iter().map(|e| Event {
            at: e.at,
            pid: None,
            vpn: None,
            kind: EventKind::Fault(e.kind),
        }));
        for (k, v) in log.counts() {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total += log.total();
        self.dropped += log.total() - log.events().len() as u64;
    }

    /// Sorts the absorbed events by time (stable: equal-time events keep
    /// their absorb order). Call once after the last absorb.
    pub fn seal(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// The merged events, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Exact count per event name (includes ring-evicted events).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Exact count for one event name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total events recorded (kept + evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events not retained verbatim (counted only).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing was recorded (observability was off).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Timeline marks derived from this stream: degradation/supervision
    /// transitions plus mid-run limit shrinks, in stream order. This is
    /// the single source the occupancy timeline annotates from.
    pub fn timeline_marks(&self) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fault(kind)
                    if kind.is_transition() || matches!(kind, FaultKind::LimitShrunk { .. }) =>
                {
                    Some(FaultEvent { at: e.at, kind })
                }
                _ => None,
            })
            .collect()
    }

    /// Exact count of `name` events attributed to `pid`.
    pub fn pid_count(&self, pid: u32, name: &str) -> u64 {
        self.pid_counts.get(&(pid, name)).copied().unwrap_or(0)
    }

    /// Every pid with at least one attributed event, ascending.
    pub fn pids(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.pid_counts.keys().map(|&(pid, _)| pid).collect();
        out.dedup();
        out
    }

    /// The release-hint outcome row for one tenant (see
    /// [`EventStream::release_outcome`]; `rejected` adds the admission
    /// controller's rate-limit drops).
    pub fn release_outcome_for(&self, pid: u32) -> TenantOutcomeRow {
        let c = |name: &str| self.pid_count(pid, name);
        let rescued = c("rescue_release");
        TenantOutcomeRow {
            row: OutcomeRow {
                good: c("freed_by_release").saturating_sub(rescued),
                wasted: c("release_skipped_reref") + c("release_cancelled") + rescued,
                filtered: c("release_filtered_same_page")
                    + c("release_filtered_bitmap")
                    + c("release_suppressed"),
            },
            rejected: c("release_rejected"),
        }
    }

    /// The prefetch-hint outcome row for one tenant.
    pub fn prefetch_outcome_for(&self, pid: u32) -> TenantOutcomeRow {
        let c = |name: &str| self.pid_count(pid, name);
        TenantOutcomeRow {
            row: OutcomeRow {
                good: c("prefetch_validated"),
                wasted: c("prefetch_redundant") + c("prefetch_discarded"),
                filtered: c("prefetch_filtered") + c("prefetch_suppressed"),
            },
            rejected: c("prefetch_rejected") + c("prefetch_advisory_dropped"),
        }
    }

    /// The release-hint outcome row. Every term is an exact event count,
    /// so the row reconciles with `vm::stats` by construction.
    pub fn release_outcome(&self) -> OutcomeRow {
        let rescued = self.count("rescue_release");
        OutcomeRow {
            good: self.count("freed_by_release").saturating_sub(rescued),
            wasted: self.count("release_skipped_reref") + self.count("release_cancelled") + rescued,
            filtered: self.count("release_filtered_same_page")
                + self.count("release_filtered_bitmap")
                + self.count("release_suppressed"),
        }
    }

    /// The prefetch-hint outcome row.
    pub fn prefetch_outcome(&self) -> OutcomeRow {
        OutcomeRow {
            good: self.count("prefetch_validated"),
            wasted: self.count("prefetch_redundant") + self.count("prefetch_discarded"),
            filtered: self.count("prefetch_filtered") + self.count("prefetch_suppressed"),
        }
    }

    /// JSONL export: one event per line, in stream order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON export, loadable in Perfetto or
    /// `chrome://tracing`. Kernel-side events (no pid) land under
    /// process 0 ("kernel"); per-process events under pid+1. Thread ids
    /// are subsystem ranks; I/O events render as complete ("X") spans.
    pub fn to_chrome_trace(&self, proc_names: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };

        // Metadata: process and thread names.
        let chrome_pid = |pid: Option<u32>| pid.map_or(0, |p| u64::from(p) + 1);
        let mut pids: Vec<Option<u32>> = vec![None];
        pids.extend((0..proc_names.len()).map(|p| Some(p as u32)));
        for pid in &pids {
            let pname = match pid {
                None => "kernel".to_string(),
                Some(p) => proc_names
                    .get(*p as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("proc{p}")),
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    chrome_pid(*pid),
                    json_escape(&pname)
                ),
                &mut first,
            );
            for sub in Subsystem::all() {
                push(
                    format!(
                        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        chrome_pid(*pid),
                        sub.rank(),
                        sub.name()
                    ),
                    &mut first,
                );
            }
        }

        for ev in &self.events {
            let pid = chrome_pid(ev.pid);
            let tid = ev.kind.subsystem().rank();
            let mut args = String::new();
            if let Some(vpn) = ev.vpn {
                let _ = write!(args, "\"vpn\":{vpn}");
            }
            for (k, v) in ev.kind.args() {
                if !args.is_empty() {
                    args.push(',');
                }
                match v {
                    ArgVal::U(n) => {
                        let _ = write!(args, "\"{k}\":{n}");
                    }
                    ArgVal::S(t) => {
                        let _ = write!(args, "\"{k}\":\"{}\"", json_escape(t));
                    }
                }
            }
            let line = match ev.kind {
                EventKind::Io { dur, .. } => format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    ev.kind.name(),
                    ev.kind.subsystem().name(),
                    ts_us(ev.at.as_nanos()),
                    ts_us(dur.as_nanos()),
                    pid,
                    tid,
                    args
                ),
                // Span events render as Perfetto duration slices so each
                // request nests visually: the whole request is one slice
                // named "request" and every state interval a slice named
                // after the state, all on the span thread of its process.
                EventKind::SpanRequest { dur, .. } => format!(
                    "{{\"ph\":\"X\",\"name\":\"request\",\"cat\":\"span\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    ts_us(ev.at.as_nanos()),
                    ts_us(dur.as_nanos()),
                    pid,
                    tid,
                    args
                ),
                EventKind::SpanState { state, dur, .. } => format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"span\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    state,
                    ts_us(ev.at.as_nanos()),
                    ts_us(dur.as_nanos()),
                    pid,
                    tid,
                    args
                ),
                _ => format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    ev.kind.name(),
                    ev.kind.subsystem().name(),
                    ts_us(ev.at.as_nanos()),
                    pid,
                    tid,
                    args
                ),
            };
            push(line, &mut first);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Plain-text rendering of the last `limit` events plus a per-kind
    /// count summary.
    pub fn render_text(&self, limit: usize) -> String {
        let mut out = String::new();
        let skip = self.events.len().saturating_sub(limit);
        if skip > 0 {
            let _ = writeln!(out, "... {skip} earlier events elided ...");
        }
        for ev in self.events.iter().skip(skip) {
            out.push_str(&ev.render());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "-- {} events recorded ({} retained, {} counted only) --",
            self.total,
            self.events.len(),
            self.dropped
        );
        for (k, v) in &self.counts {
            let _ = writeln!(out, "   {k:<28} {v}");
        }
        out
    }
}

/// A snapshot metric value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
}

/// A registry of named metrics snapshotted at the end of a run.
///
/// Names follow the Prometheus convention (`subsystem_name_unit`); the
/// registry renders deterministically (BTreeMap order) as
/// Prometheus-style text via [`MetricsRegistry::to_prometheus`].
///
/// # Examples
///
/// ```
/// use sim_core::obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter("vm_hard_faults_total", "Hard page faults", 42);
/// assert!(m.to_prometheus().contains("vm_hard_faults_total 42"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, (MetricValue, &'static str)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or overwrites) a counter.
    pub fn counter(&mut self, name: impl Into<String>, help: &'static str, value: u64) {
        self.metrics
            .insert(name.into(), (MetricValue::Counter(value), help));
    }

    /// Registers (or overwrites) a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, help: &'static str, value: f64) {
        self.metrics
            .insert(name.into(), (MetricValue::Gauge(value), help));
    }

    /// Registers a histogram summary under `prefix`: `_count`, `_sum`
    /// (seconds), `_p50`/`_p95`/`_max` gauges (seconds).
    pub fn histogram(&mut self, prefix: &str, help: &'static str, hist: &crate::stats::Histogram) {
        self.counter(format!("{prefix}_count"), help, hist.count());
        self.gauge(
            format!("{prefix}_sum_seconds"),
            help,
            hist.sum().as_secs_f64(),
        );
        self.gauge(
            format!("{prefix}_p50_seconds"),
            help,
            hist.quantile(0.5).as_secs_f64(),
        );
        self.gauge(
            format!("{prefix}_p95_seconds"),
            help,
            hist.quantile(0.95).as_secs_f64(),
        );
        self.gauge(
            format!("{prefix}_max_seconds"),
            help,
            hist.max().as_secs_f64(),
        );
    }

    /// Registers an exact-tail summary under `prefix`: `_count`, plus
    /// `_p50`/`_p99`/`_p999`/`_max` gauges (seconds) from nearest-rank
    /// percentiles — the SLO surface, exact rather than bucketed.
    pub fn tail(
        &mut self,
        prefix: &str,
        help: &'static str,
        digest: &mut crate::stats::TailDigest,
    ) {
        self.counter(format!("{prefix}_count"), help, digest.count());
        let (p50, p99, p999) = digest.tail();
        self.gauge(format!("{prefix}_p50_seconds"), help, p50.as_secs_f64());
        self.gauge(format!("{prefix}_p99_seconds"), help, p99.as_secs_f64());
        self.gauge(format!("{prefix}_p999_seconds"), help, p999.as_secs_f64());
        self.gauge(
            format!("{prefix}_max_seconds"),
            help,
            digest.max().as_secs_f64(),
        );
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The value registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// The value of counter `name`, or 0 when absent or not a counter.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Iterates `(name, value, help)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue, &'static str)> {
        self.metrics
            .iter()
            .map(|(name, (value, help))| (name.as_str(), *value, *help))
    }

    /// Prometheus-style text exposition (deterministic order).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, (value, help)) in &self.metrics {
            let _ = writeln!(out, "# HELP {name} {help}");
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(8);
        rec.emit(SimTime::ZERO, EventKind::HardFault);
        rec.emit_page(SimTime::ZERO, 0, 1, EventKind::ZeroFill);
        assert_eq!(rec.total(), 0);
        assert_eq!(rec.events().count(), 0);
        assert!(rec.counts().is_empty());
    }

    #[test]
    fn ring_keeps_tail_but_counts_everything() {
        let mut rec = Recorder::new(2);
        rec.set_enabled(true);
        for i in 0..5u64 {
            rec.emit_page(SimTime::from_nanos(i), 0, i, EventKind::HardFault);
        }
        assert_eq!(rec.total(), 5);
        assert_eq!(rec.count("hard_fault"), 5);
        assert_eq!(rec.dropped(), 3);
        let kept: Vec<u64> = rec.events().map(|e| e.at.as_nanos()).collect();
        assert_eq!(kept, vec![3, 4], "flight recorder keeps the newest");
        let dump = rec.dump_tail(1);
        assert!(dump.contains("t="), "dump renders: {dump}");
        assert_eq!(dump.lines().count(), 1);
    }

    #[test]
    fn zero_capacity_recorder_still_counts() {
        let mut rec = Recorder::new(0);
        rec.set_enabled(true);
        rec.emit(SimTime::ZERO, EventKind::ReleaseAccepted);
        assert_eq!(rec.total(), 1);
        assert_eq!(rec.events().count(), 0);
        assert_eq!(rec.count("release_accepted"), 1);
    }

    #[test]
    fn stream_merge_is_stable_by_time() {
        let mut a = Recorder::new(16);
        a.set_enabled(true);
        a.emit(SimTime::from_nanos(10), EventKind::FreedByDaemon);
        a.emit(SimTime::from_nanos(30), EventKind::FreedByDaemon);
        let mut b = Recorder::new(16);
        b.set_enabled(true);
        b.emit(SimTime::from_nanos(10), EventKind::FreedByRelease);
        b.emit(SimTime::from_nanos(20), EventKind::FreedByRelease);
        let mut stream = EventStream::new();
        stream.absorb(&a);
        stream.absorb(&b);
        stream.seal();
        let names: Vec<&str> = stream.events().iter().map(|e| e.kind.name()).collect();
        // Equal-time (t=10) events keep absorb order: a before b.
        assert_eq!(
            names,
            vec![
                "freed_by_daemon",
                "freed_by_release",
                "freed_by_release",
                "freed_by_daemon"
            ]
        );
        assert_eq!(stream.total(), 4);
        assert_eq!(stream.count("freed_by_daemon"), 2);
    }

    #[test]
    fn fault_events_enter_the_stream_and_derive_marks() {
        let mut log = FaultLog::with_cap(16);
        log.record(SimTime::from_nanos(5), FaultKind::HintDropped { tag: 3 });
        log.record(
            SimTime::from_nanos(9),
            FaultKind::StreamDisabled { disabled_tags: 2 },
        );
        log.record(
            SimTime::from_nanos(11),
            FaultKind::LimitShrunk { from: 100, to: 50 },
        );
        let mut stream = EventStream::new();
        stream.absorb_faults(&log);
        stream.seal();
        assert_eq!(stream.count("hint_dropped"), 1);
        let marks = stream.timeline_marks();
        assert_eq!(marks.len(), 2, "transition + limit shrink, not the drop");
        assert_eq!(marks[0].kind.name(), "stream_disabled");
        assert_eq!(marks[1].kind.name(), "limit_shrunk");
    }

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let mut rec = Recorder::new(8);
        rec.set_enabled(true);
        rec.emit_page(
            SimTime::from_nanos(1500),
            2,
            77,
            EventKind::ReleaseIssued { tag: 4 },
        );
        let mut stream = EventStream::new();
        stream.absorb(&rec);
        stream.seal();
        let jsonl = stream.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_ns\":1500,\"sub\":\"hint\",\"name\":\"release_issued\",\
             \"pid\":2,\"vpn\":77,\"args\":{\"tag\":4}}\n"
        );
    }

    #[test]
    fn chrome_trace_has_metadata_instants_and_spans() {
        let mut rec = Recorder::new(8);
        rec.set_enabled(true);
        rec.emit_page(SimTime::from_nanos(2000), 0, 5, EventKind::HardFault);
        rec.emit(
            SimTime::from_nanos(2500),
            EventKind::Io {
                write: false,
                dur: SimDuration::from_nanos(8123),
                queue: SimDuration::from_nanos(1000),
            },
        );
        rec.emit_proc(
            SimTime::from_nanos(2100),
            0,
            EventKind::SpanState {
                req: 0,
                state: "swap_transfer",
                dur: SimDuration::from_nanos(400),
            },
        );
        let mut stream = EventStream::new();
        stream.absorb(&rec);
        stream.seal();
        let json = stream.to_chrome_trace(&["MATVEC".to_string()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""), "metadata events");
        assert!(json.contains("\"name\":\"MATVEC\""), "process name");
        assert!(json.contains("\"ph\":\"i\""), "instant events");
        assert!(
            json.contains(
                "\"ph\":\"X\",\"name\":\"io_read\",\"cat\":\"disk\",\"ts\":2.500,\"dur\":8.123"
            ),
            "span with deterministic µs: {json}"
        );
        assert!(
            json.contains(
                "\"ph\":\"X\",\"name\":\"swap_transfer\",\"cat\":\"span\",\"ts\":2.100,\
                 \"dur\":0.400"
            ),
            "span-state duration slice: {json}"
        );
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn outcome_rows_sum_their_terms() {
        let mut rec = Recorder::new(64);
        rec.set_enabled(true);
        let t = SimTime::ZERO;
        for _ in 0..5 {
            rec.emit(t, EventKind::FreedByRelease);
        }
        rec.emit(t, EventKind::RescueRelease);
        rec.emit(t, EventKind::ReleaseSkippedReref);
        rec.emit(t, EventKind::ReleaseCancelled);
        rec.emit(t, EventKind::ReleaseFilteredSamePage { tag: 1 });
        rec.emit(t, EventKind::ReleaseFilteredBitmap { tag: 1 });
        rec.emit(t, EventKind::PrefetchValidated);
        rec.emit(t, EventKind::PrefetchRedundant);
        rec.emit(t, EventKind::PrefetchFiltered { tag: 1 });
        let mut stream = EventStream::new();
        stream.absorb(&rec);
        stream.seal();
        let rel = stream.release_outcome();
        assert_eq!(
            rel,
            OutcomeRow {
                good: 4,
                wasted: 3,
                filtered: 2
            }
        );
        assert_eq!(rel.total(), 9);
        let pf = stream.prefetch_outcome();
        assert_eq!(
            pf,
            OutcomeRow {
                good: 1,
                wasted: 1,
                filtered: 1
            }
        );
    }

    #[test]
    fn metrics_render_deterministically() {
        let mut m = MetricsRegistry::new();
        m.gauge("vm_free_frames", "Frames on the free list at end", 123.0);
        m.counter("vm_hard_faults_total", "Hard page faults", 9);
        assert_eq!(m.len(), 2);
        assert_eq!(m.counter_value("vm_hard_faults_total"), 9);
        let text = m.to_prometheus();
        let expected = "# HELP vm_free_frames Frames on the free list at end\n\
                        # TYPE vm_free_frames gauge\n\
                        vm_free_frames 123\n\
                        # HELP vm_hard_faults_total Hard page faults\n\
                        # TYPE vm_hard_faults_total counter\n\
                        vm_hard_faults_total 9\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_summary_registers_quantiles() {
        let mut h = crate::stats::Histogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_nanos(i * 1000));
        }
        let mut m = MetricsRegistry::new();
        m.histogram("disk_io_latency", "Swap I/O latency", &h);
        assert_eq!(m.counter_value("disk_io_latency_count"), 100);
        assert!(m.get("disk_io_latency_p95_seconds").is_some());
        assert!(m.get("disk_io_latency_max_seconds").is_some());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn event_render_mentions_everything() {
        let ev = Event {
            at: SimTime::from_nanos(42),
            pid: Some(1),
            vpn: Some(7),
            kind: EventKind::ReleaseBuffered {
                tag: 9,
                priority: 2,
            },
        };
        let s = ev.render();
        for needle in ["release_buffered", "pid=1", "vpn=7", "tag=9", "priority=2"] {
            assert!(s.contains(needle), "{needle} in {s}");
        }
    }
}
