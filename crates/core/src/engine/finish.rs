//! The end of a run: result assembly, the metrics snapshot, and the
//! flight-recorder dump a panicking run leaves behind.

use sim_core::fault::FaultLog;
use sim_core::obs::span::{SpanReport, SpanTracker};
use sim_core::obs::{EventStream, MetricsRegistry, Recorder};
use sim_core::stats::TimeBreakdown;
use sim_core::{SimDuration, SimTime};
use vm::Pid;

use super::fleet::{export_fleet_metrics, FleetStats};
use super::Engine;
use crate::timeline::Timeline;

/// Per-process results of a run.
#[derive(Clone, Debug)]
pub struct ProcResult {
    /// Process name.
    pub name: String,
    /// VM-level pid (index into `RunResult::vm_stats.procs`).
    pub pid: Pid,
    /// Execution-time breakdown (Figure 7 categories).
    pub breakdown: TimeBreakdown,
    /// Response-time samples (interactive sweeps).
    pub sweeps: Vec<SimDuration>,
    /// Hard page faults per sweep (Figure 10c).
    pub sweep_faults: Vec<u64>,
    /// When the process finished (`SimTime::MAX` if it never did).
    pub finish_time: SimTime,
    /// Run-time layer statistics, if the process had one.
    pub rt_stats: Option<runtime::RtStats>,
    /// Hint-health monitor statistics (per-kind misfire counts), if the
    /// layer ran with health monitoring.
    pub health_stats: Option<runtime::HealthStats>,
    /// Admission-control statistics, if the layer ran with admission.
    pub admission_stats: Option<runtime::AdmissionStats>,
    /// Address-space lock statistics (acquisitions, contention, waits).
    pub lock_stats: vm::lock::LockStats,
    /// Total ops executed.
    pub ops_executed: u64,
    /// The logical fleet tenant, if the process was tenant-tagged.
    pub tenant: Option<u32>,
    /// The brownout ladder shed this process (a typed outcome — the run
    /// completed; this tenant was evicted at `Emergency`).
    pub shed: bool,
    /// The process died because an allocation could not be satisfied
    /// even by forced reclaims (a typed outcome — the run completed;
    /// this is what uncontrolled overload does to a machine with no
    /// ladder defending it).
    pub oom_killed: bool,
}

impl ProcResult {
    /// A registered process's result before it has run.
    pub(super) fn new(pid: Pid, name: String) -> Self {
        ProcResult {
            name,
            pid,
            breakdown: TimeBreakdown::new(),
            sweeps: Vec::new(),
            sweep_faults: Vec::new(),
            finish_time: SimTime::MAX,
            rt_stats: None,
            health_stats: None,
            admission_stats: None,
            lock_stats: vm::lock::LockStats::default(),
            ops_executed: 0,
            tenant: None,
            shed: false,
            oom_killed: false,
        }
    }

    /// Mean response time over the recorded sweeps, skipping the first
    /// (cold-start) sweep when more than one was recorded. `None` only if
    /// no sweep completed.
    pub fn mean_response(&self) -> Option<SimDuration> {
        let samples = warm(&self.sweeps);
        let sum: u64 = samples.iter().map(|d| d.as_nanos()).sum();
        (!samples.is_empty()).then(|| SimDuration::from_nanos(sum / samples.len() as u64))
    }

    /// Mean hard faults per sweep (skipping the cold-start sweep when
    /// possible).
    pub fn mean_sweep_faults(&self) -> Option<f64> {
        let s = warm(&self.sweep_faults);
        (!s.is_empty()).then(|| s.iter().sum::<u64>() as f64 / s.len() as f64)
    }
}

/// Per-sweep samples without the cold-start sweep, unless it is the only
/// one.
fn warm<T>(samples: &[T]) -> &[T] {
    if samples.len() >= 2 {
        &samples[1..]
    } else {
        samples
    }
}

/// The results of one engine run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-process results, in registration order.
    pub procs: Vec<ProcResult>,
    /// Final VM statistics (daemon counters, freed-page outcomes …).
    pub vm_stats: vm::VmStats,
    /// Swap device statistics.
    pub swap_reads: u64,
    /// Swap writes.
    pub swap_writes: u64,
    /// Frames on the free list when the run ended (after process exits).
    pub final_free: u64,
    /// When the run ended.
    pub end_time: SimTime,
    /// The occupancy timeline, when sampling was enabled.
    pub timeline: Option<Timeline>,
    /// Every fault injected and degradation transition taken, merged
    /// across the engine, the swap array, and each run-time layer.
    pub fault_log: FaultLog,
    /// The merged, time-sorted structured event stream (empty unless the
    /// run observed via [`Engine::with_observability`] or ran checked).
    pub events: EventStream,
    /// Scalar metrics snapshotted from every subsystem at end of run
    /// (always populated; exportable as Prometheus text).
    pub metrics: MetricsRegistry,
    /// Fleet overload-control results (tail latency, fairness, brownout
    /// record) — `None` unless the run was tenant-tagged or ran with
    /// overload control.
    pub fleet: Option<FleetStats>,
    /// Per-request causal span report (state blame table, critical
    /// paths, top-k exemplars) — `None` unless the run observed via
    /// [`Engine::with_observability`].
    pub spans: Option<SpanReport>,
}

impl Engine {
    /// Assembles the run's results once the loop stops, moving each
    /// process's result out of the engine.
    #[cold]
    pub(super) fn finish(&mut self) -> RunResult {
        // The run ends when the last activity completes: processes run
        // ahead of the popped event time within a turn, so take the max of
        // the queue clock and every recorded finish time.
        let mut end_time = self.queue.now().min(self.max_time);
        for p in self.procs.iter().filter(|p| p.finished()) {
            end_time = end_time.max(p.result.finish_time);
        }
        let fleet = self.compute_fleet(end_time);
        let mut fault_log = std::mem::take(&mut self.fault_log);
        fault_log.merge(self.vm.swap().fault_log());
        for rt in self.procs.iter().filter_map(|p| p.rt.as_ref()) {
            fault_log.merge(rt.fault_log());
        }
        // Seal the span tracker first: requests still open at end of run
        // are counted as unfinished, everything closed becomes the report.
        let spans = self.spans.take().map(SpanTracker::finish);
        // One merged, time-sorted event stream: the VM's recorder, each
        // run-time layer's (in registration order), the swap array's, the
        // span tracker's, then the fault log — a fixed absorb order so
        // the sealed stream is byte-identical however the grid was
        // scheduled.
        let mut events = EventStream::new();
        events.absorb(self.vm.recorder());
        for rt in self.procs.iter().filter_map(|p| p.rt.as_ref()) {
            events.absorb(rt.recorder());
        }
        events.absorb(self.vm.swap().recorder());
        if let Some((rec, _)) = spans.as_ref() {
            events.absorb(rec);
        }
        events.absorb_faults(&fault_log);
        events.seal();
        // Degradation transitions (and the limit shrink) annotate the
        // occupancy timeline so plots show *when* the system backed off —
        // derived from the single event stream, not a second bookkeeping
        // path.
        let marks = events.timeline_marks();
        let timeline = self.timeline.take().map(|(period, samples)| Timeline {
            period,
            total_frames: self.vm.total_frames(),
            proc_names: self.procs.iter().map(|p| p.result.name.clone()).collect(),
            samples,
            marks,
        });
        let mut metrics = self.export_metrics(end_time, &fault_log);
        let fleet = fleet.map(|(stats, mut overall)| {
            export_fleet_metrics(&mut metrics, &stats, &mut overall);
            stats
        });
        let procs = std::mem::take(&mut self.procs)
            .into_iter()
            .map(|p| {
                let mut r = p.result;
                if let Some(rt) = &p.rt {
                    r.rt_stats = Some(*rt.stats());
                    r.health_stats = rt.health_stats().cloned();
                    r.admission_stats = rt.admission_stats().copied();
                }
                r.lock_stats = self.vm.lock_stats(r.pid);
                r
            })
            .collect();
        RunResult {
            procs,
            vm_stats: self.vm.stats().clone(),
            swap_reads: self.vm.swap().stats().page_reads.get(),
            swap_writes: self.vm.swap().stats().page_writes.get(),
            final_free: self.vm.free_pages(),
            end_time,
            timeline,
            fault_log,
            events,
            metrics,
            fleet,
            spans: spans.map(|(_, report)| report),
        }
    }

    /// Dumps the tail of every subsystem flight recorder to stderr (the
    /// crash path: called when a run panics, before the panic resumes).
    #[cold]
    pub(super) fn dump_flight_recorders(&self) {
        const TAIL: usize = 32;
        eprintln!("==== hogtame flight recorder (run aborted) ====");
        let dump = |label: &str, rec: &Recorder| {
            if rec.total() == 0 {
                return;
            }
            eprintln!("-- {label}: {} events captured --", rec.total());
            eprint!("{}", rec.dump_tail(TAIL));
        };
        dump("vm", self.vm.recorder());
        for p in &self.procs {
            if let Some(rt) = &p.rt {
                dump(&format!("rt/{}", p.result.name), rt.recorder());
            }
        }
        dump("swap", self.vm.swap().recorder());
        if !self.fault_log.events().is_empty() {
            eprintln!("-- faults: {}", self.fault_log.summary());
        }
        eprintln!("==== end flight recorder ====");
    }

    /// Snapshots every subsystem's counters into a metrics registry
    /// (always run — the registry is scalar and cheap, independent of the
    /// event recorders).
    #[inline(never)]
    fn export_metrics(&self, end_time: SimTime, fault_log: &FaultLog) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let (vm, sw) = (self.vm.stats(), self.vm.swap().stats());
        let (pd, rl, fr) = (&vm.pagingd, &vm.releaser, &vm.freed);
        #[rustfmt::skip]
        let gauges = [
            ("hogtame_sim_end_seconds", "Simulated clock when the run ended",
                end_time.as_secs_f64()),
            ("hogtame_frames_free", "Frames on the free list at end of run",
                self.vm.free_pages() as f64),
            ("hogtame_pagingd_busy_seconds", "Total paging-daemon busy time",
                pd.busy.as_secs_f64()),
            ("hogtame_releaser_busy_seconds", "Total releaser busy time", rl.busy.as_secs_f64()),
        ];
        #[rustfmt::skip]
        let counters = [
            ("hogtame_pagingd_activations_total", "Paging-daemon activations",
                pd.activations.get()),
            ("hogtame_pagingd_frames_scanned_total", "Frames examined by the paging daemon",
                pd.frames_scanned.get()),
            ("hogtame_pagingd_pages_stolen_total", "Pages reclaimed by the paging daemon",
                pd.pages_stolen.get()),
            ("hogtame_pagingd_invalidations_total", "Mappings invalidated by the scan",
                pd.invalidations.get()),
            ("hogtame_pagingd_writebacks_total", "Dirty pages written back by the daemon",
                pd.writebacks.get()),
            ("hogtame_pagingd_reactive_steals_total",
                "Steals guided by reactive eviction candidates", pd.reactive_steals.get()),
            ("hogtame_releaser_activations_total", "Releaser-daemon activations",
                rl.activations.get()),
            ("hogtame_releaser_requests_total", "Release requests accepted onto the queue",
                rl.requests.get()),
            ("hogtame_releaser_pages_released_total", "Pages freed by the releaser",
                rl.pages_released.get()),
            ("hogtame_releaser_skipped_reref_total", "Requests cancelled by a re-reference",
                rl.skipped_reref.get()),
            ("hogtame_releaser_skipped_nonresident_total",
                "Requests dropped because the page was gone", rl.skipped_nonresident.get()),
            ("hogtame_releaser_writebacks_total", "Dirty pages written back by the releaser",
                rl.writebacks.get()),
            ("hogtame_freed_by_daemon_total", "Pages freed by the paging daemon",
                fr.freed_by_daemon.get()),
            ("hogtame_freed_by_release_total", "Pages freed by compiler-inserted releases",
                fr.freed_by_release.get()),
            ("hogtame_rescued_daemon_total", "Daemon-freed pages rescued from the free list",
                fr.rescued_daemon.get()),
            ("hogtame_rescued_release_total", "Released pages rescued from the free list",
                fr.rescued_release.get()),
            ("hogtame_swap_reads_total", "Completed swap page reads", sw.page_reads.get()),
            ("hogtame_swap_writes_total", "Completed swap page writes", sw.page_writes.get()),
            ("hogtame_swap_transient_retries_total", "Transient I/O failures retried",
                sw.transient_retries.get()),
            ("hogtame_swap_tail_delays_total", "Requests hit by the injected slow tail",
                sw.tail_delays.get()),
            ("hogtame_fault_log_entries_total", "Entries in the merged fault/degradation log",
                fault_log.events().len() as u64),
        ];
        for (name, help, value) in gauges {
            m.gauge(name, help, value);
        }
        for (name, help, value) in counters {
            m.counter(name, help, value);
        }
        m.histogram(
            "hogtame_swap_latency",
            "Swap I/O completion latency",
            self.vm.swap().latency_histogram(),
        );
        // The overload-control state the run ended in, exported whenever
        // it is armed (fleet or not).
        if let Some(o) = self.fleet.overload.as_ref() {
            m.gauge(
                "hogtame_pressure_level",
                "Final graded memory-pressure level (0=normal .. 3=emergency)",
                o.monitor.level().index() as f64,
            );
            if let Some(ladder) = o.ladder.as_ref() {
                m.gauge(
                    "hogtame_brownout_rung",
                    "Final brownout-ladder rung (0=normal .. 3=emergency)",
                    ladder.level().index() as f64,
                );
            }
        }
        // Per-process metric families are only useful at human scale; a
        // 2000-process fleet would explode the registry, so those runs
        // keep the machine-level families plus the fleet aggregates.
        let per_proc = self.procs.len() <= 64;
        for r in self.procs.iter().filter(|_| per_proc).map(|p| &p.result) {
            let ps = vm.proc(r.pid.0 as usize);
            let base = format!("hogtame_proc_{}", metric_slug(&r.name));
            #[rustfmt::skip]
            let counters = [
                ("hard_faults", "Hard page faults taken by this process", ps.hard_faults.get()),
                ("soft_faults", "Free-list rescues (daemon- or release-freed) by this process",
                    ps.soft_faults_daemon.get() + ps.soft_faults_release.get()),
                ("prefetch_validates", "Prefetched pages later used by this process",
                    ps.prefetch_validates.get()),
                ("pages_released", "Pages this process released via hints",
                    ps.pages_released.get()),
                ("ops", "Simulated ops executed by this process", r.ops_executed),
            ];
            for (name, help, value) in counters {
                m.counter(format!("{base}_{name}_total"), help, value);
            }
            m.gauge(
                format!("{base}_peak_rss_frames"),
                "Peak resident-set size in frames",
                ps.peak_rss as f64,
            );
        }
        m
    }
}

/// Lowercases a process name into a Prometheus-safe metric-name segment
/// (every non-alphanumeric byte becomes `_`).
fn metric_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}
