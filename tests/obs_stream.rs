//! The observability layer's three load-bearing promises, end to end:
//!
//! 1. **Determinism** — the merged event stream (and every export derived
//!    from it) is byte-identical whether a grid runs serially, on a
//!    4-worker pool, or resumes from a kill-then-resume journal pass.
//! 2. **Attribution** — per-hint lifecycle counts in the stream reconcile
//!    *exactly* with the independent `vm::stats` / `RtStats` counters, so
//!    the outcome table can be trusted against the paper's tables.
//! 3. **Exports** — the Chrome trace / JSONL / Prometheus renderings are
//!    well-formed and non-empty for observed runs, and instrumentation
//!    stays fully disabled (zero events) for plain runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use hogtame::prelude::*;

/// A fresh, process-unique scratch directory (no timestamps: tests must
/// stay deterministic and runnable in parallel).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hogtame-obs-stream-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

const SLEEP: SimDuration = SimDuration::from_secs(1);

/// A mixed grid: observed hog+interactive runs (R and B exercise both
/// release policies), an observed hog-only run, an observed
/// interactive-only run, and one *plain* run that must stay event-free.
fn grid() -> Vec<RunRequest> {
    let m = MachineConfig::small;
    vec![
        RunRequest::on(m())
            .bench("MATVEC", Version::Release)
            .interactive(SLEEP, None)
            .observe(),
        RunRequest::on(m())
            .bench("MATVEC", Version::Buffered)
            .interactive(SLEEP, None)
            .observe(),
        RunRequest::on(m())
            .bench("EMBAR", Version::Original)
            .observe(),
        // Interactive alone must bound its sweeps — unbounded, it only
        // stops when a hog finishes, and there is none here.
        RunRequest::on(m()).interactive(SLEEP, Some(10)).observe(),
        RunRequest::on(m()).bench("MATVEC", Version::Prefetch),
    ]
}

/// Flattens a grid's outcomes to the exports whose bytes we pin: the
/// JSONL event stream and the Prometheus metrics text per request.
fn export_bytes(outcomes: &[Result<RunOutcome, RunError>]) -> Vec<(String, String)> {
    outcomes
        .iter()
        .map(|r| {
            let out = r.as_ref().expect("grid request succeeds");
            (out.run.events.to_jsonl(), out.run.metrics.to_prometheus())
        })
        .collect()
}

#[test]
fn event_streams_are_byte_identical_across_worker_counts() {
    let serial = export_bytes(&exec::run_all_journaled(grid(), 1, None));
    for jobs in [2, 4] {
        let pooled = export_bytes(&exec::run_all_journaled(grid(), jobs, None));
        assert_eq!(
            serial, pooled,
            "jsonl + prometheus exports must not depend on jobs={jobs}"
        );
    }
    // Sanity on the reference pass itself: observed runs carry events,
    // the plain run carries none (disabled means *off*, not "fewer").
    let observed_totals: Vec<usize> = serial.iter().map(|(j, _)| j.lines().count()).collect();
    assert!(
        observed_totals[..4].iter().all(|&n| n > 0),
        "observed runs record events: {observed_totals:?}"
    );
    assert_eq!(observed_totals[4], 0, "plain run records no events");
}

#[test]
fn killed_observed_grid_resumes_byte_identical() {
    let straight = export_bytes(&exec::run_all_journaled(grid(), 1, None));

    let dir = scratch("journal");
    let journal = Journal::at(&dir).expect("journal opens");
    let killed = exec::run_all_until(grid(), 2, &journal, 2);
    assert!(killed >= 2, "the pool completed work before the kill");
    // Observed requests are not journalable — at most the one plain
    // request may have produced a record before the kill.
    assert!(
        journal.len() <= 1,
        "observe runs must never be journaled, found {} records",
        journal.len()
    );

    let resumed = exec::run_all_journaled(grid(), 2, Some(&journal));
    assert_eq!(
        straight,
        export_bytes(&resumed),
        "kill-then-resume must reproduce the uninterrupted exports"
    );
    // The resumed observed runs re-simulated (journal replay would have
    // come back with an empty stream).
    for out in resumed[..4].iter().map(|r| r.as_ref().unwrap()) {
        assert!(out.run.events.total() > 0, "observed runs re-simulate");
    }
}

/// Runs one observed benchmark + interactive scenario and checks every
/// event count in the stream against the subsystem's own statistics.
fn reconcile(bench: &str, version: Version) {
    let out = RunRequest::on(MachineConfig::small())
        .bench(bench, version)
        .interactive(SLEEP, None)
        .observe()
        .run()
        .expect("benchmark is registered");
    let ev = &out.run.events;
    let vm = &out.run.vm_stats;
    let tag = format!("{bench}-{}", version.label());
    let check = |name: &str, expect: u64| {
        assert_eq!(ev.count(name), expect, "{tag}: event count {name}");
    };

    // Kernel freed-page outcomes and releaser decisions.
    check("freed_by_release", vm.freed.freed_by_release.get());
    check("freed_by_daemon", vm.freed.freed_by_daemon.get());
    check("rescue_release", vm.freed.rescued_release.get());
    check("rescue_daemon", vm.freed.rescued_daemon.get());
    check("release_accepted", vm.releaser.requests.get());
    check("release_skipped_reref", vm.releaser.skipped_reref.get());
    check(
        "release_skipped_nonresident",
        vm.releaser.skipped_nonresident.get(),
    );
    check("releaser_batch", vm.releaser.activations.get());
    assert!(
        ev.count("pagingd_scan") <= vm.pagingd.activations.get(),
        "{tag}: a scan event needs a non-empty activation"
    );

    // Per-process fault taxonomy.
    let procs = |f: fn(&vm::ProcStats) -> u64| vm.procs.iter().map(f).sum::<u64>();
    check("hard_fault", procs(|p| p.hard_faults.get()));
    check("zero_fill", procs(|p| p.zero_fills.get()));
    check("soft_fault_daemon", procs(|p| p.soft_faults_daemon.get()));
    check("release_cancelled", procs(|p| p.soft_faults_release.get()));
    check("prefetch_validated", procs(|p| p.prefetch_validates.get()));
    check("prefetch_redundant", procs(|p| p.prefetch_redundant.get()));
    check("prefetch_discarded", procs(|p| p.prefetch_discarded.get()));

    // Swap device: one Io span per completed transfer.
    check("io_read", out.run.swap_reads);
    check("io_write", out.run.swap_writes);

    // Run-time layer filters (summed across processes that have one).
    let rt = |f: fn(&runtime::RtStats) -> u64| {
        out.run
            .procs
            .iter()
            .filter_map(|p| p.rt_stats.as_ref())
            .map(f)
            .sum::<u64>()
    };
    check("release_hint", rt(|s| s.release_hints));
    check("release_issued", rt(|s| s.release_issued_direct));
    check("release_buffered", rt(|s| s.release_buffered));
    check("release_drained", rt(|s| s.release_drained));
    check("prefetch_issued", rt(|s| s.prefetch_issued));
    check("prefetch_filtered", rt(|s| s.prefetch_filtered));

    // The outcome table is exactly the counters, re-attributed.
    let rel = ev.release_outcome();
    assert_eq!(
        rel.good,
        vm.freed.freed_by_release.get() - vm.freed.rescued_release.get(),
        "{tag}: good releases"
    );
    assert_eq!(
        rel.wasted,
        vm.releaser.skipped_reref.get()
            + procs(|p| p.soft_faults_release.get())
            + vm.freed.rescued_release.get(),
        "{tag}: wasted releases"
    );
    let pre = ev.prefetch_outcome();
    assert_eq!(
        pre.good,
        procs(|p| p.prefetch_validates.get()),
        "{tag}: good prefetches"
    );
    assert_eq!(
        pre.wasted,
        procs(|p| p.prefetch_redundant.get()) + procs(|p| p.prefetch_discarded.get()),
        "{tag}: wasted prefetches"
    );

    // The hint path actually fired in hinted versions: the reconciliation
    // above must not be vacuous 0 == 0 equalities.
    assert!(
        ev.count("release_hint") > 0,
        "{tag}: release hints were emitted"
    );
    assert!(
        vm.freed.freed_by_release.get() > 0,
        "{tag}: releases freed pages"
    );

    // Metrics snapshot agrees with the same ground truth.
    let m = &out.run.metrics;
    assert_eq!(
        m.counter_value("hogtame_swap_reads_total"),
        out.run.swap_reads
    );
    assert_eq!(
        m.counter_value("hogtame_freed_by_release_total"),
        vm.freed.freed_by_release.get()
    );
    assert_eq!(
        m.counter_value("hogtame_releaser_requests_total"),
        vm.releaser.requests.get()
    );
}

#[test]
fn matvec_release_counts_reconcile_with_vm_stats() {
    reconcile("MATVEC", Version::Release);
}

#[test]
fn matvec_buffered_counts_reconcile_with_vm_stats() {
    reconcile("MATVEC", Version::Buffered);
}

#[test]
fn exports_are_well_formed() {
    let out = RunRequest::on(MachineConfig::small())
        .bench("MATVEC", Version::Release)
        .interactive(SLEEP, None)
        .observe()
        .run()
        .unwrap();
    let ev = &out.run.events;

    // Chrome trace: the envelope Perfetto / chrome://tracing expects,
    // with process-name metadata records for every registered process.
    let names: Vec<String> = out.run.procs.iter().map(|p| p.name.clone()).collect();
    let chrome = ev.to_chrome_trace(&names);
    assert!(
        chrome.starts_with("{\"traceEvents\":["),
        "got: {:.60}",
        chrome
    );
    assert!(chrome.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    assert!(chrome.contains("\"ph\":\"M\""), "metadata records present");
    assert!(chrome.contains("process_name"));

    // JSONL: one object per retained event, every line self-contained.
    let jsonl = ev.to_jsonl();
    assert_eq!(jsonl.lines().count(), ev.events().len());
    for line in jsonl.lines().take(50) {
        assert!(line.starts_with('{') && line.ends_with('}'), "got: {line}");
        assert!(line.contains("\"t_ns\":") && line.contains("\"name\":"));
    }

    // Prometheus text: HELP/TYPE headers pair with every sample.
    let prom = out.run.metrics.to_prometheus();
    assert!(!out.run.metrics.is_empty());
    assert!(prom.contains("# HELP hogtame_sim_end_seconds"));
    assert!(prom.contains("# TYPE hogtame_swap_reads_total counter"));

    // A plain (unobserved) run: zero events, yet metrics stay populated.
    let plain = RunRequest::on(MachineConfig::small())
        .bench("MATVEC", Version::Release)
        .interactive(SLEEP, None)
        .run()
        .unwrap();
    assert_eq!(plain.run.events.total(), 0);
    assert_eq!(plain.run.events.dropped(), 0);
    assert!(!plain.run.metrics.is_empty(), "metrics always populated");
    // And the simulation itself is untouched by instrumentation.
    assert_eq!(plain.run.end_time, out.run.end_time);
    assert_eq!(plain.run.swap_reads, out.run.swap_reads);

    // The daemon activations (`pagingd_scan`, `releaser_batch`) are in
    // the observed stream: MGRID-R on the small machine both reclaims and
    // releases, and a second observed run repeats its activations exactly.
    let daemon_events = || {
        let o = RunRequest::on(MachineConfig::small())
            .bench("MGRID", Version::Release)
            .observe()
            .run()
            .unwrap();
        let counts = o.run.events.counts();
        for name in ["pagingd_scan", "releaser_batch"] {
            assert!(counts.get(name) > Some(&0), "observed run holds {name}");
        }
        let daemon: Vec<Event> = o
            .run
            .events
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::PagingdScan { .. } | EventKind::ReleaserBatch { .. }
                )
            })
            .copied()
            .collect();
        (counts.clone(), daemon)
    };
    let first = daemon_events();
    assert!(!first.1.is_empty(), "daemon events retained");
    assert_eq!(first, daemon_events());
}
