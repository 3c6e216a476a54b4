//! The executor's core promise, end to end: parallel suite runs are
//! bit-identical to the serial reference order, and the completion
//! journal — the suite's only cross-process cache — hands back
//! byte-identical artifacts on a hit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use hogtame::experiments::suite::{self, SUITE_TABLES};
use hogtame::prelude::*;

/// A fresh, process-unique scratch directory (no timestamps: tests must
/// stay deterministic and runnable in parallel).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hogtame-parallel-exec-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn small_suite(jobs: usize) -> suite::Suite {
    suite::run_with_jobs(
        &MachineConfig::small(),
        Some(&["MATVEC"]),
        SimDuration::from_secs(1),
        jobs,
    )
    .expect("suite runs")
}

/// Every suite table renders byte-identically whether the grid ran on one
/// worker (the serial reference) or on four.
#[test]
fn parallel_suite_matches_serial_byte_for_byte() {
    let serial = small_suite(1);
    let parallel = small_suite(4);
    for (name, _) in SUITE_TABLES {
        let a = serial.table(name).expect("known table").to_csv();
        let b = parallel.table(name).expect("known table").to_csv();
        assert_eq!(a, b, "{name} diverged between 1 and 4 workers");
    }
}

/// A journal miss on four workers followed by a journal hit on one yields
/// the serial reference's tables, and the hit re-runs nothing (the journal
/// gains no record).
#[test]
fn suite_cache_hit_reproduces_miss_artifacts() {
    let dir = scratch("journal");
    let journal = Journal::at(&dir).expect("journal opens");
    let machine = MachineConfig::small();
    let benches = Some(&["MATVEC"][..]);
    let sleep = SimDuration::from_secs(1);

    let miss = suite::run_journaled(&machine, benches, sleep, 4, &journal)
        .expect("first pass runs the grid");
    let recorded = journal.len();
    assert_eq!(recorded, suite::requests(&machine, benches, sleep).len());

    let hit = suite::run_journaled(&machine, benches, sleep, 1, &journal)
        .expect("second pass replays the journal");
    assert_eq!(journal.len(), recorded, "a hit journals nothing new");

    let serial = small_suite(1);
    for (name, _) in SUITE_TABLES {
        let reference = serial.table(name).expect("known table").to_csv();
        let a = miss.table(name).expect("known table").to_csv();
        let b = hit.table(name).expect("known table").to_csv();
        assert_eq!(
            a, reference,
            "{name} differs between journal miss and serial"
        );
        assert_eq!(
            b, reference,
            "{name} differs between journal hit and serial"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Emitted artifacts are byte-identical between a journal miss and a hit:
/// the full write-out path, not just the in-memory tables.
#[test]
fn emitted_files_identical_across_cache_states() {
    let dir = scratch("emit-journal");
    let journal = Journal::at(&dir).expect("journal opens");
    let machine = MachineConfig::small();
    let benches = Some(&["MATVEC"][..]);
    let sleep = SimDuration::from_secs(1);

    let mut dumps: Vec<Vec<(String, String)>> = Vec::new();
    for round in 0..2 {
        let before = journal.len();
        let suite = suite::run_journaled(&machine, benches, sleep, 2, &journal).expect("runs");
        assert_eq!(journal.len() == before, round == 1, "round 1 is a hit");
        let out = scratch(&format!("emit-{round}"));
        let mut files = Vec::new();
        for (name, title) in SUITE_TABLES {
            let table = suite.table(name).expect("known table");
            Artifact::new(name, title)
                .in_dir(&out)
                .write_table(&table)
                .expect("artifact write");
            let path = out.join(format!("{name}.csv"));
            files.push((
                name.to_string(),
                std::fs::read_to_string(&path).expect("artifact written"),
            ));
        }
        std::fs::remove_dir_all(&out).ok();
        dumps.push(files);
    }
    assert_eq!(
        dumps[0], dumps[1],
        "artifact bytes differ across journal states"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The executor preserves request identity: outcomes land at their
/// request's index regardless of which worker ran them, so a shuffled
/// grid read back in order equals a serial run of the same grid.
#[test]
fn outcomes_indexed_by_request_not_completion_order() {
    let grid: Vec<RunRequest> = ["MATVEC", "MATVEC", "MATVEC", "MATVEC"]
        .iter()
        .zip(Version::ALL)
        .map(|(b, v)| {
            RunRequest::on(MachineConfig::small())
                .bench(*b, v)
                .interactive(SimDuration::from_secs(1), None)
        })
        .collect();
    let serial: Vec<u64> = exec::run_all_with(grid.clone(), 1)
        .into_iter()
        .map(|o| o.expect("runs").hog.unwrap().finish_time.as_nanos())
        .collect();
    let parallel: Vec<u64> = exec::run_all_with(grid, 4)
        .into_iter()
        .map(|o| o.expect("runs").hog.unwrap().finish_time.as_nanos())
        .collect();
    assert_eq!(serial, parallel);
    // The four versions genuinely differ, so an index swap cannot hide.
    let mut distinct = serial.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() >= 3, "versions too similar to detect swaps");
}
