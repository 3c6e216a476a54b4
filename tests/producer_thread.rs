//! The executor's producer thread never outlives its process: after a hog
//! is OOM-killed mid-run and after a run stops at `max_time`, no thread
//! named `hogtame-exec` is left in `/proc/self/task`.
//!
//! One test in its own binary, so no other engine runs beside it: on a
//! machine with two or more cores the hog's executor gets a producer
//! thread ([`Engine::spare_core`]).

use std::time::{Duration, Instant};

use hogtame::prelude::*;
use hogtame::scenario::install_bench;
use runtime::handoff::{live_producers, THREAD_NAME};
use runtime::RtConfig;

/// Threads of this process named like the producer (0 where `/proc` is
/// unavailable).
fn producer_tasks() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == THREAD_NAME)
        .count()
}

/// Installs MATVEC on `engine` and checks a producer started exactly
/// when the engine had a core to spare.
fn install_hog(engine: &mut Engine) {
    let spare = engine.spare_core();
    let spec = workloads::benchmark("MATVEC").expect("MATVEC exists");
    install_bench(engine, &spec, Version::Original, RtConfig::default());
    assert_eq!(live_producers(), usize::from(spare));
    if spare && std::path::Path::new("/proc/self/task").exists() {
        // The new thread names itself once it starts; it then waits,
        // parked two chunks ahead, for the engine to read.
        assert_eq!(settle(1), 1, "the producer runs while the hog does");
    }
}

/// Producer tasks once the count reaches `want` (a thread names itself
/// after it starts, and leaves the task list just after its join), or
/// after ten seconds: a leaked producer stays parked forever.
fn settle(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while producer_tasks() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    producer_tasks()
}

#[test]
fn no_producer_thread_outlives_an_oom_kill_or_a_max_time_stop() {
    assert_eq!(producer_tasks(), 0);

    // A paging daemon that scans nothing cannot reclaim a frame, so the
    // hog's first allocation past the free list kills it.
    let mut machine = MachineConfig::small();
    machine.tunables.daemon_scan_batch = 0;
    let mut engine = Engine::new(machine);
    install_hog(&mut engine);
    let run = engine.run();
    assert!(run.procs[0].oom_killed, "the hog was OOM-killed");
    assert_eq!(live_producers(), 0);
    assert_eq!(settle(0), 0, "no producer outlives the OOM kill");

    // The safety valve stops the run long before the hog's end.
    let mut engine = Engine::new(MachineConfig::small());
    install_hog(&mut engine);
    engine.max_time = SimTime::from_nanos(5_000_000);
    let run = engine.run();
    assert_eq!(run.procs[0].finish_time, SimTime::MAX, "stopped mid-run");
    assert_eq!(live_producers(), 0);
    assert_eq!(settle(0), 0, "no producer outlives a max_time stop");
}
