//! Engine unit tests: op charging, interleaving, daemons, faults and
//! supervised crash recovery on the small machine.

use runtime::ops::VecStream;
use runtime::{Mark, Op, OpStream};
use sim_core::fault::FaultKind;
use sim_core::stats::TimeCategory;
use sim_core::{SimDuration, SimTime};
use vm::Backing;

use super::Engine;
use crate::machine::MachineConfig;

fn engine_small() -> Engine {
    Engine::new(MachineConfig::small())
}

/// Registers a primary process, named `name`, running `ops`.
fn spawn(e: &mut Engine, name: &str, ops: Vec<Op>) {
    let pid = e.vm_mut().add_process(false);
    e.register(pid, name, Box::new(VecStream::new(ops)), None, true);
}

/// Registers a primary process that computes for `d` and exits.
fn calc(e: &mut Engine, d: SimDuration) {
    spawn(e, "calc", vec![Op::Compute(d), Op::End]);
}

/// Registers a primary process that touches 50 more zero-fill pages than
/// the machine has frames, computing 30 µs after each touch.
fn hog(e: &mut Engine) {
    let pid = e.vm_mut().add_process(false);
    let frames = e.config().frames as u64;
    let r = e
        .vm_mut()
        .map_region(pid, frames + 100, Backing::ZeroFill, false);
    let mut ops = Vec::new();
    for i in 0..frames + 50 {
        ops.push(Op::Touch {
            vpn: r.start.offset(i),
            write: false,
        });
        ops.push(Op::Compute(SimDuration::from_micros(30)));
    }
    ops.push(Op::End);
    e.register(pid, "hog", Box::new(VecStream::new(ops)), None, true);
}

#[test]
fn single_process_compute_only() {
    let mut e = engine_small();
    calc(&mut e, SimDuration::from_millis(5));
    let res = e.run();
    assert_eq!(
        res.procs[0].breakdown.get(TimeCategory::User),
        SimDuration::from_millis(5)
    );
    assert_eq!(res.procs[0].finish_time, SimTime::from_nanos(5_000_000));
}

#[test]
fn touches_fault_and_charge_io() {
    let mut e = engine_small();
    let pid = e.vm_mut().add_process(false);
    let r = e.vm_mut().map_region(pid, 8, Backing::SwapPrefilled, false);
    let stream = VecStream::new([
        Op::Touch {
            vpn: r.start,
            write: false,
        },
        Op::Touch {
            vpn: r.start.offset(1),
            write: false,
        },
        Op::End,
    ]);
    e.register(pid, "toucher", Box::new(stream), None, true);
    let res = e.run();
    let b = &res.procs[0].breakdown;
    assert!(b.get(TimeCategory::StallIo) > SimDuration::ZERO);
    assert!(b.get(TimeCategory::System) > SimDuration::ZERO);
    assert_eq!(res.vm_stats.proc(pid.0 as usize).hard_faults.get(), 2);
    assert_eq!(res.swap_reads, 2);
}

#[test]
fn two_processes_interleave_on_one_clock() {
    let mut e = engine_small();
    let a = e.vm_mut().add_process(false);
    let ra = e.vm_mut().map_region(a, 4, Backing::ZeroFill, false);
    let b = e.vm_mut().add_process(false);
    let rb = e.vm_mut().map_region(b, 4, Backing::ZeroFill, false);
    let mk = |base: vm::PageRange| {
        let mut ops = Vec::new();
        for i in 0..4 {
            ops.push(Op::Touch {
                vpn: base.start.offset(i),
                write: true,
            });
            ops.push(Op::Compute(SimDuration::from_micros(100)));
        }
        ops.push(Op::End);
        VecStream::new(ops)
    };
    e.register(a, "a", Box::new(mk(ra)), None, true);
    e.register(b, "b", Box::new(mk(rb)), None, true);
    let res = e.run();
    assert!(res.procs.iter().all(|p| p.finish_time < SimTime::MAX));
    // Both did their zero-fills.
    assert_eq!(res.vm_stats.proc(0).zero_fills.get(), 4);
    assert_eq!(res.vm_stats.proc(1).zero_fills.get(), 4);
}

#[test]
fn sleep_advances_clock_without_charging() {
    let mut e = engine_small();
    let ops = vec![
        Op::Sleep(SimDuration::from_secs(3)),
        Op::Compute(SimDuration::from_millis(1)),
        Op::End,
    ];
    spawn(&mut e, "sleeper", ops);
    let res = e.run();
    assert_eq!(res.procs[0].breakdown.total(), SimDuration::from_millis(1));
    assert!(res.procs[0].finish_time >= SimTime::from_nanos(3_001_000_000));
}

#[test]
fn marks_record_sweep_durations() {
    let mut e = engine_small();
    let ops = vec![
        Op::Mark(Mark::SweepStart),
        Op::Compute(SimDuration::from_millis(2)),
        Op::Mark(Mark::SweepEnd),
        Op::Mark(Mark::SweepStart),
        Op::Compute(SimDuration::from_millis(4)),
        Op::Mark(Mark::SweepEnd),
        Op::End,
    ];
    spawn(&mut e, "marked", ops);
    let res = e.run();
    assert_eq!(res.procs[0].sweeps.len(), 2);
    assert_eq!(res.procs[0].sweeps[0], SimDuration::from_millis(2));
    assert_eq!(res.procs[0].sweeps[1], SimDuration::from_millis(4));
    // mean_response skips the first sweep.
    assert_eq!(
        res.procs[0].mean_response().unwrap(),
        SimDuration::from_millis(4)
    );
}

#[test]
fn max_time_stops_runaway_runs() {
    let mut e = engine_small();
    e.max_time = SimTime::from_nanos(1_000_000);
    let pid = e.vm_mut().add_process(false);
    // An infinite sleeper that never Ends.
    struct Forever;
    impl OpStream for Forever {
        fn next_op(&mut self) -> Op {
            Op::Sleep(SimDuration::from_millis(1))
        }
    }
    e.register(pid, "forever", Box::new(Forever), None, true);
    let res = e.run();
    assert!(res.end_time <= SimTime::from_nanos(2_000_000));
}

#[test]
fn cpu_contention_charges_resource_stall() {
    // Six compute-bound processes on four CPUs: every burst beyond the
    // fourth must wait, showing up as resource stall.
    let mut e = engine_small();
    assert_eq!(e.config().cpus, 4);
    for k in 0..6 {
        let ops = std::iter::repeat_n(Op::Compute(SimDuration::from_millis(10)), 50);
        spawn(
            &mut e,
            &format!("cruncher-{k}"),
            ops.chain([Op::End]).collect(),
        );
    }
    let res = e.run();
    let total_wait: u64 = res
        .procs
        .iter()
        .map(|p| p.breakdown.get(TimeCategory::StallResource).as_nanos())
        .sum();
    assert!(
        total_wait > 0,
        "six runnable processes on four CPUs must queue"
    );
    // Work conservation: total user time is exactly 6 × 50 × 10 ms.
    let total_user: u64 = res
        .procs
        .iter()
        .map(|p| p.breakdown.get(TimeCategory::User).as_nanos())
        .sum();
    assert_eq!(total_user, 6 * 50 * 10_000_000);
    // The machine cannot finish faster than total work / 4 CPUs.
    let min_end = 6.0 * 50.0 * 0.010 / 4.0;
    assert!(res.end_time.as_secs_f64() >= min_end * 0.99);
}

#[test]
fn four_processes_fit_without_contention() {
    let mut e = engine_small();
    for k in 0..4 {
        let ops = std::iter::repeat_n(Op::Compute(SimDuration::from_millis(5)), 20);
        spawn(&mut e, &format!("p{k}"), ops.chain([Op::End]).collect());
    }
    let res = e.run();
    for p in &res.procs {
        assert_eq!(
            p.breakdown.get(TimeCategory::StallResource),
            SimDuration::ZERO,
            "{} stalled with a free CPU",
            p.name
        );
    }
}

#[test]
fn shrink_fault_fires_and_is_logged() {
    use sim_core::fault::{DaemonFaults, FaultPlan};
    let mut e = engine_small().with_fault_plan(FaultPlan {
        seed: 5,
        daemons: DaemonFaults {
            shrink_limit_at: Some(SimTime::from_nanos(1_000_000)),
            shrink_to_frac: 0.5,
            ..DaemonFaults::default()
        },
        ..FaultPlan::default()
    });
    let old_limit = e.vm().tunables().maxrss;
    calc(&mut e, SimDuration::from_millis(5));
    let res = e.run();
    assert_eq!(res.fault_log.count("limit_shrunk"), 1);
    let shrunk = res.fault_log.events().iter().any(|ev| {
        matches!(ev.kind, FaultKind::LimitShrunk { from, to }
            if from == old_limit && to < from)
    });
    assert!(shrunk, "log: {}", res.fault_log.summary());
}

#[test]
fn daemon_jitter_draws_are_seed_reproducible() {
    use sim_core::fault::{DaemonFaults, FaultPlan};
    let run = || {
        let mut e = engine_small().with_fault_plan(FaultPlan {
            seed: 11,
            daemons: DaemonFaults {
                releaser_jitter: SimDuration::from_micros(500),
                releaser_stall: 0.25,
                pagingd_skew: SimDuration::from_micros(200),
                ..DaemonFaults::default()
            },
            ..FaultPlan::default()
        });
        hog(&mut e);
        let res = e.run();
        (res.end_time, res.fault_log.summary())
    };
    let (end1, log1) = run();
    let (end2, log2) = run();
    assert_eq!(end1, end2, "jittered runs must reproduce exactly");
    assert_eq!(log1, log2);
    assert!(log1.contains("pagingd_skew"), "skew injected: {log1}");
}

#[test]
fn releaser_crash_is_detected_restarted_and_reconciled() {
    use sim_core::fault::{CrashFaults, CrashSpec, FaultPlan};
    let run = || {
        let mut e = engine_small().with_fault_plan(FaultPlan {
            seed: 7,
            crashes: CrashFaults {
                releaser: Some(CrashSpec::at(SimTime::from_nanos(1_000_000))),
                ..CrashFaults::default()
            },
            ..FaultPlan::default()
        });
        calc(&mut e, SimDuration::from_millis(100));
        let res = e.run();
        (res.end_time, res.fault_log.summary())
    };
    let (end1, log1) = run();
    assert!(log1.contains("component_crashed"), "log: {log1}");
    assert!(log1.contains("crash_detected"), "log: {log1}");
    assert!(log1.contains("component_restarted"), "log: {log1}");
    assert!(log1.contains("state_reconciled"), "log: {log1}");
    assert!(!log1.contains("component_abandoned"), "log: {log1}");
    let (end2, log2) = run();
    assert_eq!(end1, end2, "crash-plan runs must reproduce exactly");
    assert_eq!(log1, log2);
}

#[test]
fn permanent_crash_exhausts_restarts_and_is_abandoned() {
    use sim_core::fault::{CrashFaults, CrashSpec, FaultPlan};
    let mut e = engine_small().with_fault_plan(FaultPlan {
        seed: 9,
        crashes: CrashFaults {
            releaser: Some(CrashSpec::permanent(SimTime::from_nanos(1_000_000))),
            ..CrashFaults::default()
        },
        ..FaultPlan::default()
    });
    // Long enough that the full backoff ladder (10..500 ms, six
    // attempts) plays out before the primary finishes.
    calc(&mut e, SimDuration::from_secs(1));
    let res = e.run();
    assert_eq!(res.fault_log.count("component_crashed"), 1);
    assert_eq!(res.fault_log.count("component_abandoned"), 1);
    assert_eq!(res.fault_log.count("restart_failed"), 5);
    assert_eq!(res.fault_log.count("component_restarted"), 0);
    // The abandoned releaser still gets one reconcile pass so the run
    // degrades cleanly to stock paging.
    assert_eq!(res.fault_log.count("state_reconciled"), 1);
    assert!(res.procs[0].finish_time < SimTime::MAX, "run completed");
}

#[test]
fn crash_free_plans_schedule_no_heartbeats() {
    use sim_core::fault::{FaultPlan, IoFaults};
    // A plan without crash specs must not perturb event interleaving.
    let mut e = engine_small().with_fault_plan(FaultPlan {
        seed: 2,
        io: IoFaults::flaky(0.1),
        ..FaultPlan::default()
    });
    calc(&mut e, SimDuration::from_millis(5));
    let res = e.run();
    assert_eq!(res.fault_log.count("component_crashed"), 0);
    assert_eq!(res.fault_log.count("crash_detected"), 0);
}

#[test]
fn memory_pressure_wakes_paging_daemon() {
    let mut e = engine_small();
    hog(&mut e);
    let res = e.run();
    assert!(res.vm_stats.pagingd.activations.get() > 0);
    assert!(res.vm_stats.pagingd.pages_stolen.get() > 0);
}
