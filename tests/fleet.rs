//! Fleet-scale overload control, end to end.
//!
//! Five properties, each load-bearing for DESIGN.md §16:
//!
//! 1. **Defense** — under the demonstration storm the brownout ladder
//!    engages, sheds only tenants above their guaranteed share (never
//!    an interactive task), kills nothing, and keeps the fleet-wide
//!    p999 bounded.
//! 2. **Sensitivity** — the bound is not vacuous: the same storm with
//!    the ladder disarmed blows the tail bound by more than an order
//!    of magnitude.
//! 3. **Scale** — a datacenter-sized population (hundreds of hogs,
//!    thousands of interactive tasks) completes under checked mode
//!    with per-tenant tails and a fairness index in the results.
//! 4. **Determinism** — arrival plans are bit-identical across repeats,
//!    and whole fleet grids are bit-identical across executor worker
//!    counts (the `HOGTAME_JOBS` axis).
//! 5. **Exactness** — the tail percentiles reported for every tenant
//!    match a naive sort-and-index oracle on random samples.

use hogtame::prelude::*;
use sim_core::rng::Pcg32;

/// A digest of everything a fleet run reports; two runs with equal
/// digests are observationally identical (end time, per-process
/// outcomes, fleet stats, and the full metrics registry).
fn digest(out: &RunOutcome) -> String {
    format!(
        "end={} procs={:?} fleet={:?} metrics={}",
        out.run.end_time,
        out.run
            .procs
            .iter()
            .map(|p| (&p.name, p.finish_time, p.ops_executed, p.shed, p.oom_killed))
            .collect::<Vec<_>>(),
        out.run.fleet,
        out.run.metrics.to_prometheus(),
    )
}

#[test]
fn storm_with_ladder_sheds_safely_and_bounds_tails() {
    let out = RunRequest::on(MachineConfig::small())
        .fleet(FleetSpec::storm_demo(true))
        .run()
        .expect("defended storm runs");
    let f = out.run.fleet.as_ref().expect("fleet stats present");

    // The ladder engaged and the monitor saw the storm.
    assert!(f.pressure_shifts > 0, "no pressure shifts recorded");
    assert!(
        f.brownout_transitions > 0,
        "ladder never moved: {} shifts seen",
        f.pressure_shifts
    );
    let at_non_normal: u64 = f.time_at_level[1..].iter().map(|d| d.as_nanos()).sum();
    assert!(
        at_non_normal > 0,
        "no time above Normal: {:?}",
        f.time_at_level
    );

    // Typed outcomes only: sheds happened, kills did not.
    assert!(f.tenants_shed >= 1, "storm never forced a shed");
    assert_eq!(f.oom_kills, 0, "defended run must not OOM-kill");
    assert_eq!(f.tenants_shed as usize, f.sheds.len());

    // Every shed victim was a hog above its guaranteed share; no tenant
    // at or below its guarantee — and no interactive task — is ever shed.
    for s in &f.sheds {
        assert!(
            s.rss > s.guaranteed,
            "shed pid {} at rss {} <= guarantee {}",
            s.pid,
            s.rss,
            s.guaranteed
        );
        let victim = out
            .run
            .procs
            .iter()
            .find(|p| p.pid.0 == s.pid)
            .expect("shed pid maps to a registered process");
        assert!(victim.shed, "{} not marked shed", victim.name);
        assert!(
            victim.name.starts_with("fleet-hog") || victim.name.starts_with("fleet-surge"),
            "shed a non-hog: {}",
            victim.name
        );
    }
    for p in out
        .run
        .procs
        .iter()
        .filter(|p| p.name.starts_with("fleet-task"))
    {
        assert!(!p.shed && !p.oom_killed, "task {} was evicted", p.name);
    }

    // The SLO: fleet-wide p999 stays bounded (observed ~15 ms; the
    // bound leaves headroom without admitting an undefended run).
    assert!(
        f.overall.count > 0 && f.overall.p999 <= SimDuration::from_millis(100),
        "defended p999 {} over 100 ms ({} sweeps)",
        f.overall.p999,
        f.overall.count
    );

    // The storm is absorbed: post-surge throughput recovers to at least
    // 95% of the pre-surge rate.
    assert!(
        f.pre_surge_sweeps > 0 && f.post_surge_sweeps > 0,
        "surge windows empty: pre {} post {}",
        f.pre_surge_sweeps,
        f.post_surge_sweeps
    );
    assert!(
        f.post_surge_rate >= 0.95 * f.pre_surge_rate,
        "throughput did not recover: pre {:.1}/s post {:.1}/s",
        f.pre_surge_rate,
        f.post_surge_rate
    );
}

#[test]
fn undefended_storm_blows_the_tail_bound() {
    let out = RunRequest::on(MachineConfig::small())
        .fleet(FleetSpec::storm_demo(false))
        .run()
        .expect("undefended storm still completes");
    let f = out.run.fleet.as_ref().expect("fleet stats present");
    // No controller: no transitions, no sheds — and the tail shows it.
    assert_eq!(f.brownout_transitions, 0);
    assert_eq!(f.tenants_shed, 0);
    assert!(
        f.overall.p999 > SimDuration::from_millis(500),
        "undefended p999 {} should blow the 100 ms bound by an order of magnitude",
        f.overall.p999
    );
}

#[test]
fn datacenter_fleet_completes_under_checked_mode() {
    let spec = FleetSpec::datacenter(200, 2000);
    let plan = spec.plan();
    assert!(
        plan.iter().filter(|a| a.hog).count() >= 200,
        "plan lost hogs"
    );
    assert!(
        plan.iter().filter(|a| !a.hog).count() >= 2000,
        "plan lost tasks"
    );

    let out = RunRequest::on(MachineConfig::origin200())
        .fleet(spec)
        .checked()
        .run()
        .expect("datacenter fleet completes under checked mode");
    assert!(out.run.procs.len() >= 2200);
    assert!(
        out.run.procs.iter().all(|p| p.finish_time != SimTime::MAX),
        "every process reached a typed end"
    );

    let f = out.run.fleet.as_ref().expect("fleet stats present");
    assert_eq!(f.oom_kills, 0, "disk-paced baseline fleet must not OOM");
    // Tails and fairness are populated: an overall digest over thousands
    // of sweeps, per-tenant rows for every tenant that completed one,
    // and a meaningful Jain index.
    assert!(
        f.overall.count >= 2000,
        "only {} sweeps recorded",
        f.overall.count
    );
    assert!(f.tenants.len() >= 2, "per-tenant tails missing");
    for t in &f.tenants {
        assert!(t.count > 0 && t.p50 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.max);
    }
    assert!(
        f.jain > 0.0 && f.jain <= 1.0,
        "Jain out of range: {}",
        f.jain
    );
}

#[test]
fn arrival_plans_are_bit_identical_across_repeats() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        let spec = FleetSpec {
            seed,
            surge: Some(SurgeSpec::default()),
            ..FleetSpec::default()
        };
        let first = spec.plan();
        assert!(!first.is_empty());
        for _ in 0..3 {
            assert_eq!(
                first,
                spec.plan(),
                "plan drifted across repeats (seed {seed})"
            );
        }
        // A freshly constructed equal spec plans the same fleet.
        assert_eq!(first, spec.clone().plan());
    }
}

#[test]
fn fleet_grid_is_bit_identical_across_worker_counts() {
    let grid = || -> Vec<RunRequest> {
        [1u64, 7, 23]
            .iter()
            .map(|&seed| {
                RunRequest::on(MachineConfig::small()).fleet(FleetSpec {
                    seed,
                    hogs: 6,
                    tasks: 60,
                    horizon: SimDuration::from_secs(4),
                    ..FleetSpec::default()
                })
            })
            .collect()
    };
    let serial = exec::run_all_with(grid(), 1);
    let pooled = exec::run_all_with(grid(), 4);
    assert_eq!(serial.len(), pooled.len());
    for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
        let a = a.as_ref().expect("serial run succeeds");
        let b = b.as_ref().expect("pooled run succeeds");
        assert_eq!(
            digest(a),
            digest(b),
            "request {i} differs across worker counts"
        );
    }
}

#[test]
fn tail_digest_matches_exact_sort_oracle() {
    let mut rng = Pcg32::new(0xFEED, 1);
    // Sizes straddling every rank-rounding edge, including n=1 and sizes
    // where p99/p999 collapse onto the max.
    for n in [1usize, 2, 3, 10, 99, 100, 101, 999, 1000, 1001, 4096] {
        let mut digest = TailDigest::new();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let v = u64::from(rng.next_u32() % 1_000_000);
            samples.push(v);
            digest.record(SimDuration::from_nanos(v));
        }
        samples.sort_unstable();
        let oracle = |p: f64| -> u64 {
            let rank = ((p * n as f64).ceil() as usize).max(1);
            samples[rank - 1]
        };
        let (p50, p99, p999) = digest.tail();
        assert_eq!(p50.as_nanos(), oracle(0.5), "p50 diverges at n={n}");
        assert_eq!(p99.as_nanos(), oracle(0.99), "p99 diverges at n={n}");
        assert_eq!(p999.as_nanos(), oracle(0.999), "p999 diverges at n={n}");
        assert_eq!(
            digest.max().as_nanos(),
            samples[n - 1],
            "max diverges at n={n}"
        );
        assert_eq!(digest.count(), n as u64);
    }
}

/// The overload clock, pinned for both arms of the demonstration storm:
/// simulated nanoseconds at each applied level (the ladder rung when it
/// is armed, the raw monitor grade when it is not), ladder moves, and
/// the level the run ended at.
#[test]
fn storm_overload_clock_is_pinned() {
    for (ladder, nanos, transitions) in [
        (
            true,
            [15_829_304_976, 63_524_000_000, 900_000_000, 1_000_000_000],
            30,
        ),
        (
            false,
            [61_723_908_127, 10_512_000_000, 892_000_000, 11_342_000_000],
            0,
        ),
    ] {
        let out = RunRequest::on(MachineConfig::small())
            .fleet(FleetSpec::storm_demo(ladder))
            .run()
            .expect("storm runs");
        let f = out.run.fleet.as_ref().expect("fleet stats present");
        assert_eq!(
            f.time_at_level.map(|d| d.as_nanos()),
            nanos,
            "ladder {ladder}"
        );
        assert_eq!(f.brownout_transitions, transitions, "ladder {ladder}");
        assert_eq!(f.final_level, PressureLevel::Normal, "ladder {ladder}");
    }
}
