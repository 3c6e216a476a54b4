//! Checked mode, end to end.
//!
//! Three properties, each load-bearing for DESIGN.md §14:
//!
//! 1. **Transparency** — a checked run is bit-identical in simulated
//!    outcome to its unchecked twin. The sanitizer and oracle observe;
//!    they never perturb.
//! 2. **Sensitivity** — every deliberate corruption in `Mutation::all()`
//!    is caught, and caught by the *intended* invariant, proving each
//!    probe is live rather than merely present.
//! 3. **Specificity** — without a mutation no probe fires, including
//!    under a fault plan that stresses every degradation path.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hogtame::prelude::*;

/// Injection time for mutated runs: the hog is deep in steady state.
const MUTATE_AT: SimTime = SimTime::from_nanos(50_000_000);

/// The smallest scenario that exercises each mutation's subsystem (the
/// priority buffers need buffered releasing; the clock hand only moves
/// when nothing releases memory and the paging daemon must reclaim).
fn scenario(m: Mutation) -> (&'static str, Version) {
    match m {
        Mutation::ReorderReleaseQueue => ("MATVEC", Version::Buffered),
        Mutation::WarpClockHand => ("MATVEC", Version::Original),
        _ => ("MATVEC", Version::Release),
    }
}

/// Runs the mutated scenario under checked mode and returns the violation
/// the sanitizer raises.
fn violation_of(m: Mutation) -> InvariantViolation {
    let (bench, version) = scenario(m);
    let req = common::small_request(bench, version)
        .checked()
        .mutate(MUTATE_AT, m);
    let payload = catch_unwind(AssertUnwindSafe(move || req.run()))
        .expect_err(&format!("{}: mutated run must not complete", m.label()));
    *payload
        .downcast::<InvariantViolation>()
        .unwrap_or_else(|_| panic!("{}: non-violation panic payload", m.label()))
}

#[test]
fn checked_runs_are_bit_identical_to_unchecked() {
    for (bench, version) in [("MATVEC", Version::Release), ("MATVEC", Version::Buffered)] {
        let plain = common::run_cell_small(bench, version);
        let checked = common::small_request(bench, version)
            .checked()
            .run()
            .expect("benchmark is registered");
        assert_eq!(
            common::outcome_digest(&plain),
            common::outcome_digest(&checked),
            "{bench}-{}: checked mode must not perturb the simulation",
            version.label()
        );
    }
}

#[test]
fn every_mutation_is_caught_by_its_intended_invariant() {
    assert_eq!(
        Mutation::all().len(),
        17,
        "a mutation was added or removed: update this count and the matrix docs"
    );
    for m in Mutation::all() {
        let v = violation_of(m);
        assert_eq!(
            v.invariant,
            m.expected_invariant(),
            "{}: wrong invariant fired ({})",
            m.label(),
            v.detail
        );
    }
}

#[test]
fn violations_carry_diagnostic_context() {
    let v = violation_of(Mutation::LeakFrame);
    assert_eq!(v.subsystem, "vm");
    assert!(
        v.at >= MUTATE_AT,
        "violation precedes its own cause: {:?}",
        v.at
    );
    assert!(!v.detail.is_empty(), "detail must explain the mismatch");
    assert!(
        !v.tail.is_empty(),
        "the flight-recorder tail must ride along for triage"
    );
    let shown = v.to_string();
    assert!(
        shown.contains("frame_conservation") && shown.contains("vm"),
        "Display must name the invariant and subsystem: {shown}"
    );
}

#[test]
fn mutation_targets_route_to_their_subsystem() {
    assert_eq!(
        violation_of(Mutation::FilterPassthrough).subsystem,
        "runtime"
    );
    assert_eq!(violation_of(Mutation::DoubleCompleteIo).subsystem, "disk");
    // A pid dropped from the VM's released list is caught where the
    // engine credits the list.
    assert_eq!(violation_of(Mutation::DropReleasedPid).subsystem, "engine");
}

#[test]
fn faulted_checked_runs_stay_clean() {
    // Seeded fault injection stresses hint poisoning, daemon jitter and
    // flaky I/O at once; none of it is a *consistency* violation, so
    // checked mode must stay silent and the run must match its unchecked
    // twin bit for bit.
    let plan = FaultPlan {
        seed: 7,
        hints: HintFaults::poisoned(0.3),
        daemons: DaemonFaults {
            releaser_jitter: SimDuration::from_micros(200),
            releaser_stall: 0.1,
            pagingd_skew: SimDuration::from_micros(100),
            ..DaemonFaults::default()
        },
        io: IoFaults::flaky(0.05),
        ..FaultPlan::default()
    };
    let run = |checked: bool| {
        let mut req = common::small_request("MATVEC", Version::Buffered).fault_plan(plan);
        if checked {
            req = req.checked();
        }
        req.run().expect("benchmark is registered")
    };
    let plain = run(false);
    let checked = run(true);
    assert!(
        plain.run.fault_log.total() > 0,
        "the plan must inject faults"
    );
    assert_eq!(
        common::outcome_digest(&plain),
        common::outcome_digest(&checked)
    );
}

#[test]
fn interactive_alone_runs_clean_under_checked() {
    let res = RunRequest::on(MachineConfig::small())
        .interactive(SimDuration::from_secs(5), Some(12))
        .checked()
        .run()
        .expect("interactive task installed");
    assert!(res.interactive.unwrap().mean_response().is_some());
}
