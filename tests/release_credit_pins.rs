//! Pins what the counter digests cannot see: each process's run-time
//! layer statistics (`RtStats::releases_verified` among them) and the
//! admission controller's trust moves.
//!
//! The engine credits every releaser-verified free to the freeing
//! process's admission trust score. Neither the credited totals nor the
//! demotions and restorations they can cause reach the VM counters that
//! perfbench digests, so a change to how credit is gathered could move
//! them unseen. Each pin below is an FNV-1a digest of every process's
//! `RtStats::values()` and admission counters plus the run's
//! `trust_demoted` / `trust_restored` log entries, taken before the
//! engine credited from the VM's released-pid list instead of a scan of
//! every process. None of the three runs moves trust today (no strategy
//! in the adversary matrix does either); the entries are hashed so a
//! change that starts moving it shows up. Under `HOGTAME_CHECKED=1` the
//! same runs also exercise the `release_credit` and `live_primaries`
//! probes.
//!
//! `cargo test --release --test release_credit_pins -- --nocapture`
//! prints the current digests if a change is intended.

use hogtame::prelude::*;
use sim_core::fault::FaultKind;
use sim_core::fingerprint::Fnv1a;

/// The digest of one run, with the totals that show it is not vacuous:
/// verified releases credited and trust moves logged.
fn credit_digest(out: &RunOutcome) -> (u64, u64, u64) {
    let mut h = Fnv1a::new();
    let mut verified = 0;
    for p in &out.run.procs {
        h.write_str(&p.name);
        h.write_u64(u64::from(p.pid.0));
        match &p.rt_stats {
            Some(s) => {
                verified += s.releases_verified;
                for v in s.values() {
                    h.write_u64(v);
                }
            }
            None => h.write_bool(false),
        }
        match &p.admission_stats {
            Some(a) => h.write_str(&format!("{a:?}")),
            None => h.write_bool(false),
        }
    }
    let mut moves = 0;
    for e in out.run.fault_log.events() {
        if matches!(
            e.kind,
            FaultKind::TrustDemoted { .. } | FaultKind::TrustRestored
        ) {
            moves += 1;
            h.write_u64(e.at.as_nanos());
            h.write_str(&format!("{:?}", e.kind));
        }
    }
    for name in ["trust_demoted", "trust_restored"] {
        h.write_u64(out.run.fault_log.count(name));
    }
    (h.finish(), verified, moves)
}

fn check(label: &str, out: &RunOutcome, pin: u64) {
    let (digest, verified, moves) = credit_digest(out);
    println!("{label}: digest {digest:#018x}, {verified} releases verified, {moves} trust moves");
    assert!(verified > 0, "{label}: no verified release was credited");
    assert_eq!(
        digest, pin,
        "{label}: run-time layer or admission outcome moved (digest {digest:#018x})"
    );
}

#[test]
fn defended_storm_credits_are_pinned() {
    let out = RunRequest::on(MachineConfig::small())
        .fleet(FleetSpec::storm_demo(true))
        .run()
        .expect("defended storm runs");
    check("storm_demo(true)", &out, 0xf53870a1099455f9);
}

#[test]
fn small_datacenter_credits_are_pinned() {
    let out = RunRequest::on(MachineConfig::origin200())
        .fleet(FleetSpec::datacenter(20, 200))
        .run()
        .expect("datacenter fleet runs");
    check("datacenter(20, 200)", &out, 0x9ed36c78882382cd);
}

#[test]
fn admission_armed_adversary_credits_are_pinned() {
    let mut plan = AdversaryPlan::new(AdversaryStrategy::HintFlood, 3, 1);
    plan.pages = 300;
    let out = RunRequest::on(MachineConfig::small())
        .interactive(SimDuration::from_millis(250), Some(6))
        .tenants(vec![
            TenantQuota::new(80, 16),
            TenantQuota::new(128, 32),
            TenantQuota::new(128, 32),
            TenantQuota::new(128, 32),
        ])
        .rt_config(runtime::RtConfig {
            health: Some(HealthConfig::default()),
            admission: Some(AdmissionConfig::default()),
            ..runtime::RtConfig::default()
        })
        .adversary(plan)
        .run()
        .expect("adversary run is valid");
    let rejected: u64 = out
        .run
        .procs
        .iter()
        .filter_map(|p| p.admission_stats)
        .map(|a| a.rejected)
        .sum();
    assert!(rejected > 0, "the rate limiter never engaged");
    check("adversary hint_flood", &out, 0x95834a24bbaa56e6);
}
