//! Throughput benchmark: simulator ops/sec and wall-clock time for the
//! small reproduction run and one fleet-scale scenario, exported as
//! machine-readable `BENCH_fleet.json` (the repo's performance
//! baseline; CI and future optimization PRs diff against it).
//!
//! Wall-clock time is the only nondeterministic number in the file —
//! the simulated outcomes it annotates are bit-reproducible, and each
//! scenario's simulated end time and op count are recorded alongside so
//! a regression in *work done* is distinguishable from a slow host.
use std::time::Instant;

use hogtame::prelude::*;

struct Sample {
    name: &'static str,
    wall_ms: f64,
    sim_s: f64,
    ops: u64,
    procs: usize,
}

fn measure(name: &'static str, req: RunRequest) -> Sample {
    let t0 = Instant::now();
    let out = req.run().expect("benchmark request runs");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    Sample {
        name,
        wall_ms,
        sim_s: out.run.end_time.as_secs_f64(),
        ops: out.run.procs.iter().map(|p| p.ops_executed).sum(),
        procs: out.run.procs.len(),
    }
}

/// Extracts `"ops_per_sec"` for `scenario` from the baseline JSON (one
/// sample object per line, exactly as this binary writes it). `None`
/// when the scenario or field is missing — the comparison is skipped.
fn baseline_ops_per_sec(json: &str, scenario: &str) -> Option<f64> {
    let needle = format!("\"scenario\": \"{scenario}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let field = "\"ops_per_sec\": ";
    let at = line.find(field)? + field.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed baseline: `HOGTAME_BASELINE`, default
/// `BENCH_fleet.json` in the working directory.
fn baseline_path() -> String {
    std::env::var("HOGTAME_BASELINE").unwrap_or_else(|_| "BENCH_fleet.json".to_string())
}

/// Soft-fail regression gate: compares each sample against the committed
/// baseline at `path` and prints a GitHub `::warning::` annotation when
/// throughput falls below 75% of it. Wall-clock is hostile to hard
/// gates — shared CI runners jitter far more than the simulator — so
/// this warns instead of failing, and the fresh JSON is archived for
/// human comparison.
fn check_baseline(samples: &[Sample], path: &str) {
    let Ok(base) = std::fs::read_to_string(path) else {
        println!("no baseline at {path}; comparison skipped");
        return;
    };
    for s in samples {
        let cur = s.ops as f64 / (s.wall_ms / 1e3).max(1e-9);
        match baseline_ops_per_sec(&base, s.name) {
            Some(b) if cur < 0.75 * b => println!(
                "::warning file={path}::perf regression: {} at {cur:.0} ops/sec, \
                 below 75% of the committed baseline ({b:.0})",
                s.name
            ),
            Some(b) => println!(
                "baseline check: {} {cur:.0} ops/sec vs committed {b:.0} (ok)",
                s.name
            ),
            None => println!("baseline check: {} not in {path}; skipped", s.name),
        }
    }
}

fn main() {
    let samples = [
        // The paper's small reproduction: one compiled out-of-core hog
        // beside one interactive task on the scaled-down machine.
        measure(
            "small_repro",
            RunRequest::on(MachineConfig::small())
                .bench("MATVEC", Version::Release)
                .interactive(SimDuration::from_millis(100), Some(20)),
        ),
        // The fleet storm: hundreds of processes, the pressure monitor
        // sampling at 2 ms, and the brownout ladder riding the surge.
        measure(
            "fleet_storm",
            RunRequest::on(MachineConfig::small()).fleet(FleetSpec::storm_demo(true)),
        ),
    ];

    let mut t = TextTable::new(vec![
        "scenario", "procs", "ops", "sim(s)", "wall(ms)", "ops/sec",
    ]);
    let mut json = String::from("{\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let ops_per_sec = s.ops as f64 / (s.wall_ms / 1e3).max(1e-9);
        t.row(vec![
            s.name.into(),
            s.procs.to_string(),
            s.ops.to_string(),
            format!("{:.3}", s.sim_s),
            format!("{:.1}", s.wall_ms),
            format!("{:.0}", ops_per_sec),
        ]);
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"procs\": {}, \"ops\": {}, \"sim_seconds\": {:.6}, \
             \"wall_ms\": {:.3}, \"ops_per_sec\": {:.1}}}{}\n",
            s.name,
            s.procs,
            s.ops,
            s.sim_s,
            s.wall_ms,
            ops_per_sec,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    let artifact = Artifact::new("BENCH_fleet", "Simulator throughput (ops/sec, wall-clock)");
    artifact.table(&t);
    let path = artifact
        .write_raw("json", &json)
        .expect("BENCH_fleet.json written");
    println!("wrote {}", path.display());
    let baseline = baseline_path();
    check_baseline(&samples, &baseline);
    // The run never touches the committed baseline; adopting the fresh
    // numbers is one deliberate copy (ops and simulated seconds must
    // match the old file: only wall time may move).
    println!(
        "to adopt it as the baseline: cp {} {baseline}",
        path.display()
    );
}
