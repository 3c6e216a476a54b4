//! Regenerates every table and figure of the paper in one run.
//!
//! Environment knobs:
//!
//! * `HOGTAME_JOBS` — worker count for the parallel executor (defaults to
//!   the machine's available parallelism).
//! * `HOGTAME_MACHINE=small` — run on the scaled-down machine with MATVEC
//!   only (the CI smoke configuration; see `bench::suite_target`).
//! * `HOGTAME_RESULTS` — artifact directory (default `results/`).
//! * `HOGTAME_JOURNAL` — completion journal (`1` = `<results>/.journal/`);
//!   a rerun of the same build replays the journaled suite cells.
use hogtame::experiments::{fig01, fig05, fig10a, suite, tables};
use hogtame::prelude::*;

fn main() -> Result<(), SuiteError> {
    let (machine, benches) = bench::suite_target();
    let jobs = exec::jobs();
    let t0 = std::time::Instant::now();

    Artifact::new(
        "table1",
        "Table 1: hardware characteristics (simulated SGI Origin 200)",
    )
    .table(&tables::table1(&machine));
    Artifact::new("table2", "Table 2: out-of-core benchmark characteristics")
        .table(&tables::table2(&machine));
    Artifact::new(
        "fig05",
        "Figure 5: compiled MATVEC with prefetch/release hints",
    )
    .text(&fig05::figure5(&machine));

    eprintln!("[repro] running the co-run suite on {jobs} worker(s) ...");
    suite::run(&machine, benches, SimDuration::from_secs(5))?.emit_all();

    eprintln!("[repro] running the Figure 1 sleep sweep ...");
    Artifact::new(
        "fig01",
        "Figure 1: interactive response time vs sleep time (MATVEC original & prefetch-only)",
    )
    .table(&fig01::run(&machine).table());
    eprintln!("[repro] running the Figure 10(a) sleep sweep ...");
    Artifact::new(
        "fig10a",
        "Figure 10(a): interactive response vs sleep time (MATVEC O/P/R/B + alone)",
    )
    .table(&fig10a::run(&machine).table());

    eprintln!(
        "[repro] done in {:.1}s on {jobs} worker(s); artifacts in {:?}",
        t0.elapsed().as_secs_f64(),
        results_dir()
    );
    Ok(())
}
