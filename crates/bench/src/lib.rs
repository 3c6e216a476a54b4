//! Shared plumbing for the reproduction binaries.
//!
//! Each `fig*`/`table*` binary regenerates one table or figure of the
//! paper, printing it to stdout and persisting text + CSV artifacts under
//! `results/` (override with the `HOGTAME_RESULTS` environment variable).
//!
//! Run everything at once with `cargo run -p bench --release --bin repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hogtame::MachineConfig;

/// The machine and benchmarks the co-run suite runs on, shared by `repro`
/// and every per-figure suite binary so that all of them simulate (and
/// journal) the same grid cells. `HOGTAME_MACHINE=small` selects the
/// scaled-down machine with MATVEC only (the CI smoke configuration);
/// otherwise the full Origin 200 with every benchmark. The benchmark
/// filter is `None` for all of them, as `suite::run` takes it.
pub fn suite_target() -> (MachineConfig, Option<&'static [&'static str]>) {
    let small = std::env::var("HOGTAME_MACHINE").is_ok_and(|v| v.eq_ignore_ascii_case("small"));
    if small {
        (MachineConfig::small(), Some(&["MATVEC"]))
    } else {
        (MachineConfig::origin200(), None)
    }
}

/// A minimal self-timing micro-benchmark harness.
///
/// The workspace builds offline with no external bench framework, so the
/// `benches/` targets (declared `harness = false`) drive themselves with
/// this: auto-scaled iteration counts against wall-clock budgets, median
/// of a few samples, one line of output per benchmark.
pub mod micro {
    use std::time::{Duration, Instant};

    /// Times `f` and prints its per-iteration cost.
    ///
    /// Warms up to estimate cost, then takes three samples of a ~100 ms
    /// batch each and reports the median, which is stable enough to spot
    /// order-of-magnitude regressions without a statistics crate.
    pub fn bench(name: &str, mut f: impl FnMut()) {
        let mut iters: u64 = 1;
        let per_ns = loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let el = t.elapsed();
            if el >= Duration::from_millis(5) || iters >= 1 << 22 {
                break (el.as_nanos().max(1) as f64) / iters as f64;
            }
            iters = iters.saturating_mul(8);
        };
        let batch = ((100.0e6 / per_ns).ceil() as u64).clamp(1, 1 << 26);
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    f();
                }
                (t.elapsed().as_nanos() as f64) / batch as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        println!(
            "{name:<44} {:>14.1} ns/iter   ({batch} iters/sample)",
            samples[1]
        );
    }

    /// Times `f` for exactly `n` iterations and prints the mean — for
    /// heavyweight benchmarks (whole simulated runs) where auto-scaling
    /// would take minutes.
    pub fn bench_n(name: &str, n: u64, mut f: impl FnMut()) {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let per = t.elapsed().as_secs_f64() / n as f64;
        println!("{name:<44} {per:>14.3} s/iter   ({n} iters)");
    }
}
