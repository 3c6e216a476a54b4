//! The co-run suite: every benchmark × every version, sharing the machine
//! with the interactive task at the paper's intermediate 5-second sleep.
//!
//! One pass over these 24 runs yields Figures 7, 8, 9, 10(b), 10(c) and
//! Table 3. The pass is expanded into a grid of [`RunRequest`]s and
//! drained by the parallel executor ([`crate::exec`]); because each
//! request is fully self-contained, the suite is bit-identical at any
//! worker count.
//!
//! Six binaries (`fig07`, `fig08`, `fig09`, `fig10b`, `fig10c`,
//! `table3`) and `repro` all consume this one pass: each calls [`run`]
//! and [`Suite::emit`]s its tables. The suite keeps no store of its own.
//! With `HOGTAME_JOURNAL` set, [`run`] drains the grid through the
//! completion journal ([`crate::journal`]), so a later process replays the
//! journaled cells instead of re-simulating them. Journal records are
//! keyed by request, not by build: a journal may only resume the build
//! that wrote it.

use sim_core::stats::TimeCategory;
use sim_core::SimDuration;
use vm::VmStats;

use crate::artifact::Artifact;
use crate::engine::ProcResult;
use crate::exec;
use crate::machine::MachineConfig;
use crate::report::TextTable;
use crate::request::{RunError, RunRequest};
use crate::scenario::Version;

/// One benchmark × version co-run.
pub struct SuiteCell {
    /// Benchmark name.
    pub bench: String,
    /// Build version.
    pub version: Version,
    /// The out-of-core process.
    pub hog: ProcResult,
    /// The co-running interactive task.
    pub interactive: ProcResult,
    /// VM statistics at the end of the run.
    pub vm: VmStats,
}

/// The full suite.
pub struct Suite {
    /// All cells, grouped by benchmark in [`Version::ALL`] order.
    pub cells: Vec<SuiteCell>,
    /// The interactive task running alone (normalization baseline).
    pub alone: ProcResult,
    /// The sleep time used.
    pub sleep: SimDuration,
}

/// Why the suite could not be assembled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SuiteError {
    /// A requested benchmark name is not in the workload registry.
    UnknownBenchmark(String),
    /// A scenario finished without producing the expected process result.
    ProcessMissing {
        /// The benchmark being co-run (`"alone"` for the baseline run).
        bench: String,
        /// Which process result was missing (`"hog"` or `"interactive"`).
        role: &'static str,
    },
    /// A run in the grid failed outright — an invalid request or a worker
    /// that crashed past its retry budget.
    RunFailed(String),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::UnknownBenchmark(name) => write!(f, "unknown benchmark {name}"),
            SuiteError::ProcessMissing { bench, role } => {
                write!(f, "{bench} run produced no {role} result")
            }
            SuiteError::RunFailed(why) => write!(f, "suite run failed: {why}"),
        }
    }
}

impl From<RunError> for SuiteError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::UnknownBenchmark(n) => SuiteError::UnknownBenchmark(n),
            other => SuiteError::RunFailed(other.to_string()),
        }
    }
}

impl std::error::Error for SuiteError {}

/// The artifact `(name, title)` of every table the suite produces, in
/// emission order. [`Suite::table`] and [`Suite::emit`] accept the names.
pub const SUITE_TABLES: [(&str, &str); 6] = [
    (
        "fig07",
        "Figure 7: normalized execution time of the out-of-core applications",
    ),
    (
        "fig08",
        "Figure 8: soft page faults caused by paging-daemon invalidations",
    ),
    (
        "table3",
        "Table 3: page reclamation activity (original vs prefetch+release)",
    ),
    ("fig09", "Figure 9: breakdown of outcomes for freed pages"),
    (
        "fig10b",
        "Figure 10(b): interactive response at 5 s sleep, normalized to running alone",
    ),
    (
        "fig10c",
        "Figure 10(c): interactive hard page faults per sweep",
    ),
];

/// Resolves the benchmark list: the caller's, or the paper's six.
fn names(benches: Option<&[&str]>) -> Vec<String> {
    match benches {
        Some(list) => list.iter().map(|s| s.to_string()).collect(),
        None => workloads::all_benchmarks()
            .iter()
            .map(|b| b.name.clone())
            .collect(),
    }
}

/// Expands the suite into its request grid: the alone baseline first, then
/// every benchmark × version cell in paper order.
fn grid(machine: &MachineConfig, names: &[String], sleep: SimDuration) -> Vec<RunRequest> {
    let mut reqs = Vec::with_capacity(1 + names.len() * Version::ALL.len());
    reqs.push(RunRequest::on(machine.clone()).interactive(sleep, Some(12)));
    for name in names {
        for &version in &Version::ALL {
            reqs.push(
                RunRequest::on(machine.clone())
                    .bench(name.clone(), version)
                    .interactive(sleep, None),
            );
        }
    }
    reqs
}

/// The suite's request grid, exactly as [`run`] executes it: the alone
/// baseline first, then every benchmark × version cell in paper order.
/// Exposed so crash-tolerance tests can drive the identical grid through
/// the journaled executor directly (kill it mid-flight, resume it) and
/// compare against a suite pass.
pub fn requests(
    machine: &MachineConfig,
    benches: Option<&[&str]>,
    sleep: SimDuration,
) -> Vec<RunRequest> {
    grid(machine, &names(benches), sleep)
}

/// Runs the suite for the given benchmark names (paper order if `None`),
/// on the default worker count ([`exec::jobs`]).
///
/// Fails with [`SuiteError::UnknownBenchmark`] if a requested name is not
/// registered, or [`SuiteError::ProcessMissing`] if a run completes
/// without the expected process results.
pub fn run(
    machine: &MachineConfig,
    benches: Option<&[&str]>,
    sleep: SimDuration,
) -> Result<Suite, SuiteError> {
    run_with_jobs(machine, benches, sleep, exec::jobs())
}

/// [`run`], on a pool of exactly `jobs` workers (1 = the serial reference
/// order; results are bit-identical at any count).
pub fn run_with_jobs(
    machine: &MachineConfig,
    benches: Option<&[&str]>,
    sleep: SimDuration,
    jobs: usize,
) -> Result<Suite, SuiteError> {
    let names = names(benches);
    let outcomes = exec::run_all_with(grid(machine, &names, sleep), jobs);
    assemble(&names, sleep, outcomes)
}

/// [`run_with_jobs`], draining the grid through an explicit completion
/// journal: previously journaled runs are replayed, fresh completions are
/// recorded. Resuming a killed pass therefore re-simulates only the
/// missing cells, and the assembled suite is bit-identical either way.
pub fn run_journaled(
    machine: &MachineConfig,
    benches: Option<&[&str]>,
    sleep: SimDuration,
    jobs: usize,
    journal: &crate::journal::Journal,
) -> Result<Suite, SuiteError> {
    let names = names(benches);
    let outcomes = exec::run_all_journaled(grid(machine, &names, sleep), jobs, Some(journal));
    assemble(&names, sleep, outcomes)
}

/// Assembles executor outcomes (in grid order) into a [`Suite`].
fn assemble(
    names: &[String],
    sleep: SimDuration,
    outcomes: Vec<Result<crate::request::RunOutcome, RunError>>,
) -> Result<Suite, SuiteError> {
    let mut outcomes = outcomes.into_iter();
    let baseline = outcomes.next().expect("grid holds the baseline");
    let alone = baseline?.interactive.ok_or(SuiteError::ProcessMissing {
        bench: String::from("alone"),
        role: "interactive",
    })?;

    let mut cells = Vec::new();
    for name in names {
        for &version in &Version::ALL {
            let res = outcomes.next().expect("grid holds one request per cell")?;
            cells.push(SuiteCell {
                bench: name.clone(),
                version,
                hog: res.hog.ok_or_else(|| SuiteError::ProcessMissing {
                    bench: name.clone(),
                    role: "hog",
                })?,
                interactive: res.interactive.ok_or_else(|| SuiteError::ProcessMissing {
                    bench: name.clone(),
                    role: "interactive",
                })?,
                vm: res.run.vm_stats,
            });
        }
    }
    Ok(Suite {
        cells,
        alone,
        sleep,
    })
}

impl Suite {
    fn cell(&self, bench: &str, version: Version) -> Option<&SuiteCell> {
        self.cells
            .iter()
            .find(|c| c.bench == bench && c.version == version)
    }

    fn benches(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.bench) {
                seen.push(c.bench.clone());
            }
        }
        seen
    }

    /// The table registered under `name` in [`SUITE_TABLES`].
    pub fn table(&self, name: &str) -> Option<TextTable> {
        match name {
            "fig07" => Some(self.fig07()),
            "fig08" => Some(self.fig08()),
            "table3" => Some(self.table3()),
            "fig09" => Some(self.fig09()),
            "fig10b" => Some(self.fig10b()),
            "fig10c" => Some(self.fig10c()),
            _ => None,
        }
    }

    /// Emits (prints + persists) the named table. Returns `false` for an
    /// unknown name.
    pub fn emit(&self, name: &str) -> bool {
        match (
            SUITE_TABLES.iter().find(|(n, _)| *n == name),
            self.table(name),
        ) {
            (Some(&(_, title)), Some(table)) => {
                Artifact::new(name, title).table(&table);
                true
            }
            _ => false,
        }
    }

    /// Emits every suite table in [`SUITE_TABLES`] order.
    pub fn emit_all(&self) {
        for (name, _) in SUITE_TABLES {
            self.emit(name);
        }
    }

    /// Figure 7: normalized execution time of the out-of-core programs,
    /// broken into the four stacked components.
    pub fn fig07(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "benchmark",
            "version",
            "user(s)",
            "system(s)",
            "stall-res(s)",
            "stall-io(s)",
            "total(s)",
            "normalized",
        ]);
        for bench in self.benches() {
            let base = self
                .cell(&bench, Version::Original)
                .map(|c| c.hog.breakdown.total().as_secs_f64())
                .unwrap_or(0.0);
            for &v in &Version::ALL {
                let Some(c) = self.cell(&bench, v) else {
                    continue;
                };
                let b = &c.hog.breakdown;
                let total = b.total().as_secs_f64();
                t.row(vec![
                    bench.clone(),
                    v.label().into(),
                    format!("{:.2}", b.get(TimeCategory::User).as_secs_f64()),
                    format!("{:.2}", b.get(TimeCategory::System).as_secs_f64()),
                    format!("{:.2}", b.get(TimeCategory::StallResource).as_secs_f64()),
                    format!("{:.2}", b.get(TimeCategory::StallIo).as_secs_f64()),
                    format!("{total:.2}"),
                    if base > 0.0 {
                        format!("{:.3}", total / base)
                    } else {
                        "-".into()
                    },
                ]);
            }
        }
        t
    }

    /// Figure 8: soft page faults caused by the paging daemon's periodic
    /// invalidations, per out-of-core benchmark version.
    pub fn fig08(&self) -> TextTable {
        let mut t = TextTable::new(vec!["benchmark", "version", "soft faults (invalidations)"]);
        for bench in self.benches() {
            for &v in &Version::ALL {
                let Some(c) = self.cell(&bench, v) else {
                    continue;
                };
                let soft = c.vm.proc(c.hog.pid.0 as usize).soft_faults_daemon.get();
                t.row(vec![bench.clone(), v.label().into(), soft.to_string()]);
            }
        }
        t
    }

    /// Table 3: paging-daemon reclamation activity, original vs
    /// prefetch+release.
    pub fn table3(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "benchmark",
            "O: daemon activations",
            "O: pages stolen",
            "O: allocations",
            "R: daemon activations",
            "R: pages stolen",
            "R: pages released",
            "R: allocations",
        ]);
        for bench in self.benches() {
            let o = self.cell(&bench, Version::Original);
            let r = self.cell(&bench, Version::Release);
            let (oa, os, oall) = o
                .map(|c| {
                    (
                        c.vm.pagingd.activations.get(),
                        c.vm.pagingd.pages_stolen.get(),
                        c.vm.proc(c.hog.pid.0 as usize).allocations.get(),
                    )
                })
                .unwrap_or((0, 0, 0));
            let (ra, rs, rr, rall) = r
                .map(|c| {
                    (
                        c.vm.pagingd.activations.get(),
                        c.vm.pagingd.pages_stolen.get(),
                        c.vm.releaser.pages_released.get(),
                        c.vm.proc(c.hog.pid.0 as usize).allocations.get(),
                    )
                })
                .unwrap_or((0, 0, 0, 0));
            t.row(vec![
                bench.clone(),
                oa.to_string(),
                os.to_string(),
                oall.to_string(),
                ra.to_string(),
                rs.to_string(),
                rr.to_string(),
                rall.to_string(),
            ]);
        }
        t
    }

    /// Figure 9: breakdown of freed-page outcomes.
    pub fn fig09(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "benchmark",
            "version",
            "freed by daemon",
            "freed by release",
            "daemon-freed rescued",
            "released rescued",
        ]);
        for bench in self.benches() {
            for &v in &Version::ALL {
                let Some(c) = self.cell(&bench, v) else {
                    continue;
                };
                let f = &c.vm.freed;
                let frac = |num: u64, den: u64| {
                    if den == 0 {
                        "-".to_string()
                    } else {
                        format!("{} ({:.1}%)", num, 100.0 * num as f64 / den as f64)
                    }
                };
                t.row(vec![
                    bench.clone(),
                    v.label().into(),
                    f.freed_by_daemon.get().to_string(),
                    f.freed_by_release.get().to_string(),
                    frac(f.rescued_daemon.get(), f.freed_by_daemon.get()),
                    frac(f.rescued_release.get(), f.freed_by_release.get()),
                ]);
            }
        }
        t
    }

    /// Figure 10(b): interactive response time at the 5-second sleep,
    /// normalized to the task running alone.
    pub fn fig10b(&self) -> TextTable {
        let base = self
            .alone
            .mean_response()
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0);
        let mut t = TextTable::new(vec![
            "benchmark",
            "version",
            "response (ms)",
            "normalized to alone",
        ]);
        for bench in self.benches() {
            for &v in &Version::ALL {
                let Some(c) = self.cell(&bench, v) else {
                    continue;
                };
                let resp = c
                    .interactive
                    .mean_response()
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(f64::NAN);
                t.row(vec![
                    bench.clone(),
                    v.label().into(),
                    format!("{:.3}", resp * 1e3),
                    if base > 0.0 {
                        format!("{:.2}", resp / base)
                    } else {
                        "-".into()
                    },
                ]);
            }
        }
        t
    }

    /// Figure 10(c): average hard page faults per interactive sweep.
    pub fn fig10c(&self) -> TextTable {
        let mut t = TextTable::new(vec!["benchmark", "version", "hard faults / sweep"]);
        for bench in self.benches() {
            for &v in &Version::ALL {
                let Some(c) = self.cell(&bench, v) else {
                    continue;
                };
                let f = c.interactive.mean_sweep_faults().unwrap_or(f64::NAN);
                t.row(vec![bench.clone(), v.label().into(), format!("{f:.1}")]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let err = match run(
            &MachineConfig::small(),
            Some(&["NO-SUCH-BENCH"]),
            SimDuration::from_secs(1),
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected an unknown-benchmark error"),
        };
        assert_eq!(err, SuiteError::UnknownBenchmark("NO-SUCH-BENCH".into()));
    }

    /// Shape test on the full machine, MATVEC only (fast: ≈ 0.5 s).
    #[test]
    fn matvec_suite_reproduces_headline_shapes() {
        let suite = run(
            &MachineConfig::origin200(),
            Some(&["MATVEC"]),
            SimDuration::from_secs(5),
        )
        .expect("suite runs");
        assert_eq!(suite.cells.len(), 4);

        let total = |v| {
            suite
                .cell("MATVEC", v)
                .unwrap()
                .hog
                .breakdown
                .total()
                .as_secs_f64()
        };
        // P is much faster than O; R and B beat P; B beats R dramatically
        // for MATVEC (the vector is preserved).
        assert!(total(Version::Prefetch) < 0.6 * total(Version::Original));
        assert!(total(Version::Release) < total(Version::Prefetch));
        assert!(total(Version::Buffered) < 0.7 * total(Version::Release));

        // Interactive response: P inflates it badly; R and B restore it to
        // (close to) the stand-alone time.
        let alone = suite.alone.mean_response().unwrap().as_secs_f64();
        let resp = |v: Version| {
            suite
                .cell("MATVEC", v)
                .unwrap()
                .interactive
                .mean_response()
                .unwrap()
                .as_secs_f64()
        };
        assert!(resp(Version::Prefetch) > 10.0 * alone, "P must hurt");
        assert!(resp(Version::Release) < 3.0 * alone, "R must protect");
        assert!(resp(Version::Buffered) < 3.0 * alone, "B must protect");

        // Table 3 story: releasing eliminates nearly all daemon stealing.
        let stolen_o = suite
            .cell("MATVEC", Version::Original)
            .unwrap()
            .vm
            .pagingd
            .pages_stolen
            .get();
        let stolen_r = suite
            .cell("MATVEC", Version::Release)
            .unwrap()
            .vm
            .pagingd
            .pages_stolen
            .get();
        assert!(
            stolen_r * 3 < stolen_o,
            "O stole {stolen_o}, R stole {stolen_r}"
        );

        // All six tables render, and `table(name)` reaches each.
        for (name, _) in SUITE_TABLES {
            assert!(!suite.table(name).unwrap().render().is_empty());
        }
        assert!(suite.table("nope").is_none());
    }
}
