//! Build versions and process installation for the paper's experiments.
//!
//! The paper compares four builds of each out-of-core program:
//!
//! * **O** — the original, unmodified program;
//! * **P** — compiled with prefetching only;
//! * **R** — prefetching + aggressive releasing;
//! * **B** — prefetching + release buffering.
//!
//! [`Version`] carries that choice; [`install_bench`] /
//! [`install_interactive`] map compiled workloads into an [`Engine`].
//! Describing and running a whole experiment is the job of
//! [`crate::request::RunRequest`], which calls these installers.

use compiler::{compile, CompileOptions};
use runtime::{Executor, OpStream, Pipelined, ReleasePolicy, RtConfig, RuntimeLayer};
use sim_core::fault::{AdversaryPlan, FaultDomain, FaultPlan};
use sim_core::SimDuration;
use vm::{Backing, Pid, Vpn};
use workloads::arrivals::FLEET_TAG_BASE;
use workloads::{AdversaryTask, BenchSpec, FleetHog, FleetSpec, InteractiveTask};

use crate::engine::Engine;
use crate::machine::MachineConfig;

/// The four build versions of Figure 7.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Version {
    /// Original, unmodified program.
    Original,
    /// Prefetching only.
    Prefetch,
    /// Prefetching + aggressive releasing.
    Release,
    /// Prefetching + release buffering.
    Buffered,
    /// Prefetching + *reactive* eviction candidates (extension; not one of
    /// the paper's four versions — built to quantify §2.2's argument that
    /// reactive schemes cannot isolate other applications).
    Reactive,
}

impl Version {
    /// All four versions in the paper's bar order.
    pub const ALL: [Version; 4] = [
        Version::Original,
        Version::Prefetch,
        Version::Release,
        Version::Buffered,
    ];

    /// The paper's one-letter label.
    pub fn label(self) -> &'static str {
        match self {
            Version::Original => "O",
            Version::Prefetch => "P",
            Version::Release => "R",
            Version::Buffered => "B",
            Version::Reactive => "V",
        }
    }

    /// Compiler options for this version.
    pub fn compile_options(self, machine: &MachineConfig) -> CompileOptions {
        match self {
            Version::Original => CompileOptions::original(machine.compiler_model),
            Version::Prefetch => CompileOptions::prefetch_only(machine.compiler_model),
            Version::Release | Version::Buffered | Version::Reactive => {
                CompileOptions::prefetch_and_release(machine.compiler_model)
            }
        }
    }

    /// The run-time layer release policy, if any hints exist.
    pub fn policy(self) -> Option<ReleasePolicy> {
        match self {
            Version::Original => None,
            Version::Prefetch => Some(ReleasePolicy::Aggressive),
            Version::Release => Some(ReleasePolicy::Aggressive),
            Version::Buffered => Some(ReleasePolicy::Buffered),
            Version::Reactive => Some(ReleasePolicy::Reactive),
        }
    }
}

/// Compiles `spec` for `version`, maps its arrays, and registers the
/// process. Returns the VM pid. The executor runs on its own producer
/// thread when the engine has a core to spare ([`Engine::spare_core`]),
/// inline otherwise; it probes its windows in checked mode.
pub fn install_bench(
    engine: &mut Engine,
    spec: &BenchSpec,
    version: Version,
    rt_config: RtConfig,
) -> Pid {
    let (pid, exec) = map_bench(engine, spec, version);
    // With a core to spare, the executor runs beside the engine; the op
    // stream is the same either way, so a refused thread runs it inline.
    let stream: Box<dyn OpStream> = if engine.spare_core() {
        match Pipelined::spawn(exec) {
            Ok(piped) => Box::new(piped),
            Err(exec) => exec,
        }
    } else {
        Box::new(exec)
    };
    register_bench(engine, pid, spec, version, rt_config, stream);
    pid
}

/// Compiles `spec` for `version`, adds its process and maps its arrays;
/// returns the pid and the program's executor.
fn map_bench(engine: &mut Engine, spec: &BenchSpec, version: Version) -> (Pid, Executor) {
    let opts = version.compile_options(engine.config());
    let prog = compile(&spec.source, &opts);
    let page_size = engine.config().page_size;

    let with_pm = version != Version::Original;
    let pid = engine.vm_mut().add_process(with_pm);
    let mut bases: Vec<Vpn> = Vec::with_capacity(spec.arrays.len());
    for arr in &spec.arrays {
        let range =
            engine
                .vm_mut()
                .map_region(pid, arr.pages(page_size), Backing::SwapPrefilled, with_pm);
        bases.push(range.start);
    }
    let mut exec = Executor::new(prog, spec.bindings(&bases, page_size));
    exec.set_checked(engine.is_checked());
    (pid, exec)
}

/// Registers a benchmark process running `stream`, with the version's
/// run-time layer.
fn register_bench(
    engine: &mut Engine,
    pid: Pid,
    spec: &BenchSpec,
    version: Version,
    rt_config: RtConfig,
    stream: Box<dyn OpStream>,
) {
    let rt = version
        .policy()
        .map(|policy| RuntimeLayer::new(policy, rt_config));
    engine.register(
        pid,
        format!("{}-{}", spec.name, version.label()),
        stream,
        rt,
        true,
    );
}

/// Maps the interactive task's 1 MB region and registers it.
pub fn install_interactive(
    engine: &mut Engine,
    sleep: SimDuration,
    max_sweeps: Option<u32>,
    primary: bool,
) -> Pid {
    let pid = engine.vm_mut().add_process(false);
    let pages = workloads::interactive::PAGES;
    let range = engine
        .vm_mut()
        .map_region(pid, pages, Backing::ZeroFill, false);
    let task = InteractiveTask::new(range.start, sleep, max_sweeps);
    engine.register(pid, "interactive", Box::new(task), None, primary);
    pid
}

/// Maps and registers the adversary processes described by `plan`. Each
/// adversary gets its own paged region, its own seeded RNG stream
/// (`FaultDomain::Adversary`, stream `k` — independent of every fault
/// stream, so adding an adversary never perturbs fault injection), and
/// its own run-time layer: adversaries attack *through* the hint API, so
/// they go through the same filters and admission control as everyone
/// else. None are primary — the run still ends when the well-behaved
/// processes finish.
pub fn install_adversaries(
    engine: &mut Engine,
    plan: &AdversaryPlan,
    rt_config: RtConfig,
    faults: &FaultPlan,
) -> Vec<Pid> {
    let Some(strategy) = plan.strategy else {
        return Vec::new();
    };
    let mut pids = Vec::with_capacity(plan.count as usize);
    for k in 0..plan.count {
        let pid = engine.vm_mut().add_process(true);
        let range = engine
            .vm_mut()
            .map_region(pid, plan.pages, Backing::SwapPrefilled, true);
        let rng = faults.stream_rng(FaultDomain::Adversary, u64::from(k));
        let task = AdversaryTask::new(range.start, plan.pages, strategy, plan.intensity, rng);
        let rt = RuntimeLayer::new(ReleasePolicy::Aggressive, rt_config);
        engine.register(
            pid,
            format!("adversary{k}-{}", strategy.name()),
            Box::new(task),
            Some(rt),
            false,
        );
        pids.push(pid);
    }
    pids
}

/// Expands a [`FleetSpec`]'s arrival plan into registered processes:
/// hogs get a swap-backed region and a `Buffered` run-time layer (the
/// release-behind idiom the brownout ladder escalates), tasks get a
/// zero-fill region and no layer — exactly what the OS must protect.
/// Every process is deferred to its arrival instant
/// ([`Engine::set_start`]) and tagged with its logical tenant
/// ([`Engine::tag_tenant`]); all are primary, so the run ends when the
/// whole fleet has drained (or been shed). Returns the pids in plan
/// order.
pub fn install_fleet(engine: &mut Engine, spec: &FleetSpec, rt_config: RtConfig) -> Vec<Pid> {
    let plan = spec.plan();
    engine.reserve_processes(plan.len());
    let mut pids = Vec::with_capacity(plan.len());
    for (k, a) in plan.iter().enumerate() {
        let pid = if a.hog {
            let pid = engine.vm_mut().add_process(true);
            // Baseline hogs re-read prefilled swap (out-of-core compute,
            // disk-paced). Surge hogs inflate *fresh* working sets: their
            // first touches are zero-fill allocations, which drain the
            // free list at CPU speed — faster than buffered releases can
            // cooperate. That asymmetry is what pushes the machine into
            // the graded-pressure regime the brownout ladder exists for.
            let backing = if a.surge {
                Backing::ZeroFill
            } else {
                Backing::SwapPrefilled
            };
            let range = engine.vm_mut().map_region(pid, a.pages, backing, true);
            let sweeps = match (a.surge, spec.surge) {
                (true, Some(s)) => s.hog_sweeps,
                _ => spec.hog_sweeps,
            };
            let tag = FLEET_TAG_BASE + k as u32;
            let hog = FleetHog::new(range.start, a.pages, sweeps, tag);
            let rt = RuntimeLayer::new(ReleasePolicy::Buffered, rt_config);
            let kind = if a.surge { "surge" } else { "hog" };
            engine.register(
                pid,
                format!("fleet-{kind}{k}"),
                Box::new(hog),
                Some(rt),
                true,
            );
            pid
        } else {
            let pid = engine.vm_mut().add_process(false);
            let range = engine
                .vm_mut()
                .map_region(pid, a.pages, Backing::ZeroFill, false);
            let task = InteractiveTask::with_pages(
                range.start,
                a.pages,
                spec.think,
                Some(spec.task_sweeps),
            );
            engine.register(pid, format!("fleet-task{k}"), Box::new(task), None, true);
            pid
        };
        engine.set_start(pid, a.start);
        engine.tag_tenant(pid, a.tenant);
        pids.push(pid);
    }
    pids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RunRequest;
    use sim_core::stats::TimeCategory;
    use sim_core::SimTime;

    /// A miniature benchmark so scenario tests run in milliseconds.
    pub(crate) fn tiny_bench() -> BenchSpec {
        use compiler::expr::{Affine, Bound};
        use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
        use workloads::{ArraySpec, Table2Row};

        let n: i64 = 2048 * 64; // 64 pages
        let mut p = SourceProgram::new("TINY");
        let a = p.array("a", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("sweep")
                .counted_loop(Bound::Known(n))
                .work_ns(40)
                .reference(ArrayRef::read(a, vec![Index::aff(Affine::var(LoopId(0)))]))
                .build(),
        );
        BenchSpec {
            name: "TINY".into(),
            source: p,
            arrays: vec![ArraySpec {
                dims: vec![n],
                elem_size: 8,
            }],
            trips: vec![vec![runtime::TripSpec::Static]],
            indirect: Default::default(),
            invocations: 2,
            table2: Table2Row {
                description: "test sweep",
                structure: "1-D",
                analysis_difficulty: "trivial",
            },
        }
    }

    fn request(version: Version) -> RunRequest {
        RunRequest::on(MachineConfig::small()).bench_spec(tiny_bench(), version)
    }

    #[test]
    fn version_metadata() {
        assert_eq!(Version::Original.label(), "O");
        assert_eq!(Version::Buffered.label(), "B");
        assert!(Version::Original.policy().is_none());
        assert_eq!(Version::Release.policy(), Some(ReleasePolicy::Aggressive));
        assert_eq!(Version::Buffered.policy(), Some(ReleasePolicy::Buffered));
    }

    #[test]
    fn original_version_runs_to_completion() {
        let res = request(Version::Original).run().unwrap();
        let hog = res.hog.unwrap();
        assert!(hog.finish_time > SimTime::ZERO);
        assert!(hog.finish_time < SimTime::MAX);
        // Out-of-core sweep: every page demand-faulted at least once.
        assert!(res.run.vm_stats.proc(hog.pid.0 as usize).hard_faults.get() >= 64);
        assert!(hog.rt_stats.is_none());
    }

    #[test]
    fn prefetch_version_hides_io() {
        let ro = request(Version::Original).run().unwrap().hog.unwrap();
        let rp = request(Version::Prefetch).run().unwrap().hog.unwrap();

        let io_o = ro.breakdown.get(TimeCategory::StallIo);
        let io_p = rp.breakdown.get(TimeCategory::StallIo);
        assert!(
            io_p.as_nanos() * 2 < io_o.as_nanos(),
            "prefetching must hide most I/O stall: O={io_o} P={io_p}"
        );
        assert!(rp.finish_time < ro.finish_time);
        assert!(rp.rt_stats.unwrap().prefetch_issued > 0);
    }

    #[test]
    fn release_version_frees_memory() {
        let res = request(Version::Release).run().unwrap();
        assert!(res.run.vm_stats.releaser.pages_released.get() > 0);
    }

    #[test]
    fn interactive_alone_has_fast_sweeps() {
        let res = RunRequest::on(MachineConfig::small())
            .interactive(SimDuration::from_secs(1), Some(5))
            .run()
            .unwrap();
        let int = res.interactive.unwrap();
        assert_eq!(int.sweeps.len(), 5);
        let mean = int.mean_response().unwrap();
        // Warm sweeps are pure memory speed: ~1 ms.
        assert!(mean < SimDuration::from_millis(10), "mean {mean}");
        assert_eq!(int.mean_sweep_faults().unwrap(), 0.0);
    }

    #[test]
    fn poisoned_hints_still_complete_and_are_logged() {
        use sim_core::fault::HintFaults;
        let res = request(Version::Release)
            .fault_plan(FaultPlan {
                seed: 3,
                hints: HintFaults::poisoned(0.5),
                ..FaultPlan::default()
            })
            .run()
            .unwrap();
        let hog = res.hog.unwrap();
        assert!(hog.finish_time < SimTime::MAX, "run completes under faults");
        assert!(
            res.run.fault_log.count("hint_dropped") > 0,
            "faults recorded: {}",
            res.run.fault_log.summary()
        );
        assert!(hog.rt_stats.unwrap().hints_dropped > 0);
    }

    /// `p[colidx[i]]` beside `aval[i]` and `colidx[i]`: a gather nest
    /// whose affine streams cross pages inside its windows.
    fn tiny_gather() -> BenchSpec {
        use compiler::expr::{Affine, Bound};
        use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
        use workloads::{ArraySpec, Table2Row};

        let n: i64 = 2048 * 16;
        let mut p = SourceProgram::new("GATHER");
        let aval = p.array("aval", 32, vec![Bound::Known(n)]);
        let colidx = p.array("colidx", 4, vec![Bound::Known(n)]);
        let pv = p.array("p", 8, vec![Bound::Known(n)]);
        let i = LoopId(0);
        p.nest(
            NestBuilder::new("spmv")
                .counted_loop(Bound::Known(n))
                .work_ns(45)
                .reference(ArrayRef::read(aval, vec![Index::aff(Affine::var(i))]))
                .reference(ArrayRef::read(colidx, vec![Index::aff(Affine::var(i))]))
                .reference(ArrayRef::read(
                    pv,
                    vec![Index::Indirect {
                        via: colidx,
                        subscript: Affine::var(i),
                    }],
                ))
                .build(),
        );
        let array = |elem_size| ArraySpec {
            dims: vec![n],
            elem_size,
        };
        BenchSpec {
            name: "GATHER".into(),
            source: p,
            arrays: vec![array(32), array(4), array(8)],
            trips: vec![vec![runtime::TripSpec::Static]],
            indirect: [(
                colidx,
                runtime::IndirectGen {
                    seed: 5,
                    range: n as u64,
                },
            )]
            .into_iter()
            .collect(),
            invocations: 1,
            table2: Table2Row {
                description: "test gather",
                structure: "indirect",
                analysis_difficulty: "trivial",
            },
        }
    }

    #[test]
    fn producer_panic_fails_the_run_as_the_inline_run_fails() {
        use crate::exec::panic_message;
        use crate::request::RunError;

        // A checked engine whose executor trusts affine references past
        // their pages: the window probe raises mid-run.
        let crash = |pipelined: bool| -> RunError {
            let mut engine = Engine::new(MachineConfig::small()).with_checked();
            let spec = tiny_gather();
            let (pid, mut exec) = map_bench(&mut engine, &spec, Version::Prefetch);
            exec.overrun_windows(4096);
            let stream: Box<dyn OpStream> = if pipelined {
                Box::new(Pipelined::spawn(exec).ok().expect("a producer thread"))
            } else {
                Box::new(exec)
            };
            register_bench(
                &mut engine,
                pid,
                &spec,
                Version::Prefetch,
                RtConfig::default(),
                stream,
            );
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()))
                .expect_err("the overrun window is caught");
            RunError::Crashed(panic_message(payload))
        };
        let inline = crash(false);
        assert!(
            inline.to_string().contains("runtime/exec_window"),
            "{inline}"
        );
        assert_eq!(crash(true), inline);
    }

    #[test]
    fn hog_degrades_interactive_without_releases() {
        let mut b = tiny_bench();
        b.invocations = 40; // long enough to overlap many sweeps
        let res = RunRequest::on(MachineConfig::small())
            .bench_spec(b, Version::Prefetch)
            .interactive(SimDuration::from_millis(20), None)
            .run()
            .unwrap();
        let int = res.interactive.unwrap();
        assert!(int.sweeps.len() >= 2, "interactive ran alongside the hog");
    }
}
