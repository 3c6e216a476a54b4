//! `hogtame` — command-line driver for the reproduction.
//!
//! ```text
//! hogtame list                         # benchmarks and their pathologies
//! hogtame machine                      # Table 1 of the simulated machine
//! hogtame compile MATVEC               # Figure 5-style annotated listing
//! hogtame run MATVEC B --sleep 5       # run a scenario, print the report
//! hogtame run CGM P --timeline         # ... with the occupancy chart
//! hogtame trace MATVEC R               # Chrome/Perfetto trace + JSONL export
//! hogtame stats MATVEC R               # hint-outcome table + Prometheus metrics
//! hogtame fleet                        # defended storm: tails, sheds, ladder record
//! hogtame fleet --no-ladder            # the same storm undefended
//! hogtame fleet --datacenter           # 200 hogs + 2000 tasks on the full machine
//! hogtame why                          # "why is my p999 slow?" — blame table + exemplars
//! ```

use hogtame::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:\n  hogtame list\n  hogtame machine\n  hogtame compile <BENCH> [O|P|R|B|V] [--explain]\n  \
         hogtame run <BENCH> [O|P|R|B|V] [--sleep SECS] [--timeline] [--no-interactive]\n  \
         hogtame trace <BENCH> [O|P|R|B|V] [--sleep SECS] [--no-interactive]\n  \
         hogtame stats <BENCH> [O|P|R|B|V] [--sleep SECS] [--no-interactive]\n  \
         hogtame fleet [--calm] [--no-ladder] [--datacenter] [--seed N]\n  \
         hogtame why [--calm] [--no-ladder] [--datacenter] [--seed N]"
    );
    std::process::exit(2);
}

fn parse_version(s: &str) -> Version {
    match s.to_ascii_uppercase().as_str() {
        "O" => Version::Original,
        "P" => Version::Prefetch,
        "R" => Version::Release,
        "B" => Version::Buffered,
        "V" => Version::Reactive,
        other => {
            eprintln!("unknown version {other}; use O, P, R, B or V");
            std::process::exit(2);
        }
    }
}

fn cmd_list() {
    let mut t = TextTable::new(vec!["benchmark", "data set", "structure", "difficulty"]);
    for b in workloads::extended_benchmarks() {
        t.row(vec![
            b.name.clone(),
            format!("{:.0} MB", b.data_set_bytes() as f64 / (1024.0 * 1024.0)),
            b.table2.structure.into(),
            b.table2.analysis_difficulty.into(),
        ]);
    }
    println!("{}", t.render());
}

fn cmd_machine() {
    let m = MachineConfig::origin200();
    let mut t = TextTable::new(vec!["characteristic", "value"]);
    for (k, v) in m.table1_rows() {
        t.row(vec![k, v]);
    }
    println!("{}", t.render());
}

fn cmd_compile(bench: &str, version: Version, explain: bool) {
    let Some(spec) = workloads::benchmark(bench) else {
        eprintln!("unknown benchmark {bench} (try `hogtame list`)");
        std::process::exit(2);
    };
    let opts = version.compile_options(&MachineConfig::origin200());
    if explain {
        println!("{}", compiler::explain_program(&spec.source, &opts));
        return;
    }
    let prog = compiler::compile(&spec.source, &opts);
    println!("{}", compiler::pretty::render_program(&prog));
    println!(
        "/* {} prefetch site(s), {} release site(s) */",
        prog.prefetch_sites(),
        prog.release_sites()
    );
}

struct RunOpts {
    sleep: f64,
    timeline: bool,
    interactive: bool,
}

fn cmd_run(bench: &str, version: Version, opts: RunOpts) {
    let mut request = RunRequest::on(MachineConfig::origin200()).bench(bench, version);
    if opts.interactive {
        request = request.interactive(SimDuration::from_secs_f64(opts.sleep), None);
    }
    if opts.timeline {
        request = request.timeline(SimDuration::from_millis(250));
    }
    let result = match request.run() {
        Ok(result) => result,
        Err(RunError::UnknownBenchmark(_)) => {
            eprintln!("unknown benchmark {bench} (try `hogtame list`)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let hog = result.hog.expect("benchmark ran");
    println!("{bench}-{}:", version.label());
    println!(
        "  completed in {:.2} s (simulated)",
        hog.finish_time.as_secs_f64()
    );
    for cat in TimeCategory::ALL {
        let d = hog.breakdown.get(cat);
        println!(
            "  {:<10} {:>9.2} s  ({:>5.1} %)",
            cat.label(),
            d.as_secs_f64(),
            100.0 * hog.breakdown.fraction(cat)
        );
    }
    if let Some(rt) = hog.rt_stats {
        println!(
            "  run-time layer: {} prefetches issued ({} filtered), {} releases direct, {} buffered, {} drained",
            rt.prefetch_issued,
            rt.prefetch_filtered,
            rt.release_issued_direct,
            rt.release_buffered,
            rt.release_drained
        );
    }
    println!(
        "  AS lock: {} acquisitions, {} contended, {:.3} s total wait",
        hog.lock_stats.acquisitions,
        hog.lock_stats.contended,
        hog.lock_stats.total_wait.as_secs_f64()
    );
    let vm = &result.run.vm_stats;
    println!(
        "  kernel: daemon {} activations / {} stolen ({} reactive); releaser {} freed",
        vm.pagingd.activations,
        vm.pagingd.pages_stolen,
        vm.pagingd.reactive_steals,
        vm.releaser.pages_released
    );
    if let Some(int) = result.interactive {
        println!(
            "  interactive: {:.2} ms mean response, {:.1} hard faults/sweep over {} sweeps",
            int.mean_response()
                .map(|d| d.as_millis_f64())
                .unwrap_or(f64::NAN),
            int.mean_sweep_faults().unwrap_or(f64::NAN),
            int.sweeps.len()
        );
    }
    if let Some(tl) = result.run.timeline {
        println!("\n{}", tl.render_ascii(100));
    }
}

/// Executes an observed run for `trace`/`stats`: origin200 machine, the
/// requested benchmark/version, the interactive task unless disabled, and
/// the full structured-observability instrumentation.
fn observed_run(bench: &str, version: Version, sleep: f64, interactive: bool) -> RunOutcome {
    // Health monitoring on: it is passive for honest hint streams but
    // lets `stats` attribute misfires per kind.
    let mut request = RunRequest::on(MachineConfig::origin200())
        .bench(bench, version)
        .rt_config(runtime::RtConfig {
            health: Some(runtime::HealthConfig::default()),
            ..runtime::RtConfig::default()
        })
        .observe();
    if interactive {
        request = request.interactive(SimDuration::from_secs_f64(sleep), None);
    }
    match request.run() {
        Ok(result) => result,
        Err(RunError::UnknownBenchmark(_)) => {
            eprintln!("unknown benchmark {bench} (try `hogtame list`)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_trace(bench: &str, version: Version, sleep: f64, interactive: bool) {
    let result = observed_run(bench, version, sleep, interactive);
    let events = &result.run.events;
    let stem = format!(
        "trace_{}_{}",
        bench.to_ascii_lowercase(),
        version.label().to_ascii_lowercase()
    );
    let proc_names: Vec<String> = result.run.procs.iter().map(|p| p.name.clone()).collect();
    let artifact = Artifact::new(&stem, format!("{bench}-{} event trace", version.label()));
    println!("{bench}-{}: {}", version.label(), stream_summary(events));
    println!("{}", outcome_table(events).render());
    println!("last events:");
    print!("{}", events.render_text(15));
    match artifact.write_raw("trace.json", &events.to_chrome_trace(&proc_names)) {
        Ok(path) => println!(
            "\nwrote {} (open in Perfetto / chrome://tracing)",
            path.display()
        ),
        Err(e) => eprintln!("warning: could not persist {stem}.trace.json: {e}"),
    }
    match artifact.write_raw("jsonl", &events.to_jsonl()) {
        Ok(path) => println!("wrote {} (one JSON event per line)", path.display()),
        Err(e) => eprintln!("warning: could not persist {stem}.jsonl: {e}"),
    }
}

fn cmd_stats(bench: &str, version: Version, sleep: f64, interactive: bool) {
    let result = observed_run(bench, version, sleep, interactive);
    let stem = format!(
        "stats_{}_{}",
        bench.to_ascii_lowercase(),
        version.label().to_ascii_lowercase()
    );
    let artifact = Artifact::new(
        &stem,
        format!("{bench}-{} hint-outcome attribution", version.label()),
    );
    artifact.table(&outcome_table(&result.run.events));
    if let Some(h) = result.hog.as_ref().and_then(|h| h.health_stats.as_ref()) {
        println!(
            "misfires: {} total ({} cancelled-release, {} rescued-release, {} useless-prefetch)",
            h.misfires,
            h.misfires_cancelled_release,
            h.misfires_rescued_release,
            h.misfires_useless_prefetch
        );
    }
    if let Some(a) = result.hog.as_ref().and_then(|h| h.admission_stats) {
        println!(
            "admission: {} admitted, {} rejected, {} advisory ({} dropped), {} demotions, {} restores, {} releases verified",
            a.admitted,
            a.rejected,
            a.advisory,
            a.advisory_dropped,
            a.demotions,
            a.restores,
            a.releases_verified
        );
    }
    // Quota-defense counters: how often the paging daemon was forced
    // past the quota shield, how many steals the shield deflected, and
    // how many prefetch pages tenant quotas denied.
    let vm = &result.run.vm_stats;
    let denied: u64 = result
        .run
        .procs
        .iter()
        .map(|p| vm.proc(p.pid.0 as usize).prefetch_quota_denied.get())
        .sum();
    println!(
        "quota defenses: {} forced activations, {} quota-protected steals, {} prefetch pages denied by quota",
        vm.pagingd.forced_activations.get(),
        vm.pagingd.quota_protected.get(),
        denied
    );
    if let Some(f) = result.run.fleet.as_ref() {
        println!("{}", fleet_table(f).render());
        print!("{}", fleet_summary(f));
    }
    let prom = result.run.metrics.to_prometheus();
    print!("{prom}");
    if let Err(e) = artifact.write_raw("prom", &prom) {
        eprintln!("warning: could not persist {stem}.prom: {e}");
    }
}

/// `hogtame fleet`: one fleet-scale run — hundreds of hogs and
/// interactive tasks through the arrival machinery, the pressure monitor
/// sampling, and (unless `--no-ladder`) the brownout ladder defending —
/// rendered as the per-tenant tail table plus the overload-control
/// record.
/// Parses the shared `fleet`/`why` flags into a fleet spec, the machine
/// to run it on, and an artifact-stem suffix.
fn parse_fleet_args(args: &[String]) -> (FleetSpec, MachineConfig, &'static str) {
    let mut spec = FleetSpec::storm_demo(true);
    let mut machine = MachineConfig::small();
    let mut stem = "storm";
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--calm" => {
                spec.surge = None;
                stem = "calm";
            }
            "--no-ladder" => spec.ladder = false,
            "--datacenter" => {
                let ladder = spec.ladder;
                let surged = spec.surge.is_some();
                spec = FleetSpec::datacenter(200, 2000);
                spec.ladder = ladder;
                if !surged {
                    spec.surge = None;
                }
                machine = MachineConfig::origin200();
                stem = "datacenter";
            }
            "--seed" => {
                i += 1;
                spec.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    (spec, machine, stem)
}

fn cmd_fleet(args: &[String]) {
    let (spec, machine, suffix) = parse_fleet_args(args);
    let stem = format!("fleet_{suffix}");
    let result = match RunRequest::on(machine).fleet(spec.clone()).run() {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let f = result.run.fleet.as_ref().expect("fleet runs carry stats");
    println!(
        "fleet: {} processes, {} tenants, ladder {}, ended at {:.3} s (simulated)",
        result.run.procs.len(),
        spec.tenants,
        if spec.ladder { "on" } else { "off" },
        result.run.end_time.as_secs_f64()
    );
    let table = fleet_table(f);
    println!("{}", table.render());
    print!("{}", fleet_summary(f));
    let artifact = Artifact::new(&stem, "Fleet run: per-tenant tails and overload control");
    if let Err(e) = artifact.write_table(&table) {
        eprintln!("warning: could not persist {stem}.txt: {e}");
    }
    let prom = result.run.metrics.to_prometheus();
    if let Err(e) = artifact.write_raw("prom", &prom) {
        eprintln!("warning: could not persist {stem}.prom: {e}");
    }
}

/// `hogtame why`: the tail debugger. Re-runs the fleet scenario with the
/// span tracker armed and answers "why is my p999 slow?" — the exact
/// tenant × pressure-level × state blame table, the per-state latency
/// totals, and the p999/slowest request exemplars as critical-path
/// timelines. Also exports the span-augmented Chrome trace.
fn cmd_why(args: &[String]) {
    let (spec, machine, suffix) = parse_fleet_args(args);
    let stem = format!("why_{suffix}");
    let result = match RunRequest::on(machine).fleet(spec.clone()).observe().run() {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let f = result.run.fleet.as_ref().expect("fleet runs carry stats");
    let spans = result
        .run
        .spans
        .as_ref()
        .expect("observed runs carry spans");
    println!(
        "why: {} processes, {} tenants, ladder {}, ended at {:.3} s (simulated)",
        result.run.procs.len(),
        spec.tenants,
        if spec.ladder { "on" } else { "off" },
        result.run.end_time.as_secs_f64()
    );
    let mut text = String::new();
    text.push_str(&fleet_table(f).render());
    text.push('\n');
    text.push_str(&span_summary(spans));
    text.push_str(
        "blame table (tenant x pressure level x state; reconciles to total tracked latency):\n",
    );
    let blame = blame_table(spans);
    text.push_str(&blame.render());
    text.push('\n');
    if let Some(ex) = spans.p999_exemplar() {
        text.push_str(&exemplar_timeline(
            &format!(
                "p999 exemplar (rank {} of {})",
                spans.p999_rank(),
                spans.sweeps_closed
            ),
            ex,
        ));
        text.push_str(&format!(
            "fleet digest p999 cross-check: {:.3} ms\n",
            f.overall.p999.as_millis_f64()
        ));
    }
    if let (Some(p999), Some(slow)) = (spans.p999_exemplar(), spans.slowest()) {
        if p999.summary.req != slow.summary.req {
            text.push('\n');
            text.push_str(&exemplar_timeline("slowest request", slow));
        }
    }
    print!("{text}");
    let artifact = Artifact::new(&stem, "Tail debugger: span blame table and exemplars");
    if let Err(e) = artifact.write_raw("txt", &text) {
        eprintln!("warning: could not persist {stem}.txt: {e}");
    }
    let proc_names: Vec<String> = result.run.procs.iter().map(|p| p.name.clone()).collect();
    match artifact.write_raw(
        "trace.json",
        &result.run.events.to_chrome_trace(&proc_names),
    ) {
        Ok(path) => println!(
            "wrote {} (span-augmented; open in Perfetto / chrome://tracing)",
            path.display()
        ),
        Err(e) => eprintln!("warning: could not persist {stem}.trace.json: {e}"),
    }
}

/// Parses the shared `<BENCH> [version] [--sleep S] [--no-interactive]`
/// argument tail of `trace` and `stats`.
fn parse_observe_args(args: &[String]) -> (String, Version, f64, bool) {
    let bench = args.first().unwrap_or_else(|| usage()).clone();
    let mut version = Version::Release;
    let mut sleep = 5.0;
    let mut interactive = true;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sleep" => {
                i += 1;
                sleep = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--no-interactive" => interactive = false,
            v if !v.starts_with("--") => version = parse_version(v),
            _ => usage(),
        }
        i += 1;
    }
    (bench, version, sleep, interactive)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("machine") => cmd_machine(),
        Some("compile") => {
            let bench = args.get(1).unwrap_or_else(|| usage());
            let explain = args.iter().any(|a| a == "--explain");
            let version = args
                .get(2)
                .filter(|s| !s.starts_with("--"))
                .map(|s| parse_version(s))
                .unwrap_or(Version::Release);
            cmd_compile(bench, version, explain);
        }
        Some("run") => {
            let bench = args.get(1).unwrap_or_else(|| usage()).clone();
            let mut version = Version::Buffered;
            let mut opts = RunOpts {
                sleep: 5.0,
                timeline: false,
                interactive: true,
            };
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--sleep" => {
                        i += 1;
                        opts.sleep = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                    }
                    "--timeline" => opts.timeline = true,
                    "--no-interactive" => opts.interactive = false,
                    v if !v.starts_with("--") => version = parse_version(v),
                    _ => usage(),
                }
                i += 1;
            }
            cmd_run(&bench, version, opts);
        }
        Some("trace") => {
            let (bench, version, sleep, interactive) = parse_observe_args(&args[1..]);
            cmd_trace(&bench, version, sleep, interactive);
        }
        Some("stats") => {
            let (bench, version, sleep, interactive) = parse_observe_args(&args[1..]);
            cmd_stats(&bench, version, sleep, interactive);
        }
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        _ => usage(),
    }
}
