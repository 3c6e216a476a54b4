//! The per-request completion journal: crash-tolerant, resumable grids.
//!
//! A grid of [`RunRequest`]s can take minutes; a killed process used to
//! lose every completed run. The journal fixes that at the executor
//! level: as each request finishes successfully, its outcome is encoded
//! to a small text record named by the request's fingerprint and written
//! atomically (scratch file + rename) under the journal directory. A
//! re-executed grid replays journaled outcomes instead of re-simulating
//! them — and because a run is a pure function of its request, the
//! replayed grid is bit-identical to an uninterrupted one
//! (`tests/resume_exec.rs` pins the suite CSVs byte for byte).
//!
//! The journal is the only on-disk store of run results. Every record
//! names the simulator build that wrote it — a digest of the sources of
//! every crate `hogtame` links, computed at compile time — so binaries of
//! one build share records, and an edited build misses and re-runs.
//!
//! # Record format
//!
//! One file per request, `<fingerprint:016x>.run`:
//!
//! ```text
//! hogtame-journal/v2 <build:016x> <fingerprint:016x> <payload-bytes>
//! <payload>
//! ```
//!
//! The payload is a line-oriented encoding of the [`RunOutcome`]: every
//! field of the per-process results and of the VM statistics. Each
//! statistics line lists its struct's fields in declaration order, as
//! [`sim_core::stats_struct!`] declares them, so a new field needs no edit
//! here. A reorder changes the layout; the build digest already makes
//! older records miss, so `MAGIC` stays `v2`. The
//! header's build digest, fingerprint and payload length are verified on
//! read; any mismatch — another build, truncation, corruption, a stale
//! record for a different request — is treated as a missing record and
//! the run is simply redone.
//!
//! A replay is exact or not attempted. Only *journalable* requests are
//! recorded ([`RunRequest::journalable`]: no timeline, no event stream,
//! no health monitor or admission control, no fleet, a registry
//! benchmark) and only when the run injected no faults (a non-empty
//! fault log carries event payloads the codec does not model). A
//! replayed outcome omits the metrics registry, the event stream and the
//! span report, which such requests do not ask for. Everything else
//! re-runs on resume; correctness never depends on a record being
//! present.
//!
//! # Enabling
//!
//! Set `HOGTAME_JOURNAL=1` (or `on`/`yes`) to journal under
//! `results/.journal/`, or to an explicit path to journal there.
//! Unset, `0`, `off`, or `no` disables journaling. Tests and the
//! `crash_matrix` example pass explicit directories via [`Journal::at`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use runtime::RtStats;
use sim_core::fault::FaultLog;
use sim_core::stats::{TimeBreakdown, TimeCategory};
use sim_core::{SimDuration, SimTime};
use vm::lock::LockStats;
use vm::stats::{FreedPageStats, PagingdStats, ProcStats, ReleaserStats, VmStats};
use vm::Pid;

use crate::engine::{ProcResult, RunResult};
use crate::request::{RunOutcome, RunRequest};

/// The journal format/version marker leading every record.
const MAGIC: &str = "hogtame-journal/v2";

// `BUILD_DIGEST`: the digest of this build's simulator sources, written
// by `build.rs`.
include!(concat!(env!("OUT_DIR"), "/build_digest.rs"));

/// The journal directory selected by `HOGTAME_JOURNAL`, if journaling is
/// enabled: `None` when unset/`0`/`off`/`no`; `results/.journal/` (under
/// [`crate::artifact::results_dir`]) for `1`/`on`/`yes`; the given path
/// otherwise.
pub fn dir_from_env() -> Option<PathBuf> {
    let v = std::env::var_os("HOGTAME_JOURNAL")?;
    let s = v.to_string_lossy();
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "no" => None,
        "1" | "on" | "yes" => Some(crate::artifact::results_dir().join(".journal")),
        _ => Some(PathBuf::from(v)),
    }
}

/// A directory of per-request completion records (see module docs).
#[derive(Clone, Debug)]
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) a journal at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn at(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Journal { dir })
    }

    /// The journal selected by the `HOGTAME_JOURNAL` environment variable,
    /// or `None` when journaling is disabled or the directory cannot be
    /// created (a warning is printed; the grid still runs, unjournaled).
    pub fn from_env() -> Option<Self> {
        let dir = dir_from_env()?;
        match Journal::at(&dir) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("warning: cannot open journal {}: {e}", dir.display());
                None
            }
        }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn record_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.run"))
    }

    /// Loads the journaled outcome of `request`, verifying the record's
    /// build digest, fingerprint and payload length. Any missing,
    /// truncated, corrupted, or mismatched record is a silent miss
    /// (`None`) — the caller re-runs the request.
    pub fn load(&self, request: &RunRequest) -> Option<RunOutcome> {
        let fp = request.fingerprint();
        let raw = fs::read_to_string(self.record_path(fp)).ok()?;
        let (header, payload) = raw.split_once('\n')?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some(MAGIC) {
            return None;
        }
        if u64::from_str_radix(fields.next()?, 16).ok()? != BUILD_DIGEST {
            return None;
        }
        let stored_fp = u64::from_str_radix(fields.next()?, 16).ok()?;
        let stored_len: usize = fields.next()?.parse().ok()?;
        if fields.next().is_some() || stored_fp != fp || stored_len != payload.len() {
            return None;
        }
        decode(payload)
    }

    /// Journals a completed outcome under `request`'s fingerprint,
    /// atomically (scratch file + rename, safe against a kill at any
    /// point). Returns `false` — without writing — when the pair is not
    /// journalable: an observational request ([`RunRequest::journalable`])
    /// or a run whose fault log is non-empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller treats them as warnings
    /// (the grid's results are unaffected).
    pub fn store(&self, request: &RunRequest, outcome: &RunOutcome) -> io::Result<bool> {
        if !request.journalable() {
            return Ok(false);
        }
        let Some(payload) = encode(outcome) else {
            return Ok(false);
        };
        let fp = request.fingerprint();
        let record = format!(
            "{MAGIC} {BUILD_DIGEST:016x} {fp:016x} {}\n{payload}",
            payload.len()
        );
        let scratch = self
            .dir
            .join(format!(".tmp-{fp:016x}-{}", std::process::id()));
        fs::write(&scratch, record)?;
        match fs::rename(&scratch, self.record_path(fp)) {
            Ok(()) => Ok(true),
            Err(e) => {
                let _ = fs::remove_file(&scratch);
                Err(e)
            }
        }
    }

    /// The number of records currently journaled.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "run"))
                .count()
        })
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn push_nums(out: &mut String, key: &str, vals: &[u64]) {
    out.push_str(key);
    for v in vals {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

/// Encodes a completed outcome to the journal payload, or `None` when the
/// outcome carries state the codec does not model (a timeline or a
/// non-empty fault log).
fn encode(outcome: &RunOutcome) -> Option<String> {
    let run = &outcome.run;
    if run.timeline.is_some() || run.fault_log.total() != 0 || !run.fault_log.events().is_empty() {
        return None;
    }
    let mut out = String::new();
    push_nums(
        &mut out,
        "run",
        &[
            run.swap_reads,
            run.swap_writes,
            run.final_free,
            run.end_time.as_nanos(),
        ],
    );
    let role = |p: &Option<ProcResult>| match p {
        Some(p) => u64::from(p.pid.0).to_string(),
        None => String::from("-"),
    };
    out.push_str(&format!(
        "hog {}\ninteractive {}\n",
        role(&outcome.hog),
        role(&outcome.interactive)
    ));
    let vs = &run.vm_stats;
    push_nums(&mut out, "pagingd", &vs.pagingd.values());
    push_nums(&mut out, "releaser", &vs.releaser.values());
    push_nums(&mut out, "freed", &vs.freed.values());
    push_nums(&mut out, "vmprocs", &[vs.procs.len() as u64]);
    for p in &vs.procs {
        push_nums(&mut out, "vmproc", &p.values());
    }
    push_nums(&mut out, "procs", &[run.procs.len() as u64]);
    for p in &run.procs {
        push_nums(
            &mut out,
            "proc",
            &[u64::from(p.pid.0), p.finish_time.as_nanos(), p.ops_executed],
        );
        out.push_str("name ");
        out.push_str(&p.name);
        out.push('\n');
        let bd: Vec<u64> = TimeCategory::ALL
            .iter()
            .map(|&c| p.breakdown.get(c).as_nanos())
            .collect();
        push_nums(&mut out, "breakdown", &bd);
        let mut sweeps = vec![p.sweeps.len() as u64];
        sweeps.extend(p.sweeps.iter().map(|d| d.as_nanos()));
        push_nums(&mut out, "sweeps", &sweeps);
        let mut faults = vec![p.sweep_faults.len() as u64];
        faults.extend(p.sweep_faults.iter().copied());
        push_nums(&mut out, "sweep_faults", &faults);
        push_nums(&mut out, "lock", &p.lock_stats.values());
        match &p.rt_stats {
            None => push_nums(&mut out, "rt", &[0]),
            Some(s) => push_nums(&mut out, "rt", &[&[1], &s.values()[..]].concat()),
        }
    }
    Some(out)
}

/// A strict line cursor over the payload.
struct Lines<'a> {
    rest: &'a str,
}

impl<'a> Lines<'a> {
    /// The next line's fields after verifying its `key`, as numbers.
    fn nums(&mut self, key: &str) -> Option<Vec<u64>> {
        let line = self.line()?;
        let body = line.strip_prefix(key)?.strip_prefix(' ').or_else(|| {
            // A keyword line with zero values has no trailing space.
            line.strip_prefix(key).filter(|b| b.is_empty())
        })?;
        body.split_whitespace()
            .map(|t| t.parse::<u64>().ok())
            .collect()
    }

    /// The next line's remainder after verifying its `key` (raw text).
    fn text(&mut self, key: &str) -> Option<&'a str> {
        self.line()?.strip_prefix(key)?.strip_prefix(' ')
    }

    /// The next line's single value after verifying its `key`.
    fn count(&mut self, key: &str) -> Option<u64> {
        match self.nums(key)?[..] {
            [n] => Some(n),
            _ => None,
        }
    }

    fn line(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        match self.rest.split_once('\n') {
            Some((line, rest)) => {
                self.rest = rest;
                Some(line)
            }
            None => {
                let line = self.rest;
                self.rest = "";
                Some(line)
            }
        }
    }
}

fn decode(payload: &str) -> Option<RunOutcome> {
    let mut lines = Lines { rest: payload };
    let run_fields = lines.nums("run")?;
    let [swap_reads, swap_writes, final_free, end_nanos] = run_fields[..] else {
        return None;
    };
    let hog_pid = decode_role(lines.text("hog")?)?;
    let int_pid = decode_role(lines.text("interactive")?)?;
    // The counts below come off disk, so nothing is sized from them: a
    // corrupt count runs out of lines and misses.
    let vm_stats = VmStats {
        pagingd: PagingdStats::from_values(&lines.nums("pagingd")?)?,
        releaser: ReleaserStats::from_values(&lines.nums("releaser")?)?,
        freed: FreedPageStats::from_values(&lines.nums("freed")?)?,
        procs: (0..lines.count("vmprocs")?)
            .map(|_| ProcStats::from_values(&lines.nums("vmproc")?))
            .collect::<Option<_>>()?,
    };
    let procs: Vec<ProcResult> = (0..lines.count("procs")?)
        .map(|_| decode_proc(&mut lines))
        .collect::<Option<_>>()?;
    if !lines.rest.is_empty() {
        return None;
    }

    let by_pid = |pid: Option<u64>| -> Option<Option<ProcResult>> {
        match pid {
            None => Some(None),
            Some(raw) => procs
                .iter()
                .find(|p| u64::from(p.pid.0) == raw)
                .cloned()
                .map(Some),
        }
    };
    let hog = by_pid(hog_pid)?;
    let interactive = by_pid(int_pid)?;
    Some(RunOutcome {
        hog,
        interactive,
        run: RunResult {
            procs,
            vm_stats,
            swap_reads,
            swap_writes,
            final_free,
            end_time: SimTime::from_nanos(end_nanos),
            timeline: None,
            // Only fault-free runs are journaled.
            fault_log: FaultLog::default(),
            // Observability payloads are never journaled: observational
            // requests are not journalable at all, and the scalar metrics
            // of a plain run are cheap to regenerate by re-running.
            events: sim_core::obs::EventStream::new(),
            metrics: sim_core::obs::MetricsRegistry::new(),
            fleet: None,
            spans: None,
        },
    })
}

/// One `proc` block of the payload.
fn decode_proc(lines: &mut Lines<'_>) -> Option<ProcResult> {
    let [pid, finish, ops] = lines.nums("proc")?[..] else {
        return None;
    };
    let name = lines.text("name")?.to_string();
    let bd = lines.nums("breakdown")?;
    if bd.len() != TimeCategory::ALL.len() {
        return None;
    }
    let mut breakdown = TimeBreakdown::new();
    for (&cat, &nanos) in TimeCategory::ALL.iter().zip(&bd) {
        breakdown.add(cat, SimDuration::from_nanos(nanos));
    }
    let sweeps = decode_list(&lines.nums("sweeps")?)?
        .iter()
        .map(|&n| SimDuration::from_nanos(n))
        .collect();
    let sweep_faults = decode_list(&lines.nums("sweep_faults")?)?.to_vec();
    let lock_stats = LockStats::from_values(&lines.nums("lock")?)?;
    let rt_stats = match lines.nums("rt")?.split_first()? {
        (0, []) => None,
        (1, fields) => Some(RtStats::from_values(fields)?),
        _ => return None,
    };
    Some(ProcResult {
        name,
        pid: Pid(u32::try_from(pid).ok()?),
        breakdown,
        sweeps,
        sweep_faults,
        finish_time: SimTime::from_nanos(finish),
        rt_stats,
        // Requests with health monitoring or admission control are not
        // journalable, so these are absent from every record.
        health_stats: None,
        admission_stats: None,
        lock_stats,
        ops_executed: ops,
        // Fleet runs are never journalable, so replayed processes carry no
        // tenant tag and were never shed.
        tenant: None,
        shed: false,
        oom_killed: false,
    })
}

/// `"-"` → no process; a decimal pid otherwise.
fn decode_role(body: &str) -> Option<Option<u64>> {
    if body == "-" {
        Some(None)
    } else {
        body.parse::<u64>().ok().map(Some)
    }
}

/// A `<count> <v>*` list, validating the count.
fn decode_list(v: &[u64]) -> Option<&[u64]> {
    let (&n, rest) = v.split_first()?;
    (rest.len() as u64 == n).then_some(rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::scenario::Version;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hogtame-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn request() -> RunRequest {
        RunRequest::on(MachineConfig::small())
            .bench("MATVEC", Version::Release)
            .interactive(SimDuration::from_secs(1), None)
    }

    /// Everything a replay reproduces, rendered for exact comparison.
    fn replayable(o: &RunOutcome) -> String {
        let r = &o.run;
        format!(
            "{:?} {:?} {:?} {:?} {} {} {} {} {:?} {:?} {:?}",
            o.hog,
            o.interactive,
            r.procs,
            r.vm_stats,
            r.swap_reads,
            r.swap_writes,
            r.final_free,
            r.end_time,
            r.timeline,
            r.fault_log,
            r.fleet,
        )
    }

    #[test]
    fn outcome_round_trips_through_the_journal() {
        let dir = scratch("roundtrip");
        let journal = Journal::at(&dir).unwrap();
        assert!(journal.is_empty());
        for bench in ["MATVEC", "MGRID"] {
            let req = RunRequest::on(MachineConfig::small())
                .bench(bench, Version::Release)
                .interactive(SimDuration::from_secs(1), None);
            let out = req.run().unwrap();
            assert!(journal.store(&req, &out).unwrap(), "{bench}");
            let replayed = journal.load(&req).expect("record exists");
            assert_eq!(replayable(&out), replayable(&replayed), "{bench}");
        }
        assert_eq!(journal.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The payload bytes of the round-trip requests, pinned by length and
    /// FNV-1a digest: a codec change that reorders, adds or drops a value
    /// moves them.
    #[test]
    fn record_payload_bytes_are_pinned() {
        for (bench, len, digest) in [
            ("MATVEC", 1308, 0xee08_cd56_dce3_c137_u64),
            ("MGRID", 1185, 0x4b8e_4903_4bde_ab82),
        ] {
            let out = RunRequest::on(MachineConfig::small())
                .bench(bench, Version::Release)
                .interactive(SimDuration::from_secs(1), None)
                .run()
                .unwrap();
            let payload = encode(&out).expect("journalable outcome");
            let mut h = sim_core::fingerprint::Fnv1a::new();
            h.write_str(&payload);
            assert_eq!(
                (payload.len(), h.finish()),
                (len, digest),
                "{bench}: {:016x}",
                h.finish()
            );
        }
    }

    #[test]
    fn corrupt_or_mismatched_records_are_silent_misses() {
        let dir = scratch("corrupt");
        let journal = Journal::at(&dir).unwrap();
        let req = request();
        let out = req.run().unwrap();
        journal.store(&req, &out).unwrap();
        let path = dir.join(format!("{:016x}.run", req.fingerprint()));

        // Truncation: the header length no longer matches.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(journal.load(&req).is_none(), "truncated record must miss");

        // Fingerprint mismatch: a record stored under the wrong name.
        let other = request().reseed(1);
        fs::write(dir.join(format!("{:016x}.run", other.fingerprint())), &full).unwrap();
        assert!(
            journal.load(&other).is_none(),
            "wrong-request record must miss"
        );

        // Another build's record: the build digest in the header differs.
        let (header, payload) = full.split_once('\n').unwrap();
        let other_build = format!("{MAGIC} {:016x}", BUILD_DIGEST ^ 1);
        let header = header.replacen(&format!("{MAGIC} {BUILD_DIGEST:016x}"), &other_build, 1);
        fs::write(&path, format!("{header}\n{payload}")).unwrap();
        assert!(
            journal.load(&req).is_none(),
            "another build's record must miss"
        );

        // Payloads behind a header that matches them. The unedited payload
        // loads, so each miss below is the edit's doing.
        let rewrite = |payload: &str| {
            let fp = req.fingerprint();
            let header = format!("{MAGIC} {BUILD_DIGEST:016x} {fp:016x} {}", payload.len());
            fs::write(&path, format!("{header}\n{payload}")).unwrap();
            journal.load(&req)
        };
        assert!(rewrite(payload).is_some(), "an intact record loads");
        // The longest `key` line, edited by `f`.
        let edit = |key: &str, f: fn(&str) -> String| {
            let line = payload
                .lines()
                .filter(|l| l.split(' ').next() == Some(key))
                .max_by_key(|l| l.len())
                .unwrap();
            payload.replacen(&format!("\n{line}\n"), &format!("\n{}\n", f(line)), 1)
        };
        // A stats line one value long or short.
        for key in ["pagingd", "vmproc", "lock", "rt"] {
            let long = edit(key, |l| format!("{l} 7"));
            assert!(rewrite(&long).is_none(), "{key} with a value too many");
            let short = edit(key, |l| l.rsplit_once(' ').unwrap().0.to_string());
            assert!(rewrite(&short).is_none(), "{key} with a value too few");
        }
        // A process count far beyond the payload: nothing is sized from
        // it, so it misses instead of aborting on allocation.
        let huge = edit("vmprocs", |_| "vmprocs 1000000000000".to_string());
        assert!(rewrite(&huge).is_none(), "huge vmprocs count must miss");

        // Garbage body with a consistent-looking header.
        assert!(rewrite("garbage").is_none(), "garbage payload must miss");

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn observational_and_faulted_runs_are_not_journaled() {
        let dir = scratch("nonjournalable");
        let journal = Journal::at(&dir).unwrap();

        let observed = request().observe();
        let out = observed.run().unwrap();
        assert!(!journal.store(&observed, &out).unwrap());

        let timed = request().timeline(SimDuration::from_millis(100));
        let out = timed.run().unwrap();
        assert!(!journal.store(&timed, &out).unwrap());

        // A faulted run is journalable by request shape but its fault log
        // is non-empty, which the codec refuses.
        let faulted = request().fault_plan(sim_core::fault::FaultPlan {
            seed: 3,
            hints: sim_core::fault::HintFaults::poisoned(0.5),
            ..sim_core::fault::FaultPlan::default()
        });
        let out = faulted.run().unwrap();
        assert!(out.run.fault_log.total() > 0, "the plan injected faults");
        assert!(!journal.store(&faulted, &out).unwrap());

        assert!(journal.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
