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
//! The journal is the only on-disk store of run results. The fingerprint
//! covers the request, not the simulator build, so a journal may only
//! resume the build that wrote it: after a code change, clear it.
//!
//! # Record format
//!
//! One file per request, `<fingerprint:016x>.run`:
//!
//! ```text
//! hogtame-journal/v1 <fingerprint:016x> <payload-bytes>
//! <payload>
//! ```
//!
//! The payload is a line-oriented encoding of the full [`RunOutcome`]
//! (per-process breakdowns, sweeps, VM/lock/run-time statistics). The
//! header's fingerprint and payload length are verified on read; any
//! mismatch — truncation, corruption, a stale record for a different
//! request — is treated as a missing record and the run is simply redone.
//!
//! Only *journalable* requests are recorded ([`RunRequest::journalable`]:
//! no timeline, no event stream) and only when the run injected no faults
//! (a non-empty fault log carries event payloads the codec does not
//! model). Everything else re-runs on resume; correctness never depends
//! on a record being present.
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

use sim_core::fault::FaultLog;
use sim_core::stats::{Counter, TimeBreakdown, TimeCategory};
use sim_core::{SimDuration, SimTime};
use vm::lock::LockStats;
use vm::stats::{FreedPageStats, PagingdStats, ProcStats, ReleaserStats, VmStats};
use vm::Pid;

use crate::engine::{ProcResult, RunResult};
use crate::request::{RunOutcome, RunRequest};

/// The journal format/version marker leading every record.
const MAGIC: &str = "hogtame-journal/v1";

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
    /// fingerprint and payload length. Any missing, truncated, corrupted,
    /// or mismatched record is a silent miss (`None`) — the caller re-runs
    /// the request.
    pub fn load(&self, request: &RunRequest) -> Option<RunOutcome> {
        let fp = request.fingerprint();
        let raw = fs::read_to_string(self.record_path(fp)).ok()?;
        let (header, payload) = raw.split_once('\n')?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some(MAGIC) {
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
        let record = format!("{MAGIC} {fp:016x} {}\n{payload}", payload.len());
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

/// The run-time-layer counters in canonical journal order. Construction
/// by exhaustive struct literal on decode keeps this list honest: a new
/// `RtStats` field fails compilation here until the codec carries it.
fn rt_stats_fields(s: &runtime::RtStats) -> [u64; 19] {
    [
        s.prefetch_hints,
        s.prefetch_filtered,
        s.prefetch_issued,
        s.release_hints,
        s.release_same_page,
        s.release_filtered_bitmap,
        s.release_issued_direct,
        s.release_buffered,
        s.release_drained,
        s.hints_dropped,
        s.hints_delayed,
        s.hints_duplicated,
        s.hints_mistagged,
        s.stale_reads,
        s.hints_suppressed,
        s.misfires_cancelled,
        s.misfires_rescued,
        s.misfires_useless_prefetch,
        s.tags_retired,
    ]
}

fn rt_stats_from(v: &[u64]) -> Option<runtime::RtStats> {
    if v.len() != 19 {
        return None;
    }
    Some(runtime::RtStats {
        prefetch_hints: v[0],
        prefetch_filtered: v[1],
        prefetch_issued: v[2],
        release_hints: v[3],
        release_same_page: v[4],
        release_filtered_bitmap: v[5],
        release_issued_direct: v[6],
        release_buffered: v[7],
        release_drained: v[8],
        hints_dropped: v[9],
        hints_delayed: v[10],
        hints_duplicated: v[11],
        hints_mistagged: v[12],
        stale_reads: v[13],
        hints_suppressed: v[14],
        misfires_cancelled: v[15],
        misfires_rescued: v[16],
        misfires_useless_prefetch: v[17],
        tags_retired: v[18],
        // Admission counters are not round-tripped: journalled runs never
        // enable admission control (observational fields stay default).
        ..Default::default()
    })
}

fn counter(v: u64) -> Counter {
    let mut c = Counter::new();
    c.add(v);
    c
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
            run.fault_log.cap() as u64,
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
    push_nums(
        &mut out,
        "pagingd",
        &[
            vs.pagingd.activations.get(),
            vs.pagingd.frames_scanned.get(),
            vs.pagingd.invalidations.get(),
            vs.pagingd.pages_stolen.get(),
            vs.pagingd.writebacks.get(),
            vs.pagingd.reactive_steals.get(),
            vs.pagingd.busy.as_nanos(),
        ],
    );
    push_nums(
        &mut out,
        "releaser",
        &[
            vs.releaser.activations.get(),
            vs.releaser.requests.get(),
            vs.releaser.pages_released.get(),
            vs.releaser.skipped_reref.get(),
            vs.releaser.skipped_nonresident.get(),
            vs.releaser.writebacks.get(),
            vs.releaser.busy.as_nanos(),
        ],
    );
    push_nums(
        &mut out,
        "freed",
        &[
            vs.freed.freed_by_daemon.get(),
            vs.freed.freed_by_release.get(),
            vs.freed.rescued_daemon.get(),
            vs.freed.rescued_release.get(),
        ],
    );
    push_nums(&mut out, "vmprocs", &[vs.procs.len() as u64]);
    for p in &vs.procs {
        push_nums(
            &mut out,
            "vmproc",
            &[
                p.soft_faults_daemon.get(),
                p.soft_faults_release.get(),
                p.prefetch_validates.get(),
                p.hard_faults.get(),
                p.zero_fills.get(),
                p.rescues.get(),
                p.pages_stolen.get(),
                p.pages_released.get(),
                p.prefetch_requests.get(),
                p.prefetch_discarded.get(),
                p.prefetch_redundant.get(),
                p.tlb_misses.get(),
                p.allocations.get(),
                p.peak_rss,
            ],
        );
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
        push_nums(
            &mut out,
            "lock",
            &[
                p.lock_stats.acquisitions.get(),
                p.lock_stats.contended.get(),
                p.lock_stats.total_wait.as_nanos(),
                p.lock_stats.total_hold.as_nanos(),
            ],
        );
        match &p.rt_stats {
            None => push_nums(&mut out, "rt", &[0]),
            Some(s) => {
                let mut vals = vec![1u64];
                vals.extend(rt_stats_fields(s));
                push_nums(&mut out, "rt", &vals);
            }
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
    let [swap_reads, swap_writes, final_free, end_nanos, cap] = run_fields[..] else {
        return None;
    };
    let hog_pid = decode_role(lines.text("hog")?)?;
    let int_pid = decode_role(lines.text("interactive")?)?;

    let pd = lines.nums("pagingd")?;
    let [pa, pfs, pinv, pst, pwb, pre, pbusy] = pd[..] else {
        return None;
    };
    let rl = lines.nums("releaser")?;
    let [ra, rreq, rrel, rsr, rsn, rwb, rbusy] = rl[..] else {
        return None;
    };
    let fr = lines.nums("freed")?;
    let [fd, frl, rd, rr] = fr[..] else {
        return None;
    };
    let vm_stats = VmStats {
        pagingd: PagingdStats {
            activations: counter(pa),
            frames_scanned: counter(pfs),
            invalidations: counter(pinv),
            pages_stolen: counter(pst),
            writebacks: counter(pwb),
            reactive_steals: counter(pre),
            busy: SimDuration::from_nanos(pbusy),
            ..Default::default()
        },
        releaser: ReleaserStats {
            activations: counter(ra),
            requests: counter(rreq),
            pages_released: counter(rrel),
            skipped_reref: counter(rsr),
            skipped_nonresident: counter(rsn),
            writebacks: counter(rwb),
            busy: SimDuration::from_nanos(rbusy),
        },
        freed: FreedPageStats {
            freed_by_daemon: counter(fd),
            freed_by_release: counter(frl),
            rescued_daemon: counter(rd),
            rescued_release: counter(rr),
        },
        procs: {
            let [n] = lines.nums("vmprocs")?[..] else {
                return None;
            };
            let mut procs = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let v = lines.nums("vmproc")?;
                let [sfd, sfr, pv, hf, zf, resc, ps, prel, pfq, pfd, pfr, tlb, alloc, peak] = v[..]
                else {
                    return None;
                };
                procs.push(ProcStats {
                    soft_faults_daemon: counter(sfd),
                    soft_faults_release: counter(sfr),
                    prefetch_validates: counter(pv),
                    hard_faults: counter(hf),
                    zero_fills: counter(zf),
                    rescues: counter(resc),
                    pages_stolen: counter(ps),
                    pages_released: counter(prel),
                    prefetch_requests: counter(pfq),
                    prefetch_discarded: counter(pfd),
                    prefetch_redundant: counter(pfr),
                    // Quota denials are only possible in tenant-quota
                    // runs, which are never journalable.
                    prefetch_quota_denied: counter(0),
                    tlb_misses: counter(tlb),
                    allocations: counter(alloc),
                    peak_rss: peak,
                });
            }
            procs
        },
    };

    let [nprocs] = lines.nums("procs")?[..] else {
        return None;
    };
    let mut procs = Vec::with_capacity(nprocs as usize);
    for _ in 0..nprocs {
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
        let [acq, cont, wait, hold] = lines.nums("lock")?[..] else {
            return None;
        };
        let rt = lines.nums("rt")?;
        let rt_stats = match rt.split_first()? {
            (0, []) => None,
            (1, fields) => Some(rt_stats_from(fields)?),
            _ => return None,
        };
        procs.push(ProcResult {
            name,
            pid: Pid(u32::try_from(pid).ok()?),
            breakdown,
            sweeps,
            sweep_faults,
            finish_time: SimTime::from_nanos(finish),
            rt_stats,
            // Health/admission breakdowns are observational; journalled
            // runs never carry them.
            health_stats: None,
            admission_stats: None,
            lock_stats: LockStats {
                acquisitions: counter(acq),
                contended: counter(cont),
                total_wait: SimDuration::from_nanos(wait),
                total_hold: SimDuration::from_nanos(hold),
            },
            ops_executed: ops,
            // Fleet runs are never journalable, so replayed processes
            // carry no tenant tag and were never shed.
            tenant: None,
            shed: false,
            oom_killed: false,
        });
    }
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
            fault_log: FaultLog::from_parts(cap as usize, 0, std::iter::empty(), Vec::new()),
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

    /// The keys the suite tables read from an outcome; byte-identity of
    /// the CSVs follows from equality here.
    fn key(o: &RunOutcome) -> String {
        let proc_key = |p: &ProcResult| {
            format!(
                "{} pid={} fin={} ops={} bd={:?} sweeps={:?} faults={:?} lock=({},{},{},{}) rt={:?}",
                p.name,
                p.pid.0,
                p.finish_time.as_nanos(),
                p.ops_executed,
                TimeCategory::ALL
                    .iter()
                    .map(|&c| p.breakdown.get(c).as_nanos())
                    .collect::<Vec<_>>(),
                p.sweeps,
                p.sweep_faults,
                p.lock_stats.acquisitions.get(),
                p.lock_stats.contended.get(),
                p.lock_stats.total_wait.as_nanos(),
                p.lock_stats.total_hold.as_nanos(),
                p.rt_stats.map(|s| rt_stats_fields(&s)),
            )
        };
        format!(
            "run=({},{},{},{}) hog={:?} int={:?} procs={:?} pagingd=({},{},{}) rel={} freed=({},{},{},{}) vmprocs={:?}",
            o.run.swap_reads,
            o.run.swap_writes,
            o.run.final_free,
            o.run.end_time.as_nanos(),
            o.hog.as_ref().map(proc_key),
            o.interactive.as_ref().map(proc_key),
            o.run.procs.iter().map(proc_key).collect::<Vec<_>>(),
            o.run.vm_stats.pagingd.activations.get(),
            o.run.vm_stats.pagingd.pages_stolen.get(),
            o.run.vm_stats.pagingd.busy.as_nanos(),
            o.run.vm_stats.releaser.pages_released.get(),
            o.run.vm_stats.freed.freed_by_daemon.get(),
            o.run.vm_stats.freed.freed_by_release.get(),
            o.run.vm_stats.freed.rescued_daemon.get(),
            o.run.vm_stats.freed.rescued_release.get(),
            o.run
                .vm_stats
                .procs
                .iter()
                .map(|p| (p.hard_faults.get(), p.allocations.get(), p.peak_rss))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn outcome_round_trips_through_the_journal() {
        let dir = scratch("roundtrip");
        let journal = Journal::at(&dir).unwrap();
        let req = request();
        let out = req.run().unwrap();
        assert!(journal.is_empty());
        assert!(journal.store(&req, &out).unwrap());
        assert_eq!(journal.len(), 1);
        let replayed = journal.load(&req).expect("record exists");
        assert_eq!(key(&out), key(&replayed));
        assert_eq!(replayed.run.fault_log.total(), 0);
        let _ = fs::remove_dir_all(&dir);
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

        // Garbage body with a consistent-looking header.
        fs::write(
            &path,
            format!("{MAGIC} {:016x} 7\ngarbage", req.fingerprint()),
        )
        .unwrap();
        assert!(journal.load(&req).is_none(), "garbage payload must miss");

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
