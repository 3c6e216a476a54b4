//! The deterministic parallel experiment executor.
//!
//! Every figure and table in the paper is an embarrassingly parallel grid
//! of independent simulated runs. This module drains a queue of
//! fully-specified [`RunRequest`]s with a pool of worker threads —
//! std-only, no dependencies — and returns the results **by request
//! index, never by completion order**.
//!
//! # Determinism
//!
//! Each request carries everything its run reads (machine, workload,
//! seeds, fault plan), and each execution builds a private engine, so a
//! run's result is a pure function of its descriptor: scheduling cannot
//! leak between runs. Parallel output is therefore bit-identical to the
//! serial order — `tests/parallel_exec.rs` asserts the full suite renders
//! byte-identical CSV at 1 worker and at N workers.
//!
//! # Crash tolerance
//!
//! Two failure domains are contained here rather than taking the grid
//! down:
//!
//! * **Worker panics.** Each run executes under [`std::panic::catch_unwind`];
//!   a panicking engine surfaces as [`RunError::Crashed`] in that
//!   request's result slot while every other slot completes normally.
//!   Requests whose fault plan arms [`ExecFaults`] deterministically
//!   inject panics (for testing the containment) and get the plan's
//!   bounded retry budget before the error is surfaced.
//! * **Process death.** With a [`Journal`] attached, each successful
//!   completion is recorded (atomically, keyed by request fingerprint)
//!   before the worker moves on; a re-executed grid replays journaled
//!   outcomes and re-simulates only the missing ones, producing
//!   bit-identical index-ordered output. [`run_all`] and [`run_all_with`]
//!   attach the journal selected by `HOGTAME_JOURNAL`
//!   ([`Journal::from_env`]); [`run_all_journaled`] takes one explicitly.
//!
//! # Worker count
//!
//! [`jobs`] resolves the pool size: the `HOGTAME_JOBS` environment
//! variable when set (minimum 1), otherwise
//! [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[cfg(doc)]
use sim_core::fault::ExecFaults;

use crate::journal::Journal;
use crate::request::{RunError, RunOutcome, RunRequest};

/// Resolves the worker-pool size from the environment: `HOGTAME_JOBS` if
/// set and parseable (clamped to ≥ 1), else the machine's available
/// parallelism, else 1.
pub fn jobs() -> usize {
    if let Some(v) = std::env::var_os("HOGTAME_JOBS") {
        if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The panic payload as text, for [`RunError::Crashed`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(v) = payload.downcast_ref::<sim_core::sanitizer::InvariantViolation>() {
        v.to_string()
    } else {
        String::from("non-string panic payload")
    }
}

/// Runs one request with panic containment and the plan's retry budget.
///
/// The request's [`ExecFaults`] may direct the first *k* attempts to
/// panic (deterministic fault injection at the executor layer); whether a
/// panic is injected or organic, the attempt is retried while the plan's
/// `max_retries` budget allows, and the final failure surfaces as
/// [`RunError::Crashed`] instead of unwinding into the pool.
fn run_one(request: &RunRequest) -> Result<RunOutcome, RunError> {
    let exec = request.plan().exec;
    let mut attempt: u32 = 0;
    loop {
        let inject = attempt < exec.transient_panics;
        let out = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected executor fault (attempt {attempt})");
            }
            request.run()
        }));
        match out {
            Ok(result) => return result,
            Err(payload) => {
                attempt += 1;
                if attempt <= exec.max_retries {
                    continue;
                }
                return Err(RunError::Crashed(panic_message(payload)));
            }
        }
    }
}

/// Executes every request on the default worker count ([`jobs`]), with
/// the journal (if any) selected by `HOGTAME_JOURNAL`. `results[i]` is
/// the outcome of `requests[i]`.
pub fn run_all(requests: Vec<RunRequest>) -> Vec<Result<RunOutcome, RunError>> {
    run_all_with(requests, jobs())
}

/// Executes every request on a pool of exactly `jobs` workers (1 = the
/// serial reference order), with the journal (if any) selected by
/// `HOGTAME_JOURNAL`. `results[i]` is the outcome of `requests[i]`,
/// regardless of which worker ran it or when it finished.
pub fn run_all_with(requests: Vec<RunRequest>, jobs: usize) -> Vec<Result<RunOutcome, RunError>> {
    run_all_journaled(requests, jobs, Journal::from_env().as_ref())
}

/// Claims index `i`: replay from the journal when a valid record exists,
/// else run (with containment) and journal the completion.
fn execute(request: &RunRequest, journal: Option<&Journal>) -> Result<RunOutcome, RunError> {
    if let Some(j) = journal {
        if let Some(replayed) = j.load(request) {
            return Ok(replayed);
        }
    }
    let out = run_one(request);
    if let (Some(j), Ok(outcome)) = (journal, &out) {
        if let Err(e) = j.store(request, outcome) {
            eprintln!(
                "warning: could not journal run {:016x}: {e}",
                request.fingerprint()
            );
        }
    }
    out
}

/// [`run_all_with`] against an explicit completion journal (`None` runs
/// unjournaled regardless of the environment). Journaled completions are
/// replayed instead of re-simulated; fresh completions are recorded.
pub fn run_all_journaled(
    requests: Vec<RunRequest>,
    jobs: usize,
    journal: Option<&Journal>,
) -> Vec<Result<RunOutcome, RunError>> {
    let n = requests.len();
    if jobs <= 1 || n <= 1 {
        return requests.iter().map(|r| execute(r, journal)).collect();
    }
    drain(requests, jobs, journal, usize::MAX).1
}

/// [`run_all_journaled`], except the pool stops claiming new requests
/// once `stop_after` runs have completed — simulating a process killed
/// mid-grid for resume tests (`tests/resume_exec.rs`) and the
/// `crash_matrix` verification binary. Returns how many requests
/// completed before the stop; their results live in the journal, ready
/// for a resumed [`run_all_journaled`] pass to replay.
pub fn run_all_until(
    requests: Vec<RunRequest>,
    jobs: usize,
    journal: &Journal,
    stop_after: usize,
) -> usize {
    drain(requests, jobs, Some(journal), stop_after).0
}

/// The shared pool: a cursor over take-once work slots, index-parked
/// results, and an optional completion budget after which workers stop
/// claiming (the "kill switch" for resume tests).
fn drain(
    requests: Vec<RunRequest>,
    jobs: usize,
    journal: Option<&Journal>,
    stop_after: usize,
) -> (usize, Vec<Result<RunOutcome, RunError>>) {
    let n = requests.len();
    let work: Vec<Mutex<Option<RunRequest>>> =
        requests.into_iter().map(|r| Mutex::new(Some(r))).collect();
    let results: Vec<Mutex<Option<Result<RunOutcome, RunError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n).max(1) {
            scope.spawn(|| loop {
                if done.load(Ordering::Relaxed) >= stop_after {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let req = work[i]
                    .lock()
                    .expect("request slot poisoned")
                    .take()
                    .expect("each index is claimed exactly once");
                let out = execute(&req, journal);
                *results[i].lock().expect("result slot poisoned") = Some(out);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    let claimed = done.load(Ordering::Relaxed);
    let outs = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| Err(RunError::Crashed(String::from("run never claimed"))))
        })
        .collect();
    (claimed, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::scenario::Version;
    use sim_core::fault::{ExecFaults, FaultPlan};
    use sim_core::SimDuration;

    /// A cheap grid with a distinguishable outcome per index.
    fn grid() -> Vec<RunRequest> {
        (1..=4u32)
            .map(|k| {
                RunRequest::on(MachineConfig::small())
                    .interactive(SimDuration::from_millis(50), Some(k))
            })
            .collect()
    }

    #[test]
    fn results_come_back_by_request_index() {
        for jobs in [1, 2, 8] {
            let outs = run_all_with(grid(), jobs);
            for (i, out) in outs.iter().enumerate() {
                let sweeps = out
                    .as_ref()
                    .unwrap()
                    .interactive
                    .as_ref()
                    .unwrap()
                    .sweeps
                    .len();
                assert_eq!(sweeps, i + 1, "slot {i} holds request {i} ({jobs} jobs)");
            }
        }
    }

    #[test]
    fn errors_stay_in_their_slot() {
        let mut reqs = grid();
        reqs.insert(
            1,
            RunRequest::on(MachineConfig::small()).bench("BOGUS", Version::Original),
        );
        let outs = run_all_with(reqs, 3);
        assert_eq!(
            outs[1].as_ref().unwrap_err(),
            &RunError::UnknownBenchmark("BOGUS".into())
        );
        assert!(outs[0].is_ok() && outs[2].is_ok());
    }

    #[test]
    fn empty_and_singleton_grids() {
        assert!(run_all_with(Vec::new(), 4).is_empty());
        let outs = run_all_with(grid()[..1].to_vec(), 4);
        assert_eq!(outs.len(), 1);
        assert!(outs[0].is_ok());
    }

    #[test]
    fn more_workers_than_work_is_fine() {
        let outs = run_all_with(grid(), 64);
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(Result::is_ok));
    }

    /// A worker panic is contained to its slot as `RunError::Crashed`; the
    /// rest of the grid completes untouched.
    #[test]
    fn a_panicking_run_crashes_only_its_own_slot() {
        let mut reqs = grid();
        // One injected panic, zero retries: the crash must surface.
        reqs.insert(
            2,
            RunRequest::on(MachineConfig::small())
                .interactive(SimDuration::from_millis(50), Some(1))
                .fault_plan(FaultPlan {
                    exec: ExecFaults {
                        transient_panics: 1,
                        max_retries: 0,
                    },
                    ..FaultPlan::default()
                }),
        );
        for jobs in [1, 3] {
            let outs = run_all_with(reqs.clone(), jobs);
            assert_eq!(outs.len(), 5);
            match &outs[2] {
                Err(RunError::Crashed(msg)) => {
                    assert!(msg.contains("injected executor fault"), "got: {msg}")
                }
                other => panic!("slot 2 must crash, got {other:?}"),
            }
            for (i, out) in outs.iter().enumerate() {
                if i != 2 {
                    assert!(out.is_ok(), "slot {i} must be unaffected");
                }
            }
        }
    }

    /// Transient panics inside the retry budget are invisible: the request
    /// succeeds, identically to a never-crashing run.
    #[test]
    fn transient_panics_are_retried_to_success() {
        let clean = RunRequest::on(MachineConfig::small())
            .bench("MATVEC", Version::Release)
            .interactive(SimDuration::from_secs(1), None);
        let flaky = clean.clone().fault_plan(FaultPlan {
            exec: ExecFaults::flaky(2),
            ..FaultPlan::default()
        });
        let a = clean.run().expect("clean run succeeds");
        let b = run_one(&flaky).expect("two panics, two retries: must succeed");
        assert_eq!(
            a.hog.as_ref().unwrap().finish_time,
            b.hog.as_ref().unwrap().finish_time,
            "retried run must be bit-identical to a clean one"
        );
        // One fewer retry than panics: the crash escapes.
        let doomed = clean.fault_plan(FaultPlan {
            exec: ExecFaults {
                transient_panics: 3,
                max_retries: 2,
            },
            ..FaultPlan::default()
        });
        assert!(matches!(run_one(&doomed), Err(RunError::Crashed(_))));
    }

    /// A journaled grid replays completions instead of re-running them,
    /// with identical index-ordered output.
    #[test]
    fn journaled_grids_replay_bit_identically() {
        let dir = std::env::temp_dir().join(format!("hogtame-exec-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::at(&dir).unwrap();

        let fresh = run_all_journaled(grid(), 2, Some(&journal));
        assert!(fresh.iter().all(Result::is_ok));
        assert_eq!(journal.len(), 4, "every completion is journaled");

        let replayed = run_all_journaled(grid(), 2, Some(&journal));
        for (a, b) in fresh.iter().zip(&replayed) {
            let key = |o: &Result<RunOutcome, RunError>| {
                let out = o.as_ref().unwrap();
                let int = out.interactive.as_ref().unwrap();
                (
                    int.sweeps.clone(),
                    int.finish_time,
                    out.run.end_time,
                    out.run.final_free,
                )
            };
            assert_eq!(key(a), key(b), "replay must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `run_all_until` stops claiming after the budget — the "killed
    /// mid-grid" simulation — and a resumed full run completes the rest.
    #[test]
    fn a_killed_grid_resumes_from_the_journal() {
        let dir = std::env::temp_dir().join(format!("hogtame-exec-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::at(&dir).unwrap();

        let claimed = run_all_until(grid(), 1, &journal, 2);
        assert_eq!(claimed, 2, "the pool must stop at the kill budget");
        assert_eq!(journal.len(), 2);

        let resumed = run_all_journaled(grid(), 2, Some(&journal));
        assert!(resumed.iter().all(Result::is_ok));
        assert_eq!(journal.len(), 4, "resume journals the missing runs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
