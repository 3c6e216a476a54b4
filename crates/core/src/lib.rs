//! # hogtame — Taming the Memory Hogs, in Rust
//!
//! A full reproduction of *"Taming the Memory Hogs: Using
//! Compiler-Inserted Releases to Manage Physical Memory Intelligently"*
//! (Angela Demke Brown and Todd C. Mowry, OSDI 2000) as a deterministic
//! discrete-event simulation.
//!
//! The underlying crates implement the system itself:
//!
//! * [`vm`] — the IRIX-like VM subsystem (global clock replacement with
//!   software reference-bit sampling, free list with rescue, the
//!   PagingDirected policy module, the releaser daemon).
//! * [`compiler`] — the SUIF-style analysis pass (reuse, group locality,
//!   locality volumes, software-pipelined prefetch scheduling, Eq. 2
//!   release priorities).
//! * [`runtime`] — the run-time layer (executor, hint filters, aggressive
//!   vs buffered release policies, prefetch thread pool).
//! * [`workloads`] — MATVEC and the five NAS out-of-core benchmarks, plus
//!   the interactive task.
//!
//! This crate is the top: the [`engine`] drives processes, daemons, disks
//! and locks on one virtual clock; [`request`] describes the paper's
//! experiments (a benchmark in one of the four build versions O/P/R/B,
//! optionally sharing the machine with the interactive task); [`exec`]
//! drains request grids with a deterministic parallel worker pool; and
//! [`experiments`] regenerates every table and figure of the paper,
//! persisting results through the [`artifact`] sink.
//!
//! # Quickstart
//!
//! ```
//! use hogtame::prelude::*;
//!
//! // Run a small MATVEC (R = prefetch + aggressive release) against the
//! // interactive task, on a scaled-down machine so the doctest is fast.
//! let outcome = RunRequest::on(MachineConfig::small())
//!     .bench("MATVEC", Version::Release)
//!     .interactive(SimDuration::from_secs(5), None)
//!     .run()
//!     .expect("MATVEC is registered");
//! let hog = outcome.hog.as_ref().unwrap();
//! assert!(hog.finish_time > SimTime::ZERO);
//! ```
//!
//! Whole grids of runs execute in parallel — and bit-identically to any
//! serial order — through [`exec::run_all`]; see `tests/parallel_exec.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
pub mod exec;
pub mod experiments;
pub mod fuzzing;
pub mod journal;
pub mod machine;
pub mod obs_report;
pub mod report;
pub mod request;
pub mod scenario;
pub mod timeline;

pub use artifact::{results_dir, Artifact};
pub use engine::{Engine, FleetStats, ProcResult, RunResult, ShedRecord, TenantTail};
pub use journal::Journal;
pub use machine::MachineConfig;
pub use request::{RunError, RunOutcome, RunRequest};
pub use scenario::Version;

/// Convenient re-exports for examples and binaries.
pub mod prelude {
    pub use crate::artifact::{results_dir, Artifact};
    pub use crate::engine::{Engine, FleetStats, ProcResult, RunResult, ShedRecord, TenantTail};
    pub use crate::exec;
    pub use crate::experiments::suite::{Suite, SuiteError, SUITE_TABLES};
    pub use crate::journal::Journal;
    pub use crate::machine::MachineConfig;
    pub use crate::obs_report::{
        blame_table, exemplar_timeline, fleet_summary, fleet_table, outcome_table, span_summary,
        stream_summary,
    };
    pub use crate::report::TextTable;
    pub use crate::request::{RunError, RunOutcome, RunRequest};
    pub use crate::scenario::Version;
    pub use runtime::{AdmissionConfig, AdmissionStats, BrownoutConfig, HealthConfig};
    pub use sim_core::fault::{
        AdversaryPlan, AdversaryStrategy, CrashComponent, CrashFaults, CrashSpec, DaemonFaults,
        ExecFaults, FaultKind, FaultLog, FaultPlan, HintFaults, IoFaults, SupervisorConfig,
    };
    pub use sim_core::obs::span::{
        BlameKey, Exemplar, Interval, ReqId, RequestSummary, SpanKind, SpanReport, SpanState,
    };
    pub use sim_core::obs::{Event, EventKind, EventStream, MetricsRegistry, OutcomeRow, Recorder};
    pub use sim_core::oracle::Oracle;
    pub use sim_core::sanitizer::{InvariantViolation, Mutation, MutationTarget};
    pub use sim_core::stats::{jain, TailDigest, TimeBreakdown, TimeCategory};
    pub use sim_core::{PressureLevel, SimDuration, SimTime};
    pub use vm::TenantQuota;
    pub use workloads;
    pub use workloads::{ArrivalProcess, FleetSpec, SurgeSpec, ZipfTenants};
}
