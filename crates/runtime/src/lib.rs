//! The run-time layer.
//!
//! The paper's run-time layer sits between the compiler-inserted paging
//! hints and the OS, because compile-time decisions can be wrong in two
//! directions: loops may be smaller than assumed (hints redundant) and
//! memory availability fluctuates (release timing must adapt). This crate
//! provides:
//!
//! * [`ops`] — the operation stream abstraction ([`ops::Op`],
//!   [`ops::OpStream`]) connecting programs to the simulation engine.
//! * [`exec`] — the executor that interprets a compiled
//!   [`compiler::AnnotatedProgram`] against run-time [`bindings`] (actual
//!   array placements, actual loop bounds, indirection data), emitting
//!   touches and hints page by page.
//! * [`handoff`] — the producer thread that runs an executor beside the
//!   engine and hands its ops over in recycled chunks.
//! * [`filter`] — the "simple checks": the shared-page bitmap check and the
//!   per-tag *one-behind* filter ("the releases issued by the run-time
//!   layer are thus always one or more iterations behind those identified
//!   by the compiler").
//! * [`policy`] — the two release policies the paper compares: **aggressive**
//!   (issue each release as encountered) and **buffered** (hold releases in
//!   per-tag queues indexed by a priority list; when usage nears the
//!   OS-provided upper limit, issue ~100 pages from the lowest-priority
//!   queues round-robin).
//! * [`prefetcher`] — the pthread-pool model used to issue prefetches
//!   asynchronously.
//! * [`admission`] — untrusted-hint admission control: per-tenant token
//!   buckets and a trust score with hysteresis; low-trust tenants get
//!   prefetches demoted to advisory and releases verified before credit.
//! * [`layer`] — the per-process facade gluing the above together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bindings;
pub mod brownout;
pub mod exec;
pub mod filter;
pub mod handoff;
pub mod health;
pub mod layer;
pub mod ops;
mod pages;
pub mod policy;
pub mod prefetcher;
pub mod supervisor;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, AdmissionVerdict};
pub use bindings::{ArrayBinding, Bindings, IndirectGen, TripSpec};
pub use brownout::{BrownoutConfig, BrownoutController};
pub use exec::Executor;
pub use handoff::Pipelined;
pub use health::{HealthConfig, HealthStats, HintHealth};
pub use layer::{RtConfig, RtStats, RuntimeLayer};
pub use ops::{Mark, Op, OpStream};
pub use policy::ReleasePolicy;
pub use supervisor::{Detection, RestartOutcome, Supervisor};
