//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the *hogtame* reproduction of
//! "Taming the Memory Hogs" (Brown & Mowry, OSDI 2000). Everything in the
//! reproduced system — the virtual memory subsystem, the disk array, the
//! paging and releaser daemons, the simulated processes — runs on top of the
//! primitives defined here:
//!
//! * [`time`] — virtual time ([`SimTime`]) measured in nanoseconds.
//! * [`event`] — a deterministic event queue with FIFO tie-breaking.
//! * [`hash`] — hash maps and sets with fixed keys, so memory use is as
//!   reproducible as results.
//! * [`rng`] — small, seedable, reproducible PRNGs ([`rng::Pcg32`],
//!   [`rng::SplitMix64`]).
//! * [`stats`] — counters, histograms and per-process time breakdowns used to
//!   regenerate the paper's tables and figures.
//! * [`obs`] — structured observability: typed sim-time-stamped events, a
//!   bounded flight recorder, the merged per-run event stream with JSONL /
//!   Chrome-trace / Prometheus exporters, and the metrics registry.
//! * [`sanitizer`] / [`oracle`] — checked mode: typed invariant
//!   violations raised by in-sim probes, the mutation self-test matrix,
//!   and the naive lockstep reference model the live state is diffed
//!   against.
//!
//! The engine is intentionally *not* multi-threaded: determinism (same seed →
//! same result, bit for bit) is a core requirement so that every figure in
//! EXPERIMENTS.md can be regenerated exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod event;
pub mod fault;
pub mod fingerprint;
pub mod hash;
pub mod obs;
pub mod oracle;
pub mod pressure;
pub mod rng;
pub mod sanitizer;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue, ScheduledEvent};
pub use pressure::PressureLevel;
pub use time::{SimDuration, SimTime};
