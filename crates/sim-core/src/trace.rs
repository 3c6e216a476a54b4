//! Free-form kernel-trace records.
//!
//! A [`TraceRecord`] is one line of the human-readable kernel trace
//! (`hogtame run --trace`): daemon activations rendered as text. The
//! engine derives these records from the structured event stream
//! ([`crate::obs`]) after a run; nothing records them directly.

use crate::time::SimTime;

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the record was emitted.
    pub time: SimTime,
    /// Subsystem tag, e.g. `"vhand"`, `"releaser"`, `"fault"`.
    pub tag: &'static str,
    /// Free-form message.
    pub message: String,
}
