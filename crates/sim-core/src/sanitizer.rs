//! Checked mode: typed invariant violations and the mutation matrix.
//!
//! The simulation's correctness argument rests on precise bookkeeping —
//! Eq. 1 usage/limit accounting, the shared-page residency bitmap, Eq. 2
//! priority-ordered release queues, one-behind filter safety, frame
//! free-list conservation. A state-corruption bug that happens to
//! preserve the end-of-run counters would ship silently past golden pins
//! and paper-claim tests. *Checked mode* closes that hole: every
//! subsystem registers invariant probes at its state-mutation sites and
//! raises a typed [`InvariantViolation`] the moment the live state
//! disagrees with what the invariants (or the lockstep
//! [`crate::oracle::Oracle`]) say it must be.
//!
//! Checked mode is opt-in — `RunRequest::checked()`,
//! `Engine::with_checked()`, or `HOGTAME_CHECKED=1` — and costs a single
//! branch per probe site when off. A checked run is **bit-identical in
//! simulated outcome** to an unchecked run: probes only read state, and
//! the oracle consumes the same event stream PR 4 already records.
//!
//! Because a sanitizer that silently checks nothing is worse than none,
//! the probes themselves are tested: [`Mutation`] enumerates seeded,
//! deliberate state corruptions (flip a bitmap bit, leak a frame, reorder
//! a release queue, …), each proven — by `bench --bin sanitizer_matrix`
//! and `tests/checked_mode.rs` — to be caught by exactly the invariant
//! named in [`Mutation::expected_invariant`].

use std::fmt;

use crate::time::SimTime;

/// A detected violation of a simulator invariant.
///
/// Raised via [`InvariantViolation::raise`] (a typed panic payload) so
/// the engine's existing `catch_unwind` surfaces it with the flight
/// recorders dumped, and tests can downcast to assert on the exact
/// invariant that fired.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// Sim time at which the probe detected the violation.
    pub at: SimTime,
    /// The subsystem whose probe fired (`"vm"`, `"runtime"`, `"disk"`).
    pub subsystem: &'static str,
    /// Stable snake-case name of the violated invariant (for example
    /// `"frame_conservation"` or `"one_behind_filter"`).
    pub invariant: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The tail of the detecting subsystem's flight recorder, rendered
    /// as text (empty when recording was disabled).
    pub tail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violation [{}/{}] at t={}ns: {}",
            self.subsystem,
            self.invariant,
            self.at.as_nanos(),
            self.detail
        )?;
        if !self.tail.is_empty() {
            write!(f, "\n-- flight recorder tail --\n{}", self.tail)?;
        }
        Ok(())
    }
}

impl InvariantViolation {
    /// Raises the violation as a typed panic payload.
    ///
    /// The engine's run loop catches unwinds, dumps every flight
    /// recorder, and resumes the unwind — so the payload survives for
    /// `downcast_ref::<InvariantViolation>()` in tests and in the
    /// executor's panic-message rendering.
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }
}

/// Parses a `HOGTAME_CHECKED`-style toggle value. Unset, empty, `0`,
/// `false`, `off` and `no` (case-insensitive) mean disabled; anything
/// else enables checked mode.
pub fn parse_checked(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off" || v == "no")
        }
    }
}

/// Whether the `HOGTAME_CHECKED` environment variable enables checked
/// mode (see [`parse_checked`]).
pub fn env_checked() -> bool {
    parse_checked(std::env::var("HOGTAME_CHECKED").ok().as_deref())
}

/// Which subsystem a [`Mutation`] corrupts (and therefore which layer's
/// `apply_mutation` hook applies it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationTarget {
    /// The VM subsystem (frame table, page tables, shared pages, clock).
    Vm,
    /// The run-time hint layer (one-behind filter, release buffers).
    Runtime,
    /// The striped swap device.
    Disk,
}

/// A seeded, deliberate state corruption used to prove the sanitizer
/// catches what it claims to catch.
///
/// Each variant breaks exactly one invariant; the self-test matrix
/// (`bench --bin sanitizer_matrix`) runs every mutation under checked
/// mode and asserts the raised [`InvariantViolation::invariant`] equals
/// [`Mutation::expected_invariant`] — and that the same run *without*
/// the mutation passes clean. Mutations only exist behind checked-mode
/// test plumbing; no production path constructs one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// Flip one shared-page residency bit out from under the page table.
    FlipBitmapBit,
    /// Overwrite the shared page's usage word with a bogus value.
    TamperUsageWord,
    /// Overwrite the shared page's limit word with a bogus value.
    TamperLimitWord,
    /// Corrupt the page table's cached resident-page counter (models a
    /// skipped Eq. 1 usage decrement).
    SkipUsageDecrement,
    /// Drop a frame from the free list without allocating it (the frame
    /// still claims to be free).
    LeakFrame,
    /// Push a frame that is still mapped onto the free list.
    DoubleFreeFrame,
    /// Warp the paging daemon's clock hand between activations.
    WarpClockHand,
    /// Move a buffered-release tag into the wrong priority bucket.
    ReorderReleaseQueue,
    /// Make the one-behind filter echo the just-used page instead of
    /// holding it back.
    FilterPassthrough,
    /// Enqueue a release for a page whose prefetch is still in flight.
    ReleaseInflightPrefetch,
    /// Complete one swap I/O twice (double statistics bump).
    DoubleCompleteIo,
    /// Retry a transient I/O failure past the configured budget.
    BustRetryBudget,
    /// Free a page without telling the event stream — the lockstep
    /// oracle's residency set diverges from the live page table.
    StealthFree,
    /// Enter a process in the quota ledger's over-cap index without
    /// touching its residency or cap (a stale incremental index).
    StaleOverCapIndex,
    /// Clear a page's TLB bit but leave its entry in the TLB ring (an
    /// invalidation that dropped its ring update).
    DropTlbInvalidation,
    /// Link a page to a free-list frame that does not hold it (a stale
    /// rescue link).
    StaleRescueLink,
    /// Drop a process from the VM's list of processes whose released
    /// pages moved, leaving it marked as listed (its verified releases
    /// are never credited).
    DropReleasedPid,
}

impl Mutation {
    /// Every mutation, in a fixed order (the self-test matrix order).
    pub fn all() -> [Mutation; 17] {
        [
            Mutation::FlipBitmapBit,
            Mutation::TamperUsageWord,
            Mutation::TamperLimitWord,
            Mutation::SkipUsageDecrement,
            Mutation::LeakFrame,
            Mutation::DoubleFreeFrame,
            Mutation::WarpClockHand,
            Mutation::ReorderReleaseQueue,
            Mutation::FilterPassthrough,
            Mutation::ReleaseInflightPrefetch,
            Mutation::DoubleCompleteIo,
            Mutation::BustRetryBudget,
            Mutation::StealthFree,
            Mutation::StaleOverCapIndex,
            Mutation::DropTlbInvalidation,
            Mutation::StaleRescueLink,
            Mutation::DropReleasedPid,
        ]
    }

    /// Short stable snake-case label (matrix-table and log rendering).
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::FlipBitmapBit => "flip_bitmap_bit",
            Mutation::TamperUsageWord => "tamper_usage_word",
            Mutation::TamperLimitWord => "tamper_limit_word",
            Mutation::SkipUsageDecrement => "skip_usage_decrement",
            Mutation::LeakFrame => "leak_frame",
            Mutation::DoubleFreeFrame => "double_free_frame",
            Mutation::WarpClockHand => "warp_clock_hand",
            Mutation::ReorderReleaseQueue => "reorder_release_queue",
            Mutation::FilterPassthrough => "filter_passthrough",
            Mutation::ReleaseInflightPrefetch => "release_inflight_prefetch",
            Mutation::DoubleCompleteIo => "double_complete_io",
            Mutation::BustRetryBudget => "bust_retry_budget",
            Mutation::StealthFree => "stealth_free",
            Mutation::StaleOverCapIndex => "stale_over_cap_index",
            Mutation::DropTlbInvalidation => "drop_tlb_invalidation",
            Mutation::StaleRescueLink => "stale_rescue_link",
            Mutation::DropReleasedPid => "drop_released_pid",
        }
    }

    /// The invariant this mutation is designed to trip — the self-test
    /// matrix asserts the raised violation names exactly this.
    pub fn expected_invariant(&self) -> &'static str {
        match self {
            Mutation::FlipBitmapBit => "bitmap_agreement",
            Mutation::TamperUsageWord | Mutation::TamperLimitWord => "eq1_accounting",
            Mutation::SkipUsageDecrement => "eq1_usage_recount",
            Mutation::LeakFrame => "frame_conservation",
            Mutation::DoubleFreeFrame => "frame_ownership",
            Mutation::WarpClockHand => "clock_hand_monotonic",
            Mutation::ReorderReleaseQueue => "release_queue_priority",
            Mutation::FilterPassthrough => "one_behind_filter",
            Mutation::ReleaseInflightPrefetch => "inflight_prefetch_release",
            Mutation::DoubleCompleteIo => "io_double_complete",
            Mutation::BustRetryBudget => "io_retry_budget",
            Mutation::StealthFree => "oracle_residency",
            Mutation::StaleOverCapIndex => "over_cap_index",
            Mutation::DropTlbInvalidation => "tlb_ring_agreement",
            Mutation::StaleRescueLink => "rescue_link",
            Mutation::DropReleasedPid => "release_credit",
        }
    }

    /// Which subsystem's `apply_mutation` hook performs the corruption.
    pub fn target(&self) -> MutationTarget {
        match self {
            Mutation::FlipBitmapBit
            | Mutation::TamperUsageWord
            | Mutation::TamperLimitWord
            | Mutation::SkipUsageDecrement
            | Mutation::LeakFrame
            | Mutation::DoubleFreeFrame
            | Mutation::WarpClockHand
            | Mutation::ReleaseInflightPrefetch
            | Mutation::StealthFree
            | Mutation::StaleOverCapIndex
            | Mutation::DropTlbInvalidation
            | Mutation::StaleRescueLink
            | Mutation::DropReleasedPid => MutationTarget::Vm,
            Mutation::ReorderReleaseQueue | Mutation::FilterPassthrough => MutationTarget::Runtime,
            Mutation::DoubleCompleteIo | Mutation::BustRetryBudget => MutationTarget::Disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_checked_truth_table() {
        assert!(!parse_checked(None));
        assert!(!parse_checked(Some("")));
        assert!(!parse_checked(Some("0")));
        assert!(!parse_checked(Some("false")));
        assert!(!parse_checked(Some("OFF")));
        assert!(!parse_checked(Some("no")));
        assert!(!parse_checked(Some("  0  ")));
        assert!(parse_checked(Some("1")));
        assert!(parse_checked(Some("true")));
        assert!(parse_checked(Some("yes")));
        assert!(parse_checked(Some("on")));
    }

    #[test]
    fn violation_display_names_everything() {
        let v = InvariantViolation {
            at: SimTime::from_nanos(42),
            subsystem: "vm",
            invariant: "frame_conservation",
            detail: String::from("free 3 + allocated 4 != total 8"),
            tail: String::from("t=41ns [vm] hard_fault\n"),
        };
        let s = v.to_string();
        for needle in [
            "vm/frame_conservation",
            "t=42ns",
            "free 3",
            "flight recorder tail",
        ] {
            assert!(s.contains(needle), "{needle} in {s}");
        }
    }

    #[test]
    fn mutation_matrix_is_complete_and_distinctly_labelled() {
        let all = Mutation::all();
        assert!(all.len() >= 10, "issue demands >= 10 mutations");
        let mut labels: Vec<&str> = all.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "labels are unique");
        for m in all {
            assert!(!m.expected_invariant().is_empty());
        }
    }

    #[test]
    fn raise_preserves_typed_payload() {
        let caught = std::panic::catch_unwind(|| {
            InvariantViolation {
                at: SimTime::ZERO,
                subsystem: "disk",
                invariant: "io_retry_budget",
                detail: String::from("3 failures > budget 2"),
                tail: String::new(),
            }
            .raise()
        })
        .unwrap_err();
        let v = caught
            .downcast_ref::<InvariantViolation>()
            .expect("typed payload survives");
        assert_eq!(v.invariant, "io_retry_budget");
        assert_eq!(v.subsystem, "disk");
    }
}
