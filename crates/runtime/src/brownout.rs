//! The brownout ladder: graceful fleet degradation under memory
//! pressure.
//!
//! The VM's pressure monitor grades the machine into a
//! [`PressureLevel`]; this controller turns that signal into a ladder of
//! progressively harsher — but always *typed, never panicking* —
//! degradations, applied by the engine to every hinting tenant:
//!
//! | ladder level | what degrades                                        |
//! |--------------|------------------------------------------------------|
//! | `Normal`     | nothing                                              |
//! | `Elevated`   | buffered/reactive releases escalate to aggressive    |
//! | `Critical`   | \+ prefetches disabled, admission rates clamped ÷4   |
//! | `Emergency`  | \+ admission ÷16, newest over-guarantee tenants shed |
//!
//! **Hysteresis.** The ladder escalates *immediately* to any higher
//! pressure level (overload is an emergency), but unwinds one rung at a
//! time only after [`BrownoutConfig::calm_samples`] consecutive samples
//! strictly calmer than the current rung. That asymmetry is what lets
//! the ladder unwind cleanly instead of oscillating across a pressure
//! edge — re-enabled prefetches immediately re-create pressure, which
//! would re-trip an edge-triggered controller on the next sample.
//!
//! The controller holds only the rung and its calm streak. Every ladder
//! move is recorded as a [`FaultKind::BrownoutShift`] in the fault log
//! (and therefore the flight recorder / event stream), which is where
//! the engine counts transitions; the engine also sheds tenants (each a
//! [`FaultKind::TenantShed`]) and clocks the time spent at each rung.

use sim_core::fault::{FaultKind, FaultLog};
use sim_core::{PressureLevel, SimTime};

/// Brownout ladder tunables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Consecutive pressure samples strictly calmer than the current
    /// rung required before the ladder steps down one level.
    pub calm_samples: u32,
    /// Admission-rate clamp (power-of-two shift) at `Critical`.
    pub critical_clamp_shift: u32,
    /// Admission-rate clamp (power-of-two shift) at `Emergency`.
    pub emergency_clamp_shift: u32,
    /// Maximum tenants shed per `Emergency` pressure sample (sheds are
    /// paced so one bad sample cannot evict half the fleet).
    pub shed_per_sample: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            calm_samples: 3,
            critical_clamp_shift: 2,
            emergency_clamp_shift: 4,
            shed_per_sample: 2,
        }
    }
}

/// The overload controller walking the degradation ladder (see module
/// docs). Owned by the engine; one per run, shared by all tenants.
#[derive(Clone, Debug)]
pub struct BrownoutController {
    config: BrownoutConfig,
    level: PressureLevel,
    /// Consecutive samples strictly calmer than `level`.
    calm: u32,
}

impl BrownoutController {
    /// A controller starting at [`PressureLevel::Normal`].
    pub fn new(config: BrownoutConfig) -> Self {
        BrownoutController {
            config,
            level: PressureLevel::Normal,
            calm: 0,
        }
    }

    /// The ladder rung currently in force.
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// The admission-rate clamp shift for the current rung.
    pub fn clamp_shift(&self) -> u32 {
        match self.level {
            PressureLevel::Normal | PressureLevel::Elevated => 0,
            PressureLevel::Critical => self.config.critical_clamp_shift,
            PressureLevel::Emergency => self.config.emergency_clamp_shift,
        }
    }

    /// How many tenants the engine may shed on this `Emergency` sample.
    pub fn shed_budget(&self) -> u32 {
        if self.level == PressureLevel::Emergency {
            self.config.shed_per_sample
        } else {
            0
        }
    }

    /// Feeds one pressure sample. Escalates immediately to any higher
    /// level; unwinds one rung after `calm_samples` consecutive strictly
    /// calmer samples. Returns the `(from, to)` move if the ladder
    /// shifted, after logging it as a [`FaultKind::BrownoutShift`].
    pub fn observe(
        &mut self,
        now: SimTime,
        pressure: PressureLevel,
        log: &mut FaultLog,
    ) -> Option<(PressureLevel, PressureLevel)> {
        let to = if pressure > self.level {
            self.calm = 0;
            pressure
        } else if pressure < self.level {
            self.calm += 1;
            if self.calm >= self.config.calm_samples {
                self.calm = 0;
                self.level.step_down()
            } else {
                return None;
            }
        } else {
            self.calm = 0;
            return None;
        };
        let from = self.level;
        self.level = to;
        log.record(now, FaultKind::BrownoutShift { from, to });
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ctrl() -> BrownoutController {
        BrownoutController::new(BrownoutConfig {
            calm_samples: 2,
            ..BrownoutConfig::default()
        })
    }

    #[test]
    fn escalation_is_immediate_and_logged() {
        let mut c = ctrl();
        let mut log = FaultLog::default();
        let shift = c.observe(t(1), PressureLevel::Emergency, &mut log);
        assert_eq!(
            shift,
            Some((PressureLevel::Normal, PressureLevel::Emergency))
        );
        assert_eq!(c.level(), PressureLevel::Emergency);
        assert_eq!(log.count("brownout_shift"), 1);
    }

    #[test]
    fn unwind_needs_consecutive_calm_and_steps_one_rung() {
        let mut c = ctrl();
        let mut log = FaultLog::default();
        c.observe(t(1), PressureLevel::Critical, &mut log);
        // One calm sample is not enough.
        assert_eq!(c.observe(t(2), PressureLevel::Normal, &mut log), None);
        // A pressured sample resets the calm streak.
        assert_eq!(c.observe(t(3), PressureLevel::Critical, &mut log), None);
        assert_eq!(c.observe(t(4), PressureLevel::Normal, &mut log), None);
        // Second consecutive calm sample: down exactly one rung.
        assert_eq!(
            c.observe(t(5), PressureLevel::Normal, &mut log),
            Some((PressureLevel::Critical, PressureLevel::Elevated))
        );
        assert_eq!(c.level(), PressureLevel::Elevated);
    }

    #[test]
    fn clamp_and_shed_budget_follow_the_rung() {
        let mut c = ctrl();
        let mut log = FaultLog::default();
        assert_eq!((c.clamp_shift(), c.shed_budget()), (0, 0));
        c.observe(t(1), PressureLevel::Critical, &mut log);
        assert_eq!((c.clamp_shift(), c.shed_budget()), (2, 0));
        c.observe(t(2), PressureLevel::Emergency, &mut log);
        assert_eq!((c.clamp_shift(), c.shed_budget()), (4, 2));
    }
}
