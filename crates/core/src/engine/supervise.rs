//! Supervised crash recovery: component deaths, heartbeat detection,
//! restart attempts with backoff, and the reconcile step that rebuilds a
//! component's state before the run continues.

use runtime::prefetcher::PrefetchPool;
use runtime::supervisor::RestartOutcome;
use sim_core::fault::{CrashComponent, FaultKind};
use sim_core::SimTime;

use super::{Engine, Ev};

impl Engine {
    /// Fault injection: `component` dies now.
    #[cold]
    pub(super) fn on_crash(&mut self, now: SimTime, component: CrashComponent) {
        self.set_component_alive(component, false);
        if let Some(sup) = self.supervisor.as_mut() {
            sup.on_crash(component);
        }
        self.fault_log
            .record(now, FaultKind::ComponentCrashed { component });
    }

    /// One supervisor probe: each detection schedules a restart after its
    /// backoff, and the probe reschedules itself while any component is
    /// still supervised.
    #[cold]
    pub(super) fn on_heartbeat(&mut self, now: SimTime) {
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        for det in sup.on_heartbeat() {
            self.fault_log.record(
                now,
                FaultKind::CrashDetected {
                    component: det.component,
                    missed: det.missed,
                },
            );
            self.queue
                .schedule(now + det.backoff, Ev::Restart(det.component));
        }
        if sup.active() {
            let period = sup.config().heartbeat_period;
            self.queue.schedule(now + period, Ev::Heartbeat);
        }
    }

    /// One restart attempt: a failure backs off and retries, a success
    /// revives the component, and an abandoned releaser is still
    /// reconciled so the run degrades cleanly to stock reactive paging.
    #[cold]
    pub(super) fn on_restart(&mut self, now: SimTime, component: CrashComponent) {
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        match sup.on_restart_attempt(component) {
            RestartOutcome::Failed {
                attempt,
                next_backoff,
            } => {
                self.fault_log.record(
                    now,
                    FaultKind::RestartFailed {
                        component,
                        attempt,
                        backoff: next_backoff,
                    },
                );
                self.queue
                    .schedule(now + next_backoff, Ev::Restart(component));
            }
            RestartOutcome::Restarted { attempt } => {
                self.fault_log
                    .record(now, FaultKind::ComponentRestarted { component, attempt });
                self.set_component_alive(component, true);
                self.reconcile(component, now);
            }
            RestartOutcome::Abandoned { attempts } => {
                self.fault_log.record(
                    now,
                    FaultKind::ComponentAbandoned {
                        component,
                        attempts,
                    },
                );
                if component == CrashComponent::Releaser {
                    self.reconcile(component, now);
                }
            }
        }
    }

    /// Flips the liveness switch for one crashable component.
    fn set_component_alive(&mut self, component: CrashComponent, alive: bool) {
        match component {
            CrashComponent::Releaser => self.vm.set_releaser_alive(alive),
            CrashComponent::PrefetchPool => self.prefetch_alive = alive,
            CrashComponent::HintLayer => self.hint_layer_alive = alive,
        }
    }

    /// Rebuilds the component's state — drop orphaned queues, re-derive
    /// shared-bitmap residency from the page table, re-arm the one-behind
    /// filters — records the [`FaultKind::StateReconciled`] outcome, and
    /// wakes whichever daemon the rebuilt state needs.
    fn reconcile(&mut self, component: CrashComponent, now: SimTime) {
        let (orphaned, bitmap_fixups) = match component {
            CrashComponent::Releaser => self.vm.reconcile_releaser(now),
            CrashComponent::HintLayer => {
                let mut orphaned = 0;
                for p in &mut self.procs {
                    if let Some(rt) = p.rt.as_mut() {
                        orphaned += rt.reconcile_after_crash();
                    }
                }
                (orphaned, 0)
            }
            CrashComponent::PrefetchPool => {
                // A fresh pool: in-flight assignment timelines died with
                // the threads; the I/O they started completes in the disk
                // model regardless.
                for p in &mut self.procs {
                    p.pool = PrefetchPool::new(self.config.prefetch_threads);
                }
                (0, 0)
            }
        };
        self.fault_log.record(
            now,
            FaultKind::StateReconciled {
                component,
                orphaned,
                bitmap_fixups,
            },
        );
        self.wake_daemons(now);
    }
}
