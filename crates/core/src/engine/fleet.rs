//! Overload control and the fleet record: the pressure monitor, the
//! brownout ladder it drives, tenant sheds, the clock of time spent at
//! each applied level, and the [`FleetStats`] assembled from them.

use std::collections::BTreeMap;

use runtime::BrownoutController;
use sim_core::fault::FaultKind;
use sim_core::obs::MetricsRegistry;
use sim_core::stats::{jain, TailDigest};
use sim_core::{PressureLevel, SimDuration, SimTime};
use vm::PressureMonitor;

use super::{Engine, Ev};

/// Exact tail-latency summary for one tenant's interactive sweeps
/// (nearest-rank percentiles over every recorded response).
#[derive(Clone, Copy, Debug)]
pub struct TenantTail {
    /// The logical tenant (`u32::MAX` for the fleet-wide aggregate).
    pub tenant: u32,
    /// Responses recorded.
    pub count: u64,
    /// Mean response time.
    pub mean: SimDuration,
    /// Median response time.
    pub p50: SimDuration,
    /// 99th-percentile response time.
    pub p99: SimDuration,
    /// 99.9th-percentile response time.
    pub p999: SimDuration,
    /// Worst response time.
    pub max: SimDuration,
}

/// One tenant shed by the brownout ladder (also in the fault log as
/// [`FaultKind::TenantShed`]; carried here with its tenant tag for the
/// fairness proofs in `bench --bin surge_matrix`).
#[derive(Clone, Copy, Debug)]
pub struct ShedRecord {
    /// VM pid of the shed process.
    pub pid: u32,
    /// Its logical tenant.
    pub tenant: u32,
    /// When it was shed.
    pub at: SimTime,
    /// Its resident set at shed time (always above `guaranteed` — the
    /// ladder never sheds a tenant at or below its guaranteed share).
    pub rss: u64,
    /// Its guaranteed share.
    pub guaranteed: u64,
}

/// Fleet-level results: per-tenant tail latency, fairness, and the
/// overload-control record. Present when the run had tenant-tagged
/// processes or overload control armed; `None` for classic two-process
/// runs.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Per-tenant tail summaries, ordered by tenant id.
    pub tenants: Vec<TenantTail>,
    /// The fleet-wide aggregate (`tenant == u32::MAX`).
    pub overall: TenantTail,
    /// Jain's fairness index over the per-tenant mean response times
    /// (1.0 = perfectly fair).
    pub jain: f64,
    /// Tenants shed by the ladder.
    pub tenants_shed: u64,
    /// Processes killed on unsatisfiable allocations (typed OOM kills;
    /// the undefended machine's failure mode).
    pub oom_kills: u64,
    /// Every shed, in order.
    pub sheds: Vec<ShedRecord>,
    /// Brownout ladder moves (either direction).
    pub brownout_transitions: u64,
    /// Simulated time at each applied level, indexed by
    /// [`PressureLevel::index`]: the ladder rung when the ladder is armed,
    /// the raw monitor grade when it is not. The whole run counts as
    /// `Normal` when no pressure monitor is armed.
    pub time_at_level: [SimDuration; 4],
    /// The applied level (ladder rung, or raw grade with the ladder off)
    /// at end of run.
    pub final_level: PressureLevel,
    /// Raw pressure-level changes seen by the monitor.
    pub pressure_shifts: u64,
    /// Sweeps completed before the surge window opened.
    pub pre_surge_sweeps: u64,
    /// Sweeps completed after the surge window closed.
    pub post_surge_sweeps: u64,
    /// Pre-surge throughput, sweeps per simulated second.
    pub pre_surge_rate: f64,
    /// Post-surge throughput, sweeps per simulated second.
    pub post_surge_rate: f64,
}

/// The pressure monitor and the ladder it may drive, armed together.
pub(super) struct Overload {
    pub(super) period: SimDuration,
    pub(super) monitor: PressureMonitor,
    pub(super) ladder: Option<BrownoutController>,
    /// The rung and admission clamp shift last fanned out to the hint
    /// layers (`None` before the first sample).
    pub(super) fanned: Option<(PressureLevel, u32)>,
}

/// Everything the engine keeps for overload control and the fleet
/// record.
#[derive(Default)]
pub(super) struct FleetState {
    pub(super) overload: Option<Overload>,
    /// Surge window `[start, end)` for pre/post throughput accounting.
    pub(super) surge_window: Option<(SimTime, SimTime)>,
    /// Tenant-tagged sweep completions: `(at, tenant, response)`.
    pub(super) sweep_log: Vec<(SimTime, u32, SimDuration)>,
    /// Every tenant shed by the ladder, in order.
    shed_log: Vec<ShedRecord>,
    /// Time spent at each applied level: the accumulator, plus the
    /// instant of the last pressure sample and the level it applied.
    clock: ([SimDuration; 4], SimTime, PressureLevel),
}

impl Engine {
    /// One `Ev::Pressure` tick: grade the machine, walk the brownout
    /// ladder, fan a changed rung out to every hinting tenant, and shed
    /// at `Emergency` — then reschedule.
    pub(super) fn on_pressure_sample(&mut self, now: SimTime) {
        let Some(o) = self.fleet.overload.as_mut() else {
            return;
        };
        let graded = o.monitor.sample(now, &mut self.vm);
        self.queue.schedule(now + o.period, Ev::Pressure);
        let mut fan_out = None;
        let mut budget = 0;
        // The applied level is the rung when a ladder is armed (what the
        // tenants actually experience), the raw grade otherwise; the
        // level clock and the blame table both follow it.
        let level = match o.ladder.as_mut() {
            Some(ladder) => {
                ladder.observe(now, graded, &mut self.fault_log);
                let applied = (ladder.level(), ladder.clamp_shift());
                if o.fanned != Some(applied) {
                    o.fanned = Some(applied);
                    fan_out = Some(applied);
                }
                budget = ladder.shed_budget();
                applied.0
            }
            None => graded,
        };
        let (acc, since, at) = &mut self.fleet.clock;
        acc[at.index()] += now.since(*since);
        (*since, *at) = (now, level);
        // Fan the rung out only when it (or its clamp shift) changes.
        // Every process, fleet arrivals included, is registered before
        // the run starts, so a wave that lands while the ladder is
        // engaged already holds the current rung; a hint-layer restart
        // keeps it too. Re-applying an unchanged rung would only settle
        // each admission bucket at `now`, which the next `admit` does
        // anyway with the same result.
        if let Some((to, shift)) = fan_out {
            for p in &mut self.procs {
                if let Some(rt) = p.rt.as_mut() {
                    rt.set_brownout(now, to, shift);
                }
            }
        }
        if let Some(tracker) = self.spans.as_mut() {
            tracker.set_level(level);
        }
        if budget > 0 {
            self.shed_tenants(now, budget);
        }
        self.wake_daemons(now);
    }

    /// Sheds up to `budget` tenants at `Emergency`: only processes whose
    /// resident set exceeds their guaranteed share are candidates (a
    /// tenant at or below its guarantee is never shed), newest arrival
    /// first. Each shed is a typed [`FaultKind::TenantShed`] outcome and
    /// an ordinary process teardown — never a panic.
    #[cold]
    fn shed_tenants(&mut self, now: SimTime, budget: u32) {
        let mut victims: Vec<(SimTime, usize)> = Vec::new();
        for (i, p) in self.procs.iter().enumerate() {
            if p.finished() || p.result.tenant.is_none() || p.start_at > now {
                continue;
            }
            let rss = self.vm.rss(p.result.pid);
            if rss > self.vm.quotas().guaranteed(p.result.pid.0) {
                victims.push((p.start_at, i));
            }
        }
        // Newest arrival first; registration order breaks ties.
        victims.sort_by(|a, b| b.cmp(a));
        for (_, i) in victims.into_iter().take(budget as usize) {
            let pid = self.procs[i].result.pid;
            let tenant = self.procs[i].result.tenant.unwrap_or(u32::MAX);
            let rss = self.vm.rss(pid);
            let guaranteed = self.vm.quotas().guaranteed(pid.0);
            self.fault_log.record(
                now,
                FaultKind::TenantShed {
                    pid: pid.0,
                    rss,
                    guaranteed,
                },
            );
            self.fleet.shed_log.push(ShedRecord {
                pid: pid.0,
                tenant,
                at: now,
                rss,
                guaranteed,
            });
            self.procs[i].result.shed = true;
            self.tear_down(i, now);
        }
    }

    /// Aggregates the fleet section of the results: per-tenant exact
    /// tail digests, Jain's fairness over per-tenant means, the shed and
    /// brownout record, and pre/post-surge throughput. `None` when the
    /// run had neither tenant tags nor overload control (classic runs
    /// carry no fleet section). Also returns the fleet-wide digest so
    /// the metrics exporter can register its percentile family.
    #[cold]
    pub(super) fn compute_fleet(&mut self, end_time: SimTime) -> Option<(FleetStats, TailDigest)> {
        let fleet = &mut self.fleet;
        if fleet.overload.is_none() && self.procs.iter().all(|p| p.result.tenant.is_none()) {
            return None;
        }
        let mut per_tenant: BTreeMap<u32, TailDigest> = BTreeMap::new();
        let mut overall = TailDigest::new();
        for &(_, tenant, resp) in &fleet.sweep_log {
            per_tenant.entry(tenant).or_default().record(resp);
            overall.record(resp);
        }
        let tenants: Vec<TenantTail> = per_tenant
            .iter_mut()
            .map(|(&tenant, d)| tenant_tail(tenant, d))
            .collect();
        let means: Vec<f64> = tenants.iter().map(|t| t.mean.as_secs_f64()).collect();
        let (pre, post, pre_rate, post_rate) = match fleet.surge_window {
            Some((start, end)) => {
                // Equal-width windows on either side of the storm, so the
                // two rates are directly comparable: `[start - w, start)`
                // against `[end, end + w)`.
                let w = end.since(start).min(start.since(SimTime::ZERO));
                let pre_from = SimTime::ZERO + start.since(SimTime::ZERO).saturating_sub(w);
                let post_to = end + w;
                let count = |from: SimTime, to: SimTime| {
                    fleet
                        .sweep_log
                        .iter()
                        .filter(|&&(t, ..)| t >= from && t < to)
                        .count() as u64
                };
                let (pre, post) = (count(pre_from, start), count(end, post_to));
                let secs = w.as_secs_f64();
                let rate = |n: u64, secs: f64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
                (pre, post, rate(pre, secs), rate(post, secs))
            }
            None => {
                let all = fleet.sweep_log.len() as u64;
                let secs = end_time.as_secs_f64();
                let rate = if secs > 0.0 { all as f64 / secs } else { 0.0 };
                (all, 0, rate, 0.0)
            }
        };
        // Close the level clock at the end of the run.
        let (mut time_at_level, since, final_level) = fleet.clock;
        time_at_level[final_level.index()] += end_time.since(since);
        let sheds = std::mem::take(&mut fleet.shed_log);
        let stats = FleetStats {
            tenants,
            overall: tenant_tail(u32::MAX, &mut overall),
            jain: jain(&means),
            tenants_shed: sheds.len() as u64,
            oom_kills: self.procs.iter().filter(|p| p.result.oom_killed).count() as u64,
            sheds,
            brownout_transitions: self.fault_log.count("brownout_shift"),
            time_at_level,
            final_level,
            pressure_shifts: fleet.overload.as_ref().map_or(0, |o| o.monitor.shifts()),
            pre_surge_sweeps: pre,
            post_surge_sweeps: post,
            pre_surge_rate: pre_rate,
            post_surge_rate: post_rate,
        };
        Some((stats, overall))
    }
}

/// Summarizes one tail digest (exact nearest-rank percentiles).
fn tenant_tail(tenant: u32, d: &mut TailDigest) -> TenantTail {
    let (p50, p99, p999) = d.tail();
    TenantTail {
        tenant,
        count: d.count(),
        mean: d.mean(),
        p50,
        p99,
        p999,
        max: d.max(),
    }
}

/// Registers the fleet aggregates as metric families.
pub(super) fn export_fleet_metrics(
    m: &mut MetricsRegistry,
    f: &FleetStats,
    overall: &mut TailDigest,
) {
    m.tail(
        "hogtame_fleet_response",
        "Interactive response time across all tenants",
        overall,
    );
    m.gauge(
        "hogtame_fleet_jain",
        "Jain fairness index over per-tenant mean response times",
        f.jain,
    );
    #[rustfmt::skip]
    let counters = [
        ("hogtame_fleet_tenants_shed_total", "Tenants shed by the brownout ladder", f.tenants_shed),
        ("hogtame_fleet_oom_kills_total", "Processes killed on unsatisfiable allocations",
            f.oom_kills),
        ("hogtame_fleet_brownout_transitions_total", "Brownout ladder moves in either direction",
            f.brownout_transitions),
        ("hogtame_fleet_pressure_shifts_total", "Raw pressure-level changes seen by the monitor",
            f.pressure_shifts),
    ];
    for (name, help, value) in counters {
        m.counter(name, help, value);
    }
    for level in PressureLevel::ALL {
        m.gauge(
            format!("hogtame_fleet_time_at_{}_seconds", level.name()),
            "Simulated time spent at this brownout rung",
            f.time_at_level[level.index()].as_secs_f64(),
        );
        // The same clock as an exact counter (nanoseconds), so scrapes
        // can be reconciled against `FleetStats::time_at_level` without
        // float rounding.
        m.counter(
            format!("hogtame_fleet_time_at_{}_nanos_total", level.name()),
            "Simulated nanoseconds spent at this brownout rung",
            f.time_at_level[level.index()].as_nanos(),
        );
    }
}
