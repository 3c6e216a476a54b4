//! Measurement primitives.
//!
//! The paper's evaluation reports (a) stacked execution-time breakdowns
//! (Figure 7), (b) event counts (Figure 8, Table 3, Figure 9, Figure 10c),
//! and (c) response-time series (Figures 1 and 10a/b). This module provides
//! the corresponding primitives: [`TimeBreakdown`], [`Counter`],
//! [`Histogram`], and [`Series`]. Structs of counters are declared with
//! [`stats_struct!`](crate::stats_struct), which gives each one its field
//! list as `u64`s.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// The four execution-time components of Figure 7.
///
/// From bottom to top of the paper's stacked bars: user code, system code
/// (primarily page-fault handling), stall for unavailable resources (memory,
/// memory-system locks, CPUs), and stall waiting for I/O.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeCategory {
    /// Executing user code (includes run-time layer overhead).
    User,
    /// Executing system code, primarily fault handling.
    System,
    /// Stalled waiting for unavailable resources: physical memory,
    /// memory-system locks, and CPUs.
    StallResource,
    /// Stalled waiting for I/O (demand page-in/out).
    StallIo,
}

impl TimeCategory {
    /// All categories in the paper's bottom-to-top bar order.
    pub const ALL: [TimeCategory; 4] = [
        TimeCategory::User,
        TimeCategory::System,
        TimeCategory::StallResource,
        TimeCategory::StallIo,
    ];

    /// Short label used in table output.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::User => "user",
            TimeCategory::System => "system",
            TimeCategory::StallResource => "stall-res",
            TimeCategory::StallIo => "stall-io",
        }
    }
}

/// Accumulated per-process execution time, split by [`TimeCategory`].
#[derive(Clone, Copy, Default, Debug)]
pub struct TimeBreakdown {
    user: u64,
    system: u64,
    stall_resource: u64,
    stall_io: u64,
}

impl TimeBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to category `cat`.
    #[inline]
    pub fn add(&mut self, cat: TimeCategory, d: SimDuration) {
        let slot = match cat {
            TimeCategory::User => &mut self.user,
            TimeCategory::System => &mut self.system,
            TimeCategory::StallResource => &mut self.stall_resource,
            TimeCategory::StallIo => &mut self.stall_io,
        };
        *slot = slot.saturating_add(d.as_nanos());
    }

    /// Returns the accumulated time in `cat`.
    pub fn get(&self, cat: TimeCategory) -> SimDuration {
        SimDuration::from_nanos(match cat {
            TimeCategory::User => self.user,
            TimeCategory::System => self.system,
            TimeCategory::StallResource => self.stall_resource,
            TimeCategory::StallIo => self.stall_io,
        })
    }

    /// Total across all categories.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.user
                .saturating_add(self.system)
                .saturating_add(self.stall_resource)
                .saturating_add(self.stall_io),
        )
    }

    /// The fraction of the total attributable to `cat` (0 if total is 0).
    pub fn fraction(&self, cat: TimeCategory) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            0.0
        } else {
            self.get(cat).as_nanos() as f64 / total as f64
        }
    }

    /// Element-wise sum with another breakdown.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            user: self.user.saturating_add(other.user),
            system: self.system.saturating_add(other.system),
            stall_resource: self.stall_resource.saturating_add(other.stall_resource),
            stall_io: self.stall_io.saturating_add(other.stall_io),
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "user={:.3}s sys={:.3}s res={:.3}s io={:.3}s (total {:.3}s)",
            self.get(TimeCategory::User).as_secs_f64(),
            self.get(TimeCategory::System).as_secs_f64(),
            self.get(TimeCategory::StallResource).as_secs_f64(),
            self.get(TimeCategory::StallIo).as_secs_f64(),
            self.total().as_secs_f64(),
        )
    }
}

/// A simple monotonically increasing event counter.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A statistics field that converts losslessly to and from a `u64`: the
/// field type of every [`stats_struct!`](crate::stats_struct) struct.
pub trait StatValue {
    /// The value as a `u64`.
    fn to_u64(&self) -> u64;
    /// The value a `u64` from [`StatValue::to_u64`] stands for.
    fn from_u64(v: u64) -> Self;
}

impl StatValue for u64 {
    fn to_u64(&self) -> u64 {
        *self
    }
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl StatValue for Counter {
    fn to_u64(&self) -> u64 {
        self.0
    }
    fn from_u64(v: u64) -> Self {
        Counter(v)
    }
}

impl StatValue for SimDuration {
    fn to_u64(&self) -> u64 {
        self.as_nanos()
    }
    fn from_u64(v: u64) -> Self {
        SimDuration::from_nanos(v)
    }
}

/// Declares a statistics struct whose fields are all [`StatValue`]s.
///
/// The struct is emitted exactly as written (attributes, docs, fields),
/// plus two inherent methods over its field list: `values()`, every field
/// as a `u64` in declaration order, and `from_values(&[u64])`, its
/// inverse, which is `None` unless the slice holds exactly one value per
/// field. Code that serializes the struct iterates these, so a new field
/// is carried with no further edit.
#[macro_export]
macro_rules! stats_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Every field as a `u64`, in declaration order.
            pub fn values(&self) -> [u64; [$(stringify!($field)),*].len()] {
                [$($crate::stats::StatValue::to_u64(&self.$field)),*]
            }

            /// The struct whose [`values`](Self::values) are `v`, or
            /// `None` unless `v` holds exactly one value per field.
            pub fn from_values(v: &[u64]) -> Option<Self> {
                let mut v = v.iter().copied();
                let s = $name {
                    $($field: $crate::stats::StatValue::from_u64(v.next()?),)*
                };
                v.next().is_none().then_some(s)
            }
        }
    };
}

/// A fixed-bucket latency histogram with power-of-two bucket boundaries.
///
/// Bucket `i` covers durations in `[2^i, 2^(i+1))` nanoseconds; bucket 0 also
/// absorbs zero.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` nanosecond range.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (zero if empty).
    pub fn mean(&self) -> SimDuration {
        match self.sum_ns.checked_div(self.count) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_ns)
    }

    /// Approximate quantile (bucket upper bound containing the q-quantile).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return SimDuration::from_nanos(upper);
            }
        }
        self.max()
    }
}

/// An exact-tail latency digest: retains every recorded sample so
/// p50/p99/p999 are *exact* nearest-rank percentiles, not bucket upper
/// bounds like [`Histogram::quantile`]. Fleet-scale SLO enforcement
/// (surge_matrix, `RunResult::fleet`) needs the exact tail because a
/// power-of-two bucket near a bound can be off by almost 2x.
///
/// Nearest-rank definition: for `0 < p <= 1` over `n` sorted samples,
/// the percentile is the sample at rank `ceil(p * n)` (1-based).
#[derive(Clone, Debug, Default)]
pub struct TailDigest {
    samples: Vec<u64>,
    sorted: bool,
}

impl TailDigest {
    /// An empty digest.
    pub fn new() -> Self {
        TailDigest::default()
    }

    /// Records one response-time sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean of the samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| u128::from(s)).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Largest sample (zero if empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Exact nearest-rank percentile for `p` in `(0, 1]` (zero if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        assert!(p > 0.0 && p <= 1.0, "percentile out of range: {p}");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let rank = ((p * self.samples.len() as f64).ceil() as usize).max(1);
        SimDuration::from_nanos(self.samples[rank - 1])
    }

    /// The SLO trio: exact (p50, p99, p999).
    pub fn tail(&mut self) -> (SimDuration, SimDuration, SimDuration) {
        (
            self.percentile(0.5),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n·Σx²)`. Ranges from `1/n` (one party gets everything) to
/// `1.0` (perfect equality). Empty or all-zero inputs report `1.0`
/// (nothing is being divided unfairly).
pub fn jain(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// A labelled (x, y) series, used for response-time sweeps (Figures 1, 10a).
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Series label, e.g. "prefetch-only".
    pub label: String,
    /// Data points as (x, y) pairs.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The maximum y value (NaN-free; zero if empty).
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(0.0, f64::max)
    }
}

/// A running summary of f64 samples: count, mean, min, max and (Welford)
/// standard deviation. Used by replication studies reporting spreads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Relative spread `(max - min) / min` (0 if empty or min is 0).
    pub fn relative_spread(&self) -> f64 {
        if self.count == 0 || self.min <= 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.min
        }
    }
}

/// A labelled interval measurement helper: tracks the start of a phase and
/// charges the elapsed time to a [`TimeBreakdown`] when the phase ends.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimer {
    start: SimTime,
    cat: TimeCategory,
}

impl PhaseTimer {
    /// Starts timing a phase of category `cat` at `now`.
    pub fn start(now: SimTime, cat: TimeCategory) -> Self {
        PhaseTimer { start: now, cat }
    }

    /// Ends the phase at `now`, charging the breakdown.
    pub fn finish(self, now: SimTime, breakdown: &mut TimeBreakdown) {
        breakdown.add(self.cat, now.since(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = TimeBreakdown::new();
        b.add(TimeCategory::User, SimDuration::from_nanos(10));
        b.add(TimeCategory::User, SimDuration::from_nanos(5));
        b.add(TimeCategory::StallIo, SimDuration::from_nanos(85));
        assert_eq!(b.get(TimeCategory::User).as_nanos(), 15);
        assert_eq!(b.total().as_nanos(), 100);
        assert!((b.fraction(TimeCategory::StallIo) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn breakdown_merge() {
        let mut a = TimeBreakdown::new();
        a.add(TimeCategory::System, SimDuration::from_nanos(7));
        let mut b = TimeBreakdown::new();
        b.add(TimeCategory::System, SimDuration::from_nanos(3));
        b.add(TimeCategory::StallResource, SimDuration::from_nanos(2));
        let m = a.merged(&b);
        assert_eq!(m.get(TimeCategory::System).as_nanos(), 10);
        assert_eq!(m.get(TimeCategory::StallResource).as_nanos(), 2);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = TimeBreakdown::new();
        assert_eq!(b.fraction(TimeCategory::User), 0.0);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.bump();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    crate::stats_struct! {
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        struct Mixed {
            hits: Counter,
            peak: u64,
            busy: SimDuration,
        }
    }

    #[test]
    fn stats_struct_round_trips_its_fields_in_order() {
        let mut m = Mixed {
            peak: 7,
            busy: SimDuration::from_nanos(1_500),
            ..Mixed::default()
        };
        m.hits.add(3);
        assert_eq!(m.values(), [3, 7, 1_500]);
        assert_eq!(Mixed::from_values(&m.values()), Some(m));
        assert_eq!(Mixed::from_values(&[3, 7]), None);
        assert_eq!(Mixed::from_values(&[3, 7, 1_500, 0]), None);
        assert_eq!(Mixed::from_values(&[]), None);
    }

    #[test]
    fn histogram_mean_max() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(100));
        h.record(SimDuration::from_nanos(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean().as_nanos(), 200);
        assert_eq!(h.max().as_nanos(), 300);
        assert_eq!(h.sum().as_nanos(), 400);
    }

    #[test]
    fn histogram_quantile_bounds_sample() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_nanos(i));
        }
        // The median of 1..=1000 is ~500; the bucket upper bound containing it
        // is 511 (bucket [256, 512)).
        assert_eq!(h.quantile(0.5).as_nanos(), 511);
        assert!(h.quantile(1.0).as_nanos() >= 1000);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    fn phase_timer_charges_elapsed() {
        let mut b = TimeBreakdown::new();
        let timer = PhaseTimer::start(SimTime::from_nanos(100), TimeCategory::StallIo);
        timer.finish(SimTime::from_nanos(250), &mut b);
        assert_eq!(b.get(TimeCategory::StallIo).as_nanos(), 150);
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.relative_spread() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn series_max_y() {
        let mut s = Series::new("x");
        s.push(1.0, 2.0);
        s.push(2.0, 5.0);
        s.push(3.0, 1.0);
        assert_eq!(s.max_y(), 5.0);
    }

    #[test]
    fn tail_digest_nearest_rank() {
        let mut d = TailDigest::new();
        for ns in [30, 10, 20, 40] {
            d.record(SimDuration::from_nanos(ns));
        }
        // ceil(0.5*4)=2 -> 20; ceil(0.99*4)=4 -> 40; p25 -> rank 1 -> 10.
        assert_eq!(d.percentile(0.5).as_nanos(), 20);
        assert_eq!(d.percentile(0.99).as_nanos(), 40);
        assert_eq!(d.percentile(0.25).as_nanos(), 10);
        assert_eq!(d.max().as_nanos(), 40);
        assert_eq!(d.mean().as_nanos(), 25);
        assert_eq!(d.count(), 4);
    }

    #[test]
    fn tail_digest_empty_is_zero() {
        let mut d = TailDigest::new();
        assert_eq!(d.percentile(0.999), SimDuration::ZERO);
        assert_eq!(
            d.tail(),
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        );
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One party gets everything: 1/n.
        assert!((jain(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
    }
}
