//! Stable 64-bit fingerprinting for run descriptors.
//!
//! The completion journal names each record by a fingerprint of the run
//! request that produced it. The fingerprint must therefore be stable
//! across processes and across runs of different binaries compiled from
//! the same source — which rules out
//! [`std::hash::Hash`] with the default randomized `RandomState`. This is
//! a plain FNV-1a over a canonical field encoding instead: boring,
//! dependency-free, and identical everywhere.
//!
//! Types describing a run implement [`Fingerprint`] by feeding their
//! fields (tagged, in a fixed order) into a [`Fnv1a`] hasher. Collisions
//! are harmless — a false *miss* recomputes, and a false *hit* would need
//! a 64-bit collision between two requests someone actually runs.

/// The classic 64-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by bit pattern (canonicalizing `-0.0` to `0.0` so
    /// equal values always fingerprint equally).
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Feeds a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Feeds a length-prefixed string (the prefix keeps `("ab","c")` and
    /// `("a","bc")` distinct).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A type that can feed a canonical encoding of itself into a hasher.
pub trait Fingerprint {
    /// Feeds this value's canonical encoding into `h`.
    fn feed(&self, h: &mut Fnv1a);

    /// Convenience: the fingerprint of this value alone.
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.feed(&mut h);
        h.finish()
    }
}

impl Fingerprint for crate::time::SimDuration {
    fn feed(&self, h: &mut Fnv1a) {
        h.write_u64(self.as_nanos());
    }
}

impl Fingerprint for crate::time::SimTime {
    fn feed(&self, h: &mut Fnv1a) {
        h.write_u64(self.as_nanos());
    }
}

impl Fingerprint for crate::fault::FaultPlan {
    fn feed(&self, h: &mut Fnv1a) {
        h.write_str("fault_plan");
        h.write_u64(self.seed);
        let hints = &self.hints;
        h.write_f64(hints.drop);
        h.write_f64(hints.duplicate);
        h.write_f64(hints.mistag);
        h.write_f64(hints.delay);
        hints.stale_shared_window.feed(h);
        let daemons = &self.daemons;
        daemons.releaser_jitter.feed(h);
        h.write_f64(daemons.releaser_stall);
        daemons.pagingd_skew.feed(h);
        match daemons.shrink_limit_at {
            None => h.write_bool(false),
            Some(t) => {
                h.write_bool(true);
                t.feed(h);
            }
        }
        h.write_f64(daemons.shrink_to_frac);
        let io = &self.io;
        h.write_f64(io.transient);
        h.write_u64(u64::from(io.max_retries));
        io.backoff.feed(h);
        h.write_f64(io.tail);
        h.write_u64(u64::from(io.tail_factor));
        let crashes = &self.crashes;
        for spec in [crashes.releaser, crashes.prefetch, crashes.hint_layer] {
            match spec {
                None => h.write_bool(false),
                Some(s) => {
                    h.write_bool(true);
                    s.at.feed(h);
                    h.write_bool(s.permanent);
                    h.write_u64(u64::from(s.failed_restarts));
                }
            }
        }
        let sup = &crashes.supervisor;
        sup.heartbeat_period.feed(h);
        h.write_u64(u64::from(sup.miss_threshold));
        sup.backoff_initial.feed(h);
        sup.backoff_cap.feed(h);
        h.write_u64(u64::from(sup.max_restarts));
        h.write_u64(u64::from(self.exec.transient_panics));
        h.write_u64(u64::from(self.exec.max_retries));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, HintFaults};
    use crate::time::SimDuration;

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published
        // vector.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn str_prefix_disambiguates() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fault_plans_fingerprint_by_value() {
        let a = FaultPlan {
            seed: 7,
            hints: HintFaults::poisoned(0.5),
            ..FaultPlan::default()
        };
        let b = a;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FaultPlan { seed: 8, ..a };
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(
            FaultPlan::default().fingerprint(),
            a.fingerprint(),
            "poisoning changes the key"
        );
    }

    #[test]
    fn durations_feed_nanos() {
        let mut h = Fnv1a::new();
        SimDuration::from_secs(5).feed(&mut h);
        let mut g = Fnv1a::new();
        g.write_u64(5_000_000_000);
        assert_eq!(h.finish(), g.finish());
    }
}
