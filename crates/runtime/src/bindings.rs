//! Run-time bindings: what the compiler could not know.
//!
//! The executor needs the information that only exists at run time: where
//! each array actually lives in the address space, the actual extents of
//! dimensions and loop bounds the compiler saw as [`compiler::Bound::Unknown`],
//! and the contents of indirection arrays (`b` in `a[b[i]]`).
//!
//! Indirection contents are generated, not stored: a deterministic
//! stateless hash of `(seed, subscript)` — gigabyte-scale index arrays cost
//! nothing and runs stay exactly reproducible.

use std::collections::HashMap;

use compiler::ir::ArrayId;
use vm::Vpn;

/// SplitMix64-style stateless mix used for indirection values.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator for the values stored in an indirection array.
#[derive(Clone, Copy, Debug)]
pub struct IndirectGen {
    /// Seed; distinct seeds give independent contents.
    pub seed: u64,
    /// Values are uniform in `[0, range)`.
    pub range: u64,
}

impl IndirectGen {
    /// The value at subscript `i`.
    pub fn value(&self, i: i64) -> i64 {
        if self.range == 0 {
            return 0;
        }
        (mix(self.seed, i as u64) % self.range) as i64
    }
}

/// Where one array lives at run time.
#[derive(Clone, Debug)]
pub struct ArrayBinding {
    /// First page of the array's region.
    pub base_vpn: Vpn,
    /// Actual dimension extents (elements, row-major).
    pub dims: Vec<i64>,
    /// Element size in bytes (must match the declaration).
    pub elem_size: u64,
}

impl ArrayBinding {
    /// Total pages the array spans.
    pub fn pages(&self, page_size: u64) -> u64 {
        let elems: i64 = self.dims.iter().product();
        ((elems.max(0) as u64) * self.elem_size)
            .div_ceil(page_size)
            .max(1)
    }
}

/// Actual trip count of one loop.
#[derive(Clone, Debug)]
pub enum TripSpec {
    /// Use the compile-time bound (must be `Known`).
    Static,
    /// A fixed run-time value (loops the compiler saw as unknown).
    Actual(i64),
    /// A value per program invocation, cycling — MGRID's "loop bounds
    /// change dynamically on different calls to the same procedures".
    Cycle(Vec<i64>),
}

impl TripSpec {
    /// Resolves the trip count for `invocation`, given the compile-time
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics if `Static` is used with an unknown bound, or a `Cycle` is
    /// empty.
    pub fn resolve(&self, compile_bound: compiler::Bound, invocation: u32) -> i64 {
        match self {
            TripSpec::Static => compile_bound
                .known()
                .expect("Static trip spec used with unknown bound"),
            TripSpec::Actual(v) => *v,
            TripSpec::Cycle(vs) => {
                assert!(!vs.is_empty(), "empty trip cycle");
                vs[invocation as usize % vs.len()]
            }
        }
    }
}

/// Everything the executor needs beyond the annotated program.
#[derive(Clone, Debug)]
pub struct Bindings {
    /// Array placements, indexed by `ArrayId`.
    pub arrays: Vec<ArrayBinding>,
    /// Contents of indirection arrays.
    pub indirect: HashMap<ArrayId, IndirectGen>,
    /// Page size in bytes.
    pub page_size: u64,
    /// Per-nest, per-loop actual trip counts.
    pub trips: Vec<Vec<TripSpec>>,
    /// How many times the whole program body runs (out-of-core codes sweep
    /// their data repeatedly).
    pub invocations: u32,
}

impl Bindings {
    /// Last valid page of array `a`.
    pub fn last_page(&self, a: ArrayId) -> Vpn {
        let b = &self.arrays[a.0];
        Vpn(b.base_vpn.0 + b.pages(self.page_size) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_page_rounds_the_array_up_to_whole_pages() {
        let b = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(100),
                dims: vec![10, 2049],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: 16 * 1024,
            trips: vec![],
            invocations: 1,
        };
        // 10 × 2049 f64 spill 80 bytes past ten 16 KB pages.
        assert_eq!(b.last_page(ArrayId(0)), Vpn(110));
    }

    #[test]
    fn indirect_gen_is_deterministic_and_in_range() {
        let g = IndirectGen {
            seed: 7,
            range: 100,
        };
        for i in 0..1000 {
            let v = g.value(i);
            assert!((0..100).contains(&v));
            assert_eq!(v, g.value(i));
        }
        let g2 = IndirectGen {
            seed: 8,
            range: 100,
        };
        let same = (0..100).filter(|&i| g.value(i) == g2.value(i)).count();
        assert!(same < 20, "different seeds give different contents");
    }

    #[test]
    fn trip_spec_resolution() {
        use compiler::Bound;
        assert_eq!(TripSpec::Static.resolve(Bound::Known(5), 0), 5);
        assert_eq!(
            TripSpec::Actual(9).resolve(Bound::Unknown { estimate: 1 }, 0),
            9
        );
        let c = TripSpec::Cycle(vec![2, 4]);
        assert_eq!(c.resolve(Bound::Unknown { estimate: 1 }, 0), 2);
        assert_eq!(c.resolve(Bound::Unknown { estimate: 1 }, 1), 4);
        assert_eq!(c.resolve(Bound::Unknown { estimate: 1 }, 2), 2);
    }

    #[test]
    #[should_panic(expected = "Static trip spec")]
    fn static_with_unknown_bound_panics() {
        TripSpec::Static.resolve(compiler::Bound::Unknown { estimate: 3 }, 0);
    }
}
