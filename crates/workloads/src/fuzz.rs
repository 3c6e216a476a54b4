//! Seeded fuzz workloads: [`compiler::gen`] programs as runnable specs.
//!
//! [`compiler::gen::generate`] emits a valid-by-construction
//! [`compiler::SourceProgram`] plus neutral runtime truth (actual extents,
//! trip plans, indirection wiring). This module assembles that into a
//! [`BenchSpec`] the engine can install like any paper benchmark — which
//! is what lets `RunRequest::bench_spec` drive thousands of generated
//! programs through the full pipeline and the checked-mode sanitizer.

use std::collections::HashMap;

use compiler::gen::{generate_with, GenConfig, GenProgram, TripPlan};
use runtime::{IndirectGen, TripSpec};

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// The fuzz workload for `seed` under the default generator config.
pub fn spec(seed: u64) -> BenchSpec {
    spec_with(seed, &GenConfig::default())
}

/// The fuzz workload for `seed` under an explicit generator config.
pub fn spec_with(seed: u64, cfg: &GenConfig) -> BenchSpec {
    from_gen(generate_with(seed, cfg))
}

/// Wraps an already-generated program (used by the minimizer, which edits
/// the program between reproduction attempts).
pub fn from_gen(gp: GenProgram) -> BenchSpec {
    let arrays = gp
        .actual_dims
        .iter()
        .zip(&gp.source.arrays)
        .map(|(dims, decl)| ArraySpec {
            dims: dims.clone(),
            elem_size: decl.elem_size,
        })
        .collect();
    let trips = gp
        .trips
        .iter()
        .map(|nest| {
            nest.iter()
                .map(|t| match t {
                    TripPlan::Static => TripSpec::Static,
                    TripPlan::Actual(v) => TripSpec::Actual(*v),
                    TripPlan::Cycle(vs) => TripSpec::Cycle(vs.clone()),
                })
                .collect()
        })
        .collect();
    let indirect: HashMap<_, _> = gp
        .indirect
        .iter()
        .map(|p| {
            (
                p.via,
                IndirectGen {
                    seed: p.seed,
                    range: p.range,
                },
            )
        })
        .collect();
    let spec = BenchSpec {
        name: gp.source.name.clone(),
        source: gp.source,
        arrays,
        trips,
        indirect,
        invocations: gp.invocations,
        table2: Table2Row {
            description: "seeded random loop-nest program",
            structure: "generated nests: affine + indirect refs, unknown bounds",
            analysis_difficulty: "adversarial by construction (fuzzer)",
        },
    };
    if let Err(e) = spec.validate() {
        panic!("generated spec is inconsistent: {e}");
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_specs_validate_and_check() {
        for seed in 0..64u64 {
            let s = spec(seed);
            assert_eq!(s.validate(), Ok(()), "seed {seed}");
            assert!(compiler::check_program(&s.source).is_ok(), "seed {seed}");
            assert!(s.data_set_bytes() > 0, "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_spec() {
        let a = spec(42);
        let b = spec(42);
        assert_eq!(
            compiler::pretty::render_source(&a.source),
            compiler::pretty::render_source(&b.source)
        );
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.data_set_bytes(), b.data_set_bytes());
    }

    #[test]
    fn unknown_bounds_never_pair_with_static_trips() {
        for seed in 0..64u64 {
            let s = spec(seed);
            for (nest, trips) in s.source.nests.iter().zip(&s.trips) {
                for (l, t) in nest.loops.iter().zip(trips) {
                    if !l.count.is_known() {
                        assert!(
                            !matches!(t, TripSpec::Static),
                            "seed {seed}: unknown bound with Static trip would panic at runtime"
                        );
                    }
                }
            }
        }
    }
}
