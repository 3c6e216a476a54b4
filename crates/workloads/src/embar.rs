//! EMBAR — the NAS "embarrassingly parallel" benchmark.
//!
//! Generates a large table of pseudorandom deviates, then performs heavy
//! per-element computation over it (Gaussian acceptance/rejection). Both
//! phases are single 1-D loops with known bounds over a 384 MB array —
//! "EMBAR has only one-dimensional loops … the compiler analysis is
//! essentially perfect" (paper §4.2).
//!
//! The two phases are *independent nests*, so the inter-nest reuse of `x`
//! is invisible to the compiler ("reuses that occur between independent
//! sets of loops are not considered") and both phases stream with
//! priority-0 releases.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::TripSpec;

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Elements of the deviate table (48M f64 = 384 MB).
pub const N: i64 = 48_000_000;

/// Builds the EMBAR benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("EMBAR");
    let x = p.array("x", 8, vec![Bound::Known(N)]);
    let i = LoopId(0);
    p.nest(
        NestBuilder::new("generate-deviates")
            .counted_loop(Bound::Known(N))
            .work_ns(90)
            .reference(ArrayRef::write(x, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    p.nest(
        NestBuilder::new("gaussian-pairs")
            .counted_loop(Bound::Known(N))
            .work_ns(260)
            .reference(ArrayRef::read(x, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    BenchSpec {
        name: "EMBAR".into(),
        source: p,
        arrays: vec![ArraySpec {
            dims: vec![N],
            elem_size: 8,
        }],
        trips: vec![vec![TripSpec::Static], vec![TripSpec::Static]],
        indirect: HashMap::new(),
        invocations: 1,
        table2: Table2Row {
            description: "pseudorandom deviate generation + Gaussian pair counting",
            structure: "one-dimensional loops with known bounds",
            analysis_difficulty: "essentially perfect",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compiler::{compile, CompileOptions, MachineModel};

    #[test]
    fn sizes_and_consistency() {
        let s = spec();
        let mb = s.data_set_bytes() as f64 / (1024.0 * 1024.0);
        assert!((300.0..450.0).contains(&mb));
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn both_nests_stream_at_priority_zero() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        for nest in &prog.nests {
            let d = &nest.directives[0];
            assert!(d.prefetch.is_some());
            assert_eq!(d.release.unwrap().priority, 0);
        }
    }
}
