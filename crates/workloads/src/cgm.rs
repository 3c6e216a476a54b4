//! CGM — the NAS conjugate-gradient benchmark.
//!
//! Sparse matrix-vector products (indirect column gathers) interleaved with
//! vector updates. The loop bounds are run-time values the compiler cannot
//! see, so it must insert hints everywhere; at run time "most of these
//! loops are small and prefetches and releases are not needed", producing
//! the "very large number of unnecessary prefetch and release requests
//! \[that\] need to be filtered out by the run-time layer" — the biggest
//! user-time overhead in the paper's Figure 7.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::{IndirectGen, TripSpec};

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Nonzeros in the sparse matrix (value stream).
pub const NNZ: i64 = 1_500_000;
/// Length of the gathered vector `p`.
pub const VLEN: i64 = 1_500_000;
/// Length of the big dense work vectors.
pub const DENSE: i64 = 8_000_000;
/// Iterations of the small residual-reduction loops.
pub const SMALL: i64 = 24;
/// CG iterations (invocations).
pub const CG_ITERS: u32 = 2;

fn unknown(estimate: i64) -> Bound {
    Bound::Unknown { estimate }
}

/// Builds the CGM benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("CGM");
    // aval carries value+index packed per nonzero (32 B/elem).
    let aval = p.array("aval", 32, vec![unknown(NNZ)]);
    let colidx = p.array("colidx", 4, vec![unknown(NNZ)]);
    let pv = p.array("p", 8, vec![unknown(VLEN)]);
    let z = p.array("z", 8, vec![unknown(DENSE)]);
    let r = p.array("r", 8, vec![unknown(DENSE)]);
    let q = p.array("q", 8, vec![unknown(SMALL)]);
    let i = LoopId(0);

    // The sparse gather: sequential streams + an indirect vector access.
    p.nest(
        NestBuilder::new("spmv-gather")
            .counted_loop(unknown(NNZ))
            .work_ns(45)
            .reference(ArrayRef::read(aval, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::read(colidx, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::read(
                pv,
                vec![Index::Indirect {
                    via: colidx,
                    subscript: Affine::var(i),
                }],
            ))
            .build(),
    );
    // Two large dense vector updates.
    p.nest(
        NestBuilder::new("axpy-z")
            .counted_loop(unknown(DENSE))
            .work_ns(30)
            .reference(ArrayRef::read(z, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::write(r, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    p.nest(
        NestBuilder::new("axpy-r")
            .counted_loop(unknown(DENSE))
            .work_ns(30)
            .reference(ArrayRef::read(r, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::write(z, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    // A handful of reduction loops that turn out to be tiny at run time:
    // the compiler can't know, so each gets the full hint treatment.
    for k in 0..4 {
        p.nest(
            NestBuilder::new(format!("reduce-{k}"))
                .counted_loop(unknown(VLEN))
                .work_ns(20)
                .reference(ArrayRef::read(q, vec![Index::aff(Affine::var(i))]))
                .build(),
        );
    }

    let mut indirect = HashMap::new();
    indirect.insert(
        colidx,
        IndirectGen {
            seed: 0xC6,
            range: VLEN as u64,
        },
    );
    BenchSpec {
        name: "CGM".into(),
        source: p,
        arrays: vec![
            ArraySpec {
                dims: vec![NNZ],
                elem_size: 32,
            },
            ArraySpec {
                dims: vec![NNZ],
                elem_size: 4,
            },
            ArraySpec {
                dims: vec![VLEN],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![DENSE],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![DENSE],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![SMALL],
                elem_size: 8,
            },
        ],
        trips: vec![
            vec![TripSpec::Actual(NNZ)],
            vec![TripSpec::Actual(DENSE)],
            vec![TripSpec::Actual(DENSE)],
            vec![TripSpec::Actual(SMALL)],
            vec![TripSpec::Actual(SMALL)],
            vec![TripSpec::Actual(SMALL)],
            vec![TripSpec::Actual(SMALL)],
        ],
        indirect,
        invocations: CG_ITERS,
        table2: Table2Row {
            description: "conjugate gradient: sparse gathers + dense vector updates",
            structure: "unknown loop bounds and indirect references",
            analysis_difficulty: "bounds invisible; huge hint overhead filtered at run time",
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
        assert!((150.0..250.0).contains(&mb), "{mb} MB");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn hints_inserted_despite_tiny_runtime_loops() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        // The tiny reduce loops still get prefetch + release hints
        // (unknown bounds assume worst case) — the unnecessary requests the
        // run-time layer must filter.
        for nest in prog.nests.iter().skip(3) {
            assert!(nest.prefetch_count() > 0);
            assert!(nest.release_count() > 0);
        }
        // The indirect gather of p is never released.
        assert!(prog.nests[0].directives[2].release.is_none());
    }

    #[test]
    fn iteration_budget() {
        let s = spec();
        assert!(s.estimated_iterations() <= 40_000_000);
    }
}
