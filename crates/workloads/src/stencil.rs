//! STENCIL — the paper's §2.4 / Figure 3 example, as a runnable workload.
//!
//! `a[i][j] = (a[i±1][j±1] …) / 9.0` over an out-of-core matrix. The nine
//! read references form one locality group; the compiler prefetches the
//! leading corner `a[i+1][j+1]` and releases the trailing corner
//! `a[i-1][j-1]` — the "second-level working set" (three rows) of the
//! paper's discussion. Not one of the paper's six evaluation benchmarks;
//! provided as a seventh workload because the paper develops its analysis
//! on exactly this code.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::TripSpec;

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Matrix extent: 6144² f64 = 288 MB; one row = 48 KB = 3 pages.
pub const N: i64 = 6_144;
/// Smoothing sweeps.
pub const SWEEPS: u32 = 2;

/// Builds the STENCIL workload.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("STENCIL");
    let a = p.array("a", 8, vec![Bound::Known(N), Bound::Known(N)]);
    let (i, j) = (LoopId(0), LoopId(1));
    let mut nest = NestBuilder::new("average")
        .counted_loop(Bound::Known(N))
        .counted_loop(Bound::Known(N))
        .work_ns(60);
    for di in [-1i64, 0, 1] {
        for dj in [-1i64, 0, 1] {
            nest = nest.reference(ArrayRef::read(
                a,
                vec![
                    Index::aff(Affine::var(i).plus_const(di)),
                    Index::aff(Affine::var(j).plus_const(dj)),
                ],
            ));
        }
    }
    nest = nest.reference(ArrayRef::write(
        a,
        vec![Index::aff(Affine::var(i)), Index::aff(Affine::var(j))],
    ));
    p.nest(nest.build());
    BenchSpec {
        name: "STENCIL".into(),
        source: p,
        arrays: vec![ArraySpec {
            dims: vec![N, N],
            elem_size: 8,
        }],
        trips: vec![vec![TripSpec::Static, TripSpec::Static]],
        indirect: HashMap::new(),
        invocations: SWEEPS,
        table2: Table2Row {
            description: "nearest-neighbour averaging (the paper's Figure 3 example)",
            structure: "2-D stencil; nine-reference locality group",
            analysis_difficulty: "textbook: prefetch leading corner, release trailing corner",
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
        assert!((250.0..350.0).contains(&mb), "{mb} MB");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn one_prefetch_one_release_for_the_group() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        let nest = &prog.nests[0];
        // Nine reads + the centre write share the group (same coefficients):
        // exactly one leading prefetch and one trailing release among them.
        assert_eq!(nest.prefetch_count(), 1, "one leading prefetch");
        assert_eq!(nest.release_count(), 1, "one trailing release");
        // The release is priority 0: individual refs carry no temporal
        // reuse; the group reuse is consumed within the three-row window.
        let rel = nest.directives.iter().find_map(|d| d.release).unwrap();
        assert_eq!(rel.priority, 0);
        // Leading = a[i+1][j+1] (index 8 of the reads).
        assert!(nest.directives[8].prefetch.is_some());
        // Trailing = a[i-1][j-1] (index 0).
        assert!(nest.directives[0].release.is_some());
    }
}
