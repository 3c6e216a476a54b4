//! MATVEC — the matrix-vector multiplication kernel.
//!
//! `for i { for j { y[i] += a[i][j] * x[j] } }`, repeated, over an
//! out-of-core data set of ~400 MB: a wide 6 × 6.55M f64 matrix (315 MB)
//! and a 6.55M-element vector (52 MB). Both operands vastly exceed the
//! machine's 75 MB, so the compiler (correctly) concludes that `x`'s
//! temporal reuse across rows cannot be exploited in memory and inserts a
//! release for it **with priority 1** (Eq. 2, reuse carried by the depth-0
//! loop), while the matrix streams at priority 0.
//!
//! This is the benchmark where the aggressive and buffered run-time layers
//! diverge dramatically (paper §4.3): aggressive releasing throws the
//! vector away every row and fights the releaser to get it back; buffering
//! keeps the vector resident and releases only the matrix.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::TripSpec;

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Matrix rows.
pub const ROWS: i64 = 6;
/// Matrix columns = vector length (6.55M f64 ≈ 52 MB).
pub const COLS: i64 = 6_553_600;
/// Sweeps (repeated multiplications).
pub const SWEEPS: u32 = 2;

/// Builds the MATVEC benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("MATVEC");
    let a = p.array("a", 8, vec![Bound::Known(ROWS), Bound::Known(COLS)]);
    let x = p.array("x", 8, vec![Bound::Known(COLS)]);
    let y = p.array("y", 8, vec![Bound::Known(ROWS)]);
    let i = LoopId(0);
    let j = LoopId(1);
    p.nest(
        NestBuilder::new("matvec-main")
            .counted_loop(Bound::Known(ROWS))
            .counted_loop(Bound::Known(COLS))
            .work_ns(35)
            .reference(ArrayRef::read(
                a,
                vec![Index::aff(Affine::var(i)), Index::aff(Affine::var(j))],
            ))
            .reference(ArrayRef::read(x, vec![Index::aff(Affine::var(j))]))
            .reference(ArrayRef::write(y, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    BenchSpec {
        name: "MATVEC".into(),
        source: p,
        arrays: vec![
            ArraySpec {
                dims: vec![ROWS, COLS],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![COLS],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![ROWS],
                elem_size: 8,
            },
        ],
        trips: vec![vec![TripSpec::Static, TripSpec::Static]],
        indirect: HashMap::new(),
        invocations: SWEEPS,
        table2: Table2Row {
            description: "dense matrix-vector multiplication, repeated",
            structure: "multi-dimensional loops with known bounds",
            analysis_difficulty: "essentially perfect; vector reuse exceeds memory",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compiler::{compile, CompileOptions, MachineModel};

    #[test]
    fn data_set_is_about_400_mb() {
        let s = spec();
        let mb = s.data_set_bytes() as f64 / (1024.0 * 1024.0);
        assert!((350.0..450.0).contains(&mb), "{mb} MB");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn compiled_directives_match_the_paper_story() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        let d = &prog.nests[0].directives;
        // Matrix streams at priority 0.
        assert_eq!(d[0].release.unwrap().priority, 0);
        // Vector released with priority 1 (reuse at the i-loop, depth 0).
        assert_eq!(d[1].release.unwrap().priority, 1);
        // y is tiny and reused immediately: never released.
        assert!(d[2].release.is_none());
        // Both big operands are prefetched.
        assert!(d[0].prefetch.is_some());
        assert!(d[1].prefetch.is_some());
    }

    #[test]
    fn iteration_budget_is_tractable() {
        // Raw innermost iterations are ~79M; the page-granularity executor
        // fast-forwards them, but the estimate guards against accidental
        // explosion when editing sizes.
        let s = spec();
        assert!(s.estimated_iterations() < 100_000_000);
    }
}
