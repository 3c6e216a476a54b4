//! FFTPDE — the NAS 3-D FFT PDE solver.
//!
//! Butterfly passes re-sweep the whole 384 MB array once per stage. The
//! stage-carried temporal reuse is real but spans the entire data set, so
//! every release carries a nonzero Eq. 2 priority — and the paper's
//! buffered run-time layer "incorrectly attempt\[s\] to retain pages with no
//! \[exploitable\] reuse", performing "very few useful releases" and failing
//! to keep memory free (the Figure 10b outlier).
//!
//! The paper traces this to strides loaded from memory that make accesses
//! look loop-invariant; we additionally model that literal mechanism on the
//! twiddle-table reference via [`compiler::ir::ArrayRef::seen`]: the
//! compiler sees a stage-indexed scalar access while the run-time access
//! actually strides.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::TripSpec;

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Complex elements of the field (24M × 16 B = 384 MB).
pub const N: i64 = 24_000_000;
/// Butterfly stages per run.
pub const STAGES: i64 = 3;
/// Twiddle-factor table elements.
pub const TWIDDLES: i64 = 65_536;

fn unknown(estimate: i64) -> Bound {
    Bound::Unknown { estimate }
}

/// Builds the FFTPDE benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("FFTPDE");
    let x = p.array("x", 16, vec![unknown(N)]);
    let w = p.array("w", 16, vec![Bound::Known(TWIDDLES)]);
    let (s, t) = (LoopId(0), LoopId(1));

    // Initialization: sequential fill of the field.
    p.nest(
        NestBuilder::new("init")
            .counted_loop(unknown(N))
            .work_ns(30)
            .reference(ArrayRef::write(x, vec![Index::aff(Affine::var(LoopId(0)))]))
            .build(),
    );

    // Butterfly passes: each stage re-sweeps all of x. The stage loop
    // carries (useless) temporal reuse, so releases get priority 1.
    // The twiddle access really strides through w, but its stride comes
    // from memory: the compiler sees a stage-only access.
    let mut tw = ArrayRef::read(
        w,
        vec![Index::aff(
            // Runtime: walk w with a modest stride per butterfly.
            Affine::constant(0).plus_term(t, 1),
        )],
    );
    tw.seen = Some(vec![Index::aff(Affine::var(s))]);
    p.nest(
        NestBuilder::new("butterfly")
            .counted_loop(unknown(STAGES))
            .counted_loop(unknown(N))
            .work_ns(45)
            .reference(ArrayRef::read(x, vec![Index::aff(Affine::var(t))]))
            .reference(ArrayRef::write(x, vec![Index::aff(Affine::var(t))]))
            .reference(tw)
            .build(),
    );

    BenchSpec {
        name: "FFTPDE".into(),
        source: p,
        arrays: vec![
            ArraySpec {
                dims: vec![N],
                elem_size: 16,
            },
            ArraySpec {
                dims: vec![TWIDDLES],
                elem_size: 16,
            },
        ],
        trips: vec![
            vec![TripSpec::Actual(N)],
            vec![TripSpec::Actual(STAGES), TripSpec::Actual(N)],
        ],
        indirect: HashMap::new(),
        invocations: 1,
        table2: Table2Row {
            description: "3-D FFT PDE solver: staged butterfly sweeps over the field",
            structure: "stride changes within a nest; stage-carried reuse spans the data set",
            analysis_difficulty: "spurious/unexploitable reuse → misprioritized releases",
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
        assert!((300.0..450.0).contains(&mb), "{mb} MB");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn butterfly_releases_carry_reuse_priority() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        // init streams at priority 0.
        assert_eq!(prog.nests[0].directives[0].release.unwrap().priority, 0);
        // The butterfly x-group's release has priority 1 (stage reuse,
        // depth 0): buffering will hoard these.
        let bf = &prog.nests[1].directives;
        let rel = bf
            .iter()
            .find_map(|d| d.release)
            .expect("butterfly releases x");
        assert_eq!(rel.priority, 1);
        // The twiddle ref looks stage-indexed to the compiler: temporal
        // reuse in t → locality → never released.
        assert!(bf[2].release.is_none());
    }

    #[test]
    fn seen_override_diverges_from_runtime() {
        let s = spec();
        let tw = &s.source.nests[1].refs[2];
        assert!(tw.seen.is_some());
        // Runtime index depends on t; seen index does not.
        let rt = tw.indices[0].as_affine().unwrap();
        let seen = tw.seen_indices()[0].as_affine().unwrap();
        assert!(rt.uses(LoopId(1)));
        assert!(!seen.uses(LoopId(1)));
    }
}
