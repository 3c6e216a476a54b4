//! MGRID — the NAS multigrid benchmark.
//!
//! 3-D stencil sweeps (residual and smoothing) over grids whose extents
//! halve and re-double as the V-cycle descends and ascends. "In MGRID the
//! loop bounds change dynamically on different calls to the same
//! procedures, making it impossible to release memory optimally in all
//! cases, since we only generate a single version of the code" (§4.2).
//! The loop bounds are procedure parameters — unknown to the compiler —
//! and the run-time trips cycle through the V-cycle levels.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::TripSpec;

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Finest grid extent (160³ f64 = 32.8 MB per grid).
pub const N: i64 = 160;
/// The V-cycle levels visited, one per invocation.
pub const LEVELS: [i64; 5] = [160, 80, 40, 80, 160];

fn unknown() -> Bound {
    Bound::Unknown { estimate: N }
}

fn stencil_refs(
    b: NestBuilder,
    grid: compiler::ir::ArrayId,
    i: LoopId,
    j: LoopId,
    k: LoopId,
) -> NestBuilder {
    // Seven-point stencil: ±1 in each dimension plus the centre.
    let offsets: [(i64, i64, i64); 7] = [
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
        (0, 0, 0),
    ];
    let mut b = b;
    for (di, dj, dk) in offsets {
        b = b.reference(ArrayRef::read(
            grid,
            vec![
                Index::aff(Affine::var(i).plus_const(di)),
                Index::aff(Affine::var(j).plus_const(dj)),
                Index::aff(Affine::var(k).plus_const(dk)),
            ],
        ));
    }
    b
}

/// Builds the MGRID benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("MGRID");
    let u = p.array("u", 8, vec![unknown(), unknown(), unknown()]);
    let v = p.array("v", 8, vec![unknown(), unknown(), unknown()]);
    let r = p.array("r", 8, vec![unknown(), unknown(), unknown()]);
    let (i, j, k) = (LoopId(0), LoopId(1), LoopId(2));
    let centre = |g| {
        ArrayRef::write(
            g,
            vec![
                Index::aff(Affine::var(i)),
                Index::aff(Affine::var(j)),
                Index::aff(Affine::var(k)),
            ],
        )
    };

    // resid: r = v - A·u (stencil over u, read v, write r).
    let mut nest = NestBuilder::new("resid")
        .counted_loop(unknown())
        .counted_loop(unknown())
        .counted_loop(unknown())
        .work_ns(55);
    nest = stencil_refs(nest, u, i, j, k);
    nest = nest.reference(ArrayRef::read(
        v,
        vec![
            Index::aff(Affine::var(i)),
            Index::aff(Affine::var(j)),
            Index::aff(Affine::var(k)),
        ],
    ));
    nest = nest.reference(centre(r));
    p.nest(nest.build());

    // psinv: u = u + M·r (stencil over r, update u).
    let mut nest = NestBuilder::new("psinv")
        .counted_loop(unknown())
        .counted_loop(unknown())
        .counted_loop(unknown())
        .work_ns(55);
    nest = stencil_refs(nest, r, i, j, k);
    nest = nest.reference(centre(u));
    p.nest(nest.build());

    let level_trips = || {
        vec![
            TripSpec::Cycle(LEVELS.to_vec()),
            TripSpec::Cycle(LEVELS.to_vec()),
            TripSpec::Cycle(LEVELS.to_vec()),
        ]
    };
    BenchSpec {
        name: "MGRID".into(),
        source: p,
        arrays: vec![
            ArraySpec {
                dims: vec![N, N, N],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![N, N, N],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![N, N, N],
                elem_size: 8,
            },
        ],
        trips: vec![level_trips(), level_trips()],
        indirect: HashMap::new(),
        invocations: LEVELS.len() as u32,
        table2: Table2Row {
            description: "multigrid V-cycle: 3-D stencil sweeps at varying grid levels",
            structure: "multi-dimensional loops with unknown, call-varying bounds",
            analysis_difficulty: "one code version cannot release optimally at every level",
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
        assert!((80.0..150.0).contains(&mb), "{mb} MB");
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn stencil_group_releases_trailing_edge_only() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        // resid: seven u-refs form one group → exactly one release among
        // them; v and r are separate singleton groups.
        let resid = &prog.nests[0];
        let u_releases = resid.directives[..7]
            .iter()
            .filter(|d| d.release.is_some())
            .count();
        let u_prefetches = resid.directives[..7]
            .iter()
            .filter(|d| d.prefetch.is_some())
            .count();
        assert_eq!(u_releases, 1);
        assert_eq!(u_prefetches, 1);
        assert!(resid.directives[7].release.is_some(), "v released");
        assert!(resid.directives[8].release.is_some(), "r released");
    }

    #[test]
    fn levels_cycle_across_invocations() {
        let s = spec();
        let b = s.trips[0][0].resolve(Bound::Unknown { estimate: N }, 0);
        assert_eq!(b, 160);
        assert_eq!(s.trips[0][0].resolve(Bound::Unknown { estimate: N }, 2), 40);
        assert_eq!(
            s.trips[0][0].resolve(Bound::Unknown { estimate: N }, 4),
            160
        );
    }
}
