//! Reuse analysis.
//!
//! Identifies the intrinsic data reuse of each reference, per loop of the
//! enclosing nest:
//!
//! * **Temporal reuse** in loop `L`: successive iterations of `L` access the
//!   *same element* — true exactly when no index dimension depends on `L`.
//! * **Spatial reuse** in loop `L`: successive iterations of `L` access the
//!   *same page* most of the time — true when `L` appears only in the last
//!   (fastest-varying, row-major) dimension with a small stride relative to
//!   the page size.
//!
//! Indirect references have no statically analyzable reuse.

use crate::ir::{ArrayDecl, ArrayRef, LoopId, LoopNest};

/// Reuse of one reference across the loops of its nest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseInfo {
    /// Whether the reference was analyzable at all (fully affine).
    pub analyzable: bool,
    /// Loops carrying temporal reuse, outermost first.
    pub temporal: Vec<LoopId>,
    /// Loops carrying page-granularity spatial reuse, outermost first.
    pub spatial: Vec<LoopId>,
}

impl ReuseInfo {
    /// Whether the reference has temporal reuse in any loop.
    pub fn has_temporal(&self) -> bool {
        !self.temporal.is_empty()
    }
}

/// Analyzes one reference within its nest.
pub fn analyze_ref(nest: &LoopNest, decl: &ArrayDecl, r: &ArrayRef, page_size: u64) -> ReuseInfo {
    if !r.fully_affine() {
        return ReuseInfo::default();
    }
    let indices = r.seen_indices();
    let mut info = ReuseInfo {
        analyzable: true,
        ..ReuseInfo::default()
    };
    let last_dim = indices.len() - 1;
    for l in &nest.loops {
        let used_dims: Vec<usize> = indices
            .iter()
            .enumerate()
            .filter(|(_, ix)| ix.as_affine().is_some_and(|a| a.uses(l.id)))
            .map(|(d, _)| d)
            .collect();
        if used_dims.is_empty() {
            info.temporal.push(l.id);
            continue;
        }
        if used_dims == [last_dim] {
            let stride = indices[last_dim]
                .as_affine()
                .expect("affine checked above")
                .coeff(l.id)
                .unsigned_abs();
            // Small stride in the fastest dimension: multiple iterations per
            // page ⇒ spatial reuse at page granularity.
            if stride * decl.elem_size < page_size {
                info.spatial.push(l.id);
            }
        }
    }
    info
}

/// Analyzes every reference of a nest; result is indexed like `nest.refs`.
pub fn analyze_nest(nest: &LoopNest, arrays: &[ArrayDecl], page_size: u64) -> Vec<ReuseInfo> {
    nest.refs
        .iter()
        .map(|r| analyze_ref(nest, &arrays[r.array.0], r, page_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Affine, Bound};
    use crate::ir::{ArrayRef, Index, NestBuilder, SourceProgram};

    const PAGE: u64 = 16 * 1024;

    fn l(i: usize) -> LoopId {
        LoopId(i)
    }

    /// `for i in N { for j in M { ... } }` over `a[N][M]` (f64), plus a 1-D
    /// vector `x[M]`.
    fn two_level() -> SourceProgram {
        let mut p = SourceProgram::new("t");
        let _a = p.array("a", 8, vec![Bound::Known(1000), Bound::Known(1000)]);
        let _x = p.array("x", 8, vec![Bound::Known(1000)]);
        p
    }

    fn nest2(refs: Vec<ArrayRef>) -> crate::ir::LoopNest {
        let mut b = NestBuilder::new("n")
            .counted_loop(Bound::Known(1000))
            .counted_loop(Bound::Known(1000));
        for r in refs {
            b = b.reference(r);
        }
        b.build()
    }

    #[test]
    fn matvec_vector_has_outer_temporal_reuse() {
        // x[j] inside for-i, for-j: temporal reuse in i.
        let p = two_level();
        let x = p.arrays[1].id;
        let nest = nest2(vec![ArrayRef::read(x, vec![Index::aff(Affine::var(l(1)))])]);
        let info = analyze_ref(&nest, &p.arrays[1], &nest.refs[0], PAGE);
        assert!(info.analyzable);
        assert_eq!(info.temporal, vec![l(0)]);
        assert_eq!(info.spatial, vec![l(1)], "unit stride in j is spatial");
    }

    #[test]
    fn matrix_ref_has_spatial_only() {
        // a[i][j]: no temporal reuse; spatial in j.
        let p = two_level();
        let a = p.arrays[0].id;
        let nest = nest2(vec![ArrayRef::read(
            a,
            vec![Index::aff(Affine::var(l(0))), Index::aff(Affine::var(l(1)))],
        )]);
        let info = analyze_ref(&nest, &p.arrays[0], &nest.refs[0], PAGE);
        assert!(info.temporal.is_empty());
        assert_eq!(info.spatial, vec![l(1)]);
    }

    #[test]
    fn scalar_like_ref_temporal_in_inner() {
        // y[i]: temporal reuse in j (inner), spatial none for j.
        let p = two_level();
        let x = p.arrays[1].id;
        let nest = nest2(vec![ArrayRef::write(
            x,
            vec![Index::aff(Affine::var(l(0)))],
        )]);
        let info = analyze_ref(&nest, &p.arrays[1], &nest.refs[0], PAGE);
        assert_eq!(info.temporal, vec![l(1)]);
    }

    #[test]
    fn large_stride_kills_spatial_reuse() {
        // x[4096*j] with 8-byte elements strides a full 32 KB per iteration.
        let p = two_level();
        let x = p.arrays[1].id;
        let nest = nest2(vec![ArrayRef::read(
            x,
            vec![Index::aff(Affine::constant(0).plus_term(l(1), 4096))],
        )]);
        let info = analyze_ref(&nest, &p.arrays[1], &nest.refs[0], PAGE);
        assert!(info.spatial.is_empty());
        assert_eq!(info.temporal, vec![l(0)]);
    }

    #[test]
    fn indirect_ref_unanalyzable() {
        let mut p = SourceProgram::new("t");
        let a = p.array("a", 8, vec![Bound::Known(100)]);
        let b = p.array("b", 4, vec![Bound::Known(100)]);
        let nest = NestBuilder::new("n")
            .counted_loop(Bound::Known(100))
            .reference(ArrayRef::read(
                a,
                vec![Index::Indirect {
                    via: b,
                    subscript: Affine::var(l(0)),
                }],
            ))
            .build();
        let info = analyze_ref(&nest, &p.arrays[0], &nest.refs[0], PAGE);
        assert!(!info.analyzable);
        assert!(!info.has_temporal());
    }

    #[test]
    fn seen_overrides_runtime_for_analysis() {
        // Runtime strides through x, but the compiler "sees" a
        // loop-invariant access (FFTPDE pathology) and reports temporal
        // reuse it does not really have.
        let p = two_level();
        let x = p.arrays[1].id;
        let mut r = ArrayRef::read(x, vec![Index::aff(Affine::var(l(1)))]);
        r.seen = Some(vec![Index::aff(Affine::constant(0))]);
        let nest = nest2(vec![r]);
        let info = analyze_ref(&nest, &p.arrays[1], &nest.refs[0], PAGE);
        assert_eq!(info.temporal, vec![l(0), l(1)], "spurious temporal reuse");
    }

    #[test]
    fn analyze_nest_indexes_like_refs() {
        let p = two_level();
        let a = p.arrays[0].id;
        let x = p.arrays[1].id;
        let nest = nest2(vec![
            ArrayRef::read(
                a,
                vec![Index::aff(Affine::var(l(0))), Index::aff(Affine::var(l(1)))],
            ),
            ArrayRef::read(x, vec![Index::aff(Affine::var(l(1)))]),
        ]);
        let infos = analyze_nest(&nest, &p.arrays, PAGE);
        assert_eq!(infos.len(), 2);
        assert!(infos[0].temporal.is_empty());
        assert_eq!(infos[1].temporal, vec![l(0)]);
    }
}
