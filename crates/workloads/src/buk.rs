//! BUK — the NAS integer ("bucket") sort.
//!
//! "The data set consists of two very large sequentially-accessed arrays
//! and a third equally large randomly-accessed array. The compiler inserts
//! releases for the first two, but does not try to release the third
//! because it cannot reason about any locality that may exist. The result
//! is that demand for new pages is satisfied by the releases of the first
//! two arrays and the pages of the third array are able to remain mostly
//! in memory." (paper §4.3)
//!
//! Structure here: a key array `key` is read sequentially and scattered
//! into a large `rank` array via indirection (`rank[key[i]]`); a second
//! pass copies keys sequentially to `keyout`.

use std::collections::HashMap;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use runtime::{IndirectGen, TripSpec};

use crate::spec::{ArraySpec, BenchSpec, Table2Row};

/// Number of keys per pass (kept modest: indirect loops execute at element
/// granularity in the simulator). Keys are 64-byte records, so the two
/// sequential arrays are 64 MB each — "very large", as the paper says.
pub const KEYS: i64 = 1_000_000;
/// Element size of the key records.
pub const KEY_ELEM: u64 = 64;
/// Size of the randomly-accessed rank array (8.19M f64 ≈ 64 MB — just
/// under physical memory, so it *can* remain resident when the released
/// key streams satisfy the demand for new pages, and loses pages to the
/// clock otherwise).
pub const RANKS: i64 = 8_192_000;
/// Ranking passes.
pub const PASSES: u32 = 2;

/// Builds the BUK benchmark.
pub fn spec() -> BenchSpec {
    let mut p = SourceProgram::new("BUK");
    let key = p.array("key", KEY_ELEM, vec![Bound::Known(KEYS)]);
    let rank = p.array("rank", 8, vec![Bound::Known(RANKS)]);
    let keyout = p.array("keyout", KEY_ELEM, vec![Bound::Known(KEYS)]);
    let i = LoopId(0);
    p.nest(
        NestBuilder::new("rank-scatter")
            .counted_loop(Bound::Known(KEYS))
            .work_ns(60)
            .reference(ArrayRef::read(key, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::write(
                rank,
                vec![Index::Indirect {
                    via: key,
                    subscript: Affine::var(i),
                }],
            ))
            .build(),
    );
    p.nest(
        NestBuilder::new("key-copy")
            .counted_loop(Bound::Known(KEYS))
            .work_ns(25)
            .reference(ArrayRef::read(key, vec![Index::aff(Affine::var(i))]))
            .reference(ArrayRef::write(keyout, vec![Index::aff(Affine::var(i))]))
            .build(),
    );
    let mut indirect = HashMap::new();
    indirect.insert(
        key,
        IndirectGen {
            seed: 0xB0B,
            range: RANKS as u64,
        },
    );
    BenchSpec {
        name: "BUK".into(),
        source: p,
        arrays: vec![
            ArraySpec {
                dims: vec![KEYS],
                elem_size: KEY_ELEM,
            },
            ArraySpec {
                dims: vec![RANKS],
                elem_size: 8,
            },
            ArraySpec {
                dims: vec![KEYS],
                elem_size: KEY_ELEM,
            },
        ],
        trips: vec![vec![TripSpec::Static], vec![TripSpec::Static]],
        indirect,
        invocations: PASSES,
        table2: Table2Row {
            description: "integer bucket sort: sequential key streams + random rank scatter",
            structure: "1-D loops; indirect references (rank[key[i]])",
            analysis_difficulty:
                "indirect refs unanalyzable; released arrays shield the random one",
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
    fn random_array_is_never_released() {
        let s = spec();
        let prog = compile(
            &s.source,
            &CompileOptions::prefetch_and_release(MachineModel::origin200()),
        );
        // Nest 0: key (seq) released, rank (indirect) not.
        let d0 = &prog.nests[0].directives;
        assert!(d0[0].release.is_some(), "sequential key array released");
        assert!(
            d0[1].release.is_none(),
            "indirect rank array never released"
        );
        // Nest 1: both sequential arrays released at priority 0.
        let d1 = &prog.nests[1].directives;
        assert_eq!(d1[0].release.unwrap().priority, 0);
        assert_eq!(d1[1].release.unwrap().priority, 0);
    }

    #[test]
    fn indirect_loop_iteration_budget() {
        // The scatter loop runs at element granularity: keep it ≤ ~4M.
        let s = spec();
        assert!(s.estimated_iterations() <= 8_000_000);
    }
}
