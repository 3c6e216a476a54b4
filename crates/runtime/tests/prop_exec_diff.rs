//! Differential testing of the executor: its fast-forwarded,
//! page-coalesced op stream must equal a naive element-at-a-time reference
//! interpreter on random small programs.
//!
//! The specification both implement:
//!
//! * iterations run in lexicographic loop order;
//! * a reference emits a `Touch` whenever the page it addresses differs
//!   from the page it last touched;
//! * a carry above the innermost loop resets that memory (outer-iteration
//!   re-touches), as does (re-)entering a nest;
//! * array indices clamp into the array extents, and an indirection's
//!   subscript clamps into the index array first;
//! * the page of an element is the page of its first byte;
//! * an indirect reference prefetched `D` iterations ahead emits, before
//!   each of its touches, a one-page hint for the page it will address
//!   `D` innermost iterations later — none when that lies past the
//!   innermost loop's end;
//! * total compute time is `iterations × work_per_iter`.
//!
//! Each test draws one shape of program the executor's access plan
//! handles: 2-D affine and indirect references, 1-D affine streams, 1-D
//! gathers with lookahead (BUK, CGM), 3-D stencils clamped at the grid
//! edges (MGRID), and element sizes that do not divide the page size.

use sim_core::check::{self, run_cases};
use sim_core::rng::Pcg32;

use compiler::expr::{Affine, Bound};
use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
use compiler::program::PrefetchDirective;
use compiler::{compile, CompileOptions, MachineModel};
use runtime::{ArrayBinding, Bindings, Executor, IndirectGen, Op, OpStream, TripSpec};
use vm::Vpn;

const PAGE: u64 = 256;
/// Elements of the indirection array `b`.
const IDX_LEN: i64 = 64;
/// Where `b` is mapped; the target array `a` starts at page 0.
const IDX_BASE: u64 = 1 << 20;
const SEED: u64 = 77;

/// One index dimension: a coefficient per loop, plus a constant.
#[derive(Clone, Debug)]
struct DimSpec {
    coeffs: Vec<i64>,
    constant: i64,
}

#[derive(Clone, Debug)]
struct RefSpec {
    /// One per dimension of `a`, outermost first.
    dims: Vec<DimSpec>,
    /// Dimension 0 reads `a[b[dims[0]]]...` instead of `a[dims[0]]...`.
    indirect: bool,
    /// For an indirect reference: prefetch this many iterations ahead.
    lookahead: Option<u64>,
}

#[derive(Clone, Debug)]
struct ProgSpec {
    /// Trip count per loop, outermost first.
    trips: Vec<i64>,
    /// Extents of the target array `a`.
    extents: Vec<i64>,
    elem_size: u64,
    refs: Vec<RefSpec>,
    invocations: u32,
    work_ns: u64,
}

fn small(rng: &mut Pcg32, lo: i64, hi: i64) -> i64 {
    lo + i64::from(rng.next_below((hi - lo) as u32))
}

/// A random index dimension over `loops` loops.
fn dim(rng: &mut Pcg32, loops: usize, coeff: (i64, i64), constant: (i64, i64)) -> DimSpec {
    DimSpec {
        coeffs: (0..loops).map(|_| small(rng, coeff.0, coeff.1)).collect(),
        constant: small(rng, constant.0, constant.1),
    }
}

/// The original shape: two loops over a 24 × 24 f64 array, affine and
/// indirect references with arbitrary small coefficients.
fn random_2d(rng: &mut Pcg32) -> ProgSpec {
    let trips = vec![small(rng, 1, 10), small(rng, 1, 14)];
    let nrefs = check::int_in(rng, 1, 4);
    let refs = (0..nrefs)
        .map(|_| RefSpec {
            dims: (0..2).map(|_| dim(rng, 2, (-2, 3), (-4, 5))).collect(),
            indirect: check::chance(rng, 0.25),
            lookahead: None,
        })
        .collect();
    ProgSpec {
        trips,
        extents: vec![24, 24],
        elem_size: 8,
        refs,
        invocations: check::int_in(rng, 1, 3) as u32,
        work_ns: check::int_in(rng, 1, 100),
    }
}

/// 1-D affine streams over a 1-D array: forward, backward, strided and
/// loop-invariant references, under one or two loops.
fn random_1d_affine(rng: &mut Pcg32) -> ProgSpec {
    let loops = check::int_in(rng, 1, 3) as usize;
    let trips = (0..loops).map(|_| small(rng, 1, 40)).collect();
    let nrefs = check::int_in(rng, 1, 5);
    let refs = (0..nrefs)
        .map(|_| RefSpec {
            dims: vec![dim(rng, loops, (-3, 4), (-8, 90))],
            indirect: false,
            lookahead: None,
        })
        .collect();
    ProgSpec {
        trips,
        extents: vec![small(rng, 1, 160)],
        elem_size: 8,
        refs,
        invocations: check::int_in(rng, 1, 3) as u32,
        work_ns: check::int_in(rng, 1, 100),
    }
}

/// 1-D gathers `a[b[i + k]]` beside the sequential `a[i]`, each gather
/// prefetched a random distance ahead — often past the loop's end.
fn random_1d_indirect(rng: &mut Pcg32) -> ProgSpec {
    let loops = check::int_in(rng, 1, 3) as usize;
    let trips: Vec<i64> = (0..loops).map(|_| small(rng, 1, 30)).collect();
    let inner_trip = trips[loops - 1] as u64;
    let nrefs = check::int_in(rng, 1, 5);
    let refs = (0..nrefs)
        .map(|_| {
            let indirect = check::chance(rng, 0.6);
            RefSpec {
                dims: vec![dim(rng, loops, (0, 3), (-3, 4))],
                indirect,
                lookahead: indirect.then(|| check::int_in(rng, 1, inner_trip + 3)),
            }
        })
        .collect();
    ProgSpec {
        trips,
        extents: vec![small(rng, 32, 400)],
        elem_size: 8,
        refs,
        invocations: check::int_in(rng, 1, 3) as u32,
        work_ns: check::int_in(rng, 1, 100),
    }
}

/// Seven-point-style 3-D stencils: `a[i + di][j + dj][k + dk]` with
/// offsets reaching past the grid on every side, over loops that may run
/// past the grid too, so indices clamp at the edges.
fn random_3d_stencil(rng: &mut Pcg32) -> ProgSpec {
    let extents: Vec<i64> = (0..3).map(|_| small(rng, 2, 9)).collect();
    let trips = extents.iter().map(|&e| small(rng, 1, e + 2)).collect();
    let nrefs = check::int_in(rng, 1, 8);
    let refs = (0..nrefs)
        .map(|_| RefSpec {
            dims: (0..3)
                .map(|d| {
                    let mut coeffs = vec![0; 3];
                    coeffs[d] = 1;
                    DimSpec {
                        coeffs,
                        constant: small(rng, -2, 3),
                    }
                })
                .collect(),
            indirect: false,
            lookahead: None,
        })
        .collect();
    ProgSpec {
        trips,
        extents,
        elem_size: 8,
        refs,
        invocations: check::int_in(rng, 1, 3) as u32,
        work_ns: check::int_in(rng, 1, 100),
    }
}

/// Elements of 3 to 120 bytes whose size does not divide the page size,
/// so elements straddle page boundaries.
fn random_odd_elements(rng: &mut Pcg32) -> ProgSpec {
    let mut spec = if check::chance(rng, 0.5) {
        random_1d_affine(rng)
    } else {
        random_2d(rng)
    };
    spec.elem_size = [3, 12, 24, 40, 56, 120][rng.next_below(6) as usize];
    spec
}

/// Builds the executor for a spec. Arrays: `a` (the target) and `b`
/// (the 1-D indirection source).
fn build(spec: &ProgSpec) -> Executor {
    let mut p = SourceProgram::new("diff");
    let a = p.array(
        "a",
        spec.elem_size,
        spec.extents.iter().map(|&e| Bound::Known(e)).collect(),
    );
    let b = p.array("b", 8, vec![Bound::Known(IDX_LEN)]);
    let affine = |d: &DimSpec| {
        d.coeffs
            .iter()
            .enumerate()
            .fold(Affine::constant(d.constant), |e, (l, &c)| {
                e.plus_term(LoopId(l), c)
            })
    };
    let mut nest = NestBuilder::new("n").work_ns(spec.work_ns);
    for &t in &spec.trips {
        nest = nest.counted_loop(Bound::Known(t));
    }
    for r in &spec.refs {
        let mut indices: Vec<Index> = r.dims.iter().map(|d| Index::aff(affine(d))).collect();
        if r.indirect {
            indices[0] = Index::Indirect {
                via: b,
                subscript: affine(&r.dims[0]),
            };
        }
        nest = nest.reference(ArrayRef::read(a, indices));
    }
    p.nest(nest.build());
    let mut prog = compile(&p, &CompileOptions::original(MachineModel::origin200()));
    for (ri, r) in spec.refs.iter().enumerate() {
        prog.nests[0].directives[ri].prefetch = r.lookahead.map(|d| PrefetchDirective {
            distance_pages: d,
            tag: ri as u32,
            only_first_iter_of: None,
        });
    }
    let bind = Bindings {
        arrays: vec![
            ArrayBinding {
                base_vpn: Vpn(0),
                dims: spec.extents.clone(),
                elem_size: spec.elem_size,
            },
            ArrayBinding {
                base_vpn: Vpn(IDX_BASE),
                dims: vec![IDX_LEN],
                elem_size: 8,
            },
        ],
        indirect: [(b, gen(spec))].into_iter().collect(),
        page_size: PAGE,
        trips: vec![vec![TripSpec::Static; spec.trips.len()]],
        invocations: spec.invocations,
    };
    Executor::new(prog, bind)
}

/// `b`'s contents: values reach a little past `a`'s first extent, so the
/// gathered index clamps too.
fn gen(spec: &ProgSpec) -> IndirectGen {
    IndirectGen {
        seed: SEED,
        range: spec.extents[0] as u64 + 3,
    }
}

/// A hint or a touch, as the comparison sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    Prefetch(u64),
    Touch(u64),
}

/// The page reference `r` addresses at `ivs` (Horner-form row-major
/// linearization, independent of the executor's strides).
fn page(spec: &ProgSpec, r: &RefSpec, ivs: &[i64]) -> u64 {
    let mut linear: i64 = 0;
    for (d, ds) in r.dims.iter().enumerate() {
        let raw = ds.constant + ds.coeffs.iter().zip(ivs).map(|(c, v)| c * v).sum::<i64>();
        let v = if r.indirect && d == 0 {
            gen(spec).value(raw.clamp(0, IDX_LEN - 1))
        } else {
            raw
        };
        let extent = spec.extents[d];
        linear = linear * extent + v.clamp(0, extent - 1);
    }
    (linear as u64 * spec.elem_size) / PAGE
}

/// The reference interpreter: element-at-a-time, by the spec above.
fn brute_force(spec: &ProgSpec) -> (Vec<Event>, u64) {
    let depth = spec.trips.len();
    let inner = depth - 1;
    let mut events = Vec::new();
    let mut compute: u64 = 0;
    for _inv in 0..spec.invocations {
        let mut last: Vec<Option<u64>> = vec![None; spec.refs.len()];
        let mut ivs = vec![0i64; depth];
        'nest: loop {
            for (ri, r) in spec.refs.iter().enumerate() {
                let p = page(spec, r, &ivs);
                if last[ri] == Some(p) {
                    continue;
                }
                if let Some(d) = r.lookahead {
                    let ahead = ivs[inner] + d as i64;
                    if ahead < spec.trips[inner] {
                        let mut future = ivs.clone();
                        future[inner] = ahead;
                        events.push(Event::Prefetch(page(spec, r, &future)));
                    }
                }
                events.push(Event::Touch(p));
                last[ri] = Some(p);
            }
            compute += spec.work_ns;
            // Odometer step; a carry above the innermost loop resets the
            // per-reference page memory.
            let mut d = depth;
            loop {
                if d == 0 {
                    break 'nest;
                }
                d -= 1;
                ivs[d] += 1;
                if ivs[d] < spec.trips[d] {
                    if d != inner {
                        last.fill(None);
                    }
                    break;
                }
                ivs[d] = 0;
            }
        }
    }
    (events, compute)
}

/// Drains the executor into the same event form.
fn drain(ex: &mut Executor) -> (Vec<Event>, u64) {
    let mut events = Vec::new();
    let mut compute = 0u64;
    let mut guard = 0u64;
    loop {
        match ex.next_op() {
            Op::End => break,
            Op::Touch { vpn, .. } => events.push(Event::Touch(vpn.0)),
            Op::PrefetchHint { vpn, npages: 1, .. } => events.push(Event::Prefetch(vpn.0)),
            Op::Compute(d) => compute += d.as_nanos(),
            Op::Mark(_) => {}
            other => panic!("unexpected op {other:?}"),
        }
        guard += 1;
        assert!(guard < 1_000_000, "runaway");
    }
    (events, compute)
}

/// Runs `cases` random programs of one shape through both interpreters.
fn differential(seed: u64, cases: u32, shape: fn(&mut Pcg32) -> ProgSpec) {
    run_cases(seed, cases, |rng| {
        let spec = shape(rng);
        let (got, compute) = drain(&mut build(&spec));
        let (want, want_compute) = brute_force(&spec);
        assert_eq!(got, want, "op sequences differ for {spec:?}");
        assert_eq!(compute, want_compute, "compute differs for {spec:?}");
    });
}

/// The fast-forwarding executor emits exactly the touches of the
/// element-at-a-time reference interpreter, and the same total compute.
#[test]
fn executor_equals_reference_interpreter() {
    differential(0xD1FF, 256, random_2d);
}

#[test]
fn one_dimensional_affine_streams_match_reference() {
    differential(0x1DAF, 256, random_1d_affine);
}

#[test]
fn one_dimensional_gathers_and_lookahead_match_reference() {
    differential(0x1D1D, 256, random_1d_indirect);
}

#[test]
fn three_dimensional_clamped_stencils_match_reference() {
    differential(0x3D57, 256, random_3d_stencil);
}

#[test]
fn element_sizes_not_dividing_the_page_match_reference() {
    differential(0x0DD5, 256, random_odd_elements);
}
