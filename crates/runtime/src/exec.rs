//! Executor for compiled programs.
//!
//! Interprets an [`AnnotatedProgram`] against run-time [`Bindings`],
//! producing the page-granularity [`Op`] stream the simulation engine
//! consumes. Element-level iteration is *fast-forwarded*: consecutive
//! innermost iterations that touch no new page are folded into a single
//! accumulated [`Op::Compute`], so a 52-million-iteration MATVEC sweep
//! costs tens of thousands of ops, not tens of millions — while every page
//! transition, prefetch hint and release hint is emitted exactly where the
//! compiled code would issue it.
//!
//! Hint placement mirrors the software-pipelined output of the pass:
//!
//! * entering the first page of a prefetched reference emits a *prologue*
//!   hint covering the next `distance + 1` pages;
//! * each later page entry emits a steady-state hint for the page
//!   `distance` ahead (in the direction of travel);
//! * each page entry of a released reference emits a release hint for the
//!   *current* page — the run-time layer's one-behind tag filter turns that
//!   into a release of the page just vacated, exactly as in the paper.
//!
//! The program is compiled once, when the executor is built, into a flat
//! *access plan*: per reference its array's base and last page, element
//! size, innermost byte step and directives; per index dimension its
//! extent, row-major stride, affine terms and resolved indirection
//! generator. Each reference is evaluated through its plan once per
//! visited position, and both the page-change check and the fast-forward
//! read that one evaluation. The page size is a power of two, so a page
//! number is a shift and an in-page offset a mask.

use std::ops::Range;

use compiler::expr::Bound;
use compiler::ir::{Index, LoopId};
use compiler::{AnnotatedProgram, RefDirectives};
use sim_core::SimDuration;
use vm::Vpn;

use crate::bindings::{Bindings, IndirectGen, TripSpec};
use crate::ops::{Mark, Op, OpStream};

/// One index dimension compiled against its array's binding. It adds
/// `clamp(constant + Σ coeff·iv, 0, max) · stride` to the reference's
/// linear element offset; for an indirection `a[b[sub]]` the affine part
/// is `sub`, first clamped into `b` and mapped through `b`'s contents.
#[derive(Clone, Debug)]
struct DimPlan {
    constant: i64,
    /// This dimension's `(loop depth, coefficient)` terms in [`Plan::terms`].
    terms: Range<usize>,
    /// Coefficient of the innermost loop: the step per iteration ahead.
    inner: i64,
    /// Highest valid index (`extent - 1`).
    max: i64,
    /// Row-major stride in elements.
    stride: i64,
    via: Option<Via>,
}

/// The index array of an indirection.
#[derive(Clone, Copy, Debug)]
struct Via {
    /// Highest valid subscript into the index array.
    max: i64,
    /// The index array's contents; `None` is the identity.
    gen: Option<IndirectGen>,
}

/// One reference compiled against its array's binding.
#[derive(Clone, Debug)]
struct RefPlan {
    /// This reference's dimensions in [`Plan::dims`].
    dims: Range<usize>,
    base: u64,
    /// The array's last page.
    last_page: u64,
    elem_size: u64,
    /// Highest linear element offset of the array.
    max_linear: i64,
    /// Bytes the reference moves per innermost iteration; `None` when an
    /// index is indirect.
    inner_delta: Option<i64>,
    /// At most one index moves with the innermost loop, so the reference
    /// moves by `inner_delta` per iteration until an edge stops it. With
    /// two or more moving indices, one clamping at an edge can change the
    /// reference's speed and even its direction, so the fast-forward does
    /// not look ahead.
    uniform: bool,
    /// The compiler saw every index as affine, so a prefetch follows the
    /// stream rather than looking ahead through `a[b[i + D]]`.
    seen_affine: bool,
    write: bool,
    dir: RefDirectives,
}

/// One nest: its loops, its references and the tags it retires.
#[derive(Clone, Debug)]
struct NestPlan {
    /// Compile-time bound and run-time trip spec per loop, outermost first.
    loops: Vec<(Bound, TripSpec)>,
    /// This nest's references in [`Plan::refs`].
    refs: Range<usize>,
    work_ns: u64,
    /// Release tags that go out of scope when the nest exits, each once.
    retire: Vec<u32>,
}

/// The whole program compiled against its bindings.
#[derive(Clone, Debug)]
struct Plan {
    terms: Vec<(usize, i64)>,
    dims: Vec<DimPlan>,
    refs: Vec<RefPlan>,
    nests: Vec<NestPlan>,
    page_shift: u32,
    invocations: u32,
}

impl Plan {
    fn new(prog: &AnnotatedProgram, bind: &Bindings) -> Self {
        let elems: Vec<i64> = bind
            .arrays
            .iter()
            .map(|b| b.dims.iter().product())
            .collect();
        let mut plan = Plan {
            terms: Vec::new(),
            dims: Vec::new(),
            refs: Vec::new(),
            nests: Vec::with_capacity(prog.nests.len()),
            page_shift: bind.page_size.trailing_zeros(),
            invocations: bind.invocations,
        };
        for (nest, trips) in prog.nests.iter().zip(&bind.trips) {
            let inner = LoopId(nest.nest.loops.len().saturating_sub(1));
            let first_ref = plan.refs.len();
            for (r, dir) in nest.nest.refs.iter().zip(&nest.directives) {
                let b = &bind.arrays[r.array.0];
                let first_dim = plan.dims.len();
                let mut stride: i64 = 1;
                let mut delta = Some(0i64);
                // Innermost dimension first: the strides build outward.
                for (d, ix) in r.indices.iter().enumerate().rev() {
                    let (affine, via) = match ix {
                        Index::Affine(a) => (a, None),
                        Index::Indirect { via, subscript } => (
                            subscript,
                            Some(Via {
                                max: elems[via.0].max(1) - 1,
                                gen: bind.indirect.get(via).copied(),
                            }),
                        ),
                    };
                    let first_term = plan.terms.len();
                    plan.terms
                        .extend(affine.terms.iter().map(|&(l, c)| (l.0, c)));
                    let extent = b.dims[d].max(1);
                    let step = affine.coeff(inner);
                    delta = delta.filter(|_| via.is_none()).map(|db| db + step * stride);
                    plan.dims.push(DimPlan {
                        constant: affine.constant,
                        terms: first_term..plan.terms.len(),
                        inner: step,
                        max: extent - 1,
                        stride,
                        via,
                    });
                    stride *= extent;
                }
                let moving = plan.dims[first_dim..]
                    .iter()
                    .filter(|d| d.inner != 0)
                    .count();
                plan.refs.push(RefPlan {
                    dims: first_dim..plan.dims.len(),
                    base: b.base_vpn.0,
                    last_page: bind.last_page(r.array).0,
                    elem_size: b.elem_size,
                    max_linear: elems[r.array.0] - 1,
                    inner_delta: delta.map(|db| db * b.elem_size as i64),
                    uniform: moving <= 1,
                    seen_affine: r.fully_affine(),
                    write: r.is_write,
                    dir: *dir,
                });
            }
            let mut retire: Vec<u32> = Vec::new();
            for rel in nest.directives.iter().filter_map(|d| d.release) {
                if !retire.contains(&rel.tag) {
                    retire.push(rel.tag);
                }
            }
            plan.nests.push(NestPlan {
                loops: nest
                    .nest
                    .loops
                    .iter()
                    .map(|l| l.count)
                    .zip(trips.iter().cloned())
                    .collect(),
                refs: first_ref..plan.refs.len(),
                work_ns: nest.nest.work_per_iter_ns,
                retire,
            });
        }
        plan
    }

    /// Linear element offset of `r`, `ahead` innermost iterations past
    /// the position `ivs` (indices clamped into the array's extents).
    fn linear(&self, r: &RefPlan, ivs: &[i64], ahead: i64) -> i64 {
        let mut linear = 0;
        for d in &self.dims[r.dims.clone()] {
            let mut v = d.constant + d.inner * ahead;
            for &(l, c) in &self.terms[d.terms.clone()] {
                v += c * ivs[l];
            }
            if let Some(via) = d.via {
                let sub = v.clamp(0, via.max);
                v = via.gen.map_or(sub, |g| g.value(sub));
            }
            linear += v.clamp(0, d.max) * d.stride;
        }
        linear
    }

    /// The page holding element offset `linear` of `r`'s array.
    fn page(&self, r: &RefPlan, linear: i64) -> Vpn {
        Vpn(r.base + ((linear.max(0) as u64 * r.elem_size) >> self.page_shift))
    }
}

/// The resumable program executor.
///
/// # Examples
///
/// ```
/// use compiler::expr::{Affine, Bound};
/// use compiler::ir::{ArrayRef, Index, LoopId, NestBuilder, SourceProgram};
/// use compiler::{compile, CompileOptions, MachineModel};
/// use runtime::{ArrayBinding, Bindings, Executor, Op, OpStream, TripSpec};
/// use vm::Vpn;
///
/// let mut src = SourceProgram::new("sweep");
/// let n: i64 = 2048 * 2; // two 16 KB pages of f64
/// let a = src.array("a", 8, vec![Bound::Known(n)]);
/// src.nest(
///     NestBuilder::new("main")
///         .counted_loop(Bound::Known(n))
///         .reference(ArrayRef::read(a, vec![Index::aff(Affine::var(LoopId(0)))]))
///         .build(),
/// );
/// let prog = compile(&src, &CompileOptions::original(MachineModel::origin200()));
/// let bind = Bindings {
///     arrays: vec![ArrayBinding { base_vpn: Vpn(100), dims: vec![n], elem_size: 8 }],
///     indirect: Default::default(),
///     page_size: 16 * 1024,
///     trips: vec![vec![TripSpec::Static]],
///     invocations: 1,
/// };
/// let mut ex = Executor::new(prog, bind);
/// // 4096 element iterations collapse to two page touches + compute.
/// let mut touches = 0;
/// loop {
///     match ex.next_op() {
///         Op::End => break,
///         Op::Touch { .. } => touches += 1,
///         _ => {}
///     }
/// }
/// assert_eq!(touches, 2);
/// ```
pub struct Executor {
    plan: Plan,
    invocation: u32,
    nest_idx: usize,
    in_nest: bool,
    ivs: Vec<i64>,
    trips: Vec<i64>,
    /// Each reference's linear offset and page at the position last
    /// processed.
    linear: Vec<i64>,
    pages: Vec<Vpn>,
    last_page: Vec<Option<Vpn>>,
    /// Like `last_page` but never reset on outer-loop carries: tracks the
    /// true stream position for prefetch continuity decisions.
    hint_prev: Vec<Option<Vpn>>,
    prologue_done: Vec<bool>,
    /// Ops generated but not yet returned: `pending[next..]`. Ops are only
    /// generated once every pending op has been returned, so this is a
    /// plain buffer refilled from empty rather than a queue.
    pending: Vec<Op>,
    next: usize,
    acc_compute_ns: u64,
    done: bool,
    /// Total innermost iterations executed (including fast-forwarded).
    iterations: u64,
}

impl Executor {
    /// Creates an executor.
    ///
    /// # Panics
    ///
    /// Panics if the bindings don't cover the program's arrays or nests,
    /// or the page size is not a power of two.
    pub fn new(prog: AnnotatedProgram, bind: Bindings) -> Self {
        assert_eq!(
            prog.arrays.len(),
            bind.arrays.len(),
            "bindings must cover every array"
        );
        assert_eq!(
            prog.nests.len(),
            bind.trips.len(),
            "bindings must cover every nest"
        );
        for (nest, trips) in prog.nests.iter().zip(&bind.trips) {
            assert_eq!(
                nest.nest.loops.len(),
                trips.len(),
                "trip specs must cover every loop of nest {}",
                nest.nest.name
            );
        }
        assert!(
            bind.page_size.is_power_of_two(),
            "page size {} is not a power of two",
            bind.page_size
        );
        Executor {
            plan: Plan::new(&prog, &bind),
            invocation: 0,
            nest_idx: 0,
            in_nest: false,
            ivs: Vec::new(),
            trips: Vec::new(),
            linear: Vec::new(),
            pages: Vec::new(),
            last_page: Vec::new(),
            hint_prev: Vec::new(),
            prologue_done: Vec::new(),
            pending: Vec::new(),
            next: 0,
            acc_compute_ns: 0,
            done: false,
            iterations: 0,
        }
    }

    /// Total innermost iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Which invocation (sweep) is in progress.
    pub fn invocation(&self) -> u32 {
        self.invocation
    }

    /// Enters the next runnable nest; returns false when the program ends.
    ///
    /// Invocation boundaries emit sweep marks, so the engine records a
    /// per-sweep duration for the out-of-core program too (warm-up vs
    /// steady state).
    fn enter_nest(&mut self) -> bool {
        loop {
            if self.invocation == 0 && self.nest_idx == 0 && self.iterations == 0 {
                self.pending.push(Op::Mark(Mark::SweepStart));
            }
            if self.nest_idx >= self.plan.nests.len() {
                // Account the tail of the sweep's compute inside the sweep.
                self.flush_compute();
                self.pending.push(Op::Mark(Mark::SweepEnd));
                self.invocation += 1;
                self.nest_idx = 0;
                if self.invocation >= self.plan.invocations {
                    self.done = true;
                    return false;
                }
                self.pending.push(Op::Mark(Mark::SweepStart));
            }
            let nest = &self.plan.nests[self.nest_idx];
            self.trips.clear();
            for (bound, spec) in &nest.loops {
                self.trips.push(spec.resolve(*bound, self.invocation));
            }
            if self.trips.iter().any(|&t| t <= 0) {
                self.nest_idx += 1;
                continue;
            }
            let nrefs = nest.refs.len();
            self.ivs.clear();
            self.ivs.resize(nest.loops.len(), 0);
            self.linear.clear();
            self.linear.resize(nrefs, 0);
            self.pages.clear();
            self.pages.resize(nrefs, Vpn(0));
            self.last_page.clear();
            self.last_page.resize(nrefs, None);
            self.hint_prev.clear();
            self.hint_prev.resize(nrefs, None);
            self.prologue_done.clear();
            self.prologue_done.resize(nrefs, false);
            self.in_nest = true;
            return true;
        }
    }

    /// Evaluates every reference of the nest at the current position.
    fn evaluate(&mut self) {
        let range = self.plan.nests[self.nest_idx].refs.clone();
        for (i, r) in self.plan.refs[range].iter().enumerate() {
            let linear = self.plan.linear(r, &self.ivs, 0);
            self.linear[i] = linear;
            self.pages[i] = self.plan.page(r, linear);
        }
    }

    /// The page reference `r` will touch `ahead` innermost iterations from
    /// now (None when that lands past the loop bounds).
    fn future_page(&self, r: &RefPlan, ahead: u64) -> Option<Vpn> {
        let inner = self.ivs.len() - 1;
        if self.ivs[inner] + ahead as i64 >= self.trips[inner] {
            return None;
        }
        Some(
            self.plan
                .page(r, self.plan.linear(r, &self.ivs, ahead as i64)),
        )
    }

    /// Iterations, starting at the position just processed, guaranteed to
    /// stay on every reference's current page: at least 1, and no more
    /// than the innermost loop has left.
    fn silent_run(&self) -> i64 {
        let inner = self.trips.len() - 1;
        let page_size = 1u64 << self.plan.page_shift;
        let mut k = (self.trips[inner] - self.ivs[inner]).max(1);
        let range = self.plan.nests[self.nest_idx].refs.clone();
        for (i, r) in self.plan.refs[range].iter().enumerate() {
            let Some(db) = r.inner_delta.filter(|_| r.uniform) else {
                return 1; // indirect or not uniform: cannot look ahead
            };
            if db == 0 {
                continue;
            }
            // Indices clamp at the array bounds; a reference pinned at an
            // edge no longer moves, so it constrains nothing.
            let linear = self.linear[i];
            if (db > 0 && linear >= r.max_linear) || (db < 0 && linear <= 0) {
                continue;
            }
            let in_page = (linear.max(0) as u64 * r.elem_size) & (page_size - 1);
            let until = if db > 0 {
                ((page_size - in_page) as i64 + db - 1) / db
            } else {
                (in_page as i64) / (-db) + 1
            };
            k = k.min(until.max(1));
        }
        k
    }

    /// Advances the induction variables by one; false when the nest ends.
    ///
    /// A carry above the innermost loop resets the per-reference page
    /// tracking: references whose page did not change (a reused vector, a
    /// scalar-like accumulator) are re-touched once per outer iteration, so
    /// the OS observes their reuse — the clock algorithm's sampling and the
    /// releaser's re-reference check both depend on it.
    fn advance(&mut self) -> bool {
        for d in (0..self.ivs.len()).rev() {
            self.ivs[d] += 1;
            if self.ivs[d] < self.trips[d] {
                if d + 1 != self.ivs.len() {
                    self.last_page.fill(None);
                }
                return true;
            }
            self.ivs[d] = 0;
        }
        false
    }

    fn flush_compute(&mut self) {
        if self.acc_compute_ns > 0 {
            self.pending
                .push(Op::Compute(SimDuration::from_nanos(self.acc_compute_ns)));
            self.acc_compute_ns = 0;
        }
    }

    /// Processes the current iteration position; returns true if ops were
    /// emitted.
    fn process_position(&mut self) -> bool {
        self.evaluate();
        if self
            .last_page
            .iter()
            .zip(&self.pages)
            .all(|(last, &page)| *last == Some(page))
        {
            return false;
        }
        self.flush_compute();
        let range = self.plan.nests[self.nest_idx].refs.clone();
        for (i, r) in self.plan.refs[range].iter().enumerate() {
            let page = self.pages[i];
            if self.last_page[i] == Some(page) {
                continue;
            }
            let prev = self.hint_prev[i];

            if let Some(pf) = r.dir.prefetch {
                let allowed = pf.only_first_iter_of.is_none_or(|l| self.ivs[l.0] == 0);
                if allowed {
                    if !r.seen_affine {
                        // Indirect reference: prefetch the page the access
                        // will hit `distance` iterations from now — the
                        // a[b[i+D]] pattern the paper cites for indirect
                        // prefetching.
                        if let Some(target) = self.future_page(r, pf.distance_pages) {
                            self.pending.push(Op::PrefetchHint {
                                vpn: target,
                                npages: 1,
                                tag: pf.tag,
                            });
                        }
                    } else if !self.prologue_done[i]
                        || prev.is_none_or(|p| page.0.abs_diff(p.0) > 1)
                    {
                        // Pipeline (re)start: the stream begins or jumps
                        // discontinuously (e.g. a reused vector re-swept
                        // from its start on each outer iteration). The
                        // software-pipelining prologue covers the pipeline
                        // depth up front, in the stream's direction (the
                        // compiler knows it statically from the stride sign).
                        self.prologue_done[i] = true;
                        let descending = r.inner_delta.is_some_and(|d| d < 0);
                        let (vpn, npages) = if descending {
                            let start = page.0.saturating_sub(pf.distance_pages).max(r.base);
                            (Vpn(start), page.0 - start + 1)
                        } else {
                            (
                                page,
                                (pf.distance_pages + 1).min(r.last_page - page.0 + 1).max(1),
                            )
                        };
                        self.pending.push(Op::PrefetchHint {
                            vpn,
                            npages,
                            tag: pf.tag,
                        });
                    } else {
                        // Steady state: one page, `distance` ahead in the
                        // direction of travel.
                        let ascending = prev.map(|p| page.0 >= p.0).unwrap_or(true);
                        let target = if ascending {
                            page.0.saturating_add(pf.distance_pages)
                        } else {
                            page.0.saturating_sub(pf.distance_pages)
                        };
                        if target >= r.base && target <= r.last_page {
                            self.pending.push(Op::PrefetchHint {
                                vpn: Vpn(target),
                                npages: 1,
                                tag: pf.tag,
                            });
                        }
                    }
                }
            }

            self.pending.push(Op::Touch {
                vpn: page,
                write: r.write,
            });

            if let Some(rel) = r.dir.release {
                self.pending.push(Op::ReleaseHint {
                    vpn: page,
                    priority: rel.priority,
                    tag: rel.tag,
                });
            }
            self.last_page[i] = Some(page);
            self.hint_prev[i] = Some(page);
        }
        true
    }
}

impl OpStream for Executor {
    fn next_op(&mut self) -> Op {
        loop {
            if let Some(&op) = self.pending.get(self.next) {
                self.next += 1;
                return op;
            }
            self.pending.clear();
            self.next = 0;
            if self.done {
                return Op::End;
            }
            if !self.in_nest && !self.enter_nest() {
                self.flush_compute();
                continue;
            }
            // Execute iterations until something is emitted or the nest ends.
            let work_ns = self.plan.nests[self.nest_idx].work_ns;
            loop {
                let emitted = self.process_position();
                // Fast-forward past the iterations that stay on the pages
                // just processed: they emit nothing.
                let skip = self.silent_run() - 1;
                let inner = self.ivs.len() - 1;
                self.ivs[inner] += skip;
                self.acc_compute_ns += (1 + skip as u64) * work_ns;
                self.iterations += 1 + skip as u64;
                if !self.advance() {
                    // The nest is over: its release-directive tags go out
                    // of scope. Retiring them lets the run-time layer
                    // flush each tag's trailing one-behind page and drop
                    // the filter entry (which would otherwise leak one
                    // slot per directive across a long multi-phase run).
                    let retire = &self.plan.nests[self.nest_idx].retire;
                    self.pending
                        .extend(retire.iter().map(|&tag| Op::RetireTag { tag }));
                    self.in_nest = false;
                    self.nest_idx += 1;
                    break;
                }
                if emitted {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::{ArrayBinding, IndirectGen, TripSpec};
    use compiler::expr::{Affine, Bound};
    use compiler::ir::{ArrayRef, Index as Ix, LoopId, NestBuilder, SourceProgram};
    use compiler::{compile, CompileOptions, MachineModel};
    use std::collections::HashMap;

    const PAGE: u64 = 16 * 1024;

    fn l(i: usize) -> LoopId {
        LoopId(i)
    }

    fn machine() -> MachineModel {
        MachineModel::origin200()
    }

    /// 1-D sweep over `n` f64 elements.
    fn sweep_program(n: i64, opts: &CompileOptions) -> (AnnotatedProgram, Bindings) {
        let mut p = SourceProgram::new("sweep");
        let a = p.array("a", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Known(n))
                .work_ns(50)
                .reference(ArrayRef::read(a, vec![Ix::aff(Affine::var(l(0)))]))
                .build(),
        );
        let prog = compile(&p, opts);
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(0x1000),
                dims: vec![n],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static]],
            invocations: 1,
        };
        (prog, bind)
    }

    fn drain(ex: &mut Executor) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = ex.next_op();
            if op == Op::End {
                break;
            }
            ops.push(op);
            assert!(ops.len() < 2_000_000, "runaway op stream");
        }
        ops
    }

    /// The plan of `a[i][j]` over a 10 × 2048 f64 array at page 100:
    /// each row is exactly one 16 KB page.
    fn plan2d() -> Plan {
        let mut p = SourceProgram::new("2d");
        let a = p.array("a", 8, vec![Bound::Known(10), Bound::Known(2048)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Known(10))
                .counted_loop(Bound::Known(2048))
                .reference(ArrayRef::read(
                    a,
                    vec![Ix::aff(Affine::var(l(0))), Ix::aff(Affine::var(l(1)))],
                ))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(100),
                dims: vec![10, 2048],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static, TripSpec::Static]],
            invocations: 1,
        };
        Plan::new(&prog, &bind)
    }

    #[test]
    fn plan_linearizes_row_major() {
        let plan = plan2d();
        let r = &plan.refs[0];
        assert_eq!(plan.linear(r, &[0, 0], 0), 0);
        assert_eq!(plan.linear(r, &[0, 5], 0), 5);
        assert_eq!(plan.linear(r, &[1, 0], 0), 2048);
        assert_eq!(plan.linear(r, &[2, 3], 0), 4099);
        // `ahead` steps the innermost loop.
        assert_eq!(plan.linear(r, &[2, 0], 3), 4099);
        assert_eq!(r.inner_delta, Some(8));
    }

    #[test]
    fn plan_clamps_out_of_range_indices() {
        let plan = plan2d();
        let r = &plan.refs[0];
        assert_eq!(plan.linear(r, &[-5, 0], 0), 0);
        assert_eq!(plan.linear(r, &[0, 9999], 0), 2047);
        assert_eq!(plan.linear(r, &[99, 9999], 0), 10 * 2048 - 1);
    }

    #[test]
    fn plan_maps_offsets_to_pages() {
        let plan = plan2d();
        let r = &plan.refs[0];
        assert_eq!(plan.page(r, 0), Vpn(100));
        assert_eq!(plan.page(r, 2047), Vpn(100));
        assert_eq!(plan.page(r, 2048), Vpn(101));
        assert_eq!(r.last_page, 109);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn page_size_must_be_a_power_of_two() {
        let (prog, mut bind) = sweep_program(16, &CompileOptions::original(machine()));
        bind.page_size = 3 * 1024;
        Executor::new(prog, bind);
    }

    #[test]
    fn sweep_touches_each_page_once() {
        let n = 8192; // 4 pages of 2048 f64
        let (prog, bind) = sweep_program(n, &CompileOptions::original(machine()));
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let touches: Vec<Vpn> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Touch { vpn, .. } => Some(*vpn),
                _ => None,
            })
            .collect();
        assert_eq!(touches.len(), 4);
        assert_eq!(
            touches,
            vec![Vpn(0x1000), Vpn(0x1001), Vpn(0x1002), Vpn(0x1003)]
        );
        assert_eq!(ex.iterations(), n as u64);
        // All compute time is accounted: n × 50 ns.
        let compute: u64 = ops
            .iter()
            .filter_map(|op| match op {
                Op::Compute(d) => Some(d.as_nanos()),
                _ => None,
            })
            .sum();
        assert_eq!(compute, n as u64 * 50);
    }

    #[test]
    fn prefetch_prologue_and_steady_state() {
        let n = 2048 * 8; // 8 pages
        let (prog, bind) = sweep_program(n, &CompileOptions::prefetch_only(machine()));
        let distance = prog.nests[0].directives[0].prefetch.unwrap().distance_pages;
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let hints: Vec<(Vpn, u64)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::PrefetchHint { vpn, npages, .. } => Some((*vpn, *npages)),
                _ => None,
            })
            .collect();
        // Prologue at the first page covers distance+1 pages (clamped to 8).
        assert_eq!(hints[0].0, Vpn(0x1000));
        assert_eq!(hints[0].1, (distance + 1).min(8));
        // Steady-state hints target distance ahead until the array end.
        for &(vpn, npages) in &hints[1..] {
            assert_eq!(npages, 1);
            assert!(vpn.0 <= 0x1007, "no hints beyond the array");
        }
        // The first ops are the sweep mark then a prefetch, before the
        // first touch.
        assert!(matches!(ops[0], Op::Mark(_)));
        assert!(matches!(ops[1], Op::PrefetchHint { .. }));
    }

    #[test]
    fn release_hint_emitted_per_page_with_tag() {
        let n = 2048 * 4;
        let (prog, bind) = sweep_program(n, &CompileOptions::prefetch_and_release(machine()));
        let tag = prog.nests[0].directives[0].release.unwrap().tag;
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let rels: Vec<Vpn> = ops
            .iter()
            .filter_map(|op| match op {
                Op::ReleaseHint { vpn, tag: t, .. } => {
                    assert_eq!(*t, tag);
                    Some(*vpn)
                }
                _ => None,
            })
            .collect();
        // One hint per page, addressed at the page being entered.
        assert_eq!(
            rels,
            vec![Vpn(0x1000), Vpn(0x1001), Vpn(0x1002), Vpn(0x1003)]
        );
    }

    #[test]
    fn matvec_reuses_vector_page() {
        // 2 rows × 2048 f64: x occupies one page touched once per row.
        let n: i64 = 2048;
        let rows: i64 = 3;
        let mut p = SourceProgram::new("mv");
        let a = p.array("a", 8, vec![Bound::Known(rows), Bound::Known(n)]);
        let x = p.array("x", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Known(rows))
                .counted_loop(Bound::Known(n))
                .work_ns(10)
                .reference(ArrayRef::read(
                    a,
                    vec![Ix::aff(Affine::var(l(0))), Ix::aff(Affine::var(l(1)))],
                ))
                .reference(ArrayRef::read(x, vec![Ix::aff(Affine::var(l(1)))]))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let bind = Bindings {
            arrays: vec![
                ArrayBinding {
                    base_vpn: Vpn(0),
                    dims: vec![rows, n],
                    elem_size: 8,
                },
                ArrayBinding {
                    base_vpn: Vpn(100),
                    dims: vec![n],
                    elem_size: 8,
                },
            ],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static, TripSpec::Static]],
            invocations: 1,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let x_touches = ops
            .iter()
            .filter(|op| matches!(op, Op::Touch { vpn, .. } if vpn.0 == 100))
            .count();
        // x's single page is re-entered at the start of each row.
        assert_eq!(x_touches, rows as usize);
        assert_eq!(ex.iterations(), (rows * n) as u64);
    }

    #[test]
    fn indirect_refs_touch_scattered_pages() {
        let n: i64 = 4096;
        let elems: i64 = 1 << 20; // 1M-element target array = 512 pages
        let mut p = SourceProgram::new("gather");
        let a = p.array("a", 8, vec![Bound::Known(elems)]);
        let b = p.array("b", 4, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Known(n))
                .work_ns(20)
                .reference(ArrayRef::read(
                    a,
                    vec![Ix::Indirect {
                        via: b,
                        subscript: Affine::var(l(0)),
                    }],
                ))
                .reference(ArrayRef::read(b, vec![Ix::aff(Affine::var(l(0)))]))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let mut indirect = HashMap::new();
        indirect.insert(
            b,
            IndirectGen {
                seed: 42,
                range: elems as u64,
            },
        );
        let bind = Bindings {
            arrays: vec![
                ArrayBinding {
                    base_vpn: Vpn(0),
                    dims: vec![elems],
                    elem_size: 8,
                },
                ArrayBinding {
                    base_vpn: Vpn(10_000),
                    dims: vec![n],
                    elem_size: 4,
                },
            ],
            indirect,
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static]],
            invocations: 1,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let a_pages: std::collections::HashSet<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Touch { vpn, .. } if vpn.0 < 10_000 => Some(vpn.0),
                _ => None,
            })
            .collect();
        assert!(
            a_pages.len() > 300,
            "random gather spans many pages: {}",
            a_pages.len()
        );
        assert_eq!(ex.iterations(), n as u64);
    }

    #[test]
    fn unknown_bounds_resolved_by_actuals_and_cycle() {
        let mut p = SourceProgram::new("mgrid-like");
        let a = p.array("a", 8, vec![Bound::Known(1 << 20)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Unknown { estimate: 4096 })
                .work_ns(10)
                .reference(ArrayRef::read(a, vec![Ix::aff(Affine::var(l(0)))]))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(0),
                dims: vec![1 << 20],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Cycle(vec![2048, 6144])]],
            invocations: 2,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        assert_eq!(ex.iterations(), 2048 + 6144);
        let touches = ops.iter().filter(|o| matches!(o, Op::Touch { .. })).count();
        // Invocation 0: 1 page; invocation 1: 3 pages.
        assert_eq!(touches, 4);
    }

    #[test]
    fn zero_trip_nest_is_skipped() {
        let mut p = SourceProgram::new("t");
        let a = p.array("a", 8, vec![Bound::Known(100)]);
        p.nest(
            NestBuilder::new("empty")
                .counted_loop(Bound::Unknown { estimate: 100 })
                .reference(ArrayRef::read(a, vec![Ix::aff(Affine::var(l(0)))]))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(0),
                dims: vec![100],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Actual(0)]],
            invocations: 3,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        assert!(
            ops.iter().all(|o| matches!(o, Op::Mark(_))),
            "only sweep marks: {ops:?}"
        );
        assert_eq!(ex.iterations(), 0);
    }

    #[test]
    fn descending_sweep_prefetches_downward() {
        // for i in 0..n { read a[n-1-i] }: the stream walks down through
        // the array; steady-state prefetch hints must target LOWER pages.
        let n: i64 = 2048 * 6; // 6 pages
        let mut p = SourceProgram::new("rev");
        let a = p.array("a", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("rev")
                .counted_loop(Bound::Known(n))
                .work_ns(50)
                .reference(ArrayRef::read(
                    a,
                    vec![Ix::aff(Affine::constant(n - 1).plus_term(l(0), -1))],
                ))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::prefetch_only(machine()));
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(0x1000),
                dims: vec![n],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static]],
            invocations: 1,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let touches: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Touch { vpn, .. } => Some(vpn.0),
                _ => None,
            })
            .collect();
        // Touches descend from the last page to the first.
        assert_eq!(
            touches,
            vec![0x1005, 0x1004, 0x1003, 0x1002, 0x1001, 0x1000]
        );
        // The prologue pipelines DOWNWARD: with a 10 ms latency the
        // distance (98 pages) exceeds the 6-page array, so one prologue
        // hint covers the whole array from its base; steady-state targets
        // fall below the array and are suppressed.
        let hints: Vec<(u64, u64)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::PrefetchHint { vpn, npages, .. } => Some((vpn.0, *npages)),
                _ => None,
            })
            .collect();
        assert_eq!(hints, vec![(0x1000, 6)]);
    }

    #[test]
    fn two_nests_share_one_array() {
        // Nest 1 writes the array forward, nest 2 reads it backward: the
        // executor must reset per-nest state cleanly.
        let n: i64 = 2048 * 3;
        let mut p = SourceProgram::new("shared");
        let a = p.array("a", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("fwd")
                .counted_loop(Bound::Known(n))
                .reference(ArrayRef::write(a, vec![Ix::aff(Affine::var(l(0)))]))
                .build(),
        );
        p.nest(
            NestBuilder::new("bwd")
                .counted_loop(Bound::Known(n))
                .reference(ArrayRef::read(
                    a,
                    vec![Ix::aff(Affine::constant(n - 1).plus_term(l(0), -1))],
                ))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::original(machine()));
        let bind = Bindings {
            arrays: vec![ArrayBinding {
                base_vpn: Vpn(0),
                dims: vec![n],
                elem_size: 8,
            }],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static], vec![TripSpec::Static]],
            invocations: 1,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let touches: Vec<(u64, bool)> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Touch { vpn, write } => Some((vpn.0, *write)),
                _ => None,
            })
            .collect();
        assert_eq!(
            touches,
            vec![
                (0, true),
                (1, true),
                (2, true),
                (2, false),
                (1, false),
                (0, false)
            ]
        );
    }

    #[test]
    fn multiple_invocations_resweep() {
        let (prog, mut bind) = sweep_program(2048 * 2, &CompileOptions::original(machine()));
        bind.invocations = 3;
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let touches = ops.iter().filter(|o| matches!(o, Op::Touch { .. })).count();
        assert_eq!(touches, 2 * 3, "two pages per sweep, three sweeps");
    }

    #[test]
    fn only_first_iter_prefetch_guard() {
        // x[j] with temporal locality in i: prefetch hints only while i == 0.
        let n: i64 = 6144; // x spans 3 pages
        let rows: i64 = 5;
        let mut p = SourceProgram::new("mv");
        let big = p.array("big", 8, vec![Bound::Known(rows), Bound::Known(1 << 21)]);
        let x = p.array("x", 8, vec![Bound::Known(n)]);
        p.nest(
            NestBuilder::new("main")
                .counted_loop(Bound::Known(rows))
                .counted_loop(Bound::Known(n))
                .work_ns(10)
                .reference(ArrayRef::read(
                    big,
                    vec![Ix::aff(Affine::var(l(0))), Ix::aff(Affine::var(l(1)))],
                ))
                .reference(ArrayRef::read(x, vec![Ix::aff(Affine::var(l(1)))]))
                .build(),
        );
        let prog = compile(&p, &CompileOptions::prefetch_only(machine()));
        let x_pf = prog.nests[0].directives[1].prefetch.unwrap();
        assert_eq!(x_pf.only_first_iter_of, Some(l(0)));
        let bind = Bindings {
            arrays: vec![
                ArrayBinding {
                    base_vpn: Vpn(0),
                    dims: vec![rows, 1 << 21],
                    elem_size: 8,
                },
                ArrayBinding {
                    base_vpn: Vpn(900_000),
                    dims: vec![n],
                    elem_size: 8,
                },
            ],
            indirect: HashMap::new(),
            page_size: PAGE,
            trips: vec![vec![TripSpec::Static, TripSpec::Static]],
            invocations: 1,
        };
        let mut ex = Executor::new(prog, bind);
        let ops = drain(&mut ex);
        let x_hints_by_row: Vec<Vpn> = ops
            .iter()
            .filter_map(|op| match op {
                Op::PrefetchHint { vpn, tag, .. } if *tag == x_pf.tag => Some(*vpn),
                _ => None,
            })
            .collect();
        // Hints exist (first row) but far fewer than rows × pages.
        assert!(!x_hints_by_row.is_empty());
        assert!(
            x_hints_by_row.len() <= 3,
            "x prefetched only on the first outer iteration: {x_hints_by_row:?}"
        );
    }
}
