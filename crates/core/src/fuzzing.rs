//! Differential fuzz harness for the compiler's hint analyses.
//!
//! Programs from [`compiler::gen`] are driven through the full pipeline
//! (reuse → locality → group → priority → insert) and then through the
//! engine, and differential-checked three ways:
//!
//! 1. **Checked mode stays clean** — every engine run goes through
//!    [`RunRequest::checked`], so the 14 sanitizer probes and the lockstep
//!    oracle audit it; a violation panic is caught and reported as a
//!    [`FuzzFailure::Violation`].
//! 2. **Hints never change semantics** — the executor's computation stream
//!    (touches, compute, marks — everything *except* hint ops) is hashed
//!    for all compiled versions (O/P/R/B); hints may only change paging,
//!    never what the program computes. At engine level, the hinted and
//!    unhinted runs must both complete with the same sweep count.
//! 3. **Eq. 2 metamorphic properties** — relabeling (names), array
//!    renumbering (declaration order), and loop interchange must map the
//!    analyses' outputs predictably: directives invariant for the first
//!    two, temporal sets and priorities swapped bit-for-bit for the third.
//!
//! [`minimize`] shrinks any failing case by greedy deletion (nests → refs
//! → loops → arrays) while the failure reproduces; [`render_case`] writes
//! the result in the committed-corpus format.

use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use compiler::expr::Affine;
use compiler::gen::{self, GenProgram};
use compiler::ir::{ArrayId, Index, LoopId, SourceProgram};
use compiler::{compile, pretty, priority, reuse};
use runtime::ops::{Mark, Op, OpStream};
use runtime::Executor;
use sim_core::fault::FaultPlan;
use sim_core::fingerprint::Fnv1a;
use sim_core::sanitizer::InvariantViolation;
use sim_core::time::SimTime;
use vm::Vpn;
use workloads::BenchSpec;

use crate::machine::MachineConfig;
use crate::request::{RunOutcome, RunRequest};
use crate::scenario::Version;

/// A divergence found by the differential checks.
#[derive(Clone, Debug)]
pub enum FuzzFailure {
    /// Compiling the same program twice produced different output.
    NonDeterministic {
        /// What differed.
        detail: String,
    },
    /// A sanitizer probe or the lockstep oracle fired during a checked run.
    Violation {
        /// Version label (`"O"`, `"R"`, …).
        version: &'static str,
        /// The violated invariant's stable name.
        invariant: &'static str,
        /// Probe detail.
        detail: String,
    },
    /// A checked run panicked with something other than a violation.
    EnginePanic {
        /// Version label.
        version: &'static str,
        /// Panic payload, best-effort stringified.
        message: String,
    },
    /// The engine refused the request.
    EngineError {
        /// Version label.
        version: &'static str,
        /// The error.
        error: String,
    },
    /// Hinted and unhinted executions disagreed on computation.
    SemanticDivergence {
        /// What differed.
        detail: String,
    },
    /// An Eq. 2 metamorphic property did not hold.
    Metamorphic {
        /// Which transform broke and how.
        detail: String,
    },
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::NonDeterministic { detail } => {
                write!(f, "non-deterministic compile: {detail}")
            }
            FuzzFailure::Violation {
                version,
                invariant,
                detail,
            } => write!(f, "[{version}] invariant {invariant} violated: {detail}"),
            FuzzFailure::EnginePanic { version, message } => {
                write!(f, "[{version}] engine panicked: {message}")
            }
            FuzzFailure::EngineError { version, error } => {
                write!(f, "[{version}] engine error: {error}")
            }
            FuzzFailure::SemanticDivergence { detail } => {
                write!(f, "semantic divergence: {detail}")
            }
            FuzzFailure::Metamorphic { detail } => write!(f, "metamorphic break: {detail}"),
        }
    }
}

impl std::error::Error for FuzzFailure {}

/// Backstop against a runaway executor (a generated program is capped at
/// tens of thousands of iterations; hundreds of millions of ops means the
/// executor itself is broken).
const OP_GUARD: u64 = 200_000_000;

fn bases_for(spec: &BenchSpec, page_size: u64) -> Vec<Vpn> {
    let mut next = 0x10u64;
    spec.arrays
        .iter()
        .map(|a| {
            let base = Vpn(next);
            next += a.pages(page_size) + 1;
            base
        })
        .collect()
}

/// Hashes the computation stream (touches, compute, sleeps, marks,
/// iteration count) of `spec` compiled as `version` — hint ops excluded.
///
/// Equal digests across versions prove the inserted directives perturb
/// only paging, never what the program computes (differential check 2).
pub fn semantic_digest(spec: &BenchSpec, version: Version, machine: &MachineConfig) -> u64 {
    let prog = compile(&spec.source, &version.compile_options(machine));
    let bind = spec.bindings(&bases_for(spec, machine.page_size), machine.page_size);
    let mut ex = Executor::new(prog, bind);
    let mut h = Fnv1a::new();
    let mut ops = 0u64;
    loop {
        ops += 1;
        assert!(ops < OP_GUARD, "executor runaway in {}", spec.name);
        match ex.next_op() {
            Op::Compute(d) => {
                h.write_u64(1);
                h.write_u64(d.as_nanos());
            }
            Op::Touch { vpn, write } => {
                h.write_u64(2);
                h.write_u64(vpn.0);
                h.write_bool(write);
            }
            Op::Sleep(d) => {
                h.write_u64(3);
                h.write_u64(d.as_nanos());
            }
            Op::Mark(m) => {
                h.write_u64(4);
                h.write_u64(match m {
                    Mark::SweepStart => 0,
                    Mark::SweepEnd => 1,
                });
            }
            Op::PrefetchHint { .. } | Op::ReleaseHint { .. } | Op::RetireTag { .. } => {}
            Op::End => break,
        }
    }
    h.write_u64(ex.iterations());
    h.finish()
}

/// Per-reference directive summary, ignoring tag numbers (tag order may
/// legitimately differ under array renumbering).
type Skeleton = Vec<Vec<(Option<(u64, Option<LoopId>)>, Option<u32>)>>;

fn directive_skeleton(prog: &compiler::AnnotatedProgram) -> Skeleton {
    prog.nests
        .iter()
        .map(|n| {
            n.directives
                .iter()
                .map(|d| {
                    (
                        d.prefetch.map(|p| (p.distance_pages, p.only_first_iter_of)),
                        d.release.map(|r| r.priority),
                    )
                })
                .collect()
        })
        .collect()
}

/// Differential check 3: the Eq. 2 metamorphic properties.
///
/// # Errors
///
/// Returns [`FuzzFailure::Metamorphic`] if relabeling or renumbering moves
/// any directive, or loop interchange fails to map temporal sets and
/// priorities under the corresponding bit swap.
pub fn metamorphic_check(src: &SourceProgram, machine: &MachineConfig) -> Result<(), FuzzFailure> {
    let opts = Version::Release.compile_options(machine);
    let base = directive_skeleton(&compile(src, &opts));

    // (a) Nest/array relabeling: names must not influence analysis.
    let relabeled = directive_skeleton(&compile(&gen::relabel(src), &opts));
    if base != relabeled {
        return Err(FuzzFailure::Metamorphic {
            detail: format!("{}: relabeling changed directives", src.name),
        });
    }

    // (b) Array renumbering: declaration order must not influence
    // per-reference directives.
    if src.arrays.len() > 1 {
        let perm: Vec<usize> = (0..src.arrays.len()).rev().collect();
        let renumbered = directive_skeleton(&compile(&gen::renumber_arrays(src, &perm), &opts));
        if base != renumbered {
            return Err(FuzzFailure::Metamorphic {
                detail: format!("{}: array renumbering changed directives", src.name),
            });
        }
    }

    // (c) Loop interchange: temporal reuse sets and Eq. 2 priorities must
    // map under the loop swap, bit for bit.
    let page_size = machine.compiler_model.page_size;
    for nest in src.nests.iter().filter(|n| n.depth() >= 2) {
        let pairs = [
            (LoopId(0), LoopId(1)),
            (LoopId(0), LoopId(nest.depth() - 1)),
        ];
        for &(a, b) in pairs.iter().filter(|(a, b)| a != b) {
            let swapped = gen::interchange(nest, a, b);
            let before = reuse::analyze_nest(nest, &src.arrays, page_size);
            let after = reuse::analyze_nest(&swapped, &src.arrays, page_size);
            for (ri, (x, y)) in before.iter().zip(after.iter()).enumerate() {
                let map = |l: LoopId| {
                    if l == a {
                        b
                    } else if l == b {
                        a
                    } else {
                        l
                    }
                };
                let mut want: Vec<LoopId> = x.temporal.iter().map(|&l| map(l)).collect();
                want.sort();
                let mut got = y.temporal.clone();
                got.sort();
                if want != got {
                    return Err(FuzzFailure::Metamorphic {
                        detail: format!(
                            "{}/{} ref {ri}: interchange {:?}<->{:?} mapped temporal {:?}, got {:?}",
                            src.name, nest.name, a, b, want, got
                        ),
                    });
                }
                let p_before = priority::release_priority(&x.temporal);
                let p_after = priority::release_priority(&y.temporal);
                if p_after != gen::swap_priority_bits(p_before, a, b) {
                    return Err(FuzzFailure::Metamorphic {
                        detail: format!(
                            "{}/{} ref {ri}: priority {p_before:#b} did not bit-swap to {p_after:#b}",
                            src.name, nest.name
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

struct EngineOutcome {
    finished: bool,
    sweeps: usize,
    digest: (u64, u64, u64, u64, u64),
}

fn outcome_digest(res: &RunOutcome) -> (u64, u64, u64, u64, u64) {
    (
        res.hog.as_ref().map_or(0, |h| h.finish_time.as_nanos()),
        res.run.swap_reads,
        res.run.swap_writes,
        res.run.vm_stats.releaser.pages_released.get(),
        res.run.end_time.as_nanos(),
    )
}

fn engine_run(
    spec: &BenchSpec,
    version: Version,
    machine: &MachineConfig,
    plan: Option<&FaultPlan>,
) -> Result<EngineOutcome, FuzzFailure> {
    let mut req = RunRequest::on(machine.clone())
        .bench_spec(spec.clone(), version)
        .checked();
    if let Some(p) = plan {
        req = req.fault_plan(*p);
    }
    let label = version.label();
    match catch_unwind(AssertUnwindSafe(move || req.run())) {
        Ok(Ok(out)) => Ok(EngineOutcome {
            finished: out
                .hog
                .as_ref()
                .is_some_and(|h| h.finish_time < SimTime::MAX),
            sweeps: out.hog.as_ref().map_or(0, |h| h.sweeps.len()),
            digest: outcome_digest(&out),
        }),
        Ok(Err(e)) => Err(FuzzFailure::EngineError {
            version: label,
            error: format!("{e:?}"),
        }),
        Err(payload) => match payload.downcast::<InvariantViolation>() {
            Ok(v) => Err(FuzzFailure::Violation {
                version: label,
                invariant: v.invariant,
                detail: v.detail,
            }),
            Err(other) => {
                let message = other
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| other.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(FuzzFailure::EnginePanic {
                    version: label,
                    message,
                })
            }
        },
    }
}

/// Runs every differential check on one spec: compile determinism, the
/// metamorphic properties, executor-level semantic equivalence across all
/// four versions, and checked engine runs of the unhinted (O) and hinted
/// (R) versions.
///
/// Returns a digest of everything observed — equal digests across repeat
/// runs prove bit-reproducibility.
///
/// # Errors
///
/// Returns the first [`FuzzFailure`] found.
pub fn check_case(
    spec: &BenchSpec,
    machine: &MachineConfig,
    plan: Option<&FaultPlan>,
) -> Result<u64, FuzzFailure> {
    // Compile determinism: same input, byte-identical output.
    let opts = Version::Release.compile_options(machine);
    let once = pretty::render_program(&compile(&spec.source, &opts));
    let twice = pretty::render_program(&compile(&spec.source, &opts));
    if once != twice {
        return Err(FuzzFailure::NonDeterministic {
            detail: format!("{}: two compiles rendered differently", spec.name),
        });
    }

    metamorphic_check(&spec.source, machine)?;

    // Check 2, executor level: all four versions compute identically.
    let digests: Vec<(Version, u64)> = Version::ALL
        .iter()
        .map(|&v| (v, semantic_digest(spec, v, machine)))
        .collect();
    if let Some((v, d)) = digests.iter().find(|(_, d)| *d != digests[0].1) {
        return Err(FuzzFailure::SemanticDivergence {
            detail: format!(
                "{}: version {} computation digest {:016x} != O's {:016x}",
                spec.name,
                v.label(),
                d,
                digests[0].1
            ),
        });
    }

    // Check 1 + check 2, engine level: checked runs stay clean, and the
    // hinted run completes exactly like the unhinted one.
    let mut h = Fnv1a::new();
    h.write_str(&spec.name);
    h.write_u64(digests[0].1);
    let mut outcomes = Vec::new();
    for v in [Version::Original, Version::Release] {
        let o = engine_run(spec, v, machine, plan)?;
        h.write_bool(o.finished);
        h.write_u64(o.sweeps as u64);
        let (a, b, c, d, e) = o.digest;
        for x in [a, b, c, d, e] {
            h.write_u64(x);
        }
        outcomes.push(o);
    }
    let (o, r) = (&outcomes[0], &outcomes[1]);
    if o.finished != r.finished || o.sweeps != r.sweeps {
        return Err(FuzzFailure::SemanticDivergence {
            detail: format!(
                "{}: engine O finished={} sweeps={} vs R finished={} sweeps={}",
                spec.name, o.finished, o.sweeps, r.finished, r.sweeps
            ),
        });
    }
    Ok(h.finish())
}

// ---------------------------------------------------------------------------
// Auto-minimizer.
// ---------------------------------------------------------------------------

fn remap_affine_drop(a: &mut Affine, dropped: usize) {
    a.terms.retain(|&(l, _)| l.0 != dropped);
    for t in &mut a.terms {
        if t.0 .0 > dropped {
            t.0 = LoopId(t.0 .0 - 1);
        }
    }
}

fn remap_index_drop(ix: &mut Index, dropped: usize) {
    match ix {
        Index::Affine(a) => remap_affine_drop(a, dropped),
        Index::Indirect { subscript, .. } => remap_affine_drop(subscript, dropped),
    }
}

fn remove_loop(gp: &GenProgram, ni: usize, d: usize) -> GenProgram {
    let mut out = gp.clone();
    let nest = &mut out.source.nests[ni];
    nest.loops.remove(d);
    for (i, l) in nest.loops.iter_mut().enumerate() {
        l.id = LoopId(i);
    }
    for r in &mut nest.refs {
        r.indices.iter_mut().for_each(|ix| remap_index_drop(ix, d));
        if let Some(seen) = &mut r.seen {
            seen.iter_mut().for_each(|ix| remap_index_drop(ix, d));
        }
    }
    out.trips[ni].remove(d);
    out
}

fn drop_unused_arrays(gp: &GenProgram) -> Option<GenProgram> {
    let n = gp.source.arrays.len();
    let mut used = vec![false; n];
    let mark = |used: &mut Vec<bool>, ix: &Index| {
        if let Index::Indirect { via, .. } = ix {
            used[via.0] = true;
        }
    };
    for nest in &gp.source.nests {
        for r in &nest.refs {
            used[r.array.0] = true;
            r.indices.iter().for_each(|ix| mark(&mut used, ix));
            if let Some(seen) = &r.seen {
                seen.iter().for_each(|ix| mark(&mut used, ix));
            }
        }
    }
    if used.iter().all(|&u| u) || used.iter().all(|&u| !u) {
        return None;
    }
    let mut new_id = vec![usize::MAX; n];
    let mut next = 0usize;
    for (old, &u) in used.iter().enumerate() {
        if u {
            new_id[old] = next;
            next += 1;
        }
    }
    let mut out = gp.clone();
    out.source.arrays = gp
        .source
        .arrays
        .iter()
        .filter(|d| used[d.id.0])
        .map(|d| {
            let mut d = d.clone();
            d.id = ArrayId(new_id[d.id.0]);
            d
        })
        .collect();
    out.actual_dims = gp
        .actual_dims
        .iter()
        .enumerate()
        .filter(|(i, _)| used[*i])
        .map(|(_, v)| v.clone())
        .collect();
    let remap_ix = |ix: &mut Index| {
        if let Index::Indirect { via, .. } = ix {
            *via = ArrayId(new_id[via.0]);
        }
    };
    for nest in &mut out.source.nests {
        for r in &mut nest.refs {
            r.array = ArrayId(new_id[r.array.0]);
            r.indices.iter_mut().for_each(remap_ix);
            if let Some(seen) = &mut r.seen {
                seen.iter_mut().for_each(remap_ix);
            }
        }
    }
    out.indirect.retain(|p| used[p.via.0]);
    for p in &mut out.indirect {
        p.via = ArrayId(new_id[p.via.0]);
    }
    Some(out)
}

/// Greedily shrinks `gp` while `still_fails` keeps reproducing: whole
/// nests first, then references, then loops (remapping indices), then
/// unused arrays — to a fixpoint.
///
/// The caller supplies the failure predicate (typically a closure over
/// [`check_case`] with the machine/plan that exposed the bug), so the
/// minimizer reproduces exactly the original failure conditions.
pub fn minimize<F>(gp: &GenProgram, still_fails: F) -> GenProgram
where
    F: Fn(&GenProgram) -> bool,
{
    let ok = |g: &GenProgram| compiler::check_program(&g.source).is_ok() && still_fails(g);
    let mut cur = gp.clone();
    loop {
        let mut changed = false;

        let mut ni = 0;
        while cur.source.nests.len() > 1 && ni < cur.source.nests.len() {
            let mut cand = cur.clone();
            cand.source.nests.remove(ni);
            cand.trips.remove(ni);
            if ok(&cand) {
                cur = cand;
                changed = true;
            } else {
                ni += 1;
            }
        }

        for ni in 0..cur.source.nests.len() {
            let mut ri = 0;
            while ri < cur.source.nests[ni].refs.len() {
                let mut cand = cur.clone();
                cand.source.nests[ni].refs.remove(ri);
                if ok(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    ri += 1;
                }
            }
        }

        for ni in 0..cur.source.nests.len() {
            let mut d = 0;
            while cur.source.nests[ni].depth() > 1 && d < cur.source.nests[ni].depth() {
                let cand = remove_loop(&cur, ni, d);
                if ok(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    d += 1;
                }
            }
        }

        if let Some(cand) = drop_unused_arrays(&cur) {
            if ok(&cand) {
                cur = cand;
                changed = true;
            }
        }

        if !changed {
            return cur;
        }
    }
}

/// Renders a generated case in the committed-corpus format: a header with
/// the seed, IR fingerprint and runtime truth, the source program, and the
/// compiled (prefetch + release) version. Fully deterministic.
pub fn render_case(gp: &GenProgram, machine: &MachineConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# fuzz corpus case");
    let _ = writeln!(out, "# seed: {}", gp.seed);
    let _ = writeln!(out, "# ir-fingerprint: {:016x}", gp.fingerprint());
    let _ = writeln!(out, "# invocations: {}", gp.invocations);
    for (decl, dims) in gp.source.arrays.iter().zip(&gp.actual_dims) {
        let d: Vec<String> = dims.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(out, "# actual {}: [{}]", decl.name, d.join("]["));
    }
    for (ni, trips) in gp.trips.iter().enumerate() {
        let t: Vec<String> = trips
            .iter()
            .map(|t| match t {
                gen::TripPlan::Static => "static".to_string(),
                gen::TripPlan::Actual(v) => format!("actual({v})"),
                gen::TripPlan::Cycle(vs) => {
                    let vs: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                    format!("cycle({})", vs.join("|"))
                }
            })
            .collect();
        let _ = writeln!(out, "# trips n{ni}: {}", t.join(", "));
    }
    for p in &gp.indirect {
        let _ = writeln!(
            out,
            "# indirect via={} seed={:#018x} range={}",
            gp.source.arrays[p.via.0].name, p.seed, p.range
        );
    }
    out.push('\n');
    out.push_str(&pretty::render_source(&gp.source));
    out.push('\n');
    out.push_str("/* --- compiled (prefetch + release) --- */\n");
    out.push_str(&pretty::render_program(&compile(
        &gp.source,
        &Version::Release.compile_options(machine),
    )));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MachineConfig {
        MachineConfig::small()
    }

    #[test]
    fn clean_seeds_pass_every_check() {
        for seed in [0u64, 1, 2, 3] {
            let spec = workloads::fuzz::spec(seed);
            let digest = check_case(&spec, &small(), None).unwrap_or_else(|e| {
                panic!("seed {seed}: {e}");
            });
            // Bit-reproducible.
            assert_eq!(digest, check_case(&spec, &small(), None).unwrap());
        }
    }

    #[test]
    fn semantic_digest_is_version_invariant() {
        let spec = workloads::fuzz::spec(5);
        let m = small();
        let base = semantic_digest(&spec, Version::Original, &m);
        for v in Version::ALL {
            assert_eq!(semantic_digest(&spec, v, &m), base, "{}", v.label());
        }
    }

    #[test]
    fn minimizer_shrinks_to_the_culprit() {
        // Failure predicate: "some nest contains an indirect ref". The
        // minimizer must strip everything else and keep one such nest.
        let mut gp = None;
        for seed in 0..64u64 {
            let g = gen::generate(seed);
            let total_refs: usize = g.source.nests.iter().map(|n| n.refs.len()).sum();
            if total_refs > 3
                && g.source
                    .nests
                    .iter()
                    .any(|n| n.refs.iter().any(|r| !r.fully_affine()))
            {
                gp = Some(g);
                break;
            }
        }
        let gp = gp.expect("an indirect ref appears within 64 seeds");
        let has_indirect = |g: &GenProgram| {
            g.source
                .nests
                .iter()
                .any(|n| n.refs.iter().any(|r| !r.fully_affine()))
        };
        let min = minimize(&gp, has_indirect);
        assert!(has_indirect(&min), "minimizer must preserve the failure");
        let refs: usize = min.source.nests.iter().map(|n| n.refs.len()).sum();
        assert_eq!(min.source.nests.len(), 1, "one nest should survive");
        assert_eq!(refs, 1, "one ref should survive");
        assert!(
            min.source.nests[0].depth() <= gp.source.nests.iter().map(|n| n.depth()).max().unwrap()
        );
        // The minimized program is still valid and still runs clean
        // through the spec assembly.
        let spec = workloads::fuzz::from_gen(min);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn render_case_is_deterministic_and_complete() {
        let gp = gen::generate(9);
        let a = render_case(&gp, &small());
        let b = render_case(&gen::generate(9), &small());
        assert_eq!(a, b);
        assert!(a.contains("# seed: 9"));
        assert!(a.contains("# ir-fingerprint:"));
        assert!(a.contains("/* --- compiled"));
    }
}
