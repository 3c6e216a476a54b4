//! Benchmark specification: source program + run-time truth.

use std::collections::HashMap;
use std::fmt;

use compiler::ir::ArrayId;
use compiler::{IrError, SourceProgram};
use runtime::{ArrayBinding, Bindings, IndirectGen, TripSpec};
use vm::Vpn;

/// Run-time truth about one array (what the bindings will say).
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Actual dimension extents (elements).
    pub dims: Vec<i64>,
    /// Element size in bytes.
    pub elem_size: u64,
}

impl ArraySpec {
    /// Total bytes of the array.
    pub fn bytes(&self) -> u64 {
        self.dims.iter().product::<i64>().max(0) as u64 * self.elem_size
    }

    /// Pages the array spans.
    pub fn pages(&self, page_size: u64) -> u64 {
        self.bytes().div_ceil(page_size).max(1)
    }
}

/// One row of the paper's Table 2 (benchmark characteristics).
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// What the benchmark computes.
    pub description: &'static str,
    /// Loop/reference structure, as the paper characterizes it.
    pub structure: &'static str,
    /// Why it is easy or hard for the compiler.
    pub analysis_difficulty: &'static str,
}

/// Why a [`BenchSpec`] cannot run: its source program is malformed, or
/// its run-time truth does not match that program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// The source program fails [`compiler::check_program`].
    Program(Vec<IrError>),
    /// `(declared, specified)`: the array specs do not match the
    /// declarations one to one.
    ArrayCount(usize, usize),
    /// An array spec's rank differs from its declaration's.
    Rank(String),
    /// An array spec's element size differs from its declaration's.
    ElemSize(String),
    /// An array spec's extent differs from a compile-time known one.
    KnownExtent(String),
    /// `(nests, specified)`: the trip specs do not match the nests one to
    /// one.
    NestCount(usize, usize),
    /// A nest's trip specs do not match its loops one to one.
    LoopCount(String),
    /// `(nest, depth)`: a [`TripSpec::Cycle`] with no values.
    EmptyCycle(String, usize),
    /// `(nest, depth)`: [`TripSpec::Static`] on a loop whose bound the
    /// compiler does not know.
    StaticUnknownBound(String, usize),
    /// The spec runs zero invocations.
    ZeroInvocations,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Program(errors) => {
                write!(f, "malformed program:")?;
                for e in errors {
                    write!(f, " {e};")?;
                }
                Ok(())
            }
            SpecError::ArrayCount(declared, specified) => {
                write!(f, "{specified} array specs for {declared} declared arrays")
            }
            SpecError::Rank(a) => write!(f, "array {a}: rank differs from its declaration"),
            SpecError::ElemSize(a) => {
                write!(f, "array {a}: element size differs from its declaration")
            }
            SpecError::KnownExtent(a) => {
                write!(f, "array {a}: extent differs from its known bound")
            }
            SpecError::NestCount(nests, specified) => {
                write!(f, "trip specs for {specified} nests, program has {nests}")
            }
            SpecError::LoopCount(n) => write!(f, "nest {n}: one trip spec per loop required"),
            SpecError::EmptyCycle(n, d) => write!(f, "nest {n}: empty trip cycle at depth {d}"),
            SpecError::StaticUnknownBound(n, d) => {
                write!(
                    f,
                    "nest {n}: static trip spec on the unknown bound at depth {d}"
                )
            }
            SpecError::ZeroInvocations => write!(f, "zero invocations"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete benchmark: compiler input plus execution truth.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Benchmark name (paper spelling).
    pub name: String,
    /// The loop-nest program handed to the compiler.
    pub source: SourceProgram,
    /// Run-time array extents, indexed like `source.arrays`.
    pub arrays: Vec<ArraySpec>,
    /// Run-time trip counts, per nest per loop.
    pub trips: Vec<Vec<TripSpec>>,
    /// Indirection-array contents.
    pub indirect: HashMap<ArrayId, IndirectGen>,
    /// Sweeps over the data set per run.
    pub invocations: u32,
    /// Table 2 row.
    pub table2: Table2Row,
}

impl BenchSpec {
    /// Total data-set size in bytes.
    pub fn data_set_bytes(&self) -> u64 {
        self.arrays.iter().map(ArraySpec::bytes).sum()
    }

    /// Builds executor bindings once the engine has mapped each array at
    /// `bases[i]` (in declaration order) with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `bases` doesn't cover every array.
    pub fn bindings(&self, bases: &[Vpn], page_size: u64) -> Bindings {
        assert_eq!(bases.len(), self.arrays.len(), "one base per array");
        Bindings {
            arrays: self
                .arrays
                .iter()
                .zip(bases)
                .map(|(a, &base_vpn)| ArrayBinding {
                    base_vpn,
                    dims: a.dims.clone(),
                    elem_size: a.elem_size,
                })
                .collect(),
            indirect: self.indirect.clone(),
            page_size,
            trips: self.trips.clone(),
            invocations: self.invocations,
        }
    }

    /// Checks that the spec can run: its source program is well formed,
    /// and its arrays, trip specs and invocation count match that program.
    ///
    /// # Errors
    ///
    /// The first mismatch found, as a [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        compiler::check_program(&self.source).map_err(SpecError::Program)?;
        let decls = &self.source.arrays;
        if self.arrays.len() != decls.len() {
            return Err(SpecError::ArrayCount(decls.len(), self.arrays.len()));
        }
        for (spec, decl) in self.arrays.iter().zip(decls) {
            if spec.dims.len() != decl.dims.len() {
                return Err(SpecError::Rank(decl.name.clone()));
            }
            if spec.elem_size != decl.elem_size {
                return Err(SpecError::ElemSize(decl.name.clone()));
            }
            let mut extents = spec.dims.iter().zip(&decl.dims);
            if extents.any(|(&actual, bound)| bound.known().is_some_and(|v| v != actual)) {
                return Err(SpecError::KnownExtent(decl.name.clone()));
            }
        }
        if self.trips.len() != self.source.nests.len() {
            return Err(SpecError::NestCount(
                self.source.nests.len(),
                self.trips.len(),
            ));
        }
        for (trips, nest) in self.trips.iter().zip(&self.source.nests) {
            if trips.len() != nest.loops.len() {
                return Err(SpecError::LoopCount(nest.name.clone()));
            }
            for (depth, (spec, l)) in trips.iter().zip(&nest.loops).enumerate() {
                match spec {
                    TripSpec::Cycle(vs) if vs.is_empty() => {
                        return Err(SpecError::EmptyCycle(nest.name.clone(), depth));
                    }
                    TripSpec::Static if !l.count.is_known() => {
                        return Err(SpecError::StaticUnknownBound(nest.name.clone(), depth));
                    }
                    _ => {}
                }
            }
        }
        if self.invocations == 0 {
            return Err(SpecError::ZeroInvocations);
        }
        Ok(())
    }

    /// Derives a variant with re-seeded indirection contents (replication
    /// studies: the benchmark's random data changes, its structure does
    /// not). No-op for benchmarks without indirect references.
    pub fn reseed(mut self, seed: u64) -> Self {
        for gen in self.indirect.values_mut() {
            gen.seed = gen
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed);
        }
        self
    }

    /// Estimated innermost iterations for one full run (all invocations),
    /// used to keep simulations tractable.
    pub fn estimated_iterations(&self) -> u64 {
        let mut total: u64 = 0;
        for (trips, nest) in self.trips.iter().zip(&self.source.nests) {
            let mut per_invocation: u64 = 0;
            for inv in 0..self.invocations {
                let mut n: u64 = 1;
                for (spec, l) in trips.iter().zip(&nest.loops) {
                    n = n.saturating_mul(spec.resolve(l.count, inv).max(0) as u64);
                }
                per_invocation = per_invocation.saturating_add(n);
            }
            total = total.saturating_add(per_invocation);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_spec_sizes() {
        let a = ArraySpec {
            dims: vec![4, 2048],
            elem_size: 8,
        };
        assert_eq!(a.bytes(), 4 * 2048 * 8);
        assert_eq!(a.pages(16 * 1024), 4);
    }

    #[test]
    fn bindings_wire_bases() {
        let b = crate::matvec::spec();
        let bases: Vec<Vpn> = (0..b.arrays.len() as u64)
            .map(|i| Vpn(i * 100_000))
            .collect();
        let bind = b.bindings(&bases, 16 * 1024);
        assert_eq!(bind.arrays.len(), b.arrays.len());
        assert_eq!(bind.arrays[1].base_vpn, Vpn(100_000));
    }

    #[test]
    #[should_panic(expected = "one base per array")]
    fn bindings_require_all_bases() {
        crate::matvec::spec().bindings(&[Vpn(0)], 16 * 1024);
    }
}
