//! The paper's workloads.
//!
//! Out-of-core versions of five NAS Parallel benchmarks plus a
//! matrix-vector kernel (Table 2 of the paper), each expressed as a
//! loop-nest [`compiler::SourceProgram`] with run-time
//! [`runtime::Bindings`], and the simulated **interactive task** of §1.1
//! (touch 1 MB, sleep, repeat).
//!
//! Each benchmark reproduces the *access-pattern structure* the paper
//! attributes to it:
//!
//! | benchmark | structure | pathology |
//! |---|---|---|
//! | [`embar`]  | 1-D loops, known bounds | none — "essentially perfect" analysis |
//! | [`matvec`] | multi-dim loops, known bounds | vector reused across rows; aggressive releasing thrashes it |
//! | [`buk`]    | indirect references | random array must not be released |
//! | [`cgm`]    | unknown bounds + indirect | flood of unnecessary hints, filtered at run time |
//! | [`mgrid`]  | unknown bounds changing per call | one code version cannot release optimally |
//! | [`fftpde`] | stride changes within a nest | compiler sees spurious temporal reuse |
//!
//! Data sets are sized relative to the simulated 75 MB machine exactly as
//! the paper sized them against its real one (several times physical
//! memory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arrivals;
pub mod buk;
pub mod cgm;
pub mod embar;
pub mod fftpde;
pub mod fuzz;
pub mod interactive;
pub mod matvec;
pub mod mgrid;
pub mod spec;
pub mod stencil;

pub use adversary::AdversaryTask;
pub use arrivals::{ArrivalProcess, FleetArrival, FleetHog, FleetSpec, SurgeSpec, ZipfTenants};
pub use interactive::InteractiveTask;
pub use spec::{ArraySpec, BenchSpec, SpecError, Table2Row};

/// All six out-of-core benchmarks, in the paper's presentation order.
pub fn all_benchmarks() -> Vec<BenchSpec> {
    vec![
        embar::spec(),
        matvec::spec(),
        buk::spec(),
        cgm::spec(),
        mgrid::spec(),
        fftpde::spec(),
    ]
}

/// The paper's six benchmarks plus this reproduction's extensions
/// (currently [`stencil`], the §2.4 example).
pub fn extended_benchmarks() -> Vec<BenchSpec> {
    let mut all = all_benchmarks();
    all.push(stencil::spec());
    all
}

/// Looks a benchmark up by (case-insensitive) name, including extensions.
pub fn benchmark(name: &str) -> Option<BenchSpec> {
    extended_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks_present() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 6);
        let names: Vec<&str> = all.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["EMBAR", "MATVEC", "BUK", "CGM", "MGRID", "FFTPDE"]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(benchmark("matvec").is_some());
        assert!(benchmark("Buk").is_some());
        assert!(benchmark("stencil").is_some(), "extensions resolvable");
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn extended_set_adds_stencil_only() {
        let ext = extended_benchmarks();
        assert_eq!(ext.len(), 7);
        assert_eq!(ext.last().unwrap().name, "STENCIL");
    }

    #[test]
    fn all_benchmarks_are_out_of_core() {
        // Every data set exceeds the 75 MB machine.
        for b in all_benchmarks() {
            let mb = b.data_set_bytes() as f64 / (1024.0 * 1024.0);
            assert!(mb > 75.0, "{} is only {mb:.1} MB", b.name);
            assert!(mb < 600.0, "{} is implausibly large: {mb:.1} MB", b.name);
        }
    }

    #[test]
    fn all_specs_internally_consistent() {
        for b in all_benchmarks() {
            assert_eq!(b.validate(), Ok(()), "{}", b.name);
        }
    }

    #[test]
    fn all_sources_pass_the_fallible_checker() {
        for b in extended_benchmarks() {
            if let Err(errs) = compiler::check_program(&b.source) {
                panic!("{}: {errs:?}", b.name);
            }
        }
    }
}
