//! Experiment runners — one per table/figure of the paper.
//!
//! | module | regenerates |
//! |---|---|
//! | [`tables`] | Table 1 (hardware) and Table 2 (benchmark characteristics) |
//! | [`fig01`]  | Figure 1 — interactive response vs sleep time, MATVEC O/P |
//! | [`fig05`]  | Figure 5 — compiler output for MATVEC |
//! | [`suite`]  | Figures 7, 8, 9, 10(b), 10(c) and Table 3 from the 6 × 4 co-runs |
//! | [`fig10a`] | Figure 10(a) — response vs sleep for all four MATVEC versions |
//!
//! Each runner returns render-ready [`crate::report::TextTable`]s /
//! [`sim_core::stats::Series`] and can persist text + CSV artifacts.

pub mod fig01;
pub mod fig05;
pub mod fig10a;
pub mod suite;
pub mod tables;
