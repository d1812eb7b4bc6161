#![warn(missing_docs)]

//! # skalla-bench
//!
//! The experiment library behind the figure-reproduction binaries
//! (`fig2_group_reduction`, `fig3_coalescing`, `fig4_sync_reduction`,
//! `fig5_scaleup`, `transfer_bound`) and the `BENCH_*.json` binaries.
//!
//! [`queries`] builds the paper's §5 test queries over the TPCR relation;
//! [`harness`] sets up partitioned warehouses, runs plan variants, and
//! formats result series the way the paper's figures report them.

pub mod harness;
pub mod queries;

pub use harness::{arg_f64, arg_flag, arg_usize, run_variant, ExperimentSetup, RunRecord};
pub use queries::{coalescible_query, correlated_query, single_gmdj_query};
