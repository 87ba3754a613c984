//! Benchmark harness for the ACE / HEXT reproduction.
//!
//! Each function in [`experiments`] regenerates one table, figure or
//! design-decision ablation of the papers' evaluations and returns it
//! as formatted text with the paper's published numbers or claims
//! alongside the measured ones. The `repro` binary drives them;
//! performance claims belong to `perfbench`, a workspace of its own.
//!
//! Absolute times are of course not comparable with a VAX-11/780 —
//! what must match is the *shape*: linearity of the flat extractor,
//! the O(√N) array behaviour of the hierarchical one, who wins on
//! which chip, and where the time goes.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod paper;

pub use experiments::{run_all, run_experiment, Experiment};
