//! Differential conformance harness for the six ACE extractor
//! backends.
//!
//! The repository ships six independent implementations of the same
//! job — `ace-flat`, `ace-lazy`, `ace-banded`, `hext`, `partlist`,
//! `cifplot` — which is a standing invitation to differential
//! testing: generate random NMOS layouts, run all six, and any
//! disagreement is a bug in at least one of them. This crate is that
//! harness:
//!
//! * [`strategies`] — seeded random layout generation (box soups,
//!   BHH squares, mesh fragments, perturbed leaf cells, hierarchical
//!   CIF with transforms and `94` labels, plus overlay/label
//!   combinators). Everything is λ-aligned so the raster backends
//!   are exact, keeping "agreement" a hard requirement rather than a
//!   statistical hope.
//! * [`backends`] — the six backends as nameable, instantiable
//!   units behind [`ace_core::CircuitExtractor`].
//! * [`harness`] — differential execution and the comparison policy
//!   ([`ace_wirelist::compare::same_circuit`]; when multi-terminal
//!   tie-breaking makes the wiring comparison unsound, only its
//!   device-count and device-key verdicts count).
//! * [`incremental`] — the edit-loop checker: apply random edits to
//!   a generated layout and verify `ace_core`'s incremental
//!   re-extraction against a from-scratch extraction after each.
//! * [`lints`] — lint agreement: every backend's netlist must
//!   produce the identical `ace_lint` diagnostic list (spans are
//!   backend-stable by design; this fuzzes that claim).
//! * [`parasitics`] — parasitic agreement: every backend's per-net
//!   parasitic totals must match, and the reference accumulator must
//!   equal an independent brute-force union computation (coordinate
//!   compression, no scanline).
//! * [`drc`] — design-rule agreement: `ace_drc`'s sweep-style
//!   checker must match a brute-force compressed-grid oracle and
//!   stay invariant under re-fracturing (reversed feed order, band
//!   splits at the sweep cut lines).
//! * `grid` — the one coordinate-compressed grid both brute-force
//!   oracles ([`parasitics`], [`drc`]) color; it shares no code with
//!   the interval machinery of the checkers they judge.
//! * [`shrink`](mod@shrink) — oracle-driven delta debugging of divergent
//!   layouts: drop boxes, shrink extents, flatten symbols,
//!   re-λ-align, normalize.
//! * [`runner`] — the fuzz loop tying the above together, writing
//!   minimal repros to `conformance/repros/<seed>.cif`.
//! * [`corpus`] — golden replay of `conformance/corpus/*.cif`
//!   against checked-in canonical signatures.
//!
//! The CLI lives in `src/bin/conformance.rs`:
//!
//! ```text
//! cargo run -p ace_conformance --bin conformance -- --seed 1983 --cases 256
//! ```
//!
//! # Examples
//!
//! ```
//! use ace_conformance::backends::BackendId;
//! use ace_conformance::harness::check_agreement;
//! use ace_layout::Library;
//!
//! let lib = Library::from_cif_text(&ace_workloads::cells::inverter_cif())?;
//! assert!(check_agreement(&lib, &BackendId::ALL)?.is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod backends;
pub mod corpus;
pub mod drc;
mod grid;
pub mod harness;
pub mod incremental;
pub mod lints;
pub mod parasitics;
pub mod runner;
pub mod shrink;
pub mod strategies;

pub use backends::{parse_backend_list, BackendId};
pub use drc::{check_agreement_with_drc, drc_check, oracle_violations};
pub use harness::{case_seed, check_agreement, diverges, Divergence};
pub use incremental::{check_edit_case, run_edit_cases, EditCaseFailure};
pub use lints::{check_agreement_with_lints, lint_signature};
pub use parasitics::{check_agreement_with_parasitics, oracle_check, parasitic_signature};
pub use runner::{run, run_with, DivergentCase, RunConfig, RunSummary};
pub use shrink::{shrink, shrink_with_budget, ShrinkStats};
pub use strategies::LayoutStrategy;
