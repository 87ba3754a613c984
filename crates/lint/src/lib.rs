//! Electrical rule checking (ERC) for extracted NMOS circuits.
//!
//! ACE's output is "a wirelist identifying each transistor, its size
//! and the electrical nodes connected to it" (paper §1) — exactly the
//! artifact a static checker wants. This crate runs a fixed registry
//! of NMOS sanity rules over an [`ace_core::Extraction`] plus its
//! source layout and emits spanned [`Diagnostic`]s that point back at
//! CIF coordinates, net names, and device locations.
//!
//! The rules (see [`RuleId`]):
//!
//! | rule | default | fires when |
//! |------|---------|------------|
//! | `floating-gate` | error | a gate net has no label and no source/drain connection |
//! | `supply-short` | error | one net carries both a power and a ground label |
//! | `undriven-net` | warning | an unnamed net reaches exactly one source/drain terminal |
//! | `zero-wl-device` | error | a channel is degenerate or below the minimum feature size |
//! | `dangling-cut` | warning | a contact fails to bridge two layers |
//! | `depletion-pullup` | warning | a depletion gate ties to neither terminal |
//! | `conflicting-labels` | warning | one name labels two or more distinct nets |
//!
//! Diagnostics are *backend-stable*: anchored on device locations,
//! label positions, and layout rectangles — never on net ids — so the
//! conformance harness can require identical rule multisets from all
//! five extraction backends.
//!
//! Output formats: single-line text (also the golden-snapshot
//! format, [`render_text`]) and SARIF 2.1.0 ([`to_sarif`]), checked
//! by a structural validator ([`validate_sarif`]) built on
//! [`ace_core::json`].
//!
//! The `acelint` binary fronts all of it:
//!
//! ```text
//! cargo run -p ace_lint -- chip.cif --format sarif
//! ```
//!
//! # Examples
//!
//! ```
//! use ace_core::ExtractOptions;
//! use ace_lint::{extract_text_linted, LintConfig, RuleId};
//!
//! let linted = extract_text_linted(
//!     "L ND; B 500 2000 250 1000;
//!      L NP; B 1500 500 750 1000;
//!      94 A 250 250 ND; 94 B 250 1750 ND;
//!      E",
//!     ExtractOptions::default().with_lints(),
//!     &LintConfig::new(),
//! )?;
//! assert_eq!(linted.diagnostics.len(), 1);
//! assert_eq!(linted.diagnostics[0].rule, RuleId::FloatingGate);
//! assert_eq!(linted.extraction.report.lints_emitted, 1);
//! # Ok::<(), ace_core::ExtractError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod diag;
pub mod emit;
mod engine;
pub mod sarif;

pub use config::LintConfig;
pub use diag::{sort_diagnostics, Anchor, Diagnostic, LintSpan, RuleId, Severity, RULE_COUNT};
pub use emit::render_text;
pub use engine::{extract_library_linted, extract_text_linted, lint, lint_extraction, Linted};
pub use sarif::{sarif_report, to_sarif, validate_sarif, SarifCase};
