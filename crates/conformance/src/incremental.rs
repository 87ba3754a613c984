//! Incremental-vs-full conformance: the edit-loop checker.
//!
//! The fuzz loop ([`crate::runner`]) checks that six backends agree
//! on a *static* layout. The incremental extractor makes a stronger
//! claim — that re-extraction after an edit equals a from-scratch
//! extraction of the edited layout — so it gets its own loop: sample
//! a layout strategy, seed an [`IncrementalExtractor`] at each of
//! the [`BAND_COUNTS`], then apply the same several rounds of random
//! edits ([`ace_workloads::edits`]),
//! re-extracting incrementally after each round and comparing
//! against a full flat extraction of the same layout under the
//! harness's comparison policy ([`same_circuit`], of which only the
//! device-count and device-key verdicts count on multi-terminal
//! channels).
//!
//! [`same_circuit`]: ace_wirelist::compare::same_circuit

use ace_core::IncrementalExtractor;
use ace_core::{extract_flat, CircuitExtractor, ExtractError, ExtractOptions, Extraction};
use ace_layout::{FlatLayout, Library};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::backends::BAND_COUNTS;
use crate::harness::{case_seed, compare_one};
use crate::strategies::LayoutStrategy;

/// Edit rounds per case; each round applies 1–4 random operations.
pub const EDIT_ROUNDS: u32 = 4;

/// One failing edit case.
#[derive(Debug, Clone)]
pub struct EditCaseFailure {
    /// Case index within the run.
    pub index: u32,
    /// The per-case seed ([`case_seed`]).
    pub case_seed: u64,
    /// Strategy that generated the base layout.
    pub strategy: String,
    /// The incremental extractor's band count.
    pub bands: usize,
    /// Edit round the mismatch appeared in (0 = before any edit).
    pub round: u32,
    /// Comparison report or extraction error.
    pub detail: String,
}

impl std::fmt::Display for EditCaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "case {} [{}] at {} bands round {}: incremental disagrees with full:\n{}",
            self.index, self.strategy, self.bands, self.round, self.detail
        )
    }
}

fn full_pruned(flat: &FlatLayout) -> Result<Extraction, ExtractError> {
    let mut e = extract_flat(flat.clone(), "conformance", ExtractOptions::new())?;
    e.netlist.prune_floating_nets();
    Ok(e)
}

/// Compares the incremental extractor's current answer against a
/// from-scratch extraction of its current layout. `Ok(None)` on
/// agreement.
fn compare_round(inc: &mut IncrementalExtractor) -> Result<Option<String>, ExtractError> {
    let reference = full_pruned(inc.layout())?;
    let mut got = inc.extract("conformance")?;
    got.netlist.prune_floating_nets();
    let strict = reference.report.multi_terminal_devices == 0;
    Ok(compare_one(&reference, &got.netlist, strict))
}

/// Runs one edit case at every band count: generate the layout for
/// `(seed, index)`, then check incremental-vs-full after the seed
/// extraction and after each of `rounds` edit rounds. Returns the
/// first failure, if any.
pub fn check_edit_case(seed: u64, index: u32, rounds: u32) -> Option<EditCaseFailure> {
    BAND_COUNTS
        .iter()
        .find_map(|&bands| check_edit_case_at(seed, index, rounds, bands))
}

/// [`check_edit_case`] at one band count.
fn check_edit_case_at(seed: u64, index: u32, rounds: u32, bands: usize) -> Option<EditCaseFailure> {
    let cs = case_seed(seed, index);
    let mut rng = ChaCha8Rng::seed_from_u64(cs);
    let strategy = LayoutStrategy::sample(&mut rng);
    let fail = |round: u32, detail: String| {
        Some(EditCaseFailure {
            index,
            case_seed: cs,
            strategy: strategy.name(),
            bands,
            round,
            detail,
        })
    };

    let lib = match Library::from_cif_text(&strategy.generate()) {
        Ok(lib) => lib,
        Err(e) => return fail(0, format!("generated CIF failed to parse: {e}")),
    };
    let mut inc = IncrementalExtractor::new(FlatLayout::from_library(&lib), bands);

    for round in 0..=rounds {
        if round > 0 {
            let ops = rng.gen_range(1..5);
            let diff = ace_workloads::edits::random_edits_with(&mut rng, inc.layout(), ops);
            if let Err(e) = inc.apply(&diff) {
                return fail(round, format!("edit failed to apply: {e}"));
            }
        }
        match compare_round(&mut inc) {
            Ok(None) => {}
            Ok(Some(detail)) => return fail(round, detail),
            Err(e) => return fail(round, format!("extraction failed: {e}")),
        }
    }
    None
}

/// Runs `cases` edit cases, invoking `on_case` after each with the
/// failure (if any), and returns all failures.
pub fn run_edit_cases(
    seed: u64,
    cases: u32,
    on_case: impl FnMut(u32, Option<&EditCaseFailure>),
) -> Vec<EditCaseFailure> {
    let mut on_case = on_case;
    let mut failures = Vec::new();
    for index in 0..cases {
        let failure = check_edit_case(seed, index, EDIT_ROUNDS);
        on_case(index, failure.as_ref());
        if let Some(f) = failure {
            failures.push(f);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_edit_cases_agree() {
        for index in 0..4 {
            if let Some(f) = check_edit_case(1983, index, 2) {
                panic!("edit case diverged: {f}");
            }
        }
    }
}
