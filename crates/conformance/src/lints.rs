//! Cross-backend lint agreement.
//!
//! `ace_lint` diagnostics are designed to be backend-stable: they
//! anchor on device locations, layout label positions, and contact
//! rectangles — never on net ids or net representative locations.
//! This module turns that design claim into a fuzzed invariant: every
//! backend's netlist, linted against the same flat layout with the
//! default [`LintConfig`], must yield the *identical* sorted
//! diagnostic list (which subsumes the rule-id multiset).
//!
//! The comparison follows the harness's strictness policy: when the
//! reference extraction reports multi-terminal devices, source/drain
//! tie-breaking may legitimately differ between backends, which can
//! flip attachment-count-sensitive rules — those cases are skipped,
//! exactly like the wiring comparison degrades to a census there.

use ace_core::ExtractError;
use ace_layout::{FlatLayout, Library};
use ace_lint::{lint, Diagnostic, LintConfig};
use ace_wirelist::Netlist;

use crate::backends::BackendId;
use crate::harness::{compare_one, extract_pruned, first_divergence, Divergence};

/// The canonical per-backend lint signature: every rendered
/// diagnostic line, in the engine's sorted order.
pub fn lint_signature(netlist: &Netlist, layout: &FlatLayout) -> Vec<String> {
    lint(netlist, layout, &LintConfig::new())
        .iter()
        .map(Diagnostic::render)
        .collect()
}

fn lint_diff(expect: &[String], got: &[String]) -> String {
    let mut out = format!(
        "lint diagnostics differ: {} vs {} from the reference\n",
        got.len(),
        expect.len()
    );
    for line in expect.iter().filter(|l| !got.contains(l)).take(8) {
        out.push_str(&format!("  only from reference: {line}\n"));
    }
    for line in got.iter().filter(|l| !expect.contains(l)).take(8) {
        out.push_str(&format!("  only from backend: {line}\n"));
    }
    out
}

/// [`crate::check_agreement`] plus lint agreement: each backend is
/// extracted once, compared for circuit equivalence, and — when the
/// strict policy applies — for an identical lint signature.
///
/// # Errors
///
/// Propagates reference-backend extraction failures; a non-reference
/// backend erroring is a divergence.
pub fn check_agreement_with_lints(
    lib: &Library,
    backends: &[BackendId],
) -> Result<Option<Divergence>, ExtractError> {
    let reference = extract_pruned(backends[0], lib, 1)?;
    let strict = reference.report.multi_terminal_devices == 0;
    let layout = FlatLayout::from_library(lib);
    let expect = strict.then(|| lint_signature(&reference.netlist, &layout));
    Ok(first_divergence(lib, backends, |other| {
        compare_one(&reference, &other.netlist, strict).or_else(|| {
            let expect = expect.as_ref()?;
            let got = lint_signature(&other.netlist, &layout);
            (&got != expect).then(|| lint_diff(expect, &got))
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::{cells, violations};

    #[test]
    fn backends_lint_the_inverter_identically() {
        let lib = Library::from_cif_text(&cells::inverter_cif()).unwrap();
        assert!(check_agreement_with_lints(&lib, &BackendId::ALL)
            .unwrap()
            .is_none());
    }

    #[test]
    fn backends_lint_every_violation_layout_identically() {
        for (rule, cif) in violations::all() {
            let lib = Library::from_cif_text(&cif).unwrap();
            let outcome = check_agreement_with_lints(&lib, &BackendId::ALL).unwrap();
            assert!(outcome.is_none(), "{rule}: {}", outcome.unwrap());
        }
    }

    #[test]
    fn a_forged_lint_difference_reads_well() {
        let detail = lint_diff(&["error[supply-short] @ (0, 0): x".to_string()], &[]);
        assert!(detail.contains("only from reference"), "{detail}");
    }
}
