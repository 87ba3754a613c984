//! Golden lint snapshots.
//!
//! Two snapshot families live in `conformance/corpus/lints.txt`:
//!
//! * one section per `conformance/corpus/*.cif` replay layout, keyed
//!   by file stem — the same sections `scripts/check.sh` verifies
//!   through `acelint --snapshot` (each file's SARIF rendering must also
//!   pass `validate_sarif`);
//! * one `violation:<rule>` section per `ace_workloads::violations`
//!   layout, pinning that each layout trips exactly its rule.
//!
//! Regenerate after an intentional rule change with:
//!
//! ```text
//! ACE_LINT_RECORD=1 cargo test -p ace_lint --test golden
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ace_core::ExtractOptions;
use ace_layout::{FlatLayout, Library};
use ace_lint::emit::{check_snapshot, merge_snapshot, parse_snapshot};
use ace_lint::{lint, sarif_report, validate_sarif, Diagnostic, LintConfig, RuleId, SarifCase};
use ace_workloads::violations;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conformance/corpus")
}

fn snapshot_path() -> PathBuf {
    corpus_dir().join("lints.txt")
}

fn lint_cif(src: &str) -> Vec<Diagnostic> {
    let lib = Library::from_cif_text(src).expect("corpus CIF parses");
    let ex = ace_core::extract_library(&lib, "golden", ExtractOptions::default())
        .expect("corpus CIF extracts");
    lint(
        &ex.netlist,
        &FlatLayout::from_library(&lib),
        &LintConfig::new(),
    )
}

/// Every `(section key, diagnostics)` pair the snapshot pins.
fn compute_sections() -> Vec<(String, Vec<Diagnostic>)> {
    let mut sections = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cif"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus has layouts");
    for path in files {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let diagnostics = lint_cif(&src);
        // The SARIF the CLI prints for this file must parse and pass
        // the structural validator.
        let sarif = sarif_report(&[SarifCase {
            uri: &path.to_string_lossy(),
            source: Some(&src),
            diagnostics: &diagnostics,
        }]);
        if let Err(e) = validate_sarif(&sarif) {
            panic!("{stem}: emitted SARIF is invalid: {e}");
        }
        sections.push((stem, diagnostics));
    }
    for (rule, cif) in violations::all() {
        sections.push((format!("violation:{rule}"), lint_cif(&cif)));
    }
    sections
}

#[test]
fn lint_output_matches_the_golden_snapshot() {
    let sections = compute_sections();
    if std::env::var_os("ACE_LINT_RECORD").is_some() {
        let merged = merge_snapshot("", &sections);
        std::fs::write(snapshot_path(), merged).expect("write snapshot");
        return;
    }
    let stored = parse_snapshot(
        &std::fs::read_to_string(snapshot_path())
            .expect("conformance/corpus/lints.txt exists (ACE_LINT_RECORD=1 to create)"),
    );
    let mut failures = Vec::new();
    for (key, diags) in &sections {
        if let Err(msg) = check_snapshot(&stored, key, diags) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // And nothing stale points the other way: every stored section
    // still corresponds to a layout we just linted.
    let live: BTreeSet<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    for key in stored.keys() {
        assert!(
            live.contains(key.as_str()),
            "stale snapshot section `== {key}` (ACE_LINT_RECORD=1 to refresh)"
        );
    }
}

#[test]
fn each_violation_layout_trips_exactly_its_rule() {
    for (rule, cif) in violations::all() {
        let expected = RuleId::from_name(rule).expect("violations use real rule names");
        if expected.is_geometric() {
            // DRC layouts must be ERC-clean; the geometric side of
            // the pairing is pinned by `crates/drc/tests/golden.rs`.
            assert_eq!(lint_cif(&cif), vec![], "{rule}: DRC layout not ERC-clean");
            continue;
        }
        let diags = lint_cif(&cif);
        assert!(!diags.is_empty(), "{rule}: layout produced no diagnostics");
        let fired: BTreeSet<RuleId> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(
            fired,
            BTreeSet::from([expected]),
            "{rule}: expected only that rule, got {diags:?}"
        );
    }
}

#[test]
fn every_rule_is_exercised_by_a_violation_layout() {
    let covered: BTreeSet<RuleId> = violations::all()
        .iter()
        .map(|(rule, _)| RuleId::from_name(rule).unwrap())
        .collect();
    let all: BTreeSet<RuleId> = RuleId::ALL.into_iter().collect();
    assert_eq!(covered, all, "every rule needs a violations layout");
}
