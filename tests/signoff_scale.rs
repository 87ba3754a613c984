//! Chip-scale signoff agreement on a generated chip proxy: DRC against
//! the brute-force conformance oracle, which shares none of the
//! checker's neighbourhood queries, and lint over the lazy extraction
//! against lint over an eager one.
//!
//! Conformance cases are small (a few dozen boxes), so their layer
//! covers rarely fill one leaf of the rectangle index the checkers
//! query. A quarter-scale cherry (about 1,850 boxes) gives every rule
//! an index several levels deep.

use ace::conformance::drc::oracle_violations;
use ace::core::{extract_flat, extract_library, ExtractOptions};
use ace::drc::{check_layout, RuleDeck};
use ace::layout::{FlatLayout, Library};
use ace::lint::{lint, LintConfig};
use ace::workloads::chips::{generate_chip, paper_chip, ChipSpec};

fn cherry_quarter() -> (Library, FlatLayout) {
    let spec = ChipSpec {
        seed: 101,
        ..*paper_chip("cherry").expect("cherry is a paper chip")
    }
    .scaled(0.25);
    let chip = generate_chip(&spec);
    let lib = Library::from_cif_text(&chip.cif).expect("generated CIF parses");
    let flat = FlatLayout::from_library(&lib);
    assert_eq!(flat.boxes().len() as u64, chip.boxes);
    (lib, flat)
}

#[test]
fn drc_matches_the_brute_force_oracle_at_chip_scale() {
    let (_, flat) = cherry_quarter();
    let deck = RuleDeck::nmos();
    let got = check_layout(&flat, &deck);
    assert!(!got.is_empty(), "the proxy should exercise every rule");
    assert_eq!(got, oracle_violations(&flat, &deck));
}

#[test]
fn lint_agrees_between_lazy_and_eager_extraction_at_chip_scale() {
    let (lib, flat) = cherry_quarter();
    let config = LintConfig::new();
    let lazy = extract_library(&lib, "cherry", ExtractOptions::new()).expect("lazy extraction");
    let eager = extract_flat(flat.clone(), "cherry", ExtractOptions::new()).expect("eager");
    let got = lint(&lazy.netlist, &flat, &config);
    assert!(!got.is_empty(), "the proxy should raise diagnostics");
    assert_eq!(got, lint(&eager.netlist, &flat, &config));
}
