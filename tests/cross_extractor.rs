//! Cross-validation through the [`CircuitExtractor`] trait: five
//! independently implemented backends (flat scanline, banded
//! scanline, hierarchical window/compose, run-encoded raster,
//! full-grid raster) must produce the same circuit on λ-aligned
//! layouts.

use ace::prelude::*;
use ace::wirelist::compare::same_circuit;
use ace::workloads::array::{memory_array_cif, square_array_cif};
use ace::workloads::cells::{chained_inverters_cif, inverter_cif};
use ace::workloads::chips::{generate_chip, paper_chip};
use ace::workloads::mesh::mesh_cif;

/// All five backends over one layout, driven through the trait.
fn backends(lib: &Library) -> Vec<Box<dyn CircuitExtractor>> {
    let flat = FlatLayout::from_library(lib);
    vec![
        Box::new(FlatExtractor::new(flat.clone())),
        Box::new(FlatExtractor::banded(flat.clone(), 3)),
        Box::new(HierarchicalExtractor::new(lib.clone())),
        Box::new(PartlistExtractor::new(flat.clone(), LAMBDA)),
        Box::new(CifplotExtractor::new(flat, LAMBDA)),
    ]
}

fn check_all_backends(src: &str, what: &str) {
    let lib = Library::from_cif_text(src).expect("valid CIF");
    let mut reference: Option<(&'static str, Netlist)> = None;
    for mut b in backends(&lib) {
        let name = b.backend();
        let r = b
            .extract(what)
            .unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
        match &reference {
            None => reference = Some((name, r.netlist)),
            Some((ref_name, ref_netlist)) => {
                if let Err(d) = same_circuit(ref_netlist, &r.netlist) {
                    panic!("{what}: {ref_name} vs {name}: {d}");
                }
            }
        }
    }
}

#[test]
fn inverter_agrees() {
    check_all_backends(&inverter_cif(), "inverter");
}

#[test]
fn inverter_chain_agrees() {
    check_all_backends(&chained_inverters_cif(5), "chain");
}

#[test]
fn mesh_agrees() {
    check_all_backends(&mesh_cif(5), "mesh");
}

#[test]
fn memory_array_agrees() {
    check_all_backends(&memory_array_cif(3, 4), "memory");
}

#[test]
fn square_array_agrees() {
    check_all_backends(&square_array_cif(2), "array");
}

#[test]
fn chip_proxy_agrees() {
    let spec = paper_chip("cherry").expect("spec").scaled(0.05);
    let chip = generate_chip(&spec);
    check_all_backends(&chip.cif, "cherry@0.05");
}

/// The work-stealing configuration — fewer workers than bands, so
/// the scheduler's steal path is live — must be invisible in the
/// output: wirelists `same_circuit`-identical to the flat sweep, the
/// incremental extractor, and the lazy feed, and lint diagnostics
/// bit-identical across all four.
#[test]
fn work_stealing_banded_matches_flat_incremental_and_lazy() {
    use ace_lint::{lint, LintConfig};

    for (src, what) in [
        (mesh_cif(5), "mesh"),
        (memory_array_cif(3, 4), "memory"),
        (chained_inverters_cif(5), "chain"),
    ] {
        let lib = Library::from_cif_text(&src).expect("valid CIF");
        let flat = FlatLayout::from_library(&lib);
        let reference =
            extract_flat(flat.clone(), what, ExtractOptions::new()).expect("flat extracts");
        let ref_diags = lint(&reference.netlist, &flat, &LintConfig::new());

        let mut variants: Vec<(&str, Box<dyn CircuitExtractor>)> = vec![
            (
                "banded(2 threads over 8 bands)",
                Box::new(
                    FlatExtractor::new(flat.clone())
                        .with_options(ExtractOptions::new().with_threads(2).with_bands(8)),
                ),
            ),
            (
                "incremental",
                Box::new(ace_core::IncrementalExtractor::new(flat.clone(), 8)),
            ),
            ("lazy", Box::new(ace_core::LazyExtractor::new(lib.clone()))),
        ];
        for (desc, backend) in &mut variants {
            let r = backend
                .extract(what)
                .unwrap_or_else(|e| panic!("{what}: {desc}: {e}"));
            if let Err(d) = same_circuit(&reference.netlist, &r.netlist) {
                panic!("{what}: flat vs {desc}: {d}");
            }
            assert_eq!(
                lint(&r.netlist, &flat, &LintConfig::new()),
                ref_diags,
                "{what}: {desc}: lint diagnostics diverge from flat"
            );
        }

        // The stealing config really did run threads < bands.
        let stealing = extract_flat(
            flat,
            what,
            ExtractOptions::new().with_threads(2).with_bands(8),
        )
        .expect("banded extracts");
        assert_eq!(stealing.report.threads, 2, "{what}: worker count");
        assert!(
            stealing.report.bands > stealing.report.threads,
            "{what}: expected more bands than workers, got {} bands / {} workers",
            stealing.report.bands,
            stealing.report.threads
        );
    }
}

/// The lazy feed hands the sweep each stop's boxes in a different
/// order than the flat layout's sort does, which the sweep must never
/// see: extracting a library lazily and extracting its flattening must
/// write byte-identical wirelists, with and without geometry. The
/// testram proxy's memory array exercises deep repeated placements.
#[test]
fn lazy_and_flat_wirelists_are_byte_identical() {
    for (name, scale) in [("cherry", 1.0), ("testram", 0.05)] {
        let spec = paper_chip(name).expect("spec").scaled(scale);
        let lib = Library::from_cif_text(&generate_chip(&spec).cif).expect("valid");
        for (options, writer) in [
            (ExtractOptions::new(), WirelistOptions::new()),
            (
                ExtractOptions::new().with_geometry(),
                WirelistOptions::new().with_geometry(),
            ),
        ] {
            let lazy = extract_library(&lib, name, options).expect("lazy extracts");
            let flat =
                extract_flat(FlatLayout::from_library(&lib), name, options).expect("flat extracts");
            let (a, b) = (
                write_wirelist(&lazy.netlist, writer),
                write_wirelist(&flat.netlist, writer),
            );
            let first_diff = a.lines().zip(b.lines()).position(|(x, y)| x != y);
            assert!(
                a == b,
                "{name} (geometry {}): lazy and flat wirelists differ \
                 (first differing line: {first_diff:?}; {} vs {} bytes)",
                writer.include_geometry,
                a.len(),
                b.len()
            );
        }
    }
}

/// Per-net parasitic totals (area, perimeter, cut area per layer) are
/// an exact union computation, so all six backends must agree on them
/// to the last centimicron² — and the totals must survive shuffling
/// the box feed order, since a union is order-free.
#[test]
fn parasitic_totals_agree_across_backends_and_feed_order() {
    use ace_conformance::parasitic_signature;
    use rand::{Rng as _, SeedableRng as _};

    for (src, what) in [
        (inverter_cif(), "inverter"),
        (chained_inverters_cif(5), "chain"),
        (mesh_cif(5), "mesh"),
        (memory_array_cif(3, 4), "memory"),
    ] {
        let lib = Library::from_cif_text(&src).expect("valid CIF");
        let mut reference: Option<(&'static str, Vec<_>)> = None;
        for mut b in backends(&lib) {
            let name = b.backend();
            let mut r = b
                .extract(what)
                .unwrap_or_else(|e| panic!("{what}: {name}: {e}"));
            r.netlist.prune_floating_nets();
            let sig = parasitic_signature(&r.netlist, true);
            match &reference {
                None => {
                    assert!(
                        sig.iter().any(|(_, p)| !p.is_zero()),
                        "{what}: reference extraction should accumulate parasitics"
                    );
                    reference = Some((name, sig));
                }
                Some((ref_name, ref_sig)) => {
                    assert_eq!(
                        ref_sig, &sig,
                        "{what}: {ref_name} vs {name}: parasitic totals diverge"
                    );
                }
            }
        }

        // Feed-order invariance: rebuild the flat layout with its
        // boxes in three different shuffled orders.
        let flat = FlatLayout::from_library(&lib);
        let (_, ref_sig) = reference.expect("reference extracted");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9e3779b97f4a7c15);
        for round in 0..3 {
            let mut boxes: Vec<_> = flat.boxes().to_vec();
            for i in (1..boxes.len()).rev() {
                boxes.swap(i, rng.gen_range(0..i + 1));
            }
            let mut shuffled = FlatLayout::new();
            for b in boxes {
                shuffled.push_box(b.layer, b.rect);
            }
            for l in flat.labels() {
                shuffled.push_label(l.name.clone(), l.at, l.layer);
            }
            let mut r = extract_flat(shuffled, what, ExtractOptions::new())
                .unwrap_or_else(|e| panic!("{what}: shuffle {round}: {e}"));
            r.netlist.prune_floating_nets();
            assert_eq!(
                ref_sig,
                parasitic_signature(&r.netlist, true),
                "{what}: parasitic totals depend on feed order (round {round})"
            );
        }
    }
}

#[test]
fn backend_names_are_stable() {
    let lib = Library::from_cif_text(&inverter_cif()).expect("valid CIF");
    let names: Vec<&'static str> = backends(&lib).iter().map(|b| b.backend()).collect();
    assert_eq!(
        names,
        ["ace-flat", "ace-banded", "hext", "partlist", "cifplot"]
    );
}

#[test]
fn raster_work_ordering_matches_the_paper() {
    // ACE visits edges, Partlist visits runs, Cifplot visits every
    // cell: the work counters must be ordered that way on a chip with
    // real empty space.
    let spec = paper_chip("cherry").expect("spec").scaled(0.1);
    let chip = generate_chip(&spec);
    let lib = Library::from_cif_text(&chip.cif).expect("valid");
    let flat = FlatLayout::from_library(&lib);
    let ace = extract_library(&lib, "c", ExtractOptions::new()).expect("extracts");
    let partlist = extract_partlist(&flat, "c", LAMBDA);
    let cifplot = extract_cifplot(&flat, "c", LAMBDA);
    assert!(
        ace.report.scanline_stops < partlist.report.rows,
        "the edge-based scan must pause less often than the raster scan \
         ({} stops vs {} rows)",
        ace.report.scanline_stops,
        partlist.report.rows
    );
    assert!(
        partlist.report.runs_visited < cifplot.report.cells_visited,
        "run encoding must visit less than the full grid \
         ({} runs vs {} cells)",
        partlist.report.runs_visited,
        cifplot.report.cells_visited
    );
}
