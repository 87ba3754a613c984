//! `signoff`: full-scale cherry proxies through ERC and DRC. One op
//! is the lint path as `acelint` runs it (parse, build, lazy extract,
//! flatten, `lint`, `to_sarif`) followed by the DRC path as `acedrc`
//! runs it (parse, build, flatten, `check` with the NMOS deck,
//! `to_sarif`), each from CIF text.

use std::time::Instant;

use ace_conformance::drc::oracle_violations;
use ace_core::{extract_flat, extract_library, ExtractOptions, Extraction};
use ace_drc::{DrcRule, RuleDeck};
use ace_geom::Layer;
use ace_layout::{FlatLayout, Library};
use ace_lint::{lint, sort_diagnostics, to_sarif, Diagnostic, LintConfig, RuleId};
use ace_workloads::chips::{generate_chip, paper_chip, ChipSpec, GeneratedChip};

use crate::trace::{ms, Tracer};
use crate::workloads::sub_seed;
use crate::{median, to_ms, Config, Outcome};

const URI: &str = "cherry.cif";
/// Chips per run, each from its own seed. DRC time follows a chip's
/// composition, so a run alternates between chips and its medians do
/// not hang on one of them.
const CHIPS: usize = 2;

/// The references every op is checked against.
struct Want {
    lint: Vec<Diagnostic>,
    drc: Vec<Diagnostic>,
}

pub fn run(cfg: &Config, out: &mut Outcome) {
    let deck = RuleDeck::nmos();
    let config = LintConfig::new();
    let mut inputs: Vec<(GeneratedChip, Want)> = Vec::new();
    for i in 0..CHIPS {
        let spec = ChipSpec {
            seed: sub_seed(cfg.seed, i),
            ..*paper_chip("cherry").expect("cherry is a paper chip")
        };
        let chip = generate_chip(&spec);
        // Untimed references, once per run: DRC from the brute-force
        // conformance oracle, lint over an eagerly extracted netlist.
        match reference(&chip, &deck, &config) {
            Ok(want) => inputs.push((chip, want)),
            Err(e) => {
                out.errors.push(format!("reference: {e}"));
                return;
            }
        }
    }
    out.boxes = inputs.iter().map(|(c, _)| c.boxes).sum::<u64>() / CHIPS as u64;

    // No state survives between ops, so set-up is the warm-up.
    let epoch = Instant::now();
    let mut warm = Tracer::off();
    let mut paths = (Vec::new(), Vec::new());
    for i in 0..cfg.setups {
        let (chip, want) = &inputs[i % CHIPS];
        let t0 = Instant::now();
        if let Err(e) = op(chip, &deck, &config, want, &mut warm, out, &mut paths) {
            out.errors.push(format!("warm-up: {e}"));
        }
        out.setup_ns.push(t0.elapsed().as_nanos() as u64);
    }
    paths = (Vec::new(), Vec::new());

    let mut t = cfg.tracer(epoch, 0);
    let start = Instant::now();
    while !cfg.window_over(start, out.attempted as usize) {
        let (chip, want) = &inputs[out.attempted as usize % CHIPS];
        out.attempted += 1;
        let t0 = Instant::now();
        let result = t.span("op", |t| op(chip, &deck, &config, want, t, out, &mut paths));
        let ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(inputs) => {
                out.op_ns.push(ns);
                if let Some((extraction, flat)) = inputs {
                    isolate_rules(&extraction, &flat, &deck, &config, &mut t, out);
                }
            }
            Err(e) => out.fail(e),
        }
    }
    out.window_ns = start.elapsed().as_nanos() as u64;
    out.notes.push(format!(
        "lint path p50 {:.3} ms, DRC path p50 {:.3} ms; diagnostics {:?}, violations {:?}",
        median(&to_ms(&paths.0)),
        median(&to_ms(&paths.1)),
        inputs.iter().map(|(_, w)| w.lint.len()).collect::<Vec<_>>(),
        inputs.iter().map(|(_, w)| w.drc.len()).collect::<Vec<_>>()
    ));
    if t.is_on() {
        for (name, v) in [
            ("signoff.lint_path_ms", &paths.0),
            ("signoff.drc_path_ms", &paths.1),
        ] {
            for &ns in v.iter() {
                out.samples.push(name, ms(ns));
            }
        }
    }
    out.absorb(&[&t]);
}

fn reference(chip: &GeneratedChip, deck: &RuleDeck, config: &LintConfig) -> Result<Want, String> {
    let lib = Library::from_cif_text(&chip.cif).map_err(|e| e.to_string())?;
    let flat = FlatLayout::from_library(&lib);
    let mut drc: Vec<Diagnostic> = oracle_violations(&flat, deck)
        .iter()
        .filter(|v| config.is_enabled(v.rule_id()))
        .map(|v| v.to_diagnostic(config))
        .collect();
    sort_diagnostics(&mut drc);
    let eager = extract_flat(flat.clone(), chip.spec.name, ExtractOptions::new())
        .map_err(|e| e.to_string())?;
    Ok(Want {
        lint: lint(&eager.netlist, &flat, config),
        drc,
    })
}

/// One op: the lint path, then the DRC path. Returns the lint path's
/// extraction and layout for the traced rule isolations.
#[allow(clippy::too_many_arguments)]
fn op(
    chip: &GeneratedChip,
    deck: &RuleDeck,
    config: &LintConfig,
    want: &Want,
    t: &mut Tracer,
    out: &mut Outcome,
    paths: &mut (Vec<u64>, Vec<u64>),
) -> Result<Option<(Extraction, FlatLayout)>, String> {
    // Lint path, as acelint runs it.
    let t0 = Instant::now();
    let file = t
        .span("cif.parse", |_| ace_cif::parse(&chip.cif))
        .map_err(|e| format!("parse: {e}"))?;
    let lib = t
        .span("layout.build", |_| Library::from_cif(&file))
        .map_err(|e| format!("build: {e}"))?;
    let extraction = t
        .span("core.extract", |_| {
            extract_library(&lib, chip.spec.name, ExtractOptions::new())
        })
        .map_err(|e| format!("extract: {e}"))?;
    let flat = t.span("layout.flatten", |_| FlatLayout::from_library(&lib));
    let diagnostics = t.span("lint.check", |_| lint(&extraction.netlist, &flat, config));
    let lint_sarif = t.span("lint.sarif", |_| {
        to_sarif(URI, Some(&chip.cif), &diagnostics)
    });
    drop((file, lib));
    paths.0.push(t0.elapsed().as_nanos() as u64);

    // DRC path, as acedrc runs it.
    let t1 = Instant::now();
    let file = t
        .span("cif.parse", |_| ace_cif::parse(&chip.cif))
        .map_err(|e| format!("parse: {e}"))?;
    let lib = t
        .span("layout.build", |_| Library::from_cif(&file))
        .map_err(|e| format!("build: {e}"))?;
    let drc_flat = t.span("layout.flatten", |_| FlatLayout::from_library(&lib));
    let violations = t.span("drc.check", |_| ace_drc::check(&drc_flat, deck, config));
    let drc_sarif = t.span("drc.sarif", |_| to_sarif(URI, Some(&chip.cif), &violations));
    drop((file, lib, drc_flat));
    paths.1.push(t1.elapsed().as_nanos() as u64);

    if diagnostics != want.lint {
        return Err(format!(
            "lint: {} diagnostics, eager reference has {}",
            diagnostics.len(),
            want.lint.len()
        ));
    }
    if violations != want.drc {
        return Err(format!(
            "drc: {} violations, oracle has {}",
            violations.len(),
            want.drc.len()
        ));
    }
    if !t.is_on() {
        return Ok(None);
    }
    let s = &mut out.samples;
    s.push("lint.diagnostics", diagnostics.len() as f64);
    s.push("drc.violations", violations.len() as f64);
    s.push("lint.sarif_kib", lint_sarif.len() as f64 / 1024.0);
    s.push("drc.sarif_kib", drc_sarif.len() as f64 / 1024.0);
    s.count("lint.diagnostics", diagnostics.len() as u64);
    s.count("drc.violations", violations.len() as u64);
    s.count("lint.sarif_bytes", lint_sarif.len() as u64);
    s.count("drc.sarif_bytes", drc_sarif.len() as u64);
    Ok(Some((extraction, flat)))
}

/// Per-rule cost, replayed outside the op: `lint` with every rule
/// allowed (the shared context), then with one ERC rule at a time;
/// `check` with an empty deck (the region merge), then with one rule
/// at a time. A rule's time is its run minus the shared part.
fn isolate_rules(
    extraction: &Extraction,
    flat: &FlatLayout,
    deck: &RuleDeck,
    config: &LintConfig,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let none = RuleId::ALL.iter().fold(config.clone(), |c, &r| c.allow(r));
    let ctx = t.span("lint.ctx", |_| lint(&extraction.netlist, flat, &none));
    std::hint::black_box(ctx);
    let ctx_ms = ms(t.last_ns());
    for rule in RuleId::ALL.into_iter().filter(|r| !r.is_geometric()) {
        let only = RuleId::ALL
            .iter()
            .filter(|&&r| r != rule)
            .fold(config.clone(), |c, &r| c.allow(r));
        let d = t.span("lint.rule", |_| lint(&extraction.netlist, flat, &only));
        std::hint::black_box(d);
        out.samples.push(
            &format!("lint.rule.{}_ms", rule.name()),
            ms(t.last_ns()) - ctx_ms,
        );
    }

    let empty = RuleDeck {
        name: deck.name.clone(),
        rules: Vec::new(),
    };
    let merged = t.span("drc.merge", |_| ace_drc::check(flat, &empty, config));
    std::hint::black_box(merged);
    let merge_ms = ms(t.last_ns());
    for rule in &deck.rules {
        let one = RuleDeck {
            name: deck.name.clone(),
            rules: vec![rule.clone()],
        };
        let v = t.span("drc.rule", |_| ace_drc::check(flat, &one, config));
        std::hint::black_box(v);
        out.samples.push(
            &format!("drc.rule.{}_ms", rule_name(rule)),
            ms(t.last_ns()) - merge_ms,
        );
    }
}

fn layer_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Diffusion => "diffusion",
        Layer::Poly => "poly",
        Layer::Metal => "metal",
        Layer::Cut => "cut",
        Layer::Implant => "implant",
        Layer::Buried => "buried",
        Layer::Glass => "glass",
    }
}

/// The metric name of a deck rule, e.g. `spacing-metal`.
fn rule_name(rule: &DrcRule) -> String {
    match rule {
        DrcRule::Width { layer, .. } => format!("width-{}", layer_name(*layer)),
        DrcRule::Spacing { layer, .. } => format!("spacing-{}", layer_name(*layer)),
        DrcRule::Enclosure { inner, outer, .. } => {
            let outer = match outer.as_slice() {
                [one] => layer_name(*one).to_string(),
                many => many
                    .iter()
                    .map(|&l| layer_name(l).get(..4).unwrap_or(layer_name(l)))
                    .collect::<String>(),
            };
            format!("enclosure-{}-{outer}", layer_name(*inner))
        }
        DrcRule::Extension { over, past, .. } => {
            format!("extension-{}-{}", layer_name(*over), layer_name(*past))
        }
    }
}
