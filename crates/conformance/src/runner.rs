//! The fuzz loop: generate → extract everywhere → compare → shrink.
//!
//! A run is `(seed, cases, backends)`. Case `i` derives its own seed
//! via [`case_seed`], samples a [`LayoutStrategy`], and checks
//! cross-backend agreement. On divergence the layout is shrunk to a
//! minimal repro (the oracle being "do the backends still
//! disagree?") and, when a repro directory is configured, written to
//! `<dir>/<case-seed>.cif` with the divergence report and both
//! wirelists embedded as CIF comments.

use std::path::PathBuf;

use ace_core::ExtractError;
use ace_layout::Library;
use ace_wirelist::{write_wirelist, WirelistOptions};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::backends::BackendId;
use crate::drc::check_agreement_with_drc;
use crate::harness::{case_seed, check_agreement, extract_pruned, Divergence};
use crate::lints::check_agreement_with_lints;
use crate::parasitics::check_agreement_with_parasitics;
use crate::shrink::{shrink_with_budget, ShrinkStats};
use crate::strategies::LayoutStrategy;

/// What every case of a fuzz run must agree on. One run makes one
/// check, and shrinks a divergence against that check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Check {
    /// Every backend extracts the same circuit.
    #[default]
    Netlists,
    /// Also identical `ace_lint` diagnostics from every backend
    /// (`--lint-agreement`); see [`crate::lints`].
    Lints,
    /// Also identical per-net parasitic totals from every backend,
    /// with the reference checked against the brute-force oracle
    /// (`--parasitics`); see [`crate::parasitics`].
    Parasitics,
    /// Also the DRC sweep checker matches the brute-force oracle and
    /// stays decomposition-invariant (`--drc`); see [`crate::drc`].
    Drc,
}

impl Check {
    /// Applies this check to one layout.
    fn run(
        self,
        lib: &Library,
        backends: &[BackendId],
    ) -> Result<Option<Divergence>, ExtractError> {
        match self {
            Check::Netlists => check_agreement(lib, backends),
            Check::Lints => check_agreement_with_lints(lib, backends),
            Check::Parasitics => check_agreement_with_parasitics(lib, backends),
            Check::Drc => check_agreement_with_drc(lib, backends),
        }
    }
}

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Run seed (`--seed`).
    pub seed: u64,
    /// Number of cases (`--cases`).
    pub cases: u32,
    /// Backends under test; `[0]` is the reference.
    pub backends: Vec<BackendId>,
    /// Where to write shrunken repros; `None` disables writing.
    pub repro_dir: Option<PathBuf>,
    /// Oracle-call budget per shrink.
    pub shrink_budget: u32,
    /// What every case must agree on.
    pub check: Check,
}

impl RunConfig {
    /// A netlist-agreement run over every backend with the default
    /// shrink budget and no repro directory.
    pub fn new(seed: u64, cases: u32) -> Self {
        RunConfig {
            seed,
            cases,
            backends: BackendId::ALL.to_vec(),
            repro_dir: None,
            shrink_budget: crate::shrink::DEFAULT_BUDGET,
            check: Check::Netlists,
        }
    }
}

/// One divergent case, with its shrunken repro.
#[derive(Debug, Clone)]
pub struct DivergentCase {
    /// Case index within the run.
    pub index: u32,
    /// The case's derived seed (also the repro file stem).
    pub case_seed: u64,
    /// Strategy family name.
    pub strategy: String,
    /// The disagreement found on the *original* layout.
    pub divergence: Divergence,
    /// Shrunken repro CIF (comment header included).
    pub repro_cif: String,
    /// Shrink accounting.
    pub shrink: ShrinkStats,
    /// Where the repro was written, when a directory was configured.
    pub repro_path: Option<PathBuf>,
}

/// Outcome of a whole run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Cases executed.
    pub cases: u32,
    /// Cases per strategy family, sorted by name.
    pub by_strategy: Vec<(String, u32)>,
    /// The divergent cases (empty = all backends agree).
    pub divergent: Vec<DivergentCase>,
}

/// Runs the fuzz loop, invoking `progress` after every case with
/// `(index, strategy-name, divergence?)`.
///
/// # Errors
///
/// Returns an error string on repro-write I/O failures or when the
/// *reference* backend fails on a generated layout (generated
/// layouts are valid by construction, so that is a harness bug).
pub fn run_with(
    config: &RunConfig,
    mut progress: impl FnMut(u32, &str, Option<&Divergence>),
) -> Result<RunSummary, String> {
    let mut by_strategy: std::collections::BTreeMap<String, u32> = Default::default();
    let mut divergent = Vec::new();
    let check = |lib: &Library| config.check.run(lib, &config.backends);

    for index in 0..config.cases {
        let seed = case_seed(config.seed, index);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let strategy = LayoutStrategy::sample(&mut rng);
        let name = strategy.name();
        *by_strategy.entry(name.clone()).or_insert(0) += 1;

        let cif = strategy.generate();
        let lib = Library::from_cif_text(&cif).map_err(|e| {
            format!("case {index} (seed {seed}, {name}): generated CIF invalid: {e}")
        })?;
        let outcome = check(&lib)
            .map_err(|e| format!("case {index} (seed {seed}, {name}): reference failed: {e}"))?;

        progress(index, &name, outcome.as_ref());
        let Some(divergence) = outcome else { continue };

        // The shrinker keeps a layout while it still fails the same
        // check; layouts that no longer parse or extract do not count.
        let mut oracle = |text: &str| {
            Library::from_cif_text(text).is_ok_and(|lib| matches!(check(&lib), Ok(Some(_))))
        };
        let (small, stats) = shrink_with_budget(&cif, &mut oracle, config.shrink_budget);
        let repro_cif = render_repro(config, index, seed, &name, &divergence, &small);
        let repro_path = match &config.repro_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = dir.join(format!("{seed}.cif"));
                std::fs::write(&path, &repro_cif)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Some(path)
            }
        };
        divergent.push(DivergentCase {
            index,
            case_seed: seed,
            strategy: name,
            divergence,
            repro_cif,
            shrink: stats,
            repro_path,
        });
    }

    Ok(RunSummary {
        cases: config.cases,
        by_strategy: by_strategy.into_iter().collect(),
        divergent,
    })
}

/// [`run_with`] without progress reporting.
///
/// # Errors
///
/// See [`run_with`].
pub fn run(config: &RunConfig) -> Result<RunSummary, String> {
    run_with(config, |_, _, _| {})
}

/// CIF comments may nest but must balance; divergence reports quote
/// device locations like `(500, 250)`, which balance, but net names
/// are user text — map parens to brackets to be safe.
fn comment_safe(text: &str) -> String {
    text.replace('(', "[").replace(')', "]")
}

/// A repro file: provenance + divergence report + both wirelists (as
/// CIF comments), then the shrunken layout itself.
fn render_repro(
    config: &RunConfig,
    index: u32,
    seed: u64,
    strategy: &str,
    divergence: &Divergence,
    small: &str,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "( conformance repro: run seed {} case {} [case seed {}] strategy {} )\n",
        config.seed, index, seed, strategy
    ));
    out.push_str(&format!(
        "( reproduce: cargo run -p ace_conformance --bin conformance -- --seed {} --cases {} )\n",
        config.seed,
        index + 1
    ));
    for line in comment_safe(&divergence.to_string()).lines() {
        out.push_str(&format!("( {line} )\n"));
    }
    // Wirelists of the shrunken layout, where available: re-extract
    // both sides so the comments describe the layout below them.
    if let Ok(lib) = Library::from_cif_text(small) {
        for (id, bands) in [
            (divergence.reference, 1),
            (divergence.backend, divergence.bands),
        ] {
            match extract_pruned(id, &lib, bands) {
                Ok(e) => {
                    out.push_str(&format!(
                        "( {} wirelist of the shrunken layout:\n",
                        id.name()
                    ));
                    out.push_str(&comment_safe(&write_wirelist(
                        &e.netlist,
                        WirelistOptions::new(),
                    )));
                    out.push_str(")\n");
                }
                Err(e) => {
                    out.push_str(&format!(
                        "( {} fails on the shrunken layout: {} )\n",
                        id.name(),
                        comment_safe(&e.to_string())
                    ));
                }
            }
        }
    }
    out.push_str(small);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_is_deterministic() {
        let config = RunConfig::new(7, 12);
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a.cases, 12);
        assert_eq!(a.by_strategy, b.by_strategy);
        assert_eq!(a.divergent.len(), b.divergent.len());
    }

    #[test]
    fn progress_fires_once_per_case() {
        let mut seen = Vec::new();
        let config = RunConfig::new(3, 5);
        run_with(&config, |i, name, _| seen.push((i, name.to_string()))).unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[4].0, 4);
    }

    #[test]
    fn repro_files_parse_as_cif() {
        // Comment-wrapped reports must still be valid CIF: check the
        // renderer output on a fabricated divergence.
        let config = RunConfig::new(1, 1);
        let divergence = Divergence {
            backend: BackendId::Hext,
            bands: 1,
            reference: BackendId::AceFlat,
            detail: "device count differs: 2 vs 1 (weird (nested) parens)".to_string(),
        };
        let text = render_repro(
            &config,
            0,
            42,
            "soup",
            &divergence,
            "L ND; B 500 500 250 250; E\n",
        );
        let lib = Library::from_cif_text(&text).unwrap();
        assert_eq!(lib.instantiated_box_count(), 1);
    }
}
