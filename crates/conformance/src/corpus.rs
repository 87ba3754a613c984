//! Golden-corpus replay.
//!
//! `conformance/corpus/*.cif` are layouts worth keeping forever —
//! shrunken repros of fixed divergences and hand-picked structural
//! edge cases. [`replay`] re-extracts each with every backend,
//! requires agreement, and checks the reference netlist against the
//! checked-in canonical line in `signatures.txt`:
//!
//! ```text
//! <file>.cif <signature-hex> <devices> <nets>
//! ```
//!
//! The signature is [`structural_signature`] of the pruned reference
//! netlist (a stable FNV-based hash, safe to check in). Regenerate
//! the file with `conformance --record-corpus` after *deliberate*
//! behaviour changes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ace_layout::Library;
use ace_wirelist::compare::structural_signature;

use crate::backends::BackendId;
use crate::harness::{check_agreement, extract_pruned};

/// Name of the canonical-signature index inside the corpus dir.
pub const SIGNATURES_FILE: &str = "signatures.txt";

/// One corpus entry's replay outcome.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The layout file name (relative to the corpus dir).
    pub file: String,
    /// What went wrong; `None` = pass.
    pub failure: Option<String>,
}

/// The whole replay.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Per-file outcomes, sorted by file name.
    pub cases: Vec<CorpusCase>,
}

impl CorpusReport {
    /// All files passed.
    pub fn all_passed(&self) -> bool {
        self.cases.iter().all(|c| c.failure.is_none())
    }

    /// The failing cases.
    pub fn failures(&self) -> impl Iterator<Item = &CorpusCase> {
        self.cases.iter().filter(|c| c.failure.is_some())
    }
}

/// The `.cif` files of a corpus directory, sorted by name. An absent
/// directory is an empty corpus, not an error.
///
/// # Errors
///
/// Propagates directory-read failures other than `NotFound`.
pub fn corpus_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "cif") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Parses `signatures.txt` into `file → (signature, devices, nets)`.
fn parse_signatures(text: &str) -> Result<BTreeMap<String, (u64, usize, usize)>, String> {
    let mut map = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [file, sig, devices, nets] = parts[..] else {
            return Err(format!(
                "{}: malformed line {}",
                SIGNATURES_FILE,
                lineno + 1
            ));
        };
        let sig = u64::from_str_radix(sig.trim_start_matches("0x"), 16).map_err(|e| {
            format!(
                "{}: bad signature on line {}: {e}",
                SIGNATURES_FILE,
                lineno + 1
            )
        })?;
        let devices = devices.parse().map_err(|e| {
            format!(
                "{}: bad device count on line {}: {e}",
                SIGNATURES_FILE,
                lineno + 1
            )
        })?;
        let nets = nets.parse().map_err(|e| {
            format!(
                "{}: bad net count on line {}: {e}",
                SIGNATURES_FILE,
                lineno + 1
            )
        })?;
        map.insert(file.to_string(), (sig, devices, nets));
    }
    Ok(map)
}

/// The canonical line data for one layout: `(signature, devices,
/// nets)` of the pruned reference extraction.
///
/// # Errors
///
/// Returns a description when the layout fails to parse or extract.
pub fn canonical_entry(cif: &str) -> Result<(u64, usize, usize), String> {
    let lib = Library::from_cif_text(cif).map_err(|e| format!("parse failed: {e}"))?;
    let extraction = extract_pruned(BackendId::AceFlat, &lib, 1)
        .map_err(|e| format!("extraction failed: {e}"))?;
    Ok((
        structural_signature(&extraction.netlist),
        extraction.netlist.device_count(),
        extraction.netlist.net_count(),
    ))
}

/// Replays every corpus layout through `backends`, checking both
/// cross-backend agreement and the canonical signature index.
///
/// # Errors
///
/// Returns I/O or index-format errors; extraction disagreements are
/// reported per-case in the [`CorpusReport`] instead.
pub fn replay(dir: &Path, backends: &[BackendId]) -> Result<CorpusReport, String> {
    let files = corpus_files(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let sig_text = std::fs::read_to_string(dir.join(SIGNATURES_FILE)).unwrap_or_default();
    let mut signatures = parse_signatures(&sig_text)?;

    let mut cases = Vec::new();
    for path in files {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let cif = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        let listed = signatures.remove(&file);
        let mut failure = None;

        match Library::from_cif_text(&cif) {
            Err(e) => failure = Some(format!("parse failed: {e}")),
            Ok(lib) => match check_agreement(&lib, backends) {
                Err(e) => failure = Some(format!("reference extraction failed: {e}")),
                Ok(Some(divergence)) => failure = Some(divergence.to_string()),
                Ok(None) => match (canonical_entry(&cif), listed) {
                    (Err(e), _) => failure = Some(e),
                    (Ok(_), None) => {
                        failure = Some(format!(
                            "no canonical line in {SIGNATURES_FILE} (run conformance \
                             --record-corpus after vetting the layout)"
                        ));
                    }
                    (Ok(got), Some(want)) => {
                        if got != want {
                            failure = Some(format!(
                                "canonical mismatch: extracted (sig {:#018x}, {} devices, \
                                 {} nets) but {SIGNATURES_FILE} says (sig {:#018x}, {} \
                                 devices, {} nets)",
                                got.0, got.1, got.2, want.0, want.1, want.2
                            ));
                        }
                    }
                },
            },
        }
        cases.push(CorpusCase { file, failure });
    }

    // Index lines with no matching file are stale.
    for (file, _) in signatures {
        cases.push(CorpusCase {
            failure: Some(format!(
                "listed in {SIGNATURES_FILE} but {file} does not exist"
            )),
            file,
        });
    }
    Ok(CorpusReport { cases })
}

/// Regenerates `signatures.txt` from the current reference backend.
///
/// # Errors
///
/// Returns I/O errors and per-file extraction failures.
pub fn record(dir: &Path) -> Result<usize, String> {
    let files = corpus_files(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut out = String::from(
        "# Canonical reference extractions for conformance/corpus/*.cif.\n\
         # <file> <structural-signature> <devices> <nets>\n\
         # Regenerate with: cargo run -p ace_conformance --bin conformance -- --record-corpus\n",
    );
    let count = files.len();
    for path in &files {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let cif = std::fs::read_to_string(path).map_err(|e| format!("{file}: {e}"))?;
        let (sig, devices, nets) = canonical_entry(&cif).map_err(|e| format!("{file}: {e}"))?;
        let _ = writeln!(out, "{file} {sig:#018x} {devices} {nets}");
    }
    std::fs::write(dir.join(SIGNATURES_FILE), out)
        .map_err(|e| format!("writing {}: {e}", SIGNATURES_FILE))?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::cells;

    #[test]
    fn record_then_replay_round_trips() {
        let dir = std::env::temp_dir().join(format!("ace-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("inverter.cif"), cells::inverter_cif()).unwrap();
        std::fs::write(dir.join("chain.cif"), cells::chained_inverters_cif(2)).unwrap();

        let n = record(&dir).unwrap();
        assert_eq!(n, 2);
        let report = replay(&dir, &BackendId::ALL).unwrap();
        assert!(report.all_passed(), "{:?}", report.cases);
        assert_eq!(report.cases.len(), 2);

        // Tampering with the index is caught.
        let sig_path = dir.join(SIGNATURES_FILE);
        let tampered: String = std::fs::read_to_string(&sig_path)
            .unwrap()
            .lines()
            .map(|l| {
                // Bump the net count on the inverter's line.
                if l.starts_with("inverter.cif") {
                    format!("{l}9\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(&sig_path, tampered).unwrap();
        let report = replay(&dir, &[BackendId::AceFlat]).unwrap();
        assert!(!report.all_passed());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let report = replay(Path::new("/nonexistent/corpus"), &BackendId::ALL).unwrap();
        assert!(report.cases.is_empty());
    }

    #[test]
    fn unlisted_and_stale_entries_fail() {
        let dir = std::env::temp_dir().join(format!("ace-corpus-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("new.cif"), cells::inverter_cif()).unwrap();
        std::fs::write(
            dir.join(SIGNATURES_FILE),
            "gone.cif 0x0000000000000001 1 1\n",
        )
        .unwrap();
        let report = replay(&dir, &[BackendId::AceFlat]).unwrap();
        let failures: Vec<&str> = report.failures().map(|c| c.file.as_str()).collect();
        assert_eq!(failures, ["new.cif", "gone.cif"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
