//! Differential execution and comparison.
//!
//! One layout goes through every selected backend via
//! [`CircuitExtractor::extract_probed`](ace_core::CircuitExtractor::extract_probed);
//! the results are compared pairwise against the reference (always
//! `ace-flat`, pinned first by
//! [`crate::backends::parse_backend_list`]).
//!
//! # Comparison policy
//!
//! * Floating nets are pruned first — backends legitimately differ on
//!   how many unconnected net records they materialize.
//! * When the reference run reports no multi-terminal devices, the
//!   comparison is **strict**: [`same_circuit`], location-keyed
//!   device matching plus an exact comparison of the wiring.
//! * When multi-terminal devices are present, source/drain
//!   tie-breaking on >2-terminal channels legitimately differs
//!   between algorithms (the same policy the property tests use), so
//!   the comparison degrades to the device census: only a device
//!   count or key mismatch from [`same_circuit`] counts.
//!
//! [`same_circuit`]: ace_wirelist::compare::same_circuit

use ace_core::{CounterProbe, ExtractError, Extraction};
use ace_layout::Library;
use ace_wirelist::compare::{explain_mismatch, CircuitDiff};
use ace_wirelist::Netlist;

use crate::backends::BackendId;

/// A disagreement between one backend and the reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The backend that disagreed.
    pub backend: BackendId,
    /// The band count it ran at (see [`BackendId::band_counts`]).
    pub bands: usize,
    /// The reference it was compared against.
    pub reference: BackendId,
    /// Human-readable explanation (mismatch report or census diff).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.backend.name())?;
        if self.backend.band_counts().len() > 1 {
            write!(f, " at {} bands", self.bands)?;
        }
        write!(
            f,
            " disagrees with {}:\n{}",
            self.reference.name(),
            self.detail
        )
    }
}

/// Extracts `lib` with one backend at `bands` bands (ignored by the
/// unbanded backends), netlist pruned of floating nets.
///
/// # Errors
///
/// Propagates the backend's [`ExtractError`].
pub fn extract_pruned(
    id: BackendId,
    lib: &Library,
    bands: usize,
) -> Result<Extraction, ExtractError> {
    let probe = CounterProbe::new();
    let mut backend = id.instantiate(lib, bands);
    let mut extraction = backend.extract_probed("conformance", &probe)?;
    extraction.netlist.prune_floating_nets();
    Ok(extraction)
}

/// Extracts `lib` with every backend after the reference, at each of
/// its band counts, and returns the first result `judge` faults. A
/// backend erroring where the reference succeeded is a divergence.
pub(crate) fn first_divergence(
    lib: &Library,
    backends: &[BackendId],
    mut judge: impl FnMut(&Extraction) -> Option<String>,
) -> Option<Divergence> {
    for &id in &backends[1..] {
        for &bands in id.band_counts() {
            let detail = match extract_pruned(id, lib, bands) {
                Ok(other) => judge(&other),
                Err(e) => Some(format!("backend failed where the reference succeeded: {e}")),
            };
            if let Some(detail) = detail {
                return Some(Divergence {
                    backend: id,
                    bands,
                    reference: backends[0],
                    detail,
                });
            }
        }
    }
    None
}

/// Compares one backend's result against the reference under the
/// module's comparison policy. `strict` is decided from the
/// *reference* extraction's report. Shared with the incremental
/// edit-loop checker, which compares against a rebuilt layout rather
/// than a second backend.
pub(crate) fn compare_one(reference: &Extraction, other: &Netlist, strict: bool) -> Option<String> {
    let report = explain_mismatch(&reference.netlist, other)?;
    let census_differs = matches!(
        report.diff,
        CircuitDiff::DeviceCount { .. } | CircuitDiff::DeviceMismatch { .. }
    );
    (strict || census_differs).then(|| report.to_string())
}

/// Runs every backend over `lib` (`ace-banded` once per band count)
/// and returns the first divergence from the reference
/// (`backends[0]`), if any.
///
/// # Errors
///
/// Propagates extraction failures; a backend *erroring* where the
/// reference succeeds is reported as a divergence, not an error.
pub fn check_agreement(
    lib: &Library,
    backends: &[BackendId],
) -> Result<Option<Divergence>, ExtractError> {
    let reference = extract_pruned(backends[0], lib, 1)?;
    let strict = reference.report.multi_terminal_devices == 0;
    Ok(first_divergence(lib, backends, |other| {
        compare_one(&reference, &other.netlist, strict)
    }))
}

/// Whether `cif` still makes the backends diverge — the shrinker's
/// oracle. Layouts that fail to parse or extract do not count as
/// divergent (a repro must be a *valid* layout the backends disagree
/// on).
pub fn diverges(cif: &str, backends: &[BackendId]) -> bool {
    let Ok(lib) = Library::from_cif_text(cif) else {
        return false;
    };
    matches!(check_agreement(&lib, backends), Ok(Some(_)))
}

/// Per-case seed: a splitmix64-style mix of the run seed and the case
/// index, so neighbouring cases draw unrelated streams.
pub fn case_seed(seed: u64, index: u32) -> u64 {
    let mut z = seed ^ (u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::cells;

    #[test]
    fn all_backends_agree_on_the_inverter() {
        let lib = Library::from_cif_text(&cells::inverter_cif()).unwrap();
        assert!(check_agreement(&lib, &BackendId::ALL).unwrap().is_none());
    }

    #[test]
    fn case_seeds_spread() {
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|i| case_seed(1983, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(case_seed(1983, 0), case_seed(1984, 0));
    }

    #[test]
    fn oracle_rejects_invalid_cif() {
        assert!(!diverges("this is not cif", &BackendId::ALL));
    }
}
