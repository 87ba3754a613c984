//! The six backends as instantiable, nameable units.
//!
//! The harness refers to backends by [`BackendId`] so a run is fully
//! described by `(seed, cases, backends)` — three values that fit on
//! a command line and reproduce bit-for-bit.

use ace_core::{CircuitExtractor, ExtractOptions, FlatExtractor, LazyExtractor};
use ace_geom::LAMBDA;
use ace_hext::HierarchicalExtractor;
use ace_layout::{FlatLayout, Library};
use ace_raster::{CifplotExtractor, PartlistExtractor};

/// Band counts `ace-banded` and the incremental checker run every
/// case at: from one seam up to fifteen, so seams land on many
/// different box edges. The list is fixed, so a repro or a corpus
/// replay stays reproducible from its CIF alone.
pub const BAND_COUNTS: [usize; 5] = [2, 3, 4, 8, 16];

/// Worker threads draining the banded backend's bands: enough to
/// exercise work stealing without oversubscribing CI hosts.
const BANDED_THREADS: usize = 2;

/// One of the six extractor backends behind [`CircuitExtractor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendId {
    /// Sequential flat scanline sweep (the reference backend).
    AceFlat,
    /// Lazy-front-end scanline sweep (symbols expand on reach — the
    /// only backend that does not flatten first, so the only one
    /// exercising expansion-ordered label discovery).
    AceLazy,
    /// Band-parallel scanline sweep with seam stitching.
    AceBanded,
    /// Hierarchical window/compose extractor.
    Hext,
    /// Run-encoded raster baseline.
    Partlist,
    /// Full-grid raster baseline.
    Cifplot,
}

impl BackendId {
    /// Every backend, reference first.
    pub const ALL: [BackendId; 6] = [
        BackendId::AceFlat,
        BackendId::AceLazy,
        BackendId::AceBanded,
        BackendId::Hext,
        BackendId::Partlist,
        BackendId::Cifplot,
    ];

    /// The backend's stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BackendId::AceFlat => "ace-flat",
            BackendId::AceLazy => "ace-lazy",
            BackendId::AceBanded => "ace-banded",
            BackendId::Hext => "hext",
            BackendId::Partlist => "partlist",
            BackendId::Cifplot => "cifplot",
        }
    }

    /// Parses a backend name (the inverse of [`BackendId::name`]).
    pub fn parse(s: &str) -> Option<BackendId> {
        BackendId::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The band counts each case runs this backend at:
    /// [`BAND_COUNTS`] for `ace-banded`, a single band for the others.
    pub fn band_counts(self) -> &'static [usize] {
        match self {
            BackendId::AceBanded => &BAND_COUNTS,
            _ => &[1],
        }
    }

    /// Builds the backend over a layout library. `bands` is the band
    /// count for `ace-banded`; the other backends ignore it.
    pub fn instantiate(self, lib: &Library, bands: usize) -> Box<dyn CircuitExtractor> {
        let flat = || FlatLayout::from_library(lib);
        let banded = ExtractOptions::new()
            .with_threads(BANDED_THREADS)
            .with_bands(bands);
        match self {
            BackendId::AceFlat => Box::new(FlatExtractor::new(flat())),
            BackendId::AceLazy => Box::new(LazyExtractor::new(lib.clone())),
            BackendId::AceBanded => Box::new(FlatExtractor::new(flat()).with_options(banded)),
            BackendId::Hext => Box::new(HierarchicalExtractor::new(lib.clone())),
            BackendId::Partlist => Box::new(PartlistExtractor::new(flat(), LAMBDA)),
            BackendId::Cifplot => Box::new(CifplotExtractor::new(flat(), LAMBDA)),
        }
    }
}

/// Parses a comma-separated backend list (`"ace-flat,hext"`).
///
/// # Errors
///
/// Returns the offending name. The reference backend `ace-flat` is
/// prepended when absent, since every comparison is against it.
pub fn parse_backend_list(s: &str) -> Result<Vec<BackendId>, String> {
    let mut out = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let id = BackendId::parse(part)
            .ok_or_else(|| format!("unknown backend '{part}' (expected one of {})", all_names()))?;
        if !out.contains(&id) {
            out.push(id);
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no backends given (expected one of {})",
            all_names()
        ));
    }
    if !out.contains(&BackendId::AceFlat) {
        out.insert(0, BackendId::AceFlat);
    } else {
        out.retain(|&b| b != BackendId::AceFlat);
        out.insert(0, BackendId::AceFlat);
    }
    Ok(out)
}

fn all_names() -> String {
    BackendId::ALL
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in BackendId::ALL {
            assert_eq!(BackendId::parse(b.name()), Some(b));
        }
        assert_eq!(BackendId::parse("magic"), None);
    }

    #[test]
    fn backend_list_parses_and_pins_the_reference_first() {
        let l = parse_backend_list("hext, partlist").unwrap();
        assert_eq!(
            l,
            vec![BackendId::AceFlat, BackendId::Hext, BackendId::Partlist]
        );
        let l = parse_backend_list("cifplot,ace-flat,cifplot").unwrap();
        assert_eq!(l, vec![BackendId::AceFlat, BackendId::Cifplot]);
        assert!(parse_backend_list("bogus").is_err());
        assert!(parse_backend_list("").is_err());
    }

    #[test]
    fn every_backend_instantiates_and_extracts() {
        let lib = Library::from_cif_text("L ND; B 500 2000 250 1000; L NP; B 2000 500 250 1000; E")
            .unwrap();
        for id in BackendId::ALL {
            for &bands in id.band_counts() {
                let mut b = id.instantiate(&lib, bands);
                assert_eq!(b.backend(), id.name());
                let r = b.extract("t").unwrap();
                assert_eq!(r.netlist.device_count(), 1, "{}", id.name());
            }
        }
    }
}
