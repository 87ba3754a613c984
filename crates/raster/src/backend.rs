//! The raster baselines as [`CircuitExtractor`] backends, so the
//! cross-extractor comparisons and benches can drive Partlist and
//! Cifplot through the same interface as the scanline sweeps.

use ace_core::probe::Probe;
use ace_core::{CircuitExtractor, ExtractError, Extraction};
use ace_geom::Coord;
use ace_layout::FlatLayout;

use crate::cifplot::extract_cifplot_probed;
use crate::partlist::extract_partlist_probed;

/// The run-encoded raster-scan extractor as a backend.
pub struct PartlistExtractor {
    flat: FlatLayout,
    pitch: Coord,
}

impl PartlistExtractor {
    /// A Partlist-style extractor over `flat` at grid pitch `pitch`.
    pub fn new(flat: FlatLayout, pitch: Coord) -> Self {
        PartlistExtractor { flat, pitch }
    }
}

impl CircuitExtractor for PartlistExtractor {
    fn backend(&self) -> &'static str {
        "partlist"
    }

    fn extract_probed(
        &mut self,
        name: &str,
        probe: &dyn Probe,
    ) -> Result<Extraction, ExtractError> {
        Ok(extract_partlist_probed(&self.flat, name, self.pitch, probe))
    }
}

/// The naive full-grid extractor as a backend.
pub struct CifplotExtractor {
    flat: FlatLayout,
    pitch: Coord,
}

impl CifplotExtractor {
    /// A Cifplot-style extractor over `flat` at grid pitch `pitch`.
    pub fn new(flat: FlatLayout, pitch: Coord) -> Self {
        CifplotExtractor { flat, pitch }
    }
}

impl CircuitExtractor for CifplotExtractor {
    fn backend(&self) -> &'static str {
        "cifplot"
    }

    fn extract_probed(
        &mut self,
        name: &str,
        probe: &dyn Probe,
    ) -> Result<Extraction, ExtractError> {
        Ok(extract_cifplot_probed(&self.flat, name, self.pitch, probe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_geom::LAMBDA;
    use ace_layout::Library;

    #[test]
    fn raster_backends_fit_the_trait() {
        let lib = Library::from_cif_text("L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E").unwrap();
        let flat = FlatLayout::from_library(&lib);
        let mut backends: Vec<Box<dyn CircuitExtractor>> = vec![
            Box::new(PartlistExtractor::new(flat.clone(), LAMBDA)),
            Box::new(CifplotExtractor::new(flat, LAMBDA)),
        ];
        for b in &mut backends {
            let r = b.extract("t").unwrap();
            assert_eq!(r.netlist.device_count(), 1, "{}", b.backend());
            assert!(r.report.boxes > 0);
        }
    }
}
