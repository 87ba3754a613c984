//! Facade crate re-exporting the ACE reproduction workspace.
//!
//! Downstream code can either reach into the per-crate modules
//! (`ace::core`, `ace::hext`, …) or pull the whole public extraction
//! surface from [`prelude`]:
//!
//! ```
//! use ace::prelude::*;
//!
//! let lib = Library::from_cif_text("L ND; B 400 1600 0 0; L NP; B 1600 400 0 0; E")?;
//! let result = extract_library(&lib, "gate", ExtractOptions::new())?;
//! assert_eq!(result.netlist.device_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use ace_cif as cif;
pub use ace_conformance as conformance;
pub use ace_core as core;
pub use ace_drc as drc;
pub use ace_geom as geom;
pub use ace_hext as hext;
pub use ace_layout as layout;
pub use ace_lint as lint;
pub use ace_raster as raster;
pub use ace_wirelist as wirelist;
pub use ace_workloads as workloads;

/// The full public extraction surface in one import.
///
/// Groups, by origin:
///
/// * **Geometry and layout** — [`Coord`](geom::Coord) /
///   [`Layer`](geom::Layer) / [`Rect`](geom::Rect) / λ, the CIF
///   [`Library`](layout::Library), and the flattened
///   [`FlatLayout`](layout::FlatLayout).
/// * **Extraction entry points** — `extract_text` / `extract_library`
///   / `extract_flat` / `extract_feed` and their `_probed` variants,
///   all returning `Result<Extraction, ExtractError>`; banding is
///   selected with [`ExtractOptions::with_threads`](core::ExtractOptions::with_threads).
/// * **Backends** — the [`CircuitExtractor`](core::CircuitExtractor)
///   trait and its five implementations:
///   [`FlatExtractor`](core::FlatExtractor) (flat or banded),
///   [`HierarchicalExtractor`](hext::HierarchicalExtractor),
///   [`PartlistExtractor`](raster::PartlistExtractor),
///   [`CifplotExtractor`](raster::CifplotExtractor).
/// * **Observability** — the [`Probe`](core::Probe) trait, the
///   [`NullProbe`](core::NullProbe) / [`CounterProbe`](core::CounterProbe)
///   / [`ChromeTraceProbe`](core::ChromeTraceProbe) /
///   [`SummaryProbe`](core::SummaryProbe) sinks, and the
///   [`Lane`](core::Lane) / [`Span`](core::Span) /
///   [`Counter`](core::Counter) vocabulary.
/// * **Results** — [`Extraction`](core::Extraction),
///   [`ExtractionReport`](core::ExtractionReport),
///   [`BandReport`](core::BandReport), [`StitchStats`](core::StitchStats),
///   the [`Netlist`](wirelist::Netlist) it carries, and netlist
///   comparison via [`wirelist::compare`].
/// * **Linting** — [`extract_library_linted`](lint::extract_library_linted),
///   the [`LintConfig`](lint::LintConfig) rule registry, and the
///   [`Diagnostic`](lint::Diagnostic) / [`RuleId`](lint::RuleId) /
///   [`LintSeverity`](lint::Severity) vocabulary.
/// * **Design-rule checking** — [`drc_check`](drc::check) over a flat
///   layout against a declarative [`RuleDeck`](drc::RuleDeck).
pub mod prelude {
    pub use ace_core::{
        extract_banded, extract_banded_probed, extract_feed, extract_feed_probed, extract_flat,
        extract_flat_probed, extract_library, extract_library_probed, extract_text,
        extract_text_probed, BandReport, ChromeTraceProbe, CircuitExtractor, Counter, CounterProbe,
        ExtractError, ExtractOptions, Extraction, ExtractionReport, Extractor, FlatExtractor, Lane,
        NullProbe, Phase, Probe, Span, StitchStats, SummaryProbe, TraceEvent, WindowExtraction,
    };
    pub use ace_drc::{
        check as drc_check, check_extraction as drc_check_extraction, DrcRule, RuleDeck,
    };
    pub use ace_geom::{Coord, Layer, Rect, LAMBDA};
    pub use ace_hext::{
        extract_hierarchical, extract_hierarchical_probed, HextExtraction, HierarchicalExtractor,
        IncrementalExtractor,
    };
    pub use ace_layout::{FlatLayout, Library};
    pub use ace_lint::{
        extract_library_linted, extract_text_linted, lint, lint_extraction, Diagnostic, LintConfig,
        Linted, RuleId, Severity as LintSeverity,
    };
    pub use ace_raster::{
        extract_cifplot, extract_cifplot_probed, extract_partlist, extract_partlist_probed,
        CifplotExtractor, PartlistExtractor, RasterExtraction, RasterReport,
    };
    pub use ace_wirelist::{
        critical_path, write_spice, write_wirelist, CriticalPath, Device, DeviceKind, Net, Netlist,
        ParasiticParams, WirelistOptions,
    };
}
