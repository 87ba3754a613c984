//! ACE: a flat edge-based circuit extractor for NMOS layouts.
//!
//! This crate is the paper's primary contribution: "A scan line is
//! moved from the top to the bottom of the chip, pausing at points
//! corresponding to the top or bottom edges of pieces of geometry.
//! Conceptually, this divides the chip into a number of horizontal
//! strips where the state within the strip does not change in the
//! vertical direction. Change in state occurs only at the interface
//! between two strips." (§2.)
//!
//! # Algorithm
//!
//! The sweep ([`Extractor`]) follows Figure 3-2 of the paper:
//!
//! 1. Set the scanline to the top of the chip.
//! 2. While geometry remains: (a) fetch boxes whose top coincides
//!    with the scanline, sorting them by x into per-layer
//!    `newGeometry` lists; (b) insert the new geometry into
//!    per-layer *active lists*; (c) compute devices — the active
//!    lists of the interacting layers (diffusion, poly, buried,
//!    implant, plus metal and cut for connectivity) are traversed
//!    simultaneously and their overlap computed: diffusion ∧ poly ∧
//!    ¬buried is transistor channel, implant selects depletion mode,
//!    buried contacts join poly to diffusion, and cuts join metal to
//!    whatever lies beneath; (d) set the next scanline position to
//!    the larger of the next box top from the front-end and the
//!    largest active bottom.
//! 3. Output devices and nets — nothing is emitted earlier because
//!    "two nets that were earlier distinct can be merged after they
//!    have been output, causing the output to be in error" (§4).
//!
//! Connectivity inside each strip is interval algebra
//! ([`ace_geom::IntervalSet`]); connectivity across strips is
//! union-find over per-strip *fragments*. Transistor width is the
//! mean of the source- and drain-edge contact lengths, and length is
//! channel area over width (§3).
//!
//! # Examples
//!
//! ```
//! use ace_core::{extract_text, ExtractOptions};
//!
//! // A minimal transistor: poly crossing diffusion.
//! let result = extract_text("
//!     L ND; B 400 1600 0 0;
//!     L NP; B 1600 400 0 0;
//!     E
//! ", ExtractOptions::new())?;
//! assert_eq!(result.netlist.device_count(), 1);
//! let d = &result.netlist.devices()[0];
//! assert_eq!((d.length, d.width), (400, 400));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod backend;
mod devices;
mod extract;
mod incremental;
pub mod json;
mod nets;
mod parallel;
pub mod probe;
mod report;
pub mod scheduler;
mod strip;
mod sweep;
mod window;

pub use backend::{CircuitExtractor, FlatExtractor, LazyExtractor};
pub use devices::{DeviceAccumulator, DeviceTable};
pub use extract::{
    extract_feed, extract_feed_probed, extract_flat, extract_flat_probed, extract_library,
    extract_library_probed, extract_text, extract_text_probed, ExtractError, Extraction,
};
pub use incremental::IncrementalExtractor;
pub use nets::{NetData, NetTable};
pub use parallel::{extract_banded, extract_banded_probed};
pub use probe::{
    ChromeTraceProbe, Counter, CounterProbe, Lane, NullProbe, Probe, Span, TraceEvent,
};
pub use report::{ExtractOptions, ExtractionReport, Phase, SortStrategy, StitchStats};
pub use scheduler::{PoolStats, SubmitError, WorkerPool};
pub use strip::{
    abutting, find_containing, overlap_pairs, overlap_pairs_into, overlapping, Fragment,
    StripCoverage, StripFragments,
};
pub use sweep::Extractor;
pub use window::{BoundaryContact, BoundarySignal, Face, WindowExtraction};
