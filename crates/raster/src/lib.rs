//! Baseline raster-scan circuit extractors.
//!
//! ACE's evaluation (paper Table 5-2) compares it against two older
//! extractors, both reimplemented here from their published
//! algorithms:
//!
//! * [`extract_partlist`] — a *run-encoded raster-scan* extractor in
//!   the style of Partlist (Baker 1980, Wendorf 1980): "the chip is
//!   examined in a raster-scan order (left to right, top to bottom)
//!   looking through an L-shaped window containing three raster
//!   elements" (§2). The run encoding compresses constant spans
//!   within each λ-pitch row, but the scan still pauses at *every
//!   grid row* a box spans — which is exactly why ACE beats it:
//!   "a raster-based extractor … must visit each and every grid
//!   square spanned by the box" (§5).
//! * [`extract_cifplot`] — a naive full-grid extractor with the cost
//!   profile of Berkeley's `cifplot -w` analysis (Fitzpatrick 1981):
//!   every cell of the chip's bounding grid is materialized and
//!   visited, empty space included.
//!
//! Both produce the same circuits as `ace-core` on λ-aligned layouts
//! (the integration tests cross-validate all three), while exhibiting
//! the cost profiles the paper reports.
//!
//! # Examples
//!
//! ```
//! use ace_layout::{FlatLayout, Library};
//! use ace_raster::extract_partlist;
//!
//! let lib = Library::from_cif_text(
//!     "L ND; B 500 2000 0 0; L NP; B 2000 500 0 0; E",
//! )?;
//! let flat = FlatLayout::from_library(&lib);
//! let result = extract_partlist(&flat, "gate", ace_geom::LAMBDA);
//! assert_eq!(result.netlist.device_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod backend;
mod cifplot;
mod finalize;
mod grid;
mod partlist;

pub use backend::{CifplotExtractor, PartlistExtractor};
pub use cifplot::{extract_cifplot, extract_cifplot_probed};
pub use grid::{CellMask, RowRuns, Run};
pub use partlist::{extract_partlist, extract_partlist_probed};
