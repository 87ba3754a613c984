//! Integer geometry kernel for VLSI layout analysis.
//!
//! This crate is the substrate under the ACE circuit extractor
//! reproduction. Everything is integer arithmetic in *centimicrons*
//! (hundredths of a micron), the native unit of CIF (Caltech
//! Intermediate Form). A Mead–Conway NMOS λ of 2.5 µm is
//! [`LAMBDA`]` = 250` centimicrons.
//!
//! The kernel provides:
//!
//! * [`Point`] and [`Rect`] — the primitive layout element is the
//!   axis-aligned box, as in the paper ("N is the number of boxes in
//!   the artwork").
//! * [`Interval`] and [`IntervalSet`] — 1-D algebra used by the
//!   scanline back-end when it walks the active lists of several
//!   layers simultaneously.
//! * [`Transform`] — the orthogonal (manhattan-preserving) subset of
//!   CIF symbol-call transforms: translation, the two mirrors and the
//!   four axis rotations.
//! * [`Polygon`] and [`Wire`] fracturing — non-manhattan geometry is
//!   "split into a number of small aligned boxes that approximate the
//!   original object" (paper §3), exactly for manhattan input.
//! * [`Layer`] — the seven Mead–Conway NMOS mask layers.
//! * [`RectIndex`] — a static packed R-tree answering "which boxes
//!   overlap this window", so design-rule and lint checks ask each
//!   local question with a local query.
//!
//! # Examples
//!
//! ```
//! use ace_geom::{Rect, Layer};
//!
//! let gate = Rect::new(0, 0, 400, 1200);
//! let channel = gate.intersection(&Rect::new(-600, 400, 1000, 800));
//! assert_eq!(channel, Some(Rect::new(0, 400, 400, 800)));
//! assert!(Layer::Poly.is_conducting());
//! assert!(!Layer::Implant.is_conducting());
//! ```

#![forbid(unsafe_code)]

mod interval;
mod interval_map;
mod layer;
mod merge;
mod point;
mod polygon;
mod rect;
mod rect_index;
mod roundflash;
mod transform;
mod wire;

pub use interval::{Interval, IntervalSet};
pub use interval_map::IntervalMap;
pub use layer::{Layer, LayerMap, LAYER_COUNT};
pub use merge::{intersect_boxes, merge_boxes, subtract_boxes, union_area, BoxMerger};
pub use point::Point;
pub use polygon::{fracture_polygon, fracture_polygon_default, Polygon};
pub use rect::Rect;
pub use rect_index::RectIndex;
pub use roundflash::fracture_round_flash;
pub use transform::{Orientation, Transform};
pub use wire::{fracture_wire, Wire};

/// Layout coordinate in centimicrons (CIF's native unit).
pub type Coord = i64;

/// One Mead–Conway NMOS λ (2.5 µm) in centimicrons.
pub const LAMBDA: Coord = 250;
