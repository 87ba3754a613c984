//! Caltech Intermediate Form (CIF 2.0) lexer, parser, and writer.
//!
//! "The input to the ACE program is the artwork of a chip expressed in
//! CIF (Caltech Intermediate Form)" (paper §3). This crate turns CIF
//! text into a structured [`CifFile`]: symbol definitions, geometry on
//! the NMOS mask layers, symbol calls with their transforms, and the
//! CMU `94` net-name labels ("Names in CIF", Sproull, VLSI Document
//! V062).
//!
//! Supported commands:
//!
//! | Command | Meaning |
//! |---------|---------|
//! | `B l w cx cy [dx dy]` | box (optional direction vectors are snapped to an axis) |
//! | `P x1 y1 …` | polygon |
//! | `W w x1 y1 …` | wire |
//! | `R r cx cy` | round flash (approximated by an octagon) |
//! | `L name` | layer switch |
//! | `DS id [a b]` / `DF` | symbol definition with scale `a/b` |
//! | `DD id` | delete definitions (accepted, applied) |
//! | `C id [T x y \| MX \| MY \| R a b] …` | symbol call with transform list |
//! | `9 name` | cell name (user extension) |
//! | `94 name x y [layer]` | net-name label (user extension) |
//! | `( … )` | comment (nesting allowed) |
//! | `E` | end marker |
//!
//! Other user extensions (`0`–`8` prefixed commands) are preserved as
//! raw text and otherwise ignored, per the CIF convention.
//!
//! # Examples
//!
//! ```
//! use ace_cif::parse;
//!
//! let file = parse("
//!     DS 1 1 1;
//!     L ND; B 400 1600 0 0;
//!     L NP; B 1600 400 0 0;
//!     DF;
//!     C 1 T 0 0;
//!     E
//! ")?;
//! assert_eq!(file.symbols().len(), 1);
//! assert_eq!(file.top_level().len(), 1);
//! # Ok::<(), ace_cif::ParseCifError>(())
//! ```

#![forbid(unsafe_code)]

mod ast;
mod error;
mod lex;
pub mod locate;
mod parse;
mod write;

pub use ast::{CifFile, Command, Shape, SymbolDef, SymbolId};
pub use error::ParseCifError;
pub use locate::{label_sites, LabelSite};
pub use parse::parse;
pub use write::{write_cif, CifWriter};
