//! # ufilter-xml — XML data model for the U-Filter reproduction
//!
//! An arena-backed XML tree, a strict parser for the fragment the paper's
//! documents use, compact/pretty serializers, ordered and unordered
//! structural equality (the latter backs the rectangle-rule verifier), and
//! the *default XML view* publisher of Fig. 2.
//!
//! ```
//! use ufilter_xml::{parse, serialize};
//!
//! let doc = parse::parse("<book><bookid>98001</bookid></book>").unwrap();
//! assert_eq!(doc.text_content(doc.root()), "98001");
//! assert_eq!(
//!     serialize::to_string(&doc, doc.root()),
//!     "<book><bookid>98001</bookid></book>"
//! );
//! ```

pub mod default_view;
pub mod node;
pub mod parse;
pub mod serialize;

/// Deepest nesting the parsers accept: elements of an XML fragment here,
/// element constructors and FLWR expressions of a view query in
/// `ufilter-xquery`. Both parsers are recursive descent, so stack use grows
/// with nesting; inputs come from clients over the wire, and a 2 MiB
/// connection or worker thread overflows (aborting the whole process)
/// somewhere past 1000 levels in debug builds. Deeper input is a typed
/// parse error instead.
pub const MAX_NESTING: usize = 512;

pub use default_view::default_view;
pub use node::{Document, Node, NodeId, NodeKind};
pub use parse::{parse, parse_with, ParseOptions, XmlParseError};
pub use serialize::{to_pretty_string, to_string};
