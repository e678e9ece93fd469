//! # ufilter-asg — Annotated Schema Graphs
//!
//! The internal query representation of U-Filter (§3): the **view ASG**
//! `G_V` models the view's hierarchical structure with per-node annotations
//! (leaf `name/type/property/check`, internal-node `UCBinding`/`UPBinding`,
//! edge cardinalities and join conditions), and the **base ASG** `G_D`
//! captures the hierarchy and cardinality constraints the key/foreign-key
//! structure of the relational schema induces.
//!
//! Both graphs are compiled once per view and reused for every update
//! checked against that view. The crate also implements the closure algebra
//! of §5.1.2 (`v+`, `⊆`, `≡`, `⊔`, mapping closures) on which STAR's
//! UPoint marking rests.

#![warn(missing_docs)]

pub mod base;
pub mod build;
pub mod closure;
pub mod graph;
pub mod readset;

pub use base::{BaseAsg, BaseRel, FkEdge};
pub use build::{build_view_asg, subtree_closures, view_closure, AsgError};
pub use closure::Closure;
pub use graph::{
    AggSource, AsgNode, AsgNodeId, AsgNodeKind, Card, JoinCond, LeafInfo, LocalPred, Tour,
    UContext, UPoint, ViewAsg,
};
pub use readset::{DistinctRegion, ReadSets};
