//! # ufilter-tpch — evaluation substrate
//!
//! A seeded TPC-H-like generator (REGION/NATION/CUSTOMER/ORDERS/LINEITEM
//! with key + foreign-key constraints) and the four views of the paper's
//! evaluation (§7.2): `Vsuccess`/`Vlinear`, `Vfail`, and `Vbush`, plus the
//! update workloads each figure drives through them.

pub mod fanout;
pub mod gen;
pub mod schema;
pub mod views;
pub mod workload;

pub use fanout::{fanout_stream, fanout_updates, many_views};
pub use gen::{generate, Scale};
pub use schema::tpch_schema;
pub use views::{deep_view, updates, vfail_for, wide_view, V_BUSH, V_FAIL, V_LINEAR, V_SUCCESS};
pub use workload::{stream, stream_views, StreamSpec};
