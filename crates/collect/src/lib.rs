#![warn(missing_docs)]
//! # tempest-collect
//!
//! The collector daemon: the server half of Tempest's network collection
//! protocol (the client half lives in [`tempest_probe::ship`]).
//!
//! Profiled nodes spool locally and a shipper streams those spool frames
//! here over TCP, each wrapped with its source cursor and send time as a
//! [`tempest_probe::spool::FRAME_SHIPPED2`] payload. The collector stamps
//! the receive time into that envelope and appends it as received to a
//! **standard spool segment**, so a
//! collected session directory is recoverable and analyzable by the
//! exact same `spool::recover` → analyze pipeline as a local spool, and
//! the resume cursor it owes a reconnecting shipper is derivable by
//! scanning its own durable output (no separate cursor file that could
//! disagree with the data after a crash).
//!
//! Robustness posture (see DESIGN.md §10):
//! * per-connection read/write deadlines, frame-size and rate limits;
//! * an explicit shed policy when the disk budget is exhausted;
//! * corrupt frames are quarantined to files and refused, never crashed
//!   on, never written into the session spool;
//! * duplicate frames (re-sends after a lost ACK) are acknowledged
//!   without being applied, and recovery dedupes by cursor anyway —
//!   exactly-once is enforced at two independent layers.
//!
//! The [`chaos`] module holds the in-process fault-injecting TCP proxy
//! the adversarial tests route shipments through.
//!
//! Beyond ingest, the crate hosts the read side of collected data: the
//! shared HTTP/1.1 layer ([`http`]) and the `tempest serve` analysis
//! query daemon ([`query`]), which answers versioned `/api/v1/*`
//! questions over collected sessions from the content-hash analysis
//! cache instead of re-analyzing per request.

pub mod chaos;
pub mod fleet;
pub mod http;
pub mod query;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy};
pub use fleet::{FleetState, NodeRecord};
pub use http::{http_get, serve_metrics, HttpClient};
pub use query::{QueryConfig, QueryServer};
pub use server::{Collector, CollectorConfig, CollectorHandle, CollectorStats, ShedPolicy};
