//! Tempest's self-observability layer.
//!
//! Tempest exists to make *other* programs observable; this crate makes
//! Tempest observable to itself. It provides:
//!
//! - a [`Registry`] of counters, gauges, and fixed-log2-bucket
//!   histograms whose hot paths are atomics only (one relaxed flag load
//!   when disabled), with a process-wide instance behind [`global`];
//! - a span-tracing facade ([`stage`], [`Span`]) that times coarse
//!   pipeline stages into a bounded [`SpanRing`];
//! - exporters: Prometheus text exposition ([`to_prometheus`]), a JSON
//!   snapshot ([`to_json`]), a human table ([`to_human`]), and the
//!   human-unit helpers ([`human_count`], [`human_ns`],
//!   [`human_bytes`]) the CLI shares;
//! - the one dependency-free [`JsonWriter`] every JSON document in the
//!   workspace is written through, and a [`parser`](json::Json::parse)
//!   tests and the CI schema check validate those documents with;
//! - a binary [`Telemetry`] codec so a node can ship its snapshot to a
//!   collector inside the existing CRC-framed transport;
//! - a [`flight recorder`](flight): a bounded structured event ring
//!   recording pipeline state transitions, dumped to `flight.json` on
//!   panic or degradation for `tempest doctor` to triage, through the
//!   atomic [`publish`] the analysis cache also uses.
//!
//! See DESIGN.md §9 for the overhead budget and the metric name
//! inventory.

#![warn(missing_docs)]

pub mod codec;
pub mod export;
pub mod flight;
pub mod json;
pub mod registry;
pub mod span;

pub use codec::{decode_telemetry, encode_telemetry, unix_now_ns, Telemetry};
pub use export::{
    human_bytes, human_count, human_ns, to_human, to_json, to_prometheus, write_snapshot,
};
pub use flight::{publish, FlightEvent, FlightLevel, FlightRecorder};
pub use json::{escape, Json, JsonError, JsonWriter};
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use span::{stage, thread_slot, Span, SpanRecord, SpanRing};
