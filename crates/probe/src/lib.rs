#![warn(missing_docs)]
//! # tempest-probe
//!
//! The instrumentation runtime of the Tempest reproduction — the analogue of
//! the paper's `libtempest.so`.
//!
//! The original tool leaned on gcc's `-finstrument-functions` to call
//! entry/exit handlers around every function, stamped those events with
//! `rdtsc`, and ran a `tempd` daemon that sampled every thermal sensor four
//! times a second. Rust has no stable compiler hook for function
//! instrumentation, so this crate provides the idiomatic equivalent:
//!
//! * [`clock`] — the timestamp source: a calibrated TSC reader on x86_64
//!   ([`clock::TscClock`]), a monotonic fallback, a [`clock::VirtualClock`]
//!   for simulation, and a skewed wrapper reproducing the paper's §3.3
//!   cross-core clock-skew discussion.
//! * [`func`] — the function registry: the process's "symbol table"
//!   (address → name) that the parser later uses for symbolisation.
//! * [`event`] / [`buffer`] — entry/exit event records and per-thread
//!   buffered sinks.
//! * [`guard`] — RAII scope guards plus the [`profile_fn!`](crate::profile_fn)/
//!   [`profile_block!`](crate::profile_block) macros: `profile_fn!` is the transparent
//!   `-finstrument-functions` path; `profile_block!` is the explicit
//!   `libtempestperblk.so` basic-block API.
//! * [`tempd`] — the background sampling daemon.
//! * [`trace`] — the on-disk trace format and in-memory [`trace::Trace`],
//!   with a strict reader and a salvage reader that recovers the longest
//!   valid prefix of a damaged file.
//! * [`corrupt`] — deterministic trace-corruption injectors (truncation,
//!   dropped exits, timestamp scrambles, poisoned symbol ids) that
//!   manufacture the damage the salvage/recovery paths must survive.
//! * [`synth`] — deterministic synthetic-trace generation for benchmarks
//!   and stress tests (dial in events/depth/threads/sensors exactly).
//! * [`crc`] — CRC-32, the checksum on every spool frame, ship message,
//!   cache key and ETag: carry-less-multiply folding where the CPU has it,
//!   slicing-by-16 everywhere else.
//! * [`spool`] — crash-consistent spooling: a segmented, checksummed
//!   write-ahead log with bounded backpressure and `kill -9` recovery.
//! * [`ship`] — the network shipper: streams a spool directory to a
//!   `tempest-collect` daemon with retry/backoff, heartbeats, and an
//!   idempotent resume cursor; degrades to local-spool-only when the
//!   collector stays unreachable.
//! * [`session`] — ties a profiler and a tempd to an in-memory trace or a
//!   spool for one profiled run.

pub mod buffer;
pub mod clock;
pub mod corrupt;
pub mod crc;
pub mod event;
pub mod func;
pub mod guard;
pub mod limits;
pub mod profiler;
pub mod session;
pub mod ship;
pub mod spool;
pub mod synth;
pub mod tempd;
pub mod trace;

pub use buffer::{ChannelSink, EventSink, OverflowPolicy, VecSink};
pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use corrupt::TraceCorruptor;
pub use event::{Event, EventKind, ThreadId};
pub use func::{FunctionDef, FunctionId, FunctionRegistry, ScopeKind};
pub use guard::ScopeGuard;
pub use limits::{CancelToken, DecodeLimits, LimitExceeded, LimitKind, ResourceBudget};
pub use profiler::Profiler;
pub use session::{ProfilingSession, SpooledSession};
pub use ship::{RetryPolicy, ShipConfig, ShipReport};
pub use spool::{FsyncPolicy, SpoolConfig, SpoolReport, SpoolSink, SpoolStats, SpoolWriter};
pub use synth::{TraceGenerator, TraceSpec};
pub use tempd::{ResilientSampler, SamplingHealth, Tempd, TempdConfig, TempdStats};
pub use trace::{NodeMeta, SalvageReport, SensorMeta, Trace, TraceSection};
