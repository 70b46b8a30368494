//! Crash-consistent trace spooling: a segmented write-ahead log.
//!
//! The in-memory [`Trace`] loses everything on a crash. This module
//! gives Tempest a durability story strong enough for `kill -9`: events
//! stream to disk as CRC-checksummed, length-prefixed frames inside
//! bounded-size *segment* files. The active segment is `seg-NNNNNN.open`;
//! when it fills it is fsynced and atomically renamed to `seg-NNNNNN.seg`,
//! so every sealed segment is a complete, verifiable unit. A small text
//! manifest records the session; recovery does not depend on it (the
//! manifest itself could be torn) — [`recover`] rescans the segments,
//! verifies every frame checksum, discards the torn tail, and reassembles
//! a [`Trace`] plus a [`SpoolReport`] accounting exactly what survived.
//!
//! Layout per segment: 8-byte magic `TMPSPOL1`, `u64` sequence number,
//! then frames. Frame = `kind: u8 | len: u32 | crc: u32 | payload`, with
//! the CRC-32 computed over `kind || len || payload` so a bit flip in any
//! of the three is caught. The checksum is [`crate::crc`]'s, which runs at
//! memory speed, so writers checksum every batch and recovery verifies
//! every frame for little more than the cost of reading the bytes. Frame
//! kinds: 1 = event batch (fixed 21-byte records), 2 = symbol-table
//! snapshot, 3 = node metadata, 4 = session footer, 6 = self-telemetry,
//! 7 = shipped envelope (collector spools only). The footer is written
//! only on orderly shutdown — its presence is the "clean" marker — and
//! carries the backpressure drop counters so shed events are reported,
//! never silently forgotten.
//!
//! Writers go through one type, [`SegmentLog`]: [`SpoolWriter`] writes
//! local sessions through it and the collector daemon shipped ones.
//! Segment names (`segment_file_name`, `parse_segment_file_name`) and
//! frame headers (`frame_header`, `split_frame_header`, also used on the
//! ship wire) each have one owner.
//!
//! One segment reader, [`SegmentReader`], reads every segment file:
//! for recovery, fsck, the shipper, the collector's resume scan and the
//! fleet view. Readers walk [`list_segment_files`], the one listing, in
//! which a sealed segment wins over an `.open` twin of its sequence; each
//! segment opens by [`open_segment`]'s rule (a listed `.open` segment
//! sealed since is read under its `.seg` name) and yields one frame at a
//! time from a reused buffer, never past the length it had when opened.
//! [`recover_with`] runs it on a thread of its own, a few frames ahead
//! of the caller that decodes them.
//! [`parse_segment_frames`] cuts a segment already in memory by the same
//! frame rule. Two more rules live only here: [`unwrap_frame`] takes a
//! frame out of its shipped envelope (the layout [`shipped2_payload`]
//! writes and [`stamp_collect_time`] stamps), and [`decode_frame`] turns
//! a kind and payload into a typed [`Decoded`] value or a [`FrameFail`],
//! through the trace file's own node and symbol decoders.

use crate::buffer::{ChannelSink, EventSink, OverflowPolicy};
pub use crate::crc::crc32;
use crate::crc::Crc32;
use crate::event::{Event, EventKind, ThreadId};
use crate::func::{FunctionDef, FunctionId, FunctionRegistry, ScopeKind};
use crate::limits::{CancelToken, DecodeLimits, LimitExceeded, ResourceBudget};
use crate::trace::{
    decode_functions, decode_node, encode_functions, encode_node, Cursor, MixedStreams, NodeMeta,
    SalvageReport, Trace, TraceError, TraceSection,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use tempest_sensors::SensorId;

/// Magic prefix of every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"TMPSPOL1";
/// Segment header: magic + sequence number. Public so corruption
/// injectors can damage the frame area without destroying the header.
pub const SEGMENT_HEADER_LEN: usize = 8 + 8;
/// Frame header: kind + payload length + checksum.
pub const FRAME_HEADER_LEN: usize = 1 + 4 + 4;
/// How far a [`SegmentReader`] reads ahead; a longer frame is read whole.
const READ_AHEAD: usize = 64 * 1024;
/// One spooled event record: tag + thread + payload + aux + timestamp.
const EVENT_RECORD_LEN: usize = 1 + 4 + 4 + 4 + 8;
/// Session-footer payload: four u64 counters.
const FOOTER_LEN: usize = 4 * 8;
/// Manifest file name inside a spool directory.
pub const MANIFEST_NAME: &str = "spool.manifest";
/// Shipper cursor file name inside a source spool directory.
pub const SHIP_CURSOR_NAME: &str = "ship.cursor";

/// Frame kind: a batch of fixed-width event records.
pub const FRAME_EVENTS: u8 = 1;
/// Frame kind: a symbol-table snapshot.
pub const FRAME_SYMBOLS: u8 = 2;
/// Frame kind: node metadata.
pub const FRAME_NODE: u8 = 3;
/// Frame kind: the orderly-shutdown session footer.
pub const FRAME_FOOTER: u8 = 4;
// Kind 5 is reserved and must never be reused: spools collected before
// FRAME_SHIPPED2 may still hold the retired cursor-only envelope under
// it. Readers treat it as an unknown kind.
/// Frame kind: an encoded [`tempest_obs::Telemetry`] snapshot of the
/// writing process's metric registry plus sampling health. Written
/// periodically by the spool writer thread so self-telemetry rides the
/// same CRC-framed, ACKed, resumable transport as the data it describes.
/// Recovery verifies and counts these frames but does not fold them into
/// the trace; readers that predate them skip them as unknown kinds.
pub const FRAME_METRICS: u8 = 6;
/// Frame kind: the shipped envelope, the only one there is. The payload
/// is the source-spool cursor (`seg: u64 | off: u64`), the shipper's send
/// time and the collector's receive time (both wall-clock Unix
/// nanoseconds), then the original frame's kind byte and payload. The
/// shipper sends each frame wrapped this way, receive time zero, as its
/// `DATA` message; the collector stamps the receive time in place and
/// appends the payload as received, so its spool is self-describing:
/// recovery unwraps the inner frame, uses the cursor to discard
/// duplicates a reconnecting shipper may have re-sent (which is what
/// makes resume idempotent), and turns the two stamps into per-frame
/// spool→ship→collect latency.
pub const FRAME_SHIPPED2: u8 = 7;
/// The [`FRAME_SHIPPED2`] prefix: cursor (two u64), origin and collect
/// timestamps (two u64), inner kind.
pub const SHIPPED2_PREFIX_LEN: usize = 8 + 8 + 8 + 8 + 1;
/// Where the collect timestamp sits in a [`FRAME_SHIPPED2`] payload.
const COLLECT_STAMP_AT: usize = 8 + 8 + 8;
/// Flight-recorder dump file name beside a spool's segments.
pub const FLIGHT_DUMP_NAME: &str = "flight.json";

// ---- frame checksums --------------------------------------------------------

/// The checksum stored in a frame header: CRC-32 over
/// `kind || len_le || payload`, so damage to any of the three is caught.
pub fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[kind]);
    c.update(&(payload.len() as u32).to_le_bytes());
    c.update(payload);
    c.finish()
}

/// The header that goes in front of `payload` in a spool frame or a
/// ship wire message: `kind: u8 | len: u32 | crc: u32`, little-endian,
/// with the [`frame_crc`] checksum.
pub(crate) fn frame_header(kind: u8, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut head = [0u8; FRAME_HEADER_LEN];
    head[0] = kind;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[5..9].copy_from_slice(&frame_crc(kind, payload).to_le_bytes());
    head
}

/// Split a [`frame_header`] back into `(kind, payload length, crc)`.
pub(crate) fn split_frame_header(head: &[u8; FRAME_HEADER_LEN]) -> (u8, u32, u32) {
    let [kind, l0, l1, l2, l3, c0, c1, c2, c3] = *head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    (kind, len, u32::from_le_bytes([c0, c1, c2, c3]))
}

/// Append one encoded frame (header + payload) to `buf`: the bytes
/// [`SegmentLog::append`] writes, for tools that build segments in
/// memory.
pub fn encode_frame_into(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    buf.extend_from_slice(&frame_header(kind, payload));
    buf.extend_from_slice(payload);
}

/// The header bytes that open every segment file with sequence `seq`.
pub fn segment_header_bytes(seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut head = [0u8; SEGMENT_HEADER_LEN];
    head[..8].copy_from_slice(SEGMENT_MAGIC);
    head[8..].copy_from_slice(&seq.to_le_bytes());
    head
}

/// File name of segment `seq`: `seg-NNNNNN.seg` once sealed,
/// `seg-NNNNNN.open` while it is being written.
pub fn segment_file_name(seq: u64, sealed: bool) -> String {
    let ext = if sealed { "seg" } else { "open" };
    format!("seg-{seq:06}.{ext}")
}

/// Parse a [`segment_file_name`] back into `(seq, sealed)`; `None` for
/// any other file name.
pub(crate) fn parse_segment_file_name(name: &str) -> Option<(u64, bool)> {
    let (stem, sealed) = match name.strip_suffix(".seg") {
        Some(stem) => (stem, true),
        None => (name.strip_suffix(".open")?, false),
    };
    let seq = stem.strip_prefix("seg-")?.parse().ok()?;
    Some((seq, sealed))
}

/// Every segment file in `dir` as `(sequence, sealed, name)`, ordered by
/// sequence with a sealed file before an open one of the same sequence:
/// the one walk of a spool directory's segments.
fn segment_names(dir: &Path) -> io::Result<Vec<(u64, bool, String)>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().into_string().unwrap_or_default();
        if let Some((seq, sealed)) = parse_segment_file_name(&name) {
            names.push((seq, sealed, name));
        }
    }
    names.sort_by_key(|&(seq, sealed, _)| (seq, !sealed));
    Ok(names)
}

// ---- configuration ---------------------------------------------------------

/// When the spool writer forces data to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on the OS page cache. Fastest, weakest: a power
    /// loss can take recently-sealed segments with it (a plain process
    /// kill cannot — the kernel still holds the written pages).
    Never,
    /// Fsync once per segment, as it is sealed. A crash loses at most the
    /// open segment.
    PerSegment,
    /// Fsync after every appended batch. `kill -9` loses at most the
    /// batches the writer had not yet drained from the queue.
    #[default]
    PerBatch,
}

/// Spool-writer configuration.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Directory that holds the segments and manifest (created if absent).
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Durability/performance trade-off for fsync.
    pub fsync: FsyncPolicy,
    /// Depth of the bounded submit queue, in batches.
    pub queue_batches: usize,
    /// What submitters do when the queue is full.
    pub overflow: OverflowPolicy,
    /// How often the writer thread appends a [`FRAME_METRICS`] snapshot
    /// of the process's metric registry to the spool (`None` disables).
    /// Emission is opportunistic — checked after each drained batch and
    /// once more at shutdown — so an idle spool emits nothing.
    pub telemetry_interval: Option<std::time::Duration>,
}

impl SpoolConfig {
    /// Default segment size: small enough that a torn segment loses
    /// little, large enough that rotation is rare.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

    /// Default spacing between self-telemetry frames.
    pub const DEFAULT_TELEMETRY_INTERVAL: std::time::Duration = std::time::Duration::from_secs(5);

    /// Configuration with defaults for everything but the directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpoolConfig {
            dir: dir.into(),
            segment_bytes: Self::DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::default(),
            queue_batches: ChannelSink::DEFAULT_QUEUE_BATCHES,
            overflow: OverflowPolicy::default(),
            telemetry_interval: Some(Self::DEFAULT_TELEMETRY_INTERVAL),
        }
    }

    /// Override the segment rotation threshold (clamped to ≥ 4 KiB).
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4096);
        self
    }

    /// Override the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Override the bounded-queue depth (in batches, clamped to ≥ 1).
    pub fn queue_batches(mut self, batches: usize) -> Self {
        self.queue_batches = batches.max(1);
        self
    }

    /// Override the overflow policy of the bounded queue.
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Override how often self-telemetry frames are spooled (`None`
    /// disables them entirely).
    pub fn telemetry_interval(mut self, interval: Option<std::time::Duration>) -> Self {
        self.telemetry_interval = interval;
        self
    }
}

/// Counters reported by a finished spool writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolStats {
    /// Segments written (sealed + the final one).
    pub segments: u32,
    /// Scope events that reached disk.
    pub events_written: u64,
    /// Sensor samples that reached disk.
    pub samples_written: u64,
    /// Scope events shed by the bounded queue before reaching the writer.
    pub events_dropped: u64,
    /// Sensor samples shed by the bounded queue.
    pub samples_dropped: u64,
    /// Total payload bytes appended across all segments.
    pub bytes_written: u64,
    /// Whole batches dropped because the disk rejected the write
    /// (`ENOSPC`, permission loss, a vanished directory, …). The writer
    /// degrades instead of killing the session; see
    /// [`SpoolWriter::append_batch`].
    pub batches_dropped_io: u64,
    /// Scope events lost inside IO-dropped batches.
    pub events_dropped_io: u64,
    /// Sensor samples lost inside IO-dropped batches.
    pub samples_dropped_io: u64,
    /// Distinct write failures observed (degradation entries plus failed
    /// revival attempts).
    pub io_errors: u64,
}

// ---- segment log -----------------------------------------------------------

/// One spool directory's segment files and manifest, written in sequence
/// order. Sealing renames the active `seg-NNNNNN.open` to `.seg` and
/// fsyncs the directory, so a sealed segment survives power loss. The log
/// knows nothing of frame contents, and when to [`sync`](Self::sync)
/// segment data is its caller's policy.
pub struct SegmentLog {
    dir: PathBuf,
    node_id: u32,
    hostname: String,
    seq: u64,
    out: BufWriter<File>,
    bytes_in_segment: u64,
    /// Bytes appended across all segments, headers included.
    bytes_written: u64,
    sealed: Vec<String>,
}

impl SegmentLog {
    /// Start a log in `dir` (created if absent) at segment 0, and write a
    /// manifest for node `node_id` on `hostname`.
    pub(crate) fn create(dir: &Path, node_id: u32, hostname: &str) -> io::Result<SegmentLog> {
        std::fs::create_dir_all(dir)?;
        Self::start(dir, node_id, hostname, 0, Vec::new())
    }

    /// Continue the log a previous writer left in `dir`, cleanly or not.
    /// A leftover `.open` segment is sealed as it stands (readers stop at
    /// its torn tail), or removed beside a sealed twin; writing resumes
    /// on a fresh segment after the highest sequence number present.
    pub fn reopen(dir: &Path, node_id: u32, hostname: &str) -> io::Result<SegmentLog> {
        std::fs::create_dir_all(dir)?;
        let (mut next_seq, mut sealed) = (0, Vec::new());
        for (seq, is_sealed, name) in segment_names(dir)? {
            next_seq = seq + 1;
            let target = segment_file_name(seq, true);
            if is_sealed {
                sealed.push(name);
            } else if dir.join(&target).exists() {
                std::fs::remove_file(dir.join(&name)).ok();
            } else if std::fs::rename(dir.join(&name), dir.join(&target)).is_ok() {
                sync_dir(dir);
                sealed.push(target);
            }
        }
        Self::start(dir, node_id, hostname, next_seq, sealed)
    }

    fn start(
        dir: &Path,
        node_id: u32,
        hostname: &str,
        seq: u64,
        sealed: Vec<String>,
    ) -> io::Result<SegmentLog> {
        let log = SegmentLog {
            dir: dir.to_path_buf(),
            node_id,
            hostname: hostname.to_string(),
            seq,
            out: new_segment(dir, seq)?,
            bytes_in_segment: SEGMENT_HEADER_LEN as u64,
            bytes_written: SEGMENT_HEADER_LEN as u64,
            sealed,
        };
        log.write_manifest(false)?;
        Ok(log)
    }

    /// Append one frame to the active segment; returns its length on
    /// disk (header and payload).
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        self.out.write_all(&frame_header(kind, payload))?;
        self.out.write_all(payload)?;
        let n = (FRAME_HEADER_LEN + payload.len()) as u64;
        self.bytes_in_segment += n;
        self.bytes_written += n;
        Ok(n)
    }

    /// Flush the active segment and force its data to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }

    /// Seal the active segment: flush it, rename it to `.seg`, and fsync
    /// the directory so the rename survives power loss. Syncing the
    /// segment's data first is the caller's policy.
    pub fn seal(&mut self) -> io::Result<()> {
        self.out.flush()?;
        let sealed = segment_file_name(self.seq, true);
        std::fs::rename(
            self.dir.join(segment_file_name(self.seq, false)),
            self.dir.join(&sealed),
        )?;
        sync_dir(&self.dir);
        self.sealed.push(sealed);
        Ok(())
    }

    /// Open the next segment without sealing the active one; after a
    /// write failure, that one is abandoned as it stands.
    pub(crate) fn open_next(&mut self) -> io::Result<()> {
        self.seq += 1;
        self.out = new_segment(&self.dir, self.seq)?;
        self.bytes_in_segment = SEGMENT_HEADER_LEN as u64;
        self.bytes_written += SEGMENT_HEADER_LEN as u64;
        Ok(())
    }

    /// [`seal`](Self::seal) the active segment, open the next one, and
    /// list the sealed one in the manifest.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.seal()?;
        self.open_next()?;
        self.write_manifest(false)
    }

    /// Delete the active segment, for a writer that stops before any
    /// frame reached it. Append nothing after this.
    pub fn discard_segment(&mut self) -> io::Result<()> {
        std::fs::remove_file(self.dir.join(segment_file_name(self.seq, false)))
    }

    /// Publish the manifest: node identity, the clean-shutdown flag and
    /// the sealed segments, through [`tempest_obs::publish`] so readers
    /// never see half of one. Informational: recovery rescans segments.
    pub fn write_manifest(&self, clean: bool) -> io::Result<()> {
        let mut text = format!(
            "tempest-spool v1\nnode {} {}\nclean {}\nsegments {}\n",
            self.node_id,
            self.hostname,
            u8::from(clean),
            self.sealed.len()
        );
        for name in &self.sealed {
            text.push_str(name);
            text.push('\n');
        }
        tempest_obs::publish(&self.dir.join(MANIFEST_NAME), text.as_bytes())
    }

    /// Bytes in the active segment, its header included.
    pub fn bytes_in_segment(&self) -> u64 {
        self.bytes_in_segment
    }
}

/// Create segment `seq`'s `.open` file in `dir` and write its header.
fn new_segment(dir: &Path, seq: u64) -> io::Result<BufWriter<File>> {
    let mut out = BufWriter::new(File::create(dir.join(segment_file_name(seq, false)))?);
    out.write_all(&segment_header_bytes(seq))?;
    Ok(out)
}

// ---- writer ----------------------------------------------------------------

/// Appends a session's frames to a [`SegmentLog`], rotating as it fills.
///
/// Singly threaded by design: the [`SpoolSink`] writer thread owns one.
/// Kept symbol-free (the caller passes the symbol table into
/// [`rotate`](Self::rotate)/[`finish`](Self::finish)) so it is unit-testable
/// without a live profiler.
pub struct SpoolWriter {
    log: SegmentLog,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    node: NodeMeta,
    events_written: u64,
    samples_written: u64,
    scratch: Vec<u8>,
    metrics: SpoolMetrics,
    /// Set after a write failure: the active segment is poisoned (its
    /// tail may be torn), so appends are shed until a fresh segment can
    /// be opened. Keeps an `ENOSPC` from killing the profiled run.
    degraded: bool,
    drops_since_revive: u32,
    batches_dropped_io: u64,
    events_dropped_io: u64,
    samples_dropped_io: u64,
    io_errors: u64,
    telemetry_interval: Option<std::time::Duration>,
    last_telemetry: std::time::Instant,
    telemetry_frames: u64,
}

/// Self-metrics handles for one spool writer; resolved once at
/// [`SpoolWriter::create`] so the append path touches only atomics.
struct SpoolMetrics {
    frames: tempest_obs::Counter,
    bytes: tempest_obs::Counter,
    fsyncs: tempest_obs::Counter,
    fsync_ns: tempest_obs::Histogram,
    segments_sealed: tempest_obs::Counter,
    io_errors: tempest_obs::Counter,
    batches_dropped_io: tempest_obs::Counter,
    telemetry_frames: tempest_obs::Counter,
}

impl SpoolMetrics {
    fn resolve() -> Self {
        let reg = tempest_obs::global();
        SpoolMetrics {
            frames: reg.counter("spool_frames_total"),
            bytes: reg.counter("spool_bytes_total"),
            fsyncs: reg.counter("spool_fsyncs_total"),
            fsync_ns: reg.histogram("spool_fsync_ns"),
            segments_sealed: reg.counter("spool_segments_sealed_total"),
            io_errors: reg.counter("spool_io_errors_total"),
            batches_dropped_io: reg.counter("spool_batches_dropped_io_total"),
            telemetry_frames: reg.counter("spool_telemetry_frames_total"),
        }
    }
}

impl SpoolWriter {
    /// Create the spool directory (if needed) and open the first segment.
    /// The node metadata is stamped at the head of every segment so each
    /// one is independently attributable after a crash.
    pub fn create(config: &SpoolConfig, node: NodeMeta) -> io::Result<SpoolWriter> {
        let log = SegmentLog::create(&config.dir, node.node_id, &node.hostname)?;
        let mut w = SpoolWriter {
            log,
            segment_bytes: config.segment_bytes.max(4096),
            fsync: config.fsync,
            node,
            events_written: 0,
            samples_written: 0,
            scratch: Vec::new(),
            metrics: SpoolMetrics::resolve(),
            degraded: false,
            drops_since_revive: 0,
            batches_dropped_io: 0,
            events_dropped_io: 0,
            samples_dropped_io: 0,
            io_errors: 0,
            telemetry_interval: config.telemetry_interval,
            last_telemetry: std::time::Instant::now(),
            telemetry_frames: 0,
        };
        w.write_node_frame()?;
        Ok(w)
    }

    fn write_node_frame(&mut self) -> io::Result<()> {
        let mut payload = Vec::new();
        encode_node(&mut payload, &self.node);
        self.write_frame(FRAME_NODE, &payload)
    }

    fn write_symbols_frame(&mut self, functions: &[FunctionDef]) -> io::Result<()> {
        if functions.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::new();
        encode_functions(&mut payload, functions);
        self.write_frame(FRAME_SYMBOLS, &payload)
    }

    fn write_frame(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let n = self.log.append(kind, payload)?;
        self.metrics.frames.inc();
        self.metrics.bytes.add(n);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        self.log.sync()?;
        self.metrics.fsyncs.inc();
        self.metrics.fsync_ns.record_duration(t0.elapsed());
        Ok(())
    }

    /// Retry opening a fresh segment after this many IO-dropped batches.
    const REVIVE_INTERVAL: u32 = 64;

    /// Append one batch of mixed events as a single checksummed frame.
    /// Under [`FsyncPolicy::PerBatch`] the frame is on stable storage when
    /// this returns.
    ///
    /// Write failures (`ENOSPC`, a vanished directory, permission loss)
    /// do **not** bubble out and kill the run: the writer degrades
    /// gracefully. The poisoned segment is abandoned where it stands (its
    /// torn tail is exactly what recovery already discards), the batch is
    /// counted as IO-dropped in [`SpoolStats`] and the
    /// `spool_batches_dropped_io_total` counter, and every
    /// [`REVIVE_INTERVAL`](Self::REVIVE_INTERVAL) dropped batches the
    /// writer tries to open a fresh segment in case the disk recovered.
    pub fn append_batch(&mut self, batch: &[Event]) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.degraded && !self.try_revive() {
            self.count_io_drop(batch);
            return Ok(());
        }
        if let Err(_e) = self.append_batch_inner(batch) {
            self.enter_degraded();
            self.count_io_drop(batch);
        }
        Ok(())
    }

    fn append_batch_inner(&mut self, batch: &[Event]) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.reserve(batch.len() * EVENT_RECORD_LEN);
        let mut events = 0u64;
        let mut samples = 0u64;
        for e in batch {
            let mut rec = [0u8; EVENT_RECORD_LEN];
            let (tag, payload, aux) = match e.kind {
                EventKind::Enter { func } => (1u8, func.0, 0i32),
                EventKind::Exit { func } => (2u8, func.0, 0),
                EventKind::Gap { sensor } => (3u8, sensor.0 as u32, 0),
                EventKind::Sample {
                    sensor,
                    millicelsius,
                } => (4u8, sensor.0 as u32, millicelsius),
            };
            if tag == 4 {
                samples += 1;
            } else {
                events += 1;
            }
            rec[0] = tag;
            rec[1..5].copy_from_slice(&e.thread.0.to_le_bytes());
            rec[5..9].copy_from_slice(&payload.to_le_bytes());
            rec[9..13].copy_from_slice(&aux.to_le_bytes());
            rec[13..21].copy_from_slice(&e.timestamp_ns.to_le_bytes());
            self.scratch.extend_from_slice(&rec);
        }
        let payload = std::mem::take(&mut self.scratch);
        let result = self.write_frame(FRAME_EVENTS, &payload);
        self.scratch = payload;
        result?;
        if self.fsync == FsyncPolicy::PerBatch {
            self.sync()?;
        }
        // Counted only once the frame (and, per policy, its fsync)
        // succeeded, so a failed batch is accounted as dropped, not both.
        self.events_written += events;
        self.samples_written += samples;
        Ok(())
    }

    /// Append one [`FRAME_METRICS`] snapshot of the process registry if
    /// the configured interval has elapsed. Called by the writer thread
    /// between batches; a write failure degrades the writer exactly like
    /// a failed data batch rather than bubbling an error.
    pub fn maybe_append_telemetry(&mut self) {
        let Some(interval) = self.telemetry_interval else {
            return;
        };
        if self.last_telemetry.elapsed() < interval {
            return;
        }
        self.append_telemetry_now();
    }

    /// Unconditionally append one telemetry frame (unless degraded or
    /// metrics are globally disabled). Used by
    /// [`maybe_append_telemetry`](Self::maybe_append_telemetry) and once
    /// more at shutdown so the spool's last snapshot carries final totals.
    pub fn append_telemetry_now(&mut self) {
        if self.degraded || self.telemetry_interval.is_none() {
            return;
        }
        let reg = tempest_obs::global();
        if !reg.is_enabled() {
            return;
        }
        self.last_telemetry = std::time::Instant::now();
        let payload = tempest_obs::encode_telemetry(&tempest_obs::Telemetry {
            node_id: self.node.node_id,
            hostname: self.node.hostname.clone(),
            origin_unix_ns: tempest_obs::unix_now_ns(),
            snapshot: reg.snapshot(),
        });
        if self.write_frame(FRAME_METRICS, &payload).is_err() {
            self.enter_degraded();
        } else {
            self.telemetry_frames += 1;
            self.metrics.telemetry_frames.inc();
        }
    }

    /// Telemetry frames appended so far.
    pub fn telemetry_frames(&self) -> u64 {
        self.telemetry_frames
    }

    /// Record one write failure and poison the active segment.
    fn enter_degraded(&mut self) {
        self.degraded = true;
        self.drops_since_revive = 0;
        self.io_errors += 1;
        self.metrics.io_errors.inc();
        tempest_obs::event!(
            Error,
            "spool",
            "write failed; shedding batches until the disk revives",
            dir = self.log.dir.display(),
            seq = self.log.seq,
            io_errors = self.io_errors,
        );
        tempest_obs::flight::dump_now("spool writer degraded");
    }

    /// Account a batch shed because the disk is rejecting writes.
    fn count_io_drop(&mut self, batch: &[Event]) {
        self.batches_dropped_io += 1;
        self.metrics.batches_dropped_io.inc();
        for e in batch {
            if matches!(e.kind, EventKind::Sample { .. }) {
                self.samples_dropped_io += 1;
            } else {
                self.events_dropped_io += 1;
            }
        }
    }

    /// Periodically attempt to leave degraded mode by opening a brand-new
    /// segment (the poisoned one is abandoned; recovery discards its torn
    /// tail). Returns true when the writer is healthy again.
    fn try_revive(&mut self) -> bool {
        self.drops_since_revive += 1;
        if self.drops_since_revive < Self::REVIVE_INTERVAL {
            return false;
        }
        self.drops_since_revive = 0;
        self.revive_now()
    }

    /// One immediate revival attempt: fresh directory (it may have been
    /// deleted), fresh segment, fresh sequence number.
    fn revive_now(&mut self) -> bool {
        let attempt = (|| -> io::Result<()> {
            std::fs::create_dir_all(&self.log.dir)?;
            self.log.open_next()?;
            self.write_node_frame()
        })();
        match attempt {
            Ok(()) => {
                self.degraded = false;
                tempest_obs::event!(
                    Info,
                    "spool",
                    "writer revived on a fresh segment",
                    seq = self.log.seq
                );
                true
            }
            Err(_) => {
                self.io_errors += 1;
                self.metrics.io_errors.inc();
                false
            }
        }
    }

    /// True while the writer is shedding batches after a write failure.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// True once the active segment has outgrown the configured size.
    /// Never true while degraded: there is no healthy segment to seal.
    pub fn should_rotate(&self) -> bool {
        !self.degraded && self.log.bytes_in_segment >= self.segment_bytes
    }

    /// Seal the active segment (symbol snapshot, flush, fsync per policy,
    /// atomic rename to `.seg`) and open the next one. The snapshot makes
    /// every sealed segment decodable with real names even if the process
    /// dies before the footer.
    pub fn rotate(&mut self, functions: &[FunctionDef]) -> io::Result<()> {
        self.write_symbols_frame(functions)?;
        self.seal_segment()?;
        self.log.open_next()?;
        self.write_node_frame()?;
        self.log.write_manifest(false)
    }

    /// [`rotate`](Self::rotate), but a failure degrades the writer
    /// instead of bubbling an error — the writer-thread variant, so a
    /// full disk at rotation time cannot kill the session.
    pub fn rotate_or_degrade(&mut self, functions: &[FunctionDef]) {
        if self.degraded {
            return;
        }
        if self.rotate(functions).is_err() {
            self.enter_degraded();
        }
    }

    fn seal_segment(&mut self) -> io::Result<()> {
        if self.fsync != FsyncPolicy::Never {
            self.sync()?;
        }
        self.log.seal()?;
        self.metrics.segments_sealed.inc();
        Ok(())
    }

    /// Orderly shutdown: write the symbol snapshot and the session footer
    /// (carrying the backpressure drop counters, with IO-shed events
    /// folded in), seal the final segment, and mark the manifest clean.
    ///
    /// A degraded writer makes one last revival attempt so the footer can
    /// land on a fresh segment; if the disk is still refusing writes the
    /// statistics are returned anyway — shutdown accounting must survive
    /// the same faults the data path does.
    pub fn finish(
        mut self,
        functions: &[FunctionDef],
        events_dropped: u64,
        samples_dropped: u64,
    ) -> io::Result<SpoolStats> {
        if self.degraded && !self.revive_now() {
            self.io_errors += 1; // the footer itself was lost
            return Ok(self.stats(events_dropped, samples_dropped));
        }
        // Final telemetry snapshot so the last spooled frame before the
        // footer carries the session's closing totals.
        self.append_telemetry_now();
        let seal = (|| -> io::Result<()> {
            self.write_symbols_frame(functions)?;
            let mut footer = [0u8; FOOTER_LEN];
            footer[0..8].copy_from_slice(&self.events_written.to_le_bytes());
            footer[8..16].copy_from_slice(&self.samples_written.to_le_bytes());
            footer[16..24]
                .copy_from_slice(&(events_dropped + self.events_dropped_io).to_le_bytes());
            footer[24..32]
                .copy_from_slice(&(samples_dropped + self.samples_dropped_io).to_le_bytes());
            self.write_frame(FRAME_FOOTER, &footer)?;
            self.seal_segment()?;
            self.log.write_manifest(true)
        })();
        if seal.is_err() {
            self.io_errors += 1;
            self.metrics.io_errors.inc();
        }
        Ok(self.stats(events_dropped, samples_dropped))
    }

    fn stats(&self, events_dropped: u64, samples_dropped: u64) -> SpoolStats {
        SpoolStats {
            segments: self.log.sealed.len() as u32,
            events_written: self.events_written,
            samples_written: self.samples_written,
            events_dropped,
            samples_dropped,
            bytes_written: self.log.bytes_written,
            batches_dropped_io: self.batches_dropped_io,
            events_dropped_io: self.events_dropped_io,
            samples_dropped_io: self.samples_dropped_io,
            io_errors: self.io_errors,
        }
    }
}

/// What [`check_manifest`] found when comparing the manifest against the
/// segment files actually on disk. Recovery never trusts the manifest —
/// but `tempest doctor` flags disagreements, because a manifest that
/// claims segments the disk no longer has (or vice versa) means something
/// other than the writer touched the spool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestCheck {
    /// The manifest's clean-shutdown flag.
    pub clean: bool,
    /// Sealed segments the manifest lists.
    pub listed: u32,
    /// Listed in the manifest but missing on disk.
    pub missing: Vec<String>,
    /// Sealed on disk but absent from the manifest.
    pub unlisted: Vec<String>,
    /// `.open` (unsealed) segments present on disk. One is normal for a
    /// crashed session; any are suspect when the manifest says clean.
    pub unsealed: Vec<String>,
}

impl ManifestCheck {
    /// True when manifest and disk agree (allowing an unsealed segment
    /// only for unclean sessions).
    pub fn consistent(&self) -> bool {
        self.missing.is_empty()
            && self.unlisted.is_empty()
            && (!self.clean || self.unsealed.is_empty())
    }

    /// Human one-liners describing each disagreement, for doctor.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in &self.missing {
            out.push(format!("manifest lists {name} but it is missing on disk"));
        }
        for name in &self.unlisted {
            out.push(format!("sealed segment {name} is not in the manifest"));
        }
        if self.clean {
            for name in &self.unsealed {
                out.push(format!(
                    "unsealed segment {name} present although the manifest says clean"
                ));
            }
        }
        out
    }
}

/// Compare the manifest in `dir` against the segment files on disk.
/// Returns `Ok(None)` when there is no parseable manifest (recovery
/// does not need one, so its absence is not itself an inconsistency).
pub fn check_manifest(dir: &Path) -> io::Result<Option<ManifestCheck>> {
    let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    if lines.next() != Some("tempest-spool v1") {
        return Ok(None);
    }
    let mut check = ManifestCheck::default();
    let mut listed: Vec<String> = Vec::new();
    for line in lines {
        if let Some(flag) = line.strip_prefix("clean ") {
            check.clean = flag.trim() == "1";
        } else if parse_segment_file_name(line.trim()).is_some() {
            listed.push(line.trim().to_string());
        }
    }
    check.listed = listed.len() as u32;
    let mut sealed_on_disk: Vec<String> = Vec::new();
    for (_, sealed, name) in segment_names(dir)? {
        if sealed {
            sealed_on_disk.push(name);
        } else {
            check.unsealed.push(name);
        }
    }
    for name in &listed {
        if !sealed_on_disk.iter().any(|d| d == name) {
            check.missing.push(name.clone());
        }
    }
    for name in &sealed_on_disk {
        if !listed.iter().any(|l| l == name) {
            check.unlisted.push(name.clone());
        }
    }
    Ok(Some(check))
}

/// Fsync a directory so a just-renamed entry survives power loss. Best
/// effort: some filesystems reject directory fsync, and a failure here
/// only weakens durability, never correctness.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
}

// ---- payload decoding ------------------------------------------------------

/// Why a checksum-valid frame still failed to decode: structural damage
/// or a kind no reader knows (discard the frame, keep scanning) versus a
/// resource-limit overrun (stop and surface the typed error — scanning
/// further would let a hostile spool keep costing us).
#[derive(Debug, Clone, Copy)]
pub enum FrameFail {
    /// Structurally undecodable payload.
    Corrupt,
    /// A kind this reader does not decode: a retired one (5) or one from
    /// a newer format revision.
    UnknownKind,
    /// A declared quantity exceeded the configured [`DecodeLimits`].
    Limit(LimitExceeded),
}

impl From<TraceError> for FrameFail {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Limit(e) => FrameFail::Limit(e),
            _ => FrameFail::Corrupt,
        }
    }
}

impl std::fmt::Display for FrameFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFail::Corrupt => f.write_str("checksum ok but payload undecodable"),
            FrameFail::UnknownKind => f.write_str("unknown frame kind"),
            FrameFail::Limit(e) => write!(f, "{e}"),
        }
    }
}

/// One frame's payload, decoded by [`decode_frame`].
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A [`FRAME_EVENTS`] batch, scope events and samples interleaved.
    Events(EventRecords<'a>),
    /// A [`FRAME_SYMBOLS`] snapshot.
    Symbols(Vec<FunctionDef>),
    /// A [`FRAME_NODE`] record.
    Node(NodeMeta),
    /// A [`FRAME_FOOTER`]: events and samples written, then events and
    /// samples dropped.
    Footer([u64; 4]),
    /// A [`FRAME_METRICS`] snapshot.
    Telemetry(tempest_obs::Telemetry),
}

/// The one frame-kind rule: decode an unwrapped frame's payload by its
/// kind under `limits`. Every reader of spool frames decides what a
/// frame holds here, so recovery and fsck cannot disagree about one.
pub fn decode_frame<'a>(
    kind: u8,
    payload: &'a [u8],
    limits: &DecodeLimits,
) -> Result<Decoded<'a>, FrameFail> {
    // Node and symbol frames decode through the trace file's decoders,
    // without its byte budget or deadline: recovery meters events only.
    let cur = &mut Cursor::new(payload);
    let (budget, cancel) = (ResourceBudget::unlimited(), CancelToken::default());
    match kind {
        FRAME_EVENTS => EventRecords::check(payload)
            .map(Decoded::Events)
            .ok_or(FrameFail::Corrupt),
        FRAME_SYMBOLS => {
            let mut functions = Vec::new();
            decode_functions(cur, &mut functions, limits, &budget, &cancel)?;
            Ok(Decoded::Symbols(functions))
        }
        FRAME_NODE => {
            let mut node = NodeMeta::anonymous();
            decode_node(cur, &mut node, limits, &budget)?;
            Ok(Decoded::Node(node))
        }
        FRAME_FOOTER if payload.len() == FOOTER_LEN => {
            let mut vals = [0u64; 4];
            for (v, b) in vals.iter_mut().zip(payload.chunks_exact(8)) {
                *v = u64::from_le_bytes(b.try_into().unwrap());
            }
            Ok(Decoded::Footer(vals))
        }
        FRAME_FOOTER => Err(FrameFail::Corrupt),
        FRAME_METRICS => tempest_obs::decode_telemetry(payload)
            .map(Decoded::Telemetry)
            .ok_or(FrameFail::Corrupt),
        _ => Err(FrameFail::UnknownKind),
    }
}

/// A checked view of a [`FRAME_EVENTS`] payload, read in place: a whole
/// number of 21-byte records, every tag one of the four event kinds. A
/// frame with one bad record fails the check whole, so nothing of it is
/// ever decoded.
#[derive(Debug, Clone, Copy)]
pub struct EventRecords<'a> {
    records: &'a [u8],
    /// Whether any record is a sample: a sampler's batch, not a probe's.
    samples: bool,
}

impl<'a> EventRecords<'a> {
    fn check(payload: &'a [u8]) -> Option<EventRecords<'a>> {
        let whole = payload.len().is_multiple_of(EVENT_RECORD_LEN);
        let mut samples = false;
        let known = |rec: &[u8]| {
            samples |= rec[0] == 4;
            (1..=4).contains(&rec[0])
        };
        (whole && payload.chunks_exact(EVENT_RECORD_LEN).all(known)).then_some(EventRecords {
            records: payload,
            samples,
        })
    }

    /// Records in the frame.
    pub(crate) fn len(&self) -> usize {
        self.records.len() / EVENT_RECORD_LEN
    }

    /// Send the records, in frame order, straight to their streams by
    /// tag. A probe's batch goes to the events stream in one run; in a
    /// sampler's batch each sample goes to the samples stream without
    /// becoming an [`Event`].
    pub(crate) fn send_to(self, streams: &mut MixedStreams) {
        let records = self.records.chunks_exact(EVENT_RECORD_LEN);
        if !self.samples {
            streams.extend_events(records.map(scope_event));
            return;
        }
        for rec in records {
            if rec[0] == 4 {
                let sensor = SensorId(u32::from_le_bytes(rec[5..9].try_into().unwrap()) as u16);
                let millicelsius = i32::from_le_bytes(rec[9..13].try_into().unwrap());
                let ts = u64::from_le_bytes(rec[13..21].try_into().unwrap());
                streams.push_sample(sensor, ts, millicelsius);
            } else {
                streams.extend_events(std::iter::once(scope_event(rec)));
            }
        }
    }
}

/// A checked record with tag 1, 2 or 3: an enter, exit or gap marker.
#[inline]
fn scope_event(rec: &[u8]) -> Event {
    let thread = ThreadId(u32::from_le_bytes(rec[1..5].try_into().unwrap()));
    let payload = u32::from_le_bytes(rec[5..9].try_into().unwrap());
    let ts = u64::from_le_bytes(rec[13..21].try_into().unwrap());
    let kind = match rec[0] {
        3 => EventKind::Gap {
            sensor: SensorId(payload as u16),
        },
        // Enter and exit differ in the tag alone. Their order follows the
        // call tree, which no branch predictor can follow, so a select
        // picks one.
        tag => {
            let func = FunctionId(payload);
            let (enter, exit) = (EventKind::Enter { func }, EventKind::Exit { func });
            std::hint::select_unpredictable(tag == 1, enter, exit)
        }
    };
    Event {
        timestamp_ns: ts,
        thread,
        kind,
    }
}

// ---- recovery --------------------------------------------------------------

/// What a spool recovery found and discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpoolReport {
    /// Segment files scanned (sealed and open).
    pub segments_scanned: u32,
    /// Frames that passed their checksum and decoded.
    pub frames_recovered: u64,
    /// Torn, checksum-failed, or undecodable frames discarded. At most
    /// one per segment can be *torn*; the rest were corrupted in place.
    pub frames_discarded: u64,
    /// Scope events recovered.
    pub events_recovered: u64,
    /// Sensor samples recovered.
    pub samples_recovered: u64,
    /// True when a session footer was found: the writer shut down
    /// cleanly, so the spool holds everything that was ever submitted.
    pub clean_shutdown: bool,
    /// Shipped frames skipped because their source cursor was not past
    /// the highest already applied — re-sends from a reconnecting
    /// shipper. Zero for locally-written spools.
    pub frames_deduped: u64,
    /// Highest source-spool cursor `(segment, offset)` seen in shipped
    /// frames; `None` for locally-written spools.
    pub shipped_through: Option<(u64, u64)>,
    /// Telemetry ([`FRAME_METRICS`]) frames that decoded cleanly.
    pub telemetry_frames: u64,
    /// Per-frame transit records recovered from [`FRAME_SHIPPED2`]
    /// wrappers, in cursor order. Empty for locally-written spools.
    pub frame_traces: Vec<FrameTrace>,
    /// The equivalent [`SalvageReport`], for feeding the analyzer's data
    /// quality accounting.
    pub salvage: SalvageReport,
}

/// Transit record of one network-shipped frame: where it came from and
/// when it passed each hop. Both timestamps are wall-clock Unix
/// nanoseconds (from different hosts — treat skew as part of the signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Source-spool segment sequence.
    pub seg: u64,
    /// Byte offset of the frame within that segment.
    pub off: u64,
    /// When the shipper sent the frame.
    pub origin_unix_ns: u64,
    /// When the collector accepted and stamped it.
    pub collect_unix_ns: u64,
}

impl FrameTrace {
    /// Ship→collect transit latency in nanoseconds; `None` when clock
    /// skew makes the difference negative.
    pub fn transit_ns(&self) -> Option<u64> {
        self.collect_unix_ns.checked_sub(self.origin_unix_ns)
    }
}

/// True if `path` looks like a spool directory: it is a directory holding
/// a manifest or at least one segment file.
pub fn is_spool_dir(path: &Path) -> bool {
    if !path.is_dir() {
        return false;
    }
    if path.join(MANIFEST_NAME).is_file() {
        return true;
    }
    list_segment_files(path).is_ok_and(|s| !s.is_empty())
}

/// Segment files in `dir` as `(sequence, path)`, ordered by sequence: the
/// one listing every reader walks. When a sealed and an open file share
/// a sequence (a crashed rotation, or a copy), the sealed one wins, so
/// each sequence is read once.
pub fn list_segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut names = segment_names(dir)?;
    names.dedup_by_key(|(seq, ..)| *seq);
    Ok(names
        .into_iter()
        .map(|(seq, _, name)| (seq, dir.join(name)))
        .collect())
}

/// The open rule of every segment scan: open a listed segment, or its
/// `.seg` name when a listed `.open` segment was sealed since. Returns
/// the file, capped at the length it had when opened, and the path.
pub fn open_segment(path: &Path) -> io::Result<(io::Take<File>, PathBuf)> {
    let (file, path) = match File::open(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let name = path.file_name().and_then(|n| n.to_str());
            let Some((seq, false)) = name.and_then(parse_segment_file_name) else {
                return Err(e);
            };
            let sealed = path.with_file_name(segment_file_name(seq, true));
            (File::open(&sealed)?, sealed)
        }
        file => (file?, path.to_path_buf()),
    };
    let len = file.metadata()?.len();
    Ok((file.take(len), path))
}

/// One checksum-verified frame inside a segment file, with the byte
/// offset its header starts at — the offset is what the network shipper
/// uses as its resume cursor.
#[derive(Debug, Clone, Copy)]
pub struct RawFrame<'a> {
    /// Byte offset of the frame header within the segment file.
    pub offset: u64,
    /// Frame kind byte.
    pub kind: u8,
    /// Checksum-verified payload.
    pub payload: &'a [u8],
}

/// True when `bytes` start with a whole segment header. Bytes without
/// one hold no frames, and count as one torn frame unless there are none.
fn segment_header_ok(bytes: &[u8]) -> bool {
    bytes.len() >= SEGMENT_HEADER_LEN && bytes.starts_with(SEGMENT_MAGIC)
}

/// What [`cut_frame`] found at a frame boundary.
enum Cut {
    /// A checksum-verified frame: its kind and payload length.
    Frame(u8, usize),
    /// The segment ends here, or a torn or checksum-failed frame does.
    Stop,
    /// The frame fits in the segment; the window must hold this many
    /// bytes to check it.
    Need(usize),
}

/// The frame-boundary and checksum rule, which [`parse_segment_frames`]
/// and [`SegmentReader`] both cut by. `window` holds segment bytes from a
/// frame boundary on, and `left` is how many the segment has from there.
/// A claimed length is checked against `left` before more bytes are
/// asked for, so a lying header never grows a buffer past the segment.
fn cut_frame(window: &[u8], left: u64) -> Cut {
    if left < FRAME_HEADER_LEN as u64 {
        return Cut::Stop;
    }
    let Some(head) = window.first_chunk() else {
        return Cut::Need(FRAME_HEADER_LEN);
    };
    let (kind, len, crc) = split_frame_header(head);
    let end = match usize::try_from(FRAME_HEADER_LEN as u64 + u64::from(len)) {
        Ok(end) if end as u64 <= left => end,
        _ => return Cut::Stop,
    };
    match window.get(FRAME_HEADER_LEN..end) {
        None => Cut::Need(end),
        Some(payload) if frame_crc(kind, payload) == crc => Cut::Frame(kind, len as usize),
        Some(_) => Cut::Stop,
    }
}

/// Parse a segment already in memory into frames by `cut_frame`,
/// stopping at the first torn or checksum-failed frame (everything after
/// it is untrustworthy). Returns `(frames, discarded)` where `discarded`
/// is 1 if a damaged frame or segment header ended the scan. Segment
/// files are read through [`SegmentReader`] instead.
pub fn parse_segment_frames(bytes: &[u8]) -> (Vec<RawFrame<'_>>, u64) {
    let mut frames = Vec::new();
    if !segment_header_ok(bytes) {
        return (frames, u64::from(!bytes.is_empty()));
    }
    let mut pos = SEGMENT_HEADER_LEN;
    loop {
        let window = &bytes[pos..];
        // The window is the rest of the segment, so no frame needs more.
        let Cut::Frame(kind, len) = cut_frame(window, window.len() as u64) else {
            return (frames, u64::from(!window.is_empty()));
        };
        let payload = &window[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        frames.push(RawFrame {
            offset: pos as u64,
            kind,
            payload,
        });
        pos += FRAME_HEADER_LEN + len;
    }
}

/// The one reader of spool segment files. It opens a listed segment by
/// [`open_segment`]'s rule and hands out its frames one at a time, cut by
/// `cut_frame` from a reused buffer that holds `READ_AHEAD` bytes or
/// one longer frame. It stops at the first torn or checksum-failed frame
/// and never reads past the length the segment had when it was opened.
pub struct SegmentReader {
    file: io::Take<File>,
    path: PathBuf,
    /// `buf[..filled]` holds the segment from offset `base` on, and the
    /// next frame starts at `buf[at]`.
    buf: Vec<u8>,
    base: u64,
    filled: usize,
    at: usize,
    torn: bool,
}

impl SegmentReader {
    /// Open a listed segment and check its header.
    pub fn open(path: &Path) -> io::Result<SegmentReader> {
        SegmentReader::open_at(path, SEGMENT_HEADER_LEN as u64)
    }

    /// [`Self::open`], then go on from `offset`: a frame boundary that an
    /// earlier reader of this segment reached ([`Self::offset`]). The
    /// segment only grows, so the boundary holds; nothing before it is
    /// read but the header, which is still checked.
    pub fn open_at(path: &Path, offset: u64) -> io::Result<SegmentReader> {
        let (mut file, path) = open_segment(path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        (&mut file)
            .take(SEGMENT_HEADER_LEN as u64)
            .read_to_end(&mut header)?;
        let mut reader = SegmentReader {
            file,
            path,
            buf: Vec::new(),
            base: header.len() as u64,
            filled: 0,
            at: 0,
            torn: false,
        };
        if !segment_header_ok(&header) {
            reader.torn = !header.is_empty();
            reader.file.set_limit(0);
            return Ok(reader);
        }
        let skip = offset.saturating_sub(reader.base).min(reader.file.limit());
        if skip > 0 {
            reader.base += skip;
            reader.file.get_mut().seek(SeekFrom::Start(reader.base))?;
            reader.file.set_limit(reader.file.limit() - skip);
        }
        Ok(reader)
    }

    /// Where the next frame starts: the end of the last frame handed out,
    /// or of the header before the first.
    pub fn offset(&self) -> u64 {
        self.base + self.at as u64
    }

    /// The next checksum-verified frame; `None` at the end of the segment
    /// or at its first torn or checksum-failed frame.
    pub fn next_frame(&mut self) -> io::Result<Option<RawFrame<'_>>> {
        loop {
            let left = (self.filled - self.at) as u64 + self.file.limit();
            match cut_frame(&self.buf[self.at..self.filled], left) {
                Cut::Frame(kind, len) => {
                    let offset = self.base + self.at as u64;
                    let payload = self.at + FRAME_HEADER_LEN..self.at + FRAME_HEADER_LEN + len;
                    self.at = payload.end;
                    let payload = &self.buf[payload];
                    return Ok(Some(RawFrame {
                        offset,
                        kind,
                        payload,
                    }));
                }
                Cut::Need(n) => self.fill(n)?,
                Cut::Stop => {
                    self.torn |= left > 0;
                    return Ok(None);
                }
            }
        }
    }

    /// 1 once a torn or checksum-failed frame, or a damaged segment
    /// header, has ended the scan; 0 otherwise.
    pub fn torn(&self) -> u64 {
        u64::from(self.torn)
    }

    /// The file opened: the listed path, or the `.seg` name it was sealed
    /// under since.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Make `buf` hold at least `n` bytes from the next frame on, reading
    /// ahead up to [`READ_AHEAD`]. A file that shrank since it was opened
    /// ends the segment where it stops.
    fn fill(&mut self, n: usize) -> io::Result<()> {
        self.buf.copy_within(self.at..self.filled, 0);
        self.base += self.at as u64;
        self.filled -= self.at;
        self.at = 0;
        let ahead = (self.filled as u64 + self.file.limit()).min(READ_AHEAD as u64);
        let want = n.max(ahead as usize);
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        while self.filled < n && self.file.limit() > 0 {
            match self.file.read(&mut self.buf[self.filled..want]) {
                Ok(0) => self.file.set_limit(0),
                Ok(got) => self.filled += got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Walk the frames of the spool in `dir`, envelopes taken off, in
/// recovery order, until `visit` breaks with a value. For lookups that
/// may pass over damage: a segment that cannot be read is skipped from
/// where it fails, and a malformed envelope is left out.
pub fn scan_frames<B>(
    dir: &Path,
    mut visit: impl FnMut(Unwrapped<'_>) -> ControlFlow<B>,
) -> Option<B> {
    for (_, path) in list_segment_files(dir).ok()? {
        let Ok(mut segment) = SegmentReader::open(&path) else {
            continue;
        };
        while let Ok(Some(frame)) = segment.next_frame() {
            if let Some(ControlFlow::Break(found)) = unwrap_frame(&frame).map(&mut visit) {
                return Some(found);
            }
        }
    }
    None
}

/// Build a [`FRAME_SHIPPED2`] payload: the source cursor, the shipper's
/// send timestamp, the collector's receive timestamp (both wall-clock
/// Unix nanoseconds), then the wrapped frame. The shipper builds one per
/// frame with a zero receive time and sends it as is; the collector
/// fills the receive time in with [`stamp_collect_time`] and appends it,
/// so the resume cursor survives any crash because it is part of the
/// same checksummed frame as the data it covers, and the two stamps are
/// what recovery turns into per-frame transit latency.
pub fn shipped2_payload(
    seg: u64,
    off: u64,
    origin_unix_ns: u64,
    collect_unix_ns: u64,
    inner_kind: u8,
    inner_payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHIPPED2_PREFIX_LEN + inner_payload.len());
    out.extend_from_slice(&seg.to_le_bytes());
    out.extend_from_slice(&off.to_le_bytes());
    out.extend_from_slice(&origin_unix_ns.to_le_bytes());
    out.extend_from_slice(&collect_unix_ns.to_le_bytes());
    out.push(inner_kind);
    out.extend_from_slice(inner_payload);
    out
}

/// Write the collector's receive time into a [`FRAME_SHIPPED2`] payload
/// that [`unwrap_frame`] accepted, leaving every other byte as it is.
///
/// # Panics
///
/// If `envelope` is shorter than [`SHIPPED2_PREFIX_LEN`]: such a runt is
/// refused by [`unwrap_frame`] before anything stamps it.
pub fn stamp_collect_time(envelope: &mut [u8], collect_unix_ns: u64) {
    envelope[COLLECT_STAMP_AT..COLLECT_STAMP_AT + 8]
        .copy_from_slice(&collect_unix_ns.to_le_bytes());
}

/// A frame with its envelope, if it had one, taken off.
#[derive(Debug, Clone, Copy)]
pub struct Unwrapped<'a> {
    /// Kind of the carried frame.
    pub kind: u8,
    /// Payload of the carried frame.
    pub payload: &'a [u8],
    /// Source cursor and transit stamps of a collector-written frame;
    /// `None` for a frame a local spool writer appended directly.
    pub shipped: Option<FrameTrace>,
}

/// The one envelope rule: take a checksum-verified frame out of its
/// [`FRAME_SHIPPED2`] envelope, or pass any other kind through as it is.
/// `None` for a runt envelope (too short for its prefix) or a nested one
/// (nothing writes an envelope inside an envelope, so it is damage).
/// Spool readers and the collector's `DATA` intake both go through it.
pub fn unwrap_frame<'a>(frame: &RawFrame<'a>) -> Option<Unwrapped<'a>> {
    if frame.kind != FRAME_SHIPPED2 {
        return Some(Unwrapped {
            kind: frame.kind,
            payload: frame.payload,
            shipped: None,
        });
    }
    let mut cur = Cursor::new(frame.payload);
    let shipped = FrameTrace {
        seg: cur.u64().ok()?,
        off: cur.u64().ok()?,
        origin_unix_ns: cur.u64().ok()?,
        collect_unix_ns: cur.u64().ok()?,
    };
    let kind = cur.u8().ok()?;
    if kind == FRAME_SHIPPED2 {
        return None;
    }
    Some(Unwrapped {
        kind,
        payload: cur.rest(),
        shipped: Some(shipped),
    })
}

/// Scan a spool directory and reassemble the trace it holds.
///
/// Deliberately manifest-independent: every segment present is scanned
/// once (see [`list_segment_files`]), every frame is checksum-verified,
/// and parsing of a segment
/// stops at its first damaged frame (later segments are still used — a
/// torn rotation does not sacrifice everything after it). Never panics on
/// arbitrary input; a directory with no usable segment data is an error.
pub fn recover(dir: &Path) -> Result<(Trace, SpoolReport), TraceError> {
    recover_with(dir, &DecodeLimits::default(), &CancelToken::default())
}

/// [`recover`] under explicit [`DecodeLimits`] and a [`CancelToken`].
///
/// A limit overrun (symbol/sensor cardinality, byte budget over the
/// accumulated event stream) or a tripped deadline stops the scan at that
/// point: everything recovered before it is still assembled and returned,
/// with the overrun recorded in `report.salvage.limit` — the spool
/// analogue of [`Trace::decode_salvage_with`]'s bounded partial results.
///
/// Recovery runs on two threads. A reader scoped to the call reads and
/// checksums the segments ahead of the calling thread, which takes each
/// frame in the order read and decides everything the result depends on.
/// The reader is joined before this returns, whatever stopped the scan.
pub fn recover_with(
    dir: &Path,
    limits: &DecodeLimits,
    cancel: &CancelToken,
) -> Result<(Trace, SpoolReport), TraceError> {
    let segments = list_segment_files(dir)?;
    if segments.is_empty() {
        return Err(TraceError::Corrupt("no spool segments found"));
    }

    // One reservation for the scope events: as many as the byte budget
    // lets recovery keep, clamped like any declared count to what the
    // listed segments can hold (a record takes 21 bytes there and an
    // `Event` in memory) and to the allocation cap, so no spool can
    // reserve past its caps.
    let listed = segments
        .iter()
        .filter_map(|(_, path)| std::fs::metadata(path).ok())
        .fold(0u64, |sum, m| sum.saturating_add(m.len()));
    let event = std::mem::size_of::<Event>();
    let in_memory =
        (usize::try_from(listed).unwrap_or(usize::MAX) / EVENT_RECORD_LEN).saturating_mul(event);
    let budgeted = usize::try_from(limits.budget_bytes).unwrap_or(usize::MAX) / event;
    let reserve = limits.clamp_prealloc(budgeted, in_memory, event);

    let mut rec = Recovery {
        limits,
        budget: limits.budget(),
        report: SpoolReport::default(),
        streams: MixedStreams::with_event_capacity(reserve),
        functions: Vec::new(),
        node: None,
        footer: None,
    };
    let limit_hit = std::thread::scope(|scope| {
        let (handoff, handed) = mpsc::sync_channel(HANDOFF_FRAMES);
        let (give_back, given_back) = mpsc::channel();
        let segments = &segments;
        let reader = std::thread::Builder::new()
            .name("tempest-recover".into())
            .spawn_scoped(scope, move || {
                if let Err(e) = read_ahead(segments, &handoff, given_back) {
                    let _ = handoff.send(Handed::Failed(e));
                }
            })?;
        // `take_handed` owns the caller's ends of both channels, so every
        // way out of it stops the reader at its next hand-off.
        let taken = take_handed(segments.len(), handed, give_back, cancel, &mut rec);
        if let Err(panic) = reader.join() {
            std::panic::resume_unwind(panic);
        }
        taken
    })?;

    let Recovery {
        mut report,
        streams,
        mut functions,
        node,
        footer,
        ..
    } = rec;
    if let Some(limit) = &limit_hit {
        // A tripped decode limit is exactly the kind of event the flight
        // recorder exists for: note it and leave the black box beside the
        // spool (best effort — the dump must not fail recovery).
        tempest_obs::event!(
            Error,
            "recover",
            format!("recovery stopped early: {limit}"),
            dir = dir.display(),
            frames_recovered = report.frames_recovered,
        );
        let _ = tempest_obs::flight::flight()
            .dump_to(&dir.join(FLIGHT_DUMP_NAME), "recover limit exceeded");
    }

    let events_recovered = streams.events().len() as u64;
    let samples_recovered = streams.samples_len() as u64;
    if node.is_none()
        && events_recovered + samples_recovered == 0
        && functions.is_empty()
        && footer.is_none()
        && limit_hit.is_none()
    {
        return Err(TraceError::Corrupt(
            "spool segments held no decodable frames",
        ));
    }

    if functions.is_empty() {
        functions = synthesize_functions(streams.events());
    }

    report.events_recovered = events_recovered;
    report.samples_recovered = samples_recovered;
    report.clean_shutdown = footer.is_some();

    let [events_declared, samples_declared, events_dropped, samples_dropped] =
        footer.unwrap_or([events_recovered, samples_recovered, 0, 0]);
    report.salvage = SalvageReport {
        truncated_in: if report.clean_shutdown
            && report.frames_discarded == 0
            && limit_hit.is_none()
        {
            None
        } else {
            Some(TraceSection::Events)
        },
        events_declared,
        events_salvaged: events_recovered,
        samples_declared,
        samples_salvaged: samples_recovered,
        nonfinite_samples_skipped: 0,
        events_dropped_backpressure: events_dropped,
        samples_dropped_backpressure: samples_dropped,
        limit: limit_hit,
    };

    let trace = streams.into_trace(node.unwrap_or_else(NodeMeta::anonymous), functions);
    Ok((trace, report))
}

/// Frames the recovery reader may queue for the caller.
const HANDOFF_FRAMES: usize = 4;
/// Payload bytes the recovery reader may lend the caller at once, queued
/// or being taken; a larger frame is lent alone.
const HANDOFF_BYTES: usize = 4 * READ_AHEAD;

/// What the recovery reader hands the caller, in the order it read it.
enum Handed {
    /// A checksum-verified frame, its payload copied into a buffer the
    /// caller gives back.
    Frame {
        offset: u64,
        kind: u8,
        payload: Vec<u8>,
    },
    /// A segment's end: 1 if a torn or checksum-failed frame ended it.
    End(u64),
    /// The segment could not be opened or read; nothing follows.
    Failed(io::Error),
}

/// The recovery reader: read the listed segments in order through
/// [`SegmentReader`] and hand over each verified frame and each segment's
/// end. A frame is copied only once it fits beside the copies the caller
/// still holds, under [`HANDOFF_BYTES`] or alone, into a buffer the
/// caller gave back when there is one. Returns at its next hand-off once
/// the caller has hung up, and with the first I/O error, which its
/// spawner hands over.
fn read_ahead(
    segments: &[(u64, PathBuf)],
    handoff: &SyncSender<Handed>,
    given_back: Receiver<Vec<u8>>,
) -> io::Result<()> {
    let mut spare: Vec<Vec<u8>> = Vec::new();
    let mut lent = 0;
    for (_, path) in segments {
        let mut segment = SegmentReader::open(path)?;
        while let Some(frame) = segment.next_frame()? {
            spare.extend(given_back.try_iter().inspect(|b| lent -= b.len()));
            while lent > 0 && lent + frame.payload.len() > HANDOFF_BYTES {
                let Ok(buf) = given_back.recv() else {
                    return Ok(());
                };
                lent -= buf.len();
                spare.push(buf);
            }
            let mut payload = spare.pop().unwrap_or_default();
            payload.clear();
            payload.extend_from_slice(frame.payload);
            lent += payload.len();
            debug_assert!(lent <= HANDOFF_BYTES || lent == payload.len());
            let (offset, kind) = (frame.offset, frame.kind);
            let handed = Handed::Frame {
                offset,
                kind,
                payload,
            };
            if handoff.send(handed).is_err() {
                return Ok(());
            }
        }
        if handoff.send(Handed::End(segment.torn())).is_err() {
            return Ok(());
        }
    }
    Ok(())
}

/// Take what the reader hands over, one listed segment at a time: check
/// the deadline before the segment, take its frames in the order read,
/// and add its torn count at its end. Returns the limit that stopped the
/// scan, if one did. The reader's I/O error fails recovery, and so does
/// its silence before the last segment ends: that is never the end of
/// the spool.
fn take_handed(
    segments: usize,
    handed: Receiver<Handed>,
    give_back: Sender<Vec<u8>>,
    cancel: &CancelToken,
    rec: &mut Recovery<'_>,
) -> Result<Option<LimitExceeded>, TraceError> {
    for _ in 0..segments {
        if let Err(e) = cancel.check("spool recover") {
            return Ok(Some(e));
        }
        rec.report.segments_scanned += 1;
        loop {
            let Ok(next) = handed.recv() else {
                return Err(io::Error::other("spool reader stopped early").into());
            };
            match next {
                Handed::Frame {
                    offset,
                    kind,
                    payload,
                } => {
                    let taken = rec.take(&RawFrame {
                        offset,
                        kind,
                        payload: &payload,
                    });
                    // The reader may have finished and gone.
                    let _ = give_back.send(payload);
                    if let Err(limit) = taken {
                        return Ok(Some(limit));
                    }
                }
                Handed::End(torn) => {
                    rec.report.frames_discarded += torn;
                    break;
                }
                Handed::Failed(e) => return Err(e.into()),
            }
        }
    }
    Ok(None)
}

/// What recovery has kept of the frames taken so far.
struct Recovery<'l> {
    limits: &'l DecodeLimits,
    budget: ResourceBudget,
    report: SpoolReport,
    streams: MixedStreams,
    functions: Vec<FunctionDef>,
    node: Option<NodeMeta>,
    footer: Option<[u64; 4]>,
}

impl Recovery<'_> {
    /// Take one frame: unwrap it, drop it if it is a re-send, decode it by
    /// [`decode_frame`] and keep what it holds. An events frame is charged
    /// against the byte budget before any of its records is kept. `Err` is
    /// the limit that stops the scan.
    fn take(&mut self, frame: &RawFrame<'_>) -> Result<(), LimitExceeded> {
        let report = &mut self.report;
        let Some(inner) = unwrap_frame(frame) else {
            report.frames_discarded += 1;
            return Ok(());
        };
        // A collector-written frame whose cursor does not advance is a
        // re-send after a reconnect: drop it.
        if let Some(shipped) = inner.shipped {
            let cursor = (shipped.seg, shipped.off);
            if report.shipped_through.is_some_and(|c| cursor <= c) {
                report.frames_deduped += 1;
                return Ok(());
            }
            report.shipped_through = Some(cursor);
            report.frame_traces.push(shipped);
        }
        match decode_frame(inner.kind, inner.payload, self.limits) {
            Ok(Decoded::Events(records)) => {
                // The recovered streams are the one spot a many-segment
                // spool can grow without bound — meter each frame against
                // the byte budget before keeping any of it.
                let bytes = records.len() * std::mem::size_of::<Event>();
                self.budget.charge("spool events", bytes as u64)?;
                records.send_to(&mut self.streams);
            }
            // Later snapshots supersede earlier ones: the registry only
            // grows, so the newest is a superset.
            Ok(Decoded::Symbols(syms)) => self.functions = syms,
            Ok(Decoded::Node(n)) => {
                self.node.get_or_insert(n);
            }
            Ok(Decoded::Footer(vals)) => self.footer = Some(vals),
            // Self-telemetry snapshots are verified and counted but not
            // folded into the trace; `tempest fleet` reads them.
            Ok(Decoded::Telemetry(_)) => report.telemetry_frames += 1,
            Err(FrameFail::Limit(e)) => return Err(e),
            // Damaged, or a kind this reader does not know: skip it rather
            // than distrust the rest.
            Err(FrameFail::Corrupt | FrameFail::UnknownKind) => {
                report.frames_discarded += 1;
                return Ok(());
            }
        }
        report.frames_recovered += 1;
        Ok(())
    }
}

/// Build a placeholder symbol table (ids only) for an event stream whose
/// real symbol table was lost to a crash.
fn synthesize_functions(events: &[Event]) -> Vec<FunctionDef> {
    let mut ids: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Enter { func } | EventKind::Exit { func } => Some(func.0),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .map(|id| FunctionDef {
            id: FunctionId(id),
            name: format!("fn#{id}"),
            address: 0x400000 + 16 * id as u64,
            kind: ScopeKind::Function,
        })
        .collect()
}

// ---- deep verification (doctor --fsck) -------------------------------------

/// Per-segment result of a deep verification pass ([`fsck_dir`]).
#[derive(Debug, Clone)]
pub struct SegmentFsck {
    /// The segment file examined.
    pub path: PathBuf,
    /// Frames that passed their checksum *and* re-decoded cleanly under
    /// the verification limits.
    pub frames_ok: u64,
    /// Frames lost to tearing or checksum failure (at most one per
    /// segment — the scan stops at the first).
    pub frames_torn: u64,
    /// Human-readable violations: malformed envelopes, and checksum-valid
    /// frames that failed to decode, are of an unknown kind, or declare
    /// quantities beyond the limits.
    pub violations: Vec<String>,
}

impl SegmentFsck {
    /// True when every frame in the segment verified cleanly.
    pub fn is_clean(&self) -> bool {
        self.frames_torn == 0 && self.violations.is_empty()
    }
}

/// Deep-verify every segment in a spool directory: re-decode every
/// checksum-valid frame under `limits` and report, per segment, what
/// failed and why. Unlike [`recover_with`] this never stops early — the
/// point is a complete damage survey. An events frame is only checked in
/// place, and any other frame decodes into a bounded amount of memory
/// that is dropped before the next one.
pub fn fsck_dir(dir: &Path, limits: &DecodeLimits) -> io::Result<Vec<SegmentFsck>> {
    let mut out = Vec::new();
    for (_, path) in list_segment_files(dir)? {
        let mut segment = SegmentReader::open(&path)?;
        let mut fsck = SegmentFsck {
            path: segment.path().to_path_buf(),
            frames_ok: 0,
            frames_torn: 0,
            violations: Vec::new(),
        };
        while let Some(frame) = segment.next_frame()? {
            let Some(inner) = unwrap_frame(&frame) else {
                fsck.violations.push(format!(
                    "frame @{}: malformed shipped wrapper",
                    frame.offset
                ));
                continue;
            };
            match decode_frame(inner.kind, inner.payload, limits) {
                Ok(_) => fsck.frames_ok += 1,
                Err(fail) => fsck.violations.push(format!(
                    "frame @{} kind {}: {fail}",
                    frame.offset, inner.kind
                )),
            }
        }
        fsck.frames_torn = segment.torn();
        out.push(fsck);
    }
    Ok(out)
}

// ---- SpoolSink -------------------------------------------------------------

/// Final backpressure drop counters, latched by [`SpoolSink::finish`] for
/// the writer thread to stamp into the session footer.
#[derive(Default)]
struct FinalDrops {
    events: AtomicU64,
    samples: AtomicU64,
    set: AtomicBool,
}

/// An [`EventSink`] that spools every batch to disk through a bounded
/// queue and a dedicated writer thread.
///
/// Submissions delegate to an inner [`ChannelSink`] (bounded, with the
/// configured [`OverflowPolicy`]); the writer thread drains the queue into
/// a [`SpoolWriter`], rotating segments as they fill. [`finish`]
/// closes the queue, waits for the writer to seal the final segment with
/// the session footer, and returns the [`SpoolStats`].
///
/// [`finish`]: SpoolSink::finish
pub struct SpoolSink {
    inner: Mutex<Option<Arc<ChannelSink>>>,
    writer: Mutex<Option<std::thread::JoinHandle<io::Result<SpoolStats>>>>,
    registry: Arc<Mutex<Option<FunctionRegistry>>>,
    final_drops: Arc<FinalDrops>,
    latched_by_thread: Mutex<BTreeMap<ThreadId, u64>>,
    latched_total: AtomicU64,
}

impl SpoolSink {
    /// Open the spool on disk and start the writer thread. Fails eagerly
    /// (in the caller) if the spool directory cannot be created.
    pub fn spawn(config: &SpoolConfig, node: NodeMeta) -> io::Result<Arc<SpoolSink>> {
        let mut writer = SpoolWriter::create(config, node)?;
        let (sink, rx) = ChannelSink::bounded(config.queue_batches, config.overflow);
        let registry: Arc<Mutex<Option<FunctionRegistry>>> = Arc::new(Mutex::new(None));
        let final_drops = Arc::new(FinalDrops::default());

        let registry_for_writer = registry.clone();
        let drops_for_writer = final_drops.clone();
        let handle = std::thread::Builder::new()
            .name("tempest-spool".to_string())
            .spawn(move || -> io::Result<SpoolStats> {
                for batch in rx.iter() {
                    // Both calls degrade internally on I/O errors (ENOSPC
                    // and friends) instead of erroring: the session stays
                    // alive and the drops are accounted in SpoolStats.
                    writer.append_batch(&batch)?;
                    if writer.should_rotate() {
                        let snapshot = registry_for_writer
                            .lock()
                            .as_ref()
                            .map(|r| r.snapshot())
                            .unwrap_or_default();
                        writer.rotate_or_degrade(&snapshot);
                    }
                    // Opportunistic self-telemetry: ride the same queue
                    // cadence as the data instead of waking a timer. An
                    // idle spool (no batches) emits nothing, which is the
                    // right overhead for an idle spool.
                    writer.maybe_append_telemetry();
                }
                // Queue closed: orderly shutdown. The drop counters were
                // latched by finish() before it closed the queue.
                let snapshot = registry_for_writer
                    .lock()
                    .as_ref()
                    .map(|r| r.snapshot())
                    .unwrap_or_default();
                let (ev_drops, sa_drops) = if drops_for_writer.set.load(Ordering::Acquire) {
                    (
                        drops_for_writer.events.load(Ordering::Acquire),
                        drops_for_writer.samples.load(Ordering::Acquire),
                    )
                } else {
                    (0, 0)
                };
                writer.finish(&snapshot, ev_drops, sa_drops)
            })?;

        Ok(Arc::new(SpoolSink {
            inner: Mutex::new(Some(sink)),
            writer: Mutex::new(Some(handle)),
            registry,
            final_drops,
            latched_by_thread: Mutex::new(BTreeMap::new()),
            latched_total: AtomicU64::new(0),
        }))
    }

    /// Give the writer thread access to the live symbol table, so segment
    /// seals carry real names. Called once the profiler exists (the
    /// profiler needs the sink first, so this cannot happen at spawn).
    pub fn attach_registry(&self, registry: FunctionRegistry) {
        *self.registry.lock() = Some(registry);
    }

    /// Close the queue, wait for the writer to seal the spool, and return
    /// its statistics. Subsequent submissions are silently discarded;
    /// calling `finish` twice is an error.
    pub fn finish(&self) -> io::Result<SpoolStats> {
        let sink = self
            .inner
            .lock()
            .take()
            .ok_or_else(|| io::Error::other("spool already finished"))?;
        // Latch the drop counters while the ChannelSink is still alive,
        // and publish them for the writer *before* the queue closes.
        let samples_dropped = sink.dropped_for(Event::TEMPD_THREAD);
        let events_dropped = sink.dropped_total() - samples_dropped;
        *self.latched_by_thread.lock() = sink.dropped_by_thread();
        self.latched_total
            .store(sink.dropped_total(), Ordering::Release);
        self.final_drops
            .events
            .store(events_dropped, Ordering::Release);
        self.final_drops
            .samples
            .store(samples_dropped, Ordering::Release);
        self.final_drops.set.store(true, Ordering::Release);
        let obs = tempest_obs::global();
        obs.counter("spool_events_dropped_backpressure")
            .add(events_dropped);
        obs.counter("spool_samples_dropped_backpressure")
            .add(samples_dropped);
        if events_dropped + samples_dropped > 0 {
            tempest_obs::event!(
                Warn,
                "spool",
                "bounded queue shed submissions under backpressure",
                events_dropped = events_dropped,
                samples_dropped = samples_dropped,
            );
        }
        drop(sink); // last sender gone → writer drains and seals
        let handle = self
            .writer
            .lock()
            .take()
            .ok_or_else(|| io::Error::other("spool writer already joined"))?;
        handle
            .join()
            .map_err(|_| io::Error::other("spool writer thread panicked"))?
    }
}

impl EventSink for SpoolSink {
    fn submit(&self, batch: &[Event]) {
        // The lock is held across the send so finish() cannot close the
        // queue between our liveness check and the send. A submitter
        // blocked here on a full queue does stall finish() briefly — but
        // only until the writer drains a slot, never indefinitely.
        let guard = self.inner.lock();
        if let Some(sink) = guard.as_ref() {
            sink.submit(batch);
        }
    }

    fn dropped_for(&self, thread: ThreadId) -> u64 {
        if let Some(sink) = self.inner.lock().as_ref() {
            return sink.dropped_for(thread);
        }
        *self.latched_by_thread.lock().get(&thread).unwrap_or(&0)
    }

    fn dropped_total(&self) -> u64 {
        if let Some(sink) = self.inner.lock().as_ref() {
            return sink.dropped_total();
        }
        self.latched_total.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionId;
    use crate::trace::SensorMeta;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SERIAL: AtomicU32 = AtomicU32::new(0);

    fn temp_spool_dir(tag: &str) -> PathBuf {
        let n = DIR_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tempest-spool-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn demo_node() -> NodeMeta {
        NodeMeta {
            node_id: 3,
            hostname: "spoolhost".into(),
            sensors: vec![SensorMeta {
                id: SensorId(0),
                label: "die".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            }],
        }
    }

    fn demo_functions() -> Vec<FunctionDef> {
        vec![FunctionDef {
            id: FunctionId(0),
            name: "main".into(),
            address: 0x400000,
            kind: ScopeKind::Function,
        }]
    }

    fn demo_batch(base_ts: u64) -> Vec<Event> {
        vec![
            Event::enter(base_ts, ThreadId(0), FunctionId(0)),
            Event::sample(base_ts + 1, SensorId(0), 41.5),
            Event::gap(base_ts + 2, SensorId(0)),
            Event::exit(base_ts + 3, ThreadId(0), FunctionId(0)),
        ]
    }

    /// A raw segment file holding exactly the given frames.
    fn raw_segment(dir: &Path, frames: &[(u8, Vec<u8>)]) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let mut bytes = segment_header_bytes(1).to_vec();
        for (kind, payload) in frames {
            encode_frame_into(&mut bytes, *kind, payload);
        }
        let path = dir.join("seg-000001.seg");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn hostile_symbols_frame_declaring_2_to_31_entries_is_limited() {
        // A checksum-valid symbols frame claiming 2^31 entries over a
        // 4-byte payload: recovery must stop with a typed overrun, not
        // attempt the allocation the count implies.
        let dir = temp_spool_dir("hostile-symbols");
        raw_segment(
            &dir,
            &[(FRAME_SYMBOLS, (1u32 << 31).to_le_bytes().to_vec())],
        );
        let limits = DecodeLimits::strict();
        let (_, report) = recover_with(&dir, &limits, &CancelToken::default()).unwrap();
        let hit = report.salvage.limit.expect("limit recorded");
        assert_eq!(hit.what, "functions");
        assert_eq!(hit.observed, 1 << 31);
        assert!(!report.salvage.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_node_frame_sensor_count_is_limited_and_default_clamped() {
        // Node frame claiming 65535 sensors over an empty remainder.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&4u16.to_le_bytes());
        payload.extend_from_slice(b"evil");
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        // Under strict limits the cardinality cap trips...
        assert!(matches!(
            decode_frame(FRAME_NODE, &payload, &DecodeLimits::strict()),
            Err(FrameFail::Limit(_))
        ));
        // ...and under the generous defaults the claim passes the cap but
        // the preallocation is clamped by remaining bytes, so the decode
        // just fails structurally (no bytes back the claim) without any
        // count-sized reservation.
        assert!(matches!(
            decode_frame(FRAME_NODE, &payload, &DecodeLimits::default()),
            Err(FrameFail::Corrupt)
        ));
    }

    #[test]
    fn recover_respects_byte_budget_with_partial_results() {
        let dir = temp_spool_dir("budget");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        for i in 0..200 {
            w.append_batch(&demo_batch(100 * i)).unwrap();
        }
        w.finish(&demo_functions(), 0, 0).unwrap();

        let limits = DecodeLimits {
            budget_bytes: 2_048,
            ..DecodeLimits::default()
        };
        let (trace, report) = recover_with(&dir, &limits, &CancelToken::default()).unwrap();
        let hit = report.salvage.limit.expect("budget trip recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::ByteBudget);
        assert!(
            trace.events.len() + trace.samples.len() < 200 * 4,
            "scan stopped early under budget"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_with_expired_deadline_is_partial_not_error() {
        let dir = temp_spool_dir("deadline");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();

        let cancel = CancelToken::with_deadline(std::time::Duration::from_secs(0));
        let (_, report) = recover_with(&dir, &DecodeLimits::default(), &cancel).unwrap();
        let hit = report.salvage.limit.expect("deadline recorded");
        assert_eq!(hit.kind, crate::limits::LimitKind::Deadline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_reports_violations_per_segment() {
        let dir = temp_spool_dir("fsck");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();

        // A clean spool fscks clean under strict limits.
        let clean = fsck_dir(&dir, &DecodeLimits::strict()).unwrap();
        assert!(!clean.is_empty());
        assert!(clean.iter().all(|s| s.is_clean()), "{clean:?}");

        // Add a segment with a hostile symbols frame and a garbage events
        // frame: both surface as violations, and the scan covers every
        // frame (no early stop).
        raw_segment(
            &dir.join("evil"),
            &[
                (FRAME_SYMBOLS, (1u32 << 31).to_le_bytes().to_vec()),
                (FRAME_EVENTS, vec![0xFF; EVENT_RECORD_LEN]),
            ],
        );
        let evil = fsck_dir(&dir.join("evil"), &DecodeLimits::strict()).unwrap();
        assert_eq!(evil.len(), 1);
        assert_eq!(evil[0].violations.len(), 2, "{:?}", evil[0].violations);
        assert!(evil[0].violations[0].contains("limit exceeded"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_spool_roundtrips_with_footer() {
        let dir = temp_spool_dir("clean");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert_eq!(stats.events_written, 6); // 2 enter + 2 exit + 2 gap
        assert_eq!(stats.samples_written, 2);
        assert_eq!(stats.segments, 1);

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.frames_discarded, 0);
        assert!(report.salvage.is_clean());
        assert_eq!(trace.events.len(), 6);
        assert_eq!(trace.samples.len(), 2);
        assert_eq!(trace.node, demo_node());
        assert_eq!(trace.function(FunctionId(0)).unwrap().name, "main");
        assert!((trace.samples[0].temperature.celsius() - 41.5).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_recovery_spans_them() {
        let dir = temp_spool_dir("rotate");
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(4096);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        let mut written = 0u64;
        for i in 0..200 {
            w.append_batch(&demo_batch(i * 10)).unwrap();
            written += 3;
            if w.should_rotate() {
                w.rotate(&demo_functions()).unwrap();
            }
        }
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert!(stats.segments > 1, "4 KiB segments must have rotated");
        assert_eq!(stats.events_written, written);

        let sealed: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".seg")))
            .collect();
        assert_eq!(sealed.len() as u32, stats.segments);
        assert!(
            !dir.join(format!("seg-{:06}.open", stats.segments)).exists(),
            "no dangling open segment after finish"
        );

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(trace.events.len() as u64, written);
        assert_eq!(report.segments_scanned, stats.segments);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_prefix_recovered() {
        let dir = temp_spool_dir("torn");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        drop(w); // crash: no footer, segment still .open

        // Tear the final frame mid-payload.
        let open = dir.join("seg-000000.open");
        let mut bytes = std::fs::read(&open).unwrap();
        let torn_len = bytes.len() - 10;
        bytes.truncate(torn_len);
        std::fs::write(&open, &bytes).unwrap();

        let (trace, report) = recover(&dir).unwrap();
        assert!(!report.clean_shutdown);
        assert_eq!(report.frames_discarded, 1);
        assert!(!report.salvage.is_clean());
        // First batch survived intact; second lost its tail frame whole.
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.samples.len(), 1);
        assert_eq!(trace.node.hostname, "spoolhost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let dir = temp_spool_dir("flip");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        drop(w);

        let open = dir.join("seg-000000.open");
        let mut bytes = std::fs::read(&open).unwrap();
        let n = bytes.len();
        bytes[n - 4] ^= 0x40; // flip one bit inside the event payload
        std::fs::write(&open, &bytes).unwrap();

        let (trace, report) = recover(&dir).unwrap();
        assert_eq!(report.frames_discarded, 1, "flipped frame rejected");
        assert!(trace.events.is_empty(), "no unverified event leaks through");
        // The node frame before the damage still decoded.
        assert_eq!(trace.node.hostname, "spoolhost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_spool_without_symbols_synthesizes_names() {
        let dir = temp_spool_dir("nosym");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&[Event::enter(1, ThreadId(0), FunctionId(7))])
            .unwrap();
        drop(w); // crash before any rotation/finish: no symbol frame

        let (trace, report) = recover(&dir).unwrap();
        assert!(!report.clean_shutdown);
        assert_eq!(trace.function(FunctionId(7)).unwrap().name, "fn#7");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_drop_counters_flow_into_salvage() {
        let dir = temp_spool_dir("drops");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.finish(&demo_functions(), 5, 2).unwrap();

        let (_, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.salvage.events_dropped_backpressure, 5);
        assert_eq!(report.salvage.samples_dropped_backpressure, 2);
        assert!(!report.salvage.is_clean(), "shed events are not clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_is_written_and_marks_clean_shutdown() {
        let dir = temp_spool_dir("manifest");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let w = SpoolWriter::create(&config, demo_node()).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.starts_with("tempest-spool v1\n"));
        assert!(manifest.contains("clean 0"));
        w.finish(&demo_functions(), 0, 0).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap();
        assert!(manifest.contains("clean 1"));
        assert!(manifest.contains("seg-000000.seg"));
        assert!(is_spool_dir(&dir));
        assert!(!is_spool_dir(&dir.join("nope")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_of_empty_or_junk_dir_is_an_error_not_a_panic() {
        let dir = temp_spool_dir("junk");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(recover(&dir).is_err(), "no segments");
        std::fs::write(dir.join("seg-000000.seg"), b"not a segment at all").unwrap();
        assert!(recover(&dir).is_err(), "no decodable frames");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spool_sink_end_to_end() {
        let dir = temp_spool_dir("sink");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let sink = SpoolSink::spawn(&config, demo_node()).unwrap();
        let submitters: Vec<_> = (0..4u32)
            .map(|t| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        sink.submit(&[
                            Event::enter(i * 2, ThreadId(t), FunctionId(0)),
                            Event::exit(i * 2 + 1, ThreadId(t), FunctionId(0)),
                        ]);
                    }
                })
            })
            .collect();
        for h in submitters {
            h.join().unwrap();
        }
        let stats = sink.finish().unwrap();
        assert_eq!(stats.events_written, 400);
        assert_eq!(stats.events_dropped, 0);
        assert!(sink.finish().is_err(), "double finish is an error");
        sink.submit(&demo_batch(9_999)); // post-finish submit: discarded, no panic

        let (trace, report) = recover(&dir).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(trace.events.len(), 400);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spool_sink_reports_drops_after_finish() {
        let dir = temp_spool_dir("sinkdrop");
        // Capacity one batch, shedding: force drops deterministically by
        // never letting the writer drain (batches pile behind a slow disk
        // is hard to fake, so use a tiny queue and beat it with submits).
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .queue_batches(1)
            .overflow(OverflowPolicy::DropNewest);
        let sink = SpoolSink::spawn(&config, demo_node()).unwrap();
        for i in 0..2_000u64 {
            sink.submit(&[Event::sample(i, SensorId(0), 40.0)]);
        }
        let stats = sink.finish().unwrap();
        assert_eq!(
            stats.samples_written + stats.samples_dropped,
            2_000,
            "every sample is either on disk or accounted as dropped"
        );
        assert_eq!(stats.events_dropped, 0);
        // Post-finish the latched counters still answer.
        assert_eq!(sink.dropped_total(), stats.samples_dropped);
        assert_eq!(sink.dropped_for(Event::TEMPD_THREAD), stats.samples_dropped);

        let (_, report) = recover(&dir).unwrap();
        assert_eq!(
            report.salvage.samples_dropped_backpressure,
            stats.samples_dropped
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_of_arbitrary_truncation_never_panics_or_leaks_bad_frames() {
        // Exhaustive truncation sweep: every prefix of a real segment must
        // recover cleanly to a checksummed prefix (or error), never panic.
        let dir = temp_spool_dir("truncsweep");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let seg = dir.join("seg-000000.seg");
        let full = std::fs::read(&seg).unwrap();
        let mut last_events = usize::MAX;
        for cut in (0..=full.len()).rev() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            // A recover error (header too short) is fine, as long as
            // nothing panics.
            if let Ok((trace, _)) = recover(&dir) {
                assert!(
                    trace.events.len() + trace.samples.len() <= 8,
                    "cannot recover more than was written"
                );
                assert!(
                    trace.events.len() <= last_events.max(trace.events.len()),
                    "shorter prefix cannot recover more"
                );
                last_events = trace.events.len();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_failure_degrades_and_revives_instead_of_killing_the_session() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // the exact fault this path exists for. Skip where absent.
        if !Path::new("/dev/full").exists() {
            eprintln!("skipped: /dev/full not available");
            return;
        }
        let dir = temp_spool_dir("enospc");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::PerBatch);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        // Point the active segment at the always-full device.
        w.log.out = BufWriter::new(File::options().write(true).open("/dev/full").unwrap());
        w.append_batch(&demo_batch(0)).unwrap();
        assert!(w.is_degraded(), "ENOSPC must degrade, not error");
        assert!(!w.should_rotate(), "no healthy segment to rotate");
        // Shed until the periodic revival attempt fires; the directory
        // itself is healthy, so the writer comes back on a new segment.
        let mut appends = 1u64;
        while w.is_degraded() {
            w.append_batch(&demo_batch(appends * 10)).unwrap();
            appends += 1;
            assert!(appends < 1_000, "writer never revived");
        }
        w.append_batch(&demo_batch(99_000)).unwrap();
        let stats = w.finish(&demo_functions(), 0, 0).unwrap();
        assert_eq!(
            stats.batches_dropped_io,
            SpoolWriter::REVIVE_INTERVAL as u64
        );
        assert_eq!(stats.events_dropped_io, stats.batches_dropped_io * 3);
        assert_eq!(stats.samples_dropped_io, stats.batches_dropped_io);
        assert!(stats.io_errors >= 1);
        // The reviving batch and the one after it made it to disk.
        assert_eq!(stats.events_written, 6);
        assert_eq!(stats.samples_written, 2);

        let (trace, report) = recover(&dir).unwrap();
        assert!(
            report.clean_shutdown,
            "footer landed on the revived segment"
        );
        assert_eq!(trace.events.len(), 6);
        // IO-shed batches surface in the footer's drop accounting.
        assert_eq!(
            report.salvage.events_dropped_backpressure,
            stats.events_dropped_io
        );
        assert_eq!(
            report.salvage.samples_dropped_backpressure,
            stats.samples_dropped_io
        );
        assert!(!report.salvage.is_clean(), "shed batches are not clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_check_flags_disk_disagreements() {
        let dir = temp_spool_dir("mancheck");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.rotate(&demo_functions()).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let check = check_manifest(&dir).unwrap().unwrap();
        assert!(check.consistent());
        assert!(check.clean);
        assert_eq!(check.listed, 2);
        assert!(check.problems().is_empty());

        // Delete a listed segment, plant one the manifest never heard of,
        // and leave an unsealed leftover although the manifest says clean.
        std::fs::remove_file(dir.join("seg-000000.seg")).unwrap();
        std::fs::write(dir.join("seg-000099.seg"), b"x").unwrap();
        std::fs::write(dir.join("seg-000100.open"), b"x").unwrap();
        let check = check_manifest(&dir).unwrap().unwrap();
        assert!(!check.consistent());
        assert_eq!(check.missing, vec!["seg-000000.seg".to_string()]);
        assert_eq!(check.unlisted, vec!["seg-000099.seg".to_string()]);
        assert_eq!(check.unsealed, vec!["seg-000100.open".to_string()]);
        assert_eq!(check.problems().len(), 3);

        // No manifest at all is not an inconsistency: recovery never
        // needed one in the first place.
        std::fs::remove_file(dir.join(MANIFEST_NAME)).unwrap();
        assert!(check_manifest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file in `dir` as `(name, length, CRC-32)`, sorted by name.
    fn dir_fingerprint(dir: &Path) -> Vec<(String, u64, u32)> {
        let mut files: Vec<(String, u64, u32)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let bytes = std::fs::read(e.path()).unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, bytes.len() as u64, crc32(&bytes))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn spool_writer_bytes_are_pinned() {
        // Fixed node, symbols and batches, no telemetry, 4 KiB segments:
        // the writer rotates twice, and every byte it puts on disk is
        // pinned by name, length and CRC-32, with the manifest verbatim.
        let dir = temp_spool_dir("golden");
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(4096)
            .telemetry_interval(None);
        let functions = vec![
            FunctionDef {
                id: FunctionId(0),
                name: "main".into(),
                address: 0x400000,
                kind: ScopeKind::Function,
            },
            FunctionDef {
                id: FunctionId(1),
                name: "loop@12".into(),
                address: 0x400040,
                kind: ScopeKind::Block,
            },
        ];
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        for i in 0..120 {
            w.append_batch(&demo_batch(i * 10)).unwrap();
            if w.should_rotate() {
                w.rotate(&functions).unwrap();
            }
        }
        let stats = w.finish(&functions, 5, 2).unwrap();
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.bytes_written, 11513);
        assert_eq!(
            dir_fingerprint(&dir),
            vec![
                ("seg-000000.seg".to_string(), 4196, 0xCCA6_1E57),
                ("seg-000001.seg".to_string(), 4196, 0x6D44_FE6D),
                ("seg-000002.seg".to_string(), 3121, 0xD051_42EA),
                ("spool.manifest".to_string(), 98, 0x10BA_E72A),
            ]
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap(),
            "tempest-spool v1\nnode 3 spoolhost\nclean 1\nsegments 3\n\
             seg-000000.seg\nseg-000001.seg\nseg-000002.seg\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_listing_for_shipping_prefers_sealed_at_equal_sequence() {
        let dir = temp_spool_dir("seglist");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-000000.seg"), b"").unwrap();
        std::fs::write(dir.join("seg-000000.open"), b"").unwrap();
        std::fs::write(dir.join("seg-000001.open"), b"").unwrap();
        let files = list_segment_files(&dir).unwrap();
        assert_eq!(files.len(), 2, "crashed rotation must not double-ship");
        assert_eq!(files[0].0, 0);
        assert!(files[0].1.ends_with("seg-000000.seg"));
        assert_eq!(files[1].0, 1);
        assert!(files[1].1.ends_with("seg-000001.open"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shipped_frames_unwrap_and_dedupe_on_recovery() {
        // Write a normal source spool...
        let src = temp_spool_dir("shipsrc");
        let config = SpoolConfig::new(&src).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        w.append_batch(&demo_batch(200)).unwrap();
        w.finish(&demo_functions(), 0, 0).unwrap();
        let (src_trace, _) = recover(&src).unwrap();

        // ...and replay its frames into a collector-style spool wrapped
        // with their source cursors and transit stamps, then re-send
        // everything after the node frame a second time — what a shipper
        // that lost an ACK and resumed from a stale cursor would produce.
        let push_shipped = |out: &mut Vec<u8>, f: &RawFrame| {
            let (sent, received) = (1_000 + f.offset, 1_250 + f.offset);
            let payload = shipped2_payload(0, f.offset, sent, received, f.kind, f.payload);
            encode_frame_into(out, FRAME_SHIPPED2, &payload);
        };
        let dst = temp_spool_dir("shipdst");
        std::fs::create_dir_all(&dst).unwrap();
        let bytes = std::fs::read(src.join("seg-000000.seg")).unwrap();
        let (frames, _) = parse_segment_frames(&bytes);
        assert!(frames.len() >= 4, "node + events + symbols + footer");
        let mut out = Vec::new();
        out.extend_from_slice(&segment_header_bytes(0));
        for f in &frames {
            push_shipped(&mut out, f);
        }
        for f in frames.iter().skip(1) {
            push_shipped(&mut out, f);
        }
        // A shipped frame too short to hold its cursor prefix is
        // quarantined as discarded, never decoded.
        encode_frame_into(&mut out, FRAME_SHIPPED2, &[0u8; 4]);
        std::fs::write(dst.join("seg-000000.seg"), &out).unwrap();

        let (trace, report) = recover(&dst).unwrap();
        assert_eq!(report.frames_deduped, frames.len() as u64 - 1);
        assert_eq!(report.frames_discarded, 1, "runt shipped frame rejected");
        assert_eq!(
            report.shipped_through,
            Some((0, frames.last().unwrap().offset))
        );
        assert!(report.clean_shutdown, "the wrapped footer still counts");
        // One transit record per frame that was not a re-send, in cursor
        // order, each carrying its envelope's stamps.
        let traced: Vec<u64> = report.frame_traces.iter().map(|t| t.off).collect();
        let offsets: Vec<u64> = frames.iter().map(|f| f.offset).collect();
        assert_eq!(traced, offsets);
        assert!(report
            .frame_traces
            .iter()
            .all(|t| t.transit_ns() == Some(250)));
        assert_eq!(
            trace, src_trace,
            "collector-side recovery must equal local recovery"
        );
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }

    #[test]
    fn a_sealed_segment_and_its_open_twin_are_read_once() {
        let dir = temp_spool_dir("twin");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        for i in 0..5 {
            w.append_batch(&demo_batch(100 * i)).unwrap();
        }
        w.finish(&demo_functions(), 0, 0).unwrap();
        let (trace, alone) = recover(&dir).unwrap();
        assert_eq!(alone.events_recovered, 15);

        // A byte copy of the sealed segment under its `.open` name, as a
        // crashed rotation or a careless copy leaves one.
        std::fs::copy(dir.join("seg-000000.seg"), dir.join("seg-000000.open")).unwrap();
        let (twinned_trace, twinned) = recover(&dir).unwrap();
        assert_eq!(twinned.events_recovered, alone.events_recovered);
        assert_eq!(twinned.frames_recovered, alone.frames_recovered);
        assert_eq!(twinned.segments_scanned, 1);
        assert_eq!((twinned_trace, twinned), (trace, alone));
        let fsck = fsck_dir(&dir, &DecodeLimits::strict()).unwrap();
        assert_eq!(fsck.len(), 1, "one entry per sequence number: {fsck:?}");
        assert!(fsck[0].path.ends_with("seg-000000.seg"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_sealed_after_listing_is_still_read() {
        let dir = temp_spool_dir("sealed-mid-scan");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        w.append_batch(&demo_batch(100)).unwrap();
        drop(w); // still `.open`, as a live writer's segment is

        // List, seal behind the reader's back, then read what was listed.
        let listed = list_segment_files(&dir).unwrap();
        let open = listed[0].1.clone();
        assert!(open.ends_with("seg-000000.open"));
        let bytes = std::fs::read(&open).unwrap();
        std::fs::rename(&open, dir.join("seg-000000.seg")).unwrap();
        let mut segment = SegmentReader::open(&open).unwrap();
        assert!(segment.path().ends_with("seg-000000.seg"));
        let mut offsets = Vec::new();
        while let Some(frame) = segment.next_frame().unwrap() {
            offsets.push(frame.offset);
        }
        let (want, _) = parse_segment_frames(&bytes);
        assert_eq!(offsets, want.iter().map(|f| f.offset).collect::<Vec<_>>());
        assert_eq!(offsets.len(), 2, "node and events frames");

        // Gone under both names, it is still not found.
        std::fs::remove_file(dir.join("seg-000000.seg")).unwrap();
        let gone = SegmentReader::open(&open).err().unwrap();
        assert_eq!(gone.kind(), io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_frame_claiming_u32_max_bytes_reads_as_one_torn_frame() {
        // Past the first read-ahead, so the lying header arrives on its
        // own and its claim is checked before the buffer could grow.
        let dir = temp_spool_dir("huge-claim");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        let batch: Vec<Event> = (0..500).flat_map(|i| demo_batch(10 * i)).collect();
        w.append_batch(&batch).unwrap();
        w.append_batch(&batch).unwrap();
        drop(w);
        let path = dir.join("seg-000000.open");
        let mut bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > READ_AHEAD);
        let mut head = frame_header(FRAME_EVENTS, &[]);
        head[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(&[7; 100]);
        std::fs::write(&path, &bytes).unwrap();

        let mut segment = SegmentReader::open(&path).unwrap();
        let mut frames = 0;
        while segment.next_frame().unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(
            (frames, segment.torn()),
            (3, 1),
            "node, two batches, then torn"
        );
        let batch_frame = FRAME_HEADER_LEN + batch.len() * EVENT_RECORD_LEN;
        assert!(segment.buf.len() <= READ_AHEAD.max(batch_frame));
        assert_eq!(parse_segment_frames(&bytes).1, 1);
        let (trace, report) = recover(&dir).unwrap();
        assert_eq!(report.frames_discarded, 1);
        assert_eq!(trace.events.len(), 2 * 1_500);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A real local segment, with frames both shorter and longer than the
    /// reader's read-ahead, and the collector's copy of it, written
    /// through the writers that produce them.
    fn real_segments() -> &'static [Vec<u8>; 2] {
        static SEGMENTS: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
        SEGMENTS.get_or_init(|| {
            let src = temp_spool_dir("agree-local");
            let config = SpoolConfig::new(&src).fsync(FsyncPolicy::Never);
            let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
            for i in 0..60u64 {
                let n = if i == 30 { 5_000 } else { 1 + i * 37 % 400 };
                let batch: Vec<Event> = (0..n)
                    .flat_map(|j| demo_batch(100 * (i * 10_000 + j)))
                    .collect();
                w.append_batch(&batch).unwrap();
            }
            w.finish(&demo_functions(), 0, 0).unwrap();
            let local = std::fs::read(src.join("seg-000000.seg")).unwrap();

            let dst = temp_spool_dir("agree-collected");
            let mut log = SegmentLog::create(&dst, 3, "spoolhost").unwrap();
            for f in parse_segment_frames(&local).0 {
                let wrapped = shipped2_payload(0, f.offset, 1, 2, f.kind, f.payload);
                log.append(FRAME_SHIPPED2, &wrapped).unwrap();
            }
            log.seal().unwrap();
            let collected = std::fs::read(dst.join("seg-000000.seg")).unwrap();
            std::fs::remove_dir_all(&src).ok();
            std::fs::remove_dir_all(&dst).ok();
            [local, collected]
        })
    }

    /// Read `bytes` back through a file and the [`SegmentReader`], and
    /// check it cuts the frames [`parse_segment_frames`] cuts.
    fn reader_agrees_with_slice_parser(bytes: &[u8]) -> Result<(), String> {
        let dir = temp_spool_dir("agree");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(0, true));
        std::fs::write(&path, bytes).unwrap();
        let (want, want_torn) = parse_segment_frames(bytes);
        let mut segment = SegmentReader::open(&path).unwrap();
        let mut got = 0;
        while let Some(f) = segment.next_frame().unwrap() {
            let same = want
                .get(got)
                .is_some_and(|w| (w.offset, w.kind, w.payload) == (f.offset, f.kind, f.payload));
            prop_assert!(same, "frame {got} at offset {} differs", f.offset);
            got += 1;
        }
        // The buffer holds at most one frame past the read-ahead: a
        // verified one, or the one the scan stopped at if it fit in the
        // segment (its checksum is checked once it is read whole).
        let stop = want.last().map_or(SEGMENT_HEADER_LEN, |f| {
            f.offset as usize + FRAME_HEADER_LEN + f.payload.len()
        });
        let stopped_at = bytes.get(stop..).and_then(|rest| rest.first_chunk());
        let stopped_at = stopped_at
            .map(|head| FRAME_HEADER_LEN + split_frame_header(head).1 as usize)
            .filter(|&n| n <= bytes.len() - stop);
        let largest = want.iter().map(|f| FRAME_HEADER_LEN + f.payload.len());
        let one_frame = largest.chain(stopped_at).max().unwrap_or(0);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(got, want.len());
        prop_assert_eq!(segment.torn(), want_torn);
        prop_assert!(segment.buf.len() <= READ_AHEAD.max(one_frame));
        Ok(())
    }

    #[test]
    fn reader_and_slice_parser_agree_on_whole_segments() {
        for bytes in real_segments() {
            assert!(bytes.len() > 4 * READ_AHEAD);
            assert_eq!(parse_segment_frames(bytes).1, 0);
            reader_agrees_with_slice_parser(bytes).unwrap();
        }
        for junk in [&b""[..], b"TMPSPOL", b"not a segment at all"] {
            reader_agrees_with_slice_parser(junk).unwrap();
        }
    }

    #[test]
    fn a_reader_opened_at_a_boundary_reads_only_what_follows() {
        let bytes = &real_segments()[0];
        let (frames, _) = parse_segment_frames(bytes);
        let dir = temp_spool_dir("open-at");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(0, true));
        std::fs::write(&path, bytes).unwrap();
        for nth in [0, 1, frames.len() / 2, frames.len() - 1] {
            let mut segment = SegmentReader::open_at(&path, frames[nth].offset).unwrap();
            for want in &frames[nth..] {
                let got = segment.next_frame().unwrap().expect("a frame");
                let got = (got.offset, got.kind, got.payload);
                assert_eq!(got, (want.offset, want.kind, want.payload));
            }
            assert!(segment.next_frame().unwrap().is_none());
            assert_eq!((segment.offset(), segment.torn()), (bytes.len() as u64, 0));
        }
        let mut segment = SegmentReader::open_at(&path, bytes.len() as u64 + 7).unwrap();
        assert!(segment.next_frame().unwrap().is_none());
        assert_eq!(segment.torn(), 0);
        // The header is still checked.
        let mut damaged = bytes.clone();
        damaged[0] ^= 1;
        std::fs::write(&path, &damaged).unwrap();
        let mut segment = SegmentReader::open_at(&path, frames[1].offset).unwrap();
        assert!(segment.next_frame().unwrap().is_none());
        assert_eq!(segment.torn(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn reader_and_slice_parser_agree_on_damaged_segments(
            collected in prop::bool::ANY,
            near_a_frame in prop::bool::ANY,
            cut in 0usize..1 << 30,
            flips in prop::collection::vec((0usize..1 << 30, 0u8..8), 0..4),
        ) {
            let mut bytes = real_segments()[usize::from(collected)].clone();
            // Half the cuts land just past a frame's start, leaving a
            // torn tail no longer than two frame headers.
            let cut = if near_a_frame {
                let (frames, _) = parse_segment_frames(&bytes);
                frames[cut % frames.len()].offset as usize + cut % (2 * FRAME_HEADER_LEN)
            } else {
                cut % (bytes.len() + 1)
            };
            bytes.truncate(cut);
            for (at, bit) in flips {
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] ^= 1 << bit;
                }
            }
            reader_agrees_with_slice_parser(&bytes)?;
        }
    }

    #[test]
    fn recover_and_fsck_give_one_verdict_per_frame() {
        // A collector segment holding one good envelope and four frames
        // every reader must refuse: a runt envelope, a nested envelope,
        // the retired kind 5 (laid out as the old cursor-only envelope)
        // and a kind no format revision defines.
        let dir = temp_spool_dir("verdict");
        let mut node = Vec::new();
        encode_node(&mut node, &demo_node());
        let good = shipped2_payload(0, 16, 1, 2, FRAME_NODE, &node);
        let nested = shipped2_payload(0, 99, 1, 2, FRAME_SHIPPED2, &good);
        let mut retired = Vec::new();
        retired.extend_from_slice(&0u64.to_le_bytes());
        retired.extend_from_slice(&200u64.to_le_bytes());
        retired.push(FRAME_NODE);
        retired.extend_from_slice(&node);
        raw_segment(
            &dir,
            &[
                (FRAME_SHIPPED2, good),
                (FRAME_SHIPPED2, vec![0u8; SHIPPED2_PREFIX_LEN - 1]),
                (FRAME_SHIPPED2, nested),
                (5, retired),
                (0x42, b"from a newer revision".to_vec()),
            ],
        );

        let limits = DecodeLimits::strict();
        let (trace, report) = recover_with(&dir, &limits, &CancelToken::default()).unwrap();
        let fsck = fsck_dir(&dir, &limits).unwrap();
        let violations: Vec<&String> = fsck.iter().flat_map(|s| &s.violations).collect();
        assert_eq!(report.frames_discarded, 4);
        assert_eq!(violations.len() as u64, report.frames_discarded, "{fsck:?}");
        assert_eq!(
            fsck.iter().map(|s| s.frames_ok).sum::<u64>(),
            report.frames_recovered
        );
        assert_eq!(trace.node, demo_node(), "the enveloped node frame survives");
        assert!(!report.salvage.is_clean());
        for kind in [5, 0x42] {
            let named = format!("kind {kind}: unknown frame kind");
            assert!(violations.iter().any(|v| v.contains(&named)), "{fsck:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_segment_fails_recovery_wherever_it_lies() {
        // Many segments, so that the reader has later ones in hand when
        // recovery reaches the bad one, wherever it lies.
        let dir = temp_spool_dir("unreadable");
        let config = SpoolConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .segment_bytes(512);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        for i in 0..40 {
            let batch: Vec<Event> = (0..100).flat_map(|j| demo_batch(400 * i + 4 * j)).collect();
            w.append_batch(&batch).unwrap();
            if w.should_rotate() {
                w.rotate(&demo_functions()).unwrap();
            }
        }
        w.finish(&demo_functions(), 0, 0).unwrap();
        let segments = list_segment_files(&dir).unwrap();
        let n = segments.len();
        assert!(n > 20, "{n} segments");
        assert!(recover(&dir).is_ok());

        for nth in [0, n / 2, n - 1] {
            let path = &segments[nth].1;
            let bytes = std::fs::read(path).unwrap();
            std::fs::remove_file(path).unwrap();
            std::fs::create_dir(path).unwrap();
            let got = recover(&dir);
            assert!(
                matches!(&got, Err(TraceError::Io(e)) if e.kind() == io::ErrorKind::IsADirectory),
                "segment {nth} of {n} as a directory: {:?}",
                got.map(|(_, report)| report)
            );
            std::fs::remove_dir(path).unwrap();
            std::fs::write(path, bytes).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frames_larger_than_the_hand_off_bound_are_recovered_whole() {
        // 20,000 records a frame, about 420 KB: each is lent alone. Probe
        // batches (scope events only) alternate with sampler-like ones.
        let dir = temp_spool_dir("large-frames");
        let config = SpoolConfig::new(&dir).fsync(FsyncPolicy::Never);
        let mut w = SpoolWriter::create(&config, demo_node()).unwrap();
        let batches: Vec<Vec<Event>> = (0..6u64)
            .map(|i| {
                let ts = |j: u64| 4 * (i * 5_000 + j);
                (0..5_000)
                    .flat_map(|j| match i % 2 {
                        0 => vec![
                            Event::enter(ts(j), ThreadId(0), FunctionId(0)),
                            Event::enter(ts(j) + 1, ThreadId(1), FunctionId(0)),
                            Event::exit(ts(j) + 2, ThreadId(1), FunctionId(0)),
                            Event::exit(ts(j) + 3, ThreadId(0), FunctionId(0)),
                        ],
                        _ => demo_batch(ts(j)),
                    })
                    .collect()
            })
            .collect();
        for batch in &batches {
            assert!(batch.len() * EVENT_RECORD_LEN > HANDOFF_BYTES);
            w.append_batch(batch).unwrap();
        }
        w.finish(&demo_functions(), 0, 0).unwrap();

        let (trace, report) = recover(&dir).unwrap();
        let want = Trace::from_mixed_events(demo_node(), demo_functions(), batches.concat());
        assert_eq!(trace, want);
        let written: usize = list_segment_files(&dir)
            .unwrap()
            .iter()
            .map(|(_, path)| parse_segment_frames(&std::fs::read(path).unwrap()).0.len())
            .sum();
        assert_eq!(report.frames_recovered, written as u64);
        assert!(report.salvage.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
