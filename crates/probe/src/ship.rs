//! Network shipping of spool directories: the client half of Tempest's
//! collection protocol.
//!
//! A profiled node spools locally first (`spool.rs` — durability never
//! depends on the network), then a *shipper* streams the spool's frames
//! to a collector daemon (`tempest-collect`) over TCP. The protocol is
//! deliberately tiny and built only on `std::net`:
//!
//! * The client opens a connection, writes the 8-byte magic `TMPSHIP1`,
//!   and exchanges length-prefixed, CRC-framed messages
//!   (`kind: u8 | len: u32 | crc: u32 | payload`, the same framing and
//!   checksum as spool frames).
//! * `HELLO` identifies the node and session; the server's `WELCOME`
//!   carries the **resume cursor** — the next `(segment, offset)` it
//!   expects. The server is authoritative: whatever the client believes,
//!   it resumes where the collector's durable state says. That, plus the
//!   collector writing each frame wrapped with its source cursor
//!   ([`spool::FRAME_SHIPPED2`]), is what makes resume idempotent — an
//!   ACK lost to a reset can only cause a re-send, which recovery
//!   discards by cursor.
//! * `DATA` carries one spool frame as its [`spool::FRAME_SHIPPED2`]
//!   payload ([`spool::shipped2_payload`]: source cursor, send time, a
//!   zero receive time, the frame), which the collector stamps and
//!   appends as received; the server answers `ACK` (next expected
//!   cursor) or `ERR`. `PING`/`PONG` keep an idle follow-mode connection
//!   alive; `BYE`/`BYE_ACK` end a session after its footer frame shipped.
//!
//! Failure policy: every connection gets read/write deadlines; any
//! error — refused connect, timeout, reset, a server `ERR` — tears the
//! connection down and retries with bounded-jitter exponential backoff.
//! After a budget of consecutive failures the shipper **degrades** rather
//! than erroring: the local spool is intact and analyzable, the report
//! says `degraded`, and obs counters (`ship_reconnects_total`,
//! `ship_frames_acked_total`, `ship_backoff_seconds`) tell the story.
//! The acked cursor is persisted next to the manifest (`ship.cursor`) so
//! even a restarted shipper process resumes cheaply.

use crate::limits::DecodeLimits;
use crate::spool::{
    self, frame_crc, frame_header, list_segment_files, shipped2_payload, split_frame_header,
    Decoded, SegmentReader, FLIGHT_DUMP_NAME, FRAME_FOOTER, FRAME_HEADER_LEN, FRAME_NODE,
    SHIP_CURSOR_NAME,
};
use crate::trace::{self, encode_str};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- wire protocol ---------------------------------------------------------

/// Connection preamble: sent once by the client immediately after connect.
pub const SHIP_MAGIC: &[u8; 8] = b"TMPSHIP1";
/// Protocol version carried in HELLO. v2 added the origin timestamp to
/// DATA payloads (end-to-end frame tracing) and the METRICS message
/// (shipped self-telemetry); v3 made the DATA payload the spool's
/// [`spool::FRAME_SHIPPED2`] payload. The collector requires an exact
/// match, so older shippers are refused rather than silently mis-parsed.
pub const SHIP_VERSION: u32 = 3;

/// Client → server: node identity and session name.
pub const MSG_HELLO: u8 = 1;
/// Server → client: resume cursor (next expected `(segment, offset)`).
pub const MSG_WELCOME: u8 = 2;
/// Client → server: one spool frame in its [`spool::FRAME_SHIPPED2`]
/// envelope, receive time zero.
pub const MSG_DATA: u8 = 3;
/// Server → client: durable through the carried next-expected cursor.
pub const MSG_ACK: u8 = 4;
/// Client → server: keepalive while idle (follow mode).
pub const MSG_PING: u8 = 5;
/// Server → client: keepalive reply.
pub const MSG_PONG: u8 = 6;
/// Client → server: session footer shipped, closing down.
pub const MSG_BYE: u8 = 7;
/// Server → client: session sealed and marked clean.
pub const MSG_BYE_ACK: u8 = 8;
/// Server → client: refusal; payload is `code: u8` + UTF-8 detail.
pub const MSG_ERR: u8 = 9;
/// Client → server: an encoded [`tempest_obs::Telemetry`] snapshot of
/// the shipper's metric registry. Acknowledged with a normal `ACK`
/// carrying the unchanged cursor — telemetry rides the session but never
/// moves the data cursor.
pub const MSG_METRICS: u8 = 10;

/// ERR code: frame exceeds the collector's size limit.
pub const ERR_TOO_BIG: u8 = 1;
/// ERR code: collector disk queue is over budget (shed policy fired).
pub const ERR_FULL: u8 = 2;
/// ERR code: frame failed CRC or decode; quarantined server-side.
pub const ERR_CORRUPT: u8 = 3;
/// ERR code: cursor neither duplicate nor next-expected.
pub const ERR_OUT_OF_ORDER: u8 = 4;
/// ERR code: protocol violation (bad magic, unexpected message).
pub const ERR_PROTOCOL: u8 = 5;
/// ERR code: per-connection rate limit exceeded.
pub const ERR_RATE_LIMITED: u8 = 6;
/// ERR code: collector-imposed session deadline elapsed; reconnect to resume.
pub const ERR_DEADLINE: u8 = 7;

/// Hard upper bound for any wire message payload; connections carrying
/// larger claims are dropped before allocating.
pub const MAX_WIRE_LEN: u32 = 64 * 1024 * 1024;

/// Write one wire message: the spool's frame header (kind, length,
/// CRC-32 over `kind || len || payload`), then the payload.
pub fn write_msg(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_header(kind, payload))?;
    w.write_all(payload)?;
    w.flush()
}

/// Why [`read_msg`] returned no message. A shipper drops the connection
/// on any of them; the collector answers each differently.
#[derive(Debug)]
pub enum ReadError {
    /// The header claimed this many payload bytes, over the limit.
    TooBig(u32),
    /// The payload failed its checksum; carried for quarantine.
    Checksum(Vec<u8>),
    /// The stream failed or ended.
    Io(io::Error),
}

impl From<ReadError> for io::Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::TooBig(len) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire message of {len} bytes exceeds limit"),
            ),
            ReadError::Checksum(_) => {
                io::Error::new(io::ErrorKind::InvalidData, "wire message failed checksum")
            }
            ReadError::Io(e) => e,
        }
    }
}

/// Read one wire message, enforcing `max_len` before allocating and
/// verifying the checksum after.
pub fn read_msg(r: &mut impl Read, max_len: u32) -> Result<(u8, Vec<u8>), ReadError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut head).map_err(ReadError::Io)?;
    let (kind, len, crc) = split_frame_header(&head);
    if len > max_len.min(MAX_WIRE_LEN) {
        return Err(ReadError::TooBig(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(ReadError::Io)?;
    if frame_crc(kind, &payload) != crc {
        return Err(ReadError::Checksum(payload));
    }
    Ok((kind, payload))
}

// ---- cursor ----------------------------------------------------------------

/// A position in a source spool: the next `(segment sequence, byte
/// offset)` to ship. Ordered lexicographically, which matches ship order
/// because segments are shipped by ascending sequence and frames by
/// ascending offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    /// Segment sequence number.
    pub seg: u64,
    /// Byte offset of the next frame header within that segment.
    pub off: u64,
}

impl Cursor {
    /// Wire encoding: two little-endian u64s.
    pub fn encode(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&self.seg.to_le_bytes());
        b[8..16].copy_from_slice(&self.off.to_le_bytes());
        b
    }

    /// Decode the wire encoding; `None` if the buffer is short.
    pub fn decode(b: &[u8]) -> Option<Cursor> {
        let r = &mut trace::Cursor::new(b);
        Some(Cursor {
            seg: r.u64().ok()?,
            off: r.u64().ok()?,
        })
    }

    /// Load the persisted cursor from `dir/ship.cursor`, if present and
    /// parseable. A damaged cursor file is treated as absent — the
    /// server's WELCOME cursor is authoritative anyway.
    pub fn load(dir: &Path) -> Option<Cursor> {
        let text = std::fs::read_to_string(dir.join(SHIP_CURSOR_NAME)).ok()?;
        let mut it = text.split_whitespace();
        Some(Cursor {
            seg: it.next()?.parse().ok()?,
            off: it.next()?.parse().ok()?,
        })
    }

    /// Persist the cursor next to the manifest through
    /// [`tempest_obs::publish`], so a crash mid-write never leaves a torn
    /// cursor.
    pub fn store(&self, dir: &Path) -> io::Result<()> {
        let text = format!("{} {}\n", self.seg, self.off);
        tempest_obs::publish(&dir.join(SHIP_CURSOR_NAME), text.as_bytes())
    }
}

// ---- HELLO -----------------------------------------------------------------

/// The client's opening identification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version ([`SHIP_VERSION`]).
    pub version: u32,
    /// Source node id (from the spool's node frame).
    pub node_id: u32,
    /// Session name; the collector keys its output directory on it.
    pub session: String,
    /// Source hostname, for the collector's manifest.
    pub hostname: String,
}

/// Encode a HELLO payload.
pub fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&h.version.to_le_bytes());
    b.extend_from_slice(&h.node_id.to_le_bytes());
    encode_str(&mut b, &h.session);
    encode_str(&mut b, &h.hostname);
    b
}

/// Decode a HELLO payload; `None` on any truncation or bad UTF-8.
pub fn decode_hello(p: &[u8]) -> Option<Hello> {
    let r = &mut trace::Cursor::new(p);
    let limits = DecodeLimits::default();
    Some(Hello {
        version: r.u32().ok()?,
        node_id: r.u32().ok()?,
        session: r.str(&limits, "session").ok()?,
        hostname: r.str(&limits, "hostname").ok()?,
    })
}

/// Build the ERR payload for `code` with a human-readable detail.
pub fn encode_err(code: u8, detail: &str) -> Vec<u8> {
    let mut b = vec![code];
    b.extend_from_slice(detail.as_bytes());
    b
}

/// Split an ERR payload back into `(code, detail)`.
pub fn decode_err(p: &[u8]) -> (u8, String) {
    match p.split_first() {
        Some((&code, rest)) => (code, String::from_utf8_lossy(rest).into_owned()),
        None => (0, String::new()),
    }
}

// ---- retry policy ----------------------------------------------------------

/// Bounded-jitter exponential backoff with a consecutive-failure budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive connection/stream failures tolerated before the
    /// shipper degrades to local-spool-only.
    pub max_failures: u32,
    /// First backoff delay in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
    /// Seed for the deterministic jitter PRNG — tests pin it so chaos
    /// schedules replay exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_failures: 6,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0x7E57_5EED,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based): exponential up to
    /// the cap, with jitter bounded to the upper half of the window so a
    /// fleet of shippers never stampedes in lockstep yet never waits
    /// longer than the cap.
    pub fn delay(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms.max(1));
        let half = (exp / 2).max(1);
        Duration::from_millis(half + rng.below(exp - half + 1))
    }
}

/// xorshift64*: the repo's standard tiny deterministic PRNG.
pub struct Rng(u64);

impl Rng {
    /// Seeded construction; zero is mapped off the fixed point.
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    /// Next raw 64-bit value. (Deliberately named like the other tiny
    /// PRNGs in this repo; it is not an `Iterator`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; `n` of zero yields zero.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

// ---- shipper ---------------------------------------------------------------

/// Everything a shipping run needs.
#[derive(Clone)]
pub struct ShipConfig {
    /// Source spool directory.
    pub dir: PathBuf,
    /// Collector address, e.g. `127.0.0.1:9797`.
    pub addr: String,
    /// Session name sent in HELLO; defaults to the spool directory's
    /// basename when empty.
    pub session: String,
    /// Keep tailing the spool until its footer ships (live mode) instead
    /// of stopping at the current end.
    pub follow: bool,
    /// Reconnect policy.
    pub retry: RetryPolicy,
    /// Per-connection read/write deadline.
    pub io_timeout: Duration,
    /// Idle keepalive interval in follow mode.
    pub heartbeat: Duration,
    /// Follow mode's shortest wait between rescans: the wait after a
    /// pass that shipped. Each pass that ships nothing doubles it, up to
    /// the next heartbeat.
    pub poll: Duration,
    /// Send [`MSG_METRICS`] snapshots (after the handshake, on the
    /// heartbeat cadence in follow mode, and once more right before BYE
    /// so the collector's fleet view ends exactly on the final totals).
    pub telemetry: bool,
    /// Registry the shipper's own counters resolve from and telemetry
    /// snapshots are taken of. `None` uses the process-wide
    /// [`tempest_obs::global`] registry; tests running several shippers
    /// in one process give each its own so fleet totals stay per-node.
    pub registry: Option<Arc<tempest_obs::Registry>>,
}

impl std::fmt::Debug for ShipConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShipConfig")
            .field("dir", &self.dir)
            .field("addr", &self.addr)
            .field("session", &self.session)
            .field("follow", &self.follow)
            .field("retry", &self.retry)
            .field("io_timeout", &self.io_timeout)
            .field("heartbeat", &self.heartbeat)
            .field("poll", &self.poll)
            .field("telemetry", &self.telemetry)
            .field("registry", &self.registry.as_ref().map(|_| "custom"))
            .finish()
    }
}

impl ShipConfig {
    /// Defaults for shipping `dir` to `addr`.
    pub fn new(dir: impl Into<PathBuf>, addr: impl Into<String>) -> ShipConfig {
        ShipConfig {
            dir: dir.into(),
            addr: addr.into(),
            session: String::new(),
            follow: false,
            retry: RetryPolicy::default(),
            io_timeout: Duration::from_secs(5),
            heartbeat: Duration::from_secs(2),
            poll: Duration::from_millis(25),
            telemetry: true,
            registry: None,
        }
    }

    /// The registry this run records into and snapshots from.
    fn registry(&self) -> &tempest_obs::Registry {
        match &self.registry {
            Some(r) => r,
            None => tempest_obs::global(),
        }
    }

    fn session_name(&self) -> String {
        if !self.session.is_empty() {
            return self.session.clone();
        }
        self.dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("session")
            .to_string()
    }
}

/// What a shipping run accomplished. Returned even when the collector
/// never answered — degradation is an outcome, not an error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// DATA messages sent (including any re-sends after reconnects).
    pub frames_sent: u64,
    /// Frames the collector acknowledged as durable.
    pub frames_acked: u64,
    /// Frames skipped because the collector already had them.
    pub frames_skipped: u64,
    /// Connection attempts after the first.
    pub reconnects: u64,
    /// Total time spent in backoff, in milliseconds.
    pub backoff_ms: u64,
    /// The session footer was shipped and acknowledged: the collector
    /// holds the complete session.
    pub complete: bool,
    /// The retry budget ran out; the local spool remains the only copy.
    pub degraded: bool,
    /// Telemetry (METRICS) messages acknowledged by the collector.
    pub telemetry_sent: u64,
    /// Next-expected cursor after the last acknowledged frame.
    pub cursor: (u64, u64),
}

struct ShipMetrics {
    reconnects: tempest_obs::Counter,
    frames_acked: tempest_obs::Counter,
    frames_sent: tempest_obs::Counter,
    bytes: tempest_obs::Counter,
    degraded: tempest_obs::Counter,
    telemetry_sent: tempest_obs::Counter,
    backoff_seconds: tempest_obs::Gauge,
}

impl ShipMetrics {
    fn resolve(reg: &tempest_obs::Registry) -> ShipMetrics {
        ShipMetrics {
            reconnects: reg.counter("ship_reconnects_total"),
            frames_acked: reg.counter("ship_frames_acked_total"),
            frames_sent: reg.counter("ship_frames_sent_total"),
            bytes: reg.counter("ship_bytes_total"),
            degraded: reg.counter("ship_degraded_total"),
            telemetry_sent: reg.counter("ship_telemetry_sent_total"),
            backoff_seconds: reg.gauge("ship_backoff_seconds"),
        }
    }
}

/// Outcome of one connection's drain loop.
enum Drained {
    /// Footer shipped, BYE acknowledged: the session is fully collected.
    Complete,
    /// Everything currently on disk shipped; no footer yet.
    CaughtUp,
}

/// Ship a spool directory to a collector. See the module docs for the
/// protocol; see [`ShipReport`] for what comes back. Returns `Err` only
/// for local problems (unreadable spool directory) — network failure
/// beyond the retry budget is reported as `degraded`, because the local
/// spool is still a complete, analyzable artifact.
pub fn ship(config: &ShipConfig) -> io::Result<ShipReport> {
    if !config.dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("spool directory {} not found", config.dir.display()),
        ));
    }
    let metrics = ShipMetrics::resolve(config.registry());
    let mut report = ShipReport::default();
    let mut rng = Rng::new(config.retry.seed);
    let mut failures = 0u32;
    let mut acked_at_failure = 0u64;
    let mut first = true;

    loop {
        if !first {
            report.reconnects += 1;
            metrics.reconnects.inc();
        }
        first = false;
        match connect_and_drain(config, &mut report, &metrics) {
            Ok(Drained::Complete) => {
                report.complete = true;
                break;
            }
            Ok(Drained::CaughtUp) => {
                // Non-follow mode: shipping what exists now is the job.
                break;
            }
            Err(_e) => {
                // The budget bounds *consecutive* fruitless attempts: a
                // connection that acked anything new proves the collector
                // lives, so the count restarts (otherwise a long chaotic
                // session would degrade despite making steady progress).
                if report.frames_acked > acked_at_failure {
                    failures = 0;
                }
                acked_at_failure = report.frames_acked;
                failures += 1;
                if failures > config.retry.max_failures {
                    report.degraded = true;
                    metrics.degraded.inc();
                    tempest_obs::event!(
                        Error,
                        "ship",
                        "retry budget exhausted; degrading to local spool only",
                        addr = config.addr,
                        failures = failures,
                        frames_acked = report.frames_acked,
                    );
                    // Leave the black box beside the spool for doctor.
                    let _ = tempest_obs::flight::flight()
                        .dump_to(&config.dir.join(FLIGHT_DUMP_NAME), "ship degraded");
                    break;
                }
                let delay = config.retry.delay(failures - 1, &mut rng);
                report.backoff_ms += delay.as_millis() as u64;
                metrics
                    .backoff_seconds
                    .set(report.backoff_ms as f64 / 1_000.0);
                tempest_obs::event!(
                    Warn,
                    "ship",
                    "connection failed; backing off before retry",
                    addr = config.addr,
                    failures = failures,
                    delay_ms = delay.as_millis(),
                );
                std::thread::sleep(delay);
            }
        }
    }
    Ok(report)
}

/// Identify the node from the spool's first decodable node frame; the
/// anonymous fallback keeps HELLO well-formed for header-damaged spools.
fn spool_identity(dir: &Path) -> (u32, String) {
    let limits = DecodeLimits::default();
    spool::scan_frames(dir, |f| {
        if f.kind == FRAME_NODE {
            if let Ok(Decoded::Node(node)) = spool::decode_frame(f.kind, f.payload, &limits) {
                return ControlFlow::Break((node.node_id, node.hostname));
            }
        }
        ControlFlow::Continue(())
    })
    .unwrap_or_else(|| (0, "unknown".to_string()))
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One connection: handshake, resume, drain, and (in follow mode) tail
/// the spool until the footer ships. Any error aborts the connection;
/// the caller decides whether the retry budget allows another.
fn connect_and_drain(
    config: &ShipConfig,
    report: &mut ShipReport,
    metrics: &ShipMetrics,
) -> io::Result<Drained> {
    let mut stream = TcpStream::connect(&config.addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;

    // Preamble + HELLO, then adopt the server's authoritative cursor.
    stream.write_all(SHIP_MAGIC)?;
    let (node_id, hostname) = spool_identity(&config.dir);
    let hello = Hello {
        version: SHIP_VERSION,
        node_id,
        session: config.session_name(),
        hostname: hostname.clone(),
    };
    write_msg(&mut stream, MSG_HELLO, &encode_hello(&hello))?;
    let mut cursor = match read_msg(&mut stream, MAX_WIRE_LEN)? {
        (MSG_WELCOME, p) => Cursor::decode(&p).ok_or_else(|| proto_err("short WELCOME".into()))?,
        (MSG_ERR, p) => {
            let (code, detail) = decode_err(&p);
            return Err(proto_err(format!("collector refused: {code} {detail}")));
        }
        (kind, _) => return Err(proto_err(format!("expected WELCOME, got {kind}"))),
    };

    // First telemetry snapshot right after the handshake so the fleet
    // view learns about this node before any data lands.
    if config.telemetry {
        send_telemetry(config, &mut stream, report, metrics, node_id, &hostname)?;
    }

    // Per segment, where this connection's last scan of it stopped. The
    // first pass scans every segment from its start, so a footer behind
    // the resume cursor is still seen; later passes read only what was
    // appended since.
    let mut scanned: HashMap<u64, u64> = HashMap::new();
    let mut last_activity = Instant::now();
    let mut wait = config.poll;
    loop {
        let (shipped_any, footer_shipped) = ship_available(
            config,
            &mut stream,
            &mut cursor,
            &mut scanned,
            report,
            metrics,
        )?;
        if shipped_any {
            last_activity = Instant::now();
            // Persist progress after every drain pass; losing it only
            // costs a few duplicate sends, never correctness.
            cursor.store(&config.dir).ok();
        }
        if footer_shipped {
            // Final snapshot before BYE: every data frame is acked, so
            // the counters it carries are this run's exact closing totals.
            if config.telemetry {
                send_telemetry(config, &mut stream, report, metrics, node_id, &hostname)?;
            }
            write_msg(&mut stream, MSG_BYE, &[])?;
            match read_msg(&mut stream, MAX_WIRE_LEN)? {
                (MSG_BYE_ACK, _) => {}
                (kind, _) => return Err(proto_err(format!("expected BYE_ACK, got {kind}"))),
            }
            return Ok(Drained::Complete);
        }
        if !config.follow {
            return Ok(Drained::CaughtUp);
        }
        // Follow mode, caught up: when idle long enough, refresh the
        // fleet view (an acked METRICS doubles as the keepalive) or fall
        // back to a plain heartbeat, then wait for more data, twice as
        // long after each idle pass but never past the next heartbeat.
        if last_activity.elapsed() >= config.heartbeat {
            if config.telemetry {
                send_telemetry(config, &mut stream, report, metrics, node_id, &hostname)?;
            } else {
                write_msg(&mut stream, MSG_PING, &[])?;
                match read_msg(&mut stream, MAX_WIRE_LEN)? {
                    (MSG_PONG, _) => {}
                    (kind, _) => return Err(proto_err(format!("expected PONG, got {kind}"))),
                }
            }
            last_activity = Instant::now();
        }
        wait = if shipped_any {
            config.poll
        } else {
            wait.saturating_mul(2).min(config.heartbeat)
        };
        let heartbeat_in = config.heartbeat.saturating_sub(last_activity.elapsed());
        std::thread::sleep(wait.min(heartbeat_in));
    }
}

/// Snapshot the shipper's registry and send it as a METRICS message,
/// expecting a cursor-unchanged ACK. No-op when metrics are globally
/// disabled. The send counter is bumped *before* the snapshot is taken
/// so the shipped totals include the message carrying them — that is
/// what lets the collector's fleet view match the local registry exactly
/// after the final pre-BYE snapshot.
fn send_telemetry(
    config: &ShipConfig,
    stream: &mut TcpStream,
    report: &mut ShipReport,
    metrics: &ShipMetrics,
    node_id: u32,
    hostname: &str,
) -> io::Result<()> {
    let reg = config.registry();
    if !reg.is_enabled() {
        return Ok(());
    }
    metrics.telemetry_sent.inc();
    let telemetry = tempest_obs::Telemetry {
        node_id,
        hostname: hostname.to_string(),
        origin_unix_ns: tempest_obs::unix_now_ns(),
        snapshot: reg.snapshot(),
    };
    write_msg(
        stream,
        MSG_METRICS,
        &tempest_obs::encode_telemetry(&telemetry),
    )?;
    match read_msg(stream, MAX_WIRE_LEN)? {
        (MSG_ACK, _) => {
            report.telemetry_sent += 1;
            Ok(())
        }
        (MSG_ERR, p) => {
            let (code, detail) = decode_err(&p);
            Err(proto_err(format!("collector error: {code} {detail}")))
        }
        (kind, _) => Err(proto_err(format!("expected ACK, got {kind}"))),
    }
}

/// Ship every frame at or past `cursor` currently on disk, in recovery
/// order: ascending segment sequence, ascending offset, and never past an
/// unsealed segment (the live tail may still grow and must ship before
/// anything that could follow it). Each segment's scan starts where
/// `scanned` says an earlier one stopped, and records where this one
/// does. Returns `(shipped_any, footer_shipped)`.
fn ship_available(
    config: &ShipConfig,
    stream: &mut TcpStream,
    cursor: &mut Cursor,
    scanned: &mut HashMap<u64, u64>,
    report: &mut ShipReport,
    metrics: &ShipMetrics,
) -> io::Result<(bool, bool)> {
    let mut shipped_any = false;
    for (seq, path) in list_segment_files(&config.dir)? {
        if seq < cursor.seg {
            continue;
        }
        let from = scanned.get(&seq).copied().unwrap_or(0);
        let mut segment = match SegmentReader::open_at(&path, from) {
            Ok(segment) => segment,
            // Gone since the listing, under either name.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let sealed = segment.path().extension().is_some_and(|e| e == "seg");
        while let Some(f) = segment.next_frame()? {
            let at = Cursor {
                seg: seq,
                off: f.offset,
            };
            if at < *cursor {
                report.frames_skipped += 1;
                // A footer behind the resume cursor means the collector
                // already holds the whole session durably — the final ACK
                // of a previous attempt was lost, not the data. That is
                // completion; without this the shipper would end a fully
                // collected run reporting `complete: false`.
                if f.kind == FRAME_FOOTER {
                    return Ok((shipped_any, true));
                }
                continue;
            }
            let sent_ns = tempest_obs::unix_now_ns();
            let msg = shipped2_payload(seq, f.offset, sent_ns, 0, f.kind, f.payload);
            write_msg(stream, MSG_DATA, &msg)?;
            report.frames_sent += 1;
            metrics.frames_sent.inc();
            metrics.bytes.add(msg.len() as u64);
            match read_msg(stream, MAX_WIRE_LEN)? {
                (MSG_ACK, p) => {
                    let next = Cursor::decode(&p).ok_or_else(|| proto_err("short ACK".into()))?;
                    *cursor = next;
                    report.frames_acked += 1;
                    report.cursor = (next.seg, next.off);
                    metrics.frames_acked.inc();
                }
                (MSG_ERR, p) => {
                    let (code, detail) = decode_err(&p);
                    return Err(proto_err(format!("collector error: {code} {detail}")));
                }
                (kind, _) => return Err(proto_err(format!("expected ACK, got {kind}"))),
            }
            shipped_any = true;
            if f.kind == FRAME_FOOTER {
                return Ok((shipped_any, true));
            }
        }
        scanned.insert(seq, segment.offset());
        if !sealed {
            // The open segment is the live tail; everything after it (a
            // later rescan will see it sealed plus a successor) must wait
            // so the rotation's symbol frame is never skipped.
            break;
        }
    }
    Ok((shipped_any, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_messages_roundtrip_and_reject_damage() {
        let mut buf = Vec::new();
        write_msg(&mut buf, MSG_DATA, b"hello frames").unwrap();
        let (kind, payload) = read_msg(&mut &buf[..], MAX_WIRE_LEN).unwrap();
        assert_eq!(kind, MSG_DATA);
        assert_eq!(payload, b"hello frames");

        // A flipped payload bit fails the checksum, and the damaged
        // payload comes back for quarantine.
        let mut bad = buf.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        match read_msg(&mut &bad[..], MAX_WIRE_LEN) {
            Err(ReadError::Checksum(payload)) => assert_eq!(payload, &bad[FRAME_HEADER_LEN..]),
            other => panic!("expected a checksum failure, got {other:?}"),
        }

        // A length beyond the limit is rejected before allocation.
        let mut huge = buf.clone();
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_msg(&mut &huge[..], MAX_WIRE_LEN),
            Err(ReadError::TooBig(u32::MAX))
        ));

        // Truncation mid-payload is an error, not a hang or panic.
        assert!(matches!(
            read_msg(&mut &buf[..buf.len() - 3], MAX_WIRE_LEN),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn hello_roundtrips() {
        let h = Hello {
            version: SHIP_VERSION,
            node_id: 7,
            session: "run-42".into(),
            hostname: "node7.cluster".into(),
        };
        assert_eq!(decode_hello(&encode_hello(&h)), Some(h.clone()));
        assert_eq!(decode_hello(&encode_hello(&h)[..5]), None);
    }

    #[test]
    fn cursor_orders_persists_and_survives_damage() {
        let a = Cursor { seg: 1, off: 900 };
        let b = Cursor { seg: 2, off: 16 };
        assert!(a < b, "segment dominates offset");
        assert_eq!(Cursor::decode(&a.encode()), Some(a));

        let dir = std::env::temp_dir().join(format!("tempest-ship-cursor-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Cursor::load(&dir), None);
        b.store(&dir).unwrap();
        assert_eq!(Cursor::load(&dir), Some(b));
        std::fs::write(dir.join(SHIP_CURSOR_NAME), "garbage").unwrap();
        assert_eq!(Cursor::load(&dir), None, "damaged cursor reads as absent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_exponential_bounded_and_jittered() {
        let policy = RetryPolicy {
            max_failures: 8,
            base_ms: 100,
            cap_ms: 1_000,
            seed: 42,
        };
        let mut rng = Rng::new(policy.seed);
        for attempt in 0..12 {
            let exp = (100u64 << attempt.min(16)).min(1_000);
            for _ in 0..32 {
                let d = policy.delay(attempt, &mut rng).as_millis() as u64;
                assert!(d >= exp / 2, "attempt {attempt}: {d} below jitter floor");
                assert!(d <= exp, "attempt {attempt}: {d} above cap");
            }
        }
        // Same seed, same schedule: chaos tests depend on this.
        let mut r1 = Rng::new(9);
        let mut r2 = Rng::new(9);
        let s1: Vec<_> = (0..8).map(|a| policy.delay(a, &mut r1)).collect();
        let s2: Vec<_> = (0..8).map(|a| policy.delay(a, &mut r2)).collect();
        assert_eq!(s1, s2);
    }

    #[test]
    fn err_payload_roundtrips() {
        let p = encode_err(ERR_FULL, "disk budget exhausted");
        assert_eq!(decode_err(&p), (ERR_FULL, "disk budget exhausted".into()));
        assert_eq!(decode_err(&[]), (0, String::new()));
    }

    #[test]
    fn shipping_to_nowhere_degrades_instead_of_erroring() {
        let dir = std::env::temp_dir().join(format!("tempest-ship-nowhere-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A port from the ephemeral range that nothing listens on: bind
        // then drop to learn a free port, deterministic and sleep-free.
        let free = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = free.local_addr().unwrap().to_string();
        drop(free);
        let mut config = ShipConfig::new(&dir, addr);
        config.retry = RetryPolicy {
            max_failures: 2,
            base_ms: 1,
            cap_ms: 2,
            seed: 1,
        };
        let report = ship(&config).unwrap();
        assert!(report.degraded, "no collector means degraded, not Err");
        assert!(!report.complete);
        assert_eq!(report.frames_acked, 0);
        assert_eq!(report.reconnects, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
