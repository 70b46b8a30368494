//! The collector daemon: accepts shipper connections and persists their
//! frames as standard spool directories, written through the spool's own
//! [`SegmentLog`] (every seal syncs the segment, then its directory).
//! What is left here is the resume cursor, the [`FRAME_SHIPPED2`]
//! envelope, the optional per-frame fsync and footer tracking.

use std::collections::HashSet;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fleet::FleetState;
use parking_lot::Mutex;
use tempest_probe::limits::DecodeLimits;
use tempest_probe::ship::{
    decode_data, decode_hello, encode_err, read_msg, write_msg, Cursor, ReadError, DATA_PREFIX_LEN,
    ERR_CORRUPT, ERR_DEADLINE, ERR_FULL, ERR_OUT_OF_ORDER, ERR_PROTOCOL, ERR_RATE_LIMITED,
    ERR_TOO_BIG, MAX_WIRE_LEN, MSG_ACK, MSG_BYE, MSG_BYE_ACK, MSG_DATA, MSG_ERR, MSG_HELLO,
    MSG_METRICS, MSG_PING, MSG_PONG, MSG_WELCOME, SHIP_MAGIC, SHIP_VERSION,
};
use tempest_probe::spool::{
    decode_frame, scan_frames, shipped2_payload, Decoded, SegmentLog, FRAME_FOOTER,
    FRAME_HEADER_LEN, FRAME_METRICS, FRAME_SHIPPED2, SEGMENT_HEADER_LEN, SHIPPED2_PREFIX_LEN,
};

/// What to do with an incoming frame once the disk budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Answer `ERR_FULL` so the shipper knows to back off and retry
    /// later, then close the connection. The polite default.
    Refuse,
    /// Drop the connection without a courtesy reply — for operators who
    /// would rather spend zero further bytes on a full disk.
    Disconnect,
}

/// Collector configuration. All limits are per connection unless noted.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Directory that receives one spool directory per shipped session.
    pub out_dir: PathBuf,
    /// Collector-side segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Read/write deadline on every connection.
    pub io_timeout: Duration,
    /// Largest accepted DATA payload; bigger claims get `ERR_TOO_BIG`.
    pub max_frame_bytes: u32,
    /// Total bytes under `out_dir` before the shed policy fires (global).
    pub disk_budget_bytes: Option<u64>,
    /// What to do when the disk budget is exhausted.
    pub shed: ShedPolicy,
    /// DATA frames per second tolerated per connection (token bucket
    /// with a burst of twice the rate); `None` disables rate limiting.
    pub rate_limit: Option<u32>,
    /// Fsync the session segment after every accepted frame. Makes ACK
    /// mean "on stable storage" at per-frame fsync cost; off, ACK means
    /// "handed to the OS".
    pub fsync_per_frame: bool,
    /// Wall-clock cap on a single shipper session. On expiry the
    /// collector sends `ERR_DEADLINE` and disconnects; everything ACKed
    /// so far is durable and the shipper resumes on reconnect. `None`
    /// (the default) lets sessions run unbounded.
    pub session_deadline: Option<Duration>,
}

impl CollectorConfig {
    /// Defaults: 4 MiB frames, 8 MiB segments, 5 s deadlines, no disk
    /// budget, no rate limit, no per-frame fsync.
    pub fn new(out_dir: impl Into<PathBuf>) -> CollectorConfig {
        CollectorConfig {
            out_dir: out_dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            io_timeout: Duration::from_secs(5),
            max_frame_bytes: 4 * 1024 * 1024,
            disk_budget_bytes: None,
            shed: ShedPolicy::Refuse,
            rate_limit: None,
            fsync_per_frame: false,
            session_deadline: None,
        }
    }
}

/// Counters the collector keeps about itself; readable through
/// [`CollectorHandle::stats`] while the daemon runs.
#[derive(Debug, Default)]
pub struct CollectorStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// DATA frames accepted and written.
    pub frames: AtomicU64,
    /// DATA frames acknowledged without writing (duplicates).
    pub duplicates: AtomicU64,
    /// Messages quarantined for failing CRC or decode.
    pub quarantined: AtomicU64,
    /// Frames refused by the disk-budget shed policy.
    pub shed: AtomicU64,
    /// Sessions that completed their BYE handshake.
    pub sessions_completed: AtomicU64,
    /// Sessions cut off by the session deadline.
    pub deadline_cutoffs: AtomicU64,
}

struct Shared {
    stop: AtomicBool,
    active: Mutex<HashSet<String>>,
    disk_used: AtomicU64,
    stats: CollectorStats,
    fleet: Arc<FleetState>,
}

struct CollectMetrics {
    frames: tempest_obs::Counter,
    bytes: tempest_obs::Counter,
    duplicates: tempest_obs::Counter,
    quarantined: tempest_obs::Counter,
    shed: tempest_obs::Counter,
    connections: tempest_obs::Counter,
    deadline_cutoffs: tempest_obs::Counter,
    telemetry: tempest_obs::Counter,
    sessions_active: tempest_obs::Gauge,
    frame_latency: tempest_obs::Histogram,
}

impl CollectMetrics {
    fn resolve() -> CollectMetrics {
        let reg = tempest_obs::global();
        CollectMetrics {
            frames: reg.counter("collect_frames_total"),
            bytes: reg.counter("collect_bytes_total"),
            duplicates: reg.counter("collect_dup_frames_total"),
            quarantined: reg.counter("collect_quarantined_total"),
            shed: reg.counter("collect_shed_total"),
            connections: reg.counter("collect_connections_total"),
            deadline_cutoffs: reg.counter("collect_session_deadline_total"),
            telemetry: reg.counter("collect_telemetry_total"),
            sessions_active: reg.gauge("collect_sessions_active"),
            frame_latency: reg.histogram("collect_frame_latency_ns"),
        }
    }
}

/// A running collector's remote control: address, shutdown, statistics.
#[derive(Clone)]
pub struct CollectorHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl CollectorHandle {
    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit; in-flight connections finish.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Read the live counters.
    pub fn stats(&self) -> &CollectorStats {
        &self.shared.stats
    }

    /// The aggregated fleet telemetry view, shareable with the HTTP
    /// surface and the `tempest fleet` renderer.
    pub fn fleet(&self) -> Arc<FleetState> {
        self.shared.fleet.clone()
    }
}

/// The collector daemon. [`bind`](Collector::bind), then
/// [`run`](Collector::run) (serve until shutdown) or
/// [`serve_connections`](Collector::serve_connections) (serve exactly N
/// connections — what `tempest collect serve --once` uses in CI).
pub struct Collector {
    listener: TcpListener,
    config: Arc<CollectorConfig>,
    shared: Arc<Shared>,
}

impl Collector {
    /// Bind the listening socket (use `127.0.0.1:0` for an ephemeral
    /// port) and prepare the output directory.
    pub fn bind(addr: &str, config: CollectorConfig) -> io::Result<Collector> {
        std::fs::create_dir_all(&config.out_dir)?;
        let listener = TcpListener::bind(addr)?;
        let disk_used = dir_size(&config.out_dir);
        Ok(Collector {
            listener,
            config: Arc::new(config),
            shared: Arc::new(Shared {
                stop: AtomicBool::new(false),
                active: Mutex::new(HashSet::new()),
                disk_used: AtomicU64::new(disk_used),
                stats: CollectorStats::default(),
                fleet: Arc::new(FleetState::default()),
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and statistics, usable from other threads.
    pub fn handle(&self) -> io::Result<CollectorHandle> {
        Ok(CollectorHandle {
            shared: self.shared.clone(),
            addr: self.listener.local_addr()?,
        })
    }

    /// Accept and serve connections until [`CollectorHandle::shutdown`].
    pub fn run(self) -> io::Result<()> {
        self.accept_loop(None)
    }

    /// Accept exactly `n` connections, serve each to completion, return.
    pub fn serve_connections(self, n: u64) -> io::Result<()> {
        self.accept_loop(Some(n))
    }

    fn accept_loop(self, mut remaining: Option<u64>) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let metrics = Arc::new(CollectMetrics::resolve());
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            if remaining == Some(0) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(n) = remaining.as_mut() {
                        *n -= 1;
                    }
                    let config = self.config.clone();
                    let shared = self.shared.clone();
                    let metrics = metrics.clone();
                    workers.push(std::thread::spawn(move || {
                        handle_connection(stream, &config, &shared, &metrics);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            w.join().ok();
        }
        Ok(())
    }
}

/// Recursive byte count of everything under `dir` — the disk budget's
/// starting balance.
fn dir_size(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_size(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

/// Session directory name: keyed on session and node so two nodes
/// shipping the same run land side by side, sanitized so a hostile
/// session name cannot escape `out_dir`.
fn session_dir_name(session: &str, node_id: u32) -> String {
    let mut name: String = session
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(80)
        .collect();
    if name.is_empty() || name.starts_with('.') {
        name.insert(0, 's');
    }
    format!("{name}-node{node_id}")
}

/// Removes the session from the active set when the connection ends.
struct ActiveGuard {
    shared: Arc<Shared>,
    key: String,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.shared.active.lock().remove(&self.key);
    }
}

fn send_err(stream: &mut TcpStream, code: u8, detail: &str) {
    write_msg(stream, MSG_ERR, &encode_err(code, detail)).ok();
}

fn handle_connection(
    mut stream: TcpStream,
    config: &CollectorConfig,
    shared: &Arc<Shared>,
    metrics: &CollectMetrics,
) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    metrics.connections.inc();
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(config.io_timeout)).is_err()
        || stream.set_write_timeout(Some(config.io_timeout)).is_err()
    {
        return;
    }

    // Preamble + HELLO.
    let mut magic = [0u8; 8];
    if stream.read_exact(&mut magic).is_err() || &magic != SHIP_MAGIC {
        send_err(&mut stream, ERR_PROTOCOL, "bad connection magic");
        return;
    }
    let hello = match read_msg(&mut stream, MAX_WIRE_LEN) {
        Ok((MSG_HELLO, p)) => match decode_hello(&p) {
            Some(h) if h.version == SHIP_VERSION => h,
            Some(h) => {
                send_err(
                    &mut stream,
                    ERR_PROTOCOL,
                    &format!("unsupported protocol version {}", h.version),
                );
                return;
            }
            None => {
                send_err(&mut stream, ERR_PROTOCOL, "undecodable HELLO");
                return;
            }
        },
        _ => {
            send_err(&mut stream, ERR_PROTOCOL, "expected HELLO");
            return;
        }
    };

    // One connection per session at a time: a second shipper for the
    // same session would interleave cursors incoherently.
    let key = session_dir_name(&hello.session, hello.node_id);
    if !shared.active.lock().insert(key.clone()) {
        send_err(&mut stream, ERR_PROTOCOL, "session already active");
        return;
    }
    let _guard = ActiveGuard {
        shared: shared.clone(),
        key: key.clone(),
    };
    metrics
        .sessions_active
        .set(shared.active.lock().len() as f64);

    let dir = config.out_dir.join(&key);
    let mut writer = match SessionWriter::open(
        &dir,
        hello.node_id,
        &hello.hostname,
        config.segment_bytes,
        config.fsync_per_frame,
    ) {
        Ok(w) => w,
        Err(e) => {
            send_err(&mut stream, ERR_FULL, &format!("cannot open session: {e}"));
            return;
        }
    };

    // The resume cursor comes from our own durable segments: the shipper
    // restarts exactly past the last frame that survived on this disk.
    let resume = writer.next.unwrap_or_default();
    if write_msg(&mut stream, MSG_WELCOME, &resume.encode()).is_err() {
        writer.close(false);
        return;
    }
    let node_frames =
        tempest_obs::global().gauge(&format!("collect_node_{}_frames", hello.node_id));

    // Token bucket for the per-connection rate limit.
    let mut tokens = config.rate_limit.map(|r| (2.0 * r as f64, Instant::now()));
    // The size limit is checked against the header, before allocating.
    let max_msg = config
        .max_frame_bytes
        .saturating_add(DATA_PREFIX_LEN as u32)
        .min(MAX_WIRE_LEN);

    let session_start = Instant::now();
    let mut completed = false;
    loop {
        // Session deadline: checked between messages, so a session is
        // never cut mid-frame — everything ACKed stays durable and the
        // shipper resumes from its cursor on the next connection.
        if let Some(max) = config.session_deadline {
            if session_start.elapsed() >= max {
                shared
                    .stats
                    .deadline_cutoffs
                    .fetch_add(1, Ordering::Relaxed);
                metrics.deadline_cutoffs.inc();
                send_err(&mut stream, ERR_DEADLINE, "session deadline exceeded");
                break;
            }
        }
        let (kind, payload) = match read_msg(&mut stream, max_msg) {
            Ok(msg) => msg,
            Err(ReadError::TooBig(len)) => {
                send_err(
                    &mut stream,
                    ERR_TOO_BIG,
                    &format!("{len}-byte frame over limit"),
                );
                break;
            }
            Err(ReadError::Checksum(payload)) => {
                quarantine(&dir, &payload, shared, metrics);
                send_err(&mut stream, ERR_CORRUPT, "wire checksum failed");
                break;
            }
            // EOF, timeout or reset: the shipper reconnects and resumes.
            Err(ReadError::Io(_)) => break,
        };
        match kind {
            MSG_DATA => {
                if let Some((ref mut bucket, ref mut last)) = tokens {
                    let rate = config.rate_limit.unwrap_or(0) as f64;
                    *bucket = (*bucket + last.elapsed().as_secs_f64() * rate).min(2.0 * rate);
                    *last = Instant::now();
                    if *bucket < 1.0 {
                        send_err(&mut stream, ERR_RATE_LIMITED, "frame rate limit exceeded");
                        break;
                    }
                    *bucket -= 1.0;
                }
                let Some((cur, origin_ns, inner_kind, inner_payload)) = decode_data(&payload)
                else {
                    quarantine(&dir, &payload, shared, metrics);
                    send_err(&mut stream, ERR_CORRUPT, "undecodable DATA frame");
                    break;
                };
                if inner_kind == FRAME_SHIPPED2 {
                    quarantine(&dir, &payload, shared, metrics);
                    send_err(&mut stream, ERR_CORRUPT, "nested shipped frame");
                    break;
                }
                let cur = Cursor {
                    seg: cur.0,
                    off: cur.1,
                };
                let next_after = Cursor {
                    seg: cur.seg,
                    off: cur.off + (FRAME_HEADER_LEN + inner_payload.len()) as u64,
                };
                match writer.next {
                    // Duplicate of something already durable here: a
                    // re-send after a lost ACK. Acknowledge, don't write.
                    Some(next) if cur < next => {
                        shared.stats.duplicates.fetch_add(1, Ordering::Relaxed);
                        metrics.duplicates.inc();
                        if write_msg(&mut stream, MSG_ACK, &next.encode()).is_err() {
                            break;
                        }
                        continue;
                    }
                    // In order: the expected offset, or any later source
                    // segment (sequence gaps are real — the writer skips
                    // sequences when it revives from a write failure).
                    None => {}
                    Some(next) if cur == next || cur.seg > next.seg => {}
                    Some(next) => {
                        send_err(
                            &mut stream,
                            ERR_OUT_OF_ORDER,
                            &format!(
                                "got seg {} off {}, expected seg {} off {}",
                                cur.seg, cur.off, next.seg, next.off
                            ),
                        );
                        break;
                    }
                }
                // Frame-trace latency: spool-append origin to collector
                // receipt, on the collector's clock. Clock skew can make
                // the delta negative; those are recorded as zero rather
                // than dropped so the count still matches frames.
                let collect_ns = tempest_obs::unix_now_ns();
                metrics
                    .frame_latency
                    .record(collect_ns.saturating_sub(origin_ns));
                // What lands on disk is the FRAME_SHIPPED2 envelope: source
                // cursor plus both trace stamps ahead of the original frame.
                let frame_bytes =
                    (FRAME_HEADER_LEN + SHIPPED2_PREFIX_LEN + inner_payload.len()) as u64;
                if let Some(budget) = config.disk_budget_bytes {
                    if shared.disk_used.load(Ordering::Relaxed) + frame_bytes > budget {
                        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        metrics.shed.inc();
                        if config.shed == ShedPolicy::Refuse {
                            send_err(&mut stream, ERR_FULL, "collector disk budget exhausted");
                        }
                        break;
                    }
                }
                // Spooled telemetry snapshots feed the fleet view on the
                // way past; they are persisted like any other frame.
                if inner_kind == FRAME_METRICS {
                    if let Some(t) = tempest_obs::decode_telemetry(inner_payload) {
                        metrics.telemetry.inc();
                        shared.fleet.update(&key, &hello.session, t);
                    }
                }
                if writer
                    .append_shipped2(cur, origin_ns, collect_ns, inner_kind, inner_payload)
                    .is_err()
                {
                    send_err(&mut stream, ERR_FULL, "collector write failed");
                    break;
                }
                shared.disk_used.fetch_add(frame_bytes, Ordering::Relaxed);
                writer.next = Some(next_after);
                if inner_kind == FRAME_FOOTER {
                    writer.footer_seen = true;
                }
                shared.stats.frames.fetch_add(1, Ordering::Relaxed);
                metrics.frames.inc();
                metrics.bytes.add(frame_bytes);
                node_frames.set(shared.stats.frames.load(Ordering::Relaxed) as f64);
                if write_msg(&mut stream, MSG_ACK, &next_after.encode()).is_err() {
                    break;
                }
            }
            MSG_METRICS => {
                // A shipper-process telemetry snapshot. Feeds the fleet
                // view only (no spool write — it describes the shipper,
                // not the profiled run) and is ACKed with the unchanged
                // cursor so the data stream's resume logic is untouched.
                match tempest_obs::decode_telemetry(&payload) {
                    Some(t) => {
                        metrics.telemetry.inc();
                        shared.fleet.update(&key, &hello.session, t);
                        let cursor = writer.next.unwrap_or_default();
                        if write_msg(&mut stream, MSG_ACK, &cursor.encode()).is_err() {
                            break;
                        }
                    }
                    None => {
                        quarantine(&dir, &payload, shared, metrics);
                        send_err(&mut stream, ERR_CORRUPT, "undecodable telemetry");
                        break;
                    }
                }
            }
            MSG_PING => {
                if write_msg(&mut stream, MSG_PONG, &[]).is_err() {
                    break;
                }
            }
            MSG_BYE => {
                completed = true;
                break;
            }
            _ => {
                send_err(&mut stream, ERR_PROTOCOL, "unexpected message");
                break;
            }
        }
    }

    let clean = completed && writer.footer_seen;
    writer.close(clean);
    if completed {
        shared
            .stats
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
        write_msg(&mut stream, MSG_BYE_ACK, &[]).ok();
    }
    metrics
        .sessions_active
        .set(shared.active.lock().len().saturating_sub(1) as f64);
}

/// Park undecodable bytes in `dir/quarantine/` for post-mortems instead
/// of writing them into the session spool or crashing on them.
fn quarantine(dir: &Path, bytes: &[u8], shared: &Arc<Shared>, metrics: &CollectMetrics) {
    let n = shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    metrics.quarantined.inc();
    let qdir = dir.join("quarantine");
    if std::fs::create_dir_all(&qdir).is_ok() {
        std::fs::write(qdir.join(format!("frame-{n:04}.bin")), bytes).ok();
    }
}

// ---- session writer --------------------------------------------------------

/// Writes one shipped session as a standard spool directory. Every
/// received frame is appended wrapped as a [`FRAME_SHIPPED2`] envelope, so
/// the directory is self-describing: the resume cursor is recomputed at
/// open by scanning the segments, and a torn tail atomically loses the
/// data and the cursor that covered it — there is no window where one
/// survives without the other.
struct SessionWriter {
    log: SegmentLog,
    segment_bytes: u64,
    fsync_per_frame: bool,
    /// Next expected source cursor; `None` before the first frame ever.
    next: Option<Cursor>,
    footer_seen: bool,
}

impl SessionWriter {
    fn open(
        dir: &Path,
        node_id: u32,
        hostname: &str,
        segment_bytes: u64,
        fsync_per_frame: bool,
    ) -> io::Result<SessionWriter> {
        // Scan what already survived: highest applied source cursor and
        // whether the footer arrived.
        let mut next: Option<Cursor> = None;
        let mut footer_seen = false;
        let limits = DecodeLimits::default();
        scan_frames(dir, |f| {
            if let Some(shipped) = f.shipped {
                let after = Cursor {
                    seg: shipped.seg,
                    off: shipped.off + (FRAME_HEADER_LEN + f.payload.len()) as u64,
                };
                if next.is_none_or(|n| after > n) {
                    next = Some(after);
                }
                if f.kind == FRAME_FOOTER
                    && matches!(
                        decode_frame(f.kind, f.payload, &limits),
                        Ok(Decoded::Footer(_))
                    )
                {
                    footer_seen = true;
                }
            }
            ControlFlow::<()>::Continue(())
        });
        // A crashed collector's leftover open segment is sealed as it
        // stands: its verified prefix is what the cursor above counted.
        Ok(SessionWriter {
            log: SegmentLog::reopen(dir, node_id, hostname)?,
            segment_bytes: segment_bytes.max(4096),
            fsync_per_frame,
            next,
            footer_seen,
        })
    }

    /// Append one received frame as a [`FRAME_SHIPPED2`] envelope —
    /// source cursor plus both frame-trace stamps ahead of the original
    /// frame — rotating the collector-side segment when it fills. Every
    /// seal is durable: the segment's data is synced first.
    fn append_shipped2(
        &mut self,
        cur: Cursor,
        origin_ns: u64,
        collect_ns: u64,
        inner_kind: u8,
        inner_payload: &[u8],
    ) -> io::Result<()> {
        let wrapped = shipped2_payload(
            cur.seg,
            cur.off,
            origin_ns,
            collect_ns,
            inner_kind,
            inner_payload,
        );
        self.log.append(FRAME_SHIPPED2, &wrapped)?;
        if self.fsync_per_frame {
            self.log.sync()?;
        }
        if self.log.bytes_in_segment() >= self.segment_bytes {
            self.log.sync()?;
            self.log.rotate()?;
        }
        Ok(())
    }

    /// Seal (or discard, if empty) the active segment and stamp the
    /// manifest. Best-effort by design: this runs on every disconnect,
    /// including ones caused by a full disk.
    fn close(mut self, clean: bool) {
        if self.log.bytes_in_segment() == SEGMENT_HEADER_LEN as u64 {
            // Nothing but a header: delete rather than litter.
            self.log.discard_segment().ok();
        } else if self.log.sync().is_ok() {
            self.log.seal().ok();
        }
        self.log.write_manifest(clean).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_dir_names_are_sanitized() {
        assert_eq!(session_dir_name("run-42", 3), "run-42-node3");
        assert_eq!(
            session_dir_name("../../etc/passwd", 0),
            "s.._.._etc_passwd-node0"
        );
        assert_eq!(session_dir_name("", 9), "s-node9");
        assert!(session_dir_name(&"x".repeat(200), 1).len() < 100);
    }

    #[test]
    fn expired_session_deadline_sends_err_deadline() {
        use std::io::Write;
        use tempest_probe::ship::{decode_err, encode_hello, Hello};

        let out =
            std::env::temp_dir().join(format!("tempest-collect-deadline-{}", std::process::id()));
        std::fs::remove_dir_all(&out).ok();
        let mut config = CollectorConfig::new(&out);
        config.session_deadline = Some(Duration::ZERO);
        let collector = Collector::bind("127.0.0.1:0", config).unwrap();
        let addr = collector.local_addr().unwrap();
        let handle = collector.handle().unwrap();
        let t = std::thread::spawn(move || collector.serve_connections(1));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(SHIP_MAGIC).unwrap();
        let hello = Hello {
            version: SHIP_VERSION,
            node_id: 1,
            session: "deadline-test".into(),
            hostname: "test".into(),
        };
        write_msg(&mut stream, MSG_HELLO, &encode_hello(&hello)).unwrap();
        let (kind, _) = read_msg(&mut stream, MAX_WIRE_LEN).unwrap();
        assert_eq!(kind, MSG_WELCOME);
        // A zero deadline has already elapsed: the very next exchange is
        // the courtesy ERR_DEADLINE, then disconnect.
        let (kind, payload) = read_msg(&mut stream, MAX_WIRE_LEN).unwrap();
        assert_eq!(kind, MSG_ERR);
        let (code, detail) = decode_err(&payload);
        assert_eq!(code, ERR_DEADLINE);
        assert!(detail.contains("deadline"));

        t.join().unwrap().unwrap();
        assert_eq!(handle.stats().deadline_cutoffs.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn collector_binds_ephemeral_and_shuts_down() {
        let out = std::env::temp_dir().join(format!("tempest-collect-bind-{}", std::process::id()));
        std::fs::remove_dir_all(&out).ok();
        let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(&out)).unwrap();
        let handle = collector.handle().unwrap();
        assert_ne!(handle.addr().port(), 0);
        let t = std::thread::spawn(move || collector.run());
        handle.shutdown();
        t.join().unwrap().unwrap();
        std::fs::remove_dir_all(&out).ok();
    }
}
