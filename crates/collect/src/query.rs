//! `tempest serve`: a long-running analysis query daemon.
//!
//! The batch CLI answers one question per invocation and pays a full
//! spool-recover + analyze for it. This module keeps the answers warm: it
//! scans a collected session directory once into a **catalog** (session
//! id, byte count, segment count, content CRC), mounts a versioned JSON
//! API on the shared HTTP layer ([`crate::http`]), and serves every
//! request from the content-hash analysis cache
//! ([`tempest_core::cache::AnalysisCache`]) so repeated questions never
//! re-analyze an unchanged session.
//!
//! Endpoints (all `GET`, all JSON; each document is written once, by one
//! function: the session documents by [`tempest_core::dto`], the catalog
//! answers below, the fleet document by [`FleetState::to_json`]):
//!
//! | path | answer |
//! |---|---|
//! | `/api/v1/health` | liveness + session count |
//! | `/api/v1/sessions` | the catalog: ids, sizes, ETags |
//! | `/api/v1/sessions/{id}/profile` | the full v1 profile document |
//! | `/api/v1/sessions/{id}/hotspots?top=N&sort=temp\|time` | ranked hot spots |
//! | `/api/v1/fleet` | aggregated fleet telemetry from the same dir |
//!
//! Conditional requests: every session-derived response carries an
//! `ETag` derived from the session's spool CRC + length
//! (`"{crc:08x}-{len:x}"`); a matching `If-None-Match` answers
//! `304 Not Modified` without touching the analysis pipeline at all.
//! A background thread re-scans the directory on a debounce so sessions
//! appearing (or growing) while the daemon runs become visible without a
//! restart — a changed CRC changes the ETag and the cache key, so stale
//! bytes are never served.

use crate::fleet::{self, FleetState};
use crate::http::{self, Handler, HttpConfig, HttpServer, Request, Response};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempest_core::cache::{AnalysisCache, CacheKey};
use tempest_core::dto::{HotspotsDto, ProfileDto, DTO_VERSION};
use tempest_core::{analysis, AnalysisRequest, NodeProfile};
use tempest_obs::{Counter, Histogram, JsonWriter};
use tempest_probe::crc::Crc32;
use tempest_probe::spool;

/// Default `top` for the hotspots endpoint.
const DEFAULT_TOP: usize = 10;

/// Configuration for a [`QueryServer`].
#[derive(Clone)]
pub struct QueryConfig {
    /// The collected session directory to serve (one spool dir or a
    /// collector `--out` directory of them).
    pub dir: PathBuf,
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Concurrent worker threads answering requests.
    pub jobs: usize,
    /// Analysis result cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Server-wide sustained requests/second (2× burst); `None` disables.
    pub rate_limit: Option<u32>,
    /// Background catalog re-scan debounce in milliseconds; 0 disables
    /// the re-scan thread (the catalog is frozen at boot).
    pub rescan_ms: u64,
    /// Per-request analysis deadline; a deadline-limited result is
    /// served but never cached.
    pub deadline: Option<Duration>,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            dir: PathBuf::from("."),
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            cache_dir: None,
            rate_limit: None,
            rescan_ms: 0,
            deadline: None,
        }
    }
}

/// One catalogued session: identity plus the content hash that keys both
/// the ETag and the analysis cache.
#[derive(Clone)]
struct SessionEntry {
    dir: PathBuf,
    bytes: u64,
    segments: usize,
    crc: u32,
    /// `"{crc:08x}-{len:x}"` — quoted form used on the wire.
    etag: String,
}

/// Resolved `tempest-obs` handles for the serve surface (one lookup at
/// boot, lock-free increments per request).
struct ServeMetrics {
    requests: Counter,
    shed: Counter,
    not_modified: Counter,
    rescan: Counter,
    lat_health: Histogram,
    lat_sessions: Histogram,
    lat_profile: Histogram,
    lat_hotspots: Histogram,
    lat_fleet: Histogram,
}

impl ServeMetrics {
    fn resolve() -> ServeMetrics {
        let reg = tempest_obs::global();
        ServeMetrics {
            requests: reg.counter("serve_requests_total"),
            shed: reg.counter("serve_shed_total"),
            not_modified: reg.counter("serve_not_modified_total"),
            rescan: reg.counter("serve_rescan_total"),
            lat_health: reg.histogram("serve_latency_health_ns"),
            lat_sessions: reg.histogram("serve_latency_sessions_ns"),
            lat_profile: reg.histogram("serve_latency_profile_ns"),
            lat_hotspots: reg.histogram("serve_latency_hotspots_ns"),
            lat_fleet: reg.histogram("serve_latency_fleet_ns"),
        }
    }
}

/// Everything the request handler and re-scan thread share.
struct QueryState {
    config: QueryConfig,
    cache: Option<AnalysisCache>,
    catalog: RwLock<BTreeMap<String, SessionEntry>>,
    /// In-memory profile memo keyed by `"{id} {etag}"`: hotspot variants
    /// and the profile document share one analysis per session content.
    profiles: RwLock<BTreeMap<String, Arc<NodeProfile>>>,
    metrics: ServeMetrics,
    served: AtomicU64,
}

/// A running `tempest serve` daemon. Flip [`QueryServer::stop`] and
/// [`QueryServer::join`] to shut down.
pub struct QueryServer {
    http: HttpServer,
    stop: Arc<AtomicBool>,
    rescan: Option<JoinHandle<()>>,
    state: Arc<QueryState>,
}

impl QueryServer {
    /// Scan the catalog, bind, and start serving. Returns only after the
    /// initial scan completed — a client may query the instant this
    /// returns (that is what `--once-ready` relies on).
    pub fn start(config: QueryConfig) -> io::Result<QueryServer> {
        if !config.dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not a directory", config.dir.display()),
            ));
        }
        let cache = match &config.cache_dir {
            Some(dir) => Some(AnalysisCache::open(dir)?),
            None => None,
        };
        let state = Arc::new(QueryState {
            catalog: RwLock::new(scan_catalog(&config.dir)),
            profiles: RwLock::new(BTreeMap::new()),
            metrics: ServeMetrics::resolve(),
            served: AtomicU64::new(0),
            cache,
            config,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let handler: Handler = {
            let state = Arc::clone(&state);
            Arc::new(move |req: &Request| handle(&state, req))
        };
        let shed = {
            let state = Arc::clone(&state);
            Box::new(move || state.metrics.shed.inc()) as Box<dyn Fn() + Send + Sync>
        };
        let http_config = HttpConfig {
            workers: state.config.jobs.max(1),
            rate_limit: state.config.rate_limit,
            ..HttpConfig::default()
        };
        let http = http::serve(
            &state.config.addr,
            http_config,
            handler,
            Arc::clone(&stop),
            Some(shed),
        )?;
        let rescan = if state.config.rescan_ms > 0 {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("tempest-serve-rescan".to_string())
                    .spawn(move || rescan_loop(&state, &stop))?,
            )
        } else {
            None
        };
        Ok(QueryServer {
            http,
            stop,
            rescan,
            state,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    /// Requests answered so far (any status) — what `--once N` polls.
    pub fn served(&self) -> u64 {
        self.state.served.load(Ordering::Relaxed)
    }

    /// Number of sessions currently catalogued.
    pub fn session_count(&self) -> usize {
        self.state
            .catalog
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The worker count the daemon answers requests with.
    pub fn jobs(&self) -> usize {
        self.state.config.jobs.max(1)
    }

    /// Ask the daemon to stop; pair with [`QueryServer::join`].
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Wait for every serving thread to exit (after [`QueryServer::stop`]).
    pub fn join(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.http.join();
        if let Some(t) = self.rescan {
            let _ = t.join();
        }
    }
}

/// Scan the collected directory into a fresh catalog: one entry per
/// member spool, hashed over its segment bytes in cursor order through
/// [`Crc32::update_from`]'s fixed buffer.
fn scan_catalog(dir: &Path) -> BTreeMap<String, SessionEntry> {
    let mut catalog = BTreeMap::new();
    for member in fleet::member_dirs(dir) {
        let id = member
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("spool")
            .to_string();
        let Ok(segments) = spool::list_segment_files(&member) else {
            continue;
        };
        let mut crc = Crc32::new();
        let mut len = 0u64;
        for (_, path) in &segments {
            // A segment that fails to read adds nothing, not a part.
            let mut next = crc;
            if let Ok(n) =
                spool::open_segment(path).and_then(|(mut file, _)| next.update_from(&mut file))
            {
                (crc, len) = (next, len + n);
            }
        }
        let crc = crc.finish();
        catalog.insert(
            id,
            SessionEntry {
                dir: member,
                bytes: len,
                segments: segments.len(),
                crc,
                etag: format!("\"{crc:08x}-{len:x}\""),
            },
        );
    }
    catalog
}

/// Debounced background catalog refresh; also drops profile memos whose
/// session content changed so memory stays bounded by live sessions.
fn rescan_loop(state: &QueryState, stop: &AtomicBool) {
    let interval = Duration::from_millis(state.config.rescan_ms.max(1));
    let mut last = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(20));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        let fresh = scan_catalog(&state.config.dir);
        let live: Vec<String> = fresh
            .iter()
            .map(|(id, e)| format!("{id} {}", e.etag))
            .collect();
        *state.catalog.write().unwrap_or_else(|e| e.into_inner()) = fresh;
        state
            .profiles
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|k, _| live.iter().any(|l| l == k));
        state.metrics.rescan.inc();
    }
}

/// Route one request; counts it and records per-endpoint latency.
fn handle(state: &QueryState, req: &Request) -> Response {
    state.metrics.requests.inc();
    state.served.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let (response, latency) = route(state, req);
    if let Some(h) = latency {
        h.record_duration(started.elapsed());
    }
    response
}

fn route<'a>(state: &'a QueryState, req: &Request) -> (Response, Option<&'a Histogram>) {
    let m = &state.metrics;
    match req.path.as_str() {
        "/api/v1/health" => (health(state), Some(&m.lat_health)),
        "/api/v1/sessions" => (sessions(state), Some(&m.lat_sessions)),
        "/api/v1/fleet" => (fleet_doc(state), Some(&m.lat_fleet)),
        path => match path
            .strip_prefix("/api/v1/sessions/")
            .and_then(|rest| rest.split_once('/'))
        {
            Some((id, "profile")) => (session_profile(state, req, id), Some(&m.lat_profile)),
            Some((id, "hotspots")) => (session_hotspots(state, req, id), Some(&m.lat_hotspots)),
            _ => (Response::text(404, "not found\n"), None),
        },
    }
}

fn health(state: &QueryState) -> Response {
    let sessions = state
        .catalog
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .len();
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("v").int(DTO_VERSION.into());
    w.key("status").str("ok");
    w.key("sessions").int(sessions as u64);
    w.key("jobs").int(state.config.jobs as u64);
    w.end_object();
    Response::json(w.finish())
}

fn sessions(state: &QueryState) -> Response {
    let catalog = state.catalog.read().unwrap_or_else(|e| e.into_inner());
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("v").int(DTO_VERSION.into());
    w.key("session_count").int(catalog.len() as u64);
    w.key("sessions").begin_array();
    for (id, e) in catalog.iter() {
        w.begin_object();
        w.key("id").str(id);
        w.key("bytes").int(e.bytes);
        w.key("segments").int(e.segments as u64);
        w.key("etag").str(e.etag.trim_matches('"'));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Response::json(w.finish())
}

fn fleet_doc(state: &QueryState) -> Response {
    let fleet = FleetState::from_collected_dir(&state.config.dir, fleet::DEFAULT_STALE_AFTER);
    Response::json(fleet.to_json())
}

fn session_profile(state: &QueryState, req: &Request, id: &str) -> Response {
    let Some(entry) = lookup_session(state, id) else {
        return Response::text(404, "unknown session\n");
    };
    if revalidates(req, &entry) {
        state.metrics.not_modified.inc();
        return Response::not_modified(&entry.etag);
    }
    match rendered(state, id, &entry, "api-profile-v1", |profile| {
        ProfileDto::from_profile(profile).to_json()
    }) {
        Ok(body) => Response::json(body).with_header("ETag", &entry.etag),
        Err(e) => Response::text(500, format!("analysis failed: {e}\n")),
    }
}

fn session_hotspots(state: &QueryState, req: &Request, id: &str) -> Response {
    let Some(entry) = lookup_session(state, id) else {
        return Response::text(404, "unknown session\n");
    };
    let top = match req.query_param("top").map(str::parse::<usize>) {
        None => DEFAULT_TOP,
        Some(Ok(n)) if n > 0 => n,
        _ => return Response::text(400, "top wants a positive integer\n"),
    };
    let sort = match req.query_param("sort") {
        None => "temp",
        Some(s @ ("temp" | "time")) => s,
        Some(_) => return Response::text(400, "sort wants temp or time\n"),
    };
    if revalidates(req, &entry) {
        state.metrics.not_modified.inc();
        return Response::not_modified(&entry.etag);
    }
    let session = id.to_string();
    let sort_owned = sort.to_string();
    let format = format!("api-hotspots-v1-top{top}-sort{sort}");
    match rendered(state, id, &entry, &format, move |profile| {
        let mut spots = analysis::hotspots(profile, usize::MAX);
        if sort_owned == "time" {
            spots.sort_by(|a, b| b.inclusive_secs.total_cmp(&a.inclusive_secs));
        }
        spots.truncate(top);
        HotspotsDto::from_hotspots(&session, &sort_owned, top, &spots).to_json()
    }) {
        Ok(body) => Response::json(body).with_header("ETag", &entry.etag),
        Err(e) => Response::text(500, format!("analysis failed: {e}\n")),
    }
}

fn lookup_session(state: &QueryState, id: &str) -> Option<SessionEntry> {
    state
        .catalog
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .cloned()
}

/// Does the request's `If-None-Match` match the session's current ETag?
fn revalidates(req: &Request, entry: &SessionEntry) -> bool {
    req.header("if-none-match")
        .is_some_and(|v| v.trim() == entry.etag || v.trim() == entry.etag.trim_matches('"'))
}

/// The serving core: cached render of one session document.
///
/// Disk-cache lookup by content identity (`CacheKey::from_content` over
/// the catalogued CRC + length — no byte re-read), then the in-memory
/// profile memo, then the full recover + analyze path. A limited result
/// (deadline or budget hit) is served but never cached.
fn rendered<F>(
    state: &QueryState,
    id: &str,
    entry: &SessionEntry,
    format: &str,
    render: F,
) -> Result<String, String>
where
    F: FnOnce(&NodeProfile) -> String,
{
    let request = analysis_request(state);
    let key = CacheKey::from_content(entry.crc, entry.bytes, request.options(), format);
    if let Some(cache) = &state.cache {
        if let Some(text) = cache.lookup(&key) {
            return Ok(text);
        }
    }
    let profile = session_profile_for(state, id, entry)?;
    let body = render(&profile);
    if let Some(cache) = &state.cache {
        if !profile.quality.was_limited() {
            let _ = cache.store(&key, &body);
        }
    }
    Ok(body)
}

fn analysis_request(state: &QueryState) -> AnalysisRequest {
    let mut request = AnalysisRequest::new().recover(true);
    if let Some(d) = state.config.deadline {
        request = request.deadline(Some(Instant::now() + d));
    }
    request
}

/// The analyzed profile for a session at a specific content version,
/// memoized in memory so every document variant shares one analysis. A
/// limited profile is partial because of this request's deadline, not
/// because of the session's bytes, so it is never memoized.
fn session_profile_for(
    state: &QueryState,
    id: &str,
    entry: &SessionEntry,
) -> Result<Arc<NodeProfile>, String> {
    let memo_key = format!("{id} {}", entry.etag);
    if let Some(p) = state
        .profiles
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(&memo_key)
    {
        return Ok(Arc::clone(p));
    }
    let (trace, report) = spool::recover(&entry.dir).map_err(|e| format!("{e:?}"))?;
    let profile = analysis_request(state)
        .analyze_salvaged(&trace, Some(&report.salvage))
        .map_err(|e| format!("{e:?}"))?;
    let profile = Arc::new(profile);
    if !profile.quality.was_limited() {
        state
            .profiles
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(memo_key, Arc::clone(&profile));
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::spool::{SpoolConfig, SpoolWriter};
    use tempest_probe::{Event, FunctionId, NodeMeta, ThreadId};

    #[test]
    fn limited_answers_are_never_cached() {
        // A deadline that has passed before the first request: the answer
        // is served, labelled limited, and neither the in-memory memo nor
        // the disk cache keeps it for the next request at this ETag.
        let root =
            std::env::temp_dir().join(format!("tempest-query-limited-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let sessions = root.join("sessions");
        let config = SpoolConfig::new(sessions.join("alpha")).telemetry_interval(None);
        let mut w = SpoolWriter::create(&config, NodeMeta::anonymous()).unwrap();
        let batch: Vec<Event> = (0..20u64)
            .flat_map(|i| {
                [
                    Event::enter(i * 1_000, ThreadId(0), FunctionId(0)),
                    Event::exit(i * 1_000 + 900, ThreadId(0), FunctionId(0)),
                ]
            })
            .collect();
        w.append_batch(&batch).unwrap();
        w.finish(&[], 0, 0).unwrap();

        let cache_dir = root.join("cache");
        let server = QueryServer::start(QueryConfig {
            dir: sessions,
            cache_dir: Some(cache_dir.clone()),
            deadline: Some(Duration::ZERO),
            ..QueryConfig::default()
        })
        .unwrap();
        let body =
            http::http_get(&server.addr().to_string(), "/api/v1/sessions/alpha/profile").unwrap();
        assert!(body.contains("\"limited\":true"), "{body}");
        let memos = server
            .state
            .profiles
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        server.join();
        assert_eq!(memos, 0, "a limited profile is never memoized");
        assert_eq!(AnalysisCache::audit(&cache_dir).unwrap().entries, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
