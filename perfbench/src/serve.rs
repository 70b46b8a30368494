//! The `serve` workload: the query daemon under a closed loop of two
//! keep-alive clients.
//!
//! Sessions are collected during set-up through the capture path (spool
//! writer → ship → collector). An in-process `QueryServer` serves them
//! with 2 workers, the disk cache on and rescan off. The loop is closed
//! because the daemon's callers (dashboards, fleet scripts) wait for each
//! reply. After warm-up the analysis kernels do almost nothing, so the
//! workload isolates per-request transport, the cache lookup by the
//! catalogued content hash, and DTO rendering.

use crate::capture::{batch_time, ship_to, start_collector, stop_collector};
use crate::inputs::{request_mix, serve_sessions, Query, SORTS, TOPS};
use crate::metrics::{hist_delta, Outcome};
use crate::spans::Spans;
use crate::stats::{median, tail, RequestLog};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tempest_collect::{HttpClient, QueryConfig, QueryServer};
use tempest_core::cache::{AnalysisCache, CacheKey};
use tempest_core::dto::{HotspotsDto, ProfileDto};
use tempest_core::{analysis, AnalysisRequest, NodeProfile};
use tempest_probe::spool::{self, SpoolConfig, SpoolWriter};
use tempest_probe::{Event, Trace};

/// Clients in the closed loop (the machine has 2 CPUs).
const CLIENTS: u64 = 2;
/// The daemon closes a keep-alive connection after this many requests
/// (`HttpConfig::default().max_requests_per_conn`); clients reconnect
/// before it does rather than count the close as a dropped connection.
const REQUESTS_PER_CONN: usize = 64;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 9;
/// An ETag no session has.
const STALE_ETAG: &str = "\"00000000-0\"";
/// Span names of the request kinds; a kind is its index here, as the
/// client logs tag it.
const SPAN_NAMES: [&str; 3] = ["http.hotspots", "http.profile", "http.revalidate"];
/// Requests per second one client's log has room for, over the whole
/// run. Five times the rate the daemon reached with `TCP_NODELAY` on its
/// socket (about 19k req/s for two clients on a 2-vCPU VM). Should a
/// log fill, every client stops and the run measures the shorter load.
const MAX_RPS_PER_CLIENT: f64 = 50_000.0;

/// One served session: id, and the bodies the daemon must answer with.
struct Session {
    id: String,
    dir: PathBuf,
    profile: NodeProfile,
    etag: String,
}

fn profile_path(id: &str) -> String {
    format!("/api/v1/sessions/{id}/profile")
}

fn hotspots_path(id: &str, top: usize, sort: &str) -> String {
    format!("/api/v1/sessions/{id}/hotspots?top={top}&sort={sort}")
}

/// The hotspots document exactly as the daemon's handler renders it.
fn hotspots_body(id: &str, profile: &NodeProfile, top: usize, sort: &str) -> String {
    let mut spots = analysis::hotspots(profile, usize::MAX);
    if sort == "time" {
        spots.sort_by(|a, b| b.inclusive_secs.total_cmp(&a.inclusive_secs));
    }
    spots.truncate(top);
    HotspotsDto::from_hotspots(id, sort, top, &spots).to_json()
}

/// Write `trace` through the spool writer (default config) into `dir`.
fn spool_trace(trace: &Trace, dir: &Path) -> std::io::Result<()> {
    let mut w = SpoolWriter::create(&SpoolConfig::new(dir), trace.node.clone())?;
    let samples: Vec<Event> = trace
        .samples
        .iter()
        .map(|s| Event::sample(s.timestamp_ns, s.sensor, s.temperature.celsius()))
        .collect();
    for batch in trace.events.chunks(4096).chain(samples.chunks(4096)) {
        w.append_batch(batch)?;
        if w.should_rotate() {
            w.rotate(&trace.functions)?;
        }
    }
    w.finish(&trace.functions, 0, 0).map(drop)
}

/// Collect the seeded sessions and analyze each one in process, as the
/// expected answers. Returns the sessions and the recover time.
fn collect_sessions(work: &Path, seed: u64, out: &mut Outcome) -> (PathBuf, Vec<Session>, f64) {
    let coll = start_collector(work.join("collected"));
    let addr = coll.handle.addr().to_string();
    let traces = serve_sessions(seed);
    for (i, t) in traces.iter().enumerate() {
        let src = work.join(format!("src-{i}"));
        spool_trace(t, &src).expect("write session spool");
        let report = ship_to(&src, &addr, &format!("serve{i}"));
        out.check(
            report.as_ref().is_ok_and(|r| r.complete && !r.degraded),
            || format!("session {i}: ship failed: {report:?}"),
        );
    }
    let dir = coll.out.clone();
    stop_collector(coll);
    let mut recover_s = 0.0;
    let sessions = traces
        .iter()
        .map(|t| {
            let id = format!("serve{}-node{}", t.node.node_id, t.node.node_id);
            let sdir = dir.join(&id);
            let start = Instant::now();
            let (trace, rep) = out
                .spans
                .time("spool.recover", || spool::recover(&sdir))
                .expect("recover session");
            recover_s += start.elapsed().as_secs_f64();
            let profile = AnalysisRequest::new()
                .recover(true)
                .analyze_salvaged(&trace, Some(&rep.salvage))
                .expect("analyze session");
            Session {
                id,
                dir: sdir,
                profile,
                etag: String::new(),
            }
        })
        .collect();
    (dir, sessions, recover_s)
}

/// Start the daemon and ask each session once: `(server, scan_s, setup_s)`,
/// where `setup_s` covers the scan and the first answers.
fn set_up(
    dir: &Path,
    cache_dir: PathBuf,
    sessions: &mut [Session],
    out: &mut Outcome,
) -> (QueryServer, f64, f64) {
    let t = Instant::now();
    let server = out.spans.time("query.start", || {
        QueryServer::start(QueryConfig {
            dir: dir.to_path_buf(),
            jobs: 2,
            cache_dir: Some(cache_dir),
            rescan_ms: 0,
            ..QueryConfig::default()
        })
    });
    let server = server.expect("query daemon starts");
    let scan_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let first = out.spans.open("query.first_touch");
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect to daemon");
    for s in sessions.iter_mut() {
        let got = client.get(&profile_path(&s.id), &[]);
        let expected = ProfileDto::from_profile(&s.profile).to_json();
        match got {
            Ok((200, headers, body)) => {
                out.check(body == expected, || {
                    format!("{}: first profile differs from the in-process one", s.id)
                });
                s.etag = headers
                    .iter()
                    .find(|(k, _)| k == "etag")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
            }
            other => out.check(false, || {
                format!("{}: first profile request: {other:?}", s.id)
            }),
        }
    }
    out.spans.close(first);
    (server, scan_s, t1.elapsed().as_secs_f64() + scan_s)
}

/// What one client saw.
struct ClientResult {
    log: RequestLog,
    connects: u64,
    check_failures: u64,
    messages: Vec<String>,
    spans: Spans,
    /// When the client's last request ended.
    ended: Instant,
}

/// One closed-loop client: its seeded mix, until `deadline`, until
/// another client's log fills (`stop`) or until its own `log` does.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    c: u64,
    seed: u64,
    addr: &str,
    sessions: &[Session],
    expected: &BTreeMap<String, String>,
    deadline: Instant,
    stop: &AtomicBool,
    log: RequestLog,
    spans: Spans,
) -> ClientResult {
    let mix = request_mix(seed, c, 4096);
    let mut r = ClientResult {
        log,
        connects: 0,
        check_failures: 0,
        messages: Vec::new(),
        spans,
        ended: Instant::now(),
    };
    let mut client: Option<HttpClient> = None;
    let mut on_conn = 0;
    let mut i = 0;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        if r.log.is_full() {
            stop.store(true, Ordering::Relaxed);
            break;
        }
        let q = &mix[i % mix.len()];
        i += 1;
        let (path, etag, kind) = match q {
            Query::Hotspots { session, top, sort } => {
                let s = &sessions[*session as usize];
                (hotspots_path(&s.id, *top, sort), None, 0)
            }
            Query::Profile { session } => (profile_path(&sessions[*session as usize].id), None, 1),
            Query::Revalidate { session } => {
                let s = &sessions[*session as usize];
                (profile_path(&s.id), Some(s.etag.as_str()), 2)
            }
        };
        if on_conn == REQUESTS_PER_CONN {
            client = None;
        }
        if client.is_none() {
            on_conn = 0;
            r.connects += 1;
            match HttpClient::connect(addr) {
                Ok(cl) => client = Some(cl),
                Err(_) => {
                    r.log.transport_error(kind);
                    continue;
                }
            }
        }
        let cl = client.as_mut().expect("connected above");
        let headers: Vec<(&str, &str)> = etag.map(|e| ("If-None-Match", e)).into_iter().collect();
        let t = Instant::now();
        let got = cl.get(&path, &headers);
        let dt = t.elapsed();
        on_conn += 1;
        r.spans.record(SPAN_NAMES[kind as usize], t, dt);
        let (status, body) = match got {
            Ok((status, _, body)) => (status, body),
            Err(_) => {
                r.log.transport_error(kind);
                client = None;
                continue;
            }
        };
        r.log.answered(kind, status, dt.as_secs_f64());
        let want_304 = etag.is_some();
        let ok = match status {
            304 => want_304,
            200 => !want_304 && expected.get(&path).is_some_and(|e| *e == body),
            _ => true, // already counted as a failed request
        };
        if !ok {
            r.check_failures += 1;
            if r.messages.len() < 5 {
                r.messages.push(format!(
                    "client {c}: {path} (etag {etag:?}) answered {status} with an unexpected body"
                ));
            }
        }
    }
    r.ended = Instant::now();
    r
}

pub fn run(work: &Path, seed: u64, seconds: f64, out: &mut Outcome) {
    let (dir, mut sessions, recover_s) = collect_sessions(work, seed, out);
    let mut expected = BTreeMap::new();
    for s in &sessions {
        expected.insert(
            profile_path(&s.id),
            ProfileDto::from_profile(&s.profile).to_json(),
        );
        for top in TOPS {
            for sort in SORTS {
                expected.insert(
                    hotspots_path(&s.id, top, sort),
                    hotspots_body(&s.id, &s.profile, top, sort),
                );
            }
        }
    }

    // ---- set-up. The first daemon takes the load; more are started and
    // stopped on fresh caches so the median set-up has `SETUPS` samples.
    let (server, scan_s, setup_s) = set_up(&dir, work.join("cache-0"), &mut sessions, out);
    let (mut setups, mut scans, mut firsts) = (vec![setup_s], vec![scan_s], vec![setup_s - scan_s]);
    let addr = server.addr().to_string();

    // ---- warm-up: every distinct URL once, checked.
    let mut warm = HttpClient::connect(&addr).expect("connect to daemon");
    for (n, (path, body)) in expected.iter().enumerate() {
        if n > 0 && n % REQUESTS_PER_CONN == 0 {
            warm = HttpClient::connect(&addr).expect("reconnect to daemon");
        }
        let got = warm.get(path, &[]);
        out.check(matches!(&got, Ok((200, _, b)) if b == body), || {
            format!("warm-up {path}: {got:?}")
        });
    }
    // A stale ETag gets the full answer; the current one gets a 304 in the
    // load below.
    for s in &sessions {
        let path = profile_path(&s.id);
        let got = warm.get(&path, &[("If-None-Match", STALE_ETAG)]);
        out.check(
            matches!(&got, Ok((200, _, b)) if Some(b) == expected.get(&path)),
            || format!("{path} with a stale ETag: {got:?}"),
        );
    }
    drop(warm);
    for k in 1..SETUPS {
        let (extra, scan_s, setup_s) =
            set_up(&dir, work.join(format!("cache-{k}")), &mut sessions, out);
        extra.join();
        setups.push(setup_s);
        scans.push(scan_s);
        firsts.push(setup_s - scan_s);
    }

    // ---- the closed loop. The client logs are sized before the first
    // heap window, and their bytes are left out of every heap figure.
    let capacity = (seconds * MAX_RPS_PER_CLIENT).ceil() as usize;
    let logs: Vec<RequestLog> = (0..CLIENTS)
        .map(|_| RequestLog::with_capacity(capacity))
        .collect();
    let logs_mb = logs.iter().map(RequestLog::reserved_bytes).sum::<usize>() as f64 / crate::MB;
    let stop = AtomicBool::new(false);
    let obs = tempest_obs::global();
    let snap0 = obs.snapshot();
    let counter0 = |n: &str| snap0.counter(n).unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut heap = Vec::new();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .zip(logs)
            .map(|(c, log)| {
                let (addr, sessions, expected, stop) = (&addr, &sessions, &expected, &stop);
                let spans = out.spans.for_thread(c as u32 + 1);
                scope.spawn(move || {
                    client_loop(
                        c, seed, addr, sessions, expected, deadline, stop, log, spans,
                    )
                })
            })
            .collect();
        // The heap peak of each second of load.
        loop {
            crate::reset_peak_heap();
            let left = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_secs(1)));
            heap.push(crate::peak_heap_mb() - logs_mb);
            if Instant::now() >= deadline || stop.load(Ordering::Relaxed) {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = results
        .iter()
        .map(|r| r.ended.duration_since(t0).as_secs_f64())
        .fold(0.0, f64::max);
    let snap1 = obs.snapshot();
    let counter = |n: &str| snap1.counter(n).unwrap_or(0) - counter0(n);

    let mut log = RequestLog::default();
    let mut connects = 0;
    for mut r in results {
        connects += r.connects;
        out.failed_ops += r.check_failures;
        for m in r.messages.drain(..) {
            out.check(false, || m);
        }
        if r.check_failures > 5 {
            out.check(false, || {
                format!("{} more unexpected answers", r.check_failures - 5)
            });
        }
        out.spans.absorb(r.spans);
        log.merge(r.log);
    }
    out.attempted += log.attempted();
    out.failed_ops += log.failed();

    let answered = log.ok + log.not_modified;
    let latencies = log.latencies();
    let p50 = tail(&latencies, 0.5).map_or(f64::NAN, |v| v * 1e3);
    let p99 = tail(&latencies, 0.99);
    out.e2e.setup_s = out.name_median(
        "serve",
        "setup_s",
        &setups,
        "s",
        "QueryServer::start + first answer per session",
    );
    out.e2e.throughput_per_s = answered as f64 / wall;
    out.e2e.answer_p50_ms = p50;
    let w = "serve";
    let n = latencies.len();
    if stop.load(Ordering::Relaxed) {
        out.named.push(format!(
            "note serve: a client log filled ({capacity} requests); the load stopped after {wall:.3} s"
        ));
    }
    out.name(
        w,
        "serve_p50_ms",
        p50,
        "ms",
        &format!("{n} requests, {CLIENTS} closed-loop clients"),
    );
    match &p99 {
        Ok(v) => out.name(
            w,
            "serve_p99_ms",
            v * 1e3,
            "ms",
            &format!(
                "{n} samples, {} beyond it",
                n - (0.99 * n as f64).ceil() as usize
            ),
        ),
        Err(e) => out
            .named
            .push(format!("metric serve serve_p99_ms not reported: {e:?}")),
    }
    out.memory(w, &heap, "second of load");
    out.name(
        w,
        "serve_rps",
        out.e2e.throughput_per_s,
        "req/s",
        &format!("{answered} answered 200/304 in {wall:.3} s"),
    );

    if out.traced() {
        let us = |v: &[f64]| median(v) * 1e6;
        let hist_us = |name: &str| {
            snap1.histogram(name).map_or(0.0, |h| {
                hist_delta(h, snap0.histogram(name)).quantile(0.5) as f64 / 1e3
            })
        };
        let (hits, misses) = (counter("cache_hits_total"), counter("cache_misses_total"));
        let layers = [
            ("http.requests", log.attempted() as f64),
            ("http.status_200", log.ok as f64),
            ("http.status_304", log.not_modified as f64),
            ("http.errors", log.failed() as f64),
            ("http.connects", connects as f64),
            ("http.hotspots_p50_us", us(&log.latencies_of(0))),
            ("http.profile_p50_us", us(&log.latencies_of(1))),
            ("http.revalidate_p50_us", us(&log.latencies_of(2))),
            (
                "query.hotspots_p50_us",
                hist_us("serve_latency_hotspots_ns"),
            ),
            ("query.profile_p50_us", hist_us("serve_latency_profile_ns")),
            (
                "query.not_modified",
                counter("serve_not_modified_total") as f64,
            ),
            ("query.catalog_scan_s", median(&scans)),
            ("query.first_touch_s", median(&firsts)),
            (
                "cache.serve_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("spool.recover_s", recover_s),
        ];
        for (name, v) in layers {
            out.layer(name, v);
        }
        replay_layers(&sessions, &expected, work, out);
        out.notes.push(
            "query.*_p50_us are the upper bounds of the log2 buckets of the serve_latency_*_ns \
             histograms that hold the median"
                .to_string(),
        );
    }
    drop(sessions);
    server.join();
}

/// Cache lookups, DTO renders and the catalog CRC, replayed from outside
/// on the served sessions.
fn replay_layers(
    sessions: &[Session],
    expected: &BTreeMap<String, String>,
    work: &Path,
    out: &mut Outcome,
) {
    let cache = AnalysisCache::open(&work.join("cache-0")).expect("open serve cache");
    let options = AnalysisRequest::new().recover(true).options();
    let mut keys = Vec::new();
    let mut all_bytes = Vec::new();
    for s in sessions {
        let mut bytes = Vec::new();
        for (_, p) in spool::list_segment_files(&s.dir).expect("list session segments") {
            bytes.extend(std::fs::read(p).expect("read segment"));
        }
        let (crc, len) = (spool::crc32(&bytes), bytes.len() as u64);
        keys.push((
            CacheKey::from_content(crc, len, options, "api-profile-v1"),
            profile_path(&s.id),
        ));
        for top in TOPS {
            for sort in SORTS {
                let format = format!("api-hotspots-v1-top{top}-sort{sort}");
                keys.push((
                    CacheKey::from_content(crc, len, options, &format),
                    hotspots_path(&s.id, top, sort),
                ));
            }
        }
        all_bytes.extend(bytes);
    }
    for (key, path) in &keys {
        let hit = cache.lookup(key);
        out.check(hit.as_ref() == expected.get(path), || {
            format!("cache entry for {path} differs from the answer")
        });
    }
    let (reps, dur, t) = batch_time(Duration::from_millis(50), || {
        for (key, _) in &keys {
            black_box(cache.lookup(key));
        }
    });
    out.spans.record("cache.lookup_batch", t, dur);
    out.layer(
        "cache.serve_lookup_us",
        dur.as_secs_f64() * 1e6 / (reps as f64 * keys.len() as f64),
    );

    let (reps, dur, t) = batch_time(Duration::from_millis(50), || {
        for s in sessions {
            black_box(ProfileDto::from_profile(&s.profile).to_json());
        }
    });
    out.spans.record("dto.profile_batch", t, dur);
    out.layer(
        "dto.profile_us",
        dur.as_secs_f64() * 1e6 / (reps as f64 * sessions.len() as f64),
    );
    let (reps, dur, t) = batch_time(Duration::from_millis(50), || {
        for s in sessions {
            let spots = analysis::hotspots(&s.profile, usize::MAX);
            black_box(
                HotspotsDto::from_hotspots(&s.id, "temp", 10, &spots[..spots.len().min(10)])
                    .to_json(),
            );
        }
    });
    out.spans.record("dto.hotspots_batch", t, dur);
    out.layer(
        "dto.hotspots_us",
        dur.as_secs_f64() * 1e6 / (reps as f64 * sessions.len() as f64),
    );

    let (reps, dur, t) = batch_time(Duration::from_millis(50), || {
        black_box(spool::crc32(black_box(&all_bytes)));
    });
    out.spans.record("spool.crc32_batch", t, dur);
    out.layer(
        "spool.crc_mb_per_s",
        all_bytes.len() as f64 * reps as f64 / 1e6 / dur.as_secs_f64(),
    );
}
