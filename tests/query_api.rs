//! Loopback tests for the `tempest serve` query daemon and its v1 API:
//! golden schema pins for every `/api/v1/*` document, keep-alive /
//! ETag / `304 Not Modified` round-trips, byte-identical answers under
//! concurrent clients, cache-hit reuse on repeat questions, and 429
//! shedding under a rate limit.
//!
//! Every test binds an ephemeral port (`127.0.0.1:0`) and talks to the
//! daemon over a real TCP connection through [`HttpClient`], so the
//! HTTP/1.1 framing layer is exercised end to end.

use std::path::PathBuf;
use tempest_collect::{HttpClient, QueryConfig, QueryServer};
use tempest_obs::Json;
use tempest_probe::spool::{self, SpoolConfig, SpoolWriter};
use tempest_probe::trace::SensorMeta;
use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
use tempest_sensors::{SensorId, SensorKind};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempest-queryapi-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write one sealed session spool under `parent/<name>` with a couple of
/// functions and enough samples for a meaningful hot-spot ranking.
fn write_session(parent: &std::path::Path, name: &str) -> PathBuf {
    let dir = parent.join(name);
    let cfg = SpoolConfig::new(&dir);
    let node = NodeMeta {
        node_id: 7,
        hostname: "query.loop".into(),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    };
    let mut w = SpoolWriter::create(&cfg, node).unwrap();
    let mut batch = Vec::new();
    for i in 0..50u64 {
        let t = i * 1_000_000;
        let f = FunctionId((i % 2) as u32);
        batch.push(Event::enter(t, ThreadId(0), f));
        batch.push(Event::sample(
            t + 1_000,
            SensorId(0),
            40.0 + (i % 25) as f64,
        ));
        batch.push(Event::exit(t + 900_000, ThreadId(0), f));
    }
    w.append_batch(&batch).unwrap();
    let funcs = vec![
        FunctionDef {
            id: FunctionId(0),
            name: "hot_loop".into(),
            address: 0x40_0000,
            kind: ScopeKind::Function,
        },
        FunctionDef {
            id: FunctionId(1),
            name: "cool_loop".into(),
            address: 0x40_0010,
            kind: ScopeKind::Function,
        },
    ];
    w.finish(&funcs, 0, 0).unwrap();
    dir
}

fn start(config: QueryConfig) -> QueryServer {
    QueryServer::start(config).expect("query daemon starts")
}

fn obj_keys(doc: &str) -> Vec<String> {
    match Json::parse(doc).expect("document parses as JSON") {
        Json::Obj(map) => map.keys().cloned().collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

/// Every v1 document's top-level key set is pinned: adding a key is
/// backward-compatible (new fields), removing or renaming one is the
/// breaking change this test exists to catch.
#[test]
fn v1_schemas_are_pinned() {
    let parent = temp_dir("schema");
    write_session(&parent, "alpha");
    let server = start(QueryConfig {
        dir: parent.clone(),
        ..Default::default()
    });
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, _, body) = client.get("/api/v1/health", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(obj_keys(&body), ["jobs", "sessions", "status", "v"]);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("v").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));

    let (status, _, body) = client.get("/api/v1/sessions", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(obj_keys(&body), ["session_count", "sessions", "v"]);
    let sessions = Json::parse(&body).unwrap();
    let list = sessions.get("sessions").and_then(|s| s.as_arr()).unwrap();
    assert_eq!(list.len(), 1);
    match &list[0] {
        Json::Obj(map) => {
            let keys: Vec<&str> = map.keys().map(String::as_str).collect();
            assert_eq!(keys, ["bytes", "etag", "id", "segments"]);
        }
        other => panic!("session entry must be an object, got {other:?}"),
    }

    let (status, _, body) = client.get("/api/v1/sessions/alpha/profile", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        obj_keys(&body),
        [
            "functions",
            "hostname",
            "node_id",
            "quality",
            "sample_interval_ns",
            "span_s",
            "unattributed_samples",
            "v"
        ]
    );

    let (status, _, body) = client
        .get("/api/v1/sessions/alpha/hotspots?top=2&sort=time", &[])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(obj_keys(&body), ["session", "sort", "spots", "top", "v"]);
    let hot = Json::parse(&body).unwrap();
    assert_eq!(hot.get("sort").and_then(|s| s.as_str()), Some("time"));
    let spots = hot.get("spots").and_then(|s| s.as_arr()).unwrap();
    assert!(!spots.is_empty() && spots.len() <= 2, "{body}");

    let (status, _, body) = client.get("/api/v1/fleet", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        obj_keys(&body),
        [
            "generated_unix_ns",
            "node_count",
            "nodes",
            "stale_after_ms",
            "v"
        ]
    );

    // Unknown paths and sessions are 404s; bad query parameters are 400s.
    let (status, _, _) = client.get("/api/v2/health", &[]).unwrap();
    assert_eq!(status, 404);
    let (status, _, _) = client.get("/api/v1/sessions/ghost/profile", &[]).unwrap();
    assert_eq!(status, 404);
    let (status, _, _) = client
        .get("/api/v1/sessions/alpha/hotspots?top=zero", &[])
        .unwrap();
    assert_eq!(status, 400);
    let (status, _, _) = client
        .get("/api/v1/sessions/alpha/hotspots?sort=alphabetical", &[])
        .unwrap();
    assert_eq!(status, 400);

    server.join();
    std::fs::remove_dir_all(&parent).ok();
}

/// The health and sessions answers, byte for byte. The catalog facts
/// (segment count, byte total, content CRC) are derived here from the
/// spool on disk, independently of the daemon's catalog scan.
#[test]
fn health_and_sessions_bodies_are_exact() {
    let parent = temp_dir("exact");
    let dir = write_session(&parent, "alpha");
    let server = start(QueryConfig {
        dir: parent.clone(),
        jobs: 3,
        ..Default::default()
    });
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();

    let (status, _, body) = client.get("/api/v1/health", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body,
        "{\"v\":1,\"status\":\"ok\",\"sessions\":1,\"jobs\":3}\n"
    );

    let segments = spool::list_segment_files(&dir).unwrap();
    let mut bytes = Vec::new();
    for (_, path) in &segments {
        bytes.extend(std::fs::read(path).unwrap());
    }
    let etag = format!("{:08x}-{:x}", spool::crc32(&bytes), bytes.len());
    let (status, _, body) = client.get("/api/v1/sessions", &[]).unwrap();
    assert_eq!(status, 200);
    let expected = format!(
        "{{\"v\":1,\"session_count\":1,\"sessions\":[{{\"id\":\"alpha\",\"bytes\":{},\"segments\":{},\"etag\":\"{etag}\"}}]}}\n",
        bytes.len(),
        segments.len(),
    );
    assert_eq!(body, expected);
    server.join();

    // An empty catalog still answers a complete document.
    let empty = temp_dir("exact-empty");
    let server = start(QueryConfig {
        dir: empty.clone(),
        ..Default::default()
    });
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    let (_, _, body) = client.get("/api/v1/sessions", &[]).unwrap();
    assert_eq!(body, "{\"v\":1,\"session_count\":0,\"sessions\":[]}\n");
    server.join();
    std::fs::remove_dir_all(&parent).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// The catalog checksums a session one segment at a time; the ETag it
/// serves is still the CRC-32 of every segment, back to back in cursor
/// order.
#[test]
fn multi_segment_etag_is_the_crc_of_the_concatenated_segments() {
    let parent = temp_dir("segments");
    let dir = parent.join("multi");
    let config = SpoolConfig::new(&dir).segment_bytes(4096);
    let mut w = SpoolWriter::create(&config, NodeMeta::anonymous()).unwrap();
    for b in 0..8u64 {
        let batch: Vec<Event> = (0..100u64)
            .flat_map(|i| {
                let t = (b * 100 + i) * 1_000;
                [
                    Event::enter(t, ThreadId(0), FunctionId(0)),
                    Event::exit(t + 900, ThreadId(0), FunctionId(0)),
                ]
            })
            .collect();
        w.append_batch(&batch).unwrap();
        if w.should_rotate() {
            w.rotate(&[]).unwrap();
        }
    }
    w.finish(&[], 0, 0).unwrap();
    let segments = spool::list_segment_files(&dir).unwrap();
    assert!(segments.len() >= 3, "{} segments", segments.len());
    let mut bytes = Vec::new();
    for (_, path) in &segments {
        bytes.extend(std::fs::read(path).unwrap());
    }
    let etag = format!("\"{:08x}-{:x}\"", spool::crc32(&bytes), bytes.len());

    let server = start(QueryConfig {
        dir: parent.clone(),
        ..Default::default()
    });
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    let (status, headers, _) = client.get("/api/v1/sessions/multi/profile", &[]).unwrap();
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|(n, v)| n == "etag" && *v == etag),
        "{headers:?} should carry {etag}"
    );
    server.join();
    std::fs::remove_dir_all(&parent).ok();
}

/// One connection, many requests: the daemon holds the line open, every
/// analysis answer carries a spool-CRC ETag, and presenting that ETag
/// back yields an empty-bodied `304 Not Modified`.
#[test]
fn keep_alive_etag_and_304_roundtrip() {
    let parent = temp_dir("etag");
    write_session(&parent, "alpha");
    let server = start(QueryConfig {
        dir: parent.clone(),
        ..Default::default()
    });
    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).unwrap();

    let (status, headers, first) = client.get("/api/v1/sessions/alpha/profile", &[]).unwrap();
    assert_eq!(status, 200);
    let etag = headers
        .iter()
        .find(|(n, _)| n == "etag")
        .map(|(_, v)| v.clone())
        .expect("profile answers carry an ETag");
    assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");

    // Same connection, same question: identical bytes.
    let (status, _, second) = client.get("/api/v1/sessions/alpha/profile", &[]).unwrap();
    assert_eq!(status, 200);
    assert_eq!(first, second, "repeat answers must be byte-identical");

    // Conditional revalidation: matching ETag short-circuits to 304.
    let before = served_counter("serve_not_modified_total");
    let (status, headers, body) = client
        .get(
            "/api/v1/sessions/alpha/profile",
            &[("If-None-Match", &etag)],
        )
        .unwrap();
    assert_eq!(status, 304);
    assert!(body.is_empty(), "304 must carry no body");
    assert!(
        headers.iter().any(|(n, v)| n == "etag" && *v == etag),
        "304 repeats the entity tag"
    );
    assert!(served_counter("serve_not_modified_total") > before);

    // A non-matching tag gets the full answer again.
    let (status, _, body) = client
        .get(
            "/api/v1/sessions/alpha/profile",
            &[("If-None-Match", "\"deadbeef-0\"")],
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, first);

    assert_eq!(server.served(), 4);
    server.join();
    std::fs::remove_dir_all(&parent).ok();
}

fn served_counter(name: &str) -> u64 {
    tempest_obs::global().counter(name).get()
}

/// The load smoke from the acceptance bar: 8 concurrent keep-alive
/// clients asking the same hot-spot question under `--jobs 4` all get
/// byte-identical bodies, and a second pass over the same question is
/// served from the analysis cache (hit counter strictly grows).
#[test]
fn concurrent_clients_get_identical_cached_answers() {
    let parent = temp_dir("load");
    write_session(&parent, "alpha");
    write_session(&parent, "beta");
    let cache_dir = parent.join("cache");
    let server = start(QueryConfig {
        dir: parent.clone(),
        jobs: 4,
        cache_dir: Some(cache_dir.clone()),
        ..Default::default()
    });
    let addr = server.addr().to_string();

    let ask = |addr: String| -> Vec<String> {
        let mut client = HttpClient::connect(&addr).unwrap();
        (0..4)
            .map(|i| {
                let session = if i % 2 == 0 { "alpha" } else { "beta" };
                let (status, _, body) = client
                    .get(
                        &format!("/api/v1/sessions/{session}/hotspots?top=5&sort=temp"),
                        &[],
                    )
                    .unwrap();
                assert_eq!(status, 200);
                format!("{session}:{body}")
            })
            .collect()
    };

    let first_pass: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || ask(addr))
        })
        .collect();
    let mut bodies: Vec<Vec<String>> = first_pass.into_iter().map(|t| t.join().unwrap()).collect();
    let reference = bodies.pop().unwrap();
    for body in &bodies {
        assert_eq!(
            body, &reference,
            "every client must see byte-identical answers"
        );
    }

    // Second pass: every answer is already in the render cache.
    let hits_before = served_counter("cache_hits_total");
    let again = ask(addr);
    assert_eq!(again, reference);
    assert!(
        served_counter("cache_hits_total") > hits_before,
        "repeat questions must be served from the analysis cache"
    );

    server.join();
    std::fs::remove_dir_all(&parent).ok();
}

/// An overloaded daemon answers `429 Too Many Requests` promptly instead
/// of stalling the connection: with a 2 req/s budget, a 40-request burst
/// finishes fast and sees both outcomes.
#[test]
fn rate_limited_daemon_sheds_429_rather_than_stalls() {
    let parent = temp_dir("shed");
    write_session(&parent, "alpha");
    let server = start(QueryConfig {
        dir: parent.clone(),
        rate_limit: std::num::NonZeroU32::new(2),
        ..Default::default()
    });
    let addr = server.addr().to_string();
    let shed_before = served_counter("serve_shed_total");

    let started = std::time::Instant::now();
    let mut ok = 0u32;
    let mut shed = 0u32;
    let mut client = HttpClient::connect(&addr).unwrap();
    for _ in 0..40 {
        let (status, _, _) = client.get("/api/v1/health", &[]).unwrap();
        match status {
            200 => ok += 1,
            429 => shed += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "the token bucket admits an initial burst");
    assert!(shed >= 1, "past the budget the daemon sheds");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "shedding must not stall the client"
    );
    assert!(served_counter("serve_shed_total") > shed_before);

    server.join();
    std::fs::remove_dir_all(&parent).ok();
}

/// A session that appears after startup is picked up by the background
/// re-scan without a restart, and the catalog answer reflects it.
#[test]
fn background_rescan_discovers_new_sessions() {
    let parent = temp_dir("rescan");
    write_session(&parent, "alpha");
    let server = start(QueryConfig {
        dir: parent.clone(),
        rescan_ms: 50,
        ..Default::default()
    });
    assert_eq!(server.session_count(), 1);

    write_session(&parent, "beta");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.session_count() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "re-scan never discovered the new session"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let addr = server.addr().to_string();
    let mut client = HttpClient::connect(&addr).unwrap();
    let (status, _, body) = client.get("/api/v1/sessions", &[]).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"id\":\"beta\""), "{body}");

    server.join();
    std::fs::remove_dir_all(&parent).ok();
}
