//! End-to-end tests for the fleet observability plane: shipped
//! telemetry → collector fleet aggregation → HTTP surfaces → cross-node
//! frame tracing → flight recorder.
//!
//! The acceptance bar for telemetry is *exactness*: after a clean
//! session (final METRICS sent right before BYE, with every data frame
//! already acked), the collector's fleet view of a node must carry
//! byte-for-byte the same counter totals as that node's local registry.
//!
//! Like `ship_collect.rs`, every test binds ephemeral ports and
//! synchronizes on protocol completion, never wall-clock sleeps.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tempest_collect::{
    http_get, serve_metrics, Collector, CollectorConfig, CollectorHandle, FleetState,
};
use tempest_obs::{Json, Registry, Telemetry};
use tempest_probe::ship::{self, RetryPolicy, ShipConfig};
use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolWriter, FLIGHT_DUMP_NAME};
use tempest_probe::trace::SensorMeta;
use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
use tempest_sensors::{SensorId, SensorKind};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempest-fleettest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn node(node_id: u32) -> NodeMeta {
    NodeMeta {
        node_id,
        hostname: format!("node{node_id}.fleet"),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    }
}

fn functions() -> Vec<FunctionDef> {
    vec![FunctionDef {
        id: FunctionId(0),
        name: "work".into(),
        address: 0x40_0000,
        kind: ScopeKind::Function,
    }]
}

fn batch(i: u64) -> Vec<Event> {
    let t = i * 10_000;
    vec![
        Event::enter(t, ThreadId(0), FunctionId(0)),
        Event::sample(t + 1_000, SensorId(0), 40.0 + (i % 20) as f64),
        Event::exit(t + 9_000, ThreadId(0), FunctionId(0)),
    ]
}

fn build_spool(dir: &Path, node_id: u32, batches: u64) {
    let config = SpoolConfig::new(dir)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(4096);
    let mut w = SpoolWriter::create(&config, node(node_id)).unwrap();
    for i in 0..batches {
        w.append_batch(&batch(i)).unwrap();
        if w.should_rotate() {
            w.rotate(&functions()).unwrap();
        }
    }
    w.finish(&functions(), 0, 0).unwrap();
}

fn start_collector(
    out: &Path,
) -> (
    CollectorHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(out)).unwrap();
    let handle = collector.handle().unwrap();
    let thread = std::thread::spawn(move || collector.run());
    (handle, thread)
}

fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_failures: 10,
        base_ms: 1,
        cap_ms: 5,
        seed: 0xF1EE7,
    }
}

/// Ship `dir` with its own private registry so per-node fleet totals
/// stay distinguishable inside one test process.
fn ship_with_registry(dir: &Path, addr: &str, session: &str) -> (ship::ShipReport, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let mut config = ShipConfig::new(dir, addr.to_string());
    config.session = session.to_string();
    config.retry = quick_retries();
    config.registry = Some(registry.clone());
    let report = ship::ship(&config).unwrap();
    (report, registry)
}

/// Minimal Prometheus exposition lint: every non-empty line is either a
/// comment or `name[{labels}] value` with a parseable float value.
fn assert_prometheus_parses(text: &str) {
    assert!(!text.trim().is_empty(), "empty exposition");
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value on line: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value on line: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name on line: {line}"
        );
    }
}

#[test]
fn two_shippers_fleet_view_matches_local_registries_exactly() {
    let out = temp_dir("two-out");
    let src1 = temp_dir("two-src1");
    let src2 = temp_dir("two-src2");
    build_spool(&src1, 1, 30);
    build_spool(&src2, 2, 45);

    let (handle, server) = start_collector(&out);
    let addr = handle.addr().to_string();

    // The HTTP surface serves the same live fleet state the collector
    // aggregates into.
    let stop = Arc::new(AtomicBool::new(false));
    let metrics_server = serve_metrics("127.0.0.1:0", handle.fleet(), stop.clone()).unwrap();
    let http_addr = metrics_server.addr().to_string();

    // Two concurrent shippers, one session, distinct node ids.
    let (a1, a2) = (addr.clone(), addr.clone());
    let (s1, s2) = (src1.clone(), src2.clone());
    let t1 = std::thread::spawn(move || ship_with_registry(&s1, &a1, "fleet"));
    let t2 = std::thread::spawn(move || ship_with_registry(&s2, &a2, "fleet"));
    let (report1, reg1) = t1.join().unwrap();
    let (report2, reg2) = t2.join().unwrap();
    assert!(report1.complete && report2.complete);
    assert!(report1.telemetry_sent >= 2, "handshake + pre-BYE snapshots");

    // Exactness: the final pre-BYE snapshot is taken after the last
    // counter increment of the run, so the fleet copy and the local
    // registry must agree on every counter, not approximately.
    let fleet = handle.fleet();
    assert_eq!(fleet.len(), 2);
    for (record, local) in [("fleet-node1", &reg1), ("fleet-node2", &reg2)] {
        let nodes = fleet.nodes();
        let node = nodes
            .iter()
            .find(|n| n.key == record)
            .unwrap_or_else(|| panic!("{record} missing from fleet view"));
        assert_eq!(
            node.telemetry.snapshot.counters,
            local.snapshot().counters,
            "{record}: fleet counters diverge from the local registry"
        );
        assert_eq!(node.session, "fleet");
    }
    // Fleet-wide totals are the sum of the per-node registries.
    let total_acked: u64 = fleet
        .aggregate_counters()
        .into_iter()
        .find(|(name, _)| name == "ship_frames_acked_total")
        .map(|(_, v)| v)
        .unwrap();
    assert_eq!(total_acked, report1.frames_acked + report2.frames_acked);

    // /fleet.json is valid JSON carrying both nodes with full snapshots.
    let doc = http_get(&http_addr, "/fleet.json").unwrap();
    let v = Json::parse(&doc).expect("/fleet.json must parse");
    assert_eq!(v.get("node_count").and_then(|n| n.as_f64()), Some(2.0));
    let nodes = v.get("nodes").and_then(|n| n.as_arr()).unwrap();
    assert!(nodes.iter().all(|n| !n.get("metrics").unwrap().is_null()));

    // /metrics is parseable Prometheus exposition: the process registry
    // (collector counters included) plus the labelled fleet section.
    let prom = http_get(&http_addr, "/metrics").unwrap();
    assert_prometheus_parses(&prom);
    assert!(prom.contains("fleet_nodes 2"), "{prom}");
    assert!(
        prom.contains("fleet_node_counter{node=\"fleet-node1\""),
        "{prom}"
    );
    // The collector accepted telemetry and measured frame latency.
    let snap = tempest_obs::global().snapshot();
    assert!(snap.counter("collect_telemetry_total").unwrap_or(0) >= 2);
    let latency = snap
        .histogram("collect_frame_latency_ns")
        .expect("frame latency histogram must exist");
    assert!(latency.count > 0, "every DATA frame is latency-stamped");

    // Unknown paths 404 without killing the server.
    assert!(http_get(&http_addr, "/nope").is_err());
    let doc2 = http_get(&http_addr, "/fleet.json").unwrap();
    assert!(Json::parse(&doc2).is_ok());

    stop.store(true, Ordering::Relaxed);
    metrics_server.join();
    handle.shutdown();
    server.join().unwrap().unwrap();

    // The collected sessions carry the shipped telemetry and the
    // per-frame origin/collect stamps on disk.
    for key in ["fleet-node1", "fleet-node2"] {
        let (_, rep) = spool::recover(&out.join(key)).unwrap();
        assert!(rep.telemetry_frames >= 1, "{key}: spooled telemetry");
        assert!(!rep.frame_traces.is_empty(), "{key}: frame traces");
    }

    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&src1).ok();
    std::fs::remove_dir_all(&src2).ok();
}

#[test]
fn fleet_chrome_export_carries_one_track_per_node() {
    let out = temp_dir("trace-out");
    let src1 = temp_dir("trace-src1");
    let src2 = temp_dir("trace-src2");
    build_spool(&src1, 1, 12);
    build_spool(&src2, 2, 12);

    let (handle, server) = start_collector(&out);
    let addr = handle.addr().to_string();
    ship_with_registry(&src1, &addr, "trace");
    ship_with_registry(&src2, &addr, "trace");
    handle.shutdown();
    server.join().unwrap().unwrap();

    let nodes: Vec<(String, Vec<spool::FrameTrace>)> = ["trace-node1", "trace-node2"]
        .iter()
        .map(|key| {
            let (_, rep) = spool::recover(&out.join(key)).unwrap();
            assert!(!rep.frame_traces.is_empty(), "{key} has no frame traces");
            (key.to_string(), rep.frame_traces)
        })
        .collect();
    let doc = tempest_core::chrome_fleet_trace_json(&nodes);
    let v = Json::parse(&doc).expect("fleet trace must parse");
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();

    // One process per node, each with its ship→collect track.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(process_names, vec!["trace-node1", "trace-node2"]);
    let tracks = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                == Some("ship→collect")
        })
        .count();
    assert_eq!(tracks, 2);
    // Every span is a ship-category duration event with non-negative,
    // monotonically positioned timestamps.
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    let total: usize = nodes.iter().map(|(_, t)| t.len()).sum();
    assert_eq!(spans.len(), total);
    for span in &spans {
        assert_eq!(span.get("cat").and_then(|c| c.as_str()), Some("ship"));
        assert!(span.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(span.get("dur").unwrap().as_f64().unwrap() >= 0.0);
    }

    std::fs::remove_dir_all(&out).ok();
    std::fs::remove_dir_all(&src1).ok();
    std::fs::remove_dir_all(&src2).ok();
}

#[test]
fn ship_degradation_dumps_the_flight_recorder_beside_the_spool() {
    let src = temp_dir("flight-src");
    let out = temp_dir("flight-out");
    build_spool(&src, 9, 40);

    // A collector whose frame limit is far below the shipped frames:
    // every send is refused until the retry budget degrades the shipper.
    let mut cc = CollectorConfig::new(&out);
    cc.max_frame_bytes = 64;
    let collector = Collector::bind("127.0.0.1:0", cc).unwrap();
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());

    let mut sc = ShipConfig::new(&src, handle.addr().to_string());
    sc.session = "flight".into();
    sc.retry = RetryPolicy {
        max_failures: 2,
        base_ms: 1,
        cap_ms: 2,
        seed: 9,
    };
    let report = ship::ship(&sc).unwrap();
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(report.degraded);

    // Degradation dumped the black box next to the spool, as valid JSON
    // naming the reason — exactly what `tempest doctor` ingests.
    let dump = src.join(FLIGHT_DUMP_NAME);
    let text = std::fs::read_to_string(&dump).expect("flight.json must be dumped");
    let v = Json::parse(&text).expect("flight dump must parse");
    assert_eq!(
        v.get("reason").and_then(|r| r.as_str()),
        Some("ship degraded")
    );
    // The local spool stays fully recoverable after the dump.
    let (_, rep) = spool::recover(&src).unwrap();
    assert!(rep.clean_shutdown);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

/// `doc` without the whitespace between tokens: the pins below hold the
/// content of the pretty documents, not their indentation.
fn squash(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in doc.chars() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        out.push(c);
    }
    out
}

/// Replaces every number following `"key":` with `#`, for stamps taken
/// from the clock at render time.
fn mask(doc: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = doc;
    while let Some(at) = rest.find(&pattern) {
        let end = at + pattern.len();
        out.push_str(&rest[..end]);
        out.push('#');
        rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The registry's JSON snapshot: a NaN gauge becomes `null`, an
/// integral gauge loses its fraction, and an empty histogram still
/// reports every field.
#[test]
fn snapshot_json_content_is_pinned() {
    let reg = Registry::new();
    reg.counter("frames_total").add(1_700_000_000_123_456_789);
    reg.counter("a_total").inc();
    reg.gauge("nan_gauge").set(f64::NAN);
    reg.gauge("whole_gauge").set(3.0);
    reg.gauge("half_gauge").set(0.5);
    reg.histogram("empty_ns");
    let pair = reg.histogram("pair_ns");
    pair.record(10_000);
    pair.record(2_000_000);
    let mut snap = reg.snapshot();
    snap.spans.push(tempest_obs::SpanRecord {
        name: "decode \"x\"".into(),
        start_ns: 5,
        dur_ns: 6,
        thread: 1,
    });
    let expected = concat!(
        r#"{"counters":{"a_total":1,"frames_total":1700000000123456789},"#,
        r#""gauges":{"half_gauge":0.5,"nan_gauge":null,"whole_gauge":3},"#,
        r#""histograms":{"#,
        r#""empty_ns":{"count":0,"sum":0,"mean":0,"p50":0,"p95":0,"p99":0,"buckets":[]},"#,
        r#""pair_ns":{"count":2,"sum":2010000,"mean":1005000,"p50":16383,"p95":2097151,"#,
        r#""p99":2097151,"buckets":[[16383,1],[2097151,1]]}},"#,
        r#""spans":[{"name":"decode \"x\"","start_ns":5,"dur_ns":6,"thread":1}]}"#,
    );
    assert_eq!(squash(&tempest_obs::to_json(&snap)), expected);
}

/// `flight.json`: events in ring order, each with its fields object;
/// only the dump stamp comes from the clock.
#[test]
fn flight_json_content_is_pinned() {
    use tempest_obs::flight::FlightRecorder;
    use tempest_obs::{FlightEvent, FlightLevel};
    let rec = FlightRecorder::new(4);
    rec.record(FlightEvent {
        unix_ns: 1_700_000_000_123_456_789,
        level: FlightLevel::Warn,
        target: "ship".into(),
        message: "retry \"connect\"".into(),
        fields: vec![
            ("attempt".into(), "3".into()),
            ("addr".into(), "127.0.0.1:1".into()),
        ],
    });
    rec.record(FlightEvent {
        unix_ns: 1_700_000_000_223_456_789,
        level: FlightLevel::Error,
        target: "spool".into(),
        message: "no fields".into(),
        fields: Vec::new(),
    });
    let doc = squash(&rec.to_json("limit\thit"));
    let expected = concat!(
        r#"{"dumped_unix_ns":#,"reason":"limit\thit","events":["#,
        r#"{"unix_ns":1700000000123456789,"level":"warn","target":"ship","#,
        r#""message":"retry \"connect\"","fields":{"attempt":"3","addr":"127.0.0.1:1"}},"#,
        r#"{"unix_ns":1700000000223456789,"level":"error","target":"spool","#,
        r#""message":"no fields","fields":{}}]}"#,
    );
    assert_eq!(mask(&doc, "dumped_unix_ns"), expected);
}

/// The fleet document: per-node identity and bookkeeping, then the
/// node's whole snapshot under `metrics`. Receipt stamps and ages come
/// from the clock.
#[test]
fn fleet_json_content_is_pinned() {
    let fleet = FleetState::new(std::time::Duration::from_secs(3600));
    let reg = Registry::new();
    reg.counter("ship_frames_acked_total").add(5);
    reg.gauge("ship_backoff_seconds").set(0.5);
    fleet.update(
        "run-node1",
        "run",
        Telemetry {
            node_id: 1,
            hostname: "host \"1\"".into(),
            origin_unix_ns: 1_700_000_000_123_456_789,
            snapshot: reg.snapshot(),
        },
    );
    fleet.update(
        "run-node0",
        "run",
        Telemetry {
            node_id: 0,
            hostname: "host0".into(),
            origin_unix_ns: 1_700_000_000_000_000_000,
            snapshot: Default::default(),
        },
    );
    let mut doc = squash(&fleet.to_json());
    for key in ["generated_unix_ns", "received_unix_ns", "age_ms"] {
        doc = mask(&doc, key);
    }
    let expected = concat!(
        r#"{"v":1,"generated_unix_ns":#,"stale_after_ms":3600000,"node_count":2,"nodes":["#,
        r#"{"key":"run-node0","session":"run","node_id":0,"hostname":"host0","#,
        r#""origin_unix_ns":1700000000000000000,"received_unix_ns":#,"age_ms":#,"#,
        r#""stale":false,"updates":1,"#,
        r#""metrics":{"counters":{},"gauges":{},"histograms":{},"spans":[]}},"#,
        r#"{"key":"run-node1","session":"run","node_id":1,"hostname":"host \"1\"","#,
        r#""origin_unix_ns":1700000000123456789,"received_unix_ns":#,"age_ms":#,"#,
        r#""stale":false,"updates":1,"#,
        r#""metrics":{"counters":{"ship_frames_acked_total":5},"#,
        r#""gauges":{"ship_backoff_seconds":0.5},"histograms":{},"spans":[]}}]}"#,
    );
    assert_eq!(doc, expected);
}
