//! Observability-layer integration tests: the metrics registry under
//! thread hammering, and the Chrome trace_event export golden checks.

use std::collections::HashMap;
use std::sync::Arc;

use tempest_core::{chrome_fleet_trace_json, chrome_trace_json, Timeline};
use tempest_obs::{Json, Registry};
use tempest_probe::spool::FrameTrace;
use tempest_probe::{
    Event, EventKind, FunctionDef, FunctionId, NodeMeta, ScopeKind, SensorMeta, ThreadId, Trace,
    TraceGenerator, TraceSpec,
};
use tempest_sensors::{SensorId, SensorKind, SensorReading, Temperature};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 10_000;

/// N threads hammer the same counter, gauge, and histogram handles; the
/// totals must be exact — the registry promises lock-free-ish recording,
/// not sloppy recording.
#[test]
fn registry_concurrent_totals_are_exact() {
    let reg = Arc::new(Registry::new());
    let counter = reg.counter("hammer_total");
    let histogram = reg.histogram("hammer_value");
    let mut handles = Vec::new();
    for t in 0..THREADS as u64 {
        let counter = counter.clone();
        let histogram = histogram.clone();
        let reg = Arc::clone(&reg);
        handles.push(std::thread::spawn(move || {
            // Mix resolved-handle use with by-name re-resolution: both must
            // hit the same metric.
            let resolved_again = reg.counter("hammer_total");
            for i in 0..OPS_PER_THREAD {
                counter.inc();
                resolved_again.add(3);
                histogram.record(t * OPS_PER_THREAD + i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let expected_ops = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(counter.get(), expected_ops * 4, "1 inc + add(3) per op");
    assert_eq!(histogram.count(), expected_ops);
    let expected_sum: u64 = (0..expected_ops).sum();
    assert_eq!(histogram.sum(), expected_sum);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("hammer_total"), Some(expected_ops * 4));
    let hs = snap.histogram("hammer_value").unwrap();
    assert_eq!(
        hs.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        expected_ops
    );
}

/// Disabling the registry mid-hammer may lose an unpredictable number of
/// increments, but re-enabling must never corrupt the count: the final
/// value is bounded by what was submitted.
#[test]
fn registry_toggle_never_corrupts() {
    let reg = Arc::new(Registry::new());
    let counter = reg.counter("toggle_total");
    let flipper = {
        let reg = Arc::clone(&reg);
        std::thread::spawn(move || {
            for i in 0..100 {
                reg.set_enabled(i % 2 == 0);
                std::thread::yield_now();
            }
            reg.set_enabled(true);
        })
    };
    let mut handles = Vec::new();
    for _ in 0..4 {
        let counter = counter.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..OPS_PER_THREAD {
                counter.inc();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    flipper.join().unwrap();
    assert!(counter.get() <= 4 * OPS_PER_THREAD);
}

fn generated_trace_with_gaps() -> tempest_probe::Trace {
    let spec = TraceSpec {
        seed: 11,
        events: 6_000,
        threads: 4,
        sensors: 3,
        ..TraceSpec::default()
    };
    let mut trace = TraceGenerator::new(spec).generate(2);
    // Inject sensor gaps (quarantine markers) so the instant-event path is
    // exercised; keep the event stream time-sorted.
    let mid = trace.events[trace.events.len() / 2].timestamp_ns;
    trace.events.push(Event::gap(mid, SensorId(0)));
    trace.events.push(Event::gap(mid + 1, SensorId(1)));
    trace
        .events
        .sort_by_key(|e| (e.timestamp_ns, e.thread.0, e.is_scope_event()));
    trace
}

/// Golden-file shape test for the Chrome export: valid JSON, the right
/// event phases, monotonically non-decreasing `ts` per thread, and event
/// counts that round-trip exactly.
#[test]
fn chrome_trace_export_golden() {
    let trace = generated_trace_with_gaps();
    let doc = chrome_trace_json(&trace);
    let parsed = Json::parse(&doc).expect("chrome-trace export must be valid JSON");

    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let phase = |e: &Json| e.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for e in events {
        *counts.entry(phase(e)).or_insert(0) += 1;
    }

    // Round-trip: every timeline interval is one "X", every sample one
    // "C", every gap one "i".
    let timeline = Timeline::build(&trace.events);
    assert_eq!(counts.get("X"), Some(&timeline.intervals.len()));
    assert_eq!(counts.get("C"), Some(&trace.samples.len()));
    let gaps = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Gap { .. }))
        .count();
    assert_eq!(counts.get("i"), Some(&gaps));
    assert!(
        counts.get("M").copied().unwrap_or(0) >= 2,
        "metadata events"
    );

    // Monotonically non-decreasing ts within every thread's duration track.
    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    for e in events.iter().filter(|e| phase(e) == "X") {
        let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap() as i64;
        let ts = e.get("ts").and_then(|t| t.as_f64()).unwrap();
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(
                ts >= prev,
                "ts must be non-decreasing within tid {tid}: {prev} then {ts}"
            );
        }
        last_ts.insert(tid, ts);
        assert!(e.get("dur").is_some());
        assert!(e.get("name").is_some());
    }

    // Counter tracks carry numeric temperatures.
    for e in events.iter().filter(|e| phase(e) == "C") {
        let celsius = e
            .get("args")
            .and_then(|a| a.get("celsius"))
            .and_then(|c| c.as_f64())
            .expect("counter events carry args.celsius");
        assert!(celsius.is_finite());
    }
}

/// Drive the real pipeline — spool (with telemetry) → ship → collect →
/// recover → analyze (stages) → result cache — against the global
/// registry, then lint every name it registered: Prometheus exposition
/// charset, unique across metric kinds, and spelled out in the
/// DESIGN.md §9 inventory. The name set is closed, not emergent; adding
/// a metric means adding its inventory row.
#[test]
fn metric_names_are_valid_and_inventoried() {
    use std::collections::BTreeSet;
    use tempest_collect::{Collector, CollectorConfig};
    use tempest_core::{AnalysisOptions, AnalysisRequest};
    use tempest_probe::ship::{self, RetryPolicy, ShipConfig};
    use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolWriter};
    use tempest_probe::trace::SensorMeta;
    use tempest_probe::{FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
    use tempest_sensors::SensorKind;

    let src = std::env::temp_dir().join(format!("tempest-lint-src-{}", std::process::id()));
    let out = std::env::temp_dir().join(format!("tempest-lint-out-{}", std::process::id()));
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();

    let node = NodeMeta {
        node_id: 12,
        hostname: "lint.host".into(),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    };
    let funcs = vec![FunctionDef {
        id: FunctionId(0),
        name: "work".into(),
        address: 0x1000,
        kind: ScopeKind::Function,
    }];
    let mut w =
        SpoolWriter::create(&SpoolConfig::new(&src).fsync(FsyncPolicy::PerBatch), node).unwrap();
    for i in 0..20u64 {
        w.append_batch(&[
            Event::enter(i * 10_000, ThreadId(0), FunctionId(0)),
            Event::sample(i * 10_000 + 1_000, SensorId(0), 42.0),
            Event::exit(i * 10_000 + 9_000, ThreadId(0), FunctionId(0)),
        ])
        .unwrap();
    }
    w.finish(&funcs, 0, 0).unwrap();

    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(&out)).unwrap();
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());
    let mut sc = ShipConfig::new(&src, handle.addr().to_string());
    sc.session = "lint".into();
    sc.retry = RetryPolicy {
        max_failures: 10,
        base_ms: 1,
        cap_ms: 5,
        seed: 1,
    };
    assert!(ship::ship(&sc).unwrap().complete);
    handle.shutdown();
    server.join().unwrap().unwrap();

    let (trace, _) = spool::recover(&out.join("lint-node12")).unwrap();
    let profile = AnalysisRequest::new().analyze_trace(&trace).unwrap();
    let cache_dir = out.join("cache");
    let cache = tempest_core::AnalysisCache::open(&cache_dir).unwrap();
    let key =
        tempest_core::cache::CacheKey::new(&trace.to_bytes(), AnalysisOptions::default(), "lint");
    assert!(cache.lookup(&key).is_none());
    cache
        .store(&key, &tempest_core::report::render_stdout(&profile))
        .unwrap();
    assert!(cache.lookup(&key).is_some());

    let snap = tempest_obs::global().snapshot();
    let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    let gauges: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
    let histograms: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
    // The run must actually have exercised every major family, or the
    // lint below is vacuous.
    for expected in [
        "spool_frames_total",
        "spool_telemetry_frames_total",
        "ship_frames_acked_total",
        "ship_telemetry_sent_total",
        "collect_frames_total",
        "collect_telemetry_total",
        "cache_hits_total",
    ] {
        assert!(counters.contains(&expected), "{expected} not registered");
    }
    assert!(histograms.contains(&"collect_frame_latency_ns"));
    assert!(histograms.contains(&"stage_timeline_ns"));

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md must be readable from the workspace root");
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for name in counters.iter().chain(&gauges).chain(&histograms) {
        // Prometheus exposition charset, lowercase by convention here.
        assert!(
            name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "metric name `{name}` breaks the exposition charset"
        );
        // A name must mean one thing: no counter/gauge/histogram aliasing.
        assert!(seen.insert(name), "metric name `{name}` used by two kinds");
        // Inventoried in DESIGN.md §9, with per-node digit runs
        // normalised to their {id} placeholder.
        let normalized = name
            .split('_')
            .map(|part| {
                if !part.is_empty() && part.chars().all(|c| c.is_ascii_digit()) {
                    "{id}".to_string()
                } else {
                    part.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("_");
        assert!(
            design.contains(&format!("`{name}`")) || design.contains(&format!("`{normalized}`")),
            "metric `{name}` is missing from the DESIGN.md §9 inventory"
        );
    }

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

/// The export must stay loadable after a decode round-trip (what the CLI
/// actually exports is a decoded file, not an in-memory trace).
#[test]
fn chrome_trace_export_survives_trace_io() {
    let trace = generated_trace_with_gaps();
    let bytes = trace.to_bytes();
    let decoded = tempest_probe::Trace::decode(&bytes).unwrap();
    let a = chrome_trace_json(&trace);
    let b = chrome_trace_json(&decoded);
    assert_eq!(a, b, "export must be deterministic across encode/decode");
}

/// A trace small enough to pin byte for byte: two threads, a nested
/// call, a call still open when the trace ends (a truncated interval),
/// one sensor gap, and samples from a labelled and an unlabelled sensor.
fn tiny_trace() -> Trace {
    let (main, work) = (FunctionId(0), FunctionId(1));
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    let def = |id: FunctionId, name: &str| FunctionDef {
        id,
        name: name.into(),
        address: 0x1000 + u64::from(id.0) * 0x10,
        kind: ScopeKind::Function,
    };
    Trace {
        node: NodeMeta {
            node_id: 3,
            hostname: "rack \"7\"".into(),
            sensors: vec![SensorMeta {
                id: SensorId(0),
                label: "die".into(),
                kind: SensorKind::CpuCore,
            }],
        },
        functions: vec![def(main, "main"), def(work, "work<\"T\">")],
        events: vec![
            Event::enter(0, t0, main),
            Event::enter(1_500, t1, work),
            Event::enter(2_000, t0, work),
            Event::exit(4_000, t0, work),
            Event::gap(5_000, SensorId(0)),
            Event::exit(1_000_000_123, t0, main),
        ],
        samples: vec![
            SensorReading::new(SensorId(0), 2_500, Temperature::from_celsius(41.25)),
            SensorReading::new(SensorId(1), 4_000_001, Temperature::from_celsius(38.0)),
        ],
    }
}

/// The Chrome export of [`tiny_trace`], byte for byte.
#[test]
fn chrome_trace_bytes_are_pinned() {
    let doc = chrome_trace_json(&tiny_trace());
    let expected = [
        r#"{"#,
        r#""displayTimeUnit": "ms","#,
        r#""otherData": {"tool": "tempest"},"#,
        r#""traceEvents": ["#,
        r#"{"name":"process_name","ph":"M","pid":3,"args":{"name":"tempest node 3 (rack \"7\")"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"thread 0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"thread 1"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":3,"tid":4294967295,"args":{"name":"tempd"}},"#,
        r#"{"name":"main","cat":"function","ph":"X","ts":0.000,"dur":1000000.123,"pid":3,"tid":0,"args":{"depth":0}},"#,
        r#"{"name":"work<\"T\">","cat":"function","ph":"X","ts":1.500,"dur":999998.623,"pid":3,"tid":1,"args":{"depth":0,"truncated":true}},"#,
        r#"{"name":"work<\"T\">","cat":"function","ph":"X","ts":2.000,"dur":2.000,"pid":3,"tid":0,"args":{"depth":1}},"#,
        r#"{"name":"temp die","ph":"C","pid":3,"tid":0,"ts":2.500,"args":{"celsius":41.250}},"#,
        r#"{"name":"temp sensor#1","ph":"C","pid":3,"tid":0,"ts":4000.001,"args":{"celsius":38.000}},"#,
        r#"{"name":"gap die","ph":"i","s":"t","pid":3,"tid":4294967295,"ts":5.000}"#,
        r#"]}"#,
    ]
    .join("\n");
    assert_eq!(doc, expected + "\n");
}

/// The fleet frame-latency export, byte for byte: unix-epoch stamps
/// survive exactly, a clock-skewed frame is drawn with zero duration,
/// and a node without frames still gets its process and track names.
#[test]
fn chrome_fleet_trace_bytes_are_pinned() {
    let frame = |seg, off, origin_unix_ns, collect_unix_ns| FrameTrace {
        seg,
        off,
        origin_unix_ns,
        collect_unix_ns,
    };
    let nodes = vec![
        (
            "run \"a\"-node0".to_string(),
            vec![
                frame(1, 90, 1_700_000_000_002_000_000, 1_700_000_000_001_900_000),
                frame(0, 40, 1_700_000_000_001_000_000, 1_700_000_000_001_250_123),
            ],
        ),
        ("run-node1".to_string(), Vec::new()),
    ];
    let doc = chrome_fleet_trace_json(&nodes);
    let expected = [
        r#"{"#,
        r#""displayTimeUnit": "ms","#,
        r#""otherData": {"tool": "tempest", "view": "fleet frame latency"},"#,
        r#""traceEvents": ["#,
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"run \"a\"-node0"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"ship→collect"}},"#,
        r#"{"name":"frame seg0 off40","cat":"ship","ph":"X","ts":0.000,"dur":250.123,"pid":0,"tid":0,"args":{"origin_unix_ns":1700000000001000000,"collect_unix_ns":1700000000001250123,"transit_ns":250123}},"#,
        r#"{"name":"frame seg1 off90","cat":"ship","ph":"X","ts":1000.000,"dur":0.000,"pid":0,"tid":0,"args":{"origin_unix_ns":1700000000002000000,"collect_unix_ns":1700000000001900000,"transit_ns":0}},"#,
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"run-node1"}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"ship→collect"}}"#,
        r#"]}"#,
    ]
    .join("\n");
    assert_eq!(doc, expected + "\n");
}
