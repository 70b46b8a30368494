//! Adversarial network-collection suite: ships sessions through the
//! seeded chaos proxy (delays, connection resets, byte truncation, bit
//! flips) and asserts the exactly-once contract holds regardless:
//!
//! * zero acked frames lost — the collected trace equals the source;
//! * zero frames duplicated — recovery reports `frames_deduped == 0`
//!   (duplicates are acked without ever being written);
//! * the collector-side analysis renders byte-identical to analyzing
//!   the source spool locally.
//!
//! I/O-heavy and timing-dependent, so like the crash-torture suite it
//! only runs when `TEMPEST_CHAOS=1` (ci.sh sets it on every run). All
//! randomness flows from `TEMPEST_CHAOS_SEED` (default fixed); ports are
//! always ephemeral and synchronization is protocol completion, never a
//! wall-clock sleep.

use std::path::{Path, PathBuf};
use tempest_collect::{ChaosConfig, ChaosProxy, Collector, CollectorConfig};
use tempest_core::report::render_stdout;
use tempest_core::AnalysisRequest;
use tempest_probe::ship::{self, RetryPolicy, ShipConfig};
use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolWriter};
use tempest_probe::trace::SensorMeta;
use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
use tempest_sensors::{SensorId, SensorKind};

fn chaos_enabled() -> bool {
    std::env::var("TEMPEST_CHAOS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn base_seed() -> u64 {
    std::env::var("TEMPEST_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xBAD_CAB1E)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempest-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn build_spool(dir: &Path, node_id: u32, batches: u64) {
    let config = SpoolConfig::new(dir)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(4096);
    let node = NodeMeta {
        node_id,
        hostname: format!("chaos{node_id}"),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    };
    let functions: Vec<FunctionDef> = (0..4)
        .map(|i| FunctionDef {
            id: FunctionId(i),
            name: format!("hot_{i}"),
            address: 0x40_0000 + 16 * i as u64,
            kind: ScopeKind::Function,
        })
        .collect();
    let mut w = SpoolWriter::create(&config, node).unwrap();
    for i in 0..batches {
        let t = i * 10_000;
        let f = FunctionId((i % 4) as u32);
        w.append_batch(&[
            Event::enter(t, ThreadId(0), f),
            Event::sample(t + 500, SensorId(0), 45.0 + (i % 30) as f64),
            Event::exit(t + 9_000, ThreadId(0), f),
        ])
        .unwrap();
        if w.should_rotate() {
            w.rotate(&functions).unwrap();
        }
    }
    w.finish(&functions, 0, 0).unwrap();
}

fn analysis_of(dir: &Path) -> (tempest_probe::Trace, String) {
    let (trace, _) = spool::recover(dir).unwrap();
    let profile = AnalysisRequest::new().analyze_trace(&trace).unwrap();
    (trace, render_stdout(&profile))
}

/// One scenario: ship a 50-batch session through the proxy, then verify
/// the exactly-once contract. Returns faults injected by the proxy.
fn run_scenario(name: &str, chaos: ChaosConfig, scenario_seed: u64) -> u64 {
    let src = temp_dir(&format!("src-{name}"));
    let out = temp_dir(&format!("out-{name}"));
    build_spool(&src, 1, 50);

    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(&out)).unwrap();
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());
    let proxy = ChaosProxy::start(handle.addr(), chaos).unwrap();

    let mut sc = ShipConfig::new(&src, proxy.addr().to_string());
    sc.session = name.to_string();
    sc.retry = RetryPolicy {
        max_failures: 100,
        base_ms: 1,
        cap_ms: 10,
        seed: scenario_seed,
    };
    let report = ship::ship(&sc).unwrap();
    let faults = proxy.faults_injected();
    proxy.stop();

    // The proxy's worst case is a degraded shipper (budget exhausted
    // with the collector itself healthy). The run must still converge
    // once the path clears: ship the remainder directly and assert the
    // chaotic prefix caused neither loss nor duplication.
    let report = if report.complete {
        report
    } else {
        eprintln!("scenario {name}: degraded under chaos ({report:?}); finishing direct");
        let mut direct = sc.clone();
        direct.addr = handle.addr().to_string();
        ship::ship(&direct).unwrap()
    };
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(
        report.complete,
        "scenario {name}: session never completed: {report:?}"
    );

    let (src_trace, src_text) = analysis_of(&src);
    let collected = out.join(format!("{name}-node1"));
    let (dst_trace, dst_text) = analysis_of(&collected);
    assert_eq!(
        src_trace, dst_trace,
        "scenario {name}: collected trace lost or mutated frames"
    );
    assert_eq!(
        src_text, dst_text,
        "scenario {name}: analysis not byte-identical"
    );
    let (_, rec) = spool::recover(&collected).unwrap();
    assert!(rec.clean_shutdown, "scenario {name}: footer missing");
    assert_eq!(
        rec.frames_deduped, 0,
        "scenario {name}: a duplicate frame reached the collector's disk"
    );
    assert_eq!(
        rec.frames_discarded, 0,
        "scenario {name}: corrupt bytes reached the collector's disk"
    );

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
    faults
}

#[test]
fn chaos_proxy_cannot_break_exactly_once_collection() {
    if !chaos_enabled() {
        eprintln!("chaos suite skipped (set TEMPEST_CHAOS=1 to run)");
        return;
    }
    let seed = base_seed();
    let scenarios: Vec<(&str, ChaosConfig)> = vec![
        (
            "resets",
            ChaosConfig {
                reset_per_10k: 400,
                ..ChaosConfig::passthrough(seed)
            },
        ),
        (
            "truncation",
            ChaosConfig {
                truncate_per_10k: 400,
                ..ChaosConfig::passthrough(seed.wrapping_add(1))
            },
        ),
        (
            "bitflips",
            ChaosConfig {
                flip_per_10k: 300,
                ..ChaosConfig::passthrough(seed.wrapping_add(2))
            },
        ),
        (
            "kitchen-sink",
            ChaosConfig {
                seed: seed.wrapping_add(3),
                delay_ms_max: 2,
                reset_per_10k: 150,
                truncate_per_10k: 150,
                flip_per_10k: 150,
            },
        ),
    ];
    let mut faults_total = 0;
    for (i, (name, chaos)) in scenarios.into_iter().enumerate() {
        faults_total += run_scenario(name, chaos, seed.wrapping_add(100 + i as u64));
    }
    assert!(
        faults_total > 0,
        "the chaos schedules never injected a single fault — dials too low"
    );
}

/// Degradation path under chaos: a collector that stays down past the
/// retry budget must leave the shipper degraded (not erroring) and the
/// local spool fully analyzable.
#[test]
fn chaos_collector_down_leaves_local_spool_usable() {
    if !chaos_enabled() {
        eprintln!("chaos suite skipped (set TEMPEST_CHAOS=1 to run)");
        return;
    }
    let src = temp_dir("src-down");
    build_spool(&src, 2, 20);
    // Learn a free port, then close it: connects will be refused.
    let free = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = free.local_addr().unwrap();
    drop(free);

    let mut sc = ShipConfig::new(&src, addr.to_string());
    sc.retry = RetryPolicy {
        max_failures: 3,
        base_ms: 1,
        cap_ms: 4,
        seed: base_seed(),
    };
    let report = ship::ship(&sc).unwrap();
    assert!(report.degraded);
    assert!(!report.complete);
    assert_eq!(report.frames_acked, 0);
    assert!(report.backoff_ms > 0, "degradation must have backed off");

    // The run is still usable locally — the whole point of degrading.
    let (trace, rec) = spool::recover(&src).unwrap();
    assert!(rec.clean_shutdown);
    assert_eq!(trace.events.len(), 40);
    assert!(AnalysisRequest::new().analyze_trace(&trace).is_ok());
    std::fs::remove_dir_all(&src).ok();
}
