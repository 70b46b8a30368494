//! Criterion: the figures perfbench does not report.
//!
//! perfbench (`BENCHMARK.json`) times decode, timeline, correlate,
//! profile, render, the caches and serve, end to end and layer by layer,
//! and `json_check bench` gates it in ci.sh. This suite keeps, ungated,
//! what perfbench leaves out: trace encode and the text dump; the 4-node
//! fan-out at `--jobs 1` and `--jobs 4`; the `--jobs 1` pipeline with the
//! metrics registry on and off; and a loopback ship with telemetry on and
//! off. Inputs come from [`TraceGenerator`], so sizes are exact and runs
//! are reproducible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::path::Path;
use tempest_collect::{Collector, CollectorConfig};
use tempest_core::{AnalysisRequest, Engine};
use tempest_probe::ship::{self, RetryPolicy, ShipConfig};
use tempest_probe::spool::{FsyncPolicy, SpoolConfig, SpoolWriter};
use tempest_probe::{Event, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
use tempest_probe::{TraceGenerator, TraceSpec};
use tempest_sensors::SensorId;

fn bench_perf_pipeline(c: &mut Criterion) {
    let spec = TraceSpec {
        seed: 42,
        events: 100_000,
        duration_ns: 60 * 1_000_000_000,
        sample_interval_ns: 1_000_000, // 1 kHz: dense sample stream
        ..Default::default()
    };
    let trace = TraceGenerator::new(spec).generate(0);

    let mut g = c.benchmark_group("perf_pipeline");
    g.throughput(Throughput::Elements(trace.events.len() as u64));
    g.bench_function("encode_100k_events", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            scratch.clear();
            black_box(&trace).encode_into(&mut scratch);
            black_box(scratch.len())
        });
    });
    g.bench_function("text_dump_100k_events", |b| {
        b.iter(|| black_box(&trace).to_text());
    });
    g.finish();

    // Multi-node fan-out: 4 nodes through the engine at 1 vs 4 workers,
    // then at 1 worker with the metrics registry recording and not.
    let dir = std::env::temp_dir().join(format!("tempest-bench-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cluster_spec = TraceSpec {
        events: 25_000,
        ..spec
    };
    let gen = TraceGenerator::new(cluster_spec);
    let paths: Vec<String> = (0..4)
        .map(|n| {
            let p = dir.join(format!("node{n}.trace"));
            gen.generate(n).save(&p).unwrap();
            p.to_str().unwrap().to_string()
        })
        .collect();
    let analyze = |engine: &Engine| {
        let results = AnalysisRequest::new()
            .analyze_on(engine, black_box(&paths))
            .profiles;
        assert!(results.iter().all(Result::is_ok));
        results.len()
    };
    let mut g = c.benchmark_group("cluster_fanout");
    g.throughput(Throughput::Elements(4));
    for jobs in [1usize, 4] {
        let engine = Engine::new(jobs);
        g.bench_function(format!("analyze_4_nodes_jobs{jobs}"), |b| {
            b.iter(|| analyze(&engine));
        });
    }
    let registry = tempest_obs::global();
    let was_enabled = registry.is_enabled();
    let engine = Engine::new(1);
    for on in [true, false] {
        registry.set_enabled(on);
        let label = if on { "on" } else { "off" };
        g.bench_function(format!("analyze_4_nodes_jobs1_registry_{label}"), |b| {
            b.iter(|| analyze(&engine));
        });
    }
    registry.set_enabled(was_enabled);
    g.finish();
    bench_ship_telemetry(c, &dir);
    std::fs::remove_dir_all(&dir).ok();
}

/// A loopback ship of a small multi-segment spool with telemetry
/// (METRICS frames) on and off. The registry records in both, so the
/// pair isolates encoding and shipping the snapshots.
fn bench_ship_telemetry(c: &mut Criterion, dir: &Path) {
    let registry = tempest_obs::global();
    let was_enabled = registry.is_enabled();
    registry.set_enabled(true);
    let src = dir.join("ship-src");
    let funcs = [FunctionDef {
        id: FunctionId(0),
        name: "work".into(),
        address: 0x40_0000,
        kind: ScopeKind::Function,
    }];
    let config = SpoolConfig::new(&src)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(16 * 1024);
    let mut w = SpoolWriter::create(&config, NodeMeta::anonymous()).unwrap();
    for i in 0..400u64 {
        let t = i * 10_000;
        w.append_batch(&[
            Event::enter(t, ThreadId(0), FunctionId(0)),
            Event::sample(t + 1_000, SensorId(0), 40.0 + (i % 20) as f64),
            Event::exit(t + 9_000, ThreadId(0), FunctionId(0)),
        ])
        .unwrap();
        if w.should_rotate() {
            w.rotate(&funcs).unwrap();
        }
    }
    w.finish(&funcs, 0, 0).unwrap();

    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(dir.join("ship-out")))
        .expect("bind a loopback collector");
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());
    let addr = handle.addr().to_string();
    let mut g = c.benchmark_group("ship");
    g.sample_size(10);
    let mut sessions = 0u64;
    for telemetry in [true, false] {
        let label = if telemetry { "on" } else { "off" };
        g.bench_function(format!("loopback_telemetry_{label}"), |b| {
            b.iter_batched(
                || {
                    // A fresh session and no resume cursor: every frame ships.
                    std::fs::remove_file(src.join("ship.cursor")).ok();
                    let mut config = ShipConfig::new(&src, addr.clone());
                    sessions += 1;
                    config.session = format!("bench-{sessions}");
                    config.retry = RetryPolicy {
                        max_failures: 10,
                        base_ms: 1,
                        cap_ms: 5,
                        seed: 0xBE2C,
                    };
                    config.telemetry = telemetry;
                    config
                },
                |config| {
                    let report = ship::ship(&config).expect("loopback ship");
                    assert!(report.complete && !report.degraded, "{report:?}");
                },
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();
    handle.shutdown();
    server.join().unwrap().unwrap();
    registry.set_enabled(was_enabled);
}

criterion_group!(benches, bench_perf_pipeline);
criterion_main!(benches);
