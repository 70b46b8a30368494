//! Loopback end-to-end tests for the network collection path:
//! spool → `tempest_probe::ship` → `tempest-collect` → `spool::recover`
//! → analyze. The acceptance bar is byte-identity: analyzing the
//! collector's copy of a session must produce exactly the same rendered
//! report as analyzing the source spool locally.
//!
//! Every test binds ephemeral ports (`127.0.0.1:0`) and synchronizes on
//! protocol completion (thread joins, `ShipReport`), never wall-clock
//! sleeps.

use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tempest_collect::{Collector, CollectorConfig, CollectorHandle};
use tempest_core::report::render_stdout;
use tempest_core::AnalysisRequest;
use tempest_obs::Registry;
use tempest_probe::limits::DecodeLimits;
use tempest_probe::ship::{self, RetryPolicy, ShipConfig};
use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolWriter};
use tempest_probe::trace::SensorMeta;
use tempest_probe::{Event, EventKind, FunctionDef, FunctionId, NodeMeta, ScopeKind, ThreadId};
use tempest_sensors::{SensorId, SensorKind};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempest-shiptest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn node(node_id: u32) -> NodeMeta {
    NodeMeta {
        node_id,
        hostname: format!("node{node_id}.loop"),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    }
}

fn functions() -> Vec<FunctionDef> {
    (0..3)
        .map(|i| FunctionDef {
            id: FunctionId(i),
            name: format!("work_{i}"),
            address: 0x40_0000 + 16 * i as u64,
            kind: ScopeKind::Function,
        })
        .collect()
}

fn batch(i: u64) -> Vec<Event> {
    let t = i * 10_000;
    let f = FunctionId((i % 3) as u32);
    vec![
        Event::enter(t, ThreadId(0), f),
        Event::sample(t + 1_000, SensorId(0), 40.0 + (i % 20) as f64),
        Event::exit(t + 9_000, ThreadId(0), f),
    ]
}

/// Write a complete spool: `batches` fsynced batches, rotating segments,
/// sealed with a footer.
fn build_spool(dir: &Path, node_id: u32, batches: u64, segment_bytes: u64) {
    let config = SpoolConfig::new(dir)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(segment_bytes);
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
    spawn_collector(CollectorConfig::new(out))
}

fn spawn_collector(
    config: CollectorConfig,
) -> (
    CollectorHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let collector = Collector::bind("127.0.0.1:0", config).unwrap();
    let handle = collector.handle().unwrap();
    let thread = std::thread::spawn(move || collector.run());
    (handle, thread)
}

fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_failures: 10,
        base_ms: 1,
        cap_ms: 5,
        seed: 0xD15C,
    }
}

fn ship_to(dir: &Path, addr: SocketAddr, session: &str) -> ship::ShipReport {
    let mut config = ShipConfig::new(dir, addr.to_string());
    config.session = session.to_string();
    config.retry = quick_retries();
    ship::ship(&config).unwrap()
}

/// Render the full analysis of a recovered spool — the byte-identity
/// comparison target.
fn analysis_of(dir: &Path) -> (tempest_probe::Trace, String) {
    let (trace, _report) = spool::recover(dir).unwrap();
    let profile = AnalysisRequest::new().analyze_trace(&trace).unwrap();
    (trace, render_stdout(&profile))
}

#[test]
fn shipped_session_is_byte_identical_to_local_analysis() {
    let src = temp_dir("e2e-src");
    let out = temp_dir("e2e-out");
    build_spool(&src, 1, 60, 4096); // several segments

    let (handle, server) = start_collector(&out);
    let report = ship_to(&src, handle.addr(), "e2e");
    handle.shutdown();
    server.join().unwrap().unwrap();

    assert!(report.complete, "footer must ship: {report:?}");
    assert!(!report.degraded);
    assert!(report.frames_acked >= 60, "one frame per batch at minimum");
    assert_eq!(report.frames_sent, report.frames_acked);

    let (src_trace, src_report) = analysis_of(&src);
    let collected = out.join("e2e-node1");
    let (dst_trace, dst_report) = analysis_of(&collected);
    assert_eq!(src_trace, dst_trace, "collected trace differs from local");
    assert_eq!(src_report, dst_report, "rendered analyses differ");

    let (_, spool_report) = spool::recover(&collected).unwrap();
    assert!(spool_report.clean_shutdown, "shipped footer marks clean");
    assert_eq!(spool_report.frames_deduped, 0, "clean run has no re-sends");

    // A deep check of the collector-written spool agrees with recovery:
    // every segment clean, and every recovered frame verified.
    let fsck = spool::fsck_dir(&collected, &DecodeLimits::strict()).unwrap();
    assert!(fsck.iter().all(|s| s.is_clean()), "{fsck:?}");
    assert_eq!(
        fsck.iter().map(|s| s.frames_ok).sum::<u64>(),
        spool_report.frames_recovered
    );

    // The persisted cursor lets a later shipper skip everything.
    let cursor = tempest_probe::ship::Cursor::load(&src).unwrap();
    assert_eq!((cursor.seg, cursor.off), report.cursor);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn reshipping_a_collected_session_duplicates_nothing() {
    let src = temp_dir("reship-src");
    let out = temp_dir("reship-out");
    build_spool(&src, 2, 20, 8192);

    let (handle, server) = start_collector(&out);
    let first = ship_to(&src, handle.addr(), "reship");
    assert!(first.complete);

    // Forget all client-side progress: the server's WELCOME cursor alone
    // must prevent duplicates.
    std::fs::remove_file(src.join(spool::SHIP_CURSOR_NAME)).unwrap();
    let second = ship_to(&src, handle.addr(), "reship");
    handle.shutdown();
    server.join().unwrap().unwrap();

    assert_eq!(second.frames_acked, 0, "nothing new to ack");
    assert_eq!(
        second.frames_skipped, first.frames_acked,
        "every frame skipped by the server's resume cursor"
    );

    let (src_trace, _) = analysis_of(&src);
    let (dst_trace, _) = analysis_of(&out.join("reship-node2"));
    assert_eq!(src_trace, dst_trace);
    let (_, spool_report) = spool::recover(&out.join("reship-node2")).unwrap();
    assert_eq!(spool_report.frames_deduped, 0, "no duplicate ever hit disk");

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn collector_restart_resumes_idempotently() {
    let src = temp_dir("resume-src");
    let out = temp_dir("resume-out");

    // First half of the session: spool without a footer yet.
    let config = SpoolConfig::new(&src)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(4096);
    let mut w = SpoolWriter::create(&config, node(3)).unwrap();
    for i in 0..30 {
        w.append_batch(&batch(i)).unwrap();
        if w.should_rotate() {
            w.rotate(&functions()).unwrap();
        }
    }

    let (handle, server) = start_collector(&out);
    let partial = ship_to(&src, handle.addr(), "resume");
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(!partial.complete, "no footer yet");
    assert!(partial.frames_acked > 0);

    // Session continues and ends while the collector is down.
    for i in 30..60 {
        w.append_batch(&batch(i)).unwrap();
        if w.should_rotate() {
            w.rotate(&functions()).unwrap();
        }
    }
    w.finish(&functions(), 0, 0).unwrap();

    // A fresh collector process on the same output directory derives the
    // resume cursor from its own segments and takes only the remainder.
    let (handle, server) = start_collector(&out);
    let rest = ship_to(&src, handle.addr(), "resume");
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(rest.complete, "second ship finishes the session: {rest:?}");
    assert_eq!(
        rest.frames_skipped, partial.frames_acked,
        "already-durable frames are skipped, not re-sent"
    );

    let (src_trace, src_report) = analysis_of(&src);
    let collected = out.join("resume-node3");
    let (dst_trace, dst_report) = analysis_of(&collected);
    assert_eq!(src_trace, dst_trace);
    assert_eq!(src_report, dst_report);
    let (_, spool_report) = spool::recover(&collected).unwrap();
    assert!(spool_report.clean_shutdown);
    assert_eq!(spool_report.frames_deduped, 0);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn three_nodes_ship_concurrently_to_one_collector() {
    let out = temp_dir("multi-out");
    let srcs: Vec<PathBuf> = (0..3u32)
        .map(|n| {
            let dir = temp_dir(&format!("multi-src{n}"));
            build_spool(&dir, n + 10, 25 + n as u64 * 7, 4096);
            dir
        })
        .collect();

    let (handle, server) = start_collector(&out);
    let addr = handle.addr();
    let shippers: Vec<_> = srcs
        .iter()
        .cloned()
        .map(|dir| std::thread::spawn(move || ship_to(&dir, addr, "cluster-run")))
        .collect();
    let reports: Vec<_> = shippers.into_iter().map(|t| t.join().unwrap()).collect();
    handle.shutdown();
    server.join().unwrap().unwrap();

    for (n, (src, report)) in srcs.iter().zip(&reports).enumerate() {
        assert!(report.complete, "node {n} incomplete: {report:?}");
        let (src_trace, src_text) = analysis_of(src);
        let collected = out.join(format!("cluster-run-node{}", n + 10));
        let (dst_trace, dst_text) = analysis_of(&collected);
        assert_eq!(src_trace, dst_trace, "node {n} trace mismatch");
        assert_eq!(src_text, dst_text, "node {n} analysis mismatch");
    }
    assert_eq!(
        handle
            .stats()
            .sessions_completed
            .load(std::sync::atomic::Ordering::Relaxed),
        3
    );

    for src in &srcs {
        std::fs::remove_dir_all(src).ok();
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn follow_mode_tails_a_live_session_to_completion() {
    let src = temp_dir("follow-src");
    let out = temp_dir("follow-out");
    let (handle, server) = start_collector(&out);
    let addr = handle.addr();

    // Start the shipper before the session even exists on disk fully:
    // it must tail segments as they appear and stop at the footer.
    let config = SpoolConfig::new(&src)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(4096);
    let mut w = SpoolWriter::create(&config, node(7)).unwrap();
    w.append_batch(&batch(0)).unwrap();

    let src_for_shipper = src.clone();
    let shipper = std::thread::spawn(move || {
        let mut config = ShipConfig::new(&src_for_shipper, addr.to_string());
        config.session = "live".into();
        config.follow = true;
        config.retry = quick_retries();
        config.poll = Duration::from_millis(5);
        ship::ship(&config).unwrap()
    });

    for i in 1..40 {
        w.append_batch(&batch(i)).unwrap();
        if w.should_rotate() {
            w.rotate(&functions()).unwrap();
        }
    }
    w.finish(&functions(), 0, 0).unwrap();

    // The shipper returns exactly when the footer is acked — protocol
    // completion is the synchronization point, not a sleep.
    let report = shipper.join().unwrap();
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(
        report.complete,
        "follow mode must end at the footer: {report:?}"
    );

    let (src_trace, src_text) = analysis_of(&src);
    let (dst_trace, dst_text) = analysis_of(&out.join("live-node7"));
    assert_eq!(src_trace, dst_trace);
    assert_eq!(src_text, dst_text);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn an_idle_follow_shipper_reads_only_what_was_appended() {
    // Caught up on a live segment, a follow shipper polls it every
    // `poll`. Each poll must go on from where the last one stopped rather
    // than walk the segment again from its first frame, skipping every
    // frame the collector already holds.
    let src = temp_dir("idle-src");
    let out = temp_dir("idle-out");
    let (handle, server) = start_collector(&out);
    let addr = handle.addr();
    let config = SpoolConfig::new(&src).fsync(FsyncPolicy::PerBatch);
    let mut w = SpoolWriter::create(&config, node(8)).unwrap();
    for i in 0..20 {
        w.append_batch(&batch(i)).unwrap();
    }
    let mut on_disk = 0;
    spool::scan_frames(&src, |_| {
        on_disk += 1;
        ControlFlow::<()>::Continue(())
    });

    let registry = Arc::new(Registry::new());
    let acked = registry.counter("ship_frames_acked_total");
    let (dir, reg) = (src.clone(), Arc::clone(&registry));
    let shipper = std::thread::spawn(move || {
        let mut config = ShipConfig::new(&dir, addr.to_string());
        config.session = "idle".into();
        config.follow = true;
        config.retry = quick_retries();
        config.poll = Duration::from_millis(5);
        config.registry = Some(reg);
        ship::ship(&config).unwrap()
    });
    while acked.get() < on_disk {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Caught up: idle for about twenty polls, then seal the session.
    std::thread::sleep(Duration::from_millis(100));
    w.finish(&functions(), 0, 0).unwrap();

    let report = shipper.join().unwrap();
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(report.complete, "{report:?}");
    assert_eq!(report.frames_skipped, 0, "idle polls rescanned: {report:?}");
    let (src_trace, _) = analysis_of(&src);
    let (dst_trace, _) = analysis_of(&out.join("idle-node8"));
    assert_eq!(src_trace, dst_trace);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn collector_enforces_frame_size_limit() {
    let src = temp_dir("limit-src");
    let out = temp_dir("limit-out");
    // A single batch big enough to blow a tiny frame limit.
    let config = SpoolConfig::new(&src).fsync(FsyncPolicy::PerBatch);
    let mut w = SpoolWriter::create(&config, node(4)).unwrap();
    let big: Vec<Event> = (0..100).flat_map(batch).collect();
    w.append_batch(&big).unwrap();
    w.finish(&functions(), 0, 0).unwrap();

    let mut cc = CollectorConfig::new(&out);
    cc.max_frame_bytes = 1024; // far below the big event frame
    let collector = Collector::bind("127.0.0.1:0", cc).unwrap();
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());

    let mut sc = ShipConfig::new(&src, handle.addr().to_string());
    sc.session = "limit".into();
    sc.retry = RetryPolicy {
        max_failures: 2,
        base_ms: 1,
        cap_ms: 2,
        seed: 5,
    };
    let report = ship::ship(&sc).unwrap();
    handle.shutdown();
    server.join().unwrap().unwrap();

    assert!(report.degraded, "oversize frames exhaust the retry budget");
    assert!(!report.complete);
    // The local spool is untouched and still fully analyzable.
    let (trace, rec) = spool::recover(&src).unwrap();
    assert!(rec.clean_shutdown);
    assert_eq!(trace.events.len() as u64, 100 * 2);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn collector_sheds_politely_when_disk_budget_is_exhausted() {
    let src = temp_dir("shed-src");
    let out = temp_dir("shed-out");
    build_spool(&src, 5, 40, 4096);

    let mut cc = CollectorConfig::new(&out);
    cc.disk_budget_bytes = Some(2_048); // room for a few frames only
    let collector = Collector::bind("127.0.0.1:0", cc).unwrap();
    let handle = collector.handle().unwrap();
    let server = std::thread::spawn(move || collector.run());

    let mut sc = ShipConfig::new(&src, handle.addr().to_string());
    sc.session = "shed".into();
    sc.retry = RetryPolicy {
        max_failures: 2,
        base_ms: 1,
        cap_ms: 2,
        seed: 6,
    };
    let report = ship::ship(&sc).unwrap();
    let shed = handle
        .stats()
        .shed
        .load(std::sync::atomic::Ordering::Relaxed);
    handle.shutdown();
    server.join().unwrap().unwrap();

    assert!(
        report.degraded,
        "a full collector cannot complete a session"
    );
    assert!(shed > 0, "the shed policy must have fired");
    // Whatever was acked before the budget ran out is durable and the
    // collected prefix is itself a recoverable spool.
    if report.frames_acked > 2 {
        let (_, rec) = spool::recover(&out.join("shed-node5")).unwrap();
        assert!(!rec.clean_shutdown);
        assert_eq!(rec.frames_deduped, 0);
    }

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn events_survive_exactly_once_under_every_outcome() {
    // A tiny sanity net over EventKind coverage in the shipped path:
    // gaps, samples, enters, exits all arrive with payloads intact.
    let src = temp_dir("kinds-src");
    let out = temp_dir("kinds-out");
    let config = SpoolConfig::new(&src).fsync(FsyncPolicy::PerBatch);
    let mut w = SpoolWriter::create(&config, node(6)).unwrap();
    w.append_batch(&[
        Event::enter(1, ThreadId(2), FunctionId(1)),
        Event::gap(2, SensorId(0)),
        Event::sample(3, SensorId(0), 55.25),
        Event::exit(4, ThreadId(2), FunctionId(1)),
    ])
    .unwrap();
    w.finish(&functions(), 0, 0).unwrap();

    let (handle, server) = start_collector(&out);
    let report = ship_to(&src, handle.addr(), "kinds");
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(report.complete);

    let (trace, _) = spool::recover(&out.join("kinds-node6")).unwrap();
    assert_eq!(trace.events.len(), 3); // enter, gap, exit
    assert_eq!(trace.samples.len(), 1);
    assert!((trace.samples[0].temperature.celsius() - 55.25).abs() < 1e-9);
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::Gap { .. })));

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

/// A collector with 4 KiB segments, so every session of a few dozen
/// batches makes it rotate.
fn start_rotating_collector(
    out: &Path,
) -> (
    CollectorHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut config = CollectorConfig::new(out);
    config.segment_bytes = 4096;
    spawn_collector(config)
}

/// A source spool whose bytes depend on nothing but its inputs (no
/// telemetry frames), rotating at 4 KiB, with `batches` appended and
/// each on disk before the next is written.
fn deterministic_spool(dir: &Path, node_id: u32, batches: std::ops::Range<u64>) -> SpoolWriter {
    let config = SpoolConfig::new(dir)
        .fsync(FsyncPolicy::PerBatch)
        .segment_bytes(4096)
        .telemetry_interval(None);
    let mut w = SpoolWriter::create(&config, node(node_id)).unwrap();
    append_batches(&mut w, batches);
    w
}

fn append_batches(w: &mut SpoolWriter, batches: std::ops::Range<u64>) {
    for i in batches {
        w.append_batch(&batch(i)).unwrap();
        if w.should_rotate() {
            w.rotate(&functions()).unwrap();
        }
    }
}

/// A segment's bytes with each shipped envelope's two wall-clock stamps
/// (payload bytes 16..32) and every frame checksum (which covers them)
/// zeroed, so a collected segment can be pinned across runs.
fn masked_segment(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mut pos = 16;
    while pos < out.len() {
        let kind = out[pos];
        let len = u32::from_le_bytes(out[pos + 1..pos + 5].try_into().unwrap()) as usize;
        out[pos + 5..pos + 9].fill(0);
        if kind == spool::FRAME_SHIPPED2 {
            out[pos + 9 + 16..pos + 9 + 32].fill(0);
        }
        pos += 9 + len;
    }
    assert_eq!(pos, out.len(), "segment ends on a frame boundary");
    out
}

/// Every file in a collected session directory as `(name, length,
/// CRC-32 of the masked bytes)`, sorted by name; the manifest is
/// listed with its length and CRC-32 unmasked.
fn collected_fingerprint(dir: &Path) -> Vec<(String, u64, u32)> {
    let mut files: Vec<(String, u64, u32)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            let mut bytes = std::fs::read(e.path()).unwrap();
            if name.ends_with(".seg") {
                bytes = masked_segment(&bytes);
            }
            (name, bytes.len() as u64, spool::crc32(&bytes))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn collector_spool_bytes_are_pinned() {
    let src = temp_dir("golden-src");
    let out = temp_dir("golden-out");
    let w = deterministic_spool(&src, 8, 0..80);
    w.finish(&functions(), 0, 0).unwrap();

    let (handle, server) = start_rotating_collector(&out);
    let report = ship_to(&src, handle.addr(), "golden");
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(report.complete, "{report:?}");

    let collected = out.join("golden-node8");
    assert_eq!(
        collected_fingerprint(&collected),
        vec![
            ("seg-000000.seg".to_string(), 4179, 0x27F0_C420),
            ("seg-000001.seg".to_string(), 4183, 0x32B2_9659),
            ("seg-000002.seg".to_string(), 514, 0x7BF5_A52C),
            ("spool.manifest".to_string(), 99, 0xCA4D_6912),
        ]
    );
    assert_eq!(
        std::fs::read_to_string(collected.join(spool::MANIFEST_NAME)).unwrap(),
        "tempest-spool v1\nnode 8 node8.loop\nclean 1\nsegments 3\n\
         seg-000000.seg\nseg-000001.seg\nseg-000002.seg\n"
    );
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

/// Ship part of a session, stop the collector, leave its last sealed
/// segment as a torn `.open` file (beside the sealed one too, when
/// `keep_sealed` is set), then restart the collector and ship the rest.
fn collector_reopens_after_a_crash(tag: &str, keep_sealed: bool) {
    let src = temp_dir(&format!("{tag}-src"));
    let out = temp_dir(&format!("{tag}-out"));
    let mut w = deterministic_spool(&src, 9, 0..50);

    let (handle, server) = start_rotating_collector(&out);
    let partial = ship_to(&src, handle.addr(), tag);
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(!partial.complete && partial.frames_acked > 0, "{partial:?}");

    // The crash: the last segment never got sealed, and its writer died
    // halfway through a frame (a header claiming 100 payload bytes,
    // followed by only 10 of them).
    let collected = out.join(format!("{tag}-node9"));
    let mut sealed: Vec<PathBuf> = std::fs::read_dir(&collected)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    sealed.sort();
    assert!(sealed.len() >= 2, "the collector rotated: {sealed:?}");
    let last = sealed.last().unwrap();
    let mut bytes = std::fs::read(last).unwrap();
    bytes.push(spool::FRAME_SHIPPED2);
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4 + 10]);
    std::fs::write(last.with_extension("open"), &bytes).unwrap();
    if !keep_sealed {
        std::fs::remove_file(last).unwrap();
    }

    append_batches(&mut w, 50..90);
    w.finish(&functions(), 0, 0).unwrap();
    let (handle, server) = start_rotating_collector(&out);
    let rest = ship_to(&src, handle.addr(), tag);
    handle.shutdown();
    server.join().unwrap().unwrap();
    assert!(rest.complete, "{rest:?}");
    assert_eq!(
        rest.frames_skipped, partial.frames_acked,
        "the resume skips exactly what was acked before the crash"
    );

    let leftovers: Vec<PathBuf> = std::fs::read_dir(&collected)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "open"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let (_, spool_report) = spool::recover(&collected).unwrap();
    assert_eq!(spool_report.frames_deduped, 0);
    assert!(spool_report.clean_shutdown);
    let (src_trace, src_report) = analysis_of(&src);
    let (dst_trace, dst_report) = analysis_of(&collected);
    assert_eq!(src_trace, dst_trace);
    assert_eq!(src_report, dst_report);

    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn collector_reopens_a_torn_open_segment() {
    collector_reopens_after_a_crash("reopen-torn", false);
}

#[test]
fn collector_reopens_beside_a_sealed_twin() {
    collector_reopens_after_a_crash("reopen-twin", true);
}
