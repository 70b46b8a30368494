//! The `capture` workload: probe → tempd → spool → ship → collect → recover.
//!
//! One application thread walks a seeded call tree with near-empty
//! function bodies while `tempd` samples a simulated sensor bank at
//! 1 kHz, all recorded through a spooled session (`SpoolConfig` with
//! blocking overflow; no fsync, one segment per session and a short
//! queue: see [`spool_config`]). The sealed spool is shipped over one
//! loopback connection to an in-process collector, and the collected
//! copy is recovered. Cycles repeat for the run's length; figures are
//! medians.

use crate::inputs::CallTree;
use crate::metrics::{hist_delta, Outcome};
use crate::spans::Spans;
use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tempest_collect::{Collector, CollectorConfig, CollectorHandle};
use tempest_core::{report, AnalysisRequest};
use tempest_probe::buffer::EventSink;
use tempest_probe::profiler::ThreadProfiler;
use tempest_probe::ship::{self, ShipConfig};
use tempest_probe::spool::{self, FsyncPolicy, SpoolConfig, SpoolSink, SpoolStats, SpoolWriter};
use tempest_probe::tempd::sample_round;
use tempest_probe::trace::{NodeMeta, SensorMeta};
use tempest_probe::{
    Clock, Event, FunctionId, MonotonicClock, Profiler, SpooledSession, Tempd, TempdConfig,
    TempdStats, ThreadId,
};
use tempest_sensors::node_model::{NodeThermalModel, NodeThermalParams};
use tempest_sensors::platform::PlatformSpec;
use tempest_sensors::sim::SimulatedSensorBank;
use tempest_sensors::SensorSource;

/// Call-tree nodes walked per capture: one enter and one exit each.
const TREE_NODES: usize = 400_000;
const FUNCTIONS: u16 = 64;
const MAX_DEPTH: usize = 8;
/// Fast enough for thousands of tempd rounds per run.
const TEMPD_HZ: f64 = 1000.0;
/// Sessions recorded per cycle; only the last is shipped. A capture is
/// short, so several per cycle give its median enough samples.
const CAPTURES_PER_CYCLE: usize = 4;
/// Recoveries of the collected copy per cycle, for the same reason.
const RECOVERS_PER_CYCLE: usize = 3;
/// Larger than a whole session's spool (about 17 MB), so a session
/// never rotates.
const SESSION_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;
/// Batches the spool queue holds (the default is 256, more than a
/// session's ~200 flushes, so the application would never wait on the
/// writer). With 8, the writer paces the application after its first
/// 8 × 4096 events, and the application's run time covers the writer.
const QUEUE_BATCHES: usize = 8;

/// `SpoolConfig` with blocking overflow, but no fsync, one segment per
/// session and a short queue. The spool sits on a disk that other
/// tenants share, where a data or directory fsync takes from under a
/// millisecond to hundreds, so none may fall inside the application's
/// run: its writes go to the page cache, and the one directory fsync, of
/// the final seal, comes after its last flush, in `finish()`. LAYERS.md
/// gives the spreads across runs that each fsync caused.
fn spool_config(dir: &Path) -> SpoolConfig {
    SpoolConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .segment_bytes(SESSION_SEGMENT_BYTES)
        .queue_batches(QUEUE_BATCHES)
}

/// A sensor bank over a steady Opteron node: 6 sensors, seeded noise.
fn sensor_bank(seed: u64) -> SimulatedSensorBank {
    SimulatedSensorBank::new(
        PlatformSpec::opteron_full(),
        NodeThermalModel::new(NodeThermalParams::opteron_node()),
        seed,
        0.25,
    )
}

/// A sink that discards everything: isolates probe cost from sink cost.
struct NullSink;

impl EventSink for NullSink {
    fn submit(&self, batch: &[Event]) {
        black_box(batch);
    }
}

/// Forwards to the spool sink, timing each `submit` from the calling
/// thread and keeping a copy of each batch for replay.
struct TimedSink {
    inner: Arc<SpoolSink>,
    submit_ns: AtomicU64,
    submits: AtomicU64,
    kept: Arc<Mutex<Vec<Vec<Event>>>>,
}

impl TimedSink {
    fn new(inner: Arc<SpoolSink>, kept: Arc<Mutex<Vec<Vec<Event>>>>) -> Arc<TimedSink> {
        Arc::new(TimedSink {
            inner,
            submit_ns: AtomicU64::new(0),
            submits: AtomicU64::new(0),
            kept,
        })
    }
}

impl EventSink for TimedSink {
    fn submit(&self, batch: &[Event]) {
        self.kept
            .lock()
            .expect("batch log poisoned")
            .push(batch.to_vec());
        let t0 = Instant::now();
        self.inner.submit(batch);
        self.submit_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.submits.fetch_add(1, Ordering::Relaxed);
    }

    fn dropped_for(&self, thread: ThreadId) -> u64 {
        self.inner.dropped_for(thread)
    }

    fn dropped_total(&self) -> u64 {
        self.inner.dropped_total()
    }
}

/// A running session: the public `SpooledSession`, or (traced) the same
/// parts assembled here so the sink's `submit` can be timed.
enum Session {
    Plain(SpooledSession),
    Parts {
        profiler: Arc<Profiler>,
        tempd: Tempd,
        sink: Arc<SpoolSink>,
        probe_sink: Arc<TimedSink>,
        kept: Arc<Mutex<Vec<Vec<Event>>>>,
    },
}

impl Session {
    fn start(dir: &Path, seed: u64, traced: bool) -> std::io::Result<Session> {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let bank = sensor_bank(seed);
        let config = TempdConfig::at_rate(TEMPD_HZ);
        if !traced {
            let s = SpooledSession::start(spool_config(dir), clock, Some(Box::new(bank)), config)?;
            return Ok(Session::Plain(s));
        }
        // The same assembly as `SpooledSession::start`.
        let node = NodeMeta {
            node_id: 0,
            hostname: std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string()),
            sensors: bank
                .sensors()
                .iter()
                .map(|m| SensorMeta {
                    id: m.id,
                    label: m.label.clone(),
                    kind: m.kind,
                })
                .collect(),
        };
        let sink = SpoolSink::spawn(&spool_config(dir), node)?;
        let kept = Arc::new(Mutex::new(Vec::new()));
        let probe_sink = TimedSink::new(sink.clone(), kept.clone());
        let profiler = Profiler::new(clock.clone(), probe_sink.clone());
        sink.attach_registry(profiler.registry().clone());
        let tempd_sink = TimedSink::new(sink.clone(), kept.clone());
        let tempd = Tempd::spawn(Box::new(bank), clock, tempd_sink, config);
        Ok(Session::Parts {
            profiler,
            tempd,
            sink,
            probe_sink,
            kept,
        })
    }

    fn thread_profiler(&self) -> ThreadProfiler {
        match self {
            Session::Plain(s) => s.thread_profiler(),
            Session::Parts { profiler, .. } => profiler.thread_profiler(),
        }
    }

    /// Stop tempd and seal the spool, as `SpooledSession::finish` does.
    fn finish(self, spans: &mut Spans) -> std::io::Result<Finished> {
        match self {
            Session::Plain(s) => {
                let (stats, tempd) = s.finish()?;
                Ok(Finished {
                    stats,
                    tempd: tempd.expect("session ran tempd"),
                    probe: None,
                })
            }
            Session::Parts {
                profiler,
                tempd,
                sink,
                probe_sink,
                kept,
            } => {
                let tempd = spans.time("tempd.shutdown", || tempd.shutdown());
                let stats = spans.time("spool.finish", || sink.finish())?;
                let functions = profiler.registry().snapshot();
                let batches = std::mem::take(&mut *kept.lock().expect("batch log poisoned"));
                Ok(Finished {
                    stats,
                    tempd,
                    probe: Some(ProbeCounts {
                        submit_s: probe_sink.submit_ns.load(Ordering::Relaxed) as f64 / 1e9,
                        flushes: probe_sink.submits.load(Ordering::Relaxed),
                        batches,
                        functions,
                    }),
                })
            }
        }
    }
}

struct ProbeCounts {
    submit_s: f64,
    flushes: u64,
    batches: Vec<Vec<Event>>,
    functions: Vec<tempest_probe::FunctionDef>,
}

struct Finished {
    stats: SpoolStats,
    tempd: TempdStats,
    probe: Option<ProbeCounts>,
}

/// Walk `tree` once, recording every call through `tp`.
fn walk(tree: &CallTree, tp: &ThreadProfiler, ids: &[FunctionId]) {
    let mut work = 0u64;
    tree.walk(
        &mut |f| {
            tp.enter(ids[f as usize]);
            work = black_box(work.wrapping_add(f as u64));
        },
        &mut |f| tp.exit(ids[f as usize]),
    );
    black_box(work);
}

fn register(tp: &ThreadProfiler) -> Vec<FunctionId> {
    (0..FUNCTIONS)
        .map(|i| tp.register(&format!("f{i:02}")))
        .collect()
}

/// Per-cycle figures.
#[derive(Default)]
struct Cycle {
    setup_s: Vec<f64>,
    /// Events per second of the application's run, one per session.
    app_rate: Vec<f64>,
    /// Events and samples per second, first probe to `finish()`.
    capture_rate: Vec<f64>,
    ship_s: f64,
    ship_mb_per_s: f64,
    /// One per recovery of the collected copy.
    recover_s: Vec<f64>,
    recover_rate: f64,
    heap_mb: f64,
}

fn spool_bytes(dir: &Path) -> (u64, Vec<PathBuf>) {
    let segs: Vec<PathBuf> = spool::list_segment_files(dir)
        .map(|v| v.into_iter().map(|(_, p)| p).collect())
        .unwrap_or_default();
    let bytes = segs
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    (bytes, segs)
}

fn text_report(dir: &Path) -> Result<String, String> {
    let (trace, rep) =
        spool::recover(dir).map_err(|e| format!("recover {}: {e}", dir.display()))?;
    let profile = AnalysisRequest::new()
        .analyze_salvaged(&trace, Some(&rep.salvage))
        .map_err(|e| format!("analyze {}: {e}", dir.display()))?;
    Ok(report::render_stdout(&profile))
}

/// An in-process collector on a loopback port.
pub struct Collecting {
    pub handle: CollectorHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    /// Where collected sessions land, one directory each.
    pub out: PathBuf,
}

pub fn start_collector(out: PathBuf) -> Collecting {
    let collector = Collector::bind("127.0.0.1:0", CollectorConfig::new(&out))
        .expect("bind loopback collector");
    let handle = collector.handle().expect("collector handle");
    let thread = std::thread::spawn(move || collector.run());
    Collecting {
        handle,
        thread,
        out,
    }
}

pub fn stop_collector(c: Collecting) {
    c.handle.shutdown();
    c.thread
        .join()
        .expect("collector thread")
        .expect("collector run");
}

/// Ship `dir` as session `name` to the collector at `addr`.
pub fn ship_to(dir: &Path, addr: &str, name: &str) -> std::io::Result<ship::ShipReport> {
    let mut config = ShipConfig::new(dir, addr);
    config.session = name.to_string();
    ship::ship(&config)
}

/// One recorded session: start, walk the tree, finish.
struct Captured {
    setup_s: f64,
    /// Probe events per second, from the application's first probe until
    /// its last flush returns.
    app_rate: f64,
    /// Events and samples spooled per second, first probe to `finish()`.
    rate: f64,
    finished: Finished,
}

/// Record one session and check that every event reached the spool.
fn capture_once(
    local: &Path,
    tree: &CallTree,
    seed: u64,
    tag: &str,
    out: &mut Outcome,
) -> Option<Captured> {
    let t0 = Instant::now();
    let traced = out.traced();
    let session = out
        .spans
        .time("session.start", || Session::start(local, seed, traced));
    let setup_s = t0.elapsed().as_secs_f64();
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("{tag}: session start: {e}"));
            return None;
        }
    };
    let t1 = Instant::now();
    out.spans.time("probe.walk", || {
        let tp = session.thread_profiler();
        let ids = register(&tp);
        walk(tree, &tp, &ids);
        tp.flush();
    });
    let app_s = t1.elapsed().as_secs_f64();
    let finished = session.finish(&mut out.spans);
    let capture_s = t1.elapsed().as_secs_f64();
    let finished = match finished {
        Ok(f) => f,
        Err(e) => {
            out.check(false, || format!("{tag}: finish: {e}"));
            return None;
        }
    };
    let st = finished.stats;
    let emitted = 2 * tree.len() as u64;
    let dropped =
        st.events_dropped + st.samples_dropped + st.events_dropped_io + st.samples_dropped_io;
    out.attempted += emitted + finished.tempd.health.reads_ok;
    out.failed_ops += dropped;
    out.check(
        st.events_written == emitted && dropped == 0 && st.io_errors == 0,
        || {
            format!(
                "{tag}: spooled {} of {emitted} events, {dropped} dropped, {} io errors",
                st.events_written, st.io_errors
            )
        },
    );
    Some(Captured {
        setup_s,
        app_rate: emitted as f64 / app_s,
        rate: (st.events_written + st.samples_written) as f64 / capture_s,
        finished,
    })
}

/// One cycle: [`CAPTURES_PER_CYCLE`] recorded sessions, the last of which
/// is shipped, recovered from the collector and checked against the local
/// spool.
fn cycle(
    i: u64,
    work: &Path,
    tree: &CallTree,
    seed: u64,
    coll: &Collecting,
    g: &mut Gathered,
    out: &mut Outcome,
) -> Option<Cycle> {
    let traced = out.traced();
    let name = format!("cap{i}");
    let collected = coll.out.join(format!("{name}-node0"));
    let addr = coll.handle.addr().to_string();
    let mut c = Cycle::default();
    out.spans.set_run(i);
    crate::reset_peak_heap();
    let mut last = None;
    for k in 0..CAPTURES_PER_CYCLE {
        let local = work.join(format!("spool-{i}-{k}"));
        if let Some(l) = last.take() {
            std::fs::remove_dir_all(&l).ok();
        }
        let fsyncs0 = tempest_obs::global().counter("spool_fsyncs_total").get();
        let cycle_span = (k + 1 == CAPTURES_PER_CYCLE).then(|| out.spans.open("capture.cycle"));
        let captured = capture_once(&local, tree, seed, &format!("cycle {i} capture {k}"), out)?;
        c.setup_s.push(captured.setup_s);
        c.app_rate.push(captured.app_rate);
        c.capture_rate.push(captured.rate);
        let finished = captured.finished;
        last = Some(local);
        let Some(cycle_span) = cycle_span else {
            continue;
        };

        let local = last.clone().expect("just set");
        let (sealed_bytes, segments) = spool_bytes(&local);
        let t2 = Instant::now();
        let shipped = out
            .spans
            .time("ship.ship", || ship_to(&local, &addr, &name));
        c.ship_s = t2.elapsed().as_secs_f64();
        c.ship_mb_per_s = sealed_bytes as f64 / 1e6 / c.ship_s;
        let mut recovered = None;
        for _ in 0..RECOVERS_PER_CYCLE {
            // One recovered copy alive at a time, as in a single recovery.
            drop(recovered.take());
            let t3 = Instant::now();
            let r = out
                .spans
                .time("spool.recover", || spool::recover(&collected));
            c.recover_s.push(t3.elapsed().as_secs_f64());
            recovered = Some(r);
        }
        let recovered = recovered.expect("at least one recovery per cycle");
        out.spans.close(cycle_span);
        c.heap_mb = crate::peak_heap_mb();

        // ---- checks, outside every timed region.
        let report = match shipped {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("cycle {i}: ship: {e}"));
                return None;
            }
        };
        out.attempted += report.frames_sent;
        out.failed_ops += report.frames_sent.saturating_sub(report.frames_acked);
        out.check(report.complete && !report.degraded, || {
            format!("cycle {i}: ship incomplete: {report:?}")
        });
        let crep = match recovered {
            Ok((_, r)) => r,
            Err(e) => {
                out.check(false, || format!("cycle {i}: recover collected copy: {e}"));
                return None;
            }
        };
        let st = finished.stats;
        c.recover_rate =
            (crep.events_recovered + crep.samples_recovered) as f64 / median(&c.recover_s);
        out.check(
            crep.events_recovered == st.events_written && crep.clean_shutdown,
            || {
                format!(
                    "cycle {i}: collected copy holds {} of {} events",
                    crep.events_recovered, st.events_written
                )
            },
        );
        let local_report = text_report(&local);
        let collected_report = text_report(&collected);
        out.check(
            local_report.is_ok() && local_report == collected_report,
            || {
                format!(
                    "cycle {i}: collected report differs from the local one ({:?})",
                    collected_report.err()
                )
            },
        );
        if traced {
            let fsyncs = tempest_obs::global().counter("spool_fsyncs_total").get() - fsyncs0;
            traced_layers(
                g, i, &c, &finished, &report, &crep, &segments, fsyncs, work, out,
            );
        }
    }
    if let Some(l) = last {
        std::fs::remove_dir_all(&l).ok();
    }
    std::fs::remove_dir_all(&collected).ok();
    Some(c)
}

/// Layer figures of one traced cycle.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    g: &mut Gathered,
    i: u64,
    c: &Cycle,
    f: &Finished,
    report: &ship::ShipReport,
    crep: &spool::SpoolReport,
    segments: &[PathBuf],
    fsyncs: u64,
    work: &Path,
    out: &mut Outcome,
) {
    let probe = f
        .probe
        .as_ref()
        .expect("traced sessions are built from parts");
    let st = &f.stats;
    let spooled = (st.events_written + st.samples_written).max(1);
    let per_cycle = [
        ("probe.events", st.events_written as f64),
        ("probe.flushes", probe.flushes as f64),
        ("probe.submit_wait_s", probe.submit_s),
        ("tempd.rounds", f.tempd.rounds as f64),
        ("tempd.cpu_fraction", f.tempd.cpu_fraction()),
        ("tempd.missed_reads", f.tempd.health.missed_reads as f64),
        ("spool.fsyncs", fsyncs as f64),
        ("spool.bytes", st.bytes_written as f64),
        (
            "spool.bytes_per_event",
            st.bytes_written as f64 / spooled as f64,
        ),
        ("spool.segments", st.segments as f64),
        (
            "spool.events_dropped",
            (st.events_dropped + st.samples_dropped) as f64,
        ),
        ("ship.frames_sent", report.frames_sent as f64),
        ("ship.frames_acked", report.frames_acked as f64),
        (
            "ship.acked_ratio",
            report.frames_acked as f64 / report.frames_sent.max(1) as f64,
        ),
        ("ship.reconnects", report.reconnects as f64),
        (
            "ship.frame_rtt_us",
            c.ship_s * 1e6 / report.frames_sent.max(1) as f64,
        ),
        ("spool.recover_s", median(&c.recover_s)),
        ("spool.recover_frames", crep.frames_recovered as f64),
        ("spool.frames_deduped", crep.frames_deduped as f64),
        ("spool.torn_frames", crep.frames_discarded as f64),
    ];
    for (name, v) in per_cycle {
        g.per_cycle.entry(name).or_default().push(v);
    }

    // Replays on the first traced cycle only: they are costly and their
    // inputs are the same in every cycle.
    if i != 0 {
        return;
    }
    let replay_dir = work.join("replay");
    let t = Instant::now();
    let replayed = (|| -> std::io::Result<SpoolStats> {
        let node = NodeMeta {
            node_id: 0,
            hostname: "replay".to_string(),
            sensors: Vec::new(),
        };
        let mut w = SpoolWriter::create(&spool_config(&replay_dir), node)?;
        for batch in &probe.batches {
            w.append_batch(batch)?;
            if w.should_rotate() {
                w.rotate(&probe.functions)?;
            }
        }
        w.finish(&probe.functions, 0, 0)
    })();
    let append_s = t.elapsed();
    out.spans.record("spool.append_replay", t, append_s);
    out.check(replayed.is_ok(), || {
        format!("spool replay: {:?}", replayed.err())
    });
    std::fs::remove_dir_all(&replay_dir).ok();
    g.once.insert("spool.append_s", append_s.as_secs_f64());

    let images: Vec<Vec<u8>> = segments
        .iter()
        .filter_map(|p| std::fs::read(p).ok())
        .collect();
    let t = Instant::now();
    let frames: usize = images
        .iter()
        .map(|b| black_box(spool::parse_segment_frames(b)).0.len())
        .sum();
    let read_s = t.elapsed();
    out.spans.record("ship.read_replay", t, read_s);
    g.once.insert("ship.read_s", read_s.as_secs_f64());
    black_box(frames);

    let all: Vec<u8> = images.concat();
    let (reps, dur, t) = batch_time(Duration::from_millis(100), || {
        black_box(spool::crc32(black_box(&all)));
    });
    out.spans.record("spool.crc32_batch", t, dur);
    g.once.insert(
        "spool.crc_mb_per_s",
        all.len() as f64 * reps as f64 / 1e6 / dur.as_secs_f64(),
    );
}

/// Layer figures gathered over the traced cycles.
#[derive(Default)]
struct Gathered {
    /// One value per cycle; reported as the median.
    per_cycle: BTreeMap<&'static str, Vec<f64>>,
    /// Measured once, on the first cycle.
    once: BTreeMap<&'static str, f64>,
}

/// Repeat `f` until at least `min` has passed: `(repetitions, total, start)`.
pub fn batch_time(min: Duration, mut f: impl FnMut()) -> (u64, Duration, Instant) {
    let start = Instant::now();
    let mut reps = 0;
    while start.elapsed() < min {
        f();
        reps += 1;
    }
    (reps, start.elapsed(), start)
}

/// Probe enter+exit pair cost, with recording on minus off, into a sink
/// that does nothing: ns per pair, median of five interleaved rounds.
fn probe_pair_ns(tree: &CallTree, spans: &mut Spans) -> f64 {
    let profiler = Profiler::new(Arc::new(MonotonicClock::new()), Arc::new(NullSink));
    let tp = profiler.thread_profiler();
    let ids = register(&tp);
    let mut deltas = Vec::new();
    for _ in 0..5 {
        let timed = |on: bool, spans: &mut Spans| {
            profiler.set_enabled(on);
            let t = Instant::now();
            walk(tree, &tp, &ids);
            let d = t.elapsed();
            spans.record(
                if on {
                    "probe.walk_on"
                } else {
                    "probe.walk_off"
                },
                t,
                d,
            );
            d.as_secs_f64()
        };
        let on = timed(true, spans);
        let off = timed(false, spans);
        deltas.push((on - off) * 1e9 / tree.len() as f64);
    }
    median(&deltas)
}

/// `sample_round` on the same kind of sensor bank, timed from outside.
fn tempd_round_us(seed: u64, spans: &mut Spans) -> f64 {
    let mut bank = sensor_bank(seed);
    let mut ts = 0u64;
    let (reps, dur, t) = batch_time(Duration::from_millis(50), || {
        ts += 1_000_000;
        sample_round(&mut bank, ts, &NullSink);
    });
    spans.record("tempd.sample_round_batch", t, dur);
    dur.as_secs_f64() * 1e6 / reps as f64
}

pub fn run(work: &Path, seed: u64, seconds: f64, out: &mut Outcome) {
    let tree = CallTree::generate(seed, TREE_NODES, FUNCTIONS, MAX_DEPTH);
    let coll = start_collector(work.join("collected"));
    let transit0 = tempest_obs::global()
        .snapshot()
        .histogram("collect_frame_latency_ns")
        .cloned();
    let mut g = Gathered::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycles = Vec::new();
    let mut i = 0;
    while Instant::now() < deadline || cycles.len() < 3 {
        match cycle(i, work, &tree, seed, &coll, &mut g, out) {
            Some(c) => cycles.push(c),
            None => break,
        }
        i += 1;
    }
    if out.traced() {
        collector_layers(&coll, transit0.as_ref(), out);
    }
    stop_collector(coll);
    if cycles.is_empty() {
        return;
    }
    let all = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<_>>();
    let each = |f: fn(&Cycle) -> &Vec<f64>| cycles.iter().flat_map(f).copied().collect::<Vec<_>>();
    let w = "capture";
    out.e2e.setup_s = out.name_median(
        w,
        "setup_s",
        &each(|c| &c.setup_s),
        "s",
        "SpooledSession::start",
    );
    out.e2e.throughput_per_s = out.name_median(
        w,
        "app_events_per_s",
        &each(|c| &c.app_rate),
        "events/s",
        "the application's first probe to its last flush",
    );
    out.name_median(
        w,
        "capture_events_per_s",
        &each(|c| &c.capture_rate),
        "events/s",
        "first probe to finish(); holds the final seal's directory fsync",
    );
    out.name_median(
        w,
        "ship_mb_per_s",
        &all(|c| c.ship_mb_per_s),
        "MB/s",
        "sealed bytes / ship::ship; holds the collector's fsyncs",
    );
    out.name_median(
        w,
        "recover_events_per_s",
        &all(|c| c.recover_rate),
        "events/s",
        "collected copy",
    );
    out.name_median(
        w,
        "delivery_ms",
        &all(|c| (c.ship_s + median(&c.recover_s)) * 1e3),
        "ms",
        "ship + recover",
    );
    out.memory(w, &all(|c| c.heap_mb), "cycle, before its checks");
    let recover_ms: Vec<f64> = each(|c| &c.recover_s).iter().map(|s| s * 1e3).collect();
    out.e2e.answer_p50_ms = out.name_median(
        w,
        "recover_ms",
        &recover_ms,
        "ms",
        "spool::recover of the collected copy",
    );

    if out.traced() {
        for (name, v) in &g.per_cycle {
            out.layer(name, median(v));
        }
        for (name, v) in &g.once {
            out.layer(name, *v);
        }
        let finish = median(&out.spans.durations_s("spool.finish"));
        out.layer("spool.finish_s", finish);
        let unexplained = out.spans.self_s("capture.cycle");
        out.layer("capture.unexplained_s", median(&unexplained));
        let pair = probe_pair_ns(&tree, &mut out.spans);
        out.layer("probe.pair_ns", pair);
        let round = tempd_round_us(seed, &mut out.spans);
        out.layer("tempd.round_us", round);
        out.notes.push(
            "collect.transit_*_us are the upper bounds of the log2 buckets of the \
             collect_frame_latency_ns histogram that hold the quantiles"
                .to_string(),
        );
    }
}

/// The collector's counters (it serves only this run) and the transit
/// histogram, read after the run.
fn collector_layers(
    c: &Collecting,
    transit0: Option<&tempest_obs::HistogramSnapshot>,
    out: &mut Outcome,
) {
    let s = c.handle.stats();
    out.layer("collect.frames", s.frames.load(Ordering::Relaxed) as f64);
    out.layer(
        "collect.dup_frames",
        s.duplicates.load(Ordering::Relaxed) as f64,
    );
    out.layer(
        "collect.quarantined",
        s.quarantined.load(Ordering::Relaxed) as f64,
    );
    let after = tempest_obs::global().snapshot();
    if let Some(h) = after.histogram("collect_frame_latency_ns") {
        let h = hist_delta(h, transit0);
        out.layer("collect.transit_p50_us", h.quantile(0.5) as f64 / 1e3);
        out.layer("collect.transit_p99_us", h.quantile(0.99) as f64 / 1e3);
    }
}
