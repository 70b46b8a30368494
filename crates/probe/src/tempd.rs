//! `tempd` — the temperature sampling daemon.
//!
//! §3.2: *"we created a light weight temperature measuring process (tempd).
//! The tempd process samples temperature four times per second using
//! sensors on the motherboard and processor … launched before the main
//! function of the profiled application is invoked"* and §4.1: *"tempd had
//! no impact on the system temperature, and in fact used less than 1 % of
//! CPU time"*.
//!
//! Here `tempd` is a thread (the original was a forked process; a thread
//! keeps the clock and sink shared without IPC). It samples a
//! [`SensorSource`] at a fixed rate, converts readings into
//! [`Event::sample`] records on the session clock, and accounts its own
//! busy time so the <1 % CPU claim is measurable (experiment E9).
//!
//! ## Graceful degradation
//!
//! Real sensors fail (see [`tempest_sensors::faults`] for the taxonomy), so
//! the sampling loop is resilient rather than trusting: non-finite
//! temperatures are discarded before they can poison the trace, a sensor
//! that returns no reading is retried with exponential backoff within the
//! round, a sensor that misses too many consecutive rounds is quarantined
//! (no more retry cost; it may rejoin if it starts answering again), and
//! every reading that remains missing is recorded as an explicit
//! [`Event::gap`] marker so downstream analysis can account coverage
//! honestly. [`SamplingHealth`] counts all of it.

use crate::buffer::EventSink;
use crate::clock::Clock;
use crate::event::{Event, EventKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempest_sensors::{SensorReading, SensorSource};

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct TempdConfig {
    /// Samples per second per sensor. The paper's default is 4 Hz.
    pub rate_hz: f64,
    /// How many immediate re-reads to attempt when a sensor produces no
    /// reading in a round. 0 disables retries.
    pub max_retries: u32,
    /// Backoff before the first retry; doubled for each further retry.
    /// `Duration::ZERO` retries immediately.
    pub retry_backoff: Duration,
    /// Quarantine a sensor after this many *consecutive* rounds without a
    /// reading: it stops costing retries (gap markers continue, and it
    /// rejoins automatically if it answers again). 0 disables quarantine.
    pub quarantine_after: u32,
    /// Emit an [`Event::gap`] for every expected-but-missing reading.
    pub emit_gaps: bool,
}

impl Default for TempdConfig {
    fn default() -> Self {
        TempdConfig {
            rate_hz: 4.0,
            max_retries: 2,
            retry_backoff: Duration::from_micros(500),
            quarantine_after: 8,
            emit_gaps: true,
        }
    }
}

impl TempdConfig {
    /// A config with the given sampling rate and default resilience knobs.
    pub fn at_rate(rate_hz: f64) -> Self {
        TempdConfig {
            rate_hz,
            ..Default::default()
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.rate_hz.max(0.001))
    }

    /// The sampling interval in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval().as_nanos() as u64
    }
}

/// Counters published by the daemon thread.
#[derive(Debug, Default)]
struct Counters {
    rounds: AtomicU64,
    busy_ns: AtomicU64,
}

/// Degradation accounting for a sampling run: how many reads succeeded,
/// were retried, recovered, dropped, or turned into gap markers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplingHealth {
    /// Readings accepted into the event stream.
    pub reads_ok: u64,
    /// Expected readings that were ultimately missing for a round.
    pub missed_reads: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Readings obtained only thanks to a retry.
    pub recovered_reads: u64,
    /// Readings discarded because the temperature was NaN/∞.
    pub nonfinite_dropped: u64,
    /// Gap markers emitted into the event stream.
    pub gaps_emitted: u64,
    /// Sensors currently quarantined.
    pub quarantined_sensors: u64,
    /// Records tempd submitted that a bounded sink shed under
    /// backpressure (they were sampled fine, then lost at the queue).
    /// Filled in at shutdown from the sink's per-thread drop accounting;
    /// always 0 while the daemon is still running.
    pub samples_dropped_backpressure: u64,
}

impl SamplingHealth {
    /// Fraction of expected reads that made it into the stream, in
    /// `[0, 1]`. 1.0 when nothing was expected.
    pub fn coverage(&self) -> f64 {
        let expected = self.reads_ok + self.missed_reads;
        if expected == 0 {
            1.0
        } else {
            self.reads_ok as f64 / expected as f64
        }
    }
}

/// Final statistics after shutdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TempdStats {
    /// Sampling rounds completed (each round reads every sensor).
    pub rounds: u64,
    /// Time spent actually sampling (not sleeping), ns.
    pub busy_ns: u64,
    /// Wall time the daemon ran, ns.
    pub wall_ns: u64,
    /// Degradation accounting for the run.
    pub health: SamplingHealth,
}

impl TempdStats {
    /// Fraction of one CPU the daemon consumed — the paper's "<1 % of CPU
    /// time" metric.
    pub fn cpu_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Per-sensor failure-tracking state.
#[derive(Debug, Clone, Copy, Default)]
struct SensorHealth {
    consecutive_misses: u32,
    quarantined: bool,
}

/// The resilient sampling round engine shared by the daemon thread,
/// [`sample_round`] and callers that schedule rounds themselves (tests).
///
/// One instance tracks per-sensor health across rounds; feed it the same
/// source every round.
pub struct ResilientSampler {
    config: TempdConfig,
    sensors: Vec<SensorHealth>,
    totals: SamplingHealth,
    readings: Vec<SensorReading>,
    retry_buf: Vec<SensorReading>,
    batch: Vec<Event>,
}

impl ResilientSampler {
    /// A fresh sampler; sensor health starts clean.
    pub fn new(config: TempdConfig) -> Self {
        ResilientSampler {
            config,
            sensors: Vec::new(),
            totals: SamplingHealth::default(),
            readings: Vec::new(),
            retry_buf: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Cumulative health counters across all rounds so far.
    pub fn health(&self) -> SamplingHealth {
        self.totals
    }

    /// Take one sampling round: read every sensor, retry the silent ones,
    /// quarantine repeat offenders, and submit samples plus gap markers to
    /// `sink`.
    pub fn round(
        &mut self,
        source: &mut dyn SensorSource,
        timestamp_ns: u64,
        sink: &dyn EventSink,
    ) {
        let inventory: Vec<_> = source.sensors().iter().map(|s| s.id).collect();
        self.sensors
            .resize(inventory.len(), SensorHealth::default());

        self.readings.clear();
        source.sample_into(timestamp_ns, &mut self.readings);
        let dropped = drop_nonfinite(&mut self.readings);
        self.totals.nonfinite_dropped += dropped;

        self.batch.clear();
        for (idx, &id) in inventory.iter().enumerate() {
            let mut reading = self.readings.iter().find(|r| r.sensor == id).copied();

            // Retry silent, non-quarantined sensors with exponential backoff.
            if reading.is_none() && !self.sensors[idx].quarantined {
                let mut backoff = self.config.retry_backoff;
                for _ in 0..self.config.max_retries {
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                    self.totals.retries += 1;
                    self.retry_buf.clear();
                    source.sample_into(timestamp_ns, &mut self.retry_buf);
                    self.totals.nonfinite_dropped += drop_nonfinite(&mut self.retry_buf);
                    reading = self.retry_buf.iter().find(|r| r.sensor == id).copied();
                    if reading.is_some() {
                        self.totals.recovered_reads += 1;
                        break;
                    }
                }
            }

            match reading {
                Some(r) => {
                    self.totals.reads_ok += 1;
                    let state = &mut self.sensors[idx];
                    state.consecutive_misses = 0;
                    if state.quarantined {
                        // The sensor answered again: lift the quarantine.
                        state.quarantined = false;
                        self.totals.quarantined_sensors -= 1;
                        tempest_obs::event!(
                            Info,
                            "tempd",
                            "sensor answered again; quarantine lifted",
                            sensor = id.0
                        );
                    }
                    self.batch.push(Event::sample(
                        r.timestamp_ns,
                        r.sensor,
                        r.temperature.celsius(),
                    ));
                }
                None => {
                    self.totals.missed_reads += 1;
                    let state = &mut self.sensors[idx];
                    state.consecutive_misses = state.consecutive_misses.saturating_add(1);
                    if !state.quarantined
                        && self.config.quarantine_after > 0
                        && state.consecutive_misses >= self.config.quarantine_after
                    {
                        state.quarantined = true;
                        self.totals.quarantined_sensors += 1;
                        tempest_obs::event!(
                            Warn,
                            "tempd",
                            "sensor quarantined after consecutive misses",
                            sensor = id.0,
                            misses = state.consecutive_misses
                        );
                    }
                    if self.config.emit_gaps {
                        self.totals.gaps_emitted += 1;
                        self.batch.push(Event::gap(timestamp_ns, id));
                    }
                }
            }
        }
        sink.submit(&self.batch);
    }

    /// Hottest finite reading of the last round, as `(sensor id, °C)`.
    pub fn hottest(&self) -> Option<(u16, f64)> {
        self.batch
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Sample { sensor, .. } => e.sample_celsius().map(|c| (sensor.0, c)),
                _ => None,
            })
            .filter(|(_, c)| c.is_finite())
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Remove non-finite temperatures in place; returns how many were dropped.
fn drop_nonfinite(readings: &mut Vec<SensorReading>) -> u64 {
    let before = readings.len();
    readings.retain(|r| r.temperature.celsius().is_finite());
    (before - readings.len()) as u64
}

/// A running sampling daemon. Dropping the handle stops the thread (the
/// analogue of the destructor that "sends a signal to tempd for
/// termination", §3.2).
pub struct Tempd {
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    health: Arc<Mutex<SamplingHealth>>,
    // Kept so shutdown can ask the sink how many of the daemon's
    // submissions were shed under backpressure.
    sink: Arc<dyn EventSink>,
    started: Instant,
    thread: Option<JoinHandle<()>>,
}

impl Tempd {
    /// Launch the daemon over `source`, stamping with `clock`, emitting
    /// into `sink`.
    pub fn spawn(
        mut source: Box<dyn SensorSource>,
        clock: Arc<dyn Clock>,
        sink: Arc<dyn EventSink>,
        config: TempdConfig,
    ) -> Tempd {
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let health = Arc::new(Mutex::new(SamplingHealth::default()));
        let thread_stop = Arc::clone(&stop);
        let thread_counters = Arc::clone(&counters);
        let thread_health = Arc::clone(&health);
        let thread_sink = Arc::clone(&sink);
        let interval = config.interval();

        let thread = std::thread::Builder::new()
            .name("tempd".to_string())
            .spawn(move || {
                let obs = tempest_obs::global();
                let m_rounds = obs.counter("tempd_rounds_total");
                let m_round_ns = obs.histogram("tempd_round_ns");
                let m_shed = obs.gauge("tempd_shed_samples");
                let m_quarantined = obs.gauge("tempd_quarantined_sensors");
                // The full SamplingHealth rides the registry as gauges so
                // shipped telemetry snapshots carry sampler health to the
                // collector's fleet view without a second channel.
                let m_reads_ok = obs.gauge("tempd_health_reads_ok");
                let m_missed = obs.gauge("tempd_health_missed_reads");
                let m_retries = obs.gauge("tempd_health_retries");
                let m_recovered = obs.gauge("tempd_health_recovered_reads");
                let m_nonfinite = obs.gauge("tempd_health_nonfinite_dropped");
                let m_gaps = obs.gauge("tempd_health_gaps_emitted");
                let m_coverage = obs.gauge("tempd_health_coverage");
                // Hottest sensor of the latest round: the one number the
                // fleet table leads with for every node.
                let m_hot_c = obs.gauge("tempd_hottest_celsius");
                let m_hot_id = obs.gauge("tempd_hottest_sensor");
                let mut sampler = ResilientSampler::new(config);
                let mut next_tick = Instant::now();
                while !thread_stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let ts = clock.now_ns();
                    sampler.round(&mut *source, ts, &*thread_sink);
                    let round_health = sampler.health();
                    m_rounds.inc();
                    m_round_ns.record_duration(t0.elapsed());
                    m_shed.set(thread_sink.dropped_for(Event::TEMPD_THREAD) as f64);
                    m_quarantined.set(round_health.quarantined_sensors as f64);
                    m_reads_ok.set(round_health.reads_ok as f64);
                    m_missed.set(round_health.missed_reads as f64);
                    m_retries.set(round_health.retries as f64);
                    m_recovered.set(round_health.recovered_reads as f64);
                    m_nonfinite.set(round_health.nonfinite_dropped as f64);
                    m_gaps.set(round_health.gaps_emitted as f64);
                    m_coverage.set(round_health.coverage());
                    if let Some((sensor, celsius)) = sampler.hottest() {
                        m_hot_c.set(celsius);
                        m_hot_id.set(sensor as f64);
                    }
                    *thread_health.lock() = round_health;
                    thread_counters.rounds.fetch_add(1, Ordering::Relaxed);
                    thread_counters
                        .busy_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    // Fixed-cadence schedule: sleep to the next tick, not
                    // for a fixed duration, so sampling doesn't drift.
                    next_tick += interval;
                    let now = Instant::now();
                    if next_tick > now {
                        std::thread::sleep(next_tick - now);
                    } else {
                        // Overrun (slow sensor read): resynchronise.
                        next_tick = now;
                    }
                }
            })
            .expect("failed to spawn tempd thread");

        Tempd {
            stop,
            counters,
            health,
            sink,
            started: Instant::now(),
            thread: Some(thread),
        }
    }

    /// Signal the daemon and wait for it to finish; returns its statistics.
    pub fn shutdown(mut self) -> TempdStats {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> TempdStats {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut health = *self.health.lock();
        // Everything tempd submits rides its pseudo-thread, so the sink's
        // per-thread drop accounting attributes shed samples exactly.
        health.samples_dropped_backpressure = self.sink.dropped_for(Event::TEMPD_THREAD);
        TempdStats {
            rounds: self.counters.rounds.load(Ordering::Relaxed),
            busy_ns: self.counters.busy_ns.load(Ordering::Relaxed),
            wall_ns: self.started.elapsed().as_nanos() as u64,
            health,
        }
    }
}

impl Drop for Tempd {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Synchronously take one sampling round: [`ResilientSampler::round`] on a
/// fresh sampler with retries and quarantine off. Non-finite temperatures
/// are dropped and every inventory sensor with no surviving reading gets
/// an [`Event::gap`] marker; no health carries over between calls. Keep a
/// [`ResilientSampler`] across rounds to also get retries and quarantine.
pub fn sample_round(source: &mut dyn SensorSource, timestamp_ns: u64, sink: &dyn EventSink) {
    ResilientSampler::new(TempdConfig {
        max_retries: 0,
        quarantine_after: 0,
        ..TempdConfig::default()
    })
    .round(source, timestamp_ns, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VecSink;
    use crate::clock::MonotonicClock;
    use crate::event::EventKind;
    use tempest_sensors::faults::{FaultPlan, FaultySensorSource};
    use tempest_sensors::source::ConstantSource;
    use tempest_sensors::SensorId;

    #[test]
    fn samples_at_roughly_configured_rate() {
        let sink = VecSink::new();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let tempd = Tempd::spawn(
            Box::new(ConstantSource::single(40.0)),
            clock,
            sink.clone(),
            TempdConfig::at_rate(50.0),
        );
        std::thread::sleep(Duration::from_millis(300));
        let stats = tempd.shutdown();
        // 300 ms at 50 Hz ≈ 15 rounds; accept a wide scheduling band.
        assert!(
            (8..=25).contains(&stats.rounds),
            "rounds = {}",
            stats.rounds
        );
        assert_eq!(sink.len() as u64, stats.rounds);
        assert_eq!(stats.health.missed_reads, 0);
        assert_eq!(stats.health.coverage(), 1.0);
    }

    #[test]
    fn produces_sample_events_with_temperature() {
        let sink = VecSink::new();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let tempd = Tempd::spawn(
            Box::new(ConstantSource::single(42.5)),
            clock,
            sink.clone(),
            TempdConfig::at_rate(100.0),
        );
        std::thread::sleep(Duration::from_millis(100));
        tempd.shutdown();
        let events = sink.drain();
        assert!(!events.is_empty());
        for e in events {
            assert!(matches!(e.kind, EventKind::Sample { .. }));
            assert!((e.sample_celsius().unwrap() - 42.5).abs() < 1e-9);
            assert_eq!(e.thread, Event::TEMPD_THREAD);
        }
    }

    #[test]
    fn cpu_fraction_is_small_for_cheap_sensors() {
        let sink = VecSink::new();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let tempd = Tempd::spawn(
            Box::new(ConstantSource::single(40.0)),
            clock,
            sink,
            TempdConfig::default(), // the paper's 4 Hz
        );
        std::thread::sleep(Duration::from_millis(500));
        let stats = tempd.shutdown();
        assert!(
            stats.cpu_fraction() < 0.01,
            "tempd used {:.3} % CPU, paper claims <1 %",
            stats.cpu_fraction() * 100.0
        );
    }

    #[test]
    fn drop_stops_the_thread() {
        let sink = VecSink::new();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        {
            let _tempd = Tempd::spawn(
                Box::new(ConstantSource::single(40.0)),
                clock,
                sink.clone(),
                TempdConfig::at_rate(100.0),
            );
            std::thread::sleep(Duration::from_millis(50));
        } // dropped here
        let n = sink.len();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(sink.len(), n, "no samples after drop");
    }

    #[test]
    fn sample_round_is_synchronous() {
        let sink = VecSink::new();
        let mut src = ConstantSource::new(vec![
            (
                "a".into(),
                tempest_sensors::SensorKind::CpuCore,
                tempest_sensors::Temperature::from_celsius(40.0),
            ),
            (
                "b".into(),
                tempest_sensors::SensorKind::Ambient,
                tempest_sensors::Temperature::from_celsius(25.0),
            ),
        ]);
        sample_round(&mut src, 1234, &*sink);
        let ev = sink.drain();
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().all(|e| e.timestamp_ns == 1234));
    }

    #[test]
    fn sample_round_marks_gaps_for_dead_sensors() {
        let sink = VecSink::new();
        let plan = FaultPlan::new(1).dead_after(SensorId(0), 0);
        let mut src = FaultySensorSource::new(
            Box::new(ConstantSource::new(vec![
                (
                    "a".into(),
                    tempest_sensors::SensorKind::CpuCore,
                    tempest_sensors::Temperature::from_celsius(40.0),
                ),
                (
                    "b".into(),
                    tempest_sensors::SensorKind::Ambient,
                    tempest_sensors::Temperature::from_celsius(25.0),
                ),
            ])),
            plan,
        );
        sample_round(&mut src, 99, &*sink);
        let ev = sink.drain();
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().any(|e| e.kind
            == EventKind::Gap {
                sensor: SensorId(0)
            }));
        assert!(ev
            .iter()
            .any(|e| matches!(e.kind, EventKind::Sample { sensor, .. } if sensor == SensorId(1))));
    }

    #[test]
    fn resilient_sampler_quarantines_dead_sensor_and_keeps_marking_gaps() {
        let sink = VecSink::new();
        let plan = FaultPlan::new(2).dead_after(SensorId(0), 0);
        let mut src = FaultySensorSource::new(Box::new(ConstantSource::single(40.0)), plan);
        let config = TempdConfig {
            max_retries: 1,
            retry_backoff: Duration::ZERO,
            quarantine_after: 3,
            ..Default::default()
        };
        let mut sampler = ResilientSampler::new(config);
        for t in 0..10u64 {
            sampler.round(&mut src, t, &*sink);
        }
        let h = sampler.health();
        assert_eq!(h.missed_reads, 10);
        assert_eq!(h.gaps_emitted, 10, "gaps continue during quarantine");
        assert_eq!(h.quarantined_sensors, 1);
        // Retries stop once quarantined: rounds 0,1,2 retried once each.
        assert_eq!(h.retries, 3);
        assert_eq!(h.reads_ok, 0);
        assert_eq!(h.coverage(), 0.0);
        let ev = sink.drain();
        assert_eq!(ev.len(), 10);
        assert!(ev.iter().all(|e| matches!(e.kind, EventKind::Gap { .. })));
    }

    #[test]
    fn resilient_sampler_recovers_intermittent_sensor_via_retry() {
        // A source that fails every other call: the round's first read
        // misses, the retry succeeds.
        struct Flaky {
            infos: Vec<tempest_sensors::SensorInfo>,
            calls: u64,
        }
        impl SensorSource for Flaky {
            fn sensors(&self) -> &[tempest_sensors::SensorInfo] {
                &self.infos
            }
            fn sample_into(&mut self, ts: u64, out: &mut Vec<SensorReading>) {
                self.calls += 1;
                if self.calls.is_multiple_of(2) {
                    out.push(SensorReading::new(
                        SensorId(0),
                        ts,
                        tempest_sensors::Temperature::from_celsius(40.0),
                    ));
                }
            }
        }
        let sink = VecSink::new();
        let mut src = Flaky {
            infos: vec![tempest_sensors::SensorInfo::new(
                0,
                "flaky",
                tempest_sensors::SensorKind::CpuCore,
            )],
            calls: 0,
        };
        let config = TempdConfig {
            max_retries: 2,
            retry_backoff: Duration::ZERO,
            ..Default::default()
        };
        let mut sampler = ResilientSampler::new(config);
        for t in 0..6u64 {
            sampler.round(&mut src, t, &*sink);
        }
        let h = sampler.health();
        // Each round makes two calls: the first (odd-numbered) read fails,
        // the retry (even-numbered) succeeds — so every read is recovered.
        assert_eq!(h.missed_reads, 0, "every miss was recovered by retry");
        assert_eq!(h.reads_ok, 6);
        assert_eq!(h.recovered_reads, 6);
        assert_eq!(h.coverage(), 1.0);
    }

    #[test]
    fn resilient_sampler_drops_nan_and_marks_gap() {
        let sink = VecSink::new();
        let plan = FaultPlan::new(3).poison_nan(SensorId(0), 1.0);
        let mut src = FaultySensorSource::new(Box::new(ConstantSource::single(40.0)), plan);
        let config = TempdConfig {
            max_retries: 0,
            ..Default::default()
        };
        let mut sampler = ResilientSampler::new(config);
        sampler.round(&mut src, 7, &*sink);
        let h = sampler.health();
        assert_eq!(h.nonfinite_dropped, 1);
        assert_eq!(h.missed_reads, 1);
        let ev = sink.drain();
        assert_eq!(ev.len(), 1);
        assert_eq!(
            ev[0].kind,
            EventKind::Gap {
                sensor: SensorId(0)
            }
        );
    }

    #[test]
    fn quarantine_lifts_when_sensor_recovers() {
        // Dead for the first 5 rounds (timestamps 0..5), then alive.
        struct Lazarus {
            infos: Vec<tempest_sensors::SensorInfo>,
        }
        impl SensorSource for Lazarus {
            fn sensors(&self) -> &[tempest_sensors::SensorInfo] {
                &self.infos
            }
            fn sample_into(&mut self, ts: u64, out: &mut Vec<SensorReading>) {
                if ts >= 5 {
                    out.push(SensorReading::new(
                        SensorId(0),
                        ts,
                        tempest_sensors::Temperature::from_celsius(41.0),
                    ));
                }
            }
        }
        let sink = VecSink::new();
        let mut src = Lazarus {
            infos: vec![tempest_sensors::SensorInfo::new(
                0,
                "lazarus",
                tempest_sensors::SensorKind::CpuCore,
            )],
        };
        let config = TempdConfig {
            max_retries: 0,
            quarantine_after: 2,
            ..Default::default()
        };
        let mut sampler = ResilientSampler::new(config);
        for t in 0..10u64 {
            sampler.round(&mut src, t, &*sink);
        }
        let h = sampler.health();
        assert_eq!(h.quarantined_sensors, 0, "quarantine lifted on recovery");
        assert_eq!(h.missed_reads, 5);
        assert_eq!(h.reads_ok, 5);
    }

    #[test]
    fn tempd_thread_survives_full_fault_storm() {
        // Every fault class at once: the daemon must not panic and must
        // publish honest health accounting.
        let sink = VecSink::new();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let base = ConstantSource::new(vec![
            (
                "cpu0".into(),
                tempest_sensors::SensorKind::CpuCore,
                tempest_sensors::Temperature::from_celsius(50.0),
            ),
            (
                "cpu1".into(),
                tempest_sensors::SensorKind::CpuCore,
                tempest_sensors::Temperature::from_celsius(52.0),
            ),
            (
                "amb".into(),
                tempest_sensors::SensorKind::Ambient,
                tempest_sensors::Temperature::from_celsius(25.0),
            ),
        ]);
        let plan = FaultPlan::new(0xFA11)
            .dead_after(SensorId(0), 0)
            .poison_nan(SensorId(1), 0.5)
            .dropout(SensorId(2), 0.5);
        let faulty = FaultySensorSource::new(Box::new(base), plan);
        let tempd = Tempd::spawn(
            Box::new(faulty),
            clock,
            sink.clone(),
            TempdConfig {
                rate_hz: 200.0,
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                quarantine_after: 4,
                emit_gaps: true,
            },
        );
        std::thread::sleep(Duration::from_millis(200));
        let stats = tempd.shutdown();
        assert!(stats.rounds > 5);
        let h = stats.health;
        assert!(h.missed_reads > 0, "dead sensor must register misses");
        assert!(h.gaps_emitted >= h.missed_reads);
        assert!(h.coverage() < 1.0);
        assert!(h.quarantined_sensors >= 1, "dead sensor quarantined");
        let ev = sink.drain();
        assert!(ev.iter().any(|e| matches!(e.kind, EventKind::Gap { .. })));
        // NaN never reaches the stream.
        assert!(ev
            .iter()
            .filter_map(|e| e.sample_celsius())
            .all(|c| c.is_finite()));
    }

    #[test]
    fn shutdown_reports_backpressure_drops_from_bounded_sink() {
        use crate::buffer::{ChannelSink, OverflowPolicy};
        // Queue of one batch, never drained: every round after the first
        // submit sheds, and shutdown must surface the exact count.
        let (sink, rx) = ChannelSink::bounded(1, OverflowPolicy::DropNewest);
        sink.submit(&[Event::sample(0, SensorId(0), 40.0)]);
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let tempd = Tempd::spawn(
            Box::new(ConstantSource::single(40.0)),
            clock,
            sink.clone(),
            TempdConfig::at_rate(500.0),
        );
        std::thread::sleep(Duration::from_millis(100));
        let stats = tempd.shutdown();
        assert!(
            stats.health.samples_dropped_backpressure > 0,
            "a full queue must shed tempd submissions"
        );
        assert_eq!(
            stats.health.samples_dropped_backpressure,
            sink.dropped_for(Event::TEMPD_THREAD)
        );
        drop(rx);
    }

    #[test]
    fn interval_math() {
        let c = TempdConfig::at_rate(4.0);
        assert_eq!(c.interval_ns(), 250_000_000);
        let d = TempdConfig::default();
        assert_eq!(d.interval_ns(), 250_000_000);
    }
}
