//! Per-function thermal profiles — the content of the paper's tables.
//!
//! A [`FunctionProfile`] pairs a function's time statistics (inclusive/
//! exclusive wall time, call count) with per-sensor temperature summaries.
//! The §4.2 significance rule is applied here: *"Since the time spent in
//! foo2 is small relative to the sampling interval for the thermal sensors,
//! thermal statistical data is not considered significant for this
//! function"* — a function whose inclusive time is below the sampling
//! interval keeps its timing but is flagged insignificant and reports no
//! thermal statistics.

use crate::correlate::Correlation;
use crate::stats::Summary;
use crate::timeline::{Timeline, TimelineWarning};
use std::collections::BTreeMap;
use tempest_probe::func::FunctionDef;
use tempest_probe::trace::{NodeMeta, SalvageReport};
use tempest_sensors::{SensorId, SensorReading};

/// Per-node accounting of how much data survived the sense→trace→parse
/// pipeline, attached to every [`NodeProfile`].
///
/// A pristine run reports zeros everywhere and a coverage of 1.0. Every
/// recovery action — salvaging a truncated file, dropping an event with a
/// poisoned function id, skipping a non-monotonic timestamp window,
/// discarding a NaN sample — is counted here instead of silently absorbed,
/// so a profile built from damaged inputs advertises exactly what it lost.
#[derive(Debug, Clone, PartialEq)]
pub struct DataQuality {
    /// Whether the profile was produced with recovery enabled
    /// ([`crate::parser::AnalysisOptions::recover`]).
    pub recovered: bool,
    /// Scope (enter/exit) events inspected by the parser.
    pub events_seen: usize,
    /// Events dropped because their function id was absent from the
    /// symbol table (recover mode only; a strict parse errors instead).
    pub events_dropped_unknown_func: usize,
    /// Events dropped by the greedy monotonic-timestamp filter
    /// (recover mode only).
    pub events_dropped_nonmonotonic: usize,
    /// Events the trace file declared but salvage could not recover.
    pub events_lost_in_salvage: u64,
    /// Samples the trace file declared but salvage could not recover.
    pub samples_lost_in_salvage: u64,
    /// Non-finite sample temperatures discarded (during salvage or by the
    /// recovering parser).
    pub nonfinite_samples_skipped: u64,
    /// Scope events the writer shed under backpressure before they
    /// reached disk (from a spool session footer; 0 for plain traces).
    pub events_dropped_backpressure: u64,
    /// Sensor samples the writer shed under backpressure.
    pub samples_dropped_backpressure: u64,
    /// Explicit gap markers in the trace — each records one sensor read
    /// the tempd daemon could not obtain.
    pub gap_events: usize,
    /// Estimated sensor time lost to gaps: gap count × sampling interval.
    pub gap_time_ns: u64,
    /// Fraction (0.0–1.0) of expected sensor samples actually present,
    /// measured against the node's sensor inventory and its best-covered
    /// sensor. 1.0 = full coverage.
    pub sensor_coverage: f64,
    /// Whether the correlation found out-of-order sample timestamps and
    /// re-sorted a copy before attributing. No data is lost (so this does
    /// not affect [`DataQuality::is_pristine`]), but it indicates a writer
    /// that violated the format's ordering contract.
    pub samples_resorted: bool,
    /// The resource-limit overrun that stopped decoding or recovery
    /// early, if one did (declared-count/cardinality cap or byte budget
    /// from [`tempest_probe::limits::DecodeLimits`]).
    pub limit: Option<tempest_probe::limits::LimitExceeded>,
    /// True when a wall-clock deadline or cancellation tripped somewhere
    /// in the pipeline (decode, spool recovery, the parser walk, or the
    /// correlate sweep): the profile holds bounded partial results.
    pub deadline_hit: bool,
}

impl Default for DataQuality {
    fn default() -> Self {
        DataQuality {
            recovered: false,
            events_seen: 0,
            events_dropped_unknown_func: 0,
            events_dropped_nonmonotonic: 0,
            events_lost_in_salvage: 0,
            samples_lost_in_salvage: 0,
            nonfinite_samples_skipped: 0,
            events_dropped_backpressure: 0,
            samples_dropped_backpressure: 0,
            gap_events: 0,
            gap_time_ns: 0,
            sensor_coverage: 1.0,
            samples_resorted: false,
            limit: None,
            deadline_hit: false,
        }
    }
}

impl DataQuality {
    /// Total events dropped by the parser (unknown-func + non-monotonic).
    pub fn events_dropped(&self) -> usize {
        self.events_dropped_unknown_func + self.events_dropped_nonmonotonic
    }

    /// True when nothing was lost anywhere in the pipeline.
    pub fn is_pristine(&self) -> bool {
        self.events_dropped() == 0
            && self.events_lost_in_salvage == 0
            && self.samples_lost_in_salvage == 0
            && self.nonfinite_samples_skipped == 0
            && self.events_dropped_backpressure == 0
            && self.samples_dropped_backpressure == 0
            && self.gap_events == 0
            && self.sensor_coverage >= 1.0
            && self.limit.is_none()
            && !self.deadline_hit
    }

    /// Fold a salvage reader's losses into this record.
    pub fn absorb_salvage(&mut self, report: &SalvageReport) {
        self.events_lost_in_salvage += report.events_lost();
        self.samples_lost_in_salvage += report.samples_lost();
        self.nonfinite_samples_skipped += report.nonfinite_samples_skipped;
        self.events_dropped_backpressure += report.events_dropped_backpressure;
        self.samples_dropped_backpressure += report.samples_dropped_backpressure;
        if let Some(e) = report.limit {
            if e.kind == tempest_probe::limits::LimitKind::Deadline {
                self.deadline_hit = true;
            } else {
                self.limit = Some(e);
            }
        }
    }

    /// True when the profile was bounded by a resource limit or deadline
    /// rather than reflecting everything the input held. Partial-by-
    /// -policy results must not be cached as if they were the full answer.
    pub fn was_limited(&self) -> bool {
        self.limit.is_some() || self.deadline_hit
    }
}

impl std::fmt::Display for DataQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coverage {:.1}%, {} events dropped ({} unknown-func, {} non-monotonic), \
             {} events / {} samples lost to truncation, {} non-finite samples, \
             {} gaps (~{:.2} s)",
            self.sensor_coverage * 100.0,
            self.events_dropped(),
            self.events_dropped_unknown_func,
            self.events_dropped_nonmonotonic,
            self.events_lost_in_salvage,
            self.samples_lost_in_salvage,
            self.nonfinite_samples_skipped,
            self.gap_events,
            self.gap_time_ns as f64 / 1e9,
        )?;
        if self.events_dropped_backpressure + self.samples_dropped_backpressure > 0 {
            write!(
                f,
                ", {} events / {} samples shed by writer backpressure",
                self.events_dropped_backpressure, self.samples_dropped_backpressure
            )?;
        }
        if let Some(e) = &self.limit {
            write!(f, ", stopped by limit: {e}")?;
        }
        if self.deadline_hit {
            write!(f, ", deadline hit (partial results)")?;
        }
        if self.samples_resorted {
            write!(f, ", samples re-sorted")?;
        }
        Ok(())
    }
}

/// One function's complete profile on one node.
#[derive(Debug, Clone)]
pub struct FunctionProfile {
    /// Symbol-table entry (name, address, kind).
    pub func: FunctionDef,
    /// Wall time the function was on the stack — the paper's
    /// "Total Time(sec)" heading.
    pub inclusive_ns: u64,
    /// Wall time as the innermost frame.
    pub exclusive_ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Whether thermal statistics are significant (inclusive time ≥ one
    /// sampling interval *and* at least one sample landed inside).
    pub significant: bool,
    /// Per-sensor temperature summaries (°F), inclusive attribution.
    /// Empty when insignificant.
    pub thermal: BTreeMap<SensorId, Summary>,
    /// Per-sensor summaries over samples where this function was the
    /// innermost frame.
    pub thermal_exclusive: BTreeMap<SensorId, Summary>,
}

impl FunctionProfile {
    /// Inclusive time in seconds.
    pub fn inclusive_secs(&self) -> f64 {
        self.inclusive_ns as f64 / 1e9
    }

    /// The hottest per-sensor average over CPU-ish sensors, if significant.
    /// Used for hot-spot ranking.
    pub fn peak_avg_f(&self) -> Option<f64> {
        self.thermal
            .values()
            .map(|s| s.avg)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// One node's complete profile.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// Node identity and sensor inventory.
    pub node: NodeMeta,
    /// Profiles, sorted by inclusive time, descending — the paper lists
    /// functions "by total execution time (inclusive) spent in each".
    pub functions: Vec<FunctionProfile>,
    /// Trace span, ns.
    pub span_ns: u64,
    /// Estimated sensor sampling interval, ns (median gap), if samples
    /// were present.
    pub sample_interval_ns: Option<u64>,
    /// Repairs made during timeline reconstruction.
    pub warnings: Vec<TimelineWarning>,
    /// Sensor samples that fell outside every function interval.
    pub unattributed_samples: usize,
    /// How much data survived the pipeline (losses, gaps, coverage).
    pub quality: DataQuality,
}

impl NodeProfile {
    /// Look up a function profile by name.
    pub fn by_name(&self, name: &str) -> Option<&FunctionProfile> {
        self.functions.iter().find(|f| f.func.name == name)
    }
}

/// Estimate the per-sensor sampling interval as the median gap between
/// consecutive samples of the first sensor present, in time order (a
/// damaged trace may store them out of it).
pub fn estimate_sample_interval_ns(samples: &[SensorReading]) -> Option<u64> {
    let first_sensor = samples.first()?.sensor;
    let mut ts: Vec<u64> = samples
        .iter()
        .filter(|s| s.sensor == first_sensor)
        .map(|s| s.timestamp_ns)
        .collect();
    if ts.len() < 2 {
        return None;
    }
    ts.sort_unstable();
    let mut gaps: Vec<u64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_unstable();
    Some(gaps[gaps.len() / 2])
}

/// Assemble per-function profiles from the timeline and correlation.
pub fn build_profiles(
    node: NodeMeta,
    functions: &[FunctionDef],
    timeline: &Timeline,
    correlation: &Correlation,
    samples: &[SensorReading],
) -> NodeProfile {
    let sample_interval_ns = estimate_sample_interval_ns(samples);

    let mut profiles: Vec<FunctionProfile> = functions
        .iter()
        .filter_map(|def| {
            let times = timeline.times.get(&def.id)?;
            let fs = correlation.per_function.get(&def.id);
            // Significance: ran at least one sampling interval and actually
            // captured samples.
            let has_samples = fs.map(|f| !f.inclusive.is_empty()).unwrap_or(false);
            let long_enough = match sample_interval_ns {
                Some(dt) => times.inclusive_ns >= dt,
                None => false,
            };
            let significant = has_samples && long_enough;

            let mut thermal = BTreeMap::new();
            let mut thermal_exclusive = BTreeMap::new();
            if significant {
                if let Some(fs) = fs {
                    // The correlation already folded samples into streaming
                    // accumulators; summaries read straight out of them.
                    for (&sensor, stats) in &fs.inclusive {
                        if let Some(sum) = stats.summary() {
                            thermal.insert(sensor, sum);
                        }
                    }
                    for (&sensor, stats) in &fs.exclusive {
                        if let Some(sum) = stats.summary() {
                            thermal_exclusive.insert(sensor, sum);
                        }
                    }
                }
            }
            Some(FunctionProfile {
                func: def.clone(),
                inclusive_ns: times.inclusive_ns,
                exclusive_ns: times.exclusive_ns,
                calls: times.calls,
                significant,
                thermal,
                thermal_exclusive,
            })
        })
        .collect();

    profiles.sort_by_key(|p| std::cmp::Reverse(p.inclusive_ns));

    NodeProfile {
        node,
        functions: profiles,
        span_ns: timeline.span_ns(),
        sample_interval_ns,
        warnings: timeline.warnings.clone(),
        unattributed_samples: correlation.unattributed,
        quality: DataQuality::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlate;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionId, ScopeKind};
    use tempest_sensors::Temperature;

    const T0: ThreadId = ThreadId(0);
    const S0: SensorId = SensorId(0);

    fn defs() -> Vec<FunctionDef> {
        ["main", "foo1", "foo2"]
            .iter()
            .enumerate()
            .map(|(i, name)| FunctionDef {
                id: FunctionId(i as u32),
                name: name.to_string(),
                address: 0x400000 + 16 * i as u64,
                kind: ScopeKind::Function,
            })
            .collect()
    }

    /// Build the Figure-2 scenario: foo1 dominates (hot), foo2 is shorter
    /// than the sampling interval.
    fn fig2_profile() -> NodeProfile {
        let sec = 1_000_000_000u64;
        let events = vec![
            Event::enter(0, T0, FunctionId(0)), // main
            Event::enter(0, T0, FunctionId(1)), // foo1 0..60 s
            Event::exit(60 * sec, T0, FunctionId(1)),
            Event::enter(60 * sec, T0, FunctionId(2)), // foo2: 1 ms
            Event::exit(60 * sec + 1_000_000, T0, FunctionId(2)),
            Event::exit(61 * sec, T0, FunctionId(0)),
        ];
        let tl = Timeline::build(&events);
        // 4 Hz sampling: every 250 ms, warming from 34 °C to 51 °C.
        let samples: Vec<SensorReading> = (0..244)
            .map(|i| {
                let t = i as u64 * 250_000_000;
                let c = 34.0 + 17.0 * (i as f64 / 244.0);
                SensorReading::new(S0, t, Temperature::from_celsius(c))
            })
            .collect();
        let corr = correlate(&tl, &samples);
        build_profiles(NodeMeta::anonymous(), &defs(), &tl, &corr, &samples)
    }

    #[test]
    fn functions_sorted_by_inclusive_time() {
        let p = fig2_profile();
        let names: Vec<&str> = p.functions.iter().map(|f| f.func.name.as_str()).collect();
        assert_eq!(names, vec!["main", "foo1", "foo2"]);
    }

    #[test]
    fn short_function_is_insignificant() {
        // The paper: foo2's time is small relative to the sampling
        // interval, so no thermal stats.
        let p = fig2_profile();
        let foo2 = p.by_name("foo2").unwrap();
        assert!(!foo2.significant);
        assert!(foo2.thermal.is_empty());
        assert!(foo2.inclusive_ns > 0);
    }

    #[test]
    fn long_function_has_thermal_stats() {
        let p = fig2_profile();
        let foo1 = p.by_name("foo1").unwrap();
        assert!(foo1.significant);
        let s = &foo1.thermal[&S0];
        assert!(s.count > 200);
        // Warming ramp: max > min, and avg between them.
        assert!(s.max > s.min);
        assert!(s.avg > s.min && s.avg < s.max);
        assert!((s.var - s.sdv * s.sdv).abs() < 1e-9);
    }

    #[test]
    fn main_covers_whole_duration() {
        let p = fig2_profile();
        let main = p.by_name("main").unwrap();
        assert_eq!(main.inclusive_ns, 61_000_000_000);
        assert!((main.inclusive_secs() - 61.0).abs() < 1e-9);
    }

    #[test]
    fn sample_interval_estimated() {
        let p = fig2_profile();
        assert_eq!(p.sample_interval_ns, Some(250_000_000));
    }

    #[test]
    fn no_samples_means_no_significance() {
        let sec = 1_000_000_000u64;
        let events = vec![
            Event::enter(0, T0, FunctionId(0)),
            Event::exit(10 * sec, T0, FunctionId(0)),
        ];
        let tl = Timeline::build(&events);
        let corr = correlate(&tl, &[]);
        let p = build_profiles(NodeMeta::anonymous(), &defs(), &tl, &corr, &[]);
        let main = p.by_name("main").unwrap();
        assert!(!main.significant);
        assert_eq!(p.sample_interval_ns, None);
        // foo1/foo2 never ran → no profile entries for them.
        assert!(p.by_name("foo1").is_none());
    }

    #[test]
    fn peak_avg_tracks_hottest_sensor() {
        let p = fig2_profile();
        let foo1 = p.by_name("foo1").unwrap();
        let peak = foo1.peak_avg_f().unwrap();
        assert!((peak - foo1.thermal[&S0].avg).abs() < 1e-12);
    }

    #[test]
    fn single_sample_sensor_interval_is_none() {
        let samples = vec![SensorReading::new(S0, 0, Temperature::from_celsius(40.0))];
        assert_eq!(estimate_sample_interval_ns(&samples), None);
        assert_eq!(estimate_sample_interval_ns(&[]), None);
    }

    #[test]
    fn interval_estimation_uses_median_gap() {
        // Gaps: 100, 100, 100, 5000 (one hiccup) → median 100.
        let ts = [0u64, 100, 200, 300, 5300];
        let samples: Vec<SensorReading> = ts
            .iter()
            .map(|&t| SensorReading::new(S0, t, Temperature::from_celsius(40.0)))
            .collect();
        assert_eq!(estimate_sample_interval_ns(&samples), Some(100));
        // Stored out of time order, the same samples give the same gaps
        // rather than an underflow.
        let mut shuffled = samples.clone();
        shuffled.swap(1, 3);
        assert_eq!(estimate_sample_interval_ns(&shuffled), Some(100));
    }
}
