//! The one-call front door: trace in, profile out.
//!
//! Figure 1 of the paper: users "invoke the Tempest parser for post
//! processing" after a run. This module is that invocation, reached
//! through [`crate::api::AnalysisRequest`] — it chains timeline reconstruction, symbolisation (validating that every
//! event's function id resolves through the trace's symbol table, as the
//! original resolved addresses against the executable), correlation, and
//! profile assembly.
//!
//! Two dispositions toward damaged input:
//!
//! * **Strict** (default): any malformed content — an event referencing a
//!   function absent from the symbol table, timestamps running backwards,
//!   a non-finite sample temperature — is a typed [`ParseError`].
//! * **Recover** ([`AnalysisOptions::recover`]): malformed content is
//!   dropped, the longest usable subsequence is analysed, and every loss
//!   is tallied in the profile's [`DataQuality`] record.
//!   [`crate::api::AnalysisRequest::analyze_salvaged`] also folds in the
//!   losses a [`SalvageReport`] observed while reading a truncated trace
//!   file.

use crate::correlate::correlate_with_cancel;
use crate::profile::{build_profiles, DataQuality, NodeProfile};
use crate::timeline::{Admit, Timeline};
use std::borrow::Cow;
use tempest_probe::event::{Event, EventKind};
use tempest_probe::func::{FunctionDef, FunctionId};
use tempest_probe::limits::CancelToken;
use tempest_probe::trace::{NodeMeta, SalvageReport, Trace};
use tempest_sensors::SensorReading;

/// Knobs for the analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisOptions {
    /// Override the estimated sampling interval (ns) used by the
    /// significance rule. `None` = estimate from the trace.
    pub sample_interval_ns: Option<u64>,
    /// Recover from malformed input instead of erroring: drop events whose
    /// function id is unknown, greedily skip non-monotonic timestamp
    /// windows, discard non-finite samples, and record each loss in the
    /// resulting profile's [`DataQuality`].
    pub recover: bool,
    /// Number of time-window shards the correlate sweep splits the sample
    /// stream into: `0` (the default) picks one per available CPU, clamped
    /// so small traces stay sequential; `1` forces a sequential sweep;
    /// `n` uses exactly `n` shards. Every value produces bit-identical
    /// output — sharding only changes wall-clock time.
    pub shards: usize,
    /// Absolute wall-clock deadline for the whole analysis. When it
    /// passes mid-pipeline, the remaining work is skipped and the profile
    /// carries whatever was computed so far, flagged via
    /// [`DataQuality::deadline_hit`] — partial results, never an abort.
    /// A set deadline implies recover-style tolerance in the event walk
    /// (a hard error would defeat the point of a bounded best effort).
    pub deadline: Option<std::time::Instant>,
}

impl AnalysisOptions {
    /// Defaults with recovery enabled.
    pub fn recovering() -> Self {
        AnalysisOptions {
            recover: true,
            ..Default::default()
        }
    }
}

/// Errors from a strict analysis. Recover mode converts each of these
/// into counted drops instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// An event references a function id missing from the symbol table.
    UnknownFunction(u32),
    /// A scope event's timestamp ran backwards relative to its
    /// predecessor — the time-sorted contract is broken.
    NonMonotonicTimestamps {
        /// Index of the offending event in `trace.events`.
        index: usize,
        /// Timestamp of the last in-order scope event, ns.
        prev_ns: u64,
        /// The offending (earlier) timestamp, ns.
        ts_ns: u64,
    },
    /// A sensor sample carries a non-finite (NaN/∞) temperature.
    NonFiniteSample {
        /// Index of the offending sample in `trace.samples`.
        index: usize,
    },
    /// The trace contains no scope events at all — there is nothing to
    /// profile. Only reported by diagnostics ([`ParseError::classify`]);
    /// `analyze_trace` itself tolerates empty traces.
    NoScopeEvents,
}

impl ParseError {
    /// Pre-flight a trace: return the first problem a strict parse would
    /// hit, or `None` for a clean trace. Used by `tempest doctor`.
    pub fn classify(trace: &Trace) -> Option<ParseError> {
        let mut quality = DataQuality::default();
        let never = CancelToken::default();
        let mut walk = Walk::new(trace, false, &never);
        let strict = trace
            .events
            .iter()
            .enumerate()
            .try_for_each(|(index, e)| walk.admit(index, e, &mut quality).map(drop))
            .and_then(|()| finite_samples(trace, false, &mut quality).map(drop));
        match strict {
            Err(problem) => Some(problem),
            Ok(()) if quality.events_seen == 0 => Some(ParseError::NoScopeEvents),
            Ok(()) => None,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownFunction(id) => {
                write!(
                    f,
                    "event references unknown function id {id} (corrupt symbol table?)"
                )
            }
            ParseError::NonMonotonicTimestamps {
                index,
                prev_ns,
                ts_ns,
            } => write!(
                f,
                "event {index} steps backwards in time ({ts_ns} ns after {prev_ns} ns) — \
                 clock step or unserialised writers?"
            ),
            ParseError::NonFiniteSample { index } => {
                write!(f, "sample {index} has a non-finite temperature")
            }
            ParseError::NoScopeEvents => {
                write!(f, "trace contains no function entry/exit events")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Id → position in one symbol table, built once so that resolving many
/// ids costs O(1) each on an id-indexed table (every table Tempest
/// writes) and O(log n) on any other, where [`Trace::function`] scans.
/// It finds the definition [`Trace::function`] finds.
pub(crate) struct FunctionIndex {
    /// `None` when `functions[i].id == i` throughout. Otherwise each id
    /// once, ascending, with the position of its definition.
    sorted: Option<Vec<(u32, u32)>>,
    len: usize,
}

impl FunctionIndex {
    pub(crate) fn new(functions: &[FunctionDef]) -> FunctionIndex {
        let len = functions.len();
        let at = |id: u32| functions.get(id as usize).is_some_and(|f| f.id.0 == id);
        if (0..len).all(|i| at(i as u32)) {
            return FunctionIndex { sorted: None, len };
        }
        let mut sorted: Vec<(u32, u32)> = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.id.0, i as u32))
            .collect();
        // The first definition of each id, unless `functions[id]` is one.
        sorted.sort_unstable();
        sorted.dedup_by_key(|&mut (id, _)| id);
        for (id, position) in &mut sorted {
            if at(*id) {
                *position = *id;
            }
        }
        FunctionIndex {
            sorted: Some(sorted),
            len,
        }
    }

    /// Where the definition of `id` sits in the table, if it has one.
    pub(crate) fn position(&self, id: FunctionId) -> Option<usize> {
        match &self.sorted {
            None => ((id.0 as usize) < self.len).then_some(id.0 as usize),
            Some(sorted) => {
                let k = sorted.binary_search_by_key(&id.0, |&(id, _)| id).ok()?;
                Some(sorted[k].1 as usize)
            }
        }
    }
}

/// Symbolisation + monotonicity walk, asked about each event as the
/// timeline replay reads it. The original tool did the analogous
/// address→symbol lookup via the ELF symbol table; an unresolvable
/// address meant a corrupt trace. Strict, the first problem is the error;
/// tolerant, the offending events are dropped (greedy monotonic filter:
/// keep a scope event only if it does not precede the last kept one) and
/// counted.
struct Walk<'a> {
    /// The trace's symbol table, indexed once.
    functions: FunctionIndex,
    tolerant: bool,
    cancel: &'a CancelToken,
    /// Timestamp of the last scope event kept.
    last_ts: u64,
}

impl<'a> Walk<'a> {
    fn new(trace: &Trace, tolerant: bool, cancel: &'a CancelToken) -> Walk<'a> {
        Walk {
            functions: FunctionIndex::new(&trace.functions),
            tolerant,
            cancel,
            last_ts: 0,
        }
    }

    /// The verdict on event `index`, counted in `quality`.
    fn admit(
        &mut self,
        index: usize,
        e: &Event,
        quality: &mut DataQuality,
    ) -> Result<Admit, ParseError> {
        if index & 0xFFF == 0 && self.cancel.is_cancelled() {
            // Deadline passed mid-walk: profile what was kept so far.
            quality.deadline_hit = true;
            return Ok(Admit::Stop);
        }
        let func = match e.kind {
            EventKind::Enter { func } | EventKind::Exit { func } => func,
            EventKind::Gap { .. } => {
                quality.gap_events += 1;
                return Ok(Admit::Keep);
            }
            EventKind::Sample { .. } => return Ok(Admit::Keep),
        };
        quality.events_seen += 1;
        if self.functions.position(func).is_none() {
            if self.tolerant {
                quality.events_dropped_unknown_func += 1;
                return Ok(Admit::Drop);
            }
            return Err(ParseError::UnknownFunction(func.0));
        }
        if e.timestamp_ns < self.last_ts {
            if self.tolerant {
                quality.events_dropped_nonmonotonic += 1;
                return Ok(Admit::Drop);
            }
            return Err(ParseError::NonMonotonicTimestamps {
                index,
                prev_ns: self.last_ts,
                ts_ns: e.timestamp_ns,
            });
        }
        self.last_ts = e.timestamp_ns;
        Ok(Admit::Keep)
    }
}

/// Sample hygiene: the statistics layer requires finite temperatures.
fn finite_samples<'a>(
    trace: &'a Trace,
    tolerant: bool,
    quality: &mut DataQuality,
) -> Result<Cow<'a, [SensorReading]>, ParseError> {
    match trace
        .samples
        .iter()
        .position(|s| !s.temperature.celsius().is_finite())
    {
        None => Ok(Cow::Borrowed(&trace.samples)),
        Some(index) if !tolerant => Err(ParseError::NonFiniteSample { index }),
        Some(_) => {
            let finite: Vec<SensorReading> = trace
                .samples
                .iter()
                .filter(|s| s.temperature.celsius().is_finite())
                .copied()
                .collect();
            quality.nonfinite_samples_skipped += (trace.samples.len() - finite.len()) as u64;
            Ok(Cow::Owned(finite))
        }
    }
}

/// Analyse one node's trace into a [`NodeProfile`], folding the losses a
/// salvage read observed ([`Trace::read_salvage`]) into its
/// [`DataQuality`]. The analysis body behind the [`crate::api`] facade.
pub(crate) fn analyze_trace_salvaged(
    trace: &Trace,
    salvage: Option<&SalvageReport>,
    options: AnalysisOptions,
) -> Result<NodeProfile, ParseError> {
    let mut quality = DataQuality {
        recovered: options.recover,
        ..Default::default()
    };
    if let Some(report) = salvage {
        quality.absorb_salvage(report);
    }
    let cancel = CancelToken::until_opt(options.deadline);
    // A deadline asks for the best bounded effort, so the walk tolerates
    // damage the way recover mode does instead of erroring out.
    let tolerant = options.recover || options.deadline.is_some();

    let mut walk = Walk::new(trace, tolerant, &cancel);
    let timeline = {
        let _stage = tempest_obs::stage("timeline");
        Timeline::build_with(&trace.events, |index, e| walk.admit(index, e, &mut quality))?
    };
    let samples = finite_samples(trace, tolerant, &mut quality)?;
    let correlation = correlate_with_cancel(&timeline, &samples, options.shards, &cancel);
    quality.samples_resorted = correlation.resorted;
    quality.deadline_hit |= correlation.cancelled;
    let mut profile = {
        let _stage = tempest_obs::stage("profile");
        build_profiles(
            trace.node.clone(),
            &trace.functions,
            &timeline,
            &correlation,
            &samples,
        )
    };
    if let Some(dt) = options.sample_interval_ns {
        profile.sample_interval_ns = Some(dt);
        // Re-apply the significance rule under the forced interval.
        for f in &mut profile.functions {
            let long_enough = f.inclusive_ns >= dt;
            if !long_enough {
                f.significant = false;
                f.thermal.clear();
                f.thermal_exclusive.clear();
            }
        }
    }
    quality.gap_time_ns = profile
        .sample_interval_ns
        .unwrap_or(0)
        .saturating_mul(quality.gap_events as u64);
    quality.sensor_coverage = sensor_coverage(&trace.node, &samples);
    profile.quality = quality;
    Ok(profile)
}

/// Fraction of expected sensor samples actually present.
///
/// Expectation is inferred from the data itself: the best-covered sensor
/// defines how many samples a healthy sensor should have produced, and
/// the node's inventory (or, if empty, the set of sensors observed)
/// defines how many sensors should have produced them. A sensor that was
/// dead all run therefore drags coverage down even though it wrote no
/// samples at all.
fn sensor_coverage(node: &NodeMeta, samples: &[SensorReading]) -> f64 {
    // Samples per sensor, a direct table over the `u16` id.
    let mut per_sensor: Vec<usize> = Vec::new();
    for s in samples {
        let id = usize::from(s.sensor.0);
        if per_sensor.len() <= id {
            per_sensor.resize(id + 1, 0);
        }
        per_sensor[id] += 1;
    }
    let observed = per_sensor.iter().filter(|&&n| n > 0).count();
    let expected_sensors = node.sensors.len().max(observed);
    if expected_sensors == 0 {
        return 1.0; // nothing expected, nothing missing
    }
    let best = per_sensor.iter().copied().max().unwrap_or(0);
    if best == 0 {
        return 0.0; // sensors exist but none ever produced a sample
    }
    (samples.len() as f64 / (best * expected_sensors) as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
    use tempest_sensors::{SensorId, Temperature};

    fn analyze_trace(trace: &Trace, options: AnalysisOptions) -> Result<NodeProfile, ParseError> {
        analyze_trace_salvaged(trace, None, options)
    }

    fn mini_trace() -> Trace {
        let sec = 1_000_000_000u64;
        Trace {
            node: NodeMeta::anonymous(),
            functions: vec![FunctionDef {
                id: FunctionId(0),
                name: "main".into(),
                address: 0x400000,
                kind: ScopeKind::Function,
            }],
            events: vec![
                Event::enter(0, ThreadId(0), FunctionId(0)),
                Event::exit(10 * sec, ThreadId(0), FunctionId(0)),
            ],
            samples: (0..40)
                .map(|i| {
                    SensorReading::new(
                        SensorId(0),
                        i * 250_000_000,
                        Temperature::from_celsius(40.0),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn end_to_end_analysis() {
        let p = analyze_trace(&mini_trace(), AnalysisOptions::default()).unwrap();
        assert_eq!(p.functions.len(), 1);
        let main = p.by_name("main").unwrap();
        assert!(main.significant);
        assert_eq!(main.thermal[&SensorId(0)].count, 40);
        assert!((main.thermal[&SensorId(0)].avg - 104.0).abs() < 1e-9);
        assert!(p.quality.is_pristine(), "{}", p.quality);
        assert!(!p.quality.recovered);
    }

    #[test]
    fn unknown_function_id_is_an_error() {
        let mut t = mini_trace();
        t.events.push(Event::enter(1, ThreadId(0), FunctionId(9)));
        let err = analyze_trace(&t, AnalysisOptions::default()).unwrap_err();
        assert!(matches!(err, ParseError::UnknownFunction(9)));
        assert!(err.to_string().contains("unknown function id 9"));
    }

    #[test]
    fn forced_sample_interval_reapplies_significance() {
        // Force an interval longer than main's 10 s: nothing significant.
        let p = analyze_trace(
            &mini_trace(),
            AnalysisOptions {
                sample_interval_ns: Some(11_000_000_000),
                ..Default::default()
            },
        )
        .unwrap();
        let main = p.by_name("main").unwrap();
        assert!(!main.significant);
        assert!(main.thermal.is_empty());
    }

    #[test]
    fn recover_drops_unknown_function_events() {
        let mut t = mini_trace();
        t.events.push(Event::enter(1, ThreadId(0), FunctionId(9)));
        let p = analyze_trace(&t, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.events_dropped_unknown_func, 1);
        assert!(p.quality.recovered);
        // The valid part of the trace still profiles normally.
        assert!(p.by_name("main").unwrap().significant);
    }

    #[test]
    fn strict_rejects_backwards_timestamps_recover_skips_them() {
        let mut t = mini_trace();
        // Splice in a window that runs backwards: 5 s, then 2 s.
        t.events
            .insert(1, Event::enter(5_000_000_000, ThreadId(0), FunctionId(0)));
        t.events
            .insert(2, Event::exit(2_000_000_000, ThreadId(0), FunctionId(0)));
        let err = analyze_trace(&t, AnalysisOptions::default()).unwrap_err();
        assert!(
            matches!(err, ParseError::NonMonotonicTimestamps { index: 2, .. }),
            "{err:?}"
        );
        let p = analyze_trace(&t, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.events_dropped_nonmonotonic, 1);
        assert!(p.by_name("main").is_some());
    }

    #[test]
    fn strict_rejects_nan_samples_recover_discards_them() {
        let mut t = mini_trace();
        t.samples.push(SensorReading::new(
            SensorId(0),
            1,
            Temperature::from_celsius(f64::NAN),
        ));
        let err = analyze_trace(&t, AnalysisOptions::default()).unwrap_err();
        assert!(matches!(err, ParseError::NonFiniteSample { index: 40 }));
        let p = analyze_trace(&t, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.nonfinite_samples_skipped, 1);
        assert_eq!(p.by_name("main").unwrap().thermal[&SensorId(0)].count, 40);
    }

    #[test]
    fn gap_markers_are_counted_and_costed() {
        let mut t = mini_trace();
        for i in 0..4 {
            t.events.push(Event::gap(i * 250_000_000, SensorId(0)));
        }
        let p = analyze_trace(&t, AnalysisOptions::recovering()).unwrap();
        assert_eq!(p.quality.gap_events, 4);
        // 4 gaps × 250 ms estimated interval.
        assert_eq!(p.quality.gap_time_ns, 1_000_000_000);
        assert!(!p.quality.is_pristine());
    }

    #[test]
    fn coverage_reflects_missing_sensor_data() {
        // Inventory says two sensors; only sensor 0 produced samples.
        let mut t = mini_trace();
        t.node.sensors = vec![
            tempest_probe::trace::SensorMeta {
                id: SensorId(0),
                label: "CPU0".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            },
            tempest_probe::trace::SensorMeta {
                id: SensorId(1),
                label: "CPU1".into(),
                kind: tempest_sensors::SensorKind::CpuCore,
            },
        ];
        let p = analyze_trace(&t, AnalysisOptions::recovering()).unwrap();
        assert!(
            (p.quality.sensor_coverage - 0.5).abs() < 1e-9,
            "{}",
            p.quality.sensor_coverage
        );
    }

    #[test]
    fn salvage_report_losses_flow_into_quality() {
        let report = SalvageReport {
            truncated_in: Some(tempest_probe::trace::TraceSection::Samples),
            events_declared: 100,
            events_salvaged: 100,
            samples_declared: 40,
            samples_salvaged: 25,
            nonfinite_samples_skipped: 2,
            events_dropped_backpressure: 7,
            samples_dropped_backpressure: 3,
            limit: None,
        };
        let p = analyze_trace_salvaged(&mini_trace(), Some(&report), AnalysisOptions::recovering())
            .unwrap();
        assert_eq!(p.quality.samples_lost_in_salvage, 15);
        assert_eq!(p.quality.nonfinite_samples_skipped, 2);
        assert_eq!(p.quality.events_lost_in_salvage, 0);
        assert_eq!(p.quality.events_dropped_backpressure, 7);
        assert_eq!(p.quality.samples_dropped_backpressure, 3);
        assert!(!p.quality.is_pristine(), "shed events are not pristine");
        assert!(p.quality.to_string().contains("backpressure"));
    }

    #[test]
    fn limit_overruns_surface_in_data_quality() {
        use tempest_probe::limits::{LimitExceeded, LimitKind};
        let report = SalvageReport {
            truncated_in: Some(tempest_probe::trace::TraceSection::Functions),
            limit: Some(LimitExceeded {
                kind: LimitKind::Cardinality,
                what: "functions",
                observed: 1 << 31,
                limit: 65_536,
            }),
            ..Default::default()
        };
        let p = analyze_trace_salvaged(&mini_trace(), Some(&report), AnalysisOptions::recovering())
            .unwrap();
        let hit = p.quality.limit.expect("limit carried into quality");
        assert_eq!(hit.what, "functions");
        assert!(!p.quality.is_pristine());
        assert!(p.quality.was_limited());
        assert!(p.quality.to_string().contains("stopped by limit"));
    }

    #[test]
    fn expired_deadline_still_renders_partial_results() {
        let t = mini_trace();
        let options = AnalysisOptions {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..Default::default()
        };
        // Strict options + expired deadline: no error, a flagged profile.
        let p = analyze_trace(&t, options).unwrap();
        assert!(p.quality.deadline_hit);
        assert!(p.quality.was_limited());
        assert!(!p.quality.is_pristine());
        // A generous deadline leaves the analysis untouched.
        let future = AnalysisOptions {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let full = analyze_trace(&t, future).unwrap();
        assert!(!full.quality.deadline_hit);
        assert!(full.by_name("main").unwrap().significant);
    }

    #[test]
    fn function_index_finds_what_trace_function_finds() {
        let def = |id: u32, name: &str| FunctionDef {
            id: FunctionId(id),
            name: name.into(),
            address: 0,
            kind: ScopeKind::Function,
        };
        let tables = [
            vec![def(0, "a"), def(1, "b"), def(2, "c")],
            vec![def(2, "c"), def(0, "a"), def(1, "b")],
            // Duplicates: `functions[1]` is a definition of 1, the first
            // definition of 7 sits at position 0.
            vec![
                def(7, "x"),
                def(1, "b"),
                def(1, "b2"),
                def(7, "y"),
                def(9, "z"),
            ],
        ];
        for functions in tables {
            let mut trace = mini_trace();
            trace.functions = functions;
            let index = FunctionIndex::new(&trace.functions);
            for id in (0..12).map(FunctionId) {
                let got = index.position(id).map(|at| &trace.functions[at].name);
                assert_eq!(got, trace.function(id).map(|f| &f.name), "{id:?}");
            }
        }
    }

    #[test]
    fn classify_triages_trace_damage() {
        assert_eq!(ParseError::classify(&mini_trace()), None);
        let mut unknown = mini_trace();
        unknown
            .events
            .push(Event::enter(1, ThreadId(0), FunctionId(7)));
        assert!(matches!(
            ParseError::classify(&unknown),
            Some(ParseError::UnknownFunction(7))
        ));
        let empty = Trace {
            node: NodeMeta::anonymous(),
            functions: vec![],
            events: vec![],
            samples: vec![],
        };
        assert_eq!(
            ParseError::classify(&empty),
            Some(ParseError::NoScopeEvents)
        );
    }
}
