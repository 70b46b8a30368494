//! Slow, obviously-correct references for the analysis front end and
//! for spool recovery.
//!
//! `Timeline::build` replays every thread's call stack in one pass over
//! the interleaved event stream, and `correlate_with` sweeps the samples
//! over columnar, sharded batches. Both are checked here against naive
//! definitions written for clarity, not speed:
//!
//! * the **timeline reference** replays each thread's events on their
//!   own, with a plain `Vec` stack and linear searches, takes a
//!   function's inclusive time as the union of its intervals on each
//!   thread, orders the intervals by (start, depth) with ties in the
//!   order their frames closed, and the warnings in the order of the
//!   events that raised them;
//! * the **correlate reference** is the paper's §3 definition: for each
//!   sample, every function of `Timeline::active_at(t)` once
//!   (inclusive), and per thread the deepest interval covering `t`
//!   (exclusive);
//! * the **walk reference** is the parser's symbol and timestamp check
//!   as a pass of its own that copies out the events it keeps, which the
//!   two references above then analyse; `analyze_trace` checks the
//!   events inside its one replay instead.
//!
//! The generated streams mix threads and function ids (sparse ones and
//! ones from the whole `u32` range included), equal timestamps,
//! zero-length calls, recursion, stray and mismatched exits, frames left
//! open at the end, gap markers, and samples before the first and after
//! the last event; the generated traces add symbol tables out of id
//! order or missing ids, and events moved back in time. One case replays
//! 100k threads and measures the replay's peak heap.
//!
//! `spool::recover_with` decodes each events frame in place, straight
//! into the trace, and sorts a stream only when it arrived out of order.
//! The **recovery reference** reads the same frames but decodes each
//! events frame into a vector of its own with byte-level code, then
//! concatenates the vectors and splits and stable-sorts the result, and
//! counts the report frame by frame. Seeded spools from one to four
//! interleaved threads, with one drawn kind of damage, must recover to
//! the same trace and report.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tempest_core::correlate::{correlate_with, Correlation, FunctionSamples};
use tempest_core::profile::build_profiles;
use tempest_core::stats::StreamingStats;
use tempest_core::timeline::{FunctionTimes, Interval, Timeline, TimelineWarning};
use tempest_core::{AnalysisRequest, FunctionProfile, NodeProfile, ParseError};
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
use tempest_probe::limits::{CancelToken, DecodeLimits, LimitExceeded, LimitKind};
use tempest_probe::spool::{
    self, Decoded, FrameFail, FsyncPolicy, SegmentReader, SpoolConfig, SpoolReport, SpoolWriter,
};
use tempest_probe::trace::{NodeMeta, SalvageReport, SensorMeta, Trace, TraceSection};
use tempest_sensors::{SensorId, SensorKind, SensorReading, Temperature};

/// Thread ids the generator draws from: dense, sparse and near the top.
const THREADS: [ThreadId; 4] = [
    ThreadId(0),
    ThreadId(1),
    ThreadId(7),
    ThreadId(u32::MAX - 1),
];

/// Function ids the generator draws from: dense, sparse and the largest.
const FUNCS: [FunctionId; 6] = [
    FunctionId(0),
    FunctionId(1),
    FunctionId(2),
    FunctionId(3),
    FunctionId(1 << 20),
    FunctionId(u32::MAX),
];

// ---------- the references --------------------------------------------------

/// What the timeline reference computes.
struct ReferenceTimeline {
    /// In the public order: by (start, depth), ties in close order.
    intervals: Vec<Interval>,
    times: HashMap<FunctionId, FunctionTimes>,
    warnings: Vec<TimelineWarning>,
}

/// One scope event of a thread: its place in the stream, its function,
/// whether it enters, and its timestamp.
type ScopeStep = (usize, FunctionId, bool, u64);

/// Replay each thread's scope events on their own.
fn reference_timeline(events: &[Event]) -> ReferenceTimeline {
    let end = events.iter().map(|e| e.timestamp_ns).max().unwrap_or(0);
    // Each thread's scope events with their place in the stream, threads
    // in first-appearance order.
    let mut threads: Vec<(ThreadId, Vec<ScopeStep>)> = Vec::new();
    let mut nth_of: HashMap<ThreadId, usize> = HashMap::new();
    for (at, e) in events.iter().enumerate() {
        let (func, is_enter) = match e.kind {
            EventKind::Enter { func } => (func, true),
            EventKind::Exit { func } => (func, false),
            EventKind::Sample { .. } | EventKind::Gap { .. } => continue,
        };
        let nth = *nth_of.entry(e.thread).or_insert_with(|| {
            threads.push((e.thread, Vec::new()));
            threads.len() - 1
        });
        threads[nth].1.push((at, func, is_enter, e.timestamp_ns));
    }

    // Each interval with the index of the event that closed its frame,
    // and each warning with the index of the event that raised it.
    // Frames left open close after every event, thread by thread in
    // first-appearance order. Frames one event closes differ in depth, so
    // (start, depth, close) never ties.
    let mut closed: Vec<(usize, Interval)> = Vec::new();
    let mut times: HashMap<FunctionId, FunctionTimes> = HashMap::new();
    let mut warnings: Vec<(usize, TimelineWarning)> = Vec::new();
    for (nth, (thread, mine)) in threads.into_iter().enumerate() {
        let mut stack: Vec<(FunctionId, u64)> = Vec::new();
        let mut prev: Option<u64> = None;
        for (at, func, is_enter, t) in mine {
            // The slice since this thread's previous event belongs to the
            // frame that was on top during it.
            if let (Some(p), Some(&(top, _))) = (prev, stack.last()) {
                times.entry(top).or_default().exclusive_ns += t - p;
            }
            prev = Some(t);
            if is_enter {
                times.entry(func).or_default().calls += 1;
                stack.push((func, t));
                continue;
            }
            match stack.iter().rposition(|&(f, _)| f == func) {
                None => warnings.push((
                    at,
                    TimelineWarning::ExitWithoutEnter {
                        thread,
                        func,
                        at_ns: t,
                    },
                )),
                Some(pos) => {
                    if pos + 1 != stack.len() {
                        let expected = stack[stack.len() - 1].0;
                        warnings.push((
                            at,
                            TimelineWarning::MismatchedExit {
                                thread,
                                expected,
                                got: func,
                                at_ns: t,
                            },
                        ));
                    }
                    while stack.len() > pos {
                        let (f, start) = stack.pop().unwrap();
                        let iv = Interval {
                            func: f,
                            thread,
                            start_ns: start,
                            end_ns: t,
                            depth: stack.len() as u32,
                            truncated: false,
                        };
                        closed.push((at, iv));
                    }
                }
            }
        }
        let left_open = events.len() + nth;
        if !stack.is_empty() {
            let count = stack.len();
            warnings.push((left_open, TimelineWarning::UnclosedFrames { thread, count }));
        }
        while let Some((f, start)) = stack.pop() {
            let iv = Interval {
                func: f,
                thread,
                start_ns: start,
                end_ns: end,
                depth: stack.len() as u32,
                truncated: true,
            };
            closed.push((left_open, iv));
        }
    }
    closed.sort_by_key(|&(close, iv)| (iv.start_ns, iv.depth, close));
    let intervals: Vec<Interval> = closed.into_iter().map(|(_, iv)| iv).collect();
    warnings.sort_by_key(|&(raised, _)| raised);
    let warnings = warnings.into_iter().map(|(_, w)| w).collect();

    // Inclusive time: the measure of the union of each function's
    // intervals, thread by thread.
    let mut spans: HashMap<(ThreadId, FunctionId), Vec<(u64, u64)>> = HashMap::new();
    for iv in &intervals {
        spans
            .entry((iv.thread, iv.func))
            .or_default()
            .push((iv.start_ns, iv.end_ns));
    }
    for ((_, func), mut list) in spans {
        list.sort_unstable();
        let mut union = 0;
        let mut covered_to = 0;
        for (start, end) in list {
            let from = start.max(covered_to);
            if end > from {
                union += end - from;
            }
            covered_to = covered_to.max(end);
        }
        times.entry(func).or_default().inclusive_ns += union;
    }
    ReferenceTimeline {
        intervals,
        times,
        warnings,
    }
}

/// Per function: sensor → values, inclusive and exclusive.
type ReferenceSamples = HashMap<FunctionId, [HashMap<SensorId, StreamingStats>; 2]>;

/// Attribute each sample by the definition, one sample at a time.
fn reference_correlation(tl: &Timeline, samples: &[SensorReading]) -> (ReferenceSamples, usize) {
    let mut per_function: ReferenceSamples = HashMap::new();
    let mut unattributed = 0;
    for s in samples {
        let t = s.timestamp_ns;
        let active = tl.active_at(t);
        if active.is_empty() {
            unattributed += 1;
            continue;
        }
        let value = s.temperature.fahrenheit();
        let mut push = |func: FunctionId, kind: usize| {
            per_function.entry(func).or_default()[kind]
                .entry(s.sensor)
                .or_default()
                .push(value);
        };
        let mut funcs: Vec<FunctionId> = Vec::new();
        let mut threads: Vec<ThreadId> = Vec::new();
        for iv in &active {
            if !funcs.contains(&iv.func) {
                funcs.push(iv.func);
                push(iv.func, 0);
            }
            if !threads.contains(&iv.thread) {
                threads.push(iv.thread);
            }
        }
        for thread in threads {
            let deepest = tl.executing_at(thread, t).expect("an active interval");
            push(deepest.func, 1);
        }
    }
    (per_function, unattributed)
}

// ---------- generated inputs ------------------------------------------------

/// One generated step: thread, function, operation, time advance.
type Op = (usize, usize, u8, u64);

/// Turn generated steps into a time-sorted stream. Most exits close the
/// thread's top frame; some name any function (stray or mismatched).
fn stream(ops: &[Op]) -> Vec<Event> {
    stream_over(ops, &THREADS, &FUNCS)
}

/// [`stream`] over other thread and function ids.
fn stream_over(ops: &[Op], threads: &[ThreadId], funcs: &[FunctionId]) -> Vec<Event> {
    let mut stacks: Vec<Vec<FunctionId>> = vec![Vec::new(); threads.len()];
    let mut events = Vec::new();
    let mut t = 10u64;
    for &(th, f, op, dt) in ops {
        t += dt;
        let (thread, stack) = (threads[th], &mut stacks[th]);
        match op {
            0..=4 => {
                stack.push(funcs[f]);
                events.push(Event::enter(t, thread, funcs[f]));
            }
            5..=7 => {
                let func = stack.pop().unwrap_or(funcs[f]);
                events.push(Event::exit(t, thread, func));
            }
            8 => {
                if let Some(pos) = stack.iter().rposition(|&g| g == funcs[f]) {
                    stack.truncate(pos);
                }
                events.push(Event::exit(t, thread, funcs[f]));
            }
            _ => events.push(Event::gap(t, SensorId(0))),
        }
    }
    events
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0usize..THREADS.len(), 0usize..FUNCS.len(), 0u8..10, 0u64..3),
        0..120,
    )
}

/// Samples anywhere from before the first event to well after the last,
/// on three sensors and a quantised value grid, in generated order.
fn arb_samples() -> impl Strategy<Value = Vec<SensorReading>> {
    prop::collection::vec((0u64..400, 0u16..3, 0u32..8), 0..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(t, sensor, v)| {
                let celsius = 30.0 + f64::from(v) * 0.5;
                SensorReading::new(SensorId(sensor), t, Temperature::from_celsius(celsius))
            })
            .collect()
    })
}

/// A trace for the parser: the generated stream over two thread ids and
/// two function ids drawn from the whole `u32` range besides small ones,
/// a symbol table in id order (the wide ids then unknown), permuted, or
/// with ids missing, and a few events moved back in time.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        arb_ops(),
        arb_samples(),
        (0..u32::MAX, 0..u32::MAX),
        (0..u32::MAX, 0..u32::MAX),
        (0u8..3, 0usize..6, prop::collection::vec(0usize..6, 0..3)),
        prop::collection::vec((0usize..120, 1u64..8), 0..3),
    )
        .prop_map(|(ops, samples, (ta, tb), (fa, fb), table, nudges)| {
            let threads = [0, 1, ta, tb].map(ThreadId);
            let funcs = [0, 1, 2, 3, fa, fb].map(FunctionId);
            let mut events = stream_over(&ops, &threads, &funcs);
            for (at, back) in nudges {
                if let Some(e) = events.get_mut(at) {
                    e.timestamp_ns = e.timestamp_ns.saturating_sub(back);
                }
            }
            let def = |id: FunctionId| FunctionDef {
                id,
                name: format!("f{}", id.0),
                address: 0x40_0000 + u64::from(id.0),
                kind: ScopeKind::Function,
            };
            let functions: Vec<FunctionDef> = match table {
                (0, ..) => (0..6).map(|k| def(FunctionId(k))).collect(),
                (1, shift, _) => {
                    let mut defs: Vec<FunctionDef> =
                        funcs.iter().rev().map(|&id| def(id)).collect();
                    defs.rotate_left(shift);
                    defs
                }
                (_, _, missing) => (0..funcs.len())
                    .filter(|k| !missing.contains(k))
                    .map(|k| def(funcs[k]))
                    .collect(),
            };
            Trace {
                node: NodeMeta::anonymous(),
                functions,
                events,
                samples,
            }
        })
}

// ---------- the parser's walk -------------------------------------------------

/// What the parser's walk keeps of a trace, and what it counts.
#[derive(Default)]
struct ReferenceWalk {
    kept: Vec<Event>,
    seen: usize,
    unknown: usize,
    nonmonotonic: usize,
    gaps: usize,
}

/// The walk as a separate pass before the replay: each scope event's
/// function looked up with `Trace::function`, its timestamp checked
/// against the last one kept, and the events kept copied out. Strict,
/// the first problem is the error.
fn reference_walk(trace: &Trace, tolerant: bool) -> Result<ReferenceWalk, ParseError> {
    let mut walk = ReferenceWalk::default();
    let mut last_ts = 0;
    for (index, e) in trace.events.iter().enumerate() {
        let func = match e.kind {
            EventKind::Enter { func } | EventKind::Exit { func } => func,
            EventKind::Gap { .. } => {
                walk.gaps += 1;
                walk.kept.push(*e);
                continue;
            }
            EventKind::Sample { .. } => {
                walk.kept.push(*e);
                continue;
            }
        };
        walk.seen += 1;
        if trace.function(func).is_none() {
            if !tolerant {
                return Err(ParseError::UnknownFunction(func.0));
            }
            walk.unknown += 1;
            continue;
        }
        if e.timestamp_ns < last_ts {
            if !tolerant {
                return Err(ParseError::NonMonotonicTimestamps {
                    index,
                    prev_ns: last_ts,
                    ts_ns: e.timestamp_ns,
                });
            }
            walk.nonmonotonic += 1;
            continue;
        }
        last_ts = e.timestamp_ns;
        walk.kept.push(*e);
    }
    Ok(walk)
}

/// The profile of the events the reference walk kept, through the
/// reference timeline and correlation.
fn reference_profile(trace: &Trace, walk: &ReferenceWalk) -> NodeProfile {
    let want = reference_timeline(&walk.kept);
    let mut tl = Timeline::default();
    let stamps = walk.kept.iter().map(|e| e.timestamp_ns);
    tl.span = (stamps.clone().min().unwrap_or(0), stamps.max().unwrap_or(0));
    tl.intervals = want.intervals;
    tl.times = want.times;
    tl.warnings = want.warnings;
    let (per_function, unattributed) = reference_correlation(&tl, &trace.samples);
    let mut correlation = Correlation {
        unattributed,
        ..Default::default()
    };
    for (func, [inclusive, exclusive]) in per_function {
        let samples = FunctionSamples {
            inclusive,
            exclusive,
        };
        correlation.per_function.insert(func, samples);
    }
    let (node, functions) = (trace.node.clone(), &trace.functions);
    build_profiles(node, functions, &tl, &correlation, &trace.samples)
}

// ---------- comparisons -----------------------------------------------------

/// The profile's times, thermal statistics, warnings and the walk's
/// counts against the reference's.
fn assert_profiles_match(
    got: &NodeProfile,
    want: &NodeProfile,
    walk: &ReferenceWalk,
) -> Result<(), String> {
    let rows = |p: &NodeProfile| -> Vec<String> {
        let row = |f: &FunctionProfile| {
            let (id, times) = (f.func.id.0, (f.inclusive_ns, f.exclusive_ns, f.calls));
            let thermal = (f.significant, &f.thermal, &f.thermal_exclusive);
            format!("{id} {times:?} {thermal:?}")
        };
        p.functions.iter().map(row).collect()
    };
    prop_assert_eq!(rows(got), rows(want));
    prop_assert_eq!(&got.warnings, &want.warnings);
    prop_assert_eq!(got.span_ns, want.span_ns);
    prop_assert_eq!(got.unattributed_samples, want.unattributed_samples);
    let q = &got.quality;
    prop_assert_eq!(
        (q.events_seen, q.events_dropped_unknown_func),
        (walk.seen, walk.unknown)
    );
    prop_assert_eq!(
        (q.events_dropped_nonmonotonic, q.gap_events),
        (walk.nonmonotonic, walk.gaps)
    );
    prop_assert!(!q.deadline_hit);
    Ok(())
}

fn assert_matches_reference(
    got: &Correlation,
    want: &(ReferenceSamples, usize),
) -> Result<(), String> {
    let (per_function, unattributed) = want;
    prop_assert_eq!(got.unattributed, *unattributed);
    let mut got_funcs: Vec<u32> = got.per_function.keys().map(|f| f.0).collect();
    let mut want_funcs: Vec<u32> = per_function.keys().map(|f| f.0).collect();
    got_funcs.sort_unstable();
    want_funcs.sort_unstable();
    prop_assert_eq!(got_funcs, want_funcs);
    for (func, [inclusive, exclusive]) in per_function {
        let fs = &got.per_function[func];
        for (got, want) in [(&fs.inclusive, inclusive), (&fs.exclusive, exclusive)] {
            prop_assert_eq!(got.len(), want.len());
            for (sensor, stats) in want {
                let got = got.get(sensor).map(|s| s.summary());
                prop_assert!(got == Some(stats.summary()), "{func:?} {sensor:?}: {got:?}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timeline_matches_the_per_thread_reference(ops in arb_ops()) {
        let events = stream(&ops);
        let tl = Timeline::build(&events);
        let want = reference_timeline(&events);
        // The exact public order, which the chrome export's bytes follow.
        prop_assert_eq!(&tl.intervals, &want.intervals);
        prop_assert_eq!(&tl.times, &want.times);
        prop_assert_eq!(&tl.warnings, &want.warnings);
    }

    #[test]
    fn checked_replay_matches_the_reference_walk(trace in arb_trace(), cut in 0.0f64..1.0) {
        for recover in [false, true] {
            let got = AnalysisRequest::new().recover(recover).analyze_trace(&trace);
            match reference_walk(&trace, recover) {
                Err(want) => prop_assert_eq!(got.err(), Some(want)),
                Ok(walk) => {
                    let got = got.map_err(|e| e.to_string())?;
                    assert_profiles_match(&got, &reference_profile(&trace, &walk), &walk)?;
                }
            }
        }
        // The trace's bytes cut short, salvaged and analyzed in recover
        // mode: the reference over what was salvaged, and the salvage
        // losses counted as the report counted them.
        let bytes = trace.to_bytes();
        let at = (bytes.len() as f64 * cut) as usize;
        if let Ok((salvaged, report)) = Trace::decode_salvage(&bytes[..at]) {
            let got = AnalysisRequest::new()
                .recover(true)
                .analyze_salvaged(&salvaged, Some(&report))
                .map_err(|e| e.to_string())?;
            let walk = reference_walk(&salvaged, true).map_err(|e| e.to_string())?;
            assert_profiles_match(&got, &reference_profile(&salvaged, &walk), &walk)?;
            let q = &got.quality;
            prop_assert_eq!(
                (q.events_lost_in_salvage, q.samples_lost_in_salvage),
                (report.events_lost(), report.samples_lost())
            );
            prop_assert_eq!(q.nonfinite_samples_skipped, report.nonfinite_samples_skipped);
        }
    }

    #[test]
    fn correlation_matches_the_per_sample_reference(
        ops in arb_ops(),
        samples in arb_samples(),
    ) {
        let tl = Timeline::build(&stream(&ops));
        let want = reference_correlation(&tl, &samples);
        for shards in 1..=4 {
            assert_matches_reference(&correlate_with(&tl, &samples, shards), &want)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `spool::recover_with` against the reference over a seeded session
    // and one kind of damage: none, the last segment cut at a drawn
    // offset, a checksum-valid events frame whose last record is bad, a
    // collector copy with re-sent envelopes, or a byte budget that runs
    // out mid-scan.
    #[test]
    fn spool_recovery_matches_the_per_frame_reference(seed in 0u64..u64::MAX, damage in 0u8..5) {
        let d = &mut Draw(seed);
        let root = std::env::temp_dir().join(format!("tempest-oracle-spool-{}-{seed}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut dir = root.join("local");
        let written = write_seeded_spool(&dir, d);
        let mut limits = DecodeLimits::default();
        match damage {
            0 => {}
            1 => {
                let last = last_segment(&dir);
                let len = std::fs::metadata(&last).unwrap().len();
                let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
                file.set_len(d.below(len + 1)).unwrap();
            }
            2 => {
                let mut bad: Vec<u8> = (0..d.below(4))
                    .flat_map(|k| record(1 + (k % 4) as u8, 0, 1, 5 + k))
                    .collect();
                bad.extend(record(9, 0, 1, 9));
                let good = [record(1, 2, 3, 7), record(2, 2, 3, 8)].concat();
                let mut frames = Vec::new();
                spool::encode_frame_into(&mut frames, spool::FRAME_EVENTS, &bad);
                spool::encode_frame_into(&mut frames, spool::FRAME_EVENTS, &good);
                let last = last_segment(&dir);
                let mut file = std::fs::OpenOptions::new().append(true).open(&last).unwrap();
                std::io::Write::write_all(&mut file, &frames).unwrap();
            }
            3 => {
                let copy = root.join("collected");
                collector_copy(&dir, &copy, d);
                dir = copy;
            }
            _ => {
                let bytes = written * std::mem::size_of::<Event>() as u64;
                limits.budget_bytes = d.below(bytes);
            }
        }

        let want = reference_recover(&dir, &limits);
        let got = spool::recover_with(&dir, &limits, &CancelToken::default()).ok();
        std::fs::remove_dir_all(&root).ok();
        match (got, want) {
            (Some((trace, report)), Some((want_trace, want_report))) => {
                prop_assert_eq!(&trace.node, &want_trace.node);
                prop_assert_eq!(&trace.functions, &want_trace.functions);
                prop_assert_eq!(&trace.events, &want_trace.events);
                prop_assert_eq!(&trace.samples, &want_trace.samples);
                prop_assert_eq!(&report, &want_report);
            }
            (None, None) => {}
            (got, want) => prop_assert!(
                false,
                "recovered: {}, reference: {} (damage {damage})",
                got.is_some(),
                want.is_some()
            ),
        }
    }
}

#[test]
fn references_agree_with_hand_computed_micro_benchmark_d() {
    // Table 1's `main { foo1 { foo2 } foo2 }`, checked by hand.
    let (t0, main, foo1, foo2) = (ThreadId(0), FunctionId(0), FunctionId(1), FunctionId(2));
    let events = [
        Event::enter(0, t0, main),
        Event::enter(10, t0, foo1),
        Event::enter(20, t0, foo2),
        Event::exit(30, t0, foo2),
        Event::exit(60, t0, foo1),
        Event::enter(70, t0, foo2),
        Event::exit(90, t0, foo2),
        Event::exit(100, t0, main),
    ];
    let want = reference_timeline(&events);
    assert!(want.warnings.is_empty());
    assert_eq!(want.intervals.len(), 4);
    let (i, e) = (
        |f| want.times[&f].inclusive_ns,
        |f| want.times[&f].exclusive_ns,
    );
    assert_eq!([i(main), i(foo1), i(foo2)], [100, 50, 30]);
    assert_eq!([e(main), e(foo1), e(foo2)], [30, 40, 30]);

    let tl = Timeline::build(&events);
    let sample = |t| SensorReading::new(SensorId(0), t, Temperature::from_celsius(40.0));
    let (per_function, unattributed) = reference_correlation(&tl, &[sample(25), sample(150)]);
    assert_eq!(unattributed, 1);
    assert_eq!(per_function.len(), 3, "t=25 is inside main, foo1 and foo2");
    assert_eq!(per_function[&foo2][1][&SensorId(0)].count(), 1);
    assert!(per_function[&foo1][1].is_empty(), "foo1 is not innermost");
}

// ---------- spool recovery --------------------------------------------------

/// The reference's own decode of an events frame: 21-byte records of
/// tag, thread, payload, aux and timestamp, or `None` for the whole frame
/// when its length is ragged or any tag is unknown.
fn reference_records(payload: &[u8]) -> Option<Vec<Event>> {
    if !payload.len().is_multiple_of(21) {
        return None;
    }
    let mut out = Vec::new();
    for rec in payload.chunks(21) {
        let word = |at: usize| u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
        let mut ts = [0u8; 8];
        ts.copy_from_slice(&rec[13..21]);
        let (thread, payload, aux) = (ThreadId(word(1)), word(5), word(9) as i32);
        let kind = match rec[0] {
            1 => EventKind::Enter {
                func: FunctionId(payload),
            },
            2 => EventKind::Exit {
                func: FunctionId(payload),
            },
            3 => EventKind::Gap {
                sensor: SensorId(payload as u16),
            },
            4 => EventKind::Sample {
                sensor: SensorId(payload as u16),
                millicelsius: aux,
            },
            _ => return None,
        };
        out.push(Event {
            timestamp_ns: u64::from_le_bytes(ts),
            thread,
            kind,
        });
    }
    Some(out)
}

/// Spool recovery the slow way: every events frame decoded into a
/// vector of its own by [`reference_records`], the vectors concatenated
/// into one mixed stream, which is then split and stable-sorted. Frames
/// are read through the spool's one segment reader and envelope rule,
/// and frames of other kinds through its frame-kind rule; the report is
/// counted here, frame by frame.
fn reference_recover(dir: &Path, limits: &DecodeLimits) -> Option<(Trace, SpoolReport)> {
    let segments = spool::list_segment_files(dir).ok()?;
    if segments.is_empty() {
        return None;
    }
    let mut report = SpoolReport::default();
    let mut frames: Vec<Vec<Event>> = Vec::new();
    let (mut functions, mut node, mut footer) = (Vec::new(), None, None);
    let (mut spent, mut limit) = (0u64, None);
    'scan: for (_, path) in &segments {
        let mut segment = SegmentReader::open(path).ok()?;
        report.segments_scanned += 1;
        while let Some(frame) = segment.next_frame().ok()? {
            let Some(inner) = spool::unwrap_frame(&frame) else {
                report.frames_discarded += 1;
                continue;
            };
            if let Some(shipped) = inner.shipped {
                let cursor = (shipped.seg, shipped.off);
                if report.shipped_through.is_some_and(|c| cursor <= c) {
                    report.frames_deduped += 1;
                    continue;
                }
                report.shipped_through = Some(cursor);
                report.frame_traces.push(shipped);
            }
            if inner.kind == spool::FRAME_EVENTS {
                let Some(events) = reference_records(inner.payload) else {
                    report.frames_discarded += 1;
                    continue;
                };
                spent += (events.len() * std::mem::size_of::<Event>()) as u64;
                if spent > limits.budget_bytes {
                    limit = Some(LimitExceeded {
                        kind: LimitKind::ByteBudget,
                        what: "spool events",
                        observed: spent,
                        limit: limits.budget_bytes,
                    });
                    break 'scan;
                }
                frames.push(events);
            } else {
                match spool::decode_frame(inner.kind, inner.payload, limits) {
                    Ok(Decoded::Symbols(syms)) => functions = syms,
                    Ok(Decoded::Node(n)) => {
                        node.get_or_insert(n);
                    }
                    Ok(Decoded::Footer(vals)) => footer = Some(vals),
                    Ok(Decoded::Telemetry(_)) => report.telemetry_frames += 1,
                    Ok(Decoded::Events(_)) => unreachable!("decoded above"),
                    Err(FrameFail::Limit(e)) => {
                        limit = Some(e);
                        break 'scan;
                    }
                    Err(_) => {
                        report.frames_discarded += 1;
                        continue;
                    }
                }
            }
            report.frames_recovered += 1;
        }
        report.frames_discarded += segment.torn();
    }

    let mixed = frames.concat();
    let nothing = node.is_none() && mixed.is_empty() && functions.is_empty() && footer.is_none();
    if nothing && limit.is_none() {
        return None;
    }
    let (mut events, mut samples) = (Vec::new(), Vec::new());
    for e in mixed {
        match e.kind {
            EventKind::Sample {
                sensor,
                millicelsius,
            } => samples.push(SensorReading::new(
                sensor,
                e.timestamp_ns,
                Temperature::from_millicelsius(i64::from(millicelsius)),
            )),
            _ => events.push(e),
        }
    }
    events.sort_by_key(|e| e.timestamp_ns);
    samples.sort_by_key(|s| s.timestamp_ns);
    if functions.is_empty() {
        // A crash before any symbol frame: placeholder names by id.
        let mut ids: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Enter { func } | EventKind::Exit { func } => Some(func.0),
                _ => None,
            })
            .collect();
        ids.sort();
        ids.dedup();
        functions = ids
            .into_iter()
            .map(|id| FunctionDef {
                id: FunctionId(id),
                name: format!("fn#{id}"),
                address: 0x400000 + 16 * u64::from(id),
                kind: ScopeKind::Function,
            })
            .collect();
    }

    let (scope, sampled) = (events.len() as u64, samples.len() as u64);
    report.events_recovered = scope;
    report.samples_recovered = sampled;
    report.clean_shutdown = footer.is_some();
    let [events_declared, samples_declared, events_dropped, samples_dropped] =
        footer.unwrap_or([scope, sampled, 0, 0]);
    let intact = report.clean_shutdown && report.frames_discarded == 0 && limit.is_none();
    report.salvage = SalvageReport {
        truncated_in: (!intact).then_some(TraceSection::Events),
        events_declared,
        events_salvaged: scope,
        samples_declared,
        samples_salvaged: sampled,
        nonfinite_samples_skipped: 0,
        events_dropped_backpressure: events_dropped,
        samples_dropped_backpressure: samples_dropped,
        limit,
    };
    let trace = Trace {
        node: node.unwrap_or_else(NodeMeta::anonymous),
        functions,
        events,
        samples,
    };
    Some((trace, report))
}

/// SplitMix64: the spool cases draw everything from one seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n.max(1)
    }
}

/// One spooled record in the wire layout, for frames the writer would
/// never write.
fn record(tag: u8, thread: u32, payload: u32, ts: u64) -> Vec<u8> {
    let mut rec = vec![tag];
    rec.extend_from_slice(&thread.to_le_bytes());
    rec.extend_from_slice(&payload.to_le_bytes());
    rec.extend_from_slice(&0i32.to_le_bytes());
    rec.extend_from_slice(&ts.to_le_bytes());
    rec
}

/// Write a seeded session through `SpoolWriter` into `dir`: batches from
/// one to four threads, each on a clock of its own, interleaved so the
/// spooled stream runs back in time across batches, with samples, gap
/// markers and equal timestamps; small segments, so the session
/// rotates; finished with a footer, or left as a crash leaves it.
/// Returns the records written.
fn write_seeded_spool(dir: &Path, d: &mut Draw) -> u64 {
    let threads = 1 + d.below(4) as usize;
    let config = SpoolConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .segment_bytes(128 + d.below(1024));
    let node = NodeMeta {
        node_id: 3,
        hostname: "oracle".into(),
        sensors: vec![SensorMeta {
            id: SensorId(0),
            label: "die".into(),
            kind: SensorKind::CpuCore,
        }],
    };
    let functions: Vec<FunctionDef> = (0..4)
        .map(|id| FunctionDef {
            id: FunctionId(id),
            name: format!("f{id}"),
            address: 0x1000 + u64::from(id),
            kind: ScopeKind::Function,
        })
        .collect();
    let mut w = SpoolWriter::create(&config, node).unwrap();
    let mut clocks: Vec<u64> = (0..threads).map(|_| d.below(200)).collect();
    let mut stacks = vec![Vec::new(); threads];
    let mut written = 0;
    for _ in 0..1 + d.below(40) {
        let th = d.below(threads as u64) as usize;
        let mut batch = Vec::new();
        for _ in 0..1 + d.below(10) {
            clocks[th] += d.below(30);
            let (t, thread, f) = (
                clocks[th],
                ThreadId(th as u32),
                FunctionId(d.below(4) as u32),
            );
            batch.push(match d.below(10) {
                0..=3 => {
                    stacks[th].push(f);
                    Event::enter(t, thread, f)
                }
                4..=6 => Event::exit(t, thread, stacks[th].pop().unwrap_or(f)),
                7 | 8 => Event::sample(t, SensorId(0), 30.0 + d.below(64) as f64 * 0.125),
                _ => Event::gap(t, SensorId(0)),
            });
        }
        written += batch.len() as u64;
        w.append_batch(&batch).unwrap();
        if w.should_rotate() {
            w.rotate(&functions).unwrap();
        }
    }
    if d.below(4) > 0 {
        w.finish(&functions, d.below(3), d.below(3)).unwrap();
    }
    written
}

/// The last segment file of the spool in `dir`.
fn last_segment(dir: &Path) -> PathBuf {
    let segments = spool::list_segment_files(dir).unwrap();
    segments.last().expect("a segment").1.clone()
}

/// Copy the spool in `src` as a collector writes it: every frame in a
/// `FRAME_SHIPPED2` envelope carrying its source cursor, segments of a
/// few frames each, and now and then an earlier frame sent again, as a
/// reconnecting shipper does.
fn collector_copy(src: &Path, dst: &Path, d: &mut Draw) {
    std::fs::create_dir_all(dst).unwrap();
    let mut sent: Vec<(u64, u64, u8, Vec<u8>)> = Vec::new();
    for (seq, path) in spool::list_segment_files(src).unwrap() {
        let mut segment = SegmentReader::open(&path).unwrap();
        while let Some(f) = segment.next_frame().unwrap() {
            sent.push((seq, f.offset, f.kind, f.payload.to_vec()));
        }
    }
    let (mut seq, mut bytes) = (0u64, spool::segment_header_bytes(0).to_vec());
    for i in 0..sent.len() {
        let mut order = vec![i];
        if d.below(4) == 0 {
            order.push(d.below(i as u64 + 1) as usize);
        }
        for k in order {
            let (seg, off, kind, payload) = &sent[k];
            let envelope = spool::shipped2_payload(
                *seg,
                *off,
                1_000 + k as u64,
                2_000 + i as u64,
                *kind,
                payload,
            );
            spool::encode_frame_into(&mut bytes, spool::FRAME_SHIPPED2, &envelope);
        }
        if d.below(5) == 0 || i + 1 == sent.len() {
            std::fs::write(dst.join(spool::segment_file_name(seq, true)), &bytes).unwrap();
            seq += 1;
            bytes = spool::segment_header_bytes(seq).to_vec();
        }
    }
}

// ---------- memory --------------------------------------------------------------

/// Counts the heap bytes each thread has live, and their peak, so a test
/// can measure what one call holds at most while other tests run.
struct CountingAllocator;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is passed to `System` unchanged; the counting only
// touches this thread's const-initialised cells, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller keeps `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through this allocator with
        // `layout`, as the caller of `dealloc` guarantees.
        unsafe { System.dealloc(p, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` through this allocator with
        // `layout`, and the caller keeps `realloc`'s size contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // Both blocks may be live while the bytes move.
            note(new_size as isize);
            note(-(layout.size() as isize));
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and return what it returns with the most heap bytes this
/// thread held at once meanwhile, above what it held before.
fn peak_heap_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

/// 100k threads over 4,000 functions, every stack open at once, with
/// thread ids spread over the whole `u32` range: a few index the direct
/// table, the rest go through the map. The timeline matches the
/// reference exactly, and the replay holds at most a fixed multiple of
/// the events it is handed, not a table per (thread, function) pair.
#[test]
fn a_hundred_thousand_threads_replay_in_bounded_memory() {
    const THREADS: u32 = 100_000;
    const FUNCS: u32 = 4_000;
    // An odd multiplier permutes `u32`, so the thread ids are distinct.
    let thread = |k: u32| ThreadId(k.wrapping_mul(2_654_435_761));
    let (outer, inner) = (
        |k: u32| FunctionId(k % FUNCS),
        |k: u32| FunctionId((k * 7 + 1) % FUNCS),
    );
    type Step = fn(u64, ThreadId, FunctionId, FunctionId) -> Option<Event>;
    let steps: [Step; 4] = [
        |t, th, outer, _| Some(Event::enter(t, th, outer)),
        |t, th, _, inner| Some(Event::enter(t, th, inner)),
        |t, th, _, inner| Some(Event::exit(t, th, inner)),
        // Every thread but the last few returns.
        |t, th, outer, _| (th.0 % 16 != 0).then(|| Event::exit(t, th, outer)),
    ];
    let mut events = Vec::with_capacity(4 * THREADS as usize);
    for step in steps {
        for k in 0..THREADS {
            let t = events.len() as u64;
            events.extend(step(t, thread(k), outer(k), inner(k)));
        }
    }
    let small = (0..THREADS).filter(|&k| (thread(k).0 as usize) < events.len());
    assert!(small.count() > 0, "some thread ids index the direct table");

    let (tl, peak) = peak_heap_during(|| Timeline::build(&events));
    let want = reference_timeline(&events);
    assert_eq!(tl.intervals, want.intervals);
    assert_eq!(tl.times, want.times);
    assert_eq!(tl.warnings, want.warnings);
    let event_bytes = events.len() * std::mem::size_of::<Event>();
    assert!(
        peak <= 8 * event_bytes,
        "the replay held {peak} bytes at once for {event_bytes} bytes of events"
    );
}
