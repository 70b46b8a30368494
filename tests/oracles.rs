//! Slow, obviously-correct references for the analysis front end.
//!
//! `Timeline::build` replays every thread's call stack in one pass over
//! the interleaved event stream, and `correlate_with` sweeps the samples
//! over columnar, sharded batches. Both are checked here against naive
//! definitions written for clarity, not speed:
//!
//! * the **timeline reference** replays each thread's events on their
//!   own, with a plain `Vec` stack and linear searches, takes a
//!   function's inclusive time as the union of its intervals on each
//!   thread, and orders the intervals by (start, depth) with ties in the
//!   order their frames closed;
//! * the **correlate reference** is the paper's §3 definition: for each
//!   sample, every function of `Timeline::active_at(t)` once
//!   (inclusive), and per thread the deepest interval covering `t`
//!   (exclusive).
//!
//! The generated streams mix threads and function ids (sparse ones
//! included), equal timestamps, zero-length calls, recursion, stray and
//! mismatched exits, frames left open at the end, gap markers, and
//! samples before the first and after the last event.

use proptest::prelude::*;
use std::collections::HashMap;
use tempest_core::correlate::{correlate_with, Correlation};
use tempest_core::stats::StreamingStats;
use tempest_core::timeline::{FunctionTimes, Interval, Timeline, TimelineWarning};
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::FunctionId;
use tempest_sensors::{SensorId, SensorReading, Temperature};

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

/// Replay each thread's scope events on their own.
fn reference_timeline(events: &[Event]) -> ReferenceTimeline {
    let end = events.last().map_or(0, |e| e.timestamp_ns);
    let scope = |e: &Event| match e.kind {
        EventKind::Enter { func } => Some((func, true)),
        EventKind::Exit { func } => Some((func, false)),
        EventKind::Sample { .. } | EventKind::Gap { .. } => None,
    };
    let mut threads: Vec<ThreadId> = Vec::new();
    for e in events {
        if scope(e).is_some() && !threads.contains(&e.thread) {
            threads.push(e.thread);
        }
    }

    // Each interval with the index of the event that closed its frame.
    // Frames left open close after every event, thread by thread in
    // first-appearance order. Frames one event closes differ in depth, so
    // (start, depth, close) never ties.
    let mut closed: Vec<(usize, Interval)> = Vec::new();
    let mut times: HashMap<FunctionId, FunctionTimes> = HashMap::new();
    let mut warnings = Vec::new();
    for (nth, &thread) in threads.iter().enumerate() {
        let mut stack: Vec<(FunctionId, u64)> = Vec::new();
        let mut prev: Option<u64> = None;
        let mine = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.thread == thread);
        for (at, e) in mine {
            let Some((func, is_enter)) = scope(e) else {
                continue;
            };
            let t = e.timestamp_ns;
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
                None => warnings.push(TimelineWarning::ExitWithoutEnter {
                    thread,
                    func,
                    at_ns: t,
                }),
                Some(pos) => {
                    if pos + 1 != stack.len() {
                        warnings.push(TimelineWarning::MismatchedExit {
                            thread,
                            expected: stack[stack.len() - 1].0,
                            got: func,
                            at_ns: t,
                        });
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
        if !stack.is_empty() {
            warnings.push(TimelineWarning::UnclosedFrames {
                thread,
                count: stack.len(),
            });
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
            closed.push((events.len() + nth, iv));
        }
    }
    closed.sort_by_key(|&(close, iv)| (iv.start_ns, iv.depth, close));
    let intervals: Vec<Interval> = closed.into_iter().map(|(_, iv)| iv).collect();

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
    let mut stacks: Vec<Vec<FunctionId>> = vec![Vec::new(); THREADS.len()];
    let mut events = Vec::new();
    let mut t = 10u64;
    for &(th, f, op, dt) in ops {
        t += dt;
        let (thread, stack) = (THREADS[th], &mut stacks[th]);
        match op {
            0..=4 => {
                stack.push(FUNCS[f]);
                events.push(Event::enter(t, thread, FUNCS[f]));
            }
            5..=7 => {
                let func = stack.pop().unwrap_or(FUNCS[f]);
                events.push(Event::exit(t, thread, func));
            }
            8 => {
                if let Some(pos) = stack.iter().rposition(|&g| g == FUNCS[f]) {
                    stack.truncate(pos);
                }
                events.push(Event::exit(t, thread, FUNCS[f]));
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

// ---------- comparisons -----------------------------------------------------

fn sorted_warnings(warnings: &[TimelineWarning]) -> Vec<String> {
    let mut out: Vec<String> = warnings.iter().map(|w| format!("{w:?}")).collect();
    out.sort();
    out
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
        prop_assert_eq!(sorted_warnings(&tl.warnings), sorted_warnings(&want.warnings));
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
