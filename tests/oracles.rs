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

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use tempest_core::correlate::{correlate_with, Correlation, FunctionSamples};
use tempest_core::profile::build_profiles;
use tempest_core::stats::StreamingStats;
use tempest_core::timeline::{FunctionTimes, Interval, Timeline, TimelineWarning};
use tempest_core::{AnalysisRequest, FunctionProfile, NodeProfile, ParseError};
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::{FunctionDef, FunctionId, ScopeKind};
use tempest_probe::trace::{NodeMeta, Trace};
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
    fn checked_replay_matches_the_reference_walk(trace in arb_trace()) {
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
