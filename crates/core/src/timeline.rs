//! Function-timeline reconstruction.
//!
//! §3.1 explains why Tempest could not be a gprof patch: *"gprof creates
//! buckets for functions … gprof does not pinpoint which function was
//! executing at time X in a program. Tempest requires a function level
//! timeline since temperature readings from sensors occur and vary in real
//! time."* This module turns the raw entry/exit event stream back into that
//! timeline: a set of [`Interval`]s (who was on the stack, when, at what
//! depth), robust to interleaving, recursion, and truncated or slightly
//! malformed traces.
//!
//! `replay` is the front end's one call-stack replay and owns its id
//! space: one pass gives each thread and each entered function a dense
//! slot in first-appearance order. Stray exits cost O(1) and leftover
//! frames close in thread-slot order (DESIGN.md §8). [`Timeline::build`]
//! places the closed intervals in the order their frames were entered,
//! which is start order, and settles ties with one sort of indices; it
//! keeps each interval's slots for [`crate::correlate`].
//! [`CallGraph::build`] folds the caller handed with each interval.
//!
//! [`CallGraph::build`]: crate::callgraph::CallGraph::build

use std::collections::HashMap;
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::FunctionId;

/// One stretch of a function being on the call stack of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Which function was on the stack.
    pub func: FunctionId,
    /// Which thread's stack.
    pub thread: ThreadId,
    /// Entry timestamp, inclusive.
    pub start_ns: u64,
    /// Exit timestamp, exclusive.
    pub end_ns: u64,
    /// Stack depth at entry (0 = outermost frame of the thread).
    pub depth: u32,
    /// True if the trace ended before the function returned and the
    /// interval was closed artificially at the last known instant.
    pub truncated: bool,
}

impl Interval {
    /// Interval length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Does the instant `t` fall inside this interval (`[start, end)`)?
    pub fn contains(&self, t: u64) -> bool {
        t >= self.start_ns && t < self.end_ns
    }
}

/// Problems encountered while rebuilding the timeline. The parser keeps
/// going — a mostly-good trace still yields a useful profile — but records
/// what it had to repair.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineWarning {
    /// An exit arrived for a function not on top of the stack; the frames
    /// above it were force-closed.
    MismatchedExit {
        /// Thread on which the mismatch occurred.
        thread: ThreadId,
        /// Function on top of the stack at the time.
        expected: FunctionId,
        /// Function the exit event named.
        got: FunctionId,
        /// Timestamp of the exit event.
        at_ns: u64,
    },
    /// An exit arrived for a function not on the stack at all; ignored.
    ExitWithoutEnter {
        /// Thread the stray exit arrived on.
        thread: ThreadId,
        /// Function the exit named.
        func: FunctionId,
        /// Timestamp of the stray exit.
        at_ns: u64,
    },
    /// Frames still open at end of trace; closed at the last timestamp.
    UnclosedFrames {
        /// Thread whose stack was still open.
        thread: ThreadId,
        /// Number of frames force-closed.
        count: usize,
    },
}

/// Per-function aggregate times over the whole timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FunctionTimes {
    /// Wall time during which the function was on the stack at least once
    /// (recursion counted once) — the paper's "Total time (inclusive)".
    pub inclusive_ns: u64,
    /// Wall time during which the function was the innermost frame.
    pub exclusive_ns: u64,
    /// Number of entries.
    pub calls: u64,
}

/// The reconstructed timeline of one node.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// All intervals, ordered by start time, then depth, with ties in the
    /// order their frames closed.
    pub intervals: Vec<Interval>,
    /// Aggregate times per function.
    pub times: HashMap<FunctionId, FunctionTimes>,
    /// Repairs performed during reconstruction.
    pub warnings: Vec<TimelineWarning>,
    /// Earliest and latest event timestamps (0,0 if no events).
    pub span: (u64, u64),
    /// The replay's slots for every function entered.
    pub(crate) funcs: Slots,
    /// The replay's slots for every thread with a scope event.
    pub(crate) threads: Slots,
    /// Per interval, in [`Self::intervals`] order: the slots of its
    /// function and of its thread.
    pub(crate) slots: Vec<(u32, u32)>,
}

impl Timeline {
    /// Rebuild the timeline from scope events.
    ///
    /// Events must be sorted by timestamp (ties keep stream order, which is
    /// how [`tempest_probe::trace::Trace::from_mixed_events`] sorts them);
    /// each thread's subsequence is then interpreted as a call-stack
    /// history.
    pub fn build(events: &[Event]) -> Timeline {
        // Each interval at the index its frame was entered at, with its
        // slots and its place in close order. Frames close out of entry
        // order; every index gets written once, when its frame closes.
        let mut entered: Vec<(Interval, (u32, u32), u32)> = Vec::new();
        let mut closes = 0u32;
        let mut tl = replay(events, |iv, _, frame| {
            let placed = (iv, frame.slots, closes);
            let at = frame.entered as usize;
            if entered.len() <= at {
                entered.resize(at + 1, placed);
            }
            entered[at] = placed;
            closes += 1;
        });
        // Time-sorted events are entered in start order, so the sort only
        // settles ties: by depth, then by close order. No two keys are
        // equal, so an unstable sort gives the one order.
        let mut order: Vec<u32> = (0..closes).collect();
        order.sort_unstable_by_key(|&i| {
            let (iv, _, closed) = &entered[i as usize];
            (iv.start_ns, iv.depth, *closed)
        });
        (tl.intervals, tl.slots) = order
            .iter()
            .map(|&i| {
                let (iv, slots, _) = entered[i as usize];
                (iv, slots)
            })
            .unzip();
        tl
    }

    /// Every interval covering instant `t` (linear scan — fine for tests
    /// and spot queries; [`crate::correlate`] sweeps instead).
    pub fn active_at(&self, t: u64) -> Vec<&Interval> {
        self.intervals.iter().filter(|i| i.contains(t)).collect()
    }

    /// The innermost (deepest) interval covering `t` on `thread`.
    pub fn executing_at(&self, thread: ThreadId, t: u64) -> Option<&Interval> {
        self.intervals
            .iter()
            .filter(|i| i.thread == thread && i.contains(t))
            .max_by_key(|i| i.depth)
    }

    /// Total wall span of the timeline, ns.
    pub fn span_ns(&self) -> u64 {
        self.span.1.saturating_sub(self.span.0)
    }
}

/// Dense slots for ids, in first-appearance order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    /// Slot → id.
    pub(crate) ids: Vec<u32>,
    /// Id → slot.
    pub(crate) of: HashMap<u32, u32>,
}

impl Slots {
    /// The slot of `id`, giving it the next one on first sight.
    fn assign(&mut self, id: u32) -> u32 {
        let ids = &mut self.ids;
        *self.of.entry(id).or_insert_with(|| {
            ids.push(id);
            ids.len() as u32 - 1
        })
    }
}

/// What the replay hands over with each interval it closes besides the
/// caller.
#[derive(Clone, Copy)]
pub(crate) struct Closed {
    /// How many frames were entered before this one.
    pub(crate) entered: u32,
    /// The slots of the frame's function and of its thread.
    pub(crate) slots: (u32, u32),
}

/// One thread's replay state.
#[derive(Default)]
struct Stack {
    /// Open frames: function, its slot, entry time, entry index.
    frames: Vec<(FunctionId, u32, u64, u32)>,
    /// Timestamp of the thread's previous scope event.
    prev_ns: Option<u64>,
    /// Per function entered here: its slot, its open frames, and since
    /// when the outermost is open (the inclusive-time clock). Per thread,
    /// so it grows with (thread, function) pairs, not their product.
    open: HashMap<FunctionId, (u32, u32, u64)>,
}

impl Stack {
    /// Pop frames until `depth` remain, closing each at `t` and handing it
    /// to `on_close` with the function beneath it.
    fn close(
        &mut self,
        depth: usize,
        (thread, thread_slot): (ThreadId, u32),
        t: u64,
        truncated: bool,
        times: &mut [FunctionTimes],
        on_close: &mut impl FnMut(Interval, Option<FunctionId>, Closed),
    ) {
        while self.frames.len() > depth {
            let (func, slot, start_ns, entered) = self.frames.pop().expect("deeper than `depth`");
            let open = self
                .open
                .get_mut(&func)
                .expect("a frame's function is open");
            open.1 -= 1;
            if open.1 == 0 {
                times[slot as usize].inclusive_ns += t.saturating_sub(open.2);
            }
            let interval = Interval {
                func,
                thread,
                start_ns,
                end_ns: t,
                depth: self.frames.len() as u32,
                truncated,
            };
            let closed = Closed {
                entered,
                slots: (slot, thread_slot),
            };
            on_close(interval, self.frames.last().map(|f| f.0), closed);
        }
    }
}

/// Replay the call stacks of `events` once, as [`Timeline::build`] reads
/// them, handing each closed interval to `on_close` with its caller (the
/// function of the frame beneath it, or `None` for a thread's outermost
/// frame) and its [`Closed`] record. Returns the timeline without its
/// intervals.
pub(crate) fn replay(
    events: &[Event],
    mut on_close: impl FnMut(Interval, Option<FunctionId>, Closed),
) -> Timeline {
    let mut tl = Timeline::default();
    let mut stacks: Vec<Stack> = Vec::new();
    let mut times: Vec<FunctionTimes> = Vec::new();
    let mut entered = 0u32;
    let mut span = (u64::MAX, 0);

    for e in events {
        // Only scope events are checked for order, so a marker may carry
        // any timestamp: the span runs from the earliest to the latest.
        let t = e.timestamp_ns;
        span = (span.0.min(t), span.1.max(t));
        let (func, is_enter) = match e.kind {
            EventKind::Enter { func } => (func, true),
            EventKind::Exit { func } => (func, false),
            EventKind::Sample { .. } | EventKind::Gap { .. } => continue,
        };
        let slot = tl.threads.assign(e.thread.0) as usize;
        stacks.resize_with(tl.threads.ids.len(), Stack::default);
        let stack = &mut stacks[slot];

        // Attribute the elapsed slice to the current top (exclusive).
        if let (Some(p), Some(&(_, top, ..))) = (stack.prev_ns, stack.frames.last()) {
            times[top as usize].exclusive_ns += t.saturating_sub(p);
        }
        stack.prev_ns = Some(t);

        if is_enter {
            let funcs = &mut tl.funcs;
            let open = stack
                .open
                .entry(func)
                .or_insert_with(|| (funcs.assign(func.0), 0, 0));
            times.resize(funcs.ids.len(), FunctionTimes::default());
            times[open.0 as usize].calls += 1;
            if open.1 == 0 {
                open.2 = t; // first activation: start the inclusive clock
            }
            open.1 += 1;
            stack.frames.push((func, open.0, t, entered));
            entered = entered.checked_add(1).expect("fewer than 2^32 frames");
            continue;
        }

        // An exit closes its function's topmost frame and any above it;
        // the stack is searched only when the open count puts it there.
        let top = stack.frames.last().map(|f| f.0);
        if top != Some(func) && stack.open.get(&func).is_none_or(|o| o.1 == 0) {
            tl.warnings.push(TimelineWarning::ExitWithoutEnter {
                thread: e.thread,
                func,
                at_ns: t,
            });
            continue;
        }
        let pos = stack.frames.iter().rposition(|f| f.0 == func);
        let pos = pos.expect("an open function has a frame");
        if let Some(expected) = top.filter(|&f| f != func) {
            tl.warnings.push(TimelineWarning::MismatchedExit {
                thread: e.thread,
                expected,
                got: func,
                at_ns: t,
            });
        }
        let thread = (e.thread, slot as u32);
        stack.close(pos, thread, t, false, &mut times, &mut on_close);
    }

    // Close anything still open at the end of the span, in thread-slot
    // order: no earlier than any event, so every frame stays within its
    // caller, which the correlate sweep relies on.
    tl.span = if events.is_empty() { (0, 0) } else { span };
    for (slot, (stack, &id)) in stacks.iter_mut().zip(&tl.threads.ids).enumerate() {
        if !stack.frames.is_empty() {
            let thread = ThreadId(id);
            tl.warnings.push(TimelineWarning::UnclosedFrames {
                thread,
                count: stack.frames.len(),
            });
            let thread = (thread, slot as u32);
            stack.close(0, thread, tl.span.1, true, &mut times, &mut on_close);
        }
    }
    let ids = tl.funcs.ids.iter().map(|&id| FunctionId(id));
    tl.times = ids.zip(times).collect();
    tl
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const MAIN: FunctionId = FunctionId(0);
    const FOO1: FunctionId = FunctionId(1);
    const FOO2: FunctionId = FunctionId(2);

    fn enter(t: u64, th: ThreadId, f: FunctionId) -> Event {
        Event::enter(t, th, f)
    }
    fn exit(t: u64, th: ThreadId, f: FunctionId) -> Event {
        Event::exit(t, th, f)
    }

    /// Micro-benchmark B of Table 1: main calls one function.
    #[test]
    fn single_call() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            exit(90, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.intervals.len(), 2);
        assert!(tl.warnings.is_empty());
        let main = tl.times[&MAIN];
        assert_eq!(main.inclusive_ns, 100);
        assert_eq!(main.exclusive_ns, 20); // 0-10 and 90-100
        assert_eq!(main.calls, 1);
        let foo = tl.times[&FOO1];
        assert_eq!(foo.inclusive_ns, 80);
        assert_eq!(foo.exclusive_ns, 80);
    }

    /// Micro-benchmark A: main alone.
    #[test]
    fn main_alone() {
        let tl = Timeline::build(&[enter(5, T0, MAIN), exit(105, T0, MAIN)]);
        assert_eq!(tl.intervals.len(), 1);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&MAIN].exclusive_ns, 100);
        assert_eq!(tl.span_ns(), 100);
    }

    /// Micro-benchmark C/D: multiple functions with interleaving
    /// (Table 1's `main { foo1 { foo2 } foo2 }`).
    #[test]
    fn interleaving_micro_benchmark_d() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO2),
            exit(30, T0, FOO2),
            exit(60, T0, FOO1),
            enter(70, T0, FOO2),
            exit(90, T0, FOO2),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 50);
        assert_eq!(tl.times[&FOO2].inclusive_ns, 30); // 10 + 20
        assert_eq!(tl.times[&FOO2].calls, 2);
        // Exclusive: main 0-10,60-70,90-100 = 30; foo1 10-20,30-60 = 40.
        assert_eq!(tl.times[&MAIN].exclusive_ns, 30);
        assert_eq!(tl.times[&FOO1].exclusive_ns, 40);
        assert_eq!(tl.times[&FOO2].exclusive_ns, 30);
    }

    /// Micro-benchmark E: recursion with interleaving. Inclusive time must
    /// not double-count overlapping recursive frames.
    #[test]
    fn recursion_counts_inclusive_once() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO1), // recursive call
            enter(30, T0, FOO2),
            exit(40, T0, FOO2),
            exit(50, T0, FOO1),
            exit(80, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&FOO1].inclusive_ns, 70, "10→80 counted once");
        assert_eq!(tl.times[&FOO1].calls, 2);
        // foo1 exclusive: 10-20 (outer), 20-30 (inner), 40-50 (inner),
        // 50-80 (outer) = 60.
        assert_eq!(tl.times[&FOO1].exclusive_ns, 60);
        // Four intervals for foo1? No: two (outer, inner) + foo2 + main.
        assert_eq!(tl.intervals.len(), 4);
        let depths: Vec<u32> = tl
            .intervals
            .iter()
            .filter(|i| i.func == FOO1)
            .map(|i| i.depth)
            .collect();
        assert_eq!(depths.len(), 2);
        assert!(depths.contains(&1) && depths.contains(&2));
    }

    #[test]
    fn threads_are_independent_stacks() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(5, T1, FOO1),
            exit(50, T1, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 45);
        // Exclusive time is per-thread: main gets its full 100.
        assert_eq!(tl.times[&MAIN].exclusive_ns, 100);
        let i = tl.executing_at(T1, 10).unwrap();
        assert_eq!(i.func, FOO1);
        assert_eq!(tl.executing_at(T1, 60), None);
    }

    #[test]
    fn unclosed_frames_are_truncated_at_trace_end() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            exit(50, T0, FOO1),
            // trace cut: main never exits
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::UnclosedFrames {
                thread: T0,
                count: 1
            }
        ));
        let main_iv = tl.intervals.iter().find(|i| i.func == MAIN).unwrap();
        assert!(main_iv.truncated);
        assert_eq!(main_iv.end_ns, 50);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 50);
    }

    #[test]
    fn frames_left_open_close_after_their_callees() {
        // Only scope events are checked for order, so a trailing gap
        // marker may be stamped before the last exit. Main, left open,
        // must still close no earlier than the foo1 it called.
        use tempest_sensors::{SensorId, SensorReading, Temperature};
        let tl = Timeline::build(&[
            enter(10, T0, MAIN),
            enter(20, T0, FOO1),
            exit(30, T0, FOO1),
            Event::gap(25, SensorId(0)),
        ]);
        assert_eq!(tl.span, (10, 30));
        let main = tl.intervals.iter().find(|i| i.func == MAIN).unwrap();
        assert!(main.truncated);
        assert_eq!(main.end_ns, 30);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 20);
        // So the sweep's stacks hold: main stays under foo1 throughout.
        let at = |t| SensorReading::new(SensorId(0), t, Temperature::from_celsius(40.0));
        let c = crate::correlate::correlate(&tl, &[at(22), at(27)]);
        assert_eq!(c.per_function[&MAIN].inclusive[&SensorId(0)].count(), 2);
        assert_eq!(c.per_function[&FOO1].exclusive[&SensorId(0)].count(), 2);
    }

    #[test]
    fn a_leading_gap_does_not_start_the_span_after_the_first_enter() {
        use tempest_probe::trace::NodeMeta;
        use tempest_sensors::SensorId;
        let tl = Timeline::build(&[
            Event::gap(60, SensorId(0)),
            enter(10, T0, MAIN),
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.span, (10, 100));
        let banner = crate::plot::function_banner(&tl, &|_| "main".into(), 16);
        assert_eq!(banner, "m".repeat(16));
        let c = crate::correlate::correlate(&tl, &[]);
        let p = crate::profile::build_profiles(NodeMeta::anonymous(), &[], &tl, &c, &[]);
        assert_eq!(p.span_ns, 90);
    }

    #[test]
    fn mismatched_exit_force_closes_above() {
        // Enter main, foo1, foo2 — then exit foo1 (foo2's exit was lost).
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            enter(10, T0, FOO1),
            enter(20, T0, FOO2),
            exit(60, T0, FOO1),
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::MismatchedExit { got: FOO1, .. }
        ));
        // foo2 closed at 60 alongside foo1.
        let foo2 = tl.intervals.iter().find(|i| i.func == FOO2).unwrap();
        assert_eq!(foo2.end_ns, 60);
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
    }

    #[test]
    fn exit_without_enter_is_ignored() {
        let tl = Timeline::build(&[
            enter(0, T0, MAIN),
            exit(10, T0, FOO1), // never entered
            exit(100, T0, MAIN),
        ]);
        assert_eq!(tl.warnings.len(), 1);
        assert!(matches!(
            tl.warnings[0],
            TimelineWarning::ExitWithoutEnter { func: FOO1, .. }
        ));
        assert_eq!(tl.times[&MAIN].inclusive_ns, 100);
        assert_eq!(tl.intervals.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_timeline() {
        let tl = Timeline::build(&[]);
        assert!(tl.intervals.is_empty());
        assert!(tl.warnings.is_empty());
        assert_eq!(tl.span_ns(), 0);
    }

    #[test]
    fn active_at_respects_half_open_intervals() {
        let tl = Timeline::build(&[
            enter(10, T0, MAIN),
            exit(20, T0, MAIN),
            enter(20, T0, FOO1),
            exit(30, T0, FOO1),
        ]);
        let at20: Vec<FunctionId> = tl.active_at(20).iter().map(|i| i.func).collect();
        assert_eq!(at20, vec![FOO1], "end is exclusive, start inclusive");
        assert!(tl.active_at(9).is_empty());
        assert!(tl.active_at(30).is_empty());
    }

    #[test]
    fn zero_length_function_is_recorded_but_contains_nothing() {
        let tl = Timeline::build(&[
            enter(10, T0, MAIN),
            enter(15, T0, FOO1),
            exit(15, T0, FOO1),
            exit(20, T0, MAIN),
        ]);
        let foo = tl.intervals.iter().find(|i| i.func == FOO1).unwrap();
        assert_eq!(foo.duration_ns(), 0);
        assert!(!foo.contains(15));
        assert_eq!(tl.times[&FOO1].calls, 1);
    }

    #[test]
    fn truncated_threads_close_in_a_fixed_order() {
        // Eight threads cut mid-call: their truncated intervals tie on
        // (start, depth), so only the close order tells them apart.
        let events: Vec<Event> = (0..8)
            .flat_map(|th| [enter(0, ThreadId(th), MAIN), enter(10, ThreadId(th), FOO1)])
            .chain([enter(20, T0, FOO2), exit(30, T0, FOO2)])
            .collect();
        let trace = tempest_probe::trace::Trace {
            node: tempest_probe::trace::NodeMeta::anonymous(),
            functions: Vec::new(),
            events: events.clone(),
            samples: Vec::new(),
        };
        let first = Timeline::build(&events);
        let chrome = crate::chrome::chrome_trace_json(&trace);
        for _ in 0..32 {
            let again = Timeline::build(&events);
            assert_eq!(again.intervals, first.intervals);
            assert_eq!(again.warnings, first.warnings);
            assert_eq!(crate::chrome::chrome_trace_json(&trace), chrome);
        }
    }

    #[test]
    fn stray_exits_over_a_deep_stack_are_linear() {
        // 100k frames open, then 100k exits of a function never entered:
        // each exit must not scan the whole stack.
        let n = 100_000u64;
        let events: Vec<Event> = (0..n)
            .map(|i| enter(i, T0, FOO1))
            .chain((0..n).map(|i| exit(n + i, T0, FOO2)))
            .collect();
        let started = std::time::Instant::now();
        let tl = Timeline::build(&events);
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        assert_eq!(tl.warnings.len(), n as usize + 1);
        assert_eq!(tl.intervals.len(), n as usize);
        assert!(!tl.times.contains_key(&FOO2), "FOO2 was never entered");
    }

    #[test]
    fn deep_recursion_is_linear_not_quadratic() {
        // 10k-deep recursion should build fine (guards a stack-walk
        // accident turning this O(n²)).
        let mut events = Vec::new();
        let n = 10_000u64;
        for i in 0..n {
            events.push(enter(i, T0, FOO1));
        }
        for i in 0..n {
            events.push(exit(n + i, T0, FOO1));
        }
        let tl = Timeline::build(&events);
        assert_eq!(tl.intervals.len(), n as usize);
        assert_eq!(tl.times[&FOO1].calls, n);
        assert_eq!(tl.times[&FOO1].inclusive_ns, 2 * n - 1);
    }
}
