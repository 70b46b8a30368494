//! Temperature↔function correlation.
//!
//! The core of the paper: *"The Tempest parser acquires function timestamps
//! and provides a mapping between timestamps and temperature"* (§3.2). Each
//! sensor sample is attributed to every function on the call stack at the
//! sample's instant (inclusive attribution — how the paper's Figure 2(a)
//! reports full thermal statistics for both `main` and the `foo1` it
//! spends its time in), and separately to the innermost frame (exclusive
//! attribution, used by hot-spot ranking).
//!
//! The sweep walks the timeline's intervals in their (start, depth) order
//! alongside the time-sorted samples of [`crate::columns`], keeping one
//! stack of open frames per thread: admitting a frame pops the frames as
//! deep as it or deeper, and frames that have ended pop off the top. A
//! `tempd` round stamps every sensor with one instant, so each distinct
//! sample timestamp is resolved once — the set of functions on any stack,
//! kept as frames are pushed and popped, and each thread's innermost
//! frame — and every sample of that instant then adds one to those
//! functions' cells in its value's row of a `[value][function]` count
//! grid. Values are dictionary-encoded, so the
//! inner loop is plain `u64` increments with no hashing and no allocation,
//! and exact [`StreamingStats`] histograms are materialised once at the
//! end. Above [`MAX_DENSE_CELLS`] only the cells samples hit are counted.
//!
//! The sample axis is additionally **sharded**: contiguous time-window
//! shards sweep independently (each shard re-admits the frames open at
//! its first sample) on the vendored work-stealing pool, and the per-shard
//! counts merge by plain addition — an order-independent reduction, so the
//! result is bit-identical to the sequential sweep for every shard count.

use crate::columns::SampleColumns;
use crate::stats::{f64_unkey, StreamingStats};
use crate::timeline::Timeline;
use rayon::prelude::*;
use std::collections::HashMap;
use tempest_probe::func::FunctionId;
use tempest_probe::limits::CancelToken;
use tempest_sensors::{SensorId, SensorReading};

/// Samples attributed to one function, per sensor, in °F, folded into
/// streaming accumulators.
#[derive(Debug, Clone, Default)]
pub struct FunctionSamples {
    /// Sensor → accumulator over readings taken while the function was
    /// active anywhere on a stack.
    pub inclusive: HashMap<SensorId, StreamingStats>,
    /// Sensor → accumulator over readings taken while the function was the
    /// innermost frame of some thread.
    pub exclusive: HashMap<SensorId, StreamingStats>,
}

/// The full correlation result.
#[derive(Debug, Clone, Default)]
pub struct Correlation {
    /// Function → attributed samples.
    pub per_function: HashMap<FunctionId, FunctionSamples>,
    /// Samples that fell outside every interval (before `main`, after
    /// exit, or in gaps).
    pub unattributed: usize,
    /// True when the input samples were out of timestamp order and the
    /// sweep re-sorted a copy before attributing.
    pub resorted: bool,
    /// True when a [`CancelToken`] tripped mid-sweep: the attribution
    /// covers only the samples processed before the trip (partial, and
    /// reported as such in `DataQuality` — never silently incomplete).
    pub cancelled: bool,
}

/// Ceiling on the dense grid (`functions × distinct values` cells per
/// attribution kind). Real sensor data is quantised to a coarse grid, so
/// traces land far below this; a pathological trace with millions of
/// distinct values falls back to counting only the cells samples hit.
const MAX_DENSE_CELLS: usize = 1 << 22;

/// Auto-sharding refuses to split below this many samples per shard —
/// spawning threads for a few thousand samples costs more than it saves.
const AUTO_SHARD_MIN_SAMPLES: usize = 8_192;

/// Samples a shard sweeps between two looks at its [`CancelToken`].
const CANCEL_CHECK_SAMPLES: usize = 4_096;

/// Attribute `samples` to the functions of `timeline`, choosing the shard
/// count automatically (one per available CPU, clamped so small traces
/// stay sequential).
///
/// Samples are normally time-sorted by the trace writer; a damaged or
/// hand-assembled trace with out-of-order samples is detected and a copy
/// is re-sorted (stably) before the sweep, reported via
/// [`Correlation::resorted`] rather than silently mis-attributed.
pub fn correlate(timeline: &Timeline, samples: &[SensorReading]) -> Correlation {
    correlate_with(timeline, samples, 0)
}

/// [`correlate`] with an explicit shard count: `0` = auto, `1` = fully
/// sequential, `n` = exactly `n` time-window shards (clamped to the sample
/// count so every shard is non-empty). Every shard count produces a
/// bit-identical [`Correlation`]: shards accumulate disjoint sample ranges
/// into counts that merge by addition, in fixed shard order.
///
/// The timeline must be one [`Timeline::build`] made from time-sorted
/// scope events, as the parser hands them over in strict, recover and
/// deadline modes: then every frame lies within its caller's, which the
/// per-thread stacks of the sweep rely on.
pub fn correlate_with(
    timeline: &Timeline,
    samples: &[SensorReading],
    shards: usize,
) -> Correlation {
    correlate_with_cancel(timeline, samples, shards, &CancelToken::default())
}

/// [`correlate_with`] under a [`CancelToken`]: each shard checks the token
/// every few thousand samples and stops early when it trips, yielding a
/// partial [`Correlation`] flagged via [`Correlation::cancelled`]. With
/// the default (never-cancelling) token the sweep is unchanged and the
/// bit-identical-across-shard-counts guarantee holds.
pub fn correlate_with_cancel(
    timeline: &Timeline,
    samples: &[SensorReading],
    shards: usize,
    cancel: &CancelToken,
) -> Correlation {
    let _stage = tempest_obs::stage("correlate");
    let mut result = Correlation::default();
    if samples.is_empty() {
        return result;
    }

    let cols = SampleColumns::from_readings(samples);
    result.resorted = cols.resorted;
    if timeline.intervals.is_empty() {
        result.unattributed = cols.len();
        return result;
    }

    let dense = timeline
        .funcs
        .len()
        .checked_mul(cols.total_values())
        .is_some_and(|cells| cells <= MAX_DENSE_CELLS);

    // Contiguous sample ranges, one per shard.
    let shards = effective_shards(shards, cols.len());
    let chunk = cols.len().div_ceil(shards);
    let ranges: Vec<(usize, usize)> = (0..shards)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(cols.len())))
        .filter(|&(lo, hi)| lo < hi)
        .collect();

    let accums: Vec<ShardAccum> = if ranges.len() == 1 {
        vec![sweep_range(timeline, &cols, ranges[0], dense, cancel)]
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(ranges.len())
            .build()
            .expect("thread pool construction is infallible");
        let cols = &cols;
        pool.install(|| {
            ranges
                .into_par_iter()
                .map(|range| sweep_range(timeline, cols, range, dense, cancel))
                .collect()
        })
    };

    // Deterministic merge: fixed shard order, and counts are additive
    // anyway (order-independent u64 sums).
    let mut accums = accums.into_iter();
    let mut acc = accums.next().expect("at least one shard");
    for other in accums {
        acc.absorb(other);
    }
    result.unattributed = acc.unattributed;
    result.cancelled = acc.cancelled;
    materialize(timeline, &cols, acc, &mut result);
    result
}

/// Resolve a requested shard count: `0` = one per CPU, clamped so shards
/// stay usefully large; explicit counts are honoured exactly (clamped only
/// to the sample count).
fn effective_shards(requested: usize, n_samples: usize) -> usize {
    let resolved = if requested == 0 {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        cpus.min(n_samples.div_ceil(AUTO_SHARD_MIN_SAMPLES))
    } else {
        requested
    };
    resolved.clamp(1, n_samples.max(1))
}

/// One shard's counts plus its unattributed tally.
struct ShardAccum {
    unattributed: usize,
    cancelled: bool,
    inclusive: Counts,
    exclusive: Counts,
}

impl ShardAccum {
    fn absorb(&mut self, other: ShardAccum) {
        self.unattributed += other.unattributed;
        self.cancelled |= other.cancelled;
        self.inclusive.absorb(other.inclusive);
        self.exclusive.absorb(other.exclusive);
    }
}

/// Samples per `(value slot, function slot)` cell, for one attribution
/// kind.
enum Counts {
    /// Every cell, `[value_slot][func_slot]` with rows `width` functions
    /// wide: a sample adds to one row.
    Dense { width: usize, cells: Vec<u64> },
    /// Only the cells samples hit, for traces whose value dictionaries
    /// are too large to grid.
    Sparse(HashMap<(u32, u32), u64>),
}

impl Counts {
    fn new(dense: bool, funcs: usize, values: usize) -> Counts {
        if dense {
            Counts::Dense {
                width: funcs,
                cells: vec![0; funcs * values],
            }
        } else {
            Counts::Sparse(HashMap::new())
        }
    }

    /// Count one sample of value slot `value` for each of `funcs`.
    #[inline]
    fn add(&mut self, value: u32, funcs: &[u32]) {
        match self {
            Counts::Dense { width, cells } => {
                let row = &mut cells[value as usize * *width..][..*width];
                for &f in funcs {
                    row[f as usize] += 1;
                }
            }
            Counts::Sparse(cells) => {
                for &f in funcs {
                    *cells.entry((value, f)).or_default() += 1;
                }
            }
        }
    }

    fn absorb(&mut self, other: Counts) {
        match (self, other) {
            (Counts::Dense { cells, .. }, Counts::Dense { cells: o, .. }) => {
                for (a, b) in cells.iter_mut().zip(&o) {
                    *a += b;
                }
            }
            (Counts::Sparse(cells), Counts::Sparse(o)) => {
                for (cell, n) in o {
                    *cells.entry(cell).or_default() += n;
                }
            }
            _ => unreachable!("all shards share one representation"),
        }
    }

    /// The non-zero cells as `(func_slot, value_slot, count)`, ascending.
    fn into_cells(self) -> Vec<(u32, u32, u64)> {
        match self {
            Counts::Dense { width, cells } => {
                let values = cells.len().checked_div(width).unwrap_or(0);
                let mut out = Vec::new();
                for f in 0..width {
                    for v in 0..values {
                        let n = cells[v * width + f];
                        if n > 0 {
                            out.push((f as u32, v as u32, n));
                        }
                    }
                }
                out
            }
            Counts::Sparse(cells) => {
                let mut out: Vec<(u32, u32, u64)> =
                    cells.into_iter().map(|((v, f), n)| (f, v, n)).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

/// One open frame on a thread's stack.
#[derive(Clone, Copy)]
struct Open {
    end_ns: u64,
    depth: u32,
    func: u32,
}

/// The functions with a frame on any stack, kept as frames are pushed
/// and popped rather than rebuilt per instant. Counts add, so the order
/// of the set does not matter.
struct InclusiveSet {
    /// Each function in the set once.
    funcs: Vec<u32>,
    /// Per function slot: its frames on any stack, and its place in
    /// `funcs` while that is non-zero.
    open: Vec<(u32, u32)>,
}

impl InclusiveSet {
    fn new(n_funcs: usize) -> InclusiveSet {
        InclusiveSet {
            funcs: Vec::with_capacity(n_funcs),
            open: vec![(0, 0); n_funcs],
        }
    }

    /// Push `frame` onto `stack`.
    fn push(&mut self, stack: &mut Vec<Open>, frame: Open) {
        let (count, at) = &mut self.open[frame.func as usize];
        if *count == 0 {
            *at = self.funcs.len() as u32;
            self.funcs.push(frame.func);
        }
        *count += 1;
        stack.push(frame);
    }

    /// Pop the top frame of `stack` while `ended` holds for it.
    fn pop_while(&mut self, stack: &mut Vec<Open>, ended: impl Fn(&Open) -> bool) {
        while let Some(frame) = stack.pop_if(|f| ended(f)) {
            let (count, at) = &mut self.open[frame.func as usize];
            *count -= 1;
            if *count == 0 {
                let at = *at as usize;
                self.funcs.swap_remove(at);
                if let Some(&moved) = self.funcs.get(at) {
                    self.open[moved as usize].1 = at as u32;
                }
            }
        }
    }
}

/// Sweep one contiguous sample range. Frames open at the shard's first
/// sample are re-admitted by walking the intervals from the start, once
/// per shard.
fn sweep_range(
    tl: &Timeline,
    cols: &SampleColumns,
    (lo, hi): (usize, usize),
    dense: bool,
    cancel: &CancelToken,
) -> ShardAccum {
    let n_funcs = tl.funcs.len();
    let n_threads = tl.threads.len();
    let mut acc = ShardAccum {
        unattributed: 0,
        cancelled: false,
        inclusive: Counts::new(dense, n_funcs, cols.total_values()),
        exclusive: Counts::new(dense, n_funcs, cols.total_values()),
    };

    // Per thread, the open frames, outermost first; `live` lists the
    // threads whose stack is non-empty (`listed` marks them).
    let mut stacks: Vec<Vec<Open>> = vec![Vec::new(); n_threads];
    let mut live: Vec<u32> = Vec::new();
    let mut listed = vec![false; n_threads];
    let mut next = 0usize;
    let mut inclusive = InclusiveSet::new(n_funcs);
    let mut exclusive: Vec<u32> = Vec::with_capacity(n_threads);
    let mut check_at = lo;

    let mut i = lo;
    while i < hi {
        // Cooperative cancellation: one branch on the free default token;
        // an armed token reads the clock only every few thousand samples.
        if i >= check_at {
            if cancel.is_cancelled() {
                acc.cancelled = true;
                break;
            }
            check_at = i + CANCEL_CHECK_SAMPLES;
        }
        let t = cols.timestamp_ns[i];
        let mut end = i + 1;
        while end < hi && cols.timestamp_ns[end] == t {
            end += 1;
        }

        // Admit the frames that started by `t`. The frames as deep as one
        // or deeper ended by the time it started, so they are popped; a
        // frame that has ended by `t` is not pushed.
        while let Some(iv) = tl.intervals.get(next).filter(|iv| iv.start_ns <= t) {
            let (func, thread) = tl.slots[next];
            next += 1;
            let stack = &mut stacks[thread as usize];
            inclusive.pop_while(stack, |f| f.depth >= iv.depth);
            if iv.end_ns <= t {
                continue;
            }
            debug_assert!(
                stack.last().is_none_or(|f| f.end_ns >= iv.end_ns),
                "a frame outlives its caller: the timeline was not replayed from time-sorted events"
            );
            let frame = Open {
                end_ns: iv.end_ns,
                depth: iv.depth,
                func,
            };
            inclusive.push(stack, frame);
            if !listed[thread as usize] {
                listed[thread as usize] = true;
                live.push(thread);
            }
        }

        // Resolve the instant once: pop the frames that have ended (a
        // frame ends no later than its caller, so they sit on top) and
        // take each thread's innermost. The inclusive set is then every
        // function on a stack, each once, however often it is there
        // (recursion, several threads).
        exclusive.clear();
        let mut k = 0;
        while k < live.len() {
            let thread = live[k] as usize;
            let stack = &mut stacks[thread];
            inclusive.pop_while(stack, |f| f.end_ns <= t);
            let Some(top) = stack.last() else {
                listed[thread] = false;
                live.swap_remove(k);
                continue;
            };
            exclusive.push(top.func);
            k += 1;
        }

        if live.is_empty() {
            acc.unattributed += end - i;
        } else {
            for &value in &cols.value_slot[i..end] {
                acc.inclusive.add(value, &inclusive.funcs);
                acc.exclusive.add(value, &exclusive);
            }
        }
        i = end;
    }
    acc
}

/// Build the public per-function map from the merged counts. Each
/// function's cells of one sensor are folded through
/// [`StreamingStats::push_n`] in ascending value order, yielding exactly
/// the histogram a sample-at-a-time sweep would have built.
fn materialize(tl: &Timeline, cols: &SampleColumns, acc: ShardAccum, out: &mut Correlation) {
    for (counts, exclusive) in [(acc.inclusive, false), (acc.exclusive, true)] {
        let cells = counts.into_cells();
        // Runs of cells with one function and one sensor: a sensor's value
        // slots are the contiguous range from its base to the next one's.
        let mut rest = &cells[..];
        while let Some(&(func, value, _)) = rest.first() {
            let sensor = cols.value_base.partition_point(|&b| b <= value) - 1;
            let limit = cols.value_base.get(sensor + 1).map_or(u32::MAX, |&b| b);
            let run = rest
                .iter()
                .take_while(|&&(f, v, _)| f == func && v < limit)
                .count();
            let mut stats = StreamingStats::with_distinct_capacity(run);
            for &(_, v, n) in &rest[..run] {
                stats.push_n(f64_unkey(cols.flat_values[v as usize]), n);
            }
            rest = &rest[run..];
            let fs = out
                .per_function
                .entry(FunctionId(tl.funcs[func as usize]))
                .or_default();
            let side = if exclusive {
                &mut fs.exclusive
            } else {
                &mut fs.inclusive
            };
            side.insert(cols.sensor_ids[sensor], stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Timeline;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_sensors::Temperature;

    const T0: ThreadId = ThreadId(0);
    const MAIN: FunctionId = FunctionId(0);
    const FOO1: FunctionId = FunctionId(1);
    const FOO2: FunctionId = FunctionId(2);
    const S0: SensorId = SensorId(0);
    const S1: SensorId = SensorId(1);

    fn sample(t: u64, sensor: SensorId, celsius: f64) -> SensorReading {
        SensorReading::new(sensor, t, Temperature::from_celsius(celsius))
    }

    fn micro_d_timeline() -> Timeline {
        // main(0..100) { foo1(10..60) { foo2(20..30) } foo2(70..90) }
        Timeline::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(10, T0, FOO1),
            Event::enter(20, T0, FOO2),
            Event::exit(30, T0, FOO2),
            Event::exit(60, T0, FOO1),
            Event::enter(70, T0, FOO2),
            Event::exit(90, T0, FOO2),
            Event::exit(100, T0, MAIN),
        ])
    }

    #[test]
    fn sample_attributed_to_whole_stack_inclusively() {
        let tl = micro_d_timeline();
        let c = correlate(&tl, &[sample(25, S0, 40.0)]);
        // t=25: stack is main→foo1→foo2.
        assert_eq!(c.per_function[&MAIN].inclusive[&S0].count(), 1);
        assert_eq!(c.per_function[&FOO1].inclusive[&S0].count(), 1);
        assert_eq!(c.per_function[&FOO2].inclusive[&S0].count(), 1);
        // Exclusive only to the innermost (foo2).
        assert!(c.per_function[&FOO2].exclusive.contains_key(&S0));
        assert!(!c.per_function[&FOO1].exclusive.contains_key(&S0));
        assert!(!c.per_function[&MAIN].exclusive.contains_key(&S0));
        assert_eq!(c.unattributed, 0);
    }

    #[test]
    fn fahrenheit_conversion_applied() {
        let tl = micro_d_timeline();
        let c = correlate(&tl, &[sample(5, S0, 40.0)]); // only main active
        let v = &c.per_function[&MAIN].inclusive[&S0];
        assert!((v.min().unwrap() - 104.0).abs() < 1e-9);
    }

    #[test]
    fn samples_outside_any_interval_are_unattributed() {
        let tl = micro_d_timeline();
        let c = correlate(&tl, &[sample(150, S0, 40.0)]);
        assert_eq!(c.unattributed, 1);
        assert!(c.per_function.is_empty());
    }

    #[test]
    fn multiple_sensors_kept_separate() {
        let tl = micro_d_timeline();
        let c = correlate(
            &tl,
            &[
                sample(5, S0, 40.0),
                sample(5, S1, 25.0),
                sample(65, S0, 41.0),
            ],
        );
        let main = &c.per_function[&MAIN];
        assert_eq!(main.inclusive[&S0].count(), 2);
        assert_eq!(main.inclusive[&S1].count(), 1);
    }

    #[test]
    fn function_seen_at_different_temperatures_over_time() {
        // The paper's motivating case: the same function can execute at
        // different temperatures as conditions change (§3.1).
        let tl = micro_d_timeline();
        let c = correlate(
            &tl,
            &[sample(25, S0, 35.0), sample(75, S0, 45.0)], // both inside foo2
        );
        let foo2 = &c.per_function[&FOO2].inclusive[&S0];
        assert_eq!(foo2.count(), 2);
        assert!(
            (foo2.max().unwrap() - foo2.min().unwrap() - 18.0).abs() < 1e-9,
            "10 °C = 18 °F apart"
        );
    }

    #[test]
    fn recursion_attributes_once_per_sample() {
        let tl = Timeline::build(&[
            Event::enter(0, T0, FOO1),
            Event::enter(10, T0, FOO1),
            Event::exit(90, T0, FOO1),
            Event::exit(100, T0, FOO1),
        ]);
        let c = correlate(&tl, &[sample(50, S0, 40.0)]);
        assert_eq!(
            c.per_function[&FOO1].inclusive[&S0].count(),
            1,
            "recursive frames must not double-attribute"
        );
        // Exclusive also exactly once (innermost frame).
        assert_eq!(c.per_function[&FOO1].exclusive[&S0].count(), 1);
    }

    #[test]
    fn two_threads_both_get_exclusive_attribution() {
        let t1 = ThreadId(1);
        let tl = Timeline::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(0, t1, FOO1),
            Event::exit(100, T0, MAIN),
            Event::exit(100, t1, FOO1),
        ]);
        let c = correlate(&tl, &[sample(50, S0, 40.0)]);
        // One sample, but each thread's innermost gets an exclusive hit.
        assert_eq!(c.per_function[&MAIN].exclusive[&S0].count(), 1);
        assert_eq!(c.per_function[&FOO1].exclusive[&S0].count(), 1);
    }

    #[test]
    fn boundary_semantics_match_intervals() {
        let tl = micro_d_timeline();
        // t=60 is foo1's exclusive end: not inside foo1, inside main.
        let c = correlate(&tl, &[sample(60, S0, 40.0)]);
        assert!(!c.per_function.contains_key(&FOO1));
        assert!(c.per_function.contains_key(&MAIN));
    }

    #[test]
    fn dense_sweep_attributes_proportionally() {
        let tl = micro_d_timeline();
        // A sample every time unit from 0..100.
        let samples: Vec<SensorReading> = (0..100).map(|t| sample(t, S0, 40.0)).collect();
        let c = correlate(&tl, &samples);
        assert_eq!(c.per_function[&MAIN].inclusive[&S0].count(), 100);
        assert_eq!(c.per_function[&FOO1].inclusive[&S0].count(), 50); // 10..60
        assert_eq!(c.per_function[&FOO2].inclusive[&S0].count(), 30); // 20..30 + 70..90
        assert_eq!(c.unattributed, 0);
        // Exclusive partitions the samples across the three functions.
        let ex: usize = [MAIN, FOO1, FOO2]
            .iter()
            .map(|f| c.per_function[f].exclusive[&S0].count())
            .sum();
        assert_eq!(ex, 100);
    }

    #[test]
    fn out_of_order_samples_are_resorted_not_misattributed() {
        let tl = micro_d_timeline();
        let in_order = [sample(25, S0, 35.0), sample(75, S0, 45.0)];
        let shuffled = [sample(75, S0, 45.0), sample(25, S0, 35.0)];
        let a = correlate(&tl, &in_order);
        let b = correlate(&tl, &shuffled);
        assert!(!a.resorted);
        assert!(b.resorted, "out-of-order input must be flagged");
        // Identical attribution either way.
        assert_eq!(a.unattributed, b.unattributed);
        assert_eq!(a.per_function.len(), b.per_function.len());
        for (func, fa) in &a.per_function {
            let fb = &b.per_function[func];
            for (sensor, sa) in &fa.inclusive {
                assert_eq!(sa.summary(), fb.inclusive[sensor].summary());
            }
            for (sensor, sa) in &fa.exclusive {
                assert_eq!(sa.summary(), fb.exclusive[sensor].summary());
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let tl = micro_d_timeline();
        let c = correlate(&tl, &[]);
        assert!(c.per_function.is_empty());
        let empty_tl = Timeline::build(&[]);
        let c2 = correlate(&empty_tl, &[sample(5, S0, 40.0)]);
        assert_eq!(c2.unattributed, 1);
    }

    /// Assert two correlations carry identical statistics everywhere.
    fn assert_correlations_equal(a: &Correlation, b: &Correlation) {
        assert_eq!(a.unattributed, b.unattributed);
        assert_eq!(a.resorted, b.resorted);
        assert_eq!(a.per_function.len(), b.per_function.len());
        for (func, fa) in &a.per_function {
            let fb = &b.per_function[func];
            assert_eq!(fa.inclusive.len(), fb.inclusive.len());
            assert_eq!(fa.exclusive.len(), fb.exclusive.len());
            for (sensor, sa) in &fa.inclusive {
                assert_eq!(sa.summary(), fb.inclusive[sensor].summary());
            }
            for (sensor, sa) in &fa.exclusive {
                assert_eq!(sa.summary(), fb.exclusive[sensor].summary());
            }
        }
    }

    #[test]
    fn every_shard_count_matches_sequential() {
        let tl = micro_d_timeline();
        // Dense sample coverage including unattributed tails on two sensors.
        let samples: Vec<SensorReading> = (0..120)
            .flat_map(|t| {
                [
                    sample(t, S0, 30.0 + (t % 7) as f64),
                    sample(t, S1, 20.0 + (t % 3) as f64),
                ]
            })
            .collect();
        let sequential = correlate_with(&tl, &samples, 1);
        for shards in 2..=8 {
            let sharded = correlate_with(&tl, &samples, shards);
            assert_correlations_equal(&sequential, &sharded);
        }
        // Over-sharding beyond the sample count also stays identical.
        let tiny: Vec<SensorReading> = (0..3).map(|t| sample(t, S0, 40.0)).collect();
        assert_correlations_equal(
            &correlate_with(&tl, &tiny, 1),
            &correlate_with(&tl, &tiny, 64),
        );
    }

    #[test]
    fn boundary_straddling_intervals_survive_sharding() {
        // One interval spans the whole trace, so every shard after the
        // first must re-admit it across its left boundary; a second
        // short-lived interval sits exactly on a shard boundary.
        let tl = Timeline::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(50, T0, FOO1),
            Event::exit(51, T0, FOO1),
            Event::exit(100, T0, MAIN),
        ]);
        let samples: Vec<SensorReading> = (0..100).map(|t| sample(t, S0, 40.0)).collect();
        let sequential = correlate_with(&tl, &samples, 1);
        assert_eq!(sequential.per_function[&MAIN].inclusive[&S0].count(), 100);
        assert_eq!(sequential.per_function[&FOO1].inclusive[&S0].count(), 1);
        for shards in [2, 3, 4, 50, 100] {
            assert_correlations_equal(&sequential, &correlate_with(&tl, &samples, shards));
        }
    }

    #[test]
    fn tripped_token_yields_partial_flagged_sweep() {
        let tl = micro_d_timeline();
        let samples: Vec<SensorReading> = (0..100).map(|t| sample(t, S0, 40.0)).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let c = correlate_with_cancel(&tl, &samples, 1, &cancel);
        assert!(c.cancelled, "trip must be surfaced, not swallowed");
        assert!(c.per_function.is_empty(), "tripped before any attribution");
        // An armed-but-untripped token changes nothing.
        let live = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let full = correlate_with_cancel(&tl, &samples, 1, &live);
        assert!(!full.cancelled);
        assert_correlations_equal(&full, &correlate_with(&tl, &samples, 1));
    }

    #[test]
    fn auto_sharding_stays_sequential_for_small_traces() {
        assert_eq!(effective_shards(0, 100), 1);
        assert_eq!(effective_shards(0, AUTO_SHARD_MIN_SAMPLES), 1);
        // Explicit requests are honoured, clamped to the sample count.
        assert_eq!(effective_shards(5, 100), 5);
        assert_eq!(effective_shards(200, 100), 100);
        assert_eq!(effective_shards(1, 0), 1);
    }

    /// A generated multi-thread stream over dense and sparse ids: equal
    /// timestamps, zero-length calls, recursion, stray exits and frames
    /// left open.
    fn stream(ops: &[(usize, usize, bool, u64)]) -> Vec<Event> {
        let threads = [T0, ThreadId(5), ThreadId(u32::MAX - 1)];
        let funcs = [MAIN, FOO1, FOO2, FunctionId(1 << 20), FunctionId(u32::MAX)];
        let mut stacks = vec![Vec::new(); threads.len()];
        let mut t = 10;
        let mut events = Vec::new();
        for &(th, f, enter, dt) in ops {
            t += dt;
            let (thread, stack) = (threads[th], &mut stacks[th]);
            events.push(match stack.pop() {
                Some(top) if !enter => Event::exit(t, thread, top),
                None if !enter => Event::exit(t, thread, funcs[f]),
                top => {
                    stack.extend(top);
                    stack.push(funcs[f]);
                    Event::enter(t, thread, funcs[f])
                }
            });
        }
        events
    }

    // The sparse grid, which no input from outside this crate reaches,
    // attributes exactly as the dense one at every shard count (the dense
    // sweep is checked against a naive reference in `tests/oracles.rs`).
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn sparse_grid_matches_dense_at_every_shard_count(
            ops in proptest::prop::collection::vec(
                (0usize..3, 0usize..5, proptest::prop::bool::ANY, 0u64..3),
                0..80,
            ),
            raw in proptest::prop::collection::vec((0u64..250, 0u16..3, 0u32..6), 1..60),
        ) {
            let tl = Timeline::build(&stream(&ops));
            let samples: Vec<SensorReading> = raw
                .iter()
                .map(|&(t, s, v)| sample(t, SensorId(s), 30.0 + f64::from(v) * 0.25))
                .collect();
            let dense = correlate_with(&tl, &samples, 1);
            let cols = SampleColumns::from_readings(&samples);
            let never = CancelToken::default();
            for shards in 1..=4 {
                let chunk = cols.len().div_ceil(shards);
                let mut acc = sweep_range(&tl, &cols, (0, chunk.min(cols.len())), false, &never);
                for lo in (chunk..cols.len()).step_by(chunk) {
                    let hi = (lo + chunk).min(cols.len());
                    acc.absorb(sweep_range(&tl, &cols, (lo, hi), false, &never));
                }
                let mut sparse = Correlation { resorted: cols.resorted, ..Default::default() };
                sparse.unattributed = acc.unattributed;
                materialize(&tl, &cols, acc, &mut sparse);
                assert_correlations_equal(&dense, &sparse);
            }
        }
    }

    #[test]
    fn sparse_counts_only_the_cells_samples_hit() {
        // 4,000 functions each called once under main and 4,000 sensors
        // with one sample each: 16M cells per attribution kind, past the
        // dense ceiling. A `StreamingStats` per (sensor, function) cell
        // took 984 MB and 1.33 s here (release, 2-vCPU VM).
        let n = 4_000u32;
        let at = |k: u32| 10 * u64::from(k);
        let mut events = vec![Event::enter(0, T0, MAIN)];
        for k in 1..=n {
            events.push(Event::enter(at(k), T0, FunctionId(k)));
            events.push(Event::exit(at(k) + 5, T0, FunctionId(k)));
        }
        events.push(Event::exit(at(n + 1), T0, MAIN));
        let samples: Vec<SensorReading> = (1..=n)
            .map(|k| sample(at(k) + 2, SensorId(k as u16), 30.0 + f64::from(k) * 0.25))
            .collect();
        let tl = Timeline::build(&events);
        assert!(tl.funcs.len() * samples.len() > MAX_DENSE_CELLS);

        let started = std::time::Instant::now();
        let c = correlate_with(&tl, &samples, 1);
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
        assert_eq!(c.unattributed, 0);
        assert_eq!(c.per_function.len(), n as usize + 1);
        assert_eq!(c.per_function[&MAIN].inclusive.len(), n as usize);
        assert!(c.per_function[&MAIN].exclusive.is_empty());
        for k in 1..=n {
            let fs = &c.per_function[&FunctionId(k)];
            assert_eq!(fs.inclusive.len(), 1);
            let exclusive = &fs.exclusive[&SensorId(k as u16)];
            assert_eq!(exclusive.count(), 1);
            let celsius = (exclusive.max().unwrap() - 32.0) / 1.8;
            assert!((celsius - (30.0 + f64::from(k) * 0.25)).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_fallback_matches_dense() {
        // Force the sparse path by shrinking the dense ceiling is not
        // possible at runtime, so exercise it directly: a correlation is
        // representation-independent when both paths see the same sweep.
        let tl = micro_d_timeline();
        let samples: Vec<SensorReading> = (0..200)
            .map(|t| sample(t, S0, 30.0 + t as f64 * 0.25))
            .collect();
        let cols = SampleColumns::from_readings(&samples);
        let never = CancelToken::default();
        let dense = sweep_range(&tl, &cols, (0, cols.len()), true, &never);
        let sparse = sweep_range(&tl, &cols, (0, cols.len()), false, &never);
        let mut out_dense = Correlation::default();
        materialize(&tl, &cols, dense, &mut out_dense);
        let mut out_sparse = Correlation::default();
        materialize(&tl, &cols, sparse, &mut out_sparse);
        assert_correlations_equal(&out_dense, &out_sparse);
        // Sparse shard merging is exercised too.
        let a = sweep_range(&tl, &cols, (0, 100), false, &never);
        let b = sweep_range(&tl, &cols, (100, cols.len()), false, &never);
        let mut merged = a;
        merged.absorb(b);
        let mut out_merged = Correlation::default();
        materialize(&tl, &cols, merged, &mut out_merged);
        assert_correlations_equal(&out_dense, &out_merged);
    }
}
