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
//! The sweep is O((intervals + samples)·log) — a merge along the time axis
//! with an active-interval set — and runs over the columnar batches of
//! [`crate::columns`]: timestamps, slot ids, and dictionary-encoded values
//! in contiguous flat vectors. Because values are dictionary-encoded, the
//! inner loop is a plain `counts[func × value] += 1` into a dense grid —
//! no hashing, no tree nodes, no allocation — and exact
//! [`StreamingStats`] histograms are materialised once at the end.
//!
//! The sample axis is additionally **sharded**: contiguous time-window
//! shards sweep independently (each shard re-admits the intervals that
//! straddle its left boundary) on the vendored work-stealing pool, and the
//! per-shard count grids merge by plain addition — an order-independent
//! reduction, so the result is bit-identical to the sequential sweep for
//! every shard count.

use crate::columns::{IntervalColumns, SampleColumns};
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
/// distinct values falls back to sparse per-cell accumulators.
const MAX_DENSE_CELLS: usize = 1 << 22;

/// Auto-sharding refuses to split below this many samples per shard —
/// spawning threads for a few thousand samples costs more than it saves.
const AUTO_SHARD_MIN_SAMPLES: usize = 8_192;

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
/// into count grids that merge by addition, in fixed shard order.
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
    let ivs = IntervalColumns::from_timeline(timeline);
    if ivs.is_empty() {
        result.unattributed = cols.len();
        return result;
    }

    let n_funcs = ivs.func_ids.len();
    let dense = n_funcs
        .checked_mul(cols.total_values())
        .map(|cells| cells <= MAX_DENSE_CELLS)
        .unwrap_or(false);

    // Contiguous sample ranges, one per shard.
    let shards = effective_shards(shards, cols.len());
    let chunk = cols.len().div_ceil(shards);
    let ranges: Vec<(usize, usize)> = (0..shards)
        .map(|s| (s * chunk, ((s + 1) * chunk).min(cols.len())))
        .filter(|&(lo, hi)| lo < hi)
        .collect();

    let accums: Vec<ShardAccum> = if ranges.len() == 1 {
        vec![sweep_range(&ivs, &cols, ranges[0], dense, cancel)]
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(ranges.len())
            .build()
            .expect("thread pool construction is infallible");
        let (ivs_ref, cols_ref) = (&ivs, &cols);
        pool.install(|| {
            ranges
                .into_par_iter()
                .map(|range| sweep_range(ivs_ref, cols_ref, range, dense, cancel))
                .collect()
        })
    };

    // Deterministic merge: fixed shard order, and the dense representation
    // is additive anyway (order-independent u64 sums).
    let mut accums = accums.into_iter();
    let mut acc = accums.next().expect("at least one shard");
    for other in accums {
        acc.absorb(other);
    }
    result.unattributed = acc.unattributed;
    result.cancelled = acc.cancelled;
    materialize(&ivs, &cols, acc, &mut result);
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

/// One shard's accumulated counts plus its unattributed tally.
struct ShardAccum {
    unattributed: usize,
    cancelled: bool,
    grid: Grid,
}

impl ShardAccum {
    fn absorb(&mut self, other: ShardAccum) {
        self.unattributed += other.unattributed;
        self.cancelled |= other.cancelled;
        match (&mut self.grid, other.grid) {
            (
                Grid::Dense {
                    inclusive,
                    exclusive,
                },
                Grid::Dense {
                    inclusive: oi,
                    exclusive: oe,
                },
            ) => {
                for (a, b) in inclusive.iter_mut().zip(&oi) {
                    *a += b;
                }
                for (a, b) in exclusive.iter_mut().zip(&oe) {
                    *a += b;
                }
            }
            (
                Grid::Sparse {
                    inclusive,
                    exclusive,
                },
                Grid::Sparse {
                    inclusive: oi,
                    exclusive: oe,
                },
            ) => {
                merge_sparse(inclusive, &oi);
                merge_sparse(exclusive, &oe);
            }
            _ => unreachable!("all shards share one representation"),
        }
    }
}

fn merge_sparse(into: &mut [Vec<StreamingStats>], from: &[Vec<StreamingStats>]) {
    for (a_row, b_row) in into.iter_mut().zip(from) {
        for (a, b) in a_row.iter_mut().zip(b_row) {
            if !b.is_empty() {
                a.merge(b);
            }
        }
    }
}

/// The per-shard accumulator. Dense is the normal case: one `u64` count
/// per `(function, sensor·value)` cell, `+= 1` in the hot loop. Sparse
/// keeps a `StreamingStats` per `(sensor, function)` cell for traces whose
/// value dictionaries are too large to grid.
enum Grid {
    Dense {
        /// `func_slot × total_values` counts, inclusive attribution.
        inclusive: Vec<u64>,
        /// Same shape, exclusive attribution.
        exclusive: Vec<u64>,
    },
    Sparse {
        /// `[sensor_slot][func_slot]` accumulators.
        inclusive: Vec<Vec<StreamingStats>>,
        /// Same shape, exclusive attribution.
        exclusive: Vec<Vec<StreamingStats>>,
    },
}

impl Grid {
    fn new(dense: bool, n_funcs: usize, n_sensors: usize, total_values: usize) -> Grid {
        if dense {
            Grid::Dense {
                inclusive: vec![0; n_funcs * total_values],
                exclusive: vec![0; n_funcs * total_values],
            }
        } else {
            Grid::Sparse {
                inclusive: vec![vec![StreamingStats::default(); n_funcs]; n_sensors],
                exclusive: vec![vec![StreamingStats::default(); n_funcs]; n_sensors],
            }
        }
    }

    #[inline]
    fn hit_inclusive(&mut self, total_values: usize, cell: Cell) {
        match self {
            Grid::Dense { inclusive, .. } => inclusive[cell.fslot * total_values + cell.vslot] += 1,
            Grid::Sparse { inclusive, .. } => inclusive[cell.sslot][cell.fslot].push(cell.value),
        }
    }

    #[inline]
    fn hit_exclusive(&mut self, total_values: usize, cell: Cell) {
        match self {
            Grid::Dense { exclusive, .. } => exclusive[cell.fslot * total_values + cell.vslot] += 1,
            Grid::Sparse { exclusive, .. } => exclusive[cell.sslot][cell.fslot].push(cell.value),
        }
    }
}

/// One attribution target: which function, and the sample's encoded value
/// (dense path uses the slot, sparse path the decoded Fahrenheit value).
#[derive(Clone, Copy)]
struct Cell {
    fslot: usize,
    sslot: usize,
    vslot: usize,
    value: f64,
}

/// Sweep one contiguous sample range. Intervals that straddle the shard's
/// left boundary are re-admitted by scanning the interval columns from the
/// start and skipping everything that already ended — linear in intervals,
/// but over contiguous flat arrays, and done once per shard.
fn sweep_range(
    ivs: &IntervalColumns,
    cols: &SampleColumns,
    (lo, hi): (usize, usize),
    dense: bool,
    cancel: &CancelToken,
) -> ShardAccum {
    let n_funcs = ivs.func_ids.len();
    let n_threads = ivs.n_threads;
    let total_values = cols.total_values();
    let mut grid = Grid::new(dense, n_funcs, cols.sensor_ids.len(), total_values);
    let mut unattributed = 0usize;
    let mut cancelled = false;

    // Sweep state. Epoch stamps replace per-sample clearing: a slot is
    // "marked for this sample" iff its stamp equals the current epoch.
    let mut active: Vec<u32> = Vec::new(); // interval indices, unordered
    let mut next = 0usize;
    let mut func_epoch: Vec<u64> = vec![0; n_funcs];
    let mut thread_epoch: Vec<u64> = vec![0; n_threads];
    let mut thread_best_depth: Vec<u32> = vec![0; n_threads];
    let mut thread_best_cell: Vec<usize> = vec![0; n_threads];
    let mut touched_threads: Vec<u32> = Vec::with_capacity(n_threads);

    for i in lo..hi {
        // Cooperative cancellation: one branch on the free default token;
        // an armed token reads the clock only every 4096 samples.
        if (i - lo) & 0xFFF == 0 && cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let t = cols.timestamp_ns[i];
        let epoch = (i - lo) as u64 + 1; // 0 = "never seen"

        // Admit intervals that have started and not already ended —
        // skipping dead ones keeps a mid-trace shard's first admission
        // from flooding the active set with the entire prefix.
        while next < ivs.len() && ivs.start_ns[next] <= t {
            if ivs.end_ns[next] > t {
                active.push(next as u32);
            }
            next += 1;
        }
        // Retire intervals that have ended (swap-remove keeps this O(1)
        // per retirement; the active set is unordered by construction).
        let mut j = 0;
        while j < active.len() {
            if ivs.end_ns[active[j] as usize] <= t {
                active.swap_remove(j);
            } else {
                j += 1;
            }
        }
        // Post-retirement, every active interval covers t: admission
        // guarantees start ≤ t and retirement guarantees end > t, which is
        // exactly `Interval::contains` ([start, end)).
        if active.is_empty() {
            unattributed += 1;
            continue;
        }

        let sslot = cols.sensor_slot[i] as usize;
        let vslot = cols.value_slot[i] as usize;
        let value = f64_unkey(cols.flat_values[vslot]);

        touched_threads.clear();
        for &idx in &active {
            let idx = idx as usize;
            let fslot = ivs.func_slot[idx] as usize;
            let tslot = ivs.thread_slot[idx] as usize;
            let depth = ivs.depth[idx];

            // Inclusive: each distinct function once per sample, even when
            // on the stack multiple times (recursion) or on several threads.
            if func_epoch[fslot] != epoch {
                func_epoch[fslot] = epoch;
                grid.hit_inclusive(
                    total_values,
                    Cell {
                        fslot,
                        sslot,
                        vslot,
                        value,
                    },
                );
            }

            // Track the innermost (deepest) frame per thread.
            if thread_epoch[tslot] != epoch {
                thread_epoch[tslot] = epoch;
                thread_best_depth[tslot] = depth;
                thread_best_cell[tslot] = fslot;
                touched_threads.push(tslot as u32);
            } else if depth > thread_best_depth[tslot] {
                thread_best_depth[tslot] = depth;
                thread_best_cell[tslot] = fslot;
            }
        }

        // Exclusive: the innermost frame of each thread active at t.
        for &tslot in &touched_threads {
            let fslot = thread_best_cell[tslot as usize];
            grid.hit_exclusive(
                total_values,
                Cell {
                    fslot,
                    sslot,
                    vslot,
                    value,
                },
            );
        }
    }

    ShardAccum {
        unattributed,
        cancelled,
        grid,
    }
}

/// Build the public per-function map from the merged accumulator. The
/// dense path replays each `(sensor, value)` dictionary run through
/// [`StreamingStats::push_n`] in ascending value order, yielding exactly
/// the histogram a sample-at-a-time sweep would have built.
fn materialize(
    ivs: &IntervalColumns,
    cols: &SampleColumns,
    acc: ShardAccum,
    out: &mut Correlation,
) {
    match acc.grid {
        Grid::Dense {
            inclusive,
            exclusive,
        } => {
            let total_values = cols.total_values();
            for (fslot, &func) in ivs.func_ids.iter().enumerate() {
                let mut fs = FunctionSamples::default();
                for (sslot, &sensor) in cols.sensor_ids.iter().enumerate() {
                    let base = fslot * total_values + cols.value_base[sslot] as usize;
                    let dict = &cols.value_dicts[sslot];
                    let inc = gather(&inclusive[base..base + dict.len()], dict);
                    if !inc.is_empty() {
                        fs.inclusive.insert(sensor, inc);
                    }
                    let exc = gather(&exclusive[base..base + dict.len()], dict);
                    if !exc.is_empty() {
                        fs.exclusive.insert(sensor, exc);
                    }
                }
                if !fs.inclusive.is_empty() || !fs.exclusive.is_empty() {
                    out.per_function.insert(func, fs);
                }
            }
        }
        Grid::Sparse {
            mut inclusive,
            mut exclusive,
        } => {
            for (fslot, &func) in ivs.func_ids.iter().enumerate() {
                let mut fs = FunctionSamples::default();
                for (sslot, &sensor) in cols.sensor_ids.iter().enumerate() {
                    let inc = std::mem::take(&mut inclusive[sslot][fslot]);
                    if !inc.is_empty() {
                        fs.inclusive.insert(sensor, inc);
                    }
                    let exc = std::mem::take(&mut exclusive[sslot][fslot]);
                    if !exc.is_empty() {
                        fs.exclusive.insert(sensor, exc);
                    }
                }
                if !fs.inclusive.is_empty() || !fs.exclusive.is_empty() {
                    out.per_function.insert(func, fs);
                }
            }
        }
    }
}

/// Fold one sensor's dictionary run of counts into a fresh accumulator,
/// pre-sized to the number of occupied buckets so the whole histogram is
/// one allocation.
fn gather(counts: &[u64], dict: &[u64]) -> StreamingStats {
    let occupied = counts.iter().filter(|&&c| c > 0).count();
    let mut stats = StreamingStats::with_distinct_capacity(occupied);
    for (&key, &count) in dict.iter().zip(counts) {
        stats.push_n(f64_unkey(key), count);
    }
    stats
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
            let (ivs, cols) = (IntervalColumns::from_timeline(&tl), SampleColumns::from_readings(&samples));
            let never = CancelToken::default();
            for shards in 1..=4 {
                let chunk = cols.len().div_ceil(shards);
                let mut acc = sweep_range(&ivs, &cols, (0, chunk.min(cols.len())), false, &never);
                for lo in (chunk..cols.len()).step_by(chunk) {
                    let hi = (lo + chunk).min(cols.len());
                    acc.absorb(sweep_range(&ivs, &cols, (lo, hi), false, &never));
                }
                let mut sparse = Correlation { resorted: cols.resorted, ..Default::default() };
                sparse.unattributed = acc.unattributed;
                materialize(&ivs, &cols, acc, &mut sparse);
                assert_correlations_equal(&dense, &sparse);
            }
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
        let ivs = IntervalColumns::from_timeline(&tl);
        let never = CancelToken::default();
        let dense = sweep_range(&ivs, &cols, (0, cols.len()), true, &never);
        let sparse = sweep_range(&ivs, &cols, (0, cols.len()), false, &never);
        let mut out_dense = Correlation::default();
        materialize(&ivs, &cols, dense, &mut out_dense);
        let mut out_sparse = Correlation::default();
        materialize(&ivs, &cols, sparse, &mut out_sparse);
        assert_correlations_equal(&out_dense, &out_sparse);
        // Sparse shard merging is exercised too.
        let a = sweep_range(&ivs, &cols, (0, 100), false, &never);
        let b = sweep_range(&ivs, &cols, (100, cols.len()), false, &never);
        let mut merged = a;
        merged.absorb(b);
        let mut out_merged = Correlation::default();
        materialize(&ivs, &cols, merged, &mut out_merged);
        assert_correlations_equal(&out_dense, &out_merged);
    }
}
