//! Struct-of-arrays batches for the analysis hot path.
//!
//! The decode path produces arrays-of-structs ([`SensorReading`],
//! [`Interval`](crate::timeline::Interval)) because that is the natural
//! shape for parsing and for the public API. The correlate sweep, though,
//! touches only a few fields of each record millions of times, so it wants
//! the opposite layout: one flat, contiguous vector per field. This module
//! is the pivot — [`SampleColumns`] and [`IntervalColumns`] are built once
//! per trace and swept by [`crate::correlate`] with zero allocation in the
//! inner loop. `IntervalColumns` index functions and threads by the slots
//! the timeline's replay assigned ([`crate::timeline`]), so this side
//! builds no id map of its own.
//!
//! `SampleColumns` additionally *dictionary-encodes* the temperature
//! values: sensors report quantised readings (a 1 °C or 0.25 °C grid), so
//! a multi-hour trace holds only a handful of distinct values per sensor.
//! Each sample stores a dense `(sensor, value)` slot pair instead of an
//! `f64`, which lets the sweep accumulate plain `u64` counts in a flat
//! grid and materialise exact [`StreamingStats`](crate::stats::StreamingStats)
//! histograms afterwards.

use crate::stats::f64_key;
use crate::timeline::Timeline;
use std::collections::HashMap;
use tempest_probe::func::FunctionId;
use tempest_sensors::{SensorId, SensorReading};

/// Column-major sensor samples with dictionary-encoded values.
///
/// All per-sample vectors are parallel: index `i` describes the `i`-th
/// sample in timestamp order (a stable re-sort is applied — and flagged —
/// when the input stream was out of order).
#[derive(Debug, Clone, Default)]
pub struct SampleColumns {
    /// Sample timestamps, ascending.
    pub timestamp_ns: Vec<u64>,
    /// Dense sensor slot per sample (index into [`Self::sensor_ids`]).
    pub sensor_slot: Vec<u32>,
    /// Global value slot per sample: `value_base[sensor] + rank` of the
    /// sample's value in its sensor's dictionary. Indexes a flat
    /// `n_total_values`-wide axis shared by every sensor.
    pub value_slot: Vec<u32>,
    /// Sensor slot → sensor id, in first-appearance order.
    pub sensor_ids: Vec<SensorId>,
    /// Per sensor slot: ascending distinct value keys (order-preserving
    /// `f64` bit keys of the Fahrenheit readings — see `stats::f64_key`).
    pub value_dicts: Vec<Vec<u64>>,
    /// Per sensor slot: offset of its dictionary in the flat value axis.
    pub value_base: Vec<u32>,
    /// All dictionaries concatenated; `flat_values[value_slot[i]]` is the
    /// value key of sample `i`.
    pub flat_values: Vec<u64>,
    /// True when the input samples were out of timestamp order and the
    /// columns were built from a stably re-sorted copy.
    pub resorted: bool,
}

impl SampleColumns {
    /// Build columns from a sample stream, re-sorting (stably) when the
    /// stream is out of timestamp order.
    pub fn from_readings(samples: &[SensorReading]) -> SampleColumns {
        let n = samples.len();
        let mut cols = SampleColumns {
            timestamp_ns: Vec::with_capacity(n),
            sensor_slot: Vec::with_capacity(n),
            ..Default::default()
        };
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        let mut sensor_map: HashMap<SensorId, u32> = HashMap::new();
        for s in samples {
            let next = cols.sensor_ids.len() as u32;
            let slot = *sensor_map.entry(s.sensor).or_insert(next);
            if slot == next {
                cols.sensor_ids.push(s.sensor);
            }
            cols.timestamp_ns.push(s.timestamp_ns);
            cols.sensor_slot.push(slot);
            keys.push(f64_key(s.temperature.fahrenheit()));
        }

        // Recovering sort: the sweep is only correct on time-sorted
        // samples. Stable, so same-instant samples keep stream order.
        cols.resorted = !cols.timestamp_ns.windows(2).all(|w| w[0] <= w[1]);
        if cols.resorted {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| cols.timestamp_ns[i as usize]);
            cols.timestamp_ns = permute(&order, &cols.timestamp_ns);
            cols.sensor_slot = permute(&order, &cols.sensor_slot);
            keys = permute(&order, &keys);
        }

        // Per-sensor value dictionaries: ascending distinct keys.
        cols.value_dicts = vec![Vec::new(); cols.sensor_ids.len()];
        for (i, &k) in keys.iter().enumerate() {
            cols.value_dicts[cols.sensor_slot[i] as usize].push(k);
        }
        for d in &mut cols.value_dicts {
            d.sort_unstable();
            d.dedup();
        }
        let mut base = 0u32;
        for d in &cols.value_dicts {
            cols.value_base.push(base);
            cols.flat_values.extend_from_slice(d);
            base += d.len() as u32;
        }

        // Encode each sample as its global value slot.
        cols.value_slot = keys
            .iter()
            .zip(&cols.sensor_slot)
            .map(|(&k, &s)| {
                let s = s as usize;
                let rank = cols.value_dicts[s]
                    .binary_search(&k)
                    .expect("every sample key is in its sensor's dictionary");
                cols.value_base[s] + rank as u32
            })
            .collect();
        cols
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.timestamp_ns.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.timestamp_ns.is_empty()
    }

    /// Width of the flat value axis (sum of all dictionary sizes).
    pub fn total_values(&self) -> usize {
        self.flat_values.len()
    }
}

fn permute<T: Copy>(order: &[u32], values: &[T]) -> Vec<T> {
    order.iter().map(|&i| values[i as usize]).collect()
}

/// Column-major timeline intervals with dense function/thread slots.
///
/// Vectors are parallel and follow the timeline's interval order (sorted
/// by start time, then depth). The slots are the timeline's own: its
/// replay gave each entered function and each thread one, in
/// first-appearance order.
#[derive(Debug, Clone, Default)]
pub struct IntervalColumns {
    /// Interval start timestamps (inclusive), ascending.
    pub start_ns: Vec<u64>,
    /// Interval end timestamps (exclusive).
    pub end_ns: Vec<u64>,
    /// Dense function slot per interval (index into [`Self::func_ids`]).
    pub func_slot: Vec<u32>,
    /// Dense thread slot per interval.
    pub thread_slot: Vec<u32>,
    /// Stack depth per interval.
    pub depth: Vec<u32>,
    /// Function slot → function id.
    pub func_ids: Vec<FunctionId>,
    /// Number of thread slots.
    pub n_threads: usize,
}

impl IntervalColumns {
    /// Flatten a timeline's intervals into columns, indexed by the
    /// timeline's slots (its replay gave every interval's function and
    /// thread one).
    pub fn from_timeline(timeline: &Timeline) -> IntervalColumns {
        let (funcs, threads) = (&timeline.funcs, &timeline.threads);
        let intervals = &timeline.intervals;
        IntervalColumns {
            start_ns: intervals.iter().map(|iv| iv.start_ns).collect(),
            end_ns: intervals.iter().map(|iv| iv.end_ns).collect(),
            func_slot: intervals.iter().map(|iv| funcs.of[&iv.func.0]).collect(),
            thread_slot: intervals
                .iter()
                .map(|iv| threads.of[&iv.thread.0])
                .collect(),
            depth: intervals.iter().map(|iv| iv.depth).collect(),
            func_ids: funcs.ids.iter().map(|&id| FunctionId(id)).collect(),
            n_threads: threads.ids.len(),
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.start_ns.len()
    }

    /// True when there are no intervals.
    pub fn is_empty(&self) -> bool {
        self.start_ns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::f64_unkey;
    use tempest_probe::event::{Event, ThreadId};
    use tempest_sensors::Temperature;

    fn sample(t: u64, sensor: u16, celsius: f64) -> SensorReading {
        SensorReading::new(SensorId(sensor), t, Temperature::from_celsius(celsius))
    }

    #[test]
    fn sample_columns_dictionary_encode_values() {
        let cols = SampleColumns::from_readings(&[
            sample(0, 0, 40.0),
            sample(10, 1, 25.0),
            sample(20, 0, 42.0),
            sample(30, 0, 40.0), // repeat of the first value
        ]);
        assert_eq!(cols.len(), 4);
        assert!(!cols.resorted);
        assert_eq!(cols.sensor_ids, vec![SensorId(0), SensorId(1)]);
        assert_eq!(cols.value_dicts[0].len(), 2, "two distinct values on s0");
        assert_eq!(cols.value_dicts[1].len(), 1);
        assert_eq!(cols.total_values(), 3);
        // Repeated value maps to the same slot.
        assert_eq!(cols.value_slot[0], cols.value_slot[3]);
        // Slots decode back to the original Fahrenheit values.
        let f = f64_unkey(cols.flat_values[cols.value_slot[0] as usize]);
        assert!((f - 104.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_samples_are_stably_resorted() {
        let cols = SampleColumns::from_readings(&[
            sample(20, 0, 42.0),
            sample(10, 0, 40.0),
            sample(10, 1, 41.0), // same instant: stream order preserved
        ]);
        assert!(cols.resorted);
        assert_eq!(cols.timestamp_ns, vec![10, 10, 20]);
        assert_eq!(cols.sensor_slot, vec![0, 1, 0]);
    }

    #[test]
    fn interval_columns_mirror_the_timeline() {
        let tl = Timeline::build(&[
            Event::enter(0, ThreadId(0), FunctionId(0)),
            Event::enter(10, ThreadId(1), FunctionId(1)),
            Event::exit(50, ThreadId(1), FunctionId(1)),
            Event::exit(100, ThreadId(0), FunctionId(0)),
        ]);
        let cols = IntervalColumns::from_timeline(&tl);
        assert_eq!(cols.len(), tl.intervals.len());
        assert_eq!(cols.n_threads, 2);
        assert_eq!(cols.func_ids.len(), 2);
        for (i, iv) in tl.intervals.iter().enumerate() {
            assert_eq!(cols.start_ns[i], iv.start_ns);
            assert_eq!(cols.end_ns[i], iv.end_ns);
            assert_eq!(cols.depth[i], iv.depth);
            assert_eq!(cols.func_ids[cols.func_slot[i] as usize], iv.func);
        }
    }

    #[test]
    fn empty_inputs_build_empty_columns() {
        let s = SampleColumns::from_readings(&[]);
        assert!(s.is_empty());
        assert_eq!(s.total_values(), 0);
        let i = IntervalColumns::from_timeline(&Timeline::build(&[]));
        assert!(i.is_empty());
    }
}
