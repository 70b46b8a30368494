//! Struct-of-arrays sample batches for the analysis hot path.
//!
//! The decode path produces arrays-of-structs ([`SensorReading`]) because
//! that is the natural shape for parsing and for the public API. The
//! correlate sweep, though, touches only a few fields of each sample, so
//! it wants one flat, contiguous vector per field. [`SampleColumns`] is
//! that pivot, built once per trace and swept by [`crate::correlate`]
//! with zero allocation in the inner loop; the sweep reads the timeline's
//! intervals as they are.
//!
//! `SampleColumns` additionally *dictionary-encodes* the temperature
//! values: sensors report quantised readings (a 1 °C or 0.25 °C grid), so
//! a multi-hour trace holds only a handful of distinct values per sensor.
//! Each sample stores a dense value slot instead of an `f64`, which lets
//! the sweep accumulate plain `u64` counts in a flat grid and materialise
//! exact [`StreamingStats`](crate::stats::StreamingStats) histograms
//! afterwards.
//!
//! The columns are built in one pass over the readings. Each reading's
//! value key gets a provisional id, in first-seen order, from a hash map
//! of its sensor's distinct keys; a sensor's consecutive readings mostly
//! repeat, so a reading equal to its sensor's previous one skips the map.
//! Then each sensor's distinct keys are sorted once and every provisional
//! id is remapped in place to `base + rank`. Beyond the output columns the
//! build holds O(distinct keys). Each map draws its own random seed, so no
//! trace can aim collisions at it, and the output does not depend on the
//! seed.

use crate::stats::f64_key;
use std::collections::HashMap;
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
    /// Global value slot per sample: `value_base[sensor] + rank` of the
    /// sample's value among its sensor's distinct values. Indexes the
    /// flat value axis, [`Self::flat_values`], shared by every sensor.
    pub value_slot: Vec<u32>,
    /// Sensor slot → sensor id, in first-appearance order.
    pub sensor_ids: Vec<SensorId>,
    /// Per sensor slot: offset of its values in [`Self::flat_values`].
    pub value_base: Vec<u32>,
    /// Each sensor slot's ascending distinct value keys (order-preserving
    /// `f64` bit keys of the Fahrenheit readings — see `stats::f64_key`),
    /// concatenated in slot order; `flat_values[value_slot[i]]` is the
    /// value key of sample `i`.
    pub flat_values: Vec<u64>,
    /// True when the input samples were out of timestamp order and the
    /// columns were built from a stably re-sorted copy.
    pub resorted: bool,
}

/// Marks a sensor id with no slot yet in [`SampleColumns::from_readings`]'
/// direct table.
const NO_SLOT: u32 = u32::MAX;

impl SampleColumns {
    /// Build columns from a sample stream, re-sorting (stably) when the
    /// stream is out of timestamp order.
    pub fn from_readings(samples: &[SensorReading]) -> SampleColumns {
        let n = samples.len();
        let mut cols = SampleColumns {
            timestamp_ns: Vec::with_capacity(n),
            value_slot: Vec::with_capacity(n),
            ..Default::default()
        };
        // Sensor id → slot, a direct table over the `u16` id.
        let mut slot_of: Vec<u32> = Vec::new();
        let mut sensors: Vec<SensorKeys> = Vec::new();
        let mut distinct = 0u32;
        for s in samples {
            let id = usize::from(s.sensor.0);
            if slot_of.len() <= id {
                slot_of.resize(id + 1, NO_SLOT);
            }
            if slot_of[id] == NO_SLOT {
                slot_of[id] = cols.sensor_ids.len() as u32;
                cols.sensor_ids.push(s.sensor);
                sensors.push(SensorKeys::default());
            }
            let key = f64_key(s.temperature.fahrenheit());
            let keys = &mut sensors[slot_of[id] as usize];
            let provisional = match keys.last {
                Some((last, provisional)) if last == key => provisional,
                _ => {
                    let provisional = *keys.ids.entry(key).or_insert(distinct);
                    if provisional == distinct {
                        distinct += 1;
                    }
                    keys.last = Some((key, provisional));
                    provisional
                }
            };
            cols.timestamp_ns.push(s.timestamp_ns);
            cols.value_slot.push(provisional);
        }

        // Recovering sort: the sweep is only correct on time-sorted
        // samples. Stable, so same-instant samples keep stream order.
        cols.resorted = !cols.timestamp_ns.windows(2).all(|w| w[0] <= w[1]);
        if cols.resorted {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| cols.timestamp_ns[i as usize]);
            cols.timestamp_ns = permute(&order, &cols.timestamp_ns);
            cols.value_slot = permute(&order, &cols.value_slot);
        }

        // Sort each sensor's distinct keys once; its provisional ids map
        // to `base + rank` on the flat axis.
        let mut remap = vec![0u32; distinct as usize];
        cols.flat_values.reserve(distinct as usize);
        for sensor in sensors {
            let base = cols.flat_values.len() as u32;
            cols.value_base.push(base);
            let mut keys: Vec<(u64, u32)> = sensor.ids.into_iter().collect();
            keys.sort_unstable_by_key(|&(key, _)| key);
            for (rank, (key, provisional)) in keys.into_iter().enumerate() {
                remap[provisional as usize] = base + rank as u32;
                cols.flat_values.push(key);
            }
        }
        for slot in &mut cols.value_slot {
            *slot = remap[*slot as usize];
        }
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

/// One sensor's distinct value keys with their provisional ids, hashed
/// with std's per-map random seed, and its previous key with that key's
/// id.
#[derive(Default)]
struct SensorKeys {
    ids: HashMap<u64, u32>,
    last: Option<(u64, u32)>,
}

fn permute<T: Copy>(order: &[u32], values: &[T]) -> Vec<T> {
    order.iter().map(|&i| values[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::f64_unkey;
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
        // Two distinct values on s0, then one on s1.
        assert_eq!(cols.value_base, vec![0, 2]);
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
        // s0's values take slots 0 (40 °C) and 1 (42 °C), s1's 41 °C slot 2.
        assert_eq!(cols.value_base, vec![0, 2]);
        assert_eq!(cols.value_slot, vec![0, 2, 1]);
    }

    #[test]
    fn empty_inputs_build_empty_columns() {
        let s = SampleColumns::from_readings(&[]);
        assert!(s.is_empty());
        assert_eq!(s.total_values(), 0);
    }
}
