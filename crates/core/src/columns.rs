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
//! Each sample stores a dense `(sensor, value)` slot pair instead of an
//! `f64`, which lets the sweep accumulate plain `u64` counts in a flat
//! grid and materialise exact [`StreamingStats`](crate::stats::StreamingStats)
//! histograms afterwards. A sensor's consecutive readings mostly repeat,
//! so the dictionaries are built from the readings that differ from the
//! sensor's previous one, and a sample that repeats it reuses its rank.

use crate::stats::f64_key;
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
            sensor_slot: Vec::with_capacity(n),
            ..Default::default()
        };
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        // Sensor id → slot, a direct table over the `u16` id.
        let mut slot_of: Vec<u32> = Vec::new();
        // Per sensor slot, the keys that differ from its previous reading.
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for s in samples {
            let id = usize::from(s.sensor.0);
            if slot_of.len() <= id {
                slot_of.resize(id + 1, NO_SLOT);
            }
            if slot_of[id] == NO_SLOT {
                slot_of[id] = cols.sensor_ids.len() as u32;
                cols.sensor_ids.push(s.sensor);
                runs.push(Vec::new());
            }
            let slot = slot_of[id];
            let key = f64_key(s.temperature.fahrenheit());
            let run = &mut runs[slot as usize];
            if run.last() != Some(&key) {
                run.push(key);
            }
            cols.timestamp_ns.push(s.timestamp_ns);
            cols.sensor_slot.push(slot);
            keys.push(key);
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
        for mut d in runs {
            d.sort_unstable();
            d.dedup();
            cols.value_dicts.push(d);
        }
        let mut base = 0u32;
        for d in &cols.value_dicts {
            cols.value_base.push(base);
            cols.flat_values.extend_from_slice(d);
            base += d.len() as u32;
        }

        // Encode each sample as its global value slot; a sample that
        // repeats its sensor's previous key reuses that key's rank.
        let mut prev: Vec<Option<(u64, u32)>> = vec![None; cols.sensor_ids.len()];
        cols.value_slot = keys
            .iter()
            .zip(&cols.sensor_slot)
            .map(|(&k, &s)| {
                let s = s as usize;
                let rank = match prev[s] {
                    Some((key, rank)) if key == k => rank,
                    _ => {
                        let rank = cols.value_dicts[s]
                            .binary_search(&k)
                            .expect("every sample key is in its sensor's dictionary")
                            as u32;
                        prev[s] = Some((k, rank));
                        rank
                    }
                };
                cols.value_base[s] + rank
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
    fn empty_inputs_build_empty_columns() {
        let s = SampleColumns::from_readings(&[]);
        assert!(s.is_empty());
        assert_eq!(s.total_values(), 0);
    }
}
