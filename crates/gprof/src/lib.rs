#![warn(missing_docs)]
//! # tempest-gprof
//!
//! A gprof-style *flat bucket* profiler — the baseline Tempest is compared
//! against, and the design the paper explains it had to abandon (§3.1):
//!
//! > "gprof creates buckets for functions and adds to buckets as it spends
//! > time in various functions: gprof does not pinpoint which function was
//! > executing at time X in a program."
//!
//! [`FlatProfile`] consumes the same entry/exit event stream as Tempest's
//! parser but reduces it immediately to per-function buckets (self time,
//! cumulative time, call counts) exactly the way gprof's timer-and-count
//! machinery does. The information loss is structural: two executions with
//! completely different temporal orderings produce identical flat
//! profiles, which is why a thermal timeline cannot be bolted onto gprof —
//! the `same_flat_profile_different_timeline` test demonstrates the
//! paper's argument.

use std::collections::HashMap;
use tempest_probe::event::{Event, EventKind, ThreadId};
use tempest_probe::func::{FunctionDef, FunctionId};

/// One gprof bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Self (exclusive) time, ns — what gprof's PC sampling estimates.
    pub self_ns: u64,
    /// Cumulative (inclusive) time, ns.
    pub cumulative_ns: u64,
    /// Number of calls — from gprof's `mcount` instrumentation.
    pub calls: u64,
}

/// A flat profile: function → bucket. No timeline, by design.
#[derive(Debug, Clone, Default)]
pub struct FlatProfile {
    buckets: HashMap<FunctionId, Bucket>,
    total_ns: u64,
}

impl FlatProfile {
    /// Reduce an event stream to buckets. Events must be time-sorted (the
    /// same contract as Tempest's parser).
    pub fn from_events(events: &[Event]) -> FlatProfile {
        let mut p = FlatProfile::default();
        // Per-thread stacks of (func, entry_ts).
        let mut stacks: HashMap<ThreadId, Vec<(FunctionId, u64)>> = HashMap::new();
        let mut prev_ts: HashMap<ThreadId, u64> = HashMap::new();
        let mut first = None;
        let mut last = 0u64;

        for e in events {
            let (func, is_enter) = match e.kind {
                EventKind::Enter { func } => (func, true),
                EventKind::Exit { func } => (func, false),
                EventKind::Sample { .. } | EventKind::Gap { .. } => continue,
            };
            first.get_or_insert(e.timestamp_ns);
            last = last.max(e.timestamp_ns);
            let stack = stacks.entry(e.thread).or_default();
            // Credit elapsed time to the current top's self bucket.
            if let Some(&p_ts) = prev_ts.get(&e.thread) {
                if let Some(&(top, _)) = stack.last() {
                    p.buckets.entry(top).or_default().self_ns +=
                        e.timestamp_ns.saturating_sub(p_ts);
                }
            }
            prev_ts.insert(e.thread, e.timestamp_ns);

            if is_enter {
                p.buckets.entry(func).or_default().calls += 1;
                stack.push((func, e.timestamp_ns));
            } else if let Some(pos) = stack.iter().rposition(|&(f, _)| f == func) {
                // Close this frame (and tolerate mismatches like Tempest).
                while stack.len() > pos {
                    let (f, entry) = stack.pop().unwrap();
                    let inclusive = e.timestamp_ns.saturating_sub(entry);
                    p.buckets.entry(f).or_default().cumulative_ns += inclusive;
                }
            }
        }
        p.total_ns = last.saturating_sub(first.unwrap_or(0));
        p
    }

    /// The bucket for a function, if it ever ran.
    pub fn bucket(&self, func: FunctionId) -> Option<Bucket> {
        self.buckets.get(&func).copied()
    }

    /// Total profiled span, ns.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Buckets sorted by self time, descending — gprof's default order —
    /// with ties in function-id order.
    pub fn sorted(&self) -> Vec<(FunctionId, Bucket)> {
        let mut rows: Vec<_> = self.buckets.iter().map(|(&f, &b)| (f, b)).collect();
        rows.sort_by_key(|&(f, b)| (std::cmp::Reverse(b.self_ns), f));
        rows
    }

    /// Render the classic `gprof` flat-profile table.
    pub fn render(&self, functions: &[FunctionDef]) -> String {
        let name = |id: FunctionId| {
            functions
                .iter()
                .find(|f| f.id == id)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| format!("fn#{}", id.0))
        };
        let total = self.total_ns.max(1) as f64;
        let mut out = String::from(
            "  %   cumulative   self              \n time   seconds   seconds    calls  name\n",
        );
        let mut cum = 0.0;
        for (f, b) in self.sorted() {
            cum += b.self_ns as f64 / 1e9;
            out.push_str(&format!(
                "{:5.1} {:10.2} {:9.2} {:8}  {}\n",
                b.self_ns as f64 / total * 100.0,
                cum,
                b.self_ns as f64 / 1e9,
                b.calls,
                name(f)
            ));
        }
        out
    }

    /// The question gprof cannot answer (§3.1): which function was
    /// executing at time `_t`? Always `None` — buckets have no time axis.
    /// (Tempest's `Timeline::executing_at` answers it.)
    pub fn executing_at(&self, _t: u64) -> Option<FunctionId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const MAIN: FunctionId = FunctionId(0);
    const FOO1: FunctionId = FunctionId(1);
    const FOO2: FunctionId = FunctionId(2);

    fn micro_d_events() -> Vec<Event> {
        vec![
            Event::enter(0, T0, MAIN),
            Event::enter(10, T0, FOO1),
            Event::enter(20, T0, FOO2),
            Event::exit(30, T0, FOO2),
            Event::exit(60, T0, FOO1),
            Event::enter(70, T0, FOO2),
            Event::exit(90, T0, FOO2),
            Event::exit(100, T0, MAIN),
        ]
    }

    #[test]
    fn buckets_match_tempest_totals() {
        // §3.4: "Both tools provided similar results for total execution
        // time in the various code functions."
        let p = FlatProfile::from_events(&micro_d_events());
        assert_eq!(p.bucket(MAIN).unwrap().cumulative_ns, 100);
        assert_eq!(p.bucket(FOO1).unwrap().cumulative_ns, 50);
        assert_eq!(p.bucket(FOO2).unwrap().cumulative_ns, 30);
        assert_eq!(p.bucket(MAIN).unwrap().self_ns, 30);
        assert_eq!(p.bucket(FOO1).unwrap().self_ns, 40);
        assert_eq!(p.bucket(FOO2).unwrap().self_ns, 30);
        assert_eq!(p.bucket(FOO2).unwrap().calls, 2);
        assert_eq!(p.total_ns(), 100);
    }

    #[test]
    fn same_flat_profile_different_timeline() {
        // The paper's core argument: these two executions are
        // indistinguishable to gprof but thermally different (the hot
        // function runs early in one, late in the other).
        let early_hot = vec![
            Event::enter(0, T0, MAIN),
            Event::enter(0, T0, FOO1), // hot first
            Event::exit(50, T0, FOO1),
            Event::enter(50, T0, FOO2),
            Event::exit(100, T0, FOO2),
            Event::exit(100, T0, MAIN),
        ];
        let late_hot = vec![
            Event::enter(0, T0, MAIN),
            Event::enter(0, T0, FOO2), // cool first
            Event::exit(50, T0, FOO2),
            Event::enter(50, T0, FOO1),
            Event::exit(100, T0, FOO1),
            Event::exit(100, T0, MAIN),
        ];
        let a = FlatProfile::from_events(&early_hot);
        let b = FlatProfile::from_events(&late_hot);
        for f in [MAIN, FOO1, FOO2] {
            assert_eq!(a.bucket(f), b.bucket(f), "buckets must be identical");
        }
        // And neither can say what ran at t=25.
        assert_eq!(a.executing_at(25), None);
        assert_eq!(b.executing_at(25), None);
    }

    #[test]
    fn sorted_by_self_time() {
        let p = FlatProfile::from_events(&micro_d_events());
        let rows = p.sorted();
        assert_eq!(rows[0].0, FOO1); // 40 ns self
        assert!(rows[0].1.self_ns >= rows[1].1.self_ns);
    }

    #[test]
    fn tied_rows_render_in_id_order() {
        use tempest_probe::func::ScopeKind;
        // Ten functions with equal self time, entered in reverse id order.
        let events: Vec<Event> = (0..10u32)
            .rev()
            .enumerate()
            .flat_map(|(slot, id)| {
                let t = slot as u64 * 10;
                [
                    Event::enter(t, T0, FunctionId(id)),
                    Event::exit(t + 10, T0, FunctionId(id)),
                ]
            })
            .collect();
        let defs: Vec<FunctionDef> = (0..10u32)
            .map(|id| FunctionDef {
                id: FunctionId(id),
                name: format!("f{id}"),
                address: 0x400000 + id as u64 * 16,
                kind: ScopeKind::Function,
            })
            .collect();
        let first = FlatProfile::from_events(&events).render(&defs);
        for _ in 1..32 {
            assert_eq!(FlatProfile::from_events(&events).render(&defs), first);
        }
        let names: Vec<&str> = first
            .lines()
            .skip(2)
            .map(|row| row.rsplit(' ').next().unwrap())
            .collect();
        let want: Vec<String> = (0..10).map(|id| format!("f{id}")).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn render_looks_like_gprof() {
        use tempest_probe::func::ScopeKind;
        let defs: Vec<FunctionDef> = ["main", "foo1", "foo2"]
            .iter()
            .enumerate()
            .map(|(i, n)| FunctionDef {
                id: FunctionId(i as u32),
                name: n.to_string(),
                address: 0x400000 + i as u64 * 16,
                kind: ScopeKind::Function,
            })
            .collect();
        let table = FlatProfile::from_events(&micro_d_events()).render(&defs);
        assert!(table.contains("cumulative"));
        assert!(table.contains("foo1"));
        assert!(table.lines().count() >= 5);
    }

    #[test]
    fn recursion_counts_calls_per_entry() {
        let events = vec![
            Event::enter(0, T0, FOO1),
            Event::enter(10, T0, FOO1),
            Event::exit(20, T0, FOO1),
            Event::exit(30, T0, FOO1),
        ];
        let p = FlatProfile::from_events(&events);
        let b = p.bucket(FOO1).unwrap();
        assert_eq!(b.calls, 2);
        assert_eq!(b.self_ns, 30);
        // gprof's cumulative double-counts recursion (10..20 twice) — a
        // known gprof artefact we reproduce faithfully.
        assert_eq!(b.cumulative_ns, 40);
    }

    #[test]
    fn empty_stream() {
        let p = FlatProfile::from_events(&[]);
        assert_eq!(p.total_ns(), 0);
        assert!(p.sorted().is_empty());
    }

    #[test]
    fn multithreaded_buckets_accumulate() {
        let t1 = ThreadId(1);
        let events = vec![
            Event::enter(0, T0, FOO1),
            Event::enter(0, t1, FOO1),
            Event::exit(50, T0, FOO1),
            Event::exit(80, t1, FOO1),
        ];
        let p = FlatProfile::from_events(&events);
        let b = p.bucket(FOO1).unwrap();
        assert_eq!(b.calls, 2);
        assert_eq!(b.cumulative_ns, 130);
    }
}
