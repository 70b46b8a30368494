//! The benchmark's own spans, recorded around every call it makes into a
//! Tempest layer. Kept in memory and written out when the run ends.
//!
//! Untraced runs hold a disabled recorder: `open` and `close` then do no
//! work beyond one branch, so end-to-end figures carry no tracing cost.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call the span covers, e.g. `ship.ship`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The run (one workload iteration) the span belongs to.
    pub run: u64,
    /// Recording thread, as numbered by the benchmark.
    pub thread: u32,
}

impl SpanRecord {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; pass it back to [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    run: u64,
    records: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Spans {
        Spans {
            enabled,
            epoch,
            thread,
            run: 0,
            records: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock and run; merge it
    /// back with [`Spans::absorb`].
    pub fn for_thread(&self, thread: u32) -> Spans {
        Spans {
            run: self.run,
            ..Spans::new(self.enabled, self.epoch, thread)
        }
    }

    /// Is the recorder keeping spans?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.records.len();
        self.records.push(SpanRecord {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            thread: self.thread,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Spans::open`] (and any left open inside it).
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.records[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Record a span measured by the caller (a batch of calls too short to
    /// span one by one, or work timed on another thread), nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(start);
        self.records.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: self.stack.last().copied(),
            run: self.run,
            thread: self.thread,
        });
    }

    /// Append another thread's spans, re-linking their parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.records.len();
        self.records.extend(other.records.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + base);
            r
        }));
    }

    /// Duration of each span called `name`, in seconds, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time of each span: its duration minus the part of it that its
    /// children cover (children of one parent never overlap here, since
    /// one thread records them one after another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.records.iter().map(SpanRecord::dur_ns).collect();
        for r in &self.records {
            if let Some(p) = r.parent {
                let parent = &self.records[p];
                let covered = r
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(r.start_ns.max(parent.start_ns));
                own[p] = own[p].saturating_sub(covered);
            }
        }
        own
    }

    /// Self time of each span called `name`, in seconds, in record order.
    pub fn self_s(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.records
            .iter()
            .zip(own)
            .filter(|(r, _)| r.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (r, self_ns)) in self.records.iter().zip(own).enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"run\":{},\"thread\":{}}}",
                r.name, r.start_ns, r.end_ns, r.run, r.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut s = Spans::new(true, epoch, 0);
        s.set_run(3);
        let outer = s.open("outer");
        s.record("inner", epoch, Duration::from_millis(2));
        s.close(outer);
        let rec = &s.records;
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[1].parent, Some(0));
        assert_eq!(rec[0].run, 3);
        // Force a known outer interval so the arithmetic is exact.
        s.records[0].start_ns = 0;
        s.records[0].end_ns = 5_000_000;
        s.records[1].start_ns = 1_000_000;
        s.records[1].end_ns = 3_000_000;
        assert_eq!(s.self_ns(), vec![3_000_000, 2_000_000]);
        assert_eq!(s.self_s("outer"), vec![0.003]);
        assert!(s.to_jsonl().contains("\"parent\":0"));

        let mut off = Spans::new(false, epoch, 0);
        let o = off.open("x");
        off.record("y", epoch, Duration::from_millis(1));
        off.close(o);
        assert!(off.records.is_empty());
    }
}
