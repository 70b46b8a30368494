//! Call-graph construction from the timeline.
//!
//! gprof's second half is its caller/callee graph; Tempest's timeline
//! subsumes it — nesting *is* the call relation, with exact (not
//! sampled) times. [`CallGraph::build`] folds the timeline's replay
//! ([`crate::timeline`]) into caller→callee edges with call counts and
//! child time, enabling the gprof-style graph report and the "which
//! caller makes this function hot" drill-down that buckets cannot
//! express.

use crate::timeline::{keep_all, replay};
use std::collections::BTreeMap;
use tempest_probe::event::Event;
use tempest_probe::func::FunctionId;

/// One caller→callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling function.
    pub caller: FunctionId,
    /// Called function.
    pub callee: FunctionId,
    /// Number of calls along this edge.
    pub calls: u64,
    /// Total time spent in the callee (and its children) when invoked
    /// from this caller, ns.
    pub child_ns: u64,
}

/// The whole graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    edges: BTreeMap<(FunctionId, FunctionId), CallEdge>,
    /// Calls with no enclosing frame (thread roots).
    pub root_calls: BTreeMap<FunctionId, u64>,
}

impl CallGraph {
    /// Recover the graph from a scope-event stream (read as
    /// [`crate::timeline::Timeline::build`] reads it): each interval the
    /// timeline's replay closes is a call from the frame beneath it, or a
    /// root call when it was its thread's outermost frame.
    pub fn build(events: &[Event]) -> CallGraph {
        let mut graph = CallGraph::default();
        let Ok(_) = replay(events, keep_all, |iv, caller, _| match caller {
            Some(caller) => {
                let callee = iv.func;
                let e = graph.edges.entry((caller, callee)).or_insert(CallEdge {
                    caller,
                    callee,
                    calls: 0,
                    child_ns: 0,
                });
                e.calls += 1;
                e.child_ns += iv.duration_ns();
            }
            None => *graph.root_calls.entry(iv.func).or_default() += 1,
        });
        graph
    }

    /// The edge between two functions, if any calls happened.
    pub fn edge(&self, caller: FunctionId, callee: FunctionId) -> Option<CallEdge> {
        self.edges.get(&(caller, callee)).copied()
    }

    /// Everyone `caller` calls, sorted by child time descending.
    pub fn callees(&self, caller: FunctionId) -> Vec<CallEdge> {
        self.listing(|e| e.caller == caller)
    }

    /// Everyone who calls `callee`, sorted by child time descending.
    pub fn callers(&self, callee: FunctionId) -> Vec<CallEdge> {
        self.listing(|e| e.callee == callee)
    }

    /// Total number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Render a gprof-style call-graph listing.
    pub fn render(&self, name_of: &dyn Fn(FunctionId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("caller              -> callee               calls   child(s)\n");
        for e in self.listing(|_| true) {
            let _ = writeln!(
                out,
                "{:<19} -> {:<19} {:>6} {:>10.3}",
                name_of(e.caller),
                name_of(e.callee),
                e.calls,
                e.child_ns as f64 / 1e9
            );
        }
        out
    }

    /// The edges `keep` selects, by child time descending; ties stay in
    /// (caller, callee) order.
    fn listing(&self, keep: impl Fn(&CallEdge) -> bool) -> Vec<CallEdge> {
        let mut out: Vec<CallEdge> = self.edges.values().filter(|e| keep(e)).copied().collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.child_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_probe::event::ThreadId;

    const T0: ThreadId = ThreadId(0);
    const MAIN: FunctionId = FunctionId(0);
    const FOO1: FunctionId = FunctionId(1);
    const FOO2: FunctionId = FunctionId(2);

    fn micro_d() -> Vec<Event> {
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
    fn recovers_micro_d_edges() {
        let g = CallGraph::build(&micro_d());
        assert_eq!(g.edge_count(), 3);
        let main_foo1 = g.edge(MAIN, FOO1).unwrap();
        assert_eq!(main_foo1.calls, 1);
        assert_eq!(main_foo1.child_ns, 50);
        let foo1_foo2 = g.edge(FOO1, FOO2).unwrap();
        assert_eq!(foo1_foo2.calls, 1);
        assert_eq!(foo1_foo2.child_ns, 10);
        let main_foo2 = g.edge(MAIN, FOO2).unwrap();
        assert_eq!(main_foo2.calls, 1);
        assert_eq!(main_foo2.child_ns, 20);
        assert_eq!(g.root_calls.get(&MAIN), Some(&1));
        assert_eq!(g.edge(FOO2, FOO1), None);
    }

    #[test]
    fn callers_and_callees_sorted_by_child_time() {
        let g = CallGraph::build(&micro_d());
        let callees = g.callees(MAIN);
        assert_eq!(callees.len(), 2);
        assert_eq!(callees[0].callee, FOO1); // 50 ns > 20 ns
        let callers = g.callers(FOO2);
        assert_eq!(callers.len(), 2);
        assert_eq!(callers[0].caller, MAIN); // 20 ns > 10 ns
    }

    #[test]
    fn recursion_edges_self_loop() {
        let g = CallGraph::build(&[
            Event::enter(0, T0, FOO1),
            Event::enter(10, T0, FOO1),
            Event::exit(40, T0, FOO1),
            Event::exit(50, T0, FOO1),
        ]);
        let selfloop = g.edge(FOO1, FOO1).unwrap();
        assert_eq!(selfloop.calls, 1);
        assert_eq!(selfloop.child_ns, 30);
        assert_eq!(g.root_calls.get(&FOO1), Some(&1));
    }

    #[test]
    fn sibling_calls_attribute_to_same_parent() {
        let g = CallGraph::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(10, T0, FOO1),
            Event::exit(20, T0, FOO1),
            Event::enter(30, T0, FOO1),
            Event::exit(40, T0, FOO1),
            Event::exit(50, T0, MAIN),
        ]);
        let e = g.edge(MAIN, FOO1).unwrap();
        assert_eq!(e.calls, 2);
        assert_eq!(e.child_ns, 20);
    }

    #[test]
    fn threads_are_independent() {
        let t1 = ThreadId(1);
        let g = CallGraph::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(0, t1, FOO1),
            Event::enter(5, t1, FOO2),
            Event::exit(9, t1, FOO2),
            Event::exit(10, t1, FOO1),
            Event::exit(20, T0, MAIN),
        ]);
        // MAIN (thread 0) is not FOO1's parent.
        assert_eq!(g.edge(MAIN, FOO1), None);
        assert!(g.edge(FOO1, FOO2).is_some());
        assert_eq!(g.root_calls.len(), 2);
    }

    #[test]
    fn zero_length_callee_at_the_callers_end_is_an_edge() {
        let g = CallGraph::build(&[
            Event::enter(0, T0, MAIN),
            Event::enter(100, T0, FOO1),
            Event::exit(100, T0, FOO1),
            Event::exit(100, T0, MAIN),
        ]);
        let e = g.edge(MAIN, FOO1).expect("main -> foo1");
        assert_eq!((e.calls, e.child_ns), (1, 0));
        assert_eq!(g.root_calls.get(&FOO1), None, "foo1 is not a root call");
        assert_eq!(g.root_calls.get(&MAIN), Some(&1));
    }

    #[test]
    fn tied_edges_render_in_a_fixed_order() {
        // main calls five functions for 10 ns each: every edge ties.
        let events: Vec<Event> = std::iter::once(Event::enter(0, T0, MAIN))
            .chain((1..=5).flat_map(|f| {
                let t = 10 * f as u64;
                [
                    Event::enter(t, T0, FunctionId(f)),
                    Event::exit(t + 10, T0, FunctionId(f)),
                ]
            }))
            .chain([Event::exit(100, T0, MAIN)])
            .collect();
        let names = |f: FunctionId| format!("f{}", f.0);
        let first = CallGraph::build(&events).render(&names);
        for _ in 0..32 {
            let again = CallGraph::build(&events).render(&names);
            assert_eq!(again, first);
        }
        let callees: Vec<&str> = first
            .lines()
            .skip(1)
            .filter_map(|row| row.split_whitespace().nth(2))
            .collect();
        assert_eq!(
            callees,
            ["f1", "f2", "f3", "f4", "f5"],
            "ties in callee order"
        );
    }

    #[test]
    fn render_contains_edges() {
        let g = CallGraph::build(&micro_d());
        let names = |f: FunctionId| ["main", "foo1", "foo2"][f.0 as usize].to_string();
        let text = g.render(&names);
        assert!(text.contains("main"));
        assert!(text.contains("->"));
        assert_eq!(text.lines().count(), 4); // header + 3 edges
    }
}
