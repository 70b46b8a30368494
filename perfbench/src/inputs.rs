//! Inputs generated from the workload seed, and nothing else: the same
//! seed gives the same call tree, the same trace bytes and the same
//! request mix. Sizes do not depend on the seed, so runs on different
//! seeds measure the same amount of work.

use tempest_probe::{Trace, TraceGenerator, TraceSpec};

/// The seed the benchmark is tuned with.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 0x7e57_0d0e;

/// SplitMix64: tiny, seedable, and fixed forever (the benchmark must not
/// change its inputs when a dependency changes its generator).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated per `stream` so workloads sharing
    /// a seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const NONE: u32 = u32::MAX;

/// A call tree walked by the capture workload's application thread: node
/// 0 is the root; each node names one of `functions` functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallTree {
    /// Function index of each node.
    pub func: Vec<u16>,
    /// First child of each node, or `u32::MAX`.
    pub first_child: Vec<u32>,
    /// Next sibling of each node, or `u32::MAX`.
    pub next_sibling: Vec<u32>,
    /// Number of distinct functions.
    pub functions: u16,
}

impl CallTree {
    /// A random tree of exactly `nodes` nodes, at most `max_depth` deep.
    pub fn generate(seed: u64, nodes: usize, functions: u16, max_depth: usize) -> CallTree {
        assert!(nodes >= 1 && max_depth >= 2 && functions >= 2);
        let mut rng = Rng::new(seed, 1);
        let mut tree = CallTree {
            func: vec![0],
            first_child: vec![NONE],
            next_sibling: vec![NONE],
            functions,
        };
        // `stack` holds the open path; `last_child[d]` the latest child
        // added under stack[d], to link siblings.
        let mut stack: Vec<u32> = vec![0];
        let mut last_child: Vec<u32> = vec![NONE];
        while tree.func.len() < nodes {
            let depth = stack.len();
            // Descend more eagerly near the root; always return from the
            // deepest level.
            let descend = depth < max_depth && rng.below(max_depth as u64) >= depth as u64 / 2;
            if !descend && depth > 1 {
                stack.pop();
                last_child.pop();
                continue;
            }
            let id = tree.func.len() as u32;
            let parent = *stack.last().expect("root stays on the stack");
            tree.func.push(1 + rng.below(functions as u64 - 1) as u16);
            tree.first_child.push(NONE);
            tree.next_sibling.push(NONE);
            match last_child.last_mut().expect("parallel to stack") {
                l if *l == NONE => tree.first_child[parent as usize] = id,
                l => tree.next_sibling[*l as usize] = id,
            }
            *last_child.last_mut().expect("parallel to stack") = id;
            stack.push(id);
            last_child.push(NONE);
        }
        tree
    }

    /// Number of nodes: one enter and one exit each per walk.
    pub fn len(&self) -> usize {
        self.func.len()
    }

    /// Visit every node depth-first, calling `enter` before a node's
    /// children and `exit` after them.
    pub fn walk(&self, enter: &mut impl FnMut(u16), exit: &mut impl FnMut(u16)) {
        self.walk_from(0, enter, exit);
    }

    fn walk_from(&self, node: u32, enter: &mut impl FnMut(u16), exit: &mut impl FnMut(u16)) {
        let f = self.func[node as usize];
        enter(f);
        let mut child = self.first_child[node as usize];
        while child != NONE {
            self.walk_from(child, enter, exit);
            child = self.next_sibling[child as usize];
        }
        exit(f);
    }
}

/// Per-node event budgets and sensor sampling intervals of the analyze
/// cluster: more nodes than cores, uneven sizes and rates. The engine
/// deals each of its 2 workers a contiguous half of the list; both halves
/// carry the same load, so the pass time does not hinge on which worker
/// steals what. Fixed, so every seed balances the same way.
const CLUSTER: [(usize, u64); 6] = [
    (320_000, 1_000_000),
    (130_000, 250_000),
    (100_000, 4_000_000),
    (260_000, 2_000_000),
    (200_000, 500_000),
    (90_000, 1_000_000),
];

/// Nodes in the analyze cluster.
pub const CLUSTER_NODES: u32 = CLUSTER.len() as u32;

/// One node of the analyze workload's cluster.
pub fn analyze_node(seed: u64, node: u32) -> Trace {
    let (events, sample_interval_ns) = CLUSTER[node as usize];
    let spec = TraceSpec {
        seed: Rng::new(seed, 2 + node as u64).next_u64(),
        events,
        max_depth: 8,
        threads: 4,
        functions: 64,
        sensors: 4,
        duration_ns: 20 * 1_000_000_000,
        sample_interval_ns,
    };
    TraceGenerator::new(spec).generate(node)
}

/// Sessions the serve workload collects during set-up.
pub const SERVE_SESSIONS: u32 = 4;

/// The serve workload's session traces, shipped during set-up.
pub fn serve_sessions(seed: u64) -> Vec<Trace> {
    let mut rng = Rng::new(seed, 3);
    (0..SERVE_SESSIONS)
        .map(|i| {
            let spec = TraceSpec {
                seed: rng.next_u64(),
                events: 40_000,
                max_depth: 8,
                threads: 2,
                functions: 48,
                sensors: 4,
                duration_ns: 10 * 1_000_000_000,
                sample_interval_ns: 5_000_000,
            };
            TraceGenerator::new(spec).generate(i)
        })
        .collect()
}

/// One request of the serve workload's mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `GET .../hotspots?top=N&sort=S`.
    Hotspots {
        session: u32,
        top: usize,
        sort: &'static str,
    },
    /// `GET .../profile`.
    Profile { session: u32 },
    /// `GET .../profile` with `If-None-Match` and the session's current
    /// ETag, expecting a 304.
    Revalidate { session: u32 },
}

/// `top` values the hotspots requests vary over: those the repository's
/// own callers send (3 in the CLI's loopback test, 5 in `ci.sh` and
/// `perf_smoke`, 10 in the README and the daemon's default).
pub const TOPS: [usize; 3] = [3, 5, 10];
/// Sort orders of the hotspots requests: both the endpoint accepts.
pub const SORTS: [&str; 2] = ["temp", "time"];

/// A seeded request sequence for one client. The repository holds no
/// record of the daemon's real traffic, so the mix is an assumption that
/// gives nothing more weight than anything else: the three request kinds
/// are equally likely, and so are the sessions, `top` values and sort
/// orders.
pub fn request_mix(seed: u64, client: u64, len: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 10 + client);
    (0..len)
        .map(|_| {
            let session = rng.below(SERVE_SESSIONS as u64) as u32;
            match rng.below(3) {
                0 => Query::Hotspots {
                    session,
                    top: TOPS[rng.below(TOPS.len() as u64) as usize],
                    sort: SORTS[rng.below(SORTS.len() as u64) as usize],
                },
                1 => Query::Profile { session },
                _ => Query::Revalidate { session },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn cluster(seed: u64) -> Vec<Trace> {
        (0..CLUSTER_NODES).map(|n| analyze_node(seed, n)).collect()
    }

    fn encoded(traces: &[Trace]) -> Vec<Vec<u8>> {
        traces
            .iter()
            .map(|t| {
                let mut buf = Vec::new();
                t.encode_into(&mut buf);
                buf
            })
            .collect()
    }

    #[test]
    fn call_tree_is_a_pure_function_of_the_seed() {
        let a = CallTree::generate(DEFAULT_SEED, 5_000, 64, 8);
        assert_eq!(a, CallTree::generate(DEFAULT_SEED, 5_000, 64, 8));
        let b = CallTree::generate(HELD_OUT_SEED, 5_000, 64, 8);
        assert_ne!(a, b);
        assert_eq!((a.len(), b.len()), (5_000, 5_000));
        let (depth, max_depth, pairs) = (Cell::new(0usize), Cell::new(0usize), Cell::new(0usize));
        a.walk(
            &mut |_| {
                depth.set(depth.get() + 1);
                max_depth.set(max_depth.get().max(depth.get()));
            },
            &mut |_| {
                depth.set(depth.get() - 1);
                pairs.set(pairs.get() + 1);
            },
        );
        let (depth, max_depth, pairs) = (depth.get(), max_depth.get(), pairs.get());
        assert_eq!((pairs, depth), (5_000, 0));
        assert!((4..=8).contains(&max_depth), "depth {max_depth}");
    }

    #[test]
    fn trace_inputs_are_byte_identical_for_a_seed() {
        let a = encoded(&cluster(DEFAULT_SEED));
        assert_eq!(a, encoded(&cluster(DEFAULT_SEED)));
        assert_ne!(a, encoded(&cluster(HELD_OUT_SEED)));
        let s = encoded(&serve_sessions(DEFAULT_SEED));
        assert_eq!(s, encoded(&serve_sessions(DEFAULT_SEED)));
        // Sizes do not depend on the seed.
        let events = |ts: Vec<Trace>| ts.iter().map(|t| t.events.len()).sum::<usize>();
        let (ea, eb) = (events(cluster(1)), events(cluster(2)));
        assert!(ea.abs_diff(eb) * 100 < ea, "{ea} vs {eb}");
    }

    #[test]
    fn request_mix_is_seeded_and_covers_every_kind() {
        let mix = request_mix(DEFAULT_SEED, 0, 2_000);
        assert_eq!(mix, request_mix(DEFAULT_SEED, 0, 2_000));
        assert_ne!(mix, request_mix(DEFAULT_SEED, 1, 2_000));
        let count = |p: &dyn Fn(&Query) -> bool| mix.iter().filter(|q| p(q)).count();
        // Equal weights: about 667 of each kind.
        assert!(count(&|q| matches!(q, Query::Hotspots { .. })) > 600);
        assert!(count(&|q| matches!(q, Query::Profile { .. })) > 600);
        assert!(count(&|q| matches!(q, Query::Revalidate { .. })) > 600);
        for top in TOPS {
            for sort in SORTS {
                let n = count(
                    &|q| matches!(q, Query::Hotspots { top: t, sort: s, .. } if (*t, *s) == (top, sort)),
                );
                assert!(n > 80, "top={top} sort={sort}: {n}");
            }
        }
    }
}
