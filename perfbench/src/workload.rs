//! The three workloads: their seeded inputs, how a run divides its time
//! between the fixpoint legs, the serving window and the goal queries,
//! and the host oracles each one is checked against.
//!
//! Every input has a fixed *structure* (the generator's own seed is a
//! constant) and takes two things from the run's `--seed`: a permutation
//! of its ids, which moves hash placement and shard balance, and
//! `2 + seed % 7` detached pairs, which keep the deterministic modeled
//! times from reading the same on every seed. Lookup keys, goal
//! sources and the update stream come from the seed as well. Keeping the
//! structure fixed is what lets ten seeds agree within the bounds: the
//! CSPA generator's output sizes swing by 2-5x between its own seeds.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, TupleBatch};
use gpulog_datasets::cspa::httpd_like;
use gpulog_datasets::generators::road_network;
use gpulog_device::Device;
use gpulog_queries::{CSPA_PROGRAM, NEGATED_REACH_PROGRAM, REACH_PROGRAM};
use std::collections::{HashMap, HashSet, VecDeque};

/// Fresh ids for the update stream start here, above every input id, so
/// each update is an isolated pair and the work per refresh stays flat.
const FRESH_BASE: u32 = 1 << 24;

/// `serve-mixed` blocks every `BLOCK_STRIDE`-th node of its graph.
const BLOCK_STRIDE: usize = 8;

/// Input size: the benchmark's own, or the self-test's tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Which program a workload evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Graspan CSPA (`Assign`, `Dereference`).
    Cspa,
    /// Right-recursive REACH over `Edge`.
    Reach,
    /// REACH that never enters a `Blocked` node: two strata, the closure
    /// filtered by an anti-join against the finished `Blocked`.
    NegatedReach,
}

/// Shares of `--seconds` given to the three measured phases.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub fixpoint: f64,
    pub serve: f64,
    pub goal: f64,
}

/// One workload, fully generated from its name, seed and size.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Extensional facts, relation by relation (flat, arity 2 or 1).
    pub edb: Vec<(&'static str, Vec<u32>)>,
    /// The relation lookups and goal queries address.
    pub query_relation: &'static str,
    /// The relation the update stream inserts into.
    pub update_relation: &'static str,
    /// Ids lookup keys are drawn from.
    pub keys: Vec<u32>,
    /// Goal-query sources, asked in rounds (each round in a seeded order).
    /// A goal query's cost depends on its source (on CSPA by 20x), so a
    /// run asks either every node (where queries are cheap enough for a
    /// round to fit) or a fixed, odd-sized set of structural ids: random
    /// sources made the median swing 5x between seeds, and an even-sized
    /// set let it flip between the two middle ones.
    pub goal_sources: Vec<u32>,
    /// The reader mix: every `goal_lookup_every`-th reader operation is a
    /// non-prefix `goal_lookup`, the rest `point_lookup`s. Set so that
    /// goal lookups take about a tenth of the reader's time.
    pub goal_lookup_every: u64,
    /// Writer rate in updates per second (open loop), set so that the
    /// writer is busy for 20-50% of the serving window.
    pub update_hz: f64,
    pub shares: Shares,
    /// Whether set-up includes the initial fixpoint and its publish
    /// (the serving workload's set-up is reaching a served state).
    pub setup_publishes: bool,
    /// Seed for every random choice made while the run measures.
    pub stream_seed: u64,
    /// Input sizes and parameters, for the run conditions.
    pub conditions: Vec<(&'static str, String)>,
}

/// The names `--workload` accepts, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["cspa-httpd", "reach-chain", "serve-mixed"];

/// SplitMix64: a small seeded generator, so the inputs depend on nothing
/// but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: u32, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Relabels `pairs` through `perm` and appends `2 + seed % 7` detached
/// pairs on ids `bound..` (pairs, not a path, so the iteration count
/// does not depend on the seed).
fn relabel_with_tail(pairs: &[(u32, u32)], perm: &[u32], seed: u64) -> Vec<(u32, u32)> {
    let bound = perm.len() as u32;
    let mut out: Vec<(u32, u32)> = pairs
        .iter()
        .map(|&(a, b)| (perm[a as usize], perm[b as usize]))
        .collect();
    let extra = 2 + (seed % 7) as u32;
    out.extend((0..extra).map(|i| (bound + 2 * i + 1, bound + 2 * i)));
    out
}

/// `count` structural ids spread evenly over `0..bound`, relabeled.
fn spread_ids(bound: u32, count: u32, perm: &[u32]) -> Vec<u32> {
    (0..count.min(bound))
        .map(|i| perm[(u64::from(i) * u64::from(bound) / u64::from(count.min(bound))) as usize])
        .collect()
}

fn flat(pairs: &[(u32, u32)]) -> Vec<u32> {
    pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
}

fn id_bound(pairs: &[(u32, u32)]) -> u32 {
    pairs.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0)
}

/// Builds workload `name` for `seed`.
///
/// # Errors
///
/// Returns a message naming the known workloads for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Result<Workload, String> {
    let tiny = size == Size::Tiny;
    let mut rng = Rng::new(seed ^ 0x5EED_BE4C);
    let stream_seed = rng.next_u64();
    match name {
        "cspa-httpd" => {
            // httpd_like at 1/2500 of the paper's input: 9 iterations with
            // large deltas in ~0.1 s. The magic-sets rewrite materializes
            // ~5x the full fixpoint on CSPA, so goal queries, which every
            // workload runs, stay affordable only at a size like this.
            let scale = if tiny { 0.0001 } else { 0.0004 };
            let input = httpd_like(scale);
            let bound = id_bound(&input.assign).max(id_bound(&input.dereference));
            let perm = permutation(bound, &mut rng);
            let assign = relabel_with_tail(&input.assign, &perm, seed);
            let dereference: Vec<(u32, u32)> = input
                .dereference
                .iter()
                .map(|&(a, b)| (perm[a as usize], perm[b as usize]))
                .collect();
            let keys = perm.clone();
            // Goal queries on CSPA fall in two structural classes: ~0.1 s
            // at positions 0, 3, 4, 7 and 8 of nine evenly spread ids, and
            // ~2 s at 1, 2, 5 and 6. With a dear source in the set, each
            // cheap one was asked only ~8 times a run, too few for a
            // steady per-source figure; the median over sources was a
            // cheap one anyway.
            let spread = spread_ids(bound, 9, &perm);
            Ok(Workload {
                name: "cspa-httpd",
                kind: Kind::Cspa,
                conditions: vec![
                    ("input", format!("httpd_like({scale}), ids permuted")),
                    ("assign_tuples", assign.len().to_string()),
                    ("dereference_tuples", dereference.len().to_string()),
                ],
                edb: vec![
                    ("Assign", flat(&assign)),
                    ("Dereference", flat(&dereference)),
                ],
                query_relation: "ValueFlow",
                update_relation: "Assign",
                goal_sources: vec![spread[0], spread[4], spread[8]],
                keys,
                goal_lookup_every: 1600,
                update_hz: 1.5,
                shares: Shares {
                    fixpoint: 0.35,
                    serve: 0.25,
                    goal: 0.4,
                },
                setup_publishes: false,
                stream_seed,
            })
        }
        "reach-chain" => {
            let nodes = if tiny { 24 } else { 256 };
            let chain = road_network(nodes, 0, 0);
            let perm = permutation(nodes, &mut rng);
            let edges = relabel_with_tail(&chain.edges, &perm, seed);
            Ok(Workload {
                name: "reach-chain",
                kind: Kind::Reach,
                conditions: vec![
                    ("input", format!("road_network({nodes}, 0), ids permuted")),
                    ("chain_nodes", nodes.to_string()),
                    ("edge_tuples", edges.len().to_string()),
                ],
                edb: vec![("Edge", flat(&edges))],
                query_relation: "Reach",
                update_relation: "Edge",
                goal_sources: spread_ids(nodes, 9, &perm),
                keys: perm,
                goal_lookup_every: 2000,
                update_hz: 5.0,
                shares: Shares {
                    fixpoint: 0.55,
                    serve: 0.25,
                    goal: 0.2,
                },
                setup_publishes: false,
                stream_seed,
            })
        }
        "serve-mixed" => {
            // A forest of small road networks under negated REACH: lookups
            // return tens of rows, a refresh re-derives a closure of tens
            // of thousands of tuples, and every fixpoint, refresh and goal
            // query runs the anti-join against `Blocked`.
            let (components, len) = if tiny { (3, 6) } else { (48, 24) };
            let mut pairs = Vec::new();
            for c in 0..components {
                let g = road_network(len, 6, u64::from(c));
                pairs.extend(g.edges.iter().map(|&(a, b)| (a + c * len, b + c * len)));
            }
            let nodes = components * len;
            let perm = permutation(nodes, &mut rng);
            let edges = relabel_with_tail(&pairs, &perm, seed);
            // Every `BLOCK_STRIDE`-th structural node is blocked, so the
            // closure's size does not depend on the seed.
            let blocked: Vec<u32> = (0..nodes)
                .step_by(BLOCK_STRIDE)
                .map(|v| perm[v as usize])
                .collect();
            Ok(Workload {
                name: "serve-mixed",
                kind: Kind::NegatedReach,
                conditions: vec![
                    (
                        "input",
                        format!(
                            "{components} x road_network({len}, 6), every {BLOCK_STRIDE}th node blocked, ids permuted"
                        ),
                    ),
                    ("graph_nodes", nodes.to_string()),
                    ("edge_tuples", edges.len().to_string()),
                    ("blocked_nodes", blocked.len().to_string()),
                ],
                edb: vec![("Edge", flat(&edges)), ("Blocked", blocked)],
                query_relation: "Reach",
                update_relation: "Edge",
                goal_sources: perm.clone(),
                keys: perm,
                goal_lookup_every: 7000,
                update_hz: 18.0,
                shares: Shares {
                    fixpoint: 0.15,
                    serve: 0.55,
                    goal: 0.3,
                },
                setup_publishes: true,
                stream_seed,
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}

impl Workload {
    /// The Datalog source the workload evaluates.
    pub fn source(&self) -> &'static str {
        match self.kind {
            Kind::Cspa => CSPA_PROGRAM,
            Kind::Reach => REACH_PROGRAM,
            Kind::NegatedReach => NEGATED_REACH_PROGRAM,
        }
    }

    /// Builds an engine for the workload and stages its facts.
    pub fn prepare(&self, device: &Device, config: EngineConfig) -> EngineResult<GpulogEngine> {
        self.load(
            GpulogEngine::builder(device)
                .program(self.source())
                .config(config)
                .build()?,
        )
    }

    /// Stages the workload's facts into a built engine.
    pub fn load(&self, mut engine: GpulogEngine) -> EngineResult<GpulogEngine> {
        for (relation, facts) in &self.edb {
            engine.add_facts_flat(relation, facts)?;
        }
        Ok(engine)
    }

    /// The `k`-th update: one tuple over a fresh pair of ids.
    pub fn update(&self, k: u32) -> TupleBatch {
        let a = FRESH_BASE + 2 * k;
        TupleBatch::new(2, vec![a + 1, a])
    }

    /// The host oracle over the base input plus `extra` edges (REACH
    /// workloads only).
    pub fn host_graph(&self, extra: &[(u32, u32)]) -> HostGraph {
        let mut edges = self.pairs("Edge");
        edges.extend_from_slice(extra);
        let blocked = self
            .edb
            .iter()
            .find(|(name, _)| *name == "Blocked")
            .map_or(&[][..], |(_, ids)| ids.as_slice());
        HostGraph::new(&edges, blocked)
    }

    /// Binary facts of `relation` (the base input only).
    pub fn pairs(&self, relation: &str) -> Vec<(u32, u32)> {
        self.edb
            .iter()
            .find(|(name, _)| *name == relation)
            .map(|(_, facts)| facts.chunks(2).map(|c| (c[0], c[1])).collect())
            .unwrap_or_default()
    }
}

/// Host-side reachability, sharing no code with the engine: breadth-first
/// search over an adjacency map that never enters a blocked node.
#[derive(Debug)]
pub struct HostGraph {
    adjacency: HashMap<u32, Vec<u32>>,
    blocked: HashSet<u32>,
}

impl HostGraph {
    pub fn new(edges: &[(u32, u32)], blocked: &[u32]) -> Self {
        let mut adjacency: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(a, b) in edges {
            adjacency.entry(a).or_default().push(b);
        }
        HostGraph {
            adjacency,
            blocked: blocked.iter().copied().collect(),
        }
    }

    /// Every node `source` reaches through unblocked nodes, sorted.
    pub fn reachable_from(&self, source: u32) -> Vec<u32> {
        let mut seen: HashSet<u32> = HashSet::new();
        let mut queue: VecDeque<u32> = VecDeque::from([source]);
        let mut reached = Vec::new();
        while let Some(v) = queue.pop_front() {
            for &next in self.adjacency.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                if !self.blocked.contains(&next) && seen.insert(next) {
                    reached.push(next);
                    queue.push_back(next);
                }
            }
        }
        reached.sort_unstable();
        reached
    }

    /// The whole closure as sorted flat `(x, y)` rows — the byte layout of
    /// `FixpointSnapshot::sorted_tuples_flat`.
    pub fn closure_flat(&self) -> Vec<u32> {
        let mut sources: Vec<u32> = self.adjacency.keys().copied().collect();
        sources.sort_unstable();
        let mut flat = Vec::new();
        for source in sources {
            for y in self.reachable_from(source) {
                flat.extend_from_slice(&[source, y]);
            }
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        for name in NAMES {
            let a = build(name, 7, Size::Tiny).unwrap();
            let b = build(name, 7, Size::Tiny).unwrap();
            let c = build(name, 8, Size::Tiny).unwrap();
            assert_eq!(a.edb, b.edb, "{name}: same seed, same inputs");
            assert_ne!(a.edb, c.edb, "{name}: another seed, other inputs");
        }
        assert!(build("nope", 1, Size::Tiny).is_err());
    }

    #[test]
    fn host_graph_closes_over_paths_and_cycles() {
        let g = HostGraph::new(&[(0, 1), (1, 2), (2, 0), (3, 4)], &[]);
        assert_eq!(g.reachable_from(0), vec![0, 1, 2]);
        assert_eq!(g.reachable_from(4), Vec::<u32>::new());
        let path = HostGraph::new(&[(0, 1), (1, 2)], &[]);
        assert_eq!(path.closure_flat(), vec![0, 1, 0, 2, 1, 2]);
        let blocked = HostGraph::new(&[(0, 1), (1, 2), (2, 0), (0, 3)], &[1]);
        assert_eq!(blocked.reachable_from(0), vec![3]);
        assert_eq!(blocked.reachable_from(2), vec![0, 3]);
    }
}
