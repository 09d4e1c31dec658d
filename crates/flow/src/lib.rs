//! # adp-flow
//!
//! Max-flow / min-cut substrate for the ADP boolean resilience solver
//! (paper §7.1). Provides:
//!
//! * [`FlowNetwork`] — a directed network with identified edges,
//! * [`FlowNetwork::max_flow_dinic`] — Dinic's algorithm (the production
//!   path; strictly better worst case than the Edmonds–Karp the paper
//!   cites, identical answers),
//! * [`FlowNetwork::max_flow_edmonds_karp`] — the paper's Edmonds–Karp,
//!   kept as a differential-testing reference,
//! * [`FlowNetwork::min_cut`] — the saturated edges crossing the
//!   source-side/sink-side partition, mapped back to caller edge ids.
//!
//! Capacities are `u64`; [`INF`] marks undeletable (exogenous) tuples.

#![forbid(unsafe_code)]

use std::collections::VecDeque;

/// Effectively-infinite capacity for edges that must never be cut.
pub const INF: u64 = u64::MAX / 4;

#[derive(Clone, Copy, Debug)]
struct Edge {
    to: u32,
    /// index of the reverse edge in `edges`
    rev: u32,
    cap: u64,
}

/// A directed flow network over `n` nodes.
///
/// Edges are stored grouped by tail node (CSR): node `u`'s residual
/// edges are `edges[start[u]..start[u + 1]]`, each node's in the order
/// they were added — exactly the order a per-node adjacency list would
/// hold, so the algorithms visit edges identically, while a node's
/// edges sit contiguously in memory. Edges added since the last run
/// wait in `pending` and are grouped in by the next algorithm call.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// `n + 1` offsets into `edges`.
    start: Vec<u32>,
    edges: Vec<Edge>,
    /// Per edge: the caller-supplied id; `u32::MAX` for reverse edges.
    ids: Vec<u32>,
    /// `(from, to, cap, id)` not yet grouped into `edges`.
    pending: Vec<(u32, u32, u64, u32)>,
}

/// Result of a max-flow computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaxFlow {
    /// Total flow value (also the min-cut capacity).
    pub value: u64,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            start: vec![0; n + 1],
            edges: Vec::new(),
            ids: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.start.len() - 1
    }

    /// Adds a directed edge `from → to` with capacity `cap` and a caller
    /// id used to report min-cut membership.
    pub fn add_edge(&mut self, from: u32, to: u32, cap: u64, id: u32) {
        assert!(
            (from as usize) < self.node_count() && (to as usize) < self.node_count(),
            "edge {from} -> {to} outside the network's {} nodes",
            self.node_count()
        );
        self.pending.push((from, to, cap, id));
    }

    /// The residual edges leaving `u`, as indices into `edges`.
    #[inline]
    fn out(&self, u: u32) -> std::ops::Range<usize> {
        self.start[u as usize] as usize..self.start[u as usize + 1] as usize
    }

    /// Groups the pending edges in: a stable counting sort of every
    /// residual edge by tail node, grouped edges before pending ones, so
    /// each node keeps its edges in insertion order.
    fn group(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.node_count();
        // Tail node of every edge, grouped edges first, then each pending
        // edge as its forward and reverse pair.
        let mut tails: Vec<u32> = Vec::with_capacity(self.edges.len() + 2 * self.pending.len());
        for u in 0..n {
            let len = self.start[u + 1] - self.start[u];
            // adp-lint: allow(truncating-cast) -- u < n, and node ids are
            // u32 by the add_edge signature.
            tails.extend(std::iter::repeat_n(u as u32, len as usize));
        }
        for &(from, to, _, _) in &self.pending {
            tails.push(from);
            tails.push(to);
        }
        let mut start = vec![0u32; n + 1];
        for &t in &tails {
            start[t as usize + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start.clone();
        let pos: Vec<u32> = tails
            .iter()
            .map(|&t| {
                let p = next[t as usize];
                next[t as usize] += 1;
                p
            })
            .collect();
        let grouped = self.edges.len();
        let mut edges = vec![
            Edge {
                to: 0,
                rev: 0,
                cap: 0,
            };
            tails.len()
        ];
        let mut ids = vec![u32::MAX; tails.len()];
        for ((e, &id), &p) in self.edges.iter().zip(&self.ids).zip(&pos) {
            edges[p as usize] = Edge {
                rev: pos[e.rev as usize],
                ..*e
            };
            ids[p as usize] = id;
        }
        for (i, &(from, to, cap, id)) in self.pending.iter().enumerate() {
            let (f, r) = (pos[grouped + 2 * i], pos[grouped + 2 * i + 1]);
            edges[f as usize] = Edge { to, rev: r, cap };
            edges[r as usize] = Edge {
                to: from,
                rev: f,
                cap: 0,
            };
            ids[f as usize] = id;
        }
        self.start = start;
        self.edges = edges;
        self.ids = ids;
        self.pending.clear();
    }

    /// Dinic's algorithm. Mutates residual capacities in place.
    pub fn max_flow_dinic(&mut self, s: u32, t: u32) -> MaxFlow {
        assert_ne!(s, t, "source and sink must differ");
        self.group();
        let n = self.node_count();
        let mut flow = 0u64;
        let mut level = vec![u32::MAX; n];
        let mut it = vec![0usize; n];
        let mut q = VecDeque::new();
        loop {
            // BFS level graph
            level.fill(u32::MAX);
            level[s as usize] = 0;
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for e in &self.edges[self.out(u)] {
                    if e.cap > 0 && level[e.to as usize] == u32::MAX {
                        level[e.to as usize] = level[u as usize] + 1;
                        q.push_back(e.to);
                    }
                }
            }
            if level[t as usize] == u32::MAX {
                break;
            }
            // DFS blocking flow with iteration pointers
            for (u, i) in it.iter_mut().enumerate() {
                *i = self.start[u] as usize;
            }
            loop {
                let pushed = self.dfs(s, t, INF * 4, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                // Saturating: several INF paths are one infinite flow,
                // never a wrapped finite one.
                flow = flow.saturating_add(pushed);
            }
        }
        MaxFlow { value: flow }
    }

    fn dfs(&mut self, u: u32, t: u32, limit: u64, level: &[u32], it: &mut [usize]) -> u64 {
        if u == t {
            return limit;
        }
        let end = self.start[u as usize + 1] as usize;
        while it[u as usize] < end {
            let ei = it[u as usize];
            let (to, cap) = (self.edges[ei].to, self.edges[ei].cap);
            if cap > 0 && level[to as usize] == level[u as usize] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap), level, it);
                if pushed > 0 {
                    self.edges[ei].cap -= pushed;
                    let rev = self.edges[ei].rev as usize;
                    self.edges[rev].cap += pushed;
                    return pushed;
                }
            }
            it[u as usize] += 1;
        }
        0
    }

    /// Edmonds–Karp (BFS augmenting paths), as cited by the paper.
    /// Kept for differential testing against Dinic.
    pub fn max_flow_edmonds_karp(&mut self, s: u32, t: u32) -> MaxFlow {
        assert_ne!(s, t, "source and sink must differ");
        self.group();
        let n = self.node_count();
        let mut flow = 0u64;
        loop {
            let mut pred: Vec<Option<usize>> = vec![None; n]; // edge index into node
            let mut q = VecDeque::new();
            q.push_back(s);
            let mut seen = vec![false; n];
            seen[s as usize] = true;
            'bfs: while let Some(u) = q.pop_front() {
                for ei in self.out(u) {
                    let e = &self.edges[ei];
                    if e.cap > 0 && !seen[e.to as usize] {
                        seen[e.to as usize] = true;
                        pred[e.to as usize] = Some(ei);
                        if e.to == t {
                            break 'bfs;
                        }
                        q.push_back(e.to);
                    }
                }
            }
            if pred[t as usize].is_none() {
                break;
            }
            // find bottleneck
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                // adp-lint: allow(panic-path) -- pred is set for every
                // vertex on the BFS-found augmenting path being walked.
                let ei = pred[v as usize].unwrap();
                bottleneck = bottleneck.min(self.edges[ei].cap);
                v = self.edges[self.edges[ei].rev as usize].to;
            }
            let mut v = t;
            while v != s {
                // adp-lint: allow(panic-path) -- same augmenting-path
                // invariant as the bottleneck walk above.
                let ei = pred[v as usize].unwrap();
                self.edges[ei].cap -= bottleneck;
                let rev = self.edges[ei].rev as usize;
                self.edges[rev].cap += bottleneck;
                v = self.edges[rev].to;
            }
            flow = flow.saturating_add(bottleneck);
        }
        MaxFlow { value: flow }
    }

    /// After a max-flow run, returns the ids of the original edges that
    /// cross the min cut (source side → sink side, saturated).
    pub fn min_cut(&mut self, s: u32) -> Vec<u32> {
        self.group();
        let n = self.node_count();
        let mut reach = vec![false; n];
        reach[s as usize] = true;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for e in &self.edges[self.out(u)] {
                if e.cap > 0 && !reach[e.to as usize] {
                    reach[e.to as usize] = true;
                    q.push_back(e.to);
                }
            }
        }
        let mut cut = Vec::new();
        for (e, &id) in self.edges.iter().zip(&self.ids) {
            if id == u32::MAX {
                continue; // reverse edge
            }
            let from = self.edges[e.rev as usize].to;
            if reach[from as usize] && !reach[e.to as usize] {
                cut.push(id);
            }
        }
        cut.sort_unstable();
        cut.dedup();
        cut
    }
}

/// Convenience: build a network, run Dinic, return (value, cut edge ids).
pub fn min_cut_value_and_edges(
    n: usize,
    edges: &[(u32, u32, u64, u32)],
    s: u32,
    t: u32,
) -> (u64, Vec<u32>) {
    let mut net = FlowNetwork::new(n);
    for &(u, v, c, id) in edges {
        net.add_edge(u, v, c, id);
    }
    let f = net.max_flow_dinic(s, t);
    (f.value, net.min_cut(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let (v, cut) = min_cut_value_and_edges(2, &[(0, 1, 5, 0)], 0, 1);
        assert_eq!(v, 5);
        assert_eq!(cut, vec![0]);
    }

    #[test]
    fn parallel_edges_sum() {
        let (v, cut) = min_cut_value_and_edges(2, &[(0, 1, 2, 0), (0, 1, 3, 1)], 0, 1);
        assert_eq!(v, 5);
        assert_eq!(cut, vec![0, 1]);
    }

    #[test]
    fn diamond_network() {
        // s -> a (3), s -> b (2), a -> t (2), b -> t (3): max flow 4
        let edges = [(0, 1, 3, 0), (0, 2, 2, 1), (1, 3, 2, 2), (2, 3, 3, 3)];
        let (v, _) = min_cut_value_and_edges(4, &edges, 0, 3);
        assert_eq!(v, 4);
    }

    #[test]
    fn inf_edges_never_cut() {
        // s -> a (INF), a -> t (1)
        let edges = [(0, 1, INF, 0), (1, 2, 1, 1)];
        let (v, cut) = min_cut_value_and_edges(3, &edges, 0, 2);
        assert_eq!(v, 1);
        assert_eq!(cut, vec![1]);
    }

    #[test]
    fn classic_clrs_example() {
        // CLRS figure: max flow 23
        let edges = [
            (0, 1, 16, 0),
            (0, 2, 13, 1),
            (1, 2, 10, 2),
            (2, 1, 4, 3),
            (1, 3, 12, 4),
            (3, 2, 9, 5),
            (2, 4, 14, 6),
            (4, 3, 7, 7),
            (3, 5, 20, 8),
            (4, 5, 4, 9),
        ];
        let (v, _) = min_cut_value_and_edges(6, &edges, 0, 5);
        assert_eq!(v, 23);
    }

    #[test]
    fn dinic_matches_edmonds_karp_on_random_graphs() {
        // deterministic LCG so this crate keeps zero dependencies
        let mut state = 0x243F6A8885A308D3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..50 {
            let n = 4 + (rng() % 8) as usize;
            let m = 5 + (rng() % 20) as usize;
            let mut edges = Vec::new();
            for id in 0..m as u32 {
                let u = rng() % n as u32;
                let mut v = rng() % n as u32;
                if u == v {
                    v = (v + 1) % n as u32;
                }
                edges.push((u, v, (rng() % 10 + 1) as u64, id));
            }
            let mut a = FlowNetwork::new(n);
            let mut b = FlowNetwork::new(n);
            for &(u, v, c, id) in &edges {
                a.add_edge(u, v, c, id);
                b.add_edge(u, v, c, id);
            }
            let fa = a.max_flow_dinic(0, (n - 1) as u32);
            let fb = b.max_flow_edmonds_karp(0, (n - 1) as u32);
            assert_eq!(fa.value, fb.value);
            // cut capacity equals flow value (strong duality on unit graphs
            // would need exact edge accounting; here check weak duality)
            let cut = a.min_cut(0);
            let cap: u64 = cut
                .iter()
                .map(|&id| edges.iter().filter(|e| e.3 == id).map(|e| e.2).sum::<u64>())
                .sum();
            assert!(cap >= fa.value);
        }
    }

    /// The min-cut *edge ids* — not just the flow value — must round-trip
    /// identically through Dinic and Edmonds–Karp. `min_cut` reports the
    /// source side reachable in the residual graph, which is the unique
    /// source-minimal min cut for **any** maximum flow, so the two
    /// algorithms must agree edge-for-edge even though their residual
    /// capacities differ.
    #[test]
    fn min_cut_edge_ids_round_trip_dinic_and_edmonds_karp() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut nontrivial_cuts = 0;
        for round in 0..200 {
            let n = 4 + (rng() % 10) as usize;
            let m = 6 + (rng() % 24) as usize;
            let mut edges = Vec::new();
            for id in 0..m as u32 {
                let u = rng() % n as u32;
                let mut v = rng() % n as u32;
                if u == v {
                    v = (v + 1) % n as u32;
                }
                // Mix finite and INF (undeletable) capacities.
                let cap = if rng() % 8 == 0 {
                    INF
                } else {
                    (rng() % 12 + 1) as u64
                };
                edges.push((u, v, cap, id));
            }
            let (s, t) = (0u32, (n - 1) as u32);
            let mut dinic = FlowNetwork::new(n);
            let mut ek = FlowNetwork::new(n);
            for &(u, v, c, id) in &edges {
                dinic.add_edge(u, v, c, id);
                ek.add_edge(u, v, c, id);
            }
            let fd = dinic.max_flow_dinic(s, t);
            let fe = ek.max_flow_edmonds_karp(s, t);
            assert_eq!(fd.value, fe.value, "round {round}: flow values differ");
            let cut_d = dinic.min_cut(s);
            let cut_e = ek.min_cut(s);
            assert_eq!(
                cut_d, cut_e,
                "round {round}: min-cut edge ids differ between Dinic and Edmonds–Karp"
            );
            if !cut_d.is_empty() {
                nontrivial_cuts += 1;
            }
        }
        assert!(
            nontrivial_cuts >= 50,
            "generator must produce plenty of non-empty cuts ({nontrivial_cuts})"
        );
    }

    /// Five INF paths sum past `u64::MAX`: the total saturates instead
    /// of wrapping to a value below INF (or panicking in debug builds).
    #[test]
    fn parallel_inf_paths_stay_infinite() {
        let edges: Vec<(u32, u32, u64, u32)> = (0..5).map(|id| (0, 1, INF, id)).collect();
        let (v, _) = min_cut_value_and_edges(2, &edges, 0, 1);
        assert!(v >= INF, "dinic: {v}");
        let mut ek = FlowNetwork::new(2);
        for &(u, w, c, id) in &edges {
            ek.add_edge(u, w, c, id);
        }
        assert!(ek.max_flow_edmonds_karp(0, 1).value >= INF);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let (v, cut) = min_cut_value_and_edges(3, &[(0, 1, 7, 0)], 0, 2);
        assert_eq!(v, 0);
        assert!(cut.is_empty());
    }

    #[test]
    fn cut_edges_capacity_equals_flow_on_unit_network() {
        // bipartite vertex-cover-style network: unit edges only
        let edges = [
            (0, 1, 1, 0),
            (0, 2, 1, 1),
            (1, 3, 1, 2),
            (2, 3, 1, 3),
            (1, 4, 1, 4),
            (4, 5, 1, 5),
            (3, 5, 1, 6),
        ];
        let (v, cut) = min_cut_value_and_edges(6, &edges, 0, 5);
        assert_eq!(v as usize, cut.len());
    }
}
