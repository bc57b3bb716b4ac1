//! The benchmark's seeded inputs.
//!
//! Graph structures are fixed per workload; `--seed` picks a relabelling of
//! their vertices and drives every random choice of the run (arrival times,
//! reads, writes). Isomorphic inputs keep the amount of work comparable
//! across seeds while vertex order, set placement, orientation ties and
//! budget cut-offs still change with the seed.

use sisa_graph::{CsrGraph, Vertex};

/// A splitmix64 stream: the benchmark's only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// An exponential inter-arrival gap of a Poisson process at `rate`.
    pub fn gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// `g` with its vertices renamed by a random permutation drawn from `seed`.
pub fn relabel(g: &CsrGraph, seed: u64) -> CsrGraph {
    let n = g.num_vertices();
    let mut perm: Vec<Vertex> = (0..n as Vertex).collect();
    let mut rng = Rng(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut adj = vec![Vec::new(); n];
    for u in 0..n {
        for &v in g.neighbors(u as Vertex) {
            adj[perm[u] as usize].push(perm[v as usize]);
        }
    }
    CsrGraph::from_adjacency(adj, false, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_keeps_the_structure() {
        let g = sisa_graph::generators::erdos_renyi(50, 0.2, 3);
        let h = relabel(&g, 7);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        let mut dg: Vec<usize> = (0..50).map(|v| g.degree(v)).collect();
        let mut dh: Vec<usize> = (0..50).map(|v| h.degree(v)).collect();
        dg.sort_unstable();
        dh.sort_unstable();
        assert_eq!(dg, dh);
        assert_eq!(
            relabel(&g, 7).edges().collect::<Vec<_>>(),
            h.edges().collect::<Vec<_>>()
        );
    }
}
