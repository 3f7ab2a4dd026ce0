//! Synthetic power-law graphs (§7 "we also developed a generator…").
//!
//! Nodes are labeled from an alphabet of `labels` symbols (paper: 30)
//! with a Zipf-ish frequency distribution, each carries `attrs`
//! attributes (paper: 5) over an active domain of `domain` values
//! (paper: 1000), and edges follow a power-law out-degree: targets are
//! drawn Zipf-distributed over the node ids, so low-id nodes become
//! hubs. The `skew` exponent is the Fig. 8 knob — larger exponents
//! concentrate edges on fewer hubs, shrinking the paper's
//! `|G_dm| / |G_dm'|` ratio.

use gfd_graph::{Graph, GraphBuilder, NodeId, Value};
use gfd_util::Rng;

/// Synthetic-graph parameters.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// Node-label alphabet size (paper: 30).
    pub labels: usize,
    /// Edge-label alphabet size.
    pub edge_labels: usize,
    /// Attributes per node (paper: 5).
    pub attrs: usize,
    /// Active attribute domain size (paper: 1000).
    pub domain: usize,
    /// Degree-skew exponent (≈1.0 mild, ≥2.0 heavily skewed).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            nodes: 10_000,
            edges: 20_000,
            labels: 30,
            edge_labels: 10,
            attrs: 5,
            domain: 1000,
            skew: 1.2,
            seed: 0xF00D,
        }
    }
}

impl SynthConfig {
    /// The paper's synthetic shape (|E| = 2·|V|) at a given node count.
    pub fn sized(nodes: usize, seed: u64) -> Self {
        SynthConfig {
            nodes,
            edges: nodes * 2,
            seed,
            ..Default::default()
        }
    }
}

/// Draws an index in `0..n` with probability ∝ `1/(i+1)^skew`
/// (inverse-transform on a precomputed CDF).
pub(crate) struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub(crate) fn new(n: usize, skew: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        ZipfSampler { cdf }
    }

    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("non-empty domain");
        let x: f64 = rng.gen_f64_range(0.0, total);
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Generates a synthetic power-law graph.
pub fn synthetic_graph(cfg: &SynthConfig) -> Graph {
    assert!(cfg.nodes > 0 && cfg.labels > 0 && cfg.edge_labels > 0);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut g = GraphBuilder::with_fresh_vocab();
    let vocab = g.vocab().clone();

    let labels: Vec<_> = (0..cfg.labels)
        .map(|i| vocab.intern(&format!("L{i}")))
        .collect();
    let edge_labels: Vec<_> = (0..cfg.edge_labels)
        .map(|i| vocab.intern(&format!("r{i}")))
        .collect();
    let attrs: Vec<_> = (0..cfg.attrs)
        .map(|i| vocab.intern(&format!("A{i}")))
        .collect();

    // The domain's values, made once: an attribute shares one.
    let domain: Vec<Value> = (0..cfg.domain)
        .map(|v| Value::Str(format!("v{v}").into()))
        .collect();
    // Zipf label frequencies: label 0 is the most common.
    let label_sampler = ZipfSampler::new(cfg.labels, 1.0);
    for _ in 0..cfg.nodes {
        let l = labels[label_sampler.sample(&mut rng)];
        let n = g.add_node(l);
        for &a in &attrs {
            g.set_attr(n, a, domain[rng.gen_range(0..cfg.domain)].clone());
        }
    }

    // Power-law targets, uniform sources.
    let target_sampler = ZipfSampler::new(cfg.nodes, cfg.skew);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < cfg.edges && attempts < cfg.edges * 10 {
        attempts += 1;
        let src = NodeId(rng.gen_range(0..cfg.nodes) as u32);
        let dst = NodeId(target_sampler.sample(&mut rng) as u32);
        if src == dst {
            continue;
        }
        let el = edge_labels[rng.gen_range(0..cfg.edge_labels)];
        if g.add_edge(src, dst, el) {
            added += 1;
        }
    }
    g.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_sizes() {
        let g = synthetic_graph(&SynthConfig {
            nodes: 500,
            edges: 1000,
            ..Default::default()
        });
        assert_eq!(g.node_count(), 500);
        // Dedup may drop a few attempted edges; generator retries.
        assert!(g.edge_count() >= 950, "got {}", g.edge_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SynthConfig {
            nodes: 200,
            edges: 400,
            seed: 7,
            ..Default::default()
        };
        let a = synthetic_graph(&cfg);
        let b = synthetic_graph(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().map(|e| (e.src, e.dst)).collect();
        let eb: Vec<_> = b.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn higher_skew_concentrates_degree() {
        let mild = synthetic_graph(&SynthConfig {
            nodes: 2000,
            edges: 6000,
            skew: 0.5,
            seed: 3,
            ..Default::default()
        });
        let heavy = synthetic_graph(&SynthConfig {
            nodes: 2000,
            edges: 6000,
            skew: 2.5,
            seed: 3,
            ..Default::default()
        });
        let max_degree = |g: &Graph| g.nodes().map(|u| g.degree(u)).max().unwrap_or(0);
        let (mild, heavy) = (max_degree(&mild), max_degree(&heavy));
        assert!(
            heavy > mild * 2,
            "skewed generator must produce bigger hubs ({heavy} vs {mild})"
        );
    }

    #[test]
    fn attributes_present_with_domain() {
        let g = synthetic_graph(&SynthConfig {
            nodes: 100,
            edges: 100,
            attrs: 3,
            domain: 5,
            ..Default::default()
        });
        let a0 = g.vocab().lookup("A0").unwrap();
        for n in g.nodes() {
            let v = g.attr(n, a0).expect("every node has A0");
            let s = v.as_str().unwrap();
            assert!(s.starts_with('v'));
        }
    }

    #[test]
    fn zipf_sampler_prefers_low_indices() {
        let mut rng = Rng::seed_from_u64(1);
        let z = ZipfSampler::new(100, 1.5);
        let mut low = 0;
        for _ in 0..1000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        assert!(low > 500, "first decile should dominate, got {low}/1000");
    }
}
