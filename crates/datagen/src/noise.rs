//! Error injection (appendix, "Compared with Other Approaches").
//!
//! Following the paper (which follows the DBpedia quality study
//! \[50\]), noise is injected into sampled entities with a given
//! probability, in three kinds:
//!
//! * **attribute inconsistency** — change the value of some `x.A`;
//! * **type inconsistency** — revise the type (label) of `x`;
//! * **representational inconsistency** — given `x.A = x'.A` with `x`
//!   and `x'` of the same type, revise one of the two values to a
//!   different surface form.
//!
//! The report records the ground-truth dirty node set `Vio`, from
//! which the Fig. 9 harness computes precision and recall.

use std::collections::HashMap;

use gfd_graph::{GraphBuilder, NodeId, Sym, Value};
use gfd_util::Rng;

/// Noise-injection parameters.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// Per-entity corruption probability (paper: 2%).
    pub rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            rate: 0.02,
            seed: 0xD1127,
        }
    }
}

/// What was corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseKind {
    /// `x.A` value changed.
    Attribute,
    /// Node label changed.
    Type,
    /// Surface form of a shared value changed on one of the sharers.
    Representational,
}

/// Ground truth produced by [`inject_noise`].
#[derive(Debug, Default)]
pub struct NoiseReport {
    /// Corrupted nodes with the kind of corruption.
    pub corrupted: Vec<(NodeId, NoiseKind)>,
}

impl NoiseReport {
    /// Number of injected errors.
    pub fn len(&self) -> usize {
        self.corrupted.len()
    }

    /// True when nothing was corrupted.
    pub fn is_empty(&self) -> bool {
        self.corrupted.is_empty()
    }
}

/// Injects noise into a thawed graph, returning the ground truth.
/// Mutation is a builder-level concern: thaw a frozen snapshot with
/// [`gfd_graph::Graph::thaw`], corrupt it here, then re-freeze.
pub fn inject_noise(g: &mut GraphBuilder, cfg: &NoiseConfig) -> NoiseReport {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut report = NoiseReport::default();
    let nodes: Vec<NodeId> = g.nodes().collect();
    // Each label's nodes, ascending, where representational noise looks
    // for a sharer; type noise moves the nodes it relabels.
    let mut by_label: HashMap<Sym, Vec<NodeId>> = HashMap::new();
    for &n in &nodes {
        by_label.entry(g.label(n)).or_default().push(n);
    }
    // The label alphabet, for type noise.
    let mut labels: Vec<Sym> = by_label.keys().copied().collect();
    labels.sort_unstable();
    for &n in &nodes {
        if !rng.gen_bool(cfg.rate) {
            continue;
        }
        let kind = match rng.gen_range(0..3) {
            0 => NoiseKind::Attribute,
            1 => NoiseKind::Type,
            _ => NoiseKind::Representational,
        };
        match kind {
            NoiseKind::Attribute => {
                let attrs: Vec<_> = g.attrs(n).iter().map(|(a, _)| a).collect();
                if let Some(&a) = attrs.first() {
                    let tag = report.corrupted.len();
                    g.set_attr(n, a, Value::Str(format!("__noise_{tag}").into()));
                    report.corrupted.push((n, NoiseKind::Attribute));
                }
            }
            NoiseKind::Type => {
                if labels.len() > 1 {
                    let current = g.label(n);
                    let i = rng.gen_range(0..labels.len());
                    // `labels` is deduplicated, so stepping one slot
                    // past a collision always lands on a different
                    // label.
                    let pick = if labels[i] == current {
                        labels[(i + 1) % labels.len()]
                    } else {
                        labels[i]
                    };
                    let filed = "every node is filed under its label";
                    let from = by_label.get_mut(&g.set_label(n, pick)).expect(filed);
                    from.remove(from.binary_search(&n).expect(filed));
                    let to = by_label.get_mut(&pick).expect("a label of the graph");
                    to.insert(to.partition_point(|&m| m < n), n);
                    report.corrupted.push((n, NoiseKind::Type));
                }
            }
            NoiseKind::Representational => {
                // Find a same-label sharer of some attribute value and
                // perturb this node's copy (append a variant marker —
                // same meaning, different surface form).
                let attrs: Vec<_> = g.attrs(n).iter().map(|(a, v)| (a, v.clone())).collect();
                let mut done = false;
                for (a, v) in &attrs {
                    let sharer = by_label[&g.label(n)]
                        .iter()
                        .any(|&m| m != n && g.attr(m, *a) == Some(v));
                    if sharer {
                        let variant = format!("{v}_repr");
                        g.set_attr(n, *a, Value::Str(variant.into()));
                        report.corrupted.push((n, NoiseKind::Representational));
                        done = true;
                        break;
                    }
                }
                if !done {
                    // No sharer: fall back to attribute noise.
                    if let Some((a, _)) = attrs.first() {
                        let tag = report.corrupted.len();
                        g.set_attr(n, *a, Value::Str(format!("__noise_{tag}").into()));
                        report.corrupted.push((n, NoiseKind::Attribute));
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reallife::{reallife_graph, RealLifeConfig, RealLifeKind};
    use gfd_graph::graph::same_snapshot;
    use gfd_graph::{Graph, GraphDelta};

    /// Noise through a recorded edit session: the corrupted snapshot,
    /// the ground truth and the normalized delta between them — what
    /// the incremental repair loop (inject → detect → fix) consumes.
    fn noise_with_delta(g: &Graph, cfg: &NoiseConfig) -> (Graph, NoiseReport, GraphDelta) {
        let mut b = g.thaw();
        let report = inject_noise(&mut b, cfg);
        let delta = b.take_delta().expect("thawed builders record deltas");
        (g.apply_delta(&delta), report, delta)
    }

    /// The corrupted nodes, once each and sorted.
    fn corrupted_nodes(report: &NoiseReport) -> impl Iterator<Item = NodeId> + '_ {
        report.corrupted.iter().map(|&(n, _)| n)
    }

    fn graph() -> Graph {
        reallife_graph(&RealLifeConfig {
            scale: 0.1,
            ..RealLifeConfig::new(RealLifeKind::Yago2)
        })
    }

    #[test]
    fn rate_controls_volume() {
        let mut b = graph().thaw();
        let n = b.node_count() as f64;
        let report = inject_noise(
            &mut b,
            &NoiseConfig {
                rate: 0.05,
                seed: 1,
            },
        );
        let frac = report.len() as f64 / n;
        assert!(frac > 0.02 && frac < 0.09, "got fraction {frac}");
    }

    #[test]
    fn zero_rate_is_noop() {
        let g = graph();
        let mut b = g.thaw();
        let report = inject_noise(&mut b, &NoiseConfig { rate: 0.0, seed: 1 });
        assert!(report.is_empty());
        assert_eq!(same_snapshot(&b.freeze(), &g), Ok(()));
    }

    #[test]
    fn corruption_changes_graph() {
        let g = graph();
        let mut b = g.thaw();
        let report = inject_noise(
            &mut b,
            &NoiseConfig {
                rate: 0.10,
                seed: 2,
            },
        );
        assert!(!report.is_empty());
        assert!(same_snapshot(&b.freeze(), &g).is_err());
    }

    /// Noise visits each node once, in id order, so the corrupted
    /// nodes are reported once each and sorted.
    #[test]
    fn dirty_nodes_deduplicated_and_sorted() {
        let mut b = graph().thaw();
        let report = inject_noise(&mut b, &NoiseConfig { rate: 0.2, seed: 3 });
        assert!(!report.is_empty());
        for w in report.corrupted.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    /// Representational noise looks for a sharer under a node's label
    /// as it stands, after the type noise before it: in pairs `(a, b)`
    /// of one value, `a` labelled `P` and `b` labelled `Q`, `b` has a
    /// sharer exactly when `a` was relabelled to `Q` first.
    #[test]
    fn a_relabelled_node_shares_values_under_its_new_label() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let pairs: Vec<_> = (0..16)
            .map(|i| {
                let value = Value::str(&format!("x{i}"));
                let (a, q) = (b.add_node_labeled("P"), b.add_node_labeled("Q"));
                b.set_attr_named(a, "v", value.clone());
                b.set_attr_named(q, "v", value);
                (a, q)
            })
            .collect();
        let mut shared = 0;
        for seed in 0..8 {
            let report = inject_noise(&mut b.clone(), &NoiseConfig { rate: 1.0, seed });
            let kind = |n| {
                report
                    .corrupted
                    .iter()
                    .find(|&&(m, _)| m == n)
                    .map(|&(_, k)| k)
            };
            for &(a, q) in &pairs {
                assert_ne!(kind(a), Some(NoiseKind::Representational));
                if kind(q) == Some(NoiseKind::Representational) {
                    assert_eq!(kind(a), Some(NoiseKind::Type), "{q:?} had no sharer");
                    shared += 1;
                }
            }
        }
        assert!(shared > 0, "no relabelled node was ever a sharer");
    }

    #[test]
    fn delta_injection_equals_builder_injection() {
        let g = graph();
        let cfg = NoiseConfig {
            rate: 0.08,
            seed: 11,
        };
        let (noisy, report, delta) = noise_with_delta(&g, &cfg);
        assert!(!report.is_empty());
        assert!(!delta.is_empty());
        // Same seed through the plain builder path must give the same
        // corrupted snapshot.
        let mut b = g.thaw();
        let report2 = inject_noise(&mut b, &cfg);
        assert_eq!(report.corrupted, report2.corrupted);
        assert_eq!(same_snapshot(&noisy, &b.freeze()), Ok(()));
        // Every corrupted node is visible in the delta's neighborhood.
        let mut touched = Vec::new();
        delta.touched_nodes(&mut touched);
        for n in corrupted_nodes(&report) {
            assert!(touched.binary_search(&n).is_ok(), "{n:?} not in delta");
        }
    }

    /// The end-to-end repair loop the delta subsystem exists for:
    /// inject noise (emitting a delta), detect incrementally, fix the
    /// corrupted nodes (emitting another delta), detect again — at
    /// every step the maintained violation set must equal a
    /// from-scratch `detVio`, and the fix must restore the pre-noise
    /// violation set.
    #[test]
    fn inject_detect_fix_loop_is_incremental() {
        use gfd_core::validate::detect_violations;
        use gfd_core::IncrementalDetector;
        use std::collections::HashSet;

        let g0 = graph();
        let sigma = crate::rules::mine_gfds(
            &g0,
            &crate::rules::RuleGenConfig {
                count: 4,
                pattern_nodes: 3,
                two_component_fraction: 0.25,
                ..Default::default()
            },
        );
        let scratch = |g: &Graph| -> HashSet<_> {
            detect_violations(&sigma, g)
                .into_iter()
                .map(|v| (v.rule, v.mapping))
                .collect()
        };
        let held = |det: &IncrementalDetector| -> HashSet<_> {
            det.violations()
                .into_iter()
                .map(|v| (v.rule, v.mapping))
                .collect()
        };
        let mut det = IncrementalDetector::new(&sigma, &g0);
        let baseline = scratch(&g0);
        assert_eq!(held(&det), baseline);

        // Inject: the detector repairs itself from the noise delta.
        let (noisy, report, delta) = noise_with_delta(
            &g0,
            &NoiseConfig {
                rate: 0.05,
                seed: 23,
            },
        );
        assert!(!report.is_empty(), "need actual corruption to exercise");
        det.apply_diff(&noisy, &delta);
        assert_eq!(
            held(&det),
            scratch(&noisy),
            "incremental detection diverged after injection"
        );

        // Fix: restore every corrupted node from the clean snapshot.
        let (fixed, fix_delta) = noisy.edit_with_delta(|b| {
            for n in corrupted_nodes(&report) {
                b.set_label(n, g0.label(n));
                let dirty_attrs: Vec<_> = b.attrs(n).iter().map(|(a, _)| a).collect();
                for a in dirty_attrs {
                    if g0.attr(n, a).is_none() {
                        b.remove_attr(n, a);
                    }
                }
                for (a, v) in g0.attrs(n).iter() {
                    b.set_attr(n, a, v.clone());
                }
            }
        });
        det.apply_diff(&fixed, &fix_delta);
        let after_fix = held(&det);
        assert_eq!(
            after_fix,
            scratch(&fixed),
            "incremental detection diverged after repair"
        );
        assert_eq!(after_fix, baseline, "repair must restore the baseline");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut b1 = graph().thaw();
        let mut b2 = graph().thaw();
        let cfg = NoiseConfig {
            rate: 0.05,
            seed: 9,
        };
        let r1 = inject_noise(&mut b1, &cfg);
        let r2 = inject_noise(&mut b2, &cfg);
        assert_eq!(r1.corrupted, r2.corrupted);
    }
}
