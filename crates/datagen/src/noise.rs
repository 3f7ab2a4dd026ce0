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

use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId, Value};
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
    /// The dirty-entity set `Vio` as a sorted node list.
    pub fn dirty_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.corrupted.iter().map(|&(n, _)| n).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

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
    // Collect label alphabet once for type noise.
    let labels: Vec<_> = {
        let mut ls: Vec<_> = nodes.iter().map(|&n| g.label(n)).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    // Value index for representational noise: (label, attr, value) pairs.
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
                    g.set_label(n, pick);
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
                    let sharer = g
                        .nodes_with_label(g.label(n))
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

/// Injects noise into a frozen snapshot through a recorded edit
/// session, returning the corrupted snapshot, the ground truth, *and*
/// the [`GraphDelta`] describing exactly what changed — the triple the
/// incremental repair loop (inject → detect → fix) consumes: the
/// delta feeds `IncrementalDetector::apply`/`IncrementalSpace::apply`
/// so detection after each injection touches only the corrupted
/// neighborhood.
pub fn inject_noise_with_delta(g: &Graph, cfg: &NoiseConfig) -> (Graph, NoiseReport, GraphDelta) {
    let mut b = g.thaw();
    let report = inject_noise(&mut b, cfg);
    let delta = b
        .take_delta()
        .expect("thawed builders record deltas")
        .normalize();
    (g.apply_delta(&delta), report, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reallife::{reallife_graph, RealLifeConfig, RealLifeKind};
    use gfd_graph::graph::same_snapshot;

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

    #[test]
    fn dirty_nodes_deduplicated_and_sorted() {
        let mut b = graph().thaw();
        let report = inject_noise(&mut b, &NoiseConfig { rate: 0.2, seed: 3 });
        let dirty = report.dirty_nodes();
        for w in dirty.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn delta_injection_equals_builder_injection() {
        let g = graph();
        let cfg = NoiseConfig {
            rate: 0.08,
            seed: 11,
        };
        let (noisy, report, delta) = inject_noise_with_delta(&g, &cfg);
        assert!(!report.is_empty());
        assert!(!delta.is_empty());
        // Same seed through the plain builder path must give the same
        // corrupted snapshot.
        let mut b = g.thaw();
        let report2 = inject_noise(&mut b, &cfg);
        assert_eq!(report.corrupted, report2.corrupted);
        assert_eq!(same_snapshot(&noisy, &b.freeze()), Ok(()));
        // Every corrupted node is visible in the delta's neighborhood.
        let touched = delta.touched_nodes();
        for n in report.dirty_nodes() {
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
        use gfd_core::incremental::{violation_set, IncrementalDetector};

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
        let mut det = IncrementalDetector::new(&sigma, &g0);
        let baseline = violation_set(&sigma, &g0);
        assert_eq!(
            det.violations()
                .into_iter()
                .map(|v| (v.rule, v.mapping))
                .collect::<std::collections::HashSet<_>>(),
            baseline
        );

        // Inject: the detector repairs itself from the noise delta.
        let (noisy, report, delta) = inject_noise_with_delta(
            &g0,
            &NoiseConfig {
                rate: 0.05,
                seed: 23,
            },
        );
        assert!(!report.is_empty(), "need actual corruption to exercise");
        det.apply(&noisy, &delta);
        assert_eq!(
            det.violations()
                .into_iter()
                .map(|v| (v.rule, v.mapping))
                .collect::<std::collections::HashSet<_>>(),
            violation_set(&sigma, &noisy),
            "incremental detection diverged after injection"
        );

        // Fix: restore every corrupted node from the clean snapshot.
        let (fixed, fix_delta) = noisy.edit_with_delta(|b| {
            for n in report.dirty_nodes() {
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
        det.apply(&fixed, &fix_delta);
        let after_fix = det
            .violations()
            .into_iter()
            .map(|v| (v.rule, v.mapping))
            .collect::<std::collections::HashSet<_>>();
        assert_eq!(
            after_fix,
            violation_set(&sigma, &fixed),
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
