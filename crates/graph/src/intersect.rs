//! Sorted-slice intersection kernels for candidate-pool refinement.
//!
//! The matcher's candidate pools are intersections of sorted node
//! lists: label extents, per-label CSR runs (sorted by `(label, dst)`,
//! so a single-label subrange is sorted by node), simulation candidate
//! sets and data blocks. Intersecting them wants two regimes:
//!
//! * **merge** — one linear two-pointer pass when the inputs have
//!   comparable sizes;
//! * **galloping** — when one side is at least [`GALLOP_RATIO`]×
//!   smaller, binary-search each element of the small side in the big
//!   one (`O(small · log big)` beats the linear pass).
//!
//! The helpers are generic over the element type via a key extractor,
//! so both `&[NodeId]` lists and `&[Adj]` CSR runs intersect without
//! materializing intermediate id vectors, and they work *in place* on
//! a caller-owned accumulator so refinement chains allocate nothing.

use crate::graph::NodeId;

/// Size ratio at which intersection switches from a linear merge to
/// galloping binary search on the larger side.
pub const GALLOP_RATIO: usize = 32;

/// Appends the keys of `src` to `out` (no clearing, no sorting — the
/// caller picks a `src` whose keys are already ascending).
#[inline]
pub fn extend_keys<T>(out: &mut Vec<NodeId>, src: &[T], key: impl Fn(&T) -> NodeId) {
    out.extend(src.iter().map(key));
}

/// Debug-build check of the kernels' precondition: keys strictly
/// ascending, hence duplicate-free. The trap this guards against is
/// real in this codebase: a *multi-label* CSR out-run is sorted by
/// `(label, dst)` and may repeat a dst across labels — such a run
/// passed as `other` silently drops or keeps the wrong survivors in
/// the galloping paths (binary search over non-sorted keys). Callers
/// must pass single-label subranges (`neighbors_labeled`) or
/// pre-deduplicated id lists; wildcard runs are sorted/deduped before
/// they reach a kernel (see `ComponentSearch::fill_raw_pool`).
#[inline]
fn debug_assert_ascending<T>(side: &str, items: &[T], key: &impl Fn(&T) -> NodeId) {
    if cfg!(debug_assertions) {
        for w in items.windows(2) {
            debug_assert!(
                key(&w[0]) < key(&w[1]),
                "intersect_in_place: `{side}` keys must be strictly ascending \
                 (got {:?} before {:?} — a multi-label CSR run?)",
                key(&w[0]),
                key(&w[1]),
            );
        }
    }
}

/// Intersects the sorted accumulator with a second sorted list in
/// place: `acc` keeps exactly the ids that also occur as keys of
/// `other`. Both inputs must be ascending and duplicate-free (checked
/// by a debug assertion; see the module docs for why multi-label CSR
/// runs violate this); the result then is too. Chooses merge vs
/// galloping by size ratio.
pub fn intersect_in_place<T>(acc: &mut Vec<NodeId>, other: &[T], key: impl Fn(&T) -> NodeId) {
    debug_assert_ascending("acc", acc, &|&x: &NodeId| x);
    debug_assert_ascending("other", other, &key);
    if acc.is_empty() || other.is_empty() {
        acc.clear();
        return;
    }
    if other.len() / GALLOP_RATIO >= acc.len() {
        // acc is tiny: gallop into `other`.
        acc.retain(|&x| other.binary_search_by(|t| key(t).cmp(&x)).is_ok());
        return;
    }
    if acc.len() / GALLOP_RATIO >= other.len() {
        // `other` is tiny: gallop into acc, writing survivors forward.
        let mut w = 0;
        for t in other {
            let x = key(t);
            if acc.binary_search(&x).is_ok() {
                acc[w] = x;
                w += 1;
            }
        }
        acc.truncate(w);
        return;
    }
    // Comparable sizes: linear two-pointer merge, in place.
    let mut w = 0;
    let mut i = 0;
    let mut j = 0;
    while i < acc.len() && j < other.len() {
        let a = acc[i];
        let b = key(&other[j]);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc[w] = a;
                w += 1;
                i += 1;
                j += 1;
            }
        }
    }
    acc.truncate(w);
}

/// K-way intersection of sorted, duplicate-free runs into a
/// caller-owned accumulator (leapfrog-style smallest-first seeding).
///
/// `acc` is cleared and seeded from the *smallest* run, then the
/// remaining runs are folded in smallest-first via
/// [`intersect_in_place`] — each pairwise step picks merge vs gallop
/// on its own, so a tiny seed gallops through every huge run and the
/// intermediate result can only shrink. Reorders `runs` (ascending by
/// length); an empty run (or an accumulator emptied mid-fold) exits
/// early with `acc` empty. With zero runs `acc` stays cleared: the
/// caller decides what an unconstrained variable means.
pub fn intersect_k(acc: &mut Vec<NodeId>, runs: &mut [&[NodeId]]) {
    acc.clear();
    if runs.is_empty() {
        return;
    }
    runs.sort_unstable_by_key(|r| r.len());
    if runs[0].is_empty() {
        return;
    }
    acc.extend_from_slice(runs[0]);
    for run in &runs[1..] {
        intersect_in_place(acc, run, |&x| x);
        if acc.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn merge_path_intersects() {
        let mut acc = ids(&[1, 3, 5, 7, 9]);
        let other = ids(&[2, 3, 4, 7, 10]);
        intersect_in_place(&mut acc, &other, |&x| x);
        assert_eq!(acc, ids(&[3, 7]));
    }

    #[test]
    fn empty_sides_clear() {
        let mut acc = ids(&[1, 2]);
        intersect_in_place(&mut acc, &[], |&x: &NodeId| x);
        assert!(acc.is_empty());
        let mut acc: Vec<NodeId> = Vec::new();
        intersect_in_place(&mut acc, &ids(&[1]), |&x| x);
        assert!(acc.is_empty());
    }

    #[test]
    fn gallop_small_acc() {
        // other is ≥ 32× larger than acc → acc-side galloping.
        let other: Vec<NodeId> = (0..1000).map(|i| NodeId(2 * i)).collect();
        let mut acc = ids(&[4, 5, 500, 1998]);
        intersect_in_place(&mut acc, &other, |&x| x);
        assert_eq!(acc, ids(&[4, 500, 1998]));
    }

    #[test]
    fn gallop_small_other() {
        let mut acc: Vec<NodeId> = (0..1000).map(|i| NodeId(2 * i)).collect();
        let other = ids(&[3, 6, 7, 1998]);
        intersect_in_place(&mut acc, &other, |&x| x);
        assert_eq!(acc, ids(&[6, 1998]));
    }

    #[test]
    fn agrees_with_naive_across_regimes() {
        // Cross-check all three code paths against a hash-set oracle.
        for (na, nb, step) in [
            (10usize, 10usize, 3u32),
            (4, 400, 7),
            (400, 4, 5),
            (64, 64, 2),
        ] {
            let a: Vec<NodeId> = (0..na as u32).map(|i| NodeId(i * step)).collect();
            let b: Vec<NodeId> = (0..nb as u32).map(|i| NodeId(i * 3)).collect();
            let expect: Vec<NodeId> = a
                .iter()
                .copied()
                .filter(|x| b.binary_search(x).is_ok())
                .collect();
            let mut acc = a.clone();
            intersect_in_place(&mut acc, &b, |&x| x);
            assert_eq!(acc, expect, "sizes {na}/{nb} step {step}");
        }
    }

    /// Regression guard for the undocumented precondition: a
    /// duplicate-key `Adj` run — exactly what a multi-label CSR
    /// out-run looks like when one dst repeats under two labels — must
    /// trip the debug assertion instead of silently mis-intersecting.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_key_adj_run_is_rejected() {
        use crate::graph::Adj;
        use crate::vocab::Sym;
        // dst 4 repeats under labels 1 and 2: sorted by (label, dst),
        // but its node keys are NOT ascending (4, 6, 4).
        let run: Vec<Adj> = [(1u32, 4u32), (1, 6), (2, 4)]
            .iter()
            .map(|&(l, n)| Adj {
                label: Sym(l),
                node: NodeId(n),
            })
            .collect();
        let mut acc = ids(&[4, 5, 6]);
        intersect_in_place(&mut acc, &run, |a| a.node);
    }

    /// Adversarial skew at the merge/gallop crossover: sizes exactly
    /// at, one below, and one above the `GALLOP_RATIO` boundary on
    /// both sides must all agree with the set-semantics oracle.
    #[test]
    fn crossover_boundary_is_exact() {
        for small in [1usize, 2, 3, 7] {
            for big in [
                small * GALLOP_RATIO - 1,
                small * GALLOP_RATIO,
                small * GALLOP_RATIO + 1,
            ] {
                let a: Vec<NodeId> = (0..small as u32).map(|i| NodeId(i * 5)).collect();
                let b: Vec<NodeId> = (0..big as u32).map(|i| NodeId(i * 2)).collect();
                let expect: Vec<NodeId> = a
                    .iter()
                    .copied()
                    .filter(|x| b.binary_search(x).is_ok())
                    .collect();
                // Small accumulator vs big other…
                let mut acc = a.clone();
                intersect_in_place(&mut acc, &b, |&x| x);
                assert_eq!(acc, expect, "acc {small} / other {big}");
                // …and the mirrored orientation.
                let mut acc = b.clone();
                intersect_in_place(&mut acc, &a, |&x| x);
                assert_eq!(acc, expect, "acc {big} / other {small}");
            }
        }
    }

    /// Tiny-vs-huge skew: a 1-element side against a run thousands of
    /// times larger, hitting both hit and miss outcomes.
    #[test]
    fn tiny_vs_huge_runs() {
        let huge: Vec<NodeId> = (0..100_000u32).map(|i| NodeId(3 * i)).collect();
        for (probe, hit) in [(299_997u32, true), (299_998, false)] {
            let mut acc = vec![NodeId(probe)];
            intersect_in_place(&mut acc, &huge, |&x| x);
            assert_eq!(!acc.is_empty(), hit, "probe {probe}");
            let mut acc = huge.clone();
            intersect_in_place(&mut acc, &[NodeId(probe)], |&x| x);
            assert_eq!(!acc.is_empty(), hit, "mirrored probe {probe}");
        }
    }

    /// Heavy-overlap skew: a small side fully contained in the huge
    /// side survives intact in either orientation (every lookup hits —
    /// the worst case for galloping's branch predictor).
    #[test]
    fn heavy_overlap_small_side_survives() {
        let huge: Vec<NodeId> = (0..50_000u32).map(NodeId).collect();
        let small: Vec<NodeId> = (0..100u32).map(|i| NodeId(i * 499)).collect();
        let mut acc = small.clone();
        intersect_in_place(&mut acc, &huge, |&x| x);
        assert_eq!(acc, small);
        let mut acc = huge.clone();
        intersect_in_place(&mut acc, &small, |&x| x);
        assert_eq!(acc, small);
    }

    #[test]
    fn intersect_k_agrees_with_chained_pairwise() {
        let a: Vec<NodeId> = (0..600u32).map(|i| NodeId(2 * i)).collect();
        let b: Vec<NodeId> = (0..400u32).map(|i| NodeId(3 * i)).collect();
        let c: Vec<NodeId> = (0..5000u32).map(NodeId).collect();
        let d = ids(&[0, 6, 12, 600, 1198]);
        let expect: Vec<NodeId> = d
            .iter()
            .copied()
            .filter(|x| {
                a.binary_search(x).is_ok()
                    && b.binary_search(x).is_ok()
                    && c.binary_search(x).is_ok()
            })
            .collect();
        let mut acc = Vec::new();
        let mut runs: [&[NodeId]; 4] = [&a, &b, &c, &d];
        intersect_k(&mut acc, &mut runs);
        assert_eq!(acc, expect);
        // Smallest-first seeding: the slice is reordered ascending.
        assert!(runs.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn intersect_k_empty_run_exits_early() {
        let a = ids(&[1, 2, 3]);
        let empty: &[NodeId] = &[];
        let mut acc = ids(&[9, 9, 9]);
        intersect_k(&mut acc, &mut [&a, empty, &a]);
        assert!(acc.is_empty());
        // Zero runs also just clears.
        let mut acc = ids(&[7]);
        intersect_k(&mut acc, &mut []);
        assert!(acc.is_empty());
    }

    #[test]
    fn intersect_k_single_run_copies() {
        let a = ids(&[2, 4, 8]);
        let mut acc = ids(&[1]);
        intersect_k(&mut acc, &mut [&a]);
        assert_eq!(acc, a);
    }

    #[test]
    fn intersect_k_disjoint_runs_empty() {
        let a = ids(&[1, 3, 5]);
        let b = ids(&[2, 4, 6]);
        let c = ids(&[1, 2, 3, 4, 5, 6]);
        let mut acc = Vec::new();
        intersect_k(&mut acc, &mut [&c, &a, &b]);
        assert!(acc.is_empty());
    }

    #[test]
    fn keyed_extraction_works() {
        use crate::graph::Adj;
        use crate::vocab::Sym;
        let run: Vec<Adj> = [2u32, 4, 6]
            .iter()
            .map(|&n| Adj {
                label: Sym(1),
                node: NodeId(n),
            })
            .collect();
        let mut acc = ids(&[1, 2, 3, 4]);
        intersect_in_place(&mut acc, &run, |a| a.node);
        assert_eq!(acc, ids(&[2, 4]));
        let mut out = Vec::new();
        extend_keys(&mut out, &run, |a| a.node);
        assert_eq!(out, ids(&[2, 4, 6]));
    }
}
