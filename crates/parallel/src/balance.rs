//! Workload partitioning (§6.1) — the load-balancing problem.
//!
//! An `n`-partition of `W(Σ, G)` is balanced when the per-processor
//! cost sums are approximately equal; finding the optimum is
//! NP-complete (Prop. 12), but the greedy strategy the paper adopts
//! from makespan minimization — process units in descending weight,
//! always assign to the least-loaded processor (LPT) — is a
//! 2-approximation.

use crate::Assignment;

/// Assigns each unit (given by its cost) to a worker in `0..n` with
/// greedy LPT. Returns `assignment[unit] = worker`.
pub fn lpt_assign(costs: &[u64], n: usize) -> Vec<usize> {
    assert!(n > 0, "lpt_assign: cannot partition over zero workers");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut load = vec![0u64; n];
    let mut assignment = vec![0usize; costs.len()];
    for i in order {
        // Invariant: the entry assert guarantees `0..n` is non-empty.
        let worker = (0..n).min_by_key(|&w| (load[w], w)).expect("n > 0");
        assignment[i] = worker;
        load[worker] += costs[i];
    }
    assignment
}

/// Uniform random assignment (the `repran`/`disran` baseline),
/// deterministic in `seed`.
pub fn random_assign(count: usize, n: usize, seed: u64) -> Vec<usize> {
    assert!(n > 0, "random_assign: cannot assign over zero workers");
    let mut rng = gfd_util::Rng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

/// Dispatches on the [`Assignment`] strategy.
pub fn assign(strategy: Assignment, costs: &[u64], n: usize) -> Vec<usize> {
    match strategy {
        Assignment::Balanced => lpt_assign(costs, n),
        Assignment::Random { seed } => random_assign(costs.len(), n, seed),
    }
}

/// The makespan (largest per-worker cost sum) of an assignment.
pub fn makespan(costs: &[u64], assignment: &[usize], n: usize) -> u64 {
    assert_eq!(
        costs.len(),
        assignment.len(),
        "makespan: every unit cost needs an assigned worker"
    );
    let mut load = vec![0u64; n];
    for (i, &w) in assignment.iter().enumerate() {
        load[w] += costs[i];
    }
    load.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lower bound on the optimal makespan:
    /// `max(total/n rounded up, max single cost)` — Prop. 12's
    /// 2-approximation is checked against it.
    fn makespan_lower_bound(costs: &[u64], n: usize) -> u64 {
        assert!(n > 0, "makespan_lower_bound: zero workers have no makespan");
        let total: u64 = costs.iter().sum();
        let avg = total.div_ceil(n as u64);
        avg.max(costs.iter().copied().max().unwrap_or(0))
    }

    #[test]
    fn example12_balanced_partition() {
        // Example 12: nine units sized {22,22,26,26,30,30,24,28,28}
        // over 3 processors → loads ~{76,78,82}.
        let costs = vec![22, 22, 26, 26, 30, 30, 24, 28, 28];
        let a = lpt_assign(&costs, 3);
        let ms = makespan(&costs, &a, 3);
        // LPT achieves a makespan within [ceil(236/3)=79, 82].
        assert!((79..=82).contains(&ms), "makespan {ms}");
    }

    #[test]
    fn lpt_within_two_approx() {
        let costs: Vec<u64> = (1..40).map(|i| (i * 37) % 101 + 1).collect();
        for n in [2usize, 4, 8] {
            let a = lpt_assign(&costs, n);
            let ms = makespan(&costs, &a, n);
            let lb = makespan_lower_bound(&costs, n);
            assert!(ms <= 2 * lb, "n={n}: makespan {ms} > 2×LB {lb}");
        }
    }

    #[test]
    fn lpt_beats_random_on_skew() {
        // A few huge units and many small ones: random placement piles up.
        let mut costs = vec![1000u64, 900, 800];
        costs.extend(std::iter::repeat_n(10, 60));
        let n = 4;
        let lpt = makespan(&costs, &lpt_assign(&costs, n), n);
        let rnd = makespan(&costs, &random_assign(costs.len(), n, 42), n);
        assert!(lpt <= rnd, "LPT {lpt} should not lose to random {rnd}");
    }

    #[test]
    fn random_assignment_in_range_and_deterministic() {
        let a = random_assign(100, 7, 1);
        let b = random_assign(100, 7, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&w| w < 7));
        let c = random_assign(100, 7, 2);
        assert_ne!(a, c, "different seeds give different assignments");
    }

    #[test]
    fn empty_workload() {
        assert!(lpt_assign(&[], 3).is_empty());
        assert_eq!(makespan(&[], &[], 3), 0);
        assert_eq!(makespan_lower_bound(&[], 3), 0);
    }

    #[test]
    fn single_worker_gets_everything() {
        let costs = vec![5, 6, 7];
        let a = lpt_assign(&costs, 1);
        assert!(a.iter().all(|&w| w == 0));
        assert_eq!(makespan(&costs, &a, 1), 18);
    }
}
