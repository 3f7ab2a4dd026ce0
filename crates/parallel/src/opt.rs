//! Optimization strategies (appendix).
//!
//! * **Workload reduction**: drop rules implied by the rest of `Σ`
//!   (`Σ \ {ϕ} ⊨ ϕ` ⇒ whether `Vio` is empty is unchanged) with
//!   [`gfd_core::implication::minimize`]. `repVal` and `disVal` never
//!   reduce: the violations of a dropped rule would go unreported, so a
//!   caller reduces `Σ` itself and runs them on the result.
//! * **Replicate-and-split for skewed graphs**: work units whose
//!   estimated cost exceeds a threshold `θ` are replicated into shares
//!   that split the enumeration time across processors and ship
//!   partial matches instead of prefetching the unit's footprint.

use crate::workload::WorkUnit;

/// A unit after skew splitting: `share`/`of` describe which slice of
/// the replicated unit this entry carries.
#[derive(Clone, Copy, Debug)]
pub struct SplitUnit {
    /// The underlying unit (same pivots for all shares — the
    /// descriptor points into the workload's shared slot arena).
    pub unit: WorkUnit,
    /// Index of the original unit in the pre-split workload (shares of
    /// one unit agree), used to spread the measured enumeration time
    /// over the shares.
    pub unit_index: usize,
    /// Share index in `0..of`.
    pub share: usize,
    /// Total shares the unit was split into (1 = not split).
    pub of: usize,
}

impl SplitUnit {
    /// Estimated cost of this share.
    pub fn cost(&self) -> u64 {
        (self.unit.cost / self.of as u64).max(1)
    }
}

/// Splits units whose estimated cost `unit.cost` exceeds `threshold`
/// into `ceil(cost/threshold)` shares ("replicate `w` with the same
/// `z̄`, but split `G_z̄`"). With `threshold = None`, every unit gets a
/// single share. Units are arena descriptors, so every share is a
/// plain copy — splitting never touches the heap beyond the output
/// vector itself.
pub fn split_large_units(units: &[WorkUnit], threshold: Option<u64>) -> Vec<SplitUnit> {
    let mut out = Vec::with_capacity(units.len());
    for (unit_index, &unit) in units.iter().enumerate() {
        let parts = match threshold {
            Some(theta) if theta > 0 && unit.cost > theta => unit.cost.div_ceil(theta) as usize,
            _ => 1,
        };
        for share in 0..parts {
            out.push(SplitUnit {
                unit,
                unit_index,
                share,
                of: parts,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(cost: u64) -> WorkUnit {
        WorkUnit {
            rule: 0,
            slot_offset: 0,
            slot_len: 1,
            cost,
        }
    }

    #[test]
    fn small_units_untouched() {
        let split = split_large_units(&[unit(10), unit(20)], Some(50));
        assert_eq!(split.len(), 2);
        assert!(split.iter().all(|s| s.of == 1));
        assert_eq!(split[0].cost(), 10);
    }

    #[test]
    fn large_units_split_proportionally() {
        let split = split_large_units(&[unit(100)], Some(30));
        assert_eq!(split.len(), 4); // ceil(100/30)
        assert!(split.iter().all(|s| s.of == 4));
        assert_eq!(split[0].cost(), 25);
        let shares: Vec<usize> = split.iter().map(|s| s.share).collect();
        assert_eq!(shares, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_threshold_means_no_split() {
        let split = split_large_units(&[unit(1_000_000)], None);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].of, 1);
    }
}
