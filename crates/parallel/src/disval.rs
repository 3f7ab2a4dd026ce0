//! `disVal` — parallel error detection on a fragmented graph
//! (§6.2, Theorem 11).
//!
//! `G` is partitioned into fragments `(F_1, …, F_n)`, one per worker.
//! No border-node bookkeeping: the paper's sets `F_i.I` and `F_i.O`
//! are not kept, because a unit's shipment is priced by the owner of
//! each node its footprint reads, and that owner map is all `disVal`
//! reads of a fragmentation. Error detection becomes a *bi-criteria*
//! problem: balance the workload **and** minimize the data shipped to
//! evaluate units whose data straddles fragments.
//!
//! Procedure `disPar` estimates partial work units per fragment,
//! assembles complete units at the coordinator, and assigns them with
//! a greedy bi-criteria strategy (Prop. 13): process units in
//! descending cost; among the workers whose current load is within
//! `max(15 % of the minimum load, the unit's cost)` of the minimum,
//! pick the one that needs the least data shipped. Procedure
//! `dlocalVio` then evaluates each unit with one of
//! two schemes, whichever ships less (the appendix's *prefetching* vs
//! *partial detection*):
//!
//! * **prefetch** — ship the unit's remote *footprint* to the worker
//!   (each node fetched at most once per worker, then cached): its
//!   slots' pivots and their root pools, the runs of the class
//!   candidate space a search pinned at a pivot intersects first;
//! * **partial** — ship per-component partial matches instead, sized
//!   from the same root pools: each pivot pins as many rows as the
//!   product of its pools' sizes.
//!
//! Both sizes are read once per unit off the class views that
//! estimation simulated ("via graph simulation from `Q` to `F_i`",
//! §6.2) — the views work units are priced from — so `disVal` builds
//! no data block of its own.
//!
//! In this reproduction the cluster is simulated (see crate docs):
//! enumeration always runs on the in-memory graph, while the bytes and
//! seconds that a real deployment would spend shipping data are
//! charged to the communication clocks — so violations are exact and
//! the communication behaviour (Fig. 5(j–l)) is faithfully modeled.

use std::cmp::Reverse;
use std::sync::Arc;

use gfd_util::FxHashMap;

use gfd_core::group::RuleGroup;
use gfd_core::GfdSet;
use gfd_graph::{Fragmentation, Graph, NodeId};
use gfd_match::ClassView;

use crate::balance::random_assign;
use crate::cluster::{drive, Protocol, Run, Setup, SimClocks, Traffic};
use crate::metrics::ParallelReport;
use crate::opt::SplitUnit;
use crate::workload::{root_pools, GroupPlan, UnitSlot, WorkloadOptions};
use crate::Assignment;

/// Load-balance slack of the bi-criteria greedy: a worker is
/// load-feasible while its load stays within this fraction of the
/// current best load (or one unit's cost) above it.
const BALANCE_SLACK: f64 = 0.15;

/// Configuration of a `disVal` run.
#[derive(Clone, Debug)]
pub struct DisValConfig {
    /// Number of processors (must equal the fragmentation's `n`).
    pub n: usize,
    /// Assignment strategy: bi-criteria greedy, or random (`disran`).
    pub assignment: Assignment,
    /// Multi-query optimization: units enumerate through the run's
    /// shared class spaces (class-space pools) instead of
    /// searching the raw graph (raw pools). Rules sharing a pattern
    /// class are grouped either way.
    pub multi_query: bool,
    /// Per-unit evaluation-scheme selection (prefetch vs partial);
    /// `false` (as in `disnop`) always prefetches.
    pub scheme_choice: bool,
    /// Replicate-and-split threshold on a unit's estimated cost.
    pub split_threshold: Option<u64>,
    /// Workload-estimation knobs.
    pub workload: WorkloadOptions,
}

impl DisValConfig {
    /// The full algorithm (`disVal`).
    pub fn val(n: usize) -> Self {
        DisValConfig {
            n,
            assignment: Assignment::Balanced,
            multi_query: true,
            scheme_choice: true,
            split_threshold: None,
            workload: WorkloadOptions::default(),
        }
    }

    /// `disnop`: optimizations off (no multi-query, no scheme choice,
    /// no splitting); bi-criteria assignment stays.
    pub fn nop(n: usize) -> Self {
        DisValConfig {
            multi_query: false,
            scheme_choice: false,
            ..Self::val(n)
        }
    }

    /// `disran`: random assignment (optimizations on).
    pub fn ran(n: usize, seed: u64) -> Self {
        DisValConfig {
            assignment: Assignment::Random { seed },
            ..Self::val(n)
        }
    }

    /// Enables skew splitting with threshold `theta`.
    pub fn with_split(mut self, theta: u64) -> Self {
        self.split_threshold = Some(theta);
        self
    }
}

/// What prefetching and partial detection ship for one unit.
struct UnitBytes {
    /// The unit's footprint: its slots' pivots and their root pools,
    /// sorted and deduplicated.
    footprint: Vec<NodeId>,
    /// The footprint's wire bytes per owning fragment.
    by_frag: Vec<u64>,
    /// The unit's partial matches in bytes: per slot, the rows its
    /// pivots pin — the product of each pivot's root-pool sizes (1 for
    /// a lone-node part) — times 8 × the part's arity.
    partial: u64,
}

impl UnitBytes {
    /// The byte model of a unit with `slots` over the parts of
    /// `group`, pivoted by `gp`, slot `i` read through `views[i]`, part
    /// `i`'s class view.
    fn new(
        g: &Graph,
        frag: &Fragmentation,
        (group, gp): (&RuleGroup, &GroupPlan),
        views: &[ClassView],
        slots: &[UnitSlot],
    ) -> Self {
        let mut footprint = Vec::new();
        let mut partial = 0u64;
        for (i, (slot, view)) in slots.iter().zip(views).enumerate() {
            let pivot = view.rep_var(gp.local_pivot(group, i));
            let mut rows = 0u64;
            for &v in slot.range() {
                footprint.push(v);
                let mut pinned = 1u64;
                for pool in root_pools(view, pivot, v) {
                    footprint.extend_from_slice(pool);
                    pinned = pinned.saturating_mul(pool.len() as u64);
                }
                rows = rows.saturating_add(pinned);
            }
            let arity = group.parts[i].0.node_count().max(1) as u64;
            partial = partial.saturating_add(rows.saturating_mul(8 * arity));
        }
        footprint.sort_unstable();
        footprint.dedup();
        let mut by_frag = vec![0u64; frag.n()];
        for &v in &footprint {
            by_frag[frag.owner(v).index()] += g.node_wire_size(v) as u64;
        }
        UnitBytes {
            footprint,
            by_frag,
            partial,
        }
    }
}

/// Runs `disVal` on a fragmented graph.
///
/// # Panics
/// Panics if `cfg.n != frag.n()`.
pub fn dis_val(
    sigma: &GfdSet,
    g: &Arc<Graph>,
    frag: &Fragmentation,
    cfg: &DisValConfig,
) -> ParallelReport {
    assert_eq!(cfg.n, frag.n(), "one fragment per processor");
    let algo = match (cfg.assignment, cfg.multi_query || cfg.scheme_choice) {
        (Assignment::Balanced, true) => "disVal",
        (Assignment::Balanced, false) => "disnop",
        (Assignment::Random { .. }, _) => "disran",
    };
    let setup = Setup {
        algo,
        n: cfg.n,
        multi_query: cfg.multi_query,
        split_threshold: cfg.split_threshold,
        workload: &cfg.workload,
    };
    let mut protocol = Fragmented {
        cfg,
        frag,
        units: Vec::new(),
    };
    drive(sigma, g, setup, &mut protocol)
}

/// `disVal`'s protocol: procedure `disPar`'s partial units, the
/// bi-criteria assignment, and `dlocalVio`'s per-unit choice between
/// prefetching and partial detection.
struct Fragmented<'a> {
    cfg: &'a DisValConfig,
    frag: &'a Fragmentation,
    /// The byte model of every unit of the workload, index for index.
    units: Vec<UnitBytes>,
}

impl Protocol for Fragmented<'_> {
    /// `disPar`: every fragment owning a pivot of a unit ships the
    /// coordinator a partial unit — batched into one message per
    /// fragment (`M_i`) — carrying its share of the unit's footprint
    /// bytes. The byte models read each representative part's class
    /// view, registered once; estimation has simulated them all.
    fn prepare(&mut self, run: &Run, clocks: &mut SimClocks) {
        let (g, frag, registry) = (run.g, self.frag, run.registry);
        let mut views: FxHashMap<usize, Vec<ClassView>> = FxHashMap::default();
        let mut descriptors = vec![0u64; run.n];
        for unit in &run.wl.units {
            let slots = unit.slots(&run.wl.slots);
            let mut owners: Vec<usize> = (slots.iter().flat_map(UnitSlot::range))
                .map(|&p| frag.owner(p).index())
                .collect();
            owners.sort_unstable();
            owners.dedup();
            for w in owners {
                descriptors[w] += 24 + 8 * unit.k() as u64;
            }
            let index = run.wl.plan.group_index(unit.rule());
            let (group, gp) = run.wl.plan.group(index);
            let views = views.entry(index).or_insert_with(|| {
                let view = |(q, _): &(_, _)| registry.space(registry.register(q), g);
                group.parts.iter().map(view).collect()
            });
            self.units
                .push(UnitBytes::new(g, frag, (group, gp), views, slots));
        }
        for (w, bytes) in descriptors.into_iter().enumerate() {
            if bytes > 0 {
                clocks.charge_message(w, bytes);
            }
        }
    }

    /// Bi-criteria assignment (Prop. 13): descending cost; among
    /// load-feasible workers pick minimal shipment — the worker owning
    /// the most footprint bytes, O(1) per worker.
    fn assign(&self, run: &Run) -> Vec<usize> {
        let (split, n) = (run.split, run.n);
        if let Assignment::Random { seed } = self.cfg.assignment {
            return random_assign(split.len(), n, seed);
        }
        let mut order: Vec<usize> = (0..split.len()).collect();
        order.sort_by_key(|&i| (Reverse(split[i].cost()), i));
        let mut load = vec![0u64; n];
        let mut out = vec![0usize; split.len()];
        for i in order {
            let cost = split[i].cost();
            let by_frag = &self.units[split[i].unit_index].by_frag;
            // Invariant: the driver asserts `n > 0`.
            let min_load = *load.iter().min().expect("n > 0");
            let slack = ((min_load as f64 * BALANCE_SLACK) as u64).max(cost);
            // Invariant: `slack >= 0`, so the min-load worker always
            // passes the feasibility filter.
            let w = (0..n)
                .filter(|&w| load[w] <= min_load + slack)
                .min_by_key(|&w| (Reverse(by_frag[w]), w))
                .expect("at least the min-load worker is feasible");
            load[w] += cost;
            out[i] = w;
        }
        out
    }

    /// `dlocalVio`'s shipment: the worker prefetches the remote
    /// footprint nodes of its whole shares, each node once. With scheme
    /// choice on, a share ships its partial matches instead when they
    /// are smaller than its remote nodes that no other share of the
    /// worker still needs — so choosing never ships more than
    /// prefetching alone. Shipment streams in bulk, so latency is paid
    /// per kind and bytes per node or row.
    fn ship(&self, run: &Run, worker: usize, shares: &[SplitUnit], traffic: &mut Traffic) {
        let (g, frag) = (run.g, self.frag);
        let whole = shares.iter().filter(|su| su.of == 1);
        let remote = |su: &SplitUnit| {
            let footprint = self.units[su.unit_index].footprint.iter().copied();
            footprint.filter(|&v| frag.owner(v).index() != worker)
        };
        let wire = |v: NodeId| g.node_wire_size(v) as u64;
        // Per remote node, how many whole shares still need it.
        let mut needs: FxHashMap<NodeId, u32> = FxHashMap::default();
        for v in whole.clone().flat_map(remote) {
            *needs.entry(v).or_default() += 1;
        }
        if self.cfg.scheme_choice {
            for su in whole {
                let sole: u64 = remote(su).filter(|v| needs[v] == 1).map(wire).sum();
                let part = self.units[su.unit_index].partial;
                if part < sole {
                    traffic.partial += part;
                    for v in remote(su) {
                        *needs.get_mut(&v).expect("counted above") -= 1;
                    }
                }
            }
        }
        let fetched = needs.into_iter().filter(|&(_, shares)| shares > 0);
        traffic.data += fetched.map(|(v, _)| wire(v)).sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{PartitionStrategy, Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

    fn flights(n: usize, dup: usize) -> Arc<Graph> {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..n {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            let to = b.add_node_labeled("city");
            b.add_edge_labeled(f, id, "number");
            b.add_edge_labeled(f, to, "to");
            let idv = if i < dup {
                "DUP".into()
            } else {
                format!("FL{i}")
            };
            b.set_attr_named(id, "val", Value::str(&idv));
            b.set_attr_named(to, "val", Value::str(&format!("City{i}")));
        }
        Arc::new(b.freeze())
    }

    fn phi(vocab: Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        let x2 = b.node("x2", "city");
        b.edge(x, x1, "number");
        b.edge(x, x2, "to");
        let y = b.node("y", "flight");
        let y1 = b.node("y1", "id");
        let y2 = b.node("y2", "city");
        b.edge(y, y1, "number");
        b.edge(y, y2, "to");
        let q = b.build();
        let val = vocab.intern("val");
        Gfd::new(
            "flight-dest",
            q,
            Dependency::new(
                vec![Literal::var_eq(x1, val, y1, val)],
                vec![Literal::var_eq(x2, val, y2, val)],
            ),
        )
    }

    #[test]
    fn disval_matches_sequential_detvio() {
        let g = flights(9, 3);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        crate::unitexec::sort_violations(&mut expected);
        for n in [1usize, 3] {
            let frag = Fragmentation::partition(&g, n, PartitionStrategy::Contiguous);
            for cfg in [
                DisValConfig::val(n),
                DisValConfig::nop(n),
                DisValConfig::ran(n, 5),
            ] {
                let report = dis_val(&sigma, &g, &frag, &cfg);
                assert_eq!(report.violations, expected, "{} n={n}", report.algo);
            }
        }
    }

    #[test]
    fn communication_is_tracked() {
        let g = flights(12, 4);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        // Hash partitioning maximizes cross-fragment footprints.
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Hash);
        let report = dis_val(&sigma, &g, &frag, &DisValConfig::val(3));
        assert!(
            report.bytes_shipped > 0,
            "cross-fragment footprints must ship data"
        );
        assert!(report.comm_seconds > 0.0);
    }

    #[test]
    fn bicriteria_ships_less_than_random() {
        let g = flights(24, 6);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let frag = Fragmentation::partition(&g, 4, PartitionStrategy::BfsClustered);
        let val = dis_val(&sigma, &g, &frag, &DisValConfig::val(4));
        // A random assignment can get lucky — piling units on one
        // worker ships little and balances nothing — so compare with a
        // handful of seeds, not one.
        for seed in 0..4 {
            let ran = dis_val(&sigma, &g, &frag, &DisValConfig::ran(4, seed));
            assert_eq!(val.violations, ran.violations);
            assert!(
                val.bytes_shipped <= ran.bytes_shipped,
                "bi-criteria ({}) should not ship more than random ({}, seed {seed})",
                val.bytes_shipped,
                ran.bytes_shipped
            );
        }
    }

    #[test]
    fn scheme_choice_never_ships_more() {
        let g = flights(16, 5);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let frag = Fragmentation::partition(&g, 4, PartitionStrategy::Hash);
        let with = dis_val(&sigma, &g, &frag, &DisValConfig::val(4));
        let without = dis_val(
            &sigma,
            &g,
            &frag,
            &DisValConfig {
                scheme_choice: false,
                ..DisValConfig::val(4)
            },
        );
        assert_eq!(with.violations, without.violations);
        assert!(with.bytes_shipped <= without.bytes_shipped);
    }

    /// The byte model on a hand-built flight star: flight `f` has two
    /// `number` ids, flight `h` one. Each of the two one-pivot units
    /// ships as partial matches exactly the rows its pivot pins, as
    /// prefetch exactly its pivot and root pools, and splits those
    /// bytes by owning fragment.
    #[test]
    fn unit_bytes_read_the_root_pools() {
        use crate::workload::estimate_workload_in;
        use gfd_graph::FragmentId;
        use gfd_match::{count_matches, ClassRegistry, MatchOptions};

        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let f = b.add_node_labeled("flight");
        let (f1, f2) = (b.add_node_labeled("id"), b.add_node_labeled("id"));
        let fc = b.add_node_labeled("city");
        b.add_edge_labeled(f, f1, "number");
        b.add_edge_labeled(f, f2, "number");
        b.add_edge_labeled(f, fc, "to");
        let h = b.add_node_labeled("flight");
        let h1 = b.add_node_labeled("id");
        let hc = b.add_node_labeled("city");
        b.add_edge_labeled(h, h1, "number");
        b.add_edge_labeled(h, hc, "to");
        // An id no flight numbers: in no root pool.
        b.add_node_labeled("id");
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "flight");
        let x1 = pb.node("x1", "id");
        let x2 = pb.node("x2", "city");
        pb.edge(x, x1, "number");
        pb.edge(x, x2, "to");
        let val = g.vocab().intern("val");
        let star = Gfd::new(
            "star",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(x1, val, x2, val)]),
        );
        let sigma = GfdSet::new(vec![star]);
        let registry = ClassRegistry::new();
        let wl = estimate_workload_in(&sigma, &g, &WorkloadOptions::default(), &registry);
        assert_eq!(wl.units.len(), 2, "one unit per flight");
        // Flights and ids in fragment 0, cities in fragment 1.
        let owner = g.nodes().map(|v| FragmentId(u16::from(v == fc || v == hc)));
        let frag = Fragmentation::from_owner(&g, 2, owner.collect());
        let run = Run {
            g: &g,
            n: 2,
            wl: &wl,
            split: &[],
            registry: &registry,
        };
        let cfg = DisValConfig::val(2);
        let mut protocol = Fragmented {
            cfg: &cfg,
            frag: &frag,
            units: Vec::new(),
        };
        protocol.prepare(&run, &mut SimClocks::new(2));
        let (group, gp) = wl.plan.group(0);
        let (part, pivot) = (&group.parts[0].0, gp.local_pivot(group, 0));
        let wire = |v: NodeId| g.node_wire_size(v) as u64;
        let expected = [(f, 2, vec![f, f1, f2, fc]), (h, 1, vec![h, h1, hc])];
        let units = wl.units.iter().zip(&protocol.units);
        for ((unit, bytes), (node, rows, footprint)) in units.zip(expected) {
            assert_eq!(unit.slots(&wl.slots)[0].range(), [node]);
            let opts = MatchOptions::unrestricted().pin(pivot, node);
            assert_eq!(count_matches(part, &g, &opts), rows);
            assert_eq!(bytes.partial, rows as u64 * 8 * 3, "rows × 8 × arity");
            assert_eq!(bytes.footprint, footprint, "pivot ∪ root pools");
            let city = *footprint.last().expect("a city");
            let flight_and_ids: u64 = footprint[..footprint.len() - 1]
                .iter()
                .map(|&v| wire(v))
                .sum();
            assert_eq!(bytes.by_frag, [flight_and_ids, wire(city)]);
        }
    }

    #[test]
    fn single_fragment_ships_nothing_for_blocks() {
        let g = flights(8, 2);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let frag = Fragmentation::partition(&g, 1, PartitionStrategy::Contiguous);
        let report = dis_val(&sigma, &g, &frag, &DisValConfig::nop(1));
        // Only descriptor/violation messages, no footprint fetches: with a
        // single fragment every node is local. Descriptors are ≤ 64
        // bytes per unit; violations ≤ 16 bytes each.
        let overhead = report.units as u64 * 64 + report.violations.len() as u64 * 16;
        assert!(
            report.bytes_shipped <= overhead,
            "{} > {overhead}",
            report.bytes_shipped
        );
    }
}
