//! `disVal` — parallel error detection on a fragmented graph
//! (§6.2, Theorem 11).
//!
//! `G` is partitioned into fragments `(F_1, …, F_n)`, one per worker,
//! with border-node bookkeeping. Error detection becomes a
//! *bi-criteria* problem: balance the workload **and** minimize the
//! data shipped to assemble data blocks that straddle fragments.
//!
//! Procedure `disPar` estimates partial work units per fragment,
//! assembles complete units at the coordinator, and assigns them with
//! a greedy bi-criteria strategy (Prop. 13): process units in
//! descending cost; among the workers whose current load is within
//! `max(15 % of the minimum load, the unit's cost)` of the minimum,
//! pick the one that needs the least data shipped. Procedure
//! `dlocalVio` then evaluates each unit with one of
//! two schemes, whichever is estimated cheaper (the appendix's
//! *prefetching* vs *partial detection*):
//!
//! * **prefetch** — ship the unit's missing block nodes to the worker
//!   (each node fetched at most once per worker, then cached);
//! * **partial** — ship per-component partial matches instead, sized
//!   by a fragment-local graph-simulation estimate.
//!
//! In this reproduction the cluster is simulated (see crate docs):
//! enumeration always runs on the in-memory graph, while the bytes and
//! seconds that a real deployment would spend shipping data are
//! charged to the communication clocks — so violations are exact and
//! the communication behaviour (Fig. 5(j–l)) is faithfully modeled.
//!
//! The data blocks `G_z̄` are this byte model's alone: a work unit is
//! its pivot ranges, and [`dis_val`] builds one `c^i_Q`-hop block per
//! distinct range of its workload while estimating.

use std::cmp::Reverse;
use std::sync::Arc;

use gfd_util::{FxHashMap, FxHashSet};

use gfd_core::GfdSet;
use gfd_graph::neighborhood::khop_nodes_scratch;
use gfd_graph::{Fragmentation, Graph, NodeId, NodeSet};
use gfd_match::simulation_sets;

use crate::balance::random_assign;
use crate::cluster::{drive, Protocol, Run, Setup, SimClocks, Traffic};
use crate::metrics::ParallelReport;
use crate::opt::SplitUnit;
use crate::workload::{PivotedRule, UnitSlot, Workload, WorkloadOptions};
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
    /// shared class spaces and plans (class-space pools) instead of
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

/// Block size (in nodes) below which [`partial_match_bytes`] runs the
/// full block-scoped worklist simulation and sizes partial matches
/// from the *refined* relation. Above it, the seeding stage — per-
/// variable label-candidate counts, `O(|block| · |vars|)` — keeps the
/// per-unit cost bounded: the fixpoint's cost grows with the block's
/// edge volume while its accuracy gain matters most exactly where
/// blocks are small and label counts over-estimate badly (a block
/// admits many candidates by label that one missing edge disqualifies).
/// The bound also keeps a scoped simulation cheap per lookup: its
/// worklist state is sized by the block-narrowed seeds, and a neighbor
/// is ranked in a scoped seed by binary search.
/// Kept over label seeding everywhere (a bound of 0): without it
/// `disVal` on the benchmark's `bulk-burst` (`--seed 1`, 2-vCPU host)
/// ships 2.24 MB instead of 1.57 (+42.5 %), though its wall time falls
/// from 0.21 s to 0.15 s.
pub(crate) const PARTIAL_REFINE_MAX_BLOCK: usize = 256;

/// Estimated bytes for shipping partial matches of a unit's
/// components. The paper estimates partial-match sizes "via graph
/// simulation from pattern `Q[x̄]` to `F_i`": for small blocks that is
/// taken literally — a block-scoped dual simulation whose surviving
/// candidate counts size the rows (the worklist fixpoint is cheap at
/// block scale) — while blocks above
/// [`PARTIAL_REFINE_MAX_BLOCK`] fall back to the simulation's seeding
/// stage (label counts per block), an upper bound of the refined
/// relation.
fn partial_match_bytes(
    g: &Graph,
    plans: &[PivotedRule],
    blocks: &[Arc<NodeSet>],
    su: &SplitUnit,
) -> u64 {
    let rule = &plans[su.unit.rule()];
    let unit_blocks = su.unit.slots(blocks);
    let mut bytes = 0u64;
    for (i, comp) in rule.components.iter().enumerate() {
        let block = &unit_blocks[i.min(unit_blocks.len() - 1)];
        let rows = if block.len() <= PARTIAL_REFINE_MAX_BLOCK {
            let sets = simulation_sets(&comp.pattern, g, Some(block));
            sets.iter().map(Vec::len).sum::<usize>() as u64
        } else {
            let mut rows = 0u64;
            for v in comp.pattern.vars() {
                let label = comp.pattern.label(v);
                rows += block.iter().filter(|&n| label.admits(g.label(n))).count() as u64;
            }
            rows
        };
        bytes += rows * 8 * comp.pattern.node_count().max(1) as u64;
    }
    bytes
}

/// The nodes of a unit's blocks, one block per slot (a node in two
/// blocks comes twice).
fn block_nodes(blocks: &[Arc<NodeSet>]) -> impl Iterator<Item = NodeId> + '_ {
    blocks.iter().flat_map(|block| block.iter())
}

/// The data block of every slot of `wl`, index for index: the
/// `c^i_Q`-hop neighbourhood of the slot's pivot range, one multi-source
/// BFS per distinct `(list, lo, hi, radius)` — slots over the same range
/// share one `Arc`.
fn slot_blocks(g: &Graph, wl: &Workload) -> Vec<Arc<NodeSet>> {
    let mut visited = vec![false; g.node_count()];
    let mut cache = FxHashMap::default();
    let mut blocks = Vec::with_capacity(wl.slots.len());
    // Units tile the arena in order, so pushing per unit fills it
    // index for index.
    for unit in &wl.units {
        let comps = &wl.plans[unit.rule()].components;
        for (slot, c) in unit.slots(&wl.slots).iter().zip(comps) {
            let range = (slot.pivots.as_ptr(), slot.lo, slot.hi, c.radius);
            let block = cache.entry(range).or_insert_with(|| {
                Arc::new(khop_nodes_scratch(g, slot.range(), c.radius, &mut visited))
            });
            blocks.push(Arc::clone(block));
        }
    }
    blocks
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
        blocks: Vec::new(),
        block_bytes: Vec::new(),
    };
    drive(sigma, g, setup, &mut protocol)
}

/// `disVal`'s protocol: procedure `disPar`'s partial units, the
/// bi-criteria assignment, and `dlocalVio`'s per-unit choice between
/// prefetching and partial detection.
struct Fragmented<'a> {
    cfg: &'a DisValConfig,
    frag: &'a Fragmentation,
    /// The data block of every slot of the workload, index for index.
    blocks: Vec<Arc<NodeSet>>,
    /// Per unit, its block bytes `|G_z̄|` in total and per fragment.
    block_bytes: Vec<(u64, Vec<u64>)>,
}

impl Protocol for Fragmented<'_> {
    /// `disPar`: every fragment owning a pivot of a unit ships the
    /// coordinator a partial unit — batched into one message per
    /// fragment (`M_i`) — carrying its share `|G^j_z̄|` of the unit's
    /// block bytes, computed while estimating from the blocks built
    /// here ([`slot_blocks`]).
    fn prepare(&mut self, run: &Run, clocks: &mut SimClocks) {
        let frag = self.frag;
        self.blocks = slot_blocks(run.g, run.wl);
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
            let mut by_frag = vec![0u64; run.n];
            let mut seen = FxHashSet::default();
            for node in block_nodes(unit.slots(&self.blocks)).filter(|&node| seen.insert(node)) {
                by_frag[frag.owner(node).index()] += run.g.node_wire_size(node) as u64;
            }
            self.block_bytes.push((by_frag.iter().sum(), by_frag));
        }
        for (w, bytes) in descriptors.into_iter().enumerate() {
            if bytes > 0 {
                clocks.charge_message(w, bytes);
            }
        }
    }

    /// Bi-criteria assignment (Prop. 13): descending cost; among
    /// load-feasible workers pick minimal shipment — per-worker
    /// shipment is `total − local`, O(1) per worker from the blocks.
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
            let (total, by_frag) = &self.block_bytes[split[i].unit_index];
            // Invariant: the driver asserts `n > 0`.
            let min_load = *load.iter().min().expect("n > 0");
            let slack = ((min_load as f64 * BALANCE_SLACK) as u64).max(cost);
            // Invariant: `slack >= 0`, so the min-load worker always
            // passes the feasibility filter.
            let w = (0..n)
                .filter(|&w| load[w] <= min_load + slack)
                .min_by_key(|&w| (total - by_frag[w], w))
                .expect("at least the min-load worker is feasible");
            load[w] += cost;
            out[i] = w;
        }
        out
    }

    /// `dlocalVio`'s shipment: a whole unit's block nodes the worker
    /// neither owns nor has cached are prefetched (then cached) unless,
    /// with scheme choice on, its partial matches are estimated smaller.
    /// Shipment streams in bulk, so latency is paid per kind and bytes
    /// per node or row.
    fn ship(&self, run: &Run, worker: usize, shares: &[SplitUnit], traffic: &mut Traffic) {
        let (g, blocks, frag) = (run.g, &self.blocks, self.frag);
        let mut cache: FxHashSet<NodeId> = FxHashSet::default();
        for su in shares.iter().filter(|su| su.of == 1) {
            let missing: FxHashSet<NodeId> = block_nodes(su.unit.slots(blocks))
                .filter(|&node| frag.owner(node).index() != worker && !cache.contains(&node))
                .collect();
            let fetch: u64 = missing.iter().map(|&n| g.node_wire_size(n) as u64).sum();
            if self.cfg.scheme_choice {
                let part = partial_match_bytes(g, &run.wl.plans, blocks, su);
                if part < fetch {
                    traffic.partial += part;
                    continue;
                }
            }
            cache.extend(missing);
            traffic.data += fetch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::plan_rules;
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
        // Hash partitioning maximizes cross-fragment blocks.
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Hash);
        let report = dis_val(&sigma, &g, &frag, &DisValConfig::val(3));
        assert!(
            report.bytes_shipped > 0,
            "cross-fragment blocks must ship data"
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

    /// The partial-match estimate crossover: small blocks are sized
    /// from the *refined* block-scoped simulation (strictly tighter
    /// when the block admits label-compatible nodes that refinement
    /// disqualifies), large blocks keep the seeding-stage label counts.
    #[test]
    fn partial_match_estimate_crossover() {
        use crate::opt::SplitUnit;
        use crate::workload::WorkUnit;
        use gfd_graph::neighborhood::khop_nodes;

        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        // A complete flight star f → id, f → city…
        let f = b.add_node_labeled("flight");
        let id = b.add_node_labeled("id");
        let c = b.add_node_labeled("city");
        b.add_edge_labeled(f, id, "number");
        b.add_edge_labeled(f, c, "to");
        // …plus a second flight inside f's block that lacks both star
        // edges: label-admitted for the pivot variable, refined away.
        let f2 = b.add_node_labeled("flight");
        b.add_edge_labeled(f, f2, "alias");
        let g = b.freeze();
        let sigma = GfdSet::new(vec![{
            let mut pb = PatternBuilder::new(g.vocab().clone());
            let x = pb.node("x", "flight");
            let x1 = pb.node("x1", "id");
            let x2 = pb.node("x2", "city");
            pb.edge(x, x1, "number");
            pb.edge(x, x2, "to");
            let val = g.vocab().intern("val");
            gfd_core::Gfd::new(
                "star",
                pb.build(),
                gfd_core::Dependency::always(vec![gfd_core::Literal::var_eq(x1, val, x1, val)]),
            )
        }]);
        let plans = plan_rules(&sigma);
        // A one-slot unit over the first entry of a block arena.
        let su = SplitUnit {
            unit: WorkUnit {
                rule: 0,
                slot_offset: 0,
                slot_len: 1,
                check_both_orientations: false,
                cost: 0,
            },
            unit_index: 0,
            share: 0,
            of: 1,
        };

        // Small block (4 nodes ≤ threshold): the refined path. Label
        // seeding would count both flights (rows 2+1+1 = 4); the
        // refined relation drops f2 (rows 1+1+1 = 3).
        let block = Arc::new(khop_nodes(&g, &[f], 1));
        assert!(block.len() <= PARTIAL_REFINE_MAX_BLOCK);
        let blocks = std::slice::from_ref(&block);
        let nvars = 3u64;
        let refined = gfd_match::dual_simulation(&plans[0].components[0].pattern, &g, Some(&block))
            .total_size() as u64;
        assert_eq!(refined, 3);
        assert_eq!(
            partial_match_bytes(&g, &plans, blocks, &su),
            refined * 8 * nvars
        );
        assert!(partial_match_bytes(&g, &plans, blocks, &su) < 4 * 8 * nvars);

        // Large block (> threshold): the seeding path counts every
        // label-admitted node, including ids refinement would drop
        // (they hang off the hub by a non-star edge).
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let hub = b.add_node_labeled("flight");
        for _ in 0..260 {
            let leaf = b.add_node_labeled("id");
            b.add_edge_labeled(hub, leaf, "number");
        }
        for _ in 0..50 {
            let orphan = b.add_node_labeled("id");
            b.add_edge_labeled(hub, orphan, "alias");
        }
        let city = b.add_node_labeled("city");
        b.add_edge_labeled(hub, city, "to");
        let g2 = b.freeze();
        let sigma2 = GfdSet::new(vec![{
            let mut pb = PatternBuilder::new(g2.vocab().clone());
            let x = pb.node("x", "flight");
            let x1 = pb.node("x1", "id");
            let x2 = pb.node("x2", "city");
            pb.edge(x, x1, "number");
            pb.edge(x, x2, "to");
            let val = g2.vocab().intern("val");
            gfd_core::Gfd::new(
                "star2",
                pb.build(),
                gfd_core::Dependency::always(vec![gfd_core::Literal::var_eq(x1, val, x1, val)]),
            )
        }]);
        let plans2 = plan_rules(&sigma2);
        let big = Arc::new(khop_nodes(&g2, &[hub], 1));
        assert!(big.len() > PARTIAL_REFINE_MAX_BLOCK);
        let seeded_rows = (1 + 310 + 1) as u64; // flights + ids + cities by label
        assert_eq!(
            partial_match_bytes(&g2, &plans2, std::slice::from_ref(&big), &su),
            seeded_rows * 8 * 3
        );
        let refined_rows =
            gfd_match::dual_simulation(&plans2[0].components[0].pattern, &g2, Some(&big))
                .total_size() as u64;
        assert!(
            refined_rows < seeded_rows,
            "premise: refinement would have been tighter ({refined_rows} vs {seeded_rows})"
        );
    }

    /// `disVal` builds the blocks itself, one per slot of the arena:
    /// each is the `c^i_Q`-hop neighbourhood of its slot's range, and
    /// slots over one range of one list — across rule groups too —
    /// share one allocation.
    #[test]
    fn one_block_per_distinct_range() {
        use crate::workload::estimate_workload;
        use gfd_graph::neighborhood::khop_nodes;

        let g = flights(9, 0);
        let vocab = g.vocab().clone();
        // phi's star beside a lone id: a group of its own whose first
        // component draws phi's candidate list.
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        let x2 = b.node("x2", "city");
        b.edge(x, x1, "number");
        b.edge(x, x2, "to");
        let z = b.node("z", "id");
        let val = vocab.intern("val");
        let star_and_id = Gfd::new(
            "star-and-id",
            b.build(),
            Dependency::always(vec![Literal::var_eq(x1, val, z, val)]),
        );
        let sigma = GfdSet::new(vec![phi(vocab), star_and_id]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let blocks = slot_blocks(&g, &wl);
        assert_eq!(blocks.len(), wl.slots.len());
        let mut ranges = Vec::new();
        for u in &wl.units {
            let comps = &wl.plans[u.rule()].components;
            let slots = u.slots(&wl.slots).iter().zip(u.slots(&blocks));
            for ((slot, block), comp) in slots.zip(comps) {
                assert_eq!(**block, khop_nodes(&g, slot.range(), comp.radius));
                ranges.push((slot.pivots.as_ptr(), slot.lo, slot.hi, comp.radius));
            }
        }
        ranges.sort_unstable();
        ranges.dedup();
        let mut allocations: Vec<_> = blocks.iter().map(Arc::as_ptr).collect();
        allocations.sort_unstable();
        allocations.dedup();
        assert_eq!(
            allocations.len(),
            ranges.len(),
            "one BFS per distinct range"
        );
        assert_eq!(ranges.len(), 16, "8 ranges of each of the two lists");
    }

    #[test]
    fn single_fragment_ships_nothing_for_blocks() {
        let g = flights(8, 2);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let frag = Fragmentation::partition(&g, 1, PartitionStrategy::Contiguous);
        let report = dis_val(&sigma, &g, &frag, &DisValConfig::nop(1));
        // Only descriptor/violation messages, no block fetches: with a
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
