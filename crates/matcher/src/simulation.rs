//! Graph (dual) simulation as a worklist fixpoint, producing the
//! [`CandidateSpace`] that drives the exact matcher.
//!
//! `disVal`'s *partial detection* scheme (§6.2) estimates the number of
//! partial matches "via graph simulation from pattern `Q[x̄]` to `F_i`"
//! before deciding whether to ship partial matches or data blocks.
//! Dual simulation is the standard polynomial relaxation of subgraph
//! isomorphism: a relation `sim ⊆ V_Q × V` such that `(v, u) ∈ sim`
//! implies every pattern edge at `v` (both directions) can be followed
//! from `u` to some simulated partner. Every subgraph-isomorphism match
//! is contained in the simulation, so `|sim(v)|` upper-bounds the
//! candidates of `v` — which also makes simulation a sound pruning
//! filter for the exact matcher (the *filter* half of filter-and-refine).
//!
//! ## Algorithm
//!
//! Instead of re-scanning the dense `vars × nodes` membership matrix to
//! fixpoint, the computation is edge-local: per directed pattern edge
//! `e = (a, b, l)` it keeps, for every candidate `u` of `a`, the count
//! of admitted graph edges `u → w` with `w` still simulating `b` (and
//! the mirror count for candidates of `b`). Seeding reads only label
//! extents (an unscoped wildcard's seed is the id range `0..|V|`, held
//! as nothing but its length). A candidate whose counter the seeding
//! leaves at zero is only flagged *pending*; one ascending scan of each
//! variable's flags then removes the pending candidates one by one, and
//! a candidate that a removal leaves without support is removed too,
//! through a stack — so the stack holds one cascade, never the seed.
//! Each removal only touches the removed node's own adjacency —
//! `O(affected)` per removal, `O(Σ_e Σ_{u∈cand} deg_l(u))` in total
//! rather than `rounds × vars × |V|`. The flags, counters and stack,
//! and the harvest's page buffer, are the from-scratch fixpoint's
//! working state and nothing more. They live in a [`SimScratch`]
//! workspace that a call clears and refills, sized by its seeds, the
//! cascade and the longest edge direction's runs — never by the
//! graph — and keeps for the next call: a
//! [`ClassRegistry`](crate::ClassRegistry) runs every class it
//! simulates through one, so a class allocates the space it keeps and
//! not a fixpoint of its own. Every array is indexed by a node's
//! rank in its variable's seed, found in O(1) without a search in the
//! two unscoped cases — [`Graph::extent_rank`] for a labelled variable
//! (once the neighbor's label matches), the node id for a wildcard —
//! and by binary search in the seed within a scope (block-scoped calls
//! are small). The space is the relation's one retained
//! representation — a repair reads membership and support off its runs
//! ([`crate::incremental`]).
//!
//! ## Layout
//!
//! The relation is packaged as sorted candidate sets plus, per pattern
//! edge and direction, an [`EdgeCandidates`]: one run of surviving
//! neighbors per source candidate, keyed by the candidate's **node
//! id** and stored in pages of 64 consecutive ids behind `Arc`s. Ids
//! are stable where ranks in a candidate set are not, so a graph edit
//! is a handful of run edits on the pages it touches
//! ([`crate::incremental`]) and everything else is shared with the
//! previous snapshot; a reader finds the run of an assigned image
//! without searching the image's set. `harvest_space` builds the
//! pages from scratch, those of one edge direction laid into one
//! allocation of exactly their size; a page moves into an allocation
//! of its own when a repair first writes it.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use gfd_graph::graph::PAGE_SHIFT;
use gfd_graph::{Adj, Graph, NodeId, NodeSet, Sym};
use gfd_pattern::{PatLabel, Pattern, VarId};

/// Run pages cover the same consecutive node ids as the graph's own
/// pages ([`PAGE_SHIFT`]), so an edit local to one graph page is local
/// to one run page.
const PAGE_MASK: usize = (1 << PAGE_SHIFT) - 1;

/// The single-bit mask of position `i` within its 64-bit word.
#[inline]
fn bit_of(i: usize) -> u64 {
    1u64 << (i & 63)
}

/// Number of set bits of `mask` below `bit` — the dense index of
/// `bit`'s entry among the present ones (the FST/SuRF rank step).
#[inline]
fn rank(mask: u64, bit: u64) -> usize {
    (mask & (bit - 1)).count_ones() as usize
}

/// The positions of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// Sorts `v[start..]` and drops repeats — a wildcard run spans labels,
/// and parallel edges under distinct labels repeat their endpoint.
fn sort_dedup_tail(v: &mut Vec<NodeId>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for i in start..v.len() {
        if w == start || v[i] != v[w - 1] {
            v[w] = v[i];
            w += 1;
        }
    }
    v.truncate(w);
}

/// The runs of the (up to 64) source candidates sharing one page of
/// node ids. Compact: only present slots pay for an offset, and a
/// page's cells are one range of one allocation behind an [`Arc`].
/// The from-scratch builder lays every page of an edge direction into
/// one shared slab; a page moves into an allocation of its own on its
/// first write. Either way the `Arc` is what consecutive snapshots
/// share and a repair copies (this page's cells only) before writing.
#[derive(Clone, Debug, Default)]
struct RunPage {
    /// Bit `s` is set iff node `page << 6 | s` has a run here.
    present: u64,
    /// `cells[start..][..len]` are this page's cells; what follows them
    /// is spare capacity only while the page is the `Arc`'s one holder.
    start: u32,
    len: u32,
    /// The first `present.count_ones()` cells are the runs' **end
    /// offsets** into the rest (held in a `NodeId`'s `u32`, so the page
    /// stays one slice), in slot order; then the runs' targets,
    /// concatenated in slot order, each run ascending.
    cells: Arc<[NodeId]>,
}

/// Pages are equal iff they hold the same runs, wherever their cells
/// live.
impl PartialEq for RunPage {
    fn eq(&self, other: &RunPage) -> bool {
        self.present == other.present && self.used() == other.used()
    }
}

impl Eq for RunPage {}

/// Shifts the end offsets in `ends` by `by`.
fn shift_ends(ends: &mut [NodeId], by: i64) {
    for end in ends {
        end.0 = (i64::from(end.0) + by) as u32;
    }
}

impl RunPage {
    #[inline]
    fn used(&self) -> &[NodeId] {
        &self.cells[self.start as usize..][..self.len as usize]
    }

    #[inline]
    fn run_count(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Range within [`used`](Self::used) of the run with rank `r`
    /// among the present slots.
    #[inline]
    fn span(&self, r: usize) -> Range<usize> {
        let cells = self.used();
        let start = if r == 0 { 0 } else { cells[r - 1].index() };
        let k = self.run_count();
        k + start..k + cells[r].index()
    }

    /// The run of `slot`, if it has one.
    #[inline]
    fn run(&self, slot: usize) -> Option<&[NodeId]> {
        let bit = bit_of(slot);
        (self.present & bit != 0).then(|| &self.used()[self.span(rank(self.present, bit))])
    }

    /// Where `w` sits in the run of `slot` (`Ok`) or would be inserted
    /// (`Err`), as an index into [`used`](Self::used); `None` when
    /// `slot` has no run.
    fn position(&self, slot: usize, w: NodeId) -> Option<Result<usize, usize>> {
        let bit = bit_of(slot);
        (self.present & bit != 0).then(|| {
            let span = self.span(rank(self.present, bit));
            let base = span.start;
            match self.used()[span].binary_search(&w) {
                Ok(i) => Ok(base + i),
                Err(i) => Err(base + i),
            }
        })
    }

    /// Sets the number of cells in use to `new_len` and returns the
    /// page's cells for writing (the old ones kept, at least `new_len`
    /// long): in place when this page is the `Arc`'s only holder and
    /// has the room, otherwise in a fresh allocation of its own —
    /// twice the old length when growing.
    fn resize(&mut self, new_len: usize) -> &mut [NodeId] {
        let (start, len) = (self.start as usize, self.len as usize);
        let in_place =
            Arc::get_mut(&mut self.cells).is_some_and(|cells| start + new_len <= cells.len());
        if !in_place {
            let capacity = if new_len > len {
                new_len.max(2 * len)
            } else {
                len
            };
            let spare = std::iter::repeat_n(NodeId(0), capacity - len);
            self.cells = self.used().iter().copied().chain(spare).collect();
            self.start = 0;
        }
        self.len = new_len as u32;
        let cells = Arc::get_mut(&mut self.cells).expect("sole holder: checked or just copied");
        &mut cells[self.start as usize..]
    }

    /// Opens a gap of `n` cells at `at`.
    fn open(&mut self, at: usize, n: usize) -> &mut [NodeId] {
        let len = self.len as usize;
        let cells = self.resize(len + n);
        cells.copy_within(at..len, at + n);
        cells
    }

    /// Closes the `n` cells at `at`.
    fn close(&mut self, at: usize, n: usize) -> &mut [NodeId] {
        let len = self.len as usize;
        let cells = self.resize(len - n);
        cells.copy_within(at + n..len, at);
        cells
    }

    /// Inserts target `w` at cell `at` (from [`position`](Self::position)).
    fn insert_target_at(&mut self, slot: usize, at: usize, w: NodeId) {
        let (r, k) = (rank(self.present, bit_of(slot)), self.run_count());
        let cells = self.open(at, 1);
        cells[at] = w;
        shift_ends(&mut cells[r..k], 1);
    }

    /// Removes the target at cell `at`.
    fn remove_target_at(&mut self, slot: usize, at: usize) {
        let (r, k) = (rank(self.present, bit_of(slot)), self.run_count());
        let cells = self.close(at, 1);
        shift_ends(&mut cells[r..k], -1);
    }

    /// Gives `slot` (which has none) the run `targets`.
    fn insert_run(&mut self, slot: usize, targets: &[NodeId]) {
        let bit = bit_of(slot);
        debug_assert!(self.present & bit == 0, "slot {slot} already has a run");
        let (r, k, m) = (rank(self.present, bit), self.run_count(), targets.len());
        let start = if r == 0 {
            0
        } else {
            self.used()[r - 1].index()
        };
        self.open(k + start, m)[k + start..][..m].copy_from_slice(targets);
        let cells = self.open(r, 1);
        cells[r] = NodeId((start + m) as u32);
        shift_ends(&mut cells[r + 1..k + 1], m as i64);
        self.present |= bit;
    }

    /// Drops the run of `slot` (which has one).
    fn remove_run(&mut self, slot: usize) {
        let bit = bit_of(slot);
        let (r, k) = (rank(self.present, bit), self.run_count());
        let span = self.span(r);
        self.close(span.start, span.len());
        let cells = self.close(r, 1);
        shift_ends(&mut cells[r..k - 1], -(span.len() as i64));
        self.present &= !bit;
    }
}

/// One word of the page directory: which of 64 consecutive pages exist,
/// and how many pages precede them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DirWord {
    mask: u64,
    rank: u32,
}

/// Per-pattern-edge candidate adjacency: for every candidate of the
/// edge's source variable, the admitted neighbors that survive in the
/// target candidate set.
///
/// Runs are keyed by the source candidate's **node id** (a candidate's
/// rank in its set shifts whenever the set changes; its id never does)
/// and stored in 64-node pages behind [`Arc`]s. Only pages holding a
/// run exist; a two-level bitmap directory (presence mask + popcount
/// rank, once over pages and once over the slots of a page) finds a
/// run in a handful of loads. A repair writes the touched pages — in
/// place when no reader holds them, in a copy of that page alone when
/// one still holds the previous snapshot — and every other page is
/// shared between consecutive snapshots. Two values are equal iff they
/// hold the same runs: a page without runs is never kept.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeCandidates {
    /// One word per 64 pages of the graph's node-id space.
    dir: Vec<DirWord>,
    /// The existing pages, ascending by page number.
    pages: Vec<RunPage>,
}

impl EdgeCandidates {
    /// Index into `pages` of the page covering `u`, if it exists.
    #[inline]
    fn page_index(&self, u: NodeId) -> Option<usize> {
        let p = u.index() >> PAGE_SHIFT;
        let d = self.dir.get(p >> 6)?;
        let bit = bit_of(p);
        (d.mask & bit != 0).then(|| d.rank as usize + rank(d.mask, bit))
    }

    /// The admitted target run of source candidate `u`, ascending by
    /// node id; empty when `u` is not a candidate.
    #[inline]
    pub fn run(&self, u: NodeId) -> &[NodeId] {
        self.page_index(u)
            .and_then(|i| self.pages[i].run(u.index() & PAGE_MASK))
            .unwrap_or(&[])
    }

    /// True if `u` has a run here — exactly when `u` simulates the
    /// edge's source variable: a member has support, hence a run, on
    /// every pattern edge at its variable.
    #[inline]
    pub(crate) fn has_run(&self, u: NodeId) -> bool {
        self.page_index(u)
            .is_some_and(|i| self.pages[i].present & bit_of(u.index()) != 0)
    }

    /// Every `(source candidate, run)`, ascending by candidate.
    pub fn runs(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        let page_numbers = self
            .dir
            .iter()
            .enumerate()
            .flat_map(|(w, d)| bits(d.mask).map(move |b| w << 6 | b));
        page_numbers.zip(&self.pages).flat_map(|(p, page)| {
            bits(page.present).enumerate().map(move |(r, slot)| {
                let u = NodeId((p << PAGE_SHIFT | slot) as u32);
                (u, &page.used()[page.span(r)])
            })
        })
    }

    /// True if `self` and `other` hold the page covering `u` as the
    /// same allocation — what consecutive snapshots of a repaired space
    /// do for every page the repair did not edit. Public for
    /// `prop_incremental`'s page-sharing oracle.
    pub fn shares_page(&self, other: &EdgeCandidates, u: NodeId) -> bool {
        match (self.page_index(u), other.page_index(u)) {
            (Some(i), Some(j)) => {
                let (a, b) = (&self.pages[i], &other.pages[j]);
                Arc::ptr_eq(&a.cells, &b.cells) && a.start == b.start
            }
            _ => false,
        }
    }

    /// Payload cells held: one per run plus one per target.
    fn cells(&self) -> usize {
        self.pages.iter().map(|p| p.len as usize).sum()
    }

    /// Extends the directory to a graph of `nnodes` nodes (node ids are
    /// stable, so existing pages keep their numbers).
    pub(crate) fn grow(&mut self, nnodes: usize) {
        let words = nnodes.div_ceil(1 << PAGE_SHIFT).div_ceil(64);
        let rank = self.pages.len() as u32;
        self.dir.resize(words, DirWord { mask: 0, rank });
    }

    /// The page index of `u`'s run and where `w` sits in it (see
    /// [`RunPage::position`]); `None` when `u` has no run.
    fn locate(&self, u: NodeId, w: NodeId) -> Option<(usize, Result<usize, usize>)> {
        let i = self.page_index(u)?;
        Some((i, self.pages[i].position(u.index() & PAGE_MASK, w)?))
    }

    /// Adds `w` to the run of `u`. No-op (returning false) when `u` has
    /// no run or the run already holds `w`.
    pub(crate) fn insert_target(&mut self, u: NodeId, w: NodeId) -> bool {
        let Some((i, Err(at))) = self.locate(u, w) else {
            return false;
        };
        self.pages[i].insert_target_at(u.index() & PAGE_MASK, at, w);
        true
    }

    /// Drops `w` from the run of `u`. No-op (returning false) when `u`
    /// has no run or the run does not hold `w`.
    pub(crate) fn remove_target(&mut self, u: NodeId, w: NodeId) -> bool {
        let Some((i, Ok(at))) = self.locate(u, w) else {
            return false;
        };
        self.pages[i].remove_target_at(u.index() & PAGE_MASK, at);
        true
    }

    /// Recomputes every directory word's rank from the masks.
    fn renumber(&mut self) {
        let mut rank = 0u32;
        for d in &mut self.dir {
            d.rank = rank;
            rank += d.mask.count_ones();
        }
    }

    /// Gives `u`, which has no run yet, the run `targets` (ascending),
    /// creating its page if need be.
    pub(crate) fn insert_run(&mut self, u: NodeId, targets: &[NodeId]) {
        let p = u.index() >> PAGE_SHIFT;
        let bit = bit_of(p);
        let d = &mut self.dir[p >> 6];
        let i = d.rank as usize + rank(d.mask, bit);
        if d.mask & bit == 0 {
            d.mask |= bit;
            self.pages.insert(i, RunPage::default());
            self.renumber();
        }
        self.pages[i].insert_run(u.index() & PAGE_MASK, targets);
    }

    /// Drops the run of `u` (no-op when it has none), and its page with
    /// the page's last run.
    pub(crate) fn remove_run(&mut self, u: NodeId) {
        let slot = u.index() & PAGE_MASK;
        let Some(i) = self.page_index(u) else {
            return;
        };
        let present = self.pages[i].present;
        if present == bit_of(slot) {
            let p = u.index() >> PAGE_SHIFT;
            self.pages.remove(i);
            self.dir[p >> 6].mask &= !bit_of(p);
            self.renumber();
        } else if present & bit_of(slot) != 0 {
            self.pages[i].remove_run(slot);
        }
    }
}

/// The simulation relation, packaged for reuse: per pattern variable
/// the sorted set of data nodes simulating it, plus per pattern edge
/// the candidate-to-candidate adjacency (both directions).
///
/// This is the pruned search space the exact matcher refines: root
/// pools come from [`CandidateSpace::of`], expansion pools from
/// intersecting [`EdgeCandidates`] runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSpace {
    /// `sets[v] = sim(v)`, sorted ascending, indexed by variable id.
    pub sets: Vec<Vec<NodeId>>,
    /// Forward adjacency per pattern edge `(src → dst)`, indexed like
    /// `Pattern::edges()`.
    pub forward: Vec<EdgeCandidates>,
    /// Reverse adjacency per pattern edge (`dst → src`).
    pub reverse: Vec<EdgeCandidates>,
}

impl CandidateSpace {
    /// Candidate set of a variable.
    pub fn of(&self, v: VarId) -> &[NodeId] {
        &self.sets[v.index()]
    }

    /// True if some variable has an empty simulation set — then the
    /// pattern has no match at all (in the searched scope).
    pub fn is_empty_anywhere(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// Total size of the relation (the paper's partial-match size
    /// estimate).
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The adjacency of pattern edge `ei` read in direction `dir` — runs
    /// owned by the candidates of the variable at the near end — and
    /// its mirror (the same edge read from the far end), for editing a
    /// run together with its mirrored entries.
    pub(crate) fn sides_mut(
        &mut self,
        ei: usize,
        dir: Direction,
    ) -> (&mut EdgeCandidates, &mut EdgeCandidates) {
        match dir {
            Direction::Out => (&mut self.forward[ei], &mut self.reverse[ei]),
            Direction::In => (&mut self.reverse[ei], &mut self.forward[ei]),
        }
    }

    /// Approximate heap bytes held by the relation — candidate sets
    /// plus, per edge direction, its payload counted as a flat CSR
    /// would hold it (one offset per run and a closing one, one cell
    /// per target). The byte-budget size key of
    /// [`crate::registry::ClassRegistry`]; an estimate (page headers,
    /// the directory and spare capacity are ignored), which is all
    /// eviction needs. Walks every page.
    pub fn approx_bytes(&self) -> usize {
        let cell = std::mem::size_of::<NodeId>();
        let sets: usize = self.sets.iter().map(|s| s.len() * cell).sum();
        let adj: usize = self
            .forward
            .iter()
            .chain(&self.reverse)
            .map(|e| (e.cells() + 1) * cell)
            .sum();
        sets + adj
    }
}

/// How a variable's seed turns a node id into the node's rank in the
/// seed — fixed by the call's scope and the variable's label, so every
/// lookup is O(1) except within a scope.
#[derive(Clone, Copy)]
enum RankBy {
    /// Unscoped, labelled: the seed is the label's extent, and a node
    /// carrying the label sits at [`Graph::extent_rank`].
    Extent(Sym),
    /// Unscoped wildcard: the seed is the id range `0..|V|`, and a
    /// node's rank is its id.
    Id,
    /// Scoped: the seed is the scope narrowed by label, binary-searched
    /// (no detection path scopes a simulation; scopes are small node
    /// sets).
    Search,
}

/// Where a seed entry stands in the fixpoint — one byte per entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flag {
    /// Still simulates the variable.
    Alive,
    /// Left without support by the seeding; its removal is yet to
    /// reach its neighbors.
    Pending,
    /// Removed: its neighbors have lost its support, or will once the
    /// stack gets to it.
    Gone,
}

/// One variable's seed — its candidates, ascending, and how it ranks a
/// node — and where its [`Flag`]s sit in the [`SimScratch`].
struct Seed<'g> {
    /// The candidates, listed — except under [`RankBy::Id`], where the
    /// seed is the id range `0..len` and this is empty.
    listed: Cow<'g, [NodeId]>,
    rank_by: RankBy,
    /// The entry of rank `r` stands at `SimScratch::flags[at + r]`.
    at: usize,
    len: usize,
}

impl Seed<'_> {
    /// The node of rank `r` in the seed.
    #[inline]
    fn node(&self, r: usize) -> NodeId {
        match self.rank_by {
            RankBy::Id => NodeId(r as u32),
            _ => self.listed[r],
        }
    }

    /// The seed's nodes, ascending: the id range or the list, one of
    /// them empty, so neither pays a dispatch per node.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let ids = match self.rank_by {
            RankBy::Id => 0..self.len as u32,
            _ => 0..0,
        };
        ids.map(NodeId).chain(self.listed.iter().copied())
    }

    /// Where the seed's flags sit in the workspace.
    #[inline]
    fn flags(&self) -> Range<usize> {
        self.at..self.at + self.len
    }

    /// The rank of `w` in the seed, if `w` is there.
    #[inline]
    fn rank(&self, g: &Graph, w: NodeId) -> Option<usize> {
        match self.rank_by {
            RankBy::Extent(s) => (g.label(w) == s).then(|| g.extent_rank(w)),
            RankBy::Id => Some(w.index()),
            RankBy::Search => self.listed.binary_search(&w).ok(),
        }
    }

    /// Is `w` in the seed? Before any removal that is membership, and
    /// for an unscoped labelled variable it is one label compare.
    #[inline]
    fn contains(&self, g: &Graph, w: NodeId) -> bool {
        match self.rank_by {
            RankBy::Extent(s) => g.label(w) == s,
            _ => self.rank(g, w).is_some(),
        }
    }

    /// The nodes still simulating the variable, ascending, given the
    /// seed's flags. The set is allocated once, at the capacity a
    /// push-by-push collect ends at (doubling from four): that spare
    /// room is what the first repairs of the set grow into.
    fn survivors(&self, member: &[Flag]) -> Vec<NodeId> {
        let alive = member.iter().filter(|&&m| m == Flag::Alive).count();
        let capacity = match alive {
            0 => 0,
            n => n.next_power_of_two().max(4),
        };
        let mut set = Vec::with_capacity(capacity);
        let flagged = self.nodes().zip(member);
        set.extend(flagged.filter(|(_, &m)| m == Flag::Alive).map(|(u, _)| u));
        set
    }
}

/// The from-scratch simulation's working state, kept between calls:
/// every seed's flags and every edge end's support counters, indexed by
/// **rank in the seed**, the stack of removals still to propagate and
/// the harvest's page buffer. Each call clears and refills these
/// buffers and returns none of them, so the [`CandidateSpace`] it
/// builds is the same as from a fresh workspace; a workspace grows only
/// when a call needs more room than any earlier one. What a call fills
/// is sized by its seeds (a variable's label extent, or the scope), the
/// deepest cascade and the longest edge direction's runs — never by the
/// graph.
///
/// Opaque: [`dual_simulation`] takes a fresh one per call, and a
/// [`ClassRegistry`] keeps one for every class it simulates.
///
/// [`ClassRegistry`]: crate::ClassRegistry
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Every variable's seed flags, back to back in variable order:
    /// `flags[seed(v).at + r]` is where `seed(v)[r]` stands.
    flags: Vec<Flag>,
    /// Every edge end's support counters, back to back: per pattern
    /// edge `e`, first `fwd(e)[r]` — admitted out-edges of
    /// `seed(src(e))[r]` into `sim(dst(e))`, maintained while it
    /// simulates `src(e)` — then `bwd(e)[r]`, admitted in-edges of
    /// `seed(dst(e))[r]` from `sim(src(e))`, maintained while it
    /// simulates `dst(e)`.
    counts: Vec<u32>,
    /// `counts[ends[k]..ends[k + 1]]` is edge end `k`: `fwd(e)` at
    /// `k = 2e`, `bwd(e)` at `k = 2e + 1`.
    ends: Vec<usize>,
    /// The flag positions of entries a propagation removed, awaiting
    /// their own propagation.
    stack: Vec<u32>,
    /// One edge direction's pages at a time, before they are copied
    /// into the direction's slab.
    cells: Vec<NodeId>,
}

impl SimScratch {
    /// Where in `counts` the support of pattern edge `ei`'s near end
    /// sits, read in direction `dir`: `fwd` for `Out`, `bwd` for `In`.
    #[inline]
    fn support(&self, ei: usize, dir: Direction) -> Range<usize> {
        let k = 2 * ei + usize::from(matches!(dir, Direction::In));
        self.ends[k]..self.ends[k + 1]
    }
}

/// One from-scratch simulation: the per-variable seeds over a borrowed
/// [`SimScratch`], which holds their flags and counters (see there).
/// Built by `seeded`, run to fixpoint by `drain`, read once by
/// `harvest_space`; a repair ([`crate::incremental`]) reads membership
/// and support off the [`CandidateSpace`] instead.
///
/// A neighbor `w` is ranked in `seed(v)` one of three ways ([`RankBy`]):
/// for an unscoped labelled `v`, `w` must carry the label and sits at
/// `g.extent_rank(w)`; for an unscoped wildcard `v`, at `w.index()`;
/// within a scope, by binary search in the seed.
struct SimCore<'g> {
    q: &'g Pattern,
    g: &'g Graph,
    /// `seeds[v]`, indexed by variable id.
    seeds: Vec<Seed<'g>>,
    ws: &'g mut SimScratch,
}

impl SimCore<'_> {
    /// `u` left the simulation of the near end of pattern edge `ei`,
    /// read in direction `dir`: every admitted edge from `u` to a
    /// surviving candidate of the far end takes one unit of that
    /// candidate's support on the edge, and a candidate left with none
    /// is removed onto the stack. The hot loop of the fixpoint, so it
    /// runs one copy per rank case and its body carries no dispatch.
    fn withdraw(&mut self, u: NodeId, ei: usize, dir: Direction) {
        let (g, e) = (self.g, self.q.edges()[ei]);
        let far = match dir {
            Direction::Out => e.dst,
            Direction::In => e.src,
        };
        let seed = &self.seeds[far.index()];
        let ws = &mut *self.ws;
        let support = ws.support(ei, dir.flip());
        let (member, support) = (&mut ws.flags[seed.flags()], &mut ws.counts[support]);
        let adj = admitted(g, u, e.label, dir);
        let (stack, at) = (&mut ws.stack, seed.at);
        let removed = |r: usize| stack.push((at + r) as u32);
        match seed.rank_by {
            RankBy::Extent(s) => {
                let rank = |w| (g.label(w) == s).then(|| g.extent_rank(w));
                withdraw_ranked(adj, rank, member, support, removed)
            }
            RankBy::Id => withdraw_ranked(adj, |w| Some(w.index()), member, support, removed),
            RankBy::Search => {
                let rank = |w| seed.listed.binary_search(&w).ok();
                withdraw_ranked(adj, rank, member, support, removed)
            }
        }
    }

    /// Propagates the removals to fixpoint: one ascending scan of each
    /// variable's flags removes every pending candidate, and after each
    /// one drains the stack of the cascade it set off.
    fn drain(&mut self) {
        for v in self.q.vars() {
            let at = self.seeds[v.index()].at;
            for i in self.seeds[v.index()].flags() {
                let m = &mut self.ws.flags[i];
                if *m == Flag::Pending {
                    *m = Flag::Gone;
                    self.propagate(v, i - at);
                    while let Some(i) = self.ws.stack.pop() {
                        // The seed whose flags hold position `i`.
                        let i = i as usize;
                        let w = self.seeds.partition_point(|s| s.at <= i) - 1;
                        self.propagate(VarId(w as u32), i - self.seeds[w].at);
                    }
                }
            }
        }
    }

    /// `seed(v)[r]` was removed: touches only its admitted adjacency
    /// per incident pattern edge, taking one unit of support from each
    /// surviving neighbor and stacking a neighbor left with none.
    fn propagate(&mut self, v: VarId, r: usize) {
        let q = self.q;
        let u = self.seeds[v.index()].node(r);
        for (ei, e) in q.edges().iter().enumerate() {
            if e.src == v {
                // u left sim(src): admitted edges u → w lose one
                // unit of `bwd` support at w.
                self.withdraw(u, ei, Direction::Out);
            }
            if e.dst == v {
                // u left sim(dst): admitted edges t → u lose one
                // unit of `fwd` support at t.
                self.withdraw(u, ei, Direction::In);
            }
        }
    }

    /// Every variable's final candidate set, ascending.
    fn survivors(&self) -> Vec<Vec<NodeId>> {
        let member = |s: &Seed| s.survivors(&self.ws.flags[s.flags()]);
        self.seeds.iter().map(member).collect()
    }
}

/// [`SimCore::withdraw`] under one rank function: takes one unit of
/// `support` (indexed by rank) from the surviving endpoint of every
/// edge in `adj`, and removes — flags, then reports to `removed` by
/// rank — each candidate left with none.
#[inline]
fn withdraw_ranked(
    adj: &[Adj],
    rank: impl Fn(NodeId) -> Option<usize>,
    member: &mut [Flag],
    support: &mut [u32],
    mut removed: impl FnMut(usize),
) {
    for a in adj {
        let Some(r) = rank(a.node).filter(|&r| member[r] == Flag::Alive) else {
            continue;
        };
        let c = &mut support[r];
        debug_assert!(*c > 0, "support underflow at {:?}", a.node);
        *c -= 1;
        if *c == 0 {
            member[r] = Flag::Gone;
            removed(r);
        }
    }
}

/// Which way a pattern edge is read from one of its endpoints.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Out,
    In,
}

impl Direction {
    pub(crate) fn flip(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// The admitted adjacency of `u` in direction `dir` for a pattern label.
#[inline]
pub(crate) fn admitted(g: &Graph, u: NodeId, label: PatLabel, dir: Direction) -> &[Adj] {
    match (dir, label) {
        (Direction::Out, PatLabel::Sym(s)) => g.neighbors_labeled(u, s),
        (Direction::Out, PatLabel::Wildcard) => g.out_slice(u),
        (Direction::In, PatLabel::Sym(s)) => g.in_neighbors_labeled(u, s),
        (Direction::In, PatLabel::Wildcard) => g.in_slice(u),
    }
}

/// The seed of one variable: its label extent narrowed by the optional
/// scope (ascending — extents and scopes both are), borrowed where it
/// is an extent or a scope as is, and no list at all for an unscoped
/// wildcard. Its flags will sit at `at` in the workspace.
fn seed<'g>(
    q: &Pattern,
    g: &'g Graph,
    scope: Option<&'g NodeSet>,
    v: VarId,
    at: usize,
) -> Seed<'g> {
    let (listed, rank_by) = match (q.label(v), scope) {
        (PatLabel::Sym(s), None) => (Cow::Borrowed(g.extent(s)), RankBy::Extent(s)),
        (PatLabel::Wildcard, None) => (Cow::Borrowed(&[][..]), RankBy::Id),
        (PatLabel::Sym(s), Some(r)) => {
            let extent = g.extent(s);
            let narrowed = if r.len() < extent.len() {
                r.iter().filter(|&u| g.label(u) == s).collect()
            } else {
                extent.iter().copied().filter(|&u| r.contains(u)).collect()
            };
            (Cow::Owned(narrowed), RankBy::Search)
        }
        (PatLabel::Wildcard, Some(r)) => (Cow::Borrowed(r.as_slice()), RankBy::Search),
    };
    let len = match rank_by {
        RankBy::Id => g.node_count(),
        _ => listed.len(),
    };
    Seed {
        listed,
        rank_by,
        at,
        len,
    }
}

/// Runs the fixpoint from the seeds in `ws`, returning the final core
/// state.
fn simulate_core<'g>(
    q: &'g Pattern,
    g: &'g Graph,
    scope: Option<&'g NodeSet>,
    ws: &'g mut SimScratch,
) -> SimCore<'g> {
    let mut core = seeded(q, g, scope, ws);
    // Phase 2: propagate removals to fixpoint.
    core.drain();
    core
}

/// Phase 1 of the fixpoint: the seeds and their support counters, with
/// every candidate the seeding leaves without support flagged pending.
/// Clears and refills `ws`; nothing of an earlier call survives.
fn seeded<'g>(
    q: &'g Pattern,
    g: &'g Graph,
    scope: Option<&'g NodeSet>,
    ws: &'g mut SimScratch,
) -> SimCore<'g> {
    let mut entries = 0;
    let seeds: Vec<Seed<'g>> = q
        .vars()
        .map(|v| {
            let s = seed(q, g, scope, v, entries);
            entries += s.len;
            s
        })
        .collect();
    assert!(u32::try_from(entries).is_ok(), "flag positions are u32");
    // Each buffer grows to exactly what this call needs, if it is short.
    ws.flags.clear();
    ws.flags.reserve_exact(entries);
    ws.flags.resize(entries, Flag::Alive);
    ws.stack.clear();

    // Counters against the full seeds. A candidate left at zero is
    // only flagged pending here, so every later decrement is exact.
    let counters: usize = (q.edges().iter())
        .map(|e| seeds[e.src.index()].len + seeds[e.dst.index()].len)
        .sum();
    ws.counts.clear();
    ws.counts.reserve_exact(counters);
    ws.ends.clear();
    ws.ends.push(0);
    for e in q.edges() {
        for (near, far, dir) in [
            (e.src, e.dst, Direction::Out),
            (e.dst, e.src, Direction::In),
        ] {
            let (near, far) = (&seeds[near.index()], &seeds[far.index()]);
            let start = ws.counts.len();
            ws.counts.extend(near.nodes().map(|u| {
                let adj = admitted(g, u, e.label, dir).iter();
                adj.filter(|a| far.contains(g, a.node)).count() as u32
            }));
            let member = &mut ws.flags[near.flags()];
            for (m, &c) in member.iter_mut().zip(&ws.counts[start..]) {
                if c == 0 {
                    *m = Flag::Pending;
                }
            }
            ws.ends.push(ws.counts.len());
        }
    }
    SimCore { q, g, seeds, ws }
}

/// Builds the per-edge candidate adjacency (both directions) over the
/// final sets and packages the [`CandidateSpace`] — the from-scratch
/// builder; a repair edits runs instead (see [`crate::incremental`]).
fn harvest_space(core: &mut SimCore) -> CandidateSpace {
    let sets = core.survivors();
    let nedges = core.q.edge_count();
    let mut forward = Vec::with_capacity(nedges);
    let mut reverse = Vec::with_capacity(nedges);
    // The page buffer leaves the workspace while the builder reads the
    // rest of it.
    let mut cells = std::mem::take(&mut core.ws.cells);
    for ei in 0..nedges {
        forward.push(edge_adjacency(core, &sets, ei, Direction::Out, &mut cells));
        reverse.push(edge_adjacency(core, &sets, ei, Direction::In, &mut cells));
    }
    core.ws.cells = cells;
    CandidateSpace {
        sets,
        forward,
        reverse,
    }
}

/// Computes the maximal dual simulation of `q` in `g`, optionally
/// restricted to a node set (fragment-/block-local simulation), and
/// packages it as a [`CandidateSpace`] — [`dual_simulation_with`] in a
/// workspace of its own.
pub fn dual_simulation(q: &Pattern, g: &Graph, scope: Option<&NodeSet>) -> CandidateSpace {
    dual_simulation_with(q, g, scope, &mut SimScratch::default())
}

/// [`dual_simulation`] in the reused workspace `ws`: the same space,
/// with only the space itself allocated once `ws` has held a call at
/// least as large.
pub fn dual_simulation_with(
    q: &Pattern,
    g: &Graph,
    scope: Option<&NodeSet>,
    ws: &mut SimScratch,
) -> CandidateSpace {
    harvest_space(&mut simulate_core(q, g, scope, ws))
}

/// Appends to `out` the admitted neighbors of `u` that `survives`
/// accepts (membership in the target set), ascending, asking once per
/// admitted edge. Labeled runs arrive sorted by node; wildcard runs
/// span labels and are re-sorted and deduplicated.
pub(crate) fn surviving_targets(
    g: &Graph,
    u: NodeId,
    mut survives: impl FnMut(NodeId) -> bool,
    label: PatLabel,
    dir: Direction,
    out: &mut Vec<NodeId>,
) {
    let start = out.len();
    let neighbors = admitted(g, u, label, dir).iter().map(|a| a.node);
    out.extend(neighbors.filter(|&w| survives(w)));
    if matches!(label, PatLabel::Wildcard) {
        sort_dedup_tail(out, start);
    }
}

/// Builds the run pages of pattern edge `ei` read in direction `dir`:
/// one run of admitted, surviving neighbors per candidate in the near
/// end's final set (`sets`, indexed by variable). The pages are
/// assembled back to back in the workspace's buffer `cells` — reserved
/// up front from the fixpoint's support counters on this edge (a
/// candidate's run length, an upper bound where a wildcard run drops
/// parallel edges) — and then share one allocation of exactly their
/// size; `cells` itself is kept for the next direction and the next
/// call.
fn edge_adjacency(
    core: &SimCore,
    sets: &[Vec<NodeId>],
    ei: usize,
    dir: Direction,
    cells: &mut Vec<NodeId>,
) -> EdgeCandidates {
    let (g, e) = (core.g, core.q.edges()[ei]);
    let (near, far) = match dir {
        Direction::Out => (e.src, e.dst),
        Direction::In => (e.dst, e.src),
    };
    let support = &core.ws.counts[core.ws.support(ei, dir)];
    let (sources, near, far) = (
        &sets[near.index()],
        &core.seeds[near.index()],
        &core.seeds[far.index()],
    );
    let page_of = |u: &NodeId| u.index() >> PAGE_SHIFT;
    let mut adj = EdgeCandidates::default();
    adj.grow(g.node_count());
    if sources.is_empty() {
        return adj;
    }
    let npages = sources.chunk_by(|a, b| page_of(a) == page_of(b)).count();
    adj.pages.reserve_exact(npages);
    let rank = |u: NodeId| near.rank(g, u).expect("a survivor is in its seed");
    let targets: usize = sources.iter().map(|&u| support[rank(u)] as usize).sum();
    cells.clear();
    cells.reserve_exact(sources.len() + targets);
    // One copy of the page loop per rank case of the far end, so the
    // survival test of a neighbor carries no dispatch.
    let (label, member) = (e.label, &core.ws.flags[far.flags()]);
    let alive = |r: usize| member[r] == Flag::Alive;
    match far.rank_by {
        RankBy::Extent(s) => fill_pages(&mut adj, cells, g, sources, label, dir, |w| {
            g.label(w) == s && alive(g.extent_rank(w))
        }),
        RankBy::Id => fill_pages(&mut adj, cells, g, sources, label, dir, |w| {
            alive(w.index())
        }),
        RankBy::Search => fill_pages(&mut adj, cells, g, sources, label, dir, |w| {
            far.listed.binary_search(&w).is_ok_and(alive)
        }),
    }
    assert!(u32::try_from(cells.len()).is_ok(), "page offsets are u32");
    let slab: Arc<[NodeId]> = Arc::from(&cells[..]);
    for page in &mut adj.pages {
        page.cells = Arc::clone(&slab);
    }
    adj.renumber();
    adj
}

/// Appends one page per 64-id group of `sources` to `adj`, its cells to
/// `cells`: each source's run holds its admitted neighbors (by `label`
/// in direction `dir`) that `survives` accepts.
fn fill_pages(
    adj: &mut EdgeCandidates,
    cells: &mut Vec<NodeId>,
    g: &Graph,
    sources: &[NodeId],
    label: PatLabel,
    dir: Direction,
    survives: impl Fn(NodeId) -> bool,
) {
    let page_of = |u: &NodeId| u.index() >> PAGE_SHIFT;
    for group in sources.chunk_by(|a, b| page_of(a) == page_of(b)) {
        let (start, k) = (cells.len(), group.len());
        let mut present = 0u64;
        cells.resize(start + k, NodeId(0));
        for (r, &u) in group.iter().enumerate() {
            present |= bit_of(u.index());
            surviving_targets(g, u, &survives, label, dir, cells);
            cells[start + r] = NodeId((cells.len() - start - k) as u32);
        }
        let p = page_of(&group[0]);
        adj.dir[p >> 6].mask |= bit_of(p);
        adj.pages.push(RunPage {
            present,
            start: start as u32,
            len: (cells.len() - start) as u32,
            cells: Arc::default(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_pattern::PatternBuilder;

    fn chain_graph() -> Graph {
        // a1 -> b1 -> c1 ; a2 -> b2 (no c); c_orphan
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("a");
        let b1 = b.add_node_labeled("b");
        let c1 = b.add_node_labeled("c");
        let a2 = b.add_node_labeled("a");
        let b2 = b.add_node_labeled("b");
        b.add_node_labeled("c");
        b.add_edge_labeled(a1, b1, "e");
        b.add_edge_labeled(b1, c1, "e");
        b.add_edge_labeled(a2, b2, "e");
        b.freeze()
    }

    fn chain_pattern(g: &Graph) -> Pattern {
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let z = b.node("z", "c");
        b.edge(x, y, "e");
        b.edge(y, z, "e");
        b.build()
    }

    #[test]
    fn simulation_prunes_dead_branches() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        // Only the a1->b1->c1 chain survives: a2/b2 lack the c
        // continuation, orphan c lacks the incoming b.
        assert_eq!(sim.of(VarId(0)), &[NodeId(0)]);
        assert_eq!(sim.of(VarId(1)), &[NodeId(1)]);
        assert_eq!(sim.of(VarId(2)), &[NodeId(2)]);
        assert!(!sim.is_empty_anywhere());
        assert_eq!(sim.total_size(), 3);
    }

    #[test]
    fn edge_candidate_runs_follow_the_relation() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        // Edge 0 is x -> y: candidate a1 reaches exactly b1.
        assert_eq!(sim.forward[0].run(NodeId(0)), &[NodeId(1)]);
        // Reverse of edge 1 (y -> z): candidate c1 is reached from b1.
        assert_eq!(sim.reverse[1].run(NodeId(2)), &[NodeId(1)]);
        // A node outside the source set has no run.
        assert!(sim.forward[0].run(NodeId(3)).is_empty());
    }

    #[test]
    fn simulation_superset_of_matches() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        let opts = crate::types::MatchOptions::unrestricted();
        let mut seen = 0;
        crate::api::for_each_match(&q, &g, &opts, &mut |m| {
            seen += 1;
            assert!(q.vars().all(|v| sim.of(v).contains(&m[v.index()])));
            crate::types::Flow::Continue
        });
        assert!(seen > 0, "premise: the chain pattern matches");
    }

    #[test]
    fn empty_simulation_means_no_match() {
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        gb.add_node_labeled("a");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "a");
        let y = b.node("y", "zzz");
        b.edge(x, y, "e");
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert!(sim.is_empty_anywhere());
        let opts = crate::types::MatchOptions::unrestricted();
        assert_eq!(crate::api::count_matches(&q, &g, &opts), 0);
    }

    #[test]
    fn scoped_simulation_restricts() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        // Scope excluding c1 kills the whole chain.
        let scope = NodeSet::from_vec(vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
        let sim = dual_simulation(&q, &g, Some(&scope));
        assert!(sim.is_empty_anywhere());
    }

    #[test]
    fn wildcard_simulation_covers_everything_cycle() {
        // A 3-cycle with wildcard pattern edge x->y: every node simulates.
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..3).map(|_| gb.add_node_labeled("v")).collect();
        for i in 0..3 {
            gb.add_edge_labeled(ns[i], ns[(i + 1) % 3], "e");
        }
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert_eq!(sim.of(x).len(), 3);
        assert_eq!(sim.of(y).len(), 3);
    }

    /// A directed path of `n` `v`-nodes under `e`, and the 2-cycle
    /// `x -e-> y -e-> x` over `v`-variables or wildcards.
    fn path_and_two_cycle(n: usize, wildcard: bool) -> (Graph, Pattern) {
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..n).map(|_| gb.add_node_labeled("v")).collect();
        for w in ns.windows(2) {
            gb.add_edge_labeled(w[0], w[1], "e");
        }
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let (x, y) = match wildcard {
            true => (b.wildcard_node("x"), b.wildcard_node("y")),
            false => (b.node("x", "v"), b.node("y", "v")),
        };
        b.edge(x, y, "e");
        b.edge(y, x, "e");
        let q = b.build();
        (g, q)
    }

    /// No node of a path lies on a cycle, so the 2-cycle empties it —
    /// but the seeding finds only the two ends of the path without
    /// support, under each variable. Every other candidate leaves
    /// through the stack, in two cascades that run the whole path.
    #[test]
    fn a_path_empties_through_the_stack() {
        const N: usize = 2000;
        for wildcard in [false, true] {
            let (g, q) = path_and_two_cycle(N, wildcard);
            let mut ws = SimScratch::default();
            let mut core = seeded(&q, &g, None, &mut ws);
            let pending = |core: &SimCore| -> Vec<(usize, NodeId)> {
                let flagged = core.seeds.iter().enumerate().flat_map(|(v, seed)| {
                    let member = &core.ws.flags[seed.flags()];
                    seed.nodes().zip(member).map(move |(u, &m)| (v, u, m))
                });
                flagged
                    .filter(|&(_, _, m)| m == Flag::Pending)
                    .map(|(v, u, _)| (v, u))
                    .collect()
            };
            let ends = [NodeId(0), NodeId(N as u32 - 1)];
            let want: Vec<_> = (0..2).flat_map(|v| ends.map(|u| (v, u))).collect();
            assert_eq!(pending(&core), want, "wildcard: {wildcard}");
            core.drain();
            assert!(core.ws.stack.is_empty());
            for seed in &core.seeds {
                assert_eq!(seed.len, N);
            }
            assert_eq!(core.ws.flags.len(), 2 * N);
            assert!(core.ws.flags.iter().all(|&m| m == Flag::Gone));
        }
    }

    #[test]
    fn self_loop_pattern_edge() {
        // x -[e]-> x matches only nodes with a self-loop.
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a = gb.add_node_labeled("v");
        let b2 = gb.add_node_labeled("v");
        gb.add_edge_labeled(a, a, "e");
        gb.add_edge_labeled(a, b2, "e");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "v");
        b.edge(x, x, "e");
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert_eq!(sim.of(x), &[a]);
    }
}
