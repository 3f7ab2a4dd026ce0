//! The one detection primitive: Σ grouped by pattern isomorphism class
//! ([`RuleGroups`]), and one enumeration per (group, pins) that checks
//! every member's `X → Y` on the rows ([`for_each_group_violation`]).
//!
//! Isomorphic rules have the same matches up to a renaming of variables
//! (Example 10; the appendix's multi-query optimization): one search,
//! many dependency checks, the FAQ shape. A group's lowest-index rule is
//! its *representative*; each member's `X → Y` is rewritten once into
//! representative numbering, and only a violating row is permuted back
//! into the member's order. `detVio`, the incremental detector and the
//! unit executor differ only in data: [`Pins`], [`Pools`], and the
//! members [`GroupScratch::select`] picks (a caller's pre-filter takes
//! its member out of the row loop instead of forking a path).

use gfd_graph::{Graph, NodeId};
use gfd_match::component::{ComponentSearch, SearchScratch};
use gfd_match::join::{join_tables, JoinScratch};
use gfd_match::types::Flow;
use gfd_match::{
    for_each_match_in, for_each_match_with, ClassView, MatchOptions, MatchScratch, MatchTable,
};
use gfd_pattern::canon::group_isomorphic_with_witnesses;
use gfd_pattern::signature::decompose;
use gfd_pattern::{Pattern, VarId};

use crate::gfd::GfdSet;
use crate::literal::{Dependency, Literal};
use crate::validate::match_satisfies;

/// Σ partitioned by full-pattern isomorphism class; dereferences to the
/// groups, in the order of their representatives.
#[derive(Clone, Debug)]
pub struct RuleGroups {
    groups: Vec<RuleGroup>,
    /// The group of each rule.
    group_of: Vec<usize>,
}

/// One isomorphism class of Σ's patterns.
#[derive(Clone, Debug)]
pub struct RuleGroup {
    /// The representative: the class's lowest-index rule.
    pub rep: usize,
    /// Every rule of the class in Σ order, the representative first.
    pub members: Vec<GroupMember>,
    /// The representative's connected components, each as a standalone
    /// pattern with its original variables.
    pub parts: Vec<(Pattern, Vec<VarId>)>,
    /// Variables of the representative's pattern.
    pub arity: usize,
}

/// One rule of a group, read in representative variable numbering.
#[derive(Clone, Debug)]
pub struct GroupMember {
    /// Index of the rule in Σ.
    pub rule: usize,
    /// The rule's `X → Y` over representative variables.
    pub dep: Dependency,
    /// The representative variable of each of the rule's variables;
    /// `None` when the rule is in representative order.
    perm: Option<Vec<VarId>>,
}

impl GroupMember {
    /// A representative row in the member's own variable order: the
    /// row itself, or its image written into `buf`.
    pub fn member_row<'r>(&self, rep_row: &'r [NodeId], buf: &'r mut Vec<NodeId>) -> &'r [NodeId] {
        let Some(perm) = &self.perm else {
            return rep_row;
        };
        buf.clear();
        buf.extend(perm.iter().map(|v| rep_row[v.index()]));
        buf
    }
}

impl RuleGroups {
    /// Groups `sigma`: one canonical form per rule, one decomposition
    /// per group, one dependency rewrite per member.
    pub fn new(sigma: &GfdSet) -> Self {
        let patterns: Vec<&Pattern> = sigma.iter().map(|gfd| &gfd.pattern).collect();
        let mut groups: Vec<RuleGroup> = Vec::new();
        let mut group_of = Vec::with_capacity(sigma.len());
        let classes = group_isomorphic_with_witnesses(&patterns);
        for (rule, (rep, witness)) in classes.into_iter().enumerate() {
            let gfd = sigma.get(rule);
            if rep == rule {
                groups.push(RuleGroup {
                    rep,
                    members: Vec::new(),
                    parts: decompose(&gfd.pattern),
                    arity: gfd.pattern.node_count(),
                });
            }
            group_of.push(if rep == rule {
                groups.len() - 1
            } else {
                group_of[rep]
            });
            let map = witness.as_slice();
            let rewrite = |lits: &[Literal]| lits.iter().map(|l| l.substitute(map)).collect();
            groups[group_of[rule]].members.push(GroupMember {
                rule,
                dep: Dependency::new(rewrite(&gfd.dep.x), rewrite(&gfd.dep.y)),
                perm: (!witness.is_identity()).then(|| map.to_vec()),
            });
        }
        RuleGroups { groups, group_of }
    }

    /// The group `rule` belongs to.
    pub fn of(&self, rule: usize) -> &RuleGroup {
        &self.groups[self.group_of[rule]]
    }
}

impl std::ops::Deref for RuleGroups {
    type Target = [RuleGroup];
    fn deref(&self) -> &[RuleGroup] {
        &self.groups
    }
}

impl RuleGroup {
    /// True if the representative's pattern is connected.
    pub fn is_connected(&self) -> bool {
        self.parts.len() == 1
    }
}

/// Where one enumeration draws its candidate pools.
#[derive(Clone, Copy)]
pub enum Pools<'a> {
    /// Raw CSR search.
    Raw,
    /// The per-call filter of [`for_each_match_with`]: a component
    /// simulates when its size gate says so, and searches raw otherwise.
    /// Kept over `Raw`: without it `detVio` on the benchmark's
    /// `social-cycles` (`--seed 1`, 2-vCPU host) takes 0.142 s instead
    /// of 0.025 s, though it allocates 0.16 MiB instead of 6.96.
    Gated,
    /// Component `i` enumerates through `views[i]`, its registry
    /// class's space and plan.
    Classes(&'a [ClassView]),
}

/// Where one enumeration is pinned.
#[derive(Clone, Copy)]
pub enum Pins<'a> {
    /// Nowhere.
    None,
    /// Representative variable `v` at node `u`: the component holding
    /// `v` is pinned, the others enumerate unpinned.
    Node(VarId, NodeId),
    /// Component `i` is pinned at its own variable `ranges(i).0`, once
    /// per node of `ranges(i).1`.
    Ranges(&'a dyn Fn(usize) -> (VarId, &'a [NodeId])),
}

/// Caller-owned buffers of [`for_each_group_violation`]; keep one alive
/// across calls and the steady state allocates nothing.
#[derive(Default)]
pub struct GroupScratch {
    active: Vec<bool>,
    rows: MatchTable,
    row: Vec<NodeId>,
    search: Searches,
    tables: Vec<MatchTable>,
    join: JoinScratch,
}

/// The component searches' buffers, and how many ran.
#[derive(Default)]
struct Searches {
    opts: MatchOptions,
    matching: MatchScratch,
    raw: SearchScratch,
    enumerations: u64,
}

/// Rows an enumeration buffers before the selected members check them,
/// one member at a time: each dependency's check then runs as one tight
/// loop over contiguous rows rather than inside the search's callback —
/// several times cheaper per check where the search is cheap and the
/// checks dominate, as on two-variable rules — and the buffer stays
/// bounded however many matches a class has.
const CHUNK_ROWS: usize = 1024;

impl GroupScratch {
    /// Selects the members the next enumeration of `group` checks:
    /// those with a non-empty `Y` that `keep` accepts. Returns whether
    /// any is selected — with none, there is nothing to enumerate for.
    pub fn select(
        &mut self,
        group: &RuleGroup,
        mut keep: impl FnMut(&GroupMember) -> bool,
    ) -> bool {
        self.active.clear();
        let checked = group.members.iter().map(|m| !m.dep.y.is_empty() && keep(m));
        self.active.extend(checked);
        self.active.contains(&true)
    }

    /// Component searches run so far: one per unpinned component and
    /// one per pin that reached the search.
    pub fn enumerations(&self) -> u64 {
        self.search.enumerations
    }
}

/// Enumerates `group`'s representative once under `pins`, with pools
/// from `pools`, and checks every member the last
/// [`GroupScratch::select`] picked on each row: `sink(rule, mapping)`
/// receives each violation, the mapping in the rule's own order.
pub fn for_each_group_violation(
    group: &RuleGroup,
    g: &Graph,
    pools: Pools<'_>,
    pins: Pins<'_>,
    scratch: &mut GroupScratch,
    sink: &mut dyn FnMut(usize, &[NodeId]),
) {
    debug_assert_eq!(scratch.active.len(), group.members.len(), "select first");
    let GroupScratch {
        active,
        rows,
        row,
        search,
        tables,
        join,
    } = scratch;
    let mut check = |rows: &mut MatchTable| {
        for (member, _) in group.members.iter().zip(&*active).filter(|(_, on)| **on) {
            for rep_row in rows.iter() {
                if !match_satisfies(&member.dep, g, rep_row) {
                    sink(member.rule, member.member_row(rep_row, row));
                }
            }
        }
        rows.clear();
    };
    rows.reset(group.arity);
    let mut buffer = |rep_row: &[NodeId]| {
        rows.push_row(rep_row);
        if rows.len() == CHUNK_ROWS {
            check(rows);
        }
        Flow::Continue
    };
    match group.parts.len() {
        0 => {} // the empty pattern has no matches
        1 => search.component(g, group, 0, pools, pins, &mut buffer),
        k => {
            if tables.len() < k {
                tables.resize_with(k, MatchTable::default);
            }
            // No match of one component → none of the pattern.
            let all_match = tables[..k].iter_mut().enumerate().all(|(i, table)| {
                table.reset(group.parts[i].0.node_count());
                search.component(g, group, i, pools, pins, &mut |r| {
                    table.push_row(r);
                    Flow::Continue
                });
                !table.is_empty()
            });
            if all_match {
                join_tables(&group.parts, &tables[..k], group.arity, join, &mut buffer);
            }
        }
    }
    check(rows);
}

impl Searches {
    /// Streams component `i`'s matches under its pins, rows in the
    /// component's own variable order.
    fn component(
        &mut self,
        g: &Graph,
        group: &RuleGroup,
        i: usize,
        pools: Pools<'_>,
        pins: Pins<'_>,
        f: &mut dyn FnMut(&[NodeId]) -> Flow,
    ) {
        let (cq, vars) = &group.parts[i];
        let mut search = |pin: Option<(VarId, NodeId)>| {
            self.enumerations += 1;
            self.opts.pins.clear();
            self.opts.pins.extend(pin);
            match pools {
                Pools::Raw => {
                    let raw = std::mem::take(&mut self.raw);
                    let mut s = ComponentSearch::new(cq, g)
                        .with_scratch(raw)
                        .pins(&self.opts.pins);
                    s.for_each(f);
                    self.raw = s.into_scratch();
                }
                Pools::Gated => {
                    for_each_match_with(cq, g, &self.opts, None, &mut self.matching, f);
                }
                Pools::Classes(views) => {
                    for_each_match_in(&views[i], g, &self.opts, &mut self.matching, f);
                }
            }
        };
        match pins {
            Pins::None => search(None),
            Pins::Node(v, u) => search(
                vars.iter()
                    .position(|&x| x == v)
                    .map(|l| (VarId(l as u32), u)),
            ),
            Pins::Ranges(ranges) => {
                let (pivot, nodes) = ranges(i);
                nodes.iter().for_each(|&u| search(Some((pivot, u))));
            }
        }
    }
}
