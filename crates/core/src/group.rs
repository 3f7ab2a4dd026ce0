//! The one detection primitive: Σ grouped by pattern isomorphism class
//! ([`RuleGroups`]), and one enumeration per (group, pins) — one search
//! per component, under the pins on its own variables — that checks
//! every member's `X → Y` on the rows ([`for_each_group_violation`]).
//!
//! Isomorphic rules have the same matches up to a renaming of variables
//! (Example 10; the appendix's multi-query optimization): one search,
//! many dependency checks, the FAQ shape. A group's lowest-index rule is
//! its *representative*; each member's `X → Y` is rewritten once into
//! representative numbering, and only a violating row is permuted back
//! into the member's order. `detVio`, the incremental detector and the
//! unit executor differ only in data: the pins (none, one node, or one
//! node-id interval per component — each a [`Pin`]) and the pool source
//! of each part — one `Option<ClassView>` per part of the group: `Some`
//! enumerates in that part's registry class space, `None` searches the
//! raw CSR. Every registry class is thus a connected part, whichever
//! path registered it.
//!
//! Which members an enumeration checks is fixed by Σ: those with a
//! non-empty `Y` ([`GroupMember::checked`]), since `X → ∅` is never
//! violated; a group without one enumerates nothing.
//!
//! A two-part group enumerates each part once per call and joins the
//! two tables once per distinct [`JoinKey`] among its members — the
//! first cross-part equality of a member's `X`, which every violation
//! must satisfy — plus one plain disjoint join for the members without
//! one. A member checks only its own key's rows.

use gfd_graph::{Graph, NodeId, Sym};
use gfd_match::api::EnumOutcome;
use gfd_match::component::{ComponentSearch, SearchScratch, StopReason};
use gfd_match::join::{join_tables, JoinKey, JoinScratch};
use gfd_match::types::Flow;
use gfd_match::{
    for_each_match_in, ClassView, MatchOptions, MatchScratch, MatchTable, Pin, SearchBudget,
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
    /// In a two-part group: the first literal of `X` equating a part-0
    /// attribute with a part-1 one, oriented part 0 → part 1 — the
    /// member's rows come from the join on it.
    pub key: Option<JoinKey>,
    /// Whether an enumeration checks the member: its `Y` is non-empty.
    pub checked: bool,
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
        let classes = group_isomorphic_with_witnesses(&patterns);
        // Each class's size at its representative, until the loop
        // overwrites the entry with the rule's group: member lists are
        // allocated once, at their size.
        let mut group_of = vec![0; sigma.len()];
        for &(rep, _) in &classes {
            group_of[rep] += 1;
        }
        for (rule, (rep, witness)) in classes.into_iter().enumerate() {
            let gfd = sigma.get(rule);
            if rep == rule {
                groups.push(RuleGroup {
                    rep,
                    members: Vec::with_capacity(group_of[rule]),
                    parts: decompose(&gfd.pattern),
                    arity: gfd.pattern.node_count(),
                });
            }
            group_of[rule] = if rep == rule {
                groups.len() - 1
            } else {
                group_of[rep]
            };
            let map = witness.as_slice();
            let rewrite = |lits: &[Literal]| lits.iter().map(|l| l.substitute(map)).collect();
            let group = &mut groups[group_of[rule]];
            let dep = Dependency::new(rewrite(&gfd.dep.x), rewrite(&gfd.dep.y));
            group.members.push(GroupMember {
                rule,
                key: cross_key(&group.parts, &dep.x),
                checked: !dep.y.is_empty(),
                dep,
                perm: (!witness.is_identity()).then(|| map.to_vec()),
            });
        }
        RuleGroups { groups, group_of }
    }

    /// The group `rule` belongs to.
    pub fn of(&self, rule: usize) -> &RuleGroup {
        &self.groups[self.group_of[rule]]
    }

    /// Every `(group, variable, attribute)` where some checked member
    /// of the group reads the attribute of the variable in its `X ∪ Y`
    /// — variables in representative numbering — sorted, so a lookup is
    /// a binary search. A write to an attribute not listed at a
    /// variable cannot change whether a match violates any member.
    pub fn reads(&self) -> Vec<(usize, VarId, Sym)> {
        let reads = || {
            self.groups.iter().enumerate().flat_map(|(i, group)| {
                let checked = group.members.iter().filter(|m| m.checked);
                let lits = checked.flat_map(|m| m.dep.literals());
                lits.flat_map(move |l| l.reads().map(move |(v, a)| (i, v, a)))
            })
        };
        let mut all = Vec::with_capacity(reads().count());
        all.extend(reads());
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// The first literal of `x` equating an attribute of part 0 with one
/// of part 1, oriented part 0 → part 1; `None` unless there are two
/// parts.
fn cross_key(parts: &[(Pattern, Vec<VarId>)], x: &[Literal]) -> Option<JoinKey> {
    let [(_, vars0), _] = parts else {
        return None;
    };
    let in0 = |v: VarId| vars0.contains(&v);
    x.iter().find_map(|l| match *l {
        Literal::Vars { x, a, y, b } if in0(x) && !in0(y) => Some(JoinKey { x, a, y, b }),
        Literal::Vars { x, a, y, b } if !in0(x) && in0(y) => Some(JoinKey {
            x: y,
            a: b,
            y: x,
            b: a,
        }),
        _ => None,
    })
}

impl std::ops::Deref for RuleGroups {
    type Target = [RuleGroup];
    fn deref(&self) -> &[RuleGroup] {
        &self.groups
    }
}

impl RuleGroup {
    /// True if an enumeration of the group checks any member.
    pub fn checks(&self) -> bool {
        self.members.iter().any(|m| m.checked)
    }
}

/// Caller-owned buffers of [`for_each_group_violation`]; keep one alive
/// across calls and the steady state allocates nothing.
#[derive(Default)]
pub struct GroupScratch {
    rows: MatchTable,
    row: Vec<NodeId>,
    search: Searches,
    tables: Vec<MatchTable>,
    join: JoinScratch,
}

/// The component searches' buffers and step budget, how many ran, and
/// how many the budget cut off.
#[derive(Default)]
struct Searches {
    opts: MatchOptions,
    matching: MatchScratch,
    raw: SearchScratch,
    enumerations: u64,
    cut_off: u64,
}

/// Rows an enumeration buffers before the checked members read them,
/// one member at a time: each dependency's check then runs as one tight
/// loop over contiguous rows rather than inside the search's callback —
/// several times cheaper per check where the search is cheap and the
/// checks dominate, as on two-variable rules — and the buffer stays
/// bounded however many matches a class has.
const CHUNK_ROWS: usize = 1024;

impl GroupScratch {
    /// Scratch whose every component search stops after `budget`'s
    /// backtracking steps. The budget is per component search, not per
    /// call: each part of each enumeration gets the whole of it.
    pub fn with_budget(budget: SearchBudget) -> Self {
        let mut scratch = Self::default();
        scratch.search.opts.budget = budget;
        scratch
    }

    /// Component searches run so far: one per component of each
    /// enumeration, pinned or not.
    pub fn enumerations(&self) -> u64 {
        self.search.enumerations
    }

    /// Component searches the step budget cut off so far: the
    /// violations reported since a reading are complete when it has
    /// not moved.
    pub fn cut_off(&self) -> u64 {
        self.search.cut_off
    }
}

/// Enumerates `group`'s representative once under `pins` (over
/// representative variables; each component keeps the pins on its own
/// variables) — part `i` in `views[i]`'s class space, or on the raw CSR
/// where that is `None` — and checks every [checked](GroupMember::checked)
/// member on each row of its key's join: `sink(rule, mapping)` receives
/// each violation, the mapping in the rule's own order. Each component
/// search stops at the scratch's step budget
/// ([`GroupScratch::with_budget`]); [`GroupScratch::cut_off`] counts
/// the searches it stopped.
pub fn for_each_group_violation(
    group: &RuleGroup,
    g: &Graph,
    views: &[Option<ClassView>],
    pins: &[Pin],
    scratch: &mut GroupScratch,
    sink: &mut dyn FnMut(usize, &[NodeId]),
) {
    debug_assert_eq!(views.len(), group.parts.len(), "one view per part");
    if !group.checks() {
        return; // X → ∅ can never be violated
    }
    let GroupScratch {
        rows,
        row,
        search,
        tables,
        join,
    } = scratch;
    let checked = || group.members.iter().filter(|m| m.checked);
    rows.reset(group.arity);
    // Checks the buffered rows against the checked members joined on
    // `key`, then empties the chunk.
    let mut check = |rows: &mut MatchTable, key: Option<JoinKey>| {
        for member in checked().filter(|m| m.key == key) {
            for rep_row in rows.iter() {
                if !match_satisfies(&member.dep, g, rep_row) {
                    sink(member.rule, member.member_row(rep_row, row));
                }
            }
        }
        rows.clear();
    };
    match group.parts.len() {
        0 => {} // the empty pattern has no matches
        1 => {
            search.component(g, group, 0, views, pins, &mut |r| {
                rows.push_row(r);
                if rows.len() == CHUNK_ROWS {
                    check(rows, None);
                }
                Flow::Continue
            });
            check(rows, None);
        }
        k => {
            if tables.len() < k {
                tables.resize_with(k, MatchTable::default);
            }
            // No match of one component → none of the pattern.
            let all_match = tables[..k].iter_mut().enumerate().all(|(i, table)| {
                table.reset(group.parts[i].0.node_count());
                search.component(g, group, i, views, pins, &mut |r| {
                    table.push_row(r);
                    Flow::Continue
                });
                !table.is_empty()
            });
            if !all_match {
                return;
            }
            // One join per distinct key among the checked members (at
            // its first holder), one plain join if any member has none.
            let keys = checked().enumerate().filter_map(|(i, m)| {
                let first = checked().take(i).all(|p| p.key != m.key);
                first.then_some(m.key)
            });
            let (parts, tables) = (&group.parts, &tables[..k]);
            for key in keys {
                let on = key.map(|key| (g, key));
                join_tables(parts, tables, group.arity, on, join, &mut |r| {
                    rows.push_row(r);
                    if rows.len() == CHUNK_ROWS {
                        check(rows, key);
                    }
                    Flow::Continue
                });
                check(rows, key);
            }
        }
    }
}

impl Searches {
    /// Streams component `i`'s matches under the pins on its variables
    /// and the step budget, rows in the component's own variable order:
    /// in `views[i]`'s class space, or on the raw CSR.
    fn component(
        &mut self,
        g: &Graph,
        group: &RuleGroup,
        i: usize,
        views: &[Option<ClassView>],
        pins: &[Pin],
        f: &mut dyn FnMut(&[NodeId]) -> Flow,
    ) {
        let (cq, vars) = &group.parts[i];
        self.enumerations += 1;
        Pin::restrict(pins, vars, &mut self.opts.pins);
        let cut = match &views[i] {
            Some(view) => {
                let outcome = for_each_match_in(view, g, &self.opts, &mut self.matching, f);
                outcome == EnumOutcome::Stopped(StopReason::BudgetExhausted)
            }
            None => {
                let raw = std::mem::take(&mut self.raw);
                let mut s = ComponentSearch::new(cq, g)
                    .with_scratch(raw)
                    .pins(&self.opts.pins)
                    .max_steps(self.opts.budget.max_steps.unwrap_or(u64::MAX));
                let reason = s.for_each(f);
                self.raw = s.into_scratch();
                reason == StopReason::BudgetExhausted
            }
        };
        self.cut_off += u64::from(cut);
    }
}
