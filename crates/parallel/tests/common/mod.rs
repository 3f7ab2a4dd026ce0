// What the service suites share: the social graph and the two rules
// that read it, the edit model — chained deltas over a small slot pool of
// rule-relevant edge and attribute flips, so one batch carries
// opposing ops for compaction to cancel — and the violation set they
// compare. The unit tests of service.rs and threaded.rs `include!` this
// file too, which is why its header is a plain comment: an included
// file cannot open with inner doc comments.

use std::collections::HashSet;

use std::sync::Arc;

use gfd_core::{Dependency, Gfd, GfdSet, Literal, Violation};
use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId, Value, Vocab};
use gfd_match::Match;
use gfd_pattern::PatternBuilder;
use gfd_util::Rng;

/// `n` blogs, every third one with keyword `spam`, and `n` accounts,
/// every fourth one fake, each posting one blog and liking the next.
pub fn social(n: usize) -> Graph {
    let mut g = GraphBuilder::with_fresh_vocab();
    let blogs: Vec<_> = (0..n)
        .map(|i| {
            let b = g.add_node_labeled("blog");
            g.set_attr_named(
                b,
                "keyword",
                Value::str(if i % 3 == 0 { "spam" } else { "ok" }),
            );
            b
        })
        .collect();
    for i in 0..n {
        let a = g.add_node_labeled("account");
        g.set_attr_named(a, "is_fake", Value::Bool(i % 4 == 0));
        g.add_edge_labeled(a, blogs[i], "post");
        g.add_edge_labeled(a, blogs[(i + 1) % n], "like");
    }
    g.freeze()
}

/// A spam blog's poster must be fake, its likers real.
pub fn rules(vocab: Arc<Vocab>) -> GfdSet {
    let keyword = vocab.intern("keyword");
    let is_fake = vocab.intern("is_fake");

    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "account");
    let y = b.node("y", "blog");
    b.edge(x, y, "post");
    let spam = Gfd::new(
        "spam-poster-is-fake",
        b.build(),
        Dependency::new(
            vec![Literal::const_eq(y, keyword, "spam")],
            vec![Literal::const_eq(x, is_fake, true)],
        ),
    );

    let mut b = PatternBuilder::new(vocab);
    let x = b.node("x", "account");
    let y = b.node("y", "blog");
    b.edge(x, y, "like");
    let liker = Gfd::new(
        "spam-liker-is-real",
        b.build(),
        Dependency::new(
            vec![Literal::const_eq(y, keyword, "spam")],
            vec![Literal::const_eq(x, is_fake, false)],
        ),
    );
    GfdSet::new(vec![spam, liker])
}

/// A violation list as a set, for comparisons that ignore order.
pub fn vio_set(vs: Vec<Violation>) -> HashSet<(usize, Match)> {
    vs.into_iter().map(|v| (v.rule, v.mapping)).collect()
}

/// One batch of `len` chained edit deltas on the shadow `g`: the
/// shadow after the batch, and the deltas in order.
pub fn random_batch(rng: &mut Rng, g: &Graph, len: usize) -> (Graph, Vec<GraphDelta>) {
    let mut cur = g.edit(|_| {});
    let mut deltas = Vec::with_capacity(len);
    for _ in 0..len {
        let n = cur.node_count();
        let s = NodeId(rng.gen_range(0..n) as u32);
        let d = NodeId(rng.gen_range(0..n) as u32);
        let kind = rng.gen_range(0..6);
        let spam = rng.gen_bool(0.5);
        let fake = rng.gen_bool(0.5);
        let (next, delta) = cur.edit_with_delta(|b| match kind {
            0 => {
                b.add_edge_labeled(s, d, "post");
            }
            1 => {
                b.remove_edge_labeled(s, d, "post");
            }
            2 => {
                b.add_edge_labeled(s, d, "like");
            }
            3 => {
                b.remove_edge_labeled(s, d, "like");
            }
            4 => {
                let a = b.vocab().intern("keyword");
                b.set_attr(s, a, Value::str(if spam { "spam" } else { "ok" }));
            }
            _ => {
                let a = b.vocab().intern("is_fake");
                b.set_attr(s, a, Value::Bool(fake));
            }
        });
        cur = next;
        deltas.push(delta);
    }
    (cur, deltas)
}
