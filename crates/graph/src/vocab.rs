//! Symbol interning for node labels, edge labels and attribute names.
//!
//! Graphs and patterns agree on label identity by sharing one [`Vocab`]
//! (typically behind an [`std::sync::Arc`]). Interning makes label
//! comparison during subgraph-isomorphism search a `u32` compare, which
//! is the hot operation of GFD validation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// An interned symbol: a node label, edge label or attribute name.
///
/// `Sym` values are only meaningful relative to the [`Vocab`] that
/// produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// Index into the owning vocabulary's symbol table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

#[derive(Default)]
struct VocabInner {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Sym>,
}

/// An append-only, thread-safe symbol table.
///
/// ```
/// use gfd_graph::Vocab;
/// let vocab = Vocab::new();
/// let flight = vocab.intern("flight");
/// assert_eq!(vocab.intern("flight"), flight);
/// assert_eq!(vocab.resolve(flight).as_ref(), "flight");
/// ```
#[derive(Default)]
pub struct Vocab {
    inner: RwLock<VocabInner>,
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vocabulary behind an `Arc`, the usual way one is
    /// shared between a [`crate::Graph`] and the patterns matched on it.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(&sym) = self
            .inner
            .read()
            .expect("vocab lock poisoned: a holder panicked")
            .index
            .get(name)
        {
            return sym;
        }
        let mut inner = self
            .inner
            .write()
            .expect("vocab lock poisoned: a holder panicked");
        if let Some(&sym) = inner.index.get(name) {
            return sym; // raced with another writer
        }
        let sym = Sym(inner.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        inner.names.push(name.clone());
        inner.index.insert(name, sym);
        sym
    }

    /// Looks up a symbol without interning.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.inner
            .read()
            .expect("vocab lock poisoned: a holder panicked")
            .index
            .get(name)
            .copied()
    }

    /// Returns the string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different vocabulary and is out
    /// of range here.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.inner
            .read()
            .expect("vocab lock poisoned: a holder panicked")
            .names[sym.index()]
        .clone()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("vocab lock poisoned: a holder panicked")
            .names
            .len()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All interned names in symbol order (for serialization).
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.inner
            .read()
            .expect("vocab lock poisoned: a holder panicked")
            .names
            .clone()
    }

    /// The names interned at index `k` and after, in symbol order: what
    /// a log frame carries of a vocabulary that grew since the last
    /// one, without a copy of the names before it.
    pub fn names_from(&self, k: usize) -> Vec<Arc<str>> {
        let inner = self
            .inner
            .read()
            .expect("vocab lock poisoned: a holder panicked");
        inner.names.get(k..).unwrap_or_default().to_vec()
    }
}

impl fmt::Debug for Vocab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vocab").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let v = Vocab::new();
        let a = v.intern("account");
        let b = v.intern("blog");
        assert_ne!(a, b);
        assert_eq!(v.intern("account"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let v = Vocab::new();
        for name in ["flight", "city", "country", "capital"] {
            let s = v.intern(name);
            assert_eq!(v.resolve(s).as_ref(), name);
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let v = Vocab::new();
        assert_eq!(v.lookup("missing"), None);
        assert_eq!(v.len(), 0);
        let s = v.intern("present");
        assert_eq!(v.lookup("present"), Some(s));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let v = Arc::new(Vocab::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let v = v.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| v.intern(&format!("l{}", i % 10)))
                    .collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(v.len(), 10);
    }
}
