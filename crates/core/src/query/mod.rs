//! Conjunctive queries without self-joins (paper §3.1).
//!
//! A [`Query`] is a head (output attribute set) plus a body of atoms, each
//! an [`RelationSchema`]. Transformations used throughout the paper —
//! residual queries `Q^{-A}`, head joins, connected components — live
//! here; complexity analyses live in [`crate::analysis`].

pub mod builder;
pub mod graph;
pub mod metrics;
pub mod parser;

use crate::error::QueryError;
use adp_engine::schema::{Attr, RelationSchema};
use std::collections::BTreeSet;
use std::fmt;

pub use builder::QueryBuilder;
pub use parser::parse_query;

/// A self-join-free conjunctive query `Q(head) :- R1(..), ..., Rp(..)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Query {
    name: String,
    head: Vec<Attr>,
    atoms: Vec<RelationSchema>,
}

impl Query {
    /// Builds a query, validating the paper's standing assumptions:
    /// non-empty body, no self-joins, head ⊆ body attributes.
    pub fn new(
        name: &str,
        head: Vec<Attr>,
        atoms: Vec<RelationSchema>,
    ) -> Result<Self, QueryError> {
        if atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for (i, a) in atoms.iter().enumerate() {
            if atoms[..i].iter().any(|b| b.name() == a.name()) {
                return Err(QueryError::SelfJoin(a.name().to_owned()));
            }
        }
        let mut head_set: Vec<Attr> = head;
        head_set.sort();
        head_set.dedup();
        for h in &head_set {
            if !atoms.iter().any(|a| a.contains(h)) {
                return Err(QueryError::HeadNotInBody(h.to_string()));
            }
        }
        Ok(Query {
            name: name.to_owned(),
            head: head_set,
            atoms,
        })
    }

    /// Starts a typed [`QueryBuilder`] named `name` — the programmatic
    /// alternative to [`parse_query`], validating at build time instead
    /// of parse time.
    pub fn builder(name: &str) -> QueryBuilder {
        QueryBuilder::new(name)
    }

    /// The query's name (used for display only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output attributes (`head(Q)`), sorted.
    pub fn head(&self) -> &[Attr] {
        &self.head
    }

    /// Body atoms (`rels(Q)`).
    pub fn atoms(&self) -> &[RelationSchema] {
        &self.atoms
    }

    /// Number of atoms (`p`).
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// All attributes appearing in the body (`attr(Q)`), sorted.
    pub fn attrs(&self) -> Vec<Attr> {
        let set: BTreeSet<Attr> = self
            .atoms
            .iter()
            .flat_map(|a| a.attrs().iter().cloned())
            .collect();
        set.into_iter().collect()
    }

    /// Non-output (existential) attributes, sorted.
    pub fn existential_attrs(&self) -> Vec<Attr> {
        self.attrs()
            .into_iter()
            .filter(|a| !self.head.contains(a))
            .collect()
    }

    /// True if the query has no output attributes (`head(Q) = ∅`).
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// True if every body attribute is an output attribute (full CQ —
    /// the natural join).
    pub fn is_full(&self) -> bool {
        self.attrs().iter().all(|a| self.head.contains(a))
    }

    /// True if some atom is vacuum (zero attributes).
    pub fn has_vacuum_atom(&self) -> bool {
        self.atoms.iter().any(|a| a.is_vacuum())
    }

    /// The relations containing attribute `a` (`rels(A)`), as atom indices.
    pub fn rels_with(&self, a: &Attr) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, s)| s.contains(a))
            .map(|(i, _)| i)
            .collect()
    }

    /// Universal attributes: **output** attributes appearing in *every*
    /// atom (paper §4: "an attribute is universal if it is an output
    /// attribute appearing in all relations").
    pub fn universal_attrs(&self) -> Vec<Attr> {
        self.head
            .iter()
            .filter(|h| self.atoms.iter().all(|a| a.contains(h)))
            .cloned()
            .collect()
    }

    /// Residual query `Q^{-A}`: `remove` dropped from the head and from
    /// every atom (paper Lemma 2 / §7.5).
    pub fn without_attrs(&self, remove: &[Attr]) -> Query {
        Query {
            name: format!("{}^-", self.name),
            head: self
                .head
                .iter()
                .filter(|h| !remove.contains(h))
                .cloned()
                .collect(),
            atoms: self.atoms.iter().map(|a| a.without_attrs(remove)).collect(),
        }
    }

    /// The *head join* `Q_head`: the residual query after removing all
    /// non-output attributes from all atoms (paper §4.2.3 / §5.2.2).
    pub fn head_join(&self) -> Query {
        self.without_attrs(&self.existential_attrs())
    }

    /// The subquery on a subset of atoms, keeping only head attributes
    /// that occur in those atoms. Panics on an empty selection.
    pub fn subquery(&self, atom_indices: &[usize]) -> Query {
        assert!(!atom_indices.is_empty(), "subquery needs at least one atom");
        let atoms: Vec<RelationSchema> = atom_indices
            .iter()
            .map(|&i| self.atoms[i].clone())
            .collect();
        let head: Vec<Attr> = self
            .head
            .iter()
            .filter(|h| atoms.iter().any(|a| a.contains(h)))
            .cloned()
            .collect();
        Query {
            name: format!("{}[{}]", self.name, atoms.len()),
            head,
            atoms,
        }
    }

    /// Connected components of the query graph `G_Q`, as sets of atom
    /// indices (paper §3.1). Sorted for determinism.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        graph::connected_components(&self.atoms)
    }

    /// True if `G_Q` is connected.
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() == 1
    }

    /// Canonical cache-key text for this query: the head (already sorted
    /// and deduplicated by [`Query::new`]) and the body atoms in
    /// declaration order, with canonical punctuation and **without the
    /// query name** (the name is display-only and never affects
    /// solving). Two query texts normalize to the same string iff the
    /// solver treats them identically, so the text is safe to key
    /// shared plans: `"Q(A) :- R(A)"`, `"Q(A):-R(A)"`, and
    /// `"Other(A) :- R(A)"` all map to `"(A) :- R(A)"`.
    ///
    /// Atom order and per-atom attribute order are preserved: they feed
    /// the solver's atom indexing ([`TupleRef.atom`] coordinates), so
    /// reordering them would conflate requests whose deletion sets are
    /// not interchangeable.
    ///
    /// [`TupleRef.atom`]: adp_engine::provenance::TupleRef
    pub fn normalized_text(&self) -> String {
        use std::fmt::Write;
        metrics::bump(&metrics::NORMALIZATIONS);
        let mut out = String::new();
        out.push('(');
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{h}");
        }
        out.push_str(") :- ");
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{a}");
        }
        out
    }

    /// 64-bit FNV-1a fingerprint of [`normalized_text`](Self::normalized_text).
    /// Stable across processes and builds (unlike `DefaultHasher`
    /// values, which the std documentation reserves the right to
    /// change), so it can shard caches and key persisted artifacts.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of_normalized(&self.normalized_text())
    }

    /// The query's canonical parser-compatible text:
    /// `name(head) :- atoms`. For any query whose name and attributes
    /// are identifiers (everything a [`QueryBuilder`] builds and
    /// everything [`parse_query`] accepts),
    /// `parse_query(&q.to_text()) == q` — the round-trip the
    /// `api_v2_differential` proptest suite pins. Derived queries
    /// (residuals, subqueries) carry decorated display names like
    /// `Q^-`, which are not identifiers; their text is for humans only.
    pub fn to_text(&self) -> String {
        format!("{self}")
    }
}

/// [`Query::fingerprint`] for an already-rendered
/// [`normalized_text`](Query::normalized_text), so callers that need
/// both the key text and its fingerprint (the serving layer's cache
/// path) render the text exactly once.
pub fn fingerprint_of_normalized(normalized: &str) -> u64 {
    metrics::bump(&metrics::FINGERPRINTS);
    fnv1a(normalized.as_bytes())
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parses `text` and returns its canonical cache-key form (see
/// [`Query::normalized_text`]). The cheap front door for serving
/// layers: one parse, then string keys.
pub fn normalize_query_text(text: &str) -> Result<String, QueryError> {
    Ok(parse_query(text)?.normalized_text())
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{h}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_engine::schema::attrs;

    fn q(text: &str) -> Query {
        parse_query(text).unwrap()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            Query::new("Q", vec![], vec![]).unwrap_err(),
            QueryError::EmptyBody
        );
        let r = RelationSchema::new("R", attrs(&["A"]));
        assert!(matches!(
            Query::new("Q", vec![], vec![r.clone(), r.clone()]).unwrap_err(),
            QueryError::SelfJoin(_)
        ));
        assert!(matches!(
            Query::new("Q", attrs(&["Z"]), vec![r]).unwrap_err(),
            QueryError::HeadNotInBody(_)
        ));
    }

    #[test]
    fn attr_sets() {
        let q = q("Q(A,E) :- R1(A,B), R2(B,C), R3(C,E)");
        assert_eq!(q.attrs(), attrs(&["A", "B", "C", "E"]));
        assert_eq!(q.existential_attrs(), attrs(&["B", "C"]));
        assert!(!q.is_boolean());
        assert!(!q.is_full());
    }

    #[test]
    fn full_and_boolean_flags() {
        assert!(q("Q(A,B) :- R1(A,B)").is_full());
        assert!(q("Q() :- R1(A,B)").is_boolean());
    }

    #[test]
    fn universal_attrs_must_be_output_and_everywhere() {
        // B is everywhere but not output; A is output and everywhere.
        let q = q("Q(A) :- R1(A,B), R2(A,B,C)");
        assert_eq!(q.universal_attrs(), attrs(&["A"]));
        // nothing universal in a chain
        assert!(q2_chain().universal_attrs().is_empty());
    }

    fn q2_chain() -> Query {
        q("Q(A,E) :- R1(A,B), R2(B,C), R3(C,E)")
    }

    #[test]
    fn residual_query_drops_attr_everywhere() {
        let q = q("Q(A,B) :- R1(A,B), R2(A,C)");
        let r = q.without_attrs(&attrs(&["A"]));
        assert_eq!(r.head(), &attrs(&["B"])[..]);
        assert_eq!(r.atoms()[0].attrs(), &attrs(&["B"])[..]);
        assert_eq!(r.atoms()[1].attrs(), &attrs(&["C"])[..]);
    }

    #[test]
    fn head_join_keeps_only_output_attrs() {
        let q = q2_chain();
        let hj = q.head_join();
        assert_eq!(hj.atoms()[0].attrs(), &attrs(&["A"])[..]);
        assert!(hj.atoms()[1].is_vacuum());
        assert_eq!(hj.atoms()[2].attrs(), &attrs(&["E"])[..]);
    }

    #[test]
    fn example4_components() {
        // Paper Example 4.
        let q = q("Q(A,F,G,H) :- R1(A,B), R2(F,G), R3(B,C), R4(C), R5(G,H)");
        let mut comps = q.connected_components();
        comps.sort();
        assert_eq!(comps, vec![vec![0, 2, 3], vec![1, 4]]);
        assert!(!q.is_connected());
        let sub = q.subquery(&[1, 4]);
        assert_eq!(sub.head(), &attrs(&["F", "G", "H"])[..]);
    }

    #[test]
    fn normalized_text_canonicalizes_lexical_noise_only() {
        // Whitespace and the query name are noise; atom order is not.
        let a = q("Q(A,B) :- R1(A,B), R2(B)");
        let b = parse_query("Other( B , A )   :-   R1( A , B ),R2( B )").unwrap();
        assert_eq!(a.normalized_text(), "(A,B) :- R1(A,B), R2(B)");
        assert_eq!(a.normalized_text(), b.normalized_text());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let reordered = q("Q(A,B) :- R2(B), R1(A,B)");
        assert_ne!(
            a.normalized_text(),
            reordered.normalized_text(),
            "atom order carries TupleRef coordinates and must stay distinct"
        );
        assert_eq!(
            normalize_query_text("X(A,B):-R1(A,B)  ,  R2(B)").unwrap(),
            a.normalized_text()
        );
        assert!(normalize_query_text("not a query").is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        // FNV-1a is a fixed algorithm: the value must never drift across
        // runs or builds (it keys shared caches).
        let f = q("Q(A) :- R(A)").fingerprint();
        assert_eq!(f, q("Z(A) :- R(A)").fingerprint());
        assert_eq!(f, super::fnv1a("(A) :- R(A)".as_bytes()));
        assert_ne!(f, q("Q(A) :- S(A)").fingerprint());
        assert_ne!(f, q("Q() :- R(A)").fingerprint());
    }

    #[test]
    fn vacuum_detection() {
        let q = Query::new(
            "Q",
            vec![],
            vec![
                RelationSchema::new("V", vec![]),
                RelationSchema::new("R", attrs(&["A"])),
            ],
        )
        .unwrap();
        assert!(q.has_vacuum_atom());
    }
}
