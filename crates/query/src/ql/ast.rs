//! Abstract syntax of the provenance query language.
//!
//! The language covers the paper's query shapes directly: ancestor/
//! descendant walks ("find all descendants of this page that are
//! downloads", §2.4), path queries, node scans, and interval-overlap
//! queries (§2.3), each with a `where` filter and a `limit`.

use bp_graph::NodeKind;

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The traversal/scan shape.
    pub shape: Shape,
    /// Conjunctive filters applied to candidate nodes.
    pub filters: Vec<Filter>,
    /// Maximum rows returned (`None` = unlimited).
    pub limit: Option<usize>,
}

/// The query's traversal shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// `ancestors(sel)` — causal lineage of the selected node.
    Ancestors(Selector),
    /// `descendants(sel)` — everything derived from the selected node.
    Descendants(Selector),
    /// `path(sel, sel)` — shortest derivation path between two nodes.
    Path(Selector, Selector),
    /// `nodes` — scan all nodes.
    Nodes,
    /// `overlapping(sel)` — every other node whose interval overlaps the
    /// selected node's, ordered by (open timestamp, node id).
    Overlapping(Selector),
}

/// How a query names a node.
#[derive(Debug, Clone, PartialEq)]
pub enum Selector {
    /// `#42` — by raw node id.
    Id(u32),
    /// `key = "..."` / `url = "..."` — newest node with this key.
    Key(String),
    /// `latest("...")` — latest visit version of a URL.
    LatestVisit(String),
}

/// One `where` predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `type = download`.
    Kind(NodeKind),
    /// `key contains "wine"`.
    KeyContains(String),
    /// `visits >= 3` (visit count of the node's key).
    Visits(Cmp, u32),
    /// `depth <= 4` (hops from the traversal start; 0 for scans).
    DepthLe(usize),
}

impl core::fmt::Display for Query {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.shape)?;
        for (i, filter) in self.filters.iter().enumerate() {
            write!(f, " {} {filter}", if i == 0 { "where" } else { "and" })?;
        }
        if let Some(limit) = self.limit {
            write!(f, " limit {limit}")?;
        }
        Ok(())
    }
}

impl core::fmt::Display for Shape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Shape::Ancestors(s) => write!(f, "ancestors({s})"),
            Shape::Descendants(s) => write!(f, "descendants({s})"),
            Shape::Path(a, b) => write!(f, "path({a}, {b})"),
            Shape::Nodes => write!(f, "nodes"),
            Shape::Overlapping(s) => write!(f, "overlapping({s})"),
        }
    }
}

impl core::fmt::Display for Selector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Selector::Id(id) => write!(f, "#{id}"),
            Selector::Key(k) => write!(f, "key = {k:?}"),
            Selector::LatestVisit(url) => write!(f, "latest({url:?})"),
        }
    }
}

impl core::fmt::Display for Filter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Filter::Kind(kind) => write!(f, "type = {}", kind.label()),
            Filter::KeyContains(s) => write!(f, "key contains {s:?}"),
            Filter::Visits(cmp, n) => write!(f, "visits {cmp} {n}"),
            Filter::DepthLe(d) => write!(f, "depth <= {d}"),
        }
    }
}

impl core::fmt::Display for Cmp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Cmp::Eq => "=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        })
    }
}

/// Comparison operator for numeric predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl Cmp {
    /// Applies the comparison.
    pub fn test(self, left: u32, right: u32) -> bool {
        match self {
            Cmp::Eq => left == right,
            Cmp::Gt => left > right,
            Cmp::Ge => left >= right,
            Cmp::Lt => left < right,
            Cmp::Le => left <= right,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_roundtrips_the_paper_queries() {
        for q in [
            "descendants(key = \"http://bad/\") where type = download",
            "ancestors(#42) where type = visit and visits >= 3 limit 1",
            "overlapping(latest(\"http://wine/\")) where key contains \"ticket\"",
            "nodes where depth <= 2 limit 10",
            "path(#1, #2)",
        ] {
            let parsed = super::super::parser::parse(q).unwrap();
            let printed = parsed.to_string();
            assert_eq!(
                super::super::parser::parse(&printed).unwrap(),
                parsed,
                "{q}"
            );
        }
    }

    fn selector_strategy() -> impl Strategy<Value = Selector> {
        prop_oneof![
            any::<u32>().prop_map(Selector::Id),
            "[a-z0-9:/._-]{1,30}".prop_map(Selector::Key),
            "[a-z0-9:/._-]{1,30}".prop_map(Selector::LatestVisit),
        ]
    }

    fn filter_strategy() -> impl Strategy<Value = Filter> {
        prop_oneof![
            (0u8..7).prop_map(|c| Filter::Kind(bp_graph::NodeKind::from_code(c).unwrap())),
            "[a-z0-9/._-]{1,20}".prop_map(Filter::KeyContains),
            (
                prop_oneof![
                    Just(Cmp::Eq),
                    Just(Cmp::Gt),
                    Just(Cmp::Ge),
                    Just(Cmp::Lt),
                    Just(Cmp::Le)
                ],
                any::<u32>()
            )
                .prop_map(|(c, n)| Filter::Visits(c, n)),
            (0usize..100).prop_map(Filter::DepthLe),
        ]
    }

    fn query_strategy() -> impl Strategy<Value = Query> {
        let shape = prop_oneof![
            selector_strategy().prop_map(Shape::Ancestors),
            selector_strategy().prop_map(Shape::Descendants),
            (selector_strategy(), selector_strategy()).prop_map(|(a, b)| Shape::Path(a, b)),
            Just(Shape::Nodes),
            selector_strategy().prop_map(Shape::Overlapping),
        ];
        (
            shape,
            prop::collection::vec(filter_strategy(), 0..4),
            prop::option::of(0usize..1000),
        )
            .prop_map(|(shape, filters, limit)| Query {
                shape,
                filters,
                limit,
            })
    }

    proptest! {
        /// Any AST prints to a string that parses back to the same AST
        /// (for keys without quote/backslash characters, which the lexer's
        /// simple strings don't escape).
        #[test]
        fn display_parse_roundtrip(query in query_strategy()) {
            let printed = query.to_string();
            let parsed = super::super::parser::parse(&printed)
                .unwrap_or_else(|e| panic!("{printed:?}: {e}"));
            prop_assert_eq!(parsed, query);
        }
    }

    #[test]
    fn cmp_semantics() {
        assert!(Cmp::Eq.test(3, 3));
        assert!(Cmp::Gt.test(4, 3));
        assert!(!Cmp::Gt.test(3, 3));
        assert!(Cmp::Ge.test(3, 3));
        assert!(Cmp::Lt.test(2, 3));
        assert!(Cmp::Le.test(3, 3));
        assert!(!Cmp::Le.test(4, 3));
    }
}
