//! Path-expression queries with semantic and structural vagueness — the
//! query layer the paper's §1.1 motivates and Figure 2 places above the
//! Path Expression Evaluator ("Query Processor of an XML Search Engine").
//!
//! The supported language is the XXL-flavoured fragment the paper uses:
//!
//! ```text
//! //~movie[title ~ "Matrix: Revolutions"]//~actor//~movie
//! /movie[title = "Matrix: Revolutions"]/actor/movie
//! //inproceedings//cite//*
//! ```
//!
//! * `/name` — child step (links count as child edges, §1.1),
//! * `//name` — descendants-or-self step with distance-decayed relevance,
//! * `~name` — the tag matches ontology-similar tags too ([`TagSimilarity`]),
//! * `*` — any tag,
//! * `[child = "text"]` — equality predicate on a child's text,
//! * `[child ~ "text"]` — vague text predicate (normalised token overlap).
//!
//! Every result carries a relevance score: the product over steps of
//! `tag_similarity × decay^(distance-1)` and over predicates of their text
//! similarity — the scoring model sketched in §1.1 (a `movie/cast/actor`
//! match scoring higher than `movie/follows/movie/cast/actor`).

use crate::framework::Flix;
use crate::pee::QueryOptions;
use graphcore::NodeId;
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A similarity table: for a query tag name, the data tag names that may
/// match it and their scores in `(0, 1]` — the pluggable ontology behind
/// `~name` tests.
///
/// The identity similarity (`tag` matches itself at 1.0) is implicit.
#[derive(Debug, Clone, Default)]
pub struct TagSimilarity {
    table: HashMap<String, Vec<(String, f64)>>,
}

impl TagSimilarity {
    /// Empty table: only exact tag matches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that query tag `query` also matches data tag `data` with
    /// similarity `sim`.
    ///
    /// # Panics
    /// If `sim` is not in `(0, 1]`.
    pub fn add(&mut self, query: &str, data: &str, sim: f64) -> &mut Self {
        assert!(sim > 0.0 && sim <= 1.0, "similarity must be in (0, 1]");
        self.table
            .entry(query.to_string())
            .or_default()
            .push((data.to_string(), sim));
        self
    }

    /// All data tags matching `query`, including the identity match.
    pub fn expansions(&self, query: &str) -> Vec<(String, f64)> {
        let mut out = vec![(query.to_string(), 1.0)];
        if let Some(list) = self.table.get(query) {
            for (data, sim) in list {
                if data != query {
                    out.push((data.clone(), *sim));
                }
            }
        }
        out
    }
}

/// Axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAxis {
    /// `/` — direct children (including link targets).
    Child,
    /// `//` — descendants (strict), relevance decaying with distance.
    Descendants,
}

/// Tag test of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// Exact tag name.
    Exact(String),
    /// `~name`: tag name relaxed through the similarity table.
    Similar(String),
    /// `*`: any tag.
    Any,
}

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `=`: case-insensitive equality.
    Equals,
    /// `~`: vague match (token overlap).
    Similar,
}

/// A `[child op "value"]` predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Child tag whose text is tested.
    pub child: String,
    /// Comparison operator.
    pub op: PredOp,
    /// Comparison value.
    pub value: String,
}

/// One location step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The axis.
    pub axis: StepAxis,
    /// The tag test.
    pub name: NameTest,
    /// Optional predicate.
    pub predicate: Option<Predicate>,
}

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathQuery {
    /// The steps, outermost first.
    pub steps: Vec<Step>,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset of the failure.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for QueryParseError {}

impl PathQuery {
    /// Parses a path expression.
    pub fn parse(input: &str) -> Result<Self, QueryParseError> {
        let b = input.as_bytes();
        let mut pos = 0usize;
        let mut steps = Vec::new();
        let err = |pos: usize, m: &str| QueryParseError {
            position: pos,
            message: m.to_string(),
        };
        let skip_ws = |b: &[u8], pos: &mut usize| {
            while *pos < b.len() && b[*pos].is_ascii_whitespace() {
                *pos += 1;
            }
        };
        skip_ws(b, &mut pos);
        while pos < b.len() {
            // axis
            let axis = if b[pos..].starts_with(b"//") {
                pos += 2;
                StepAxis::Descendants
            } else if b[pos] == b'/' {
                pos += 1;
                StepAxis::Child
            } else {
                return Err(err(pos, "expected '/' or '//'"));
            };
            skip_ws(b, &mut pos);
            // name test
            let similar = pos < b.len() && b[pos] == b'~';
            if similar {
                pos += 1;
            }
            let name = if pos < b.len() && b[pos] == b'*' {
                pos += 1;
                if similar {
                    return Err(err(pos, "'~*' is not a valid name test"));
                }
                NameTest::Any
            } else {
                let start = pos;
                while pos < b.len()
                    && (b[pos].is_ascii_alphanumeric()
                        || matches!(b[pos], b'-' | b'_' | b'.' | b':'))
                {
                    pos += 1;
                }
                if pos == start {
                    return Err(err(pos, "expected a tag name or '*'"));
                }
                let n = input[start..pos].to_string();
                if similar {
                    NameTest::Similar(n)
                } else {
                    NameTest::Exact(n)
                }
            };
            skip_ws(b, &mut pos);
            // optional predicate
            let predicate = if pos < b.len() && b[pos] == b'[' {
                pos += 1;
                skip_ws(b, &mut pos);
                let start = pos;
                while pos < b.len()
                    && (b[pos].is_ascii_alphanumeric()
                        || matches!(b[pos], b'-' | b'_' | b'.' | b':'))
                {
                    pos += 1;
                }
                if pos == start {
                    return Err(err(pos, "expected a child tag in predicate"));
                }
                let child = input[start..pos].to_string();
                skip_ws(b, &mut pos);
                let op = match b.get(pos) {
                    Some(b'=') => {
                        pos += 1;
                        PredOp::Equals
                    }
                    Some(b'~') => {
                        pos += 1;
                        PredOp::Similar
                    }
                    _ => return Err(err(pos, "expected '=' or '~' in predicate")),
                };
                skip_ws(b, &mut pos);
                if b.get(pos) != Some(&b'"') {
                    return Err(err(pos, "expected a quoted value"));
                }
                pos += 1;
                let vstart = pos;
                while pos < b.len() && b[pos] != b'"' {
                    pos += 1;
                }
                if pos >= b.len() {
                    return Err(err(pos, "unterminated string"));
                }
                let value = input[vstart..pos].to_string();
                pos += 1;
                skip_ws(b, &mut pos);
                if b.get(pos) != Some(&b']') {
                    return Err(err(pos, "expected ']'"));
                }
                pos += 1;
                Some(Predicate { child, op, value })
            } else {
                None
            };
            steps.push(Step {
                axis,
                name,
                predicate,
            });
            skip_ws(b, &mut pos);
        }
        if steps.is_empty() {
            return Err(err(0, "empty path expression"));
        }
        Ok(Self { steps })
    }
}

/// A scored query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBinding {
    /// The bound element.
    pub node: NodeId,
    /// Relevance in `(0, 1]`.
    pub score: f64,
}

/// Evaluates [`PathQuery`]s over a framework with vague semantics.
pub struct QueryEngine<'f> {
    flix: &'f Flix,
    /// Ontology-derived tag similarity for `~name` tests.
    pub sims: TagSimilarity,
    /// Per-hop relevance decay for `//` steps.
    pub distance_decay: f64,
    /// Results below this score are dropped.
    pub min_score: f64,
}

impl<'f> QueryEngine<'f> {
    /// Creates an engine with the given vagueness parameters.
    pub fn new(flix: &'f Flix, sims: TagSimilarity, distance_decay: f64, min_score: f64) -> Self {
        assert!(distance_decay > 0.0 && distance_decay <= 1.0);
        Self {
            flix,
            sims,
            distance_decay,
            min_score,
        }
    }

    /// An engine with exact semantics (no similarity, no decay below 1).
    pub fn strict(flix: &'f Flix) -> Self {
        Self::new(flix, TagSimilarity::new(), 1.0, 0.0)
    }

    /// The tags (with similarity scores) a name test admits.
    fn admitted_tags(&self, name: &NameTest) -> Vec<(u32, f64)> {
        let tags = &self.flix.collection().collection.tags;
        match name {
            NameTest::Exact(n) => tags.get(n).map(|t| (t, 1.0)).into_iter().collect(),
            NameTest::Similar(n) => self
                .sims
                .expansions(n)
                .into_iter()
                .filter_map(|(data, sim)| tags.get(&data).map(|t| (t, sim)))
                .collect(),
            NameTest::Any => (0..tags.len() as u32).map(|t| (t, 1.0)).collect(),
        }
    }

    /// Text similarity for vague predicates: 1.0 on case-insensitive
    /// equality, otherwise the Jaccard overlap of lower-cased token sets.
    pub fn text_similarity(a: &str, b: &str) -> f64 {
        let na = a.trim().to_lowercase();
        let nb = b.trim().to_lowercase();
        if na == nb {
            return 1.0;
        }
        let tokens = |s: &'_ str| -> std::collections::HashSet<String> {
            s.split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(str::to_string)
                .collect()
        };
        let ta = tokens(&na);
        let tb = tokens(&nb);
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count() as f64;
        let union = ta.union(&tb).count() as f64;
        inter / union
    }

    fn predicate_score(&self, node: NodeId, pred: &Predicate) -> f64 {
        let cg = self.flix.collection();
        let Some(child_tag) = cg.collection.tags.get(&pred.child) else {
            return 0.0;
        };
        let mut best: f64 = 0.0;
        for &c in cg.graph.successors(node) {
            if cg.tag_of(c) != child_tag {
                continue;
            }
            let text = cg.element(c).text();
            let s = match pred.op {
                PredOp::Equals => {
                    if text.trim().eq_ignore_ascii_case(pred.value.trim()) {
                        1.0
                    } else {
                        0.0
                    }
                }
                PredOp::Similar => Self::text_similarity(text, &pred.value),
            };
            best = best.max(s);
        }
        best
    }

    /// Evaluates `q` over the whole collection — its first step is anchored
    /// at the document roots (`/name`) or matches any element (`//name`) —
    /// returning bindings of the final step sorted by descending score
    /// (ties by node id).
    pub fn evaluate(&self, q: &PathQuery) -> Vec<QueryBinding> {
        let cg = self.flix.collection();
        let mut current: HashMap<NodeId, f64> = HashMap::new();
        let first = &q.steps[0];
        for (tag, sim) in self.admitted_tags(&first.name) {
            match first.axis {
                StepAxis::Child => {
                    // `/name`: document roots with this tag
                    for d in 0..cg.collection.doc_count() as u32 {
                        let r = cg.doc_root(d);
                        if cg.tag_of(r) == tag {
                            merge(&mut current, r, sim);
                        }
                    }
                }
                StepAxis::Descendants => {
                    // `//name`: any element with this tag
                    for &node in cg.nodes_with_tag(tag) {
                        merge(&mut current, node, sim);
                    }
                }
            }
        }
        apply_predicate(self, &mut current, first.predicate.as_ref());
        self.advance(current, &q.steps[1..])
    }

    /// Evaluates `q` relative to one element: every step, the first
    /// included, is taken from `start` (which binds at score 1), so
    /// `//~actor` is the vague descendants query `start//~actor` of §1.1.
    /// A `start` outside the collection binds nothing.
    pub fn evaluate_from(&self, start: NodeId, q: &PathQuery) -> Vec<QueryBinding> {
        if start as usize >= self.flix.collection().node_count() {
            return Vec::new();
        }
        self.advance(HashMap::from([(start, 1.0)]), &q.steps)
    }

    /// Takes the binding set `current` through `steps` and ranks what the
    /// last one binds.
    fn advance(&self, mut current: HashMap<NodeId, f64>, steps: &[Step]) -> Vec<QueryBinding> {
        let cg = self.flix.collection();
        for step in steps {
            let admitted = self.admitted_tags(&step.name);
            let mut next: HashMap<NodeId, f64> = HashMap::new();
            for (&node, &score) in &current {
                if score < self.min_score {
                    continue;
                }
                match step.axis {
                    StepAxis::Child => {
                        for &c in cg.graph.successors(node) {
                            for &(tag, sim) in &admitted {
                                if cg.tag_of(c) == tag {
                                    merge(&mut next, c, score * sim);
                                }
                            }
                        }
                    }
                    StepAxis::Descendants => {
                        for &(tag, sim) in &admitted {
                            // bound the exploration by the admissible score
                            let max_distance = if self.distance_decay < 1.0
                                && self.min_score > 0.0
                                && score * sim > 0.0
                            {
                                let d = 1.0
                                    + (self.min_score / (score * sim)).ln()
                                        / self.distance_decay.ln();
                                if d < 1.0 {
                                    continue;
                                }
                                Some(d.floor() as u32)
                            } else {
                                None
                            };
                            let opts = QueryOptions {
                                max_distance,
                                ..QueryOptions::default()
                            };
                            self.flix.for_each_descendant(node, tag, &opts, |r, _| {
                                let s = score
                                    * sim
                                    * self
                                        .distance_decay
                                        .powi(r.distance.saturating_sub(1) as i32);
                                if s >= self.min_score {
                                    merge(&mut next, r.node, s);
                                }
                                ControlFlow::Continue(())
                            });
                        }
                    }
                }
            }
            apply_predicate(self, &mut next, step.predicate.as_ref());
            current = next;
        }

        let mut out: Vec<QueryBinding> = current
            .into_iter()
            .filter(|&(_, s)| s >= self.min_score)
            .map(|(node, score)| QueryBinding { node, score })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        out
    }
}

fn merge(map: &mut HashMap<NodeId, f64>, node: NodeId, score: f64) {
    let e = map.entry(node).or_insert(0.0);
    if score > *e {
        *e = score;
    }
}

fn apply_predicate(
    engine: &QueryEngine<'_>,
    map: &mut HashMap<NodeId, f64>,
    pred: Option<&Predicate>,
) {
    if let Some(p) = pred {
        map.retain(|&node, score| {
            let s = engine.predicate_score(node, p);
            *score *= s;
            s > 0.0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlixConfig;
    use std::sync::Arc;
    use xmlgraph::{parse_document, Collection, LinkSpec};

    fn movie_world() -> (Arc<xmlgraph::CollectionGraph>, Flix) {
        let imdb = r#"
            <movie id="m1">
              <title>Matrix: Revolutions</title>
              <cast>
                <actor id="a1">Keanu Reeves
                  <appears-in xlink:href="scifi.xml#sf1"/>
                </actor>
              </cast>
            </movie>"#;
        let scifi = r#"
            <collection>
              <science-fiction id="sf1">
                <title>Matrix 3</title>
              </science-fiction>
              <movie id="m9"><title>Heat</title></movie>
            </collection>"#;
        let mut c = Collection::new();
        let spec = LinkSpec::default();
        for (n, t) in [("imdb.xml", imdb), ("scifi.xml", scifi)] {
            let d = parse_document(n, t, &mut c.tags, &spec).unwrap();
            c.add_document(d).unwrap();
        }
        let cg = Arc::new(c.seal());
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        (cg, flix)
    }

    #[test]
    fn parser_handles_paper_query() {
        let q =
            PathQuery::parse(r#"//~movie[title ~ "Matrix: Revolutions"]//~actor//~movie"#).unwrap();
        assert_eq!(q.steps.len(), 3);
        assert_eq!(q.steps[0].axis, StepAxis::Descendants);
        assert_eq!(q.steps[0].name, NameTest::Similar("movie".into()));
        let p = q.steps[0].predicate.as_ref().unwrap();
        assert_eq!(p.child, "title");
        assert_eq!(p.op, PredOp::Similar);
        assert_eq!(p.value, "Matrix: Revolutions");
        assert_eq!(q.steps[1].name, NameTest::Similar("actor".into()));
        assert!(q.steps[1].predicate.is_none());
    }

    #[test]
    fn parser_child_axis_and_star() {
        let q = PathQuery::parse(r#"/movie/cast/*"#).unwrap();
        assert_eq!(q.steps.len(), 3);
        assert!(q.steps.iter().all(|s| s.axis == StepAxis::Child));
        assert_eq!(q.steps[2].name, NameTest::Any);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(PathQuery::parse("").is_err());
        assert!(PathQuery::parse("movie").is_err());
        assert!(PathQuery::parse("//").is_err());
        assert!(PathQuery::parse(r#"//a[b"x"]"#).is_err());
        assert!(PathQuery::parse(r#"//a[b = "x"#).is_err());
        assert!(PathQuery::parse("//~*").is_err());
    }

    #[test]
    fn strict_query_finds_exact_path() {
        let (cg, flix) = movie_world();
        let engine = QueryEngine::strict(&flix);
        let q = PathQuery::parse(r#"/movie/cast/actor"#).unwrap();
        let res = engine.evaluate(&q);
        assert_eq!(res.len(), 1);
        assert!(cg.element(res[0].node).text().contains("Keanu"));
        assert!((res[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strict_paper_query_returns_nothing() {
        // the §1.1 point: the exact query fails on heterogeneous data
        let (_, flix) = movie_world();
        let engine = QueryEngine::strict(&flix);
        let q = PathQuery::parse(r#"/movie[title = "Matrix: Revolutions"]/actor/movie"#).unwrap();
        assert!(engine.evaluate(&q).is_empty());
    }

    #[test]
    fn relaxed_paper_query_finds_scifi() {
        let (cg, flix) = movie_world();
        let mut sims = TagSimilarity::new();
        sims.add("movie", "science-fiction", 0.9);
        let engine = QueryEngine::new(&flix, sims, 0.8, 0.01);
        let q =
            PathQuery::parse(r#"//~movie[title ~ "Matrix: Revolutions"]//actor//~movie"#).unwrap();
        let res = engine.evaluate(&q);
        assert_eq!(res.len(), 1, "{res:?}");
        let tag = cg.collection.tags.name(cg.tag_of(res[0].node));
        assert_eq!(tag, "science-fiction");
        assert!(res[0].score > 0.0 && res[0].score < 1.0);
    }

    #[test]
    fn equality_predicate_filters() {
        let (cg, flix) = movie_world();
        let engine = QueryEngine::strict(&flix);
        let hit = PathQuery::parse(r#"//movie[title = "Heat"]"#).unwrap();
        let res = engine.evaluate(&hit);
        assert_eq!(res.len(), 1);
        assert_eq!(cg.collection.tags.name(cg.tag_of(res[0].node)), "movie");
        let miss = PathQuery::parse(r#"//movie[title = "Cold"]"#).unwrap();
        assert!(engine.evaluate(&miss).is_empty());
    }

    #[test]
    fn text_similarity_behaviour() {
        assert_eq!(QueryEngine::text_similarity("Matrix 3", "matrix 3"), 1.0);
        let s = QueryEngine::text_similarity("Matrix: Revolutions", "Matrix 3");
        assert!(s > 0.0 && s < 1.0);
        assert_eq!(QueryEngine::text_similarity("abc", "xyz"), 0.0);
        assert_eq!(QueryEngine::text_similarity("", "x"), 0.0);
    }

    #[test]
    fn vague_predicate_scores_scale_results() {
        let (_, flix) = movie_world();
        let engine = QueryEngine::new(&flix, TagSimilarity::new(), 0.9, 0.0);
        let q = PathQuery::parse(r#"//science-fiction[title ~ "Matrix: Revolutions"]"#).unwrap();
        let res = engine.evaluate(&q);
        assert_eq!(res.len(), 1);
        assert!(res[0].score > 0.0 && res[0].score < 1.0);
    }

    #[test]
    fn min_score_prunes_deep_matches() {
        let (_, flix) = movie_world();
        let engine = QueryEngine::new(&flix, TagSimilarity::new(), 0.5, 0.6);
        // title two hops below movie scores 0.5 < 0.6 -> pruned
        let q = PathQuery::parse(r#"//movie//title"#).unwrap();
        let res = engine.evaluate(&q);
        // both movies' own titles are direct children (score 1.0); the
        // title reached through the actor link chain scores 0.5^3 < 0.6
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|r| (r.score - 1.0).abs() < 1e-9));
    }

    /// movie(0) -> cast(1) -> actor(2)
    ///          -> follows(3) -> science-fiction(4) -> cast(5) -> actor(6)
    fn movies() -> Flix {
        let mut c = Collection::new();
        let tag = |c: &mut Collection, name| c.tags.intern(name);
        let mut d = xmlgraph::Document::new("m.xml");
        let m = d.add_element(tag(&mut c, "movie"), None);
        let c1 = d.add_element(tag(&mut c, "cast"), Some(m));
        d.add_element(tag(&mut c, "actor"), Some(c1));
        let f = d.add_element(tag(&mut c, "follows"), Some(m));
        let s = d.add_element(tag(&mut c, "science-fiction"), Some(f));
        let c2 = d.add_element(tag(&mut c, "cast"), Some(s));
        d.add_element(tag(&mut c, "actor"), Some(c2));
        c.add_document(d).unwrap();
        Flix::build(Arc::new(c.seal()), FlixConfig::Naive)
    }

    #[test]
    fn expansion_includes_identity() {
        let mut sims = TagSimilarity::new();
        sims.add("movie", "science-fiction", 0.9);
        let e = sims.expansions("movie");
        assert_eq!(e[0], ("movie".to_string(), 1.0));
        assert_eq!(e[1], ("science-fiction".to_string(), 0.9));
        assert_eq!(sims.expansions("actor").len(), 1);
    }

    #[test]
    #[should_panic(expected = "similarity must be")]
    fn invalid_similarity_rejected() {
        TagSimilarity::new().add("a", "b", 1.5);
    }

    #[test]
    fn decay_ranks_near_matches_higher() {
        let flix = movies();
        let engine = QueryEngine::new(&flix, TagSimilarity::new(), 0.8, 0.0);
        let res = engine.evaluate_from(0, &PathQuery::parse("//~actor").unwrap());
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].node, 2, "direct cast actor first");
        // distance 2 => decay^1, distance 4 => decay^3
        assert!((res[0].score - 0.8).abs() < 1e-9);
        assert!((res[1].score - 0.8f64.powi(3)).abs() < 1e-9);
        // the anchor is the start, not the document roots
        let below = engine.evaluate_from(4, &PathQuery::parse("//actor").unwrap());
        assert_eq!(below.iter().map(|b| b.node).collect::<Vec<_>>(), vec![6]);
        let beyond = flix.collection().node_count() as NodeId + 5;
        assert!(engine
            .evaluate_from(beyond, &PathQuery::parse("//actor").unwrap())
            .is_empty());
    }

    #[test]
    fn tag_similarity_finds_scifi_as_movie() {
        let flix = movies();
        let mut sims = TagSimilarity::new();
        sims.add("movie", "science-fiction", 0.9);
        let engine = QueryEngine::new(&flix, sims, 0.8, 0.0);
        let res = engine.evaluate_from(0, &PathQuery::parse("//~movie").unwrap());
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].node, 4);
        // sim 0.9 at distance 2: 0.9 * 0.8
        assert!((res[0].score - 0.72).abs() < 1e-9);
    }

    #[test]
    fn min_score_prunes_and_bounds_depth() {
        let flix = movies();
        let engine = QueryEngine::new(&flix, TagSimilarity::new(), 0.5, 0.3);
        let res = engine.evaluate_from(0, &PathQuery::parse("//actor").unwrap());
        // far actor scores 0.5^3 = 0.125 < 0.3 -> dropped
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].node, 2);
    }
}
