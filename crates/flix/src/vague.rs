//! Vague queries with semantic and structural relaxation (paper §1.1).
//!
//! The paper motivates FliX with XXL-style queries such as
//! `//~movie[...]//~actor`: tag names match *similar* tags (from an
//! ontology) with a similarity score, and the child axis is relaxed to
//! descendants-or-self with relevance decaying in path length. This module
//! implements that scoring layer on top of the [`crate::pee`] evaluator:
//! the ontology is a pluggable [`TagSimilarity`] table, and the relevance
//! of a match is `sim(tag) * decay^(distance - 1)`, optionally discounted
//! once more per traversed link (the paper's "information within one
//! document is more coherent" refinement).

use crate::framework::Flix;
use crate::pee::QueryOptions;
use graphcore::{Distance, NodeId};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A similarity table: for a query tag name, the data tag names that may
/// match it and their scores in `(0, 1]`.
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

/// A vague descendants query: start element, target tag *name* (relaxed
/// through the similarity table).
#[derive(Debug, Clone)]
pub struct VagueQuery {
    /// Start element (global id).
    pub start: NodeId,
    /// Target tag name (before relaxation).
    pub target: String,
    /// Results below this relevance are dropped.
    pub min_score: f64,
    /// Maximum number of results (best-first).
    pub top_k: usize,
}

/// One scored result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredResult {
    /// The matching element.
    pub node: NodeId,
    /// Hop distance from the start element.
    pub distance: Distance,
    /// The data tag that matched (may differ from the query tag).
    pub matched_tag: String,
    /// Relevance in `(0, 1]`.
    pub score: f64,
}

/// Evaluator combining tag similarity with distance-decayed relevance.
#[derive(Debug, Clone)]
pub struct VagueEvaluator {
    /// The ontology-derived similarity table.
    pub sims: TagSimilarity,
    /// Per-hop relevance decay in `(0, 1]`; a direct child scores the full
    /// tag similarity, each further hop multiplies by this factor.
    pub distance_decay: f64,
}

impl VagueEvaluator {
    /// Creates an evaluator with the given decay.
    pub fn new(sims: TagSimilarity, distance_decay: f64) -> Self {
        assert!(
            distance_decay > 0.0 && distance_decay <= 1.0,
            "decay must be in (0, 1]"
        );
        Self {
            sims,
            distance_decay,
        }
    }

    /// Relevance of a match at `distance` with tag similarity `sim`.
    pub fn score(&self, sim: f64, distance: Distance) -> f64 {
        sim * self.distance_decay.powi(distance.saturating_sub(1) as i32)
    }

    /// Evaluates `start ~// target` over `flix`, returning results sorted
    /// by descending relevance (ties by distance, then node id).
    pub fn evaluate(&self, flix: &Flix, q: &VagueQuery) -> Vec<ScoredResult> {
        let tags = &flix.collection().collection.tags;
        // The smallest relevance still admissible bounds the search depth:
        // sim * decay^(d-1) >= min_score  =>  d <= 1 + log(min/sim)/log(decay)
        let mut best: HashMap<NodeId, ScoredResult> = HashMap::new();
        for (data_tag, sim) in self.sims.expansions(&q.target) {
            let Some(tag_id) = tags.get(&data_tag) else {
                continue; // tag not in this collection
            };
            let max_distance = if self.distance_decay < 1.0 && q.min_score > 0.0 {
                let d = 1.0 + (q.min_score / sim).ln() / self.distance_decay.ln();
                if d < 1.0 {
                    continue; // even a direct child scores below the floor
                }
                Some(d.floor() as Distance)
            } else {
                None
            };
            let opts = QueryOptions {
                max_distance,
                ..QueryOptions::default()
            };
            flix.for_each_descendant(q.start, tag_id, &opts, |r, _| {
                let score = self.score(sim, r.distance);
                if score >= q.min_score {
                    let entry = best.entry(r.node);
                    match entry {
                        std::collections::hash_map::Entry::Occupied(mut o) => {
                            if score > o.get().score {
                                o.insert(ScoredResult {
                                    node: r.node,
                                    distance: r.distance,
                                    matched_tag: data_tag.clone(),
                                    score,
                                });
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(ScoredResult {
                                node: r.node,
                                distance: r.distance,
                                matched_tag: data_tag.clone(),
                                score,
                            });
                        }
                    }
                }
                ControlFlow::Continue(())
            });
        }
        let mut out: Vec<ScoredResult> = best.into_values().collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.distance.cmp(&b.distance))
                .then(a.node.cmp(&b.node))
        });
        out.truncate(q.top_k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlixConfig;
    use std::sync::Arc;
    use xmlgraph::{Collection, Document};

    /// movie(0) -> cast(1) -> actor(2)
    ///          -> follows(3) -> science-fiction(4) -> cast(5) -> actor(6)
    fn movies() -> Arc<xmlgraph::CollectionGraph> {
        let mut c = Collection::new();
        let movie = c.tags.intern("movie");
        let cast = c.tags.intern("cast");
        let actor = c.tags.intern("actor");
        let follows = c.tags.intern("follows");
        let scifi = c.tags.intern("science-fiction");
        let mut d = Document::new("m.xml");
        let m = d.add_element(movie, None);
        let c1 = d.add_element(cast, Some(m));
        d.add_element(actor, Some(c1));
        let f = d.add_element(follows, Some(m));
        let s = d.add_element(scifi, Some(f));
        let c2 = d.add_element(cast, Some(s));
        d.add_element(actor, Some(c2));
        c.add_document(d).unwrap();
        Arc::new(c.seal())
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
    fn decay_ranks_near_matches_higher() {
        let cg = movies();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let eval = VagueEvaluator::new(TagSimilarity::new(), 0.8);
        let res = eval.evaluate(
            &flix,
            &VagueQuery {
                start: 0,
                target: "actor".into(),
                min_score: 0.0,
                top_k: 10,
            },
        );
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].node, 2, "direct cast actor first");
        assert!(res[0].score > res[1].score);
        // distance 2 => decay^1, distance 4 => decay^3
        assert!((res[0].score - 0.8).abs() < 1e-9);
        assert!((res[1].score - 0.8f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn tag_similarity_finds_scifi_as_movie() {
        let cg = movies();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let mut sims = TagSimilarity::new();
        sims.add("movie", "science-fiction", 0.9);
        let eval = VagueEvaluator::new(sims, 0.8);
        let res = eval.evaluate(
            &flix,
            &VagueQuery {
                start: 0,
                target: "movie".into(),
                min_score: 0.0,
                top_k: 10,
            },
        );
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].node, 4);
        assert_eq!(res[0].matched_tag, "science-fiction");
        // sim 0.9 at distance 2: 0.9 * 0.8
        assert!((res[0].score - 0.72).abs() < 1e-9);
    }

    #[test]
    fn min_score_prunes_and_bounds_depth() {
        let cg = movies();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let eval = VagueEvaluator::new(TagSimilarity::new(), 0.5);
        let res = eval.evaluate(
            &flix,
            &VagueQuery {
                start: 0,
                target: "actor".into(),
                min_score: 0.3,
                top_k: 10,
            },
        );
        // far actor scores 0.5^3 = 0.125 < 0.3 -> dropped
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].node, 2);
    }

    #[test]
    fn top_k_truncates() {
        let cg = movies();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let eval = VagueEvaluator::new(TagSimilarity::new(), 0.9);
        let res = eval.evaluate(
            &flix,
            &VagueQuery {
                start: 0,
                target: "actor".into(),
                min_score: 0.0,
                top_k: 1,
            },
        );
        assert_eq!(res.len(), 1);
    }

    #[test]
    #[should_panic(expected = "similarity must be")]
    fn invalid_similarity_rejected() {
        TagSimilarity::new().add("a", "b", 1.5);
    }
}
