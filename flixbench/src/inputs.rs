//! Seeded inputs: the corpus, the benchmark's own query samplers, the
//! expected answers with their oracle check, and the input fingerprint.
//!
//! Everything here is a pure function of `--corpus-seed` (the collection),
//! `--seed` (query order, query sample, request sequence) and the corpus
//! scale (full, or a twentieth under `--smoke`):
//! the program under test receives only the generated collection and
//! queries.

use flix::{Flix, PeeStats, QueryOptions, QueryResult};
use graphcore::{bfs_distances, bfs_from, NodeId, INFINITE_DISTANCE};
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};
use xmlgraph::{CollectionGraph, TagId};

/// SplitMix64: the benchmark's own generator, so a change to the vendored
/// `rand` stand-in cannot move the query sample.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

/// One `start//tag` query with its options.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Start element (global id).
    pub start: NodeId,
    /// Target tag.
    pub tag: TagId,
    /// Evaluation options (never carries a deadline).
    pub opts: QueryOptions,
}

/// The sealed corpus for `seed`, at `scale` × the paper's 6,210 documents.
pub fn corpus(seed: u64, scale: f64) -> xmlgraph::Collection {
    let base = DblpConfig::paper_scale();
    generate_dblp(&DblpConfig {
        documents: ((base.documents as f64 * scale) as usize).max(60),
        seed,
        ..base
    })
}

/// The two target tags every query alternates between. Every publication
/// carries exactly one `title` and one to four `author`s.
pub fn target_tags(cg: &CollectionGraph) -> Result<[TagId; 2], String> {
    let get = |name: &str| {
        cg.collection
            .tags
            .get(name)
            .ok_or_else(|| format!("corpus has no <{name}> elements"))
    };
    Ok([get("title")?, get("author")?])
}

/// Hub sampler: roots of the documents whose document-graph reachable set
/// holds `lo..=400` documents (`lo` is 8 at full scale), in document
/// order. These are the citation hubs whose `hub//tag` evaluation chases
/// hundreds of links — unlike `workloads::descendant_queries`, whose
/// uniform starts are bimodal (microseconds or seconds).
pub fn hubs(cg: &CollectionGraph, scale: f64) -> Vec<NodeId> {
    let lo = ((8.0 * scale).round() as usize).max(2);
    (0..cg.collection.doc_count() as u32)
        .filter(|&d| {
            // Most documents cite nothing: skip their BFS.
            !cg.doc_graph.successors(d).is_empty()
                && (lo..=400).contains(&bfs_from(&cg.doc_graph, d).len())
        })
        .map(|d| cg.doc_root(d))
        .collect()
}

/// Seeded Fisher-Yates shuffle: `--seed` decides the order the hubs are
/// queried in.
pub fn shuffle(items: &mut [NodeId], seed: u64) {
    let mut rng = SplitMix::new(seed ^ 0x4855_4253);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `hub//tag` for every hub and both tags, all with `opts`. Every hub
/// carries both tags so the set of queries — and with it the work in one
/// pass over them — does not depend on the seed; only their order does.
pub fn hub_queries(hubs: &[NodeId], tags: [TagId; 2], opts: QueryOptions) -> Vec<Query> {
    hubs.iter()
        .flat_map(|&start| tags.map(|tag| Query { start, tag, opts }))
        .collect()
}

/// The `served` mix: up to 4,096 distinct top-10, distance ≤ 2 queries
/// from seeded random document roots, and a request sequence over them
/// drawn with skew `idx = ⌊N·u³⌋`, so a minority of queries is hot and the
/// working set still exceeds the 4 × 256-entry result cache.
pub fn served_mix(
    cg: &CollectionGraph,
    tags: [TagId; 2],
    seed: u64,
    requests: usize,
) -> (Vec<Query>, Vec<u32>) {
    let mut rng = SplitMix::new(seed ^ 0x5E27_ED00);
    let mut docs: Vec<u32> = (0..cg.collection.doc_count() as u32).collect();
    // Fisher-Yates prefix: the first `n` entries are a uniform sample.
    let n = docs.len().min(4096);
    for i in 0..n {
        let j = i + rng.below(docs.len() - i);
        docs.swap(i, j);
    }
    let opts = QueryOptions {
        max_distance: Some(2),
        max_results: Some(10),
        ..QueryOptions::default()
    };
    let distinct: Vec<Query> = docs[..n]
        .iter()
        .enumerate()
        .map(|(i, &d)| Query {
            start: cg.doc_root(d),
            tag: tags[i % 2],
            opts,
        })
        .collect();
    let sequence = (0..requests)
        .map(|_| {
            let u = rng.next_f64();
            ((n as f64 * u * u * u) as usize).min(n - 1) as u32
        })
        .collect();
    (distinct, sequence)
}

/// Expected answers: every distinct query evaluated through plain `Flix`.
/// Uncapped queries are additionally checked against the BFS oracle: the
/// answer must be exactly the reachable nodes carrying the tag. Returns
/// the answers, the evaluator counters summed over the queries, and the
/// number of oracle mismatches.
pub fn expected_answers(
    flix: &Flix,
    cg: &CollectionGraph,
    queries: &[Query],
) -> (Vec<Arc<Vec<QueryResult>>>, PeeStats, usize) {
    let mut wrong = 0usize;
    let mut pee = PeeStats::default();
    let answers = queries
        .iter()
        .map(|q| {
            let outcome = flix.find_descendants_outcome(q.start, q.tag, &q.opts);
            pee.absorb(outcome.stats);
            let got = outcome.results;
            if q.opts.max_distance.is_none() && q.opts.max_results.is_none() {
                let dist = bfs_distances(&cg.graph, q.start);
                let mut want: Vec<NodeId> = cg
                    .nodes_with_tag(q.tag)
                    .iter()
                    .copied()
                    .filter(|&v| {
                        dist[v as usize] != INFINITE_DISTANCE
                            && (v != q.start || q.opts.include_start)
                    })
                    .collect();
                let mut have: Vec<NodeId> = got.iter().map(|r| r.node).collect();
                want.sort_unstable();
                have.sort_unstable();
                if want != have {
                    wrong += 1;
                }
            }
            Arc::new(got)
        })
        .collect();
    (answers, pee, wrong)
}

/// Cheap per-response check used while timing: length and first/last
/// result. The traced pass compares whole vectors instead.
pub fn same_ends(got: &[QueryResult], want: &[QueryResult]) -> bool {
    got.len() == want.len() && got.first() == want.first() && got.last() == want.last()
}

/// FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds the eight little-endian bytes of `word` in.
    pub fn word(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// What the run's inputs were: corpus counts, and hashes over the ordered
/// query list and over the expected result lengths. Pinned per seed in
/// `baseline.json`, so an edit to `crates/workloads` or to the samplers
/// reads as "inputs changed", never as a speed-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Documents in the corpus.
    pub docs: usize,
    /// Elements in the corpus.
    pub elements: usize,
    /// Resolved link edges.
    pub links: usize,
    /// Distinct queries.
    pub queries: usize,
    /// FNV-1a over `(start, tag, max_distance, max_results)` in order.
    pub query_hash: u64,
    /// FNV-1a over the expected result lengths in order.
    pub answer_hash: u64,
}

impl Fingerprint {
    /// Fingerprints `queries` (and, for `served`, the request `sequence`)
    /// with their expected `answers` over `cg`.
    pub fn of(
        cg: &CollectionGraph,
        queries: &[Query],
        sequence: &[u32],
        answers: &[Arc<Vec<QueryResult>>],
    ) -> Self {
        let some = |o: Option<u64>| o.map_or(0, |v| v + 1);
        let mut qh = Fnv::default();
        for q in queries {
            qh.word(u64::from(q.start));
            qh.word(u64::from(q.tag));
            qh.word(some(q.opts.max_distance.map(u64::from)));
            qh.word(some(q.opts.max_results.map(|k| k as u64)));
        }
        for &i in sequence {
            qh.word(u64::from(i));
        }
        let mut ah = Fnv::default();
        for a in answers {
            ah.word(a.len() as u64);
        }
        let stats = cg.stats();
        Self {
            docs: stats.documents,
            elements: stats.elements,
            links: stats.links,
            queries: queries.len(),
            query_hash: qh.0,
            answer_hash: ah.0,
        }
    }

    /// One-line rendering, also the form pinned in `baseline.json`.
    pub fn render(&self) -> String {
        format!(
            "docs={} elements={} links={} queries={} qhash={:016x} ahash={:016x}",
            self.docs, self.elements, self.links, self.queries, self.query_hash, self.answer_hash
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; of eight zero
        // bytes it is the basis multiplied by the prime eight times.
        assert_eq!(Fnv::default().0, 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv::default();
        h.word(0);
        let mut want = 0xCBF2_9CE4_8422_2325u64;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(h.0, want);
        // Order matters.
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let build = |seed| {
            let cg = corpus(seed, 0.02).seal();
            let tags = target_tags(&cg).expect("tags");
            let (distinct, sequence) = served_mix(&cg, tags, seed, 64);
            let flix = Flix::build(Arc::new(cg.clone()), flix::FlixConfig::MaximalPpo);
            let (answers, _, wrong) = expected_answers(&flix, &cg, &distinct);
            assert_eq!(wrong, 0);
            Fingerprint::of(&cg, &distinct, &sequence, &answers)
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn uncapped_hub_answers_match_the_bfs_oracle() {
        let cg = corpus(3, 0.05).seal();
        let tags = target_tags(&cg).expect("tags");
        let mut hubs = hubs(&cg, 0.05);
        assert!(!hubs.is_empty(), "scaled corpus still has hubs");
        let in_order = hubs.clone();
        shuffle(&mut hubs, 9);
        assert_ne!(hubs, in_order, "the seed reorders the hubs");
        let mut sorted = hubs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, in_order, "and keeps every one of them");
        let queries = hub_queries(&hubs, tags, QueryOptions::default());
        let flix = Flix::build(Arc::new(cg.clone()), flix::FlixConfig::MaximalPpo);
        let (answers, pee, wrong) = expected_answers(&flix, &cg, &queries);
        assert_eq!(wrong, 0);
        assert!(answers.iter().any(|a| !a.is_empty()));
        assert!(pee.entries_popped >= queries.len());
    }

    #[test]
    fn skewed_sequence_favours_low_indices() {
        let cg = corpus(5, 0.2).seal();
        let tags = target_tags(&cg).expect("tags");
        let (distinct, sequence) = served_mix(&cg, tags, 5, 10_000);
        let n = distinct.len();
        assert!(sequence.iter().all(|&i| (i as usize) < n));
        let low = sequence.iter().filter(|&&i| (i as usize) < n / 4).count();
        // P(idx < N/4) = (1/4)^(1/3) ≈ 0.63.
        assert!((5_500..7_100).contains(&low), "low-quarter draws: {low}");
    }
}
