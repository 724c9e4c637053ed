//! Link-free tree collections: the regime where plain PPO wins.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{Collection, Document};

/// Configuration for random tree documents.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Number of documents.
    pub documents: usize,
    /// Elements per document (exact).
    pub elements_per_doc: usize,
    /// Maximum children per element.
    pub max_fanout: usize,
    /// Number of distinct tag names.
    pub tag_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            documents: 50,
            elements_per_doc: 100,
            max_fanout: 5,
            tag_count: 12,
            seed: 42,
        }
    }
}

/// Generates `cfg.documents` random tree documents with no links at all.
///
/// Each document is built by attaching every new element to a uniformly
/// random existing element with spare fan-out capacity, giving natural
/// depth/width variation.
pub fn generate_trees(cfg: &TreeConfig) -> Collection {
    assert!(cfg.elements_per_doc >= 1);
    assert!(cfg.max_fanout >= 1);
    assert!(cfg.tag_count >= 1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut c = Collection::new();
    let tags: Vec<u32> = (0..cfg.tag_count)
        .map(|i| c.tags.intern(&format!("t{i}")))
        .collect();
    for doc_i in 0..cfg.documents {
        let mut d = Document::new(format!("trees/doc{doc_i}.xml"));
        let root = d.add_element(tags[rng.gen_range(0..tags.len())], None);
        let mut open = vec![root];
        let mut child_count = vec![0usize];
        for _ in 1..cfg.elements_per_doc {
            let slot = rng.gen_range(0..open.len());
            let parent = open[slot];
            let el = d.add_element(tags[rng.gen_range(0..tags.len())], Some(parent));
            child_count[parent as usize] += 1;
            if child_count[parent as usize] >= cfg.max_fanout {
                open.swap_remove(slot);
            }
            open.push(el);
            child_count.push(0);
        }
        // flixcheck: allow(unwrap-expect): the generator adds documents to a collection it just created
        c.add_document(d).expect("unique names");
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_element_counts_and_no_links() {
        let cfg = TreeConfig {
            documents: 10,
            elements_per_doc: 64,
            ..TreeConfig::default()
        };
        let cg = generate_trees(&cfg).seal();
        let s = cg.stats();
        assert_eq!(s.documents, 10);
        assert_eq!(s.elements, 640);
        assert_eq!(s.links, 0);
        // a forest: edges = elements - documents
        assert_eq!(s.edges, 640 - 10);
        assert!(graphcore::is_forest(&cg.graph));
    }

    #[test]
    fn fanout_respected() {
        let cfg = TreeConfig {
            documents: 3,
            elements_per_doc: 200,
            max_fanout: 3,
            ..TreeConfig::default()
        };
        let cg = generate_trees(&cfg).seal();
        for u in cg.graph.nodes() {
            assert!(cg.graph.out_degree(u) <= 3);
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_trees(&TreeConfig::default()).seal();
        let b = generate_trees(&TreeConfig::default()).seal();
        assert_eq!(a.stats(), b.stats());
    }
}
