//! Densely interlinked collections: the Unconnected-HOPI regime.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{Collection, Document, LinkTarget};

/// Configuration for web-like, heavily linked collections.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Number of documents.
    pub documents: usize,
    /// Elements per document (exact).
    pub elements_per_doc: usize,
    /// Intra-document links per document (idref-style, may form cycles).
    pub intra_links_per_doc: usize,
    /// Outgoing inter-document links per document.
    pub inter_links_per_doc: usize,
    /// Number of distinct tag names.
    pub tag_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebConfig {
    fn default() -> Self {
        Self {
            documents: 40,
            elements_per_doc: 50,
            intra_links_per_doc: 4,
            inter_links_per_doc: 6,
            tag_count: 10,
            seed: 42,
        }
    }
}

/// Generates a web-like collection.
///
/// Documents are shallow trees; intra-document links connect arbitrary
/// element pairs (including back links, so cycles occur); inter-document
/// links target random anchors in random documents, in both directions of
/// document order.
pub fn generate_web(cfg: &WebConfig) -> Collection {
    assert!(cfg.elements_per_doc >= 2);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut c = Collection::new();
    let tags: Vec<u32> = (0..cfg.tag_count.max(1))
        .map(|i| c.tags.intern(&format!("w{i}")))
        .collect();
    let doc_name = |i: usize| format!("web/page{i}.xml");

    for doc_i in 0..cfg.documents {
        let mut d = Document::new(doc_name(doc_i));
        let root = d.add_element(tags[rng.gen_range(0..tags.len())], None);
        d.add_anchor("top", root);
        for el_i in 1..cfg.elements_per_doc {
            let parent = rng.gen_range(0..el_i) as u32;
            let el = d.add_element(tags[rng.gen_range(0..tags.len())], Some(parent));
            d.add_anchor(&format!("e{el_i}"), el);
        }
        for _ in 0..cfg.intra_links_per_doc {
            let src = rng.gen_range(0..cfg.elements_per_doc) as u32;
            let dst = rng.gen_range(0..cfg.elements_per_doc);
            let fragment = if dst == 0 {
                "top".to_string()
            } else {
                format!("e{dst}")
            };
            d.add_link(
                src,
                LinkTarget {
                    document: None,
                    fragment: Some(fragment),
                },
            );
        }
        for _ in 0..cfg.inter_links_per_doc {
            let target_doc = rng.gen_range(0..cfg.documents);
            if target_doc == doc_i {
                continue;
            }
            let src = rng.gen_range(0..cfg.elements_per_doc) as u32;
            let dst = rng.gen_range(0..cfg.elements_per_doc);
            let fragment = if dst == 0 {
                "top".to_string()
            } else {
                format!("e{dst}")
            };
            d.add_link(
                src,
                LinkTarget {
                    document: Some(doc_name(target_doc)),
                    fragment: Some(fragment),
                },
            );
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
    fn dense_linking() {
        let cfg = WebConfig::default();
        let cg = generate_web(&cfg).seal();
        let s = cg.stats();
        assert_eq!(s.documents, 40);
        assert_eq!(s.elements, 40 * 50);
        // links per doc ≈ intra + inter (minus self-target skips and dedups)
        assert!(
            s.links as f64 >= 0.7 * (40 * 10) as f64,
            "links {}",
            s.links
        );
        assert_eq!(s.dangling_links, 0);
        assert!(!graphcore::is_forest(&cg.graph));
    }

    #[test]
    fn contains_cycles_usually() {
        let cg = generate_web(&WebConfig::default()).seal();
        let cond = graphcore::condensation(&cg.graph);
        assert!(
            cond.component_count() < cg.node_count(),
            "expected at least one nontrivial SCC"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate_web(&WebConfig::default()).seal();
        let b = generate_web(&WebConfig::default()).seal();
        assert_eq!(a.stats(), b.stats());
    }
}
