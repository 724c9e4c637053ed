//! Mixed collections: a tree-like region and a densely linked region, with
//! a few bridges — the paper's Figure 1 scenario and the Hybrid
//! configuration's home turf.

use crate::trees::{generate_trees, TreeConfig};
use crate::web::{generate_web, WebConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{Collection, LinkTarget};

/// Configuration for mixed collections.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// The tree-like region.
    pub trees: TreeConfig,
    /// The densely linked region.
    pub web: WebConfig,
    /// Bridge links from tree documents into the web region and back.
    pub bridge_links: usize,
    /// RNG seed for the bridges.
    pub seed: u64,
}

impl Default for MixedConfig {
    fn default() -> Self {
        Self {
            trees: TreeConfig::default(),
            web: WebConfig::default(),
            bridge_links: 6,
            seed: 42,
        }
    }
}

/// Generates the mixed collection: all tree documents, all web documents,
/// plus `bridge_links` links in each direction between the regions.
pub fn generate_mixed(cfg: &MixedConfig) -> Collection {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let tree_part = generate_trees(&cfg.trees);
    let web_part = generate_web(&cfg.web);

    let mut c = Collection::new();
    // Re-intern into the merged collection, rebuilding each document.
    let merge = |c: &mut Collection, src: &Collection| {
        for (_, d) in src.docs() {
            let mut nd = xmlgraph::Document::new(d.name.clone());
            for (local, el) in d.elements() {
                let tag = c.tags.intern(src.tags.name(el.tag));
                let id = nd.add_element(tag, el.parent);
                debug_assert_eq!(id, local);
                for (k, v) in el.attrs() {
                    nd.set_attr(id, k, v);
                }
                nd.append_text(id, el.text());
            }
            for (src_el, target) in d.links() {
                nd.add_link(src_el, target.into());
            }
            for (frag, el) in d.anchors() {
                nd.add_anchor(frag, el);
            }
            // tree documents register no anchors; bridges target "top"
            if !d.is_empty() && d.anchor("top").is_none() {
                nd.add_anchor("top", d.root());
            }
            // flixcheck: allow(unwrap-expect): the generator adds documents to a collection it just created
            c.add_document(nd).expect("unique names across regions");
        }
    };
    merge(&mut c, &tree_part);
    merge(&mut c, &web_part);

    let tree_docs = cfg.trees.documents;
    let web_docs = cfg.web.documents;
    if tree_docs > 0 && web_docs > 0 {
        for _ in 0..cfg.bridge_links {
            // tree -> web
            let td = rng.gen_range(0..tree_docs) as u32;
            let wd = rng.gen_range(0..web_docs);
            let src = rng.gen_range(0..c.doc(td).len()) as u32;
            c.doc_mut(td).add_link(
                src,
                LinkTarget {
                    document: Some(format!("web/page{wd}.xml")),
                    fragment: Some("top".into()),
                },
            );
            // web -> tree
            let wd = (tree_docs + rng.gen_range(0..web_docs)) as u32;
            let td = rng.gen_range(0..tree_docs);
            let src = rng.gen_range(0..c.doc(wd).len()) as u32;
            c.doc_mut(wd).add_link(
                src,
                LinkTarget {
                    document: Some(format!("trees/doc{td}.xml")),
                    fragment: Some("top".into()),
                },
            );
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_regions_present_and_bridged() {
        let cfg = MixedConfig::default();
        let cg = generate_mixed(&cfg).seal();
        let s = cg.stats();
        assert_eq!(s.documents, cfg.trees.documents + cfg.web.documents);
        // bridges resolve: "top" anchors exist in every document
        assert_eq!(s.dangling_links, 0, "dangling: {}", s.dangling_links);
        // doc graph connects the two regions
        let tree_docs = cfg.trees.documents as u32;
        let has_bridge = cg
            .doc_graph
            .edges()
            .any(|(a, b)| (a < tree_docs) != (b < tree_docs));
        assert!(has_bridge);
    }

    #[test]
    fn tree_region_stays_tree_shaped_internally() {
        let cfg = MixedConfig {
            bridge_links: 0,
            ..MixedConfig::default()
        };
        let cg = generate_mixed(&cfg).seal();
        // Documents from the tree region have no intra-document links.
        for d in 0..cfg.trees.documents as u32 {
            assert!(cg.collection.doc(d).links().next().is_none());
        }
    }

    #[test]
    fn deterministic() {
        let a = generate_mixed(&MixedConfig::default()).seal();
        let b = generate_mixed(&MixedConfig::default()).seal();
        assert_eq!(a.stats(), b.stats());
    }
}
