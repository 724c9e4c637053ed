//! Synthetic DBLP-like publication corpus.
//!
//! One XML document per publication (the paper generated "one XML document
//! for each 2nd-level element of DBLP"), with the record fields real DBLP
//! uses (`author`, `title`, `year`, `pages`, `ee`, ...) and `cite` elements
//! carrying `xlink:href` links to other publication documents. Citations
//! point backwards in publication order with a preferential-attachment
//! bias, which reproduces DBLP's skewed in-link distribution.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{Collection, Document, LinkSpec};

/// Configuration for the synthetic DBLP corpus.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// Number of publication documents.
    pub documents: usize,
    /// Fraction of publications that carry citation records at all. The
    /// paper notes that in DBLP "most documents are isolated" (§4.3):
    /// citation records are concentrated in a minority of entries.
    pub citing_fraction: f64,
    /// Mean citations per *citing* publication (Poisson-ish).
    pub mean_citations: f64,
    /// Maximum authors per publication.
    pub max_authors: usize,
    /// Citation window: how far back (in publication order) citations may
    /// reach. Real bibliographies cite mostly recent work; the window keeps
    /// citation chains temporally local like in the real DBLP.
    pub citation_window: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            documents: 500,
            citing_fraction: 0.25,
            mean_citations: 16.4,
            max_authors: 4,
            citation_window: 600,
            seed: 42,
        }
    }
}

impl DblpConfig {
    /// The paper's corpus scale: 6,210 documents, ~169k elements, ~25k
    /// inter-document links.
    pub fn paper_scale() -> Self {
        // 6,210 × 0.25 × 16.4 ≈ 25.4k links, matching the paper's 25,368.
        Self {
            documents: 6210,
            citing_fraction: 0.25,
            mean_citations: 16.4,
            max_authors: 4,
            citation_window: 600,
            seed: 2004,
        }
    }

    /// A small corpus for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            documents: 60,
            citing_fraction: 0.5,
            mean_citations: 6.0,
            max_authors: 3,
            citation_window: 30,
            seed,
        }
    }
}

const VENUES: [(&str, &str, bool); 6] = [
    ("conf/edbt", "EDBT", true),
    ("conf/icde", "ICDE", true),
    ("conf/sigmod", "SIGMOD", true),
    ("conf/vldb", "VLDB", true),
    ("journals/tods", "TODS", false),
    ("journals/vldbj", "VLDB Journal", false),
];

const TITLE_WORDS: [&str; 24] = [
    "Efficient",
    "Indexing",
    "XML",
    "Queries",
    "Graph",
    "Reachability",
    "Distributed",
    "Joins",
    "Streams",
    "Adaptive",
    "Structures",
    "Views",
    "Semistructured",
    "Data",
    "Optimization",
    "Caching",
    "Recovery",
    "Transactions",
    "Mining",
    "Ranking",
    "Retrieval",
    "Ontologies",
    "Compression",
    "Partitioning",
];

const SURNAMES: [&str; 16] = [
    "Mohan",
    "Schenkel",
    "Theobald",
    "Weikum",
    "Grust",
    "Cohen",
    "Chung",
    "Widom",
    "Goldman",
    "Fagin",
    "Shasha",
    "Ley",
    "Kaushik",
    "Cooper",
    "Sayed",
    "Amer-Yahia",
];

/// Generates the corpus.
///
/// The returned collection is fully wired: each document has extracted
/// anchors and links (citations are real `xlink:href` attributes, so the
/// same code path as parsed XML is exercised). Call `.seal()` to get the
/// queryable [`xmlgraph::CollectionGraph`].
pub fn generate_dblp(cfg: &DblpConfig) -> Collection {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut c = Collection::new();
    let spec = LinkSpec::default();

    // Pre-pick venue + name per publication so citations can reference
    // documents not yet materialised.
    let names: Vec<(usize, String)> = (0..cfg.documents)
        .map(|i| {
            let v = rng.gen_range(0..VENUES.len());
            (v, format!("{}/p{}.xml", VENUES[v].0, i))
        })
        .collect();

    for i in 0..cfg.documents {
        let (venue, name) = &names[i];
        let (_, venue_label, is_conf) = VENUES[*venue];
        let root_tag = if is_conf { "inproceedings" } else { "article" };
        let mut d = Document::new(name.clone());

        let t_root = c.tags.intern(root_tag);
        let root = d.add_element(t_root, None);
        d.set_attr(root, "id", &format!("p{i}"));
        d.set_attr(root, "key", name.trim_end_matches(".xml"));

        let n_authors = rng.gen_range(1..=cfg.max_authors);
        for _ in 0..n_authors {
            let t = c.tags.intern("author");
            let a = d.add_element(t, Some(root));
            let sur = SURNAMES[rng.gen_range(0..SURNAMES.len())];
            let ini = (b'A' + rng.gen_range(0..26u8)) as char;
            d.append_text(a, &format!("{ini}. {sur}"));
        }

        let t_title = c.tags.intern("title");
        let title = d.add_element(t_title, Some(root));
        let words: Vec<&str> = (0..rng.gen_range(3..7))
            .map(|_| TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())])
            .collect();
        d.append_text(title, &words.join(" "));

        let t_year = c.tags.intern("year");
        let year = d.add_element(t_year, Some(root));
        d.append_text(year, &format!("{}", 1988 + (i * 15 / cfg.documents.max(1))));

        let t_pages = c.tags.intern("pages");
        let pages = d.add_element(t_pages, Some(root));
        let p0 = rng.gen_range(1..800);
        d.append_text(pages, &format!("{}-{}", p0, p0 + rng.gen_range(8..25)));

        if is_conf {
            let t = c.tags.intern("booktitle");
            let bt = d.add_element(t, Some(root));
            d.append_text(bt, venue_label);
        } else {
            let t = c.tags.intern("journal");
            let j = d.add_element(t, Some(root));
            d.append_text(j, venue_label);
            let t = c.tags.intern("volume");
            let v = d.add_element(t, Some(root));
            d.append_text(v, &format!("{}", rng.gen_range(1..30)));
            let t = c.tags.intern("number");
            let nr = d.add_element(t, Some(root));
            d.append_text(nr, &format!("{}", rng.gen_range(1..5)));
        }

        let t_ee = c.tags.intern("ee");
        let ee = d.add_element(t_ee, Some(root));
        d.append_text(
            ee,
            &format!(
                "https://doi.example/10.1145/{}.{}",
                100000 + i,
                rng.gen_range(1000..9999)
            ),
        );
        let t_url = c.tags.intern("url");
        let url = d.add_element(t_url, Some(root));
        d.append_text(url, &format!("https://dblp.example/{}", name));
        let t_month = c.tags.intern("month");
        let month = d.add_element(t_month, Some(root));
        d.append_text(
            month,
            ["January", "March", "June", "September"][rng.gen_range(0..4usize)],
        );
        let t_note = c.tags.intern("note");
        let note = d.add_element(t_note, Some(root));
        d.append_text(note, "Peer reviewed; camera-ready version of record.");
        let t_kw = c.tags.intern("keywords");
        let kws = d.add_element(t_kw, Some(root));
        for _ in 0..rng.gen_range(2..5) {
            let t_k = c.tags.intern("keyword");
            let k = d.add_element(t_k, Some(kws));
            d.append_text(k, TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())]);
        }
        if rng.gen_bool(0.4) {
            let t_cr = c.tags.intern("crossref");
            let cr = d.add_element(t_cr, Some(root));
            d.append_text(
                cr,
                &format!(
                    "{}/{}",
                    VENUES[*venue].0,
                    1988 + (i * 15 / cfg.documents.max(1))
                ),
            );
        }

        // Citations: only a minority of records carries them ("most
        // documents are isolated"), backwards in publication order within
        // the citation window.
        if i > 0 && rng.gen_bool(cfg.citing_fraction.clamp(0.0, 1.0)) {
            let n_cites = sample_poisson(&mut rng, cfg.mean_citations);
            let t_cite = c.tags.intern("cite");
            let t_label = c.tags.intern("label");
            let mut cited = std::collections::HashSet::new();
            for _ in 0..n_cites {
                // lag ~ u² over the citation window: most citations go to
                // recent papers, a long tail reaches back further
                let u: f64 = rng.gen::<f64>();
                let window = cfg.citation_window.min(i).max(1);
                let lag = 1 + ((u * u) * window as f64) as usize;
                let Some(target) = i.checked_sub(lag) else {
                    continue;
                };
                if !cited.insert(target) {
                    continue;
                }
                let cite = d.add_element(t_cite, Some(root));
                d.set_attr(
                    cite,
                    "xlink:href",
                    &format!("{}#p{}", names[target].1, target),
                );
                let lab = d.add_element(t_label, Some(cite));
                d.append_text(lab, &format!("[{}]", cited.len()));
            }
        }

        d.extract_links(&spec);
        // flixcheck: allow(unwrap-expect): the generator adds documents to a collection it just created
        c.add_document(d).expect("unique generated names");
    }
    c
}

/// Knuth's Poisson sampler (fine for small means).
fn sample_poisson(rng: &mut SmallRng, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // safety net for absurd means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = generate_dblp(&DblpConfig::tiny(7)).seal();
        let b = generate_dblp(&DblpConfig::tiny(7)).seal();
        assert_eq!(a.stats(), b.stats());
        let c = generate_dblp(&DblpConfig::tiny(8)).seal();
        assert_ne!(a.stats(), c.stats());
    }

    #[test]
    fn scale_matches_paper_shape() {
        let cfg = DblpConfig {
            documents: 600,
            ..DblpConfig::default()
        };
        let cg = generate_dblp(&cfg).seal();
        let s = cg.stats();
        assert_eq!(s.documents, 600);
        let per_doc = s.elements as f64 / s.documents as f64;
        // paper: 168,991 / 6,210 ≈ 27.2 elements per document
        assert!(
            (15.0..35.0).contains(&per_doc),
            "elements per doc {per_doc}"
        );
        let links_per_doc = s.links as f64 / s.documents as f64;
        // paper: 25,368 / 6,210 ≈ 4.1 links per document
        assert!(
            (2.0..6.0).contains(&links_per_doc),
            "links per doc {links_per_doc}"
        );
        assert_eq!(s.dangling_links, 0);
    }

    #[test]
    fn citations_point_backwards() {
        let cg = generate_dblp(&DblpConfig::tiny(3)).seal();
        for &(u, v) in &cg.link_edges {
            assert!(cg.doc_of(u) > cg.doc_of(v), "cite goes to earlier paper");
        }
    }

    #[test]
    fn documents_are_trees_with_real_attrs() {
        let c = generate_dblp(&DblpConfig::tiny(5));
        for (_, d) in c.docs() {
            // every non-root has exactly one parent by construction; check
            // anchors and hrefs were extracted from attributes
            assert!(
                d.anchor(&format!(
                    "p{}",
                    d.name
                        .split('p')
                        .next_back()
                        .unwrap()
                        .trim_end_matches(".xml")
                ))
                .is_some()
                    || !d.is_empty()
            );
            for (src, target) in d.links() {
                assert!(d.element(src).attr("xlink:href").is_some());
                assert!(target.document.is_some());
            }
        }
    }

    #[test]
    fn roots_have_publication_tags() {
        let cg = generate_dblp(&DblpConfig::tiny(1)).seal();
        let art = cg.collection.tags.get("article");
        let inp = cg.collection.tags.get("inproceedings");
        for (doc, _) in cg.collection.docs() {
            let root = cg.doc_root(doc);
            let t = Some(cg.tag_of(root));
            assert!(t == art || t == inp);
        }
    }

    #[test]
    fn poisson_mean_roughly_right() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 5000;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 4.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((3.6..4.4).contains(&mean), "mean {mean}");
    }
}
