//! Incremental ingestion: extending a sealed collection and its framework
//! without rebuilding existing meta-document indexes.

use flix::{BuildOptions, Flix, FlixConfig, QueryOptions};
use std::sync::Arc;
use workloads::{descendant_queries, generate_dblp, DblpConfig};
use xmlgraph::{Collection, CollectionGraph, Document, LinkTarget};

fn base_corpus() -> Arc<CollectionGraph> {
    Arc::new(generate_dblp(&DblpConfig::tiny(88)).seal())
}

/// New publication documents citing existing ones.
fn new_docs(cg: &CollectionGraph, count: usize) -> Vec<Document> {
    let mut tags = cg.collection.tags.clone();
    tags.rebuild_map();
    let article = tags.get("article").unwrap();
    let title = tags.get("title").unwrap();
    let cite = tags.get("cite").unwrap();
    (0..count)
        .map(|i| {
            let mut d = Document::new(format!("new/extension{i}.xml"));
            let r = d.add_element(article, None);
            d.add_anchor(&format!("n{i}"), r);
            let t = d.add_element(title, Some(r));
            d.append_text(t, &format!("Extension Paper {i}"));
            // cite two existing papers and (for i > 0) the previous new one
            for target in [
                i % cg.collection.doc_count(),
                (i * 7) % cg.collection.doc_count(),
            ] {
                let c = d.add_element(cite, Some(r));
                d.add_link(
                    c,
                    LinkTarget {
                        document: Some(cg.collection.doc(target as u32).name.clone()),
                        fragment: None,
                    },
                );
            }
            if i > 0 {
                let c = d.add_element(cite, Some(r));
                d.add_link(
                    c,
                    LinkTarget {
                        document: Some(format!("new/extension{}.xml", i - 1)),
                        fragment: Some(format!("n{}", i - 1)),
                    },
                );
            }
            d
        })
        .collect()
}

#[test]
fn extension_preserves_ids_and_resolves_links() {
    let cg = base_corpus();
    let grown = Arc::new(cg.extend(new_docs(&cg, 5)).unwrap());
    assert_eq!(grown.collection.doc_count(), cg.collection.doc_count() + 5);
    // old node ids keep their tags
    for u in 0..cg.node_count() as u32 {
        assert_eq!(cg.tag_of(u), grown.tag_of(u));
        assert_eq!(cg.doc_of(u), grown.doc_of(u));
    }
    // new links from new docs into old docs exist
    let new_root = grown.doc_root(cg.collection.doc_count() as u32);
    assert!(grown.graph.successors(new_root).iter().any(|&v| grown
        .graph
        .successors(v)
        .iter()
        .any(|&t| (t as usize) < cg.node_count())));
}

#[test]
fn extended_framework_answers_like_fresh_build() {
    let cg = base_corpus();
    for config in [
        FlixConfig::Naive,
        FlixConfig::UnconnectedHopi { partition_size: 70 },
    ] {
        let flix = Flix::build(cg.clone(), config);
        let grown = Arc::new(cg.extend(new_docs(&cg, 6)).unwrap());
        let extended = flix
            .extend(grown.clone(), &BuildOptions::default())
            .unwrap();
        // compare against a fresh Naive-ish build only on *answers*, which
        // must be identical for any correct framework
        let fresh = Flix::build(grown.clone(), FlixConfig::Naive);
        for q in descendant_queries(&grown, 10, 61) {
            let mut a: Vec<u32> = extended
                .find_descendants(q.start, q.target_tag, &QueryOptions::default())
                .iter()
                .map(|r| r.node)
                .collect();
            let mut b: Vec<u32> = fresh
                .find_descendants(q.start, q.target_tag, &QueryOptions::default())
                .iter()
                .map(|r| r.node)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{config}: start {}", q.start);
        }
        // queries from the new documents cross into the old region
        let title = grown.collection.tags.get("title").unwrap();
        let last_new = grown.doc_root(grown.collection.doc_count() as u32 - 1);
        let res = extended.find_descendants(last_new, title, &QueryOptions::default());
        assert!(
            res.len() > 2,
            "{config}: new paper must reach cited papers' titles, got {}",
            res.len()
        );
    }
}

#[test]
fn untouched_meta_documents_are_shared_not_rebuilt() {
    let cg = base_corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::Naive);
    let grown = Arc::new(cg.extend(new_docs(&cg, 3)).unwrap());
    let extended = flix.extend(grown, &BuildOptions::default()).unwrap();
    assert_eq!(extended.meta_count(), flix.meta_count() + 3);
    // count metas physically shared with the old framework
    let mut shared = 0usize;
    for i in 0..flix.meta_count() as u32 {
        let a = flix.meta(i) as *const _;
        let b = extended.meta(i) as *const _;
        if std::ptr::eq(a, b) {
            shared += 1;
        }
    }
    assert!(
        shared > flix.meta_count() / 2,
        "most old meta documents must be reused untouched ({shared}/{})",
        flix.meta_count()
    );
}

/// PPO meta documents number their elements in preorder, so their link
/// sources ascend by preorder rank, not by element id. The order is
/// canonical — a function of the anchor set and the numbering — so
/// `extend`, which recomputes every anchor list from the grown link table,
/// still recognises an untouched PPO meta document and hands back the very
/// same `Arc`.
#[test]
fn untouched_ppo_meta_documents_keep_their_arc() {
    let cg = base_corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
    let grown = Arc::new(cg.extend(new_docs(&cg, 3)).unwrap());
    let extended = flix.extend(grown, &BuildOptions::default()).unwrap();
    let mut kept_out_of_id_order = 0usize;
    for i in 0..flix.meta_count() as u32 {
        let (old, new) = (flix.meta_arc(i), extended.meta_arc(i));
        let untouched =
            old.link_sources() == new.link_sources() && old.link_targets() == new.link_targets();
        assert_eq!(
            Arc::ptr_eq(&old, &new),
            untouched,
            "meta {i}: shared iff its anchor sets did not change"
        );
        let element = |local: &u32| old.nodes[*local as usize];
        if untouched
            && old
                .link_sources()
                .windows(2)
                .any(|w| element(&w[0]) > element(&w[1]))
        {
            kept_out_of_id_order += 1;
        }
    }
    assert!(
        kept_out_of_id_order > 0,
        "no shared PPO meta has rank order != id order: the test shows nothing"
    );
}

#[test]
fn dangling_links_resolve_on_extension() {
    let mut c = Collection::new();
    let t = c.tags.intern("x");
    let mut d = Document::new("old.xml");
    let r = d.add_element(t, None);
    d.add_link(
        r,
        LinkTarget {
            document: Some("future.xml".into()),
            fragment: None,
        },
    );
    c.add_document(d).unwrap();
    let cg = Arc::new(c.seal());
    assert_eq!(cg.dangling_links, 1);
    let flix = Flix::build(cg.clone(), FlixConfig::Naive);
    assert!(flix
        .find_descendants(0, t, &QueryOptions::default())
        .is_empty());

    let mut future = Document::new("future.xml");
    future.add_element(t, None);
    let grown = Arc::new(cg.extend(vec![future]).unwrap());
    assert_eq!(grown.dangling_links, 0);
    let extended = flix.extend(grown, &BuildOptions::default()).unwrap();
    let res = extended.find_descendants(0, t, &QueryOptions::default());
    assert_eq!(res.len(), 1, "resolved link must now answer");
}

#[test]
fn extend_rejects_unrelated_graph() {
    let cg = base_corpus();
    let flix = Flix::build(cg, FlixConfig::Naive);
    let other = Arc::new(generate_dblp(&DblpConfig::tiny(89)).seal());
    assert!(flix.extend(other, &BuildOptions::default()).is_err());
}

/// One thread's evaluator scratch serves a MaximalPPO framework, then its
/// extension — the old PPO meta documents kept, each new document numbered
/// afresh in its own preorder — then a `DiskFlix` over the extension: every
/// answer equals the one a fresh thread computes, and a full descendants
/// answer holds the nodes the BFS oracle reaches.
#[test]
fn scratch_reuse_across_extend_and_disk_matches_fresh_threads() {
    use flix::{Axis, DiskFlix, Query, QueryCtx};
    use pagestore::{BlobStore, BufferPool, MemDisk};
    type Answers = Vec<(Vec<(u32, u32)>, bool)>;

    let cg = base_corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
    let grown = Arc::new(cg.extend(new_docs(&cg, 4)).unwrap());
    let extended = flix
        .extend(grown.clone(), &BuildOptions::default())
        .unwrap();
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let disk = DiskFlix::save_and_open(&extended, BlobStore::new(Arc::new(pool)), "fw", 4).unwrap();
    let title = grown.collection.tags.get("title").unwrap();
    let mut queries: Vec<(u32, u32)> = descendant_queries(&cg, 10, 5)
        .into_iter()
        .map(|q| (q.start, q.target_tag))
        .collect();
    let new_roots = cg.collection.doc_count() as u32..grown.collection.doc_count() as u32;
    queries.extend(new_roots.map(|d| (grown.doc_root(d), title)));
    let opts = [
        QueryOptions::default(),
        QueryOptions::exact(),
        QueryOptions::top_k(5),
    ];
    let cases: Vec<(Axis, u32, u32, QueryOptions)> = (queries.iter())
        .flat_map(|&(start, tag)| {
            [Axis::Descendants, Axis::Ancestors]
                .into_iter()
                .flat_map(move |axis| opts.map(|o| (axis, start, tag, o)))
        })
        .collect();
    let base_cases: Vec<_> = (cases.iter().copied())
        .filter(|&(_, start, ..)| (start as usize) < cg.node_count())
        .collect();
    let in_memory = |flix: &Flix, cases: &[(Axis, u32, u32, QueryOptions)]| -> Answers {
        (cases.iter())
            .map(|&(axis, start, tag, o)| {
                let query = Query {
                    axis,
                    ..Query::descendants(start, tag, o)
                };
                let out = flix.evaluate(&query, &mut QueryCtx::default());
                (
                    out.results.iter().map(|r| (r.node, r.distance)).collect(),
                    out.timed_out,
                )
            })
            .collect()
    };
    let on_disk = |cases: &[(Axis, u32, u32, QueryOptions)]| -> Answers {
        (cases.iter())
            .map(|&(axis, start, tag, o)| {
                let query = Query {
                    axis,
                    ..Query::descendants(start, tag, o)
                };
                let out = disk.evaluate(&query, &mut QueryCtx::default()).unwrap();
                (
                    out.results.iter().map(|r| (r.node, r.distance)).collect(),
                    out.timed_out,
                )
            })
            .collect()
    };
    let fresh =
        |job: &(dyn Fn() -> Answers + Sync)| std::thread::scope(|s| s.spawn(job).join().unwrap());

    // One thread, one scratch, three spaces of different sizes in turn.
    let reused = [
        in_memory(&flix, &base_cases),
        in_memory(&extended, &cases),
        on_disk(&cases),
    ];
    assert_eq!(reused[0], fresh(&|| in_memory(&flix, &base_cases)));
    assert_eq!(reused[1], fresh(&|| in_memory(&extended, &cases)));
    assert_eq!(reused[2], fresh(&|| on_disk(&cases)));
    assert_eq!(reused[1], reused[2], "disk == memory");
    assert!(
        reused[1]
            .iter()
            .filter(|(answer, _)| answer.len() > 1)
            .count()
            > cases.len() / 4
    );

    for (&(axis, start, tag, o), (answer, _)) in cases.iter().zip(&reused[1]) {
        if axis != Axis::Descendants || o.max_results.is_some() {
            continue;
        }
        let dist = graphcore::bfs_distances(&grown.graph, start);
        let reached = (0..grown.node_count() as u32).filter(|&v| {
            v != start && grown.tag_of(v) == tag && dist[v as usize] != graphcore::INFINITE_DISTANCE
        });
        let mut got: Vec<u32> = answer.iter().map(|&(v, _)| v).collect();
        got.sort_unstable();
        assert_eq!(got, reached.collect::<Vec<_>>(), "{start}//{tag} {o:?}");
    }
}
