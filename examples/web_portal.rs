//! Web-portal scenario: a densely interlinked page collection, the
//! Unconnected-HOPI regime — plus index persistence through the page
//! store, standing in for the paper's database-backed index tables.
//!
//! Run with: `cargo run --release --example web_portal`

#![forbid(unsafe_code)]

use flix::persist::{load_flix, save_flix};
use flix::{Flix, FlixConfig, QueryOptions};
use pagestore::{BlobStore, BufferPool, FileDisk};
use std::sync::Arc;
use workloads::{generate_web, WebConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = WebConfig {
        documents: 120,
        elements_per_doc: 60,
        intra_links_per_doc: 5,
        inter_links_per_doc: 8,
        tag_count: 12,
        seed: 7,
    };
    let graph = Arc::new(generate_web(&cfg).seal());
    let s = graph.stats();
    println!(
        "portal: {} pages, {} elements, {} links ({} edges total)",
        s.documents, s.elements, s.links, s.edges
    );

    // Hybrid would find nothing tree-shaped here; Unconnected HOPI is the
    // configuration of choice for heavy linking.
    let flix = Flix::build(
        graph.clone(),
        FlixConfig::UnconnectedHopi {
            partition_size: 1500,
        },
    );
    let st = flix.stats();
    println!(
        "framework: {} HOPI partitions, {} runtime links, {} B",
        st.hopi_metas, st.runtime_links, st.index_bytes
    );

    // A navigation query: everything tagged w3 reachable from page 0's root.
    let w3 = graph.collection.tags.get("w3").ok_or("no w3 tag")?;
    let results = flix.find_descendants(graph.doc_root(0), w3, &QueryOptions::within(6));
    println!(
        "page0 // w3 (within 6 hops): {} results, nearest at distance {}",
        results.len(),
        results.first().map(|r| r.distance).unwrap_or(0)
    );

    // Persist the framework into a file-backed page store and reload it —
    // the paper's "indexes live in database tables" deployment.
    let dir = std::env::temp_dir().join("flix-web-portal");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("indexes.db");
    let _ = std::fs::remove_file(&path);
    {
        let disk = Arc::new(FileDisk::open(&path)?);
        let pool = Arc::new(BufferPool::new(disk, 256));
        let mut store = BlobStore::new(pool.clone());
        save_flix(&flix, &mut store, "portal")?;
        // persist the blob directory itself as the catalogue
        // flixcheck: allow(unsynced-write): example scratch file; real deployments keep the directory in a WAL-backed DurableStore
        std::fs::write(dir.join("catalogue"), store.export_directory())?;
        pool.flush_all()?;
        println!(
            "\npersisted framework to {:?} ({} pages written)",
            path,
            pool.disk().page_count()
        );
    }
    {
        let disk = Arc::new(FileDisk::open(&path)?);
        let pool = Arc::new(BufferPool::new(disk, 256));
        let catalogue = std::fs::read(dir.join("catalogue"))?;
        let store = BlobStore::import_directory(pool, &catalogue)?;
        let reloaded = load_flix(&store, "portal", graph.clone())?;
        let again = reloaded.find_descendants(graph.doc_root(0), w3, &QueryOptions::within(6));
        assert_eq!(results, again, "reloaded framework answers identically");
        println!("reloaded framework answers the query identically ✓");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("catalogue"));
    Ok(())
}
