//! FliX — a flexible framework for indexing complex, interlinked XML
//! document collections (Schenkel, EDBT 2004 Workshops).
//!
//! Existing path indexes each fit one structural regime: the pre/postorder
//! index (PPO) is unbeatable on trees but cannot handle links; HOPI's
//! 2-hop labels handle arbitrary link graphs but grow large and expensive
//! to build; APEX summaries are compact but evaluate the
//! descendants-or-self axis by traversal. Real collections mix all these
//! regimes. FliX therefore:
//!
//! 1. partitions the collection into **meta documents** (§4.1, [`mdb`]),
//! 2. picks the best **indexing strategy** per meta document (§4.1,
//!    [`config::StrategySelector`]),
//! 3. builds one index per meta document, remembering the links no index
//!    covers (§4.2, [`framework::Flix::build`]),
//! 4. answers `a//B` queries with a priority-queue evaluator that chases
//!    the remaining links at run time and streams results in approximately
//!    ascending distance order (§5, [`pee`]).
//!
//! The crate also includes the paper's §1 motivation layer — vague path
//! expressions with tag-similarity and distance-decayed relevance scoring
//! ([`query`]) — and persistence of built frameworks into a [`pagestore`]
//! blob store ([`persist`]).
//!
//! # Quick start
//!
//! ```
//! use flix::{Flix, FlixConfig, QueryOptions};
//! use std::sync::Arc;
//!
//! // Build a tiny two-document collection with one cross-document link.
//! let mut coll = xmlgraph::Collection::new();
//! let mut tags = std::collections::HashMap::new();
//! for name in ["paper", "sec", "cite"] {
//!     tags.insert(name, coll.tags.intern(name));
//! }
//! let mut d1 = xmlgraph::Document::new("a.xml");
//! let root = d1.add_element(tags["paper"], None);
//! let sec = d1.add_element(tags["sec"], Some(root));
//! let cite = d1.add_element(tags["cite"], Some(sec));
//! d1.add_link(cite, xmlgraph::LinkTarget {
//!     document: Some("b.xml".into()),
//!     fragment: None,
//! });
//! let mut d2 = xmlgraph::Document::new("b.xml");
//! d2.add_element(tags["paper"], None);
//! coll.add_document(d1).unwrap();
//! coll.add_document(d2).unwrap();
//!
//! let graph = Arc::new(coll.seal());
//! let flix = Flix::build(graph.clone(), FlixConfig::Naive);
//! // All `paper` descendants of a.xml's root — including b.xml's root,
//! // reached through the citation link.
//! let results = flix.find_descendants(graph.doc_root(0), tags["paper"],
//!                                     &QueryOptions::default());
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].node, graph.doc_root(1));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// The `QueryBackend` trait: one interface over the three evaluation stacks.
pub mod backend;
/// Query-result caching layered over a built framework.
pub mod cache;
/// Node→meta maps and the runtime link table: the one catalogue.
mod catalogue;
/// Framework configuration and per-meta-document strategy selection.
pub mod config;
/// Disk-resident query execution over a persisted framework.
pub mod diskexec;
/// The in-memory FliX framework: build, stats, and accessors.
pub mod framework;
/// Meta-document partitioning of the collection graph (§4.1).
pub mod mdb;
/// Per-meta-document index wrappers and the link catalogs.
pub mod meta;
/// The priority-queue query evaluator chasing runtime links (§5).
pub mod pee;
/// Persistence of built frameworks into a `pagestore` blob store.
pub mod persist;
/// Vague path-expression queries: tag similarity and distance-decayed
/// scoring (§1) over multi-step plans.
pub mod query;
/// Build observability: per-meta and aggregate build reports.
pub mod report;
/// Sharded serving: shard routing over one framework, cross-shard merge.
pub mod shard;
/// Workload monitoring and reconfiguration recommendations.
pub mod tuning;

pub use backend::{Answer, QueryBackend};
pub use cache::{CacheStats, CachedFlix, ResultCache};
pub use config::{BuildOptions, FlixConfig, StrategyKind, StrategySelector};
pub use diskexec::{DiskExecStats, DiskFlix};
pub use framework::{Flix, FlixStats, MetaDocStats};
pub use meta::{MetaDocument, MetaIndex, PopAnswer};
pub use pee::{
    Axis, ConnectionOutcome, PeeStats, QueryCtx, QueryOptions, QueryOutcome, QueryResult,
    ResultStream,
};
pub use query::{PathQuery, QueryBinding, QueryEngine, TagSimilarity};
pub use report::{BuildReport, MetaBuildReport};
pub use shard::{ShardPlan, ShardStats, ShardedFlix, ShardedStats};
pub use tuning::{LoadMonitor, Recommendation, SharedLoadMonitor};
