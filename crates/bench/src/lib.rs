//! The harness behind `repro`: the paper's §6 as deterministic counts.
//! Each experiment of [`Paper`] computes its rows — index sizes, HOPI cover
//! visits, index lookups and rows from [`PeeStats`], page reads and index
//! loads — prints them, and decides each of the paper's relations with one
//! function over those rows, printed as a `shape ✓` or `shape ✗` line; the
//! tests call the same functions. Nothing here reads a clock: the paper's
//! deployment paid a database round trip per index lookup, and
//! `db_cost_us` prices the counts that way.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

use flix::{DiskExecStats, DiskFlix, Flix, FlixConfig, FlixStats, MetaIndex, PeeStats};
use flix::{Query, QueryCtx, QueryOptions, QueryOutcome, QueryResult, StrategyKind};
use graphcore::{bfs_distances, NodeId};
use pagestore::{BlobStore, BufferPool, DiskManager, MemDisk};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use workloads::{generate_dblp, generate_mixed, ConnectionPair, DblpConfig, MixedConfig};
use xmlgraph::CollectionGraph;

// Row positions of the six §6 frameworks (Table-1 order).
const HOPI: usize = 0;
const APEX: usize = 1;
const NAIVE: usize = 2;
const HOPI_5K: usize = 3;
const HOPI_20K: usize = 4;
const MAXIMAL: usize = 5;

/// The `k`s of Figure 5's x-axis.
const FIGURE5_KS: [usize; 7] = [1, 2, 5, 10, 20, 50, 100];

/// The Unconnected-HOPI partition caps Ablation A sweeps.
const PARTITION_CAPS: [usize; 6] = [1_000, 2_000, 5_000, 10_000, 20_000, 50_000];

/// The emulated price of one index lookup, in microseconds.
const LOOKUP_US: u64 = 2_000;

/// An experiment's name and the method that runs it.
pub type Experiment = (&'static str, fn(&Paper));

/// The experiments, in the order `repro all` runs them.
pub const EXPERIMENTS: [Experiment; 10] = [
    ("table1", Paper::table1),
    ("figure5", Paper::figure5),
    ("errors", Paper::errors),
    ("connect", Paper::connect),
    ("hybrid", Paper::hybrid),
    ("ablation-partition", Paper::ablation_partition),
    ("ablation-dedup", Paper::ablation_dedup),
    ("ablation-exact", Paper::ablation_exact),
    ("ablation-bidir", Paper::ablation_bidir),
    ("figure5-disk", Paper::figure5_disk),
];

/// Builds the experiment corpus. `scale` of 1.0 is the paper's corpus
/// (6,210 documents); smaller factors shrink it proportionally for quick
/// runs.
fn paper_corpus(scale: f64) -> Arc<CollectionGraph> {
    let base = DblpConfig::paper_scale();
    let cfg = DblpConfig {
        documents: ((base.documents as f64 * scale) as usize).max(50),
        ..base
    };
    Arc::new(generate_dblp(&cfg).seal())
}

/// Selects the Figure-5 start element, the stand-in for "Mohan's VLDB 99
/// paper about ARIES": among every 7th publication of the later half, the
/// one whose citation closure reaches the most documents within 80..=600
/// (the paper plotted up to 100 results of a query that returned a few
/// hundred); when no candidate's closure is in that range, the one that
/// reaches the most. Returns its root, whether it was in range, and the
/// lines that say so with the sample's reach. This corpus's closures are
/// bimodal — a publication reaches only itself or thousands of documents —
/// so at full scale no candidate is in range and the query starts at the
/// hub, returning thousands of results; at scale 0.05 the in-range branch
/// is taken.
fn figure5_start(cg: &CollectionGraph) -> (NodeId, bool, String) {
    let n_docs = cg.collection.doc_count() as u32;
    let from = n_docs.saturating_sub(n_docs / 2);
    let reach = |d| {
        bfs_distances(&cg.doc_graph, d)
            .iter()
            .filter(|&&x| x != u32::MAX)
            .count()
    };
    let candidates: Vec<(u32, usize)> = (from..n_docs).step_by(7).map(|d| (d, reach(d))).collect();
    let in_range = |c: &&(u32, usize)| (80..=600).contains(&c.1);
    let best = candidates.iter().filter(in_range).max_by_key(|c| c.1);
    let (doc, reach) = *best
        .or_else(|| candidates.iter().max_by_key(|c| c.1))
        // flixcheck: allow(unwrap-expect): repro harness: panicking on a malformed corpus is acceptable here
        .expect("non-empty corpus");
    let mut reaches: Vec<usize> = candidates.iter().map(|c| c.1).collect();
    reaches.sort_unstable();
    let alone = reaches.partition_point(|&r| r == 1);
    let within = candidates.iter().filter(in_range).count();
    let rest = reaches.get(alone).copied().unwrap_or(0);
    let name = &cg.collection.doc(doc).name;
    let branch = if best.is_some() {
        "the most in 80..=600"
    } else {
        "none in 80..=600: the most"
    };
    let text = format!(
        "start element: root of {name:?}, reaching {reach} documents ({branch})\n\
         of {} sampled publications {alone} reach only themselves and the others {rest} \
         documents or more; {within} reach 80..=600",
        candidates.len()
    );
    (cg.doc_root(doc), best.is_some(), text)
}

/// The paper's corpus at one scale, its six §6 frameworks and the Figure-5
/// query. Each experiment is a method that prints its table and the
/// `shape` lines of its relations.
pub struct Paper {
    scale: f64,
    /// The corpus.
    pub cg: Arc<CollectionGraph>,
    /// HOPI, APEX, PPO-naive, HOPI-5000, HOPI-20000 and MaximalPPO over it,
    /// in Table-1 order; every per-framework row list is in this order.
    pub built: Vec<Flix>,
    /// The Figure-5 start element, whether its reach was in range, and the
    /// lines that say how it was chosen (see [`figure5_start`]).
    start: (NodeId, bool, String),
    /// The Figure-5 target tag: the paper asks for `article` descendants;
    /// our corpus roots are `article` or `inproceedings`, so we use
    /// `title`, which every publication carries exactly once — same result
    /// cardinality, same access pattern.
    tag: u32,
}

impl Paper {
    /// Builds the corpus at `scale` (see `paper_corpus`) and the six
    /// frameworks over it.
    pub fn new(scale: f64) -> Self {
        let cg = paper_corpus(scale);
        let hopi = |partition_size| FlixConfig::UnconnectedHopi { partition_size };
        let configs = [
            FlixConfig::Monolithic(StrategyKind::Hopi),
            FlixConfig::Monolithic(StrategyKind::Apex),
            FlixConfig::Naive,
            hopi(5_000),
            hopi(20_000),
            FlixConfig::MaximalPpo,
        ];
        let built = configs.map(|c| Flix::build(cg.clone(), c)).into();
        // flixcheck: allow(unwrap-expect): repro harness: panicking on a malformed corpus is acceptable here
        let tag = cg.collection.tags.get("title").expect("corpus has titles");
        let start = figure5_start(&cg);
        Self {
            scale,
            cg,
            built,
            start,
            tag,
        }
    }

    /// Prints one row per framework, named by its configuration.
    fn print_rows<R>(&self, header: &str, rows: &[R], cells: impl Fn(&R) -> Vec<String>) {
        let named = rows.iter().zip(&self.built).map(|(r, flix)| {
            [flix.config().to_string()]
                .into_iter()
                .chain(cells(r))
                .collect()
        });
        print_table(header, named);
    }

    /// The Figure-5 query on `flix` under `opts`.
    fn query(&self, flix: &Flix, opts: &QueryOptions) -> QueryOutcome {
        flix.find_descendants_outcome(self.start.0, self.tag, opts)
    }

    /// Table 1: index sizes, and build cost as HOPI cover visits.
    pub fn table1(&self) {
        println!("== Table 1: index sizes ==");
        println!("paper: HOPI huge >> HOPI-20000 > HOPI-5000 ≈ 2×APEX > PPO-naive ≈ MaximalPPO");
        let rows: Vec<(FlixStats, usize)> = self.built.iter().map(index_row).collect();
        let cells = rows.iter().map(|(s, v)| index_cells(s, v.to_string()));
        print_table("index|size [MB]|PPO|HOPI|APEX|cover visits", cells);
        print_shapes(&[table1_sizes(&rows)]);
    }

    /// Figure 5, per framework: the evaluation counters when the `k`-th
    /// result of the Figure-5 query arrived, for each `k` of
    /// [`FIGURE5_KS`] (the final counters for a `k` past the last result).
    fn figure5_curves(&self) -> Vec<Vec<PeeStats>> {
        let curve = |flix: &Flix| {
            let mut at = Vec::new();
            let query = Query::descendants(self.start.0, self.tag, QueryOptions::default());
            let total = flix.for_each(&query, &mut QueryCtx::default(), |_, st| {
                at.push(*st);
                ControlFlow::Continue(())
            });
            FIGURE5_KS
                .map(|k| at.get(k - 1).copied().unwrap_or(total))
                .into()
        };
        self.built.iter().map(curve).collect()
    }

    /// Figure 5: the emulated time to the first `k` results.
    pub fn figure5(&self) {
        println!("== Figure 5: emulated time to the first k results of a//article ==");
        let all = self.query(&self.built[HOPI], &QueryOptions::default());
        println!("{}", self.start.2);
        println!(
            "{} results; cost [ms] at 2 ms per lookup, 40 µs per row",
            all.results.len()
        );
        let curves = self.figure5_curves();
        let header = format!("k|{}", cells(FIGURE5_KS).join("|"));
        self.print_rows(&header, &curves, |c| {
            c.iter().map(|st| ms(db_cost_us(st))).collect()
        });
        println!("paper: HOPI flat (~0.6 s); HOPI-5000/20000 faster to first results;");
        println!("MaximalPPO fastest first, degrading later; PPO-naive slowest throughout.");
        print_shapes(&[
            figure5_hopi_flat(&curves),
            figure5_partitioned_first(&curves),
            figure5_naive_linear(&curves),
            figure5_maximal_below_naive(&curves),
        ]);
    }

    /// The §6 error rates of each framework over twenty sampled descendant
    /// queries plus the Figure-5 hub query.
    fn error_rates(&self) -> Vec<ErrorRates> {
        let sampled = workloads::descendant_queries(&self.cg, 20, 41).into_iter();
        let mut queries: Vec<(NodeId, u32)> = sampled.map(|q| (q.start, q.target_tag)).collect();
        queries.push((self.start.0, self.tag));
        let rates = |flix| error_rates(flix, &self.cg, &queries);
        self.built.iter().map(rates).collect()
    }

    /// §6 error rates: the fraction of results out of distance order.
    pub fn errors(&self) {
        println!("== Error rates (fraction of results out of ascending-distance order) ==");
        println!("paper: HOPI-5000 8.2%, HOPI-20000 10.4%, MaximalPPO 13.3%, exact indexes 0%");
        let rates = self.error_rates();
        let pct = |f: f64| format!("{:.1}%", f * 100.0);
        let header = "index|order breaks|displaced";
        self.print_rows(header, &rates, |e| vec![pct(e.adjacent), pct(e.displaced)]);
        println!("order breaks: where the streamed distance drops (the literal reading of");
        println!("\"returned in wrong order\"); displaced: results a later result beats");
        print_shapes(&[order_breaks(&rates)]);
    }

    /// Runs every pair through each framework, forward and bidirectionally.
    fn connection_rows(&self, pairs: &[ConnectionPair]) -> Vec<ConnectionRow> {
        let row = |flix: &Flix| {
            let mut row = ConnectionRow::default();
            for p in pairs {
                let test = |both_ways| {
                    let query = Query::connection(p.from, p.to, both_ways, QueryOptions::default());
                    flix.evaluate(&query, &mut QueryCtx::default())
                };
                let (uni, bi) = (test(false), test(true));
                row.uni_correct += usize::from(uni.distance().is_some() == p.reachable);
                row.bi_correct += usize::from(bi.distance().is_some() == p.reachable);
                row.uni.absorb(uni.stats);
                row.bi.absorb(bi.stats);
            }
            row
        };
        self.built.iter().map(row).collect()
    }

    /// Prints the connection tests of `count` pairs drawn with `seed`,
    /// lookups per test in each direction, and returns the rows.
    fn print_connections(&self, count: usize, seed: u64) -> Vec<ConnectionRow> {
        let pairs = workloads::connection_pairs(&self.cg, count, seed);
        let rows = self.connection_rows(&pairs);
        let reachable = pairs.iter().filter(|p| p.reachable).count();
        println!("{count} pairs ({reachable} reachable), lookups per test:");
        let per_test = |st: &PeeStats| format!("{:.1}", lookups(st) as f64 / count as f64);
        self.print_rows("index|forward|bidirectional|correct", &rows, |r| {
            let correct = format!("{}/{count}", r.uni_correct.min(r.bi_correct));
            vec![per_test(&r.uni), per_test(&r.bi), correct]
        });
        rows
    }

    /// §6 connection tests over forty pairs.
    pub fn connect(&self) {
        println!("== Connection tests a//b ==");
        let rows = self.print_connections(40, 17);
        println!("paper: same performance trend as Figure 5, lower absolute numbers");
        print_shapes(&[connections_agree(&rows, 40)]);
    }

    /// Ablation D: unidirectional against bidirectional connection tests
    /// (§5.2) over another 24 pairs.
    pub fn ablation_bidir(&self) {
        println!("== Ablation D: unidirectional vs bidirectional connection tests (§5.2) ==");
        let rows = self.print_connections(24, 23);
        println!("the backward search wins when the target has a small ancestor cone");
        print_shapes(&[connections_agree(&rows, 24), backward_search_wins(&rows)]);
    }

    /// The Hybrid experiment's frameworks — Hybrid, MaximalPPO, Unconnected
    /// HOPI and Naive — over a mixed collection: tree documents beside a
    /// densely linked web region, with bridges; and the collection's
    /// tree-document count. Hybrid is the one plan that puts PPO and HOPI
    /// meta documents side by side, so `--check` audits these too.
    pub fn hybrid_frameworks(&self) -> (Vec<Flix>, usize) {
        let cfg = MixedConfig {
            trees: workloads::TreeConfig {
                documents: ((200.0 * self.scale) as usize).max(20),
                elements_per_doc: 80,
                ..workloads::TreeConfig::default()
            },
            web: workloads::WebConfig {
                documents: ((120.0 * self.scale) as usize).max(12),
                elements_per_doc: 60,
                ..workloads::WebConfig::default()
            },
            bridge_links: 10,
            seed: 3,
        };
        let cg = Arc::new(generate_mixed(&cfg).seal());
        let partition_size = 5_000;
        let configs = [
            FlixConfig::Hybrid { partition_size },
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size },
            FlixConfig::Naive,
        ];
        let built = configs.map(|config| Flix::build(cg.clone(), config));
        (built.into(), cfg.trees.documents)
    }

    /// [`Self::hybrid_frameworks`], each with the counters of `t0`
    /// descendants of document 0's root, and the tree-document count.
    fn hybrid_rows(&self) -> (Vec<(FlixStats, PeeStats)>, usize) {
        let (built, tree_docs) = self.hybrid_frameworks();
        let row = |flix: &Flix| {
            let cg = flix.collection();
            // flixcheck: allow(unwrap-expect): repro harness: panicking on a malformed corpus is acceptable here
            let tag = cg.collection.tags.get("t0").unwrap();
            let query =
                flix.find_descendants_outcome(cg.doc_root(0), tag, &QueryOptions::default());
            (flix.stats(), query.stats)
        };
        (built.iter().map(row).collect(), tree_docs)
    }

    /// Figure 1/3 on a mixed collection.
    pub fn hybrid(&self) {
        println!("== Hybrid partitioning on a mixed collection (paper Fig. 1) ==");
        let (rows, tree_docs) = self.hybrid_rows();
        println!("{tree_docs} tree documents beside a densely linked web region");
        let cells = rows.iter().map(|(s, q)| index_cells(s, ms(db_cost_us(q))));
        print_table("config|size [MB]|PPO|HOPI|APEX|query [ms]", cells);
        print_shapes(&[hybrid_mix(&rows, tree_docs)]);
    }

    /// Ablation A: Unconnected HOPI at each cap of [`PARTITION_CAPS`], with
    /// the counters of the full and of the top-10 Figure-5 query.
    fn partition_rows(&self) -> Vec<(FlixStats, usize, PeeStats, PeeStats)> {
        let row = |partition_size| {
            let config = FlixConfig::UnconnectedHopi { partition_size };
            let flix = Flix::build(self.cg.clone(), config);
            let (stats, visits) = index_row(&flix);
            let [full, top10] = [QueryOptions::default(), QueryOptions::top_k(10)]
                .map(|opts| self.query(&flix, &opts).stats);
            (stats, visits, full, top10)
        };
        PARTITION_CAPS.map(row).into()
    }

    /// Ablation A: the partition-size sweep.
    pub fn ablation_partition(&self) {
        println!("== Ablation A: partition size vs build/size/query (Unconnected HOPI) ==");
        let rows = self.partition_rows();
        let cells = rows.iter().map(|(s, visits, full, top10)| {
            let counts = cells([s.meta_docs, s.runtime_links, *visits]);
            let costs = [ms(db_cost_us(full)), ms(db_cost_us(top10))];
            let first = [s.config.to_string(), mb(s.index_bytes)];
            first.into_iter().chain(counts).chain(costs).collect()
        });
        let header = "config|size [MB]|metas|runtime links|cover visits|full [ms]|top-10 [ms]";
        print_table(header, cells);
        println!("expected: bigger partitions -> fewer runtime links, bigger labels, more build");
        print_shapes(&[partition_growth(&rows)]);
    }

    /// Ablation B: §5.1 entry-point subsumption, which holds only the
    /// entries it answered, beside the strawman the paper argues against.
    pub fn ablation_dedup(&self) {
        println!("== Ablation B: §5.1 entry-point dedup vs naive full-result dedup ==");
        let row = |flix: &Flix| {
            let out = self.query(flix, &QueryOptions::default());
            let (lookups, results) = (lookups(&out.stats), out.results.len());
            let held = out.stats.entries_popped;
            let entry_point = Dedup {
                lookups,
                results,
                held,
            };
            (entry_point, naive_dedup(flix, self.start.0, self.tag))
        };
        let rows: Vec<(Dedup, Dedup)> = self.built.iter().map(row).collect();
        let header = "config|§5.1 lookups|§5.1 held|naive lookups|naive held|results";
        self.print_rows(header, &rows, |(e, n)| {
            cells([e.lookups, e.held, n.lookups, n.held, e.results])
        });
        println!("the naive variant holds every returned node; §5.1 holds the entries it answered");
        print_shapes(&[entry_points_suffice(&rows)]);
    }

    /// Ablation C, per framework: the counters of the first result and of
    /// the full evaluation, each approximate then exact, and whether the
    /// exact results ascend by distance.
    fn exact_rows(&self) -> Vec<([PeeStats; 4], bool)> {
        let row = |flix: &Flix| {
            let run = |exact_order, max_results| {
                let mut opts = QueryOptions::default();
                (opts.exact_order, opts.max_results) = (exact_order, max_results);
                self.query(flix, &opts)
            };
            let exact = run(true, None);
            let ascending = |w: &[QueryResult]| w[0].distance <= w[1].distance;
            let sorted = exact.results.windows(2).all(ascending);
            let [first, exact_first, full] = [(false, Some(1)), (true, Some(1)), (false, None)]
                .map(|(exact_order, k)| run(exact_order, k).stats);
            ([first, exact_first, full, exact.stats], sorted)
        };
        self.built.iter().map(row).collect()
    }

    /// Ablation C: the default block streaming against §7's exact order.
    pub fn ablation_exact(&self) {
        println!("== Ablation C: approximate (default) vs exact result ordering (§7 option) ==");
        println!("lookups / rows of the first result and of the full evaluation:");
        let rows = self.exact_rows();
        let cell = |st: &PeeStats| format!("{} / {}", lookups(st), st.block_results_scanned);
        let header = "config|approx first|exact first|approx full|exact full|sorted";
        self.print_rows(header, &rows, |(stats, sorted)| {
            let sorted = if *sorted { "yes" } else { "NO" };
            stats.iter().map(cell).chain([sorted.to_string()]).collect()
        });
        print_shapes(&[exact_order_sorted(&rows)]);
    }

    /// Figure 5 over disk-resident indexes: each framework persisted into a
    /// page store and queried through [`DiskFlix`], which loads
    /// meta-document indexes on demand — a 128-frame buffer pool, well
    /// below the index set, under an 8-slot index cache. Per framework: its
    /// meta documents, the query's page reads (buffer-pool misses), the
    /// index cache's hits and misses (loads), and the results.
    fn disk_rows(&self) -> Vec<(usize, u64, DiskExecStats, usize)> {
        let row = |flix: &Flix| {
            let disk = Arc::new(MemDisk::new());
            let store = BlobStore::new(Arc::new(BufferPool::new(disk.clone(), 128)));
            let query = || -> Result<_, String> {
                let dflix = DiskFlix::save_and_open(flix, store, "fw", 8)?;
                let before = disk.stats().reads;
                let results =
                    dflix.find_descendants(self.start.0, self.tag, &Default::default())?;
                let reads = disk.stats().reads - before;
                Ok((flix.meta_count(), reads, dflix.stats(), results.len()))
            };
            // flixcheck: allow(unwrap-expect): repro harness: an in-memory store that fails to persist or load is a bug to stop at
            query().expect("persist and query through an in-memory store")
        };
        self.built.iter().map(row).collect()
    }

    /// Figure 5 over disk-resident indexes.
    pub fn figure5_disk(&self) {
        println!("== Figure 5 (disk-resident): a//article with on-demand index loads ==");
        let rows = self.disk_rows();
        let header = "config|metas|page reads|idx loads|results|idx cache hit";
        self.print_rows(header, &rows, |&(metas, reads, st, results)| {
            let (hits, loads) = (st.cache_hits, st.cache_misses);
            let hit = format!("{:.1}%", 100.0 * hits as f64 / (hits + loads).max(1) as f64);
            let counts = cells([metas as u64, reads, loads, results as u64]);
            counts.into_iter().chain([hit]).collect()
        });
        println!("a 128-frame buffer pool under an 8-slot index cache; page reads are pool misses");
        print_shapes(&[cache_thrash(&rows)]);
    }
}

/// One of the paper's relations, decided on an experiment's rows: whether
/// they bear it out, and the relation with the numbers that decide it.
#[derive(Debug)]
struct Shape {
    holds: bool,
    text: String,
}

fn shape(holds: bool, text: String) -> Shape {
    Shape { holds, text }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.holds { '✓' } else { '✗' };
        write!(f, "shape {mark} {}", self.text)
    }
}

/// Index lookups of an evaluation: every heap pop, answered or subsumed.
fn lookups(stats: &PeeStats) -> usize {
    stats.entries_popped + stats.entries_subsumed
}

/// What an evaluation would have cost the paper's database-backed
/// deployment, in microseconds: every index lookup is a database round
/// trip ([`LOOKUP_US`]) and every index row read for a block
/// (`block_results_scanned`) a 40 µs row fetch. What a row is depends on
/// the index: under HOPI a lookup joins `L_out(e)` with the inverted `L_in`
/// table *under the tag predicate*, so it fetches, per center, the rows of
/// link sources (Fig. 4's `findReachableLinks` is the same join) and the
/// rows carrying the tag — not the center's whole reach set; under PPO the
/// elements of the interval carrying the tag; under APEX the elements
/// traversed. A link push refused before the heap (`entries_refused`)
/// touches no index and costs nothing.
fn db_cost_us(stats: &PeeStats) -> u64 {
    lookups(stats) as u64 * LOOKUP_US + stats.block_results_scanned as u64 * 40
}

/// A framework's statistics and its build cost: the BFS visits of its HOPI
/// covers, pruned ones included (0 without a HOPI meta document) — the
/// count behind "the time to build HOPI superlinearly increases", the same
/// at every build thread count.
fn index_row(flix: &Flix) -> (FlixStats, usize) {
    let visits = (0..flix.meta_count() as u32)
        .filter_map(|m| match &flix.meta(m).index {
            MetaIndex::Hopi(index) => Some(index.stats().visits),
            _ => None,
        })
        .sum();
    (flix.stats(), visits)
}

/// Table 1: HOPI ≥ HOPI-20000 ≥ HOPI-5000 > MaximalPPO, MaximalPPO within
/// 5 % of PPO-naive (the paper's "as space efficient as PPO"), and APEX the
/// smallest of the six.
fn table1_sizes(rows: &[(FlixStats, usize)]) -> Shape {
    let b: Vec<usize> = rows.iter().map(|r| r.0.index_bytes).collect();
    let holds = b[HOPI] >= b[HOPI_20K]
        && b[HOPI_20K] >= b[HOPI_5K]
        && b[HOPI_5K] > b[MAXIMAL]
        && b[MAXIMAL].abs_diff(b[NAIVE]) * 20 <= b[NAIVE]
        && b.iter().all(|&s| b[APEX] <= s);
    let [hopi, apex, naive, h5, h20, max] =
        [HOPI, APEX, NAIVE, HOPI_5K, HOPI_20K, MAXIMAL].map(|i| mb(b[i]));
    let text = format!(
        "HOPI {hopi} ≥ HOPI-20000 {h20} ≥ HOPI-5000 {h5} > MaximalPPO {max} \
         ≈ PPO-naive {naive} (within 5 %), APEX {apex} the smallest [MB]"
    );
    shape(holds, text)
}

/// Figure 5: monolithic HOPI is flat in `k` — it pays its whole label join
/// before the first result, so its cost grows by less than one lookup from
/// the first `k` to the last.
fn figure5_hopi_flat(curves: &[Vec<PeeStats>]) -> Shape {
    let first = db_cost_us(&curves[HOPI][0]);
    let last = db_cost_us(&curves[HOPI][FIGURE5_KS.len() - 1]);
    let text = format!("HOPI is flat in k: {} → {} ms", ms(first), ms(last));
    shape(last.saturating_sub(first) < LOOKUP_US, text)
}

/// Figure 5: both partitioned HOPIs deliver their first result cheaper
/// than monolithic HOPI.
fn figure5_partitioned_first(curves: &[Vec<PeeStats>]) -> Shape {
    let [hopi, h5, h20] = [HOPI, HOPI_5K, HOPI_20K].map(|i| db_cost_us(&curves[i][0]));
    let [hopi_ms, h5_ms, h20_ms] = [hopi, h5, h20].map(ms);
    let text = format!("first result: HOPI-5000 {h5_ms}, HOPI-20000 {h20_ms} < HOPI {hopi_ms} ms");
    shape(h5 < hopi && h20 < hopi, text)
}

/// Figure 5: PPO-naive enters one document per result, so its `k`-th
/// result costs exactly `k` lookups.
fn figure5_naive_linear(curves: &[Vec<PeeStats>]) -> Shape {
    let got: Vec<usize> = curves[NAIVE].iter().map(lookups).collect();
    let text = format!("PPO-naive pays k lookups for k results: {got:?}");
    shape(got[..] == FIGURE5_KS[..], text)
}

/// Figure 5: from k = 10 on, MaximalPPO costs no more than PPO-naive.
fn figure5_maximal_below_naive(curves: &[Vec<PeeStats>]) -> Shape {
    let from = FIGURE5_KS.iter().position(|&k| k == 10).unwrap_or(0);
    let costs = |i: usize| curves[i][from..].iter().map(db_cost_us).collect::<Vec<_>>();
    let (maximal, naive) = (costs(MAXIMAL), costs(NAIVE));
    let list = |c: &[u64]| c.iter().map(|&us| ms(us)).collect::<Vec<_>>().join(", ");
    let (max_ms, naive_ms) = (list(&maximal), list(&naive));
    let text = format!("from k = 10 MaximalPPO ≤ PPO-naive: {max_ms} ≤ {naive_ms} ms");
    shape(maximal.iter().zip(&naive).all(|(m, n)| m <= n), text)
}

/// Both readings of the §6 error metric ("fraction of all results that
/// were returned in wrong order").
#[derive(Debug, Clone, Copy, PartialEq)]
struct ErrorRates {
    /// Adjacent-descent reading: a result is wrong when its exact distance
    /// is smaller than its predecessor's — the positions where a client
    /// consuming the stream observes the order break. Block-streamed
    /// evaluation keeps this low (one break per block boundary at most).
    adjacent: f64,
    /// Displacement reading: a result is wrong when *any* later result has
    /// a strictly smaller exact distance (it jumped the queue). Much
    /// stricter: one deep block tail displaces en masse.
    displaced: f64,
}

/// Computes both §6 error metrics over a query set.
fn error_rates(flix: &Flix, cg: &CollectionGraph, queries: &[(NodeId, u32)]) -> ErrorRates {
    let (mut total, mut adjacent, mut displaced) = (0usize, 0usize, 0usize);
    for &(start, tag) in queries {
        let res = flix.find_descendants(start, tag, &QueryOptions::default());
        let dist = bfs_distances(&cg.graph, start);
        let exact: Vec<u32> = res.iter().map(|r| dist[r.node as usize]).collect();
        adjacent += exact.windows(2).filter(|w| w[1] < w[0]).count();
        let mut suffix_min = u32::MAX;
        for &d in exact.iter().rev() {
            displaced += usize::from(suffix_min < d);
            suffix_min = suffix_min.min(d);
        }
        total += exact.len();
    }
    let rate = |count: usize| count as f64 / total.max(1) as f64;
    ErrorRates {
        adjacent: rate(adjacent),
        displaced: rate(displaced),
    }
}

/// §6 error rates: the exact indexes (HOPI, APEX, and per-document PPO on
/// this corpus of shallow documents) never break distance order; the three
/// approximate FliX configurations do.
fn order_breaks(rates: &[ErrorRates]) -> Shape {
    let pct: Vec<String> = rates
        .iter()
        .map(|e| format!("{:.1} %", e.adjacent * 100.0))
        .collect();
    let (exact, approximate) = rates.split_at(HOPI_5K);
    let holds =
        exact.iter().all(|e| e.adjacent == 0.0) && approximate.iter().all(|e| e.adjacent > 0.0);
    let (exact, approximate) = (pct[..HOPI_5K].join(", "), pct[HOPI_5K..].join(", "));
    let text =
        format!("order breaks 0 for the exact indexes ({exact}), > 0 otherwise ({approximate})");
    shape(holds, text)
}

/// One framework's connection tests over a pair set: the pairs each
/// direction answered as the oracle does, and its counters summed over the
/// pairs (both sides for the bidirectional search).
#[derive(Debug, Clone, Copy, Default)]
struct ConnectionRow {
    uni_correct: usize,
    bi_correct: usize,
    uni: PeeStats,
    bi: PeeStats,
}

/// §5.2: every framework answers every pair as the transitive-closure
/// oracle does, forward and bidirectionally.
fn connections_agree(rows: &[ConnectionRow], pairs: usize) -> Shape {
    let wrong: usize = rows
        .iter()
        .map(|r| 2 * pairs - r.uni_correct - r.bi_correct)
        .sum();
    let n = rows.len();
    let text = format!("{n} frameworks × {pairs} pairs × 2 directions agree with the oracle");
    shape(wrong == 0, format!("{text} ({wrong} wrong)"))
}

/// §5.2, "depending on the structure of documents, either of them may be
/// best": on both partitioned HOPIs the bidirectional search needs fewer
/// lookups than the forward one.
fn backward_search_wins(rows: &[ConnectionRow]) -> Shape {
    let [u5, b5] = [rows[HOPI_5K].uni, rows[HOPI_5K].bi].map(|s| lookups(&s));
    let [u20, b20] = [rows[HOPI_20K].uni, rows[HOPI_20K].bi].map(|s| lookups(&s));
    let text = format!(
        "bidirectional needs fewer lookups: HOPI-5000 {u5} → {b5}, HOPI-20000 {u20} → {b20}"
    );
    shape(b5 < u5 && b20 < u20, text)
}

/// Figure 1/3: Hybrid (the first row) indexes every tree document with PPO
/// and the web region with HOPI.
fn hybrid_mix(rows: &[(FlixStats, PeeStats)], tree_docs: usize) -> Shape {
    let (ppo, hopi) = (rows[0].0.ppo_metas, rows[0].0.hopi_metas);
    let text =
        format!("Hybrid: PPO metas {ppo} = tree documents {tree_docs}, HOPI metas {hopi} ≥ 1");
    shape(ppo == tree_docs && hopi >= 1, text)
}

/// Ablation A, the §4.1 tension: a larger cap never shrinks the labels or
/// the cover's work, and every cap that merges partitions costs the cover
/// more visits — "the time to build HOPI superlinearly increases".
fn partition_growth(rows: &[(FlixStats, usize, PeeStats, PeeStats)]) -> Shape {
    let holds = rows.windows(2).all(|w| {
        let ((a, a_visits, ..), (b, b_visits, ..)) = (&w[0], &w[1]);
        let merged = b.meta_docs < a.meta_docs;
        b.index_bytes >= a.index_bytes && b_visits >= a_visits && (!merged || b_visits > a_visits)
    });
    let labels: Vec<String> = rows.iter().map(|r| mb(r.0.index_bytes)).collect();
    let visits: Vec<String> = rows.iter().map(|r| r.1.to_string()).collect();
    let (labels, visits) = (labels.join(" → "), visits.join(" → "));
    shape(
        holds,
        format!("labels {labels} MB and cover visits {visits} rise with the cap"),
    )
}

/// One duplicate-elimination strategy on one query: index lookups,
/// distinct results, and the nodes it held to eliminate duplicates.
#[derive(Debug, Clone, Copy)]
struct Dedup {
    lookups: usize,
    results: usize,
    held: usize,
}

/// The strawman of §5.1: chase links without entry-point subsumption and
/// deduplicate by remembering every result and every entry.
fn naive_dedup(flix: &Flix, start: NodeId, tag: u32) -> Dedup {
    let mut results: HashSet<NodeId> = HashSet::new();
    let mut entries: HashSet<NodeId> = HashSet::new();
    let mut heap = BinaryHeap::from([Reverse((0u32, start))]);
    while let Some(Reverse((d, e))) = heap.pop() {
        if !entries.insert(e) {
            continue;
        }
        let meta = flix.meta_of(e);
        let md = flix.meta(meta);
        let local = flix.local_of(e);
        for (r, _) in md.index.descendants_by_label(local, tag, e != start) {
            results.insert(flix.global_of(meta, r));
        }
        for (ls, dls) in md.reachable_link_sources(local) {
            for &(_, tgt) in flix.links_out_of(flix.global_of(meta, ls)) {
                heap.push(Reverse((d + dls + 1, tgt)));
            }
        }
    }
    let (lookups, results) = (entries.len(), results.len());
    Dedup {
        lookups,
        results,
        held: results + lookups,
    }
}

/// §5.1: entry-point subsumption returns what remembering every result
/// returns, holding fewer nodes.
fn entry_points_suffice(rows: &[(Dedup, Dedup)]) -> Shape {
    let held: Vec<String> = rows
        .iter()
        .map(|(e, n)| format!("{} < {}", e.held, n.held))
        .collect();
    let holds = rows
        .iter()
        .all(|(e, n)| e.results == n.results && e.held < n.held);
    shape(
        holds,
        format!("same results, fewer nodes held: {}", held.join(", ")),
    )
}

/// §7's exact mode: every framework returns the query in ascending
/// distance order (0 % order breaks).
fn exact_order_sorted(rows: &[([PeeStats; 4], bool)]) -> Shape {
    let (sorted, n) = (rows.iter().filter(|r| r.1).count(), rows.len());
    let text = format!("exact order ascends by distance on {sorted} of {n} frameworks");
    shape(sorted == n, text)
}

/// Figure 5 on disk, the §4.1 memory bound: HOPI-5000's partitions
/// outnumber the index cache and are loaded again and again, HOPI-20000's
/// fewer, larger ones far less often.
fn cache_thrash(rows: &[(usize, u64, DiskExecStats, usize)]) -> Shape {
    let [h5, h20] = [HOPI_5K, HOPI_20K].map(|i| {
        let (metas, _, st, _) = rows[i];
        let text = format!("{} loads / {metas} metas", st.cache_misses);
        (st.cache_misses as f64 / metas as f64, text)
    });
    let text = format!(
        "loads per meta: HOPI-5000 {:.1} ({}) > HOPI-20000 {:.1} ({})",
        h5.0, h5.1, h20.0, h20.1
    );
    shape(h5.0 > h20.0, text)
}

/// Prints `rows` under the `|`-separated `header` between rules: the first
/// column left-aligned, the others right-aligned, each as wide as its
/// widest cell.
fn print_table(header: &str, rows: impl Iterator<Item = Vec<String>>) {
    let table: Vec<Vec<String>> = [cells(header.split('|'))].into_iter().chain(rows).collect();
    let width = |i: usize| {
        table
            .iter()
            .map(|r| r[i].chars().count())
            .max()
            .unwrap_or(0)
    };
    let widths: Vec<usize> = (0..table[0].len()).map(width).collect();
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    for (n, row) in table.iter().enumerate() {
        if n < 2 {
            println!("{rule}");
        }
        let mut line = format!("{:<w$}", row[0], w = widths[0]);
        for (cell, w) in row.iter().zip(&widths).skip(1) {
            line += &format!("  {cell:>w$}");
        }
        println!("{line}");
    }
    println!("{rule}");
}

/// Prints each relation's verdict, then a blank line.
fn print_shapes(shapes: &[Shape]) {
    for s in shapes {
        println!("{s}");
    }
    println!();
}

/// A framework's configuration, size and meta documents per strategy, and
/// one more column.
fn index_cells(s: &FlixStats, last: String) -> Vec<String> {
    let metas = cells([s.ppo_metas, s.hopi_metas, s.apex_metas]);
    let first = [s.config.to_string(), mb(s.index_bytes)];
    first.into_iter().chain(metas).chain([last]).collect()
}

fn cells<T: ToString>(items: impl IntoIterator<Item = T>) -> Vec<String> {
    items.into_iter().map(|c| c.to_string()).collect()
}

/// Formats a byte count as megabytes with one decimal.
fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats microseconds as milliseconds with one decimal.
fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The scale-0.05 corpus and its six frameworks, built once for every
    /// test that reads them.
    fn small() -> &'static Paper {
        static PAPER: OnceLock<Paper> = OnceLock::new();
        PAPER.get_or_init(|| Paper::new(0.05))
    }

    /// The scale-0.2 corpus and its six frameworks, for the relations that
    /// need the corpus's components to outgrow a partition: at 0.05
    /// HOPI-10000 and HOPI-20000 index its two disconnected components
    /// with no runtime link, and HOPI-50000 the same nodes as monolithic
    /// HOPI, so their sizes differ only by the ranking estimator's draws.
    fn medium() -> &'static Paper {
        static PAPER: OnceLock<Paper> = OnceLock::new();
        PAPER.get_or_init(|| Paper::new(0.2))
    }

    // Each test below asserts a relation `repro` prints, at a scale where
    // it holds; `bench/repro.txt` is the full-scale run of all of them.

    #[test]
    fn corpus_scales() {
        let small = paper_corpus(0.02);
        assert!(small.collection.doc_count() >= 50);
        assert!(small.collection.doc_count() < 300);
    }

    #[test]
    fn figure5_query_has_many_results() {
        let p = small();
        // At full scale no candidate is in range (closures are bimodal).
        assert!(p.start.1, "{}", p.start.2);
        let res = p.query(&p.built[MAXIMAL], &QueryOptions::default()).results;
        assert!(res.len() >= 10, "start element too isolated: {}", res.len());
    }

    #[test]
    fn emulated_costs_monotone_and_flat_for_monolithic() {
        let curves = small().figure5_curves();
        for curve in &curves {
            let costs: Vec<u64> = curve.iter().map(db_cost_us).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        }
        let flat = figure5_hopi_flat(&curves);
        assert!(flat.holds, "{flat}");
    }

    #[test]
    fn figure5_ppo_relations_hold_below_full_scale() {
        let curves = small().figure5_curves();
        for s in [
            figure5_naive_linear(&curves),
            figure5_maximal_below_naive(&curves),
        ] {
            assert!(s.holds, "{s}");
        }
    }

    #[test]
    fn error_rate_zero_for_monolithic() {
        let p = small();
        let qs: Vec<(NodeId, u32)> = workloads::descendant_queries(&p.cg, 5, 3)
            .into_iter()
            .map(|q| (q.start, q.target_tag))
            .collect();
        assert_eq!(error_rates(&p.built[HOPI], &p.cg, &qs).adjacent, 0.0);
    }

    #[test]
    fn table1_size_ordering_matches_the_paper() {
        let rows: Vec<(FlixStats, usize)> = medium().built.iter().map(index_row).collect();
        let s = table1_sizes(&rows);
        assert!(s.holds, "{s}");
    }

    // Scale 0.2: below ~0.13 the corpus fits one 20,000-element partition
    // and HOPI-20000 degenerates to the exact monolithic index; at 0.15 it
    // breaks order on 0.03 % of results, at 0.2 on 2.3 %.
    #[test]
    fn exact_strategies_never_break_order_and_approximate_ones_do() {
        let s = order_breaks(&medium().error_rates());
        assert!(s.holds, "{s}");
    }

    #[test]
    fn every_configuration_answers_every_connection_pair() {
        let p = small();
        let pairs = workloads::connection_pairs(&p.cg, 40, 17);
        assert!(pairs.iter().any(|p| p.reachable) && pairs.iter().any(|p| !p.reachable));
        let s = connections_agree(&p.connection_rows(&pairs), pairs.len());
        assert!(s.holds, "{s}");
    }

    #[test]
    fn hybrid_indexes_trees_with_ppo_and_the_web_with_hopi() {
        let (rows, tree_docs) = small().hybrid_rows();
        let s = hybrid_mix(&rows, tree_docs);
        assert!(s.holds, "{s}");
    }

    #[test]
    fn larger_partitions_grow_labels_and_cover_visits() {
        let s = partition_growth(&medium().partition_rows());
        assert!(s.holds, "{s}");
    }

    #[test]
    fn exact_order_never_breaks() {
        let s = exact_order_sorted(&small().exact_rows());
        assert!(s.holds, "{s}");
    }

    #[test]
    fn the_recorded_run_is_full_scale_and_every_shape_holds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/repro.txt");
        let run = std::fs::read_to_string(path).expect("bench/repro.txt is tracked");
        assert!(
            run.starts_with("corpus (scale 1): "),
            "{:?}",
            run.lines().next()
        );
        assert!(run.lines().any(|l| l.starts_with("shape ✓")));
        let failed: Vec<&str> = run.lines().filter(|l| l.contains('✗')).collect();
        assert!(failed.is_empty(), "{failed:#?}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1024 * 1024), "1.0");
        assert_eq!(mb(0), "0.0");
        assert_eq!(ms(4_884_400), "4884.4");
        assert_eq!(shape(false, "x".into()).to_string(), "shape ✗ x");
    }
}
