//! Online rebuild: the paper's self-tuning loop, closed under live
//! traffic.
//!
//! The FliX paper (§7) keeps a load monitor per collection and proposes
//! re-organising the meta-document layout when the observed query load
//! stops fitting the configuration that built it. The evaluator side of
//! that loop already exists ([`flix::LoadMonitor::recommend_with_report`]);
//! this module closes it: [`FlixServer::maybe_rebuild`] diffs the
//! server's monitor against the baseline captured at the last swap, asks
//! the monitor for a verdict on *that window* of traffic, builds the
//! recommended configuration on the configured thread budget, and
//! hot-swaps it in with [`FlixServer::swap_backend`] — in-flight queries
//! finish on the old generation, new admissions see the new one, and no
//! request is dropped either way.
//!
//! [`Rebuilder`] runs that tick on a background thread so a deployment
//! gets the loop without scheduling it: spawn it next to the server,
//! drop it (or call [`Rebuilder::stop`]) to stop. Every decision is
//! observable: [`FlixServer::generation`] counts the completed swaps,
//! each tick returns its [`RebuildOutcome`], and a traced server journals
//! `rebuild_start` / `rebuild_finish` / `swap` events.

use crate::server::{Backend, FlixServer};
use flix::{BuildOptions, Flix, FlixConfig, Recommendation};
use flixobs::{EventKind, Stopwatch};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

/// Policy knobs for the online rebuild loop.
#[derive(Debug, Clone)]
pub struct RebuildConfig {
    /// Minimum queries in the observation window before the monitor may
    /// judge the configuration (guards against deciding on noise).
    pub min_queries: u64,
    /// How often the background [`Rebuilder`] ticks
    /// [`FlixServer::maybe_rebuild`].
    pub interval: Duration,
    /// Worker threads for the rebuild itself ([`BuildOptions::build_threads`]
    /// semantics: `0` = one per core). The built framework is
    /// byte-identical at any thread count — threads only change wall clock.
    pub build_threads: usize,
}

impl Default for RebuildConfig {
    fn default() -> Self {
        Self {
            min_queries: 64,
            interval: Duration::from_secs(1),
            build_threads: 0,
        }
    }
}

/// What one rebuild tick decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildOutcome {
    /// Not enough traffic since the last swap to judge the configuration.
    Quiet {
        /// Queries observed in the window (below
        /// [`RebuildConfig::min_queries`]).
        queries: u64,
    },
    /// The monitor judged the window and kept the current configuration.
    Keep,
    /// A rebuild ran and hot-swapped in.
    Rebuilt {
        /// The server's backend generation after the swap.
        generation: u64,
        /// The configuration the rebuild used.
        config: FlixConfig,
        /// The monitor's justification, grounded in the previous build's
        /// measured cost.
        reason: String,
        /// Wall-clock build time of the replacement framework.
        build_micros: u64,
    },
}

/// Stable on-journal code for a configuration (the `rebuild_start`
/// event's `config` argument): the variant's position in the
/// [`FlixConfig`] declaration.
fn config_code(config: FlixConfig) -> u64 {
    match config {
        FlixConfig::Naive => 0,
        FlixConfig::MaximalPpo => 1,
        FlixConfig::UnconnectedHopi { .. } => 2,
        FlixConfig::Hybrid { .. } => 3,
        FlixConfig::Monolithic(_) => 4,
    }
}

impl FlixServer {
    /// One tick of the self-tuning loop: judge the traffic observed since
    /// the last swap, and rebuild + hot-swap if the monitor recommends a
    /// different configuration.
    ///
    /// The replacement backend keeps the current one's shape
    /// ([`flix::QueryBackend::over`]): a plain
    /// framework stays plain; a cached backend keeps its cache *object*
    /// (hit/miss history included) and re-attaches the rebuilt framework,
    /// so every stale entry is invalidated by the cache's generation
    /// check rather than by flushing; a sharded backend is re-sharded to
    /// the same shard count (and per-shard cache capacity). The build
    /// runs entirely off the serving path — queries are answered by the
    /// old generation until the one-pointer swap.
    ///
    /// Safe to call from any thread, but not designed for concurrent
    /// callers: two simultaneous ticks would race the same baseline and
    /// could build twice. [`Rebuilder`] serialises ticks by owning them.
    pub fn maybe_rebuild(&self, config: &RebuildConfig) -> RebuildOutcome {
        let snapshot = self.load();
        let window = snapshot.since(&self.rebuild_baseline().lock());
        if window.queries() < config.min_queries {
            return RebuildOutcome::Quiet {
                queries: window.queries(),
            };
        }
        let backend = self.backend();
        let framework = Arc::clone(&backend.0).framework();
        let verdict = window.recommend_with_report(
            framework.config(),
            config.min_queries,
            framework.build_report(),
        );
        let Recommendation::Rebuild { suggestion, reason } = verdict else {
            return RebuildOutcome::Keep;
        };
        self.journal_control(EventKind::RebuildStart {
            config: config_code(suggestion),
        });
        let build = Stopwatch::start();
        let rebuilt = Arc::new(Flix::build_with(
            framework.collection_arc(),
            suggestion,
            &BuildOptions {
                build_threads: config.build_threads,
                ..BuildOptions::default()
            },
        ));
        let build_micros = build.elapsed_micros();
        self.journal_control(EventKind::RebuildFinish {
            micros: build_micros,
        });
        let generation = self.swap_backend(Backend(backend.0.over(rebuilt)));
        // New baseline: the monitor judged everything up to `snapshot`;
        // the next window starts from here (queries answered on the old
        // generation between snapshot and swap bleed in — harmless, the
        // monitor's thresholds are averages).
        *self.rebuild_baseline().lock() = snapshot;
        RebuildOutcome::Rebuilt {
            generation,
            config: suggestion,
            reason,
            build_micros,
        }
    }
}

/// A background thread running [`FlixServer::maybe_rebuild`] every
/// [`RebuildConfig::interval`]. Stops on [`Self::stop`], on drop, or when
/// the server starts draining.
pub struct Rebuilder {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Rebuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rebuilder")
            .field("stopped", &self.stop.load(SeqCst))
            .finish_non_exhaustive()
    }
}

impl Rebuilder {
    /// Spawns the rebuild thread next to `server`.
    pub fn spawn(server: Arc<FlixServer>, config: RebuildConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            loop {
                std::thread::park_timeout(config.interval);
                if flag.load(SeqCst) || server.is_draining() {
                    break;
                }
                let outcome = server.maybe_rebuild(&config);
                drop(outcome); // every outcome is observable via `generation()` and the journal
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and waits for it (any in-progress rebuild
    /// finishes and swaps first).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            // flixcheck: allow(swallowed-result): a panicked rebuild thread has nothing left to stop
            let _ = handle.join();
        }
    }
}

impl Drop for Rebuilder {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Request, ServeConfig};
    use flix::{CachedFlix, QueryOptions, ShardedFlix};
    use std::sync::Arc;
    use xmlgraph::TagId;
    use xmlgraph::{Collection, Document, LinkTarget};

    /// A chain of single-element documents linked head-to-tail: every
    /// deep query hops one meta document per link under `Naive`, so the
    /// monitor's avg-lookups trigger fires and recommends growing the
    /// meta documents.
    fn chain(docs: usize) -> (Arc<Flix>, TagId) {
        let mut c = Collection::new();
        let t = c.tags.intern("t");
        for d in 0..docs {
            let mut doc = Document::new(format!("d{d}.xml"));
            let root = doc.add_element(t, None);
            if d + 1 < docs {
                doc.add_link(
                    root,
                    LinkTarget {
                        document: Some(format!("d{}.xml", d + 1)),
                        fragment: None,
                    },
                );
            }
            c.add_document(doc).unwrap();
        }
        let cg = Arc::new(c.seal());
        let tag = cg.collection.tags.get("t").unwrap();
        (Arc::new(Flix::build(cg, FlixConfig::Naive)), tag)
    }

    fn drive(server: &FlixServer, t: TagId, queries: usize) {
        for _ in 0..queries {
            server
                .query(Request::descendants(0, t, QueryOptions::default()))
                .unwrap();
        }
    }

    #[test]
    fn quiet_window_defers_judgement() {
        let (flix, t) = chain(4);
        let server = FlixServer::start(flix, ServeConfig::default());
        drive(&server, t, 3);
        let outcome = server.maybe_rebuild(&RebuildConfig {
            min_queries: 10,
            ..RebuildConfig::default()
        });
        assert_eq!(outcome, RebuildOutcome::Quiet { queries: 3 });
        assert_eq!(server.generation(), 1);
        server.shutdown();
    }

    #[test]
    fn link_heavy_load_rebuilds_and_swaps() {
        let (flix, t) = chain(24);
        let config = ServeConfig {
            single_flight: false,
            ..ServeConfig::default()
        };
        let server = FlixServer::start(Arc::clone(&flix), config);
        let oracle = flix.find_descendants(0, t, &QueryOptions::default());
        drive(&server, t, 16);
        let policy = RebuildConfig {
            min_queries: 8,
            build_threads: 1,
            ..RebuildConfig::default()
        };
        let outcome = server.maybe_rebuild(&policy);
        let RebuildOutcome::Rebuilt {
            generation, config, ..
        } = outcome
        else {
            panic!("24 chained lookups per query must trigger a rebuild, got {outcome:?}");
        };
        assert_eq!(generation, 2);
        assert_ne!(config, FlixConfig::Naive, "the suggestion grew the layout");
        // The swapped-in framework answers byte-identically.
        let after = server
            .query(Request::descendants(0, t, QueryOptions::default()))
            .unwrap();
        assert_eq!(*after.results, oracle);
        // The window was consumed: an immediate re-tick is quiet.
        assert!(matches!(
            server.maybe_rebuild(&policy),
            RebuildOutcome::Quiet { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn cached_backend_keeps_its_cache_object_across_rebuild() {
        let (flix, t) = chain(24);
        let cached = Arc::new(CachedFlix::new(Arc::clone(&flix), 8));
        let server = FlixServer::start(
            Arc::clone(&cached),
            ServeConfig {
                single_flight: false,
                ..ServeConfig::default()
            },
        );
        // Distinct starts: every query is a cache miss, and misses feed
        // the monitor the evaluator work they did.
        for start in 0..16 {
            server
                .query(Request::descendants(start, t, QueryOptions::default()))
                .unwrap();
        }
        let before_generation = cached.generation();
        let outcome = server.maybe_rebuild(&RebuildConfig {
            min_queries: 8,
            build_threads: 1,
            ..RebuildConfig::default()
        });
        assert!(
            matches!(outcome, RebuildOutcome::Rebuilt { .. }),
            "deep descendant chains must trigger a rebuild, got {outcome:?}"
        );
        // Same cache object, bumped generation: stale entries are
        // invalidated lazily, history survives.
        assert!(std::ptr::addr_eq(
            Arc::as_ptr(&server.backend().0),
            Arc::as_ptr(&cached)
        ));
        assert_eq!(cached.generation(), before_generation + 1);
        server.shutdown();
    }

    #[test]
    fn cache_misses_feed_the_load_monitor_and_hits_do_not() {
        let (flix, t) = chain(24);
        let backends: [(&str, Backend); 2] = [
            (
                "cached",
                Arc::new(CachedFlix::new(Arc::clone(&flix), 32)).into(),
            ),
            (
                "sharded",
                Arc::new(ShardedFlix::new(Arc::clone(&flix), 3).with_caches(32)).into(),
            ),
        ];
        let policy = RebuildConfig {
            min_queries: 8,
            build_threads: 1,
            ..RebuildConfig::default()
        };
        for (name, backend) in backends {
            let config = ServeConfig {
                single_flight: false,
                ..ServeConfig::default()
            };
            let server = FlixServer::start(backend, config);
            // One miss, then pure hits: only the miss did evaluator work.
            drive(&server, t, 12);
            assert_eq!(server.load().queries(), 1, "{name}: hits record nothing");
            assert_eq!(
                server.maybe_rebuild(&policy),
                RebuildOutcome::Quiet { queries: 1 },
                "{name}"
            );
            // Descendants misses only (distinct starts) cross the window.
            for start in 1..12 {
                server
                    .query(Request::descendants(start, t, QueryOptions::default()))
                    .unwrap();
            }
            assert_eq!(server.load().queries(), 12, "{name}: every miss records");
            let outcome = server.maybe_rebuild(&policy);
            assert!(
                matches!(outcome, RebuildOutcome::Rebuilt { .. }),
                "{name}: got {outcome:?}"
            );
            server.shutdown();
        }
    }

    #[test]
    fn background_rebuilder_swaps_without_dropping_answers() {
        let (flix, t) = chain(24);
        let server = Arc::new(FlixServer::start(
            Arc::clone(&flix),
            ServeConfig {
                single_flight: false,
                ..ServeConfig::default()
            },
        ));
        let oracle = flix.find_descendants(0, t, &QueryOptions::default());
        let rebuilder = Rebuilder::spawn(
            Arc::clone(&server),
            RebuildConfig {
                min_queries: 8,
                interval: Duration::from_millis(5),
                build_threads: 1,
            },
        );
        // Closed-loop traffic until the background thread swaps (bounded
        // so a broken rebuilder fails the test instead of hanging it).
        let mut answered = 0u64;
        for _ in 0..20_000 {
            let response = server
                .query(Request::descendants(0, t, QueryOptions::default()))
                .unwrap();
            assert_eq!(*response.results, oracle, "answers match across the swap");
            answered += 1;
            if server.generation() > 1 {
                break;
            }
        }
        assert!(server.generation() > 1, "rebuilder never swapped");
        // Traffic *after* the swap is served by the new generation.
        let after = server
            .query(Request::descendants(0, t, QueryOptions::default()))
            .unwrap();
        assert_eq!(*after.results, oracle);
        assert!(answered > 0);
        rebuilder.stop();
        server.shutdown();
    }
}
