//! One build → persist → checkpoint → recover cycle against a file-backed
//! `DurableStore`, timed step by step.
//!
//! Flush policy is the store's own and is never altered here: one log
//! `sync` per commit, one data-file `sync` per checkpoint.

use crate::spans::{Recorder, ROOT};
use flix::{persist, BuildOptions, Flix, FlixConfig};
use flixobs::Stopwatch;
use pagestore::{
    DiskManager, DurableStore, FileDisk, FileLog, FileManifests, LogDevice, PAGE_SIZE,
};
use std::path::Path;
use std::sync::Arc;
use xmlgraph::CollectionGraph;

/// Buffer-pool frames of the store a framework is persisted through.
const PERSIST_POOL_FRAMES: usize = 256;
/// Blob-name prefix of the persisted framework.
pub const STORE_NAME: &str = "fw";

/// Timings and I/O counts of one cycle. Counts repeat exactly for a fixed
/// corpus; times do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    /// `Flix::build_with`, one thread.
    pub build_s: f64,
    /// First save + commit + checkpoint.
    pub persist_s: f64,
    /// `DurableStore::open` (WAL replay) + `persist::load_flix`.
    pub recover_s: f64,
    /// Mean of the two commits.
    pub commit_ms: f64,
    /// The checkpoint after the first commit.
    pub checkpoint_ms: f64,
    /// `DurableStore::open` alone.
    pub open_ms: f64,
    /// Data-file pages × `PAGE_SIZE` after the checkpoint, MB.
    pub stored_mb: f64,
    /// Page writes the data file saw before the store was dropped.
    pub pages_written: u64,
    /// Data-file syncs + log syncs before the store was dropped.
    pub syncs: u64,
    /// Mean framed WAL bytes of the two commits.
    pub wal_bytes_per_commit: f64,
    /// Page images recovery replayed from the log.
    pub pages_replayed: u64,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn secs(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64()
}

type Devices = (Arc<FileDisk>, Arc<FileLog>, Arc<FileManifests>);

fn open_devices(dir: &Path) -> Result<Devices, String> {
    Ok((
        Arc::new(FileDisk::open(dir.join("data.db")).map_err(|e| io_err("data file", e))?),
        Arc::new(FileLog::open(dir.join("wal.log")).map_err(|e| io_err("log file", e))?),
        Arc::new(FileManifests::open(dir.join("manifests")).map_err(|e| io_err("manifests", e))?),
    ))
}

fn open_store(devices: &Devices) -> Result<(DurableStore, pagestore::RecoveryReport), String> {
    DurableStore::open(
        devices.0.clone() as Arc<dyn DiskManager>,
        devices.1.clone(),
        devices.2.clone(),
        PERSIST_POOL_FRAMES,
    )
    .map_err(|e| io_err("store open", e))
}

/// Runs one cycle in `dir` (emptied first): builds `config` over `graph`,
/// saves it, commits, checkpoints, saves and commits again so the log has
/// a batch to replay, drops the store, recovers it and loads the framework
/// back. Returns the built framework, the recovered one and the cycle's
/// numbers. With a recorder, each step is a span under one `cycle` root.
pub fn cycle(
    graph: &Arc<CollectionGraph>,
    config: FlixConfig,
    dir: &Path,
    mut rec: Option<&mut Recorder>,
    request: u32,
) -> Result<(Flix, Flix, Cycle), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| io_err("clearing the store directory", e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating the store directory", e))?;
    let mut c = Cycle::default();
    let t0 = rec.as_deref().map_or(0, Recorder::now);
    let root = rec
        .as_deref_mut()
        .map_or(ROOT, |r| r.push("cycle", t0, t0, ROOT, request));
    // Records `name` as a child of the cycle root, from `from` to now.
    let mut step = |name: &'static str, from: u64| -> u64 {
        match rec.as_deref_mut() {
            Some(r) => {
                let now = r.now();
                r.push(name, from, now, root, request);
                now
            }
            None => 0,
        }
    };

    // A sequential build: the framework is byte-identical at any thread
    // count, and on a shared 2-core host a 2-thread build times whether the
    // neighbours left the second core alone, not the build.
    let sequential = BuildOptions {
        build_threads: 1,
        ..BuildOptions::default()
    };
    let sw = Stopwatch::start();
    let built = Flix::build_with(graph.clone(), config, &sequential);
    c.build_s = secs(&sw);
    let mut at = step("build", t0);

    let devices = open_devices(dir)?;
    let (mut store, _) = open_store(&devices)?;
    let persist = Stopwatch::start();
    persist::save_flix(&built, store.blobs_mut(), STORE_NAME)?;
    at = step("persist.save", at);
    let sw = Stopwatch::start();
    let first = store.commit().map_err(|e| io_err("commit", e))?;
    c.commit_ms = secs(&sw) * 1e3;
    at = step("pagestore.commit", at);
    let sw = Stopwatch::start();
    store.checkpoint().map_err(|e| io_err("checkpoint", e))?;
    c.checkpoint_ms = secs(&sw) * 1e3;
    c.persist_s = secs(&persist);
    at = step("pagestore.checkpoint", at);
    c.stored_mb = (devices.0.page_count() * PAGE_SIZE as u64) as f64 / 1e6;

    // A second committed image that no checkpoint folds in: recovery has
    // to replay it from the log.
    persist::save_flix(&built, store.blobs_mut(), STORE_NAME)?;
    at = step("persist.save", at);
    let sw = Stopwatch::start();
    let second = store.commit().map_err(|e| io_err("second commit", e))?;
    c.commit_ms = (c.commit_ms + secs(&sw) * 1e3) / 2.0;
    at = step("pagestore.commit", at);
    c.wal_bytes_per_commit = (first.bytes + second.bytes) as f64 / 2.0;
    let disk_stats = devices.0.stats();
    c.pages_written = disk_stats.writes;
    c.syncs = disk_stats.syncs + devices.1.syncs();
    drop(store);
    drop(devices);

    let recover = Stopwatch::start();
    let devices = open_devices(dir)?;
    let (store, report) = open_store(&devices)?;
    c.open_ms = secs(&recover) * 1e3;
    at = step("pagestore.open", at);
    c.pages_replayed = report.pages_replayed as u64;
    let recovered = persist::load_flix(store.blobs(), STORE_NAME, graph.clone())?;
    c.recover_s = secs(&recover);
    let end = step("persist.load", at);
    if let Some(r) = rec {
        // Close the root over its children.
        r.close(root, end);
    }
    Ok((built, recovered, c))
}
