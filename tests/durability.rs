//! Durability integration tests: the WAL / snapshot / recovery stack
//! under simulated crashes at every byte boundary, property-based
//! committed-prefix recovery, corrupt-directory rejection, real
//! file-backed crash round trips, and the serve layer's hot swap under
//! concurrent closed-loop traffic.

use flix::{persist, CachedFlix, Flix, FlixConfig, QueryOptions, StrategyKind};
use flixserve::{Backend, FlixServer, Request, ServeConfig};
use pagestore::{
    BlobStore, BufferPool, DiskManager, DurableStore, FileDisk, FileLog, FileManifests, LogDevice,
    MemDisk, MemLog, MemManifests,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};
use xmlgraph::{Collection, Document, LinkTarget, TagId};

/// Oracle state after a commit: the exported directory bytes plus every
/// live blob's contents.
type Oracle = (Vec<u8>, BTreeMap<String, Vec<u8>>);

fn mem_store(capacity: usize) -> (DurableStore, Arc<MemDisk>, Arc<MemLog>, Arc<MemManifests>) {
    let disk = Arc::new(MemDisk::new());
    let log = Arc::new(MemLog::new());
    let manifests = Arc::new(MemManifests::new());
    let (store, _) = DurableStore::open(
        disk.clone() as Arc<dyn DiskManager>,
        log.clone(),
        manifests.clone(),
        capacity,
    )
    .expect("fresh open");
    (store, disk, log, manifests)
}

fn oracle_of(store: &DurableStore, blobs: &BTreeMap<String, Vec<u8>>) -> Oracle {
    (store.committed_directory().to_vec(), blobs.clone())
}

fn assert_matches_oracle(recovered: &DurableStore, oracle: &Oracle, context: &str) {
    let (want_dir, want_blobs) = oracle;
    assert_eq!(
        recovered.committed_directory(),
        &want_dir[..],
        "directory mismatch: {context}"
    );
    for (name, data) in want_blobs {
        assert_eq!(
            recovered.get_blob(name).expect("readable").as_deref(),
            Some(&data[..]),
            "blob {name} mismatch: {context}"
        );
    }
}

/// Crash the store at WAL byte `cut` and recover: every complete
/// committed batch within the prefix must be recovered exactly; torn or
/// uncommitted tails must vanish without damage.
#[test]
fn kill_point_sweep_recovers_committed_prefix_at_every_byte() {
    let (mut store, disk, log, manifests) = mem_store(8);
    // Checkpoint-time images (post-open checkpoint: empty store, gen 1).
    let base_frames = disk.snapshot_frames();
    let base_manifests = manifests.snapshot();

    let mut blobs: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut oracles: Vec<Oracle> = vec![oracle_of(&store, &blobs)];
    let mut boundaries: Vec<usize> = Vec::new();
    for i in 0..5usize {
        let name = format!("blob-{i}");
        let data: Vec<u8> = (0..157 + 61 * i).map(|b| (b * 31 + i) as u8).collect();
        store.put_blob(&name, &data).expect("put");
        if i == 3 {
            // A removal inside a later batch: recovery must honour it.
            store.remove_blob("blob-1");
            blobs.remove("blob-1");
        }
        store.commit().expect("commit");
        blobs.insert(name, data);
        oracles.push(oracle_of(&store, &blobs));
        boundaries.push(log.len().expect("len") as usize);
    }
    let image = log.snapshot();
    assert_eq!(*boundaries.last().unwrap(), image.len());

    for cut in 0..=image.len() {
        let crash_disk = Arc::new(MemDisk::from_frames(base_frames.clone()));
        let crash_log = Arc::new(MemLog::from_bytes(image[..cut].to_vec()));
        let crash_manifests = Arc::new(MemManifests::from_snapshot(base_manifests.clone()));
        let (recovered, report) = DurableStore::open(
            crash_disk as Arc<dyn DiskManager>,
            crash_log,
            crash_manifests,
            8,
        )
        .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let survived = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            report.batches_replayed, survived,
            "wrong batch count at cut {cut}"
        );
        assert_matches_oracle(&recovered, &oracles[survived], &format!("cut {cut}"));
        // Recovery always leaves a clean, checkpointed store.
        assert!(!recovered.has_uncommitted());
    }
}

/// A crash *after* a checkpoint but with the pre-checkpoint WAL restored
/// (simulating a torn truncate): stale-epoch batches must be skipped, and
/// the checkpointed state must win.
#[test]
fn stale_wal_batches_from_before_a_checkpoint_are_skipped() {
    let (mut store, disk, log, manifests) = mem_store(8);
    store
        .put_blob("keep", b"committed before checkpoint")
        .expect("put");
    store.commit().expect("commit");
    let old_log = log.snapshot();
    store.checkpoint().expect("checkpoint");
    assert_eq!(log.len().expect("len"), 0, "checkpoint truncates the WAL");

    // Crash with the old (pre-truncate) log image resurrected.
    let crash_disk = Arc::new(MemDisk::from_frames(disk.snapshot_frames()));
    let crash_log = Arc::new(MemLog::from_bytes(old_log));
    let crash_manifests = Arc::new(MemManifests::from_snapshot(manifests.snapshot()));
    let (recovered, report) = DurableStore::open(
        crash_disk as Arc<dyn DiskManager>,
        crash_log,
        crash_manifests,
        8,
    )
    .expect("recover");
    assert_eq!(report.batches_skipped, 1, "stale-epoch batch skipped");
    assert_eq!(report.batches_replayed, 0);
    assert_eq!(
        recovered.get_blob("keep").expect("readable").as_deref(),
        Some(&b"committed before checkpoint"[..])
    );
}

/// One durable-store op in the proptest workload.
#[derive(Debug, Clone)]
enum Op {
    Put { slot: u8, size: u16 },
    Remove { slot: u8 },
    Commit,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, 1u16..2048).prop_map(|(slot, size)| Op::Put { slot, size }),
            (0u8..6).prop_map(|slot| Op::Remove { slot }),
            Just(Op::Commit),
            Just(Op::Commit),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any op sequence, crashed at any WAL byte: the recovered store is
    /// byte-identical to the oracle of the longest committed prefix.
    #[test]
    fn committed_prefix_is_recovered_exactly(ops in arb_ops(), cut_mille in 0u32..=1000) {
        let (mut store, disk, log, manifests) = mem_store(8);
        let base_frames = disk.snapshot_frames();
        let base_manifests = manifests.snapshot();

        let mut blobs: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut oracles: Vec<Oracle> = vec![oracle_of(&store, &blobs)];
        let mut boundaries: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Put { slot, size } => {
                    let name = format!("slot-{slot}");
                    let data: Vec<u8> = (0..*size as usize).map(|b| (b + i) as u8).collect();
                    store.put_blob(&name, &data).expect("put");
                    blobs.insert(name, data);
                }
                Op::Remove { slot } => {
                    let name = format!("slot-{slot}");
                    store.remove_blob(&name);
                    blobs.remove(&name);
                }
                Op::Commit => {
                    store.commit().expect("commit");
                    oracles.push(oracle_of(&store, &blobs));
                    boundaries.push(log.len().expect("len") as usize);
                }
            }
        }
        let image = log.snapshot();
        let cut = image.len() * cut_mille as usize / 1000;
        let crash_disk = Arc::new(MemDisk::from_frames(base_frames));
        let crash_log = Arc::new(MemLog::from_bytes(image[..cut].to_vec()));
        let crash_manifests = Arc::new(MemManifests::from_snapshot(base_manifests));
        let (recovered, _) = DurableStore::open(
            crash_disk as Arc<dyn DiskManager>,
            crash_log,
            crash_manifests,
            8,
        )
        .expect("recover");
        let survived = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_matches_oracle(&recovered, &oracles[survived], &format!("cut {cut}"));
    }
}

/// Corrupt blob directories are rejected with a typed error, never a
/// panic and never a silently wrong store.
#[test]
fn corrupt_directories_are_rejected() {
    // A valid one-blob directory to mutate.
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4));
    let mut store = BlobStore::new(pool.clone());
    store.put("a", b"payload").expect("put");
    let good = store.export_directory();
    assert!(BlobStore::import_directory(pool.clone(), &good).is_ok());

    // Truncation at every byte boundary short of the full image: either a
    // clean error or (for a prefix that happens to decode fewer entries)
    // never a crash. The count prefix makes all strict prefixes invalid.
    for cut in 0..good.len() {
        let result = BlobStore::import_directory(pool.clone(), &good[..cut]);
        assert!(
            result.is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // Invalid UTF-8 in the name (count u32 + name_len u32, then the name).
    let mut bad_name = good.clone();
    bad_name[8] = 0xFF;
    let err = BlobStore::import_directory(pool.clone(), &bad_name)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, "invalid blob name");

    // A count far beyond the data: truncated.
    let mut huge = good.clone();
    huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        BlobStore::import_directory(pool.clone(), &huge)
            .map(|_| ())
            .unwrap_err(),
        "directory truncated"
    );

    // A page_count beyond the data: truncated.
    let name_len = 1usize; // "a"
    let page_count_off = 4 + 4 + name_len + 8;
    let mut bad_pages = good.clone();
    bad_pages[page_count_off..page_count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        BlobStore::import_directory(pool, &bad_pages)
            .map(|_| ())
            .unwrap_err(),
        "directory truncated"
    );
}

/// Real files: commit without a checkpoint, drop everything, reopen from
/// disk — the committed blobs survive through WAL replay alone; then
/// checkpoint and reopen again — they survive through the manifest alone.
#[test]
fn file_backed_store_survives_reopen_with_and_without_checkpoint() {
    let dir = std::env::temp_dir().join(format!("flix-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    let db = dir.join("data.db");
    let wal = dir.join("wal.log");
    let manifests_dir = dir.join("manifests");
    let open = || {
        DurableStore::open(
            Arc::new(FileDisk::open(&db).expect("disk")) as Arc<dyn DiskManager>,
            Arc::new(FileLog::open(&wal).expect("log")),
            Arc::new(FileManifests::open(&manifests_dir).expect("manifests")),
            16,
        )
        .expect("open")
    };

    {
        let (mut store, report) = open();
        assert_eq!(report.batches_replayed, 0);
        store
            .put_blob("wal-only", b"survives via replay")
            .expect("put");
        store.commit().expect("commit");
        // No checkpoint: dropped with a dirty pool and a live WAL.
    }
    {
        let (mut store, report) = open();
        assert_eq!(report.batches_replayed, 1, "one committed batch replayed");
        assert_eq!(
            store.get_blob("wal-only").expect("readable").as_deref(),
            Some(&b"survives via replay"[..])
        );
        store
            .put_blob("snap", b"survives via manifest")
            .expect("put");
        store.checkpoint().expect("checkpoint");
    }
    {
        let (store, report) = open();
        assert_eq!(report.batches_replayed, 0, "checkpoint emptied the WAL");
        assert_eq!(
            store.get_blob("wal-only").expect("readable").as_deref(),
            Some(&b"survives via replay"[..])
        );
        assert_eq!(
            store.get_blob("snap").expect("readable").as_deref(),
            Some(&b"survives via manifest"[..])
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

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
        c.add_document(doc).expect("doc");
    }
    let cg = Arc::new(c.seal());
    let tag = cg.collection.tags.get("t").expect("tag");
    (Arc::new(Flix::build(cg, FlixConfig::Naive)), tag)
}

/// Concurrent closed-loop clients while the backend is swapped under
/// them repeatedly, starting from a plain and from a cached backend, each
/// swap going through `QueryBackend::over`: zero dropped queries, every
/// answer byte-identical to the single-generation oracle.
#[test]
fn hot_swap_under_concurrent_traffic_drops_nothing_and_changes_no_answer() {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    let (naive, tag) = chain(16);
    // An alternative build of the same collection: answers are identical,
    // the engine is not.
    let grown = Arc::new(Flix::build(
        naive.collection_arc(),
        FlixConfig::UnconnectedHopi {
            partition_size: 1500,
        },
    ));
    let oracle = naive.find_descendants(0, tag, &QueryOptions::default());
    assert_eq!(
        grown.find_descendants(0, tag, &QueryOptions::default()),
        oracle,
        "both generations agree before serving"
    );

    let backends: [(&str, Backend); 2] = [
        ("plain", Arc::clone(&naive).into()),
        (
            "cached",
            Arc::new(CachedFlix::new(Arc::clone(&naive), 8)).into(),
        ),
    ];
    for (name, backend) in backends {
        let server = Arc::new(FlixServer::start(
            backend,
            ServeConfig {
                workers: 4,
                single_flight: false,
                ..ServeConfig::default()
            },
        ));
        let stop = AtomicBool::new(false);
        let swaps = 40u64;
        std::thread::scope(|s| {
            // Swapper: flip between the two engines as fast as possible,
            // keeping the backend's shape.
            s.spawn(|| {
                for i in 0..swaps {
                    let rebuilt = if i % 2 == 0 { &grown } else { &naive };
                    let next = server.backend().0.over(Arc::clone(rebuilt));
                    server.swap_backend(Backend(next));
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                stop.store(true, SeqCst);
            });
            // Clients: closed-loop queries across every swap.
            for _ in 0..3 {
                s.spawn(|| {
                    let mut answered = 0u64;
                    while !stop.load(SeqCst) {
                        let response = server
                            .query(Request::descendants(0, tag, QueryOptions::default()))
                            .expect("hot swap must not drop queries");
                        assert_eq!(
                            *response.results, oracle,
                            "{name}: answer changed across a swap"
                        );
                        answered += 1;
                    }
                    assert!(answered > 0, "{name}: client made progress");
                });
            }
        });
        assert_eq!(
            server.generation(),
            1 + swaps,
            "{name}: every swap bumped the generation"
        );
        server.shutdown();
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The data file `flix` saves to: every blob of its save but the build
/// report (it carries wall-clock timings), re-put in name order into a
/// fresh store and flushed, its frames folded in page order. Returns the
/// digest and the page count.
fn data_file_digest(flix: &Flix) -> (u64, usize) {
    let mut saved = BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    persist::save_flix(flix, &mut saved, "fw").expect("save");
    let disk = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(disk.clone(), 64));
    let mut store = BlobStore::new(pool.clone());
    for name in saved
        .names()
        .into_iter()
        .filter(|n| !n.ends_with("/report"))
    {
        let blob = saved.get(name).expect("readable").expect("present");
        store.put(name, &blob).expect("put");
    }
    pool.flush_all().expect("flush");
    let frames = disk.snapshot_frames();
    let digest = frames.iter().fold(0u64, |acc, frame| {
        let frame = frame.as_deref().expect("every allocated page is written");
        acc.rotate_left(5) ^ fnv1a64(frame)
    });
    (digest, frames.len())
}

/// Pins every byte of the data file, page headers and padding included,
/// not only the blobs read back through the store: a change to how a page
/// lays out its chunk moves these digests.
#[test]
fn every_configuration_writes_the_pinned_data_file() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
    let pinned = [
        (FlixConfig::Naive, 0x532d_3114_5992_91ac, 2),
        (FlixConfig::MaximalPpo, 0x918e_e71c_6ba5_763a, 2),
        (
            FlixConfig::UnconnectedHopi {
                partition_size: 5000,
            },
            0xa482_9a91_ae64_ec21,
            4,
        ),
        (
            FlixConfig::Hybrid {
                partition_size: 5000,
            },
            0x06ad_15ef_a2cc_cad1,
            2,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Ppo),
            0x64a9_2ab0_dd3c_e0b8,
            2,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Hopi),
            0x034d_c0bd_68ad_b21d,
            4,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Apex),
            0x24a6_c9f1_7278_6098,
            3,
        ),
    ];
    for (config, want, pages) in pinned {
        let got = data_file_digest(&Flix::build(cg.clone(), config));
        assert_eq!(got, (want, pages), "{config}: {:016x}", got.0);
    }
}
