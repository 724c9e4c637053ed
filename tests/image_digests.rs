//! Pins the persisted bytes of every framework configuration: a change
//! that promises byte-identical images must leave these digests alone, and
//! one that moves an image must say so by changing them.

use flix::{persist, Flix, FlixConfig, StrategyKind};
use pagestore::{BlobStore, BufferPool, MemDisk};
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};

/// 64-bit FNV-1a of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `flix` saved under `"fw"`.
fn saved(flix: &Flix) -> BlobStore {
    let mut store = BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    persist::save_flix(flix, &mut store, "fw").unwrap();
    store
}

/// `flix` saved under `"fw"`, each blob but the build report (it carries
/// wall-clock timings) folded in sorted name order.
fn digest(flix: &Flix) -> u64 {
    let store = saved(flix);
    let names = store.names();
    let images = names.iter().filter(|name| !name.ends_with("/report"));
    images.fold(0u64, |acc, name| {
        let blob = store.get(name).unwrap().unwrap();
        acc.rotate_left(5) ^ fnv1a64(&blob)
    })
}

/// Every configuration, and the digest its store folds to.
const PINNED: [(FlixConfig, u64); 7] = [
    (FlixConfig::Naive, 0x79c0_aa24_7100_c03d),
    (FlixConfig::MaximalPpo, 0x8ad1_19f3_3676_b34e),
    (
        FlixConfig::UnconnectedHopi {
            partition_size: 5000,
        },
        0x26af_0252_60eb_7fcd,
    ),
    (
        FlixConfig::Hybrid {
            partition_size: 5000,
        },
        0x5db1_c9c4_5e5b_56a7,
    ),
    (
        FlixConfig::Monolithic(StrategyKind::Ppo),
        0x907b_dcae_b36a_8422,
    ),
    (
        FlixConfig::Monolithic(StrategyKind::Hopi),
        0x734a_8e47_4256_0e86,
    ),
    (
        FlixConfig::Monolithic(StrategyKind::Apex),
        0x85b2_aaa1_9431_f19c,
    ),
];

#[test]
fn every_configuration_saves_the_pinned_bytes() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
    for (config, want) in PINNED {
        let got = digest(&Flix::build(cg.clone(), config));
        assert_eq!(got, want, "{config}: {got:016x}");
    }
}

/// The layout moved, the images did not: each segment — a blob named by
/// its first meta document — holds the format word, then its meta
/// documents' codec bytes end to end in id order, and a segment of more
/// than one image fits one page's chunk. A meta document's codec bytes are
/// what an "FLT5" store held behind the word in its blob of its own (the
/// persist tests fold that layout to the digests this file pinned for it).
#[test]
fn every_image_is_stored_as_its_codec_bytes() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
    for (config, _) in PINNED {
        let flix = Flix::build(cg.clone(), config);
        let store = saved(&flix);
        let mut firsts: Vec<usize> = (store.names().iter())
            .filter_map(|name| name.strip_prefix("fw/meta-")?.parse().ok())
            .collect();
        firsts.sort_unstable();
        assert_eq!(firsts.first(), Some(&0), "{config}");
        let ends = firsts.iter().skip(1).copied().chain([flix.meta_count()]);
        for (first, end) in firsts.iter().copied().zip(ends) {
            let blob = store.get(&format!("fw/meta-{first}")).unwrap().unwrap();
            let images = (first..end).map(|mi| pagestore::to_bytes(flix.meta(mi as u32)).unwrap());
            let want = [b"FLT6".to_vec(), images.collect::<Vec<_>>().concat()].concat();
            assert!(blob == want, "{config}: segment {first}..{end}");
            assert!(
                end - first == 1 || blob.len() <= pagestore::CHUNK,
                "{config}"
            );
        }
    }
}
