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

/// `flix` saved under `"fw"`, each blob but the build report (it carries
/// wall-clock timings) folded in sorted name order.
fn digest(flix: &Flix) -> u64 {
    let mut store = BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64)));
    persist::save_flix(flix, &mut store, "fw").unwrap();
    let names = store.names();
    let images = names.iter().filter(|name| !name.ends_with("/report"));
    images.fold(0u64, |acc, name| {
        let blob = store.get(name).unwrap().unwrap();
        acc.rotate_left(5) ^ fnv1a64(&blob)
    })
}

#[test]
fn every_configuration_saves_the_pinned_bytes() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
    let pinned = [
        (FlixConfig::Naive, 0x47e4_543e_58c7_b199),
        (FlixConfig::MaximalPpo, 0xba02_25f4_c168_959e),
        (
            FlixConfig::UnconnectedHopi {
                partition_size: 5000,
            },
            0x7657_1f08_9679_466d,
        ),
        (
            FlixConfig::Hybrid {
                partition_size: 5000,
            },
            0xa817_a7dc_7b8e_b2b0,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Ppo),
            0x1090_633b_85af_e3bf,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Hopi),
            0x1e8f_5ac4_dfbb_40bb,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Apex),
            0x55ed_6c89_7c18_3d26,
        ),
    ];
    for (config, want) in pinned {
        let got = digest(&Flix::build(cg.clone(), config));
        assert_eq!(got, want, "{config}: {got:016x}");
    }
}
