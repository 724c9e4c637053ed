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
        (FlixConfig::Naive, 0x9c98_ca2f_bbd9_cfd5),
        (FlixConfig::MaximalPpo, 0x8224_44bd_f6d5_51a0),
        (
            FlixConfig::UnconnectedHopi {
                partition_size: 5000,
            },
            0x8b4d_f136_4ec5_78f3,
        ),
        (
            FlixConfig::Hybrid {
                partition_size: 5000,
            },
            0x7677_cc14_0eac_5aaf,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Ppo),
            0x0757_fe71_625e_549b,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Hopi),
            0xc7cf_f1e5_4f92_8a35,
        ),
        (
            FlixConfig::Monolithic(StrategyKind::Apex),
            0x7894_e513_86e8_b6af,
        ),
    ];
    for (config, want) in pinned {
        let got = digest(&Flix::build(cg.clone(), config));
        assert_eq!(got, want, "{config}: {got:016x}");
    }
}
