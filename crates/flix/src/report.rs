//! Build observability: what the build phase did, per meta document and in
//! aggregate.
//!
//! [`BuildReport`] is produced by every [`crate::framework::Flix`] build. It
//! records the strategy chosen for each meta document, its size, its index
//! build cost and footprint, plus stage timings and the parallelism the
//! scoped worker pool achieved. `flixbench` reads its stage timings for the
//! `build.*` layer metrics; the §7 self-tuning loop uses it to justify
//! rebuild recommendations with real per-meta costs.

use crate::config::{FlixConfig, StrategyKind};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Build record for one meta document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaBuildReport {
    /// Strategy the meta document was indexed with.
    pub strategy: StrategyKind,
    /// Elements in the meta document's subgraph.
    pub nodes: usize,
    /// Edges of the meta document's subgraph.
    pub edges: usize,
    /// Wall-clock build time of this meta document's index, in microseconds
    /// (an integer so reports serialize deterministically).
    pub build_micros: u64,
    /// Estimated index footprint in bytes.
    pub index_bytes: usize,
    /// Runtime links this meta document contributed (PPO-removed edges).
    pub dropped_links: usize,
    /// Per-stage breakdown of the staged HOPI cover pipeline (rank /
    /// merge / cover timings, partition and border counts). `None` for
    /// PPO- and APEX-backed meta documents.
    pub stages: Option<hopi::StageReport>,
}

impl MetaBuildReport {
    /// The build time as a [`Duration`].
    pub fn build_time(&self) -> Duration {
        Duration::from_micros(self.build_micros)
    }
}

/// Aggregate report of one framework build: stage timings, parallelism, and
/// the per-meta-document breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildReport {
    /// The configuration that was built.
    pub config: FlixConfig,
    /// Worker threads used for the index-build stage.
    pub threads: usize,
    /// Wall-clock microseconds spent planning meta documents (§4.1).
    pub planning_micros: u64,
    /// Wall-clock microseconds of the (parallel) index-build stage.
    pub indexing_micros: u64,
    /// Wall-clock microseconds spent wiring the runtime link table.
    pub wiring_micros: u64,
    /// Wall-clock microseconds of the whole build.
    pub total_micros: u64,
    /// Entries in the final runtime link table.
    pub runtime_links: usize,
    /// Per-meta-document breakdown, in meta-document order.
    pub per_meta: Vec<MetaBuildReport>,
}

impl BuildReport {
    /// A zeroed placeholder (for persisted frameworks whose store predates
    /// report blobs).
    pub fn empty(config: FlixConfig) -> Self {
        Self {
            config,
            threads: 0,
            planning_micros: 0,
            indexing_micros: 0,
            wiring_micros: 0,
            total_micros: 0,
            runtime_links: 0,
            per_meta: Vec::new(),
        }
    }

    /// Sum of per-meta index-build times: the work a one-thread build pays
    /// sequentially.
    pub fn cpu_micros(&self) -> u64 {
        self.per_meta.iter().map(|m| m.build_micros).sum()
    }

    /// The single most expensive meta-document build — no parallel schedule
    /// can finish the indexing stage faster than this.
    pub fn critical_path_micros(&self) -> u64 {
        self.per_meta
            .iter()
            .map(|m| m.build_micros)
            .max()
            .unwrap_or(0)
    }

    /// Index of and record for the costliest meta document, if any.
    pub fn costliest_meta(&self) -> Option<(usize, &MetaBuildReport)> {
        self.per_meta
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.build_micros)
    }

    /// Total estimated index footprint across meta documents, in bytes.
    pub fn index_bytes(&self) -> usize {
        self.per_meta.iter().map(|m| m.index_bytes).sum()
    }

    /// Staged-pipeline totals across every HOPI-backed meta document
    /// (timings and partition counts summed, threads maxed), or `None` if
    /// no meta document went through the staged builder.
    pub fn hopi_stage_totals(&self) -> Option<hopi::StageReport> {
        let mut total: Option<hopi::StageReport> = None;
        for m in &self.per_meta {
            if let Some(s) = m.stages {
                total
                    .get_or_insert_with(hopi::StageReport::default)
                    .absorb(s);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(strategy: StrategyKind, micros: u64) -> MetaBuildReport {
        MetaBuildReport {
            strategy,
            nodes: 10,
            edges: 9,
            build_micros: micros,
            index_bytes: 100,
            dropped_links: 1,
            stages: (strategy == StrategyKind::Hopi).then_some(hopi::StageReport {
                rank_micros: 3,
                merge_micros: 4,
                cover_micros: 5,
                partitions: 2,
                border_centers: 1,
                threads: 2,
            }),
        }
    }

    fn sample() -> BuildReport {
        BuildReport {
            config: FlixConfig::Naive,
            threads: 4,
            planning_micros: 5,
            indexing_micros: 40,
            wiring_micros: 5,
            total_micros: 50,
            runtime_links: 2,
            per_meta: vec![
                meta(StrategyKind::Ppo, 30),
                meta(StrategyKind::Hopi, 70),
                meta(StrategyKind::Apex, 20),
            ],
        }
    }

    #[test]
    fn aggregates() {
        let r = sample();
        assert_eq!(r.cpu_micros(), 120);
        assert_eq!(r.critical_path_micros(), 70);
        assert_eq!(r.index_bytes(), 300);
        let (idx, costliest) = r.costliest_meta().unwrap();
        assert_eq!(idx, 1);
        assert_eq!(costliest.strategy, StrategyKind::Hopi);
        assert_eq!(costliest.build_time(), Duration::from_micros(70));
    }

    #[test]
    fn empty_report_is_inert() {
        let r = BuildReport::empty(FlixConfig::MaximalPpo);
        assert_eq!(r.cpu_micros(), 0);
        assert_eq!(r.critical_path_micros(), 0);
        assert!(r.costliest_meta().is_none());
    }

    #[test]
    fn stage_totals_aggregate_hopi_metas_only() {
        let mut r = sample();
        assert_eq!(
            r.hopi_stage_totals(),
            Some(hopi::StageReport {
                rank_micros: 3,
                merge_micros: 4,
                cover_micros: 5,
                partitions: 2,
                border_centers: 1,
                threads: 2,
            })
        );
        r.per_meta.push(meta(StrategyKind::Hopi, 10));
        let total = r.hopi_stage_totals().unwrap();
        assert_eq!(total.rank_micros, 6);
        assert_eq!(total.partitions, 4);
        assert_eq!(total.threads, 2, "threads are maxed, not summed");
        r.per_meta.retain(|m| m.strategy != StrategyKind::Hopi);
        assert_eq!(r.hopi_stage_totals(), None);
    }

    #[test]
    fn round_trips_through_pagestore_codec() {
        let r = sample();
        let bytes = pagestore::to_bytes(&r).expect("serialize");
        let back: BuildReport = pagestore::from_bytes(&bytes).expect("deserialize");
        assert_eq!(r, back);
    }
}
