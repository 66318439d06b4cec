//! The benchmark's workloads: each one turns a seed into the fixed batch
//! of [`ExperimentSpec`]s that one measured round runs.
//!
//! Every matrix name encodes its workload, seed and position
//! (`{workload}-s{seed}-m{index}`), so a `--worker` child can rebuild the
//! exact spec from the name alone ([`spec_from_name`]); the name is also
//! part of every cell's seed hash, so two seeds never share a cell.

use nn_lab::{
    AdversarySpec, CellTuning, CohortDef, CohortKind, EventTimelineSpec, ExperimentSpec,
    LinkProfileSpec, PopulationSpec, StackKind, TopologySpec, WorkloadSpec,
};

/// How a workload's matrices are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The in-process thread pool, with this many worker threads.
    Threads(usize),
    /// `--worker` child processes, each running this many threads.
    Processes {
        /// Child processes (one shard each).
        workers: usize,
        /// Threads per child.
        threads: usize,
    },
}

impl Executor {
    /// Total workers running cells at once.
    pub fn parallelism(self) -> usize {
        match self {
            Executor::Threads(n) => n,
            Executor::Processes { workers, threads } => workers * threads,
        }
    }

    /// Shards an execution plan is split into.
    pub fn shards(self) -> usize {
        match self {
            Executor::Threads(_) => 1,
            Executor::Processes { workers, .. } => workers,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One matrix with the `full` axes: JSON-report dominated.
    FullSweep,
    /// The same axes run by worker processes through the shard wire.
    ShardedSweep,
    /// Many small metro matrices with a large flyweight population.
    MetroPopulation,
    /// Many neutralized-only matrices at the paper's key size.
    PaperKeys,
}

/// Every workload, in documentation order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::FullSweep,
    Workload::ShardedSweep,
    Workload::MetroPopulation,
    Workload::PaperKeys,
];

/// The largest seed a workload accepts, so derived seeds
/// (`seed * 1000 + i`) never overflow.
pub const MAX_SEED: u64 = u32::MAX as u64;

/// Matrices per round of `metro-population` (12 cells each).
const METRO_MATRICES: u64 = 84;
/// Matrices per round of `paper-keys` (16 cells each).
const PAPER_MATRICES: u64 = 126;

impl Workload {
    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FullSweep => "full-sweep",
            Workload::ShardedSweep => "sharded-sweep",
            Workload::MetroPopulation => "metro-population",
            Workload::PaperKeys => "paper-keys",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// How the workload's matrices run on a machine with `nproc` CPUs:
    /// never more than two workers, never more than the CPUs.
    pub fn executor(self, nproc: usize) -> Executor {
        let workers = nproc.clamp(1, 2);
        match self {
            Workload::ShardedSweep => Executor::Processes {
                workers,
                threads: 1,
            },
            _ => Executor::Threads(workers),
        }
    }

    /// The batch one round runs, built from `seed` (at most [`MAX_SEED`]).
    pub fn specs(self, seed: u64) -> Vec<ExperimentSpec> {
        assert!(seed <= MAX_SEED, "seed {seed} above {MAX_SEED}");
        match self {
            Workload::FullSweep => vec![full_axes(self.matrix_name(seed, 0), [seed, seed + 1])],
            Workload::ShardedSweep => {
                vec![full_axes(self.matrix_name(seed, 0), [seed + 2, seed + 3])]
            }
            Workload::MetroPopulation => (0..METRO_MATRICES)
                .map(|i| metro(self.matrix_name(seed, i), seed * 1000 + i))
                .collect(),
            Workload::PaperKeys => (0..PAPER_MATRICES)
                .map(|i| paper_keys(self.matrix_name(seed, i), seed * 1000 + i))
                .collect(),
        }
    }

    fn matrix_name(self, seed: u64, index: u64) -> String {
        format!("{}-s{seed}-m{index}", self.name())
    }
}

/// Rebuilds the spec a matrix name was generated from, or `None` when the
/// name is not one this benchmark generates.
pub fn spec_from_name(name: &str) -> Option<ExperimentSpec> {
    let workload = WORKLOADS
        .into_iter()
        .find(|w| name.starts_with(&format!("{}-s", w.name())))?;
    let rest = &name[workload.name().len() + 2..];
    let (seed, index) = rest.split_once("-m")?;
    let (seed, index): (u64, usize) = (parse_decimal(seed)?, parse_decimal(index)?);
    if seed > MAX_SEED {
        return None;
    }
    let spec = workload.specs(seed).into_iter().nth(index)?;
    // Reject non-canonical spellings ("s01", "m+1"): the name is hashed
    // into every cell seed, so it must round-trip exactly.
    (spec.name == name).then_some(spec)
}

fn parse_decimal<T: std::str::FromStr>(text: &str) -> Option<T> {
    if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    text.parse().ok()
}

/// The `full` named matrix's axes under a benchmark name and seed pair:
/// 4 topologies × 3 links × 4 workloads × 6 adversaries × 2 stacks ×
/// 2 seeds = 1152 cells.
fn full_axes(name: String, seeds: [u64; 2]) -> ExperimentSpec {
    ExperimentSpec {
        name,
        topologies: vec![
            TopologySpec::chain(),
            TopologySpec::dumbbell_crossed(),
            TopologySpec::star_default(),
            TopologySpec::multi_as_default(),
        ],
        links: vec![
            LinkProfileSpec::Clean,
            LinkProfileSpec::lossy_burst_default(),
            LinkProfileSpec::ecn_red_default(),
        ],
        workloads: vec![
            WorkloadSpec::voip_default(),
            WorkloadSpec::bulk_default(),
            WorkloadSpec::web_default(),
            WorkloadSpec::stream_default(),
        ],
        adversaries: vec![
            AdversarySpec::None,
            AdversarySpec::content_dpi_default(),
            AdversarySpec::PortBlock,
            AdversarySpec::address_drop_default(),
            AdversarySpec::delay_jitter_default(),
            AdversarySpec::tiered_default(),
        ],
        stacks: vec![StackKind::Plain, StackKind::Neutralized],
        events: vec![EventTimelineSpec::Static],
        seeds: seeds.to_vec(),
        probes: false,
        tuning: CellTuning::fast(),
    }
}

/// The `metro` axes (12 cells) with a larger population: 256 packet-mode
/// VoIP endpoints beside a one-million-endpoint fluid cohort.
fn metro(name: String, seed: u64) -> ExperimentSpec {
    let population = PopulationSpec {
        cohorts: vec![
            CohortDef {
                kind: CohortKind::Voip,
                endpoints: 256,
                interval_us: 20_000,
                frame_bytes: 160,
                size_spread: 0,
                jitter: false,
                fluid: false,
            },
            CohortDef {
                kind: CohortKind::Neutral,
                endpoints: 1_000_000,
                interval_us: 200_000,
                frame_bytes: 400,
                size_spread: 0,
                jitter: false,
                fluid: true,
            },
        ],
    };
    ExperimentSpec {
        name,
        topologies: vec![TopologySpec::Metro {
            spokes: 4,
            population,
        }],
        links: vec![LinkProfileSpec::Clean, LinkProfileSpec::ecn_red_default()],
        workloads: vec![WorkloadSpec::voip_default()],
        adversaries: vec![
            AdversarySpec::None,
            AdversarySpec::content_dpi_default(),
            AdversarySpec::tiered_default(),
        ],
        stacks: vec![StackKind::Plain, StackKind::Neutralized],
        events: vec![EventTimelineSpec::Static],
        seeds: vec![seed],
        probes: false,
        tuning: CellTuning::fast(),
    }
}

/// Neutralized-only cells at the paper's 512-bit keys and 2 s schedule:
/// chain + multihomed × voip/web × none/content-dpi × static/partition-heal
/// = 16 cells.
fn paper_keys(name: String, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name,
        topologies: vec![TopologySpec::chain(), TopologySpec::Multihomed],
        links: vec![LinkProfileSpec::Clean],
        workloads: vec![WorkloadSpec::voip_default(), WorkloadSpec::web_default()],
        adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
        stacks: vec![StackKind::Neutralized],
        events: vec![EventTimelineSpec::Static, EventTimelineSpec::PartitionHeal],
        seeds: vec![seed],
        probes: false,
        tuning: CellTuning::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_documented_shapes() {
        let cells = |w: Workload| -> usize { w.specs(1).iter().map(|s| s.cell_count()).sum() };
        assert_eq!(cells(Workload::FullSweep), 1152);
        assert_eq!(cells(Workload::ShardedSweep), 1152);
        assert_eq!(cells(Workload::MetroPopulation), 84 * 12);
        assert_eq!(cells(Workload::PaperKeys), 126 * 16);
    }

    #[test]
    fn names_round_trip_through_the_worker_decoder() {
        for w in WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            for seed in [0, 1, 977] {
                let specs = w.specs(seed);
                let last = specs.last().expect("non-empty batch");
                let rebuilt = spec_from_name(&last.name).expect("decodes");
                assert_eq!(rebuilt.name, last.name);
                assert_eq!(rebuilt.seeds, last.seeds);
                assert_eq!(rebuilt.cell_count(), last.cell_count());
            }
        }
    }

    #[test]
    fn undecodable_names_are_rejected() {
        for bad in [
            "",
            "full",
            "full-sweep",
            "full-sweep-s1",
            "full-sweep-s1-m1",
            "full-sweep-s01-m0",
            "full-sweep-s1-m00",
            "full-sweep-s+1-m0",
            "paper-keys-s1-m126",
            "nope-s1-m0",
            "metro-population-sx-m0",
        ] {
            assert!(spec_from_name(bad).is_none(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn seeds_give_distinct_cells() {
        let a = Workload::PaperKeys.specs(1);
        let b = Workload::PaperKeys.specs(2);
        assert_ne!(
            a[0].cell_at(0).unwrap().cell.seed,
            b[0].cell_at(0).unwrap().cell.seed
        );
    }

    #[test]
    fn executors_never_exceed_two_workers_or_the_cpus() {
        for w in WORKLOADS {
            assert_eq!(w.executor(1).parallelism(), 1);
            assert_eq!(w.executor(2).parallelism(), 2);
            assert_eq!(w.executor(64).parallelism(), 2);
        }
    }
}
