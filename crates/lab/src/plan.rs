//! The planning layer: deterministic, lazy expansion of an
//! [`ExperimentSpec`] into indexed cells, and the partitioning of those
//! cells into shards.
//!
//! Expansion is pure arithmetic — a cell's axis coordinates are the
//! mixed-radix digits of its index (seeds fastest, topologies slowest),
//! so any cell can be materialized in O(1) without building the whole
//! cross product. That makes sharding trivial: an [`ExecutionPlan`]
//! splits the index space into [`CellAssignment`]s, and because the
//! per-cell simulator seed is a hash of the spec identity and the index
//! (never of *where* the cell runs), a shard computes exactly the cells
//! the single-process runner would — on any thread, process or host.
//!
//! Shards are strided (`shard`, `shard + n`, `shard + 2n`, …) rather
//! than contiguous: expensive cells cluster by topology/link (the slow
//! axes), and striding spreads each cluster across every shard.

use crate::cell::CellSpec;
use crate::matrix::{ExperimentSpec, MatrixCellSpec};

impl ExperimentSpec {
    /// Number of cells the spec expands into, without expanding it.
    pub fn cell_count(&self) -> usize {
        self.topologies.len()
            * self.links.len()
            * self.workloads.len()
            * self.adversaries.len()
            * self.stacks.len()
            * self.events.len()
            * self.seeds.len()
    }

    /// Materializes the cell at `index` in expansion order, or `None`
    /// past the end. Pure arithmetic — no other cell is built.
    pub fn cell_at(&self, index: usize) -> Option<MatrixCellSpec> {
        if index >= self.cell_count() {
            return None;
        }
        // Mixed-radix decomposition matching the nested expansion loops:
        // topology outermost, seed-axis innermost.
        let mut i = index;
        let e = i % self.seeds.len();
        i /= self.seeds.len();
        let v = i % self.events.len();
        i /= self.events.len();
        let s = i % self.stacks.len();
        i /= self.stacks.len();
        let a = i % self.adversaries.len();
        i /= self.adversaries.len();
        let w = i % self.workloads.len();
        i /= self.workloads.len();
        let l = i % self.links.len();
        i /= self.links.len();
        let t = i;

        let topology = &self.topologies[t];
        let link = &self.links[l];
        let workload = &self.workloads[w];
        let adversary = &self.adversaries[a];
        let stack = self.stacks[s];
        let events = self.events[v];
        let seed_axis = self.seeds[e];
        let sim_seed = self.cell_seed(
            index, topology, link, workload, adversary, stack, events, seed_axis,
        );
        Some(MatrixCellSpec {
            index,
            seed_axis,
            cell: CellSpec {
                topology: topology.clone(),
                link: *link,
                workload: *workload,
                adversary: *adversary,
                stack,
                events,
                probes: self.probes,
                seed: sim_seed,
            },
        })
    }

    /// Lazily iterates the full expansion in index order.
    pub fn iter_cells(&self) -> CellIter<'_> {
        CellIter {
            spec: self,
            next: 0,
            total: self.cell_count(),
        }
    }
}

/// Lazy iterator over a spec's expansion ([`ExperimentSpec::iter_cells`]).
#[derive(Debug, Clone)]
pub struct CellIter<'a> {
    spec: &'a ExperimentSpec,
    next: usize,
    total: usize,
}

impl Iterator for CellIter<'_> {
    type Item = MatrixCellSpec;

    fn next(&mut self) -> Option<MatrixCellSpec> {
        if self.next >= self.total {
            return None;
        }
        let cell = self.spec.cell_at(self.next);
        self.next += 1;
        cell
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CellIter<'_> {}

/// One shard's slice of a plan: every cell index congruent to `shard`
/// modulo `shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellAssignment {
    /// This shard's position, `0 <= shard < shards`.
    pub shard: usize,
    /// Total number of shards in the plan.
    pub shards: usize,
}

impl CellAssignment {
    /// Builds an assignment, rejecting `shards == 0` and out-of-range
    /// shard positions.
    pub fn new(shard: usize, shards: usize) -> Result<CellAssignment, String> {
        if shards == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if shard >= shards {
            return Err(format!(
                "shard index {shard} out of range for {shards} shards"
            ));
        }
        Ok(CellAssignment { shard, shards })
    }

    /// Parses the CLI form `I/N` (e.g. `0/3`), validating `I < N`.
    pub fn parse(text: &str) -> Result<CellAssignment, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("malformed shard {text:?}: expected I/N"))?;
        let shard: usize = i
            .parse()
            .map_err(|_| format!("malformed shard index {i:?} in {text:?}"))?;
        let shards: usize = n
            .parse()
            .map_err(|_| format!("malformed shard count {n:?} in {text:?}"))?;
        CellAssignment::new(shard, shards)
    }

    /// The cell indices this shard owns, out of `total` cells.
    pub fn cell_indices(&self, total: usize) -> impl Iterator<Item = usize> {
        (self.shard..total).step_by(self.shards)
    }

    /// How many cells this shard owns, out of `total`.
    pub fn cell_count(&self, total: usize) -> usize {
        if self.shard >= total {
            0
        } else {
            (total - self.shard).div_ceil(self.shards)
        }
    }

    /// Lazily materializes this shard's cells from `spec`, in index
    /// order.
    pub fn cells<'a>(&self, spec: &'a ExperimentSpec) -> impl Iterator<Item = MatrixCellSpec> + 'a {
        self.cell_indices(spec.cell_count())
            .map(|i| spec.cell_at(i).expect("index within expansion"))
    }
}

/// A spec plus its partitioning into shards — the unit the execution
/// layer consumes.
#[derive(Debug, Clone)]
pub struct ExecutionPlan<'a> {
    spec: &'a ExperimentSpec,
    shards: usize,
}

impl<'a> ExecutionPlan<'a> {
    /// Plans `spec` over `shards` shards. The count is clamped to
    /// `1..=cell_count` (a shard with nothing to do is never planned).
    pub fn new(spec: &'a ExperimentSpec, shards: usize) -> ExecutionPlan<'a> {
        ExecutionPlan {
            spec,
            shards: shards.clamp(1, spec.cell_count().max(1)),
        }
    }

    /// The spec being planned.
    pub fn spec(&self) -> &'a ExperimentSpec {
        self.spec
    }

    /// Total cells in the expansion.
    pub fn cell_count(&self) -> usize {
        self.spec.cell_count()
    }

    /// Number of shards (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Every shard's assignment, in shard order.
    pub fn assignments(&self) -> Vec<CellAssignment> {
        (0..self.shards)
            .map(|shard| CellAssignment {
                shard,
                shards: self.shards,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::named_matrix;

    #[test]
    fn lazy_expansion_matches_materialized_expansion() {
        for name in ["smoke", "default"] {
            let spec = named_matrix(name).unwrap();
            let eager = spec.cells();
            assert_eq!(spec.cell_count(), eager.len());
            let lazy: Vec<_> = spec.iter_cells().collect();
            assert_eq!(lazy.len(), eager.len());
            for (a, b) in eager.iter().zip(&lazy) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.seed_axis, b.seed_axis);
                assert_eq!(a.cell.seed, b.cell.seed, "cell {} seed", a.index);
                assert_eq!(a.cell.topology, b.cell.topology);
                assert_eq!(a.cell.link, b.cell.link);
                assert_eq!(a.cell.workload, b.cell.workload);
                assert_eq!(a.cell.adversary, b.cell.adversary);
                assert_eq!(a.cell.stack, b.cell.stack);
            }
        }
    }

    #[test]
    fn cell_at_is_random_access() {
        let spec = named_matrix("smoke").unwrap();
        let eager = spec.cells();
        // Walk backwards so any accumulated-state bug would show.
        for i in (0..spec.cell_count()).rev() {
            let c = spec.cell_at(i).unwrap();
            assert_eq!(c.index, i);
            assert_eq!(c.cell.seed, eager[i].cell.seed);
        }
        assert!(spec.cell_at(spec.cell_count()).is_none());
    }

    #[test]
    fn strided_assignments_partition_the_index_space() {
        for total in [0usize, 1, 7, 24, 48] {
            for shards in 1..=8usize {
                let assignments: Vec<CellAssignment> = (0..shards)
                    .map(|s| CellAssignment::new(s, shards).unwrap())
                    .collect();
                let mut seen = vec![0u32; total];
                for a in &assignments {
                    let mut count = 0;
                    for i in a.cell_indices(total) {
                        assert_eq!(i % shards, a.shard, "stride");
                        seen[i] += 1;
                        count += 1;
                    }
                    assert_eq!(count, a.cell_count(total));
                }
                assert!(seen.iter().all(|&n| n == 1), "{total}/{shards} covers");
            }
        }
    }

    #[test]
    fn assignment_parsing_validates() {
        assert_eq!(
            CellAssignment::parse("0/3").unwrap(),
            CellAssignment {
                shard: 0,
                shards: 3
            }
        );
        assert_eq!(
            CellAssignment::parse("2/3").unwrap(),
            CellAssignment {
                shard: 2,
                shards: 3
            }
        );
        for bad in [
            "", "3", "3/", "/3", "a/b", "3/3", "4/3", "0/0", "-1/3", "1/3/2",
        ] {
            assert!(CellAssignment::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn plan_clamps_shard_count_to_cells() {
        let spec = named_matrix("smoke").unwrap();
        let plan = ExecutionPlan::new(&spec, 10_000);
        assert_eq!(plan.shard_count(), spec.cell_count());
        assert_eq!(ExecutionPlan::new(&spec, 0).shard_count(), 1);
        assert_eq!(plan.assignments().len(), plan.shard_count());
    }
}
