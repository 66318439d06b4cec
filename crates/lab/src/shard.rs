//! The merge layer: raw per-shard results and their reassembly.
//!
//! A [`ShardReport`] is what one worker — a thread pool in this process,
//! a child process, or a run on another host entirely — produces for its
//! [`crate::plan::CellAssignment`]: the raw per-cell metrics in
//! expansion order, plus the worker's frame-pool counters. It carries
//! *no* baseline-relative values, because a shard never sees the other
//! shards' baseline cells; those are computed by the finalization pass
//! ([`crate::finalize`]) after [`merge_shards`] has reassembled the
//! complete cell set.
//!
//! Shard reports serialize with the same hand-rolled JSON as the final
//! report, so they are plain files that can be produced anywhere,
//! shipped around, and merged later. [`merge_shards`] is strict: the
//! shard set must be complete, consistent, and non-overlapping, and
//! every cell must sit in the shard the strided plan assigns it to —
//! anything else is a loud [`MergeError`], never a silently short
//! report.

use crate::json::Json;
use crate::matrix::MatrixCell;

/// One worker's raw results for its assignment.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Matrix (spec) name.
    pub matrix: String,
    /// This shard's position, `0 <= shard < shards`.
    pub shard: usize,
    /// Total shards in the plan this report belongs to.
    pub shards: usize,
    /// Total cells in the full expansion (not just this shard).
    pub total_cells: usize,
    /// Frame-pool allocations across this shard's workers.
    pub pool_allocs: u64,
    /// Frame-pool buffers recycled across this shard's workers.
    pub pool_recycled: u64,
    /// This shard's cells in expansion order (`relative` is never set —
    /// baselines are cross-shard context the finalize pass owns).
    pub cells: Vec<MatrixCell>,
}

impl ShardReport {
    /// Renders the shard report as JSON (the worker wire format).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("matrix", Json::Str(self.matrix.clone())),
            ("shard", Json::UInt(self.shard as u64)),
            ("shards", Json::UInt(self.shards as u64)),
            ("total_cells", Json::UInt(self.total_cells as u64)),
            (
                "pool",
                Json::obj(vec![
                    ("allocs", Json::UInt(self.pool_allocs)),
                    ("recycled", Json::UInt(self.pool_recycled)),
                ]),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(|c| c.to_json(false)).collect()),
            ),
        ])
        .render()
    }

    /// Parses a shard report from JSON text.
    pub fn from_json(text: &str) -> Result<ShardReport, String> {
        let v = Json::parse(text)?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("shard report missing {k:?}"))
        };
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("shard report field {k:?} is not an unsigned integer"))
        };
        let matrix = field("matrix")?
            .as_str()
            .ok_or("shard report field \"matrix\" is not a string")?
            .to_string();
        let pool = field("pool")?;
        let pool_uint = |k: &str| {
            pool.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("shard report pool field {k:?} missing or malformed"))
        };
        let cells = field("cells")?
            .as_arr()
            .ok_or("shard report field \"cells\" is not an array")?
            .iter()
            .map(|c| {
                // Shard cells are raw metrics only — a `relative` or
                // `verdict` field means the file is not a worker's output
                // (baselines and inference are cross-shard context only
                // finalization can compute).
                if c.get("relative").is_some_and(|r| *r != Json::Null) {
                    return Err(
                        "shard cells must not carry relative metrics (raw wire format only)"
                            .to_string(),
                    );
                }
                if c.get("verdict").is_some_and(|r| *r != Json::Null) {
                    return Err(
                        "shard cells must not carry verdicts (raw wire format only)".to_string()
                    );
                }
                MatrixCell::from_json(c)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardReport {
            matrix,
            shard: uint("shard")? as usize,
            shards: uint("shards")? as usize,
            total_cells: uint("total_cells")? as usize,
            pool_allocs: pool_uint("allocs")?,
            pool_recycled: pool_uint("recycled")?,
            cells,
        })
    }
}

/// Why a shard set refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard reports were given.
    NoShards,
    /// Shards disagree on matrix name, shard count or total cell count.
    HeaderMismatch(String),
    /// A report's shard index is not below its shard count.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// The declared shard count.
        shards: usize,
    },
    /// Two reports claim the same shard position.
    DuplicateShard(usize),
    /// A shard position has no report.
    MissingShard(usize),
    /// A cell index appears more than once.
    DuplicateCell(usize),
    /// A cell index is at or beyond the declared total.
    CellOutOfRange {
        /// The offending cell index.
        index: usize,
        /// The declared expansion size.
        total: usize,
    },
    /// A cell sits in a shard the strided plan does not assign it to.
    MisassignedCell {
        /// The offending cell index.
        index: usize,
        /// The shard that reported it.
        shard: usize,
    },
    /// A cell index in the expansion has no report.
    MissingCell(usize),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard reports to merge"),
            MergeError::HeaderMismatch(detail) => {
                write!(f, "shard reports disagree: {detail}")
            }
            MergeError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard index {shard} out of range for {shards} shards")
            }
            MergeError::DuplicateShard(s) => write!(f, "shard {s} appears more than once"),
            MergeError::MissingShard(s) => write!(f, "shard {s} is missing from the set"),
            MergeError::DuplicateCell(i) => write!(f, "cell {i} appears more than once"),
            MergeError::CellOutOfRange { index, total } => {
                write!(f, "cell {index} out of range for {total} cells")
            }
            MergeError::MisassignedCell { index, shard } => {
                write!(f, "cell {index} does not belong to shard {shard}")
            }
            MergeError::MissingCell(i) => write!(f, "cell {i} has no report"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A complete, ordered cell set reassembled from shards — a
/// [`crate::matrix::MatrixReport`] minus the finalization pass.
#[derive(Debug, Clone)]
pub struct MergedMatrix {
    /// Matrix (spec) name.
    pub name: String,
    /// Frame-pool allocations summed over every shard.
    pub pool_allocs: u64,
    /// Frame-pool recycles summed over every shard.
    pub pool_recycled: u64,
    /// Every cell in expansion order, `relative` unset.
    pub cells: Vec<MatrixCell>,
}

/// Reassembles a complete shard set into the full cell list in
/// expansion order, rejecting inconsistent, overlapping or incomplete
/// sets.
pub fn merge_shards(shards: Vec<ShardReport>) -> Result<MergedMatrix, MergeError> {
    let Some(first) = shards.first() else {
        return Err(MergeError::NoShards);
    };
    let (name, shard_count, total) = (first.matrix.clone(), first.shards, first.total_cells);
    for s in &shards {
        if s.matrix != name || s.shards != shard_count || s.total_cells != total {
            return Err(MergeError::HeaderMismatch(format!(
                "({:?}, {} shards, {} cells) vs ({:?}, {} shards, {} cells)",
                name, shard_count, total, s.matrix, s.shards, s.total_cells
            )));
        }
        if s.shard >= s.shards {
            return Err(MergeError::ShardOutOfRange {
                shard: s.shard,
                shards: s.shards,
            });
        }
    }
    // A complete set holds one report per shard position and one cell
    // per index, so a header claiming more than was received names a gap.
    // Checking that first means nothing below is sized by a header claim,
    // and once a set passes it, every in-range, non-duplicate shard and
    // cell it holds fills exactly the claimed positions.
    if shard_count > shards.len() {
        return Err(MergeError::MissingShard(first_gap(
            shards.iter().map(|s| s.shard),
        )));
    }
    let received: usize = shards.iter().map(|s| s.cells.len()).sum();
    if total > received {
        return Err(MergeError::MissingCell(first_gap(
            shards.iter().flat_map(|s| s.cells.iter().map(|c| c.index)),
        )));
    }
    let mut shard_seen = vec![false; shard_count];
    for s in &shards {
        if shard_seen[s.shard] {
            return Err(MergeError::DuplicateShard(s.shard));
        }
        shard_seen[s.shard] = true;
    }

    let mut slots: Vec<Option<MatrixCell>> = (0..total).map(|_| None).collect();
    let (mut pool_allocs, mut pool_recycled) = (0u64, 0u64);
    for s in shards {
        pool_allocs += s.pool_allocs;
        pool_recycled += s.pool_recycled;
        for cell in s.cells {
            if cell.index >= total {
                return Err(MergeError::CellOutOfRange {
                    index: cell.index,
                    total,
                });
            }
            if cell.index % shard_count != s.shard {
                return Err(MergeError::MisassignedCell {
                    index: cell.index,
                    shard: s.shard,
                });
            }
            let slot = &mut slots[cell.index];
            if slot.is_some() {
                return Err(MergeError::DuplicateCell(cell.index));
            }
            *slot = Some(cell);
        }
    }
    let cells = slots
        .into_iter()
        .map(|slot| slot.expect("at least `total` unique in-range cells fill every slot"))
        .collect();
    Ok(MergedMatrix {
        name,
        pool_allocs,
        pool_recycled,
        cells,
    })
}

/// The smallest index not in `present`. With fewer distinct values than
/// a set claims, this is a real hole below the claimed size.
fn first_gap(present: impl Iterator<Item = usize>) -> usize {
    let mut present: Vec<usize> = present.collect();
    present.sort_unstable();
    present.dedup();
    present
        .iter()
        .enumerate()
        .position(|(i, &v)| i != v)
        .unwrap_or(present.len())
}
