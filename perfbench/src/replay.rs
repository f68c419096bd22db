//! The traced replay: a workload's blocks built and stepped on one
//! thread through trillium's public calls, with every call timed from
//! here. Nothing inside the program is instrumented.

use crate::workload::RANKS;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use trillium_blockforest::{distribute, BlockLink, DistributedForest, SetupForest, NEIGHBOR_DIRS};
use trillium_comm::{pack_face_sparse, pack_face_with, unpack_face_with, CrossingTable};
use trillium_core::blocksim::{BlockKernel, BlockSim};
use trillium_core::checkpoint::{restore_forest, save_forest};
use trillium_core::{Scenario, UpdateScheme};
use trillium_lattice::D3Q19;

/// A workload's blocks, built through the public set-up calls, each of
/// them timed.
pub struct Built {
    /// The balanced setup forest.
    pub forest: SetupForest,
    /// Per-rank block views.
    pub views: Vec<DistributedForest>,
    /// Every rank's blocks, rank 0's first, each rank in view order.
    pub blocks: Vec<BlockSim>,
    /// Seconds in `Scenario::make_forest`.
    pub forest_s: f64,
    /// Seconds in `distribute`.
    pub distribute_s: f64,
    /// Seconds in `Scenario::build_block`, all blocks.
    pub build_block_s: f64,
}

impl Built {
    /// Builds the forest, views and blocks of `scenario` for [`RANKS`].
    pub fn new(scenario: &Scenario) -> Built {
        let t = Instant::now();
        let forest = scenario.make_forest(RANKS);
        let forest_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let views = distribute(&forest);
        let distribute_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let blocks: Vec<BlockSim> =
            views.iter().flat_map(|v| &v.blocks).map(|lb| scenario.build_block(lb)).collect();
        let build_block_s = t.elapsed().as_secs_f64();
        Built { forest, views, blocks, forest_s, distribute_s, build_block_s }
    }

    /// Total fluid cells over all blocks.
    pub fn fluid_cells(&self) -> u64 {
        self.blocks.iter().map(|b| b.fluid_cells() as u64).sum()
    }

    /// Fluid cells of the blocks that run `kernel`.
    pub fn fluid_cells_of(&self, kernel: BlockKernel) -> f64 {
        self.blocks.iter().filter(|b| b.kernel == kernel).map(|b| b.fluid_cells() as f64).sum()
    }

    /// Block count per resolved kernel class (`dense/pull`,
    /// `row-intervals/pull`, `dense/inplace`, ...).
    pub fn classes(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for b in &self.blocks {
            *out.entry(class_label(b)).or_insert(0) += 1;
        }
        out
    }

    /// Blocks whose in-place request fell back to the pull update.
    pub fn fallbacks(&self) -> usize {
        self.blocks.iter().filter(|b| b.fell_back_to_pull()).count()
    }

    /// Each rank's view with its blocks.
    pub fn ranks(&self) -> impl Iterator<Item = (&DistributedForest, &[BlockSim])> {
        let mut rest = self.blocks.as_slice();
        self.views.iter().map(move |v| {
            let (mine, others) = rest.split_at(v.blocks.len());
            rest = others;
            (v, mine)
        })
    }

    /// Final-state digest, summed per rank in view order exactly as the
    /// driver sums its ranks' results.
    pub fn digest(&self) -> String {
        let (mut mass, mut ke) = (0.0, 0.0);
        for (_, blocks) in self.ranks() {
            mass += blocks.iter().map(BlockSim::fluid_mass).sum::<f64>();
            ke += blocks.iter().map(BlockSim::kinetic_energy).sum::<f64>();
        }
        crate::workload::digest(mass, ke)
    }

    /// Global fluid mass over all blocks.
    pub fn mass(&self) -> f64 {
        self.blocks.iter().map(BlockSim::fluid_mass).sum()
    }
}

/// `kernel/scheme` label of a block's resolved sweep.
pub fn class_label(b: &BlockSim) -> String {
    let kernel = match b.kernel {
        BlockKernel::Dense => "dense",
        BlockKernel::RowIntervals => "row-intervals",
    };
    format!("{kernel}/{}", b.resolved_kernel_label())
}

/// One ghost link between two blocks of the replay.
#[derive(Copy, Clone, Debug)]
struct Link {
    /// Sending block.
    from: usize,
    /// Receiving block.
    to: usize,
    /// Direction from sender to receiver.
    d: [i8; 3],
    /// The blocks belong to different ranks.
    remote: bool,
}

/// Seconds of one replayed step, per layer.
#[derive(Copy, Clone, Debug, Default)]
pub struct StepTimes {
    /// Packing every non-border link.
    pub pack_s: f64,
    /// Unpacking every non-border link.
    pub unpack_s: f64,
    /// Boundary sweeps.
    pub boundary_s: f64,
    /// Sweeps of dense blocks (buffer swaps included).
    pub dense_s: f64,
    /// Sweeps of row-interval blocks (buffer swaps included).
    pub sparse_s: f64,
    /// Wall of the whole step.
    pub step_s: f64,
}

impl StepTimes {
    /// Step wall minus every timed call.
    pub fn residual_s(&self) -> f64 {
        self.step_s - (self.pack_s + self.unpack_s + self.boundary_s + self.dense_s + self.sparse_s)
    }
}

/// Steps a [`Built`] workload on one thread with the driver's per-step
/// call order.
pub struct Replay {
    links: Vec<Link>,
    table: CrossingTable,
    pool: Vec<Vec<u8>>,
    overlapped: bool,
    /// Bytes packed per step over every non-border link.
    pub bytes_per_step: u64,
}

impl Replay {
    /// Prepares the link list of `built`; `overlapped` selects the
    /// interior/shell split schedule.
    pub fn new(built: &Built, overlapped: bool) -> Replay {
        let mut index = HashMap::new();
        let mut owner = Vec::new();
        for v in &built.views {
            for lb in &v.blocks {
                index.insert(lb.id, owner.len());
                owner.push(v.rank);
            }
        }
        let table = CrossingTable::new::<D3Q19>();
        let mut links = Vec::new();
        let mut bytes_per_step = 0;
        for lb in built.views.iter().flat_map(|v| &v.blocks) {
            let from = index[&lb.id];
            for (li, link) in lb.links.iter().enumerate() {
                let d = NEIGHBOR_DIRS[li];
                let nid = match link {
                    BlockLink::Border => continue,
                    BlockLink::Local(nid) | BlockLink::Remote(nid, _) => nid,
                };
                if table.qs(d).is_empty() {
                    continue; // corner links carry nothing for D3Q19
                }
                let to = index[nid];
                links.push(Link { from, to, d, remote: owner[from] != owner[to] });
                bytes_per_step += model_bytes(&table, &built.blocks[from], d);
            }
        }
        Replay { links, table, pool: Vec::new(), overlapped, bytes_per_step }
    }

    /// Ghost bytes the ranks must exchange per step: crossing PDFs × slab
    /// cells × 8 B over every rank-crossing link.
    pub fn remote_model_bytes(&self, built: &Built) -> u64 {
        self.links
            .iter()
            .filter(|l| l.remote)
            .map(|l| model_bytes(&self.table, &built.blocks[l.from], l.d))
            .sum()
    }

    /// Bytes the fluid-aware packing (`pack_face_sparse`) would send over
    /// the same rank-crossing links.
    pub fn remote_sparse_bytes(&self, built: &Built) -> u64 {
        let mut buf = Vec::new();
        let mut total = 0;
        for l in self.links.iter().filter(|l| l.remote) {
            buf.clear();
            let b = &built.blocks[l.from];
            pack_face_sparse::<D3Q19, _>(&b.src, &b.flags, l.d, &mut buf);
            total += buf.len() as u64;
        }
        total
    }

    /// Replays one time step and times each call.
    pub fn step(
        &mut self,
        blocks: &mut [BlockSim],
        rel: trillium_lattice::Relaxation,
    ) -> StepTimes {
        let mut t = StepTimes::default();
        let start = Instant::now();

        let clock = Instant::now();
        let mut packed = Vec::with_capacity(self.links.len());
        for l in &self.links {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.clear();
            pack_face_with::<D3Q19, _>(&blocks[l.from].src, l.d, self.table.qs(l.d), &mut buf);
            packed.push(buf);
        }
        t.pack_s = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        for (l, buf) in self.links.iter().zip(packed) {
            let rev = [-l.d[0], -l.d[1], -l.d[2]];
            unpack_face_with::<D3Q19, _>(
                &mut blocks[l.to].src,
                rev,
                self.table.qs_reversed(rev),
                &buf,
            );
            self.pool.push(buf);
        }
        t.unpack_s = clock.elapsed().as_secs_f64();

        let sweep_s = |t: &mut StepTimes, b: &BlockSim, secs: f64| match b.kernel {
            BlockKernel::Dense => t.dense_s += secs,
            BlockKernel::RowIntervals => t.sparse_s += secs,
        };
        if self.overlapped {
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.apply_boundaries_interior();
                t.boundary_s += clock.elapsed().as_secs_f64();
            }
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.stream_collide_interior(rel);
                sweep_s(&mut t, b, clock.elapsed().as_secs_f64());
            }
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.apply_boundaries_ghost();
                t.boundary_s += clock.elapsed().as_secs_f64();
                let clock = Instant::now();
                b.stream_collide_shell(rel);
                sweep_s(&mut t, b, clock.elapsed().as_secs_f64());
            }
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.swap_buffers();
                sweep_s(&mut t, b, clock.elapsed().as_secs_f64());
            }
        } else {
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.apply_boundaries();
                t.boundary_s += clock.elapsed().as_secs_f64();
            }
            for b in blocks.iter_mut() {
                let clock = Instant::now();
                b.stream_collide(rel);
                sweep_s(&mut t, b, clock.elapsed().as_secs_f64());
            }
        }
        t.step_s = start.elapsed().as_secs_f64();
        t
    }
}

/// Bytes `pack_face_with` writes for a link in direction `d`.
fn model_bytes(table: &CrossingTable, b: &BlockSim, d: [i8; 3]) -> u64 {
    (table.qs(d).len() * b.shape.boundary_slab(d, b.shape.ghost).num_cells() * 8) as u64
}

/// Checkpoint timings of a [`Built`] workload: each rank's blocks saved
/// into one buffer and restored from it, as the resilient driver does.
#[derive(Copy, Clone, Debug, Default)]
pub struct CheckpointTimes {
    /// Seconds in `save_forest`, all ranks.
    pub save_s: f64,
    /// Seconds in `restore_forest`, all ranks.
    pub restore_s: f64,
    /// Checkpoint bytes, all ranks.
    pub bytes: u64,
}

/// Saves and restores every rank's blocks once; fails if a restore does
/// not give back the saved blocks.
pub fn checkpoint(
    built: &Built,
    step: u64,
    boundary: trillium_kernels::BoundaryParams,
) -> Result<CheckpointTimes, String> {
    let mut out = CheckpointTimes::default();
    for (v, blocks) in built.ranks() {
        let framed: Vec<(u64, &BlockSim)> =
            v.blocks.iter().map(|lb| lb.id.pack()).zip(blocks).collect();
        let clock = Instant::now();
        let buf = save_forest(step, &framed);
        out.save_s += clock.elapsed().as_secs_f64();
        out.bytes += buf.len() as u64;
        let clock = Instant::now();
        let restored =
            restore_forest(&buf, boundary).map_err(|e| format!("restore failed: {e:?}"))?;
        out.restore_s += clock.elapsed().as_secs_f64();
        let (saved_step, restored) = restored;
        let same = saved_step == step
            && restored.len() == framed.len()
            && restored.iter().zip(&framed).all(|((rid, rb), (id, b))| {
                rid == id
                    && rb.step_parity() == b.step_parity()
                    && rb.fluid_mass().to_bits() == b.fluid_mass().to_bits()
            });
        if !same {
            return Err(format!("rank {} checkpoint did not restore its blocks", v.rank));
        }
    }
    Ok(out)
}

/// Resolved update scheme of the dense blocks (the first one found).
pub fn dense_scheme(blocks: &[BlockSim]) -> Option<UpdateScheme> {
    blocks.iter().find(|b| b.kernel == BlockKernel::Dense).map(|b| b.scheme)
}
