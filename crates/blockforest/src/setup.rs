//! The global setup forest: construction, domain filtering, refinement.
//!
//! The setup phase (paper §2.2/§2.3) may hold the entire forest in memory —
//! its cost scales with the number of blocks, *not* with the number of
//! cells, which is what allows trillion-cell domains: the grid inside each
//! block is only materialized later, block by block, on the owning process.

use crate::id::BlockId;
use trillium_geometry::{classify_block_counted, BlockCoverage, SignedDistance};
use trillium_geometry::{Aabb, Vec3};

/// One leaf block of the setup forest.
#[derive(Clone, Debug)]
pub struct SetupBlock {
    /// Structured block ID.
    pub id: BlockId,
    /// Physical bounding box of the block.
    pub aabb: Aabb,
    /// Integer grid coordinates at the block's level (unit = block edge at
    /// that level), used for neighbor detection on uniform forests.
    pub coords: [i64; 3],
    /// Workload estimate: number of fluid cells in the block.
    pub workload: f64,
    /// Assigned process rank (set by load balancing).
    pub rank: u32,
    /// Whether the block is completely inside the fluid domain.
    pub fully_inside: bool,
}

/// The global (setup-phase) forest of octrees.
#[derive(Clone, Debug)]
pub struct SetupForest {
    /// Physical box covered by the root grid.
    pub domain: Aabb,
    /// Number of root blocks per axis.
    pub roots: [usize; 3],
    /// Lattice cells per block per axis (same for every block; blocks at
    /// refinement level L cover the same cell count at 2^-L the spacing).
    pub cells_per_block: [usize; 3],
    /// Leaf blocks, sorted by ID.
    pub blocks: Vec<SetupBlock>,
    /// Number of processes blocks are balanced across (0 = not balanced).
    pub num_processes: u32,
    /// Per-axis periodicity: on a periodic axis, blocks at opposite ends
    /// of the root grid are neighbors (their links wrap around) and no
    /// domain border exists there. Scenario-level metadata — not part of
    /// the forest file format.
    pub periodic: [bool; 3],
}

impl SetupForest {
    /// Creates a uniform, unrefined forest: `roots[0] × roots[1] × roots[2]`
    /// blocks tiling `domain`, every block marked fully inside with a dense
    /// workload.
    pub fn uniform(domain: Aabb, roots: [usize; 3], cells_per_block: [usize; 3]) -> Self {
        assert!(roots.iter().all(|&r| r > 0));
        let cells: f64 = cells_per_block.iter().map(|&c| c as f64).product();
        let mut blocks = Vec::with_capacity(roots[0] * roots[1] * roots[2]);
        for k in 0..roots[2] {
            for j in 0..roots[1] {
                for i in 0..roots[0] {
                    let idx = (k * roots[1] + j) * roots[0] + i;
                    blocks.push(SetupBlock {
                        id: BlockId::root(idx as u64),
                        aabb: Self::root_aabb(&domain, roots, [i, j, k]),
                        coords: [i as i64, j as i64, k as i64],
                        workload: cells,
                        rank: 0,
                        fully_inside: true,
                    });
                }
            }
        }
        SetupForest {
            domain,
            roots,
            cells_per_block,
            blocks,
            num_processes: 0,
            periodic: [false; 3],
        }
    }

    /// Marks axes as periodic (see the `periodic` field). Each periodic
    /// axis needs at least two root blocks so that a block never becomes
    /// its own wrap-around neighbor.
    pub fn with_periodic(mut self, periodic: [bool; 3]) -> Self {
        for a in 0..3 {
            assert!(
                !periodic[a] || self.roots[a] >= 2,
                "periodic axis {a} needs >= 2 root blocks (got {})",
                self.roots[a]
            );
        }
        self.periodic = periodic;
        self
    }

    /// Creates a forest over the bounding box of `sdf` keeping only blocks
    /// that intersect the domain, with workloads set to the exact fluid
    /// cell count of each block. Uses a hierarchical descent over the root
    /// grid so that large empty regions cost O(1) distance queries — the
    /// setup never enumerates the full root grid.
    ///
    /// `dx` is the lattice spacing; root blocks have physical edge
    /// `cells_per_block · dx`.
    pub fn from_domain<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
    ) -> Self {
        Self::from_domain_inner(sdf, dx, cells_per_block, None)
    }

    /// Like [`SetupForest::from_domain`] but estimating per-block
    /// workloads from `samples³` probe points instead of testing every
    /// cell center — the fast path for very large forests (the scaling
    /// harness builds forests with hundreds of thousands of blocks).
    /// Workloads of partially covered blocks are estimates; fully inside /
    /// outside classification is unchanged.
    pub fn from_domain_sampled<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
        samples: usize,
    ) -> Self {
        assert!(samples >= 2);
        Self::from_domain_inner(sdf, dx, cells_per_block, Some(samples))
    }

    /// The candidate root grid covering the domain of `sdf` at resolution
    /// `dx`: the (slightly padded) physical box and the number of root
    /// blocks per axis. Deterministic, so every process of a distributed
    /// setup computes the same grid locally.
    pub fn candidate_grid<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
    ) -> (Aabb, [usize; 3]) {
        let bb = sdf.bounding_box();
        let edge = Vec3 {
            x: cells_per_block[0] as f64 * dx,
            y: cells_per_block[1] as f64 * dx,
            z: cells_per_block[2] as f64 * dx,
        };
        let ext = bb.extents();
        let roots = [
            (ext.x / edge.x).ceil().max(1.0) as usize,
            (ext.y / edge.y).ceil().max(1.0) as usize,
            (ext.z / edge.z).ceil().max(1.0) as usize,
        ];
        let domain = Aabb::new(
            bb.min,
            bb.min
                + Vec3 {
                    x: roots[0] as f64 * edge.x,
                    y: roots[1] as f64 * edge.y,
                    z: roots[2] as f64 * edge.z,
                },
        );
        (domain, roots)
    }

    /// Classifies one index sub-range of the candidate root grid against
    /// the domain, returning the intersecting blocks with workloads. This
    /// is the unit of work of the hybrid-parallel initialization
    /// (paper §2.3): ranges are scattered over processes, classified
    /// independently, and the results gathered.
    #[allow(clippy::too_many_arguments)]
    pub fn classify_range<S: SignedDistance + ?Sized>(
        sdf: &S,
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        samples: Option<usize>,
        rx: [usize; 2],
        ry: [usize; 2],
        rz: [usize; 2],
    ) -> Vec<SetupBlock> {
        let mut out = Vec::new();
        Self::descend(sdf, domain, roots, cells_per_block, samples, rx, ry, rz, &mut out);
        out
    }

    fn from_domain_inner<S: SignedDistance + ?Sized>(
        sdf: &S,
        dx: f64,
        cells_per_block: [usize; 3],
        samples: Option<usize>,
    ) -> Self {
        let (domain, roots) = Self::candidate_grid(sdf, dx, cells_per_block);
        let mut blocks = Vec::new();
        Self::descend(
            sdf,
            &domain,
            roots,
            cells_per_block,
            samples,
            [0, roots[0]],
            [0, roots[1]],
            [0, roots[2]],
            &mut blocks,
        );
        blocks.sort_by_key(|b| b.id);
        SetupForest {
            domain,
            roots,
            cells_per_block,
            blocks,
            num_processes: 0,
            periodic: [false; 3],
        }
    }

    /// Recursive descent over index ranges: prunes whole sub-grids whose
    /// bounding box is farther from the surface than its circumradius and
    /// entirely outside.
    #[allow(clippy::too_many_arguments)]
    fn descend<S: SignedDistance + ?Sized>(
        sdf: &S,
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        samples: Option<usize>,
        rx: [usize; 2],
        ry: [usize; 2],
        rz: [usize; 2],
        out: &mut Vec<SetupBlock>,
    ) {
        let nx = rx[1] - rx[0];
        let ny = ry[1] - ry[0];
        let nz = rz[1] - rz[0];
        if nx == 0 || ny == 0 || nz == 0 {
            return;
        }
        // Bounding box of this index range.
        let lo = Self::root_aabb(domain, roots, [rx[0], ry[0], rz[0]]).min;
        let hi = Self::root_aabb(domain, roots, [rx[1] - 1, ry[1] - 1, rz[1] - 1]).max;
        let range_bb = Aabb::new(lo, hi);
        let d = sdf.signed_distance(range_bb.center());
        if d > range_bb.circumradius() {
            return; // Entire range outside the domain.
        }
        if nx == 1 && ny == 1 && nz == 1 {
            let (i, j, k) = (rx[0], ry[0], rz[0]);
            let bb = Self::root_aabb(domain, roots, [i, j, k]);
            let classify_cells = match samples {
                Some(s) => [s, s, s],
                None => cells_per_block,
            };
            // The classification counts the inside cell centers of a
            // near-surface block; that count is its workload.
            match classify_block_counted(sdf, &bb, classify_cells) {
                (BlockCoverage::Outside, _) => {}
                (cov, inside) => {
                    let dense: f64 = cells_per_block.iter().map(|&c| c as f64).product();
                    let fully = cov == BlockCoverage::FullyInside;
                    let workload = if fully {
                        dense
                    } else {
                        match samples {
                            // The subsampled fluid fraction, scaled up.
                            Some(s) => (inside as f64 / (s * s * s) as f64 * dense).round(),
                            None => inside as f64,
                        }
                    };
                    if workload > 0.0 {
                        let idx = (k * roots[1] + j) * roots[0] + i;
                        out.push(SetupBlock {
                            id: BlockId::root(idx as u64),
                            aabb: bb,
                            coords: [i as i64, j as i64, k as i64],
                            workload,
                            rank: 0,
                            fully_inside: fully,
                        });
                    }
                }
            }
            return;
        }
        // Split the longest axis.
        let split = |r: [usize; 2]| {
            let mid = (r[0] + r[1]) / 2;
            ([r[0], mid], [mid, r[1]])
        };
        if nx >= ny && nx >= nz {
            let (a, b) = split(rx);
            Self::descend(sdf, domain, roots, cells_per_block, samples, a, ry, rz, out);
            Self::descend(sdf, domain, roots, cells_per_block, samples, b, ry, rz, out);
        } else if ny >= nz {
            let (a, b) = split(ry);
            Self::descend(sdf, domain, roots, cells_per_block, samples, rx, a, rz, out);
            Self::descend(sdf, domain, roots, cells_per_block, samples, rx, b, rz, out);
        } else {
            let (a, b) = split(rz);
            Self::descend(sdf, domain, roots, cells_per_block, samples, rx, ry, a, out);
            Self::descend(sdf, domain, roots, cells_per_block, samples, rx, ry, b, out);
        }
    }

    /// Reconstructs a block purely from its ID (plus the forest geometry):
    /// root index → root cell, then the octant path. Shared by the file
    /// loader and by distributed setup, which exchange only
    /// `(id, workload, rank)` triples.
    pub fn block_from_id(
        domain: &Aabb,
        roots: [usize; 3],
        cells_per_block: [usize; 3],
        id: BlockId,
        workload: f64,
        rank: u32,
    ) -> SetupBlock {
        let e = domain.extents();
        let step =
            Vec3 { x: e.x / roots[0] as f64, y: e.y / roots[1] as f64, z: e.z / roots[2] as f64 };
        let ridx = id.root_index();
        let (i, j, k) = (
            (ridx as usize % roots[0]) as i64,
            ((ridx as usize / roots[0]) % roots[1]) as i64,
            (ridx as usize / (roots[0] * roots[1])) as i64,
        );
        let mut coords = [i, j, k];
        let mut bb = {
            let lo = domain.min
                + Vec3 { x: i as f64 * step.x, y: j as f64 * step.y, z: k as f64 * step.z };
            Aabb::new(lo, lo + step)
        };
        for l in 0..id.level() {
            let oct = id.octant_at(l);
            let c = bb.center();
            let (ox, oy, oz) = ((oct & 1) as i64, ((oct >> 1) & 1) as i64, ((oct >> 2) & 1) as i64);
            coords = [2 * coords[0] + ox, 2 * coords[1] + oy, 2 * coords[2] + oz];
            bb = Aabb::new(
                Vec3 {
                    x: if ox == 0 { bb.min.x } else { c.x },
                    y: if oy == 0 { bb.min.y } else { c.y },
                    z: if oz == 0 { bb.min.z } else { c.z },
                },
                Vec3 {
                    x: if ox == 0 { c.x } else { bb.max.x },
                    y: if oy == 0 { c.y } else { bb.max.y },
                    z: if oz == 0 { c.z } else { bb.max.z },
                },
            );
        }
        let dense: f64 = cells_per_block.iter().map(|&c| c as f64).product();
        SetupBlock { id, aabb: bb, coords, workload, rank, fully_inside: workload >= dense }
    }

    /// Physical box of root block `(i, j, k)`.
    fn root_aabb(domain: &Aabb, roots: [usize; 3], ijk: [usize; 3]) -> Aabb {
        let e = domain.extents();
        let step =
            Vec3 { x: e.x / roots[0] as f64, y: e.y / roots[1] as f64, z: e.z / roots[2] as f64 };
        let min = domain.min
            + Vec3 {
                x: ijk[0] as f64 * step.x,
                y: ijk[1] as f64 * step.y,
                z: ijk[2] as f64 * step.z,
            };
        Aabb::new(min, min + step)
    }

    /// Number of leaf blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total workload (fluid cells) over all blocks.
    pub fn total_workload(&self) -> f64 {
        self.blocks.iter().map(|b| b.workload).sum()
    }

    /// True if every block is at refinement level 0 (regular grid), the
    /// configuration used for all simulations in the paper.
    pub fn is_uniform_level(&self) -> bool {
        self.blocks.iter().all(|b| b.id.level() == 0)
    }

    /// Splits every block matched by `pred` into its eight children
    /// (workload split evenly, coordinates doubled). The data structure
    /// supports mixed-level forests; the LBM driver requires uniform
    /// levels, mirroring the paper ("extending our parallel LBM
    /// implementation to support grid refinement is future work").
    pub fn refine_where<F: FnMut(&SetupBlock) -> bool>(&mut self, mut pred: F) {
        let mut next = Vec::with_capacity(self.blocks.len());
        for b in self.blocks.drain(..) {
            if !pred(&b) {
                next.push(b);
                continue;
            }
            let c = b.aabb.center();
            for oct in 0..8u8 {
                let (ox, oy, oz) =
                    ((oct & 1) as i64, ((oct >> 1) & 1) as i64, ((oct >> 2) & 1) as i64);
                let min = Vec3 {
                    x: if ox == 0 { b.aabb.min.x } else { c.x },
                    y: if oy == 0 { b.aabb.min.y } else { c.y },
                    z: if oz == 0 { b.aabb.min.z } else { c.z },
                };
                let max = Vec3 {
                    x: if ox == 0 { c.x } else { b.aabb.max.x },
                    y: if oy == 0 { c.y } else { b.aabb.max.y },
                    z: if oz == 0 { c.z } else { b.aabb.max.z },
                };
                next.push(SetupBlock {
                    id: b.id.child(oct),
                    aabb: Aabb::new(min, max),
                    coords: [2 * b.coords[0] + ox, 2 * b.coords[1] + oy, 2 * b.coords[2] + oz],
                    workload: b.workload / 8.0,
                    rank: b.rank,
                    fully_inside: b.fully_inside,
                });
            }
        }
        next.sort_by_key(|b| b.id);
        self.blocks = next;
    }

    /// Per-rank total workloads (length `num_processes`).
    pub fn rank_workloads(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.num_processes as usize];
        for b in &self.blocks {
            w[b.rank as usize] += b.workload;
        }
        w
    }

    /// Load imbalance: max over mean of per-rank workloads (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let w = self.rank_workloads();
        let max = w.iter().cloned().fold(0.0, f64::max);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_geometry::sdf::AnalyticSdf;
    use trillium_geometry::vec3::vec3;

    #[test]
    fn uniform_forest_tiles_domain() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 2.0, 2.0));
        let f = SetupForest::uniform(domain, [4, 2, 2], [10, 10, 10]);
        assert_eq!(f.num_blocks(), 16);
        assert!(f.is_uniform_level());
        // Volumes add up and boxes are disjoint tiles.
        let vol: f64 = f.blocks.iter().map(|b| b.aabb.volume()).sum();
        assert!((vol - domain.volume()).abs() < 1e-12);
        assert_eq!(f.total_workload(), 16.0 * 1000.0);
    }

    #[test]
    fn sphere_forest_keeps_only_intersecting_blocks() {
        let s = AnalyticSdf::Sphere { center: vec3(0.0, 0.0, 0.0), radius: 1.0 };
        let f = SetupForest::from_domain(&s, 0.05, [8, 8, 8]);
        // Root grid over [-1,1]³ with block edge 0.4: 5×5×5 candidates.
        assert_eq!(f.roots, [5, 5, 5]);
        assert!(f.num_blocks() > 0);
        assert!(f.num_blocks() < 125, "corner blocks must be dropped");
        // Every kept block must actually contain fluid.
        assert!(f.blocks.iter().all(|b| b.workload > 0.0));
        // Workload equals the sphere volume in cells, approximately.
        let cells = f.total_workload();
        let expect = 4.0 / 3.0 * std::f64::consts::PI / (0.05f64.powi(3));
        assert!((cells - expect).abs() / expect < 0.05, "{cells} vs {expect}");
    }

    #[test]
    fn hierarchical_descent_matches_exhaustive() {
        let s =
            AnalyticSdf::Capsule { a: vec3(0.0, 0.0, 0.0), b: vec3(3.0, 1.0, 0.5), radius: 0.3 };
        let f = SetupForest::from_domain(&s, 0.04, [6, 6, 6]);
        // Exhaustively enumerate the root grid and compare the kept set.
        let mut expect = Vec::new();
        for k in 0..f.roots[2] {
            for j in 0..f.roots[1] {
                for i in 0..f.roots[0] {
                    let bb = SetupForest::root_aabb(&f.domain, f.roots, [i, j, k]);
                    let n = trillium_geometry::voxelize::block_fluid_cells(&s, &bb, [6, 6, 6]);
                    if n > 0 {
                        expect.push(((i, j, k), n));
                    }
                }
            }
        }
        assert_eq!(f.num_blocks(), expect.len());
        for (b, (ijk, n)) in f.blocks.iter().zip(&expect) {
            assert_eq!((b.coords[0] as usize, b.coords[1] as usize, b.coords[2] as usize), *ijk);
            assert_eq!(b.workload, *n as f64);
        }
    }

    #[test]
    fn refinement_replaces_block_with_eight_children() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(2.0, 2.0, 2.0));
        let mut f = SetupForest::uniform(domain, [2, 2, 2], [8, 8, 8]);
        let target = f.blocks[0].id;
        f.refine_where(|b| b.id == target);
        assert_eq!(f.num_blocks(), 7 + 8);
        assert!(!f.is_uniform_level());
        // Children tile the parent volume.
        let kids: Vec<_> = f.blocks.iter().filter(|b| b.id.parent() == Some(target)).collect();
        assert_eq!(kids.len(), 8);
        let vol: f64 = kids.iter().map(|b| b.aabb.volume()).sum();
        assert!((vol - 1.0).abs() < 1e-12);
        // Workload conserved.
        assert!((f.total_workload() - 8.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_metric() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 1.0, 1.0));
        let mut f = SetupForest::uniform(domain, [4, 1, 1], [4, 4, 4]);
        f.num_processes = 2;
        f.blocks[0].rank = 0;
        f.blocks[1].rank = 0;
        f.blocks[2].rank = 1;
        f.blocks[3].rank = 1;
        assert!((f.imbalance() - 1.0).abs() < 1e-12);
        f.blocks[2].rank = 0;
        assert!((f.imbalance() - 1.5).abs() < 1e-12);
    }
}
