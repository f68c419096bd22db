//! Compute backends: device-shaped kernel dispatch for heterogeneous
//! nodes.
//!
//! The kernel modules of this crate implement one *tier ladder*
//! (generic → specialized → SoA → AVX2 → in-place) for a homogeneous CPU.
//! Heterogeneous machines add a second axis: the *backend* a block's
//! sweeps execute on. Following the patch-based heterogeneous GPU–CPU
//! designs (Feichtinger et al.), every block carries a [`BackendKind`]
//! and the driver dispatches its sweeps through the matching [`Backend`]
//! implementation:
//!
//! * [`PortableBackend`] — the portable split-loop SoA kernels
//!   ([`crate::soa`], [`crate::sparse`], the portable paths of
//!   [`crate::inplace`]); runs on any host. Each of these sweeps is one
//!   source compiled twice (`crate::multiversion`): a baseline instance
//!   and an AVX2+FMA instance, picked per call from the host's features.
//! * [`Avx2Backend`] — the AVX2+FMA intrinsics paths ([`crate::avx`],
//!   the vectorized paths of [`crate::inplace`]) for dense blocks;
//!   resolves to [`PortableBackend`] when the CPU lacks AVX2+FMA (same
//!   contract as [`crate::dispatch::Tier::resolve`]). Sparse blocks run
//!   the same compiled row-interval sweep as [`PortableBackend`].
//! * [`WorkgroupBackend`] — a GPU-*style* execution shape run on the CPU
//!   for correctness: the sweep region is tiled into fixed-size
//!   work-groups (the CTA/thread-block analogue), iterated in grid
//!   order, each group swept with a group-local order by the portable
//!   region kernels. The container has no GPU, so the *performance* of a
//!   GPU-class device is modeled analytically in `trillium-machine` /
//!   `trillium-perfmodel`; this backend supplies the matching execution
//!   semantics so placement decisions can be validated end to end.
//!
//! # Bitwise equivalence across backends
//!
//! All three backends produce **bitwise identical** PDFs. Three
//! properties make this hold:
//!
//! 1. the portable kernels are one source compiled per target. Both
//!    compiled instances round identically: `f64::mul_add` is the IEEE
//!    correctly rounded fused operation whether it lowers to `vfmadd`
//!    (AVX2+FMA instance) or to the software `fma` (baseline instance),
//!    LLVM never contracts a plain `a * b + c`, and the element-wise
//!    loops reorder no reduction;
//! 2. the intrinsics kernels perform the *same fused operation sequence*
//!    as that source, in their vector lanes and their scalar tails;
//! 3. sweeping any partition of the interior region by region is bitwise
//!    identical to one full sweep (the slot-ownership/element-wise
//!    argument pinned by `region_partition_is_bitwise_identical`), so
//!    the workgroup tiling cannot change results either.
//!
//! A host without FMA runs the baseline instance everywhere. It is slow
//! (every `mul_add` is a library call and the loops do not vectorize),
//! but it computes the same bits as an AVX2+FMA host.
//!
//! This is not a luxury: the heterogeneous partitioner migrates blocks
//! *between* backends mid-run, and the resilience layer replays steps
//! after recovery. Rounding differences between backends would fork
//! trajectories at every migration and break the driver's bitwise
//! recovery guarantees. The `backend_equivalence` gate in CI pins the
//! equivalence across all four driver schedules.

use crate::stats::SweepStats;
use crate::Collision;
use trillium_field::{PdfField, Region, RowIntervals, SoaPdfField};
use trillium_lattice::{Relaxation, D3Q19};

/// Identity of the compute backend a block's sweeps execute on.
///
/// Carried by block state the way the collision operator is: it is *not*
/// part of the checkpoint wire format and is re-stamped by whoever
/// rebuilds a block (driver, migration, recovery).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Portable split-loop SoA kernels; runs anywhere.
    Portable,
    /// AVX2+FMA intrinsics; resolves to `Portable` without AVX2+FMA.
    /// The default — identical to the pre-backend dispatch behavior.
    #[default]
    Avx2,
    /// GPU-style work-group-tiled execution (CPU emulation; the GPU-class
    /// *cost* is modeled in `trillium-perfmodel`).
    Workgroup,
}

impl BackendKind {
    /// All backends, portable first.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Portable, BackendKind::Avx2, BackendKind::Workgroup];

    /// Short lowercase label, as used in bench JSON and job specs.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Portable => "portable",
            BackendKind::Avx2 => "avx2",
            BackendKind::Workgroup => "workgroup",
        }
    }

    /// Parses a job-spec / CLI label. Inverse of [`BackendKind::label`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "portable" => Some(BackendKind::Portable),
            "avx2" => Some(BackendKind::Avx2),
            "workgroup" => Some(BackendKind::Workgroup),
            _ => None,
        }
    }

    /// The backend that actually executes on the running host:
    /// [`BackendKind::Avx2`] degrades to [`BackendKind::Portable`] when
    /// the CPU lacks AVX2+FMA. Like `Tier::resolve`, reports must label
    /// series with the *resolved* backend so measurements are never
    /// misattributed.
    pub fn resolve(self) -> BackendKind {
        match self {
            BackendKind::Avx2 if !crate::avx::available() => BackendKind::Portable,
            b => b,
        }
    }

    /// The dispatch object for this backend.
    pub fn dispatch(self) -> &'static dyn Backend {
        match self {
            BackendKind::Portable => &PortableBackend,
            BackendKind::Avx2 => &Avx2Backend,
            BackendKind::Workgroup => &WorkgroupBackend,
        }
    }
}

/// Sweep dispatch for one compute backend.
///
/// Owns every sweep shape a block needs: dense two-field pull, sparse
/// row-interval pull, and single-buffer in-place — full-interior and
/// region-restricted — for all collision operators. `Srt`/`Trt` run the
/// TRT-form kernels (SRT via equal rates, exactly as the block layer
/// always has); the MRT family runs the shared moment-space sweeps.
pub trait Backend: Sync {
    /// The identity this dispatch object implements.
    fn kind(&self) -> BackendKind;

    /// Dense two-field pull sweep restricted to `region` (a subset of the
    /// interior). Partitioning the interior into regions is bitwise
    /// identical to one full sweep.
    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Single-buffer (AA-pattern) sweep restricted to `region`. The sweep
    /// variant follows the field's parity; the caller flips it after the
    /// last region of a step.
    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Sparse row-interval pull sweep clipped to `region`.
    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats;

    /// Dense pull sweep over the full interior.
    fn sweep_pull(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
    ) -> SweepStats {
        let region = src.shape().interior();
        self.sweep_pull_region(collision, src, dst, rel, &region)
    }

    /// In-place sweep over the full interior (parity contract as above).
    fn sweep_inplace(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
    ) -> SweepStats {
        let region = f.shape().interior();
        self.sweep_inplace_region(collision, f, rel, &region)
    }

    /// Sparse sweep over the full interior. Region sweeps cannot
    /// attribute fluid-ness per sub-span, so the full-sweep entry reports
    /// the exact interval totals (same convention as the sparse module).
    fn sweep_sparse(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
    ) -> SweepStats {
        let region = src.shape().interior();
        let mut stats = self.sweep_sparse_region(collision, src, dst, intervals, rel, &region);
        stats.cells = intervals.covered_cells() as u64;
        stats.fluid_cells = intervals.fluid_cells as u64;
        stats
    }
}

/// Portable split-loop backend (no intrinsics anywhere on the sweep
/// path); the reference the other backends must match bitwise.
pub struct PortableBackend;

impl Backend for PortableBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Portable
    }

    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        if collision.is_mrt() {
            crate::mrt::stream_collide_mrt_region(src, dst, rel, collision.smagorinsky(), region)
        } else {
            crate::soa::stream_collide_trt_region(src, dst, rel, region)
        }
    }

    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        if collision.is_mrt() {
            crate::mrt::stream_collide_mrt_inplace_region(f, rel, collision.smagorinsky(), region)
        } else {
            crate::inplace::stream_collide_trt_portable_region(f, rel, region)
        }
    }

    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        if collision.is_mrt() {
            crate::mrt::stream_collide_mrt_row_intervals_region(
                src,
                dst,
                intervals,
                rel,
                collision.smagorinsky(),
                region,
            )
        } else {
            crate::sparse::stream_collide_trt_row_intervals_region(src, dst, intervals, rel, region)
        }
    }
}

/// AVX2+FMA backend: the hand-vectorized paths, with built-in resolution
/// to the portable kernels on hosts without AVX2+FMA.
pub struct Avx2Backend;

impl Backend for Avx2Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Avx2
    }

    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        if collision.is_mrt() {
            // The MRT moment-space sweep is a single shared scalar
            // routine; there is no intrinsics variant to select.
            crate::mrt::stream_collide_mrt_region(src, dst, rel, collision.smagorinsky(), region)
        } else {
            crate::avx::stream_collide_trt_region(src, dst, rel, region)
        }
    }

    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        if collision.is_mrt() {
            crate::mrt::stream_collide_mrt_inplace_region(f, rel, collision.smagorinsky(), region)
        } else {
            crate::inplace::stream_collide_trt_region(f, rel, region)
        }
    }

    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        // The row-interval kernel is shared: both CPU backends run the
        // same compiled instance of it.
        PortableBackend.sweep_sparse_region(collision, src, dst, intervals, rel, region)
    }
}

/// Work-group edge lengths in cells: 32 cells along x (a coalesced
/// warp-width row run) × 2 × 2 rows — 128 cells per group, the classic
/// CTA occupancy shape.
pub const WORKGROUP: [i32; 3] = [32, 2, 2];

/// GPU-style backend: the sweep region is tiled into [`WORKGROUP`]-sized
/// groups, iterated in grid order (x fastest, then y, then z — the block
/// index order of a GPU grid launch), each group swept with a
/// group-local order by the portable region kernels.
///
/// Because region partitioning is bitwise-exact for every kernel, this
/// backend is bitwise identical to the others; only its *cost* differs,
/// which is what the GPU-class model in `trillium-perfmodel` captures.
pub struct WorkgroupBackend;

impl WorkgroupBackend {
    /// Invokes `sweep` once per work-group tile of `region`, in grid
    /// order, merging the per-group stats.
    fn for_each_group(region: &Region, mut sweep: impl FnMut(&Region) -> SweepStats) -> SweepStats {
        let mut stats = SweepStats::default();
        let mut z = region.z.start;
        while z < region.z.end {
            let z_end = (z + WORKGROUP[2]).min(region.z.end);
            let mut y = region.y.start;
            while y < region.y.end {
                let y_end = (y + WORKGROUP[1]).min(region.y.end);
                let mut x = region.x.start;
                while x < region.x.end {
                    let x_end = (x + WORKGROUP[0]).min(region.x.end);
                    let group = Region { x: x..x_end, y: y..y_end, z: z..z_end };
                    stats.merge(sweep(&group));
                    x = x_end;
                }
                y = y_end;
            }
            z = z_end;
        }
        stats
    }
}

impl Backend for WorkgroupBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Workgroup
    }

    fn sweep_pull_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PortableBackend.sweep_pull_region(collision, src, dst, rel, group)
        })
    }

    fn sweep_inplace_region(
        &self,
        collision: Collision,
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PortableBackend.sweep_inplace_region(collision, f, rel, group)
        })
    }

    fn sweep_sparse_region(
        &self,
        collision: Collision,
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        intervals: &RowIntervals,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        Self::for_each_group(region, |group| {
            PortableBackend.sweep_sparse_region(collision, src, dst, intervals, rel, group)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, Shape};
    use trillium_lattice::MAGIC_TRT;

    fn perturbed(shape: Shape) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        f.fill_equilibrium(1.0, [0.02, -0.01, 0.015]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = f.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 17) as f64 - 8.0);
                f.set(x, y, z, q, v);
            }
        }
        f
    }

    fn rel_for(c: Collision) -> Relaxation {
        match c {
            Collision::Srt => Relaxation::srt_from_tau(0.8),
            _ => Relaxation::trt_from_tau(0.8, MAGIC_TRT),
        }
    }

    /// Every backend produces bitwise identical PDFs on the dense pull
    /// sweep, for every collision operator. Odd nx keeps the vector-tail
    /// and workgroup-tile boundaries misaligned.
    #[test]
    fn backends_agree_bitwise_on_dense_pull() {
        let shape = Shape::new(37, 6, 5, 1);
        let src = perturbed(shape);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            let mut reference: Option<SoaPdfField<D3Q19>> = None;
            for kind in BackendKind::ALL {
                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                let stats = kind.dispatch().sweep_pull(collision, &src, &mut dst, rel);
                assert_eq!(stats.cells, shape.interior_cells() as u64, "{kind:?} cell count");
                match &reference {
                    None => reference = Some(dst),
                    Some(r) => {
                        assert_eq!(r.data(), dst.data(), "{kind:?}/{collision:?} deviates")
                    }
                }
            }
        }
    }

    /// Backend equality for the single-buffer scheme at both parities.
    #[test]
    fn backends_agree_bitwise_on_inplace() {
        let shape = Shape::new(35, 5, 4, 1);
        let src = perturbed(shape);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            for parity in [false, true] {
                let mut reference: Option<SoaPdfField<D3Q19>> = None;
                for kind in BackendKind::ALL {
                    let mut f = src.clone();
                    f.set_parity(parity);
                    kind.dispatch().sweep_inplace(collision, &mut f, rel);
                    match &reference {
                        None => reference = Some(f),
                        Some(r) => assert_eq!(
                            r.data(),
                            f.data(),
                            "{kind:?}/{collision:?} parity {parity} deviates"
                        ),
                    }
                }
            }
        }
    }

    /// Backend equality on a sparse (row-interval) block, and the
    /// full-sweep stats convention holds for every backend.
    #[test]
    fn backends_agree_bitwise_on_sparse() {
        let shape = Shape::cube(8);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            if (y - 3).abs() <= 1 && (z - 3).abs() <= 1 {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let intervals = RowIntervals::build(&flags);
        let src = perturbed(shape);
        for collision in Collision::ALL {
            let rel = rel_for(collision);
            let mut reference: Option<SoaPdfField<D3Q19>> = None;
            for kind in BackendKind::ALL {
                let mut dst = SoaPdfField::<D3Q19>::new(shape);
                let stats =
                    kind.dispatch().sweep_sparse(collision, &src, &mut dst, &intervals, rel);
                assert_eq!(stats.fluid_cells, intervals.fluid_cells as u64, "{kind:?}");
                assert_eq!(stats.cells, intervals.covered_cells() as u64, "{kind:?}");
                match &reference {
                    None => reference = Some(dst),
                    Some(r) => {
                        assert_eq!(r.data(), dst.data(), "{kind:?}/{collision:?} deviates")
                    }
                }
            }
        }
    }

    /// The workgroup grid must traverse every cell of a region exactly
    /// once, for region offsets that don't align with the group size.
    #[test]
    fn workgroup_tiling_covers_regions_exactly_once() {
        for region in [
            Region { x: 0..33, y: 0..5, z: 0..3 },
            Region { x: 1..32, y: 3..4, z: 2..7 },
            Region { x: 0..64, y: 0..2, z: 0..2 },
            Region { x: 5..6, y: 1..2, z: 3..4 },
        ] {
            let mut cells = 0u64;
            let stats = WorkgroupBackend::for_each_group(&region, |g| {
                assert!(g.x.len() <= WORKGROUP[0] as usize);
                assert!(g.y.len() <= WORKGROUP[1] as usize);
                assert!(g.z.len() <= WORKGROUP[2] as usize);
                cells += g.num_cells() as u64;
                SweepStats::dense(g.num_cells() as u64)
            });
            assert_eq!(cells, region.num_cells() as u64);
            assert_eq!(stats.cells, region.num_cells() as u64);
        }
    }

    /// `resolve` degrades only `Avx2`, and only on hosts without
    /// AVX2+FMA; labels round-trip through `parse`.
    #[test]
    fn resolve_and_labels_round_trip() {
        for kind in BackendKind::ALL {
            let r = kind.resolve();
            if crate::avx::available() {
                assert_eq!(r, kind);
            } else {
                assert_eq!(r, if kind == BackendKind::Avx2 { BackendKind::Portable } else { kind });
            }
            assert_eq!(r.resolve(), r, "resolve must be idempotent");
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.dispatch().kind(), kind);
        }
        assert_eq!(BackendKind::parse("cuda"), None);
        assert_eq!(BackendKind::default(), BackendKind::Avx2);
    }
}
