//! Tier 3: SIMD-friendly kernels on Structure-of-Arrays fields.
//!
//! The paper (§4.1) describes the transformation enabling vectorization:
//! the SoA layout stores all PDFs of one direction contiguously, and the
//! innermost loop is *split*, performing the update "in a by-direction
//! rather than a by-cell manner", which "significantly reduces the number
//! of concurrent load/store streams". This module implements that
//! transformation portably: each x-row is processed in passes —
//!
//! 1. a *moment pass* per direction accumulating density and momentum into
//!    row scratch buffers (1 load stream + 4 scratch streams),
//! 2. a *finalize pass* turning momenta into velocities and the shared
//!    equilibrium base term,
//! 3. a *pair pass* per antiparallel direction pair applying the TRT (or
//!    SRT) collision and storing both destinations.
//!
//! All inner loops are stride-1 loops over `f64` slices that LLVM
//! auto-vectorizes. The region sweeps are compiled twice by
//! `crate::multiversion` (baseline and AVX2+FMA, bitwise identical);
//! [`crate::avx`] provides a hand-vectorized AVX2+FMA variant of the same
//! structure. Rows are processed in segments of at most [`ROW_CHUNK`]
//! cells with stack scratch, so a sweep allocates nothing. Because the
//! pull offset of a direction is constant along a row, "streaming" is
//! expressed as reading each source line at a shifted base index — no
//! gather instructions are needed.

use crate::multiversion::multiversion;
use crate::stats::SweepStats;
use trillium_field::{PdfField, Region, Shape, SoaPdfField};
use trillium_lattice::d3q19::{dir, C, Q, W as WEIGHTS};
use trillium_lattice::{Relaxation, D3Q19};

/// Longest row segment the split-loop kernels process at once. Longer
/// rows are swept in consecutive segments; every pass is element-wise per
/// cell, so the segmentation changes no result bit (the same argument as
/// the region-partition guarantee).
pub const ROW_CHUNK: usize = 128;

/// Per-row scratch buffers for the split-loop kernels: fixed capacity, so
/// a sweep keeps them on the stack and allocates nothing.
pub struct RowScratch {
    /// Density per cell of the current row segment.
    pub rho: [f64; ROW_CHUNK],
    /// Velocity x (momenta during accumulation).
    pub ux: [f64; ROW_CHUNK],
    /// Velocity y.
    pub uy: [f64; ROW_CHUNK],
    /// Velocity z.
    pub uz: [f64; ROW_CHUNK],
    /// Shared equilibrium base term `1 − 1.5 u²`.
    pub base: [f64; ROW_CHUNK],
}

impl RowScratch {
    /// Zeroed scratch for row segments of up to [`ROW_CHUNK`] cells.
    #[inline(always)]
    pub fn new() -> Self {
        RowScratch {
            rho: [0.0; ROW_CHUNK],
            ux: [0.0; ROW_CHUNK],
            uy: [0.0; ROW_CHUNK],
            uz: [0.0; ROW_CHUNK],
            base: [0.0; ROW_CHUNK],
        }
    }
}

impl Default for RowScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// `(offset, length)` of the consecutive segments of at most
/// [`ROW_CHUNK`] cells that cover a row of `len` cells.
#[inline(always)]
pub(crate) fn row_chunks(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len).step_by(ROW_CHUNK).map(move |o| (o, (len - o).min(ROW_CHUNK)))
}

/// The `Q` direction grids of `f`, read-only, without allocating.
#[inline(always)]
pub(crate) fn src_dirs(f: &SoaPdfField<D3Q19>) -> [&[f64]; Q] {
    std::array::from_fn(|q| f.dir(q))
}

/// The `Q` direction grids of `f`, mutable, without allocating.
#[inline(always)]
pub(crate) fn dst_dirs(f: &mut SoaPdfField<D3Q19>) -> [&mut [f64]; Q] {
    let n = f.shape().alloc_cells();
    let mut grids = f.data_mut().chunks_exact_mut(n);
    std::array::from_fn(|_| grids.next().expect("one grid per direction"))
}

/// Linear base index (into a direction grid) of the cell `(x, y, z)` —
/// the first cell of the (sub-)row being processed.
#[inline(always)]
fn row_base(shape: &Shape, x: i32, y: i32, z: i32) -> usize {
    shape.idx(x, y, z)
}

/// The pull-shifted source line of direction `q` for a row starting at
/// linear index `base`, `n` cells long.
#[inline(always)]
fn src_line<'a>(
    dirs: &'a [&'a [f64]],
    q: usize,
    base: usize,
    sy: isize,
    sz: isize,
    n: usize,
) -> &'a [f64] {
    let off = C[q][0] as isize + C[q][1] as isize * sy + C[q][2] as isize * sz;
    let start = (base as isize - off) as usize;
    &dirs[q][start..start + n]
}

/// Accumulates ρ and momentum over all directions into the scratch rows,
/// then converts to velocity and the equilibrium base term.
#[inline(always)]
fn moment_passes(
    sdirs: &[&[f64]],
    base: usize,
    sy: isize,
    sz: isize,
    n: usize,
    scr: &mut RowScratch,
) {
    let (rho, ux, uy, uz) =
        (&mut scr.rho[..n], &mut scr.ux[..n], &mut scr.uy[..n], &mut scr.uz[..n]);
    rho.fill(0.0);
    ux.fill(0.0);
    uy.fill(0.0);
    uz.fill(0.0);
    for q in 0..Q {
        let s = src_line(sdirs, q, base, sy, sz, n);
        let (cx, cy, cz) = (C[q][0] as f64, C[q][1] as f64, C[q][2] as f64);
        // One load stream, up to four scratch streams. The fused `mul_add`
        // and the explicit skip of zero velocity components mirror the
        // AVX2+FMA kernel operation for operation, so the portable and
        // vectorized tiers produce bitwise identical PDFs — the property
        // the backend equivalence gate pins.
        for x in 0..n {
            let v = s[x];
            rho[x] += v;
            if cx != 0.0 {
                ux[x] = cx.mul_add(v, ux[x]);
            }
            if cy != 0.0 {
                uy[x] = cy.mul_add(v, uy[x]);
            }
            if cz != 0.0 {
                uz[x] = cz.mul_add(v, uz[x]);
            }
        }
    }
    let bb = &mut scr.base[..n];
    for x in 0..n {
        let inv = 1.0 / rho[x];
        let vx = ux[x] * inv;
        let vy = uy[x] * inv;
        let vz = uz[x] * inv;
        ux[x] = vx;
        uy[x] = vy;
        uz[x] = vz;
        let u2 = vz.mul_add(vz, vy.mul_add(vy, vx * vx));
        bb[x] = (-1.5f64).mul_add(u2, 1.0);
    }
}

/// TRT pair pass over one row: applies the collision to the antiparallel
/// pair `(a, b)` and stores both destination lines.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn trt_pair_row(
    sa: &[f64],
    sb: &[f64],
    da: &mut [f64],
    db: &mut [f64],
    c: [f64; 3],
    wq: f64,
    scr: &RowScratch,
    le: f64,
    lo: f64,
    n: usize,
) {
    let (rho, ux, uy, uz, base) =
        (&scr.rho[..n], &scr.ux[..n], &scr.uy[..n], &scr.uz[..n], &scr.base[..n]);
    for x in 0..n {
        let cu = c[2].mul_add(uz[x], c[1].mul_add(uy[x], c[0] * ux[x]));
        let t = wq * rho[x];
        let feq_even = t * (4.5f64.mul_add(cu * cu, base[x]));
        let feq_odd = (3.0 * t) * cu;
        let fa = sa[x];
        let fb = sb[x];
        let d_even = le * (0.5 * (fa + fb) - feq_even);
        let d_odd = lo * (0.5 * (fa - fb) - feq_odd);
        da[x] = fa + (d_even + d_odd);
        db[x] = fb + (d_even - d_odd);
    }
}

/// One TRT row segment: moment passes, the rest direction and the pair
/// passes over the `n ≤ ROW_CHUNK` cells starting at linear index `base`.
/// Shared by the dense region sweep and the sparse row-interval sweep.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn trt_row(
    sdirs: &[&[f64]; Q],
    ddirs: &mut [&mut [f64]; Q],
    base: usize,
    sy: isize,
    sz: isize,
    n: usize,
    le: f64,
    lo: f64,
    scr: &mut RowScratch,
) {
    moment_passes(sdirs, base, sy, sz, n, scr);

    // Rest direction: purely even relaxation.
    {
        let s0 = src_line(sdirs, dir::C, base, sy, sz, n);
        let d0 = &mut ddirs[dir::C][base..base + n];
        let w0 = WEIGHTS[0];
        for x in 0..n {
            let feq = w0 * (scr.rho[x] * scr.base[x]);
            d0[x] = le.mul_add(s0[x] - feq, s0[x]);
        }
    }

    // Antiparallel pairs.
    for &(a, b) in trillium_lattice::d3q19::PAIRS.iter() {
        let sa = src_line(sdirs, a, base, sy, sz, n);
        let sb = src_line(sdirs, b, base, sy, sz, n);
        // Split the destination array to borrow two lines at once.
        let (da, db) = {
            debug_assert!(a < b);
            let (lo_half, hi_half) = ddirs.split_at_mut(b);
            (&mut lo_half[a][base..base + n], &mut hi_half[0][base..base + n])
        };
        let c = [C[a][0] as f64, C[a][1] as f64, C[a][2] as f64];
        trt_pair_row(sa, sb, da, db, c, WEIGHTS[a], scr, le, lo, n);
    }
}

/// One fused stream–collide sweep with the TRT operator on SoA fields,
/// split-loop / by-direction (the paper's "SIMD" tier, portable variant).
pub fn stream_collide_trt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    stream_collide_trt_region(src, dst, rel, &src.shape().interior())
}

multiversion! {
    /// [`stream_collide_trt`] restricted to `region` (a subset of the
    /// interior). All passes are element-wise per cell, so sweeping a
    /// partition of the interior region by region produces bitwise the same
    /// PDFs as one full sweep — the property the overlapped driver relies on.
    /// Compiled once per target (`crate::multiversion`).
    pub fn stream_collide_trt_region, stream_collide_trt_region_on(
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        assert_eq!(src.shape(), dst.shape());
        let shape = src.shape();
        assert!(shape.ghost >= 1);
        debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
        let (le, lo) = (rel.lambda_e, rel.lambda_o);
        let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
        if region.x.is_empty() {
            return SweepStats::dense(0);
        }
        let mut scr = RowScratch::new();
        let sdirs = src_dirs(src);
        let mut ddirs = dst_dirs(dst);

        for z in region.z.clone() {
            for y in region.y.clone() {
                let row = row_base(&shape, region.x.start, y, z);
                for (o, n) in row_chunks(region.x.len()) {
                    trt_row(&sdirs, &mut ddirs, row + o, sy, sz, n, le, lo, &mut scr);
                }
            }
        }
        SweepStats::dense(region.num_cells() as u64)
    }
}

/// One fused stream–collide sweep with the SRT operator on SoA fields,
/// split-loop / by-direction.
pub fn stream_collide_srt(
    src: &SoaPdfField<D3Q19>,
    dst: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
) -> SweepStats {
    stream_collide_srt_region(src, dst, rel, &src.shape().interior())
}

multiversion! {
    /// [`stream_collide_srt`] restricted to `region`; see
    /// [`stream_collide_trt_region`] for the partition guarantee.
    pub fn stream_collide_srt_region, stream_collide_srt_region_on(
        src: &SoaPdfField<D3Q19>,
        dst: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
        assert_eq!(src.shape(), dst.shape());
        let shape = src.shape();
        assert!(shape.ghost >= 1);
        debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
        let omega = -rel.lambda_e;
        let om1 = 1.0 - omega;
        let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
        if region.x.is_empty() {
            return SweepStats::dense(0);
        }
        let mut scr = RowScratch::new();
        let sdirs = src_dirs(src);
        let ddirs = dst_dirs(dst);

        for z in region.z.clone() {
            for y in region.y.clone() {
                let row = row_base(&shape, region.x.start, y, z);
                for (o, n) in row_chunks(region.x.len()) {
                    let base = row + o;
                    moment_passes(&sdirs, base, sy, sz, n, &mut scr);
                    for q in 0..Q {
                        let s = src_line(&sdirs, q, base, sy, sz, n);
                        let d = &mut ddirs[q][base..base + n];
                        let (cx, cy, cz) = (C[q][0] as f64, C[q][1] as f64, C[q][2] as f64);
                        let tw = omega * WEIGHTS[q];
                        for x in 0..n {
                            let cu = cz.mul_add(scr.uz[x], cy.mul_add(scr.uy[x], cx * scr.ux[x]));
                            let inner = 3.0f64.mul_add(cu, 4.5f64.mul_add(cu * cu, scr.base[x]));
                            let t = tw * scr.rho[x];
                            d[x] = om1.mul_add(s[x], t * inner);
                        }
                    }
                }
            }
        }
        SweepStats::dense(region.num_cells() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use trillium_field::AosPdfField;
    use trillium_lattice::MAGIC_TRT;

    fn perturbed_pair(shape: Shape) -> (SoaPdfField<D3Q19>, AosPdfField<D3Q19>) {
        let mut soa = SoaPdfField::<D3Q19>::new(shape);
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        soa.fill_equilibrium(1.0, [0.01, 0.02, -0.015]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let v = soa.get(x, y, z, q)
                    + 1e-4 * (((x * 7 + y * 13 + z * 29 + q as i32 * 31) % 11) as f64 - 5.0);
                soa.set(x, y, z, q, v);
                aos.set(x, y, z, q, v);
            }
        }
        (soa, aos)
    }

    #[test]
    fn soa_trt_matches_generic() {
        let shape = Shape::new(6, 4, 3, 1);
        let (soa, aos) = perturbed_pair(shape);
        let rel = Relaxation::trt_from_tau(0.81, MAGIC_TRT);
        let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_trt(&soa, &mut d_soa, rel);
        generic::stream_collide_trt(&aos, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_soa.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn soa_srt_matches_generic() {
        let shape = Shape::new(5, 3, 4, 1);
        let (soa, aos) = perturbed_pair(shape);
        let rel = Relaxation::srt_from_tau(0.95);
        let mut d_soa = SoaPdfField::<D3Q19>::new(shape);
        let mut d_gen = AosPdfField::<D3Q19>::new(shape);
        stream_collide_srt(&soa, &mut d_soa, rel);
        generic::stream_collide_srt(&aos, &mut d_gen, rel);
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                let (a, b) = (d_soa.get(x, y, z, q), d_gen.get(x, y, z, q));
                assert!((a - b).abs() < 1e-14, "q={q} at ({x},{y},{z}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn equilibrium_fixed_point() {
        let shape = Shape::cube(5);
        let mut src = SoaPdfField::<D3Q19>::new(shape);
        let mut dst = SoaPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.02, [0.03, 0.0, -0.01]);
        stream_collide_trt(&src, &mut dst, Relaxation::trt_from_viscosity(0.02));
        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert!((src.get(x, y, z, q) - dst.get(x, y, z, q)).abs() < 1e-14);
            }
        }
    }
}
