//! Tier 4: single-buffer in-place stream–collide (the AA pattern).
//!
//! The two-field pull scheme of [`crate::soa`]/[`crate::avx`] moves three
//! cache lines per PDF and cell update: the load from `src`, the store to
//! `dst` and the write-allocate of the `dst` line. The AA pattern (Bailey
//! et al.) updates a *single* buffer and thereby drops the write-allocate
//! stream entirely — every store hits a line the sweep just loaded — for
//! 38 instead of 57 cache lines per eight-cell work unit (see
//! `trillium_perfmodel::ecm`).
//!
//! # Storage parities
//!
//! The trick is to let the storage convention alternate between steps
//! (tracked by [`SoaPdfField::parity`]):
//!
//! * **transport sweep** (even step, parity 0 → 1): the buffer is in
//!   canonical layout. Cell `x` *pulls* `f_q = buf[x − c_q][q]` — exactly
//!   the reads of the pull kernels — collides, and stores the
//!   post-collision `f̃_q(x)` to `buf[x + c_q][q̄]`: one hop downstream in
//!   the *opposite* direction's grid. Afterwards the logical value
//!   `(x, q)` lives at storage slot `(x + c_q, q̄)`.
//! * **local sweep** (odd step, parity 1 → 0): cell `x` finds its
//!   streamed-in populations *in place* — `f_q(x) = buf[x][q̄]` — collides
//!   entirely cell-locally and stores `f̃_q(x)` back to the canonical slot
//!   `buf[x][q]`, restoring parity 0.
//!
//! Storage slot `(w, p)` is read by exactly one cell (`w + c_p`) and
//! written by exactly that same cell in either sweep, so any cell order
//! and any partition of the interior into regions produces bitwise
//! identical results — the same property the overlapped driver relies on
//! for the pull tiers.
//!
//! # Bitwise equivalence with the pull reference
//!
//! The sweeps here perform, per lattice cell, the *identical* sequence of
//! floating-point operations as the resolved pull tier: when AVX2+FMA is
//! available the intrinsics paths mirror [`crate::avx`] instruction for
//! instruction (including the fused scalar tail); the portable paths
//! mirror [`crate::soa`] expression for expression and are compiled per
//! target like it (`crate::multiversion`). Only load/store *addresses*
//! differ, so an in-place run is bitwise identical to a pull run step for
//! step — the equivalence the dispatch and driver tests assert.
//!
//! The kernels never flip [`SoaPdfField::parity`] themselves: a full
//! interior update may be split across region calls (interior core +
//! shell), so the owner of the step (e.g. `trillium-core`'s `BlockSim`)
//! flips the flag exactly once after the last region of a sweep.

use crate::multiversion::multiversion;
use crate::soa::{row_chunks, RowScratch};
use crate::stats::SweepStats;
use trillium_field::{PdfField, Region, Shape, SoaPdfField};
use trillium_lattice::d3q19::{C, INVERSE, PAIRS, Q, W as WEIGHTS};
use trillium_lattice::{Relaxation, D3Q19};

/// One full in-place TRT sweep over the interior. Reads the sweep variant
/// (transport vs. local) from the field's current [`SoaPdfField::parity`];
/// the caller flips the parity afterwards.
pub fn stream_collide_trt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation) -> SweepStats {
    let region = f.shape().interior();
    stream_collide_trt_region(f, rel, &region)
}

/// [`stream_collide_trt`] restricted to `region` (a subset of the
/// interior). Sweeping a partition of the interior region by region is
/// bitwise identical to one full sweep (slot-ownership argument in the
/// module docs).
pub fn stream_collide_trt_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::avx::available() {
            // SAFETY: feature availability checked above.
            return unsafe { imp::stream_collide_trt_avx2(f, rel, region) };
        }
    }
    scalar::stream_collide_trt(f, rel, region)
}

/// One full in-place SRT sweep over the interior (same parity contract as
/// [`stream_collide_trt`]).
pub fn stream_collide_srt(f: &mut SoaPdfField<D3Q19>, rel: Relaxation) -> SweepStats {
    let region = f.shape().interior();
    stream_collide_srt_region(f, rel, &region)
}

/// [`stream_collide_srt`] restricted to `region`; see
/// [`stream_collide_trt_region`] for the partition guarantee.
pub fn stream_collide_srt_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
    #[cfg(target_arch = "x86_64")]
    {
        if crate::avx::available() {
            // SAFETY: feature availability checked above.
            return unsafe { imp::stream_collide_srt_avx2(f, rel, region) };
        }
    }
    scalar::stream_collide_srt(f, rel, region)
}

/// [`stream_collide_trt_region`] pinned to the portable (non-intrinsics)
/// source — the in-place sweep of the portable and workgroup backends. The
/// source is compiled per target (`crate::multiversion`), so AVX2+FMA
/// hosts run its vectorized instance. Bitwise identical to the intrinsics
/// path because both perform the same fused operation sequence.
pub fn stream_collide_trt_portable_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    scalar::stream_collide_trt(f, rel, region)
}

/// [`stream_collide_srt_region`] pinned to the portable path; see
/// [`stream_collide_trt_portable_region`].
pub fn stream_collide_srt_portable_region(
    f: &mut SoaPdfField<D3Q19>,
    rel: Relaxation,
    region: &Region,
) -> SweepStats {
    assert!(rel.is_srt(), "SRT kernel requires equal relaxation rates");
    scalar::stream_collide_srt(f, rel, region)
}

/// Shared per-sweep setup: validates shape/region and returns the raw
/// per-direction line pointers into the single buffer. Raw pointers are
/// required because the in-place pair passes read and write the same two
/// lines (each element is loaded before its slot is overwritten).
#[inline(always)]
fn line_ptrs(f: &mut SoaPdfField<D3Q19>, region: &Region) -> (Shape, [*mut f64; Q]) {
    let shape = f.shape();
    assert!(shape.ghost >= 1);
    debug_assert_eq!(region.intersect(&shape.interior()), region.clone());
    let alloc = shape.alloc_cells();
    let base = f.data_mut().as_mut_ptr();
    // SAFETY: `q * alloc` stays inside the `Q * alloc`-element buffer.
    (shape, std::array::from_fn(|q| unsafe { base.add(q * alloc) }))
}

/// Pull-style row offset of direction `q` (cells, in linear index units).
#[inline(always)]
fn offq(q: usize, sy: isize, sz: isize) -> isize {
    C[q][0] as isize + C[q][1] as isize * sy + C[q][2] as isize * sz
}

/// Portable in-place sweeps mirroring [`crate::soa`]'s arithmetic,
/// compiled once per target (`crate::multiversion`).
pub(crate) mod scalar {
    use super::*;

    /// Moment + finalize passes of one row. At parity 0 this reads the
    /// pull-shifted lines (identical addresses and order to
    /// `soa::moment_passes`); at parity 1 it reads the unshifted inverse
    /// line of each direction. The accumulation arithmetic is the soa
    /// kernel's, expression for expression.
    ///
    /// # Safety
    /// `lines[q] + base ± offsets` must stay inside the allocation for
    /// `n` elements — guaranteed for interior rows with `ghost >= 1`.
    #[inline(always)]
    unsafe fn moment_passes(
        lines: &[*mut f64],
        parity: bool,
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
            let s = if parity {
                lines[INVERSE[q]].add(base)
            } else {
                lines[q].offset(base as isize - offq(q, sy, sz))
            };
            let (cx, cy, cz) = (C[q][0] as f64, C[q][1] as f64, C[q][2] as f64);
            for x in 0..n {
                let v = *s.add(x);
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

    /// Load/store addresses of the antiparallel pair `(a, b)` for one row.
    /// Returns `(src_a, src_b, dst_a, dst_b)` where `dst_a` receives the
    /// post-collision value of logical direction `a`.
    ///
    /// Parity 0 (transport): loads are pull-identical; `f̃_a(x)` goes to
    /// `(x + c_a, b)` — the slot `f_b` was just loaded from — and vice
    /// versa. Parity 1 (local): loads are the swapped unshifted lines and
    /// stores restore the canonical slots.
    #[inline(always)]
    unsafe fn pair_lines(
        lines: &[*mut f64],
        parity: bool,
        a: usize,
        b: usize,
        base: usize,
        oa: isize,
    ) -> (*const f64, *const f64, *mut f64, *mut f64) {
        if parity {
            let pa = lines[a].add(base);
            let pb = lines[b].add(base);
            (pb as *const f64, pa as *const f64, pa, pb)
        } else {
            let pa = lines[a].offset(base as isize - oa);
            let pb = lines[b].offset(base as isize + oa);
            (pa as *const f64, pb as *const f64, pb, pa)
        }
    }

    multiversion! {
        /// Portable in-place TRT sweep of `region`, compiled once per
        /// target (`crate::multiversion`).
        pub fn stream_collide_trt, stream_collide_trt_on(
            f: &mut SoaPdfField<D3Q19>,
            rel: Relaxation,
            region: &Region,
        ) -> SweepStats {
            let parity = f.parity();
            let (shape, lines) = line_ptrs(f, region);
            let (le, lo) = (rel.lambda_e, rel.lambda_o);
            let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
            if region.x.is_empty() {
                return SweepStats::dense(0);
            }
            let mut scr = RowScratch::new();

            for z in region.z.clone() {
                for y in region.y.clone() {
                    let row = shape.idx(region.x.start, y, z);
                    for (o, n) in row_chunks(region.x.len()) {
                        let base = row + o;
                        // SAFETY: interior rows with ghost >= 1; slot ownership
                        // (module docs) makes the in-place stores race-free.
                        unsafe {
                            moment_passes(&lines, parity, base, sy, sz, n, &mut scr);

                            // Rest direction: the canonical slot at either parity.
                            {
                                let p0 = lines[0].add(base);
                                let w0 = WEIGHTS[0];
                                for x in 0..n {
                                    let s0 = *p0.add(x);
                                    let feq = w0 * (scr.rho[x] * scr.base[x]);
                                    *p0.add(x) = le.mul_add(s0 - feq, s0);
                                }
                            }

                            for &(a, b) in PAIRS.iter() {
                                let oa = offq(a, sy, sz);
                                let (sa, sb, da, db) = pair_lines(&lines, parity, a, b, base, oa);
                                let c = [C[a][0] as f64, C[a][1] as f64, C[a][2] as f64];
                                let wq = WEIGHTS[a];
                                for x in 0..n {
                                    let cu = c[2]
                                        .mul_add(scr.uz[x], c[1].mul_add(scr.uy[x], c[0] * scr.ux[x]));
                                    let t = wq * scr.rho[x];
                                    let feq_even = t * (4.5f64.mul_add(cu * cu, scr.base[x]));
                                    let feq_odd = (3.0 * t) * cu;
                                    let fa = *sa.add(x);
                                    let fb = *sb.add(x);
                                    let d_even = le * (0.5 * (fa + fb) - feq_even);
                                    let d_odd = lo * (0.5 * (fa - fb) - feq_odd);
                                    *da.add(x) = fa + (d_even + d_odd);
                                    *db.add(x) = fb + (d_even - d_odd);
                                }
                            }
                        }
                    }
                }
            }
            SweepStats::dense(region.num_cells() as u64)
        }
    }

    multiversion! {
        /// Portable in-place SRT sweep of `region`, compiled once per
        /// target (`crate::multiversion`).
        pub fn stream_collide_srt, stream_collide_srt_on(
            f: &mut SoaPdfField<D3Q19>,
            rel: Relaxation,
            region: &Region,
        ) -> SweepStats {
            let parity = f.parity();
            let (shape, lines) = line_ptrs(f, region);
            let omega = -rel.lambda_e;
            let om1 = 1.0 - omega;
            let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
            if region.x.is_empty() {
                return SweepStats::dense(0);
            }
            let mut scr = RowScratch::new();

            for z in region.z.clone() {
                for y in region.y.clone() {
                    let row = shape.idx(region.x.start, y, z);
                    for (o, n) in row_chunks(region.x.len()) {
                        let base = row + o;
                        // SAFETY: see the TRT sweep.
                        unsafe {
                            moment_passes(&lines, parity, base, sy, sz, n, &mut scr);

                            {
                                let p0 = lines[0].add(base);
                                // cu = 0 for the rest direction, so `inner` is
                                // just the equilibrium base term.
                                let tw = omega * WEIGHTS[0];
                                for x in 0..n {
                                    let inner = scr.base[x];
                                    let t = tw * scr.rho[x];
                                    *p0.add(x) = om1.mul_add(*p0.add(x), t * inner);
                                }
                            }

                            // Unlike the pull kernel, opposite directions must be
                            // processed jointly: direction `a`'s store lands in the
                            // slot direction `b` reads. Each element still sees the
                            // by-direction pull arithmetic verbatim.
                            for &(a, b) in PAIRS.iter() {
                                let oa = offq(a, sy, sz);
                                let (sa, sb, da, db) = pair_lines(&lines, parity, a, b, base, oa);
                                let ca = [C[a][0] as f64, C[a][1] as f64, C[a][2] as f64];
                                let cb = [C[b][0] as f64, C[b][1] as f64, C[b][2] as f64];
                                let twa = omega * WEIGHTS[a];
                                let twb = omega * WEIGHTS[b];
                                for x in 0..n {
                                    let fa = *sa.add(x);
                                    let fb = *sb.add(x);
                                    let cua = ca[2].mul_add(
                                        scr.uz[x],
                                        ca[1].mul_add(scr.uy[x], ca[0] * scr.ux[x]),
                                    );
                                    let inner_a =
                                        3.0f64.mul_add(cua, 4.5f64.mul_add(cua * cua, scr.base[x]));
                                    let ta = twa * scr.rho[x];
                                    let cub = cb[2].mul_add(
                                        scr.uz[x],
                                        cb[1].mul_add(scr.uy[x], cb[0] * scr.ux[x]),
                                    );
                                    let inner_b =
                                        3.0f64.mul_add(cub, 4.5f64.mul_add(cub * cub, scr.base[x]));
                                    let tb = twb * scr.rho[x];
                                    *da.add(x) = om1.mul_add(fa, ta * inner_a);
                                    *db.add(x) = om1.mul_add(fb, tb * inner_b);
                                }
                            }
                        }
                    }
                }
            }
            SweepStats::dense(region.num_cells() as u64)
        }
    }
}

/// AVX2+FMA in-place sweeps mirroring [`crate::avx`]'s instruction
/// sequence (vector body and fused scalar tail) with in-place addressing.
#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use std::arch::x86_64::*;

    const LANES: usize = 4;

    /// Vectorized moment + finalize passes; same address scheme as the
    /// scalar module, same instruction sequence as `avx::imp`.
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA and in-bounds row addressing.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn moment_passes(
        lines: &[*mut f64],
        parity: bool,
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
            let s = if parity {
                lines[INVERSE[q]].add(base)
            } else {
                lines[q].offset(base as isize - offq(q, sy, sz))
            };
            let (cx, cy, cz) = (C[q][0] as f64, C[q][1] as f64, C[q][2] as f64);
            let vcx = _mm256_set1_pd(cx);
            let vcy = _mm256_set1_pd(cy);
            let vcz = _mm256_set1_pd(cz);
            let mut x = 0;
            while x + LANES <= n {
                let v = _mm256_loadu_pd(s.add(x));
                let r = _mm256_add_pd(_mm256_loadu_pd(rho.as_ptr().add(x)), v);
                _mm256_storeu_pd(rho.as_mut_ptr().add(x), r);
                if cx != 0.0 {
                    let a = _mm256_fmadd_pd(vcx, v, _mm256_loadu_pd(ux.as_ptr().add(x)));
                    _mm256_storeu_pd(ux.as_mut_ptr().add(x), a);
                }
                if cy != 0.0 {
                    let a = _mm256_fmadd_pd(vcy, v, _mm256_loadu_pd(uy.as_ptr().add(x)));
                    _mm256_storeu_pd(uy.as_mut_ptr().add(x), a);
                }
                if cz != 0.0 {
                    let a = _mm256_fmadd_pd(vcz, v, _mm256_loadu_pd(uz.as_ptr().add(x)));
                    _mm256_storeu_pd(uz.as_mut_ptr().add(x), a);
                }
                x += LANES;
            }
            while x < n {
                let v = *s.add(x);
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
                x += 1;
            }
        }
        {
            let ebase = &mut scr.base[..n];
            let one = _mm256_set1_pd(1.0);
            let c15 = _mm256_set1_pd(1.5);
            let mut x = 0;
            while x + LANES <= n {
                let r = _mm256_loadu_pd(rho.as_ptr().add(x));
                let inv = _mm256_div_pd(one, r);
                let vx = _mm256_mul_pd(_mm256_loadu_pd(ux.as_ptr().add(x)), inv);
                let vy = _mm256_mul_pd(_mm256_loadu_pd(uy.as_ptr().add(x)), inv);
                let vz = _mm256_mul_pd(_mm256_loadu_pd(uz.as_ptr().add(x)), inv);
                _mm256_storeu_pd(ux.as_mut_ptr().add(x), vx);
                _mm256_storeu_pd(uy.as_mut_ptr().add(x), vy);
                _mm256_storeu_pd(uz.as_mut_ptr().add(x), vz);
                let u2 = _mm256_fmadd_pd(vz, vz, _mm256_fmadd_pd(vy, vy, _mm256_mul_pd(vx, vx)));
                let b = _mm256_fnmadd_pd(c15, u2, one);
                _mm256_storeu_pd(ebase.as_mut_ptr().add(x), b);
                x += LANES;
            }
            while x < n {
                let inv = 1.0 / rho[x];
                let (vx, vy, vz) = (ux[x] * inv, uy[x] * inv, uz[x] * inv);
                ux[x] = vx;
                uy[x] = vy;
                uz[x] = vz;
                let u2 = vz.mul_add(vz, vy.mul_add(vy, vx * vx));
                ebase[x] = (-1.5f64).mul_add(u2, 1.0);
                x += 1;
            }
        }
    }

    /// Same addressing contract as `scalar::pair_lines`.
    #[inline(always)]
    unsafe fn pair_lines(
        lines: &[*mut f64],
        parity: bool,
        a: usize,
        b: usize,
        base: usize,
        oa: isize,
    ) -> (*const f64, *const f64, *mut f64, *mut f64) {
        if parity {
            let pa = lines[a].add(base);
            let pb = lines[b].add(base);
            (pb as *const f64, pa as *const f64, pa, pb)
        } else {
            let pa = lines[a].offset(base as isize - oa);
            let pb = lines[b].offset(base as isize + oa);
            (pa as *const f64, pb as *const f64, pb, pa)
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stream_collide_trt_avx2(
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        let parity = f.parity();
        let (shape, lines) = line_ptrs(f, region);
        let (le, lo) = (rel.lambda_e, rel.lambda_o);
        let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
        if region.x.is_empty() {
            return SweepStats::dense(0);
        }
        let mut scr = RowScratch::new();

        for z in region.z.clone() {
            for y in region.y.clone() {
                let row = shape.idx(region.x.start, y, z);
                for (o, n) in row_chunks(region.x.len()) {
                    let base = row + o;
                    moment_passes(&lines, parity, base, sy, sz, n, &mut scr);
                    let (rho, ux, uy, uz, ebase) =
                        (&scr.rho[..n], &scr.ux[..n], &scr.uy[..n], &scr.uz[..n], &scr.base[..n]);

                    // ---- rest direction ----------------------------------
                    {
                        let p0 = lines[0].add(base);
                        let w0 = _mm256_set1_pd(WEIGHTS[0]);
                        let vle = _mm256_set1_pd(le);
                        let mut x = 0;
                        while x + LANES <= n {
                            let f0 = _mm256_loadu_pd(p0.add(x));
                            let feq = _mm256_mul_pd(
                                w0,
                                _mm256_mul_pd(
                                    _mm256_loadu_pd(rho.as_ptr().add(x)),
                                    _mm256_loadu_pd(ebase.as_ptr().add(x)),
                                ),
                            );
                            let out = _mm256_fmadd_pd(vle, _mm256_sub_pd(f0, feq), f0);
                            _mm256_storeu_pd(p0.add(x), out);
                            x += LANES;
                        }
                        while x < n {
                            let s0 = *p0.add(x);
                            let feq = WEIGHTS[0] * (rho[x] * ebase[x]);
                            *p0.add(x) = le.mul_add(s0 - feq, s0);
                            x += 1;
                        }
                    }

                    // ---- pair passes -------------------------------------
                    for &(a, b) in PAIRS.iter() {
                        let oa = offq(a, sy, sz);
                        let (sa, sb, da, db) = pair_lines(&lines, parity, a, b, base, oa);
                        let c = [C[a][0] as f64, C[a][1] as f64, C[a][2] as f64];
                        let wq = WEIGHTS[a];

                        let vcx = _mm256_set1_pd(c[0]);
                        let vcy = _mm256_set1_pd(c[1]);
                        let vcz = _mm256_set1_pd(c[2]);
                        let vwq = _mm256_set1_pd(wq);
                        let vle = _mm256_set1_pd(le);
                        let vlo = _mm256_set1_pd(lo);
                        let vhalf = _mm256_set1_pd(0.5);
                        let v45 = _mm256_set1_pd(4.5);
                        let v3 = _mm256_set1_pd(3.0);

                        let mut x = 0;
                        while x + LANES <= n {
                            let vux = _mm256_loadu_pd(ux.as_ptr().add(x));
                            let vuy = _mm256_loadu_pd(uy.as_ptr().add(x));
                            let vuz = _mm256_loadu_pd(uz.as_ptr().add(x));
                            let cu = _mm256_fmadd_pd(
                                vcz,
                                vuz,
                                _mm256_fmadd_pd(vcy, vuy, _mm256_mul_pd(vcx, vux)),
                            );
                            let t = _mm256_mul_pd(vwq, _mm256_loadu_pd(rho.as_ptr().add(x)));
                            let cu2 = _mm256_mul_pd(cu, cu);
                            let inner =
                                _mm256_fmadd_pd(v45, cu2, _mm256_loadu_pd(ebase.as_ptr().add(x)));
                            let feq_even = _mm256_mul_pd(t, inner);
                            let feq_odd = _mm256_mul_pd(_mm256_mul_pd(v3, t), cu);
                            let fa = _mm256_loadu_pd(sa.add(x));
                            let fb = _mm256_loadu_pd(sb.add(x));
                            let fp = _mm256_mul_pd(vhalf, _mm256_add_pd(fa, fb));
                            let fm = _mm256_mul_pd(vhalf, _mm256_sub_pd(fa, fb));
                            let d_even = _mm256_mul_pd(vle, _mm256_sub_pd(fp, feq_even));
                            let d_odd = _mm256_mul_pd(vlo, _mm256_sub_pd(fm, feq_odd));
                            let oa2 = _mm256_add_pd(fa, _mm256_add_pd(d_even, d_odd));
                            let ob2 = _mm256_add_pd(fb, _mm256_sub_pd(d_even, d_odd));
                            _mm256_storeu_pd(da.add(x), oa2);
                            _mm256_storeu_pd(db.add(x), ob2);
                            x += LANES;
                        }
                        while x < n {
                            let cu = c[2].mul_add(uz[x], c[1].mul_add(uy[x], c[0] * ux[x]));
                            let t = wq * rho[x];
                            let feq_even = t * (4.5f64.mul_add(cu * cu, ebase[x]));
                            let feq_odd = (3.0 * t) * cu;
                            let (fa, fb) = (*sa.add(x), *sb.add(x));
                            let d_even = le * (0.5 * (fa + fb) - feq_even);
                            let d_odd = lo * (0.5 * (fa - fb) - feq_odd);
                            *da.add(x) = fa + (d_even + d_odd);
                            *db.add(x) = fb + (d_even - d_odd);
                            x += 1;
                        }
                    }
                }
            }
        }
        SweepStats::dense(region.num_cells() as u64)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn stream_collide_srt_avx2(
        f: &mut SoaPdfField<D3Q19>,
        rel: Relaxation,
        region: &Region,
    ) -> SweepStats {
        let parity = f.parity();
        let (shape, lines) = line_ptrs(f, region);
        let omega = -rel.lambda_e;
        let om1 = 1.0 - omega;
        let (sy, sz) = (shape.stride_y() as isize, shape.stride_z() as isize);
        if region.x.is_empty() {
            return SweepStats::dense(0);
        }
        let mut scr = RowScratch::new();

        for z in region.z.clone() {
            for y in region.y.clone() {
                let row = shape.idx(region.x.start, y, z);
                for (o, n) in row_chunks(region.x.len()) {
                    let base = row + o;
                    moment_passes(&lines, parity, base, sy, sz, n, &mut scr);
                    let (rho, ux, uy, uz, ebase) =
                        (&scr.rho[..n], &scr.ux[..n], &scr.uy[..n], &scr.uz[..n], &scr.base[..n]);

                    // ---- rest direction (cu = 0 folds away) ---------------
                    {
                        let p0 = lines[0].add(base);
                        let tw = omega * WEIGHTS[0];
                        let vtw = _mm256_set1_pd(tw);
                        let vom1 = _mm256_set1_pd(om1);
                        let mut x = 0;
                        while x + LANES <= n {
                            let inner = _mm256_loadu_pd(ebase.as_ptr().add(x));
                            let t = _mm256_mul_pd(vtw, _mm256_loadu_pd(rho.as_ptr().add(x)));
                            let fv = _mm256_loadu_pd(p0.add(x));
                            let out = _mm256_fmadd_pd(vom1, fv, _mm256_mul_pd(t, inner));
                            _mm256_storeu_pd(p0.add(x), out);
                            x += LANES;
                        }
                        while x < n {
                            let inner = ebase[x];
                            let t = tw * rho[x];
                            *p0.add(x) = om1.mul_add(*p0.add(x), t * inner);
                            x += 1;
                        }
                    }

                    // ---- joint pair passes (see scalar module) ------------
                    for &(a, b) in PAIRS.iter() {
                        let oa = offq(a, sy, sz);
                        let (sa, sb, da, db) = pair_lines(&lines, parity, a, b, base, oa);
                        let ca = [C[a][0] as f64, C[a][1] as f64, C[a][2] as f64];
                        let cb = [C[b][0] as f64, C[b][1] as f64, C[b][2] as f64];
                        let twa = omega * WEIGHTS[a];
                        let twb = omega * WEIGHTS[b];
                        let vcax = _mm256_set1_pd(ca[0]);
                        let vcay = _mm256_set1_pd(ca[1]);
                        let vcaz = _mm256_set1_pd(ca[2]);
                        let vcbx = _mm256_set1_pd(cb[0]);
                        let vcby = _mm256_set1_pd(cb[1]);
                        let vcbz = _mm256_set1_pd(cb[2]);
                        let vtwa = _mm256_set1_pd(twa);
                        let vtwb = _mm256_set1_pd(twb);
                        let vom1 = _mm256_set1_pd(om1);
                        let v3 = _mm256_set1_pd(3.0);
                        let v45 = _mm256_set1_pd(4.5);
                        let mut x = 0;
                        while x + LANES <= n {
                            let vux = _mm256_loadu_pd(ux.as_ptr().add(x));
                            let vuy = _mm256_loadu_pd(uy.as_ptr().add(x));
                            let vuz = _mm256_loadu_pd(uz.as_ptr().add(x));
                            let vrho = _mm256_loadu_pd(rho.as_ptr().add(x));
                            let veb = _mm256_loadu_pd(ebase.as_ptr().add(x));
                            let fa = _mm256_loadu_pd(sa.add(x));
                            let fb = _mm256_loadu_pd(sb.add(x));

                            let cua = _mm256_fmadd_pd(
                                vcaz,
                                vuz,
                                _mm256_fmadd_pd(vcay, vuy, _mm256_mul_pd(vcax, vux)),
                            );
                            let inner_a = _mm256_fmadd_pd(
                                v3,
                                cua,
                                _mm256_fmadd_pd(v45, _mm256_mul_pd(cua, cua), veb),
                            );
                            let ta = _mm256_mul_pd(vtwa, vrho);
                            let out_a = _mm256_fmadd_pd(vom1, fa, _mm256_mul_pd(ta, inner_a));

                            let cub = _mm256_fmadd_pd(
                                vcbz,
                                vuz,
                                _mm256_fmadd_pd(vcby, vuy, _mm256_mul_pd(vcbx, vux)),
                            );
                            let inner_b = _mm256_fmadd_pd(
                                v3,
                                cub,
                                _mm256_fmadd_pd(v45, _mm256_mul_pd(cub, cub), veb),
                            );
                            let tb = _mm256_mul_pd(vtwb, vrho);
                            let out_b = _mm256_fmadd_pd(vom1, fb, _mm256_mul_pd(tb, inner_b));

                            _mm256_storeu_pd(da.add(x), out_a);
                            _mm256_storeu_pd(db.add(x), out_b);
                            x += LANES;
                        }
                        while x < n {
                            let fa = *sa.add(x);
                            let fb = *sb.add(x);
                            let cua = ca[2].mul_add(uz[x], ca[1].mul_add(uy[x], ca[0] * ux[x]));
                            let inner_a = 3.0f64.mul_add(cua, 4.5f64.mul_add(cua * cua, ebase[x]));
                            let ta = twa * rho[x];
                            let out_a = om1.mul_add(fa, ta * inner_a);
                            let cub = cb[2].mul_add(uz[x], cb[1].mul_add(uy[x], cb[0] * ux[x]));
                            let inner_b = 3.0f64.mul_add(cub, 4.5f64.mul_add(cub * cub, ebase[x]));
                            let tb = twb * rho[x];
                            let out_b = om1.mul_add(fb, tb * inner_b);
                            *da.add(x) = out_a;
                            *db.add(x) = out_b;
                            x += 1;
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
    use crate::boundary::{apply_boundaries, BoundaryParams};
    use crate::{avx, Collision};
    use trillium_field::{CellFlags, FlagField, FlagOps, PdfField};
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

    /// A fully enclosed no-slip box (ghost layer = wall).
    fn boxed_flags(shape: Shape) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, CellFlags::NOSLIP);
            }
        }
        flags
    }

    /// The transport sweep reads exactly what the pull kernel reads, so a
    /// single in-place step must be bitwise identical to one pull step —
    /// observed through the parity-mapped accessors.
    #[test]
    fn transport_sweep_matches_one_pull_step_bitwise() {
        let shape = Shape::new(13, 5, 4, 1); // odd nx exercises the tail
        let src = perturbed(shape);
        let rel = Relaxation::trt_from_tau(0.81, MAGIC_TRT);

        let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
        avx::stream_collide_trt(&src, &mut pull_dst, rel);

        let mut aa = src.clone();
        stream_collide_trt(&mut aa, rel);
        aa.set_parity(true);

        for (x, y, z) in shape.interior().iter() {
            for q in 0..19 {
                assert_eq!(
                    aa.get(x, y, z, q).to_bits(),
                    pull_dst.get(x, y, z, q).to_bits(),
                    "q={q} at ({x},{y},{z})"
                );
            }
        }
    }

    /// Multi-step equivalence through both parities, with the boundary
    /// sweep running through the parity-mapped accessors each step.
    fn multi_step_matches_pull(collision: Collision) {
        let shape = Shape::new(9, 6, 5, 1);
        let flags = boxed_flags(shape);
        let params = BoundaryParams { wall_velocity: [0.04, 0.0, -0.01], ..Default::default() };
        let rel = match collision {
            Collision::Srt => Relaxation::srt_from_tau(0.9),
            _ => Relaxation::trt_from_tau(0.85, MAGIC_TRT),
        };

        let mut pull_src = perturbed(shape);
        let mut pull_dst = SoaPdfField::<D3Q19>::new(shape);
        let mut aa = pull_src.clone();

        for step in 0..6u64 {
            apply_boundaries::<D3Q19, _>(&mut pull_src, &flags, &params);
            match collision {
                Collision::Trt => avx::stream_collide_trt(&pull_src, &mut pull_dst, rel),
                Collision::Srt => avx::stream_collide_srt(&pull_src, &mut pull_dst, rel),
                c => panic!("{c:?} not exercised by this test"),
            };
            pull_src.swap(&mut pull_dst);

            apply_boundaries::<D3Q19, _>(&mut aa, &flags, &params);
            match collision {
                Collision::Trt => stream_collide_trt(&mut aa, rel),
                Collision::Srt => stream_collide_srt(&mut aa, rel),
                c => panic!("{c:?} not exercised by this test"),
            };
            aa.set_parity(!aa.parity());

            for (x, y, z) in shape.interior().iter() {
                for q in 0..19 {
                    assert_eq!(
                        aa.get(x, y, z, q).to_bits(),
                        pull_src.get(x, y, z, q).to_bits(),
                        "step {step} q={q} at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn inplace_trt_matches_pull_over_both_parities() {
        multi_step_matches_pull(Collision::Trt);
    }

    #[test]
    fn inplace_srt_matches_pull_over_both_parities() {
        multi_step_matches_pull(Collision::Srt);
    }

    /// Region-partitioned sweeps (interior core + shell slabs, the overlap
    /// schedule's split) are bitwise identical to one full sweep — at both
    /// parities.
    #[test]
    fn region_partition_is_bitwise_identical() {
        let shape = Shape::new(11, 6, 5, 1);
        let rel = Relaxation::trt_from_tau(0.77, MAGIC_TRT);
        let mut whole = perturbed(shape);
        let mut split = whole.clone();

        for parity in [false, true] {
            whole.set_parity(parity);
            split.set_parity(parity);
            stream_collide_trt(&mut whole, rel);
            let mut cells =
                stream_collide_trt_region(&mut split, rel, &shape.interior_core(1)).cells;
            for r in shape.shell_regions(1) {
                cells += stream_collide_trt_region(&mut split, rel, &r).cells;
            }
            assert_eq!(cells, shape.interior_cells() as u64);
            assert_eq!(whole.data(), split.data(), "parity {parity}");
        }
    }
}
