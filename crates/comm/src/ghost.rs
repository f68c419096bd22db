//! Ghost-layer exchange for PDF fields between neighboring blocks.
//!
//! In every time step the ghost layer of each block is synchronized with
//! the boundary cells of its neighbors (paper §2.2). Only the PDFs that
//! actually stream across the shared boundary are transferred: for a face
//! link those whose velocity matches the link direction in the nonzero
//! axes (5 per cell for D3Q19), for an edge link exactly one, and none for
//! corner links — D3Q19 has no corner velocities, so corner messages are
//! never sent.
//!
//! The driver goes one step further than the paper, whose exchange "is
//! unaware of fluid lattice cells" (§4.3): each block holds
//! [`GhostLists`], the fluid cells of its 26 boundary and ghost slabs,
//! built once from its flags. Only those cells are sent or copied, so a
//! sparse block moves its fluid crossing values and nothing else, while a
//! fully fluid slab moves exactly what the dense exchange moves. Non-fluid
//! ghost cells keep stale values: no fluid cell reads them, because every
//! ghost cell a fluid cell pulls from is either fluid (and listed) or a
//! boundary cell whose link the boundary sweep rewrites after the
//! exchange.
//!
//! [`pack_face_with`] / [`unpack_face_with`] are the dense, layout-agnostic
//! reference: they move every slab cell through [`PdfField::get`] /
//! [`PdfField::set`] and byte buffers. [`pack_face_sparse`] is the
//! bitmap-headed fluid-aware ablation that prices per-step flag scans.

use bytes::{Buf, BufMut};
use trillium_field::{FlagField, FlagOps, PdfField, Shape, SoaPdfField};
use trillium_lattice::LatticeModel;

/// The directions whose PDFs must be transferred across a block link in
/// direction `d`: all `q` with `c_q[a] == d[a]` on every axis `a` where
/// `d[a] != 0`.
pub fn pdfs_crossing<M: LatticeModel>(d: [i8; 3]) -> Vec<usize> {
    (1..M::Q)
        .filter(|&q| {
            let c = M::velocities()[q];
            (0..3).all(|a| d[a] == 0 || c[a] == d[a])
        })
        .collect()
}

/// Position of direction `d` in the 27-entry per-direction tables,
/// `(d0+1)*9 + (d1+1)*3 + (d2+1)`; the center is entry 13.
#[inline(always)]
fn dir_entry(d: [i8; 3]) -> usize {
    (d[0] + 1) as usize * 9 + (d[1] + 1) as usize * 3 + (d[2] + 1) as usize
}

/// Precomputed [`pdfs_crossing`] sets for all 26 link directions.
///
/// `pdfs_crossing` allocates a fresh `Vec` per call; computing it once per
/// link per time step put a heap allocation on the ghost-exchange fast
/// path. Build this table once at setup and hand its slices to
/// [`pack_face_with`] / [`unpack_face_with`] instead.
#[derive(Clone, Debug)]
pub struct CrossingTable {
    /// Indexed by `(d0+1)*9 + (d1+1)*3 + (d2+1)`; the center entry is empty.
    sets: Vec<Vec<usize>>,
}

impl CrossingTable {
    /// Builds the table for lattice model `M`.
    pub fn new<M: LatticeModel>() -> Self {
        let mut sets = Vec::with_capacity(27);
        for dx in -1i8..=1 {
            for dy in -1i8..=1 {
                for dz in -1i8..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        sets.push(Vec::new());
                    } else {
                        sets.push(pdfs_crossing::<M>([dx, dy, dz]));
                    }
                }
            }
        }
        CrossingTable { sets }
    }

    /// The crossing-PDF set for link direction `d`.
    #[inline(always)]
    pub fn qs(&self, d: [i8; 3]) -> &[usize] {
        &self.sets[dir_entry(d)]
    }

    /// The crossing-PDF set for the *reversed* direction `-d` — the set
    /// [`unpack_face_with`] needs for data received from direction `d`.
    #[inline(always)]
    pub fn qs_reversed(&self, d: [i8; 3]) -> &[usize] {
        self.qs([-d[0], -d[1], -d[2]])
    }
}

/// Packs the PDFs crossing toward the neighbor in direction `d` from the
/// sender's boundary slab into `buf` (little-endian `f64`).
pub fn pack_face<M: LatticeModel, F: PdfField<M>>(f: &F, d: [i8; 3], buf: &mut Vec<u8>) {
    let qs = pdfs_crossing::<M>(d);
    pack_face_with::<M, F>(f, d, &qs, buf);
}

/// Allocation-free variant of [`pack_face`]: the caller supplies the
/// crossing set (from a [`CrossingTable`]) and a reusable buffer, which is
/// appended to (clear it first to reuse across steps).
pub fn pack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    d: [i8; 3],
    qs: &[usize],
    buf: &mut Vec<u8>,
) {
    let shape = f.shape();
    let region = shape.boundary_slab(d, shape.ghost);
    buf.reserve(region.num_cells() * qs.len() * 8);
    for (x, y, z) in region.iter() {
        for &q in qs {
            buf.put_f64_le(f.get(x, y, z, q));
        }
    }
}

/// Unpacks data received *from* the neighbor in direction `d` into the
/// receiver's ghost slab in direction `d`. The sender must have packed
/// with direction `-d`; cell order and PDF sets then match exactly.
pub fn unpack_face<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], data: &[u8]) {
    // The receiver needs the PDFs pointing from the ghost slab into the
    // interior, which are exactly those the sender packed with `-d`.
    let qs = pdfs_crossing::<M>([-d[0], -d[1], -d[2]]);
    unpack_face_with::<M, F>(f, d, &qs, data);
}

/// Allocation-free variant of [`unpack_face`]: the caller supplies the
/// *reversed* crossing set ([`CrossingTable::qs_reversed`] of `d`).
pub fn unpack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    d: [i8; 3],
    qs: &[usize],
    data: &[u8],
) {
    let shape = f.shape();
    let region = shape.ghost_slab(d, shape.ghost);
    assert_eq!(data.len(), region.num_cells() * qs.len() * 8, "ghost message size mismatch");
    let mut buf = data;
    for (x, y, z) in region.iter() {
        for &q in qs {
            f.set(x, y, z, q, buf.get_f64_le());
        }
    }
}

/// Packs only the PDFs of *fluid* cells in the boundary slab toward the
/// neighbor in direction `d`, preceded by a bitmap of which slab cells
/// are included, with [`unpack_face_sparse`] as its inverse. This is the
/// ablation reference of fluid-aware communication, which the paper
/// explicitly does *not* do ("our communication scheme is unaware of
/// fluid lattice cells", §4.3): it rescans the flags on every call and
/// ships the bitmap so the receiver needs no flags of its own. The driver
/// sends the same fluid values without either cost, through
/// [`GhostLists`] built once per block; `ablation_sparse_comm` prices the
/// two against the dense exchange.
pub fn pack_face_sparse<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    flags: &FlagField,
    d: [i8; 3],
    buf: &mut Vec<u8>,
) {
    let shape = f.shape();
    let region = shape.boundary_slab(d, shape.ghost);
    let qs = pdfs_crossing::<M>(d);
    // Bitmap header: one bit per slab cell, slab order.
    let ncells = region.num_cells();
    let mut bitmap = vec![0u8; ncells.div_ceil(8)];
    for (i, (x, y, z)) in region.iter().enumerate() {
        if flags.flags(x, y, z).is_fluid() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    for (x, y, z) in region.iter() {
        if flags.flags(x, y, z).is_fluid() {
            for &q in &qs {
                buf.put_f64_le(f.get(x, y, z, q));
            }
        }
    }
}

/// Unpacks a message produced by [`pack_face_sparse`] (sender direction
/// `-d`) into the ghost slab in direction `d`; ghost cells absent from
/// the bitmap keep their previous values.
pub fn unpack_face_sparse<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], data: &[u8]) {
    let shape = f.shape();
    let region = shape.ghost_slab(d, shape.ghost);
    let qs = pdfs_crossing::<M>([-d[0], -d[1], -d[2]]);
    let ncells = region.num_cells();
    let header = ncells.div_ceil(8);
    assert!(data.len() >= header, "sparse ghost message too short");
    let (bitmap, mut buf) = data.split_at(header);
    for (i, (x, y, z)) in region.iter().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            for &q in &qs {
                f.set(x, y, z, q, buf.get_f64_le());
            }
        }
    }
    assert!(buf.is_empty(), "sparse ghost message has trailing bytes");
}

/// The fluid slab lists of one block, the driver's ghost exchange.
///
/// For each of the 26 link directions `d` it holds two lists of linear
/// cell indices ([`Shape::idx`]), in slab iteration order:
/// - [`GhostLists::send`]`(d)`: the fluid cells of `boundary_slab(d)`,
///   whose crossing PDFs go to the neighbor in direction `d`;
/// - [`GhostLists::recv`]`(d)`: the fluid cells of `ghost_slab(d)`, written
///   with what that neighbor sends back.
///
/// The lists are a fixed function of the flag field, built once with the
/// block; they are derived state, like the boundary links. Transfers run
/// direction-major over the crossing set (`for q in qs { for i in list }`)
/// through the parity-mapped slot of [`SoaPdfField::dir_slot`], so
/// in-place blocks exchange correctly at both parities.
///
/// A transfer across a link pairs the sender's `send(d)` with the
/// receiver's `recv(−d)` cell by cell. That holds whenever both blocks
/// classify the shared cells alike (fluid or not); a disagreement shows as
/// a length mismatch, which panics instead of corrupting the ghost layer.
#[derive(Clone, Debug)]
pub struct GhostLists {
    shape: Shape,
    /// Every list, concatenated: send lists by direction slot, then recv.
    cells: Vec<u32>,
    /// List `k` is `cells[start[k]..start[k + 1]]`: send lists at
    /// `k = dir_entry(d)`, recv lists at `27 + dir_entry(d)`.
    start: [u32; 55],
}

impl GhostLists {
    /// Derives the lists from a flag field.
    pub fn build(flags: &FlagField) -> Self {
        let shape = flags.shape();
        assert!(shape.alloc_cells() <= u32::MAX as usize, "block too large for u32 cell indices");
        let mut cells = Vec::new();
        let mut start = [0u32; 55];
        for ghost_side in [false, true] {
            let base = if ghost_side { 27 } else { 0 };
            for k in 0..27 {
                let d = [(k / 9) as i8 - 1, (k / 3 % 3) as i8 - 1, (k % 3) as i8 - 1];
                if d != [0, 0, 0] {
                    let slab = if ghost_side {
                        shape.ghost_slab(d, shape.ghost)
                    } else {
                        shape.boundary_slab(d, shape.ghost)
                    };
                    for (x, y, z) in slab.iter() {
                        if flags.flags(x, y, z).is_fluid() {
                            cells.push(shape.idx(x, y, z) as u32);
                        }
                    }
                }
                start[base + k + 1] = cells.len() as u32;
            }
        }
        cells.shrink_to_fit();
        GhostLists { shape, cells, start }
    }

    fn list(&self, k: usize) -> &[u32] {
        &self.cells[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// Fluid cells of the boundary slab toward direction `d`.
    #[inline]
    pub fn send(&self, d: [i8; 3]) -> &[u32] {
        self.list(dir_entry(d))
    }

    /// Fluid cells of the ghost slab in direction `d`.
    #[inline]
    pub fn recv(&self, d: [i8; 3]) -> &[u32] {
        self.list(27 + dir_entry(d))
    }

    /// Appends the crossing PDFs `qs` ([`CrossingTable::qs`] of `d`) of the
    /// fluid cells in `send(d)` to `buf`, little-endian `f64`.
    pub fn pack<M: LatticeModel>(
        &self,
        f: &SoaPdfField<M>,
        d: [i8; 3],
        qs: &[usize],
        buf: &mut Vec<u8>,
    ) {
        assert_eq!(f.shape(), self.shape, "ghost lists were built for another block shape");
        let cells = self.send(d);
        let at = buf.len();
        buf.resize(at + qs.len() * cells.len() * 8, 0);
        let mut out = buf[at..].chunks_exact_mut(8);
        let data = f.data();
        for &q in qs {
            let (base, shift) = f.dir_slot(q);
            // `cells` leads the zip so the chunk iterator is never
            // advanced past the end of a direction.
            for (&i, o) in cells.iter().zip(out.by_ref()) {
                o.copy_from_slice(
                    &data[(base + i as usize).wrapping_add_signed(shift)].to_le_bytes(),
                );
            }
        }
    }

    /// Writes a message packed by the neighbor in direction `d` (which
    /// packed toward `−d`) into the fluid cells of `recv(d)`; `qs` is
    /// [`CrossingTable::qs_reversed`] of `d`.
    pub fn unpack<M: LatticeModel>(
        &self,
        f: &mut SoaPdfField<M>,
        d: [i8; 3],
        qs: &[usize],
        data: &[u8],
    ) {
        assert_eq!(f.shape(), self.shape, "ghost lists were built for another block shape");
        let cells = self.recv(d);
        assert_eq!(data.len(), qs.len() * cells.len() * 8, "ghost message size mismatch");
        let mut vals = data.chunks_exact(8);
        for &q in qs {
            let (base, shift) = f.dir_slot(q);
            let out = f.data_mut();
            for (&i, v) in cells.iter().zip(vals.by_ref()) {
                out[(base + i as usize).wrapping_add_signed(shift)] =
                    f64::from_le_bytes(v.try_into().expect("8-byte chunks"));
            }
        }
    }

    /// Same-process transfer without a byte buffer: copies the crossing
    /// PDFs `qs` ([`CrossingTable::qs`] of `d`) of `send(d)` in `src`
    /// straight into `dst`'s ghost cells `to.recv(−d)`, where `dst` is the
    /// neighbor of `src` in direction `d` and `to` its lists.
    pub fn copy_to<M: LatticeModel>(
        &self,
        src: &SoaPdfField<M>,
        d: [i8; 3],
        qs: &[usize],
        to: &GhostLists,
        dst: &mut SoaPdfField<M>,
    ) {
        assert_eq!(src.shape(), self.shape, "ghost lists were built for another block shape");
        assert_eq!(dst.shape(), to.shape, "ghost lists were built for another block shape");
        let (from, into) = (self.send(d), to.recv([-d[0], -d[1], -d[2]]));
        assert_eq!(from.len(), into.len(), "ghost list size mismatch across link");
        let data = src.data();
        for &q in qs {
            let (sbase, sshift) = src.dir_slot(q);
            let (dbase, dshift) = dst.dir_slot(q);
            let out = dst.data_mut();
            for (&i, &j) in from.iter().zip(into) {
                out[(dbase + j as usize).wrapping_add_signed(dshift)] =
                    data[(sbase + i as usize).wrapping_add_signed(sshift)];
            }
        }
    }

    /// Periodic self-transfer of one block: every fluid cell of the ghost
    /// slab `recv(−d)` takes the crossing PDFs `qs` ([`CrossingTable::qs`]
    /// of `d`) of the interior cell it wraps around to, one block extent
    /// along `d` — exactly what a dense pack toward `d` unpacked into the
    /// opposite slab writes there. The source cell is found by position,
    /// not by pairing with `send(d)`, so a block may be periodic along an
    /// axis whose ghost layer also carries walls.
    pub fn wrap<M: LatticeModel>(&self, f: &mut SoaPdfField<M>, d: [i8; 3], qs: &[usize]) {
        assert_eq!(f.shape(), self.shape, "ghost lists were built for another block shape");
        let s = self.shape;
        let extent = d[0] as isize * s.nx as isize
            + d[1] as isize * (s.ny * s.stride_y()) as isize
            + d[2] as isize * (s.nz * s.stride_z()) as isize;
        let into = self.recv([-d[0], -d[1], -d[2]]);
        for &q in qs {
            let (base, shift) = f.dir_slot(q);
            let data = f.data_mut();
            for &j in into {
                // Reads logical interior values and writes logical ghost
                // values; the parity map is one-to-one, so no slot is both.
                let to = (base + j as usize).wrapping_add_signed(shift);
                data[to] = data[to.wrapping_add_signed(extent)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{AosPdfField, Shape};
    use trillium_lattice::{d3q19::dir, D3Q19};

    #[test]
    fn crossing_sets_have_paper_sizes() {
        // Face: 5 PDFs, edge: 1 PDF, corner: 0 PDFs for D3Q19.
        assert_eq!(pdfs_crossing::<D3Q19>([1, 0, 0]).len(), 5);
        assert_eq!(pdfs_crossing::<D3Q19>([0, -1, 0]).len(), 5);
        assert_eq!(pdfs_crossing::<D3Q19>([1, 1, 0]).len(), 1);
        assert_eq!(pdfs_crossing::<D3Q19>([-1, 0, 1]).len(), 1);
        assert_eq!(pdfs_crossing::<D3Q19>([1, 1, 1]).len(), 0);
        // The face set for +x is exactly the east-pointing PDFs.
        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for q in [dir::E, dir::NE, dir::SE, dir::TE, dir::BE] {
            assert!(qs.contains(&q));
        }
    }

    /// Two blocks side by side in x: pack/unpack must place block A's east
    /// boundary PDFs into block B's west ghost cells so B's pull gets them.
    #[test]
    fn pack_unpack_transfers_boundary_to_ghost() {
        let shape = Shape::cube(4);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        let mut b = AosPdfField::<D3Q19>::new(shape);
        // Tag A's east boundary cells with recognizable values.
        for (x, y, z) in shape.boundary_slab([1, 0, 0], 1).iter() {
            for q in 0..19 {
                a.set(x, y, z, q, 1000.0 + (y * 4 + z) as f64 + q as f64 * 0.01);
            }
        }
        // A is B's neighbor in direction −x: A packs toward +x.
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 0, 0], &mut buf);
        unpack_face::<D3Q19, _>(&mut b, [-1, 0, 0], &buf);

        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            for &q in &qs {
                // B's ghost cell (−1, y, z) mirrors A's boundary (3, y, z).
                assert_eq!(b.get(x, y, z, q), a.get(3, y, z, q), "q={q} at ({x},{y},{z})");
            }
            // PDFs not crossing stay untouched.
            assert_eq!(b.get(x, y, z, dir::W), 0.0);
        }
    }

    /// Ghost exchange across an *edge* link (D3Q19: exactly one PDF per
    /// cell) and a *corner* link (D3Q19: nothing; D3Q27: one PDF). Edge
    /// and corner slabs are thin — one cell line / one cell — and index
    /// bugs there don't show up in face-only tests.
    #[test]
    fn edge_and_corner_links_transfer_exactly_their_pdfs() {
        use trillium_lattice::{LatticeModel, D3Q27};
        let shape = Shape::cube(4);

        // --- edge [1, 1, 0] on D3Q19: the single NE-pointing PDF -------
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, (x + 10 * y + 100 * z) as f64 + 0.001 * q as f64);
            }
        }
        let mut b = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 0], &mut buf);
        // The edge slab is a 1×1×4 line of cells carrying one PDF each.
        assert_eq!(buf.len(), 4 * 8);
        unpack_face::<D3Q19, _>(&mut b, [-1, -1, 0], &buf);
        let qs = pdfs_crossing::<D3Q19>([1, 1, 0]);
        assert_eq!(qs, vec![dir::NE]);
        let sslab = shape.boundary_slab([1, 1, 0], 1);
        let gslab = shape.ghost_slab([-1, -1, 0], 1);
        for ((sx, sy, sz), (gx, gy, gz)) in sslab.iter().zip(gslab.iter()) {
            assert_eq!(b.get(gx, gy, gz, dir::NE), a.get(sx, sy, sz, dir::NE));
            // Everything else in the ghost cell stays zero.
            for q in (0..19).filter(|&q| q != dir::NE) {
                assert_eq!(b.get(gx, gy, gz, q), 0.0, "q={q} leaked across the edge");
            }
        }

        // --- corner [1, 1, 1] ------------------------------------------
        // D3Q19 has no corner velocities: the message is empty.
        assert!(pdfs_crossing::<D3Q19>([1, 1, 1]).is_empty());
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 1], &mut buf);
        assert!(buf.is_empty(), "D3Q19 corner message must carry nothing");

        // D3Q27 has one: the (1,1,1) velocity, for the single corner cell.
        let q27 = pdfs_crossing::<D3Q27>([1, 1, 1]);
        assert_eq!(q27.len(), 1);
        assert_eq!(D3Q27::velocities()[q27[0]], [1, 1, 1]);
        let mut a27 = AosPdfField::<D3Q27>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..27 {
                a27.set(x, y, z, q, (x + 10 * y + 100 * z) as f64 + 0.001 * q as f64);
            }
        }
        let mut b27 = AosPdfField::<D3Q27>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q27, _>(&a27, [1, 1, 1], &mut buf);
        assert_eq!(buf.len(), 8, "one corner cell, one PDF");
        unpack_face::<D3Q27, _>(&mut b27, [-1, -1, -1], &buf);
        // Corner boundary cell (3,3,3) lands in ghost cell (−1,−1,−1).
        assert_eq!(b27.get(-1, -1, -1, q27[0]), a27.get(3, 3, 3, q27[0]));
        let others = (0..27).filter(|&q| q != q27[0]);
        for q in others {
            assert_eq!(b27.get(-1, -1, -1, q), 0.0, "q={q} leaked across the corner");
        }
    }

    /// Sparse packing transfers exactly the fluid cells' PDFs and leaves
    /// other ghost values untouched; on a fully fluid slab it matches the
    /// dense path values.
    #[test]
    fn sparse_pack_unpack_matches_dense_on_fluid() {
        use trillium_field::{CellFlags, FlagField, FlagOps};
        let shape = Shape::cube(4);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, (x + 5 * y + 25 * z) as f64 + 0.01 * q as f64);
            }
        }
        // Half the east boundary slab is fluid.
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.boundary_slab([1, 0, 0], 1).iter() {
            if (y + z) % 2 == 0 {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let mut sparse = Vec::new();
        pack_face_sparse::<D3Q19, _>(&a, &flags, [1, 0, 0], &mut sparse);
        let mut dense = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 0, 0], &mut dense);
        // 8 of 16 slab cells are fluid: payload halves (plus 2 bitmap bytes).
        assert_eq!(sparse.len(), 2 + dense.len() / 2);

        // Receiver: pre-fill ghosts with a sentinel, then unpack.
        let mut b = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            for q in 0..19 {
                b.set(x, y, z, q, -7.0);
            }
        }
        unpack_face_sparse::<D3Q19, _>(&mut b, [-1, 0, 0], &sparse);
        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            let fluid = (y + z) % 2 == 0;
            for &q in &qs {
                if fluid {
                    assert_eq!(b.get(x, y, z, q), a.get(3, y, z, q));
                } else {
                    assert_eq!(b.get(x, y, z, q), -7.0, "non-fluid ghost must keep its value");
                }
            }
        }
    }

    /// The precomputed table must agree with `pdfs_crossing` for every
    /// link direction, in both orientations.
    #[test]
    fn crossing_table_matches_per_call_computation() {
        let table = CrossingTable::new::<D3Q19>();
        for dx in -1i8..=1 {
            for dy in -1i8..=1 {
                for dz in -1i8..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        assert!(table.qs([0, 0, 0]).is_empty());
                        continue;
                    }
                    let d = [dx, dy, dz];
                    assert_eq!(table.qs(d), pdfs_crossing::<D3Q19>(d).as_slice());
                    assert_eq!(
                        table.qs_reversed(d),
                        pdfs_crossing::<D3Q19>([-dx, -dy, -dz]).as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_link_sends_single_pdf() {
        let shape = Shape::cube(3);
        let a = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 0], &mut buf);
        // 3 cells along the edge × 1 PDF × 8 bytes.
        assert_eq!(buf.len(), 3 * 8);
    }

    #[test]
    fn corner_link_sends_nothing() {
        let shape = Shape::cube(3);
        let a = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, -1, 1], &mut buf);
        assert!(buf.is_empty());
    }

    /// A fluid pattern fixed in global cell coordinates, so two blocks
    /// classify the cells they share alike (as voxelization does).
    fn fluid_at(g: [i32; 3]) -> bool {
        let h = (g[0] * 73_856_093) ^ (g[1] * 19_349_663) ^ (g[2] * 83_492_791);
        h.rem_euclid(5) > 1
    }

    fn patterned_flags(shape: Shape, origin: [i32; 3]) -> FlagField {
        use trillium_field::CellFlags;
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            let fluid = fluid_at([origin[0] + x, origin[1] + y, origin[2] + z]);
            flags.set_flags(x, y, z, if fluid { CellFlags::FLUID } else { CellFlags::NOSLIP });
        }
        flags
    }

    fn numbered_field(shape: Shape, offset: f64) -> SoaPdfField<D3Q19> {
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = offset + i as f64;
        }
        f
    }

    #[test]
    fn ghost_lists_hold_the_fluid_slab_cells_in_slab_order() {
        let shape = Shape::new(5, 4, 6, 1);
        let flags = patterned_flags(shape, [3, -2, 7]);
        let lists = GhostLists::build(&flags);
        let fluid_of = |r: trillium_field::Region| -> Vec<u32> {
            r.iter()
                .filter(|&(x, y, z)| flags.flags(x, y, z).is_fluid())
                .map(|(x, y, z)| shape.idx(x, y, z) as u32)
                .collect()
        };
        let mut total = 0;
        for k in (0..27).filter(|&k| k != 13) {
            let d = [(k / 9) as i8 - 1, (k / 3 % 3) as i8 - 1, (k % 3) as i8 - 1];
            assert_eq!(lists.send(d), fluid_of(shape.boundary_slab(d, 1)).as_slice(), "{d:?}");
            assert_eq!(lists.recv(d), fluid_of(shape.ghost_slab(d, 1)).as_slice(), "{d:?}");
            total += lists.send(d).len();
        }
        assert!(total > 0 && total < shape.alloc_cells(), "pattern must be mixed");
    }

    /// Across every link direction and at both in-place parities, the list
    /// pack/unpack and the direct copy write exactly what the dense
    /// `pack_face_with`/`unpack_face_with` write on every fluid ghost cell,
    /// and leave every other value alone.
    #[test]
    fn list_transfers_equal_the_dense_exchange_on_fluid_ghost_cells() {
        let shape = Shape::new(5, 4, 6, 1);
        let table = CrossingTable::new::<D3Q19>();
        let ext = [shape.nx as i32, shape.ny as i32, shape.nz as i32];
        let a_flags = patterned_flags(shape, [0, 0, 0]);
        let a_lists = GhostLists::build(&a_flags);
        for k in (0..27).filter(|&k| k != 13) {
            let d = [(k / 9) as i8 - 1, (k / 3 % 3) as i8 - 1, (k % 3) as i8 - 1];
            let rev = [-d[0], -d[1], -d[2]];
            // B is A's neighbor in direction d.
            let origin = [d[0] as i32 * ext[0], d[1] as i32 * ext[1], d[2] as i32 * ext[2]];
            let b_flags = patterned_flags(shape, origin);
            let b_lists = GhostLists::build(&b_flags);
            assert_eq!(a_lists.send(d).len(), b_lists.recv(rev).len());
            for parity in [false, true] {
                let mut a = numbered_field(shape, 0.5);
                let mut b = numbered_field(shape, 1.0e6);
                a.set_parity(parity);
                b.set_parity(parity);

                let mut dense = b.clone();
                let mut buf = Vec::new();
                pack_face_with::<D3Q19, _>(&a, d, table.qs(d), &mut buf);
                unpack_face_with::<D3Q19, _>(&mut dense, rev, table.qs_reversed(rev), &buf);

                let mut listed = b.clone();
                let mut msg = Vec::new();
                a_lists.pack(&a, d, table.qs(d), &mut msg);
                assert_eq!(msg.len(), table.qs(d).len() * a_lists.send(d).len() * 8);
                b_lists.unpack(&mut listed, rev, table.qs_reversed(rev), &msg);

                let mut copied = b.clone();
                a_lists.copy_to(&a, d, table.qs(d), &b_lists, &mut copied);
                assert!(copied.data() == listed.data(), "copy differs from message, {d:?}");

                // Expected storage: B untouched except the crossing PDFs
                // of its fluid ghost cells, which take the dense values.
                let mut want = b.data().to_vec();
                for (x, y, z) in shape.ghost_slab(rev, 1).iter() {
                    if b_flags.flags(x, y, z).is_fluid() {
                        for &q in table.qs(d) {
                            let (base, shift) = b.dir_slot(q);
                            let slot = (base + shape.idx(x, y, z)).wrapping_add_signed(shift);
                            want[slot] = dense.get(x, y, z, q);
                        }
                    }
                }
                assert!(listed.data() == want.as_slice(), "{d:?} parity {parity}");
            }
        }
    }

    /// The periodic self-transfer equals a dense pack toward `d` unpacked
    /// into the opposite ghost slab on every fluid ghost cell, and leaves
    /// wall ghost cells alone — also along an axis that is periodic and
    /// walled at once.
    #[test]
    fn periodic_wrap_equals_dense_round_trip_on_fluid_ghost_cells() {
        use trillium_field::CellFlags;
        let shape = Shape::new(4, 5, 3, 1);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            // A wall below −y only; everything else fluid.
            let wall = y < 0;
            flags.set_flags(x, y, z, if wall { CellFlags::NOSLIP } else { CellFlags::FLUID });
        }
        let lists = GhostLists::build(&flags);
        let table = CrossingTable::new::<D3Q19>();
        for k in (0..27).filter(|&k| k != 13) {
            let d = [(k / 9) as i8 - 1, (k / 3 % 3) as i8 - 1, (k % 3) as i8 - 1];
            let rev = [-d[0], -d[1], -d[2]];
            for parity in [false, true] {
                let mut f = numbered_field(shape, 2.0);
                f.set_parity(parity);
                let mut dense = f.clone();
                let mut buf = Vec::new();
                pack_face_with::<D3Q19, _>(&dense, d, table.qs(d), &mut buf);
                unpack_face_with::<D3Q19, _>(&mut dense, rev, table.qs_reversed(rev), &buf);
                let mut want = f.data().to_vec();
                for (x, y, z) in shape.ghost_slab(rev, 1).iter() {
                    if flags.flags(x, y, z).is_fluid() {
                        for &q in table.qs(d) {
                            let (base, shift) = f.dir_slot(q);
                            let slot = (base + shape.idx(x, y, z)).wrapping_add_signed(shift);
                            want[slot] = dense.get(x, y, z, q);
                        }
                    }
                }
                lists.wrap(&mut f, d, table.qs(d));
                assert!(f.data() == want.as_slice(), "{d:?} parity {parity}");
            }
        }
    }
}
