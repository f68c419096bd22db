//! Boundary conditions: no-slip bounce back, velocity bounce back and
//! pressure anti bounce back (paper §2.1, referencing Ginzburg et al.).
//!
//! # Realization
//!
//! All compute kernels in this crate pull unconditionally from all 19
//! neighbors. Boundary conditions are realized by a *preparatory sweep*
//! that runs before the compute sweep of each time step: for every boundary
//! cell `w` and every direction `q` whose target `w + c_q` is an interior
//! fluid cell, the preparatory sweep writes into `f[w][q]` exactly the
//! value the fluid cell must receive when it pulls direction `q` from `w`:
//!
//! * **no slip**: `f[w][q] = f̃[x][q̄]` — plain reflection of the fluid
//!   cell's post-collision PDF,
//! * **velocity bounce back** (wall moving with `u_w`):
//!   `f[w][q] = f̃[x][q̄] + 6 w_q ρ₀ (c_q · u_w)` with `ρ₀ = 1`,
//! * **pressure anti bounce back** (prescribed wall density `ρ_w`):
//!   `f[w][q] = −f̃[x][q̄] + 2 f^{eq+}_q(ρ_w, u_x)` where `f^{eq+}` is the
//!   symmetric equilibrium part and `u_x` the fluid neighbor's velocity.
//!
//! Each `(w, q)` pair serves exactly one fluid target, so the assignment is
//! well defined even when one wall cell borders several fluid cells.
//! Because the hull of the fluid region is computed with a morphological
//! dilation w.r.t. the stencil (paper §2.3), every pull of a fluid cell hits
//! either a fluid or a boundary cell — never an unclassified one.

use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, Shape};
use trillium_lattice::equilibrium::equilibrium_even;
use trillium_lattice::LatticeModel;

/// Parameters of the boundary conditions of one block.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BoundaryParams {
    /// Wall velocity for [`CellFlags::VELOCITY`] cells (lattice units).
    pub wall_velocity: [f64; 3],
    /// Prescribed density for [`CellFlags::PRESSURE`] cells.
    pub pressure_density: f64,
    /// Prescribed density for [`CellFlags::PRESSURE_ALT`] cells (second
    /// opening, e.g. the outlet of a pressure-driven channel).
    pub pressure_density_alt: f64,
}

impl Default for BoundaryParams {
    fn default() -> Self {
        BoundaryParams { wall_velocity: [0.0; 3], pressure_density: 1.0, pressure_density_alt: 1.0 }
    }
}

/// The wall cells of one half of a block (interior or ghost layer) that
/// own at least one boundary link, in scan order (ascending linear index).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct WallCells {
    /// Linear index of each wall cell ([`Shape::idx`]).
    cell: Vec<u32>,
    /// The wall cell's flags; they select the boundary condition.
    flags: Vec<u8>,
    /// Bit `q` is set for every link `(w, q)` of the wall cell.
    dirs: Vec<u32>,
}

impl WallCells {
    fn len(&self) -> usize {
        self.cell.len()
    }

    fn links(&self) -> usize {
        self.dirs.iter().map(|d| d.count_ones() as usize).sum()
    }
}

/// The directions `q` whose bits are set in `dirs`, ascending.
#[inline(always)]
fn directions(mut dirs: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (dirs != 0).then(|| {
            let q = dirs.trailing_zeros() as usize;
            dirs &= dirs - 1;
            q
        })
    })
}

/// The boundary links of one block: every `(wall cell w, direction q)`
/// whose target `w + c_q` is an interior fluid cell — exactly the PDFs the
/// preparatory boundary sweep writes each step.
///
/// The links are a fixed function of the flag field, so a block builds
/// them once and the per-step sweeps walk them instead of scanning every
/// cell and flag. They are stored per wall cell — linear index (`u32`),
/// flags (`u8`) and a bit set of its link directions (`u32`), 9 bytes per
/// wall cell — with interior-coordinate walls (obstacles) and ghost-layer
/// walls in separate lists, so each half of the overlapped schedule
/// iterates only its own links. Within a list the wall cells keep the
/// scan order of the flag field and the directions ascend, the order in
/// which [`BoundaryLinks::momentum_exchange_force`] must sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryLinks {
    shape: Shape,
    /// Velocity-set size of the model the links were built for.
    q: usize,
    interior: WallCells,
    ghost: WallCells,
}

impl BoundaryLinks {
    /// Derives the links of lattice model `M` from a flag field: the only
    /// place that scans the flags.
    pub fn build<M: LatticeModel>(flags: &FlagField) -> Self {
        assert!(M::Q <= 32, "direction bit sets hold at most 32 directions");
        let shape = flags.shape();
        assert!(shape.alloc_cells() <= u32::MAX as usize, "block too large for u32 cell indices");
        let mut links = BoundaryLinks {
            shape,
            q: M::Q,
            interior: WallCells::default(),
            ghost: WallCells::default(),
        };
        for (wx, wy, wz) in shape.with_ghosts().iter() {
            let flag = flags.flags(wx, wy, wz);
            if !flag.is_boundary() {
                continue;
            }
            let mut dirs = 0u32;
            for q in 1..M::Q {
                let c = M::velocities()[q];
                let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
                if shape.is_interior(tx, ty, tz) && flags.flags(tx, ty, tz).is_fluid() {
                    dirs |= 1 << q;
                }
            }
            if dirs == 0 {
                continue;
            }
            let half =
                if shape.is_interior(wx, wy, wz) { &mut links.interior } else { &mut links.ghost };
            half.cell.push(shape.idx(wx, wy, wz) as u32);
            half.flags.push(flag.0);
            half.dirs.push(dirs);
        }
        // The lists live as long as the block: drop the growth slack.
        for half in [&mut links.interior, &mut links.ghost] {
            half.cell.shrink_to_fit();
            half.flags.shrink_to_fit();
            half.dirs.shrink_to_fit();
        }
        links
    }

    /// Total number of links.
    pub fn len(&self) -> usize {
        self.interior.links() + self.ghost.links()
    }

    /// True when the block has no boundary link at all.
    pub fn is_empty(&self) -> bool {
        self.interior.len() + self.ghost.len() == 0
    }

    /// The links `(w, q)` of wall cells at interior coordinates, in scan
    /// order, as `(linear index of w, q)`.
    pub fn interior_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        Self::expand(&self.interior)
    }

    /// The links of wall cells in the ghost layer, in scan order.
    pub fn ghost_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        Self::expand(&self.ghost)
    }

    fn expand(cells: &WallCells) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..cells.len())
            .flat_map(move |i| directions(cells.dirs[i]).map(move |q| (cells.cell[i] as usize, q)))
    }

    /// Runs the preparatory boundary sweep on `f`: both halves.
    pub fn apply<M: LatticeModel, F: PdfField<M>>(&self, f: &mut F, params: &BoundaryParams) {
        self.apply_interior::<M, F>(f, params);
        self.apply_ghost::<M, F>(f, params);
    }

    /// The sweep over the links of interior-coordinate wall cells; see
    /// [`apply_boundaries_interior`].
    pub fn apply_interior<M: LatticeModel, F: PdfField<M>>(
        &self,
        f: &mut F,
        params: &BoundaryParams,
    ) {
        self.apply_cells::<M, F>(&self.interior, f, params)
    }

    /// The sweep over the links of ghost-layer wall cells; see
    /// [`apply_boundaries_ghost`].
    pub fn apply_ghost<M: LatticeModel, F: PdfField<M>>(&self, f: &mut F, params: &BoundaryParams) {
        self.apply_cells::<M, F>(&self.ghost, f, params)
    }

    fn check<M: LatticeModel>(&self, shape: Shape) {
        assert_eq!(shape, self.shape, "links were built for another block shape");
        assert_eq!(M::Q, self.q, "links were built for another lattice model");
    }

    fn apply_cells<M: LatticeModel, F: PdfField<M>>(
        &self,
        cells: &WallCells,
        f: &mut F,
        params: &BoundaryParams,
    ) {
        self.check::<M>(f.shape());
        let mut fluid_pdfs = [0.0; 32];
        for i in 0..cells.len() {
            let (wx, wy, wz) = self.shape.coords(cells.cell[i] as usize);
            let flag = CellFlags(cells.flags[i]);
            let target = |q: usize| {
                let c = M::velocities()[q];
                (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32)
            };
            // One branch per wall cell selects the condition; the link
            // loops below run branch-free over its directions.
            if flag.intersects(CellFlags::NOSLIP) {
                for q in directions(cells.dirs[i]) {
                    let (tx, ty, tz) = target(q);
                    let reflected = f.get(tx, ty, tz, M::inv(q));
                    f.set(wx, wy, wz, q, reflected);
                }
            } else if flag.intersects(CellFlags::VELOCITY) {
                for q in directions(cells.dirs[i]) {
                    let c = M::velocities()[q];
                    let (tx, ty, tz) = target(q);
                    let reflected = f.get(tx, ty, tz, M::inv(q));
                    let cu = c[0] as f64 * params.wall_velocity[0]
                        + c[1] as f64 * params.wall_velocity[1]
                        + c[2] as f64 * params.wall_velocity[2];
                    f.set(wx, wy, wz, q, reflected + 6.0 * M::w(q) * cu);
                }
            } else {
                // PRESSURE / PRESSURE_ALT: anti bounce back against the
                // symmetric equilibrium at the prescribed density and the
                // fluid neighbor's velocity.
                let rho_w = if flag.intersects(CellFlags::PRESSURE) {
                    params.pressure_density
                } else {
                    params.pressure_density_alt
                };
                for q in directions(cells.dirs[i]) {
                    let (tx, ty, tz) = target(q);
                    let reflected = f.get(tx, ty, tz, M::inv(q));
                    f.get_cell(tx, ty, tz, &mut fluid_pdfs[..M::Q]);
                    let u = trillium_lattice::velocity::<M>(&fluid_pdfs[..M::Q]);
                    f.set(wx, wy, wz, q, -reflected + 2.0 * equilibrium_even::<M>(q, rho_w, u));
                }
            }
        }
    }

    /// Momentum-exchange force on the wall cells matched by `mask`; see
    /// [`momentum_exchange_force`]. Sums over the links in scan order (the
    /// two halves merged by linear index), so the result is bitwise that
    /// of a scan over the flag field.
    pub fn momentum_exchange_force<M: LatticeModel, F: PdfField<M>>(
        &self,
        f: &F,
        mask: CellFlags,
    ) -> [f64; 3] {
        self.check::<M>(f.shape());
        let mut force = [0.0; 3];
        let (a, b) = (&self.interior, &self.ghost);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let (cells, k) = if j == b.len() || (i < a.len() && a.cell[i] < b.cell[j]) {
                i += 1;
                (a, i - 1)
            } else {
                j += 1;
                (b, j - 1)
            };
            if !CellFlags(cells.flags[k]).intersects(mask) {
                continue;
            }
            let (wx, wy, wz) = self.shape.coords(cells.cell[k] as usize);
            for q in directions(cells.dirs[k]) {
                let c = M::velocities()[q];
                let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
                let qi = M::inv(q); // fluid-to-wall direction
                let outgoing = f.get(tx, ty, tz, qi); // f̃_{q̄}(x): leaves toward the wall
                let incoming = f.get(wx, wy, wz, q); // f_q(x, t+Δt): comes back
                let ci = M::velocities()[qi];
                for d in 0..3 {
                    force[d] += (outgoing + incoming) * ci[d] as f64;
                }
            }
        }
        force
    }
}

/// Runs the preparatory boundary sweep on the (source) field `f`.
///
/// Must be called after ghost-layer synchronization and before the
/// stream–collide sweep of every time step. Builds the [`BoundaryLinks`]
/// of `flags` and applies them; a block that sweeps every step keeps its
/// links instead.
pub fn apply_boundaries<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    flags: &FlagField,
    params: &BoundaryParams,
) {
    BoundaryLinks::build::<M>(flags).apply::<M, F>(f, params)
}

/// The preparatory sweep restricted to wall cells at *interior*
/// coordinates (in-block obstacles). These cells are never written by
/// ghost-layer unpacking, and every value written depends only on interior
/// fluid PDFs, so this half can run before ghost synchronization
/// completes — the boundary-prep part of the communication-hiding step.
pub fn apply_boundaries_interior<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    flags: &FlagField,
    params: &BoundaryParams,
) {
    BoundaryLinks::build::<M>(flags).apply_interior::<M, F>(f, params)
}

/// The preparatory sweep restricted to wall cells in the *ghost layer*
/// (domain hull and remote wall slabs). Must run after ghost unpacking:
/// on wall cells inside exchanged slabs the boundary value overwrites the
/// neighbor's PDFs, exactly as in the synchronous step order. Together
/// with [`apply_boundaries_interior`] this visits every wall cell that
/// [`apply_boundaries`] visits, exactly once, writing bitwise the same
/// values (each `(w, q)` write depends only on interior fluid PDFs, which
/// neither half modifies).
pub fn apply_boundaries_ghost<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    flags: &FlagField,
    params: &BoundaryParams,
) {
    BoundaryLinks::build::<M>(flags).apply_ghost::<M, F>(f, params)
}

/// Momentum-exchange force on the boundary cells matched by `mask`
/// (Ladd's momentum-exchange algorithm): for every bounce-back link from
/// a fluid cell `x` toward a wall cell `w` (fluid-to-wall direction `q̄`),
/// the momentum handed to the wall per time step is
/// `(f̃_{q̄}(x) + f_q(x, t+Δt)) c_{q̄}`. Must be called *after*
/// [`apply_boundaries`] (the wall cells then hold the post-streaming
/// values the fluid will pull) and before the compute sweep.
///
/// Returns the force in lattice units (momentum per time step). Used for
/// drag/lift evaluation on obstacles and walls — the quantity a coupled
/// rigid-body engine (the paper's `pe`) consumes.
pub fn momentum_exchange_force<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    flags: &FlagField,
    mask: CellFlags,
) -> [f64; 3] {
    BoundaryLinks::build::<M>(flags).momentum_exchange_force::<M, F>(f, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic;
    use trillium_field::AosPdfField;
    use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

    /// Builds a fully enclosed box: interior all fluid, the ghost layer is
    /// the wall.
    fn boxed_flags(shape: Shape, wall: CellFlags) -> FlagField {
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.interior().iter() {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        for (x, y, z) in shape.with_ghosts().iter() {
            if !shape.is_interior(x, y, z) {
                flags.set_flags(x, y, z, wall);
            }
        }
        flags
    }

    fn step(
        src: &mut AosPdfField<D3Q19>,
        dst: &mut AosPdfField<D3Q19>,
        flags: &FlagField,
        params: &BoundaryParams,
        rel: Relaxation,
    ) {
        apply_boundaries::<D3Q19, _>(src, flags, params);
        generic::stream_collide_trt(src, dst, rel);
        src.swap(dst);
    }

    /// A closed box of resting fluid with no-slip walls must stay exactly
    /// at rest and conserve mass to round-off.
    #[test]
    fn resting_fluid_in_noslip_box_is_invariant() {
        let shape = Shape::cube(6);
        let flags = boxed_flags(shape, CellFlags::NOSLIP);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams::default();
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let mass0 = src.total_mass();
        for _ in 0..20 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        assert!((src.total_mass() - mass0).abs() < 1e-10);
        for (x, y, z) in shape.interior().iter() {
            let u = src.velocity(x, y, z);
            for d in 0..3 {
                assert!(u[d].abs() < 1e-13, "spurious velocity {u:?} at ({x},{y},{z})");
            }
        }
    }

    /// No-slip bounce back conserves mass even for moving fluid.
    #[test]
    fn noslip_box_conserves_mass_with_flow() {
        let shape = Shape::cube(6);
        let flags = boxed_flags(shape, CellFlags::NOSLIP);
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        // Put a velocity bump in the middle.
        let mut feq = [0.0; 19];
        trillium_lattice::equilibrium_all::<D3Q19>(1.0, [0.05, 0.02, -0.01], &mut feq);
        src.set_cell(3, 3, 3, &feq);
        let params = BoundaryParams::default();
        let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);
        let mass0 = src.total_mass();
        for _ in 0..50 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        assert!(
            (src.total_mass() - mass0).abs() / mass0 < 1e-12,
            "mass drifted: {} -> {}",
            mass0,
            src.total_mass()
        );
    }

    /// A box whose lid moves tangentially (velocity bounce back) must drag
    /// the fluid: after some steps the cells near the lid move in the lid
    /// direction.
    #[test]
    fn moving_lid_drags_fluid() {
        let shape = Shape::cube(8);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        // Lid: top ghost plane (z = 8) drives in +x.
        for x in -1..=(shape.nx as i32) {
            for y in -1..=(shape.ny as i32) {
                flags.set_flags(x, y, shape.nz as i32, CellFlags::VELOCITY);
            }
        }
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        for _ in 0..100 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        // Fluid just below the lid follows the lid.
        let u_top = src.velocity(4, 4, 7);
        assert!(u_top[0] > 1e-3, "lid did not drag fluid: {u_top:?}");
        // Fluid at the bottom moves much less.
        let u_bot = src.velocity(4, 4, 0);
        assert!(u_top[0] > 5.0 * u_bot[0].abs());
    }

    /// The split preparatory sweep (interior wall cells, then ghost-layer
    /// wall cells) must write bitwise the same field as the single full
    /// sweep — in either order, since all writes depend only on fluid
    /// PDFs. This is the property the overlapped driver relies on.
    #[test]
    fn split_boundary_sweep_is_bitwise_identical() {
        let shape = Shape::cube(6);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        // An interior obstacle so the interior half is non-trivial.
        flags.set_flags(2, 3, 3, CellFlags::NOSLIP);
        flags.set_flags(3, 3, 3, CellFlags::VELOCITY);
        // A pressure opening on one ghost face.
        for y in -1..=(shape.ny as i32) {
            for z in -1..=(shape.nz as i32) {
                flags.set_flags(-1, y, z, CellFlags::PRESSURE);
            }
        }
        let mut full = AosPdfField::<D3Q19>::new(shape);
        full.fill_equilibrium(1.0, [0.0; 3]);
        for (i, v) in full.data_mut().iter_mut().enumerate() {
            *v += 1e-4 * (((i * 2654435761) % 997) as f64 / 997.0 - 0.5);
        }
        let mut split_a = full.clone();
        let mut split_b = full.clone();
        let params = BoundaryParams {
            wall_velocity: [0.03, -0.01, 0.0],
            pressure_density: 1.02,
            ..Default::default()
        };
        apply_boundaries::<D3Q19, _>(&mut full, &flags, &params);
        apply_boundaries_interior::<D3Q19, _>(&mut split_a, &flags, &params);
        apply_boundaries_ghost::<D3Q19, _>(&mut split_a, &flags, &params);
        apply_boundaries_ghost::<D3Q19, _>(&mut split_b, &flags, &params);
        apply_boundaries_interior::<D3Q19, _>(&mut split_b, &flags, &params);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                let r = full.get(x, y, z, q);
                assert!(r == split_a.get(x, y, z, q), "interior-first at ({x},{y},{z}) q={q}");
                assert!(r == split_b.get(x, y, z, q), "ghost-first at ({x},{y},{z}) q={q}");
            }
        }
    }

    /// Pressure anti bounce back drives the local density toward the
    /// prescribed value.
    #[test]
    fn pressure_boundary_imposes_density() {
        let shape = Shape::cube(6);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        // One face (x = -1 plane) becomes a pressure opening at rho = 1.05.
        for y in -1..=(shape.ny as i32) {
            for z in -1..=(shape.nz as i32) {
                flags.set_flags(-1, y, z, CellFlags::PRESSURE);
            }
        }
        let mut src = AosPdfField::<D3Q19>::new(shape);
        let mut dst = AosPdfField::<D3Q19>::new(shape);
        src.fill_equilibrium(1.0, [0.0; 3]);
        let params = BoundaryParams { pressure_density: 1.05, ..Default::default() };
        let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
        let rho_before = src.density(0, 3, 3);
        for _ in 0..60 {
            step(&mut src, &mut dst, &flags, &params, rel);
        }
        let rho_after = src.density(0, 3, 3);
        assert!(
            rho_after > rho_before + 0.01,
            "density not driven up: {rho_before} -> {rho_after}"
        );
    }

    /// Link bookkeeping on a box with one interior obstacle cell: every
    /// face wall cell not on an edge has exactly the 5 links that point
    /// into the box, the obstacle all 18.
    #[test]
    fn links_count_and_split_by_wall_position() {
        let shape = Shape::cube(6);
        let mut flags = boxed_flags(shape, CellFlags::NOSLIP);
        flags.set_flags(2, 3, 3, CellFlags::NOSLIP);
        let links = BoundaryLinks::build::<D3Q19>(&flags);
        let interior: Vec<_> = links.interior_links().collect();
        assert_eq!(interior.len(), 18, "the obstacle is surrounded by fluid");
        assert!(interior.iter().all(|&(w, _)| w == shape.idx(2, 3, 3)));
        let face_wall = shape.idx(-1, 3, 3);
        let face: Vec<_> =
            links.ghost_links().filter(|&(w, _)| w == face_wall).map(|(_, q)| q).collect();
        assert_eq!(face.len(), 5);
        assert!(face.iter().all(|&q| D3Q19::velocities()[q][0] == 1), "links point inward");
        assert_eq!(links.len(), interior.len() + links.ghost_links().count());
        assert!(BoundaryLinks::build::<D3Q19>(&FlagField::new(shape)).is_empty());
    }
}
