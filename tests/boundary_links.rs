//! Boundary link lists against the flag scan they replace: a block's
//! links must reproduce, bit for bit, the preparatory sweep and the
//! momentum-exchange force of a scan over every cell and flag.

use std::sync::Arc;
use trillium_core::blocksim::{boxed_block_flags, BlockSim, UpdateScheme};
use trillium_core::pipeline::{setup_domain, Balancer};
use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, Shape, SoaPdfField};
use trillium_geometry::{VascularTree, VascularTreeParams};
use trillium_kernels::BoundaryParams;
use trillium_lattice::equilibrium::equilibrium_even;
use trillium_lattice::{LatticeModel, Relaxation, D3Q19, MAGIC_TRT};

/// Every link `(w, q)` of a flag scan, in scan order, as
/// `(linear index of w, q)`.
fn scan_links(flags: &FlagField) -> Vec<(usize, usize)> {
    let shape = flags.shape();
    let mut links = Vec::new();
    for (wx, wy, wz) in shape.with_ghosts().iter() {
        if !flags.flags(wx, wy, wz).is_boundary() {
            continue;
        }
        for q in 1..D3Q19::Q {
            let c = D3Q19::velocities()[q];
            let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
            if shape.is_interior(tx, ty, tz) && flags.flags(tx, ty, tz).is_fluid() {
                links.push((shape.idx(wx, wy, wz), q));
            }
        }
    }
    links
}

/// The preparatory boundary sweep as a scan over every cell and flag.
fn scan_apply(f: &mut SoaPdfField<D3Q19>, flags: &FlagField, params: &BoundaryParams) {
    let shape = f.shape();
    let mut fluid_pdfs = vec![0.0; D3Q19::Q];
    for (w, q) in scan_links(flags) {
        let (wx, wy, wz) = shape.coords(w);
        let flag = flags.flags(wx, wy, wz);
        let c = D3Q19::velocities()[q];
        let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
        let reflected = f.get(tx, ty, tz, D3Q19::inv(q));
        let value = if flag.intersects(CellFlags::NOSLIP) {
            reflected
        } else if flag.intersects(CellFlags::VELOCITY) {
            let cu = c[0] as f64 * params.wall_velocity[0]
                + c[1] as f64 * params.wall_velocity[1]
                + c[2] as f64 * params.wall_velocity[2];
            reflected + 6.0 * D3Q19::w(q) * cu
        } else {
            let rho_w = if flag.intersects(CellFlags::PRESSURE) {
                params.pressure_density
            } else {
                params.pressure_density_alt
            };
            f.get_cell(tx, ty, tz, &mut fluid_pdfs);
            let u = trillium_lattice::velocity::<D3Q19>(&fluid_pdfs);
            -reflected + 2.0 * equilibrium_even::<D3Q19>(q, rho_w, u)
        };
        f.set(wx, wy, wz, q, value);
    }
}

/// Momentum-exchange force as a scan, summed in scan order.
fn scan_force(f: &SoaPdfField<D3Q19>, flags: &FlagField, mask: CellFlags) -> [f64; 3] {
    let shape = f.shape();
    let mut force = [0.0; 3];
    for (w, q) in scan_links(flags) {
        let (wx, wy, wz) = shape.coords(w);
        if !flags.flags(wx, wy, wz).intersects(mask) {
            continue;
        }
        let c = D3Q19::velocities()[q];
        let (tx, ty, tz) = (wx + c[0] as i32, wy + c[1] as i32, wz + c[2] as i32);
        let qi = D3Q19::inv(q);
        let outgoing = f.get(tx, ty, tz, qi);
        let incoming = f.get(wx, wy, wz, q);
        let ci = D3Q19::velocities()[qi];
        for d in 0..3 {
            force[d] += (outgoing + incoming) * ci[d] as f64;
        }
    }
    force
}

/// Gives every stored PDF a distinct value, so a link that reads or
/// writes the wrong slot cannot go unnoticed.
fn scramble(f: &mut SoaPdfField<D3Q19>) {
    for (i, v) in f.data_mut().iter_mut().enumerate() {
        *v += 1e-4 * (((i * 2654435761) % 997) as f64 / 997.0 - 0.5);
    }
}

fn assert_bitwise(a: &SoaPdfField<D3Q19>, b: &SoaPdfField<D3Q19>, what: &str) {
    assert!(
        a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: link sweep differs from the flag scan"
    );
}

/// Applies the block's link sweep (whole, and split into its interior and
/// ghost halves) and the scan to copies of its field; all must agree bit
/// for bit, and so must the masked forces.
fn check_block(block: &BlockSim, what: &str) {
    let mut reference = block.src.clone();
    scan_apply(&mut reference, &block.flags, &block.boundary);

    let mut whole = block.src.clone();
    block.links().apply::<D3Q19, _>(&mut whole, &block.boundary);
    assert_bitwise(&reference, &whole, what);

    let mut split = block.src.clone();
    block.links().apply_ghost::<D3Q19, _>(&mut split, &block.boundary);
    block.links().apply_interior::<D3Q19, _>(&mut split, &block.boundary);
    assert_bitwise(&reference, &split, what);

    let masks = [
        CellFlags::NOSLIP,
        CellFlags::VELOCITY,
        CellFlags::PRESSURE,
        CellFlags::OBSTACLE,
        CellFlags::ANY_BOUNDARY,
    ];
    for mask in masks {
        let scan = scan_force(&reference, &block.flags, mask);
        let links = block.links().momentum_exchange_force::<D3Q19, _>(&reference, mask);
        assert!(
            scan.iter().zip(&links).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what}: force with mask {mask:?} differs: {scan:?} vs {links:?}"
        );
    }
}

/// The carved blocks of a small vascular tree, inlet cap colored velocity
/// and outlet caps pressure (as `pipeline::setup_domain` maps them).
fn vascular_blocks() -> Vec<BlockSim> {
    let tree = Arc::new(VascularTree::generate(&VascularTreeParams {
        generations: 3,
        segments_per_branch: 2,
        root_radius: 1.2,
        root_length: 6.0,
        tortuosity: 0.2,
        ..Default::default()
    }));
    let setup =
        setup_domain("links", tree, 0.3, [8, 8, 8], 1, Balancer::Morton, 0.08, [0.0, 0.0, 0.04]);
    setup.views[0].blocks.iter().map(|lb| setup.scenario.build_block(lb)).collect()
}

#[test]
fn links_match_flag_scan_on_carved_vascular_blocks() {
    let blocks = vascular_blocks();
    let has =
        |b: &BlockSim, f: CellFlags| b.flags.data().iter().any(|&v| CellFlags(v).intersects(f));
    assert!(blocks.iter().any(|b| has(b, CellFlags::VELOCITY)), "need an inlet cap block");
    assert!(blocks.iter().any(|b| has(b, CellFlags::PRESSURE)), "need an outlet cap block");
    for (i, mut block) in blocks.into_iter().enumerate() {
        scramble(&mut block.src);
        check_block(&block, &format!("vascular block {i}"));
    }
}

#[test]
fn links_match_flag_scan_on_inplace_cavity_at_both_parities() {
    // In-place runs only on fully fluid blocks, so all walls sit in the
    // ghost layer; the -y wall carries the OBSTACLE marker for the force
    // masks.
    let flags = boxed_block_flags(
        Shape::cube(10),
        [
            Some(CellFlags::NOSLIP),
            Some(CellFlags::PRESSURE),
            Some(CellFlags(CellFlags::OBSTACLE.0 | CellFlags::NOSLIP.0)),
            Some(CellFlags::NOSLIP),
            Some(CellFlags::NOSLIP),
            Some(CellFlags::VELOCITY),
        ],
    );
    // Irregular values, so a reordered expression rounds differently.
    let boundary = BoundaryParams {
        wall_velocity: [0.0371, -0.0137, 0.0093],
        pressure_density: 1.0123,
        ..Default::default()
    };
    let mut block =
        BlockSim::from_flags_with_scheme(flags, boundary, 1.0, [0.0; 3], UpdateScheme::InPlace);
    assert_eq!(block.scheme, UpdateScheme::InPlace);
    scramble(&mut block.src);
    let rel = Relaxation::trt_from_tau(0.9, MAGIC_TRT);
    let mut seen = [false; 2];
    for step in 0..4 {
        seen[block.step_parity() as usize] = true;
        check_block(&block, &format!("in-place cavity step {step}"));
        block.apply_boundaries();
        block.stream_collide(rel);
    }
    assert_eq!(seen, [true, true], "both storage parities must be exercised");
}

/// The interior and ghost lists partition the scan's links: together
/// they are exactly the scan's links, each once, split by where the wall
/// cell lies.
#[test]
fn interior_and_ghost_links_partition_the_scan() {
    let blocks = vascular_blocks();
    assert!(blocks.iter().any(|b| b.links().interior_links().next().is_some()));
    assert!(blocks.iter().any(|b| b.links().ghost_links().next().is_some()));
    for block in blocks {
        let shape = block.shape;
        let interior: Vec<_> = block.links().interior_links().collect();
        let ghost: Vec<_> = block.links().ghost_links().collect();
        let is_interior = |w: usize| {
            let (x, y, z) = shape.coords(w);
            shape.is_interior(x, y, z)
        };
        assert!(interior.iter().all(|&(w, _)| is_interior(w)));
        assert!(ghost.iter().all(|&(w, _)| !is_interior(w)));
        let mut merged = [interior, ghost].concat();
        merged.sort_unstable();
        assert_eq!(merged, scan_links(&block.flags), "links must be exactly the scan's");
        assert_eq!(merged.len(), block.links().len());
    }
}
