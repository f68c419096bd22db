//! The fluid slab lists behind the driver's ghost exchange.
//!
//! The exchange sends a sender's `send(d)` cells into the receiver's
//! `recv(−d)` cells, pairing them by position in the list. That is only
//! right when both blocks classify every shared cell alike, so the first
//! test checks the pairing on every non-border link of each scenario
//! family. The others check that sending only fluid cells changes no
//! fluid value: list transfers against the dense `pack_face_with` /
//! `unpack_face_with` on single links at both in-place parities, and
//! whole driver runs against a replay that exchanges every slab cell.

use std::collections::HashMap;
use std::sync::Arc;
use trillium_blockforest::{distribute, BlockId, BlockLink, DistributedForest, NEIGHBOR_DIRS};
use trillium_comm::{pack_face_with, unpack_face_with, CrossingTable};
use trillium_core::driver::{run_distributed_with, DriverConfig, RunResult};
use trillium_core::pipeline::{setup_domain, Balancer};
use trillium_core::{BlockSim, KernelChoice, Scenario};
use trillium_field::{FlagOps, PdfField, Shape};
use trillium_geometry::{VascularTree, VascularTreeParams};
use trillium_lattice::D3Q19;

/// A small vascular tree carved into 8³ blocks, inlet cap colored
/// velocity and outlet caps pressure (as `pipeline::setup_domain` maps
/// them), with an inflow so the run carries a flow.
fn vascular() -> Scenario {
    let tree = Arc::new(VascularTree::generate(&VascularTreeParams {
        generations: 3,
        segments_per_branch: 2,
        root_radius: 1.2,
        root_length: 6.0,
        tortuosity: 0.2,
        ..Default::default()
    }));
    setup_domain("ghost lists", tree, 0.3, [8, 8, 8], 2, Balancer::Morton, 0.08, [0.0, 0.0, 0.04])
        .scenario
}

/// Every block of `scenario` on `ranks` ranks, built as the driver builds
/// them, with the views and a block-id index into the flat list.
struct Built {
    views: Vec<DistributedForest>,
    blocks: Vec<BlockSim>,
    index: HashMap<BlockId, usize>,
}

fn build(scenario: &Scenario, ranks: u32) -> Built {
    let views = distribute(&scenario.make_forest(ranks));
    let ids = views.iter().flat_map(|v| &v.blocks).map(|lb| lb.id);
    let index = ids.enumerate().map(|(i, id)| (id, i)).collect();
    let blocks = views.iter().flat_map(|v| &v.blocks).map(|lb| scenario.build_block(lb)).collect();
    Built { views, blocks, index }
}

impl Built {
    /// Every non-border link as `(sender, receiver, d)`: the receiver is
    /// the sender's neighbor in direction `d`.
    fn links(&self) -> Vec<(usize, usize, [i8; 3])> {
        let mut out = Vec::new();
        for lb in self.views.iter().flat_map(|v| &v.blocks) {
            for (li, link) in lb.links.iter().enumerate() {
                match link {
                    BlockLink::Border => {}
                    BlockLink::Local(nid) | BlockLink::Remote(nid, _) => {
                        out.push((self.index[&lb.id], self.index[nid], NEIGHBOR_DIRS[li]));
                    }
                }
            }
        }
        out
    }
}

/// The cells of a list as block-local coordinates.
fn coords(shape: Shape, list: &[u32]) -> Vec<(i32, i32, i32)> {
    list.iter().map(|&i| shape.coords(i as usize)).collect()
}

/// The exchange invariant: on every non-border link the sender's
/// `send(d)` is, cell for cell, the receiver's `recv(−d)` — the same
/// global cells, in the same order.
#[test]
fn send_lists_equal_receiver_recv_lists_on_every_link() {
    let families: Vec<(&str, Scenario)> = vec![
        ("vascular tree", vascular()),
        ("cavity", Scenario::lid_driven_cavity(16, 2, 0.05, 0.1)),
        ("cavity 2d", Scenario::lid_driven_cavity_2d(16, 2, 0.05, 0.1)),
        ("channel", Scenario::channel_with_obstacle([32, 16, 16], [2, 2, 2], 0.07, 0.03, 0.2)),
        ("poiseuille", Scenario::poiseuille([24, 12, 8], [2, 2, 2], 0.1, 0.01)),
        ("von karman", Scenario::von_karman([48, 24, 4], [4, 2, 2], 0.05, 0.05, 6.0)),
        ("taylor-green", Scenario::taylor_green(16, 2, 0.05, 0.02)),
    ];
    for (name, scenario) in families {
        let built = build(&scenario, 2);
        let (mut links, mut cells, mut slab_cells) = (0, 0, 0);
        for (a, b, d) in built.links() {
            let rev = [-d[0], -d[1], -d[2]];
            let (sa, sb) = (built.blocks[a].shape, built.blocks[b].shape);
            let shift = [
                d[0] as i32 * sa.nx as i32,
                d[1] as i32 * sa.ny as i32,
                d[2] as i32 * sa.nz as i32,
            ];
            let sent: Vec<_> = coords(sa, built.blocks[a].ghost_lists().send(d))
                .into_iter()
                .map(|(x, y, z)| (x - shift[0], y - shift[1], z - shift[2]))
                .collect();
            let received = coords(sb, built.blocks[b].ghost_lists().recv(rev));
            assert_eq!(sent, received, "{name}: link {a} -> {b} in direction {d:?}");
            links += 1;
            cells += sent.len();
            slab_cells += sa.boundary_slab(d, sa.ghost).num_cells();
        }
        assert!(links > 0, "{name}: no links checked");
        println!("{name}: {links} links, {cells} of {slab_cells} slab cells fluid, all paired");
    }
}

/// On the carved vascular blocks, at both in-place parities, a list
/// message and a list copy write exactly the dense exchange's values on
/// every fluid ghost cell the link covers.
#[test]
fn list_transfers_equal_the_dense_exchange_on_vascular_links() {
    let built = build(&vascular(), 2);
    let table = CrossingTable::new::<D3Q19>();
    let mut checked = 0;
    for (a, b, d) in built.links() {
        let qs = table.qs(d);
        if qs.is_empty() {
            continue;
        }
        let rev = [-d[0], -d[1], -d[2]];
        let (from, to) = (&built.blocks[a], &built.blocks[b]);
        for parity in [false, true] {
            let mut src = from.src.clone();
            for (i, v) in src.data_mut().iter_mut().enumerate() {
                *v = i as f64 * 0.25;
            }
            src.set_parity(parity);
            let mut dst = to.src.clone();
            dst.set_parity(parity);

            let mut dense = dst.clone();
            let mut buf = Vec::new();
            pack_face_with::<D3Q19, _>(&src, d, qs, &mut buf);
            unpack_face_with::<D3Q19, _>(&mut dense, rev, table.qs_reversed(rev), &buf);

            let mut sent = dst.clone();
            let mut msg = Vec::new();
            from.ghost_lists().pack(&src, d, qs, &mut msg);
            to.ghost_lists().unpack(&mut sent, rev, table.qs_reversed(rev), &msg);

            let mut copied = dst.clone();
            from.ghost_lists().copy_to(&src, d, qs, to.ghost_lists(), &mut copied);
            assert!(copied.data() == sent.data(), "copy differs from message on {a} -> {b}");

            for (x, y, z) in to.shape.ghost_slab(rev, 1).iter() {
                if !to.flags.flags(x, y, z).is_fluid() {
                    continue;
                }
                for &q in qs {
                    assert_eq!(
                        sent.get(x, y, z, q).to_bits(),
                        dense.get(x, y, z, q).to_bits(),
                        "link {a} -> {b} {d:?} parity {parity} at ({x},{y},{z}) q={q}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0);
}

/// The driver's computation replayed on one thread with the dense,
/// fluid-unaware exchange: every slab cell of every link packed with
/// `pack_face_with` and unpacked with `unpack_face_with`.
fn dense_replay(scenario: &Scenario, ranks: u32, steps: u64) -> Built {
    let mut built = build(scenario, ranks);
    let table = CrossingTable::new::<D3Q19>();
    let links = built.links();
    for _ in 0..steps {
        let mut packed = Vec::with_capacity(links.len());
        for &(a, _, d) in &links {
            let mut buf = Vec::new();
            pack_face_with::<D3Q19, _>(&built.blocks[a].src, d, table.qs(d), &mut buf);
            packed.push(buf);
        }
        for (&(_, b, d), buf) in links.iter().zip(&packed) {
            let rev = [-d[0], -d[1], -d[2]];
            unpack_face_with::<D3Q19, _>(
                &mut built.blocks[b].src,
                rev,
                table.qs_reversed(rev),
                buf,
            );
        }
        for block in &mut built.blocks {
            block.apply_boundaries();
            block.stream_collide(scenario.relaxation);
        }
    }
    built
}

/// Every fluid PDF of the driver run equals the dense replay's, bitwise.
fn assert_fluid_pdfs_equal(run: &RunResult, replay: &Built, what: &str) {
    let dumps: HashMap<u64, Vec<f64>> = run.pdf_dump().into_iter().collect();
    let mut fluid = 0;
    for lb in replay.views.iter().flat_map(|v| &v.blocks) {
        let block = &replay.blocks[replay.index[&lb.id]];
        let dump = &dumps[&lb.id.pack()];
        for (c, (x, y, z)) in block.shape.interior().iter().enumerate() {
            if !block.flags.flags(x, y, z).is_fluid() {
                continue;
            }
            fluid += 1;
            for q in 0..19 {
                assert_eq!(
                    dump[c * 19 + q].to_bits(),
                    block.src.get(x, y, z, q).to_bits(),
                    "{what}: block {:?} ({x},{y},{z}) q={q}",
                    lb.id
                );
            }
        }
    }
    assert_eq!(fluid as u64, run.total_stats().fluid_cells / run.steps, "{what}: fluid count");
    // The driver sums mass per rank in view order, then over ranks.
    let mut rest = replay.blocks.as_slice();
    let mut mass = 0.0;
    for v in &replay.views {
        let (mine, others) = rest.split_at(v.blocks.len());
        mass += mine.iter().map(BlockSim::fluid_mass).sum::<f64>();
        rest = others;
    }
    let run_mass: f64 = run.ranks.iter().map(|r| r.mass_final).sum();
    assert_eq!(run_mass.to_bits(), mass.to_bits(), "{what}: mass digest");
}

/// A 2-rank vascular run, on the synchronous and the overlapped schedule,
/// equals the dense replay on every fluid PDF.
#[test]
fn two_rank_vascular_run_equals_the_dense_exchange() {
    let scenario = vascular();
    let steps = 12;
    let replay = dense_replay(&scenario, 2, steps);
    for (name, cfg) in
        [("sync", DriverConfig::default()), ("overlapped", DriverConfig::overlapped())]
    {
        let cfg = DriverConfig { collect_pdfs: true, ..cfg };
        let run = run_distributed_with(&scenario, 2, 1, steps, &[], cfg);
        assert!(run.kinetic_energy_final() > 0.0, "the tree must carry a flow");
        assert_fluid_pdfs_equal(&run, &replay, &format!("vascular {name}"));
    }
}

/// The in-place cavity on the overlapped schedule exchanges at both
/// parities; it too equals the dense replay on every fluid PDF.
#[test]
fn two_rank_inplace_cavity_equals_the_dense_exchange() {
    let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.1).with_kernel(KernelChoice::InPlace);
    let steps = 7;
    let replay = dense_replay(&scenario, 2, steps);
    let cfg = DriverConfig { collect_pdfs: true, ..DriverConfig::overlapped() };
    let run = run_distributed_with(&scenario, 2, 1, steps, &[], cfg);
    assert!(replay.blocks.iter().all(|b| b.step_parity()), "odd step count ends at odd parity");
    assert_fluid_pdfs_equal(&run, &replay, "in-place cavity");
}
