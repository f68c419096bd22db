//! The benchmark's workloads, the one public trillium call each makes,
//! and the checks every run's output must pass.

use std::sync::Arc;
use std::time::Instant;
use trillium_core::prelude::*;
use trillium_geometry::voxelize::VoxelizeConfig;
use trillium_geometry::{VascularTree, VascularTreeParams};

/// Ranks of every run: one per core of the 2-core reference host.
pub const RANKS: u32 = 2;
/// Worker threads per rank.
pub const THREADS: usize = 1;
/// Largest relative mass drift a closed cavity may show over a run.
pub const MASS_DRIFT_BOUND: f64 = 1e-9;
/// Steps between checkpoints on the resilient workload.
pub const CHECKPOINT_EVERY: u64 = 10;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dense lid-driven cavity, pull update, synchronous schedule.
    CavityPull,
    /// Sparse vascular tree with colored inlet/outlet caps (paper §4.3).
    VascularSparse,
    /// The cavity with the in-place update on the resilient, overlapped
    /// schedule, checkpointing every [`CHECKPOINT_EVERY`] steps.
    CavityInplaceCkpt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CavityPull, Workload::VascularSparse, Workload::CavityInplaceCkpt];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CavityPull => "cavity-pull",
            Workload::VascularSparse => "vascular-sparse",
            Workload::CavityInplaceCkpt => "cavity-inplace-ckpt",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Time steps of one measured run. Both cavity workloads use the
    /// same count so their final states can be compared bitwise.
    pub fn steps(self) -> u64 {
        match self {
            Workload::CavityPull | Workload::CavityInplaceCkpt => 20,
            Workload::VascularSparse => 80,
        }
    }

    /// True for the closed cavities, whose fluid mass must be conserved.
    pub fn closed(self) -> bool {
        self != Workload::VascularSparse
    }

    /// True when the workload runs the overlapped (interior/shell split)
    /// schedule.
    pub fn overlapped(self) -> bool {
        self == Workload::CavityInplaceCkpt
    }

    /// The other cavity workload, whose final state must equal this
    /// one's bitwise at the same step count.
    pub fn sibling(self) -> Option<Workload> {
        match self {
            Workload::CavityPull => Some(Workload::CavityInplaceCkpt),
            Workload::CavityInplaceCkpt => Some(Workload::CavityPull),
            Workload::VascularSparse => None,
        }
    }

    /// Builds the workload's scenario. `seed` sets the inflow speed of
    /// the vascular tree; the cavities ignore it. The tree itself is the
    /// generator's default-seed tree for every seed: other trees differ
    /// by up to ±12 % in blocks, fluid cells and memory, which would make
    /// the seed, not the code, move the figures.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::CavityPull => Scenario::lid_driven_cavity(128, 2, 0.05, 0.1),
            Workload::CavityInplaceCkpt => {
                Scenario::lid_driven_cavity(128, 2, 0.05, 0.1).with_kernel(KernelChoice::InPlace)
            }
            Workload::VascularSparse => {
                let tree = VascularTree::generate(&VascularTreeParams {
                    generations: 6,
                    root_radius: 1.2,
                    root_length: 7.0,
                    ..Default::default()
                });
                // Inlet and outlet caps colored as `pipeline::setup_domain`
                // colors them, so the tree actually carries a flow.
                let config = VoxelizeConfig {
                    color_map: vec![
                        (VascularTree::INLET_COLOR, CellFlags::VELOCITY),
                        (VascularTree::OUTLET_COLOR, CellFlags::PRESSURE),
                    ],
                    ..Default::default()
                };
                Scenario::from_sdf(
                    "vascular-sparse",
                    Arc::new(tree),
                    0.1,
                    [16, 16, 16],
                    0.06,
                    [0.0, 0.0, inflow_speed(seed)],
                    1.0,
                    config,
                )
            }
        }
    }

    /// Runs `steps` steps of the scenario through the workload's public
    /// entry point and times the whole call.
    pub fn run(self, scenario: &Scenario, steps: u64) -> Result<Outcome, String> {
        let t0 = Instant::now();
        let result = match self {
            Workload::CavityPull | Workload::VascularSparse => Ok(run_distributed_with(
                scenario,
                RANKS,
                THREADS,
                steps,
                &[],
                DriverConfig::default(),
            )),
            Workload::CavityInplaceCkpt => {
                let cfg = ResilienceConfig {
                    checkpoint_every: CHECKPOINT_EVERY,
                    driver: DriverConfig::overlapped(),
                    ..Default::default()
                };
                run_distributed_resilient(scenario, RANKS, THREADS, steps, &[], &cfg)
                    .map(|r| r.run)
                    .map_err(|e| format!("resilient run failed: {e:?}"))
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        result.map(|r| Outcome::from_run(&r, wall_s))
    }
}

/// Inlet speed of the vascular tree in lattice units, in [0.04, 0.06)
/// and fixed by `seed` (SplitMix64 finalizer).
pub fn inflow_speed(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.04 + 0.02 * (z >> 11) as f64 / (1u64 << 53) as f64
}

/// What one run reports: the wall of the public call, the fields the
/// checks need and the driver's own per-rank time split.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Wall seconds of the whole public call.
    pub wall_s: f64,
    /// Steps executed.
    pub steps: u64,
    /// Fluid-cell updates counted by the program.
    pub fluid_updates: u64,
    /// Relative drift of the global fluid mass.
    pub mass_drift: f64,
    /// Final global fluid kinetic energy.
    pub ke_final: f64,
    /// True if any rank saw a non-finite PDF.
    pub has_nan: bool,
    /// Bit patterns of the final mass and kinetic energy.
    pub digest: String,
    /// Peak resident set of the process, KiB (filled by the child).
    pub rss_kib: u64,
    /// Driver split, max over ranks, seconds: kernel, boundary, ghost
    /// exchange work and exposed stall.
    pub kernel_s: f64,
    /// See [`Outcome::kernel_s`].
    pub boundary_s: f64,
    /// See [`Outcome::kernel_s`].
    pub ghost_s: f64,
    /// See [`Outcome::kernel_s`].
    pub stall_s: f64,
    /// Ghost bytes the ranks sent (program counter).
    pub bytes_sent: u64,
    /// Ghost messages the ranks sent (program counter).
    pub messages_sent: u64,
}

impl Outcome {
    fn from_run(r: &RunResult, wall_s: f64) -> Self {
        let max = |f: fn(&RankResult) -> f64| r.ranks.iter().map(f).fold(0.0, f64::max);
        let mass: f64 = r.ranks.iter().map(|rr| rr.mass_final).sum();
        let ke = r.kinetic_energy_final();
        let metrics = r.metrics();
        Outcome {
            wall_s,
            steps: r.steps,
            fluid_updates: r.total_stats().fluid_cells,
            mass_drift: r.mass_drift(),
            ke_final: ke,
            has_nan: r.has_nan(),
            digest: digest(mass, ke),
            rss_kib: 0,
            kernel_s: max(|rr| rr.kernel_time),
            boundary_s: max(|rr| rr.boundary_time),
            ghost_s: max(|rr| rr.comm_time),
            stall_s: max(|rr| rr.ghost_stall_time),
            bytes_sent: metrics.counter("comm.bytes_sent"),
            messages_sent: metrics.counter("comm.messages_sent"),
        }
    }

    /// One-line `key=value` form, passed from a child process to the
    /// parent.
    pub fn to_line(&self) -> String {
        format!(
            "wall_s={:e} steps={} fluid_updates={} mass_drift={:e} ke_final={:e} has_nan={} \
             digest={} rss_kib={} kernel_s={:e} boundary_s={:e} ghost_s={:e} stall_s={:e} \
             bytes_sent={} messages_sent={}",
            self.wall_s,
            self.steps,
            self.fluid_updates,
            self.mass_drift,
            self.ke_final,
            self.has_nan,
            self.digest,
            self.rss_kib,
            self.kernel_s,
            self.boundary_s,
            self.ghost_s,
            self.stall_s,
            self.bytes_sent,
            self.messages_sent,
        )
    }

    /// Inverse of [`Outcome::to_line`].
    pub fn from_line(line: &str) -> Result<Outcome, String> {
        let mut o = Outcome::default();
        let mut seen = 0;
        for kv in line.split_whitespace() {
            let (k, v) = kv.split_once('=').ok_or_else(|| format!("bad field {kv:?}"))?;
            match k {
                "wall_s" => o.wall_s = parse(kv, v)?,
                "steps" => o.steps = parse(kv, v)?,
                "fluid_updates" => o.fluid_updates = parse(kv, v)?,
                "mass_drift" => o.mass_drift = parse(kv, v)?,
                "ke_final" => o.ke_final = parse(kv, v)?,
                "has_nan" => o.has_nan = parse(kv, v)?,
                "digest" => o.digest = v.to_string(),
                "rss_kib" => o.rss_kib = parse(kv, v)?,
                "kernel_s" => o.kernel_s = parse(kv, v)?,
                "boundary_s" => o.boundary_s = parse(kv, v)?,
                "ghost_s" => o.ghost_s = parse(kv, v)?,
                "stall_s" => o.stall_s = parse(kv, v)?,
                "bytes_sent" => o.bytes_sent = parse(kv, v)?,
                "messages_sent" => o.messages_sent = parse(kv, v)?,
                _ => return Err(format!("unknown field {k:?}")),
            }
            seen += 1;
        }
        if seen != 14 {
            return Err(format!("expected 14 fields, got {seen}"));
        }
        Ok(o)
    }
}

fn parse<T: std::str::FromStr>(field: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value in {field:?}"))
}

/// Bitwise digest of a final state: the bit patterns of its global fluid
/// mass and kinetic energy.
pub fn digest(mass: f64, kinetic_energy: f64) -> String {
    format!("{:016x}{:016x}", mass.to_bits(), kinetic_energy.to_bits())
}

/// Checks one run's output. `fluid_cells` is the workload's fluid cell
/// count, taken from the built blocks, not from the run.
pub fn check(w: Workload, o: &Outcome, fluid_cells: u64) -> Result<(), String> {
    if o.has_nan || !o.mass_drift.is_finite() || !o.ke_final.is_finite() {
        return Err("non-finite PDFs in the final state".into());
    }
    if o.fluid_updates != fluid_cells * o.steps {
        return Err(format!(
            "{} fluid updates, expected {} cells x {} steps",
            o.fluid_updates, fluid_cells, o.steps
        ));
    }
    if w.closed() && o.mass_drift.abs() > MASS_DRIFT_BOUND {
        return Err(format!(
            "closed-cavity mass drift {:e} exceeds {MASS_DRIFT_BOUND:e}",
            o.mass_drift
        ));
    }
    if !w.closed() && o.steps > 0 && o.ke_final <= 0.0 {
        return Err("vascular flow did not start: final kinetic energy is 0".into());
    }
    Ok(())
}

/// Checks that every digest in `digests` is the same.
pub fn check_same_digest<'a>(
    what: &str,
    mut digests: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let Some(first) = digests.next() else { return Ok(()) };
    match digests.find(|d| *d != first) {
        Some(other) => Err(format!("{what}: final state {other} differs from {first}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Outcome {
        Outcome {
            wall_s: 1.5,
            steps: 20,
            fluid_updates: 2_000,
            mass_drift: 1e-13,
            ke_final: 0.25,
            digest: digest(1.0, 0.25),
            ..Default::default()
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("cavity"), None);
    }

    #[test]
    fn outcome_line_round_trips() {
        let mut o = good();
        o.stall_s = 0.125;
        o.bytes_sent = 77;
        assert_eq!(Outcome::from_line(&o.to_line()), Ok(o));
        assert!(Outcome::from_line("wall_s=1").is_err());
    }

    #[test]
    fn check_accepts_a_good_run() {
        for w in Workload::ALL {
            assert_eq!(check(w, &good(), 100), Ok(()));
        }
    }

    #[test]
    fn check_rejects_nan() {
        let mut o = good();
        o.has_nan = true;
        assert!(check(Workload::CavityPull, &o, 100).is_err());
        let mut o = good();
        o.ke_final = f64::NAN;
        assert!(check(Workload::VascularSparse, &o, 100).is_err());
    }

    #[test]
    fn check_rejects_a_wrong_update_count() {
        let mut o = good();
        o.fluid_updates += 1;
        for w in Workload::ALL {
            assert!(check(w, &o, 100).is_err());
        }
    }

    #[test]
    fn check_rejects_mass_drift_on_a_closed_cavity() {
        let mut o = good();
        o.mass_drift = 1e-6;
        assert!(check(Workload::CavityPull, &o, 100).is_err());
        assert!(check(Workload::CavityInplaceCkpt, &o, 100).is_err());
        // The vascular tree has an inlet and outlets: its mass may change.
        assert_eq!(check(Workload::VascularSparse, &o, 100), Ok(()));
    }

    #[test]
    fn check_rejects_a_vascular_flow_at_rest() {
        let mut o = good();
        o.ke_final = 0.0;
        assert!(check(Workload::VascularSparse, &o, 100).is_err());
    }

    #[test]
    fn differing_digests_are_rejected() {
        let a = digest(1.0, 0.5);
        let b = digest(1.0, 0.5000000000000001);
        assert!(check_same_digest("x", [a.as_str(), a.as_str()].into_iter()).is_ok());
        assert!(check_same_digest("x", [a.as_str(), b.as_str()].into_iter()).is_err());
    }
}
