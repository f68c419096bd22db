//! The distributed time loop.
//!
//! Each rank owns the blocks assigned to it by the load balancer and runs,
//! per time step: (1) ghost-layer exchange with neighboring blocks over
//! each block's fluid slab lists ([`trillium_comm::GhostLists`]) — direct
//! copies between same-rank blocks, messages over the communicator
//! otherwise; (2) the boundary preparatory sweep; (3) the fused
//! stream–collide kernel; buffers swap inside the kernel call. The
//! per-rank split between kernel and communication wall time is recorded,
//! which is how the "% time spent for MPI communication" curves of Fig 6
//! are produced for real runs.
//!
//! All timing goes through the `trillium-obs` span layer: one
//! [`Recorder`] per rank accumulates disjoint per-category totals
//! (kernel, boundary, ghost work, exposed stall), feeds the metrics
//! registry, and — with [`ObsConfig::events`] — captures a per-span
//! event stream exportable as Chrome `trace_event` JSON via
//! [`RunResult::chrome_trace`].

use crate::blocksim::BlockSim;
use crate::migrate::execute_migrations;
use crate::scenario::Scenario;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use trillium_blockforest::{
    dir_index, distribute, BlockId, BlockLink, DistributedForest, SetupForest, NEIGHBOR_DIRS,
};
use trillium_comm::{Communicator, CrossingTable, World};
use trillium_field::{CellFlags, PdfField};
use trillium_kernels::SweepStats;
use trillium_lattice::{Relaxation, D3Q19};
use trillium_obs::{ObsConfig, RankObs, Recorder, SpanKind};
use trillium_rebalance::plan::{decode_records, encode_records};
use trillium_rebalance::{
    plan_rebalance, BlockRecord, EwmaCostModel, ImbalanceDetector, PlanOptions,
};

/// Per-rank outcome of a run.
#[derive(Clone, Debug)]
pub struct RankResult {
    /// Rank index.
    pub rank: u32,
    /// Number of local blocks.
    pub num_blocks: usize,
    /// Accumulated kernel sweep statistics.
    pub stats: SweepStats,
    /// Wall time in the compute kernels (seconds).
    pub kernel_time: f64,
    /// Wall time of ghost-exchange *work*: packing, sending, local
    /// unpacking, and draining remote messages (receive + unpack).
    /// Excludes time blocked on messages that had not yet arrived —
    /// that is [`RankResult::ghost_stall_time`], kept disjoint by the
    /// span layer so the categories sum without double counting.
    pub comm_time: f64,
    /// Wall time in the boundary sweeps.
    pub boundary_time: f64,
    /// Seconds of compute executed while ghost messages were still in
    /// flight — the communication actually *hidden* by the overlapped
    /// schedule. Zero for the synchronous path.
    pub overlap_hidden: f64,
    /// Seconds blocked in a ghost receive *while runnable local compute
    /// was still pending* — the exposed stall the overlapped schedule
    /// removes (a subset of [`RankResult::comm_time`]). The synchronous
    /// schedule blocks with the entire stream-collide sweep still undone,
    /// so every blocked receive counts (messages already arrived when
    /// asked for cost nothing). The overlapped schedule only blocks once
    /// every interior is swept and every block with a complete ghost
    /// layer has finished its shell — no runnable work remains — so this
    /// is zero by construction; its residual wait is neighbor imbalance,
    /// accounted in [`RankResult::comm_time`]. This definition stays
    /// meaningful on an oversubscribed emulation host, where raw
    /// blocked-recv wall time measures the thread scheduler rather than
    /// the network. Disjoint from [`RankResult::comm_time`].
    pub ghost_stall_time: f64,
    /// Total fluid mass before the first step.
    pub mass_initial: f64,
    /// Total fluid mass after the last step.
    pub mass_final: f64,
    /// Total fluid kinetic energy (½ρ|u|², summed over fluid cells)
    /// before the first step.
    pub energy_initial: f64,
    /// Total fluid kinetic energy after the last step.
    pub energy_final: f64,
    /// Per-step momentum-exchange force on the boundary cells matched by
    /// [`DriverConfig::force_mask`], summed over this rank's blocks in
    /// block order; index = time step. Empty when no mask is set. Under
    /// rebalancing the per-rank split shifts as blocks migrate — the
    /// cross-rank sum ([`RunResult::force_series`]) is the physical
    /// signal.
    pub force_series: Vec<[f64; 3]>,
    /// Probed velocities: global cell → velocity, for the probes owned by
    /// this rank.
    pub probes: Vec<([i64; 3], [f64; 3])>,
    /// Final interior PDFs per local block (`packed block id` → values in
    /// interior iteration order × 19), only when
    /// [`DriverConfig::collect_pdfs`] is set; empty otherwise.
    pub pdfs: Vec<(u64, Vec<f64>)>,
    /// True if any local block contains non-finite PDFs after the run.
    pub has_nan: bool,
    /// Wall seconds of this rank's whole time loop, measured once per
    /// rank by the span layer — the budget the disjoint categories fit
    /// into: `kernel_time + boundary_time + comm_time +
    /// ghost_stall_time ≤ wall_time` (pinned by
    /// `tests/observability.rs`). Zero when the recorder is disabled.
    pub wall_time: f64,
    /// Per-rank observability snapshot: span totals and counts, the
    /// metrics registry (message/byte counters, step-time histogram,
    /// …), and — under [`ObsConfig::events`] — the captured trace
    /// events. `None` only when [`ObsConfig::off`] disabled recording.
    pub obs: Option<RankObs>,
    /// Runtime-rebalance accounting, present only for runs started via
    /// [`run_distributed_rebalanced`].
    pub rebalance: Option<RebalanceReport>,
}

impl RankResult {
    /// Total attributed busy seconds: the four disjoint categories
    /// (kernel, communication work, boundary, exposed stall) summed —
    /// the denominator of the fraction metrics.
    pub fn busy_time(&self) -> f64 {
        self.kernel_time + self.comm_time + self.boundary_time + self.ghost_stall_time
    }
}

/// Configuration of the runtime load balancer (see `trillium-rebalance`).
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Steps per monitoring epoch: the global load ratio is measured (one
    /// fused min/max/sum all-reduce) every `every_n_steps` steps.
    pub every_n_steps: u64,
    /// Max/avg load ratio above which an epoch counts as imbalanced.
    /// `f64::INFINITY` turns the subsystem into a pure monitor: costs and
    /// ratios are recorded but nothing ever migrates.
    pub threshold: f64,
    /// Consecutive imbalanced epochs required before migration fires.
    pub hysteresis: u32,
    /// Epochs to ignore entirely after a migration round, while the EWMA
    /// cost model re-learns the new assignment. Prevents thrash: the
    /// measured ratio bounces for a few epochs after blocks move (migrated
    /// blocks re-seed from one sample) and would otherwise re-fire.
    pub cooldown_epochs: u32,
    /// EWMA smoothing factor for the per-block cost model.
    pub ewma_alpha: f64,
    /// Planner knobs (graph-gain floor, partitioner seed, minimum ratio).
    pub plan: PlanOptions,
    /// Observability toggle (see [`DriverConfig::obs`]).
    pub obs: ObsConfig,
    /// Dump every block's final interior PDFs (see
    /// [`DriverConfig::collect_pdfs`]); `RunResult::pdf_dump` sorts by
    /// block id, so the dump compares equal across migration histories.
    pub collect_pdfs: bool,
    /// Measure the per-step momentum-exchange force on matching boundary
    /// cells (see [`DriverConfig::force_mask`]).
    pub force_mask: Option<CellFlags>,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            every_n_steps: 10,
            threshold: 1.15,
            hysteresis: 2,
            cooldown_epochs: 2,
            ewma_alpha: 0.25,
            plan: PlanOptions::default(),
            obs: ObsConfig::default(),
            collect_pdfs: false,
            force_mask: None,
        }
    }
}

impl RebalanceConfig {
    /// A configuration that measures per-block costs and the imbalance
    /// history but never migrates — the baseline for ablations.
    pub fn monitor_only() -> Self {
        Self { threshold: f64::INFINITY, ..Self::default() }
    }
}

/// One monitoring epoch as seen by every rank (the ratio is global).
#[derive(Clone, Copy, Debug)]
pub struct EpochReport {
    /// Time step at the end of the epoch.
    pub step: u64,
    /// Measured max/avg load ratio across ranks at that step.
    pub ratio: f64,
    /// Blocks migrated (globally) at this epoch boundary.
    pub migrated: u32,
}

/// Per-rank rebalance accounting over a whole run.
#[derive(Clone, Debug, Default)]
pub struct RebalanceReport {
    /// One entry per monitoring epoch.
    pub epochs: Vec<EpochReport>,
    /// Blocks this rank received from other ranks.
    pub migrations_in: u32,
    /// Blocks this rank sent to other ranks.
    pub migrations_out: u32,
    /// Number of migration rounds executed.
    pub rebalances: u32,
    /// Final measured (EWMA) cost per local block: `(packed_id,
    /// seconds_per_step, fluid_cells)`. This is exactly what the planner
    /// consumes — wall-clock cost, not static cell counts.
    pub final_costs: Vec<(u64, f64, u64)>,
    /// Seconds of ghost-exchange *work* (pack, send, local unpack) —
    /// excludes time blocked in `recv` waiting for neighbors, which on an
    /// oversubscribed emulation host measures the thread scheduler rather
    /// than the network.
    pub comm_work_time: f64,
    /// Seconds spent at epoch boundaries: the load all-reduce, planning,
    /// and (when a round fires) block serialization and migration.
    pub epoch_time: f64,
}

/// Whole-run outcome: per-rank results plus global accounting.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Steps executed.
    pub steps: u64,
    /// Per-rank results, ordered by rank.
    pub ranks: Vec<RankResult>,
}

impl RunResult {
    /// Relative drift of the global fluid mass over the run.
    pub fn mass_drift(&self) -> f64 {
        let m0: f64 = self.ranks.iter().map(|r| r.mass_initial).sum();
        let m1: f64 = self.ranks.iter().map(|r| r.mass_final).sum();
        (m1 - m0) / m0
    }

    /// Aggregated sweep statistics.
    pub fn total_stats(&self) -> SweepStats {
        let mut s = SweepStats::default();
        for r in &self.ranks {
            s.merge(r.stats);
        }
        s
    }

    /// All probe results, sorted by global cell coordinate.
    pub fn probes(&self) -> Vec<([i64; 3], [f64; 3])> {
        let mut all: Vec<_> = self.ranks.iter().flat_map(|r| r.probes.iter().cloned()).collect();
        all.sort_by_key(|(c, _)| *c);
        all
    }

    /// All collected block PDF dumps, sorted by packed block id (empty
    /// unless the run used [`DriverConfig::collect_pdfs`]). Two runs of
    /// the same problem are PDF-level bitwise identical iff their dumps
    /// compare equal.
    pub fn pdf_dump(&self) -> Vec<(u64, Vec<f64>)> {
        let mut all: Vec<_> = self.ranks.iter().flat_map(|r| r.pdfs.iter().cloned()).collect();
        all.sort_by_key(|(id, _)| *id);
        all
    }

    /// Global fluid kinetic energy before the first step.
    pub fn kinetic_energy_initial(&self) -> f64 {
        self.ranks.iter().map(|r| r.energy_initial).sum()
    }

    /// Global fluid kinetic energy after the last step.
    pub fn kinetic_energy_final(&self) -> f64 {
        self.ranks.iter().map(|r| r.energy_final).sum()
    }

    /// Per-step momentum-exchange force on the masked boundary cells,
    /// summed across ranks; index = time step. Empty unless the run set
    /// [`DriverConfig::force_mask`]. Ranks are folded in rank order, so
    /// the series is deterministic for a fixed rank count.
    pub fn force_series(&self) -> Vec<[f64; 3]> {
        let steps = self.ranks.iter().map(|r| r.force_series.len()).max().unwrap_or(0);
        let mut out = vec![[0.0; 3]; steps];
        for r in &self.ranks {
            for (t, f) in r.force_series.iter().enumerate() {
                for d in 0..3 {
                    out[t][d] += f[d];
                }
            }
        }
        out
    }

    /// Total seconds of compute hidden behind in-flight ghost messages,
    /// summed over ranks (zero for synchronous runs).
    pub fn overlap_hidden(&self) -> f64 {
        self.ranks.iter().map(|r| r.overlap_hidden).sum()
    }

    /// Fraction of busy time spent blocked on ghost messages while
    /// runnable local compute was still pending (max over ranks) — see
    /// [`RankResult::ghost_stall_time`]. The overlap ablation's headline:
    /// the synchronous schedule exposes its whole receive wait as stall,
    /// the overlapped schedule never blocks while work remains.
    /// Returns 0.0 (not NaN) for trivially short runs whose measured
    /// busy time is zero — including runs with the recorder disabled.
    pub fn stall_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| {
                let total = r.busy_time();
                if total > 0.0 {
                    r.ghost_stall_time / total
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of total wall time spent in communication (max over
    /// ranks, the value that limits scaling).
    pub fn comm_fraction(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| {
                let total = r.busy_time();
                if total > 0.0 {
                    r.comm_time / total
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    /// True if any rank observed non-finite values.
    pub fn has_nan(&self) -> bool {
        self.ranks.iter().any(|r| r.has_nan)
    }

    /// Measured imbalance history `(step, max/avg ratio)`, one entry per
    /// monitoring epoch. Empty for runs without rebalancing. The ratio is
    /// a global quantity, identical on every rank, so rank 0's copy is
    /// authoritative.
    pub fn imbalance_history(&self) -> Vec<(u64, f64)> {
        self.ranks
            .first()
            .and_then(|r| r.rebalance.as_ref())
            .map(|rb| rb.epochs.iter().map(|e| (e.step, e.ratio)).collect())
            .unwrap_or_default()
    }

    /// The measured load ratio of the last monitoring epoch, if any.
    pub fn final_load_ratio(&self) -> Option<f64> {
        self.ranks
            .first()
            .and_then(|r| r.rebalance.as_ref())
            .and_then(|rb| rb.epochs.last())
            .map(|e| e.ratio)
    }

    /// Total blocks that changed owner over the run.
    pub fn total_migrations(&self) -> u32 {
        self.ranks.iter().filter_map(|r| r.rebalance.as_ref()).map(|rb| rb.migrations_in).sum()
    }

    /// Number of migration rounds (identical on all ranks).
    pub fn rebalance_count(&self) -> u32 {
        self.ranks.first().and_then(|r| r.rebalance.as_ref()).map(|rb| rb.rebalances).unwrap_or(0)
    }

    /// Critical-path *work* seconds: the maximum over ranks of the time
    /// spent computing (kernel + boundary sweeps), doing ghost-exchange
    /// work, and running rebalance epochs (all-reduce, planning,
    /// migration). Excludes time blocked in `recv` waiting on neighbors.
    ///
    /// On a real machine wall clock ≈ this maximum, because ranks run
    /// concurrently and the waiting happens *in parallel with* the slow
    /// rank's work. In this emulation harness ranks are time-sliced
    /// threads, so raw per-rank elapsed time (which includes the
    /// blocked waits) would count every other rank's work as "wait"
    /// and hide imbalance entirely. The span layer keeps blocked time
    /// out of the categories summed here — [`RankResult::comm_time`]
    /// is exchange *work* and stall is ledgered separately — so for
    /// runs without a rebalance report kernel + comm + boundary is
    /// pure attributed work, with nothing double-counted (the
    /// per-rank budget invariant is pinned in `tests/observability.rs`).
    pub fn work_wall(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| match &r.rebalance {
                Some(rb) => r.kernel_time + r.boundary_time + rb.comm_work_time + rb.epoch_time,
                None => r.kernel_time + r.comm_time + r.boundary_time,
            })
            .fold(0.0f64, f64::max)
    }

    /// The run's Chrome `trace_event` JSON: one timeline lane per rank,
    /// one slice per captured span. Meaningful when the run used
    /// [`ObsConfig::events`] (without event capture the timeline is
    /// empty, lanes only). Write it to a file and open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> serde_json::Value {
        trillium_obs::chrome_trace(self.ranks.iter().filter_map(|r| r.obs.as_ref()))
    }

    /// All ranks' metrics merged into one snapshot: counters and
    /// accumulators summed, gauges last-write-wins, histograms pooled.
    pub fn metrics(&self) -> trillium_obs::MetricsSnapshot {
        let mut out = trillium_obs::MetricsSnapshot::default();
        for r in &self.ranks {
            if let Some(obs) = &r.obs {
                out.merge(&obs.metrics);
            }
        }
        out
    }
}

/// How the distributed time loop schedules ghost exchange and compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverConfig {
    /// Overlap ghost communication with interior compute: post all sends,
    /// sweep each block's interior core (whose pull stencil never reads
    /// the ghost layer) while messages are in flight, then drain ghost
    /// messages in *arrival* order and finish each block's boundary shell
    /// as soon as its last message lands. Off by default; the synchronous
    /// path is the bitwise reference the overlapped path must reproduce
    /// exactly (pinned by `overlap_matches_sync_bitwise`).
    pub overlap: bool,
    /// Dump every block's final interior PDFs into
    /// [`RankResult::pdfs`] — the raw data for PDF-level equivalence
    /// tests. Off by default (the dump is large).
    pub collect_pdfs: bool,
    /// Observability toggle: timing on / event capture off by default;
    /// [`ObsConfig::off`] makes every span a no-op (the ≤3%-overhead
    /// baseline), [`ObsConfig::trace`] additionally captures the
    /// chrome-trace event stream.
    pub obs: ObsConfig,
    /// When set, measure the per-step momentum-exchange force on every
    /// boundary cell whose flags intersect this mask (e.g.
    /// `CellFlags::OBSTACLE` for the cylinder lift/drag signal) into
    /// [`RankResult::force_series`]. Forces are read from the pre-sweep
    /// populations: the synchronous schedule measures after the full
    /// boundary sweep, the overlapped schedule per block right after its
    /// ghost boundary prep — bitwise the same values, folded in block
    /// order. Blocks carrying masked cells must use the pull (two-array)
    /// scheme; scenarios that tag obstacle cells guarantee this.
    pub force_mask: Option<CellFlags>,
}

impl DriverConfig {
    /// The overlapped schedule.
    pub fn overlapped() -> Self {
        DriverConfig { overlap: true, ..Default::default() }
    }

    /// The same configuration with chrome-trace event capture on.
    pub fn with_trace(mut self) -> Self {
        self.obs = ObsConfig::trace();
        self
    }

    /// The same configuration measuring boundary forces on `mask` cells.
    pub fn with_force_mask(mut self, mask: CellFlags) -> Self {
        self.force_mask = Some(mask);
        self
    }
}

/// Message tag for a ghost message destined for block `dst` arriving from
/// its neighbor in direction `d` (receiver perspective). The low bits
/// carry the direction; bit 5 carries the *step parity*, so a fast
/// neighbor's step-`t+1` message can never be confused with a still
/// outstanding step-`t` message of the same link while the overlapped
/// drain is in progress. (FIFO per `(from, tag)` already orders same-tag
/// messages — see `fifo_preserved_through_pending_buffer` in
/// `trillium-comm` — the parity bit makes the separation structural.)
pub(crate) fn ghost_tag(dst: BlockId, d: [i8; 3], parity: u64) -> u64 {
    let packed = dst.pack();
    assert!(packed < (1 << 42), "block ID too large for ghost tags");
    (packed << 6) | ((parity & 1) << 5) | dir_index(d) as u64
}

/// Everything a per-rank worker needs to join one distributed run of a
/// scenario: the balanced setup forest, one distributed view per rank,
/// and the shared trace epoch. Built once by whoever launches the
/// cohort — [`run_distributed_with`] for the classic one-run-per-call
/// API, or a multi-tenant scheduler (`trillium-jobs`) that ships the
/// plan to pooled rank workers — then shared read-only across them.
///
/// Nothing here is process-global: each plan belongs to exactly one
/// run, so any number of runs can be planned and driven concurrently
/// in one process.
pub struct RunPlan {
    /// The balanced setup forest (cloned per rank by the rebalanced
    /// schedule, which mutates ownership as blocks migrate).
    pub forest: SetupForest,
    /// Per-rank block views, indexed by rank.
    pub views: Vec<DistributedForest>,
    /// Common time origin for every rank's recorder, so the run's trace
    /// lanes line up.
    pub epoch: Instant,
}

/// Plans a distributed run of `scenario` on `num_procs` ranks: builds
/// and balances the forest and precomputes the per-rank views. The
/// returned plan feeds [`drive_rank`] / [`drive_rank_rebalanced`] /
/// [`crate::recovery::drive_rank_resilient`] — one call per rank, on
/// communicators from `World::connect`.
pub fn plan_run(scenario: &Scenario, num_procs: u32) -> RunPlan {
    let forest = scenario.make_forest(num_procs);
    let views = distribute(&forest);
    RunPlan { forest, views, epoch: Instant::now() }
}

/// Runs one rank of a distributed simulation on a caller-provided
/// communicator — the re-entrant per-rank entry point behind
/// [`run_distributed_with`]. The communicator decides which rank this
/// is; the plan must have been built for the communicator's world size.
/// Safe to invoke any number of times concurrently in one process, one
/// cohort per plan.
pub fn drive_rank(
    comm: Communicator,
    plan: &RunPlan,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: DriverConfig,
) -> RankResult {
    let view = &plan.views[comm.rank() as usize];
    rank_loop(comm, view, scenario, threads_per_rank, steps, probes, cfg, plan.epoch)
}

/// Runs `scenario` on `num_procs` ranks (threads) with
/// `threads_per_rank`-fold block parallelism inside each rank, for
/// `steps` time steps, under the given [`DriverConfig`]. `probes` are
/// global cell coordinates whose final velocities are reported by the
/// owning rank.
pub fn run_distributed_with(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: DriverConfig,
) -> RunResult {
    let plan = plan_run(scenario, num_procs);
    let results = World::run(num_procs, |comm| {
        drive_rank(comm, &plan, scenario, threads_per_rank, steps, probes, cfg)
    });
    RunResult { steps, ranks: results }
}

/// Runs `scenario` with the default (synchronous) schedule. See
/// [`run_distributed_with`].
pub fn run_distributed_probed(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
) -> RunResult {
    run_distributed_with(
        scenario,
        num_procs,
        threads_per_rank,
        steps,
        probes,
        DriverConfig::default(),
    )
}

/// Runs `scenario` without probes. See [`run_distributed_probed`].
pub fn run_distributed(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
) -> RunResult {
    run_distributed_probed(scenario, num_procs, threads_per_rank, steps, &[])
}

/// Metric name of the hidden-communication accumulator (seconds of
/// compute executed while ghost messages were in flight).
pub(crate) const M_OVERLAP_HIDDEN: &str = "driver.overlap_hidden_seconds";
/// Metric name of the per-step wall-time histogram.
pub(crate) const M_STEP_SECONDS: &str = "driver.step_seconds";

/// Timing fields of a [`RankResult`], folded out of a finished
/// [`Recorder`]: the comm counters are pushed into the metrics
/// registry, the per-kind span totals map onto the (disjoint)
/// category fields, and the snapshot itself is kept unless recording
/// was off.
pub(crate) struct FoldedObs {
    pub(crate) kernel: f64,
    pub(crate) comm: f64,
    pub(crate) boundary: f64,
    pub(crate) overlap_hidden: f64,
    pub(crate) stall: f64,
    pub(crate) wall: f64,
    pub(crate) obs: Option<RankObs>,
}

pub(crate) fn fold_obs(rec: Recorder, comm: &Communicator) -> FoldedObs {
    let c = comm.counters();
    let m = rec.metrics();
    m.add("comm.messages_sent", c.messages_sent);
    m.add("comm.bytes_sent", c.bytes_sent);
    m.add("comm.ctrl_messages_sent", c.ctrl_messages_sent);
    let enabled = rec.config().enabled();
    let wall = rec.wall();
    let obs = rec.finish();
    FoldedObs {
        kernel: obs.total(SpanKind::Kernel)
            + obs.total(SpanKind::KernelInterior)
            + obs.total(SpanKind::KernelShell),
        comm: obs.total(SpanKind::GhostPack) + obs.total(SpanKind::GhostDrain),
        boundary: obs.total(SpanKind::Boundary),
        overlap_hidden: obs.metrics.fcounter(M_OVERLAP_HIDDEN),
        stall: obs.total(SpanKind::Stall),
        wall,
        obs: enabled.then_some(obs),
    }
}

/// Count blocks whose requested in-place kernel silently resolved to
/// pull (sparse storage cannot run the AA-pattern) and surface the total
/// as the `kernel.fallback_pull` metric, so a carved run that asked for
/// `KernelChoice::InPlace` is observable rather than quietly slower.
pub(crate) fn count_kernel_fallbacks(rec: &Recorder, blocks: &[BlockSim]) {
    let n = blocks.iter().filter(|b| b.fell_back_to_pull()).count() as u64;
    if n > 0 {
        rec.metrics().add("kernel.fallback_pull", n);
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_loop(
    mut comm: Communicator,
    view: &DistributedForest,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    probes: &[[i64; 3]],
    cfg: DriverConfig,
    epoch: Instant,
) -> RankResult {
    let rank = comm.rank();
    let rec = Recorder::with_epoch(rank, cfg.obs, epoch);
    // Build local blocks.
    let mut blocks: Vec<BlockSim> = view.blocks.iter().map(|lb| scenario.build_block(lb)).collect();
    count_kernel_fallbacks(&rec, &blocks);
    let index_of: HashMap<BlockId, usize> =
        view.blocks.iter().enumerate().map(|(i, b)| (b.id, i)).collect();

    let mass_initial: f64 = blocks.iter().map(BlockSim::fluid_mass).sum();
    let energy_initial: f64 = blocks.iter().map(BlockSim::kinetic_energy).sum();
    let mut stats = SweepStats::default();
    let mut ctx = GhostCtx::new();
    let mut force_series: Vec<[f64; 3]> = Vec::new();
    let rel = scenario.relaxation;

    for t in 0..steps {
        rec.set_step(t);
        let step_span = rec.span(SpanKind::Step);
        if cfg.overlap {
            overlapped_step(
                &mut comm,
                view,
                &mut blocks,
                &index_of,
                &mut ctx,
                t,
                rel,
                threads_per_rank,
                &rec,
                &mut stats,
                None,
                cfg.force_mask,
                &mut force_series,
            )
            .expect("deadline-free step cannot fail");
        } else {
            // ---- ghost exchange ---------------------------------------
            let _ =
                exchange_ghosts(&mut comm, view, &mut blocks, &index_of, &mut ctx, t, None, &rec)
                    .expect("deadline-free exchange cannot fail");

            // ---- boundary sweep ---------------------------------------
            {
                let _b = rec.span(SpanKind::Boundary);
                for_each_block(&mut blocks, threads_per_rank, |b| b.apply_boundaries());
            }
            if let Some(mask) = cfg.force_mask {
                force_series.push(measure_forces(&blocks, mask));
            }

            // ---- stream-collide ---------------------------------------
            let kernel = rec.span(SpanKind::Kernel);
            let step_stats: Vec<SweepStats> =
                map_each_block(&mut blocks, threads_per_rank, move |b| b.stream_collide(rel));
            drop(kernel);
            for s in step_stats {
                stats.merge(s);
            }
        }
        rec.metrics().observe(M_STEP_SECONDS, step_span.finish());
    }

    let probe_out = locate_probes(scenario, view, &blocks, probes);
    let pdfs = if cfg.collect_pdfs { dump_pdfs(view, &blocks) } else { Vec::new() };
    let mass_final: f64 = blocks.iter().map(BlockSim::fluid_mass).sum();
    let energy_final: f64 = blocks.iter().map(BlockSim::kinetic_energy).sum();
    let has_nan = blocks.iter().any(BlockSim::has_nan);
    let f = fold_obs(rec, &comm);
    RankResult {
        rank,
        num_blocks: blocks.len(),
        stats,
        kernel_time: f.kernel,
        comm_time: f.comm,
        boundary_time: f.boundary,
        overlap_hidden: f.overlap_hidden,
        ghost_stall_time: f.stall,
        mass_initial,
        mass_final,
        energy_initial,
        energy_final,
        force_series,
        probes: probe_out,
        pdfs,
        has_nan,
        wall_time: f.wall,
        obs: f.obs,
        rebalance: None,
    }
}

/// Sums the masked momentum-exchange force over `blocks` in block order
/// — the deterministic fold every schedule reproduces. Valid only while
/// the pre-sweep populations are intact (after the boundary sweep,
/// before stream-collide).
pub(crate) fn measure_forces(blocks: &[BlockSim], mask: CellFlags) -> [f64; 3] {
    let mut out = [0.0; 3];
    for b in blocks {
        let f = b.boundary_force(mask);
        for d in 0..3 {
            out[d] += f[d];
        }
    }
    out
}

/// Serializes every block's interior PDFs for bitwise comparison.
pub(crate) fn dump_pdfs(view: &DistributedForest, blocks: &[BlockSim]) -> Vec<(u64, Vec<f64>)> {
    view.blocks
        .iter()
        .zip(blocks)
        .map(|(lb, b)| {
            let mut vals = Vec::with_capacity(b.shape.interior_cells() * 19);
            for (x, y, z) in b.shape.interior().iter() {
                for q in 0..19 {
                    vals.push(b.src.get(x, y, z, q));
                }
            }
            (lb.id.pack(), vals)
        })
        .collect()
}

/// One time step of the overlapped schedule:
///
/// 1. pack and post *all* sends (remote links), copy same-rank links;
/// 2. while the remote messages are in flight, run the interior boundary
///    prep (obstacle cells, which never read the ghost layer) and the
///    interior-core stream–collide on every local block;
/// 3. drain the expected ghost messages in **arrival order** via
///    [`Communicator::recv_any`] — not in the fixed posting order the
///    synchronous path blocks on — and finish each block's ghost boundary
///    prep + shell sweep the moment its last message lands, so shell
///    compute of early-completing blocks also hides late arrivals;
/// 4. swap all double buffers.
///
/// The result is bitwise identical to the synchronous schedule: the
/// interior/shell split partitions each block exactly once (pinned in
/// `trillium-kernels::dispatch`), the boundary split is order-independent
/// (pinned in `trillium-kernels::boundary`), and ghost slabs of distinct
/// directions are disjoint, so arrival-order unpacking is race-free.
///
/// With `timeout == Some(d)` every blocking receive in the drain is
/// bounded by `d` (the resilient schedule); an error leaves the blocks
/// in a torn mid-step state that the caller is expected to discard by
/// restoring a checkpoint. With `timeout == None` the call cannot fail
/// (a dead peer panics inside the infallible receive instead).
#[allow(clippy::too_many_arguments)]
pub(crate) fn overlapped_step(
    comm: &mut Communicator,
    view: &DistributedForest,
    blocks: &mut [BlockSim],
    index_of: &HashMap<BlockId, usize>,
    ctx: &mut GhostCtx,
    step: u64,
    rel: Relaxation,
    threads: usize,
    rec: &Recorder,
    stats: &mut SweepStats,
    timeout: Option<Duration>,
    force_mask: Option<CellFlags>,
    force_series: &mut Vec<[f64; 3]>,
) -> Result<(), trillium_comm::CommError> {
    // ---- post sends; same-rank links complete immediately --------------
    let pack = rec.span(SpanKind::GhostPack);
    post_ghosts(comm, view, blocks, index_of, ctx, step);
    pack.finish();
    let in_flight = !ctx.pairs.is_empty();

    // ---- overlap window: interior prep + interior sweeps ---------------
    let t_hide = rec.clock();
    {
        let _b = rec.span(SpanKind::Boundary);
        for_each_block(blocks, threads, |b| b.apply_boundaries_interior());
    }
    let kernel = rec.span(SpanKind::KernelInterior);
    let interior: Vec<SweepStats> =
        map_each_block(blocks, threads, move |b| b.stream_collide_interior(rel));
    drop(kernel);
    for (bi, s) in interior.iter().enumerate() {
        ctx.seconds[bi] = s.seconds;
    }
    if in_flight {
        rec.metrics().acc(M_OVERLAP_HIDDEN, rec.clock() - t_hide);
    }

    // Blocks with no outstanding remote messages (ghosts already complete
    // from local links) finish their shells now — still inside the
    // overlap window of the other blocks' messages.
    for bi in 0..blocks.len() {
        if ctx.outstanding[bi] == 0 {
            let hidden = finish_shell(&mut blocks[bi], bi, rel, ctx, rec, force_mask);
            if in_flight {
                rec.metrics().acc(M_OVERLAP_HIDDEN, hidden);
            }
        }
    }

    // ---- drain: arrival order, finish shells as blocks complete --------
    while !ctx.pairs.is_empty() {
        // Blocking here is *not* an exposed stall: every interior is
        // already swept and every block with a complete ghost layer has
        // finished its shell, so no runnable local work remains. The
        // wait is neighbor imbalance and lands in `comm_time` (see
        // [`RankResult::ghost_stall_time`]).
        let drain = rec.span(SpanKind::GhostDrain);
        let (i, data) = match comm.try_recv_any(&ctx.pairs) {
            Some(hit) => hit,
            None => match timeout {
                None => comm.recv_any(&ctx.pairs),
                Some(d) => comm.recv_any_timeout(&ctx.pairs, d)?,
            },
        };
        let (bi, d) = ctx.meta[i];
        ctx.pairs.swap_remove(i);
        ctx.meta.swap_remove(i);
        ctx.unpack(&mut blocks[bi], d, data);
        drain.finish();
        ctx.outstanding[bi] -= 1;
        if ctx.outstanding[bi] == 0 {
            let hidden = finish_shell(&mut blocks[bi], bi, rel, ctx, rec, force_mask);
            if !ctx.pairs.is_empty() {
                rec.metrics().acc(M_OVERLAP_HIDDEN, hidden);
            }
        }
    }

    // ---- swap + accounting --------------------------------------------
    for_each_block(blocks, threads, |b| b.swap_buffers());
    if force_mask.is_some() {
        // Fold per-block forces in block order — the same additions, in
        // the same sequence, as the synchronous schedule's fold.
        let mut f = [0.0; 3];
        for bf in &ctx.forces {
            for d in 0..3 {
                f[d] += bf[d];
            }
        }
        force_series.push(f);
    }
    for (bi, b) in blocks.iter().enumerate() {
        // Region sweeps count traversed cells but cannot attribute
        // fluid-ness per sub-span; report the same totals as a full sweep.
        let (cells, fluid_cells) = b.sweep_counts();
        stats.merge(SweepStats { cells, fluid_cells, seconds: ctx.seconds[bi] });
    }
    Ok(())
}

/// Ghost boundary prep + shell sweep for one block whose ghost layer just
/// became complete. Returns the seconds spent (the caller decides whether
/// they were hidden behind still-outstanding messages).
fn finish_shell(
    block: &mut BlockSim,
    bi: usize,
    rel: Relaxation,
    ctx: &mut GhostCtx,
    rec: &Recorder,
    force_mask: Option<CellFlags>,
) -> f64 {
    let b = rec.span(SpanKind::Boundary);
    block.apply_boundaries_ghost();
    let tb = b.finish();
    // The full boundary sweep (interior + ghost) is now done and the
    // shell sweep has not yet run: this is the same program point, per
    // block, at which the synchronous schedule measures forces.
    if let Some(mask) = force_mask {
        ctx.forces[bi] = block.boundary_force(mask);
    }
    let k = rec.span(SpanKind::KernelShell);
    let s = block.stream_collide_shell(rel);
    let tk = k.finish();
    ctx.seconds[bi] += s.seconds;
    tb + tk
}

/// Evaluates the probes this rank owns (global cell → velocity).
pub(crate) fn locate_probes(
    scenario: &Scenario,
    view: &DistributedForest,
    blocks: &[BlockSim],
    probes: &[[i64; 3]],
) -> Vec<([i64; 3], [f64; 3])> {
    let cells = [scenario.cells[0] as i64, scenario.cells[1] as i64, scenario.cells[2] as i64];
    let mut out = Vec::new();
    for &p in probes {
        for (i, lb) in view.blocks.iter().enumerate() {
            let local = [
                p[0] - lb.coords[0] * cells[0],
                p[1] - lb.coords[1] * cells[1],
                p[2] - lb.coords[2] * cells[2],
            ];
            if (0..3).all(|d| local[d] >= 0 && local[d] < cells[d]) {
                let u = blocks[i].velocity(local[0] as i32, local[1] as i32, local[2] as i32);
                out.push((p, u));
            }
        }
    }
    out
}

/// Runs `scenario` with the runtime load balancer enabled: per-block
/// costs are measured every step, the global imbalance is checked every
/// [`RebalanceConfig::every_n_steps`] steps, and blocks migrate between
/// ranks (state and all) when the measured imbalance persists. See
/// `trillium-rebalance` for the monitoring/planning machinery and
/// [`crate::migrate`] for the transfer protocol.
pub fn run_distributed_rebalanced(
    scenario: &Scenario,
    num_procs: u32,
    threads_per_rank: usize,
    steps: u64,
    cfg: RebalanceConfig,
) -> RunResult {
    let plan = plan_run(scenario, num_procs);
    let results = World::run(num_procs, |comm| {
        drive_rank_rebalanced(comm, &plan, scenario, threads_per_rank, steps, cfg)
    });
    RunResult { steps, ranks: results }
}

/// Runs one rank of a load-balanced distributed simulation on a
/// caller-provided communicator — the re-entrant per-rank entry point
/// behind [`run_distributed_rebalanced`]. Each rank clones the plan's
/// forest and its own view, since the rebalanced schedule mutates
/// ownership as blocks migrate.
pub fn drive_rank_rebalanced(
    comm: Communicator,
    plan: &RunPlan,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    cfg: RebalanceConfig,
) -> RankResult {
    let rank = comm.rank() as usize;
    rank_loop_rebalanced(
        comm,
        plan.forest.clone(),
        plan.views[rank].clone(),
        scenario,
        threads_per_rank,
        steps,
        cfg,
        plan.epoch,
    )
}

#[allow(clippy::too_many_arguments)]
fn rank_loop_rebalanced(
    mut comm: Communicator,
    mut forest: SetupForest,
    mut view: DistributedForest,
    scenario: &Scenario,
    threads_per_rank: usize,
    steps: u64,
    cfg: RebalanceConfig,
    epoch: Instant,
) -> RankResult {
    let rank = comm.rank();
    let size = comm.size();
    let rec = Recorder::with_epoch(rank, cfg.obs, epoch);
    let mut blocks: Vec<BlockSim> = view.blocks.iter().map(|lb| scenario.build_block(lb)).collect();
    count_kernel_fallbacks(&rec, &blocks);
    let mut index_of: HashMap<BlockId, usize> =
        view.blocks.iter().enumerate().map(|(i, b)| (b.id, i)).collect();

    let mass_initial: f64 = blocks.iter().map(BlockSim::fluid_mass).sum();
    let energy_initial: f64 = blocks.iter().map(BlockSim::kinetic_energy).sum();
    let mut stats = SweepStats::default();
    let mut force_series: Vec<[f64; 3]> = Vec::new();

    let mut model = EwmaCostModel::new(cfg.ewma_alpha);
    let mut detector =
        ImbalanceDetector::new(cfg.threshold, cfg.hysteresis).with_cooldown(cfg.cooldown_epochs);
    let mut report = RebalanceReport::default();
    let mut ctx = GhostCtx::new();

    for t in 0..steps {
        rec.set_step(t);
        let step_span = rec.span(SpanKind::Step);
        let (ghost_work, _ghost_stall) =
            exchange_ghosts(&mut comm, &view, &mut blocks, &index_of, &mut ctx, t, None, &rec)
                .expect("deadline-free exchange cannot fail");
        report.comm_work_time += ghost_work;

        {
            let _b = rec.span(SpanKind::Boundary);
            for_each_block(&mut blocks, threads_per_rank, |b| b.apply_boundaries());
        }
        if let Some(mask) = cfg.force_mask {
            force_series.push(measure_forces(&blocks, mask));
        }

        let kernel = rec.span(SpanKind::Kernel);
        let rel = scenario.relaxation;
        let step_stats: Vec<SweepStats> =
            map_each_block(&mut blocks, threads_per_rank, move |b| b.stream_collide(rel));
        drop(kernel);

        // Feed the cost model: each block's measured sweep time plus an
        // equal share of this step's ghost-exchange *work* (not the time
        // spent blocked waiting for neighbors — see [`exchange_ghosts`]).
        let ghost_share = if blocks.is_empty() { 0.0 } else { ghost_work / blocks.len() as f64 };
        for (bi, s) in step_stats.iter().enumerate() {
            model.update(view.blocks[bi].id.pack(), s.seconds + ghost_share);
            stats.merge(*s);
        }

        // ---- epoch boundary: measure, decide, maybe migrate -----------
        if (t + 1) % cfg.every_n_steps.max(1) == 0 {
            let epoch_span = rec.span(SpanKind::RebalanceEpoch);
            let (_, max, sum) = comm.allreduce_minmaxsum_f64(model.total());
            let ratio = if sum > 0.0 { max * size as f64 / sum } else { 1.0 };
            let mut migrated = 0u32;
            // The ratio is bitwise identical on every rank (same gathered
            // values folded in the same order), so the detector decision
            // and the plan need no extra agreement round.
            if detector.observe(ratio) {
                let records: Vec<BlockRecord> = view
                    .blocks
                    .iter()
                    .enumerate()
                    .map(|(bi, lb)| BlockRecord {
                        id: lb.id.pack(),
                        owner: rank,
                        coords: [lb.coords[0] as u32, lb.coords[1] as u32, lb.coords[2] as u32],
                        level: lb.id.level(),
                        cost: model.cost(lb.id.pack()),
                        fluid_cells: blocks[bi].fluid_cells() as u64,
                    })
                    .collect();
                let gathered = comm.allgather_bytes(encode_records(&records));
                let all: Vec<BlockRecord> =
                    gathered.iter().flat_map(|b| decode_records(b)).collect();
                let mut plan = plan_rebalance(all, size, &cfg.plan);
                // Drop structurally invalid migrations instead of letting
                // the transfer protocol panic on them. The plan is computed
                // from identical input on every rank, so the dropped set is
                // identical too and the protocol stays symmetric.
                let dropped = plan.sanitize();
                rec.metrics().add("rebalance.plan_skipped", dropped.len() as u64);
                if !plan.migrations.is_empty() {
                    migrated = plan.migrations.len() as u32;
                    for m in &plan.migrations {
                        if m.from == rank {
                            model.forget(m.id);
                        }
                    }
                    let ms = execute_migrations(
                        &mut comm,
                        &plan,
                        &mut forest,
                        &mut view,
                        &mut blocks,
                        &mut index_of,
                        scenario.boundary,
                        &rec,
                    );
                    // Received blocks are rebuilt from the wire format,
                    // which carries neither the collision operator nor
                    // the backend (both scenario-global); re-stamp every
                    // block.
                    for b in blocks.iter_mut() {
                        b.collision = scenario.collision;
                        b.backend = scenario.backend;
                    }
                    report.migrations_out += ms.sent;
                    report.migrations_in += ms.received;
                    report.rebalances += 1;
                    rec.metrics().add("rebalance.migrations_out", ms.sent as u64);
                    rec.metrics().add("rebalance.migrations_in", ms.received as u64);
                    rec.metrics().add("rebalance.rounds", 1);
                }
            }
            // Epoch work (allreduce, gather, plan, migration) is its own
            // span — it is coordination overhead, not ghost-exchange time,
            // so it no longer inflates `comm_time`.
            report.epoch_time += epoch_span.finish();
            report.epochs.push(EpochReport { step: t + 1, ratio, migrated });
        }
        rec.metrics().observe(M_STEP_SECONDS, step_span.finish());
    }

    report.final_costs = view
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, lb)| (lb.id.pack(), model.cost(lb.id.pack()), blocks[bi].fluid_cells() as u64))
        .collect();
    for (id, cost, _) in &report.final_costs {
        rec.metrics().gauge(&format!("rebalance.block_cost.{id}"), *cost);
    }

    let mass_final: f64 = blocks.iter().map(BlockSim::fluid_mass).sum();
    let energy_final: f64 = blocks.iter().map(BlockSim::kinetic_energy).sum();
    let has_nan = blocks.iter().any(BlockSim::has_nan);
    let f = fold_obs(rec, &comm);
    RankResult {
        rank,
        num_blocks: blocks.len(),
        stats,
        kernel_time: f.kernel,
        comm_time: f.comm,
        boundary_time: f.boundary,
        overlap_hidden: f.overlap_hidden,
        ghost_stall_time: f.stall,
        mass_initial,
        mass_final,
        energy_initial,
        energy_final,
        force_series,
        probes: Vec::new(),
        pdfs: if cfg.collect_pdfs { dump_pdfs(&view, &blocks) } else { Vec::new() },
        has_nan,
        wall_time: f.wall,
        obs: f.obs,
        rebalance: Some(report),
    }
}

/// Reusable ghost-exchange state: the precomputed 26-direction crossing
/// table plus message buffers and bookkeeping vectors recycled across
/// steps, so the per-step exchange fast path performs **no heap
/// allocation** after warm-up. Same-rank links need no buffer at all (they
/// copy straight between the blocks' fields). Received payloads are
/// recycled into the next step's send buffers — the per-step send and
/// receive counts are equal (every remote link is symmetric), so the pool
/// reaches a steady state after one step.
pub(crate) struct GhostCtx {
    table: CrossingTable,
    pool: Vec<Vec<u8>>,
    /// `(from, tag)` pairs still outstanding, parallel to `meta`.
    pairs: Vec<(u32, u64)>,
    /// `(block index, direction)` per outstanding pair.
    meta: Vec<(usize, [i8; 3])>,
    /// Outstanding remote messages per local block.
    outstanding: Vec<u32>,
    /// Accumulated sweep seconds per local block this step.
    seconds: Vec<f64>,
    /// Per-block masked boundary force this step (overlapped schedule:
    /// written in `finish_shell`, folded in block order at step end).
    forces: Vec<[f64; 3]>,
}

impl GhostCtx {
    pub(crate) fn new() -> Self {
        GhostCtx {
            table: CrossingTable::new::<D3Q19>(),
            pool: Vec::new(),
            pairs: Vec::new(),
            meta: Vec::new(),
            outstanding: Vec::new(),
            seconds: Vec::new(),
            forces: Vec::new(),
        }
    }

    /// Resets the per-step bookkeeping for `num_blocks` local blocks.
    fn begin_step(&mut self, num_blocks: usize) {
        self.pairs.clear();
        self.meta.clear();
        self.outstanding.clear();
        self.outstanding.resize(num_blocks, 0);
        self.seconds.clear();
        self.seconds.resize(num_blocks, 0.0);
        self.forces.clear();
        self.forces.resize(num_blocks, [0.0; 3]);
    }

    /// Unpacks a message received from direction `d` into the fluid ghost
    /// cells of `block` and recycles its buffer.
    fn unpack(&mut self, block: &mut BlockSim, d: [i8; 3], data: Vec<u8>) {
        block.ghosts.unpack(&mut block.src, d, self.table.qs_reversed(d), &data);
        self.pool.push(data);
    }
}

/// The send phase shared by both schedules, over the blocks' fluid slab
/// lists. A same-rank link copies its sender's fluid boundary values
/// straight into the receiver's fluid ghost cells (skipped when the list
/// is empty). A remote link packs them into one message per step — empty
/// when the list is — and records the receive it expects back from the
/// symmetric link. Copies and packs read interior slabs and copies write
/// ghost slabs, so the order is free and the result equals any two-phase
/// pack-then-unpack scheme.
fn post_ghosts(
    comm: &mut Communicator,
    view: &DistributedForest,
    blocks: &mut [BlockSim],
    index_of: &HashMap<BlockId, usize>,
    ctx: &mut GhostCtx,
    step: u64,
) {
    ctx.begin_step(blocks.len());
    for (bi, lb) in view.blocks.iter().enumerate() {
        for (li, link) in lb.links.iter().enumerate() {
            let d = NEIGHBOR_DIRS[li];
            let qs = ctx.table.qs(d);
            if qs.is_empty() {
                continue; // corner links carry nothing for D3Q19
            }
            let rev = [-d[0], -d[1], -d[2]];
            match link {
                BlockLink::Border => {}
                BlockLink::Local(nid) => {
                    if blocks[bi].ghosts.send(d).is_empty() {
                        continue;
                    }
                    let (from, to) = pair_mut(blocks, bi, index_of[nid]);
                    from.ghosts.copy_to(&from.src, d, qs, &to.ghosts, &mut to.src);
                }
                BlockLink::Remote(nid, r) => {
                    let mut buf = ctx.pool.pop().unwrap_or_default();
                    buf.clear();
                    blocks[bi].ghosts.pack(&blocks[bi].src, d, qs, &mut buf);
                    comm.send(*r, ghost_tag(*nid, rev, step), buf);
                    // Symmetric link: we will receive the neighbor's data
                    // for our ghost slab in direction d.
                    ctx.pairs.push((*r, ghost_tag(lb.id, d, step)));
                    ctx.meta.push((bi, d));
                    ctx.outstanding[bi] += 1;
                }
            }
        }
    }
    // End of the send phase: release fault-delayed messages now, at a
    // program point, so failure behavior stays deterministic.
    comm.flush_delayed();
}

/// The sending block `a` shared and the receiving block `b` mutable. A
/// block is never its own neighbor: periodic axes need two root blocks.
fn pair_mut(blocks: &mut [BlockSim], a: usize, b: usize) -> (&BlockSim, &mut BlockSim) {
    assert_ne!(a, b, "a block cannot exchange ghosts with itself");
    if a < b {
        let (lo, hi) = blocks.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = blocks.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// One full ghost exchange on the source fields of all local blocks —
/// the *synchronous* schedule: everything is packed and sent, then the
/// expected messages are drained in posting order with blocking receives.
///
/// Returns `(work, stall)` seconds: `work` is this rank's own exchange
/// effort — packing, sending, and same-rank copies — excluding the time
/// blocked in `recv` waiting for neighbors. The distinction matters for
/// load measurement: an underloaded rank spends most of the exchange
/// *waiting* for its overloaded neighbors, and counting that wait as
/// local cost would make every rank look equally busy and hide the
/// imbalance completely. `stall` is the time blocked on messages that had
/// not yet arrived when asked for — exposed stall in the sense of
/// [`RankResult::ghost_stall_time`], since the synchronous schedule runs
/// this exchange with the whole stream-collide sweep still pending.
///
/// With `timeout == Some(d)` each blocking receive is bounded by `d`
/// (resilient schedule; on error the caller discards the torn state and
/// restores a checkpoint); with `None` the call cannot return an error.
pub(crate) fn exchange_ghosts(
    comm: &mut Communicator,
    view: &DistributedForest,
    blocks: &mut [BlockSim],
    index_of: &HashMap<BlockId, usize>,
    ctx: &mut GhostCtx,
    step: u64,
    timeout: Option<Duration>,
    rec: &Recorder,
) -> Result<(f64, f64), trillium_comm::CommError> {
    // Phase 1: copy same-rank links, pack and send remote ones.
    let pack = rec.span(SpanKind::GhostPack);
    post_ghosts(comm, view, blocks, index_of, ctx, step);
    let work = pack.finish();
    let mut stall = 0.0;
    // The drain span covers unpacking; blocked waits are carved out into
    // disjoint `Stall` spans so `comm_time` never includes exposed stall.
    let mut drain = rec.span(SpanKind::GhostDrain);
    for i in 0..ctx.pairs.len() {
        let (from, tag) = ctx.pairs[i];
        let (bi, d) = ctx.meta[i];
        let data = match comm.try_recv(from, tag) {
            Some(data) => data,
            None => {
                let sg = rec.span(SpanKind::Stall);
                let res = match timeout {
                    None => Ok(comm.recv(from, tag)),
                    Some(dl) => comm.recv_timeout(from, tag, dl),
                };
                let s = sg.finish();
                drain.exclude(s);
                stall += s;
                res?
            }
        };
        ctx.unpack(&mut blocks[bi], d, data);
    }
    drain.finish();
    Ok((work, stall))
}

/// Splits `items` into exactly `min(parts, len)` contiguous slices whose
/// sizes differ by at most one (the first `len % parts` slices get the
/// extra element). `div_ceil`-sized chunking could leave whole threads
/// idle — 9 blocks on 4 threads gave chunks of 3/3/3 and an idle fourth
/// worker; here they get 3/2/2/2.
fn balanced_parts<T>(items: &mut [T], parts: usize) -> Vec<&mut [T]> {
    let n = items.len();
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut rest = items;
    let mut out = Vec::with_capacity(parts);
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// Applies `f` to every block, optionally with thread parallelism (the
/// hybrid MPI+OpenMP analogue: one rank, several threads over its blocks).
pub(crate) fn for_each_block<F: Fn(&mut BlockSim) + Sync>(
    blocks: &mut [BlockSim],
    threads: usize,
    f: F,
) {
    if threads <= 1 || blocks.len() <= 1 {
        for b in blocks.iter_mut() {
            f(b);
        }
    } else {
        std::thread::scope(|scope| {
            for part in balanced_parts(blocks, threads) {
                scope.spawn(|| {
                    for b in part {
                        f(b);
                    }
                });
            }
        });
    }
}

/// Like [`for_each_block`] but collecting results in block order.
pub(crate) fn map_each_block<T: Send, F: Fn(&mut BlockSim) -> T + Sync>(
    blocks: &mut [BlockSim],
    threads: usize,
    f: F,
) -> Vec<T> {
    if threads <= 1 || blocks.len() <= 1 {
        blocks.iter_mut().map(f).collect()
    } else {
        let mut out: Vec<Vec<T>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = balanced_parts(blocks, threads)
                .into_iter()
                .map(|part| scope.spawn(|| part.iter_mut().map(&f).collect::<Vec<T>>()))
                .collect();
            for h in handles {
                out.push(h.join().expect("block worker panicked"));
            }
        });
        out.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decisive distributed-correctness test: a multi-rank,
    /// multi-block run must produce *bit-identical* velocities to the
    /// single-rank, single-block run of the same problem — ghost exchange
    /// is exact, not approximate.
    #[test]
    fn distributed_equals_single_block() {
        let probes: Vec<[i64; 3]> =
            vec![[1, 1, 1], [8, 8, 14], [7, 8, 8], [8, 7, 3], [15, 15, 15], [0, 15, 8]];
        // Reference: one rank, one block of 16³.
        let s1 = Scenario::lid_driven_cavity(16, 1, 0.06, 0.08);
        let r1 = crate::driver::run_distributed_probed(&s1, 1, 1, 40, &probes);
        // Distributed: 8 ranks, 2×2×2 blocks of 8³.
        let s8 = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
        let r8 = crate::driver::run_distributed_probed(&s8, 8, 1, 40, &probes);

        assert!(!r1.has_nan() && !r8.has_nan());
        let p1 = r1.probes();
        let p8 = r8.probes();
        assert_eq!(p1.len(), probes.len());
        assert_eq!(p8.len(), probes.len());
        for ((c1, u1), (c8, u8)) in p1.iter().zip(&p8) {
            assert_eq!(c1, c8);
            for d in 0..3 {
                assert_eq!(u1[d], u8[d], "mismatch at {c1:?} axis {d}");
            }
        }
        // Same total work.
        assert_eq!(r1.total_stats().cells, r8.total_stats().cells);
    }

    /// Multiple blocks per rank (4 ranks × 2 blocks) and hybrid threading
    /// must also reproduce the single-block reference.
    #[test]
    fn multiblock_and_threads_equal_single() {
        let probes: Vec<[i64; 3]> = vec![[3, 5, 9], [11, 2, 4], [6, 6, 6]];
        let s1 = Scenario::lid_driven_cavity(12, 1, 0.05, 0.1);
        let r1 = crate::driver::run_distributed_probed(&s1, 1, 1, 25, &probes);
        let s_multi = Scenario::lid_driven_cavity(12, 2, 0.05, 0.1);
        let r4 = crate::driver::run_distributed_probed(&s_multi, 4, 2, 25, &probes);
        for ((_, u1), (_, u4)) in r1.probes().iter().zip(&r4.probes()) {
            for d in 0..3 {
                assert_eq!(u1[d], u4[d]);
            }
        }
    }

    #[test]
    fn cavity_conserves_mass_across_ranks() {
        let s = Scenario::lid_driven_cavity(16, 2, 0.08, 0.05);
        let r = run_distributed(&s, 4, 1, 30);
        assert!(r.mass_drift().abs() < 1e-11, "drift {}", r.mass_drift());
        assert_eq!(r.total_stats().cells, 16 * 16 * 16 * 30);
    }

    #[test]
    fn channel_develops_throughflow() {
        let s = Scenario::channel_with_obstacle([32, 8, 8], [4, 1, 1], 0.08, 0.04, 0.18);
        let probes: Vec<[i64; 3]> = vec![[4, 4, 4], [16, 6, 4], [28, 4, 4]];
        let r = run_distributed_probed(&s, 4, 1, 120, &probes);
        assert!(!r.has_nan());
        let p = r.probes();
        // Flow moves in +x everywhere along the channel.
        for (c, u) in &p {
            assert!(u[0] > 1e-4, "no throughflow at {c:?}: {u:?}");
        }
    }

    #[test]
    fn timers_are_recorded() {
        let s = Scenario::lid_driven_cavity(8, 2, 0.05, 0.1);
        let r = run_distributed(&s, 2, 1, 5);
        for rr in &r.ranks {
            assert!(rr.kernel_time > 0.0);
            assert!(rr.comm_time > 0.0);
            assert!(rr.overlap_hidden == 0.0, "sync path must not report hidden time");
            assert!(rr.num_blocks == 4);
        }
        assert!(r.comm_fraction() > 0.0 && r.comm_fraction() < 1.0);
    }

    /// The tentpole equivalence: the overlapped schedule must produce
    /// *bitwise identical* PDFs to the synchronous reference, across
    /// multiple ranks, multiple blocks per rank, and hybrid threading.
    #[test]
    fn overlap_matches_sync_bitwise() {
        let s = Scenario::lid_driven_cavity(16, 2, 0.06, 0.08);
        let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
        let cfg_over = DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() };
        let sync = run_distributed_with(&s, 4, 1, 30, &[], cfg_sync);
        for threads in [1usize, 2] {
            let over = run_distributed_with(&s, 4, threads, 30, &[], cfg_over);
            assert!(!over.has_nan());
            let a = sync.pdf_dump();
            let b = over.pdf_dump();
            assert_eq!(a.len(), b.len());
            for ((id_a, va), (id_b, vb)) in a.iter().zip(&b) {
                assert_eq!(id_a, id_b);
                assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb) {
                    assert!(x == y, "block {id_a}: overlap deviates ({threads} threads)");
                }
            }
            // Identical accounting too: same cells and fluid cells swept.
            assert_eq!(sync.total_stats().cells, over.total_stats().cells);
            assert_eq!(sync.total_stats().fluid_cells, over.total_stats().fluid_cells);
            // The overlapped run measured hidden compute, and it never
            // blocked while runnable work remained.
            assert!(over.overlap_hidden() > 0.0);
            assert!(
                over.ranks.iter().all(|rr| rr.ghost_stall_time == 0.0),
                "overlap must not expose stall"
            );
        }
    }

    /// The overlapped schedule must also match on a sparse geometry
    /// (row-interval kernels) with an interior obstacle — the shell/core
    /// split interacts with both kernel types and the split boundary
    /// sweeps.
    #[test]
    fn overlap_matches_sync_on_sparse_channel() {
        let s = Scenario::channel_with_obstacle([24, 8, 8], [3, 1, 1], 0.08, 0.04, 0.18);
        let cfg_sync = DriverConfig { collect_pdfs: true, ..Default::default() };
        let cfg_over = DriverConfig { overlap: true, collect_pdfs: true, ..Default::default() };
        let sync = run_distributed_with(&s, 3, 1, 40, &[], cfg_sync);
        let over = run_distributed_with(&s, 3, 1, 40, &[], cfg_over);
        assert!(!sync.has_nan() && !over.has_nan());
        let (a, b) = (sync.pdf_dump(), over.pdf_dump());
        assert!(!a.is_empty());
        assert_eq!(a, b, "sparse overlap deviates from sync");
    }

    #[test]
    fn balanced_parts_use_every_thread() {
        let mut v: Vec<u32> = (0..9).collect();
        let parts = balanced_parts(&mut v, 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2, 2]);
        let mut v: Vec<u32> = (0..3).collect();
        assert_eq!(balanced_parts(&mut v, 8).len(), 3, "never more parts than items");
        let mut v: Vec<u32> = (0..8).collect();
        let parts = balanced_parts(&mut v, 4);
        assert!(parts.iter().all(|p| p.len() == 2));
        // Order is preserved.
        let flat: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(flat, (0..8).collect::<Vec<u32>>());
    }
}
