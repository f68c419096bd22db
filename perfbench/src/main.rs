//! trillium's benchmark: end-to-end rates, set-up time and memory of
//! three workloads driven through the public run calls, and per-layer
//! attribution from a traced single-thread replay.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod host;
mod replay;
mod workload;

use host::Host;
use replay::{Built, Replay, StepTimes};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trillium_core::blocksim::BlockKernel;
use trillium_core::UpdateScheme;
use trillium_perfmodel::EcmModel;
use workload::{check, check_same_digest, Outcome, Workload};

const USAGE: &str =
    "usage: perfbench --workload <cavity-pull|vascular-sparse|cavity-inplace-ckpt> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Zero-step calls whose median wall is `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Measured runs per end-to-end result, at the least.
const MIN_RUNS: usize = 2;
/// A window that failing runs stretch past this multiple of `--seconds`
/// ends anyway.
const MAX_WINDOW_FACTOR: f64 = 3.0;
/// Computed bytes per fluid-cell update of the pull update: 19 loads,
/// 19 stores and 19 write-allocates of 8 B.
const PULL_BYTES_PER_UPDATE: f64 = 456.0;
/// Computed bytes per fluid-cell update of the in-place update: 19 loads
/// and 19 stores of 8 B.
const INPLACE_BYTES_PER_UPDATE: f64 = 304.0;
/// STREAM arrays span at least this many last-level caches.
const STREAM_LLC_MULTIPLE: u64 = 4;
/// Timed STREAM copy passes.
const STREAM_REPETITIONS: usize = 5;

/// End-to-end metric names with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] =
    [("mflups", "MFLUPS"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metric names with their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("kernels.dense_sweep_s", "s"),
    ("kernels.dense_mflups", "MFLUPS"),
    ("kernels.dense_roofline_frac", "1"),
    ("kernels.sparse_sweep_s", "s"),
    ("kernels.sparse_mflups", "MFLUPS"),
    ("kernels.sparse_roofline_frac", "1"),
    ("kernels.fallback_blocks", "count"),
    ("boundary.apply_s", "s"),
    ("comm.pack_s", "s"),
    ("comm.unpack_s", "s"),
    ("comm.bytes_per_step", "B"),
    ("comm.bytes_sent_per_step", "B"),
    ("comm.messages_per_step", "count"),
    ("comm.bytes_model", "B"),
    ("comm.sparse_bytes_per_step", "B"),
    ("setup.forest_s", "s"),
    ("setup.distribute_s", "s"),
    ("setup.build_block_s", "s"),
    ("blockforest.blocks", "count"),
    ("blockforest.fluid_cells", "count"),
    ("blockforest.imbalance", "1"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.bytes", "B"),
    ("machine.stream_gbs", "GB/s"),
    ("perfmodel.ecm_mflups", "MFLUPS"),
    ("driver.kernel_s", "s"),
    ("driver.boundary_s", "s"),
    ("driver.ghost_s", "s"),
    ("driver.stall_s", "s"),
    ("replay.step_s", "s"),
    ("replay.residual_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: run the public call once with this many
    /// steps and report the outcome.
    child_steps: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child_steps) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(parse::<u64>(&flag, &value)?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--child-steps" => child_steps = Some(parse::<u64>(&flag, &value)?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if child_steps.is_some() {
        return Ok(Args { workload, seed, seconds: 0.0, trace: false, child_steps });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args { workload, seed, seconds, trace, child_steps })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(steps) = args.child_steps {
        return child(args.workload, args.seed, steps);
    }
    let report = if args.trace { traced(&args) } else { measured(&args) };
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Child process: one public call, its outcome on the last line.
fn child(w: Workload, seed: u64, steps: u64) -> ExitCode {
    let scenario = w.scenario(seed);
    match w.run(&scenario, steps) {
        Ok(mut o) => {
            o.rss_kib = host::peak_rss_kib();
            println!("outcome {}", o.to_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the public call of `w` in a fresh process, so that its peak
/// resident set is the run's own.
fn spawn(w: Workload, seed: u64, steps: u64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--child-steps",
            &steps.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} run of {steps} steps exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("outcome "))
        .ok_or_else(|| format!("{} run printed no outcome", w.name()))?;
    Outcome::from_line(line)
}

/// Pass/fail bookkeeping of the checked runs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one checked item; logs the reason of a failure.
    fn record(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &r {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
        r.is_ok()
    }

    /// Runs and checks one call; `None` if it failed.
    fn run(&mut self, w: Workload, seed: u64, steps: u64, fluid_cells: u64) -> Option<Outcome> {
        let what = format!("{} run of {steps} steps", w.name());
        match spawn(w, seed, steps).and_then(|o| check(w, &o, fluid_cells).map(|()| o)) {
            Ok(o) => {
                self.record(&what, Ok(()));
                Some(o)
            }
            Err(e) => {
                self.record(&what, Err(e));
                None
            }
        }
    }
}

/// The metrics of one invocation and the checks behind them.
struct Report {
    checks: Checks,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn new(checks: Checks, names: &[(&'static str, &'static str)], values: &[f64]) -> Report {
        let metrics = names.iter().zip(values).map(|(&(n, u), &v)| (n, u, v)).collect();
        Report { checks, metrics }
    }

    /// Prints one line per metric and returns the JSON result line.
    fn json(mut self) -> String {
        for (name, unit, v) in &mut self.metrics {
            println!("{name:<32} {v:>16.6} {unit}");
            if !v.is_finite() {
                self.checks.record(name, Err(format!("metric is {v}")));
                *v = 0.0;
            }
        }
        let failed_frac = self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        println!(
            "{:<32} {failed_frac:>16.6} ({} of {} checks)",
            "failed_frac", self.checks.failed, self.checks.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Prints the host and what runs on the workload's blocks.
fn describe(
    host: &Host,
    w: Workload,
    seed: u64,
    built: &Built,
    scenario: &trillium_core::Scenario,
) {
    println!("{}", host.line());
    let classes: Vec<String> = built.classes().iter().map(|(k, n)| format!("{k}:{n}")).collect();
    println!(
        "workload: {} seed={seed} ranks={} threads={} steps={} blocks={} fluid_cells={}",
        w.name(),
        workload::RANKS,
        workload::THREADS,
        w.steps(),
        built.blocks.len(),
        built.fluid_cells()
    );
    println!(
        "kernels: backend={} resolved={} classes={} fell_back_to_pull={}",
        scenario.backend.label(),
        scenario.backend.resolve().label(),
        classes.join(","),
        built.fallbacks()
    );
}

/// End-to-end run: set-up time, then measured runs for `seconds`.
fn measured(args: &Args) -> Report {
    let (w, seed) = (args.workload, args.seed);
    let scenario = w.scenario(seed);
    let fluid_cells = {
        let built = Built::new(&scenario);
        describe(&Host::detect(), w, seed, &built, &scenario);
        built.fluid_cells()
    };
    let mut checks = Checks::default();

    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .filter_map(|_| checks.run(w, seed, 0, fluid_cells))
        .map(|o| o.wall_s)
        .collect();
    let setup_s = median(&setup);
    let walls: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "setup: {} calls of 0 steps, walls {} s, median {setup_s:.4} s",
        setup.len(),
        walls.join(" ")
    );

    let mut digests = Vec::new();
    if let Some(sib) = w.sibling() {
        if let Some(o) = checks.run(sib, seed, w.steps(), fluid_cells) {
            digests.push(o.digest);
        }
    }

    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    // Runs until the next one would end past the window, and at least
    // MIN_RUNS of them.
    let window = Instant::now();
    let mut last_wall = 0.0;
    while rates.len() < MIN_RUNS || window.elapsed().as_secs_f64() + last_wall <= args.seconds {
        if window.elapsed().as_secs_f64() > MAX_WINDOW_FACTOR * args.seconds {
            break;
        }
        let Some(o) = checks.run(w, seed, w.steps(), fluid_cells) else { continue };
        last_wall = o.wall_s;
        let loop_s = o.wall_s - setup_s;
        if !checks.record(
            "time loop longer than set-up",
            if loop_s > 0.0 { Ok(()) } else { Err(format!("loop {loop_s} s")) },
        ) {
            continue;
        }
        rates.push(o.fluid_updates as f64 / loop_s / 1e6);
        rss.push(o.rss_kib as f64 / 1024.0);
        println!(
            "run {}: wall {:.4} s, {:.3} MFLUPS, peak rss {:.1} MiB",
            rates.len(),
            o.wall_s,
            rates[rates.len() - 1],
            rss[rss.len() - 1]
        );
        digests.push(o.digest);
    }
    checks.record(
        "final states equal across runs",
        check_same_digest(w.name(), digests.iter().map(String::as_str)),
    );
    if rates.is_empty() {
        checks.record("measured runs", Err("no run passed its checks".into()));
    }
    println!("measured: {} runs in {:.1} s", rates.len(), window.elapsed().as_secs_f64());
    Report::new(checks, &END_TO_END, &[median(&rates), setup_s, median(&rss)])
}

/// Traced run: per-layer metrics from the replay, the set-up calls, a
/// checkpoint round trip, STREAM, the ECM model and the driver's own
/// split of one end-to-end run.
fn traced(args: &Args) -> Report {
    let (w, seed) = (args.workload, args.seed);
    let host = Host::detect();
    let mut checks = Checks::default();

    // STREAM first, so its arrays are freed before the blocks exist.
    let array_bytes = (host.llc_kib * 1024 * STREAM_LLC_MULTIPLE).max(1 << 30);
    let stream_gib =
        trillium_machine::measure_copy_bandwidth(array_bytes as usize, STREAM_REPETITIONS);
    let stream_gbs = stream_gib * (1u64 << 30) as f64 / 1e9;
    println!(
        "stream: copy {stream_gbs:.3} GB/s, two arrays of {} MiB (llc {} KiB x {STREAM_LLC_MULTIPLE})",
        array_bytes >> 20,
        host.llc_kib
    );

    let scenario = w.scenario(seed);
    let mut built = Built::new(&scenario);
    describe(&host, w, seed, &built, &scenario);
    let mut replay = Replay::new(&built, w.overlapped());
    let bytes_model = replay.remote_model_bytes(&built);
    let sparse_bytes = replay.remote_sparse_bytes(&built);

    let mass0 = built.mass();
    let rel = scenario.relaxation;
    let steps: Vec<StepTimes> =
        (0..w.steps()).map(|_| replay.step(&mut built.blocks, rel)).collect();
    let mut order: Vec<usize> = (0..steps.len()).collect();
    order.sort_by(|&a, &b| steps[a].step_s.total_cmp(&steps[b].step_s));
    let t = steps[order[order.len() / 2]];
    let replay_nan = built.blocks.iter().any(|b| b.has_nan());
    checks.record(
        "replay final state is finite",
        if replay_nan { Err("NaN".into()) } else { Ok(()) },
    );
    if w.closed() {
        let drift = (built.mass() - mass0) / mass0;
        checks.record(
            "replay conserves cavity mass",
            if drift.abs() <= workload::MASS_DRIFT_BOUND {
                Ok(())
            } else {
                Err(format!("drift {drift:e}"))
            },
        );
    }

    let ckpt = replay::checkpoint(&built, w.steps(), scenario.boundary);
    checks.record("checkpoint round trip", ckpt.as_ref().map(|_| ()).map_err(Clone::clone));
    let ckpt = ckpt.unwrap_or_default();

    // The driver's own split of one end-to-end run of the same length;
    // its final state must equal the replay's bit for bit.
    let fluid_cells = built.fluid_cells();
    let digest = built.digest();
    let dense_cells = built.fluid_cells_of(BlockKernel::Dense);
    let sparse_cells = built.fluid_cells_of(BlockKernel::RowIntervals);
    let dense_bpu = match replay::dense_scheme(&built.blocks) {
        Some(UpdateScheme::InPlace) => INPLACE_BYTES_PER_UPDATE,
        _ => PULL_BYTES_PER_UPDATE,
    };
    let (blocks, imbalance, fallbacks) =
        (built.blocks.len(), built.forest.imbalance(), built.fallbacks());
    let (forest_s, distribute_s, build_block_s) =
        (built.forest_s, built.distribute_s, built.build_block_s);
    let bytes_per_step = replay.bytes_per_step;
    drop(built);
    let run = checks.run(w, seed, w.steps(), fluid_cells);
    if let Some(o) = &run {
        checks.record(
            "replay equals the driver bit for bit",
            check_same_digest("replay vs driver", [digest.as_str(), o.digest.as_str()].into_iter()),
        );
    }
    let run = run.unwrap_or_default();
    let per_step = |x: f64| x / w.steps() as f64;

    let roofline = |bpu: f64| stream_gbs * 1e9 / bpu / 1e6;
    let rate = |cells: f64, secs: f64| if secs > 0.0 { cells / secs / 1e6 } else { 0.0 };
    let (dense_rate, sparse_rate) = (rate(dense_cells, t.dense_s), rate(sparse_cells, t.sparse_s));
    let mut ecm =
        EcmModel::supermuc_trt_simd(if host.clock_ghz > 0.0 { host.clock_ghz } else { 2.7 });
    ecm.mem_bw_gib = stream_gib;
    if dense_bpu == INPLACE_BYTES_PER_UPDATE {
        ecm = ecm.inplace();
    }
    println!(
        "replay: {} steps on one thread, median step {:.4} s = {:.4} timed + {:.6} residual",
        steps.len(),
        t.step_s,
        t.step_s - t.residual_s(),
        t.residual_s()
    );
    let values = [
        t.dense_s,
        dense_rate,
        dense_rate / roofline(dense_bpu),
        t.sparse_s,
        sparse_rate,
        sparse_rate / roofline(PULL_BYTES_PER_UPDATE),
        fallbacks as f64,
        t.boundary_s,
        t.pack_s,
        t.unpack_s,
        bytes_per_step as f64,
        per_step(run.bytes_sent as f64),
        per_step(run.messages_sent as f64),
        bytes_model as f64,
        sparse_bytes as f64,
        forest_s,
        distribute_s,
        build_block_s,
        blocks as f64,
        fluid_cells as f64,
        imbalance,
        ckpt.save_s,
        ckpt.restore_s,
        ckpt.bytes as f64,
        stream_gbs,
        ecm.mlups(1),
        per_step(run.kernel_s),
        per_step(run.boundary_s),
        per_step(run.ghost_s),
        per_step(run.stall_s),
        t.step_s,
        t.residual_s(),
    ];
    Report::new(checks, &PER_LAYER, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_core::{run_distributed_with, DriverConfig, KernelChoice, Scenario};

    /// Blocks of the vascular workload (16³ cells each), as documented.
    const VASCULAR_BLOCKS: usize = 346;
    /// Fluid cells of the vascular workload, as documented.
    const VASCULAR_FLUID_CELLS: u64 = 194_885;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn entries(key: &str) -> Vec<(String, Option<String>)> {
        let json = benchmark_json();
        let list = json.get(key).and_then(|v| v.as_array()).expect("list present");
        list.iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(|v| v.as_str()).map(str::to_string);
                (field("name").expect("entry has a name"), field("unit"))
            })
            .collect()
    }

    fn owned(metrics: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        metrics.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let names: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        assert_eq!(entries("end_to_end"), owned(&END_TO_END));
        assert_eq!(entries("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut checks = Checks::default();
        checks.record("a", Ok(()));
        checks.record("b", Err("doctored".into()));
        let line = Report::new(checks, &END_TO_END, &[1.5, 0.25, f64::NAN]).json();
        let v = serde_json::from_str(&line).expect("result line is JSON");
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
        // The non-finite metric counts as one more failed check.
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(3));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(2));
        let mflups = v.get("metrics").and_then(|m| m.get("mflups")).unwrap();
        assert_eq!(mflups.get("value").and_then(|x| x.as_f64()), Some(1.5));
        assert_eq!(mflups.get("unit").and_then(|x| x.as_str()), Some("MFLUPS"));
    }

    #[test]
    fn cavity_builders_yield_the_documented_counts() {
        for (w, class) in
            [(Workload::CavityPull, "dense/pull"), (Workload::CavityInplaceCkpt, "dense/inplace")]
        {
            let built = Built::new(&w.scenario(0));
            assert_eq!(built.blocks.len(), 8);
            assert_eq!(built.fluid_cells(), 128 * 128 * 128);
            assert_eq!(built.classes().into_iter().collect::<Vec<_>>(), [(class.to_string(), 8)]);
            assert_eq!(built.fallbacks(), 0);
        }
    }

    #[test]
    fn vascular_builder_yields_the_documented_counts() {
        let built = Built::new(&Workload::VascularSparse.scenario(0));
        assert_eq!(built.blocks.len(), VASCULAR_BLOCKS);
        assert_eq!(built.blocks.len() * 16 * 16 * 16, 1_417_216);
        assert_eq!(built.fluid_cells(), VASCULAR_FLUID_CELLS);
        // The caps carry the inlet and outlet conditions, so flow starts.
        let velocity = built.blocks.iter().any(|b| {
            b.flags.data().iter().any(|&f| f & trillium_field::CellFlags::VELOCITY.0 != 0)
        });
        assert!(velocity, "no inlet cells: the caps were not colored");
    }

    #[test]
    fn seed_sets_only_the_vascular_inflow() {
        let speeds: Vec<f64> = (0..50).map(workload::inflow_speed).collect();
        assert!(speeds.iter().all(|s| (0.04..0.06).contains(s)));
        assert_eq!(workload::inflow_speed(7), workload::inflow_speed(7));
        assert_ne!(workload::inflow_speed(7), workload::inflow_speed(8));
    }

    /// The replay performs the driver's computation: on a small cavity its
    /// final state equals a driver run bit for bit, on both schedules.
    #[test]
    fn replay_matches_the_driver_bitwise() {
        for (kernel, overlapped) in [(KernelChoice::Pull, false), (KernelChoice::InPlace, true)] {
            let scenario = Scenario::lid_driven_cavity(16, 2, 0.05, 0.1).with_kernel(kernel);
            let cfg = if overlapped { DriverConfig::overlapped() } else { DriverConfig::default() };
            let run = run_distributed_with(&scenario, workload::RANKS, 1, 5, &[], cfg);
            let mass: f64 = run.ranks.iter().map(|r| r.mass_final).sum();
            let mut built = Built::new(&scenario);
            let mut replay = Replay::new(&built, overlapped);
            for _ in 0..5 {
                let t = replay.step(&mut built.blocks, scenario.relaxation);
                assert!(t.residual_s() >= 0.0 && t.residual_s() < t.step_s);
            }
            assert_eq!(built.digest(), workload::digest(mass, run.kinetic_energy_final()));
            // Every rank-crossing byte the model predicts is sent.
            assert_eq!(
                replay.remote_model_bytes(&built),
                run.metrics().counter("comm.bytes_sent") / 5
            );
        }
    }
}
