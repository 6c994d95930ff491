//! One benchmark run: set-up, timed solves, correctness checks and, in a
//! traced run, the layer ledger and call ladder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use quatrex::dist::DistReport;
use quatrex::linalg::{FlopCounter, FlopKind};
use quatrex::prelude::*;
use quatrex::serve::PointReport;

use crate::check::{self, Observed, ORACLE_BAND};
use crate::host::{self, Ceilings};
use crate::json::Metrics;
use crate::ladder::{self, PhaseTraffic};
use crate::ledger::{self, Ledger};
use crate::workload::{Inputs, Spec, Workload};

/// Set-ups measured after each timed solve; `setup_s` is the median of all
/// set-ups of the run.
pub const SETUP_REPS: usize = 100;
/// Timed solves per run at least, even when they overrun `--seconds`.
pub const MIN_REPS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons of every failure and failed check.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Manifest and exact-counter lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.metrics.non_finite().is_empty()
    }

    fn fail(&mut self, points: u64, reason: String) {
        self.failed += points;
        self.failures.push(reason);
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// The workload's fixed problem and this run's inputs.
struct Problem {
    workload: Workload,
    spec: Spec,
    inputs: Inputs,
}

impl Problem {
    fn sweep_config(&self, probe: bool) -> SweepConfig {
        SweepConfig::new(self.spec.scba(), self.spec.n_ranks)
            .with_spatial_partitions(self.spec.spatial_partitions)
            .with_energy_batches(self.spec.energy_batches)
            .with_warm_start(true)
            .with_potential_ramp(false)
            .with_probe(probe)
    }

    fn engine(&self, device: Device, probe: bool) -> SweepEngine {
        let mut engine = SweepEngine::new(device, self.sweep_config(probe));
        for &b in &self.inputs.biases {
            engine.enqueue(SweepPoint::new(b, self.inputs.temperature_k));
        }
        engine
    }

    fn dist_config(&self, bias: f64, probe: bool) -> DistScbaConfig {
        DistScbaConfig::new(self.inputs.scba_for(&self.spec, bias), self.spec.n_ranks)
            .with_spatial_partitions(self.spec.spatial_partitions)
            .with_energy_batches(self.spec.energy_batches)
            .with_probe(probe)
    }

    fn solver(&self, device: Device, probe: bool) -> DistScbaSolver {
        DistScbaSolver::new(device, self.dist_config(self.inputs.biases[0], probe))
    }

    fn is_sweep(&self) -> bool {
        self.workload == Workload::IvSweep
    }

    /// Build the device and construct the engine or solver, as a user does
    /// before the first solve.
    fn setup_once(&self) {
        let device = self.spec.build_device();
        if self.is_sweep() {
            std::hint::black_box(self.engine(device, false));
        } else {
            std::hint::black_box(self.solver(device, false));
        }
    }

    /// The sequential solver on the same inputs as point `bias`.
    fn oracle(&self, device: &Device, bias: f64) -> ScbaResult {
        let grid = device.default_energy_grid(self.spec.n_energies);
        ScbaSolver::with_grid(device.clone(), self.inputs.scba_for(&self.spec, bias), grid).run()
    }
}

fn observed_point(p: &PointReport) -> Observed {
    Observed {
        current: p.current,
        density: vec![p.electron_charge],
    }
}

fn observed_cells(o: &Observables) -> Observed {
    Observed {
        current: o.current,
        density: o.electron_density.clone(),
    }
}

fn observed_total(o: &Observables) -> Observed {
    Observed {
        current: o.current,
        density: vec![o.electron_density.iter().sum()],
    }
}

/// Counters of one sweep that must repeat exactly at a given seed.
fn sweep_counters(points: &[PointReport]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "[{:016x} it={} conv={} src={:?} I={:016x} n={:016x}]",
                p.point.bias_v.to_bits(),
                p.iterations,
                p.converged,
                p.warm_source,
                p.current.to_bits(),
                p.electron_charge.to_bits()
            )
        })
        .collect()
}

/// Counters of one distributed solve that must repeat exactly at a given seed.
fn dist_counters(r: &DistScbaResult) -> String {
    let flops: Vec<u64> = FlopKind::ALL.iter().map(|&k| r.flops.get(k)).collect();
    format!(
        "it={} bytes={:?} collectives={} flops={:?} memo_hit_rate={:016x} I={:016x}",
        r.iterations,
        r.report.alltoall_bytes_per_phase,
        r.report.n_collectives,
        flops,
        r.memoizer_hit_rate.to_bits(),
        r.observables.current.to_bits()
    )
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn manifest(args: &Args, spec: &Spec, ceilings: Option<&Ceilings>) -> String {
    let cores = host::available_parallelism();
    let mut m = format!(
        "manifest {{\"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"available_parallelism\": {cores}, \"isa\": \"{}\", \
         \"rank_threads\": {}, \"rank_threads_per_core\": {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host::git_rev(),
        host::isa(),
        spec.n_ranks,
        spec.n_ranks as f64 / cores as f64
    );
    if let Some(c) = ceilings {
        m.push_str(&format!(
            ", \"llc_bytes\": {}, \"triad_array_bytes\": {}, \"fp64_peak_gflops_per_core\": {}, \
             \"fma_peak_gflops_per_core\": {}, \"stream_gbs_one_core\": {}",
            c.llc_bytes, c.triad_array_bytes, c.fp64_peak_gflops, c.fma_peak_gflops, c.stream_gbs
        ));
    }
    m.push('}');
    m
}

/// Run the benchmark once.
pub fn run(args: &Args) -> Outcome {
    let problem = Problem {
        workload: args.workload,
        spec: args.workload.spec(),
        inputs: Inputs::generate(args.workload, args.seed),
    };
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs biases_v={:?} temperature_k={}",
        problem.inputs.biases, problem.inputs.temperature_k
    ));
    if args.trace {
        traced(args, &problem, &mut out);
    } else {
        out.notes.push(manifest(args, &problem.spec, None));
        timed(args, &problem, &mut out);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!("failed_share {failed_share}"));
    if args.trace {
        out.metrics.push("failed_share", failed_share, "ratio");
    }
    out
}

/// Attempt `solve` until `seconds` have passed and at least [`MIN_REPS`]
/// attempts were made, or until the next attempt would not fit in
/// `seconds`. Each attempt counts `n_points` as attempted; a panicking attempt
/// counts them as failed, with its reason. The loop ends on attempts, not on
/// successes, so a program that always panics still ends and reports.
/// `between` runs before every attempt but the first. Returns the results of
/// the attempts that did not panic.
pub fn repeat<T>(
    seconds: f64,
    n_points: u64,
    out: &mut Outcome,
    mut between: impl FnMut(),
    mut solve: impl FnMut() -> T,
) -> Vec<T> {
    let mut results = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    let mut last_s = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if attempts >= MIN_REPS && elapsed + last_s > seconds {
            break;
        }
        if attempts > 0 {
            between();
        }
        attempts += 1;
        out.attempted += n_points;
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(&mut solve)) {
            Ok(r) => results.push(r),
            Err(p) => out.fail(n_points, format!("solve panicked: {}", panic_message(p))),
        }
        last_s = t.elapsed().as_secs_f64();
    }
    results
}

/// The end-to-end metrics of an untraced run. Set-up, solve and point times
/// are medians; with no finished solve they are NaN, which makes the run
/// incorrect.
pub fn push_end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    solve_s: &[f64],
    point_s: &[f64],
    peak_heap_mib: f64,
) {
    out.failed = out.failed.min(out.attempted);
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let m = &mut out.metrics;
    m.push("setup_s", median(setups), "s");
    m.push("solve_s", median(solve_s), "s");
    m.push("point_p50_s", median(point_s), "s");
    m.push("peak_heap_mib", peak_heap_mib, "MiB");
    m.push("ok_share", ok, "ratio");
}

/// One timed solve (or curve).
struct Solve {
    total_s: f64,
    point_s: Vec<f64>,
    points: Vec<PointReport>,
    result: Option<DistScbaResult>,
}

impl Solve {
    fn run(problem: &Problem) -> Solve {
        let device = problem.spec.build_device();
        if problem.is_sweep() {
            let mut engine = problem.engine(device, false);
            let t = Instant::now();
            let mut point_s = Vec::new();
            loop {
                let tp = Instant::now();
                if engine.run_next().is_none() {
                    break;
                }
                point_s.push(tp.elapsed().as_secs_f64());
            }
            let total_s = t.elapsed().as_secs_f64();
            Solve {
                total_s,
                point_s,
                points: engine.report().points,
                result: None,
            }
        } else {
            let solver = problem.solver(device, false);
            let t = Instant::now();
            let r = solver.run();
            let total_s = t.elapsed().as_secs_f64();
            Solve {
                total_s,
                point_s: vec![total_s],
                points: Vec::new(),
                result: Some(r),
            }
        }
    }

    /// Counters that must repeat exactly at a given seed.
    fn counters(&self) -> String {
        match &self.result {
            Some(r) => dist_counters(r),
            None => sweep_counters(&self.points),
        }
    }

    /// Per-point checks on their own: converged when required, within
    /// tolerance, finite. Returns the number of failed points.
    fn check_points(&self, spec: &Spec, failures: &mut Vec<String>) -> u64 {
        let tolerance = spec.requires_convergence().then_some(spec.tolerance);
        let mut bad = check::tally(
            self.points.iter().map(|p| {
                check::point_sane(&observed_point(p), p.converged, p.residual, tolerance)
                    .map_err(|e| format!("point {} V: {e}", p.point.bias_v))
            }),
            failures,
        );
        if let Some(r) = &self.result {
            let observed = observed_total(&r.observables);
            bad += check::tally(
                [check::point_sane(&observed, r.converged, 0.0, None)],
                failures,
            );
        }
        bad
    }
}

/// Check a solve against the sequential `ScbaSolver` oracle, which solves
/// every point cold. The single point's current and per-cell density lie
/// within [`ORACLE_BAND`]. On a curve, the cold point took the oracle's own
/// iteration path and lies within [`check::sweep_band`]; each warm point lies
/// within [`check::warm_band`] of it, at the contraction of the oracle's last
/// iterations, with the current taken on the curve's scale. Returns the
/// number of failed points.
fn check_oracle(problem: &Problem, solve: &Solve, failures: &mut Vec<String>) -> u64 {
    let device = problem.spec.build_device();
    if let Some(r) = &solve.result {
        let oracle = problem.oracle(&device, problem.inputs.biases[0]);
        let got = observed_cells(&r.observables);
        return check::tally(
            [
                check::within_band(&got, &observed_cells(&oracle.observables), ORACLE_BAND)
                    .map_err(|e| format!("oracle: {e}")),
            ],
            failures,
        );
    }
    let tolerance = problem.spec.tolerance;
    let scale = solve
        .points
        .iter()
        .map(|p| p.current.abs())
        .fold(0.0, f64::max);
    check::tally(
        solve.points.iter().map(|p| {
            let bias = p.point.bias_v;
            let oracle = problem.oracle(&device, bias);
            if !oracle.converged {
                return Err(format!("oracle at {bias} V did not converge"));
            }
            let reference = observed_total(&oracle.observables);
            let checked = if p.warm_started {
                let q = check::contraction(&oracle.residual_history)
                    .ok_or("oracle residuals do not contract")?;
                let band = check::warm_band(tolerance, q);
                check::within_curve_band(&observed_point(p), &reference, band, scale)
            } else {
                check::within_band(&observed_point(p), &reference, check::sweep_band(tolerance))
            };
            checked.map_err(|e| format!("oracle at {bias} V: {e}"))
        }),
        failures,
    )
}

/// The untraced run: set-up time, timed solves, peak heap, checks.
fn timed(args: &Args, problem: &Problem, out: &mut Outcome) {
    let n_points = problem.inputs.biases.len() as u64;
    let mut setups: Vec<f64> = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            problem.setup_once();
            setups.push(t.elapsed().as_secs_f64());
        }
    };
    // Set-ups are sampled between solves, so they spread over the whole run
    // instead of one burst, and all see the warmed-up heap a long-lived
    // process sets up on.
    let solves = repeat(
        args.seconds,
        n_points,
        out,
        || time_setups(&mut setups),
        || Solve::run(problem),
    );
    let peak_heap = host::peak_heap_mib();
    out.notes
        .push(format!("peak_rss_mib {}", host::peak_rss_mib()));
    time_setups(&mut setups);

    // Per-point checks, then exact repetition of the first solve's counters.
    let mut first_counters: Option<String> = None;
    for solve in &solves {
        let mut bad = solve.check_points(&problem.spec, &mut out.failures);
        let counters = solve.counters();
        match &first_counters {
            None => first_counters = Some(counters),
            Some(c0) => {
                if let Err(e) = check::same_counters("repeat solve", c0, &counters) {
                    bad = n_points;
                    out.failures.push(e);
                }
            }
        }
        out.failed += bad;
    }
    // Oracle check, outside the timed region. Every solve repeated the first
    // one's counters and observables bit for bit (checked above), so a
    // failure of the first is a failure of every solve.
    if let Some(first) = solves.first() {
        let counters = first_counters.as_deref().unwrap_or_default();
        out.notes.push(format!(
            "exact_counters fnv={:016x} {counters}",
            fnv1a(counters)
        ));
        let mut reasons = Vec::new();
        let bad = match catch_unwind(AssertUnwindSafe(|| {
            check_oracle(problem, first, &mut reasons)
        })) {
            Ok(bad) => bad,
            Err(p) => {
                reasons.push(format!("oracle panicked: {}", panic_message(p)));
                n_points
            }
        };
        out.failed += bad * solves.len() as u64;
        out.failures.extend(reasons);
    }
    let solve_s: Vec<f64> = solves.iter().map(|s| s.total_s).collect();
    let point_s: Vec<f64> = solves.iter().flat_map(|s| s.point_s.clone()).collect();
    out.notes.push(format!(
        "timed solves={} solve_s={solve_s:?} point_s={point_s:?}",
        solve_s.len()
    ));
    push_end_to_end(out, &setups, &solve_s, &point_s, peak_heap);
}

/// Sums over the traced solves of one run.
#[derive(Default)]
struct Traced {
    ledger: Ledger,
    flops: FlopCounter,
    traffic: PhaseTraffic,
    iterations: usize,
    collectives: u64,
    bytes: u64,
    memo_hits: u64,
    memo_lookups: u64,
    imbalance: Vec<f64>,
    overlap: Vec<f64>,
    wall_s: f64,
    /// Largest share of a traced solve's measured wall time its probe window
    /// left uncovered.
    wall_gap_share: f64,
}

impl Traced {
    fn absorb(&mut self, r: &DistScbaResult, wall_s: f64) -> Result<(), String> {
        let l = Ledger::from_timeline(&r.timeline)?;
        l.check_closure()?;
        l.check_wall(wall_s)?;
        self.wall_gap_share = self.wall_gap_share.max(l.wall_gap_share(wall_s));
        self.ledger.absorb(&l);
        self.flops.merge(&r.flops);
        ladder::phase_traffic(&r.timeline, &mut self.traffic);
        self.iterations += r.iterations;
        let rep: &DistReport = &r.report;
        self.collectives += rep.n_collectives;
        self.bytes += rep.measured_alltoall_bytes + rep.measured_allreduce_bytes;
        self.memo_hits += r.timeline.counter_total("obc.memo.hit");
        self.memo_lookups +=
            r.timeline.counter_total("obc.memo.hit") + r.timeline.counter_total("obc.memo.miss");
        self.imbalance.extend(rep.time_imbalance);
        self.overlap.extend(rep.overlap_efficiency);
        self.wall_s += wall_s;
        Ok(())
    }
}

/// Sweep-engine metrics of a traced `iv_sweep` run (all 0 on the
/// single-point workloads).
#[derive(Default)]
struct Serve {
    iterations: f64,
    bytes_restored: f64,
    checkpoint_s: f64,
    checkpoint_bytes: f64,
    resume_s: f64,
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The traced run: host ceilings, one untraced and one traced solve (or
/// curve), the self-time ledger, the call ladder and the serve metrics.
fn traced(args: &Args, problem: &Problem, out: &mut Outcome) {
    let spec = &problem.spec;
    let ceilings = host::measure_ceilings();
    let cores = host::available_parallelism();
    out.notes.push(manifest(args, spec, Some(&ceilings)));
    {
        let m = &mut out.metrics;
        m.push(
            "host.fp64_peak_gflops",
            ceilings.fp64_peak_gflops,
            "GFLOP/s",
        );
        m.push("host.fma_peak_gflops", ceilings.fma_peak_gflops, "GFLOP/s");
        m.push("host.stream_gbs", ceilings.stream_gbs, "GB/s");
        m.push("host.available_parallelism", cores as f64, "count");
        m.push(
            "host.rank_threads_per_core",
            spec.n_ranks as f64 / cores as f64,
            "ratio",
        );
    }

    let device = spec.build_device();
    let n_points = problem.inputs.biases.len() as u64;
    let mut traced = Traced::default();
    let mut serve = Serve::default();
    let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<f64, String> {
        if problem.is_sweep() {
            sweep_traced(problem, &device, &mut traced, &mut serve)
        } else {
            single_traced(problem, &device, &mut traced)
        }
    }));
    out.attempted += n_points;
    let untraced_s = match attempt {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => {
            out.fail(n_points, e);
            f64::NAN
        }
        Err(p) => {
            out.fail(
                n_points,
                format!("traced solve panicked: {}", panic_message(p)),
            );
            f64::NAN
        }
    };

    let m = &mut out.metrics;
    let l = &traced.ledger;
    let it = traced.iterations.max(1) as f64;
    m.push("dist.iteration_s", traced.wall_s / it, "s");
    for cat in ledger::CATEGORIES.iter().copied().chain(["other", "idle"]) {
        m.push(format!("dist.self.{cat}"), l.self_s(cat), "s");
    }
    m.push(
        "dist.ledger_max_error_s",
        l.max_closure_error_ns() as f64 * 1e-9,
        "s",
    );
    m.push("dist.wall_gap_share", traced.wall_gap_share, "ratio");
    m.push("dist.wait_share", l.wait_share(), "ratio");
    m.push(
        "dist.time_imbalance",
        mean_or_zero(&traced.imbalance),
        "ratio",
    );
    m.push(
        "dist.overlap_efficiency",
        mean_or_zero(&traced.overlap),
        "ratio",
    );
    m.push("dist.bytes_per_iteration", traced.bytes as f64 / it, "B");
    let compute = l.compute_s();
    m.push(
        "dist.gflops",
        if compute > 0.0 {
            traced.flops.total() as f64 / compute * 1e-9
        } else {
            0.0
        },
        "GFLOP/s",
    );
    for kind in FlopKind::ALL {
        let s = l.phase_s(ledger::phase_of_kind(kind));
        let rate = if s > 0.0 {
            traced.flops.get(kind) as f64 / s * 1e-9
        } else {
            0.0
        };
        m.push(format!("dist.gflops.{kind:?}"), rate, "GFLOP/s");
    }
    m.push(
        "obc.memoizer_hit_rate",
        if traced.memo_lookups > 0 {
            traced.memo_hits as f64 / traced.memo_lookups as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.push(
        "runtime.collectives_per_iteration",
        traced.collectives as f64 / it,
        "count",
    );
    m.push("serve.iterations", serve.iterations, "count");
    m.push("serve.bytes_restored", serve.bytes_restored, "B");
    m.push("serve.checkpoint_s", serve.checkpoint_s, "s");
    m.push("serve.checkpoint_bytes", serve.checkpoint_bytes, "B");
    m.push("serve.resume_s", serve.resume_s, "s");
    m.push("trace_overhead_s", traced.wall_s - untraced_s, "s");

    let scba = problem.inputs.scba_for(spec, problem.inputs.biases[0]);
    let ladder = catch_unwind(AssertUnwindSafe(|| {
        let mut rungs = Metrics::default();
        ladder::run(
            spec,
            &device,
            &scba,
            &traced.traffic,
            &ceilings,
            cores,
            &mut rungs,
        )
        .map(|()| rungs)
    }));
    match ladder {
        Ok(Ok(rungs)) => out.metrics.0.extend(rungs.0),
        Ok(Err(e)) => out.failures.push(format!("call ladder: {e}")),
        Err(p) => out
            .failures
            .push(format!("call ladder panicked: {}", panic_message(p))),
    }
    let flops: Vec<u64> = FlopKind::ALL.iter().map(|&k| traced.flops.get(k)).collect();
    let counters = format!(
        "iterations={} collectives={} bytes={} flops={flops:?} memo_hits={} traffic={:?}",
        traced.iterations, traced.collectives, traced.bytes, traced.memo_hits, traced.traffic
    );
    out.notes.push(format!(
        "exact_counters fnv={:016x} {counters}",
        fnv1a(&counters)
    ));
}

/// Traced single point: one untraced solve, one traced solve with the
/// counters compared, the oracle check. Returns the untraced wall seconds.
fn single_traced(problem: &Problem, device: &Device, traced: &mut Traced) -> Result<f64, String> {
    let t = Instant::now();
    let plain = problem.solver(device.clone(), false).run();
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let r = problem.solver(device.clone(), true).run();
    let wall = t.elapsed().as_secs_f64();
    check::same_counters(
        "traced vs untraced",
        &dist_counters(&plain),
        &dist_counters(&r),
    )?;
    traced.absorb(&r, wall)?;
    let oracle = problem.oracle(device, problem.inputs.biases[0]);
    check::within_band(
        &observed_cells(&r.observables),
        &observed_cells(&oracle.observables),
        ORACLE_BAND,
    )?;
    Ok(untraced_s)
}

/// Traced sweep: the untraced engine curve with checkpoint/resume timing,
/// then a traced replay through `run_warm` chaining each point's final
/// state along the engine's warm-start sources. Returns the untraced wall
/// seconds.
fn sweep_traced(
    problem: &Problem,
    device: &Device,
    traced: &mut Traced,
    serve: &mut Serve,
) -> Result<f64, String> {
    let spec = &problem.spec;
    let mut engine = problem.engine(device.clone(), false);
    let t = Instant::now();
    let report = engine.run_all();
    let untraced_s = t.elapsed().as_secs_f64();
    let tolerance = Some(spec.tolerance);
    for p in &report.points {
        check::point_sane(&observed_point(p), p.converged, p.residual, tolerance)
            .map_err(|e| format!("point {} V: {e}", p.point.bias_v))?;
    }

    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = std::path::Path::new(&dir).join(format!("perfbench-{}.ckpt", std::process::id()));
    let t = Instant::now();
    let bytes = engine
        .checkpoint_to(&path)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let resumed = SweepEngine::resume_from(device.clone(), problem.sweep_config(false), &path);
    let resume_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
    if resumed.completed() != report.points.len() {
        return Err("resumed engine lost finished points".into());
    }
    *serve = Serve {
        iterations: report.total_iterations() as f64,
        bytes_restored: report.bytes_restored() as f64,
        checkpoint_s,
        checkpoint_bytes: bytes as f64,
        resume_s,
    };

    let grid = device.default_energy_grid(spec.n_energies);
    let band = check::sweep_band(spec.tolerance);
    let mut states: Vec<WarmState> = Vec::new();
    for p in &report.points {
        let config = problem
            .dist_config(p.point.bias_v, true)
            .with_state_capture(true);
        let solver = DistScbaSolver::with_grid(device.clone(), config, grid.clone());
        let warm = p.warm_source.map(|i| &states[i]);
        let t = Instant::now();
        let r = solver.run_warm(warm);
        let wall = t.elapsed().as_secs_f64();
        if r.iterations != p.iterations {
            return Err(format!(
                "replay of {} V took {} iterations, the engine {}",
                p.point.bias_v, r.iterations, p.iterations
            ));
        }
        check::within_band(&observed_total(&r.observables), &observed_point(p), band)
            .map_err(|e| format!("replay of {} V: {e}", p.point.bias_v))?;
        traced.absorb(&r, wall)?;
        states.push(r.final_state.ok_or("replay captured no state")?);
    }
    Ok(untraced_s)
}
