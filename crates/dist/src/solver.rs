//! The distributed SCBA driver.
//!
//! [`DistScbaSolver`] executes the same `G → P → W → Σ` cycle as
//! `quatrex_core::ScbaSolver`, but across the ranks of a
//! [`quatrex_runtime::ThreadComm`] communicator following the paper's
//! two-level decomposition. The flat ranks form a
//! `n_energy_groups × P_S` grid ([`crate::spatial::RankGrid`], mirroring
//! `quatrex_runtime::DecompositionPlan`):
//!
//! 1. every energy **group** owns a fixed contiguous slice of energy points
//!    (the uniform split, computed once per run); the group *leader*
//!    (spatial rank 0) runs OBC + assembly for them against a **per-rank
//!    [`ObcMemoizer`]**. The G step runs chunk by chunk through
//!    `quatrex_core::g_step_batch`, and only the chunk's solver depends on
//!    the decomposition. With `spatial_partitions == 1` a chunk holds at most
//!    `kernel_batch` energies, the rank's workers (`crate::workers`) run the
//!    chunks concurrently, and each solves its chunk with one
//!    energy-batched RGF call. With `P_S > 1` the chunk is the group's whole
//!    owned range, and the group's spatial ranks cooperate on it through the
//!    nested-dissection solver ([`crate::spatial::spatial_phase_solve`]):
//!    concurrent interior eliminations, a reduced boundary system assembled
//!    via gather within the group and solved on the leader, and concurrent
//!    recoveries;
//! 2. the selected `G^≶` blocks are transposed into element-major layout with
//!    a real `Alltoallv` among the group leaders (Fig. 3), every leader
//!    computes the `P` convolutions for its canonical elements *and their
//!    mirrors* (split over its workers), symmetrises them element-wise, and
//!    transposes `P^≶`/`P^R` back;
//! 3. the `W` systems are assembled and solved in the same chunks through
//!    `quatrex_core::w_step_batch`, `W^≶` is transposed forward
//!    again, the `Σ` convolutions run on the element slices, and
//!    `Σ^≶`/`Σ^R` are transposed back to their energy owners;
//! 4. the self-energies are mixed per owned energy and the convergence norms
//!    and observables are allreduced.
//!
//! There is one chunk path: `kernel_batch = 1` is a chunk size, not a
//! separate per-energy path, and every chunk size gives bit-identical
//! results. Because every step and per-element kernel is the *same function*
//! the sequential driver calls (`g_step_batch`, `w_step_batch`,
//! `polarization_series`, `self_energy_series`, `causal_retarded_series`,
//! `mix_sigma_energy`), the distributed state trajectory matches the
//! sequential one bit-for-bit at `P_S = 1` except for the allreduce-based
//! residual and per-iteration current (whose floating-point summation order
//! differs at machine precision). With `P_S > 1` the nested-dissection solver
//! introduces an additional `≤1e-12`-relative reordering per solve. The
//! equivalence tests pin the observables at `≤ 1e-10` relative either way.

use quatrex_probe::clock::Instant;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use quatrex_core::convolution::{
    causal_retarded_series, polarization_series_accumulate, self_energy_series_accumulate,
};
use quatrex_core::observables::{integrate_current, Observables, SpectralData};
use quatrex_core::scba::{
    energy_chunks, g_step_batch, mix_sigma_energy, rgf_batch_solve, w_step_batch, KernelTimings,
    ScbaConfig, StagedSystem,
};
use quatrex_device::{thermal_energy_ev, Device, EnergyGrid};
use quatrex_linalg::c64;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::CMatrix;
use quatrex_obc::{ObcMemoizer, Subsystem};
use quatrex_probe::{RankTrace, Timeline};
use quatrex_rgf::{
    partition_layout_balanced, probe_partition_flops, separator_blocks, spatial_partition_layout,
    RgfBatchScratch, RgfError, SelectedSolution, SpatialPartition,
};
use quatrex_runtime::{
    CommHandle, CommPhase, CommStats, DecompositionPlan, RankContext, ThreadComm,
};
use quatrex_sparse::BlockTridiagonal;
use quatrex_sync::race::{self, AccessKind, SharedId};

use crate::report::{DistReport, TranspositionBudget};
use crate::slab::{
    BackComponent, ElementSlab, TranspositionBatchPlan, TranspositionPlan, BYTES_PER_VALUE,
};
use crate::spatial::{spatial_phase_solve, RankGrid, SpatialTraffic};
use crate::warm::WarmState;
use crate::workers::{cores, fork_join, run_chunks, workers_per_rank, ChunkSolve};

/// Configuration of a distributed SCBA run.
///
/// Beyond the rank count, three knobs shape how the work is decomposed and
/// moved; each is documented with *when it pays off* on its field/builder.
/// The energy partition is not one of them: every run splits the grid
/// uniformly over the energy groups, once. The knobs compose freely — the
/// equivalence suite pins the observables against the sequential solver with
/// all of them enabled at once:
///
/// ```
/// use quatrex_core::ScbaConfig;
/// use quatrex_device::DeviceBuilder;
/// use quatrex_dist::{DistScbaConfig, DistScbaSolver};
///
/// let device = DeviceBuilder::test_device(2, 2, 6).build();
/// let scba = ScbaConfig {
///     n_energies: 6,
///     max_iterations: 2,
///     interaction_scale: 0.2,
///     ..ScbaConfig::default()
/// };
/// // 4 ranks as 2 energy groups x P_S = 2 spatial partitions, FLOP-balanced
/// // layout, and 2-batch overlapped transpositions — every knob composed.
/// let config = DistScbaConfig::new(scba, 4)
///     .with_spatial_partitions(2)
///     .with_balanced_partitions(true)
///     .with_energy_batches(2);
/// let result = DistScbaSolver::new(device, config).run();
/// assert_eq!(result.report.spatial_partitions, 2);
/// assert_eq!(result.report.batch_count, 2);
/// assert!(result.observables.current.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct DistScbaConfig {
    /// The physics configuration, shared verbatim with the sequential solver.
    pub scba: ScbaConfig,
    /// Number of simulated ranks (threads of the [`ThreadComm`]). Must be a
    /// multiple of `spatial_partitions`.
    pub n_ranks: usize,
    /// Spatial partitions per energy group (`P_S`, Section 5.4). The ranks
    /// form `n_ranks / spatial_partitions` energy groups of `P_S` ranks that
    /// cooperate on each energy point through the nested-dissection solver.
    /// `1` disables the second decomposition level.
    ///
    /// **When it pays off:** when one energy point's matrices no longer fit
    /// (or solve fast enough) on a single rank — large `N_B` devices. The
    /// nested-dissection reduced system adds work (~2.1× per middle partition
    /// on the paper's devices), so `P_S > 1` only wins when the per-energy
    /// solve, not the energy count, is the bottleneck.
    pub spatial_partitions: usize,
    /// Use the FLOP-balanced uneven partition layout
    /// (`quatrex_rgf::partition_layout_balanced`) instead of the uniform
    /// split: the end partitions grow until the per-partition elimination +
    /// recovery FLOPs equalise (paper Section 5.4's load balancing; the
    /// uniform split leaves the boundary partitions at ~60% of a middle
    /// partition). The layout is computed once per run from the shape-only
    /// FLOP probe (`quatrex_rgf::probe_partition_flops`), so every rank
    /// derives the identical layout deterministically. Ignored at `P_S ≤ 2`
    /// (no middle partition exists to balance against).
    ///
    /// **When it pays off:** at `P_S ≥ 3`, where the uniform split leaves the
    /// two boundary partitions idle ~40% of every solve; the balanced layout
    /// cuts the per-partition FLOP spread from ~50% to under 15% on the
    /// 24-block bench cell at `P_S = 4`. At `P_S = 2` there is no middle
    /// partition and the flag is a no-op.
    pub balanced_partitions: bool,
    /// Ship only canonical elements for `≶` quantities and reconstruct the
    /// mirrors from the NEGF symmetry at the destination (Section 5.2).
    /// Requires `scba.enforce_symmetry`.
    ///
    /// **When it pays off:** always, when the physics allows symmetrisation —
    /// it halves the transposition volume of 8 of the 10 component transfers
    /// per iteration (~1.8× on the total). Turn it off only to pin bit-exact
    /// equivalence against the sequential solver (the full wire format ships
    /// raw, unsymmetrised mirrors).
    pub symmetry_reduced: bool,
    /// Number of energy batches (`B`) each of the four per-iteration
    /// transpositions is cut into ([`TranspositionBatchPlan`]). With `B > 1`
    /// the solver double-buffers: batch `k+1`'s `Alltoallv` is posted
    /// non-blocking while the element convolutions consume batch `k`, and
    /// the in-flight transposition buffers shrink ~`B/2`-fold (double
    /// buffering keeps ~2 batches in flight;
    /// `DistReport::peak_slab_bytes`). `B = 1` (the default) is bit-identical
    /// to the unbatched path.
    ///
    /// **When it pays off:** on network-bound runs — the paper's sustained
    /// exascale numbers rest on the transposition flying behind the
    /// convolutions — and whenever the whole-iteration wire buffers dominate
    /// peak memory. In this thread-backed simulation the bandwidth is memory
    /// bandwidth, so the visible win is the measured buffer reduction and the
    /// measured overlap window (`DistReport::overlap_window_seconds`), not
    /// wall-clock; note the polarisation's bilinear batching re-runs its
    /// correlation kernel per batch, so very large `B` trades FLOPs for
    /// memory/overlap.
    pub energy_batches: usize,
    /// Record a per-rank probe trace of the run (`quatrex_probe`): every rank
    /// installs a thread-local span/counter recorder for the duration of its
    /// closure, and the merged [`Timeline`] lands in
    /// [`DistScbaResult::timeline`] with the derived phase metrics in
    /// [`DistReport`] (per-phase wall seconds, overlap efficiency, time-based
    /// load imbalance, per-phase FLOP rates). On by default.
    ///
    /// **When to turn it off:** essentially never in this simulation — the
    /// recorder is a few stores per span into pre-reserved buffers, pinned
    /// ≤2% of the RGF kernel cost by the bench overhead check. Disable it to
    /// pin the absolute floor of the hot path (the disabled probe is one
    /// thread-local read per call, allocation-free by test).
    pub probe: bool,
    /// Capture the final per-energy Σ state and OBC memoizer caches into
    /// [`DistScbaResult::final_state`] when the run ends. Off by default: the
    /// capture drains the leaders' Σ matrices and memoizer entries into one
    /// [`WarmState`] over the full grid, which costs memory proportional to
    /// `3 · N_E` block-tridiagonals.
    ///
    /// **When it pays off:** whenever another solve of a *nearby* problem
    /// follows — a bias/temperature sweep point, a restart from checkpoint.
    /// Feed the captured state to [`DistScbaSolver::run_warm`] and the SCBA
    /// loop starts at the neighbor's fixed point instead of `Σ = 0`
    /// (`quatrex-serve` builds its sweep engine on exactly this pair).
    pub capture_state: bool,
}

impl DistScbaConfig {
    /// Distributed configuration with `n_ranks` ranks and default options
    /// (`P_S = 1`, one transposition batch).
    pub fn new(scba: ScbaConfig, n_ranks: usize) -> Self {
        Self {
            scba,
            n_ranks,
            spatial_partitions: 1,
            balanced_partitions: false,
            symmetry_reduced: true,
            energy_batches: 1,
            probe: true,
            capture_state: false,
        }
    }

    /// Enable the second decomposition level: `p_s` spatial ranks per energy
    /// group. See [`DistScbaConfig::spatial_partitions`] for when it pays
    /// off.
    pub fn with_spatial_partitions(mut self, p_s: usize) -> Self {
        self.spatial_partitions = p_s;
        self
    }

    /// Enable the FLOP-balanced uneven partition layout for the spatial
    /// level. See [`DistScbaConfig::balanced_partitions`] for when it pays
    /// off.
    pub fn with_balanced_partitions(mut self, enabled: bool) -> Self {
        self.balanced_partitions = enabled;
        self
    }

    /// Cut every transposition into `batches` energy batches and overlap each
    /// batch's `Alltoallv` with the previous batch's convolutions. See
    /// [`DistScbaConfig::energy_batches`] for when it pays off.
    pub fn with_energy_batches(mut self, batches: usize) -> Self {
        assert!(batches >= 1, "at least one transposition batch");
        self.energy_batches = batches;
        self
    }

    /// Enable or disable the per-rank probe trace. See
    /// [`DistScbaConfig::probe`].
    pub fn with_probe(mut self, enabled: bool) -> Self {
        self.probe = enabled;
        self
    }

    /// Capture the run's final Σ/OBC state into
    /// [`DistScbaResult::final_state`]. See
    /// [`DistScbaConfig::capture_state`] for when it pays off.
    pub fn with_state_capture(mut self, enabled: bool) -> Self {
        self.capture_state = enabled;
        self
    }
}

/// Result of a distributed SCBA run: the sequential result fields plus the
/// communication report.
#[derive(Debug)]
pub struct DistScbaResult {
    /// Number of iterations performed.
    pub iterations: usize,
    /// True if the self-energy update fell below the tolerance.
    pub converged: bool,
    /// Relative self-energy update per iteration (allreduced).
    pub residual_history: Vec<f64>,
    /// Terminal current per iteration (allreduced).
    pub current_history: Vec<f64>,
    /// Final observables, identical to the sequential solver's.
    pub observables: Observables,
    /// Per-kernel wall times summed over ranks.
    pub timings: KernelTimings,
    /// Per-kernel FLOP counts summed over ranks.
    pub flops: FlopCounter,
    /// Fraction of OBC solves answered from the per-rank memoizer caches.
    pub memoizer_hit_rate: f64,
    /// Largest relative truncation weight seen by any W assembly.
    pub max_truncation_error: f64,
    /// Measured-vs-modelled communication report.
    pub report: DistReport,
    /// Merged per-rank probe timeline of the run — one track per rank on a
    /// shared clock. Serialise with [`Timeline::chrome_trace_json`] for
    /// Perfetto / `chrome://tracing`. Empty when
    /// [`DistScbaConfig::probe`] is false.
    pub timeline: Timeline,
    /// The run's final Σ/OBC state assembled over the full energy grid, for
    /// warm-starting a nearby solve via [`DistScbaSolver::run_warm`]. `None`
    /// unless [`DistScbaConfig::capture_state`] is set.
    pub final_state: Option<WarmState>,
}

/// Per-rank return value of the communicator closure.
struct RankOut {
    iterations: usize,
    converged: bool,
    residual_history: Vec<f64>,
    current_history: Vec<f64>,
    observables: Observables,
    full_iterations: usize,
    max_truncation: f64,
    transposition_bytes: u64,
    traffic_g: SpatialTraffic,
    traffic_w: SpatialTraffic,
    memo_hits: usize,
    memo_total: usize,
    peak_slab_bytes: u64,
    overlap_seconds: f64,
    /// Cumulative memoizer (hits, total solves) after each full iteration.
    memo_per_iteration: Vec<(usize, usize)>,
    trace: Option<RankTrace>,
    /// Final Σ state of the energies this leader owned at run end, keyed by
    /// global energy index: `(k, Σ^<, Σ^>, Σ^R)`. Empty unless state capture
    /// is on (and always empty on non-leaders).
    final_sigma: Vec<(usize, BlockTridiagonal, BlockTridiagonal, BlockTridiagonal)>,
    /// Final OBC memoizer entries of the owned energies. Empty unless state
    /// capture is on.
    final_obc: Vec<(quatrex_obc::ObcKey, CMatrix)>,
}

/// The distributed NEGF+scGW solver bound to one device and configuration.
pub struct DistScbaSolver {
    device: Device,
    config: DistScbaConfig,
    grid: EnergyGrid,
}

impl DistScbaSolver {
    /// Create a solver for `device` with the given configuration.
    pub fn new(device: Device, config: DistScbaConfig) -> Self {
        let grid = device.default_energy_grid(config.scba.n_energies);
        Self {
            device,
            config,
            grid,
        }
    }

    /// Create a solver with an explicit energy grid.
    pub fn with_grid(device: Device, config: DistScbaConfig, grid: EnergyGrid) -> Self {
        Self {
            device,
            config,
            grid,
        }
    }

    /// The two-level decomposition the run realises, in the vocabulary of
    /// `quatrex_runtime::DecompositionPlan`: `n_ranks / P_S` energy groups of
    /// `P_S` spatial ranks each.
    ///
    /// This is the *idealised uniform* description (every group holds
    /// `ceil(N_E / groups)` energies); the run's actual energy ownership is
    /// the near-equal contiguous partition in
    /// [`DistScbaSolver::plan`]`().energy_ranges` — use that to locate an
    /// energy's owner. Panics when `n_ranks` does not factor into
    /// `groups × P_S`, exactly like [`DistScbaSolver::run`].
    pub fn decomposition(&self) -> DecompositionPlan {
        let p_s = self.config.spatial_partitions;
        assert!(
            p_s >= 1 && self.config.n_ranks.is_multiple_of(p_s),
            "n_ranks = {} must factor into energy groups x P_S = {p_s}",
            self.config.n_ranks,
        );
        let groups = self.config.n_ranks / p_s;
        let energies_per_group = self.grid.len().div_ceil(groups.max(1)).max(1);
        DecompositionPlan::new(self.grid.len(), energies_per_group, p_s)
    }

    /// The transposition plan the run will use. Energy and element slices are
    /// per energy *group*; with `P_S > 1` only the group leaders participate
    /// in the transpositions.
    pub fn plan(&self) -> TranspositionPlan {
        let h = self.device.hamiltonian_bt();
        let p_s = self.config.spatial_partitions;
        assert!(
            p_s >= 1 && self.config.n_ranks.is_multiple_of(p_s),
            "n_ranks = {} must factor into energy groups x P_S = {}",
            self.config.n_ranks,
            p_s,
        );
        TranspositionPlan::new(
            h.n_blocks(),
            h.block_size(),
            self.grid.len(),
            self.config.n_ranks / p_s,
            p_s,
            self.config.symmetry_reduced,
        )
    }

    /// Run a single ballistic iteration across the ranks.
    pub fn ballistic(&self) -> DistScbaResult {
        let mut config = self.config.clone();
        config.scba.max_iterations = 1;
        DistScbaSolver {
            device: self.device.clone(),
            config,
            grid: self.grid.clone(),
        }
        .run()
    }

    /// Run the distributed SCBA loop until convergence or the iteration limit.
    pub fn run(&self) -> DistScbaResult {
        self.run_warm(None)
    }

    /// Run the distributed SCBA loop seeded from a previously captured
    /// [`WarmState`] instead of `Σ = 0`. Group leaders adopt the state's Σ
    /// matrices for their owned energies and pre-fill their OBC memoizer
    /// caches via [`quatrex_obc::ObcMemoizer::insert_cached`]. With
    /// `initial = None` this *is*
    /// [`DistScbaSolver::run`]: a cold start.
    ///
    /// Panics when the state's grid shape (`N_E`, `N_B`, block size)
    /// disagrees with the solver's device and energy grid — a warm state is
    /// only meaningful across solves of the same discretisation.
    ///
    /// Each rank runs on `cores ÷ n_ranks` workers, at least one: the rank
    /// thread plus helper threads for its energy chunks (at `P_S = 1`) and
    /// its per-element convolutions. The worker count changes no result;
    /// [`DistReport::workers_per_rank`] records it.
    pub fn run_warm(&self, initial: Option<&WarmState>) -> DistScbaResult {
        self.run_with_workers(initial, workers_per_rank(self.config.n_ranks))
    }

    /// [`DistScbaSolver::run_warm`] on `workers` workers per rank.
    pub(crate) fn run_with_workers(
        &self,
        initial: Option<&WarmState>,
        workers: usize,
    ) -> DistScbaResult {
        let cfg = self.config.scba.clone();
        assert!(
            !self.config.symmetry_reduced || cfg.enforce_symmetry,
            "symmetry-reduced transposition requires enforce_symmetry",
        );
        assert!(
            self.config.energy_batches >= 1,
            "energy_batches must be at least 1",
        );
        let n_ranks = self.config.n_ranks;
        let h = self.device.hamiltonian_bt();
        let mut v = self.device.coulomb_bt();
        if cfg.interaction_scale != 1.0 {
            v.scale_mut(c64::new(cfg.interaction_scale, 0.0));
        }
        if self.config.spatial_partitions > 1 {
            assert!(
                h.n_blocks() >= 2 * self.config.spatial_partitions,
                "P_S = {} needs at least {} transport blocks (device has {})",
                self.config.spatial_partitions,
                2 * self.config.spatial_partitions,
                h.n_blocks(),
            );
        }
        // The spatial partition layout is fixed for the whole run and shared
        // by every rank: uniform by default, FLOP-balanced (from the
        // shape-only probe, so it is deterministic) when requested. At
        // P_S = 2 there is no middle partition to balance against, so the
        // balanced layout IS the uniform one — skip the probe and report the
        // run as uniform.
        let balanced = self.config.balanced_partitions && self.config.spatial_partitions > 2;
        let spatial_layout: Vec<SpatialPartition> = if self.config.spatial_partitions > 1 {
            let p_s = self.config.spatial_partitions;
            if balanced {
                let probe = probe_partition_flops(h.n_blocks(), h.block_size(), p_s, 2)
                    .expect("FLOP probe of the spatial layout failed"); // lint:allow(no-unwrap): a failed FLOP probe means the layout constructor is broken
                partition_layout_balanced(h.n_blocks(), p_s, &probe)
            } else {
                spatial_partition_layout(h.n_blocks(), p_s)
            }
            // lint:allow(no-unwrap): the layout was validated against n_blocks at config build
            .expect("spatial partition layout rejected (too few blocks for P_S)")
        } else {
            Vec::new()
        };
        let plan = self.plan();
        let de = self.grid.spacing();
        let ne = self.grid.len();
        let nb = h.n_blocks();
        let bs = h.block_size();
        if let Some(w) = initial {
            assert!(
                w.n_energies == ne && w.n_blocks == nb && w.block_size == bs,
                "warm state shape ({} energies, {} blocks of {}) disagrees with the run \
                 ({ne} energies, {nb} blocks of {bs})",
                w.n_energies,
                w.n_blocks,
                w.block_size,
            );
        }
        let capture = self.config.capture_state;

        let inputs = Arc::new(RankInputs {
            kt: thermal_energy_ev(cfg.temperature_k),
            cfg,
            h,
            v,
            plan,
            parts: spatial_layout,
            energies: self.grid.points(),
            de,
            n_batches: self.config.energy_batches,
            workers,
            probe: self.config.probe,
            // One shared clock zero for every rank's probe recorder, taken
            // before the threads spawn so the merged tracks align.
            epoch: Instant::now(),
            warm: initial.cloned(),
            capture,
            flops: FlopCounter::new(),
            timings: KernelTimings::default(),
        });
        let rank_body = {
            let inputs = Arc::clone(&inputs);
            move |ctx: RankContext<Vec<c64>>| -> RankOut { rank_main(&ctx, &inputs) }
        };
        let (mut results, stats) = ThreadComm::run(n_ranks, rank_body);
        let mut rank0 = results.remove(0);

        let transposition_bytes: u64 =
            rank0.transposition_bytes + results.iter().map(|r| r.transposition_bytes).sum::<u64>();
        let mut traffic_g = rank0.traffic_g;
        let mut traffic_w = rank0.traffic_w;
        for r in &results {
            traffic_g.merge(&r.traffic_g);
            traffic_w.merge(&r.traffic_w);
        }
        let memo_hits = rank0.memo_hits + results.iter().map(|r| r.memo_hits).sum::<usize>();
        let memo_total = rank0.memo_total + results.iter().map(|r| r.memo_total).sum::<usize>();
        // The busiest rank's in-flight buffer bounds the per-node memory; the
        // overlap windows add up across ranks like the kernel timings do.
        let peak_slab_bytes = results
            .iter()
            .map(|r| r.peak_slab_bytes)
            .fold(rank0.peak_slab_bytes, u64::max);
        let overlap_window_seconds =
            rank0.overlap_seconds + results.iter().map(|r| r.overlap_seconds).sum::<f64>();

        // Merge the per-rank probe buffers into one timeline and derive the
        // phase metrics for the report.
        let mut traces: Vec<RankTrace> = Vec::with_capacity(n_ranks);
        if let Some(t) = rank0.trace.take() {
            traces.push(t);
        }
        for r in &mut results {
            if let Some(t) = r.trace.take() {
                traces.push(t);
            }
        }
        let timeline = Timeline::merge(traces);
        let phase_seconds = timeline.phase_seconds();
        // The k-th posted exchange pairs with the k-th wait on each rank
        // (FIFO wait order); restrict the pairs to the four energy↔element
        // transpositions and ask how much of their in-flight time ran under
        // the convolution kernels.
        let transposition_posts: Vec<&'static str> = CommPhase::ALL
            .iter()
            .filter(|p| p.is_transposition())
            .map(|p| p.post_name())
            .collect();
        let overlap_efficiency = timeline.overlap_efficiency(
            |name| transposition_posts.contains(&name),
            |cat| cat.starts_with("conv."),
        );
        let time_imbalance = timeline.imbalance_factor(|cat| !cat.starts_with("comm."));
        let flop_rates = phase_flop_rates(&phase_seconds, &inputs.flops);

        // Per-iteration memoizer hit rate: the per-rank snapshots are
        // cumulative, so consecutive differences give each iteration's solves.
        let n_iter_stats = rank0.memo_per_iteration.len();
        let mut memo_rate_per_iteration = Vec::with_capacity(n_iter_stats);
        let mut prev = (0usize, 0usize);
        for i in 0..n_iter_stats {
            let mut hits = rank0.memo_per_iteration[i].0;
            let mut total = rank0.memo_per_iteration[i].1;
            for r in &results {
                if let Some(&(h, t)) = r.memo_per_iteration.get(i) {
                    hits += h;
                    total += t;
                }
            }
            let (dh, dt) = (hits - prev.0, total - prev.1);
            memo_rate_per_iteration.push(if dt > 0 { dh as f64 / dt as f64 } else { 0.0 });
            prev = (hits, total);
        }
        if memo_total == 0 {
            memo_rate_per_iteration.clear();
        }

        let report = self.build_report(
            &inputs.plan,
            &stats,
            balanced,
            rank0.full_iterations,
            transposition_bytes,
            &traffic_g,
            &traffic_w,
            peak_slab_bytes,
            overlap_window_seconds,
            inputs.workers,
            ProbeMetrics {
                phase_seconds,
                overlap_efficiency,
                time_imbalance,
                memoizer_hit_rate_per_iteration: memo_rate_per_iteration,
                phase_flop_rates: flop_rates,
            },
        );
        // Assemble the captured per-leader Σ/OBC fragments, keyed by global
        // energy index, into one state over the full grid.
        let final_state = if capture {
            let mut state = WarmState::zeros(ne, nb, bs);
            let mut seen = vec![false; ne];
            let mut obc: Vec<(quatrex_obc::ObcKey, CMatrix)> = Vec::new();
            for r in std::iter::once(&mut rank0).chain(results.iter_mut()) {
                for (k, l, g, sr) in r.final_sigma.drain(..) {
                    assert!(!seen[k], "energy {k} captured by one leader only");
                    seen[k] = true;
                    state.sigma_lesser[k] = l;
                    state.sigma_greater[k] = g;
                    state.sigma_retarded[k] = sr;
                }
                obc.append(&mut r.final_obc);
            }
            assert!(
                seen.iter().all(|&s| s),
                "state capture covers the energy grid",
            );
            obc.sort_by_key(|(key, _)| *key);
            state.obc = obc;
            Some(state)
        } else {
            None
        };
        let result_flops = FlopCounter::new();
        result_flops.merge(&inputs.flops);
        DistScbaResult {
            iterations: rank0.iterations,
            converged: rank0.converged,
            residual_history: rank0.residual_history,
            current_history: rank0.current_history,
            observables: rank0.observables,
            timings: copy_timings(&inputs.timings),
            flops: result_flops,
            memoizer_hit_rate: if memo_total > 0 {
                memo_hits as f64 / memo_total as f64
            } else {
                0.0
            },
            max_truncation_error: rank0.max_truncation,
            report,
            timeline,
            final_state,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        &self,
        plan: &TranspositionPlan,
        stats: &CommStats,
        balanced: bool,
        full_iterations: usize,
        transposition_bytes: u64,
        traffic_g: &SpatialTraffic,
        traffic_w: &SpatialTraffic,
        peak_slab_bytes: u64,
        overlap_window_seconds: f64,
        workers_per_rank: usize,
        probe: ProbeMetrics,
    ) -> DistReport {
        use std::sync::atomic::Ordering;
        DistReport {
            n_ranks: plan.n_total_ranks(),
            workers_per_rank,
            rank_threads_per_core: plan.n_total_ranks() as f64 / cores() as f64,
            energy_groups: plan.n_ranks,
            spatial_partitions: plan.spatial_partitions,
            // The flag `run` selected the layout with: false at P_S = 2,
            // where the balanced layout degenerates to the uniform split.
            balanced_partitions: balanced,
            energies_per_rank: plan.energy_ranges.iter().map(|r| r.len()).collect(),
            elements_per_rank: plan.element_ranges.iter().map(|r| r.len()).collect(),
            symmetry_reduced: plan.symmetry_reduced,
            full_iterations,
            measured_transposition_bytes: transposition_bytes,
            measured_alltoall_bytes: stats.alltoall_bytes.load(Ordering::Relaxed),
            measured_max_bytes_per_rank: stats.max_alltoall_bytes_per_rank(),
            measured_allreduce_bytes: stats.allreduce_bytes.load(Ordering::Relaxed),
            measured_boundary_bytes_g: traffic_g.boundary_bytes,
            measured_boundary_bytes_w: traffic_w.boundary_bytes,
            measured_slice_bytes_g: traffic_g.slice_bytes,
            measured_slice_bytes_w: traffic_w.slice_bytes,
            broadcast_equivalent_bytes_g: traffic_g.broadcast_equivalent_bytes,
            broadcast_equivalent_bytes_w: traffic_w.broadcast_equivalent_bytes,
            batch_count: self.config.energy_batches,
            peak_slab_bytes,
            overlap_window_seconds,
            n_collectives: stats.n_collectives.load(Ordering::Relaxed),
            alltoall_bytes_per_phase: stats.phase_breakdown(),
            phase_seconds: probe.phase_seconds,
            overlap_efficiency: probe.overlap_efficiency,
            time_imbalance: probe.time_imbalance,
            memoizer_hit_rate_per_iteration: probe.memoizer_hit_rate_per_iteration,
            phase_flop_rates: probe.phase_flop_rates,
            budget: TranspositionBudget::new(
                plan.stored_values(),
                plan.n_energies,
                plan.n_ranks,
                plan.symmetry_reduced,
            ),
        }
    }
}

/// The probe-derived metrics folded into [`DistReport`]; all empty/`None`
/// when [`DistScbaConfig::probe`] is false.
struct ProbeMetrics {
    phase_seconds: Vec<(String, f64)>,
    overlap_efficiency: Option<f64>,
    time_imbalance: Option<f64>,
    memoizer_hit_rate_per_iteration: Vec<f64>,
    phase_flop_rates: Vec<(String, f64)>,
}

/// Join the probe's per-category wall seconds with the [`FlopCounter`]
/// accounting into measured FLOP/s per phase. Only phases with nonzero
/// seconds *and* nonzero FLOPs appear. At `P_S = 1` the per-subsystem RGF
/// rates come from the `g.rgf.batch`/`w.rgf.batch` categories of the batched
/// chunk solves; the cooperative spatial solves (`P_S > 1`) report one
/// combined `spatial.rgf` rate (the partition eliminations/recoveries and
/// the reduced systems serve both subsystems and cannot be split by
/// category).
fn phase_flop_rates(phase_seconds: &[(String, f64)], flops: &FlopCounter) -> Vec<(String, f64)> {
    let secs = |cats: &[&str]| -> f64 {
        phase_seconds
            .iter()
            .filter(|(c, _)| cats.iter().any(|k| c == k))
            .map(|&(_, s)| s)
            .sum()
    };
    let mut out = Vec::new();
    let mut push = |label: &str, flop: u64, s: f64| {
        if flop > 0 && s > 0.0 {
            out.push((label.to_string(), flop as f64 / s));
        }
    };
    push(
        "g.assembly",
        flops.get(FlopKind::GObc),
        secs(&["g.assembly"]),
    );
    push(
        "g.rgf.batch",
        flops.get(FlopKind::GRgf),
        secs(&["g.rgf.batch"]),
    );
    let w_assembly = flops.get(FlopKind::WBeyn)
        + flops.get(FlopKind::WLyapunov)
        + flops.get(FlopKind::WAssemblyLhs)
        + flops.get(FlopKind::WAssemblyRhs);
    push("w.assembly", w_assembly, secs(&["w.assembly"]));
    push(
        "w.rgf.batch",
        flops.get(FlopKind::WRgf),
        secs(&["w.rgf.batch"]),
    );
    push(
        "convolution",
        flops.get(FlopKind::Convolution),
        secs(&["conv.p", "conv.sigma"]),
    );
    push(
        "spatial.rgf",
        flops.get(FlopKind::GRgf) + flops.get(FlopKind::WRgf),
        secs(&["rgf.partition", "rgf.reduced"]),
    );
    out
}

/// Element-wise NEGF symmetrisation of a canonical/mirror series pair — the
/// exact per-element arithmetic of `BlockTridiagonal::symmetrize_negf`.
fn symmetrize_series_pair(canonical: &mut [c64], mirror: &mut [c64], self_mirror: bool) {
    let half = c64::new(0.5, 0.0);
    if self_mirror {
        for (c, m) in canonical.iter_mut().zip(mirror.iter_mut()) {
            *c = (*c - c.conj()) * half;
            *m = *c;
        }
    } else {
        for (c, m) in canonical.iter_mut().zip(mirror.iter_mut()) {
            let (a, b) = (*c, *m);
            *c = (a - b.conj()) * half;
            *m = (b - a.conj()) * half;
        }
    }
}

/// The `[lesser_c, lesser_m, greater_c, greater_m]` buffers of a
/// convolution accumulator: an element slab with the components
/// `[lesser, greater]`, filled batch by batch by the
/// `quatrex_core::convolution::*_accumulate` kernels while later batches are
/// still in flight.
fn lesser_greater(acc: &mut ElementSlab) -> [&mut [c64]; 4] {
    let (lesser_c, greater_c) = acc.canonical.split_at_mut(1);
    let (lesser_m, greater_m) = acc.mirror.split_at_mut(1);
    [
        &mut lesser_c[0],
        &mut lesser_m[0],
        &mut greater_c[0],
        &mut greater_m[0],
    ]
}

/// The backward-travelling components of a convolution phase's output slab
/// (`[lesser, greater, retarded]`).
fn back_components(phase: &ElementSlab) -> [BackComponent<'_>; 3] {
    [
        BackComponent::Symmetric {
            canonical: &phase.canonical[0],
            mirror: &phase.mirror[0],
        },
        BackComponent::Symmetric {
            canonical: &phase.canonical[1],
            mirror: &phase.mirror[1],
        },
        BackComponent::Full {
            canonical: &phase.canonical[2],
            mirror: &phase.mirror[2],
        },
    ]
}

/// Cut `N` element-major buffers (`ne` values per element) into pieces of
/// `per` consecutive elements.
fn split_elements<const N: usize>(
    mut bufs: [&mut [c64]; N],
    ne: usize,
    per: usize,
) -> impl Iterator<Item = [&mut [c64]; N]> {
    std::iter::from_fn(move || {
        let take = (ne * per).min(bufs[0].len());
        (take > 0).then(|| {
            bufs.each_mut().map(|b| {
                let (head, tail) = std::mem::take(b).split_at_mut(take);
                *b = tail;
                head
            })
        })
    })
}

/// Run `f(e_local, series, share_flops)` on every element of `N`
/// element-major buffers (`ne` values per element), the elements split into
/// contiguous ranges over `workers` workers. Each share counts its FLOPs
/// into its own counter, added to `flops` once at the end of the share, so
/// the workers do not contend on one counter per element.
fn for_each_element<const N: usize>(
    bufs: [&mut [c64]; N],
    ne: usize,
    workers: usize,
    flops: &FlopCounter,
    f: &(impl Fn(usize, [&mut [c64]; N], &FlopCounter) + Sync),
) {
    let n = bufs[0].len().checked_div(ne).unwrap_or(0);
    let per = n.div_ceil(workers).max(1);
    let shares: Vec<_> = split_elements(bufs, ne, per).enumerate().collect();
    fork_join(shares, &|(share, bufs)| {
        let share_flops = FlopCounter::new();
        for (i, series) in split_elements(bufs, ne, 1).enumerate() {
            f(share * per + i, series, &share_flops);
        }
        flops.merge(&share_flops);
    });
}

/// The phase epilogue after the last batch has been consumed: symmetrise
/// the accumulated canonical/mirror pairs and append the causally built
/// retarded component — arithmetic identical to the pre-batch per-element
/// loop — with the elements split over `workers` workers. Returns the phase
/// output slab `[lesser, greater, retarded]`.
fn finish_phase(
    mut acc: ElementSlab,
    plan: &TranspositionPlan,
    group: usize,
    enforce_symmetry: bool,
    flops: &FlopCounter,
    workers: usize,
) -> ElementSlab {
    // The epilogue read of the batch-accumulated series: ordered after
    // every batch's accumulate (same leader thread, after the batch's
    // CommHandle::wait) — a pipeline mutation that lets the finish read
    // overtake an in-flight batch's accumulate is an HB race here.
    race::access_shared(
        SharedId::new("dist.conv_accum", group as u64),
        AccessKind::Read,
    );
    let ids = &plan.elements[acc.elements.clone()];
    let ne = acc.n_energies;
    let mut retarded_c = vec![c64::new(0.0, 0.0); acc.canonical[0].len()];
    let mut retarded_m = retarded_c.clone();
    let [lc, lm, gc, gm] = lesser_greater(&mut acc);
    let bufs = [lc, lm, gc, gm, &mut retarded_c[..], &mut retarded_m[..]];
    let epilogue = |e_local: usize, [lc, lm, gc, gm, rc, rm]: [&mut [c64]; 6], flops: &_| {
        let self_mirror = ids[e_local].is_self_mirror();
        if self_mirror {
            lm.copy_from_slice(lc);
            gm.copy_from_slice(gc);
        }
        if enforce_symmetry {
            symmetrize_series_pair(lc, lm, self_mirror);
            symmetrize_series_pair(gc, gm, self_mirror);
        }
        rc.copy_from_slice(&causal_retarded_series(lc, gc, flops));
        if self_mirror {
            rm.copy_from_slice(rc);
        } else {
            rm.copy_from_slice(&causal_retarded_series(lm, gm, flops));
        }
    };
    for_each_element(bufs, ne, workers, flops, &epilogue);
    acc.canonical.push(retarded_c);
    acc.mirror.push(retarded_m);
    acc
}

/// In-flight transposition buffer accounting and overlap stopwatch of one
/// rank: every posted (and received) batch payload counts toward the current
/// buffer footprint until its batch has been consumed; the peak is what
/// `DistReport::peak_slab_bytes` reports, and the overlap clock accumulates
/// the compute time that ran while at least one batch was in flight.
#[derive(Default)]
struct PipelineMetrics {
    in_flight_bytes: u64,
    peak_bytes: u64,
    overlap_seconds: f64,
}

impl PipelineMetrics {
    fn track(&mut self, bytes: u64) {
        self.in_flight_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.in_flight_bytes);
    }

    fn release(&mut self, bytes: u64) {
        self.in_flight_bytes -= bytes;
    }
}

/// Buffer bytes of a per-destination payload set (self-messages included —
/// they occupy memory even though they never touch the wire).
fn payload_bytes(payloads: &[Vec<c64>]) -> u64 {
    payloads
        .iter()
        .map(|m| (m.len() * BYTES_PER_VALUE) as u64)
        .sum()
}

/// Post a per-group exchange through the flat communicator without blocking:
/// group `g`'s message rides to its leader rank, non-leader ranks contribute
/// empty messages. Completed by [`leader_wait`]. The `phase` tag splits the
/// byte accounting per transposition and names the probe post/wait events.
fn leader_alltoallv_start(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    payloads_by_group: Vec<Vec<c64>>,
    phase: CommPhase,
) -> CommHandle<Vec<c64>> {
    debug_assert_eq!(payloads_by_group.len(), grid.n_groups);
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); grid.n_ranks()];
    for (g, msg) in payloads_by_group.into_iter().enumerate() {
        send[grid.leader_of(g)] = msg;
    }
    ctx.alltoallv_start_tagged(send, |m| m.len() * BYTES_PER_VALUE, phase)
}

/// Static probe span name of the batch pack (scatter) stage per transposition.
fn scatter_span_name(phase: CommPhase) -> &'static str {
    match phase {
        CommPhase::FwdG => "transposition.scatter.fwd_g",
        CommPhase::BwdP => "transposition.scatter.bwd_p",
        CommPhase::FwdW => "transposition.scatter.fwd_w",
        CommPhase::BwdSigma => "transposition.scatter.bwd_sigma",
        _ => "transposition.scatter.other",
    }
}

/// Static probe span name of the batch unpack (absorb) stage per
/// transposition.
fn absorb_span_name(phase: CommPhase) -> &'static str {
    match phase {
        CommPhase::FwdG => "transposition.absorb.fwd_g",
        CommPhase::BwdP => "transposition.absorb.bwd_p",
        CommPhase::FwdW => "transposition.absorb.fwd_w",
        CommPhase::BwdSigma => "transposition.absorb.bwd_sigma",
        _ => "transposition.absorb.other",
    }
}

/// Complete an exchange posted by [`leader_alltoallv_start`]: returns the
/// received messages indexed by source *group*.
fn leader_wait(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    handle: CommHandle<Vec<c64>>,
) -> Vec<Vec<c64>> {
    let mut recv = handle.wait(ctx);
    (0..grid.n_groups)
        .map(|g| std::mem::take(&mut recv[grid.leader_of(g)]))
        .collect()
}

/// Drive one forward transposition (energy-major → element-major) through the
/// double-buffered batch pipeline: batch `k+1`'s `Alltoallv` is posted
/// non-blocking before batch `k` is unpacked, so `consume` (the per-batch
/// convolution accumulation; called on leaders for every non-empty batch with
/// the slab-so-far, the arrived global energy indices, and whether earlier
/// batches arrived) computes while the next batch flies. Non-leader ranks
/// join every batch collective with empty messages. Returns the fully
/// assembled element slab on leaders.
#[allow(clippy::too_many_arguments)]
fn forward_pipeline(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    plan: &TranspositionPlan,
    batches: &TranspositionBatchPlan,
    group: usize,
    is_leader: bool,
    comps: &[&[BlockTridiagonal]],
    n_components: usize,
    phase: CommPhase,
    transposition_bytes: &mut u64,
    metrics: &mut PipelineMetrics,
    mut consume: impl FnMut(&ElementSlab, &[usize], bool),
) -> Option<ElementSlab> {
    let n_batches = batches.n_batches;
    let mut slab = is_leader.then(|| {
        ElementSlab::zeroed(
            plan.element_ranges[group].clone(),
            n_components,
            plan.n_energies,
        )
    });
    let post = |b: usize,
                transposition_bytes: &mut u64,
                metrics: &mut PipelineMetrics|
     -> (CommHandle<Vec<c64>>, u64) {
        let payloads = if is_leader {
            quatrex_probe::span(scatter_span_name(phase), "transposition.pack", || {
                plan.scatter_forward_batch(group, comps, batches.local_ranges[group][b].clone())
            })
        } else {
            vec![Vec::new(); grid.n_groups]
        };
        *transposition_bytes += plan.off_rank_bytes(group, &payloads);
        let bytes = payload_bytes(&payloads);
        metrics.track(bytes);
        (leader_alltoallv_start(ctx, grid, payloads, phase), bytes)
    };
    let mut handles: VecDeque<(CommHandle<Vec<c64>>, u64)> = VecDeque::new();
    let first = post(0, transposition_bytes, metrics);
    handles.push_back(first);
    let mut arrived_before = false;
    for b in 0..n_batches {
        if b + 1 < n_batches {
            let next = post(b + 1, transposition_bytes, metrics);
            handles.push_back(next);
        }
        let (handle, sent_bytes) = handles.pop_front().expect("batch in flight"); // lint:allow(no-unwrap): pipeline invariant: a send always precedes this pop
        let received = leader_wait(ctx, grid, handle);
        let recv_bytes = payload_bytes(&received);
        metrics.track(recv_bytes);
        let overlapped = !handles.is_empty();
        let t = Instant::now();
        if let Some(slab) = slab.as_mut() {
            quatrex_probe::span(absorb_span_name(phase), "transposition.unpack", || {
                plan.absorb_forward_batch(group, slab, received, &batches.global_ranges(plan, b));
            });
            let batch_view = batches.arrived_global(plan, b);
            if !batch_view.is_empty() {
                consume(slab, &batch_view, arrived_before);
                arrived_before = true;
            }
        }
        if overlapped {
            metrics.overlap_seconds += t.elapsed().as_secs_f64();
        }
        metrics.release(sent_bytes + recv_bytes);
    }
    slab
}

/// Drive one backward transposition (element-major → energy-major) through
/// the double-buffered batch pipeline: batch `k+1` is packed and posted
/// before batch `k` is scattered into the pre-allocated energy-major
/// matrices. `comps` is the leader's element-phase output (`None` on
/// non-leaders); returns one energy-major quantity per `symmetric` entry on
/// leaders, empty vectors elsewhere.
#[allow(clippy::too_many_arguments)]
fn backward_pipeline(
    ctx: &RankContext<Vec<c64>>,
    grid: &RankGrid,
    plan: &TranspositionPlan,
    batches: &TranspositionBatchPlan,
    group: usize,
    is_leader: bool,
    comps: Option<&[BackComponent<'_>]>,
    symmetric: &[bool],
    phase: CommPhase,
    transposition_bytes: &mut u64,
    metrics: &mut PipelineMetrics,
) -> Vec<Vec<BlockTridiagonal>> {
    let n_batches = batches.n_batches;
    let n_local = plan.energy_ranges[group].len();
    let mut out: Vec<Vec<BlockTridiagonal>> = if is_leader {
        (0..symmetric.len())
            .map(|_| vec![BlockTridiagonal::zeros(plan.n_blocks, plan.block_size); n_local])
            .collect()
    } else {
        (0..symmetric.len()).map(|_| Vec::new()).collect()
    };
    let post = |b: usize,
                transposition_bytes: &mut u64,
                metrics: &mut PipelineMetrics|
     -> (CommHandle<Vec<c64>>, u64) {
        let payloads = match comps {
            Some(comps) => {
                quatrex_probe::span(scatter_span_name(phase), "transposition.pack", || {
                    plan.scatter_backward_batch(group, comps, &batches.global_ranges(plan, b))
                })
            }
            None => vec![Vec::new(); grid.n_groups],
        };
        *transposition_bytes += plan.off_rank_bytes(group, &payloads);
        let bytes = payload_bytes(&payloads);
        metrics.track(bytes);
        (leader_alltoallv_start(ctx, grid, payloads, phase), bytes)
    };
    let mut handles: VecDeque<(CommHandle<Vec<c64>>, u64)> = VecDeque::new();
    let first = post(0, transposition_bytes, metrics);
    handles.push_back(first);
    for b in 0..n_batches {
        if b + 1 < n_batches {
            let next = post(b + 1, transposition_bytes, metrics);
            handles.push_back(next);
        }
        let (handle, sent_bytes) = handles.pop_front().expect("batch in flight"); // lint:allow(no-unwrap): pipeline invariant: a send always precedes this pop
        let received = leader_wait(ctx, grid, handle);
        let recv_bytes = payload_bytes(&received);
        metrics.track(recv_bytes);
        let overlapped = !handles.is_empty();
        let t = Instant::now();
        if is_leader {
            quatrex_probe::span(absorb_span_name(phase), "transposition.unpack", || {
                plan.absorb_backward_batch(
                    group,
                    &mut out,
                    received,
                    symmetric,
                    batches.global_range(plan, group, b),
                );
            });
        }
        if overlapped {
            metrics.overlap_seconds += t.elapsed().as_secs_f64();
        }
        metrics.release(sent_bytes + recv_bytes);
    }
    out
}

/// The read-only inputs every rank's SCBA loop shares, built once per run.
struct RankInputs {
    cfg: ScbaConfig,
    h: BlockTridiagonal,
    v: BlockTridiagonal,
    plan: TranspositionPlan,
    /// The spatial partition layout (empty at `P_S = 1`).
    parts: Vec<SpatialPartition>,
    energies: Vec<f64>,
    de: f64,
    kt: f64,
    n_batches: usize,
    /// Workers per rank (`crate::workers`).
    workers: usize,
    probe: bool,
    epoch: Instant,
    warm: Option<WarmState>,
    capture: bool,
    flops: FlopCounter,
    timings: KernelTimings,
}

/// The per-rank SCBA main loop.
fn rank_main(ctx: &RankContext<Vec<c64>>, inputs: &RankInputs) -> RankOut {
    let RankInputs {
        cfg,
        h,
        v,
        plan,
        parts,
        energies,
        flops,
        timings,
        ..
    } = inputs;
    let (de, kt, ne, nb) = (inputs.de, inputs.kt, energies.len(), h.n_blocks());
    let rank = ctx.rank();
    if inputs.probe {
        quatrex_probe::install(rank, inputs.epoch);
    }
    let grid = RankGrid::new(ctx.n_ranks(), plan.spatial_partitions);
    let p_s = grid.spatial_partitions;
    let group = grid.group_of(rank);
    let is_leader = grid.is_leader(rank);
    let separators: Vec<usize> = if p_s > 1 {
        debug_assert_eq!(parts.len(), p_s, "spatial layout matches P_S");
        separator_blocks(parts)
    } else {
        Vec::new()
    };
    let bs = h.block_size();
    let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;

    let mut memoizer = if cfg.use_memoizer {
        Some(ObcMemoizer::new(cfg.n_fpi, 1e-7))
    } else {
        None
    };
    // The chunk solvers of this rank, both handed to `run_chunks` at each
    // step, which uses the one for this P_S. At P_S = 1 each worker solves its
    // chunks with one energy-batched RGF call on its own scratch, whose
    // staged operands and batch arena stay warm across chunks and
    // iterations. At P_S > 1 the one chunk is solved by the group's
    // collective nested-dissection solve, which non-leaders join with zero
    // systems; no span wraps it, so its waits are not booked as busy time.
    let mut scratches: Vec<RgfBatchScratch> = (0..inputs.workers)
        .map(|_| RgfBatchScratch::new())
        .collect();
    let solve_spatial = |systems: Vec<StagedSystem>,
                         subsystem: Subsystem,
                         n_owned: usize,
                         traffic: &mut SpatialTraffic|
     -> Result<Vec<SelectedSolution>, RgfError> {
        let (kind, slot) = match subsystem {
            Subsystem::Electron => (FlopKind::GRgf, &timings.g_rgf_ns),
            Subsystem::ScreenedCoulomb => (FlopKind::WRgf, &timings.w_rgf_ns),
        };
        let (sols, chunk_traffic) = spatial_phase_solve(
            ctx,
            &grid,
            parts,
            &separators,
            n_owned,
            systems,
            nb,
            bs,
            flops,
            kind,
            timings,
            slot,
        );
        traffic.merge(&chunk_traffic);
        Ok(sols)
    };

    // The batch schedule and the owned energies are fixed for the run.
    let batch_plan = TranspositionBatchPlan::new(plan, inputs.n_batches);
    let my_e = plan.energy_ranges[group].clone();
    let n_local = my_e.len();
    // Scattering self-energies for the owned energies (energy-major, held by
    // the group leader; non-leaders carry no per-energy state).
    let n_state = if is_leader { n_local } else { 0 };
    let mut sigma_r: Vec<BlockTridiagonal> = vec![BlockTridiagonal::zeros(nb, bs); n_state];
    let mut sigma_l = sigma_r.clone();
    let mut sigma_g = sigma_r.clone();

    // Warm start: group leaders adopt the seed state's Σ matrices for their
    // owned energies and pre-fill the OBC memoizer (the shape was validated
    // against the grid before the ranks spawned).
    if let Some(w) = &inputs.warm {
        if is_leader {
            for (k_local, k) in my_e.clone().enumerate() {
                sigma_l[k_local] = w.sigma_lesser[k].clone();
                sigma_g[k_local] = w.sigma_greater[k].clone();
                sigma_r[k_local] = w.sigma_retarded[k].clone();
            }
            if let Some(m) = memoizer.as_mut() {
                for (key, block) in &w.obc {
                    if my_e.contains(&key.energy_index) {
                        m.insert_cached(*key, block.clone());
                    }
                }
            }
        }
    }

    let mut residual_history = Vec::new();
    let mut current_history = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;
    let mut full_iterations = 0usize;
    let mut max_truncation = 0.0f64;
    let mut transposition_bytes = 0u64;
    let mut traffic_g = SpatialTraffic::default();
    let mut traffic_w = SpatialTraffic::default();
    let mut pipe = PipelineMetrics::default();
    let mut memo_per_iteration: Vec<(usize, usize)> = Vec::new();

    // Last-iteration local spectral data. Only the G^< diagonal traces feed
    // the density, so they are extracted at G-step time instead of keeping
    // the full block matrices around.
    let mut local_spectrum: Vec<f64> = Vec::new();
    let mut local_dos: Vec<Vec<f64>> = Vec::new();
    let mut local_traces: Vec<Vec<c64>> = Vec::new();

    // The energy chunks of both steps, as global energy ranges. At P_S = 1
    // every transposition batch is cut into a multiple of `workers` chunks of
    // at most `kernel_batch` energies, run on the rank's workers; a chunk
    // never straddles a batch, so the data a solve produces is exactly the
    // data the next pipelined transposition ships. At P_S > 1 the one chunk
    // is the group's whole owned range.
    let chunks: Vec<Range<usize>> = if p_s == 1 {
        batch_plan.local_ranges[group]
            .iter()
            .flat_map(|lr| {
                let global = my_e.start + lr.start..my_e.start + lr.end;
                energy_chunks(global, cfg.kernel_batch, inputs.workers)
            })
            .collect()
    } else {
        std::iter::once(my_e.start..my_e.start + n_state).collect()
    };
    let local = |c: &Range<usize>| c.start - my_e.start..c.end - my_e.start;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        // ------------------------------------------------------------ G step
        let g_step = |c: Range<usize>, memo: Option<&mut ObcMemoizer>, solve: &mut ChunkSolve| {
            let l = local(&c);
            g_step_batch(
                h,
                energies,
                c,
                cfg,
                kt,
                &sigma_r[l.clone()],
                &sigma_l[l.clone()],
                &sigma_g[l],
                memo,
                solve,
                flops,
                timings,
            )
            .expect("RGF solve failed: the system matrix became singular") // lint:allow(no-unwrap): a singular system matrix is a fatal numeric error
        };
        let mut spatial_g =
            |systems| solve_spatial(systems, Subsystem::Electron, n_local, &mut traffic_g);
        let g_outs = run_chunks(
            &mut scratches,
            &chunks,
            &mut memoizer,
            &|systems, scratch| {
                rgf_batch_solve(systems, scratch, Subsystem::Electron, flops, timings)
            },
            (p_s > 1).then_some(&mut spatial_g as &mut ChunkSolve),
            &g_step,
        );
        let mut g_lesser = Vec::with_capacity(n_state);
        let mut g_greater = Vec::with_capacity(n_state);
        local_spectrum = Vec::with_capacity(n_state);
        local_dos = Vec::with_capacity(n_state);
        local_traces = Vec::with_capacity(n_state);
        for outs in g_outs {
            for out in outs {
                local_traces.push((0..nb).map(|i| out.lesser.diag(i).trace()).collect());
                g_lesser.push(out.lesser);
                g_greater.push(out.greater);
                local_spectrum.push(out.current_spectrum);
                local_dos.push(out.dos_local);
            }
        }

        // Observable allreduce: the per-iteration current.
        let partial: f64 = local_spectrum.iter().sum();
        let current = ctx.allreduce_sum(partial) * de / (2.0 * std::f64::consts::PI);
        current_history.push(current);

        if cfg.max_iterations == 1 {
            break;
        }

        // ------------- transposition #1 + P step (pipelined over B batches)
        // Batch k+1's Alltoallv flies while the polarisation kernels consume
        // batch k: P is bilinear in G, so each arriving batch contributes its
        // cross terms against everything arrived so far (exact; see
        // `polarization_series_accumulate`).
        let elems = plan.element_ranges[group].clone();
        let mut p_acc = is_leader.then(|| ElementSlab::zeroed(elems.clone(), 2, ne));
        let g_slab = forward_pipeline(
            ctx,
            &grid,
            plan,
            &batch_plan,
            group,
            is_leader,
            &[&g_lesser, &g_greater],
            2,
            CommPhase::FwdG,
            &mut transposition_bytes,
            &mut pipe,
            |slab, batch, arrived_before| {
                let acc = p_acc.as_mut().expect("leader accumulators"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                race::access_shared(
                    SharedId::new("dist.conv_accum", group as u64),
                    AccessKind::Write,
                );
                quatrex_probe::span("scba.p.accumulate", "conv.p", || {
                    let t = Instant::now();
                    for_each_element(
                        lesser_greater(acc),
                        ne,
                        inputs.workers,
                        flops,
                        &|e_local, [lc, lm, gc, gm], flops| {
                            let id = plan.elements[elems.start + e_local];
                            // P_ij(ω) needs G^<_ij, G^>_ji, G^>_ij, G^<_ji; the
                            // mirrored element swaps canonical and mirror series.
                            let gl = slab.canonical_series(0, e_local);
                            let gg = slab.canonical_series(1, e_local);
                            let gl_m = slab.mirror_series(0, e_local);
                            let gg_m = slab.mirror_series(1, e_local);
                            polarization_series_accumulate(
                                lc,
                                gc,
                                gl,
                                gg_m,
                                gg,
                                gl_m,
                                batch,
                                arrived_before,
                                de,
                                flops,
                            );
                            if !id.is_self_mirror() {
                                polarization_series_accumulate(
                                    lm,
                                    gm,
                                    gl_m,
                                    gg,
                                    gg_m,
                                    gl,
                                    batch,
                                    arrived_before,
                                    de,
                                    flops,
                                );
                            }
                        },
                    );
                    timings.add(&timings.convolution_ns, t);
                });
            },
        );
        let p_phase = p_acc.map(|acc| {
            quatrex_probe::span("scba.p.finish", "conv.p", || {
                let t = Instant::now();
                let phase = finish_phase(
                    acc,
                    plan,
                    group,
                    cfg.enforce_symmetry,
                    flops,
                    inputs.workers,
                );
                timings.add(&timings.convolution_ns, t);
                phase
            })
        });

        // ------------------------------------ transposition #2: P backward
        let p_comps = p_phase.as_ref().map(back_components);
        let mut p_out = backward_pipeline(
            ctx,
            &grid,
            plan,
            &batch_plan,
            group,
            is_leader,
            p_comps.as_ref().map(|c| c.as_slice()),
            &[true, true, false],
            CommPhase::BwdP,
            &mut transposition_bytes,
            &mut pipe,
        );
        let (p_lesser, p_greater, p_retarded) = if is_leader {
            let p_retarded = p_out.pop().expect("P^R"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            let p_greater = p_out.pop().expect("P^>"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            let p_lesser = p_out.pop().expect("P^<"); // lint:allow(no-unwrap): the P convolution pushes exactly three grids
            (p_lesser, p_greater, p_retarded)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        // ------------------------------------------------------------ W step
        let w_step = |c: Range<usize>, memo: Option<&mut ObcMemoizer>, solve: &mut ChunkSolve| {
            let l = local(&c);
            w_step_batch(
                v,
                &p_retarded[l.clone()],
                &p_lesser[l.clone()],
                &p_greater[l],
                c,
                cfg,
                memo,
                solve,
                flops,
                timings,
            )
            .expect("W RGF solve failed") // lint:allow(no-unwrap): a singular W system is a fatal numeric error
        };
        let mut spatial_w =
            |systems| solve_spatial(systems, Subsystem::ScreenedCoulomb, n_local, &mut traffic_w);
        let w_outs = run_chunks(
            &mut scratches,
            &chunks,
            &mut memoizer,
            &|systems, scratch| {
                rgf_batch_solve(systems, scratch, Subsystem::ScreenedCoulomb, flops, timings)
            },
            (p_s > 1).then_some(&mut spatial_w as &mut ChunkSolve),
            &w_step,
        );
        let mut w_lesser = Vec::with_capacity(n_state);
        let mut w_greater = Vec::with_capacity(n_state);
        let mut local_trunc = 0.0f64;
        for outs in w_outs {
            for out in outs {
                local_trunc = local_trunc.max(out.truncation);
                w_lesser.push(out.lesser);
                w_greater.push(out.greater);
            }
        }
        // Global truncation maximum (tiny ordered gather).
        let truncs =
            ctx.allgather_tagged(vec![c64::new(local_trunc, 0.0)], wire, CommPhase::Gathers);
        let iter_trunc = truncs.iter().flatten().fold(0.0f64, |m, t| m.max(t.re));
        max_truncation = max_truncation.max(iter_trunc);

        // ------------- transposition #3 + Σ step (pipelined over B batches)
        // Σ is linear in W, so each arriving W batch contributes
        // `conv(Δw, g)` against the complete G slab (held since #1) while the
        // next batch flies (see `self_energy_series_accumulate`).
        let mut s_acc = is_leader.then(|| ElementSlab::zeroed(elems.clone(), 2, ne));
        let w_slab = forward_pipeline(
            ctx,
            &grid,
            plan,
            &batch_plan,
            group,
            is_leader,
            &[&w_lesser, &w_greater],
            2,
            CommPhase::FwdW,
            &mut transposition_bytes,
            &mut pipe,
            |w_slab, batch, _arrived_before| {
                let g_slab = g_slab.as_ref().expect("leader holds the G slab"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                let acc = s_acc.as_mut().expect("leader accumulators"); // lint:allow(no-unwrap): this closure runs on the leader rank only
                race::access_shared(
                    SharedId::new("dist.conv_accum", group as u64),
                    AccessKind::Write,
                );
                quatrex_probe::span("scba.sigma.accumulate", "conv.sigma", || {
                    let t = Instant::now();
                    for_each_element(
                        lesser_greater(acc),
                        ne,
                        inputs.workers,
                        flops,
                        &|e_local, [lc, lm, gc, gm], flops| {
                            let id = plan.elements[elems.start + e_local];
                            // Σ_ij(E) needs G^≶_ij and W^≶_ij of the same element.
                            self_energy_series_accumulate(
                                lc,
                                gc,
                                g_slab.canonical_series(0, e_local),
                                g_slab.canonical_series(1, e_local),
                                w_slab.canonical_series(0, e_local),
                                w_slab.canonical_series(1, e_local),
                                batch,
                                de,
                                flops,
                            );
                            if !id.is_self_mirror() {
                                self_energy_series_accumulate(
                                    lm,
                                    gm,
                                    g_slab.mirror_series(0, e_local),
                                    g_slab.mirror_series(1, e_local),
                                    w_slab.mirror_series(0, e_local),
                                    w_slab.mirror_series(1, e_local),
                                    batch,
                                    de,
                                    flops,
                                );
                            }
                        },
                    );
                    timings.add(&timings.convolution_ns, t);
                });
            },
        );
        drop(w_slab);
        let s_phase = s_acc.map(|acc| {
            quatrex_probe::span("scba.sigma.finish", "conv.sigma", || {
                let t = Instant::now();
                let phase = finish_phase(
                    acc,
                    plan,
                    group,
                    cfg.enforce_symmetry,
                    flops,
                    inputs.workers,
                );
                timings.add(&timings.convolution_ns, t);
                phase
            })
        });

        // ------------------------------------ transposition #4: Σ backward
        let s_comps = s_phase.as_ref().map(back_components);
        let mut s_out = backward_pipeline(
            ctx,
            &grid,
            plan,
            &batch_plan,
            group,
            is_leader,
            s_comps.as_ref().map(|c| c.as_slice()),
            &[true, true, false],
            CommPhase::BwdSigma,
            &mut transposition_bytes,
            &mut pipe,
        );
        let (s_lesser_new, s_greater_new, s_retarded_new) = if is_leader {
            let s_retarded_new = s_out.pop().expect("Σ^R"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            let s_greater_new = s_out.pop().expect("Σ^>"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            let s_lesser_new = s_out.pop().expect("Σ^<"); // lint:allow(no-unwrap): the Sigma convolution pushes exactly three grids
            (s_lesser_new, s_greater_new, s_retarded_new)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        full_iterations += 1;
        // Cumulative memoizer snapshot: consecutive differences give the
        // per-iteration hit rates reported by `DistReport`.
        memo_per_iteration.push(match &memoizer {
            Some(m) => {
                let s = m.stats();
                (s.hits(), s.total())
            }
            None => (0, 0),
        });

        // ------------------------------------------- mixing and convergence
        let (partial_update, partial_reference) = quatrex_probe::span("scba.mix", "mix", || {
            let t = Instant::now();
            let mut partial_update = 0.0f64;
            let mut partial_reference = 0.0f64;
            for k_local in 0..n_state {
                let (upd, refr) = mix_sigma_energy(
                    &mut sigma_l[k_local],
                    &mut sigma_g[k_local],
                    &mut sigma_r[k_local],
                    &s_lesser_new[k_local],
                    &s_greater_new[k_local],
                    &s_retarded_new[k_local],
                    cfg.mixing,
                );
                partial_update += upd;
                partial_reference += refr;
            }
            timings.add(&timings.other_ns, t);
            (partial_update, partial_reference)
        });
        let update_norm = ctx.allreduce_sum(partial_update);
        let reference_norm = ctx.allreduce_sum(partial_reference);
        let residual = if reference_norm > 0.0 {
            (update_norm / reference_norm).sqrt()
        } else {
            0.0
        };
        residual_history.push(residual);
        if residual < cfg.tolerance {
            converged = true;
            break;
        }
    }

    // ------------------------------------------------- final ordered gathers
    // Pack, per owned energy: current spectrum, per-block DOS, per-block
    // G^< diagonal traces — gathered in rank order (= ascending energy, as
    // group leaders appear in group order), so every rank can evaluate the
    // observables with the sequential summation order exactly.
    let mut packed = Vec::with_capacity(n_state * (1 + 2 * nb));
    for k_local in 0..local_spectrum.len() {
        packed.push(c64::new(local_spectrum[k_local], 0.0));
        for &d in &local_dos[k_local] {
            packed.push(c64::new(d, 0.0));
        }
        packed.extend_from_slice(&local_traces[k_local]);
    }
    let gathered = ctx.allgather_tagged(packed, wire, CommPhase::Gathers);

    let mut current_spectrum = Vec::with_capacity(ne);
    let mut dos_local: Vec<Vec<f64>> = Vec::with_capacity(ne);
    let mut density = vec![0.0f64; nb];
    for msg in &gathered {
        let per_energy = 1 + 2 * nb;
        assert_eq!(msg.len() % per_energy, 0, "spectral gather shape");
        for chunk in msg.chunks_exact(per_energy) {
            current_spectrum.push(chunk[0].re);
            dos_local.push(chunk[1..1 + nb].iter().map(|v| v.re).collect());
            // Same accumulation as `observables::electron_density`.
            for (i, d) in density.iter_mut().enumerate() {
                let tr = chunk[1 + nb + i];
                *d += (c64::new(0.0, -1.0) * tr).re * de / (2.0 * std::f64::consts::PI);
            }
        }
    }
    assert!(
        iterations == 0 || current_spectrum.len() == ne,
        "spectral gather covers the grid",
    );
    let exact_current = integrate_current(&current_spectrum, de);
    if let Some(last) = current_history.last_mut() {
        *last = exact_current;
    }

    let (memo_hits, memo_total) = match &memoizer {
        Some(m) => {
            let s = m.stats();
            (s.memoized_calls, s.memoized_calls + s.direct_calls)
        }
        None => (0, 0),
    };

    // State capture: drain this leader's final Σ matrices and memoizer
    // entries, keyed by global energy index so the solver can reassemble the
    // full-grid state.
    let mut final_sigma = Vec::new();
    let mut final_obc = Vec::new();
    if inputs.capture && is_leader {
        let sl = std::mem::take(&mut sigma_l);
        let sg = std::mem::take(&mut sigma_g);
        let sr = std::mem::take(&mut sigma_r);
        for (((k, l), g), r) in my_e.clone().zip(sl).zip(sg).zip(sr) {
            final_sigma.push((k, l, g, r));
        }
        if let Some(m) = memoizer.as_mut() {
            for k in my_e {
                final_obc.extend(m.extract_energy(k));
            }
        }
    }

    RankOut {
        iterations,
        converged,
        residual_history,
        current_history,
        observables: Observables {
            electron_density: density,
            current: exact_current,
            spectral: SpectralData {
                energies: energies.to_vec(),
                dos: dos_local.iter().map(|v| v.iter().sum::<f64>()).collect(),
                dos_local,
                current_spectrum,
            },
        },
        full_iterations,
        max_truncation,
        transposition_bytes,
        traffic_g,
        traffic_w,
        memo_hits,
        memo_total,
        peak_slab_bytes: pipe.peak_bytes,
        overlap_seconds: pipe.overlap_seconds,
        memo_per_iteration,
        trace: quatrex_probe::finish(),
        final_sigma,
        final_obc,
    }
}

/// Copy the accumulated timings out of the shared atomics.
fn copy_timings(shared: &KernelTimings) -> KernelTimings {
    use std::sync::atomic::{AtomicU64, Ordering};
    let copy = KernelTimings::default();
    let pairs = [
        (&copy.g_assembly_ns, &shared.g_assembly_ns),
        (&copy.g_rgf_ns, &shared.g_rgf_ns),
        (&copy.w_assembly_ns, &shared.w_assembly_ns),
        (&copy.w_rgf_ns, &shared.w_rgf_ns),
        (&copy.convolution_ns, &shared.convolution_ns),
        (&copy.other_ns, &shared.other_ns),
    ];
    for (dst, src) in pairs {
        let dst: &AtomicU64 = dst;
        dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    copy
}
