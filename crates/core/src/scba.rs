//! The self-consistent Born approximation (SCBA) driver.
//!
//! One SCBA iteration executes the `G → P → W → Σ` cycle of Fig. 3:
//!
//! 1. **G-step** — for every energy point (in parallel): assemble
//!    `M̃(E) = (E+iη)·I − H − Σ^R_scatt − Σ^R_OBC` and the lesser/greater RHS,
//!    then solve with RGF for the selected `G^R`, `G^<`, `G^>` blocks;
//! 2. **P-step** — energy convolutions of the Green's functions give the
//!    polarisation `P^≶`, followed by the causality construction of `P^R`;
//! 3. **W-step** — per (boson) energy: assemble `I − V·P^R` and `V·P≶·V†`
//!    with their OBCs (Beyn + Lyapunov), solve with RGF for `W^≶`;
//! 4. **Σ-step** — energy convolutions of `G` and `W` give `Σ^≶`, the
//!    causality construction gives `Σ^R`, and the result is linearly mixed
//!    into the previous iteration's self-energy.
//!
//! Lesser/greater quantities are re-symmetrised on the fly (Section 5.2), the
//! OBC memoizer caches surface functions across iterations (Section 5.3), and
//! per-kernel wall times and FLOPs are accumulated in the same categories as
//! the paper's Table 4.

use quatrex_probe::clock::Instant;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rayon::prelude::*;

use quatrex_device::{thermal_energy_ev, Device, EnergyGrid};
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_obc::{ObcMemoizer, ObcMode, Subsystem};
use quatrex_rgf::{rgf_solve_batch_into, RgfBatchScratch, RgfError, SelectedSolution};
use quatrex_sparse::BlockTridiagonal;

use crate::assembly::{assemble_g, assemble_w, ObcMethod};
use crate::convolution::{
    polarization_from_g, retarded_from_lesser_greater, self_energy_from_gw, symmetrize_all,
    EnergyResolved,
};
use crate::observables::{
    current_spectrum_left, electron_density, integrate_current, local_dos, Observables,
    SpectralData,
};

/// Wall-time accumulators per kernel category (nanoseconds), mirroring the
/// rows of the paper's Table 4.
#[derive(Debug, Default)]
pub struct KernelTimings {
    /// OBC + assembly of the electron system (`G: OBC`).
    pub g_assembly_ns: AtomicU64,
    /// Electron RGF solves (`G: RGF`).
    pub g_rgf_ns: AtomicU64,
    /// Assembly of the screened-interaction system, including its OBCs
    /// (`W: Assembly` — Beyn, Lyapunov, LHS, RHS).
    pub w_assembly_ns: AtomicU64,
    /// Screened-interaction RGF solves (`W: RGF`).
    pub w_rgf_ns: AtomicU64,
    /// Energy convolutions / FFTs (`P` and `Σ`).
    pub convolution_ns: AtomicU64,
    /// Everything else (mixing, symmetrisation, observables).
    pub other_ns: AtomicU64,
}

impl KernelTimings {
    /// Accumulate the wall time elapsed since `start` into `slot` (one of the
    /// fields of this struct).
    pub fn add(&self, slot: &AtomicU64, start: Instant) {
        slot.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulate `seconds` of wall time into `slot` — for call sites that
    /// already measured a duration (e.g. through a probe span) rather than
    /// holding an `Instant`.
    pub fn add_seconds(&self, slot: &AtomicU64, seconds: f64) {
        slot.fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total accumulated wall time in seconds.
    pub fn total_seconds(&self) -> f64 {
        (self.g_assembly_ns.load(Ordering::Relaxed)
            + self.g_rgf_ns.load(Ordering::Relaxed)
            + self.w_assembly_ns.load(Ordering::Relaxed)
            + self.w_rgf_ns.load(Ordering::Relaxed)
            + self.convolution_ns.load(Ordering::Relaxed)
            + self.other_ns.load(Ordering::Relaxed)) as f64
            / 1e9
    }

    /// Snapshot as (label, seconds) pairs in Table 4 order.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
        vec![
            ("G: OBC + assembly", s(&self.g_assembly_ns)),
            ("G: RGF", s(&self.g_rgf_ns)),
            ("W: Assembly", s(&self.w_assembly_ns)),
            ("W: RGF", s(&self.w_rgf_ns)),
            ("Convolutions (P, Σ)", s(&self.convolution_ns)),
            ("Other", s(&self.other_ns)),
        ]
    }
}

/// Output of the G-step for one energy point: the selected Green's function
/// blocks and the spectral quantities derived from them.
pub struct GStepOutput {
    /// Selected blocks of `G^R`.
    pub retarded: BlockTridiagonal,
    /// Selected blocks of `G^<` (symmetrised if configured).
    pub lesser: BlockTridiagonal,
    /// Selected blocks of `G^>` (symmetrised if configured).
    pub greater: BlockTridiagonal,
    /// Energy-resolved current at the left contact.
    pub current_spectrum: f64,
    /// Local density of states per transport cell.
    pub dos_local: Vec<f64>,
}

/// One energy's assembled system as a chunk solver receives it: the system
/// matrix and its lesser and greater right-hand sides.
pub type StagedSystem = (BlockTridiagonal, BlockTridiagonal, BlockTridiagonal);

/// Cut `range` into consecutive near-equal energy chunks of at most `size`
/// points, the unit of [`g_step_batch`] and [`w_step_batch`], their count a
/// multiple of `workers` unless the range holds fewer points than that. A
/// `size` or `workers` of 0 counts as 1. 12 points at `size = 8` become
/// 6 + 6 on one or two workers, and 4 points become 2 + 2 on two.
pub fn energy_chunks(range: Range<usize>, size: usize, workers: usize) -> Vec<Range<usize>> {
    let n = range.len();
    let workers = workers.max(1);
    let count = (n.div_ceil(size.max(1)).div_ceil(workers) * workers).min(n);
    let bound = |i: usize| range.start + i * n / count;
    (0..count).map(|i| bound(i)..bound(i + 1)).collect()
}

/// The single-rank chunk solver: one energy-batched RGF solve
/// ([`rgf_solve_batch_into`]) of a chunk's staged systems on a warm
/// `scratch`. The solve is traced as `scba.g.rgf.batch` (category
/// `g.rgf.batch`) for electrons and as its `w` twin for the screened
/// interaction; its FLOPs and wall time go to that subsystem's RGF entries.
pub fn rgf_batch_solve(
    systems: Vec<StagedSystem>,
    scratch: &mut RgfBatchScratch,
    subsystem: Subsystem,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> Result<Vec<SelectedSolution>, RgfError> {
    let (name, category, kind, slot) = match subsystem {
        Subsystem::Electron => (
            "scba.g.rgf.batch",
            "g.rgf.batch",
            FlopKind::GRgf,
            &timings.g_rgf_ns,
        ),
        Subsystem::ScreenedCoulomb => (
            "scba.w.rgf.batch",
            "w.rgf.batch",
            FlopKind::WRgf,
            &timings.w_rgf_ns,
        ),
    };
    let Some((a, _, _)) = systems.first() else {
        return Ok(Vec::new());
    };
    let matrices: Vec<&BlockTridiagonal> = systems.iter().map(|s| &s.0).collect();
    let rhs: Vec<[&BlockTridiagonal; 2]> = systems.iter().map(|s| [&s.1, &s.2]).collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
    let mut sols = vec![SelectedSolution::zeros(a.n_blocks(), a.block_size(), 2); systems.len()];
    let (res, secs) = quatrex_probe::span_timed(name, category, || {
        rgf_solve_batch_into(&matrices, &rhs_slices, &mut sols, scratch)
    });
    res.map_err(|e| e.error)?;
    timings.add_seconds(slot, secs);
    for sol in &sols {
        flops.add(kind, sol.flops);
    }
    Ok(sols)
}

/// Call a chunk solver and check it returns one solution per system.
fn chunk_solve(
    solve: impl FnOnce(Vec<StagedSystem>) -> Result<Vec<SelectedSolution>, RgfError>,
    systems: Vec<StagedSystem>,
) -> Result<Vec<SelectedSolution>, RgfError> {
    let n = systems.len();
    let sols = solve(systems)?;
    assert_eq!(
        sols.len(),
        n,
        "the chunk solver returns one solution per system"
    );
    Ok(sols)
}

/// Run the G-step for one chunk of energy points: per-energy assembly (OBC
/// cascade and memoizer, in energy order), one call of the chunk solver
/// `solve` on the staged systems, then the per-energy finish —
/// symmetrisation and the spectral observables.
///
/// `indices` are the chunk's global energy indices into `energies`; the
/// self-energy slices hold the chunk's energies in the same order. `solve`
/// books its own FLOPs, kernel time and probe spans: [`ScbaSolver`] and the
/// single-partition distributed driver pass [`rgf_batch_solve`], the
/// spatially decomposed driver passes its collective nested-dissection
/// solve. Every energy's output is bit-identical whatever the chunk size.
#[allow(clippy::too_many_arguments)]
pub fn g_step_batch(
    h: &BlockTridiagonal,
    energies: &[f64],
    indices: Range<usize>,
    config: &ScbaConfig,
    kt: f64,
    sigma_r: &[BlockTridiagonal],
    sigma_lesser: &[BlockTridiagonal],
    sigma_greater: &[BlockTridiagonal],
    mut memoizer: Option<&mut ObcMemoizer>,
    solve: impl FnOnce(Vec<StagedSystem>) -> Result<Vec<SelectedSolution>, RgfError>,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> Result<Vec<GStepOutput>, RgfError> {
    let n = indices.len();
    assert!(
        sigma_r.len() == n && sigma_lesser.len() == n && sigma_greater.len() == n,
        "per-energy inputs must match the chunk length"
    );
    let mut systems = Vec::with_capacity(n);
    let mut obc_left = Vec::with_capacity(n);
    for (i, k) in indices.enumerate() {
        let (asm, secs) = quatrex_probe::span_timed("g.assembly", "g.assembly", || {
            assemble_g(
                h,
                energies[k],
                config.eta,
                k,
                Some(&sigma_r[i]),
                Some(&sigma_lesser[i]),
                Some(&sigma_greater[i]),
                config.mu_left,
                config.mu_right,
                kt,
                config.obc_method_g,
                memoizer.as_deref_mut(),
                flops,
            )
        });
        timings.add_seconds(&timings.g_assembly_ns, secs);
        systems.push((asm.system, asm.rhs_lesser, asm.rhs_greater));
        obc_left.push((asm.sigma_obc_left_lesser, asm.sigma_obc_left_greater));
    }
    let sols = chunk_solve(solve, systems)?;
    Ok(sols
        .into_iter()
        .zip(obc_left)
        .map(|(sol, (left_lesser, left_greater))| {
            let mut rhs = sol.lesser.into_iter();
            let mut lesser = rhs.next().expect("lesser RHS solved");
            let mut greater = rhs.next().expect("greater RHS solved");
            if config.enforce_symmetry {
                lesser.symmetrize_negf();
                greater.symmetrize_negf();
            }
            let current_spectrum =
                current_spectrum_left(&left_lesser, &left_greater, lesser.diag(0), greater.diag(0));
            let dos_local = local_dos(&sol.retarded);
            GStepOutput {
                retarded: sol.retarded,
                lesser,
                greater,
                current_spectrum,
                dos_local,
            }
        })
        .collect())
}

/// Output of the W-step for one (boson) energy point.
pub struct WStepOutput {
    /// Selected blocks of `W^<` (symmetrised if configured).
    pub lesser: BlockTridiagonal,
    /// Selected blocks of `W^>` (symmetrised if configured).
    pub greater: BlockTridiagonal,
    /// Fraction of banded-product weight dropped by the BT truncation.
    pub truncation: f64,
}

/// Run the W-step for one chunk of (boson) energy points: per-energy
/// assembly of `I − V·P^R` with its OBCs, one call of the chunk solver
/// `solve`, then per-energy symmetrisation. The arguments follow
/// [`g_step_batch`].
#[allow(clippy::too_many_arguments)]
pub fn w_step_batch(
    coulomb: &BlockTridiagonal,
    p_retarded: &[BlockTridiagonal],
    p_lesser: &[BlockTridiagonal],
    p_greater: &[BlockTridiagonal],
    indices: Range<usize>,
    config: &ScbaConfig,
    mut memoizer: Option<&mut ObcMemoizer>,
    solve: impl FnOnce(Vec<StagedSystem>) -> Result<Vec<SelectedSolution>, RgfError>,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> Result<Vec<WStepOutput>, RgfError> {
    let n = indices.len();
    assert!(
        p_retarded.len() == n && p_lesser.len() == n && p_greater.len() == n,
        "per-energy inputs must match the chunk length"
    );
    let mut systems = Vec::with_capacity(n);
    let mut truncation = Vec::with_capacity(n);
    for (i, k) in indices.enumerate() {
        let (asm, secs) = quatrex_probe::span_timed("w.assembly", "w.assembly", || {
            assemble_w(
                coulomb,
                &p_retarded[i],
                &p_lesser[i],
                &p_greater[i],
                k,
                config.obc_method_w,
                memoizer.as_deref_mut(),
                flops,
            )
        });
        timings.add_seconds(&timings.w_assembly_ns, secs);
        systems.push((asm.system, asm.rhs_lesser, asm.rhs_greater));
        truncation.push(asm.truncation_error);
    }
    let sols = chunk_solve(solve, systems)?;
    Ok(sols
        .into_iter()
        .zip(truncation)
        .map(|(sol, truncation)| {
            let mut rhs = sol.lesser.into_iter();
            let mut lesser = rhs.next().expect("lesser RHS solved");
            let mut greater = rhs.next().expect("greater RHS solved");
            if config.enforce_symmetry {
                lesser.symmetrize_negf();
                greater.symmetrize_negf();
            }
            WStepOutput {
                lesser,
                greater,
                truncation,
            }
        })
        .collect())
}

/// Linearly mix the new self-energies of one energy point into the previous
/// iteration's (`mixed = mix·new + (1−mix)·old`, applied to `Σ^<`, `Σ^>` and
/// `Σ^R` in place) and return this energy's contribution to the convergence
/// norms: `(‖Σ^<_new − Σ^<_old‖²_F, ‖Σ^<_new‖²_F)`.
///
/// Shared between both drivers so the mixing arithmetic and the residual are
/// computed identically.
pub fn mix_sigma_energy(
    sigma_l: &mut BlockTridiagonal,
    sigma_g: &mut BlockTridiagonal,
    sigma_r: &mut BlockTridiagonal,
    new_l: &BlockTridiagonal,
    new_g: &BlockTridiagonal,
    new_r: &BlockTridiagonal,
    mix: f64,
) -> (f64, f64) {
    let mix_into = |old: &BlockTridiagonal, new: &BlockTridiagonal| -> BlockTridiagonal {
        let mut mixed = new.clone();
        mixed.scale_mut(quatrex_linalg::c64::new(mix, 0.0));
        mixed.add(quatrex_linalg::c64::new(1.0 - mix, 0.0), old)
    };
    let diff = new_l.add(quatrex_linalg::c64::new(-1.0, 0.0), sigma_l);
    let update_sq = diff.norm_fro().powi(2);
    let reference_sq = new_l.norm_fro().powi(2);
    *sigma_l = mix_into(sigma_l, new_l);
    *sigma_g = mix_into(sigma_g, new_g);
    *sigma_r = mix_into(sigma_r, new_r);
    (update_sq, reference_sq)
}

/// Configuration of an SCBA run.
#[derive(Debug, Clone)]
pub struct ScbaConfig {
    /// Number of energy points `N_E`.
    pub n_energies: usize,
    /// Small positive broadening `η` (eV) of the retarded resolvent.
    pub eta: f64,
    /// Source (left) chemical potential (eV).
    pub mu_left: f64,
    /// Drain (right) chemical potential (eV).
    pub mu_right: f64,
    /// Lattice temperature (K).
    pub temperature_k: f64,
    /// Maximum number of SCBA iterations.
    pub max_iterations: usize,
    /// Relative convergence tolerance on the self-energy update.
    pub tolerance: f64,
    /// Linear mixing factor applied to the new self-energy (0 < mixing ≤ 1).
    pub mixing: f64,
    /// Enable the dynamic OBC memoizer (Section 5.3).
    pub use_memoizer: bool,
    /// Fixed-point refinement budget of the memoizer (`N_FPI`).
    pub n_fpi: usize,
    /// Retarded OBC method for the electron subsystem.
    pub obc_method_g: ObcMethod,
    /// Retarded OBC method for the screened-interaction subsystem.
    pub obc_method_w: ObcMethod,
    /// Enforce the lesser/greater symmetry after every kernel (Section 5.2).
    pub enforce_symmetry: bool,
    /// Strength of the GW self-energy fed back into the G-solver (1.0 = full
    /// scGW; smaller values damp the interaction for difficult bias points).
    pub interaction_scale: f64,
    /// Chunk size of the G and W steps ([`g_step_batch`] /
    /// [`w_step_batch`]): at most this many energy points share one batched
    /// RGF kernel call, so shared per-call setup is paid once per chunk and
    /// every block product runs as a `gemm_batch` sweep. Both drivers cut
    /// their energies with [`energy_chunks`] into near-equal chunks of at
    /// most this size, their count a multiple of the worker count (one in
    /// [`ScbaSolver`], a rank's workers in the distributed driver). It is a
    /// size, not a code path: every value (`0` counts as `1`) runs the same
    /// chunk path and gives bit-identical results.
    pub kernel_batch: usize,
}

impl Default for ScbaConfig {
    fn default() -> Self {
        Self {
            n_energies: 64,
            eta: 1e-3,
            mu_left: 0.1,
            mu_right: -0.1,
            temperature_k: 300.0,
            max_iterations: 20,
            tolerance: 1e-4,
            mixing: 0.5,
            use_memoizer: true,
            n_fpi: 20,
            obc_method_g: ObcMethod::SanchoRubio,
            obc_method_w: ObcMethod::Beyn,
            enforce_symmetry: true,
            interaction_scale: 1.0,
            kernel_batch: 8,
        }
    }
}

/// Result of an SCBA run.
#[derive(Debug)]
pub struct ScbaResult {
    /// Number of iterations performed.
    pub iterations: usize,
    /// True if the self-energy update fell below the tolerance.
    pub converged: bool,
    /// Relative self-energy update per iteration.
    pub residual_history: Vec<f64>,
    /// Terminal current per iteration (e/ħ·eV units).
    pub current_history: Vec<f64>,
    /// Final observables.
    pub observables: Observables,
    /// Per-kernel wall times.
    pub timings: KernelTimings,
    /// Per-kernel FLOP counts.
    pub flops: FlopCounter,
    /// Fraction of OBC solves answered from the memoizer cache.
    pub memoizer_hit_rate: f64,
    /// Largest relative Frobenius weight dropped by the W-assembly truncation.
    pub max_truncation_error: f64,
}

/// The NEGF+scGW solver bound to one device and configuration.
pub struct ScbaSolver {
    device: Device,
    config: ScbaConfig,
    grid: EnergyGrid,
}

impl ScbaSolver {
    /// Create a solver for `device` with the given configuration.
    pub fn new(device: Device, config: ScbaConfig) -> Self {
        let grid = device.default_energy_grid(config.n_energies);
        Self {
            device,
            config,
            grid,
        }
    }

    /// Create a solver with an explicit energy grid.
    pub fn with_grid(device: Device, config: ScbaConfig, grid: EnergyGrid) -> Self {
        Self {
            device,
            config,
            grid,
        }
    }

    /// The energy grid used by the solver.
    pub fn energy_grid(&self) -> &EnergyGrid {
        &self.grid
    }

    /// The device being simulated.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run a single ballistic iteration (no electron-electron interaction):
    /// the Σ = 0 limit used as the reference "first iteration" of the SCBA.
    pub fn ballistic(&self) -> ScbaResult {
        let mut cfg = self.config.clone();
        cfg.max_iterations = 1;
        let solver = ScbaSolver {
            device: self.device.clone(),
            config: cfg,
            grid: self.grid.clone(),
        };
        solver.run()
    }

    /// Run the SCBA loop until convergence or the iteration limit.
    pub fn run(&self) -> ScbaResult {
        let h = self.device.hamiltonian_bt();
        let v = {
            let mut v = self.device.coulomb_bt();
            if self.config.interaction_scale != 1.0 {
                v.scale_mut(quatrex_linalg::c64::new(self.config.interaction_scale, 0.0));
            }
            v
        };
        let nb = h.n_blocks();
        let bs = h.block_size();
        let ne = self.grid.len();
        let de = self.grid.spacing();
        let kt = thermal_energy_ev(self.config.temperature_k);
        let energies = self.grid.points();

        let flops = FlopCounter::new();
        let timings = KernelTimings::default();
        let mut residual_history = Vec::new();
        let mut current_history = Vec::new();
        let mut converged = false;
        let mut max_truncation: f64 = 0.0;

        // Scattering self-energies (previous iteration), energy-resolved.
        let mut sigma_r: EnergyResolved = vec![BlockTridiagonal::zeros(nb, bs); ne];
        let mut sigma_l: EnergyResolved = vec![BlockTridiagonal::zeros(nb, bs); ne];
        let mut sigma_g: EnergyResolved = vec![BlockTridiagonal::zeros(nb, bs); ne];

        // The energy grid in chunks of `kernel_batch`: each chunk's energies
        // share one batched RGF solve, one warm batch scratch and one OBC
        // memoizer (keyed by energy index, so sharing it changes no result),
        // and the chunks run data-parallel without sharing mutable state.
        let chunks = energy_chunks(0..ne, self.config.kernel_batch, 1);
        let chunk_state: Vec<Mutex<(ObcMemoizer, RgfBatchScratch)>> = chunks
            .iter()
            .map(|_| {
                Mutex::new((
                    ObcMemoizer::new(self.config.n_fpi, 1e-7),
                    RgfBatchScratch::new(),
                ))
            })
            .collect();

        // Final-iteration spectral data.
        let mut final_g_lesser: EnergyResolved = Vec::new();
        let mut final_spectral = SpectralData::default();
        let mut iterations = 0usize;

        for _iter in 0..self.config.max_iterations {
            iterations += 1;

            // ------------------------------------------------------------ G step
            let g_results: Vec<Result<Vec<GStepOutput>, RgfError>> = chunks
                .par_iter()
                .enumerate()
                .map(|(ci, c)| {
                    let mut state = chunk_state[ci].lock();
                    let (memoizer, scratch) = &mut *state;
                    g_step_batch(
                        &h,
                        &energies,
                        c.clone(),
                        &self.config,
                        kt,
                        &sigma_r[c.clone()],
                        &sigma_l[c.clone()],
                        &sigma_g[c.clone()],
                        self.config.use_memoizer.then_some(memoizer),
                        |systems| {
                            rgf_batch_solve(systems, scratch, Subsystem::Electron, &flops, &timings)
                        },
                        &flops,
                        &timings,
                    )
                })
                .collect();

            let mut g_retarded: EnergyResolved = Vec::with_capacity(ne);
            let mut g_lesser: EnergyResolved = Vec::with_capacity(ne);
            let mut g_greater: EnergyResolved = Vec::with_capacity(ne);
            let mut current_spectrum = Vec::with_capacity(ne);
            let mut dos_local = Vec::with_capacity(ne);
            for out in g_results
                .into_iter()
                .flat_map(|r| r.expect("RGF solve failed: the system matrix became singular"))
            {
                g_retarded.push(out.retarded);
                g_lesser.push(out.lesser);
                g_greater.push(out.greater);
                current_spectrum.push(out.current_spectrum);
                dos_local.push(out.dos_local);
            }
            let current = integrate_current(&current_spectrum, de);
            current_history.push(current);

            // Last-iteration spectral bookkeeping.
            final_spectral = SpectralData {
                energies: energies.clone(),
                dos: dos_local.iter().map(|v| v.iter().sum::<f64>()).collect(),
                dos_local,
                current_spectrum,
            };
            final_g_lesser = g_lesser.clone();

            // Interaction switched off (ballistic / single-iteration mode)?
            if self.config.max_iterations == 1 {
                break;
            }

            // ------------------------------------------------------------ P step
            let t2 = Instant::now();
            let (p_lesser, p_greater, p_retarded) =
                quatrex_probe::span("scba.p.convolution", "conv.p", || {
                    let (mut p_lesser, mut p_greater) =
                        polarization_from_g(&g_lesser, &g_greater, de, &flops);
                    if self.config.enforce_symmetry {
                        symmetrize_all(&mut p_lesser);
                        symmetrize_all(&mut p_greater);
                    }
                    let p_retarded = retarded_from_lesser_greater(&p_lesser, &p_greater, &flops);
                    (p_lesser, p_greater, p_retarded)
                });
            timings.add(&timings.convolution_ns, t2);

            // ------------------------------------------------------------ W step
            let w_results: Vec<Result<Vec<WStepOutput>, RgfError>> = chunks
                .par_iter()
                .enumerate()
                .map(|(ci, c)| {
                    let mut state = chunk_state[ci].lock();
                    let (memoizer, scratch) = &mut *state;
                    w_step_batch(
                        &v,
                        &p_retarded[c.clone()],
                        &p_lesser[c.clone()],
                        &p_greater[c.clone()],
                        c.clone(),
                        &self.config,
                        self.config.use_memoizer.then_some(memoizer),
                        |systems| {
                            rgf_batch_solve(
                                systems,
                                scratch,
                                Subsystem::ScreenedCoulomb,
                                &flops,
                                &timings,
                            )
                        },
                        &flops,
                        &timings,
                    )
                })
                .collect();
            let mut w_lesser: EnergyResolved = Vec::with_capacity(ne);
            let mut w_greater: EnergyResolved = Vec::with_capacity(ne);
            for out in w_results
                .into_iter()
                .flat_map(|r| r.expect("W RGF solve failed"))
            {
                max_truncation = max_truncation.max(out.truncation);
                w_lesser.push(out.lesser);
                w_greater.push(out.greater);
            }

            // ------------------------------------------------------------ Σ step
            let t3 = Instant::now();
            let (s_lesser_new, s_greater_new, s_retarded_new) =
                quatrex_probe::span("scba.sigma.convolution", "conv.sigma", || {
                    let (mut s_lesser_new, mut s_greater_new) = self_energy_from_gw(
                        &g_lesser, &g_greater, &w_lesser, &w_greater, de, &flops,
                    );
                    if self.config.enforce_symmetry {
                        symmetrize_all(&mut s_lesser_new);
                        symmetrize_all(&mut s_greater_new);
                    }
                    let s_retarded_new =
                        retarded_from_lesser_greater(&s_lesser_new, &s_greater_new, &flops);
                    (s_lesser_new, s_greater_new, s_retarded_new)
                });
            timings.add(&timings.convolution_ns, t3);

            // Mixing and convergence check.
            let t4 = Instant::now();
            let (update_norm, reference_norm) = quatrex_probe::span("scba.mix", "mix", || {
                let mut update_norm = 0.0f64;
                let mut reference_norm = 0.0f64;
                for k in 0..ne {
                    let (update_sq, reference_sq) = mix_sigma_energy(
                        &mut sigma_l[k],
                        &mut sigma_g[k],
                        &mut sigma_r[k],
                        &s_lesser_new[k],
                        &s_greater_new[k],
                        &s_retarded_new[k],
                        self.config.mixing,
                    );
                    update_norm += update_sq;
                    reference_norm += reference_sq;
                }
                (update_norm, reference_norm)
            });
            timings.add(&timings.other_ns, t4);
            let residual = if reference_norm > 0.0 {
                (update_norm / reference_norm).sqrt()
            } else {
                0.0
            };
            residual_history.push(residual);
            if residual < self.config.tolerance {
                converged = true;
                break;
            }
        }

        // Final observables.
        let density = electron_density(&final_g_lesser, de);
        let hit_rate = if self.config.use_memoizer {
            let (mut hits, mut total) = (0usize, 0usize);
            for state in &chunk_state {
                let stats = state.lock().0.stats();
                hits += stats.memoized_calls;
                total += stats.memoized_calls + stats.direct_calls;
            }
            if total > 0 {
                hits as f64 / total as f64
            } else {
                0.0
            }
        } else {
            0.0
        };

        ScbaResult {
            iterations,
            converged,
            residual_history,
            current_history: current_history.clone(),
            observables: Observables {
                electron_density: density,
                current: current_history.last().copied().unwrap_or(0.0),
                spectral: final_spectral,
            },
            timings,
            flops,
            memoizer_hit_rate: hit_rate,
            max_truncation_error: max_truncation,
        }
    }
}

/// Re-export used by downstream crates to check whether OBCs were memoized.
pub fn is_memoized(mode: ObcMode) -> bool {
    matches!(mode, ObcMode::Memoized { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_device::DeviceBuilder;

    fn small_device() -> Device {
        DeviceBuilder::test_device(3, 2, 4).build()
    }

    fn fast_config(n_energies: usize, iterations: usize) -> ScbaConfig {
        ScbaConfig {
            n_energies,
            max_iterations: iterations,
            mixing: 0.4,
            tolerance: 1e-3,
            interaction_scale: 0.2,
            ..ScbaConfig::default()
        }
    }

    #[test]
    fn ballistic_run_produces_physical_observables() {
        let solver = ScbaSolver::new(small_device(), fast_config(24, 1));
        let res = solver.ballistic();
        assert_eq!(res.iterations, 1);
        // DOS non-negative everywhere.
        for (k, dos) in res.observables.spectral.dos.iter().enumerate() {
            assert!(*dos > -1e-9, "negative DOS at energy index {k}");
        }
        // Densities non-negative.
        for n in &res.observables.electron_density {
            assert!(*n > -1e-9);
        }
        // With a positive bias (mu_left > mu_right) current flows forward.
        assert!(res.observables.current >= -1e-9);
        assert!(res.flops.total() > 0);
        assert!(res.timings.total_seconds() > 0.0);
    }

    #[test]
    fn scba_iterations_converge_for_weak_interaction() {
        let solver = ScbaSolver::new(small_device(), fast_config(16, 8));
        let res = solver.run();
        assert!(res.iterations >= 2);
        assert!(!res.residual_history.is_empty());
        // The residual must decrease overall.
        let first = res.residual_history.first().unwrap();
        let last = res.residual_history.last().unwrap();
        assert!(last < first, "residuals {:?}", res.residual_history);
        assert!(res.max_truncation_error < 0.5);
    }

    #[test]
    fn memoizer_reports_hits_after_the_first_iteration() {
        let mut cfg = fast_config(8, 3);
        cfg.use_memoizer = true;
        let solver = ScbaSolver::new(small_device(), cfg);
        let res = solver.run();
        assert!(res.iterations >= 2);
        assert!(
            res.memoizer_hit_rate > 0.2,
            "hit rate {}",
            res.memoizer_hit_rate
        );
    }

    #[test]
    fn gw_interaction_changes_the_spectrum() {
        // The GW self-energy must actually do something: the converged current
        // differs from the ballistic one.
        let ballistic = ScbaSolver::new(small_device(), fast_config(16, 1)).run();
        let mut cfg = fast_config(16, 5);
        cfg.interaction_scale = 0.5;
        let gw = ScbaSolver::new(small_device(), cfg).run();
        let rel_diff = (gw.observables.current - ballistic.observables.current).abs()
            / ballistic.observables.current.abs().max(1e-12);
        assert!(
            rel_diff > 1e-6,
            "GW correction had no effect (diff {rel_diff})"
        );
    }

    #[test]
    fn energy_chunks_are_near_equal_and_a_multiple_of_the_workers() {
        let sizes = |chunks: Vec<Range<usize>>| chunks.iter().map(|c| c.len()).collect::<Vec<_>>();
        assert_eq!(sizes(energy_chunks(0..12, 8, 2)), [6, 6]);
        assert_eq!(sizes(energy_chunks(0..4, 8, 2)), [2, 2]);
        assert_eq!(sizes(energy_chunks(0..12, 8, 1)), [6, 6]);
        assert_eq!(sizes(energy_chunks(0..11, 8, 3)), [3, 4, 4]);
        assert_eq!(sizes(energy_chunks(0..20, 3, 2)), [2, 3, 2, 3, 2, 3, 2, 3]);
        assert_eq!(sizes(energy_chunks(5..6, 8, 4)), [1]);
        assert_eq!(sizes(energy_chunks(0..5, 0, 1)), [1; 5]);
        assert_eq!(sizes(energy_chunks(0..5, 2, 0)), [1, 2, 2]);
        assert!(energy_chunks(3..3, 8, 2).is_empty());
        for (n, size, workers) in [(13, 4, 3), (64, 8, 2), (7, 1, 2), (9, 8, 4), (16, 5, 1)] {
            let chunks = energy_chunks(2..2 + n, size, workers);
            assert_eq!(chunks.first().map(|c| c.start), Some(2));
            assert!(chunks.windows(2).all(|p| p[0].end == p[1].start));
            assert_eq!(chunks.last().map(|c| c.end), Some(2 + n));
            assert!(chunks
                .iter()
                .all(|c| !c.is_empty() && c.len() <= size.max(1)));
            assert!(chunks.len().is_multiple_of(workers) || chunks.len() == n);
        }
    }

    #[test]
    fn chunk_size_does_not_change_the_results_bitwise() {
        // Chunks of one energy and chunks of at most five (four of four for
        // 16 energies) must agree exactly: every gemm_batch plane runs the
        // same packing and micro-kernel code whatever the number of planes.
        let mut single_cfg = fast_config(16, 4);
        single_cfg.kernel_batch = 1;
        let mut batched_cfg = fast_config(16, 4);
        batched_cfg.kernel_batch = 5;
        let reference = ScbaSolver::new(small_device(), single_cfg).run();
        let batched = ScbaSolver::new(small_device(), batched_cfg).run();

        assert_eq!(batched.iterations, reference.iterations);
        for (a, b) in batched
            .residual_history
            .iter()
            .zip(reference.residual_history.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "residual history diverged");
        }
        for (a, b) in batched
            .current_history
            .iter()
            .zip(reference.current_history.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "current history diverged");
        }
        for (a, b) in batched
            .observables
            .electron_density
            .iter()
            .zip(reference.observables.electron_density.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "density diverged");
        }
        // FLOP totals are structural and identical.
        assert_eq!(batched.flops.total(), reference.flops.total());
    }

    #[test]
    fn kernel_timings_cover_all_stages_of_a_full_iteration() {
        let solver = ScbaSolver::new(small_device(), fast_config(8, 2));
        let res = solver.run();
        let breakdown = res.timings.breakdown();
        let named: std::collections::HashMap<_, _> = breakdown.into_iter().collect();
        assert!(named["G: OBC + assembly"] > 0.0);
        assert!(named["G: RGF"] > 0.0);
        assert!(named["W: Assembly"] > 0.0);
        assert!(named["W: RGF"] > 0.0);
        assert!(named["Convolutions (P, Σ)"] > 0.0);
        // FLOP categories populated too.
        assert!(res.flops.get(FlopKind::GObc) > 0);
        assert!(res.flops.get(FlopKind::GRgf) > 0);
        assert!(res.flops.get(FlopKind::WRgf) > 0);
        assert!(res.flops.get(FlopKind::Convolution) > 0);
    }
}
