//! Per-layer call ladder: direct calls to each layer's public function at a
//! workload's own shapes.
//!
//! Each rung records seconds per call, a FLOP count from the layer's own
//! counters (`gemm_batch_flops`, `SelectedSolution::flops`, `FlopCounter`)
//! and, where listed, bytes moved *computed* from the array sizes (not
//! measured).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use quatrex::core::assembly::{assemble_g, bare_system};
use quatrex::core::convolution::{canonical_elements, polarization_series, self_energy_series};
use quatrex::core::ScbaConfig;
use quatrex::device::{thermal_energy_ev, Device};
use quatrex::linalg::{
    c64, gemm_batch, gemm_batch_flops, BatchOp, FlopCounter, FlopKind, MatrixBatch, OpKind,
};
use quatrex::obc::sancho_rubio;
use quatrex::rgf::{
    nested_dissection_solve, rgf_solve, rgf_solve_batch_into, NestedConfig, RgfBatchScratch,
    SelectedSolution,
};
use quatrex::runtime::{CommPhase, RankContext, ThreadComm};
use quatrex::sparse::BlockTridiagonal;

use crate::host::Ceilings;
use crate::json::Metrics;
use crate::workload::{Spec, SplitMix64};

/// Minimum measured time per rung.
const MIN_RUNG_S: f64 = 0.15;
const BYTES_PER_C64: usize = 16;
const ALLREDUCE_CALLS: usize = 2_000;

/// Run `f` until at least [`MIN_RUNG_S`] and `min_calls` calls have passed;
/// return seconds per call.
fn per_call(min_calls: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || t.elapsed().as_secs_f64() < MIN_RUNG_S {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / calls as f64
}

fn random_batch(rng: &mut SplitMix64, batch: usize, n: usize) -> MatrixBatch {
    let data = (0..batch * n * n)
        .map(|_| c64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    MatrixBatch::from_raw(batch, n, n, data)
}

fn random_series(rng: &mut SplitMix64, n: usize) -> Vec<c64> {
    (0..n)
        .map(|_| c64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect()
}

/// Off-rank bytes and exchange counts one rank moved per communication
/// phase, from the `comm.wait` spans of a traced run:
/// `(rank, phase label) → (exchanges, bytes)`.
pub type PhaseTraffic = BTreeMap<(usize, &'static str), (usize, u64)>;

/// Collect [`PhaseTraffic`] from a traced timeline.
pub fn phase_traffic(timeline: &quatrex::probe::Timeline, into: &mut PhaseTraffic) {
    for rt in &timeline.ranks {
        for s in &rt.spans {
            if let Some(phase) = CommPhase::ALL.iter().find(|p| p.wait_name() == s.name) {
                let e = into.entry((rt.rank, phase.label())).or_insert((0, 0));
                e.0 += 1;
                e.1 += s.bytes;
            }
        }
    }
}

/// Run every rung at the shapes of `spec` on `device` and append the
/// `linalg.*`, `rgf.*`, `obc.*`, `core.*` and `runtime.*` metrics.
pub fn run(
    spec: &Spec,
    device: &Device,
    scba: &ScbaConfig,
    traffic: &PhaseTraffic,
    ceilings: &Ceilings,
    cores: usize,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(0x4c41_4444_4552);
    let h = device.hamiltonian_bt();
    let (nb, bs) = (h.n_blocks(), h.block_size());
    let batch = spec.kernel_batch();
    let grid = device.default_energy_grid(spec.n_energies);
    let kt = thermal_energy_ev(scba.temperature_k);
    let host_peak = ceilings.fp64_peak_gflops * cores as f64;

    // linalg: one gemm_batch sweep of N_BS × N_BS planes.
    let a = random_batch(&mut rng, batch, bs);
    let b = random_batch(&mut rng, batch, bs);
    let mut c = MatrixBatch::zeros(batch, bs, bs);
    let one = c64::new(1.0, 0.0);
    let s = per_call(3, || {
        gemm_batch(
            &mut c,
            one,
            BatchOp::Each(OpKind::None, &a),
            BatchOp::Each(OpKind::None, &b),
            c64::new(0.0, 0.0),
        );
        black_box(&mut c);
    });
    let flops = gemm_batch_flops(batch, bs, bs, bs) as f64;
    let bytes = (batch * 4 * bs * bs * BYTES_PER_C64) as f64;
    let gflops = flops / s * 1e-9;
    out.push("linalg.gemm_batch.s", s, "s");
    out.push("linalg.gemm_batch.gflops", gflops, "GFLOP/s");
    out.push(
        "linalg.gemm_batch.pct_peak",
        100.0 * gflops / host_peak,
        "%",
    );
    out.push("linalg.gemm_batch.flop_per_byte", flops / bytes, "flop/B");

    // core assembly (with its OBCs, no memoizer) of one kernel batch of
    // ballistic electron systems; the systems feed the RGF rungs.
    let flop_counter = FlopCounter::new();
    let energies: Vec<f64> = (0..batch)
        .map(|i| grid.point(i * grid.len() / batch))
        .collect();
    let assemble = |k: usize, e: f64| {
        assemble_g(
            &h,
            e,
            scba.eta,
            k,
            None,
            None,
            None,
            scba.mu_left,
            scba.mu_right,
            kt,
            scba.obc_method_g,
            None,
            &flop_counter,
        )
    };
    let t = Instant::now();
    let asms: Vec<_> = energies
        .iter()
        .enumerate()
        .map(|(k, &e)| assemble(k, e))
        .collect();
    out.push(
        "core.assembly.s",
        t.elapsed().as_secs_f64() / batch as f64,
        "s",
    );

    // rgf: the batched selected solve over the kernel batch.
    let systems: Vec<&BlockTridiagonal> = asms.iter().map(|x| &x.system).collect();
    let rhs: Vec<[&BlockTridiagonal; 2]> = asms
        .iter()
        .map(|x| [&x.rhs_lesser, &x.rhs_greater])
        .collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, 2); batch];
    let mut scratch = RgfBatchScratch::new();
    let mut err = None;
    let s = per_call(2, || {
        if let Err(e) = rgf_solve_batch_into(&systems, &rhs_slices, &mut sols, &mut scratch) {
            err = Some(format!("rgf_solve_batch_into: {:?}", e.error));
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let flops: u64 = sols.iter().map(|x| x.flops).sum();
    out.push("rgf.batch.s", s, "s");
    out.push("rgf.batch.gflops", flops as f64 / s * 1e-9, "GFLOP/s");

    // rgf: nested dissection at P_S = 2 on one system, against rgf_solve.
    let rhs0 = [&asms[0].rhs_lesser, &asms[0].rhs_greater];
    let mut nested_flops = 0u64;
    let mut err = None;
    let s = per_call(2, || {
        match nested_dissection_solve(systems[0], &rhs0, &NestedConfig::new(2)) {
            Ok((sol, report)) => {
                nested_flops = report.total_flops();
                black_box(sol);
            }
            Err(e) => err = Some(format!("nested_dissection_solve: {e:?}")),
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let sequential = rgf_solve(systems[0], &rhs0).map_err(|e| format!("rgf_solve: {e:?}"))?;
    out.push("rgf.nested.s", s, "s");
    out.push(
        "rgf.nested.flop_ratio",
        nested_flops as f64 / sequential.flops as f64,
        "ratio",
    );

    // obc: the left-contact surface function of the bare electron system by
    // Sancho-Rubio decimation at each batch energy.
    let bare: Vec<BlockTridiagonal> = energies
        .iter()
        .map(|&e| bare_system(&h, e, scba.eta))
        .collect();
    let mut iterations = 0usize;
    let mut err = None;
    let s = per_call(1, || {
        iterations = 0;
        for sys in &bare {
            match sancho_rubio(sys.diag(0), sys.upper(0), sys.lower(0), 1e-12, 200) {
                Ok(sol) => iterations += sol.iterations,
                Err(e) => err = Some(format!("sancho_rubio: {e}")),
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    out.push("obc.s", s / batch as f64, "s");
    out.push("obc.iterations", iterations as f64 / batch as f64, "count");

    // core convolutions: P and Σ series for every canonical element at the
    // workload's energy count.
    let ne = spec.n_energies;
    let n_elements = canonical_elements(nb, bs).len();
    let series: Vec<Vec<c64>> = (0..4).map(|_| random_series(&mut rng, ne)).collect();
    let conv_flops = FlopCounter::new();
    let de = grid.spacing();
    let t = Instant::now();
    for _ in 0..n_elements {
        black_box(polarization_series(
            &series[0],
            &series[1],
            &series[2],
            &series[3],
            de,
            &conv_flops,
        ));
        black_box(self_energy_series(
            &series[0],
            &series[1],
            &series[2],
            &series[3],
            de,
            &conv_flops,
        ));
    }
    let s = t.elapsed().as_secs_f64();
    out.push("core.conv.s", s, "s");
    out.push(
        "core.conv.gflops",
        conv_flops.get(FlopKind::Convolution) as f64 / s * 1e-9,
        "GFLOP/s",
    );

    // runtime: replay the workload's per-rank, per-phase alltoallv traffic
    // through ThreadComm, then time the scalar allreduce.
    let n_ranks = spec.n_ranks;
    let total_bytes: u64 = traffic.values().map(|v| v.1).sum();
    if total_bytes > 0 && n_ranks > 1 {
        // Every rank takes part in every exchange of a collective, so rank
        // 0's exchange counts give the sequence all ranks replay; each rank
        // sends its own measured bytes per exchange, split over its peers.
        let sequence: Vec<CommPhase> = CommPhase::ALL
            .into_iter()
            .flat_map(|p| {
                let n = traffic.get(&(0, p.label())).map_or(0, |x| x.0);
                std::iter::repeat_n(p, n)
            })
            .collect();
        let traffic = traffic.clone();
        let t = Instant::now();
        ThreadComm::run(n_ranks, move |ctx: RankContext<Vec<u8>>| {
            let me = ctx.rank();
            for &phase in &sequence {
                let per = traffic
                    .get(&(me, phase.label()))
                    .map_or(0, |&(n, bytes)| (bytes / n as u64) as usize / (n_ranks - 1));
                let send: Vec<Vec<u8>> = (0..n_ranks)
                    .map(|d| if d == me { Vec::new() } else { vec![1u8; per] })
                    .collect();
                black_box(ctx.alltoallv_tagged(send, |m| m.len(), phase));
            }
        });
        let s = t.elapsed().as_secs_f64();
        out.push("runtime.alltoallv.s", s, "s");
        out.push(
            "runtime.alltoallv.gbs",
            total_bytes as f64 / s * 1e-9,
            "GB/s",
        );
    } else {
        out.push("runtime.alltoallv.s", 0.0, "s");
        out.push("runtime.alltoallv.gbs", 0.0, "GB/s");
    }
    let t = Instant::now();
    ThreadComm::run(n_ranks, |ctx: RankContext<()>| {
        for _ in 0..ALLREDUCE_CALLS {
            black_box(ctx.allreduce_sum(1.0));
        }
    });
    out.push(
        "runtime.allreduce_us",
        t.elapsed().as_secs_f64() / ALLREDUCE_CALLS as f64 * 1e6,
        "us",
    );
    Ok(())
}
