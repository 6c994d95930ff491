//! Chunk invariance: `ScbaConfig::kernel_batch` is the chunk size of the G
//! and W steps, not a code path. Every chunk size — including 0, which counts
//! as 1 — must give bit-identical histories and observables, the same FLOP
//! count and the same communication, at every rank count and transposition
//! batching.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaResult, DistScbaSolver};

fn run(kernel_batch: usize, ranks: usize, batches: usize) -> DistScbaResult {
    let scba = ScbaConfig {
        n_energies: 11,
        max_iterations: 4,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        kernel_batch,
        ..ScbaConfig::default()
    };
    let config = DistScbaConfig::new(scba, ranks).with_energy_batches(batches);
    DistScbaSolver::new(DeviceBuilder::test_device(3, 2, 4).build(), config).run()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn kernel_batch_changes_no_result_and_no_communication() {
    for (ranks, batches) in [(1, 1), (2, 2), (4, 1)] {
        let reference = run(1, ranks, batches);
        assert_eq!(reference.iterations, 4, "runs every iteration");
        for kernel_batch in [0, 3, 8] {
            let label = format!("kernel_batch {kernel_batch}, {ranks} ranks, B = {batches}");
            let chunked = run(kernel_batch, ranks, batches);
            assert_eq!(
                bits(&chunked.residual_history),
                bits(&reference.residual_history),
                "{label}: residual history"
            );
            assert_eq!(
                bits(&chunked.current_history),
                bits(&reference.current_history),
                "{label}: current history"
            );
            assert_eq!(
                bits(&chunked.observables.electron_density),
                bits(&reference.observables.electron_density),
                "{label}: density"
            );
            assert_eq!(
                chunked.flops.total(),
                reference.flops.total(),
                "{label}: FLOPs"
            );
            assert_eq!(
                chunked.report.measured_alltoall_bytes, reference.report.measured_alltoall_bytes,
                "{label}: all-to-all bytes"
            );
            assert_eq!(
                chunked.report.n_collectives, reference.report.n_collectives,
                "{label}: collectives"
            );
        }
    }
}
