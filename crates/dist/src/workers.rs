//! The cores a rank owns.
//!
//! In the paper a rank is a GPU that works on its whole energy batch at once.
//! Here a rank is one OS thread of a `ThreadComm`, so when there are fewer
//! ranks than cores a rank also owns `cores ÷ ranks` *workers*: the rank
//! thread itself plus helper threads forked with the `rayon` shim's `join`
//! ([`fork_join`]). At `P_S = 1` a rank runs its energy chunks of the G and W
//! steps on them ([`run_chunks`]); at any `P_S` the group leader runs its
//! per-element convolutions on them. When ranks ≥ cores a rank has one worker
//! and everything runs on the rank thread.
//!
//! Results do not depend on the worker count. A chunk's results do not depend
//! on its size, memoizer entries are per energy, and per-element work is
//! independent. The worker-count tests below pin this bit for bit.
//!
//! The rank thread always runs share 0 and records its probe spans as usual.
//! Helpers record counters only ([`quatrex_probe::collect_counters`]); the
//! rank thread replays them when it joins, so every span stays on the rank's
//! own track and no two spans of one rank overlap.

use std::ops::Range;

use quatrex_core::scba::StagedSystem;
use quatrex_obc::ObcMemoizer;
use quatrex_rgf::{RgfBatchScratch, RgfError, SelectedSolution};

/// What a chunk solver returns: one selected solution per staged system.
pub(crate) type ChunkSolution = Result<Vec<SelectedSolution>, RgfError>;

/// A chunk solver as `g_step_batch`/`w_step_batch` call it.
pub(crate) type ChunkSolve<'s> = dyn FnMut(Vec<StagedSystem>) -> ChunkSolution + 's;

/// Workers per rank: the cores this process may use (affinity masks and
/// cgroup quotas included) divided among `n_ranks` rank threads, at least
/// one. Pin fewer cores with `taskset` to run on fewer workers.
pub(crate) fn workers_per_rank(n_ranks: usize) -> usize {
    (cores() / n_ranks.max(1)).max(1)
}

/// The cores this process may use.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `work` on every share and return the results in share order. Share 0
/// runs on the calling thread; the others run on helper threads forked with
/// `rayon::join`, recursively halving the share list. Each helper's probe
/// counters are replayed on the thread that joins it.
pub(crate) fn fork_join<S: Send, R: Send>(
    mut shares: Vec<S>,
    work: &(impl Fn(S) -> R + Sync),
) -> Vec<R> {
    if shares.len() <= 1 {
        return shares.into_iter().map(work).collect();
    }
    let right = shares.split_off(shares.len().div_ceil(2));
    let (mut left, (right, counters)) = rayon::join(
        || fork_join(shares, work),
        || quatrex_probe::collect_counters(|| fork_join(right, work)),
    );
    for (name, delta) in counters {
        quatrex_probe::counter(name, delta);
    }
    left.extend(right);
    left
}

/// Run one step (G or W) over a rank's energy `chunks` (global energy
/// ranges) and return `step`'s output per chunk, in chunk order.
///
/// At `P_S = 1` (`collective` is `None`) chunk `i` runs on worker
/// `i mod workers` and is solved by `batched` on that worker's warm
/// [`RgfBatchScratch`]; the OBC `memoizer` is split by the workers' energies
/// before the step and merged back after it. At `P_S > 1` the group's one
/// chunk is solved by its `collective` nested-dissection solve on the rank
/// thread, which owns the communicator.
pub(crate) fn run_chunks<T: Send>(
    scratches: &mut [RgfBatchScratch],
    chunks: &[Range<usize>],
    memoizer: &mut Option<ObcMemoizer>,
    batched: &(impl Fn(Vec<StagedSystem>, &mut RgfBatchScratch) -> ChunkSolution + Sync),
    collective: Option<&mut ChunkSolve>,
    step: &(impl Fn(Range<usize>, Option<&mut ObcMemoizer>, &mut ChunkSolve) -> T + Sync),
) -> Vec<T> {
    if let Some(solve) = collective {
        return chunks
            .iter()
            .map(|c| step(c.clone(), memoizer.as_mut(), solve))
            .collect();
    }
    let workers = scratches.len().min(chunks.len()).max(1);
    let owned = |j: usize| chunks.iter().skip(j).step_by(workers).cloned();
    let mut memos: Vec<Option<ObcMemoizer>> = vec![None; workers];
    for (j, slot) in memos.iter_mut().enumerate().skip(1) {
        *slot = memoizer
            .as_mut()
            .map(|m| m.split_energies(owned(j).flatten()));
    }
    memos[0] = memoizer.take();
    let shares: Vec<_> = memos
        .into_iter()
        .zip(scratches.iter_mut())
        .enumerate()
        .collect();
    let done = fork_join(shares, &|(j, (mut memo, scratch))| {
        let mut solve = |systems| batched(systems, scratch);
        let outs: Vec<T> = owned(j)
            .map(|c| step(c, memo.as_mut(), &mut solve))
            .collect();
        (outs, memo)
    });
    let mut slots: Vec<Option<T>> = chunks.iter().map(|_| None).collect();
    for (j, (outs, memo)) in done.into_iter().enumerate() {
        match (j, memoizer.as_mut(), memo) {
            (0, _, memo) => *memoizer = memo,
            (_, Some(m), Some(share)) => m.merge(share),
            _ => {}
        }
        for (t, out) in outs.into_iter().enumerate() {
            slots[j + t * workers] = Some(out);
        }
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistScbaConfig, DistScbaResult, DistScbaSolver};
    use quatrex_core::ScbaConfig;
    use quatrex_device::DeviceBuilder;
    use quatrex_linalg::flops::FlopKind;

    #[test]
    fn fork_join_keeps_share_order_and_runs_share_zero_on_the_caller() {
        let caller = std::thread::current().id();
        for n in 0..6 {
            let out = fork_join((0..n).collect(), &|i: usize| {
                (i * i, std::thread::current().id())
            });
            assert_eq!(
                out.iter().map(|o| o.0).collect::<Vec<_>>(),
                (0..n).map(|i| i * i).collect::<Vec<_>>()
            );
            if let Some(first) = out.first() {
                assert_eq!(first.1, caller, "share 0 runs on the calling thread");
            }
        }
    }

    #[test]
    fn helper_counters_are_replayed_on_the_joining_thread() {
        quatrex_probe::install(0, quatrex_probe::clock::Instant::now());
        fork_join(vec![1u64, 2, 3], &|d| {
            quatrex_probe::span("share", "test", || quatrex_probe::counter("work", d))
        });
        let trace = quatrex_probe::finish().expect("recorder installed");
        assert_eq!(trace.counter("work"), 6);
        assert_eq!(
            trace.spans.len(),
            1,
            "only the calling thread's span is kept"
        );
    }

    fn run(workers: usize, ranks: usize, p_s: usize, batches: usize) -> DistScbaResult {
        let scba = ScbaConfig {
            n_energies: 11,
            max_iterations: 4,
            mixing: 0.4,
            tolerance: 1e-14,
            interaction_scale: 0.2,
            use_memoizer: true,
            ..ScbaConfig::default()
        };
        let config = DistScbaConfig::new(scba, ranks)
            .with_spatial_partitions(p_s)
            .with_energy_batches(batches);
        DistScbaSolver::new(DeviceBuilder::test_device(3, 2, 4).build(), config)
            .run_with_workers(None, workers)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn worker_count_changes_no_result_and_no_communication() {
        // (ranks, P_S, B): energy chunks run on the workers at P_S = 1; at
        // P_S = 2 only the leader's per-element convolutions do.
        for (ranks, p_s, batches) in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1)] {
            let reference = run(1, ranks, p_s, batches);
            assert_eq!(reference.iterations, 4, "runs every iteration");
            assert_eq!(reference.report.workers_per_rank, 1);
            assert!(reference.memoizer_hit_rate > 0.0, "the memoizer answers");
            for workers in [2, 3] {
                let label = format!("{workers} workers, {ranks} ranks, P_S = {p_s}, B = {batches}");
                let run = run(workers, ranks, p_s, batches);
                assert_eq!(run.report.workers_per_rank, workers, "{label}");
                assert_eq!(
                    bits(&run.residual_history),
                    bits(&reference.residual_history),
                    "{label}: residual history"
                );
                assert_eq!(
                    bits(&run.current_history),
                    bits(&reference.current_history),
                    "{label}: current history"
                );
                assert_eq!(
                    bits(&run.observables.electron_density),
                    bits(&reference.observables.electron_density),
                    "{label}: density"
                );
                for kind in FlopKind::ALL {
                    assert_eq!(
                        run.flops.get(kind),
                        reference.flops.get(kind),
                        "{label}: {kind:?} FLOPs"
                    );
                }
                assert_eq!(
                    run.memoizer_hit_rate.to_bits(),
                    reference.memoizer_hit_rate.to_bits(),
                    "{label}: memoizer hit rate"
                );
                assert_eq!(
                    bits(&run.report.memoizer_hit_rate_per_iteration),
                    bits(&reference.report.memoizer_hit_rate_per_iteration),
                    "{label}: per-iteration memoizer hit rates"
                );
                assert_eq!(
                    run.report.n_collectives, reference.report.n_collectives,
                    "{label}: collectives"
                );
                assert_eq!(
                    run.report.measured_alltoall_bytes, reference.report.measured_alltoall_bytes,
                    "{label}: all-to-all bytes"
                );
            }
        }
    }

    #[test]
    fn helper_work_is_attributed_to_the_rank_track() {
        let one = run(1, 1, 1, 1);
        let two = run(2, 1, 1, 1);
        let track = &two.timeline.ranks[0];
        two.timeline.validate().expect("well-formed span nesting");
        for cat in [
            "g.assembly",
            "g.rgf.batch",
            "gemm_batch",
            "w.assembly",
            "w.rgf.batch",
            "conv.p",
            "conv.sigma",
        ] {
            assert!(
                track.spans.iter().any(|s| s.cat == cat),
                "rank 0 records {cat}"
            );
        }
        let top: Vec<_> = track
            .sorted_spans()
            .into_iter()
            .filter(|s| s.depth == 0)
            .collect();
        for pair in top.windows(2) {
            assert!(
                pair[0].end_ns() <= pair[1].start_ns,
                "top-level spans '{}' and '{}' overlap",
                pair[0].name,
                pair[1].name
            );
        }
        for counter in ["obc.memo.hit", "obc.memo.miss", "gemm_batch.planes"] {
            assert!(one.timeline.counter_total(counter) > 0, "{counter} counted");
            assert_eq!(
                two.timeline.counter_total(counter),
                one.timeline.counter_total(counter),
                "{counter}: helpers' counters are replayed on the rank"
            );
        }
    }
}
