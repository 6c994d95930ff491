//! The self-time ledger closes: per rank, self time plus idle is wall time.

use quatrex::prelude::*;
use quatrex::probe::{RankTrace, SpanEvent};
use std::time::Instant;

use quatrex_perfbench::ledger::{Ledger, CLOSURE_BOUND_NS, WALL_GAP_FLOOR_S, WALL_GAP_SHARE};

fn span(
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    depth: u32,
) -> SpanEvent {
    SpanEvent {
        name,
        cat,
        start_ns,
        dur_ns,
        depth,
        bytes: 0,
    }
}

fn timeline(spans: Vec<SpanEvent>) -> Timeline {
    Timeline::merge(vec![RankTrace {
        rank: 0,
        spans,
        ..RankTrace::default()
    }])
}

#[test]
fn nested_spans_count_once() {
    // g.rgf.batch [10, 110) holds gemm_batch [20, 50) and [60, 80); a
    // wait [110, 130) follows; [0, 10) and [130, 150) are idle.
    let t = timeline(vec![
        span("gemm_batch", "gemm_batch", 20, 30, 1),
        span("gemm_batch", "gemm_batch", 60, 20, 1),
        span("scba.g.rgf.batch", "g.rgf.batch", 10, 100, 0),
        span("alltoallv.wait.fwd_g", "comm.wait", 110, 20, 0),
        span("scba.mix", "mix", 140, 10, 0),
    ]);
    let l = Ledger::from_timeline(&t).unwrap();
    let r = &l.ranks[0];
    assert_eq!(r.wall_ns, 150);
    assert_eq!(r.self_ns["g.rgf.batch"], 50);
    assert_eq!(r.self_ns["gemm_batch"], 50);
    assert_eq!(r.self_ns["comm.wait"], 20);
    assert_eq!(r.idle_ns, 20);
    assert_eq!(r.accounted_ns(), r.wall_ns);
    // The batched solve's children belong to its phase; the wait does not.
    assert_eq!(r.phase_ns["g.rgf"], 100);
    assert_eq!(r.wait_ns(), 40);
}

#[test]
fn a_child_escaping_its_parent_is_rejected() {
    let t = timeline(vec![
        span("inner", "gemm_batch", 50, 100, 1),
        span("outer", "g.rgf", 0, 100, 0),
    ]);
    assert!(Ledger::from_timeline(&t).is_err());
}

#[test]
fn ledger_sums_to_rank_wall_time_on_a_tiny_device() {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let scba = ScbaConfig {
        n_energies: 6,
        max_iterations: 2,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    for (ranks, p_s) in [(1, 1), (2, 1), (2, 2)] {
        let config = DistScbaConfig::new(scba.clone(), ranks)
            .with_spatial_partitions(p_s)
            .with_probe(true);
        let solver = DistScbaSolver::new(device.clone(), config);
        let t = Instant::now();
        let result = solver.run();
        let measured_s = t.elapsed().as_secs_f64();
        let ledger = Ledger::from_timeline(&result.timeline).unwrap();
        assert_eq!(ledger.ranks.len(), ranks);
        ledger.check_closure().unwrap();
        println!(
            "{ranks} ranks, P_S = {p_s}: window covers all but {:.4} of {measured_s} s",
            ledger.wall_gap_share(measured_s)
        );
        ledger.check_wall(measured_s).unwrap();
        assert!(ledger.max_closure_error_ns() <= CLOSURE_BOUND_NS);
        for r in &ledger.ranks {
            assert!(r.wall_ns > 0);
            assert_eq!(r.accounted_ns(), r.wall_ns, "{ranks} ranks, P_S = {p_s}");
        }
        // Every compute second lands in some phase.
        assert!(ledger.compute_s() > 0.0);
        assert!(ledger.compute_s() <= ledger.rank_wall_s());
    }
}

#[test]
fn overlapping_top_level_spans_fail_the_closure() {
    // Two top-level spans share [40, 60) µs: their self times count those
    // 20 µs twice, so Σ self + idle exceeds the 100 µs window.
    let t = timeline(vec![
        span("scba.g.rgf", "g.rgf", 0, 60_000, 0),
        span("scba.mix", "mix", 40_000, 60_000, 0),
    ]);
    let l = Ledger::from_timeline(&t).unwrap();
    assert_eq!(l.ranks[0].wall_ns, 100_000);
    assert_eq!(l.ranks[0].accounted_ns(), 120_000);
    assert!(l.check_closure().is_err());
}

#[test]
fn a_trace_missing_part_of_the_solve_fails_the_wall_check() {
    // The spans end 1 s into a solve measured at 1 s, then at 2 s: the
    // second trace misses half of the solve.
    let t = timeline(vec![span("scba.g.rgf", "g.rgf", 0, 1_000_000_000, 0)]);
    let l = Ledger::from_timeline(&t).unwrap();
    l.check_closure().unwrap();
    l.check_wall(1.0).unwrap();
    assert!((l.wall_gap_share(2.0) - 0.5).abs() < 1e-12);
    let e = l.check_wall(2.0).unwrap_err();
    assert!(e.contains("uncovered 1 s"), "{e}");
    // A window longer than the measured solve is as wrong as a short one.
    assert!(l.check_wall(0.5).is_err());
    // The bound itself: just inside passes, just outside fails.
    let edge = |slack: f64| (1.0 + slack * WALL_GAP_FLOOR_S) / (1.0 - slack * WALL_GAP_SHARE);
    l.check_wall(edge(0.99)).unwrap();
    assert!(l.check_wall(edge(1.01)).is_err());
}
