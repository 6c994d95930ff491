//! Self-time ledger built from the probe [`Timeline`].
//!
//! Every span's *self time* is its duration minus the durations of its direct
//! children, so nested spans (`gemm_batch` inside `g.rgf.batch`, `obc.direct`
//! inside `g.assembly`) are counted once. Per rank, the self times of all
//! spans plus `idle` — the part of the rank's wall time covered by no
//! top-level span — add up to the rank's wall time. The rank wall time is the
//! run's window on the shared probe clock: from the epoch to the end of the
//! last span on any rank. That sum closes by construction unless top-level
//! spans overlap, so the window is also held against the solve's wall time as
//! measured around the call ([`Ledger::check_wall`]): a trace that misses
//! part of the solve fails there.
//!
//! Self time is also attributed to a *phase*: the nearest enclosing span whose
//! category names one (see [`phase_of`]). Dividing a [`FlopKind`]'s counted
//! FLOPs by the self time of its phase gives the rate the kernels of that
//! phase sustained inside the full run.

use std::collections::BTreeMap;

use quatrex::linalg::FlopKind;
use quatrex::probe::{RankTrace, Timeline, CAT_COMM_WAIT};

/// The closure bound: per rank, `Σ self + idle` may differ from the wall time
/// by at most this many nanoseconds. Durations are integer nanoseconds, so on
/// a well-nested trace the difference is exactly zero.
pub const CLOSURE_BOUND_NS: u64 = 1_000;

/// The wall bound: per rank, the probe window may fall short of the solve's
/// measured wall time by at most this share of it plus [`WALL_GAP_FLOOR_S`].
/// The gap is the solver's set-up before the probe epoch and its result
/// assembly after the last span: about 0.1 % of a single-point solve, up to
/// 2.5 % of a warm-started sweep point, which copies its warm state in and
/// captures its final state, and under 1 ms on a tiny device.
pub const WALL_GAP_SHARE: f64 = 0.05;
/// The fixed part of the wall bound, seconds: spawning and joining the rank
/// threads.
pub const WALL_GAP_FLOOR_S: f64 = 0.005;

/// Category of the runtime's scalar allreduce spans.
pub const CAT_ALLREDUCE: &str = "comm.allreduce";

/// Categories reported as `dist.self.<category>`, in report order. A
/// category outside this list is booked under `other`, so the ledger still
/// closes when the program adds a span category.
pub const CATEGORIES: [&str; 20] = [
    "comm.allreduce",
    "comm.wait",
    "conv.p",
    "conv.sigma",
    "g.assembly",
    "g.energy",
    "g.rgf",
    "g.rgf.batch",
    "gemm_batch",
    "mix",
    "obc.direct",
    "rebalance",
    "rgf.partition",
    "rgf.reduced",
    "transposition.pack",
    "transposition.unpack",
    "w.assembly",
    "w.energy",
    "w.rgf",
    "w.rgf.batch",
];

/// Phases that FLOPs are attributed to.
pub const PHASES: [&str; 6] = ["g.obc", "g.rgf", "w.assembly", "w.rgf", "conv", "other"];

/// Whether a category is time spent waiting on other ranks.
pub fn is_wait(cat: &str) -> bool {
    cat == CAT_COMM_WAIT || cat == CAT_ALLREDUCE
}

/// The phase a span of category `cat` opens, if any. Spatially decomposed
/// solves (`rgf.partition`, `rgf.reduced`) carry no G/W tag of their own;
/// `w_side` says whether the rank is between the backward `P` and backward
/// `Σ` transpositions, i.e. in the W half of the iteration.
fn phase_of(cat: &str, w_side: bool) -> Option<&'static str> {
    Some(match cat {
        "g.assembly" => "g.obc",
        "g.rgf" | "g.rgf.batch" | "g.energy" => "g.rgf",
        "w.assembly" => "w.assembly",
        "w.rgf" | "w.rgf.batch" | "w.energy" => "w.rgf",
        "conv.p" | "conv.sigma" => "conv",
        "rgf.partition" | "rgf.reduced" if w_side => "w.rgf",
        "rgf.partition" | "rgf.reduced" => "g.rgf",
        _ => return None,
    })
}

/// The phase whose self time is the denominator of a [`FlopKind`]'s rate.
/// The four W-assembly kinds share the `w.assembly` phase.
pub fn phase_of_kind(kind: FlopKind) -> &'static str {
    match kind {
        FlopKind::GObc => "g.obc",
        FlopKind::GRgf => "g.rgf",
        FlopKind::WBeyn | FlopKind::WLyapunov | FlopKind::WAssemblyLhs | FlopKind::WAssemblyRhs => {
            "w.assembly"
        }
        FlopKind::WRgf => "w.rgf",
        FlopKind::Convolution => "conv",
        FlopKind::Other => "other",
    }
}

/// One rank's ledger, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankLedger {
    pub wall_ns: u64,
    pub idle_ns: u64,
    /// Self time per category (`other` for unlisted categories).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time of compute spans (no waits) per phase.
    pub phase_ns: BTreeMap<&'static str, u64>,
}

impl RankLedger {
    /// `Σ self + idle`.
    pub fn accounted_ns(&self) -> u64 {
        self.self_ns.values().sum::<u64>() + self.idle_ns
    }

    /// `|Σ self + idle − wall|`.
    pub fn closure_error_ns(&self) -> u64 {
        self.accounted_ns().abs_diff(self.wall_ns)
    }

    /// Waiting: collective waits and idle.
    pub fn wait_ns(&self) -> u64 {
        self.idle_ns
            + self
                .self_ns
                .iter()
                .filter(|(c, _)| is_wait(c))
                .map(|(_, v)| v)
                .sum::<u64>()
    }

    fn add(&mut self, other: &RankLedger) {
        self.wall_ns += other.wall_ns;
        self.idle_ns += other.idle_ns;
        for (k, v) in &other.self_ns {
            *self.self_ns.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.phase_ns {
            *self.phase_ns.entry(k).or_insert(0) += v;
        }
    }
}

fn listed(cat: &'static str) -> &'static str {
    CATEGORIES
        .iter()
        .copied()
        .find(|c| *c == cat)
        .unwrap_or("other")
}

fn rank_ledger(rt: &RankTrace, end_ns: u64) -> Result<RankLedger, String> {
    rt.validate_nesting()?;
    let spans = rt.sorted_spans();
    // Self time per span, signed so an overlapping child shows up as a
    // negative remainder instead of wrapping.
    let mut self_ns: Vec<i128> = spans.iter().map(|s| s.dur_ns as i128).collect();
    let mut phase: Vec<&'static str> = vec!["other"; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut w_side = false;
    let mut top_level: Vec<(u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        stack.truncate(s.depth as usize);
        match s.name {
            "alltoallv.wait.bwd_p" => w_side = true,
            "alltoallv.wait.bwd_sigma" => w_side = false,
            _ => {}
        }
        let inherited = stack.last().map(|&p| phase[p]);
        phase[i] = phase_of(s.cat, w_side).or(inherited).unwrap_or("other");
        match stack.last() {
            Some(&p) => self_ns[p] -= s.dur_ns as i128,
            None => top_level.push((s.start_ns, s.end_ns())),
        }
        stack.push(i);
    }
    let mut ledger = RankLedger {
        wall_ns: end_ns,
        ..RankLedger::default()
    };
    for (i, s) in spans.iter().enumerate() {
        let own = u64::try_from(self_ns[i]).map_err(|_| {
            format!(
                "rank {}: children of span '{}' overrun it by {} ns",
                rt.rank, s.name, -self_ns[i]
            )
        })?;
        *ledger.self_ns.entry(listed(s.cat)).or_insert(0) += own;
        if !is_wait(s.cat) {
            *ledger.phase_ns.entry(phase[i]).or_insert(0) += own;
        }
    }
    top_level.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in top_level {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    ledger.idle_ns = end_ns
        .checked_sub(covered)
        .ok_or_else(|| format!("rank {}: spans cover more than the wall time", rt.rank))?;
    Ok(ledger)
}

/// The ledger of one or more runs, per rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub ranks: Vec<RankLedger>,
}

impl Ledger {
    /// Build the ledger of one run. Fails on a trace whose spans do not nest.
    pub fn from_timeline(timeline: &Timeline) -> Result<Ledger, String> {
        let end_ns = timeline
            .ranks
            .iter()
            .flat_map(|r| r.spans.iter().map(|s| s.end_ns()))
            .max()
            .unwrap_or(0);
        let ranks = timeline
            .ranks
            .iter()
            .map(|rt| rank_ledger(rt, end_ns))
            .collect::<Result<_, _>>()?;
        Ok(Ledger { ranks })
    }

    /// Add another run's ledger rank by rank (the points of a sweep).
    pub fn absorb(&mut self, other: &Ledger) {
        if self.ranks.len() < other.ranks.len() {
            self.ranks.resize(other.ranks.len(), RankLedger::default());
        }
        for (mine, theirs) in self.ranks.iter_mut().zip(&other.ranks) {
            mine.add(theirs);
        }
    }

    /// Wall seconds summed over ranks.
    pub fn rank_wall_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.wall_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Self seconds of one category (or `idle`), summed over ranks.
    pub fn self_s(&self, cat: &str) -> f64 {
        let ns: u64 = if cat == "idle" {
            self.ranks.iter().map(|r| r.idle_ns).sum()
        } else {
            self.ranks.iter().filter_map(|r| r.self_ns.get(cat)).sum()
        };
        ns as f64 * 1e-9
    }

    /// Compute self seconds of one phase, summed over ranks.
    pub fn phase_s(&self, phase: &str) -> f64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase_ns.get(phase))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Compute self seconds over all phases, summed over ranks.
    pub fn compute_s(&self) -> f64 {
        PHASES.iter().map(|p| self.phase_s(p)).sum()
    }

    /// Share of rank wall time spent in collective waits or idle.
    pub fn wait_share(&self) -> f64 {
        let wait: u64 = self.ranks.iter().map(|r| r.wait_ns()).sum();
        let wall: u64 = self.ranks.iter().map(|r| r.wall_ns).sum();
        if wall == 0 {
            0.0
        } else {
            wait as f64 / wall as f64
        }
    }

    /// Largest per-rank closure error, nanoseconds.
    pub fn max_closure_error_ns(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.closure_error_ns())
            .max()
            .unwrap_or(0)
    }

    /// Largest per-rank share of `measured_s` the probe window does not
    /// cover; negative when a window outlasts the measured solve.
    pub fn wall_gap_share(&self, measured_s: f64) -> f64 {
        self.ranks
            .iter()
            .map(|r| 1.0 - r.wall_ns as f64 * 1e-9 / measured_s)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Check every rank's window against the solve's measured wall time:
    /// no longer than it, and short of it by at most [`WALL_GAP_SHARE`] of it
    /// plus [`WALL_GAP_FLOOR_S`].
    pub fn check_wall(&self, measured_s: f64) -> Result<(), String> {
        let bound_s = WALL_GAP_SHARE * measured_s + WALL_GAP_FLOOR_S;
        for (rank, r) in self.ranks.iter().enumerate() {
            let window_s = r.wall_ns as f64 * 1e-9;
            let gap_s = measured_s - window_s;
            if !(0.0..=bound_s).contains(&gap_s) {
                return Err(format!(
                    "rank {rank}: traced window {window_s} s vs measured solve {measured_s} s \
                     (uncovered {gap_s} s, bound 0..={bound_s} s)"
                ));
            }
        }
        Ok(())
    }

    /// Check the closure bound on every rank.
    pub fn check_closure(&self) -> Result<(), String> {
        for (rank, r) in self.ranks.iter().enumerate() {
            if r.closure_error_ns() > CLOSURE_BOUND_NS {
                return Err(format!(
                    "rank {rank}: self {} ns + idle {} ns != wall {} ns",
                    r.accounted_ns() - r.idle_ns,
                    r.idle_ns,
                    r.wall_ns
                ));
            }
        }
        Ok(())
    }
}
