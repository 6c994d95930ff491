//! Correctness checks applied to every result the benchmark times.
//!
//! A point fails when it panics, does not converge although convergence was
//! requested, gives a non-finite observable, or leaves its band around the
//! reference. Failures are counted, never dropped.

/// Band of the distributed solver around the sequential `ScbaSolver` oracle on
/// the fixed-iteration workloads: the repository's equivalence band.
pub const ORACLE_BAND: f64 = 1e-10;

/// Band of a converged sweep point around its reference, for SCBA tolerance
/// `tolerance`: half a tolerance, relative. Two solves of one point that run
/// the same iterations agree to machine precision; an observable off by a
/// whole tolerance is outside the band.
pub fn sweep_band(tolerance: f64) -> f64 {
    0.5 * tolerance
}

/// Band of a warm-started sweep point around the cold sequential oracle at
/// the same bias. The two runs take different iteration paths, so each stops
/// somewhere within `tolerance` of its last update. For an iteration that
/// contracts by `contraction` per step, a state whose last relative update
/// is below `tolerance` lies within `contraction / (1 − contraction) ·
/// tolerance` of the fixed point, and two such states within twice that.
pub fn warm_band(tolerance: f64, contraction: f64) -> f64 {
    2.0 * contraction / (1.0 - contraction) * tolerance
}

/// Per-step contraction of a converging iteration: the ratio of its last two
/// residuals. `None` when there are fewer than two or they do not shrink.
pub fn contraction(residuals: &[f64]) -> Option<f64> {
    let [.., before, last] = residuals else {
        return None;
    };
    let q = last / before;
    (q > 0.0 && q < 1.0).then_some(q)
}

/// Observables compared between a result and its reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    pub current: f64,
    /// Electron density per transport cell; on sweep points, which report
    /// only the total charge, a single entry.
    pub density: Vec<f64>,
}

impl Observed {
    pub fn is_finite(&self) -> bool {
        self.current.is_finite() && self.density.iter().all(|d| d.is_finite())
    }
}

/// `|a − b| / |b|`, with `b = 0` compared absolutely.
pub fn rel_dev(a: f64, b: f64) -> f64 {
    scaled_dev(a, b, 0.0)
}

/// `|a − b| / max(|b|, scale)`, compared absolutely when that is 0.
pub fn scaled_dev(a: f64, b: f64, scale: f64) -> f64 {
    let diff = (a - b).abs();
    let scale = b.abs().max(scale);
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// `max |a_i − b_i| / max |b_i|`.
pub fn vec_rel_dev(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let scale = b.iter().map(|y| y.abs()).fold(0.0f64, f64::max);
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// Check `got` against `reference` within the relative `band`.
pub fn within_band(got: &Observed, reference: &Observed, band: f64) -> Result<(), String> {
    within_curve_band(got, reference, band, 0.0)
}

/// Check `got` against `reference` within the relative `band`, taking the
/// current relative to at least `current_scale`: the largest current of the
/// curve, so a point near zero bias, whose current is close to zero, is held
/// to the curve's scale rather than to its own.
pub fn within_curve_band(
    got: &Observed,
    reference: &Observed,
    band: f64,
    current_scale: f64,
) -> Result<(), String> {
    if !got.is_finite() {
        return Err(format!("non-finite observables: {got:?}"));
    }
    let dc = scaled_dev(got.current, reference.current, current_scale);
    if dc.is_nan() || dc > band {
        return Err(format!(
            "current {:e} vs reference {:e}: relative deviation {dc:e} > {band:e}",
            got.current, reference.current
        ));
    }
    let dn = vec_rel_dev(&got.density, &reference.density);
    if dn.is_nan() || dn > band {
        return Err(format!(
            "density deviates from the reference by {dn:e} > {band:e} (relative)"
        ));
    }
    Ok(())
}

/// Check a solved point on its own: converged when convergence was
/// requested, residual within tolerance, observables finite.
pub fn point_sane(
    observed: &Observed,
    converged: bool,
    residual: f64,
    tolerance: Option<f64>,
) -> Result<(), String> {
    if !observed.is_finite() {
        return Err(format!("non-finite observables: {observed:?}"));
    }
    if let Some(tol) = tolerance {
        if !converged {
            return Err(format!("did not converge (residual {residual:e})"));
        }
        if residual.is_nan() || residual > tol {
            return Err(format!("residual {residual:e} above tolerance {tol:e}"));
        }
    }
    Ok(())
}

/// Require two renderings of the counters that must repeat exactly at a
/// given seed to be identical.
pub fn same_counters(label: &str, first: &str, again: &str) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{label}: exact counters differ: {first} vs {again}"
        ))
    }
}

/// Count the failed checks of a set of points, keeping every reason.
pub fn tally(
    checks: impl IntoIterator<Item = Result<(), String>>,
    failures: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for c in checks {
        if let Err(e) = c {
            failed += 1;
            failures.push(e);
        }
    }
    failed
}
