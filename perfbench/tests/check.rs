//! Failure accounting: an observable off by one tolerance is a failure, and
//! a solve that panics is counted, not dropped.

use quatrex_perfbench::check::{
    contraction, point_sane, sweep_band, tally, warm_band, within_band, within_curve_band,
    Observed, ORACLE_BAND,
};
use quatrex_perfbench::json::result_line;
use quatrex_perfbench::run::{push_end_to_end, repeat, Outcome, MIN_REPS};

const TOL: f64 = 1e-9;

fn reference() -> Observed {
    Observed {
        current: 3.7e-7,
        density: vec![29.9, 30.1],
    }
}

#[test]
fn current_off_by_one_tolerance_fails() {
    let mut got = reference();
    got.current *= 1.0 + TOL;
    let mut failures = Vec::new();
    let checks = [
        within_band(&reference(), &reference(), sweep_band(TOL)),
        within_band(&got, &reference(), sweep_band(TOL)),
    ];
    assert_eq!(tally(checks, &mut failures), 1);
    assert_eq!(failures.len(), 1);
    assert!(failures[0].contains("current"), "{}", failures[0]);
}

#[test]
fn density_off_by_one_tolerance_fails() {
    let mut got = reference();
    got.density[1] += TOL * 30.1;
    assert!(within_band(&got, &reference(), sweep_band(TOL)).is_err());
}

#[test]
fn deviation_inside_the_band_passes() {
    let mut got = reference();
    got.current *= 1.0 + 0.25 * TOL;
    assert!(within_band(&got, &reference(), sweep_band(TOL)).is_ok());
    got = reference();
    got.current *= 1.0 + 0.5 * ORACLE_BAND;
    assert!(within_band(&got, &reference(), ORACLE_BAND).is_ok());
}

#[test]
fn non_finite_or_unconverged_points_fail() {
    let mut got = reference();
    got.current = f64::NAN;
    assert!(within_band(&got, &reference(), sweep_band(TOL)).is_err());
    assert!(point_sane(&got, true, 0.0, Some(TOL)).is_err());
    assert!(point_sane(&reference(), false, 1e-3, Some(TOL)).is_err());
    assert!(point_sane(&reference(), true, 2.0 * TOL, Some(TOL)).is_err());
    assert!(point_sane(&reference(), false, 1e-3, None).is_ok());
}

#[test]
fn warm_band_follows_the_contraction() {
    // Residuals shrinking by 0.6 per step: a converged state is within
    // 0.6 / 0.4 = 1.5 tolerances of the fixed point, two of them within 3.
    let residuals = [1e-7, 6e-8, 3.6e-8];
    let q = contraction(&residuals).unwrap();
    assert!((q - 0.6).abs() < 1e-12);
    assert!((warm_band(TOL, q) - 3.0 * TOL).abs() < 1e-20);
    assert_eq!(contraction(&[1e-7]), None);
    assert_eq!(contraction(&[1e-7, 2e-7]), None);

    // The current near zero bias is held to the curve's scale.
    let reference = Observed {
        current: 1e-23,
        density: vec![30.0],
    };
    let mut got = reference.clone();
    got.current = 2e-23;
    let scale = 5e-15;
    assert!(within_band(&got, &reference, warm_band(TOL, q)).is_err());
    assert!(within_curve_band(&got, &reference, warm_band(TOL, q), scale).is_ok());
    got.current = reference.current + 1.01 * warm_band(TOL, q) * scale;
    assert!(within_curve_band(&got, &reference, warm_band(TOL, q), scale).is_err());
}

#[test]
fn a_solve_that_always_panics_still_ends_and_reports() {
    let mut out = Outcome::default();
    let mut between = 0;
    let solved = repeat(
        0.0,
        5,
        &mut out,
        || between += 1,
        || -> () { panic!("boom") },
    );
    assert!(solved.is_empty());
    assert_eq!(out.attempted, 5 * MIN_REPS as u64);
    assert_eq!(out.failed, out.attempted);
    assert_eq!(between, MIN_REPS - 1);
    assert!(
        out.failures.iter().all(|f| f.contains("boom")),
        "{:?}",
        out.failures
    );

    push_end_to_end(&mut out, &[1e-4], &[], &[], 10.0);
    let line = result_line(out.correct(), out.attempted, out.failed, &out.metrics);
    assert!(
        line.starts_with(r#"{"correct": false, "attempted": 10, "failed": 10,"#),
        "{line}"
    );
    assert!(
        line.contains(r#""ok_share": {"value": 0, "unit": "ratio"}"#),
        "{line}"
    );
}

#[test]
fn panicking_attempts_are_counted_among_the_others() {
    let mut out = Outcome::default();
    let mut n = 0;
    let solved = repeat(
        0.0,
        1,
        &mut out,
        || {},
        || {
            n += 1;
            assert!(n % 2 == 0, "odd attempt");
            n
        },
    );
    assert_eq!(solved, vec![2]);
    assert_eq!((out.attempted, out.failed), (2, 1));
    push_end_to_end(&mut out, &[1e-4], &[1.0], &[1.0], 10.0);
    assert!(!out.correct());
    let ok = out.metrics.0.iter().find(|m| m.name == "ok_share").unwrap();
    assert_eq!(ok.value, 0.5);
}
