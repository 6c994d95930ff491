//! Seeded inputs: the same seed regenerates the same points.

use quatrex_perfbench::workload::{
    Inputs, Workload, BIAS_JITTER_V, NOMINAL_TEMPERATURE_K, TEMPERATURE_JITTER_K,
};

#[test]
fn same_seed_same_points() {
    for w in Workload::ALL {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Inputs::generate(w, seed), Inputs::generate(w, seed));
        }
        assert_ne!(Inputs::generate(w, 1), Inputs::generate(w, 2));
    }
}

#[test]
fn jitter_stays_in_its_stated_range() {
    for w in Workload::ALL {
        let nominal = w.spec().nominal_biases;
        for seed in 0..200u64 {
            let inputs = Inputs::generate(w, seed);
            assert!((inputs.temperature_k - NOMINAL_TEMPERATURE_K).abs() <= TEMPERATURE_JITTER_K);
            let mut sorted = inputs.biases.clone();
            sorted.sort_by(f64::total_cmp);
            for (b, n) in sorted.iter().zip(&nominal) {
                assert!((b - n).abs() <= BIAS_JITTER_V, "{b} vs nominal {n}");
            }
        }
    }
}

#[test]
fn sweep_order_grows_one_neighbour_at_a_time() {
    let nominal = Workload::IvSweep.spec().nominal_biases;
    let mut starts = std::collections::BTreeSet::new();
    for seed in 0..200u64 {
        let biases = Inputs::generate(Workload::IvSweep, seed).biases;
        let idx: Vec<usize> = biases
            .iter()
            .map(|b| {
                nominal
                    .iter()
                    .position(|n| (b - n).abs() <= BIAS_JITTER_V)
                    .unwrap()
            })
            .collect();
        starts.insert(idx[0]);
        let (mut lo, mut hi) = (idx[0], idx[0]);
        for &i in &idx[1..] {
            assert!(i + 1 == lo || i == hi + 1, "seed {seed}: order {idx:?}");
            lo = lo.min(i);
            hi = hi.max(i);
        }
        assert_eq!((lo, hi), (0, nominal.len() - 1));
    }
    assert_eq!(starts.len(), nominal.len(), "every start point occurs");
}
