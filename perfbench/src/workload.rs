//! The workloads and their seeded inputs.
//!
//! The seed only ever reaches the program through the generated inputs: the
//! drain bias of every point, the lattice temperature and, on `iv_sweep`, the
//! order in which the points are queued.

use quatrex::prelude::*;

/// Half-width of the per-point drain-bias jitter, volts.
pub const BIAS_JITTER_V: f64 = 0.002;
/// Half-width of the temperature jitter, kelvin (around 300 K).
pub const TEMPERATURE_JITTER_K: f64 = 3.0;
/// Nominal lattice temperature, kelvin.
pub const NOMINAL_TEMPERATURE_K: f64 = 300.0;

/// SplitMix64: a tiny, fully specified generator, so the same seed gives the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm-started NRFET I–V curve on the sweep engine.
    IvSweep,
    /// One cold point under spatial domain decomposition (`P_S = 2`).
    SpatialGrid,
    /// One cold single-rank point with wide blocks.
    WideBlock,
}

/// The fixed shape and physics of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub device: DeviceParams,
    pub reduction: usize,
    pub n_ranks: usize,
    pub spatial_partitions: usize,
    pub energy_batches: usize,
    pub n_energies: usize,
    pub max_iterations: usize,
    /// SCBA tolerance; `0.0` runs exactly `max_iterations` iterations.
    pub tolerance: f64,
    pub mixing: f64,
    pub interaction_scale: f64,
    pub use_memoizer: bool,
    /// Nominal drain biases, volts, in ramp order.
    pub nominal_biases: Vec<f64>,
}

impl Spec {
    /// Whether each point must converge (a sweep) or runs a fixed iteration
    /// count (a single timed point).
    pub fn requires_convergence(&self) -> bool {
        self.tolerance > 0.0
    }

    pub fn build_device(&self) -> Device {
        DeviceBuilder::from_params(&self.device, self.reduction).build()
    }

    /// Physics configuration at the base (unbiased) point; the sweep engine
    /// and [`Inputs::scba_for`] set bias and temperature per point.
    pub fn scba(&self) -> ScbaConfig {
        ScbaConfig {
            n_energies: self.n_energies,
            max_iterations: self.max_iterations,
            tolerance: self.tolerance,
            mixing: self.mixing,
            interaction_scale: self.interaction_scale,
            use_memoizer: self.use_memoizer,
            ..ScbaConfig::default()
        }
    }

    /// Energies each energy group owns at most: the width of the batched
    /// kernels the run launches is `min(kernel_batch, this)`.
    pub fn kernel_batch(&self) -> usize {
        let groups = self.n_ranks / self.spatial_partitions;
        self.scba()
            .kernel_batch
            .min(self.n_energies.div_ceil(groups))
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IvSweep,
        Workload::SpatialGrid,
        Workload::WideBlock,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IvSweep => "iv_sweep",
            Workload::SpatialGrid => "spatial_grid",
            Workload::WideBlock => "wide_block",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            // Reduced NR-16: N_BS = 8, N_B = 16; many short iterations. One
            // rank: on two ranks the curve's ~2,600 collectives made its wall
            // time swing 1.6x whenever another thread took a core, so it
            // could not be held to a bound.
            Workload::IvSweep => Spec {
                device: DeviceCatalog::nr16(),
                reduction: 426,
                n_ranks: 1,
                spatial_partitions: 1,
                energy_batches: 1,
                n_energies: 12,
                max_iterations: 80,
                tolerance: 1e-9,
                mixing: 0.4,
                interaction_scale: 0.2,
                use_memoizer: false,
                nominal_biases: (0..5).map(|i| 0.05 * i as f64).collect(),
            },
            // Reduced NR-24: N_BS = 32, N_B = 24, split over P_S = 2.
            Workload::SpatialGrid => Spec {
                device: DeviceCatalog::nr24(),
                reduction: 106,
                n_ranks: 2,
                spatial_partitions: 2,
                energy_batches: 2,
                n_energies: 8,
                max_iterations: 3,
                tolerance: 0.0,
                mixing: 0.5,
                interaction_scale: 0.2,
                use_memoizer: true,
                nominal_biases: vec![0.2],
            },
            // Reduced NR-16 at its widest block: N_BS = 64, N_B = 16.
            Workload::WideBlock => Spec {
                device: DeviceCatalog::nr16(),
                reduction: 53,
                n_ranks: 1,
                spatial_partitions: 1,
                energy_batches: 1,
                n_energies: 4,
                max_iterations: 2,
                tolerance: 0.0,
                mixing: 0.5,
                interaction_scale: 0.2,
                use_memoizer: true,
                nominal_biases: vec![0.2],
            },
        }
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Drain bias per point, volts, in queue order.
    pub biases: Vec<f64>,
    /// Lattice temperature of every point, kelvin.
    pub temperature_k: f64,
}

impl Inputs {
    /// Generate the inputs of `workload` from `seed`.
    ///
    /// Each bias is jittered by up to ±[`BIAS_JITTER_V`] and the temperature
    /// by up to ±[`TEMPERATURE_JITTER_K`]. A sweep's queue order starts at a
    /// random point and grows the finished interval by one neighbour at a
    /// time, picking the side at random: every warm point then starts from a
    /// neighbour one ramp step away, whatever the order.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let spec = workload.spec();
        let mut rng = SplitMix64::new(seed ^ 0x5155_4154_5245_5842);
        let temperature_k =
            NOMINAL_TEMPERATURE_K + rng.uniform(-TEMPERATURE_JITTER_K, TEMPERATURE_JITTER_K);
        let jittered: Vec<f64> = spec
            .nominal_biases
            .iter()
            .map(|b| b + rng.uniform(-BIAS_JITTER_V, BIAS_JITTER_V))
            .collect();
        let n = jittered.len();
        let start = rng.below(n);
        let (mut lo, mut hi) = (start, start);
        let mut biases = vec![jittered[start]];
        while biases.len() < n {
            let grow_low = lo > 0 && (hi + 1 == n || rng.below(2) == 0);
            if grow_low {
                lo -= 1;
                biases.push(jittered[lo]);
            } else {
                hi += 1;
                biases.push(jittered[hi]);
            }
        }
        Inputs {
            biases,
            temperature_k,
        }
    }

    /// The physics configuration of a single point at `bias_v`: the contact
    /// chemical potentials split by the bias, as the sweep engine does in
    /// flat-band mode.
    pub fn scba_for(&self, spec: &Spec, bias_v: f64) -> ScbaConfig {
        let mut scba = spec.scba();
        scba.mu_right = scba.mu_left - bias_v;
        scba.temperature_k = self.temperature_k;
        scba
    }
}
