//! Host ceilings, the run manifest and the peak-heap counter.
//!
//! The ceilings are measured in the traced run, never in the timed runs, and
//! every `pct_peak` is taken against ceilings measured in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Lanes × independent accumulators of the peak loops: enough independent
/// chains to cover the FP pipeline latency on current x86-64 and aarch64.
const LANES: usize = 8;
const CHAINS: usize = 12;

/// Fallback last-level cache size when the CPU does not report one.
const DEFAULT_LLC_BYTES: usize = 32 << 20;
/// Largest last-level cache size trusted from the CPU report.
const MAX_LLC_BYTES: usize = 512 << 20;

fn peak_loop(fused: bool, rounds: u64) -> f64 {
    let m = black_box(0.999_999_9f64);
    let a = black_box(1e-7f64);
    let mut acc = [[1.0f64; LANES]; CHAINS];
    for _ in 0..rounds {
        for chain in acc.iter_mut() {
            for x in chain.iter_mut() {
                *x = if fused { x.mul_add(m, a) } else { *x * m + a };
            }
        }
    }
    black_box(acc).iter().flatten().sum()
}

fn peak_gflops(fused: bool) -> f64 {
    let flops_per_round = (2 * LANES * CHAINS) as f64;
    let mut rounds = 1u64 << 16;
    loop {
        let t = Instant::now();
        black_box(peak_loop(fused, rounds));
        let s = t.elapsed().as_secs_f64();
        if s > 0.1 {
            // Best of three at the calibrated length.
            let best = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    black_box(peak_loop(fused, rounds));
                    t.elapsed().as_secs_f64()
                })
                .fold(s, f64::min);
            return rounds as f64 * flops_per_round / best * 1e-9;
        }
        rounds *= 2;
    }
}

/// Last-level cache size in bytes, from CPUID on x86-64.
pub fn llc_bytes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        // Leaf 0 reports the highest standard leaf and 0x8000_0000 the
        // highest extended leaf; each leaf below is only queried when the
        // CPU implements it.
        let (max_std, max_ext) = (__cpuid_count(0, 0).eax, __cpuid_count(0x8000_0000, 0).eax);
        let mut best = 0usize;
        // Deterministic cache parameters: leaf 4 (Intel), 0x8000_001D (AMD).
        for (leaf, max) in [(4u32, max_std), (0x8000_001D, max_ext)] {
            if max < leaf {
                continue;
            }
            for sub in 0..16 {
                let r = __cpuid_count(leaf, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
                let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
                let line = (r.ebx & 0xfff) as usize + 1;
                let sets = r.ecx as usize + 1;
                best = best.max(ways * partitions * line * sets);
            }
        }
        if best > 0 {
            return best.min(MAX_LLC_BYTES);
        }
    }
    DEFAULT_LLC_BYTES
}

/// Host ceilings of one run.
#[derive(Debug, Clone)]
pub struct Ceilings {
    /// FP64 separate multiply + add, GFLOP/s on one core.
    pub fp64_peak_gflops: f64,
    /// FP64 fused multiply-add, GFLOP/s on one core.
    pub fma_peak_gflops: f64,
    /// Streaming triad `a = b + s·c` on one core, GB/s (24 B per element).
    pub stream_gbs: f64,
    pub llc_bytes: usize,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: usize,
}

/// Measure the ceilings (about two seconds; allocates three arrays of four
/// times the last-level cache each).
pub fn measure_ceilings() -> Ceilings {
    let fp64_peak_gflops = peak_gflops(false);
    let fma_peak_gflops = peak_gflops(true);
    let llc = llc_bytes();
    let n = 4 * llc / std::mem::size_of::<f64>();
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut best = Duration::MAX;
    for _ in 0..4 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed());
    }
    let stream_gbs = (3 * n * std::mem::size_of::<f64>()) as f64 / best.as_secs_f64() * 1e-9;
    Ceilings {
        fp64_peak_gflops,
        fma_peak_gflops,
        stream_gbs,
        llc_bytes: llc,
        triad_array_bytes: n * std::mem::size_of::<f64>(),
    }
}

/// Cores the process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Target ISA with the vector extensions the build enabled.
pub fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    for (enabled, name) in [
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
        (cfg!(target_feature = "neon"), "neon"),
    ] {
        if enabled {
            isa.push('+');
            isa.push_str(name);
        }
    }
    isa
}

/// The checked-out revision, read from `.git` in the working directory, or
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
        None => head,
    }
}

#[repr(C)]
struct Rusage {
    // ru_utime and ru_stime (two `struct timeval`), then fourteen `long`s of
    // which ru_maxrss is the first.
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the size and layout of the LP64 `struct rusage`
    // (two timevals, fourteen longs) and outlives the call; RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// The global allocator of the benchmark binary: the system allocator,
/// counting live heap bytes and their peak.
pub struct PeakAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl PeakAlloc {
    fn grew(by: usize) {
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// only updated after a successful allocation and before a deallocation.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

/// Peak live heap bytes of this process so far, MiB, when the binary runs
/// on [`PeakAlloc`]; 0 otherwise.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
