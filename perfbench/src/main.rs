//! `quatrex-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run manifest, the metrics by name with their units, and as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;
use std::time::Duration;

use quatrex_perfbench::host::PeakAlloc;
use quatrex_perfbench::json::result_line;
use quatrex_perfbench::run::{run, Args};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// A run that has not finished by then is stopped without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: quatrex-perfbench --workload <iv_sweep|spatial_grid|wide_block> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // A rank that panics inside a collective can leave its peers blocked;
    // end the process rather than hang past the run's time limit.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run exceeded {} s", WATCHDOG.as_secs());
        std::process::exit(3);
    });

    let outcome = run(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for m in &outcome.metrics.0 {
        println!("metric {:<40} {:>24} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
