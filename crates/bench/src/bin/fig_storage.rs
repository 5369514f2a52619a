//! Regenerates the tiered-storage baseline
//! (`target/experiments/BENCH_storage.json`): pipelined vs unpipelined vs
//! full-prefill TTFT across the device bandwidth grid (chunk KV on a real
//! throttled packed-log tier), the packed-log register/load and
//! compaction sweep, and the quantized cold-tier footprint/deviation arm.
//! See `experiments::storage`.
//!
//! Flags:
//!
//! - `--smoke` — shrunken sizes/repetitions (seconds, for CI).
//! - `--dir <path>` — root for the throwaway cache dirs (tempdir default).
//!
//! The full (non-smoke) run asserts the acceptance claims at these shapes:
//!
//! - §5.2 pipelining: on the Standard profile the pipeline must hide at
//!   least half of the measured raw disk load time on its best device.
//! - Compaction must reclaim ≥ 90 % of the dead bytes left by deleting
//!   half of a 10⁴-chunk population.
//! - The int8 cold tier must shrink the on-disk footprint ≥ 3.5× while
//!   keeping the blend-output deviation CDF bounded.

use cb_bench::experiments::storage::{run_opts, StorageOpts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let dir = args
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let out = run_opts(StorageOpts { smoke, dir });
    if smoke {
        return;
    }
    assert!(
        out.hidden_frac >= 0.5,
        "pipeline hid only {:.0}% of raw disk load time (need ≥ 50%)",
        out.hidden_frac * 100.0
    );
    assert!(
        out.layout.compact_reclaimed_frac >= 0.9,
        "compaction reclaimed only {:.0}% of dead bytes (need ≥ 90%)",
        out.layout.compact_reclaimed_frac * 100.0
    );
    assert!(
        out.quantized.footprint_ratio >= 3.5,
        "quantized tier shrank the footprint only {:.2}x (need ≥ 3.5x)",
        out.quantized.footprint_ratio
    );
    assert!(
        out.quantized.deviation_max < 0.25,
        "quantized blend deviated up to {:.3} of the exact output's \
         max-abs (need < 0.25)",
        out.quantized.deviation_max
    );
}
