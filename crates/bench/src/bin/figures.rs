//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! cargo run --release -p qrs-bench --bin figures -- [--scale quick|paper] <ids…|all>
//! ```
//!
//! Run without arguments to list the ids (the rows of
//! [`qrs_bench::experiments::EXPERIMENTS`]). Default scale: quick.
//! Stdout is a pure function of the scale, the ids and `QRS_TEST_SEED`
//! (per-id timings go to stderr); `tests/golden/figures_quick_seed*.txt`
//! pin `--scale quick all` under the two CI seeds.

use qrs_bench::experiments::{ids, run};
use qrs_bench::Scale;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        let v = args.get(i + 1).cloned().unwrap_or_default();
        scale = Scale::parse(&v).unwrap_or_else(|| {
            eprintln!("unknown scale '{v}' (quick|paper)");
            std::process::exit(2);
        });
        args.drain(i..=i + 1);
    }
    if args.is_empty() {
        eprintln!(
            "usage: figures [--scale quick|paper] <{}|all>",
            ids().collect::<Vec<_>>().join("|")
        );
        std::process::exit(2);
    }
    let wanted: Vec<String> = if args.iter().any(|a| a == "all") {
        ids().map(str::to_string).collect()
    } else {
        args
    };
    println!("scale: {scale:?}");
    for id in &wanted {
        let t0 = Instant::now();
        if !run(id, scale) {
            eprintln!("unknown experiment id '{id}'");
            std::process::exit(2);
        }
        // Timing goes to stderr, so stdout is the deterministic result.
        eprintln!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
