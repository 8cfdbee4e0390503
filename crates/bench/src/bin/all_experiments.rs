//! Runs every figure, table and ablation binary's logic in sequence by
//! spawning the sibling binaries with shared flags — the one-command
//! regeneration entry point:
//!
//! ```text
//! cargo run --release -p prlc-bench --bin all_experiments -- --runs=40
//! ```

use std::process::Command;

use prlc_bench::RunOpts;

fn main() {
    // Validate the shared flags once, so a bad one exits 2 before any
    // child runs instead of failing in each of them.
    RunOpts::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("exe has a parent dir");

    let binaries = [
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "fig7",
        "ablation_sparsity",
        "ablation_failure",
        "ablation_field",
        "ablation_loadbalance",
        "ablation_bandwidth",
        "ablation_refresh",
        "ablation_overhead",
    ];
    let mut failures = Vec::new();
    for bin in binaries {
        println!("\n########## {bin} ##########");
        let path = dir.join(bin);
        let status = Command::new(&path).args(&args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("failed to spawn {}: {e}", path.display());
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll experiments completed.");
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
