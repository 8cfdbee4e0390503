//! Shared plumbing for the benchmark-harness binaries.
//!
//! Every `fig*`/`table*`/`ablation_*` binary regenerates one table or
//! figure of the paper's evaluation (or one ablation from DESIGN.md),
//! prints the series as an aligned table, and writes a CSV copy under
//! `results/`. Common flags:
//!
//! * `--runs=N` — independent repetitions per data point (default 40;
//!   the paper uses 100);
//! * `--paper` — paper fidelity (100 runs);
//! * `--quick` — smoke-test sizes for CI;
//! * `--out=DIR` — output directory (default `results/`);
//! * `--seed=S` — base seed.
//!
//! Any other argument is an error, and the binary exits with status 2.
//! Under `--quick` every CSV name gains a `-quick` suffix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Common command-line options for harness binaries.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Independent runs per data point.
    pub runs: usize,
    /// Smoke-test mode: shrink problem sizes drastically.
    pub quick: bool,
    /// Output directory for CSV copies.
    pub out_dir: PathBuf,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            runs: 40,
            quick: false,
            out_dir: PathBuf::from("results"),
            seed: 0xC0DE,
        }
    }
}

impl RunOpts {
    /// Parses `std::env::args` with [`RunOpts::parse`]; on a bad argument
    /// prints the error and exits with status 2, before any work starts.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses harness flags. Every value is given as `--flag=value`; an
    /// unknown argument, a value that does not parse or zero runs is an
    /// error naming it.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        }
        let mut opts = RunOpts::default();
        for arg in args {
            if let Some(v) = arg.strip_prefix("--runs=") {
                opts.runs = value("--runs", v)?;
            } else if arg == "--paper" {
                opts.runs = 100;
            } else if arg == "--quick" {
                opts.quick = true;
                opts.runs = opts.runs.min(8);
            } else if let Some(v) = arg.strip_prefix("--out=") {
                opts.out_dir = PathBuf::from(v);
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                opts.seed = value("--seed", v)?;
            } else if ["--runs", "--out", "--seed"].contains(&arg.as_str()) {
                return Err(format!("{arg} takes its value as {arg}=VALUE"));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        if opts.runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        Ok(opts)
    }

    /// Where the CSV copy of the table `name` goes: `<out_dir>/<name>.csv`,
    /// or `<name>-quick.csv` under `--quick`, so smoke-test output never
    /// overwrites a full run's.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        let suffix = if self.quick { "-quick" } else { "" };
        self.out_dir.join(format!("{name}{suffix}.csv"))
    }

    /// Prints a rendered table to stdout and writes its CSV twin to
    /// [`RunOpts::csv_path`].
    pub fn emit(&self, name: &str, title: &str, table: &prlc_sim::Table) {
        println!("\n== {title} ==\n");
        print!("{}", table.render());
        if let Err(e) = fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.csv_path(name);
        match fs::write(&path, table.to_csv()) {
            Ok(()) => println!("\n[written {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Evenly spaced sample points `0..=max` with the given step (always
/// includes `max`).
pub fn sample_points(max: usize, step: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..=max).step_by(step.max(1)).collect();
    if *pts.last().unwrap_or(&0) != max {
        pts.push(max);
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_points_cover_endpoints() {
        assert_eq!(sample_points(10, 5), vec![0, 5, 10]);
        assert_eq!(sample_points(11, 5), vec![0, 5, 10, 11]);
        assert_eq!(sample_points(0, 5), vec![0]);
        assert_eq!(sample_points(3, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_opts() {
        let o = RunOpts::default();
        assert_eq!(o.runs, 40);
        assert!(!o.quick);
    }

    fn parse(args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_reads_every_flag() {
        let o = parse(&["--runs=3", "--seed=9", "--out=/tmp/x", "--quick"]).unwrap();
        assert_eq!((o.runs, o.seed, o.quick), (3, 9, true));
        assert_eq!(o.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(parse(&["--paper"]).unwrap().runs, 100);
    }

    #[test]
    fn parse_rejects_unknown_arguments_by_name() {
        let e = parse(&["--quick", "--run=3"]).unwrap_err();
        assert!(e.contains("--run=3"), "{e}");
        // The space-separated form would leave DIR as a stray argument
        // and write into the default directory.
        let e = parse(&["--out", "/tmp/x"]).unwrap_err();
        assert!(e.contains("--out=VALUE"), "{e}");
    }

    #[test]
    fn parse_rejects_bad_values_by_name() {
        let e = parse(&["--seed=abc"]).unwrap_err();
        assert!(e.contains("--seed") && e.contains("abc"), "{e}");
        let e = parse(&["--runs=-1"]).unwrap_err();
        assert!(e.contains("--runs") && e.contains("-1"), "{e}");
        let e = parse(&["--runs=0"]).unwrap_err();
        assert!(e.contains("--runs"), "{e}");
    }

    #[test]
    fn quick_csv_names_never_collide_with_full_runs() {
        let full = RunOpts::default();
        assert_eq!(full.csv_path("fig7"), PathBuf::from("results/fig7.csv"));
        let quick = parse(&["--quick"]).unwrap();
        assert_eq!(
            quick.csv_path("fig7"),
            PathBuf::from("results/fig7-quick.csv")
        );
    }
}
