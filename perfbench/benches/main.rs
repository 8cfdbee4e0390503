//! `perfbench`: the end-to-end and per-layer benchmark of the PRLC file
//! and simulation paths. `perfbench/run.py` builds this binary, runs it
//! once per workload, checks the metric names against `BENCHMARK.json`
//! and prints the result line; see `perfbench/README.md`.
//!
//! The binary prints readable lines, then one `env {...}` line and one
//! `result {...}` line holding the operation counts and raw metric
//! values.

mod countrng;
mod curve;
mod file;
mod harness;
mod layers;
mod timeline;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Args, Report};

const WORKLOADS: &[&str] = &["file_2mib", "timeline_1m", "curve_fig6"];

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Report, String> {
    // End-to-end runs keep the recorders off; traced runs switch the
    // metrics recorder on only around the replicas.
    prlc_obs::disable();
    prlc_obs::trace::disable();
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let mut rep = Report::default();
    let outcome = match args.workload.as_str() {
        "file_2mib" => file::run(args, &mut rep),
        "timeline_1m" => timeline::run(args, &mut rep),
        "curve_fig6" => curve::run(args, &mut rep),
        other => Err(format!(
            "unknown workload {other:?} (want one of {})",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    outcome?;
    if args.trace {
        // A layer the workload leaves idle reports zero work; set-up time
        // is an end-to-end metric.
        rep.metrics
            .retain(|k, _| layers::PER_LAYER.contains(&k.as_str()));
        for name in layers::PER_LAYER {
            rep.metrics.entry(name.to_string()).or_insert(0.0);
        }
    } else {
        rep.set(
            "ok_ratio",
            1.0 - rep.failed as f64 / rep.attempted.max(1) as f64,
        );
        rep.set("peak_rss_mb", harness::peak_rss_mb());
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for l in &rep.lines {
        println!("{l}");
    }
    println!(
        "env {{\"kernel_backend\":{},\"threads\":{},\"nproc\":{},\"work_fs\":{},\"commit\":{}}}",
        json_str(&prlc_gf::kernel::active_backend_description()),
        args.threads,
        harness::nproc(),
        json_str(&harness::fs_type(
            args.work_dir.parent().unwrap_or(&args.work_dir)
        )),
        json_str(&args.commit)
    );
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("{}:{v}", json_str(k))
        })
        .collect();
    println!(
        "result {{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
