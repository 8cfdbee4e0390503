//! End-to-end tests spawning the real `prlc` binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn prlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prlc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prlc-bin-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = prlc().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("encode"));
    assert!(text.contains("decode"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = prlc().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn encode_decode_roundtrip_via_binary() {
    let dir = temp_dir("roundtrip");
    let input = dir.join("data.bin");
    let data: Vec<u8> = (0..20_000).map(|i| (i * 131 % 251) as u8).collect();
    fs::write(&input, &data).unwrap();
    let shards = dir.join("shards");

    let out = prlc()
        .args([
            "encode",
            input.to_str().unwrap(),
            "--out",
            shards.to_str().unwrap(),
            "--overhead",
            "2.0",
            "--levels",
            "20,80",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "encode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let info = prlc()
        .args(["info", shards.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("20000 bytes"), "{text}");
    assert!(text.contains("likely decodable"), "{text}");

    let recovered = dir.join("out.bin");
    let out = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(fs::read(&recovered).unwrap(), data);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("integrity verified"), "{text}");

    fs::remove_dir_all(dir).unwrap();
}

/// Extracts the metrics JSON line from `sim --metrics -` stdout and
/// strips the wall-clock `timers` block (spliced last by
/// `Snapshot::to_json`), leaving the deterministic part.
fn deterministic_metrics(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"counters\""))
        .unwrap_or_else(|| panic!("no metrics line in output:\n{text}"))
        .to_string();
    match line.find(",\"timers\":") {
        Some(pos) => format!("{}}}", &line[..pos]),
        None => line,
    }
}

/// The pinned-seed metrics snapshot is byte-identical across worker
/// thread counts — timing aside, observability must not perturb or be
/// perturbed by parallel execution.
#[test]
fn metrics_snapshot_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--loss",
                "0.3",
                "--retries",
                "2",
                "--runs",
                "40",
                "--seed",
                "7",
                "--metrics",
                "-",
            ])
            .env("PRLC_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "sim --metrics failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        deterministic_metrics(&out.stdout)
    };
    let single = run("1");
    let multi = run("4");
    assert!(
        single.contains("\"net.messages.sent\""),
        "missing transport counters: {single}"
    );
    assert!(single.contains("\"events\""), "missing events: {single}");
    assert_eq!(single, multi, "metrics depend on thread count");
}

/// `--metrics FILE` writes the same snapshot to disk, and `--bench-out`
/// embeds it as a `metrics` block in the envelope.
#[test]
fn metrics_file_and_bench_envelope() {
    let dir = temp_dir("metrics");
    let metrics_path = dir.join("metrics.json");
    let bench_path = dir.join("BENCH_sim.json");
    let out = prlc()
        .args([
            "sim",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--runs",
            "10",
            "--seed",
            "3",
            "--metrics",
            metrics_path.to_str().unwrap(),
            "--bench-out",
            bench_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = fs::read_to_string(&metrics_path).unwrap();
    assert!(metrics.starts_with("{\"counters\""), "{metrics}");
    assert!(metrics.contains("\"timers\""), "{metrics}");
    let bench = fs::read_to_string(&bench_path).unwrap();
    assert!(bench.contains("\"metrics\":{\"counters\""), "{bench}");
    assert!(bench.contains("\"run_wall_ms_total\""), "{bench}");
    assert!(bench.contains("\"results\":["), "{bench}");
    fs::remove_dir_all(dir).unwrap();
}

/// Extracts the trace JSON line from `sim --trace -` stdout. The trace
/// dump contains no wall-clock content, so no stripping is needed.
fn trace_line(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    text.lines()
        .find(|l| l.starts_with("{\"tracks\""))
        .unwrap_or_else(|| panic!("no trace line in output:\n{text}"))
        .to_string()
}

/// The pinned-seed trace dump is byte-identical across worker thread
/// counts: records are grouped per run-seed track, not per thread.
#[test]
fn trace_dump_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--loss",
                "0.3",
                "--retries",
                "2",
                "--runs",
                "20",
                "--seed",
                "7",
                "--trace",
                "-",
            ])
            .env("PRLC_THREADS", threads)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "sim --trace failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        trace_line(&out.stdout)
    };
    let single = run("1");
    let multi = run("4");
    assert!(
        single.contains("\"name\":\"net.collect.session\""),
        "missing session spans: {single}"
    );
    assert!(
        single.contains("\"name\":\"core.decode.level_unlock\""),
        "missing unlock provenance: {single}"
    );
    assert_eq!(single, multi, "trace depends on thread count");
}

/// `--trace - --metrics -` would interleave two JSON documents on one
/// stream; the CLI must refuse instead of corrupting both.
#[test]
fn trace_and_metrics_cannot_both_target_stdout() {
    let out = prlc()
        .args([
            "sim",
            "--runs",
            "2",
            "--seed",
            "1",
            "--trace",
            "-",
            "--metrics",
            "-",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("interleave"), "{err}");
}

/// `--trace FILE` writes the dump to disk (Chrome format on request)
/// and `--bench-out` embeds the JSON form as a `trace` envelope block.
#[test]
fn trace_file_formats_and_bench_envelope() {
    let dir = temp_dir("trace");
    let trace_path = dir.join("trace.json");
    let bench_path = dir.join("BENCH_sim.json");
    let out = prlc()
        .args([
            "sim",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--runs",
            "5",
            "--seed",
            "3",
            "--trace",
            trace_path.to_str().unwrap(),
            "--bench-out",
            bench_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"tracks\""), "{trace}");
    let bench = fs::read_to_string(&bench_path).unwrap();
    assert!(bench.contains("\"trace\":{\"tracks\""), "{bench}");
    assert!(bench.contains("\"results\":["), "{bench}");

    let chrome_path = dir.join("trace.chrome.json");
    let out = prlc()
        .args([
            "sim",
            "--runs",
            "3",
            "--seed",
            "3",
            "--trace",
            chrome_path.to_str().unwrap(),
            "--trace-format",
            "chrome",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = fs::read_to_string(&chrome_path).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains("\"ph\":\"M\""), "{chrome}");
    fs::remove_dir_all(dir).unwrap();
}

/// The `trace` subcommand prints the per-level decode waterfall.
#[test]
fn trace_subcommand_prints_waterfall() {
    let out = prlc()
        .args([
            "trace", "--scheme", "plc", "--levels", "2,3,5", "--seed", "7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows-to-unlock"), "{text}");
    assert!(text.contains("levels unlocked within"), "{text}");
}

#[test]
fn partial_decode_via_binary_after_shard_loss() {
    let dir = temp_dir("partial");
    let input = dir.join("data.bin");
    let data: Vec<u8> = (0..30_000).map(|i| (i % 256) as u8).collect();
    fs::write(&input, &data).unwrap();
    let shards = dir.join("shards");

    assert!(prlc()
        .args([
            "encode",
            input.to_str().unwrap(),
            "--out",
            shards.to_str().unwrap(),
            "--overhead",
            "1.5",
        ])
        .status()
        .unwrap()
        .success());

    // Delete the back half of the shard files (bulk levels).
    let mut files: Vec<PathBuf> = fs::read_dir(&shards)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "prlc"))
        .collect();
    files.sort();
    for f in files.iter().skip(files.len() / 3) {
        fs::remove_file(f).unwrap();
    }

    let recovered = dir.join("out.bin");
    // Without --allow-partial: non-zero exit.
    let strict = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!strict.status.success());

    // With --allow-partial: prefix written, exit 0.
    let partial = prlc()
        .args([
            "decode",
            shards.to_str().unwrap(),
            "--out",
            recovered.to_str().unwrap(),
            "--allow-partial",
        ])
        .output()
        .unwrap();
    assert!(
        partial.status.success(),
        "{}",
        String::from_utf8_lossy(&partial.stderr)
    );
    let text = String::from_utf8_lossy(&partial.stdout);
    assert!(text.contains("partial recovery"), "{text}");
    let prefix = fs::read(&recovered).unwrap();
    assert!(!prefix.is_empty());
    assert_eq!(&data[..prefix.len()], &prefix[..]);

    fs::remove_dir_all(dir).unwrap();
}

/// `--nodes` below the code parameters is rejected up front with an
/// actionable message, not a protocol-level panic or empty output.
#[test]
fn sim_rejects_undersized_overlay() {
    let out = prlc()
        .args(["sim", "--scheme", "plc", "--epochs", "2", "--nodes", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--nodes 5 is too small") && err.contains("at least 20 nodes"),
        "unhelpful error: {err}"
    );

    // Same guard on the lossy-sweep path.
    let out = prlc()
        .args(["sim", "--scheme", "plc", "--loss", "0.3", "--nodes", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--nodes 5 is too small"), "{err}");

    // Undersized --locations is caught too.
    let out = prlc()
        .args(["sim", "--epochs", "2", "--nodes", "100", "--locations", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--locations 3 is below"), "{err}");
}

/// The `--epochs` timeline runs end to end, honours `--nodes`, and the
/// pinned-seed output is byte-identical across worker thread counts
/// (each Monte-Carlo run is seeded by index, not by schedule).
#[test]
fn sim_timeline_honours_nodes_and_is_thread_count_independent() {
    let run = |threads: &str| {
        let out = prlc()
            .args([
                "sim",
                "--scheme",
                "plc",
                "--epochs",
                "3",
                "--churn",
                "0.2",
                "--repair",
                "2",
                "--nodes",
                "500",
                "--runs",
                "6",
                "--seed",
                "11",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let one = run("1");
    assert!(one.contains("persistence timeline: 500 nodes"), "{one}");
    assert!(one.contains("epoch"), "{one}");
    // 3 epochs + baseline: rows 0..=3 present.
    assert!(one.contains("\n3 "), "{one}");
    let four = run("4");
    // Drop the throughput-probe header line (wall-clock) before diffing.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("persistence timeline"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tail(&one), tail(&four));
}

/// A fault-injected timeline on a large overlay exercises the event
/// runtime's lazy node state: metrics and trace dumps stay available
/// and the run completes quickly even at N=20000 in a debug build.
#[test]
fn sim_timeline_large_overlay_with_faults_and_bench_envelope() {
    let dir = temp_dir("timeline-bench");
    let bench = dir.join("BENCH_timeline.json");
    let out = prlc()
        .args([
            "sim",
            "--scheme",
            "plc",
            "--epochs",
            "2",
            "--churn",
            "0.1",
            "--repair",
            "2",
            "--loss",
            "0.2",
            "--retries",
            "1",
            "--nodes",
            "20000",
            "--runs",
            "2",
            "--seed",
            "3",
            "--threads",
            "1",
            "--metrics",
            "-",
            "--trace",
            dir.join("trace.json").to_str().unwrap(),
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = deterministic_metrics(&out.stdout);
    assert!(metrics.contains("net.event.nodes_touched"), "{metrics}");
    let trace = fs::read_to_string(dir.join("trace.json")).unwrap();
    assert!(trace.starts_with("{\"tracks\""), "{trace}");
    assert!(trace.contains("sim.timeline.epoch"), "{trace}");
    let envelope = fs::read_to_string(&bench).unwrap();
    assert!(envelope.contains("\"results\":["), "{envelope}");
    assert!(envelope.contains("\"epoch\":2"), "{envelope}");
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bench_write_check_and_negative_roundtrip() {
    let dir = temp_dir("bench");
    // Write a fresh kernel baseline (the only probe cheap enough for a
    // debug-profile binary test).
    let out = prlc()
        .args(["bench", "--probe", "kernel", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "bench write failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fs::read_to_string(dir.join("BENCH_kernel.json")).unwrap();
    assert!(
        baseline.starts_with("{\"bench_schema_version\":1,"),
        "{baseline}"
    );
    assert!(baseline.contains("\"probe\":\"kernel\""), "{baseline}");
    assert!(
        baseline.contains("\"backend\":\"dispatched\""),
        "{baseline}"
    );

    // Self-check against the freshly written baseline passes and emits
    // the delta table plus a findings report with zero findings.
    let report = dir.join("delta.json");
    let out = prlc()
        .args([
            "bench",
            "--check",
            "--probe",
            "kernel",
            "--baseline-dir",
            dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "bench check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bench check clean"), "{text}");
    assert!(text.contains("mb_s"), "{text}");
    let findings = fs::read_to_string(&report).unwrap();
    assert!(findings.contains("\"findings\":[]"), "{findings}");

    // A perturbed deterministic field (the probe name itself) fails with
    // a machine-readable finding and a nonzero exit.
    let perturbed = baseline.replace("\"slice_len\":65536", "\"slice_len\":1");
    assert_ne!(perturbed, baseline);
    fs::write(dir.join("BENCH_kernel.json"), perturbed).unwrap();
    let out = prlc()
        .args([
            "bench",
            "--check",
            "--probe",
            "kernel",
            "--baseline-dir",
            dir.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("deterministic-drift"), "{err}");
    let findings = fs::read_to_string(&report).unwrap();
    assert!(
        findings.contains("\"kind\":\"deterministic-drift\""),
        "{findings}"
    );
    assert!(findings.contains("config.slice_len"), "{findings}");

    // Unknown probe names are rejected up front.
    let out = prlc().args(["bench", "--probe", "nope"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown probe"));
    fs::remove_dir_all(dir).unwrap();
}

/// A flag a subcommand does not take is an error naming it, not
/// silently ignored.
#[test]
fn unknown_flags_are_rejected_by_name() {
    let out = prlc().args(["sim", "--epoch", "3"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --epoch"), "{err}");

    // Each `sim` mode also rejects the flags only other modes read.
    for (mode, flag) in [
        ("", "--nodes 7"),
        ("--loss 0.2", "--coeff sparse"),
        ("--epochs 2", "--adv-focus 0.5"),
        ("--adversary targeted", "--bogus 1"),
    ] {
        let out = prlc()
            .arg("sim")
            .args(mode.split_whitespace().chain(flag.split_whitespace()))
            .args(["--runs", "2"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{mode:?} accepted {flag:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let name = flag.split_whitespace().next().unwrap();
        assert!(err.contains(&format!("unknown flag {name}")), "{err}");
    }

    let dir = temp_dir("unknown-flag");
    let input = dir.join("f.bin");
    fs::write(&input, [7u8; 100]).unwrap();
    let shards = dir.join("shards");
    let (input, shards) = (input.to_str().unwrap(), shards.to_str().unwrap());
    let out = prlc()
        .args(["encode", input, "--out", shards, "--overhed", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --overhed"), "{err}");
    assert!(!std::path::Path::new(shards).exists(), "encode ran anyway");
    fs::remove_dir_all(dir).unwrap();
}

/// Every `sim` mode writes a versioned envelope the baseline differ
/// accepts, and a 1-thread and a 4-thread run of the same pinned seed
/// differ in no deterministic field.
#[test]
fn sim_envelopes_pass_the_differ_across_thread_counts() {
    use prlc_obs::baseline::{diff_envelopes, Tolerances};

    let dir = temp_dir("sim-differ");
    let modes = [
        "",
        "--loss 0.2 --retries 1 --nodes 200",
        "--epochs 2 --churn 0.15 --repair 3 --loss 0.2 --nodes 200",
        "--adversary targeted --adv-intensity 20 --epochs 2 --nodes 200",
    ];
    for (i, mode) in modes.iter().enumerate() {
        let envelope = |threads: &str| {
            let path = |name: &str| dir.join(format!("{i}-{threads}-{name}"));
            let (metrics, trace, bench) = (path("m.json"), path("t.json"), path("b.json"));
            let common = format!("--runs 5 --seed 3 --threads {threads}");
            let out = prlc()
                .arg("sim")
                .args(mode.split_whitespace().chain(common.split_whitespace()))
                .args(["--metrics", metrics.to_str().unwrap()])
                .args(["--trace", trace.to_str().unwrap()])
                .args(["--bench-out", bench.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{mode:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            fs::read_to_string(bench).unwrap()
        };
        let (one, four) = (envelope("1"), envelope("4"));
        assert!(one.contains(",\"metrics\":{\"counters\""), "{one}");
        assert!(one.contains(",\"trace\":{\"tracks\""), "{one}");
        let report = diff_envelopes("sim", &one, &four, &Tolerances::default()).unwrap();
        assert!(report.clean(), "{mode:?}: {:?}", report.findings);
    }
    fs::remove_dir_all(dir).unwrap();
}
