//! The `prlc` command-line tool: priority-coded file persistence.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use prlc_cli::{decode, encode, info, DecodeOptions, EncodeOptions};
use prlc_core::{PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::{kernel, Gf256};
use prlc_net::{AdversaryPlan, AdversaryStrategy, CoeffRep, FaultPlan, RetryPolicy, SourceFanout};
use prlc_sim::{
    adversary_results_json, bench_file_name, fmt_f,
    persistence_under_lossy_collection_with_threads, run_bench_probe, run_probe_and_reset, runner,
    simulate_adversary_sweep_with_threads, simulate_decoding_curve_with_threads,
    simulate_persistence_timeline_with_threads, timeline_results_json, AdversarySweepConfig,
    CurveConfig, Envelope, LossyCollectionConfig, Persistence, RunMetadata, Table, TimelineConfig,
    BENCH_PROBES,
};

const USAGE: &str = "\
prlc — priority random linear codes for files (ICDCS 2007 reproduction)

USAGE:
  prlc encode <FILE> --out <DIR> [--block-size N] [--levels a,b,c]
              [--overhead X] [--scheme rlc|slc|plc] [--seed S]
  prlc decode <DIR> --out <FILE> [--allow-partial]
  prlc info <DIR>
  prlc sim [--scheme rlc|slc|plc|replication|growth] [--levels a,b,c]
           [--max-blocks M] [--runs R] [--seed S] [--threads T]
           [--loss p1,p2,...] [--retries r1,r2,...]
           [--nodes N] [--locations M]
           [--epochs E] [--churn p] [--repair D]
           [--adversary region|eclipse|targeted|creep]
           [--adv-intensity X] [--adv-segment L] [--adv-focus p]
           [--fanout all|log:F] [--coeff dense|sparse]
           [--bench-out FILE] [--metrics FILE|-]
           [--trace FILE|-] [--trace-format json|chrome]
  prlc trace [--scheme rlc|slc|plc] [--levels a,b,c] [--max-blocks M]
             [--seed S] [--out FILE|-] [--format json|chrome]
  prlc bench [--check] [--out DIR] [--baseline-dir DIR]
             [--probe p1,p2,...] [--threads T]
             [--tolerance F] [--wall-tolerance F] [--report FILE]
  prlc lint [--root DIR] [--format text|json] [--allowlist FILE]

The encoder splits FILE into priority levels (leading bytes = most
important), generates overhead·N coded shards, and writes them plus a
manifest into DIR. The decoder recovers the file from whatever shards
remain — with --allow-partial it writes the longest decodable prefix.

`sim` runs the in-memory decoding-curve experiment (paper Sec. 5) over
GF(2⁸): decoded priority levels vs accumulated coded blocks, averaged
over R runs with 95% confidence intervals. --threads defaults to the
available parallelism; the run header reports the selected GF kernel
backend and its measured symbol throughput. --bench-out writes the
curve plus that run metadata as JSON (a BENCH_*.json artifact).

With --loss and/or --retries, `sim` instead sweeps collection over a
fault-injected transport (coding schemes only): blocks are stored on a
ring overlay, a node-failure event strikes, then a collector gathers
the survivors while each per-node query is dropped with probability
--loss and retried up to --retries times. Both flags take
comma-separated lists and form a grid. --nodes sets the overlay size
and --locations the storage locations (defaults scale with the code).

With --epochs, `sim` runs a long-horizon persistence timeline through
the protocol sessions (coding schemes only): one deployment,
then E churn epochs each killing an alive node with probability
--churn, optionally followed by an in-network repair pass combining
--repair donor blocks per lost slot. Here --loss and --retries take
single values and fault-inject the protocol sessions themselves. The
sessions' lazy per-node state makes N=10^5 overlays (--nodes
100000) run in seconds. --fanout log:F routes each source block to
ceil(F·ln N) of its eligible locations instead of all of them, and
--coeff sparse stores cached coefficient rows as sorted (index, value)
pairs instead of dense length-N vectors — together they bound both the
bandwidth and the per-block memory at O(ln N). Results are identical
between --coeff dense and --coeff sparse for the same seed.

With --adversary, `sim` mounts a structured fault adversary on the
deployed overlay (coding schemes only) and reports per-epoch decoded
levels plus per-level survival frequencies, collected through the
faulted transport. Strategies: `region` crashes contiguous ring
segments (anchor fraction --adv-intensity, default 0.05; segment
length --adv-segment, default 4), `eclipse` concentrates loss on
traffic leaving through the collector's finger neighborhood
(--adv-intensity = loss, default 0.9), `targeted` adaptively crashes
the caches holding the highest-level blocks (--adv-intensity = kill
count, default locations/4; --adv-focus = greedy-pick probability,
default 1.0), `creep` silently compromises nodes every epoch
(--adv-intensity = per-epoch rate, default 0.1) — compromised nodes
stay in the overlay where repair cannot see them. --epochs (default
4), --churn (default 0 here), --repair, --loss/--retries, --nodes,
--locations, --fanout and --coeff compose as in the timeline mode.

Each mode rejects the flags it does not read: the curve mode rejects
every networked flag, the lossy sweep --churn, --repair, --fanout,
--coeff and --adv-*, and the timeline --adv-*.

--metrics enables the prlc-obs recorder and dumps the full metrics
snapshot (counters, histograms, events, timers) as one JSON object to
FILE, or to stdout with `-`. Everything except the timers block is
deterministic for a fixed seed, independent of thread count. The same
snapshot is embedded as a \"metrics\" block in --bench-out envelopes.
Setting PRLC_OBS=1 enables recording without a dump.

--trace enables the deterministic causal tracer and dumps the recorded
spans and instant events — stamped with logical clocks, one track per
Monte-Carlo run — to FILE, or stdout with `-`. --trace-format picks
the deterministic JSON layout (default) or the Chrome Trace Event
format, loadable in Perfetto / chrome://tracing. Dumps are
byte-identical across --threads values and kernel backends; the dump
is also embedded as a \"trace\" block in --bench-out envelopes. At
most one of --trace and --metrics may target stdout. PRLC_TRACE=1
enables recording without a dump.

`trace` replays one pinned-seed decoding run (coding schemes only)
with the tracer on and prints the per-level decode waterfall: the
number of coded blocks consumed when each priority level unlocked.
--out additionally exports the raw trace like `sim --trace`.

`bench` runs the canonical pinned-seed probe suite (GF kernel
throughput per backend, the lossy-collection sweep, the N=10^5
timeline, the targeted-adversary sweep, sparse-row bytes vs ln N) and
writes one versioned BENCH_<probe>.json envelope per probe into --out
(default: the current directory) — the files committed at the repo
root as perf baselines. With --check it instead re-runs the probes and
diffs each envelope against --baseline-dir (default: the current
directory): deterministic fields (results, metrics, trace digests, RNG
end states) must match exactly, environmental measurements (MB/s,
wall-clock ms) must sit inside a multiplicative tolerance band
(--tolerance, default 25; --wall-tolerance, default 100). It prints
the run-delta table, writes machine-readable findings JSON to --report
if given, and exits nonzero on any finding. --probe restricts the
suite to a comma-separated subset.

`lint` runs the workspace invariant lints (determinism, unsafe-audit,
metric-key registry, RNG domain separation, panic hygiene, RNG-domain
registry, kernel-dispatch audit) over the repository sources. --root
defaults to the nearest enclosing workspace;
--allowlist defaults to <root>/lint-allowlist.txt. JSON output is
deterministic (sorted findings, no timestamps). Exits nonzero when
findings remain.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    match command.as_str() {
        "encode" => cmd_encode(&args[1..]),
        "decode" => cmd_decode(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "sim" => cmd_sim(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

/// Checks `args` against the flags `cmd` takes and returns its
/// positional arguments. `values` lists the flags that take a value
/// (`--flag v` or `--flag=v`), `switches` those that stand alone, each
/// separated by whitespace; any other `--flag` is an error naming it.
fn check_flags<'a>(
    cmd: &str,
    args: &'a [String],
    values: &str,
    switches: &str,
) -> Result<Vec<&'a String>, String> {
    let takes = |list: &str, name: &str| list.split_whitespace().any(|f| f == name);
    let mut positionals = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if !a.starts_with("--") {
            positionals.push(a);
            continue;
        }
        let (name, inline_value) = a
            .split_once('=')
            .map_or((a.as_str(), false), |(n, _)| (n, true));
        if takes(values, name) {
            if !inline_value {
                rest.next();
            }
        } else if !takes(switches, name) {
            return Err(format!("{cmd}: unknown flag {name}"));
        } else if inline_value {
            return Err(format!("{cmd}: {name} takes no value"));
        }
    }
    Ok(positionals)
}

/// Pulls `--flag value` or `--flag=value` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Ok(Some(v.to_string()));
        }
        if a == flag {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// `flag`'s value parsed as a `T`, if given. A value that does not parse
/// is reported as `bad <flag>` followed by `hint`.
fn parsed<T: FromStr>(args: &[String], flag: &str, hint: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("bad {flag}{hint}")))
        .transpose()
}

/// [`parsed`], or `default` when the flag is absent.
fn num<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    Ok(parsed(args, flag, "")?.unwrap_or(default))
}

/// A count flag that must be at least 1, if given.
fn count(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    match parsed(args, flag, "")? {
        Some(0) => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Checks that `p` is a probability; `what` names it in the error.
fn unit(p: f64, what: &str) -> Result<f64, String> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{what} must be in [0,1]"))
    }
}

/// A comma-separated list flag, if given; `example` shows the expected
/// shape in the error.
fn list<T: FromStr>(args: &[String], flag: &str, example: &str) -> Result<Option<Vec<T>>, String> {
    flag_value(args, flag)?
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse())
                .collect::<Result<Vec<T>, _>>()
                .map_err(|_| format!("bad {flag} (expect e.g. {example})"))
        })
        .transpose()
}

/// A flag that takes one of `options`, defaulting to the first.
fn choice(args: &[String], flag: &str, options: &[&str]) -> Result<String, String> {
    let v = flag_value(args, flag)?.unwrap_or_else(|| options[0].to_string());
    if options.contains(&v.as_str()) {
        Ok(v)
    } else {
        Err(format!("{flag} must be {}, got {v:?}", options.join("|")))
    }
}

/// `--scheme`: a coding scheme or one of the non-coding baselines;
/// PLC when absent.
fn persistence(args: &[String]) -> Result<Persistence, String> {
    match flag_value(args, "--scheme")?
        .map(|s| s.to_ascii_lowercase())
        .as_deref()
    {
        None | Some("plc") => Ok(Persistence::Coding(Scheme::Plc)),
        Some("rlc") => Ok(Persistence::Coding(Scheme::Rlc)),
        Some("slc") => Ok(Persistence::Coding(Scheme::Slc)),
        Some("replication") => Ok(Persistence::Replication),
        Some("growth") => Ok(Persistence::Growth),
        Some(_) => Err("bad --scheme (rlc|slc|plc|replication|growth)".into()),
    }
}

/// `--scheme` restricted to the coding schemes; `prefix` leads the error.
fn coding_scheme(args: &[String], prefix: &str) -> Result<Scheme, String> {
    match persistence(args) {
        Ok(Persistence::Coding(scheme)) => Ok(scheme),
        _ => Err(format!("{prefix}bad --scheme (rlc|slc|plc)")),
    }
}

/// `--levels` as a priority profile; `[2,3,5]` when absent.
fn profile(args: &[String]) -> Result<PriorityProfile, String> {
    let sizes = list(args, "--levels", "2,3,5")?.unwrap_or_else(|| vec![2, 3, 5]);
    PriorityProfile::new(sizes).map_err(|e| format!("bad --levels: {e}"))
}

/// `--threads`, defaulting to the available parallelism.
fn threads(args: &[String]) -> Result<usize, String> {
    Ok(count(args, "--threads")?.unwrap_or_else(runner::default_threads))
}

/// The one-line run header shared by every subcommand that does field
/// arithmetic: which GF kernel backend this process dispatched to.
fn print_kernel_header(task: &str) {
    println!(
        "prlc {task} — kernel backend {}",
        kernel::active_backend_description()
    );
}

// ---------------------------------------------------------------------------
// File subcommands
// ---------------------------------------------------------------------------

fn cmd_encode(args: &[String]) -> Result<(), String> {
    let flags = "--out --block-size --levels --overhead --scheme --seed";
    let positionals = check_flags("encode", args, flags, "")?;
    let input = positionals.first().ok_or("encode: missing input file")?;
    print_kernel_header("encode");
    let out = flag_value(args, "--out")?.ok_or("encode: missing --out DIR")?;
    let defaults = EncodeOptions::default();
    let opts = EncodeOptions {
        block_size: num(args, "--block-size", defaults.block_size)?,
        level_shares: list(args, "--levels", "10,30,60")?.unwrap_or(defaults.level_shares),
        overhead: num(args, "--overhead", defaults.overhead)?,
        scheme: coding_scheme(args, "")?,
        seed: num(args, "--seed", defaults.seed)?,
        ..defaults
    };
    let shards =
        encode(&PathBuf::from(input), &PathBuf::from(&out), &opts).map_err(|e| e.to_string())?;
    println!("wrote {shards} shards + manifest to {out}");
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    let positionals = check_flags("decode", args, "--out", "--allow-partial")?;
    let dir = positionals
        .first()
        .ok_or("decode: missing shard directory")?;
    let out = flag_value(args, "--out")?.ok_or("decode: missing --out FILE")?;
    print_kernel_header("decode");
    let opts = DecodeOptions {
        allow_partial: has_flag(args, "--allow-partial"),
    };
    let outcome =
        decode(&PathBuf::from(dir), &PathBuf::from(&out), &opts).map_err(|e| e.to_string())?;
    if outcome.complete {
        println!(
            "recovered {} bytes (complete, integrity verified) from {} shards",
            outcome.recovered_bytes, outcome.shards_read
        );
    } else {
        println!(
            "partial recovery: {} bytes, {}/{} priority levels, from {} shards \
             ({} skipped)",
            outcome.recovered_bytes,
            outcome.levels_recovered,
            outcome.levels_total,
            outcome.shards_read,
            outcome.shards_skipped
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let positionals = check_flags("info", args, "", "")?;
    let dir = positionals.first().ok_or("info: missing shard directory")?;
    let report = info(&PathBuf::from(dir)).map_err(|e| e.to_string())?;
    let m = &report.manifest;
    println!("file length : {} bytes", m.file_len);
    println!("block size  : {} bytes", m.block_size);
    println!("scheme      : {:?}", m.scheme);
    println!(
        "blocks      : {} in {} levels",
        m.total_blocks(),
        m.level_sizes.len()
    );
    for (i, (&size, &present)) in m
        .level_sizes
        .iter()
        .zip(&report.shards_per_level)
        .enumerate()
    {
        let status = if present >= size as usize {
            "likely decodable"
        } else {
            "under-provisioned"
        };
        println!(
            "  level {}: {} source blocks, {} shards present ({status})",
            i + 1,
            size,
            present
        );
    }
    if report.shards_skipped > 0 {
        println!(
            "skipped     : {} corrupt/foreign files",
            report.shards_skipped
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// `prlc sim`
// ---------------------------------------------------------------------------

/// The flags `prlc sim` takes, by mode: each mode reads its own list and
/// every list before it, and rejects the rest.
const SIM_FLAGS: [(&str, &str); 4] = [
    (
        "curve",
        "--scheme --levels --max-blocks --runs --seed --threads --bench-out --metrics --trace \
         --trace-format",
    ),
    ("lossy", "--loss --retries --nodes --locations"),
    ("timeline", "--epochs --churn --repair --fanout --coeff"),
    (
        "adversary",
        "--adversary --adv-intensity --adv-segment --adv-focus",
    ),
];

/// `prlc sim`'s flags, parsed once.
struct SimArgs {
    /// The fields every mode shares; the curve mode runs it as is.
    base: CurveConfig,
    threads: usize,
    mode: SimMode,
    out: SimOutputs,
}

/// Which experiment `prlc sim` runs, chosen by the first mode flag given
/// in the order `--adversary`, `--epochs`, `--loss`/`--retries`.
enum SimMode {
    Curve,
    /// The collection sweep over the loss × retry-budget grid.
    Lossy(LossyCollectionConfig, Vec<f64>, Vec<usize>),
    Timeline(TimelineConfig),
    /// The adversary sweep, on the timeline's deployment and upkeep.
    Adversary(TimelineConfig, AdversaryStrategy),
}

/// Where a `sim` run's `--metrics`, `--trace` and `--bench-out` go.
struct SimOutputs {
    metrics: Option<String>,
    trace: Option<String>,
    trace_format: String,
    bench_out: Option<String>,
}

impl SimArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let given = |flag: &str| flag_value(args, flag).map(|v| v.is_some());
        let adversary = flag_value(args, "--adversary")?;
        let timeline = given("--epochs")?;
        let lossy = given("--loss")? || given("--retries")?;
        let modes = if adversary.is_some() {
            4
        } else if timeline {
            3
        } else if lossy {
            2
        } else {
            1
        };
        let flags: Vec<&str> = SIM_FLAGS[..modes].iter().map(|&(_, f)| f).collect();
        let cmd = format!("sim ({} mode)", SIM_FLAGS[modes - 1].0);
        check_flags(&cmd, args, &flags.join(" "), "")?;
        let profile = profile(args)?;
        let base = CurveConfig {
            persistence: persistence(args)?,
            distribution: PriorityDistribution::uniform(profile.num_levels()),
            max_blocks: num(args, "--max-blocks", 3 * profile.total_blocks())?,
            runs: num(args, "--runs", 100)?,
            seed: num(args, "--seed", 1)?,
            profile,
        };
        let threads = threads(args)?;
        let out = SimOutputs::parse(args)?;
        let mode = if let Some(name) = adversary {
            let cfg = timeline_config(args, &base, "--adversary needs", true)?;
            let strategy = adversary_strategy(args, &name, cfg.locations)?;
            SimMode::Adversary(cfg, strategy)
        } else if timeline {
            SimMode::Timeline(timeline_config(args, &base, "--epochs needs", false)?)
        } else if lossy {
            let scheme = coding(&base, "--loss/--retries need", "collection")?;
            let losses = list(args, "--loss", "0,0.2,0.5")?.unwrap_or(vec![0.0, 0.1, 0.3, 0.5]);
            for &p in &losses {
                unit(p, "--loss rates")?;
            }
            let retries = list(args, "--retries", "0,1,3")?.unwrap_or(vec![0, 1, 3]);
            let (nodes, locations) = overlay_geometry(args, &base.profile)?;
            let cfg = LossyCollectionConfig {
                scheme,
                profile: base.profile.clone(),
                distribution: base.distribution.clone(),
                nodes,
                locations,
                node_failure: 0.3,
                backoff_hops: 1,
                runs: base.runs,
                seed: base.seed,
            };
            SimMode::Lossy(cfg, losses, retries)
        } else {
            SimMode::Curve
        };
        Ok(SimArgs {
            base,
            threads,
            mode,
            out,
        })
    }
}

/// The scheme of a networked mode, which needs a coding scheme: the
/// baselines have no networked path.
fn coding(base: &CurveConfig, needs: &str, path: &str) -> Result<Scheme, String> {
    match base.persistence {
        Persistence::Coding(scheme) => Ok(scheme),
        _ => Err(format!(
            "{needs} a coding scheme (rlc|slc|plc): the baselines have no \
             networked {path} path"
        )),
    }
}

/// The flags the timeline and adversary modes share, with the
/// timeline's defaults (`--epochs` required, `--churn` 0.2) or, for the
/// `adversary` sweep, its own (`--epochs` 4, `--churn` 0). `needs` leads
/// the error for a non-coding scheme.
fn timeline_config(
    args: &[String],
    base: &CurveConfig,
    needs: &str,
    adversary: bool,
) -> Result<TimelineConfig, String> {
    let (epochs, churn, sweep) = if adversary {
        (Some(4), 0.0, "an adversary sweep")
    } else {
        (None, 0.2, "a timeline")
    };
    let scheme = coding(base, needs, "persistence")?;
    let (nodes, locations) = overlay_geometry(args, &base.profile)?;
    let epochs = count(args, "--epochs")?
        .or(epochs)
        .ok_or("--epochs missing")?;
    let churn = unit(num(args, "--churn", churn)?, "--churn")?;
    let repair_donors = match parsed(args, "--repair", "")? {
        Some(0) => return Err("--repair needs at least one donor per slot".into()),
        d => d,
    };
    let single = |what: &str| format!(" ({sweep} takes a single {what})");
    let loss = unit(
        parsed(args, "--loss", &single("rate"))?.unwrap_or(0.0),
        "--loss",
    )?;
    let retries = parsed(args, "--retries", &single("budget"))?.unwrap_or(0);
    let fanout = match flag_value(args, "--fanout")?.as_deref() {
        None | Some("all") => SourceFanout::All,
        Some(v) => {
            let f = v
                .strip_prefix("log:")
                .ok_or_else(|| format!("bad --fanout {v:?} (want all or log:F)"))?;
            let factor: f64 = f.parse().map_err(|_| "bad --fanout factor")?;
            if !factor.is_finite() || factor <= 0.0 {
                return Err("--fanout log factor must be finite and > 0".into());
            }
            SourceFanout::Log { factor }
        }
    };
    let coeff_rep = match flag_value(args, "--coeff")?.as_deref() {
        None | Some("dense") => CoeffRep::Dense,
        Some("sparse") => CoeffRep::Sparse,
        Some(v) => return Err(format!("bad --coeff {v:?} (want dense or sparse)")),
    };
    Ok(TimelineConfig {
        scheme,
        profile: base.profile.clone(),
        distribution: base.distribution.clone(),
        nodes,
        locations,
        churn_per_epoch: churn,
        epochs,
        repair_donors,
        faults: if loss > 0.0 {
            FaultPlan::lossy(loss, RetryPolicy::with_retries(retries, 1), base.seed)
        } else {
            FaultPlan::none()
        },
        fanout,
        coeff_rep,
        runs: base.runs,
        seed: base.seed,
    })
}

/// `--adversary <name>` with its strategy flags. Each strategy keeps its
/// own `--adv-intensity` default; `targeted` defaults to killing a
/// quarter of the `locations`.
fn adversary_strategy(
    args: &[String],
    name: &str,
    locations: usize,
) -> Result<AdversaryStrategy, String> {
    let intensity = |default: f64, what: &str| unit(num(args, "--adv-intensity", default)?, what);
    Ok(match name {
        "region" => AdversaryStrategy::Region {
            fraction: intensity(0.05, "--adv-intensity (region fraction)")?,
            segment_len: count(args, "--adv-segment")?.unwrap_or(4),
        },
        "eclipse" => AdversaryStrategy::Eclipse {
            loss: intensity(0.9, "--adv-intensity (eclipse loss)")?,
        },
        "targeted" => AdversaryStrategy::Targeted {
            kills: parsed(args, "--adv-intensity", " (targeted takes a kill count)")?
                .unwrap_or(locations / 4),
            focus: unit(num(args, "--adv-focus", 1.0)?, "--adv-focus")?,
        },
        "creep" => AdversaryStrategy::Creep {
            per_epoch: intensity(0.1, "--adv-intensity (creep rate)")?,
        },
        v => {
            return Err(format!(
                "bad --adversary {v:?} (want region|eclipse|targeted|creep)"
            ))
        }
    })
}

/// Parses `--nodes` / `--locations` for the overlay-backed sim paths,
/// with validation against the code parameters: an overlay that cannot
/// hold a decodable deployment is rejected up front with an actionable
/// message instead of failing deep inside the protocol.
fn overlay_geometry(args: &[String], profile: &PriorityProfile) -> Result<(usize, usize), String> {
    let total = profile.total_blocks();
    let nodes = num(args, "--nodes", 4 * total.max(20))?;
    if nodes < 2 * total {
        return Err(format!(
            "--nodes {nodes} is too small for this code: {total} source blocks \
             need at least {} nodes (2x the code width) to hold a decodable \
             set of storage locations",
            2 * total
        ));
    }
    // nodes/2 like the original sweeps, capped so that huge overlays
    // (--nodes 100000) keep a code-sized deployment instead of scaling
    // the location count with the network.
    let locations = num(args, "--locations", (nodes / 2).min(4 * total.max(20)))?;
    if locations < total {
        return Err(format!(
            "--locations {locations} is below the code width {total}: the \
             deployment could never be fully decodable"
        ));
    }
    Ok((nodes, locations))
}

impl SimOutputs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let out = SimOutputs {
            metrics: flag_value(args, "--metrics")?,
            trace: flag_value(args, "--trace")?,
            trace_format: choice(args, "--trace-format", &["json", "chrome"])?,
            bench_out: flag_value(args, "--bench-out")?,
        };
        if out.trace.as_deref() == Some("-") && out.metrics.as_deref() == Some("-") {
            return Err(
                "--trace - and --metrics - both target stdout and would interleave; \
                 write at least one of them to a file"
                    .into(),
            );
        }
        Ok(out)
    }

    /// The tail every `sim` mode finishes through: writes the metrics
    /// snapshot, the trace dump and the bench envelope around `results`
    /// (a JSON array), each where its flag asked. `what` names the
    /// results in the confirmation line.
    fn finish(&self, meta: &mut RunMetadata, results: &str, what: &str) -> Result<(), String> {
        let metrics = self
            .metrics
            .as_deref()
            .map(|d| finish_metrics(meta, d))
            .transpose()?;
        let trace = self
            .trace
            .as_deref()
            .map(|d| finish_trace(d, &self.trace_format))
            .transpose()?;
        if let Some(path) = &self.bench_out {
            let envelope = meta.envelope(&Envelope {
                metrics: metrics.as_deref(),
                trace: trace.as_deref(),
                results,
                ..Envelope::default()
            });
            std::fs::write(path, envelope).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {what} + run metadata to {path}");
        }
        Ok(())
    }
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let sim = SimArgs::parse(args)?;
    let (base, threads) = (&sim.base, sim.threads);
    if sim.out.metrics.is_some() {
        prlc_obs::enable();
    }
    if sim.out.trace.is_some() {
        prlc_obs::trace::enable();
    }

    // Run header: environment first, so perf numbers in the output are
    // attributable to a backend and worker count. The shared helper also
    // clears the recorders of the throughput probe's own kernel traffic.
    let mut meta = run_probe_and_reset(threads);
    println!(
        "prlc sim — kernel backend {}, {} threads, {} MB/s symbol throughput",
        meta.kernel_backend,
        meta.threads,
        fmt_f(meta.symbol_throughput_mb_s, 0)
    );
    println!(
        "scheme {}, levels {:?}, {} runs, seed {}",
        base.persistence,
        level_sizes(&base.profile),
        base.runs,
        base.seed
    );

    let (results, what) = match &sim.mode {
        SimMode::Curve => (sim_curve(base, threads), "curve"),
        SimMode::Lossy(cfg, losses, retries) => (
            sim_lossy(cfg, losses, retries, threads)?,
            "lossy-collection sweep",
        ),
        SimMode::Timeline(cfg) => (sim_timeline(cfg, threads)?, "persistence timeline"),
        SimMode::Adversary(cfg, strategy) => {
            (sim_adversary(cfg, *strategy, threads), "adversary sweep")
        }
    };
    sim.out.finish(&mut meta, &results, what)
}

fn level_sizes(profile: &PriorityProfile) -> Vec<usize> {
    (0..profile.num_levels())
        .map(|l| profile.blocks_of(l).count())
        .collect()
}

/// The overlay modes' run line: deployment size and upkeep settings.
fn overlay_line(cfg: &TimelineConfig) -> String {
    format!(
        "{} nodes, {} locations, {} epochs, churn {}, repair {}, loss {}",
        cfg.nodes,
        cfg.locations,
        cfg.epochs,
        fmt_f(cfg.churn_per_epoch, 2),
        cfg.repair_donors
            .map_or_else(|| "off".to_string(), |d| format!("{d} donors")),
        fmt_f(cfg.faults.link.loss, 2),
    )
}

/// The decoding-curve mode: prints every 20th point and returns the
/// whole curve as JSON rows.
fn sim_curve(cfg: &CurveConfig, threads: usize) -> String {
    let curve = simulate_decoding_curve_with_threads::<Gf256>(cfg, threads);
    let mut table = Table::new(["blocks", "levels", "ci95"]);
    let step = (cfg.max_blocks / 20).max(1);
    for m in (0..=cfg.max_blocks).step_by(step) {
        let s = curve.summaries[m];
        table.push_row([m.to_string(), fmt_f(s.mean, 3), fmt_f(s.ci95, 3)]);
    }
    println!("{}", table.render());

    let rows: Vec<String> = curve
        .summaries
        .iter()
        .enumerate()
        .map(|(m, s)| {
            format!(
                "{{\"blocks\":{m},\"mean\":{:.6},\"ci95\":{:.6}}}",
                s.mean, s.ci95
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// The lossy-collection mode: the loss × retry-budget grid.
fn sim_lossy(
    cfg: &LossyCollectionConfig,
    losses: &[f64],
    retries: &[usize],
    threads: usize,
) -> Result<String, String> {
    println!(
        "lossy collection: {} nodes, {} locations, 30% node failure",
        cfg.nodes, cfg.locations
    );
    let sweep =
        persistence_under_lossy_collection_with_threads::<Gf256>(cfg, losses, retries, threads)
            .map_err(|e| format!("lossy-collection sweep failed: {e}"))?;
    let mut table = Table::new([
        "loss", "retries", "levels", "ci95", "lost", "resent", "gave-up", "hops",
    ]);
    for cell in &sweep.cells {
        table.push_row([
            fmt_f(cell.loss, 2),
            cell.retries.to_string(),
            fmt_f(cell.decoded_levels.mean, 3),
            fmt_f(cell.decoded_levels.ci95, 3),
            fmt_f(cell.lost_messages, 1),
            fmt_f(cell.retries_spent, 1),
            fmt_f(cell.gave_up, 1),
            fmt_f(cell.query_hops, 0),
        ]);
    }
    println!("{}", table.render());
    Ok(sweep.results_json())
}

/// The timeline mode: a long-horizon persistence timeline through the
/// protocol sessions — churn epoch after churn epoch, with
/// optional in-network repair and fault-injected protocol sessions.
fn sim_timeline(cfg: &TimelineConfig, threads: usize) -> Result<String, String> {
    println!("persistence timeline: {}", overlay_line(cfg));
    let summaries = simulate_persistence_timeline_with_threads::<Gf256>(cfg, threads)
        .map_err(|e| format!("timeline simulation failed: {e}"))?;
    let mut table = Table::new(["epoch", "levels", "ci95"]);
    for (epoch, s) in summaries.iter().enumerate() {
        table.push_row([epoch.to_string(), fmt_f(s.mean, 3), fmt_f(s.ci95, 3)]);
    }
    println!("{}", table.render());
    Ok(timeline_results_json(&summaries))
}

/// The adversary mode: per-epoch decoding degradation under a structured
/// fault adversary, measured through the faulted transport.
fn sim_adversary(t: &TimelineConfig, strategy: AdversaryStrategy, threads: usize) -> String {
    println!("adversary sweep: {strategy:?}, {}", overlay_line(t));
    let cfg = AdversarySweepConfig {
        scheme: t.scheme,
        profile: t.profile.clone(),
        distribution: t.distribution.clone(),
        nodes: t.nodes,
        locations: t.locations,
        adversary: AdversaryPlan {
            strategy,
            after_messages: 0,
            seed: t.seed,
        },
        epochs: t.epochs,
        churn_per_epoch: t.churn_per_epoch,
        repair_donors: t.repair_donors,
        faults: t.faults.clone(),
        fanout: t.fanout,
        coeff_rep: t.coeff_rep,
        runs: t.runs,
        seed: t.seed,
    };
    let out = simulate_adversary_sweep_with_threads::<Gf256>(&cfg, threads);
    let mut table = Table::new(["epoch", "levels", "ci95", "survival"]);
    for e in &out {
        let survival: Vec<String> = e.level_survival.iter().map(|s| fmt_f(*s, 2)).collect();
        table.push_row([
            e.epoch.to_string(),
            fmt_f(e.decoded_levels.mean, 3),
            fmt_f(e.decoded_levels.ci95, 3),
            survival.join(" "),
        ]);
    }
    println!("{}", table.render());
    adversary_results_json(&out)
}

/// Finalises a metrics-enabled run: folds the `sim.run` timer into the
/// metadata and delivers the full snapshot to `dest`. Returns the JSON
/// so callers can also embed it in a bench envelope.
fn finish_metrics(meta: &mut RunMetadata, dest: &str) -> Result<String, String> {
    meta.aggregate_obs_timing();
    deliver(dest, prlc_obs::snapshot().to_json(), "metrics")
}

/// Finalises a trace-enabled run: renders the recorded trace in the
/// requested format and delivers it to `dest`. Returns the rendering so
/// callers can also embed it in a bench envelope.
fn finish_trace(dest: &str, format: &str) -> Result<String, String> {
    let snap = prlc_obs::trace::snapshot();
    let rendered = match format {
        "chrome" => snap.to_chrome_trace(),
        _ => snap.to_json(),
    };
    deliver(dest, rendered, "trace")
}

/// Writes `text` as one line to `dest` (`-` = stdout) and hands it back.
fn deliver(dest: &str, text: String, what: &str) -> Result<String, String> {
    if dest == "-" {
        println!("{text}");
    } else {
        std::fs::write(dest, format!("{text}\n")).map_err(|e| format!("writing {dest}: {e}"))?;
        println!("wrote {what} to {dest}");
    }
    Ok(text)
}

// ---------------------------------------------------------------------------
// `prlc trace`, `prlc bench`, `prlc lint`
// ---------------------------------------------------------------------------

/// The `trace` subcommand: replay one pinned-seed decoding run with the
/// causal tracer on and print the per-level decode waterfall (coded
/// blocks consumed at each level unlock).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = "--scheme --levels --max-blocks --seed --out --format";
    check_flags("trace", args, flags, "")?;
    let scheme = coding_scheme(args, "trace: ")?;
    let profile = profile(args)?;
    let max_blocks = num(args, "--max-blocks", 3 * profile.total_blocks())?;
    let seed = num(args, "--seed", 1)?;
    let out = flag_value(args, "--out")?;
    let format = choice(args, "--format", &["json", "chrome"])?;

    print_kernel_header("trace");
    println!(
        "scheme {}, levels {:?}, 1 run, seed {seed}",
        Persistence::Coding(scheme),
        level_sizes(&profile)
    );

    prlc_obs::trace::enable();
    prlc_obs::trace::reset();
    let cfg = CurveConfig {
        persistence: Persistence::Coding(scheme),
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        max_blocks,
        runs: 1,
        seed,
    };
    simulate_decoding_curve_with_threads::<Gf256>(&cfg, 1);
    let snap = prlc_obs::trace::snapshot();

    // Per-level unlock ticks from the provenance instants: tick is the
    // count of coded blocks the decoder had consumed at the unlock.
    let mut unlock: Vec<Option<u64>> = vec![None; profile.num_levels()];
    for (_, rec) in snap.iter() {
        if rec.name() != "core.decode.level_unlock" {
            continue;
        }
        if let Some(level) = rec.arg("level") {
            if let Some(slot) = unlock.get_mut(level as usize) {
                slot.get_or_insert(rec.tick());
            }
        }
    }

    let mut table = Table::new(["level", "size", "rows-to-unlock"]);
    for l in 0..profile.num_levels() {
        table.push_row([
            (l + 1).to_string(),
            profile.blocks_of(l).count().to_string(),
            unlock[l].map_or_else(|| "-".to_string(), |t| t.to_string()),
        ]);
    }
    println!("{}", table.render());
    let unlocked = unlock.iter().filter(|u| u.is_some()).count();
    println!(
        "{unlocked}/{} levels unlocked within {max_blocks} coded blocks",
        profile.num_levels()
    );

    if let Some(dest) = out {
        finish_trace(&dest, &format)?;
    }
    Ok(())
}

/// The `bench` subcommand: run the canonical probe suite and either
/// write fresh `BENCH_<probe>.json` baselines (default) or diff the
/// suite against committed baselines and gate on the result (--check).
fn cmd_bench(args: &[String]) -> Result<(), String> {
    use prlc_obs::baseline::{diff_envelopes, findings_json, Tolerances};

    let flags = "--out --baseline-dir --probe --threads --tolerance --wall-tolerance --report";
    check_flags("bench", args, flags, "--check")?;
    let check = has_flag(args, "--check");
    let probes: Vec<String> = list(args, "--probe", "kernel,lossy")?
        .unwrap_or_else(|| BENCH_PROBES.iter().map(|s| s.to_string()).collect());
    if let Some(p) = probes.iter().find(|p| !BENCH_PROBES.contains(&p.as_str())) {
        let want = BENCH_PROBES.join(", ");
        return Err(format!("unknown probe {p:?} (want one of {want})"));
    }
    let threads = threads(args)?;
    // Tolerance band factors: finite numbers >= 1.
    let band = |flag: &str, default: f64| match parsed::<f64>(args, flag, "")? {
        Some(f) if !f.is_finite() || f < 1.0 => Err(format!("{flag} must be a finite factor >= 1")),
        f => Ok(f.unwrap_or(default)),
    };
    let defaults = Tolerances::default();
    let tol = Tolerances {
        throughput_factor: band("--tolerance", defaults.throughput_factor)?,
        wall_factor: band("--wall-tolerance", defaults.wall_factor)?,
    };

    // Baseline envelopes always carry the deterministic metrics block
    // and the trace digest, so the check has exact fields to hold.
    prlc_obs::enable();
    prlc_obs::trace::enable();
    println!(
        "prlc bench — kernel backend {}, {} threads, probes: {}",
        kernel::active_backend_description(),
        threads,
        probes.join(", ")
    );

    if !check {
        let out_dir = flag_value(args, "--out")?.unwrap_or_else(|| ".".to_string());
        for probe in &probes {
            let env = run_bench_probe(probe, threads)?;
            let path = std::path::Path::new(&out_dir).join(bench_file_name(probe));
            std::fs::write(&path, env).map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        return Ok(());
    }

    let baseline_dir = flag_value(args, "--baseline-dir")?.unwrap_or_else(|| ".".to_string());
    let mut reports = Vec::new();
    for probe in &probes {
        let path = std::path::Path::new(&baseline_dir).join(bench_file_name(probe));
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
        let current = run_bench_probe(probe, threads)?;
        reports.push(diff_envelopes(probe, &baseline, &current, &tol)?);
    }

    // The run-delta table: every environmental measurement with its
    // signed change, plus label moves (backend, threads) at `n/a`.
    let mut table = Table::new(["probe", "field", "baseline", "current", "delta", "band"]);
    for r in &reports {
        for d in &r.deltas {
            table.push_row([
                d.probe.clone(),
                d.path.clone(),
                d.baseline.clone(),
                d.current.clone(),
                match d.delta_pct {
                    Some(p) if p.is_finite() => format!("{p:+.1}%"),
                    _ => "n/a".to_string(),
                },
                if d.in_band { "ok" } else { "OUT" }.to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    let findings: usize = reports.iter().map(|r| r.findings.len()).sum();
    for r in &reports {
        for f in &r.findings {
            eprintln!(
                "FINDING [{}] {}: {} — baseline {}, current {}",
                f.kind.code(),
                f.probe,
                f.path,
                f.baseline,
                f.current
            );
        }
    }
    if let Some(report_path) = flag_value(args, "--report")? {
        std::fs::write(&report_path, findings_json(&reports))
            .map_err(|e| format!("writing {report_path}: {e}"))?;
        println!("wrote findings report to {report_path}");
    }
    if findings > 0 {
        Err(format!(
            "bench check failed: {findings} finding(s) across {} probe(s)",
            reports.iter().filter(|r| !r.clean()).count()
        ))
    } else {
        println!(
            "bench check clean: {} probe(s), {} environmental delta(s) in band",
            reports.len(),
            reports.iter().map(|r| r.deltas.len()).sum::<usize>()
        );
        Ok(())
    }
}

/// The `lint` subcommand: run the workspace invariant lints and report.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    check_flags("lint", args, "--root --format --allowlist", "")?;
    let format = choice(args, "--format", &["text", "json"])?;
    let allowlist = flag_value(args, "--allowlist")?.map(PathBuf::from);
    let root = match flag_value(args, "--root")? {
        Some(r) => PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
            prlc_lint::find_workspace_root(&cwd).ok_or_else(|| {
                format!(
                    "could not find a workspace root above {} (pass --root)",
                    cwd.display()
                )
            })?
        }
    };
    let report = prlc_lint::run(&root, allowlist.as_deref()).map_err(|e| format!("lint: {e}"))?;
    if format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} lint finding(s)", report.findings.len()))
    }
}
