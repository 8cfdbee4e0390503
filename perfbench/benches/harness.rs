//! What every workload shares: arguments, the measuring clock, sample
//! statistics, and the report the binary prints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input of a run derives from it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// `false`: untraced end-to-end run; `true`: traced per-layer run.
    pub trace: bool,
    /// Scratch directory for inputs and shards (created and removed).
    pub work_dir: PathBuf,
    /// Worker threads for the workloads that run in parallel: `nproc`.
    pub threads: usize,
    /// Source revision, as reported by the caller.
    pub commit: String,
}

/// `std::thread::available_parallelism`, or 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Args {
    /// Parses `--workload W --seed S --seconds T --trace 0|1 --work-dir D`
    /// plus the optional `--commit C`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(key, value);
        }
        let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
        let num = |k: &str| -> Result<f64, String> {
            get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
        };
        let seconds = num("seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload: get("workload")?.to_string(),
            seed: get("seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
            work_dir: PathBuf::from(get("work-dir")?),
            threads: nproc(),
            commit: kv.get("commit").unwrap_or(&"unknown").to_string(),
        })
    }

    /// Whether the measured loop should go on after `done` iterations
    /// started at `start`: until the time is up, and at least `min_iters`
    /// times so that seed-determined outcome metrics always cover the
    /// same inputs.
    pub fn keep_going(&self, start: Instant, done: usize, min_iters: usize) -> bool {
        done < min_iters || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times one call, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Timing samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle two for an even count); NaN when
    /// empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The highest percentile with at least ten samples above it, as
    /// `(percent, value)`; the maximum (`100`) when there are fewer than
    /// twenty samples.
    pub fn high(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return (100.0, f64::NAN);
        }
        if n < 20 {
            return (100.0, v[n - 1]);
        }
        let pct = ((n - 10) as f64 / n as f64 * 100.0).floor();
        let idx = ((pct / 100.0) * n as f64).ceil() as usize - 1;
        (pct, v[idx.min(n - 1)])
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Runs `setup` `times` times and returns the last result with the
/// median set-up time in seconds.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Samples::default();
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), secs.median()))
}

/// Operation counts, metric values and the readable lines of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Records a timing sample set: its median as metric `name` (when
    /// given) and a readable line with the median, the highest supported
    /// percentile and the sample count.
    pub fn timing(&mut self, label: &str, metric: Option<&str>, unit: &str, s: &Samples) {
        let (pct, hi) = s.high();
        self.line(format!(
            "  {label:<28} median {:>10.3} {unit}   p{pct:.0} {:>10.3} {unit}   n={}",
            s.median(),
            hi,
            s.len()
        ));
        if let Some(m) = metric {
            self.set(m, s.median());
        }
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/mounts`), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Whether two result series are bit-for-bit the same.
pub fn same_summaries(a: &[prlc_sim::Summary], b: &[prlc_sim::Summary]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.mean.to_bits() == y.mean.to_bits()
                && x.ci95.to_bits() == y.ci95.to_bits()
                && x.n == y.n
        })
}

/// Pooled mean and 95% half-width from per-batch summaries of one
/// quantity (`Summary::ci95` is `1.96 · s/√n`).
pub fn pool(parts: &[prlc_sim::Summary]) -> (f64, f64) {
    let n: usize = parts.iter().map(|s| s.n).sum();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let mean = parts.iter().map(|s| s.mean * s.n as f64).sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, f64::INFINITY);
    }
    let ss: f64 = parts
        .iter()
        .map(|s| {
            let sd = s.ci95 * (s.n as f64).sqrt() / 1.96;
            (s.n as f64 - 1.0) * sd * sd + s.n as f64 * (s.mean - mean).powi(2)
        })
        .sum();
    let sd = (ss / (n as f64 - 1.0)).sqrt();
    (mean, 1.96 * sd / (n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_high_percentile() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.high(), (100.0, 5.0));
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.5);
        // Ten samples (91..=100) lie above p90.
        assert_eq!(s.high(), (90.0, 90.0));
    }

    #[test]
    fn pooling_matches_one_batch() {
        let runs: Vec<Vec<f64>> = [1.0, 2.0, 4.0, 7.0, 7.5, 9.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let whole = prlc_sim::summarize_trajectories(&runs)[0];
        let halves = [
            prlc_sim::summarize_trajectories(&runs[..3])[0],
            prlc_sim::summarize_trajectories(&runs[3..])[0],
        ];
        let (mean, ci) = pool(&halves);
        assert!((mean - whole.mean).abs() < 1e-12);
        assert!((ci - whole.ci95).abs() < 1e-12);
    }
}
