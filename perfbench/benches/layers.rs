//! Per-layer metrics of the traced run: the program's own obs counters,
//! span times taken around layer calls by the replicas, the tracing
//! overhead, and GF kernel throughput measured from outside.

use std::hint::black_box;
use std::time::Instant;

use prlc_gf::{kernel, Gf256};

use crate::harness::{Report, Samples};

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// leaves a layer idle reports its metrics as 0.
pub const PER_LAYER: &[&str] = &[
    "gf.axpy_mb_s.1k",
    "gf.axpy_mb_s.row",
    "gf.axpy.bytes",
    "gf.scale.bytes",
    "linalg.rref.rows",
    "linalg.rref.pivots",
    "linalg.rref.redundant",
    "linalg.useful_row_ratio",
    "core.encode_ms",
    "core.decode_insert_ms",
    "core.encode.nnz",
    "cli.shard_write_ms",
    "cli.shard_read_ms",
    "cli.bytes_written",
    "cli.bytes_read",
    "cli.stored_bytes_ratio",
    "net.ring_build_ms",
    "net.churn_ms",
    "net.predistribute_ms",
    "net.refresh_ms",
    "net.rng_draws.build",
    "net.rng_draws.churn",
    "net.messages.sent",
    "net.delivery_ratio",
    "net.retries",
    "net.event.nodes_touched",
    "net.refresh.repaired",
    "sim.run_ms",
    "sim.decode_levels_ms",
    "sim.runner.parallel_efficiency",
    "obs.trace_overhead",
    "unattributed_ms",
];

/// Per-iteration values of the program's obs counters, summed over
/// kernel backends where the key carries one.
pub fn counters(rep: &mut Report, snap: &prlc_obs::Snapshot, iters: f64) {
    let sum = |prefix: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(name, _)| *name == prefix || name.starts_with(&format!("{prefix}.")))
            .map(|(_, v)| *v as f64)
            .fold(0.0, |a, b| a + b)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (rows, pivots) = (sum("linalg.rref.rows"), sum("linalg.rref.pivots"));
    let (sent, delivered) = (sum("net.messages.sent"), sum("net.messages.delivered"));
    for key in [
        "gf.axpy.bytes",
        "gf.scale.bytes",
        "linalg.rref.rows",
        "linalg.rref.pivots",
        "linalg.rref.redundant",
        "core.encode.nnz",
        "net.messages.sent",
        "net.retries",
        "net.event.nodes_touched",
        "net.refresh.repaired",
    ] {
        rep.set(key, sum(key) / iters);
    }
    rep.set("linalg.useful_row_ratio", ratio(pivots, rows));
    rep.set("net.delivery_ratio", ratio(delivered, sent));
}

/// Span times of one traced iteration, split by layer. `traced_ms` is
/// the whole traced work; what the parts do not cover is reported as
/// `unattributed_ms`.
pub struct LayerTimes {
    pub traced_ms: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl LayerTimes {
    pub fn report(&self, rep: &mut Report) {
        rep.line(format!(
            "  per-layer time per traced iteration ({:.3} ms):",
            self.traced_ms
        ));
        let mut attributed = 0.0;
        for &(name, ms) in &self.parts {
            attributed += ms;
            rep.set(name, ms);
            rep.line(format!(
                "    {name:<26} {ms:>12.3} ms {:>6.1}%",
                100.0 * ms / self.traced_ms
            ));
        }
        let rest = self.traced_ms - attributed;
        rep.set("unattributed_ms", rest);
        rep.line(format!(
            "    {:<26} {rest:>12.3} ms {:>6.1}%",
            "unattributed",
            100.0 * rest / self.traced_ms
        ));
    }
}

/// `obs.trace_overhead`: median traced replica time over median untraced
/// entry-point time for the same work.
pub fn overhead(rep: &mut Report, entry_ms: &Samples, traced_ms: &Samples) {
    let ratio = traced_ms.median() / entry_ms.median();
    rep.set("obs.trace_overhead", ratio);
    rep.line(format!(
        "  trace overhead {ratio:.4}x (traced median {:.3} ms, untraced median {:.3} ms, n={})",
        traced_ms.median(),
        entry_ms.median(),
        traced_ms.len()
    ));
}

/// `kernel::axpy_with` throughput in MB/s at `width` bytes per call.
fn axpy_mb_s(backend: kernel::Backend, width: usize) -> f64 {
    let src: Vec<Gf256> = (0..width)
        .map(|i| Gf256::new((i * 37 + 11) as u8))
        .collect();
    let mut dst: Vec<Gf256> = (0..width).map(|i| Gf256::new((i * 13 + 5) as u8)).collect();
    let c = Gf256::new(0x53);
    let calls_per_batch = (1 << 20) / width.max(1) + 1;
    let mut calls = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.05 {
        for _ in 0..calls_per_batch {
            kernel::axpy_with(
                backend,
                black_box(&mut dst[..]),
                black_box(c),
                black_box(&src[..]),
            );
        }
        calls += calls_per_batch as u64;
    }
    black_box(&dst);
    (calls * width as u64) as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// `gf.axpy_mb_s.{1k,row}` for the dispatched backend, and a readable
/// line for every available one. Runs with the recorders off.
pub fn axpy_probes(rep: &mut Report, row_width: usize) {
    let active = kernel::active_backend();
    for backend in kernel::available_backends() {
        let (k, row) = (axpy_mb_s(backend, 1024), axpy_mb_s(backend, row_width));
        rep.line(format!(
            "  axpy {:<8} 1 KiB {k:>10.1} MB/s   row ({row_width} B) {row:>10.1} MB/s{}",
            backend.name(),
            if backend == active {
                "   (dispatched)"
            } else {
                ""
            }
        ));
        if backend == active {
            rep.set("gf.axpy_mb_s.1k", k);
            rep.set("gf.axpy_mb_s.row", row);
        }
    }
}
