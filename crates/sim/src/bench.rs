//! The `prlc bench` probe suite: canonical pinned-seed workloads whose
//! envelopes are committed at the repository root as `BENCH_<probe>.json`
//! baselines and re-checked by `prlc bench --check` (the differ lives in
//! [`prlc_obs::baseline`]).
//!
//! Five probes cover the claims the paper makes quantitatively:
//!
//! * `kernel` — GF(2⁸) `axpy` throughput per backend (scalar, table,
//!   and whatever the dispatcher picks). Purely environmental.
//! * `lossy` — the collection sweep over loss × retry budgets
//!   (the trace-determinism CI workload, widened to a 2×2 grid).
//! * `timeline` — the fault-injected, churned, repaired `N = 10^5`
//!   persistence timeline with `O(ln N)` fanout and sparse rows (the
//!   large-n-smoke CI workload).
//! * `adversary` — the targeted cache-killer sweep at `N = 10^4`
//!   (the adversary-smoke CI workload).
//! * `sparse` — per-row coefficient memory vs `ln N` on the encoder
//!   path, with the generator's end state pinned.
//!
//! Every probe resets the global recorders through
//! [`run_probe_and_reset`] — the same helper `prlc sim` uses — so its
//! metrics block reflects only the probe's own deterministic work. The
//! block is [`prlc_obs::Snapshot::to_deterministic_json`], the layout
//! `prlc sim --metrics` writes: no span timers (wall-clock), and backend
//! byte counters merged so envelopes agree across `PRLC_KERNEL` settings.

use prlc_core::{Encoder, PriorityDistribution, PriorityProfile, Scheme};
use prlc_gf::{kernel, Gf256};
use prlc_net::{AdversaryPlan, AdversaryStrategy, CoeffRep, FaultPlan, RetryPolicy, SourceFanout};
use prlc_obs::baseline::digest64;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::metadata::{
    json_measurement, measure_symbol_throughput_mb_s, measure_symbol_throughput_mb_s_with,
    measure_wall_ms, run_probe_and_reset, Envelope, RunMetadata,
};
use crate::{
    adversary_results_json, persistence_under_lossy_collection_with_threads,
    simulate_adversary_sweep_with_threads, simulate_persistence_timeline_with_threads,
    timeline_results_json, AdversarySweepConfig, LossyCollectionConfig, TimelineConfig,
};

/// The canonical probe names, in suite order.
pub const BENCH_PROBES: &[&str] = &["kernel", "lossy", "timeline", "adversary", "sparse"];

/// The committed baseline file for a probe: `BENCH_<probe>.json` at the
/// repository root.
pub fn bench_file_name(probe: &str) -> String {
    format!("BENCH_{probe}.json")
}

/// Runs one probe on `threads` workers and returns its envelope as one
/// JSON document (a trailing newline, matching the `--bench-out`
/// writers).
///
/// # Errors
///
/// Returns `Err` for an unknown probe name or a probe-level simulation
/// failure.
pub fn run_bench_probe(probe: &str, threads: usize) -> Result<String, String> {
    match probe {
        "kernel" => Ok(probe_kernel(threads)),
        "lossy" => probe_lossy(threads),
        "timeline" => probe_timeline(threads),
        "adversary" => probe_adversary(threads),
        "sparse" => probe_sparse(threads),
        other => Err(format!(
            "unknown probe {other:?} (want one of {})",
            BENCH_PROBES.join(", ")
        )),
    }
}

// ---------------------------------------------------------------------------
// Envelope assembly
// ---------------------------------------------------------------------------

/// A simulation probe's envelope: the recorders' blocks taken now (a
/// metrics block and a trace digest, per enabled recorder), the `sim.run`
/// timer folded into `meta`, and the probe's own fields.
fn probe_envelope(
    mut meta: RunMetadata,
    probe: &str,
    config: &str,
    results: &str,
    rng_end_state: Option<&str>,
    wall_ms: f64,
) -> String {
    let metrics = prlc_obs::enabled().then(|| prlc_obs::snapshot().to_deterministic_json());
    let trace_digest =
        prlc_obs::trace::enabled().then(|| digest64(&prlc_obs::trace::snapshot().to_json()));
    meta.aggregate_obs_timing();
    meta.envelope(&Envelope {
        probe: Some(probe),
        config: Some(config),
        metrics: metrics.as_deref(),
        trace_digest: trace_digest.as_deref(),
        results,
        rng_end_state,
        wall_ms: Some(wall_ms),
        ..Envelope::default()
    })
}

// ---------------------------------------------------------------------------
// The probes
// ---------------------------------------------------------------------------

/// The pinned `[2,3,5]` PLC code every simulation probe runs on. The
/// level sizes are compile-time constants, so the only way this errs is
/// a future regression in `PriorityProfile::new` — propagated, per the
/// workspace panic-hygiene rule, rather than asserted.
fn plc_profile() -> Result<(PriorityProfile, PriorityDistribution), String> {
    let profile =
        PriorityProfile::new(vec![2, 3, 5]).map_err(|e| format!("pinned [2,3,5] profile: {e}"))?;
    let distribution = PriorityDistribution::uniform(profile.num_levels());
    Ok((profile, distribution))
}

/// GF(2⁸) `axpy` throughput on 64 KiB slices: one row per fixed backend
/// plus a `dispatched` row labelled with what the dispatcher picked.
/// Entirely environmental — no metrics/trace blocks (the iteration
/// counts are wall-clock-bounded and could never match a baseline).
fn probe_kernel(threads: usize) -> String {
    let mut meta = run_probe_and_reset(threads);
    let (rows, wall_ms) = measure_wall_ms(|| {
        let mut rows = Vec::new();
        for backend in [kernel::Backend::Scalar, kernel::Backend::Table] {
            let mb_s = measure_symbol_throughput_mb_s_with(backend);
            rows.push(format!(
                "{{\"backend\":\"{}\",\"mb_s\":{}}}",
                backend.name(),
                json_measurement(mb_s)
            ));
        }
        rows.push(format!(
            "{{\"backend\":\"dispatched\",\"description\":\"{}\",\"mb_s\":{}}}",
            kernel::active_backend_description(),
            json_measurement(measure_symbol_throughput_mb_s())
        ));
        rows
    });
    // The probe's own kernel loops polluted the recorders; clear them so
    // a stale state never leaks into a later probe even if the suite
    // order changes.
    let _ = run_probe_and_reset(threads);
    meta.aggregate_obs_timing();
    meta.envelope(&Envelope {
        probe: Some("kernel"),
        config: Some("{\"slice_len\":65536,\"budget_ms\":20}"),
        results: &format!("[{}]", rows.join(",")),
        wall_ms: Some(wall_ms),
        ..Envelope::default()
    })
}

/// The lossy-collection sweep: the trace-determinism CI workload
/// (`--scheme plc --loss 0.3 --retries 2 --runs 40 --seed 7`) widened to
/// a loss × retry grid.
fn probe_lossy(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let cfg = LossyCollectionConfig {
        scheme: Scheme::Plc,
        profile,
        distribution,
        nodes: 80,
        locations: 40,
        node_failure: 0.3,
        backoff_hops: 1,
        runs: 40,
        seed: 7,
    };
    let losses = [0.0, 0.3];
    let retries = [0usize, 2];
    let meta = run_probe_and_reset(threads);
    let (sweep, wall_ms) = measure_wall_ms(|| {
        persistence_under_lossy_collection_with_threads::<Gf256>(&cfg, &losses, &retries, threads)
    });
    let sweep = sweep.map_err(|e| format!("lossy probe: {e}"))?;
    Ok(probe_envelope(
        meta,
        "lossy",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":80,\
         \"locations\":40,\"node_failure\":0.3,\"backoff_hops\":1,\
         \"runs\":40,\"seed\":7,\"losses\":[0.0,0.3],\"retry_budgets\":[0,2]}",
        &sweep.results_json(),
        None,
        wall_ms,
    ))
}

/// The `N = 10^5` persistence timeline with `O(ln N)` fanout and sparse
/// coefficient rows — the large-n-smoke CI workload.
fn probe_timeline(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let cfg = TimelineConfig {
        scheme: Scheme::Plc,
        profile,
        distribution,
        nodes: 100_000,
        locations: 80,
        churn_per_epoch: 0.15,
        epochs: 8,
        repair_donors: Some(3),
        faults: FaultPlan::lossy(0.1, RetryPolicy::with_retries(2, 1), 42),
        fanout: SourceFanout::Log { factor: 2.0 },
        coeff_rep: CoeffRep::Sparse,
        runs: 20,
        seed: 42,
    };
    let meta = run_probe_and_reset(threads);
    let (summaries, wall_ms) =
        measure_wall_ms(|| simulate_persistence_timeline_with_threads::<Gf256>(&cfg, threads));
    let summaries = summaries.map_err(|e| format!("timeline probe: {e}"))?;
    Ok(probe_envelope(
        meta,
        "timeline",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":100000,\
         \"locations\":80,\"churn_per_epoch\":0.15,\"epochs\":8,\
         \"repair_donors\":3,\"loss\":0.1,\"retry_budget\":2,\
         \"fanout\":\"log:2\",\"coeff_rep\":\"sparse\",\
         \"runs\":20,\"seed\":42}",
        &timeline_results_json(&summaries),
        None,
        wall_ms,
    ))
}

/// The targeted cache-killer sweep at `N = 10^4` — the adversary-smoke
/// CI workload.
fn probe_adversary(threads: usize) -> Result<String, String> {
    let (profile, distribution) = plc_profile()?;
    let cfg = AdversarySweepConfig {
        timeline: TimelineConfig {
            scheme: Scheme::Plc,
            profile,
            distribution,
            nodes: 10_000,
            locations: 200,
            churn_per_epoch: 0.0,
            epochs: 2,
            repair_donors: None,
            faults: FaultPlan::none(),
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            runs: 10,
            seed: 42,
        },
        adversary: AdversaryPlan {
            strategy: AdversaryStrategy::Targeted {
                kills: 192,
                focus: 1.0,
            },
            after_messages: 0,
            seed: 42,
        },
    };
    let meta = run_probe_and_reset(threads);
    let (epochs, wall_ms) =
        measure_wall_ms(|| simulate_adversary_sweep_with_threads::<Gf256>(&cfg, threads));
    Ok(probe_envelope(
        meta,
        "adversary",
        "{\"scheme\":\"plc\",\"levels\":[2,3,5],\"nodes\":10000,\
         \"locations\":200,\"adversary\":\"targeted\",\"kills\":192,\
         \"focus\":1.0,\"epochs\":2,\"churn_per_epoch\":0.0,\
         \"runs\":10,\"seed\":42}",
        &adversary_results_json(&epochs),
        None,
        wall_ms,
    ))
}

/// Per-row coefficient memory on the encoder path at
/// `N ∈ {10^3, 10^4, 10^5}`, dense vs sparse rows: integer nonzero and
/// byte totals over 50 rows each, the `bytes / ln N` ratio the paper's
/// `O(ln N)` claim rests on, and the shared generator's end state.
fn probe_sparse(threads: usize) -> Result<String, String> {
    const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
    const ROWS: usize = 50;
    const FACTOR: f64 = 2.0;
    const SEED: u64 = 0xC0DE;
    let meta = run_probe_and_reset(threads);
    let work = || -> Result<(String, String), String> {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut rows = Vec::new();
        for n in SIZES {
            let profile =
                PriorityProfile::flat(n).map_err(|e| format!("sparse probe N={n}: {e}"))?;
            for rep in [CoeffRep::Dense, CoeffRep::Sparse] {
                let enc = Encoder::sparse(Scheme::Rlc, profile.clone(), FACTOR).with_coeff_rep(rep);
                let mut nnz_total = 0usize;
                let mut bytes_total = 0usize;
                for _ in 0..ROWS {
                    let row = enc.encode_coefficients::<Gf256, _>(0, &mut rng);
                    nnz_total += row.nnz();
                    bytes_total += row.storage_bytes();
                }
                let ln_n = (n as f64).ln();
                rows.push(format!(
                    "{{\"n\":{n},\"rep\":\"{}\",\"rows\":{ROWS},\
                     \"nnz_total\":{nnz_total},\"bytes_total\":{bytes_total},\
                     \"bytes_per_row\":{:.2},\"bytes_per_row_per_ln_n\":{:.4}}}",
                    match rep {
                        CoeffRep::Dense => "dense",
                        CoeffRep::Sparse => "sparse",
                    },
                    bytes_total as f64 / ROWS as f64,
                    bytes_total as f64 / ROWS as f64 / ln_n,
                ));
            }
        }
        let end_state = format!("{:#018x}", rng.next_u64());
        Ok((format!("[{}]", rows.join(",")), end_state))
    };
    let (out, wall_ms) = measure_wall_ms(work);
    let (results_json, rng_end_state) = out?;
    let config = format!(
        "{{\"sizes\":[1000,10000,100000],\"rows_per_cell\":{ROWS},\
         \"factor\":{FACTOR},\"scheme\":\"rlc\",\"seed\":{SEED}}}"
    );
    Ok(probe_envelope(
        meta,
        "sparse",
        &config,
        &results_json,
        Some(&rng_end_state),
        wall_ms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_obs::baseline::{diff_envelopes, parse_json, Json, Tolerances};

    #[test]
    fn file_names_and_probe_list() {
        assert_eq!(bench_file_name("kernel"), "BENCH_kernel.json");
        assert_eq!(BENCH_PROBES.len(), 5);
        assert!(run_bench_probe("nope", 1).is_err());
    }

    #[test]
    fn kernel_probe_envelope_is_versioned_and_self_checks() {
        let env = run_bench_probe("kernel", 1).expect("kernel probe");
        let doc = parse_json(&env).expect("envelope parses");
        assert_eq!(
            doc.get("bench_schema_version").and_then(|v| match v {
                Json::Num(n) => Some(n.value),
                _ => None,
            }),
            Some(1.0)
        );
        assert_eq!(doc.get("probe"), Some(&Json::Str("kernel".to_string())));
        // Self-diff is clean: deterministic fields match byte-for-byte,
        // environmental fields sit at zero delta.
        let report = diff_envelopes("kernel", &env, &env, &Tolerances::default()).expect("diff");
        assert!(report.clean(), "{:?}", report.findings);
    }

    #[test]
    fn sparse_probe_is_deterministic_and_tracks_ln_n() {
        let a = run_bench_probe("sparse", 1).expect("sparse probe");
        let b = run_bench_probe("sparse", 4).expect("sparse probe");
        let report = diff_envelopes("sparse", &a, &b, &Tolerances::default()).expect("diff");
        assert!(
            report.clean(),
            "sparse probe differs across thread counts: {:?}",
            report.findings
        );
        let doc = parse_json(&a).expect("parse");
        assert!(doc.get("rng_end_state").is_some());
        // Dense rows pay O(N) bytes; sparse rows pay O(ln N). At
        // N = 10^5 the gap must be enormous.
        let results = match doc.get("results") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("bad results: {other:?}"),
        };
        let bytes = |rep: &str| -> f64 {
            results
                .iter()
                .find(|r| {
                    r.get("n")
                        .is_some_and(|n| matches!(n, Json::Num(v) if v.value == 1e5))
                        && r.get("rep") == Some(&Json::Str(rep.to_string()))
                })
                .and_then(|r| r.get("bytes_per_row"))
                .and_then(|v| match v {
                    Json::Num(n) => Some(n.value),
                    _ => None,
                })
                .expect("row present")
        };
        assert!(bytes("dense") > 50.0 * bytes("sparse"));
    }

    #[test]
    fn lossy_probe_is_thread_count_invariant() {
        let a = run_bench_probe("lossy", 1).expect("lossy probe");
        let b = run_bench_probe("lossy", 2).expect("lossy probe");
        let report = diff_envelopes("lossy", &a, &b, &Tolerances::default()).expect("diff");
        assert!(
            report.clean(),
            "lossy probe differs across thread counts: {:?}",
            report.findings
        );
    }
}
