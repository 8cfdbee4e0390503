//! `curve_fig6`: the paper's Fig. 6(a) Monte Carlo. N = 1000 source
//! blocks in 10 levels of 100, uniform distribution, 1500 coded blocks
//! per trial, dense coefficient-only rows, for PLC and for SLC on `nproc`
//! workers. Pure core/linalg/gf plus the sim runner: no I/O, no network.
//!
//! PLC runs one 1000-column elimination per trial; SLC runs ten
//! independent 100-column decoders. The two shapes use the same layers
//! differently, so a linalg change that helps one and hurts the other
//! shows up in one of the two stage metrics.

use std::time::Instant;

use prlc_analysis::curves;
use prlc_analysis::model::AnalysisOptions;
use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SlcDecoder,
};
use prlc_gf::Gf256;
use prlc_sim::{
    run_parallel_with_threads, run_seed, simulate_decoding_curve_with_threads,
    summarize_trajectories, CurveConfig, Persistence, Summary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{pool, repeat_setup, same_summaries, timed, Args, Report, Samples};
use crate::layers::{self, LayerTimes};

const LEVELS: usize = 10;
const PER_LEVEL: usize = 100;
const MAX_BLOCKS: usize = 1500;
/// Block counts at which the simulated mean is checked against the
/// analysis (the Fig. 4/5 check).
const CHECKPOINTS: [usize; 3] = [1000, 1100, 1300];
/// SLC trials are about 30 times cheaper than PLC trials; this many per
/// worker keeps the two batches of one iteration comparable in length.
const SLC_TRIALS_PER_WORKER: usize = 16;
/// The first iterations, whose PLC trials make the `levels` metric (mean
/// decoded levels over the whole curve, which varies far less between
/// seeds than any single point near the knee).
const OUTCOME_ITERS: usize = 6;
/// A pooled mean may sit this many standard errors from the analytic
/// value (a 95% interval would flag one correct run in twenty per
/// checkpoint), plus an absolute slack for the model's approximation.
const SIGMAS: f64 = 4.5;
const MODEL_SLACK: f64 = 0.02;

fn config(scheme: Scheme, runs: usize, seed: u64) -> Result<CurveConfig, String> {
    Ok(CurveConfig {
        persistence: Persistence::Coding(scheme),
        profile: PriorityProfile::uniform(LEVELS, PER_LEVEL).map_err(|e| e.to_string())?,
        distribution: PriorityDistribution::uniform(LEVELS),
        max_blocks: MAX_BLOCKS,
        runs,
        seed,
    })
}

/// Expected decoded levels at each checkpoint, from `prlc-analysis`.
fn analytic(scheme: Scheme) -> Result<Vec<f64>, String> {
    let cfg = config(scheme, 1, 0)?;
    let opts = AnalysisOptions::rank_exact(256.0);
    Ok(CHECKPOINTS
        .iter()
        .map(|&m| curves::expected_levels(scheme, &cfg.profile, &cfg.distribution, m, &opts))
        .collect())
}

/// Per-layer tallies of the traced replica.
#[derive(Debug, Default, Clone, Copy)]
struct TrialTimes {
    encode_ms: f64,
    insert_ms: f64,
    busy_ms: f64,
}

/// `one_trajectory` of `prlc_sim::experiments` with every encoder call
/// and decoder insert timed.
fn replica_trial<D: PriorityDecoder<Gf256>>(
    cfg: &CurveConfig,
    scheme: Scheme,
    mut dec: D,
    seed: u64,
) -> (Vec<f64>, TrialTimes) {
    let t0 = Instant::now();
    let mut times = TrialTimes::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let enc = Encoder::new(scheme, cfg.profile.clone());
    let mut out = Vec::with_capacity(cfg.max_blocks + 1);
    out.push(0.0);
    for _ in 0..cfg.max_blocks {
        let level = cfg.distribution.sample_level(&mut rng);
        let (block, ms) = timed(|| enc.encode_unpayloaded::<Gf256, _>(level, &mut rng));
        times.encode_ms += ms;
        let (_, ms) = timed(|| dec.insert_block(&block));
        times.insert_ms += ms;
        out.push(dec.decoded_levels() as f64);
    }
    times.busy_ms = t0.elapsed().as_secs_f64() * 1e3;
    (out, times)
}

/// The replica of one batch on the sim runner itself, so the seeds and
/// the parallel schedule are the entry point's.
fn replica_batch(cfg: &CurveConfig, scheme: Scheme, threads: usize) -> (Vec<Summary>, TrialTimes) {
    let trials = run_parallel_with_threads(cfg.runs, cfg.seed, threads, |seed| match scheme {
        Scheme::Slc => replica_trial(
            cfg,
            scheme,
            SlcDecoder::<Gf256, ()>::coefficients_only(cfg.profile.clone()),
            seed,
        ),
        _ => replica_trial(
            cfg,
            scheme,
            PlcDecoder::<Gf256, ()>::coefficients_only(cfg.profile.clone()),
            seed,
        ),
    });
    let mut total = TrialTimes::default();
    let mut trajectories = Vec::with_capacity(trials.len());
    for (traj, t) in trials {
        total.encode_ms += t.encode_ms;
        total.insert_ms += t.insert_ms;
        total.busy_ms += t.busy_ms;
        trajectories.push(traj);
    }
    (summarize_trajectories(&trajectories), total)
}

/// A curve has one point per block count, starts at 0 and never falls:
/// a trial's decoded levels only grow as blocks arrive.
fn check_shape(s: &[Summary]) -> Result<(), String> {
    if s.len() != MAX_BLOCKS + 1 || s[0].mean != 0.0 {
        return Err(format!(
            "curve of {} points starting at {}",
            s.len(),
            s[0].mean
        ));
    }
    match s
        .windows(2)
        .position(|w| w[1].mean < w[0].mean || w[1].mean > LEVELS as f64)
    {
        Some(m) => Err(format!(
            "mean levels fall or overflow after {} blocks",
            m + 1
        )),
        None => Ok(()),
    }
}

/// Pooled simulated means against the analysis at every checkpoint.
fn check_against_analysis(
    scheme: Scheme,
    batches: &[Vec<Summary>],
    expected: &[f64],
) -> (Result<(), String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut bad = Vec::new();
    for (k, (&m, &want)) in CHECKPOINTS.iter().zip(expected).enumerate() {
        let at_m: Vec<Summary> = batches.iter().map(|b| b[m]).collect();
        let (mean, ci95) = pool(&at_m);
        let tol = ci95 * SIGMAS / 1.96 + MODEL_SLACK;
        lines.push(format!(
            "  {scheme} m={m:<5} simulated {mean:.4} ± {ci95:.4} (95%, n={})   analysis {want:.4}",
            at_m.iter().map(|s| s.n).sum::<usize>()
        ));
        if mean.is_nan() || (mean - want).abs() > tol {
            bad.push(format!(
                "{scheme} checkpoint {k} (m={m}): {mean} vs {want} ± {tol}"
            ));
        }
    }
    let outcome = if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    };
    (outcome, lines)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let t = args.threads;
    let (plc_runs, slc_runs) = (t, t * SLC_TRIALS_PER_WORKER);
    // Set-up: the analytic reference values and one small entry-point
    // batch per scheme that finishes the program's lazy initialisation.
    let ((plc_expected, slc_expected), setup_s) = repeat_setup(9, || {
        for scheme in [Scheme::Plc, Scheme::Slc] {
            let small = CurveConfig {
                max_blocks: 50,
                ..config(scheme, 1, args.seed)?
            };
            simulate_decoding_curve_with_threads::<Gf256>(&small, 1);
        }
        Ok((analytic(Scheme::Plc)?, analytic(Scheme::Slc)?))
    })?;
    rep.set("setup_s", setup_s);
    rep.line(format!(
        "curve_fig6: N={} in {LEVELS}x{PER_LEVEL} levels, uniform, {MAX_BLOCKS} blocks per trial, \
         dense coefficient-only rows, {t} workers, {plc_runs} PLC + {slc_runs} SLC trials per iteration",
        LEVELS * PER_LEVEL
    ));

    let mut plc_ms = Samples::default();
    let mut slc_ms = Samples::default();
    let mut op = Samples::default();
    let mut traced_ms = Samples::default();
    let mut tt = TrialTimes::default();
    let (mut plc_batches, mut slc_batches) = (Vec::new(), Vec::new());
    if args.trace {
        prlc_obs::reset();
    }
    let start = Instant::now();
    let mut i = 0;
    let min_iters = if args.trace { 1 } else { OUTCOME_ITERS };
    while args.keep_going(start, i, min_iters) {
        let seed = run_seed(args.seed, i);
        let plc = config(Scheme::Plc, plc_runs, seed)?;
        let slc = config(Scheme::Slc, slc_runs, seed)?;
        prlc_obs::disable();
        let (p, p_ms) = timed(|| simulate_decoding_curve_with_threads::<Gf256>(&plc, t));
        let (s, s_ms) = timed(|| simulate_decoding_curve_with_threads::<Gf256>(&slc, t));
        plc_ms.push(p_ms / plc_runs as f64);
        slc_ms.push(s_ms / slc_runs as f64);
        op.push(p_ms + s_ms);
        rep.check("PLC batch", check_shape(&p.summaries));
        rep.check("SLC batch", check_shape(&s.summaries));
        if args.trace {
            prlc_obs::enable();
            let ((rp, a), ms_p) = timed(|| replica_batch(&plc, Scheme::Plc, t));
            let ((rs, b), ms_s) = timed(|| replica_batch(&slc, Scheme::Slc, t));
            prlc_obs::disable();
            traced_ms.push(ms_p + ms_s);
            tt.encode_ms += a.encode_ms + b.encode_ms;
            tt.insert_ms += a.insert_ms + b.insert_ms;
            tt.busy_ms += a.busy_ms + b.busy_ms;
            rep.check(
                "traced replica",
                if same_summaries(&p.summaries, &rp) && same_summaries(&s.summaries, &rs) {
                    Ok(())
                } else {
                    Err("replica summaries differ from the entry point's".into())
                },
            );
        }
        plc_batches.push(p.summaries);
        slc_batches.push(s.summaries);
        i += 1;
    }

    for (scheme, batches, expected) in [
        (Scheme::Plc, &plc_batches, &plc_expected),
        (Scheme::Slc, &slc_batches, &slc_expected),
    ] {
        let (outcome, lines) = check_against_analysis(scheme, batches, expected);
        for l in lines {
            rep.line(l);
        }
        rep.check(&format!("{scheme} curve vs analysis"), outcome);
    }

    if args.trace {
        let iters = i as f64;
        layers::counters(rep, &prlc_obs::snapshot(), iters);
        LayerTimes {
            traced_ms: tt.busy_ms / iters,
            parts: vec![
                ("core.encode_ms", tt.encode_ms / iters),
                ("core.decode_insert_ms", tt.insert_ms / iters),
            ],
        }
        .report(rep);
        rep.set("sim.run_ms", tt.busy_ms / iters);
        rep.set(
            "sim.runner.parallel_efficiency",
            tt.busy_ms / (t as f64 * traced_ms.sum()),
        );
        layers::overhead(rep, &op, &traced_ms);
        layers::axpy_probes(rep, LEVELS * PER_LEVEL);
        return Ok(());
    }

    rep.timing("PLC trial (stage1_ms)", Some("stage1_ms"), "ms", &plc_ms);
    rep.timing("SLC trial (stage2_ms)", Some("stage2_ms"), "ms", &slc_ms);
    rep.timing("iteration (op_ms)", Some("op_ms"), "ms", &op);
    let outcome = &plc_batches[..OUTCOME_ITERS.min(plc_batches.len())];
    let levels = (0..=MAX_BLOCKS)
        .map(|m| pool(&outcome.iter().map(|b| b[m]).collect::<Vec<_>>()).0)
        .sum::<f64>()
        / (MAX_BLOCKS + 1) as f64;
    rep.set("levels", levels);
    rep.line(format!(
        "  curve_plc_trials_per_s {:>10.3} 1/s    higher",
        1e3 / plc_ms.median()
    ));
    rep.line(format!(
        "  curve_slc_trials_per_s {:>10.3} 1/s    higher",
        1e3 / slc_ms.median()
    ));
    rep.line(format!(
        "  PLC mean levels over the curve {levels:>8.4} levels higher (of {LEVELS})"
    ));
    Ok(())
}
