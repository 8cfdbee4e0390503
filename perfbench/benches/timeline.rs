//! `timeline_1m`: the N = 10^6 persistence timeline users run with
//! `prlc sim --epochs`. It is the `BENCH_timeline` configuration at
//! `nodes = 10^6` on one worker: overlay upkeep (ring build, churn and
//! re-stabilisation) dominates and elimination does almost nothing.
//!
//! One iteration runs the entry point twice on the same seed: once with
//! no churn epochs (ring build, pre-distribution and one decode: the
//! cost of storing) and once with all eight epochs (a whole run). Both
//! runs build the ring, because every `prlc sim` run pays for it.

use std::time::Instant;

use prlc_core::{
    CoeffRep, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme,
};
use prlc_gf::Gf256;
use prlc_net::{
    predistribute_with_faults, refresh_with_faults, Deployment, FaultPlan, Network, ProtocolConfig,
    RefreshConfig, RetryPolicy, RingNetwork, SourceFanout,
};
use prlc_sim::{
    run_seed, simulate_persistence_timeline_with_threads, splitmix64, summarize_trajectories,
    Summary, TimelineConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::countrng::CountingRng;
use crate::harness::{repeat_setup, same_summaries, timed, Args, Report, Samples};
use crate::layers::{self, LayerTimes};

/// The first iterations, whose levels after every churn epoch make the
/// `levels` metric (averaged over epochs so that one run's dip moves it
/// less than a single final-epoch reading would).
const OUTCOME_ITERS: usize = 10;
/// Decoder row width: the profile's 2 + 3 + 5 source blocks.
const ROW_WIDTH: usize = 10;

pub fn config(nodes: usize, epochs: usize, seed: u64) -> Result<TimelineConfig, String> {
    let profile = PriorityProfile::new(vec![2, 3, 5]).map_err(|e| e.to_string())?;
    Ok(TimelineConfig {
        scheme: Scheme::Plc,
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        profile,
        nodes,
        locations: 80,
        churn_per_epoch: 0.15,
        epochs,
        repair_donors: Some(3),
        faults: FaultPlan::lossy(0.1, RetryPolicy::with_retries(2, 1), 42),
        fanout: SourceFanout::Log { factor: 2.0 },
        coeff_rep: CoeffRep::Sparse,
        runs: 1,
        seed,
    })
}

const NODES: usize = 1_000_000;
const EPOCHS: usize = 8;

/// Checks the shape and range of a timeline result.
fn check(s: &[Summary], cfg: &TimelineConfig) -> Result<(), String> {
    let levels = cfg.profile.num_levels() as f64;
    if s.len() != cfg.epochs + 1 {
        return Err(format!(
            "{} epochs reported, expected {}",
            s.len(),
            cfg.epochs + 1
        ));
    }
    if let Some(bad) = s.iter().find(|x| !(0.0..=levels).contains(&x.mean)) {
        return Err(format!("levels {} outside 0..={levels}", bad.mean));
    }
    Ok(())
}

/// Per-layer tallies of the traced replica, summed over iterations.
#[derive(Debug, Default)]
pub struct NetLayers {
    pub ring_build_ms: f64,
    pub churn_ms: f64,
    pub predistribute_ms: f64,
    pub refresh_ms: f64,
    pub decode_levels_ms: f64,
    pub run_ms: f64,
    pub draws_build: u64,
    pub draws_churn: u64,
}

/// `decodable_levels` of `prlc_sim::timeline`: every surviving block
/// offered to a fresh coefficient-only decoder.
fn decodable_levels(net: &RingNetwork, dep: &Deployment<Gf256>, cfg: &TimelineConfig) -> usize {
    let mut dec: PlcDecoder<Gf256, ()> = PlcDecoder::coefficients_only(cfg.profile.clone());
    for i in dep.surviving_slots(net) {
        let slot = &dep.slots()[i];
        if !slot.block.is_empty() {
            dec.insert_block(&slot.block);
        }
    }
    dec.decoded_levels()
}

/// One run of `simulate_persistence_timeline_with_threads` re-driven
/// through the network layer's public functions, on a counting wrapper
/// of the run's generator, timing every call. Returns the per-epoch
/// levels.
pub fn replica_run(
    cfg: &TimelineConfig,
    seed: u64,
    l: &mut NetLayers,
) -> Result<Vec<f64>, prlc_net::ProtocolError> {
    assert_eq!(
        cfg.scheme,
        Scheme::Plc,
        "the replica decodes with the PLC decoder"
    );
    let t_run = Instant::now();
    let mut rng = CountingRng::new(StdRng::seed_from_u64(seed));
    let mut out = Vec::with_capacity(cfg.epochs + 1);

    let (mut net, ms) = timed(|| RingNetwork::new(cfg.nodes, &mut rng));
    l.ring_build_ms += ms;
    l.draws_build += rng.draws();
    let sources: Vec<Vec<Gf256>> = vec![Vec::new(); cfg.profile.total_blocks()];
    let mut plan = cfg.faults.clone();
    plan.seed = splitmix64(seed ^ plan.seed);
    let mut session = plan.session(cfg.nodes);
    let pcfg = ProtocolConfig {
        scheme: cfg.scheme,
        profile: cfg.profile.clone(),
        distribution: cfg.distribution.clone(),
        locations: cfg.locations,
        fanout: cfg.fanout,
        coeff_rep: cfg.coeff_rep,
        two_choices: true,
        node_capacity: None,
        shared_seed: seed,
    };
    let (dep, ms) =
        timed(|| predistribute_with_faults(&net, &pcfg, &sources, &mut session, &mut rng));
    l.predistribute_ms += ms;
    let mut dep = dep?;
    let (levels, ms) = timed(|| decodable_levels(&net, &dep, cfg));
    l.decode_levels_ms += ms;
    out.push(levels as f64);
    for _ in 1..=cfg.epochs {
        let before = rng.draws();
        let (_, ms) = timed(|| net.fail_uniform(cfg.churn_per_epoch, &mut rng));
        l.churn_ms += ms;
        l.draws_churn += rng.draws() - before;
        if net.alive_count() == 0 {
            out.push(0.0);
            continue;
        }
        if let Some(donors) = cfg.repair_donors {
            let rcfg = RefreshConfig {
                scheme: cfg.scheme,
                donors_per_slot: donors,
            };
            let (_, ms) =
                timed(|| refresh_with_faults(&net, &mut dep, &rcfg, &mut session, &mut rng));
            l.refresh_ms += ms;
        }
        let (levels, ms) = timed(|| decodable_levels(&net, &dep, cfg));
        l.decode_levels_ms += ms;
        out.push(levels as f64);
    }
    while out.len() < cfg.epochs + 1 {
        out.push(0.0);
    }
    l.run_ms += t_run.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

/// The replica for a whole config: run `i` on the runner's split seed
/// `run_seed(cfg.seed, i)`, summarised like the entry point.
pub fn replica(cfg: &TimelineConfig, l: &mut NetLayers) -> Result<Vec<Summary>, String> {
    let runs = (0..cfg.runs)
        .map(|i| replica_run(cfg, run_seed(cfg.seed, i), l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(summarize_trajectories(&runs))
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    // Set-up: the configs, and a small run of the entry point that
    // finishes the program's lazy initialisation.
    let ((deploy_cfg, full_cfg), setup_s) = repeat_setup(9, || {
        let probe = config(20_000, 1, args.seed)?;
        simulate_persistence_timeline_with_threads::<Gf256>(&probe, 1)
            .map_err(|e| e.to_string())?;
        Ok((
            config(NODES, 0, args.seed)?,
            config(NODES, EPOCHS, args.seed)?,
        ))
    })?;
    rep.set("setup_s", setup_s);
    rep.line(format!(
        "timeline_1m: N={NODES}, PLC [2,3,5], {} locations, {EPOCHS} epochs, churn {}, \
         {} repair donors, loss 0.1, 2 retries, log:2 fanout, sparse rows, 1 worker",
        full_cfg.locations,
        full_cfg.churn_per_epoch,
        full_cfg.repair_donors.unwrap_or(0)
    ));
    let at = |cfg: &TimelineConfig, i: usize| TimelineConfig {
        seed: run_seed(args.seed, i),
        ..cfg.clone()
    };

    if args.trace {
        let mut entry_ms = Samples::default();
        let mut traced_ms = Samples::default();
        let mut l = NetLayers::default();
        prlc_obs::reset();
        let start = Instant::now();
        let mut i = 0;
        while args.keep_going(start, i, 1) {
            let cfg = at(&full_cfg, i);
            prlc_obs::disable();
            let (entry, ms) =
                timed(|| simulate_persistence_timeline_with_threads::<Gf256>(&cfg, 1));
            entry_ms.push(ms);
            prlc_obs::enable();
            let (traced, ms) = timed(|| replica(&cfg, &mut l));
            prlc_obs::disable();
            traced_ms.push(ms);
            rep.check(
                "traced replica",
                match (entry, traced) {
                    (Ok(e), Ok(t)) if same_summaries(&e, &t) => check(&e, &cfg),
                    (Ok(e), Ok(t)) => Err(format!("replica {t:?} differs from entry {e:?}")),
                    (Err(e), _) => Err(e.to_string()),
                    (_, Err(e)) => Err(e),
                },
            );
            i += 1;
        }
        let iters = i as f64;
        layers::counters(rep, &prlc_obs::snapshot(), iters);
        LayerTimes {
            traced_ms: l.run_ms / iters,
            parts: vec![
                ("net.ring_build_ms", l.ring_build_ms / iters),
                ("net.churn_ms", l.churn_ms / iters),
                ("net.predistribute_ms", l.predistribute_ms / iters),
                ("net.refresh_ms", l.refresh_ms / iters),
                ("sim.decode_levels_ms", l.decode_levels_ms / iters),
            ],
        }
        .report(rep);
        rep.set("sim.run_ms", l.run_ms / iters);
        rep.set("net.rng_draws.build", l.draws_build as f64 / iters);
        rep.set("net.rng_draws.churn", l.draws_churn as f64 / iters);
        layers::overhead(rep, &entry_ms, &traced_ms);
        layers::axpy_probes(rep, ROW_WIDTH);
        return Ok(());
    }

    let (mut deploy, mut full, mut op) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut final_levels, mut epoch_levels) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while args.keep_going(start, i, OUTCOME_ITERS) {
        let (dcfg, fcfg) = (at(&deploy_cfg, i), at(&full_cfg, i));
        let (d, d_ms) = timed(|| simulate_persistence_timeline_with_threads::<Gf256>(&dcfg, 1));
        let (f, f_ms) = timed(|| simulate_persistence_timeline_with_threads::<Gf256>(&fcfg, 1));
        deploy.push(d_ms);
        full.push(f_ms);
        op.push(d_ms + f_ms);
        let d = d
            .map_err(|e| e.to_string())
            .and_then(|d| check(&d, &dcfg).map(|()| d));
        let f = f
            .map_err(|e| e.to_string())
            .and_then(|f| check(&f, &fcfg).map(|()| f));
        if i < OUTCOME_ITERS {
            if let Ok(f) = &f {
                final_levels.push(f[EPOCHS].mean);
                epoch_levels.extend(f[1..].iter().map(|s| s.mean));
            }
        }
        rep.check("deploy run", d.as_ref().map(|_| ()).map_err(Clone::clone));
        rep.check(
            "timeline run",
            match (&d, &f) {
                // Same seed, same ring and placement: epoch 0 agrees.
                (Ok(d), Ok(f)) if d[0].mean.to_bits() != f[0].mean.to_bits() => Err(format!(
                    "epoch-0 levels {} differ from the deploy run's {}",
                    f[0].mean, d[0].mean
                )),
                (_, Ok(_)) => Ok(()),
                (_, Err(e)) => Err(e.clone()),
            },
        );
        i += 1;
    }
    rep.timing("deploy run (stage1_ms)", Some("stage1_ms"), "ms", &deploy);
    rep.timing("timeline run (stage2_ms)", Some("stage2_ms"), "ms", &full);
    rep.timing("iteration (op_ms)", Some("op_ms"), "ms", &op);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    rep.set("levels", mean(&epoch_levels));
    rep.line(format!(
        "  timeline_run_ms    {:>10.3} ms     lower",
        full.median()
    ));
    rep.line(format!(
        "  final_levels       {:>10.3} levels higher (of 3; {:.4} over all epochs)",
        mean(&final_levels),
        mean(&epoch_levels)
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wrapping the run's generator in the counting adapter and calling
    /// the layers one by one reproduces the entry point exactly.
    #[test]
    fn counting_replica_is_byte_identical() {
        for seed in [1, 2, 3] {
            let mut cfg = config(3_000, 4, seed).unwrap();
            cfg.runs = 3;
            let entry = simulate_persistence_timeline_with_threads::<Gf256>(&cfg, 1).unwrap();
            let mut l = NetLayers::default();
            let traced = replica(&cfg, &mut l).unwrap();
            assert!(
                same_summaries(&entry, &traced),
                "seed {seed}: {entry:?} vs {traced:?}"
            );
            assert_eq!(
                prlc_sim::timeline_results_json(&entry),
                prlc_sim::timeline_results_json(&traced)
            );
            assert!(l.draws_build >= 3_000 * 3 && l.draws_churn > 0);
        }
    }
}
