//! Long-horizon persistence timelines: churn epoch after churn epoch,
//! with or without in-network repair.
//!
//! The paper evaluates survival of a *single* failure event; a deployed
//! persistence layer faces continuous churn, under which stored
//! redundancy decays geometrically. This timeline experiment quantifies
//! that decay — and how much of it the [`prlc_net::refresh()`] repair pass
//! claws back — by measuring the decodable levels after every epoch.

use prlc_core::{
    CoeffRep, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SchemeDecoder,
};
use prlc_gf::GfElem;
use prlc_net::{
    predistribute_with_faults, refresh_with_faults, FaultPlan, Network, ProtocolConfig,
    ProtocolError, RefreshConfig, RingNetwork, SourceFanout,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{default_threads, run_parallel_with_threads, splitmix64};
use crate::stats::{summarize_trajectories, Summary};

/// Configuration of a persistence timeline.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Coding scheme.
    pub scheme: Scheme,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution for the location parts.
    pub distribution: PriorityDistribution,
    /// Overlay size (ring nodes).
    pub nodes: usize,
    /// Storage locations `M`.
    pub locations: usize,
    /// Per-epoch independent node-failure probability.
    pub churn_per_epoch: f64,
    /// Number of churn epochs to simulate.
    pub epochs: usize,
    /// Donors per repaired slot; `None` disables repair.
    pub repair_donors: Option<usize>,
    /// Fault plan for the protocol sessions themselves (lossy links,
    /// retry budgets). Each run re-seeds a clone of this plan, and the
    /// predistribution plus every repair pass share one fault session,
    /// so the whole run lives on a single message-step clock.
    pub faults: FaultPlan,
    /// Source fanout of the predistribution phase. [`SourceFanout::All`]
    /// reproduces the paper's protocol; sparse fanouts keep large-N
    /// timelines affordable.
    pub fanout: SourceFanout,
    /// Coefficient-row storage for the cached blocks (dense vectors or
    /// sorted pairs). A physical-representation choice only: results
    /// are identical either way, but sparse rows keep per-block memory
    /// at `O(ln N)` under sparse fanouts instead of `O(N)`.
    pub coeff_rep: CoeffRep,
    /// Independent runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

impl TimelineConfig {
    /// The pre-distribution protocol of one run, whose coefficient
    /// generators share `shared_seed`.
    pub(crate) fn protocol(&self, shared_seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            scheme: self.scheme,
            profile: self.profile.clone(),
            distribution: self.distribution.clone(),
            locations: self.locations,
            fanout: self.fanout,
            coeff_rep: self.coeff_rep,
            two_choices: true,
            node_capacity: None,
            shared_seed,
        }
    }
}

/// Mean decodable levels after each epoch (`out[0]` is before any
/// churn; `out[e]` after epoch `e`). Runs on the runner's default
/// worker count; see [`simulate_persistence_timeline_with_threads`].
///
/// # Errors
///
/// Returns the first [`ProtocolError`] raised by any run's
/// predistribution (e.g. a config whose capacity cannot hold the
/// requested locations).
pub fn simulate_persistence_timeline<F: GfElem>(
    cfg: &TimelineConfig,
) -> Result<Vec<Summary>, ProtocolError> {
    simulate_persistence_timeline_with_threads::<F>(cfg, default_threads())
}

/// [`simulate_persistence_timeline`] with an explicit worker count.
/// Results are bit-identical across `threads` (each run is seeded by
/// index, not by schedule).
///
/// # Errors
///
/// See [`simulate_persistence_timeline`].
pub fn simulate_persistence_timeline_with_threads<F: GfElem>(
    cfg: &TimelineConfig,
    threads: usize,
) -> Result<Vec<Summary>, ProtocolError> {
    let trajectories = run_parallel_with_threads(cfg.runs, cfg.seed, threads, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(cfg.epochs + 1);

        let mut net = RingNetwork::new(cfg.nodes, &mut rng);
        let sources: Vec<Vec<F>> = vec![Vec::new(); cfg.profile.total_blocks()];
        // One fault session per run: predistribution and every repair
        // pass advance the same message-step clock, so trace spans from
        // successive sessions nest on one causal timeline. The plan seed
        // is domain-separated per run so fault realisations differ
        // across runs but stay pinned to the base seed.
        let mut plan = cfg.faults.clone();
        plan.seed = splitmix64(seed ^ plan.seed);
        let mut session = plan.session(cfg.nodes);
        let mut dep =
            predistribute_with_faults(&net, &cfg.protocol(seed), &sources, &mut session, &mut rng)?;

        let baseline = decodable_levels::<F>(&net, &dep, cfg);
        out.push(baseline as f64);
        if prlc_obs::trace::enabled() {
            prlc_obs::trace_instant!("sim.timeline.epoch", 0, levels: baseline as u64);
        }
        for epoch in 1..=cfg.epochs {
            net.fail_uniform(cfg.churn_per_epoch, &mut rng);
            if net.alive_count() == 0 {
                out.push(0.0);
                if prlc_obs::trace::enabled() {
                    prlc_obs::trace_instant!("sim.timeline.epoch", epoch as u64, levels: 0);
                }
                continue;
            }
            if let Some(donors) = cfg.repair_donors {
                refresh_with_faults(
                    &net,
                    &mut dep,
                    &RefreshConfig {
                        scheme: cfg.scheme,
                        donors_per_slot: donors,
                    },
                    &mut session,
                    &mut rng,
                );
            }
            let levels = decodable_levels::<F>(&net, &dep, cfg);
            out.push(levels as f64);
            if prlc_obs::trace::enabled() {
                prlc_obs::trace_instant!("sim.timeline.epoch", epoch as u64, levels: levels as u64);
            }
        }
        // Pad in case of early total death (keep lengths rectangular).
        while out.len() < cfg.epochs + 1 {
            out.push(0.0);
        }
        Ok(out)
    });
    let trajectories: Vec<Vec<f64>> = trajectories.into_iter().collect::<Result<_, _>>()?;
    Ok(summarize_trajectories(&trajectories))
}

/// Renders per-epoch summaries as a JSON array (the `results` payload
/// of a `BENCH_timeline.json` envelope).
pub fn timeline_results_json(summaries: &[Summary]) -> String {
    let rows: Vec<String> = summaries
        .iter()
        .enumerate()
        .map(|(epoch, s)| {
            format!(
                "{{\"epoch\":{},\"levels_mean\":{:.6},\"levels_ci95\":{:.6}}}",
                epoch, s.mean, s.ci95
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Decodable levels from the blocks currently surviving in the network
/// (an omniscient measurement: every surviving block is offered to a
/// fresh decoder).
fn decodable_levels<F: GfElem>(
    net: &RingNetwork,
    dep: &prlc_net::Deployment<F>,
    cfg: &TimelineConfig,
) -> usize {
    let mut dec = SchemeDecoder::<F, ()>::coefficients_only(cfg.scheme, cfg.profile.clone());
    for i in dep.surviving_slots(net) {
        let slot = &dep.slots()[i];
        if !slot.block.is_empty() {
            dec.insert_block(&slot.block);
        }
    }
    dec.decoded_levels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;

    fn base(repair: Option<usize>) -> TimelineConfig {
        TimelineConfig {
            scheme: Scheme::Plc,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            nodes: 50,
            locations: 30,
            churn_per_epoch: 0.2,
            epochs: 4,
            repair_donors: repair,
            faults: FaultPlan::none(),
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            runs: 8,
            seed: 5,
        }
    }

    #[test]
    fn timeline_has_expected_shape() {
        let out = simulate_persistence_timeline::<Gf256>(&base(None)).expect("timeline");
        assert_eq!(out.len(), 5);
        // Fresh deployment with 3x overhead decodes everything.
        assert!(out[0].mean > 2.5, "epoch 0: {}", out[0].mean);
        // Persistence decays (weakly) over epochs without repair.
        assert!(out[4].mean <= out[0].mean + 1e-9);
    }

    #[test]
    fn repair_improves_long_horizon_persistence() {
        let without = simulate_persistence_timeline::<Gf256>(&base(None)).expect("timeline");
        let with = simulate_persistence_timeline::<Gf256>(&base(Some(3))).expect("timeline");
        // Same seeds, same churn realisations: repair can only help.
        let last = base(None).epochs;
        assert!(
            with[last].mean >= without[last].mean,
            "repair hurt: {} vs {}",
            with[last].mean,
            without[last].mean
        );
        // And over a longer horizon it must help strictly (with high
        // probability at these sizes).
        let mut cfg = base(Some(3));
        cfg.epochs = 8;
        let long_with = simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline");
        cfg.repair_donors = None;
        let long_without = simulate_persistence_timeline::<Gf256>(&cfg).expect("timeline");
        assert!(
            long_with[8].mean > long_without[8].mean,
            "8 epochs: {} vs {}",
            long_with[8].mean,
            long_without[8].mean
        );
    }

    #[test]
    fn deterministic() {
        let a = simulate_persistence_timeline::<Gf256>(&base(Some(2))).expect("timeline");
        let b = simulate_persistence_timeline::<Gf256>(&base(Some(2))).expect("timeline");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean, y.mean);
        }
    }
}
