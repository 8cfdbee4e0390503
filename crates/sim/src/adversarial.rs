//! Decoding-curve degradation under structured adversaries — the A10
//! ablation family.
//!
//! Every other experiment stresses the codes with iid loss and iid
//! churn. This sweep mounts one of the four [`AdversaryStrategy`]
//! attacks on a deployed overlay and measures, epoch by epoch, how many
//! priority levels a collector still decodes *through the faulted
//! transport* (not omniscient: an eclipsed or crashed cache really is
//! out of reach). Optional background churn plus repair run alongside,
//! so strategies that evade repair — slow compromise keeps its victims
//! alive in the overlay, where the repair pass cannot see them and
//! keeps placing fresh blocks onto them — show their differentiated
//! damage.

use prlc_core::{PriorityDecoder, SchemeDecoder};
use prlc_gf::GfElem;
use prlc_net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, Adversary, AdversaryPlan,
    CollectionConfig, Deployment, FaultSession, Network, NodeId, RefreshConfig, RingNetwork,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{default_threads, run_parallel_with_threads, splitmix64};
use crate::stats::{summarize_trajectories, Summary};
use crate::timeline::TimelineConfig;

/// Configuration of an adversary sweep: a persistence timeline with an
/// attack mounted on it.
///
/// The timeline's `epochs` are simulated after the attack is armed:
/// crash strikes fire at the first attempt boundary of epoch 1, and
/// creep corrupts more nodes every epoch. Its `churn_per_epoch` is
/// background overlay churn (`0.0` isolates the adversary's own damage);
/// unlike adversary strikes, overlay churn is *visible* to the repair
/// pass.
#[derive(Debug, Clone)]
pub struct AdversarySweepConfig {
    /// The deployment, its upkeep and the runs.
    pub timeline: TimelineConfig,
    /// The attack to mount. Each run re-seeds a copy of this plan
    /// (domain-separated by run seed), mirroring the fault plan.
    pub adversary: AdversaryPlan,
}

/// Decoding state after one epoch, aggregated over the runs.
#[derive(Debug, Clone)]
pub struct AdversaryEpoch {
    /// Epoch index (`0` is after predistribution, before the attack).
    pub epoch: usize,
    /// Priority levels the collector decoded through the faulted
    /// transport.
    pub decoded_levels: Summary,
    /// Per-level survival frequency: entry `k` is the fraction of runs
    /// in which level `k + 1` was decodable this epoch.
    pub level_survival: Vec<f64>,
}

/// Runs the adversary sweep on the runner's default worker count. See
/// [`simulate_adversary_sweep_with_threads`].
pub fn simulate_adversary_sweep<F: GfElem>(cfg: &AdversarySweepConfig) -> Vec<AdversaryEpoch> {
    simulate_adversary_sweep_with_threads::<F>(cfg, default_threads())
}

/// [`simulate_adversary_sweep`] with an explicit worker count. Results
/// are bit-identical across `threads` (each run is seeded by index).
///
/// Per run: predistribute on a fresh ring through a shared fault
/// session, measure the epoch-0 baseline by collecting from a random
/// collector, arm the adversary (topology strategies against the ring
/// and collector, the adaptive strategy against slot observations),
/// then per epoch: advance creep, fire due strikes, apply background
/// churn, optionally repair, and collect again with a fresh decoder.
/// A run in which the adversary takes the collector itself down scores
/// zero decoded levels — killing the collector is legitimate success.
pub fn simulate_adversary_sweep_with_threads<F: GfElem>(
    cfg: &AdversarySweepConfig,
    threads: usize,
) -> Vec<AdversaryEpoch> {
    let t = &cfg.timeline;
    let levels = t.profile.num_levels();
    let fields = 1 + levels;
    let trajectories =
        run_parallel_with_threads(t.runs, t.seed, threads, |seed| one_run::<F>(cfg, seed));
    let summaries = summarize_trajectories(&trajectories);
    (0..=t.epochs)
        .map(|epoch| {
            let base = epoch * fields;
            AdversaryEpoch {
                epoch,
                decoded_levels: summaries[base],
                level_survival: (0..levels).map(|k| summaries[base + 1 + k].mean).collect(),
            }
        })
        .collect()
}

fn one_run<F: GfElem>(cfg: &AdversarySweepConfig, seed: u64) -> Vec<f64> {
    let t = &cfg.timeline;
    let fields = 1 + t.profile.num_levels();
    let mut out = Vec::with_capacity((t.epochs + 1) * fields);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(t.nodes, &mut rng);
    let sources: Vec<Vec<F>> = vec![Vec::new(); t.profile.total_blocks()];

    // One fault session per run, on one message-step clock; the fault
    // and adversary plans are both re-seeded per run (domain-separated
    // from the run seed) so realisations differ across runs but stay
    // pinned to the base seed.
    let mut plan = t.faults.clone();
    plan.seed = splitmix64(seed ^ plan.seed);
    let mut session = plan.session(t.nodes);
    let mut adv_plan = cfg.adversary;
    adv_plan.seed = splitmix64(seed ^ adv_plan.seed);

    let protocol = t.protocol(seed);
    let Ok(mut dep) = predistribute_with_faults(&net, &protocol, &sources, &mut session, &mut rng)
    else {
        out.resize((t.epochs + 1) * fields, 0.0);
        return out;
    };
    let Some(collector) = net.random_alive_node(&mut rng) else {
        out.resize((t.epochs + 1) * fields, 0.0);
        return out;
    };

    push_measurement::<F>(t, &net, &dep, collector, &mut session, &mut rng, &mut out);

    let mut adversary = Adversary::new(adv_plan, t.nodes);
    adversary.arm_topology(&net, collector, &mut session);
    adversary.arm_observed(&observe_deployment(&dep), &mut session);

    for _epoch in 1..=t.epochs {
        adversary.advance_epoch(&mut session);
        // Fire strikes already due at this boundary even if repair is
        // disabled and no message would otherwise cross it.
        session.advance_steps(0);
        if t.churn_per_epoch > 0.0 {
            net.fail_uniform(t.churn_per_epoch, &mut rng);
        }
        if net.alive_count() == 0 {
            out.extend(std::iter::repeat_n(0.0, fields));
            continue;
        }
        if let Some(donors) = t.repair_donors {
            prlc_net::refresh_with_faults(
                &net,
                &mut dep,
                &RefreshConfig {
                    scheme: t.scheme,
                    donors_per_slot: donors,
                },
                &mut session,
                &mut rng,
            );
        }
        push_measurement::<F>(t, &net, &dep, collector, &mut session, &mut rng, &mut out);
    }
    out
}

/// Collects from `collector` through the faulted transport with a fresh
/// coefficients-only decoder and appends `[levels, survive_1..L]` to
/// `out`. A dead or unreachable collector scores zero.
fn push_measurement<F: GfElem>(
    cfg: &TimelineConfig,
    net: &RingNetwork,
    dep: &Deployment<F>,
    collector: NodeId,
    session: &mut FaultSession,
    rng: &mut (impl Rng + ?Sized),
    out: &mut Vec<f64>,
) {
    let ccfg = CollectionConfig::default();
    let mut dec = SchemeDecoder::<F, ()>::coefficients_only(cfg.scheme, cfg.profile.clone());
    let decoded = collect_with_faults(net, dep, &mut dec, collector, &ccfg, session, rng)
        .map_or(0, |_| dec.decoded_levels());
    out.push(decoded as f64);
    for k in 1..=cfg.profile.num_levels() {
        out.push(if decoded >= k { 1.0 } else { 0.0 });
    }
}

/// Renders per-epoch results as a JSON array (the `results` payload of
/// a `BENCH_adversary.json` envelope).
pub fn adversary_results_json(epochs: &[AdversaryEpoch]) -> String {
    let rows: Vec<String> = epochs
        .iter()
        .map(|e| {
            let survival: Vec<String> =
                e.level_survival.iter().map(|s| format!("{s:.6}")).collect();
            format!(
                "{{\"epoch\":{},\"levels_mean\":{:.6},\"levels_ci95\":{:.6},\"survival\":[{}]}}",
                e.epoch,
                e.decoded_levels.mean,
                e.decoded_levels.ci95,
                survival.join(",")
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_core::{CoeffRep, PriorityDistribution, PriorityProfile, Scheme};
    use prlc_gf::Gf256;
    use prlc_net::{AdversaryStrategy, FaultPlan, SourceFanout};

    fn base(strategy: AdversaryStrategy) -> AdversarySweepConfig {
        AdversarySweepConfig {
            timeline: TimelineConfig {
                scheme: Scheme::Plc,
                profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
                distribution: PriorityDistribution::uniform(3),
                nodes: 60,
                locations: 30,
                churn_per_epoch: 0.0,
                epochs: 3,
                repair_donors: None,
                faults: FaultPlan::none(),
                fanout: SourceFanout::All,
                coeff_rep: CoeffRep::Dense,
                runs: 8,
                seed: 17,
            },
            adversary: AdversaryPlan {
                strategy,
                after_messages: 0,
                seed: 3,
            },
        }
    }

    #[test]
    fn targeted_adversary_degrades_decoding() {
        let benign = base(AdversaryStrategy::Targeted {
            kills: 0,
            focus: 1.0,
        });
        let attack = base(AdversaryStrategy::Targeted {
            kills: 20,
            focus: 1.0,
        });
        let b = simulate_adversary_sweep::<Gf256>(&benign);
        let a = simulate_adversary_sweep::<Gf256>(&attack);
        assert_eq!(a.len(), 4);
        // Same seeds: identical baseline, strictly worse under attack.
        assert_eq!(b[0].decoded_levels.mean, a[0].decoded_levels.mean);
        assert!(
            a[3].decoded_levels.mean < b[3].decoded_levels.mean,
            "attack {} vs benign {}",
            a[3].decoded_levels.mean,
            b[3].decoded_levels.mean
        );
        // Survival frequencies are monotone non-increasing in the level
        // index within every epoch.
        for e in &a {
            for k in 1..e.level_survival.len() {
                assert!(e.level_survival[k] <= e.level_survival[k - 1] + 1e-12);
            }
        }
    }

    #[test]
    fn eclipse_suppresses_collection_but_not_storage() {
        let cfg = base(AdversaryStrategy::Eclipse { loss: 1.0 });
        let out = simulate_adversary_sweep::<Gf256>(&cfg);
        // Baseline (pre-arm) decodes fine; post-arm the collector is cut
        // off from every cache but itself.
        assert!(
            out[0].decoded_levels.mean > 2.5,
            "{}",
            out[0].decoded_levels.mean
        );
        assert!(
            out[1].decoded_levels.mean < 1.0,
            "{}",
            out[1].decoded_levels.mean
        );
    }

    #[test]
    fn deterministic_across_threads() {
        let cfg = base(AdversaryStrategy::Region {
            fraction: 0.1,
            segment_len: 3,
        });
        let a = simulate_adversary_sweep_with_threads::<Gf256>(&cfg, 1);
        let b = simulate_adversary_sweep_with_threads::<Gf256>(&cfg, 4);
        assert_eq!(adversary_results_json(&a), adversary_results_json(&b));
    }
}
