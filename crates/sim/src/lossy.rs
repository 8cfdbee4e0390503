//! Persistence under lossy collection: the paper's retrieval phase
//! (Sec. 2, "measured data stored at a random subset of existing nodes
//! will be retrieved for analysis") re-run over a fault-injected
//! transport.
//!
//! The decoding-curve experiments assume every surviving block reaches
//! the collector. Real sensor links drop packets; this sweep quantifies
//! how much decodable priority data a collector actually recovers when
//! each per-node query is lost with probability `loss` and retried at
//! most `retries` times ([`prlc_net::FaultPlan`] /
//! [`prlc_net::collect_with_faults`]). The grid `loss × retry budget`
//! shows both the degradation and how much of it a modest retry budget
//! buys back.

use prlc_core::{
    CoeffRep, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme, SchemeDecoder,
};
use prlc_gf::GfElem;
use prlc_net::{
    collect_with_faults, predistribute, CollectionConfig, CollectionReport, FaultPlan, Network,
    ProtocolConfig, ProtocolError, RetryPolicy, RingNetwork, SourceFanout,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::{default_threads, run_parallel_with_threads, splitmix64};
use crate::stats::{summarize_trajectories, Summary};

/// Configuration of a lossy-collection sweep. The `loss × retry` grid is
/// passed separately to [`persistence_under_lossy_collection`].
#[derive(Debug, Clone)]
pub struct LossyCollectionConfig {
    /// Coding scheme (the baselines have no networked collection path).
    pub scheme: Scheme,
    /// Level sizes.
    pub profile: PriorityProfile,
    /// Priority distribution for the location parts.
    pub distribution: PriorityDistribution,
    /// Overlay size (ring nodes).
    pub nodes: usize,
    /// Storage locations `M`.
    pub locations: usize,
    /// Independent node-failure probability applied *before* collection
    /// (the paper's failure event; link loss then hits the survivors).
    pub node_failure: f64,
    /// Extra hops charged per retransmission (the clockless stand-in for
    /// retry backoff).
    pub backoff_hops: usize,
    /// Independent runs.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
}

/// One cell of the sweep: statistics at a fixed `(loss, retries)` pair,
/// averaged over the runs. Accounting fields are per-run means taken
/// straight from [`CollectionReport`].
#[derive(Debug, Clone)]
pub struct LossyCell {
    /// Per-transmission loss probability.
    pub loss: f64,
    /// Retry budget (retransmissions allowed after the first attempt).
    pub retries: usize,
    /// Decoded priority levels at the end of collection.
    pub decoded_levels: Summary,
    /// Mean coded blocks that reached the collector.
    pub blocks_collected: f64,
    /// Mean query transmissions lost in transit.
    pub lost_messages: f64,
    /// Mean retransmissions spent.
    pub retries_spent: f64,
    /// Mean caching nodes skipped as unroutable or crashed.
    pub unreachable_nodes: f64,
    /// Mean queries abandoned after exhausting the retry budget.
    pub gave_up: f64,
    /// Mean total query hops (including retries and backoff surcharge).
    pub query_hops: f64,
}

/// The full sweep result: one [`LossyCell`] per `(loss, retries)` pair,
/// row-major with loss as the outer axis.
#[derive(Debug, Clone)]
pub struct LossySweep {
    /// The swept loss rates (outer axis).
    pub losses: Vec<f64>,
    /// The swept retry budgets (inner axis).
    pub retry_budgets: Vec<usize>,
    /// Cells in `losses × retry_budgets` row-major order.
    pub cells: Vec<LossyCell>,
}

impl LossySweep {
    /// The cell at `(loss_idx, retry_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, loss_idx: usize, retry_idx: usize) -> &LossyCell {
        &self.cells[loss_idx * self.retry_budgets.len() + retry_idx]
    }

    /// Renders the cells as a JSON array (the `results` payload of a
    /// `BENCH_*.json` envelope).
    pub fn results_json(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"loss\":{:.4},\"retries\":{},\"levels_mean\":{:.6},\
                     \"levels_ci95\":{:.6},\"blocks_collected\":{:.3},\
                     \"lost_messages\":{:.3},\"retries_spent\":{:.3},\
                     \"unreachable_nodes\":{:.3},\"gave_up\":{:.3},\
                     \"query_hops\":{:.3}}}",
                    c.loss,
                    c.retries,
                    c.decoded_levels.mean,
                    c.decoded_levels.ci95,
                    c.blocks_collected,
                    c.lost_messages,
                    c.retries_spent,
                    c.unreachable_nodes,
                    c.gave_up,
                    c.query_hops
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Per-cell values recorded by one run, in order.
const FIELDS: usize = 7;

/// Domain-separated sub-seed for loss-level `li` of the sweep grid.
/// Every retry budget at one loss rate shares a collector and visit
/// order (paired comparison) while distinct loss levels never alias;
/// the tag is registered in docs/RNG_DOMAINS.md.
fn mix_loss_seed(seed: u64, li: u64) -> u64 {
    splitmix64(seed ^ splitmix64(0x4C4F_5353 ^ li)) // "LOSS"
}

/// Runs the lossy-collection sweep with the runner's default worker
/// count. See [`persistence_under_lossy_collection_with_threads`].
pub fn persistence_under_lossy_collection<F: GfElem>(
    cfg: &LossyCollectionConfig,
    losses: &[f64],
    retry_budgets: &[usize],
) -> Result<LossySweep, ProtocolError> {
    persistence_under_lossy_collection_with_threads::<F>(
        cfg,
        losses,
        retry_budgets,
        default_threads(),
    )
}

/// Runs the sweep with an explicit worker-thread count. Results are
/// independent of `threads`.
///
/// Each run pre-distributes one deployment on a fresh ring, applies the
/// node-failure event, then collects once per grid cell through a
/// seeded [`FaultPlan::lossy`] session. Cells sharing a loss rate also
/// share the collector and visit order within a run, so retry budgets
/// are compared on paired query sequences.
///
/// # Errors
///
/// Returns the first [`ProtocolError`] raised while pre-distributing a
/// run's deployment (e.g. a configuration whose level count does not
/// match its distribution).
///
/// # Panics
///
/// Panics if any loss rate is outside `[0, 1]`.
pub fn persistence_under_lossy_collection_with_threads<F: GfElem>(
    cfg: &LossyCollectionConfig,
    losses: &[f64],
    retry_budgets: &[usize],
    threads: usize,
) -> Result<LossySweep, ProtocolError> {
    let losses = losses.to_vec();
    let retry_budgets = retry_budgets.to_vec();
    let trajectories: Vec<Result<Vec<f64>, ProtocolError>> = {
        let (losses, retry_budgets) = (losses.clone(), retry_budgets.clone());
        run_parallel_with_threads(cfg.runs, cfg.seed, threads, move |seed| {
            one_sweep_run::<F>(cfg, &losses, &retry_budgets, seed)
        })
    };
    let trajectories = trajectories.into_iter().collect::<Result<Vec<_>, _>>()?;
    let summaries = summarize_trajectories(&trajectories);

    let mut cells = Vec::with_capacity(losses.len() * retry_budgets.len());
    for (li, &loss) in losses.iter().enumerate() {
        for (ri, &retries) in retry_budgets.iter().enumerate() {
            let base = (li * retry_budgets.len() + ri) * FIELDS;
            cells.push(LossyCell {
                loss,
                retries,
                decoded_levels: summaries[base],
                blocks_collected: summaries[base + 1].mean,
                lost_messages: summaries[base + 2].mean,
                retries_spent: summaries[base + 3].mean,
                unreachable_nodes: summaries[base + 4].mean,
                gave_up: summaries[base + 5].mean,
                query_hops: summaries[base + 6].mean,
            });
        }
    }
    Ok(LossySweep {
        losses,
        retry_budgets,
        cells,
    })
}

fn one_sweep_run<F: GfElem>(
    cfg: &LossyCollectionConfig,
    losses: &[f64],
    retry_budgets: &[usize],
    seed: u64,
) -> Result<Vec<f64>, ProtocolError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(cfg.nodes, &mut rng);
    let sources: Vec<Vec<F>> = vec![Vec::new(); cfg.profile.total_blocks()];
    let dep = predistribute(
        &net,
        &ProtocolConfig {
            scheme: cfg.scheme,
            profile: cfg.profile.clone(),
            distribution: cfg.distribution.clone(),
            locations: cfg.locations,
            fanout: SourceFanout::All,
            coeff_rep: CoeffRep::Dense,
            two_choices: true,
            node_capacity: None,
            shared_seed: seed,
        },
        &sources,
        &mut rng,
    )?;
    net.fail_uniform(cfg.node_failure, &mut rng);

    let mut out = Vec::with_capacity(losses.len() * retry_budgets.len() * FIELDS);
    for (li, &loss) in losses.iter().enumerate() {
        // One sub-seed per loss rate: every retry budget at this loss
        // sees the same collector and visit order (paired comparison).
        let loss_seed = mix_loss_seed(seed, li as u64);
        for &retries in retry_budgets {
            let mut cell_rng = StdRng::seed_from_u64(loss_seed);
            let Some(collector) = net.random_alive_node(&mut cell_rng) else {
                out.extend(std::iter::repeat_n(0.0, FIELDS));
                continue;
            };
            let plan = FaultPlan::lossy(
                loss,
                RetryPolicy::with_retries(retries, cfg.backoff_hops),
                loss_seed,
            );
            let mut faults = plan.session(net.node_count());
            let ccfg = CollectionConfig::default();
            let mut dec =
                SchemeDecoder::<F, ()>::coefficients_only(cfg.scheme, cfg.profile.clone());
            let report = collect_with_faults(
                &net,
                &dep,
                &mut dec,
                collector,
                &ccfg,
                &mut faults,
                &mut cell_rng,
            )
            .map(|r| (r, dec.decoded_levels()));
            let (report, levels) = report.unwrap_or((CollectionReport::default(), 0));
            out.push(levels as f64);
            out.push(report.blocks_collected as f64);
            out.push(report.lost_messages as f64);
            out.push(report.retries as f64);
            out.push(report.unreachable_nodes as f64);
            out.push(report.gave_up as f64);
            out.push(report.query_hops as f64);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prlc_gf::Gf256;

    fn base() -> LossyCollectionConfig {
        LossyCollectionConfig {
            scheme: Scheme::Plc,
            profile: PriorityProfile::new(vec![2, 3, 5]).unwrap(),
            distribution: PriorityDistribution::uniform(3),
            nodes: 80,
            locations: 40,
            node_failure: 0.2,
            backoff_hops: 1,
            runs: 12,
            seed: 11,
        }
    }

    #[test]
    fn sweep_has_grid_shape_and_indexing() {
        let sweep = persistence_under_lossy_collection::<Gf256>(&base(), &[0.0, 0.5], &[0, 2])
            .expect("sweep");
        assert_eq!(sweep.cells.len(), 4);
        assert_eq!(sweep.cell(1, 0).loss, 0.5);
        assert_eq!(sweep.cell(1, 0).retries, 0);
        assert_eq!(sweep.cell(0, 1).loss, 0.0);
        assert_eq!(sweep.cell(0, 1).retries, 2);
    }

    #[test]
    fn zero_loss_matches_fault_free_collection() {
        let sweep =
            persistence_under_lossy_collection::<Gf256>(&base(), &[0.0], &[0]).expect("sweep");
        let cell = sweep.cell(0, 0);
        // 4x overhead and mild node failure: everything decodes, and the
        // fault layer reports a silent transport.
        assert!(
            cell.decoded_levels.mean > 2.5,
            "{}",
            cell.decoded_levels.mean
        );
        assert_eq!(cell.lost_messages, 0.0);
        assert_eq!(cell.retries_spent, 0.0);
        assert_eq!(cell.gave_up, 0.0);
        assert_eq!(cell.unreachable_nodes, 0.0);
    }

    #[test]
    fn loss_degrades_and_retries_recover() {
        // The acceptance criterion of the fault-injection PR: nonzero
        // loss measurably hurts decoded levels, and a retry budget buys
        // a measurable part of them back.
        let mut cfg = base();
        cfg.runs = 20;
        let sweep =
            persistence_under_lossy_collection::<Gf256>(&cfg, &[0.0, 0.6], &[0, 4]).expect("sweep");
        let clean = sweep.cell(0, 0).decoded_levels.mean;
        let lossy = sweep.cell(1, 0).decoded_levels.mean;
        let retried = sweep.cell(1, 1).decoded_levels.mean;
        assert!(
            lossy < clean - 0.3,
            "loss did not degrade: {lossy} vs {clean}"
        );
        assert!(
            retried > lossy + 0.3,
            "retries did not recover: {retried} vs {lossy}"
        );
        // Accounting: the lossy cells actually lost traffic, and the
        // retried cell spent retransmissions.
        assert!(sweep.cell(1, 0).lost_messages > 0.0);
        assert!(sweep.cell(1, 1).retries_spent > 0.0);
        assert!(sweep.cell(1, 0).gave_up > 0.0);
        assert_eq!(sweep.cell(1, 0).retries_spent, 0.0);
    }

    #[test]
    fn deterministic_and_thread_independent() {
        let cfg = base();
        let a = persistence_under_lossy_collection_with_threads::<Gf256>(&cfg, &[0.3], &[1], 1)
            .expect("sweep");
        let b = persistence_under_lossy_collection_with_threads::<Gf256>(&cfg, &[0.3], &[1], 4)
            .expect("sweep");
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.decoded_levels.mean, y.decoded_levels.mean);
            assert_eq!(x.query_hops, y.query_hops);
        }
    }

    #[test]
    fn results_json_is_well_formed() {
        let sweep =
            persistence_under_lossy_collection::<Gf256>(&base(), &[0.0, 0.4], &[1]).expect("sweep");
        let json = sweep.results_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"loss\":").count(), 2);
        assert!(json.contains("\"retries\":1"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
