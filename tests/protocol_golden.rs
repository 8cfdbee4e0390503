//! Golden gate of the protocol sessions.
//!
//! Runs one pinned-seed pipeline — deploy, churn, repair, collect —
//! through the public faulty entry points (`predistribute_with_faults`,
//! `refresh_with_faults`, `collect_with_faults`) and checks every
//! observable output against a recorded golden: reports, storage slots,
//! the deterministic metrics snapshot, the full trace dump, the decoded
//! level count and the caller's RNG end state. Any change in operation
//! order, RNG consumption or observability emission shows up here.
//!
//! Strings are pinned as FNV-1a digests (`prlc::obs::baseline::fnv1a`);
//! the decoded level count and the RNG end state are pinned raw. The
//! goldens hold under every kernel backend and thread count: the
//! metrics field is the residue-free, backend-merged form that bench
//! envelopes carry (`prlc::obs::Snapshot::to_deterministic_json`).

use prlc::net::{
    collect_with_faults, observe_deployment, predistribute_with_faults, refresh_with_faults,
    Adversary, AdversaryPlan, AdversaryStrategy, ChurnEvent, CollectionConfig, FaultPlan,
    LinkModel, Network, NodeId, ProtocolConfig, RefreshConfig, RetryPolicy, RingNetwork,
    SourceFanout,
};
use prlc::obs;
use prlc::obs::baseline::fnv1a;
use prlc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// The obs registry and tracer are process-global; runs that reset and
/// snapshot them must not interleave.
static GUARD: Mutex<()> = Mutex::new(());

/// Everything observable about one pipeline run: string outputs as
/// FNV-1a digests, the level count and RNG end state raw.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    predistribute_metrics: u64,
    slots: u64,
    refresh_report: u64,
    collect_report: u64,
    decoded_levels: usize,
    metrics_json: u64,
    trace_json: u64,
    rng_end: u64,
}

fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// Runs deploy → churn → repair → collect once with obs + trace
/// recording, optionally under all four adversary strategies.
fn run_pipeline(
    scheme: Scheme,
    plan: &FaultPlan,
    seed: u64,
    nodes: usize,
    adversary: bool,
) -> Golden {
    obs::enable();
    obs::trace::enable();
    obs::reset();
    obs::trace::reset();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = RingNetwork::new(nodes, &mut rng);
    let profile = PriorityProfile::new(vec![2, 3, 5]).unwrap();
    let sources: Vec<Vec<Gf256>> = (0..profile.total_blocks())
        .map(|_| (0..2).map(|_| Gf256::random(&mut rng)).collect())
        .collect();
    let cfg = ProtocolConfig {
        scheme,
        profile: profile.clone(),
        distribution: PriorityDistribution::uniform(profile.num_levels()),
        locations: (nodes / 2).min(60),
        fanout: SourceFanout::All,
        coeff_rep: CoeffRep::Dense,
        two_choices: true,
        node_capacity: None,
        shared_seed: seed,
    };
    let mut session = plan.clone().session(net.node_count());

    // Topology-armed adversaries (regional outage + collector eclipse)
    // go in before any protocol traffic, like a real pre-positioned
    // attacker. Adversary strikes and eclipse bias live inside the
    // shared `FaultSession`.
    if adversary {
        let mut region = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Region {
                    fraction: 0.05,
                    segment_len: 3,
                },
                after_messages: 60,
                seed: seed ^ 0xA1,
            },
            net.node_count(),
        );
        region.arm_topology(&net, NodeId::new(0), &mut session);
        let mut eclipse = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Eclipse { loss: 0.4 },
                after_messages: 0,
                seed: seed ^ 0xA2,
            },
            net.node_count(),
        );
        eclipse.arm_topology(&net, NodeId::new(0), &mut session);
    }

    let mut dep = predistribute_with_faults(&net, &cfg, &sources, &mut session, &mut rng)
        .expect("fresh network accepts the protocol");
    let predistribute_metrics = digest(&format!("{:?}", dep.metrics()));

    net.fail_uniform(0.3, &mut rng);
    assert!(net.alive_count() > 0, "seed killed the whole overlay");

    // Observation-armed adversaries (targeted cache killer + slow
    // compromise) act on the deployed slot metadata before repair.
    if adversary {
        let mut targeted = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Targeted {
                    kills: 5,
                    focus: 0.7,
                },
                after_messages: 30,
                seed: seed ^ 0xA3,
            },
            net.node_count(),
        );
        targeted.arm_observed(&observe_deployment(&dep), &mut session);
        let mut creep = Adversary::new(
            AdversaryPlan {
                strategy: AdversaryStrategy::Creep { per_epoch: 0.02 },
                after_messages: 0,
                seed: seed ^ 0xA4,
            },
            net.node_count(),
        );
        creep.advance_epoch(&mut session);
    }

    let refresh_cfg = RefreshConfig {
        scheme,
        donors_per_slot: 3,
    };
    let refresh_report = refresh_with_faults(&net, &mut dep, &refresh_cfg, &mut session, &mut rng);
    let refresh_report = digest(&format!("{refresh_report:?}"));

    let collector = net
        .random_alive_node(&mut rng)
        .expect("alive_count > 0 was asserted");
    let collect_cfg = CollectionConfig::default();
    let (collect_report, decoded_levels) = if scheme == Scheme::Slc {
        let mut dec: SlcDecoder<Gf256, Vec<Gf256>> = SlcDecoder::with_payloads(profile);
        let report = collect_with_faults(
            &net,
            &dep,
            &mut dec,
            collector,
            &collect_cfg,
            &mut session,
            &mut rng,
        );
        (format!("{report:?}"), dec.decoded_levels())
    } else {
        let mut dec: PlcDecoder<Gf256, Vec<Gf256>> = PlcDecoder::with_payloads(profile);
        let report = collect_with_faults(
            &net,
            &dep,
            &mut dec,
            collector,
            &collect_cfg,
            &mut session,
            &mut rng,
        );
        (format!("{report:?}"), dec.decoded_levels())
    };

    Golden {
        predistribute_metrics,
        slots: digest(&format!("{:?}", dep.slots())),
        refresh_report,
        collect_report: digest(&collect_report),
        decoded_levels,
        metrics_json: digest(&obs::snapshot().to_deterministic_json()),
        trace_json: digest(&obs::trace::snapshot().to_json()),
        rng_end: rng.gen(),
    }
}

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        link: LinkModel {
            loss: 0.25,
            timeout_hops: None,
        },
        retry: RetryPolicy::with_retries(2, 1),
        churn: vec![ChurnEvent {
            after_messages: 40,
            fraction: 0.1,
        }],
        seed: seed ^ 0xFA,
    }
}

fn check(scheme: Scheme, plan: &FaultPlan, seed: u64, nodes: usize, adversary: bool, want: Golden) {
    let got = run_pipeline(scheme, plan, seed, nodes, adversary);
    assert_eq!(
        got, want,
        "pipeline diverged from its golden ({scheme:?}, nodes {nodes}, seed {seed}, \
         adversary {adversary})"
    );
}

#[test]
fn pipeline_matches_golden_without_faults() {
    let _guard = GUARD.lock().unwrap();
    check(Scheme::Slc, &FaultPlan::none(), 11, 200, false, SLC_NONE);
    check(Scheme::Plc, &FaultPlan::none(), 11, 200, false, PLC_NONE);
}

#[test]
fn pipeline_matches_golden_under_faults() {
    let _guard = GUARD.lock().unwrap();
    check(Scheme::Slc, &lossy_plan(7), 12, 200, false, SLC_LOSSY);
    check(Scheme::Plc, &lossy_plan(7), 12, 200, false, PLC_LOSSY);
}

/// All four adversary strategies at once — pre-positioned region +
/// eclipse, deployment-observed targeted killer, and one creep epoch —
/// with and without a lossy plan underneath. Adversary strikes, eclipse
/// bias and the `net.adversary.*` emission all land in the pinned
/// reports, metrics and trace.
#[test]
fn pipeline_matches_golden_under_adversary_plan() {
    let _guard = GUARD.lock().unwrap();
    check(Scheme::Slc, &lossy_plan(9), 14, 200, true, SLC_ADV_LOSSY);
    check(Scheme::Slc, &FaultPlan::none(), 14, 200, true, SLC_ADV_NONE);
    check(Scheme::Plc, &lossy_plan(9), 14, 200, true, PLC_ADV_LOSSY);
    check(Scheme::Plc, &FaultPlan::none(), 14, 200, true, PLC_ADV_NONE);
}

#[test]
fn pipeline_matches_golden_at_n_1000() {
    let _guard = GUARD.lock().unwrap();
    check(Scheme::Plc, &lossy_plan(3), 13, 1000, false, N1000_LOSSY);
    check(Scheme::Plc, &FaultPlan::none(), 13, 1000, false, N1000_NONE);
}

// Recorded from the former event-driven implementation of the sessions,
// in runs that also asserted it byte-identical to the sequential loops
// now in use; identical under the default configuration, under
// `PRLC_KERNEL=scalar PRLC_THREADS=1` and under
// `PRLC_OBS=1 PRLC_KERNEL=simd`. The `metrics_json` digests were
// re-recorded when row operations in the progressive RREF became
// bounded by the subtracted row's support: only the `gf.axpy.bytes`
// counter moved (downwards), every other field is as first recorded.

const SLC_NONE: Golden = Golden {
    predistribute_metrics: 0x9a3cc0528b58869b,
    slots: 0xcdb892cfdaf0e6f5,
    refresh_report: 0x0ba5e8e9be7fb40a,
    collect_report: 0xeea0492df5c23a5e,
    decoded_levels: 3,
    metrics_json: 0xd6b18d9090575d31,
    trace_json: 0x823bab5adf58a675,
    rng_end: 0x094a1347fb8e38cd,
};

const PLC_NONE: Golden = Golden {
    predistribute_metrics: 0xf8821d0d47df37cb,
    slots: 0xeb2e5674eb459d77,
    refresh_report: 0x5fde39827219c664,
    collect_report: 0x5080610c9e170121,
    decoded_levels: 3,
    metrics_json: 0x365ea57d116f2746,
    trace_json: 0x0bd40ea72bd3593e,
    rng_end: 0x995942eefb08463d,
};

const SLC_LOSSY: Golden = Golden {
    predistribute_metrics: 0x8bda7f61a956c517,
    slots: 0x792a7e7e394e5a1f,
    refresh_report: 0x94ad73f3970fe916,
    collect_report: 0xe1e987af48a2119c,
    decoded_levels: 3,
    metrics_json: 0xdab3df4d14757fa1,
    trace_json: 0xa5060172fe267104,
    rng_end: 0x2c11c3bb860f5170,
};

const PLC_LOSSY: Golden = Golden {
    predistribute_metrics: 0x7a8f4b16784a1607,
    slots: 0x3023e1be123ec228,
    refresh_report: 0x93e8f056e5e42aad,
    collect_report: 0x9c56ebd97b4fdd69,
    decoded_levels: 3,
    metrics_json: 0x1c8def8b6e2d0414,
    trace_json: 0x8d45f6b43bffe77d,
    rng_end: 0x06a12bdaca8f1fec,
};

const SLC_ADV_LOSSY: Golden = Golden {
    predistribute_metrics: 0x3421f82c24f728cd,
    slots: 0xbb7bb59e28060540,
    refresh_report: 0x7b644201d96d8423,
    collect_report: 0xce20186e3cbe1c24,
    decoded_levels: 3,
    metrics_json: 0x79217d039646f6cd,
    trace_json: 0xefad10418210854f,
    rng_end: 0x838feb66b8bfff3c,
};

const SLC_ADV_NONE: Golden = Golden {
    predistribute_metrics: 0x63affc31b44ad171,
    slots: 0xd0c63bd7881a018b,
    refresh_report: 0x31128bab0c30c3f5,
    collect_report: 0x94ebf08b73f60967,
    decoded_levels: 3,
    metrics_json: 0x9d09e7be55bf57a3,
    trace_json: 0x23ccaebe562eaa8a,
    rng_end: 0x4e578fd77fa9fb05,
};

const PLC_ADV_LOSSY: Golden = Golden {
    predistribute_metrics: 0xd8d1b25c828ae853,
    slots: 0x81b1b893d700ea64,
    refresh_report: 0xafb1f46c91db4e40,
    collect_report: 0x23496cb163c34e71,
    decoded_levels: 3,
    metrics_json: 0x42f5839dcb652e8c,
    trace_json: 0xb83bd971415b41a5,
    rng_end: 0x93ecfd229c6c3746,
};

const PLC_ADV_NONE: Golden = Golden {
    predistribute_metrics: 0xf886a4e11080a3b0,
    slots: 0xc2cb8f2a7566cf29,
    refresh_report: 0x0be30b949086100c,
    collect_report: 0x710e60d4e2f1617b,
    decoded_levels: 3,
    metrics_json: 0xc49eb1da8c97732f,
    trace_json: 0xb1dd3f653d6b88f7,
    rng_end: 0x7ca8e4f2460cb4ce,
};

const N1000_LOSSY: Golden = Golden {
    predistribute_metrics: 0x6faff31887f32aab,
    slots: 0x5030c3708dd21b5c,
    refresh_report: 0x6bd9bab6f1722627,
    collect_report: 0x6ca870a101f4a0f5,
    decoded_levels: 3,
    metrics_json: 0xad5b91b0f531900c,
    trace_json: 0xdb7eb3e9b7e4b863,
    rng_end: 0xf3d565cfac76e066,
};

const N1000_NONE: Golden = Golden {
    predistribute_metrics: 0x27edd4ca36347da2,
    slots: 0xbdc277122540a07b,
    refresh_report: 0x2e669a4c8412f341,
    collect_report: 0x8b8c1887f502cb40,
    decoded_levels: 3,
    metrics_json: 0x41a1ef87a51f8865,
    trace_json: 0x4119f2be2fd6c988,
    rng_end: 0x0db765d3679898f2,
};
