//! Multi-round measurement persistence with bounded storage.
//!
//! The paper's data model is *periodic*: "each node produces measurement
//! data over time … periodically measured data are generated on an
//! ongoing basis, which should be preserved for subsequent analysis at a
//! later time" (Sec. 1–2), under a cache budget of `d` blocks per node.
//! A [`RoundStore`] manages that lifecycle: each measurement round gets
//! its own deployment (with a per-round shared seed derived from the
//! base seed, so any node can still reconstruct every round's storage
//! locations), and when the aggregate cache budget would overflow, the
//! *oldest* rounds are evicted — a ring buffer of persisted history.

use std::collections::VecDeque;

use prlc_gf::GfElem;
use rand::Rng;

use crate::fault::FaultSession;
use crate::network::Network;
use crate::protocol::{
    predistribute, predistribute_with_faults, Deployment, ProtocolConfig, ProtocolError,
};

/// Identifies one measurement round (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoundId(u64);

impl RoundId {
    /// The numeric round index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RoundId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "round {}", self.0)
    }
}

/// Configuration of a [`RoundStore`].
#[derive(Debug, Clone)]
pub struct RoundStoreConfig {
    /// The per-round protocol template; `shared_seed` acts as the *base*
    /// seed from which each round's location seed is derived.
    pub protocol: ProtocolConfig,
    /// Maximum number of rounds retained; storing beyond this evicts the
    /// oldest round first.
    pub max_rounds: usize,
}

/// A rolling window of persisted measurement rounds.
#[derive(Debug, Clone)]
pub struct RoundStore<F: GfElem> {
    config: RoundStoreConfig,
    rounds: VecDeque<(RoundId, Deployment<F>)>,
    next_round: u64,
    evicted: u64,
}

impl<F: GfElem> RoundStore<F> {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn new(config: RoundStoreConfig) -> Self {
        assert!(config.max_rounds > 0, "max_rounds must be positive");
        RoundStore {
            config,
            rounds: VecDeque::new(),
            next_round: 0,
            evicted: 0,
        }
    }

    /// Persists one round of measurements into `net`, evicting the
    /// oldest round if the retention window is full. Returns the new
    /// round's id.
    ///
    /// The round's location seed is `base_seed + round_index` mixed
    /// through the protocol's domain separation, so every node derives
    /// the same per-round locations from the shared base seed alone.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from the pre-distribution run (the
    /// round is not stored and nothing is evicted).
    pub fn store_round<N: Network, R: Rng + ?Sized>(
        &mut self,
        net: &N,
        sources: &[Vec<F>],
        rng: &mut R,
    ) -> Result<RoundId, ProtocolError> {
        let id = RoundId(self.next_round);
        let mut cfg = self.config.protocol.clone();
        cfg.shared_seed = cfg.shared_seed.wrapping_add(id.0);
        let deployment = predistribute(net, &cfg, sources, rng)?;
        self.push_round(id, deployment);
        Ok(id)
    }

    /// [`Self::store_round`] over a faulty transport: the round's
    /// pre-distribution runs through `faults` (see
    /// [`predistribute_with_faults`]), so deliveries can be lost,
    /// retried, or abandoned, and churn events advance across rounds
    /// sharing one session. Under [`crate::FaultPlan::none`] this is
    /// bit-identical to [`Self::store_round`].
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from the pre-distribution run (the
    /// round is not stored and nothing is evicted).
    pub fn store_round_with_faults<N: Network, R: Rng + ?Sized>(
        &mut self,
        net: &N,
        sources: &[Vec<F>],
        faults: &mut FaultSession,
        rng: &mut R,
    ) -> Result<RoundId, ProtocolError> {
        let id = RoundId(self.next_round);
        let mut cfg = self.config.protocol.clone();
        cfg.shared_seed = cfg.shared_seed.wrapping_add(id.0);
        let deployment = predistribute_with_faults(net, &cfg, sources, faults, rng)?;
        self.push_round(id, deployment);
        Ok(id)
    }

    fn push_round(&mut self, id: RoundId, deployment: Deployment<F>) {
        self.next_round += 1;
        if self.rounds.len() == self.config.max_rounds {
            self.rounds.pop_front();
            self.evicted += 1;
        }
        self.rounds.push_back((id, deployment));
    }

    /// Number of rounds currently retained.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds are retained.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total rounds evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained round ids, oldest first.
    pub fn round_ids(&self) -> impl Iterator<Item = RoundId> + '_ {
        self.rounds.iter().map(|(id, _)| *id)
    }

    /// The deployment of a retained round.
    pub fn deployment(&self, id: RoundId) -> Option<&Deployment<F>> {
        self.rounds
            .iter()
            .find(|(rid, _)| *rid == id)
            .map(|(_, d)| d)
    }

    /// Mutable deployment access (e.g. for [`crate::refresh()`] passes).
    pub fn deployment_mut(&mut self, id: RoundId) -> Option<&mut Deployment<F>> {
        self.rounds
            .iter_mut()
            .find(|(rid, _)| *rid == id)
            .map(|(_, d)| d)
    }

    /// The most recent retained round.
    pub fn latest(&self) -> Option<(RoundId, &Deployment<F>)> {
        self.rounds.back().map(|(id, d)| (*id, d))
    }

    /// Total cache slots currently occupied across all retained rounds —
    /// the quantity bounded by the network budget `W·d`.
    pub fn total_slots(&self) -> usize {
        self.rounds.iter().map(|(_, d)| d.slots().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect, CollectionConfig};
    use crate::ring::RingNetwork;
    use prlc_core::{CoeffRep, PlcDecoder, PriorityDistribution, PriorityProfile, Scheme};
    use prlc_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::protocol::SourceFanout;

    fn store_config(locations: usize, max_rounds: usize) -> RoundStoreConfig {
        RoundStoreConfig {
            protocol: ProtocolConfig {
                scheme: Scheme::Plc,
                profile: PriorityProfile::new(vec![2, 4]).unwrap(),
                distribution: PriorityDistribution::uniform(2),
                locations,
                fanout: SourceFanout::All,
                coeff_rep: CoeffRep::Dense,
                two_choices: true,
                node_capacity: None,
                shared_seed: 42,
            },
            max_rounds,
        }
    }

    fn round_sources(rng: &mut StdRng, tag: u8) -> Vec<Vec<Gf256>> {
        use prlc_gf::GfElem;
        (0..6)
            .map(|i| {
                vec![
                    Gf256::from_index(((tag as usize) * 7 + i) % 256),
                    Gf256::random(rng),
                ]
            })
            .collect()
    }

    #[test]
    fn rounds_accumulate_until_window_then_evict() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = RingNetwork::new(50, &mut rng);
        let mut store: RoundStore<Gf256> = RoundStore::new(store_config(18, 3));
        assert!(store.is_empty());

        for r in 0..5u8 {
            let srcs = round_sources(&mut rng, r);
            store.store_round(&net, &srcs, &mut rng).unwrap();
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.evicted(), 2);
        let ids: Vec<u64> = store.round_ids().map(RoundId::index).collect();
        assert_eq!(ids, vec![2, 3, 4]); // oldest evicted first
        assert_eq!(store.total_slots(), 3 * 18);
        assert_eq!(store.latest().unwrap().0.index(), 4);
        assert!(store.deployment(RoundId(0)).is_none());
        assert!(store.deployment(RoundId(3)).is_some());
    }

    #[test]
    fn each_round_recovers_its_own_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = RingNetwork::new(60, &mut rng);
        let mut store: RoundStore<Gf256> = RoundStore::new(store_config(20, 4));
        let mut all_sources = Vec::new();
        for r in 0..3u8 {
            let srcs = round_sources(&mut rng, r);
            store.store_round(&net, &srcs, &mut rng).unwrap();
            all_sources.push(srcs);
        }
        let profile = PriorityProfile::new(vec![2, 4]).unwrap();
        for (r, srcs) in all_sources.iter().enumerate() {
            let dep = store.deployment(RoundId(r as u64)).unwrap();
            let mut dec = PlcDecoder::with_payloads(profile.clone());
            let collector = net.random_alive_node(&mut rng).unwrap();
            let report = collect(
                &net,
                dep,
                &mut dec,
                collector,
                &CollectionConfig::default(),
                &mut rng,
            )
            .unwrap();
            assert!(report.target_reached, "round {r}");
            for (i, s) in srcs.iter().enumerate() {
                assert_eq!(dec.recovered(i).unwrap(), &s[..], "round {r} block {i}");
            }
        }
    }

    #[test]
    fn rounds_use_distinct_locations() {
        // Different rounds must derive different location sets, or they
        // would overwrite each other's caches.
        let mut rng = StdRng::seed_from_u64(3);
        let net = RingNetwork::new(200, &mut rng);
        let mut store: RoundStore<Gf256> = RoundStore::new(store_config(10, 2));
        let s0 = round_sources(&mut rng, 0);
        let s1 = round_sources(&mut rng, 1);
        store.store_round(&net, &s0, &mut rng).unwrap();
        store.store_round(&net, &s1, &mut rng).unwrap();
        let a: Vec<_> = store
            .deployment(RoundId(0))
            .unwrap()
            .slots()
            .iter()
            .map(|s| s.node)
            .collect();
        let b: Vec<_> = store
            .deployment(RoundId(1))
            .unwrap()
            .slots()
            .iter()
            .map(|s| s.node)
            .collect();
        assert_ne!(a, b, "rounds landed on identical node sequences");
    }

    #[test]
    fn faulty_rounds_match_plain_rounds_under_none_plan() {
        use crate::fault::{FaultPlan, RetryPolicy};

        let mut rng = StdRng::seed_from_u64(9);
        let net = RingNetwork::new(50, &mut rng);
        let srcs = round_sources(&mut rng, 3);

        let mut plain: RoundStore<Gf256> = RoundStore::new(store_config(14, 2));
        let mut rng_a = StdRng::seed_from_u64(21);
        plain.store_round(&net, &srcs, &mut rng_a).unwrap();

        let mut faulty: RoundStore<Gf256> = RoundStore::new(store_config(14, 2));
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut session = FaultPlan::none().session(net.node_count());
        let id = faulty
            .store_round_with_faults(&net, &srcs, &mut session, &mut rng_b)
            .unwrap();
        assert_eq!(
            format!("{:?}", plain.deployment(id).unwrap().slots()),
            format!("{:?}", faulty.deployment(id).unwrap().slots())
        );

        // A lossy session threads through and leaves its mark: rounds
        // still store, and the metrics show abandoned deliveries.
        let mut lossy = FaultPlan::lossy(0.8, RetryPolicy::none(), 4).session(net.node_count());
        let id2 = faulty
            .store_round_with_faults(&net, &srcs, &mut lossy, &mut rng_b)
            .unwrap();
        assert_eq!(faulty.len(), 2);
        let metrics = faulty.deployment(id2).unwrap().metrics();
        assert!(metrics.gave_up > 0, "{metrics:?}");
        assert_eq!(metrics.lost_messages, metrics.gave_up + metrics.retries);
    }

    #[test]
    #[should_panic(expected = "max_rounds")]
    fn zero_retention_panics() {
        let _: RoundStore<Gf256> = RoundStore::new(store_config(10, 0));
    }

    #[test]
    fn failed_round_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = RingNetwork::new(30, &mut rng);
        let mut store: RoundStore<Gf256> = RoundStore::new(store_config(10, 2));
        // Wrong source count -> protocol error.
        let bad: Vec<Vec<Gf256>> = vec![Vec::new(); 3];
        assert!(store.store_round(&net, &bad, &mut rng).is_err());
        assert!(store.is_empty());
        assert_eq!(store.evicted(), 0);
        // Next good round still gets id 0? No: ids must stay unique even
        // after failures — but a failed round allocates no id.
        let good = round_sources(&mut rng, 9);
        let id = store.store_round(&net, &good, &mut rng).unwrap();
        assert_eq!(id.index(), 0);
    }
}
