//! A Chord-like ring DHT (Stoica et al., SIGCOMM 2001) — the P2P
//! instantiation of the paper's geometric network.
//!
//! Nodes hold random 64-bit IDs on a ring; the owner of a point is its
//! *successor* (first node ID at or clockwise-after the point). Routing
//! takes the classic `O(log W)` greedy finger steps — `finger[k]` =
//! successor of `id + 2^k` — but fingers are computed *on demand* from
//! the sorted alive-ID array (a binary search per finger) instead of
//! being materialised per node. That keeps memory O(N) rather than
//! O(N·64), which is what lets protocol simulations run at N=10⁵–10⁶.
//! The array is sorted once, when the ring is built. After failures the
//! structure re-stabilises (the crashed nodes leave the successor array,
//! an O(N) pass with no re-sort), modelling Chord's stabilisation
//! protocol having converged before the next operation.

use rand::Rng;

use crate::network::{Network, NodeId, Route};

const ID_BITS: usize = 64;
/// Safety bound on lookup path length (Chord takes `O(log W)` hops; this
/// only trips on internal inconsistencies).
const MAX_HOPS: usize = 4 * ID_BITS;

/// A simulated Chord-like ring overlay.
#[derive(Debug, Clone)]
pub struct RingNetwork {
    /// Node IDs on the ring, indexed by dense `NodeId`.
    ids: Vec<u64>,
    alive: Vec<bool>,
    alive_count: usize,
    /// Alive nodes sorted by ring ID: `(id, dense index)`.
    sorted: Vec<(u64, usize)>,
}

impl RingNetwork {
    /// Creates a ring of `nodes` peers with distinct random IDs.
    ///
    /// Node `i` gets the `i`-th distinct ID of the RNG stream: a repeated
    /// ID is dropped and another one drawn in its place. The N IDs are
    /// drawn up front and sorted once, and that sorted array is the
    /// initial successor array. Only when two of them collide (probability
    /// about N²/2⁶⁵) does the build replay the draws through a seen-set.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new<R: Rng + ?Sized>(nodes: usize, rng: &mut R) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        let mut ids: Vec<u64> = (0..nodes).map(|_| rng.gen()).collect();
        let mut sorted = Self::sorted_by_id(&ids);
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            ids = Self::redraw_repeats(ids, rng);
            sorted = Self::sorted_by_id(&ids);
        }
        RingNetwork {
            ids,
            alive: vec![true; nodes],
            alive_count: nodes,
            sorted,
        }
    }

    /// `(id, dense index)` for every node, in ring-ID order.
    fn sorted_by_id(ids: &[u64]) -> Vec<(u64, usize)> {
        let mut sorted: Vec<(u64, usize)> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        sorted.sort_unstable_by_key(|&(id, _)| id);
        sorted
    }

    /// Keeps the first occurrence of each drawn ID, in stream order, then
    /// draws until there are `drawn.len()` distinct IDs again, skipping
    /// repeats. The draw-one-reject-repeats loop would have consumed these
    /// same first draws, so the IDs and the draw count match it exactly.
    fn redraw_repeats<R: Rng + ?Sized>(drawn: Vec<u64>, rng: &mut R) -> Vec<u64> {
        let nodes = drawn.len();
        let mut seen = std::collections::BTreeSet::new();
        let mut ids: Vec<u64> = drawn.into_iter().filter(|&id| seen.insert(id)).collect();
        while ids.len() < nodes {
            let id: u64 = rng.gen();
            if seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }

    /// The ring ID of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn id_of(&self, node: NodeId) -> u64 {
        self.ids[node.index()]
    }

    /// Drops crashed nodes from the successor array (Chord stabilisation,
    /// assumed converged). Fingers are derived from it on demand during
    /// routing, so this is the whole rebuild: one O(N) pass, with no
    /// allocation and no sort.
    ///
    /// Removing the dead entries is exact because `alive` only ever goes
    /// from true to false. `sorted` therefore always holds a superset of
    /// the alive nodes in ring-ID order, and what the pass leaves is the
    /// sorted alive set.
    fn stabilize(&mut self) {
        let alive = &self.alive;
        self.sorted.retain(|&(_, i)| alive[i]);
        debug_assert_eq!(self.sorted.len(), self.alive_count);
    }

    /// Dense index of the alive successor of `point` (first alive ID at
    /// or after `point`, wrapping). Binary search over the sorted
    /// alive-ID array.
    ///
    /// # Panics
    ///
    /// Panics if no node is alive.
    fn successor(&self, point: u64) -> usize {
        assert!(!self.sorted.is_empty(), "no alive nodes");
        let i = self.sorted.partition_point(|&(id, _)| id < point);
        let i = if i == self.sorted.len() { 0 } else { i };
        self.sorted[i].1
    }

    /// Clockwise distance from `a` to `b` on the ring.
    fn clockwise(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// One greedy Chord step from `current` toward `point`: the finger
    /// that makes the most clockwise progress without overshooting the
    /// point, falling back to `owner` (the direct successor) when no
    /// finger precedes the target. `finger[k] = successor(id + 2^k)`,
    /// computed by binary search instead of a materialised table.
    fn greedy_next(&self, current: usize, point: u64, owner: usize) -> usize {
        let cur_id = self.ids[current];
        let dist = Self::clockwise(cur_id, point);
        let mut best = None;
        let mut best_remaining = dist;
        for k in 0..ID_BITS {
            let f = self.successor(cur_id.wrapping_add(1u64 << k));
            if f == current {
                continue;
            }
            let fid = self.ids[f];
            let advance = Self::clockwise(cur_id, fid);
            // The finger must not pass the target point.
            if advance > 0 && advance <= dist {
                let remaining = Self::clockwise(fid, point);
                if remaining < best_remaining {
                    best_remaining = remaining;
                    best = Some(f);
                }
            }
        }
        best.unwrap_or(owner)
    }

    /// Every node index (alive or crashed) in clockwise ring-ID order:
    /// entry `p` is the node at ring position `p`. This is the adjacency
    /// a correlated regional outage crashes contiguous segments of.
    pub fn ring_order(&self) -> Vec<NodeId> {
        let mut order: Vec<usize> = (0..self.ids.len()).collect();
        order.sort_unstable_by_key(|&i| self.ids[i]);
        order.into_iter().map(NodeId::new).collect()
    }

    /// The distinct alive fingers of `node` — `successor(id + 2^k)` for
    /// `k` in `0..64`, deduplicated, excluding `node` itself. Every
    /// nonzero-hop greedy route from `node` leaves through this set
    /// (including the direct-successor fallback, which is `finger[0]`),
    /// making it the choke point a collector-eclipse adversary
    /// concentrates loss on.
    pub fn finger_neighborhood(&self, node: NodeId) -> Vec<NodeId> {
        let mut fingers = Vec::new();
        if self.sorted.is_empty() {
            return fingers;
        }
        let cur_id = self.ids[node.index()];
        for k in 0..ID_BITS {
            let f = self.successor(cur_id.wrapping_add(1u64 << k));
            if f != node.index() && !fingers.contains(&NodeId::new(f)) {
                fingers.push(NodeId::new(f));
            }
        }
        fingers
    }

    /// First hop of the greedy route from `from` toward `point`: `None`
    /// when `from` owns the point (zero-hop route) or cannot route. The
    /// hop is always a member of `from`'s [finger
    /// neighborhood](Self::finger_neighborhood).
    pub fn first_hop(&self, from: NodeId, point: u64) -> Option<NodeId> {
        if !self.alive[from.index()] || self.sorted.is_empty() {
            return None;
        }
        let owner = self.successor(point);
        if owner == from.index() {
            return None;
        }
        Some(NodeId::new(self.greedy_next(from.index(), point, owner)))
    }

    /// Fails every alive node whose ID falls in the clockwise arc of
    /// `fraction` of the ring starting at `start` — a correlated-failure
    /// model (e.g. a region of the ID space assigned to one data centre
    /// going down). Returns the number killed.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn fail_arc(&mut self, start: u64, fraction: f64) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0,1], got {fraction}"
        );
        let span = (fraction * u64::MAX as f64) as u64;
        let mut killed = 0;
        for i in 0..self.ids.len() {
            if self.alive[i] && Self::clockwise(start, self.ids[i]) <= span {
                self.alive[i] = false;
                self.alive_count -= 1;
                killed += 1;
            }
        }
        self.stabilize();
        killed
    }
}

impl Network for RingNetwork {
    type Point = u64;

    fn node_count(&self) -> usize {
        self.ids.len()
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen()
    }

    fn owner_of(&self, point: u64) -> Option<NodeId> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(NodeId::new(self.successor(point)))
    }

    fn route(&self, from: NodeId, point: u64) -> Option<Route> {
        if !self.alive[from.index()] || self.sorted.is_empty() {
            return None;
        }
        let owner = self.successor(point);
        let mut current = from.index();
        let mut hops = 0usize;
        while current != owner {
            if hops > MAX_HOPS {
                return None; // inconsistent routing state
            }
            current = self.greedy_next(current, point, owner);
            hops += 1;
        }
        Some(Route {
            owner: NodeId::new(owner),
            hops,
        })
    }

    fn fail_uniform<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0,1], got {fraction}"
        );
        let mut killed = 0;
        for i in 0..self.ids.len() {
            if self.alive[i] && rng.gen_bool(fraction) {
                self.alive[i] = false;
                self.alive_count -= 1;
                killed += 1;
            }
        }
        self.stabilize();
        killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn ring(n: usize, seed: u64) -> RingNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        RingNetwork::new(n, &mut rng)
    }

    /// An RNG that counts its draws.
    struct Counting<R> {
        inner: R,
        draws: u64,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    fn counting(seed: u64) -> Counting<StdRng> {
        Counting {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// An RNG that replays `script` and then continues with a seeded
    /// `StdRng`: a way to feed the build repeated IDs.
    struct Scripted {
        script: Vec<u64>,
        pos: usize,
        then: StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            match self.script.get(self.pos) {
                Some(&x) => {
                    self.pos += 1;
                    x
                }
                None => self.then.next_u64(),
            }
        }
    }

    fn scripted(script: Vec<u64>) -> Counting<Scripted> {
        Counting {
            inner: Scripted {
                script,
                pos: 0,
                then: StdRng::seed_from_u64(99),
            },
            draws: 0,
        }
    }

    /// The original build: one draw at a time, repeats rejected through a
    /// `BTreeMap`, then a full stabilisation.
    fn reference_new<R: Rng + ?Sized>(nodes: usize, rng: &mut R) -> RingNetwork {
        let mut ids = Vec::with_capacity(nodes);
        let mut seen = std::collections::BTreeMap::new();
        while ids.len() < nodes {
            let id: u64 = rng.gen();
            if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(id) {
                e.insert(ids.len());
                ids.push(id);
            }
        }
        let mut net = RingNetwork {
            ids,
            alive: vec![true; nodes],
            alive_count: nodes,
            sorted: Vec::new(),
        };
        reference_stabilize(&mut net);
        net
    }

    /// The original stabilisation: filter the alive nodes and sort them.
    fn reference_stabilize(net: &mut RingNetwork) {
        net.sorted = net
            .ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| net.alive[i])
            .map(|(i, &id)| (id, i))
            .collect();
        net.sorted.sort_unstable_by_key(|&(id, _)| id);
    }

    fn assert_same_ring(net: &RingNetwork, reference: &RingNetwork, what: &str) {
        assert_eq!(net.ids, reference.ids, "{what}: ids");
        assert_eq!(net.alive, reference.alive, "{what}: alive");
        assert_eq!(
            net.alive_count, reference.alive_count,
            "{what}: alive_count"
        );
        assert_eq!(net.sorted, reference.sorted, "{what}: sorted");
    }

    #[test]
    fn build_and_restabilisation_match_the_reference() {
        for &n in &[1usize, 2, 17, 1000, 50_000] {
            for seed in [1u64, 7, 42] {
                let what = format!("n={n} seed={seed}");
                let (mut rng, mut ref_rng) = (counting(seed), counting(seed));
                let mut net = RingNetwork::new(n, &mut rng);
                let mut reference = reference_new(n, &mut ref_rng);
                assert_same_ring(&net, &reference, &format!("{what} build"));
                assert_eq!(rng.draws, ref_rng.draws, "{what}: build draws");
                for epoch in 0..4 {
                    let killed = net.fail_uniform(0.15, &mut rng);
                    let ref_killed = reference.fail_uniform(0.15, &mut ref_rng);
                    reference_stabilize(&mut reference);
                    assert_eq!(killed, ref_killed, "{what} epoch {epoch}: killed");
                    assert_same_ring(&net, &reference, &format!("{what} epoch {epoch}"));
                }
                let start: u64 = rng.gen();
                let ref_start: u64 = ref_rng.gen();
                assert_eq!(start, ref_start, "{what}: arc start");
                let killed = net.fail_arc(start, 0.2);
                assert_eq!(killed, reference.fail_arc(start, 0.2), "{what}: arc killed");
                reference_stabilize(&mut reference);
                assert_same_ring(&net, &reference, &format!("{what} arc"));
                assert_eq!(rng.draws, ref_rng.draws, "{what}: total draws");
                assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{what}: RNG end state");
            }
        }
    }

    #[test]
    fn repeated_ids_keep_first_occurrence_and_redraw_in_stream_order() {
        // 5 and 7 repeat inside the first four draws; the redraws then
        // reject two more repeats of 7 before accepting 11.
        let script = vec![5, 7, 5, 9, 7, 7, 11, 13];
        let (mut rng, mut ref_rng) = (scripted(script.clone()), scripted(script));
        let net = RingNetwork::new(4, &mut rng);
        let reference = reference_new(4, &mut ref_rng);
        assert_same_ring(&net, &reference, "scripted");
        assert_eq!(net.ids, [5, 7, 9, 11]);
        assert_eq!(net.id_of(NodeId::new(0)), 5);
        assert_eq!(net.id_of(NodeId::new(1)), 7);
        assert_eq!(rng.draws, 7);
        assert_eq!(ref_rng.draws, 7);
        assert_eq!(rng.next_u64(), 13);

        // A larger ring whose first 1000 draws come from only 300 values,
        // so most of it is redrawn from the seeded tail of the stream.
        let script: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 300).collect();
        let (mut rng, mut ref_rng) = (scripted(script.clone()), scripted(script));
        let net = RingNetwork::new(1000, &mut rng);
        let reference = reference_new(1000, &mut ref_rng);
        assert_same_ring(&net, &reference, "scripted n=1000");
        assert_eq!(rng.draws, ref_rng.draws);
        assert!(rng.draws > 1000);
        assert_eq!(rng.next_u64(), ref_rng.next_u64());
    }

    #[test]
    fn construction_basics() {
        let net = ring(50, 1);
        assert_eq!(net.node_count(), 50);
        assert_eq!(net.alive_count(), 50);
        assert!(net.is_alive(NodeId::new(0)));
    }

    #[test]
    fn owner_is_successor() {
        let net = ring(20, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = net.random_point(&mut rng);
            let owner = net.owner_of(p).unwrap();
            let oid = net.id_of(owner);
            // No alive node lies strictly between p and owner clockwise.
            for i in 0..20 {
                let nid = net.id_of(NodeId::new(i));
                if nid != oid {
                    assert!(
                        RingNetwork::clockwise(p, nid) > RingNetwork::clockwise(p, oid),
                        "node {nid:x} is a closer successor than {oid:x} for {p:x}"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_reaches_owner_with_log_hops() {
        let net = ring(500, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let from = net.random_alive_node(&mut rng).unwrap();
            let p = net.random_point(&mut rng);
            let r = net.route(from, p).expect("route must succeed");
            assert_eq!(Some(r.owner), net.owner_of(p));
            // O(log W): 2*log2(500) ~ 18; allow slack.
            assert!(r.hops <= 30, "hops = {}", r.hops);
        }
    }

    #[test]
    fn routing_to_own_point_is_zero_hops() {
        let net = ring(10, 6);
        let n = NodeId::new(3);
        let r = net.route(n, net.id_of(n)).unwrap();
        assert_eq!(r.owner, n);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn uniform_failure_kills_about_the_right_fraction() {
        let mut net = ring(1000, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let killed = net.fail_uniform(0.3, &mut rng);
        assert_eq!(net.alive_count(), 1000 - killed);
        assert!((200..400).contains(&killed), "killed {killed}");
        // Routing still works among the survivors.
        let from = net.random_alive_node(&mut rng).unwrap();
        let p = net.random_point(&mut rng);
        let r = net.route(from, p).unwrap();
        assert!(net.is_alive(r.owner));
    }

    #[test]
    fn fail_arc_kills_contiguous_ids() {
        let mut net = ring(400, 9);
        let killed = net.fail_arc(0, 0.25);
        // Random u64 ids: ~25% fall in the arc.
        assert!((60..140).contains(&killed), "killed {killed}");
        // All dead nodes are within the arc.
        for i in 0..400 {
            let id = net.id_of(NodeId::new(i));
            let in_arc = id <= (0.25 * u64::MAX as f64) as u64;
            assert_eq!(!net.is_alive(NodeId::new(i)), in_arc, "node {i}");
        }
    }

    #[test]
    fn total_failure_leaves_no_owner() {
        let mut net = ring(5, 10);
        net.fail_arc(0, 1.0);
        assert_eq!(net.alive_count(), 0);
        assert_eq!(net.owner_of(123), None);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(net.random_alive_node(&mut rng), None);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let net = ring(1, 11);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let p = net.random_point(&mut rng);
            assert_eq!(net.owner_of(p), Some(NodeId::new(0)));
            let r = net.route(NodeId::new(0), p).unwrap();
            assert_eq!(r.hops, 0);
        }
    }

    #[test]
    fn dead_origin_cannot_route() {
        let mut net = ring(10, 12);
        let mut rng = StdRng::seed_from_u64(3);
        // Kill one specific node by failing until it dies.
        while net.is_alive(NodeId::new(0)) {
            net.fail_uniform(0.2, &mut rng);
        }
        assert_eq!(net.route(NodeId::new(0), 55), None);
    }
}
