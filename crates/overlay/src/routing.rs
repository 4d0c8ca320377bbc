//! Single-path routing over the overlay.
//!
//! The paper uses single-path routing where "the criterion for path selection
//! is to minimize the mean value of the transmission rate of the path"
//! (§3.3). We compute, for every *destination* broker, a shortest-path tree
//! over the reversed graph with Dijkstra's algorithm, using each link's mean
//! per-KB rate as its weight. Rooting the computation at the destination
//! guarantees that the per-broker next hops are mutually consistent: the path
//! a message actually follows hop by hop is exactly the path whose statistics
//! each broker advertises. When links fail or recover, the trees are
//! repaired in place: only the brokers whose route the change can move are
//! re-settled.

use crate::graph::OverlayGraph;
use crate::pathstats::PathStats;
use bdps_net::link::Link;
use bdps_types::error::{BdpsError, Result};
use bdps_types::id::{BrokerId, LinkId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The routing decision of one broker for one destination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// The neighbour to forward to (the paper's `nb`).
    pub next_hop: BrokerId,
    /// The outgoing link towards that neighbour.
    pub next_link: LinkId,
    /// Statistics of the whole remaining path to the destination.
    pub stats: PathStats,
}

/// All-pairs single-path routes.
///
/// Every link's mean per-KB rate must be finite and strictly positive (the
/// bandwidth models assert it). Dijkstra's settle order needs non-negative
/// weights, and the tie argument that makes the incremental
/// [`update_for_link_change`](Self::update_for_link_change) bit-identical
/// to the from-scratch computation needs positive ones: a broker must
/// settle strictly after every neighbour it could route through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Routing {
    /// `table[dest][source]` — the route entry at `source` towards `dest`
    /// (`None` when `source == dest` or `dest` is unreachable from `source`).
    table: Vec<Vec<Option<RouteEntry>>>,
    broker_count: usize,
}

/// The outcome of an incremental routing update
/// ([`Routing::update_for_link_change`]): which `(source, destination)`
/// pairs' route entries changed — next hop, next link *or* path statistics —
/// so subscription tables can be patched instead of rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteDelta {
    /// `per_source[source]` — destinations whose route from `source`
    /// changed, in ascending destination order.
    per_source: Vec<Vec<BrokerId>>,
    /// Every destination that appears in at least one changed pair.
    changed_dests: Vec<BrokerId>,
    /// Total number of changed `(source, destination)` pairs.
    changed_pairs: usize,
    /// Destinations whose shortest-path tree was repaired, i.e. had at
    /// least one broker re-settled (a superset of
    /// [`changed_dests_union`](Self::changed_dests_union): a repair can
    /// re-settle brokers onto their old entries).
    dests_repaired: usize,
}

impl RouteDelta {
    /// Returns true when no route entry changed.
    pub fn is_empty(&self) -> bool {
        self.changed_pairs == 0
    }

    /// Total number of changed `(source, destination)` pairs.
    pub fn changed_pairs(&self) -> usize {
        self.changed_pairs
    }

    /// Number of destination trees that were repaired.
    pub fn dests_repaired(&self) -> usize {
        self.dests_repaired
    }

    /// The destinations whose route entry at `source` changed.
    pub fn changed_dests(&self, source: BrokerId) -> &[BrokerId] {
        self.per_source
            .get(source.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every destination involved in at least one changed pair, ascending.
    pub fn changed_dests_union(&self) -> &[BrokerId] {
        &self.changed_dests
    }

    /// Iterates over every changed `(source, destination)` pair.
    pub fn pairs(&self) -> impl Iterator<Item = (BrokerId, BrokerId)> + '_ {
        self.per_source.iter().enumerate().flat_map(|(src, dests)| {
            let src = BrokerId::new(src as u32);
            dests.iter().map(move |&dest| (src, dest))
        })
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    broker: BrokerId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance with deterministic broker-id tie-breaking.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.broker.cmp(&self.broker))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The route entry of a broker that forwards over `link` to a neighbour
/// whose own entry is `downstream` (`None` when the neighbour is the
/// destination): the link followed by the neighbour's path.
fn extend(link: &Link, downstream: Option<RouteEntry>) -> RouteEntry {
    let downstream = downstream.map_or_else(PathStats::local, |e| e.stats);
    RouteEntry {
        next_hop: link.to,
        next_link: link.id,
        stats: downstream.extend(link.quality.rate_distribution()),
    }
}

/// The routing order of two candidate entries of one broker: lower path
/// cost first, then the lower next hop, then the lower link id (parallel
/// links). Every broker routes over its minimum candidate.
fn precedes(a: &RouteEntry, b: &RouteEntry) -> bool {
    let (ca, cb) = (a.stats.mean_rate(), b.stats.mean_rate());
    ca < cb || (ca == cb && (a.next_hop, a.next_link) < (b.next_hop, b.next_link))
}

/// Broker flags of a row repair.
const TOUCHED: u8 = 1;
const INVALID: u8 = 2;
const SETTLED: u8 = 4;

/// The working state of [`Routing::update_for_link_change`], reused across
/// the destination rows of one batch; a row resets only what it touched.
struct Repair {
    /// Per broker: [`TOUCHED`], [`INVALID`] (its tree path used a removed
    /// link) and [`SETTLED`] (its entry is final for this row).
    flags: Vec<u8>,
    /// Per touched broker: its entry before the repair.
    old: Vec<Option<RouteEntry>>,
    /// The brokers the current row touched, in first-touch order.
    touched: Vec<BrokerId>,
    heap: BinaryHeap<HeapEntry>,
    stack: Vec<BrokerId>,
}

impl Repair {
    fn new(n: usize) -> Self {
        Repair {
            flags: vec![0; n],
            old: vec![None; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            stack: Vec::new(),
        }
    }

    fn is(&self, b: BrokerId, flag: u8) -> bool {
        self.flags[b.index()] & flag != 0
    }

    /// Records `b`'s pre-repair entry the first time the row touches it.
    fn touch(&mut self, row: &[Option<RouteEntry>], b: BrokerId) {
        if !self.is(b, TOUCHED) {
            self.flags[b.index()] |= TOUCHED;
            self.old[b.index()] = row[b.index()];
            self.touched.push(b);
        }
    }

    /// Offers `candidate` to the unsettled broker `b`, which takes it when
    /// it has no route, already routes over the same link (a refreshed
    /// downstream entry), or the candidate precedes its current entry.
    fn offer(&mut self, row: &mut [Option<RouteEntry>], b: BrokerId, candidate: RouteEntry) {
        let take = row[b.index()].is_none_or(|current| {
            current.next_link == candidate.next_link || precedes(&candidate, &current)
        });
        if take {
            self.touch(row, b);
            row[b.index()] = Some(candidate);
            self.heap.push(HeapEntry {
                dist: candidate.stats.mean_rate(),
                broker: b,
            });
        }
    }

    /// Brings one destination row up to date with the batch, leaving every
    /// broker it may have changed in `touched` with its old entry in `old`.
    fn repair_row(
        &mut self,
        graph: &OverlayGraph,
        row: &mut [Option<RouteEntry>],
        dest: BrokerId,
        usable: &impl Fn(LinkId) -> bool,
        removed: &[LinkId],
        added: &[LinkId],
    ) {
        // Invalidate the subtree hanging off every removed tree edge.
        for &id in removed {
            let tail = graph.link(id).from;
            if row[tail.index()].is_some_and(|e| e.next_link == id) {
                self.invalidate_subtree(graph, row, tail);
            }
        }
        // Seed every invalidated broker with its ways out of the invalid
        // region, over entries the batch has not touched.
        for i in 0..self.touched.len() {
            let b = self.touched[i];
            for link in graph.outgoing(b) {
                if let Some(candidate) = self.candidate(row, dest, link, usable) {
                    self.offer(row, b, candidate);
                }
            }
        }
        // Seed the tail of every restored link that beats its route.
        for &id in added {
            let link = graph.link(id);
            if link.from == dest {
                continue;
            }
            if let Some(candidate) = self.candidate(row, dest, link, usable) {
                self.offer(row, link.from, candidate);
            }
        }
        // Dijkstra over the touched region: a settled broker that changed
        // (or lost its old path) re-offers itself to its in-neighbours.
        while let Some(HeapEntry { broker: b, .. }) = self.heap.pop() {
            if self.is(b, SETTLED) {
                continue;
            }
            self.flags[b.index()] |= SETTLED;
            let entry = row[b.index()];
            if !self.is(b, INVALID) && self.old[b.index()] == entry {
                continue;
            }
            for link in graph.incoming(b) {
                let u = link.from;
                if u == dest || self.is(u, SETTLED) || !usable(link.id) {
                    continue;
                }
                self.offer(row, u, extend(link, entry));
            }
        }
    }

    /// The candidate entry over `link` towards `dest`, when the link is
    /// usable and its head has a route outside the invalid region.
    fn candidate(
        &self,
        row: &[Option<RouteEntry>],
        dest: BrokerId,
        link: &Link,
        usable: &impl Fn(LinkId) -> bool,
    ) -> Option<RouteEntry> {
        let head = link.to;
        if !usable(link.id) || self.is(head, INVALID) {
            return None;
        }
        if head == dest {
            return Some(extend(link, None));
        }
        row[head.index()].map(|e| extend(link, Some(e)))
    }

    /// Clears the entries of `root` and of every broker whose tree path
    /// passes through it, marking them invalid.
    fn invalidate_subtree(
        &mut self,
        graph: &OverlayGraph,
        row: &mut [Option<RouteEntry>],
        root: BrokerId,
    ) {
        self.stack.push(root);
        while let Some(b) = self.stack.pop() {
            self.touch(row, b);
            self.flags[b.index()] |= INVALID;
            row[b.index()] = None;
            for link in graph.incoming(b) {
                if row[link.from.index()].is_some_and(|e| e.next_link == link.id) {
                    self.stack.push(link.from);
                }
            }
        }
    }
}

impl Routing {
    /// Computes single-path routes for every (source, destination) pair.
    pub fn compute(graph: &OverlayGraph) -> Routing {
        Self::compute_filtered(graph, |_| true)
    }

    /// Like [`compute`](Self::compute), but only links for which `usable`
    /// returns true participate. This is the from-scratch oracle of
    /// [`update_for_link_change`](Self::update_for_link_change): when a link
    /// fails or recovers mid-run the routes over the surviving links are
    /// what traffic follows, so it flows around outages instead of piling up
    /// behind them.
    pub fn compute_filtered(graph: &OverlayGraph, usable: impl Fn(LinkId) -> bool) -> Routing {
        let n = graph.broker_count();
        let mut table = Vec::with_capacity(n);
        for dest_raw in 0..n {
            let dest = BrokerId::new(dest_raw as u32);
            table.push(Self::routes_towards(graph, dest, &usable));
        }
        Routing {
            table,
            broker_count: n,
        }
    }

    /// Dijkstra rooted at the destination over reversed links.
    ///
    /// Returns, for every source broker, the first hop of its minimum
    /// mean-rate path towards `dest` together with the accumulated path
    /// statistics. With strictly positive link means, every broker's entry
    /// is the [`precedes`]-minimum candidate over its usable out-links: a
    /// broker settles only after every neighbour that could beat or tie its
    /// cost.
    fn routes_towards(
        graph: &OverlayGraph,
        dest: BrokerId,
        usable: &impl Fn(LinkId) -> bool,
    ) -> Vec<Option<RouteEntry>> {
        let n = graph.broker_count();
        let mut entry: Vec<Option<RouteEntry>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            broker: dest,
        });

        // We relax *incoming* links of the settled broker: if broker `v` can
        // reach `dest` with cost d(v), then any broker `u` with a link u -> v
        // can reach it with cost d(v) + mean_rate(u -> v), taking u's first
        // hop to be v.
        while let Some(HeapEntry { broker: v, .. }) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            let downstream = entry[v.index()];
            for link in graph.incoming(v).filter(|l| usable(l.id)) {
                let u = link.from;
                if done[u.index()] {
                    continue;
                }
                let candidate = extend(link, downstream);
                if entry[u.index()].is_none_or(|current| precedes(&candidate, &current)) {
                    entry[u.index()] = Some(candidate);
                    heap.push(HeapEntry {
                        dist: candidate.stats.mean_rate(),
                        broker: u,
                    });
                }
            }
        }
        entry
    }

    /// Incrementally updates the routes after a batch of link liveness
    /// changes and returns the set of `(source, destination)` pairs whose
    /// route entry changed.
    ///
    /// `removed` are links that were usable when this routing was last
    /// computed and are not any more; `added` the reverse; `usable` must
    /// describe the *post-change* liveness. The result is **bit-identical**
    /// to [`compute_filtered`](Self::compute_filtered) over the same graph
    /// and `usable` predicate (`tests/properties.rs` pins this against the
    /// from-scratch oracle, ties included).
    ///
    /// Each destination row is repaired rather than recomputed (dynamic
    /// shortest paths in the style of Ramalingam & Reps): only the brokers
    /// whose tree path used a removed link, and those a restored link or a
    /// changed neighbour improves, are re-settled. This is exact because
    /// the scratch entry of every broker is its minimum candidate over its
    /// usable out-links in the order (path cost, next hop, link id), and a
    /// candidate's cost is its statistics' mean, which the repair
    /// recomputes with the same additions as the scratch Dijkstra:
    ///
    /// * a broker outside the removed links' subtrees keeps its candidate,
    ///   whose cost cannot rise; every other candidate only got worse, so
    ///   it changes only if a restored link or a re-settled neighbour
    ///   offers something that precedes its entry;
    /// * a re-settled broker whose entry changed re-offers itself to its
    ///   in-neighbours, and an in-neighbour already routing through it takes
    ///   the new entry even at equal cost — an equal-cost tie flip upstream
    ///   still changes the downstream variance and hop count.
    ///
    /// The work per destination is proportional to the brokers it
    /// re-settles, so a link no tree uses, or a restored link that beats
    /// nothing, costs one check per row.
    pub fn update_for_link_change(
        &mut self,
        graph: &OverlayGraph,
        usable: impl Fn(LinkId) -> bool,
        removed: &[LinkId],
        added: &[LinkId],
    ) -> RouteDelta {
        debug_assert!(removed.iter().all(|&l| !usable(l)), "removed must be dead");
        debug_assert!(added.iter().all(|&l| usable(l)), "added must be alive");
        let n = self.broker_count;
        let mut delta = RouteDelta {
            per_source: vec![Vec::new(); n],
            ..RouteDelta::default()
        };
        let mut repair = Repair::new(n);
        for (dest_raw, row) in self.table.iter_mut().enumerate() {
            let dest = BrokerId::new(dest_raw as u32);
            repair.repair_row(graph, row, dest, &usable, removed, added);
            if repair.touched.is_empty() {
                continue;
            }
            delta.dests_repaired += 1;
            let mut any_changed = false;
            for &b in &repair.touched {
                if repair.old[b.index()] != row[b.index()] {
                    delta.per_source[b.index()].push(dest);
                    delta.changed_pairs += 1;
                    any_changed = true;
                }
                repair.flags[b.index()] = 0;
            }
            repair.touched.clear();
            if any_changed {
                delta.changed_dests.push(dest);
            }
        }
        delta
    }

    /// [`update_for_link_change`](Self::update_for_link_change) with link
    /// liveness read from per-link failure depths: a link is usable iff its
    /// depth is 0 (the engine's liveness model). Being non-generic, the
    /// update is compiled once, in this crate, instead of being
    /// re-instantiated in the calling crate, where its code quality would
    /// shift with whatever else that crate's code generation units hold.
    pub fn update_for_link_depths(
        &mut self,
        graph: &OverlayGraph,
        down_depth: &[u32],
        removed: &[LinkId],
        added: &[LinkId],
    ) -> RouteDelta {
        self.update_for_link_change(graph, |l| down_depth[l.index()] == 0, removed, added)
    }

    /// Number of brokers the routing was computed for.
    pub fn broker_count(&self) -> usize {
        self.broker_count
    }

    /// The route entry at `from` towards `to`; `None` when `from == to` or
    /// `to` is unreachable.
    pub fn route(&self, from: BrokerId, to: BrokerId) -> Option<&RouteEntry> {
        self.table
            .get(to.index())
            .and_then(|per_source| per_source.get(from.index()))
            .and_then(|e| e.as_ref())
    }

    /// The route entry, returning an error for unreachable destinations.
    pub fn route_or_err(&self, from: BrokerId, to: BrokerId) -> Result<&RouteEntry> {
        if from == to {
            return Err(BdpsError::InvalidConfig(format!(
                "no route needed from {from} to itself"
            )));
        }
        self.route(from, to).ok_or(BdpsError::Unreachable {
            from: from.raw(),
            to: to.raw(),
        })
    }

    /// The full broker path from `from` to `to` (both endpoints included),
    /// or `None` when unreachable. `from == to` yields a single-element path.
    pub fn path(&self, from: BrokerId, to: BrokerId) -> Option<Vec<BrokerId>> {
        let mut path = vec![from];
        let mut current = from;
        let mut guard = 0;
        while current != to {
            let entry = self.route(current, to)?;
            current = entry.next_hop;
            path.push(current);
            guard += 1;
            if guard > self.broker_count {
                // Cycle — should be impossible by construction.
                return None;
            }
        }
        Some(path)
    }

    /// The statistics of the path from `from` to `to` (empty/local when equal).
    pub fn path_stats(&self, from: BrokerId, to: BrokerId) -> Option<PathStats> {
        if from == to {
            return Some(PathStats::local());
        }
        self.route(from, to).map(|e| e.stats)
    }

    /// Checks that following next hops from every source terminates at every
    /// reachable destination (used by integration tests and `validate` in
    /// debug builds).
    pub fn is_consistent(&self) -> bool {
        for dest_raw in 0..self.broker_count {
            for src_raw in 0..self.broker_count {
                let dest = BrokerId::new(dest_raw as u32);
                let src = BrokerId::new(src_raw as u32);
                if src != dest && self.route(src, dest).is_some() && self.path(src, dest).is_none()
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;

    fn quality(rate: f64) -> LinkQuality {
        LinkQuality::new(FixedRate::new(rate))
    }

    /// B0 - B1 - B3 and B0 - B2 - B3, where the B1 route is cheaper.
    fn diamond() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        let b3 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0));
        g.add_bidirectional_link(b1, b3, quality(50.0));
        g.add_bidirectional_link(b0, b2, quality(80.0));
        g.add_bidirectional_link(b2, b3, quality(80.0));
        g
    }

    #[test]
    fn picks_minimum_mean_rate_path() {
        let g = diamond();
        let r = Routing::compute(&g);
        let entry = r.route(BrokerId::new(0), BrokerId::new(3)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(1));
        assert_eq!(entry.stats.downstream_brokers, 2);
        assert!((entry.stats.mean_rate() - 100.0).abs() < 1e-9);
        assert_eq!(
            r.path(BrokerId::new(0), BrokerId::new(3)).unwrap(),
            vec![BrokerId::new(0), BrokerId::new(1), BrokerId::new(3)]
        );
    }

    #[test]
    fn direct_neighbour_routes() {
        let g = diamond();
        let r = Routing::compute(&g);
        let entry = r.route(BrokerId::new(1), BrokerId::new(0)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(0));
        assert_eq!(entry.stats.downstream_brokers, 1);
        assert!((entry.stats.mean_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn self_route_and_unreachable() {
        let g = diamond();
        let r = Routing::compute(&g);
        assert!(r.route(BrokerId::new(2), BrokerId::new(2)).is_none());
        assert_eq!(
            r.path_stats(BrokerId::new(2), BrokerId::new(2)),
            Some(PathStats::local())
        );
        assert!(r.route_or_err(BrokerId::new(2), BrokerId::new(2)).is_err());

        // A graph with an isolated broker: unreachable routes are None.
        let mut g2 = OverlayGraph::new();
        let a = g2.add_broker(None);
        let b = g2.add_broker(None);
        let _c = g2.add_broker(None);
        g2.add_bidirectional_link(a, b, quality(50.0));
        let r2 = Routing::compute(&g2);
        assert!(r2.route(BrokerId::new(0), BrokerId::new(2)).is_none());
        assert!(matches!(
            r2.route_or_err(BrokerId::new(0), BrokerId::new(2)),
            Err(BdpsError::Unreachable { from: 0, to: 2 })
        ));
        assert!(r2.path(BrokerId::new(0), BrokerId::new(2)).is_none());
    }

    #[test]
    fn next_hops_are_consistent_with_advertised_stats() {
        let g = diamond();
        let r = Routing::compute(&g);
        assert!(r.is_consistent());
        // Walking the path and summing link means must equal the advertised path mean.
        for from in 0..4u32 {
            for to in 0..4u32 {
                if from == to {
                    continue;
                }
                let from = BrokerId::new(from);
                let to = BrokerId::new(to);
                let stats = r.path_stats(from, to).unwrap();
                let path = r.path(from, to).unwrap();
                let mut sum = 0.0;
                for w in path.windows(2) {
                    sum += g
                        .link_between(w[0], w[1])
                        .unwrap()
                        .quality
                        .rate_distribution()
                        .mean();
                }
                assert!((sum - stats.mean_rate()).abs() < 1e-9);
                assert_eq!(stats.downstream_brokers as usize, path.len() - 1);
            }
        }
    }

    #[test]
    fn filtered_compute_routes_around_dead_links() {
        let g = diamond();
        // Kill both directions of the cheap B0 - B1 edge (links 0 and 1).
        let dead = [LinkId::new(0), LinkId::new(1)];
        let r = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        let entry = r.route(BrokerId::new(0), BrokerId::new(3)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(2), "must detour via B2");
        assert!((entry.stats.mean_rate() - 160.0).abs() < 1e-9);
        assert!(r.is_consistent());
        // With every link dead, nothing is reachable.
        let none = Routing::compute_filtered(&g, |_| false);
        assert!(none.route(BrokerId::new(0), BrokerId::new(3)).is_none());
        // The unfiltered computation is unchanged by the refactor.
        let full = Routing::compute(&g);
        assert_eq!(
            full.route(BrokerId::new(0), BrokerId::new(3))
                .unwrap()
                .next_hop,
            BrokerId::new(1)
        );
    }

    /// Applies a liveness change to a cloned routing via the incremental
    /// path and checks it matches a from-scratch recompute exactly,
    /// returning the delta.
    fn update_and_check(
        g: &OverlayGraph,
        routing: &mut Routing,
        dead: &std::collections::HashSet<LinkId>,
        removed: &[LinkId],
        added: &[LinkId],
    ) -> RouteDelta {
        let before = routing.clone();
        let delta = routing.update_for_link_change(g, |l| !dead.contains(&l), removed, added);
        let scratch = Routing::compute_filtered(g, |l| !dead.contains(&l));
        assert_eq!(routing, &scratch, "incremental drifted from scratch");
        // The delta names exactly the pairs that differ from the old table.
        let mut expected = Vec::new();
        for dest in 0..g.broker_count() {
            for src in 0..g.broker_count() {
                let (src_id, dest_id) = (BrokerId::new(src as u32), BrokerId::new(dest as u32));
                if before.route(src_id, dest_id) != scratch.route(src_id, dest_id) {
                    expected.push((src_id, dest_id));
                }
            }
        }
        let mut reported: Vec<(BrokerId, BrokerId)> = delta.pairs().collect();
        reported.sort_unstable_by_key(|&(s, d)| (d, s));
        expected.sort_unstable_by_key(|&(s, d)| (d, s));
        assert_eq!(reported, expected, "delta must be exact");
        assert_eq!(delta.changed_pairs(), expected.len());
        delta
    }

    #[test]
    fn incremental_update_matches_scratch_and_reports_exact_delta() {
        let g = diamond();
        let mut routing = Routing::compute(&g);
        let mut dead = std::collections::HashSet::new();

        // Kill the cheap B0 -> B1 direction: every route using it moves.
        dead.insert(LinkId::new(0));
        let delta = update_and_check(&g, &mut routing, &dead, &[LinkId::new(0)], &[]);
        assert!(!delta.is_empty());
        assert!(delta
            .changed_dests(BrokerId::new(0))
            .contains(&BrokerId::new(3)));
        assert_eq!(
            routing
                .route(BrokerId::new(0), BrokerId::new(3))
                .unwrap()
                .next_hop,
            BrokerId::new(2)
        );

        // Restore it: the delta must undo exactly what the removal changed.
        dead.remove(&LinkId::new(0));
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[LinkId::new(0)]);
        assert!(!delta.is_empty());
        assert_eq!(routing, Routing::compute(&g));
    }

    /// Line B0 - B1 - B2 on cheap links (links 0..=3) plus a one-way
    /// expensive shortcut B0 -> B2 (link 4) that no shortest path uses
    /// (100 via the line vs 200 direct).
    fn line_with_unused_shortcut() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0));
        g.add_bidirectional_link(b1, b2, quality(50.0));
        g.add_link(b0, b2, quality(200.0));
        g
    }

    #[test]
    fn removing_an_unused_link_repairs_nothing() {
        let g = line_with_unused_shortcut();
        let mut routing = Routing::compute(&g);
        let unused = LinkId::new(4);
        for dest in 0..3u32 {
            for src in 0..3u32 {
                if let Some(e) = routing.route(BrokerId::new(src), BrokerId::new(dest)) {
                    assert_ne!(e.next_link, unused, "the shortcut must be unused");
                }
            }
        }
        let mut dead = std::collections::HashSet::new();
        dead.insert(unused);
        let delta = update_and_check(&g, &mut routing, &dead, &[unused], &[]);
        assert!(delta.is_empty());
        assert_eq!(delta.dests_repaired(), 0, "no tree uses the dead link");
    }

    #[test]
    fn restoring_a_non_improving_link_repairs_nothing() {
        let g = line_with_unused_shortcut();
        // Start with the shortcut dead, then restore it: the line still wins
        // everywhere, so the restoration must not recompute anything.
        let mut dead: std::collections::HashSet<LinkId> = [LinkId::new(4)].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        dead.remove(&LinkId::new(4));
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[LinkId::new(4)]);
        assert!(delta.is_empty());
        assert_eq!(delta.dests_repaired(), 0, "the shortcut never improves");
    }

    #[test]
    fn delta_covers_reachability_transitions() {
        // A line B0 - B1 - B2: killing both directions of the middle edge
        // makes B2 unreachable from B0 (and vice versa); entries vanish.
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0)); // links 0, 1
        g.add_bidirectional_link(b1, b2, quality(50.0)); // links 2, 3
        let mut routing = Routing::compute(&g);
        let batch = [LinkId::new(2), LinkId::new(3)];
        let mut dead: std::collections::HashSet<LinkId> = batch.into_iter().collect();
        let delta = update_and_check(&g, &mut routing, &dead, &batch, &[]);
        assert!(routing.route(b0, b2).is_none());
        assert!(delta.pairs().any(|(s, d)| s == b0 && d == b2));
        // Restoring re-creates the entries bit-for-bit.
        dead.clear();
        update_and_check(&g, &mut routing, &dead, &[], &batch);
        assert_eq!(routing, Routing::compute(&g));
        assert!(routing.route(b0, b2).is_some());
    }

    #[test]
    fn parallel_equal_cost_links_tie_break_on_link_id() {
        // Two parallel links B0 -> B1 with identical cost: the scratch
        // Dijkstra keeps the lower link id, so restoring the lower-id
        // duplicate while the higher-id one carries the route must flip
        // `next_link` — a change invisible to the (cost, next hop) pair.
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let low = g.add_link(b0, b1, quality(50.0)); // link 0
        let high = g.add_link(b0, b1, quality(50.0)); // link 1, same cost
        g.add_link(b1, b0, quality(50.0)); // link 2, so b1 routes back

        // Start with the low-id duplicate dead: routes use the high-id link.
        let mut dead: std::collections::HashSet<LinkId> = [low].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        assert_eq!(routing.route(b0, b1).unwrap().next_link, high);

        // Restore it: the incremental update must flip next_link to the
        // lower id, exactly like the from-scratch recompute.
        dead.clear();
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[low]);
        assert!(!delta.is_empty(), "the next_link flip must be reported");
        assert_eq!(routing.route(b0, b1).unwrap().next_link, low);
    }

    #[test]
    fn mixed_batches_with_net_no_op_links() {
        // Simultaneously remove the cheap path's forward links and restore
        // nothing: then hand the incremental path a batch where one link
        // flapped down and up (net no change) alongside a real removal.
        let g = diamond();
        let mut routing = Routing::compute(&g);
        let mut dead = std::collections::HashSet::new();
        dead.insert(LinkId::new(2)); // B1 -> B3 dies
        let delta = update_and_check(&g, &mut routing, &dead, &[LinkId::new(2)], &[]);
        assert!(!delta.is_empty());
        // A net-no-op flap is simply absent from both removed and added:
        // the same batch shape the engine produces after coalescing.
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[]);
        assert!(delta.is_empty());
    }

    #[test]
    fn asymmetric_directed_links_respected() {
        // Only a one-way link B0 -> B1 exists; B1 cannot reach B0.
        let mut g = OverlayGraph::new();
        let a = g.add_broker(None);
        let b = g.add_broker(None);
        g.add_link(a, b, quality(50.0));
        let r = Routing::compute(&g);
        assert!(r.route(a, b).is_some());
        assert!(r.route(b, a).is_none());
    }
}
