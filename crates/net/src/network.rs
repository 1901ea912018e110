//! Link-reservation network timing model.
//!
//! Packets route dimension-ordered over the torus with virtual cut-through
//! switching: a packet occupies each link along its path for its
//! serialization time, and contention is modeled by per-link reservations —
//! a packet departing a node waits until the required link is free. Driven
//! in causal (time-sorted) order by the machine's discrete-event loop, this
//! reproduces the latency/bandwidth/congestion behavior the scaling
//! experiments depend on, at a small fraction of a flit-level simulator's
//! cost.

use crate::fault::{FaultPlan, NetError, RetryConfig};
use crate::health::HealthMap;
use crate::torus::{Dir, NodeId, Torus};
use anton2_des::{EventQueue, FaultCounters, LatencyHistogram, SimTime, Summary, TimeSlot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Physical link and router parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Per-hop router + wire latency, ns.
    pub hop_latency_ns: f64,
    /// Usable bandwidth per directed link, GB/s (= bytes/ns).
    pub bandwidth_gbps: f64,
    /// Fixed per-packet overhead on the wire (header + CRC), bytes.
    pub header_bytes: u32,
    /// Software/injection overhead added once per message at the source, ns.
    pub injection_ns: f64,
}

impl LinkConfig {
    /// Serialization time of a packet of `bytes` payload on one link.
    #[inline]
    pub fn serialize_time(&self, bytes: u32) -> SimTime {
        let wire_bytes = (bytes + self.header_bytes) as f64;
        SimTime::from_ns_f64(wire_bytes / self.bandwidth_gbps)
    }

    /// Per-hop latency as simulated time.
    #[inline]
    pub fn hop_time(&self) -> SimTime {
        SimTime::from_ns_f64(self.hop_latency_ns)
    }
}

/// How packets pick among the minimal paths of the torus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Classic deterministic dimension-order (x, then y, then z).
    #[default]
    DimensionOrder,
    /// Minimal routing with a per-packet pseudo-random dimension order
    /// (keyed on src/dst), spreading hot flows across more links.
    RandomizedMinimal,
}

impl RoutingPolicy {
    /// The dimension order this policy picks for a flow — the baseline a
    /// health-driven route bias is scored against.
    pub fn order_for(self, src: NodeId, dst: NodeId) -> [u8; 3] {
        match self {
            RoutingPolicy::DimensionOrder => DIM_ORDERS[0],
            RoutingPolicy::RandomizedMinimal => {
                let h = (src as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(dst as u64)
                    .wrapping_mul(0xBF58476D1CE4E5B9);
                DIM_ORDERS[(h >> 32) as usize % 6]
            }
        }
    }
}

/// The six permutations of the three dimensions — the minimal route
/// alternatives both the network's dead-fabric avoidance and the planner's
/// health-driven route biasing choose among.
pub const DIM_ORDERS: [[u8; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Outcome of a transmit: when the payload fully arrives at each target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    pub node: NodeId,
    pub at: SimTime,
}

/// The torus network with per-link reservations.
#[derive(Clone, Debug)]
pub struct Network {
    pub torus: Torus,
    pub cfg: LinkConfig,
    /// Earliest time each directed link is free.
    link_free: Vec<SimTime>,
    /// Cumulative busy time per directed link, for utilization reporting.
    link_busy_ps: Vec<u64>,
    pub latency: Summary,
    pub latency_hist: LatencyHistogram,
    pub messages: u64,
    pub payload_bytes: u64,
    pub policy: RoutingPolicy,
    /// Injected faults; `None` (and inactive plans) leave every timing
    /// bit-identical to the fault-free model.
    pub fault: Option<FaultPlan>,
    /// Link-level retry protocol parameters.
    pub retry: RetryConfig,
    /// What the fault/recovery machinery did during the run.
    pub faults: FaultCounters,
    /// Payload bytes that actually arrived (full deliveries only); equals
    /// `payload_bytes` whenever every injected fault was recovered.
    pub delivered_bytes: u64,
    /// Observed fabric health, fed deterministically by the fault/retry
    /// protocol. Only its *structural* dead marks influence routing, so a
    /// populated-but-healthy map keeps timings bit-identical.
    pub health: HealthMap,
    /// Planner-installed per-flow dimension orders (health-driven route
    /// bias); empty means the routing policy decides alone.
    pub route_bias: BTreeMap<(NodeId, NodeId), [u8; 3]>,
    /// Reused buffers of the per-message paths, so that routing a message
    /// and growing a multicast tree allocate nothing.
    scratch: Scratch,
}

/// [`Network`]'s reused buffers; the contents mean nothing between calls.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The route (directed-link indices) of the message being sent.
    route: Vec<u32>,
    /// Multicast: destinations in delivery order.
    dsts: Vec<NodeId>,
    /// Multicast: when the packet head is available at each node, valid
    /// where `head_stamp` equals `stamp`.
    head_at: Vec<SimTime>,
    head_stamp: Vec<u32>,
    /// Multicast: links already carrying the packet are those stamped
    /// `stamp`.
    link_stamp: Vec<u32>,
    /// Bumped per multicast, which empties both stamped sets at once.
    stamp: u32,
}

impl Network {
    pub fn new(torus: Torus, cfg: LinkConfig) -> Self {
        Network {
            torus,
            cfg,
            link_free: vec![SimTime::ZERO; torus.n_links()],
            link_busy_ps: vec![0; torus.n_links()],
            latency: Summary::new(),
            latency_hist: LatencyHistogram::new(10.0, 1.5, 40),
            messages: 0,
            payload_bytes: 0,
            policy: RoutingPolicy::DimensionOrder,
            fault: None,
            retry: RetryConfig::default(),
            faults: FaultCounters::new(),
            delivered_bytes: 0,
            health: HealthMap::new(torus.n_links()),
            route_bias: BTreeMap::new(),
            scratch: Scratch {
                head_at: vec![SimTime::ZERO; torus.n_nodes() as usize],
                head_stamp: vec![0; torus.n_nodes() as usize],
                link_stamp: vec![0; torus.n_links()],
                ..Scratch::default()
            },
        }
    }

    /// Same network with a different routing policy.
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same network with an injected-fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Same network with a different link-level retry protocol.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// Same network with pre-existing health knowledge (e.g. carried over
    /// from an earlier run on the same fabric).
    pub fn with_health(mut self, health: HealthMap) -> Self {
        self.health = health;
        self
    }

    /// Same network with a planner-installed route bias.
    pub fn with_route_bias(mut self, bias: BTreeMap<(NodeId, NodeId), [u8; 3]>) -> Self {
        self.route_bias = bias;
        self
    }

    /// The dimension order of the minimal route this network picks for
    /// (src, dst). A planner-installed bias for the flow overrides the policy.
    fn flow_order(&self, src: NodeId, dst: NodeId) -> [u8; 3] {
        if !self.route_bias.is_empty() {
            if let Some(&order) = self.route_bias.get(&(src, dst)) {
                return order;
            }
        }
        self.policy.order_for(src, dst)
    }

    /// Reset reservations and statistics (e.g. between benchmark repeats).
    /// The fault plan, health knowledge, and route bias all survive: they
    /// are configuration/learned state, not per-run accounting.
    pub fn reset(&mut self) {
        self.link_free.fill(SimTime::ZERO);
        self.link_busy_ps.fill(0);
        self.latency = Summary::new();
        self.latency_hist = LatencyHistogram::new(10.0, 1.5, 40);
        self.messages = 0;
        self.payload_bytes = 0;
        self.faults = FaultCounters::new();
        self.delivered_bytes = 0;
    }

    /// Is the configured fault plan (if any) capable of injecting faults?
    fn fault_active(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultPlan::is_active)
    }

    /// Does `path` (directed-link indices) avoid every dead link and dead
    /// transit node, per both the fault plan's structural faults and the
    /// health map's observed ones? With neither in play this is a single
    /// O(1) check.
    fn path_clear(&self, path: &[u32]) -> bool {
        let plan = self.fault.as_ref();
        let observed = self.health.has_dead();
        if plan.is_none() && !observed {
            return true;
        }
        path.iter().all(|&link| {
            let link = link as usize;
            let next = self.torus.link_dst(link);
            plan.is_none_or(|p| !p.link_dead(link) && !p.node_dead(next))
                && (!observed || (!self.health.link_dead(link) && !self.health.node_dead(next)))
        })
    }

    /// Record the fault plan's structural faults along `path` into the
    /// health map, so planning learns of dead fabric the moment routing
    /// first collides with it.
    fn mark_blocked(&mut self, path: &[u32]) {
        for &link in path {
            let link = link as usize;
            let next = self.torus.link_dst(link);
            let (dead_link, dead_node) = match self.fault.as_ref() {
                Some(p) => (p.link_dead(link), p.node_dead(next)),
                None => (false, false),
            };
            if dead_link {
                self.health.mark_link_dead(link);
            }
            if dead_node {
                self.health.mark_node_dead(next);
            }
        }
    }

    /// Append to `out` the minimal route of dimension order `order` if it
    /// avoids the dead fabric; otherwise re-route by scanning the six
    /// minimal dimension orders, then — if every minimal path is blocked —
    /// by a single non-minimal detour through a live neighbor of the
    /// source. Each recovery counts one reroute; a fully cut-off pair errors
    /// out and leaves `out` as it was.
    fn healthy_route(
        &mut self,
        order: [u8; 3],
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<u32>,
    ) -> Result<(), NetError> {
        let start = out.len();
        self.torus.route_links_into(src, dst, order, out);
        if self.path_clear(&out[start..]) {
            return Ok(());
        }
        self.mark_blocked(&out[start..]);
        for order in DIM_ORDERS {
            out.truncate(start);
            self.torus.route_links_into(src, dst, order, out);
            if self.path_clear(&out[start..]) {
                self.faults.reroutes += 1;
                return Ok(());
            }
        }
        // Non-minimal escape: one hop to a live neighbor, then minimal.
        // In rings of length 2 this is what lets traffic use the
        // oppositely-directed link of a dead pair.
        for dir in Dir::ALL {
            let w = self.torus.neighbor(src, dir);
            if w == src {
                continue; // ring of length 1: the link loops back
            }
            let first = self.torus.link_index(src, dir) as u32;
            if !self.path_clear(&[first]) {
                continue;
            }
            for order in DIM_ORDERS {
                out.truncate(start);
                out.push(first);
                self.torus.route_links_into(w, dst, order, out);
                if self.path_clear(&out[start..]) {
                    self.faults.reroutes += 1;
                    return Ok(());
                }
            }
        }
        out.truncate(start);
        Err(NetError::Unroutable { src, dst })
    }

    /// Endpoint liveness check plus policy routing with dead-fabric
    /// avoidance; the route's directed-link indices are appended to `out`.
    fn route_for(&mut self, src: NodeId, dst: NodeId, out: &mut Vec<u32>) -> Result<(), NetError> {
        let plan_dead = self
            .fault
            .as_ref()
            .and_then(|p| [src, dst].into_iter().find(|&end| p.node_dead(end)));
        if let Some(end) = plan_dead {
            self.health.mark_node_dead(end);
            self.faults.node_drops += 1;
            return Err(NetError::NodeDown(end));
        }
        if self.health.has_dead() {
            for end in [src, dst] {
                if self.health.node_dead(end) {
                    self.faults.node_drops += 1;
                    return Err(NetError::NodeDown(end));
                }
            }
        }
        self.healthy_route(self.flow_order(src, dst), src, dst, out)
    }

    /// Move one packet head across `link` under the fault/retry protocol:
    /// transient stalls delay the claim, CRC corruptions retransmit after
    /// timeout + capped exponential backoff, and exhausting the budget is a
    /// typed error. Returns when the head reaches the downstream router.
    /// With no active fault plan this is exactly claim + hop latency.
    #[allow(clippy::too_many_arguments)]
    fn cross_link(
        &mut self,
        link: usize,
        head: SimTime,
        ser: SimTime,
        hop: SimTime,
        msg: u64,
        src: NodeId,
        dst: NodeId,
    ) -> Result<SimTime, NetError> {
        if !self.fault_active() {
            let start = self.claim(link, head, ser);
            return Ok(start + hop);
        }
        let mut ready = head;
        let mut attempt = 0u32;
        loop {
            let (stall, stall_t, corrupt) = match self.fault.as_ref() {
                Some(p) => (
                    p.stalls(link, msg, attempt),
                    p.stall,
                    p.corrupts(link, msg, attempt),
                ),
                // `fault_active()` already short-circuited above; a missing
                // plan past this point just means no injected faults.
                None => (false, SimTime::ZERO, false),
            };
            if stall {
                self.faults.link_stalls += 1;
                self.health.observe_stall(link, stall_t);
                ready += stall_t;
            }
            let start = self.claim(link, ready, ser);
            if !corrupt {
                self.health.observe_crossing(link, attempt);
                return Ok(start + hop);
            }
            self.faults.link_retransmits += 1;
            if attempt >= self.retry.max_retries {
                self.faults.retry_exhausted += 1;
                self.health.observe_exhausted(link, attempt + 1);
                return Err(NetError::RetryExhausted {
                    src,
                    dst,
                    link,
                    attempts: attempt + 1,
                });
            }
            ready = start + ser + self.retry.delay(attempt);
            attempt += 1;
        }
    }

    /// Claim `link` from `ready` for `dur`; returns the actual start time
    /// (≥ `ready`, delayed by contention).
    fn claim(&mut self, link: usize, ready: SimTime, dur: SimTime) -> SimTime {
        let start = ready.max(self.link_free[link]);
        self.link_free[link] = start + dur;
        self.link_busy_ps[link] += dur.as_ps();
        start
    }

    /// Transmit `bytes` from `src` to `dst` starting at `now`; returns the
    /// arrival time of the tail of the packet at `dst`.
    ///
    /// A local "transmit" (src == dst) costs only the injection overhead.
    ///
    /// ```
    /// use anton2_net::{anton2_class_link, Network, Torus};
    /// use anton2_des::SimTime;
    ///
    /// let mut net = Network::new(Torus::new(4, 4, 4), anton2_class_link());
    /// let arrival = net.transmit(SimTime::ZERO, 0, 1, 1024);
    /// assert_eq!(arrival, net.ideal_latency(1, 1024)); // idle network
    /// ```
    pub fn transmit(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u32) -> SimTime {
        self.try_transmit(now, src, dst, bytes)
            .expect("unrecoverable network fault (use try_transmit to handle)")
    }

    /// Fallible [`Network::transmit`]: identical timing, but injected
    /// faults that the retry protocol cannot recover surface as a typed
    /// [`NetError`] instead of a panic.
    pub fn try_transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> Result<SimTime, NetError> {
        self.messages += 1;
        self.payload_bytes += bytes as u64;
        let msg = self.messages;
        let mut head = now + SimTime::from_ns_f64(self.cfg.injection_ns);
        if src == dst {
            if self.fault.as_ref().is_some_and(|p| p.node_dead(src)) {
                self.health.mark_node_dead(src);
                self.faults.node_drops += 1;
                return Err(NetError::NodeDown(src));
            }
            if self.health.has_dead() && self.health.node_dead(src) {
                self.faults.node_drops += 1;
                return Err(NetError::NodeDown(src));
            }
            self.record_latency(now, head);
            self.delivered_bytes += bytes as u64;
            return Ok(head);
        }
        let mut route = std::mem::take(&mut self.scratch.route);
        route.clear();
        let arrival = self.route_for(src, dst, &mut route).and_then(|()| {
            let ser = self.cfg.serialize_time(bytes);
            let hop = self.cfg.hop_time();
            for &link in &route {
                // Cut-through: the head moves on after the hop latency; the
                // tail arrives a serialization time later. Downstream links
                // can only be claimed once the head is there.
                head = self.cross_link(link as usize, head, ser, hop, msg, src, dst)?;
            }
            Ok(head + ser)
        });
        self.scratch.route = route;
        let tail_arrival = arrival?;
        self.record_latency(now, tail_arrival);
        self.delivered_bytes += bytes as u64;
        Ok(tail_arrival)
    }

    /// Multicast `bytes` from `src` to `dsts` along a dimension-ordered
    /// tree: shared route prefixes carry the packet once (the torus routers
    /// replicate at branch points, as Anton's network does for import
    /// regions). Returns the arrival time at every destination.
    pub fn multicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u32,
    ) -> Vec<Delivery> {
        self.try_multicast(now, src, dsts, bytes)
            .expect("unrecoverable network fault (use try_multicast to handle)")
    }

    /// Fallible [`Network::multicast`]: unrecoverable injected faults
    /// surface as a typed [`NetError`] instead of a panic.
    pub fn try_multicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u32,
    ) -> Result<Vec<Delivery>, NetError> {
        self.messages += 1;
        self.payload_bytes += bytes as u64 * dsts.len().max(1) as u64;
        let msg = self.messages;
        let plan_dead = self.fault.as_ref().and_then(|p| {
            std::iter::once(&src)
                .chain(dsts)
                .copied()
                .find(|&end| p.node_dead(end))
        });
        if let Some(end) = plan_dead {
            self.health.mark_node_dead(end);
            self.faults.node_drops += 1;
            return Err(NetError::NodeDown(end));
        }
        if self.health.has_dead() {
            for &end in std::iter::once(&src).chain(dsts) {
                if self.health.node_dead(end) {
                    self.faults.node_drops += 1;
                    return Err(NetError::NodeDown(end));
                }
            }
        }
        let mut sc = std::mem::take(&mut self.scratch);
        let out = self.grow_tree(&mut sc, now, src, dsts, bytes, msg);
        self.scratch = sc;
        out
    }

    /// The body of [`Network::try_multicast`] past the endpoint checks, on
    /// the scratch buffers taken out of `self`.
    fn grow_tree(
        &mut self,
        sc: &mut Scratch,
        now: SimTime,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u32,
        msg: u64,
    ) -> Result<Vec<Delivery>, NetError> {
        let degraded = self.health.has_dead()
            || self
                .fault
                .as_ref()
                .is_some_and(|p| p.dead_link_count() > 0 || p.dead_node_count() > 0);
        let inject = now + SimTime::from_ns_f64(self.cfg.injection_ns);
        let ser = self.cfg.serialize_time(bytes);
        let hop = self.cfg.hop_time();
        if sc.stamp == u32::MAX {
            sc.head_stamp.fill(0);
            sc.link_stamp.fill(0);
            sc.stamp = 0;
        }
        sc.stamp += 1;
        let stamp = sc.stamp;
        // head_at[node] = when the packet head is available at that node;
        // the injection time wherever the tree has not reached yet.
        sc.head_at[src as usize] = inject;
        sc.head_stamp[src as usize] = stamp;
        let mut out = Vec::with_capacity(dsts.len());
        // Deterministic order: sort destinations.
        sc.dsts.clear();
        sc.dsts.extend_from_slice(dsts);
        sc.dsts.sort_unstable();
        for &dst in &sc.dsts {
            if dst == src {
                out.push(Delivery {
                    node: dst,
                    at: inject,
                });
                self.delivered_bytes += bytes as u64;
                continue;
            }
            sc.route.clear();
            if degraded {
                self.healthy_route(DIM_ORDERS[0], src, dst, &mut sc.route)?;
            } else {
                self.torus
                    .route_links_into(src, dst, DIM_ORDERS[0], &mut sc.route);
            }
            let mut head = inject;
            for &link in &sc.route {
                let link = link as usize;
                let next = self.torus.link_dst(link) as usize;
                if sc.link_stamp[link] == stamp {
                    // Tree edge already carries the packet; head timing at
                    // `next` was recorded when the edge was claimed.
                    head = sc.head_at[next];
                    continue;
                }
                let node = self.torus.link_src(link) as usize;
                let ready = if sc.head_stamp[node] == stamp {
                    sc.head_at[node]
                } else {
                    inject
                };
                head = self.cross_link(link, ready, ser, hop, msg, src, dst)?;
                sc.head_at[next] = head;
                sc.head_stamp[next] = stamp;
                sc.link_stamp[link] = stamp;
            }
            let at = head + ser;
            self.record_latency(now, at);
            self.delivered_bytes += bytes as u64;
            out.push(Delivery { node: dst, at });
        }
        Ok(out)
    }

    /// Deliver a batch of messages with proper time-ordered arbitration.
    ///
    /// Unlike sequential [`Network::transmit`] calls (which grant link
    /// reservations in *processing* order and can make late-processed
    /// packets queue behind reservations made for later instants), this
    /// drives all packets through a single discrete-event loop: link claims
    /// are granted in simulated-time order with deterministic FIFO
    /// tie-breaking. Use it whenever a phase injects many packets.
    ///
    /// Returns the tail-arrival time of each message, in input order.
    pub fn run_batch(&mut self, msgs: &[(SimTime, NodeId, NodeId, u32)]) -> Vec<SimTime> {
        self.try_run_batch(msgs)
            .into_iter()
            .map(|r| r.expect("unrecoverable network fault (use try_run_batch to handle)"))
            .collect()
    }

    /// Fallible [`Network::run_batch`]: per-message results, in input
    /// order. Fault injections enter the same discrete-event loop as
    /// ordinary hops — a corrupted crossing schedules its retransmission as
    /// a future event, so retries arbitrate against live traffic in
    /// simulated-time order.
    pub fn try_run_batch(
        &mut self,
        msgs: &[(SimTime, NodeId, NodeId, u32)],
    ) -> Vec<Result<SimTime, NetError>> {
        /// One packet head waiting to claim a link.
        #[derive(Clone, Copy)]
        struct Hop {
            msg: u32,
            /// Position of the link to claim in the route arena.
            pos: u32,
            /// That link, so a blocked head re-parks without a route lookup.
            link: u32,
            /// Retransmission count on the current link.
            attempt: u32,
            /// The stall draw for this attempt already applied.
            stalled: bool,
        }
        let inj = SimTime::from_ns_f64(self.cfg.injection_ns);
        let hop_t = self.cfg.hop_time();
        // All routes as directed-link indices, back to back: message `k`
        // owns `routes[ends[k - 1]..ends[k]]`.
        let mut routes: Vec<u32> = Vec::new();
        let mut ends: Vec<u32> = Vec::with_capacity(msgs.len());
        let mut sers: Vec<SimTime> = Vec::with_capacity(msgs.len());
        let first_id = self.messages + 1;
        let mut done: Vec<Result<SimTime, NetError>> = vec![Ok(SimTime::ZERO); msgs.len()];
        let mut queue: EventQueue<Hop> = EventQueue::new();
        for (k, &(at, src, dst, bytes)) in msgs.iter().enumerate() {
            self.messages += 1;
            self.payload_bytes += bytes as u64;
            sers.push(self.cfg.serialize_time(bytes));
            let start = routes.len();
            match self.route_for(src, dst, &mut routes) {
                Err(e) => done[k] = Err(e),
                Ok(()) if routes.len() == start => {
                    done[k] = Ok(at + inj);
                    self.record_latency(at, at + inj);
                    self.delivered_bytes += bytes as u64;
                }
                Ok(()) => {
                    queue.schedule(
                        at + inj,
                        Hop {
                            msg: k as u32,
                            pos: start as u32,
                            link: routes[start],
                            attempt: 0,
                            stalled: false,
                        },
                    );
                }
            }
            ends.push(routes.len() as u32);
        }
        let in_flight = queue.len();
        // wake[link]: the queue slot of the instant `link` frees, once a
        // blocked head has been parked there. `link_free` only moves forward
        // and a slot lives while its time is in the future, so the memo is
        // current exactly when its time is still `link_free[link]`.
        let mut wake: Vec<Option<TimeSlot>> = vec![None; self.link_free.len()];
        let hot = self.fault_active();
        while let Some((t, ev)) = queue.pop() {
            let m = ev.msg as usize;
            let link = ev.link as usize;
            let free = self.link_free[link];
            if free > t {
                // Busy: retry when the link frees (FIFO tie-break keeps
                // arbitration deterministic and fair). A link under
                // contention re-parks every waiter at every grant, so this
                // is the loop's most-travelled path.
                match wake[link] {
                    Some(slot) if slot.time() == free => queue.schedule_in(slot, ev),
                    _ => wake[link] = Some(queue.schedule(free, ev)),
                }
                continue;
            }
            let id = first_id + m as u64;
            if hot && !ev.stalled {
                let (stall, stall_t) = match self.fault.as_ref() {
                    Some(p) => (p.stalls(link, id, ev.attempt), p.stall),
                    None => (false, SimTime::ZERO),
                };
                if stall {
                    self.faults.link_stalls += 1;
                    self.health.observe_stall(link, stall_t);
                    queue.schedule(
                        t + stall_t,
                        Hop {
                            stalled: true,
                            ..ev
                        },
                    );
                    continue;
                }
            }
            let ser = sers[m];
            self.link_free[link] = t + ser;
            self.link_busy_ps[link] += ser.as_ps();
            if hot {
                let corrupt = self
                    .fault
                    .as_ref()
                    .is_some_and(|p| p.corrupts(link, id, ev.attempt));
                if corrupt {
                    self.faults.link_retransmits += 1;
                    if ev.attempt >= self.retry.max_retries {
                        self.faults.retry_exhausted += 1;
                        self.health.observe_exhausted(link, ev.attempt + 1);
                        let (_, src, dst, _) = msgs[m];
                        done[m] = Err(NetError::RetryExhausted {
                            src,
                            dst,
                            link,
                            attempts: ev.attempt + 1,
                        });
                        continue;
                    }
                    queue.schedule(
                        t + ser + self.retry.delay(ev.attempt),
                        Hop {
                            attempt: ev.attempt + 1,
                            stalled: false,
                            ..ev
                        },
                    );
                    continue;
                }
                self.health.observe_crossing(link, ev.attempt);
            }
            let head_next = t + hop_t;
            let next = ev.pos + 1;
            if next == ends[m] {
                let (at, _, _, bytes) = msgs[m];
                done[m] = Ok(head_next + ser);
                self.record_latency(at, head_next + ser);
                self.delivered_bytes += bytes as u64;
            } else {
                queue.schedule(
                    head_next,
                    Hop {
                        msg: ev.msg,
                        pos: next,
                        link: routes[next as usize],
                        attempt: 0,
                        stalled: false,
                    },
                );
            }
        }
        // Every message has at most one head in the queue, and the queue
        // reuses popped slots: its storage is bounded by the batch, however
        // often blocked heads were re-parked.
        debug_assert!(queue.slab_len() <= in_flight);
        done
    }

    fn record_latency(&mut self, sent: SimTime, arrived: SimTime) {
        let dt = arrived.saturating_sub(sent);
        self.latency.record(dt.as_ns_f64());
        self.latency_hist.record(dt);
    }

    /// Unloaded one-way latency for a payload over `hops` hops (no
    /// contention): the analytic model the simulator reduces to on an idle
    /// network.
    pub fn ideal_latency(&self, hops: u32, bytes: u32) -> SimTime {
        SimTime::from_ns_f64(self.cfg.injection_ns)
            + SimTime::from_ps(self.cfg.hop_time().as_ps() * hops as u64)
            + self.cfg.serialize_time(bytes)
    }

    /// Mean utilization of links that were used at all, over `[0, horizon)`.
    pub fn mean_active_utilization(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_ps().max(1) as f64;
        let active: Vec<f64> = self
            .link_busy_ps
            .iter()
            .filter(|&&b| b > 0)
            .map(|&b| b as f64 / h)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Peak link utilization over `[0, horizon)`.
    pub fn peak_utilization(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_ps().max(1) as f64;
        self.link_busy_ps
            .iter()
            .map(|&b| b as f64 / h)
            .fold(0.0, f64::max)
    }

    /// Earliest time every link is free (network fully drained).
    pub fn drained_at(&self) -> SimTime {
        self.link_free
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A convenient Anton-2-class link configuration.
///
/// `calibrated:` per-hop latency and bandwidth are set in the class of the
/// Anton publications (tens of ns per hop, tens of GB/s per link); exact
/// values are fitted so the DHFR@512 endpoint lands near the abstract's
/// 85 µs/day (see anton2-core::config for the machine-level constants).
pub fn anton2_class_link() -> LinkConfig {
    LinkConfig {
        hop_latency_ns: 45.0,
        bandwidth_gbps: 20.0,
        header_bytes: 16,
        injection_ns: 25.0,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::torus::Coord;

    fn net(n: u32) -> Network {
        Network::new(Torus::new(n, n, n), anton2_class_link())
    }

    #[test]
    fn unloaded_latency_matches_analytic_model() {
        let mut n = net(8);
        let src = 0;
        let dst = n.torus.id(Coord { x: 3, y: 2, z: 1 });
        let hops = n.torus.hops(src, dst);
        let t = n.transmit(SimTime::ZERO, src, dst, 256);
        assert_eq!(t, n.ideal_latency(hops, 256));
    }

    #[test]
    fn latency_grows_with_hops() {
        let mut n = net(8);
        let one_hop = n.transmit(SimTime::ZERO, 0, 1, 64);
        n.reset();
        let six_hops = n.transmit(SimTime::ZERO, 0, n.torus.id(Coord { x: 4, y: 2, z: 0 }), 64);
        assert!(six_hops > one_hop);
        let extra = (six_hops - one_hop).as_ns_f64();
        assert!((extra - 5.0 * 45.0).abs() < 1e-6, "extra {extra}");
    }

    #[test]
    fn bandwidth_limits_large_messages() {
        let mut n = net(4);
        let small = n.transmit(SimTime::ZERO, 0, 1, 64);
        n.reset();
        let large = n.transmit(SimTime::ZERO, 0, 1, 1_000_000);
        // 1 MB at 20 GB/s = 50 µs of serialization.
        let extra_us = (large - small).as_us_f64();
        assert!((extra_us - 50.0).abs() < 0.1, "extra {extra_us} µs");
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut n = net(4);
        // Two messages from node 0 to node 1 injected simultaneously share
        // the 0→1 link: the second is delayed by one serialization time.
        let t1 = n.transmit(SimTime::ZERO, 0, 1, 10_000);
        let t2 = n.transmit(SimTime::ZERO, 0, 1, 10_000);
        let ser = n.cfg.serialize_time(10_000);
        assert_eq!(t2, t1 + ser);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut n = net(4);
        let t1 = n.transmit(SimTime::ZERO, 0, 1, 10_000);
        // 2→3 uses different links entirely.
        let t2 = n.transmit(SimTime::ZERO, 2, 3, 10_000);
        assert_eq!(
            t1.saturating_sub(SimTime::ZERO),
            t2.saturating_sub(SimTime::ZERO)
        );
    }

    #[test]
    fn local_delivery_costs_injection_only() {
        let mut n = net(4);
        let t = n.transmit(SimTime::ZERO, 5, 5, 100_000);
        assert_eq!(t, SimTime::from_ns_f64(n.cfg.injection_ns));
    }

    #[test]
    fn multicast_shares_tree_edges() {
        let mut n = net(8);
        // Destinations along one line: 1, 2, 3 hops in +x. A unicast to each
        // would cross link 0→1 three times; the tree crosses it once.
        let dsts = [1u32, 2, 3];
        let deliveries = n.multicast(SimTime::ZERO, 0, &dsts, 5_000);
        assert_eq!(deliveries.len(), 3);
        let busy_0_to_1 = n.link_busy_ps[n.torus.link_index(0, Dir::XPlus)];
        let ser = n.cfg.serialize_time(5_000).as_ps();
        assert_eq!(busy_0_to_1, ser, "tree edge used once");
        // Arrival order follows distance.
        let at: std::collections::BTreeMap<_, _> =
            deliveries.iter().map(|d| (d.node, d.at)).collect();
        assert!(at[&1] < at[&2]);
        assert!(at[&2] < at[&3]);
    }

    #[test]
    fn multicast_beats_sequential_unicast() {
        let mut n = net(8);
        let dsts: Vec<NodeId> = (1..8).collect();
        let mc_done = n
            .multicast(SimTime::ZERO, 0, &dsts, 20_000)
            .iter()
            .map(|d| d.at)
            .max()
            .unwrap();
        let mut n2 = net(8);
        let mut uc_done = SimTime::ZERO;
        for &d in &dsts {
            uc_done = uc_done.max(n2.transmit(SimTime::ZERO, 0, d, 20_000));
        }
        assert!(
            mc_done <= uc_done,
            "multicast {mc_done} vs unicast {uc_done}"
        );
    }

    #[test]
    fn multicast_to_self_and_one() {
        let mut n = net(4);
        let deliveries = n.multicast(SimTime::ZERO, 0, &[0, 1], 100);
        assert_eq!(deliveries.len(), 2);
        let self_at = deliveries.iter().find(|d| d.node == 0).unwrap().at;
        assert_eq!(self_at, SimTime::from_ns_f64(n.cfg.injection_ns));
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(4);
        n.transmit(SimTime::ZERO, 0, 1, 100);
        n.transmit(SimTime::from_ns(500), 1, 2, 200);
        assert_eq!(n.messages, 2);
        assert_eq!(n.payload_bytes, 300);
        assert_eq!(n.latency.count(), 2);
        assert!(n.drained_at() > SimTime::ZERO);
        assert!(n.mean_active_utilization(SimTime::from_us(1)) > 0.0);
        assert!(n.peak_utilization(SimTime::from_us(1)) <= 1.0);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut n = net(8);
            let mut ts = Vec::new();
            for i in 0..50u32 {
                let src = i % 64;
                let dst = (i * 7 + 3) % 64;
                ts.push(
                    n.transmit(SimTime::from_ns(i as u64 * 10), src, dst, 1000 + i)
                        .as_ps(),
                );
            }
            ts
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::torus::Coord;

    fn net(n: u32) -> Network {
        Network::new(Torus::new(n, n, n), anton2_class_link())
    }

    fn batch(t: &Torus, count: u32) -> Vec<(SimTime, NodeId, NodeId, u32)> {
        (0..count)
            .map(|i| {
                let n = t.n_nodes();
                (
                    SimTime::from_ns(i as u64 * 7),
                    i % n,
                    (i * 13 + 5) % n,
                    512 + i * 3,
                )
            })
            .collect()
    }

    #[test]
    fn inactive_plan_is_bit_identical_to_no_plan() {
        let msgs = batch(&Torus::new(4, 4, 4), 60);
        let mut plain = net(4);
        let mut planned = net(4).with_faults(FaultPlan::new(99));
        assert_eq!(plain.run_batch(&msgs), planned.run_batch(&msgs));
        let a = plain.transmit(SimTime::ZERO, 0, 21, 4096);
        let b = planned.transmit(SimTime::ZERO, 0, 21, 4096);
        assert_eq!(a, b);
        assert_eq!(planned.faults, anton2_des::FaultCounters::default());
    }

    #[test]
    fn crc_faults_recover_and_deliver_every_byte() {
        let msgs = batch(&Torus::new(4, 4, 4), 80);
        let mut clean = net(4);
        clean.run_batch(&msgs);
        let mut faulty = net(4).with_faults(FaultPlan::new(7).with_crc_rate(0.2));
        let results = faulty.try_run_batch(&msgs);
        assert!(results.iter().all(Result::is_ok));
        assert!(faulty.faults.link_retransmits > 0, "0.2 CRC rate, 80 msgs");
        assert_eq!(faulty.delivered_bytes, clean.delivered_bytes);
        assert_eq!(faulty.delivered_bytes, faulty.payload_bytes);
    }

    #[test]
    fn every_seed_delivers_or_surfaces_typed_error() {
        let msgs = batch(&Torus::new(4, 4, 4), 40);
        for seed in 0..25u64 {
            let mut n = net(4)
                .with_faults(FaultPlan::new(seed).with_crc_rate(0.5))
                .with_retry(RetryConfig {
                    max_retries: 2,
                    ..RetryConfig::default()
                });
            let results = n.try_run_batch(&msgs);
            let ok_bytes: u64 = results
                .iter()
                .zip(&msgs)
                .filter(|(r, _)| r.is_ok())
                .map(|(_, &(_, _, _, b))| b as u64)
                .sum();
            // Accounting: every byte is either delivered or attributed to a
            // typed error — nothing is silently lost.
            assert_eq!(n.delivered_bytes, ok_bytes, "seed {seed}");
            let failures = results.iter().filter(|r| r.is_err()).count() as u64;
            assert_eq!(n.faults.retry_exhausted + n.faults.node_drops, failures);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let msgs = batch(&Torus::new(4, 4, 4), 50);
        let run = |seed: u64| {
            let mut n = net(4).with_faults(
                FaultPlan::new(seed)
                    .with_crc_rate(0.3)
                    .with_stall_rate(0.1, SimTime::from_ns(80)),
            );
            let r = n.try_run_batch(&msgs);
            (r, n.faults)
        };
        assert_eq!(run(5), run(5));
        let (a, _) = run(5);
        let (b, _) = run(6);
        assert_ne!(a, b, "different seeds should fault differently");
    }

    #[test]
    fn certain_corruption_exhausts_retries() {
        let mut n = net(4).with_faults(FaultPlan::new(1).with_crc_rate(1.0));
        let err = n.try_transmit(SimTime::ZERO, 0, 1, 256).unwrap_err();
        match err {
            NetError::RetryExhausted {
                src, dst, attempts, ..
            } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(attempts, n.retry.max_retries + 1);
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        assert_eq!(n.faults.retry_exhausted, 1);
        assert_eq!(n.delivered_bytes, 0);
    }

    #[test]
    fn retries_cost_timeout_and_backoff() {
        // Exactly one corruption on the single-hop route: first attempt at
        // the CRC-certain plan would loop forever, so pick a plan where
        // attempt 0 corrupts and attempt 1 does not, then check arithmetic.
        let link = Torus::new(4, 4, 4).link_index(0, Dir::XPlus);
        let seed = (0..)
            .find(|&s| {
                let p = FaultPlan::new(s).with_crc_rate(0.5);
                // msg id is 1 for the first transmit on a fresh network.
                p.corrupts(link, 1, 0) && !p.corrupts(link, 1, 1)
            })
            .unwrap();
        let mut clean = net(4);
        let base = clean.transmit(SimTime::ZERO, 0, 1, 256);
        let mut n = net(4).with_faults(FaultPlan::new(seed).with_crc_rate(0.5));
        let t = n.try_transmit(SimTime::ZERO, 0, 1, 256).unwrap();
        let ser = n.cfg.serialize_time(256);
        assert_eq!(t, base + ser + n.retry.delay(0));
        assert_eq!(n.faults.link_retransmits, 1);
    }

    #[test]
    fn certain_stalls_delay_every_hop() {
        let stall = SimTime::from_ns(100);
        let mut n = net(4).with_faults(FaultPlan::new(2).with_stall_rate(1.0, stall));
        let dst = n.torus.id(Coord { x: 2, y: 1, z: 0 });
        let hops = n.torus.hops(0, dst);
        let t = n.try_transmit(SimTime::ZERO, 0, dst, 256).unwrap();
        let ideal = n.ideal_latency(hops, 256);
        assert_eq!(
            t,
            ideal + SimTime::from_ps(stall.as_ps() * hops as u64),
            "one stall per link crossing"
        );
        assert_eq!(n.faults.link_stalls as u32, hops);
    }

    #[test]
    fn reroutes_around_a_dead_link() {
        let t = Torus::new(4, 4, 4);
        let dead = t.link_index(0, Dir::XPlus);
        let mut n = net(4).with_faults(FaultPlan::new(0).kill_link(dead));
        // 0 -> (1,1,0): x-first crosses the dead link, y-first avoids it.
        let dst = t.id(Coord { x: 1, y: 1, z: 0 });
        let arrival = n.try_transmit(SimTime::ZERO, 0, dst, 512).unwrap();
        assert_eq!(arrival, n.ideal_latency(2, 512), "reroute stays minimal");
        assert_eq!(n.faults.reroutes, 1);
        assert_eq!(n.link_busy_ps[dead], 0, "dead link never claimed");
    }

    #[test]
    fn detours_non_minimally_when_every_minimal_order_is_dead() {
        let t = Torus::new(4, 4, 4);
        // Pure-x destination: all six minimal dimension orders cross
        // 0 -+x-> 1, so recovery needs the single-detour escape (one hop
        // off-axis, then minimal from there).
        let dead = t.link_index(0, Dir::XPlus);
        let mut n = net(4).with_faults(FaultPlan::new(0).kill_link(dead));
        let arrival = n.try_transmit(SimTime::ZERO, 0, 1, 64).unwrap();
        assert_eq!(arrival, n.ideal_latency(3, 64), "detour adds two hops");
        assert_eq!(n.faults.reroutes, 1);
        assert_eq!(n.link_busy_ps[dead], 0, "dead link never claimed");
        // Colliding with the blockage taught the health map about it.
        assert!(n.health.link_dead(dead));
    }

    #[test]
    fn detour_uses_reverse_link_in_a_length_two_ring() {
        // 2×2×2 torus: each x-ring has two nodes, so +x and −x from node 0
        // reach the *same* neighbor over distinct directed links. Killing
        // the +x link must detour via −x at equal hop count.
        let t = Torus::new(2, 2, 2);
        let dead = t.link_index(0, Dir::XPlus);
        let mut n =
            Network::new(t, anton2_class_link()).with_faults(FaultPlan::new(0).kill_link(dead));
        let arrival = n.try_transmit(SimTime::ZERO, 0, 1, 64).unwrap();
        assert_eq!(arrival, n.ideal_latency(1, 64), "reverse link, same hops");
        assert_eq!(n.faults.reroutes, 1);
        assert_eq!(n.link_busy_ps[dead], 0);
        assert!(n.link_busy_ps[t.link_index(0, Dir::XMinus)] > 0);
    }

    #[test]
    fn unroutable_only_when_fully_cut_off() {
        let t = Torus::new(4, 4, 4);
        // Kill every outgoing link of node 0: no detour can escape.
        let mut plan = FaultPlan::new(0);
        for dir in Dir::ALL {
            plan = plan.kill_link(t.link_index(0, dir));
        }
        let mut n = net(4).with_faults(plan);
        assert_eq!(
            n.try_transmit(SimTime::ZERO, 0, 1, 64),
            Err(NetError::Unroutable { src: 0, dst: 1 })
        );
    }

    #[test]
    fn dead_nodes_refuse_and_reroute() {
        let t = Torus::new(4, 4, 4);
        let mut n = net(4).with_faults(FaultPlan::new(0).kill_node(2));
        assert_eq!(
            n.try_transmit(SimTime::ZERO, 0, 2, 64),
            Err(NetError::NodeDown(2))
        );
        assert_eq!(n.faults.node_drops, 1);
        // 0 -> 3 via x would transit dead node 2 (x-ring 0,1,2,3: minimal
        // path 0->3 is 1 hop backwards, so pick a dst that transits 2).
        let dst = t.id(Coord { x: 2, y: 1, z: 0 });
        let r = n.try_transmit(SimTime::ZERO, 0, dst, 64);
        assert!(r.is_ok(), "transit around dead node: {r:?}");
        assert!(n.faults.reroutes >= 1);
    }

    #[test]
    fn multicast_recovers_from_crc_faults() {
        let mut clean = net(4);
        let dsts: Vec<NodeId> = (1..10).collect();
        clean.multicast(SimTime::ZERO, 0, &dsts, 2048);
        let mut n = net(4).with_faults(FaultPlan::new(11).with_crc_rate(0.3));
        let deliveries = n.try_multicast(SimTime::ZERO, 0, &dsts, 2048).unwrap();
        assert_eq!(deliveries.len(), dsts.len());
        assert_eq!(n.delivered_bytes, clean.delivered_bytes);
        let mut down = net(4).with_faults(FaultPlan::new(11).kill_node(4));
        assert_eq!(
            down.try_multicast(SimTime::ZERO, 0, &dsts, 2048),
            Err(NetError::NodeDown(4))
        );
    }

    #[test]
    fn reset_clears_fault_state_but_keeps_plan() {
        let mut n = net(4).with_faults(FaultPlan::new(1).with_crc_rate(1.0));
        let _ = n.try_transmit(SimTime::ZERO, 0, 1, 64);
        assert!(n.faults.total_faults() > 0);
        n.reset();
        assert_eq!(n.faults, anton2_des::FaultCounters::default());
        assert_eq!(n.delivered_bytes, 0);
        assert!(n.fault.is_some(), "plan survives reset");
        assert_eq!(
            n.health.exhausted_total(),
            1,
            "health knowledge survives reset"
        );
    }

    #[test]
    fn health_learns_a_degraded_link_and_stops_paying_retries() {
        use crate::health::EXHAUSTION_DEAD_THRESHOLD;
        let t = Torus::new(4, 4, 4);
        let bad = t.link_index(0, Dir::XPlus);
        // Certain corruption on one link, nowhere else: crossings exhaust
        // the retry budget until the exhaustion threshold flags the link
        // dead, after which traffic detours and pays no more retries.
        let mut n = net(4).with_faults(FaultPlan::new(3).degrade_link(bad, 1.0));
        for i in 0..EXHAUSTION_DEAD_THRESHOLD {
            assert!(
                n.try_transmit(SimTime::ZERO, 0, 1, 64).is_err(),
                "crossing {i} should exhaust on the degraded link"
            );
        }
        assert!(n.health.link_dead(bad), "sustained exhaustion flags dead");
        let retries_before = n.faults.link_retransmits;
        let arrival = n.try_transmit(SimTime::ZERO, 0, 1, 64);
        assert!(arrival.is_ok(), "learned avoidance failed: {arrival:?}");
        assert_eq!(
            n.faults.link_retransmits, retries_before,
            "no retries paid once the link is known dead"
        );
        assert!(n.faults.reroutes >= 1);
    }

    #[test]
    fn health_ewma_is_a_pure_function_of_the_seed() {
        let msgs = batch(&Torus::new(4, 4, 4), 80);
        let run = || {
            let mut n = net(4).with_faults(FaultPlan::new(7).with_crc_rate(0.2));
            let _ = n.try_run_batch(&msgs);
            (0..n.health.n_links())
                .map(|l| n.health.link(l).unwrap().ewma_raw())
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "health must replay bit-identically");
        assert!(a.iter().any(|&e| e > 0), "0.2 CRC rate left no EWMA trace");
    }

    #[test]
    fn route_bias_overrides_dimension_order() {
        let t = Torus::new(4, 4, 4);
        let dst = t.id(Coord { x: 1, y: 1, z: 0 });
        let mut n = net(4);
        n.route_bias.insert((0, dst), [1, 0, 2]);
        n.transmit(SimTime::ZERO, 0, dst, 512);
        // y-first: the first link out of node 0 is +y, not +x.
        assert!(n.link_busy_ps[t.link_index(0, Dir::YPlus)] > 0);
        assert_eq!(n.link_busy_ps[t.link_index(0, Dir::XPlus)], 0);
        // Unbiased flows keep the policy's order.
        n.transmit(SimTime::ZERO, 0, 1, 512);
        assert!(n.link_busy_ps[t.link_index(0, Dir::XPlus)] > 0);
    }
}

#[cfg(test)]
mod routing_policy_tests {
    use super::*;
    use crate::torus::Coord;

    fn policy_route(net: &Network, src: NodeId, dst: NodeId) -> Vec<u32> {
        let mut path = Vec::new();
        net.torus
            .route_links_into(src, dst, net.flow_order(src, dst), &mut path);
        path
    }

    #[test]
    fn randomized_minimal_stays_minimal() {
        let t = Torus::new(8, 8, 8);
        let net =
            Network::new(t, anton2_class_link()).with_policy(RoutingPolicy::RandomizedMinimal);
        for src in (0..512).step_by(37) {
            for dst in (0..512).step_by(41) {
                let path = policy_route(&net, src, dst);
                assert_eq!(path.len() as u32, t.hops(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn randomized_routing_beats_dor_on_adversarial_corner_turn() {
        // Classic DOR pathology: every node in an x-row sends to a
        // destination in one y-column. DOR routes x-first, funneling all
        // flows through the corner node's links before turning; randomized
        // dimension orders split the traffic between x-first and y-first
        // paths.
        let t = Torus::new(8, 8, 8);
        let mut msgs = Vec::new();
        for x in 1..8u32 {
            for rep in 0..4u32 {
                let src = t.id(Coord { x, y: 0, z: rep });
                let dst = t.id(Coord {
                    x: 0,
                    y: (x + rep) % 7 + 1,
                    z: rep,
                });
                msgs.push((SimTime::ZERO, src, dst, 16_384u32));
            }
        }
        let mut dor = Network::new(t, anton2_class_link());
        let dor_done = dor.run_batch(&msgs).into_iter().max().unwrap();
        let mut rnd =
            Network::new(t, anton2_class_link()).with_policy(RoutingPolicy::RandomizedMinimal);
        let rnd_done = rnd.run_batch(&msgs).into_iter().max().unwrap();
        assert!(
            rnd_done < dor_done,
            "randomized {rnd_done} should beat DOR {dor_done} on the corner-turn pattern"
        );
    }

    #[test]
    fn policy_is_deterministic_per_flow() {
        let t = Torus::new(4, 4, 4);
        let net =
            Network::new(t, anton2_class_link()).with_policy(RoutingPolicy::RandomizedMinimal);
        let a = policy_route(&net, 3, 47);
        let b = policy_route(&net, 3, 47);
        assert_eq!(a, b);
    }
}
