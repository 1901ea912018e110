//! The batch loop as it stood on the binary-heap event queue with one route
//! vector per message, and the multicast tree as it stood on ordered maps
//! (commit e5b3197), kept verbatim as the oracles [`Network::try_run_batch`]
//! and [`Network::try_multicast`] are held to: same results, same
//! reservations, same statistics, to the bit, on the tie-heavy traffic where
//! an arbitration slip would show.

use super::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The `(time, seq)` heap that `anton2_des::EventQueue` used to be. `seq` is
/// unique, so the payload never decides an ordering.
struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
}

impl<E: Ord> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        Some((time, payload))
    }
}

impl Network {
    fn ref_policy_route(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, Dir)> {
        if !self.route_bias.is_empty() {
            if let Some(&order) = self.route_bias.get(&(src, dst)) {
                return self.torus.route_with_order(src, dst, order);
            }
        }
        self.torus
            .route_with_order(src, dst, self.policy.order_for(src, dst))
    }

    fn ref_path_clear(&self, path: &[(NodeId, Dir)]) -> bool {
        let plan = self.fault.as_ref();
        let observed = self.health.has_dead();
        if plan.is_none() && !observed {
            return true;
        }
        path.iter().all(|&(node, dir)| {
            let link = self.torus.link_index(node, dir);
            let next = self.torus.neighbor(node, dir);
            plan.is_none_or(|p| !p.link_dead(link) && !p.node_dead(next))
                && (!observed || (!self.health.link_dead(link) && !self.health.node_dead(next)))
        })
    }

    fn ref_mark_blocked(&mut self, path: &[(NodeId, Dir)]) {
        for &(node, dir) in path {
            let link = self.torus.link_index(node, dir);
            let next = self.torus.neighbor(node, dir);
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

    fn ref_healthy_route(
        &mut self,
        base: Vec<(NodeId, Dir)>,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Vec<(NodeId, Dir)>, NetError> {
        if self.ref_path_clear(&base) {
            return Ok(base);
        }
        self.ref_mark_blocked(&base);
        for order in DIM_ORDERS {
            let alt = self.torus.route_with_order(src, dst, order);
            if self.ref_path_clear(&alt) {
                self.faults.reroutes += 1;
                return Ok(alt);
            }
        }
        for dir in Dir::ALL {
            let w = self.torus.neighbor(src, dir);
            if w == src {
                continue;
            }
            let first = [(src, dir)];
            if !self.ref_path_clear(&first) {
                continue;
            }
            if w == dst {
                self.faults.reroutes += 1;
                return Ok(first.to_vec());
            }
            for order in DIM_ORDERS {
                let mut alt = Vec::with_capacity(1 + self.torus.hops(w, dst) as usize);
                alt.push((src, dir));
                alt.extend(self.torus.route_with_order(w, dst, order));
                if self.ref_path_clear(&alt) {
                    self.faults.reroutes += 1;
                    return Ok(alt);
                }
            }
        }
        Err(NetError::Unroutable { src, dst })
    }

    fn ref_route_for(&mut self, src: NodeId, dst: NodeId) -> Result<Vec<(NodeId, Dir)>, NetError> {
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
        let base = self.ref_policy_route(src, dst);
        self.ref_healthy_route(base, src, dst)
    }

    fn ref_try_run_batch(
        &mut self,
        msgs: &[(SimTime, NodeId, NodeId, u32)],
    ) -> Vec<Result<SimTime, NetError>> {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Hop {
            msg: u32,
            hop: u32,
            attempt: u32,
            stalled: bool,
        }
        let inj = SimTime::from_ns_f64(self.cfg.injection_ns);
        let hop_t = self.cfg.hop_time();
        let mut paths: Vec<Vec<usize>> = Vec::with_capacity(msgs.len());
        let mut sers: Vec<SimTime> = Vec::with_capacity(msgs.len());
        let mut ids: Vec<u64> = Vec::with_capacity(msgs.len());
        let mut done: Vec<Result<SimTime, NetError>> = vec![Ok(SimTime::ZERO); msgs.len()];
        let mut queue: HeapQueue<Hop> = HeapQueue::new();
        for (k, &(at, src, dst, bytes)) in msgs.iter().enumerate() {
            self.messages += 1;
            self.payload_bytes += bytes as u64;
            ids.push(self.messages);
            sers.push(self.cfg.serialize_time(bytes));
            match self.ref_route_for(src, dst) {
                Err(e) => {
                    done[k] = Err(e);
                    paths.push(Vec::new());
                }
                Ok(route) => {
                    let path: Vec<usize> = route
                        .into_iter()
                        .map(|(node, dir)| self.torus.link_index(node, dir))
                        .collect();
                    if path.is_empty() {
                        done[k] = Ok(at + inj);
                        self.record_latency(at, at + inj);
                        self.delivered_bytes += bytes as u64;
                    } else {
                        queue.schedule(
                            at + inj,
                            Hop {
                                msg: k as u32,
                                hop: 0,
                                attempt: 0,
                                stalled: false,
                            },
                        );
                    }
                    paths.push(path);
                }
            }
        }
        let hot = self.fault_active();
        while let Some((t, ev)) = queue.pop() {
            let m = ev.msg as usize;
            let link = paths[m][ev.hop as usize];
            if self.link_free[link] > t {
                let retry = self.link_free[link];
                queue.schedule(retry, ev);
                continue;
            }
            if hot && !ev.stalled {
                let (stall, stall_t) = match self.fault.as_ref() {
                    Some(p) => (p.stalls(link, ids[m], ev.attempt), p.stall),
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
                    .is_some_and(|p| p.corrupts(link, ids[m], ev.attempt));
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
                            msg: ev.msg,
                            hop: ev.hop,
                            attempt: ev.attempt + 1,
                            stalled: false,
                        },
                    );
                    continue;
                }
                self.health.observe_crossing(link, ev.attempt);
            }
            let head_next = t + hop_t;
            if ev.hop as usize + 1 == paths[m].len() {
                let (at, _, _, bytes) = msgs[m];
                done[m] = Ok(head_next + ser);
                self.record_latency(at, head_next + ser);
                self.delivered_bytes += bytes as u64;
            } else {
                queue.schedule(
                    head_next,
                    Hop {
                        msg: ev.msg,
                        hop: ev.hop + 1,
                        attempt: 0,
                        stalled: false,
                    },
                );
            }
        }
        done
    }

    fn ref_try_multicast(
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
        let degraded = self.health.has_dead()
            || self
                .fault
                .as_ref()
                .is_some_and(|p| p.dead_link_count() > 0 || p.dead_node_count() > 0);
        let inject = now + SimTime::from_ns_f64(self.cfg.injection_ns);
        let ser = self.cfg.serialize_time(bytes);
        let hop = self.cfg.hop_time();
        let mut head_at: BTreeMap<NodeId, SimTime> = BTreeMap::new();
        head_at.insert(src, inject);
        let mut used: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(dsts.len());
        let mut order: Vec<NodeId> = dsts.to_vec();
        order.sort_unstable();
        for dst in order {
            if dst == src {
                out.push(Delivery {
                    node: dst,
                    at: inject,
                });
                self.delivered_bytes += bytes as u64;
                continue;
            }
            let route = if degraded {
                self.ref_healthy_route(self.torus.route(src, dst), src, dst)?
            } else {
                self.torus.route(src, dst)
            };
            let mut head = inject;
            for (node, dir) in route {
                let next = self.torus.neighbor(node, dir);
                let link = self.torus.link_index(node, dir);
                if used.contains(&link) {
                    head = head_at[&next];
                    continue;
                }
                let ready = head_at.get(&node).copied().unwrap_or(inject);
                head = self.cross_link(link, ready, ser, hop, msg, src, dst)?;
                head_at.insert(next, head);
                used.insert(link);
            }
            let at = head + ser;
            self.record_latency(now, at);
            self.delivered_bytes += bytes as u64;
            out.push(Delivery { node: dst, at });
        }
        Ok(out)
    }

    /// Everything a batch leaves behind that a caller can read.
    fn observable(&self) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {} {} {:?} {} {:?}",
            self.link_free,
            self.link_busy_ps,
            self.latency,
            self.latency_hist,
            self.messages,
            self.payload_bytes,
            self.faults,
            self.delivered_bytes,
            self.health,
        )
    }
}

use proptest::prelude::*;

/// `count` messages on `torus` whose injection times and sizes come from
/// small lattices, so that equal timestamps — and with them the FIFO
/// tie-break across links — decide most arbitrations.
fn lattice_batch(torus: &Torus, count: usize, seed: u64) -> Vec<(SimTime, NodeId, NodeId, u32)> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) % below
    };
    let n = u64::from(torus.n_nodes());
    (0..count)
        .map(|_| {
            let at = SimTime::from_ns(45 * next(3));
            let bytes = [256u32, 1_024, 4_096][next(3) as usize];
            // Every fourth message aims at one hot node.
            let dst = if next(4) == 0 { 0 } else { next(n) as NodeId };
            (at, next(n) as NodeId, dst, bytes)
        })
        .collect()
}

fn scenarios(torus: Torus, seed: u64) -> Vec<(&'static str, Network)> {
    let net = || Network::new(torus, anton2_class_link());
    let lossy = FaultPlan::new(seed)
        .with_crc_rate(0.2)
        .with_stall_rate(0.1, SimTime::from_ns(80));
    let dead = torus.link_index(1 % torus.n_nodes(), Dir::XPlus);
    vec![
        ("clean", net()),
        ("crc+stall", net().with_faults(lossy.clone())),
        (
            "few retries",
            net().with_faults(lossy).with_retry(RetryConfig {
                max_retries: 1,
                ..RetryConfig::default()
            }),
        ),
        (
            "dead link",
            net().with_faults(FaultPlan::new(seed).kill_link(dead)),
        ),
        (
            "randomized",
            net().with_policy(RoutingPolicy::RandomizedMinimal),
        ),
    ]
}

proptest! {
    #[test]
    fn batch_loop_matches_the_heap_driven_reference(
        edge in proptest::sample::select(vec![2u32, 4, 8]),
        count in 1usize..400,
        seed in 0u64..1_000_000,
    ) {
        let torus = Torus::new(edge, edge, edge);
        let first = lattice_batch(&torus, count, seed);
        // A second batch lands on the reservations the first one left.
        let second = lattice_batch(&torus, count / 2 + 1, seed + 1);
        for (name, mut new) in scenarios(torus, seed) {
            let mut old = new.clone();
            for msgs in [&first, &second] {
                prop_assert_eq!(new.try_run_batch(msgs), old.ref_try_run_batch(msgs), "{}", name);
                prop_assert_eq!(new.observable(), old.observable(), "{}", name);
            }
        }
    }
}

proptest! {
    #[test]
    fn multicast_tree_matches_the_ordered_map_reference(
        edge in proptest::sample::select(vec![2u32, 4, 8]),
        trees in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let torus = Torus::new(edge, edge, edge);
        // (time, src, first dst, fan-out) per tree; destinations are drawn
        // unsorted, with repeats and now and then the source itself.
        let calls = lattice_batch(&torus, trees, seed);
        for (name, mut new) in scenarios(torus, seed) {
            let mut old = new.clone();
            for &(at, src, first, bytes) in &calls {
                let fan = 1 + (bytes as usize / 256 + first as usize) % 9;
                let dsts: Vec<NodeId> = (0..fan as u32)
                    .map(|k| (first + k * k * 7 + k) % torus.n_nodes())
                    .collect();
                prop_assert_eq!(
                    new.try_multicast(at, src, &dsts, bytes),
                    old.ref_try_multicast(at, src, &dsts, bytes),
                    "{}", name
                );
                prop_assert_eq!(new.observable(), old.observable(), "{}", name);
            }
        }
    }
}

/// What protects `peak_rss_mb`: however often blocked heads are re-parked,
/// the queue holds one slot per message in flight. (The loop asserts it in
/// debug builds; this drives the worst case through that assertion.)
#[test]
fn contended_batch_keeps_queue_storage_within_the_message_count() {
    let torus = Torus::new(4, 4, 4);
    // Everyone to node 0 at once: 63 senders funnel into six links, and
    // every grant re-parks every waiter.
    let msgs: Vec<_> = (1..64)
        .flat_map(|src| (0..8).map(move |_| (SimTime::ZERO, src, 0, 4_096u32)))
        .collect();
    let mut n = Network::new(torus, anton2_class_link());
    let done = n.run_batch(&msgs);
    assert_eq!(done.len(), msgs.len());
    let ser = n.cfg.serialize_time(4_096).as_ps();
    let into_zero: u64 = Dir::ALL
        .iter()
        .map(|&d| n.link_busy_ps[torus.link_index(torus.neighbor(0, d), d.opposite())])
        .sum();
    assert_eq!(into_zero, ser * msgs.len() as u64, "all traffic converged");
}
