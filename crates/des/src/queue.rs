//! Deterministic pending-event queue.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO), which makes every simulation in this workspace exactly
//! reproducible regardless of hash seeds or thread interleavings. The Anton
//! papers lean heavily on determinism as a debugging and validation property;
//! the simulator honors that down to its core.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};

/// End-of-list / no-such-slot marker in the two slabs.
const NIL: u32 = u32::MAX;

/// log2 of the number of remembered time → bucket lines.
const RECENT_BITS: u32 = 6;

/// One pending event: its payload and the next event of the same instant.
/// A free node holds `None` and links the free list through `next`.
struct Node<E> {
    payload: Option<E>,
    next: u32,
}

/// The FIFO of events pending at one distinct timestamp, threaded through
/// the node slab. A bucket is live exactly while it is non-empty
/// (`head != NIL`); a free bucket links the free list through `tail`.
struct Bucket {
    time: SimTime,
    head: u32,
    tail: u32,
}

/// Handle to the bucket of one pending timestamp, returned by
/// [`EventQueue::schedule`]. [`EventQueue::schedule_in`] appends through it
/// without an ordered lookup. It is valid from the call that returned it
/// until no event is pending at its time any more — so at least until the
/// clock reaches that time — and stale from then on, even if the same time
/// is scheduled again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeSlot {
    time: SimTime,
    bucket: u32,
}

impl TimeSlot {
    /// The timestamp this slot's events are scheduled for.
    #[inline]
    pub fn time(self) -> SimTime {
        self.time
    }
}

/// A deterministic discrete-event queue.
///
/// Popping always yields the event with the smallest `(time, insertion order)`
/// key, so the simulation is a pure function of its inputs.
///
/// It is a calendar of FIFO buckets: an ordered index holds each *distinct*
/// pending timestamp once, and each timestamp owns a list of its events in
/// insertion order. The order therefore holds by construction — no sequence
/// numbers — and the ordered structure is touched once per distinct
/// timestamp, not once per event. The traffic this is built for is the torus
/// model's: lattice-aligned times with tens of events per instant.
pub struct EventQueue<E> {
    /// Every pending timestamp but the earliest → its (live) bucket.
    index: BTreeMap<SimTime, u32>,
    buckets: Vec<Bucket>,
    free_bucket: u32,
    nodes: Vec<Node<E>>,
    free_node: u32,
    /// Bucket of the earliest pending timestamp, kept out of the index so
    /// that moving on to the next instant is one ordered operation; `NIL` iff
    /// the queue is empty.
    front: u32,
    /// Buckets recently found through the index, by hashed timestamp. A line
    /// is a guess: it counts only if that bucket is live and has the wanted
    /// time, so stale lines need no upkeep.
    recent: [u32; 1 << RECENT_BITS],
    len: usize,
    now: SimTime,
    scheduled: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            index: BTreeMap::new(),
            buckets: Vec::new(),
            free_bucket: NIL,
            nodes: Vec::new(),
            free_node: NIL,
            front: NIL,
            recent: [NIL; 1 << RECENT_BITS],
            len: 0,
            now: SimTime::ZERO,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` for absolute time `at`, behind every event already
    /// pending at `at`. Returns the slot of `at`, through which later events
    /// for the same instant can be appended with [`EventQueue::schedule_in`].
    ///
    /// # Panics
    /// In debug builds, panics if `at` is in the past — a component may never
    /// rewrite history.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> TimeSlot {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        let bucket = self.bucket_of(at);
        self.append(bucket, payload);
        TimeSlot { time: at, bucket }
    }

    /// Schedule `payload` for `slot.time()`, exactly as
    /// `schedule(slot.time(), payload)` would, in O(1).
    ///
    /// # Panics
    /// In debug builds, panics on a stale slot: one whose time has no pending
    /// event any more (it was drained, so the slot may since have been handed
    /// to another timestamp).
    #[inline]
    pub fn schedule_in(&mut self, slot: TimeSlot, payload: E) {
        debug_assert!(
            self.serves(slot.bucket, slot.time),
            "stale time slot: nothing is pending at {:?} (now {:?})",
            slot.time,
            self.now
        );
        self.append(slot.bucket, payload);
    }

    /// Where `at`'s bucket is remembered in `recent`.
    #[inline]
    fn recent_line(at: SimTime) -> usize {
        // Timestamps sit on lattices (hop and serialization times), so mix
        // before taking the top bits.
        (at.as_ps().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT_BITS)) as usize
    }

    /// Is `bucket` the live bucket of `at`?
    #[inline]
    fn serves(&self, bucket: u32, at: SimTime) -> bool {
        self.buckets
            .get(bucket as usize)
            .is_some_and(|b| b.head != NIL && b.time == at)
    }

    /// The bucket of `at`, opened if nothing is pending there yet.
    fn bucket_of(&mut self, at: SimTime) -> u32 {
        let line = Self::recent_line(at);
        if self.serves(self.recent[line], at) {
            return self.recent[line];
        }
        let found = if self.front == NIL {
            self.front = Self::open_bucket(&mut self.buckets, &mut self.free_bucket, at);
            self.front
        } else {
            let front_time = self.buckets[self.front as usize].time;
            match at.cmp(&front_time) {
                Ordering::Equal => self.front,
                Ordering::Less => {
                    // A new earliest instant: the old front joins the index.
                    self.index.insert(front_time, self.front);
                    self.front = Self::open_bucket(&mut self.buckets, &mut self.free_bucket, at);
                    self.front
                }
                Ordering::Greater => match self.index.entry(at) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(Self::open_bucket(
                        &mut self.buckets,
                        &mut self.free_bucket,
                        at,
                    )),
                },
            }
        };
        self.recent[line] = found;
        found
    }

    /// A fresh, empty bucket for `at`, not yet reachable from `front` or
    /// the index. (On the two fields it needs, so that it can run while an
    /// index entry is held.)
    fn open_bucket(buckets: &mut Vec<Bucket>, free_bucket: &mut u32, at: SimTime) -> u32 {
        let fresh = Bucket {
            time: at,
            head: NIL,
            tail: NIL,
        };
        let b = *free_bucket;
        if b == NIL {
            let b = buckets.len();
            assert!(b < NIL as usize, "bucket slab is full");
            buckets.push(fresh);
            b as u32
        } else {
            *free_bucket = buckets[b as usize].tail;
            buckets[b as usize] = fresh;
            b
        }
    }

    /// Put `payload` at the tail of `bucket`, in a reused slab slot if one
    /// is free.
    #[inline]
    fn append(&mut self, bucket: u32, payload: E) {
        let node = Node {
            payload: Some(payload),
            next: NIL,
        };
        let n = self.free_node;
        let n = if n == NIL {
            let n = self.nodes.len();
            assert!(n < NIL as usize, "event slab is full");
            self.nodes.push(node);
            n as u32
        } else {
            self.free_node = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let b = &mut self.buckets[bucket as usize];
        if b.head == NIL {
            b.head = n;
        } else {
            self.nodes[b.tail as usize].next = n;
        }
        b.tail = n;
        self.len += 1;
        self.scheduled += 1;
    }

    /// Schedule `payload` for `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) -> TimeSlot {
        self.schedule(self.now + delay, payload)
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front == NIL {
            return None;
        }
        let b = self.front;
        let bucket = &mut self.buckets[b as usize];
        let time = bucket.time;
        let n = bucket.head;
        let node = &mut self.nodes[n as usize];
        let payload = node
            .payload
            .take()
            .expect("a node on a bucket's list holds its payload");
        bucket.head = node.next;
        node.next = self.free_node;
        self.free_node = n;
        if bucket.head == NIL {
            // Drained: the bucket is free, the next instant moves up.
            bucket.tail = self.free_bucket;
            self.free_bucket = b;
            self.front = self.index.pop_first().map_or(NIL, |(_, next)| next);
        }
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.len -= 1;
        self.delivered += 1;
        Some((time, payload))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets.get(self.front as usize).map(|b| b.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events ever delivered.
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Event slots ever allocated: the high-water mark of [`EventQueue::len`].
    /// Popped slots are reused before the slab grows, so storage follows the
    /// events in flight, not the events ever scheduled.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }
}

/// Runs an event loop to completion (or until `limit` events), delivering each
/// event to `handler` together with a mutable reference to the queue so the
/// handler can schedule follow-on events.
///
/// Returns the number of events delivered.
pub fn run_until_quiescent<E, W>(
    queue: &mut EventQueue<E>,
    world: &mut W,
    limit: u64,
    mut handler: impl FnMut(&mut W, &mut EventQueue<E>, SimTime, E),
) -> u64 {
    let mut n = 0;
    while n < limit {
        let Some((t, ev)) = queue.pop() else { break };
        handler(world, queue, t, ev);
        n += 1;
    }
    n
}

/// The binary heap keyed `(time, seq)` that the calendar replaced, kept as
/// the oracle for what "smallest `(time, insertion order)` first" means.
#[cfg(test)]
mod heap_oracle {
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub struct HeapQueue<E> {
        /// `seq` is unique, so the payload never decides an ordering.
        heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
        next_seq: u64,
        pub now: SimTime,
        pub scheduled: u64,
        pub delivered: u64,
    }

    impl<E: Ord> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
                scheduled: 0,
                delivered: 0,
            }
        }

        pub fn schedule(&mut self, at: SimTime, payload: E) {
            assert!(at >= self.now);
            self.heap.push(Reverse((at, self.next_seq, payload)));
            self.next_seq += 1;
            self.scheduled += 1;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((time, _, payload)) = self.heap.pop()?;
            self.now = time;
            self.delivered += 1;
            Some((time, payload))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((time, _, _))| *time)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::heap_oracle::HeapQueue;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Tie-heavy traffic — every timestamp is `now` plus one of eight
        /// lattice offsets (zero included), schedules and pops interleaved,
        /// slot appends mixed with ordered schedules — pops in exactly the
        /// heap's `(time, seq)` order, with every observable equal after
        /// every operation.
        #[test]
        fn matches_the_heap_on_tie_heavy_streams(
            ops in proptest::collection::vec((0u8..5, 0usize..8), 1..400),
        ) {
            const LATTICE_PS: [u64; 8] = [0, 45, 90, 135, 180, 832, 877, 1664];
            let mut q = EventQueue::new();
            let mut oracle = HeapQueue::new();
            // Per pending timestamp: its slot and how many events it holds,
            // which is how long the slot stays valid.
            let mut slots: BTreeMap<SimTime, (TimeSlot, usize)> = BTreeMap::new();
            let popped = |q: &mut EventQueue<usize>,
                              oracle: &mut HeapQueue<usize>,
                              slots: &mut BTreeMap<SimTime, (TimeSlot, usize)>| {
                let got = q.pop();
                assert_eq!(got, oracle.pop());
                if let Some((t, _)) = got {
                    let entry = slots.get_mut(&t).expect("popped time was pending");
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        slots.remove(&t);
                    }
                }
                got.is_some()
            };
            for (k, &(op, i)) in ops.iter().enumerate() {
                let at = q.now() + SimTime::from_ps(LATTICE_PS[i]);
                match op {
                    0..=2 => {
                        let slot = if op == 2 {
                            q.schedule_after(SimTime::from_ps(LATTICE_PS[i]), k)
                        } else {
                            q.schedule(at, k)
                        };
                        oracle.schedule(at, k);
                        prop_assert_eq!(slot.time(), at);
                        let entry = slots.entry(at).or_insert((slot, 0));
                        prop_assert_eq!(entry.0, slot, "one slot per pending time");
                        entry.1 += 1;
                    }
                    3 => {
                        // Append through the slot of the i-th pending time.
                        let nth = i % slots.len().max(1);
                        if let Some((&t, entry)) = slots.iter_mut().nth(nth) {
                            q.schedule_in(entry.0, k);
                            oracle.schedule(t, k);
                            entry.1 += 1;
                        }
                    }
                    _ => {
                        popped(&mut q, &mut oracle, &mut slots);
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
                prop_assert_eq!(q.is_empty(), oracle.len() == 0);
                prop_assert_eq!(q.peek_time(), oracle.peek_time());
                prop_assert_eq!(q.now(), oracle.now);
                prop_assert_eq!(q.total_scheduled(), oracle.scheduled);
                prop_assert_eq!(q.total_delivered(), oracle.delivered);
            }
            while popped(&mut q, &mut oracle, &mut slots) {}
            prop_assert_eq!(q.total_delivered(), q.total_scheduled());
            prop_assert!(q.slab_len() <= ops.len());
        }
    }

    #[test]
    #[should_panic(expected = "stale time slot")]
    #[cfg(debug_assertions)]
    fn drained_slot_is_rejected_in_debug() {
        let mut q = EventQueue::new();
        let slot = q.schedule(SimTime::from_ps(10), 'a');
        q.pop();
        q.schedule_in(slot, 'b');
    }

    #[test]
    #[should_panic(expected = "stale time slot")]
    #[cfg(debug_assertions)]
    fn slot_reused_for_another_time_is_rejected_in_debug() {
        let mut q = EventQueue::new();
        let slot = q.schedule(SimTime::from_ps(10), 'a');
        q.pop();
        // The freed bucket now serves 20 ps; the old handle must not reach it.
        q.schedule(SimTime::from_ps(20), 'b');
        q.schedule_in(slot, 'c');
    }

    #[test]
    fn slot_appends_land_behind_earlier_events_of_that_time() {
        let mut q = EventQueue::new();
        let late = q.schedule(SimTime::from_ps(50), 1);
        q.schedule(SimTime::from_ps(10), 0);
        q.schedule(SimTime::from_ps(50), 2);
        q.schedule_in(late, 3);
        assert_eq!(q.pop(), Some((SimTime::from_ps(10), 0)));
        q.schedule_in(late, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn storage_follows_events_in_flight_not_events_scheduled() {
        // 16 events, each re-parked 200 times at later instants — the
        // blocked-packet pattern: the slab never outgrows the 16.
        let mut q = EventQueue::new();
        for i in 0..16u64 {
            q.schedule(SimTime::from_ps(i % 4), i);
        }
        for _ in 0..16 * 200 {
            let (t, e) = q.pop().unwrap();
            q.schedule(t + SimTime::from_ps(3 + e % 2), e);
        }
        assert_eq!(q.len(), 16);
        assert_eq!(q.slab_len(), 16);
        assert_eq!(q.total_scheduled(), 16 + 16 * 200);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(30), "c");
        q.schedule(SimTime::from_ps(10), "a");
        q.schedule(SimTime::from_ps(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_ps(30));
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ps(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(100), 0u32);
        q.pop();
        q.schedule_after(SimTime::from_ps(50), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(150));
        assert_eq!(e, 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(100), ());
        q.pop();
        q.schedule(SimTime::from_ps(50), ());
    }

    #[test]
    fn run_until_quiescent_cascades() {
        // Each event at t < 5 schedules a successor 10 ps later.
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        let n = run_until_quiescent(&mut q, &mut seen, 1_000, |seen, q, t, k| {
            seen.push((t.as_ps(), k));
            if k < 5 {
                q.schedule_after(SimTime::from_ps(10), k + 1);
            }
        });
        assert_eq!(n, 6);
        assert_eq!(seen.last(), Some(&(50, 5)));
    }

    #[test]
    fn run_respects_event_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let n = run_until_quiescent(&mut q, &mut (), 10, |_, q, _, ()| {
            q.schedule_after(SimTime::from_ps(1), ());
        });
        assert_eq!(n, 10);
        assert!(!q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.len(), 1);
    }
}
