//! # anton2-des — deterministic discrete-event simulation kernel
//!
//! The shared substrate under both the interconnect model (`anton2-net`)
//! and the node microarchitecture model (`anton2-asic`) of the Anton 2
//! reproduction. It provides:
//!
//! * [`SimTime`] — integer-picosecond simulated time;
//! * [`EventQueue`] — a pending-event set with deterministic FIFO ordering
//!   for simultaneous events, so every run is bit-reproducible;
//! * [`stats`] — streaming summaries, latency histograms, and busy-interval
//!   tracking used to report utilization and computation/communication
//!   overlap, the paper's central architectural metric.
//!
//! Design note: the queue is generic over the event payload and hands control
//! back to the caller for each event rather than owning a component registry.
//! The machine model in `anton2-core` composes hundreds of routers, PPIM
//! arrays, and geometry cores; keeping dispatch in one match statement per
//! simulator makes the whole machine a pure function of its inputs, which is
//! what lets the test suite assert bitwise determinism.

pub mod queue;
pub mod stats;
pub mod time;

pub use queue::{run_until_quiescent, EventQueue, TimeSlot};
pub use stats::{BusyTracker, FaultCounters, LatencyHistogram, Summary};
pub use time::{cycles_to_time, SimTime};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in nondecreasing time order regardless of
        /// insertion order.
        #[test]
        fn pop_order_is_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ps(t), i);
            }
            let mut last = 0u64;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t.as_ps() >= last);
                last = t.as_ps();
            }
        }

        /// Among events with equal timestamps, delivery preserves insertion
        /// order (stable tie-breaking).
        #[test]
        fn equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_ps(42), i);
            }
            let out: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        }

        /// Two queues fed the same schedule produce identical event traces.
        #[test]
        fn determinism_across_runs(times in proptest::collection::vec(0u64..10_000, 1..100)) {
            let run = || {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_ps(t), i);
                }
                let mut trace = Vec::new();
                while let Some((t, e)) = q.pop() {
                    trace.push((t.as_ps(), e));
                }
                trace
            };
            prop_assert_eq!(run(), run());
        }

        /// cycles_to_time is monotone in cycle count.
        #[test]
        fn cycles_to_time_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000, ghz in 0.1f64..10.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cycles_to_time(lo, ghz) <= cycles_to_time(hi, ghz));
        }
    }
}
