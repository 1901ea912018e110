//! `machine_sweep`: the machine model alone, no MD stepping.
//!
//! Five fixed points on one DHFR system exercise `core.plan`,
//! `core.machine`, `net`, `des` and `asic`; the engine does nothing. Two
//! clocks are kept apart throughout: host time is what the simulator takes
//! to run a point, simulated time is what the modelled machine would take.
//! The simulated statistics are exact and must not move when a change only
//! makes the simulator faster.

use crate::host;
use crate::metrics::{per_layer, MetricSet, Outcome, POINTS, POINT_STATS};
use crate::spans::SpanLog;
use crate::stats::{fastest, median, ms, Fnv, SplitMix};
use crate::Run;
use anton2_core::cosim::verify_pair_forces;
use anton2_core::report::{simulate_performance, simulate_performance_with_faults, PerfReport};
use anton2_core::{ExecPolicy, Machine, MachineConfig, StepPlan};
use anton2_des::{EventQueue, SimTime};
use anton2_md::builders::{dhfr_benchmark, water_box};
use anton2_md::prelude::System;
use anton2_net::{anton2_class_link, FaultPlan, Network, RetryConfig, Torus};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const DT_FS: f64 = 2.5;
const RESPA: u32 = 2;

/// Sizes and fixed call counts of the sweep.
#[derive(Clone, Copy, Debug)]
struct SweepSpec {
    /// Node count of P1, P2, P4, P5 (the headline machine).
    nodes: u32,
    /// Node count of P3.
    nodes_small: u32,
    /// `None` builds DHFR; `Some(n)` an n×n×n water box (smoke).
    water: Option<usize>,
    /// Per-crossing CRC corruption probability at P5. The handful of
    /// messages of the smoke machine needs a far higher rate to see any.
    crc_rate: f64,
    p1_calls: usize,
    passes: usize,
    setups: usize,
    layer_reps: usize,
    /// Torus edge of the `net` batch and event count of the `des` stream.
    net_edge: u32,
    des_events: usize,
    /// Water box edge and node count of the co-simulation pair pass.
    cosim: (usize, u32),
    /// The paper-claim bands only hold for DHFR on the 512-node machine.
    headline_bands: bool,
}

fn spec_for(sizes: crate::Sizes) -> SweepSpec {
    if sizes.smoke {
        SweepSpec {
            nodes: 8,
            nodes_small: 8,
            water: Some(6),
            crc_rate: 0.05,
            p1_calls: 2,
            passes: 1,
            setups: 1,
            layer_reps: 1,
            net_edge: 2,
            des_events: 1_000,
            cosim: (3, 8),
            headline_bands: false,
        }
    } else {
        SweepSpec {
            nodes: 512,
            nodes_small: 64,
            water: None,
            crc_rate: 1e-3,
            p1_calls: sizes.scaled(20, 20),
            passes: sizes.scaled(4, 1),
            setups: 15,
            layer_reps: 5,
            net_edge: 8,
            des_events: 200_000,
            cosim: (8, 64),
            headline_bands: true,
        }
    }
}

impl SweepSpec {
    fn system(&self, seed: u64) -> System {
        match self.water {
            None => dhfr_benchmark(seed),
            Some(n) => water_box(n, n, n, seed),
        }
    }

    fn atoms(&self) -> usize {
        self.water.map_or(23_558, |n| 3 * n * n * n)
    }

    /// P1 headline, P2 Anton 1, P3 small machine, P4 bulk-synchronous.
    /// P5 is P1 under CRC faults and goes through its own entry point.
    fn config(&self, point: usize) -> MachineConfig {
        match point {
            0 | 4 => MachineConfig::anton2(self.nodes),
            1 => MachineConfig::anton1(self.nodes),
            2 => MachineConfig::anton2(self.nodes_small),
            3 => MachineConfig::anton2(self.nodes).with_exec(ExecPolicy::BulkSynchronous),
            _ => unreachable!("the sweep has five points"),
        }
    }

    fn simulate(&self, system: &System, point: usize, seed: u64) -> PerfReport {
        let cfg = self.config(point);
        if point == 4 {
            // Same `net` code as P1, driven through the retry path, so a
            // fast-path gain that costs the fault path shows.
            simulate_performance_with_faults(
                system,
                cfg,
                DT_FS,
                RESPA,
                FaultPlan::new(seed).with_crc_rate(self.crc_rate),
                RetryConfig::default(),
            )
        } else {
            simulate_performance(system, cfg, DT_FS, RESPA)
        }
    }
}

/// The paper's figure of merit on the simulated clock: µs/day of the
/// headline point P1 on this seed's system. Every workload reports it, so
/// that no change to the machine model passes a workload unseen.
pub fn headline_us_per_day(sizes: crate::Sizes, seed: u64) -> f64 {
    let spec = spec_for(sizes);
    spec.simulate(&spec.system(seed), 0, seed).us_per_day
}

fn point_stat(r: &PerfReport, stat: &str) -> f64 {
    match stat {
        "sim_step_us" => r.step_time_us,
        "sim_import_comm_us" => r.breakdown.import_comm,
        "sim_htis_us" => r.breakdown.htis,
        "sim_kspace_us" => r.breakdown.kspace,
        "sim_integrate_us" => r.breakdown.integrate,
        "compute_utilization" => r.compute_utilization,
        "comm_bytes_per_step" => r.comm_bytes_per_step as f64,
        "pairs_per_step" => r.pairs_per_step as f64,
        _ => unreachable!("unknown point statistic {stat}"),
    }
}

/// P1 and P3 split into their two halves: plan construction and the
/// simulated RESPA cycle.
fn split_points(spec: &SweepSpec, system: &System, log: &mut SpanLog, m: &mut MetricSet) {
    for (point, tag) in [(0, "p1"), (2, "p3")] {
        let cfg = spec.config(point);
        let (mut build_s, mut cycle_s) = (Vec::new(), Vec::new());
        for rep in 0..=spec.layer_reps {
            let (plan, b) = log.timed(&format!("core.plan.build.{tag}"), || {
                StepPlan::build(system, &cfg)
            });
            let (_, c) = log.timed(&format!("core.machine.cycle.{tag}"), || {
                black_box(Machine::new(cfg).simulate_respa_cycle(&plan, RESPA))
            });
            if rep > 0 {
                build_s.push(b);
                cycle_s.push(c);
            }
        }
        m.put_median(&format!("core.plan.build_ms.{tag}"), &ms(&build_s));
        m.put_median(&format!("core.machine.cycle_ms.{tag}"), &ms(&cycle_s));
        m.put(
            &format!("core.machine.host_ms_per_node.{tag}"),
            median(&ms(&cycle_s)) / f64::from(cfg.n_nodes()),
        );
    }
}

/// The exact simulated statistics of every point, the headline ratios,
/// and one digest over all of their bit patterns.
fn simulated_stats(reports: &[PerfReport], m: &mut MetricSet) {
    let mut digest = Fnv::default();
    for (r, point) in reports.iter().zip(POINTS) {
        for (stat, _, _) in POINT_STATS {
            let v = point_stat(r, stat);
            digest.float(v);
            m.put(&format!("core.machine.{stat}.{point}"), v);
        }
    }
    let us_per_day = |i: usize| reports[i].us_per_day;
    digest.float(us_per_day(0));
    for (name, v) in [
        ("core.machine.a2_over_a1", us_per_day(0) / us_per_day(1)),
        ("core.machine.ed_over_bsp", us_per_day(0) / us_per_day(3)),
        ("core.machine.fault_slowdown", us_per_day(0) / us_per_day(4)),
    ] {
        digest.float(v);
        m.put(name, v);
    }
    m.put("net.retries", reports[4].faults.retries as f64);
    // 48 bits survive the trip through a JSON number exactly.
    m.put(
        "core.machine.sim_stats_digest",
        (digest.finish() & 0xffff_ffff_ffff) as f64,
    );
}

/// Direct calls into `net`, `des` and the co-simulation pair pass.
fn layer_calls(spec: &SweepSpec, seed: u64, log: &mut SpanLog, m: &mut MetricSet) -> u64 {
    let id = log.open("layer_calls");
    let reps = spec.layer_reps;

    // Fixed batch on the torus: every node to its +x, +y, +z neighbour,
    // plus as many seeded random pairs, injected over one microsecond.
    let edge = spec.net_edge;
    let torus = Torus::new(edge, edge, edge);
    let n = torus.n_nodes();
    let mut rng = SplitMix(seed);
    let mut msgs = Vec::new();
    for id in 0..n {
        let (x, y, z) = (id % edge, (id / edge) % edge, id / (edge * edge));
        let at = |x: u32, y: u32, z: u32| x + edge * (y + edge * z);
        for dst in [
            at((x + 1) % edge, y, z),
            at(x, (y + 1) % edge, z),
            at(x, y, (z + 1) % edge),
        ] {
            msgs.push((SimTime::from_ns(rng.below(1_000)), id, dst, 256u32));
        }
    }
    for _ in 0..3 * n {
        let (src, dst) = (rng.below(n.into()) as u32, rng.below(n.into()) as u32);
        msgs.push((SimTime::from_ns(rng.below(1_000)), src, dst, 1_024u32));
    }
    let mut net = Network::new(torus, anton2_class_link());
    // Clearing the link reservations is microseconds against the batch's
    // milliseconds, so it stays inside the timed call.
    let batch_s = log.timed_reps("net.run_batch", reps, || {
        net.reset();
        black_box(net.run_batch(&msgs));
    });
    m.put("net.batch_msgs_per_s", msgs.len() as f64 / median(&batch_s));

    // Fixed seeded stream: schedule everything, then drain in time order.
    let times: Vec<SimTime> = (0..spec.des_events)
        .map(|_| SimTime::from_ps(rng.below(1_000_000_000)))
        .collect();
    let des_s = log.timed_reps("des.schedule_pop", reps, || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i as u32);
        }
        while let Some(event) = q.pop() {
            black_box(event);
        }
    });
    m.put(
        "des.events_per_s",
        2.0 * times.len() as f64 / median(&des_s),
    );

    // The third pair path (distributed fixed-point pairs against the
    // serial kernel); one call, it is the slowest of the direct calls.
    let (edge, nodes) = spec.cosim;
    let water = water_box(edge, edge, edge, seed);
    let (outcome, s) = log.timed("core.cosim.verify_pair_forces", || {
        verify_pair_forces(&water, nodes, seed)
    });
    let pairs: u64 = outcome.pair_counts.iter().sum();
    m.put("core.cosim.pairs_per_s", pairs as f64 / s);
    m.put("md.fixedpoint.clamps", outcome.clamps as f64);
    log.close(id);
    outcome.clamps
}

pub fn run_model(ctx: &mut Run) -> Outcome {
    host::set_threads(host::worker_threads());
    let spec = spec_for(ctx.sizes);
    let seed = ctx.seed;
    let mut out = Outcome::new(
        "machine_sweep",
        json!({
            "atoms": spec.atoms(),
            "nodes": spec.nodes,
            "nodes_small": spec.nodes_small,
            "water_edge": spec.water,
            "dt_fs": DT_FS,
            "respa_interval": RESPA,
            "crc_rate": spec.crc_rate,
            "p1_calls": spec.p1_calls,
            "passes": spec.passes,
            "setups": spec.setups,
            "layer_reps": spec.layer_reps,
        }),
    );
    let log = &mut *ctx.log;
    let root = log.open("machine_sweep");

    // Set-up: build the system and make one warm-up call of P1, so lazy
    // initialisation and cold caches are not charged to the first sample.
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut system = None;
    for i in 0..spec.setups {
        let t0 = if i == 0 { ctx.origin } else { Instant::now() };
        let id = log.open("setup");
        let (s, _) = log.timed("build_system", || spec.system(seed));
        log.timed("warm_up", || black_box(spec.simulate(&s, 0, seed)));
        log.close(id);
        setup_s.push(t0.elapsed().as_secs_f64());
        system = Some(s);
    }
    let system = system.expect("at least one set-up");
    debug_assert_eq!(system.n_atoms(), spec.atoms());

    let measure = log.open("measure");
    let mut p1_s = Vec::with_capacity(spec.p1_calls);
    let mut p1_bits = Vec::with_capacity(spec.p1_calls);
    for _ in 0..spec.p1_calls {
        let t = Instant::now();
        let r = spec.simulate(&system, 0, seed);
        p1_s.push(t.elapsed().as_secs_f64());
        p1_bits.push(r.step_time_us.to_bits());
    }
    let mut reports = Vec::new();
    let mut point_s = vec![Vec::with_capacity(spec.passes); POINTS.len()];
    for _ in 0..spec.passes {
        reports.clear();
        for (p, samples) in point_s.iter_mut().enumerate() {
            let t = Instant::now();
            reports.push(spec.simulate(&system, p, seed));
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    log.close(measure);
    out.attempted += (spec.p1_calls + spec.passes * POINTS.len()) as u64;

    // One pass costs the sum of its points' fastest times (a stall during
    // one call must not decide the total), and every point models one RESPA
    // cycle of MD time. The passes' own P1 calls are P1 samples too.
    p1_s.extend(&point_s[0]);
    point_s[0].clone_from(&p1_s);
    let sweep_s: f64 = point_s.iter().map(|s| fastest(s)).sum();
    let modelled_ns = POINTS.len() as f64 * f64::from(RESPA) * DT_FS * 1e-6;
    let e = &mut out.end_to_end;
    e.put_fastest("setup_s", &setup_s);
    e.put_fastest("op_ms_min", &ms(&p1_s));
    e.put("host_ns_per_day", modelled_ns / sweep_s * 86_400.0);
    e.put("sim_us_per_day", reports[0].us_per_day);
    e.put("peak_rss_mb", host::peak_rss_mb());

    let repeats = p1_bits
        .iter()
        .all(|&b| b == reports[0].step_time_us.to_bits());
    out.check(
        "simulated_time_repeats_bitwise",
        repeats,
        format!(
            "P1 step time {} us over {} calls",
            reports[0].step_time_us,
            p1_bits.len() + spec.passes
        ),
    );
    let retries = reports[4].faults.retries;
    out.check(
        "fault_point_retries",
        retries > 0,
        format!("P5 retransmissions = {retries}"),
    );
    if spec.headline_bands {
        let p1 = reports[0].us_per_day;
        let a2_over_a1 = p1 / reports[1].us_per_day;
        let ed_over_bsp = p1 / reports[3].us_per_day;
        out.check(
            "headline_bands",
            (42.5..170.0).contains(&p1) && (5.0..14.0).contains(&a2_over_a1) && ed_over_bsp > 3.0,
            format!(
                "P1 {p1:.2} us/day in 42.5..170, A2/A1 {a2_over_a1:.2} in 5..14, ED/BSP {ed_over_bsp:.2} > 3"
            ),
        );
    }

    if ctx.traced {
        let mut m = MetricSet::zeroed(&per_layer());
        let id = log.open("traced");
        split_points(&spec, &system, log, &mut m);
        log.close(id);
        simulated_stats(&reports, &mut m);
        let clamps = layer_calls(&spec, seed, log, &mut m);
        out.check(
            "fixedpoint_clamps_zero",
            clamps == 0,
            format!("{clamps} clamps"),
        );
        out.per_layer = Some(m);
    }
    log.close(root);
    out
}
