//! The three host-engine workloads: `dhfr_nvt`, `water_kspace`,
//! `dhfr_sharded`.
//!
//! Each is a closed loop with one client: the next RESPA cycle is issued
//! when the previous one returns. Run lengths are fixed counts derived
//! from `--seconds`, never deadlines, so both sides of a comparison do
//! identical work and every count repeats exactly. The engine is measured
//! from outside — timers around `try_run` with only the engine's work
//! counters on, plus the public `TelemetryLevel::Phases` profile on the
//! separate traced pass.

use crate::host;
use crate::metrics::{per_layer, MetricSet, Outcome};
use crate::model_workload::headline_us_per_day;
use crate::spans::SpanLog;
use crate::stats::{fastest, median, ms, tail, undisturbed_total, Fnv};
use crate::{Run, Sizes};
use anton2_fft::{Fft3, Fft3Scratch};
use anton2_md::bonded::all_bonded_forces;
use anton2_md::builders::{dhfr_benchmark, water_box};
use anton2_md::gse::{Gse, GseParams, GseWorkspace};
use anton2_md::prelude::*;
use anton2_md::stream::{nonbonded_forces_streamed, NonbondedWorkspace};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// The engine's `Parallelism::Auto` switches to the chunked parallel
/// kernels at this size; direct layer calls mirror it so they time the
/// path the engine actually runs.
const AUTO_PARALLEL_ATOMS: usize = 4096;

/// Telemetry level of the measured pass: work counters only — integer
/// adds, no clock reads. The list refreshes counted in each cycle are what
/// lets `host_ns_per_day` price every cycle at an undisturbed time. The
/// traced pass runs at `Phases`, and every other engine at `Off`.
const MEASURED: TelemetryLevel = TelemetryLevel::Counters;

#[derive(Clone, Copy, Debug)]
enum SystemKind {
    Dhfr,
    Water(usize),
    /// Water with the cutoff shrunk to 5 + 1 Å, so that a box this small
    /// still hosts the ≥ 3 cells per axis a shard grid needs (smoke only).
    ShortCutoffWater(usize),
}

/// Fixed description of one engine workload at one size.
#[derive(Clone, Copy, Debug)]
struct MdSpec {
    system: SystemKind,
    dt_fs: f64,
    kspace_interval: u32,
    thermostat: Thermostat,
    grid: ShardGrid,
    /// Preparation inside set-up. Without it the synthetic lattices heat
    /// to ~1000 K and rebuild their lists every other step, which is not a
    /// production mix of layers. At least one equilibration step, always:
    /// the first step after `thermalize` projects the velocities onto the
    /// rigid-water constraints and drops a third of the kinetic energy,
    /// which must not be booked as drift of the measured steps.
    minimize_iters: usize,
    equil_steps: usize,
    /// Measured RESPA cycles (one timing sample each).
    cycles: usize,
    /// Set-ups per run; the fastest is reported. Cheap set-ups repeat, the
    /// 15 s DHFR preparation does not fit twice into a run.
    setups: usize,
    /// Timed repetitions of each direct layer call, after one warm-up.
    layer_reps: usize,
    /// Acceptable final temperature, K (thermostatted workloads).
    t_band: Option<(f64, f64)>,
    /// Acceptable |ΔE| as a share of the kinetic energy (NVE workloads).
    drift_limit: Option<f64>,
}

fn spec_for(workload: &'static str, sizes: Sizes) -> MdSpec {
    let langevin = Thermostat::Langevin {
        t_kelvin: 300.0,
        gamma_per_ps: 20.0,
    };
    let dhfr = MdSpec {
        system: SystemKind::Dhfr,
        // The paper runs DHFR at 2.5 fs, but the synthetic bead protein does
        // not: at 2.5 fs (and at 2 fs) about a third of the seeds blow up
        // within 80 steps of this preparation, at 1 fs none of 20 did.
        dt_fs: 1.0,
        kspace_interval: 2,
        thermostat: langevin,
        grid: ShardGrid::single(),
        minimize_iters: 40,
        equil_steps: 20,
        cycles: sizes.scaled(30, 30),
        setups: 1,
        layer_reps: 5,
        t_band: Some((250.0, 450.0)),
        drift_limit: None,
    };
    let water = MdSpec {
        system: SystemKind::Water(8),
        dt_fs: 1.0,
        kspace_interval: 1,
        thermostat: Thermostat::None,
        minimize_iters: 40,
        equil_steps: 10,
        cycles: sizes.scaled(450, 30),
        setups: 5,
        t_band: None,
        drift_limit: Some(0.01),
        ..dhfr
    };
    // Smoke sizes keep every code path and shrink every count. The 27-water
    // box is too small and too briefly prepared for the physical bands.
    let smoke = MdSpec {
        system: SystemKind::Water(3),
        minimize_iters: 2,
        equil_steps: 2,
        cycles: 2,
        setups: 1,
        layer_reps: 1,
        t_band: None,
        ..dhfr
    };
    match (workload, sizes.smoke) {
        ("dhfr_nvt", false) => dhfr,
        ("dhfr_nvt", true) => smoke,
        ("water_kspace", false) => water,
        ("water_kspace", true) => MdSpec {
            system: SystemKind::Water(3),
            minimize_iters: 2,
            equil_steps: 2,
            cycles: 4,
            setups: 2,
            layer_reps: 1,
            drift_limit: None,
            ..water
        },
        ("dhfr_sharded", false) => MdSpec {
            grid: ShardGrid::new(2, 2, 2),
            ..dhfr
        },
        ("dhfr_sharded", true) => MdSpec {
            system: SystemKind::ShortCutoffWater(6),
            grid: ShardGrid::new(2, 1, 1),
            cycles: 1,
            ..smoke
        },
        _ => unreachable!("not an engine workload: {workload}"),
    }
}

impl MdSpec {
    fn build_system(&self, seed: u64) -> System {
        match self.system {
            SystemKind::Dhfr => dhfr_benchmark(seed),
            SystemKind::Water(n) => water_box(n, n, n, seed),
            SystemKind::ShortCutoffWater(n) => {
                let mut s = water_box(n, n, n, seed);
                s.nb.cutoff = 5.0;
                s.nb.skin = 1.0;
                s.nb.ewald_alpha = 3.0 / s.nb.cutoff;
                s
            }
        }
    }

    fn atoms(&self) -> usize {
        match self.system {
            SystemKind::Dhfr => 23_558,
            SystemKind::Water(n) | SystemKind::ShortCutoffWater(n) => 3 * n * n * n,
        }
    }

    fn steps(&self) -> usize {
        self.cycles * self.kspace_interval as usize
    }

    fn builder(&self, system: System, grid: ShardGrid, level: TelemetryLevel) -> EngineBuilder {
        EngineBuilder::default()
            .system(system)
            .dt_fs(self.dt_fs)
            .respa(RespaSchedule {
                kspace_interval: self.kspace_interval,
            })
            .thermostat(self.thermostat)
            .decomposition(grid)
            .telemetry(level)
            // Pure observation, so the trajectory is untouched; with it a
            // blow-up fails the step it happens in, not a check afterwards.
            .watchdog(WatchdogConfig::default())
    }
}

/// What set-up leaves behind: the topology template and the state `C0`
/// every measured pass resumes from.
struct Prepared {
    template: System,
    c0: Checkpoint,
}

/// Timings of one pass over the fixed cycles.
struct Pass {
    engine: Engine,
    /// Total energy before the first cycle.
    e_start: f64,
    cycle_s: Vec<f64>,
    /// List refreshes per cycle: cycles with equally many do the same kind
    /// of work.
    refreshes: Vec<u64>,
    /// Σ `pairs_evaluated` per shard over the pass (traced sharded runs).
    shard_pairs: Vec<u64>,
}

impl Pass {
    fn total_s(&self) -> f64 {
        self.cycle_s.iter().sum()
    }

    /// The pass with every cycle counted at the fastest time seen among
    /// the cycles with as many list refreshes.
    fn undisturbed_s(&self) -> f64 {
        undisturbed_total(&self.cycle_s, &self.refreshes)
    }
}

fn state_digest(system: &System) -> u64 {
    let mut h = Fnv::default();
    for v in system.positions.iter().chain(&system.velocities) {
        h.float(v.x);
        h.float(v.y);
        h.float(v.z);
    }
    h.finish()
}

fn prepare(spec: &MdSpec, seed: u64, log: &mut SpanLog) -> Result<Prepared, EngineError> {
    let (system, _) = log.timed("build_system", || spec.build_system(seed));
    let template = system.clone();
    // C0 always comes from the single image: a single-image checkpoint
    // resumes bitwise into the sharded engine, which is what lets
    // `dhfr_sharded` be cross-checked against `dhfr_nvt`.
    let mut engine = spec
        .builder(system, ShardGrid::single(), TelemetryLevel::Off)
        .seed(seed)
        .build()?;
    log.timed("minimize", || engine.minimize(spec.minimize_iters, 0.5));
    engine.system.thermalize(300.0, seed);
    let id = log.open("equilibrate");
    for _ in 0..spec.equil_steps {
        engine.try_step()?;
    }
    log.close(id);
    let (c0, _) = log.timed("checkpoint", || engine.checkpoint());
    Ok(Prepared { template, c0 })
}

/// Resume `C0` into a fresh engine of the workload's decomposition;
/// returns it with the time the resume took.
fn resume(
    spec: &MdSpec,
    prepared: &Prepared,
    seed: u64,
    level: TelemetryLevel,
    log: &mut SpanLog,
) -> Result<(Engine, f64), EngineError> {
    let (engine, resume_s) = log.timed("resume", || {
        spec.builder(prepared.template.clone(), spec.grid, level)
            .seed(seed)
            .resume_from(prepared.c0.clone())
            .build()
    });
    Ok((engine?, resume_s))
}

/// Run the fixed cycles on a freshly resumed engine. With `trace` each
/// cycle gets a span carrying its ten phase durations.
fn run_cycles(
    spec: &MdSpec,
    mut engine: Engine,
    cycles: usize,
    log: &mut SpanLog,
    trace: bool,
) -> Result<Pass, EngineError> {
    let k = spec.kspace_interval as usize;
    let mut cycle_s = Vec::with_capacity(cycles);
    let mut refreshes = Vec::with_capacity(cycles);
    let mut shard_pairs = vec![0u64; spec.grid.count()];
    let e_start = engine.energies().total();
    let measure = log.open("measure");
    for i in 0..cycles {
        let span = trace.then(|| log.open(format!("cycle[{i}]")));
        let t = Instant::now();
        let summary = engine.try_run(k)?;
        cycle_s.push(t.elapsed().as_secs_f64());
        refreshes.push(summary.counters.neighbor_rebuilds);
        if let Some(span) = span {
            log.close(span);
            let p = summary.phases;
            for (key, us) in [
                ("neighbor_rebuild_us", p.neighbor_rebuild),
                ("short_range_us", p.short_range),
                ("gse_spread_us", p.gse_spread),
                ("fft_us", p.fft),
                ("interpolate_us", p.interpolate),
                ("bonded_us", p.bonded),
                ("constraints_us", p.constraints),
                ("integration_us", p.integration),
                ("thermostat_us", p.thermostat),
                ("exchange_us", p.exchange),
            ] {
                log.attach(span, key, us);
            }
        }
        for s in &summary.shards {
            shard_pairs[s.shard as usize] += s.counters.pairs_evaluated;
        }
    }
    log.close(measure);
    Ok(Pass {
        engine,
        e_start,
        cycle_s,
        refreshes,
        shard_pairs,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Direct calls into each layer on the final configuration of the traced
/// pass: rates that do not depend on where the engine's own timers sit.
fn layer_calls(spec: &MdSpec, pass: &Pass, log: &mut SpanLog, m: &mut MetricSet) {
    let id = log.open("layer_calls");
    let engine = &pass.engine;
    let system = &engine.system;
    let n = system.n_atoms();
    let parallel = n >= AUTO_PARALLEL_ATOMS;
    let reps = spec.layer_reps;
    let mut forces = vec![Vec3::ZERO; n];

    let table = system.pair_table();
    let mut nb = NonbondedWorkspace::new();
    let t = log.timed_reps("md.stream.pairs", reps, || {
        black_box(nonbonded_forces_streamed(
            system,
            &table,
            &mut nb,
            &mut forces,
            parallel,
        ));
    });
    let pairs = nb.stream().n_pairs() as f64;
    m.put("md.stream.pairs_per_s", ratio(pairs, median(&t)));
    // Compulsory traffic of one kernel pass from array sizes, not measured:
    // a 4-byte partner index per candidate pair, plus per atom one read of
    // position + charge + type (36 B) and one force write (24 B).
    m.put(
        "md.stream.bytes_per_pair_computed",
        ratio(4.0 * pairs + 60.0 * n as f64, pairs),
    );
    let t = log.timed_reps("md.stream.fresh_build", reps, || {
        nb.rebuild_at_epoch(system)
    });
    m.put_median("md.stream.fresh_build_ms", &ms(&t));

    let alpha = system.nb.ewald_alpha;
    let gse = Gse::new(alpha, system.pbc, GseParams::for_box(alpha, &system.pbc));
    let mut ws = GseWorkspace::for_gse(&gse);
    let mut tel = Telemetry::new(TelemetryLevel::Phases);
    let (mut spread_rate, mut interp_rate) = (Vec::new(), Vec::new());
    for rep in 0..=reps {
        let before = *tel.profile();
        log.timed("md.gse.energy_forces", || {
            black_box(gse.energy_forces_profiled(
                &system.positions,
                &system.topology.charges,
                &mut forces,
                &mut ws,
                parallel,
                &mut tel,
            ))
        });
        let d = tel.profile().since(&before);
        let us = d.phases_us();
        if rep > 0 {
            spread_rate.push(ratio(d.counters.spread_points as f64, us.gse_spread * 1e-6));
            interp_rate.push(ratio(
                d.counters.interp_points as f64,
                us.interpolate * 1e-6,
            ));
        }
    }
    m.put_median("md.gse.spread_points_per_s", &spread_rate);
    m.put_median("md.gse.interp_points_per_s", &interp_rate);

    // The workload's own charge grid, transformed there and back.
    let p = gse.params;
    let fft = Fft3::new(p.nx, p.ny, p.nz);
    let mut scratch = Fft3Scratch::for_grid(p.nx, p.ny, p.nz);
    let mut grid = ws.rho().clone();
    let lines = 2 * (p.ny * p.nz + p.nx * p.nz + p.nx * p.ny);
    let t = log.timed_reps("fft.roundtrip", reps, || {
        fft.forward_with(&mut grid, &mut scratch, parallel);
        fft.inverse_with(&mut grid, &mut scratch, parallel);
    });
    m.put("fft.lines_per_s", ratio(lines as f64, median(&t)));

    let top = &system.topology;
    let terms = top.bonds.len()
        + top.angles.len()
        + top.dihedrals.len()
        + top.urey_bradleys.len()
        + top.impropers.len();
    let t = log.timed_reps("md.bonded.all", reps, || {
        black_box(all_bonded_forces(
            top,
            &system.pbc,
            &system.positions,
            &mut forces,
        ));
    });
    if terms > 0 {
        m.put("md.bonded.terms_per_s", ratio(terms as f64, median(&t)));
    }

    let mut checkpoint = None;
    let t = log.timed_reps("md.trajectory.checkpoint", reps, || {
        checkpoint = Some(engine.checkpoint())
    });
    m.put_median("md.trajectory.checkpoint_ms", &ms(&t));
    let checkpoint = checkpoint.expect("the warm-up call took one");
    let mut bytes = 0;
    let t = log.timed_reps("md.trajectory.encode", reps, || {
        bytes = serde_json::to_string(&checkpoint).map_or(0, |s| s.len())
    });
    m.put_median("md.trajectory.encode_ms", &ms(&t));
    m.put("md.trajectory.checkpoint_bytes", bytes as f64);
    log.close(id);
}

/// Per-step phase times, counts and ratios of the traced pass.
fn traced_metrics(spec: &MdSpec, untraced_cycle_s: &[f64], traced: &Pass, m: &mut MetricSet) {
    let profile = traced.engine.profile();
    let steps = spec.steps() as f64;
    let per_step_ms = |us: f64| us * 1e-3 / steps;
    let us = profile.phases_us();
    let c = profile.counters;
    m.put(
        "md.stream.short_range_ms_per_step",
        per_step_ms(us.short_range),
    );
    m.put(
        "md.stream.neighbor_rebuild_ms_per_step",
        per_step_ms(us.neighbor_rebuild),
    );
    m.put(
        "md.stream.pairs_evaluated_per_step",
        c.pairs_evaluated as f64 / steps,
    );
    m.put(
        "md.stream.pairs_cut_share",
        ratio(c.pairs_cut as f64, (c.pairs_evaluated + c.pairs_cut) as f64),
    );
    m.put(
        "md.stream.rebuilds_per_100_steps",
        100.0 * c.neighbor_rebuilds as f64 / steps,
    );
    m.put(
        "md.stream.rows_patched_share",
        ratio(
            c.rows_patched as f64,
            (c.rows_patched + c.rows_rebuilt) as f64,
        ),
    );
    m.put("md.gse.spread_ms_per_step", per_step_ms(us.gse_spread));
    m.put(
        "md.gse.interpolate_ms_per_step",
        per_step_ms(us.interpolate),
    );
    m.put(
        "md.gse.spread_points_per_step",
        c.spread_points as f64 / steps,
    );
    m.put(
        "md.gse.bins_visited_per_step",
        c.gse_bins_visited as f64 / steps,
    );
    m.put("fft.convolve_ms_per_step", per_step_ms(us.fft));
    m.put("fft.lines_per_step", c.fft_lines as f64 / steps);
    m.put("md.bonded.ms_per_step", per_step_ms(us.bonded));
    m.put("md.constraints.ms_per_step", per_step_ms(us.constraints));
    m.put("md.integrate.ms_per_step", per_step_ms(us.integration));
    m.put(
        "md.integrate.thermostat_ms_per_step",
        per_step_ms(us.thermostat),
    );
    m.put("md.shard.exchange_ms_per_step", per_step_ms(us.exchange));
    m.put(
        "md.shard.atoms_imported_per_step",
        c.atoms_imported as f64 / steps,
    );
    m.put(
        "md.shard.exchange_bytes_per_step",
        c.exchange_bytes as f64 / steps,
    );
    if !spec.grid.is_single() {
        let max = traced.shard_pairs.iter().copied().max().unwrap_or(0) as f64;
        let mean = traced.shard_pairs.iter().sum::<u64>() as f64 / spec.grid.count() as f64;
        m.put("md.shard.pair_imbalance", ratio(max, mean));
    }
    m.put(
        "md.engine.phase_coverage",
        ratio(us.total() * 1e-6, traced.total_s()),
    );
    m.put(
        "md.engine.tracing_overhead",
        ratio(fastest(&traced.cycle_s), fastest(untraced_cycle_s)),
    );
    m.put("md.fixedpoint.clamps", c.fixedpoint_clamps as f64);
}

/// `t(1) ÷ (n · t(n))` at `n` = all CPUs over the first cycles of the
/// same trajectory (results are thread-count independent, so both widths
/// do identical work). Never gated: with `n` threads on `n` shared vCPUs
/// it also measures the neighbours.
fn scaling_eff(
    spec: &MdSpec,
    prepared: &Prepared,
    seed: u64,
    untraced_cycle_s: &[f64],
    log: &mut SpanLog,
) -> Result<f64, EngineError> {
    let n = host::cpus();
    let base = host::worker_threads();
    if n < 2 {
        return Ok(0.0);
    }
    let cycles = spec.cycles.min(6);
    let id = log.open("scaling");
    host::set_threads(n);
    let wide = resume(spec, prepared, seed, MEASURED, log)
        .and_then(|(engine, _)| run_cycles(spec, engine, cycles, log, false));
    host::set_threads(base);
    log.close(id);
    let t_n = wide?.total_s();
    let t_base: f64 = untraced_cycle_s[..cycles].iter().sum();
    // t(1) is only what was measured when the base width is one thread.
    Ok(if base == 1 {
        ratio(t_base, n as f64 * t_n)
    } else {
        0.0
    })
}

fn execute(spec: &MdSpec, run: &mut Run, out: &mut Outcome) -> Result<(), EngineError> {
    let seed = run.seed;
    let k = spec.kspace_interval as f64;

    // Set-up runs from process start to the first measured step: build,
    // minimise, equilibrate, checkpoint, resume.
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut resume_s = Vec::new();
    let mut ready = None;
    for i in 0..spec.setups {
        let t0 = if i == 0 { run.origin } else { Instant::now() };
        let id = run.log.open("setup");
        let prepared = prepare(spec, seed, run.log)?;
        let (engine, s) = resume(spec, &prepared, seed, MEASURED, run.log)?;
        run.log.close(id);
        setup_s.push(t0.elapsed().as_secs_f64());
        resume_s.push(s);
        ready = Some((prepared, engine));
    }
    let (prepared, engine) = ready.expect("at least one set-up");
    debug_assert_eq!(prepared.template.n_atoms(), spec.atoms());

    let untraced = run_cycles(spec, engine, spec.cycles, run.log, false)?;
    out.attempted += spec.steps() as u64;
    let digest = state_digest(&untraced.engine.system);
    out.state_digest = Some(digest);

    let step_ms: Vec<f64> = untraced.cycle_s.iter().map(|s| s * 1e3 / k).collect();
    let simulated_ns = spec.steps() as f64 * spec.dt_fs * 1e-6;
    let e = &mut out.end_to_end;
    e.put_fastest("setup_s", &setup_s);
    e.put_fastest("op_ms_min", &step_ms);
    e.put(
        "host_ns_per_day",
        simulated_ns / untraced.undisturbed_s() * 86_400.0,
    );
    e.put("peak_rss_mb", host::peak_rss_mb());
    // The other clock, after the memory reading: the machine model's
    // headline point is not part of this workload's footprint.
    let (us_per_day, _) = run
        .log
        .timed("headline_point", || headline_us_per_day(run.sizes, seed));
    e.put("sim_us_per_day", us_per_day);
    out.attempted += 1;

    let temperature = untraced.engine.system.temperature();
    let drift = ratio(
        (untraced.engine.energies().total() - untraced.e_start).abs(),
        untraced.engine.system.kinetic_energy(),
    );
    // Only the timings are needed from here on; the traced pass should not
    // share memory with a second engine.
    let Pass {
        engine,
        cycle_s: untraced_cycle_s,
        ..
    } = untraced;
    drop(engine);
    if let Some((lo, hi)) = spec.t_band {
        out.check(
            "temperature_band",
            (lo..=hi).contains(&temperature),
            format!("final T = {temperature:.1} K, expected {lo}..{hi} K"),
        );
    }
    if let Some(limit) = spec.drift_limit {
        out.check(
            "energy_drift",
            drift <= limit,
            format!("|dE|/KE = {drift:.3e}, limit {limit}"),
        );
    }

    if run.traced {
        let mut m = MetricSet::zeroed(&per_layer());
        let (engine, s) = resume(spec, &prepared, seed, TelemetryLevel::Phases, run.log)?;
        resume_s.push(s);
        let traced = run_cycles(spec, engine, spec.cycles, run.log, true)?;
        out.attempted += spec.steps() as u64;
        let traced_digest = state_digest(&traced.engine.system);
        out.check(
            "traced_state_matches_untraced",
            traced_digest == digest,
            format!("untraced {digest:016x}, traced {traced_digest:016x}"),
        );
        traced_metrics(spec, &untraced_cycle_s, &traced, &mut m);
        let clamps = m.value("md.fixedpoint.clamps");
        out.check(
            "fixedpoint_clamps_zero",
            clamps == 0.0,
            format!("{clamps} clamps"),
        );
        match tail(&step_ms) {
            Some((p, ms)) => {
                m.put("md.engine.step_ms_tail", ms);
                m.note("md.engine.step_ms_tail", format!("p{p}"));
            }
            None => {
                m.put("md.engine.step_ms_tail", median(&step_ms));
                m.note(
                    "md.engine.step_ms_tail",
                    "p50: too few samples for a tail".to_string(),
                );
            }
        }
        m.put("md.engine.temperature_k", temperature);
        m.put("md.engine.energy_drift_rel", drift);
        layer_calls(spec, &traced, run.log, &mut m);
        m.put(
            "md.engine.scaling_eff",
            scaling_eff(spec, &prepared, seed, &untraced_cycle_s, run.log)?,
        );
        m.put_median("md.trajectory.resume_ms", &ms(&resume_s));
        out.per_layer = Some(m);
    }
    Ok(())
}

/// Run one engine workload. An engine error is one failed operation and
/// ends the run; the metrics measured so far stay in the outcome.
pub fn run_md(workload: &'static str, ctx: &mut Run) -> Outcome {
    host::set_threads(host::worker_threads());
    let spec = spec_for(workload, ctx.sizes);
    let mut out = Outcome::new(
        workload,
        json!({
            "atoms": spec.atoms(),
            "dt_fs": spec.dt_fs,
            "kspace_interval": spec.kspace_interval,
            "shard_grid": [spec.grid.l, spec.grid.m, spec.grid.n],
            "minimize_iters": spec.minimize_iters,
            "equil_steps": spec.equil_steps,
            "cycles": spec.cycles,
            "steps": spec.steps(),
            "setups": spec.setups,
            "layer_reps": spec.layer_reps,
        }),
    );
    // Closing the root also closes whatever an early error left open.
    let root = ctx.log.open(workload);
    if let Err(e) = execute(&spec, ctx, &mut out) {
        out.check("engine_error", false, e.to_string());
    }
    ctx.log.close(root);
    out
}
