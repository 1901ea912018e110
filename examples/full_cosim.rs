//! Full co-simulation: real molecular dynamics advancing through the serial
//! reference engine while the 512-node Anton 2 model times every RESPA
//! cycle against the *live* atom distribution — the complete stack in one
//! run: physics, decomposition, machine timing, and the sustained µs/day
//! figure the paper reports.
//!
//! ```text
//! cargo run --release --example full_cosim
//! ```

use anton2::core::cosim::{differing_from_engine, timed_trajectory, verify_pair_forces};
use anton2::core::MachineConfig;
use anton2::md::builders::solvated_protein;
use anton2::md::prelude::*;

fn main() {
    // A mid-size solvated protein (small enough that the serial reference
    // engine turns over quickly; the machine timing scales the same way).
    let mut system = solvated_protein(600, 2_000, 21);
    println!(
        "system: {} atoms ({} waters), box {:.1} Å",
        system.n_atoms(),
        system.topology.waters.len(),
        system.pbc.lx
    );
    system.thermalize(300.0, 22);

    let respa = 2u32;
    let mut cfg = EngineConfig::quick();
    cfg.dt_fs = 2.5;
    cfg.respa = RespaSchedule {
        kspace_interval: respa,
    };
    cfg.thermostat = Thermostat::Berendsen {
        t_kelvin: 300.0,
        tau_fs: 200.0,
    };
    let mut engine = Engine::builder()
        .system(system)
        .config(cfg)
        .build()
        .unwrap();
    print!("minimizing… ");
    let pe = engine.minimize(150, 0.5);
    println!("PE = {pe:.1} kcal/mol");
    engine.system.thermalize(300.0, 23);

    let machine = MachineConfig::anton2(64);
    println!(
        "\nco-simulating on {} ({} nodes): physics from the reference engine,\n\
         timing from the machine model, plan rebuilt every cycle\n",
        machine.name,
        machine.n_nodes()
    );
    println!(
        "{:>9}  {:>12}  {:>11}  {:>13}  {:>9}",
        "t (fs)", "µs/step", "imbalance", "PE (kcal/mol)", "T (K)"
    );
    let report = timed_trajectory(&mut engine, machine, 10, respa);
    for c in &report.cycles {
        println!(
            "{:>9.1}  {:>12.3}  {:>11.3}  {:>13.1}  {:>9.1}",
            c.time_fs,
            c.step_time_us,
            c.imbalance,
            c.potential,
            engine.system.temperature()
        );
    }
    println!(
        "\nsustained throughput: {:.2} µs/day at dt = {} fs on {} nodes",
        report.sustained_us_per_day,
        engine.cfg.dt_fs,
        machine.n_nodes()
    );

    // Functional cross-check on the final frame: distributed fixed-point
    // pair forces vs the engine's pair stream, with saturation clamps folded
    // into the engine's telemetry (nonzero clamps would mean the 40.24
    // format overflowed).
    let outcome = verify_pair_forces(&engine.system, machine.n_nodes(), 0x5eed);
    engine.record_fixedpoint_clamps(outcome.clamps);
    println!(
        "functional check: {} force components differ from the engine's, clamps = {}",
        differing_from_engine(&engine.system, &outcome.image),
        outcome.clamps
    );
    let counters = engine.profile().counters;
    println!(
        "telemetry: net retries = {}, net reroutes = {}, fixed-point clamps = {}",
        counters.net_retries, counters.net_reroutes, counters.fixedpoint_clamps
    );
    println!(
        "(the DHFR headline uses the same pipeline at 23,558 atoms and 512 nodes\n\
         — see `cargo run --release --example dhfr_headline`)"
    );
}
