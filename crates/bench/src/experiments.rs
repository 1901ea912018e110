//! The reconstructed evaluation, one function per table/figure.

use crate::ExperimentResult;
use anton2_core::baseline::CommodityModel;
use anton2_core::cosim;
use anton2_core::ntmethod::import_volume;
use anton2_core::report::{simulate_performance, PerfReport};
use anton2_core::{ExecPolicy, ImportMethod, MachineConfig};
use anton2_md::builders::{dhfr_benchmark, scaled_benchmark, solvated_protein, water_box, APOA1};
use anton2_md::engine::{Engine, EngineConfig};
use anton2_md::gse::GseParams;
use anton2_md::integrate::RespaSchedule;
use anton2_md::observables::DriftTracker;
use anton2_md::System;
use anton2_net::{anton2_class_link, Coord, Network, Torus};
use serde_json::json;

/// Timestep used throughout the evaluation (Anton production class).
pub const DT_FS: f64 = 2.5;
/// K-space RESPA interval used for the headline runs.
pub const RESPA: u32 = 2;
/// The paper's headline node count.
pub const NODES: u32 = 512;

fn perf(system: &System, cfg: MachineConfig) -> PerfReport {
    simulate_performance(system, cfg, DT_FS, RESPA)
}

// ---------------------------------------------------------------------
// T1 — machine comparison table
// ---------------------------------------------------------------------
pub fn t1_machine_table() -> ExperimentResult {
    let a2 = MachineConfig::anton2(NODES);
    let a1 = MachineConfig::anton1(NODES);
    let row = |label: &str, f: &dyn Fn(&MachineConfig) -> String| {
        format!("{label:<34} {:>14}  {:>14}", f(&a1), f(&a2))
    };
    let rows = vec![
        format!("{:<34} {:>14}  {:>14}", "", "Anton 1", "Anton 2"),
        row("PPIMs per node", &|m| m.node.ppims.to_string()),
        row("HTIS clock (GHz)", &|m| {
            format!("{:.1}", m.node.ppim_clock_ghz)
        }),
        row("peak pair rate (inter/ns/node)", &|m| {
            format!("{:.1}", m.node.htis_rate_per_ns())
        }),
        row("geometry cores", &|m| m.node.geometry_cores.to_string()),
        row("GC SIMD width", &|m| m.node.gc_simd_width.to_string()),
        row("dispatch latency (ns)", &|m| {
            format!("{:.0}", m.node.dispatch_latency_ns)
        }),
        row("link bandwidth (GB/s)", &|m| {
            format!("{:.0}", m.link.bandwidth_gbps)
        }),
        row("hop latency (ns)", &|m| {
            format!("{:.0}", m.link.hop_latency_ns)
        }),
        row("injection overhead (ns)", &|m| {
            format!("{:.0}", m.link.injection_ns)
        }),
        row("execution model", &|m| match m.exec {
            ExecPolicy::EventDriven => "event-driven".into(),
            ExecPolicy::BulkSynchronous => "bulk-synchronous".into(),
        }),
    ];
    ExperimentResult {
        id: "T1",
        title: "Machine comparison (per node)",
        claim: "context for A3/A5: what changed between generations",
        data: json!({
            "anton1": {"ppims": a1.node.ppims, "gcs": a1.node.geometry_cores,
                        "dispatch_ns": a1.node.dispatch_latency_ns},
            "anton2": {"ppims": a2.node.ppims, "gcs": a2.node.geometry_cores,
                        "dispatch_ns": a2.node.dispatch_latency_ns},
        }),
        rows,
    }
}

// ---------------------------------------------------------------------
// T2 — benchmark systems table
// ---------------------------------------------------------------------
pub fn t2_benchmark_systems() -> ExperimentResult {
    let mut rows = vec![format!(
        "{:<26} {:>9}  {:>7}  {:>9}  {:>6}  {:>6}",
        "system", "atoms", "waters", "box (Å)", "rc (Å)", "grid"
    )];
    let mut data = Vec::new();
    let specs: Vec<(String, System)> = vec![
        ("DHFR (23.6k)".into(), dhfr_benchmark(1)),
        ("ApoA1-scale (92.2k)".into(), APOA1.build(1)),
        ("capacity 256k".into(), scaled_benchmark(256_000, 1)),
        ("capacity 1.05M".into(), scaled_benchmark(1_048_576, 1)),
    ];
    for (name, s) in &specs {
        let g = GseParams::for_box(s.nb.ewald_alpha, &s.pbc);
        rows.push(format!(
            "{:<26} {:>9}  {:>7}  {:>9.1}  {:>6.1}  {:>4}³",
            name,
            s.n_atoms(),
            s.topology.waters.len(),
            s.pbc.lx,
            s.nb.cutoff,
            g.nx
        ));
        data.push(json!({"name": name, "atoms": s.n_atoms(), "box": s.pbc.lx, "grid": g.nx}));
    }
    ExperimentResult {
        id: "T2",
        title: "Benchmark systems (synthetic, atom-count-matched)",
        claim: "context for A1/A4: the workloads under evaluation",
        rows,
        data: json!(data),
    }
}

// ---------------------------------------------------------------------
// F1 — strong scaling, DHFR
// ---------------------------------------------------------------------
pub fn f1_strong_scaling() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>6}  {:>14}  {:>14}  {:>8}",
        "nodes", "Anton2 µs/day", "Anton1 µs/day", "A2/A1"
    )];
    let mut series = Vec::new();
    for nodes in [8u32, 16, 32, 64, 128, 256, 512] {
        let r2 = perf(&s, MachineConfig::anton2(nodes));
        let r1 = perf(&s, MachineConfig::anton1(nodes));
        rows.push(format!(
            "{:>6}  {:>14.2}  {:>14.2}  {:>7.1}x",
            nodes,
            r2.us_per_day,
            r1.us_per_day,
            r2.us_per_day / r1.us_per_day
        ));
        series.push(json!({"nodes": nodes, "anton2_us_day": r2.us_per_day,
                           "anton1_us_day": r1.us_per_day}));
    }
    ExperimentResult {
        id: "F1",
        title: "Strong scaling on DHFR (23,558 atoms)",
        claim: "A1: 85 µs/day at 512 nodes; A3: up to 10× over Anton 1",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F2 — performance vs system size at 512 nodes
// ---------------------------------------------------------------------
pub fn f2_system_size() -> ExperimentResult {
    let mut rows = vec![format!(
        "{:>10}  {:>12}  {:>12}  {:>10}",
        "atoms", "µs/step", "µs/day", "pairs/step"
    )];
    let mut series = Vec::new();
    let systems: Vec<System> = vec![
        dhfr_benchmark(1),
        APOA1.build(1),
        scaled_benchmark(262_144, 1),
        scaled_benchmark(1_048_576, 1),
        scaled_benchmark(2_200_000, 1),
    ];
    for s in &systems {
        let r = perf(s, MachineConfig::anton2(NODES));
        rows.push(format!(
            "{:>10}  {:>12.3}  {:>12.2}  {:>10}",
            s.n_atoms(),
            r.step_time_us,
            r.us_per_day,
            r.pairs_per_step
        ));
        series.push(json!({"atoms": s.n_atoms(), "us_day": r.us_per_day,
                           "step_us": r.step_time_us}));
    }
    ExperimentResult {
        id: "F2",
        title: "Performance vs system size @ 512 nodes",
        claim: "A4: multiple µs/day for million-atom systems",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F3 — platform comparison on DHFR
// ---------------------------------------------------------------------
pub fn f3_platform_comparison() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let a2 = perf(&s, MachineConfig::anton2(NODES));
    let a1 = perf(&s, MachineConfig::anton1(NODES));
    let gpu = CommodityModel::gpu_workstation();
    let cluster = CommodityModel::cpu_cluster();
    let (gpu_rate, _) = gpu.best_us_per_day(a2.pairs_per_step, DT_FS);
    let (cl_rate, cl_nodes) = cluster.best_us_per_day(a2.pairs_per_step, DT_FS);
    let best_commodity = gpu_rate.max(cl_rate);
    let rows = vec![
        format!("{:<28} {:>12}  {:>10}", "platform", "µs/day", "Anton2 ×"),
        format!(
            "{:<28} {:>12.2}  {:>10}",
            "Anton 2 (512 nodes)", a2.us_per_day, "1.0"
        ),
        format!(
            "{:<28} {:>12.2}  {:>9.1}x",
            "Anton 1 (512 nodes)",
            a1.us_per_day,
            a2.us_per_day / a1.us_per_day
        ),
        format!(
            "{:<28} {:>12.3}  {:>9.0}x",
            format!("CPU cluster ({cl_nodes} nodes)"),
            cl_rate,
            a2.us_per_day / cl_rate
        ),
        format!(
            "{:<28} {:>12.3}  {:>9.0}x",
            "GPU workstation",
            gpu_rate,
            a2.us_per_day / gpu_rate
        ),
        format!(
            "paper: 85 µs/day, 180× over any commodity platform → measured {:.1} µs/day, {:.0}×",
            a2.us_per_day,
            a2.us_per_day / best_commodity
        ),
    ];
    ExperimentResult {
        id: "F3",
        title: "Platform comparison, DHFR",
        claim: "A1 (85 µs/day), A2 (180× over commodity), A3 (≤10× over Anton 1)",
        rows,
        data: json!({
            "anton2_us_day": a2.us_per_day,
            "anton1_us_day": a1.us_per_day,
            "cluster_us_day": cl_rate,
            "gpu_us_day": gpu_rate,
            "speedup_vs_commodity": a2.us_per_day / best_commodity,
            "speedup_vs_anton1": a2.us_per_day / a1.us_per_day,
        }),
    }
}

// ---------------------------------------------------------------------
// F4 — event-driven vs bulk-synchronous ablation
// ---------------------------------------------------------------------
pub fn f4_event_driven_ablation() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>6}  {:>11}  {:>11}  {:>8}  {:>9}  {:>9}",
        "nodes", "ED µs/day", "BSP µs/day", "ED/BSP", "ED util", "BSP util"
    )];
    let mut series = Vec::new();
    for nodes in [8u32, 64, 512] {
        let ed = perf(&s, MachineConfig::anton2(nodes));
        let bsp = perf(
            &s,
            MachineConfig::anton2(nodes).with_exec(ExecPolicy::BulkSynchronous),
        );
        rows.push(format!(
            "{:>6}  {:>11.2}  {:>11.2}  {:>7.2}x  {:>8.1}%  {:>8.1}%",
            nodes,
            ed.us_per_day,
            bsp.us_per_day,
            ed.us_per_day / bsp.us_per_day,
            ed.compute_utilization * 100.0,
            bsp.compute_utilization * 100.0
        ));
        series.push(json!({"nodes": nodes, "ed_us_day": ed.us_per_day,
                           "bsp_us_day": bsp.us_per_day,
                           "ed_util": ed.compute_utilization,
                           "bsp_util": bsp.compute_utilization}));
    }
    ExperimentResult {
        id: "F4",
        title: "Event-driven vs bulk-synchronous (same silicon)",
        claim: "A5: fine-grained event-driven operation increases overlap",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F5 — step-time breakdown vs node count
// ---------------------------------------------------------------------
pub fn f5_breakdown() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>6}  {:>9}  {:>8}  {:>8}  {:>8}  {:>9}  {:>9}",
        "nodes", "step µs", "import", "HTIS", "k-space", "integrate", "util"
    )];
    let mut series = Vec::new();
    for nodes in [64u32, 128, 256, 512] {
        let r = perf(&s, MachineConfig::anton2(nodes));
        rows.push(format!(
            "{:>6}  {:>9.3}  {:>8.3}  {:>8.3}  {:>8.3}  {:>9.3}  {:>8.1}%",
            nodes,
            r.step_time_us,
            r.breakdown.import_comm,
            r.breakdown.htis,
            r.breakdown.kspace,
            r.breakdown.integrate,
            r.compute_utilization * 100.0
        ));
        series.push(json!({"nodes": nodes, "step_us": r.step_time_us,
                           "breakdown": r.breakdown}));
    }
    ExperimentResult {
        id: "F5",
        title: "Per-phase breakdown vs node count (DHFR, outer step)",
        claim: "A1/A5 mechanism: which phase bounds the step where",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F6 — NT method vs half-shell import
// ---------------------------------------------------------------------
pub fn f6_import_methods() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>6}  {:>14}  {:>14}  {:>14}  {:>8}",
        "nodes", "NT vol (Å³)", "HS vol (Å³)", "Full vol (Å³)", "HS/NT"
    )];
    let mut series = Vec::new();
    for nodes in [8u32, 64, 512] {
        let torus = Torus::for_nodes(nodes);
        let b = anton2_md::vec3::Vec3::new(
            s.pbc.lx / torus.nx as f64,
            s.pbc.ly / torus.ny as f64,
            s.pbc.lz / torus.nz as f64,
        );
        let nt = import_volume(ImportMethod::NeutralTerritory, b, s.nb.cutoff);
        let hs = import_volume(ImportMethod::HalfShell, b, s.nb.cutoff);
        let full = import_volume(ImportMethod::FullShell, b, s.nb.cutoff);
        rows.push(format!(
            "{:>6}  {:>14.0}  {:>14.0}  {:>14.0}  {:>7.2}x",
            nodes,
            nt,
            hs,
            full,
            hs / nt
        ));
        series.push(json!({"nodes": nodes, "nt": nt, "hs": hs, "full": full}));
    }
    // End-to-end effect at 512 nodes.
    for m in [
        ImportMethod::NeutralTerritory,
        ImportMethod::HalfShell,
        ImportMethod::FullShell,
    ] {
        let r = perf(&s, MachineConfig::anton2(NODES).with_import(m));
        rows.push(format!(
            "512 nodes, {:?}: {:.2} µs/day ({:.3} µs/step, {} comm bytes)",
            m, r.us_per_day, r.step_time_us, r.comm_bytes_per_step
        ));
    }
    ExperimentResult {
        id: "F6",
        title: "Import-region methods: neutral territory vs shells",
        claim: "A5: programmability admits the better (NT) method",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F7 — numerical fidelity of the co-simulated machine
// ---------------------------------------------------------------------
pub fn f7_fidelity() -> ExperimentResult {
    let s = water_box(5, 5, 5, 7);
    let out = cosim::verify_pair_forces(&s, 8, 42);
    let differing = cosim::differing_from_engine(&s, &out.image);
    let serial_k = cosim::serial_kspace_energy(&s);
    let dist_k = cosim::distributed_kspace_energy(&s, 8);

    // NVE conservation of the serial reference engine.
    let mut sys = water_box(4, 4, 4, 8);
    sys.thermalize(300.0, 9);
    let mut engine = Engine::builder().system(sys).quick().build().unwrap();
    engine.minimize(150, 1.0);
    engine.system.thermalize(300.0, 10);
    let mut tracker = DriftTracker::new();
    for _ in 0..300 {
        engine.step();
        tracker.record(engine.time_fs(), engine.energies().total());
    }
    let drift = tracker
        .drift_per_atom_per_ns(engine.system.n_atoms())
        .unwrap();

    // Mechanism-level cross-check: the sync-counter task-graph executor
    // vs the structured step model, same plan, same machine.
    let (dag_us, structured_us) = {
        use anton2_core::schedule::{build_step_graph, execute};
        let sys = dhfr_benchmark(1);
        let cfg = MachineConfig::anton2(64);
        let plan = anton2_core::StepPlan::build(&sys, &cfg);
        let g = build_step_graph(&plan, &cfg.node, true);
        let mut net = anton2_net::Network::new(cfg.torus, cfg.link);
        let dag = execute(&g, &mut net, &cfg.node).makespan;
        let mut machine = anton2_core::Machine::new(cfg);
        let ready = vec![anton2_des::SimTime::ZERO; 64];
        let st = machine.simulate_step(&plan, true, &ready).step_time;
        (dag.as_us_f64(), st.as_us_f64())
    };
    let rows = vec![
        format!(
            "distributed vs engine pair forces (8 nodes): {} of {} fixed-point components differ",
            differing,
            3 * s.n_atoms()
        ),
        format!(
            "sync-counter DAG executor vs structured step model (DHFR@64): \
             {dag_us:.2} vs {structured_us:.2} µs (ratio {:.2})",
            dag_us / structured_us
        ),
        format!(
            "distributed vs serial k-space energy: {:.6} vs {:.6} kcal/mol (Δ {:.2e})",
            dist_k,
            serial_k,
            (dist_k - serial_k).abs()
        ),
        format!(
            "serial engine NVE drift: {:.3} kcal/mol/ns/atom over 300 fs",
            drift
        ),
    ];
    ExperimentResult {
        id: "F7",
        title: "Functional fidelity: machine computation vs serial engine",
        claim: "simulator validity: the machine computes real MD",
        rows,
        data: json!({"pair_force_components_differing": differing,
                     "kspace_delta": (dist_k - serial_k).abs(),
                     "nve_drift": drift}),
    }
}

// ---------------------------------------------------------------------
// F8 — network microbenchmarks
// ---------------------------------------------------------------------
pub fn f8_network() -> ExperimentResult {
    let torus = Torus::new(8, 8, 8);
    let mut rows = vec!["one-way latency vs hop count (256 B):".into()];
    let mut lat = Vec::new();
    for hops in [1u32, 2, 4, 8, 12] {
        let mut net = Network::new(torus, anton2_class_link());
        // Pick a destination at the requested distance along axes.
        let c = Coord {
            x: hops.min(4),
            y: hops.saturating_sub(4).min(4),
            z: hops.saturating_sub(8).min(4),
        };
        let dst = torus.id(c);
        assert_eq!(torus.hops(0, dst), hops);
        let t = net.transmit(anton2_des::SimTime::ZERO, 0, dst, 256);
        rows.push(format!("  {:>2} hops: {:>8.0} ns", hops, t.as_ns_f64()));
        lat.push(json!({"hops": hops, "ns": t.as_ns_f64()}));
    }
    rows.push("achieved bandwidth vs message size (6 hops):".into());
    let mut bw = Vec::new();
    for bytes in [256u32, 4_096, 65_536, 1_048_576] {
        let mut net = Network::new(torus, anton2_class_link());
        let dst = torus.id(Coord { x: 2, y: 2, z: 2 });
        let t = net.transmit(anton2_des::SimTime::ZERO, 0, dst, bytes);
        let gbps = bytes as f64 / t.as_ns_f64();
        rows.push(format!("  {:>8} B: {:>6.1} GB/s effective", bytes, gbps));
        bw.push(json!({"bytes": bytes, "gbps": gbps}));
    }
    // Multicast vs sequential unicast for a 26-neighbor import.
    let dsts: Vec<u32> = (1..27).collect();
    let mut net = Network::new(torus, anton2_class_link());
    let mc = net
        .multicast(anton2_des::SimTime::ZERO, 0, &dsts, 2_048)
        .into_iter()
        .map(|d| d.at)
        .max()
        .unwrap();
    let mut net = Network::new(torus, anton2_class_link());
    let mut uc = anton2_des::SimTime::ZERO;
    for &d in &dsts {
        uc = uc.max(net.transmit(anton2_des::SimTime::ZERO, 0, d, 2_048));
    }
    rows.push(format!(
        "26-way import (2 kB): multicast {:.2} µs vs unicasts {:.2} µs ({:.1}× win)",
        mc.as_us_f64(),
        uc.as_us_f64(),
        uc.as_us_f64() / mc.as_us_f64()
    ));
    ExperimentResult {
        id: "F8",
        title: "Torus network microbenchmarks",
        claim: "substrate validity: latency/bandwidth/multicast behavior",
        rows,
        data: json!({"latency": lat, "bandwidth": bw,
                     "multicast_us": mc.as_us_f64(), "unicast_us": uc.as_us_f64()}),
    }
}

// ---------------------------------------------------------------------
// F9 — bitwise determinism
// ---------------------------------------------------------------------
pub fn f9_determinism() -> ExperimentResult {
    let s = solvated_protein(80, 240, 11);
    let reference = cosim::force_checksum(&s, 1, 0);
    let mut rows = vec![format!(
        "fixed-point force checksum, 1 node, natural order: {reference:016x}"
    )];
    let mut all_equal = true;
    for nodes in [8u32, 27, 64] {
        for scramble in [0u64, 12345] {
            let c = cosim::force_checksum(&s, nodes, scramble);
            all_equal &= c == reference;
            rows.push(format!(
                "  {} nodes, scramble {:>6}: {:016x}  {}",
                nodes,
                scramble,
                c,
                if c == reference { "==" } else { "MISMATCH" }
            ));
        }
    }
    rows.push(format!(
        "bitwise identical across all decompositions/orders: {}",
        if all_equal { "YES" } else { "NO" }
    ));
    ExperimentResult {
        id: "F9",
        title: "Bitwise determinism across machine sizes and orders",
        claim: "Anton's determinism property via fixed-point accumulation",
        rows,
        data: json!({"all_equal": all_equal, "checksum": format!("{reference:016x}")}),
    }
}

// ---------------------------------------------------------------------
// F10 — RESPA interval sweep
// ---------------------------------------------------------------------
pub fn f10_respa_sweep() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>9}  {:>12}  {:>22}",
        "interval", "µs/day", "drift (kcal/mol/ns/at)"
    )];
    let mut series = Vec::new();
    for interval in [1u32, 2, 3, 4] {
        let r = simulate_performance(&s, MachineConfig::anton2(NODES), DT_FS, interval);
        // Physics cost of the interval, measured on the serial engine with
        // a small water box.
        let mut sys = water_box(4, 4, 4, 20);
        sys.thermalize(300.0, 21);
        let mut cfg = EngineConfig::quick();
        cfg.respa = RespaSchedule {
            kspace_interval: interval,
        };
        let mut engine = Engine::builder().system(sys).config(cfg).build().unwrap();
        engine.minimize(120, 1.0);
        engine.system.thermalize(300.0, 22);
        let mut tracker = DriftTracker::new();
        for step in 0..240 {
            engine.step();
            // Sample at outer boundaries so the ledger has fresh k-space.
            if (step + 1) % interval as u64 == 0 {
                tracker.record(engine.time_fs(), engine.energies().total());
            }
        }
        let drift = tracker
            .drift_per_atom_per_ns(engine.system.n_atoms())
            .unwrap_or(f64::NAN);
        rows.push(format!(
            "{:>9}  {:>12.2}  {:>22.3}",
            interval, r.us_per_day, drift
        ));
        series.push(json!({"interval": interval, "us_day": r.us_per_day, "drift": drift}));
    }
    ExperimentResult {
        id: "F10",
        title: "K-space RESPA interval sweep (speed vs integration quality)",
        claim: "A5: software-controlled multiple timestepping headroom",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F14 — routing-policy ablation (extension)
// ---------------------------------------------------------------------
pub fn f14_routing() -> ExperimentResult {
    use anton2_net::network::RoutingPolicy;
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!("{:>24}  {:>12}", "routing", "µs/day")];
    let mut series = Vec::new();
    for (name, pol) in [
        ("dimension-order", RoutingPolicy::DimensionOrder),
        ("randomized minimal", RoutingPolicy::RandomizedMinimal),
    ] {
        let r = perf(&s, MachineConfig::anton2(NODES).with_routing(pol));
        rows.push(format!("{:>24}  {:>12.2}", name, r.us_per_day));
        series.push(json!({"policy": name, "us_day": r.us_per_day}));
    }
    rows.push(
        "MD traffic is already spatially balanced (imports are local, the FFT \
         torus-aligned), so deterministic DOR — which Anton uses — wins \
         outright; randomizing dimension order only lengthens the hot \
         in-plane flows. Randomized minimal routing pays off on adversarial \
         corner-turn patterns (asserted in anton2-net's tests), which MD \
         steps do not produce."
            .to_string(),
    );
    ExperimentResult {
        id: "F14",
        title: "Routing-policy ablation, DHFR @ 512 nodes",
        claim: "extension: why deterministic DOR suffices for MD traffic",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F15 — load imbalance (extension): liquid slab vs homogeneous box
// ---------------------------------------------------------------------
pub fn f15_load_imbalance() -> ExperimentResult {
    use anton2_core::Decomposition;
    use anton2_md::builders::{water_box, water_slab};
    let nodes = 64u32;
    // Identical atom counts: 12×12×12 cells of water, once filling the box
    // homogeneously, once as the lower half of a double-height box (a
    // liquid/vacuum slab). Same work per step, different distribution.
    let balanced = water_box(12, 12, 12, 9);
    let slab = water_slab(12, 12, 12, 24, 9);
    let mut rows = vec![format!(
        "{:<22} {:>8}  {:>10}  {:>12}  {:>12}",
        "system", "atoms", "imbalance", "µs/step", "µs/day"
    )];
    let mut series = Vec::new();
    for (name, s) in [
        ("homogeneous box", &balanced),
        ("liquid/vacuum slab", &slab),
    ] {
        let cfg = MachineConfig::anton2(nodes);
        let imb = Decomposition::new(cfg.torus, s.pbc).imbalance(s);
        let r = perf(s, cfg);
        rows.push(format!(
            "{:<22} {:>8}  {:>10.2}  {:>12.3}  {:>12.2}",
            name,
            s.n_atoms(),
            imb,
            r.step_time_us,
            r.us_per_day
        ));
        series.push(json!({"system": name, "imbalance": imb,
                           "step_us": r.step_time_us, "us_day": r.us_per_day}));
    }
    let slowdown = series[1]["step_us"].as_f64().unwrap() / series[0]["step_us"].as_f64().unwrap();
    rows.push(format!(
        "same work, {:.2}× the step time: nodes owning vacuum idle while slab \
         nodes carry ~2× the mean load — static spatial decomposition pays \
         directly for density inhomogeneity.",
        slowdown
    ));
    ExperimentResult {
        id: "F15",
        title: "Load imbalance: slab vs homogeneous water @ 64 nodes",
        claim: "extension: sensitivity of static decomposition to density",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F16 — torus-shape ablation (extension): 512 nodes, three aspect ratios
// ---------------------------------------------------------------------
pub fn f16_torus_shape() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>10}  {:>9}  {:>12}  {:>12}",
        "torus", "diameter", "µs/step", "µs/day"
    )];
    let mut series = Vec::new();
    for (nx, ny, nz) in [(8u32, 8u32, 8u32), (16, 8, 4), (32, 4, 4)] {
        let mut cfg = MachineConfig::anton2(512);
        cfg.torus = Torus::new(nx, ny, nz);
        let r = perf(&s, cfg);
        rows.push(format!(
            "{:>4}×{}×{}  {:>9}  {:>12.3}  {:>12.2}",
            nx,
            ny,
            nz,
            cfg.torus.diameter(),
            r.step_time_us,
            r.us_per_day
        ));
        series.push(json!({"torus": format!("{nx}x{ny}x{nz}"),
                           "diameter": cfg.torus.diameter(),
                           "us_day": r.us_per_day}));
    }
    rows.push(
        "The cube minimizes the diameter (and the import/k-space hop counts); \
         elongated tori stretch the z-rings the FFT pencils and migration \
         traffic live on — why Anton machines are built as near-cubes."
            .to_string(),
    );
    ExperimentResult {
        id: "F16",
        title: "Torus-shape ablation: 512 nodes at three aspect ratios",
        claim: "extension: the cube is the right shape for MD traffic",
        rows,
        data: json!(series),
    }
}

/// The headline reproduction targets, used by integration tests.
pub struct HeadlineTargets {
    pub us_per_day_512: f64,
    pub speedup_vs_anton1: f64,
    pub speedup_vs_commodity: f64,
}

/// Compute the three headline numbers in one pass.
pub fn headline() -> HeadlineTargets {
    let s = dhfr_benchmark(1);
    let a2 = perf(&s, MachineConfig::anton2(NODES));
    let a1 = perf(&s, MachineConfig::anton1(NODES));
    let (gpu_rate, _) = CommodityModel::gpu_workstation().best_us_per_day(a2.pairs_per_step, DT_FS);
    let (cl_rate, _) = CommodityModel::cpu_cluster().best_us_per_day(a2.pairs_per_step, DT_FS);
    HeadlineTargets {
        us_per_day_512: a2.us_per_day,
        speedup_vs_anton1: a2.us_per_day / a1.us_per_day,
        speedup_vs_commodity: a2.us_per_day / gpu_rate.max(cl_rate),
    }
}

// ---------------------------------------------------------------------
// F11 — weak scaling (extension beyond the reconstructed set)
// ---------------------------------------------------------------------
pub fn f11_weak_scaling() -> ExperimentResult {
    // ~1,850 atoms per node at every machine size (DHFR@512's loading is
    // far lower; this probes the compute-bound regime the capacity runs
    // live in).
    let mut rows = vec![format!(
        "{:>6}  {:>9}  {:>10}  {:>12}  {:>12}",
        "nodes", "atoms", "atoms/node", "µs/step", "efficiency"
    )];
    let mut series = Vec::new();
    let mut base_step = 0.0;
    for nodes in [8u32, 64, 512] {
        let s = scaled_benchmark(1_850 * nodes as usize, 2);
        let r = perf(&s, MachineConfig::anton2(nodes));
        if nodes == 8 {
            base_step = r.step_time_us;
        }
        let eff = base_step / r.step_time_us;
        rows.push(format!(
            "{:>6}  {:>9}  {:>10}  {:>12.3}  {:>11.1}%",
            nodes,
            s.n_atoms(),
            s.n_atoms() / nodes as usize,
            r.step_time_us,
            eff * 100.0
        ));
        series.push(json!({"nodes": nodes, "atoms": s.n_atoms(),
                           "step_us": r.step_time_us, "efficiency": eff}));
    }
    ExperimentResult {
        id: "F11",
        title: "Weak scaling (~1.85k atoms/node)",
        claim: "extension: constant-work-per-node efficiency",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F12 — link-bandwidth sensitivity (extension)
// ---------------------------------------------------------------------
pub fn f12_bandwidth_sensitivity() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!(
        "{:>14}  {:>12}  {:>10}",
        "link GB/s", "µs/day", "vs 50 GB/s"
    )];
    let mut series = Vec::new();
    let mut reference = 0.0;
    for bw in [12.5f64, 25.0, 50.0, 100.0, 200.0] {
        let mut cfg = MachineConfig::anton2(NODES);
        cfg.link.bandwidth_gbps = bw;
        let r = perf(&s, cfg);
        if (bw - 50.0).abs() < 1e-9 {
            reference = r.us_per_day;
        }
        series.push(json!({"bandwidth_gbps": bw, "us_day": r.us_per_day}));
        rows.push(format!(
            "{:>14.1}  {:>12.2}  {:>9.2}x",
            bw, r.us_per_day, r.us_per_day
        ));
    }
    // Fill the ratio column now that the reference is known.
    for (row, point) in rows.iter_mut().skip(1).zip(&series) {
        let v = point["us_day"].as_f64().unwrap();
        *row = format!(
            "{:>14.1}  {:>12.2}  {:>9.2}x",
            point["bandwidth_gbps"].as_f64().unwrap(),
            v,
            v / reference
        );
    }
    ExperimentResult {
        id: "F12",
        title: "Link-bandwidth sensitivity, DHFR @ 512 nodes",
        claim: "extension: where the design sits on the bandwidth curve",
        rows,
        data: json!(series),
    }
}

// ---------------------------------------------------------------------
// F13 — dispatch-latency sweep (the fine-grained-hardware knob)
// ---------------------------------------------------------------------
pub fn f13_dispatch_sweep() -> ExperimentResult {
    let s = dhfr_benchmark(1);
    let mut rows = vec![format!("{:>18}  {:>12}", "dispatch (ns)", "µs/day")];
    let mut series = Vec::new();
    for disp in [5.0f64, 10.0, 50.0, 250.0, 1000.0] {
        let mut cfg = MachineConfig::anton2(NODES);
        cfg.node.dispatch_latency_ns = disp;
        let r = perf(&s, cfg);
        rows.push(format!("{:>18.0}  {:>12.2}", disp, r.us_per_day));
        series.push(json!({"dispatch_ns": disp, "us_day": r.us_per_day}));
    }
    rows.push(
        "Anton 2 ships hardware dispatch (~10 ns); at software-class latencies \
         (250–1000 ns, Anton 1 territory) the event-driven advantage erodes — \
         fine-grained execution *requires* fine-grained hardware."
            .to_string(),
    );
    ExperimentResult {
        id: "F13",
        title: "Dispatch-latency sweep (hardware vs software task launch)",
        claim: "extension: quantifies why sync counters + dispatch are in silicon",
        rows,
        data: json!(series),
    }
}
