//! Determinism contract of the parallel force pipeline (DESIGN.md,
//! "Threading and determinism model"):
//!
//! 1. the pair stream accumulates in fixed point, so its forces are
//!    *bitwise* equal across the serial path, the parallel path and a
//!    2×2×2 shard grid;
//! 2. parallel and serial forces agree to ≤ 1e-10 per component overall
//!    (the k-space part is bitwise identical too; only the bonded kernel
//!    differs, by floating-point regrouping), and
//! 3. the parallel path is *bitwise* independent of the thread count —
//!    runs under different `RAYON_NUM_THREADS` produce identical bits.
//!
//! Everything lives in one `#[test]` so the `RAYON_NUM_THREADS` mutations
//! can never race another test in this binary.

use anton2_md::builders::{solvated_protein, water_box};
use anton2_md::engine::{Engine, EngineConfig, Parallelism};
use anton2_md::shard::ShardGrid;
fn force_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.short_forces()
        .iter()
        .chain(e.long_forces())
        .map(|f| (f.x.to_bits(), f.y.to_bits(), f.z.to_bits()))
        .collect()
}

fn build(parallelism: Parallelism) -> Engine {
    // Protein beads give the bonded kernel real bonds/angles/dihedrals to
    // chunk; the waters exercise the pair and k-space paths.
    let sys = solvated_protein(120, 500, 3);
    let mut cfg = EngineConfig::quick();
    cfg.parallelism = parallelism;
    Engine::builder().system(sys).config(cfg).build().unwrap()
}

/// A rigid-water box has no bonded terms, so its short-range forces are
/// the pair stream plus the serial exclusion correction. 6³ waters at a
/// 5 + 1 Å list range host 3 cells per axis, enough for 2×2×2 shards.
fn water_engine(parallelism: Parallelism, grid: ShardGrid) -> Engine {
    let mut sys = water_box(6, 6, 6, 9);
    sys.nb.cutoff = 5.0;
    sys.nb.skin = 1.0;
    sys.nb.ewald_alpha = 3.0 / 5.0;
    assert!(sys.topology.bonds.is_empty() && sys.topology.angles.is_empty());
    let mut cfg = EngineConfig::quick();
    cfg.parallelism = parallelism;
    cfg.decomposition = grid;
    Engine::builder().system(sys).config(cfg).build().unwrap()
}

#[test]
fn parallel_forces_match_serial_and_are_thread_count_independent() {
    // The pair stream: serial ≡ parallel ≡ 2×2×2 shards, bit for bit, at
    // one and at several threads.
    for threads in ["1", "3"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let serial = water_engine(Parallelism::Serial, ShardGrid::single());
        for (parallelism, grid) in [
            (Parallelism::Parallel, ShardGrid::single()),
            (Parallelism::Serial, ShardGrid::new(2, 2, 2)),
            (Parallelism::Parallel, ShardGrid::new(2, 2, 2)),
        ] {
            let other = water_engine(parallelism, grid);
            assert_eq!(
                force_bits(&serial),
                force_bits(&other),
                "pair-stream forces differ: {parallelism:?}, {grid:?}, {threads} threads"
            );
        }
    }

    std::env::set_var("RAYON_NUM_THREADS", "3");
    let serial = build(Parallelism::Serial);
    let par3 = build(Parallelism::Parallel);

    // Per-component agreement with the serial reference.
    let pairs = serial
        .short_forces()
        .iter()
        .zip(par3.short_forces())
        .chain(serial.long_forces().iter().zip(par3.long_forces()));
    for (i, (a, b)) in pairs.enumerate() {
        for c in 0..3 {
            let (x, y) = (a[c], b[c]);
            assert!(
                (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                "component {c} of force {i}: serial {x} vs parallel {y}"
            );
        }
    }

    // The k-space stage promises more than a tolerance: bitwise equality.
    for (i, (a, b)) in serial
        .long_forces()
        .iter()
        .zip(par3.long_forces())
        .enumerate()
    {
        assert!(
            (*a - *b).norm() == 0.0,
            "k-space force {i} not bitwise equal: {a:?} vs {b:?}"
        );
    }

    // Same parallel computation under a different thread count: bitwise
    // identical — the pair stream sums integers, and every other kernel
    // decomposes into a fixed number of chunks (or grid planes / FFT
    // lines) and reduces in chunk order.
    std::env::set_var("RAYON_NUM_THREADS", "5");
    let par5 = build(Parallelism::Parallel);
    assert_eq!(
        force_bits(&par3),
        force_bits(&par5),
        "forces depend on RAYON_NUM_THREADS"
    );

    std::env::remove_var("RAYON_NUM_THREADS");
}
