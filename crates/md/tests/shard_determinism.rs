//! Shard-count invariance contract: the domain-decomposed engine must be
//! **bitwise** identical to the single-image engine at every shard count —
//! positions, velocities, energies, forces, and the global telemetry
//! counters (minus the exchange traffic, which only a decomposed run has)
//! — across serial/parallel force paths, neighbor-list rebuilds from seam
//! crossings, and barostat box rescales. A sharded run interrupted at step
//! k must resume from its checkpoint bitwise identical to the uninterrupted
//! run, single-image and sharded checkpoints must restore into each other,
//! and invalid decompositions must be rejected at build time with
//! actionable messages.

use anton2_md::builders::water_box;
use anton2_md::prelude::*;
use proptest::prelude::*;

/// A box that hosts a real 3×3×3 cell grid at cutoff + skin, so shard
/// grids up to 3 per axis are valid while the system stays small enough
/// for bitwise proptests.
fn small_system(seed: u64) -> System {
    let mut s = water_box(6, 6, 6, seed);
    s.nb.cutoff = 5.0;
    s.nb.skin = 1.0;
    s.nb.ewald_alpha = 3.0 / 5.0;
    s.thermalize(300.0, seed + 1);
    s
}

fn engine(sys: System, grid: ShardGrid, parallel: bool, respa: u32) -> Engine {
    let mut cfg = EngineConfig::quick();
    cfg.respa = RespaSchedule {
        kspace_interval: respa,
    };
    cfg.parallelism = if parallel {
        Parallelism::Parallel
    } else {
        Parallelism::Serial
    };
    cfg.decomposition = grid;
    Engine::builder()
        .system(sys)
        .config(cfg)
        .telemetry(TelemetryLevel::Counters)
        .build()
        .unwrap()
}

fn state_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.system
        .positions
        .iter()
        .chain(&e.system.velocities)
        .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
        .collect()
}

fn force_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.short_forces()
        .iter()
        .chain(e.long_forces())
        .map(|f| (f.x.to_bits(), f.y.to_bits(), f.z.to_bits()))
        .collect()
}

/// Global counters with the exchange traffic zeroed: a single-image run
/// imports nothing, so those three counters are the only ones allowed to
/// differ between the decomposed and single-image engines.
fn counters_sans_exchange(e: &Engine) -> Counters {
    Counters {
        atoms_imported: 0,
        atoms_exported: 0,
        exchange_bytes: 0,
        ..e.profile().counters
    }
}

/// Shard grids for 1, 2, 4, 8, and 27 shards — all hostable by the
/// 3-cell-per-axis test box.
const GRIDS: [(usize, usize, usize); 5] = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 3, 3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forces, energies, trajectories, and global counters are bitwise
    /// shard-count invariant over random systems, step counts, RESPA
    /// phases, force paths, and a seam-crossing rigid shift mid-run.
    #[test]
    fn sharded_run_is_bitwise_single_image(
        seed in 0u64..1000,
        steps in 1usize..4,
        respa in 1u32..3,
        parallel in proptest::bool::ANY,
        shift in proptest::bool::ANY,
        grid_index in 0usize..GRIDS.len(),
    ) {
        let (l, m, n) = GRIDS[grid_index];
        let grid = ShardGrid::new(l, m, n);
        let mut single = engine(small_system(seed), ShardGrid::single(), parallel, respa);
        let mut sharded = engine(small_system(seed), grid, parallel, respa);
        single.run(steps);
        sharded.run(steps);
        if shift {
            // Rigid shift past skin/2: atoms cross shard seams and the
            // stream rebuilds, exercising the re-plan path.
            for e in [&mut single, &mut sharded] {
                for p in &mut e.system.positions {
                    p.x += 0.6;
                }
            }
            single.run(1);
            sharded.run(1);
        }
        prop_assert_eq!(state_bits(&single), state_bits(&sharded), "trajectory diverged");
        prop_assert_eq!(force_bits(&single), force_bits(&sharded), "forces diverged");
        prop_assert_eq!(
            single.energies().total().to_bits(),
            sharded.energies().total().to_bits(),
            "energy diverged"
        );
        prop_assert_eq!(
            counters_sans_exchange(&single),
            counters_sans_exchange(&sharded),
            "global work counters diverged"
        );
    }
}

/// The acceptance gate spelled out directly: a 2×2×2-sharded run is
/// bitwise identical to the single-image engine in positions, velocities,
/// energies, and telemetry counters — and it really decomposed (nonzero
/// import traffic, per-shard summaries covering every atom).
#[test]
fn two_cubed_decomposition_matches_single_image_bitwise() {
    let grid = ShardGrid::new(2, 2, 2);
    for parallel in [false, true] {
        let mut single = engine(small_system(11), ShardGrid::single(), parallel, 2);
        let mut sharded = engine(small_system(11), grid, parallel, 2);
        let s1 = single.run(4);
        let s8 = sharded.run(4);
        assert_eq!(state_bits(&single), state_bits(&sharded));
        assert_eq!(
            single.energies().total().to_bits(),
            sharded.energies().total().to_bits()
        );
        assert_eq!(
            counters_sans_exchange(&single),
            counters_sans_exchange(&sharded)
        );
        // The decomposition is real, not vacuous.
        assert!(s1.shards.is_empty());
        assert_eq!(
            s1.counters.atoms_imported, 0,
            "a single image imports nothing"
        );
        assert_eq!(s1.counters.exchange_bytes, 0);
        assert_eq!(s8.shards.len(), 8);
        // The run summary's counters diff over the run window, matching
        // the per-shard summaries (the cumulative profile also includes
        // the construction-time force evaluation).
        let c = s8.counters;
        assert!(c.atoms_imported > 0, "2x2x2 shards must exchange a halo");
        assert_eq!(c.atoms_imported, c.atoms_exported);
        assert_eq!(c.exchange_bytes, 24 * c.atoms_imported);
        let owned: u64 = s8.shards.iter().map(|s| s.atoms_owned).sum();
        assert_eq!(owned as usize, sharded.system.n_atoms());
        let imported: u64 = s8.shards.iter().map(|s| s.counters.atoms_imported).sum();
        assert_eq!(imported, c.atoms_imported);
        let pairs: u64 = s8.shards.iter().map(|s| s.counters.pairs_evaluated).sum();
        assert_eq!(
            pairs, c.pairs_evaluated,
            "per-shard pairs sum to the global"
        );
    }
}

/// Interrupt-at-k for the decomposed engine: its checkpoint (per-shard
/// images + consistency barrier) resumes bitwise identical to the
/// uninterrupted sharded run, through a JSON round trip, mid-RESPA.
#[test]
fn sharded_resume_is_bitwise_uninterrupted() {
    let grid = ShardGrid::new(2, 2, 1);
    let mut reference = engine(small_system(21), grid, false, 2);
    reference.run(3); // 3 % 2 != 0: mid RESPA cycle
    let cp = reference.checkpoint();
    assert_eq!(cp.version, CHECKPOINT_VERSION);
    assert_eq!(cp.shards.len(), 4);
    assert!(cp.validate_shards().is_ok());
    assert!(cp.shards.iter().all(|img| img.step == 3));
    reference.run(4);
    let want = state_bits(&reference);

    let json = serde_json::to_string(&cp).unwrap();
    let back: Checkpoint = serde_json::from_str(&json).unwrap();
    assert!(back.digest_ok(), "digest broke in serialization");
    let mut resumed = Engine::builder()
        .system(small_system(21))
        .config(reference.cfg)
        .telemetry(TelemetryLevel::Counters)
        .resume_from(back)
        .build()
        .unwrap();
    assert_eq!(resumed.step_count(), 3);
    resumed.run(4);
    assert_eq!(state_bits(&resumed), want, "sharded resume diverged");
}

/// Cross-resume both ways: a sharded checkpoint (with images) restores
/// into a single-image engine and a single-image checkpoint (without)
/// restores into a sharded engine — and because the engines are bitwise
/// identical, every continuation lands on the same trajectory.
#[test]
fn resume_crosses_decompositions_bitwise() {
    let grid = ShardGrid::new(2, 2, 1);
    let mut single = engine(small_system(31), ShardGrid::single(), false, 1);
    let mut sharded = engine(small_system(31), grid, false, 1);
    single.run(3);
    sharded.run(3);
    let cp_single = single.checkpoint();
    let cp_sharded = sharded.checkpoint();
    assert_eq!(cp_single.version, cp_sharded.version);
    assert!(cp_single.shards.is_empty());
    assert_eq!(cp_sharded.shards.len(), 4);
    single.run(3);
    let want = state_bits(&single);

    let mut a = engine(small_system(31), ShardGrid::single(), false, 1);
    a.restore(&cp_sharded).unwrap();
    a.run(3);
    assert_eq!(state_bits(&a), want, "sharded into single-image diverged");
    let mut b = engine(small_system(31), grid, false, 1);
    b.restore(&cp_single).unwrap();
    b.run(3);
    assert_eq!(state_bits(&b), want, "single-image into sharded diverged");
}

/// The consistency barrier rejects images that are inconsistent with the
/// global arrays, even when the digest is recomputed to match.
#[test]
fn consistency_barrier_rejects_torn_checkpoints() {
    let mut e = engine(small_system(41), ShardGrid::new(2, 1, 1), false, 1);
    e.run(2);
    let cp = e.checkpoint();

    // A shard imaged at a different step: the barrier reads it as a torn
    // (non-quiesced) capture.
    let mut torn = cp.clone();
    torn.shards[1].step = 1;
    torn.digest = torn.compute_digest();
    assert_eq!(
        e.restore(&torn),
        Err(EngineError::CheckpointMismatch(
            "shard image step disagrees with checkpoint step"
        ))
    );

    // A shard whose image disagrees with the global arrays.
    let mut drifted = cp.clone();
    drifted.shards[0].positions[0].x += 1.0;
    drifted.digest = drifted.compute_digest();
    assert_eq!(
        e.restore(&drifted),
        Err(EngineError::CheckpointMismatch(
            "shard image state disagrees with global arrays"
        ))
    );

    // Images that double-own an atom no longer partition the system.
    let mut doubled = cp.clone();
    let stolen = doubled.shards[0].atoms[0];
    doubled.shards[1].atoms[0] = stolen;
    doubled.shards[1].positions[0] = doubled.shards[0].positions[0];
    doubled.shards[1].velocities[0] = doubled.shards[0].velocities[0];
    doubled.digest = doubled.compute_digest();
    assert_eq!(
        e.restore(&doubled),
        Err(EngineError::CheckpointMismatch(
            "shard images do not partition the atoms"
        ))
    );

    // One image dropped: the stale digest catches the edit; with the digest
    // recomputed the barrier finds the atoms nobody imaged.
    let mut dropped = cp.clone();
    dropped.shards.pop();
    assert_eq!(e.restore(&dropped), Err(EngineError::CheckpointCorrupt));
    dropped.digest = dropped.compute_digest();
    assert_eq!(
        e.restore(&dropped),
        Err(EngineError::CheckpointMismatch(
            "shard images do not cover every atom"
        ))
    );

    // Global arrays that disagree in length: the barrier answers, it does
    // not index past the shorter one.
    let mut short = cp.clone();
    short.velocities.pop();
    short.digest = short.compute_digest();
    assert_eq!(
        e.restore(&short),
        Err(EngineError::CheckpointMismatch(
            "position and velocity arrays disagree in length"
        ))
    );

    // The untouched checkpoint still restores.
    assert_eq!(e.restore(&cp), Ok(()));
}

/// Build-time validation: impossible grids are rejected with messages that
/// name the constraint, and the default stays single-image.
#[test]
fn decomposition_validation_is_typed_and_actionable() {
    let zero = Engine::builder()
        .system(small_system(51))
        .quick()
        .decomposition(ShardGrid::new(2, 0, 1))
        .build()
        .map(|_| ());
    match zero {
        Err(EngineError::Decomposition(msg)) => assert!(msg.contains("zero axis"), "{msg}"),
        other => panic!("expected Decomposition error, got {other:?}"),
    }

    // More shards per axis than cells: names the hosting cell grid.
    let too_many = Engine::builder()
        .system(small_system(52))
        .quick()
        .decomposition(ShardGrid::new(50, 1, 1))
        .build()
        .map(|_| ());
    match too_many {
        Err(EngineError::Decomposition(msg)) => {
            assert!(msg.contains("cell grid"), "{msg}");
        }
        other => panic!("expected Decomposition error, got {other:?}"),
    }

    // Default builder stays single-image: no shard summaries.
    let mut e = Engine::builder()
        .system(small_system(53))
        .quick()
        .build()
        .unwrap();
    assert!(e.run(1).shards.is_empty());
}

/// A barostat box rescale mid-run (new cell grid, new GSE plans, full
/// stream invalidation) keeps the decomposed run bitwise on the
/// single-image trajectory.
#[test]
fn barostat_rescale_preserves_shard_invariance() {
    let build = |grid| {
        let mut cfg = EngineConfig::quick();
        cfg.parallelism = Parallelism::Serial;
        cfg.decomposition = grid;
        cfg.barostat = Some(BerendsenBarostat::water(1.0, 100.0));
        cfg.barostat_period = 2;
        Engine::builder()
            .system(small_system(61))
            .config(cfg)
            .telemetry(TelemetryLevel::Counters)
            .build()
            .unwrap()
    };
    let mut single = build(ShardGrid::single());
    let mut sharded = build(ShardGrid::new(2, 2, 1));
    single.run(6);
    sharded.run(6);
    assert!(
        (single.system.pbc.lx - 18.6).abs() > 1e-12,
        "barostat must actually rescale the box for this test to bite"
    );
    assert_eq!(state_bits(&single), state_bits(&sharded));
    assert_eq!(
        single.energies().total().to_bits(),
        sharded.energies().total().to_bits()
    );
}
