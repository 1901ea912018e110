//! Checkpoint/restart contract: interrupt-at-step-k and resume must be
//! **bitwise** identical to the uninterrupted run — across serialization,
//! RESPA phase, thermostat choice, and the serial/parallel force paths —
//! and damaged or adversarial checkpoints must be rejected with typed
//! errors — never silently restored, never a panic.

use anton2_md::builders::water_box;
use anton2_md::engine::{Engine, EngineConfig, EngineError, Parallelism, Thermostat};
use anton2_md::integrate::RespaSchedule;
use anton2_md::system::System;
use anton2_md::trajectory::{Checkpoint, CHECKPOINT_VERSION};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn test_system(seed: u64) -> System {
    let mut sys = water_box(2, 2, 2, seed);
    sys.thermalize(300.0, seed + 1);
    sys
}

fn config(respa: u32, langevin: bool, parallel: bool) -> EngineConfig {
    let mut cfg = EngineConfig::quick();
    cfg.respa = RespaSchedule {
        kspace_interval: respa,
    };
    if langevin {
        cfg.thermostat = Thermostat::Langevin {
            t_kelvin: 300.0,
            gamma_per_ps: 2.0,
        };
    }
    cfg.parallelism = if parallel {
        Parallelism::Parallel
    } else {
        Parallelism::Serial
    };
    cfg
}

fn state_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.system
        .positions
        .iter()
        .chain(&e.system.velocities)
        .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serialize → deserialize → resume reproduces the uninterrupted
    /// trajectory bitwise for random small systems, interrupt steps, RESPA
    /// phases, thermostats, and force paths.
    #[test]
    fn resume_after_json_roundtrip_is_bitwise(
        seed in 0u64..1000,
        k in 1usize..5,
        extra in 1usize..5,
        respa in 1u32..4,
        langevin in proptest::bool::ANY,
        parallel in proptest::bool::ANY,
    ) {
        let cfg = config(respa, langevin, parallel);
        let mut reference = Engine::builder()
            .system(test_system(seed))
            .config(cfg)
            .build()
            .unwrap();
        reference.run(k);
        let cp = reference.checkpoint();
        reference.run(extra);
        let want = state_bits(&reference);

        let json = serde_json::to_string(&cp).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        prop_assert!(back.digest_ok(), "digest broke in serialization");
        let mut resumed = Engine::builder()
            .system(test_system(seed))
            .config(cfg)
            .resume_from(back)
            .build()
            .unwrap();
        prop_assert_eq!(resumed.step_count(), k as u64);
        resumed.run(extra);
        prop_assert_eq!(state_bits(&resumed), want, "resume diverged");
    }
}

/// A checkpoint taken after a drift-triggered list refresh must carry the
/// refreshed epoch, not the initial build's, and resume bitwise. The 37.2 Å
/// box gives a real cell grid; a 0.6 Å rigid shift is past skin/2, so the
/// next step rebuilds the list at the shifted positions.
#[test]
fn checkpoint_after_refresh_resumes_bitwise() {
    let make = || {
        let mut sys = water_box(12, 12, 12, 31);
        sys.thermalize(300.0, 32);
        sys
    };
    let cfg = config(2, false, false);
    let mut reference = Engine::builder()
        .system(make())
        .config(cfg)
        .build()
        .unwrap();
    let initial_epoch = reference.checkpoint().stream_epoch;
    reference.run(2);
    assert_eq!(reference.checkpoint().stream_epoch, initial_epoch);
    for p in &mut reference.system.positions {
        p.x += 0.6;
    }
    reference.run(1);
    let cp = reference.checkpoint();
    assert_ne!(
        cp.stream_epoch, initial_epoch,
        "the list must have been refreshed for this test to bite"
    );
    reference.run(3);
    let want = state_bits(&reference);

    let json = serde_json::to_string(&cp).unwrap();
    let back: Checkpoint = serde_json::from_str(&json).unwrap();
    assert!(back.digest_ok());
    let mut resumed = Engine::builder()
        .system(make())
        .config(cfg)
        .resume_from(back)
        .build()
        .unwrap();
    resumed.run(3);
    assert_eq!(
        state_bits(&resumed),
        want,
        "refreshed-stream resume diverged"
    );
}

#[test]
fn truncated_checkpoint_fails_to_parse() {
    let e = Engine::builder()
        .system(test_system(7))
        .quick()
        .build()
        .unwrap();
    let json = serde_json::to_string(&e.checkpoint()).unwrap();
    for cut in [json.len() / 4, json.len() / 2, json.len() - 2] {
        assert!(
            serde_json::from_str::<Checkpoint>(&json[..cut]).is_err(),
            "truncation at {cut} bytes parsed"
        );
    }
    // A field ripped out of otherwise-valid JSON also fails to parse.
    let gutted = json.replacen("\"rng_state\"", "\"not_rng_state\"", 1);
    assert!(serde_json::from_str::<Checkpoint>(&gutted).is_err());
}

#[test]
fn tampered_checkpoint_is_rejected_by_the_digest() {
    let e = Engine::builder()
        .system(test_system(8))
        .quick()
        .build()
        .unwrap();
    let cp = e.checkpoint();

    // Corrupt one value, re-serialize: still parses, but the resume path
    // refuses it.
    let mut tampered = cp.clone();
    tampered.positions[3].y = f64::from_bits(tampered.positions[3].y.to_bits() ^ 1);
    let back: Checkpoint =
        serde_json::from_str(&serde_json::to_string(&tampered).unwrap()).unwrap();
    assert!(!back.digest_ok());
    let err = Engine::builder()
        .system(test_system(8))
        .quick()
        .resume_from(back)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, EngineError::CheckpointCorrupt);

    // Wrong version is rejected before anything else.
    let mut old = cp;
    old.version = 1;
    let err = Engine::builder()
        .system(test_system(8))
        .quick()
        .resume_from(old)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::CheckpointVersion {
            found: 1,
            expected: CHECKPOINT_VERSION,
        }
    );
}

/// `resume_from(cp).build()` with the panic, if any, turned into a value.
fn try_resume(sys: System, cp: Checkpoint) -> std::thread::Result<Result<(), EngineError>> {
    catch_unwind(AssertUnwindSafe(|| {
        Engine::builder()
            .system(sys)
            .quick()
            .resume_from(cp)
            .build()
            .map(|_| ())
    }))
}

/// The digest vouches for integrity, not sanity: checkpoints whose digest
/// is valid but whose content no engine could have written are rejected
/// with the typed error naming the bad piece, before any state is touched.
#[test]
fn adversarial_checkpoints_fail_typed_and_never_panic() {
    let make = || {
        let mut sys = water_box(4, 4, 4, 9);
        sys.thermalize(300.0, 10);
        sys
    };
    let mut e = Engine::builder().system(make()).quick().build().unwrap();
    e.run(2);
    let cp = e.checkpoint();
    let mismatch = EngineError::CheckpointMismatch;
    let version = |found| EngineError::CheckpointVersion {
        found,
        expected: CHECKPOINT_VERSION,
    };
    type Probe = (&'static str, fn(&mut Checkpoint), EngineError);
    let probes: [Probe; 11] = [
        ("box edge 0", |c| c.pbc.lx = 0.0, mismatch("box")),
        ("box edge -5", |c| c.pbc.ly = -5.0, mismatch("box")),
        ("box edge NaN", |c| c.pbc.lz = f64::NAN, mismatch("box")),
        (
            "NaN position",
            |c| c.positions[0].x = f64::NAN,
            mismatch("non-finite state"),
        ),
        (
            "infinite velocity",
            |c| c.velocities[0].x = f64::INFINITY,
            mismatch("non-finite state"),
        ),
        (
            "NaN list epoch",
            |c| c.stream_epoch[5].y = f64::NAN,
            mismatch("non-finite state"),
        ),
        (
            "NaN cached force",
            |c| c.f_long[7].z = f64::NAN,
            mismatch("non-finite state"),
        ),
        (
            "no force cache",
            |c| c.f_short.clear(),
            mismatch("force array length"),
        ),
        (
            "no list epoch",
            |c| c.stream_epoch.clear(),
            mismatch("neighbor epoch length"),
        ),
        ("version 3", |c| c.version = 3, version(3)),
        ("version 4", |c| c.version = 4, version(4)),
    ];
    for (name, edit, want) in probes {
        let mut bad = cp.clone();
        edit(&mut bad);
        bad.digest = bad.compute_digest();
        match try_resume(make(), bad) {
            Ok(got) => assert_eq!(got, Err(want), "{name}"),
            Err(_) => panic!("{name}: resume panicked instead of returning an error"),
        }
    }
    // A system-only capture was never a restartable checkpoint.
    let capture = Checkpoint::capture(&e.system, e.step_count(), cp.dt_fs);
    assert_eq!(
        try_resume(make(), capture).expect("no panic"),
        Err(mismatch("force array length"))
    );
    assert_eq!(try_resume(make(), cp).expect("no panic"), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One mutation of a real checkpoint's JSON — a flipped bit, a
    /// truncation, an edited digit — either fails to parse or reaches
    /// `build()`, which answers `Ok` or a typed `Err`, with the stored
    /// digest and with the digest recomputed over the mutated content (so
    /// the checks behind the digest see the damage too). Nothing panics.
    #[test]
    fn mutated_checkpoint_json_never_panics(
        kind in 0u8..3,
        at in 0.0f64..1.0,
        bit in 0u32..7,
        digit in 0u8..10,
    ) {
        let e = Engine::builder().system(test_system(11)).quick().build().unwrap();
        let mut bytes = serde_json::to_string(&e.checkpoint()).unwrap().into_bytes();
        prop_assert!(bytes.is_ascii());
        let i = (at * bytes.len() as f64) as usize;
        match kind {
            // Low seven bits only, so the text stays ASCII (valid UTF-8).
            0 => bytes[i] ^= 1 << bit,
            1 => bytes.truncate(i),
            _ => {
                let Some(k) = (i..bytes.len()).find(|&k| bytes[k].is_ascii_digit()) else {
                    return Ok(());
                };
                bytes[k] = b'0' + digit;
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII");
        let Ok(cp) = serde_json::from_str::<Checkpoint>(&text) else {
            return Ok(());
        };
        let mut rehashed = cp.clone();
        rehashed.digest = rehashed.compute_digest();
        for candidate in [cp, rehashed] {
            prop_assert!(
                try_resume(test_system(11), candidate).is_ok(),
                "resume panicked on mutation kind {} at byte {}", kind, i
            );
        }
    }
}
