//! Trajectory output and simulation checkpoints.
//!
//! * [`XyzWriter`] — the ubiquitous XYZ text format, readable by VMD/OVITO
//!   and trivially diffable in tests;
//! * [`Checkpoint`] — full dynamic state (positions, velocities, box, step
//!   counter) serialized with serde, for exact restart;
//! * [`Msd`] — mean-squared displacement accumulator over unwrapped
//!   coordinates, yielding the self-diffusion coefficient.

use crate::observables::EnergyLedger;
use crate::pbc::PbcBox;
use crate::system::System;
use crate::telemetry::{Phase, StepProfile};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Streaming XYZ-format writer.
pub struct XyzWriter<W: Write> {
    out: W,
    /// Element label per atom (defaults to LJ-type-derived labels).
    labels: Vec<&'static str>,
}

/// Map an LJ type index from [`crate::forcefield::ForceField::standard`] to
/// an element-ish label.
pub fn standard_label(lj_type: u32) -> &'static str {
    match lj_type {
        0 => "O",
        1 => "H",
        2 => "C",
        3 => "N",
        4 => "H",
        5 => "S",
        6 => "Na",
        _ => "X",
    }
}

impl<W: Write> XyzWriter<W> {
    /// Writer with labels derived from the system's LJ types.
    pub fn new(out: W, system: &System) -> Self {
        let labels = system
            .topology
            .lj_types
            .iter()
            .map(|&t| standard_label(t))
            .collect();
        XyzWriter { out, labels }
    }

    /// Append one frame. `comment` lands on the XYZ comment line.
    pub fn write_frame(&mut self, system: &System, comment: &str) -> io::Result<()> {
        writeln!(self.out, "{}", system.n_atoms())?;
        writeln!(self.out, "{comment}")?;
        for (p, label) in system.positions.iter().zip(&self.labels) {
            writeln!(self.out, "{label} {:.6} {:.6} {:.6}", p.x, p.y, p.z)?;
        }
        Ok(())
    }
}

/// Parse frames back out of XYZ text (for round-trip tests and analysis).
pub fn parse_xyz(text: &str) -> Vec<Vec<Vec3>> {
    let mut frames = Vec::new();
    let mut lines = text.lines();
    while let Some(count_line) = lines.next() {
        let Ok(n) = count_line.trim().parse::<usize>() else {
            break;
        };
        let _comment = lines.next();
        let mut frame = Vec::with_capacity(n);
        for _ in 0..n {
            let Some(l) = lines.next() else { return frames };
            let mut it = l.split_whitespace();
            let _label = it.next();
            let coords: Vec<f64> = it.take(3).filter_map(|t| t.parse().ok()).collect();
            if coords.len() == 3 {
                frame.push(Vec3::new(coords[0], coords[1], coords[2]));
            }
        }
        frames.push(frame);
    }
    frames
}

/// The checkpoint format version. Bumped whenever the serialized layout
/// changes incompatibly; [`crate::engine::EngineBuilder::resume_from`]
/// rejects any other version with a typed error. Single-image and
/// decomposed engines write the same format — they differ only in how many
/// [`ShardImage`]s it carries — and either restores into the other.
pub const CHECKPOINT_VERSION: u32 = 5;

/// Per-shard state image inside a decomposed engine's checkpoint: the atoms
/// a shard owned at capture time (global indices) with their positions and
/// velocities, stamped with the step at which the image was taken. The
/// images are redundant with the global arrays by construction — that is
/// the point: [`Checkpoint::validate_shards`] uses them as a consistency
/// barrier proving every shard was checkpointed at one synchronized step,
/// the decomposition partitioned the atoms exactly once, and no shard's
/// state drifted from the global view.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardImage {
    /// Shard id in the decomposition's row-major (x, y, z) order.
    pub shard: u32,
    /// Step at which this image was captured; must equal the checkpoint's.
    pub step: u64,
    /// Global atom indices owned by this shard.
    pub atoms: Vec<u32>,
    /// Positions of the owned atoms, in `atoms` order.
    pub positions: Vec<Vec3>,
    /// Velocities of the owned atoms, in `atoms` order.
    pub velocities: Vec<Vec3>,
}

/// Full restartable state of a simulation.
///
/// It carries everything `Engine::step` consumes, so a resume does **zero**
/// recomputation and the continued trajectory is bitwise identical to the
/// uninterrupted one: positions, velocities, the short- and long-range
/// force caches (the RESPA long forces are *not* recomputable at an
/// arbitrary step — they were evaluated at earlier positions), the energy
/// ledger, the thermostat RNG state, the neighbor-list epoch positions, and
/// the accumulated telemetry profile.
///
/// [`Checkpoint::capture`] fills only the system-level fields (the rest
/// default to empty/zero) and is not restorable into an engine;
/// `Engine::checkpoint` produces the complete record including a content
/// digest over the dynamic state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version; see [`CHECKPOINT_VERSION`].
    pub version: u32,
    pub step: u64,
    pub dt_fs: f64,
    pub pbc: PbcBox,
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    /// Cached range-limited + bonded forces (kcal/mol/Å).
    pub f_short: Vec<Vec3>,
    /// Cached k-space (RESPA long) forces, evaluated at their last
    /// recomputation step — not at `positions`.
    pub f_long: Vec<Vec3>,
    /// Energy ledger as of `step`.
    pub ledger: EnergyLedger,
    /// LJ virial accumulator matching `f_short`.
    pub virial_lj: f64,
    /// Thermostat RNG internal state (xoshiro256** words).
    pub rng_state: [u64; 4],
    /// Nosé–Hoover chain bead velocities, if that thermostat is active.
    pub nh_xi: Option<[f64; 2]>,
    /// Neighbor-list epoch: the positions the stream's list (and cell
    /// permutation) was last built at. Resume rebuilds the stream from
    /// these so skin-drift decisions replay identically.
    pub stream_epoch: Vec<Vec3>,
    /// Accumulated telemetry, so a resumed run's counters continue from the
    /// interrupted run's exact values.
    pub telemetry: StepProfile,
    /// Per-shard state images: one per shard of a decomposed engine, none
    /// from a single-image engine. See [`ShardImage`].
    pub shards: Vec<ShardImage>,
    /// FNV-1a digest over the dynamic state (see [`Checkpoint::compute_digest`]);
    /// detects in-place corruption that still parses as valid JSON.
    pub digest: u64,
}

impl Checkpoint {
    /// System-level snapshot: positions, velocities, box, step counter.
    /// Engine-level fields (forces, ledger, RNG, telemetry) are defaulted;
    /// use `Engine::checkpoint` for a fully restartable record.
    pub fn capture(system: &System, step: u64, dt_fs: f64) -> Self {
        let mut cp = Checkpoint {
            version: CHECKPOINT_VERSION,
            step,
            dt_fs,
            pbc: system.pbc,
            positions: system.positions.clone(),
            velocities: system.velocities.clone(),
            f_short: Vec::new(),
            f_long: Vec::new(),
            ledger: EnergyLedger::default(),
            virial_lj: 0.0,
            rng_state: [0; 4],
            nh_xi: None,
            stream_epoch: Vec::new(),
            telemetry: StepProfile::default(),
            shards: Vec::new(),
            digest: 0,
        };
        cp.digest = cp.compute_digest();
        cp
    }

    /// FNV-1a hash over every bit of the dynamic state (floats hashed by
    /// their IEEE-754 bit patterns, which survive the JSON round trip
    /// exactly). The serialized `digest` field itself is excluded.
    pub fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.version as u64);
        h.word(self.step);
        h.word(self.dt_fs.to_bits());
        h.word(self.pbc.lx.to_bits());
        h.word(self.pbc.ly.to_bits());
        h.word(self.pbc.lz.to_bits());
        for field in [
            &self.positions,
            &self.velocities,
            &self.f_short,
            &self.f_long,
            &self.stream_epoch,
        ] {
            h.word(field.len() as u64);
            for v in field.iter() {
                h.word(v.x.to_bits());
                h.word(v.y.to_bits());
                h.word(v.z.to_bits());
            }
        }
        for e in [
            self.ledger.kinetic,
            self.ledger.lj,
            self.ledger.lj14,
            self.ledger.coulomb_real,
            self.ledger.coulomb_kspace,
            self.ledger.coulomb_self,
            self.ledger.coulomb_excluded,
            self.ledger.coulomb_background,
            self.ledger.coulomb14,
            self.ledger.bond,
            self.ledger.angle,
            self.ledger.dihedral,
            self.ledger.urey_bradley,
            self.ledger.improper,
        ] {
            h.word(e.to_bits());
        }
        h.word(self.virial_lj.to_bits());
        for w in self.rng_state {
            h.word(w);
        }
        match self.nh_xi {
            None => h.word(0),
            Some(xi) => {
                h.word(1);
                h.word(xi[0].to_bits());
                h.word(xi[1].to_bits());
            }
        }
        h.word(self.telemetry.steps);
        for phase in Phase::ALL {
            h.word(self.telemetry.phase_ns(phase));
        }
        h.word(self.shards.len() as u64);
        for img in &self.shards {
            h.word(img.shard as u64);
            h.word(img.step);
            h.word(img.atoms.len() as u64);
            for &a in &img.atoms {
                h.word(a as u64);
            }
            for v in img.positions.iter().chain(&img.velocities) {
                h.word(v.x.to_bits());
                h.word(v.y.to_bits());
                h.word(v.z.to_bits());
            }
        }
        h.finish()
    }

    /// Consistency barrier for the shard images: either there are none (a
    /// single-image capture), or every image was captured at the
    /// checkpoint's step, the images partition the atoms exactly once, and
    /// the reassembled per-shard state is bitwise identical to the global
    /// position/velocity arrays. Returns the first violated invariant.
    pub fn validate_shards(&self) -> Result<(), &'static str> {
        if self.shards.is_empty() {
            return Ok(());
        }
        let n = self.positions.len();
        if self.velocities.len() != n {
            return Err("position and velocity arrays disagree in length");
        }
        let mut seen = vec![false; n];
        let same = |x: &Vec3, y: &Vec3| {
            x.x.to_bits() == y.x.to_bits()
                && x.y.to_bits() == y.y.to_bits()
                && x.z.to_bits() == y.z.to_bits()
        };
        for img in &self.shards {
            if img.step != self.step {
                return Err("shard image step disagrees with checkpoint step");
            }
            if img.positions.len() != img.atoms.len() || img.velocities.len() != img.atoms.len() {
                return Err("shard image array lengths disagree");
            }
            for (k, &a) in img.atoms.iter().enumerate() {
                let a = a as usize;
                if a >= n || seen[a] {
                    return Err("shard images do not partition the atoms");
                }
                seen[a] = true;
                if !same(&img.positions[k], &self.positions[a])
                    || !same(&img.velocities[k], &self.velocities[a])
                {
                    return Err("shard image state disagrees with global arrays");
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err("shard images do not cover every atom");
        }
        Ok(())
    }

    /// Whether the stored digest matches the content. A complete-but-tampered
    /// checkpoint (bit flips that still parse) fails this; truncation fails
    /// earlier, at deserialization.
    pub fn digest_ok(&self) -> bool {
        self.digest == self.compute_digest()
    }

    /// Restore dynamic state into a system built from the same topology.
    ///
    /// # Panics
    /// Panics on an atom-count mismatch — restoring into the wrong topology
    /// would silently corrupt the run.
    pub fn restore(&self, system: &mut System) {
        assert_eq!(
            system.n_atoms(),
            self.positions.len(),
            "checkpoint/topology mismatch"
        );
        system.pbc = self.pbc;
        system.positions = self.positions.clone();
        system.velocities = self.velocities.clone();
    }
}

/// Minimal FNV-1a accumulator over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Mean-squared displacement over *unwrapped* trajectories.
///
/// Positions handed to [`Msd::record`] are compared to the previous frame
/// minimum-image, so box wrapping between frames is undone as long as no
/// atom moves more than half a box edge per recorded frame.
#[derive(Clone, Debug)]
pub struct Msd {
    origin: Vec<Vec3>,
    unwrapped: Vec<Vec3>,
    last_wrapped: Vec<Vec3>,
    samples: Vec<(f64, f64)>, // (time fs, MSD Å²)
}

impl Msd {
    pub fn new(system: &System) -> Self {
        Msd {
            origin: system.positions.clone(),
            unwrapped: system.positions.clone(),
            last_wrapped: system.positions.clone(),
            samples: Vec::new(),
        }
    }

    /// Record a frame at `time_fs`.
    pub fn record(&mut self, system: &System, time_fs: f64) {
        for ((u, last), &now) in self
            .unwrapped
            .iter_mut()
            .zip(&mut self.last_wrapped)
            .zip(&system.positions)
        {
            *u += system.pbc.min_image(now, *last);
            *last = now;
        }
        let n = self.origin.len() as f64;
        let msd = self
            .unwrapped
            .iter()
            .zip(&self.origin)
            .map(|(u, o)| (*u - *o).norm_sq())
            .sum::<f64>()
            / n;
        self.samples.push((time_fs, msd));
    }

    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Self-diffusion coefficient from the Einstein relation
    /// `MSD = 6 D t`, fitted over the second half of the samples
    /// (skipping ballistic onset). Returned in Å²/fs; multiply by 1e-1 for
    /// cm²/s... (1 Å²/fs = 1e-16 cm² / 1e-15 s = 0.1 cm²/s).
    pub fn diffusion_coefficient(&self) -> Option<f64> {
        if self.samples.len() < 4 {
            return None;
        }
        let tail = &self.samples[self.samples.len() / 2..];
        let n = tail.len() as f64;
        let (mut st, mut sm, mut stt, mut stm) = (0.0, 0.0, 0.0, 0.0);
        for &(t, m) in tail {
            st += t;
            sm += m;
            stt += t * t;
            stm += t * m;
        }
        let denom = n * stt - st * st;
        if denom.abs() < 1e-300 {
            return None;
        }
        let slope = (n * stm - st * sm) / denom;
        Some(slope / 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::water_box;
    use crate::vec3::v3;

    #[test]
    fn xyz_roundtrip() {
        let s = water_box(2, 2, 2, 1);
        let mut buf = Vec::new();
        {
            let mut w = XyzWriter::new(&mut buf, &s);
            w.write_frame(&s, "frame 0").unwrap();
            w.write_frame(&s, "frame 1").unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let frames = parse_xyz(&text);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].len(), s.n_atoms());
        for (a, b) in frames[0].iter().zip(&s.positions) {
            assert!((*a - *b).norm() < 1e-5);
        }
        // Labels: first atom of a water is O.
        assert!(text.lines().nth(2).unwrap().starts_with("O "));
    }

    #[test]
    fn checkpoint_roundtrip_through_json() {
        let mut s = water_box(2, 2, 2, 2);
        s.thermalize(300.0, 3);
        let cp = Checkpoint::capture(&s, 17, 2.0);
        let json = serde_json::to_string(&cp).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        let mut restored = water_box(2, 2, 2, 99); // different seed: different state
        back.restore(&mut restored);
        assert_eq!(restored.positions, s.positions);
        assert_eq!(restored.velocities, s.velocities);
        assert_eq!(back.step, 17);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn checkpoint_rejects_wrong_topology() {
        let s = water_box(2, 2, 2, 2);
        let cp = Checkpoint::capture(&s, 0, 1.0);
        let mut other = water_box(3, 3, 3, 2);
        cp.restore(&mut other);
    }

    #[test]
    fn msd_of_ballistic_motion() {
        // Atoms moving at constant velocity v: MSD(t) = |v|² t².
        let mut s = water_box(2, 2, 2, 4);
        let v = v3(0.01, 0.0, 0.0); // Å per fs of "motion" below
        let mut msd = Msd::new(&s);
        for k in 1..=20 {
            for p in &mut s.positions {
                *p = s.pbc.wrap(*p + v);
            }
            msd.record(&s, k as f64);
        }
        for &(t, m) in msd.samples() {
            let expect = v.norm_sq() * t * t;
            assert!((m - expect).abs() < 1e-9, "t={t}: {m} vs {expect}");
        }
    }

    #[test]
    fn msd_unwraps_through_boundaries() {
        // An atom drifting a full box length has MSD = L², not 0.
        let mut s = water_box(2, 2, 2, 5);
        let l = s.pbc.lx;
        let step = l / 50.0;
        let mut msd = Msd::new(&s);
        for k in 1..=50 {
            for p in &mut s.positions {
                *p = s.pbc.wrap(*p + v3(step, 0.0, 0.0));
            }
            msd.record(&s, k as f64);
        }
        let (_, final_msd) = *msd.samples().last().unwrap();
        assert!(
            (final_msd - l * l).abs() < 1e-6 * l * l,
            "{final_msd} vs {}",
            l * l
        );
    }

    #[test]
    fn diffusion_coefficient_of_linear_msd() {
        // Synthetic MSD = 6 D t with D = 0.002 — the fit must recover it.
        let s = water_box(2, 2, 2, 6);
        let mut msd = Msd::new(&s);
        // Inject fabricated samples directly.
        msd.samples = (1..=40)
            .map(|k| (k as f64 * 10.0, 6.0 * 0.002 * k as f64 * 10.0))
            .collect();
        let d = msd.diffusion_coefficient().unwrap();
        assert!((d - 0.002).abs() < 1e-12, "D = {d}");
    }
}
