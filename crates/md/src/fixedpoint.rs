//! Deterministic fixed-point force accumulation.
//!
//! Anton guarantees bitwise-identical trajectories regardless of how work is
//! distributed, because forces are summed in fixed point — integer addition
//! is associative and commutative, so the arrival order of partial forces
//! (which depends on network timing) cannot change the result. The engine's
//! pair stream accumulates in these units (`crate::stream`), and so does
//! every force a simulated PPIM or geometry core produces in the
//! co-simulator.

use crate::vec3::Vec3;

/// Fixed-point scale: 2²⁴ units per kcal/mol/Å ≈ 6e-8 force resolution,
/// comparable to Anton's on-chip force precision. Pair-stream energies and
/// virials use the same scale per kcal/mol.
pub const FORCE_SCALE: f64 = (1u64 << 24) as f64;

/// Largest force magnitude (kcal/mol/Å) a contribution may carry; larger
/// ones saturate. 2²⁶ ≈ 6.7e7, half the 2²⁷ up to which [`to_fixed`] is
/// exact. One saturated contribution is 2⁵⁰ units, so an `i64` holds 8192
/// of them.
pub const MAX_FORCE: f64 = (1u64 << 26) as f64;

/// [`to_fixed`] is exact for |x| ≤ 2²⁷, where `x · FORCE_SCALE` fits the
/// 2⁵¹ range of the shifter.
const EXACT_LIMIT: f64 = (1u64 << 27) as f64;

/// 1.5·2⁵²: adding it puts any |v| ≤ 2⁵¹ into [2⁵², 2⁵³), where the f64
/// ulp is exactly 1, so the addition itself rounds `v` to the nearest
/// integer (ties to even) and the low mantissa bits hold it offset by the
/// shifter's own bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// Convert one component to fixed point, rounding to nearest (ties to
/// even). Branch-free and without a libm call: one multiply, one add and
/// an integer subtract. `|x|` must not exceed 2²⁷; callers that cannot
/// prove the range use [`to_fixed_saturating`].
#[inline(always)]
pub fn to_fixed(x: f64) -> i64 {
    debug_assert!(
        x.abs() <= EXACT_LIMIT,
        "force component {x} out of fixed-point range"
    );
    (x * FORCE_SCALE + SHIFTER).to_bits() as i64 - SHIFTER.to_bits() as i64
}

/// [`to_fixed`] per component.
#[inline(always)]
pub(crate) fn to_fixed3(f: Vec3) -> [i64; 3] {
    [to_fixed(f.x), to_fixed(f.y), to_fixed(f.z)]
}

/// Convert back to floating point (exact below 2⁵³ units).
#[inline]
pub fn from_fixed(x: i64) -> f64 {
    x as f64 / FORCE_SCALE
}

/// Convert one component to fixed point, saturating at ±[`MAX_FORCE`]
/// like a hardware accumulator input stage; a NaN saturates to 0. Returns
/// the value and whether it saturated — the telemetry layer counts these
/// events (`fixedpoint_clamps`), since a clamp means force precision was
/// silently lost.
#[inline]
pub fn to_fixed_saturating(x: f64) -> (i64, bool) {
    let c = if x.is_nan() {
        0.0
    } else {
        x.clamp(-MAX_FORCE, MAX_FORCE)
    };
    (to_fixed(c), c != x)
}

/// Add `b` into `a` component-wise. Wrapping: addition modulo 2⁶⁴ is
/// still associative and commutative, so even an overflowed sum is
/// order-independent (and the clamp counter says it is meaningless).
#[inline(always)]
pub(crate) fn add3(a: &mut [i64; 3], b: [i64; 3]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.wrapping_add(y);
    }
}

/// Subtract `b` from `a` component-wise (wrapping, as [`add3`]).
#[inline(always)]
pub(crate) fn sub3(a: &mut [i64; 3], b: [i64; 3]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.wrapping_sub(y);
    }
}

/// A per-atom fixed-point force accumulator.
#[derive(Clone, Debug, Default)]
pub struct FixedAccumulator {
    acc: Vec<[i64; 3]>,
    /// Saturation events observed by [`FixedAccumulator::add`].
    clamps: u64,
}

impl FixedAccumulator {
    pub fn new(n_atoms: usize) -> Self {
        FixedAccumulator {
            acc: vec![[0; 3]; n_atoms],
            clamps: 0,
        }
    }

    /// Saturation events since construction or [`FixedAccumulator::clear`]
    /// (merged accumulators fold their producers' counts in).
    pub fn clamp_count(&self) -> u64 {
        self.clamps
    }

    pub fn len(&self) -> usize {
        self.acc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Add a force contribution for atom `i`. Each *contribution* is rounded
    /// once at the producer, exactly like a hardware functional unit
    /// emitting a fixed-point partial force onto the network.
    #[inline]
    pub fn add(&mut self, i: usize, f: Vec3) {
        let a = &mut self.acc[i];
        for (slot, x) in a.iter_mut().zip([f.x, f.y, f.z]) {
            let (v, clamped) = to_fixed_saturating(x);
            *slot = slot.wrapping_add(v);
            self.clamps += clamped as u64;
        }
    }

    /// Add an already-quantized contribution (partial sums shipped between
    /// simulated nodes stay in fixed point end to end).
    #[inline]
    pub fn add_fixed(&mut self, i: usize, f: [i64; 3]) {
        add3(&mut self.acc[i], f);
    }

    /// Raw fixed-point value for atom `i`.
    #[inline]
    pub fn fixed(&self, i: usize) -> [i64; 3] {
        self.acc[i]
    }

    /// Final floating-point force for atom `i`.
    #[inline]
    pub fn force(&self, i: usize) -> Vec3 {
        let a = self.acc[i];
        Vec3::new(from_fixed(a[0]), from_fixed(a[1]), from_fixed(a[2]))
    }

    /// Materialize all forces.
    pub fn to_forces(&self) -> Vec<Vec3> {
        (0..self.acc.len()).map(|i| self.force(i)).collect()
    }

    /// Reset to zero (forces and clamp count), keeping the allocation.
    pub fn clear(&mut self) {
        self.acc.fill([0; 3]);
        self.clamps = 0;
    }

    /// Resize to `n_atoms` and reset to zero, keeping the allocation once
    /// it is large enough.
    pub(crate) fn resize_zeroed(&mut self, n_atoms: usize) {
        self.acc.resize(n_atoms, [0; 3]);
        self.clear();
    }

    /// The raw fixed-point values, for a producer that adds into them in
    /// place (the pair stream's sink).
    pub(crate) fn fixed_mut(&mut self) -> &mut [[i64; 3]] {
        &mut self.acc
    }

    /// Merge another accumulator (e.g. one per simulated node) into this
    /// one. Pure integer addition: order of merges cannot matter.
    pub fn merge(&mut self, other: &FixedAccumulator) {
        assert_eq!(self.acc.len(), other.acc.len());
        for (a, b) in self.acc.iter_mut().zip(&other.acc) {
            add3(a, *b);
        }
        self.clamps += other.clamps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn roundtrip_precision() {
        for &x in &[0.0, 1.0, -3.25, 123.456, -9999.9] {
            let back = from_fixed(to_fixed(x));
            assert!((back - x).abs() <= 0.5 / FORCE_SCALE, "{x} -> {back}");
        }
    }

    #[test]
    fn shifter_rounds_to_nearest_even_over_the_whole_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let want = |x: f64| (x * FORCE_SCALE).round_ties_even() as i64;
        // Exact ties (k + ½ units), both signs, and the range ends.
        for k in [0i64, 1, 2, 3, 1 << 20, (1 << 50) - 1] {
            for sign in [1.0, -1.0] {
                let x = sign * (k as f64 + 0.5) / FORCE_SCALE;
                assert_eq!(to_fixed(x), want(x), "tie {x}");
            }
        }
        for x in [MAX_FORCE, -MAX_FORCE, EXACT_LIMIT, -EXACT_LIMIT, 0.0, -0.0] {
            assert_eq!(to_fixed(x), want(x), "{x}");
        }
        // Random magnitudes spread over every binade up to the limit.
        for _ in 0..100_000 {
            let x = (rng.gen::<f64>() - 0.5) * 2.0 * EXACT_LIMIT * rng.gen::<f64>().powi(40);
            assert_eq!(to_fixed(x), want(x), "{x}");
        }
    }

    #[test]
    fn saturating_conversion_maps_nan_to_zero_and_counts_it() {
        assert_eq!(to_fixed_saturating(f64::NAN), (0, true));
        assert!(to_fixed_saturating(f64::INFINITY).1);
        assert_eq!(to_fixed_saturating(MAX_FORCE), (to_fixed(MAX_FORCE), false));
    }

    #[test]
    fn accumulation_is_permutation_invariant() {
        let mut rng = StdRng::seed_from_u64(5);
        let contributions: Vec<Vec3> = (0..1000)
            .map(|_| {
                v3(
                    (rng.gen::<f64>() - 0.5) * 200.0,
                    (rng.gen::<f64>() - 0.5) * 200.0,
                    (rng.gen::<f64>() - 0.5) * 200.0,
                )
            })
            .collect();
        let sum_in_order = |order: &[usize]| {
            let mut acc = FixedAccumulator::new(1);
            for &k in order {
                acc.add(0, contributions[k]);
            }
            acc.fixed(0)
        };
        let base: Vec<usize> = (0..contributions.len()).collect();
        let reference = sum_in_order(&base);
        for _ in 0..5 {
            let mut shuffled = base.clone();
            shuffled.shuffle(&mut rng);
            assert_eq!(sum_in_order(&shuffled), reference, "order changed the sum");
        }
    }

    #[test]
    fn float_accumulation_is_not_permutation_invariant_motivation() {
        // Documents why fixed point is needed at all: the same contributions
        // summed in f64 in two orders genuinely differ.
        let mut rng = StdRng::seed_from_u64(6);
        let xs: Vec<f64> = (0..2000).map(|_| (rng.gen::<f64>() - 0.5) * 1e6).collect();
        let fwd: f64 = xs.iter().sum();
        let rev: f64 = xs.iter().rev().sum();
        // Not asserting inequality (could coincide), but the magnitude of
        // disagreement bounds what fixed point protects against.
        let diff = (fwd - rev).abs();
        assert!(diff < 1e-3, "sanity: {diff}");
    }

    #[test]
    fn merge_matches_single_accumulator() {
        let mut rng = StdRng::seed_from_u64(7);
        let contributions: Vec<(usize, Vec3)> = (0..500)
            .map(|_| {
                (
                    rng.gen_range(0..10),
                    v3(
                        rng.gen::<f64>() * 10.0,
                        rng.gen::<f64>() * -5.0,
                        rng.gen::<f64>(),
                    ),
                )
            })
            .collect();
        // One big accumulator.
        let mut all = FixedAccumulator::new(10);
        for &(i, f) in &contributions {
            all.add(i, f);
        }
        // Split across 4 "nodes", then merge in a scrambled order.
        let mut parts: Vec<FixedAccumulator> = (0..4).map(|_| FixedAccumulator::new(10)).collect();
        for (k, &(i, f)) in contributions.iter().enumerate() {
            parts[k % 4].add(i, f);
        }
        let mut merged = FixedAccumulator::new(10);
        for idx in [2, 0, 3, 1] {
            merged.merge(&parts[idx]);
        }
        for i in 0..10 {
            assert_eq!(merged.fixed(i), all.fixed(i));
        }
    }

    #[test]
    fn clear_resets() {
        let mut acc = FixedAccumulator::new(3);
        acc.add(1, v3(1.0, 2.0, 3.0));
        acc.clear();
        assert_eq!(acc.fixed(1), [0, 0, 0]);
        assert_eq!(acc.force(1), Vec3::ZERO);
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let (v, clamped) = to_fixed_saturating(2.0 * MAX_FORCE);
        assert!(clamped);
        assert_eq!(v, (MAX_FORCE * FORCE_SCALE) as i64);
        let (v, clamped) = to_fixed_saturating(-2.0 * MAX_FORCE);
        assert!(clamped);
        assert_eq!(v, -((MAX_FORCE * FORCE_SCALE) as i64));
        let (_, clamped) = to_fixed_saturating(123.456);
        assert!(!clamped);

        let mut acc = FixedAccumulator::new(2);
        acc.add(0, v3(1.0, -2.0, 3.0));
        assert_eq!(acc.clamp_count(), 0);
        acc.add(1, v3(2.0 * MAX_FORCE, 0.0, -3.0 * MAX_FORCE));
        assert_eq!(acc.clamp_count(), 2);
        let mut merged = FixedAccumulator::new(2);
        merged.merge(&acc);
        assert_eq!(merged.clamp_count(), 2);
        acc.clear();
        assert_eq!(acc.clamp_count(), 0);
    }

    #[test]
    fn quantization_error_bounded() {
        let mut acc = FixedAccumulator::new(1);
        let mut exact = Vec3::ZERO;
        let mut rng = StdRng::seed_from_u64(8);
        let n = 10_000;
        for _ in 0..n {
            let f = v3(
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
            );
            acc.add(0, f);
            exact += f;
        }
        // Each contribution adds ≤ half an ulp of error; error grows like
        // sqrt(n) in practice but is bounded by n/2 ulps.
        let err = (acc.force(0) - exact).max_abs();
        assert!(err <= n as f64 * 0.5 / FORCE_SCALE, "err {err}");
    }
}
