//! Complementary error function, and the real-space Coulomb table built
//! from it.
//!
//! `std` does not provide `erfc`, so we implement it from scratch: a
//! Maclaurin series for small arguments and a Lentz-evaluated continued
//! fraction for large ones. Both branches deliver close to machine
//! precision. The pair kernels never call it per pair: they read the
//! screened Coulomb functions from a [`CoulombTable`] indexed by r², which
//! `erfc` builds, and against which it stays the test oracle.

use std::f64::consts::PI;

use std::f64::consts::FRAC_2_SQRT_PI; // 2/sqrt(pi)

/// Error function via its Maclaurin series; accurate and fast for |x| ≲ 3.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^{2n+1} / (n! (2n+1))
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 0u32;
    loop {
        n += 1;
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-18 * sum.abs().max(1e-300) || n > 200 {
            break;
        }
    }
    FRAC_2_SQRT_PI * sum
}

/// erfc via the Laplace continued fraction, evaluated with the modified
/// Lentz algorithm; accurate for x ≳ 2.
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + 1/2/(x + 1/(x + 3/2/(x + ...))))
    // i.e. a_n = n/2 for n >= 1.
    let tiny = 1e-300;
    let mut f = x.max(tiny);
    let mut c = f;
    let mut d = 0.0;
    for n in 1..200 {
        let a = n as f64 / 2.0;
        // b = x for every level.
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-17 {
            break;
        }
    }
    (-x * x).exp() / PI.sqrt() / f
}

/// Complementary error function `erfc(x) = 1 − erf(x)` for any finite `x`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x < 2.0 {
        1.0 - erf_series(x)
    } else if x > 27.0 {
        0.0 // below 4.3e-319: underflows double precision anyway
    } else {
        erfc_cf(x)
    }
}

/// Error function `erf(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Mantissa bits of s = r² that select a [`CoulombTable`] segment: each
/// octave of s is cut into 2^`SEGMENT_BITS` segments, 36 KiB at the
/// production cutoff. Six is the smallest width whose interpolation error
/// stays below the fixed-point rounding of the same forces
/// (`tests/accuracy_budget.rs`, which also holds both inside 1 % of the
/// GSE k-space error); five bits would make the table the larger error.
pub const SEGMENT_BITS: u32 = 6;

/// Smallest s = r² (Å²) the table covers; closer pairs take the exact path.
const S_MIN: f64 = 0.25;

const MANTISSA: u64 = (1 << 52) - 1;

/// `(E(s), F(s))` of [`CoulombTable`], exactly.
fn screened_coulomb(alpha: f64, s: f64) -> (f64, f64) {
    let r = s.sqrt();
    let e = erfc(alpha * r) / r;
    let g = FRAC_2_SQRT_PI * alpha * (-alpha * alpha * s).exp();
    (e, (e + g) / s)
}

/// The screened Coulomb pair functions of the real-space Ewald sum as
/// piecewise cubics in s = r², the way Anton's PPIPs evaluate pair
/// functions: no square root, no division and no `erfc` per pair.
///
/// * `E(s) = erfc(α√s)/√s` — the pair energy over `C·qᵢqⱼ`;
/// * `F(s) = (E + 2α/√π·e^{−α²s})/s` — the force over `C·qᵢqⱼ·r`.
///
/// The table covers `[2⁻², 2^k)`, 2^k the first power of two at or above
/// r_c², with 2^[`SEGMENT_BITS`] segments per octave. A segment's index is
/// the exponent and leading mantissa bits of `s` and its local coordinate
/// the remaining mantissa bits, so locating `s` needs two shifts and no
/// gather. Each segment holds the cubic Hermite interpolants of `E` and `F`
/// through their exact values and derivatives `E′ = −F/2` and
/// `F′ = −(1.5F + 2α³/√π·e^{−α²s})/s` at its ends. Arguments outside the
/// table take the exact functions, through the same code on the scalar and
/// the lane path, so the two agree bit for bit.
#[derive(Clone, Debug)]
pub struct CoulombTable {
    alpha: f64,
    /// Upper end of the table, 2^k ≥ r_c².
    s_max: f64,
    /// `S_MIN.to_bits() >> (52 − SEGMENT_BITS)`: the index of segment 0.
    base: u64,
    /// Per segment, the power-basis coefficients in the local coordinate
    /// t ∈ [0, 1): `E` in `[0..4]`, `F` in `[4..8]`.
    coef: Vec<[f64; 8]>,
}

impl CoulombTable {
    /// Tabulate the pair functions for splitting parameter `alpha` (Å⁻¹)
    /// over every s below `cutoff_sq` (Å²).
    pub fn new(alpha: f64, cutoff_sq: f64) -> Self {
        let octaves = (cutoff_sq.log2().ceil() - S_MIN.log2()).max(0.0) as i32;
        let s_max = S_MIN * 2f64.powi(octaves);
        let per_octave = 1usize << SEGMENT_BITS;
        let mut coef = Vec::with_capacity(octaves as usize * per_octave);
        let g3 = FRAC_2_SQRT_PI * alpha * alpha * alpha;
        // Values and s-derivatives of E and F at one knot.
        let knot = |s: f64| {
            let (e, f) = screened_coulomb(alpha, s);
            let d_f = -(1.5 * f + g3 * (-alpha * alpha * s).exp()) / s;
            (e, -0.5 * f, f, d_f)
        };
        for octave in 0..octaves {
            let width = S_MIN * 2f64.powi(octave) / per_octave as f64;
            for j in 0..per_octave {
                let s0 = S_MIN * 2f64.powi(octave) + j as f64 * width;
                let (e0, de0, f0, df0) = knot(s0);
                let (e1, de1, f1, df1) = knot(s0 + width);
                let [a, b] = [(e0, de0, e1, de1), (f0, df0, f1, df1)].map(|(y0, d0, y1, d1)| {
                    let (d0, d1) = (d0 * width, d1 * width);
                    [
                        y0,
                        d0,
                        3.0 * (y1 - y0) - 2.0 * d0 - d1,
                        2.0 * (y0 - y1) + d0 + d1,
                    ]
                });
                coef.push([a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]);
            }
        }
        CoulombTable {
            alpha,
            s_max,
            base: S_MIN.to_bits() >> (52 - SEGMENT_BITS),
            coef,
        }
    }

    /// Whether `s` lies inside the table (false for NaN).
    #[inline(always)]
    fn covers(&self, s: f64) -> bool {
        s >= S_MIN && s < self.s_max
    }

    /// `(E(s), F(s))` from `erfc` and `exp`: the table's knots, and the
    /// value for arguments outside it.
    fn exact(&self, s: f64) -> (f64, f64) {
        screened_coulomb(self.alpha, s)
    }

    /// The interpolants at an `s` inside the table.
    #[inline(always)]
    fn interpolate(&self, s: f64) -> (f64, f64) {
        let bits = s.to_bits();
        let c = &self.coef[((bits >> (52 - SEGMENT_BITS)) - self.base) as usize];
        let t = f64::from_bits(((bits << SEGMENT_BITS) & MANTISSA) | 1f64.to_bits()) - 1.0;
        (
            c[0] + t * (c[1] + t * (c[2] + t * c[3])),
            c[4] + t * (c[5] + t * (c[6] + t * c[7])),
        )
    }

    /// `(E(s), F(s))` for one pair at squared distance `s > 0`.
    #[inline]
    pub fn eval(&self, s: f64) -> (f64, f64) {
        if self.covers(s) {
            self.interpolate(s)
        } else {
            self.exact(s)
        }
    }

    /// Eight-lane [`eval`](Self::eval): every lane is located and
    /// interpolated branch-free (a lane outside the table reads segment 0),
    /// then a cold loop gives out-of-table lanes their exact values. Each
    /// lane is bitwise identical to `eval` of its argument.
    #[inline]
    pub fn eval8(&self, s: &[f64; 8]) -> ([f64; 8], [f64; 8]) {
        let mut e = [0.0f64; 8];
        let mut f = [0.0f64; 8];
        let mut cold = false;
        for l in 0..8 {
            let inside = self.covers(s[l]);
            cold |= !inside;
            (e[l], f[l]) = self.interpolate(if inside { s[l] } else { S_MIN });
        }
        if cold {
            for l in 0..8 {
                if !self.covers(s[l]) {
                    (e[l], f[l]) = self.exact(s[l]);
                }
            }
        }
        (e, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const REFERENCE: &[(f64, f64)] = &[
        (0.0, 1.0),
        (0.1, 0.887_537_083_981_715_2),
        (0.25, 0.723_673_609_831_763_1),
        (0.5, 0.479_500_122_186_953_5),
        (0.75, 0.288_844_366_346_462_5),
        (1.0, 0.157_299_207_050_285_13),
        (1.5, 0.033_894_853_524_689_25),
        (2.0, 0.004_677_734_981_047_266),
        (2.5, 0.0004069520174449589),
        (3.0, 0.0000220904969985854),
        (4.0, 1.541725790028002e-8),
        (5.0, 1.537459794428035e-12),
        (6.0, 2.151973671249891e-17),
    ];

    #[test]
    fn matches_reference_values() {
        for &(x, want) in REFERENCE {
            let got = erfc(x);
            // The series branch loses a couple of digits to cancellation at
            // its upper end; 1e-12 relative is still far beyond what the
            // force kernels need.
            let tol = 1e-12 * want.abs().max(1e-16);
            assert!(
                (got - want).abs() <= tol.max(1e-18),
                "erfc({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn symmetry_erfc_negative() {
        for &(x, want) in REFERENCE {
            if x == 0.0 {
                continue;
            }
            let got = erfc(-x);
            let expect = 2.0 - want;
            assert!((got - expect).abs() < 1e-13, "erfc({}) = {got}", -x);
        }
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in 0..100 {
            let x = -5.0 + i as f64 * 0.1;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn branch_boundary_is_smooth() {
        // The series/continued-fraction handoff at x=2 must agree to high
        // precision on both sides. erfc'(2) ≈ −0.0207, so the true change
        // over the 2e-9 window is ~4.1e-11; allow that plus headroom.
        let a = erfc(2.0 - 1e-9);
        let b = erfc(2.0 + 1e-9);
        assert!((a - b).abs() < 1e-10, "|{a} - {b}| = {}", (a - b).abs());
    }

    #[test]
    fn monotone_decreasing() {
        // Start at −5: further left the function saturates at 2 to within
        // one f64 ulp and strict monotonicity is not representable.
        let mut last = erfc(-5.0);
        for i in 1..220 {
            let x = -5.0 + i as f64 * 0.05;
            let v = erfc(x);
            assert!(v < last, "not decreasing at x={x}");
            last = v;
        }
    }

    #[test]
    fn extreme_arguments() {
        assert_eq!(erfc(30.0), 0.0);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-15);
    }

    /// The table against `erfc`, segment by segment, within the cubic
    /// Hermite bound `max|y⁗|·w⁴/384` for a segment of width
    /// `w = 2^(octave − SEGMENT_BITS)`. The fourth derivative is estimated
    /// by the fourth difference of the exact function at step w/2, so the
    /// bound is `|Δ⁴y|/24`; a factor 2 covers the derivative's variation
    /// over the segment, and 8 ulp the rounding of the cubic itself.
    #[test]
    fn table_error_within_hermite_bound() {
        for (alpha, cutoff) in [(0.35, 9.0), (1.0 / 3.0, 9.0), (0.6, 5.0)] {
            let table = CoulombTable::new(alpha, cutoff * cutoff);
            let per_octave = 1usize << SEGMENT_BITS;
            for k in 0..table.coef.len() {
                let octave = (k / per_octave) as i32;
                let w = S_MIN * 2f64.powi(octave) / per_octave as f64;
                let s0 = S_MIN * 2f64.powi(octave) + (k % per_octave) as f64 * w;
                let y = |s: f64| table.exact(s);
                let p: Vec<(f64, f64)> =
                    (0..5).map(|i| y(s0 + (i as f64 - 1.0) * w / 2.0)).collect();
                let d4 = |g: fn(&(f64, f64)) -> f64| {
                    (g(&p[0]) - 4.0 * g(&p[1]) + 6.0 * g(&p[2]) - 4.0 * g(&p[3]) + g(&p[4])).abs()
                };
                let bound = [d4(|v| v.0) / 24.0, d4(|v| v.1) / 24.0];
                for t in [0.0, 0.1127, 0.2113, 0.5, 0.7887, 0.8873] {
                    let s = s0 + t * w;
                    let (e, f) = table.eval(s);
                    let (ee, fe) = table.exact(s);
                    for (c, (got, want)) in [(e, ee), (f, fe)].into_iter().enumerate() {
                        let err = (got - want).abs();
                        assert!(
                            err <= 2.0 * bound[c] + 8.0 * f64::EPSILON * want.abs(),
                            "α {alpha}, s {s}: {got} vs {want}, bound {}",
                            bound[c]
                        );
                    }
                }
            }
        }
        // At the production cutoff the table fits in 80 KB.
        let table = CoulombTable::new(0.35, 81.0);
        assert_eq!(table.coef.len(), 9 << SEGMENT_BITS);
        assert!(table.coef.len() * std::mem::size_of::<[f64; 8]>() <= 80 * 1024);
    }

    #[test]
    fn table_lanes_match_scalar_and_exact_outside() {
        let table = CoulombTable::new(0.35, 81.0);
        // In the table, on a knot, below it, at and beyond its top.
        let xs = [6.25, 0.37, 1.0, 80.99, 0.1, 128.0, 300.0, 0.25];
        let (e, f) = table.eval8(&xs);
        for l in 0..8 {
            let (se, sf) = table.eval(xs[l]);
            assert_eq!(e[l].to_bits(), se.to_bits(), "E lane {l}");
            assert_eq!(f[l].to_bits(), sf.to_bits(), "F lane {l}");
        }
        for &x in &[0.1, 0.2499, 128.0, 300.0] {
            let (e, f) = table.eval(x);
            let (ee, fe) = table.exact(x);
            assert_eq!((e.to_bits(), f.to_bits()), (ee.to_bits(), fe.to_bits()));
        }
        // A knot reproduces the exact values it was built from.
        let (e, f) = table.eval(1.0);
        let (ee, fe) = table.exact(1.0);
        assert_eq!((e, f), (ee, fe));
    }

    #[test]
    fn derivative_matches_gaussian() {
        // d/dx erfc(x) = -2/sqrt(pi) exp(-x²); check by central difference.
        for &x in &[0.3, 0.9, 1.7, 2.5, 3.5] {
            let h = 1e-6;
            let num = (erfc(x + h) - erfc(x - h)) / (2.0 * h);
            let ana = -FRAC_2_SQRT_PI * (-x * x).exp();
            assert!((num - ana).abs() < 1e-8 * ana.abs().max(1e-10), "x={x}");
        }
    }
}
