//! Iterative radix-2 Cooley–Tukey FFT with a cached twiddle table.
//!
//! On Anton 2 the 3D FFT for k-space electrostatics runs on the geometry
//! cores over small power-of-two grids (32³–128³ class), so a clean radix-2
//! implementation with precomputed twiddles is both faithful and fast enough
//! for every experiment in this repository.

use crate::complex::C64;

/// A reusable FFT plan for one transform length (power of two).
///
/// Holds the bit-reversal permutation and twiddle factors so repeated
/// transforms (every k-space step) do no trigonometry.
///
/// ```
/// use anton2_fft::{C64, Fft};
///
/// let plan = Fft::new(8);
/// let mut data = vec![C64::ONE; 8];
/// plan.forward(&mut data);
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin gets the sum
/// plan.inverse(&mut data);
/// assert!((data[3].re - 1.0).abs() < 1e-12); // and the roundtrip returns
/// ```
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Twiddles for the forward transform: `w[j] = exp(-2πi j / n)` for
    /// `j in 0..n/2`.
    twiddle: Vec<C64>,
}

impl Fft {
    /// Plan a transform of length `n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two and at least 1.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddle = (0..n / 2)
            .map(|j| C64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        Fft { n, rev, twiddle }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X[k] = Σ_j x[j] e^{-2πi jk/n}` (no scaling).
    pub fn forward(&self, data: &mut [C64]) {
        self.transform(data, false);
    }

    /// In-place inverse DFT including the 1/n scaling, so
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [C64]) {
        self.transform(data, true);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }

    /// Unscaled inverse (conjugate-twiddle) transform, for callers that fold
    /// normalization into another constant (the GSE influence function does).
    pub fn inverse_unscaled(&self, data: &mut [C64]) {
        self.transform(data, true);
    }

    /// In-place DFT of every column of a row-major block: `data` holds `n`
    /// rows of `width` elements, and column `c` is one line
    /// (`data[j·width + c]` for `j < n`). Every line gets exactly the
    /// operations [`Fft::forward`] (or, with `inverse`,
    /// [`Fft::inverse_unscaled`]) would apply to it alone — the same bit
    /// reversal, butterflies and twiddles — so the result is bitwise
    /// identical to transforming the lines one at a time, while every
    /// butterfly streams over two whole contiguous rows. Independent
    /// sub-blocks and row ranges are split over up to `forks` rayon tasks;
    /// splitting reorders only butterflies that share no data, so the bits
    /// never depend on `forks`.
    pub(crate) fn transform_rows(
        &self,
        data: &mut [C64],
        width: usize,
        inverse: bool,
        forks: usize,
    ) {
        let n = self.n;
        assert_eq!(
            data.len(),
            n * width,
            "buffer length {} != plan length {} x width {}",
            data.len(),
            n,
            width
        );
        // Bit-reversal reorder, whole rows at a time.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                let (head, tail) = data.split_at_mut(j * width);
                head[i * width..(i + 1) * width].swap_with_slice(&mut tail[..width]);
            }
        }
        self.stages_rows(data, width, inverse, forks);
    }

    /// Every butterfly stage of one bit-reversed block of rows. The block's
    /// halves are independent sub-transforms (the stages shorter than the
    /// block); one stage as long as the block then joins them. Each
    /// butterfly reads exactly the values the stage-by-stage loop of
    /// [`Fft::forward`] gives it, so the depth-first order changes no bit.
    fn stages_rows(&self, block: &mut [C64], width: usize, inverse: bool, forks: usize) {
        let m = block.len() / width;
        if m < 2 {
            return;
        }
        let (lo, hi) = block.split_at_mut(m / 2 * width);
        if forks > 1 {
            rayon::join(
                || self.stages_rows(lo, width, inverse, forks / 2),
                || self.stages_rows(hi, width, inverse, forks - forks / 2),
            );
        } else {
            self.stages_rows(lo, width, inverse, 1);
            self.stages_rows(hi, width, inverse, 1);
        }
        self.butterfly_rows(lo, hi, width, 0, self.n / m, inverse, forks);
    }

    /// The butterflies between row `k0 + r` of `lo` and the same row of
    /// `hi`, with twiddle `w[(k0 + r)·tw_stride]`. With `forks > 1` the
    /// row pairs (or, for a single pair, its columns) are split in halves
    /// over rayon tasks.
    #[allow(clippy::too_many_arguments)]
    fn butterfly_rows(
        &self,
        lo: &mut [C64],
        hi: &mut [C64],
        width: usize,
        k0: usize,
        tw_stride: usize,
        inverse: bool,
        forks: usize,
    ) {
        if forks > 1 && lo.len() > 1 {
            let rows = lo.len() / width;
            let (at, k_hi) = if rows > 1 {
                (rows / 2 * width, k0 + rows / 2)
            } else {
                (lo.len() / 2, k0)
            };
            let (lo_a, lo_b) = lo.split_at_mut(at);
            let (hi_a, hi_b) = hi.split_at_mut(at);
            rayon::join(
                || self.butterfly_rows(lo_a, hi_a, width, k0, tw_stride, inverse, forks / 2),
                || {
                    self.butterfly_rows(
                        lo_b,
                        hi_b,
                        width,
                        k_hi,
                        tw_stride,
                        inverse,
                        forks - forks / 2,
                    )
                },
            );
            return;
        }
        for (r, (a_row, b_row)) in lo.chunks_mut(width).zip(hi.chunks_mut(width)).enumerate() {
            let w = self.twiddle[(k0 + r) * tw_stride];
            let w = if inverse { w.conj() } else { w };
            for (a, b) in a_row.iter_mut().zip(b_row.iter_mut()) {
                let av = *a;
                let bv = *b * w;
                *a = av + bv;
                *b = av - bv;
            }
        }
    }

    fn transform(&self, data: &mut [C64], inverse: bool) {
        let n = self.n;
        assert_eq!(
            data.len(),
            n,
            "buffer length {} != plan length {}",
            data.len(),
            n
        );
        // Bit-reversal reorder.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = self.twiddle[k * stride];
                    let w = if inverse { w.conj() } else { w };
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }
}

/// Direct O(n²) DFT used as the correctness oracle in tests.
pub fn dft_reference(input: &[C64], inverse: bool) -> Vec<C64> {
    let n = input.len();
    let sign = if inverse { 2.0 } else { -2.0 };
    let mut out = vec![C64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = C64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            acc += x * C64::cis(sign * std::f64::consts::PI * (j * k % n) as f64 / n as f64);
        }
        *o = if inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_dft_all_small_sizes() {
        for bits in 0..9 {
            let n = 1usize << bits;
            let plan = Fft::new(n);
            let input: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft_reference(&input, false);
            assert!(max_err(&fast, &slow) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        let n = 256;
        let plan = Fft::new(n);
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        assert!(max_err(&buf, &input) < 1e-9);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let plan = Fft::new(n);
        let mut buf = vec![C64::ZERO; n];
        buf[0] = C64::ONE;
        plan.forward(&mut buf);
        for z in &buf {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 64;
        let plan = Fft::new(n);
        let mut buf = vec![C64::ONE; n];
        plan.forward(&mut buf);
        assert!((buf[0] - C64::real(n as f64)).abs() < 1e-9);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 128;
        let plan = Fft::new(n);
        let input: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).cos(), (3.0 + i as f64).sin()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input.clone();
        plan.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 32;
        let plan = Fft::new(n);
        let k0 = 5;
        let mut buf: Vec<C64> = (0..n)
            .map(|j| C64::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        plan.forward(&mut buf);
        for (k, z) in buf.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    /// The row-batched kernel must give every column exactly the bits of
    /// the per-line transform, forward and inverse, for every length the
    /// grids use and for row widths from one line up, at every fork count.
    #[test]
    fn rows_kernel_matches_per_line_bitwise() {
        for bits in 0..=8 {
            let n = 1usize << bits;
            let plan = Fft::new(n);
            for width in [1usize, 2, 3, 5, 8, 17] {
                let block: Vec<C64> = (0..n * width)
                    .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 1.11 + 0.5).cos()))
                    .collect();
                for inverse in [false, true] {
                    let mut want = block.clone();
                    for c in 0..width {
                        let mut line: Vec<C64> = (0..n).map(|j| block[j * width + c]).collect();
                        if inverse {
                            plan.inverse_unscaled(&mut line);
                        } else {
                            plan.forward(&mut line);
                        }
                        for (j, v) in line.into_iter().enumerate() {
                            want[j * width + c] = v;
                        }
                    }
                    for forks in [1usize, 2, 3] {
                        let mut got = block.clone();
                        plan.transform_rows(&mut got, width, inverse, forks);
                        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                a.re.to_bits() == b.re.to_bits()
                                    && a.im.to_bits() == b.im.to_bits(),
                                "n={n} width={width} inverse={inverse} forks={forks} at {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Fft::new(12);
    }

    #[test]
    fn length_one_is_identity() {
        let plan = Fft::new(1);
        let mut buf = vec![C64::new(2.5, -1.5)];
        plan.forward(&mut buf);
        assert_eq!(buf[0], C64::new(2.5, -1.5));
        plan.inverse(&mut buf);
        assert_eq!(buf[0], C64::new(2.5, -1.5));
    }
}
