//! Order statistics, the comparison verdict, and the FNV-1a digest.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because the driver that accepts or rejects a change
//! computes its spreads with exactly that function.

/// Sorted copy of `values` (total order; the harness never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Smallest of `values`; 0 for an empty slice. Host noise only ever adds
/// time, so the fastest sample is the steadiest estimate of what a fixed
/// piece of work costs when nothing interferes.
pub fn fastest(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(0.0)
}

/// Total of `samples` with every sample counted at the fastest time seen
/// in its class, where samples of one class do the same kind of work
/// (RESPA cycles with equally many list refreshes, calls at one sweep
/// point). All the work is counted; a stall during one sample is not.
pub fn undisturbed_total(samples: &[f64], class: &[u64]) -> f64 {
    let mut best = std::collections::BTreeMap::new();
    for (&s, &c) in samples.iter().zip(class) {
        let (n, fastest) = best.entry(c).or_insert((0u32, s));
        *n += 1;
        *fastest = s.min(*fastest);
    }
    best.values()
        .map(|&(n, fastest)| f64::from(n) * fastest)
        .sum()
}

/// Seconds to milliseconds.
pub fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// First and third quartile. Fewer than two samples have no spread: both
/// quartiles collapse onto the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`: the sample with exactly ten larger ones above
/// it. Needs more than twenty samples (otherwise that percentile would sit
/// below the median) and returns `None` when there are fewer.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= 2 * BEYOND {
        return None;
    }
    let v = sorted(values);
    Some(((100 * (n - BEYOND) / n) as u32, v[n - BEYOND - 1]))
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Outcome of comparing one metric between a base and a new result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// A sample spread wider than the bound, with overlapping quartile
    /// intervals: the two medians cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side of a comparison.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Share of the base median by which `new` is worse (negative = better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Compare `new` against `base` at `bound` (a share of the base median).
pub fn verdict(base: Side, new: Side, better: Better, bound: f64) -> Verdict {
    let spread = |s: Side| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.q3 - s.q1) / s.median.abs()
        }
    };
    let wide = spread(base) > bound || spread(new) > bound;
    let disjoint = base.q3 < new.q1 || new.q3 < base.q1;
    if wide && !disjoint {
        Verdict::Unresolved
    } else if worse_by(base.median, new.median, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// FNV-1a over 64-bit words (the checkpoint digest's construction).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Deterministic input generator for the layer micro-batches (SplitMix64);
/// the harness takes no `rand` dependency.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn undisturbed_total_counts_each_class_at_its_fastest() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
        // Two plain cycles (one stalled) and two refresh cycles.
        let samples = [10.0, 17.0, 15.0, 14.0];
        assert_eq!(undisturbed_total(&samples, &[0, 0, 1, 1]), 48.0);
        // One class: n times the minimum; no samples: nothing.
        assert_eq!(undisturbed_total(&samples, &[0; 4]), 40.0);
        assert_eq!(undisturbed_total(&[], &[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(10)), None);
        assert_eq!(tail(&v(20)), None);
        // 30 samples: the 20th is the last with ten above it → p66.
        assert_eq!(tail(&v(30)), Some((66, 19.0)));
        assert_eq!(tail(&v(600)), Some((98, 589.0)));
        assert_eq!(tail(&v(1000)), Some((99, 989.0)));
        for n in [21, 30, 600] {
            let (_, x) = tail(&v(n)).unwrap();
            assert_eq!(v(n).iter().filter(|&&y| y > x).count(), 10);
        }
    }

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn verdict_applies_bound_direction_and_spread() {
        let tight = |m: f64| side(m, m * 0.99, m * 1.01);
        // Lower is better: +5 % within an 8 % bound, +10 % beyond it.
        assert_eq!(
            verdict(tight(100.0), tight(105.0), Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(110.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        // An improvement is never worse, in either direction.
        assert_eq!(
            verdict(tight(100.0), tight(50.0), Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(91.0), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(tight(100.0), tight(200.0), Better::Higher, 0.08),
            Verdict::Ok
        );
        // Wide, overlapping quartiles cannot resolve an 8 % bound ...
        assert_eq!(
            verdict(
                side(100.0, 80.0, 120.0),
                side(110.0, 90.0, 130.0),
                Better::Lower,
                0.08
            ),
            Verdict::Unresolved
        );
        // ... but wide and disjoint ones can.
        assert_eq!(
            verdict(
                side(100.0, 80.0, 120.0),
                side(200.0, 180.0, 220.0),
                Better::Lower,
                0.08
            ),
            Verdict::Worse
        );
        // Single-sample metrics have no spread and always resolve.
        assert_eq!(
            verdict(
                side(2.0, 2.0, 2.0),
                side(2.0, 2.0, 2.0),
                Better::Lower,
                0.005
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 of eight zero bytes.
        let mut h = Fnv::default();
        h.word(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
        let mut a = Fnv::default();
        a.float(1.0);
        let mut b = Fnv::default();
        b.float(-1.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(SplitMix(7).below(10) < 10);
    }
}
