//! Small numeric helpers the workloads share: percentiles, a
//! least-squares line, the FNV input hash, and the benchmark's own
//! deterministic generators (the library receives only generated
//! inputs, never the seed).

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated
/// between closest ranks (so the median of an even count is the mean of
/// the two middle values). `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let h = (sorted.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Ascending copy of `values` (total order, so a stray NaN sorts last
/// instead of scrambling the sample).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Ordinary least-squares fit `y ≈ intercept + slope · x`. `None` when
/// fewer than two points or every `x` is the same (no slope to resolve).
pub fn least_squares(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    Some((my - slope * mx, slope))
}

/// FNV-1a over the bytes of everything a workload feeds the library.
/// Results whose hashes differ ran on different inputs and are not
/// comparable.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64: the benchmark's only randomness source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut p: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf rank sampler: rank `r` (0-based) has weight `1 / (r + 1)^s`,
/// drawn by binary search over the cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += ((r + 1) as f64).powf(-s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_cases() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        // h = 3 · 0.5 = 1.5 → halfway between 20 and 30.
        assert_eq!(percentile(&s, 50.0), 25.0);
        // h = 3 · 0.25 = 0.75 → 10 + 0.75 · 10.
        assert_eq!(percentile(&s, 25.0), 17.5);
        // h = 3 · 0.99 = 2.97 → 30 + 0.97 · 10.
        assert!((percentile(&s, 99.0) - 39.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn least_squares_recovers_a_known_line() {
        // y = 2 + 3x exactly.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [2.0, 5.0, 8.0, 11.0];
        let (a, b) = least_squares(&xs, &ys).unwrap();
        assert!((a - 2.0).abs() < 1e-12 && (b - 3.0).abs() < 1e-12);
        // Hand-computed: x̄ = 1, ȳ = 2, Sxx = 2, Sxy = 3 → slope 1.5,
        // intercept 0.5.
        let (a, b) = least_squares(&[0.0, 1.0, 2.0], &[1.0, 1.0, 4.0]).unwrap();
        assert!((a - 0.5).abs() < 1e-12 && (b - 1.5).abs() < 1e-12);
        // Constant x: no slope to resolve.
        assert!(least_squares(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(least_squares(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn generators_are_deterministic_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let u = a.unit_f32();
            assert!((0.0..1.0).contains(&u));
            b.unit_f32();
            assert!(a.below(13) < 13);
            b.below(13);
        }
        let mut p = SplitMix64::new(3).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = Zipf::new(1000, 1.05);
        let mut rng = SplitMix64::new(11);
        let head = (0..4000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(head > 1000, "top-1% ranks drew only {head}/4000");
    }
}
