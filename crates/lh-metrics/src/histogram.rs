//! Fixed-range histograms for RVS densities (Fig. 5 reproduction).

/// A uniform-bin histogram over `[lo, hi]` with out-of-range clamping.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins ≥ 1` over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "empty range");
        assert!(bins >= 1, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Adds one observation (clamped into the range).
    pub fn add(&mut self, v: f64) {
        let bins = self.counts.len();
        let u = (v - self.lo) / (self.hi - self.lo);
        let idx = ((u * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every value of a slice.
    pub fn extend(&mut self, vs: &[f64]) {
        for &v in vs {
            self.add(v);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability *density* per bin (integrates to 1 over the range).
    pub fn density(&self) -> Vec<f64> {
        let bin_width = (self.hi - self.lo) / self.counts.len() as f64;
        let denom = (self.total as f64).max(1.0) * bin_width;
        self.counts.iter().map(|&c| c as f64 / denom).collect()
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Fraction of mass at or above `threshold` (e.g. RVS ≥ 0 → the
    /// violating side).
    pub fn mass_at_or_above(&self, threshold: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut mass = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if self.bin_center(i) >= threshold {
                mass += c;
            }
        }
        mass as f64 / self.total as f64
    }

    /// Compact ASCII rendering (one char per bin) for the bench binaries'
    /// terminal output: ` .:-=+*#%@` by relative height.
    pub fn sparkline(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        self.counts
            .iter()
            .map(|&c| {
                let level = ((c as f64 / max) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[level] as char
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend(&[0.1, 0.3, 0.6, 0.9, 0.95]);
        assert_eq!(h.counts(), &[1, 1, 1, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 10);
        for i in 0..1000 {
            h.add(-1.0 + 2.0 * (i as f64 / 1000.0));
        }
        let width = 2.0 / 10.0;
        let integral: f64 = h.density().iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mass_above_threshold() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        h.extend(&[-0.9, -0.3, 0.3, 0.9]);
        assert!((h.mass_at_or_above(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(Histogram::new(0.0, 1.0, 2).mass_at_or_above(0.0), 0.0);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn sparkline_length_matches_bins() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        h.extend(&[0.1, 0.1, 0.9]);
        let s = h.sparkline();
        assert_eq!(s.chars().count(), 8);
        assert!(s.contains('@'));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
