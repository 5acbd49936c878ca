//! Per-dataset generation presets.
//!
//! Each preset mirrors the qualitative profile of one of the paper's
//! datasets (Table I): spatial extent, trip length, sampling density, noise
//! level, and timestamping. The absolute sizes are scaled down to CPU
//! budgets — experiments take an `n` override — but the *relative*
//! character (long Chengdu ride-hailing trips, short dense Porto taxi
//! trips, sparse noisy T-Drive with timestamps, heterogeneous OSM/Geolife
//! traces) is preserved.

use crate::citysim::{CityModel, CityModelBuilder};
use crate::noise::route_variant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_core::{Trajectory, TrajectoryDataset};

/// The six dataset profiles of the paper plus a tiny smoke profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// DiDi Chengdu-like: long ride-hailing trips over a large extent.
    Chengdu,
    /// Porto-like: short-to-medium taxi trips, dense sampling.
    Porto,
    /// DiDi Xian-like: medium trips, compact old-town grid.
    Xian,
    /// T-Drive-like: sparse sampling, strong noise, timestamped.
    TDrive,
    /// OSM-like: heterogeneous lengths and extents.
    Osm,
    /// Geolife-like: small population, long multimodal traces, timestamped.
    Geolife,
    /// Tiny deterministic profile for fast tests.
    Smoke,
}

impl DatasetPreset {
    /// All six paper datasets in Table I order.
    pub const PAPER_SETS: [DatasetPreset; 6] = [
        DatasetPreset::Chengdu,
        DatasetPreset::Porto,
        DatasetPreset::Xian,
        DatasetPreset::TDrive,
        DatasetPreset::Osm,
        DatasetPreset::Geolife,
    ];

    /// Lowercase display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::Chengdu => "chengdu",
            DatasetPreset::Porto => "porto",
            DatasetPreset::Xian => "xian",
            DatasetPreset::TDrive => "t-drive",
            DatasetPreset::Osm => "osm",
            DatasetPreset::Geolife => "geolife",
            DatasetPreset::Smoke => "smoke",
        }
    }

    /// The city model for this preset.
    pub fn city(&self) -> CityModel {
        match self {
            DatasetPreset::Chengdu => CityModelBuilder::new()
                .extent(15_000.0)
                .block(130.0)
                .speed(12.0)
                .sample_interval(15.0)
                .gps_noise(30.0)
                .turn_prob(0.25)
                .build(),
            DatasetPreset::Porto => CityModelBuilder::new()
                .extent(6_000.0)
                .block(120.0)
                .speed(9.0)
                .sample_interval(15.0)
                .gps_noise(28.0)
                .turn_prob(0.4)
                .build(),
            DatasetPreset::Xian => CityModelBuilder::new()
                .extent(8_000.0)
                .block(70.0)
                .speed(10.0)
                .sample_interval(12.0)
                .gps_noise(16.0)
                .turn_prob(0.3)
                .build(),
            DatasetPreset::TDrive => CityModelBuilder::new()
                .extent(20_000.0)
                .block(135.0)
                .speed(13.0)
                .sample_interval(60.0)
                .gps_noise(30.0)
                .turn_prob(0.35)
                .timestamped(true)
                .build(),
            DatasetPreset::Osm => CityModelBuilder::new()
                .extent(30_000.0)
                .block(190.0)
                .speed(15.0)
                .sample_interval(20.0)
                .gps_noise(45.0)
                .turn_prob(0.2)
                .build(),
            DatasetPreset::Geolife => CityModelBuilder::new()
                .extent(12_000.0)
                .block(55.0)
                .speed(6.0)
                .sample_interval(10.0)
                .gps_noise(13.0)
                .turn_prob(0.45)
                .timestamped(true)
                .build(),
            DatasetPreset::Smoke => CityModelBuilder::new()
                .extent(1_000.0)
                .block(100.0)
                .speed(10.0)
                .sample_interval(5.0)
                .gps_noise(2.0)
                .turn_prob(0.3)
                .build(),
        }
    }

    /// Trip length range in points (min, max).
    pub fn length_range(&self) -> (usize, usize) {
        match self {
            DatasetPreset::Chengdu => (32, 64),
            DatasetPreset::Porto => (16, 40),
            DatasetPreset::Xian => (24, 48),
            DatasetPreset::TDrive => (16, 32),
            DatasetPreset::Osm => (16, 56),
            DatasetPreset::Geolife => (40, 80),
            DatasetPreset::Smoke => (8, 12),
        }
    }

    /// How many observed variants each base route spawns.
    pub fn variants_per_route(&self) -> usize {
        match self {
            DatasetPreset::Porto | DatasetPreset::Chengdu | DatasetPreset::Xian => 4,
            DatasetPreset::TDrive | DatasetPreset::Geolife => 3,
            DatasetPreset::Osm => 2,
            DatasetPreset::Smoke => 2,
        }
    }

    /// How many independent arterial bands the city has. The paper's
    /// highest-violation datasets (T-Drive, Xian) behave like traffic
    /// concentrated on a single corridor system; the rest spread over two.
    fn corridor_families(&self) -> usize {
        match self {
            DatasetPreset::TDrive | DatasetPreset::Xian => 1,
            _ => 2,
        }
    }
}

/// Parallel siblings per arterial band (one-way pairs, frontage roads,
/// parallel avenues), spaced one block apart. Few enough that a random
/// same-band triple often lands on three consecutive siblings.
const BAND_SHIFTS: usize = 4;

/// Generates `n` trajectories for a preset, deterministically from `seed`.
///
/// The population mixes three realistic trip families:
///
/// * **window trips** (~85%): a contiguous run of one arterial sibling
///   (see the corridor bands below). Partial overlap between windows is
///   what produces triangle-inequality violations — the "bridge
///   trajectory" of the paper's Example 1;
/// * **bridge trips** (~12%): a window of one arterial, a Manhattan
///   connector, then a window of another;
/// * **free trips** (~3%): independent random walks.
///
/// Each base route then emits `variants_per_route` noisy observations,
/// and the emission order is shuffled so train/test splits don't align
/// with routes.
pub fn generate(preset: DatasetPreset, n: usize, seed: u64) -> TrajectoryDataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
    let city = preset.city();
    let (lo, hi) = preset.length_range();
    let per_route = preset.variants_per_route();
    let num_routes = n.div_ceil(per_route).max(1);

    // Shared arterial pool: full-length road paths trips are built from.
    // Deliberately few arterials — real urban traffic concentrates on a
    // handful of corridors. Each band is a base arterial plus
    // `BAND_SHIFTS - 1` parallel siblings one block apart. Trips windowed
    // from siblings a couple of blocks apart match point-for-point under
    // an edit tolerance of ~2 blocks while farther siblings do not; those
    // non-transitive match chains are what give edit measures (EDR) their
    // triangle-violation statistics, and partial overlap/bridging feeds
    // the alignment measures (DTW/SSPD) theirs.
    let mut corridors: Vec<Vec<traj_core::Point>> = Vec::new();
    for _ in 0..preset.corridor_families() {
        let base = city.route(&mut rng, hi);
        let horizontal = rng.gen_bool(0.5);
        for s in 0..BAND_SHIFTS {
            let d = s as f64 * city.block;
            let (dx, dy) = if horizontal { (0.0, d) } else { (d, 0.0) };
            corridors.push(
                base.iter()
                    .map(|p| traj_core::Point {
                        x: p.x + dx,
                        y: p.y + dy,
                        t: p.t,
                    })
                    .collect(),
            );
        }
    }
    let num_corridors = corridors.len();
    // A random contiguous window of an arterial (a partial run of it).
    let window = |rng: &mut StdRng, c: &[traj_core::Point], lo: usize| {
        let len = rng.gen_range(lo.min(c.len())..=c.len());
        let start = rng.gen_range(0..=c.len() - len);
        c[start..start + len].to_vec()
    };

    let mut trajs: Vec<Trajectory> = Vec::with_capacity(n + per_route);
    for _ in 0..num_routes {
        let len = rng.gen_range(lo..=hi);
        let style = rng.gen_range(0..100u32);
        let route = if style < 85 {
            // Window trip: a long run of one arterial sibling. Windows
            // cover ≥ 3/4 of the corridor so that any two windows of the
            // same band overlap over most of their length — that is what
            // lets nearby-sibling trips sit close under edit measures
            // while far-sibling trips stay at full distance.
            let i = rng.gen_range(0..num_corridors);
            window(&mut rng, &corridors[i], 3 * hi / 4)
        } else if style < 97 {
            // Bridge trip: window of one arterial, connector, window of
            // another (the paper's Example 1 structure).
            let i = rng.gen_range(0..num_corridors);
            let mut j = rng.gen_range(0..num_corridors);
            if j == i {
                j = (j + 1) % num_corridors;
            }
            let wa = window(&mut rng, &corridors[i], lo);
            let wb = window(&mut rng, &corridors[j], lo);
            city.compose(&wa, &wb, len)
        } else {
            // Free trip: independent random walk.
            city.route(&mut rng, len)
        };
        let base = city.observe(&mut rng, &route);
        trajs.push(base.clone());
        for _ in 1..per_route {
            trajs.push(route_variant(&mut rng, &base, city.gps_noise));
        }
    }
    // Fisher–Yates shuffle for route decorrelation.
    for i in (1..trajs.len()).rev() {
        let j = rng.gen_range(0..=i);
        trajs.swap(i, j);
    }
    trajs.truncate(n);
    TrajectoryDataset::new(format!("{}-like", preset.name()), trajs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        for preset in [DatasetPreset::Smoke, DatasetPreset::Porto] {
            let d = generate(preset, 37, 1);
            assert_eq!(d.len(), 37);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(DatasetPreset::Smoke, 20, 9);
        let b = generate(DatasetPreset::Smoke, 20, 9);
        assert_eq!(a.trajectories(), b.trajectories());
        let c = generate(DatasetPreset::Smoke, 20, 10);
        assert_ne!(a.trajectories(), c.trajectories());
    }

    #[test]
    fn lengths_respect_preset_range() {
        let d = generate(DatasetPreset::Porto, 50, 2);
        let (lo, hi) = DatasetPreset::Porto.length_range();
        for t in d.trajectories() {
            // Dropout in variants can shorten trips but never below 2.
            assert!(t.len() >= 2 && t.len() <= hi, "len={}", t.len());
        }
        assert!(lo >= 2);
    }

    #[test]
    fn timestamped_presets_produce_timestamps() {
        let d = generate(DatasetPreset::TDrive, 10, 3);
        assert!(d.trajectories().iter().all(|t| t.is_timestamped()));
        let d = generate(DatasetPreset::Porto, 10, 3);
        assert!(d.trajectories().iter().all(|t| !t.is_timestamped()));
    }

    #[test]
    fn presets_have_distinct_scales() {
        let chengdu = generate(DatasetPreset::Chengdu, 30, 4);
        let porto = generate(DatasetPreset::Porto, 30, 4);
        let ce = chengdu.bbox();
        let pe = porto.bbox();
        assert!(
            ce.width().max(ce.height()) > pe.width().max(pe.height()),
            "chengdu extent should exceed porto"
        );
    }

    #[test]
    fn route_reuse_creates_near_duplicates() {
        // With variants_per_route > 1 some pairs must be much closer than
        // the typical pair: check min pairwise centroid distance is far
        // below the mean.
        let d = generate(DatasetPreset::Smoke, 30, 5);
        let cents: Vec<_> = d.trajectories().iter().map(|t| t.centroid()).collect();
        let mut dists = Vec::new();
        for i in 0..cents.len() {
            for j in i + 1..cents.len() {
                dists.push(cents[i].dist(&cents[j]));
            }
        }
        let mean: f64 = dists.iter().sum::<f64>() / dists.len() as f64;
        let min = dists.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < mean * 0.2, "min={min} mean={mean}");
    }

    #[test]
    fn paper_sets_constant() {
        assert_eq!(DatasetPreset::PAPER_SETS.len(), 6);
        assert_eq!(DatasetPreset::PAPER_SETS[0].name(), "chengdu");
    }
}
