//! Golden-vector regression tests: checked-in f64 bit patterns.
//!
//! Proptest catches drift only when the generator happens to hit a
//! sensitive input; these fixtures pin the exact IEEE-754 bits of
//! DTW/ERP/EDR/LCSS/SSPD/Hausdorff/discrete Fréchet over a small
//! deliberately awkward trajectory set (duplicate points, single points,
//! near-tolerance deltas, negative coordinates), so *any* change to
//! kernel arithmetic — reassociation, min-order, boundary handling —
//! fails loudly and immediately. A second fixture pins SSPD, Hausdorff
//! and discrete Fréchet on geometry their kernels special-case: signed
//! zeros, a segment shorter than `√ε` (the degenerate-segment cutoff of
//! `traj_core::point::point_segment_distance`), collinear revisits, a
//! one-point trajectory and raw, unnormalized coordinates.
//!
//! The expected values are hex-encoded `f64::to_bits` (exact, no
//! parsing/rounding ambiguity). To regenerate after an *intentional*
//! semantics change, run:
//!
//! ```text
//! cargo test -p traj-dist --test golden_vectors -- --ignored regenerate --nocapture
//! ```
//!
//! and paste the printed tables over `EXPECTED` and `EXPECTED_EDGE`.

use traj_core::Trajectory;
use traj_dist::measure::{Measure, MeasureKind};

/// EDR/LCSS tolerance used by the fixture: wide enough that some point
/// pairs match and others miss, so the DP actually branches.
const EPS: f64 = 0.25;

fn fixture() -> Vec<Trajectory> {
    let coords: [&[(f64, f64)]; 5] = [
        // A short ramp.
        &[(0.0, 0.0), (0.5, 0.25), (1.0, 0.5)],
        // Same ramp perturbed near the ±EPS boundary.
        &[(0.1, 0.0), (0.5, 0.5), (1.2, 0.5), (1.4, 0.6)],
        // A single point (degenerate lane).
        &[(0.3, -0.4)],
        // Duplicate points and a revisit.
        &[(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)],
        // Negative quadrant zig-zag, longer than the others.
        &[
            (-1.0, -1.0),
            (-0.5, -1.5),
            (0.0, -1.0),
            (-0.5, -0.5),
            (-1.0, -1.0),
            (-1.5, -0.5),
        ],
    ];
    coords
        .iter()
        .map(|c| Trajectory::from_xy(c).unwrap())
        .collect()
}

/// Geometry the SSPD, Hausdorff and Fréchet kernels special-case.
fn edge_fixture() -> Vec<Trajectory> {
    let coords: [&[(f64, f64)]; 5] = [
        // Signed zeros on both axes, then a step off the origin.
        &[(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.25, -0.0)],
        // A segment of length 1e-9 (degenerate: 1e-18 ≤ ε) and one of
        // 2e-8 (not: 4e-16 > ε) between ordinary ones.
        &[
            (0.5, 0.5),
            (0.5 + 1e-9, 0.5),
            (1.0, 0.0),
            (1.0, 2e-8),
            (-0.5, -0.0),
        ],
        // Collinear revisits: back and forth along the x axis.
        &[(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.0, 0.0), (-0.0, 0.0)],
        // A single point at the negative-zero origin.
        &[(-0.0, -0.0)],
        // Raw, unnormalized coordinates (metres in a projected CRS).
        &[
            (4.0e5, -3.0e5),
            (4.0e5 + 12.5, -3.0e5),
            (4.0e5 + 12.5, -2.9e5),
        ],
    ];
    coords
        .iter()
        .map(|c| Trajectory::from_xy(c).unwrap())
        .collect()
}

fn measures() -> [(&'static str, Measure); 7] {
    [
        ("DTW", MeasureKind::Dtw.measure()),
        ("ERP", MeasureKind::Erp.measure()),
        ("EDR", {
            let mut m = MeasureKind::Edr.measure();
            m.edr_eps = EPS;
            m
        }),
        ("LCSS", {
            let mut m = MeasureKind::Lcss.measure();
            m.lcss_eps = EPS;
            m
        }),
        ("SSPD", MeasureKind::Sspd.measure()),
        ("Hausdorff", MeasureKind::Hausdorff.measure()),
        ("Frechet", MeasureKind::DiscreteFrechet.measure()),
    ]
}

/// The measures pinned on [`edge_fixture`].
fn edge_measures() -> [(&'static str, Measure); 3] {
    [
        ("SSPD", MeasureKind::Sspd.measure()),
        ("Hausdorff", MeasureKind::Hausdorff.measure()),
        ("Frechet", MeasureKind::DiscreteFrechet.measure()),
    ]
}

/// (measure name, i, j, expected f64 bits) for every unordered pair.
const EXPECTED: &[(&str, usize, usize, u64)] = &[
    ("DTW", 0, 1, 0x3feecb3f85598a6a),
    ("DTW", 0, 2, 0x40028fdeae890a5a),
    ("DTW", 0, 3, 0x400027c69ee450d1),
    ("DTW", 0, 4, 0x4022b1f926a72bab),
    ("DTW", 1, 2, 0x401083a71982fce0),
    ("DTW", 1, 3, 0x4006f341d19a491d),
    ("DTW", 1, 4, 0x4026924408f9ffc0),
    ("DTW", 2, 3, 0x400885a08683f80f),
    ("DTW", 2, 4, 0x401e039e2c4516ed),
    ("DTW", 3, 4, 0x4021de2575a456af),
    ("ERP", 0, 1, 0x3fff674de7e10b2f),
    ("ERP", 0, 2, 0x3ffb2fe463f40977),
    ("ERP", 0, 3, 0x3ff0f1bbcdcbfa54),
    ("ERP", 0, 4, 0x4021deb9ffc7a80d),
    ("ERP", 1, 2, 0x400cbfecf1fadd6c),
    ("ERP", 1, 3, 0x400561e0e152dae8),
    ("ERP", 1, 4, 0x40254b4e7491944e),
    ("ERP", 2, 3, 0x3ff90b410d07f01e),
    ("ERP", 2, 4, 0x401d797aa806b156),
    ("ERP", 3, 4, 0x4021de2575a456af),
    ("EDR", 0, 1, 0x3ff0000000000000),
    ("EDR", 0, 2, 0x4008000000000000),
    ("EDR", 0, 3, 0x4008000000000000),
    ("EDR", 0, 4, 0x4018000000000000),
    ("EDR", 1, 2, 0x4010000000000000),
    ("EDR", 1, 3, 0x4008000000000000),
    ("EDR", 1, 4, 0x4018000000000000),
    ("EDR", 2, 3, 0x4010000000000000),
    ("EDR", 2, 4, 0x4018000000000000),
    ("EDR", 3, 4, 0x4018000000000000),
    ("LCSS", 0, 1, 0x0000000000000000),
    ("LCSS", 0, 2, 0x3ff0000000000000),
    ("LCSS", 0, 3, 0x3fe5555555555556),
    ("LCSS", 0, 4, 0x3ff0000000000000),
    ("LCSS", 1, 2, 0x3ff0000000000000),
    ("LCSS", 1, 3, 0x3fe8000000000000),
    ("LCSS", 1, 4, 0x3ff0000000000000),
    ("LCSS", 2, 3, 0x3ff0000000000000),
    ("LCSS", 2, 4, 0x3ff0000000000000),
    ("LCSS", 3, 4, 0x3ff0000000000000),
    ("SSPD", 0, 1, 0x3fc38e25811eff21),
    ("SSPD", 0, 2, 0x3fe43ee0f9abdfc7),
    ("SSPD", 0, 3, 0x3fc3504f333f9de6),
    ("SSPD", 0, 4, 0x3ff429ca56abe5d8),
    ("SSPD", 1, 2, 0x3fe7ab708af2f856),
    ("SSPD", 1, 3, 0x3fcee6e51ecc2fd6),
    ("SSPD", 1, 4, 0x3ff72e0aedc1458d),
    ("SSPD", 2, 3, 0x3fe442d04341fc08),
    ("SSPD", 2, 4, 0x3fee311720f861a8),
    ("SSPD", 3, 4, 0x3ff2bfc07043f21b),
    ("Hausdorff", 0, 1, 0x3fda634bd77fe1a3),
    ("Hausdorff", 0, 2, 0x3ff23e2896280f23),
    ("Hausdorff", 0, 3, 0x3fe1e3779b97f4a8),
    ("Hausdorff", 0, 4, 0x3ffcd82b446159f3),
    ("Hausdorff", 1, 2, 0x3ff7c9244a4fb68c),
    ("Hausdorff", 1, 3, 0x3fe6a09e667f3bcd),
    ("Hausdorff", 1, 4, 0x4001021b93dbd9c5),
    ("Hausdorff", 2, 3, 0x3ff90b410d07f01e),
    ("Hausdorff", 2, 4, 0x3ffcd82b446159f3),
    ("Hausdorff", 3, 4, 0x4000f876ccdf6cd9),
    ("Frechet", 0, 1, 0x3fda634bd77fe1a3),
    ("Frechet", 0, 2, 0x3ff23e2896280f23),
    ("Frechet", 0, 3, 0x3ff1e3779b97f4a8),
    ("Frechet", 0, 4, 0x40058a68a4a8d9f3),
    ("Frechet", 1, 2, 0x3ff7c9244a4fb68c),
    ("Frechet", 1, 3, 0x3ff85ed7614b038c),
    ("Frechet", 1, 4, 0x4008d01a34b826d7),
    ("Frechet", 2, 3, 0x3ff90b410d07f01e),
    ("Frechet", 2, 4, 0x3ffcd82b446159f3),
    ("Frechet", 3, 4, 0x4000f876ccdf6cd9),
];

/// (measure name, i, j, expected f64 bits) for every ordered pair
/// `i ≠ j` of [`edge_fixture`]: both orientations, since the kernels
/// walk `a` and `b` differently.
const EXPECTED_EDGE: &[(&str, usize, usize, u64)] = &[
    ("SSPD", 0, 1, 0x3fd3f496424fde0a),
    ("SSPD", 0, 2, 0x3fc6666666666666),
    ("SSPD", 0, 3, 0x3fa0000000000000),
    ("SSPD", 0, 4, 0x411e46cde1181f3b),
    ("SSPD", 1, 0, 0x3fd3f496424fde0a),
    ("SSPD", 1, 2, 0x3fc333333d38ba26),
    ("SSPD", 1, 3, 0x3fd90d0c2ca763d3),
    ("SSPD", 1, 4, 0x411e46cc33696715),
    ("SSPD", 2, 0, 0x3fc6666666666666),
    ("SSPD", 2, 1, 0x3fc333333d38ba26),
    ("SSPD", 2, 3, 0x3fd0000000000000),
    ("SSPD", 2, 4, 0x411e46cbf74eb061),
    ("SSPD", 3, 0, 0x3fa0000000000000),
    ("SSPD", 3, 1, 0x3fd90d0c2ca763d3),
    ("SSPD", 3, 2, 0x3fd0000000000000),
    ("SSPD", 3, 4, 0x411e46ce61d0156d),
    ("SSPD", 4, 0, 0x411e46cde1181f3b),
    ("SSPD", 4, 1, 0x411e46cc33696715),
    ("SSPD", 4, 2, 0x411e46cbf74eb061),
    ("SSPD", 4, 3, 0x411e46ce61d0156d),
    ("Hausdorff", 0, 1, 0x3fe8000000000003),
    ("Hausdorff", 0, 2, 0x3fe8000000000000),
    ("Hausdorff", 0, 3, 0x3fd0000000000000),
    ("Hausdorff", 0, 4, 0x411e84a733415c84),
    ("Hausdorff", 1, 0, 0x3fe8000000000003),
    ("Hausdorff", 1, 2, 0x3fe0000000000000),
    ("Hausdorff", 1, 3, 0x3ff0000000000001),
    ("Hausdorff", 1, 4, 0x411e84a4ccd947cb),
    ("Hausdorff", 2, 0, 0x3fe8000000000000),
    ("Hausdorff", 2, 1, 0x3fe0000000000000),
    ("Hausdorff", 2, 3, 0x3ff0000000000000),
    ("Hausdorff", 2, 4, 0x411e84a4ccd947cb),
    ("Hausdorff", 3, 0, 0x3fd0000000000000),
    ("Hausdorff", 3, 1, 0x3ff0000000000001),
    ("Hausdorff", 3, 2, 0x3ff0000000000000),
    ("Hausdorff", 3, 4, 0x411e84a8000ebecc),
    ("Hausdorff", 4, 0, 0x411e84a733415c84),
    ("Hausdorff", 4, 1, 0x411e84a4ccd947cb),
    ("Hausdorff", 4, 2, 0x411e84a4ccd947cb),
    ("Hausdorff", 4, 3, 0x411e84a8000ebecc),
    ("Frechet", 0, 1, 0x3fe8000000000003),
    ("Frechet", 0, 2, 0x3fe8000000000000),
    ("Frechet", 0, 3, 0x3fd0000000000000),
    ("Frechet", 0, 4, 0x411e84a733415c84),
    ("Frechet", 1, 0, 0x3fe8000000000003),
    ("Frechet", 1, 2, 0x3fe6a09e667f3bcd),
    ("Frechet", 1, 3, 0x3ff0000000000001),
    ("Frechet", 1, 4, 0x411e84a4ccd947cb),
    ("Frechet", 2, 0, 0x3fe8000000000000),
    ("Frechet", 2, 1, 0x3fe6a09e667f3bcd),
    ("Frechet", 2, 3, 0x3ff0000000000000),
    ("Frechet", 2, 4, 0x411e84a4ccd947cb),
    ("Frechet", 3, 0, 0x3fd0000000000000),
    ("Frechet", 3, 1, 0x3ff0000000000001),
    ("Frechet", 3, 2, 0x3ff0000000000000),
    ("Frechet", 3, 4, 0x411e84a8000ebecc),
    ("Frechet", 4, 0, 0x411e84a733415c84),
    ("Frechet", 4, 1, 0x411e84a4ccd947cb),
    ("Frechet", 4, 2, 0x411e84a4ccd947cb),
    ("Frechet", 4, 3, 0x411e84a8000ebecc),
];

type Table = [(&'static str, usize, usize, u64)];

/// Asserts every row of `table` against `m.distance`.
fn check_table(trajs: &[Trajectory], measures: &[(&str, Measure)], table: &Table) {
    for &(name, i, j, bits) in table {
        let (_, m) = measures
            .iter()
            .find(|(n, _)| *n == name)
            .expect("unknown measure in table");
        let got = m.distance(&trajs[i], &trajs[j]);
        assert_eq!(
            got.to_bits(),
            bits,
            "{name}({i},{j}): got {got:.17} ({:#018x}), expected {:#018x} ({:.17})",
            got.to_bits(),
            bits,
            f64::from_bits(bits)
        );
    }
}

/// Asserts every row of `table` whose measure has a lockstep kernel
/// against one `distance_batch` call per measure.
fn check_table_batched(trajs: &[Trajectory], measures: &[(&str, Measure)], table: &Table) {
    for &(name, m) in measures {
        if !m.supports_batch() {
            continue;
        }
        let mut pairs = Vec::new();
        let mut expected = Vec::new();
        for &(n, i, j, bits) in table {
            if n == name {
                pairs.push((&trajs[i], &trajs[j]));
                expected.push(bits);
            }
        }
        let got = m.distance_batch(&pairs);
        for (k, (&bits, d)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(d.to_bits(), bits, "{name} batched pair #{k}");
        }
    }
}

#[test]
fn golden_bits_match() {
    let trajs = fixture();
    let measures = measures();
    assert_eq!(
        EXPECTED.len(),
        measures.len() * trajs.len() * (trajs.len() - 1) / 2,
        "fixture shape drifted; regenerate the table"
    );
    check_table(&trajs, &measures, EXPECTED);
}

#[test]
fn edge_golden_bits_match() {
    let trajs = edge_fixture();
    let measures = edge_measures();
    assert_eq!(
        EXPECTED_EDGE.len(),
        measures.len() * trajs.len() * (trajs.len() - 1),
        "edge fixture shape drifted; regenerate the table"
    );
    check_table(&trajs, &measures, EXPECTED_EDGE);
}

/// The batched tier must reproduce the same golden bits (it claims bit
/// identity, so it inherits both fixtures for free).
#[test]
fn golden_bits_match_batched_tier() {
    check_table_batched(&fixture(), &measures(), EXPECTED);
    check_table_batched(&edge_fixture(), &edge_measures(), EXPECTED_EDGE);
}

/// Prints the `EXPECTED` and `EXPECTED_EDGE` tables from the current
/// kernels. Ignored by default; see the module docs.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate() {
    let trajs = fixture();
    for (name, m) in measures() {
        for i in 0..trajs.len() {
            for j in (i + 1)..trajs.len() {
                let d = m.distance(&trajs[i], &trajs[j]);
                println!("    (\"{name}\", {i}, {j}, {:#018x}),", d.to_bits());
            }
        }
    }
    println!("--- EXPECTED_EDGE");
    let trajs = edge_fixture();
    for (name, m) in edge_measures() {
        for i in 0..trajs.len() {
            for j in (0..trajs.len()).filter(|&j| j != i) {
                let d = m.distance(&trajs[i], &trajs[j]);
                println!("    (\"{name}\", {i}, {j}, {:#018x}),", d.to_bits());
            }
        }
    }
}
