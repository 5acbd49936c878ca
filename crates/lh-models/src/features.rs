//! Point-sequence featurization shared by the encoders.
//!
//! Trajectories are assumed normalized (unit square, time in `[0,1]`; see
//! `traj_core::normalize`). Each point becomes a fixed-width feature row:
//!
//! `[x, y, dx, dy, t, dt]`
//!
//! where deltas are w.r.t. the previous point (zero for the first) and the
//! time features are zero for untimestamped data. Models slice the columns
//! they need.

use lh_nn::{Tape, Tensor, Var};
use traj_core::Trajectory;

/// Total feature width produced by [`point_features`].
pub const FEAT_DIM: usize = 6;

/// Columns `[x, y, dx, dy]` — the spatial prefix.
pub const SPATIAL_DIM: usize = 4;

/// Featurizes one trajectory into `len × FEAT_DIM` rows.
pub fn point_features(traj: &Trajectory) -> Vec<[f32; FEAT_DIM]> {
    let pts = traj.points();
    let mut out = Vec::with_capacity(pts.len());
    for (i, p) in pts.iter().enumerate() {
        let (dx, dy, dt) = if i == 0 {
            (0.0, 0.0, 0.0)
        } else {
            let q = &pts[i - 1];
            (
                (p.x - q.x) as f32,
                (p.y - q.y) as f32,
                (p.time_gap(q)) as f32,
            )
        };
        out.push([
            p.x as f32,
            p.y as f32,
            dx,
            dy,
            p.t.unwrap_or(0.0) as f32,
            dt,
        ]);
    }
    out
}

/// Builds padded per-step batch inputs (data leaves, see [`Tape::input`])
/// for a set of feature sequences, keeping only columns `cols.0..cols.1`.
/// Returns `(steps, masks, lens)`: `steps[t]` is `B×(cols.1−cols.0)`,
/// `masks[t]` is `B×1`.
pub fn batch_steps(
    tape: &mut Tape,
    seqs: &[Vec<[f32; FEAT_DIM]>],
    cols: (usize, usize),
) -> (Vec<Var>, Vec<Var>) {
    assert!(cols.0 < cols.1 && cols.1 <= FEAT_DIM);
    let batch = seqs.len();
    let width = cols.1 - cols.0;
    let max_len = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
    let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let mut steps = Vec::with_capacity(max_len);
    for t in 0..max_len {
        let mut m = Tensor::zeros(batch, width);
        for (b, seq) in seqs.iter().enumerate() {
            if t < seq.len() {
                for (w, c) in (cols.0..cols.1).enumerate() {
                    m.set(b, w, seq[t][c]);
                }
            }
        }
        steps.push(tape.input(m));
    }
    let masks = lh_nn::layers::sequence_masks(tape, &lens, max_len);
    (steps, masks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_without_time() {
        let t = Trajectory::from_xy(&[(0.1, 0.2), (0.3, 0.1)]).unwrap();
        let f = point_features(&t);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0], [0.1, 0.2, 0.0, 0.0, 0.0, 0.0]);
        let expect = [0.3f32, 0.1, 0.2, -0.1, 0.0, 0.0];
        for (a, b) in f[1].iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn features_with_time() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.5, 0.0, 0.25)]).unwrap();
        let f = point_features(&t);
        assert_eq!(f[1][4], 0.25);
        assert_eq!(f[1][5], 0.25);
    }

    #[test]
    fn batch_steps_pads_and_masks() {
        let a = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        let b = Trajectory::from_xy(&[(5.0, 5.0)]).unwrap();
        let seqs = vec![point_features(&a), point_features(&b)];
        let mut tape = Tape::new();
        let (steps, masks) = batch_steps(&mut tape, &seqs, (0, 2));
        assert_eq!(steps.len(), 3);
        assert_eq!(tape.value(steps[0]).shape(), (2, 2));
        // Padded rows are zero; masks mark validity.
        assert_eq!(tape.value(steps[2]).get(1, 0), 0.0);
        assert_eq!(tape.value(masks[0]).get(1, 0), 1.0);
        assert_eq!(tape.value(masks[1]).get(1, 0), 0.0);
    }

    #[test]
    fn column_slicing() {
        let a = Trajectory::from_xyt(&[(0.1, 0.2, 0.3)]).unwrap();
        let seqs = vec![point_features(&a)];
        let mut tape = Tape::new();
        let (steps, _) = batch_steps(&mut tape, &seqs, (4, 6));
        let v = tape.value(steps[0]);
        assert_eq!(v.shape(), (1, 2));
        assert!((v.get(0, 0) - 0.3).abs() < 1e-6);
    }
}
