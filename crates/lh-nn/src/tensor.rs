//! Dense row-major 2-D `f32` tensors.
//!
//! Everything in this substrate is a matrix: batches are rows, features are
//! columns, scalars are `1×1`. Keeping the tensor strictly 2-D removes an
//! entire class of shape bugs while covering every operation the trajectory
//! encoders and the LH-plugin need.

use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Constant-filled tensor.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// From a row-major data vector; length must equal `rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// A `1×1` scalar.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// Uniform random in `[-a, a]`.
    pub fn uniform(rows: usize, cols: usize, a: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
        Tensor { rows, cols, data }
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1×1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!((self.rows, self.cols), (1, 1), "item() needs a scalar");
        self.data[0]
    }

    /// Matrix multiplication `self(m×k) · other(k×n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        // ikj loop order: streams through `other` row-wise (cache friendly).
        for i in 0..m {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn map_and_reductions() {
        let a = Tensor::from_vec(1, 3, vec![1.0, -2.0, 2.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0, 4.0]);
        assert_eq!(a.sum(), 1.0);
        assert_eq!(a.frobenius_norm(), 3.0);
    }

    #[test]
    fn add_assign_sums_elementwise() {
        let mut a = Tensor::from_vec(1, 2, vec![0.5, 1.0]);
        let b = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[1.5, 3.0]);
    }

    #[test]
    fn uniform_bounds_and_determinism() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let a = Tensor::uniform(4, 4, 0.5, &mut r1);
        let b = Tensor::uniform(4, 4, 0.5, &mut r2);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn finiteness() {
        let mut a = Tensor::zeros(1, 2);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
    }
}
