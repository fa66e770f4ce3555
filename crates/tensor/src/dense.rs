//! Row-major strided dense tensors.
//!
//! The dense operands of an SpTTN kernel (factor matrices, small core
//! tensors, intermediate buffers) are all instances of [`DenseTensor`].
//! The layout is row-major: the last mode is contiguous, matching the
//! paper's convention that the innermost dense loops stream over
//! contiguous factor rows so they can be offloaded to BLAS-style
//! microkernels.

use crate::TensorError;

/// A dense tensor of `f64` values in row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    strides
}

/// Largest elementwise `|a − b|` of two value slices — the one result
/// comparison shared by the CLI's `--check` and the test suites.
///
/// NaN/inf-aware: equal values, matching infinities included, differ
/// by 0; any NaN, a one-sided infinity, or opposite infinities make the
/// result `+∞`, so a poisoned result can never pass a `≤ tol` check.
/// Slices of different lengths also compare as `+∞`.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x == y {
                0.0
            } else {
                let d = (x - y).abs();
                if d.is_nan() {
                    f64::INFINITY
                } else {
                    d
                }
            }
        })
        .fold(0.0, f64::max)
}

impl DenseTensor {
    /// Create a zero-filled tensor with the given dimensions.
    ///
    /// A zero-order tensor (`dims == []`) is a scalar holding one value.
    pub fn zeros(dims: &[usize]) -> Self {
        let len = dims.iter().product::<usize>().max(1);
        DenseTensor {
            dims: dims.to_vec(),
            strides: row_major_strides(dims),
            data: vec![0.0; len],
        }
    }

    /// Create a tensor from an explicit row-major data vector.
    pub fn from_data(dims: &[usize], data: Vec<f64>) -> Result<Self, TensorError> {
        let len = dims.iter().product::<usize>().max(1);
        if data.len() != len {
            return Err(TensorError::OrderMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(DenseTensor {
            dims: dims.to_vec(),
            strides: row_major_strides(dims),
            data,
        })
    }

    /// Create a tensor by evaluating `f` at every coordinate.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut coord = vec![0usize; dims.len()];
        for pos in 0..t.data.len() {
            t.data[pos] = f(&coord);
            // Advance the row-major odometer.
            for k in (0..dims.len()).rev() {
                coord[k] += 1;
                if coord[k] < dims[k] {
                    break;
                }
                coord[k] = 0;
            }
        }
        t
    }

    /// Dimensions of the tensor.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides of the tensor.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor stores no elements (never: scalars store one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major offset of a coordinate.
    #[inline]
    pub fn offset(&self, coord: &[usize]) -> usize {
        debug_assert_eq!(coord.len(), self.dims.len());
        let mut off = 0usize;
        for (k, (&c, &s)) in coord.iter().zip(&self.strides).enumerate() {
            debug_assert!(c < self.dims[k]);
            off += c * s;
        }
        off
    }

    /// Read the value at a coordinate.
    #[inline]
    pub fn get(&self, coord: &[usize]) -> f64 {
        self.data[self.offset(coord)]
    }

    /// Write the value at a coordinate.
    #[inline]
    pub fn set(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.data[off] = v;
    }

    /// Accumulate into the value at a coordinate.
    #[inline]
    pub fn add(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.data[off] += v;
    }

    /// Immutable view of the backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute elementwise difference with another tensor of the
    /// same shape, NaN/inf-aware (see the free [`max_abs_diff`]). Panics
    /// if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch in max_abs_diff");
        max_abs_diff(&self.data, &other.data)
    }

    /// True when all elements differ from `other` by at most `tol`,
    /// relative to the magnitude of the larger operand.
    pub fn approx_eq(&self, other: &DenseTensor, tol: f64) -> bool {
        if self.dims != other.dims {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }

    /// Iterate `(coordinate, value)` pairs in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        let dims = self.dims.clone();
        self.data.iter().enumerate().map(move |(pos, &v)| {
            let mut coord = vec![0usize; dims.len()];
            let mut rem = pos;
            for k in (0..dims.len()).rev() {
                coord[k] = rem % dims[k];
                rem /= dims[k];
            }
            (coord, v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.order(), 3);
        assert_eq!(t.len(), 24);
        assert_eq!(t.strides(), &[12, 4, 1]);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn scalar_tensor() {
        let mut t = DenseTensor::zeros(&[]);
        assert_eq!(t.len(), 1);
        t.add(&[], 2.5);
        assert_eq!(t.get(&[]), 2.5);
    }

    #[test]
    fn from_fn_and_get_set() {
        let t = DenseTensor::from_fn(&[2, 3], |c| (c[0] * 10 + c[1]) as f64);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2]), 12.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
    }

    #[test]
    fn offset_row_major() {
        let t = DenseTensor::zeros(&[3, 4]);
        assert_eq!(t.offset(&[0, 0]), 0);
        assert_eq!(t.offset(&[0, 3]), 3);
        assert_eq!(t.offset(&[1, 0]), 4);
        assert_eq!(t.offset(&[2, 3]), 11);
    }

    #[test]
    fn from_data_checks_len() {
        assert!(DenseTensor::from_data(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(DenseTensor::from_data(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn iter_coords_roundtrip() {
        let t = DenseTensor::from_fn(&[2, 2, 2], |c| (c[0] * 4 + c[1] * 2 + c[2]) as f64);
        for (coord, v) in t.iter_coords() {
            assert_eq!(t.get(&coord), v);
        }
        assert_eq!(t.iter_coords().count(), 8);
    }

    #[test]
    fn approx_eq_tolerates_roundoff() {
        let a = DenseTensor::from_fn(&[4], |c| c[0] as f64);
        let mut b = a.clone();
        b.add(&[2], 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        b.add(&[2], 1.0);
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        let a = DenseTensor::zeros(&[3]);
        let mut b = DenseTensor::zeros(&[3]);
        b.set(&[1], -4.0);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    fn max_abs_diff_flags_nan_and_inf_disagreement() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        // Matching infinities are equal; finite entries still count.
        assert_eq!(max_abs_diff(&[inf, -inf, 1.0], &[inf, -inf, 1.5]), 0.5);
        // Any NaN — one-sided or on both sides — is a mismatch.
        assert_eq!(max_abs_diff(&[1.0, nan], &[1.0, 2.0]), inf);
        assert_eq!(max_abs_diff(&[nan], &[nan]), inf);
        // One-sided and opposite infinities are mismatches.
        assert_eq!(max_abs_diff(&[inf], &[1.0]), inf);
        assert_eq!(max_abs_diff(&[inf], &[-inf]), inf);
        // Length mismatch never passes.
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 1.0]), inf);
        // A NaN-poisoned tensor fails a tolerance check.
        let want = DenseTensor::from_data(&[2], vec![1.0, 2.0]).unwrap();
        let got = DenseTensor::from_data(&[2], vec![1.0, nan]).unwrap();
        assert!(got.max_abs_diff(&want) > 1e-9);
    }

    #[test]
    fn fill_and_norm() {
        let mut t = DenseTensor::zeros(&[2, 2]);
        t.fill(2.0);
        assert_eq!(t.norm_sq(), 16.0);
        t.fill_zero();
        assert_eq!(t.norm(), 0.0);
    }
}
