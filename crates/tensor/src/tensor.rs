//! The dense `f32` tensor type.

use crate::{Rng, Shape};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` tensor.
///
/// This is deliberately minimal: it owns a flat `Vec<f32>` plus a [`Shape`],
/// and exposes only the element-wise and reduction operations the CGX stack
/// needs (compression, error feedback, SGD updates, PowerSGD factorization).
///
/// # Examples
///
/// ```
/// use cgx_tensor::Tensor;
/// let mut t = Tensor::zeros(&[2, 2]);
/// t.fill(1.5);
/// assert_eq!(t.sum(), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Partial sums of [`Tensor::norm2_sq`]. Measured on the baseline x86-64
/// build, 65,536 elements: 4, 8 and 16 all take 8.5-10.5 us against 31-40
/// for one sum, 32 takes 12. Eight keeps two elements a cycle in flight
/// where an `f64` add takes four cycles; four would not.
const NORM_LANES: usize = 8;

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let mut t = Tensor::zeros(dims);
        t.fill(value);
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::from(dims);
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a flat vector tensor from data.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(&[data.len()], data.to_vec())
    }

    /// Standard-normal random tensor.
    pub fn randn(rng: &mut Rng, dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.len()).map(|_| rng.normal() as f32).collect();
        Tensor { shape, data }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(rng: &mut Rng, dims: &[usize], lo: f32, hi: f32) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.len())
            .map(|_| rng.uniform_range(lo as f64, hi as f64) as f32)
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_assert(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.zip_assert(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Scales every element by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// `self += alpha * other` (BLAS axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.zip_assert(other);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn dot(&self, other: &Tensor) -> f64 {
        self.zip_assert(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum()
    }

    /// Sum of all elements (accumulated in f64).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|x| *x as f64).sum()
    }

    /// Euclidean (L2) norm: the square root of [`Tensor::norm2_sq`].
    pub fn norm2(&self) -> f64 {
        self.norm2_sq().sqrt()
    }

    /// Squared L2 norm, accumulated in `f64` in eight partial sums: the
    /// square of element `i` (exact in `f64`) goes to sum `i % 8` in
    /// index order, and the sums are then added up from the first to the
    /// last. One dependent add per element is what a single sum costs;
    /// independent ones the compiler keeps in vector registers. The lane
    /// count is a constant of this definition, not of the machine, so the
    /// value is a function of the tensor's bytes alone — on every rank,
    /// fabric and instruction set — which is what the live controller's
    /// replicated plans rest on (DESIGN.md §13.1).
    pub fn norm2_sq(&self) -> f64 {
        let mut lanes = [0.0f64; NORM_LANES];
        let mut add = |group: &[f32; NORM_LANES]| {
            for (lane, x) in lanes.iter_mut().zip(group) {
                *lane += *x as f64 * *x as f64;
            }
        };
        let mut groups = self.data.chunks_exact(NORM_LANES);
        for group in &mut groups {
            add(group.try_into().expect("exact chunk"));
        }
        // The last few elements as one more whole group: a lane is never
        // `-0.0`, so the `+0.0` a padding element adds changes none.
        let rest = groups.remainder();
        let mut last = [0.0f32; NORM_LANES];
        last[..rest.len()].copy_from_slice(rest);
        add(&last);
        lanes.iter().fold(0.0, |sum, lane| sum + lane)
    }

    /// Maximum absolute element (0 for an all-zero tensor).
    pub fn norm_inf(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// L2 distance to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn l2_distance(&self, other: &Tensor) -> f64 {
        self.zip_assert(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = *a as f64 - *b as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Returns the indices of the `k` largest-magnitude elements.
    ///
    /// Used by TopK sparsification. Ties are broken by lower index.
    ///
    /// # Panics
    ///
    /// Panics if `k > len()`.
    pub fn top_k_indices(&self, k: usize) -> Vec<usize> {
        assert!(k <= self.len(), "k={k} exceeds length {}", self.len());
        let mut idx: Vec<usize> = (0..self.len()).collect();
        // Partial selection: sort by descending |value|, stable on index.
        idx.select_nth_unstable_by(
            k.saturating_sub(1).min(self.len().saturating_sub(1)),
            |&a, &b| {
                self.data[b]
                    .abs()
                    .partial_cmp(&self.data[a].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            },
        );
        let mut out = idx[..k].to_vec();
        out.sort_unstable();
        out
    }

    fn zip_assert(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor<{}>", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let mut t = Tensor::zeros(&[3, 2]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 0.0);
        t.fill(2.0);
        assert_eq!(t.sum(), 12.0);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let mut a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.0, 1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let mut a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.add_assign(&b);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_slice(&[3.0, -4.0]);
        assert!((t.norm2() - 5.0).abs() < 1e-9);
        assert_eq!(t.norm_inf(), 4.0);
        assert!((t.norm2_sq() - 25.0).abs() < 1e-9);
    }

    /// The definition [`Tensor::norm2_sq`] documents, one element at a
    /// time.
    fn norm2_sq_by_definition(data: &[f32]) -> f64 {
        let mut lanes = [0.0f64; NORM_LANES];
        for (i, x) in data.iter().enumerate() {
            lanes[i % NORM_LANES] += *x as f64 * *x as f64;
        }
        let mut sum = 0.0;
        for lane in lanes {
            sum += lane;
        }
        sum
    }

    #[test]
    fn norm2_sq_is_its_lane_definition_bit_for_bit() {
        const L: usize = NORM_LANES;
        let specials = [0.0, -0.0, 1.0e-40, -1.0e-45, f32::MAX, f32::MIN_POSITIVE];
        let mut rng = Rng::seed_from_u64(29);
        for n in [0, 1, L - 1, L, L + 1, 2 * L + 3, 65_536] {
            let mut data: Vec<f32> = (0..n).map(|_| (rng.normal() * 3.0) as f32).collect();
            for with_specials in [false, true] {
                if with_specials {
                    for (slot, special) in data.iter_mut().step_by(3).zip(specials) {
                        *slot = special;
                    }
                }
                // A norm reads the data alone, and no constructor makes
                // the empty tensor the sum is defined on all the same.
                let t = Tensor {
                    shape: Shape::scalar(),
                    data: data.clone(),
                };
                let want = norm2_sq_by_definition(&data);
                assert_eq!(t.norm2_sq().to_bits(), want.to_bits(), "n={n}");
                assert_eq!(t.norm2().to_bits(), want.sqrt().to_bits(), "n={n}");
                // The order of the adds moves the sum by rounding only.
                let serial: f64 = data.iter().map(|x| *x as f64 * *x as f64).sum();
                assert!(
                    (want - serial).abs() <= 1e-12 * serial,
                    "n={n}: {want} vs {serial}"
                );
            }
        }
        let nan = Tensor::from_slice(&[1.0, f32::NAN, 2.0]);
        assert!(nan.norm2_sq().is_nan() && nan.norm2().is_nan());
        let inf = Tensor::from_slice(&[1.0, f32::NEG_INFINITY, 2.0]);
        assert_eq!(inf.norm2(), f64::INFINITY);
    }

    #[test]
    fn dot_and_distance() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.dot(&b), 11.0);
        assert!((a.l2_distance(&b) - (8.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn randn_has_reasonable_moments() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Tensor::randn(&mut rng, &[10_000]);
        let mean = t.sum() / t.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        let var = t.norm2_sq() / t.len() as f64;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn top_k_selects_largest_magnitudes() {
        let t = Tensor::from_slice(&[0.1, -9.0, 3.0, 0.0, -2.5, 8.0]);
        let idx = t.top_k_indices(3);
        assert_eq!(idx, vec![1, 2, 5]);
    }

    #[test]
    fn top_k_full_returns_all() {
        let t = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(t.top_k_indices(2), vec![0, 1]);
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_slice(&[1.0, 2.0]);
        t[0] = 5.0;
        assert_eq!(t[0], 5.0);
        assert_eq!(t[1], 2.0);
    }

    #[test]
    fn display_shows_shape() {
        assert_eq!(Tensor::zeros(&[2, 3]).to_string(), "Tensor<2x3>");
    }
}
