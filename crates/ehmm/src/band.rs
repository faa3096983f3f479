//! Banded storage for the pairwise posteriors Γ.
//!
//! The paper's tridiagonal prior makes `A^Δ` banded with bandwidth Δ, and
//! a step's pairwise posterior `Γ[i][j] ∝ α(i)·A^Δ(i, j)·e(j)·β(j)` inherits
//! that band: every cell with `|i − j| > Δ` is a structural zero. With
//! chunk gaps of 0–2 δ-intervals, a dense N×N matrix per step is more than
//! 95% zeros, so [`BandMatrix`] stores only the band.

use std::ops::Range;

/// A square `N × N` matrix whose cells with `|i − j| > b` are zero, stored
/// as its `N × (2b+1)` band.
///
/// Row `i` of the band holds columns `i − b ..= i + b`; cells whose column
/// falls outside `0..N` are padding, never read by [`Self::get`].
/// [`Self::get`] reads exactly what the dense matrix would: the stored
/// value inside the band and `0.0` outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix {
    num_states: usize,
    bandwidth: usize,
    data: Vec<f64>,
}

impl BandMatrix {
    /// An `N × N` matrix of zeros with bandwidth `b`.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero or `bandwidth >= num_states` (a
    /// bandwidth of `N − 1` already covers every cell).
    pub(crate) fn zeros(num_states: usize, bandwidth: usize) -> Self {
        Self::check_shape(num_states, bandwidth);
        Self {
            num_states,
            bandwidth,
            data: vec![0.0; num_states * (2 * bandwidth + 1)],
        }
    }

    /// Wraps an existing band buffer — the reconstruction path for
    /// posteriors restored from a persistent store. `data` is row-major
    /// `N × (2b+1)`, as [`Self::as_slice`] returns it.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero, if `bandwidth >= num_states` (a
    /// bandwidth of `N − 1` already covers every cell), or if
    /// `data.len() != num_states * (2 * bandwidth + 1)`.
    pub fn from_vec(num_states: usize, bandwidth: usize, data: Vec<f64>) -> Self {
        Self::check_shape(num_states, bandwidth);
        assert_eq!(
            data.len(),
            num_states * (2 * bandwidth + 1),
            "band buffer length must equal num_states * (2 * bandwidth + 1)"
        );
        Self {
            num_states,
            bandwidth,
            data,
        }
    }

    fn check_shape(num_states: usize, bandwidth: usize) {
        assert!(num_states > 0, "BandMatrix must have at least one state");
        assert!(
            bandwidth < num_states,
            "bandwidth {bandwidth} must be below the state count {num_states}"
        );
    }

    /// Number of rows (and columns) of the matrix.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Largest `|i − j|` a stored cell may have.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Entry `(i, j)`: the stored cell inside the band, `0.0` outside it.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.num_states && j < self.num_states,
            "({i}, {j}) out of range"
        );
        if i.abs_diff(j) > self.bandwidth {
            return 0.0;
        }
        self.data[i * self.width() + j + self.bandwidth - i]
    }

    /// The columns row `i` stores (equivalently, by symmetry of the band,
    /// the rows column `i` stores): `i − b ..= i + b` clamped to `0..N`.
    #[inline]
    pub(crate) fn columns(&self, i: usize) -> Range<usize> {
        i.saturating_sub(self.bandwidth)..self.num_states.min(i + self.bandwidth + 1)
    }

    /// The stored cells of row `i`, one per column of [`Self::columns`].
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let range = self.row_range(i);
        &mut self.data[range]
    }

    fn row_range(&self, i: usize) -> Range<usize> {
        let columns = self.columns(i);
        let start = i * self.width() + columns.start + self.bandwidth - i;
        start..start + columns.len()
    }

    /// The whole band buffer, row-major `N × (2b+1)`, padding included.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn width(&self) -> usize {
        2 * self.bandwidth + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_zero_outside_the_band() {
        let mut m = BandMatrix::zeros(5, 1);
        for i in 0..5 {
            let columns = m.columns(i);
            for (slot, j) in m.row_mut(i).iter_mut().zip(columns) {
                *slot = (10 * i + j) as f64 + 1.0;
            }
        }
        for i in 0..5usize {
            for j in 0..5 {
                let expected = if i.abs_diff(j) <= 1 {
                    (10 * i + j) as f64 + 1.0
                } else {
                    0.0
                };
                assert_eq!(m.get(i, j).to_bits(), expected.to_bits(), "({i}, {j})");
            }
        }
        assert_eq!(m.columns(0), 0..2);
        assert_eq!(m.columns(4), 3..5);
        assert_eq!(m.as_slice().len(), 15);
    }

    #[test]
    fn full_bandwidth_covers_every_cell() {
        let m = BandMatrix::from_vec(3, 2, (0..15).map(f64::from).collect());
        assert_eq!(m.columns(0), 0..3);
        let dense: Vec<f64> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| m.get(i, j))
            .collect();
        assert_eq!(dense, [2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "below the state count")]
    fn rejects_a_bandwidth_at_the_state_count() {
        let _ = BandMatrix::zeros(3, 3);
    }

    #[test]
    #[should_panic(expected = "band buffer length")]
    fn from_vec_rejects_mismatched_lengths() {
        let _ = BandMatrix::from_vec(3, 1, vec![0.0; 8]);
    }
}
