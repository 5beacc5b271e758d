//! Cumulative distribution views of PMFs.
//!
//! Eq. 2's chance of success, `S(i,j) = P(PCT(i,j) ≤ δᵢ)` with
//! `PCT(i,j) = PET(i,j) ∗ PCT_tail(j)`, need not materialise the
//! convolution: with the queue tail kept as a [`Cdf`] it is the dot
//! product `S = Σ_x PET(x) · CDF_tail(δ − x)`, exact and as long as the
//! PET's support. The simulator's machine queues evaluate that sum in
//! their own Eq. 2 kernels over a [`Cdf`]'s dense window
//! ([`Cdf::dense_cum`]); this module only builds and reads the
//! cumulative view.

use crate::pmf::Pmf;
use crate::Bin;
use serde::{Deserialize, Serialize};

/// A cumulative distribution over integer bins.
///
/// `cum[k]` is `P(X ≤ offset + k)`. Before the window the CDF is 0; at and
/// beyond the window end it is `window_mass` (which is `1 − tail_mass` of
/// the originating PMF — tail mass never completes within the horizon).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    offset: Bin,
    cum: Vec<f64>,
    window_mass: f64,
}

impl Cdf {
    /// Builds the cumulative view of `pmf`.
    pub fn from_pmf(pmf: &Pmf) -> Self {
        let mut cdf = Self {
            offset: 0,
            cum: Vec::with_capacity(pmf.support_len()),
            window_mass: 0.0,
        };
        cdf.assign_from_pmf(pmf);
        cdf
    }

    /// Rebuilds `self` as the cumulative view of `pmf`, reusing the
    /// existing allocation (the in-place counterpart of
    /// [`Cdf::from_pmf`], exposed as [`Pmf::to_cdf_into`]).
    pub(crate) fn assign_from_pmf(&mut self, pmf: &Pmf) {
        self.cum.clear();
        let mut acc = 0.0;
        for &p in pmf.dense_probs() {
            acc += p;
            self.cum.push(acc);
        }
        self.offset = pmf.min_bin();
        self.window_mass = acc;
    }

    /// The degenerate CDF of a point mass: 0 before `bin`, 1 from `bin` on.
    pub fn point_mass(bin: Bin) -> Self {
        Self {
            offset: bin,
            cum: vec![1.0],
            window_mass: 1.0,
        }
    }

    /// `P(X ≤ bin)`.
    #[inline]
    pub fn at(&self, bin: Bin) -> f64 {
        if bin < self.offset {
            return 0.0;
        }
        let idx = (bin - self.offset) as usize;
        if idx >= self.cum.len() {
            self.window_mass
        } else {
            self.cum[idx]
        }
    }

    /// First bin of the represented window.
    #[inline]
    pub fn min_bin(&self) -> Bin {
        self.offset
    }

    /// Last bin of the represented window; the CDF is flat afterwards.
    #[inline]
    pub fn max_bin(&self) -> Bin {
        self.offset + self.cum.len() as Bin - 1
    }

    /// Total mass within the window (`1 −` tail mass of the source PMF).
    #[inline]
    pub fn window_mass(&self) -> f64 {
        self.window_mass
    }

    /// Read-only view of the cumulative window: entry `k` is
    /// `P(X ≤ min_bin + k)`, exactly as [`Cdf::at`] reads it.
    #[inline]
    pub fn dense_cum(&self) -> &[f64] {
        &self.cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::Pmf;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn cdf_matches_pmf_cdf() {
        let pmf = Pmf::from_points(&[(2, 0.2), (4, 0.3), (7, 0.5)]).unwrap();
        let cdf = pmf.to_cdf();
        for bin in 0..12 {
            assert!(
                approx(cdf.at(bin), pmf.cdf_at(bin)),
                "mismatch at bin {bin}"
            );
        }
        assert!(approx(cdf.at(1_000_000), 1.0));
    }

    #[test]
    fn point_mass_cdf_is_step() {
        let cdf = Cdf::point_mass(5);
        assert!(approx(cdf.at(4), 0.0));
        assert!(approx(cdf.at(5), 1.0));
        assert!(approx(cdf.at(6), 1.0));
    }

    #[test]
    fn window_mass_excludes_tail() {
        let mut pmf = Pmf::from_points(&[(1, 0.5), (100, 0.5)]).unwrap();
        pmf.truncate_to_horizon(10);
        let cdf = pmf.to_cdf();
        assert!(approx(cdf.window_mass(), 0.5));
        assert!(approx(cdf.at(1_000_000), 0.5));
    }
}
