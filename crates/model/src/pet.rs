//! The Probabilistic Execution Time (PET) matrix.
//!
//! §II of the paper: "the stochastic execution time of each task type on
//! each machine type is modeled as a Probability Mass Function … a PET
//! matrix is used to represent execution time distribution of each task
//! type on each machine type". The matrix is the single source of truth
//! for three consumers:
//!
//! * the **simulator** samples actual execution durations from it,
//! * **mapping heuristics** use its expectation projection (the classic
//!   deterministic ETC matrix) for their completion-time estimates,
//! * the **pruner** convolves its entries to compute chances of success.

use crate::machine::MachineTypeId;
use crate::task::TaskTypeId;
use crate::time::{BinSpec, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use taskprune_prob::Pmf;

/// PET matrix: one execution-time PMF per (machine type, task type) pair.
///
/// PMF bins are *relative durations* under the matrix's [`BinSpec`]; a
/// value in bin `b` means the execution takes between `b·width` and
/// `(b+1)·width` ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PetMatrix {
    bin_spec: BinSpec,
    n_machine_types: usize,
    n_task_types: usize,
    /// Row-major: `entries[machine_type * n_task_types + task_type]`.
    entries: Vec<Pmf>,
    /// Cached expectations in bins, same layout.
    expected_bins: Vec<f64>,
    /// Cached expectations in ticks (bin midpoints), same layout.
    expected_ticks: Vec<f64>,
}

impl PetMatrix {
    /// Builds a matrix from a row-major vector of PMFs
    /// (`machine_type`-major, `task_type`-minor).
    ///
    /// # Panics
    /// If `entries.len() != n_machine_types * n_task_types`.
    pub fn new(
        bin_spec: BinSpec,
        n_machine_types: usize,
        n_task_types: usize,
        entries: Vec<Pmf>,
    ) -> Self {
        assert_eq!(
            entries.len(),
            n_machine_types * n_task_types,
            "PET matrix shape mismatch"
        );
        let expected_bins: Vec<f64> =
            entries.iter().map(|p| p.expectation()).collect();
        let width = bin_spec.width() as f64;
        let expected_ticks =
            expected_bins.iter().map(|&e| (e + 0.5) * width).collect();
        Self {
            bin_spec,
            n_machine_types,
            n_task_types,
            entries,
            expected_bins,
            expected_ticks,
        }
    }

    /// The tick ↔ bin mapping all entries use.
    #[inline]
    pub fn bin_spec(&self) -> BinSpec {
        self.bin_spec
    }

    /// Number of machine types (columns of the paper's matrix).
    pub fn n_machine_types(&self) -> usize {
        self.n_machine_types
    }

    /// Number of task types (rows of the paper's matrix).
    pub fn n_task_types(&self) -> usize {
        self.n_task_types
    }

    #[inline]
    fn index(&self, machine: MachineTypeId, task: TaskTypeId) -> usize {
        let (m, t) = (machine.0 as usize, task.0 as usize);
        assert!(m < self.n_machine_types, "machine type out of range");
        assert!(t < self.n_task_types, "task type out of range");
        m * self.n_task_types + t
    }

    /// The execution-time PMF of `task` on `machine`.
    #[inline]
    pub fn pet(&self, machine: MachineTypeId, task: TaskTypeId) -> &Pmf {
        &self.entries[self.index(machine, task)]
    }

    /// Expected execution time in bins — the deterministic ETC projection
    /// heuristics like MET/MCT/MM consume.
    #[inline]
    pub fn expected_bins(
        &self,
        machine: MachineTypeId,
        task: TaskTypeId,
    ) -> f64 {
        self.expected_bins[self.index(machine, task)]
    }

    /// Expected execution time in ticks (bin midpoints).
    #[inline]
    pub fn expected_ticks(
        &self,
        machine: MachineTypeId,
        task: TaskTypeId,
    ) -> f64 {
        self.expected_ticks[self.index(machine, task)]
    }

    /// Samples an actual execution duration in ticks: draws a bin from
    /// the PMF, then a uniform offset within the bin. This is the ground
    /// truth the simulator executes; the scheduler sees only the PMF.
    pub fn sample_duration<R: Rng + ?Sized>(
        &self,
        machine: MachineTypeId,
        task: TaskTypeId,
        rng: &mut R,
    ) -> SimTime {
        let pmf = self.pet(machine, task);
        let bin = pmf
            .sample_with(rng.random::<f64>())
            .unwrap_or_else(|| pmf.max_bin());
        let offset = rng.random_range(0..self.bin_spec.width());
        // Durations of zero ticks would complete instantaneously and
        // confuse event ordering; floor at one tick.
        SimTime((bin * self.bin_spec.width() + offset).max(1))
    }

    /// Mean expected execution time of a task type across all machine
    /// types, in ticks — `avg_i` in the paper's deadline equation (Eq. 4).
    pub fn mean_expected_ticks_across_machines(&self, task: TaskTypeId) -> f64 {
        let total: f64 = (0..self.n_machine_types)
            .map(|m| self.expected_ticks(MachineTypeId(m as u16), task))
            .sum();
        total / self.n_machine_types as f64
    }

    /// Mean expected execution time over all task and machine types, in
    /// ticks — `avg_all` in Eq. 4.
    pub fn mean_expected_ticks_overall(&self) -> f64 {
        let total: f64 = (0..self.n_task_types)
            .map(|t| {
                self.mean_expected_ticks_across_machines(TaskTypeId(t as u16))
            })
            .sum();
        total / self.n_task_types as f64
    }

    /// The machine types sorted by expected execution time for `task`,
    /// fastest first. Used by KPB's "K percent best" subset.
    pub fn machines_by_affinity(&self, task: TaskTypeId) -> Vec<MachineTypeId> {
        let mut order: Vec<MachineTypeId> = (0..self.n_machine_types)
            .map(|m| MachineTypeId(m as u16))
            .collect();
        order.sort_by(|&a, &b| {
            self.expected_bins(a, task)
                .partial_cmp(&self.expected_bins(b, task))
                .expect("expectations are finite")
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_prob::rng::Xoshiro256PlusPlus;

    fn tiny_matrix() -> PetMatrix {
        // 2 machine types × 2 task types.
        let spec = BinSpec::new(100);
        let entries = vec![
            Pmf::point_mass(2),                               // m0,t0
            Pmf::from_points(&[(4, 0.5), (8, 0.5)]).unwrap(), // m0,t1
            Pmf::from_points(&[(1, 0.5), (3, 0.5)]).unwrap(), // m1,t0
            Pmf::point_mass(10),                              // m1,t1
        ];
        PetMatrix::new(spec, 2, 2, entries)
    }

    #[test]
    fn lookup_and_expectations() {
        let m = tiny_matrix();
        assert_eq!(m.expected_bins(MachineTypeId(0), TaskTypeId(0)), 2.0);
        assert_eq!(m.expected_bins(MachineTypeId(0), TaskTypeId(1)), 6.0);
        assert_eq!(m.expected_bins(MachineTypeId(1), TaskTypeId(0)), 2.0);
        // Ticks use bin midpoints: (2 + 0.5) * 100.
        assert_eq!(m.expected_ticks(MachineTypeId(0), TaskTypeId(0)), 250.0);
    }

    #[test]
    fn eq4_aggregates() {
        let m = tiny_matrix();
        // avg_t0 = (250 + 250)/2 ; avg_t1 = (650 + 1050)/2.
        assert_eq!(m.mean_expected_ticks_across_machines(TaskTypeId(0)), 250.0);
        assert_eq!(m.mean_expected_ticks_across_machines(TaskTypeId(1)), 850.0);
        assert_eq!(m.mean_expected_ticks_overall(), 550.0);
    }

    #[test]
    fn affinity_ordering() {
        let m = tiny_matrix();
        // For t1: m0 expects 6 bins, m1 expects 10 → m0 first.
        assert_eq!(
            m.machines_by_affinity(TaskTypeId(1)),
            vec![MachineTypeId(0), MachineTypeId(1)]
        );
    }

    #[test]
    fn sampled_durations_respect_support() {
        let m = tiny_matrix();
        let mut rng = Xoshiro256PlusPlus::new(5);
        for _ in 0..1000 {
            let d =
                m.sample_duration(MachineTypeId(0), TaskTypeId(0), &mut rng);
            // Point mass at bin 2 of width 100: duration in [200, 300).
            assert!((200..300).contains(&d.ticks()), "duration {}", d.ticks());
        }
    }

    #[test]
    fn sampled_duration_mean_tracks_expectation() {
        let m = tiny_matrix();
        let mut rng = Xoshiro256PlusPlus::new(6);
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| {
                m.sample_duration(MachineTypeId(0), TaskTypeId(1), &mut rng)
                    .ticks()
            })
            .sum();
        let mean = sum as f64 / n as f64;
        let expected = m.expected_ticks(MachineTypeId(0), TaskTypeId(1));
        assert!(
            (mean - expected).abs() < 15.0,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        PetMatrix::new(BinSpec::new(10), 2, 2, vec![Pmf::point_mass(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lookup_panics() {
        tiny_matrix().pet(MachineTypeId(9), TaskTypeId(0));
    }
}
