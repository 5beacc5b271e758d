//! Learned execution-time models: how robust is pruning to PET error?
//!
//! The paper assumes the PET matrix is given (measured offline, §V-B).
//! A real serverless platform must *learn* it from observed executions,
//! so its early estimates are noisy. This module builds such learned
//! matrices — histograms over `k` observations per (machine type, task
//! type) cell, exactly the estimator a platform would bootstrap — plus a
//! systematically miscalibrated variant, and the builder's
//! belief-vs-truth split (`GatewayBuilder::truth`) measures what the
//! error costs. The `model_error` bench bin sweeps `k`.

use taskprune_model::{MachineTypeId, PetMatrix, TaskTypeId};
use taskprune_prob::rng::{derive_seed, Xoshiro256PlusPlus};
use taskprune_prob::{Histogram, Pmf};

/// Builds a PET matrix learned from `samples_per_cell` observed
/// executions per cell, drawn from `truth` (the platform watching its
/// own completions). Same shape and bin width as the truth matrix.
pub fn learn_from_observations(
    truth: &PetMatrix,
    samples_per_cell: usize,
    seed: u64,
) -> PetMatrix {
    assert!(samples_per_cell > 0, "need at least one observation");
    let bin_spec = truth.bin_spec();
    let mut entries =
        Vec::with_capacity(truth.n_machine_types() * truth.n_task_types());
    for m in 0..truth.n_machine_types() {
        for t in 0..truth.n_task_types() {
            let machine = MachineTypeId(m as u16);
            let task = TaskTypeId(t as u16);
            let mut rng = Xoshiro256PlusPlus::new(derive_seed(
                seed,
                (m as u64) << 32 | t as u64,
            ));
            let mut hist = Histogram::new(bin_spec.width() as f64)
                .expect("positive bin width");
            for _ in 0..samples_per_cell {
                let d = truth.sample_duration(machine, task, &mut rng);
                hist.add(d.ticks() as f64);
            }
            entries.push(hist.to_pmf().expect("at least one sample"));
        }
    }
    PetMatrix::new(
        bin_spec,
        truth.n_machine_types(),
        truth.n_task_types(),
        entries,
    )
}

/// Builds a systematically miscalibrated belief: every execution-time
/// distribution stretched by `factor` (> 1 = pessimistic belief, < 1 =
/// optimistic). Bin mass moves to `round(bin · factor)`.
pub fn miscalibrate(truth: &PetMatrix, factor: f64) -> PetMatrix {
    assert!(
        factor > 0.0 && factor.is_finite(),
        "factor must be positive"
    );
    let mut entries =
        Vec::with_capacity(truth.n_machine_types() * truth.n_task_types());
    for m in 0..truth.n_machine_types() {
        for t in 0..truth.n_task_types() {
            let pet = truth.pet(MachineTypeId(m as u16), TaskTypeId(t as u16));
            let points: Vec<(u64, f64)> = pet
                .iter()
                .filter(|(_, p)| *p > 0.0)
                .map(|(b, p)| ((b as f64 * factor).round() as u64, p))
                .collect();
            entries.push(
                Pmf::from_points(&points).expect("non-empty stretched PMF"),
            );
        }
    }
    PetMatrix::new(
        truth.bin_spec(),
        truth.n_machine_types(),
        truth.n_task_types(),
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskprune_model::BinSpec;

    fn truth() -> PetMatrix {
        PetMatrix::new(
            BinSpec::new(100),
            2,
            2,
            vec![
                Pmf::from_points(&[(2, 0.5), (6, 0.5)]).unwrap(),
                Pmf::point_mass(4),
                Pmf::from_points(&[(1, 0.25), (3, 0.75)]).unwrap(),
                Pmf::point_mass(9),
            ],
        )
    }

    #[test]
    fn learned_matrix_has_truth_shape() {
        let learned = learn_from_observations(&truth(), 50, 1);
        assert_eq!(learned.n_machine_types(), 2);
        assert_eq!(learned.n_task_types(), 2);
        assert_eq!(learned.bin_spec(), truth().bin_spec());
    }

    #[test]
    fn learning_converges_with_samples() {
        let truth = truth();
        let few = learn_from_observations(&truth, 3, 7);
        let many = learn_from_observations(&truth, 5_000, 7);
        let cell =
            |p: &PetMatrix| p.expected_bins(MachineTypeId(0), TaskTypeId(0));
        let true_mean = cell(&truth);
        let err_many = (cell(&many) - true_mean).abs();
        // 5 000 observations pin the mean to within a small fraction of
        // a bin; 3 observations usually do not (not asserted — they may
        // get lucky — but the converged error must be tiny).
        assert!(err_many < 0.1, "err {err_many}");
        let _ = few;
    }

    #[test]
    fn learning_is_deterministic_per_seed() {
        let truth = truth();
        let a = learn_from_observations(&truth, 20, 5);
        let b = learn_from_observations(&truth, 20, 5);
        assert_eq!(a, b);
        let c = learn_from_observations(&truth, 20, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn miscalibration_scales_expectations() {
        let truth = truth();
        let pessimistic = miscalibrate(&truth, 2.0);
        let optimistic = miscalibrate(&truth, 0.5);
        for m in 0..2u16 {
            for t in 0..2u16 {
                let base = truth.expected_bins(MachineTypeId(m), TaskTypeId(t));
                let hi =
                    pessimistic.expected_bins(MachineTypeId(m), TaskTypeId(t));
                let lo =
                    optimistic.expected_bins(MachineTypeId(m), TaskTypeId(t));
                assert!((hi - base * 2.0).abs() <= 0.5, "{hi} vs {base}");
                assert!((lo - base * 0.5).abs() <= 0.5, "{lo} vs {base}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn miscalibrate_rejects_zero_factor() {
        miscalibrate(&truth(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn learning_needs_samples() {
        learn_from_observations(&truth(), 0, 1);
    }
}
