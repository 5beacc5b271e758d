//! Property-based tests for the probability substrate.
//!
//! These pin down the algebraic invariants the simulator relies on:
//! convolution conserves and never invents probability mass, CDFs are
//! monotone, the dot-product chance-of-success query agrees with the
//! explicit convolution, and conditioning renormalises correctly.

use proptest::prelude::*;
use taskprune_prob::convolve::{convolve_direct, convolve_fft};
use taskprune_prob::{convolve_into, Cdf, ConvScratch, Pmf};

/// Strategy: a normalised PMF with 1..=12 support points in bins 0..=600.
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec((0u64..600, 1u32..1000), 1..12).prop_map(|pts| {
        let points: Vec<(u64, f64)> =
            pts.into_iter().map(|(b, w)| (b, w as f64)).collect();
        let mut pmf = Pmf::from_points(&points).expect("non-empty");
        pmf.normalise().expect("positive mass");
        pmf
    })
}

/// Strategy: a PMF that may carry tail mass (post-truncation).
fn arb_truncated_pmf() -> impl Strategy<Value = Pmf> {
    (arb_pmf(), 0u64..650).prop_map(|(mut pmf, horizon)| {
        pmf.truncate_to_horizon(horizon);
        pmf
    })
}

proptest! {
    #[test]
    fn convolution_conserves_mass(a in arb_pmf(), b in arb_pmf()) {
        let c = convolve_direct(&a, &b);
        prop_assert!((c.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_conserves_mass_with_tails(
        a in arb_truncated_pmf(),
        b in arb_truncated_pmf()
    ) {
        let c = convolve_direct(&a, &b);
        prop_assert!((c.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_expectation_adds(a in arb_pmf(), b in arb_pmf()) {
        let c = convolve_direct(&a, &b);
        let expected = a.expectation() + b.expectation();
        prop_assert!((c.expectation() - expected).abs() < 1e-6);
    }

    #[test]
    fn convolution_support_bounds(a in arb_pmf(), b in arb_pmf()) {
        let c = convolve_direct(&a, &b);
        prop_assert_eq!(c.min_bin(), a.min_bin() + b.min_bin());
        prop_assert_eq!(c.max_bin(), a.max_bin() + b.max_bin());
    }

    #[test]
    fn fft_agrees_with_direct(a in arb_pmf(), b in arb_pmf()) {
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        prop_assert_eq!(d.min_bin(), f.min_bin());
        for bin in d.min_bin()..=d.max_bin() {
            prop_assert!((d.prob_at(bin) - f.prob_at(bin)).abs() < 1e-9,
                "bin {}: {} vs {}", bin, d.prob_at(bin), f.prob_at(bin));
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded(pmf in arb_truncated_pmf()) {
        let cdf = Cdf::from_pmf(&pmf);
        let mut prev = 0.0;
        for bin in 0..=pmf.max_bin() + 5 {
            let v = cdf.at(bin);
            prop_assert!(v >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn success_probability_monotone_in_deadline(
        pmf in arb_truncated_pmf(),
        d1 in 0u64..700,
        d2 in 0u64..700
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(
            pmf.success_probability(lo) <= pmf.success_probability(hi) + 1e-12
        );
    }

    #[test]
    fn conditioning_renormalises(pmf in arb_pmf(), cut in 0u64..700) {
        let cond = pmf.condition_greater_than(cut);
        prop_assert!((cond.mass() - 1.0).abs() < 1e-9);
        prop_assert!(cond.min_bin() > cut || cut < pmf.min_bin());
    }

    #[test]
    fn truncation_preserves_in_horizon_cdf(
        pmf in arb_pmf(),
        horizon in 0u64..700
    ) {
        let mut truncated = pmf.clone();
        truncated.truncate_to_horizon(horizon);
        for bin in 0..=horizon {
            prop_assert!(
                (truncated.cdf_at(bin) - pmf.cdf_at(bin)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf(pmf in arb_pmf(), q in 0.0f64..1.0) {
        if let Some(bin) = pmf.quantile(q) {
            // CDF at the quantile covers q; CDF just before does not.
            prop_assert!(pmf.cdf_at(bin) + 1e-9 >= q);
            if bin > pmf.min_bin() {
                prop_assert!(pmf.cdf_at(bin - 1) < q + 1e-9);
            }
        }
    }

    #[test]
    fn sample_with_lands_in_support(pmf in arb_pmf(), u in 0.0f64..1.0) {
        if let Some(bin) = pmf.sample_with(u) {
            prop_assert!(bin >= pmf.min_bin() && bin <= pmf.max_bin());
            prop_assert!(pmf.prob_at(bin) > 0.0 || pmf.support_len() == 1);
        }
    }

    #[test]
    fn mixture_mass_is_one(
        a in arb_pmf(),
        b in arb_pmf(),
        w in 0.01f64..10.0
    ) {
        let mix = Pmf::mixture(&[(w, &a), (1.0, &b)]).unwrap();
        prop_assert!((mix.mass() - 1.0).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Arena (in-place / scratch) APIs: every `_into` variant must be
    // indistinguishable from its allocating counterpart — bit-for-bit,
    // because the incremental queue chains rely on exact equality with
    // from-scratch rebuilds. Buffers are deliberately pre-dirtied with
    // unrelated state to prove the reuse path fully overwrites them.
    // ------------------------------------------------------------------

    #[test]
    fn convolve_into_equals_convolve(
        a in arb_truncated_pmf(),
        b in arb_truncated_pmf(),
        dirty in arb_pmf()
    ) {
        let mut scratch = ConvScratch::new();
        let mut out = dirty; // reused buffer with unrelated contents
        convolve_into(&a, &b, &mut out, &mut scratch);
        let fresh = a.convolve(&b);
        prop_assert_eq!(&out, &fresh);
        prop_assert_eq!(
            out.tail_mass().to_bits(),
            fresh.tail_mass().to_bits()
        );
    }

    #[test]
    fn convolve_into_handles_pure_tail_operands(
        a in arb_pmf(),
        keep_bins in 0u64..5
    ) {
        // Truncate one operand into a pure-tail PMF (the all-tail edge
        // case fixed in PR 1) and check the arena path agrees.
        let mut tail_only = a.clone();
        let cut = a.min_bin().saturating_sub(keep_bins + 1);
        tail_only.truncate_to_horizon(cut);
        let mut scratch = ConvScratch::new();
        let mut out = Pmf::point_mass(3);
        convolve_into(&tail_only, &a, &mut out, &mut scratch);
        prop_assert_eq!(&out, &tail_only.convolve(&a));
        convolve_into(&a, &tail_only, &mut out, &mut scratch);
        prop_assert_eq!(&out, &a.convolve(&tail_only));
    }

    #[test]
    fn to_cdf_into_equals_to_cdf(
        pmf in arb_truncated_pmf(),
        dirty in arb_pmf()
    ) {
        let mut out = dirty.to_cdf(); // pre-dirtied buffer
        pmf.to_cdf_into(&mut out);
        prop_assert_eq!(&out, &pmf.to_cdf());
    }

    #[test]
    fn shift_into_equals_shift(
        pmf in arb_truncated_pmf(),
        bins in 0u64..1000,
        dirty in arb_pmf()
    ) {
        let mut out = dirty;
        pmf.shift_into(bins, &mut out);
        prop_assert_eq!(&out, &pmf.shift(bins));
    }

    #[test]
    fn condition_in_place_equals_allocating(
        pmf in arb_truncated_pmf(),
        cut in 0u64..700
    ) {
        let mut cond = pmf.clone();
        cond.condition_greater_than_in_place(cut);
        prop_assert_eq!(&cond, &pmf.condition_greater_than(cut));
    }

    #[test]
    fn set_point_mass_equals_point_mass(
        dirty in arb_truncated_pmf(),
        bin in 0u64..1000
    ) {
        let mut out = dirty;
        out.set_point_mass(bin);
        prop_assert_eq!(&out, &Pmf::point_mass(bin));
    }

    #[test]
    fn scratch_reuse_across_mixed_sizes_stays_exact(
        pmfs in prop::collection::vec(arb_truncated_pmf(), 2..6)
    ) {
        // One scratch + one rotating output across a chain of
        // convolutions of varying support sizes — the arena pattern the
        // machine queues use. Compare against the allocating fold.
        let mut scratch = ConvScratch::new();
        let mut acc = Pmf::point_mass(0);
        let mut out = Pmf::point_mass(0);
        let mut reference = Pmf::point_mass(0);
        for pmf in &pmfs {
            convolve_into(&acc, pmf, &mut out, &mut scratch);
            std::mem::swap(&mut acc, &mut out);
            reference = reference.convolve(pmf);
            prop_assert_eq!(&acc, &reference);
        }
    }
}
