//! Property-based tests of the statistics substrate.

use logdep_stats::contingency::Table2x2;
use logdep_stats::order_stats::{median_ci, quantile_ci};
use logdep_stats::sampling::Sampler;
use logdep_stats::wilcoxon::{signed_rank, Alternative};
use logdep_stats::{binomial, chi2, descriptive, normal, regression, tdist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn finite_sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn median_ci_brackets_the_sample_median(xs in finite_sample(), level in 0.5..0.999f64) {
        let ci = median_ci(&xs, level).unwrap();
        let med = descriptive::median(&xs).unwrap();
        prop_assert!(ci.lower <= med + 1e-9);
        prop_assert!(med <= ci.upper + 1e-9);
        prop_assert!(ci.lower <= ci.upper);
        // Coverage can legitimately be 0 for tiny samples (n = 1: the
        // interval [x, x] has zero probability of containing the true
        // median of a continuous distribution).
        prop_assert!(ci.achieved_level >= 0.0 && ci.achieved_level <= 1.0);
    }

    #[test]
    fn quantile_ci_bounds_are_sample_elements(
        xs in finite_sample(),
        q in 0.01..0.99f64,
    ) {
        let ci = quantile_ci(&xs, q, 0.9).unwrap();
        prop_assert!(xs.contains(&ci.lower));
        prop_assert!(xs.contains(&ci.upper));
        prop_assert!(ci.lower_rank >= 1 && ci.upper_rank <= xs.len());
    }

    #[test]
    fn wider_level_never_narrows_the_ci(xs in prop::collection::vec(-1e3..1e3f64, 5..100)) {
        let narrow = median_ci(&xs, 0.80).unwrap();
        let wide = median_ci(&xs, 0.99).unwrap();
        prop_assert!(wide.lower <= narrow.lower + 1e-12);
        prop_assert!(wide.upper >= narrow.upper - 1e-12);
    }

    #[test]
    fn binomial_cdf_is_monotone(n in 1u64..500, p in 0.0..1.0f64) {
        let mut prev = 0.0;
        for k in 0..=n.min(60) {
            let c = binomial::cdf(n, p, k).unwrap();
            prop_assert!(c >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn binomial_quantile_inverts_cdf(n in 1u64..300, p in 0.01..0.99f64, q in 0.01..0.99f64) {
        let k = binomial::quantile(n, p, q).unwrap();
        prop_assert!(binomial::cdf(n, p, k).unwrap() >= q - 1e-12);
        if k > 0 {
            prop_assert!(binomial::cdf(n, p, k - 1).unwrap() < q + 1e-9);
        }
    }

    #[test]
    fn normal_quantile_round_trips(p in 1e-6..0.999999f64) {
        let x = normal::quantile(p).unwrap();
        prop_assert!((normal::cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn chi2_cdf_sf_complement(x in 0.0..200.0f64, df in 0.5..50.0f64) {
        let c = chi2::cdf(x, df).unwrap();
        let s = chi2::sf(x, df).unwrap();
        prop_assert!((c + s - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    #[test]
    fn tdist_symmetry(t in -30.0..30.0f64, df in 1.0..100.0f64) {
        let a = tdist::cdf(t, df).unwrap();
        let b = tdist::cdf(-t, df).unwrap();
        prop_assert!((a + b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g2_and_x2_nonnegative_and_zero_iff_independent(
        o11 in 1u64..500, o12 in 1u64..500, o21 in 1u64..500, o22 in 1u64..500,
    ) {
        let t = Table2x2::new(o11, o12, o21, o22);
        let g2 = t.g2().unwrap();
        let x2 = t.pearson_x2().unwrap();
        prop_assert!(g2 >= -1e-9);
        prop_assert!(x2 >= -1e-9);
        // Proportional tables have statistic ~0.
        let prop_table = Table2x2::new(o11, o12, o11 * 3, o12 * 3);
        prop_assert!(prop_table.g2().unwrap() < 1e-6);
    }

    #[test]
    fn from_marginals_round_trips(
        o11 in 0u64..200, o12 in 0u64..200, o21 in 0u64..200, o22 in 0u64..200,
    ) {
        let t = Table2x2::new(o11, o12, o21, o22);
        if t.n() > 0 {
            let back = Table2x2::from_marginals(
                t.o11,
                t.col_sums().0,
                t.row_sums().0,
                t.n(),
            ).unwrap();
            prop_assert_eq!(t, back);
        }
    }

    #[test]
    fn wilcoxon_p_in_unit_interval_and_sign_symmetric(
        d in prop::collection::vec(-100.0..100.0f64, 1..40),
    ) {
        prop_assume!(d.iter().any(|&x| x != 0.0));
        let p = signed_rank(&d, Alternative::TwoSided).unwrap().p_value;
        prop_assert!(p > 0.0 && p <= 1.0);
        let neg: Vec<f64> = d.iter().map(|x| -x).collect();
        let pn = signed_rank(&neg, Alternative::TwoSided).unwrap().p_value;
        prop_assert!((p - pn).abs() < 1e-9, "two-sided p must be sign-symmetric");
    }

    #[test]
    fn regression_residuals_orthogonal_to_x(
        pts in prop::collection::vec((-100.0..100.0f64, -100.0..100.0f64), 3..80),
    ) {
        let x: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pts.iter().map(|p| p.1).collect();
        prop_assume!(x.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6));
        let fit = regression::linear_fit(&x, &y).unwrap();
        let dot: f64 = fit.residuals.iter().zip(&x).map(|(r, xi)| r * xi).sum();
        let scale: f64 = x.iter().map(|v| v * v).sum::<f64>().max(1.0);
        prop_assert!(dot.abs() / scale < 1e-6, "residuals not orthogonal: {dot}");
    }
}

proptest! {
    #[test]
    fn subsample_picks_what_choose_multiple_picks(
        len in 1usize..2_000,
        fraction in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let count = ((len as f64 * fraction) as usize).min(len - 1);
        // Same seed, same `gen_range(i..len)` draws: the sparse shuffle
        // must return the dense one's picks in the dense one's order.
        let xs: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let dense: Vec<u32> = xs
            .choose_multiple(&mut StdRng::seed_from_u64(seed), count)
            .copied()
            .collect();
        let sparse = Sampler::from_seed(seed).subsample(&xs, count);
        prop_assert_eq!(sparse, dense);
    }
}
