//! Distribution-free confidence intervals for quantiles by order
//! statistics.
//!
//! This is the "robust order statistics method" (Le Boudec, *Performance
//! Evaluation of Computer and Communication Systems*) the paper uses
//! everywhere: for technique L1's median-distance test, for the 0.984-level
//! cross-day intervals of Figures 5/6/8, and for the 0.98-level intervals
//! of Table 2. The only hypothesis is that observations are independent;
//! no distributional shape is assumed.
//!
//! For a sample of size `n` sorted ascending and a target quantile `q`,
//! the interval `[x_(j), x_(k)]` (1-based ranks) covers the true quantile
//! with probability `P(j ≤ B ≤ k − 1)` where `B ~ Binomial(n, q)`. We pick
//! the symmetric-tail ranks: the largest `j` with `P(B < j) ≤ α/2` and the
//! smallest `k` with `P(B ≥ k) ≤ α/2`.

use crate::{binomial, error::check_level, error::check_no_nan, Result, StatsError};
use std::sync::OnceLock;

/// A confidence interval for a quantile, with the ranks that produced it
/// and the coverage actually achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileCi {
    /// Lower interval bound, `x_(lower_rank)`.
    pub lower: f64,
    /// Upper interval bound, `x_(upper_rank)`.
    pub upper: f64,
    /// 1-based rank of the lower bound in the sorted sample.
    pub lower_rank: usize,
    /// 1-based rank of the upper bound in the sorted sample.
    pub upper_rank: usize,
    /// Exact coverage probability of `[lower, upper]`.
    ///
    /// At least the requested level whenever the sample is large enough;
    /// otherwise the widest possible interval `[x_(1), x_(n)]` is returned
    /// and this field reports its (smaller) true coverage. Callers that
    /// need a guaranteed level must check this field.
    pub achieved_level: f64,
    /// Point estimate of the quantile (interpolated, type-7).
    pub point: f64,
}

/// Confidence interval for the `q`-quantile of `sample` at the given
/// two-sided confidence `level`.
///
/// The sample is copied and sorted; see [`quantile_ci_sorted`] to avoid
/// the copy when the data is already ordered.
pub fn quantile_ci(sample: &[f64], q: f64, level: f64) -> Result<QuantileCi> {
    check_no_nan(sample)?;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_ci_sorted(&sorted, q, level)
}

/// [`quantile_ci`] over data that is already sorted ascending.
///
/// Returns an error if the sample is empty, contains NaN, or is not
/// sorted. Callers that compute many intervals at one `(q, level)` share
/// the rank search through a [`CiRankTable`].
pub fn quantile_ci_sorted(sorted: &[f64], q: f64, level: f64) -> Result<QuantileCi> {
    check_sorted_sample(sorted, q, level)?;
    let ranks = ci_ranks(sorted.len() as u64, q, level)?;
    Ok(interval(sorted, ranks, q))
}

/// Memoized interval ranks for one `(q, level)`: the rank search of
/// [`quantile_ci_sorted`] depends only on the sample size `n`, so each
/// `n` up to `max_n` is searched at most once per table and every later
/// sample of that size only reads its two order statistics.
///
/// The cells are [`OnceLock`]s, so worker threads can share one table by
/// reference and fill it concurrently; a sample larger than `max_n` is
/// searched directly, uncached. Results are bit-identical to
/// [`quantile_ci_sorted`], errors included.
#[derive(Debug)]
pub struct CiRankTable {
    q: f64,
    level: f64,
    /// Indexed by sample size; cell 0 stays empty (empty samples error).
    ranks: Vec<OnceLock<Result<CiRanks>>>,
}

impl CiRankTable {
    /// A table for the `q`-quantile at confidence `level`, caching sample
    /// sizes `1..=max_n`. Invalid `q` or `level` are reported by
    /// [`CiRankTable::ci_sorted`], exactly as [`quantile_ci_sorted`]
    /// reports them.
    pub fn new(q: f64, level: f64, max_n: usize) -> Self {
        Self {
            q,
            level,
            ranks: (0..=max_n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// [`quantile_ci_sorted`]`(sorted, q, level)` for this table's `q`
    /// and `level`, with the rank search done once per sample size.
    pub fn ci_sorted(&self, sorted: &[f64]) -> Result<QuantileCi> {
        check_sorted_sample(sorted, self.q, self.level)?;
        let ranks = self.ranks(sorted.len())?;
        Ok(interval(sorted, ranks, self.q))
    }

    /// [`CiRankTable::ci_sorted`] of the sorted copy of `sample`, without
    /// sorting: the (at most four) order statistics the interval reads
    /// are moved into their sorted positions by selection, in O(n)
    /// expected time, and the rest of `sample` is left in unspecified
    /// order. Bit-identical to sorting first; the same errors except
    /// that the input need not be sorted.
    pub fn ci_select(&self, sample: &mut [f64]) -> Result<QuantileCi> {
        check_sample(sample, self.q, self.level)?;
        let ranks = self.ranks(sample.len())?;
        let (lo, hi) = type7_positions(sample.len(), self.q);
        let mut wanted = [
            (ranks.lower - 1) as usize,
            (ranks.upper - 1) as usize,
            lo,
            hi,
        ];
        wanted.sort_unstable();
        select_positions(sample, &wanted, 0);
        Ok(interval(sample, ranks, self.q))
    }

    /// The ranks for samples of size `n ≥ 1`, searched once per cell.
    fn ranks(&self, n: usize) -> Result<CiRanks> {
        let search = || ci_ranks(n as u64, self.q, self.level);
        match self.ranks.get(n) {
            Some(cell) => cell.get_or_init(search).clone(),
            None => search(),
        }
    }
}

/// Places the order statistics of the ascending absolute `positions`
/// (duplicates allowed) into `xs`, whose first element sits at absolute
/// position `offset`: select the middle position, then recurse into
/// the parts below and above it. Every value ends where a full sort by
/// `total_cmp` would put it.
fn select_positions(xs: &mut [f64], positions: &[usize], offset: usize) {
    let mid = positions.len() / 2;
    let Some(&at) = positions.get(mid) else {
        return;
    };
    let local = at - offset;
    let (below, _, above) = xs.select_nth_unstable_by(local, f64::total_cmp);
    let (left, right) = positions.split_at(mid);
    let lower = left.partition_point(|&p| p < at);
    let upper = right.partition_point(|&p| p <= at);
    select_positions(below, left.get(..lower).unwrap_or_default(), offset);
    select_positions(above, right.get(upper..).unwrap_or_default(), at + 1);
}

/// 1-based interval ranks `j ≤ k` and the exact coverage of `[x_(j), x_(k)]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CiRanks {
    lower: u64,
    upper: u64,
    achieved: f64,
}

/// The input checks of [`quantile_ci_sorted`] but sortedness, in its
/// error order.
fn check_sample(sample: &[f64], q: f64, level: f64) -> Result<()> {
    check_no_nan(sample)?;
    check_level(level)?;
    if !(q > 0.0 && q < 1.0) {
        return Err(StatsError::InvalidLevel(q));
    }
    if sample.is_empty() {
        return Err(StatsError::EmptySample);
    }
    Ok(())
}

/// The input checks of [`quantile_ci_sorted`], in its error order.
fn check_sorted_sample(sorted: &[f64], q: f64, level: f64) -> Result<()> {
    check_sample(sorted, q, level)?;
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return Err(StatsError::InvalidParameter {
            name: "sorted (input not ascending)",
            value: f64::NAN,
        });
    }
    Ok(())
}

/// The rank search: pure in `(n, q, level)` for `n ≥ 1`, `q` in (0, 1)
/// and a valid `level`.
fn ci_ranks(nn: u64, q: f64, level: f64) -> Result<CiRanks> {
    let alpha = 1.0 - level;

    // Largest rank j in 1..=n with P(B ≤ j−1) ≤ α/2 (falling back to 1 when
    // even P(B = 0) exceeds the tail budget). binomial::quantile gives a
    // starting hint; a short local walk finds the exact boundary.
    // Rank j is admissible when CDF(j−1) ≤ α/2: walk down while the
    // current j is inadmissible, then up while the next j is still fine.
    let mut j = binomial::quantile(nn, q, alpha / 2.0)?.clamp(0, nn - 1) + 1;
    while j > 1 && binomial::cdf(nn, q, j - 1)? > alpha / 2.0 {
        j -= 1;
    }
    while j < nn && binomial::cdf(nn, q, j)? <= alpha / 2.0 {
        j += 1;
    }

    // Smallest rank k in 1..=n with P(B ≥ k) ≤ α/2, i.e. CDF(k−1) ≥ 1−α/2
    // (falling back to n when unreachable).
    let mut k = binomial::quantile(nn, q, 1.0 - alpha / 2.0)?.clamp(0, nn - 1) + 1;
    while k < nn && binomial::cdf(nn, q, k - 1)? < 1.0 - alpha / 2.0 {
        k += 1;
    }
    while k > 1 && binomial::cdf(nn, q, k - 2)? >= 1.0 - alpha / 2.0 {
        k -= 1;
    }

    let (j, k) = if j <= k { (j, k) } else { (1, nn) };
    // Exact coverage of [x_(j), x_(k)]: with B ~ Binomial(n, q) counting
    // observations below the true quantile, X_(j) ≤ x_q ⇔ B ≥ j and
    // x_q ≤ X_(k) ⇔ B ≤ k−1, so coverage = P(j ≤ B ≤ k−1).
    let achieved = binomial::cdf(nn, q, k - 1)? - binomial::cdf(nn, q, j - 1)?;
    Ok(CiRanks {
        lower: j,
        upper: k,
        achieved,
    })
}

/// The interval of a checked, non-empty sample at `ranks`. Reads only
/// positions `ranks − 1` and the [`type7_positions`], which must hold
/// their order statistics.
fn interval(sorted: &[f64], ranks: CiRanks, q: f64) -> QuantileCi {
    QuantileCi {
        lower: sorted[(ranks.lower - 1) as usize],
        upper: sorted[(ranks.upper - 1) as usize],
        lower_rank: ranks.lower as usize,
        upper_rank: ranks.upper as usize,
        achieved_level: ranks.achieved,
        point: interpolated_quantile(sorted, q),
    }
}

/// Confidence interval for the median at the given level.
pub fn median_ci(sample: &[f64], level: f64) -> Result<QuantileCi> {
    quantile_ci(sample, 0.5, level)
}

/// [`median_ci`] over already-sorted data.
pub fn median_ci_sorted(sorted: &[f64], level: f64) -> Result<QuantileCi> {
    quantile_ci_sorted(sorted, 0.5, level)
}

/// Type-7 (linear interpolation) quantile point estimate of sorted data.
pub(crate) fn interpolated_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n as f64 - 1.0) * q;
    let (lo, hi) = type7_positions(n, q);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The 0-based positions `(lo, hi)` of the two order statistics a type-7
/// estimate of the `q`-quantile of `n ≥ 1` values interpolates between.
fn type7_positions(n: usize, q: f64) -> (usize, usize) {
    let lo = ((n as f64 - 1.0) * q).floor() as usize;
    (lo, (lo + 1).min(n - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ci_n7_is_min_max_at_0984() {
        // The paper's 0.984-level CI across 7 daily values is [min, max].
        let days = [0.66, 0.63, 0.73, 0.70, 0.68, 0.71, 0.65];
        let ci = median_ci(&days, 0.984).unwrap();
        assert_eq!(ci.lower, 0.63);
        assert_eq!(ci.upper, 0.73);
        assert_eq!((ci.lower_rank, ci.upper_rank), (1, 7));
        assert!((ci.achieved_level - 0.984_375).abs() < 1e-12);
    }

    #[test]
    fn median_ci_known_ranks_n100() {
        // Classical result: for n = 100 at 95 %, ranks are 40 and 61.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let ci = median_ci_sorted(&sorted, 0.95).unwrap();
        assert_eq!((ci.lower_rank, ci.upper_rank), (40, 61));
        assert!(ci.achieved_level >= 0.95);
        assert_eq!(ci.lower, 40.0);
        assert_eq!(ci.upper, 61.0);
    }

    #[test]
    fn coverage_meets_level_when_achievable() {
        for n in [10usize, 25, 47, 99, 500] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for &level in &[0.9, 0.95, 0.99] {
                let ci = median_ci_sorted(&sorted, level).unwrap();
                assert!(
                    ci.achieved_level >= level - 1e-12,
                    "n={n} level={level} achieved={}",
                    ci.achieved_level
                );
                assert!(ci.lower <= ci.point && ci.point <= ci.upper);
            }
        }
    }

    #[test]
    fn tiny_sample_returns_widest_interval() {
        let ci = median_ci(&[1.0, 2.0, 3.0], 0.99).unwrap();
        assert_eq!((ci.lower, ci.upper), (1.0, 3.0));
        // Widest achievable coverage for n = 3 is 1 − 2·(1/2)³ = 0.75.
        assert!((ci.achieved_level - 0.75).abs() < 1e-12);
        assert!(ci.achieved_level < 0.99);
    }

    #[test]
    fn nonmedian_quantile_ci() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        let ci = quantile_ci_sorted(&sorted, 0.9, 0.95).unwrap();
        // The 0.9-quantile of 1..=200 is ~180; interval must straddle it.
        assert!(ci.lower <= 180.0 && 180.0 <= ci.upper);
        assert!(ci.achieved_level >= 0.95);
        // Interval should be in the right region of the sample, not central.
        assert!(ci.lower_rank > 160 && ci.upper_rank <= 200);
    }

    #[test]
    fn unsorted_input_detected() {
        assert!(quantile_ci_sorted(&[3.0, 1.0, 2.0], 0.5, 0.95).is_err());
    }

    #[test]
    fn error_paths() {
        assert!(median_ci(&[], 0.95).is_err());
        assert!(median_ci(&[1.0, f64::NAN], 0.95).is_err());
        assert!(median_ci(&[1.0, 2.0], 0.0).is_err());
        assert!(median_ci(&[1.0, 2.0], 1.0).is_err());
        assert!(quantile_ci(&[1.0, 2.0], 0.0, 0.95).is_err());
        assert!(quantile_ci(&[1.0, 2.0], 1.0, 0.95).is_err());
    }

    #[test]
    fn point_estimate_is_type7_median() {
        let ci = median_ci(&[4.0, 1.0, 3.0, 2.0], 0.5).unwrap();
        assert_eq!(ci.point, 2.5);
        let ci = median_ci(&[5.0, 1.0, 3.0], 0.5).unwrap();
        assert_eq!(ci.point, 3.0);
    }

    #[test]
    fn monte_carlo_coverage_median() {
        // Empirical check: the CI should cover the true median (0.5 for
        // U(0,1)) at least `level` of the time. Deterministic LCG sampling.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut uniform = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let trials = 400;
        let n = 61;
        let level = 0.95;
        let mut covered = 0;
        for _ in 0..trials {
            let mut xs: Vec<f64> = (0..n).map(|_| uniform()).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let ci = median_ci_sorted(&xs, level).unwrap();
            if ci.lower <= 0.5 && 0.5 <= ci.upper {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.91, "coverage too low: {rate}");
    }
}
