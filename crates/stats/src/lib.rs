//! Statistics substrate for log-based dependency mining.
//!
//! This crate implements, from first principles, every statistical procedure
//! used by the dependency-mining techniques of Steinle et al. (VLDB 2006):
//!
//! * [`order_stats`] — distribution-free confidence intervals for quantiles
//!   (notably the median) by order statistics, the robust method of
//!   Le Boudec used by the paper's technique L1 and by all of its
//!   cross-day interval estimates;
//! * [`contingency`] — 2×2 contingency tables with Dunning's log-likelihood
//!   ratio test (G²) and Pearson's X², used by technique L2 for bigram
//!   association;
//! * [`wilcoxon`] — the exact signed-rank test used for the timeout study
//!   (Table 2 of the paper);
//! * [`ranksum`] — the Mann–Whitney rank-sum test, used by the ablation
//!   studies as an alternative decision rule;
//! * [`regression`] — ordinary least squares with confidence intervals for
//!   the slope, used by the load-influence study (Figure 9);
//! * [`boxplot`], [`descriptive`], [`sampling`] — supporting summaries.
//!
//! The distribution machinery ([`normal`], [`binomial`], [`chi2`],
//! [`tdist`], [`special`]) is self-contained; no external math crates are
//! required, which keeps the whole mining stack dependency-light and easy
//! to audit.
//!
//! # Example
//!
//! ```
//! use logdep_stats::order_stats::median_ci;
//!
//! // 0.984-level CI for the median of 7 daily precision values: with n = 7
//! // the order-statistics CI at that level is exactly [min, max].
//! let days = [0.66, 0.63, 0.73, 0.70, 0.68, 0.71, 0.65];
//! let ci = median_ci(&days, 0.984).unwrap();
//! assert_eq!((ci.lower, ci.upper), (0.63, 0.73));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` deliberately catches NaN as well as non-positive values;
// rewriting via partial_cmp would obscure that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::excessive_precision)]

pub mod binomial;
pub mod boxplot;
pub mod chi2;
pub mod contingency;
pub mod descriptive;
pub mod error;
pub mod normal;
pub mod order_stats;
pub mod ranksum;
pub mod regression;
pub mod sampling;
pub mod special;
pub mod tdist;
pub mod wilcoxon;

pub use error::StatsError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
