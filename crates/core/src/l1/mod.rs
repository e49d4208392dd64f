//! Technique L1: logs as an activity measure.
//!
//! §3.1 of the paper. Each application is reduced to the sequence of its
//! log timestamps; for an ordered pair `(A, B)` the *distance to the
//! nearest log of A* (equation 1) is sampled at the logs of `B` and at
//! uniformly random points, and robust order-statistics confidence
//! intervals for the two **medians** are compared. If the whole CI of
//! the B-sample lies below the CI of the random sample, B's logs are
//! closer to A's than chance.
//!
//! To neutralize the shared diurnal-load confounder, the test runs
//! *locally* on short time slots (an hour each) and the local outcomes
//! are combined: a pair is declared dependent when the fraction of
//! positive slots `pr` and the support `s` (slots where both apps had at
//! least `minlogs` logs) clear thresholds `th_pr` and `th_s`.
//!
//! The module also implements the **Li–Ma style baseline** the test was
//! adapted from (distance to the *next* arrival, a two-sided test on the
//! *mean*), so the paper's three design deltas — median vs mean, nearest
//! vs next, one-sided vs two-sided — can each be ablated.

mod adaptive;
mod algorithm;
mod config;
mod test;

pub use adaptive::{adaptive_slots, AdaptiveConfig};
pub(crate) use algorithm::{mine_l1, LOAD_JITTER_MS};
pub use algorithm::{run_l1, run_l1_pool, run_l1_slots, L1Result, PairOutcome};
pub use config::{CenterStat, DecisionRule, DistanceKind, L1Config, ReferenceProcess};
pub use test::{direction_test, DirectionOutcome, DistanceSamples};
