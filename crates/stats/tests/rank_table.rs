//! Conformance of the memoized [`CiRankTable`] to [`quantile_ci_sorted`]:
//! the same interval, bit for bit, at every sample size, quantile and
//! level — from sorted input and by selection from shuffled input, also
//! when worker threads fill one table concurrently — and the same errors.

use logdep_stats::order_stats::{quantile_ci_sorted, CiRankTable, QuantileCi};
use logdep_stats::StatsError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Barrier;

const QS: [f64; 3] = [0.25, 0.5, 0.9];
const LEVELS: [f64; 5] = [0.80, 0.90, 0.95, 0.984, 0.99];
const MAX_N: usize = 1000;
const THREADS: usize = 4;

/// Every field of an interval as exact bits.
fn bits(ci: &QuantileCi) -> (u64, u64, usize, usize, u64, u64) {
    (
        ci.lower.to_bits(),
        ci.upper.to_bits(),
        ci.lower_rank,
        ci.upper_rank,
        ci.achieved_level.to_bits(),
        ci.point.to_bits(),
    )
}

/// An ascending sample with ties and non-integer values; every prefix
/// is itself sorted, so `&sample[..n]` is a valid input of size `n`.
fn sorted_sample() -> Vec<f64> {
    (0..MAX_N)
        .map(|i| ((i / 3) as f64).sqrt() * 3.7 - 11.0)
        .collect()
}

/// A shuffle seed per `(q, level)` pair.
fn n_seed(q: f64, level: f64) -> u64 {
    q.to_bits() ^ level.to_bits().rotate_left(17)
}

/// `quantile_ci_sorted` on every prefix of `sample`, shortest first.
fn reference(sample: &[f64], q: f64, level: f64) -> Result<Vec<QuantileCi>, StatsError> {
    (1..=sample.len())
        .map(|n| quantile_ci_sorted(sample.get(..n).unwrap_or_default(), q, level))
        .collect()
}

#[test]
fn table_matches_quantile_ci_sorted_bit_for_bit() {
    let sample = sorted_sample();
    for q in QS {
        for level in LEVELS {
            let expect = reference(&sample, q, level).expect("valid input");
            let full = CiRankTable::new(q, level, MAX_N);
            // Sizes above `max_n` take the uncached search.
            let short = CiRankTable::new(q, level, MAX_N / 2);
            let mut rng = StdRng::seed_from_u64(n_seed(q, level));
            for (n, want) in (1..=MAX_N).zip(&expect) {
                let xs = &sample[..n];
                for table in [&full, &short] {
                    // First call fills the cell, the second reads it.
                    for _ in 0..2 {
                        let got = table.ci_sorted(xs).expect("valid input");
                        assert_eq!(bits(&got), bits(want), "n={n} q={q} level={level}");
                    }
                    let mut shuffled = xs.to_vec();
                    shuffled.shuffle(&mut rng);
                    let got = table.ci_select(&mut shuffled).expect("valid input");
                    assert_eq!(bits(&got), bits(want), "select n={n} q={q} level={level}");
                }
            }
        }
    }
}

#[test]
fn concurrent_fill_in_shuffled_order_matches() {
    let sample = sorted_sample();
    for q in QS {
        for level in LEVELS {
            let expect = reference(&sample, q, level).expect("valid input");
            let table = CiRankTable::new(q, level, MAX_N);
            let start = Barrier::new(THREADS);
            let per_thread: Vec<Vec<(usize, QuantileCi)>> = logdep_par::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (table, sample, start) = (&table, &sample, &start);
                        s.spawn(move || {
                            let mut order: Vec<usize> = (1..=MAX_N).collect();
                            order.shuffle(&mut StdRng::seed_from_u64(t as u64));
                            start.wait();
                            order
                                .into_iter()
                                .map(|n| (n, table.ci_sorted(&sample[..n]).expect("valid")))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            for results in per_thread {
                assert_eq!(results.len(), MAX_N);
                for (n, got) in results {
                    assert_eq!(
                        bits(&got),
                        bits(&expect[n - 1]),
                        "n={n} q={q} level={level}"
                    );
                }
            }
        }
    }
}

#[test]
fn errors_match_quantile_ci_sorted() {
    let cases: [(&[f64], f64, f64); 11] = [
        (&[], 0.5, 0.95),
        (&[1.0, f64::NAN], 0.5, 0.95),
        (&[f64::NAN], 0.5, 0.95),
        (&[3.0, 1.0, 2.0], 0.5, 0.95),
        (&[1.0, 2.0], 0.5, 0.0),
        (&[1.0, 2.0], 0.5, 1.0),
        (&[1.0, 2.0], 0.5, 1.5),
        (&[1.0, 2.0], 0.5, f64::NAN),
        (&[1.0, 2.0], 0.0, 0.95),
        (&[1.0, 2.0], 1.0, 0.95),
        // NaN is checked before the level, the level before emptiness.
        (&[], 0.5, 2.0),
    ];
    for (xs, q, level) in cases {
        let want = quantile_ci_sorted(xs, q, level).expect_err("invalid input");
        let table = CiRankTable::new(q, level, 8);
        let got = table.ci_sorted(xs).expect_err("invalid input");
        // Debug form: the unsorted error carries a NaN, which is not `==`.
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{xs:?} q={q} level={level}"
        );
        // Selection takes unsorted input; every other error is the same.
        let selected = table.ci_select(&mut xs.to_vec());
        if xs.windows(2).any(|w| w[0] > w[1]) {
            assert!(selected.is_ok(), "{xs:?}");
        } else {
            let got = selected.expect_err("invalid input");
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{xs:?} q={q} level={level}"
            );
        }
    }
}
