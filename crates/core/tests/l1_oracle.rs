//! An independent reference for technique L1's slot evidence, and a
//! differential property test of the production runners against it.
//!
//! The reference shares only the random streams with production: the
//! same `Sampler` seeds, uniform points and subsample. Everything else
//! is recomputed the plain way — the slot's logs by a filter, one binary
//! search per point (`Timeline::dist_to_nearest` / `dist_to_next`), a
//! full comparison sort, and median-CI ranks found by summing binomial
//! probabilities term by term instead of through the incomplete beta
//! function — so a defect in the shared sweep, sort or rank kernels
//! shows here even though every production path would agree on it.

use logdep::cache::{run_l1_cached, EvidenceCache};
use logdep::l1::{run_l1_pool, DistanceKind, L1Config, L1Result};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogRecord, LogStore, Millis, SourceId, Timeline};
use logdep_par::ParConfig;
use logdep_stats::binomial;
use logdep_stats::order_stats::median_ci_sorted;
use logdep_stats::sampling::Sampler;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Slot width of the property test: ten minutes.
const SLOT_MS: i64 = 600_000;
/// Slots the store spans; the analysis range is a run of them.
const STORE_SLOTS: i64 = 6;
const LEVELS: [f64; 3] = [0.90, 0.95, 0.99];

/// `(support, positives, dependent)` per pair `(a, b)`, `a < b`.
type Verdicts = BTreeMap<(SourceId, SourceId), (usize, usize, bool)>;

/// Median-CI ranks `(j, k)` by direct summation of `P(B = i)` for
/// `B ~ Binomial(n, ½)`: `j` is the largest rank with `P(B ≤ j−1) ≤ α/2`
/// (else 1), `k` the smallest with `P(B ≤ k−1) ≥ 1 − α/2` (else `n`),
/// and the widest interval `(1, n)` when the two cross.
fn textbook_median_ranks(n: usize, level: f64) -> Option<(usize, usize)> {
    let half_alpha = (1.0 - level) / 2.0;
    // cdf[i] = P(B ≤ i).
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += binomial::pmf(n as u64, 0.5, i as u64).ok()?;
        cdf.push(acc);
    }
    let below = |r: usize| cdf.get(r - 1).copied();
    let j = (1..=n)
        .rev()
        .find(|&j| below(j).is_some_and(|c| c <= half_alpha))
        .unwrap_or(1);
    let k = (1..=n)
        .find(|&k| below(k).is_some_and(|c| c >= 1.0 - half_alpha))
        .unwrap_or(n);
    Some(if j <= k { (j, k) } else { (1, n) })
}

/// One side of a direction test: the median CI `(lower, upper)` of the
/// distances from `points` to `a`, or `None` below ten distances.
fn side(a: &Timeline, points: &[Millis], cfg: &L1Config) -> Option<(f64, f64)> {
    let mut dists: Vec<f64> = points
        .iter()
        .filter_map(|&t| match cfg.distance {
            DistanceKind::Nearest => a.dist_to_nearest(t),
            DistanceKind::Next => a.dist_to_next(t),
        })
        .map(|d| d as f64)
        .collect();
    if dists.len() < 10 {
        return None;
    }
    dists.sort_by(f64::total_cmp);
    let (j, k) = textbook_median_ranks(dists.len(), cfg.ci_level)?;
    Some((*dists.get(j - 1)?, *dists.get(k - 1)?))
}

/// Is `b` attracted to `a` in `slot`, given `a`'s random side?
fn attracted(
    store: &LogStore,
    a: SourceId,
    b: SourceId,
    token: u64,
    slot: TimeRange,
    random: Option<(f64, f64)>,
    cfg: &L1Config,
) -> bool {
    let Some((r_lower, r_upper)) = random else {
        return false;
    };
    let b_slot: Vec<Millis> = store
        .timeline(b)
        .points()
        .iter()
        .copied()
        .filter(|&t| slot.start <= t && t < slot.end)
        .collect();
    let mut sampler = Sampler::from_seed(
        cfg.seed ^ 0x0b51de ^ token << 24 ^ u64::from(a.0) << 12 ^ u64::from(b.0),
    );
    let points = sampler.subsample(&b_slot, cfg.sample_size);
    match side(store.timeline(a), &points, cfg) {
        Some((b_lower, b_upper)) => b_upper < r_lower || (cfg.two_sided && b_lower > r_upper),
        None => false,
    }
}

/// Reference L1 over the slot grid of `range` (which must start on it),
/// for the homogeneous reference process and the CI-separation rule.
fn oracle_l1(store: &LogStore, range: TimeRange, sources: &[SourceId], cfg: &L1Config) -> Verdicts {
    let mut counts: BTreeMap<(SourceId, SourceId), (usize, usize)> = BTreeMap::new();
    let mut n_slots = 0;
    let mut start = range.start.0;
    while start < range.end.0 {
        let slot = TimeRange::new(
            Millis(start),
            Millis((start + cfg.slot_ms).min(range.end.0)),
        );
        let token = (start / cfg.slot_ms) as u64;
        n_slots += 1;
        start += cfg.slot_ms;

        let active: Vec<SourceId> = sources
            .iter()
            .copied()
            .filter(|&s| {
                let logs = store.timeline(s).points().iter();
                logs.filter(|&&t| slot.start <= t && t < slot.end).count() >= cfg.minlogs
            })
            .collect();
        let random: Vec<Option<(f64, f64)>> = active
            .iter()
            .map(|&a| {
                let mut sampler = Sampler::from_seed(cfg.seed ^ token << 20 ^ u64::from(a.0));
                let points: Vec<Millis> = sampler
                    .uniform_points(slot.start.0 as f64, slot.end.0 as f64, cfg.sample_size)
                    .into_iter()
                    .map(|x| Millis(x as i64))
                    .collect();
                side(store.timeline(a), &points, cfg)
            })
            .collect();
        let sides: Vec<(SourceId, Option<(f64, f64)>)> = active.into_iter().zip(random).collect();
        for (x, &(a, random_a)) in sides.iter().enumerate() {
            for &(b, random_b) in sides.iter().skip(x + 1) {
                let positive = attracted(store, a, b, token, slot, random_a, cfg)
                    && attracted(store, b, a, token, slot, random_b, cfg);
                let entry = counts.entry((a.min(b), a.max(b))).or_default();
                entry.0 += 1;
                entry.1 += usize::from(positive);
            }
        }
    }

    let min_support = (cfg.th_s * n_slots as f64).ceil().max(1.0) as usize;
    counts
        .into_iter()
        .map(|(pair, (support, positives))| {
            let pr = positives as f64 / support as f64;
            let dependent = pr >= cfg.th_pr && support >= min_support;
            (pair, (support, positives, dependent))
        })
        .collect()
}

fn verdicts(result: &L1Result) -> Verdicts {
    result
        .outcomes
        .iter()
        .map(|o| ((o.a, o.b), (o.support, o.positives, o.dependent)))
        .collect()
}

/// A small store: source 1 echoes source 0 after `lag` ms (a dependent
/// pair), and the `noise` logs land on any of the four sources.
fn store(base: &[i64], lag: i64, noise: &[(u8, i64)]) -> (LogStore, Vec<SourceId>) {
    let mut store = LogStore::new();
    let sources: [SourceId; 4] = std::array::from_fn(|i| store.registry.source(&format!("App{i}")));
    let [leader, echo, ..] = sources;
    for &t in base {
        store.push(LogRecord::minimal(leader, Millis(t)));
        store.push(LogRecord::minimal(echo, Millis(t + lag)));
    }
    for &(s, t) in noise {
        if let Some(&source) = sources.get(usize::from(s)) {
            store.push(LogRecord::minimal(source, Millis(t)));
        }
    }
    store.finalize();
    (store, sources.to_vec())
}

#[test]
fn textbook_ranks_agree_with_the_rank_search() {
    for level in LEVELS {
        for n in 1..=400usize {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let ci = median_ci_sorted(&sorted, level).expect("valid input");
            assert_eq!(
                Some((ci.lower_rank, ci.upper_rank)),
                textbook_median_ranks(n, level),
                "n={n} level={level}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn production_l1_matches_the_oracle(
        base in prop::collection::vec(0..STORE_SLOTS * SLOT_MS, 0..800),
        lag in 0i64..600,
        noise in prop::collection::vec((0u8..4, 0..STORE_SLOTS * SLOT_MS), 0..1_500),
        window in (0i64..3, 1i64..4),
        knobs in (10usize..80, 5usize..40, 0usize..3, any::<bool>(), any::<bool>(), any::<u64>()),
    ) {
        let (first, slots) = window;
        let (sample_size, minlogs, level, next, two_sided, seed) = knobs;
        let (store, sources) = store(&base, lag, &noise);
        // Slots start on the grid, with logs before and after the range.
        let range = TimeRange::new(Millis(first * SLOT_MS), Millis((first + slots) * SLOT_MS));
        let cfg = L1Config {
            slot_ms: SLOT_MS,
            minlogs,
            sample_size,
            ci_level: LEVELS[level],
            seed,
            distance: if next { DistanceKind::Next } else { DistanceKind::Nearest },
            two_sided,
            ..L1Config::default()
        };
        let expect = oracle_l1(&store, range, &sources, &cfg);
        for width in [1, 4] {
            let par = ParConfig::with_threads(width).expect("non-zero width");
            let pool = run_l1_pool(&store, range, &sources, &cfg, &par).expect("valid config");
            prop_assert_eq!(&verdicts(&pool), &expect, "run_l1_pool at width {}", width);
            let mut cache = EvidenceCache::new();
            let cached = run_l1_cached(&store, range, &sources, &cfg, &par, &mut cache)
                .expect("valid config");
            prop_assert_eq!(&verdicts(&cached), &expect, "run_l1_cached at width {}", width);
        }
    }
}
