//! Property tests pinning the seek-then-sweep distance kernels to the
//! per-point binary-search reference, and the content digests to their
//! invalidation contract.

use logdep_logstore::time::{Millis, TimeRange};
use logdep_logstore::Timeline;
use proptest::prelude::*;

/// Bounded timestamps so distances stay far from i64 overflow.
const T: i64 = 1_000_000;

fn timeline(points: Vec<i64>) -> Timeline {
    Timeline::from_unsorted(points.into_iter().map(Millis).collect())
}

fn sorted_queries(queries: Vec<i64>) -> Vec<Millis> {
    let mut qs: Vec<Millis> = queries.into_iter().map(Millis).collect();
    qs.sort_unstable();
    qs
}

/// Ascending queries in a narrow window whose start depends on `mode`:
/// 0 — exactly at a timeline point (the seek boundary), 1 — entirely
/// before the first point, 2 — entirely after the last point, 3 — just
/// past a point, deep inside the timeline. Empty for an empty `tl`.
fn slot_window(tl: &Timeline, mode: u8, anchor: usize, offsets: Vec<i64>) -> Vec<Millis> {
    let pts = tl.points();
    let (Some(first), Some(last)) = (pts.first(), pts.last()) else {
        return Vec::new();
    };
    let at = pts.get(anchor % pts.len()).map_or(0, |p| p.0);
    let width = offsets.iter().max().map_or(0, |w| w + 1);
    let start = match mode {
        0 => at,
        1 => first.0 - width - anchor as i64,
        2 => last.0 + 1 + anchor as i64,
        _ => at + 1,
    };
    let mut qs: Vec<Millis> = offsets.into_iter().map(|o| Millis(start + o)).collect();
    if mode == 0 {
        qs.push(Millis(start));
    }
    qs.sort_unstable();
    qs
}

proptest! {
    #[test]
    fn slot_window_sweeps_equal_per_point_binary_search(
        points in prop::collection::vec(-T..T, 1..3_000),
        anchor in 0usize..3_000,
        offsets in prop::collection::vec(0i64..2_000, 0..80),
        mode in 0u8..4,
    ) {
        // The shape L1 produces: a long timeline (many days) queried in
        // one narrow slot, so the sweep must start at the slot.
        let tl = timeline(points);
        let qs = slot_window(&tl, mode, anchor, offsets);
        let nearest: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_nearest(q)).collect();
        let next: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_next(q)).collect();
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), nearest);
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), next);
        prop_assert!(tl.dists_to_nearest_sorted(&[]).is_empty());
        prop_assert!(tl.dists_to_next_sorted(&[]).is_empty());
    }

    #[test]
    fn sweep_nearest_equals_per_point_binary_search(
        points in prop::collection::vec(-T..T, 0..200),
        queries in prop::collection::vec(-T..T, 0..200),
    ) {
        let tl = timeline(points);
        let qs = sorted_queries(queries);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_nearest(q)).collect();
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), reference);
    }

    #[test]
    fn sweep_next_equals_per_point_binary_search(
        points in prop::collection::vec(-T..T, 0..200),
        queries in prop::collection::vec(-T..T, 0..200),
    ) {
        let tl = timeline(points);
        let qs = sorted_queries(queries);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_next(q)).collect();
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), reference);
    }

    #[test]
    fn sweep_handles_heavy_duplication(
        point in -T..T,
        query in -T..T,
        reps in 1usize..50,
    ) {
        // Degenerate inputs: every point equal, every query equal.
        let tl = timeline(vec![point; reps]);
        let qs = sorted_queries(vec![query; reps]);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_nearest(q)).collect();
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), reference);
    }

    #[test]
    fn digest_equality_tracks_content_equality(
        a in prop::collection::vec(-T..T, 0..60),
        b in prop::collection::vec(-T..T, 0..60),
    ) {
        let ta = timeline(a);
        let tb = timeline(b);
        // Content-addressing soundness direction: equal content must
        // digest equally (collisions the other way are astronomically
        // unlikely but not asserted).
        if ta == tb {
            prop_assert_eq!(ta.digest(), tb.digest());
        } else {
            prop_assert_ne!(ta.digest(), tb.digest());
        }
    }

    #[test]
    fn neighborhood_digest_is_insensitive_to_far_points(
        near in prop::collection::vec(-1_000i64..1_000, 0..40),
        far in prop::collection::vec(100_000i64..200_000, 1..10),
        margin in 0i64..500,
    ) {
        // Points far beyond the range + margin may shift WHICH point is
        // the successor, but only matter through pred/succ: appending
        // even-farther points must not disturb the digest.
        let range = TimeRange::new(Millis(-1_000), Millis(1_000));
        let mut with_far = near.clone();
        with_far.extend(&far);
        let base = timeline(with_far.clone());
        with_far.push(300_000);
        let extended = timeline(with_far);
        prop_assert_eq!(
            base.digest_neighborhood(range, margin),
            extended.digest_neighborhood(range, margin)
        );
    }

    #[test]
    fn neighborhood_digest_changes_on_in_range_edits(
        near in prop::collection::vec(-900i64..900, 1..40),
        extra in -900i64..900,
        margin in 0i64..200,
    ) {
        let range = TimeRange::new(Millis(-1_000), Millis(1_000));
        let base = timeline(near.clone());
        let mut edited_points = near;
        edited_points.push(extra);
        let edited = timeline(edited_points);
        prop_assert_ne!(
            base.digest_neighborhood(range, margin),
            edited.digest_neighborhood(range, margin)
        );
    }
}
