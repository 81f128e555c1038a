//! Property tests for the lazy candidate order: a [`RankedFrontier`] is a
//! binary heap, and it must pop exactly the sequence a full
//! [`sort_best_bound_first`] produces — including every tie, which the
//! generators below make common (a handful of bound and overlap values
//! over many candidates) — over several shards' candidates keyed by
//! shard-major position, exactly the order the per-shard cursor merge it
//! replaced popped, and, when candidates enter under keys at or above
//! their bounds and are refined at the head, still the sorted order of the
//! bounds, with the same scan accounting.

use proptest::collection::vec;
use proptest::prelude::*;
use wf_model::WorkflowId;
use wf_repo::{
    scan_ranked_candidates, sort_best_bound_first, CancelToken, RankedCandidate, RankedFrontier,
    SearchHit, SearchStats, TopK,
};

/// Bounds drawn from a tiny palette so equal bounds are the norm, with the
/// zero and unbounded (`INFINITY`) extremes the scans special-case.
const BOUNDS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, f64::INFINITY];

/// Slack added to a bound to form its key: zero half the time, so keys tie
/// with bounds (and with each other) as often as the palette allows.
const SLACKS: [f64; 4] = [0.0, 0.0, 0.25, 1.0];

/// A frontier whose bounds are exact: nothing to refine.
fn exact(candidates: Vec<RankedCandidate>) -> RankedFrontier<fn(usize) -> f64> {
    RankedFrontier::new(candidates, None)
}

/// Candidates with distinct indices (as every corpus gives) in a shuffled
/// order, tie-heavy in bound and overlap.
fn candidates(raw: &[(usize, u32, u64)]) -> Vec<RankedCandidate> {
    let mut list: Vec<(u64, RankedCandidate)> = raw
        .iter()
        .enumerate()
        .map(|(index, &(bound, overlap, shuffle))| {
            (
                shuffle,
                RankedCandidate {
                    index,
                    bound: BOUNDS[bound],
                    overlap,
                },
            )
        })
        .collect();
    list.sort_by_key(|&(shuffle, candidate)| (shuffle, candidate.index));
    list.into_iter().map(|(_, candidate)| candidate).collect()
}

/// The key a popped sequence is compared on: every field, bounds by bits.
fn key(candidate: &RankedCandidate) -> (usize, u64, u32) {
    (
        candidate.index,
        candidate.bound.to_bits(),
        candidate.overlap,
    )
}

/// The per-shard cursor merge the one heap replaced: per-shard fully
/// sorted lists of local indices, advanced by position, the best head
/// winning and the earliest shard taking ties; each popped local index is
/// reported at its shard-major position (`offsets[shard] + local`).
fn cursor_merge(mut lists: Vec<Vec<RankedCandidate>>, offsets: &[usize]) -> Vec<(usize, u64, u32)> {
    for list in &mut lists {
        sort_best_bound_first(list);
    }
    let mut positions = vec![0usize; lists.len()];
    let mut merged = Vec::new();
    loop {
        let mut best: Option<(usize, &RankedCandidate)> = None;
        for (cursor, list) in lists.iter().enumerate() {
            let Some(head) = list.get(positions[cursor]) else {
                continue;
            };
            let better = best.is_none_or(|(_, leader)| {
                head.bound > leader.bound
                    || (head.bound == leader.bound && head.overlap > leader.overlap)
            });
            if better {
                best = Some((cursor, head));
            }
        }
        let Some((cursor, head)) = best else {
            return merged;
        };
        let (_, bound, overlap) = key(head);
        merged.push((offsets[cursor] + head.index, bound, overlap));
        positions[cursor] += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_heap_pops_the_sorted_order(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000), 0..300),
    ) {
        let list = candidates(&raw);
        let mut sorted = list.clone();
        sort_best_bound_first(&mut sorted);
        let frontier = exact(list);
        prop_assert_eq!(frontier.total(), sorted.len());
        let popped: Vec<_> = frontier.map(|c| key(&c)).collect();
        let want: Vec<_> = sorted.iter().map(key).collect();
        prop_assert_eq!(popped, want);
    }

    /// Each candidate belongs to one of four shards (some may be empty)
    /// and has a local index within it; the heap over shard-major
    /// positions pops bound ↓, overlap ↓, shard ↑, local ↑ — exactly the
    /// cursor merge.
    #[test]
    fn one_heap_over_shard_major_positions_pops_the_cursor_merge(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000, 0usize..4), 0..300),
    ) {
        let all = candidates(
            &raw.iter().map(|&(b, o, s, _)| (b, o, s)).collect::<Vec<_>>(),
        );
        // Local indices in the order the shuffled candidates reach a shard.
        let mut lists = vec![Vec::new(); 4];
        for candidate in all {
            let list: &mut Vec<RankedCandidate> = &mut lists[raw[candidate.index].3];
            list.push(RankedCandidate { index: list.len(), ..candidate });
        }
        let offsets: Vec<usize> = lists
            .iter()
            .scan(0, |offset, list| {
                let start = *offset;
                *offset += list.len();
                Some(start)
            })
            .collect();
        let want = cursor_merge(lists.clone(), &offsets);
        let positions: Vec<RankedCandidate> = lists
            .iter()
            .zip(&offsets)
            .flat_map(|(list, &offset)| {
                list.iter().map(move |c| RankedCandidate { index: offset + c.index, ..*c })
            })
            .collect();
        let popped: Vec<_> = exact(positions).map(|c| key(&c)).collect();
        prop_assert_eq!(popped, want);
    }

    /// Keys are the bounds plus a slack that is often 0: the lazy
    /// frontier refines each entry at the head and pops exactly the
    /// sorted order of the bounds, refining each popped entry once.
    #[test]
    fn lazy_heap_pops_the_sorted_order_of_the_refined_bounds(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000, 0usize..SLACKS.len()), 0..300),
    ) {
        let (list, bounds) = keyed(&raw);
        let mut sorted = refined(&list, &bounds);
        sort_best_bound_first(&mut sorted);
        let mut frontier = RankedFrontier::new(list, Some(|i: usize| bounds[i]));
        prop_assert_eq!(frontier.total(), sorted.len());
        let popped: Vec<_> = frontier.by_ref().map(|c| key(&c)).collect();
        let want: Vec<_> = sorted.iter().map(key).collect();
        prop_assert_eq!(popped, want);
        prop_assert_eq!(frontier.bounds_refined(), sorted.len());
    }

    /// A scan over the lazy frontier and one over the fully sorted bounds,
    /// both cancelled after the same number of scores, keep the same hits
    /// and the same accounting; the lazy one refines at least every
    /// candidate it examined and at most all of them.
    #[test]
    fn lazy_scan_cancelled_mid_stream_keeps_the_sorted_scans_accounting(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000, 0usize..SLACKS.len()), 0..120),
        k in 0usize..6,
        cut in 0usize..12,
    ) {
        let (list, bounds) = keyed(&raw);
        let mut sorted = refined(&list, &bounds);
        sort_best_bound_first(&mut sorted);
        let total = sorted.len();

        let (eager_hits, eager_stats) = cancelled_scan(sorted, total, k, cut, &bounds);
        let mut frontier = RankedFrontier::new(list, Some(|i: usize| bounds[i]));
        let (lazy_hits, mut lazy_stats) = cancelled_scan(&mut frontier, total, k, cut, &bounds);
        let refined = frontier.bounds_refined();
        prop_assert!(
            lazy_stats.scored + lazy_stats.zero_bound <= refined && refined <= total,
            "refined {} for {:?}", refined, lazy_stats
        );
        lazy_stats.bounds_refined = 0;
        prop_assert_eq!(lazy_hits, eager_hits);
        prop_assert_eq!(lazy_stats, eager_stats);
    }
}

/// [`candidates`] under keys: each bound plus its drawn slack, with the
/// bounds themselves by index.
fn keyed(raw: &[(usize, u32, u64, usize)]) -> (Vec<RankedCandidate>, Vec<f64>) {
    let list = candidates(
        &raw.iter()
            .map(|&(b, o, s, _)| (b, o, s))
            .collect::<Vec<_>>(),
    );
    let bounds: Vec<f64> = raw.iter().map(|&(bound, ..)| BOUNDS[bound]).collect();
    let keyed = list
        .into_iter()
        .map(|c| RankedCandidate {
            bound: c.bound + SLACKS[raw[c.index].3],
            ..c
        })
        .collect();
    (keyed, bounds)
}

/// The keyed candidates under their bounds.
fn refined(keyed: &[RankedCandidate], bounds: &[f64]) -> Vec<RankedCandidate> {
    keyed
        .iter()
        .map(|c| RankedCandidate {
            bound: bounds[c.index],
            ..*c
        })
        .collect()
}

/// One scan into a top-`k` heap whose cancel token fires once `cut`
/// candidates are scored; scores are admissible fractions of the bounds.
fn cancelled_scan(
    stream: impl IntoIterator<Item = RankedCandidate>,
    total: usize,
    k: usize,
    cut: usize,
    bounds: &[f64],
) -> (Vec<SearchHit>, SearchStats) {
    let cancel = CancelToken::never();
    if cut == 0 {
        cancel.cancel();
    }
    let mut scored = 0;
    let mut top = TopK::new(k);
    let mut stats = SearchStats::default();
    scan_ranked_candidates(
        stream,
        total,
        &mut top,
        &cancel,
        &mut stats,
        |i| {
            scored += 1;
            if scored == cut {
                cancel.cancel();
            }
            bounds[i].min(1.0) * [1.0, 0.5, 0.25][i % 3]
        },
        |i| WorkflowId::from(format!("w{i:03}")),
    );
    (top.into_sorted_hits(), stats)
}
