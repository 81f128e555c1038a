//! Property tests for the lazy candidate order: a [`RankedFrontier`]
//! cursor is a binary heap, and it must pop exactly the sequence a full
//! [`sort_best_bound_first`] produces — including every tie, which the
//! generators below make common (a handful of bound and overlap values
//! over many candidates).

use proptest::collection::vec;
use proptest::prelude::*;
use wf_repo::{sort_best_bound_first, RankedCandidate, RankedFrontier};

/// Bounds drawn from a tiny palette so equal bounds are the norm, with the
/// zero and unbounded (`INFINITY`) extremes the scans special-case.
const BOUNDS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, f64::INFINITY];

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

/// The pre-heap merge: per-cursor fully sorted lists, advanced by
/// position, the best head winning and the earliest cursor taking ties.
fn sorted_merge(mut lists: Vec<Vec<RankedCandidate>>) -> Vec<(usize, u64, u32)> {
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
        merged.push(key(head));
        positions[cursor] += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_cursor_pops_the_sorted_order(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000), 0..300),
    ) {
        let list = candidates(&raw);
        let mut sorted = list.clone();
        sort_best_bound_first(&mut sorted);
        let frontier = RankedFrontier::new(vec![list]);
        prop_assert_eq!(frontier.total(), sorted.len());
        let popped: Vec<_> = frontier.map(|c| key(&c)).collect();
        let want: Vec<_> = sorted.iter().map(key).collect();
        prop_assert_eq!(popped, want);
    }

    #[test]
    fn many_cursors_pop_the_sorted_merge(
        raw in vec((0usize..BOUNDS.len(), 0u32..3, 0u64..1_000, 0usize..4), 0..300),
    ) {
        let all = candidates(
            &raw.iter().map(|&(b, o, s, _)| (b, o, s)).collect::<Vec<_>>(),
        );
        let mut lists = vec![Vec::new(); 4];
        for candidate in all {
            lists[raw[candidate.index].3].push(candidate);
        }
        let want = sorted_merge(lists.clone());
        let popped: Vec<_> = RankedFrontier::new(lists).map(|c| key(&c)).collect();
        prop_assert_eq!(popped, want);
    }
}
