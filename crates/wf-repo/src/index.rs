//! Index-accelerated top-k search: a token inverted index over module
//! labels plus upper-bound candidate pruning.
//!
//! Repository search in the seed implementation scores the query against
//! *every* workflow.  The classic repository-search architecture (keyword
//! indexing of workflow repositories à la Davidson et al.; trie-indexed
//! pattern lookup à la García-Cuesta et al.) avoids that: per-workflow
//! features are precomputed once, indexed, and candidates are pruned by a
//! cheap *admissible* upper bound before the expensive measure runs.
//!
//! This module holds the measure-independent pieces: [`TokenIndex`]
//! counts the label tokens a candidate shares with the query,
//! [`RankedFrontier`] yields candidates best bound first, computing a
//! candidate's bound only when a cheaper key brings it to the head, and
//! [`scan_ranked_candidates`] is the one prune-and-score loop every
//! bounded search runs (the corpus layer of `wf-sim` feeds it bounds from
//! its per-query class table).  The scan is exact: because every bound is
//! admissible (`bound >= score` and scores are non-negative), a candidate
//! is skipped only when it provably cannot enter the result list, and a
//! candidate whose bound is `0` is known to score exactly `0` without
//! running the measure.  Its hit lists are therefore bit-identical — ids,
//! scores and tie-order — to the exhaustive [`scan_top_k`] over the same
//! [`CorpusScorer`].  A candidate without a bound ranks at
//! `f64::INFINITY` and is always scored, so a measure that cannot bound
//! degrades to an exhaustive — but still corpus-resident — scan.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};

use wf_model::WorkflowId;

use crate::search::{hit_ordering, SearchHit, TopK};

/// A corpus-resident similarity measure addressable by corpus index.
///
/// Implementations precompute per-workflow features once (profiles) and
/// score pairs from those features.  Contract:
///
/// * `score` is non-negative and deterministic;
/// * `label_token_ids` returns the distinct interned label tokens of a
///   workflow, sorted ascending.
pub trait CorpusScorer: Sync {
    /// Number of workflows in the corpus.
    fn corpus_len(&self) -> usize;

    /// The id of the workflow at a corpus index.
    fn workflow_id(&self, index: usize) -> &WorkflowId;

    /// The exact similarity of two corpus workflows.
    fn score(&self, query: usize, candidate: usize) -> f64;

    /// The distinct interned module-label token ids of a workflow, sorted.
    fn label_token_ids(&self, index: usize) -> &[u32];
}

/// An inverted index from label-token ids to the workflows containing them.
///
/// Besides the batch [`TokenIndex::build`], the index supports *incremental*
/// maintenance ([`TokenIndex::add_workflow`] /
/// [`TokenIndex::remove_workflow`]): a serving process can mutate its corpus
/// without ever rebuilding the index, and the mutated index is structurally
/// equal (`==`) to a from-scratch rebuild over the surviving workflows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenIndex {
    postings: BTreeMap<u32, Vec<u32>>,
    workflows: usize,
}

impl TokenIndex {
    /// Builds the index over every workflow of a corpus-resident measure.
    pub fn build<S: CorpusScorer + ?Sized>(scorer: &S) -> Self {
        let mut postings: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let workflows = scorer.corpus_len();
        for wf in 0..workflows {
            // Token lists are distinct per workflow, so each posting list
            // receives a workflow at most once and stays sorted.
            for &token in scorer.label_token_ids(wf) {
                postings.entry(token).or_default().push(wf as u32);
            }
        }
        TokenIndex {
            postings,
            workflows,
        }
    }

    /// The posting list (sorted workflow indices) of one token.
    pub fn postings(&self, token: u32) -> &[u32] {
        self.postings.get(&token).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct indexed tokens.
    pub fn token_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of indexed workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows
    }

    /// How many of `query_tokens` each workflow shares, as a dense vector
    /// (one counter per corpus workflow, zero for untouched workflows).
    pub fn overlap_counts(&self, query_tokens: &[u32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.workflows];
        for &token in query_tokens {
            for &wf in self.postings(token) {
                counts[wf as usize] += 1;
            }
        }
        counts
    }

    /// Registers one new workflow (appended at the end of the corpus) with
    /// its distinct sorted label-token ids, returning its corpus index.
    ///
    /// The new index is the largest so far, so every touched posting list
    /// stays sorted by a plain push — O(|tokens| · log |vocabulary|).
    pub fn add_workflow(&mut self, tokens: &[u32]) -> usize {
        let index = self.workflows;
        for &token in tokens {
            self.postings.entry(token).or_default().push(index as u32);
        }
        self.workflows += 1;
        index
    }

    /// Unregisters the workflow at a corpus index, shifting every later
    /// workflow down by one — mirroring `Vec::remove` on the corpus itself,
    /// so the index stays aligned with the surviving corpus order.
    ///
    /// Walks every posting list once (O(total postings)); empty lists are
    /// dropped so the result stays `==` to a from-scratch rebuild.
    ///
    /// # Panics
    /// Panics when `index >= self.workflow_count()`.
    pub fn remove_workflow(&mut self, index: usize) {
        assert!(
            index < self.workflows,
            "workflow index {index} out of bounds for {} indexed workflows",
            self.workflows
        );
        let removed = index as u32;
        for list in self.postings.values_mut() {
            list.retain(|&wf| wf != removed);
            for wf in list.iter_mut() {
                if *wf > removed {
                    *wf -= 1;
                }
            }
        }
        self.postings.retain(|_, list| !list.is_empty());
        self.workflows -= 1;
    }
}

/// Instrumentation of one indexed search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate workflows considered (corpus minus the query).
    pub candidates: usize,
    /// Candidates scored with the full measure.
    pub scored: usize,
    /// Candidates skipped because their bound fell below the running top-k
    /// threshold.
    pub pruned: usize,
    /// Candidates resolved to an exact score of 0 from a zero bound,
    /// without running the measure.
    pub zero_bound: usize,
    /// Candidates sharing at least one label token with the query.
    pub shared_token_candidates: usize,
    /// Candidates left unexamined because the search was cancelled (by a
    /// deadline or an explicit [`CancelToken`](crate::search::CancelToken)
    /// trip) before the scan reached them.
    pub abandoned: usize,
    /// True when cancellation cut this scan short: the hits are a correct
    /// but possibly incomplete prefix of the candidate stream's true
    /// contribution, and callers must surface the result as degraded.
    pub cancelled: bool,
    /// Full bounds a lazy [`RankedFrontier`] computed: the candidates
    /// that reached its head on a cheap key and were refined there.
    /// Zero for measures without a bound.
    pub bounds_refined: usize,
}

impl SearchStats {
    /// Fraction of candidates that skipped full scoring.
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            (self.candidates - self.scored) as f64 / self.candidates as f64
        }
    }

    /// Accumulates another search's counters (fan-out paths aggregate the
    /// per-branch instrumentation through this).
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.scored += other.scored;
        self.pruned += other.pruned;
        self.zero_bound += other.zero_bound;
        self.shared_token_candidates += other.shared_token_candidates;
        self.abandoned += other.abandoned;
        self.cancelled |= other.cancelled;
        self.bounds_refined += other.bounds_refined;
    }
}

/// A candidate of a bound-pruned top-k scan: its corpus index, an
/// *admissible* upper bound on its score (`f64::INFINITY` when the measure
/// cannot bound the pair) and its query-token overlap.
#[derive(Debug, Clone, Copy)]
pub struct RankedCandidate {
    /// Corpus index of the candidate workflow.
    pub index: usize,
    /// Admissible upper bound on the candidate's score.
    pub bound: f64,
    /// Number of query label tokens the candidate shares.
    pub overlap: u32,
}

/// The canonical scan order every bound-pruned search uses: bound
/// descending, then overlap descending, then index ascending (`Less` means
/// `a` is scanned first).  A total order for non-NaN bounds — and bounds
/// are never NaN — because corpus indices are distinct.
fn scan_order(a: &RankedCandidate, b: &RankedCandidate) -> Ordering {
    b.bound
        .partial_cmp(&a.bound)
        .unwrap_or(Ordering::Equal)
        .then_with(|| b.overlap.cmp(&a.overlap))
        .then_with(|| a.index.cmp(&b.index))
}

/// Sorts candidates into the canonical scan order every bound-pruned
/// search uses: bound descending, then overlap descending, then index
/// ascending.
pub fn sort_best_bound_first(candidates: &mut [RankedCandidate]) {
    candidates.sort_unstable_by(scan_order);
}

/// The one prune-and-score loop behind every bound-pruned top-k scan —
/// every unit of a (possibly one-shard) scatter-gather search walks its
/// candidates through here, so the zero-bound short-circuit, the
/// strict-below-floor pruning and the stats accounting live in one place.
///
/// `candidates` must arrive in [`sort_best_bound_first`] order, or as a
/// [`RankedFrontier`], which yields that order while computing only the
/// bounds it pops (pass it by `&mut` to read its
/// [`RankedFrontier::bounds_refined`] afterwards); `total` is the
/// stream's length, needed for prune accounting.  `score` computes the
/// exact score of a candidate index and `id_of` resolves its workflow id.
/// Every scored candidate is offered to the caller's `top`, which may
/// already hold the hits of earlier streams of the same search.  Once
/// `top` is full, its worst kept score is the floor, and the loop stops as
/// soon as the best remaining bound falls *strictly* below it —
/// admissible, so `top` ends up holding exactly the true top-k of every
/// candidate it was offered or that was pruned.
///
/// `cancel` is polled between candidates: once it fires, the remaining
/// stream is abandoned (`stats.abandoned`, `stats.cancelled`) and `top`
/// keeps the hits gathered so far — each still an exact score, so a
/// deadline-bound caller can serve them as an honest *partial* result.
/// Non-deadline callers pass
/// [`CancelToken::never`](crate::search::CancelToken::never), which
/// reduces the poll to one relaxed load.
// lint:hot this loop runs once per candidate of every bounded search;
// wfsim_lint forbids lock acquisition and heap allocation inside it.
pub fn scan_ranked_candidates<I, F, G>(
    candidates: I,
    total: usize,
    top: &mut TopK,
    cancel: &crate::search::CancelToken,
    stats: &mut SearchStats,
    mut score: F,
    mut id_of: G,
) where
    I: IntoIterator<Item = RankedCandidate>,
    F: FnMut(usize) -> f64,
    G: FnMut(usize) -> WorkflowId,
{
    if top.k == 0 {
        stats.pruned += total;
        return;
    }
    // The heap's worst-of-k, copied out so the per-candidate check is one
    // compare; 0 prunes nothing, as bounds are non-negative.
    let mut floor = top.worst_score().unwrap_or(0.0);
    let mut remaining = total;
    for candidate in candidates {
        // A fired deadline abandons the rest of the stream: everything
        // already kept is exact, so the caller can mark the result
        // degraded instead of blocking past its SLO.
        if cancel.is_cancelled() {
            stats.abandoned += remaining;
            stats.cancelled = true;
            break;
        }
        // Best-bound-first order: once the bound of the next candidate
        // drops below the floor, no later candidate can displace anything
        // (score <= bound < floor <= final k-th best), so stop scoring.
        if candidate.bound < floor {
            stats.pruned += remaining;
            break;
        }
        remaining -= 1;
        // A zero bound pins the score to exactly 0 by admissibility,
        // without running the measure.
        let score = if candidate.bound == 0.0 {
            stats.zero_bound += 1;
            0.0
        } else {
            stats.scored += 1;
            score(candidate.index)
        };
        top.insert(SearchHit {
            id: id_of(candidate.index),
            score,
        });
        if let Some(worst) = top.worst_score() {
            floor = worst;
        }
    }
}

/// A lazy best-bound-first stream over one search's candidates.
///
/// This is the scheduling core of every bound-pruned search: the
/// candidates of every shard go into one frontier, keyed by shard-major
/// position (the shard's offset plus its local index), so a single
/// [`scan_ranked_candidates`] over it prunes with the same power as one
/// engine over the whole corpus, independent of how the candidates are
/// partitioned.
///
/// Each candidate enters under a *key*.  With a `refine` closure the key
/// is a cheap upper bound on the candidate's bound, and `refine(index)`
/// computes the bound itself; without one the key is the bound (or
/// `f64::INFINITY` for a measure that cannot bound), and the entry
/// arrives refined.  The frontier is a binary heap, built in O(n), that
/// orders entries by key descending; at equal key an unrefined entry
/// comes first, then overlap descending, then index ascending.  An
/// unrefined entry at the head is refined and sifted back in place; a
/// refined entry at the head is yielded.  At that moment every unrefined
/// key — and so every bound behind one — is strictly below the yielded
/// bound, so the frontier yields exactly the [`sort_best_bound_first`]
/// order of the refined bounds.  A scan that prunes after a few dozen
/// candidates therefore refines only the candidates whose key reaches its
/// last bound, never bounding or sorting the thousands it skips.
///
/// Index-ascending ties on shard-major positions resolve to the earliest
/// shard, then the earliest local index — a deterministic order; the
/// final top-k content is insertion-order independent anyway (every
/// non-pruned candidate is scored exactly, and [`TopK`] keeps the k best
/// under the canonical score-then-id order).  What the frontier has
/// yielded is not a coverage report: [`scan_ranked_candidates`] pops a
/// candidate before it checks its cancel token, so callers report
/// coverage from the scan's `stats.cancelled`.
pub struct RankedFrontier<R> {
    heap: BinaryHeap<FrontierEntry>,
    total: usize,
    refinements: usize,
    refine: Option<R>,
}

/// A frontier entry: a candidate under its key, which is its exact bound
/// once `refined`.
struct FrontierEntry {
    key: f64,
    refined: bool,
    overlap: u32,
    index: usize,
}

impl Ord for FrontierEntry {
    /// The max-heap pops the greatest entry: key descending, unrefined
    /// before refined, overlap descending, index ascending.  A total order
    /// for non-NaN keys, because corpus indices are distinct.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.refined.cmp(&self.refined))
            .then_with(|| self.overlap.cmp(&other.overlap))
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FrontierEntry {}

impl<R: FnMut(usize) -> f64> RankedFrontier<R> {
    /// A frontier over candidates with distinct indices, in any order.
    /// With `refine`, each candidate's `bound` is its key and must be at
    /// least what `refine` returns for its index; without it, each
    /// `bound` is exact.
    pub fn new(candidates: Vec<RankedCandidate>, refine: Option<R>) -> Self {
        let refined = refine.is_none();
        RankedFrontier {
            total: candidates.len(),
            heap: candidates
                .into_iter()
                .map(|candidate| FrontierEntry {
                    key: candidate.bound,
                    refined,
                    overlap: candidate.overlap,
                    index: candidate.index,
                })
                .collect(),
            refinements: 0,
            refine,
        }
    }
}

impl<R> RankedFrontier<R> {
    /// Total candidates, popped or not.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bounds computed so far by `refine`.
    pub fn bounds_refined(&self) -> usize {
        self.refinements
    }
}

impl<R: FnMut(usize) -> f64> Iterator for RankedFrontier<R> {
    type Item = RankedCandidate;

    /// Pops the best-bound candidate (bound descending, then overlap
    /// descending, then index ascending), refining the entries that reach
    /// the head on their key first.
    // lint:hot once per yielded or refined candidate of every bounded
    // search: a refinement rewrites the head in place, so the heap's
    // storage is reused and nothing allocates.
    fn next(&mut self) -> Option<RankedCandidate> {
        loop {
            let mut head = self.heap.peek_mut()?;
            if head.refined {
                let head = PeekMut::pop(head);
                return Some(RankedCandidate {
                    index: head.index,
                    bound: head.key,
                    overlap: head.overlap,
                });
            }
            let refine = self
                .refine
                .as_mut()
                .expect("only a frontier with a refine closure holds unrefined entries");
            let bound = refine(head.index);
            debug_assert!(bound <= head.key, "a key must dominate its bound");
            head.key = bound;
            head.refined = true;
            self.refinements += 1;
            // Dropping `head` sifts the refined entry down.
        }
    }
}

/// Exhaustively scores a corpus query with a [`CorpusScorer`] — the
/// brute-force oracle every bounded search is held to, bit for bit.
pub fn scan_top_k<S: CorpusScorer + ?Sized>(scorer: &S, query: usize, k: usize) -> Vec<SearchHit> {
    let query_id = scorer.workflow_id(query);
    let mut hits: Vec<SearchHit> = (0..scorer.corpus_len())
        .filter(|&i| i != query && scorer.workflow_id(i) != query_id)
        .map(|i| SearchHit {
            id: scorer.workflow_id(i).clone(),
            score: scorer.score(query, i),
        })
        .collect();
    hits.sort_by(hit_ordering);
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CancelToken;

    /// A toy corpus-resident measure: workflows are token-id sets, the
    /// similarity is the exact Jaccard index, the bound the size quotient.
    struct ToyScorer {
        ids: Vec<WorkflowId>,
        tokens: Vec<Vec<u32>>,
        bounded: bool,
    }

    impl ToyScorer {
        fn new(token_sets: &[&[u32]], bounded: bool) -> Self {
            ToyScorer {
                ids: (0..token_sets.len())
                    .map(|i| WorkflowId::new(format!("w{i:02}")))
                    .collect(),
                tokens: token_sets.iter().map(|t| t.to_vec()).collect(),
                bounded,
            }
        }

        fn jaccard(&self, a: usize, b: usize) -> f64 {
            let (ta, tb) = (&self.tokens[a], &self.tokens[b]);
            if ta.is_empty() && tb.is_empty() {
                return 1.0;
            }
            let inter = ta.iter().filter(|t| tb.contains(t)).count();
            inter as f64 / (ta.len() + tb.len() - inter) as f64
        }

        /// An admissible bound on the Jaccard index, `None` for an
        /// unbounded toy.
        fn bound(&self, query: usize, candidate: usize) -> Option<f64> {
            if !self.bounded {
                return None;
            }
            let (a, b) = (self.tokens[query].len(), self.tokens[candidate].len());
            Some(if a == 0 && b == 0 {
                1.0
            } else if a == 0 || b == 0 {
                0.0
            } else {
                // The intersection is at most min(a, b) and the union at
                // least max(a, b): the size quotient dominates the Jaccard.
                a.min(b) as f64 / a.max(b) as f64
            })
        }
    }

    impl CorpusScorer for ToyScorer {
        fn corpus_len(&self) -> usize {
            self.ids.len()
        }

        fn workflow_id(&self, index: usize) -> &WorkflowId {
            &self.ids[index]
        }

        fn score(&self, query: usize, candidate: usize) -> f64 {
            self.jaccard(query, candidate)
        }

        fn label_token_ids(&self, index: usize) -> &[u32] {
            &self.tokens[index]
        }
    }

    fn corpus() -> ToyScorer {
        ToyScorer::new(
            &[
                &[1, 2, 3],       // query
                &[1, 2, 3],       // identical
                &[1, 2, 9],       // close
                &[2, 7],          // some overlap
                &[7, 8],          // disjoint
                &[4, 5, 6, 7, 8], // disjoint, larger
                &[],              // empty
            ],
            true,
        )
    }

    /// A frontier whose bounds are exact: nothing to refine.
    fn exact(candidates: Vec<RankedCandidate>) -> RankedFrontier<fn(usize) -> f64> {
        RankedFrontier::new(candidates, None)
    }

    /// A best-bound-first search over the toy: every other workflow in a
    /// [`RankedFrontier`] under its token overlap and the key 1.0 (which
    /// dominates every Jaccard bound), refined to the toy bound at the
    /// head — or at `INFINITY`, refined already, when unbounded — then the
    /// one shared scan.
    fn frontier_top_k(scorer: &ToyScorer, query: usize, k: usize) -> (Vec<SearchHit>, SearchStats) {
        let overlaps = TokenIndex::build(scorer).overlap_counts(scorer.label_token_ids(query));
        let key = if scorer.bounded { 1.0 } else { f64::INFINITY };
        let candidates: Vec<RankedCandidate> = (0..scorer.corpus_len())
            .filter(|&i| i != query)
            .map(|i| RankedCandidate {
                index: i,
                bound: key,
                overlap: overlaps[i],
            })
            .collect();
        let mut stats = SearchStats {
            candidates: candidates.len(),
            shared_token_candidates: candidates.iter().filter(|c| c.overlap > 0).count(),
            ..SearchStats::default()
        };
        let refine = |i| scorer.bound(query, i).expect("only a bounded toy refines");
        let mut frontier = RankedFrontier::new(candidates, scorer.bounded.then_some(refine));
        let total = frontier.total();
        let mut top = TopK::new(k);
        scan_ranked_candidates(
            &mut frontier,
            total,
            &mut top,
            &CancelToken::never(),
            &mut stats,
            |i| scorer.score(query, i),
            |i| scorer.workflow_id(i).clone(),
        );
        stats.bounds_refined = frontier.bounds_refined();
        (top.into_sorted_hits(), stats)
    }

    /// The frontier scan returns the exhaustive scan's hits and accounts
    /// for every candidate exactly once — scored, pruned or resolved by a
    /// zero bound — at every k, bounded or not.
    #[test]
    fn frontier_scan_matches_exhaustive_scan_for_every_query_and_k() {
        for bounded in [true, false] {
            let mut scorer = corpus();
            scorer.bounded = bounded;
            for query in 0..scorer.corpus_len() {
                for k in [0, 1, 3, 6, 10] {
                    let (hits, stats) = frontier_top_k(&scorer, query, k);
                    let what = format!("bounded={bounded} q={query} k={k}");
                    assert_eq!(hits, scan_top_k(&scorer, query, k), "{what}");
                    assert_eq!(stats.candidates, scorer.corpus_len() - 1, "{what}");
                    assert_eq!(
                        stats.scored + stats.pruned + stats.zero_bound,
                        stats.candidates,
                        "{what}: {stats:?}"
                    );
                    if k == 0 {
                        assert_eq!(stats.pruned, stats.candidates, "{what}: scores nothing");
                    }
                    if bounded {
                        assert!(
                            stats.scored + stats.zero_bound <= stats.bounds_refined
                                && stats.bounds_refined <= stats.candidates,
                            "{what}: every yielded candidate was refined once: {stats:?}"
                        );
                    } else {
                        assert_eq!(stats.bounds_refined, 0, "{what}: nothing to refine");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_actually_skips_candidates() {
        let scorer = corpus();
        let (hits, stats) = frontier_top_k(&scorer, 0, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id.as_str(), "w01");
        assert_eq!(stats.candidates, 6);
        assert!(
            stats.scored < stats.candidates,
            "bound pruning must skip some of the disjoint candidates: {stats:?}"
        );
        assert_eq!(
            stats.scored + stats.pruned + stats.zero_bound,
            stats.candidates
        );
    }

    #[test]
    fn unbounded_measures_fall_back_to_an_exhaustive_scan() {
        let tokens: Vec<&[u32]> = vec![&[1, 2], &[1], &[3], &[2, 3]];
        let scorer = ToyScorer::new(&tokens, false);
        let (hits, stats) = frontier_top_k(&scorer, 0, 3);
        assert_eq!(hits, scan_top_k(&scorer, 0, 3));
        assert_eq!(stats.scored, stats.candidates, "nothing can be pruned");
    }

    #[test]
    fn token_index_postings_and_overlaps() {
        let scorer = corpus();
        let index = TokenIndex::build(&scorer);
        assert_eq!(index.workflow_count(), 7);
        assert!(index.token_count() >= 8);
        assert_eq!(index.postings(1), &[0, 1, 2]);
        assert_eq!(index.postings(42), &[] as &[u32]);
        let overlaps = index.overlap_counts(&[1, 2, 3]);
        assert_eq!(overlaps[1], 3);
        assert_eq!(overlaps[3], 1);
        assert_eq!(overlaps[4], 0);
    }

    /// Rebuilds the index over a subset of the toy corpus — the reference
    /// for the incremental-maintenance equality tests.
    fn rebuilt(token_sets: &[&[u32]]) -> TokenIndex {
        TokenIndex::build(&ToyScorer::new(token_sets, true))
    }

    #[test]
    fn incremental_add_equals_rebuild() {
        let sets: Vec<&[u32]> = vec![&[1, 2, 3], &[2, 7], &[], &[4, 5]];
        let mut index = rebuilt(&sets[..2]);
        assert_eq!(index.add_workflow(sets[2]), 2);
        assert_eq!(index.add_workflow(sets[3]), 3);
        assert_eq!(index, rebuilt(&sets));
    }

    #[test]
    fn incremental_remove_equals_rebuild_and_shifts_indices() {
        let sets: Vec<&[u32]> = vec![&[1, 2, 3], &[2, 7], &[7, 8], &[1, 8]];
        let mut index = rebuilt(&sets);
        index.remove_workflow(1);
        let survivors: Vec<&[u32]> = vec![sets[0], sets[2], sets[3]];
        assert_eq!(index, rebuilt(&survivors));
        // Token 7 lost its only other holder's neighbour; postings shifted.
        assert_eq!(index.postings(7), &[1]);
        assert_eq!(index.postings(1), &[0, 2]);
        // Removing the rest empties the index completely.
        index.remove_workflow(2);
        index.remove_workflow(0);
        index.remove_workflow(0);
        assert_eq!(index, TokenIndex::default());
        assert_eq!(index.token_count(), 0, "empty posting lists are dropped");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn incremental_remove_rejects_out_of_range_indices() {
        let mut index = rebuilt(&[&[1, 2]]);
        index.remove_workflow(1);
    }

    #[test]
    fn stats_fraction_is_sane() {
        let stats = SearchStats {
            candidates: 10,
            scored: 4,
            pruned: 5,
            zero_bound: 1,
            shared_token_candidates: 3,
            abandoned: 0,
            cancelled: false,
            bounds_refined: 6,
        };
        assert!((stats.pruned_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(SearchStats::default().pruned_fraction(), 0.0);
    }

    #[test]
    fn pre_fired_token_abandons_the_whole_stream() {
        let scorer = corpus();
        let mut candidates = Vec::new();
        for i in 1..scorer.corpus_len() {
            candidates.push(RankedCandidate {
                index: i,
                bound: scorer.bound(0, i).unwrap_or(1.0),
                overlap: 1,
            });
        }
        sort_best_bound_first(&mut candidates);
        let token = CancelToken::never();
        token.cancel();
        let mut stats = SearchStats::default();
        let total = candidates.len();
        let mut top = TopK::new(3);
        scan_ranked_candidates(
            candidates,
            total,
            &mut top,
            &token,
            &mut stats,
            |i| scorer.score(0, i),
            |i| scorer.workflow_id(i).clone(),
        );
        assert!(
            top.into_sorted_hits().is_empty(),
            "nothing was scored before the token fired"
        );
        assert!(stats.cancelled);
        assert_eq!(stats.abandoned, total);
        assert_eq!(stats.scored, 0);
    }

    #[test]
    fn never_token_scan_is_identical_to_uncancelled_scan() {
        let scorer = corpus();
        for query in 0..scorer.corpus_len() {
            let (hits, stats) = frontier_top_k(&scorer, query, 3);
            assert!(!stats.cancelled, "the never token must not fire");
            assert_eq!(stats.abandoned, 0);
            assert_eq!(hits, scan_top_k(&scorer, query, 3));
        }
    }

    #[test]
    fn mid_frontier_cancellation_keeps_exactly_the_scored_prefix() {
        // A token fired *during* the merged scan must yield precisely the
        // candidates scored before it fired — exact scores, nothing
        // half-done — and report the rest abandoned.
        let rc = |index, bound| RankedCandidate {
            index,
            bound,
            overlap: 1,
        };
        let frontier = exact(vec![rc(0, 0.9), rc(2, 0.5), rc(1, 0.8), rc(3, 0.4)]);
        let bounds = [0.9, 0.8, 0.5, 0.4];
        let token = CancelToken::never();
        let scored = std::cell::Cell::new(0usize);
        let mut stats = SearchStats::default();
        let total = frontier.total();
        let mut top = TopK::new(4);
        scan_ranked_candidates(
            frontier,
            total,
            &mut top,
            &token,
            &mut stats,
            |i| {
                scored.set(scored.get() + 1);
                if scored.get() == 3 {
                    token.cancel();
                }
                bounds[i]
            },
            |i| WorkflowId::from(format!("w{i}")),
        );
        // The third score trips the token; the poll before the fourth
        // candidate sees it, so the global best-bound prefix 0, 1, 2 is
        // scored and candidate 3 is abandoned un-scored.
        assert!(stats.cancelled);
        assert_eq!(stats.scored, 3);
        assert_eq!(stats.abandoned, 1);
        let mut hits = top.into_sorted_hits();
        hits.sort_by(|x, y| x.id.cmp(&y.id));
        let got: Vec<(String, u64)> = hits
            .iter()
            .map(|h| (h.id.to_string(), h.score.to_bits()))
            .collect();
        let want: Vec<(String, u64)> = (0..3)
            .map(|i| (format!("w{i}"), bounds[i].to_bits()))
            .collect();
        assert_eq!(got, want, "partial hits are exact and complete");
    }

    #[test]
    fn frontier_pops_shard_major_positions_in_global_best_bound_order() {
        let rc = |index, bound, overlap| RankedCandidate {
            index,
            bound,
            overlap,
        };
        // Two shards' candidates at shard-major positions (the first holds
        // 0..3, the second 3..6), unsorted and interleaved.
        let candidates = vec![
            rc(5, 0.5, 1),
            rc(2, 0.1, 0),
            rc(3, 0.7, 3),
            rc(0, 0.9, 2),
            rc(4, 0.5, 4),
            rc(1, 0.5, 1),
        ];
        let mut frontier = exact(candidates);
        assert_eq!(frontier.total(), 6);

        let order: Vec<usize> = frontier.by_ref().map(|c| c.index).collect();
        // 0.9 → 0.7 → the 0.5 tie resolves by overlap desc (4), then the
        // overlap-1 tie by position (the first shard's 1 before the
        // second's 5) → 0.1.
        assert_eq!(order, vec![0, 3, 4, 1, 5, 2]);
        assert!(
            frontier.next().is_none(),
            "a drained frontier yields nothing more"
        );
        assert_eq!(
            frontier.total(),
            6,
            "the total counts popped candidates too"
        );
    }

    #[test]
    fn merged_stats_propagate_cancellation() {
        let mut a = SearchStats {
            abandoned: 3,
            cancelled: true,
            bounds_refined: 4,
            ..SearchStats::default()
        };
        let b = SearchStats {
            abandoned: 2,
            cancelled: false,
            bounds_refined: 7,
            ..SearchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.abandoned, 5);
        assert_eq!(a.bounds_refined, 11);
        assert!(a.cancelled, "cancellation is sticky under merge");
    }
}
