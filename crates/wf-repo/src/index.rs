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
//! The engine is exact: because every bound is admissible (`bound(q, c) >=
//! score(q, c)` and scores are non-negative), a candidate is skipped only
//! when it provably cannot enter the result list, and a candidate whose
//! bound is `0` is known to score exactly `0` without running the measure.
//! The returned hit lists are therefore bit-identical — ids, scores and
//! tie-order — to an exhaustive [`crate::SearchEngine::top_k`] scan.
//! Measures that cannot provide a bound (`upper_bound` returning `None`)
//! degrade gracefully to an exhaustive — but still corpus-resident — scan.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use wf_model::WorkflowId;

use crate::search::{hit_ordering, merge_top_k, SearchHit, SearchThreshold, TopK};

/// A corpus-resident similarity measure addressable by corpus index.
///
/// Implementations precompute per-workflow features once (profiles) and
/// score pairs from those features.  Contract:
///
/// * `score` is non-negative and deterministic;
/// * `upper_bound`, when `Some`, is *admissible*: `upper_bound(q, c) >=
///   score(q, c)` for every pair — the indexed search relies on this for
///   exactness;
/// * `label_token_ids` returns the distinct interned label tokens of a
///   workflow, sorted ascending.
pub trait CorpusScorer: Sync {
    /// Number of workflows in the corpus.
    fn corpus_len(&self) -> usize;

    /// The id of the workflow at a corpus index.
    fn workflow_id(&self, index: usize) -> &WorkflowId;

    /// The exact similarity of two corpus workflows.
    fn score(&self, query: usize, candidate: usize) -> f64;

    /// A cheap admissible upper bound on [`CorpusScorer::score`], or `None`
    /// when the measure cannot bound this pair (forcing it to be scored).
    fn upper_bound(&self, query: usize, candidate: usize) -> Option<f64>;

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

/// The one prune-and-score loop behind every bound-pruned top-k scan — the
/// indexed engine and every unit of a sharded scatter-gather search walk
/// their candidates through here, so the zero-bound short-circuit, the strict-below-floor pruning
/// and the stats accounting can never drift apart between engines.
///
/// `candidates` must arrive in [`sort_best_bound_first`] order, or as a
/// [`RankedFrontier`] (`total` is its length, needed for prune
/// accounting); `score` computes the exact score of a candidate index and
/// `id_of` resolves its workflow id.  Each
/// new worst-of-k is published to `threshold`, and the loop stops as soon
/// as the best remaining bound falls *strictly* below the threshold floor
/// — admissible, so the kept hits (returned in heap order; gather them
/// with [`merge_top_k`]) are exactly the true top-k contributions of this
/// candidate stream.
///
/// `cancel` is polled between candidates: once it fires, the remaining
/// stream is abandoned (`stats.abandoned`, `stats.cancelled`) and the hits
/// gathered so far are returned — each still an exact score, so a
/// deadline-bound caller can serve them as an honest *partial* result.
/// Non-deadline callers pass [`CancelToken::never`], which reduces the
/// poll to one relaxed load.
// lint:hot this loop runs once per candidate of every indexed search;
// wfsim_lint forbids lock acquisition and heap allocation inside it.
#[allow(clippy::too_many_arguments)] // the scan's full contract: stream + budget + cancellation
pub fn scan_ranked_candidates<I, F, G>(
    candidates: I,
    total: usize,
    k: usize,
    threshold: &SearchThreshold,
    cancel: &crate::search::CancelToken,
    stats: &mut SearchStats,
    mut score: F,
    mut id_of: G,
) -> Vec<SearchHit>
where
    I: IntoIterator<Item = RankedCandidate>,
    F: FnMut(usize) -> f64,
    G: FnMut(usize) -> WorkflowId,
{
    if k == 0 {
        stats.pruned += total;
        return Vec::new();
    }
    let mut top = TopK::new(k);
    let mut remaining = total;
    for candidate in candidates {
        // A fired deadline abandons the rest of the stream: everything
        // already kept is exact, so the caller can mark the merged result
        // degraded instead of blocking past its SLO.
        if cancel.is_cancelled() {
            stats.abandoned += remaining;
            stats.cancelled = true;
            break;
        }
        // Best-bound-first order: once the bound of the next candidate
        // drops below the floor, no later candidate can displace anything
        // (score <= bound < floor <= final k-th best), so stop scoring.
        if candidate.bound < threshold.floor() {
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
            threshold.observe(worst);
        }
    }
    top.into_hits()
}

/// A pull-based merge of several candidate lists into one global
/// best-bound-first stream.
///
/// This is the scheduling core of the sharded scatter-gather search: each
/// shard contributes its candidate list as a *cursor*, and the frontier
/// always yields the globally best-bound head across all cursors — so a
/// single [`scan_ranked_candidates`] over the frontier prunes with the same
/// power as one engine over the whole corpus, independent of how the
/// candidates are partitioned.
///
/// Each cursor is a binary heap in the canonical [`sort_best_bound_first`]
/// order, built in O(n) and popped in O(log n): a scan that prunes after a
/// few dozen candidates never pays for sorting the thousands it skips, and
/// every cursor still yields exactly its sorted sequence (the order is
/// total, so the heap has no tie of its own to break).
///
/// Ties across cursors (equal bound and overlap) resolve to the earliest
/// cursor — a deterministic order; the final top-k content is
/// insertion-order independent anyway (every non-pruned candidate is
/// scored exactly, and [`TopK`] keeps the k best under the canonical
/// score-then-id order).  What the frontier has yielded is not a coverage
/// report: [`scan_ranked_candidates`] pops a candidate before it checks
/// its cancel token, so callers report coverage from the scan's
/// `stats.cancelled`.
pub struct RankedFrontier {
    cursors: Vec<BinaryHeap<ScanFirst>>,
    total: usize,
}

/// A [`RankedCandidate`] ordered so that the max-heap pops the candidate
/// [`scan_order`] scans first.
struct ScanFirst(RankedCandidate);

impl Ord for ScanFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        scan_order(&other.0, &self.0)
    }
}

impl PartialOrd for ScanFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ScanFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ScanFirst {}

impl RankedFrontier {
    /// A frontier over per-cursor candidate lists, in any order.
    pub fn new(lists: Vec<Vec<RankedCandidate>>) -> Self {
        let total = lists.iter().map(Vec::len).sum();
        let cursors = lists
            .into_iter()
            .map(|list| list.into_iter().map(ScanFirst).collect())
            .collect();
        RankedFrontier { cursors, total }
    }

    /// Total candidates across all cursors, popped or not.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl Iterator for RankedFrontier {
    type Item = RankedCandidate;

    /// Pops the globally best-bound candidate across all cursor heads
    /// (bound descending, then overlap descending, then earliest cursor).
    // lint:hot runs once per candidate of every sharded search; wfsim_lint
    // forbids lock acquisition and heap allocation here.
    fn next(&mut self) -> Option<RankedCandidate> {
        let mut best: Option<(usize, &RankedCandidate)> = None;
        for (cursor, heap) in self.cursors.iter().enumerate() {
            let Some(ScanFirst(head)) = heap.peek() else {
                continue;
            };
            let better = match best {
                None => true,
                Some((_, leader)) => {
                    head.bound > leader.bound
                        || (head.bound == leader.bound && head.overlap > leader.overlap)
                }
            };
            if better {
                best = Some((cursor, head));
            }
        }
        let (cursor, _) = best?;
        self.cursors[cursor].pop().map(|ScanFirst(head)| head)
    }
}

/// The index-accelerated top-k search engine.
pub struct IndexedSearchEngine<'s, S: CorpusScorer + ?Sized> {
    scorer: &'s S,
    index: Cow<'s, TokenIndex>,
}

impl<'s, S: CorpusScorer + ?Sized> IndexedSearchEngine<'s, S> {
    /// Builds the inverted index and wraps the measure.
    pub fn new(scorer: &'s S) -> Self {
        IndexedSearchEngine {
            index: Cow::Owned(TokenIndex::build(scorer)),
            scorer,
        }
    }

    /// Wraps a measure around an index built (or incrementally maintained)
    /// elsewhere — e.g. the corpus-resident index of a `Corpus` — making
    /// engine construction free of any per-query or per-engine index work.
    ///
    /// The index must cover exactly the scorer's corpus
    /// (`index.workflow_count() == scorer.corpus_len()`, asserted).
    pub fn with_index(scorer: &'s S, index: &'s TokenIndex) -> Self {
        assert_eq!(
            index.workflow_count(),
            scorer.corpus_len(),
            "index and corpus cover a different number of workflows"
        );
        IndexedSearchEngine {
            index: Cow::Borrowed(index),
            scorer,
        }
    }

    /// The underlying inverted index.
    pub fn index(&self) -> &TokenIndex {
        &self.index
    }

    /// The `k` workflows most similar to the corpus workflow at
    /// `query` (which is itself excluded), best first.
    pub fn top_k(&self, query: usize, k: usize) -> Vec<SearchHit> {
        self.top_k_with_stats(query, k).0
    }

    /// [`IndexedSearchEngine::top_k`] plus pruning instrumentation.
    pub fn top_k_with_stats(&self, query: usize, k: usize) -> (Vec<SearchHit>, SearchStats) {
        let (candidates, mut stats) = self.ranked_candidates(query);
        // A fresh threshold makes the shared scan prune exactly on the
        // running worst-of-k, as a dedicated sequential loop would.
        let total = candidates.len();
        let hits = scan_ranked_candidates(
            candidates,
            total,
            k,
            &SearchThreshold::new(),
            &crate::search::CancelToken::never(),
            &mut stats,
            |i| self.scorer.score(query, i),
            |i| self.scorer.workflow_id(i).clone(),
        );
        (merge_top_k([hits], k), stats)
    }

    /// All candidates (corpus minus query) with their bounds and token
    /// overlaps, sorted best-bound-first.
    fn ranked_candidates(&self, query: usize) -> (Vec<RankedCandidate>, SearchStats) {
        let n = self.scorer.corpus_len();
        let overlaps = self
            .index
            .overlap_counts(self.scorer.label_token_ids(query));
        let query_id = self.scorer.workflow_id(query);
        let mut stats = SearchStats::default();
        let mut candidates = Vec::with_capacity(n.saturating_sub(1));
        for (i, &overlap) in overlaps.iter().enumerate().take(n) {
            if i == query || self.scorer.workflow_id(i) == query_id {
                continue;
            }
            if overlap > 0 {
                stats.shared_token_candidates += 1;
            }
            // Unbounded measures sort first (infinite bound) and are always
            // scored: the search degrades to an exhaustive profiled scan.
            let bound = self.scorer.upper_bound(query, i).unwrap_or(f64::INFINITY);
            candidates.push(RankedCandidate {
                index: i,
                bound,
                overlap,
            });
        }
        stats.candidates = candidates.len();
        sort_best_bound_first(&mut candidates);
        (candidates, stats)
    }
}

/// Exhaustively scores a corpus query with a [`CorpusScorer`] — the
/// reference the indexed engine is validated against, and the fallback for
/// callers that want profiled scoring without index construction.
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

        fn upper_bound(&self, query: usize, candidate: usize) -> Option<f64> {
            if !self.bounded {
                return None;
            }
            let (a, b) = (self.tokens[query].len(), self.tokens[candidate].len());
            Some(if a == 0 && b == 0 {
                1.0
            } else if a == 0 || b == 0 {
                0.0
            } else {
                // Tighter and still admissible: intersection can be at most
                // min(a, b), but with *zero* shared tokens it is zero; use
                // the size quotient, which dominates the true Jaccard.
                a.min(b) as f64 / a.max(b) as f64
            })
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

    #[test]
    fn indexed_matches_exhaustive_scan_for_every_query_and_k() {
        let scorer = corpus();
        let engine = IndexedSearchEngine::new(&scorer);
        for query in 0..scorer.corpus_len() {
            for k in [0, 1, 3, 6, 10] {
                let expected = scan_top_k(&scorer, query, k);
                assert_eq!(engine.top_k(query, k), expected, "q={query} k={k}");
                assert_eq!(
                    engine.top_k_with_stats(query, k).0,
                    expected,
                    "with stats q={query} k={k}"
                );
            }
        }
    }

    #[test]
    fn pruning_actually_skips_candidates() {
        let scorer = corpus();
        let engine = IndexedSearchEngine::new(&scorer);
        let (hits, stats) = engine.top_k_with_stats(0, 2);
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
        let engine = IndexedSearchEngine::new(&scorer);
        let (hits, stats) = engine.top_k_with_stats(0, 3);
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
    fn engine_with_external_index_matches_engine_with_built_index() {
        let scorer = corpus();
        let index = TokenIndex::build(&scorer);
        let external = IndexedSearchEngine::with_index(&scorer, &index);
        let built = IndexedSearchEngine::new(&scorer);
        for query in 0..scorer.corpus_len() {
            assert_eq!(external.top_k(query, 3), built.top_k(query, 3));
        }
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
                bound: scorer.upper_bound(0, i).unwrap_or(1.0),
                overlap: 1,
            });
        }
        sort_best_bound_first(&mut candidates);
        let token = crate::search::CancelToken::never();
        token.cancel();
        let mut stats = SearchStats::default();
        let total = candidates.len();
        let hits = scan_ranked_candidates(
            candidates,
            total,
            3,
            &SearchThreshold::new(),
            &token,
            &mut stats,
            |i| scorer.score(0, i),
            |i| scorer.workflow_id(i).clone(),
        );
        assert!(hits.is_empty(), "nothing was scored before the token fired");
        assert!(stats.cancelled);
        assert_eq!(stats.abandoned, total);
        assert_eq!(stats.scored, 0);
    }

    #[test]
    fn never_token_scan_is_identical_to_uncancelled_scan() {
        let scorer = corpus();
        let engine = IndexedSearchEngine::new(&scorer);
        for query in 0..scorer.corpus_len() {
            let (hits, stats) = engine.top_k_with_stats(query, 3);
            assert!(!stats.cancelled, "the never token must not fire");
            assert_eq!(stats.abandoned, 0);
            assert_eq!(hits, engine.top_k(query, 3));
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
        let a = vec![rc(0, 0.9), rc(2, 0.5)];
        let b = vec![rc(1, 0.8), rc(3, 0.4)];
        let frontier = RankedFrontier::new(vec![a, b]);
        let bounds = [0.9, 0.8, 0.5, 0.4];
        let token = crate::search::CancelToken::never();
        let scored = std::cell::Cell::new(0usize);
        let mut stats = SearchStats::default();
        let total = frontier.total();
        let hits = scan_ranked_candidates(
            frontier,
            total,
            4,
            &SearchThreshold::new(),
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
        let mut hits = crate::search::merge_top_k(vec![hits], 4);
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
    fn frontier_merges_cursors_into_global_best_bound_order() {
        let rc = |index, bound, overlap| RankedCandidate {
            index,
            bound,
            overlap,
        };
        // Two unsorted cursors with interleaved bounds, plus an empty one.
        let a = vec![rc(2, 0.1, 0), rc(0, 0.9, 2), rc(1, 0.5, 1)];
        let b = vec![rc(5, 0.5, 1), rc(3, 0.7, 3), rc(4, 0.5, 4)];
        let mut frontier = RankedFrontier::new(vec![a, Vec::new(), b]);
        assert_eq!(frontier.total(), 6);

        let order: Vec<usize> = frontier.by_ref().map(|c| c.index).collect();
        // 0.9 → 0.7 → the 0.5 tie resolves by overlap desc (4), then the
        // overlap-1 tie by earliest cursor (cursor 0's index 1 before
        // cursor 2's index 5) → 0.1.
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
            ..SearchStats::default()
        };
        let b = SearchStats {
            abandoned: 2,
            cancelled: false,
            ..SearchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.abandoned, 5);
        assert!(a.cancelled, "cancellation is sticky under merge");
    }
}
