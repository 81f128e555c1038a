//! Top-k similarity search over a repository.
//!
//! The retrieval experiment of the paper (Section 5.2) runs each algorithm
//! "to each retrieve the top-10 similar workflows from our complete dataset
//! of 1483 Taverna workflows".  [`SearchEngine`] implements exactly that
//! operation, generic over the similarity measure (any
//! `Fn(&Workflow, &Workflow) -> f64`): an exhaustive scan that scores
//! fixed-size chunks of the repository on every core ([`claim_units`]),
//! each chunk into its own bounded top-k heap, merged once at the end, so
//! no lock sits on the scoring path.  It is the reference the pipeline's
//! measures are held to.
//!
//! The corpus-resident search in [`crate::index`] prunes candidates with
//! admissible bounds before scoring them; this module provides the
//! exhaustive reference and the shared top-k machinery.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use wf_model::{Workflow, WorkflowId};

use crate::repository::Repository;

/// One search result: a workflow id and its similarity to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The id of the retrieved workflow.
    pub id: WorkflowId,
    /// Its similarity to the query workflow.
    pub score: f64,
}

/// The canonical result ordering: higher scores first, ties broken by
/// ascending workflow id.  `Ordering::Less` means `a` ranks before `b`.
pub(crate) fn hit_ordering(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.id.cmp(&b.id))
}

/// Heap entry ordered so that the *worst* hit is the heap maximum.
struct WorstFirst(SearchHit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        hit_ordering(&self.0, &other.0) == Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        // A hit that ranks *later* (Greater in hit_ordering) is "bigger"
        // here, so BinaryHeap::peek surfaces the weakest kept hit.
        hit_ordering(&self.0, &other.0)
    }
}

/// A bounded top-k accumulator over [`SearchHit`]s.
///
/// Keeps at most `k` hits; the weakest kept hit is inspectable in `O(1)`,
/// which lets bound-aware callers stop scoring candidates that provably
/// cannot enter the result list.  Produces exactly the hits (ids, scores
/// and tie-order) a full sort of all inserted hits would produce.
pub struct TopK {
    pub(crate) k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    /// An accumulator for the best `k` hits.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(1024).saturating_add(1)),
        }
    }

    /// True once `k` hits are kept (new hits must displace the weakest).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The score of the weakest kept hit, if the accumulator is full.
    pub fn worst_score(&self) -> Option<f64> {
        if self.is_full() {
            self.heap.peek().map(|w| w.0.score)
        } else {
            None
        }
    }

    /// Offers one hit, keeping it only while it belongs to the top `k`.
    pub fn insert(&mut self, hit: SearchHit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
            return;
        }
        let worst = self.heap.peek().expect("heap is full, k > 0");
        if hit_ordering(&hit, &worst.0) == Ordering::Less {
            self.heap.pop();
            self.heap.push(WorstFirst(hit));
        }
    }

    /// The kept hits, best first.
    pub fn into_sorted_hits(self) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self.heap.into_iter().map(|w| w.0).collect();
        hits.sort_unstable_by(hit_ordering);
        hits
    }

    /// The kept hits in heap order (for merging several accumulators).
    pub fn into_hits(self) -> Vec<SearchHit> {
        self.heap.into_iter().map(|w| w.0).collect()
    }
}

/// Merges several partial hit lists into one global top-k, best first.
///
/// This is the gather step of [`SearchEngine::top_k`], whose chunks each
/// fill their own heap on a worker thread.  The merge runs every hit
/// through one bounded [`TopK`] heap
/// (`O(total · log k)` instead of sorting all partials), so it produces
/// exactly the hits — ids, scores *and* tie order — that a full
/// [canonical](TopK) sort of the concatenated partials would produce,
/// regardless of the order in which the partial lists arrive.
pub fn merge_top_k(parts: impl IntoIterator<Item = Vec<SearchHit>>, k: usize) -> Vec<SearchHit> {
    let mut top = TopK::new(k);
    for part in parts {
        for hit in part {
            top.insert(hit);
        }
    }
    top.into_sorted_hits()
}

/// A cooperative cancellation token with an optional deadline, shared by
/// every branch of one search (the shards of a scatter-gather, the workers
/// of a parallel scan).
///
/// Serving a query under a latency SLO means the search must be able to
/// *stop* — not block past its deadline — and return whatever it has
/// proven so far.  The token carries that decision: branches poll
/// [`CancelToken::is_cancelled`] between candidates and abandon the rest
/// of their stream once it fires, flagging the abandonment in their
/// [`SearchStats`](crate::SearchStats) so callers can mark the merged
/// result `degraded` instead of presenting a partial answer as complete.
///
/// Cancellation fires when the deadline passes *or* when a caller flips
/// the flag explicitly ([`CancelToken::cancel`]); once fired it never
/// resets.  Every score a cancelled search returns is still a true score —
/// cancellation only truncates the candidate stream, it never corrupts it.
#[derive(Debug)]
pub struct CancelToken {
    cancelled: std::sync::atomic::AtomicBool,
    deadline: Option<std::time::Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (no deadline); only an explicit
    /// [`CancelToken::cancel`] can trip it.  This is the token every
    /// non-deadline search path uses — checking it costs one relaxed load.
    pub fn never() -> Self {
        CancelToken {
            cancelled: std::sync::atomic::AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token that fires at `deadline`.
    pub fn at(deadline: std::time::Instant) -> Self {
        CancelToken {
            cancelled: std::sync::atomic::AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// A token that fires `budget` from now.
    pub fn after(budget: std::time::Duration) -> Self {
        CancelToken::at(std::time::Instant::now() + budget)
    }

    /// Trips the token immediately (idempotent; never un-trips).
    pub fn cancel(&self) {
        // ordering: Relaxed — the flag is a monotone one-way latch carrying
        // no payload: a branch that observes it late merely scores a few
        // more candidates, and every candidate it scores is still exact.
        self.cancelled.store(true, AtomicOrdering::Relaxed);
    }

    /// True once the token has fired (explicitly or by deadline).  A
    /// deadline expiry is latched into the flag so later polls skip the
    /// clock read.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — see `cancel`: a stale read only delays the
        // stop by one poll interval and never affects result exactness.
        if self.cancelled.load(AtomicOrdering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if std::time::Instant::now() >= deadline => {
                self.cancel();
                true
            }
            _ => false,
        }
    }

    /// Time left until the deadline (`None` without a deadline, zero once
    /// passed or cancelled).
    pub fn remaining(&self) -> Option<std::time::Duration> {
        let deadline = self.deadline?;
        // ordering: Relaxed — same one-way latch as `is_cancelled`.
        if self.cancelled.load(AtomicOrdering::Relaxed) {
            return Some(std::time::Duration::ZERO);
        }
        Some(deadline.saturating_duration_since(std::time::Instant::now()))
    }
}

/// Runs `job` once for every index in `0..units`, returning the results in
/// index order.  One worker runs the jobs inline on the calling thread and
/// spawns nothing, which keeps shuttle-mini model runs legal; more workers
/// are plain `std` scoped threads that claim indices off one shared
/// ticket, so a slow job pins only the worker that claimed it.  A job that
/// panics re-raises its panic on the calling thread.
pub fn claim_units<T: Send>(
    units: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    // At least one worker, and no more than there are units to claim.
    let workers = workers.max(1).min(units.max(1));
    if workers == 1 {
        return (0..units).map(job).collect();
    }
    let ticket = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (ticket, job) = (&ticket, &job);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // ordering: Relaxed — a pure work-stealing ticket:
                        // fetch_add's atomicity hands each index to exactly
                        // one worker, and the scope join below is the
                        // synchronization edge for the results.
                        let unit = ticket.fetch_add(1, AtomicOrdering::Relaxed);
                        if unit >= units {
                            return done;
                        }
                        done.push((unit, job(unit)));
                    }
                })
            })
            .collect();
        for handle in handles {
            // A worker's panic is re-raised on the caller with its own
            // payload, so a panic boundary above reports the real cause.
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (unit, result) in done {
                slots[unit] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit is claimed exactly once"))
        .collect()
}

/// Candidates one [`SearchEngine::top_k`] work unit scores: small enough
/// that a repository of a few hundred workflows spreads over every core,
/// large enough that claiming a unit costs nothing next to scoring it.
const SCAN_CHUNK: usize = 64;

/// A top-k similarity search engine over one repository.
pub struct SearchEngine<'r, F> {
    repository: &'r Repository,
    similarity: F,
}

impl<'r, F> SearchEngine<'r, F>
where
    F: Fn(&Workflow, &Workflow) -> f64 + Sync,
{
    /// Creates a search engine over `repository` using the given similarity
    /// measure.
    pub fn new(repository: &'r Repository, similarity: F) -> Self {
        SearchEngine {
            repository,
            similarity,
        }
    }

    /// Scores every workflow in the repository against the query and returns
    /// the `k` most similar ones, best first.  The query workflow itself
    /// (same id) is excluded — retrieving the query is trivially perfect and
    /// the paper's result lists do not contain it.
    ///
    /// The candidates are scored in chunks of `SCAN_CHUNK` (64) on
    /// `available_parallelism()` workers ([`claim_units`]; inline when
    /// there is one), each chunk into its own bounded [`TopK`].  The
    /// merge is canonical, so the hits equal a full sort of every score.
    pub fn top_k(&self, query: &Workflow, k: usize) -> Vec<SearchHit> {
        let candidates: Vec<&Workflow> = self
            .repository
            .iter()
            .filter(|wf| wf.id != query.id)
            .collect();
        let chunks: Vec<&[&Workflow]> = candidates.chunks(SCAN_CHUNK).collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parts = claim_units(chunks.len(), workers, |chunk| {
            let mut local = TopK::new(k);
            for wf in chunks[chunk] {
                local.insert(SearchHit {
                    id: wf.id.clone(),
                    score: (self.similarity)(query, wf),
                });
            }
            local.into_hits()
        });
        merge_top_k(parts, k)
    }

    /// Ranks an explicit candidate list (by id) against the query — the
    /// operation behind the first (ranking) experiment, where each query
    /// comes with 10 preselected candidates.  Unknown ids are skipped.
    pub fn rank_candidates(
        &self,
        query: &Workflow,
        candidate_ids: &[WorkflowId],
    ) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = candidate_ids
            .iter()
            .filter_map(|id| self.repository.get(id))
            .map(|wf| SearchHit {
                id: wf.id.clone(),
                score: (self.similarity)(query, wf),
            })
            .collect();
        sort_and_truncate(&mut hits, usize::MAX);
        hits
    }
}

/// Keeps the best `k` hits of `hits`, sorted best first.
///
/// Uses `select_nth_unstable_by` to partition the top `k` in `O(n)` before
/// sorting only those `k`, so retrieving 10 results from a large corpus
/// stops paying the full `O(n log n)`.
pub(crate) fn sort_and_truncate(hits: &mut Vec<SearchHit>, k: usize) {
    if k == 0 {
        hits.clear();
        return;
    }
    if k < hits.len() {
        hits.select_nth_unstable_by(k - 1, hit_ordering);
        hits.truncate(k);
    }
    hits.sort_unstable_by(hit_ordering);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::{builder::WorkflowBuilder, ModuleType};

    fn wf(id: &str, labels: &[&str]) -> Workflow {
        let mut b = WorkflowBuilder::new(id).title(format!("workflow {id}"));
        for l in labels {
            b = b.module(*l, ModuleType::WsdlService, |m| m);
        }
        for pair in labels.windows(2) {
            b = b.link(pair[0], pair[1]);
        }
        b.build().unwrap()
    }

    /// Similarity: Jaccard overlap of module label sets.
    fn label_overlap(a: &Workflow, b: &Workflow) -> f64 {
        let la: std::collections::BTreeSet<&str> =
            a.modules.iter().map(|m| m.label.as_str()).collect();
        let lb: std::collections::BTreeSet<&str> =
            b.modules.iter().map(|m| m.label.as_str()).collect();
        let inter = la.intersection(&lb).count() as f64;
        let union = la.union(&lb).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    fn repository() -> Repository {
        Repository::from_workflows(vec![
            wf("q", &["fetch", "blast", "plot"]),
            wf("close", &["fetch", "blast", "render"]),
            wf("medium", &["fetch", "align"]),
            wf("far", &["download", "cluster"]),
        ])
    }

    #[test]
    fn top_k_orders_by_similarity_and_excludes_the_query() {
        let repo = repository();
        let engine = SearchEngine::new(&repo, label_overlap);
        let query = repo.get_str("q").unwrap();
        let hits = engine.top_k(query, 10);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id.as_str(), "close");
        assert_eq!(hits[1].id.as_str(), "medium");
        assert_eq!(hits[2].id.as_str(), "far");
        assert!(hits[0].score > hits[1].score);
        assert!(hits.iter().all(|h| h.id.as_str() != "q"));
    }

    #[test]
    fn top_k_truncates_to_k() {
        let repo = repository();
        let engine = SearchEngine::new(&repo, label_overlap);
        let query = repo.get_str("q").unwrap();
        assert_eq!(engine.top_k(query, 1).len(), 1);
        assert_eq!(engine.top_k(query, 0).len(), 0);
    }

    /// The chunked, multi-worker scan against one full sort, on a
    /// repository spanning several chunks whose scores repeat every four
    /// workflows, so most of the order is decided by id.
    #[test]
    fn top_k_over_several_chunks_equals_a_full_sort() {
        let labels: [&[&str]; 4] = [&["fetch"], &["fetch", "blast"], &["render"], &[]];
        let n = 3 * SCAN_CHUNK + 5;
        let mut workflows = vec![wf("q", &["fetch", "blast", "plot"])];
        workflows.extend((0..n).map(|i| wf(&format!("w{:03}", n - i), labels[i % 4])));
        let repo = Repository::from_workflows(workflows);
        let engine = SearchEngine::new(&repo, label_overlap);
        let query = repo.get_str("q").unwrap();
        let mut expected: Vec<SearchHit> = repo
            .iter()
            .filter(|wf| wf.id != query.id)
            .map(|wf| SearchHit {
                id: wf.id.clone(),
                score: label_overlap(query, wf),
            })
            .collect();
        expected.sort_by(hit_ordering);
        assert_eq!(expected.len(), n);
        for k in [0, 1, 10, n] {
            assert_eq!(engine.top_k(query, k), expected[..k], "k = {k}");
        }
    }

    #[test]
    fn top_k_on_an_empty_repository_returns_no_hits() {
        let repo = Repository::from_workflows(vec![wf("q", &["a"])]);
        let engine = SearchEngine::new(&repo, label_overlap);
        let query = repo.get_str("q").unwrap().clone();
        assert!(engine.top_k(&query, 5).is_empty(), "only the query itself");
        let empty = Repository::from_workflows(Vec::new());
        assert!(SearchEngine::new(&empty, label_overlap)
            .top_k(&query, 5)
            .is_empty());
    }

    #[test]
    fn claim_units_returns_every_result_in_index_order() {
        for workers in [0, 1, 2, 5, 64] {
            let squares = claim_units(7, workers, |i| i * i);
            assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36], "{workers} workers");
            assert!(claim_units(0, workers, |i| i).is_empty());
        }
    }

    #[test]
    fn claim_units_re_raises_a_worker_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            claim_units(6, 2, |i| {
                if i == 3 {
                    panic!("unit {i} failed on purpose");
                }
                i
            })
        });
        let payload = caught.expect_err("the unit's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("unit 3 failed on purpose")
        );
    }

    #[test]
    fn rank_candidates_scores_only_the_given_ids() {
        let repo = repository();
        let engine = SearchEngine::new(&repo, label_overlap);
        let query = repo.get_str("q").unwrap();
        let hits = engine.rank_candidates(
            query,
            &[
                WorkflowId::new("far"),
                WorkflowId::new("close"),
                WorkflowId::new("does-not-exist"),
            ],
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id.as_str(), "close");
        assert_eq!(hits[1].id.as_str(), "far");
    }

    #[test]
    fn ties_are_broken_deterministically_by_id() {
        let repo = Repository::from_workflows(vec![
            wf("q", &["a"]),
            wf("z-tied", &["x"]),
            wf("a-tied", &["y"]),
        ]);
        let engine = SearchEngine::new(&repo, |_: &Workflow, _: &Workflow| 0.5);
        let query = repo.get_str("q").unwrap();
        let hits = engine.top_k(query, 10);
        assert_eq!(hits[0].id.as_str(), "a-tied");
        assert_eq!(hits[1].id.as_str(), "z-tied");
    }

    #[test]
    fn topk_accumulator_equals_full_sort() {
        // Scores engineered with duplicates to exercise tie handling.
        let scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.3, 0.5, 0.0, 1.0, 0.9];
        let hits: Vec<SearchHit> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| SearchHit {
                id: WorkflowId::new(format!("w{i:02}")),
                score: s,
            })
            .collect();
        for k in 0..=scores.len() + 1 {
            let mut acc = TopK::new(k);
            for h in &hits {
                acc.insert(h.clone());
            }
            let mut expected = hits.clone();
            sort_and_truncate(&mut expected, k);
            assert_eq!(acc.into_sorted_hits(), expected, "k = {k}");
        }
    }

    fn hit(id: &str, score: f64) -> SearchHit {
        SearchHit {
            id: WorkflowId::new(id),
            score,
        }
    }

    /// The merge contract: for any split of the hits into partial lists,
    /// merging equals a full canonical sort of the concatenation.
    #[test]
    fn merge_top_k_equals_full_sort_for_any_partition() {
        let hits = vec![
            hit("w05", 0.5),
            hit("w01", 0.9),
            hit("w09", 0.5), // ties with w05 and w03 — id order decides
            hit("w07", 0.1),
            hit("w03", 0.5),
            hit("w02", 0.9), // ties with w01
            hit("w08", 0.0),
        ];
        let splits: Vec<Vec<Vec<SearchHit>>> = vec![
            vec![hits.clone()],                                   // one part
            hits.iter().map(|h| vec![h.clone()]).collect(),       // singletons
            vec![hits[..3].to_vec(), vec![], hits[3..].to_vec()], // empty part
        ];
        for k in [0, 1, 3, hits.len(), hits.len() + 5] {
            let mut expected = hits.clone();
            sort_and_truncate(&mut expected, k);
            for (i, parts) in splits.iter().enumerate() {
                assert_eq!(
                    merge_top_k(parts.clone(), k),
                    expected,
                    "k = {k}, split {i}"
                );
            }
        }
    }

    #[test]
    fn merge_top_k_edge_cases() {
        // k = 0 and no parts at all.
        assert!(merge_top_k(vec![vec![hit("a", 1.0)]], 0).is_empty());
        assert!(merge_top_k(Vec::<Vec<SearchHit>>::new(), 5).is_empty());
        // k far beyond the corpus returns everything, sorted.
        let merged = merge_top_k(vec![vec![hit("b", 0.2)], vec![hit("a", 0.8)]], 100);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].id.as_str(), "a");
        // Equal scores everywhere: pure ascending-id order survives.
        let tied = merge_top_k(
            vec![vec![hit("z", 0.5), hit("m", 0.5)], vec![hit("a", 0.5)]],
            2,
        );
        assert_eq!(tied[0].id.as_str(), "a");
        assert_eq!(tied[1].id.as_str(), "m");
    }

    #[test]
    fn partial_sort_matches_full_sort_on_random_scores() {
        // Deterministic pseudo-random scores via a simple LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut hits = Vec::new();
        for i in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let score = ((state >> 11) % 1000) as f64 / 1000.0;
            hits.push(SearchHit {
                id: WorkflowId::new(format!("w{i:03}")),
                score,
            });
        }
        for k in [0, 1, 7, 10, 199, 200, 500] {
            let mut full = hits.clone();
            full.sort_by(hit_ordering);
            full.truncate(k);
            let mut partial = hits.clone();
            sort_and_truncate(&mut partial, k);
            assert_eq!(partial, full, "k = {k}");
        }
    }

    #[test]
    fn cancel_token_never_never_fires() {
        let token = CancelToken::never();
        assert!(!token.is_cancelled());
        assert_eq!(token.remaining(), None);
        token.cancel();
        assert!(token.is_cancelled(), "explicit cancel always latches");
    }

    #[test]
    fn cancel_token_deadline_latches_once_elapsed() {
        let token = CancelToken::after(std::time::Duration::from_millis(5));
        assert!(token.remaining().is_some());
        let started = std::time::Instant::now();
        while !token.is_cancelled() {
            assert!(
                started.elapsed() < std::time::Duration::from_secs(2),
                "a 5ms deadline must fire"
            );
            std::thread::yield_now();
        }
        // Once fired the token stays fired, even though the deadline
        // instant itself never changes.
        assert!(token.is_cancelled());
        assert_eq!(token.remaining(), Some(std::time::Duration::ZERO));
    }

    #[test]
    fn cancel_token_is_shareable_across_threads() {
        let token = CancelToken::never();
        std::thread::scope(|scope| {
            scope.spawn(|| token.cancel());
        });
        assert!(token.is_cancelled());
    }
}
