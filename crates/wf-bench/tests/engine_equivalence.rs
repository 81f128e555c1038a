//! End-to-end equivalence of the corpus-resident engine with the seed
//! scan path.
//!
//! The indexed engine is only allowed to be *fast*, never *different*: its
//! hit lists (ids, scores and tie-order) must be bit-identical to an
//! exhaustive [`SearchEngine::top_k`] scan, for every module comparison
//! scheme, and the lock-free parallel matrix builder must reproduce the
//! sequential matrix exactly.  These tests check both on the deterministic
//! synthetic Taverna corpus and on randomized mutated corpora.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_cluster::PairwiseSimilarities;
use wf_corpus::{generate_taverna_corpus, mutate, TavernaCorpusConfig};
use wf_model::Workflow;
use wf_repo::{IndexedSearchEngine, Repository, SearchEngine};
use wf_sim::config::Preprocessing;
use wf_sim::{
    MeasureKind, ModuleComparisonScheme, ProfiledMeasure, SimilarityConfig, WorkflowSimilarity,
};

fn six_schemes() -> Vec<ModuleComparisonScheme> {
    vec![
        ModuleComparisonScheme::pw0(),
        ModuleComparisonScheme::pw3(),
        ModuleComparisonScheme::pll(),
        ModuleComparisonScheme::plm(),
        ModuleComparisonScheme::gw1(),
        ModuleComparisonScheme::gll(),
    ]
}

fn mutated_corpus(size: usize, seed: u64) -> Vec<Workflow> {
    let (mut corpus, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(size, seed));
    // An extra mutation round on top of the generator's family variants
    // diversifies sizes, labels and annotations further.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
    for wf in corpus.iter_mut().skip(1).step_by(3) {
        mutate::mutate_round(wf, &mut rng);
    }
    corpus
}

/// The dedicated equivalence check of the acceptance criteria: indexed
/// top-k returns bit-identical hit lists to exhaustive `top_k` for all six
/// module comparison schemes.
#[test]
fn indexed_topk_is_bit_identical_for_all_six_schemes() {
    let corpus = mutated_corpus(80, 17);
    let repository = Repository::from_workflows(corpus.clone());
    assert_eq!(repository.len(), corpus.len(), "generator ids are unique");
    for scheme in six_schemes() {
        for (preselection, preprocessing) in [
            (wf_repo::PreselectionStrategy::AllPairs, Preprocessing::None),
            (
                wf_repo::PreselectionStrategy::TypeEquivalence,
                Preprocessing::ImportanceProjection,
            ),
        ] {
            let config = SimilarityConfig::new(
                MeasureKind::ModuleSets,
                scheme.clone(),
                preselection,
                preprocessing,
            );
            let name = config.name();
            let plain = WorkflowSimilarity::new(config.clone());
            let profiled = ProfiledMeasure::new(config, repository.workflows());
            let scan = SearchEngine::new(&repository, |a: &Workflow, b: &Workflow| {
                plain.similarity(a, b)
            });
            let indexed = IndexedSearchEngine::new(&profiled);
            for query_index in [0usize, 33, 79] {
                let query = &repository.workflows()[query_index];
                let expected = scan.top_k(query, 10);
                let (hits, stats) = indexed.top_k_with_stats(query_index, 10);
                assert_eq!(hits, expected, "{name}, query {}", query.id);
                assert_eq!(
                    indexed.top_k(query_index, 10),
                    expected,
                    "{name} top_k, query {}",
                    query.id
                );
                assert_eq!(
                    stats.scored + stats.pruned + stats.zero_bound,
                    stats.candidates,
                    "{name} accounting, query {}",
                    query.id
                );
            }
        }
    }
}

#[test]
fn indexed_search_prunes_on_the_family_corpus() {
    let corpus = mutated_corpus(120, 5);
    let repository = Repository::from_workflows(corpus);
    let profiled =
        ProfiledMeasure::new(SimilarityConfig::best_module_sets(), repository.workflows());
    let indexed = IndexedSearchEngine::new(&profiled);
    let mut scored_total = 0usize;
    let mut candidates_total = 0usize;
    for query_index in 0..8 {
        let (_, stats) = indexed.top_k_with_stats(query_index, 10);
        scored_total += stats.scored;
        candidates_total += stats.candidates;
    }
    assert!(
        scored_total * 2 < candidates_total,
        "expected >50% of candidates pruned on a family corpus, \
         scored {scored_total} of {candidates_total}"
    );
}

#[test]
fn unbounded_measures_still_match_the_scan_engine() {
    // Path Sets has no cheap bound: the indexed engine must degrade to an
    // exhaustive profiled scan with identical results.
    let corpus = mutated_corpus(50, 23);
    let repository = Repository::from_workflows(corpus);
    let config = SimilarityConfig::best_path_sets();
    let plain = WorkflowSimilarity::new(config.clone());
    let profiled = ProfiledMeasure::new(config, repository.workflows());
    let scan = SearchEngine::new(&repository, |a: &Workflow, b: &Workflow| {
        plain.similarity(a, b)
    });
    let indexed = IndexedSearchEngine::new(&profiled);
    let query = &repository.workflows()[7];
    let expected = scan.top_k(query, 10);
    let (hits, stats) = indexed.top_k_with_stats(7, 10);
    assert_eq!(hits, expected);
    assert_eq!(stats.scored, stats.candidates, "no pruning without bounds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Indexed top-k ≡ brute-force top-k on randomized mutated corpora of
    /// 50–200 workflows, across schemes, queries and k.
    #[test]
    fn indexed_topk_equals_bruteforce_on_random_corpora(
        size in 50usize..=200,
        seed in 0u64..10_000,
        scheme_index in 0usize..6,
        query_offset in 0usize..50,
        k in 1usize..=12,
    ) {
        let corpus = mutated_corpus(size, seed);
        let repository = Repository::from_workflows(corpus);
        let config = SimilarityConfig::new(
            MeasureKind::ModuleSets,
            six_schemes()[scheme_index].clone(),
            wf_repo::PreselectionStrategy::TypeEquivalence,
            Preprocessing::ImportanceProjection,
        );
        let plain = WorkflowSimilarity::new(config.clone());
        let profiled = ProfiledMeasure::new(config, repository.workflows());
        let scan = SearchEngine::new(&repository, |a: &Workflow, b: &Workflow| {
            plain.similarity(a, b)
        });
        let indexed = IndexedSearchEngine::new(&profiled);
        let query_index = query_offset % repository.len();
        let query = &repository.workflows()[query_index];
        let expected = scan.top_k(query, k);
        prop_assert_eq!(indexed.top_k(query_index, k), expected.clone());
        prop_assert_eq!(indexed.top_k_with_stats(query_index, k).0, expected);
    }

    /// Parallel matrix ≡ sequential matrix on randomized mutated corpora
    /// (profiled measure, so the property also covers profile scoring
    /// under the matrix builder).
    #[test]
    fn parallel_matrix_equals_sequential_on_random_corpora(
        size in 50usize..=90,
        seed in 0u64..10_000,
        threads in 2usize..=8,
    ) {
        let corpus = mutated_corpus(size, seed);
        let config = SimilarityConfig::new(
            MeasureKind::ModuleSets,
            ModuleComparisonScheme::gll(),
            wf_repo::PreselectionStrategy::AllPairs,
            Preprocessing::None,
        );
        let profiled = ProfiledMeasure::new(config, &corpus);
        let sequential = PairwiseSimilarities::compute(&corpus, &profiled);
        let parallel = PairwiseSimilarities::compute_parallel(&corpus, &profiled, threads);
        prop_assert_eq!(parallel.ids(), sequential.ids());
        for i in 0..corpus.len() {
            for j in 0..corpus.len() {
                prop_assert_eq!(
                    parallel.similarity(i, j),
                    sequential.similarity(i, j),
                    "threads={}, cell ({},{})", threads, i, j
                );
            }
        }
    }
}
