//! End-to-end equivalence of the shared corpus layer with the seed paths.
//!
//! The `Corpus` is only allowed to be *shared* and *fast*, never
//! *different*: matrices filled from cached profiles must be bit-identical
//! to the legacy per-pair `Measure` path for every module comparison
//! scheme, a snapshot round-trip must restore a corpus that answers every
//! query and matrix cell exactly like the freshly built one, and
//! `add`/`remove` churn must leave index-backed search equal to a
//! from-scratch rebuild over the surviving workflows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_cluster::PairwiseSimilarities;
use wf_corpus::{generate_taverna_corpus, mutate, TavernaCorpusConfig};
use wf_model::Workflow;
use wf_sim::config::Preprocessing;
use wf_sim::{Corpus, MeasureKind, ModuleComparisonScheme, SimilarityConfig, WorkflowSimilarity};

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
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
    for wf in corpus.iter_mut().skip(1).step_by(3) {
        mutate::mutate_round(wf, &mut rng);
    }
    corpus
}

fn assert_matrices_identical(a: &PairwiseSimilarities, b: &PairwiseSimilarities, what: &str) {
    assert_eq!(a.ids(), b.ids(), "{what}: id order");
    for i in 0..a.len() {
        for j in 0..a.len() {
            assert!(
                a.similarity(i, j) == b.similarity(i, j),
                "{what}: cell ({i},{j}): {} != {}",
                a.similarity(i, j),
                b.similarity(i, j)
            );
        }
    }
}

/// The dedicated equivalence check of the acceptance criteria: matrices
/// from cached profiles are bit-identical to the legacy per-pair path for
/// all six module comparison schemes.
#[test]
fn profiled_matrix_is_bit_identical_for_all_six_schemes() {
    let workflows = mutated_corpus(40, 29);
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
            let legacy = PairwiseSimilarities::compute(&workflows, &plain);
            let corpus = Corpus::build(config, workflows.clone());
            assert_matrices_identical(
                &PairwiseSimilarities::compute_profiled(&corpus),
                &legacy,
                &format!("{name} sequential"),
            );
            assert_matrices_identical(
                &PairwiseSimilarities::compute_profiled_parallel(&corpus, 4),
                &legacy,
                &format!("{name} parallel"),
            );
        }
    }
}

/// Snapshot round-trip: the restored corpus answers search *and* matrix
/// queries exactly like the corpus it was saved from.
#[test]
fn snapshot_roundtrip_preserves_search_and_matrix_results() {
    let workflows = mutated_corpus(60, 31);
    let corpus = Corpus::build(SimilarityConfig::best_module_sets(), workflows);
    let restored = Corpus::from_snapshot_str(
        &corpus.to_snapshot_string(),
        SimilarityConfig::best_module_sets(),
    )
    .expect("snapshot loads");
    assert_eq!(restored.ids(), corpus.ids());
    assert_eq!(restored.token_index(), corpus.token_index());
    for query in 0..corpus.len() {
        assert_eq!(
            restored.top_k_index(query, 10),
            corpus.top_k_index(query, 10),
            "query {query}"
        );
    }
    assert_matrices_identical(
        &PairwiseSimilarities::compute_profiled(&restored),
        &PairwiseSimilarities::compute_profiled(&corpus),
        "snapshot matrix",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Profiled matrix ≡ legacy matrix on randomized mutated corpora,
    /// across schemes and thread counts.
    #[test]
    fn profiled_matrix_equals_legacy_on_random_corpora(
        size in 30usize..=80,
        seed in 0u64..10_000,
        scheme_index in 0usize..6,
        threads in 1usize..=8,
    ) {
        let workflows = mutated_corpus(size, seed);
        let config = SimilarityConfig::new(
            MeasureKind::ModuleSets,
            six_schemes()[scheme_index].clone(),
            wf_repo::PreselectionStrategy::TypeEquivalence,
            Preprocessing::ImportanceProjection,
        );
        let plain = WorkflowSimilarity::new(config.clone());
        let legacy = PairwiseSimilarities::compute(&workflows, &plain);
        let corpus = Corpus::build(config, workflows);
        let profiled = PairwiseSimilarities::compute_profiled_parallel(&corpus, threads);
        prop_assert_eq!(profiled.ids(), legacy.ids());
        for i in 0..legacy.len() {
            for j in 0..legacy.len() {
                prop_assert_eq!(
                    profiled.similarity(i, j),
                    legacy.similarity(i, j),
                    "cell ({},{})", i, j
                );
            }
        }
    }

    /// The serving-process invariant: after arbitrary `add`/`remove` churn
    /// (and a snapshot round-trip of the churned corpus), index-backed
    /// search answers exactly like a from-scratch rebuild over the
    /// surviving workflows.
    #[test]
    fn churned_corpus_equals_from_scratch_rebuild(
        size in 30usize..=70,
        seed in 0u64..10_000,
        ops in proptest::collection::vec((0u8..=2, 0usize..1000), 5..20),
        k in 1usize..=12,
    ) {
        let initial = mutated_corpus(size, seed);
        let extra = mutated_corpus(20, seed ^ 0xbeef);
        let config = SimilarityConfig::best_module_sets();
        let mut corpus = Corpus::build(config.clone(), initial);
        // Interleave removals of random residents with insertions of new
        // and replacement workflows.
        let mut extra_cursor = 0usize;
        for (op, pick) in ops {
            match op {
                0 if !corpus.is_empty() => {
                    let id = corpus.ids()[pick % corpus.len()].clone();
                    prop_assert!(corpus.remove(&id).is_some());
                }
                1 => {
                    let mut wf = extra[extra_cursor % extra.len()].clone();
                    wf.id = format!("churn-{extra_cursor}").into();
                    extra_cursor += 1;
                    corpus.add(wf);
                }
                _ if !corpus.is_empty() => {
                    // Replace a resident with a different structure.
                    let id = corpus.ids()[pick % corpus.len()].clone();
                    let mut wf = extra[pick % extra.len()].clone();
                    wf.id = id;
                    corpus.add(wf);
                }
                _ => {}
            }
        }
        let rebuilt = Corpus::build(config.clone(), corpus.workflows().to_vec());
        prop_assert_eq!(corpus.ids(), rebuilt.ids());
        let restored = Corpus::from_snapshot_str(&corpus.to_snapshot_string(), config)
            .expect("churned snapshot loads");
        for query in 0..corpus.len() {
            let expected = wf_repo::scan_top_k(rebuilt.measure(), query, k);
            prop_assert_eq!(&corpus.top_k_index(query, k), &expected, "churned, query {}", query);
            prop_assert_eq!(&restored.top_k_index(query, k), &expected, "restored, query {}", query);
        }
    }
}
