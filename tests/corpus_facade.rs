//! Facade wiring of the shared corpus layer: `wfsim::Corpus` must be
//! reachable and interoperate with the re-exported clustering and search
//! machinery end to end (build → mutate → snapshot → score).

use wfsim::cluster::PairwiseSimilarities;
use wfsim::corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wfsim::sim::SimilarityConfig;
use wfsim::{Corpus, CorpusService, ShardedCorpus};

#[test]
fn corpus_layer_is_wired_through_the_facade() {
    let (workflows, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(30, 13));
    let mut corpus = Corpus::build(SimilarityConfig::best_module_sets(), workflows);
    assert_eq!(corpus.len(), 30);

    // Search through the corpus-resident index.
    let query = corpus.ids()[0].clone();
    let hits = corpus.top_k(&query, 5).expect("query is resident");
    assert_eq!(hits.len(), 5);

    // Mutate: drop the query workflow, search for something else.
    assert!(corpus.remove(&query).is_some());
    assert_eq!(corpus.len(), 29);
    assert!(corpus.top_k(&query, 5).is_none());

    // Snapshot round-trip preserves matrix results bit-for-bit.
    let restored = Corpus::from_snapshot_str(
        &corpus.to_snapshot_string(),
        SimilarityConfig::best_module_sets(),
    )
    .expect("snapshot loads through the facade");
    let a = PairwiseSimilarities::compute_profiled(&corpus);
    let b = PairwiseSimilarities::compute_profiled(&restored);
    assert_eq!(a, b);
}

#[test]
fn sharded_service_is_wired_through_the_facade() {
    let (workflows, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(30, 13));
    let single = Corpus::build(SimilarityConfig::best_module_sets(), workflows.clone());
    let sharded = ShardedCorpus::build(SimilarityConfig::best_module_sets(), 4, workflows);
    assert_eq!(sharded.len(), 30);

    // Scatter-gather equals `Corpus::top_k` over one corpus through the facade.
    let query = single.ids()[7].clone();
    let expected = single.top_k(&query, 5).expect("resident");
    assert_eq!(sharded.search(&query, 5).expect("resident"), expected);

    // The concurrent service answers the same and takes churn.
    let service = CorpusService::new(sharded).with_threads(2);
    assert_eq!(service.search(&query, 5).expect("resident"), expected);
    let victim = single.ids()[0].clone();
    assert!(service.remove(&victim).is_some());
    assert_eq!(service.len(), 29);
    let batch = service.search_batch(&[query.clone(), victim.clone()], 5);
    assert!(batch[0].is_some());
    assert!(batch[1].is_none(), "removed ids stop resolving");
}
