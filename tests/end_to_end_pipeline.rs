//! End-to-end integration test: synthetic corpus → repository → similarity
//! search → gold-standard evaluation, i.e. a miniature version of the
//! paper's whole evaluation pipeline spanning every crate of the workspace.

use wfsim::corpus::{
    generate_taverna_corpus, select_candidates, select_queries, ExpertPanel, ExpertPanelConfig,
    TavernaCorpusConfig,
};
use wfsim::gold::precision::precision_curve;
use wfsim::gold::{
    bioconsert_consensus, ranking_correctness_completeness, BioConsertConfig, Ranking,
    RelevanceThreshold,
};
use wfsim::repo::{Repository, SearchEngine};
use wfsim::sim::{Ensemble, SimilarityConfig, WorkflowSimilarity};

fn corpus() -> (Repository, wfsim::corpus::CorpusMeta) {
    let (corpus, meta) = generate_taverna_corpus(&TavernaCorpusConfig::small(120, 17));
    (Repository::from_workflows(corpus), meta)
}

#[test]
fn ranking_pipeline_produces_scores_that_beat_chance() {
    let (repository, meta) = corpus();
    let queries = select_queries(&meta, 5, 3, 2);
    assert_eq!(queries.len(), 5);
    let panel = ExpertPanel::new(ExpertPanelConfig::default());
    let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());

    let mut correctness_sum = 0.0;
    for (qi, query_id) in queries.iter().enumerate() {
        let query = repository.get(query_id).expect("query exists");
        let candidates = select_candidates(&meta, query_id, 10, 300 + qi as u64);
        assert_eq!(candidates.len(), 10);

        // Simulated expert study and consensus.
        let pairs: Vec<_> = candidates
            .iter()
            .map(|c| (query_id.clone(), c.clone()))
            .collect();
        let ratings = panel.rate_pairs(&meta, &pairs);
        assert!(ratings.len() >= 10 * 10, "15 experts minus unsure votes");
        let expert_rankings: Vec<Ranking> = ratings
            .expert_rankings(query_id.as_str())
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert!(expert_rankings.len() >= 10);
        let consensus = bioconsert_consensus(&expert_rankings, &BioConsertConfig::default());
        assert!(!consensus.is_empty());

        // Algorithmic ranking of the same candidates.
        let scored: Vec<(String, f64)> = candidates
            .iter()
            .map(|c| {
                let wf = repository.get(c).expect("candidate exists");
                (c.as_str().to_string(), measure.similarity(query, wf))
            })
            .collect();
        let algorithmic = Ranking::from_scores(scored, 1e-9);
        let quality = ranking_correctness_completeness(&algorithmic, &consensus);
        correctness_sum += quality.correctness;
        assert!(quality.completeness > 0.0);
    }
    let mean_correctness = correctness_sum / queries.len() as f64;
    assert!(
        mean_correctness > 0.2,
        "structural similarity must correlate with the simulated experts (got {mean_correctness})"
    );
}

#[test]
fn retrieval_pipeline_finds_family_members_first() {
    let (repository, meta) = corpus();
    let query_id = select_queries(&meta, 1, 4, 9)[0].clone();
    let query = repository.get(&query_id).expect("query exists").clone();
    let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());
    let engine = SearchEngine::new(
        &repository,
        |a: &wfsim::model::Workflow, b: &wfsim::model::Workflow| measure.similarity(a, b),
    );

    let hits = engine.top_k(&query, 10);
    assert_eq!(hits.len(), 10);
    assert!(hits.iter().all(|h| h.id != query.id));
    // Scores are sorted descending.
    for pair in hits.windows(2) {
        assert!(pair[0].score >= pair[1].score - 1e-12);
    }
    // The query's family members should be concentrated at the top: the
    // number of family members among the top 3 must be at least as large as
    // among the bottom 3.
    let family_of = |id: &wfsim::model::WorkflowId| meta.get(id).map(|m| m.family);
    let query_family = family_of(&query.id);
    let in_family = |slice: &[wfsim::repo::SearchHit]| {
        slice
            .iter()
            .filter(|h| family_of(&h.id) == query_family)
            .count()
    };
    assert!(in_family(&hits[..3]) >= in_family(&hits[7..]));
    assert!(
        in_family(&hits[..3]) >= 1,
        "at least one sibling retrieved at the top"
    );
}

#[test]
fn retrieval_precision_respects_threshold_ordering() {
    let (repository, meta) = corpus();
    let query_id = select_queries(&meta, 1, 4, 31)[0].clone();
    let query = repository.get(&query_id).expect("query exists").clone();
    let ensemble = Ensemble::bw_plus_module_sets();
    let engine = SearchEngine::new(
        &repository,
        |a: &wfsim::model::Workflow, b: &wfsim::model::Workflow| ensemble.similarity(a, b),
    );
    let hits = engine.top_k(&query, 10);
    let results: Vec<String> = hits.iter().map(|h| h.id.as_str().to_string()).collect();

    // Rate the retrieved pairs with the panel, then compute precision curves.
    let panel = ExpertPanel::new(ExpertPanelConfig::default());
    let pairs: Vec<_> = hits
        .iter()
        .map(|h| (query_id.clone(), h.id.clone()))
        .collect();
    let ratings = panel.rate_pairs(&meta, &pairs);

    let curve_for = |threshold: RelevanceThreshold| {
        precision_curve(
            &results,
            |candidate| threshold.is_relevant(ratings.median(query_id.as_str(), candidate)),
            10,
        )
    };
    let related = curve_for(RelevanceThreshold::Related);
    let similar = curve_for(RelevanceThreshold::Similar);
    let very = curve_for(RelevanceThreshold::VerySimilar);
    for k in 0..10 {
        assert!(related[k] + 1e-12 >= similar[k]);
        assert!(similar[k] + 1e-12 >= very[k]);
    }
    assert!(
        related[0] > 0.0,
        "the ensemble's first hit should at least be related to the query"
    );
}

#[test]
fn importance_projection_speeds_up_without_destroying_ordering() {
    let (repository, meta) = corpus();
    let query_id = select_queries(&meta, 1, 4, 57)[0].clone();
    let query = repository.get(&query_id).expect("query exists");
    let np = WorkflowSimilarity::new(
        SimilarityConfig::module_sets_default()
            .with_scheme(wfsim::sim::ModuleComparisonScheme::pll()),
    );
    let ip = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());

    // The projected measure compares fewer module pairs …
    let other = repository
        .iter()
        .find(|w| w.id != query.id)
        .expect("more than one workflow");
    assert!(ip.report(query, other).compared_pairs <= np.report(query, other).compared_pairs);

    // … and still puts family members above strangers.
    let sibling = repository
        .iter()
        .find(|w| {
            w.id != query.id
                && meta.get(&w.id).map(|m| m.family) == meta.get(&query.id).map(|m| m.family)
        })
        .expect("sibling exists");
    let stranger = repository
        .iter()
        .find(|w| meta.get(&w.id).map(|m| m.topic) != meta.get(&query.id).map(|m| m.topic))
        .expect("stranger exists");
    assert!(ip.similarity(query, sibling) > ip.similarity(query, stranger));
}
