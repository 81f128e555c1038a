//! Top-k retrieval over a repository (the operation behind Figures 10/11):
//! the seed scan paths (sequential and parallel) against the
//! corpus-resident engine (profiled scoring + inverted-index pruning) with
//! the best Module Sets configuration on a 200-workflow corpus.
//!
//! `wfsim_search --demo --bench-json BENCH_retrieval.json` records the
//! same comparison machine-readably for the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wf_corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wf_repo::{IndexedSearchEngine, Repository, SearchEngine};
use wf_sim::{ProfiledMeasure, SimilarityConfig, WorkflowSimilarity};

fn bench_retrieval(c: &mut Criterion) {
    let (corpus, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(200, 9));
    let repository = Repository::from_workflows(corpus);
    let query_index = 0usize;
    let query = repository.workflows()[query_index].clone();
    let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());
    let engine = SearchEngine::new(
        &repository,
        |a: &wf_model::Workflow, b: &wf_model::Workflow| measure.similarity(a, b),
    )
    .with_threads(8);
    let profiled =
        ProfiledMeasure::new(SimilarityConfig::best_module_sets(), repository.workflows());
    let indexed = IndexedSearchEngine::new(&profiled);
    assert_eq!(engine.top_k(&query, 10), indexed.top_k(query_index, 10));

    let mut group = c.benchmark_group("top10_retrieval_200_workflows");
    group.sample_size(10);
    group.bench_function("scan_sequential", |b| {
        b.iter(|| engine.top_k(black_box(&query), 10))
    });
    group.bench_function("scan_parallel_8_threads", |b| {
        b.iter(|| engine.top_k_parallel(black_box(&query), 10))
    });
    group.bench_function("indexed_profiled", |b| {
        b.iter(|| indexed.top_k(black_box(query_index), 10))
    });
    group.finish();
}

criterion_group!(benches, bench_retrieval);
criterion_main!(benches);
