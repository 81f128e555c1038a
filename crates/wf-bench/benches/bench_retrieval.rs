//! Top-k retrieval over a repository (the operation behind Figures 10/11)
//! with the best Module Sets configuration on a 200-workflow corpus.
//!
//! Three paths answer the same top-10 query:
//!
//! * `scan_seed` — the seed path: [`SearchEngine::top_k`] over a
//!   [`WorkflowSimilarity`] that re-projects and re-derives text per pair,
//!   on every core;
//! * `scan_profiled` — the exhaustive [`scan_top_k`] oracle, scoring from
//!   the corpus's precomputed profiles;
//! * `served` — [`Corpus::top_k_index`], the path the server runs:
//!   class-table bounds and a best-bound-first scan with pruning.
//!
//! All three return bit-identical hit lists (asserted once up front).
//! `wfsim_search --demo --bench-json BENCH_retrieval.json` records the
//! seed scan against the served path machine-readably.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wf_corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wf_repo::{scan_top_k, Repository, SearchEngine};
use wf_sim::{Corpus, SimilarityConfig, WorkflowSimilarity};

fn bench_retrieval(c: &mut Criterion) {
    let (corpus, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(200, 9));
    let repository = Repository::from_workflows(corpus);
    let query_index = 0usize;
    let query = repository.workflows()[query_index].clone();

    let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());
    let engine = SearchEngine::new(
        &repository,
        |a: &wf_model::Workflow, b: &wf_model::Workflow| measure.similarity(a, b),
    );
    let served = Corpus::build(
        SimilarityConfig::best_module_sets(),
        repository.workflows().to_vec(),
    );

    // The paths must agree before their speed is worth comparing.
    let expected = engine.top_k(&query, 10);
    assert_eq!(scan_top_k(served.measure(), query_index, 10), expected);
    assert_eq!(served.top_k_index(query_index, 10), expected);

    let mut group = c.benchmark_group("top10_retrieval_200_workflows");
    group.sample_size(10);
    group.bench_function("scan_seed", |b| {
        b.iter(|| engine.top_k(black_box(&query), 10))
    });
    group.bench_function("scan_profiled", |b| {
        b.iter(|| scan_top_k(served.measure(), black_box(query_index), 10))
    });
    group.bench_function("served", |b| {
        b.iter(|| served.top_k_index(black_box(query_index), 10))
    });
    group.finish();
}

criterion_group!(benches, bench_retrieval);
criterion_main!(benches);
