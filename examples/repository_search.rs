//! Similarity search over a repository: retrieve the top-10 workflows most
//! similar to a query, comparing an annotation measure, a structural measure
//! and their ensemble — the paper's retrieval scenario (Section 5.2).
//!
//! The single-measure engines run on a shared [`wfsim::sim::Corpus`]: the
//! workflows are profiled and indexed once, queries are answered through
//! upper-bound pruning, and the corpus round-trips through a snapshot
//! (the serving-process startup path).  The ensemble, which has no profiled
//! form, uses the exhaustive scan engine.
//!
//! Run with:
//! ```text
//! cargo run --release --example repository_search
//! ```

use wfsim::corpus::{generate_taverna_corpus, select_queries, TavernaCorpusConfig};
use wfsim::repo::{Repository, SearchEngine, SearchHit};
use wfsim::sim::{Corpus, Ensemble, SimilarityConfig};

fn print_hits(
    name: &str,
    hits: &[SearchHit],
    query: &wfsim::model::WorkflowId,
    meta: &wfsim::corpus::CorpusMeta,
) {
    println!("top-10 by {name}:");
    println!(
        "{:<4} {:<8} {:>8}  relation to query (latent truth)",
        "rank", "id", "score"
    );
    for (rank, hit) in hits.iter().enumerate() {
        let relation = match (meta.get(query), meta.get(&hit.id)) {
            (Some(q), Some(c)) if q.family == c.family => "same family",
            (Some(q), Some(c)) if q.topic == c.topic => "same topic",
            _ => "other topic",
        };
        println!(
            "{:<4} {:<8} {:>8.3}  {}",
            rank + 1,
            hit.id,
            hit.score,
            relation
        );
    }
    println!();
}

fn main() {
    let (workflows, meta) = generate_taverna_corpus(&TavernaCorpusConfig::small(200, 11));
    let query_id = select_queries(&meta, 1, 4, 5)[0].clone();
    let query_title = workflows
        .iter()
        .find(|wf| wf.id == query_id)
        .and_then(|wf| wf.annotations.title.clone())
        .unwrap_or_else(|| "(untitled)".to_string());
    println!("query workflow {query_id} — \"{query_title}\"\n");

    // One corpus per single measure: profiles + inverted index built once,
    // every query answered with exact upper-bound pruning.
    for config in [
        SimilarityConfig::bag_of_words(),
        SimilarityConfig::best_module_sets(),
    ] {
        let corpus = Corpus::build(config, workflows.clone());
        let hits = corpus
            .top_k(&query_id, 10)
            .expect("query id is in the corpus");
        print_hits(&corpus.measure_name(), &hits, &query_id, &meta);
    }

    // Snapshot round-trip: a serving process saves the corpus's workflows
    // once and starts by rebuilding from that one checked file.
    let snapshot_path = std::env::temp_dir().join("wfsim-example-corpus.snap");
    let corpus = Corpus::build(SimilarityConfig::best_module_sets(), workflows.clone());
    corpus.save(&snapshot_path).expect("snapshot written");
    let (restored, origin) = Corpus::load_or_build(
        &snapshot_path,
        SimilarityConfig::best_module_sets(),
        workflows.clone(),
    );
    println!(
        "snapshot: reloaded {} profiled workflows from {} (from snapshot: {})\n",
        restored.len(),
        snapshot_path.display(),
        origin.is_snapshot()
    );
    assert!(origin.is_snapshot(), "fresh snapshot was rejected");
    let _ = std::fs::remove_file(&snapshot_path);

    // The ensemble has no profiled form: exhaustive scan on every core.
    let repository = Repository::from_workflows(workflows);
    let query = repository.get(&query_id).expect("query exists").clone();
    let ensemble = Ensemble::bw_plus_module_sets();
    let name = ensemble.name();
    let engine = SearchEngine::new(
        &repository,
        move |a: &wfsim::model::Workflow, b: &wfsim::model::Workflow| ensemble.similarity(a, b),
    );
    let hits = engine.top_k(&query, 10);
    print_hits(&name, &hits, &query_id, &meta);
}
