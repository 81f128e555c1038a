//! The serving architecture end to end: partition a corpus into shards
//! (each workflow in the shard its id hashes to), prove scatter-gather search equals the single-corpus engine, persist
//! and restore the sharded snapshot, then serve concurrent queries while
//! a churn thread uploads and deletes workflows.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharded_service
//! ```

use wfsim::corpus::{generate_taverna_corpus, TavernaCorpusConfig};
use wfsim::model::WorkflowId;
use wfsim::sim::{Corpus, SimilarityConfig};
use wfsim::{CorpusService, ShardedCorpus};

fn main() {
    let (workflows, _) = generate_taverna_corpus(&TavernaCorpusConfig::small(120, 11));
    let config = SimilarityConfig::best_module_sets();

    // Scatter-gather over 4 shards is bit-identical to one corpus.
    let single = Corpus::build(config.clone(), workflows.clone());
    let sharded = ShardedCorpus::build(config.clone(), 4, workflows.clone());
    let query = single.ids()[5].clone();
    let expected = single.top_k(&query, 5).expect("resident");
    let got = sharded.search(&query, 5).expect("resident");
    assert_eq!(got, expected);
    println!(
        "scatter-gather over {} shards ({} workflows) equals the single-corpus engine:",
        sharded.shard_count(),
        sharded.len()
    );
    for (rank, hit) in got.iter().enumerate() {
        println!("  {:<2} {:<10} {:.3}", rank + 1, hit.id, hit.score);
    }

    // Per-shard snapshots behind one manifest: a serving fleet restores
    // each shard from its workflows and falls back to a rebuild on
    // corruption.
    let dir = std::env::temp_dir().join("wfsim-example-shards");
    sharded.save(&dir).expect("sharded snapshot written");
    let (restored, origin) =
        ShardedCorpus::load_or_build(&dir, config.clone(), 4, workflows.clone());
    println!(
        "\nsharded snapshot: {} shards restored from {} (from snapshot: {})",
        restored.shard_count(),
        dir.display(),
        origin.is_snapshot()
    );
    assert!(origin.is_snapshot(), "fresh sharded snapshot was rejected");
    let _ = std::fs::remove_dir_all(&dir);

    // The concurrent service: queries proceed while churn write-locks only
    // the owning shard.
    let service = CorpusService::new(restored).with_threads(4);
    let queries: Vec<WorkflowId> = single.ids().iter().step_by(10).cloned().collect();
    let victims: Vec<WorkflowId> = single
        .ids()
        .iter()
        .filter(|id| !queries.contains(id))
        .take(30)
        .cloned()
        .collect();
    let (served, churned) = std::thread::scope(|scope| {
        let service = &service;
        let churner = scope.spawn(|| {
            let mut ops = 0usize;
            for id in &victims {
                let removed = service.remove(id).expect("victim resident");
                service.add(removed); // replace in place: size stays stable
                ops += 2;
            }
            ops
        });
        let mut served = 0usize;
        for _ in 0..5 {
            served += service
                .search_batch(&queries, 5)
                .iter()
                .filter(|hits| hits.is_some())
                .count();
        }
        (served, churner.join().expect("churn thread panicked"))
    });
    println!(
        "\nservice: answered {served} queries concurrently with {churned} churn ops \
         across {} shards ({} workflows remain)",
        service.shard_count(),
        service.len()
    );
}
