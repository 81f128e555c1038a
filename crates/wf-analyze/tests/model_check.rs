//! Deterministic concurrency model checks for the lock-free search core.
//!
//! These tests run the *real* production types — `SearchThreshold`,
//! `TopK`/`merge_top_k`, `CorpusService` — under the vendored
//! `shuttle-mini` scheduler, which serializes every instrumented atomic
//! and lock operation and explores thread interleavings either
//! exhaustively (small state spaces) or randomly-but-reproducibly from a
//! fixed seed.  A failure reports the exact schedule trace; re-running
//! with the same seed replays the identical interleaving.
//!
//! The suite closes with a mutation test: a copy of the threshold with
//! its `fetch_max` "un-fixed" into a racy load+store must be *caught* by
//! the checker, with the same failing schedule on every run — evidence
//! the harness can actually see the bug class it exists to prevent.

#![deny(unsafe_code)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shuttle_mini::sync::atomic::AtomicU64;
use shuttle_mini::{check_exhaustive, check_random, thread};
use wf_model::{builder::WorkflowBuilder, ModuleType, Workflow, WorkflowId};
use wf_repo::{merge_top_k, SearchHit, SearchThreshold, TopK};
use wf_sim::{CorpusService, ShardedCorpus, SimilarityConfig};

// ---------------------------------------------------------------------
// SearchThreshold: the shared lock-free score floor.
// ---------------------------------------------------------------------

/// Racing `observe` calls from three threads must always leave the floor
/// at the maximum published score, under *every* interleaving, and each
/// thread must see the floor monotonically non-decreasing.
#[test]
fn threshold_floor_is_max_under_every_interleaving() {
    let report = check_exhaustive(50_000, || {
        let threshold = Arc::new(SearchThreshold::new());
        let monotone = {
            let t = Arc::clone(&threshold);
            thread::spawn(move || {
                t.observe(0.25);
                let after = t.floor();
                assert!(after >= 0.25, "own observation not visible: {after}");
            })
        };
        let publisher = {
            let t = Arc::clone(&threshold);
            thread::spawn(move || t.observe(0.75))
        };
        threshold.observe(0.5);
        monotone.join().expect("monotone observer panicked");
        publisher.join().expect("publisher panicked");
        assert_eq!(threshold.floor(), 0.75, "floor must be the global max");
    });
    report.assert_ok();
    assert!(
        report.complete,
        "the threshold schedule tree must be fully explored, \
         ran {} schedules",
        report.schedules
    );
}

/// Non-finite and negative scores must be ignored under races too.
#[test]
fn threshold_ignores_junk_scores_under_races() {
    let report = check_exhaustive(50_000, || {
        let threshold = Arc::new(SearchThreshold::new());
        let t = Arc::clone(&threshold);
        let junk = thread::spawn(move || {
            t.observe(f64::NAN);
            t.observe(-3.0);
            t.observe(f64::INFINITY);
        });
        threshold.observe(0.4);
        junk.join().expect("junk observer panicked");
        assert_eq!(threshold.floor(), 0.4);
    });
    report.assert_ok();
    assert!(report.complete);
}

// ---------------------------------------------------------------------
// merge_top_k: gather determinism under racing partial producers.
// ---------------------------------------------------------------------

fn hit(id: &str, score: f64) -> SearchHit {
    SearchHit {
        id: WorkflowId::new(id),
        score,
    }
}

/// Two workers scan disjoint candidate slices with a shared threshold,
/// pruning strictly below the floor, exactly like the per-shard scan.
/// Whatever the interleaving, the merged result must be the same top-k
/// the sequential scan produces: threshold pruning is admissible, so the
/// race can change *work done*, never *results*.
#[test]
fn merged_top_k_is_identical_under_every_interleaving() {
    const K: usize = 2;
    let slice_a = [("a1", 0.9_f64), ("a2", 0.5), ("a3", 0.1)];
    let slice_b = [("b1", 0.8_f64), ("b2", 0.7), ("b3", 0.3)];
    // The schedule-independent reference: top-k over both slices.
    let reference = merge_top_k(
        [
            slice_a.iter().map(|(i, s)| hit(i, *s)).collect::<Vec<_>>(),
            slice_b.iter().map(|(i, s)| hit(i, *s)).collect::<Vec<_>>(),
        ],
        K,
    );

    let scan = |slice: &[(&str, f64)], threshold: &SearchThreshold| -> Vec<SearchHit> {
        let mut top = TopK::new(K);
        for (id, score) in slice {
            // Strictly-below-floor pruning on an exact bound, as in the
            // production scan loop.
            if *score < threshold.floor() {
                continue;
            }
            top.insert(hit(id, *score));
            if let Some(worst) = top.worst_score() {
                threshold.observe(worst);
            }
        }
        top.into_hits()
    };

    let report = check_exhaustive(200_000, move || {
        let threshold = Arc::new(SearchThreshold::new());
        let t = Arc::clone(&threshold);
        let worker = thread::spawn(move || scan(&slice_b, &t));
        let part_a = scan(&slice_a, &threshold);
        let part_b = worker.join().expect("scan worker panicked");
        let merged = merge_top_k([part_a, part_b], K);
        assert_eq!(merged, reference, "merge must be schedule-independent");
    });
    report.assert_ok();
    assert!(
        report.complete,
        "two-worker scan tree must be fully explored, ran {} schedules",
        report.schedules
    );
}

// ---------------------------------------------------------------------
// CorpusService: scatter-gather search racing live churn.
// ---------------------------------------------------------------------

fn wf(id: &str, labels: &[&str]) -> Workflow {
    let mut b = WorkflowBuilder::new(id)
        .title(format!("workflow {id}"))
        .tag("model-check");
    for l in labels {
        b = b.module(*l, ModuleType::WsdlService, |m| m);
    }
    for pair in labels.windows(2) {
        b = b.link(pair[0], pair[1]);
    }
    b.build().expect("fixture workflow is well-formed")
}

fn base_workflows() -> Vec<Workflow> {
    vec![
        wf("a", &["fetch sequence", "run blast", "render report"]),
        wf("b", &["fetch sequence", "run blast", "plot hits"]),
        wf("c", &["parse tree", "cluster genes"]),
        wf("d", &["parse tree", "cluster genes", "plot hits"]),
        wf("e", &["run blast"]),
    ]
}

fn new_workflow() -> Workflow {
    wf(
        "g",
        &["fetch sequence", "run blast", "render report", "plot hits"],
    )
}

fn quiescent_reference(workflows: Vec<Workflow>, query: &str, k: usize) -> Vec<SearchHit> {
    ShardedCorpus::build(SimilarityConfig::best_module_sets(), 2, workflows)
        .search(&WorkflowId::new(query), k)
        .expect("query resident in reference corpus")
}

/// One churn thread runs `remove(b)` then `add(g)` while the root thread
/// searches.  Per-shard snapshots are taken at lock instants, so the
/// result must equal the quiescent answer of one of the four corpus
/// states the churn can expose: {with/without b} x {with/without g}.
/// Seeded random exploration: every iteration's schedule replays from
/// `(seed, iteration)` alone.
#[test]
fn service_search_racing_churn_matches_a_quiescent_state() {
    const K: usize = 3;
    const QUERY: &str = "a";
    let references: Arc<Vec<Vec<SearchHit>>> = Arc::new(
        [
            base_workflows(),
            // without b
            base_workflows()
                .into_iter()
                .filter(|w| w.id.0 != "b")
                .collect(),
            // with g
            base_workflows()
                .into_iter()
                .chain([new_workflow()])
                .collect(),
            // without b, with g
            base_workflows()
                .into_iter()
                .filter(|w| w.id.0 != "b")
                .chain([new_workflow()])
                .collect(),
        ]
        .into_iter()
        .map(|workflows| quiescent_reference(workflows, QUERY, K))
        .collect(),
    );
    // The references must discriminate: churn has to be able to change
    // the answer, or the oracle below proves nothing.
    assert_ne!(references[0], references[1], "removing b must matter");
    assert_ne!(references[0], references[2], "adding g must matter");

    let refs = Arc::clone(&references);
    let report = check_random(0xC0FFEE, 120, move || {
        let service = Arc::new(CorpusService::new(ShardedCorpus::build(
            SimilarityConfig::best_module_sets(),
            2,
            base_workflows(),
        )));
        let churn_service = Arc::clone(&service);
        let churner = thread::spawn(move || {
            let removed = churn_service.remove(&WorkflowId::new("b"));
            assert!(removed.is_some(), "b is resident until this remove");
            churn_service.add(new_workflow());
        });
        let hits = service
            .search(&WorkflowId::new(QUERY), K)
            .expect("query stays resident through churn");
        assert!(
            refs.contains(&hits),
            "search result matches no quiescent corpus state: {hits:?}"
        );
        churner.join().expect("churn thread panicked");
        // Quiescent again: now exactly the {without b, with g} answer.
        let settled = service
            .search(&WorkflowId::new(QUERY), K)
            .expect("query resident after churn");
        assert_eq!(settled, refs[3], "post-churn corpus must be quiescent");
    });
    report.assert_ok();
}

/// A workflow fully removed *before* the search starts must never appear
/// in its results, no matter how a concurrent add interleaves.
#[test]
fn pre_removed_workflow_never_surfaces_in_search() {
    let report = check_random(0xBEEF, 120, || {
        let service = Arc::new(CorpusService::new(ShardedCorpus::build(
            SimilarityConfig::best_module_sets(),
            2,
            base_workflows(),
        )));
        service
            .remove(&WorkflowId::new("b"))
            .expect("b is resident before the race");
        let adder_service = Arc::clone(&service);
        let adder = thread::spawn(move || {
            adder_service.add(new_workflow());
        });
        let hits = service
            .search(&WorkflowId::new("a"), 4)
            .expect("query resident");
        assert!(
            hits.iter().all(|h| h.id.0 != "b"),
            "pre-removed id resurfaced: {hits:?}"
        );
        adder.join().expect("adder thread panicked");
    });
    report.assert_ok();
}

/// Two writers on different shards race a search under the shared class
/// registry: one removes `h`, the last holder of the `align reads` class,
/// which frees its id; the other adds `g`, whose `merge alignments` class
/// is new to the corpus, which mints an id (or takes the freed one).  Each
/// writer holds its shard's write lock and takes the registry inside it;
/// the search holds every shard's read lock before it reads the registry.
/// Whatever the interleaving, the search must answer as one of the four
/// quiescent corpus states, and after both writers join, as the final one.
#[test]
fn service_search_racing_class_freeing_and_minting_writers_matches_a_quiescent_state() {
    const K: usize = 5;
    const QUERY: &str = "a";
    let initial = || -> Vec<Workflow> {
        base_workflows()
            .into_iter()
            .chain([wf("h", &["run blast", "align reads"])])
            .collect()
    };
    let minted = || {
        wf(
            "g",
            &[
                "fetch sequence",
                "run blast",
                "merge alignments",
                "plot hits",
            ],
        )
    };
    let without_h = || initial().into_iter().filter(|w| w.id.0 != "h");
    let references: Arc<Vec<Vec<SearchHit>>> = Arc::new(
        [
            initial(),
            without_h().collect(),
            initial().into_iter().chain([minted()]).collect(),
            without_h().chain([minted()]).collect(),
        ]
        .into_iter()
        .map(|workflows| quiescent_reference(workflows, QUERY, K))
        .collect(),
    );
    for (i, a) in references.iter().enumerate() {
        for b in &references[i + 1..] {
            assert_ne!(a, b, "every corpus state must answer differently");
        }
    }
    let routes = ShardedCorpus::build(
        SimilarityConfig::best_module_sets(),
        2,
        initial().into_iter().chain([minted()]),
    );
    assert_ne!(
        routes.shard_of(&WorkflowId::new("g")),
        routes.shard_of(&WorkflowId::new("h")),
        "the writers must own different shards"
    );

    let refs = Arc::clone(&references);
    let report = check_random(0xF4EE, 300, move || {
        let service = Arc::new(CorpusService::new(ShardedCorpus::build(
            SimilarityConfig::best_module_sets(),
            2,
            initial(),
        )));
        let remover = {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                let removed = service.remove(&WorkflowId::new("h"));
                assert!(removed.is_some(), "h is resident until this remove");
            })
        };
        let adder = {
            let service = Arc::clone(&service);
            thread::spawn(move || {
                service.add(minted());
            })
        };
        let hits = service
            .search(&WorkflowId::new(QUERY), K)
            .expect("query stays resident through churn");
        assert!(
            refs.contains(&hits),
            "search result matches no quiescent corpus state: {hits:?}"
        );
        remover.join().expect("remover panicked");
        adder.join().expect("adder panicked");
        let settled = service
            .search(&WorkflowId::new(QUERY), K)
            .expect("query resident after churn");
        assert_eq!(settled, refs[3], "post-churn corpus must be quiescent");
    });
    report.assert_ok();
}

// ---------------------------------------------------------------------
// Mutation test: the checker must catch the un-fixed threshold.
// ---------------------------------------------------------------------

/// `SearchThreshold` with the bug the real one avoids: max via separate
/// load + store instead of `fetch_max`, a racy read-modify-write.
struct BrokenThreshold(AtomicU64);

impl BrokenThreshold {
    fn new() -> Self {
        BrokenThreshold(AtomicU64::new(0.0_f64.to_bits()))
    }

    fn observe(&self, score: f64) {
        if score.is_finite() && score >= 0.0 {
            let current = f64::from_bits(self.0.load(Ordering::Relaxed));
            if score > current {
                // The lost-update window: another observer's store can
                // land between the load above and this store.
                self.0.store(score.to_bits(), Ordering::Relaxed);
            }
        }
    }

    fn floor(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The exhaustive explorer must find the lost update in the broken
/// threshold — and find the *same* first failing schedule on every run,
/// trace and all.  This is the harness's own regression test: if the
/// scheduler ever stops exploring the racy window, this test fails.
#[test]
fn exhaustive_check_catches_the_unfixed_threshold() {
    let run = || {
        check_exhaustive(50_000, || {
            let threshold = Arc::new(BrokenThreshold::new());
            let t = Arc::clone(&threshold);
            let observer = thread::spawn(move || t.observe(0.25));
            threshold.observe(0.75);
            observer.join().expect("observer panicked");
            assert_eq!(
                threshold.floor(),
                0.75,
                "lost update: the max observation was overwritten"
            );
        })
    };
    let first = run();
    let failure = first.failure.expect("the broken threshold must be caught");
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure: {failure}"
    );
    assert!(!failure.trace.is_empty());
    let second = run();
    let again = second.failure.expect("the same DFS must catch it again");
    assert_eq!(failure.trace, again.trace, "failing schedule must replay");
    assert_eq!(failure.source, again.source);
    assert_eq!(first.schedules, second.schedules);
}
