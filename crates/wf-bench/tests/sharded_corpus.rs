//! The sharded-service equivalence and stress harness.
//!
//! A `ShardedCorpus` is only allowed to be *partitioned* and *concurrent*,
//! never *different*: scatter-gather top-k must be bit-identical — ids,
//! scores, tie order — to the single-corpus `IndexedSearchEngine` for every
//! shard count and module comparison scheme; arbitrary `add` / `remove` /
//! `search` / `search_batch` interleavings must keep answering exactly like
//! a from-scratch single corpus rebuilt after each step; and a
//! `CorpusService` racing real churn threads must never surface a workflow
//! that was removed before the query began.

use std::collections::BTreeSet;
use std::sync::Mutex;

use proptest::prelude::*;
use wf_bench::demo_workflows;
use wf_model::{Workflow, WorkflowId};
use wf_repo::{CancelToken, PreselectionStrategy};
use wf_sim::config::Preprocessing;
use wf_sim::{
    Corpus, CorpusService, MeasureKind, ModuleComparisonScheme, SearchParallelism, ShardedCorpus,
    SimilarityConfig,
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

fn scheme_config(scheme: ModuleComparisonScheme) -> SimilarityConfig {
    SimilarityConfig::new(
        MeasureKind::ModuleSets,
        scheme,
        PreselectionStrategy::TypeEquivalence,
        Preprocessing::ImportanceProjection,
    )
}

/// The acceptance-criteria equivalence: sharded scatter-gather top-k over
/// shard counts {1, 2, 4, 8} is bit-identical to the single-corpus indexed
/// engine for all six module comparison schemes, tie order included.
#[test]
fn sharded_topk_is_bit_identical_for_all_schemes_and_shard_counts() {
    let workflows = demo_workflows(40, 17);
    for scheme in six_schemes() {
        let config = scheme_config(scheme);
        let name = config.name();
        let single = Corpus::build(config.clone(), workflows.clone());
        let engine = single.search_engine();
        for shards in [1usize, 2, 4, 8] {
            let sharded = ShardedCorpus::build(config.clone(), shards, workflows.clone());
            assert_eq!(sharded.shard_count(), shards);
            for (qi, id) in single.ids().iter().enumerate().step_by(4) {
                for k in [1usize, 10] {
                    let expected = engine.top_k(qi, k);
                    let got = sharded.search(id, k).expect("query is resident");
                    assert_eq!(got, expected, "{name}: {shards} shards, query {id}, k {k}");
                }
            }
        }
    }
}

/// The same acceptance criterion for the *racing* scatter-gather: shard
/// workers draining their cursors in parallel against the shared
/// threshold must stay bit-identical to the single-corpus indexed engine
/// — ids, scores, tie order — for every shard count and scheme.  Pruning
/// is strictly below a floor that is always a true worst-of-k, so thread
/// interleaving can change work done, never results.
#[test]
fn racing_topk_is_bit_identical_for_all_schemes_and_shard_counts() {
    let workflows = demo_workflows(40, 17);
    for scheme in six_schemes() {
        let config = scheme_config(scheme);
        let name = config.name();
        let single = Corpus::build(config.clone(), workflows.clone());
        let engine = single.search_engine();
        for shards in [1usize, 2, 4, 8] {
            let racing = ShardedCorpus::build(config.clone(), shards, workflows.clone())
                .with_parallelism(SearchParallelism::Racing);
            for (qi, id) in single.ids().iter().enumerate().step_by(4) {
                for k in [1usize, 10] {
                    let expected = engine.top_k(qi, k);
                    let got = racing.search(id, k).expect("query is resident");
                    assert_eq!(
                        got.len(),
                        expected.len(),
                        "{name}: {shards} shards racing, query {id}, k {k}"
                    );
                    for (g, e) in got.iter().zip(&expected) {
                        assert_eq!(g.id, e.id, "{name}: {shards} shards racing, query {id}");
                        assert_eq!(g.score.to_bits(), e.score.to_bits());
                    }
                }
            }
        }
    }
}

/// The global-frontier guarantee behind the scaling curve: splitting the
/// corpus must not multiply scoring work.  One shared best-bound frontier
/// scores (nearly) the same candidate set at 8 shards as at 1 — only
/// cross-shard bound ties may reorder, so the budget is a tight 1.2×.
///
/// The serving path must be that same frontier: an ungated
/// `CorpusService::search_deadline` (what a fault-free wf-serve runs)
/// scores exactly as many candidates as `ShardedCorpus::search_with_stats`
/// at every shard count.
#[test]
fn sharding_does_not_inflate_scored_comparisons() {
    let workflows = demo_workflows(200, 23);
    let config = SimilarityConfig::best_module_sets();
    let queries: Vec<WorkflowId> = workflows.iter().map(|w| w.id.clone()).step_by(7).collect();
    let scored_at = |shards: usize| -> (u64, u64) {
        let sharded = ShardedCorpus::build(config.clone(), shards, workflows.clone());
        let frontier: u64 = queries
            .iter()
            .map(|id| {
                let (_, stats) = sharded.search_with_stats(id, 10).expect("resident");
                stats.scored as u64
            })
            .sum();
        let service = CorpusService::new(sharded);
        let served: u64 = queries
            .iter()
            .map(|id| {
                let result = service
                    .search_deadline(id, 10, &CancelToken::never())
                    .expect("resident");
                result.stats.scored as u64
            })
            .sum();
        (frontier, served)
    };
    let (baseline, served) = scored_at(1);
    assert!(baseline > 0, "queries must do real scoring work");
    assert_eq!(served, baseline, "1 shard: served vs frontier scoring");
    for shards in [2usize, 4, 8] {
        let (scored, served) = scored_at(shards);
        assert!(
            scored as f64 <= 1.2 * baseline as f64,
            "{shards} shards scored {scored} candidates vs {baseline} at 1 shard"
        );
        assert_eq!(
            served, scored,
            "{shards} shards: the served deadline path must score like the frontier"
        );
    }
}

/// Batched queries are individually bit-identical to single searches — and
/// therefore to the single-corpus engine — regardless of worker count.
#[test]
fn batch_queries_match_single_queries_under_parallel_fanout() {
    let workflows = demo_workflows(60, 19);
    let config = SimilarityConfig::best_module_sets();
    let single = Corpus::build(config.clone(), workflows.clone());
    let engine = single.search_engine();
    let sharded = ShardedCorpus::build(config, 4, workflows);
    let queries: Vec<WorkflowId> = single.ids().to_vec();
    for threads in [1usize, 4, 9] {
        let batch = sharded.search_batch(&queries, 10, threads);
        for (qi, (id, hits)) in queries.iter().zip(&batch).enumerate() {
            assert_eq!(
                hits.as_deref().expect("resident"),
                engine.top_k(qi, 10),
                "threads {threads}, query {id}"
            );
        }
    }
}

/// One churn step of the interleaving stress: mirrors the ops the service
/// will see in production (uploads, deletions, replacements).
fn apply_op(sharded: &mut ShardedCorpus, op: u8, pick: usize, extra: &[Workflow], step: usize) {
    match op {
        0 if !sharded.is_empty() => {
            let ids = sharded.ids();
            let id = ids[pick % ids.len()].clone();
            assert!(sharded.remove(&id).is_some());
        }
        1 => {
            let mut wf = extra[pick % extra.len()].clone();
            wf.id = format!("churn-{step}").into();
            sharded.add(wf);
        }
        _ if !sharded.is_empty() => {
            // Replace a resident with a different structure, same id.
            let ids = sharded.ids();
            let id = ids[pick % ids.len()].clone();
            let mut wf = extra[pick % extra.len()].clone();
            wf.id = id;
            sharded.add(wf);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random interleavings of add / remove / search / search_batch: after
    /// every mutation, the sharded corpus must answer exactly like a
    /// single corpus rebuilt from scratch over the surviving workflows.
    #[test]
    fn churned_sharded_corpus_equals_a_from_scratch_rebuild_after_each_step(
        size in 12usize..=30,
        shards in 1usize..=5,
        seed in 0u64..10_000,
        ops in proptest::collection::vec((0u8..=3, 0usize..1000), 4..10),
        k in 1usize..=8,
    ) {
        let initial = demo_workflows(size, seed);
        let extra = demo_workflows(12, seed ^ 0xfeed);
        let config = SimilarityConfig::best_module_sets();
        let mut sharded = ShardedCorpus::build(config.clone(), shards, initial);
        for (step, (op, pick)) in ops.into_iter().enumerate() {
            let searching = op == 3;
            if !searching {
                apply_op(&mut sharded, op, pick, &extra, step);
            }
            // Rebuild the reference single corpus from the survivors after
            // *every* step and compare answers.
            let survivors: Vec<Workflow> = sharded
                .ids()
                .iter()
                .map(|id| sharded.get(id).unwrap().clone())
                .collect();
            let rebuilt = Corpus::build(config.clone(), survivors);
            prop_assert_eq!(sharded.len(), rebuilt.len());
            if rebuilt.is_empty() {
                continue;
            }
            if searching {
                // Exercise the batch path on a slice of resident queries.
                let queries: Vec<WorkflowId> =
                    rebuilt.ids().iter().take(3).cloned().collect();
                let batch = sharded.search_batch(&queries, k, 3);
                for (id, hits) in queries.iter().zip(&batch) {
                    let qi = rebuilt.index_of(id).unwrap();
                    prop_assert_eq!(
                        hits.as_deref().expect("resident"),
                        rebuilt.top_k_index(qi, k),
                        "batch after step {}, query {}", step, id
                    );
                }
            } else {
                let id = &rebuilt.ids()[pick % rebuilt.len()];
                let qi = rebuilt.index_of(id).unwrap();
                prop_assert_eq!(
                    sharded.search(id, k).expect("resident"),
                    rebuilt.top_k_index(qi, k),
                    "search after step {}, query {}", step, id
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Degraded partials under a deadline that fires at a random point of
    /// the scatter, sequential and racing paths alike.  Whatever the
    /// trigger shard and interleaving:
    ///
    /// * `answered` has exactly one bit per shard;
    /// * every surviving hit carries the *exact* score the full ranking
    ///   proves for that id (never-return-a-pruned-winner: pruning only
    ///   drops candidates, it cannot fabricate or perturb survivors);
    /// * hits keep the canonical (score desc, id asc) order and respect k;
    /// * an undegraded result is the plain search answer, bit for bit;
    /// * a trigger past the last shard (deadline never fires) cannot
    ///   degrade either path.
    #[test]
    fn cancelled_scatter_yields_exact_partials_in_both_modes(
        shard_pow in 0u32..=3,
        trigger_pick in 0usize..1000,
        seed in 0u64..10_000,
        k in 1usize..=8,
    ) {
        let shards = 1usize << shard_pow;
        let trigger = trigger_pick % (shards + 1);
        let workflows = demo_workflows(24, seed);
        let config = SimilarityConfig::best_module_sets();
        for parallelism in [SearchParallelism::Sequential, SearchParallelism::Racing] {
            let service = CorpusService::new(
                ShardedCorpus::build(config.clone(), shards, workflows.clone())
                    .with_parallelism(parallelism),
            );
            let query = workflows[seed as usize % workflows.len()].id.clone();
            let full = service
                .search(&query, service.len())
                .expect("query is resident");
            let plain = service.search(&query, k).expect("query is resident");
            let token = CancelToken::never();
            let result = service
                .search_deadline_with(&query, k, &token, |shard| {
                    if shard == trigger {
                        token.cancel();
                    }
                    true
                })
                .expect("query is resident");
            prop_assert_eq!(result.answered.len(), shards, "{}", parallelism);
            prop_assert!(result.hits.len() <= k);
            for pair in result.hits.windows(2) {
                let ordered = pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].id < pair[1].id);
                prop_assert!(ordered, "{}: hit order violated: {:?}", parallelism, pair);
            }
            for hit in &result.hits {
                let reference = full.iter().find(|h| h.id == hit.id);
                prop_assert!(
                    reference.is_some(),
                    "{}: hit {} not in the full ranking",
                    parallelism,
                    &hit.id
                );
                let reference = reference.expect("asserted above");
                prop_assert_eq!(
                    hit.score.to_bits(),
                    reference.score.to_bits(),
                    "{}: partial hit {} must keep its exact score",
                    parallelism,
                    &hit.id
                );
            }
            if result.degraded {
                prop_assert!(result.answered.iter().any(|&a| !a), "{}", parallelism);
            } else {
                prop_assert!(result.answered.iter().all(|&a| a), "{}", parallelism);
                prop_assert_eq!(&result.hits, &plain, "{}", parallelism);
            }
            if trigger == shards {
                // The gate never matches a real shard, so the deadline
                // never fires and both paths must answer in full.
                prop_assert!(!result.degraded, "{}", parallelism);
                prop_assert_eq!(&result.hits, &plain, "{}", parallelism);
            }
        }
    }
}

/// The multi-threaded smoke test: queries racing live churn through the
/// `RwLock`-per-shard service.  Invariants checked on every result:
///
/// * no returned id was removed *before* the query began (removal
///   completes under the owning shard's write lock, so later reads must
///   not see it);
/// * every returned id is one the corpus has ever known;
/// * result lists respect `k` and the canonical (score desc, id asc)
///   ordering.
#[test]
fn service_queries_racing_churn_never_surface_stale_workflows_hash() {
    let workflows = demo_workflows(48, 23);
    let config = SimilarityConfig::best_module_sets();
    let service =
        CorpusService::new(ShardedCorpus::build(config, 4, workflows.clone())).with_threads(4);

    let survivors: Vec<WorkflowId> = workflows.iter().skip(12).map(|w| w.id.clone()).collect();
    let victims: Vec<WorkflowId> = workflows.iter().take(12).map(|w| w.id.clone()).collect();
    let mut ever_known: BTreeSet<WorkflowId> = workflows.iter().map(|w| w.id.clone()).collect();
    let added: Vec<Workflow> = demo_workflows(8, 99)
        .into_iter()
        .enumerate()
        .map(|(i, mut wf)| {
            wf.id = format!("added-{i}").into();
            wf
        })
        .collect();
    ever_known.extend(added.iter().map(|w| w.id.clone()));

    // Ids whose removal has *completed*; queries snapshot it before they
    // start, so anything in the snapshot must be invisible to them.
    let removed_log: Mutex<BTreeSet<WorkflowId>> = Mutex::new(BTreeSet::new());

    std::thread::scope(|scope| {
        let service = &service;
        let removed_log = &removed_log;
        let (survivors, victims, added, ever_known) = (&survivors, &victims, &added, &ever_known);

        scope.spawn(move || {
            for (victim, addition) in victims.iter().zip(added.iter().cycle()) {
                assert!(service.remove(victim).is_some(), "victim {victim} resident");
                removed_log.lock().unwrap().insert(victim.clone());
                service.add(addition.clone());
                std::thread::yield_now();
            }
        });

        for worker in 0..2usize {
            scope.spawn(move || {
                for round in 0..30usize {
                    let query = &survivors[(worker * 31 + round * 7) % survivors.len()];
                    let removed_before: BTreeSet<WorkflowId> = removed_log.lock().unwrap().clone();
                    let hits = service
                        .search(query, 10)
                        .expect("survivor queries stay resident");
                    assert!(hits.len() <= 10);
                    for pair in hits.windows(2) {
                        let ordered = pair[0].score > pair[1].score
                            || (pair[0].score == pair[1].score && pair[0].id < pair[1].id);
                        assert!(ordered, "canonical hit ordering violated: {pair:?}");
                    }
                    for hit in &hits {
                        assert!(
                            ever_known.contains(&hit.id),
                            "unknown id {} surfaced",
                            hit.id
                        );
                        assert!(
                            !removed_before.contains(&hit.id),
                            "{} was removed before the query began",
                            hit.id
                        );
                        assert_ne!(&hit.id, query, "query excluded from its own results");
                    }
                    // Exercise the batch path under churn, too.
                    if round % 10 == 0 {
                        let batch = service.search_batch(std::slice::from_ref(query), 5);
                        assert!(batch[0].is_some());
                    }
                }
            });
        }
    });

    // After the dust settles: all victims gone, all additions resident
    // and reachable through their owning shard, and the service still
    // answers exactly like a from-scratch rebuild.
    assert_eq!(service.len(), 48 - 12 + 8);
    for victim in &victims {
        assert!(!service.contains(victim));
    }
    for addition in &added {
        assert!(
            service.contains(&addition.id),
            "{} unreachable",
            addition.id
        );
        assert!(service.search(&addition.id, 3).is_some());
    }
    let sharded = service.into_sharded();
    let survivors_now: Vec<Workflow> = sharded
        .ids()
        .iter()
        .map(|id| sharded.get(id).unwrap().clone())
        .collect();
    let rebuilt = Corpus::build(SimilarityConfig::best_module_sets(), survivors_now);
    for id in sharded.ids().iter().step_by(5) {
        let qi = rebuilt.index_of(id).unwrap();
        assert_eq!(
            sharded.search(id, 10).unwrap(),
            rebuilt.top_k_index(qi, 10),
            "post-churn query {id}"
        );
    }
}

/// Sharded snapshot manifest round-trip on a realistic corpus, including a
/// shard holding zero workflows, plus the corrupt-one-shard fallback.
#[test]
fn sharded_snapshot_roundtrip_reproduces_search_results() {
    let dir = std::env::temp_dir().join("wfsim-bench-shard-snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    let workflows = demo_workflows(30, 29);
    let config = SimilarityConfig::best_module_sets();
    // 30 workflows over 31 shards: at least one shard is empty.
    let sharded = ShardedCorpus::build(config.clone(), 31, workflows);
    assert!(sharded.shards().iter().any(|s| s.is_empty()));
    sharded.save(&dir).unwrap();

    let restored = ShardedCorpus::load(&dir, config.clone()).unwrap();
    assert_eq!(restored.ids(), sharded.ids());
    for id in sharded.ids().iter().step_by(3) {
        assert_eq!(
            restored.search(id, 10).unwrap(),
            sharded.search(id, 10).unwrap(),
            "restored query {id}"
        );
    }

    // Corrupting one non-empty shard file yields a typed per-shard error
    // and a clean fallback rebuild.
    let victim_shard = (7..31)
        .find(|&i| !sharded.shards()[i].is_empty())
        .expect("30 workflows fill some shard from 7 on");
    let victim = dir.join(format!("shard-{victim_shard:03}.snap"));
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, text.replace("\"id\"", "\"ID\"")).unwrap();
    match ShardedCorpus::load(&dir, config.clone()) {
        Err(wf_sim::ShardSnapshotError::Shard { shard, .. }) if shard == victim_shard => {}
        Err(err) => panic!("unexpected error: {err}"),
        Ok(_) => panic!("corrupt shard must not load"),
    }
    let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config, 4, demo_workflows(30, 29));
    assert!(!origin.is_snapshot());
    assert_eq!(rebuilt.len(), 30);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault injection on the persistence layer: a shard snapshot cut off
/// mid-file (a crashed writer, a torn copy) must surface as a typed
/// per-shard error naming the exact shard, and `load_or_build` must
/// recover with a rebuild whose search results are bit-identical to the
/// corpus the snapshot was taken from.
#[test]
fn truncated_shard_snapshot_is_typed_and_recovery_is_equivalent() {
    let dir = std::env::temp_dir().join("wfsim-bench-shard-truncation");
    let _ = std::fs::remove_dir_all(&dir);
    let workflows = demo_workflows(24, 77);
    let config = SimilarityConfig::best_module_sets();
    let original = ShardedCorpus::build(config.clone(), 5, workflows.clone());
    original.save(&dir).unwrap();

    // Truncate shard 3 mid-file: keep a strict prefix so the header may
    // even parse but the payload (and checksum) cannot.
    let victim = dir.join("shard-003.snap");
    let bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 64, "fixture shard file is implausibly small");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    match ShardedCorpus::load(&dir, config.clone()) {
        Err(wf_sim::ShardSnapshotError::Shard { shard: 3, .. }) => {}
        Err(err) => panic!("truncation must be a typed shard-3 error, got: {err}"),
        Ok(_) => panic!("a truncated shard must not load"),
    }

    let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config.clone(), 5, workflows);
    assert!(!origin.is_snapshot());
    assert_eq!(
        origin.failed_shard(),
        Some(3),
        "rebuild reason names the shard"
    );
    assert_eq!(rebuilt.ids(), original.ids());
    for id in original.ids() {
        assert_eq!(
            rebuilt.search(&id, 10).unwrap(),
            original.search(&id, 10).unwrap(),
            "post-recovery query {id}"
        );
    }

    // The recovered corpus can re-save over the damaged snapshot and the
    // new snapshot round-trips cleanly.
    rebuilt.save(&dir).unwrap();
    let restored = ShardedCorpus::load(&dir, config).unwrap();
    assert_eq!(restored.ids(), original.ids());
    let _ = std::fs::remove_dir_all(&dir);
}
