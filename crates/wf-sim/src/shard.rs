//! The sharded corpus service layer: scatter-gather top-k over
//! independently owned corpus shards, safe to query while the corpus
//! churns.
//!
//! The paper scores a static repository offline; the ROADMAP north-star is
//! a serving system answering heavy query traffic *while* workflows are
//! uploaded and deleted — the repository-scale setting Davidson et al.
//! describe for myExperiment-style search.  One [`Corpus`](crate::Corpus)
//! cannot get there alone: a single `&mut` mutation path stalls every
//! reader, one `StringPool` and one inverted index serialize all profiling,
//! and a single snapshot file is rewritten wholesale on every save.  This
//! module partitions the corpus instead:
//!
//! * [`ShardedCorpus`] — N shards, each a complete [`Corpus`] owning its
//!   own pool, profiles and token index, all sharing one frozen base of
//!   module classes built with them; each workflow lives in the shard
//!   the FNV-1a hash of its id picks, so routing is stateless and an id
//!   never lives in two shards.  A top-k query **scatters** by building one
//!   candidate *cursor* per shard (the shard's candidates with their
//!   bounds, read from one per-query table over the shared class base;
//!   nothing scored yet), then
//!   runs **one global best-bound-first scan** over the cursors merged by
//!   a [`RankedFrontier`](wf_repo::RankedFrontier): the scan always scores
//!   the globally best-bound candidate and tightens a single shared
//!   [`SearchThreshold`], so the pruning power of the admissible-bound
//!   search is independent of how many shards the corpus is split into.
//!   The **gather** is the shared [`merge_top_k`](wf_repo::merge_top_k)
//!   canonicalization of the one scan's hits.
//! * [`CorpusService`] — the concurrent wrapper: one `RwLock` per shard,
//!   so searches proceed on all shards concurrently with churn that only
//!   write-locks the single owning shard, plus a parallel batch-query API.
//!   Hash routing needs no shared route table, so the shard locks are the
//!   service's only locks.
//!
//! ## Why sharded search stays bit-identical
//!
//! Every shard scores the query with exactly the shared
//! [`ProfiledMeasure`] code path: the query's pool-independent features are
//! extracted once ([`QueryFeatures`]) and bound per shard against a
//! *frozen* pool ([`wf_text::FrozenInterner`]), which reproduces every
//! token-set comparison bit-for-bit without mutating the shard.  Pruning
//! only ever skips a candidate whose admissible upper bound falls
//! *strictly* below the shared threshold floor — and the floor is always a
//! true k-th best score of `k` distinct candidates, so no pruned candidate
//! can enter the merged top-k, under any cursor merge order or thread
//! interleaving.  The gather step sorts by the canonical `(score desc, id
//! asc)` hit ordering, so ids, scores *and* tie order equal the
//! single-corpus [`IndexedSearchEngine`](wf_repo::IndexedSearchEngine).

use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

// Model-checkable lock shims: plain `std::sync` locks outside a model run,
// deterministic scheduling points inside one (see `vendor/shuttle-mini`
// and the `wf-analyze` model-check suite, which races `CorpusService`
// searches against live churn under a controlled scheduler).
use shuttle_mini::sync::{RwLock, RwLockReadGuard};

use wf_model::{Workflow, WorkflowId};
use wf_repo::{
    merge_top_k, scan_ranked_candidates, CancelToken, RankedCandidate, RankedFrontier, SearchHit,
    SearchStats, SearchThreshold,
};

use crate::config::SimilarityConfig;
use crate::corpus::{
    config_fingerprint, dedup_last_wins, fnv1a64, sync_dir, write_atomic, Corpus, SnapshotError,
};
use crate::pipeline::WorkflowSimilarity;
use crate::profile::{BaseBounds, ProfiledMeasure, QueryFeatures, WorkflowProfile};

/// First token of a shard-manifest header line.
pub const SHARD_MANIFEST_MAGIC: &str = "wfsim-shard-manifest";

/// Version of the shard-manifest layout.  Version 2 added the generation
/// number that ties the manifest to its shard files; version 3 dropped the
/// partition and rotation-cursor fields (routing is always by id hash).
pub const SHARD_MANIFEST_VERSION: u32 = 3;

/// The file a [`ShardedCorpus::save`] directory's manifest is written to.
pub const SHARD_MANIFEST_FILE: &str = "manifest";

/// How many workers one query's scatter runs on.
///
/// Both modes are **bit-identical** — ids, scores, tie order — to the
/// single-corpus [`IndexedSearchEngine`](wf_repo::IndexedSearchEngine);
/// the knob only sets the worker count the scatter is planned with:
///
/// * [`Sequential`](SearchParallelism::Sequential) is one worker, inline
///   on the calling thread.  Without a shard gate every shard's ranked
///   cursor is merged into one global best-bound-first frontier, so
///   scoring order is globally optimal and this mode does the *least*
///   total work; the number of candidates scored is flat in shard count.
///   This is the path the fault-free `wf-serve` server runs, and the only
///   mode that may run inside a shuttle-mini model run (it spawns
///   nothing).
/// * [`Racing`](SearchParallelism::Racing) runs one worker per shard:
///   each scans its own shard and all drain against the one shared
///   lock-free [`SearchThreshold`], so every worker prunes against the
///   globally tightening k-th-best floor.  Workers may score candidates a
///   global frontier would have pruned (the floor tightens a little
///   later), but pruning is *strictly below* a floor that is always a true
///   worst-of-k of exactly-scored candidates, so no interleaving can
///   change the merged result — only the work split.  What racing is kept
///   for is isolation: a shard whose gate stalls pins only its own worker.
///   The workers are plain `std` scoped threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchParallelism {
    /// One global frontier, scanned sequentially (the default).
    #[default]
    Sequential,
    /// One worker per shard, racing the shared threshold floor.
    Racing,
}

impl SearchParallelism {
    /// The number of workers a scan over `shard_count` shards uses.
    fn workers_for(self, shard_count: usize) -> usize {
        match self {
            SearchParallelism::Sequential => 1,
            SearchParallelism::Racing => shard_count.max(1),
        }
    }
}

impl fmt::Display for SearchParallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SearchParallelism::Sequential => "sequential",
            SearchParallelism::Racing => "racing",
        })
    }
}

fn hash_route(id: &WorkflowId, shards: usize) -> usize {
    (fnv1a64(id.as_str().as_bytes()) % shards as u64) as usize
}

fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:03}.snap")
}

/// The one manifest header the sharded writer ([`save_shards`]) writes
/// and [`ShardedCorpus::load`] parses — any new field must be added here
/// and in the parser, never in a per-caller copy.
fn manifest_line(generation: u64, shards: usize, config: &SimilarityConfig) -> String {
    format!(
        "{SHARD_MANIFEST_MAGIC} v{SHARD_MANIFEST_VERSION} gen={generation} shards={shards} config={}\n",
        config_fingerprint(config),
    )
}

/// The one sharded snapshot writer, behind both [`ShardedCorpus::save`]
/// and [`CorpusService::save`].  Every file is replaced atomically (temp
/// file, fsync, rename), the shard files first and the manifest last, all
/// stamped with one new generation: the manifest's rename commits the
/// save.  A crash before it leaves the previous manifest, which either
/// still matches every shard file or finds one stamped with the new
/// generation and fails the load with [`SnapshotError::GenerationMismatch`].
/// A load therefore sees the old save, the new one, or a typed error that
/// [`ShardedCorpus::load_or_build`] rebuilds from — never a mix.
fn save_shards<R: std::ops::Deref<Target = Corpus>>(
    dir: &Path,
    config: &SimilarityConfig,
    shard_count: usize,
    mut shard_at: impl FnMut(usize) -> R,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // A previous manifest without a readable generation cannot load, so
    // any generation is new to it.
    let generation = std::fs::read_to_string(dir.join(SHARD_MANIFEST_FILE))
        .ok()
        .and_then(|text| {
            text.split(' ')
                .find_map(|f| f.strip_prefix("gen=")?.parse().ok())
        })
        .map_or(1, |previous: u64| previous.wrapping_add(1));
    let mut steps = 0;
    for i in 0..shard_count {
        // The shard (and its read lock) is released before the write.
        let text = shard_at(i).snapshot_string(generation);
        write_atomic(&dir.join(shard_file_name(i)), text.as_bytes(), &mut steps)?;
    }
    // The shard renames must be durable before the manifest's.
    sync_dir(dir, &mut steps)?;
    let manifest = manifest_line(generation, shard_count, config);
    write_atomic(
        &dir.join(SHARD_MANIFEST_FILE),
        manifest.as_bytes(),
        &mut steps,
    )?;
    sync_dir(dir, &mut steps)
}

/// A corpus partitioned across N independent shards with scatter-gather
/// top-k search.
///
/// # Invariants
///
/// * every shard is a complete [`Corpus`] for the same
///   [`SimilarityConfig`]; pool, profiles and index are per shard, and the
///   only thing shards share is the immutable module-class base they were
///   built with (read without a lock);
/// * a workflow id lives in at most one shard, and always in the shard the
///   hash of the id routes it to ([`ShardedCorpus::add`] replaces through
///   the owning shard, never across shards);
/// * [`ShardedCorpus::search`] results — ids, scores, tie order — are
///   bit-identical to a single-corpus
///   [`IndexedSearchEngine`](wf_repo::IndexedSearchEngine) over the union
///   of all shards, for every shard count.
///
/// ```
/// use wf_model::{builder::WorkflowBuilder, ModuleType};
/// use wf_sim::{ShardedCorpus, SimilarityConfig};
///
/// let wf = |id: &str, label: &str| {
///     WorkflowBuilder::new(id)
///         .module(label, ModuleType::WsdlService, |m| m)
///         .build()
///         .unwrap()
/// };
/// let mut sharded = ShardedCorpus::build(
///     SimilarityConfig::best_module_sets(),
///     4,
///     vec![wf("a", "blast search"), wf("b", "blast align"), wf("c", "plot")],
/// );
/// let hits = sharded.search(&"a".into(), 2).unwrap();
/// assert_eq!(hits[0].id.as_str(), "b");
/// sharded.remove(&"b".into());
/// assert_eq!(sharded.len(), 2);
/// ```
pub struct ShardedCorpus {
    config: SimilarityConfig,
    shards: Vec<Corpus>,
    /// How a single query's scan is scheduled across the shards (a
    /// runtime knob, not persisted by [`ShardedCorpus::save`]).
    parallelism: SearchParallelism,
}

impl ShardedCorpus {
    /// Builds a hash-partitioned corpus of `shard_count` shards (clamped to
    /// at least 1).  Duplicate ids replace earlier occurrences, exactly
    /// like [`Corpus::build`]: every copy of an id hashes to one shard, in
    /// arrival order, and that shard's build keeps the last upload at the
    /// first one's position.
    pub fn build(
        config: SimilarityConfig,
        shard_count: usize,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> Self {
        let shard_count = shard_count.max(1);
        let mut buckets: Vec<Vec<Workflow>> = (0..shard_count).map(|_| Vec::new()).collect();
        for wf in workflows {
            buckets[hash_route(&wf.id, shard_count)].push(wf);
        }
        let buckets = buckets.into_iter().map(dedup_last_wins).collect();
        ShardedCorpus::from_buckets(config, buckets)
    }

    /// Builds one shard per bucket of distinct-id workflows.  The shards'
    /// profiles are built together, so that every module class of the
    /// corpus is interned once into one class base, which all the shards
    /// share (a search then bounds its query against each class once, not
    /// once per shard holding it).
    fn from_buckets(config: SimilarityConfig, buckets: Vec<Vec<Workflow>>) -> Self {
        let slices: Vec<&[Workflow]> = buckets.iter().map(Vec::as_slice).collect();
        let measures =
            ProfiledMeasure::build_shared(&WorkflowSimilarity::new(config.clone()), &slices);
        let shards = buckets
            .into_iter()
            .zip(measures)
            .map(|(originals, measure)| Corpus::from_profiled(originals, measure))
            .collect();
        ShardedCorpus {
            config,
            shards,
            parallelism: SearchParallelism::default(),
        }
    }

    /// Sets the intra-query scan strategy (builder form).  Both modes are
    /// bit-identical; see [`SearchParallelism`].  A [`CorpusService`]
    /// wrapping this corpus inherits the strategy.
    pub fn with_parallelism(mut self, parallelism: SearchParallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured similarity algorithm (shared by every shard).
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// The algorithm name in the paper's notation.
    pub fn measure_name(&self) -> String {
        self.shards[0].measure_name()
    }

    /// Number of shards (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[Corpus] {
        &self.shards
    }

    /// Total number of workflows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Corpus::len).sum()
    }

    /// True when no shard holds a workflow.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Corpus::is_empty)
    }

    /// All workflow ids, shard-major (shard 0's corpus order, then shard
    /// 1's, …).
    pub fn ids(&self) -> Vec<WorkflowId> {
        self.shards
            .iter()
            .flat_map(|s| s.ids().iter().cloned())
            .collect()
    }

    /// The shard currently holding a workflow id, if resident.
    pub fn shard_of(&self, id: &WorkflowId) -> Option<usize> {
        let shard = hash_route(id, self.shards.len());
        self.shards[shard].index_of(id).map(|_| shard)
    }

    /// True when the id is resident in some shard.
    pub fn contains(&self, id: &WorkflowId) -> bool {
        self.shard_of(id).is_some()
    }

    /// The original workflow with a given id.
    pub fn get(&self, id: &WorkflowId) -> Option<&Workflow> {
        self.shards[self.shard_of(id)?].get(id)
    }

    /// Inserts a workflow into its owning shard (replacing any resident
    /// with the same id in place), returning the shard index.  Only that
    /// shard's pool, profiles and index are touched.
    pub fn add(&mut self, wf: Workflow) -> usize {
        let shard = hash_route(&wf.id, self.shards.len());
        self.shards[shard].add(wf);
        shard
    }

    /// Removes a workflow from its owning shard, returning it (or `None`
    /// for an unknown id).
    pub fn remove(&mut self, id: &WorkflowId) -> Option<Workflow> {
        let shard = hash_route(id, self.shards.len());
        self.shards[shard].remove(id)
    }

    /// The `k` workflows most similar to the resident workflow with id
    /// `query` (itself excluded), best first; `None` for an unknown id.
    /// Bit-identical to the single-corpus indexed engine.
    pub fn search(&self, query: &WorkflowId, k: usize) -> Option<Vec<SearchHit>> {
        Some(self.search_with_stats(query, k)?.0)
    }

    /// [`ShardedCorpus::search`] plus pruning instrumentation aggregated
    /// over all shards.
    pub fn search_with_stats(
        &self,
        query: &WorkflowId,
        k: usize,
    ) -> Option<(Vec<SearchHit>, SearchStats)> {
        let result = self.search_deadline(query, k, &CancelToken::never())?;
        Some((result.hits, result.stats))
    }

    /// Query by example: the `k` workflows most similar to an arbitrary
    /// (not necessarily resident) workflow.  Residents sharing the query's
    /// id are excluded, mirroring the single-corpus engines.
    pub fn search_workflow(&self, wf: &Workflow, k: usize) -> Vec<SearchHit> {
        let features = self.query_features(wf);
        self.scatter(&features, &wf.id, k, &CancelToken::never())
            .hits
    }

    /// Answers a batch of queries on `threads` worker threads, one full
    /// scatter per query (queries are the work-stealing unit, so every
    /// query keeps the full pruning power of [`ShardedCorpus::search`]).
    /// Query profiling is amortized: each query's pool-independent
    /// features are extracted once and only *bound* per shard.  Unknown
    /// ids yield `None`; results align with `queries` and are individually
    /// bit-identical to [`ShardedCorpus::search`].
    pub fn search_batch(
        &self,
        queries: &[WorkflowId],
        k: usize,
        threads: usize,
    ) -> Vec<Option<Vec<SearchHit>>> {
        self.search_batch_with_stats(queries, k, threads).0
    }

    /// [`ShardedCorpus::search_batch`] plus the pruning instrumentation
    /// aggregated over every answered query — what the serving benchmark
    /// reads to compare scored/pruned work across shard counts without a
    /// second (untimed) pass.
    pub fn search_batch_with_stats(
        &self,
        queries: &[WorkflowId],
        k: usize,
        threads: usize,
    ) -> (Vec<Option<Vec<SearchHit>>>, SearchStats) {
        let answers = claim_units(queries.len(), threads, |qi| {
            self.search_with_stats(&queries[qi], k)
        });
        let mut stats = SearchStats::default();
        let results = answers
            .into_iter()
            .map(|answer| {
                let (hits, query_stats) = answer?;
                stats.merge(&query_stats);
                Some(hits)
            })
            .collect();
        (results, stats)
    }

    /// Extracts the pool-independent query features once (any shard's
    /// measure works: all shards share one configuration).
    fn query_features(&self, wf: &Workflow) -> QueryFeatures {
        self.shards[0].measure().query_features(wf)
    }

    /// One ungated [`scatter`] over the owned shards, planned with the
    /// configured [`SearchParallelism`].
    fn scatter(
        &self,
        features: &QueryFeatures,
        exclude: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> DegradedSearch {
        let plan = ScatterPlan {
            cancel,
            gate: None,
            workers: self.parallelism.workers_for(self.shards.len()),
        };
        scatter(
            self.shards.len(),
            |i| &self.shards[i],
            features,
            exclude,
            k,
            &plan,
        )
    }

    /// Deadline-bound search: like [`ShardedCorpus::search`], but the scan
    /// polls `cancel` between candidates, so a fired deadline returns the
    /// exact partial top-k proven so far (flagged
    /// [`degraded`](DegradedSearch::degraded), with the shards that
    /// answered completely recorded) instead of blocking past the SLO.
    /// With a never-firing token the result equals
    /// [`ShardedCorpus::search`] and is not degraded.
    pub fn search_deadline(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> Option<DegradedSearch> {
        let features = self.query_features(self.get(query)?);
        Some(self.scatter(&features, query, k, cancel))
    }

    /// Writes one snapshot file per shard, then a manifest, into `dir`
    /// (created if absent).  Shard snapshots are the versioned, checksummed
    /// [`Corpus::save`] format; the manifest records the save's generation,
    /// shard count and config fingerprint, and its atomic rename commits
    /// the save.
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        save_shards(dir.as_ref(), &self.config, self.shards.len(), |i| {
            &self.shards[i]
        })
    }

    /// Restores a sharded corpus saved by [`ShardedCorpus::save`]: decodes
    /// every shard's workflows, then rebuilds all shards together, as
    /// [`ShardedCorpus::build`] does (one shared class base).  The
    /// manifest must carry the current layout version and the fingerprint
    /// of exactly `config`; every shard snapshot must load intact (each is
    /// version- and checksum-validated individually) and carry the
    /// manifest's generation, and every restored workflow must hash to
    /// the shard it was found in.  Any violation is a typed
    /// [`ShardSnapshotError`].  The manifest's shard count is not trusted
    /// for allocation: a count larger than the files present fails at the
    /// first missing shard file.
    pub fn load(
        dir: impl AsRef<Path>,
        config: SimilarityConfig,
    ) -> Result<Self, ShardSnapshotError> {
        let dir = dir.as_ref();
        let text = std::fs::read_to_string(dir.join(SHARD_MANIFEST_FILE))
            .map_err(ShardSnapshotError::Io)?;
        let header = text.lines().next().unwrap_or_default();
        let mut parts = header.split(' ');
        if parts.next() != Some(SHARD_MANIFEST_MAGIC) {
            return Err(ShardSnapshotError::Manifest(format!(
                "not a shard manifest: {header:?}"
            )));
        }
        let version = parts.next().unwrap_or_default();
        if version != format!("v{SHARD_MANIFEST_VERSION}") {
            return Err(ShardSnapshotError::Manifest(format!(
                "manifest version {version} != supported v{SHARD_MANIFEST_VERSION}"
            )));
        }
        let mut field = |name: &str| {
            parts
                .next()
                .and_then(|f| f.strip_prefix(name).map(str::to_string))
                .ok_or_else(|| ShardSnapshotError::Manifest(format!("missing {name}<value>")))
        };
        let generation: u64 = field("gen=")?
            .parse()
            .map_err(|_| ShardSnapshotError::Manifest("malformed generation".to_string()))?;
        let shard_count: usize = field("shards=")?
            .parse()
            .map_err(|_| ShardSnapshotError::Manifest("malformed shard count".to_string()))?;
        if shard_count == 0 {
            return Err(ShardSnapshotError::Manifest(
                "manifest declares zero shards".to_string(),
            ));
        }
        let fingerprint = field("config=")?;
        let expected = config_fingerprint(&config);
        if fingerprint != expected {
            return Err(ShardSnapshotError::ConfigMismatch {
                expected,
                found: fingerprint,
            });
        }
        let mut buckets = Vec::new();
        for i in 0..shard_count {
            let bucket = std::fs::read_to_string(dir.join(shard_file_name(i)))
                .map_err(SnapshotError::Io)
                .and_then(|text| Corpus::snapshot_workflows(&text, &config, Some(generation)));
            buckets.push(bucket.map_err(|error| ShardSnapshotError::Shard { shard: i, error })?);
        }
        for (i, bucket) in buckets.iter().enumerate() {
            for wf in bucket {
                let expected = hash_route(&wf.id, shard_count);
                if expected != i {
                    return Err(ShardSnapshotError::Manifest(format!(
                        "workflow {} found in shard {i} but hashes to shard {expected}",
                        wf.id
                    )));
                }
            }
        }
        Ok(ShardedCorpus::from_buckets(config, buckets))
    }

    /// Loads the sharded snapshot in `dir` if it is present, intact and
    /// matches `config`; otherwise builds a fresh sharded corpus from
    /// `workflows`.  The origin says which happened (and why a rebuild was
    /// needed), so servers can log and re-save.
    ///
    /// A fallback is never silent: the rejected snapshot — including
    /// *which* shard file failed, when one did — is reported on stderr, so
    /// an operator can tell a routine cold start from a corrupted shard
    /// that quietly cost a full rebuild.
    pub fn load_or_build(
        dir: impl AsRef<Path>,
        config: SimilarityConfig,
        shard_count: usize,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> (Self, ShardOrigin) {
        let dir = dir.as_ref();
        match ShardedCorpus::load(dir, config.clone()) {
            Ok(sharded) => (sharded, ShardOrigin::Snapshot),
            Err(reason) => {
                match reason.failed_shard() {
                    Some(shard) => eprintln!(
                        "wfsim: sharded snapshot {}: shard {shard} ({}) rejected — {reason}; \
                         rebuilding every shard from source workflows",
                        dir.display(),
                        shard_file_name(shard),
                    ),
                    None => eprintln!(
                        "wfsim: sharded snapshot {}: {reason}; rebuilding from source workflows",
                        dir.display(),
                    ),
                }
                (
                    ShardedCorpus::build(config, shard_count, workflows),
                    ShardOrigin::Rebuilt(reason),
                )
            }
        }
    }
}

/// How [`ShardedCorpus::load_or_build`] obtained its corpus.
#[derive(Debug)]
pub enum ShardOrigin {
    /// Every shard was deserialized from an intact, matching snapshot.
    Snapshot,
    /// Rebuilt from the workflows because the sharded snapshot was
    /// unusable.
    Rebuilt(ShardSnapshotError),
}

impl ShardOrigin {
    /// True when the corpus came out of a snapshot.
    pub fn is_snapshot(&self) -> bool {
        matches!(self, ShardOrigin::Snapshot)
    }

    /// The index of the shard whose snapshot forced a rebuild, when the
    /// failure was shard-local (`None` for snapshot-wide failures and for
    /// [`ShardOrigin::Snapshot`]).
    pub fn failed_shard(&self) -> Option<usize> {
        match self {
            ShardOrigin::Snapshot => None,
            ShardOrigin::Rebuilt(reason) => reason.failed_shard(),
        }
    }
}

/// Why a sharded snapshot could not be loaded.
#[derive(Debug)]
pub enum ShardSnapshotError {
    /// The manifest file could not be read.
    Io(io::Error),
    /// The manifest is malformed, has the wrong version, or contradicts
    /// the shard files (e.g. a workflow filed in a shard its id does not
    /// hash to).
    Manifest(String),
    /// The manifest was written for a different similarity configuration.
    ConfigMismatch {
        /// Fingerprint of the requested configuration.
        expected: String,
        /// Fingerprint recorded in the manifest.
        found: String,
    },
    /// One shard snapshot failed to load.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// Why its snapshot was rejected.
        error: SnapshotError,
    },
}

impl ShardSnapshotError {
    /// The shard whose snapshot failed, for shard-local failures.
    pub fn failed_shard(&self) -> Option<usize> {
        match self {
            ShardSnapshotError::Shard { shard, .. } => Some(*shard),
            _ => None,
        }
    }
}

impl fmt::Display for ShardSnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSnapshotError::Io(e) => write!(f, "cannot read shard manifest: {e}"),
            ShardSnapshotError::Manifest(why) => write!(f, "malformed shard manifest: {why}"),
            ShardSnapshotError::ConfigMismatch { expected, found } => {
                write!(
                    f,
                    "sharded snapshot built for {found}, requested {expected}"
                )
            }
            ShardSnapshotError::Shard { shard, error } => {
                write!(f, "shard {shard}: {error}")
            }
        }
    }
}

impl Error for ShardSnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardSnapshotError::Shard { error, .. } => Some(error),
            ShardSnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Builds one shard's *cursor* of a global best-bound-first search: binds
/// the query to the shard's pool, counts label-token overlaps through the
/// inverted index and bounds every candidate (admissible, `INFINITY` when
/// unboundable) — bit-identical to the per-pair bound of
/// [`wf_repo::IndexedSearchEngine`].  Returns the bound query and the
/// candidates in corpus order, neither sorted nor scored; the scatter loop
/// merges the cursors through a [`RankedFrontier`].
///
/// The bounds read the query's table over the corpus-wide class base
/// (`base`, built once per query by the scatter and shared by every
/// shard); only the shard's overflow classes, first seen by an `add` after
/// the build, get rows of their own here.  The base rows were bounded with
/// the query bound to the base's pool, the overflow rows with it bound to
/// the shard's: every pair bound is pool-independent (token-set Jaccard
/// counts strings, not ids, and the other features carry no ids), so both
/// equal the per-pair bound against the shard's own modules.
///
/// Candidate indices are pre-encoded for the frontier: a local corpus
/// index `local` of cursor `front` (of `num_fronts` total) is stored as
/// `local * num_fronts + front`, which keeps the encoding monotone in
/// `local` — so the per-cursor [`sort_best_bound_first`] tie order is the
/// same order the un-encoded local indices would produce.
///
/// [`sort_best_bound_first`]: wf_repo::sort_best_bound_first
fn shard_cursor(
    corpus: &Corpus,
    features: &QueryFeatures,
    base: Option<&BaseBounds>,
    exclude: &WorkflowId,
    front: usize,
    num_fronts: usize,
    stats: &mut SearchStats,
) -> (WorkflowProfile, Vec<RankedCandidate>) {
    let measure: &ProfiledMeasure = corpus.measure();
    let query: WorkflowProfile = measure.bind_query(features);
    let overlaps = corpus
        .token_index()
        .overlap_counts(query.label_tokens().ids());
    // Corpus ids are unique, so the excluded id is at most one index.
    let excluded = measure.index_of(exclude);
    let mut bounds = base.map(|base| measure.class_bounds(base, &query));
    let mut candidates: Vec<RankedCandidate> = Vec::with_capacity(measure.len());
    for (index, &overlap) in overlaps.iter().enumerate() {
        if Some(index) == excluded {
            continue;
        }
        if overlap > 0 {
            stats.shared_token_candidates += 1;
        }
        let bound = bounds
            .as_mut()
            .map_or(f64::INFINITY, |bounds| bounds.bound(index));
        candidates.push(RankedCandidate {
            index: index * num_fronts + front,
            bound,
            overlap,
        });
    }
    stats.candidates += candidates.len();
    (query, candidates)
}

/// The outcome of every sharded search: hits, stats, per-shard answered
/// bits and the degraded flag.
///
/// The hits are always *true* scores in the canonical order; what a fired
/// deadline (or an injected shard fault) costs is **coverage**, never
/// correctness: shards that did not finish simply contribute fewer (or no)
/// candidates, and the result says so instead of passing a partial answer
/// off as complete.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSearch {
    /// The merged top-k over every candidate that was actually scored.
    pub hits: Vec<SearchHit>,
    /// Per shard: true when the scan unit covering that shard passed its
    /// gate and ran to completion.  A unit cut short mid-scan still
    /// contributes the exact hits it had proven, but every shard it covers
    /// is reported unanswered — so a deadline that cuts the global
    /// frontier (one unit spanning all shards) leaves every shard
    /// unanswered while the hits stay an exact partial.
    pub answered: Vec<bool>,
    /// True when any shard did not answer completely — the signal a
    /// serving layer forwards so clients can tell a full top-k from a
    /// best-effort one.
    pub degraded: bool,
    /// Pruning / cancellation instrumentation aggregated over the shards
    /// that were visited.
    pub stats: SearchStats,
}

impl DegradedSearch {
    /// Number of shards that answered completely.
    pub fn answered_count(&self) -> usize {
        self.answered.iter().filter(|&&a| a).count()
    }
}

/// The frontier core: build one ranked cursor per listed corpus and run
/// **one** [`scan_ranked_candidates`] over the cursors merged by a
/// [`RankedFrontier`].  The scan always scores the globally best-bound
/// candidate across every cursor, tightens the caller's shared threshold,
/// and stops when the best remaining bound *anywhere* falls below the
/// floor — so pruning power is that of the single-corpus engine,
/// independent of how many fronts the corpus is split into.  Scoring goes
/// through a per-query memo of exact module-pair similarities, shared by
/// every front for the base classes.
///
/// Returns the scan's heap-order hits (callers canonicalize through
/// [`merge_top_k`]).  A fired `cancel` abandons the merged stream
/// mid-scan; the hits proven up to that point are exact (the frontier
/// only reorders *scoring*, and top-k content is insertion-order
/// independent).
#[allow(clippy::too_many_arguments)] // the scan's contract plus the shared base table
fn frontier_scan(
    fronts: &[&Corpus],
    features: &QueryFeatures,
    base: Option<&BaseBounds>,
    exclude: &WorkflowId,
    k: usize,
    threshold: &SearchThreshold,
    cancel: &CancelToken,
    stats: &mut SearchStats,
) -> Vec<SearchHit> {
    let num_fronts = fronts.len();
    let mut queries: Vec<WorkflowProfile> = Vec::with_capacity(num_fronts);
    let mut lists: Vec<Vec<RankedCandidate>> = Vec::with_capacity(num_fronts);
    let mut measures: Vec<&ProfiledMeasure> = Vec::with_capacity(num_fronts);
    for (front, corpus) in fronts.iter().enumerate() {
        let (query, candidates) =
            shard_cursor(corpus, features, base, exclude, front, num_fronts, stats);
        queries.push(query);
        lists.push(candidates);
        measures.push(corpus.measure());
    }
    // A unit holds at least one front, and all fronts share one class
    // base: one base memo for every front, one overflow memo per front.
    let mut base_memo = measures[0].base_memo(&queries[0]);
    let mut overflow_memos: Vec<_> = measures
        .iter()
        .zip(&queries)
        .map(|(measure, query)| measure.overflow_memo(query))
        .collect();
    // Every candidate index was encoded as `local * num_fronts + front`
    // by `shard_cursor`, monotone in `local` for a fixed front, so each
    // cursor's canonical tie order survives the merge.
    let frontier = RankedFrontier::new(lists);
    let total = frontier.total();
    scan_ranked_candidates(
        frontier,
        total,
        k,
        threshold,
        cancel,
        stats,
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            measures[front].score_profile_memo(
                &queries[front],
                local,
                &mut base_memo,
                &mut overflow_memos[front],
            )
        },
        |encoded| {
            let (front, local) = (encoded % num_fronts, encoded / num_fronts);
            measures[front].ids()[local].clone()
        },
    )
}

/// Drains one shard's ranked cursor against a caller-shared threshold:
/// bounds the query against the shard's class base, builds the shard's
/// cursor ([`shard_cursor`]) and runs the canonical prune-and-score loop
/// over it, publishing every new worst-of-k into `threshold` and pruning
/// strictly below its floor.
///
/// This is what a one-shard unit of the scatter runs (gated or racing
/// searches), except that the scatter builds the base table once for all
/// its units: each unit owns one shard's drain, and all units share one
/// [`SearchThreshold`] and one [`CancelToken`] (polled between
/// candidates, so a fired deadline abandons the drain mid-stream with
/// exact partial hits).  It is public so the `wf-analyze`
/// model-check suite can race real shard drains under the deterministic
/// scheduler; hits come back in heap order — gather them with
/// [`merge_top_k`].
pub fn drain_shard(
    corpus: &Corpus,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
    threshold: &SearchThreshold,
    cancel: &CancelToken,
    stats: &mut SearchStats,
) -> Vec<SearchHit> {
    let base = corpus.measure().base_bounds(features);
    frontier_scan(
        &[corpus],
        features,
        base.as_ref(),
        exclude,
        k,
        threshold,
        cancel,
        stats,
    )
}

/// A gate run on a shard before its scan: `false` vetoes the visit, and
/// the gate may also stall (the serving layer's fault-injection hook).
type ShardGate<'g> = &'g (dyn Fn(usize) -> bool + Sync);

/// Everything that varies between the sharded search entry points.
struct ScatterPlan<'p> {
    /// Polled before each unit and between candidates of every scan.
    cancel: &'p CancelToken,
    /// Run on each shard of a unit before the unit's scan.
    gate: Option<ShardGate<'p>>,
    /// From [`SearchParallelism::workers_for`].
    workers: usize,
}

/// The one scatter-gather behind every sharded search entry point.
///
/// Every shard guard is taken up front, in ascending order (the lock
/// order of [`CorpusService`]), and held to the gather, so the search
/// sees one consistent cut of a live corpus.  The shards are then split
/// into *units*, each scanned by one [`frontier_scan`] against one shared
/// [`SearchThreshold`]:
///
/// * with no gate and one worker, all shards form one unit: one global
///   best-bound-first frontier, the least scoring work at any shard
///   count;
/// * otherwise each shard is its own unit.  A gate may stall, and work
///   finished before a stall must survive it; racing workers need one
///   unit per shard to claim.
///
/// Each unit checks the token (a fired deadline leaves it unanswered),
/// runs its gates (a veto skips it — one bad shard degrades coverage, not
/// availability), then scans.  A unit is answered only if its gates
/// passed and its scan was not cut.  Units run through [`claim_units`]:
/// inline for one worker, off one ticket for more.
///
/// Bit-identical to the single-corpus engine under every plan and
/// interleaving: pruning is *strictly below* a floor that is always a
/// true worst-of-k of `k` distinct exactly-scored candidates, so no pruned
/// candidate can enter the merged top-k, and the gather
/// ([`merge_top_k`]) canonicalizes order.  The plan changes only the work
/// split and which shards a fired deadline leaves unanswered.
fn scatter<R: std::ops::Deref<Target = Corpus>>(
    shard_count: usize,
    shard_at: impl FnMut(usize) -> R,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
    plan: &ScatterPlan<'_>,
) -> DegradedSearch {
    let guards: Vec<R> = (0..shard_count).map(shard_at).collect();
    let fronts: Vec<&Corpus> = guards.iter().map(|guard| &**guard).collect();
    let unit_len = if plan.gate.is_none() && plan.workers == 1 {
        shard_count
    } else {
        1
    };
    let units: Vec<&[&Corpus]> = fronts.chunks(unit_len).collect();
    // Every shard was built over one class base, so the query is bounded
    // against it once, for all units.
    let base = fronts
        .first()
        .and_then(|corpus| corpus.measure().base_bounds(features));
    let threshold = SearchThreshold::new();
    let outcomes = claim_units(units.len(), plan.workers, |unit| {
        let mut stats = SearchStats::default();
        if plan.cancel.is_cancelled() {
            stats.cancelled = true;
            return (Vec::new(), false, stats);
        }
        let first = unit * unit_len;
        if let Some(gate) = plan.gate {
            if !(first..first + units[unit].len()).all(gate) {
                return (Vec::new(), false, stats);
            }
        }
        let hits = frontier_scan(
            units[unit],
            features,
            base.as_ref(),
            exclude,
            k,
            &threshold,
            plan.cancel,
            &mut stats,
        );
        (hits, !stats.cancelled, stats)
    });
    let mut answered = vec![false; shard_count];
    let mut stats = SearchStats::default();
    let mut parts = Vec::with_capacity(outcomes.len());
    for (unit, (hits, unit_answered, unit_stats)) in outcomes.into_iter().enumerate() {
        answered[unit * unit_len..][..units[unit].len()].fill(unit_answered);
        stats.merge(&unit_stats);
        parts.push(hits);
    }
    DegradedSearch {
        hits: merge_top_k(parts, k),
        degraded: answered.contains(&false),
        answered,
        stats,
    }
}

/// Runs `job` once for every index in `0..units`, returning the results in
/// index order.  One worker runs the jobs inline on the calling thread and
/// spawns nothing, which keeps shuttle-mini model runs legal; more workers
/// are plain `std` scoped threads that claim indices off one shared
/// ticket, so a slow job pins only the worker that claimed it.  A job that
/// panics re-raises its panic on the calling thread.
fn claim_units<T: Send>(units: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // At least one worker, and no more than there are units to claim.
    let workers = workers.max(1).min(units.max(1));
    if workers == 1 {
        return (0..units).map(job).collect();
    }
    let ticket = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..units).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (ticket, job) = (&ticket, &job);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // ordering: Relaxed — a pure work-stealing ticket:
                        // fetch_add's atomicity hands each index to exactly
                        // one worker, and the scope join below is the
                        // synchronization edge for the results.
                        let unit = ticket.fetch_add(1, Ordering::Relaxed);
                        if unit >= units {
                            return done;
                        }
                        done.push((unit, job(unit)));
                    }
                })
            })
            .collect();
        for handle in handles {
            // A worker's panic is re-raised on the caller with its own
            // payload, so a panic boundary above reports the real cause.
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (unit, result) in done {
                slots[unit] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every unit is claimed exactly once"))
        .collect()
}

/// A concurrent serving wrapper around a [`ShardedCorpus`]: one `RwLock`
/// per shard, so any number of searches proceed in parallel and churn
/// (`add` / `remove`) only write-locks the single shard owning the id.
///
/// # Invariants and consistency model
///
/// * An id hashes to exactly one shard, for the service's lifetime: churn
///   never migrates a workflow between shards, so an id has exactly one
///   owner lock.
/// * Deadlock freedom: the shard locks are the only locks.  Every
///   multi-lock path takes them in ascending index order, and a writer
///   holds exactly one shard write lock.
/// * A search read-locks the owner shard to extract query features and
///   releases it; then it takes **all** shard read locks up front, in
///   ascending index order, and only then runs any shard gate.  The locks
///   are held to the gather, so every search — plain, deadline, gated or
///   racing — sees one consistent cut of the corpus, and a workflow
///   removed (or added) *before* the search started is guaranteed
///   excluded (or visible): the churn invariant the stress tests assert.
///   A gate that stalls therefore stalls with every read lock held:
///   writers to any shard wait for it.
/// * On a quiescent corpus, results are bit-identical to
///   [`ShardedCorpus::search`] and hence to the single-corpus engine.
pub struct CorpusService {
    config: SimilarityConfig,
    shards: Vec<RwLock<Corpus>>,
    threads: usize,
    /// Intra-query scan strategy, inherited from the wrapped
    /// [`ShardedCorpus`] (see [`SearchParallelism`]).
    parallelism: SearchParallelism,
}

impl CorpusService {
    /// Wraps a built sharded corpus for concurrent serving (inheriting
    /// its [`SearchParallelism`]).
    pub fn new(sharded: ShardedCorpus) -> Self {
        CorpusService {
            config: sharded.config,
            shards: sharded.shards.into_iter().map(RwLock::new).collect(),
            threads: 4,
            parallelism: sharded.parallelism,
        }
    }

    /// Sets the number of worker threads for
    /// [`CorpusService::search_batch`] (at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Unwraps the service back into the single-owner [`ShardedCorpus`].
    pub fn into_sharded(self) -> ShardedCorpus {
        ShardedCorpus {
            config: self.config,
            shards: self
                .shards
                .into_iter()
                .map(|lock| lock.into_inner().expect("shard lock poisoned"))
                .collect(),
            parallelism: self.parallelism,
        }
    }

    /// The configured similarity algorithm.
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total workflows across shards (each shard counted at the instant
    /// its lock is taken).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read(s).len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| self.read(s).is_empty())
    }

    /// True when the id is resident.
    pub fn contains(&self, id: &WorkflowId) -> bool {
        self.read(self.owner_of(id)).index_of(id).is_some()
    }

    fn read<'a>(&self, lock: &'a RwLock<Corpus>) -> RwLockReadGuard<'a, Corpus> {
        lock.read().expect("shard lock poisoned")
    }

    /// The lock of the shard an id hashes to.
    fn owner_of(&self, id: &WorkflowId) -> &RwLock<Corpus> {
        &self.shards[hash_route(id, self.shards.len())]
    }

    /// Inserts (or replaces) a workflow, write-locking only the owning
    /// shard.  Returns the shard index.
    pub fn add(&self, wf: Workflow) -> usize {
        let shard = hash_route(&wf.id, self.shards.len());
        self.shards[shard]
            .write()
            .expect("shard lock poisoned")
            .add(wf);
        shard
    }

    /// Removes a workflow by id, write-locking only the owning shard.
    pub fn remove(&self, id: &WorkflowId) -> Option<Workflow> {
        self.owner_of(id)
            .write()
            .expect("shard lock poisoned")
            .remove(id)
    }

    /// Scatter-gather top-k for a resident query id; `None` when the id is
    /// not resident at the time the owning shard is read.  Proceeds
    /// concurrently with searches on every shard and with churn on other
    /// shards.
    pub fn search(&self, query: &WorkflowId, k: usize) -> Option<Vec<SearchHit>> {
        Some(self.search_deadline(query, k, &CancelToken::never())?.hits)
    }

    /// Deadline-bound scatter-gather over the live corpus: the same
    /// ungated scatter as [`CorpusService::search`] (with the default
    /// sequential parallelism, one global frontier), polling `cancel`
    /// between candidates.  A fired deadline returns the exact partial
    /// top-k flagged [`degraded`](DegradedSearch::degraded); when it cuts
    /// the global frontier, every shard is reported unanswered.  `None`
    /// when the query id is not resident at the time the owning shard is
    /// read.
    pub fn search_deadline(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> Option<DegradedSearch> {
        let features = self.resident_features(query)?;
        Some(self.scatter(&features, query, k, cancel, None))
    }

    /// [`CorpusService::search_deadline`] with a per-shard gate — the hook
    /// the serving layer's fault-injection plan uses to delay or fail
    /// individual shards deterministically.  Every shard read lock is
    /// taken first; the gate then runs before each shard's scan and may
    /// veto it (returning `false` marks the shard unanswered and the
    /// result degraded) or stall inside it.  A gated search scans each
    /// shard as its own unit, so work finished before a stall survives it.
    pub fn search_deadline_with(
        &self,
        query: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
        shard_gate: impl Fn(usize) -> bool + Sync,
    ) -> Option<DegradedSearch> {
        let features = self.resident_features(query)?;
        Some(self.scatter(&features, query, k, cancel, Some(&shard_gate)))
    }

    /// Query by example over the live corpus (residents sharing the
    /// query's id are excluded).
    pub fn search_workflow(&self, wf: &Workflow, k: usize) -> Vec<SearchHit> {
        let features = self.read(&self.shards[0]).measure().query_features(wf);
        self.scatter(&features, &wf.id, k, &CancelToken::never(), None)
            .hits
    }

    /// Answers a batch of queries on the service's worker threads, each
    /// query running a full scatter-gather concurrently with the others
    /// (and with any churn).  Results align with `queries`.
    pub fn search_batch(&self, queries: &[WorkflowId], k: usize) -> Vec<Option<Vec<SearchHit>>> {
        claim_units(queries.len(), self.threads, |qi| {
            self.search(&queries[qi], k)
        })
    }

    /// The query features of a resident workflow, extracted under the
    /// owning shard's read lock (released before the scatter).
    fn resident_features(&self, query: &WorkflowId) -> Option<QueryFeatures> {
        let shard = self.read(self.owner_of(query));
        let wf = shard.get(query)?;
        Some(shard.measure().query_features(wf))
    }

    /// One [`scatter`] over the live shards, planned with the service's
    /// [`SearchParallelism`].
    fn scatter(
        &self,
        features: &QueryFeatures,
        exclude: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
        gate: Option<ShardGate<'_>>,
    ) -> DegradedSearch {
        let plan = ScatterPlan {
            cancel,
            gate,
            workers: self.parallelism.workers_for(self.shards.len()),
        };
        scatter(
            self.shards.len(),
            |i| self.read(&self.shards[i]),
            features,
            exclude,
            k,
            &plan,
        )
    }

    /// Persists the live corpus as [`ShardedCorpus::save`] does, each shard
    /// serialized under its read lock (a save concurrent with churn is
    /// per-shard consistent).
    pub fn save(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        save_shards(dir.as_ref(), &self.config, self.shards.len(), |i| {
            self.read(&self.shards[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::SNAPSHOT_MAGIC;
    use std::sync::Arc;
    use wf_model::{builder::WorkflowBuilder, ModuleType};

    fn wf(id: &str, labels: &[&str]) -> Workflow {
        let mut b = WorkflowBuilder::new(id)
            .title(format!("workflow {id}"))
            .tag("test");
        for l in labels {
            b = b.module(*l, ModuleType::WsdlService, |m| m);
        }
        for pair in labels.windows(2) {
            b = b.link(pair[0], pair[1]);
        }
        b.build().unwrap()
    }

    /// At 4 shards these ids hash to `{a, e}`, `{b, f}`, `{c}` and `{d}`, so
    /// every shard is non-empty; at 3 shards, shard 2 is empty.
    fn sample() -> Vec<Workflow> {
        vec![
            wf("a", &["fetch sequence", "run blast", "render report"]),
            wf("b", &["fetch sequence", "run blast", "plot hits"]),
            wf("c", &["parse tree", "cluster genes"]),
            wf("d", &["parse tree", "cluster genes", "plot hits"]),
            wf("e", &[]),
            wf("f", &["run blast"]),
        ]
    }

    fn config() -> SimilarityConfig {
        SimilarityConfig::best_module_sets()
    }

    fn assert_matches_single(sharded: &ShardedCorpus, what: &str) {
        let single = Corpus::build(config(), sharded_workflows(sharded));
        for id in sharded.ids() {
            for k in [0, 2, 10] {
                let expected = single.top_k(&id, k).expect("resident in single corpus");
                assert_eq!(
                    sharded.search(&id, k).expect("resident in shards"),
                    expected,
                    "{what}: query {id}, k {k}"
                );
            }
        }
    }

    fn sharded_workflows(sharded: &ShardedCorpus) -> Vec<Workflow> {
        sharded
            .ids()
            .iter()
            .map(|id| sharded.get(id).unwrap().clone())
            .collect()
    }

    #[test]
    fn build_routes_every_workflow_to_exactly_one_shard() {
        let sharded = ShardedCorpus::build(config(), 3, sample());
        assert_eq!(sharded.len(), 6);
        assert_eq!(sharded.shard_count(), 3);
        for id in sharded.ids() {
            let owner = sharded.shard_of(&id).expect("resident");
            let holders = sharded
                .shards()
                .iter()
                .filter(|s| s.index_of(&id).is_some())
                .count();
            assert_eq!(holders, 1, "{id}");
            assert!(sharded.shards()[owner].index_of(&id).is_some());
        }
        assert!(sharded.contains(&"a".into()));
        assert!(!sharded.contains(&"zzz".into()));
        assert_eq!(sharded.get(&"c".into()).unwrap().module_count(), 2);
    }

    #[test]
    fn zero_shard_count_is_clamped_to_one() {
        let sharded = ShardedCorpus::build(config(), 0, sample());
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.len(), 6);
    }

    #[test]
    fn duplicate_build_ids_replace_like_a_single_corpus() {
        let mut workflows = sample();
        workflows.push(wf("b", &["totally different"]));
        workflows.insert(1, wf("f", &["an early copy"]));
        workflows.push(wf("a", &["late", "replacement"]));
        for shards in [1, 3, 4] {
            let sharded = ShardedCorpus::build(config(), shards, workflows.clone());
            assert_eq!(sharded.len(), 6);
            assert_eq!(sharded.get(&"b".into()).unwrap().module_count(), 1);
            assert_eq!(sharded.get(&"a".into()).unwrap().module_count(), 2);
            // Each shard holds the single corpus's workflows for that shard,
            // in the single corpus's order: last upload wins, at the first
            // upload's position.
            let single = Corpus::build(config(), workflows.clone());
            for (i, shard) in sharded.shards().iter().enumerate() {
                let expected: Vec<Workflow> = single
                    .workflows()
                    .iter()
                    .filter(|wf| hash_route(&wf.id, shards) == i)
                    .cloned()
                    .collect();
                assert_eq!(shard.workflows(), expected, "{shards} shards, shard {i}");
            }
        }
    }

    #[test]
    fn search_matches_the_single_corpus_engine_at_every_shard_count() {
        for shards in [1, 2, 4, 8] {
            let sharded = ShardedCorpus::build(config(), shards, sample());
            assert_matches_single(&sharded, &format!("{shards} shards"));
        }
    }

    #[test]
    fn unknown_query_ids_are_none_and_k0_is_empty() {
        let sharded = ShardedCorpus::build(config(), 2, sample());
        assert!(sharded.search(&"zzz".into(), 3).is_none());
        assert_eq!(sharded.search(&"a".into(), 0).unwrap(), Vec::new());
        let (_, stats) = sharded.search_with_stats(&"a".into(), 3).unwrap();
        assert_eq!(stats.candidates, 5, "all non-query residents considered");
    }

    #[test]
    fn churn_routes_through_owning_shards() {
        let mut sharded = ShardedCorpus::build(config(), 3, sample());
        assert!(sharded.remove(&"b".into()).is_some());
        assert!(sharded.remove(&"b".into()).is_none());
        assert_eq!(sharded.len(), 5);
        let shard = sharded.add(wf("g", &["run blast", "plot hits"]));
        assert_eq!(sharded.shard_of(&"g".into()), Some(shard));
        // Replacement stays in the owning shard.
        let again = sharded.add(wf("g", &["parse tree"]));
        assert_eq!(shard, again);
        assert_eq!(sharded.len(), 6);
        assert_eq!(sharded.get(&"g".into()).unwrap().module_count(), 1);
        assert_matches_single(&sharded, "churned");
    }

    #[test]
    fn search_workflow_answers_external_queries() {
        let sharded = ShardedCorpus::build(config(), 3, sample());
        // A non-resident query scores against everything...
        let external = wf("external", &["run blast", "render report"]);
        let hits = sharded.search_workflow(&external, sharded.len());
        assert_eq!(hits.len(), 6);
        assert!(hits.iter().all(|h| h.id.as_str() != "external"));
        // ... and a resident's workflow reproduces the by-id search.
        let resident = sharded.get(&"a".into()).unwrap().clone();
        assert_eq!(
            sharded.search_workflow(&resident, 3),
            sharded.search(&"a".into(), 3).unwrap()
        );
    }

    #[test]
    fn search_batch_matches_sequential_search() {
        let sharded = ShardedCorpus::build(config(), 4, sample());
        let mut queries: Vec<WorkflowId> = sharded.ids();
        queries.push("zzz".into());
        for threads in [1, 3, 16] {
            let batch = sharded.search_batch(&queries, 3, threads);
            assert_eq!(batch.len(), queries.len());
            for (query, hits) in queries.iter().zip(&batch) {
                assert_eq!(
                    hits.as_ref(),
                    sharded.search(query, 3).as_ref(),
                    "threads {threads}, query {query}"
                );
            }
        }
        assert!(sharded.search_batch(&[], 3, 4).is_empty());
    }

    #[test]
    fn sharded_snapshot_roundtrips_including_empty_shards() {
        let dir = std::env::temp_dir().join("wfsim-shard-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        // More shards than workflows forces empty shards.
        let sharded = ShardedCorpus::build(config(), 5, sample().into_iter().take(3));
        assert!(sharded.shards().iter().any(Corpus::is_empty));
        sharded.save(&dir).unwrap();
        let restored = ShardedCorpus::load(&dir, config()).unwrap();
        assert_eq!(restored.shard_count(), 5);
        assert_eq!(contents(&restored), contents(&sharded));
        assert_eq!(restored.ids(), sharded.ids());
        for id in sharded.ids() {
            assert_eq!(
                restored.search(&id, 3).unwrap(),
                sharded.search(&id, 3).unwrap(),
                "query {id}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_snapshot_rejects_mismatches_with_typed_errors() {
        let dir = std::env::temp_dir().join("wfsim-shard-snapshot-errors");
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedCorpus::build(config(), 2, sample());
        sharded.save(&dir).unwrap();

        assert!(matches!(
            ShardedCorpus::load(&dir, SimilarityConfig::bag_of_words()),
            Err(ShardSnapshotError::ConfigMismatch { .. })
        ));

        // Corrupt one shard body: the per-shard checksum catches it.
        let shard_path = dir.join(shard_file_name(1));
        let text = std::fs::read_to_string(&shard_path).unwrap();
        std::fs::write(&shard_path, text.replace("\"id\"", "\"ID\"")).unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Shard {
                shard: 1,
                error: SnapshotError::ChecksumMismatch
            })
        ));

        // load_or_build falls back to a clean rebuild.
        let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config(), 2, sample());
        assert!(matches!(origin, ShardOrigin::Rebuilt(_)));
        assert!(!origin.is_snapshot());
        assert_eq!(rebuilt.len(), 6);

        // A missing manifest and a garbage manifest are typed, too.
        std::fs::write(dir.join(SHARD_MANIFEST_FILE), "junk manifest\n").unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Manifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Io(_))
        ));
    }

    /// Every shard's workflows, in shard order: what a load must restore.
    fn contents(sharded: &ShardedCorpus) -> Vec<Vec<Workflow>> {
        sharded
            .shards()
            .iter()
            .map(|shard| shard.workflows().to_vec())
            .collect()
    }

    /// A save is cut at each of its write steps in turn (each temp-file
    /// write, fsync and rename, the directory syncs, and the manifest's
    /// steps), over a directory holding a previous save.  Every cut must
    /// load as exactly the previous save, exactly the new one, or a typed
    /// error that `load_or_build` rebuilds from — never a mix, which the
    /// fixture would show because the new save changes every shard (all
    /// four are non-empty).
    #[test]
    fn a_save_cut_at_any_write_step_loads_old_new_or_a_typed_error() {
        fn old_corpus() -> ShardedCorpus {
            ShardedCorpus::build(config(), 4, sample())
        }
        fn new_corpus() -> ShardedCorpus {
            let mut new = old_corpus();
            for id in new.ids() {
                new.add(wf(id.as_str(), &["replaced", id.as_str()]));
            }
            new
        }
        let saves: [fn(&Path) -> io::Result<()>; 2] = [
            |dir| new_corpus().save(dir),
            |dir| CorpusService::new(new_corpus()).save(dir),
        ];
        let dir = std::env::temp_dir().join("wfsim-shard-crash-safety-test");
        let (old, new) = (old_corpus(), new_corpus());
        let (old_state, new_state) = (contents(&old), contents(&new));
        assert!(old_state.iter().zip(&new_state).all(|(o, n)| o != n));
        for save in saves {
            let (mut saw_old, mut saw_new, mut saw_error) = (false, false, false);
            let mut step = 1;
            loop {
                let _ = std::fs::remove_dir_all(&dir);
                old.save(&dir).unwrap();
                crate::corpus::FAIL_AT_STEP.with(|at| at.set(Some(step)));
                let saved = save(&dir);
                crate::corpus::FAIL_AT_STEP.with(|at| at.set(None));
                match ShardedCorpus::load(&dir, config()) {
                    Ok(loaded) if contents(&loaded) == old_state => saw_old = true,
                    Ok(loaded) if contents(&loaded) == new_state => saw_new = true,
                    Ok(loaded) => panic!("step {step}: mixed state {:?}", loaded.ids()),
                    Err(error) => {
                        saw_error = true;
                        assert!(
                            matches!(
                                error,
                                ShardSnapshotError::Shard {
                                    error: SnapshotError::GenerationMismatch { .. },
                                    ..
                                }
                            ),
                            "step {step}: {error}"
                        );
                        let (rebuilt, origin) = ShardedCorpus::load_or_build(
                            &dir,
                            config(),
                            4,
                            sharded_workflows(&new),
                        );
                        assert!(!origin.is_snapshot(), "step {step}");
                        assert_eq!(rebuilt.len(), new.len(), "step {step}");
                        for id in new.ids() {
                            assert_eq!(rebuilt.get(&id), new.get(&id), "step {step}");
                        }
                    }
                }
                if saved.is_ok() {
                    break;
                }
                step += 1;
            }
            // Three steps per file (four shards and the manifest) and two
            // directory syncs, every one of them cut once.
            assert_eq!(step, 3 * 5 + 2 + 1);
            assert!(saw_old && saw_new && saw_error);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_file_from_another_save_is_a_typed_generation_mismatch() {
        let dir = std::env::temp_dir().join("wfsim-shard-stale-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedCorpus::build(config(), 3, sample());
        sharded.save(&dir).unwrap();
        let first = std::fs::read(dir.join(shard_file_name(1))).unwrap();
        sharded.save(&dir).unwrap();
        std::fs::write(dir.join(shard_file_name(1)), first).unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Shard {
                shard: 1,
                error: SnapshotError::GenerationMismatch {
                    expected: 2,
                    found: 1
                }
            })
        ));
        let (_, origin) = ShardedCorpus::load_or_build(&dir, config(), 3, sample());
        assert_eq!(origin.failed_shard(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshots from before the workflow-only layout take the typed
    /// version-mismatch path and are rebuilt, naming the shard.
    #[test]
    fn a_v1_shard_file_makes_load_or_build_rebuild() {
        let dir = std::env::temp_dir().join("wfsim-shard-v1-test");
        for victim in 0..3 {
            let _ = std::fs::remove_dir_all(&dir);
            let sharded = ShardedCorpus::build(config(), 3, sample());
            sharded.save(&dir).unwrap();
            // A version-1 header: no generation field.
            let path = dir.join(shard_file_name(victim));
            let text = std::fs::read_to_string(&path).unwrap();
            let (header, body) = text.split_once('\n').unwrap();
            let fields: Vec<&str> = header.split(' ').collect();
            let v1 = format!(
                "{SNAPSHOT_MAGIC} v1 {} {}\n{body}",
                fields[fields.len() - 2],
                fields[fields.len() - 1]
            );
            std::fs::write(&path, v1).unwrap();
            assert!(matches!(
                ShardedCorpus::load(&dir, config()),
                Err(ShardSnapshotError::Shard {
                    shard,
                    error: SnapshotError::VersionMismatch { .. },
                }) if shard == victim
            ));
            let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config(), 3, sample());
            assert!(!origin.is_snapshot());
            assert_eq!(origin.failed_shard(), Some(victim));
            assert_eq!(contents(&rebuilt), contents(&sharded));
        }
        // A manifest of the previous layout is rejected before any shard.
        let manifest = dir.join(SHARD_MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest).unwrap();
        let current = format!("{SHARD_MANIFEST_MAGIC} v{SHARD_MANIFEST_VERSION} ");
        let older = format!("{SHARD_MANIFEST_MAGIC} v{} ", SHARD_MANIFEST_VERSION - 1);
        assert!(text.starts_with(&current));
        std::fs::write(&manifest, text.replacen(&current, &older, 1)).unwrap();
        assert!(matches!(
            ShardedCorpus::load(&dir, config()),
            Err(ShardSnapshotError::Manifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest in the v2 layout, which still carried `partition=` and
    /// `next=` fields, next to intact shard files is a typed version error,
    /// and `load_or_build` rebuilds the same corpus.
    #[test]
    fn a_v2_manifest_makes_load_or_build_rebuild() {
        let dir = std::env::temp_dir().join("wfsim-shard-v2-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedCorpus::build(config(), 3, sample());
        sharded.save(&dir).unwrap();
        let v2 = format!(
            "{SHARD_MANIFEST_MAGIC} v2 gen=1 shards=3 partition=hash next=0 config={}\n",
            config_fingerprint(&config())
        );
        std::fs::write(dir.join(SHARD_MANIFEST_FILE), v2).unwrap();
        match ShardedCorpus::load(&dir, config()) {
            Err(ShardSnapshotError::Manifest(why)) => assert!(why.contains("version"), "{why}"),
            Err(other) => panic!("expected a manifest version error, got {other}"),
            Ok(_) => panic!("a v2 manifest must not load"),
        }
        let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config(), 3, sample());
        assert!(!origin.is_snapshot());
        assert_eq!(origin.failed_shard(), None);
        assert_eq!(contents(&rebuilt), contents(&sharded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest's shard count is untrusted input: an absurd count must
    /// not be allocated for (a capacity overflow or an allocation failure
    /// would kill the process before `load_or_build` could rebuild).  The
    /// load fails, typed, at the first missing shard file.
    #[test]
    fn a_huge_manifest_shard_count_is_a_typed_error_and_rebuilds() {
        let dir = std::env::temp_dir().join("wfsim-shard-huge-count-test");
        for count in ["18446744073709551615", "10000000000"] {
            let _ = std::fs::remove_dir_all(&dir);
            let sharded = ShardedCorpus::build(config(), 3, sample());
            sharded.save(&dir).unwrap();
            let manifest = dir.join(SHARD_MANIFEST_FILE);
            let text = std::fs::read_to_string(&manifest).unwrap();
            assert!(text.contains(" shards=3 "));
            std::fs::write(
                &manifest,
                text.replacen(" shards=3 ", &format!(" shards={count} "), 1),
            )
            .unwrap();
            assert!(
                matches!(
                    ShardedCorpus::load(&dir, config()),
                    Err(ShardSnapshotError::Shard {
                        shard: 3,
                        error: SnapshotError::Io(_),
                    })
                ),
                "shards={count}"
            );
            let (rebuilt, origin) = ShardedCorpus::load_or_build(&dir, config(), 3, sample());
            assert!(!origin.is_snapshot());
            assert_eq!(origin.failed_shard(), Some(3));
            assert_eq!(contents(&rebuilt), contents(&sharded));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_serves_searches_and_churn_through_locks() {
        let service =
            CorpusService::new(ShardedCorpus::build(config(), 3, sample())).with_threads(4);
        assert_eq!(service.shard_count(), 3);
        assert_eq!(service.len(), 6);
        assert!(!service.is_empty());
        assert!(service.contains(&"a".into()));

        let sharded_ref = ShardedCorpus::build(config(), 3, sample());
        for id in sharded_ref.ids() {
            assert_eq!(
                service.search(&id, 4).unwrap(),
                sharded_ref.search(&id, 4).unwrap(),
                "quiescent service must equal the sharded corpus"
            );
        }
        let queries: Vec<WorkflowId> = sharded_ref.ids();
        let batch = service.search_batch(&queries, 4);
        for (query, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits.as_ref(), sharded_ref.search(query, 4).as_ref());
        }

        service.remove(&"b".into());
        assert!(!service.contains(&"b".into()));
        assert!(service.search(&"b".into(), 2).is_none());
        service.add(wf("g", &["run blast"]));
        assert_eq!(service.len(), 6);
        let external = service.search_workflow(&wf("probe", &["run blast"]), 2);
        assert_eq!(external.len(), 2);

        // Round-trip service → sharded keeps contents.
        let back = service.into_sharded();
        assert_eq!(back.len(), 6);
        assert!(back.contains(&"g".into()));
    }

    #[test]
    fn service_save_writes_a_loadable_sharded_snapshot() {
        let dir = std::env::temp_dir().join("wfsim-service-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        let service = CorpusService::new(ShardedCorpus::build(config(), 2, sample()));
        service.add(wf("g", &["run blast"]));
        service.save(&dir).unwrap();
        let restored = ShardedCorpus::load(&dir, config()).unwrap();
        assert_eq!(restored.len(), 7);
        assert!(restored.contains(&"g".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn never_token_deadline_search_equals_plain_search() {
        let sharded = ShardedCorpus::build(config(), 3, sample());
        for id in sharded.ids() {
            let plain = sharded.search(&id, 3).expect("resident");
            let result = sharded
                .search_deadline(&id, 3, &CancelToken::never())
                .expect("resident");
            assert!(!result.degraded, "a never token cannot degrade");
            assert!(result.answered.iter().all(|&a| a));
            assert_eq!(result.answered_count(), 3);
            assert_eq!(result.hits, plain, "query {id}");
        }
    }

    #[test]
    fn pre_fired_deadline_returns_empty_fully_degraded_result() {
        let sharded = ShardedCorpus::build(config(), 2, sample());
        let token = CancelToken::never();
        token.cancel();
        let result = sharded
            .search_deadline(&"a".into(), 3, &token)
            .expect("residency is checked before the deadline");
        assert!(result.degraded);
        assert_eq!(result.answered, vec![false, false]);
        assert!(result.hits.is_empty());
        assert!(result.stats.cancelled);
        assert_eq!(result.stats.scored, 0);
    }

    #[test]
    fn vetoed_shard_degrades_coverage_not_correctness() {
        // Four shards, every one holding a hit the full search returns.
        let service = CorpusService::new(ShardedCorpus::build(config(), 4, sample()));
        let query: WorkflowId = "a".into();
        let full = service.search(&query, 10).expect("resident");
        for vetoed in 0..4 {
            let result = service
                .search_deadline_with(&query, 10, &CancelToken::never(), |s| s != vetoed)
                .expect("resident");
            assert!(result.degraded, "vetoing shard {vetoed} must degrade");
            for (shard, &answered) in result.answered.iter().enumerate() {
                assert_eq!(answered, shard != vetoed, "shard {shard}");
            }
            assert_eq!(result.answered_count(), 3);
            // Coverage shrinks — correctness does not: every surviving hit
            // carries the exact score the full search proved for that id.
            assert!(result.hits.len() < full.len(), "shard {vetoed} held a hit");
            for hit in &result.hits {
                let reference = full
                    .iter()
                    .find(|h| h.id == hit.id)
                    .expect("degraded hit exists in the full result");
                assert_eq!(hit.score.to_bits(), reference.score.to_bits());
            }
        }
    }

    #[test]
    fn deadline_firing_mid_scatter_keeps_admitted_shards_exact() {
        // The deadline fires while shard 2 is being admitted: shards 0 and
        // 1 were already drained, so the partial result must be *exactly*
        // the full ranking restricted to their residents — work completed
        // before the deadline survives it, nothing else leaks in.
        let sharded = ShardedCorpus::build(config(), 4, sample());
        let admitted: Vec<WorkflowId> = sharded.shards()[..2]
            .iter()
            .flat_map(|shard| shard.ids().to_vec())
            .collect();
        let service = CorpusService::new(sharded);
        let query: WorkflowId = "a".into();
        let full = service.search(&query, 10).expect("resident");
        let token = CancelToken::never();
        let result = service
            .search_deadline_with(&query, 10, &token, |shard| {
                if shard == 2 {
                    token.cancel();
                }
                true
            })
            .expect("resident");
        assert!(result.degraded);
        assert!(result.stats.cancelled);
        assert_eq!(result.answered, vec![true, true, false, false]);
        let expected: Vec<SearchHit> = full
            .iter()
            .filter(|hit| admitted.contains(&hit.id))
            .cloned()
            .collect();
        assert_eq!(result.hits, expected, "admitted shards answer exactly");
        assert!(result.hits.len() < full.len(), "coverage genuinely shrank");
    }

    #[test]
    fn racing_search_is_bit_identical_to_sequential_at_every_shard_count() {
        for shards in [1, 2, 4, 8] {
            let sequential = ShardedCorpus::build(config(), shards, sample());
            let racing = ShardedCorpus::build(config(), shards, sample())
                .with_parallelism(SearchParallelism::Racing);
            assert_eq!(racing.parallelism.workers_for(shards), shards);
            for id in sequential.ids() {
                for k in [0, 2, 10] {
                    let expected = sequential.search(&id, k).expect("resident");
                    let got = racing.search(&id, k).expect("resident");
                    assert_eq!(got.len(), expected.len());
                    for (g, e) in got.iter().zip(&expected) {
                        assert_eq!(g.id, e.id, "{shards} shards");
                        assert_eq!(g.score.to_bits(), e.score.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn racing_search_workflow_matches_sequential() {
        let sequential = ShardedCorpus::build(config(), 4, sample());
        let racing =
            ShardedCorpus::build(config(), 4, sample()).with_parallelism(SearchParallelism::Racing);
        let external = wf("external", &["run blast", "render report"]);
        assert_eq!(
            racing.search_workflow(&external, 10),
            sequential.search_workflow(&external, 10)
        );
    }

    #[test]
    fn racing_never_token_deadline_search_equals_plain_search() {
        let sharded =
            ShardedCorpus::build(config(), 3, sample()).with_parallelism(SearchParallelism::Racing);
        for id in sharded.ids() {
            let plain = sharded.search(&id, 3).expect("resident");
            let result = sharded
                .search_deadline(&id, 3, &CancelToken::never())
                .expect("resident");
            assert!(!result.degraded, "a never token cannot degrade");
            assert!(result.answered.iter().all(|&a| a));
            assert_eq!(result.hits, plain, "query {id}");
        }
    }

    #[test]
    fn racing_pre_fired_deadline_returns_empty_fully_degraded_result() {
        let sharded =
            ShardedCorpus::build(config(), 2, sample()).with_parallelism(SearchParallelism::Racing);
        let token = CancelToken::never();
        token.cancel();
        let result = sharded
            .search_deadline(&"a".into(), 3, &token)
            .expect("residency is checked before the deadline");
        assert!(result.degraded);
        assert_eq!(result.answered, vec![false, false]);
        assert!(result.hits.is_empty());
        assert!(result.stats.cancelled);
        assert_eq!(result.stats.scored, 0);
    }

    #[test]
    fn racing_vetoed_shard_degrades_coverage_not_correctness() {
        let service = CorpusService::new(
            ShardedCorpus::build(config(), 4, sample()).with_parallelism(SearchParallelism::Racing),
        );
        let query: WorkflowId = "a".into();
        let full = service.search(&query, 10).expect("resident");
        for vetoed in 0..4 {
            let result = service
                .search_deadline_with(&query, 10, &CancelToken::never(), |s| s != vetoed)
                .expect("resident");
            assert!(result.degraded, "vetoing shard {vetoed} must degrade");
            for (shard, &answered) in result.answered.iter().enumerate() {
                assert_eq!(answered, shard != vetoed, "shard {shard}");
            }
            assert!(result.hits.len() < full.len(), "shard {vetoed} held a hit");
            for hit in &result.hits {
                let reference = full
                    .iter()
                    .find(|h| h.id == hit.id)
                    .expect("degraded hit exists in the full result");
                assert_eq!(hit.score.to_bits(), reference.score.to_bits());
            }
        }
    }

    #[test]
    fn service_inherits_and_returns_parallelism() {
        let sharded =
            ShardedCorpus::build(config(), 2, sample()).with_parallelism(SearchParallelism::Racing);
        let service = CorpusService::new(sharded);
        assert_eq!(service.parallelism, SearchParallelism::Racing);
        let back = service.into_sharded();
        assert_eq!(back.parallelism, SearchParallelism::Racing);
    }

    #[test]
    fn claim_units_returns_every_result_in_index_order() {
        for workers in [0, 1, 2, 5, 64] {
            let squares = claim_units(7, workers, |i| i * i);
            assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36], "{workers} workers");
            assert!(claim_units(0, workers, |i| i).is_empty());
        }
    }

    /// A build and a load both intern every class once into one base
    /// that all shards share, leaving no overflow; and a query is bounded
    /// against the same number of base classes at 8 shards as at 1.
    #[test]
    fn shards_share_one_class_base_after_build_and_load() {
        let dir = std::env::temp_dir().join("wfsim-shard-class-base-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(40, 3));
        let eight = ShardedCorpus::build(config(), 8, workflows.clone());
        eight.save(&dir).unwrap();
        let loaded = ShardedCorpus::load(&dir, config()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for sharded in [&eight, &loaded] {
            let base = sharded.shards()[0].measure().class_base();
            for shard in sharded.shards() {
                assert!(Arc::ptr_eq(base, shard.measure().class_base()));
                assert_eq!(shard.measure().overflow_class_ids(), 0);
            }
        }
        let one = ShardedCorpus::build(config(), 1, workflows.clone());
        let rows = |sharded: &ShardedCorpus, wf: &Workflow| {
            sharded.shards()[0]
                .measure()
                .base_bounds(&sharded.query_features(wf))
                .expect("module sets is bounded")
                .row_count()
        };
        for wf in &workflows {
            assert_eq!(rows(&eight, wf), rows(&one, wf), "query {}", wf.id);
            assert_eq!(rows(&loaded, wf), rows(&one, wf), "query {}", wf.id);
        }
    }

    /// After removes that leave base classes dead and adds that bring
    /// classes the base never saw (overflow), search at every shard count
    /// equals a single corpus built over the survivors and the brute-force
    /// scan, bit for bit.
    #[test]
    fn churned_shards_search_like_a_single_corpus_and_the_scan_oracle() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(48, 21));
        let (initial, later) = workflows.split_at(36);
        let mut additions = later.to_vec();
        additions.push(wf("unseen", &["zq xylophone", "kw lookup", "run blast"]));
        for shards in [1, 3, 8] {
            let mut sharded = ShardedCorpus::build(config(), shards, initial.to_vec());
            for wf in initial.iter().step_by(3) {
                assert!(sharded.remove(&wf.id).is_some());
            }
            for wf in &additions {
                sharded.add(wf.clone());
            }
            let measures = || sharded.shards().iter().map(Corpus::measure);
            assert!(measures().any(|m| m.dead_base_classes() > 0), "{shards}");
            assert!(measures().any(|m| m.overflow_class_ids() > 0), "{shards}");
            let single = Corpus::build(config(), sharded_workflows(&sharded));
            for id in sharded.ids() {
                let got = sharded.search(&id, 6).expect("resident");
                assert_eq!(got, single.top_k(&id, 6).unwrap(), "{shards}: {id}");
                let index = single.index_of(&id).expect("resident");
                let oracle = wf_repo::scan_top_k(single.measure(), index, 6);
                assert_eq!(got.len(), oracle.len(), "{shards}: {id}");
                for (g, o) in got.iter().zip(&oracle) {
                    assert_eq!(g.id, o.id, "{shards}: {id}");
                    assert_eq!(g.score.to_bits(), o.score.to_bits(), "{shards}: {id}");
                }
            }
        }
    }

    #[test]
    fn service_deadline_search_with_open_gate_is_not_degraded() {
        let service = CorpusService::new(ShardedCorpus::build(config(), 2, sample()));
        let query: WorkflowId = "b".into();
        let full = service.search(&query, 4).expect("resident");
        let result = service
            .search_deadline(&query, 4, &CancelToken::never())
            .expect("resident");
        assert!(!result.degraded);
        assert_eq!(result.hits, full);
        // Ungated, the deadline search is the sharded corpus's global
        // frontier, down to the scoring counters.
        let sharded = ShardedCorpus::build(config(), 2, sample());
        let (_, frontier_stats) = sharded.search_with_stats(&query, 4).expect("resident");
        assert_eq!(result.stats, frontier_stats);
        let gated = service
            .search_deadline_with(&query, 4, &CancelToken::never(), |_| true)
            .expect("resident");
        assert_eq!(gated.answered, vec![true, true]);
        assert_eq!(gated.hits, full);
        assert!(service
            .search_deadline(&"nope".into(), 4, &CancelToken::never())
            .is_none());
    }
}
