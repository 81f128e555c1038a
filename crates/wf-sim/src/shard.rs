//! The sharded corpus service layer: scatter-gather top-k over
//! independently owned corpus shards, safe to query while the corpus
//! churns.
//!
//! The paper scores a static repository offline; the ROADMAP north-star is
//! a serving system answering heavy query traffic *while* workflows are
//! uploaded and deleted — the repository-scale setting Davidson et al.
//! describe for myExperiment-style search.  One [`Corpus`]
//! cannot get there alone: a single `&mut` mutation path stalls every
//! reader, one `StringPool` and one inverted index serialize all profiling,
//! and a single snapshot file is rewritten wholesale on every save.  This
//! module partitions the corpus instead:
//!
//! * [`ShardedCorpus`] — N shards, each a complete [`Corpus`] owning its
//!   own profiles, class column and token index, all sharing the corpus's
//!   one token pool and one live registry of module classes; each
//!   workflow lives in the shard the FNV-1a hash of its id picks, so
//!   routing is stateless and an id never lives in two shards.  A top-k
//!   query **scatters** by binding the query once to the corpus pool and
//!   bounding it once against every live class (a [`PreparedQuery`]),
//!   then bounding every shard's candidates from that one table (nothing
//!   scored yet), and runs **one global best-bound-first scan** over all
//!   of them in one [`RankedFrontier`]: the scan always scores the
//!   globally best-bound candidate into the search's one top-k heap and
//!   prunes against that heap's worst kept score, so the pruning power of
//!   the admissible-bound search is independent of how many shards the
//!   corpus is split into.  The **gather** is that heap, sorted.
//! * [`CorpusService`] — the concurrent wrapper: one `RwLock` per shard,
//!   so searches proceed on all shards concurrently with churn that only
//!   write-locks the single owning shard, plus a parallel batch-query API.
//!   Hash routing needs no shared route table; besides the shard locks,
//!   the only lock is the class registry's, a leaf lock.
//!
//! ## Why sharded search stays bit-identical
//!
//! Every shard scores the query with exactly the shared
//! [`ProfiledMeasure`] code path: the query's pool-independent features are
//! extracted once ([`QueryFeatures`]) and bound once against the corpus's
//! *frozen* pool ([`wf_text::FrozenInterner`]), which reproduces every
//! token-set comparison bit-for-bit without mutating it.  Pruning
//! only ever skips a candidate whose admissible upper bound falls
//! *strictly* below the floor — the worst score the search's one top-k
//! heap keeps once full, always a true k-th best score of `k` distinct
//! candidates — so no pruned candidate can enter the top-k, under any
//! scan order.  The gather step sorts by the canonical `(score desc, id
//! asc)` hit ordering, so ids, scores *and* tie order equal the
//! exhaustive [`scan_top_k`](wf_repo::scan_top_k) over one corpus holding
//! every shard's workflows.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

// Model-checkable lock shims: plain `std::sync` locks outside a model run,
// deterministic scheduling points inside one (see `vendor/shuttle-mini`
// and the `wf-analyze` model-check suite, which races `CorpusService`
// searches against live churn under a controlled scheduler).
use shuttle_mini::sync::{RwLock, RwLockReadGuard};

use wf_model::{Workflow, WorkflowId};
use wf_repo::{
    claim_units, scan_ranked_candidates, CancelToken, RankedCandidate, RankedFrontier, SearchHit,
    SearchStats, TopK,
};

use crate::config::SimilarityConfig;
use crate::corpus::{
    config_fingerprint, dedup_last_wins, fnv1a64, sync_dir, write_atomic, Corpus, SnapshotError,
};
use crate::pipeline::WorkflowSimilarity;
use crate::profile::{PreparedQuery, ProfiledMeasure, QueryFeatures};

/// First token of a shard-manifest header line.
pub const SHARD_MANIFEST_MAGIC: &str = "wfsim-shard-manifest";

/// Version of the shard-manifest layout.  Version 2 added the generation
/// number that ties the manifest to its shard files; version 3 dropped the
/// partition and rotation-cursor fields (routing is always by id hash).
pub const SHARD_MANIFEST_VERSION: u32 = 3;

/// The file a [`ShardedCorpus::save`] directory's manifest is written to.
pub const SHARD_MANIFEST_FILE: &str = "manifest";

/// The one scan schedule every sharded search runs: one global
/// best-bound-first frontier on the calling thread.
///
/// Kept only so `wfsim-bench`'s `.with_parallelism(SearchParallelism::Sequential)`
/// still builds, until ROADMAP item 3's benchmark change drops that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchParallelism {
    /// One global frontier, scanned on the calling thread.
    #[default]
    Sequential,
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
///   [`SimilarityConfig`]; profiles, class columns and token indexes are
///   per shard, and all shards share one token pool and one live
///   module-class registry behind one lock;
/// * a workflow id lives in at most one shard, and always in the shard the
///   hash of the id routes it to ([`ShardedCorpus::add`] replaces through
///   the owning shard, never across shards);
/// * [`ShardedCorpus::search`] results — ids, scores, tie order — are
///   bit-identical to the exhaustive
///   [`scan_top_k`](wf_repo::scan_top_k) over one corpus holding the union
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
    /// profiles are built together into one token pool and one class
    /// registry, which all the shards share (a search then binds its query
    /// once and bounds it against each class once, not once per shard).
    fn from_buckets(config: SimilarityConfig, buckets: Vec<Vec<Workflow>>) -> Self {
        let slices: Vec<&[Workflow]> = buckets.iter().map(Vec::as_slice).collect();
        let measures =
            ProfiledMeasure::build_shared(&WorkflowSimilarity::new(config.clone()), &slices);
        let shards = buckets
            .into_iter()
            .zip(measures)
            .map(|(originals, measure)| Corpus::from_profiled(originals, measure))
            .collect();
        ShardedCorpus { config, shards }
    }

    /// Returns the corpus unchanged: [`SearchParallelism`] has one value.
    /// Kept only until ROADMAP item 3's benchmark change drops
    /// `wfsim-bench`'s call to it.
    pub fn with_parallelism(self, _parallelism: SearchParallelism) -> Self {
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
    /// shard's profiles and index, and the shared pool and registry, are
    /// touched.
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
    /// Bit-identical to [`scan_top_k`](wf_repo::scan_top_k).
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
    /// id are excluded, mirroring the single-corpus search.
    pub fn search_workflow(&self, wf: &Workflow, k: usize) -> Vec<SearchHit> {
        let features = self.query_features(wf);
        self.scatter(&features, &wf.id, k, &CancelToken::never())
            .hits
    }

    /// Answers a batch of queries on `threads` worker threads, one full
    /// scatter per query (queries are the work-stealing unit, so every
    /// query keeps the full pruning power of [`ShardedCorpus::search`]).
    /// Each query's features are extracted once and bound once to the
    /// corpus pool, as for a single search.  Unknown
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

    /// One ungated [`scatter`] over the owned shards.
    fn scatter(
        &self,
        features: &QueryFeatures,
        exclude: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
    ) -> DegradedSearch {
        scatter(
            self.shards.len(),
            |i| &self.shards[i],
            features,
            exclude,
            k,
            cancel,
            None,
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
    /// [`ShardedCorpus::build`] does (one shared class registry).  The
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
    /// The top-k over every candidate that was actually scored.
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

/// The frontier core: bound every candidate of the listed corpora from a
/// query prepared for them all and run **one** [`scan_ranked_candidates`]
/// over them, merged by a [`RankedFrontier`], into the caller's `top`.
/// The scan always scores the globally best-bound candidate across every
/// corpus and stops when the best remaining bound *anywhere* falls below
/// the worst score `top` keeps — so pruning power is that of one scan
/// over the whole corpus, independent of how many fronts the corpus is
/// split into.  Scoring goes through one per-query memo of exact
/// module-pair similarities, shared by every front.
///
/// Each candidate is keyed by its shard-major position: the candidates
/// of the fronts before it plus its local corpus index.  The frontier's
/// index-ascending tie order on that key is front ascending, then local
/// ascending.  Bounds are admissible, or `INFINITY` for measures without
/// one, and bit-identical to the per-pair bound
/// [`ProfiledMeasure::upper_bound_profile`].
///
/// A fired `cancel` abandons the merged stream mid-scan; the hits `top`
/// holds at that point are exact (the frontier only reorders *scoring*,
/// and top-k content is insertion-order independent).
pub(crate) fn frontier_scan(
    fronts: &[&Corpus],
    query: &PreparedQuery,
    exclude: &WorkflowId,
    top: &mut TopK,
    cancel: &CancelToken,
    stats: &mut SearchStats,
) {
    let mut offsets = Vec::with_capacity(fronts.len());
    let mut candidates: Vec<RankedCandidate> =
        Vec::with_capacity(fronts.iter().map(|corpus| corpus.len()).sum());
    for corpus in fronts {
        let offset = offsets.last().map_or(0, |&(start, len)| start + len);
        offsets.push((offset, corpus.len()));
        let measure = corpus.measure();
        let overlaps = corpus
            .token_index()
            .overlap_counts(query.profile().label_tokens().ids());
        // Corpus ids are unique, so the excluded id is at most one index.
        let excluded = measure.index_of(exclude);
        let mut bounds = measure.class_bounds(query);
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
                index: offset + index,
                bound,
                overlap,
            });
        }
    }
    stats.candidates += candidates.len();
    // The front holding a shard-major position, and the local index there.
    let locate = |position: usize| {
        let front = offsets.partition_point(|&(start, len)| start + len <= position);
        (fronts[front], position - offsets[front].0)
    };
    // A unit holds at least one front, and all fronts share one registry.
    let mut memo = fronts[0].measure().pair_memo(query);
    let frontier = RankedFrontier::new(candidates);
    let total = frontier.total();
    scan_ranked_candidates(
        frontier,
        total,
        top,
        cancel,
        stats,
        |position| {
            let (corpus, local) = locate(position);
            corpus.measure().score_profile_memo(query, local, &mut memo)
        },
        |position| {
            let (corpus, local) = locate(position);
            corpus.ids()[local].clone()
        },
    );
}

/// A gate run on a shard before its scan: `false` vetoes the visit, and
/// the gate may also stall (the serving layer's fault-injection hook).
type ShardGate<'g> = &'g dyn Fn(usize) -> bool;

/// The one scatter-gather behind every sharded search entry point, run on
/// the calling thread.
///
/// Every shard guard is taken up front, in ascending order (the lock
/// order of [`CorpusService`]), and held to the gather, so the search
/// sees one consistent cut of a live corpus.  The shards are then split
/// into *units*, scanned in shard order, each by one [`frontier_scan`]
/// into the search's one top-k heap, so a unit prunes against the hits
/// of every unit before it:
///
/// * with no gate, all shards form one unit: one global best-bound-first
///   frontier, the least scoring work at any shard count;
/// * with a gate, each shard is its own unit.  A gate may stall, and work
///   finished before a stall must survive it.
///
/// Each unit checks the token (a fired deadline leaves it and every later
/// unit unanswered), runs its gate (a veto skips it — one bad shard
/// degrades coverage, not availability), then scans.  A unit is answered
/// only if its gate passed and its scan was not cut.
///
/// Bit-identical to [`scan_top_k`](wf_repo::scan_top_k) under either
/// split: pruning is *strictly below* a floor that is always a true
/// worst-of-k of `k` distinct exactly-scored candidates, so no pruned
/// candidate can enter the top-k, and the gather (the heap's sort)
/// canonicalizes order.  The split changes only the work done and which
/// shards a fired deadline leaves unanswered.
fn scatter<R: std::ops::Deref<Target = Corpus>>(
    shard_count: usize,
    shard_at: impl FnMut(usize) -> R,
    features: &QueryFeatures,
    exclude: &WorkflowId,
    k: usize,
    cancel: &CancelToken,
    gate: Option<ShardGate<'_>>,
) -> DegradedSearch {
    let guards: Vec<R> = (0..shard_count).map(shard_at).collect();
    let fronts: Vec<&Corpus> = guards.iter().map(|guard| &**guard).collect();
    let unit_len = if gate.is_none() { shard_count } else { 1 };
    // Every shard shares one class registry, read-locked here once, after
    // every shard guard: the query is bound and bounded for all units,
    // and the lock is released before any scan.
    let query = fronts[0].measure().prepare(features);
    let mut top = TopK::new(k);
    let mut answered = vec![false; shard_count];
    let mut stats = SearchStats::default();
    for (unit, shards) in fronts.chunks(unit_len).enumerate() {
        if cancel.is_cancelled() {
            stats.cancelled = true;
            break;
        }
        // A gated unit is one shard, whose index is the unit's.
        if gate.is_some_and(|gate| !gate(unit)) {
            continue;
        }
        frontier_scan(shards, &query, exclude, &mut top, cancel, &mut stats);
        // A scan that saw the token fire ends the loop at the next check,
        // so `cancelled` can only have been set by this unit.
        answered[unit * unit_len..][..shards.len()].fill(!stats.cancelled);
    }
    DegradedSearch {
        hits: top.into_sorted_hits(),
        degraded: answered.contains(&false),
        answered,
        stats,
    }
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
/// * Deadlock freedom: shard locks are taken in ascending index order,
///   then the shared class registry's lock, a leaf lock: nothing else is
///   locked while it is held.  A writer holds exactly one shard write
///   lock and takes the registry for writing inside it, only to intern or
///   release its workflow's tokens and classes (features are extracted
///   before), so writers to different shards serialize on the registry.
/// * A search read-locks the owner shard to extract query features and
///   releases it; then it takes **all** shard read locks up front, in
///   ascending index order, reads the registry once to prepare the query
///   (bind it, build its class table), releases the registry, and only
///   then runs any shard gate and scans.  With every shard read-locked no
///   writer can hold the registry, so a search never waits on it.  The
///   shard locks are held to the gather, so every search — plain,
///   deadline or gated — sees one consistent cut of the corpus,
///   and a workflow removed (or added) *before* the search started is
///   guaranteed excluded (or visible): the churn invariant the stress
///   tests assert.  A gate that stalls therefore stalls with every read
///   lock held: writers to any shard wait for it.
/// * On a quiescent corpus, results are bit-identical to
///   [`ShardedCorpus::search`] and hence to
///   [`scan_top_k`](wf_repo::scan_top_k).
pub struct CorpusService {
    config: SimilarityConfig,
    shards: Vec<RwLock<Corpus>>,
    threads: usize,
}

impl CorpusService {
    /// Wraps a built sharded corpus for concurrent serving.
    pub fn new(sharded: ShardedCorpus) -> Self {
        CorpusService {
            config: sharded.config,
            shards: sharded.shards.into_iter().map(RwLock::new).collect(),
            threads: 4,
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
    /// ungated scatter as [`CorpusService::search`] (one global
    /// frontier), polling `cancel` between candidates.  A fired deadline
    /// returns the exact partial top-k flagged
    /// [`degraded`](DegradedSearch::degraded); when it cuts the global
    /// frontier, every shard is reported unanswered.  `None` when the
    /// query id is not resident at the time the owning shard is read.
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
        shard_gate: impl Fn(usize) -> bool,
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

    /// One [`scatter`] over the live shards.
    fn scatter(
        &self,
        features: &QueryFeatures,
        exclude: &WorkflowId,
        k: usize,
        cancel: &CancelToken,
        gate: Option<ShardGate<'_>>,
    ) -> DegradedSearch {
        scatter(
            self.shards.len(),
            |i| self.read(&self.shards[i]),
            features,
            exclude,
            k,
            cancel,
            gate,
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

    /// Ids and score bits of a hit list, for bit-identity assertions.
    fn hit_bits(hits: &[SearchHit]) -> Vec<(WorkflowId, u64)> {
        hits.iter()
            .map(|hit| (hit.id.clone(), hit.score.to_bits()))
            .collect()
    }

    /// The brute-force scan over one unsharded corpus of [`sample`].
    fn sample_scan_oracle(query: &WorkflowId, k: usize) -> Vec<(WorkflowId, u64)> {
        let single = Corpus::build(config(), sample());
        let index = single.index_of(query).expect("resident");
        hit_bits(&wf_repo::scan_top_k(single.measure(), index, k))
    }

    #[test]
    fn vetoed_shard_degrades_coverage_not_correctness() {
        // Four shards, every one holding a hit the full search returns.
        let sharded = ShardedCorpus::build(config(), 4, sample());
        let residents: Vec<Vec<WorkflowId>> = sharded
            .shards()
            .iter()
            .map(|shard| shard.ids().to_vec())
            .collect();
        let service = CorpusService::new(sharded);
        let query: WorkflowId = "a".into();
        let (full, full_stats) = {
            let result = service
                .search_deadline(&query, 10, &CancelToken::never())
                .expect("resident");
            (result.hits, result.stats)
        };
        // With the gate open, the four one-shard units fill one heap: the
        // brute-force scan's hits, bit for bit, from the same candidates.
        let open = service
            .search_deadline_with(&query, 10, &CancelToken::never(), |_| true)
            .expect("resident");
        assert_eq!(hit_bits(&open.hits), sample_scan_oracle(&query, 10));
        assert_eq!(open.stats.candidates, full_stats.candidates);
        for (vetoed, vetoed_residents) in residents.iter().enumerate() {
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
            // k covers the corpus, so the surviving units' one heap holds
            // exactly the full ranking minus the vetoed shard's residents.
            let expected: Vec<SearchHit> = full
                .iter()
                .filter(|hit| !vetoed_residents.contains(&hit.id))
                .cloned()
                .collect();
            assert_eq!(hit_bits(&result.hits), hit_bits(&expected));
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

    /// A build and a load both profile every shard into one pool and one
    /// class registry that all shards share, with no id freed; and a query
    /// is bounded against the same number of classes at 8 shards as at 1.
    #[test]
    fn shards_share_one_class_registry_after_build_and_load() {
        let dir = std::env::temp_dir().join("wfsim-shard-class-registry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(40, 3));
        let eight = ShardedCorpus::build(config(), 8, workflows.clone());
        eight.save(&dir).unwrap();
        let loaded = ShardedCorpus::load(&dir, config()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for sharded in [&eight, &loaded] {
            let registry = sharded.shards()[0].measure().class_registry();
            for shard in sharded.shards() {
                assert!(Arc::ptr_eq(registry, shard.measure().class_registry()));
            }
            assert!(registry.read().unwrap().free_ids().is_empty());
        }
        let one = ShardedCorpus::build(config(), 1, workflows.clone());
        let rows = |sharded: &ShardedCorpus, wf: &Workflow| {
            let query = sharded.shards()[0]
                .measure()
                .prepare(&sharded.query_features(wf));
            query.class_rows().expect("module sets is bounded").1.len()
        };
        for wf in &workflows {
            assert_eq!(rows(&eight, wf), rows(&one, wf), "query {}", wf.id);
            assert_eq!(rows(&loaded, wf), rows(&one, wf), "query {}", wf.id);
        }
    }

    /// Searches at every shard count equal a single corpus built over the
    /// survivors and the brute-force scan, bit for bit.
    fn assert_matches_single_and_scan(sharded: &ShardedCorpus, what: &str) {
        let single = Corpus::build(config(), sharded_workflows(sharded));
        for id in sharded.ids() {
            let got = sharded.search(&id, 6).expect("resident");
            assert_eq!(got, single.top_k(&id, 6).unwrap(), "{what}: {id}");
            let index = single.index_of(&id).expect("resident");
            let oracle = wf_repo::scan_top_k(single.measure(), index, 6);
            assert_eq!(got.len(), oracle.len(), "{what}: {id}");
            for (g, o) in got.iter().zip(&oracle) {
                assert_eq!(g.id, o.id, "{what}: {id}");
                assert_eq!(g.score.to_bits(), o.score.to_bits(), "{what}: {id}");
            }
        }
    }

    /// After removes that free class ids and adds that bring classes the
    /// corpus never saw, search at every shard count equals a single
    /// corpus built over the survivors and the brute-force scan.
    #[test]
    fn churned_shards_search_like_a_single_corpus_and_the_scan_oracle() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(48, 21));
        let (initial, later) = workflows.split_at(36);
        let mut additions = later.to_vec();
        additions.push(wf("unseen", &["zq xylophone", "kw lookup", "run blast"]));
        for shards in [1, 3, 8] {
            let mut sharded = ShardedCorpus::build(config(), shards, initial.to_vec());
            let ids = |sharded: &ShardedCorpus| {
                let registry = sharded.shards()[0].measure().class_registry();
                let registry = registry.read().unwrap();
                (registry.id_count(), registry.free_ids().len())
            };
            let (built, _) = ids(&sharded);
            for wf in initial.iter().step_by(3) {
                assert!(sharded.remove(&wf.id).is_some());
            }
            assert!(ids(&sharded).1 > 0, "{shards}: no class freed");
            for wf in &additions {
                sharded.add(wf.clone());
            }
            assert!(ids(&sharded).0 > built, "{shards}: no class minted");
            assert_matches_single_and_scan(&sharded, &format!("{shards} shards"));
        }
    }

    /// The class id of every module of every workflow, shard-major.
    fn class_ids(sharded: &ShardedCorpus) -> Vec<(WorkflowId, Vec<u32>)> {
        sharded
            .shards()
            .iter()
            .flat_map(|shard| {
                let measure = shard.measure();
                (0..shard.len())
                    .map(move |i| (measure.ids()[i].clone(), measure.classes_of(i).to_vec()))
            })
            .collect()
    }

    /// Removing every holder of a class anywhere in the corpus frees its id:
    /// the live classes equal a rebuild's, the next query's table has no
    /// row for the id, and the next class never seen before takes it.
    #[test]
    fn a_class_with_no_holder_left_is_freed_and_its_id_reused() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(40, 13));
        for shards in [1, 2, 8] {
            let what = format!("{shards} shards");
            let mut sharded = ShardedCorpus::build(config(), shards, workflows.clone());
            // The class of a module held by more than one workflow.
            let holders = |sharded: &ShardedCorpus, class: u32| -> Vec<WorkflowId> {
                class_ids(sharded)
                    .into_iter()
                    .filter(|(_, classes)| classes.contains(&class))
                    .map(|(id, _)| id)
                    .collect()
            };
            let class = class_ids(&sharded)
                .iter()
                .flat_map(|(_, classes)| classes.iter().copied())
                .find(|&class| holders(&sharded, class).len() > 1)
                .expect("some class is shared");
            for id in holders(&sharded, class) {
                assert!(sharded.remove(&id).is_some(), "{what}");
            }
            let registry = Arc::clone(sharded.shards()[0].measure().class_registry());
            let rebuilt = ShardedCorpus::build(config(), shards, sharded_workflows(&sharded));
            {
                let (live, want) = (
                    registry.read().unwrap(),
                    rebuilt.shards()[0]
                        .measure()
                        .class_registry()
                        .read()
                        .unwrap(),
                );
                assert_eq!(live.live_keys(), want.live_keys(), "{what}");
                assert!(live.free_ids().contains(&class), "{what}");
            }
            let probe = sharded.get(&sharded.ids()[0]).unwrap().clone();
            let query = sharded.shards()[0]
                .measure()
                .prepare(&sharded.query_features(&probe));
            let (rows, col_max) = query.class_rows().expect("module sets is bounded");
            let na = rows.len() / col_max.len();
            assert!(!registry.read().unwrap().is_live(class), "{what}");
            assert!(rows[class as usize * na..][..na]
                .iter()
                .all(|&ub| ub == 0.0));
            assert_eq!(col_max[class as usize], 0.0, "{what}");
            assert_matches_single_and_scan(&sharded, &format!("{what}, freed"));
            // Modules no workflow ever held found classes on the freed ids,
            // one each, before any new id is minted.
            let (ids, mut freed) = {
                let registry = registry.read().unwrap();
                (registry.id_count(), registry.free_ids().to_vec())
            };
            let labels: Vec<String> = (0..freed.len())
                .map(|i| format!("zq never seen xylophone {i}"))
                .collect();
            let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
            let stranger = wf("stranger", &labels);
            sharded.add(stranger.clone());
            let (_, mut classes) = class_ids(&sharded)
                .into_iter()
                .find(|(id, _)| *id == stranger.id)
                .expect("added");
            classes.sort_unstable();
            freed.sort_unstable();
            assert_eq!(classes, freed, "{what}");
            let registry = registry.read().unwrap();
            assert!(registry.free_ids().is_empty(), "{what}");
            assert_eq!(registry.id_count(), ids, "{what}");
            drop(registry);
            assert_matches_single_and_scan(&sharded, &format!("{what}, reused"));
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
        // One heap carried across the gated units: the brute-force scan's
        // hits over one unsharded corpus, bit for bit, and every candidate
        // enumerated exactly as the ungated search does.
        assert_eq!(hit_bits(&gated.hits), sample_scan_oracle(&query, 4));
        assert_eq!(gated.stats.candidates, frontier_stats.candidates);
        assert!(service
            .search_deadline(&"nope".into(), 4, &CancelToken::never())
            .is_none());
    }
}
