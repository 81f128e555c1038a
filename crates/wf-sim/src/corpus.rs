//! The corpus layer: one shared, corpus-resident artifact for every
//! scoring consumer.
//!
//! PR 2 introduced corpus-resident *profiles* ([`ProfiledMeasure`]) and an
//! inverted-index search engine, but each consumer still assembled its own
//! pieces per run: top-k search built a profile set and an index, the
//! clustering matrix re-derived everything through the per-pair `Measure`
//! trait, and every experiment binary carried its own ad-hoc `&[Workflow]`
//! slice.  Related repository-search systems treat the *repository* as the
//! persistent, indexed artifact (keyword indexes over workflow repositories
//! à la Davidson et al.; indexed execution patterns à la García-Cuesta et
//! al.); [`Corpus`] is that artifact here:
//!
//! * **build once, share everywhere** — a [`Corpus`] owns the workflows,
//!   the corpus-wide string pool, the per-workflow profiles and the
//!   label-token inverted index; top-k search, the clustering matrix
//!   builders and the experiment binaries all score from the same instance;
//! * **incremental mutation** — [`Corpus::add`] / [`Corpus::remove`] keep
//!   profiles and inverted index in sync without a rebuild, and the mutated
//!   corpus answers every query exactly like a from-scratch rebuild over
//!   the surviving workflows;
//! * **snapshot persistence** — [`Corpus::save`] / [`Corpus::load`] keep
//!   only the original workflows, in corpus order, and a load runs
//!   [`Corpus::build`] over them: profiling the workflows again is cheaper
//!   than decoding a serialized pool, profiles and index.  A version +
//!   checksum + config-fingerprint header makes [`Corpus::load_or_build`]
//!   fall back to a clean rebuild whenever the snapshot does not match the
//!   binary or the requested measure, and a save replaces the old file
//!   atomically (temp file, fsync, rename), so a crash leaves the old
//!   snapshot or the new one.

#[cfg(test)]
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};
use wf_model::{CorpusStats, Workflow, WorkflowId};
use wf_repo::{CancelToken, CorpusScorer, SearchHit, SearchStats, TokenIndex, TopK};

use crate::config::SimilarityConfig;
use crate::profile::{ClassPairTable, ProfiledMeasure};
use crate::shard::frontier_scan;

/// First token of a snapshot header line; anything else is not a snapshot.
pub const SNAPSHOT_MAGIC: &str = "wfsim-corpus-snapshot";

/// Version of the snapshot layout.  Bumped whenever the header or the
/// serialized body changes shape; older snapshots then fail
/// [`Corpus::load`] with [`SnapshotError::VersionMismatch`] and
/// [`Corpus::load_or_build`] rebuilds cleanly.  Version 1 serialized the
/// pool, profiles and index; version 2 holds only the workflows and a
/// generation number in the header.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A similarity-search corpus: workflows plus every derived, shared,
/// corpus-resident structure of one configured measure.
///
/// ```
/// use wf_model::{builder::WorkflowBuilder, ModuleType};
/// use wf_sim::{Corpus, SimilarityConfig};
///
/// let wf = |id: &str, label: &str| {
///     WorkflowBuilder::new(id)
///         .module(label, ModuleType::WsdlService, |m| m)
///         .build()
///         .unwrap()
/// };
/// let mut corpus = Corpus::build(
///     SimilarityConfig::best_module_sets(),
///     vec![wf("a", "blast search"), wf("b", "blast align"), wf("c", "plot")],
/// );
/// let hits = corpus.top_k(&"a".into(), 2).unwrap();
/// assert_eq!(hits[0].id.as_str(), "b");
/// corpus.remove(&"b".into());
/// assert_eq!(corpus.len(), 2);
/// ```
pub struct Corpus {
    /// The original (unpreprocessed) workflows, in corpus order.
    originals: Vec<Workflow>,
    /// Profiles + pool + the configured measure.
    measure: ProfiledMeasure,
    /// The label-token inverted index, maintained incrementally.
    index: TokenIndex,
}

impl Corpus {
    /// Profiles and indexes `workflows` for the measure described by
    /// `config`.  Duplicate ids replace earlier occurrences in place (last
    /// upload wins, as in [`wf_repo::Repository`]).
    pub fn build(config: SimilarityConfig, workflows: impl IntoIterator<Item = Workflow>) -> Self {
        let originals = dedup_last_wins(workflows);
        let measure = ProfiledMeasure::new(config, &originals);
        Corpus::from_profiled(originals, measure)
    }

    /// Assembles a corpus from distinct-id workflows and their profiles,
    /// building the token index.
    pub(crate) fn from_profiled(originals: Vec<Workflow>, measure: ProfiledMeasure) -> Self {
        let index = TokenIndex::build(&measure);
        Corpus {
            originals,
            measure,
            index,
        }
    }

    /// The configured similarity algorithm.
    pub fn config(&self) -> &SimilarityConfig {
        self.measure.inner().config()
    }

    /// The algorithm name in the paper's notation (e.g. `MS_ip_te_pll`).
    pub fn measure_name(&self) -> String {
        self.measure.name()
    }

    /// The profiled measure — a [`wf_repo::CorpusScorer`] and a drop-in
    /// [`crate::Measure`] for any consumer scoring this corpus.
    pub fn measure(&self) -> &ProfiledMeasure {
        &self.measure
    }

    /// The corpus-resident label-token inverted index.
    pub fn token_index(&self) -> &TokenIndex {
        &self.index
    }

    /// The original workflows, in corpus order.
    pub fn workflows(&self) -> &[Workflow] {
        &self.originals
    }

    /// All workflow ids, in corpus order.
    pub fn ids(&self) -> &[WorkflowId] {
        self.measure.ids()
    }

    /// Number of corpus workflows.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// True when the corpus holds no workflows.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// The corpus index of a workflow id.
    pub fn index_of(&self, id: &WorkflowId) -> Option<usize> {
        self.measure.index_of(id)
    }

    /// The original workflow with a given id.
    pub fn get(&self, id: &WorkflowId) -> Option<&Workflow> {
        Some(&self.originals[self.index_of(id)?])
    }

    /// Aggregate statistics over the stored corpus.
    pub fn stats(&self) -> Option<CorpusStats> {
        CorpusStats::of(&self.originals)
    }

    /// The similarity of the corpus workflows at two indices (inapplicable
    /// annotation pairs score 0, like the unprofiled pipeline).
    pub fn score(&self, a: usize, b: usize) -> f64 {
        self.measure.score_indexed(a, b)
    }

    /// Inserts a workflow, profiling it against the shared pool and
    /// registering it in the inverted index — no rebuild.  An existing
    /// workflow with the same id is removed first (the replacement joins at
    /// the end of the corpus).  Returns the new corpus index.
    pub fn add(&mut self, wf: Workflow) -> usize {
        self.remove(&wf.id);
        let index = self.measure.add_workflow(&wf);
        let indexed = self.index.add_workflow(self.measure.label_token_ids(index));
        debug_assert_eq!(index, indexed, "profiles and index must stay aligned");
        self.originals.push(wf);
        index
    }

    /// Removes a workflow by id, unregistering its profile and its index
    /// postings; later workflows shift down one position.  Returns the
    /// removed workflow, or `None` when the id is not in the corpus.
    pub fn remove(&mut self, id: &WorkflowId) -> Option<Workflow> {
        let index = self.index_of(id)?;
        self.measure.remove_workflow(index);
        self.index.remove_workflow(index);
        Some(self.originals.remove(index))
    }

    /// A scorer specialised for dense all-pairs work (clustering
    /// matrices): structural measures get a precomputed module-class pair
    /// table, turning the per-cell text comparisons of the O(n²) matrix
    /// into lookups.  Scores are bit-identical to [`Corpus::score`].
    pub fn matrix_scorer(&self) -> CorpusMatrixScorer<'_> {
        let table = self
            .config()
            .measure
            .is_structural()
            .then(|| self.measure.class_pair_table());
        CorpusMatrixScorer {
            measure: &self.measure,
            table,
        }
    }

    /// The `k` workflows most similar to the workflow with id `query`
    /// (itself excluded), best first; `None` for an unknown query id.
    /// Bit-identical to [`wf_repo::scan_top_k`] over [`Corpus::measure`].
    pub fn top_k(&self, query: &WorkflowId, k: usize) -> Option<Vec<SearchHit>> {
        Some(self.top_k_index(self.index_of(query)?, k))
    }

    /// [`Corpus::top_k`] addressed by corpus index.
    pub fn top_k_index(&self, query: usize, k: usize) -> Vec<SearchHit> {
        self.top_k_with_stats(query, k).0
    }

    /// [`Corpus::top_k_index`] plus pruning instrumentation.  Runs the
    /// frontier every sharded search runs (`frontier_scan`) over this one
    /// corpus, so it bounds candidates from the class table too.
    pub fn top_k_with_stats(&self, query: usize, k: usize) -> (Vec<SearchHit>, SearchStats) {
        let features = self.measure.query_features(&self.originals[query]);
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        frontier_scan(
            &[self],
            &self.measure.prepare(&features),
            &self.ids()[query],
            &mut top,
            &CancelToken::never(),
            &mut stats,
        );
        (top.into_sorted_hits(), stats)
    }

    /// Serializes the corpus's original workflows, in corpus order, with a
    /// `magic version generation checksum config` header line in front of a
    /// single-line JSON body.  The generation is 0; sharded saves stamp
    /// theirs (see [`crate::ShardedCorpus::save`]).
    pub fn to_snapshot_string(&self) -> String {
        self.snapshot_string(0)
    }

    /// [`Corpus::to_snapshot_string`] stamped with `generation`.
    pub(crate) fn snapshot_string(&self, generation: u64) -> String {
        let snapshot = CorpusSnapshot {
            workflows: self.originals.clone(),
        };
        let body = serde_json::to_string(&snapshot).expect("snapshot serialization cannot fail");
        format!(
            "{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} gen={generation} fnv64={:016x} config={}\n{body}",
            fnv1a64(body.as_bytes()),
            config_fingerprint(self.config()),
        )
    }

    /// Writes [`Corpus::to_snapshot_string`] to a file atomically: a crash
    /// leaves either the previous file or the new one at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), self.to_snapshot_string().as_bytes(), &mut 0)
    }

    /// Restores a corpus from a snapshot file.  The snapshot must carry the
    /// current [`SNAPSHOT_VERSION`], an intact checksum and the fingerprint
    /// of exactly the passed `config`; any mismatch is a typed
    /// [`SnapshotError`] (callers wanting automatic recovery use
    /// [`Corpus::load_or_build`]).
    pub fn load(path: impl AsRef<Path>, config: SimilarityConfig) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(SnapshotError::Io)?;
        Corpus::from_snapshot_str(&text, config)
    }

    /// [`Corpus::load`] over an in-memory snapshot string.
    pub fn from_snapshot_str(text: &str, config: SimilarityConfig) -> Result<Self, SnapshotError> {
        let workflows = Corpus::snapshot_workflows(text, &config, None)?;
        Ok(Corpus::build(config, workflows))
    }

    /// Checks a snapshot's header (and its generation, when one is
    /// expected), then decodes its workflows, in corpus order, for a build
    /// to run over.  A body holding one id twice is malformed: no saved
    /// corpus does, and the build would drop one.
    pub(crate) fn snapshot_workflows(
        text: &str,
        config: &SimilarityConfig,
        generation: Option<u64>,
    ) -> Result<Vec<Workflow>, SnapshotError> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Format("missing header line".to_string()))?;
        let mut parts = header.splitn(5, ' ');
        let magic = parts.next().unwrap_or_default();
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::Format(format!(
                "not a corpus snapshot (leads with {magic:?})"
            )));
        }
        let version = parts.next().unwrap_or_default();
        if version != format!("v{SNAPSHOT_VERSION}") {
            return Err(SnapshotError::VersionMismatch {
                found: version.to_string(),
            });
        }
        let found = parts
            .next()
            .and_then(|f| f.strip_prefix("gen="))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| SnapshotError::Format("malformed generation field".to_string()))?;
        if let Some(expected) = generation.filter(|&expected| expected != found) {
            return Err(SnapshotError::GenerationMismatch { expected, found });
        }
        let checksum = parts
            .next()
            .and_then(|f| f.strip_prefix("fnv64="))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| SnapshotError::Format("malformed checksum field".to_string()))?;
        if checksum != fnv1a64(body.as_bytes()) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let fingerprint = parts
            .next()
            .and_then(|f| f.strip_prefix("config="))
            .ok_or_else(|| SnapshotError::Format("malformed config field".to_string()))?;
        let expected = config_fingerprint(config);
        if fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: fingerprint.to_string(),
            });
        }
        let snapshot: CorpusSnapshot =
            serde_json::from_str(body).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        let mut ids = BTreeSet::new();
        if let Some(wf) = snapshot.workflows.iter().find(|wf| !ids.insert(&wf.id)) {
            return Err(SnapshotError::Format(format!(
                "workflow id {} appears twice",
                wf.id
            )));
        }
        Ok(snapshot.workflows)
    }

    /// Loads the snapshot at `path` if it is present, intact and was built
    /// for `config`; otherwise builds a fresh corpus from `workflows`.
    /// Returns the corpus together with how it was obtained, so servers can
    /// log (and re-save) rebuilds.
    pub fn load_or_build(
        path: impl AsRef<Path>,
        config: SimilarityConfig,
        workflows: impl IntoIterator<Item = Workflow>,
    ) -> (Self, CorpusOrigin) {
        match Corpus::load(path, config.clone()) {
            Ok(corpus) => (corpus, CorpusOrigin::Snapshot),
            Err(reason) => (
                Corpus::build(config, workflows),
                CorpusOrigin::Rebuilt(reason),
            ),
        }
    }
}

/// The distinct-id workflows of a build, in arrival order: a repeated id
/// keeps its last upload at its first upload's position (last upload wins,
/// as in [`wf_repo::Repository`]).
pub(crate) fn dedup_last_wins(workflows: impl IntoIterator<Item = Workflow>) -> Vec<Workflow> {
    let mut originals: Vec<Workflow> = Vec::new();
    let mut seen: BTreeMap<WorkflowId, usize> = BTreeMap::new();
    for wf in workflows {
        match seen.get(&wf.id) {
            Some(&pos) => originals[pos] = wf,
            None => {
                seen.insert(wf.id.clone(), originals.len());
                originals.push(wf);
            }
        }
    }
    originals
}

/// A corpus scorer for dense all-pairs computation, carrying the
/// module-class pair table of structural measures (annotation measures
/// score straight from their cached bags).  Immutable and `Sync`: parallel
/// matrix workers share one instance.
pub struct CorpusMatrixScorer<'c> {
    measure: &'c ProfiledMeasure,
    table: Option<ClassPairTable>,
}

impl CorpusMatrixScorer<'_> {
    /// The similarity of the corpus workflows at two indices —
    /// bit-identical to [`Corpus::score`].
    pub fn score(&self, a: usize, b: usize) -> f64 {
        match &self.table {
            Some(table) => self.measure.score_indexed_cached(table, a, b),
            None => self.measure.score_indexed(a, b),
        }
    }

    /// Number of distinct module classes behind the table (0 when the
    /// measure needs no table).
    pub fn class_count(&self) -> usize {
        self.table.as_ref().map_or(0, ClassPairTable::class_count)
    }
}

/// How [`Corpus::load_or_build`] obtained its corpus.
#[derive(Debug)]
pub enum CorpusOrigin {
    /// Deserialized from an intact, matching snapshot.
    Snapshot,
    /// Rebuilt from the workflows because the snapshot was unusable.
    Rebuilt(SnapshotError),
}

impl CorpusOrigin {
    /// True when the corpus came out of a snapshot.
    pub fn is_snapshot(&self) -> bool {
        matches!(self, CorpusOrigin::Snapshot)
    }
}

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The snapshot file could not be read.
    Io(io::Error),
    /// The file is not a corpus snapshot / the header is malformed.
    Format(String),
    /// The snapshot was written by a different snapshot-layout version.
    VersionMismatch {
        /// The version token found in the header.
        found: String,
    },
    /// The snapshot was written by another save than the one expected (a
    /// shard file whose sharded save never committed its manifest).
    GenerationMismatch {
        /// The generation expected.
        expected: u64,
        /// The generation in the header.
        found: u64,
    },
    /// The body does not hash to the checksum in the header.
    ChecksumMismatch,
    /// The snapshot was built for a different similarity configuration.
    ConfigMismatch {
        /// Fingerprint of the requested configuration.
        expected: String,
        /// Fingerprint recorded in the snapshot.
        found: String,
    },
    /// The body is not valid snapshot JSON.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::Format(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot version {found} != supported v{SNAPSHOT_VERSION}"
            ),
            SnapshotError::GenerationMismatch { expected, found } => {
                write!(f, "snapshot generation {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            SnapshotError::ConfigMismatch { expected, found } => {
                write!(f, "snapshot built for {found}, requested {expected}")
            }
            SnapshotError::Parse(why) => write!(f, "cannot parse snapshot body: {why}"),
        }
    }
}

impl Error for SnapshotError {}

/// The serialized body of a snapshot: the original workflows, in corpus
/// order.  Everything else is rebuilt on load.
#[derive(Serialize, Deserialize)]
struct CorpusSnapshot {
    workflows: Vec<Workflow>,
}

#[cfg(test)]
thread_local! {
    /// The write step this thread's saves fail at, counted from 1 (`None`:
    /// no failure) — the seam of the crash-safety tests.
    pub(crate) static FAIL_AT_STEP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Starts the next write step of a save — a temp-file write, fsync or
/// rename, or a directory sync — counting it in `taken`.  Under test,
/// fails the step [`FAIL_AT_STEP`] names before it touches the disk.
fn write_step(taken: &mut usize) -> io::Result<()> {
    *taken += 1;
    #[cfg(test)]
    if FAIL_AT_STEP.with(Cell::get) == Some(*taken) {
        return Err(io::Error::other("injected save failure"));
    }
    Ok(())
}

/// Replaces `path` with `bytes` atomically: writes a temp file next to it,
/// fsyncs it, then renames it over `path`, so a crash leaves the old file
/// or the new one, never a torn one.  `steps` counts the write steps.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], steps: &mut usize) -> io::Result<()> {
    let mut temp = path.as_os_str().to_owned();
    temp.push(".tmp");
    let mut file = File::create(&temp)?;
    // A cut here leaves an empty temp file, as a crash before the write.
    write_step(steps)?;
    file.write_all(bytes)?;
    write_step(steps)?;
    file.sync_all()?;
    write_step(steps)?;
    std::fs::rename(&temp, path)
}

/// Makes the renames done so far in `dir` durable, so a crash cannot keep
/// a later rename and lose an earlier one.
pub(crate) fn sync_dir(dir: &Path, steps: &mut usize) -> io::Result<()> {
    write_step(steps)?;
    File::open(dir)?.sync_all()
}

/// A space-free, human-readable identity of every configuration knob that
/// influences profiles or scores.  [`SimilarityConfig::name`] alone misses
/// mapping, normalization, importance and budget settings, so the
/// fingerprint spells those out too: loading a snapshot under a config with
/// any different knob must fall back to a rebuild.
pub(crate) fn config_fingerprint(config: &SimilarityConfig) -> String {
    let ged = &config.ged_budget;
    format!(
        "{name}|map={mapping}|norm={norm:?}|paths={paths}|imp={thr:?}+{freq}|ged={nodes}/{exp}/{beam}/{time:?}",
        name = config.name(),
        mapping = config.mapping,
        norm = config.normalization,
        paths = config.max_paths,
        thr = config.importance.threshold,
        freq = config.importance.frequency_adjusted,
        nodes = ged.exact_node_limit,
        exp = ged.max_expansions,
        beam = ged.beam_width,
        time = ged.time_limit,
    )
    .replace(' ', "_")
}

/// 64-bit FNV-1a — a small, dependency-free integrity hash for snapshot
/// bodies (corruption detection, not cryptographic authentication).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sample() -> Vec<Workflow> {
        vec![
            wf("a", &["fetch sequence", "run blast", "render report"]),
            wf("b", &["fetch sequence", "run blast", "plot hits"]),
            wf("c", &["parse tree", "cluster genes"]),
            wf("d", &["parse tree", "cluster genes", "plot hits"]),
            wf("e", &[]),
        ]
    }

    fn config() -> SimilarityConfig {
        SimilarityConfig::best_module_sets()
    }

    #[test]
    fn build_shares_profiles_index_and_ids() {
        let corpus = Corpus::build(config(), sample());
        assert_eq!(corpus.len(), 5);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.ids().len(), 5);
        assert_eq!(corpus.token_index().workflow_count(), 5);
        assert_eq!(corpus.index_of(&"c".into()), Some(2));
        assert_eq!(corpus.get(&"c".into()).unwrap().module_count(), 2);
        assert!(corpus.stats().is_some());
        assert_eq!(corpus.measure_name(), "MS_ip_te_pll");
        assert!(corpus.score(0, 1) > corpus.score(0, 2));
    }

    #[test]
    fn duplicate_ids_replace_in_place_like_a_repository() {
        let mut workflows = sample();
        workflows.push(wf("b", &["totally different"]));
        let corpus = Corpus::build(config(), workflows);
        assert_eq!(corpus.len(), 5);
        assert_eq!(corpus.get(&"b".into()).unwrap().module_count(), 1);
        assert_eq!(corpus.index_of(&"b".into()), Some(1));
    }

    /// The served search rebuilt from its parts the slow way: every pair
    /// bounded afresh with [`ProfiledMeasure::upper_bound_profile`], all
    /// candidates fully sorted, one scan into a fresh heap.  The
    /// class-table bound and the lazy frontier must walk the candidates
    /// exactly like this, so hits *and* stats are compared.
    fn per_pair_top_k(corpus: &Corpus, query: usize, k: usize) -> (Vec<SearchHit>, SearchStats) {
        let measure = corpus.measure();
        let overlaps = corpus
            .token_index()
            .overlap_counts(measure.label_token_ids(query));
        let mut candidates: Vec<wf_repo::RankedCandidate> = (0..corpus.len())
            .filter(|&i| i != query)
            .map(|i| wf_repo::RankedCandidate {
                index: i,
                bound: measure
                    .upper_bound_profile(measure.profile(query), i)
                    .unwrap_or(f64::INFINITY),
                overlap: overlaps[i],
            })
            .collect();
        let mut stats = SearchStats {
            candidates: candidates.len(),
            shared_token_candidates: candidates.iter().filter(|c| c.overlap > 0).count(),
            ..SearchStats::default()
        };
        wf_repo::sort_best_bound_first(&mut candidates);
        let total = candidates.len();
        let mut top = TopK::new(k);
        wf_repo::scan_ranked_candidates(
            candidates,
            total,
            &mut top,
            &CancelToken::never(),
            &mut stats,
            |i| measure.score(query, i),
            |i| measure.workflow_id(i).clone(),
        );
        (top.into_sorted_hits(), stats)
    }

    /// Hits equal the exhaustive scan, and hits plus stats equal the
    /// per-pair reference, for every query and k.
    fn assert_served_matches_references(corpus: &Corpus, queries: &[usize], what: &str) {
        for &query in queries {
            for k in [0, 1, 3, 10, corpus.len()] {
                let expected = wf_repo::scan_top_k(corpus.measure(), query, k);
                let (hits, stats) = corpus.top_k_with_stats(query, k);
                assert_eq!(hits, expected, "{what}: query {query}, k {k}");
                assert_eq!(corpus.top_k_index(query, k), expected);
                assert_eq!(
                    (hits, stats),
                    per_pair_top_k(corpus, query, k),
                    "{what}: per-pair reference, query {query}, k {k}"
                );
                assert_eq!(stats.candidates, corpus.len() - 1);
                assert_eq!(
                    stats.scored + stats.pruned + stats.zero_bound,
                    stats.candidates,
                    "{what}: accounting, query {query}, k {k}"
                );
            }
        }
    }

    #[test]
    fn top_k_matches_the_exhaustive_scan_and_the_per_pair_reference() {
        let corpus = Corpus::build(config(), sample());
        let queries: Vec<usize> = (0..corpus.len()).collect();
        assert_served_matches_references(&corpus, &queries, "sample");
        assert_eq!(
            corpus.top_k(&"a".into(), 2).unwrap(),
            corpus.top_k_index(0, 2)
        );
        assert!(corpus.top_k(&"zzz".into(), 2).is_none());
        let (_, stats) = corpus.top_k_with_stats(0, 2);
        assert_eq!(stats.candidates, 4);
    }

    /// The same references for all six module comparison schemes under
    /// both preselection/preprocessing settings, plus an unbounded
    /// measure, on a generated corpus large enough to prune.
    #[test]
    fn served_stats_match_the_per_pair_reference_for_every_scheme() {
        use crate::{MeasureKind, ModuleComparisonScheme, Preprocessing};
        use wf_repo::PreselectionStrategy;

        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(40, 17));
        let mut configs = vec![SimilarityConfig::best_path_sets()];
        for scheme in [
            ModuleComparisonScheme::pw0(),
            ModuleComparisonScheme::pw3(),
            ModuleComparisonScheme::pll(),
            ModuleComparisonScheme::plm(),
            ModuleComparisonScheme::gw1(),
            ModuleComparisonScheme::gll(),
        ] {
            for (preselection, preprocessing) in [
                (PreselectionStrategy::AllPairs, Preprocessing::None),
                (
                    PreselectionStrategy::TypeEquivalence,
                    Preprocessing::ImportanceProjection,
                ),
            ] {
                configs.push(SimilarityConfig::new(
                    MeasureKind::ModuleSets,
                    scheme.clone(),
                    preselection,
                    preprocessing,
                ));
            }
        }
        let mut pruned = 0;
        for config in configs {
            let name = config.name();
            let corpus = Corpus::build(config, workflows.clone());
            assert_served_matches_references(&corpus, &[0, 13, 39], &name);
            pruned += corpus.top_k_with_stats(0, 3).1.pruned;
        }
        assert!(pruned > 0, "the generated corpus exercises pruning");
    }

    /// A write that finds the shared class registry poisoned panics before
    /// it touches anything: ids, profiles, class columns, id index,
    /// originals and token index all stay as they were.
    #[test]
    fn a_write_on_a_poisoned_registry_leaves_the_corpus_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let mut corpus = Corpus::build(config(), sample());
        let registry = Arc::clone(corpus.measure().class_registry());
        let poisoner = std::thread::spawn(move || {
            let _guard = registry.write().expect("not poisoned yet");
            panic!("a write panics while holding the class registry");
        });
        assert!(poisoner.join().is_err(), "the poisoning thread panicked");
        let state = |corpus: &Corpus| {
            let measure = corpus.measure();
            let at: Vec<_> = corpus.ids().iter().map(|id| corpus.index_of(id)).collect();
            let classes: Vec<Vec<u32>> = (0..measure.len())
                .map(|i| measure.classes_of(i).to_vec())
                .collect();
            (
                (corpus.len(), measure.len(), corpus.ids().to_vec(), at),
                classes,
                corpus.workflows().to_vec(),
                corpus.token_index().clone(),
            )
        };
        let before = state(&corpus);
        let removed = catch_unwind(AssertUnwindSafe(|| corpus.remove(&"b".into())));
        assert!(removed.is_err(), "a remove needs the registry");
        assert!(
            state(&corpus) == before,
            "a failed remove changed the corpus"
        );
        let added = catch_unwind(AssertUnwindSafe(|| corpus.add(wf("f", &["run blast"]))));
        assert!(added.is_err(), "an add needs the registry");
        assert!(state(&corpus) == before, "a failed add changed the corpus");
    }

    /// The churn invariant: any interleaving of `add` / `remove` leaves the
    /// corpus answering exactly like a from-scratch build over the same
    /// surviving workflows.
    #[test]
    fn add_and_remove_match_a_from_scratch_rebuild() {
        let mut corpus = Corpus::build(config(), sample());
        assert!(corpus.remove(&"b".into()).is_some());
        assert!(corpus.remove(&"zzz".into()).is_none());
        corpus.add(wf("f", &["run blast", "plot hits"]));
        corpus.add(wf("a", &["fetch sequence", "run blast"])); // replace
        let rebuilt = Corpus::build(config(), corpus.workflows().to_vec());
        assert_eq!(corpus.ids(), rebuilt.ids());
        // The churned pool assigns different token *ids* than a fresh
        // rebuild (stale tokens keep their slots), so the indexes are only
        // equivalent up to id relabeling: same vocabulary size, same
        // answers.
        assert_eq!(
            corpus.token_index().token_count(),
            rebuilt.token_index().token_count()
        );
        for query in 0..corpus.len() {
            assert_eq!(
                corpus.top_k_index(query, corpus.len()),
                rebuilt.top_k_index(query, rebuilt.len()),
                "query {query}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_restores_identical_state() {
        let corpus = Corpus::build(config(), sample());
        let text = corpus.to_snapshot_string();
        let restored = Corpus::from_snapshot_str(&text, config()).unwrap();
        assert_eq!(restored.ids(), corpus.ids());
        assert_eq!(restored.token_index(), corpus.token_index());
        assert_eq!(
            restored.measure().with_pool(|pool| pool.strings().to_vec()),
            corpus.measure().with_pool(|pool| pool.strings().to_vec())
        );
        for query in 0..corpus.len() {
            assert_eq!(
                restored.top_k_index(query, 4),
                corpus.top_k_index(query, 4),
                "query {query}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_corruption_version_skew_and_config_skew() {
        let corpus = Corpus::build(config(), sample());
        let text = corpus.to_snapshot_string();

        let flipped = text.replace("\"a\"", "\"A\"");
        assert!(matches!(
            Corpus::from_snapshot_str(&flipped, config()),
            Err(SnapshotError::ChecksumMismatch)
        ));

        let current = format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} ");
        let older = format!("{SNAPSHOT_MAGIC} v{} ", SNAPSHOT_VERSION - 1);
        assert!(text.starts_with(&current));
        let old = text.replacen(&current, &older, 1);
        assert!(matches!(
            Corpus::from_snapshot_str(&old, config()),
            Err(SnapshotError::VersionMismatch { .. })
        ));

        assert!(matches!(
            Corpus::from_snapshot_str(&text, SimilarityConfig::bag_of_words()),
            Err(SnapshotError::ConfigMismatch { .. })
        ));

        assert!(matches!(
            Corpus::from_snapshot_str("junk", config()),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    fn snapshot_with_a_duplicate_id_is_malformed() {
        let corpus = Corpus::build(config(), sample());
        let text = corpus.to_snapshot_string();
        let (header, body) = text.split_once('\n').unwrap();
        let body = body.replacen("\"id\":\"b\"", "\"id\":\"a\"", 1);
        assert_ne!(
            body,
            text.split_once('\n').unwrap().1,
            "fixture edits an id"
        );
        let checksum = header.split(' ').find(|f| f.starts_with("fnv64=")).unwrap();
        let header = header.replace(
            checksum,
            &format!("fnv64={:016x}", fnv1a64(body.as_bytes())),
        );
        match Corpus::from_snapshot_str(&format!("{header}\n{body}"), config()) {
            Err(SnapshotError::Format(why)) => assert!(why.contains("twice"), "{why}"),
            other => panic!(
                "expected a duplicate-id format error, got {:?}",
                other.err()
            ),
        }
    }

    /// A snapshot holds the originals only, so a loaded corpus is the one
    /// `Corpus::build` makes over them.  After churn, its token ids may
    /// differ from the churned corpus's, but no hit may: ids, score bits
    /// and tie order stay identical for every scheme.
    #[test]
    fn loaded_churned_corpus_equals_a_build_and_searches_bit_identically() {
        for config in [
            SimilarityConfig::best_module_sets(),
            SimilarityConfig::module_sets_default(),
            SimilarityConfig::best_path_sets(),
            SimilarityConfig::graph_edit_default(),
            SimilarityConfig::bag_of_words(),
            SimilarityConfig::bag_of_tags(),
        ] {
            let name = config.name();
            let mut churned = Corpus::build(config.clone(), sample());
            churned.remove(&"b".into());
            churned.add(wf("f", &["run blast", "plot hits"]));
            churned.add(wf("a", &["fetch sequence", "cluster genes"]));
            churned.remove(&"e".into());
            churned.add(wf("g", &["render report"]));
            let loaded =
                Corpus::from_snapshot_str(&churned.to_snapshot_string(), config.clone()).unwrap();
            let built = Corpus::build(config, churned.workflows().to_vec());
            assert_eq!(loaded.workflows(), built.workflows(), "{name}");
            assert_eq!(loaded.ids(), built.ids(), "{name}");
            assert_eq!(loaded.ids(), churned.ids(), "{name}");
            for query in 0..churned.len() {
                let expected = churned.top_k_index(query, churned.len());
                let got = loaded.top_k_index(query, loaded.len());
                assert_eq!(got.len(), expected.len(), "{name}, query {query}");
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g.id, e.id, "{name}, query {query}");
                    assert_eq!(g.score.to_bits(), e.score.to_bits(), "{name}, {}", g.id);
                }
            }
        }
    }

    #[test]
    fn save_replaces_the_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("wfsim-corpus-atomic-save-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.snap");
        Corpus::build(config(), sample()).save(&path).unwrap();
        let smaller = Corpus::build(config(), sample().into_iter().take(2));
        smaller.save(&path).unwrap();
        assert_eq!(Corpus::load(&path, config()).unwrap().ids(), smaller.ids());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["corpus.snap"]);
        // A save that fails before its rename keeps the previous file.
        FAIL_AT_STEP.with(|step| step.set(Some(3)));
        let failed = Corpus::build(config(), sample()).save(&path);
        FAIL_AT_STEP.with(|step| step.set(None));
        assert!(failed.is_err());
        assert_eq!(Corpus::load(&path, config()).unwrap().ids(), smaller.ids());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_build_falls_back_to_a_clean_rebuild() {
        let dir = std::env::temp_dir().join("wfsim-corpus-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.snap");

        let _ = std::fs::remove_file(&path);
        let (built, origin) = Corpus::load_or_build(&path, config(), sample());
        assert!(!origin.is_snapshot(), "no snapshot yet: {origin:?}");
        built.save(&path).unwrap();

        let (loaded, origin) = Corpus::load_or_build(&path, config(), sample());
        assert!(origin.is_snapshot());
        assert_eq!(loaded.ids(), built.ids());

        // A snapshot for another measure is rejected, not misused.
        let (rebuilt, origin) =
            Corpus::load_or_build(&path, SimilarityConfig::bag_of_words(), sample());
        assert!(matches!(
            origin,
            CorpusOrigin::Rebuilt(SnapshotError::ConfigMismatch { .. })
        ));
        assert_eq!(rebuilt.len(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_separates_non_name_knobs() {
        let base = config();
        let mut deeper = config();
        deeper.max_paths = base.max_paths + 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&deeper));
        assert!(!config_fingerprint(&base).contains(' '));
    }
}
