//! # wf-sim — the scientific workflow similarity framework
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Starlinger et al., PVLDB 2014*): a framework that decomposes scientific
//! workflow comparison into explicit, interchangeable steps (Fig. 2 of the
//! paper) and implements every previously published approach as a
//! configuration of those steps.
//!
//! The pipeline for structure-based measures is:
//!
//! 1. **Preprocessing** — optionally project each workflow onto its
//!    important modules (`ip`, [`wf_repo::projection`]).
//! 2. **Topological decomposition** — optionally decompose the workflow into
//!    substructures (source-to-sink paths for the Path Sets measure,
//!    [`decompose`]).
//! 3. **Pairwise module comparison** — compute a similarity for every
//!    candidate module pair under a configurable attribute weighting scheme
//!    (`pw0`, `pw3`, `pll`, `plm`, `gw1`, `gll`; [`module_cmp`]), restricted
//!    by a module-pair preselection strategy (`ta` / `te`,
//!    [`wf_repo::preselect`]).
//! 4. **Module mapping** — establish a one-to-one mapping (greedy, maximum
//!    weight, or maximum weight non-crossing; [`wf_matching`]).
//! 5. **Topological comparison** — aggregate mapped-pair similarities into a
//!    workflow-level score: Module Sets ([`measures::module_sets`]), Path
//!    Sets ([`measures::path_sets`]) or Graph Edit Distance
//!    ([`measures::graph_edit`]).
//! 6. **Normalization** — normalise by workflow size ([`normalize`]).
//!
//! Annotation-based measures (Bag of Words, Bag of Tags; [`annotation`]) and
//! score-averaging [`ensemble`]s complete the framework.  The [`pipeline`]
//! module ties everything together behind the [`WorkflowSimilarity`] type.
//!
//! Beyond the paper's core measures, [`extended`] implements the remaining
//! approaches of Table 1 (module label vectors, maximum common subgraph,
//! graph kernels, frequent module / tag sets) behind the common [`Measure`]
//! trait, so they can be benchmarked against the framework measures and used
//! by the clustering crate.
//!
//! For repository-scale work, [`profile`] precomputes corpus-resident
//! per-workflow features once ([`ProfiledMeasure`], bit-identical to the
//! pipeline), and [`corpus`] wraps them into the shared [`Corpus`] layer:
//! build → mutate (incremental `add`/`remove`) → snapshot (versioned,
//! checksummed persistence) → score (pruned top-k search and profiled
//! clustering matrices from one instance).  The [`shard`] module scales the
//! corpus out: [`ShardedCorpus`] hashes workflow ids across independent
//! shards with bit-identical scatter-gather top-k (plus per-shard snapshots
//! behind one manifest), and [`CorpusService`] serves concurrent searches
//! and batch queries while churn write-locks only the owning shard.

#![deny(unsafe_code)]

pub mod annotation;
pub mod config;
pub mod corpus;
pub mod decompose;
pub mod ensemble;
pub mod extended;
pub mod mapping_step;
pub mod measures;
pub mod module_cmp;
pub mod normalize;
pub mod pipeline;
pub mod prior_work;
pub mod profile;
pub mod shard;
pub mod stacking;

pub use annotation::{bag_of_tags_similarity, bag_of_words_similarity};
pub use config::{MeasureKind, Normalization, Preprocessing, SimilarityConfig};
pub use corpus::{Corpus, CorpusOrigin, SnapshotError};
pub use ensemble::Ensemble;
pub use extended::{
    FrequentSetSimilarity, LabelVectorSimilarity, McsConfig, McsSimilarity, Measure,
    WlKernelConfig, WlKernelSimilarity,
};
pub use mapping_step::{module_similarity_matrix, ModuleMappingOutcome};
pub use module_cmp::{ComparisonMethod, ModuleComparisonScheme};
pub use pipeline::{SimilarityReport, WorkflowSimilarity};
pub use prior_work::{prior_approaches, PriorApproach};
pub use profile::{
    ClassPairTable, ModuleProfile, PreparedQuery, ProfiledMeasure, QueryFeatures, WorkflowProfile,
};
pub use shard::{
    CorpusService, DegradedSearch, SearchParallelism, ShardOrigin, ShardSnapshotError,
    ShardedCorpus,
};
pub use stacking::{learn_weights, weight_grid, LearnedWeights, RankEnsemble};
