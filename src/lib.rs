//! # wfsim — similarity search for scientific workflows
//!
//! A from-scratch Rust reproduction of *Starlinger, Brancotte,
//! Cohen-Boulakia, Leser: "Similarity Search for Scientific Workflows",
//! PVLDB 7(12), 2014*.
//!
//! This facade crate re-exports the subsystem crates so that applications can
//! depend on a single package:
//!
//! | module | contents |
//! |--------|----------|
//! | [`model`] | workflow data model: modules, datalinks, DAG algorithms, serialization |
//! | [`text`] | tokenization, stop words, Levenshtein, Jaccard |
//! | [`matching`] | greedy / maximum-weight / non-crossing module mapping |
//! | [`ged`] | label-aware graph edit distance with time budgets |
//! | [`repo`] | repository storage, repository-derived knowledge, top-k search |
//! | [`sim`] | the similarity framework: module comparison schemes, topological measures, normalization, ensembles, rank aggregation, extended Table-1 measures, and the shared [`Corpus`] layer (profiles + inverted index + snapshots) |
//! | [`cluster`] | workflow clustering: similarity matrices, hierarchical / threshold / k-medoids clustering, duplicate detection, quality metrics |
//! | [`gold`] | gold-standard machinery: Likert ratings, consensus ranking, evaluation metrics, significance tests |
//! | [`corpus`] | synthetic Taverna-like / Galaxy-like corpora and the simulated expert panel |
//!
//! See the `examples/` directory for end-to-end usage and the repository
//! `README.md` for the crate map, build commands, and how to run the
//! `fig*` / `wfsim_*` experiment binaries that reproduce the paper's tables
//! and figures.
//!
//! ## Quickstart
//!
//! ```
//! use wfsim::model::{WorkflowBuilder, ModuleType};
//! use wfsim::sim::{SimilarityConfig, WorkflowSimilarity};
//!
//! let a = WorkflowBuilder::new("a")
//!     .title("BLAST protein search")
//!     .module("fetch_sequence", ModuleType::WsdlService, |m| {
//!         m.service("ebi.ac.uk", "fetch_fasta", "http://ebi.ac.uk/ws")
//!     })
//!     .module("run_blast", ModuleType::WsdlService, |m| {
//!         m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
//!     })
//!     .link("fetch_sequence", "run_blast")
//!     .build()
//!     .unwrap();
//!
//! let b = WorkflowBuilder::new("b")
//!     .title("Protein BLAST with report")
//!     .module("get_sequence", ModuleType::WsdlService, |m| {
//!         m.service("ebi.ac.uk", "fetch_fasta", "http://ebi.ac.uk/ws")
//!     })
//!     .module("blast_search", ModuleType::WsdlService, |m| {
//!         m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
//!     })
//!     .module("render_report", ModuleType::BeanshellScript, |m| m.script("print(hits)"))
//!     .link("get_sequence", "blast_search")
//!     .link("blast_search", "render_report")
//!     .build()
//!     .unwrap();
//!
//! let measure = WorkflowSimilarity::new(SimilarityConfig::module_sets_default());
//! let sim = measure.similarity(&a, &b);
//! assert!(sim > 0.3 && sim <= 1.0);
//! ```

#![deny(unsafe_code)]

/// The workflow data model (re-export of [`wf_model`]).
pub use wf_model as model;

/// Text preprocessing and string similarity (re-export of [`wf_text`]).
pub use wf_text as text;

/// Module mapping algorithms (re-export of [`wf_matching`]).
pub use wf_matching as matching;

/// Graph edit distance (re-export of [`wf_ged`]).
pub use wf_ged as ged;

/// Repository and repository-derived knowledge (re-export of [`wf_repo`]).
pub use wf_repo as repo;

/// The similarity framework (re-export of [`wf_sim`]).
pub use wf_sim as sim;

/// Workflow clustering and duplicate detection (re-export of [`wf_cluster`]).
pub use wf_cluster as cluster;

/// Gold-standard and evaluation machinery (re-export of [`wf_gold`]).
pub use wf_gold as gold;

/// Synthetic corpora and simulated expert panel (re-export of [`wf_corpus`]).
pub use wf_corpus as corpus;

/// The fault-tolerant network serving front end (re-export of
/// [`wf_serve`]): framed binary protocol, per-request deadlines with
/// degraded partial results, admission control with load shedding, a
/// retrying client, and a deterministic fault-injection harness.
pub use wf_serve as serve;

/// The shared corpus layer: workflows + profiles + inverted index, built
/// once and consumed by search, clustering and the experiment binaries,
/// with incremental `add`/`remove` and snapshot persistence.
pub use wf_sim::Corpus;

/// The sharded serving layer: a corpus whose workflow ids hash across
/// independent shards, with bit-identical scatter-gather top-k, per-shard
/// snapshots behind one manifest, and a `RwLock`-per-shard concurrent
/// service ([`CorpusService`]) with batch queries.
pub use wf_sim::{CorpusService, ShardedCorpus};
