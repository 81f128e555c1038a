//! # wf-repo — workflow repositories and repository-derived knowledge
//!
//! The paper's Section 2.1.5 introduces two uses of knowledge derived from
//! the repository as a whole, and Section 5.2 evaluates retrieval over the
//! full repository.  This crate provides that substrate:
//!
//! * [`repository`] — an in-memory workflow repository (the stand-in for
//!   myExperiment / Galaxy) with id lookup and corpus statistics.
//! * [`type_classes`] — the technical *type equivalence classes* (web
//!   service, script, local operation, …) following the categorisation of
//!   Wassink et al. \[37\].
//! * [`preselect`] — module-pair preselection strategies: all pairs (`ta`),
//!   strict type matching, and type-equivalence classes (`te`); includes the
//!   pair-count accounting behind the paper's reported 2.3× reduction in
//!   pairwise module comparisons.
//! * [`usage`] — module usage statistics across the repository (how often a
//!   label / service appears), the ingredient for automatic importance
//!   scoring.
//! * [`importance`] — importance scores for modules: the paper's manual
//!   type-based selection plus the frequency-based automatic scoring it
//!   names as future work.
//! * [`projection`] — the *Importance Projection* (`ip`) preprocessing:
//!   projecting a workflow onto its important modules while preserving the
//!   paths between them as edges of the transitive reduction.
//! * [`search`] — the exhaustive top-k search over a repository, generic
//!   over the similarity measure and run on every core (lock-free: per-chunk
//!   bounded heaps merged at the end), plus the shared top-k machinery.
//! * [`index`] — the pieces of the bound-pruned search path: a token
//!   inverted index over module labels, a best-bound-first frontier and
//!   the one prune-and-score scan, held to the exhaustive [`scan_top_k`]
//!   over a corpus-resident measure ([`CorpusScorer`]).
//! * [`mining`] — Apriori frequent itemset mining over module and tag sets,
//!   the repository-level ingredient of the *frequent module / tag set*
//!   similarity of Stoyanovich et al. \[36\].

#![deny(unsafe_code)]

pub mod importance;
pub mod index;
pub mod mining;
pub mod preselect;
pub mod projection;
pub mod repository;
pub mod search;
pub mod type_classes;
pub mod usage;

pub use importance::{ImportanceConfig, ImportanceScorer};
pub use index::{
    scan_ranked_candidates, scan_top_k, sort_best_bound_first, CorpusScorer, RankedCandidate,
    RankedFrontier, SearchStats, TokenIndex,
};
pub use mining::{mine_repository, mine_transactions, FrequentItemsets, ItemSource, MiningConfig};
pub use preselect::{
    candidate_pair_iter, candidate_pairs, pair_reduction_factor, PreselectionStrategy,
};
pub use projection::importance_projection;
pub use repository::Repository;
pub use search::{
    claim_units, merge_top_k, CancelToken, SearchEngine, SearchHit, SearchThreshold, TopK,
};
pub use type_classes::TypeClass;
pub use usage::UsageStatistics;
