//! # wf-cluster — clustering scientific workflows by similarity
//!
//! The paper's introduction motivates similarity measures with repository
//! management tasks beyond ranked retrieval: "the detection of functionally
//! equivalent workflows, grouping of workflows into functional clusters,
//! workflow retrieval, or the use of existing workflows in the design of
//! novel workflows" (Section 1), and several of the compared prior studies
//! (Santos et al. \[33\], Silva et al. \[34\], Jung et al. \[21\]) evaluate
//! their measures through clustering.  This crate provides that use case on
//! top of the `wf-sim` measures:
//!
//! * [`matrix`] — the pairwise similarity matrix of a workflow collection
//!   under any [`wf_sim::Measure`], computed sequentially or on several
//!   threads.
//! * [`clustering`] — the [`Clustering`] type: an assignment of workflows to
//!   clusters, convertible between assignment-vector and group-list form.
//! * [`hierarchical`] — agglomerative clustering with single, complete or
//!   average linkage, producing a full dendrogram that can be cut at a
//!   similarity threshold or at a target cluster count.
//! * [`threshold`] — connected-component clustering at a similarity
//!   threshold and near-duplicate detection (the "functionally equivalent
//!   workflows" task).
//! * [`kmedoids`](mod@kmedoids) — k-medoids (PAM-style) partitioning for a fixed number
//!   of clusters.
//! * [`quality`] — external cluster quality metrics against the latent
//!   ground truth of the synthetic corpus (purity, Rand index, adjusted
//!   Rand index, normalized mutual information).
//!
//! # Example
//!
//! ```
//! use wf_cluster::{hierarchical_clustering, Linkage, PairwiseSimilarities};
//! use wf_model::{builder::WorkflowBuilder, ModuleType};
//! use wf_sim::{SimilarityConfig, WorkflowSimilarity};
//!
//! let chain = |id: &str, labels: &[&str]| {
//!     let mut b = WorkflowBuilder::new(id);
//!     for l in labels {
//!         b = b.module(*l, ModuleType::WsdlService, |m| m);
//!     }
//!     for w in labels.windows(2) {
//!         b = b.link(w[0], w[1]);
//!     }
//!     b.build().unwrap()
//! };
//! let workflows = vec![
//!     chain("a", &["fetch", "blast", "render"]),
//!     chain("b", &["fetch", "blast", "plot"]),
//!     chain("c", &["parse", "cluster"]),
//!     chain("d", &["parse", "cluster", "plot"]),
//! ];
//!
//! let measure = WorkflowSimilarity::new(SimilarityConfig::best_module_sets());
//! let matrix = PairwiseSimilarities::compute(&workflows, &measure);
//! let clusters = hierarchical_clustering(&matrix, Linkage::Average).cut_k(2);
//!
//! assert_eq!(clusters.cluster_count(), 2);
//! assert!(clusters.same_cluster(0, 1));   // the two BLAST workflows
//! assert!(clusters.same_cluster(2, 3));   // the two clustering workflows
//! assert!(!clusters.same_cluster(0, 2));
//! ```

#![deny(unsafe_code)]

pub mod clustering;
pub mod hierarchical;
pub mod kmedoids;
pub mod matrix;
pub mod quality;
pub mod threshold;

pub use clustering::Clustering;
pub use hierarchical::{hierarchical_clustering, Dendrogram, Linkage, MergeStep};
pub use kmedoids::{kmedoids, KMedoidsResult};
pub use matrix::PairwiseSimilarities;
pub use quality::{adjusted_rand_index, normalized_mutual_information, purity, rand_index};
pub use threshold::{duplicate_pairs, threshold_clustering, DuplicatePair};
