//! # wf-model — the scientific workflow data model
//!
//! This crate implements the data model used throughout the reproduction of
//! *Starlinger et al., "Similarity Search for Scientific Workflows", PVLDB
//! 7(12), 2014*.
//!
//! A scientific workflow is modelled, exactly as in Section 1 of the paper,
//! as a directed acyclic graph (DAG): data processing [`Module`]s are the
//! nodes, [`Datalink`]s are the edges, and the [`Workflow`] as a whole carries
//! repository [`Annotations`] (title, free-text description, keyword tags,
//! author).  Each module has a set of attributes — a label, a module type, a
//! textual description, an optional script body, web-service related
//! properties (authority, service name, service URI) and a bag of static
//! parameters — from which module-level similarity is computed by the
//! `wf-sim` crate.
//!
//! Besides the plain data types this crate provides:
//!
//! * [`graph`] — graph algorithms needed by the similarity framework:
//!   topological sorting, source/sink detection, enumeration of all
//!   source-to-sink paths (used by the *Path Sets* measure), reachability,
//!   transitive reduction (used by the *Importance Projection*), and DAG
//!   validation.
//! * [`builder`] — an ergonomic builder for constructing workflows in tests,
//!   examples and the synthetic corpus generator.
//! * [`format`](mod@format) — a small, dependency-free, line-oriented text format for
//!   workflows ("wfl"), standing in for the custom graph format into which
//!   the paper converted myExperiment RDF and Galaxy JSON.
//! * [`json`] — serde/JSON (de)serialization of whole workflows and corpora.
//! * [`validate`](mod@validate) — structural validation with precise error reporting.
//! * [`stats`] — per-workflow statistics used by the corpus-statistics
//!   experiment.
//!
//! ## Quick example
//!
//! ```
//! use wf_model::{builder::WorkflowBuilder, ModuleType};
//!
//! let wf = WorkflowBuilder::new("wf-1")
//!     .title("KEGG pathway analysis")
//!     .description("Fetches a KEGG pathway and extracts gene identifiers")
//!     .tag("kegg")
//!     .tag("pathway")
//!     .module("get_pathway", ModuleType::WsdlService, |m| {
//!         m.service("kegg.jp", "get_pathway_by_id", "http://kegg.jp/ws")
//!     })
//!     .module("extract_genes", ModuleType::BeanshellScript, |m| {
//!         m.script("return pathway.genes;")
//!     })
//!     .link("get_pathway", "extract_genes")
//!     .build()
//!     .expect("valid workflow");
//!
//! assert_eq!(wf.module_count(), 2);
//! assert_eq!(wf.graph().sources().len(), 1);
//! ```

#![deny(unsafe_code)]

pub mod attribute;
pub mod builder;
pub mod datalink;
pub mod format;
pub mod graph;
pub mod json;
pub mod module;
pub mod stats;
pub mod validate;
pub mod workflow;

pub use attribute::{AttributeKey, AttributeValue};
pub use builder::{ModuleBuilder, WorkflowBuilder};
pub use datalink::Datalink;
pub use graph::WorkflowGraph;
pub use module::{Module, ModuleId, ModuleType};
pub use stats::{CorpusStats, WorkflowStats};
pub use validate::{validate, ValidationError};
pub use workflow::{Annotations, Workflow, WorkflowId};
