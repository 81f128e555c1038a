//! Corpus-resident similarity profiles.
//!
//! The seed pipeline re-derives everything on every comparison: each call
//! to [`WorkflowSimilarity::similarity`] re-runs the Importance Projection,
//! re-lowercases labels, re-tokenizes descriptions and scripts, and
//! re-counts characters — even though none of those depend on the *pair*,
//! only on the individual workflow.  At repository scale (top-k retrieval
//! over the full corpus, O(n²) clustering matrices) that repeated work
//! dominates the runtime.
//!
//! This module precomputes all of it once per corpus:
//!
//! * [`ModuleProfile`] — per-module derived features: the lowercased label,
//!   character counts for every text attribute, interned token-id sets
//!   (over a corpus-wide [`StringPool`]) for label / description / script,
//!   the technical [`TypeClass`] and an attribute-presence bitmask.
//! * [`WorkflowProfile`] — the preprocessed (projected) workflow, its
//!   module profiles, the Path Sets decomposition and the annotation bags.
//! * [`ProfiledMeasure`] — an adapter that scores corpus pairs from the
//!   profiles while reproducing the configured [`WorkflowSimilarity`]
//!   *bit-identically*: every module comparison scheme (`pw0`, `pw3`,
//!   `pll`, `plm`, `gw1`, `gll`) and every measure (MS / PS / GE / BW / BT)
//!   yields exactly the scores of the unprofiled pipeline.
//!
//! For the Module Sets measure the adapter additionally provides a cheap
//! *admissible* upper bound on the pair score (length quotients for edit
//! distances, size quotients for token sets, exact matches for symbols,
//! relaxed to a one-to-one assignment cap and pushed through the monotone
//! Jaccard normalization), which lets the inverted-index search engine in
//! [`wf_repo::index`] prune most candidates without scoring them.
//!
//! Modules whose compared attributes are all identical form one *module
//! class*, and every module-pair value (similarity, bound, preselection
//! verdict) is a function of the two classes.  Corpora repeat modules
//! heavily (the 10k-workflow benchmark corpus holds ~47,000 module slots
//! in 4,054 classes), so each corpus keeps one live registry of its
//! classes next to its one token pool (`ClassRegistry`, shared by every
//! shard of the corpus), each shard keeps a flat per-slot class column,
//! and a search bounds its query against each live class once
//! ([`PreparedQuery`]) instead of against every module slot of every
//! shard.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

// Model-checkable lock shim, as for the shard locks (see `crate::shard`).
use shuttle_mini::sync::{RwLock, RwLockReadGuard};
use wf_matching::{map_with, SimilarityMatrix};
use wf_model::{AttributeKey, Module, ModuleId, Workflow, WorkflowId};
use wf_repo::{CorpusScorer, PreselectionStrategy, TypeClass};
use wf_text::levenshtein::{
    levenshtein_similarity, levenshtein_similarity_ci, levenshtein_similarity_with_lens,
};
use wf_text::{
    jaccard_index, jaccard_sorted, tokenize, CharSignature, FrozenInterner, StringPool, TokenBag,
    TokenIdSet,
};

use crate::config::{MeasureKind, Normalization, SimilarityConfig};
use crate::decompose::path_set;
use crate::measures::graph_edit::graph_edit_similarity;
use crate::measures::module_sets::module_sets_similarity;
use crate::measures::path_sets::path_sets_similarity;
use crate::module_cmp::{AttributeRule, ComparisonMethod};
use crate::normalize::jaccard_normalize;
use crate::pipeline::WorkflowSimilarity;

/// Derived, comparison-ready features of one module.
#[derive(Debug, Clone)]
pub struct ModuleProfile {
    /// The label lowercased once (Unicode `to_lowercase`, exactly as the
    /// case-insensitive comparison methods do per call).
    label_lower: String,
    /// Scalar-value counts, cached so no comparison ever re-walks a string.
    label_chars: u32,
    label_lower_chars: u32,
    desc_chars: u32,
    script_chars: u32,
    /// Interned distinct token ids of `tokenize(label/description/script)`.
    label_tokens: TokenIdSet,
    desc_tokens: TokenIdSet,
    script_tokens: TokenIdSet,
    /// Character-frequency signatures for the edit-distance upper bounds.
    label_sig: CharSignature,
    label_lower_sig: CharSignature,
    desc_sig: CharSignature,
    script_sig: CharSignature,
    /// The technical type equivalence class (for `te` preselection).
    type_class: TypeClass,
    /// Bit `i` set iff the module carries `AttributeKey::ALL[i]`.
    presence: u8,
}

impl ModuleProfile {
    /// True iff the module carries `key` (its presence bit is set).
    #[inline]
    fn has(&self, key: AttributeKey) -> bool {
        self.presence & (1 << key as u8) != 0
    }
}

/// The pool-independent derived features of one module: everything a
/// [`ModuleProfile`] holds, with raw token strings in place of the interned
/// token-id sets.  Extracted once per workflow, then *bound* to a pool —
/// mutably for corpus residents, frozen for external queries.
#[derive(Debug, Clone)]
struct ModuleFeatures {
    label_lower: String,
    label_chars: u32,
    label_lower_chars: u32,
    desc_chars: u32,
    script_chars: u32,
    label_tokens: Vec<String>,
    desc_tokens: Vec<String>,
    script_tokens: Vec<String>,
    label_sig: CharSignature,
    label_lower_sig: CharSignature,
    desc_sig: CharSignature,
    script_sig: CharSignature,
    type_class: TypeClass,
    presence: u8,
}

impl ModuleFeatures {
    fn extract(module: &Module) -> Self {
        let label_lower = module.label.to_lowercase();
        let mut presence = 0u8;
        for key in AttributeKey::ALL {
            if module.attribute(key).is_some() {
                presence |= 1 << key as u8;
            }
        }
        ModuleFeatures {
            label_chars: module.label.chars().count() as u32,
            label_lower_chars: label_lower.chars().count() as u32,
            desc_chars: text_chars(module.description.as_deref()),
            script_chars: text_chars(module.script.as_deref()),
            label_tokens: tokenize(&module.label),
            desc_tokens: tokenize(module.description.as_deref().unwrap_or("")),
            script_tokens: tokenize(module.script.as_deref().unwrap_or("")),
            label_sig: CharSignature::of(&module.label),
            label_lower_sig: CharSignature::of(&label_lower),
            desc_sig: CharSignature::of(module.description.as_deref().unwrap_or("")),
            script_sig: CharSignature::of(module.script.as_deref().unwrap_or("")),
            type_class: TypeClass::of(&module.module_type),
            label_lower,
            presence,
        }
    }

    /// Assembles the profile, interning the label, description and script
    /// token lists through `intern` *in that order* — the pool-id
    /// assignment order every profile build has always used, so mutable
    /// binding reproduces the exact pool a pre-refactor build produced.
    fn bind_with<F: FnMut(&[String]) -> TokenIdSet>(&self, mut intern: F) -> ModuleProfile {
        ModuleProfile {
            label_tokens: intern(&self.label_tokens),
            desc_tokens: intern(&self.desc_tokens),
            script_tokens: intern(&self.script_tokens),
            label_lower: self.label_lower.clone(),
            label_chars: self.label_chars,
            label_lower_chars: self.label_lower_chars,
            desc_chars: self.desc_chars,
            script_chars: self.script_chars,
            label_sig: self.label_sig.clone(),
            label_lower_sig: self.label_lower_sig.clone(),
            desc_sig: self.desc_sig.clone(),
            script_sig: self.script_sig.clone(),
            type_class: self.type_class,
            presence: self.presence,
        }
    }
}

/// The pool-independent half of one query workflow's profile:
/// preprocessing, tokenization, signatures, paths and annotation bags —
/// everything that does *not* depend on the pool the query is scored
/// against.
///
/// A search extracts the features once per query
/// ([`ProfiledMeasure::query_features`]), outside any lock, and then
/// *binds* them once to the corpus pool ([`ProfiledMeasure::prepare`],
/// [`ProfiledMeasure::bind_query`]): binding only resolves the token
/// strings against the frozen [`StringPool`], so no read path ever mutates
/// the pool.
#[derive(Debug, Clone)]
pub struct QueryFeatures {
    processed: Arc<Workflow>,
    modules: Vec<ModuleFeatures>,
    paths: Vec<Vec<ModuleId>>,
    word_bag: TokenBag,
    tag_bag: TokenBag,
    has_tags: bool,
}

impl QueryFeatures {
    /// Extracts every pool-independent feature of `wf` under the measure's
    /// configuration — the first half of profiling a resident, whose
    /// second is [`QueryFeatures::bind_into`].
    fn extract(inner: &WorkflowSimilarity, wf: &Workflow) -> Self {
        let config = inner.config();
        let processed = if config.measure.is_structural() {
            inner.preprocess(wf).into_owned()
        } else {
            wf.clone()
        };
        let modules = processed
            .modules
            .iter()
            .map(ModuleFeatures::extract)
            .collect();
        let paths = if config.measure == MeasureKind::PathSets {
            path_set(&processed, config.max_paths)
        } else {
            Vec::new()
        };
        QueryFeatures {
            word_bag: TokenBag::from_text(&wf.annotations.title_and_description()),
            tag_bag: TokenBag::from_tags(&wf.annotations.tags),
            has_tags: wf.annotations.has_tags(),
            processed: Arc::new(processed),
            modules,
            paths,
        }
    }

    /// The id of the (preprocessed) query workflow.
    pub fn id(&self) -> &WorkflowId {
        &self.processed.id
    }

    /// Binds the features against a *frozen* pool: known tokens resolve to
    /// their pool ids, unknown tokens get non-colliding ephemeral ids, so
    /// every set comparison against residents of that pool is bit-identical
    /// to what mutable interning would have produced.
    fn bind(&self, pool: &StringPool) -> WorkflowProfile {
        let mut interner = FrozenInterner::new(pool);
        let modules: Vec<ModuleProfile> = self
            .modules
            .iter()
            .map(|m| m.bind_with(|tokens| interner.resolve_set(tokens)))
            .collect();
        assemble_profile(
            self.processed.clone(),
            modules,
            self.paths.clone(),
            self.word_bag.clone(),
            self.tag_bag.clone(),
            self.has_tags,
        )
    }

    /// Binds the features by interning into a mutable pool — the
    /// resident-profiling path of [`ProfiledMeasure`].
    fn bind_into(self, pool: &mut StringPool) -> WorkflowProfile {
        let modules: Vec<ModuleProfile> = self
            .modules
            .iter()
            .map(|m| m.bind_with(|tokens| pool.intern_set(tokens)))
            .collect();
        assemble_profile(
            self.processed,
            modules,
            self.paths,
            self.word_bag,
            self.tag_bag,
            self.has_tags,
        )
    }
}

/// Joins bound module profiles with the remaining query features into the
/// final [`WorkflowProfile`].
fn assemble_profile(
    workflow: Arc<Workflow>,
    modules: Vec<ModuleProfile>,
    paths: Vec<Vec<ModuleId>>,
    word_bag: TokenBag,
    tag_bag: TokenBag,
    has_tags: bool,
) -> WorkflowProfile {
    let label_tokens = TokenIdSet::from_ids(
        modules
            .iter()
            .flat_map(|m| m.label_tokens.ids().iter().copied())
            .collect(),
    );
    WorkflowProfile {
        workflow,
        modules,
        paths,
        label_tokens,
        word_bag,
        tag_bag,
        has_tags,
    }
}

fn text_chars(text: Option<&str>) -> u32 {
    text.map_or(0, |t| t.chars().count() as u32)
}

/// All precomputed state of one corpus workflow.
#[derive(Debug, Clone)]
pub struct WorkflowProfile {
    /// The workflow *after* the configured preprocessing (Importance
    /// Projection applied once, not once per comparison).  Shared, not
    /// owned: binding a query's features clones the `Arc`, not the
    /// workflow (modules, labels, annotations).
    workflow: Arc<Workflow>,
    modules: Vec<ModuleProfile>,
    /// Source-to-sink path decomposition (only populated for Path Sets).
    paths: Vec<Vec<ModuleId>>,
    /// Distinct interned label tokens over all modules (the indexing key).
    label_tokens: TokenIdSet,
    /// Bag of Words bag over title + description of the *original* workflow.
    word_bag: TokenBag,
    /// Bag of Tags bag of the original workflow.
    tag_bag: TokenBag,
    has_tags: bool,
}

impl WorkflowProfile {
    /// The preprocessed workflow the profile scores from.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The per-module feature profiles (aligned with the preprocessed
    /// workflow's module list).
    pub fn modules(&self) -> &[ModuleProfile] {
        &self.modules
    }

    /// The distinct interned label tokens of this workflow.
    pub fn label_tokens(&self) -> &TokenIdSet {
        &self.label_tokens
    }

    /// Module `i` of the preprocessed workflow with its profile.
    #[inline]
    fn side(&self, i: usize) -> (&Module, &ModuleProfile) {
        (&self.workflow.modules[i], &self.modules[i])
    }
}

/// The token pool and the live module classes of one corpus: one per
/// standalone [`ProfiledMeasure`], and one shared by every shard of a
/// [`ShardedCorpus`](crate::ShardedCorpus) behind one lock.
///
/// Two modules share a class iff every compared attribute is identical
/// ([`module_class_key`]), so their similarity, bound and preselection
/// verdict against any third module are identical under every scheme.
/// Each live class keeps one representative module, its profile bound to
/// the pool, and a count of the module slots holding the class across the
/// corpus.  When the count falls to zero the class leaves the key
/// interner, drops its representative and frees its id for the next new
/// class, so ids, representatives and per-query tables stay bounded by the
/// live corpus under churn, whether a class was first seen by the build or
/// by a later add.
///
/// The lock is a leaf lock: nothing else is locked while it is held.
/// Writers ([`ProfiledMeasure::add_workflow`] /
/// [`ProfiledMeasure::remove_workflow`]) take it while holding their own
/// corpus mutably, so in a sharded corpus, while a search holds every
/// shard's guard, the registry cannot change under it.
#[derive(Default)]
pub(crate) struct ClassRegistry {
    pool: StringPool,
    /// Exact class key → class id, for live classes only.
    interner: BTreeMap<String, u32>,
    /// Indexed by class id; `None` marks a free id.
    reps: Vec<Option<ClassRep>>,
    /// Free ids, reused before new ones are minted.
    free: Vec<u32>,
}

/// One live module class: a representative module (as preprocessed) with
/// its profile, and the module slots of the corpus holding the class.
struct ClassRep {
    module: Module,
    profile: ModuleProfile,
    live: u32,
}

impl ClassRegistry {
    /// Counts one more module slot of `module`'s class, founding the class
    /// on a free id (or a new one) when it is not live.
    fn intern(&mut self, module: &Module, profile: &ModuleProfile) -> u32 {
        let key = module_class_key(module);
        if let Some(&class) = self.interner.get(&key) {
            let rep = self.reps[class as usize].as_mut();
            rep.expect("interned classes are live").live += 1;
            return class;
        }
        let rep = Some(ClassRep {
            module: module.clone(),
            profile: profile.clone(),
            live: 1,
        });
        let class = match self.free.pop() {
            Some(class) => {
                self.reps[class as usize] = rep;
                class
            }
            None => {
                self.reps.push(rep);
                (self.reps.len() - 1) as u32
            }
        };
        self.interner.insert(key, class);
        class
    }

    /// Counts one module slot of `class` less, freeing the id when it held
    /// the last one.
    fn release(&mut self, class: u32) {
        let slot = &mut self.reps[class as usize];
        let rep = slot.as_mut().expect("released classes are live");
        rep.live -= 1;
        if rep.live == 0 {
            self.interner.remove(&module_class_key(&rep.module));
            *slot = None;
            self.free.push(class);
        }
    }

    /// Every live class with its id.
    fn live(&self) -> impl Iterator<Item = (usize, &ClassRep)> {
        self.reps
            .iter()
            .enumerate()
            .filter_map(|(class, rep)| Some((class, rep.as_ref()?)))
    }
}

#[cfg(test)]
impl ClassRegistry {
    /// Class ids in use, live or free.
    pub(crate) fn id_count(&self) -> usize {
        self.reps.len()
    }

    /// The free ids, the next to be reused last.
    pub(crate) fn free_ids(&self) -> &[u32] {
        &self.free
    }

    /// True when some module slot of the corpus holds `class`.
    pub(crate) fn is_live(&self, class: u32) -> bool {
        self.reps[class as usize].is_some()
    }

    /// The keys of every live class, sorted.
    pub(crate) fn live_keys(&self) -> Vec<&str> {
        self.interner.keys().map(String::as_str).collect()
    }
}

/// The class id of every module slot of one corpus (one shard), CSR-style:
/// workflow `w`'s modules (aligned with its preprocessed module list)
/// occupy slots `starts[w]..starts[w + 1]`.  Derived state, built with the
/// profiles; adding or removing a workflow touches only its own slots.
struct ModuleClasses {
    starts: Vec<u32>,
    slot_class: Vec<u32>,
}

impl ModuleClasses {
    /// Appends one workflow's module slots, counting each in `registry`.
    fn push_workflow(&mut self, registry: &mut ClassRegistry, profile: &WorkflowProfile) {
        for (module, features) in profile.workflow.modules.iter().zip(&profile.modules) {
            self.slot_class.push(registry.intern(module, features));
        }
        self.starts.push(self.slot_class.len() as u32);
    }

    /// Drops one workflow's module slots, releasing each in `registry`;
    /// later workflows shift down one position (mirroring `Vec::remove`).
    fn remove_workflow(&mut self, registry: &mut ClassRegistry, workflow: usize) {
        let slots = self.slots(workflow);
        let removed = slots.len() as u32;
        for class in self.slot_class.drain(slots) {
            registry.release(class);
        }
        self.starts.remove(workflow + 1);
        for start in &mut self.starts[workflow + 1..] {
            *start -= removed;
        }
    }

    /// The module-slot range of a workflow.
    #[inline]
    fn slots(&self, workflow: usize) -> std::ops::Range<usize> {
        self.starts[workflow] as usize..self.starts[workflow + 1] as usize
    }

    /// The class id of every module of a workflow, in module order.
    #[inline]
    fn of(&self, workflow: usize) -> &[u32] {
        &self.slot_class[self.slots(workflow)]
    }

    /// The most module slots any one workflow holds.
    fn widest(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// A [`WorkflowSimilarity`] measure bound to a profiled corpus.
///
/// Scores pairs of corpus workflows (addressed by index or, through the
/// [`Measure`](crate::Measure) impl, by workflow id) from precomputed
/// profiles, producing bit-identical results to the wrapped pipeline.
pub struct ProfiledMeasure {
    inner: WorkflowSimilarity,
    /// The corpus's token pool and module classes (shared by every shard
    /// of a sharded corpus).
    registry: Arc<RwLock<ClassRegistry>>,
    ids: Vec<WorkflowId>,
    id_index: BTreeMap<WorkflowId, usize>,
    profiles: Vec<WorkflowProfile>,
    /// The class of every profiled module (derived from `profiles`, kept
    /// in sync by every mutation).
    classes: ModuleClasses,
}

impl ProfiledMeasure {
    /// Profiles `workflows` for the measure described by `config`.
    pub fn new(config: SimilarityConfig, workflows: &[Workflow]) -> Self {
        ProfiledMeasure::from_measure(WorkflowSimilarity::new(config), workflows)
    }

    /// Profiles `workflows` for an already constructed measure (e.g. one
    /// built with [`WorkflowSimilarity::with_usage`]) — the one-shard case
    /// of `ProfiledMeasure::build_shared`.
    pub fn from_measure(inner: WorkflowSimilarity, workflows: &[Workflow]) -> Self {
        ProfiledMeasure::build_shared(&inner, &[workflows])
            .pop()
            .expect("one measure per shard")
    }

    /// Profiles every shard's workflows into one shared [`ClassRegistry`]:
    /// one token pool for the whole corpus, every module class interned
    /// once.  Each shard keeps its own profiles and class column.
    pub(crate) fn build_shared(inner: &WorkflowSimilarity, shards: &[&[Workflow]]) -> Vec<Self> {
        let registry = Arc::new(RwLock::new(ClassRegistry::default()));
        let mut building = registry.write().expect("a new lock is not poisoned");
        let measures = shards
            .iter()
            .map(|workflows| {
                let mut classes = ModuleClasses {
                    starts: vec![0],
                    slot_class: Vec::new(),
                };
                let profiles: Vec<WorkflowProfile> = workflows
                    .iter()
                    .map(|wf| {
                        let profile =
                            QueryFeatures::extract(inner, wf).bind_into(&mut building.pool);
                        classes.push_workflow(&mut building, &profile);
                        profile
                    })
                    .collect();
                let ids: Vec<WorkflowId> = workflows.iter().map(|wf| wf.id.clone()).collect();
                ProfiledMeasure {
                    inner: inner.clone(),
                    registry: Arc::clone(&registry),
                    id_index: ids.iter().cloned().zip(0..).collect(),
                    ids,
                    profiles,
                    classes,
                }
            })
            .collect();
        drop(building);
        measures
    }

    /// The corpus registry, read-locked.
    fn registry(&self) -> RwLockReadGuard<'_, ClassRegistry> {
        self.registry.read().expect("class registry lock poisoned")
    }

    /// Profiles one more workflow (appended at the end of the corpus),
    /// returning its corpus index.  New tokens extend the shared pool;
    /// existing profiles are untouched, so the result scores exactly like a
    /// from-scratch rebuild over the extended corpus.  The features are
    /// extracted before the registry is write-locked.
    ///
    /// The caller must ensure the id is not already profiled (the corpus
    /// layer removes an existing workflow with the same id first); a
    /// duplicate would leave `index_of` pointing at the newest copy only.
    pub fn add_workflow(&mut self, wf: &Workflow) -> usize {
        let index = self.profiles.len();
        let features = QueryFeatures::extract(&self.inner, wf);
        let mut registry = self.registry.write().expect("class registry lock poisoned");
        let profile = features.bind_into(&mut registry.pool);
        self.classes.push_workflow(&mut registry, &profile);
        drop(registry);
        self.profiles.push(profile);
        self.ids.push(wf.id.clone());
        self.id_index.insert(wf.id.clone(), index);
        index
    }

    /// Forgets the workflow at a corpus index; later workflows shift down
    /// one position (mirroring `Vec::remove`).  Its last modules of a
    /// class free the class id.  Pool entries interned for the removed
    /// workflow are retained — stale ids score nothing because no
    /// surviving profile references them.
    ///
    /// # Panics
    /// Panics when `index >= self.len()` or the registry is poisoned, in
    /// both cases before anything is removed (and without poisoning it).
    pub fn remove_workflow(&mut self, index: usize) {
        assert!(
            index < self.len(),
            "workflow index {index} out of bounds for {} profiles",
            self.len()
        );
        let mut registry = self.registry.write().expect("class registry lock poisoned");
        self.classes.remove_workflow(&mut registry, index);
        drop(registry);
        let id = self.ids.remove(index);
        self.profiles.remove(index);
        self.id_index.remove(&id);
        for pos in self.id_index.values_mut() {
            if *pos > index {
                *pos -= 1;
            }
        }
    }

    /// The wrapped pipeline measure.
    pub fn inner(&self) -> &WorkflowSimilarity {
        &self.inner
    }

    /// The algorithm name in the paper's notation.
    pub fn name(&self) -> String {
        self.inner.name()
    }

    /// Runs `f` on the corpus-wide token pool (read-locked for the call).
    pub fn with_pool<R>(&self, f: impl FnOnce(&StringPool) -> R) -> R {
        f(&self.registry().pool)
    }

    /// Number of profiled workflows.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no workflow was profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The corpus index of a workflow id.
    pub fn index_of(&self, id: &WorkflowId) -> Option<usize> {
        self.id_index.get(id).copied()
    }

    /// The profile at a corpus index.
    pub fn profile(&self, index: usize) -> &WorkflowProfile {
        &self.profiles[index]
    }

    /// All profiles, in corpus order.
    pub fn profiles(&self) -> &[WorkflowProfile] {
        &self.profiles
    }

    /// All workflow ids, in corpus order.
    pub fn ids(&self) -> &[WorkflowId] {
        &self.ids
    }

    /// The similarity of two corpus workflows; inapplicable annotation
    /// pairs score 0 (mirroring [`WorkflowSimilarity::similarity`]).
    pub fn score_indexed(&self, query: usize, candidate: usize) -> f64 {
        self.score_opt_indexed(query, candidate).unwrap_or(0.0)
    }

    /// The similarity of two corpus workflows, `None` when the measure is
    /// inapplicable (mirroring [`WorkflowSimilarity::similarity_opt`]).
    pub fn score_opt_indexed(&self, query: usize, candidate: usize) -> Option<f64> {
        self.score_opt_profiles(&self.profiles[query], &self.profiles[candidate])
    }

    /// Extracts the pool-independent features of an external query — done
    /// once per query, then bound to the corpus pool with
    /// [`ProfiledMeasure::prepare`] or [`ProfiledMeasure::bind_query`].
    pub fn query_features(&self, wf: &Workflow) -> QueryFeatures {
        QueryFeatures::extract(&self.inner, wf)
    }

    /// Binds query features against the corpus pool *without mutating
    /// it*, producing a profile that scores against every resident exactly
    /// as a resident profile of the same workflow would.
    pub fn bind_query(&self, features: &QueryFeatures) -> WorkflowProfile {
        features.bind(&self.registry().pool)
    }

    /// Readies a query for a search of this corpus (every shard of it)
    /// under one read lock of the registry: binds the features to the
    /// corpus pool once and, for Module Sets, bounds every query module
    /// against every live class once — the table behind
    /// `ClassBounds::bound`.
    ///
    /// A pair the preselection vetoes holds `0.0`, as in the per-pair
    /// reference.  Each class's column maximum (its best bound over the
    /// query modules) is stored beside its row, so a candidate's column
    /// maxima cost one read per module.  Free ids get no row computed.
    /// The result describes the corpus as it is now: it must be used
    /// before any shard changes, which a search ensures by holding every
    /// shard's guard from before this call until its scan ends.
    pub fn prepare(&self, features: &QueryFeatures) -> PreparedQuery {
        let registry = self.registry();
        let profile = features.bind(&registry.pool);
        let config = self.inner.config();
        let table = (config.measure == MeasureKind::ModuleSets).then(|| {
            let query: Vec<(&Module, &ModuleProfile)> = (0..profile.modules.len())
                .map(|i| profile.side(i))
                .collect();
            let rules = config.module_scheme.rules();
            let na = query.len();
            let mut rows = vec![0.0; registry.reps.len() * na];
            let mut col_max = vec![0.0; registry.reps.len()];
            for (class, rep) in registry.live() {
                let b = (&rep.module, &rep.profile);
                let row = &mut rows[class * na..][..na];
                for (ub, &a) in row.iter_mut().zip(&query) {
                    if preselects(config.preselection, a, b) {
                        *ub = pair_upper_bound(rules, a, b);
                    }
                }
                col_max[class] = row.iter().fold(0.0f64, |max, &ub| max.max(ub));
            }
            ClassTable {
                normalization: config.normalization,
                na,
                rows,
                col_max,
            }
        });
        PreparedQuery {
            registry: Arc::clone(&self.registry),
            class_ids: registry.reps.len(),
            profile,
            table,
        }
    }

    /// The similarity of an externally profiled query (a
    /// [`ProfiledMeasure::bind_query`] result) and a corpus workflow;
    /// inapplicable annotation pairs score 0.
    pub fn score_profile(&self, query: &WorkflowProfile, candidate: usize) -> f64 {
        self.score_opt_profile(query, candidate).unwrap_or(0.0)
    }

    /// [`ProfiledMeasure::score_profile`] with the inapplicable case kept
    /// as `None`.
    pub fn score_opt_profile(&self, query: &WorkflowProfile, candidate: usize) -> Option<f64> {
        self.score_opt_profiles(query, &self.profiles[candidate])
    }

    /// The one scoring path behind every by-index and by-profile entry
    /// point: both sides are just profiles.
    fn score_opt_profiles(&self, pa: &WorkflowProfile, pb: &WorkflowProfile) -> Option<f64> {
        match self.inner.config().measure {
            MeasureKind::BagOfWords => {
                if pa.word_bag.is_empty() && pb.word_bag.is_empty() {
                    None
                } else {
                    Some(pa.word_bag.set_similarity(&pb.word_bag))
                }
            }
            MeasureKind::BagOfTags => {
                if !pa.has_tags || !pb.has_tags {
                    None
                } else {
                    Some(pa.tag_bag.set_similarity(&pb.tag_bag))
                }
            }
            MeasureKind::ModuleSets | MeasureKind::PathSets | MeasureKind::GraphEdit => {
                let (pa, pb) = self.canonical_order(pa, pb);
                Some(self.structural_score_pair(pa, pb, |i, j| {
                    self.pair_similarity(pa.side(i), pb.side(j))
                }))
            }
        }
    }

    /// [`ProfiledMeasure::score_profile`] of a prepared query, with every
    /// module pair's exact similarity looked up in, or added to, a
    /// per-query memo keyed by (query module, candidate module class) —
    /// bit-identical, because a pair similarity is a function of the two
    /// modules' classes.  Class ids are corpus-wide, so one memo
    /// ([`ProfiledMeasure::pair_memo`]) serves every shard of the corpus.
    pub(crate) fn score_profile_memo(
        &self,
        query: &PreparedQuery,
        candidate: usize,
        memo: &mut PairMemo,
    ) -> f64 {
        let query = &query.profile;
        if !self.inner.config().measure.is_structural() {
            return self.score_profile(query, candidate);
        }
        let resident = &self.profiles[candidate];
        let classes = self.classes.of(candidate);
        let swapped = self.swaps_canonically(query, resident);
        let (pa, pb) = if swapped {
            (resident, query)
        } else {
            (query, resident)
        };
        self.structural_score_pair(pa, pb, |i, j| {
            // The query module and candidate module of pair (i, j), and
            // the orientation the pipeline compares them in.
            let (q, c, orientation) = if swapped { (j, i, 1) } else { (i, j, 0) };
            memo.get(orientation, classes[c] as usize, q, || {
                self.pair_similarity(pa.side(i), pb.side(j))
            })
        })
    }

    /// The registry this corpus shares with the other shards of its corpus.
    #[cfg(test)]
    pub(crate) fn class_registry(&self) -> &Arc<RwLock<ClassRegistry>> {
        &self.registry
    }

    /// The class id of every module of the workflow at `index`.
    #[cfg(test)]
    pub(crate) fn classes_of(&self, index: usize) -> &[u32] {
        self.classes.of(index)
    }

    /// An empty scoring memo for a query prepared over this corpus, to
    /// share among every shard of it (see
    /// [`ProfiledMeasure::score_profile_memo`]); annotation measures
    /// compare no modules and get an empty one.
    pub(crate) fn pair_memo(&self, query: &PreparedQuery) -> PairMemo {
        assert!(
            Arc::ptr_eq(&query.registry, &self.registry),
            "a query prepared for another corpus"
        );
        let measure = self.inner.config().measure;
        if !measure.is_structural() {
            return PairMemo::new(0, 0, 0);
        }
        // Graph Edit may put the candidate first, which compares the pair
        // the other way round: no symmetry is assumed, so that orientation
        // gets entries of its own.
        let orientations = if measure == MeasureKind::GraphEdit {
            2
        } else {
            1
        };
        PairMemo::new(query.class_ids, query.profile.modules.len(), orientations)
    }

    /// An admissible upper bound on [`ProfiledMeasure::score_profile`] for
    /// the Module Sets measure, every module pair bounded afresh; `None`
    /// for measures without a cheap bound (Path Sets, Graph Edit,
    /// annotations), whose candidates are then all scored.  Pass a
    /// resident's own [`ProfiledMeasure::profile`] to bound two corpus
    /// workflows.
    pub fn upper_bound_profile(&self, query: &WorkflowProfile, candidate: usize) -> Option<f64> {
        let config = self.inner.config();
        if config.measure != MeasureKind::ModuleSets {
            return None;
        }
        Some(self.module_sets_upper_bound(query, candidate, config.normalization))
    }

    /// The one canonical-pair-order rule of the pipeline: Graph Edit puts
    /// the smaller preprocessed workflow first, every other measure keeps
    /// the given order.  Both the profile path ([`canonical_order`]) and
    /// the class-table index path share this predicate — the bit-exactness
    /// of the two paths depends on them never diverging.
    ///
    /// [`canonical_order`]: ProfiledMeasure::canonical_order
    fn swaps_canonically(&self, pa: &WorkflowProfile, pb: &WorkflowProfile) -> bool {
        self.inner.config().measure == MeasureKind::GraphEdit && ged_key(pa) > ged_key(pb)
    }

    /// [`ProfiledMeasure::swaps_canonically`] applied to profile
    /// references.
    fn canonical_order<'a>(
        &self,
        pa: &'a WorkflowProfile,
        pb: &'a WorkflowProfile,
    ) -> (&'a WorkflowProfile, &'a WorkflowProfile) {
        if self.swaps_canonically(pa, pb) {
            (pb, pa)
        } else {
            (pa, pb)
        }
    }

    /// The structural pipeline over two (canonically ordered) profiles with
    /// a pluggable module-pair scorer `pair(i, j)` (module `i` of `pa` vs
    /// module `j` of `pb`): the exact per-pair path, the class-table
    /// lookup path and the per-query memo path share everything else.
    fn structural_score_pair<F>(
        &self,
        pa: &WorkflowProfile,
        pb: &WorkflowProfile,
        mut pair: F,
    ) -> f64
    where
        F: FnMut(usize, usize) -> f64,
    {
        let config = self.inner.config();
        let matrix = SimilarityMatrix::from_fn(
            pa.workflow.module_count(),
            pb.workflow.module_count(),
            |i, j| {
                if preselects(config.preselection, pa.side(i), pb.side(j)) {
                    pair(i, j)
                } else {
                    0.0
                }
            },
        );
        let mapping = map_with(config.mapping, &matrix);
        match config.measure {
            MeasureKind::ModuleSets => {
                module_sets_similarity(&pa.workflow, &pb.workflow, &mapping, config.normalization)
            }
            MeasureKind::PathSets => path_sets_similarity(
                &pa.workflow,
                &pb.workflow,
                &matrix,
                &pa.paths,
                &pb.paths,
                config.normalization,
            ),
            MeasureKind::GraphEdit => {
                graph_edit_similarity(
                    &pa.workflow,
                    &pb.workflow,
                    &mapping,
                    &config.ged_budget,
                    config.normalization,
                )
                .similarity
            }
            _ => unreachable!("annotation measures handled by score_opt_profiles"),
        }
    }

    /// `ModuleComparisonScheme::module_similarity`, scored from profiles:
    /// identical rule walk, identical accumulation order, identical
    /// floating-point results — just without re-deriving any text.
    fn pair_similarity(
        &self,
        (ma, fa): (&Module, &ModuleProfile),
        (mb, fb): (&Module, &ModuleProfile),
    ) -> f64 {
        let scheme = &self.inner.config().module_scheme;
        let mut weight_sum = 0.0;
        let mut score_sum = 0.0;
        for rule in scheme.rules() {
            match (fa.has(rule.key), fb.has(rule.key)) {
                (false, false) => continue,
                (true, false) | (false, true) => weight_sum += rule.weight,
                (true, true) => {
                    weight_sum += rule.weight;
                    score_sum += rule.weight * compare_rule(rule, ma, fa, mb, fb);
                }
            }
        }
        if weight_sum == 0.0 {
            0.0
        } else {
            (score_sum / weight_sum).clamp(0.0, 1.0)
        }
    }

    /// [`ProfiledMeasure::score_indexed`] with module-pair similarities
    /// answered from a precomputed [`ClassPairTable`] — bit-identical (the
    /// table holds exactly the values `pair_similarity` would produce) but
    /// free of per-cell text comparisons, which makes the O(n²) clustering
    /// matrix mostly table lookups.
    pub fn score_indexed_cached(
        &self,
        table: &ClassPairTable,
        query: usize,
        candidate: usize,
    ) -> f64 {
        if !self.inner.config().measure.is_structural() {
            return self.score_indexed(query, candidate);
        }
        let (mut ia, mut ib) = (query, candidate);
        if self.swaps_canonically(&self.profiles[ia], &self.profiles[ib]) {
            std::mem::swap(&mut ia, &mut ib);
        }
        let (ca, cb) = (self.classes.of(ia), self.classes.of(ib));
        self.structural_score_pair(&self.profiles[ia], &self.profiles[ib], |i, j| {
            table.score(ca[i], cb[j])
        })
    }

    /// Precomputes the similarity of every pair of live module classes of
    /// the corpus (every shard of it), from each class's representative
    /// module.
    ///
    /// The corpus-resident observation behind it: real repositories are
    /// full of re-uploaded variants, so the same (label, script, service)
    /// module recurs across many workflows — on the 250-workflow demo
    /// corpus, 1172 modules collapse to ~400 classes.  An O(classes²)
    /// table therefore replaces the O(Σ |A|·|B|) per-cell text comparisons
    /// of a full clustering matrix.  Both orientations are computed
    /// explicitly, so no symmetry assumption enters the bit-exactness
    /// argument.  Free class ids get no slot, so the table is O(live²).
    pub fn class_pair_table(&self) -> ClassPairTable {
        let registry = self.registry();
        let mut remap = vec![u32::MAX; registry.reps.len()];
        let representatives: Vec<(&Module, &ModuleProfile)> = registry
            .live()
            .enumerate()
            .map(|(slot, (class, rep))| {
                remap[class] = slot as u32;
                (&rep.module, &rep.profile)
            })
            .collect();
        let live = representatives.len();
        let mut scores = vec![0.0; live * live];
        for (a, &pa) in representatives.iter().enumerate() {
            for (b, &pb) in representatives.iter().enumerate() {
                scores[a * live + b] = self.pair_similarity(pa, pb);
            }
        }
        ClassPairTable {
            remap,
            count: live,
            scores,
        }
    }

    /// The Module Sets upper bound of one (query, candidate) pair, every
    /// module pair bounded afresh — the reference the class-table bound
    /// ([`ClassBounds::bound`]) must equal bit for bit.
    // lint:hot the per-pair reference bound: no search evaluates it, but
    // the bound tests and the benchmark's bound probe run it once per
    // (query, candidate) pair; stack buffers keep the common case
    // allocation-free (the >STACK_MODULES fallback may allocate).
    fn module_sets_upper_bound(
        &self,
        pa: &WorkflowProfile,
        candidate: usize,
        normalization: Normalization,
    ) -> f64 {
        let pb = &self.profiles[candidate];
        let (na, nb) = (pa.modules.len(), pb.modules.len());
        let config = self.inner.config();
        let rules = config.module_scheme.rules();
        let mut stack = [0.0f64; 2 * STACK_MODULES];
        let mut heap = Vec::new();
        let sides: &mut [f64] = if na + nb <= stack.len() {
            &mut stack[..na + nb]
        } else {
            heap.resize(na + nb, 0.0);
            &mut heap
        };
        // Relax the one-to-one mapping two ways: each mapped pair's weight
        // is at most its row's best pair bound *and* its column's best pair
        // bound (see `finish_bound`).  A vetoed pair bounds at 0.0, which
        // raises no maximum.
        let (row_best, col_best) = sides.split_at_mut(na);
        row_best.fill(0.0);
        col_best.fill(0.0);
        for (i, row) in row_best.iter_mut().enumerate() {
            for (j, col) in col_best.iter_mut().enumerate() {
                let (a, b) = (pa.side(i), pb.side(j));
                if !preselects(config.preselection, a, b) {
                    continue;
                }
                let ub = pair_upper_bound(rules, a, b);
                if ub > *row {
                    *row = ub;
                }
                if ub > *col {
                    *col = ub;
                }
            }
        }
        finish_bound(row_best, col_best, normalization)
    }

    /// This corpus's view of a prepared query's class table: the Module
    /// Sets bound of the query against each of its workflows; `None` for
    /// measures without a cheap bound (everything but Module Sets).
    pub(crate) fn class_bounds<'a>(&'a self, query: &'a PreparedQuery) -> Option<ClassBounds<'a>> {
        assert!(
            Arc::ptr_eq(&query.registry, &self.registry),
            "a query prepared for another corpus"
        );
        let table = query.table.as_ref()?;
        Some(ClassBounds {
            classes: &self.classes,
            table,
            sides: vec![0.0; table.na + self.classes.widest()],
        })
    }
}

/// A query ready to search one corpus: its features bound once to the
/// corpus pool and, for Module Sets, its bound against every live class
/// of the corpus ([`ProfiledMeasure::prepare`]).  Every shard of a sharded
/// corpus reads the same one.
pub struct PreparedQuery {
    /// The registry it was prepared under (checked against each reader's).
    registry: Arc<RwLock<ClassRegistry>>,
    /// Class ids in use (live or free) when prepared: a memo's span.
    class_ids: usize,
    profile: WorkflowProfile,
    table: Option<ClassTable>,
}

impl PreparedQuery {
    /// The query profile, bound to the corpus pool.
    pub fn profile(&self) -> &WorkflowProfile {
        &self.profile
    }

    /// Query module `i`'s pair bound against every class id (row-major by
    /// class) and each class's column maximum.
    #[cfg(test)]
    pub(crate) fn class_rows(&self) -> Option<(&[f64], &[f64])> {
        let table = self.table.as_ref()?;
        Some((&table.rows, &table.col_max))
    }
}

/// One query's Module Sets pair bounds against every class id of a
/// corpus, read by every shard's [`ClassBounds`].
struct ClassTable {
    normalization: Normalization,
    /// Query module count: the row stride of `rows`.
    na: usize,
    /// `rows[class * na + i]`: query module `i`'s pair bound against
    /// class `class` (`0.0` when vetoed, and for every free id).
    rows: Vec<f64>,
    /// `col_max[class]`: the largest of the class's row.
    col_max: Vec<f64>,
}

/// One query's Module Sets bound against every workflow of one corpus
/// (one shard), read from the query's [`ClassTable`].
///
/// [`ClassBounds::bound`] takes a candidate's row maxima from the rows of
/// its classes and its column maxima straight from the stored class
/// maxima, then runs the same [`finish_bound`] as the per-pair reference
/// ([`ProfiledMeasure::upper_bound_profile`]) over the same maxima, so the
/// two bounds are equal bit for bit.
pub(crate) struct ClassBounds<'m> {
    classes: &'m ModuleClasses,
    table: &'m ClassTable,
    /// Per-side maxima scratch, sized for the widest workflow.
    sides: Vec<f64>,
}

impl ClassBounds<'_> {
    /// The Module Sets upper bound of the query against the workflow at
    /// `candidate`.
    // lint:hot evaluated once per candidate of every bounded search:
    // table reads over the candidate's class ids, no allocation.
    pub(crate) fn bound(&mut self, candidate: usize) -> f64 {
        let classes = self.classes.of(candidate);
        let table = self.table;
        let na = table.na;
        let (row_best, col_best) = self.sides[..na + classes.len()].split_at_mut(na);
        row_best.fill(0.0);
        for (col, &class) in col_best.iter_mut().zip(classes) {
            let class = class as usize;
            *col = table.col_max[class];
            // `f64::max` equals the reference's `>` chain bit for bit: the
            // pair bounds are never NaN or -0.0.
            for (best, &ub) in row_best.iter_mut().zip(&table.rows[class * na..][..na]) {
                *best = best.max(ub);
            }
        }
        finish_bound(row_best, col_best, table.normalization)
    }
}

/// The Module Sets bound from the per-side maxima of the per-pair bounds:
/// `row_best[i]` is query module `i`'s best pair bound over the
/// candidate's modules, `col_best[j]` candidate module `j`'s best over the
/// query's.  Relaxing the one-to-one mapping two ways — each mapped pair's
/// weight is at most its row's maximum *and* its column's, and at most
/// `m = min(|A|, |B|)` pairs are mapped — bounds nnsim by the smaller of
/// the two "sum of the top m per-side maxima" estimates, capped at `m`,
/// which is pushed through the (monotone) normalization.  Both slices are
/// scratch, reordered here.  Shared by the per-pair reference and the
/// class-table bound.
///
/// The returned bound carries an m²·ε admissibility slack so it dominates
/// the exact score *in floating point*, not just mathematically — the
/// best-bound-first scans prune on the raw bound, and a 1-ulp shortfall
/// (different summation order than the mapping's) would silently drop an
/// exact top-k member.
// lint:hot once per bounded candidate; works in the caller's scratch.
fn finish_bound(row_best: &mut [f64], col_best: &mut [f64], normalization: Normalization) -> f64 {
    let (na, nb) = (row_best.len(), col_best.len());
    if na == 0 || nb == 0 {
        // Exact: an empty side forces an empty mapping.
        return match normalization {
            Normalization::None => 0.0,
            Normalization::SizeNormalized => jaccard_normalize(0.0, na, nb),
        };
    }
    let mapped = na.min(nb);
    // Admissibility slack: the bound and the exact score sum the same
    // per-pair values in different orders (top-m of per-side maxima vs the
    // mapping's pair order), so when they are mathematically equal the
    // bound can round up to m·m ulps below the score and an exact top-k
    // member would be pruned.  m²·ε of absolute slack on a sum of m
    // unit-bounded terms dominates both the reordering error and per-pair
    // rounding noise; `jaccard_normalize` is monotone in `nnsim` under IEEE
    // rounding, so pre-normalization slack suffices.
    let slack = (mapped * mapped) as f64 * f64::EPSILON;
    let nnsim_bound = (top_m_sum(row_best, mapped).min(top_m_sum(col_best, mapped)) + slack)
        .min(mapped as f64 + slack);
    match normalization {
        Normalization::None => nnsim_bound,
        Normalization::SizeNormalized => jaccard_normalize(nnsim_bound, na, nb),
    }
}

/// The per-pair reference bound keeps its per-side maxima on the stack up
/// to this many modules per side (the demo corpora top out well below it;
/// larger pairs fall back to a heap buffer).
const STACK_MODULES: usize = 64;

/// Exact module-pair similarities of one query, keyed by (orientation,
/// class, query module) and each computed on first use.  A flag per entry
/// marks what is known; no value doubles as a sentinel.
pub(crate) struct PairMemo {
    /// Query module count: the stride of one class's entries.
    na: usize,
    /// Entries per orientation.
    span: usize,
    values: Vec<f64>,
    known: Vec<bool>,
}

impl PairMemo {
    fn new(classes: usize, na: usize, orientations: usize) -> Self {
        let len = classes * na * orientations;
        PairMemo {
            na,
            span: classes * na,
            values: vec![0.0; len],
            known: vec![false; len],
        }
    }

    /// The memoized value of (orientation, class, query module), running
    /// `compute` the first time it is asked for.
    fn get(
        &mut self,
        orientation: usize,
        class: usize,
        query_module: usize,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let slot = orientation * self.span + class * self.na + query_module;
        if !self.known[slot] {
            self.values[slot] = compute();
            self.known[slot] = true;
        }
        self.values[slot]
    }
}

/// The dense class-pair similarity table of [`ProfiledMeasure::
/// class_pair_table`]: `score(a, b)` is exactly the module-pair scheme
/// similarity of any module of class `a` against any module of class `b`.
pub struct ClassPairTable {
    /// Class id → dense live slot (`u32::MAX` for free ids no surviving
    /// module carries — never looked up).
    remap: Vec<u32>,
    /// Number of live classes (the side length of `scores`).
    count: usize,
    scores: Vec<f64>,
}

impl ClassPairTable {
    /// The cached similarity of two module classes (interner ids).
    #[inline]
    pub fn score(&self, a: u32, b: u32) -> f64 {
        let (a, b) = (self.remap[a as usize], self.remap[b as usize]);
        self.scores[a as usize * self.count + b as usize]
    }

    /// Number of distinct live module classes covered.
    pub fn class_count(&self) -> usize {
        self.count
    }
}

/// The exact comparison identity of a module: its type plus every
/// attribute's presence and value — the complete input set of
/// `pair_similarity` (and of the preselection predicates) for any scheme.
/// Every variable-length field is length-prefixed, so the key is a
/// prefix-free encoding and distinct attribute splits cannot collide no
/// matter what bytes the (unvalidated, JSON-loadable) values contain.
fn module_class_key(module: &Module) -> String {
    let module_type = format!("{:?}", module.module_type);
    let mut key = String::with_capacity(64);
    // Writing to a `String` cannot fail.
    let _ = write!(key, "{}:{module_type}", module_type.len());
    for attr in AttributeKey::ALL {
        match module.attribute(attr) {
            Some(value) => {
                let value = value.as_str();
                let _ = write!(key, "+{}:{value}", value.len());
            }
            None => key.push('-'),
        }
    }
    key
}

/// The canonical Graph Edit ordering key of the pipeline, computed on the
/// preprocessed profile workflow.
fn ged_key(p: &WorkflowProfile) -> (usize, usize, &WorkflowId) {
    (
        p.workflow.module_count(),
        p.workflow.link_count(),
        &p.workflow.id,
    )
}

/// Sum of the `m` largest values, added largest first.
///
/// An insertion sort moves the `m` largest values, in descending order,
/// to the front of `values` (the rest is left in any order), then sums
/// that prefix.  For values that are never NaN or -0.0 — per-side maxima
/// of pair bounds in `[0, 1]` — the prefix is the same sequence of bits a
/// full descending sort yields, so the sum is too.
// lint:hot twice per bounded candidate; sorts in place.
fn top_m_sum(values: &mut [f64], m: usize) -> f64 {
    let m = m.min(values.len());
    let mut filled = 0;
    for next in (0..values.len()).filter(|_| m > 0) {
        let value = values[next];
        if filled == m {
            if value <= values[m - 1] {
                continue;
            }
            // The smallest kept value drops out.
            filled -= 1;
        }
        let mut at = filled;
        while at > 0 && values[at - 1] < value {
            values[at] = values[at - 1];
            at -= 1;
        }
        values[at] = value;
        filled += 1;
    }
    values[..m].iter().sum()
}

/// One rule's exact comparison, reading every derived feature from the
/// profiles instead of re-deriving it.
fn compare_rule(
    rule: &AttributeRule,
    ma: &Module,
    fa: &ModuleProfile,
    mb: &Module,
    fb: &ModuleProfile,
) -> f64 {
    fn value(m: &Module, key: AttributeKey) -> wf_model::AttributeValue<'_> {
        m.attribute(key)
            .expect("presence was checked against the same accessor")
    }
    match rule.method {
        ComparisonMethod::Exact | ComparisonMethod::ExactIgnoreCase => exact_rule(rule, ma, mb),
        ComparisonMethod::Levenshtein => match rule.key {
            AttributeKey::Label => levenshtein_similarity_with_lens(
                &ma.label,
                fa.label_chars as usize,
                &mb.label,
                fb.label_chars as usize,
            ),
            AttributeKey::Description => levenshtein_similarity_with_lens(
                ma.description.as_deref().unwrap_or(""),
                fa.desc_chars as usize,
                mb.description.as_deref().unwrap_or(""),
                fb.desc_chars as usize,
            ),
            AttributeKey::Script => levenshtein_similarity_with_lens(
                ma.script.as_deref().unwrap_or(""),
                fa.script_chars as usize,
                mb.script.as_deref().unwrap_or(""),
                fb.script_chars as usize,
            ),
            _ => levenshtein_similarity(value(ma, rule.key).as_str(), value(mb, rule.key).as_str()),
        },
        ComparisonMethod::LevenshteinIgnoreCase => match rule.key {
            AttributeKey::Label => levenshtein_similarity_with_lens(
                &fa.label_lower,
                fa.label_lower_chars as usize,
                &fb.label_lower,
                fb.label_lower_chars as usize,
            ),
            _ => levenshtein_similarity_ci(
                value(ma, rule.key).as_str(),
                value(mb, rule.key).as_str(),
            ),
        },
        ComparisonMethod::TokenJaccard => match rule.key {
            AttributeKey::Label => fa.label_tokens.jaccard(&fb.label_tokens),
            AttributeKey::Description => fa.desc_tokens.jaccard(&fb.desc_tokens),
            AttributeKey::Script => fa.script_tokens.jaccard(&fb.script_tokens),
            _ => jaccard_index(
                &tokenize(value(ma, rule.key).as_str()),
                &tokenize(value(mb, rule.key).as_str()),
            ),
        },
    }
}

/// The `Exact` / `ExactIgnoreCase` comparison of one rule — shared by the
/// exact scorer ([`compare_rule`]) and the bound ([`rule_upper_bound`]),
/// which uses the exact value as its (tight) bound.
fn exact_rule(rule: &AttributeRule, ma: &Module, mb: &Module) -> f64 {
    fn value(m: &Module, key: AttributeKey) -> wf_model::AttributeValue<'_> {
        m.attribute(key)
            .expect("presence was checked against the same accessor")
    }
    let (a, b) = (value(ma, rule.key), value(mb, rule.key));
    let equal = match rule.method {
        ComparisonMethod::Exact => a.as_str() == b.as_str(),
        ComparisonMethod::ExactIgnoreCase => a.as_str().eq_ignore_ascii_case(b.as_str()),
        _ => unreachable!("exact_rule only handles the Exact methods"),
    };
    if equal {
        1.0
    } else {
        0.0
    }
}

/// `PreselectionStrategy::allows`, answered from cached features of two
/// (module, profile) sides — the one predicate behind exact scoring, the
/// per-pair bound and the class table.
#[inline]
fn preselects(
    preselection: PreselectionStrategy,
    (ma, fa): (&Module, &ModuleProfile),
    (mb, fb): (&Module, &ModuleProfile),
) -> bool {
    match preselection {
        PreselectionStrategy::AllPairs => true,
        PreselectionStrategy::StrictType => ma.module_type == mb.module_type,
        PreselectionStrategy::TypeEquivalence => fa.type_class == fb.type_class,
    }
}

/// A cheap admissible upper bound on one module pair's scheme similarity:
/// the same presence-weighted average, with each rule's comparison replaced
/// by a dominating constant-time estimate.
// lint:hot inner loop of the per-pair reference bound (and of the class
// table build); wfsim_lint forbids lock acquisition and heap allocation.
fn pair_upper_bound(
    rules: &[AttributeRule],
    a: (&Module, &ModuleProfile),
    b: (&Module, &ModuleProfile),
) -> f64 {
    let mut weight_sum = 0.0;
    let mut score_sum = 0.0;
    for rule in rules {
        match (a.1.has(rule.key), b.1.has(rule.key)) {
            (false, false) => continue,
            (true, false) | (false, true) => weight_sum += rule.weight,
            (true, true) => {
                weight_sum += rule.weight;
                score_sum += rule.weight * rule_upper_bound(rule, a, b);
            }
        }
    }
    if weight_sum == 0.0 {
        0.0
    } else {
        (score_sum / weight_sum).clamp(0.0, 1.0)
    }
}

/// One rule's dominating estimate.
// lint:hot per-rule body of pair_upper_bound; alloc/lock-free.
fn rule_upper_bound(
    rule: &AttributeRule,
    (ma, fa): (&Module, &ModuleProfile),
    (mb, fb): (&Module, &ModuleProfile),
) -> f64 {
    match rule.method {
        // Exact comparisons *are* cheap: the bound is the exact value.
        ComparisonMethod::Exact | ComparisonMethod::ExactIgnoreCase => exact_rule(rule, ma, mb),
        // Normalized edit distance is bounded through the character
        // signatures: `d >= max(|la - lb|, L1(histograms) / 2)`.
        ComparisonMethod::Levenshtein => match rule.key {
            AttributeKey::Label => fa.label_sig.similarity_upper_bound(&fb.label_sig),
            AttributeKey::Description => fa.desc_sig.similarity_upper_bound(&fb.desc_sig),
            AttributeKey::Script => fa.script_sig.similarity_upper_bound(&fb.script_sig),
            _ => 1.0,
        },
        ComparisonMethod::LevenshteinIgnoreCase => match rule.key {
            AttributeKey::Label => fa
                .label_lower_sig
                .similarity_upper_bound(&fb.label_lower_sig),
            _ => 1.0,
        },
        // The merge over interned id sets is already cheap: the "bound" is
        // the exact token Jaccard (same kernel TokenIdSet::jaccard uses).
        ComparisonMethod::TokenJaccard => match rule.key {
            AttributeKey::Label => jaccard_sorted(fa.label_tokens.ids(), fb.label_tokens.ids()),
            AttributeKey::Description => jaccard_sorted(fa.desc_tokens.ids(), fb.desc_tokens.ids()),
            AttributeKey::Script => jaccard_sorted(fa.script_tokens.ids(), fb.script_tokens.ids()),
            _ => 1.0,
        },
    }
}

impl crate::extended::Measure for ProfiledMeasure {
    fn measure_name(&self) -> String {
        self.inner.name()
    }

    /// Scores by corpus index when both ids are profiled; out-of-corpus
    /// workflows fall back to the unprofiled pipeline, so the adapter is a
    /// drop-in [`Measure`](crate::Measure) anywhere.
    fn measure_opt(&self, a: &Workflow, b: &Workflow) -> Option<f64> {
        match (self.index_of(&a.id), self.index_of(&b.id)) {
            (Some(i), Some(j)) => self.score_opt_indexed(i, j),
            _ => self.inner.similarity_opt(a, b),
        }
    }
}

impl CorpusScorer for ProfiledMeasure {
    fn corpus_len(&self) -> usize {
        self.profiles.len()
    }

    fn workflow_id(&self, index: usize) -> &WorkflowId {
        &self.ids[index]
    }

    fn score(&self, query: usize, candidate: usize) -> f64 {
        self.score_indexed(query, candidate)
    }

    fn label_token_ids(&self, index: usize) -> &[u32] {
        self.profiles[index].label_tokens.ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Preprocessing;
    use crate::extended::Measure;
    use crate::module_cmp::ModuleComparisonScheme;
    use wf_model::{builder::WorkflowBuilder, ModuleType};

    fn corpus() -> Vec<Workflow> {
        let mut wfs = Vec::new();
        let blast = |id: &str, render: &str| {
            WorkflowBuilder::new(id)
                .title(format!("BLAST search {id}"))
                .description("protein sequence search")
                .tag("blast")
                .tag("protein")
                .module("fetch_sequence", ModuleType::WsdlService, |m| {
                    m.service("ebi.ac.uk", "fetch", "http://ebi.ac.uk/fetch")
                })
                .module("run_blast", ModuleType::WsdlService, |m| {
                    m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
                })
                .module("split_ids", ModuleType::LocalOperation, |m| m)
                .module(render, ModuleType::BeanshellScript, |m| {
                    m.script("plot(hits); export(hits)")
                })
                .link("fetch_sequence", "run_blast")
                .link("run_blast", "split_ids")
                .link("split_ids", render)
                .build()
                .unwrap()
        };
        wfs.push(blast("b1", "render_report"));
        wfs.push(blast("b2", "render_hits"));
        wfs.push(
            WorkflowBuilder::new("kegg")
                .title("KEGG pathway analysis")
                .tag("kegg")
                .module("get_pathway", ModuleType::WsdlService, |m| {
                    m.service("kegg.jp", "get_pathway_by_id", "http://kegg.jp/ws")
                })
                .module("extract_genes", ModuleType::BeanshellScript, |m| {
                    m.script("return pathway.genes;")
                })
                .link("get_pathway", "extract_genes")
                .build()
                .unwrap(),
        );
        wfs.push(WorkflowBuilder::new("empty").build().unwrap());
        wfs
    }

    fn all_scheme_configs() -> Vec<SimilarityConfig> {
        let schemes = [
            ModuleComparisonScheme::pw0(),
            ModuleComparisonScheme::pw3(),
            ModuleComparisonScheme::pll(),
            ModuleComparisonScheme::plm(),
            ModuleComparisonScheme::gw1(),
            ModuleComparisonScheme::gll(),
        ];
        let mut configs = Vec::new();
        for scheme in schemes {
            configs.push(SimilarityConfig::new(
                MeasureKind::ModuleSets,
                scheme.clone(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            ));
            configs.push(SimilarityConfig::new(
                MeasureKind::ModuleSets,
                scheme,
                PreselectionStrategy::TypeEquivalence,
                Preprocessing::ImportanceProjection,
            ));
        }
        configs
    }

    #[test]
    fn profiled_scores_are_bit_identical_for_every_scheme() {
        let wfs = corpus();
        for config in all_scheme_configs() {
            let name = config.name();
            let plain = WorkflowSimilarity::new(config.clone());
            let profiled = ProfiledMeasure::new(config, &wfs);
            for a in &wfs {
                for b in &wfs {
                    let expected = plain.similarity(a, b);
                    let got = profiled.measure(a, b);
                    assert_eq!(got, expected, "{name}: {} vs {}", a.id, b.id);
                }
            }
        }
    }

    #[test]
    fn profiled_scores_match_for_every_measure_kind() {
        let wfs = corpus();
        for config in [
            SimilarityConfig::module_sets_default(),
            SimilarityConfig::path_sets_default(),
            SimilarityConfig::graph_edit_default(),
            SimilarityConfig::best_path_sets(),
            SimilarityConfig::bag_of_words(),
            SimilarityConfig::bag_of_tags(),
        ] {
            let name = config.name();
            let plain = WorkflowSimilarity::new(config.clone());
            let profiled = ProfiledMeasure::new(config, &wfs);
            for (i, a) in wfs.iter().enumerate() {
                for (j, b) in wfs.iter().enumerate() {
                    assert_eq!(
                        profiled.score_opt_indexed(i, j),
                        plain.similarity_opt(a, b),
                        "{name}: {} vs {}",
                        a.id,
                        b.id
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bound_dominates_the_exact_score() {
        let wfs = corpus();
        for config in all_scheme_configs() {
            let name = config.name();
            let profiled = ProfiledMeasure::new(config, &wfs);
            for i in 0..wfs.len() {
                for j in 0..wfs.len() {
                    let bound = profiled
                        .upper_bound_profile(profiled.profile(i), j)
                        .expect("module sets is bounded");
                    let score = profiled.score_indexed(i, j);
                    // Strict float domination: the best-bound-first scans
                    // prune with the raw bound, so even a 1-ulp shortfall
                    // makes the search drop an exact top-k member.
                    assert!(
                        bound >= score,
                        "{name}: bound {bound} < score {score} for pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn non_module_set_measures_are_unbounded() {
        let wfs = corpus();
        let ps = ProfiledMeasure::new(SimilarityConfig::best_path_sets(), &wfs);
        assert_eq!(ps.upper_bound_profile(ps.profile(0), 1), None);
        let bw = ProfiledMeasure::new(SimilarityConfig::bag_of_words(), &wfs);
        assert_eq!(bw.upper_bound_profile(bw.profile(0), 1), None);
    }

    /// The sharded-search contract: an external query profile, bound
    /// against the corpus pool *without interning*, scores and bounds
    /// bit-identically to the same workflow profiled as a resident.
    #[test]
    fn externally_bound_queries_score_bit_identically() {
        let wfs = corpus();
        for config in [
            SimilarityConfig::best_module_sets(),
            SimilarityConfig::best_path_sets(),
            SimilarityConfig::graph_edit_default(),
            SimilarityConfig::bag_of_words(),
            SimilarityConfig::bag_of_tags(),
        ] {
            let name = config.name();
            let profiled = ProfiledMeasure::new(config, &wfs);
            let pool_before = profiled.with_pool(StringPool::len);
            for (qi, query_wf) in wfs.iter().enumerate() {
                let features = profiled.query_features(query_wf);
                let bound_query = profiled.bind_query(&features);
                for candidate in 0..wfs.len() {
                    assert_eq!(
                        profiled.score_opt_profile(&bound_query, candidate),
                        profiled.score_opt_indexed(qi, candidate),
                        "{name}: score, query {qi} vs {candidate}"
                    );
                    assert_eq!(
                        profiled.upper_bound_profile(&bound_query, candidate),
                        profiled.upper_bound_profile(profiled.profile(qi), candidate),
                        "{name}: bound, query {qi} vs {candidate}"
                    );
                }
            }
            assert_eq!(
                profiled.with_pool(StringPool::len),
                pool_before,
                "{name}: binding a query must never intern into the pool"
            );
        }
    }

    /// A query with tokens the corpus has never seen must still bind (fresh
    /// ids collide with nothing) and score like the unprofiled pipeline.
    #[test]
    fn externally_bound_unseen_tokens_match_the_pipeline() {
        let wfs = corpus();
        let config = SimilarityConfig::best_module_sets();
        let plain = WorkflowSimilarity::new(config.clone());
        let profiled = ProfiledMeasure::new(config, &wfs[..2]);
        let stranger = WorkflowBuilder::new("stranger")
            .module("totally unseen tokens", ModuleType::WsdlService, |m| m)
            .module("run_blast", ModuleType::WsdlService, |m| {
                m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
            })
            .link("totally unseen tokens", "run_blast")
            .build()
            .unwrap();
        let bound = profiled.bind_query(&profiled.query_features(&stranger));
        for (i, resident) in wfs[..2].iter().enumerate() {
            assert_eq!(
                profiled.score_profile(&bound, i),
                plain.similarity(&stranger, resident),
                "stranger vs {}",
                resident.id
            );
        }
    }

    #[test]
    fn out_of_corpus_workflows_fall_back_to_the_pipeline() {
        let wfs = corpus();
        let config = SimilarityConfig::best_module_sets();
        let plain = WorkflowSimilarity::new(config.clone());
        let profiled = ProfiledMeasure::new(config, &wfs[..2]);
        let stranger = &wfs[2];
        assert_eq!(profiled.index_of(&stranger.id), None);
        assert_eq!(
            profiled.measure(&wfs[0], stranger),
            plain.similarity(&wfs[0], stranger)
        );
    }

    #[test]
    fn corpus_scorer_surface_is_consistent() {
        let wfs = corpus();
        let profiled = ProfiledMeasure::new(SimilarityConfig::best_module_sets(), &wfs);
        assert_eq!(profiled.corpus_len(), wfs.len());
        assert_eq!(profiled.workflow_id(2).as_str(), "kegg");
        assert!(!profiled.label_token_ids(0).is_empty());
        assert!(profiled.label_token_ids(3).is_empty(), "empty workflow");
        assert!(!profiled.with_pool(StringPool::is_empty));
        assert_eq!(profiled.name(), "MS_ip_te_pll");
        // Token ids are sorted and distinct.
        let tokens = profiled.label_token_ids(0);
        assert!(tokens.windows(2).all(|w| w[0] < w[1]));
    }

    /// Every Module Sets configuration the bound must cover: the six
    /// schemes × the three preselection strategies × both normalizations.
    fn bound_configs() -> Vec<SimilarityConfig> {
        let mut configs = Vec::new();
        for config in all_scheme_configs() {
            if config.preselection != PreselectionStrategy::AllPairs {
                continue;
            }
            for preselection in [
                PreselectionStrategy::AllPairs,
                PreselectionStrategy::StrictType,
                PreselectionStrategy::TypeEquivalence,
            ] {
                for normalization in [Normalization::None, Normalization::SizeNormalized] {
                    let mut config = config.clone();
                    config.preselection = preselection;
                    config.normalization = normalization;
                    configs.push(config);
                }
            }
        }
        configs
    }

    /// A query whose modules no resident carries: unseen labels, types,
    /// scripts, descriptions and services, next to one familiar module.
    fn unseen_query() -> Workflow {
        WorkflowBuilder::new("unseen")
            .module("zq unseen xylophone", ModuleType::RShell, |m| {
                m.script("plot(zz); zq(1)").description("never described")
            })
            .module("kw lookup", ModuleType::RestService, |m| {
                m.service("unseen.example", "kw_lookup", "http://unseen.example/kw")
            })
            .module("run_blast", ModuleType::WsdlService, |m| {
                m.service("ebi.ac.uk", "blastp", "http://ebi.ac.uk/blast")
            })
            .link("zq unseen xylophone", "kw lookup")
            .link("kw lookup", "run_blast")
            .build()
            .unwrap()
    }

    /// The class-table bound of `query` against every workflow of
    /// `measure`, each compared by bits with the per-pair reference.
    fn assert_table_bound_matches(measure: &ProfiledMeasure, query: &Workflow, what: &str) {
        let prepared = measure.prepare(&measure.query_features(query));
        let mut table = measure
            .class_bounds(&prepared)
            .expect("module sets is bounded");
        let query = prepared.profile();
        for candidate in 0..measure.len() {
            let want = measure
                .upper_bound_profile(query, candidate)
                .expect("module sets is bounded");
            assert_eq!(
                table.bound(candidate).to_bits(),
                want.to_bits(),
                "{what}: {} vs {}",
                query.workflow().id,
                measure.ids()[candidate]
            );
        }
    }

    /// Class ids in use (live or free) and the free ones, in free-list
    /// order.
    fn ids_and_free(measure: &ProfiledMeasure) -> (usize, Vec<u32>) {
        let registry = measure.registry();
        (registry.reps.len(), registry.free.clone())
    }

    #[test]
    fn class_table_bound_is_bit_identical_to_the_pair_bound() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(32, 11));
        let (residents, strangers) = workflows.split_at(26);
        let mut externals = strangers.to_vec();
        externals.push(unseen_query());
        externals.extend(corpus());
        for config in bound_configs() {
            let name = format!("{} {:?}", config.name(), config.normalization);
            let mut measure = ProfiledMeasure::new(config, residents);
            assert!(
                ids_and_free(&measure).1.is_empty(),
                "{name}: built from scratch"
            );
            for query in residents {
                assert_table_bound_matches(&measure, query, &format!("{name} resident"));
            }
            for query in &externals {
                assert_table_bound_matches(&measure, query, &format!("{name} external"));
            }
            // Churn: removals free the ids of the classes only they held,
            // and the additions that follow found classes the corpus has
            // never seen on those ids first.
            for at in [20, 7, 0] {
                measure.remove_workflow(at);
            }
            let (_, freed) = ids_and_free(&measure);
            assert!(!freed.is_empty(), "{name}: no class freed");
            for query in residents.iter().step_by(5) {
                assert_table_bound_matches(&measure, query, &format!("{name} churned"));
            }
            for wf in &externals {
                measure.add_workflow(wf);
            }
            assert!(
                freed
                    .iter()
                    .all(|&class| measure.registry().reps[class as usize].is_some()),
                "{name}: a freed id was not reused"
            );
            for query in residents.iter().step_by(5).chain(&externals) {
                assert_table_bound_matches(&measure, query, &format!("{name} re-added"));
            }
            // Dropping the additions frees the ids of the classes only they
            // held; adding them back reuses exactly those ids.
            let (ids, free) = ids_and_free(&measure);
            for wf in &externals {
                let at = measure.index_of(&wf.id).expect("added above");
                measure.remove_workflow(at);
            }
            let (after_ids, after_free) = ids_and_free(&measure);
            assert_eq!(after_ids, ids, "{name}: a removal minted an id");
            assert!(after_free.len() > free.len(), "{name}: nothing freed");
            for query in residents.iter().step_by(5) {
                assert_table_bound_matches(&measure, query, &format!("{name} freed"));
            }
            for wf in externals.iter().rev() {
                measure.add_workflow(wf);
            }
            assert_eq!(ids_and_free(&measure), (ids, free), "{name}");
            for query in residents.iter().step_by(5).chain(&externals) {
                assert_table_bound_matches(&measure, query, &format!("{name} reused"));
            }
        }
    }

    #[test]
    fn churned_classes_match_a_rebuild_and_free_their_ids() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(30, 5));
        let config = SimilarityConfig::best_module_sets();
        let mut measure = ProfiledMeasure::new(config.clone(), &workflows[..24]);
        for at in [23, 11, 2, 2] {
            measure.remove_workflow(at);
        }
        let (_, freed) = ids_and_free(&measure);
        assert!(!freed.is_empty(), "no class freed");
        for wf in &workflows[24..] {
            measure.add_workflow(wf);
        }
        let survivors: Vec<Workflow> = measure
            .profiles()
            .iter()
            .map(|p| {
                workflows
                    .iter()
                    .find(|wf| wf.id == p.workflow().id)
                    .expect("every resident came from the corpus")
                    .clone()
            })
            .collect();
        let rebuilt = ProfiledMeasure::new(config, &survivors);
        let (registry, rebuilt_registry) = (measure.registry(), rebuilt.registry());
        assert!(
            freed
                .iter()
                .any(|&class| registry.reps[class as usize].is_some()),
            "no freed id was reused"
        );
        assert_eq!(registry.live().count(), rebuilt_registry.live().count());
        assert!(
            registry
                .interner
                .keys()
                .eq(rebuilt_registry.interner.keys()),
            "the live classes differ from a rebuild's"
        );
        assert_eq!(registry.interner.len(), registry.live().count());
        assert_eq!(
            registry.reps.len(),
            registry.live().count() + registry.free.len(),
            "every id is live or free"
        );
        for &class in &registry.free {
            assert!(registry.reps[class as usize].is_none(), "free id {class}");
        }
        let classes = &measure.classes;
        assert_eq!(classes.starts, rebuilt.classes.starts);
        // Same partition of module slots into classes, up to relabeling.
        let mut relabel = BTreeMap::new();
        for (&a, &b) in classes.slot_class.iter().zip(&rebuilt.classes.slot_class) {
            assert_eq!(*relabel.entry(a).or_insert(b), b, "class {a} split");
        }
        let live: u32 = registry.live().map(|(_, rep)| rep.live).sum();
        assert_eq!(live as usize, classes.slot_class.len());
    }

    /// Scores every query against every resident of `measure` through
    /// the memo, twice over (the second pass reads every pair from it),
    /// each compared by bits with `score_profile`.  Returns how many pairs
    /// took Graph Edit's canonical swap.
    fn assert_memo_matches(measure: &ProfiledMeasure, queries: &[Workflow], what: &str) -> usize {
        let mut swapped = 0;
        for query in queries {
            let prepared = measure.prepare(&measure.query_features(query));
            let query = prepared.profile();
            let mut memo = measure.pair_memo(&prepared);
            for candidate in (0..measure.len()).chain(0..measure.len()) {
                if measure.swaps_canonically(query, measure.profile(candidate)) {
                    swapped += 1;
                }
                let got = measure.score_profile_memo(&prepared, candidate, &mut memo);
                assert_eq!(
                    got.to_bits(),
                    measure.score_profile(query, candidate).to_bits(),
                    "{what}: {} vs {}",
                    query.workflow().id,
                    measure.ids()[candidate]
                );
            }
        }
        swapped
    }

    /// The memo reproduces `score_profile` for the six module comparison
    /// schemes under Module Sets (both preselections), for Path Sets, for
    /// an annotation measure, and for Graph Edit, whose canonical swap
    /// compares pairs candidate first.  Every corpus holds classes first
    /// seen by an add next to the build's, and a freed id.
    #[test]
    fn memoized_scoring_is_bit_identical_to_score_profile() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(14, 9));
        let (residents, strangers) = workflows.split_at(10);
        let mut queries: Vec<Workflow> = workflows.iter().step_by(3).cloned().collect();
        queries.push(unseen_query());
        queries.extend(corpus());
        let mut configs = all_scheme_configs();
        configs.extend([
            SimilarityConfig::best_path_sets(),
            SimilarityConfig::bag_of_words(),
        ]);
        for config in configs {
            let name = config.name();
            let mut measure = ProfiledMeasure::new(config, residents);
            let (built, _) = ids_and_free(&measure);
            for wf in strangers {
                measure.add_workflow(wf);
            }
            measure.remove_workflow(3);
            let (ids, free) = ids_and_free(&measure);
            assert!(ids > built && !free.is_empty(), "{name}");
            assert_memo_matches(&measure, &queries, &name);
        }
        // Graph Edit is costly to score: the small fixture corpus.
        let small = corpus();
        let mut measure = ProfiledMeasure::new(SimilarityConfig::graph_edit_default(), &small[..2]);
        for wf in &small[2..] {
            measure.add_workflow(wf);
        }
        let mut queries = small.clone();
        queries.push(unseen_query());
        let swapped = assert_memo_matches(&measure, &queries, "graph edit");
        assert!(swapped > 0, "no pair took the canonical swap");
    }

    /// The `top_m_sum` the class-table bound shipped with first: a full
    /// descending sort, then the sum of the first `m`.
    fn sorted_top_m_sum(values: &mut [f64], m: usize) -> f64 {
        values.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        values[..m.min(values.len())].iter().sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Per-side maxima are in `[0, 1]`, never NaN or -0.0; drawing
        /// them from a few levels makes ties and zeros common.
        #[test]
        fn insertion_top_m_sum_equals_the_sorted_sum(
            levels in proptest::collection::vec(0u32..6, 0..24),
            fine in proptest::collection::vec(0u32..1000, 0..24),
            m in 0usize..28,
        ) {
            let values: Vec<f64> = levels
                .iter()
                .zip(fine.iter().chain(std::iter::repeat(&0)))
                .map(|(&level, &fine)| match level {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.5,
                    _ => f64::from(fine) / 999.0,
                })
                .collect();
            let (mut ours, mut sorted) = (values.clone(), values.clone());
            let want = sorted_top_m_sum(&mut sorted, m);
            proptest::prop_assert_eq!(top_m_sum(&mut ours, m).to_bits(), want.to_bits());
            let m = m.min(values.len());
            for (a, b) in ours[..m].iter().zip(&sorted[..m]) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn class_pair_table_from_representatives_matches_every_module_pair() {
        let (workflows, _) =
            wf_corpus::generate_taverna_corpus(&wf_corpus::TavernaCorpusConfig::small(18, 3));
        for config in all_scheme_configs() {
            let name = config.name();
            let mut measure = ProfiledMeasure::new(config, &workflows[..15]);
            measure.remove_workflow(4);
            measure.remove_workflow(0);
            for wf in &workflows[15..] {
                measure.add_workflow(wf);
            }
            let table = measure.class_pair_table();
            assert_eq!(table.class_count(), measure.registry().live().count());
            for a in 0..measure.len() {
                for b in 0..measure.len() {
                    let (pa, pb) = (measure.profile(a), measure.profile(b));
                    let (ca, cb) = (measure.classes.of(a), measure.classes.of(b));
                    for (i, &class_a) in ca.iter().enumerate() {
                        for (j, &class_b) in cb.iter().enumerate() {
                            assert_eq!(
                                table.score(class_a, class_b).to_bits(),
                                measure.pair_similarity(pa.side(i), pb.side(j)).to_bits(),
                                "{name}: ({a}, {i}) vs ({b}, {j})"
                            );
                        }
                    }
                    assert_eq!(
                        measure.score_indexed_cached(&table, a, b).to_bits(),
                        measure.score_indexed(a, b).to_bits(),
                        "{name}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiles_expose_the_preprocessed_workflow() {
        let wfs = corpus();
        let profiled = ProfiledMeasure::new(SimilarityConfig::best_module_sets(), &wfs);
        // Importance projection removes the trivial split_ids module once,
        // at profile-build time.
        assert_eq!(profiled.profile(0).workflow().module_count(), 3);
        assert_eq!(profiled.profile(0).modules().len(), 3);
    }
}
