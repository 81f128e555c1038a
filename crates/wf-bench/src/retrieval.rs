//! The workflow *retrieval* experiment (paper Section 4.2, experiment 2, and
//! Section 5.2).
//!
//! Selected algorithms each retrieve the top-k most similar workflows for a
//! set of query workflows from the whole repository.  The pooled result
//! lists are rated by the expert panel; retrieval quality is then reported
//! as mean precision@k against the median expert rating under the three
//! relevance thresholds of Figures 10 and 11.

use std::collections::BTreeSet;

use wf_corpus::{
    generate_taverna_corpus, select_queries, CorpusMeta, ExpertPanel, ExpertPanelConfig,
    TavernaCorpusConfig,
};
use wf_gold::graded::{likert_gain, mean_average_precision, mean_ndcg};
use wf_gold::precision::{mean_precision_at_k, precision_curve};
use wf_gold::{RatingCorpus, RelevanceThreshold};
use wf_model::WorkflowId;
use wf_repo::{Repository, SearchEngine};

use crate::NamedAlgorithm;

/// Configuration of the retrieval experiment.
#[derive(Debug, Clone)]
pub struct RetrievalExperimentConfig {
    /// Size of the generated corpus searched over.
    pub corpus_size: usize,
    /// Number of query workflows (the paper uses 8).
    pub queries: usize,
    /// Result list depth (the paper evaluates the top 10).
    pub top_k: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for RetrievalExperimentConfig {
    fn default() -> Self {
        RetrievalExperimentConfig {
            corpus_size: 500,
            queries: 8,
            top_k: 10,
            seed: 42,
        }
    }
}

impl RetrievalExperimentConfig {
    /// A reduced setting for unit tests.
    pub fn quick() -> Self {
        RetrievalExperimentConfig {
            corpus_size: 80,
            queries: 3,
            top_k: 5,
            seed: 42,
        }
    }
}

/// The prepared retrieval experiment.
pub struct RetrievalExperiment {
    config: RetrievalExperimentConfig,
    repository: Repository,
    meta: CorpusMeta,
    queries: Vec<WorkflowId>,
    panel: ExpertPanel,
}

impl RetrievalExperiment {
    /// Generates the corpus and selects the query workflows.
    pub fn prepare(config: &RetrievalExperimentConfig) -> Self {
        let (corpus, meta) =
            generate_taverna_corpus(&TavernaCorpusConfig::small(config.corpus_size, config.seed));
        let repository = Repository::from_workflows(corpus);
        let queries = select_queries(&meta, config.queries, 3, config.seed + 7);
        let panel = ExpertPanel::new(ExpertPanelConfig {
            seed: config.seed + 2000,
            ..ExpertPanelConfig::default()
        });
        RetrievalExperiment {
            config: config.clone(),
            repository,
            meta,
            queries,
            panel,
        }
    }

    /// The repository searched over.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// The latent corpus metadata.
    pub fn meta(&self) -> &CorpusMeta {
        &self.meta
    }

    /// The query workflow ids.
    pub fn queries(&self) -> &[WorkflowId] {
        &self.queries
    }

    /// Runs one algorithm's top-k retrieval for every query.
    pub fn result_lists(
        &self,
        algorithm: &NamedAlgorithm<'_>,
    ) -> Vec<(WorkflowId, Vec<WorkflowId>)> {
        let score = &algorithm.score;
        let engine = SearchEngine::new(
            &self.repository,
            move |a: &wf_model::Workflow, b: &wf_model::Workflow| score(a, b).unwrap_or(0.0),
        );
        self.queries
            .iter()
            .map(|q| {
                let query_wf = self.repository.get(q).expect("query exists");
                let hits = engine.top_k(query_wf, self.config.top_k);
                (q.clone(), hits.into_iter().map(|h| h.id).collect())
            })
            .collect()
    }

    /// Rates the pooled result lists with the expert panel — the paper's
    /// second rating round, which "completes" the ratings for every workflow
    /// any algorithm returned.
    pub fn rate_results(
        &self,
        result_lists: &[Vec<(WorkflowId, Vec<WorkflowId>)>],
    ) -> RatingCorpus {
        let mut pairs: BTreeSet<(WorkflowId, WorkflowId)> = BTreeSet::new();
        for lists in result_lists {
            for (query, results) in lists {
                for r in results {
                    pairs.insert((query.clone(), r.clone()));
                }
            }
        }
        let pairs: Vec<(WorkflowId, WorkflowId)> = pairs.into_iter().collect();
        self.panel.rate_pairs(&self.meta, &pairs)
    }

    /// Mean precision@k curve (k = 1 .. top_k) of one algorithm's result
    /// lists under a relevance threshold, judged by the median expert
    /// rating in `ratings`.
    pub fn mean_precision(
        &self,
        result_lists: &[(WorkflowId, Vec<WorkflowId>)],
        ratings: &RatingCorpus,
        threshold: RelevanceThreshold,
    ) -> Vec<f64> {
        let curves: Vec<Vec<f64>> = result_lists
            .iter()
            .map(|(query, results)| {
                precision_curve(
                    results,
                    |candidate| {
                        threshold.is_relevant(ratings.median(query.as_str(), candidate.as_str()))
                    },
                    self.config.top_k,
                )
            })
            .collect();
        mean_precision_at_k(&curves)
    }

    /// Mean nDCG@k of one algorithm's result lists, using the median expert
    /// Likert rating as the graded gain (an extension beyond the paper's
    /// precision@k, see `wf_gold::graded`).
    pub fn mean_ndcg(
        &self,
        result_lists: &[(WorkflowId, Vec<WorkflowId>)],
        ratings: &RatingCorpus,
        k: usize,
    ) -> f64 {
        let gains: Vec<Vec<f64>> = result_lists
            .iter()
            .map(|(query, results)| {
                results
                    .iter()
                    .map(|r| likert_gain(ratings.median(query.as_str(), r.as_str())))
                    .collect()
            })
            .collect();
        mean_ndcg(&gains, k)
    }

    /// Mean average precision (MAP@k) of one algorithm's result lists under
    /// a relevance threshold.
    pub fn mean_average_precision(
        &self,
        result_lists: &[(WorkflowId, Vec<WorkflowId>)],
        ratings: &RatingCorpus,
        threshold: RelevanceThreshold,
        k: usize,
    ) -> f64 {
        let relevance: Vec<Vec<bool>> = result_lists
            .iter()
            .map(|(query, results)| {
                results
                    .iter()
                    .map(|r| threshold.is_relevant(ratings.median(query.as_str(), r.as_str())))
                    .collect()
            })
            .collect();
        mean_average_precision(&relevance, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_sim::{SimilarityConfig, WorkflowSimilarity};

    fn experiment() -> RetrievalExperiment {
        RetrievalExperiment::prepare(&RetrievalExperimentConfig::quick())
    }

    #[test]
    fn preparation_and_result_lists() {
        let exp = experiment();
        assert_eq!(exp.queries().len(), 3);
        assert_eq!(exp.repository().len(), 80);
        let ms = NamedAlgorithm::from_measure(WorkflowSimilarity::new(
            SimilarityConfig::best_module_sets(),
        ));
        let lists = exp.result_lists(&ms);
        assert_eq!(lists.len(), 3);
        for (query, results) in &lists {
            assert_eq!(results.len(), 5);
            assert!(
                !results.contains(query),
                "the query itself is never returned"
            );
        }
    }

    #[test]
    fn rating_and_precision_pipeline() {
        let exp = experiment();
        let ms = NamedAlgorithm::from_measure(WorkflowSimilarity::new(
            SimilarityConfig::best_module_sets(),
        ));
        let lists = exp.result_lists(&ms);
        let ratings = exp.rate_results(std::slice::from_ref(&lists));
        assert!(!ratings.is_empty());
        let curve = exp.mean_precision(&lists, &ratings, RelevanceThreshold::Related);
        assert_eq!(curve.len(), 5);
        for p in &curve {
            assert!((0.0..=1.0).contains(p));
        }
        // A real measure on a family-structured corpus finds related
        // workflows early: precision@1 at the weakest threshold is high.
        assert!(
            curve[0] >= 0.3,
            "precision@1 for MS_ip_te_pll is implausibly low: {}",
            curve[0]
        );
    }

    #[test]
    fn stricter_thresholds_never_increase_precision() {
        let exp = experiment();
        let bw =
            NamedAlgorithm::from_measure(WorkflowSimilarity::new(SimilarityConfig::bag_of_words()));
        let lists = exp.result_lists(&bw);
        let ratings = exp.rate_results(std::slice::from_ref(&lists));
        let related = exp.mean_precision(&lists, &ratings, RelevanceThreshold::Related);
        let similar = exp.mean_precision(&lists, &ratings, RelevanceThreshold::Similar);
        let very = exp.mean_precision(&lists, &ratings, RelevanceThreshold::VerySimilar);
        for k in 0..related.len() {
            assert!(related[k] + 1e-9 >= similar[k]);
            assert!(similar[k] + 1e-9 >= very[k]);
        }
    }

    #[test]
    fn graded_metrics_are_bounded_and_consistent_with_precision() {
        let exp = experiment();
        let ms = NamedAlgorithm::from_measure(WorkflowSimilarity::new(
            SimilarityConfig::best_module_sets(),
        ));
        let lists = exp.result_lists(&ms);
        let ratings = exp.rate_results(std::slice::from_ref(&lists));
        let ndcg = exp.mean_ndcg(&lists, &ratings, 5);
        let map = exp.mean_average_precision(&lists, &ratings, RelevanceThreshold::Related, 5);
        assert!((0.0..=1.0).contains(&ndcg), "nDCG out of range: {ndcg}");
        assert!((0.0..=1.0).contains(&map), "MAP out of range: {map}");
        // If every retrieved workflow were irrelevant, MAP would be 0; the
        // structural measure on a family corpus does better than that.
        assert!(map > 0.0);
    }

    #[test]
    fn random_algorithm_is_beaten_by_an_informed_one() {
        let exp = experiment();
        let ms = NamedAlgorithm::from_measure(WorkflowSimilarity::new(
            SimilarityConfig::best_module_sets(),
        ));
        // "Random" scores derived deterministically from ids so the test is
        // stable: similarity = hash-ish of the candidate id.
        let random = NamedAlgorithm::from_fn("random", |_, b| {
            let h = b.id.as_str().bytes().map(|x| x as u64).sum::<u64>() % 1000;
            Some(h as f64 / 1000.0)
        });
        let ms_lists = exp.result_lists(&ms);
        let random_lists = exp.result_lists(&random);
        let ratings = exp.rate_results(&[ms_lists.clone(), random_lists.clone()]);
        let ms_curve = exp.mean_precision(&ms_lists, &ratings, RelevanceThreshold::Related);
        let random_curve = exp.mean_precision(&random_lists, &ratings, RelevanceThreshold::Related);
        assert!(
            ms_curve[4] > random_curve[4],
            "informed {} vs random {}",
            ms_curve[4],
            random_curve[4]
        );
    }
}
