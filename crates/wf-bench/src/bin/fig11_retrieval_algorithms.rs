//! Figure 11: retrieval precision@k of the structural and annotational
//! measures.
//!
//! Three panels (relevance ≥related / ≥similar / ≥very similar); algorithms
//! BW, BT, MS and PS in np_ta and ip_te configurations (pll module scheme),
//! and GE with ip_te.  Findings to reproduce: MS and PS provide the best and
//! nearly identical precision; GE finds the very similar workflows but falls
//! behind for related/similar ones; BW is competitive at low thresholds but
//! misses the very similar workflows.
//!
//! Environment: `WFSIM_CORPUS_SIZE` (default 300), `WFSIM_QUERIES` (default
//! 8), `WFSIM_SEED` (default 42).

use wf_bench::table::{curve_cells, fmt3, TextTable};
use wf_bench::{env_param, NamedAlgorithm, RetrievalExperiment, RetrievalExperimentConfig};
use wf_ged::GedBudget;
use wf_gold::RelevanceThreshold;
use wf_repo::PreselectionStrategy;
use wf_sim::{ModuleComparisonScheme, Preprocessing, SimilarityConfig, WorkflowSimilarity};

fn with_knowledge(config: SimilarityConfig) -> SimilarityConfig {
    config
        .with_preprocessing(Preprocessing::ImportanceProjection)
        .with_preselection(PreselectionStrategy::TypeEquivalence)
}

fn main() {
    let config = RetrievalExperimentConfig {
        corpus_size: env_param("WFSIM_CORPUS_SIZE", 300),
        queries: env_param("WFSIM_QUERIES", 8),
        top_k: 10,
        seed: env_param("WFSIM_SEED", 42) as u64,
    };
    println!("Figure 11: retrieval precision@k of annotational and structural algorithms");
    println!(
        "setup: top-{} retrieval over {} workflows, {} queries, median expert relevance",
        config.top_k, config.corpus_size, config.queries
    );
    println!();
    let experiment = RetrievalExperiment::prepare(&config);

    let pll = ModuleComparisonScheme::pll;
    let configurations = vec![
        SimilarityConfig::bag_of_words(),
        SimilarityConfig::bag_of_tags(),
        SimilarityConfig::module_sets_default().with_scheme(pll()),
        with_knowledge(SimilarityConfig::module_sets_default().with_scheme(pll())),
        SimilarityConfig::path_sets_default().with_scheme(pll()),
        with_knowledge(SimilarityConfig::path_sets_default().with_scheme(pll())),
        with_knowledge(
            SimilarityConfig::graph_edit_default()
                .with_scheme(pll())
                .with_ged_budget(GedBudget::small()),
        ),
    ];
    let algorithms: Vec<NamedAlgorithm> = configurations
        .into_iter()
        .map(|c| NamedAlgorithm::from_measure(WorkflowSimilarity::new(c)))
        .collect();

    let all_lists: Vec<_> = algorithms
        .iter()
        .map(|a| experiment.result_lists(a))
        .collect();
    let ratings = experiment.rate_results(&all_lists);

    for threshold in RelevanceThreshold::ALL {
        let mut table = TextTable::new(
            std::iter::once("algorithm".to_string())
                .chain((1..=config.top_k).map(|k| format!("P@{k}")))
                .collect::<Vec<_>>(),
        );
        for (algorithm, lists) in algorithms.iter().zip(&all_lists) {
            let curve = experiment.mean_precision(lists, &ratings, threshold);
            let mut cells = vec![algorithm.name.clone()];
            cells.extend(curve_cells(&curve));
            table.row(cells);
        }
        println!("relevance {}:", threshold.label());
        println!("{}", table.render());
    }

    // Extension beyond the paper: graded metrics over the same result lists
    // (nDCG uses the full Likert scale instead of a binary threshold).
    let mut graded = TextTable::new(vec!["algorithm", "nDCG@10", "MAP@10 (>=related)"]);
    for (algorithm, lists) in algorithms.iter().zip(&all_lists) {
        graded.row(vec![
            algorithm.name.clone(),
            fmt3(experiment.mean_ndcg(lists, &ratings, config.top_k)),
            fmt3(experiment.mean_average_precision(
                lists,
                &ratings,
                RelevanceThreshold::Related,
                config.top_k,
            )),
        ]);
    }
    println!("graded metrics (extension, see wf_gold::graded):");
    println!("{}", graded.render());
    println!("paper shape: MS ~ PS best for related/similar; GE competitive only for very similar; BW good at low thresholds but misses the very similar workflows; ip+te improves precision and stability most at >=related");
}
