//! Figure 10: retrieval precision@k for simMS under different module
//! comparison schemes, with and without repository knowledge.
//!
//! Three panels, one per relevance threshold (≥related, ≥similar,
//! ≥very similar); six configurations: {np_ta, ip_te} × {pw3, pll, plm}.
//! Findings to reproduce: differences shrink as the threshold gets stricter
//! (finding the most similar workflows is easy for every scheme); `plm` is
//! worst for related workflows; repository knowledge (ip, te) helps and
//! favours `pll`.
//!
//! Environment: `WFSIM_CORPUS_SIZE` (default 300), `WFSIM_QUERIES` (default
//! 8), `WFSIM_SEED` (default 42).

use wf_bench::table::{curve_cells, TextTable};
use wf_bench::{env_param, NamedAlgorithm, RetrievalExperiment, RetrievalExperimentConfig};
use wf_gold::RelevanceThreshold;
use wf_repo::PreselectionStrategy;
use wf_sim::{ModuleComparisonScheme, Preprocessing, SimilarityConfig, WorkflowSimilarity};

fn main() {
    let config = RetrievalExperimentConfig {
        corpus_size: env_param("WFSIM_CORPUS_SIZE", 300),
        queries: env_param("WFSIM_QUERIES", 8),
        top_k: 10,
        seed: env_param("WFSIM_SEED", 42) as u64,
    };
    println!(
        "Figure 10: retrieval precision@k for simMS under module schemes x repository knowledge"
    );
    println!(
        "setup: top-{} retrieval over {} workflows, {} queries, median expert relevance",
        config.top_k, config.corpus_size, config.queries
    );
    println!();
    let experiment = RetrievalExperiment::prepare(&config);

    let configurations: Vec<SimilarityConfig> = [
        ModuleComparisonScheme::pw3(),
        ModuleComparisonScheme::pll(),
        ModuleComparisonScheme::plm(),
    ]
    .into_iter()
    .flat_map(|scheme| {
        [
            SimilarityConfig::module_sets_default().with_scheme(scheme.clone()),
            SimilarityConfig::module_sets_default()
                .with_scheme(scheme)
                .with_preprocessing(Preprocessing::ImportanceProjection)
                .with_preselection(PreselectionStrategy::TypeEquivalence),
        ]
    })
    .collect();

    let algorithms: Vec<NamedAlgorithm> = configurations
        .into_iter()
        .map(|c| NamedAlgorithm::from_measure(WorkflowSimilarity::new(c)))
        .collect();

    // Run retrieval once per algorithm, pool the results for rating.
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
    println!("paper shape: plm worst at >=related; pll ~ pw3 without knowledge; ip+te lifts all and puts pll ahead; at >=very_similar all configurations converge");
}
