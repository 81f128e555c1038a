//! Table 1 of the paper, as code: prior approaches expressed as
//! configurations of this framework.
//!
//! The paper's central methodological point is that every previously
//! published scientific-workflow similarity measure can be reconstructed by
//! choosing a module comparison method, a mapping strategy, a topological
//! comparison and a normalization.  This module pins each row of Table 1 to
//! a concrete [`SimilarityConfig`] (or notes why it is only approximated),
//! so the historical comparisons of Section 3 can be rerun directly.

use wf_matching::MappingStrategy;
use wf_repo::PreselectionStrategy;

use crate::config::{MeasureKind, Normalization, Preprocessing, SimilarityConfig};
use crate::module_cmp::ModuleComparisonScheme;

/// One row of Table 1: a prior approach and its reconstruction.
#[derive(Debug, Clone)]
pub struct PriorApproach {
    /// The paper's citation key, e.g. `"[34] Silva et al."`.
    pub reference: &'static str,
    /// Short description of the original approach.
    pub description: &'static str,
    /// The reconstruction inside this framework.
    pub config: SimilarityConfig,
    /// Caveats where the reconstruction is approximate.
    pub notes: &'static str,
}

/// All reconstructable rows of Table 1.
pub fn prior_approaches() -> Vec<PriorApproach> {
    vec![
        PriorApproach {
            reference: "[11] Costa et al.",
            description: "Athena: bag-of-words comparison of titles and descriptions",
            config: SimilarityConfig::bag_of_words(),
            notes: "exact reconstruction (BW)",
        },
        PriorApproach {
            reference: "[36] Stoyanovich et al.",
            description: "tag-based workflow comparison",
            config: SimilarityConfig::bag_of_tags(),
            notes: "the frequent-tag-set / frequent-module-set mining of the original is \
                    approximated by the plain bag-of-tags measure, as in the paper",
        },
        PriorApproach {
            reference: "[34] Silva et al.",
            description: "multiple module attributes, greedy mapping, sets of modules, \
                          normalized by the smaller workflow",
            config: SimilarityConfig::new(
                MeasureKind::ModuleSets,
                ModuleComparisonScheme::pw3(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            )
            .with_mapping(MappingStrategy::Greedy),
            notes: "normalization uses the framework's Jaccard variant instead of |V| of the \
                    smaller workflow",
        },
        PriorApproach {
            reference: "[4] Bergmann & Gil",
            description: "label edit distance, maximum-weight mapping, sets of modules and edges",
            config: SimilarityConfig::new(
                MeasureKind::ModuleSets,
                ModuleComparisonScheme::pll(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            ),
            notes: "the semantic-annotation variant of the original needs ontology annotations \
                    that public repositories do not carry (see paper Section 2)",
        },
        PriorApproach {
            reference: "[33] Santos et al.",
            description: "label matching, module label vectors / maximum common subgraph",
            config: SimilarityConfig::new(
                MeasureKind::PathSets,
                ModuleComparisonScheme::plm(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            ),
            notes: "the MCS comparison is approximated by Path Sets, the relaxation the paper \
                    itself adopts (Section 2.1.3)",
        },
        PriorApproach {
            reference: "[18] Goderis et al.",
            description: "label matching, maximum common subgraph, size normalization",
            config: SimilarityConfig::new(
                MeasureKind::PathSets,
                ModuleComparisonScheme::plm(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            ),
            notes: "same approximation as [33]; lowercased label matching is available through \
                    a custom scheme",
        },
        PriorApproach {
            reference: "[17] Friesen & Rüping",
            description: "type matching, sets of modules / MCS / graph kernels",
            config: SimilarityConfig::new(
                MeasureKind::ModuleSets,
                ModuleComparisonScheme::custom(
                    "ptype",
                    vec![crate::module_cmp::AttributeRule {
                        key: wf_model::AttributeKey::Type,
                        weight: 1.0,
                        method: crate::module_cmp::ComparisonMethod::Exact,
                    }],
                ),
                PreselectionStrategy::StrictType,
                Preprocessing::None,
            ),
            notes: "the graph-kernel variant is not reconstructed (the paper also evaluates it \
                    only through its MCS/bag-of-modules surrogates)",
        },
        PriorApproach {
            reference: "[38] Xiang & Madey",
            description: "label matching, graph edit distance, no normalization",
            config: SimilarityConfig::new(
                MeasureKind::GraphEdit,
                ModuleComparisonScheme::plm(),
                PreselectionStrategy::AllPairs,
                Preprocessing::None,
            )
            .with_normalization(Normalization::None),
            notes: "SUBDUE is replaced by the wf-ged engine with the same uniform cost model",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::WorkflowSimilarity;
    use wf_model::{builder::WorkflowBuilder, ModuleType, Workflow};

    fn sample(id: &str, second_label: &str) -> Workflow {
        WorkflowBuilder::new(id)
            .title("kegg pathway analysis")
            .tag("kegg")
            .module("get_pathway", ModuleType::WsdlService, |m| {
                m.service("kegg.jp", "get_pathway", "http://kegg.jp/ws")
            })
            .module(second_label, ModuleType::BeanshellScript, |m| m.script("x"))
            .link("get_pathway", second_label)
            .build()
            .unwrap()
    }

    #[test]
    fn every_row_of_table_1_is_reconstructed() {
        let rows = prior_approaches();
        assert_eq!(rows.len(), 8, "all eight prior approaches of Table 1");
        let references: Vec<&str> = rows.iter().map(|r| r.reference).collect();
        for needed in [
            "[11]", "[36]", "[34]", "[4]", "[33]", "[18]", "[17]", "[38]",
        ] {
            assert!(
                references.iter().any(|r| r.starts_with(needed)),
                "missing reconstruction for {needed}"
            );
        }
    }

    #[test]
    fn reconstructions_are_runnable_and_sane() {
        let a = sample("a", "extract_genes");
        let b = sample("b", "extract_gene_ids");
        for row in prior_approaches() {
            let measure = WorkflowSimilarity::new(row.config.clone());
            let self_sim = measure.similarity_opt(&a, &a.clone());
            if let Some(s) = self_sim {
                // GE without normalization reports -cost (0 for identity);
                // all other reconstructions are normalized similarities.
                if row.config.normalization == Normalization::None
                    && row.config.measure == MeasureKind::GraphEdit
                {
                    assert_eq!(s, 0.0, "{}: identity edit cost", row.reference);
                } else {
                    assert!(
                        (s - 1.0).abs() < 1e-9,
                        "{}: self similarity should be 1, got {s}",
                        row.reference
                    );
                }
            }
            let cross = measure.similarity(&a, &b);
            assert!(cross.is_finite(), "{}", row.reference);
            assert!(!row.description.is_empty() && !row.notes.is_empty());
        }
    }

    #[test]
    fn silva_reconstruction_uses_greedy_mapping() {
        let silva = prior_approaches()
            .into_iter()
            .find(|r| r.reference.starts_with("[34]"))
            .unwrap();
        assert_eq!(silva.config.mapping, MappingStrategy::Greedy);
        assert_eq!(silva.config.measure, MeasureKind::ModuleSets);
    }

    #[test]
    fn xiang_reconstruction_is_unnormalized_ged() {
        let xiang = prior_approaches()
            .into_iter()
            .find(|r| r.reference.starts_with("[38]"))
            .unwrap();
        assert_eq!(xiang.config.measure, MeasureKind::GraphEdit);
        assert_eq!(xiang.config.normalization, Normalization::None);
    }
}
