//! Technical type equivalence classes.
//!
//! The `te` preselection strategy of the paper casts module types "to
//! equivalence classes based on the categorization proposed in \[37\]"
//! (Wassink et al.): all web-service related types form one class, scripts
//! another, and so on.  The motivation quoted in the paper is that Taverna
//! web-service modules are typed with a variety of identifiers
//! (`arbitrarywsdl`, `wsdl`, `soaplabwsdl`, …) that should be comparable.

use std::fmt;

use wf_model::ModuleType;

/// A coarse technical class of module types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TypeClass {
    /// Remote (web) service invocations of any flavour.
    WebService,
    /// Author-provided scripts executed locally (Beanshell, RShell, …).
    Script,
    /// Predefined local operations, string constants and ports.
    LocalOperation,
    /// Nested sub-workflows.
    SubWorkflow,
    /// Galaxy tool invocations.
    Tool,
    /// Anything not covered above.
    Other,
}

impl TypeClass {
    /// The equivalence class of a module type.
    pub fn of(module_type: &ModuleType) -> TypeClass {
        if module_type.is_service() {
            TypeClass::WebService
        } else if module_type.is_script() {
            TypeClass::Script
        } else {
            match module_type {
                ModuleType::LocalOperation
                | ModuleType::StringConstant
                | ModuleType::InputPort
                | ModuleType::OutputPort => TypeClass::LocalOperation,
                ModuleType::SubWorkflow => TypeClass::SubWorkflow,
                ModuleType::GalaxyTool => TypeClass::Tool,
                _ => TypeClass::Other,
            }
        }
    }

    /// A stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TypeClass::WebService => "web_service",
            TypeClass::Script => "script",
            TypeClass::LocalOperation => "local_operation",
            TypeClass::SubWorkflow => "sub_workflow",
            TypeClass::Tool => "tool",
            TypeClass::Other => "other",
        }
    }
}

impl fmt::Display for TypeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_wsdl_variants_share_the_web_service_class() {
        for ty in [
            ModuleType::WsdlService,
            ModuleType::SoaplabService,
            ModuleType::ArbitraryWsdl,
            ModuleType::RestService,
            ModuleType::BioMart,
            ModuleType::BioMoby,
        ] {
            assert_eq!(TypeClass::of(&ty), TypeClass::WebService, "{ty}");
        }
    }

    #[test]
    fn scripts_and_locals_are_separate_classes() {
        assert_eq!(
            TypeClass::of(&ModuleType::BeanshellScript),
            TypeClass::Script
        );
        assert_eq!(TypeClass::of(&ModuleType::RShell), TypeClass::Script);
        assert_eq!(
            TypeClass::of(&ModuleType::LocalOperation),
            TypeClass::LocalOperation
        );
        assert_eq!(
            TypeClass::of(&ModuleType::StringConstant),
            TypeClass::LocalOperation
        );
        assert_eq!(
            TypeClass::of(&ModuleType::InputPort),
            TypeClass::LocalOperation
        );
        assert_ne!(
            TypeClass::of(&ModuleType::BeanshellScript),
            TypeClass::of(&ModuleType::LocalOperation)
        );
    }

    #[test]
    fn remaining_types_map_to_their_classes() {
        assert_eq!(
            TypeClass::of(&ModuleType::SubWorkflow),
            TypeClass::SubWorkflow
        );
        assert_eq!(TypeClass::of(&ModuleType::GalaxyTool), TypeClass::Tool);
        assert_eq!(
            TypeClass::of(&ModuleType::Other("mystery".into())),
            TypeClass::Other
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TypeClass::WebService.to_string(), "web_service");
        assert_eq!(TypeClass::Tool.name(), "tool");
    }
}
