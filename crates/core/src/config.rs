//! Plugin configuration: the ablation and hyper-parameter axes.

/// Which pieces of the LH-plugin are active — exactly the rows of the
/// paper's Table VI ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PluginVariant {
    /// Baseline: Euclidean distance between base-model embeddings only.
    Original,
    /// Lorentz distance via the vanilla projection (`lh-vanilla`).
    LorentzVanilla,
    /// Lorentz distance via the Cosh projection (`lh-cosh`).
    LorentzCosh,
    /// Full plugin: Cosh projection + dynamic fusion (`fusion-dist`).
    FusionDist,
}

impl PluginVariant {
    /// Table VI row order.
    pub const ABLATION: [PluginVariant; 4] = [
        PluginVariant::Original,
        PluginVariant::LorentzVanilla,
        PluginVariant::LorentzCosh,
        PluginVariant::FusionDist,
    ];

    /// Row label matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PluginVariant::Original => "original",
            PluginVariant::LorentzVanilla => "lh-vanilla",
            PluginVariant::LorentzCosh => "lh-cosh",
            PluginVariant::FusionDist => "fusion-dist",
        }
    }

    /// Whether any hyperbolic machinery is active.
    pub fn uses_hyperbolic(&self) -> bool {
        !matches!(self, PluginVariant::Original)
    }

    /// Whether the dynamic fusion module is active.
    pub fn uses_fusion(&self) -> bool {
        matches!(self, PluginVariant::FusionDist)
    }
}

/// Full plugin configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PluginConfig {
    /// Active variant (ablation axis).
    pub variant: PluginVariant,
    /// Curvature parameter β of `H(β)` (Fig. 8 sweeps it; paper picks 1).
    pub beta: f32,
    /// Compression exponent `c` of `γ_c` (Fig. 8 sweeps it; paper picks 4).
    pub c: f32,
    /// Width of each factor embedding (`V_Lo`, `V_Eu`).
    pub factor_dim: usize,
    /// Hidden width of the fusion factor LSTM.
    pub fusion_hidden: usize,
}

impl Default for PluginConfig {
    fn default() -> Self {
        PluginConfig {
            variant: PluginVariant::FusionDist,
            beta: 1.0,
            c: 4.0,
            factor_dim: 8,
            fusion_hidden: 16,
        }
    }
}

impl PluginConfig {
    /// The paper's final configuration (β = 1, c = 4, full fusion).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Same configuration with a different variant.
    pub fn with_variant(mut self, variant: PluginVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Same configuration with a different β.
    pub fn with_beta(mut self, beta: f32) -> Self {
        assert!(beta > 0.0, "β must be positive");
        self.beta = beta;
        self
    }

    /// Same configuration with a different compression exponent.
    pub fn with_c(mut self, c: f32) -> Self {
        assert!(c >= 1.0, "c must be ≥ 1");
        self.c = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_rows_match_paper() {
        let names: Vec<&str> = PluginVariant::ABLATION.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec!["original", "lh-vanilla", "lh-cosh", "fusion-dist"]
        );
    }

    #[test]
    fn capability_flags() {
        assert!(!PluginVariant::Original.uses_hyperbolic());
        assert!(PluginVariant::LorentzVanilla.uses_hyperbolic());
        assert!(!PluginVariant::LorentzCosh.uses_fusion());
        assert!(PluginVariant::FusionDist.uses_fusion());
    }

    #[test]
    fn builders_validate() {
        let c = PluginConfig::paper_default();
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.c, 4.0);
        let c2 = c.with_beta(2.0).with_c(2.0);
        assert_eq!(c2.beta, 2.0);
        assert_eq!(c2.c, 2.0);
    }

    #[test]
    #[should_panic(expected = "β must be positive")]
    fn rejects_nonpositive_beta() {
        let _ = PluginConfig::default().with_beta(0.0);
    }
}
