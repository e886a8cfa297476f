//! Construction parameters for the ACORN indices.

use acorn_hnsw::Metric;

use crate::prune::PruneStrategy;

/// Which ACORN variant an index implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcornVariant {
    /// ACORN-γ: neighbor expansion at construction time (§5.2).
    Gamma,
    /// ACORN-1: neighbor expansion at search time (§5.3); construction uses
    /// `γ = 1, M_β = M`.
    One,
}

/// Parameters of an [`AcornIndex`](crate::index::AcornIndex).
///
/// Defaults mirror the paper's evaluation setup (§7.2): `M = 32`,
/// `efc = 40`, with `γ` and `M_β` chosen per dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AcornParams {
    /// Degree bound `M` for traversed nodes during search; also fixes the
    /// level normalization constant `mL = 1/ln(M)`.
    pub m: usize,
    /// Neighbor expansion factor `γ ≥ 1`. Each node collects `M·γ` candidate
    /// edges. `1/γ` is the minimum selectivity (`s_min`) served by graph
    /// search before falling back to pre-filtering.
    pub gamma: usize,
    /// Compression parameter `M_β` (`0 ≤ M_β ≤ M·γ`): number of nearest
    /// level-0 candidates retained verbatim; the rest are subject to the
    /// predicate-agnostic two-hop prune.
    pub m_beta: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Distance metric.
    pub metric: Metric,
    /// RNG seed for level sampling.
    pub seed: u64,
    /// Level-0 pruning strategy; [`PruneStrategy::AcornCompress`] is the
    /// paper's method, the others exist for the Figure 12 ablation.
    pub prune: PruneStrategy,
    /// Explicit minimum served selectivity. `None` derives `s_min = 1/γ`
    /// (§5.2). ACORN-1 sets this from the *intended* γ before overriding
    /// `γ = 1` for construction, so its fallback threshold matches the
    /// ACORN-γ configuration it approximates.
    pub s_min_override: Option<f64>,
    /// Number of compressed levels `n_c` (bottom-up), §6.1's generalized
    /// compression: per-node memory is
    /// `O(n_c·(M_β + M) + (mL − n_c)·M·γ)`. The paper's evaluation uses 1
    /// (level 0 only); larger values trade upper-level density for space.
    pub compressed_levels: usize,
    /// Reproduce the Qdrant densification pitfall (§8): tie the level
    /// normalization constant to `M·γ` instead of `M`, flattening the
    /// hierarchy. Exists only for the ablation benchmark — Malkov et al.
    /// show performance is sensitive to graph height, and ACORN
    /// deliberately avoids this.
    pub flatten_hierarchy: bool,
}

impl Default for AcornParams {
    fn default() -> Self {
        Self {
            m: 32,
            gamma: 12,
            m_beta: 64,
            ef_construction: 40,
            metric: Metric::L2,
            seed: 0,
            prune: PruneStrategy::AcornCompress,
            s_min_override: None,
            compressed_levels: 1,
            flatten_hierarchy: false,
        }
    }
}

impl AcornParams {
    /// The candidate-edge budget per node per level, `M·γ`.
    #[inline]
    pub fn edge_budget(&self) -> usize {
        self.m * self.gamma
    }

    /// The minimum predicate selectivity served by graph search:
    /// the explicit override when set, else `s_min = 1/γ` (§5.2).
    #[inline]
    pub fn s_min(&self) -> f64 {
        self.s_min_override.unwrap_or(1.0 / self.gamma as f64)
    }

    /// Panic with a clear message if parameters are inconsistent.
    pub fn validate(&self) {
        assert!(self.m >= 2, "M must be >= 2 (got {})", self.m);
        assert!(self.gamma >= 1, "gamma must be >= 1 (got {})", self.gamma);
        assert!(
            self.m_beta <= self.edge_budget(),
            "M_beta ({}) must be <= M*gamma ({})",
            self.m_beta,
            self.edge_budget()
        );
        assert!(self.ef_construction >= 1, "ef_construction must be >= 1");
        assert!(self.compressed_levels >= 1, "at least level 0 must be compressed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let p = AcornParams::default();
        assert_eq!(p.m, 32);
        assert_eq!(p.edge_budget(), 32 * 12);
        assert!((p.s_min() - 1.0 / 12.0).abs() < 1e-12);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "M_beta")]
    fn invalid_mbeta_rejected() {
        let p = AcornParams { m_beta: 1000, m: 4, gamma: 2, ..AcornParams::default() };
        p.validate();
    }
}
