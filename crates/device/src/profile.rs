//! Per-cell-type FLOP profiles.
//!
//! The simulator prices tasks by FLOPs. Building models with the paper's
//! real shapes (hidden 1024, vocabulary 30k) just to obtain FLOP counts
//! would waste hundreds of megabytes of weights that the simulator never
//! reads, so a [`CostProfile`] decouples pricing from the concrete
//! weights: experiments construct *small* models (fast) and price them
//! at *paper scale*.

use bm_cell::{cost, Cell, CellRegistry, CellTypeId};

/// FLOPs-per-batch-row for each registered cell type.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    flops_per_row: Vec<f64>,
}

impl CostProfile {
    /// Derives the profile from the registry's actual cells.
    pub fn from_registry(reg: &CellRegistry) -> Self {
        CostProfile {
            flops_per_row: reg.iter().map(|m| m.cell.flops(1) as f64).collect(),
        }
    }

    /// Derives a profile pricing each cell kind at the paper's scale:
    /// hidden width `hidden` (1024 in the paper) and vocabulary `vocab`
    /// (30k for Seq2Seq). The registry's actual shapes are ignored.
    pub fn paper_scale(reg: &CellRegistry, hidden: usize, vocab: usize) -> Self {
        let flops_per_row = reg
            .iter()
            .map(|m| {
                let f = match m.cell.as_ref() {
                    Cell::Lstm(_) => cost::lstm_flops(1, hidden, hidden),
                    Cell::Decoder(_) => {
                        cost::lstm_flops(1, hidden, hidden)
                            + cost::projection_flops(1, hidden, vocab)
                    }
                    Cell::TreeLeaf(_) => cost::tree_leaf_flops(1, hidden, hidden),
                    Cell::TreeInternal(_) => cost::tree_internal_flops(1, hidden),
                };
                f as f64
            })
            .collect();
        CostProfile { flops_per_row }
    }

    /// FLOPs of one execution of `ct` at batch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not covered by the profile.
    pub fn flops(&self, ct: CellTypeId, batch: usize) -> u64 {
        (self.flops_per_row[ct.index()] * batch as f64) as u64
    }

    /// Overrides one type's per-row FLOPs (ablation hooks).
    pub fn set(&mut self, ct: CellTypeId, flops_per_row: f64) {
        self.flops_per_row[ct.index()] = flops_per_row;
    }

    /// Number of covered cell types.
    pub fn len(&self) -> usize {
        self.flops_per_row.len()
    }

    /// Whether the profile covers no types.
    pub fn is_empty(&self) -> bool {
        self.flops_per_row.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_cell::{Cell, LstmCell};

    fn registry() -> (CellRegistry, CellTypeId) {
        let mut reg = CellRegistry::new();
        let id = reg.register("lstm", Cell::Lstm(LstmCell::seeded(8, 8, 16, 1)), 0, 1, 64);
        (reg, id)
    }

    #[test]
    fn from_registry_matches_cell_flops() {
        let (reg, id) = registry();
        let p = CostProfile::from_registry(&reg);
        assert_eq!(p.flops(id, 1), reg.cell(id).flops(1));
        assert_eq!(p.flops(id, 7), 7 * reg.cell(id).flops(1));
    }

    #[test]
    fn paper_scale_ignores_actual_shapes() {
        let (reg, id) = registry();
        let p = CostProfile::paper_scale(&reg, 1024, 30_000);
        // Paper-scale LSTM step is ~16.8 MFLOPs/row despite the tiny
        // registered cell.
        assert!(p.flops(id, 1) > 16_000_000);
    }

    #[test]
    fn set_overrides() {
        let (reg, id) = registry();
        let mut p = CostProfile::from_registry(&reg);
        p.set(id, 123.0);
        assert_eq!(p.flops(id, 2), 246);
    }
}
