//! The cell registry: startup-time materialization of cell types.
//!
//! "Upon startup, BatchMaker loads each cell's definition and its
//! pre-trained weights from files … BatchMaker identifies the type of
//! each cell by its definition, weights, and input tensor shapes." (§4.2)
//! "Each type of cell has a desired maximum batch size, which is
//! determined through offline benchmarking."
//!
//! The registry deduplicates cells by exact comparison — same
//! [`CellSignature`](crate::CellSignature) (kind and input shapes) and
//! weights equal bit for bit — and records the scheduling metadata
//! Algorithm 1 consumes: the priority ("one can achieve better latency
//! by preferentially executing cell types that occur later in the
//! computation graph", §4.3) and the supported batch sizes `Bsizes`.

use std::sync::Arc;

use crate::signature::CellTypeId;
use crate::Cell;

/// Scheduling metadata and executable cell for one registered cell type.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// The type's identifier.
    pub id: CellTypeId,
    /// Human-readable name, unique within the registry.
    pub name: String,
    /// The executable cell.
    pub cell: Arc<Cell>,
    /// Scheduling priority; higher runs first on ties (§4.3).
    pub priority: u32,
    /// Desired maximum batch size (offline-benchmarked, §4.2).
    pub max_batch: usize,
    /// Minimum batch size worth scheduling as a non-head task
    /// (`Bsizes.Min()` in Algorithm 1).
    pub min_batch: usize,
}

/// A registry of cell types, deduplicated by exact identity.
#[derive(Debug, Default, Clone)]
pub struct CellRegistry {
    metas: Vec<CellMeta>,
}

impl CellRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a cell type, returning its id. The cell may already be
    /// shared (an `Arc<Cell>`), e.g. with another registry.
    ///
    /// A cell is an already registered type iff it has the same kind,
    /// the same input shapes and weights equal bit for bit
    /// (`f32::to_bits`, so `-0.0` and `0.0` differ): then the existing
    /// id is returned and the new metadata is ignored. Weights are read
    /// only for a registered cell of the same kind and shapes, and only
    /// up to the first differing value.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero, `min_batch > max_batch`, or the
    /// name collides with a cell of a different type.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        cell: impl Into<Arc<Cell>>,
        priority: u32,
        min_batch: usize,
        max_batch: usize,
    ) -> CellTypeId {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(
            min_batch <= max_batch,
            "min_batch must not exceed max_batch"
        );
        let cell = cell.into();
        if let Some(m) = self.metas.iter().find(|m| m.cell.same_type(&cell)) {
            return m.id;
        }
        let name = name.into();
        assert!(
            self.metas.iter().all(|m| m.name != name),
            "cell name {name:?} already registered as a different type"
        );
        let id = CellTypeId(self.metas.len() as u32);
        self.metas.push(CellMeta {
            id,
            name,
            cell,
            priority,
            max_batch,
            min_batch,
        });
        id
    }

    /// Metadata for a cell type.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this registry.
    pub fn meta(&self, id: CellTypeId) -> &CellMeta {
        &self.metas[id.index()]
    }

    /// The executable cell for a type.
    pub fn cell(&self, id: CellTypeId) -> &Arc<Cell> {
        &self.metas[id.index()].cell
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Iterates over all registered types in id order.
    pub fn iter(&self) -> impl Iterator<Item = &CellMeta> {
        self.metas.iter()
    }

    /// Looks up a type by name.
    pub fn by_name(&self, name: &str) -> Option<&CellMeta> {
        self.metas.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecoderCell, LstmCell, TreeInternalCell, TreeLeafCell};
    use bm_tensor::io::WeightBundle;

    /// One cell of every kind.
    fn cells() -> Vec<Cell> {
        vec![
            Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)),
            Cell::Decoder(DecoderCell::seeded(4, 6, 10, 3)),
            Cell::TreeLeaf(TreeLeafCell::seeded(4, 6, 10, 4)),
            Cell::TreeInternal(TreeInternalCell::seeded(6, 5)),
        ]
    }

    /// `cell` rebuilt from its bundle after `edit` changed the bundle.
    fn rebuilt(cell: &Cell, edit: impl FnOnce(&mut WeightBundle)) -> Cell {
        let mut bundle = cell.to_bundle();
        edit(&mut bundle);
        Cell::from_bundle(cell.kind_name(), &bundle).expect("edited bundle loads")
    }

    /// Registers `a` then `b` and says whether they got one id.
    fn one_type(a: Cell, b: Cell) -> bool {
        let mut reg = CellRegistry::new();
        reg.register("a", a, 0, 1, 8) == reg.register("b", b, 0, 1, 8)
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = CellRegistry::new();
        let id = reg.register("lstm", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 1, 64);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.meta(id).name, "lstm");
        assert_eq!(reg.meta(id).max_batch, 64);
        assert!(reg.by_name("lstm").is_some());
        assert!(reg.by_name("nope").is_none());
    }

    #[test]
    fn identical_cells_deduplicate() {
        let mut reg = CellRegistry::new();
        let a = reg.register("a", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 1, 64);
        let b = reg.register("b", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 9, 2, 8);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        // Original metadata wins.
        assert_eq!(reg.meta(a).priority, 0);
    }

    #[test]
    fn different_seeds_are_different_types() {
        let mut reg = CellRegistry::new();
        let a = reg.register("a", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 1, 64);
        let b = reg.register("b", Cell::Lstm(LstmCell::seeded(4, 6, 10, 2)), 0, 1, 64);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn changing_the_last_value_gives_a_new_type() {
        // One ulp in the last element of the bundle's last matrix (in
        // name order), each other value unchanged.
        for cell in cells() {
            let kind = cell.kind_name();
            let changed = rebuilt(&cell, |bundle| {
                let (name, m) = bundle.iter().last().expect("non-empty bundle");
                let (name, mut m) = (name.to_string(), m.clone());
                let v = m.as_mut_slice().last_mut().expect("non-empty matrix");
                *v = f32::from_bits(v.to_bits() ^ 1);
                bundle.insert(name, m);
            });
            assert!(!one_type(cell, changed), "{kind}");
        }
    }

    #[test]
    fn negative_zero_bias_gives_a_new_type() {
        let cell = Cell::Lstm(LstmCell::seeded(4, 6, 10, 1));
        let signed = rebuilt(&cell, |bundle| {
            let mut b = bundle.get("b").expect("bias").clone();
            assert_eq!(b.get(0, 0).to_bits(), 0.0f32.to_bits());
            b.set(0, 0, -0.0);
            bundle.insert("b", b);
        });
        assert!(!one_type(cell, signed));
    }

    #[test]
    fn kind_alone_separates_types() {
        // An LSTM loaded from a decoder's bundle has the decoder's input
        // shapes and, bit for bit, every weight the two kinds share.
        let decoder = Cell::Decoder(DecoderCell::seeded(4, 6, 10, 3));
        let lstm = Cell::from_bundle("lstm", &decoder.to_bundle()).expect("shared layout");
        assert_eq!(
            lstm.signature().input_shapes(),
            decoder.signature().input_shapes()
        );
        assert!(lstm
            .weights()
            .into_iter()
            .zip(decoder.weights())
            .all(|(a, b)| a.bits_eq(b)));
        assert!(!one_type(lstm, decoder));
    }

    #[test]
    fn tree_cells_are_distinct_types() {
        let mut reg = CellRegistry::new();
        let leaf = reg.register(
            "leaf",
            Cell::TreeLeaf(TreeLeafCell::seeded(4, 6, 10, 1)),
            0,
            1,
            64,
        );
        let internal = reg.register(
            "internal",
            Cell::TreeInternal(TreeInternalCell::seeded(6, 1)),
            1,
            1,
            64,
        );
        assert_ne!(leaf, internal);
        assert!(reg.meta(internal).priority > reg.meta(leaf).priority);
    }

    #[test]
    #[should_panic]
    fn zero_max_batch_rejected() {
        let mut reg = CellRegistry::new();
        reg.register("x", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 0, 0);
    }

    #[test]
    #[should_panic]
    fn name_collision_rejected() {
        let mut reg = CellRegistry::new();
        reg.register("x", Cell::Lstm(LstmCell::seeded(4, 6, 10, 1)), 0, 1, 4);
        reg.register("x", Cell::Lstm(LstmCell::seeded(4, 6, 10, 2)), 0, 1, 4);
    }
}
